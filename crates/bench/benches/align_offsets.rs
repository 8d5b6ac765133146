//! The offset layer of the alignment phase: one `solve_all_offsets` per
//! sample — every template axis's RLP posed, solved, rounded and exactly
//! re-priced — on the alignment the axis, stride and replication phases
//! leave behind, captured once outside the timed region. The programs are
//! solved whole (the static baseline's view of them): `stage_chain` at 32
//! atoms (included by path, so it is the program `size_sweep` times),
//! `multi_array_pipeline` and `reduction_tree`, whose RLPs fall apart into
//! two or more independent blocks per axis, and `multigrid_vcycle` and
//! `fft_like`, whose RLPs are one block — the controls.

use adg::{build_adg, Adg, PortId};
use align_ir::Program;
use alignment_core::axis::{solve_axes, template_rank};
use alignment_core::mobile_offset::{solve_all_offsets, MobileOffsetConfig};
use alignment_core::replication::{label_all, ReplicationConfig};
use alignment_core::stride::solve_strides;
use alignment_core::ProgramAlignment;
use bench::BenchGroup;
use std::collections::HashSet;

#[allow(dead_code)]
#[path = "../../../benchmark/src/workloads.rs"]
mod benchmark_workloads;
use benchmark_workloads::{stage_chain, StageChain};

/// The state `align_adg` hands its first offset round.
fn pre_offset(program: &Program) -> (Adg, ProgramAlignment, Vec<HashSet<PortId>>) {
    let adg = build_adg(program);
    let rank = template_rank(&adg);
    let ranks: Vec<usize> = adg.port_ids().map(|p| adg.port(p).rank).collect();
    let mut alignment = ProgramAlignment::identity(rank, &ranks);
    solve_axes(&adg, &mut alignment);
    solve_strides(&adg, &mut alignment);
    let labeling = label_all(&adg, &alignment, &[], &ReplicationConfig::default());
    let replicated = (0..rank)
        .map(|axis| labeling.replicated_ports(axis))
        .collect();
    (adg, alignment, replicated)
}

fn main() {
    let workloads = [
        (
            "stage_chain/32atoms",
            stage_chain(StageChain {
                n: 32,
                trips: 8,
                arrays: 2,
                stages: 16,
                seed: 11,
            }),
        ),
        (
            "multi_array/32x8",
            align_ir::programs::multi_array_pipeline(32, 8),
        ),
        (
            "multigrid_vcycle/32x4x4",
            align_ir::programs::multigrid_vcycle(32, 4, 4),
        ),
        (
            "reduction_tree/64x64",
            align_ir::programs::reduction_tree(64, 64),
        ),
        ("fft_like/128x40", align_ir::programs::fft_like(128, 40)),
    ];
    let mut group = BenchGroup::new("align_offsets");
    for (name, program) in &workloads {
        let (adg, alignment, replicated) = pre_offset(program);
        group.bench(*name, || {
            let mut alignment = alignment.clone();
            solve_all_offsets(
                &adg,
                &mut alignment,
                &replicated,
                MobileOffsetConfig::default(),
            )
        });
    }
    group.finish();
}
