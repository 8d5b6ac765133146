//! The DP's boundary-move pricing layer: one `LayoutDpProblem::solve` per
//! sample, each with a fresh `MovePricer`, so every layer's cells are priced
//! from scratch — pricing is about nine tenths of that call. The problems are
//! captured (`layout_dp_problem`: atom analysis, distribution search, layer
//! pricing) once outside the timed region from the benchmark's DP-running
//! planning cases, `stage_chain` included by path so the program is the one
//! `size_sweep` times.

use bench::BenchGroup;
use phases::{layout_dp_problem, DpPruning, DynamicConfig};

#[allow(dead_code)]
#[path = "../../../benchmark/src/workloads.rs"]
mod benchmark_workloads;
use benchmark_workloads::{stage_chain, StageChain};

fn main() {
    let workloads = [
        (
            "fft_like/128x40/16p",
            align_ir::programs::fft_like(128, 40),
            16,
        ),
        (
            "reduction_tree/64x64/32p",
            align_ir::programs::reduction_tree(64, 64),
            32,
        ),
        (
            "multi_array/32x8/8p",
            align_ir::programs::multi_array_pipeline(32, 8),
            8,
        ),
        (
            "stage_chain/32atoms/8p",
            stage_chain(StageChain {
                n: 32,
                trips: 8,
                arrays: 2,
                stages: 16,
                seed: 11,
            }),
            8,
        ),
    ];
    let cfg = DynamicConfig::default();
    let mut group = BenchGroup::new("move_pricing");
    for (name, program, nprocs) in &workloads {
        let problem = layout_dp_problem(program, *nprocs, &cfg);
        group.bench(*name, || {
            problem
                .solve(cfg.switch_margin, DpPruning::default())
                .expect("layout DP solve failed")
        });
    }
    group.finish();
}
