//! The distribution layer on its own: one `solve_distribution` per sample —
//! template extents measured, an exact placement cache built, every (grid,
//! layout) candidate priced by the elements it moves and ranked — on a
//! whole program's alignment, computed once outside the timed region (the
//! static baseline's view of the program). `reduction_tree` and `fft_like`
//! carry the large extents and long loops of the benchmark's
//! `planner_bound`; `stage_chain` at 32 atoms (included by path, so it is
//! the program `size_sweep` times) has many edges of small extent;
//! `lookup_table` is the control whose gather edges leave almost nothing to
//! measure or price.

use alignment_core::pipeline::{align_program, PipelineConfig};
use bench::BenchGroup;
use distrib::{solve_distribution, SolveConfig};

#[allow(dead_code)]
#[path = "../../../benchmark/src/workloads.rs"]
mod benchmark_workloads;
use benchmark_workloads::{stage_chain, StageChain};

fn main() {
    let workloads = [
        (
            "reduction_tree/64x64/p32",
            align_ir::programs::reduction_tree(64, 64),
            32,
        ),
        (
            "fft_like/128x40/p16",
            align_ir::programs::fft_like(128, 40),
            16,
        ),
        (
            "stage_chain/32atoms/p8",
            stage_chain(StageChain {
                n: 32,
                trips: 8,
                arrays: 2,
                stages: 16,
                seed: 11,
            }),
            8,
        ),
        (
            "lookup_table/2048x512x40/p16",
            align_ir::programs::lookup_table(2048, 512, 40),
            16,
        ),
    ];
    let mut group = BenchGroup::new("distrib_search");
    for (name, program, nprocs) in &workloads {
        let (adg, aligned) = align_program(program, &PipelineConfig::default());
        let config = SolveConfig::new(*nprocs);
        group.bench(*name, || {
            solve_distribution(&adg, &aligned.alignment, &config)
        });
    }
    group.finish();
}
