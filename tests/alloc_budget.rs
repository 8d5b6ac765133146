//! The counter gate compares what the planner *does*; it cannot see how
//! often the planner asks the allocator for memory while doing it, and an
//! evaluation step that rebuilds what an earlier step already had shows up
//! there first. This binary holds one test, so nothing else allocates while
//! it counts: each budget is the allocation count of one warm solve, set
//! about a quarter above what the solve measured (26 822 and 70 524 with
//! debug assertions on) when `commsim` stopped allocating per traversal per
//! candidate and stopped storing coordinates. The commit before allocated
//! 59 148 and 84 204 times; the one before the offset RLP had one flat
//! representation, 75 680 and 130 147; the one that still enumerated
//! template extents corner by corner and re-derived the node constraints
//! per candidate, 295 362 and 351 453.

use array_alignment::prelude::*;

#[allow(dead_code)]
#[path = "../benchmark/src/workloads.rs"]
mod benchmark_workloads;
use benchmark_workloads::{stage_chain, StageChain};

/// Allocations of one `align_then_distribute_dynamic`, after a first solve
/// has paid for every lazily initialised static.
fn warm_solve_allocations(program: &Program, nprocs: usize) -> u64 {
    let config = DynamicConfig::default();
    drop(align_then_distribute_dynamic(program, nprocs, &config));
    let before = bench::alloc::stats().allocations;
    let result = align_then_distribute_dynamic(program, nprocs, &config);
    let after = bench::alloc::stats().allocations;
    drop(result);
    after - before
}

/// Live heap bytes a `PlacementCache` of `program`'s first atom holds on to.
fn retained_cache_bytes(program: &Program) -> u64 {
    let atoms = program.distributable_atoms();
    let sub = program.from_atoms(std::slice::from_ref(&atoms[0]));
    let (adg, result) = align_program(&sub, &PipelineConfig::default());
    let before = bench::alloc::stats().current_bytes;
    let cache = PlacementCache::new(&adg, &result.alignment, SimOptions::default());
    let retained = bench::alloc::stats().current_bytes - before;
    drop(cache);
    retained
}

#[test]
fn warm_solves_stay_within_their_allocation_budgets() {
    // A cache holds traversals, nothing per element: forty trips over a
    // 128 × 128 object sampled at 4 096 elements are one stored traversal
    // (≈ 130 KB while the cache stored two coordinates per sample).
    let retained = retained_cache_bytes(&programs::fft_like(128, 40));
    assert!(
        retained < 4096,
        "fft_like(128,40) atom 0: the placement cache retains {retained} bytes"
    );

    let cases = [
        (
            "reduction_tree(64,64)@32",
            programs::reduction_tree(64, 64),
            32,
            33_500u64,
        ),
        (
            "stage_chain-16@8",
            stage_chain(StageChain {
                n: 32,
                trips: 8,
                arrays: 2,
                stages: 8,
                seed: 11,
            }),
            8,
            88_000u64,
        ),
    ];
    for (name, program, nprocs, budget) in cases {
        let allocations = warm_solve_allocations(&program, nprocs);
        assert!(
            allocations <= budget,
            "{name}: {allocations} allocations in one warm solve, budget {budget}"
        );
    }
}
