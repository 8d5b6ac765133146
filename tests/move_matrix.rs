//! The layout DP prices each layer's boundary moves as a matrix over compiled
//! sides (`commsim::RestingOwners`) instead of one owner comparison per cell.
//! The contract is that nothing observable moves: the table below was pinned
//! on the commit before the change, where every cell went through
//! `price_resting`. `pinned_plans_costs_and_counters` uses only API that
//! exists there, so it can be run unchanged on that commit.

use array_alignment::prelude::*;

// The `stage_chain` programs are the ones the benchmark's `size_sweep` times.
#[allow(dead_code)]
#[path = "../benchmark/src/workloads.rs"]
mod benchmark_workloads;
use benchmark_workloads::{stage_chain, StageChain};

/// FNV-1a over a sequence of `f64` bit patterns, with the count.
fn fold_bits(values: impl Iterator<Item = f64>) -> (usize, u64) {
    values.fold((0, 0xcbf2_9ce4_8422_2325), |(n, h), v| {
        (n + 1, (h ^ v.to_bits()).wrapping_mul(0x0100_0000_01b3))
    })
}

fn chain(stages: usize) -> Program {
    stage_chain(StageChain {
        n: 32,
        trips: 8,
        arrays: 2,
        stages,
        seed: 11,
    })
}

/// One solve's observable pricing: `planned_cost`, the fold of every step's
/// cost fields, and the deltas of `phases.pricer.{hits,misses}`,
/// `commsim.elements_priced` and `commsim.sampling_events`.
type Pinned = (u64, (usize, u64), [u64; 4]);

/// The nine `lp_bound` + `planner_bound` benchmark cases and `stage_chain`
/// at 4 and 32 atoms. Re-pinned when distributions came to be ranked by
/// exact elements under exact default options: no sampling events remain,
/// `commsim.elements_priced` counts exact traversals, the static baseline
/// of a one-atom program prices nothing again, and the plans of `fft_like`
/// and `reduction_tree` moved.
fn cases() -> Vec<(&'static str, Program, usize, Pinned)> {
    const NO_STEPS: (usize, u64) = (0, 0xcbf2_9ce4_8422_2325);
    vec![
        (
            "multigrid_vcycle-32-4-4",
            programs::multigrid_vcycle(32, 4, 4),
            8,
            (0x4096_4000_0000_0000, NO_STEPS, [0, 0, 184_320, 0]),
        ),
        (
            "multi_array_pipeline-32-8",
            programs::multi_array_pipeline(32, 8),
            8,
            (
                0x409c_0000_0000_0000,
                (16, 0xe630_1fb9_60ff_6465),
                [4756, 576, 1_608_704, 0],
            ),
        ),
        (
            "example5",
            programs::example5_default(),
            8,
            // Re-pinned when pin-and-re-solve kept this program's axis-0
            // offset mobile (358 elements before): the counters did not move.
            (0x4052_8000_0000_0000, NO_STEPS, [0, 0, 261_080, 0]),
        ),
        (
            "stencil2d-32-4",
            programs::stencil2d(32, 4),
            8,
            (0x4092_c000_0000_0000, NO_STEPS, [0, 0, 97_936, 0]),
        ),
        (
            "figure1-100",
            programs::figure1(100),
            8,
            (0, NO_STEPS, [0, 0, 6_090_200, 0]),
        ),
        (
            "fft_like-128-40",
            programs::fft_like(128, 40),
            16,
            (
                0x40ce_0000_0000_0000,
                (4, 0xea3d_767f_9dce_13f5),
                [1, 144, 28_758_016, 0],
            ),
        ),
        (
            "reduction_tree-64-64",
            programs::reduction_tree(64, 64),
            32,
            (
                0x40c7_9d00_0000_0000,
                (12, 0x974d_3cda_1d10_6495),
                [3, 468, 28_320_896, 0],
            ),
        ),
        (
            "figure4",
            programs::figure4_default(),
            8,
            (0x4059_0000_0000_0000, NO_STEPS, [0, 0, 20_180_400, 0]),
        ),
        (
            "lookup_table-2048-512-40",
            programs::lookup_table(2048, 512, 40),
            16,
            (0, NO_STEPS, [0, 0, 209_408, 0]),
        ),
        (
            "stage_chain-4",
            chain(2),
            8,
            (
                0x409c_0000_0000_0000,
                (8, 0xa407_f832_281a_39c5),
                [2, 288, 974_848, 0],
            ),
        ),
        (
            "stage_chain-32",
            chain(16),
            8,
            (
                0x40c5_0000_0000_0000,
                (72, 0xa623_33e1_5783_bec5),
                [12_690, 2592, 8_079_360, 0],
            ),
        ),
    ]
}

#[test]
fn pinned_plans_costs_and_counters() {
    let mut mismatches = Vec::new();
    for (name, program, nprocs, pinned) in cases() {
        let before = CounterSnapshot::now();
        let result = align_then_distribute_dynamic(&program, nprocs, &DynamicConfig::default());
        let delta = CounterSnapshot::now().delta_since(&before);
        let steps = result.dynamic.steps.iter().flatten().flat_map(|s| {
            // `stages + 0.0`: on the pinning commit a move that spreads
            // nothing reported -0.0 stages (an empty `f64` sum).
            [
                s.cost.moved,
                s.cost.broadcast,
                s.cost.stages + 0.0,
                s.cost.messages,
            ]
        });
        let got: Pinned = (
            result.dynamic.planned_cost.to_bits(),
            fold_bits(steps),
            [
                "phases.pricer.hits",
                "phases.pricer.misses",
                "commsim.elements_priced",
                "commsim.sampling_events",
            ]
            .map(|counter| delta.get(counter)),
        );
        if got != pinned {
            mismatches.push(format!("{name}: got {got:?}, pinned {pinned:?}"));
        }
        assert_eq!(
            delta.get("commsim.redist.evaluated_cells"),
            0,
            "{name}: a move was priced element by element"
        );
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

/// A layer is a matrix over a dozen sides per resting spot, and later layers
/// whose arrays rest the same way reuse them: far fewer sides are compiled
/// than cells priced.
#[test]
fn a_solve_compiles_far_fewer_sides_than_it_prices_cells() {
    let before = CounterSnapshot::now();
    let result = align_then_distribute_dynamic(&chain(16), 8, &DynamicConfig::default());
    let delta = CounterSnapshot::now().delta_since(&before);
    let cells = delta.get("phases.pricer.misses");
    let sides = delta.get("commsim.redist.sides_compiled");
    assert_eq!(cells, 2592);
    assert!(sides > 0 && sides * 10 <= cells, "{sides} sides");
    // The priced plan is still the simulated plan.
    let replay = simulate_dynamic(&result, result.config.sim).total_elements();
    assert_eq!(result.dynamic.planned_cost.to_bits(), replay.to_bits());
}
