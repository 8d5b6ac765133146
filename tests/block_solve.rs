//! `lp::L1Problem::solve` splits an offset RLP into its connected blocks and
//! one atom analysis solves each distinct block once. The split changes the
//! simplex's pivot order, and the offset RLPs have alternative optima whose
//! roundings differ — so the contract that nothing observable moves is a
//! check, not a formality: the table below was pinned on the commit before
//! the change, where every RLP was one monolithic solve.
//! `pinned_plans_offsets_and_ladder_counters` uses only API that exists
//! there, so it can be run unchanged on that commit. The two tests after it
//! are about the memo itself: what a block answered from it costs, and what
//! makes two blocks different keys.

use array_alignment::lp::{BlockMemo, L1Problem, Problem, Relation};
use array_alignment::prelude::*;
use std::sync::Mutex;

/// The tests of this file run one at a time: one of them counts the
/// process's allocations.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

// The `stage_chain` programs are the ones the benchmark's `size_sweep` times.
#[allow(dead_code)]
#[path = "../benchmark/src/workloads.rs"]
mod benchmark_workloads;
use benchmark_workloads::{stage_chain, StageChain};

fn chain(stages: usize) -> Program {
    stage_chain(StageChain {
        n: 32,
        trips: 8,
        arrays: 2,
        stages,
        seed: 11,
    })
}

/// One solve's observable alignment work: the bits of `planned_cost`,
/// `static_planned_cost` and `static_model_cost()`; the count and FNV-1a
/// fold of every port's per-axis offset in every atom's alignment; and the
/// deltas of `align.ladder_engaged`, `align.offset_lp_failed` and
/// `lp.l1.primal_fallback`.
type Pinned = ([u64; 3], (usize, u64), [u64; 3]);

/// The nine `lp_bound` + `planner_bound` benchmark cases at their benchmark
/// processor counts, and `stage_chain` at 4 and 32 atoms.
fn cases() -> Vec<(&'static str, Program, usize, Pinned)> {
    vec![
        (
            "multigrid_vcycle-32-4-4",
            programs::multigrid_vcycle(32, 4, 4),
            8,
            (
                [
                    0x4096_4000_0000_0000,
                    0x4099_c000_0000_0000,
                    0x409e_4800_0000_0000,
                ],
                (214, 0xf591_3346_602c_b3ad),
                [0, 0, 0],
            ),
        ),
        (
            "multi_array_pipeline-32-8",
            programs::multi_array_pipeline(32, 8),
            8,
            (
                [
                    0x409c_0000_0000_0000,
                    0x40b2_0000_0000_0000,
                    0x40b1_7000_0000_0000,
                ],
                (348, 0x80e6_7ca4_0ddb_8583),
                [0, 0, 0],
            ),
        ),
        (
            "example5",
            programs::example5_default(),
            8,
            // Re-pinned when pin-and-re-solve kept this program's axis-0
            // offset mobile: 74 elements planned and static (358 before,
            // from the ladder's `static` rung), and no ladder.
            (
                [
                    0x4052_8000_0000_0000,
                    0x4052_8000_0000_0000,
                    0x40b3_cf56_5af4_3f4a,
                ],
                (40, 0x91eb_ca7f_b46f_1a66),
                [0, 0, 0],
            ),
        ),
        (
            "stencil2d-32-4",
            programs::stencil2d(32, 4),
            8,
            (
                [
                    0x4092_c000_0000_0000,
                    0x4092_c000_0000_0000,
                    0x4095_1800_0000_0000,
                ],
                (124, 0xf606_857f_e888_1ea9),
                [0, 0, 0],
            ),
        ),
        (
            "figure1-100",
            programs::figure1(100),
            8,
            (
                [0, 0, 0x40d3_e423_f5b9_cae7],
                (60, 0x1770_8034_f949_2e21),
                [0, 0, 0],
            ),
        ),
        (
            "fft_like-128-40",
            programs::fft_like(128, 40),
            16,
            (
                [
                    0x40cc_0000_0000_0000,
                    0x40f3_d800_0000_0000,
                    0x40e3_d800_0000_0000,
                ],
                (112, 0xdd78_acc4_f9e6_28b7),
                [0, 0, 0],
            ),
        ),
        (
            "reduction_tree-64-64",
            programs::reduction_tree(64, 64),
            32,
            (
                [
                    0x4108_deff_ffff_f547,
                    0x4117_df00_0000_0014,
                    0x4108_d9c6_87d6_343e,
                ],
                (272, 0x19c4_284b_5832_d7f8),
                [0, 0, 0],
            ),
        ),
        (
            "figure4",
            programs::figure4_default(),
            8,
            (
                [
                    0x4059_0000_0000_0000,
                    0x4059_0000_0000_0000,
                    0x40f8_8940_0000_007b,
                ],
                (72, 0x96b7_4092_925a_4a95),
                [0, 0, 0],
            ),
        ),
        (
            "lookup_table-2048-512-40",
            programs::lookup_table(2048, 512, 40),
            16,
            ([0, 0, 0], (26, 0x6000_be73_392c_6565), [0, 0, 0]),
        ),
        (
            "stage_chain-4",
            chain(2),
            8,
            (
                [
                    0x409c_0000_0000_0000,
                    0x40a8_0000_0000_0000,
                    0x40a7_4000_0000_0000,
                ],
                (232, 0x2664_ed8a_466a_5a15),
                [0, 0, 0],
            ),
        ),
        (
            "stage_chain-32",
            chain(16),
            8,
            (
                [
                    0x40c5_0000_0000_0000,
                    0x40d8_0000_0000_0000,
                    0x40d7_4000_0000_0000,
                ],
                (1856, 0xde6f_599c_ef11_ffc9),
                [0, 0, 0],
            ),
        ),
    ]
}

/// Count and FNV-1a fold of the `Debug` rendering of every port's per-axis
/// offset, atom by atom in program order.
fn fold_offsets(result: &DynamicPipelineResult) -> (usize, u64) {
    let mut count = 0;
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for atom in result.phases.iter().flat_map(|p| &p.atoms) {
        for port in &atom.alignment.alignment.ports {
            for offset in &port.offsets {
                count += 1;
                for byte in format!("{offset:?};").bytes() {
                    hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
    }
    (count, hash)
}

#[test]
fn pinned_plans_offsets_and_ladder_counters() {
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let mut mismatches = Vec::new();
    for (name, program, nprocs, pinned) in cases() {
        let before = CounterSnapshot::now();
        let result = align_then_distribute_dynamic(&program, nprocs, &DynamicConfig::default());
        let delta = CounterSnapshot::now().delta_since(&before);
        let got: Pinned = (
            [
                result.dynamic.planned_cost.to_bits(),
                result.static_planned_cost.to_bits(),
                result.static_model_cost().to_bits(),
            ],
            fold_offsets(&result),
            [
                "align.ladder_engaged",
                "align.offset_lp_failed",
                "lp.l1.primal_fallback",
            ]
            .map(|counter| delta.get(counter)),
        );
        if got != pinned {
            mismatches.push(format!("{name}: got {got:x?}, pinned {pinned:x?}"));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

/// `copies` copies of one three-unknown block — `weight·|x − y − 3| +
/// 2·|y + shift| + |z|` under `x + y − z = 1`, the first term cut to
/// `length` entries — side by side over disjoint unknowns.
fn copies_of_a_block(copies: usize, weight: f64, shift: f64, length: usize) -> L1Problem {
    let mut hard = Problem::new();
    let unknowns: Vec<_> = (0..3 * copies)
        .map(|_| hard.add_free_var("", 0.0))
        .collect();
    for xyz in unknowns.chunks(3) {
        let row = vec![(xyz[0], 1.0), (xyz[1], 1.0), (xyz[2], -1.0)];
        hard.add_constraint(row, Relation::Eq, 1.0);
    }
    let mut l1 = L1Problem::new(hard);
    for xyz in unknowns.chunks(3) {
        let span = [(xyz[0], 1.0), (xyz[1], -1.0)];
        l1.add_abs_term(weight, span[..length].to_vec(), -3.0);
        l1.add_abs_term(2.0, vec![(xyz[1], 1.0)], shift);
        l1.add_abs_term(1.0, vec![(xyz[2], 1.0)], 0.0);
    }
    l1
}

#[test]
fn a_block_answered_from_the_memo_allocates_nothing() {
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let memo = BlockMemo::default();
    let one = copies_of_a_block(1, 1.0, 0.0, 2);
    let many = copies_of_a_block(64, 1.0, 0.0, 2);
    many.solve_sharing(&memo).expect("the block is feasible");
    assert_eq!(memo.distinct_blocks(), 1);
    // The least of a few counts: the test harness may allocate on its own
    // thread while this one solves.
    let allocations = |l1: &L1Problem| {
        let count = |_| {
            let before = bench::alloc::stats().allocations;
            let solution = l1.solve_sharing(&memo);
            let after = bench::alloc::stats().allocations;
            assert!(solution.is_ok());
            after - before
        };
        (0..5).map(count).min().unwrap()
    };
    let hits = trace::counter("lp.l1.block_hits");
    let (for_one, for_many) = (allocations(&one), allocations(&many));
    assert_eq!(trace::counter("lp.l1.block_hits") - hits, 5 * 65);
    assert_eq!(memo.distinct_blocks(), 1, "every block was a hit");
    // What a solve allocates is sized by the problem — the split's index
    // vectors, the values — but counted per problem: 63 more blocks, posed
    // and answered, allocate nothing.
    assert_eq!(for_many, for_one);
}

#[test]
fn blocks_one_bit_one_sign_or_one_entry_apart_are_different_keys() {
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let next = f64::from_bits(1.0f64.to_bits() + 1);
    let variants = [
        copies_of_a_block(1, 1.0, 0.0, 2),
        copies_of_a_block(1, next, 0.0, 2),
        copies_of_a_block(1, 1.0, -0.0, 2),
        copies_of_a_block(1, 1.0, 0.0, 1),
    ];
    let memo = BlockMemo::default();
    let hits = trace::counter("lp.l1.block_hits");
    for (posed, l1) in variants.iter().enumerate() {
        l1.solve_sharing(&memo).expect("feasible");
        assert_eq!(
            memo.distinct_blocks(),
            posed + 1,
            "variant {posed} is its own key"
        );
    }
    assert_eq!(
        trace::counter("lp.l1.block_hits"),
        hits,
        "nothing was shared"
    );
    // `0.0` and `-0.0` are one value and two keys, with one answer.
    let at = |l1: &L1Problem| l1.solve_sharing(&memo).unwrap().values;
    assert_eq!(at(&variants[0]), at(&variants[2]));
    assert_eq!(trace::counter("lp.l1.block_hits"), hits + 2);
}
