//! `commsim` stores and walks each *distinct* placement of an edge once and
//! applies a repeat count for the loop-invariant iteration points that share
//! it. The contract is that nothing observable moves: every value below was
//! pinned on the commit before the collapse, where `PlacementCache::new` and
//! `simulate` still evaluated every sampled iteration point. The file uses
//! public API only, so it can be run unchanged on that commit.

use array_alignment::align_ir::builder::{add, rng};
use array_alignment::align_ir::Affine;
use array_alignment::alignment_core::position::OffsetAlign;
use array_alignment::prelude::*;

/// `program`'s `i`-th distributable atom, aligned on its own — what the
/// phase pipeline builds one placement cache per.
fn aligned_atom(program: &Program, i: usize) -> (Adg, ProgramAlignment) {
    let atoms = program.distributable_atoms();
    let sub = program.from_atoms(std::slice::from_ref(&atoms[i]));
    let (adg, result) = align_program(&sub, &PipelineConfig::default());
    (adg, result.alignment)
}

/// A two-deep nest whose one mobile offset follows the *outer* induction
/// variable only: three runs of five identical inner iterations per edge
/// that touches the shifted operand.
///
/// ```fortran
/// do k = 1, 3
///   do j = 1, 5
///     A(1:16,1:15) = A(1:16,1:15) + A(1:16,2:16)
/// ```
fn outer_mobile_nest() -> (Adg, ProgramAlignment) {
    let mut b = ProgramBuilder::new("outer_mobile_nest");
    let a = b.array("A", &[16, 16]);
    let k = b.begin_loop(1, 3);
    let _j = b.begin_loop(1, 5);
    let near = b.sec_ref(a, vec![rng(1, 16), rng(1, 15)]);
    let far = b.sec_ref(a, vec![rng(1, 16), rng(2, 16)]);
    b.assign(
        a,
        align_ir::Section::new(vec![rng(1, 16), rng(1, 15)]),
        add(near, far),
    );
    b.end_loop();
    b.end_loop();
    let program = b.finish();
    program.validate().expect("well formed");

    let adg = build_adg(&program);
    let ranks: Vec<usize> = adg.port_ids().map(|p| adg.port(p).rank).collect();
    let mut alignment = ProgramAlignment::identity(2, &ranks);
    let shifted: Vec<_> = adg
        .ports()
        .filter(|(_, p)| p.label.contains("2:16"))
        .map(|(pid, _)| pid)
        .collect();
    assert!(!shifted.is_empty(), "the shifted operand has a port");
    for pid in shifted {
        alignment.ports[pid.0].offsets[1] = OffsetAlign::Fixed(Affine::liv(k));
    }
    (adg, alignment)
}

/// `(commsim.elements_priced, commsim.sampling_events)` booked by `f`.
fn sampling_deltas(f: impl FnOnce()) -> (u64, u64) {
    let [priced, events, _] = walk_deltas(f);
    (priced, events)
}

/// An aligned program, a machine to walk it on, and the sampling deltas of
/// one build / one walk under default and under exact options.
type CounterCase = (
    &'static str,
    (Adg, ProgramAlignment),
    Machine,
    [(u64, u64); 2],
);

/// A folded iteration point must book exactly the traversal it did not walk.
#[test]
fn sampling_counters_read_as_if_every_point_were_walked() {
    let cases: Vec<CounterCase> = vec![
        (
            "fft_like(128,40) atom 0",
            aligned_atom(&programs::fft_like(128, 40), 0),
            Machine::block_distribution(vec![4, 4], &[128, 128]),
            [(1_654_784, 404), (6_603_776, 0)],
        ),
        (
            "reduction_tree(64,64) atom 0",
            aligned_atom(&programs::reduction_tree(64, 64), 0),
            Machine::block_distribution(vec![32], &[64]),
            [(122_656, 65), (424_256, 0)],
        ),
        (
            "figure1(24)",
            aligned_atom(&programs::figure1(24), 0),
            Machine::new(vec![2, 2], vec![8, 8]),
            [(88_176, 0), (88_176, 0)],
        ),
        (
            "outer_mobile_nest",
            outer_mobile_nest(),
            Machine::new(vec![2, 2], vec![4, 4]),
            [(43_312, 0), (43_312, 0)],
        ),
    ];
    for (name, (adg, alignment), machine, pinned) in &cases {
        for (opts, want) in [SimOptions::default(), SimOptions::exact()]
            .into_iter()
            .zip(pinned)
        {
            let build = sampling_deltas(|| {
                PlacementCache::new(adg, alignment, opts);
            });
            // `simulate` additionally books one event per edge whose
            // iterations it strides; none of these loops is that long.
            let walk = sampling_deltas(|| {
                simulate(adg, alignment, machine, opts);
            });
            assert_eq!(build, *want, "{name}: PlacementCache::new under {opts:?}");
            assert_eq!(walk, *want, "{name}: simulate under {opts:?}");
        }
    }
}

/// The nest has more than one run per edge and runs longer than one point;
/// cache and simulator must agree bit for bit on it (the same comparison
/// `cache_matches_simulate` makes inside `commsim`, here through the public
/// API so it also holds on the pinning commit).
#[test]
fn outer_mobile_nest_prices_identically_cached_and_walked() {
    let (adg, alignment) = outer_mobile_nest();
    for opts in [SimOptions::default(), SimOptions::sampled(16, 4)] {
        let cache = PlacementCache::new(&adg, &alignment, opts);
        for machine in [
            Machine::new(vec![2, 2], vec![4, 4]),
            Machine::cyclic(vec![2, 2]),
        ] {
            let walked = simulate(&adg, &alignment, &machine, opts);
            let cached = cache.price(&machine);
            assert!(walked.total.element_moves > 0.0, "the shift moves data");
            assert_eq!(
                walked.total.element_moves.to_bits(),
                cached.total.element_moves.to_bits()
            );
            assert_eq!(
                walked.total.messages.to_bits(),
                cached.total.messages.to_bits()
            );
            assert_eq!(
                cached.total_elements().to_bits(),
                cache.total_elements(&machine).to_bits()
            );
        }
    }
}

/// FNV-1a over a sequence of `f64` bit patterns, with the count.
fn fold_bits(values: impl Iterator<Item = f64>) -> (usize, u64) {
    values.fold((0, 0xcbf2_9ce4_8422_2325), |(n, h), v| {
        (n + 1, (h ^ v.to_bits()).wrapping_mul(0x0100_0000_01b3))
    })
}

/// The nine `lp_bound` + `planner_bound` benchmark cases: every candidate
/// layer cost (`PlacementCache::total_elements` sums — `reduction_tree`'s
/// carry the rounding of 250 000 additions of 3.897…, so any reordering
/// shows) and the exact replay of the chosen plan, bit for bit.
#[test]
fn layer_costs_and_exact_replay_keep_their_bits() {
    // (name, program, P, #layer costs, fold of their bits, exact replay bits)
    let cases: Vec<(&str, Program, usize, usize, u64, u64)> = vec![
        (
            "multigrid_vcycle-32-4-4",
            programs::multigrid_vcycle(32, 4, 4),
            8,
            8,
            0x08c7_7832_281a_39c5,
            0x4096_4000_0000_0000, // 1424
        ),
        (
            "multi_array_pipeline-32-8",
            programs::multi_array_pipeline(32, 8),
            8,
            48,
            0x4b3d_945a_1cd8_d6e5,
            0x409c_0000_0000_0000, // 1792
        ),
        (
            "example5",
            programs::example5_default(),
            8,
            5,
            // Re-pinned when pin-and-re-solve kept this program's axis-0
            // offset mobile (the ladder's `static` rung gave 358).
            0x5984_13d9_252b_e94f,
            0x4052_8000_0000_0000, // 74
        ),
        (
            "stencil2d-32-4",
            programs::stencil2d(32, 4),
            8,
            8,
            0x260d_f832_281a_39c5,
            0x4092_c000_0000_0000, // 1200
        ),
        (
            "figure1-100",
            programs::figure1(100),
            8,
            8,
            0xa8c7_f832_281a_39c5,
            0, // 0
        ),
        (
            "fft_like-128-40",
            programs::fft_like(128, 40),
            16,
            24,
            0x7c47_ffd7_003c_2305,
            0x40ce_0000_0000_0000, // 15360
        ),
        (
            "reduction_tree-64-64",
            programs::reduction_tree(64, 64),
            32,
            12,
            0xa043_7680_ebce_b2ae,
            0x40fb_4000_0000_0000, // 111616
        ),
        (
            "figure4",
            programs::figure4_default(),
            8,
            8,
            0xb39f_f832_281a_39c5,
            0x4059_0000_0000_0000, // 100
        ),
        (
            "lookup_table-2048-512-40",
            programs::lookup_table(2048, 512, 40),
            16,
            5,
            0xe4bc_4fd9_252b_e94f,
            0, // 0
        ),
    ];
    for (name, program, nprocs, count, costs, exact) in cases {
        let result = align_then_distribute_dynamic(&program, nprocs, &DynamicConfig::default());
        let layer_costs = result.layers.iter().flat_map(|l| l.costs.iter().copied());
        assert_eq!(
            fold_bits(layer_costs),
            (count, costs),
            "{name}: layer costs"
        );
        let replay = simulate_dynamic(&result, SimOptions::exact()).total_elements();
        assert_eq!(replay.to_bits(), exact, "{name}: exact replay {replay}");
    }
}

/// A trapezoidal nest whose one mobile offset follows the *outer* induction
/// variable: the run of identical inner iterations is as long as the outer
/// index, so no two runs have the same length.
///
/// ```fortran
/// do k = 1, 6
///   do j = 1, k
///     A(1:16,1:15) = A(1:16,1:15) + A(1:16,2:16)
/// ```
fn trapezoidal_nest() -> (Adg, ProgramAlignment) {
    let mut b = ProgramBuilder::new("trapezoidal_nest");
    let a = b.array("A", &[16, 16]);
    let k = b.begin_loop(1, 6);
    let _j = b.begin_loop(1, Affine::liv(k));
    let near = b.sec_ref(a, vec![rng(1, 16), rng(1, 15)]);
    let far = b.sec_ref(a, vec![rng(1, 16), rng(2, 16)]);
    b.assign(
        a,
        align_ir::Section::new(vec![rng(1, 16), rng(1, 15)]),
        add(near, far),
    );
    b.end_loop();
    b.end_loop();
    let program = b.finish();
    program.validate().expect("well formed");

    let adg = build_adg(&program);
    let ranks: Vec<usize> = adg.port_ids().map(|p| adg.port(p).rank).collect();
    let mut alignment = ProgramAlignment::identity(2, &ranks);
    for (pid, port) in adg.ports() {
        if port.label.contains("2:16") {
            alignment.ports[pid.0].offsets[1] = OffsetAlign::Fixed(Affine::liv(k));
        }
    }
    (adg, alignment)
}

/// `(commsim.elements_priced, commsim.sampling_events,
/// commsim.iterations_collapsed)` booked by `f`.
fn walk_deltas(f: impl FnOnce()) -> [u64; 3] {
    const NAMES: [&str; 3] = [
        "commsim.elements_priced",
        "commsim.sampling_events",
        "commsim.iterations_collapsed",
    ];
    let before = NAMES.map(trace::counter);
    f();
    let after = NAMES.map(trace::counter);
    [0, 1, 2].map(|i| after[i] - before[i])
}

/// Runs of unequal length (the trapezoid) and an iteration stride that does
/// not divide the trip count (`sampled(64, 7)`): the counters of a cache
/// build and of a walk, and the walk's traffic, pinned on the commit where
/// both still visited every sampled iteration point one by one.
#[test]
fn trapezoid_and_odd_stride_walks_keep_their_counters_and_bits() {
    // (name, program, machine, options, build deltas, walk deltas,
    //  fold of the walk's (moves, messages, broadcast) bits)
    type Case = (
        &'static str,
        (Adg, ProgramAlignment),
        Machine,
        SimOptions,
        [u64; 3],
        [u64; 3],
        u64,
    );
    let odd = SimOptions::sampled(64, 7);
    let cases: Vec<Case> = vec![
        (
            "trapezoidal_nest",
            trapezoidal_nest(),
            Machine::new(vec![2, 2], vec![4, 4]),
            SimOptions::default(),
            [62992, 0, 15],
            [62992, 0, 15],
            0xae6b_f218_6c0f_2fb7,
        ),
        (
            "trapezoidal_nest, odd stride",
            trapezoidal_nest(),
            Machine::cyclic(vec![2, 2]),
            odd,
            [7040, 110, 2],
            [7040, 120, 2],
            0xda09_b218_6c0f_2fb7,
        ),
        (
            "outer_mobile_nest, odd stride",
            outer_mobile_nest(),
            Machine::new(vec![2, 2], vec![4, 4]),
            odd,
            [4608, 72, 2],
            [4608, 82, 2],
            0x04bd_b218_6c0f_2fb7,
        ),
        (
            "fft_like(128,40) atom 0, odd stride",
            aligned_atom(&programs::fft_like(128, 40), 0),
            Machine::cyclic(vec![4, 4]),
            odd,
            [4736, 74, 6],
            [4736, 84, 6],
            0x104b_4c18_6c0f_2fb7,
        ),
        (
            "reduction_tree(64,64) atom 2, odd stride",
            aligned_atom(&programs::reduction_tree(64, 64), 2),
            Machine::block_distribution(vec![32], &[64]),
            odd,
            [5180, 74, 6],
            [5180, 84, 6],
            0x40fc_62d0_934f_250f,
        ),
    ];
    for (name, (adg, alignment), machine, opts, build_want, walk_want, bits_want) in &cases {
        let build = walk_deltas(|| {
            PlacementCache::new(adg, alignment, *opts);
        });
        let mut report = SimReport::default();
        let walk = walk_deltas(|| report = simulate(adg, alignment, machine, *opts));
        let total = report.total;
        let bits = fold_bits(
            [
                total.element_moves,
                total.messages,
                total.broadcast_elements,
            ]
            .into_iter(),
        )
        .1;
        assert_eq!(build, *build_want, "{name}: PlacementCache::new");
        assert_eq!(walk, *walk_want, "{name}: simulate");
        assert_eq!(
            bits, *bits_want,
            "{name}: traffic {total:?} folds to {bits:#x}"
        );
    }
}
