//! Distributions are ranked by the number every plan is judged by: the
//! elements it moves, counted exactly by `commsim`. The search, the shared
//! pool, the candidate layers and the static baseline all rank by that
//! count, so the static baseline is the exact optimum of its space, a plan
//! does not change under transposition, and cutting the layers to a few
//! candidates costs nothing. Public API only.

use array_alignment::align_ir::builder::{add, reduce, rng};
use array_alignment::align_ir::Section;
use array_alignment::distrib::SignatureSpace;
use array_alignment::phases::{
    layout_dp_problem, layout_dp_problem_over_whole_space, DpPruning, LayoutDpProblem,
};
use array_alignment::prelude::*;

// The `stage_chain` programs are the ones the benchmark's `size_sweep` times.
#[allow(dead_code)]
#[path = "../benchmark/src/workloads.rs"]
mod benchmark_workloads;
use benchmark_workloads::{stage_chain, StageChain, SWEEP_STAGES};

/// Every combination of one layout per axis.
fn layout_product(per_axis: &[Vec<Layout>]) -> Vec<Vec<Layout>> {
    per_axis.iter().fold(vec![Vec::new()], |prefixes, choices| {
        prefixes
            .iter()
            .flat_map(|prefix| {
                choices.iter().map(move |&l| {
                    let mut next = prefix.clone();
                    next.push(l);
                    next
                })
            })
            .collect()
    })
}

#[test]
fn static_baseline_is_the_exact_minimum_of_the_whole_space() {
    for (name, program) in programs::phase_workloads() {
        for nprocs in [4, 8, 16, 32] {
            let result = align_then_distribute_dynamic(&program, nprocs, &DynamicConfig::default());
            let st = &result.static_result;
            let extents = &st.distribution.template_extents;
            let space = SignatureSpace::enumerate(extents, &SolveConfig::new(nprocs));
            let mut minimum = f64::INFINITY;
            for (grid, per_axis) in space.grids.iter().zip(&space.per_grid_layouts) {
                for layouts in layout_product(per_axis) {
                    let d = ProgramDistribution::new(extents, grid, &layouts);
                    let exact = simulate(&st.adg, &st.alignment.alignment, &d, SimOptions::exact());
                    minimum = minimum.min(exact.total_elements());
                }
            }
            assert_eq!(
                result.static_planned_cost, minimum,
                "{name} at P = {nprocs}: static baseline against the space's minimum"
            );
            assert!(
                result.dynamic.planned_cost <= result.static_planned_cost,
                "{name} at P = {nprocs}: dynamic {} over static {}",
                result.dynamic.planned_cost,
                result.static_planned_cost
            );
        }
    }
}

/// `[rows, cols]`, or `[cols, rows]` when `transposed`.
fn oriented<T>(transposed: bool, rows: T, cols: T) -> Vec<T> {
    if transposed {
        vec![cols, rows]
    } else {
        vec![rows, cols]
    }
}

/// `programs::reduction_tree(n, trips)`, written out, or its transpose:
/// every array transposed and the reduction taken over the other axis.
fn reduction_tree(n: i64, trips: i64, transposed: bool) -> Program {
    let m = 3 * n / 2 + 1;
    let shape = |rows, cols| oriented(transposed, rows, cols);
    let section = |rows, cols| oriented(transposed, rows, cols);
    let mut b = ProgramBuilder::new(format!(
        "reduction_tree(n={n},trips={trips},T={transposed})"
    ));
    let a = b.array("A", &shape(n, m));
    let bb = b.array("B", &shape(n, m));
    let s = b.array("S", &[n]);
    let row_reduce = |b: &mut ProgramBuilder| {
        let a_full = b.full_ref(a);
        let s_ref = b.full_ref(s);
        let dim = if transposed { 0 } else { 1 };
        b.assign(
            s,
            Section::new(vec![rng(1, n)]),
            add(s_ref, reduce(a_full, dim)),
        );
    };
    let row_shift = |b: &mut ProgramBuilder, arr| {
        let left = b.sec_ref(arr, section(rng(1, n), rng(1, m - 1)));
        let right = b.sec_ref(arr, section(rng(1, n), rng(2, m)));
        let lhs = Section::new(section(rng(1, n), rng(1, m - 1)));
        b.assign(arr, lhs, add(left, right));
    };
    let col_shift = |b: &mut ProgramBuilder, arr| {
        let upper = b.sec_ref(arr, section(rng(1, n - 1), rng(1, m)));
        let lower = b.sec_ref(arr, section(rng(2, n), rng(1, m)));
        let lhs = Section::new(section(rng(1, n - 1), rng(1, m)));
        b.assign(arr, lhs, add(upper, lower));
    };
    b.begin_loop(1, trips);
    row_reduce(&mut b);
    row_shift(&mut b, bb);
    b.end_loop();
    b.begin_loop(1, trips);
    col_shift(&mut b, bb);
    row_reduce(&mut b);
    b.end_loop();
    b.begin_loop(1, trips);
    col_shift(&mut b, a);
    b.end_loop();
    let p = b.finish();
    p.validate().expect("reduction_tree must be well formed");
    p
}

#[test]
fn reduction_tree_and_its_transpose_plan_to_equal_costs() {
    for n in [24, 64] {
        let (plain, transposed) = (reduction_tree(n, n, false), reduction_tree(n, n, true));
        for nprocs in [4, 8, 16, 32] {
            let config = DynamicConfig::default();
            let a = align_then_distribute_dynamic(&plain, nprocs, &config);
            let b = align_then_distribute_dynamic(&transposed, nprocs, &config);
            let label = format!("n = {n}, P = {nprocs}");
            assert_eq!(
                a.dynamic.planned_cost, b.dynamic.planned_cost,
                "{label}: dynamic"
            );
            assert_eq!(
                a.static_planned_cost, b.static_planned_cost,
                "{label}: static"
            );
        }
    }
    // The builder spelling is the named program.
    let named = align_then_distribute_dynamic(
        &programs::reduction_tree(24, 24),
        16,
        &DynamicConfig::default(),
    );
    let built = align_then_distribute_dynamic(
        &reduction_tree(24, 24, false),
        16,
        &DynamicConfig::default(),
    );
    assert_eq!(named.dynamic.planned_cost, built.dynamic.planned_cost);
}

/// The 3-D shifted stencil of `tests/distribution_tests.rs`: a sampled
/// ranker prices a sixth of its 615 candidates at 0 elements at P = 16; the
/// exact one finds the one that moves least. At P = 1 024 the space has
/// 4 701 candidates, priced from per-axis stay tables.
#[test]
fn cube_shift_picks_the_exact_optimum() {
    let n = 512;
    for (nprocs, grid, cost) in [
        (16, [2, 2, 4], 1_302_031.0),
        (1024, [8, 8, 16], 7_440_895.0),
    ] {
        let mut b = ProgramBuilder::new("cube_shift");
        let a = b.array("A", &[n, n, n]);
        let c = b.array("B", &[n, n, n]);
        let near = b.sec_ref(a, vec![rng(1, n - 1), rng(1, n - 1), rng(1, n - 1)]);
        let far = b.sec_ref(a, vec![rng(2, n), rng(2, n), rng(2, n)]);
        let lhs = Section::new(vec![rng(1, n - 1), rng(1, n - 1), rng(1, n - 1)]);
        b.assign(c, lhs, add(near, far));
        let result = align_then_distribute_dynamic(&b.finish(), nprocs, &DynamicConfig::default());
        let best = result.static_result.best();
        let label = format!("P = {nprocs}: {}", best.distribution);
        assert_eq!(best.distribution.grid(), grid, "{label}");
        assert_eq!(
            best.distribution.layouts(),
            vec![Layout::Block; 3],
            "{label}"
        );
        assert_eq!(result.static_planned_cost, cost, "{label}");
        assert_eq!(result.dynamic.planned_cost, cost, "{label}");
    }
}

/// What the benchmark checks on every `size_sweep` plan, over twenty seeds.
#[test]
fn stage_chains_plan_no_worse_than_static_and_price_as_replayed() {
    for seed in 1..=20 {
        for stages in SWEEP_STAGES {
            let program = stage_chain(StageChain {
                n: 32,
                trips: 8,
                arrays: 2,
                stages,
                seed,
            });
            let result = align_then_distribute_dynamic(&program, 8, &DynamicConfig::default());
            let label = format!("seed {seed}, {} atoms", 2 * stages);
            let planned = result.dynamic.planned_cost;
            assert!(
                planned <= result.static_planned_cost,
                "{label}: dynamic {planned} over static {}",
                result.static_planned_cost
            );
            let replayed = simulate_dynamic(&result, result.config.sim).total_elements();
            assert_eq!(planned, replayed, "{label}: planned against replayed");
        }
    }
}

/// Layers of at most this many signatures are solved over the whole space.
const WHOLE_SPACE_CAP: usize = 64;

#[test]
fn cut_layers_plan_like_the_whole_space() {
    let mut compared = 0;
    for (name, program) in programs::phase_workloads() {
        for nprocs in [4, 8] {
            let config = DynamicConfig::default();
            let whole = layout_dp_problem_over_whole_space(&program, nprocs, &config);
            if whole
                .layers()
                .iter()
                .any(|l| l.sigs.len() > WHOLE_SPACE_CAP)
            {
                continue;
            }
            let cut = layout_dp_problem(&program, nprocs, &config);
            let solve = |p: &LayoutDpProblem| {
                p.solve(config.switch_margin, DpPruning::default())
                    .expect("the DP solves")
                    .cost
            };
            assert_eq!(solve(&cut), solve(&whole), "{name} at P = {nprocs}");
            compared += 1;
        }
    }
    assert!(compared >= 8, "only {compared} cases under the cap");
}
