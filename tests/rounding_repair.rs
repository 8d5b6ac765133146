//! Pin-and-re-solve: a rounding that breaks a node constraint is repaired by
//! holding the unknowns the LP left fractional where the rounding put them
//! and solving the same RLP again, before the safety-net ladder is tried.
//! Which optimal vertex the simplex returns then no longer decides the plan:
//! with the repair the ladder engages on nothing the repository plans.

use array_alignment::core_::mobile_offset::solve_all_offsets;
use array_alignment::lp::{L1Problem, Problem, Relation, VarId};
use array_alignment::prelude::*;
use std::collections::HashSet;

#[allow(dead_code)]
#[path = "../benchmark/src/workloads.rs"]
mod benchmark_workloads;
use benchmark_workloads::{Kind, Workload};

const WATCHED: [&str; 6] = [
    "align.round.repaired",
    "align.round.repair_solves",
    "align.ladder_engaged",
    "lp.l1.primal_fallback",
    "align.offset_lp_failed",
    "lp.phase1_pivots",
];

/// Deltas of [`WATCHED`] over `run`, and what it returned.
fn watched<T>(run: impl FnOnce() -> T) -> ([u64; 6], T) {
    let before = WATCHED.map(trace::counter);
    let out = run();
    let after = WATCHED.map(trace::counter);
    (std::array::from_fn(|i| after[i] - before[i]), out)
}

#[test]
fn skewed_sweep_is_repaired_to_a_shift_free_alignment() {
    // A and B slide in opposite directions; the LP optimum prices at zero
    // but leaves a LIV coefficient at −23/24 (one equality ties it to its
    // neighbours with the trip count as coefficient), and rounding it breaks
    // that equality. Pinned at −1, the re-solve is integral and still free.
    let adg = build_adg(&programs::skewed_sweep(24));
    let ranks: Vec<usize> = adg.port_ids().map(|p| adg.port(p).rank).collect();
    let mut alignment = ProgramAlignment::identity(1, &ranks);
    let config = MobileOffsetConfig::with_strategy(OffsetStrategy::FixedPartition(3));
    let (counters, reports) =
        watched(|| solve_all_offsets(&adg, &mut alignment, &[HashSet::new()], config));
    assert_eq!(counters, [1, 1, 0, 0, 0, 0]);
    assert_eq!(reports[0].fallback, Some("pin-and-resolve"));
    assert_eq!(reports[0].violation_units, 0.0);
    let cost = CostModel::new(&adg).total_cost(&alignment);
    assert_eq!((cost.shift, cost.violation), (0.0, 0.0), "{cost}");
    assert!(alignment.num_mobile() > 0);
}

#[test]
fn multigrid_vcycle_whole_program_alignment_needs_no_ladder() {
    // `x₆₁ − x₅₉ − 4·x₆₀ = 0` with nothing pricing `x₆₀`: an optimal vertex
    // may put it at 0.25. Whether or not this one does, the plan is the same.
    let program = programs::multigrid_vcycle(32, 4, 4);
    let (counters, (_, result)) = watched(|| align_program(&program, &PipelineConfig::default()));
    assert_eq!(counters[2..], [0, 0, 0, 0], "{counters:?}");
    assert_eq!(result.total_cost.shift, 20_672.0);
    assert_eq!(result.total_cost.violation, 0.0);
    assert!(result
        .offset_reports
        .iter()
        .all(|r| r.violation_units == 0.0));
}

#[test]
fn nothing_the_repository_plans_reaches_the_ladder_or_a_phase_1() {
    let mut cases: Vec<(String, Program, usize)> = Vec::new();
    for kind in [Kind::LpBound, Kind::PlannerBound, Kind::SizeSweep] {
        let workload = Workload::build(kind, 11).expect("benchmark workload builds");
        let planned = workload.cases.into_iter();
        cases.extend(planned.map(|c| (c.name, c.program, c.nprocs)));
    }
    assert_eq!(cases.len(), 13);
    let named = programs::paper_programs().into_iter();
    let named = named.chain(programs::phase_workloads());
    cases.extend(named.map(|(name, program)| (name.to_string(), program, 8)));

    for (name, program, nprocs) in cases {
        let config = DynamicConfig::default();
        let (counters, result) =
            watched(|| align_then_distribute_dynamic(&program, nprocs, &config));
        assert_eq!(counters[2..], [0, 0, 0, 0], "{name}: {counters:?}");
        let atoms = result.phases.iter().flat_map(|p| &p.atoms);
        let alignments = atoms
            .map(|a| &a.alignment)
            .chain([&result.static_result.alignment]);
        for report in alignments.flat_map(|a| &a.offset_reports) {
            assert_eq!(report.violation_units, 0.0, "{name}: axis {}", report.axis);
        }
    }
}

#[test]
fn pinning_a_fractional_free_slack_reaches_an_integral_point_no_dearer_than_a_static_pin() {
    // The shape of every repaired rounding, by hand: `d` is a coefficient no
    // term prices, tied to the priced `a` and `b` by `b − a − 4·d = 0`. The
    // LP optimum `a = 0, b = 1` costs nothing and forces `d = 0.25`; rounded,
    // `d = 0` breaks the equality.
    let pose = |pins: &[(VarId, f64)]| {
        let mut hard = Problem::new();
        let [a, b, d] = [(); 3].map(|()| hard.add_free_var("", 0.0));
        hard.add_constraint(vec![(b, 1.0), (a, -1.0), (d, -4.0)], Relation::Eq, 0.0);
        for &(v, value) in pins {
            hard.add_constraint(vec![(v, 1.0)], Relation::Eq, value);
        }
        let mut l1 = L1Problem::new(hard);
        l1.add_abs_term(3.0, vec![(a, 1.0)], 0.0);
        l1.add_abs_term(2.0, vec![(b, 1.0)], -1.0);
        (l1, [a, b, d])
    };
    let (l1, [a, _, d]) = pose(&[]);
    let relaxed = l1.solve().unwrap();
    assert!(relaxed.objective.abs() < 1e-9);
    assert!((relaxed.value(d) - 0.25).abs() < 1e-9);
    let rounded: Vec<f64> = relaxed.values.iter().map(|v| v.round()).collect();
    assert!(!l1.equalities().is_feasible(&rounded, 1e-6));

    // The repair: pin what was fractional where it was rounded to.
    let fractional = relaxed.values.iter().enumerate();
    let fractional = fractional.filter(|(_, v)| (*v - v.round()).abs() > 1e-6);
    let pins: Vec<_> = fractional.map(|(i, v)| (VarId(i), v.round())).collect();
    assert_eq!(pins, [(d, 0.0)]);
    let (pinned, _) = pose(&pins);
    let repaired = pinned.solve().unwrap();
    let integral: Vec<f64> = repaired.values.iter().map(|v| v.round()).collect();
    for (v, r) in repaired.values.iter().zip(&integral) {
        assert!((v - r).abs() < 1e-9, "{:?}", repaired.values);
    }
    assert!(pinned.equalities().is_feasible(&integral, 1e-9));
    // `a = b` now, at the cheaper of the two targets (cost 2); the static
    // alternative — the mobile coefficient and the home both held — is 2 too.
    let (static_pin, _) = pose(&[(d, 0.0), (a, 0.0)]);
    assert_eq!(pinned.objective_at(&integral), 2.0);
    assert!(pinned.objective_at(&integral) <= static_pin.solve().unwrap().objective + 1e-9);
}
