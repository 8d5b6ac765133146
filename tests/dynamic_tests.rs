//! The dynamic-redistribution subsystem end to end: phase detection, the
//! per-array layout-state DP, and — the acceptance criteria — (1) the
//! exactness contract, priced plan cost == simulated plan cost under
//! `SimOptions::exact()` on every phase workload, and (2) transpose-heavy
//! workloads on which the dynamic plan's *simulated* total traffic
//! (redistribution included) beats the best single static distribution.

use array_alignment::prelude::*;

/// The headline result: on the FFT-like workload whose optimum flips
/// mid-program, `align_then_distribute_dynamic` finds a plan that is cheaper
/// in the exact communication simulator than the best static distribution,
/// even after paying for the mid-program all-to-all.
#[test]
fn dynamic_beats_static_on_transpose_heavy_workload() {
    let program = programs::fft_like(32, 40);
    let result = align_then_distribute_dynamic(&program, 8, &DynamicConfig::default());

    // The analysis found the flip and chose to redistribute.
    assert_eq!(result.phases.len(), 2);
    assert!(result.dynamic.redistributes(), "{}", result.dynamic);

    // Planned win (same units: simulated elements under the same options)...
    assert!(
        result.dynamic.planned_cost < result.static_planned_cost,
        "planned: dynamic {} vs static {}",
        result.dynamic.planned_cost,
        result.static_planned_cost
    );

    // ...confirmed end to end in the simulator, redistribution included.
    let opts = SimOptions::default();
    let dynamic_sim = simulate_dynamic(&result, opts);
    let static_sim = simulate_static(&result, opts);
    let redist_total: f64 = dynamic_sim.redist_elements.iter().sum();
    assert!(redist_total > 0.0, "the plan pays a real redistribution");
    assert!(
        dynamic_sim.total_elements() < static_sim.total_elements(),
        "simulated: dynamic {} (incl. {} redistributed) vs static {}",
        dynamic_sim.total_elements(),
        redist_total,
        static_sim.total_elements()
    );
}

/// The exactness contract of the per-array layout-state DP: for every phase
/// workload, the plan cost the DP priced equals what the communication
/// simulator reports for that plan — identically, under exact options. The
/// DP prices transitions per array from the true last-use layout, so there
/// is no approximation left to diverge.
#[test]
fn planned_cost_equals_simulated_cost_on_every_phase_workload() {
    for (name, program) in programs::phase_workloads() {
        let mut cfg = DynamicConfig::default();
        cfg.sim = SimOptions::exact();
        let result = align_then_distribute_dynamic(&program, 8, &cfg);
        let sim = simulate_dynamic(&result, SimOptions::exact());
        assert!(
            (result.dynamic.planned_cost - sim.total_elements()).abs() < 1e-6,
            "{name}: planned {} vs simulated {}",
            result.dynamic.planned_cost,
            sim.total_elements()
        );
    }
}

/// The regression the per-array DP exists for: `multi_array_pipeline`'s
/// arrays want different boundaries (A flips after the first loop, B after
/// the second). The old global-layout model forced every array through one
/// switch point and lost to static; per-array layout states let each array
/// move exactly once, where it wants to.
#[test]
fn multi_array_pipeline_dynamic_no_longer_loses_to_static() {
    let program = programs::multi_array_pipeline(32, 8);
    let result = align_then_distribute_dynamic(&program, 8, &DynamicConfig::default());
    let opts = SimOptions::default();
    let dynamic_sim = simulate_dynamic(&result, opts).total_elements();
    let static_sim = simulate_static(&result, opts).total_elements();
    assert!(
        dynamic_sim <= static_sim + 1e-9,
        "dynamic {dynamic_sim} must not lose to static {static_sim}"
    );
    // It should in fact win outright: each array pays one all-to-all
    // instead of losing whole phases.
    assert!(
        dynamic_sim < static_sim,
        "dynamic {dynamic_sim} vs static {static_sim}"
    );
    // And no boundary drags along an array the next phase never touches:
    // every priced step is for an array the destination phase references.
    for (b, steps) in result.dynamic.steps.iter().enumerate() {
        let next_refs = result.phases[b + 1].referenced();
        for step in steps {
            assert!(
                next_refs.contains(&step.array),
                "step for {} at boundary {b} prices an untouched array",
                step.name
            );
        }
    }
}

/// Reduction-heavy kernel with ragged batch extents: the reductions pin the
/// early phases, the late column work flips, and the dynamic plan beats
/// static while every per-array step is priced from a true last-use layout.
#[test]
fn reduction_tree_dynamic_beats_static() {
    let program = programs::reduction_tree(24, 24);
    let result = align_then_distribute_dynamic(&program, 8, &DynamicConfig::default());
    assert!(result.phases.len() >= 2, "the flip splits the program");
    assert!(result.dynamic.redistributes(), "{}", result.dynamic);
    let opts = SimOptions::default();
    let dynamic_sim = simulate_dynamic(&result, opts).total_elements();
    let static_sim = simulate_static(&result, opts).total_elements();
    assert!(
        dynamic_sim < static_sim,
        "dynamic {dynamic_sim} vs static {static_sim}"
    );
}

/// The redistribution price is honest: shortening the phases (fewer loop
/// trips) shrinks the per-iteration advantage until staying put wins — and
/// with DAG-driven boundary selection the unused seam then disappears from
/// the plan entirely.
#[test]
fn short_phases_do_not_redistribute() {
    let program = programs::fft_like(32, 1);
    let result = align_then_distribute_dynamic(&program, 8, &DynamicConfig::default());
    assert!(
        !result.dynamic.redistributes(),
        "switching cannot pay for itself at 1 trip: {}",
        result.dynamic
    );
    assert_eq!(
        result.phases.len(),
        1,
        "the unused boundary is coalesced away"
    );
}

/// The dynamic plan on a single-topology program reduces to a single phase
/// with no redistribution, priced no worse than the static solution.
#[test]
fn dynamic_degenerates_gracefully_on_static_programs() {
    for program in [programs::example1(64), programs::stencil2d(24, 3)] {
        let result = align_then_distribute_dynamic(&program, 4, &DynamicConfig::default());
        assert_eq!(result.phases.len(), 1, "{}", program.name);
        assert!(!result.dynamic.redistributes());
        assert!(
            result.dynamic.planned_cost <= result.static_planned_cost + 1e-9,
            "{}: dynamic {} vs static {}",
            program.name,
            result.dynamic.planned_cost,
            result.static_planned_cost
        );
    }
}

/// Multigrid V-cycle: the e18 seam regression. Atoms touching the
/// half-sized coarse grid used to be priced on their own shrunken template
/// (twice-as-fine blocks, double the shift traffic); pricing every atom on
/// the phase's covering template closes the gap, and the dynamic plan must
/// not read worse than static.
#[test]
fn multigrid_cover_template_closes_the_seam_gap() {
    let program = programs::multigrid_vcycle(32, 4, 4);
    let result = align_then_distribute_dynamic(&program, 8, &DynamicConfig::default());
    let sim = simulate_dynamic(&result, SimOptions::default());
    assert!(sim.total_elements().is_finite());
    assert_eq!(sim.per_phase.len(), result.phases.len());
    assert_eq!(sim.redist_elements.len(), result.phases.len() - 1);
    let static_sim = simulate_static(&result, SimOptions::default());
    assert!(
        sim.total_elements() <= static_sim.total_elements() + 1e-9,
        "dynamic {} vs static {} — the per-atom accounting must not be \
         conservative against the dynamic plan",
        sim.total_elements(),
        static_sim.total_elements()
    );
}

/// Every phase's candidate layer is non-empty, covers the full processor
/// count, keeps the phase's model optimum past the cap, and the chosen plan
/// picks within it.
#[test]
fn chosen_candidates_are_well_formed() {
    let result =
        align_then_distribute_dynamic(&programs::fft_like(16, 8), 8, &DynamicConfig::default());
    for (layer, (phase, (&chosen, dist))) in result.layers.iter().zip(
        result
            .phases
            .iter()
            .zip(result.dynamic.chosen.iter().zip(&result.dynamic.per_phase)),
    ) {
        assert!(chosen < layer.dists.len());
        // Bounded by the cap plus the retained favourites and forced
        // signatures (at most two per phase).
        assert!(
            layer.dists.len()
                <= phases::pipeline::MAX_CANDIDATES_PER_PHASE + 2 * result.phases.len()
        );
        assert_eq!(dist.grid().iter().product::<usize>(), 8);
        assert_eq!(format!("{}", layer.dists[chosen]), format!("{dist}"));
        // The phase's own model optimum is always retained.
        let favourite = phase.report.best().distribution.grid();
        assert!(
            layer.dists.iter().any(|d| d.grid() == favourite),
            "layer missing the phase optimum {favourite:?}"
        );
        // Layer signatures index into the shared pool.
        for &s in &layer.sigs {
            assert!(s < result.pool.len());
        }
    }
    // The shared pool makes "stay put" an explicit option: the dynamic plan
    // can never price worse than the best static candidate of the pool.
    assert!(result.dynamic.planned_cost <= result.static_planned_cost + 1e-9);
}

/// The headline acceptance of the loop-distribution refactor: on the
/// nested-loop FFT variant the row→column flip lives *inside* one loop
/// body. Top-level segmentation sees a single atom; loop distribution
/// fissions it, the detector cuts between the fissioned halves, and the
/// dynamic plan (including the redistribution of the shared read-only
/// operand `D`) beats the best static distribution in the exact simulator.
#[test]
fn nested_flip_boundary_found_by_loop_distribution_and_dynamic_wins() {
    let program = programs::fft_like_nested(32, 40);
    assert_eq!(
        program.num_top_level_stmts(),
        1,
        "the flip hides inside one top-level loop"
    );
    let result = align_then_distribute_dynamic(&program, 8, &DynamicConfig::default());
    assert_eq!(result.phases.len(), 2, "fission exposed the boundary");
    assert_eq!(result.num_atoms(), 2);
    // Both phases originate from the same top-level statement: the cut is
    // genuinely inside the loop body.
    assert_eq!(result.phases[0].range, (0, 1));
    assert_eq!(result.phases[1].range, (0, 1));
    assert!(result.dynamic.redistributes(), "{}", result.dynamic);
    assert_eq!(result.dynamic.per_phase[0].grid(), vec![8, 1]);
    assert_eq!(result.dynamic.per_phase[1].grid(), vec![1, 8]);
    // D is live across the fissioned boundary and pays a real all-to-all,
    // priced from its true last-use phase.
    assert_eq!(result.live[0].len(), 1);
    assert_eq!(result.live[0][0].1, "D");
    assert_eq!(result.dynamic.steps[0].len(), 1);
    assert_eq!(result.dynamic.steps[0][0].src_phase, 0);

    let opts = SimOptions::default();
    let dynamic_sim = simulate_dynamic(&result, opts);
    let static_sim = simulate_static(&result, opts);
    let redist_total: f64 = dynamic_sim.redist_elements.iter().sum();
    assert!(redist_total > 0.0, "the plan pays a real redistribution");
    assert!(
        dynamic_sim.total_elements() < static_sim.total_elements(),
        "simulated: dynamic {} (incl. {} redistributed) vs static {}",
        dynamic_sim.total_elements(),
        redist_total,
        static_sim.total_elements()
    );
}

/// The single-analysis contract: the phase pipeline aligns each atom
/// exactly once, plus one whole-program alignment for the static baseline —
/// never a second per-atom or per-phase pass, not even when boundary
/// coalescing merges phases. Single-atom programs are stricter still: the
/// atom IS the whole program, so the static baseline reuses its alignment
/// and the pipeline aligns exactly once in total. Uses the thread-local
/// alignment-call counter (same pattern as `lp`'s fallback counters).
#[test]
fn each_atom_is_aligned_exactly_once() {
    use alignment_core::pipeline::{align_call_count, reset_align_call_count};
    for (program, atoms) in [
        (programs::fft_like(32, 8), 2u64),
        (programs::fft_like_nested(32, 8), 2),
        (programs::multigrid_vcycle(16, 2, 2), 4),
        (programs::multi_array_pipeline(16, 4), 6),
        (programs::reduction_tree(16, 4), 5),
    ] {
        assert_eq!(program.distributable_atoms().len() as u64, atoms);
        reset_align_call_count();
        let result = align_then_distribute_dynamic(&program, 4, &DynamicConfig::default());
        assert_eq!(
            align_call_count(),
            atoms + 1,
            "{}: one alignment per atom + the static baseline",
            program.name
        );
        assert_eq!(result.num_atoms() as u64, atoms);
    }
    // Single-atom workloads: no separate static-baseline alignment.
    for program in [
        programs::conditional_pipeline(16, 4, 0.7),
        programs::lookup_table(64, 16, 4),
    ] {
        assert_eq!(program.distributable_atoms().len(), 1);
        reset_align_call_count();
        let result = align_then_distribute_dynamic(&program, 4, &DynamicConfig::default());
        assert_eq!(
            align_call_count(),
            1,
            "{}: the atom's alignment is the static baseline's",
            program.name
        );
        assert_eq!(result.num_atoms(), 1);
    }
}

/// The phase-flip workloads run the full pipeline end to end and stay
/// self-consistent under simulation.
#[test]
fn phase_workload_suite_runs_end_to_end() {
    for (name, program) in programs::phase_workloads() {
        let result = align_then_distribute_dynamic(&program, 8, &DynamicConfig::default());
        assert!(!result.phases.is_empty(), "{name}");
        assert!(result.dynamic.planned_cost.is_finite(), "{name}");
        let sim = simulate_dynamic(&result, SimOptions::default());
        assert!(sim.total_elements().is_finite(), "{name}");
        assert_eq!(sim.per_phase.len(), result.phases.len(), "{name}");
        assert_eq!(sim.redist_elements.len(), result.phases.len() - 1, "{name}");
        // Under the pricing options the simulator must agree with the plan
        // (the exact-options contract is locked separately above).
        assert!(
            (result.dynamic.planned_cost - sim.total_elements()).abs()
                <= 1e-6 * (1.0 + result.dynamic.planned_cost.abs()),
            "{name}: planned {} vs simulated {}",
            result.dynamic.planned_cost,
            sim.total_elements()
        );
    }
}

/// Control weights steer the conditional workload: the transpose branch is
/// absorbed by axis alignment (B is used nowhere else), so the residual is
/// the then-branch's irreducible shift — and its expected cost must scale
/// linearly with the branch probability.
#[test]
fn conditional_pipeline_weights_scale_expected_cost() {
    let often = programs::conditional_pipeline(32, 8, 0.95);
    let rarely = programs::conditional_pipeline(32, 8, 0.05);
    let (_, often_result) = align_program(&often, &PipelineConfig::default());
    let (_, rarely_result) = align_program(&rarely, &PipelineConfig::default());
    let (hi, lo) = (
        often_result.total_cost.total(),
        rarely_result.total_cost.total(),
    );
    assert!(lo > 0.0, "the shift branch is never free: {lo}");
    let ratio = hi / lo;
    assert!(
        (ratio - 0.95 / 0.05).abs() < 1e-6,
        "expected cost must scale with the branch weight: {hi} vs {lo} (ratio {ratio})"
    );
}

/// Hysteresis: a large switch margin must pin the plan to a single layout
/// (the margin outweighs any in-phase saving on this small instance), and
/// the reported planned cost stays exact — it is re-priced without the
/// margin, so it still equals the simulated cost.
#[test]
fn switch_margin_pins_the_plan_and_stays_exact() {
    let program = programs::fft_like(16, 4);
    let mut cfg = DynamicConfig::default();
    cfg.switch_margin = 1e9;
    let result = align_then_distribute_dynamic(&program, 8, &cfg);
    assert!(
        !result.dynamic.redistributes(),
        "an extreme margin forbids every switch: {}",
        result.dynamic
    );
    let sim = simulate_dynamic(&result, SimOptions::default());
    assert!(
        (result.dynamic.planned_cost - sim.total_elements()).abs()
            <= 1e-6 * (1.0 + result.dynamic.planned_cost.abs()),
        "planned {} vs simulated {}",
        result.dynamic.planned_cost,
        sim.total_elements()
    );
}

/// The paper's Example 5 through the dynamic pipeline at P = 8 (the
/// benchmark's `lp_bound` case): the mobile LP's axis-0 optimum leaves LIV
/// coefficients fractional and rounds onto a violated node constraint; the
/// repair pins what was rounded and re-solves, the repaired candidate —
/// mobile on axis 0, exact cost 1 000 against the unrepaired LP bound of 973
/// — is the one written, and the ladder (whose `static` rung gave 25 000 and
/// a 358-element plan) never engages. No offset LP fails outright.
#[test]
fn example5_keeps_its_mobile_axis0_offset() {
    trace::reset();
    let program = programs::example5_default();
    let result = align_then_distribute_dynamic(&program, 8, &DynamicConfig::default());

    assert_eq!(trace::counter("align.ladder_engaged"), 0);
    assert_eq!(trace::counter("align.round.repaired"), 1);
    assert_eq!(trace::counter("align.offset_lp_failed"), 0);
    assert_eq!(trace::counter("lp.l1.primal_fallback"), 0);

    let reports: Vec<_> = result
        .phases
        .iter()
        .flat_map(|p| &p.atoms)
        .flat_map(|a| &a.alignment.offset_reports)
        .collect();
    assert_eq!(reports.len(), 1, "one atom, one template axis");
    assert_eq!(reports[0].fallback, Some("pin-and-resolve"));
    assert_eq!(reports[0].exact_cost, 1000.0);
    assert_eq!(reports[0].violation_units, 0.0);
    let alignment = &result.phases[0].atoms[0].alignment.alignment;
    assert!(alignment.num_mobile() > 0, "axis 0 stays mobile");

    assert!(result.dynamic.planned_cost <= 76.0);
    assert_eq!(result.static_planned_cost, result.dynamic.planned_cost);
    assert_eq!(result.dynamic.chosen, [0]);
    assert_eq!(
        result.dynamic.per_phase[0].to_string(),
        "(BLOCK) on 8 processors"
    );
}
