//! End-to-end integration tests: every example and figure of the paper, run
//! through the full pipeline (ADG construction, axis, stride, replication,
//! mobile offsets) and checked both against the cost model and against the
//! communication simulator.

use array_alignment::prelude::*;

fn sim_machine(template_rank: usize) -> Machine {
    Machine::new(vec![4; template_rank], vec![8; template_rank])
}

#[test]
fn example1_offset_alignment_removes_all_communication() {
    let (adg, result) = align_program(&programs::example1(100), &PipelineConfig::default());
    assert!(result.total_cost.is_zero(), "{}", result.total_cost);
    let sim = simulate(
        &adg,
        &result.alignment,
        &sim_machine(result.template_rank),
        SimOptions::default(),
    );
    assert_eq!(sim.total_elements(), 0.0);
}

#[test]
fn example2_stride_alignment_removes_all_communication() {
    let (adg, result) = align_program(&programs::example2(100), &PipelineConfig::default());
    assert_eq!(result.total_cost.general, 0.0);
    assert_eq!(result.total_cost.shift, 0.0);
    let sim = simulate(
        &adg,
        &result.alignment,
        &sim_machine(result.template_rank),
        SimOptions::default(),
    );
    assert_eq!(sim.total.element_moves, 0.0);
}

#[test]
fn example3_axis_alignment_removes_the_transpose() {
    let (_, result) = align_program(&programs::example3(64), &PipelineConfig::default());
    assert!(result.total_cost.is_zero(), "{}", result.total_cost);
}

#[test]
fn figure1_mobile_alignment_is_residual_free() {
    let (adg, result) = align_program(&programs::figure1(64), &PipelineConfig::default());
    assert_eq!(result.total_cost.general, 0.0);
    assert_eq!(result.total_cost.shift, 0.0);
    // The only permitted communication is at most one broadcast of V
    // (2n = 128 elements) when the mobile alignment is realised through
    // replication.
    assert!(
        result.total_cost.broadcast <= 128.0 + 1e-6,
        "{}",
        result.total_cost
    );
    // Simulated: no point-to-point moves.
    let sim = simulate(
        &adg,
        &result.alignment,
        &sim_machine(result.template_rank),
        SimOptions::default(),
    );
    assert_eq!(
        sim.total.element_moves, 0.0,
        "simulator found residual moves"
    );
}

#[test]
fn figure1_beats_the_best_static_alignment() {
    let program = programs::figure1(64);
    let (_, mobile) = align_program(&program, &PipelineConfig::default());
    let mut static_cfg = PipelineConfig::default();
    static_cfg.offset = MobileOffsetConfig::static_only();
    static_cfg.disable_replication = true;
    let (_, fixed) = align_program(&program, &static_cfg);
    assert!(
        fixed.total_cost.total() > mobile.total_cost.total() * 4.0,
        "static {} vs mobile {}",
        fixed.total_cost,
        mobile.total_cost
    );
}

#[test]
fn example5_mobile_stride_beats_static() {
    use array_alignment::core_::axis::{solve_axes, template_rank};
    use array_alignment::core_::stride::{solve_strides, solve_strides_with};
    let program = programs::example5_default();
    let adg = build_adg(&program);
    let t = template_rank(&adg);
    let ranks: Vec<usize> = adg.port_ids().map(|p| adg.port(p).rank).collect();
    let model = CostModel::new(&adg);

    let mut mobile = ProgramAlignment::identity(t, &ranks);
    solve_axes(&adg, &mut mobile);
    solve_strides(&adg, &mut mobile);
    let mut fixed = ProgramAlignment::identity(t, &ranks);
    solve_axes(&adg, &mut fixed);
    solve_strides_with(&adg, &mut fixed, false);

    let mobile_general = model.total_cost(&mobile).general;
    let static_general = model.total_cost(&fixed).general;
    assert!(mobile_general > 0.0);
    // The paper's result: one general communication per iteration instead of
    // two. The exact ratio is slightly above 1/2 because the first iteration
    // is free either way (the section starts aligned), so allow that margin.
    assert!(
        mobile_general <= static_general * 0.52 + 1e-6,
        "mobile {mobile_general} vs static {static_general}"
    );
}

#[test]
fn example5_keeps_a_mobile_offset_on_axis_0() {
    // Example 5's sections grow with the LIV, so the best offsets follow it.
    // The mobile RLP's optimum (973, the bound) leaves LIV coefficients
    // fractional; repaired by pinning them, the rounded alignment stays
    // mobile, satisfies every node constraint and costs within 5 % of the
    // bound — where the static alternative costs 25 000.
    let (_, result) = align_program(&programs::example5_default(), &PipelineConfig::default());
    let report = &result.offset_reports[0];
    assert_eq!(report.axis, 0);
    assert_eq!(report.violation_units, 0.0);
    assert!(report.exact_cost <= 1.05 * 973.0, "{}", report.exact_cost);
    let mobile_on_axis_0 = |p: &array_alignment::core_::PortAlignment| {
        let offset = p.offsets[0].fixed();
        offset.is_some_and(|a| !a.is_constant())
    };
    assert!(result.alignment.ports.iter().any(mobile_on_axis_0));
}

#[test]
fn figure4_replication_turns_per_iteration_broadcast_into_one() {
    let program = programs::figure4_default();
    let (_, with_cut) = align_program(&program, &PipelineConfig::default());
    let mut base_cfg = PipelineConfig::default();
    base_cfg.disable_replication = true;
    let (_, baseline) = align_program(&program, &base_cfg);
    // Baseline: t (100 elements) broadcast every iteration (200 trips).
    assert!(baseline.total_cost.broadcast >= 100.0 * 200.0 * 0.9);
    // Min-cut: a single broadcast at loop entry.
    assert!(with_cut.total_cost.broadcast <= 200.0 + 1e-6);
}

#[test]
fn realistic_workloads_run_end_to_end() {
    for program in [
        programs::stencil2d(32, 4),
        programs::skewed_sweep(32),
        programs::lookup_table(64, 32, 8),
        programs::nested_mobile(8),
    ] {
        let (adg, result) = align_program(&program, &PipelineConfig::default());
        result.alignment.validate().unwrap();
        assert!(result.total_cost.total().is_finite());
        // The ADG must be structurally sound and the simulator must run.
        adg.validate(true).unwrap();
        let sim = simulate(
            &adg,
            &result.alignment,
            &sim_machine(result.template_rank),
            SimOptions::default(),
        );
        assert!(sim.total_elements().is_finite());
    }
}

#[test]
fn stencil_alignment_is_not_worse_than_static() {
    // The naive identity "alignment" violates the hard node constraints
    // (section values are views, pinned to their subscripts), so its
    // edge-metric cost is meaningless as a baseline. Compare against the
    // *feasible* static baseline instead: mobile offsets have strictly more
    // freedom, so (rounding noise aside) they must not lose.
    let program = programs::stencil2d(32, 4);
    let (_, mobile) = align_program(&program, &PipelineConfig::default());
    let mut static_cfg = PipelineConfig::default();
    static_cfg.offset = MobileOffsetConfig::static_only();
    static_cfg.disable_replication = true;
    let (_, fixed) = align_program(&program, &static_cfg);
    assert!(
        mobile.total_cost.total() <= fixed.total_cost.total() * 1.1 + 1e-6,
        "mobile {} vs static {}",
        mobile.total_cost,
        fixed.total_cost
    );
    assert!(mobile.total_cost.total().is_finite());
}

#[test]
fn offset_strategies_all_reproduce_figure1() {
    for strategy in [
        OffsetStrategy::SingleRange,
        OffsetStrategy::FixedPartition(3),
        OffsetStrategy::FixedPartition(5),
        OffsetStrategy::ZeroCrossing { max_rounds: 3 },
        OffsetStrategy::RecursiveRefinement { max_rounds: 3 },
        OffsetStrategy::Unrolling,
    ] {
        let (_, result) = align_program(
            &programs::figure1(24),
            &PipelineConfig::with_strategy(strategy),
        );
        assert_eq!(
            result.total_cost.shift,
            0.0,
            "strategy {} left residual shifts",
            strategy.name()
        );
    }
}
