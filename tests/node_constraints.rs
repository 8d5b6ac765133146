//! An axis solve derives its node constraints once
//! (`alignment_core::constraints::NodeConstraints`) and from then on only
//! evaluates them: the units it charges a set of offsets must be what
//! `lp::Problem::violation` charges the freshly built hard problem of the
//! same axis, less what that problem's translation pin charges, and the
//! cost model's violation penalty must be their scaled sum.

use alignment_core::constraints::{build_offset_constraints, NodeConstraints};
use alignment_core::position::OffsetAlign;
use array_alignment::prelude::*;
use bench::Rng;
use std::collections::HashSet;

/// Move up to five randomly chosen fixed offsets off their solved value, in
/// the constant or in a LIV coefficient.
fn knock(rand: &mut Rng, adg: &Adg, alignment: &mut ProgramAlignment, knocks: usize) {
    for _ in 0..knocks {
        let port = adg::PortId(rand.range_usize(0, adg.num_ports()));
        let axis = rand.range_usize(0, alignment.template_rank);
        let OffsetAlign::Fixed(offset) = &mut alignment.port_mut(port).offsets[axis] else {
            continue;
        };
        let by = rand.range_i64(1, 4) * if rand.bool_with(0.5) { 1 } else { -1 };
        let livs = adg.port(port).space.livs();
        *offset = if livs.is_empty() || rand.bool_with(0.5) {
            offset.clone() + align_ir::Affine::constant(by)
        } else {
            let liv = livs[rand.range_usize(0, livs.len())];
            offset.clone() + align_ir::Affine::new(0, [(liv, by)])
        };
    }
}

#[test]
fn derived_rows_charge_what_a_freshly_built_problem_charges() {
    let mut rand = Rng::new(18);
    let (mut violated, mut checked) = (0, 0);
    for (name, program) in programs::paper_programs() {
        let (adg, result) = align_program(&program, &PipelineConfig::default());
        let model = CostModel::new(&adg);
        // What the cost model charges per violated unit.
        let scale = adg.total_edge_data().max(1.0) * 1e3;
        for knocks in 0..=5 {
            let mut alignment = result.alignment.clone();
            knock(&mut rand, &adg, &mut alignment, knocks);
            let mut total_units = 0.0;
            for axis in 0..alignment.template_rank {
                let replicated: HashSet<_> = adg
                    .port_ids()
                    .filter(|&p| alignment.port(p).offsets[axis].is_replicated())
                    .collect();
                let sys = NodeConstraints::derive(&adg, &alignment, axis, &replicated);
                let values = sys.values(|p| alignment.port(p).offsets[axis].fixed());
                let units = sys.violation_units(&values);

                // The same values against the problem an RLP would be posed
                // over: its rows are the node rows followed by one pin row
                // per slot of the first source's definition port, which
                // charges that slot's distance from zero.
                let fresh = build_offset_constraints(&adg, &alignment, axis, &replicated);
                let source = adg
                    .nodes()
                    .find(|(_, n)| matches!(n.kind, adg::NodeKind::Source { .. }))
                    .and_then(|(_, n)| n.output_ports().first().copied());
                let pin: f64 = source
                    .into_iter()
                    .flat_map(|p| fresh.vars.slots(p))
                    .map(|v| values[v.0].abs())
                    .filter(|&d| d > 1e-6)
                    .sum();
                assert_eq!(
                    units,
                    fresh.problem.violation(&values, 1e-6) - pin,
                    "{name}, {knocks} knocks, axis {axis}"
                );
                assert_eq!(
                    units * scale,
                    model.offset_violation_on_axis(&alignment, axis),
                    "{name}, {knocks} knocks, axis {axis}"
                );
                total_units += units;
                checked += 1;
            }
            // Knocking offsets breaks no axis or stride relation, so the
            // penalty is the offset units alone, scaled.
            assert_eq!(
                model.total_cost(&alignment).violation,
                total_units * scale,
                "{name}, {knocks} knocks"
            );
            violated += usize::from(total_units > 0.0);
        }
    }
    assert!(checked >= 50, "only {checked} axis systems checked");
    assert!(violated >= 20, "only {violated} knocked alignments violate");
}
