//! Correctness checks, run on the counted pass and never on timed ones.
//!
//! Two kinds: internal consistency of every plan (the planner's price equals
//! the independent simulator's, dynamic never worse than static, finite
//! totals), and the hand-written limits of `expected.json`, copied from the
//! paper goldens in `tests/paper_examples.rs` — never recorded from a run.

use crate::workloads::Replay;
use bench::Json;
use phases::{simulate_dynamic, DynamicPipelineResult};

/// Relative tolerance of the equalities checked here.
const TOLERANCE: f64 = 1e-6;

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= TOLERANCE * a.abs().max(b.abs()).max(1.0)
}

/// Per case, upper limits on components (`general`, `shift`, `broadcast`,
/// `violation`) of the whole-program alignment's cost.
#[derive(Debug, Clone, Default)]
pub struct Expected {
    limits: Vec<(String, String, f64)>,
}

impl Expected {
    /// The committed `expected.json`.
    pub fn committed() -> Expected {
        Expected::parse(include_str!("../expected.json")).expect("expected.json is well formed")
    }

    /// Parse `{"<case>": {"<component>": <limit>, ...}, ...}`.
    pub fn parse(text: &str) -> Result<Expected, String> {
        let Json::Obj(cases) = Json::parse(text)? else {
            return Err("expected.json: top level must be an object".into());
        };
        let mut limits = Vec::new();
        for (case, entry) in cases {
            let Json::Obj(components) = entry else {
                return Err(format!("expected.json: {case}: must be an object"));
            };
            for (component, limit) in components {
                if !["general", "shift", "broadcast", "violation"].contains(&component.as_str()) {
                    return Err(format!(
                        "expected.json: {case}: unknown component {component}"
                    ));
                }
                let limit = limit
                    .as_f64()
                    .ok_or_else(|| format!("expected.json: {case}.{component}: not a number"))?;
                limits.push((case.clone(), component, limit));
            }
        }
        Ok(Expected { limits })
    }
}

/// Every check a plan of `case` fails, as messages; empty when it passes.
pub fn check_plan(case: &str, r: &DynamicPipelineResult, expected: &Expected) -> Vec<String> {
    let mut failures = Vec::new();
    let planned = r.dynamic.planned_cost;
    let simulated = simulate_dynamic(r, r.config.sim).total_elements();
    if !(planned.is_finite() && simulated.is_finite() && r.static_planned_cost.is_finite()) {
        failures.push(format!(
            "non-finite totals: planned {planned}, simulated {simulated}, static {}",
            r.static_planned_cost
        ));
    }
    if !close(planned, simulated) {
        failures.push(format!("planned cost {planned} != simulated {simulated}"));
    }
    if planned > r.static_planned_cost && !close(planned, r.static_planned_cost) {
        failures.push(format!(
            "dynamic plan {planned} worse than static {}",
            r.static_planned_cost
        ));
    }
    let cost = r.static_result.alignment.total_cost;
    for (_, component, limit) in expected.limits.iter().filter(|(c, _, _)| c == case) {
        let value = match component.as_str() {
            "general" => cost.general,
            "shift" => cost.shift,
            "broadcast" => cost.broadcast,
            _ => cost.violation,
        };
        if value > limit + TOLERANCE {
            failures.push(format!(
                "alignment {component} {value} exceeds expected {limit}"
            ));
        }
    }
    failures
}

/// Checks of one replayed plan: the cached walk of the static plan equals
/// the uncached one, and the stored plan still passes [`check_plan`].
pub fn check_replay(
    case: &str,
    replay: &Replay,
    plan: &DynamicPipelineResult,
    expected: &Expected,
) -> Vec<String> {
    let mut failures = check_plan(case, plan, expected);
    if !close(replay.static_elements, replay.static_elements_uncached) {
        failures.push(format!(
            "cached static walk {} != uncached {}",
            replay.static_elements, replay.static_elements_uncached
        ));
    }
    if !replay.dynamic_elements.is_finite() {
        failures.push(format!(
            "non-finite replay total {}",
            replay.dynamic_elements
        ));
    }
    failures
}
