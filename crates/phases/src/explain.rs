//! A human-readable explainer for dynamic plans.
//!
//! [`explain`] renders a [`DynamicPipelineResult`] as a per-phase report:
//! which signature each phase chose and at what in-phase simulated cost,
//! which candidates of the phase's layer lost and by how much, and — at
//! every boundary — each per-array redistribution step with its source and
//! destination layouts and priced element traffic. The rendered per-phase
//! and per-step costs sum **exactly** to
//! [`DynamicDistribution::planned_cost`](crate::DynamicDistribution::planned_cost)
//! (same numbers, same summation order), so the report is an audit of the
//! plan the DP priced, not a parallel estimate.
//!
//! Ordering is deterministic: phases and boundaries in program order,
//! losing candidates by ascending in-phase cost with ties broken on the
//! candidate's rendered form — golden tests can diff the output verbatim.

use crate::pipeline::DynamicPipelineResult;
use std::fmt::Write as _;

/// Render the plan. See the module docs for the shape of the report.
pub fn explain(result: &DynamicPipelineResult) -> String {
    let mut out = String::new();
    let d = &result.dynamic;

    // The exact totals the plan was priced from, in the same summation
    // order as `align_then_distribute_dynamic` (so they match bit for bit).
    let in_phase_total: f64 = d
        .chosen
        .iter()
        .zip(&result.layers)
        .map(|(&k, l)| l.costs[k])
        .sum();
    let redist_total: f64 = d.steps.iter().flatten().map(|s| s.cost.elements()).sum();

    let _ = writeln!(
        out,
        "dynamic plan: {} phase(s) on {} processors, planned cost {:.1} elements \
         (static best {:.1})",
        d.num_phases(),
        result.nprocs,
        d.planned_cost,
        result.static_planned_cost,
    );

    for (p, phase) in result.phases.iter().enumerate() {
        let layer = &result.layers[p];
        let chosen = d.chosen[p];
        let _ = writeln!(
            out,
            "\nphase {p}: atoms [{}, {}) of statements [{}, {}), cover {:?}",
            phase.atom_range.0,
            phase.atom_range.1,
            phase.range.0,
            phase.range.1,
            phase.cover_extents(),
        );
        let _ = writeln!(
            out,
            "  chosen  {}  in-phase {:.1} elements",
            layer.dists[chosen], layer.costs[chosen],
        );
        // Losing candidates, cheapest first, margin relative to the winner.
        let mut losers: Vec<(f64, String)> = layer
            .costs
            .iter()
            .zip(&layer.dists)
            .enumerate()
            .filter(|(k, _)| *k != chosen)
            .map(|(_, (&cost, dist))| (cost, dist.to_string()))
            .collect();
        losers.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
        for (cost, dist) in losers {
            let _ = writeln!(
                out,
                "  lost    {}  in-phase {:.1} (margin {:+.1})",
                dist,
                cost,
                cost - layer.costs[chosen],
            );
        }

        if let Some(steps) = d.steps.get(p) {
            let boundary_cost: f64 = steps.iter().map(|s| s.cost.elements()).sum();
            let _ = writeln!(
                out,
                "\nboundary {p} -> {}: {} array(s) priced, {:.1} elements",
                p + 1,
                steps.len(),
                boundary_cost,
            );
            for s in steps {
                let _ = writeln!(
                    out,
                    "  move {} {:?}: phase {} [{}] -> phase {} [{}]  {:.1} elements ({})",
                    s.name,
                    s.extents,
                    s.src_phase,
                    d.per_phase[s.src_phase],
                    p + 1,
                    d.per_phase[p + 1],
                    s.cost.elements(),
                    s.cost,
                );
            }
        }
    }

    let _ = writeln!(
        out,
        "\ntotal: in-phase {in_phase_total:.1} + boundary {redist_total:.1} = {:.1} elements",
        in_phase_total + redist_total,
    );
    out
}

/// One phase's side-by-side state in a [`PlanDiff`], keyed by its atom
/// range. A side is `None` when that plan has no phase covering exactly
/// this range (the partitions disagree there).
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseDelta {
    /// Atom-index range `[start, end)` — the matching key.
    pub atoms: (usize, usize),
    /// Plan `a`'s chosen distribution, rendered.
    pub dist_a: Option<String>,
    /// Plan `b`'s chosen distribution, rendered.
    pub dist_b: Option<String>,
    /// Plan `a`'s in-phase simulated cost.
    pub cost_a: Option<f64>,
    /// Plan `b`'s in-phase simulated cost.
    pub cost_b: Option<f64>,
}

/// One array's redistribution at one seam, side by side. A side is `None`
/// when that plan does not move this array at this seam.
#[derive(Debug, Clone, PartialEq)]
pub struct StepDelta {
    /// The seam's atom index (first atom of the destination phase) — the
    /// matching key together with `array`.
    pub seam_atom: usize,
    /// Which array moves.
    pub array: String,
    /// Plan `a`'s priced element traffic for this move.
    pub cost_a: Option<f64>,
    /// Plan `b`'s priced element traffic for this move.
    pub cost_b: Option<f64>,
}

/// A structured diff of two dynamic plans — the triage report a firing
/// counter or bench gate comes with. Built by [`explain_diff`].
#[derive(Debug, Clone, PartialEq)]
pub struct PlanDiff {
    /// Processor counts of the two plans.
    pub nprocs: (usize, usize),
    /// Plan `a`'s planned cost, re-summed in the pricing fold order (so it
    /// matches `a.dynamic.planned_cost` bit for bit — assert-locked).
    pub total_a: f64,
    /// Plan `b`'s planned cost, same contract.
    pub total_b: f64,
    /// Seams (atom indices) present in `b` but not `a`.
    pub boundaries_added: Vec<usize>,
    /// Seams (atom indices) present in `a` but not `b`.
    pub boundaries_removed: Vec<usize>,
    /// Per-phase state: `a`'s phases in program order (matched with `b`
    /// where the atom ranges coincide), then `b`-only phases.
    pub phases: Vec<PhaseDelta>,
    /// Per-seam per-array moves: `a`'s steps in pricing order (matched
    /// with `b` where seam and array coincide), then `b`-only steps.
    pub steps: Vec<StepDelta>,
}

impl PlanDiff {
    /// `planned_cost(a) - planned_cost(b)`, **exactly**: both totals are
    /// re-summed in the pricing fold order and assert-locked against the
    /// plans' own `planned_cost`, so this difference is bitwise the
    /// difference of the planned costs.
    pub fn cost_delta(&self) -> f64 {
        self.total_a - self.total_b
    }

    /// Whether the two plans have the same structure and costs (every
    /// matched entry equal on both sides, no one-sided entries, no seam
    /// drift).
    pub fn is_identical(&self) -> bool {
        self.boundaries_added.is_empty()
            && self.boundaries_removed.is_empty()
            && self
                .phases
                .iter()
                .all(|p| p.dist_a == p.dist_b && p.cost_a == p.cost_b)
            && self.steps.iter().all(|s| s.cost_a == s.cost_b)
    }
}

impl std::fmt::Display for PlanDiff {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "plan diff: a {:.1} vs b {:.1} elements (delta {:+.1})",
            self.total_a,
            self.total_b,
            self.cost_delta(),
        )?;
        if self.nprocs.0 != self.nprocs.1 {
            writeln!(f, "  nprocs: a {} vs b {}", self.nprocs.0, self.nprocs.1)?;
        }
        for s in &self.boundaries_removed {
            writeln!(f, "  boundary removed at atom {s}")?;
        }
        for s in &self.boundaries_added {
            writeln!(f, "  boundary added at atom {s}")?;
        }
        let fmt_side = |d: &Option<String>, c: Option<f64>| match (d, c) {
            (Some(d), Some(c)) => format!("{d} @ {c:.1}"),
            _ => "-".into(),
        };
        for p in &self.phases {
            if p.dist_a == p.dist_b && p.cost_a == p.cost_b {
                continue;
            }
            writeln!(
                f,
                "  phase atoms [{}, {}): a {}  |  b {}",
                p.atoms.0,
                p.atoms.1,
                fmt_side(&p.dist_a, p.cost_a),
                fmt_side(&p.dist_b, p.cost_b),
            )?;
        }
        let fmt_cost = |c: Option<f64>| c.map_or("-".into(), |c| format!("{c:.1}"));
        for s in &self.steps {
            if s.cost_a == s.cost_b {
                continue;
            }
            writeln!(
                f,
                "  move {} at atom {}: a {}  |  b {} elements",
                s.array,
                s.seam_atom,
                fmt_cost(s.cost_a),
                fmt_cost(s.cost_b),
            )?;
        }
        if self.is_identical() {
            writeln!(f, "  (plans are structurally identical)")?;
        }
        Ok(())
    }
}

/// The seams of a plan, as atom indices (start of each non-first phase).
fn seams(result: &DynamicPipelineResult) -> Vec<usize> {
    result
        .phases
        .iter()
        .skip(1)
        .map(|p| p.atom_range.0)
        .collect()
}

/// The pricing fold of one plan, in exactly
/// `align_then_distribute_dynamic`'s summation order.
fn fold_planned(result: &DynamicPipelineResult) -> f64 {
    let in_phase: f64 = result
        .dynamic
        .chosen
        .iter()
        .zip(&result.layers)
        .map(|(&k, l)| l.costs[k])
        .sum();
    let redist: f64 = result
        .dynamic
        .steps
        .iter()
        .flatten()
        .map(|s| s.cost.elements())
        .sum();
    in_phase + redist
}

/// Structurally diff two dynamic plans: seams added/removed, per-phase
/// signature and cost changes (phases matched by atom range), and per-seam
/// per-array redistribution deltas. The two totals are re-summed in the
/// pricing fold order and asserted bitwise against each plan's
/// `planned_cost`, so [`PlanDiff::cost_delta`] is **exactly**
/// `planned_cost(a) - planned_cost(b)` — the diff audits the priced plans,
/// it does not re-estimate them.
pub fn explain_diff(a: &DynamicPipelineResult, b: &DynamicPipelineResult) -> PlanDiff {
    let total_a = fold_planned(a);
    let total_b = fold_planned(b);
    assert_eq!(
        total_a.to_bits(),
        a.dynamic.planned_cost.to_bits(),
        "diff fold must reproduce a's planned cost exactly"
    );
    assert_eq!(
        total_b.to_bits(),
        b.dynamic.planned_cost.to_bits(),
        "diff fold must reproduce b's planned cost exactly"
    );

    let seams_a = seams(a);
    let seams_b = seams(b);
    let boundaries_added: Vec<usize> = seams_b
        .iter()
        .copied()
        .filter(|s| !seams_a.contains(s))
        .collect();
    let boundaries_removed: Vec<usize> = seams_a
        .iter()
        .copied()
        .filter(|s| !seams_b.contains(s))
        .collect();

    // Phases: a's in program order, matched by exact atom range; then
    // b-only phases. Both partitions are sorted, so matched entries keep
    // both plans' relative orders.
    let phase_side = |r: &DynamicPipelineResult, p: usize| {
        (
            r.dynamic.per_phase[p].to_string(),
            r.layers[p].costs[r.dynamic.chosen[p]],
        )
    };
    let mut phases: Vec<PhaseDelta> = Vec::new();
    for (p, phase) in a.phases.iter().enumerate() {
        let (dist_a, cost_a) = phase_side(a, p);
        let matched = b
            .phases
            .iter()
            .position(|q| q.atom_range == phase.atom_range);
        let (dist_b, cost_b) = match matched {
            Some(q) => {
                let (d, c) = phase_side(b, q);
                (Some(d), Some(c))
            }
            None => (None, None),
        };
        phases.push(PhaseDelta {
            atoms: phase.atom_range,
            dist_a: Some(dist_a),
            dist_b,
            cost_a: Some(cost_a),
            cost_b,
        });
    }
    for (q, phase) in b.phases.iter().enumerate() {
        if a.phases.iter().any(|p| p.atom_range == phase.atom_range) {
            continue;
        }
        let (dist_b, cost_b) = phase_side(b, q);
        phases.push(PhaseDelta {
            atoms: phase.atom_range,
            dist_a: None,
            dist_b: Some(dist_b),
            cost_a: None,
            cost_b: Some(cost_b),
        });
    }

    // Steps: a's in pricing order (boundary by boundary, then step order),
    // matched by (seam atom, array name); then b-only steps.
    let seam_of = |r: &DynamicPipelineResult, boundary: usize| r.phases[boundary + 1].atom_range.0;
    let mut steps: Vec<StepDelta> = Vec::new();
    for (p, boundary) in a.dynamic.steps.iter().enumerate() {
        let seam = seam_of(a, p);
        for s in boundary {
            let cost_b = seams_b
                .iter()
                .position(|&x| x == seam)
                .and_then(|q| b.dynamic.steps[q].iter().find(|t| t.name == s.name))
                .map(|t| t.cost.elements());
            steps.push(StepDelta {
                seam_atom: seam,
                array: s.name.clone(),
                cost_a: Some(s.cost.elements()),
                cost_b,
            });
        }
    }
    for (q, boundary) in b.dynamic.steps.iter().enumerate() {
        let seam = seam_of(b, q);
        for t in boundary {
            let covered = steps
                .iter()
                .any(|s| s.seam_atom == seam && s.array == t.name && s.cost_a.is_some());
            if !covered {
                steps.push(StepDelta {
                    seam_atom: seam,
                    array: t.name.clone(),
                    cost_a: None,
                    cost_b: Some(t.cost.elements()),
                });
            }
        }
    }

    // The itemisation covers a's fold exactly: re-summing the a-side
    // entries in entry order is the pricing fold again.
    let itemised_a: f64 = phases.iter().filter_map(|p| p.cost_a).sum::<f64>()
        + steps.iter().filter_map(|s| s.cost_a).sum::<f64>();
    assert_eq!(
        itemised_a.to_bits(),
        total_a.to_bits(),
        "a-side diff entries must re-sum to a's planned cost exactly"
    );

    PlanDiff {
        nprocs: (a.nprocs, b.nprocs),
        total_a,
        total_b,
        boundaries_added,
        boundaries_removed,
        phases,
        steps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{align_then_distribute_dynamic, DynamicConfig};
    use align_ir::programs;

    #[test]
    fn explanation_covers_phases_boundaries_and_totals() {
        let result = align_then_distribute_dynamic(
            &programs::fft_like(32, 40),
            8,
            &DynamicConfig::default(),
        );
        let text = explain(&result);
        assert!(text.contains("phase 0:"), "{text}");
        assert!(text.contains("phase 1:"), "{text}");
        assert!(text.contains("boundary 0 -> 1"), "{text}");
        assert!(text.contains("chosen"), "{text}");
        assert!(text.contains("lost"), "{text}");
        // The rendered total is the planned cost, formatted identically.
        assert!(
            text.contains(&format!("= {:.1} elements", result.dynamic.planned_cost)),
            "{text}"
        );
    }

    #[test]
    fn self_diff_is_identical_with_zero_delta() {
        let result = align_then_distribute_dynamic(
            &programs::fft_like(32, 40),
            8,
            &DynamicConfig::default(),
        );
        let diff = explain_diff(&result, &result);
        assert!(diff.is_identical(), "{diff}");
        assert_eq!(diff.cost_delta().to_bits(), 0.0f64.to_bits());
        assert!(diff.boundaries_added.is_empty());
        assert!(diff.boundaries_removed.is_empty());
        assert!(diff.to_string().contains("structurally identical"));
    }

    #[test]
    fn diff_against_forced_single_phase_reports_removed_seams_exactly() {
        let program = programs::fft_like(32, 40);
        let a = align_then_distribute_dynamic(&program, 8, &DynamicConfig::default());
        let mut forced = DynamicConfig::default();
        forced.boundaries = Some(vec![]);
        let b = align_then_distribute_dynamic(&program, 8, &forced);
        assert!(a.phases.len() > 1, "fft_like must split");
        assert_eq!(b.phases.len(), 1, "forced single phase");

        let diff = explain_diff(&a, &b);
        assert!(!diff.is_identical());
        // Every seam of `a` is gone in `b`, none were added.
        assert_eq!(diff.boundaries_removed.len(), a.phases.len() - 1);
        assert!(diff.boundaries_added.is_empty());
        // The delta is bitwise the planned-cost difference.
        assert_eq!(
            diff.cost_delta().to_bits(),
            (a.dynamic.planned_cost - b.dynamic.planned_cost).to_bits()
        );
        // a's moves show up as one-sided step entries.
        let a_steps: usize = a.dynamic.steps.iter().map(Vec::len).sum();
        assert_eq!(diff.steps.len(), a_steps);
        assert!(diff.steps.iter().all(|s| s.cost_b.is_none()));
        // The rendered report names the structural drift.
        let text = diff.to_string();
        assert!(text.contains("boundary removed"), "{text}");
        assert!(text.contains("plan diff: a "), "{text}");
    }
}
