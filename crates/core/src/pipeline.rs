//! The phase-ordered alignment pipeline.
//!
//! `align_program` runs the complete analysis on a program:
//!
//! 1. build the ADG;
//! 2. axis alignment (discrete metric);
//! 3. stride alignment, allowing mobile strides (Section 3);
//! 4. iterate — replication labeling (Section 5) followed by per-axis mobile
//!    offset alignment (Section 4) — until the set of replicated ports stops
//!    changing (the "chicken-and-egg" iteration of Section 6) or the
//!    iteration budget is exhausted;
//! 5. evaluate the final realignment cost exactly.

use crate::axis::{solve_axes, template_rank};
use crate::cost::{CommCost, CostModel};
use crate::mobile_offset::{solve_all_offsets_sharing, MobileOffsetConfig, OffsetSolveReport};
use crate::position::ProgramAlignment;
use crate::replication::{label_all, ReplicationConfig, ReplicationLabeling};
use crate::stride::solve_strides;
use adg::{build_adg, Adg, NodeKind, PortId};
use align_ir::Program;
use lp::BlockMemo;
use std::collections::HashSet;

/// How many times [`align_program`] has run on the current thread since the
/// last [`reset_align_call_count`]. The phase pipeline's contract is *one*
/// alignment per atom (plus one for the whole-program static baseline);
/// regression tests assert on this counter. The count lives in the
/// thread-local `trace` registry as `align.calls`, so parallel test threads
/// do not interfere.
pub fn align_call_count() -> u64 {
    trace::counter("align.calls")
}

/// Reset the current thread's [`align_call_count`] (test setup).
pub fn reset_align_call_count() {
    trace::reset_counter("align.calls");
}

/// Configuration of the whole pipeline.
#[derive(Debug, Clone, Copy, Default)]
pub struct PipelineConfig {
    /// Mobile-offset solver configuration.
    pub offset: MobileOffsetConfig,
    /// Replication labeling configuration.
    pub replication: ReplicationConfig,
    /// Disable the replication phase entirely (used by the ablation
    /// experiments; every offset stays a single position).
    pub disable_replication: bool,
    /// Maximum replication ⇄ offset iterations (0 means 1 pass).
    pub max_iterations: usize,
}

impl PipelineConfig {
    /// The default configuration with a specific offset strategy.
    pub fn with_strategy(strategy: crate::mobile_offset::OffsetStrategy) -> Self {
        PipelineConfig {
            offset: MobileOffsetConfig::with_strategy(strategy),
            ..PipelineConfig::default()
        }
    }
}

/// Everything the pipeline produced.
#[derive(Debug, Clone)]
pub struct AlignmentResult {
    /// The chosen alignment for every port.
    pub alignment: ProgramAlignment,
    /// Template rank used.
    pub template_rank: usize,
    /// Discrete-metric cost left after the axis phase.
    pub axis_cost: f64,
    /// Discrete-metric cost left after the stride phase.
    pub stride_cost: f64,
    /// Per-axis offset solve statistics (from the final iteration).
    pub offset_reports: Vec<OffsetSolveReport>,
    /// The final replication labeling (if the phase ran).
    pub replication: Option<ReplicationLabeling>,
    /// Exact realignment cost of the final alignment.
    pub total_cost: CommCost,
    /// Number of replication ⇄ offset iterations performed.
    pub iterations: usize,
}

/// Run the full alignment analysis on a program. Returns the ADG (so callers
/// can evaluate or simulate) and the result.
pub fn align_program(program: &Program, config: &PipelineConfig) -> (Adg, AlignmentResult) {
    align_program_sharing(program, config, &BlockMemo::default())
}

/// [`align_program`] against the caller's memo of offset-RLP blocks: a block
/// an earlier analysis posed to `memo` — another statement of the same
/// shape, say — is not solved again. The result is the one
/// [`align_program`] returns.
pub fn align_program_sharing(
    program: &Program,
    config: &PipelineConfig,
    memo: &BlockMemo,
) -> (Adg, AlignmentResult) {
    let _span = trace::span("align.program");
    trace::count("align.calls", 1);
    let adg = {
        let _span = trace::span("align.adg_build");
        build_adg(program)
    };
    let result = align_adg_sharing(&adg, config, memo);
    (adg, result)
}

/// Run the alignment analysis on an already-built ADG. The template axes
/// and the replication ⇄ offset iterations share offset-RLP blocks among
/// themselves.
pub fn align_adg(adg: &Adg, config: &PipelineConfig) -> AlignmentResult {
    align_adg_sharing(adg, config, &BlockMemo::default())
}

fn align_adg_sharing(adg: &Adg, config: &PipelineConfig, memo: &BlockMemo) -> AlignmentResult {
    let t = template_rank(adg);
    let ranks: Vec<usize> = adg.port_ids().map(|p| adg.port(p).rank).collect();
    let mut alignment = ProgramAlignment::identity(t, &ranks);

    let axis_cost = {
        let _span = trace::span("align.axes");
        solve_axes(adg, &mut alignment)
    };
    let stride_cost = {
        let _span = trace::span("align.strides");
        solve_strides(adg, &mut alignment)
    };

    let max_iters = config.max_iterations.max(1);
    let mut forced_r: Vec<HashSet<PortId>> = vec![HashSet::new(); t];
    let mut replication: Option<ReplicationLabeling> = None;
    #[allow(unused_assignments)]
    let mut offset_reports: Vec<OffsetSolveReport> = Vec::new();
    let mut iterations = 0;

    loop {
        iterations += 1;
        let replication_span = trace::span("align.replication");
        let replicated_per_axis: Vec<HashSet<PortId>> = if config.disable_replication {
            // Only the replication the program semantics force (spread
            // inputs, lookup tables); no min-cut optimisation. Broadcasts
            // then happen wherever data enters those ports.
            crate::replication::required_replication(adg, &alignment, &config.replication)
        } else {
            let labeling = label_all(adg, &alignment, &forced_r, &config.replication);
            let sets = (0..t).map(|ax| labeling.replicated_ports(ax)).collect();
            replication = Some(labeling);
            sets
        };
        drop(replication_span);

        offset_reports = solve_all_offsets_sharing(
            adg,
            &mut alignment,
            &replicated_per_axis,
            config.offset,
            memo,
        );

        if config.disable_replication || iterations >= max_iters {
            break;
        }
        // Constraint 3 of Section 5.2: read-only objects that ended up with a
        // mobile offset along a space axis are replication candidates in the
        // next round.
        let new_forced = read_only_mobile_ports(adg, &alignment);
        if new_forced == forced_r {
            break;
        }
        forced_r = new_forced;
    }

    let total_cost = {
        let _span = trace::span("align.total_cost");
        // The last round's axis solves have just measured each axis's
        // violation units against its node constraints; only the edges are
        // left to price.
        let model = CostModel::new(adg);
        let measured: Vec<f64> = offset_reports.iter().map(|r| r.violation_units).collect();
        let cost = model.total_cost_given(&alignment, &measured);
        debug_assert_eq!(cost, model.total_cost(&alignment));
        cost
    };
    AlignmentResult {
        alignment,
        template_rank: t,
        axis_cost,
        stride_cost,
        offset_reports,
        replication,
        total_cost,
        iterations,
    }
}

/// Ports of read-only arrays (never assigned, hence no sink node) whose
/// offset along a space axis is mobile: the paper's third source of
/// replication.
fn read_only_mobile_ports(adg: &Adg, alignment: &ProgramAlignment) -> Vec<HashSet<PortId>> {
    let t = alignment.template_rank;
    let assigned: HashSet<usize> = adg
        .nodes()
        .filter_map(|(_, n)| match n.kind {
            NodeKind::Sink { array } => Some(array.0),
            _ => None,
        })
        .collect();
    let mut out = vec![HashSet::new(); t];
    for pid in adg.port_ids() {
        let port = adg.port(pid);
        let Some(array) = port.array else { continue };
        if assigned.contains(&array.0) {
            continue;
        }
        let pa = alignment.port(pid);
        for (axis, axis_set) in out.iter_mut().enumerate().take(t) {
            if pa.axis_map.contains(&axis) {
                continue; // body axis
            }
            if let crate::position::OffsetAlign::Fixed(a) = &pa.offsets[axis] {
                if !a.is_constant() {
                    axis_set.insert(pid);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use align_ir::programs;

    #[test]
    fn paper_programs_align_end_to_end() {
        for (name, prog) in programs::paper_programs() {
            let (_, result) = align_program(&prog, &PipelineConfig::default());
            result
                .alignment
                .validate()
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(result.total_cost.total().is_finite(), "{name}");
            assert_eq!(result.axis_cost, 0.0, "{name} axis phase");
        }
    }

    #[test]
    fn example1_is_communication_free() {
        let (_, result) = align_program(&programs::example1(100), &PipelineConfig::default());
        assert!(result.total_cost.is_zero(), "{}", result.total_cost);
    }

    #[test]
    fn example3_is_communication_free() {
        let (_, result) = align_program(&programs::example3(32), &PipelineConfig::default());
        assert!(result.total_cost.is_zero(), "{}", result.total_cost);
    }

    #[test]
    fn figure1_ends_with_mobile_or_replicated_v() {
        let (_, result) = align_program(&programs::figure1(32), &PipelineConfig::default());
        // After the replication ⇄ offset iteration, V is either mobile (and
        // then replicated) or directly replicated; either way the residual
        // shift cost is zero and the only communication is at most one
        // broadcast of V.
        assert_eq!(result.total_cost.general, 0.0, "{}", result.total_cost);
        assert_eq!(result.total_cost.shift, 0.0, "{}", result.total_cost);
        assert!(result.alignment.num_mobile() > 0 || result.alignment.num_replicated() > 0);
    }

    #[test]
    fn figure4_broadcast_collapses_to_loop_entry() {
        let (_, with_rep) = align_program(&programs::figure4_default(), &PipelineConfig::default());
        let mut no_rep_cfg = PipelineConfig::default();
        no_rep_cfg.disable_replication = true;
        let (_, no_rep) = align_program(&programs::figure4_default(), &no_rep_cfg);
        // Without replication the spread input must be broadcast (or shifted)
        // every iteration; with replication the broadcast happens once.
        assert!(
            with_rep.total_cost.broadcast <= 200.0 + 1e-6,
            "with replication: {}",
            with_rep.total_cost
        );
        assert!(
            no_rep.total_cost.total() > with_rep.total_cost.total(),
            "replication must help: {} vs {}",
            no_rep.total_cost,
            with_rep.total_cost
        );
    }

    #[test]
    fn iteration_terminates() {
        let mut cfg = PipelineConfig::default();
        cfg.max_iterations = 5;
        let (_, result) = align_program(&programs::figure1(16), &cfg);
        assert!(result.iterations <= 5);
    }

    #[test]
    fn disable_replication_skips_the_min_cut_labeling() {
        let mut cfg = PipelineConfig::default();
        cfg.disable_replication = true;
        // The min-cut labeling is skipped entirely...
        let (_, result) = align_program(&programs::figure4(16, 8, 4), &cfg);
        assert!(result.replication.is_none());
        // ...but the replication the program semantics force (figure4's
        // spread input) is still applied — that is exactly the ablation
        // baseline where data is re-broadcast on every iteration.
        assert!(result.alignment.num_replicated() >= 1);
        // A program without spreads or lookup tables has nothing forced.
        let (_, plain) = align_program(&programs::figure1(16), &cfg);
        assert_eq!(plain.alignment.num_replicated(), 0);
        assert!(plain.replication.is_none());
    }
}
