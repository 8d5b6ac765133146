//! # array-alignment
//!
//! A Rust reproduction of *Mobile and Replicated Alignment of Arrays in
//! Data-Parallel Programs* (Chatterjee, Gilbert, Schreiber — Supercomputing
//! '93). This umbrella crate re-exports the workspace so applications can
//! depend on a single crate:
//!
//! * [`ir`] (`align-ir`) — the data-parallel array IR and the paper's example
//!   programs;
//! * [`adg`] — the alignment-distribution graph;
//! * [`lp`] — the revised simplex, and the L1 route through its dual, behind
//!   rounded linear programming;
//! * [`netflow`] — max-flow / min-cut for replication labeling;
//! * [`core`] (`alignment-core`) — the alignment analysis itself (axis,
//!   mobile stride, replication, mobile offset, pipeline);
//! * [`sim`] (`commsim`) — the distributed-memory communication simulator
//!   used to validate alignments;
//! * [`distrib`] — the distribution phase: processor-grid shapes, block /
//!   cyclic / block-cyclic layouts per template axis, and the cost-driven
//!   search combining both phases (`align_then_distribute`);
//! * [`phases`] — phase analysis and dynamic redistribution: partition the
//!   program where its communication topology changes, pick a distribution
//!   per phase, and price the redistribution steps between them
//!   (`align_then_distribute_dynamic`).
//!
//! ## Quick start
//!
//! ```
//! use array_alignment::prelude::*;
//!
//! // The paper's Figure 1 fragment, at n = 32.
//! let program = align_ir::programs::figure1(32);
//! let (adg, result) = align_program(&program, &PipelineConfig::default());
//!
//! // The analysis removes every residual shift; the only communication left
//! // is at most a single broadcast of V at loop entry.
//! assert_eq!(result.total_cost.general, 0.0);
//! assert_eq!(result.total_cost.shift, 0.0);
//!
//! // Simulate it on a 2x2 processor grid to confirm.
//! let machine = Machine::new(vec![2, 2], vec![16, 16]);
//! let report = simulate(&adg, &result.alignment, &machine, SimOptions::default());
//! assert_eq!(report.total.element_moves, 0.0);
//!
//! // Or let the distribution phase pick the machine: search grid shapes and
//! // per-axis layouts for 16 processors in one call.
//! let full = align_then_distribute(&program, 16, &FullPipelineConfig::default());
//! let chosen = &full.best().distribution;
//! assert_eq!(chosen.grid().iter().product::<usize>(), 16);
//! ```

pub use adg;
pub use align_ir;
pub use align_ir as ir;
pub use alignment_core;
pub use alignment_core as core_;
pub use commsim;
pub use commsim as sim;
pub use distrib;
pub use lp;
pub use netflow;
pub use phases;
pub use trace;

/// Everything most applications need.
pub mod prelude {
    pub use adg::{build_adg, Adg};
    pub use align_ir::{self, programs, Program, ProgramBuilder};
    pub use alignment_core::{
        align_program, AlignmentResult, CommCost, CostModel, MobileOffsetConfig, OffsetStrategy,
        PipelineConfig, ProgramAlignment,
    };
    pub use commsim::{
        simulate, Machine, PlacementCache, SimOptions, SimReport, TemplateDistribution,
    };
    pub use distrib::{
        align_then_distribute, distribute_alignment, solve_distribution, template_extents,
        AxisDistribution, DistributionReport, FullPipelineConfig, FullPipelineResult, Layout,
        ProgramDistribution, RankedDistribution, SolveConfig,
    };
    pub use phases::{
        align_then_distribute_dynamic, explain, explain_diff, simulate_dynamic, simulate_static,
        DynamicConfig, DynamicDistribution, DynamicPipelineResult, PhaseResult, PlanDiff,
        RedistCost, RedistStep, SolveSummary,
    };
    pub use trace::{self, CounterSnapshot, TraceConfig};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_reexports_compile() {
        use crate::prelude::*;
        let p = programs::example1(8);
        let (_, result) = align_program(&p, &PipelineConfig::default());
        assert!(result.total_cost.is_zero());
    }
}
