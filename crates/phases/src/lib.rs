//! Phase analysis and dynamic redistribution.
//!
//! The SC'93 framework solves alignment and distribution for a whole program
//! against a *single* static distribution — even when a transpose-heavy
//! second half inverts the communication pattern of the first, so that no
//! one distribution is good everywhere. This crate adds the decision layer
//! the paper defers: it
//!
//! 1. [`segment`] — fissions the program into *distributable atoms* (loop
//!    distribution, [`align_ir::fission`]), aligns each atom **exactly
//!    once** into an [`AtomAnalysis`], and partitions the atom sequence into
//!    *phases* at communication-topology change points, detected from each
//!    atom's residual traffic (which template axis the data moves along,
//!    from the ADG edge weights) and from axis-permutation flips of shared
//!    arrays — so a topology flip *inside* a distribution-safe loop body is
//!    a cuttable seam;
//! 2. searches the (grid, layout) signature space **once per phase** — over
//!    all the phase's atoms, on the phase's covering template
//!    ([`distrib::solve_distribution_pooled`]) — and prices the shared
//!    cross-phase signature pool per phase, so "staying put" on another
//!    phase's favourite is always a comparable option;
//! 3. [`redist`] — prices per-array redistribution moves (BLOCK ↔ CYCLIC
//!    remaps, transpose-style all-to-alls, replication spreads and
//!    collapses) with a [`RedistCost`] backed by the exact
//!    [`commsim::redistribution_traffic`] owner comparison between *chosen
//!    resting placements* ([`commsim::RestingPlacement`]);
//! 4. [`dynamic`] — the **per-array layout-state DP**
//!    ([`dynamic::solve_layout_dp`]): the state carries each array's actual
//!    resting signature (the layout chosen by the phase that last used it),
//!    a transition into a phase prices exactly the arrays that phase
//!    touches from their true last-use layouts, and a layout switch must
//!    beat staying put by a hysteresis margin. The resulting
//!    [`DynamicDistribution::planned_cost`] — in-phase simulated traffic
//!    plus per-array moves — equals the simulator's verdict under the same
//!    sampling options (identically, under [`commsim::SimOptions::exact`]);
//! 5. [`pipeline`] — [`align_then_distribute_dynamic`], the three-stage
//!    driver (align → distribute per phase → redistribute between phases)
//!    with DAG-driven boundary selection (detected seams the chosen path
//!    does not use are cost-neutrally coalesced away), and
//!    [`simulate_dynamic`] replaying
//!    the identical accounting end to end in the communication simulator.

pub mod dynamic;
pub mod explain;
pub mod pipeline;
pub mod redist;
pub mod segment;

pub use dynamic::{
    solve_layout_dp, solve_layout_dp_with, DpPricer, DpPruning, DynamicDistribution, LayoutDpError,
    LayoutDpPlan, PhaseCandidates, RedistStep, SigId,
};
pub use explain::{explain, explain_diff, PhaseDelta, PlanDiff, StepDelta};
pub use pipeline::{
    align_then_distribute_dynamic, layout_dp_problem, layout_dp_problem_over_whole_space,
    simulate_dynamic, simulate_static, try_align_then_distribute_dynamic, DynamicConfig,
    DynamicPipelineResult, DynamicSimReport, LayoutDpProblem, PhaseResult, Sig, SolveSummary,
};
pub use redist::{price_redistribution, price_resting, RedistCost};
pub use segment::{
    analyze_atoms, detect_boundaries, detect_phase_boundaries, AtomAnalysis, PhaseSignature,
};
