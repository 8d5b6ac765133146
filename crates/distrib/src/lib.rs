//! The distribution phase of Chatterjee–Gilbert–Schreiber's two-phase
//! alignment/distribution framework.
//!
//! The alignment phase (`alignment_core`) maps every array element onto a
//! cell of a Cartesian *template*; this crate maps template cells onto
//! physical processors, completing the pipeline the alignment-distribution
//! graph is named after:
//!
//! 1. [`grid`] — enumerate candidate processor-grid shapes (ordered
//!    factorisations of the processor count, one dimension per template
//!    axis);
//! 2. [`layout`] — `BLOCK` / `CYCLIC` / `CYCLIC(b)` layouts per axis, with
//!    the owner and owner-computes local-index maps;
//! 3. [`distribution`] — [`ProgramDistribution`], a whole-template
//!    distribution that plugs straight into the `commsim` simulator via its
//!    `TemplateDistribution` trait;
//! 4. [`cost`] — a machine-level cost model translating the alignment
//!    phase's residual shift/broadcast/general communication into element
//!    moves under a concrete distribution, plus a load-imbalance term;
//! 5. [`solve`] — exhaustive search over (grid, layout) candidates,
//!    producing a ranked [`DistributionReport`];
//! 6. [`pipeline`] — [`align_then_distribute`], the combined two-phase
//!    driver.

pub mod cost;
pub mod distribution;
pub mod grid;
pub mod layout;
pub mod pipeline;
pub mod solve;

pub use cost::{DistributionCost, DistributionCostModel};
pub use distribution::ProgramDistribution;
pub use grid::{count_grids, enumerate_grids};
pub use layout::{AxisDistribution, Layout};
pub use pipeline::{
    align_then_distribute, distribute_alignment, FullPipelineConfig, FullPipelineResult,
};
pub use solve::{
    rank_distributions, solve_distribution, solve_distribution_pooled, DistributionReport,
    RankedDistribution, SignatureSpace, SolveConfig,
};
