//! The alignment analysis of Chatterjee, Gilbert and Schreiber (SC'93),
//! *Mobile and Replicated Alignment of Arrays in Data-Parallel Programs*.
//!
//! Given the alignment-distribution graph (ADG) of an array program, this
//! crate determines an alignment for every port — axis, stride and offset per
//! template axis, where offsets (and strides) inside loops may be *mobile*
//! (affine functions of the loop induction variables) and offsets along space
//! axes may be *replicated* — so as to minimise residual (realignment)
//! communication.
//!
//! The phases, in the order the [`pipeline`] runs them:
//!
//! 1. **Axis alignment** ([`axis`]) — discrete metric, propagation of the hard
//!    node constraints plus search over the free per-class choices.
//! 2. **Stride alignment** ([`stride`]) — discrete metric; mobile strides are
//!    affine in the LIVs (Section 3 of the paper).
//! 3. **Replication labeling** ([`replication`]) — which ports hold
//!    replicated copies along each space axis, decided by a minimum s-t cut
//!    (Section 5, Theorem 1).
//! 4. **Mobile offset alignment** ([`mobile_offset`]) — per template axis,
//!    rounded linear programming over the affine offset coefficients, with
//!    the iteration-space subrange approximation of Section 4 (five solver
//!    strategies, error bound `1 + 2/m²` for fixed partitioning).
//!
//! The [`cost`] module evaluates the realignment cost of any candidate
//! alignment exactly (by enumerating iteration spaces), reporting general
//! communication, shift (grid-metric) communication and broadcasts
//! separately, which is how the paper's examples state their results.

pub mod axis;
pub mod constraints;
pub mod cost;
pub mod mobile_offset;
pub mod pipeline;
pub mod position;
pub mod replication;
pub mod stride;

pub use cost::{CommCost, CostModel};
pub use lp::BlockMemo;
pub use mobile_offset::{MobileOffsetConfig, OffsetStrategy};
pub use pipeline::{align_program, align_program_sharing, AlignmentResult, PipelineConfig};
pub use position::{OffsetAlign, PortAlignment, ProgramAlignment};
pub use replication::ReplicationLabeling;
