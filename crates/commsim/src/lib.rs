//! A distributed-memory residual-communication simulator.
//!
//! The SC'93 paper evaluates alignments analytically (communication counts in
//! its cost model); the authors' real target was a distributed-memory machine
//! of the CM-5 era that we do not have. This crate is the substitute
//! evaluation substrate: it *distributes* the template over a virtual
//! processor grid (block-cyclic along each template axis, the distribution
//! phase the paper defers) and then walks every ADG edge, every iteration and
//! every element of the object carried, counting
//!
//! * **element moves** — elements whose owning processor differs between the
//!   producer's and the consumer's alignment,
//! * **messages** — distinct (sender, receiver) processor pairs per edge
//!   traversal,
//! * **broadcast elements** — elements sent from a single position into a
//!   replicated (per-processor-copy) position.
//!
//! Because the simulator measures placements, it charges exactly the
//! communication the cost model of `alignment-core` predicts *plus* the
//! machine-level effects (block boundaries, processor counts) the model
//! abstracts away — which is what makes it useful for the model-validation
//! experiment (E13 in DESIGN.md).

pub mod machine;
pub mod simulate;

pub use machine::{Machine, TemplateDistribution, REPLICATED_COORD};
pub use simulate::{
    redistribution_traffic, simulate, simulate_redistribution, EdgeTraffic, PlacementCache,
    RedistSpec, RestingOwners, RestingPlacement, SimOptions, SimReport, TrafficScratch,
};
