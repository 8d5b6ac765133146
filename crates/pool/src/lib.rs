//! What is left of the thread pool. The planner runs on the calling thread
//! (EXPERIMENTS.md E32: at no worker count did the pool buy anything), and
//! nothing in the workspace names this crate. The two functions stay
//! because the benchmark package (`benchmark/`, which a change to the code
//! it measures may not edit) still links them; the next `benchmark` PR
//! drops its calls and deletes the crate.

/// Does nothing: there is no worker count to set.
pub fn set_workers(_n: usize) {}

/// The number of threads a solve runs on: one.
pub fn workers() -> usize {
    1
}
