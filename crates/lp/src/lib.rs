//! A small, dependency-free linear-programming solver.
//!
//! The alignment analysis of Chatterjee, Gilbert and Schreiber (SC'93)
//! repeatedly reduces mobile offset alignment to *rounded linear programming*
//! (RLP): a linear program whose fractional optimum is rounded to integer
//! offsets. The original work assumed an external LP package; this crate is
//! that substrate, rebuilt from scratch.
//!
//! There is one route through the crate ([`Problem::solve`]): an
//! equality-chain presolve followed by a bounded-variable *revised* simplex
//! ([`revised`]), started cold from a crash basis. The constraint matrix is
//! held in compressed sparse column form, and the basis inverse is a
//! Markowitz sparse LU factorisation with threshold partial pivoting, kept
//! current across pivots by Forrest–Tomlin updates and periodically
//! refactorised; FTRAN and BTRAN walk only the nonzero pattern
//! (hypersparse solves), falling back to dense sweeps when a right-hand
//! side fills in. Box bounds are handled by the ratio test instead of
//! explicit rows, the entering column is chosen by Devex pricing, and
//! Bland's rule takes over as the anti-cycling safeguard after a run of
//! degenerate pivots. A solve that fails numerically reports
//! [`SolveError::IterationLimit`] — there is no second solver behind it.
//! The original dense two-phase tableau simplex ([`simplex`]) survives only
//! as the differential-testing oracle behind [`Problem::solve_tableau`]; it
//! is known to mis-solve some of the production offset LPs, which is why it
//! is an oracle for the tests that bound its disagreement and not a
//! fallback. Both are designed for the problem sizes the alignment phase
//! produces (a handful of variables per port plus one absolute-value term
//! per edge-subrange — hundreds to a few thousand variables), not for
//! industrial LPs.
//!
//! The mobile-offset RLPs themselves are not posed as a [`Problem`] but in
//! the **L1 form** ([`L1Problem`]): free unknowns, equalities, and a
//! weighted sum of absolute values, solved through the LP dual so the basis
//! has one row per unknown rather than two per absolute value — see the
//! [`l1`] module.
//!
//! # Example
//!
//! ```
//! use lp::{Problem, Relation};
//!
//! // minimize  x + 2y   subject to   x + y >= 3,  x <= 2,  x,y >= 0
//! let mut p = Problem::new();
//! let x = p.add_var("x", 0.0, f64::INFINITY, 1.0);
//! let y = p.add_var("y", 0.0, f64::INFINITY, 2.0);
//! p.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Ge, 3.0);
//! p.add_constraint(vec![(x, 1.0)], Relation::Le, 2.0);
//! let sol = p.solve().unwrap();
//! assert!((sol.value(x) - 2.0).abs() < 1e-7);
//! assert!((sol.value(y) - 1.0).abs() < 1e-7);
//! assert!((sol.objective - 4.0).abs() < 1e-7);
//! ```

mod factor;
pub mod l1;
pub mod model;
pub mod presolve;
pub mod revised;
pub mod simplex;
mod sparse;

pub use l1::{BlockMemo, L1Problem};
pub use model::{Problem, Relation, Solution, SolveError, VarId};
#[doc(hidden)]
pub use revised::{Kernel, KernelBench};

/// Numerical tolerance used throughout the solver.
pub const EPS: f64 = 1e-9;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doc_example_holds() {
        let mut p = Problem::new();
        let x = p.add_var("x", 0.0, f64::INFINITY, 1.0);
        let y = p.add_var("y", 0.0, f64::INFINITY, 2.0);
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Ge, 3.0);
        p.add_constraint(vec![(x, 1.0)], Relation::Le, 2.0);
        let sol = p.solve().unwrap();
        assert!((sol.objective - 4.0).abs() < 1e-7);
    }
}
