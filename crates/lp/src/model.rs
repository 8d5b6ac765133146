//! Problem-building API: variables, linear constraints, and objective.
//!
//! The model layer is deliberately close to how the alignment analysis thinks
//! about its RLP: variables carry simple bounds (most are free offsets or
//! non-negative surrogate variables), constraints are sparse lists of
//! `(variable, coefficient)` terms, and the objective is always *minimised*.

use crate::{revised, simplex};
use std::fmt;

/// Handle to a variable in a [`Problem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub usize);

impl VarId {
    /// Index of the variable in the order of creation.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Direction of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relation {
    /// `lhs <= rhs`
    Le,
    /// `lhs >= rhs`
    Ge,
    /// `lhs == rhs`
    Eq,
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Relation::Le => write!(f, "<="),
            Relation::Ge => write!(f, ">="),
            Relation::Eq => write!(f, "=="),
        }
    }
}

#[derive(Debug, Clone)]
pub(crate) struct Variable {
    pub(crate) name: String,
    pub(crate) lower: f64,
    pub(crate) upper: f64,
    pub(crate) obj: f64,
}

#[derive(Debug, Clone)]
pub(crate) struct Constraint {
    pub(crate) terms: Vec<(VarId, f64)>,
    pub(crate) relation: Relation,
    pub(crate) rhs: f64,
}

/// A linear program in minimisation form.
#[derive(Debug, Clone, Default)]
pub struct Problem {
    pub(crate) vars: Vec<Variable>,
    pub(crate) constraints: Vec<Constraint>,
}

/// Errors reported by the solver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveError {
    /// No feasible point satisfies all constraints and bounds.
    Infeasible,
    /// The objective is unbounded below over the feasible region.
    Unbounded,
    /// The simplex gave up: its iteration budget ran out, a phase-1 stall
    /// left artificials in the basis, or a basis went numerically singular
    /// (should not happen with Bland's rule; indicates numerical trouble).
    IterationLimit,
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::Infeasible => write!(f, "problem is infeasible"),
            SolveError::Unbounded => write!(f, "objective is unbounded below"),
            SolveError::IterationLimit => write!(f, "simplex iteration limit exceeded"),
        }
    }
}

impl std::error::Error for SolveError {}

/// An optimal solution of a [`Problem`].
#[derive(Debug, Clone)]
pub struct Solution {
    /// Value of each variable, indexed by [`VarId::index`].
    pub values: Vec<f64>,
    /// Optimal objective value (of the minimisation).
    pub objective: f64,
}

impl Solution {
    /// Value of variable `v` at the optimum.
    pub fn value(&self, v: VarId) -> f64 {
        self.values[v.0]
    }

    /// Value of variable `v` rounded to the nearest integer.
    ///
    /// This is the "R" of rounded linear programming: the alignment analysis
    /// solves the LP relaxation and rounds offsets to integer template cells.
    pub fn rounded(&self, v: VarId) -> i64 {
        self.values[v.0].round() as i64
    }
}

impl Problem {
    /// Create an empty problem.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a continuous variable with bounds `[lower, upper]` and objective
    /// coefficient `obj`. Use `f64::NEG_INFINITY` / `f64::INFINITY` for free
    /// variables.
    pub fn add_var(&mut self, name: impl Into<String>, lower: f64, upper: f64, obj: f64) -> VarId {
        assert!(lower <= upper, "variable lower bound exceeds upper bound");
        let id = VarId(self.vars.len());
        self.vars.push(Variable {
            name: name.into(),
            lower,
            upper,
            obj,
        });
        id
    }

    /// Add a free (unbounded) continuous variable with objective coefficient
    /// `obj`. Offsets in the alignment RLP are free variables.
    pub fn add_free_var(&mut self, name: impl Into<String>, obj: f64) -> VarId {
        self.add_var(name, f64::NEG_INFINITY, f64::INFINITY, obj)
    }

    /// Add a non-negative continuous variable with objective coefficient
    /// `obj`. Surrogate (absolute-value) variables in the RLP are of this kind.
    pub fn add_nonneg_var(&mut self, name: impl Into<String>, obj: f64) -> VarId {
        self.add_var(name, 0.0, f64::INFINITY, obj)
    }

    /// Change a variable's objective coefficient.
    pub fn set_objective(&mut self, v: VarId, obj: f64) {
        self.vars[v.0].obj = obj;
    }

    /// Current objective coefficient of a variable.
    pub fn objective_coeff(&self, v: VarId) -> f64 {
        self.vars[v.0].obj
    }

    /// Tighten (replace) the bounds of a variable.
    pub fn set_bounds(&mut self, v: VarId, lower: f64, upper: f64) {
        assert!(lower <= upper, "variable lower bound exceeds upper bound");
        self.vars[v.0].lower = lower;
        self.vars[v.0].upper = upper;
    }

    /// Bounds of a variable.
    pub fn bounds(&self, v: VarId) -> (f64, f64) {
        (self.vars[v.0].lower, self.vars[v.0].upper)
    }

    /// Name of a variable (for diagnostics).
    pub fn var_name(&self, v: VarId) -> &str {
        &self.vars[v.0].name
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Add a linear constraint `sum(coeff * var) relation rhs`.
    ///
    /// Duplicate variables in `terms` are allowed; their coefficients are
    /// summed.
    pub fn add_constraint(&mut self, terms: Vec<(VarId, f64)>, relation: Relation, rhs: f64) {
        for (v, _) in &terms {
            assert!(
                v.0 < self.vars.len(),
                "constraint references unknown variable"
            );
        }
        self.constraints.push(Constraint {
            terms,
            relation,
            rhs,
        });
    }

    /// Evaluate the objective at a candidate point.
    pub fn eval_objective(&self, values: &[f64]) -> f64 {
        self.vars.iter().zip(values).map(|(v, x)| v.obj * x).sum()
    }

    /// Check whether a candidate point satisfies all constraints and bounds
    /// within tolerance `tol`.
    pub fn is_feasible(&self, values: &[f64], tol: f64) -> bool {
        if values.len() != self.vars.len() {
            return false;
        }
        for (var, &x) in self.vars.iter().zip(values) {
            if x < var.lower - tol || x > var.upper + tol {
                return false;
            }
        }
        for c in &self.constraints {
            let lhs: f64 = c.terms.iter().map(|(v, a)| a * values[v.0]).sum();
            let ok = match c.relation {
                Relation::Le => lhs <= c.rhs + tol,
                Relation::Ge => lhs >= c.rhs - tol,
                Relation::Eq => (lhs - c.rhs).abs() <= tol,
            };
            if !ok {
                return false;
            }
        }
        true
    }

    /// Total violation magnitude of a candidate point: the sum of bound
    /// excesses and constraint residuals beyond `tol`. Zero exactly when
    /// [`Problem::is_feasible`] holds; callers that *price* infeasibility
    /// (rather than gate on it) use this as the penalty measure.
    pub fn violation(&self, values: &[f64], tol: f64) -> f64 {
        if values.len() != self.vars.len() {
            return f64::INFINITY;
        }
        let mut total = 0.0;
        for (var, &x) in self.vars.iter().zip(values) {
            if x < var.lower - tol {
                total += var.lower - x;
            }
            if x > var.upper + tol {
                total += x - var.upper;
            }
        }
        for c in &self.constraints {
            let lhs: f64 = c.terms.iter().map(|(v, a)| a * values[v.0]).sum();
            let excess = match c.relation {
                Relation::Le => (lhs - c.rhs).max(0.0),
                Relation::Ge => (c.rhs - lhs).max(0.0),
                Relation::Eq => (lhs - c.rhs).abs(),
            };
            if excess > tol {
                total += excess;
            }
        }
        total
    }

    /// Solve the LP with the revised simplex directly, skipping the
    /// equality-chain presolve. Exposed so tests (and solver comparisons) can
    /// check that presolved and unpresolved solves agree; production callers
    /// use [`Problem::solve`].
    pub fn solve_without_presolve(&self) -> Result<Solution, SolveError> {
        revised::solve(self)
    }

    /// Presolve, solve what remains with `inner`, and restore the
    /// eliminated variables. Shared by the production path and the oracle so
    /// the two can never drift apart in their presolve handling.
    fn solve_with(
        &self,
        inner: impl FnOnce(&Problem) -> Result<Solution, SolveError>,
    ) -> Result<Solution, SolveError> {
        let _span = trace::span("lp.solve");
        trace::count("lp.solves", 1);
        let pre = crate::presolve::Presolve::new(self)?;
        trace::count(
            "lp.presolve_eliminated",
            (self.num_vars() - pre.reduced.num_vars()) as u64,
        );
        if pre.reduced.num_vars() == 0 {
            let values = pre.restore(&[]);
            let objective = pre.objective_offset;
            return Ok(Solution { values, objective });
        }
        let sol = inner(&pre.reduced)?;
        Ok(Solution {
            values: pre.restore(&sol.values),
            objective: sol.objective + pre.objective_offset,
        })
    }

    /// Solve the LP: equality-chain presolve first (the hard node
    /// constraints of the alignment RLPs are mostly pairwise equalities,
    /// which would otherwise bloat and destabilise the solver), then the
    /// bounded-variable revised simplex ([`crate::revised`]) on what
    /// remains. Numerical failure of the simplex is reported as
    /// [`SolveError::IterationLimit`]; no second solver is tried.
    pub fn solve(&self) -> Result<Solution, SolveError> {
        self.solve_with(revised::solve)
    }

    /// Solve with the dense two-phase *tableau* simplex (same equality-chain
    /// presolve as [`Problem::solve`]). This is the differential-testing
    /// oracle: the tableau and revised solvers share no pivoting code, so
    /// agreement on status and objective is strong evidence both are right.
    pub fn solve_tableau(&self) -> Result<Solution, SolveError> {
        self.solve_with(simplex::solve)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_tracks_vars_and_constraints() {
        let mut p = Problem::new();
        let x = p.add_nonneg_var("x", 1.0);
        let y = p.add_free_var("y", -1.0);
        assert_eq!(p.num_vars(), 2);
        assert_eq!(x.index(), 0);
        assert_eq!(y.index(), 1);
        p.add_constraint(vec![(x, 1.0), (y, 2.0)], Relation::Eq, 4.0);
        assert_eq!(p.num_constraints(), 1);
        assert_eq!(p.var_name(x), "x");
        assert_eq!(p.bounds(x), (0.0, f64::INFINITY));
    }

    #[test]
    fn feasibility_check_respects_bounds_and_constraints() {
        let mut p = Problem::new();
        let x = p.add_var("x", 0.0, 5.0, 1.0);
        let y = p.add_var("y", 0.0, 5.0, 1.0);
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Le, 6.0);
        assert!(p.is_feasible(&[1.0, 2.0], 1e-9));
        assert!(!p.is_feasible(&[7.0, 0.0], 1e-9)); // bound violated
        assert!(!p.is_feasible(&[4.0, 4.0], 1e-9)); // constraint violated
        assert!(!p.is_feasible(&[1.0], 1e-9)); // wrong arity
    }

    #[test]
    fn objective_evaluation() {
        let mut p = Problem::new();
        let x = p.add_nonneg_var("x", 2.0);
        let y = p.add_nonneg_var("y", -3.0);
        let _ = (x, y);
        assert!((p.eval_objective(&[2.0, 1.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "lower bound exceeds upper")]
    fn bad_bounds_panic() {
        let mut p = Problem::new();
        p.add_var("x", 1.0, 0.0, 0.0);
    }

    #[test]
    fn rounded_solution_values() {
        let sol = Solution {
            values: vec![1.4, -2.6],
            objective: 0.0,
        };
        assert_eq!(sol.rounded(VarId(0)), 1);
        assert_eq!(sol.rounded(VarId(1)), -3);
    }
}
