//! The L1 form: minimise a weighted sum of absolute values of affine forms
//! over free variables, subject to linear equalities —
//!
//! ```text
//!   min  Σ_k w_k·|a_k·x + c_k|     s.t.  E x = f,   x free.
//! ```
//!
//! This is the shape of the paper's mobile-offset RLP (Equation 3: one
//! term per edge subrange, node constraints as equalities) and of the
//! affine loop-nest alignment formulations in general. The textbook route
//! to a simplex — a surrogate `z_k ≥ ±(a_k·x + c_k)` per term — gives a
//! basis of `2·K + |E|` rows for a handful of unknowns. The LP dual is the
//! far smaller problem. Writing `|t| = max_{|y| ≤ 1} y·t` and exchanging
//! min and max,
//!
//! ```text
//!   min_x max_{|y_k| ≤ w_k, μ}  Σ_k y_k·(a_k·x + c_k) + μ·(f − E x)
//!     =  max  c·y + f·μ   s.t.  Σ_k a_k·y_k − Eᵀμ = 0,  −w_k ≤ y_k ≤ w_k,  μ free
//! ```
//!
//! (the inner minimum over the free `x` is `−∞` unless the coefficient of
//! every `x_i` vanishes — one equality row per unknown). Its basis has one
//! row per *unknown*: the surrogates became boxed columns, which the
//! bounded-variable simplex handles in its ratio test (a surrogate swap is
//! now a bound flip), and `y = 0, μ = 0` is always feasible. The primal
//! unknowns are the optimal row duals: the reduced cost of `μ_e` vanishing
//! is `E_e·π = f_e`, and the sign of `y_k`'s reduced cost `−(a_k·π + c_k)`
//! is the complementary-slackness condition of `|·|`, so `x = π`.
//!
//! [`L1Problem::solve`] takes that route: equality-chain presolve (the same
//! one [`Problem::solve`] runs, with the abs terms rewritten onto the
//! surviving unknowns), dual LP through [`crate::revised`], `x` read off
//! the row duals. The answer is *certified* before it is returned — `E x = f` to `1e-6`, and
//! the duality gap between `Σ w|a·x + c|` and the dual objective closed —
//! and an uncertified solve falls back, counted
//! (`lp.l1.primal_fallback`), to the surrogate expansion
//! [`L1Problem::to_primal`], which otherwise serves as the differential
//! oracle.

use crate::model::{Problem, Relation, Solution, SolveError, VarId};
use crate::presolve::Presolve;
use crate::revised;

/// Certificate tolerance on `|E x − f|`, per equality.
const FEAS_TOL: f64 = 1e-6;
/// Certificate tolerance on the relative duality gap.
const GAP_TOL: f64 = 1e-6;

/// One objective term `weight·|coeffs·x + constant|`.
#[derive(Debug, Clone)]
struct AbsTerm {
    weight: f64,
    coeffs: Vec<(VarId, f64)>,
    constant: f64,
}

/// An L1 problem: free variables, equality constraints, and a weighted sum
/// of absolute values to minimise. See the [module docs](self).
///
/// ```
/// use lp::{L1Problem, Problem, Relation};
///
/// // min |x − 1| + |x − 5| + 2·|y|   s.t.  x − y = 3
/// let mut hard = Problem::new();
/// let x = hard.add_free_var("x", 0.0);
/// let y = hard.add_free_var("y", 0.0);
/// hard.add_constraint(vec![(x, 1.0), (y, -1.0)], Relation::Eq, 3.0);
/// let mut l1 = L1Problem::new(hard);
/// l1.add_abs_term(1.0, vec![(x, 1.0)], -1.0);
/// l1.add_abs_term(1.0, vec![(x, 1.0)], -5.0);
/// l1.add_abs_term(2.0, vec![(y, 1.0)], 0.0);
/// let sol = l1.solve().unwrap();
/// assert!((sol.value(x) - 3.0).abs() < 1e-7);
/// assert!((sol.objective - 4.0).abs() < 1e-7);
/// ```
#[derive(Debug, Clone)]
pub struct L1Problem {
    /// The unknowns and the equalities `E x = f` (objective all-zero).
    hard: Problem,
    terms: Vec<AbsTerm>,
}

impl L1Problem {
    /// An L1 problem over the variables and constraints of `hard`, with no
    /// objective terms yet.
    ///
    /// # Panics
    ///
    /// If `hard` has a bounded variable, a nonzero objective coefficient, or
    /// a constraint that is not an equality — the dual derivation assumes
    /// none of these.
    pub fn new(hard: Problem) -> L1Problem {
        for v in &hard.vars {
            assert!(
                v.lower == f64::NEG_INFINITY && v.upper == f64::INFINITY && v.obj == 0.0,
                "L1 unknowns must be free and carry no linear objective"
            );
        }
        assert!(
            hard.constraints.iter().all(|c| c.relation == Relation::Eq),
            "L1 constraints must be equalities"
        );
        L1Problem {
            hard,
            terms: Vec::new(),
        }
    }

    /// Add the objective term `weight·|Σ coeff·var + constant|`. Duplicate
    /// variables in `coeffs` are summed.
    pub fn add_abs_term(&mut self, weight: f64, coeffs: Vec<(VarId, f64)>, constant: f64) {
        assert!(
            weight >= 0.0 && weight.is_finite(),
            "abs-term weight must be finite and non-negative"
        );
        for (v, _) in &coeffs {
            assert!(
                v.0 < self.hard.num_vars(),
                "term references unknown variable"
            );
        }
        self.terms.push(AbsTerm {
            weight,
            coeffs,
            constant,
        });
    }

    /// The unknowns and the equality constraints (objective all-zero).
    pub fn equalities(&self) -> &Problem {
        &self.hard
    }

    /// Number of unknowns.
    pub fn num_vars(&self) -> usize {
        self.hard.num_vars()
    }

    /// Number of absolute-value terms.
    pub fn num_terms(&self) -> usize {
        self.terms.len()
    }

    /// `Σ_k w_k·|a_k·x + c_k|` at a candidate point.
    pub fn objective_at(&self, x: &[f64]) -> f64 {
        self.terms
            .iter()
            .map(|t| {
                let expr: f64 = t.coeffs.iter().map(|&(v, a)| a * x[v.0]).sum();
                t.weight * (expr + t.constant).abs()
            })
            .sum()
    }

    /// The surrogate expansion: the same unknowns and equalities plus, per
    /// term, a variable `z_k ≥ 0` with objective `w_k` and the row pair
    /// `z_k ≥ ±(a_k·x + c_k)`. The unknowns keep their indices; `z_k` is
    /// variable `num_vars() + k`. This is the differential oracle for the
    /// dual route and its fallback.
    pub fn to_primal(&self) -> Problem {
        let mut p = self.hard.clone();
        for t in &self.terms {
            let z = p.add_nonneg_var("", t.weight);
            // z - expr >= 0
            let mut row = vec![(z, 1.0)];
            row.extend(t.coeffs.iter().map(|&(v, a)| (v, -a)));
            p.add_constraint(row, Relation::Ge, t.constant);
            // z + expr >= 0
            let mut row = vec![(z, 1.0)];
            row.extend(t.coeffs.iter().copied());
            p.add_constraint(row, Relation::Ge, -t.constant);
        }
        p
    }

    /// Minimise. The solution's `values` are the unknowns and its
    /// `objective` is `Σ w|a·x + c|` evaluated at them. The only error an
    /// L1 problem can have is [`SolveError::Infeasible`] (inconsistent
    /// equalities) — the objective is bounded below by zero — short of
    /// numerical failure of both routes.
    pub fn solve(&self) -> Result<Solution, SolveError> {
        let _span = trace::span("lp.solve");
        trace::count("lp.solves", 1);
        if let Some(solution) = self.solve_dual()? {
            return Ok(solution);
        }
        trace::count("lp.l1.primal_fallback", 1);
        let primal = self.to_primal().solve()?;
        let values = primal.values[..self.num_vars()].to_vec();
        let objective = self.objective_at(&values);
        Ok(Solution { values, objective })
    }

    /// The dual route. `Ok(None)` means the simplex failed numerically or
    /// its answer did not certify; the only error is `Infeasible`.
    fn solve_dual(&self) -> Result<Option<Solution>, SolveError> {
        let mut pre = Presolve::new(&self.hard)?;
        let n_free = pre.reduced.num_vars();
        trace::count("lp.presolve_eliminated", (self.num_vars() - n_free) as u64);

        // The dual LP: a boxed column per surviving term, a free column per
        // surviving equality, a row per surviving unknown.
        let mut dual = Problem::new();
        let mut rows: Vec<Vec<(VarId, f64)>> = vec![Vec::new(); n_free];
        // Terms the presolve reduced to constants cost the same at every x.
        let mut fixed_cost = 0.0;
        for t in &self.terms {
            if t.weight == 0.0 {
                continue;
            }
            let (coeffs, constant) = pre.rewrite(&t.coeffs, t.constant);
            if coeffs.is_empty() {
                fixed_cost += t.weight * constant.abs();
                continue;
            }
            let y = dual.add_var("", -t.weight, t.weight, -constant);
            for (v, a) in coeffs {
                rows[v.0].push((y, a));
            }
        }
        for c in &pre.reduced.constraints {
            let mu = dual.add_free_var("", -c.rhs);
            for &(v, e) in &c.terms {
                rows[v.0].push((mu, -e));
            }
        }
        // An unknown no term and no equality mentions has an empty row and
        // is left at zero.
        let mut row_of: Vec<Option<usize>> = vec![None; n_free];
        for (i, row) in rows.into_iter().enumerate() {
            if !row.is_empty() {
                row_of[i] = Some(dual.num_constraints());
                dual.add_constraint(row, Relation::Eq, 0.0);
            }
        }
        trace::count("lp.l1.dual_rows", dual.num_constraints() as u64);
        trace::count("lp.l1.dual_cols", dual.num_vars() as u64);

        let (dual_objective, reduced_x) = if dual.num_constraints() == 0 {
            (fixed_cost, vec![0.0; n_free])
        } else {
            match revised::solve_with_row_duals(&dual) {
                Ok((sol, duals)) => {
                    let x = row_of.iter().map(|r| r.map_or(0.0, |r| duals[r])).collect();
                    (fixed_cost - sol.objective, x)
                }
                // The dual is always feasible (y = 0, μ = 0), so an
                // unbounded dual is the infeasibility certificate of the
                // equalities — and an "infeasible" one is numerical.
                Err(SolveError::Unbounded) => return Err(SolveError::Infeasible),
                Err(_) => return Ok(None),
            }
        };
        let values = pre.restore(&reduced_x);

        // Certificate: x satisfies the equalities and prices at the dual
        // bound. Together they prove optimality whatever route (or stall)
        // the simplex took.
        let objective = self.objective_at(&values);
        let gap = (objective - dual_objective).abs() / (1.0 + objective.abs());
        trace::record_value("lp.l1.duality_gap", gap);
        if !self.hard.is_feasible(&values, FEAS_TOL) || gap.is_nan() || gap > GAP_TOL {
            return Ok(None);
        }
        Ok(Some(Solution { values, objective }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-7, "expected {b}, got {a}");
    }

    #[test]
    fn weighted_median_without_equalities() {
        // min |x-1| + |x-2| + 3|x-10|: the weighted median is x = 10.
        let mut hard = Problem::new();
        let x = hard.add_free_var("x", 0.0);
        let mut l1 = L1Problem::new(hard);
        l1.add_abs_term(1.0, vec![(x, 1.0)], -1.0);
        l1.add_abs_term(1.0, vec![(x, 1.0)], -2.0);
        l1.add_abs_term(3.0, vec![(x, 1.0)], -10.0);
        let sol = l1.solve().unwrap();
        assert_close(sol.value(x), 10.0);
        assert_close(sol.objective, 17.0);
        assert_close(l1.to_primal().solve().unwrap().objective, 17.0);
    }

    #[test]
    fn multi_variable_equalities_survive_as_free_dual_columns() {
        // x + y + z = 6 is not an equality chain, so the presolve leaves it
        // for the dual's μ column. min |x| + |y| + |z - 1| + |x - y|.
        let mut hard = Problem::new();
        let x = hard.add_free_var("x", 0.0);
        let y = hard.add_free_var("y", 0.0);
        let z = hard.add_free_var("z", 0.0);
        hard.add_constraint(vec![(x, 1.0), (y, 1.0), (z, 1.0)], Relation::Eq, 6.0);
        let mut l1 = L1Problem::new(hard);
        l1.add_abs_term(1.0, vec![(x, 1.0)], 0.0);
        l1.add_abs_term(1.0, vec![(y, 1.0)], 0.0);
        l1.add_abs_term(1.0, vec![(z, 1.0)], -1.0);
        l1.add_abs_term(1.0, vec![(x, 1.0), (y, -1.0)], 0.0);
        let sol = l1.solve().unwrap();
        assert!(l1.equalities().is_feasible(&sol.values, 1e-7));
        assert_close(sol.objective, 5.0);
        assert_close(l1.to_primal().solve_tableau().unwrap().objective, 5.0);
    }

    #[test]
    fn presolve_pins_fold_into_term_constants() {
        // x = 4 pins x; |x - 1| is then the constant 3 and y settles at 2.
        let mut hard = Problem::new();
        let x = hard.add_free_var("x", 0.0);
        let y = hard.add_free_var("y", 0.0);
        hard.add_constraint(vec![(x, 1.0)], Relation::Eq, 4.0);
        let mut l1 = L1Problem::new(hard);
        l1.add_abs_term(1.0, vec![(x, 1.0)], -1.0);
        l1.add_abs_term(2.0, vec![(y, 1.0), (x, -0.5)], 0.0);
        let sol = l1.solve().unwrap();
        assert_close(sol.value(x), 4.0);
        assert_close(sol.value(y), 2.0);
        assert_close(sol.objective, 3.0);
    }

    #[test]
    fn inconsistent_equalities_are_infeasible_on_both_routes() {
        // Chain inconsistency (caught by the presolve) ...
        let mut hard = Problem::new();
        let x = hard.add_free_var("x", 0.0);
        hard.add_constraint(vec![(x, 1.0)], Relation::Eq, 1.0);
        hard.add_constraint(vec![(x, 1.0)], Relation::Eq, 2.0);
        let l1 = L1Problem::new(hard);
        assert_eq!(l1.solve().unwrap_err(), SolveError::Infeasible);

        // ... and one only the simplex can see: the dual is unbounded.
        let mut hard = Problem::new();
        let v: Vec<_> = (0..3).map(|_| hard.add_free_var("", 0.0)).collect();
        let all = |s: f64| v.iter().map(|&v| (v, s)).collect::<Vec<_>>();
        hard.add_constraint(all(1.0), Relation::Eq, 1.0);
        hard.add_constraint(all(2.0), Relation::Eq, 3.0);
        let mut l1 = L1Problem::new(hard);
        l1.add_abs_term(1.0, vec![(v[0], 1.0)], 0.0);
        trace::reset_counter("lp.l1.primal_fallback");
        assert_eq!(l1.solve().unwrap_err(), SolveError::Infeasible);
        assert_eq!(trace::counter("lp.l1.primal_fallback"), 0);
        assert_eq!(l1.to_primal().solve().unwrap_err(), SolveError::Infeasible);
    }

    #[test]
    fn unmentioned_and_zero_weight_terms_leave_unknowns_at_zero() {
        let mut hard = Problem::new();
        let x = hard.add_free_var("x", 0.0);
        let idle = hard.add_free_var("idle", 0.0);
        let mut l1 = L1Problem::new(hard);
        l1.add_abs_term(1.0, vec![(x, 2.0)], -6.0);
        l1.add_abs_term(0.0, vec![(idle, 1.0)], -9.0);
        let sol = l1.solve().unwrap();
        assert_close(sol.value(x), 3.0);
        assert_close(sol.value(idle), 0.0);
        assert_close(sol.objective, 0.0);
    }

    #[test]
    fn no_terms_and_no_rows_is_trivial() {
        let mut hard = Problem::new();
        let x = hard.add_free_var("x", 0.0);
        let l1 = L1Problem::new(hard);
        let sol = l1.solve().unwrap();
        assert_close(sol.value(x), 0.0);
        assert_close(sol.objective, 0.0);
    }

    #[test]
    #[should_panic(expected = "must be free")]
    fn bounded_unknowns_are_rejected() {
        let mut hard = Problem::new();
        hard.add_nonneg_var("x", 0.0);
        let _ = L1Problem::new(hard);
    }
}
