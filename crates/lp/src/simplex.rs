//! Dense two-phase primal simplex (tableau form).
//!
//! The revised simplex ([`crate::revised`]) is the solver; this one is kept
//! only as the *differential-testing oracle* behind
//! [`Problem::solve_tableau`] — the two implementations share no pivoting
//! code, so agreement on random LPs (see `tests/solver_differential.rs`)
//! is strong evidence both are right. Nothing falls back to it: it
//! mis-solves some of the large degenerate offset LPs (`tests/l1_differential.rs`
//! bounds how it may disagree there).
//!
//! The solver converts the user-facing [`Problem`] into standard form
//! (`min c'x`, `Ax = b`, `x >= 0`):
//!
//! * a variable with finite lower bound `l` is shifted, `x = l + x'`;
//! * a variable with only a finite upper bound `u` is reflected, `x = u - x'`;
//! * a free variable is split into a difference of two non-negative parts;
//! * a finite upper bound that remains after shifting becomes an explicit
//!   `x' <= u - l` row;
//! * `<=` / `>=` rows receive slack / surplus columns; every row receives an
//!   artificial column for phase 1.
//!
//! Phase 1 minimises the sum of artificials; if it cannot reach zero the
//! problem is infeasible. Phase 2 minimises the user objective. Pivoting uses
//! Dantzig's rule, switching to Bland's rule after a run of degenerate pivots
//! so that termination is guaranteed.

use crate::model::{Problem, Relation, Solution, SolveError};
use crate::EPS;

/// How an original variable is represented in standard form.
#[derive(Debug, Clone, Copy)]
enum VarMap {
    /// `x = lower + col`
    Shifted { col: usize, lower: f64 },
    /// `x = upper - col`
    Reflected { col: usize, upper: f64 },
    /// `x = plus - minus`
    Split { plus: usize, minus: usize },
}

struct Tableau {
    /// Row-major constraint matrix, already in the current basis
    /// representation (`B^{ -1 } A`).
    a: Vec<Vec<f64>>,
    /// Current right-hand side (`B^{-1} b`).
    b: Vec<f64>,
    /// Basis: `basis[i]` is the column that is basic in row `i`.
    basis: Vec<usize>,
    ncols: usize,
}

impl Tableau {
    fn nrows(&self) -> usize {
        self.a.len()
    }

    /// Gauss-Jordan pivot on (`row`, `col`).
    fn pivot(&mut self, row: usize, col: usize) {
        let piv = self.a[row][col];
        debug_assert!(piv.abs() > EPS, "pivot element too small");
        let inv = 1.0 / piv;
        for v in self.a[row].iter_mut() {
            *v *= inv;
        }
        self.b[row] *= inv;
        for r in 0..self.nrows() {
            if r == row {
                continue;
            }
            let factor = self.a[r][col];
            if factor.abs() <= EPS {
                self.a[r][col] = 0.0;
                continue;
            }
            for c in 0..self.ncols {
                self.a[r][c] -= factor * self.a[row][c];
            }
            self.a[r][col] = 0.0; // force exact zero to limit drift
            self.b[r] -= factor * self.b[row];
            // The simplex invariant is b >= 0; eliminate the small negative
            // drift Gauss-Jordan updates accumulate, which would otherwise
            // poison every later ratio test.
            if self.b[r] < 0.0 && self.b[r] > -EPS * 100.0 * (1.0 + factor.abs()) {
                self.b[r] = 0.0;
            }
        }
        self.basis[row] = col;
    }
}

/// Result of one simplex run over a fixed cost vector.
enum RunResult {
    Optimal,
    Unbounded,
    IterationLimit,
}

/// Run the primal simplex on `t`, minimising `cost`, restricted to columns in
/// `allowed` (columns outside `allowed` are never chosen to enter).
fn run(
    t: &mut Tableau,
    cost: &[f64],
    allowed: usize,
    max_iters: usize,
    stall_patience: usize,
) -> RunResult {
    let mut degenerate_streak = 0usize;
    // Objective-stall cutoff: on degenerate problems the tableau can pivot
    // indefinitely on reduced-cost noise without improving the objective.
    // This solver backs a *rounded* LP whose result is re-priced exactly
    // afterwards, so declaring optimality after a long stall is safe — and
    // far better than burning the whole iteration budget and reporting a
    // spurious failure.
    let cost_scale = cost.iter().fold(0.0f64, |a, &c| a.max(c.abs()));
    let stall_tol = 1e-10 * (1.0 + cost_scale);
    let mut last_obj = f64::INFINITY;
    let mut stalled = 0usize;
    // Degenerate plateaus grow with the tableau; a fixed cutoff truncates
    // genuine phase-2 progress on larger instances.
    let stall_limit = 500.max(2 * (t.nrows() + t.ncols)) * stall_patience.max(1);
    for _ in 0..max_iters {
        // Reduced costs: cbar_j = c_j - c_B^T A_j (A already in basis form).
        let cb: Vec<f64> = t.basis.iter().map(|&j| cost[j]).collect();
        let obj: f64 = cb.iter().zip(&t.b).map(|(c, b)| c * b).sum();
        if obj < last_obj - stall_tol {
            last_obj = obj;
            stalled = 0;
        } else {
            stalled += 1;
            if stalled > stall_limit {
                return RunResult::Optimal;
            }
        }
        let mut entering: Option<usize> = None;
        let mut best = -EPS * 10.0;
        let use_bland = degenerate_streak > 40;
        for j in 0..allowed {
            if t.basis.contains(&j) {
                continue;
            }
            let mut cbar = cost[j];
            for (i, row) in t.a.iter().enumerate() {
                let aij = row[j];
                if aij != 0.0 {
                    cbar -= cb[i] * aij;
                }
            }
            if cbar < -1e-9 {
                if use_bland {
                    entering = Some(j);
                    break;
                }
                if cbar < best {
                    best = cbar;
                    entering = Some(j);
                }
            }
        }
        let Some(col) = entering else {
            return RunResult::Optimal;
        };

        // Ratio test. Ties are broken by Bland's rule (smallest basis index)
        // when anti-cycling is active, and by the largest pivot magnitude
        // otherwise — pivoting on the biggest eligible element keeps the
        // Gauss-Jordan updates well conditioned.
        let mut leaving: Option<usize> = None;
        let mut best_ratio = f64::INFINITY;
        for i in 0..t.nrows() {
            let aij = t.a[i][col];
            if aij > EPS {
                let ratio = t.b[i] / aij;
                if ratio < best_ratio - EPS {
                    best_ratio = ratio;
                    leaving = Some(i);
                } else if ratio < best_ratio + EPS {
                    let better = leaving.is_none_or(|l| {
                        if use_bland {
                            t.basis[i] < t.basis[l]
                        } else {
                            aij > t.a[l][col]
                        }
                    });
                    if better {
                        best_ratio = best_ratio.min(ratio);
                        leaving = Some(i);
                    }
                }
            }
        }
        let Some(row) = leaving else {
            return RunResult::Unbounded;
        };
        if best_ratio.abs() <= EPS {
            degenerate_streak += 1;
        } else {
            degenerate_streak = 0;
        }
        t.pivot(row, col);
    }
    RunResult::IterationLimit
}

/// Solve `problem` with the two-phase simplex.
pub fn solve(problem: &Problem) -> Result<Solution, SolveError> {
    let nvars = problem.vars.len();

    // --- Build the standard-form column layout. ---
    let mut var_map: Vec<VarMap> = Vec::with_capacity(nvars);
    let mut ncols = 0usize;
    // Extra rows for residual upper bounds (column index, bound value).
    let mut upper_rows: Vec<(usize, f64)> = Vec::new();

    for v in &problem.vars {
        let lower_finite = v.lower.is_finite();
        let upper_finite = v.upper.is_finite();
        if lower_finite {
            let col = ncols;
            ncols += 1;
            var_map.push(VarMap::Shifted {
                col,
                lower: v.lower,
            });
            if upper_finite {
                upper_rows.push((col, v.upper - v.lower));
            }
        } else if upper_finite {
            let col = ncols;
            ncols += 1;
            var_map.push(VarMap::Reflected {
                col,
                upper: v.upper,
            });
        } else {
            let plus = ncols;
            let minus = ncols + 1;
            ncols += 2;
            var_map.push(VarMap::Split { plus, minus });
        }
    }
    let num_structural = ncols;

    // Each user constraint row, translated into (dense coefficients over
    // structural columns, relation, rhs).
    struct Row {
        coeffs: Vec<f64>,
        relation: Relation,
        rhs: f64,
    }
    let mut rows: Vec<Row> = Vec::with_capacity(problem.constraints.len() + upper_rows.len());

    for c in &problem.constraints {
        let mut coeffs = vec![0.0; num_structural];
        let mut rhs = c.rhs;
        for &(vid, a) in &c.terms {
            match var_map[vid.0] {
                VarMap::Shifted { col, lower } => {
                    coeffs[col] += a;
                    rhs -= a * lower;
                }
                VarMap::Reflected { col, upper } => {
                    coeffs[col] -= a;
                    rhs -= a * upper;
                }
                VarMap::Split { plus, minus } => {
                    coeffs[plus] += a;
                    coeffs[minus] -= a;
                }
            }
        }
        rows.push(Row {
            coeffs,
            relation: c.relation,
            rhs,
        });
    }
    for &(col, bound) in &upper_rows {
        let mut coeffs = vec![0.0; num_structural];
        coeffs[col] = 1.0;
        rows.push(Row {
            coeffs,
            relation: Relation::Le,
            rhs: bound,
        });
    }

    let m = rows.len();

    // Slack/surplus columns.
    let mut slack_col_of_row: Vec<Option<usize>> = vec![None; m];
    for (i, r) in rows.iter().enumerate() {
        match r.relation {
            Relation::Le | Relation::Ge => {
                slack_col_of_row[i] = Some(ncols);
                ncols += 1;
            }
            Relation::Eq => {}
        }
    }
    // Artificial columns: one per row.
    let art_start = ncols;
    ncols += m;

    // Objective over structural columns (standard form), plus constant offset
    // coming from shifted/reflected substitutions.
    let mut obj = vec![0.0; ncols];
    let mut obj_offset = 0.0;
    for (v, map) in problem.vars.iter().zip(&var_map) {
        match *map {
            VarMap::Shifted { col, lower } => {
                obj[col] += v.obj;
                obj_offset += v.obj * lower;
            }
            VarMap::Reflected { col, upper } => {
                obj[col] -= v.obj;
                obj_offset += v.obj * upper;
            }
            VarMap::Split { plus, minus } => {
                obj[plus] += v.obj;
                obj[minus] -= v.obj;
            }
        }
    }

    // Assemble tableau rows with slack/surplus/artificial columns, ensuring a
    // non-negative rhs so that the artificial basis is feasible. Rows are
    // equilibrated (divided by their largest structural coefficient): the
    // constraint systems this solver sees mix element-count weights in the
    // thousands with unit coefficients, and unscaled rows make the dense
    // Gauss-Jordan updates lose the b >= 0 invariant on large instances.
    let mut a = vec![vec![0.0; ncols]; m];
    let mut b = vec![0.0; m];
    for (i, r) in rows.iter().enumerate() {
        let scale = r
            .coeffs
            .iter()
            .fold(0.0f64, |acc, &c| acc.max(c.abs()))
            .max(1e-12)
            .recip();
        let mut sign = scale;
        if r.rhs < 0.0 {
            sign = -scale;
        }
        for (j, &c) in r.coeffs.iter().enumerate() {
            a[i][j] = sign * c;
        }
        b[i] = sign * r.rhs;
        if let Some(sc) = slack_col_of_row[i] {
            let slack_sign = match r.relation {
                Relation::Le => 1.0,
                Relation::Ge => -1.0,
                Relation::Eq => unreachable!(),
            };
            a[i][sc] = sign * slack_sign;
        }
        a[i][art_start + i] = 1.0;
    }

    let basis: Vec<usize> = (0..m).map(|i| art_start + i).collect();
    let mut t = Tableau { a, b, basis, ncols };

    let max_iters = 200 * (ncols + m + 10);

    // --- Phase 1: minimise the sum of artificials. ---
    let mut phase1_cost = vec![0.0; ncols];
    for c in phase1_cost.iter_mut().skip(art_start) {
        *c = 1.0;
    }
    // Phase 1 gets extra stall patience: stopping it early turns a feasible
    // problem into a spurious Infeasible, which downstream treats as a total
    // solve failure, whereas a phase-2 stall merely returns a slightly
    // suboptimal (still feasible) vertex.
    match run(&mut t, &phase1_cost, ncols, max_iters, 4) {
        RunResult::Optimal => {}
        RunResult::Unbounded => return Err(SolveError::Infeasible),
        RunResult::IterationLimit => return Err(SolveError::IterationLimit),
    }
    let phase1_obj: f64 = t
        .basis
        .iter()
        .zip(&t.b)
        .filter(|(&j, _)| j >= art_start)
        .map(|(_, &bi)| bi)
        .sum();
    // Feasibility tolerance relative to the problem's data scale: constraint
    // systems built from element-count weights carry right-hand sides in the
    // thousands, where an absolute 1e-7 misreads numerical residue as
    // infeasibility.
    let b_scale = t.b.iter().fold(0.0f64, |a, &x| a.max(x.abs()));
    if phase1_obj > 1e-7 * (1.0 + b_scale) {
        return Err(SolveError::Infeasible);
    }

    // Drive artificials out of the basis where possible; rows that cannot be
    // pivoted are redundant and harmless (their artificial stays at zero but
    // must never re-enter, which we enforce by restricting `allowed`).
    for i in 0..m {
        if t.basis[i] >= art_start && t.b[i].abs() <= 1e-7 {
            if let Some(col) = (0..art_start).find(|&j| t.a[i][j].abs() > 1e-7) {
                t.pivot(i, col);
            }
        }
    }

    // --- Phase 2: minimise the real objective over non-artificial columns. ---
    match run(&mut t, &obj, art_start, max_iters, 1) {
        RunResult::Optimal => {}
        RunResult::Unbounded => return Err(SolveError::Unbounded),
        RunResult::IterationLimit => return Err(SolveError::IterationLimit),
    }

    // Extract standard-form solution.
    let mut std_values = vec![0.0; ncols];
    for (i, &j) in t.basis.iter().enumerate() {
        std_values[j] = t.b[i];
    }
    // Map back to user variables.
    let mut values = vec![0.0; nvars];
    for (idx, map) in var_map.iter().enumerate() {
        values[idx] = match *map {
            VarMap::Shifted { col, lower } => lower + std_values[col],
            VarMap::Reflected { col, upper } => upper - std_values[col],
            VarMap::Split { plus, minus } => std_values[plus] - std_values[minus],
        };
    }
    let objective: f64 = obj.iter().zip(&std_values).map(|(c, x)| c * x).sum::<f64>() + obj_offset;

    Ok(Solution { values, objective })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Problem, Relation};

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "expected {b}, got {a}");
    }

    #[test]
    fn simple_minimization() {
        // min x + y  s.t.  x + 2y >= 4, 3x + y >= 6, x,y >= 0
        // optimum at intersection: x = 8/5, y = 6/5, obj = 14/5
        let mut p = Problem::new();
        let x = p.add_nonneg_var("x", 1.0);
        let y = p.add_nonneg_var("y", 1.0);
        p.add_constraint(vec![(x, 1.0), (y, 2.0)], Relation::Ge, 4.0);
        p.add_constraint(vec![(x, 3.0), (y, 1.0)], Relation::Ge, 6.0);
        let s = p.solve().unwrap();
        assert_close(s.objective, 14.0 / 5.0);
        assert!(p.is_feasible(&s.values, 1e-6));
    }

    #[test]
    fn maximization_via_negated_objective() {
        // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 (classic Dantzig)
        // optimum 36 at (2, 6); we minimise the negation.
        let mut p = Problem::new();
        let x = p.add_nonneg_var("x", -3.0);
        let y = p.add_nonneg_var("y", -5.0);
        p.add_constraint(vec![(x, 1.0)], Relation::Le, 4.0);
        p.add_constraint(vec![(y, 2.0)], Relation::Le, 12.0);
        p.add_constraint(vec![(x, 3.0), (y, 2.0)], Relation::Le, 18.0);
        let s = p.solve().unwrap();
        assert_close(s.objective, -36.0);
        assert_close(s.value(x), 2.0);
        assert_close(s.value(y), 6.0);
    }

    #[test]
    fn equality_constraints() {
        // min 2x + 3y s.t. x + y = 10, x - y = 2, x,y >= 0  -> x=6, y=4, obj=24
        let mut p = Problem::new();
        let x = p.add_nonneg_var("x", 2.0);
        let y = p.add_nonneg_var("y", 3.0);
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Eq, 10.0);
        p.add_constraint(vec![(x, 1.0), (y, -1.0)], Relation::Eq, 2.0);
        let s = p.solve().unwrap();
        assert_close(s.value(x), 6.0);
        assert_close(s.value(y), 4.0);
        assert_close(s.objective, 24.0);
    }

    #[test]
    fn free_variables_absolute_value_model() {
        // Model |x - 5| with a free x and surrogate t:
        //   min t  s.t.  t >= x - 5, t >= 5 - x, x = 3  ->  t = 2
        let mut p = Problem::new();
        let x = p.add_free_var("x", 0.0);
        let t = p.add_nonneg_var("t", 1.0);
        p.add_constraint(vec![(t, 1.0), (x, -1.0)], Relation::Ge, -5.0);
        p.add_constraint(vec![(t, 1.0), (x, 1.0)], Relation::Ge, 5.0);
        p.add_constraint(vec![(x, 1.0)], Relation::Eq, 3.0);
        let s = p.solve().unwrap();
        assert_close(s.value(t), 2.0);
        assert_close(s.value(x), 3.0);
    }

    #[test]
    fn negative_optimum_with_free_variable() {
        // min x  s.t.  x >= -7  (free x)  -> x = -7
        let mut p = Problem::new();
        let x = p.add_free_var("x", 1.0);
        p.add_constraint(vec![(x, 1.0)], Relation::Ge, -7.0);
        let s = p.solve().unwrap();
        assert_close(s.value(x), -7.0);
    }

    #[test]
    fn infeasible_detected() {
        let mut p = Problem::new();
        let x = p.add_nonneg_var("x", 1.0);
        p.add_constraint(vec![(x, 1.0)], Relation::Le, 1.0);
        p.add_constraint(vec![(x, 1.0)], Relation::Ge, 2.0);
        assert_eq!(p.solve().unwrap_err(), SolveError::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut p = Problem::new();
        let x = p.add_free_var("x", 1.0);
        p.add_constraint(vec![(x, 1.0)], Relation::Le, 10.0);
        assert_eq!(p.solve().unwrap_err(), SolveError::Unbounded);
    }

    #[test]
    fn upper_bounds_respected() {
        // min -x - y with x in [0,3], y in [1,2]  -> x=3, y=2
        let mut p = Problem::new();
        let x = p.add_var("x", 0.0, 3.0, -1.0);
        let y = p.add_var("y", 1.0, 2.0, -1.0);
        let s = p.solve().unwrap();
        assert_close(s.value(x), 3.0);
        assert_close(s.value(y), 2.0);
        assert_close(s.objective, -5.0);
    }

    #[test]
    fn reflected_variable_only_upper_bound() {
        // min -x with x <= 9 (no lower bound) is unbounded? No: maximizing x
        // with only upper bound -> x = 9 at optimum of min(-x).
        let mut p = Problem::new();
        let x = p.add_var("x", f64::NEG_INFINITY, 9.0, -1.0);
        let s = p.solve().unwrap();
        assert_close(s.value(x), 9.0);
    }

    #[test]
    fn shifted_lower_bound_objective_offset() {
        // min x with x >= 5 -> 5; the shift must carry the constant into the
        // reported objective.
        let mut p = Problem::new();
        let x = p.add_var("x", 5.0, f64::INFINITY, 1.0);
        let s = p.solve().unwrap();
        assert_close(s.value(x), 5.0);
        assert_close(s.objective, 5.0);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // A classic degenerate LP (Beale-like): multiple constraints active at
        // the origin. We mainly check termination + feasibility.
        let mut p = Problem::new();
        let x1 = p.add_nonneg_var("x1", -0.75);
        let x2 = p.add_nonneg_var("x2", 150.0);
        let x3 = p.add_nonneg_var("x3", -0.02);
        let x4 = p.add_nonneg_var("x4", 6.0);
        p.add_constraint(
            vec![(x1, 0.25), (x2, -60.0), (x3, -0.04), (x4, 9.0)],
            Relation::Le,
            0.0,
        );
        p.add_constraint(
            vec![(x1, 0.5), (x2, -90.0), (x3, -0.02), (x4, 3.0)],
            Relation::Le,
            0.0,
        );
        p.add_constraint(vec![(x3, 1.0)], Relation::Le, 1.0);
        let s = p.solve().unwrap();
        assert!(p.is_feasible(&s.values, 1e-6));
        assert_close(s.objective, -0.05);
    }

    #[test]
    fn redundant_equalities_handled() {
        // x + y = 2 stated twice; solution must still be found.
        let mut p = Problem::new();
        let x = p.add_nonneg_var("x", 1.0);
        let y = p.add_nonneg_var("y", 2.0);
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Eq, 2.0);
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Eq, 2.0);
        let s = p.solve().unwrap();
        assert_close(s.value(x), 2.0);
        assert_close(s.value(y), 0.0);
    }

    #[test]
    fn duplicate_terms_are_summed() {
        // (x + x) >= 4 means x >= 2.
        let mut p = Problem::new();
        let x = p.add_nonneg_var("x", 1.0);
        p.add_constraint(vec![(x, 1.0), (x, 1.0)], Relation::Ge, 4.0);
        let s = p.solve().unwrap();
        assert_close(s.value(x), 2.0);
    }

    #[test]
    fn negative_rhs_rows() {
        // -x <= -3  (i.e. x >= 3), minimise x.
        let mut p = Problem::new();
        let x = p.add_nonneg_var("x", 1.0);
        p.add_constraint(vec![(x, -1.0)], Relation::Le, -3.0);
        let s = p.solve().unwrap();
        assert_close(s.value(x), 3.0);
    }

    #[test]
    fn moderately_sized_random_feasible_problem() {
        // Deterministic pseudo-random LP with a known feasible point; checks
        // the solver stays stable beyond toy sizes.
        let n = 40;
        let m = 30;
        let mut p = Problem::new();
        let vars: Vec<_> = (0..n)
            .map(|i| p.add_nonneg_var(format!("x{i}"), ((i * 7 + 3) % 11) as f64 / 7.0 + 0.1))
            .collect();
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 7) as f64 - 3.0
        };
        for _ in 0..m {
            let terms: Vec<_> = vars.iter().map(|&v| (v, next())).collect();
            // Non-negative rhs so the origin is always feasible.
            let lhs_at_ones: f64 = terms.iter().map(|(_, a)| *a).sum();
            p.add_constraint(terms, Relation::Le, lhs_at_ones.abs() + 5.0);
        }
        let s = p.solve().unwrap();
        assert!(p.is_feasible(&s.values, 1e-5));
        // All objective coefficients are positive, so the optimum is the origin.
        assert!(s.objective.abs() < 1e-6);
    }
}
