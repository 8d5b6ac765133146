//! Bounded-variable revised simplex with a sparse LU basis kernel.
//!
//! This is the solver behind [`Problem::solve`] — the only one: one basis
//! kernel, one pricing rule, cold start only. It differs from the dense
//! tableau implementation in [`crate::simplex`] (a differential-testing
//! oracle behind [`Problem::solve_tableau`], never a fallback) in three
//! structural ways:
//!
//! * **No tableau.** The basis inverse is never materialised. The solver
//!   keeps a sparse LU factorisation of the basis (Markowitz-style ordering
//!   with threshold partial pivoting — see the private `factor` module)
//!   over the once-built CSC constraint matrix, applies a Forrest–Tomlin
//!   update per pivot, and solves hypersparse FTRAN/BTRAN against
//!   `(index, value)` right-hand sides so work scales with the support of
//!   the vector rather than with `m`. The factorisation is rebuilt from the
//!   sparse columns once `REFACTOR_INTERVAL` updates have accumulated on
//!   top of the last reinversion, so rounding error cannot accumulate
//!   across an unbounded pivot sequence the way it does in a tableau.
//! * **Bounded variables stay implicit.** A finite upper bound is handled
//!   by the ratio test (a nonbasic variable can sit at *either* bound and a
//!   pivot can be a pure *bound flip*), so box constraints on offsets no
//!   longer inflate the constraint matrix with explicit `x <= u` rows —
//!   exactly the rows that made the mobile-offset tableaux large and
//!   degenerate. Free variables are priced in both directions instead of
//!   being split into differences of non-negatives.
//! * **Devex pricing, positional anti-cycling.** The entering column is
//!   chosen by Devex reference-framework pricing: reduced cost normalised
//!   by an iteratively maintained estimate of the column's steepest-edge
//!   norm, which cuts pivot counts sharply on the degenerate alignment LPs.
//!   The weight update is sparse: candidate columns are discovered through
//!   a CSR row index restricted to the pivot row vector's support. After a
//!   run of degenerate pivots Bland's rule takes over — smallest eligible
//!   column entering, smallest basis column leaving — and hands back after
//!   the first pivot that moves the objective. Bland makes termination
//!   *finite*; because finite is not fast on the extremely degenerate
//!   alignment LPs, an objective-stall cutoff (like the tableau's, but
//!   reporting `Stalled` so phase 1 can never turn a stall into a spurious
//!   Infeasible) bounds the pivot count in practice.
//!
//! Every column starts at the point of its range nearest zero — a boxed
//! column whose box straddles zero starts nonbasic strictly *inside* it —
//! and a crash basis is built over that point (slack / structural columns
//! where the start residuals allow, signed artificials for the rest). If an
//! artificial is positive there, phase 1 minimises the artificial sum and
//! the zero artificials it leaves are pivoted out; if none is — the origin
//! is feasible, as it is for every dual [`crate::L1Problem`] poses — neither
//! runs. Phase 2 fixes the artificials to zero and minimises the user
//! objective over the surviving basis; a nonbasic column with a zero reduced
//! cost never moves, so an optimum may leave such columns inside their box.
//! Numerical failure surfaces as [`SolveError::IterationLimit`]; nothing is
//! retried behind it.

use crate::factor::LuFactor;
use crate::model::{Problem, Relation, Solution, SolveError};
use crate::sparse::{CscMatrix, CsrIndex, IndexedVec};
use crate::EPS;

/// Reduced-cost tolerance for pricing.
const PRICE_TOL: f64 = 1e-9;
/// Minimum magnitude accepted for a pivot element.
const PIVOT_TOL: f64 = 1e-8;
/// Degenerate-pivot streak after which Bland's rule takes over.
const BLAND_AFTER: usize = 40;
/// Refactorise after this many Forrest–Tomlin updates accumulate on top of
/// the last reinversion.
const REFACTOR_INTERVAL: usize = 64;
/// A Devex weight above this triggers a reference-framework reset (all
/// weights back to 1): the iterated estimates have drifted too far from
/// any real steepest-edge norm to rank columns meaningfully.
const DEVEX_RESET: f64 = 1e8;
/// Pivots between dense reduced-cost refreshes under incremental Devex
/// pricing. The in-place updates accumulate roundoff that can steer the
/// entering choice onto longer pivot paths; re-deriving the reduced costs
/// from a fresh BTRAN every few pivots bounds the drift while keeping the
/// batched-BTRAN saving on the pivots in between.
const CBAR_REFRESH: usize = 25;

/// The solver working state over the standard-form columns
/// (structural | slack | artificial).
pub(crate) struct Revised {
    /// Number of rows.
    m: usize,
    /// The row-equilibrated constraint matrix, built once per solve.
    csc: CscMatrix,
    /// Row-pattern index over the structural + slack columns (Devex
    /// candidate discovery).
    csr: CsrIndex,
    lower: Vec<f64>,
    upper: Vec<f64>,
    /// Current value of every column (basic or nonbasic).
    x: Vec<f64>,
    /// Right-hand side after row equilibration.
    b: Vec<f64>,
    /// The equilibration factor each original row was multiplied by.
    row_scale: Vec<f64>,
    /// Column basic in each row.
    basis: Vec<usize>,
    in_basis: Vec<bool>,
    /// The LU factorisation of the current basis.
    factor: LuFactor,
    /// First artificial column index.
    art0: usize,
    /// The objective over all columns (slacks and artificials cost
    /// nothing): what phase 2 minimises.
    cost: Vec<f64>,
}

enum RunResult {
    Optimal,
    /// The objective made no progress for the stall budget. The vertex is
    /// feasible but possibly suboptimal; phase 1 must not read this as an
    /// infeasibility certificate.
    Stalled,
    Unbounded,
    IterationLimit,
}

impl Revised {
    /// `out = B⁻¹ a_j` (slot-indexed; support sorted ascending). This also
    /// caches the Forrest–Tomlin spike, so the FTRAN of the entering column
    /// must immediately precede the `factor.update` of its pivot.
    fn ftran_col(&mut self, j: usize, out: &mut IndexedVec) {
        let _span = trace::span("lp.ftran");
        self.factor.ftran_col(&self.csc, j, out);
    }

    /// Dense pricing BTRAN: `y = B⁻ᵀ cb` where `cb[i]` is the cost of the
    /// column basic in slot `i`.
    fn btran_costs(&mut self, cb: &[f64], y: &mut [f64]) {
        let _span = trace::span("lp.btran");
        self.factor.btran_costs(cb, y);
    }

    /// Sparse `rho = B⁻ᵀ e_r` (the pivot row of the inverse), used by the
    /// Devex weight update.
    fn btran_unit(&mut self, r: usize, rho: &mut IndexedVec) {
        let _span = trace::span("lp.btran");
        self.factor.btran_unit(r, rho);
    }

    /// Recompute the basic values `x_B = B⁻¹ (b − N x_N)` from scratch.
    fn recompute_basics(&mut self) {
        let mut r = self.b.clone();
        for j in 0..self.csc.ncols() {
            if self.in_basis[j] || self.x[j] == 0.0 {
                continue;
            }
            let (rows, vals) = self.csc.col(j);
            for (&i, &a) in rows.iter().zip(vals) {
                r[i] -= a * self.x[j];
            }
        }
        let mut out = vec![0.0; self.m];
        self.factor.solve_dense(&mut r, &mut out);
        for (i, &bi) in self.basis.iter().enumerate() {
            self.x[bi] = out[i];
        }
    }

    /// Rebuild the factorisation from the current basis columns
    /// (reinversion). Returns `false` if the basis has become numerically
    /// singular (every basis reached by exact pivots is nonsingular, so
    /// this only flags accumulated rounding damage; the solve gives up with
    /// [`SolveError::IterationLimit`]).
    fn refactorize(&mut self) -> bool {
        trace::count("lp.refactorisations", 1);
        let _span = trace::span("lp.factor");
        if !self.factor.factor(&self.csc, &self.basis) {
            return false;
        }
        self.recompute_basics();
        true
    }

    /// One simplex phase: minimise `cost` until optimality.
    ///
    /// `stall_patience` scales the objective-stall cutoff: on the extremely
    /// degenerate alignment LPs the simplex can shuffle zero-length pivots
    /// (or reduced-cost noise) for astronomically long without moving the
    /// objective. Bland's rule makes that *finite* but not *fast*, so —
    /// exactly like the tableau oracle — a long enough stall is declared
    /// optimal. The callers this solver serves re-price the rounded result
    /// exactly afterwards, so a slightly suboptimal (still feasible) vertex
    /// is far better than burning the whole iteration budget. Phase 1 gets
    /// extra patience because stopping it early would misreport a feasible
    /// problem as infeasible.
    fn run(&mut self, cost: &[f64], max_iters: usize, stall_patience: usize) -> RunResult {
        let ncols = self.csc.ncols();
        let mut degenerate_streak = 0usize;
        let cost_scale = cost.iter().fold(0.0f64, |a, &c| a.max(c.abs()));
        let stall_tol = 1e-10 * (1.0 + cost_scale);
        let stall_limit = 500.max((self.m + ncols) / 4) * stall_patience.max(1);
        let mut last_obj = f64::INFINITY;
        let mut stalled = 0usize;
        // Nonzero objective terms only: adding an exact 0.0 never changes
        // the running sum, so the restricted scan is bit-identical to the
        // historical full sweep.
        let cost_nz: Vec<(usize, f64)> = cost
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c != 0.0)
            .map(|(j, &c)| (j, c))
            .collect();
        // Devex reference framework: every nonbasic column starts with unit
        // weight; pivots grow the weights of columns the pivot row touches.
        let mut weights = vec![1.0f64; ncols];
        // Monotone upper bound on every nonbasic Devex weight: every write
        // to `weights` is folded into `wcap`, so the O(n) reset sweep only
        // runs when the bound itself crosses `DEVEX_RESET` — the sweep's
        // outcome is unchanged, it just stops running when it provably
        // cannot trigger.
        let mut wcap = 1.0f64;
        // Per-run workspaces, reused across pivots.
        let mut cb = vec![0.0f64; self.m];
        let mut y = vec![0.0f64; self.m];
        let mut d = IndexedVec::new(self.m);
        let mut rho = IndexedVec::new(self.m);
        let mut cand: Vec<usize> = Vec::new();
        let mut cand_mark = vec![false; self.art0];
        // Reduced costs of the structural/slack columns, maintained
        // *incrementally* across pivots — the dual step is read off the
        // same pivot-row BTRAN the weight update already performs — so the
        // dense pricing BTRAN only runs on the first iteration, after a
        // reinversion, under Bland's rule, and to confirm optimality.
        let mut cbar = vec![0.0f64; self.art0];
        let mut cbar_fresh = false;
        let mut cbar_age = 0usize;
        // The end-of-iteration bound snap is idempotent, and a basic value
        // only moves when its row is in the pivot column's support — so
        // after one full pass the snap can be restricted to the touched
        // rows. `snap_all` forces the full pass on the first pivot (the
        // start values were never snapped) and after any reinversion.
        let mut snap_all = true;
        // Bounds are fixed for the whole run, so a column pinned to a
        // single value (presolve-tightened) can never price in: hoist the
        // range test out of the per-pivot scan. Ascending order preserved —
        // the scan's tie-breaking depends on it.
        let scannable: Vec<usize> = (0..self.art0)
            .filter(|&j| self.upper[j] - self.lower[j] > EPS)
            .collect();
        for _ in 0..max_iters {
            if self.factor.updates() >= REFACTOR_INTERVAL {
                if !self.refactorize() {
                    return RunResult::IterationLimit;
                }
                // A reinversion changes the rounding of B⁻ᵀ; re-derive the
                // maintained reduced costs from the fresh factor.
                cbar_fresh = false;
                snap_all = true;
            }
            let obj: f64 = cost_nz.iter().map(|&(j, cj)| cj * self.x[j]).sum();
            if obj < last_obj - stall_tol {
                last_obj = obj;
                stalled = 0;
            } else {
                stalled += 1;
                if stalled > stall_limit {
                    return RunResult::Stalled;
                }
            }
            let use_bland = degenerate_streak > BLAND_AFTER;

            // Pricing: y = B⁻ᵀ c_B, then reduced costs of nonbasic columns.
            // The dense BTRAN is skipped when the incrementally maintained
            // reduced costs are still fresh; Bland's rule always re-derives
            // them densely — its anti-cycling guarantee rests on exact
            // reduced-cost signs.
            let densely_priced = use_bland || !cbar_fresh || cbar_age >= CBAR_REFRESH;
            if densely_priced {
                let _span = trace::span("lp.price");
                cbar_age = 0;
                for (ci, &j) in cb.iter_mut().zip(&self.basis) {
                    *ci = cost[j];
                }
                self.btran_costs(&cb, &mut y);
                for (j, cj) in cbar.iter_mut().enumerate() {
                    let mut c = cost[j];
                    let (rows, vals) = self.csc.col(j);
                    for (&i, &a) in rows.iter().zip(vals) {
                        c -= y[i] * a;
                    }
                    *cj = c;
                }
                cbar_fresh = true;
            } else {
                // One dense pricing BTRAN folded into the weight-update
                // BTRAN of the previous pivot.
                trace::count("lp.devex.batched_btran", 1);
                cbar_age += 1;
            }

            // `to_upper` is the chosen direction: increase (false) or
            // decrease (true) the entering variable.
            let mut entering: Option<(usize, bool)> = None;
            let mut best_score = 0.0f64;
            let scan_span = trace::span("lp.scan");
            // Artificial columns (j >= art0) are never priced: an
            // artificial that left the basis never re-enters.
            for &j in &scannable {
                if self.in_basis[j] {
                    continue;
                }
                let cbar = cbar[j];
                let at_lower = self.x[j] <= self.lower[j] + EPS;
                let at_upper = self.x[j] >= self.upper[j] - EPS;
                // Free nonbasic variables (at neither bound) may move in
                // whichever direction improves the objective.
                let dir = if at_lower && cbar < -PRICE_TOL {
                    Some(false)
                } else if at_upper && cbar > PRICE_TOL {
                    Some(true)
                } else if !at_lower && !at_upper && cbar.abs() > PRICE_TOL {
                    Some(cbar > 0.0)
                } else {
                    None
                };
                if let Some(decrease) = dir {
                    if use_bland {
                        entering = Some((j, decrease));
                        break;
                    }
                    let score = cbar * cbar / weights[j];
                    if score > best_score {
                        best_score = score;
                        entering = Some((j, decrease));
                    }
                }
            }
            drop(scan_span);
            let Some((q, decrease)) = entering else {
                if !densely_priced {
                    // The maintained reduced costs accumulate roundoff
                    // across pivots; optimality is only declared against a
                    // freshly recomputed set.
                    cbar_fresh = false;
                    continue;
                }
                return RunResult::Optimal;
            };
            trace::count("lp.pivots", 1);
            let tail_span = trace::span("lp.pivot_tail");
            let s: f64 = if decrease { -1.0 } else { 1.0 };

            // Ratio test over x_B' = x_B − θ·s·d, plus the entering
            // variable's own distance to its bound (bound flip). The
            // support is sorted, so the scan visits rows in the same
            // ascending order as the historical dense sweep.
            self.ftran_col(q, &mut d);
            // How far the entering column is from the bound it moves
            // towards (it may start strictly inside its box); may be +inf.
            let own_range = if decrease {
                self.x[q] - self.lower[q]
            } else {
                self.upper[q] - self.x[q]
            };
            let mut theta = own_range;
            let mut leaving: Option<(usize, f64)> = None; // (row, bound hit)
            for &i in d.support() {
                let di = d.get(i);
                if di.abs() <= PIVOT_TOL {
                    continue;
                }
                let bi = self.basis[i];
                let delta = s * di;
                let limit = if delta > 0.0 {
                    self.lower[bi]
                } else {
                    self.upper[bi]
                };
                if !limit.is_finite() {
                    continue;
                }
                let ratio = ((self.x[bi] - limit) / delta).max(0.0);
                let replace = if ratio < theta - EPS {
                    true
                } else if ratio <= theta + EPS {
                    // Tie. Against the bound flip (`leaving == None`) keep
                    // the flip — it is cheaper and adds no eta. Between rows,
                    // Bland's rule takes the smallest basis column when
                    // anti-cycling is active and the largest pivot magnitude
                    // (best conditioning) otherwise.
                    match leaving {
                        None => false,
                        Some((r, _)) => {
                            if use_bland {
                                self.basis[i] < self.basis[r]
                            } else {
                                di.abs() > d.get(r).abs()
                            }
                        }
                    }
                } else {
                    false
                };
                if replace {
                    theta = ratio.min(theta);
                    leaving = Some((i, limit));
                }
            }

            if theta.is_infinite() {
                return RunResult::Unbounded;
            }

            match leaving {
                // Entering variable runs to its bound before any basic
                // variable blocks: a bound flip, no basis change.
                None => {
                    debug_assert!(own_range.is_finite());
                    self.x[q] = if decrease {
                        self.lower[q]
                    } else {
                        self.upper[q]
                    };
                    for &i in d.support() {
                        let di = d.get(i);
                        if di != 0.0 {
                            let bi = self.basis[i];
                            self.x[bi] -= own_range * s * di;
                        }
                    }
                    degenerate_streak = 0;
                }
                Some((r, bound)) => {
                    if theta <= EPS {
                        degenerate_streak += 1;
                    } else {
                        degenerate_streak = 0;
                    }
                    let leave = self.basis[r];
                    let devex_span = trace::span("lp.devex.update");
                    // Devex weight update over the *old* basis inverse
                    // (before this pivot reaches the kernel):
                    // ρ = eᵣᵀB⁻¹ gives the pivot row, and every
                    // nonbasic column j with αⱼ = ρ·aⱼ ≠ 0 inherits
                    // w_j = max(w_j, (αⱼ/α_q)²·w_q) — the
                    // reference-framework recurrence that makes the
                    // weights track steepest-edge norms. Only columns
                    // intersecting ρ's support can have αⱼ ≠ 0, so the
                    // candidates come from the CSR rows of the support;
                    // every α is still gathered in column-entry order,
                    // which keeps the arithmetic bit-identical to the
                    // historical all-columns sweep.
                    self.btran_unit(r, &mut rho);
                    let alpha_q = d.get(r);
                    // The same pivot-row BTRAN also yields the dual
                    // step, so the reduced costs of every touched
                    // column are updated in place — this is what lets
                    // the next iteration skip the dense pricing BTRAN.
                    let dual_step = cbar[q] / alpha_q;
                    let wq = weights[q].max(1.0);
                    let ratio_w = wq / (alpha_q * alpha_q);
                    for &i in rho.support() {
                        if rho.get(i) == 0.0 {
                            continue;
                        }
                        for &j in self.csr.row(i) {
                            if !cand_mark[j] {
                                cand_mark[j] = true;
                                cand.push(j);
                            }
                        }
                    }
                    for &j in &cand {
                        cand_mark[j] = false;
                        if self.in_basis[j] || j == q {
                            continue;
                        }
                        let mut alpha = 0.0;
                        let (rows, vals) = self.csc.col(j);
                        for (&i, &a) in rows.iter().zip(vals) {
                            alpha += rho.get(i) * a;
                        }
                        if alpha != 0.0 {
                            let grown = alpha * alpha * ratio_w;
                            if grown > weights[j] {
                                weights[j] = grown;
                                wcap = wcap.max(grown);
                            }
                            cbar[j] -= dual_step * alpha;
                        }
                    }
                    cand.clear();
                    // The entering column's reduced cost is exactly
                    // zero once basic; the leaving variable inherits
                    // the negated dual step (its pivot-row alpha is 1).
                    cbar[q] = 0.0;
                    if leave < self.art0 {
                        cbar[leave] = -dual_step;
                    }
                    if wcap > DEVEX_RESET {
                        let mut wmax = 0.0f64;
                        for (j, &w) in weights.iter().enumerate().take(self.art0) {
                            if self.in_basis[j] || j == q {
                                continue;
                            }
                            wmax = wmax.max(w);
                        }
                        weights[leave] = ratio_w.max(1.0);
                        weights[q] = 1.0;
                        if wmax.max(weights[leave]) > DEVEX_RESET {
                            weights.fill(1.0);
                            wcap = 1.0;
                        } else {
                            // The sweep just produced the true maximum
                            // over the nonbasic set; adopt it as the new
                            // (tight) bound.
                            wcap = wmax.max(weights[leave]);
                        }
                    } else {
                        weights[leave] = ratio_w.max(1.0);
                        wcap = wcap.max(weights[leave]);
                        weights[q] = 1.0;
                    }
                    drop(devex_span);
                    for &i in d.support() {
                        let di = d.get(i);
                        if di != 0.0 {
                            let bi = self.basis[i];
                            self.x[bi] -= theta * s * di;
                        }
                    }
                    self.x[q] += theta * s;
                    self.x[leave] = bound;
                    self.in_basis[leave] = false;
                    self.in_basis[q] = true;
                    self.basis[r] = q;
                    if !self.factor.update(r) {
                        if !self.refactorize() {
                            return RunResult::IterationLimit;
                        }
                        cbar_fresh = false;
                        snap_all = true;
                    }
                }
            }

            // Snap tiny bound violations introduced by the pivot update.
            // Only rows in the pivot column's support changed value this
            // iteration (the entering column now sits on one of them);
            // every other basic value is bitwise-unchanged since its last
            // snap, so re-snapping it is a no-op the restricted pass skips.
            if snap_all {
                for &bi in &self.basis {
                    if self.x[bi] < self.lower[bi] && self.x[bi] > self.lower[bi] - 1e-9 {
                        self.x[bi] = self.lower[bi];
                    }
                    if self.x[bi] > self.upper[bi] && self.x[bi] < self.upper[bi] + 1e-9 {
                        self.x[bi] = self.upper[bi];
                    }
                }
                snap_all = false;
            } else {
                for &i in d.support() {
                    let bi = self.basis[i];
                    if self.x[bi] < self.lower[bi] && self.x[bi] > self.lower[bi] - 1e-9 {
                        self.x[bi] = self.lower[bi];
                    }
                    if self.x[bi] > self.upper[bi] && self.x[bi] < self.upper[bi] + 1e-9 {
                        self.x[bi] = self.upper[bi];
                    }
                }
            }
            drop(tail_span);
        }
        RunResult::IterationLimit
    }

    /// Pivot zero-valued basic artificials out of the basis where a
    /// non-artificial column can replace them (post phase 1).
    ///
    /// A column `j` can take over slot `r` exactly when `(B⁻¹a_j)[r] =
    /// ρ·a_j ≠ 0` for the pivot row `ρ = B⁻ᵀe_r`, so one BTRAN per
    /// artificial prices every candidate and only the chosen column pays an
    /// FTRAN (which the kernel update needs anyway). Candidates are the
    /// columns meeting `ρ`'s support, tried in ascending order.
    fn drive_out_artificials(&mut self) {
        let _span = trace::span("lp.drive_out");
        let mut d = IndexedVec::new(self.m);
        let mut rho = IndexedVec::new(self.m);
        let mut cand: Vec<usize> = Vec::new();
        for r in 0..self.m {
            if self.basis[r] < self.art0 || self.x[self.basis[r]].abs() > 1e-7 {
                continue;
            }
            self.btran_unit(r, &mut rho);
            cand.clear();
            for &i in rho.support() {
                if rho.get(i) != 0.0 {
                    cand.extend(self.csr.row(i).iter().filter(|&&j| !self.in_basis[j]));
                }
            }
            cand.sort_unstable();
            cand.dedup();
            for &j in &cand {
                let (rows, vals) = self.csc.col(j);
                let alpha: f64 = rows.iter().zip(vals).map(|(&i, &a)| rho.get(i) * a).sum();
                if alpha.abs() <= PIVOT_TOL {
                    continue;
                }
                // The row view prices, the column view decides: the pivot is
                // taken on the FTRAN'd element, like every other pivot. It
                // is degenerate (θ = 0), so values do not move.
                self.ftran_col(j, &mut d);
                if d.get(r).abs() <= PIVOT_TOL {
                    continue;
                }
                let art = self.basis[r];
                let art_x = self.x[art];
                self.in_basis[art] = false;
                self.x[art] = 0.0;
                self.in_basis[j] = true;
                self.basis[r] = j;
                if !self.factor.update(r) && !self.refactorize() {
                    // Numerically unusable replacement: restore the
                    // artificial (the kernel still matches the old
                    // basis) and stop driving out.
                    self.basis[r] = art;
                    self.in_basis[art] = true;
                    self.in_basis[j] = false;
                    self.x[art] = art_x;
                    return;
                }
                break;
            }
        }
    }

    /// Row duals `π = B⁻ᵀc_B` of the current basis under the objective, in
    /// the units of the caller's rows (the solver's internal row
    /// equilibration undone): the reduced cost of column `j` is
    /// `c_j − π·a_j`. At an optimal basis these are the LP's dual values —
    /// how [`crate::L1Problem`] reads its unknowns off the dual it solves.
    pub(crate) fn row_duals(&mut self) -> Vec<f64> {
        let cb: Vec<f64> = self.basis.iter().map(|&j| self.cost[j]).collect();
        let mut y = vec![0.0; self.m];
        self.btran_costs(&cb, &mut y);
        for (yi, s) in y.iter_mut().zip(&self.row_scale) {
            *yi *= s;
        }
        y
    }
}

/// Vestigial argument of [`KernelBench::prepare`]: the `benchmark` package
/// (which a PR touching the solver may not edit) still passes
/// `Kernel::default()`. There is one kernel and nothing can be set with
/// this; the next `benchmark` PR drops the argument and the type.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Kernel {
    #[default]
    SparseLu,
}

/// Bench-harness hook: a solver parked at a problem's **optimal basis**, so
/// the kernel primitives (reinversion, FTRAN, BTRAN) can be timed in
/// isolation on a representative basis instead of through a whole solve.
/// Hidden from the documented API — the consumers are the `lp_kernel`
/// regression bench and the `benchmark` package's `lp.kernel` layer.
#[doc(hidden)]
pub struct KernelBench {
    rev: Revised,
    work: IndexedVec,
    rho: IndexedVec,
    /// Structural/slack columns with at least one nonzero (FTRAN targets).
    cols: Vec<usize>,
}

impl KernelBench {
    /// Solve `problem` and keep the solver parked at its final basis,
    /// freshly refactorised. `None` when the problem has no optimum, no
    /// rows, or no structural columns to sweep.
    pub fn prepare(problem: &Problem, _kernel: Kernel) -> Option<KernelBench> {
        let (_, solver) = optimise(standard_form(problem)).ok()?;
        let mut rev = solver?;
        if !rev.refactorize() {
            return None;
        }
        let cols: Vec<usize> = (0..rev.art0).filter(|&j| rev.csc.col_nnz(j) > 0).collect();
        if cols.is_empty() {
            return None;
        }
        let m = rev.m;
        Some(KernelBench {
            rev,
            work: IndexedVec::new(m),
            rho: IndexedVec::new(m),
            cols,
        })
    }

    /// Rows of the parked basis.
    pub fn rows(&self) -> usize {
        self.rev.m
    }

    /// Rebuild the kernel from the parked basis (one reinversion).
    pub fn refactor(&mut self) -> bool {
        self.rev.refactorize()
    }

    /// `rounds` FTRAN/BTRAN pairs over the parked basis: each round solves
    /// `B⁻¹ a_j` for the next structural column and `B⁻ᵀ e_r` for the next
    /// row — the two kernel primitives every simplex iteration performs.
    /// Returns a value checksum so the work cannot be optimised away.
    pub fn sweeps(&mut self, rounds: usize) -> f64 {
        let mut acc = 0.0;
        for k in 0..rounds {
            let j = self.cols[k % self.cols.len()];
            self.rev.ftran_col(j, &mut self.work);
            for &i in self.work.support() {
                acc += self.work.get(i);
            }
            let r = k % self.rev.m;
            self.rev.btran_unit(r, &mut self.rho);
            for &i in self.rho.support() {
                acc += self.rho.get(i);
            }
        }
        acc
    }
}

/// The point of `[lower, upper]` nearest zero: where every column starts.
fn nearest_zero(lower: f64, upper: f64) -> f64 {
    0.0f64.max(lower).min(upper)
}

/// Standard-form columns (structural | slack) before the crash basis is
/// chosen: the one thing [`cold_start`] takes. A [`Problem`] is transposed
/// into it ([`standard_form`]); [`crate::L1Problem`] writes the columns of
/// its dual into it directly.
pub(crate) struct Standard {
    /// The structural columns, `n` of them, then one unit column per slack.
    /// A column's rows ascend, one entry per row.
    pub(crate) csc: CscMatrix,
    pub(crate) n: usize,
    /// Right-hand side and, per row, the factor that equilibrated it.
    pub(crate) b: Vec<f64>,
    pub(crate) row_scale: Vec<f64>,
    /// Bounds of every column.
    pub(crate) lower: Vec<f64>,
    pub(crate) upper: Vec<f64>,
    /// Objective of the structural columns.
    pub(crate) cost: Vec<f64>,
}

fn standard_form(problem: &Problem) -> Standard {
    let _span = trace::span("lp.standard_form");
    let n = problem.vars.len();
    let m = problem.constraints.len();

    // Rows are equilibrated by their largest structural coefficient, like the
    // tableau solver: alignment constraint systems mix element-count weights
    // in the thousands with unit coefficients.
    let mut row_scale = vec![1.0f64; m];
    let mut col_ptr = vec![0usize; n + 1];
    for (i, c) in problem.constraints.iter().enumerate() {
        let mag = c.terms.iter().fold(0.0f64, |a, &(_, v)| a.max(v.abs()));
        row_scale[i] = mag.max(1e-12).recip();
        for &(v, a) in &c.terms {
            col_ptr[v.0 + 1] += usize::from(a != 0.0);
        }
    }
    for j in 0..n {
        col_ptr[j + 1] += col_ptr[j];
    }
    // Transpose: rows are dealt in order, so a column's rows ascend and a
    // variable one row names twice lands in adjacent entries.
    let mut next = col_ptr.clone();
    let mut row_idx = vec![0usize; col_ptr[n]];
    let mut values = vec![0.0f64; col_ptr[n]];
    let mut b = vec![0.0; m];
    for (i, c) in problem.constraints.iter().enumerate() {
        b[i] = c.rhs * row_scale[i];
        for &(v, a) in c.terms.iter().filter(|t| t.1 != 0.0) {
            row_idx[next[v.0]] = i;
            values[next[v.0]] = a * row_scale[i];
            next[v.0] += 1;
        }
    }
    // Merge duplicate terms within a column's row list, in place.
    let (mut kept, mut k) = (0, 0);
    for j in 0..n {
        let end = col_ptr[j + 1];
        col_ptr[j] = kept;
        while k < end {
            let i = row_idx[k];
            let mut a = values[k];
            k += 1;
            while k < end && row_idx[k] == i {
                a += values[k];
                k += 1;
            }
            if a != 0.0 {
                row_idx[kept] = i;
                values[kept] = a;
                kept += 1;
            }
        }
    }
    col_ptr[n] = kept;
    row_idx.truncate(kept);
    values.truncate(kept);

    let mut csc = CscMatrix::from_parts(m, col_ptr, row_idx, values);
    let mut lower: Vec<f64> = problem.vars.iter().map(|v| v.lower).collect();
    let mut upper: Vec<f64> = problem.vars.iter().map(|v| v.upper).collect();
    // Slacks: `Ax + s = b` with `s >= 0` for `<=`, `s <= 0` for `>=`.
    for (i, c) in problem.constraints.iter().enumerate() {
        let (lo, hi) = match c.relation {
            Relation::Le => (0.0, f64::INFINITY),
            Relation::Ge => (f64::NEG_INFINITY, 0.0),
            Relation::Eq => continue,
        };
        csc.push_unit_col(i, 1.0);
        lower.push(lo);
        upper.push(hi);
    }

    Standard {
        csc,
        n,
        b,
        row_scale,
        lower,
        upper,
        cost: problem.vars.iter().map(|v| v.obj).collect(),
    }
}

/// Build the solver state from a crash basis.
fn cold_start(sf: Standard) -> Revised {
    let _span = trace::span("lp.crash");
    let Standard {
        mut csc,
        n,
        b,
        row_scale,
        mut lower,
        mut upper,
        mut cost,
    } = sf;
    let m = csc.m();
    // Every column starts at the point of its range nearest zero.
    let mut x: Vec<f64> = lower
        .iter()
        .zip(&upper)
        .map(|(&lo, &hi)| nearest_zero(lo, hi))
        .collect();
    // Row `r`'s columns, ascending — its structural ones, then its slack:
    // what the crash scans, and (no artificial is ever priced) the index
    // Devex discovers its candidates through.
    let csr = {
        let _span = trace::span("lp.assemble");
        CsrIndex::build(&csc, csc.ncols())
    };

    // Crash basis from the residual of the nonbasic start point. Rows are
    // processed in order and each picks the cheapest basic column that makes
    // it feasible *now*:
    //
    // 1. the row's own slack, when the residual fits the slack's bounds —
    //    already feasible, no phase-1 work;
    // 2. a structural column (triangular crash): a nonbasic column of the
    //    row whose shift to absorb the residual stays inside its own bounds
    //    and touches no row crashed before it;
    // 3. a signed artificial — the fallback, costing phase-1 pivots when
    //    its residual is not zero.
    //
    // Phase 1 then minimises `sum |still-infeasible residuals|` instead of
    // `sum |all residuals|`.
    //
    // What production feeds this is the dual of an L1 problem
    // (`crate::l1`): every row an equality `Σ a_k·y_k − Eᵀμ = 0` (so rule 1
    // never applies), the `y_k` boxed in `±w_k` and the `μ` free — every
    // column starts at zero, inside its range, every residual is zero and
    // the origin is the feasible point the simplex starts from. Rule 2 takes
    // a column none of whose other rows is crashed yet, at shift zero; the
    // rest of the rows get a zero artificial, which costs nothing: no
    // phase 1 runs, and such an artificial leaves only if the objective
    // moves its row.
    let mut resid = b.clone();
    for (j, &xj) in x.iter().enumerate().filter(|&(_, &xj)| xj != 0.0) {
        let (rows, vals) = csc.col(j);
        for (&i, &a) in rows.iter().zip(vals) {
            resid[i] -= a * xj;
        }
    }
    #[derive(Clone, Copy, PartialEq)]
    enum RowState {
        Unprocessed,
        SlackBasic,
        Fixed,
    }
    let mut state = vec![RowState::Unprocessed; m];
    let mut basis = vec![usize::MAX; m];
    let mut col_basic = vec![false; n];
    let mut candidates: Vec<(usize, f64)> = Vec::new();

    for r in 0..m {
        // 1. Slack crash.
        if let Some(&sc) = csr.row(r).last().filter(|&&j| j >= n) {
            if resid[r] >= lower[sc] && resid[r] <= upper[sc] {
                x[sc] = resid[r];
                basis[r] = sc;
                state[r] = RowState::SlackBasic;
                continue;
            }
        }
        // 2. Structural crash. Candidates are tried lowest column fan-out
        // first: a column private to this row disturbs no other residual,
        // one shared with many rows disturbs them all.
        let in_row = csr.row(r).iter().take_while(|&&j| j < n);
        let in_row = in_row.map(|&j| {
            let (rows, vals) = csc.col(j);
            (j, vals[rows.binary_search(&r).expect("an indexed entry")])
        });
        candidates.clear();
        candidates.extend(in_row.filter(|&(j, a)| !col_basic[j] && a.abs() >= 0.1));
        candidates.sort_by_key(|&(j, _)| csc.col_nnz(j));
        let mut chosen: Option<(usize, f64)> = None; // (col, new value)
        'candidates: for &(j, a) in &candidates {
            let delta = resid[r] / a;
            let xj_new = x[j] + delta;
            if xj_new < lower[j] - EPS || xj_new > upper[j] + EPS {
                continue;
            }
            // The shift must not break rows already made feasible.
            let (rows, vals) = csc.col(j);
            for (&i, &aij) in rows.iter().zip(vals) {
                if i == r {
                    continue;
                }
                match state[i] {
                    RowState::Fixed => continue 'candidates,
                    RowState::SlackBasic => {
                        let sc = basis[i];
                        let s_new = x[sc] - aij * delta;
                        if s_new < lower[sc] - EPS || s_new > upper[sc] + EPS {
                            continue 'candidates;
                        }
                    }
                    RowState::Unprocessed => {}
                }
            }
            chosen = Some((j, xj_new));
            break;
        }
        if let Some((j, xj_new)) = chosen {
            let delta = xj_new - x[j];
            x[j] = xj_new;
            let (rows, vals) = csc.col(j);
            for (&i, &aij) in rows.iter().zip(vals) {
                resid[i] -= aij * delta;
                if state[i] == RowState::SlackBasic {
                    x[basis[i]] -= aij * delta;
                }
            }
            basis[r] = j;
            col_basic[j] = true;
            state[r] = RowState::Fixed;
            continue;
        }
        state[r] = RowState::Fixed; // artificial decided below
    }
    // 3. Artificials for whatever is left.
    let art0 = csc.ncols();
    for r in 0..m {
        if basis[r] != usize::MAX {
            // The crash may have nudged a slack-crashed row's value; the
            // caller's first factorisation re-derives all basic values
            // consistently.
            continue;
        }
        let sign = if resid[r] < 0.0 { -1.0 } else { 1.0 };
        basis[r] = csc.ncols();
        csc.push_unit_col(r, sign);
        lower.push(0.0);
        upper.push(f64::INFINITY);
        x.push(resid[r].abs());
    }

    let ncols = csc.ncols();
    let mut in_basis = vec![false; ncols];
    for &j in &basis {
        in_basis[j] = true;
    }
    cost.resize(ncols, 0.0);

    Revised {
        m,
        csc,
        csr,
        lower,
        upper,
        x,
        b,
        row_scale,
        basis,
        in_basis,
        factor: LuFactor::new(m),
        art0,
        cost,
    }
}

/// Solve `problem` with the bounded-variable revised simplex.
pub fn solve(problem: &Problem) -> Result<Solution, SolveError> {
    optimise(standard_form(problem)).map(|(sol, _)| sol)
}

/// Both phases of a solve. Returns the optimum over the structural columns
/// and — unless there are no rows — the solver parked at the optimal basis.
pub(crate) fn optimise(sf: Standard) -> Result<(Solution, Option<Revised>), SolveError> {
    let n = sf.n;
    let m = sf.csc.m();
    let objective_at =
        |cost: &[f64], values: &[f64]| -> f64 { cost.iter().zip(values).map(|(c, x)| c * x).sum() };

    if m == 0 {
        // Pure bound minimisation: each variable independently runs to the
        // bound its objective coefficient points at.
        let mut values = vec![0.0; n];
        for (i, &obj) in sf.cost.iter().enumerate() {
            let (lower, upper) = (sf.lower[i], sf.upper[i]);
            values[i] = if obj > 0.0 {
                if !lower.is_finite() {
                    return Err(SolveError::Unbounded);
                }
                lower
            } else if obj < 0.0 {
                if !upper.is_finite() {
                    return Err(SolveError::Unbounded);
                }
                upper
            } else {
                nearest_zero(lower, upper)
            };
        }
        let objective = objective_at(&sf.cost, &values);
        return Ok((Solution { values, objective }, None));
    }

    // The crash basis mixes slack, structural and artificial columns;
    // factorise it once up front and derive all basic values consistently.
    let mut solver = cold_start(sf);
    if !solver.refactorize() {
        return Err(SolveError::IterationLimit);
    }

    let art0 = solver.art0;
    let ncols = solver.csc.ncols();
    let max_iters = 400 * (ncols + m + 10);

    // --- Phase 1: minimise the artificial sum, then pivot the zero
    // artificials out. Both are skipped when the start point is already
    // feasible — no artificial is positive: the zero artificials stay basic,
    // fixed at zero below, and leave when a ratio test evicts them, so the
    // row dual of every row the objective never moves stays zero. ---
    let b_scale = solver.b.iter().fold(0.0f64, |a, &v| a.max(v.abs()));
    let feasible =
        |s: &Revised| (art0..ncols).map(|j| s.x[j].abs()).sum::<f64>() <= 1e-7 * (1.0 + b_scale);
    if !feasible(&solver) {
        let mut phase1_cost = vec![0.0; ncols];
        for c in phase1_cost.iter_mut().skip(art0) {
            *c = 1.0;
        }
        let pivots_before_phase1 = trace::counter("lp.pivots");
        let phase1 = solver.run(&phase1_cost, max_iters, 4);
        trace::count(
            "lp.phase1_pivots",
            trace::counter("lp.pivots") - pivots_before_phase1,
        );
        let feasible = feasible(&solver);
        match phase1 {
            RunResult::Optimal if !feasible => return Err(SolveError::Infeasible),
            RunResult::Optimal => {}
            // A stalled phase 1 that nevertheless drove the artificials to
            // zero found a feasible point; a stall with artificials left is
            // *not* an infeasibility certificate — report numerical failure,
            // never a spurious Infeasible.
            RunResult::Stalled if feasible => {}
            // Phase 1 is bounded below by zero; an unbounded report is
            // numerical failure, not a certificate.
            RunResult::Stalled | RunResult::Unbounded | RunResult::IterationLimit => {
                return Err(SolveError::IterationLimit)
            }
        }
        solver.drive_out_artificials();
    }

    // --- Phase 2: fix artificials at zero, minimise the user objective. ---
    for j in art0..ncols {
        // Pricing never lets a fixed (l == u) column enter; an artificial
        // still basic stays at zero because the ratio test evicts it the
        // moment any pivot would move it off its bound.
        solver.upper[j] = 0.0;
        if !solver.in_basis[j] {
            solver.x[j] = 0.0;
        }
    }

    let cost = std::mem::take(&mut solver.cost);
    let phase2 = solver.run(&cost, max_iters, 1);
    solver.cost = cost;
    match phase2 {
        // A stalled phase 2 is accepted as optimal: the vertex is feasible
        // and the callers this solver serves re-price the result exactly.
        RunResult::Optimal | RunResult::Stalled => {}
        RunResult::Unbounded => return Err(SolveError::Unbounded),
        RunResult::IterationLimit => return Err(SolveError::IterationLimit),
    }

    let values: Vec<f64> = solver.x[..n].to_vec();
    let objective = objective_at(&solver.cost, &values);
    Ok((Solution { values, objective }, Some(solver)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Problem, Relation};

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "expected {b}, got {a}");
    }

    /// `n` variables coupled pairwise by `n - 1` covering rows: sparse, and
    /// long enough chains take many pivots.
    fn chain_problem(n: usize) -> Problem {
        let mut p = Problem::new();
        let vars: Vec<_> = (0..n)
            .map(|i| p.add_nonneg_var(format!("x{i}"), 1.0 + (i % 7) as f64))
            .collect();
        for i in 0..n - 1 {
            p.add_constraint(vec![(vars[i], 1.0), (vars[i + 1], 1.0)], Relation::Ge, 2.0);
        }
        p
    }

    #[test]
    fn simple_minimization() {
        let mut p = Problem::new();
        let x = p.add_nonneg_var("x", 1.0);
        let y = p.add_nonneg_var("y", 1.0);
        p.add_constraint(vec![(x, 1.0), (y, 2.0)], Relation::Ge, 4.0);
        p.add_constraint(vec![(x, 3.0), (y, 1.0)], Relation::Ge, 6.0);
        let s = solve(&p).unwrap();
        assert_close(s.objective, 14.0 / 5.0);
        assert!(p.is_feasible(&s.values, 1e-6));
    }

    #[test]
    fn maximization_via_negated_objective() {
        let mut p = Problem::new();
        let x = p.add_nonneg_var("x", -3.0);
        let y = p.add_nonneg_var("y", -5.0);
        p.add_constraint(vec![(x, 1.0)], Relation::Le, 4.0);
        p.add_constraint(vec![(y, 2.0)], Relation::Le, 12.0);
        p.add_constraint(vec![(x, 3.0), (y, 2.0)], Relation::Le, 18.0);
        let s = solve(&p).unwrap();
        assert_close(s.objective, -36.0);
        assert_close(s.value(x), 2.0);
        assert_close(s.value(y), 6.0);
    }

    #[test]
    fn equality_constraints() {
        let mut p = Problem::new();
        let x = p.add_nonneg_var("x", 2.0);
        let y = p.add_nonneg_var("y", 3.0);
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Eq, 10.0);
        p.add_constraint(vec![(x, 1.0), (y, -1.0)], Relation::Eq, 2.0);
        let s = solve(&p).unwrap();
        assert_close(s.value(x), 6.0);
        assert_close(s.value(y), 4.0);
        assert_close(s.objective, 24.0);
    }

    #[test]
    fn free_variables_and_negative_optimum() {
        let mut p = Problem::new();
        let x = p.add_free_var("x", 1.0);
        p.add_constraint(vec![(x, 1.0)], Relation::Ge, -7.0);
        let s = solve(&p).unwrap();
        assert_close(s.value(x), -7.0);
    }

    #[test]
    fn infeasible_detected() {
        let mut p = Problem::new();
        let x = p.add_nonneg_var("x", 1.0);
        p.add_constraint(vec![(x, 1.0)], Relation::Le, 1.0);
        p.add_constraint(vec![(x, 1.0)], Relation::Ge, 2.0);
        assert_eq!(solve(&p).unwrap_err(), SolveError::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut p = Problem::new();
        let x = p.add_free_var("x", 1.0);
        p.add_constraint(vec![(x, 1.0)], Relation::Le, 10.0);
        assert_eq!(solve(&p).unwrap_err(), SolveError::Unbounded);
    }

    #[test]
    fn box_bounds_without_explicit_rows() {
        // The whole point of the bounded-variable ratio test: no `x <= u`
        // rows, the bound is honoured implicitly.
        let mut p = Problem::new();
        let x = p.add_var("x", 0.0, 3.0, -1.0);
        let y = p.add_var("y", 1.0, 2.0, -1.0);
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Le, 10.0);
        let s = solve(&p).unwrap();
        assert_close(s.value(x), 3.0);
        assert_close(s.value(y), 2.0);
        assert_close(s.objective, -5.0);
    }

    #[test]
    fn bound_flip_only_problem() {
        // min -x - y with x,y in [0,1] and a slack constraint that never
        // binds: the optimum is reached purely through bound flips.
        let mut p = Problem::new();
        let x = p.add_var("x", 0.0, 1.0, -1.0);
        let y = p.add_var("y", 0.0, 1.0, -1.0);
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Le, 5.0);
        let s = solve(&p).unwrap();
        assert_close(s.objective, -2.0);
    }

    #[test]
    fn reflected_variable_only_upper_bound() {
        let mut p = Problem::new();
        let x = p.add_var("x", f64::NEG_INFINITY, 9.0, -1.0);
        p.add_constraint(vec![(x, 1.0)], Relation::Le, 9.0);
        let s = solve(&p).unwrap();
        assert_close(s.value(x), 9.0);
    }

    #[test]
    fn no_constraints_bound_minimisation() {
        let mut p = Problem::new();
        let x = p.add_var("x", -2.0, 5.0, 1.0);
        let y = p.add_var("y", -2.0, 5.0, -1.0);
        let z = p.add_var("z", -2.0, 5.0, 0.0);
        let s = solve(&p).unwrap();
        assert_close(s.value(x), -2.0);
        assert_close(s.value(y), 5.0);
        assert!(s.value(z) >= -2.0 && s.value(z) <= 5.0);
    }

    #[test]
    fn no_constraints_unbounded() {
        let mut p = Problem::new();
        let _ = p.add_free_var("x", 1.0);
        assert_eq!(solve(&p).unwrap_err(), SolveError::Unbounded);
    }

    #[test]
    fn degenerate_beale_terminates() {
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
        let s = solve(&p).unwrap();
        assert!(p.is_feasible(&s.values, 1e-6));
        assert_close(s.objective, -0.05);
    }

    #[test]
    fn redundant_equalities_handled() {
        let mut p = Problem::new();
        let x = p.add_nonneg_var("x", 1.0);
        let y = p.add_nonneg_var("y", 2.0);
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Eq, 2.0);
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Eq, 2.0);
        let s = solve(&p).unwrap();
        assert_close(s.value(x), 2.0);
        assert_close(s.value(y), 0.0);
    }

    #[test]
    fn duplicate_terms_are_summed() {
        let mut p = Problem::new();
        let x = p.add_nonneg_var("x", 1.0);
        p.add_constraint(vec![(x, 1.0), (x, 1.0)], Relation::Ge, 4.0);
        let s = solve(&p).unwrap();
        assert_close(s.value(x), 2.0);
    }

    #[test]
    fn negative_rhs_rows() {
        let mut p = Problem::new();
        let x = p.add_nonneg_var("x", 1.0);
        p.add_constraint(vec![(x, -1.0)], Relation::Le, -3.0);
        let s = solve(&p).unwrap();
        assert_close(s.value(x), 3.0);
    }

    #[test]
    fn fixed_variables_are_respected() {
        // l == u pins the variable without ever letting it enter the basis.
        let mut p = Problem::new();
        let x = p.add_var("x", 2.0, 2.0, 1.0);
        let y = p.add_nonneg_var("y", 1.0);
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Ge, 5.0);
        let s = solve(&p).unwrap();
        assert_close(s.value(x), 2.0);
        assert_close(s.value(y), 3.0);
    }

    #[test]
    fn many_pivots_trigger_refactorisation() {
        // A chain of coupled rows long enough to push the Forrest–Tomlin
        // update count past the refactorisation interval.
        let p = chain_problem(150);
        let s = solve(&p).unwrap();
        assert!(p.is_feasible(&s.values, 1e-5));
    }

    #[test]
    fn refactorisation_cadence_is_per_pivot_not_per_file_length() {
        // The reinversion trigger counts Forrest–Tomlin updates *since* the
        // last rebuild, never anything that scales with the row count: on a
        // problem with more rows than REFACTOR_INTERVAL a size-based trigger
        // would refactorise on every pivot and degrade the solver to a full
        // factorisation per pivot. Locked by counters: refactorisations
        // must stay well below the pivot count.
        trace::reset();
        let p = chain_problem(150);
        let _ = solve(&p).unwrap();
        let pivots = trace::counter("lp.pivots");
        let refactors = trace::counter("lp.refactorisations");
        assert!(
            refactors <= 2 + pivots / (REFACTOR_INTERVAL as u64 / 2),
            "refactorising too often: {refactors} reinversions for {pivots} pivots"
        );
        trace::reset();
    }

    /// 30 dense `<=` rows with coefficients in `-(span/2)..=span/2` over 40
    /// non-negative, positively priced variables: `x = 0` is optimal.
    fn dense_random_problem(seed: u64, span: u64) -> Problem {
        let mut p = Problem::new();
        let vars: Vec<_> = (0..40)
            .map(|i| p.add_nonneg_var(format!("x{i}"), ((i * 7 + 3) % 11) as f64 / 7.0 + 0.1))
            .collect();
        let mut state = seed;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % span) as f64 - (span / 2) as f64
        };
        for _ in 0..30 {
            let terms: Vec<_> = vars.iter().map(|&v| (v, next())).collect();
            let lhs_at_ones: f64 = terms.iter().map(|(_, a)| *a).sum();
            p.add_constraint(terms, Relation::Le, lhs_at_ones.abs() + 5.0);
        }
        p
    }

    #[test]
    fn moderately_sized_random_feasible_problem() {
        let p = dense_random_problem(0x9e3779b97f4a7c15, 7);
        let s = solve(&p).unwrap();
        assert!(p.is_feasible(&s.values, 1e-5));
        assert!(s.objective.abs() < 1e-6);
    }

    /// Named for the two pricing rules it once compared; it is the suite's
    /// second dense random instance (wider coefficients, another seed).
    #[test]
    fn both_rules_solve_the_random_problem_feasibly() {
        let p = dense_random_problem(0xdeadbeef12345678, 9);
        let s = solve(&p).unwrap();
        assert!(p.is_feasible(&s.values, 1e-5));
        assert!(s.objective.abs() < 1e-6);
    }

    #[test]
    fn devex_folds_pricing_btrans_into_the_weight_update() {
        // A problem big enough to take several pivots: every iteration
        // after the first prices from the incrementally maintained reduced
        // costs, so the batched-BTRAN counter must fire.
        let mut p = Problem::new();
        let vars: Vec<_> = (0..12)
            .map(|i| p.add_var(format!("x{i}"), 0.0, 10.0, -(1.0 + (i % 5) as f64)))
            .collect();
        for r in 0..8 {
            let terms: Vec<_> = vars
                .iter()
                .enumerate()
                .filter(|(i, _)| (i + r) % 3 != 0)
                .map(|(i, &v)| (v, 1.0 + ((i * 7 + r * 3) % 4) as f64))
                .collect();
            p.add_constraint(terms, Relation::Le, 30.0 + 2.0 * r as f64);
        }

        trace::reset();
        solve(&p).unwrap();
        let batched = trace::counter("lp.devex.batched_btran");
        let pivots = trace::counter("lp.pivots");
        trace::reset();
        assert!(pivots > 2, "workload too small to exercise pricing");
        assert!(
            batched > 0,
            "Devex never priced from the maintained reduced costs"
        );
    }

    #[test]
    fn lu_kernel_emits_ft_updates_and_sparse_ftrans() {
        trace::reset();
        let p = chain_problem(150);
        let s = solve(&p).unwrap();
        assert!(p.is_feasible(&s.values, 1e-5));
        assert!(
            trace::counter("lp.ft_updates") > 0,
            "no FT updates recorded"
        );
        assert!(
            trace::counter("lp.factor.nnz") > 0,
            "no factor nnz recorded"
        );
        assert!(
            trace::counter("lp.ftran.sparse") > 0,
            "chain FTRANs should stay hypersparse"
        );
        trace::reset();
    }

    #[test]
    fn driving_out_artificials_ftrans_only_the_chosen_columns() {
        // Row 0 seats x0; rows 1..=K hold x0 (taken) and a coefficient too
        // small for the crash, so each gets a zero-valued artificial that
        // only its own x_i can replace. The decoy columns — lower-indexed,
        // nonbasic, in a row of their own — are what a scan that FTRANs
        // every nonbasic column until one fits would pay for, K times over.
        const DECOYS: usize = 12;
        const K: usize = 6;
        let mut p = Problem::new();
        let decoys: Vec<_> = (0..DECOYS).map(|_| p.add_free_var("", 0.0)).collect();
        let x0 = p.add_free_var("", 0.0);
        let xs: Vec<_> = (0..K).map(|_| p.add_free_var("", 0.0)).collect();
        p.add_constraint(vec![(x0, 1.0)], Relation::Eq, 0.0);
        for &x in &xs {
            p.add_constraint(vec![(x0, 1.0), (x, 0.05)], Relation::Eq, 0.0);
        }
        p.add_constraint(
            decoys.iter().map(|&d| (d, 1.0)).collect(),
            Relation::Eq,
            0.0,
        );

        let mut solver = cold_start(standard_form(&p));
        assert!(solver.refactorize());
        let basic_artificials = |s: &Revised| s.basis.iter().filter(|&&j| j >= s.art0).count();
        assert_eq!(basic_artificials(&solver), K, "crash shape");
        let ftrans = || trace::counter("lp.ftran.sparse") + trace::counter("lp.ftran.dense");
        let before = ftrans();
        solver.drive_out_artificials();
        let driven_out = K - basic_artificials(&solver);
        assert_eq!(driven_out, K, "every artificial is replaceable");
        assert!(
            ftrans() - before <= 2 * driven_out as u64,
            "{} FTRANs for {driven_out} artificials",
            ftrans() - before
        );
    }

    #[test]
    fn a_column_entering_from_inside_its_box_stops_on_its_bound() {
        // x starts at 0, strictly inside [-1, 3], and prices in upwards: it
        // is 3 from the bound it moves towards, not `upper − lower = 4`. A
        // flip by the box width would carry the basic z one unit too far
        // (z = 1, x + z = 4).
        let mut p = Problem::new();
        let x = p.add_var("x", -1.0, 3.0, -1.0);
        let z = p.add_free_var("z", 0.0);
        p.add_constraint(vec![(x, 1.0), (z, 1.0)], Relation::Eq, 5.0);
        let s = solve(&p).unwrap();
        assert_close(s.value(x), 3.0);
        assert_close(s.value(z), 2.0);
        assert!(p.is_feasible(&s.values, 1e-9));

        // Downwards from the inside, against a blocking row this time: y
        // leaves [−4, 2]'s interior for −4 unless the slack stops it first.
        let mut p = Problem::new();
        let y = p.add_var("y", -4.0, 2.0, 1.0);
        p.add_constraint(vec![(y, 1.0)], Relation::Ge, -2.5);
        let s = solve(&p).unwrap();
        assert_close(s.value(y), -2.5);
        let mut p = Problem::new();
        let y = p.add_var("y", -4.0, 2.0, 1.0);
        p.add_constraint(vec![(y, 1.0)], Relation::Ge, -9.0);
        let s = solve(&p).unwrap();
        assert_close(s.value(y), -4.0);
    }

    /// The dual of `min |x0 − x1| + |x0 − 3| + |x2 − x3| + |x2|`, as
    /// `L1Problem` poses it: a boxed column per term, a row per unknown,
    /// feasible at the origin.
    fn two_component_dual() -> (Problem, crate::L1Problem) {
        let mut hard = Problem::new();
        let x: Vec<_> = (0..4).map(|_| hard.add_free_var("", 0.0)).collect();
        let mut l1 = crate::L1Problem::new(hard);
        let terms = [
            (vec![(x[0], 1.0), (x[1], -1.0)], 0.0),
            (vec![(x[0], 1.0)], -3.0),
            (vec![(x[2], 1.0), (x[3], -1.0)], 0.0),
            (vec![(x[2], 1.0)], 0.0),
        ];
        let mut dual = Problem::new();
        let mut rows = vec![Vec::new(); 4];
        for (coeffs, constant) in terms {
            let y = dual.add_var("", -1.0, 1.0, -constant);
            for &(v, a) in &coeffs {
                rows[v.0].push((y, a));
            }
            l1.add_abs_term(1.0, coeffs, constant);
        }
        for row in rows {
            dual.add_constraint(row, Relation::Eq, 0.0);
        }
        (dual, l1)
    }

    #[test]
    fn a_solve_feasible_at_the_origin_runs_no_phase_1_and_keeps_zero_artificials() {
        let (dual, l1) = two_component_dual();
        let phase1_before = trace::counter("lp.phase1_pivots");
        let (solution, solver) = optimise(standard_form(&dual)).unwrap();
        assert_eq!(trace::counter("lp.phase1_pivots"), phase1_before);
        let mut solver = solver.expect("the dual has rows");
        // Rows 1 and 3 crash onto artificials (their one column sits in a
        // row crashed before them). The objective moves row 1 — its
        // artificial is evicted — and never touches rows 2 and 3: that
        // artificial is still basic, at zero, and the row's dual is zero.
        let basic_artificials: Vec<usize> = (0..solver.m)
            .filter(|&r| solver.basis[r] >= solver.art0)
            .collect();
        assert_eq!(basic_artificials, [3]);
        assert_eq!(solver.x[solver.basis[3]], 0.0);
        assert_close(solution.objective, 0.0);

        // The row duals are the L1 problem's unknowns: the surrogate
        // expansion (infeasible at its origin, so phase 1 and all) agrees.
        let duals = solver.row_duals();
        let primal = l1.to_primal().solve().unwrap();
        for (r, want) in [3.0, 3.0, 0.0, 0.0].into_iter().enumerate() {
            assert_close(duals[r], want);
            assert_close(primal.values[r], want);
        }
    }

    #[test]
    fn the_dual_written_column_by_column_is_the_row_wise_dual_transposed() {
        fn bits(v: &[f64]) -> Vec<u64> {
            v.iter().map(|x| x.to_bits()).collect()
        }
        fn assert_same(direct: &Standard, row_wise: &Standard) {
            let cols = |sf: &Standard| {
                let col = |j| (sf.csc.col(j).0.to_vec(), bits(sf.csc.col(j).1));
                (0..sf.csc.ncols()).map(col).collect::<Vec<_>>()
            };
            assert_eq!(cols(direct), cols(row_wise));
            assert_eq!((direct.csc.m(), direct.n), (row_wise.csc.m(), row_wise.n));
            let lists =
                |sf: &Standard| [&sf.b, &sf.row_scale, &sf.lower, &sf.upper].map(|v| bits(v));
            assert_eq!(lists(direct), lists(row_wise));
            // By value: a hand-written `−0` constant may differ in its sign.
            assert_eq!(direct.cost, row_wise.cost);
        }
        let (dual, l1) = two_component_dual();
        assert_same(&l1.pose_dual().unwrap().0, &standard_form(&dual));

        // One block of the benchmark's `stage_chain-8`, with the standard
        // form the retired route — presolved `Problem`, row-wise dual
        // `Problem`, a `Vec` per column — built for it.
        type Form = &'static [(usize, u64)];
        #[allow(clippy::type_complexity)]
        let (unknowns, equalities, terms, m, columns, scales): (
            usize,
            &[(u64, Form)],
            &[(u64, u64, Form)],
            usize,
            &[([u64; 3], Form)],
            &[u64],
        ) = include!("../testdata/stage_chain8_block.in");
        let number = f64::from_bits;
        let form = |form: Form| form.iter().map(|&(v, a)| (crate::VarId(v), number(a)));
        let mut l1 = crate::L1Problem::with_unknowns(unknowns);
        for &(rhs, row) in equalities {
            l1.add_equality(&form(row).collect::<Vec<_>>(), number(rhs));
        }
        for &(weight, constant, term) in terms {
            l1.add_abs_term(number(weight), form(term), number(constant));
        }
        let column = |(_, col): &(_, Form)| col.iter().map(|&(i, a)| (i, number(a))).collect();
        let cols: Vec<Vec<(usize, f64)>> = columns.iter().map(column).collect();
        let heads = |k: usize| columns.iter().map(|(head, _)| number(head[k])).collect();
        let captured = Standard {
            n: cols.len(),
            csc: CscMatrix::from_cols(m, &cols),
            b: vec![0.0; m],
            row_scale: scales.iter().map(|&s| number(s)).collect(),
            lower: heads(0),
            upper: heads(1),
            cost: heads(2),
        };
        assert_eq!((l1.num_terms(), captured.n, m), (94, 97, 24));
        let direct = l1.pose_dual().unwrap().0;
        assert_same(&direct, &captured);
        assert_eq!(bits(&direct.cost), bits(&captured.cost));
    }

    #[test]
    fn a_solve_infeasible_at_the_origin_runs_phase_1_and_the_drive_out() {
        // The crash seats x0 = 1 on row 0. Rows 1..=K then hold a zero
        // artificial that phase 1 has no reason to move (x_i prices in the
        // wrong direction from its lower bound) and only the drive-out
        // replaces; the last row's free coefficient is too small for the
        // crash, so its artificial starts at 2 and phase 1 has to run.
        const K: usize = 6;
        let mut p = Problem::new();
        let x0 = p.add_nonneg_var("", 1.0);
        let xs: Vec<_> = (0..K).map(|_| p.add_nonneg_var("", 0.0)).collect();
        let w = p.add_nonneg_var("", 0.0);
        p.add_constraint(vec![(x0, 1.0)], Relation::Eq, 1.0);
        for &x in &xs {
            p.add_constraint(vec![(x0, 1.0), (x, -0.05)], Relation::Eq, 1.0);
        }
        p.add_constraint(vec![(x0, 1.0), (w, 0.05)], Relation::Eq, 3.0);
        let counters = ["lp.pivots", "lp.phase1_pivots"];
        let before = counters.map(trace::counter);
        let (solution, solver) = optimise(standard_form(&p)).unwrap();
        let after = counters.map(trace::counter);
        let solver = solver.expect("the problem has rows");
        assert_close(solution.objective, 1.0);
        assert!(p.is_feasible(&solution.values, 1e-7));
        // Pinned on the commit before the origin start: the same pivots,
        // and no artificial left basic.
        assert_eq!([after[0] - before[0], after[1] - before[1]], [1, 1]);
        assert!(solver.basis.iter().all(|&j| j < solver.art0));

        // And a longer walk from an infeasible origin, pinned the same way:
        // no row's residual fits the one column the crash would accept.
        let mut p = Problem::new();
        let u: Vec<_> = (0..21)
            .map(|i| p.add_nonneg_var("", 1.0 + (i % 3) as f64))
            .collect();
        for i in 0..20 {
            let x = p.add_var("", 0.0, 0.5, 0.0);
            let row = vec![(x, 1.0), (u[i], 0.05), (u[i + 1], 0.05)];
            p.add_constraint(row, Relation::Eq, 1.0 + i as f64);
        }
        let before = counters.map(trace::counter);
        let solution = solve(&p).unwrap();
        let after = counters.map(trace::counter);
        assert!(p.is_feasible(&solution.values, 1e-7));
        assert_eq!([after[0] - before[0], after[1] - before[1]], [44, 40]);
    }

    #[test]
    fn kernel_bench_parks_on_the_optimal_basis() {
        // 30 coupled rows: big enough that the parked basis holds
        // structural columns, small enough to solve instantly.
        let p = chain_problem(31);
        let mut kb = KernelBench::prepare(&p, Kernel::default()).expect("problem has an optimum");
        assert_eq!(kb.rows(), p.num_constraints());
        assert!(kb.refactor());
        let first = kb.sweeps(100);
        assert!(first.is_finite());
        assert_eq!(first.to_bits(), kb.sweeps(100).to_bits());
    }
}
