//! Bounded-variable revised simplex with a sparse LU basis kernel.
//!
//! This is the production solver behind [`Problem::solve`]. It differs from
//! the dense tableau implementation in [`crate::simplex`] (kept as a
//! differential-testing oracle behind [`Problem::solve_tableau`]) in three
//! structural ways:
//!
//! * **No tableau.** The basis inverse is never materialised. The default
//!   [`Kernel::SparseLu`] keeps a sparse LU factorisation of the basis
//!   (Markowitz-style ordering with threshold partial pivoting — see the
//!   private `factor` module) over the once-built CSC constraint matrix, applies
//!   a Forrest–Tomlin update per pivot, and solves hypersparse
//!   FTRAN/BTRAN against `(index, value)` right-hand sides so work scales
//!   with the support of the vector rather than with `m`. The historical
//!   product-form eta file is retained verbatim as [`Kernel::EtaFile`] for
//!   A/B plan-identity locks and experiments. Either way the kernel is
//!   rebuilt from the sparse columns once `REFACTOR_INTERVAL` pivots have
//!   accumulated on top of the last reinversion, so rounding error cannot
//!   accumulate across an unbounded pivot sequence the way it does in a
//!   tableau.
//! * **Bounded variables stay implicit.** A finite upper bound is handled
//!   by the ratio test (a nonbasic variable can sit at *either* bound and a
//!   pivot can be a pure *bound flip*), so box constraints on offsets no
//!   longer inflate the constraint matrix with explicit `x <= u` rows —
//!   exactly the rows that made the mobile-offset tableaux large and
//!   degenerate. Free variables are priced in both directions instead of
//!   being split into differences of non-negatives.
//! * **Pricing is pluggable and anti-cycling is positional.** The entering
//!   column is chosen by a [`PricingRule`]: Devex reference-framework
//!   pricing (the default — reduced cost normalised by an iteratively
//!   maintained estimate of the column's steepest-edge norm, which cuts
//!   pivot counts sharply on the degenerate alignment LPs) or classic
//!   Dantzig pricing (most negative reduced cost, kept as the simple
//!   fallback). The Devex weight update is sparse: candidate columns are
//!   discovered through a CSR row index restricted to the pivot row
//!   vector's support. Either rule switches to Bland's rule — smallest
//!   eligible column entering, smallest basis column leaving — after a run
//!   of degenerate pivots, and switches back after the first pivot that
//!   moves the objective. Bland makes termination *finite*; because finite
//!   is not fast on the extremely degenerate alignment LPs, an
//!   objective-stall cutoff (like the tableau's, but reporting `Stalled`
//!   so phase 1 can never turn a stall into a spurious Infeasible) bounds
//!   the pivot count in practice.
//!
//! Phase 1 starts from a crash basis (slack / structural columns where the
//! start residuals allow, signed artificials for the rest) and minimises
//! the artificial sum; phase 2 fixes the artificials to zero and minimises
//! the user objective over the surviving basis. A solve can also start from
//! the final basis of a previous solve over the *same* rows and columns
//! ([`solve_with_start`]): branch-and-bound children differ from their
//! parent only in one variable's bounds, so resuming from the parent's
//! factorised basis — the snapshot carries the parent's LU factorisation,
//! which the child installs without refactorising — usually skips phase 1
//! entirely.

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
/// Refactorise after this many *pivot* updates accumulate on top of the
/// last reinversion. (For the eta kernel the reinversion itself contributes
/// one eta per basis column, so the trigger counts etas *since* the rebuild
/// — comparing the raw file length against a constant would refactorise on
/// every pivot once `m` exceeds the interval, which is exactly the
/// `O(m)`-per-pivot slowdown PR 8 removed. The LU kernel counts
/// Forrest–Tomlin updates directly.)
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

/// How the simplex selects the entering column. Configured per problem via
/// [`Problem::set_pricing`]; the default is [`PricingRule::Devex`].
///
/// Both rules find an optimal vertex; they differ only in how many pivots
/// the journey takes. Devex prices a column by `c̄²/w` where `w` estimates
/// the steepest-edge norm `‖B⁻¹aⱼ‖²`, which on the degenerate alignment
/// LPs avoids the long ties Dantzig wanders through.
///
/// ```
/// use lp::{PricingRule, Problem, Relation};
/// let mut p = Problem::new();
/// let x = p.add_nonneg_var("x", 2.0);
/// let y = p.add_nonneg_var("y", 3.0);
/// p.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Ge, 4.0);
/// let devex = p.solve().unwrap(); // Devex is the default rule
/// p.set_pricing(PricingRule::Dantzig); // classic rule kept as fallback
/// let dantzig = p.solve().unwrap();
/// assert!((devex.objective - dantzig.objective).abs() < 1e-9);
/// assert_eq!(p.pricing(), PricingRule::Dantzig);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PricingRule {
    /// Devex reference-framework pricing (Forrest–Goldfarb): reduced cost
    /// squared over an iteratively updated weight. The default.
    #[default]
    Devex,
    /// Classic Dantzig pricing: most negative reduced cost, ties by
    /// magnitude.
    Dantzig,
}

/// Which basis-inverse representation the revised simplex maintains.
/// Configured per problem via [`Problem::set_kernel`]; the default is
/// [`Kernel::SparseLu`].
///
/// Both kernels implement the same FTRAN/BTRAN contract and are driven by
/// the identical pivoting loop, so they visit the same vertices up to
/// floating-point rounding; the A/B lock in the `phases` test-suite holds
/// them to bitwise-identical *plans*. They differ in cost per pivot: the
/// eta file pays a dense `O(m · etas)` sweep, the LU kernel works on the
/// right-hand side's support.
///
/// ```
/// use lp::{Kernel, Problem, Relation};
/// let mut p = Problem::new();
/// let x = p.add_nonneg_var("x", 2.0);
/// p.add_constraint(vec![(x, 1.0)], Relation::Ge, 4.0);
/// let sparse = p.solve().unwrap(); // sparse LU is the default kernel
/// p.set_kernel(Kernel::EtaFile); // historical kernel kept for A/B locks
/// let eta = p.solve().unwrap();
/// assert!((sparse.objective - eta.objective).abs() < 1e-9);
/// assert_eq!(p.kernel(), Kernel::EtaFile);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Kernel {
    /// Sparse LU factorisation with Forrest–Tomlin updates and hypersparse
    /// FTRAN/BTRAN. The default.
    #[default]
    SparseLu,
    /// The historical product-form eta file over a ±1 start diagonal,
    /// rebuilt from scratch at every reinversion. Kept for plan-identity
    /// A/B comparisons and the e24 experiment.
    EtaFile,
}

/// The final basis of a solve, reusable as the starting point of another
/// solve over the same constraint rows and variables
/// ([`solve_with_start`]). Opaque: rows are encoded structurally (a
/// structural/slack column index, or "this row's artificial") so the
/// snapshot is valid for any problem with identical shape — in particular
/// a branch-and-bound child whose only difference is a tightened bound.
/// When the solve ran on the LU kernel the snapshot also carries the final
/// factorisation, which a warm-started child installs directly instead of
/// refactorising the very basis its parent just factorised.
#[derive(Debug, Clone)]
pub struct BasisSnapshot {
    /// Rows of the snapshot's problem.
    m: usize,
    /// Structural + slack column count (artificials start here).
    art0: usize,
    /// Basic column per row: `>= 0` is a structural/slack column index,
    /// `-1` means the row's own artificial.
    rows: Vec<i64>,
    /// Values of every structural and slack column at the final vertex.
    x: Vec<f64>,
    /// ±1 seed diagonal (artificial signs) of the factorisation.
    sign: Vec<f64>,
    /// The LU factorisation of the final basis (LU kernel only).
    lu: Option<LuFactor>,
}

/// One product-form update: `B_new = B_old · E` where `E` is the identity
/// with column `row` replaced by `d = B_old⁻¹ a_entering`.
struct Eta {
    row: usize,
    /// Nonzero entries of `d` (sparse: degenerate alignment columns touch
    /// few rows).
    d: Vec<(usize, f64)>,
    /// `d[row]`, kept separately because every solve divides by it.
    pivot: f64,
}

/// The historical kernel: an eta file over the ±1 start diagonal. Kept
/// bit-for-bit compatible with the pre-LU solver so [`Kernel::EtaFile`]
/// runs reproduce the committed plans exactly.
struct EtaFile {
    /// Eta file since the last refactorisation.
    etas: Vec<Eta>,
    /// Eta-file length at which the next reinversion fires (the last
    /// rebuild's length plus [`REFACTOR_INTERVAL`]).
    next_refactor: usize,
}

impl EtaFile {
    /// `B⁻¹ v` in place (dense).
    fn ftran_dense(&self, sign: &[f64], v: &mut [f64]) {
        for (vi, s) in v.iter_mut().zip(sign) {
            *vi *= s;
        }
        for eta in &self.etas {
            let vr = v[eta.row] / eta.pivot;
            if vr == 0.0 {
                continue;
            }
            for &(i, di) in &eta.d {
                v[i] -= di * vr;
            }
            v[eta.row] = vr;
        }
    }

    /// `B⁻ᵀ c` in place (dense).
    fn btran_dense(&self, sign: &[f64], c: &mut [f64]) {
        for eta in self.etas.iter().rev() {
            let mut dot = 0.0;
            for &(i, di) in &eta.d {
                dot += di * c[i];
            }
            c[eta.row] = (c[eta.row] - dot) / eta.pivot;
        }
        for (ci, s) in c.iter_mut().zip(sign) {
            *ci *= s;
        }
    }

    /// Append the eta for a pivot on `row` with direction vector `d`
    /// (`d = B⁻¹ a_entering`, already computed by the caller).
    fn push_eta(&mut self, row: usize, d: &[f64]) {
        let pivot = d[row];
        debug_assert!(pivot.abs() > EPS, "pivot element too small");
        let sparse: Vec<(usize, f64)> = d
            .iter()
            .enumerate()
            .filter(|&(i, &di)| i != row && di != 0.0)
            .map(|(i, &di)| (i, di))
            .collect();
        self.etas.push(Eta {
            row,
            d: sparse,
            pivot,
        });
    }

    /// Rebuild the eta file from the current basis columns (reinversion).
    /// The basis-to-row assignment may be permuted for stability. Returns
    /// `false` (old file restored, basis untouched) if the basis has become
    /// numerically singular.
    fn refactorize(&mut self, csc: &CscMatrix, sign: &[f64], basis: &mut [usize]) -> bool {
        let m = csc.m();
        let old_etas = std::mem::take(&mut self.etas);
        let mut row_taken = vec![false; m];
        let mut new_basis = vec![usize::MAX; m];
        // Unit (slack/artificial) columns first: they keep the file sparse.
        let mut order: Vec<usize> = basis.to_vec();
        order.sort_by_key(|&j| (csc.col_nnz(j), j));
        for j in order {
            let mut d = vec![0.0; m];
            let (rows, vals) = csc.col(j);
            for (&i, &a) in rows.iter().zip(vals) {
                d[i] = a;
            }
            self.ftran_dense(sign, &mut d);
            let mut best: Option<usize> = None;
            for (i, taken) in row_taken.iter().enumerate() {
                if !taken && d[i].abs() > PIVOT_TOL {
                    let better = best.is_none_or(|b| d[i].abs() > d[b].abs());
                    if better {
                        best = Some(i);
                    }
                }
            }
            let Some(r) = best else {
                self.etas = old_etas;
                return false;
            };
            self.push_eta(r, &d);
            row_taken[r] = true;
            new_basis[r] = j;
        }
        basis.copy_from_slice(&new_basis);
        self.next_refactor = self.etas.len() + REFACTOR_INTERVAL;
        true
    }
}

/// The live basis-inverse representation behind [`Kernel`].
// One of these exists per solver and every FTRAN/BTRAN goes through the
// match; the size asymmetry (the LU variant carries its workspaces inline)
// is not worth a Box's pointer chase on that path.
#[allow(clippy::large_enum_variant)]
enum FactorKernel {
    Lu(LuFactor),
    Eta(EtaFile),
}

/// The solver working state over the standard-form columns
/// (structural | slack | artificial).
struct Revised {
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
    /// Sign of the artificial start basis (`B₀ = diag(sign)`; the LU
    /// kernel reads the signs through the artificial columns instead).
    sign: Vec<f64>,
    factor: FactorKernel,
    /// First artificial column index.
    art0: usize,
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
    #[allow(clippy::too_many_arguments)]
    fn assemble(
        m: usize,
        cols: Vec<Vec<(usize, f64)>>,
        b: Vec<f64>,
        row_scale: Vec<f64>,
        lower: Vec<f64>,
        upper: Vec<f64>,
        x: Vec<f64>,
        basis: Vec<usize>,
        in_basis: Vec<bool>,
        sign: Vec<f64>,
        art0: usize,
        kernel: Kernel,
    ) -> Revised {
        let _span = trace::span("lp.assemble");
        let csc = CscMatrix::from_cols(m, &cols);
        let csr = CsrIndex::build(&csc, art0);
        let factor = match kernel {
            Kernel::SparseLu => FactorKernel::Lu(LuFactor::new(m)),
            Kernel::EtaFile => FactorKernel::Eta(EtaFile {
                etas: Vec::new(),
                next_refactor: 0,
            }),
        };
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
            sign,
            factor,
            art0,
        }
    }

    /// `out = B⁻¹ a_j` (slot-indexed; support sorted ascending). On the LU
    /// kernel this also caches the Forrest–Tomlin spike, so the FTRAN of
    /// the entering column must immediately precede [`Self::apply_pivot`].
    fn ftran_col(&mut self, j: usize, out: &mut IndexedVec) {
        let _span = trace::span("lp.ftran");
        match &mut self.factor {
            FactorKernel::Lu(f) => f.ftran_col(&self.csc, j, out),
            FactorKernel::Eta(f) => {
                out.reset_dense();
                let v = out.values_mut();
                let (rows, vals) = self.csc.col(j);
                for (&i, &a) in rows.iter().zip(vals) {
                    v[i] = a;
                }
                f.ftran_dense(&self.sign, v);
                trace::count("lp.ftran.dense", 1);
            }
        }
    }

    /// Dense pricing BTRAN: `y = B⁻ᵀ cb` where `cb[i]` is the cost of the
    /// column basic in slot `i`.
    fn btran_costs(&mut self, cb: &[f64], y: &mut [f64]) {
        let _span = trace::span("lp.btran");
        match &mut self.factor {
            FactorKernel::Lu(f) => f.btran_costs(cb, y),
            FactorKernel::Eta(f) => {
                y.copy_from_slice(cb);
                f.btran_dense(&self.sign, y);
            }
        }
    }

    /// Sparse `rho = B⁻ᵀ e_r` (the pivot row of the inverse), used by the
    /// Devex weight update.
    fn btran_unit(&mut self, r: usize, rho: &mut IndexedVec) {
        let _span = trace::span("lp.btran");
        match &mut self.factor {
            FactorKernel::Lu(f) => f.btran_unit(r, rho),
            FactorKernel::Eta(f) => {
                rho.reset_dense();
                let v = rho.values_mut();
                v[r] = 1.0;
                f.btran_dense(&self.sign, v);
            }
        }
    }

    /// Has the kernel accumulated enough pivot updates to warrant a
    /// reinversion?
    fn needs_refactor(&self) -> bool {
        match &self.factor {
            FactorKernel::Lu(f) => f.updates() >= REFACTOR_INTERVAL,
            FactorKernel::Eta(f) => f.etas.len() >= f.next_refactor,
        }
    }

    /// Absorb the pivot on slot `r` into the kernel: a Forrest–Tomlin
    /// update (LU) or an appended eta (eta file). The caller has already
    /// updated `basis`/`x`; `d` is the entering column's FTRAN. A `false`
    /// return means the update was rejected (too small a new diagonal) and
    /// the caller must refactorise.
    fn apply_pivot(&mut self, r: usize, d: &IndexedVec) -> bool {
        match &mut self.factor {
            FactorKernel::Lu(f) => f.update(r),
            FactorKernel::Eta(f) => {
                f.push_eta(r, d.values());
                true
            }
        }
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
        match &mut self.factor {
            FactorKernel::Eta(f) => {
                f.ftran_dense(&self.sign, &mut r);
                for (i, &bi) in self.basis.iter().enumerate() {
                    self.x[bi] = r[i];
                }
            }
            FactorKernel::Lu(f) => {
                let mut out = vec![0.0; self.m];
                f.solve_dense(&mut r, &mut out);
                for (i, &bi) in self.basis.iter().enumerate() {
                    self.x[bi] = out[i];
                }
            }
        }
    }

    /// Rebuild the kernel from the current basis columns (reinversion).
    /// Returns `false` if the basis has become numerically singular (every
    /// basis reached by exact pivots is nonsingular, so this only flags
    /// accumulated rounding damage; the caller gives up and lets the model
    /// layer fall back to the tableau oracle).
    fn refactorize(&mut self) -> bool {
        trace::count("lp.refactorisations", 1);
        let _span = trace::span("lp.factor");
        let ok = match &mut self.factor {
            FactorKernel::Lu(f) => f.factor(&self.csc, &self.basis),
            FactorKernel::Eta(f) => f.refactorize(&self.csc, &self.sign, &mut self.basis),
        };
        if !ok {
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
    fn run(
        &mut self,
        cost: &[f64],
        max_iters: usize,
        stall_patience: usize,
        rule: PricingRule,
    ) -> RunResult {
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
        // Per-run workspaces, reused across pivots (the historical kernel
        // allocated fresh dense vectors on every iteration).
        let mut cb = vec![0.0f64; self.m];
        let mut y = vec![0.0f64; self.m];
        let mut d = IndexedVec::new(self.m);
        let mut rho = IndexedVec::new(self.m);
        let mut cand: Vec<usize> = Vec::new();
        let mut cand_mark = vec![false; self.art0];
        // Reduced costs of the structural/slack columns. Under Devex they
        // are maintained *incrementally* across pivots — the dual step is
        // read off the same pivot-row BTRAN the weight update already
        // performs — so the dense pricing BTRAN only runs on the first
        // iteration, after a reinversion, under Bland's rule, and to
        // confirm optimality. Dantzig keeps the historical dense sweep.
        let incremental = rule == PricingRule::Devex;
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
            if self.needs_refactor() {
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
            // reduced costs are still fresh (Devex); Bland's rule always
            // re-derives them densely — its anti-cycling guarantee rests on
            // exact reduced-cost signs.
            let densely_priced =
                !incremental || use_bland || !cbar_fresh || cbar_age >= CBAR_REFRESH;
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
            let mut best_mag = PRICE_TOL;
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
                    match rule {
                        PricingRule::Dantzig => {
                            if cbar.abs() > best_mag {
                                best_mag = cbar.abs();
                                entering = Some((j, decrease));
                            }
                        }
                        PricingRule::Devex => {
                            let score = cbar * cbar / weights[j];
                            if score > best_score {
                                best_score = score;
                                entering = Some((j, decrease));
                            }
                        }
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
            // variable's own bound-to-bound distance (bound flip). The
            // support is sorted, so the scan visits rows in the same
            // ascending order as the historical dense sweep.
            self.ftran_col(q, &mut d);
            let own_range = self.upper[q] - self.lower[q]; // may be +inf
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
                // Entering variable runs to its opposite bound before any
                // basic variable blocks: a bound flip, no basis change.
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
                    let _devex_span =
                        (rule == PricingRule::Devex).then(|| trace::span("lp.devex.update"));
                    if rule == PricingRule::Devex {
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
                    }
                    drop(_devex_span);
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
                    if !self.apply_pivot(r, &d) {
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

    /// Dual-simplex repair: from a **dual-feasible** basis whose basic
    /// values violate their (tightened) bounds, drive the most-infeasible
    /// basic variable to its violated bound each iteration, choosing the
    /// entering column by the dual ratio test so the reduced-cost signs —
    /// and with them dual feasibility — are preserved. A branch-and-bound
    /// child differs from its parent only by a flipped/tightened bound, so
    /// the parent's optimal basis is dual-feasible for the child and this
    /// repair replaces phase 1 entirely.
    ///
    /// Returns `true` when the basis is primal-feasible on exit (the
    /// subsequent primal run then confirms optimality, usually in zero
    /// pivots). Returns `false` — leaving the solver in an unspecified
    /// state the caller must discard — when the start basis is not dual
    /// feasible (e.g. the objective changed between solves), no eligible
    /// entering column exists (the child is likely infeasible, but the
    /// primal path is left to certify that), numerics degrade, or the
    /// iteration budget runs out.
    fn dual_run(&mut self, cost: &[f64], max_iters: usize) -> bool {
        let feas_tol = 1e-7;
        let dual_tol = 1e-7 * (1.0 + cost.iter().fold(0.0f64, |a, &c| a.max(c.abs())));
        let mut cb = vec![0.0f64; self.m];
        let mut y = vec![0.0f64; self.m];
        let mut d = IndexedVec::new(self.m);
        let mut rho = IndexedVec::new(self.m);
        let mut cand: Vec<usize> = Vec::new();
        let mut cand_mark = vec![false; self.art0];
        // Row alphas of every touched nonbasic column, kept for the
        // incremental reduced-cost update after the pivot is chosen.
        let mut alphas: Vec<(usize, f64)> = Vec::new();

        // Reduced costs of the structural/slack columns, derived densely
        // once and maintained incrementally across pivots (the dual step
        // falls out of the same pivot-row BTRAN the ratio test needs).
        let mut cbar = vec![0.0f64; self.art0];
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
        // The start basis must be dual-feasible; anything else means the
        // parent/child relationship this repair relies on does not hold.
        for (j, &cj) in cbar.iter().enumerate().take(self.art0) {
            if self.in_basis[j] || self.upper[j] - self.lower[j] <= EPS {
                continue;
            }
            let at_lower = self.x[j] <= self.lower[j] + EPS;
            let at_upper = self.x[j] >= self.upper[j] - EPS;
            let ok = if at_lower {
                cj >= -dual_tol
            } else if at_upper {
                cj <= dual_tol
            } else {
                cj.abs() <= dual_tol
            };
            if !ok {
                return false;
            }
        }

        for _ in 0..max_iters {
            if self.needs_refactor() && !self.refactorize() {
                return false;
            }
            // Leaving row: the basic variable with the largest bound
            // violation, driven to the bound it violates.
            let mut leaving: Option<(usize, f64, bool)> = None; // (row, viol, above)
            for r in 0..self.m {
                let j = self.basis[r];
                let below = self.lower[j] - self.x[j];
                let above = self.x[j] - self.upper[j];
                let (viol, is_above) = if above > below {
                    (above, true)
                } else {
                    (below, false)
                };
                if viol > feas_tol && leaving.is_none_or(|(_, v, _)| viol > v) {
                    leaving = Some((r, viol, is_above));
                }
            }
            let Some((r, _, above)) = leaving else {
                return true; // primal feasible, dual feasibility maintained
            };
            let p = self.basis[r];

            // Dual ratio test over the pivot row. `sigma` orients the row
            // so an eligible entering move pushes x_p back toward the
            // violated bound; among eligible columns the smallest
            // |reduced cost| / |alpha| preserves every cbar sign, with the
            // largest |alpha| breaking ties for numerical stability.
            self.btran_unit(r, &mut rho);
            let sigma = if above { 1.0 } else { -1.0 };
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
            alphas.clear();
            let mut entering: Option<(usize, f64, f64)> = None; // (col, alpha, ratio)
            for &j in &cand {
                cand_mark[j] = false;
                if self.in_basis[j] {
                    continue;
                }
                let mut alpha = 0.0;
                let (rows, vals) = self.csc.col(j);
                for (&i, &a) in rows.iter().zip(vals) {
                    alpha += rho.get(i) * a;
                }
                if alpha == 0.0 {
                    continue;
                }
                alphas.push((j, alpha));
                if alpha.abs() <= PIVOT_TOL || self.upper[j] - self.lower[j] <= EPS {
                    continue;
                }
                let at_lower = self.x[j] <= self.lower[j] + EPS;
                let at_upper = self.x[j] >= self.upper[j] - EPS;
                let sa = sigma * alpha;
                let eligible = if at_lower {
                    sa > 0.0
                } else if at_upper {
                    sa < 0.0
                } else {
                    true // free nonbasic: cbar ≈ 0, enters at ratio ≈ 0
                };
                if !eligible {
                    continue;
                }
                let ratio = (cbar[j] / sa).max(0.0);
                let better = match entering {
                    None => true,
                    Some((_, ea, er)) => {
                        ratio < er - EPS || (ratio <= er + EPS && alpha.abs() > ea.abs())
                    }
                };
                if better {
                    entering = Some((j, alpha, ratio));
                }
            }
            cand.clear();
            let Some((q, _, _)) = entering else {
                return false;
            };

            // Pivot: the FTRAN of the entering column feeds both the basic
            // value update and the factor update (FT spike contract).
            self.ftran_col(q, &mut d);
            let alpha_q = d.get(r);
            if alpha_q.abs() <= PIVOT_TOL {
                return false; // row/column views disagree — numerics gone
            }
            trace::count("lp.dual.pivots", 1);
            let bound = if above { self.upper[p] } else { self.lower[p] };
            let step = (self.x[p] - bound) / alpha_q;
            let dual_step = cbar[q] / alpha_q;
            for &(j, alpha) in &alphas {
                cbar[j] -= dual_step * alpha;
            }
            cbar[q] = 0.0;
            if p < self.art0 {
                cbar[p] = -dual_step;
            }
            for &i in d.support() {
                let di = d.get(i);
                if di != 0.0 {
                    let bi = self.basis[i];
                    self.x[bi] -= step * di;
                }
            }
            self.x[q] += step;
            self.x[p] = bound;
            self.in_basis[p] = false;
            self.in_basis[q] = true;
            self.basis[r] = q;
            if !self.apply_pivot(r, &d) && !self.refactorize() {
                return false;
            }
        }
        false
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
                if !self.apply_pivot(r, &d) && !self.refactorize() {
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

    /// Row duals `π = B⁻ᵀc_B` of the current basis under `cost`, in the
    /// units of the caller's rows (the solver's internal row equilibration
    /// undone). At an optimal basis these are the LP's dual values.
    fn row_duals(&mut self, cost: &[f64]) -> Vec<f64> {
        let cb: Vec<f64> = self.basis.iter().map(|&j| cost[j]).collect();
        let mut y = vec![0.0; self.m];
        self.btran_costs(&cb, &mut y);
        for (yi, s) in y.iter_mut().zip(&self.row_scale) {
            *yi *= s;
        }
        y
    }

    /// The reusable snapshot of the current basis (see [`BasisSnapshot`]).
    fn snapshot(&self) -> BasisSnapshot {
        let lu = match &self.factor {
            FactorKernel::Lu(f) if f.updates() != usize::MAX => Some(f.clone()),
            _ => None,
        };
        BasisSnapshot {
            m: self.m,
            art0: self.art0,
            rows: self
                .basis
                .iter()
                .map(|&j| if j >= self.art0 { -1 } else { j as i64 })
                .collect(),
            x: self.x[..self.art0].to_vec(),
            sign: self.sign.clone(),
            lu,
        }
    }
}

/// Bench-harness hook: a solver parked at a problem's **optimal basis**, so
/// the kernel primitives (reinversion, FTRAN, BTRAN) can be timed in
/// isolation on a representative basis instead of through a whole solve.
/// Hidden from the documented API — the only consumer is the `lp_kernel`
/// regression bench.
#[doc(hidden)]
pub struct KernelBench {
    rev: Revised,
    work: IndexedVec,
    rho: IndexedVec,
    /// Structural/slack columns with at least one nonzero (FTRAN targets).
    cols: Vec<usize>,
}

impl KernelBench {
    /// Solve `problem` and park a fresh solver of the chosen kernel at the
    /// final basis. `None` when the problem has no optimum, no rows, or no
    /// structural columns to sweep.
    pub fn prepare(problem: &Problem, kernel: Kernel) -> Option<KernelBench> {
        let (_, snap) = solve_with_start(problem, None).ok()?;
        if snap.m == 0 {
            return None;
        }
        let mut rev = warm_start(standard_form(problem), &snap, kernel)?;
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

/// The finite bound closest to zero (0 for a free variable).
fn nearest_bound(lower: f64, upper: f64) -> f64 {
    if lower.is_finite() && upper.is_finite() {
        if lower.abs() <= upper.abs() {
            lower
        } else {
            upper
        }
    } else if lower.is_finite() {
        lower
    } else if upper.is_finite() {
        upper
    } else {
        0.0
    }
}

/// Standard-form columns (structural | slack) before a start basis is
/// chosen: shared between the cold (crash) and warm (snapshot) paths.
struct Standard {
    m: usize,
    n: usize,
    cols: Vec<Vec<(usize, f64)>>,
    b: Vec<f64>,
    row_scale: Vec<f64>,
    lower: Vec<f64>,
    upper: Vec<f64>,
    x: Vec<f64>,
    slack_of_row: Vec<Option<usize>>,
}

fn standard_form(problem: &Problem) -> Standard {
    let n = problem.vars.len();
    let m = problem.constraints.len();

    // Rows are equilibrated by their largest structural coefficient, like the
    // tableau solver: alignment constraint systems mix element-count weights
    // in the thousands with unit coefficients.
    let mut row_scale = vec![1.0f64; m];
    for (i, c) in problem.constraints.iter().enumerate() {
        let mag = c.terms.iter().fold(0.0f64, |a, &(_, v)| a.max(v.abs()));
        row_scale[i] = mag.max(1e-12).recip();
    }

    let mut cols: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
    let mut b = vec![0.0; m];
    for (i, c) in problem.constraints.iter().enumerate() {
        b[i] = c.rhs * row_scale[i];
        for &(v, a) in &c.terms {
            if a != 0.0 {
                cols[v.0].push((i, a * row_scale[i]));
            }
        }
    }
    // Merge duplicate terms within a column's row list.
    for col in cols.iter_mut() {
        col.sort_by_key(|&(i, _)| i);
        col.dedup_by(|&mut (i2, a2), &mut (i1, ref mut a1)| {
            if i1 == i2 {
                *a1 += a2;
                true
            } else {
                false
            }
        });
        col.retain(|&(_, a)| a != 0.0);
    }

    let mut lower: Vec<f64> = problem.vars.iter().map(|v| v.lower).collect();
    let mut upper: Vec<f64> = problem.vars.iter().map(|v| v.upper).collect();
    let mut x: Vec<f64> = problem
        .vars
        .iter()
        .map(|v| nearest_bound(v.lower, v.upper))
        .collect();

    // Slacks: `Ax + s = b` with `s >= 0` for `<=`, `s <= 0` for `>=`.
    let mut slack_of_row: Vec<Option<usize>> = vec![None; m];
    for (i, c) in problem.constraints.iter().enumerate() {
        let (lo, hi) = match c.relation {
            Relation::Le => (0.0, f64::INFINITY),
            Relation::Ge => (f64::NEG_INFINITY, 0.0),
            Relation::Eq => continue,
        };
        slack_of_row[i] = Some(cols.len());
        cols.push(vec![(i, 1.0)]);
        lower.push(lo);
        upper.push(hi);
        x.push(0.0);
    }

    Standard {
        m,
        n,
        cols,
        b,
        row_scale,
        lower,
        upper,
        x,
        slack_of_row,
    }
}

/// Build the solver state from a crash basis (the cold path).
fn cold_start(sf: Standard, kernel: Kernel) -> Revised {
    let _span = trace::span("lp.crash");
    let Standard {
        m,
        n,
        mut cols,
        b,
        row_scale,
        mut lower,
        mut upper,
        mut x,
        slack_of_row,
    } = sf;

    // Crash basis from the residual of the nonbasic start point. Rows are
    // processed in order and each picks the cheapest basic column that makes
    // it feasible *now*:
    //
    // 1. the row's own slack, when the residual fits the slack's bounds —
    //    already feasible, no phase-1 work;
    // 2. a structural column (triangular crash): a nonbasic column of the
    //    row whose shift to absorb the residual stays inside its own bounds
    //    and does not break any already-crashed row. This is tailored to
    //    the `z >= |expr|` surrogate pairs the mobile-offset objective is
    //    made of: the surrogate has coefficient +1 in both of its rows, so
    //    basing `z` in whichever row is infeasible satisfies the other as
    //    a side effect;
    // 3. a signed artificial, costing phase-1 pivots — the fallback.
    //
    // Phase 1 then minimises `sum |still-infeasible residuals|` instead of
    // `sum |all residuals|`; on the mobile-offset LPs the artificial count
    // drops from O(rows) to a handful, which is what makes the degenerate
    // figure1-style systems solve in milliseconds instead of grinding.
    let mut resid = b.clone();
    for (j, col) in cols.iter().enumerate() {
        if x[j] != 0.0 {
            for &(i, a) in col {
                resid[i] -= a * x[j];
            }
        }
    }
    // Row-major structural view for the crash scan.
    let mut rows_structural: Vec<Vec<(usize, f64)>> = vec![Vec::new(); m];
    for (j, col) in cols.iter().enumerate().take(n) {
        for &(i, a) in col {
            rows_structural[i].push((j, a));
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

    for r in 0..m {
        // 1. Slack crash.
        if let Some(sc) = slack_of_row[r] {
            if resid[r] >= lower[sc] && resid[r] <= upper[sc] {
                x[sc] = resid[r];
                basis[r] = sc;
                state[r] = RowState::SlackBasic;
                continue;
            }
        }
        // 2. Structural crash. Candidates are tried lowest column fan-out
        // first: a `z >= |expr|` surrogate touches exactly its two rows, so
        // it is always preferred over a shared offset variable whose shift
        // would disturb the residuals of every other row it appears in.
        let mut candidates: Vec<(usize, f64)> = rows_structural[r]
            .iter()
            .filter(|&&(j, a)| !col_basic[j] && a.abs() >= 0.1)
            .map(|&(j, a)| (j, a))
            .collect();
        candidates.sort_by_key(|&(j, _)| cols[j].len());
        let mut chosen: Option<(usize, f64)> = None; // (col, new value)
        'candidates: for &(j, a) in &candidates {
            let delta = resid[r] / a;
            let xj_new = x[j] + delta;
            if xj_new < lower[j] - EPS || xj_new > upper[j] + EPS {
                continue;
            }
            // The shift must not break rows already made feasible.
            for &(i, aij) in &cols[j] {
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
            for &(i, aij) in &cols[j] {
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
    let art0 = cols.len();
    let mut sign = vec![1.0; m];
    for r in 0..m {
        if basis[r] != usize::MAX {
            // The crash may have nudged a slack-crashed row's value; the
            // recompute below re-derives all basic values consistently.
            continue;
        }
        sign[r] = if resid[r] < 0.0 { -1.0 } else { 1.0 };
        basis[r] = cols.len();
        cols.push(vec![(r, sign[r])]);
        lower.push(0.0);
        upper.push(f64::INFINITY);
        x.push(resid[r].abs());
    }

    let ncols = cols.len();
    let mut in_basis = vec![false; ncols];
    for &j in &basis {
        in_basis[j] = true;
    }

    Revised::assemble(
        m, cols, b, row_scale, lower, upper, x, basis, in_basis, sign, art0, kernel,
    )
}

/// Assemble a child solver on the parent's final basis: snapshot fit
/// check, bound clamping of the nonbasic start point, artificial columns
/// signed as in the parent factorisation, and — on the LU kernel — direct
/// installation of the parent's factor (the child's constraint matrix is
/// identical, so the parent's factorisation of this very basis is exact).
/// Returns the solver plus whether the factor was handed over. Shared by
/// the evicting [`warm_start`] and the dual-repair [`dual_warm_start`].
fn install_snapshot(sf: Standard, snap: &BasisSnapshot, kernel: Kernel) -> Option<(Revised, bool)> {
    let Standard {
        m,
        n: _,
        mut cols,
        b,
        row_scale,
        mut lower,
        mut upper,
        mut x,
        slack_of_row: _,
    } = sf;
    let art0 = cols.len();
    if snap.m != m || snap.art0 != art0 {
        return None;
    }

    // Start every structural/slack column at its parent value, clamped into
    // the (possibly tightened) child bounds.
    for j in 0..art0 {
        x[j] = snap.x[j].clamp(lower[j], upper[j]);
        if !x[j].is_finite() {
            return None;
        }
    }
    // One artificial per row, signed as in the parent factorisation.
    let mut sign = snap.sign.clone();
    for (r, s) in sign.iter_mut().enumerate() {
        if *s != 1.0 && *s != -1.0 {
            *s = 1.0;
        }
        cols.push(vec![(r, *s)]);
        lower.push(0.0);
        upper.push(f64::INFINITY);
        x.push(0.0);
    }
    let ncols = cols.len();

    let mut basis = vec![usize::MAX; m];
    let mut in_basis = vec![false; ncols];
    for (r, &enc) in snap.rows.iter().enumerate() {
        let j = if enc < 0 {
            art0 + r
        } else {
            let j = enc as usize;
            if j >= art0 {
                return None;
            }
            j
        };
        if in_basis[j] {
            return None;
        }
        basis[r] = j;
        in_basis[j] = true;
    }

    let mut solver = Revised::assemble(
        m, cols, b, row_scale, lower, upper, x, basis, in_basis, sign, art0, kernel,
    );

    let mut installed = false;
    if kernel == Kernel::SparseLu {
        if let (FactorKernel::Lu(f), Some(lu)) = (&mut solver.factor, &snap.lu) {
            *f = lu.clone();
            installed = true;
        }
    }
    Some((solver, installed))
}

/// Install the parent basis for a child *without* evicting bound-violating
/// basic variables: the dual simplex ([`Revised::dual_run`]) repairs them
/// in place, pivoting against the dual ratio test instead of re-running
/// phase 1. Returns `None` when the snapshot does not fit or the parent
/// basis cannot be factorised — the caller falls back to [`warm_start`].
fn dual_warm_start(sf: Standard, snap: &BasisSnapshot, kernel: Kernel) -> Option<Revised> {
    let (mut solver, installed) = install_snapshot(sf, snap, kernel)?;
    if installed {
        solver.recompute_basics();
    } else if !solver.refactorize() {
        return None;
    }
    Some(solver)
}

/// Build the solver state from the final basis of a previous solve over a
/// problem with identical shape (the warm path). Returns `None` when the
/// snapshot does not fit or its basis cannot be made primal-feasible
/// cheaply — the caller falls back to [`cold_start`].
///
/// Basic variables whose parent value violates a (tightened) child bound
/// are *evicted*: clamped to the violated bound and replaced in the basis
/// by their row's artificial, which phase 1 then drives back out. A
/// branch-and-bound child tightens one bound, so at most a couple of rows
/// need evicting and phase 1 is a handful of pivots — against the dozens a
/// cold crash start would pay.
///
/// On the LU kernel the snapshot's factorisation is installed directly —
/// the child's constraint matrix is identical, so the parent's factor is
/// exact and the first reinversion is skipped entirely.
fn warm_start(sf: Standard, snap: &BasisSnapshot, kernel: Kernel) -> Option<Revised> {
    let (mut solver, installed) = install_snapshot(sf, snap, kernel)?;

    // Factorise the parent basis (or reuse the handed-over factor) and
    // derive basic values; then evict any basic variable the tightened
    // bounds push infeasible. Each eviction changes the basis, so
    // re-factorise and re-check — with one branching bound this settles in
    // one round, but a few rounds are allowed for sign flips of artificials
    // on rows whose residual changed side.
    for round in 0..4 {
        if round == 0 && installed {
            solver.recompute_basics();
        } else if !solver.refactorize() {
            return None;
        }
        let mut dirty = false;
        for r in 0..solver.m {
            let j = solver.basis[r];
            let (lo, hi) = (solver.lower[j], solver.upper[j]);
            let v = solver.x[j];
            if v >= lo - 1e-7 && v <= hi + 1e-7 {
                if v < lo || v > hi {
                    solver.x[j] = v.clamp(lo, hi);
                }
                continue;
            }
            dirty = true;
            if j < solver.art0 {
                // Clamp to the violated side, hand the row to its artificial.
                solver.x[j] = v.clamp(lo, hi);
                solver.in_basis[j] = false;
                let art = solver.art0 + r;
                solver.basis[r] = art;
                solver.in_basis[art] = true;
            } else {
                // A basic artificial went negative: flip its sign so the
                // next factorisation sees a positive value.
                solver.sign[r] = -solver.sign[r];
                solver.csc.set_singleton_value(j, solver.sign[r]);
            }
        }
        if !dirty {
            return Some(solver);
        }
    }
    None
}

/// Solve `problem` with the bounded-variable revised simplex.
pub fn solve(problem: &Problem) -> Result<Solution, SolveError> {
    optimise(problem, None).map(|(sol, _)| sol)
}

/// Solve `problem`, optionally resuming from the final basis of a previous
/// solve over a problem with identical rows and variables (only bounds and
/// objective may differ — exactly the branch-and-bound child shape). The
/// returned snapshot can seed the next solve. An unusable snapshot is not
/// an error; the solve silently falls back to a cold crash start.
pub fn solve_with_start(
    problem: &Problem,
    warm: Option<&BasisSnapshot>,
) -> Result<(Solution, BasisSnapshot), SolveError> {
    let (solution, solver) = optimise(problem, warm)?;
    let snapshot = match solver {
        Some(solver) => solver.snapshot(),
        None => BasisSnapshot {
            m: 0,
            art0: problem.vars.len(),
            rows: Vec::new(),
            x: solution.values.clone(),
            sign: Vec::new(),
            lu: None,
        },
    };
    Ok((solution, snapshot))
}

/// Solve `problem` and also return its optimal row duals `B⁻ᵀc_B`, one per
/// constraint in the caller's (un-equilibrated) row units: the reduced cost
/// of column `j` is `c_j − π·a_j`. This is how [`crate::L1Problem`] reads
/// its primal unknowns off the dual LP it actually solves.
pub(crate) fn solve_with_row_duals(problem: &Problem) -> Result<(Solution, Vec<f64>), SolveError> {
    let (solution, solver) = optimise(problem, None)?;
    let duals = match solver {
        Some(mut solver) => {
            let cost = structural_cost(problem, solver.csc.ncols());
            solver.row_duals(&cost)
        }
        None => Vec::new(),
    };
    Ok((solution, duals))
}

/// The user objective over the solver's columns (slacks and artificials
/// cost nothing).
fn structural_cost(problem: &Problem, ncols: usize) -> Vec<f64> {
    let mut cost = vec![0.0; ncols];
    for (c, v) in cost.iter_mut().zip(&problem.vars) {
        *c = v.obj;
    }
    cost
}

/// Both phases of a solve. Returns the optimum and — unless the problem
/// has no rows — the solver parked at the optimal basis.
fn optimise(
    problem: &Problem,
    warm: Option<&BasisSnapshot>,
) -> Result<(Solution, Option<Revised>), SolveError> {
    let n = problem.vars.len();
    let m = problem.constraints.len();

    if m == 0 {
        // Pure bound minimisation: each variable independently runs to the
        // bound its objective coefficient points at.
        let mut values = vec![0.0; n];
        for (i, v) in problem.vars.iter().enumerate() {
            values[i] = if v.obj > 0.0 {
                if !v.lower.is_finite() {
                    return Err(SolveError::Unbounded);
                }
                v.lower
            } else if v.obj < 0.0 {
                if !v.upper.is_finite() {
                    return Err(SolveError::Unbounded);
                }
                v.upper
            } else {
                nearest_bound(v.lower, v.upper)
            };
        }
        let objective = problem.eval_objective(&values);
        return Ok((Solution { values, objective }, None));
    }

    let rule = problem.pricing();
    let kernel = problem.kernel();

    // Dual warm path, tried first: install the parent basis *untouched*
    // and let the dual simplex repair the bound-flipped basics in place.
    // The child of a branch-and-bound node differs from its parent only by
    // a tightened bound, so the parent's optimal basis is dual-feasible
    // for it and the repair replaces phase 1 (and the eviction rounds)
    // entirely. Any failure — changed objective, numerics, infeasible
    // child — falls through to the evicting warm path, then cold.
    let mut dual_repaired: Option<Revised> = None;
    if let Some(snap) = warm {
        if let Some(mut s) = dual_warm_start(standard_form(problem), snap, kernel) {
            let ncols = s.csc.ncols();
            // Artificials are fixed at zero up front: the repair must
            // never grow one, and a basic artificial pushed off zero by
            // the child's bound shift becomes an ordinary leaving
            // candidate the dual ratio test pivots out.
            for j in s.art0..ncols {
                s.upper[j] = 0.0;
                if !s.in_basis[j] {
                    s.x[j] = 0.0;
                }
            }
            let cost = structural_cost(problem, ncols);
            let budget = 100 + 4 * (s.m + 10);
            if s.dual_run(&cost, budget) {
                trace::count("lp.warm_starts", 1);
                dual_repaired = Some(s);
            }
        }
    }
    let dual_warm = dual_repaired.is_some();
    let (mut solver, warm_started) = match dual_repaired {
        Some(solver) => (solver, true),
        None => match warm.and_then(|s| warm_start(standard_form(problem), s, kernel)) {
            Some(solver) => {
                trace::count("lp.warm_starts", 1);
                (solver, true)
            }
            None => {
                if warm.is_some() {
                    trace::count("lp.warm_fallbacks", 1);
                }
                let mut solver = cold_start(standard_form(problem), kernel);
                // The crash basis mixes slack, structural and artificial
                // columns, so it is not the ±1 diagonal any more; factorise it
                // once up front (the diagonal stays as the factorisation seed)
                // and derive all basic values consistently.
                if !solver.refactorize() {
                    return Err(SolveError::IterationLimit);
                }
                (solver, false)
            }
        },
    };

    let art0 = solver.art0;
    let ncols = solver.csc.ncols();
    let max_iters = 400 * (ncols + m + 10);

    // --- Phase 1: minimise the artificial sum. Skipped when the start
    // basis is already feasible: for a cold start that means the crash
    // needed no artificials; for a warm start, that no artificial carries
    // residual (the usual case when only a bound was tightened). ---
    let b_scale = solver.b.iter().fold(0.0f64, |a, &v| a.max(v.abs()));
    let art_sum = |s: &Revised| -> f64 { (art0..ncols).map(|j| s.x[j].abs()).sum() };
    let needs_phase1 = if dual_warm {
        // The dual repair only reports success at a primal-feasible basis.
        false
    } else if warm_started {
        art_sum(&solver) > 1e-7 * (1.0 + b_scale)
    } else {
        art0 < ncols
    };
    if needs_phase1 {
        let mut phase1_cost = vec![0.0; ncols];
        for c in phase1_cost.iter_mut().skip(art0) {
            *c = 1.0;
        }
        let pivots_before_phase1 = trace::counter("lp.pivots");
        let phase1 = solver.run(&phase1_cost, max_iters, 4, rule);
        trace::count(
            "lp.phase1_pivots",
            trace::counter("lp.pivots") - pivots_before_phase1,
        );
        let feasible = art_sum(&solver) <= 1e-7 * (1.0 + b_scale);
        match phase1 {
            RunResult::Optimal if !feasible => return Err(SolveError::Infeasible),
            RunResult::Optimal => {}
            // A stalled phase 1 that nevertheless drove the artificials to
            // zero found a feasible point; a stall with artificials left is
            // *not* an infeasibility certificate — report numerical failure
            // so the caller can fall back, never a spurious Infeasible.
            RunResult::Stalled if feasible => {}
            // Phase 1 is bounded below by zero; an unbounded report is
            // numerical failure, not a certificate.
            RunResult::Stalled | RunResult::Unbounded | RunResult::IterationLimit => {
                return Err(SolveError::IterationLimit)
            }
        }
    }

    // --- Phase 2: fix artificials at zero, minimise the user objective. ---
    solver.drive_out_artificials();
    for j in art0..ncols {
        // Pricing never lets a fixed (l == u) column enter; an artificial
        // still basic on a redundant row stays at zero because the ratio
        // test evicts it the moment any pivot would move it off its bound.
        solver.upper[j] = 0.0;
        if !solver.in_basis[j] {
            solver.x[j] = 0.0;
        }
    }

    let phase2_cost = structural_cost(problem, ncols);
    match solver.run(&phase2_cost, max_iters, 1, rule) {
        // A stalled phase 2 is accepted as optimal: the vertex is feasible
        // and the callers this solver serves re-price the result exactly.
        RunResult::Optimal | RunResult::Stalled => {}
        RunResult::Unbounded => return Err(SolveError::Unbounded),
        RunResult::IterationLimit => return Err(SolveError::IterationLimit),
    }

    let values: Vec<f64> = solver.x[..n].to_vec();
    let objective = problem.eval_objective(&values);
    Ok((Solution { values, objective }, Some(solver)))
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
        // A chain of coupled rows long enough to push the eta file past the
        // refactorisation interval.
        let n = 150;
        let mut p = Problem::new();
        let vars: Vec<_> = (0..n)
            .map(|i| p.add_nonneg_var(format!("x{i}"), 1.0 + (i % 7) as f64))
            .collect();
        for i in 0..n - 1 {
            p.add_constraint(vec![(vars[i], 1.0), (vars[i + 1], 1.0)], Relation::Ge, 2.0);
        }
        let s = solve(&p).unwrap();
        assert!(p.is_feasible(&s.values, 1e-5));
    }

    #[test]
    fn refactorisation_cadence_is_per_pivot_not_per_file_length() {
        // On a problem with more rows than REFACTOR_INTERVAL the eta file is
        // longer than the interval immediately after every reinversion; the
        // trigger must count etas *since* the rebuild, not the raw length —
        // otherwise every pivot refactorises and the solver degrades to
        // O(m²) per pivot. Locked by counters: refactorisations must stay
        // well below the pivot count.
        trace::reset();
        let n = 150;
        let mut p = Problem::new();
        let vars: Vec<_> = (0..n)
            .map(|i| p.add_nonneg_var(format!("x{i}"), 1.0 + (i % 7) as f64))
            .collect();
        for i in 0..n - 1 {
            p.add_constraint(vec![(vars[i], 1.0), (vars[i + 1], 1.0)], Relation::Ge, 2.0);
        }
        let _ = solve(&p).unwrap();
        let pivots = trace::counter("lp.pivots");
        let refactors = trace::counter("lp.refactorisations");
        assert!(
            refactors <= 2 + pivots / (REFACTOR_INTERVAL as u64 / 2),
            "refactorising too often: {refactors} reinversions for {pivots} pivots"
        );
        trace::reset();
    }

    #[test]
    fn dantzig_and_devex_agree_on_objectives() {
        // Both rules must land on an optimal vertex; on a non-degenerate
        // problem the optimum is unique, so the full solutions agree.
        let build = || {
            let mut p = Problem::new();
            let x = p.add_nonneg_var("x", 1.0);
            let y = p.add_nonneg_var("y", 1.0);
            p.add_constraint(vec![(x, 1.0), (y, 2.0)], Relation::Ge, 4.0);
            p.add_constraint(vec![(x, 3.0), (y, 1.0)], Relation::Ge, 6.0);
            p
        };
        let mut devex = build();
        devex.set_pricing(PricingRule::Devex);
        let mut dantzig = build();
        dantzig.set_pricing(PricingRule::Dantzig);
        let sd = solve(&devex).unwrap();
        let sz = solve(&dantzig).unwrap();
        assert_close(sd.objective, sz.objective);
        for (a, b) in sd.values.iter().zip(&sz.values) {
            assert_close(*a, *b);
        }
    }

    #[test]
    fn moderately_sized_random_feasible_problem() {
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
            let lhs_at_ones: f64 = terms.iter().map(|(_, a)| *a).sum();
            p.add_constraint(terms, Relation::Le, lhs_at_ones.abs() + 5.0);
        }
        let s = solve(&p).unwrap();
        assert!(p.is_feasible(&s.values, 1e-5));
        assert!(s.objective.abs() < 1e-6);
    }

    #[test]
    fn both_rules_solve_the_random_problem_feasibly() {
        let n = 40;
        let m = 30;
        let build = |rule: PricingRule| {
            let mut p = Problem::new();
            let vars: Vec<_> = (0..n)
                .map(|i| p.add_nonneg_var(format!("x{i}"), ((i * 7 + 3) % 11) as f64 / 7.0 + 0.1))
                .collect();
            let mut state = 0xdeadbeef12345678u64;
            let mut next = || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % 9) as f64 - 4.0
            };
            for _ in 0..m {
                let terms: Vec<_> = vars.iter().map(|&v| (v, next())).collect();
                let lhs_at_ones: f64 = terms.iter().map(|(_, a)| *a).sum();
                p.add_constraint(terms, Relation::Le, lhs_at_ones.abs() + 5.0);
            }
            p.set_pricing(rule);
            p
        };
        let pd = build(PricingRule::Devex);
        let pz = build(PricingRule::Dantzig);
        let sd = solve(&pd).unwrap();
        let sz = solve(&pz).unwrap();
        assert!(pd.is_feasible(&sd.values, 1e-5));
        assert!(pz.is_feasible(&sz.values, 1e-5));
        assert!((sd.objective - sz.objective).abs() < 1e-6);
    }

    #[test]
    fn warm_start_resumes_from_parent_basis() {
        // Solve, tighten one bound (the branch-and-bound child shape), and
        // re-solve from the parent snapshot: the result must match a cold
        // solve exactly, with strictly fewer phase-1 pivots.
        let mut p = Problem::new();
        let x = p.add_var("x", 0.0, 10.0, -5.0);
        let y = p.add_var("y", 0.0, 10.0, -4.0);
        p.add_constraint(vec![(x, 6.0), (y, 4.0)], Relation::Le, 24.0);
        p.add_constraint(vec![(x, 1.0), (y, 2.0)], Relation::Le, 6.0);
        let (_, snap) = solve_with_start(&p, None).unwrap();

        let mut child = p.clone();
        child.set_bounds(x, 0.0, 3.0);

        trace::reset();
        let (cold, _) = solve_with_start(&child, None).unwrap();
        let cold_phase1 = trace::counter("lp.phase1_pivots");
        trace::reset();
        let (warm, _) = solve_with_start(&child, Some(&snap)).unwrap();
        let warm_phase1 = trace::counter("lp.phase1_pivots");
        assert_eq!(trace::counter("lp.warm_starts"), 1);
        trace::reset();

        assert_close(warm.objective, cold.objective);
        assert!(child.is_feasible(&warm.values, 1e-6));
        assert!(
            warm_phase1 <= cold_phase1,
            "warm start must not pay more phase-1 pivots ({warm_phase1} vs {cold_phase1})"
        );
    }

    #[test]
    fn devex_folds_pricing_btrans_into_the_weight_update() {
        // A problem big enough to take several pivots: under Devex every
        // iteration after the first prices from the incrementally
        // maintained reduced costs, so the batched-BTRAN counter must run
        // close to the pivot count; Dantzig keeps the dense sweep and must
        // book none.
        let build = |rule: PricingRule| {
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
            p.set_pricing(rule);
            p
        };

        trace::reset();
        solve(&build(PricingRule::Devex)).unwrap();
        let batched = trace::counter("lp.devex.batched_btran");
        let pivots = trace::counter("lp.pivots");
        trace::reset();
        assert!(pivots > 2, "workload too small to exercise pricing");
        assert!(
            batched > 0,
            "Devex never priced from the maintained reduced costs"
        );

        trace::reset();
        solve(&build(PricingRule::Dantzig)).unwrap();
        let batched = trace::counter("lp.devex.batched_btran");
        trace::reset();
        assert_eq!(batched, 0, "Dantzig must keep the dense pricing sweep");
    }

    #[test]
    fn warm_start_with_mismatched_shape_falls_back() {
        let mut p = Problem::new();
        let x = p.add_nonneg_var("x", 1.0);
        p.add_constraint(vec![(x, 1.0)], Relation::Ge, 2.0);
        let (_, snap) = solve_with_start(&p, None).unwrap();

        // A different problem shape: the snapshot cannot fit and the solve
        // must silently cold-start instead of failing.
        let mut q = Problem::new();
        let a = q.add_nonneg_var("a", 1.0);
        let b = q.add_nonneg_var("b", 1.0);
        q.add_constraint(vec![(a, 1.0), (b, 1.0)], Relation::Ge, 3.0);
        q.add_constraint(vec![(a, 1.0)], Relation::Le, 2.0);
        trace::reset();
        let (s, _) = solve_with_start(&q, Some(&snap)).unwrap();
        assert_eq!(trace::counter("lp.warm_starts"), 0);
        assert_eq!(trace::counter("lp.warm_fallbacks"), 1);
        trace::reset();
        assert!(q.is_feasible(&s.values, 1e-6));
    }

    /// A batch of random LPs mixing inequality shapes, bounds and empty
    /// columns, solved with both kernels.
    fn random_problem(seed: u64, kernel: Kernel) -> Problem {
        let n = 25;
        let m = 18;
        let mut p = Problem::new();
        let mut state = seed | 1;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let vars: Vec<_> = (0..n)
            .map(|i| {
                let c = (next() % 9) as f64 - 2.0;
                if i % 5 == 4 {
                    p.add_var(format!("x{i}"), 0.0, 3.0, c.abs())
                } else {
                    p.add_nonneg_var(format!("x{i}"), c.abs() + 0.1)
                }
            })
            .collect();
        for r in 0..m {
            // Sparse rows: 2-4 terms each, occasionally duplicated.
            let k = 2 + (next() % 3) as usize;
            let mut terms = Vec::new();
            for _ in 0..k {
                let v = vars[(next() % n as u64) as usize];
                terms.push((v, (next() % 7) as f64 - 3.0));
            }
            let rel = match r % 3 {
                0 => Relation::Ge,
                1 => Relation::Le,
                _ => Relation::Eq,
            };
            let lhs_at_one: f64 = terms.iter().map(|&(_, a)| a).sum();
            let rhs = match rel {
                Relation::Ge => -lhs_at_one.abs() - 1.0,
                Relation::Le => lhs_at_one.abs() + 1.0,
                Relation::Eq => 0.0,
            };
            p.add_constraint(terms, rel, rhs);
        }
        p.set_kernel(kernel);
        p
    }

    #[test]
    fn both_kernels_agree_on_random_problems() {
        for seed in [3, 17, 91, 254, 7777, 120451] {
            let pa = random_problem(seed, Kernel::SparseLu);
            let pb = random_problem(seed, Kernel::EtaFile);
            match (solve(&pa), solve(&pb)) {
                (Ok(sa), Ok(sb)) => {
                    assert!(
                        pa.is_feasible(&sa.values, 1e-5),
                        "seed {seed}: lu infeasible"
                    );
                    assert!(
                        pb.is_feasible(&sb.values, 1e-5),
                        "seed {seed}: eta infeasible"
                    );
                    assert!(
                        (sa.objective - sb.objective).abs() < 1e-5 * (1.0 + sb.objective.abs()),
                        "seed {seed}: objectives differ ({} vs {})",
                        sa.objective,
                        sb.objective
                    );
                }
                (Err(ea), Err(eb)) => assert_eq!(ea, eb, "seed {seed}"),
                (a, b) => panic!("seed {seed}: kernels disagree on solvability ({a:?} vs {b:?})"),
            }
        }
    }

    #[test]
    fn lu_kernel_emits_ft_updates_and_sparse_ftrans() {
        trace::reset();
        let n = 150;
        let mut p = Problem::new();
        let vars: Vec<_> = (0..n)
            .map(|i| p.add_nonneg_var(format!("x{i}"), 1.0 + (i % 7) as f64))
            .collect();
        for i in 0..n - 1 {
            p.add_constraint(vec![(vars[i], 1.0), (vars[i + 1], 1.0)], Relation::Ge, 2.0);
        }
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
        for kernel in [Kernel::SparseLu, Kernel::EtaFile] {
            let mut p = Problem::new();
            p.set_kernel(kernel);
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

            let mut solver = cold_start(standard_form(&p), kernel);
            assert!(solver.refactorize());
            let basic_artificials = |s: &Revised| s.basis.iter().filter(|&&j| j >= s.art0).count();
            assert_eq!(basic_artificials(&solver), K, "{kernel:?}: crash shape");
            let ftrans = || trace::counter("lp.ftran.sparse") + trace::counter("lp.ftran.dense");
            let before = ftrans();
            solver.drive_out_artificials();
            let driven_out = K - basic_artificials(&solver);
            assert_eq!(driven_out, K, "{kernel:?}: every artificial is replaceable");
            assert!(
                ftrans() - before <= 2 * driven_out as u64,
                "{kernel:?}: {} FTRANs for {driven_out} artificials",
                ftrans() - before
            );
        }
    }

    #[test]
    fn warm_start_hands_over_the_lu_factorisation() {
        let mut p = Problem::new();
        let x = p.add_var("x", 0.0, 10.0, -5.0);
        let y = p.add_var("y", 0.0, 10.0, -4.0);
        p.add_constraint(vec![(x, 6.0), (y, 4.0)], Relation::Le, 24.0);
        p.add_constraint(vec![(x, 1.0), (y, 2.0)], Relation::Le, 6.0);
        let (_, snap) = solve_with_start(&p, None).unwrap();

        let mut child = p.clone();
        child.set_bounds(x, 0.0, 3.0);

        trace::reset();
        let (cold, _) = solve_with_start(&child, None).unwrap();
        let cold_refactors = trace::counter("lp.refactorisations");
        trace::reset();
        let (warm, warm_snap) = solve_with_start(&child, Some(&snap)).unwrap();
        let warm_refactors = trace::counter("lp.refactorisations");
        trace::reset();

        assert_close(warm.objective, cold.objective);
        // The handed-over factorisation replaces the up-front reinversion.
        assert!(
            warm_refactors < cold_refactors,
            "warm start should reuse the parent's LU \
             ({warm_refactors} vs {cold_refactors} reinversions)"
        );
        // The chain continues: the child's snapshot carries a factor too.
        assert!(warm_snap.lu.is_some(), "child snapshot lost the LU state");
    }
}
