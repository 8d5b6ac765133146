//! Sparse LU factorisation of the simplex basis with Forrest–Tomlin
//! product-form updates.
//!
//! The basis `B` (columns of the CSC constraint matrix) is factorised once
//! as `L·U` with approximate-Markowitz column ordering and threshold
//! partial pivoting, and each simplex pivot then *updates* the
//! factorisation in place (a Forrest–Tomlin row eta plus a spike column).
//! The simplex refactorises every `REFACTOR_INTERVAL` updates, rebuilding
//! from the sparse columns in `O(nnz)`-ish work.
//!
//! Representation (all in the original row/slot index spaces — the row and
//! column permutations `P`, `Q` live implicitly in `prow`/`pcol`):
//!
//! * `L` is a sequence of elimination etas, one per elimination id `k`:
//!   subtract `mult · v[prow[k]]` from the not-yet-pivotal rows listed in
//!   `lcols[k]`.
//! * `U` is stored column-wise by elimination id: `ucol[k]` holds entries
//!   `(k', u)` meaning value `u` in the pivot row of the *earlier* id `k'`;
//!   `udiag[k]` is the diagonal. `uorder` is the current column order —
//!   Forrest–Tomlin updates move the replaced column to the back.
//! * `ft` is the list of Forrest–Tomlin row etas, applied between the `L`
//!   and `U` passes of every FTRAN (and transposed, in reverse, in BTRAN).
//!
//! FTRAN right-hand sides are tracked as [`IndexedVec`] (index, value)
//! support lists; the `L` pass walks a min-heap of elimination positions so
//! etas whose pivot row is not in the support are never touched
//! (hypersparse), and the `U` pass skips columns whose pivot-row value is
//! exactly zero. Solves are counted under `lp.ftran.sparse` /
//! `lp.ftran.dense` according to the support density at the `U` pass.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::sparse::{CscMatrix, IndexedVec};

/// Minimum magnitude accepted for a pivot element (matches the revised
/// simplex's ratio-test tolerance).
const PIVOT_TOL: f64 = 1e-8;
/// Threshold partial pivoting: any row within this factor of the column's
/// largest remaining entry is stability-eligible, and the sparsest eligible
/// row (fewest a-priori nonzeros) wins.
const PIVOT_THRESHOLD: f64 = 0.1;
/// FTRAN support larger than `m / DENSE_RATIO` counts as a dense solve.
const DENSE_RATIO: usize = 4;

/// A sparse LU factorisation of the current basis, updatable in place.
#[derive(Debug)]
pub(crate) struct LuFactor {
    m: usize,
    /// `L` eta per elimination id: `(row, multiplier)` entries; the eta's
    /// pivot row is `prow[id]`.
    lcols: Vec<Vec<(usize, f64)>>,
    /// Current column order of `U`: position -> elimination id.
    uorder: Vec<usize>,
    /// Inverse of `uorder`: id -> position.
    upos: Vec<usize>,
    /// id -> pivot row.
    prow: Vec<usize>,
    /// id -> basis slot.
    pcol: Vec<usize>,
    udiag: Vec<f64>,
    /// `U` column per id: `(earlier id, value)`.
    ucol: Vec<Vec<(usize, f64)>>,
    id_of_row: Vec<usize>,
    id_of_slot: Vec<usize>,
    /// Forrest–Tomlin row etas in append order: `v[p] -= Σ w·v[row]`.
    ft: Vec<(usize, Vec<(usize, f64)>)>,
    /// Updates since the last full factorisation (`usize::MAX` until the
    /// first factorisation so an unfactored kernel always refactorises).
    updates: usize,
    // -- workspaces --
    work: IndexedVec,
    /// The pre-`U` vector of the last FTRAN (the Forrest–Tomlin spike).
    spike: Vec<f64>,
    spike_rows: Vec<usize>,
    heap: BinaryHeap<Reverse<usize>>,
    wvals: Vec<f64>,
    wmark: Vec<bool>,
    wlist: Vec<usize>,
}

impl LuFactor {
    pub fn new(m: usize) -> Self {
        LuFactor {
            m,
            lcols: Vec::new(),
            uorder: Vec::new(),
            upos: Vec::new(),
            prow: Vec::new(),
            pcol: Vec::new(),
            udiag: Vec::new(),
            ucol: Vec::new(),
            id_of_row: Vec::new(),
            id_of_slot: Vec::new(),
            ft: Vec::new(),
            updates: usize::MAX,
            work: IndexedVec::new(m),
            spike: vec![0.0; m],
            spike_rows: Vec::new(),
            heap: BinaryHeap::new(),
            wvals: vec![0.0; m],
            wmark: vec![false; m],
            wlist: Vec::new(),
        }
    }

    /// Forrest–Tomlin updates applied since the last full factorisation.
    /// `usize::MAX` means "never factorised".
    pub fn updates(&self) -> usize {
        self.updates
    }

    /// Hypersparse `L` solve: walk a min-heap of elimination ids seeded
    /// from the support, so etas whose pivot row never becomes nonzero are
    /// skipped entirely. `id_of_row` may be partial (`usize::MAX` for rows
    /// not yet pivotal) — used mid-factorisation as well as for full
    /// solves.
    fn solve_l(
        work: &mut IndexedVec,
        heap: &mut BinaryHeap<Reverse<usize>>,
        lcols: &[Vec<(usize, f64)>],
        prow: &[usize],
        id_of_row: &[usize],
    ) {
        debug_assert!(heap.is_empty());
        for &r in work.support() {
            let k = id_of_row[r];
            if k != usize::MAX && k < lcols.len() {
                heap.push(Reverse(k));
            }
        }
        let mut prev = usize::MAX;
        while let Some(Reverse(k)) = heap.pop() {
            if k == prev {
                continue; // duplicate seed/scatter
            }
            prev = k;
            let t = work.get(prow[k]);
            if t == 0.0 {
                continue;
            }
            for &(r, mult) in &lcols[k] {
                work.add(r, -mult * t);
                let k2 = id_of_row[r];
                if k2 != usize::MAX && k2 < lcols.len() {
                    debug_assert!(k2 > k);
                    heap.push(Reverse(k2));
                }
            }
        }
    }

    /// Factorise the basis columns `csc[:, basis]`. Builds into fresh
    /// storage and commits only on success, so a `false` return (numerically
    /// singular basis) leaves the previous factorisation intact.
    pub fn factor(&mut self, csc: &CscMatrix, basis: &[usize]) -> bool {
        let m = self.m;
        debug_assert_eq!(basis.len(), m);

        // A-priori ordering: sparsest basis columns first (slack/artificial
        // singletons eliminate for free), ties by slot for determinism.
        let mut order: Vec<usize> = (0..m).collect();
        order.sort_by_key(|&s| (csc.col_nnz(basis[s]), s));
        // A-priori row counts over the basis columns: the Markowitz-style
        // tie-break prefers pivot rows that appear in few columns.
        let mut rc = vec![0usize; m];
        for &j in basis {
            for &i in csc.col(j).0 {
                rc[i] += 1;
            }
        }

        let mut lcols: Vec<Vec<(usize, f64)>> = Vec::with_capacity(m);
        let mut prow: Vec<usize> = Vec::with_capacity(m);
        let mut pcol: Vec<usize> = Vec::with_capacity(m);
        let mut udiag: Vec<f64> = Vec::with_capacity(m);
        let mut ucol: Vec<Vec<(usize, f64)>> = Vec::with_capacity(m);
        let mut id_of_row = vec![usize::MAX; m];
        let (mut nnz_l, mut nnz_u) = (0usize, 0usize);

        for &slot in &order {
            let j = basis[slot];
            self.work.clear();
            let (rows, vals) = csc.col(j);
            for (&i, &a) in rows.iter().zip(vals) {
                self.work.add(i, a);
            }
            Self::solve_l(&mut self.work, &mut self.heap, &lcols, &prow, &id_of_row);

            // Threshold partial pivoting over the not-yet-pivotal support.
            let mut vmax = 0.0f64;
            for &r in self.work.support() {
                if id_of_row[r] == usize::MAX {
                    vmax = vmax.max(self.work.get(r).abs());
                }
            }
            if vmax <= PIVOT_TOL {
                self.work.clear();
                return false; // singular; previous factorisation kept
            }
            let cutoff = PIVOT_THRESHOLD * vmax;
            let mut best = usize::MAX;
            let mut best_mag = 0.0f64;
            for &r in self.work.support() {
                if id_of_row[r] != usize::MAX {
                    continue;
                }
                let mag = self.work.get(r).abs();
                if mag < cutoff || mag <= PIVOT_TOL {
                    continue;
                }
                let better = best == usize::MAX
                    || rc[r] < rc[best]
                    || (rc[r] == rc[best] && (mag > best_mag || (mag == best_mag && r < best)));
                if better {
                    best = r;
                    best_mag = mag;
                }
            }
            let p = best; // vmax itself is always eligible
            let piv = self.work.get(p);
            let t = prow.len();
            let mut uc = Vec::new();
            let mut lc = Vec::new();
            for &r in self.work.support() {
                let v = self.work.get(r);
                if v == 0.0 || r == p {
                    continue;
                }
                match id_of_row[r] {
                    usize::MAX => lc.push((r, v / piv)),
                    k2 => uc.push((k2, v)),
                }
            }
            nnz_l += lc.len();
            nnz_u += uc.len();
            id_of_row[p] = t;
            prow.push(p);
            pcol.push(slot);
            udiag.push(piv);
            ucol.push(uc);
            lcols.push(lc);
        }
        self.work.clear();

        // Commit.
        self.lcols = lcols;
        self.prow = prow;
        self.pcol = pcol;
        self.udiag = udiag;
        self.ucol = ucol;
        self.id_of_row = id_of_row;
        self.uorder = (0..m).collect();
        self.upos = (0..m).collect();
        let mut id_of_slot = vec![usize::MAX; m];
        for (k, &slot) in self.pcol.iter().enumerate() {
            id_of_slot[slot] = k;
        }
        self.id_of_slot = id_of_slot;
        self.ft.clear();
        self.updates = 0;
        self.spike_rows.clear();
        self.spike.iter_mut().for_each(|v| *v = 0.0);
        trace::count("lp.factor.nnz", (nnz_l + nnz_u + m) as u64);
        true
    }

    /// `out = B⁻¹ a_j` (slot-indexed, support sorted ascending). The pre-`U`
    /// intermediate is cached as the Forrest–Tomlin spike, so an
    /// [`update`](Self::update) must follow the FTRAN of the very column
    /// that enters the basis.
    pub fn ftran_col(&mut self, csc: &CscMatrix, j: usize, out: &mut IndexedVec) {
        out.clear();
        self.work.clear();
        let (rows, vals) = csc.col(j);
        for (&i, &a) in rows.iter().zip(vals) {
            self.work.add(i, a);
        }
        Self::solve_l(
            &mut self.work,
            &mut self.heap,
            &self.lcols,
            &self.prow,
            &self.id_of_row,
        );
        let LuFactor {
            m,
            uorder,
            prow,
            pcol,
            udiag,
            ucol,
            ft,
            work,
            spike,
            spike_rows,
            ..
        } = self;
        for (p, entries) in ft.iter() {
            let mut s = 0.0;
            for &(r, w) in entries {
                s += w * work.get(r);
            }
            if s != 0.0 {
                work.add(*p, -s);
            }
        }
        // Cache the spike for a possible Forrest–Tomlin update.
        for &r in spike_rows.iter() {
            spike[r] = 0.0;
        }
        spike_rows.clear();
        for &r in work.support() {
            let v = work.get(r);
            if v != 0.0 {
                spike[r] = v;
                spike_rows.push(r);
            }
        }
        if work.support().len() * DENSE_RATIO > *m {
            trace::count("lp.ftran.dense", 1);
        } else {
            trace::count("lp.ftran.sparse", 1);
        }
        // Backward U solve over the current column order.
        for &k in uorder.iter().rev() {
            let num = work.get(prow[k]);
            if num == 0.0 {
                continue;
            }
            let z = num / udiag[k];
            for &(k2, u) in &ucol[k] {
                work.add(prow[k2], -u * z);
            }
            out.set(pcol[k], z);
        }
        out.sort_support();
    }

    /// Sparse `out = B⁻ᵀ e_r` for basis slot `r` (row-indexed; support is a
    /// superset of the nonzeros). Used by the Devex weight update.
    pub fn btran_unit(&mut self, r_slot: usize, out: &mut IndexedVec) {
        out.clear();
        let LuFactor {
            uorder,
            prow,
            pcol,
            udiag,
            ucol,
            lcols,
            ft,
            ..
        } = self;
        for &k in uorder.iter() {
            let mut num = if pcol[k] == r_slot { 1.0 } else { 0.0 };
            for &(k2, u) in &ucol[k] {
                num -= u * out.get(prow[k2]);
            }
            if num != 0.0 {
                out.set(prow[k], num / udiag[k]);
            }
        }
        for (p, entries) in ft.iter().rev() {
            let t = out.get(*p);
            if t == 0.0 {
                continue;
            }
            for &(r, w) in entries {
                out.add(r, -w * t);
            }
        }
        for k in (0..lcols.len()).rev() {
            if lcols[k].is_empty() {
                continue;
            }
            let mut s = 0.0;
            for &(r, mult) in &lcols[k] {
                s += mult * out.get(r);
            }
            if s != 0.0 {
                out.add(prow[k], -s);
            }
        }
    }

    /// Dense `y = B⁻ᵀ c` where `c` is slot-indexed (`c[i]` = cost of the
    /// column basic in slot `i`) and `y` is row-indexed. The pricing pass
    /// reads every row, so the output is naturally dense.
    pub fn btran_costs(&mut self, c_slots: &[f64], y: &mut [f64]) {
        y.iter_mut().for_each(|v| *v = 0.0);
        let LuFactor {
            uorder,
            prow,
            pcol,
            udiag,
            ucol,
            lcols,
            ft,
            ..
        } = self;
        for &k in uorder.iter() {
            let mut num = c_slots[pcol[k]];
            for &(k2, u) in &ucol[k] {
                num -= u * y[prow[k2]];
            }
            y[prow[k]] = num / udiag[k];
        }
        for (p, entries) in ft.iter().rev() {
            let t = y[*p];
            if t == 0.0 {
                continue;
            }
            for &(r, w) in entries {
                y[r] -= w * t;
            }
        }
        for k in (0..lcols.len()).rev() {
            if lcols[k].is_empty() {
                continue;
            }
            let mut s = 0.0;
            for &(r, mult) in &lcols[k] {
                s += mult * y[r];
            }
            if s != 0.0 {
                y[prow[k]] -= s;
            }
        }
    }

    /// Dense `out_slots = B⁻¹ rhs_rows` (destroys `rhs_rows`). Used to
    /// rederive all basic values after a refactorisation.
    pub fn solve_dense(&mut self, rhs_rows: &mut [f64], out_slots: &mut [f64]) {
        let LuFactor {
            lcols,
            uorder,
            prow,
            pcol,
            udiag,
            ucol,
            ft,
            ..
        } = self;
        for (k, lc) in lcols.iter().enumerate() {
            if lc.is_empty() {
                continue;
            }
            let t = rhs_rows[prow[k]];
            if t == 0.0 {
                continue;
            }
            for &(r, mult) in lc {
                rhs_rows[r] -= mult * t;
            }
        }
        for (p, entries) in ft.iter() {
            let mut s = 0.0;
            for &(r, w) in entries {
                s += w * rhs_rows[r];
            }
            rhs_rows[*p] -= s;
        }
        for &k in uorder.iter().rev() {
            let num = rhs_rows[prow[k]];
            let z = num / udiag[k];
            if num != 0.0 {
                for &(k2, u) in &ucol[k] {
                    rhs_rows[prow[k2]] -= u * z;
                }
            }
            out_slots[pcol[k]] = z;
        }
    }

    /// Forrest–Tomlin update: basis slot `r_slot` now holds the column whose
    /// FTRAN produced the cached spike. Returns `false` (leaving the
    /// factorisation *unchanged*) when the new diagonal is too small — the
    /// caller refactorises from scratch instead.
    pub fn update(&mut self, r_slot: usize) -> bool {
        let t = self.id_of_slot[r_slot];
        let p = self.prow[t];
        let pos_t = self.upos[t];

        // Row eta weights w over the columns ordered after t, ascending:
        // w_k·udiag[k] = u_{t,k} − Σ_{t < pos(k') < pos(k)} w_{k'}·u_{k',k}.
        // Computed non-destructively so a rejected update changes nothing.
        self.wlist.clear();
        for &k in &self.uorder[pos_t + 1..] {
            let mut u_pk = 0.0;
            let mut acc = 0.0;
            for &(k2, u) in &self.ucol[k] {
                if k2 == t {
                    u_pk = u;
                } else if self.wmark[k2] {
                    acc += self.wvals[k2] * u;
                }
            }
            let num = u_pk - acc;
            if num != 0.0 {
                self.wvals[k] = num / self.udiag[k];
                self.wmark[k] = true;
                self.wlist.push(k);
            }
        }
        let mut diag = self.spike[p];
        for &k in &self.wlist {
            diag -= self.wvals[k] * self.spike[self.prow[k]];
        }
        if !diag.is_finite() || diag.abs() <= PIVOT_TOL {
            for &k in &self.wlist {
                self.wmark[k] = false;
            }
            return false;
        }

        // Commit: drop row p's entries from the later columns (they are
        // absorbed by the row eta), rebuild column t from the spike, move it
        // to the back of the order, and append the row eta.
        for &k in &self.uorder[pos_t + 1..] {
            if let Some(ix) = self.ucol[k].iter().position(|&(k2, _)| k2 == t) {
                self.ucol[k].swap_remove(ix);
            }
        }
        let mut uc = Vec::with_capacity(self.spike_rows.len());
        for &r in &self.spike_rows {
            if r == p {
                continue;
            }
            let v = self.spike[r];
            if v != 0.0 {
                uc.push((self.id_of_row[r], v));
            }
        }
        self.ucol[t] = uc;
        self.udiag[t] = diag;
        self.uorder.remove(pos_t);
        self.uorder.push(t);
        for (pi, &k) in self.uorder.iter().enumerate().skip(pos_t) {
            self.upos[k] = pi;
        }
        let eta: Vec<(usize, f64)> = self
            .wlist
            .iter()
            .map(|&k| (self.prow[k], self.wvals[k]))
            .collect();
        for &k in &self.wlist {
            self.wmark[k] = false;
        }
        if !eta.is_empty() {
            self.ft.push((p, eta));
        }
        self.updates += 1;
        trace::count("lp.ft_updates", 1);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// xorshift for reproducible random bases.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }
        fn f(&mut self) -> f64 {
            (self.next() % 2001) as f64 / 1000.0 - 1.0
        }
    }

    /// A random sparse diagonally-weighted m×m matrix (always nonsingular).
    fn random_basis(m: usize, seed: u64) -> (CscMatrix, Vec<usize>) {
        let mut rng = Rng(seed | 1);
        let mut cols = vec![Vec::new(); m];
        for (j, col) in cols.iter_mut().enumerate() {
            let mut rows = vec![j];
            for _ in 0..(rng.next() % 3) {
                rows.push((rng.next() % m as u64) as usize);
            }
            rows.sort_unstable();
            rows.dedup();
            for r in rows {
                let base = if r == j { 4.0 } else { 0.0 };
                col.push((r, base + rng.f()));
            }
        }
        let basis = (0..m).collect();
        (CscMatrix::from_cols(m, &cols), basis)
    }

    fn dense_col(csc: &CscMatrix, j: usize, m: usize) -> Vec<f64> {
        let mut v = vec![0.0; m];
        let (rows, vals) = csc.col(j);
        for (&i, &a) in rows.iter().zip(vals) {
            v[i] = a;
        }
        v
    }

    /// FTRAN of every basis column must reproduce the unit vector of its
    /// slot: `B⁻¹ a_{basis[s]} = e_s`.
    fn assert_solves_identity(f: &mut LuFactor, csc: &CscMatrix, basis: &[usize]) {
        let m = basis.len();
        let mut out = IndexedVec::new(m);
        for (s, &j) in basis.iter().enumerate() {
            f.ftran_col(csc, j, &mut out);
            for i in 0..m {
                let want = if i == s { 1.0 } else { 0.0 };
                assert!(
                    (out.get(i) - want).abs() < 1e-7,
                    "slot {s}: entry {i} = {} (want {want})",
                    out.get(i)
                );
            }
        }
    }

    #[test]
    fn lu_round_trip_reconstructs_the_basis() {
        // Direct L·U == P·B·Q check: scatter U densely (original row/slot
        // coordinates), push each column back through L, compare with B.
        for seed in [3, 17, 94, 2024] {
            let m = 24;
            let (csc, basis) = random_basis(m, seed);
            let mut f = LuFactor::new(m);
            assert!(f.factor(&csc, &basis));
            let mut u_dense = vec![vec![0.0; m]; m]; // [row][slot]
            for k in 0..m {
                u_dense[f.prow[k]][f.pcol[k]] = f.udiag[k];
                for &(k2, u) in &f.ucol[k] {
                    u_dense[f.prow[k2]][f.pcol[k]] = u;
                }
            }
            for slot in 0..m {
                let mut v: Vec<f64> = (0..m).map(|i| u_dense[i][slot]).collect();
                // Apply L (inverse etas, reverse order): v[r] += mult·v[p].
                for k in (0..m).rev() {
                    let vp = v[f.prow[k]];
                    for &(r, mult) in &f.lcols[k] {
                        v[r] += mult * vp;
                    }
                }
                let b = dense_col(&csc, basis[slot], m);
                for i in 0..m {
                    assert!(
                        (v[i] - b[i]).abs() < 1e-8,
                        "seed {seed} slot {slot} row {i}: {} vs {}",
                        v[i],
                        b[i]
                    );
                }
            }
        }
    }

    #[test]
    fn ftran_and_btran_solve_random_bases() {
        for seed in [1, 7, 42, 1234, 99999] {
            let m = 30;
            let (csc, basis) = random_basis(m, seed);
            let mut f = LuFactor::new(m);
            assert!(f.factor(&csc, &basis), "seed {seed} should factor");
            assert_solves_identity(&mut f, &csc, &basis);
            // BTRAN: y = B⁻ᵀe_r  ⇔  yᵀ·a_{basis[s]} = δ_{rs}.
            let mut y = IndexedVec::new(m);
            for r in 0..m {
                f.btran_unit(r, &mut y);
                for (s, &j) in basis.iter().enumerate() {
                    let (rows, vals) = csc.col(j);
                    let dot: f64 = rows.iter().zip(vals).map(|(&i, &a)| y.get(i) * a).sum();
                    let want = if s == r { 1.0 } else { 0.0 };
                    assert!((dot - want).abs() < 1e-7, "seed {seed} r={r} s={s}: {dot}");
                }
            }
        }
    }

    #[test]
    fn forrest_tomlin_updates_track_basis_changes() {
        for seed in [5, 21, 77, 4242] {
            let m = 20;
            let (csc, basis) = random_basis(m, seed);
            // Spare columns to pivot in: shifted copies of the originals.
            let mut all_cols: Vec<Vec<(usize, f64)>> = (0..m)
                .map(|j| {
                    let (rows, vals) = csc.col(j);
                    rows.iter().zip(vals).map(|(&i, &a)| (i, a)).collect()
                })
                .collect();
            let mut rng = Rng(seed * 31 + 7);
            for j in 0..m {
                let mut col: Vec<(usize, f64)> = all_cols[j]
                    .iter()
                    .map(|&(i, a)| ((i + 1) % m, a + rng.f()))
                    .collect();
                col.sort_by_key(|&(i, _)| i);
                col.push(((j + m / 2) % m, 3.0 + rng.f()));
                col.sort_by_key(|&(i, _)| i);
                col.dedup_by(|&mut (i2, a2), &mut (i1, ref mut a1)| {
                    if i1 == i2 {
                        *a1 += a2;
                        true
                    } else {
                        false
                    }
                });
                all_cols.push(col);
            }
            let full = CscMatrix::from_cols(m, &all_cols);
            let mut basis = basis;
            let mut f = LuFactor::new(m);
            assert!(f.factor(&full, &basis));
            let mut d = IndexedVec::new(m);
            let mut applied = 0;
            for step in 0..8 {
                let slot = (seed as usize + step * 7) % m;
                let q = m + ((seed as usize + step * 3) % m);
                if basis.contains(&q) {
                    continue;
                }
                f.ftran_col(&full, q, &mut d);
                if d.get(slot).abs() < 1e-6 {
                    continue; // would be a singular replacement
                }
                if f.update(slot) {
                    basis[slot] = q;
                    applied += 1;
                } else {
                    basis[slot] = q;
                    assert!(f.factor(&full, &basis));
                }
                assert_solves_identity(&mut f, &full, &basis);
            }
            assert!(applied > 0, "seed {seed}: no FT update exercised");
        }
    }

    #[test]
    fn singular_basis_is_rejected_and_old_factor_survives() {
        let m = 4;
        let (csc, basis) = random_basis(m, 11);
        let mut f = LuFactor::new(m);
        assert!(f.factor(&csc, &basis));
        // A basis repeating one column is singular.
        let mut cols: Vec<Vec<(usize, f64)>> = (0..m)
            .map(|j| {
                let (rows, vals) = csc.col(j);
                rows.iter().zip(vals).map(|(&i, &a)| (i, a)).collect()
            })
            .collect();
        cols[1] = cols[0].clone();
        let bad = CscMatrix::from_cols(m, &cols);
        assert!(!f.factor(&bad, &basis));
        // The previous factorisation must still solve the old basis.
        assert_solves_identity(&mut f, &csc, &basis);
    }
}
