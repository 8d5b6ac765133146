//! Sparse building blocks for the revised-simplex kernel: a compressed
//! sparse column (CSC) constraint matrix, a row-pattern (CSR) index over
//! it, and an indexed sparse vector used as the FTRAN/BTRAN workspace.
//!
//! The alignment LPs the paper's mobile-offset formulation produces are
//! extremely sparse — each constraint row touches 2–4 variables — so the
//! kernel never stores the matrix densely. Columns are built **once** per
//! solve from the standard-form term lists; everything downstream (pricing
//! gathers, the LU factorisation, Devex candidate discovery) reads the
//! shared CSC/CSR views.

/// Compressed sparse column matrix. Row indices within a column are stored
/// in the order the standard-form builder produced them (ascending, after
/// its sort + dedup pass), which the pricing gathers rely on for bitwise
/// reproducibility with the historical `Vec<Vec<(row, value)>>` layout.
#[derive(Debug, Clone)]
pub(crate) struct CscMatrix {
    m: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CscMatrix {
    /// Build from per-column `(row, value)` term lists.
    pub fn from_cols(m: usize, cols: &[Vec<(usize, f64)>]) -> Self {
        let nnz: usize = cols.iter().map(Vec::len).sum();
        let mut col_ptr = Vec::with_capacity(cols.len() + 1);
        let mut row_idx = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        col_ptr.push(0);
        for col in cols {
            for &(i, a) in col {
                debug_assert!(i < m);
                row_idx.push(i);
                values.push(a);
            }
            col_ptr.push(row_idx.len());
        }
        CscMatrix {
            m,
            col_ptr,
            row_idx,
            values,
        }
    }

    pub fn m(&self) -> usize {
        self.m
    }

    pub fn ncols(&self) -> usize {
        self.col_ptr.len() - 1
    }

    /// The `(rows, values)` slices of column `j`.
    pub fn col(&self, j: usize) -> (&[usize], &[f64]) {
        let (lo, hi) = (self.col_ptr[j], self.col_ptr[j + 1]);
        (&self.row_idx[lo..hi], &self.values[lo..hi])
    }

    pub fn col_nnz(&self, j: usize) -> usize {
        self.col_ptr[j + 1] - self.col_ptr[j]
    }
}

/// Row-pattern index over the leading `limit` columns of a [`CscMatrix`]
/// (structural + slack; artificial columns are excluded because Devex never
/// prices them). Pattern only — values are gathered from the CSC side so
/// every dot product runs in the column's own entry order.
#[derive(Debug, Clone)]
pub(crate) struct CsrIndex {
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
}

impl CsrIndex {
    pub fn build(csc: &CscMatrix, limit: usize) -> Self {
        let m = csc.m();
        let mut counts = vec![0usize; m];
        for j in 0..limit {
            for &i in csc.col(j).0 {
                counts[i] += 1;
            }
        }
        let mut row_ptr = vec![0usize; m + 1];
        for i in 0..m {
            row_ptr[i + 1] = row_ptr[i] + counts[i];
        }
        let mut next = row_ptr.clone();
        let mut col_idx = vec![0usize; row_ptr[m]];
        for j in 0..limit {
            for &i in csc.col(j).0 {
                col_idx[next[i]] = j;
                next[i] += 1;
            }
        }
        CsrIndex { row_ptr, col_idx }
    }

    /// Columns (ascending) with a structural/slack entry in row `i`.
    pub fn row(&self, i: usize) -> &[usize] {
        &self.col_idx[self.row_ptr[i]..self.row_ptr[i + 1]]
    }
}

/// A dense-backed sparse vector: full value array plus the list of touched
/// indices, so clearing costs `O(touched)` instead of `O(n)` and solves can
/// iterate the support instead of sweeping every entry. The support is a
/// *superset* of the nonzeros (cancellation can zero a touched entry), so
/// consumers re-check `!= 0.0` — exactly the check the historical dense
/// sweeps performed, which keeps the comparison sequence identical.
#[derive(Debug)]
pub(crate) struct IndexedVec {
    vals: Vec<f64>,
    mark: Vec<bool>,
    touched: Vec<usize>,
}

impl IndexedVec {
    pub fn new(n: usize) -> Self {
        IndexedVec {
            vals: vec![0.0; n],
            mark: vec![false; n],
            touched: Vec::new(),
        }
    }

    /// Zero every touched entry and forget the support.
    pub fn clear(&mut self) {
        for &i in &self.touched {
            self.vals[i] = 0.0;
            self.mark[i] = false;
        }
        self.touched.clear();
    }

    #[inline]
    pub fn get(&self, i: usize) -> f64 {
        self.vals[i]
    }

    #[inline]
    pub fn set(&mut self, i: usize, v: f64) {
        if !self.mark[i] {
            self.mark[i] = true;
            self.touched.push(i);
        }
        self.vals[i] = v;
    }

    #[inline]
    pub fn add(&mut self, i: usize, delta: f64) {
        if !self.mark[i] {
            self.mark[i] = true;
            self.touched.push(i);
        }
        self.vals[i] += delta;
    }

    pub fn support(&self) -> &[usize] {
        &self.touched
    }

    pub fn sort_support(&mut self) {
        self.touched.sort_unstable();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csc_round_trips_columns() {
        let cols = vec![
            vec![(0, 1.0), (2, -3.0)],
            vec![],
            vec![(1, 2.0)],
            vec![(2, 4.0)],
        ];
        let csc = CscMatrix::from_cols(3, &cols);
        assert_eq!(csc.m(), 3);
        assert_eq!(csc.ncols(), 4);
        assert_eq!(csc.col(0), (&[0usize, 2][..], &[1.0, -3.0][..]));
        assert_eq!(csc.col_nnz(1), 0);
        assert_eq!(csc.col(2), (&[1usize][..], &[2.0][..]));
    }

    #[test]
    fn csr_row_patterns_cover_limit_only() {
        let cols = vec![
            vec![(0, 1.0), (1, 5.0)],
            vec![(1, 2.0)],
            vec![(0, 7.0)], // excluded by limit
        ];
        let csc = CscMatrix::from_cols(2, &cols);
        let csr = CsrIndex::build(&csc, 2);
        assert_eq!(csr.row(0), &[0]);
        assert_eq!(csr.row(1), &[0, 1]);
    }

    #[test]
    fn indexed_vec_tracks_support_and_clears() {
        let mut v = IndexedVec::new(5);
        v.add(3, 2.0);
        v.add(1, -1.0);
        v.add(3, -2.0); // cancels: stays in support, value 0
        assert_eq!(v.support(), &[3, 1]);
        assert_eq!(v.get(3), 0.0);
        assert_eq!(v.get(1), -1.0);
        v.sort_support();
        assert_eq!(v.support(), &[1, 3]);
        v.clear();
        assert!(v.support().is_empty());
        assert!((0..5).all(|i| v.get(i) == 0.0));
    }
}
