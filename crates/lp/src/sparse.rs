//! Sparse building blocks for the revised-simplex kernel: a compressed
//! sparse column (CSC) constraint matrix, a row-pattern (CSR) index over
//! it, and an indexed sparse vector used as the FTRAN/BTRAN workspace.
//!
//! The alignment LPs the paper's mobile-offset formulation produces are
//! extremely sparse — each constraint row touches 2–4 variables — so the
//! kernel never stores the matrix densely. Columns are written **once** per
//! solve, straight into the CSC arrays (`revised::Standard`); everything
//! downstream (the crash, pricing gathers, the LU factorisation, Devex
//! candidate discovery) reads the shared CSC/CSR views.

/// Compressed sparse column matrix. Row indices within a column are stored
/// in the order the standard-form builder produced them (ascending, one
/// entry per row), which the pricing gathers rely on for bitwise
/// reproducibility.
#[derive(Debug, Clone)]
pub(crate) struct CscMatrix {
    m: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CscMatrix {
    /// The matrix whose column `j` is rows `row_idx[col_ptr[j]..col_ptr[j + 1]]`
    /// with the values beside them.
    pub fn from_parts(
        m: usize,
        col_ptr: Vec<usize>,
        row_idx: Vec<usize>,
        values: Vec<f64>,
    ) -> Self {
        debug_assert_eq!(col_ptr.last(), Some(&row_idx.len()));
        debug_assert!(row_idx.len() == values.len() && row_idx.iter().all(|&i| i < m));
        CscMatrix {
            m,
            col_ptr,
            row_idx,
            values,
        }
    }

    /// Build from per-column `(row, value)` term lists.
    #[cfg(test)]
    pub fn from_cols(m: usize, cols: &[Vec<(usize, f64)>]) -> Self {
        let mut csc = CscMatrix::from_parts(m, vec![0], Vec::new(), Vec::new());
        for col in cols {
            for &(i, a) in col {
                csc.row_idx.push(i);
                csc.values.push(a);
            }
            csc.col_ptr.push(csc.row_idx.len());
        }
        csc
    }

    /// Append a column with the one entry `value` in row `i` (a slack or an
    /// artificial).
    pub fn push_unit_col(&mut self, i: usize, value: f64) {
        debug_assert!(i < self.m);
        self.row_idx.push(i);
        self.values.push(value);
        self.col_ptr.push(self.row_idx.len());
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
