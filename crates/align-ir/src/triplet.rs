//! Regular index ranges `l:h:s` ("triplets") and their closed-form sums.
//!
//! Triplets appear in three roles in the paper:
//!
//! * as Fortran 90 array *sections* (`A(2:2*N:2)`),
//! * as *iteration ranges* of `do` loops (`do k = l, h, s`),
//! * as the *extent of replication* along a template axis (Section 5).
//!
//! Section 4.3 needs the sums `sigma_0 = Σ 1`, `sigma_1 = Σ i` and
//! `sigma_2 = Σ i²` over a triplet in closed form; they are provided here and
//! verified against direct summation in the tests.

use crate::affine::Affine;
use std::fmt;

/// A constant regular range `l:h:s`.
///
/// `stride` must be non-zero. The range is empty when it contains no points
/// (`h < l` with positive stride, `h > l` with negative stride).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Triplet {
    /// Lower (first) index.
    pub lo: i64,
    /// Upper (inclusive) bound; the last element may fall short of it when
    /// the stride does not divide the span.
    pub hi: i64,
    /// Step between consecutive elements; non-zero, may be negative.
    pub stride: i64,
}

impl Triplet {
    /// `l:h:s`.
    pub fn new(lo: i64, hi: i64, stride: i64) -> Self {
        assert!(stride != 0, "triplet stride must be non-zero");
        Triplet { lo, hi, stride }
    }

    /// `l:h` (unit stride).
    pub fn range(lo: i64, hi: i64) -> Self {
        Self::new(lo, hi, 1)
    }

    /// The single index `i` (`i:i:1`).
    pub fn single(i: i64) -> Self {
        Self::new(i, i, 1)
    }

    /// Number of indices in the range (`sigma_0` of Section 4.3).
    pub fn count(&self) -> i64 {
        if self.stride > 0 {
            if self.hi < self.lo {
                0
            } else {
                (self.hi - self.lo) / self.stride + 1
            }
        } else if self.hi > self.lo {
            0
        } else {
            (self.lo - self.hi) / (-self.stride) + 1
        }
    }

    /// True if the range contains no indices.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// The last index actually contained in the range (None if empty).
    pub fn last(&self) -> Option<i64> {
        let n = self.count();
        if n == 0 {
            None
        } else {
            Some(self.lo + (n - 1) * self.stride)
        }
    }

    /// True if `i` is one of the indices of the range.
    pub fn contains(&self, i: i64) -> bool {
        let n = self.count();
        if n == 0 {
            return false;
        }
        let delta = i - self.lo;
        if delta % self.stride != 0 {
            return false;
        }
        let t = delta / self.stride;
        t >= 0 && t < n
    }

    /// Iterate over the indices in order.
    pub fn iter(&self) -> impl Iterator<Item = i64> + '_ {
        let n = self.count();
        (0..n).map(move |t| self.lo + t * self.stride)
    }

    /// `sigma_1 = Σ_{i in l:h:s} i` in closed form.
    pub fn sum_i(&self) -> i64 {
        let n = self.count();
        // Σ (l + t s) for t = 0..n-1 = n l + s n(n-1)/2
        n * self.lo + self.stride * n * (n - 1) / 2
    }

    /// `sigma_2 = Σ_{i in l:h:s} i²` in closed form.
    pub fn sum_i_sq(&self) -> i64 {
        let n = self.count();
        let l = self.lo;
        let s = self.stride;
        // Σ (l + t s)² = n l² + 2 l s Σt + s² Σt²
        n * l * l + 2 * l * s * (n * (n - 1) / 2) + s * s * ((n - 1) * n * (2 * n - 1) / 6)
    }

    /// Split the range into `m` sub-ranges of (nearly) equal cardinality, in
    /// order. Used by the fixed-partitioning mobile-offset algorithm
    /// (Section 4.2). Fewer than `m` pieces are returned when the range has
    /// fewer than `m` elements; empty input yields no pieces.
    pub fn split(&self, m: usize) -> Vec<Triplet> {
        let n = self.count();
        if n == 0 || m == 0 {
            return Vec::new();
        }
        let m = (m as i64).min(n);
        let mut pieces = Vec::with_capacity(m as usize);
        let base = n / m;
        let extra = n % m;
        let mut start_ord = 0i64;
        for p in 0..m {
            let len = base + if p < extra { 1 } else { 0 };
            let lo = self.lo + start_ord * self.stride;
            let hi = self.lo + (start_ord + len - 1) * self.stride;
            pieces.push(Triplet::new(lo, hi, self.stride));
            start_ord += len;
        }
        pieces
    }

    /// Split the range at ordinal position `at` (0-based, counted in
    /// elements): the first piece has `at` elements. Either piece may be
    /// absent when `at` is 0 or ≥ the element count. Used by the
    /// zero-crossing-tracking and recursive-refinement algorithms.
    pub fn split_at(&self, at: i64) -> (Option<Triplet>, Option<Triplet>) {
        let n = self.count();
        let at = at.clamp(0, n);
        let first = if at > 0 {
            Some(Triplet::new(
                self.lo,
                self.lo + (at - 1) * self.stride,
                self.stride,
            ))
        } else {
            None
        };
        let second = if at < n {
            Some(Triplet::new(
                self.lo + at * self.stride,
                self.lo + (n - 1) * self.stride,
                self.stride,
            ))
        } else {
            None
        };
        (first, second)
    }
}

impl fmt::Display for Triplet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.stride == 1 {
            write!(f, "{}:{}", self.lo, self.hi)
        } else {
            write!(f, "{}:{}:{}", self.lo, self.hi, self.stride)
        }
    }
}

/// A regular range whose bounds (and stride) are affine in the LIVs of the
/// enclosing loops: the general form of a Fortran 90 section subscript such
/// as `A(k : k+99)` or `A(1 : 20*k : k)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AffineTriplet {
    /// Lower bound.
    pub lo: Affine,
    /// Upper (inclusive) bound.
    pub hi: Affine,
    /// Stride. The paper's Example 5 needs a stride affine in the LIV
    /// (`A(1:20*k:k)`); strides are therefore affine too.
    pub stride: Affine,
}

impl AffineTriplet {
    /// `lo:hi:stride` with affine components.
    pub fn new(lo: impl Into<Affine>, hi: impl Into<Affine>, stride: impl Into<Affine>) -> Self {
        AffineTriplet {
            lo: lo.into(),
            hi: hi.into(),
            stride: stride.into(),
        }
    }

    /// `lo:hi` with unit stride.
    pub fn range(lo: impl Into<Affine>, hi: impl Into<Affine>) -> Self {
        Self::new(lo, hi, 1)
    }

    /// A triplet with constant components.
    pub fn constant(t: Triplet) -> Self {
        Self::new(
            Affine::constant(t.lo),
            Affine::constant(t.hi),
            Affine::constant(t.stride),
        )
    }

    /// Evaluate the bounds at a point of the iteration space.
    pub fn at(&self, env: &[(crate::LivId, i64)]) -> Triplet {
        Triplet::new(
            self.lo.eval_assoc(env),
            self.hi.eval_assoc(env),
            self.stride.eval_assoc(env),
        )
    }

    /// The extent (number of elements) as an affine form, when that is
    /// possible: requires a constant stride that divides `hi - lo` as
    /// polynomials. Returns `None` otherwise (callers then fall back to
    /// per-iteration evaluation).
    pub fn extent_affine(&self) -> Option<Affine> {
        if !self.stride.is_constant() {
            return None;
        }
        let s = self.stride.constant_part();
        if s == 0 {
            return None;
        }
        let span = &self.hi - &self.lo;
        // All coefficients (and the constant) must be divisible by s for the
        // extent to stay affine.
        if span.constant_part() % s != 0 || span.terms().any(|(_, c)| c % s != 0) {
            return None;
        }
        let scaled = Affine::new(
            span.constant_part() / s,
            span.terms().map(|(l, c)| (l, c / s)),
        );
        Some(scaled + Affine::constant(1))
    }

    /// True if all three components are constants.
    pub fn is_constant(&self) -> bool {
        self.lo.is_constant() && self.hi.is_constant() && self.stride.is_constant()
    }
}

impl fmt::Display for AffineTriplet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.stride == Affine::constant(1) {
            write!(f, "{}:{}", self.lo, self.hi)
        } else {
            write!(f, "{}:{}:{}", self.lo, self.hi, self.stride)
        }
    }
}

impl From<Triplet> for AffineTriplet {
    fn from(t: Triplet) -> Self {
        AffineTriplet::constant(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::affine::LivId;

    #[test]
    fn count_and_iteration_agree() {
        for (lo, hi, s) in [
            (1, 10, 1),
            (1, 10, 3),
            (5, 4, 1),
            (0, 0, 1),
            (10, 1, -2),
            (-5, 5, 2),
            (1, 100, 7),
        ] {
            let t = Triplet::new(lo, hi, s);
            let listed: Vec<i64> = t.iter().collect();
            assert_eq!(listed.len() as i64, t.count(), "count mismatch for {t}");
            for &i in &listed {
                assert!(t.contains(i), "{t} should contain {i}");
            }
            assert_eq!(t.last(), listed.last().copied());
        }
    }

    #[test]
    fn contains_rejects_off_stride_and_out_of_range() {
        let t = Triplet::new(2, 10, 3); // 2, 5, 8
        assert!(t.contains(2));
        assert!(t.contains(8));
        assert!(!t.contains(3));
        assert!(!t.contains(11));
        assert!(!t.contains(-1));
    }

    #[test]
    fn closed_form_sums_match_direct_summation() {
        for (lo, hi, s) in [
            (1, 100, 1),
            (1, 100, 3),
            (7, 63, 4),
            (-10, 10, 5),
            (3, 2, 1),
            (9, -9, -3),
        ] {
            let t = Triplet::new(lo, hi, s);
            let direct_1: i64 = t.iter().sum();
            let direct_2: i64 = t.iter().map(|i| i * i).sum();
            assert_eq!(t.sum_i(), direct_1, "sigma_1 mismatch for {t}");
            assert_eq!(t.sum_i_sq(), direct_2, "sigma_2 mismatch for {t}");
        }
    }

    #[test]
    fn paper_sigma_formulas_equivalent() {
        // The paper states sigma_1 = (s σ0² + (2l − s) σ0)/2 and
        // sigma_2 = (2s²σ0³ + (6sl − 3s²)σ0² + (6l² − 6sl + s²)σ0)/6 for the
        // exact-division case; confirm our formulas agree there.
        for (lo, hi, s) in [(1, 100, 1), (2, 20, 2), (5, 50, 5)] {
            let t = Triplet::new(lo, hi, s);
            let s0 = t.count();
            let paper_s1 = (s * s0 * s0 + (2 * lo - s) * s0) / 2;
            let paper_s2 = (2 * s * s * s0 * s0 * s0
                + (6 * s * lo - 3 * s * s) * s0 * s0
                + (6 * lo * lo - 6 * s * lo + s * s) * s0)
                / 6;
            assert_eq!(t.sum_i(), paper_s1);
            assert_eq!(t.sum_i_sq(), paper_s2);
        }
    }

    #[test]
    fn split_preserves_elements() {
        let t = Triplet::new(1, 100, 3);
        for m in 1..=7 {
            let pieces = t.split(m);
            let merged: Vec<i64> = pieces
                .iter()
                .flat_map(|p| p.iter().collect::<Vec<_>>())
                .collect();
            let original: Vec<i64> = t.iter().collect();
            assert_eq!(merged, original, "split({m}) lost elements");
            assert!(pieces.len() <= m);
        }
    }

    #[test]
    fn split_small_ranges() {
        let t = Triplet::range(1, 2);
        assert_eq!(t.split(5).len(), 2);
        let empty = Triplet::range(3, 1);
        assert!(empty.split(3).is_empty());
    }

    #[test]
    fn split_at_partitions() {
        let t = Triplet::new(1, 9, 2); // 1 3 5 7 9
        let (a, b) = t.split_at(2);
        assert_eq!(a.unwrap().iter().collect::<Vec<_>>(), vec![1, 3]);
        assert_eq!(b.unwrap().iter().collect::<Vec<_>>(), vec![5, 7, 9]);
        let (a, b) = t.split_at(0);
        assert!(a.is_none());
        assert_eq!(b.unwrap().count(), 5);
        let (a, b) = t.split_at(99);
        assert_eq!(a.unwrap().count(), 5);
        assert!(b.is_none());
    }

    #[test]
    fn affine_triplet_evaluation_fig1() {
        // V(k : k+99): lo = k, hi = k + 99
        let k = LivId(0);
        let sec = AffineTriplet::range(Affine::liv(k), Affine::new(99, [(k, 1)]));
        let at_5 = sec.at(&[(k, 5)]);
        assert_eq!(at_5, Triplet::range(5, 104));
        assert_eq!(sec.extent_affine(), Some(Affine::constant(100)));
    }

    #[test]
    fn affine_triplet_extent_example5() {
        // A(1 : 20k : k): extent = (20k - 1)/k + 1, not affine -> None.
        let k = LivId(0);
        let sec = AffineTriplet::new(
            Affine::constant(1),
            Affine::new(0, [(k, 20)]),
            Affine::liv(k),
        );
        assert_eq!(sec.extent_affine(), None);
        assert_eq!(sec.at(&[(k, 4)]), Triplet::new(1, 80, 4));
        assert_eq!(sec.at(&[(k, 4)]).count(), 20);
    }

    #[test]
    fn affine_triplet_extent_divisibility() {
        let k = LivId(0);
        // 1 : 2k : 2 -> extent k  (span 2k-1 has constant -1 not divisible by 2)
        let sec = AffineTriplet::new(
            Affine::constant(1),
            Affine::new(0, [(k, 2)]),
            Affine::constant(2),
        );
        assert_eq!(sec.extent_affine(), None);
        // 2 : 2k : 2 -> extent k
        let sec = AffineTriplet::new(
            Affine::constant(2),
            Affine::new(0, [(k, 2)]),
            Affine::constant(2),
        );
        assert_eq!(sec.extent_affine(), Some(Affine::liv(k)));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Triplet::range(1, 9).to_string(), "1:9");
        assert_eq!(Triplet::new(1, 9, 2).to_string(), "1:9:2");
        let k = LivId(0);
        let a = AffineTriplet::range(Affine::liv(k), Affine::new(99, [(k, 1)]));
        assert_eq!(a.to_string(), "i0:99+i0");
    }

    #[test]
    #[should_panic(expected = "stride must be non-zero")]
    fn zero_stride_panics() {
        Triplet::new(1, 5, 0);
    }
}
