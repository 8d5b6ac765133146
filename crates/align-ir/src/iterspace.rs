//! Iteration spaces: the set of LIV vectors an ADG edge is traversed for.
//!
//! An edge inside a `k`-deep loop nest is labelled with a `k`-dimensional
//! iteration space whose elements are the vectors of values taken by the loop
//! induction variables (Section 2.2.3). Inner-loop bounds may depend on outer
//! LIVs (imperfect / trapezoidal nests), so each level carries an
//! [`AffineTriplet`] rather than a constant range.

use crate::affine::LivId;
use crate::triplet::{AffineTriplet, Triplet};
use std::fmt;
use std::ops::ControlFlow;

/// One level of a loop nest: `do liv = range`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopLevel {
    /// The induction variable of this loop.
    pub liv: LivId,
    /// Its range; bounds may reference LIVs of *outer* levels only.
    pub range: AffineTriplet,
}

/// An iteration space: the ordered list of loop levels enclosing a program
/// point, outermost first. A point outside all loops has an empty space,
/// which by convention contains exactly one (empty) LIV vector.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct IterationSpace {
    levels: Vec<LoopLevel>,
}

impl IterationSpace {
    /// The empty (scalar) iteration space — one point, no LIVs.
    pub fn scalar() -> Self {
        IterationSpace { levels: Vec::new() }
    }

    /// Build from explicit levels (outermost first).
    pub fn new(levels: Vec<LoopLevel>) -> Self {
        IterationSpace { levels }
    }

    /// Append an inner loop level, returning the extended space.
    pub fn enter_loop(&self, liv: LivId, range: AffineTriplet) -> Self {
        let mut levels = self.levels.clone();
        assert!(
            !levels.iter().any(|l| l.liv == liv),
            "LIV {liv} already bound in this nest"
        );
        levels.push(LoopLevel { liv, range });
        IterationSpace { levels }
    }

    /// Nesting depth `k`.
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// The LIVs of the nest, outermost first.
    pub fn livs(&self) -> Vec<LivId> {
        self.levels.iter().map(|l| l.liv).collect()
    }

    /// The levels, outermost first.
    pub fn levels(&self) -> &[LoopLevel] {
        &self.levels
    }

    /// True if this space contains (is a subset of the LIVs of) `other`,
    /// i.e. `other` is an enclosing prefix of this nest.
    pub fn extends(&self, other: &IterationSpace) -> bool {
        other.levels.len() <= self.levels.len()
            && other.levels.iter().zip(&self.levels).all(|(a, b)| a == b)
    }

    /// Enumerate every LIV vector of the space, outermost LIV first.
    ///
    /// For trapezoidal nests the inner bounds are re-evaluated for every
    /// assignment of the outer LIVs. The empty space yields one empty vector.
    /// Callers that walk the points once should prefer
    /// [`IterationSpace::for_each_point`], which streams them without
    /// materialising the whole `Vec<Vec<_>>`.
    pub fn points(&self) -> Vec<Vec<(LivId, i64)>> {
        let mut out = Vec::new();
        self.for_each_point(|p| out.push(p.to_vec()));
        out
    }

    /// Visit every LIV vector of the space in enumeration order without
    /// allocating per point: the closure borrows a scratch association list
    /// that is reused across calls. This is the streaming counterpart of
    /// [`IterationSpace::points`] for the cost model and the simulator, whose
    /// walks over long loops dominated the profile when every point was a
    /// fresh heap vector.
    pub fn for_each_point(&self, mut visit: impl FnMut(&[(LivId, i64)])) {
        let _ = self.try_for_each_point(|point| {
            visit(point);
            ControlFlow::Continue(())
        });
    }

    /// [`IterationSpace::for_each_point`] for a visitor that may have seen
    /// enough: the walk stops at the first `Break`, which is returned.
    pub fn try_for_each_point(
        &self,
        mut visit: impl FnMut(&[(LivId, i64)]) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        let mut current: Vec<(LivId, i64)> = Vec::with_capacity(self.levels.len());
        self.enumerate(0, &mut current, &mut visit)
    }

    fn enumerate(
        &self,
        level: usize,
        current: &mut Vec<(LivId, i64)>,
        visit: &mut impl FnMut(&[(LivId, i64)]) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        if level == self.levels.len() {
            return visit(current);
        }
        let lvl = &self.levels[level];
        let range = lvl.range.at(current);
        for v in range.iter() {
            current.push((lvl.liv, v));
            self.enumerate(level + 1, current, visit)?;
            current.pop();
        }
        ControlFlow::Continue(())
    }

    /// The first LIV vector in enumeration order (`None` for an empty
    /// space), found without walking the rest.
    pub fn first_point(&self) -> Option<Vec<(LivId, i64)>> {
        let mut current = Vec::with_capacity(self.levels.len());
        self.extreme_point(0, &mut current, false)
            .then_some(current)
    }

    /// The last LIV vector in enumeration order (`None` for an empty space).
    pub fn last_point(&self) -> Option<Vec<(LivId, i64)>> {
        let mut current = Vec::with_capacity(self.levels.len());
        self.extreme_point(0, &mut current, true).then_some(current)
    }

    /// Depth-first descent to the first (or, with `reverse`, last) point:
    /// an outer value whose inner ranges turn out empty is skipped, exactly
    /// as the full enumeration would skip it.
    fn extreme_point(&self, level: usize, current: &mut Vec<(LivId, i64)>, reverse: bool) -> bool {
        if level == self.levels.len() {
            return true;
        }
        let lvl = &self.levels[level];
        let range = lvl.range.at(current);
        let n = range.count();
        for t in 0..n {
            let t = if reverse { n - 1 - t } else { t };
            current.push((lvl.liv, range.lo + t * range.stride));
            if self.extreme_point(level + 1, current, reverse) {
                return true;
            }
            current.pop();
        }
        false
    }

    /// Visit every point of the outermost `depth` levels in enumeration
    /// order, each with the number of points of the whole space that extend
    /// it (0 when an inner range is empty under it) — the sizes of the
    /// consecutive runs the full enumeration spends on one setting of the
    /// outer LIVs, without walking the runs. `depth = 0` is the one empty
    /// prefix with [`IterationSpace::size`]; at the full depth every point
    /// comes with 1.
    pub fn for_each_prefix(&self, depth: usize, mut visit: impl FnMut(&[(LivId, i64)], u64)) {
        assert!(depth <= self.levels.len(), "prefix deeper than the nest");
        let mut current = Vec::with_capacity(self.levels.len());
        self.prefixes(depth, &mut current, &mut visit);
    }

    fn prefixes(
        &self,
        depth: usize,
        current: &mut Vec<(LivId, i64)>,
        visit: &mut impl FnMut(&[(LivId, i64)], u64),
    ) {
        let level = current.len();
        if level == depth {
            let extending = self.count_from(depth, current);
            return visit(current, extending);
        }
        let lvl = &self.levels[level];
        for v in lvl.range.at(current).iter() {
            current.push((lvl.liv, v));
            self.prefixes(depth, current, visit);
            current.pop();
        }
    }

    /// Total number of points (product of trip counts; evaluated exactly,
    /// including trapezoidal nests).
    pub fn size(&self) -> u64 {
        self.count_from(0, &mut Vec::new())
    }

    fn count_from(&self, level: usize, current: &mut Vec<(LivId, i64)>) -> u64 {
        if level == self.levels.len() {
            return 1;
        }
        let lvl = &self.levels[level];
        // Fast path: inner levels independent of this LIV ⇒ multiply.
        let inner_independent = self.levels[level + 1..].iter().all(|inner| {
            inner.range.lo.coeff(lvl.liv) == 0
                && inner.range.hi.coeff(lvl.liv) == 0
                && inner.range.stride.coeff(lvl.liv) == 0
        });
        let range = lvl.range.at(current);
        if inner_independent {
            let n = range.count().max(0) as u64;
            if n == 0 {
                return 0;
            }
            // Evaluate the rest once with an arbitrary representative value.
            current.push((lvl.liv, range.lo));
            let rest = self.count_from(level + 1, current);
            current.pop();
            return n * rest;
        }
        let mut total = 0;
        for v in range.iter() {
            current.push((lvl.liv, v));
            total += self.count_from(level + 1, current);
            current.pop();
        }
        total
    }

    /// Split each level's range into `m` equal pieces and return the Cartesian
    /// product of the pieces: the `m^k` sub-spaces of Section 4.4's
    /// decomposition (for constant-bound nests). Levels whose bounds depend
    /// on outer LIVs are *not* split (they appear whole in every sub-space),
    /// which keeps the decomposition well defined for trapezoidal nests.
    pub fn subranges(&self, m: usize) -> Vec<IterationSpace> {
        let per_level: Vec<Vec<AffineTriplet>> = self
            .levels
            .iter()
            .map(|lvl| {
                if lvl.range.is_constant() {
                    let t = lvl.range.at(&[]);
                    let pieces = t.split(m);
                    if pieces.is_empty() {
                        vec![lvl.range.clone()]
                    } else {
                        pieces.into_iter().map(AffineTriplet::constant).collect()
                    }
                } else {
                    vec![lvl.range.clone()]
                }
            })
            .collect();
        let mut spaces = vec![Vec::<LoopLevel>::new()];
        for (lvl, options) in self.levels.iter().zip(&per_level) {
            let mut next = Vec::with_capacity(spaces.len() * options.len());
            for base in &spaces {
                for opt in options {
                    let mut s = base.clone();
                    s.push(LoopLevel {
                        liv: lvl.liv,
                        range: opt.clone(),
                    });
                    next.push(s);
                }
            }
            spaces = next;
        }
        spaces.into_iter().map(IterationSpace::new).collect()
    }

    /// Convenience constructor for a single constant-bound loop
    /// `do liv = lo, hi, stride`.
    pub fn single_loop(liv: LivId, lo: i64, hi: i64, stride: i64) -> Self {
        IterationSpace::scalar()
            .enter_loop(liv, AffineTriplet::constant(Triplet::new(lo, hi, stride)))
    }
}

impl fmt::Display for IterationSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.levels.is_empty() {
            return write!(f, "{{scalar}}");
        }
        let parts: Vec<String> = self
            .levels
            .iter()
            .map(|l| format!("{}={}", l.liv, l.range))
            .collect();
        write!(f, "{{{}}}", parts.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::affine::Affine;

    fn k() -> LivId {
        LivId(0)
    }
    fn j() -> LivId {
        LivId(1)
    }

    #[test]
    fn scalar_space_has_one_point() {
        let s = IterationSpace::scalar();
        assert_eq!(s.depth(), 0);
        assert_eq!(s.size(), 1);
        assert_eq!(s.points(), vec![Vec::new()]);
    }

    #[test]
    fn single_loop_enumeration() {
        let s = IterationSpace::single_loop(k(), 1, 5, 2); // 1, 3, 5
        assert_eq!(s.size(), 3);
        let pts = s.points();
        assert_eq!(pts.len(), 3);
        assert_eq!(pts[0], vec![(k(), 1)]);
        assert_eq!(pts[2], vec![(k(), 5)]);
    }

    #[test]
    fn rectangular_nest_size_is_product() {
        let s = IterationSpace::single_loop(k(), 1, 10, 1)
            .enter_loop(j(), AffineTriplet::constant(Triplet::range(1, 7)));
        assert_eq!(s.depth(), 2);
        assert_eq!(s.size(), 70);
        assert_eq!(s.points().len(), 70);
        assert_eq!(s.livs(), vec![k(), j()]);
    }

    #[test]
    fn trapezoidal_nest() {
        // do k = 1,4 ; do j = 1,k  -> 1+2+3+4 = 10 points
        let s = IterationSpace::single_loop(k(), 1, 4, 1).enter_loop(
            j(),
            AffineTriplet::range(Affine::constant(1), Affine::liv(k())),
        );
        assert_eq!(s.size(), 10);
        let pts = s.points();
        assert_eq!(pts.len(), 10);
        assert!(pts.contains(&vec![(k(), 4), (j(), 4)]));
        assert!(!pts.contains(&vec![(k(), 2), (j(), 3)]));
    }

    #[test]
    fn first_and_last_point_match_the_enumeration() {
        let spaces = [
            IterationSpace::scalar(),
            IterationSpace::single_loop(k(), 1, 5, 2),
            IterationSpace::single_loop(k(), 9, 2, -3),
            IterationSpace::single_loop(k(), 5, 1, 1), // empty
            IterationSpace::single_loop(k(), 1, 10, 1)
                .enter_loop(j(), AffineTriplet::constant(Triplet::range(1, 7))),
            // do k = 0,4 ; do j = 2,k: empty inner ranges at k = 0, 1, so the
            // first point is at k = 2.
            IterationSpace::single_loop(k(), 0, 4, 1).enter_loop(
                j(),
                AffineTriplet::range(Affine::constant(2), Affine::liv(k())),
            ),
            // do k = 0,4 ; do j = k,2: empty inner ranges at the *end*.
            IterationSpace::single_loop(k(), 0, 4, 1).enter_loop(
                j(),
                AffineTriplet::range(Affine::liv(k()), Affine::constant(2)),
            ),
        ];
        for s in &spaces {
            let pts = s.points();
            assert_eq!(s.first_point(), pts.first().cloned(), "{s}");
            assert_eq!(s.last_point(), pts.last().cloned(), "{s}");
        }
    }

    #[test]
    fn empty_loop_gives_empty_space() {
        let s = IterationSpace::single_loop(k(), 5, 1, 1);
        assert_eq!(s.size(), 0);
        assert!(s.points().is_empty());
    }

    #[test]
    fn extends_relation() {
        let outer = IterationSpace::single_loop(k(), 1, 10, 1);
        let inner = outer.enter_loop(j(), AffineTriplet::constant(Triplet::range(1, 3)));
        assert!(inner.extends(&outer));
        assert!(inner.extends(&IterationSpace::scalar()));
        assert!(!outer.extends(&inner));
        assert!(outer.extends(&outer));
    }

    #[test]
    fn subranges_cover_space() {
        let s = IterationSpace::single_loop(k(), 1, 100, 1)
            .enter_loop(j(), AffineTriplet::constant(Triplet::range(1, 30)));
        let subs = s.subranges(3);
        assert_eq!(subs.len(), 9);
        let total: u64 = subs.iter().map(|x| x.size()).sum();
        assert_eq!(total, s.size());
    }

    #[test]
    fn subranges_trapezoidal_inner_not_split() {
        let s = IterationSpace::single_loop(k(), 1, 9, 1).enter_loop(
            j(),
            AffineTriplet::range(Affine::constant(1), Affine::liv(k())),
        );
        let subs = s.subranges(3);
        // outer split into 3, inner kept whole -> 3 sub-spaces
        assert_eq!(subs.len(), 3);
        let total: u64 = subs.iter().map(|x| x.size()).sum();
        assert_eq!(total, s.size());
    }

    #[test]
    fn streaming_matches_materialised_points() {
        let s = IterationSpace::single_loop(k(), 1, 4, 1).enter_loop(
            j(),
            AffineTriplet::range(Affine::constant(1), Affine::liv(k())),
        );
        let mut streamed = Vec::new();
        s.for_each_point(|p| streamed.push(p.to_vec()));
        assert_eq!(streamed, s.points());
        let mut count = 0u64;
        IterationSpace::scalar().for_each_point(|p| {
            assert!(p.is_empty());
            count += 1;
        });
        assert_eq!(count, 1);
    }

    #[test]
    fn prefixes_come_with_the_runs_of_the_full_enumeration() {
        let spaces = [
            IterationSpace::scalar(),
            IterationSpace::single_loop(k(), 9, 2, -3),
            IterationSpace::single_loop(k(), 5, 1, 1), // empty
            IterationSpace::single_loop(k(), 1, 10, 1)
                .enter_loop(j(), AffineTriplet::constant(Triplet::range(1, 7))),
            // Trapezoidal, with empty inner ranges at k = 0, 1.
            IterationSpace::single_loop(k(), 0, 4, 1).enter_loop(
                j(),
                AffineTriplet::range(Affine::constant(2), Affine::liv(k())),
            ),
            // Three deep, the innermost bound following the outermost LIV.
            IterationSpace::single_loop(k(), 1, 3, 1)
                .enter_loop(j(), AffineTriplet::constant(Triplet::range(1, 2)))
                .enter_loop(
                    LivId(2),
                    AffineTriplet::range(Affine::constant(1), Affine::liv(k())),
                ),
        ];
        for s in &spaces {
            let points = s.points();
            for depth in 0..=s.depth() {
                // The runs of equal `depth`-prefix in the enumeration.
                let mut want: Vec<(Vec<(LivId, i64)>, u64)> = Vec::new();
                for p in &points {
                    match want.last_mut() {
                        Some((prefix, n)) if *prefix == p[..depth] => *n += 1,
                        _ => want.push((p[..depth].to_vec(), 1)),
                    }
                }
                let mut got = Vec::new();
                s.for_each_prefix(depth, |prefix, n| {
                    if n > 0 {
                        got.push((prefix.to_vec(), n));
                    }
                });
                assert_eq!(got, want, "{s} at depth {depth}");
            }
        }
    }

    #[test]
    fn a_break_stops_the_walk_in_the_middle_of_an_inner_loop() {
        let s = IterationSpace::single_loop(k(), 1, 4, 1).enter_loop(
            j(),
            AffineTriplet::range(Affine::constant(1), Affine::liv(k())),
        );
        let mut seen = Vec::new();
        let stopped = s.try_for_each_point(|p| {
            seen.push(p.to_vec());
            if seen.len() == 5 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        assert_eq!(stopped, ControlFlow::Break(()));
        assert_eq!(seen, s.points()[..5]);
        let walked = s.try_for_each_point(|_| ControlFlow::Continue(()));
        assert_eq!(walked, ControlFlow::Continue(()));
    }

    #[test]
    #[should_panic(expected = "already bound")]
    fn duplicate_liv_rejected() {
        IterationSpace::single_loop(k(), 1, 5, 1)
            .enter_loop(k(), AffineTriplet::constant(Triplet::range(1, 5)));
    }

    #[test]
    fn display_format() {
        let s = IterationSpace::single_loop(k(), 1, 100, 1);
        assert_eq!(s.to_string(), "{i0=1:100}");
        assert_eq!(IterationSpace::scalar().to_string(), "{scalar}");
    }
}
