//! Data weights: the size of the object flowing along an ADG edge, as a
//! function of the loop induction variables.
//!
//! Section 2.4 restricts extents to be affine in the LIVs so the *size* of an
//! object (a product of per-axis extents) is polynomial in the LIVs.
//! [`WeightPoly`] represents exactly that: a non-negative product of affine
//! factors. Section 4.3 needs weights summed over an iteration space; the sum
//! is computed in closed form where possible (constant weights, or a single
//! affine factor over a single constant-bound loop — the `sigma_0`/`sigma_1`
//! case of the paper) and by direct enumeration otherwise.

use crate::affine::{Affine, LivId};
use crate::iterspace::IterationSpace;
use std::fmt;

/// A product of affine factors: `factor_1(i) * factor_2(i) * ...`.
///
/// An empty product is the constant 1. Negative evaluations are clamped to
/// zero — an extent that evaluates negative means an empty section, which
/// carries no data.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WeightPoly {
    factors: Vec<Affine>,
}

impl WeightPoly {
    /// The constant weight 1 (a scalar-sized object).
    pub fn one() -> Self {
        WeightPoly {
            factors: Vec::new(),
        }
    }

    /// A constant weight.
    pub fn constant(c: i64) -> Self {
        WeightPoly {
            factors: vec![Affine::constant(c)],
        }
    }

    /// A single affine factor.
    pub fn from_affine(a: Affine) -> Self {
        WeightPoly { factors: vec![a] }
    }

    /// Product of the given factors.
    pub fn product(factors: Vec<Affine>) -> Self {
        WeightPoly { factors }
    }

    /// Multiply two weights.
    pub fn mul(&self, other: &WeightPoly) -> WeightPoly {
        let mut factors = self.factors.clone();
        factors.extend(other.factors.iter().cloned());
        WeightPoly { factors }
    }

    /// The factors of the product.
    pub fn factors(&self) -> &[Affine] {
        &self.factors
    }

    /// True if the weight does not depend on any LIV.
    pub fn is_constant(&self) -> bool {
        self.factors.iter().all(Affine::is_constant)
    }

    /// Evaluate at a point of the iteration space; negative factors clamp the
    /// whole weight to zero (empty sections carry no data).
    pub fn eval(&self, point: &[(LivId, i64)]) -> i64 {
        let mut w: i64 = 1;
        for f in &self.factors {
            let v = f.eval_assoc(point);
            if v <= 0 {
                return 0;
            }
            w = w.saturating_mul(v);
        }
        w
    }

    /// Sum of the weight over every point of `space`.
    ///
    /// Uses closed forms for the common cases (constant weight; single affine
    /// factor over a single constant-bound loop) and falls back to direct
    /// enumeration for general polynomial weights and trapezoidal nests.
    pub fn sum_over(&self, space: &IterationSpace) -> i64 {
        // Fast path 1: constant weight.
        if self.is_constant() {
            return self.eval(&[]).saturating_mul(space.size() as i64);
        }
        // Fast path 2: exactly one non-constant factor, affine in exactly one
        // LIV, over a single constant-bound loop whose LIV it is, and no
        // factor ever evaluates non-positive over the range.
        if space.depth() == 1 && space.levels()[0].range.is_constant() {
            let lvl = &space.levels()[0];
            let range = lvl.range.at(&[]);
            let non_const: Vec<&Affine> =
                self.factors.iter().filter(|f| !f.is_constant()).collect();
            if non_const.len() == 1 && non_const[0].livs() == vec![lvl.liv] {
                let a = non_const[0];
                let c: i64 = self
                    .factors
                    .iter()
                    .filter(|f| f.is_constant())
                    .map(|f| f.constant_part())
                    .product();
                let b0 = a.constant_part();
                let b1 = a.coeff(lvl.liv);
                // Check positivity at the extreme points (affine ⇒ monotone).
                let at_lo = b0 + b1 * range.lo;
                let at_hi = b0 + b1 * range.last().unwrap_or(range.lo);
                if c >= 0 && at_lo > 0 && at_hi > 0 {
                    // Σ c (b0 + b1 i) = c (b0 σ0 + b1 σ1)
                    return c * (b0 * range.count() + b1 * range.sum_i());
                }
            }
        }
        // General path: enumerate.
        space.points().iter().map(|p| self.eval(p)).sum()
    }
}

impl fmt::Display for WeightPoly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.factors.is_empty() {
            return write!(f, "1");
        }
        let parts: Vec<String> = self.factors.iter().map(|a| format!("({a})")).collect();
        write!(f, "{}", parts.join("*"))
    }
}

impl From<Affine> for WeightPoly {
    fn from(a: Affine) -> Self {
        WeightPoly::from_affine(a)
    }
}

impl From<i64> for WeightPoly {
    fn from(c: i64) -> Self {
        WeightPoly::constant(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::triplet::AffineTriplet;

    fn k() -> LivId {
        LivId(0)
    }
    fn j() -> LivId {
        LivId(1)
    }

    #[test]
    fn one_and_constants() {
        assert_eq!(WeightPoly::one().eval(&[]), 1);
        assert_eq!(WeightPoly::constant(42).eval(&[]), 42);
        assert!(WeightPoly::constant(42).is_constant());
    }

    #[test]
    fn product_evaluation() {
        // (k) * (j + 1) at k=3, j=4 -> 15
        let w = WeightPoly::product(vec![Affine::liv(k()), Affine::new(1, [(j(), 1)])]);
        assert_eq!(w.eval(&[(k(), 3), (j(), 4)]), 15);
        assert!(!w.is_constant());
    }

    #[test]
    fn negative_extent_clamps_to_zero() {
        let w = WeightPoly::from_affine(Affine::new(-5, [(k(), 1)]));
        assert_eq!(w.eval(&[(k(), 2)]), 0);
        assert_eq!(w.eval(&[(k(), 6)]), 1);
    }

    #[test]
    fn constant_sum_over_space() {
        let w = WeightPoly::constant(100);
        let s = IterationSpace::single_loop(k(), 1, 50, 1);
        assert_eq!(w.sum_over(&s), 5000);
    }

    #[test]
    fn affine_sum_closed_form_matches_enumeration() {
        // weight 3 * (2k + 5) over k = 1..40:2
        let w = WeightPoly::product(vec![Affine::constant(3), Affine::new(5, [(k(), 2)])]);
        let s = IterationSpace::single_loop(k(), 1, 40, 2);
        let direct: i64 = s.points().iter().map(|p| w.eval(p)).sum();
        assert_eq!(w.sum_over(&s), direct);
    }

    #[test]
    fn polynomial_sum_falls_back_to_enumeration() {
        // weight k * k over k = 1..10 -> 385
        let w = WeightPoly::product(vec![Affine::liv(k()), Affine::liv(k())]);
        let s = IterationSpace::single_loop(k(), 1, 10, 1);
        assert_eq!(w.sum_over(&s), 385);
    }

    #[test]
    fn nest_sum() {
        // weight (k) over {k=1..4, j=1..k} = Σ_k k*k = 30
        let w = WeightPoly::from_affine(Affine::liv(k()));
        let s = IterationSpace::single_loop(k(), 1, 4, 1).enter_loop(
            j(),
            AffineTriplet::range(Affine::constant(1), Affine::liv(k())),
        );
        assert_eq!(w.sum_over(&s), 30);
    }

    #[test]
    fn scalar_space_sum_is_single_eval() {
        let w = WeightPoly::constant(7);
        assert_eq!(w.sum_over(&IterationSpace::scalar()), 7);
    }

    #[test]
    fn multiplication_composes() {
        let a = WeightPoly::constant(4);
        let b = WeightPoly::from_affine(Affine::liv(k()));
        let ab = a.mul(&b);
        assert_eq!(ab.eval(&[(k(), 5)]), 20);
        assert_eq!(ab.factors().len(), 2);
    }

    #[test]
    fn display() {
        let w = WeightPoly::product(vec![Affine::constant(2), Affine::liv(k())]);
        assert_eq!(w.to_string(), "(2)*(i0)");
        assert_eq!(WeightPoly::one().to_string(), "1");
    }
}
