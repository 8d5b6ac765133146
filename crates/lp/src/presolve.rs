//! Equality-chain presolve.
//!
//! The offset LPs the alignment analysis builds are dominated by *hard
//! equality chains*: coefficient-wise node constraints of the form
//! `a·x + b·y = r` over free offset variables (port equalities, section
//! shifts, transformer substitutions, static pins). Feeding those chains to
//! the dense simplex is what makes the tableau large, extremely degenerate
//! and numerically fragile — most pivots shuffle variables that are forced
//! equal anyway.
//!
//! The presolve eliminates them up front:
//!
//! * a one-variable equality `a·x = r` pins `x := r/a`;
//! * a two-variable equality `a·x + b·y = r` substitutes
//!   `x := (−b/a)·y + r/a` (only *free* variables are eliminated, so bounds
//!   never need translating);
//! * substitutions are applied transitively (union-find with affine edges)
//!   and re-applied until no constraint shrinks further;
//! * constraints that reduce to constants are consistency-checked, the rest
//!   are rewritten over the surviving representative variables.
//!
//! The reduced problem — typically a small fraction of the original — is
//! what the simplex actually solves; the eliminated variables are restored
//! by back-substitution.

use crate::model::{Problem, Relation, SolveError};
use crate::EPS;
use std::collections::BTreeMap;

/// Sentinel root meaning "pinned to a constant".
const CONST: usize = usize::MAX;

/// `x_i = mult · x_root + offset` (with `root == CONST` meaning `x_i = offset`).
#[derive(Debug, Clone, Copy)]
struct Sub {
    root: usize,
    mult: f64,
    offset: f64,
}

/// The substitution map plus the reduced problem.
pub struct Presolve {
    /// Per original variable: its affine expression over a representative.
    subs: Vec<Option<Sub>>,
    /// Original index of each reduced-problem variable.
    reduced_vars: Vec<usize>,
    /// Reduced-problem index of each surviving original variable.
    reduced_index: Vec<Option<usize>>,
    /// The reduced problem.
    pub reduced: Problem,
    /// Constant objective contribution of the eliminated variables.
    pub objective_offset: f64,
}

/// Resolve variable `i` to `(root, mult, offset)` with path compression.
fn resolve(subs: &mut [Option<Sub>], i: usize) -> Sub {
    match subs[i] {
        None => Sub {
            root: i,
            mult: 1.0,
            offset: 0.0,
        },
        Some(s) if s.root == CONST => s,
        Some(s) => {
            let r = resolve(subs, s.root);
            let flat = Sub {
                root: r.root,
                mult: s.mult * r.mult,
                offset: s.mult * r.offset + s.offset,
            };
            subs[i] = Some(flat);
            flat
        }
    }
}

impl Presolve {
    /// Run the presolve. `Err(Infeasible)` when an equality chain is
    /// internally inconsistent.
    pub fn new(problem: &Problem) -> Result<Presolve, SolveError> {
        let n = problem.num_vars();
        let mut subs: Vec<Option<Sub>> = vec![None; n];
        let free: Vec<bool> = (0..n)
            .map(|i| {
                let (lo, hi) = problem.bounds(crate::VarId(i));
                lo == f64::NEG_INFINITY && hi == f64::INFINITY
            })
            .collect();

        // Repeatedly sweep the equality constraints, absorbing pins and
        // two-variable chains, until a fixpoint (a pin can shrink a larger
        // equality into a new pin on the next pass).
        let mut changed = true;
        let mut passes = 0;
        while changed && passes < 16 {
            changed = false;
            passes += 1;
            for c in &problem.constraints {
                if c.relation != Relation::Eq {
                    continue;
                }
                let (combined, rhs) = combine(&mut subs, &c.terms, c.rhs);
                let scale = 1.0 + rhs.abs();
                match combined.len() {
                    0 if rhs.abs() > 1e-6 * scale => {
                        return Err(SolveError::Infeasible);
                    }
                    0 => {}
                    1 => {
                        let (&v, &a) = combined.iter().next().unwrap();
                        if a.abs() <= EPS {
                            if rhs.abs() > 1e-6 * scale {
                                return Err(SolveError::Infeasible);
                            }
                            continue;
                        }
                        if free[v] && subs[v].is_none() {
                            subs[v] = Some(Sub {
                                root: CONST,
                                mult: 0.0,
                                offset: rhs / a,
                            });
                            changed = true;
                        }
                    }
                    2 => {
                        let mut it = combined.iter();
                        let (&x, &a) = it.next().unwrap();
                        let (&y, &b) = it.next().unwrap();
                        if a.abs() <= EPS || b.abs() <= EPS {
                            continue; // handled as a pin on a later pass
                        }
                        // Eliminate whichever side is a free, still-root var.
                        if free[x] && subs[x].is_none() {
                            subs[x] = Some(Sub {
                                root: y,
                                mult: -b / a,
                                offset: rhs / a,
                            });
                            changed = true;
                        } else if free[y] && subs[y].is_none() {
                            subs[y] = Some(Sub {
                                root: x,
                                mult: -a / b,
                                offset: rhs / b,
                            });
                            changed = true;
                        }
                    }
                    _ => {}
                }
            }
        }

        // Build the reduced problem over the surviving representatives.
        let mut reduced = Problem::new();
        let mut reduced_index: Vec<Option<usize>> = vec![None; n];
        let mut reduced_vars = Vec::new();
        let mut objective_offset = 0.0;
        // Objective of a representative = its own coefficient plus the
        // folded coefficients of everyone substituted onto it.
        let mut obj: Vec<f64> = vec![0.0; n];
        for i in 0..n {
            let c = problem.objective_coeff(crate::VarId(i));
            let s = resolve(&mut subs, i);
            if s.root == CONST {
                objective_offset += c * s.offset;
            } else {
                obj[s.root] += c * s.mult;
                objective_offset += c * s.offset;
            }
        }
        for i in 0..n {
            let s = resolve(&mut subs, i);
            if s.root == i {
                let (lo, hi) = problem.bounds(crate::VarId(i));
                let rid = reduced.add_var(problem.var_name(crate::VarId(i)), lo, hi, obj[i]);
                reduced_index[i] = Some(rid.0);
                reduced_vars.push(i);
            }
        }
        for c in &problem.constraints {
            let (combined, rhs) = combine(&mut subs, &c.terms, c.rhs);
            if combined.is_empty() {
                let ok = match c.relation {
                    Relation::Eq => rhs.abs() <= 1e-6 * (1.0 + rhs.abs()),
                    Relation::Le => rhs >= -1e-6,
                    Relation::Ge => rhs <= 1e-6,
                };
                if !ok {
                    return Err(SolveError::Infeasible);
                }
                continue;
            }
            // Equalities that defined a substitution reduce to `0 = 0` and
            // were skipped above; anything still carrying roots could not be
            // absorbed (its roots are bounded variables) and must be kept.
            let terms: Vec<(crate::VarId, f64)> = combined
                .iter()
                .filter(|(_, &a)| a.abs() > EPS)
                .map(|(&v, &a)| {
                    (
                        crate::VarId(reduced_index[v].expect("root var survives")),
                        a,
                    )
                })
                .collect();
            if terms.is_empty() {
                continue;
            }
            reduced.add_constraint(terms, c.relation, rhs);
        }

        Ok(Presolve {
            subs,
            reduced_vars,
            reduced_index,
            reduced,
            objective_offset,
        })
    }

    /// Rewrite the linear form `Σ coeff·var + constant` over the original
    /// variables onto the reduced problem's variables: eliminated variables
    /// are replaced by their substitutions, pins fold into the constant.
    /// This is how an objective that is not a plain linear function of the
    /// variables (the absolute-value terms of [`crate::L1Problem`]) follows
    /// the problem through the presolve.
    pub fn rewrite(
        &mut self,
        terms: &[(crate::VarId, f64)],
        constant: f64,
    ) -> (Vec<(crate::VarId, f64)>, f64) {
        let (combined, rhs) = combine(&mut self.subs, terms, -constant);
        let terms = combined
            .into_iter()
            .map(|(v, a)| {
                let rid = self.reduced_index[v].expect("root var survives");
                (crate::VarId(rid), a)
            })
            .collect();
        (terms, -rhs)
    }

    /// Expand a reduced-problem solution back to the full variable vector.
    pub fn restore(&self, reduced_values: &[f64]) -> Vec<f64> {
        let n = self.subs.len();
        let mut by_root: Vec<f64> = vec![0.0; n];
        for (rid, &orig) in self.reduced_vars.iter().enumerate() {
            by_root[orig] = reduced_values[rid];
        }
        let mut subs = self.subs.clone();
        (0..n)
            .map(|i| {
                let s = resolve(&mut subs, i);
                if s.root == CONST {
                    s.offset
                } else {
                    s.mult * by_root[s.root] + s.offset
                }
            })
            .collect()
    }
}

/// Combine the terms of `Σ coeff·var = rhs` through the current substitution:
/// returns the per-root coefficients and the adjusted right-hand side.
fn combine(
    subs: &mut [Option<Sub>],
    terms: &[(crate::VarId, f64)],
    mut rhs: f64,
) -> (BTreeMap<usize, f64>, f64) {
    let mut combined: BTreeMap<usize, f64> = BTreeMap::new();
    for &(v, a) in terms {
        let s = resolve(subs, v.0);
        rhs -= a * s.offset;
        if s.root != CONST && (a * s.mult).abs() > 0.0 {
            *combined.entry(s.root).or_insert(0.0) += a * s.mult;
        }
    }
    combined.retain(|_, a| a.abs() > EPS);
    (combined, rhs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Problem, Relation};

    #[test]
    fn chain_of_equalities_collapses() {
        // x0 = x1 + 1, x1 = x2 + 1, minimise x0 subject to x2 >= 3.
        let mut p = Problem::new();
        let x0 = p.add_free_var("x0", 1.0);
        let x1 = p.add_free_var("x1", 0.0);
        let x2 = p.add_free_var("x2", 0.0);
        p.add_constraint(vec![(x0, 1.0), (x1, -1.0)], Relation::Eq, 1.0);
        p.add_constraint(vec![(x1, 1.0), (x2, -1.0)], Relation::Eq, 1.0);
        p.add_constraint(vec![(x2, 1.0)], Relation::Ge, 3.0);
        let pre = Presolve::new(&p).unwrap();
        assert_eq!(pre.reduced.num_vars(), 1, "only one representative");
        let sol = pre.reduced.solve().unwrap();
        let full = pre.restore(&sol.values);
        assert!((full[x2.0] - 3.0).abs() < 1e-7);
        assert!((full[x1.0] - 4.0).abs() < 1e-7);
        assert!((full[x0.0] - 5.0).abs() < 1e-7);
    }

    #[test]
    fn pins_propagate_through_chains() {
        // x0 = 7 (pin), x1 = 2*x0 - 1.
        let mut p = Problem::new();
        let x0 = p.add_free_var("x0", 0.0);
        let x1 = p.add_free_var("x1", 0.0);
        p.add_constraint(vec![(x0, 1.0)], Relation::Eq, 7.0);
        p.add_constraint(vec![(x1, 1.0), (x0, -2.0)], Relation::Eq, -1.0);
        let pre = Presolve::new(&p).unwrap();
        assert_eq!(pre.reduced.num_vars(), 0);
        let full = pre.restore(&[]);
        assert!((full[x0.0] - 7.0).abs() < 1e-9);
        assert!((full[x1.0] - 13.0).abs() < 1e-9);
    }

    #[test]
    fn inconsistent_chain_is_infeasible() {
        let mut p = Problem::new();
        let x0 = p.add_free_var("x0", 0.0);
        p.add_constraint(vec![(x0, 1.0)], Relation::Eq, 1.0);
        p.add_constraint(vec![(x0, 1.0)], Relation::Eq, 2.0);
        assert!(matches!(Presolve::new(&p), Err(SolveError::Infeasible)));
    }

    #[test]
    fn bounded_vars_are_never_eliminated() {
        // y >= 0 must keep its bound; x (free) is substituted onto it.
        let mut p = Problem::new();
        let x = p.add_free_var("x", 1.0);
        let y = p.add_nonneg_var("y", 0.0);
        p.add_constraint(vec![(x, 1.0), (y, -1.0)], Relation::Eq, -5.0);
        let pre = Presolve::new(&p).unwrap();
        assert_eq!(pre.reduced.num_vars(), 1);
        let sol = pre.reduced.solve().unwrap();
        let full = pre.restore(&sol.values);
        // min x = y - 5 with y >= 0 -> y = 0, x = -5.
        assert!((full[y.0] - 0.0).abs() < 1e-7);
        assert!((full[x.0] + 5.0).abs() < 1e-7);
    }

    #[test]
    fn rewrite_carries_a_linear_form_through_the_substitutions() {
        // x0 = 2·x1 + 1 (chain), x2 = 5 (pin); x1 survives as reduced var 0.
        let mut p = Problem::new();
        let x0 = p.add_free_var("x0", 0.0);
        let x1 = p.add_nonneg_var("x1", 0.0);
        let x2 = p.add_free_var("x2", 0.0);
        p.add_constraint(vec![(x0, 1.0), (x1, -2.0)], Relation::Eq, 1.0);
        p.add_constraint(vec![(x2, 1.0)], Relation::Eq, 5.0);
        let mut pre = Presolve::new(&p).unwrap();
        assert_eq!(pre.reduced.num_vars(), 1);
        // 3·x0 + x1 − x2 + 4  =  7·x1 + 2
        let (terms, constant) = pre.rewrite(&[(x0, 3.0), (x1, 1.0), (x2, -1.0)], 4.0);
        assert_eq!(terms, vec![(crate::VarId(0), 7.0)]);
        assert!((constant - 2.0).abs() < 1e-12);
        // A form over eliminated variables only reduces to a constant.
        let (terms, constant) = pre.rewrite(&[(x2, 2.0)], -1.0);
        assert!(terms.is_empty());
        assert!((constant - 9.0).abs() < 1e-12);
    }

    #[test]
    fn objective_offset_accounts_for_pins() {
        let mut p = Problem::new();
        let x = p.add_free_var("x", 3.0);
        p.add_constraint(vec![(x, 1.0)], Relation::Eq, 2.0);
        let pre = Presolve::new(&p).unwrap();
        assert!((pre.objective_offset - 6.0).abs() < 1e-9);
    }
}
