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

use crate::model::{Problem, Relation, SolveError, VarId};
use crate::EPS;

/// Sentinel root meaning "pinned to a constant".
const CONST: usize = usize::MAX;

/// `x_i = mult · x_root + offset` (with `root == CONST` meaning `x_i = offset`).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Sub {
    root: usize,
    mult: f64,
    offset: f64,
}

/// A linear form `Σ coeff·var`, as every row and term is stored.
pub(crate) type Form = [(VarId, f64)];

/// The substitution map: which variables the equality chains eliminate and
/// onto what. One implementation serves [`Presolve`] (rows of a
/// [`Problem`]) and [`crate::L1Problem`] (rows of its arena); neither
/// allocates per row — a row is combined in `combined`, reused.
#[derive(Debug)]
pub(crate) struct Chains {
    /// Per original variable: its affine expression over a representative.
    subs: Vec<Option<Sub>>,
    /// Original index of each surviving variable, ascending.
    pub(crate) reduced_vars: Vec<usize>,
    /// Reduced index of each surviving original variable.
    reduced_index: Vec<Option<usize>>,
    /// [`Chains::combine`]'s result: `(root, coefficient)`, ascending by root.
    combined: Vec<(usize, f64)>,
}

/// A constant row `0 = rhs` that does not hold: the presolve's tolerance.
pub(crate) fn inconsistent(rhs: f64) -> bool {
    rhs.abs() > 1e-6 * (1.0 + rhs.abs())
}

impl Chains {
    /// Sweep the equalities among `rows` — `(terms, relation, rhs)` each —
    /// absorbing pins and two-variable chains until a fixpoint (a pin can
    /// shrink a larger equality into a new pin on the next pass). Only
    /// variables `free` admits are eliminated, so bounds never need
    /// translating. `Err(Infeasible)` when a chain contradicts itself.
    pub(crate) fn absorb<'a>(
        n: usize,
        free: impl Fn(usize) -> bool,
        rows: impl Iterator<Item = (&'a Form, Relation, f64)> + Clone,
    ) -> Result<Chains, SolveError> {
        let mut chains = Chains {
            subs: vec![None; n],
            reduced_vars: Vec::new(),
            reduced_index: vec![None; n],
            combined: Vec::new(),
        };
        let mut changed = true;
        let mut passes = 0;
        while changed && passes < 16 {
            changed = false;
            passes += 1;
            for (terms, relation, rhs) in rows.clone() {
                if relation != Relation::Eq {
                    continue;
                }
                let rhs = chains.combine(terms, rhs);
                let eliminable = |subs: &[Option<Sub>], v: usize| free(v) && subs[v].is_none();
                let onto = |root, mult, offset| Sub { root, mult, offset };
                let (v, sub) = match chains.combined[..] {
                    [] if inconsistent(rhs) => return Err(SolveError::Infeasible),
                    [(v, a)] => (v, onto(CONST, 0.0, rhs / a)),
                    // Eliminate whichever side is a free, still-root var.
                    [(x, a), (y, b)] if eliminable(&chains.subs, x) => {
                        (x, onto(y, -b / a, rhs / a))
                    }
                    [(x, a), (y, b)] => (y, onto(x, -a / b, rhs / b)),
                    _ => continue,
                };
                if eliminable(&chains.subs, v) {
                    chains.subs[v] = Some(sub);
                    changed = true;
                }
            }
        }
        Ok(chains)
    }

    /// Resolve variable `i` to `(root, mult, offset)` with path compression.
    fn resolve(&mut self, i: usize) -> Sub {
        match self.subs[i] {
            None => Sub {
                root: i,
                mult: 1.0,
                offset: 0.0,
            },
            Some(s) if s.root == CONST => s,
            Some(s) => {
                let r = self.resolve(s.root);
                let flat = Sub {
                    root: r.root,
                    mult: s.mult * r.mult,
                    offset: s.mult * r.offset + s.offset,
                };
                self.subs[i] = Some(flat);
                flat
            }
        }
    }

    /// Flatten every substitution — `visit(i, x_i's)` in order — then number
    /// the survivors. After this a substitution no longer changes.
    pub(crate) fn settle(&mut self, mut visit: impl FnMut(usize, Sub)) {
        for i in 0..self.subs.len() {
            let s = self.resolve(i);
            visit(i, s);
        }
        for i in 0..self.subs.len() {
            if self.resolve(i).root == i {
                self.reduced_index[i] = Some(self.reduced_vars.len());
                self.reduced_vars.push(i);
            }
        }
    }

    /// Combine the terms of `Σ coeff·var = rhs` through the current
    /// substitution: leaves the per-root coefficients in
    /// [`Chains::combined`] and returns the adjusted right-hand side.
    pub(crate) fn combine(&mut self, terms: &Form, mut rhs: f64) -> f64 {
        self.combined.clear();
        for &(v, a) in terms {
            let s = self.resolve(v.0);
            rhs -= a * s.offset;
            if s.root != CONST && (a * s.mult).abs() > 0.0 {
                self.combined.push((s.root, a * s.mult));
            }
        }
        // Stable, so a root's coefficients are summed in term order.
        self.combined.sort_by_key(|&(root, _)| root);
        self.combined.dedup_by(|next, sum| {
            let same = next.0 == sum.0;
            if same {
                sum.1 += next.1;
            }
            same
        });
        self.combined.retain(|&(_, a)| a.abs() > EPS);
        rhs
    }

    /// The last [`Chains::combine`] over the surviving variables' reduced
    /// indices (call after [`Chains::settle`]), ascending.
    pub(crate) fn combined(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        let reduced =
            |&(root, a): &(usize, f64)| (self.reduced_index[root].expect("root var survives"), a);
        self.combined.iter().map(reduced)
    }

    /// Expand a solution over the surviving variables back to all of them
    /// (after [`Chains::settle`], which left every substitution flat).
    pub(crate) fn restore(&self, reduced_values: &[f64]) -> Vec<f64> {
        let value = |(i, sub): (usize, &Option<Sub>)| match *sub {
            None => reduced_values[self.reduced_index[i].expect("root var survives")],
            Some(s) if s.root == CONST => s.offset,
            Some(s) => {
                let root = self.reduced_index[s.root].expect("root var survives");
                s.mult * reduced_values[root] + s.offset
            }
        };
        self.subs.iter().enumerate().map(value).collect()
    }
}

/// The substitution map plus the reduced problem.
pub struct Presolve {
    chains: Chains,
    /// The reduced problem.
    pub reduced: Problem,
    /// Constant objective contribution of the eliminated variables.
    pub objective_offset: f64,
}

impl Presolve {
    /// Run the presolve. `Err(Infeasible)` when an equality chain is
    /// internally inconsistent.
    pub fn new(problem: &Problem) -> Result<Presolve, SolveError> {
        let n = problem.num_vars();
        let free = |i: usize| problem.bounds(VarId(i)) == (f64::NEG_INFINITY, f64::INFINITY);
        let rows = problem.constraints.iter();
        let rows = rows.map(|c| (&c.terms[..], c.relation, c.rhs));
        let mut chains = Chains::absorb(n, free, rows.clone())?;

        // Objective of a representative = its own coefficient plus the
        // folded coefficients of everyone substituted onto it.
        let mut obj: Vec<f64> = vec![0.0; n];
        let mut objective_offset = 0.0;
        chains.settle(|i, s| {
            let c = problem.objective_coeff(VarId(i));
            if s.root != CONST {
                obj[s.root] += c * s.mult;
            }
            objective_offset += c * s.offset;
        });
        let mut reduced = Problem::new();
        for &i in &chains.reduced_vars {
            let (lo, hi) = problem.bounds(VarId(i));
            reduced.add_var(problem.var_name(VarId(i)), lo, hi, obj[i]);
        }
        for (terms, relation, rhs) in rows {
            let rhs = chains.combine(terms, rhs);
            if chains.combined.is_empty() {
                let ok = match relation {
                    Relation::Eq => !inconsistent(rhs),
                    Relation::Le => rhs >= -1e-6,
                    Relation::Ge => rhs <= 1e-6,
                };
                if !ok {
                    return Err(SolveError::Infeasible);
                }
                continue;
            }
            // Equalities that defined a substitution reduced to `0 = 0`
            // above; anything still carrying roots could not be absorbed
            // (its roots are bounded variables) and must be kept.
            let terms = chains.combined().map(|(v, a)| (VarId(v), a)).collect();
            reduced.add_constraint(terms, relation, rhs);
        }

        Ok(Presolve {
            chains,
            reduced,
            objective_offset,
        })
    }

    /// Expand a reduced-problem solution back to the full variable vector.
    pub fn restore(&self, reduced_values: &[f64]) -> Vec<f64> {
        self.chains.restore(reduced_values)
    }
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
        let mut chains = Presolve::new(&p).unwrap().chains;
        assert_eq!(chains.reduced_vars, [x1.0]);
        // 3·x0 + x1 − x2 + 4  =  7·x1 + 2: the constant travels negated, as
        // a right-hand side.
        let rhs = chains.combine(&[(x0, 3.0), (x1, 1.0), (x2, -1.0)], -4.0);
        assert_eq!(chains.combined().collect::<Vec<_>>(), [(0, 7.0)]);
        assert!((rhs + 2.0).abs() < 1e-12);
        // A form over eliminated variables only reduces to a constant.
        let rhs = chains.combine(&[(x2, 2.0)], 1.0);
        assert_eq!(chains.combined().count(), 0);
        assert!((rhs + 9.0).abs() < 1e-12);
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
