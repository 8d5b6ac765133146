//! The L1 form: minimise a weighted sum of absolute values of affine forms
//! over free variables, subject to linear equalities —
//!
//! ```text
//!   min  Σ_k w_k·|a_k·x + c_k|     s.t.  E x = f,   x free.
//! ```
//!
//! This is the shape of the paper's mobile-offset RLP (Equation 3: one
//! term per edge subrange, node constraints as equalities) and of the
//! affine loop-nest alignment formulations in general. The textbook route
//! to a simplex — a surrogate `z_k ≥ ±(a_k·x + c_k)` per term — gives a
//! basis of `2·K + |E|` rows for a handful of unknowns. The LP dual is the
//! far smaller problem. Writing `|t| = max_{|y| ≤ 1} y·t` and exchanging
//! min and max,
//!
//! ```text
//!   min_x max_{|y_k| ≤ w_k, μ}  Σ_k y_k·(a_k·x + c_k) + μ·(f − E x)
//!     =  max  c·y + f·μ   s.t.  Σ_k a_k·y_k − Eᵀμ = 0,  −w_k ≤ y_k ≤ w_k,  μ free
//! ```
//!
//! (the inner minimum over the free `x` is `−∞` unless the coefficient of
//! every `x_i` vanishes — one equality row per unknown). Its basis has one
//! row per *unknown*: the surrogates became boxed columns, which the
//! bounded-variable simplex handles in its ratio test (a surrogate swap is
//! now a bound flip), and `y = 0, μ = 0` is always feasible — which is where
//! the simplex *starts*: every column begins at zero, inside its range, no
//! residual is left for a phase 1 to remove, and a column whose reduced cost
//! stays zero (a term that prices nothing at the optimum found) never
//! leaves the inside of its box. The dual point returned need not be a
//! vertex; the certificate below does not ask for one. The primal
//! unknowns are the optimal row duals: the reduced cost of `μ_e` vanishing
//! is `E_e·π = f_e`, and the sign of `y_k`'s reduced cost `−(a_k·π + c_k)`
//! is the complementary-slackness condition of `|·|`, so `x = π` — with
//! `π_r = 0`, the unknown where it started, on every row the objective
//! never moved.
//!
//! [`L1Problem::solve`] takes that route: equality-chain presolve (the same
//! one [`Problem::solve`] runs, with the abs terms rewritten onto the
//! surviving unknowns), dual LP through [`crate::revised`], `x` read off
//! the row duals. The answer is *certified* before it is returned — `E x = f` to `1e-6`, and
//! the duality gap between `Σ w|a·x + c|` and the dual objective closed —
//! and an uncertified solve falls back, counted
//! (`lp.l1.primal_fallback`), to the surrogate expansion
//! [`L1Problem::to_primal`], which otherwise serves as the differential
//! oracle.
//!
//! # Blocks
//!
//! The unit of that solve is not the problem but the *block*: a connected
//! component of the unknowns, two unknowns being connected when a
//! non-zero-weight term or an equality mentions both. Blocks share nothing,
//! so the optimum of the problem is the blocks' optima side by side, and
//! [`L1Problem::solve`] poses them one at a time — each as the L1 problem
//! of its own terms and equalities over its own unknowns, renumbered in
//! ascending order — through the route above, certificate and fallback
//! included. A simplex over one block scans, prices and refactorises that
//! block's columns only; the offset RLP of a program whose arrays never meet
//! in an expression costs what its largest interaction group costs.
//!
//! A block's answer depends on the block's numbers and on nothing else —
//! not on the problem it was cut from, not on what was solved before it.
//! [`BlockMemo`] rests on that: the block the solver is handed is itself
//! the key under which its certified answer is kept, compared number by
//! number, bit for bit, never through a digest. Problems solved against one
//! memo ([`L1Problem::solve_sharing`]) run the simplex once per distinct
//! block, however many of them pose it: the statements of a program that
//! repeat a shape, the template axes, the refinement rounds.

use crate::model::{Constraint, Problem, Relation, Solution, SolveError, VarId, Variable};
use crate::presolve::Presolve;
use crate::revised;
use std::cell::RefCell;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// Certificate tolerance on `|E x − f|`, per equality.
const FEAS_TOL: f64 = 1e-6;
/// Certificate tolerance on the relative duality gap.
const GAP_TOL: f64 = 1e-6;

/// One objective term `weight·|coeffs·x + constant|`.
#[derive(Debug, Clone)]
struct AbsTerm {
    weight: f64,
    coeffs: Vec<(VarId, f64)>,
    constant: f64,
}

/// Positions grouped by block: block `b`'s are
/// `items[starts[b]..starts[b + 1]]`, in ascending order.
#[derive(Debug)]
struct Grouped {
    starts: Vec<usize>,
    items: Vec<usize>,
}

impl Grouped {
    /// Counting sort of `(block, position)` pairs that come in ascending
    /// position.
    fn new(blocks: usize, pairs: impl Iterator<Item = (usize, usize)> + Clone) -> Grouped {
        let mut starts = vec![0; blocks + 1];
        for (b, _) in pairs.clone() {
            starts[b + 1] += 1;
        }
        for b in 0..blocks {
            starts[b + 1] += starts[b];
        }
        let mut items = vec![0; starts[blocks]];
        let mut next = starts.clone();
        for (b, position) in pairs {
            items[next[b]] = position;
            next[b] += 1;
        }
        Grouped { starts, items }
    }

    fn blocks(&self) -> usize {
        self.starts.len() - 1
    }

    fn of(&self, block: usize) -> &[usize] {
        &self.items[self.starts[block]..self.starts[block + 1]]
    }
}

/// A problem's blocks, by reference: per block its unknowns and the
/// positions of its terms and equalities, and per unknown its index inside
/// its block.
#[derive(Debug)]
struct Split {
    members: Grouped,
    terms: Grouped,
    equalities: Grouped,
    local: Vec<usize>,
}

/// A block as a map key: the block's own problem, equal to another when
/// every number of the two has the same bits.
#[derive(Debug)]
struct BlockKey(L1Problem);

impl BlockKey {
    /// The block spelled as words — every number as its IEEE bit pattern,
    /// every list behind its length, so the spelling is injective:
    ///
    /// ```text
    ///   unknowns, terms,  { weight, constant, n, (unknown, coefficient)·n }·terms,
    ///                     { rhs, n, (unknown, coefficient)·n }·equalities
    /// ```
    fn words(&self) -> impl Iterator<Item = u64> + '_ {
        fn form(coeffs: &[(VarId, f64)]) -> impl Iterator<Item = u64> + '_ {
            let pairs = coeffs.iter().flat_map(|&(v, a)| [v.0 as u64, a.to_bits()]);
            std::iter::once(coeffs.len() as u64).chain(pairs)
        }
        let BlockKey(block) = self;
        let terms = block.terms.iter().flat_map(|t| {
            let head = [t.weight.to_bits(), t.constant.to_bits()];
            head.into_iter().chain(form(&t.coeffs))
        });
        let equalities = block.hard.constraints.iter();
        let equalities =
            equalities.flat_map(|c| std::iter::once(c.rhs.to_bits()).chain(form(&c.terms)));
        let counts = [block.num_vars() as u64, block.terms.len() as u64];
        counts.into_iter().chain(terms).chain(equalities)
    }
}

impl Hash for BlockKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.words().for_each(|word| state.write_u64(word));
    }
}

impl PartialEq for BlockKey {
    fn eq(&self, other: &BlockKey) -> bool {
        self.words().eq(other.words())
    }
}

impl Eq for BlockKey {}

/// Answers to the blocks posed so far, kept under the blocks themselves:
/// the map key is the block's whole problem, compared number by number —
/// never a digest of it — so two blocks share an answer exactly when the
/// solver could not tell them apart.
///
/// Scope a memo to the solves that can share: nothing is ever evicted, and
/// an entry is as large as its block.
#[derive(Debug, Default)]
pub struct BlockMemo {
    answers: RefCell<HashMap<BlockKey, Result<Solution, SolveError>>>,
}

impl BlockMemo {
    /// Number of distinct blocks posed so far.
    pub fn distinct_blocks(&self) -> usize {
        self.answers.borrow().len()
    }
}

/// An L1 problem: free variables, equality constraints, and a weighted sum
/// of absolute values to minimise. See the [module docs](self).
///
/// ```
/// use lp::{L1Problem, Problem, Relation};
///
/// // min |x − 1| + |x − 5| + 2·|y|   s.t.  x − y = 3
/// let mut hard = Problem::new();
/// let x = hard.add_free_var("x", 0.0);
/// let y = hard.add_free_var("y", 0.0);
/// hard.add_constraint(vec![(x, 1.0), (y, -1.0)], Relation::Eq, 3.0);
/// let mut l1 = L1Problem::new(hard);
/// l1.add_abs_term(1.0, vec![(x, 1.0)], -1.0);
/// l1.add_abs_term(1.0, vec![(x, 1.0)], -5.0);
/// l1.add_abs_term(2.0, vec![(y, 1.0)], 0.0);
/// let sol = l1.solve().unwrap();
/// assert!((sol.value(x) - 3.0).abs() < 1e-7);
/// assert!((sol.objective - 4.0).abs() < 1e-7);
/// ```
#[derive(Debug, Clone)]
pub struct L1Problem {
    /// The unknowns and the equalities `E x = f` (objective all-zero).
    hard: Problem,
    terms: Vec<AbsTerm>,
}

impl L1Problem {
    /// An L1 problem over the variables and constraints of `hard`, with no
    /// objective terms yet.
    ///
    /// # Panics
    ///
    /// If `hard` has a bounded variable, a nonzero objective coefficient, or
    /// a constraint that is not an equality — the dual derivation assumes
    /// none of these.
    pub fn new(hard: Problem) -> L1Problem {
        for v in &hard.vars {
            assert!(
                v.lower == f64::NEG_INFINITY && v.upper == f64::INFINITY && v.obj == 0.0,
                "L1 unknowns must be free and carry no linear objective"
            );
        }
        assert!(
            hard.constraints.iter().all(|c| c.relation == Relation::Eq),
            "L1 constraints must be equalities"
        );
        L1Problem {
            hard,
            terms: Vec::new(),
        }
    }

    /// Add the objective term `weight·|Σ coeff·var + constant|`. Duplicate
    /// variables in `coeffs` are summed.
    pub fn add_abs_term(&mut self, weight: f64, coeffs: Vec<(VarId, f64)>, constant: f64) {
        assert!(
            weight >= 0.0 && weight.is_finite(),
            "abs-term weight must be finite and non-negative"
        );
        for (v, _) in &coeffs {
            assert!(
                v.0 < self.hard.num_vars(),
                "term references unknown variable"
            );
        }
        self.terms.push(AbsTerm {
            weight,
            coeffs,
            constant,
        });
    }

    /// The unknowns and the equality constraints (objective all-zero).
    pub fn equalities(&self) -> &Problem {
        &self.hard
    }

    /// Number of unknowns.
    pub fn num_vars(&self) -> usize {
        self.hard.num_vars()
    }

    /// Number of absolute-value terms.
    pub fn num_terms(&self) -> usize {
        self.terms.len()
    }

    /// `Σ_k w_k·|a_k·x + c_k|` at a candidate point.
    pub fn objective_at(&self, x: &[f64]) -> f64 {
        self.terms
            .iter()
            .map(|t| {
                let expr: f64 = t.coeffs.iter().map(|&(v, a)| a * x[v.0]).sum();
                t.weight * (expr + t.constant).abs()
            })
            .sum()
    }

    /// The surrogate expansion: the same unknowns and equalities plus, per
    /// term, a variable `z_k ≥ 0` with objective `w_k` and the row pair
    /// `z_k ≥ ±(a_k·x + c_k)`. The unknowns keep their indices; `z_k` is
    /// variable `num_vars() + k`. This is the differential oracle for the
    /// dual route and its fallback.
    pub fn to_primal(&self) -> Problem {
        let mut p = self.hard.clone();
        for t in &self.terms {
            let z = p.add_nonneg_var("", t.weight);
            // z - expr >= 0
            let mut row = vec![(z, 1.0)];
            row.extend(t.coeffs.iter().map(|&(v, a)| (v, -a)));
            p.add_constraint(row, Relation::Ge, t.constant);
            // z + expr >= 0
            let mut row = vec![(z, 1.0)];
            row.extend(t.coeffs.iter().copied());
            p.add_constraint(row, Relation::Ge, -t.constant);
        }
        p
    }

    /// Minimise. The solution's `values` are the unknowns and its
    /// `objective` is `Σ w|a·x + c|` evaluated at them. The only error an
    /// L1 problem can have is [`SolveError::Infeasible`] (inconsistent
    /// equalities) — the objective is bounded below by zero — short of
    /// numerical failure of both routes.
    ///
    /// The problem is solved [block by block](self#blocks), against a
    /// [`BlockMemo`] of its own: two blocks of this problem that are the
    /// same block are solved once.
    pub fn solve(&self) -> Result<Solution, SolveError> {
        self.solve_sharing(&BlockMemo::default())
    }

    /// [`L1Problem::solve`] against the caller's memo: a block some earlier
    /// problem already posed to `memo` is answered from it, bit for bit,
    /// without a simplex run (`lp.l1.block_hits`). `lp.solves` counts the
    /// blocks that were run.
    pub fn solve_sharing(&self, memo: &BlockMemo) -> Result<Solution, SolveError> {
        let _span = trace::span("lp.solve");
        // `0 = rhs` belongs to no block; the presolve's own tolerance.
        let inconsistent =
            |c: &Constraint| c.terms.is_empty() && c.rhs.abs() > FEAS_TOL * (1.0 + c.rhs.abs());
        if self.hard.constraints.iter().any(inconsistent) {
            return Err(SolveError::Infeasible);
        }
        let split = {
            let _span = trace::span("lp.split");
            self.split()
        };
        let blocks = split.members.blocks();
        trace::count("lp.l1.blocks", blocks as u64);
        // An unknown nothing mentions is in no block and stays at zero.
        let mut values = vec![0.0; self.num_vars()];
        // A block's solve never poses to the memo, so the borrow can span it.
        let mut answers = memo.answers.borrow_mut();
        for b in 0..blocks {
            let entry = {
                let _span = trace::span("lp.block_key");
                answers.entry(BlockKey(self.block(&split, b)))
            };
            let solution = match entry {
                Entry::Occupied(known) => {
                    trace::count("lp.l1.block_hits", 1);
                    known.into_mut()
                }
                Entry::Vacant(new) => {
                    let solution = new.key().0.solve_block();
                    new.insert(solution)
                }
            };
            let solution = solution.as_ref().map_err(SolveError::clone)?;
            for (&v, &x) in split.members.of(b).iter().zip(&solution.values) {
                values[v] = x;
            }
        }
        let objective = self.objective_at(&values);
        Ok(Solution { values, objective })
    }

    /// How many blocks [`L1Problem::solve`] poses: the connected components
    /// of the unknowns under "a non-zero-weight term or an equality mentions
    /// both", not counting unknowns nothing mentions.
    pub fn num_blocks(&self) -> usize {
        self.components().1
    }

    /// The blocks [`L1Problem::solve`] poses, in the order it poses them,
    /// each as the problem the solver is handed. Exposed so experiments and
    /// tests can take a decomposition apart.
    pub fn blocks(&self) -> Vec<L1Problem> {
        let split = self.split();
        let blocks = 0..split.members.blocks();
        blocks.map(|b| self.block(&split, b)).collect()
    }

    /// Connected components of the unknowns: the block of every unknown
    /// (`usize::MAX` for one nothing mentions) and the number of blocks.
    /// Blocks are numbered by their smallest unknown.
    fn components(&self) -> (Vec<usize>, usize) {
        let n = self.num_vars();
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut [usize], mut v: usize) -> usize {
            while parent[v] != v {
                parent[v] = parent[parent[v]];
                v = parent[v];
            }
            v
        }
        let mut mentioned = vec![false; n];
        let weighted = self.terms.iter().filter(|t| t.weight != 0.0);
        let forms = weighted
            .map(|t| &t.coeffs)
            .chain(self.hard.constraints.iter().map(|c| &c.terms));
        for form in forms {
            let Some(&(first, _)) = form.first() else {
                continue;
            };
            let root = find(&mut parent, first.0);
            for &(v, _) in form {
                mentioned[v.0] = true;
                let other = find(&mut parent, v.0);
                parent[other] = root;
            }
        }

        let mut block_of_root = vec![usize::MAX; n];
        let mut block_of = vec![usize::MAX; n];
        let mut count = 0;
        for v in (0..n).filter(|&v| mentioned[v]) {
            let root = find(&mut parent, v);
            if block_of_root[root] == usize::MAX {
                block_of_root[root] = count;
                count += 1;
            }
            block_of[v] = block_of_root[root];
        }
        (block_of, count)
    }

    /// The blocks by reference. Zero-weight terms (which neither connect nor
    /// cost) and terms and equalities over no unknown belong to no block.
    fn split(&self) -> Split {
        let (block_of, count) = self.components();
        let in_block = |v: usize| (block_of[v] != usize::MAX).then_some((block_of[v], v));
        let members = Grouped::new(count, (0..block_of.len()).filter_map(in_block));
        // A form lies in the block of its first unknown, if it has one.
        let block_of_form = |form: &[(VarId, f64)]| form.first().map(|&(v, _)| block_of[v.0]);
        let terms = self.terms.iter().enumerate();
        let terms = terms.filter(|(_, t)| t.weight != 0.0);
        let terms = terms.filter_map(|(k, t)| Some((block_of_form(&t.coeffs)?, k)));
        let equalities = self.hard.constraints.iter().enumerate();
        let equalities = equalities.filter_map(|(k, c)| Some((block_of_form(&c.terms)?, k)));
        let mut local = vec![0; block_of.len()];
        for b in 0..count {
            for (i, &v) in members.of(b).iter().enumerate() {
                local[v] = i;
            }
        }
        Split {
            terms: Grouped::new(count, terms),
            equalities: Grouped::new(count, equalities),
            members,
            local,
        }
    }

    /// Block `b` as a problem of its own, its unknowns renumbered in
    /// ascending order — so the block reads the same whatever problem it was
    /// cut from.
    fn block(&self, split: &Split, b: usize) -> L1Problem {
        let renumber = |form: &[(VarId, f64)]| -> Vec<(VarId, f64)> {
            let local = |&(v, a): &(VarId, f64)| (VarId(split.local[v.0]), a);
            form.iter().map(local).collect()
        };
        // Sized exactly: the memo keeps the block as long as it lives.
        let free = Variable {
            name: String::new(),
            lower: f64::NEG_INFINITY,
            upper: f64::INFINITY,
            obj: 0.0,
        };
        let equalities = split.equalities.of(b).iter().map(|&k| {
            let c = &self.hard.constraints[k];
            Constraint {
                terms: renumber(&c.terms),
                relation: Relation::Eq,
                rhs: c.rhs,
            }
        });
        let hard = Problem {
            vars: vec![free; split.members.of(b).len()],
            constraints: equalities.collect(),
        };
        let terms = split.terms.of(b).iter().map(|&k| {
            let t = &self.terms[k];
            AbsTerm {
                weight: t.weight,
                coeffs: renumber(&t.coeffs),
                constant: t.constant,
            }
        });
        L1Problem {
            terms: terms.collect(),
            hard,
        }
    }

    /// Solve this problem as one block: the dual route, and behind its
    /// certificate the counted fallback to the surrogate expansion.
    fn solve_block(&self) -> Result<Solution, SolveError> {
        trace::count("lp.solves", 1);
        if let Some(solution) = self.solve_dual()? {
            return Ok(solution);
        }
        trace::count("lp.l1.primal_fallback", 1);
        let primal = self.to_primal().solve()?;
        let values = primal.values[..self.num_vars()].to_vec();
        let objective = self.objective_at(&values);
        Ok(Solution { values, objective })
    }

    /// The dual route. `Ok(None)` means the simplex failed numerically or
    /// its answer did not certify; the only error is `Infeasible`.
    fn solve_dual(&self) -> Result<Option<Solution>, SolveError> {
        let mut pre = {
            let _span = trace::span("lp.presolve");
            Presolve::new(&self.hard)?
        };
        let n_free = pre.reduced.num_vars();
        trace::count("lp.presolve_eliminated", (self.num_vars() - n_free) as u64);

        // The dual LP: a boxed column per surviving term, a free column per
        // surviving equality, a row per surviving unknown.
        let assemble_span = trace::span("lp.dual_assemble");
        let mut dual = Problem::new();
        let mut rows: Vec<Vec<(VarId, f64)>> = vec![Vec::new(); n_free];
        // Terms the presolve reduced to constants cost the same at every x.
        let mut fixed_cost = 0.0;
        for t in &self.terms {
            if t.weight == 0.0 {
                continue;
            }
            let (coeffs, constant) = pre.rewrite(&t.coeffs, t.constant);
            if coeffs.is_empty() {
                fixed_cost += t.weight * constant.abs();
                continue;
            }
            let y = dual.add_var("", -t.weight, t.weight, -constant);
            for (v, a) in coeffs {
                rows[v.0].push((y, a));
            }
        }
        for c in &pre.reduced.constraints {
            let mu = dual.add_free_var("", -c.rhs);
            for &(v, e) in &c.terms {
                rows[v.0].push((mu, -e));
            }
        }
        // An unknown no term and no equality mentions has an empty row and
        // is left at zero.
        let mut row_of: Vec<Option<usize>> = vec![None; n_free];
        for (i, row) in rows.into_iter().enumerate() {
            if !row.is_empty() {
                row_of[i] = Some(dual.num_constraints());
                dual.add_constraint(row, Relation::Eq, 0.0);
            }
        }
        trace::count("lp.l1.dual_rows", dual.num_constraints() as u64);
        trace::count("lp.l1.dual_cols", dual.num_vars() as u64);
        drop(assemble_span);

        let (dual_objective, reduced_x) = if dual.num_constraints() == 0 {
            (fixed_cost, vec![0.0; n_free])
        } else {
            match revised::solve_with_row_duals(&dual) {
                Ok((sol, duals)) => {
                    let x = row_of.iter().map(|r| r.map_or(0.0, |r| duals[r])).collect();
                    (fixed_cost - sol.objective, x)
                }
                // The dual is always feasible (y = 0, μ = 0), so an
                // unbounded dual is the infeasibility certificate of the
                // equalities — and an "infeasible" one is numerical.
                Err(SolveError::Unbounded) => return Err(SolveError::Infeasible),
                Err(_) => return Ok(None),
            }
        };
        let _span = trace::span("lp.certify");
        let values = pre.restore(&reduced_x);

        // Certificate: x satisfies the equalities and prices at the dual
        // bound. Together they prove optimality whatever route (or stall)
        // the simplex took.
        let objective = self.objective_at(&values);
        let gap = (objective - dual_objective).abs() / (1.0 + objective.abs());
        trace::record_value("lp.l1.duality_gap", gap);
        if !self.hard.is_feasible(&values, FEAS_TOL) || gap.is_nan() || gap > GAP_TOL {
            return Ok(None);
        }
        Ok(Some(Solution { values, objective }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-7, "expected {b}, got {a}");
    }

    #[test]
    fn weighted_median_without_equalities() {
        // min |x-1| + |x-2| + 3|x-10|: the weighted median is x = 10.
        let mut hard = Problem::new();
        let x = hard.add_free_var("x", 0.0);
        let mut l1 = L1Problem::new(hard);
        l1.add_abs_term(1.0, vec![(x, 1.0)], -1.0);
        l1.add_abs_term(1.0, vec![(x, 1.0)], -2.0);
        l1.add_abs_term(3.0, vec![(x, 1.0)], -10.0);
        let sol = l1.solve().unwrap();
        assert_close(sol.value(x), 10.0);
        assert_close(sol.objective, 17.0);
        assert_close(l1.to_primal().solve().unwrap().objective, 17.0);
    }

    #[test]
    fn multi_variable_equalities_survive_as_free_dual_columns() {
        // x + y + z = 6 is not an equality chain, so the presolve leaves it
        // for the dual's μ column. min |x| + |y| + |z - 1| + |x - y|.
        let mut hard = Problem::new();
        let x = hard.add_free_var("x", 0.0);
        let y = hard.add_free_var("y", 0.0);
        let z = hard.add_free_var("z", 0.0);
        hard.add_constraint(vec![(x, 1.0), (y, 1.0), (z, 1.0)], Relation::Eq, 6.0);
        let mut l1 = L1Problem::new(hard);
        l1.add_abs_term(1.0, vec![(x, 1.0)], 0.0);
        l1.add_abs_term(1.0, vec![(y, 1.0)], 0.0);
        l1.add_abs_term(1.0, vec![(z, 1.0)], -1.0);
        l1.add_abs_term(1.0, vec![(x, 1.0), (y, -1.0)], 0.0);
        let sol = l1.solve().unwrap();
        assert!(l1.equalities().is_feasible(&sol.values, 1e-7));
        assert_close(sol.objective, 5.0);
        assert_close(l1.to_primal().solve_tableau().unwrap().objective, 5.0);
    }

    #[test]
    fn presolve_pins_fold_into_term_constants() {
        // x = 4 pins x; |x - 1| is then the constant 3 and y settles at 2.
        let mut hard = Problem::new();
        let x = hard.add_free_var("x", 0.0);
        let y = hard.add_free_var("y", 0.0);
        hard.add_constraint(vec![(x, 1.0)], Relation::Eq, 4.0);
        let mut l1 = L1Problem::new(hard);
        l1.add_abs_term(1.0, vec![(x, 1.0)], -1.0);
        l1.add_abs_term(2.0, vec![(y, 1.0), (x, -0.5)], 0.0);
        let sol = l1.solve().unwrap();
        assert_close(sol.value(x), 4.0);
        assert_close(sol.value(y), 2.0);
        assert_close(sol.objective, 3.0);
    }

    #[test]
    fn inconsistent_equalities_are_infeasible_on_both_routes() {
        // Chain inconsistency (caught by the presolve) ...
        let mut hard = Problem::new();
        let x = hard.add_free_var("x", 0.0);
        hard.add_constraint(vec![(x, 1.0)], Relation::Eq, 1.0);
        hard.add_constraint(vec![(x, 1.0)], Relation::Eq, 2.0);
        let l1 = L1Problem::new(hard);
        assert_eq!(l1.solve().unwrap_err(), SolveError::Infeasible);

        // ... and one only the simplex can see: the dual is unbounded.
        let mut hard = Problem::new();
        let v: Vec<_> = (0..3).map(|_| hard.add_free_var("", 0.0)).collect();
        let all = |s: f64| v.iter().map(|&v| (v, s)).collect::<Vec<_>>();
        hard.add_constraint(all(1.0), Relation::Eq, 1.0);
        hard.add_constraint(all(2.0), Relation::Eq, 3.0);
        let mut l1 = L1Problem::new(hard);
        l1.add_abs_term(1.0, vec![(v[0], 1.0)], 0.0);
        trace::reset_counter("lp.l1.primal_fallback");
        assert_eq!(l1.solve().unwrap_err(), SolveError::Infeasible);
        assert_eq!(trace::counter("lp.l1.primal_fallback"), 0);
        assert_eq!(l1.to_primal().solve().unwrap_err(), SolveError::Infeasible);
    }

    #[test]
    fn unmentioned_and_zero_weight_terms_leave_unknowns_at_zero() {
        let mut hard = Problem::new();
        let x = hard.add_free_var("x", 0.0);
        let idle = hard.add_free_var("idle", 0.0);
        let mut l1 = L1Problem::new(hard);
        l1.add_abs_term(1.0, vec![(x, 2.0)], -6.0);
        l1.add_abs_term(0.0, vec![(idle, 1.0)], -9.0);
        let sol = l1.solve().unwrap();
        assert_close(sol.value(x), 3.0);
        assert_close(sol.value(idle), 0.0);
        assert_close(sol.objective, 0.0);
    }

    #[test]
    fn no_terms_and_no_rows_is_trivial() {
        let mut hard = Problem::new();
        let x = hard.add_free_var("x", 0.0);
        let l1 = L1Problem::new(hard);
        let sol = l1.solve().unwrap();
        assert_close(sol.value(x), 0.0);
        assert_close(sol.objective, 0.0);
    }

    #[test]
    fn disjoint_unknowns_are_posed_as_separate_blocks_in_ascending_numbering() {
        // x0 — x2 coupled by an equality, x1 — x3 by a term, x4 idle, and a
        // zero-weight term across the two groups that must not join them.
        let mut hard = Problem::new();
        let x: Vec<_> = (0..5).map(|_| hard.add_free_var("", 0.0)).collect();
        hard.add_constraint(vec![(x[2], 1.0), (x[0], -1.0)], Relation::Eq, 3.0);
        let mut l1 = L1Problem::new(hard);
        l1.add_abs_term(1.0, vec![(x[3], 1.0), (x[1], -1.0)], -4.0);
        l1.add_abs_term(0.0, vec![(x[0], 1.0), (x[1], 1.0)], 7.0);
        l1.add_abs_term(2.0, vec![(x[0], 1.0)], -1.0);
        l1.add_abs_term(1.0, vec![(x[1], 1.0)], 0.0);

        assert_eq!(l1.num_blocks(), 2);
        let blocks = l1.blocks();
        assert_eq!(blocks[0].num_vars(), 2, "x0, x2");
        assert_eq!(blocks[0].num_terms(), 1);
        assert_eq!(blocks[0].equalities().num_constraints(), 1);
        // The equality `x2 − x0 = 3` reads `x1 − x0 = 3` inside the block.
        assert!(blocks[0].equalities().is_feasible(&[1.0, 4.0], 1e-12));
        assert_eq!(blocks[1].num_vars(), 2, "x1, x3");
        assert_eq!(blocks[1].num_terms(), 2, "the zero-weight term is left out");

        let sol = l1.solve().unwrap();
        assert_close(sol.objective, 0.0);
        for (v, want) in [1.0, 0.0, 4.0, 4.0, 0.0].into_iter().enumerate() {
            assert_close(sol.values[v], want);
        }
        assert_close(l1.to_primal().solve().unwrap().objective, 0.0);
    }

    #[test]
    fn memo_keys_are_the_blocks_themselves() {
        // One shape, one constant one bit apart: two blocks, two answers.
        let pose = |target: f64| {
            let mut hard = Problem::new();
            let x = hard.add_free_var("", 0.0);
            let mut l1 = L1Problem::new(hard);
            l1.add_abs_term(1.0, vec![(x, 1.0)], -target);
            l1
        };
        let next = f64::from_bits(3.0f64.to_bits() + 1);
        let memo = BlockMemo::default();
        let hits = trace::counter("lp.l1.block_hits");
        let a = pose(3.0).solve_sharing(&memo).unwrap();
        let b = pose(next).solve_sharing(&memo).unwrap();
        assert_eq!(memo.distinct_blocks(), 2);
        assert_eq!(trace::counter("lp.l1.block_hits"), hits);
        assert_eq!(a.values, [3.0]);
        assert_eq!(b.values, [next]);
        pose(3.0).solve_sharing(&memo).unwrap();
        assert_eq!(memo.distinct_blocks(), 2);
        assert_eq!(trace::counter("lp.l1.block_hits"), hits + 1);

        // The key is compared number by number — whatever the hasher says.
        let key = |l1: L1Problem| BlockKey(l1.blocks().remove(0));
        assert!(key(pose(3.0)) == key(pose(3.0)));
        assert!(key(pose(3.0)) != key(pose(next)));
        assert!(key(pose(0.0)) != key(pose(-0.0)), "bits, not values");
        // The same numbers as an equality instead of a term: the lists are
        // delimited, so the spelling differs.
        let mut hard = Problem::new();
        let x = hard.add_free_var("", 0.0);
        hard.add_constraint(vec![(x, 1.0)], Relation::Eq, 1.0);
        let as_equality = key(L1Problem::new(hard));
        let as_term = key(pose(-1.0));
        assert!(as_equality != as_term);
        assert!(as_equality.words().ne(as_term.words()));
    }

    #[test]
    fn a_second_solve_of_one_problem_is_answered_from_the_memo() {
        // Two blocks ({x, y} and {z}); the second pass runs no simplex.
        let mut hard = Problem::new();
        let x = hard.add_free_var("", 0.0);
        let y = hard.add_free_var("", 0.0);
        let z = hard.add_free_var("", 0.0);
        hard.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Eq, 6.0);
        let mut l1 = L1Problem::new(hard);
        l1.add_abs_term(1.0, vec![(x, 1.0)], -1.0);
        l1.add_abs_term(3.0, vec![(y, 2.0)], -4.0);
        l1.add_abs_term(2.0, vec![(z, 1.0)], -7.0);
        assert_eq!(l1.num_blocks(), 2);

        let memo = BlockMemo::default();
        let first = l1.solve_sharing(&memo).unwrap();
        let before = ["lp.solves", "lp.l1.block_hits", "lp.l1.blocks"].map(trace::counter);
        let second = l1.solve_sharing(&memo).unwrap();
        let after = ["lp.solves", "lp.l1.block_hits", "lp.l1.blocks"].map(trace::counter);
        assert_eq!(after[0] - before[0], 0, "no simplex");
        assert_eq!(after[1] - before[1], 2, "every block a hit");
        assert_eq!(after[2] - before[2], 2);
        let bits = |s: &Solution| s.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&first), bits(&second));
        assert_eq!(first.objective.to_bits(), second.objective.to_bits());
        assert_eq!(memo.distinct_blocks(), 2);
    }

    #[test]
    #[should_panic(expected = "must be free")]
    fn bounded_unknowns_are_rejected() {
        let mut hard = Problem::new();
        hard.add_nonneg_var("x", 0.0);
        let _ = L1Problem::new(hard);
    }
}
