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
//! one [`Problem::solve`] runs, with the abs terms combined onto the
//! surviving unknowns), dual LP through [`crate::revised`], `x` read off
//! the row duals. The answer is *certified* before it is returned — `E x = f` to `1e-6`, and
//! the duality gap between `Σ w|a·x + c|` and the dual objective closed —
//! and an uncertified solve falls back, counted
//! (`lp.l1.primal_fallback`), to the surrogate expansion
//! [`L1Problem::to_primal`], which otherwise serves as the differential
//! oracle.
//!
//! # One representation
//!
//! An [`L1Problem`] keeps its equalities and its terms in two flat arenas —
//! every row's `(unknown, coefficient)` pairs back to back behind a
//! `starts` index, `rhs` / `weight` / `constant` beside them — and nothing
//! between posing it and the first pivot copies a number into a container
//! of its own. The split into blocks is a union-find over the arenas; a
//! block is posed to the memo *by reference*, hashed and compared through
//! the split's renumbering; the presolve ([`crate::presolve`], the one
//! [`Problem::solve`] runs) combines a row in a scratch buffer; and each
//! surviving term is written once, as one column, into the compressed
//! sparse column matrix the simplex factorises (`revised::Standard` — a
//! [`Problem`] reaches the same structure by having its rows transposed
//! into it). Per solve there is scratch; per row and per term there is
//! no allocation.
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
//! number, bit for bit, never through a digest (a hash of the same numbers
//! only chooses where to look). A block the memo holds is never cut out of
//! its problem at all; one it does not hold is materialised once, to be
//! solved. Problems solved against one
//! memo ([`L1Problem::solve_sharing`]) run the simplex once per distinct
//! block, however many of them pose it: the statements of a program that
//! repeat a shape, the template axes, the refinement rounds.

use crate::model::{Problem, Relation, Solution, SolveError, VarId};
use crate::presolve::{inconsistent, Chains, Form};
use crate::revised::{self, Standard};
use crate::sparse::CscMatrix;
use std::cell::RefCell;
use std::collections::HashMap;

/// Certificate tolerance on `|E x − f|`, per equality.
const FEAS_TOL: f64 = 1e-6;
/// Certificate tolerance on the relative duality gap.
const GAP_TOL: f64 = 1e-6;

/// Lists stored back to back: list `k` is `items[starts[k]..starts[k + 1]]`.
/// The linear forms of a problem — rows or terms — are kept like this, and
/// so are a split's positions, block by block.
#[derive(Debug, Clone)]
struct Lists<T> {
    starts: Vec<usize>,
    items: Vec<T>,
}

type Forms = Lists<(VarId, f64)>;

impl<T> Default for Lists<T> {
    fn default() -> Self {
        Lists {
            starts: vec![0],
            items: Vec::new(),
        }
    }
}

impl<T> Lists<T> {
    fn len(&self) -> usize {
        self.starts.len() - 1
    }

    fn get(&self, k: usize) -> &[T] {
        &self.items[self.starts[k]..self.starts[k + 1]]
    }

    fn iter(&self) -> impl Iterator<Item = &[T]> + Clone {
        self.starts.windows(2).map(|w| &self.items[w[0]..w[1]])
    }

    fn push(&mut self, list: impl IntoIterator<Item = T>) {
        self.items.extend(list);
        self.starts.push(self.items.len());
    }
}

impl Lists<usize> {
    /// Positions grouped by block, ascending within a block: a counting
    /// sort of `(block, position)` pairs that come in ascending position.
    fn grouped(blocks: usize, pairs: impl Iterator<Item = (usize, usize)> + Clone) -> Self {
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
        Lists { starts, items }
    }
}

/// A problem's blocks, by reference: per block its unknowns and the
/// positions of its terms and equalities, and per unknown its index inside
/// its block.
#[derive(Debug)]
struct Split {
    members: Lists<usize>,
    terms: Lists<usize>,
    equalities: Lists<usize>,
    local: Vec<usize>,
}

/// Block `b` of a problem as it is posed to the memo: by reference, every
/// unknown read through the split's renumbering.
#[derive(Clone, Copy)]
struct Posed<'a> {
    problem: &'a L1Problem,
    split: &'a Split,
    b: usize,
}

impl Posed<'_> {
    /// The block spelled as words, handed to `word` one by one until it
    /// declines — every number as its IEEE bit pattern, every list behind
    /// its length, so the spelling is injective:
    ///
    /// ```text
    ///   unknowns, terms,  { weight, constant, n, (unknown, coefficient)·n }·terms,
    ///                     { rhs, n, (unknown, coefficient)·n }·equalities
    /// ```
    fn spell<W: FnMut(u64) -> Option<()>>(self, word: &mut W) -> Option<()> {
        fn list<W: FnMut(u64) -> Option<()>>(
            word: &mut W,
            local: &[usize],
            form: &Form,
        ) -> Option<()> {
            word(form.len() as u64)?;
            form.iter().try_for_each(|&(v, a)| {
                word(local[v.0] as u64)?;
                word(a.to_bits())
            })
        }
        let Posed { problem, split, b } = self;
        let terms = split.terms.get(b);
        word(split.members.get(b).len() as u64)?;
        word(terms.len() as u64)?;
        for &k in terms {
            word(problem.weight[k].to_bits())?;
            word(problem.constant[k].to_bits())?;
            list(word, &split.local, problem.terms.get(k))?;
        }
        split.equalities.get(b).iter().try_for_each(|&k| {
            word(problem.rhs[k].to_bits())?;
            list(word, &split.local, problem.rows.get(k))
        })
    }

    /// A hash of the spelling, by the multiply-rotate of rustc's `FxHasher`,
    /// and the spelling's length. The hash only chooses where to look: the
    /// blocks come from this program's own RLPs, and a collision costs a
    /// comparison.
    fn hash(self) -> (u64, usize) {
        let (mut hash, mut words) = (0u64, 0);
        self.spell(&mut |word| {
            hash = (hash.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
            words += 1;
            Some(())
        });
        (hash, words)
    }

    /// The spelling, `words` long, kept: what the memo files a block's
    /// answer under.
    fn spelled(self, words: usize) -> Vec<u64> {
        let mut spelling = Vec::with_capacity(words);
        self.spell(&mut |word| {
            spelling.push(word);
            Some(())
        });
        spelling
    }

    /// Whether `spelling` spells this block, word for word.
    fn is(self, spelling: &[u64]) -> bool {
        let mut kept = spelling.iter();
        let same = self.spell(&mut |word| (kept.next() == Some(&word)).then_some(()));
        same.is_some() && kept.next().is_none()
    }

    /// The block as a problem of its own, its unknowns renumbered in
    /// ascending order — so it reads the same whatever problem it was cut
    /// from.
    fn cut(self) -> L1Problem {
        let Posed { problem, split, b } = self;
        let (terms, equalities) = (split.terms.get(b), split.equalities.get(b));
        let cut = |from: &Forms, at: &[usize]| {
            let mut forms = Forms::default();
            let entries = at.iter().map(|&k| from.get(k).len());
            forms.items.reserve(entries.sum());
            for &k in at {
                let renumbered = from.get(k).iter();
                forms.push(renumbered.map(|&(v, a)| (VarId(split.local[v.0]), a)));
            }
            forms
        };
        let pick = |from: &[f64], at: &[usize]| at.iter().map(|&k| from[k]).collect();
        L1Problem {
            num_vars: split.members.get(b).len(),
            rows: cut(&problem.rows, equalities),
            rhs: pick(&problem.rhs, equalities),
            terms: cut(&problem.terms, terms),
            weight: pick(&problem.weight, terms),
            constant: pick(&problem.constant, terms),
        }
    }
}

/// Answers to the blocks posed so far, kept under the blocks themselves:
/// what identifies an entry is the block's whole problem spelled out,
/// compared number by number — never a digest of it — so two blocks share
/// an answer exactly when the solver could not tell them apart.
///
/// Scope a memo to the solves that can share: nothing is ever evicted, and
/// an entry is as large as its block.
#[derive(Debug, Default)]
pub struct BlockMemo {
    /// The spelling of every distinct block posed, with its answer, filed
    /// under the spelling's hash — where to look, not what to find.
    answers: RefCell<HashMap<u64, Vec<Answer>>>,
}

type Answer = (Vec<u64>, Result<Solution, SolveError>);

impl BlockMemo {
    /// Number of distinct blocks posed so far.
    pub fn distinct_blocks(&self) -> usize {
        self.answers.borrow().values().map(Vec::len).sum()
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
    num_vars: usize,
    /// The equalities `E x = f`: row `e` is `rows.get(e)·x = rhs[e]`.
    rows: Forms,
    rhs: Vec<f64>,
    /// The objective: term `k` is `weight[k]·|terms.get(k)·x + constant[k]|`.
    terms: Forms,
    weight: Vec<f64>,
    constant: Vec<f64>,
}

impl L1Problem {
    /// An L1 problem over `num_vars` free unknowns, with no equalities and
    /// no objective terms yet.
    pub fn with_unknowns(num_vars: usize) -> L1Problem {
        L1Problem {
            num_vars,
            rows: Forms::default(),
            rhs: Vec::new(),
            terms: Forms::default(),
            weight: Vec::new(),
            constant: Vec::new(),
        }
    }

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
        let mut l1 = L1Problem::with_unknowns(hard.num_vars());
        for c in &hard.constraints {
            assert!(
                c.relation == Relation::Eq,
                "L1 constraints must be equalities"
            );
            l1.add_equality(&c.terms, c.rhs);
        }
        l1
    }

    /// Add the equality `Σ coeff·var = rhs`. Duplicate variables in `terms`
    /// are summed.
    pub fn add_equality(&mut self, terms: &[(VarId, f64)], rhs: f64) {
        let known = terms.iter().all(|&(v, _)| v.0 < self.num_vars);
        assert!(known, "equality references unknown variable");
        self.rows.push(terms.iter().copied());
        self.rhs.push(rhs);
    }

    /// Add the objective term `weight·|Σ coeff·var + constant|`. Duplicate
    /// variables in `coeffs` are summed.
    pub fn add_abs_term(
        &mut self,
        weight: f64,
        coeffs: impl IntoIterator<Item = (VarId, f64)>,
        constant: f64,
    ) {
        assert!(
            weight >= 0.0 && weight.is_finite(),
            "abs-term weight must be finite and non-negative"
        );
        self.terms.push(coeffs);
        let mut written = self.terms.get(self.weight.len()).iter();
        assert!(
            written.all(|&(v, _)| v.0 < self.num_vars),
            "term references unknown variable"
        );
        self.weight.push(weight);
        self.constant.push(constant);
    }

    /// The unknowns and the equality constraints (objective all-zero), as a
    /// [`Problem`] built for the caller.
    pub fn equalities(&self) -> Problem {
        let mut hard = Problem::new();
        for _ in 0..self.num_vars {
            hard.add_free_var("", 0.0);
        }
        for (form, &rhs) in self.rows.iter().zip(&self.rhs) {
            hard.add_constraint(form.to_vec(), Relation::Eq, rhs);
        }
        hard
    }

    /// Number of unknowns.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of absolute-value terms.
    pub fn num_terms(&self) -> usize {
        self.weight.len()
    }

    /// Number of equalities.
    pub fn num_equalities(&self) -> usize {
        self.rhs.len()
    }

    /// Term `k` as `(weight, coefficients, constant)`.
    pub fn term(&self, k: usize) -> (f64, &[(VarId, f64)], f64) {
        (self.weight[k], self.terms.get(k), self.constant[k])
    }

    /// Equality `e` as `(coefficients, rhs)`.
    pub fn equality(&self, e: usize) -> (&[(VarId, f64)], f64) {
        (self.rows.get(e), self.rhs[e])
    }

    /// `Σ_k w_k·|a_k·x + c_k|` at a candidate point.
    pub fn objective_at(&self, x: &[f64]) -> f64 {
        let terms = self.terms.iter().zip(&self.weight).zip(&self.constant);
        terms
            .map(|((form, weight), constant)| {
                let expr: f64 = form.iter().map(|&(v, a)| a * x[v.0]).sum();
                weight * (expr + constant).abs()
            })
            .sum()
    }

    /// Whether `x` satisfies every equality within `tol`.
    pub fn is_feasible(&self, x: &[f64], tol: f64) -> bool {
        let holds = |(form, rhs): (&Form, &f64)| {
            let lhs: f64 = form.iter().map(|(v, a)| a * x[v.0]).sum();
            (lhs - rhs).abs() <= tol
        };
        x.len() == self.num_vars && self.rows.iter().zip(&self.rhs).all(holds)
    }

    /// The surrogate expansion: the same unknowns and equalities plus, per
    /// term, a variable `z_k ≥ 0` with objective `w_k` and the row pair
    /// `z_k ≥ ±(a_k·x + c_k)`. The unknowns keep their indices; `z_k` is
    /// variable `num_vars() + k`. This is the differential oracle for the
    /// dual route and its fallback.
    pub fn to_primal(&self) -> Problem {
        let mut p = self.equalities();
        for k in 0..self.num_terms() {
            let (weight, form, constant) = self.term(k);
            let z = p.add_nonneg_var("", weight);
            // z - expr >= 0
            let mut row = vec![(z, 1.0)];
            row.extend(form.iter().map(|&(v, a)| (v, -a)));
            p.add_constraint(row, Relation::Ge, constant);
            // z + expr >= 0
            let mut row = vec![(z, 1.0)];
            row.extend(form.iter().copied());
            p.add_constraint(row, Relation::Ge, -constant);
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
        self.solve_counting_blocks(memo).0
    }

    /// [`L1Problem::solve_sharing`], and how many blocks the problem fell
    /// apart into ([`L1Problem::num_blocks`]) — the split runs once.
    pub fn solve_counting_blocks(&self, memo: &BlockMemo) -> (Result<Solution, SolveError>, usize) {
        let _span = trace::span("lp.solve");
        let split = {
            let _span = trace::span("lp.split");
            self.split()
        };
        (self.solve_split(&split, memo), split.members.len())
    }

    fn solve_split(&self, split: &Split, memo: &BlockMemo) -> Result<Solution, SolveError> {
        // `0 = rhs` belongs to no block; the presolve's own tolerance.
        let empty = self
            .rows
            .iter()
            .zip(&self.rhs)
            .filter(|(form, _)| form.is_empty());
        if empty.into_iter().any(|(_, &rhs)| inconsistent(rhs)) {
            return Err(SolveError::Infeasible);
        }
        let blocks = split.members.len();
        trace::count("lp.l1.blocks", blocks as u64);
        // An unknown nothing mentions is in no block and stays at zero.
        let mut values = vec![0.0; self.num_vars()];
        // A block's solve never poses to the memo, so the borrow can span it.
        let mut answers = memo.answers.borrow_mut();
        for b in 0..blocks {
            let posed = Posed {
                problem: self,
                split,
                b,
            };
            let key_span = trace::span("lp.block_key");
            let (hash, words) = posed.hash();
            let kept = answers.entry(hash).or_default();
            let at = match kept.iter().position(|(spelling, _)| posed.is(spelling)) {
                Some(at) => {
                    trace::count("lp.l1.block_hits", 1);
                    drop(key_span);
                    at
                }
                // A block the memo does not hold is cut out and solved.
                None => {
                    let (spelling, block) = (posed.spelled(words), posed.cut());
                    drop(key_span);
                    kept.push((spelling, block.solve_block()));
                    kept.len() - 1
                }
            };
            let solution = kept[at].1.as_ref().map_err(SolveError::clone)?;
            for (&v, &x) in split.members.get(b).iter().zip(&solution.values) {
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
        let split = &self.split();
        let posed = |b| Posed {
            problem: self,
            split,
            b,
        };
        (0..split.members.len()).map(|b| posed(b).cut()).collect()
    }

    /// The terms that connect and cost — a zero-weight term does neither —
    /// by position.
    fn weighted(&self) -> impl Iterator<Item = (usize, &Form)> + Clone {
        let weighted = self.terms.iter().enumerate();
        weighted.filter(|&(k, _)| self.weight[k] != 0.0)
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
        for form in self
            .weighted()
            .map(|(_, form)| form)
            .chain(self.rows.iter())
        {
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

    /// The blocks by reference. Zero-weight terms and terms and equalities
    /// over no unknown belong to no block.
    fn split(&self) -> Split {
        let (block_of, count) = self.components();
        let in_block = |v: usize| (block_of[v] != usize::MAX).then_some((block_of[v], v));
        let members = Lists::grouped(count, (0..block_of.len()).filter_map(in_block));
        // A form lies in the block of its first unknown, if it has one.
        let placed = |(k, form): (usize, &Form)| Some((block_of[form.first()?.0 .0], k));
        let mut local = vec![0; block_of.len()];
        for b in 0..count {
            for (i, &v) in members.get(b).iter().enumerate() {
                local[v] = i;
            }
        }
        Split {
            terms: Lists::grouped(count, self.weighted().filter_map(placed)),
            equalities: Lists::grouped(count, self.rows.iter().enumerate().filter_map(placed)),
            members,
            local,
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

    /// The dual LP — a boxed column per surviving term, a free column per
    /// surviving equality, a row per surviving unknown some column
    /// mentions — written straight into the simplex's standard form. With
    /// it: the substitutions that lead back from its row duals to the
    /// unknowns, per surviving unknown its row (`usize::MAX`: none), and the
    /// cost of the terms the presolve reduced to constants.
    pub(crate) fn pose_dual(&self) -> Result<(Standard, Chains, Vec<usize>, f64), SolveError> {
        let rows = self.rows.iter().zip(&self.rhs);
        let mut chains = {
            let _span = trace::span("lp.presolve");
            let rows = rows.clone().map(|(form, &rhs)| (form, Relation::Eq, rhs));
            let mut chains = Chains::absorb(self.num_vars, |_| true, rows)?;
            chains.settle(|_, _| {});
            chains
        };
        let _span = trace::span("lp.dual_assemble");
        let n_free = chains.reduced_vars.len();
        let ncols = self.num_terms() + self.num_equalities();
        let nnz = self.terms.items.len() + self.rows.items.len();
        let mut col_ptr = Vec::with_capacity(ncols + 1);
        col_ptr.push(0);
        let (mut row_idx, mut values) = (Vec::with_capacity(nnz), Vec::with_capacity(nnz));
        let mut bounds = (Vec::with_capacity(ncols), Vec::with_capacity(ncols));
        let mut costs = Vec::with_capacity(ncols);
        // First pass: the columns over the surviving unknowns as they come,
        // and the largest magnitude in each unknown's row (zero: no entry).
        let mut row_max = vec![0.0f64; n_free];
        let mut column = |chains: &Chains, sign: f64, bound: f64, cost: f64| {
            for (v, a) in chains.combined() {
                row_idx.push(v);
                values.push(sign * a);
                row_max[v] = row_max[v].max(a.abs());
            }
            col_ptr.push(row_idx.len());
            bounds.0.push(-bound);
            bounds.1.push(bound);
            costs.push(cost);
        };
        // Terms the presolve reduced to constants cost the same at every x.
        let mut fixed_cost = 0.0;
        for (k, form) in self.weighted() {
            let constant = -chains.combine(form, -self.constant[k]);
            if chains.combined().next().is_none() {
                fixed_cost += self.weight[k] * constant.abs();
            } else {
                column(&chains, 1.0, self.weight[k], -constant);
            }
        }
        for (form, &rhs) in rows {
            let rhs = chains.combine(form, rhs);
            if chains.combined().next().is_some() {
                column(&chains, -1.0, f64::INFINITY, -rhs);
            } else if inconsistent(rhs) {
                return Err(SolveError::Infeasible);
            }
        }
        trace::count("lp.presolve_eliminated", (self.num_vars - n_free) as u64);

        // Second pass: number the rows some column mentions, equilibrate
        // each by its largest coefficient (alignment systems mix element
        // counts in the thousands with unit coefficients).
        let mut row_of = vec![usize::MAX; n_free];
        let mut row_scale = Vec::with_capacity(n_free);
        for v in (0..n_free).filter(|&v| row_max[v] > 0.0) {
            row_of[v] = row_scale.len();
            row_scale.push(row_max[v].max(1e-12).recip());
        }
        for (i, a) in row_idx.iter_mut().zip(&mut values) {
            *i = row_of[*i];
            *a *= row_scale[*i];
        }
        let m = row_scale.len();
        trace::count("lp.l1.dual_rows", m as u64);
        trace::count("lp.l1.dual_cols", costs.len() as u64);
        let standard = Standard {
            n: costs.len(),
            csc: CscMatrix::from_parts(m, col_ptr, row_idx, values),
            b: vec![0.0; m],
            row_scale,
            lower: bounds.0,
            upper: bounds.1,
            cost: costs,
        };
        Ok((standard, chains, row_of, fixed_cost))
    }

    /// The dual route. `Ok(None)` means the simplex failed numerically or
    /// its answer did not certify; the only error is `Infeasible`.
    fn solve_dual(&self) -> Result<Option<Solution>, SolveError> {
        let (standard, chains, row_of, fixed_cost) = self.pose_dual()?;
        let (dual_objective, reduced_x) = if standard.csc.m() == 0 {
            (fixed_cost, vec![0.0; row_of.len()])
        } else {
            match revised::optimise(standard) {
                Ok((sol, solver)) => {
                    // The unknowns are the row duals; one whose row no
                    // column mentions is left at zero.
                    let duals = solver.expect("the dual has rows").row_duals();
                    let x = row_of.iter();
                    let x = x.map(|&r| if r == usize::MAX { 0.0 } else { duals[r] });
                    (fixed_cost - sol.objective, x.collect())
                }
                // The dual is always feasible (y = 0, μ = 0), so an
                // unbounded dual is the infeasibility certificate of the
                // equalities — and an "infeasible" one is numerical.
                Err(SolveError::Unbounded) => return Err(SolveError::Infeasible),
                Err(_) => return Ok(None),
            }
        };
        let _span = trace::span("lp.certify");
        let values = chains.restore(&reduced_x);

        // Certificate: x satisfies the equalities and prices at the dual
        // bound. Together they prove optimality whatever route (or stall)
        // the simplex took.
        let objective = self.objective_at(&values);
        let gap = (objective - dual_objective).abs() / (1.0 + objective.abs());
        trace::record_value("lp.l1.duality_gap", gap);
        if !self.is_feasible(&values, FEAS_TOL) || gap.is_nan() || gap > GAP_TOL {
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
        assert_eq!(blocks[0].num_equalities(), 1);
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
        let key = |l1: L1Problem| {
            let (problem, split) = (&l1, &l1.split());
            let posed = Posed {
                problem,
                split,
                b: 0,
            };
            let spelling = posed.spelled(posed.hash().1);
            assert!(posed.is(&spelling));
            spelling
        };
        assert!(key(pose(3.0)) == key(pose(3.0)));
        assert!(key(pose(3.0)) != key(pose(next)));
        assert!(key(pose(0.0)) != key(pose(-0.0)), "bits, not values");
        // The same numbers as an equality instead of a term: the lists are
        // delimited, so the spelling differs.
        let mut hard = Problem::new();
        let x = hard.add_free_var("", 0.0);
        hard.add_constraint(vec![(x, 1.0)], Relation::Eq, 1.0);
        assert!(key(L1Problem::new(hard)) != key(pose(-1.0)));
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
