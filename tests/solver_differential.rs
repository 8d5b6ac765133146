//! Differential property suite: the revised simplex (production path) and
//! the dense tableau simplex (oracle) share no pivoting code, so agreement
//! on random feasible / infeasible / degenerate LPs is strong evidence both
//! are right.
//!
//! Seeded with the in-repo [`bench::Rng`] (no external crates — repo
//! policy), so every case is reproducible from its seed printed on failure.

use bench::Rng;
use lp::{Problem, Relation, SolveError};

/// Outcome of a solve, reduced to what the two solvers must agree on.
#[derive(Debug, Clone, PartialEq)]
enum Outcome {
    Optimal(f64),
    Infeasible,
    Unbounded,
    /// Numerical failure — tolerated, but the suite asserts it stays rare.
    Failed,
}

fn outcome(result: Result<lp::Solution, SolveError>) -> Outcome {
    match result {
        Ok(s) => Outcome::Optimal(s.objective),
        Err(SolveError::Infeasible) => Outcome::Infeasible,
        Err(SolveError::Unbounded) => Outcome::Unbounded,
        Err(SolveError::IterationLimit) => Outcome::Failed,
    }
}

/// A random LP with a mix of bound kinds, relations and (optionally) forced
/// degeneracy: duplicate rows, zero right-hand sides and equality chains —
/// the shapes the alignment analysis actually produces.
fn random_problem(seed: u64) -> Problem {
    let mut rng = Rng::new(seed);
    let n = rng.range_usize(2, 9);
    let mut p = Problem::new();
    let vars: Vec<_> = (0..n)
        .map(|i| {
            let obj = rng.range_f64(-3.0, 3.0);
            match rng.range_usize(0, 4) {
                0 => p.add_free_var(format!("f{i}"), obj),
                1 => p.add_nonneg_var(format!("n{i}"), obj),
                2 => {
                    let lo = rng.range_f64(-5.0, 0.0);
                    let hi = lo + rng.range_f64(0.0, 8.0);
                    p.add_var(format!("b{i}"), lo, hi, obj)
                }
                _ => p.add_var(
                    format!("u{i}"),
                    f64::NEG_INFINITY,
                    rng.range_f64(0.0, 6.0),
                    obj,
                ),
            }
        })
        .collect();

    type Row = (Vec<(lp::VarId, f64)>, Relation, f64);
    let m = rng.range_usize(1, 11);
    let mut rows: Vec<Row> = Vec::new();
    for _ in 0..m {
        let mut terms = Vec::new();
        for &v in &vars {
            if rng.bool_with(0.5) {
                terms.push((v, rng.range_i64(-3, 3) as f64));
            }
        }
        if terms.iter().all(|&(_, a)| a == 0.0) {
            continue;
        }
        let relation = match rng.range_usize(0, 3) {
            0 => Relation::Le,
            1 => Relation::Ge,
            _ => Relation::Eq,
        };
        // Zero right-hand sides make the origin-adjacent vertices degenerate.
        let rhs = if rng.bool_with(0.3) {
            0.0
        } else {
            rng.range_i64(-6, 6) as f64
        };
        rows.push((terms, relation, rhs));
    }
    // Duplicate a row now and then: redundant constraints are the classic
    // degeneracy trigger.
    if !rows.is_empty() && rng.bool_with(0.4) {
        let i = rng.range_usize(0, rows.len());
        rows.push(rows[i].clone());
    }
    // And an equality chain, the presolve's home turf.
    if n >= 2 && rng.bool_with(0.5) {
        let a = vars[rng.range_usize(0, n)];
        let b = vars[rng.range_usize(0, n)];
        if a != b {
            rows.push((
                vec![(a, 1.0), (b, -1.0)],
                Relation::Eq,
                rng.range_i64(-2, 2) as f64,
            ));
        }
    }
    for (terms, relation, rhs) in rows {
        p.add_constraint(terms, relation, rhs);
    }
    p
}

/// The two solvers must agree on status; on optimality, objectives must
/// match within epsilon and both witnesses must be feasible.
fn check_agreement(seed: u64, p: &Problem) -> Result<(), String> {
    let revised = p.solve_without_presolve();
    let tableau = p.solve_tableau();
    // `solve_tableau` runs the presolve; re-deriving the revised result
    // through the identical presolve keeps the comparison apples-to-apples
    // while still exercising the raw solver above.
    let revised_pre = p.solve();

    if let Ok(s) = &revised {
        if !p.is_feasible(&s.values, 1e-5) {
            return Err(format!("seed {seed}: revised returned infeasible point"));
        }
    }
    if let Ok(s) = &revised_pre {
        if !p.is_feasible(&s.values, 1e-5) {
            return Err(format!(
                "seed {seed}: revised(+presolve) returned infeasible point"
            ));
        }
    }
    if let Ok(s) = &tableau {
        if !p.is_feasible(&s.values, 1e-5) {
            return Err(format!("seed {seed}: tableau returned infeasible point"));
        }
    }

    let oracle = outcome(tableau);
    for (name, a) in [
        ("revised-raw", outcome(revised)),
        ("revised+presolve", outcome(revised_pre)),
    ] {
        match (&a, &oracle) {
            // Numerical failures are screened out (and rationed) by the
            // caller before check_agreement runs.
            (Outcome::Failed, _) | (_, Outcome::Failed) => {}
            (Outcome::Optimal(x), Outcome::Optimal(y)) => {
                let tol = 1e-5 * (1.0 + x.abs().max(y.abs()));
                if (x - y).abs() > tol {
                    return Err(format!("seed {seed}: {name} objective {x} vs tableau {y}"));
                }
            }
            (x, y) if x == y => {}
            (x, y) => {
                return Err(format!("seed {seed}: {name} status {x:?} vs tableau {y:?}"));
            }
        }
    }
    Ok(())
}

#[test]
fn revised_and_tableau_agree_on_random_lps() {
    let mut failures = Vec::new();
    let mut numerical_failures = 0usize;
    let cases = 400;
    for seed in 0..cases {
        let p = random_problem(seed * 7919 + 13);
        // Screen out (and ration) numerical failures from every path under
        // test, the presolved production one included, so a solver cannot
        // rot behind tolerated Failed outcomes.
        if outcome(p.solve_without_presolve()) == Outcome::Failed
            || outcome(p.solve_tableau()) == Outcome::Failed
            || outcome(p.solve()) == Outcome::Failed
        {
            numerical_failures += 1;
            continue;
        }
        if let Err(e) = check_agreement(seed, &p) {
            failures.push(e);
        }
    }
    assert!(
        failures.is_empty(),
        "{} disagreement(s):\n{}",
        failures.len(),
        failures.join("\n")
    );
    // A handful of numerically hopeless instances is acceptable; a pile of
    // them means a solver rots.
    assert!(
        numerical_failures <= cases as usize / 20,
        "too many numerical failures: {numerical_failures}/{cases}"
    );
}

#[test]
fn solvers_agree_on_degenerate_equality_chains() {
    // Directed version of the alignment analysis's worst case: long chains
    // of pairwise equalities over free variables with a couple of bounded
    // anchors — the presolve collapses most of it, the solvers must agree
    // on what remains.
    for seed in 0..25u64 {
        let mut rng = Rng::new(seed.wrapping_mul(0x9E37) + 5);
        let n = rng.range_usize(4, 12);
        let mut p = Problem::new();
        let vars: Vec<_> = (0..n)
            .map(|i| p.add_free_var(format!("x{i}"), rng.range_f64(-1.0, 1.0)))
            .collect();
        for w in vars.windows(2) {
            p.add_constraint(
                vec![(w[0], 1.0), (w[1], -1.0)],
                Relation::Eq,
                rng.range_i64(-3, 3) as f64,
            );
        }
        // Anchor the chain so the LP is bounded.
        p.add_constraint(vec![(vars[0], 1.0)], Relation::Ge, -10.0);
        p.add_constraint(vec![(vars[0], 1.0)], Relation::Le, 10.0);
        if let Err(e) = check_agreement(seed, &p) {
            panic!("{e}");
        }
    }
}

/// A wide, sparse LP in the exact shapes that stress the sparse kernel: many
/// columns over few rows, rows with at most two structural nonzeros
/// (difference constraints — what the mobile-offset formulation emits),
/// duplicated terms the standard-form builder must combine, empty
/// (constraint-free) columns, and near-duplicate rows that push the basis
/// toward singularity and force refactorisations.
fn sparse_problem(seed: u64) -> Problem {
    let mut rng = Rng::new(seed);
    let n = rng.range_usize(8, 25);
    let mut p = Problem::new();
    let vars: Vec<_> = (0..n)
        .map(|i| match rng.range_usize(0, 3) {
            0 => p.add_nonneg_var(format!("n{i}"), rng.range_f64(0.0, 3.0)),
            1 => {
                let lo = rng.range_f64(-4.0, 0.0);
                p.add_var(
                    format!("b{i}"),
                    lo,
                    lo + rng.range_f64(0.5, 6.0),
                    rng.range_f64(-3.0, 3.0),
                )
            }
            _ => p.add_free_var(format!("f{i}"), rng.range_f64(-1.0, 1.0)),
        })
        .collect();

    type Row = (Vec<(lp::VarId, f64)>, Relation, f64);
    // Few rows over many columns: most columns never enter a constraint,
    // so the CSC matrix carries genuinely empty columns.
    let m = rng.range_usize(3, 13);
    let mut rows: Vec<Row> = Vec::new();
    for _ in 0..m {
        let a = vars[rng.range_usize(0, n)];
        let b = vars[rng.range_usize(0, n)];
        let mut terms = vec![(a, 1.0)];
        if a == b {
            // A duplicated term on the same variable: the standard-form
            // builder's sort + dedup pass must combine the coefficients.
            terms.push((a, rng.range_i64(-1, 2) as f64));
        } else {
            terms.push((b, -1.0));
            if rng.bool_with(0.25) {
                terms.push((b, rng.range_i64(-2, 2) as f64));
            }
        }
        if terms.iter().map(|&(_, a)| a).sum::<f64>() == 0.0 && terms.len() == 2 && a == b {
            continue; // fully cancelled row
        }
        let relation = match rng.range_usize(0, 3) {
            0 => Relation::Le,
            1 => Relation::Ge,
            _ => Relation::Eq,
        };
        rows.push((terms, relation, rng.range_i64(-4, 4) as f64));
    }
    // A near-duplicate of an existing row: an epsilon-perturbed copy makes
    // the basis nearly singular, exercising the LU threshold pivoting and
    // the refactorisation fallback. The perturbation (1e-5) sits well above
    // the solvers' pivot tolerances — a smaller one makes feasibility hinge
    // on a pivot no fixed-tolerance solver can trust, and the oracles
    // legitimately disagree.
    if !rows.is_empty() && rng.bool_with(0.5) {
        let i = rng.range_usize(0, rows.len());
        let (mut terms, relation, rhs) = rows[i].clone();
        if let Some(t) = terms.first_mut() {
            t.1 += 1e-5;
        }
        rows.push((terms, relation, rhs));
    }
    for (terms, relation, rhs) in rows {
        p.add_constraint(terms, relation, rhs);
    }
    // Anchor a few variables so difference chains over free variables stay
    // bounded often enough that the optimal-objective comparison bites.
    for &v in &vars {
        if rng.bool_with(0.3) {
            p.add_constraint(vec![(v, 1.0)], Relation::Le, 8.0);
            p.add_constraint(vec![(v, 1.0)], Relation::Ge, -8.0);
        }
    }
    p
}

#[test]
fn revised_and_tableau_agree_on_sparse_stressing_lps() {
    let mut failures = Vec::new();
    let mut numerical_failures = 0usize;
    let cases = 120;
    for seed in 0..cases {
        let p = sparse_problem(seed * 6361 + 29);
        if outcome(p.solve_without_presolve()) == Outcome::Failed
            || outcome(p.solve_tableau()) == Outcome::Failed
            || outcome(p.solve()) == Outcome::Failed
        {
            numerical_failures += 1;
            continue;
        }
        if let Err(e) = check_agreement(seed, &p) {
            failures.push(e);
        }
    }
    assert!(
        failures.is_empty(),
        "{} disagreement(s):\n{}",
        failures.len(),
        failures.join("\n")
    );
    assert!(
        numerical_failures <= cases as usize / 20,
        "too many numerical failures: {numerical_failures}/{cases}"
    );
}

#[test]
fn solvers_agree_on_infeasible_systems() {
    for seed in 0..25u64 {
        let mut rng = Rng::new(seed * 31 + 2);
        let mut p = Problem::new();
        let x = p.add_nonneg_var("x", rng.range_f64(0.1, 2.0));
        let y = p.add_nonneg_var("y", rng.range_f64(0.1, 2.0));
        let k = rng.range_i64(1, 5) as f64;
        // x + y <= k and x + y >= k + gap: plainly infeasible.
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Le, k);
        p.add_constraint(
            vec![(x, 1.0), (y, 1.0)],
            Relation::Ge,
            k + rng.range_f64(0.5, 3.0),
        );
        assert_eq!(outcome(p.solve_without_presolve()), Outcome::Infeasible);
        assert_eq!(outcome(p.solve_tableau()), Outcome::Infeasible);
        assert_eq!(outcome(p.solve()), Outcome::Infeasible);
    }
}
