//! Mobile offset alignment by rounded linear programming (Section 4).
//!
//! For each template axis independently (the grid metric is separable), the
//! offset of every non-replicated port is an affine function of the LIVs of
//! its iteration space, `a0 + a1·i1 + ... + ak·ik`. The hard node constraints
//! come from [`crate::constraints`]; this module adds the objective: for each
//! edge and each *subrange* of its iteration space, the absolute value of
//! the weighted span `Σ_{i∈subrange} w(i)·(off_src(i) − off_dst(i))`
//! (Equation 3), assuming the span does not change sign inside the
//! subrange. The result is an [`lp::L1Problem`] — free coefficients,
//! equalities, a sum of absolute values — which `lp` solves through its
//! dual: Equation 3's surrogate variable per subrange never becomes a pair
//! of LP rows, it is a boxed dual *column* `−w ≤ y ≤ w`, and the basis has
//! one row per offset unknown instead of two per subrange. Choosing
//! subranges is what distinguishes the five strategies of Section 4.2:
//!
//! * [`OffsetStrategy::Unrolling`] — every iteration its own subrange (exact,
//!   impractical for long loops);
//! * [`OffsetStrategy::SingleRange`] — one subrange per edge;
//! * [`OffsetStrategy::FixedPartition`] — `m` equal subranges per loop level
//!   (the paper's recommended compromise; cost is within `1 + 2/m²` of
//!   optimal, i.e. 22 % for `m = 3` and 8 % for `m = 5`);
//! * [`OffsetStrategy::ZeroCrossing`] — two subranges whose boundary is moved
//!   to the located zero crossing, iterated;
//! * [`OffsetStrategy::RecursiveRefinement`] — subranges containing a zero
//!   crossing are split there, iterated;
//! * [`OffsetStrategy::StateSpaceSearch`] — single-range seed followed by a
//!   greedy search over subrange configurations, accepting a refinement only
//!   when the exact cost improves.
//!
//! After the LP solves, the fractional coefficients are rounded to integers
//! (RLP) and written into the [`ProgramAlignment`]. A rounding that breaks a
//! node constraint is repaired by pinning the unknowns it rounded to where
//! it put them and solving again (`align.round.repaired`); a solve whose
//! best candidate is still blown up after that is retried with the array
//! homes held static (`align.ladder_engaged`).

use crate::constraints::{NodeConstraints, OffsetVars};
use crate::cost::CostModel;
use crate::position::{OffsetAlign, ProgramAlignment};
use adg::{Adg, Edge, EdgeId, PortId};
use align_ir::{Affine, IterationSpace, LivId};
use lp::{BlockMemo, L1Problem, VarId};
use std::borrow::Cow;
use std::collections::HashSet;

/// Strategy for choosing iteration-space subranges (Section 4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OffsetStrategy {
    /// Every iteration is its own subrange (exact, `|Z|` variables per edge).
    Unrolling,
    /// One subrange covering the whole iteration space.
    SingleRange,
    /// `m` equal subranges per loop level (`m^k` per edge in a `k`-nest).
    FixedPartition(usize),
    /// Two subranges; the boundary tracks the located zero crossing.
    ZeroCrossing { max_rounds: usize },
    /// Split any subrange containing a zero crossing; repeat.
    RecursiveRefinement { max_rounds: usize },
    /// Greedy search over subrange configurations from a single-range seed.
    StateSpaceSearch { max_steps: usize },
}

impl OffsetStrategy {
    /// Stable label for reports.
    pub fn name(&self) -> String {
        match self {
            OffsetStrategy::Unrolling => "unrolling".into(),
            OffsetStrategy::SingleRange => "single-range".into(),
            OffsetStrategy::FixedPartition(m) => format!("fixed-partition(m={m})"),
            OffsetStrategy::ZeroCrossing { .. } => "zero-crossing".into(),
            OffsetStrategy::RecursiveRefinement { .. } => "recursive-refinement".into(),
            OffsetStrategy::StateSpaceSearch { .. } => "state-space-search".into(),
        }
    }

    /// The paper's a-priori error bound `1 + 2/m²` where it applies
    /// (fixed partitioning); `None` for the adaptive strategies.
    pub fn error_bound(&self) -> Option<f64> {
        match self {
            OffsetStrategy::Unrolling => Some(1.0),
            OffsetStrategy::SingleRange => Some(3.0), // m = 1
            OffsetStrategy::FixedPartition(m) => Some(1.0 + 2.0 / ((*m * *m) as f64)),
            _ => None,
        }
    }
}

/// Configuration of the mobile-offset solver.
#[derive(Debug, Clone, Copy)]
pub struct MobileOffsetConfig {
    /// Subrange strategy.
    pub strategy: OffsetStrategy,
    /// Forbid mobile offsets entirely: every LIV coefficient is pinned to
    /// zero, leaving only static offsets. This is the static-alignment
    /// baseline of the Figure 1 experiment.
    pub forbid_mobile: bool,
}

impl Default for MobileOffsetConfig {
    fn default() -> Self {
        // The paper advocates three-way fixed partitioning as "a good
        // compromise between speed, reliability, and quality".
        MobileOffsetConfig {
            strategy: OffsetStrategy::FixedPartition(3),
            forbid_mobile: false,
        }
    }
}

impl MobileOffsetConfig {
    /// A configuration using `strategy` with mobile offsets allowed.
    pub fn with_strategy(strategy: OffsetStrategy) -> Self {
        MobileOffsetConfig {
            strategy,
            ..MobileOffsetConfig::default()
        }
    }

    /// The static-offset baseline (mobile coefficients pinned to zero).
    pub fn static_only() -> Self {
        MobileOffsetConfig {
            forbid_mobile: true,
            ..MobileOffsetConfig::default()
        }
    }
}

/// Statistics from one per-axis offset solve.
#[derive(Debug, Clone)]
pub struct OffsetSolveReport {
    /// Template axis solved.
    pub axis: usize,
    /// Final LP objective (approximate predicted shift cost on this axis).
    pub lp_objective: f64,
    /// Exact cost on this axis after rounding: the residual shift plus the
    /// penalty for `violation_units`.
    pub exact_cost: f64,
    /// How far the rounded offsets are from satisfying the axis's hard node
    /// constraints ([`NodeConstraints::violation_units`]); zero for every
    /// alignment that corresponds to an executable data placement.
    pub violation_units: f64,
    /// Size of the RLP as posed: offset unknowns plus absolute-value terms
    /// (the surrogates of Equation 3).
    pub num_vars: usize,
    /// Number of independent blocks the RLP fell apart into
    /// ([`lp::L1Problem::num_blocks`]): one per group of ports whose offsets
    /// an edge or a node constraint couples, each solved on its own.
    pub num_blocks: usize,
    /// Number of hard equality constraints of the RLP as posed.
    pub num_constraints: usize,
    /// Total number of subranges across all edges.
    pub num_subranges: usize,
    /// Number of refinement rounds actually used.
    pub rounds: usize,
    /// What produced the final offsets when the configured strategy's own
    /// rounding did not stand: `Some("pin-and-resolve")` for the rounding
    /// repair (Example 5's axis 0, whose LP optimum leaves LIV coefficients
    /// fractional), `Some("static")` for the static retry behind it (not
    /// reached on the built-in workloads), `None` otherwise.
    pub fallback: Option<&'static str>,
}

/// One subrange of an edge's iteration space together with its weight moments.
#[derive(Debug, Clone)]
struct Subrange {
    space: IterationSpace,
    /// `Σ_{i} w(i)` over the subrange.
    const_moment: f64,
    /// `Σ_{i} w(i)·i_liv` per level of `space`, outermost first.
    liv_moments: Vec<f64>,
    /// The first and the last point of a subrange of several iterations —
    /// where the tie-breaking terms sit; none for a single iteration, whose
    /// main term is already exact.
    endpoints: Vec<Vec<(LivId, i64)>>,
}

impl Subrange {
    /// `Σ_{i} w(i)·i_liv` (zero for a LIV the subrange does not loop over).
    fn moment_of(&self, liv: LivId) -> f64 {
        let level = self.space.levels().iter().position(|l| l.liv == liv);
        level.map_or(0.0, |i| self.liv_moments[i])
    }
}

fn make_subrange(edge: &Edge, space: IterationSpace) -> Subrange {
    let mut const_moment = 0.0;
    let mut liv_moments = vec![0.0; space.depth()];
    // The walk's first point, and the latest it has seen beyond it.
    let mut endpoints: Vec<Vec<(LivId, i64)>> = Vec::with_capacity(2);
    space.for_each_point(|point| {
        let w = edge.weight.eval(point) as f64 * edge.control_weight;
        const_moment += w;
        for (moment, &(_, v)) in liv_moments.iter_mut().zip(point) {
            *moment += w * v as f64;
        }
        match &mut endpoints[..] {
            [_, last] => last.copy_from_slice(point),
            _ => endpoints.push(point.to_vec()),
        }
    });
    if endpoints.len() < 2 {
        endpoints.clear();
    }
    Subrange {
        space,
        const_moment,
        liv_moments,
        endpoints,
    }
}

/// Initial subranges of an edge for a strategy.
fn initial_subranges(edge: &Edge, strategy: OffsetStrategy) -> Vec<Subrange> {
    let space = &edge.space;
    match strategy {
        OffsetStrategy::Unrolling => space
            .points()
            .into_iter()
            .map(|pt| {
                let mut s = IterationSpace::scalar();
                for (l, v) in &pt {
                    s = s.enter_loop(
                        *l,
                        align_ir::triplet::AffineTriplet::constant(align_ir::Triplet::single(*v)),
                    );
                }
                make_subrange(edge, s)
            })
            .collect(),
        OffsetStrategy::SingleRange | OffsetStrategy::StateSpaceSearch { .. } => {
            vec![make_subrange(edge, space.clone())]
        }
        OffsetStrategy::FixedPartition(m) => space
            .subranges(m.max(1))
            .into_iter()
            .map(|s| make_subrange(edge, s))
            .collect(),
        OffsetStrategy::ZeroCrossing { .. } => space
            .subranges(2)
            .into_iter()
            .map(|s| make_subrange(edge, s))
            .collect(),
        OffsetStrategy::RecursiveRefinement { .. } => {
            vec![make_subrange(edge, space.clone())]
        }
    }
}

/// The trace counter tracking how often each offset strategy is chosen as
/// the primary solve (`align.strategy.*`; the static retry is counted
/// separately, as `align.ladder_engaged`).
fn strategy_counter_name(strategy: OffsetStrategy) -> &'static str {
    match strategy {
        OffsetStrategy::Unrolling => "align.strategy.unrolling",
        OffsetStrategy::SingleRange => "align.strategy.single_range",
        OffsetStrategy::FixedPartition(_) => "align.strategy.fixed_partition",
        OffsetStrategy::ZeroCrossing { .. } => "align.strategy.zero_crossing",
        OffsetStrategy::RecursiveRefinement { .. } => "align.strategy.recursive_refinement",
        OffsetStrategy::StateSpaceSearch { .. } => "align.strategy.state_space_search",
    }
}

/// Re-solves the pin-and-re-solve rounding repair of [`solve_axis_offsets`]
/// may spend on one axis before the static retry takes over.
const MAX_REPAIR_SOLVES: u64 = 4;

/// Solve the offsets of one template axis and write them (rounded) into
/// `alignment`. Ports in `replicated` get [`OffsetAlign::Replicated`] on this
/// axis instead. Returns solve statistics. Every RLP posed on the way — the
/// refinement rounds, the repair, the static retry — is solved against
/// `memo`, so a block that an earlier solve sharing it already answered is
/// not run again.
pub fn solve_axis_offsets(
    adg: &Adg,
    alignment: &mut ProgramAlignment,
    axis: usize,
    replicated: &HashSet<PortId>,
    config: MobileOffsetConfig,
    memo: &BlockMemo,
) -> OffsetSolveReport {
    let subranges = all_initial_subranges(adg, config.strategy);
    solve_axis(adg, alignment, axis, replicated, config, &subranges, memo)
}

/// [`solve_axis_offsets`] given the strategy's initial subranges of every
/// edge, which depend on neither the axis nor the replication labeling and
/// are shared by the axes of one [`solve_all_offsets`] call. The axis's node
/// constraints are derived once here; every RLP is posed over them and
/// every rounded candidate priced against them.
fn solve_axis(
    adg: &Adg,
    alignment: &mut ProgramAlignment,
    axis: usize,
    replicated: &HashSet<PortId>,
    config: MobileOffsetConfig,
    initial: &[Vec<Subrange>],
    memo: &BlockMemo,
) -> OffsetSolveReport {
    let _span = trace::span("align.solve_axis_offsets");
    trace::count(strategy_counter_name(config.strategy), 1);
    let cost_edges = objective_edges(adg, replicated);
    let sys = {
        let _span = trace::span("align.assemble");
        NodeConstraints::derive(adg, alignment, axis, replicated)
    };
    // The refinement strategies rework a copy of their own.
    let mut subranges = Cow::Borrowed(initial);

    let max_rounds = match config.strategy {
        OffsetStrategy::ZeroCrossing { max_rounds }
        | OffsetStrategy::RecursiveRefinement { max_rounds } => max_rounds.max(1),
        OffsetStrategy::StateSpaceSearch { max_steps } => max_steps.max(1),
        _ => 1,
    };

    let mut best_report: Option<OffsetSolveReport> = None;
    let mut best_offsets: Option<Vec<Option<Affine>>> = None;
    // The unknowns the best candidate's LP point left off the integers,
    // each with the integer it was rounded to.
    let mut fractional: Vec<(VarId, f64)> = Vec::new();

    let mut rounds = 0;
    loop {
        rounds += 1;
        let posed = assemble_l1(adg, &sys, &subranges, &cost_edges, config, &[]);
        let (report, offsets, unrounded) = solve_once(adg, &sys, axis, posed, memo);
        let improved = best_report
            .as_ref()
            .is_none_or(|b| report.exact_cost < b.exact_cost - 1e-9);
        if improved {
            best_report = Some(report.clone());
            best_offsets = Some(offsets.clone());
            fractional = unrounded;
        }
        if rounds >= max_rounds {
            break;
        }
        // Refine subranges at observed zero crossings of the current solution.
        let splits = refine_subranges(
            &cost_edges,
            subranges.to_mut(),
            &offsets,
            matches!(config.strategy, OffsetStrategy::ZeroCrossing { .. }),
        );
        if splits == 0 {
            break;
        }
    }

    // Rounding safety net: on hard instances the LP can end in a degenerate
    // vertex whose coefficients are huge; rounding then destroys the span
    // cancellations and the exact cost explodes far past the LP objective
    // (the a-priori bound says it should stay within a small factor). When
    // that happens, repair the rounding, then retry static — every retry
    // goes through the same hard node constraints, so feasibility is kept —
    // and keep whichever candidate is exact-best.
    let blown_up = |r: &OffsetSolveReport| {
        !r.exact_cost.is_finite()
            || !r.lp_objective.is_finite()
            || (r.exact_cost > 4.0 * (r.lp_objective.abs() + 1.0) && r.exact_cost > 100.0)
    };

    // Pin and re-solve, before the static retry. A rounding that broke a node
    // constraint rounded an unknown the LP left fractional — in every case
    // seen a LIV coefficient no weighted term prices, tied to its neighbours
    // by one equality with the trip count as coefficient (`x₆₁ − x₅₉ − 4·x₆₀
    // = 0`, `x₆₀ = 0.25`), which any optimal vertex may do. Hold those
    // unknowns where the rounding put them and let the LP move the rest: the
    // same RLP plus `x_v = round(v)`, untouched blocks answered from `memo`.
    let unrepaired = best_report.clone();
    let mut pins: Vec<(VarId, f64)> = Vec::new();
    let mut repair_solves = 0;
    while repair_solves < MAX_REPAIR_SOLVES
        && !fractional.is_empty()
        && best_report
            .as_ref()
            .is_some_and(|r| blown_up(r) && r.violation_units > 0.0)
    {
        repair_solves += 1;
        pins.append(&mut fractional);
        let posed = assemble_l1(adg, &sys, &subranges, &cost_edges, config, &pins);
        let (mut report, offsets, unrounded) = solve_once(adg, &sys, axis, posed, memo);
        report.fallback = Some("pin-and-resolve");
        let improved = best_report
            .as_ref()
            .is_none_or(|b| report.exact_cost < b.exact_cost - 1e-9);
        if improved {
            best_report = Some(report);
            best_offsets = Some(offsets);
        }
        // Pinned unknowns come back integral: these are new ones.
        fractional = unrounded;
    }
    if let (Some(before), Some(best), true) = (&unrepaired, &best_report, repair_solves > 0) {
        trace::count("align.round.repair_solves", repair_solves);
        if !blown_up(best) {
            trace::count("align.round.repaired", 1);
        }
        if trace::spans_enabled() {
            let args = [
                ("axis", axis.to_string()),
                ("pinned", pins.len().to_string()),
                ("solves", repair_solves.to_string()),
                ("lp_objective_before", before.lp_objective.to_string()),
                ("lp_objective_after", best.lp_objective.to_string()),
                ("exact_cost_before", before.exact_cost.to_string()),
                ("exact_cost_after", best.exact_cost.to_string()),
            ];
            trace::event("align.round.repair", &args);
        }
    }

    if best_report.as_ref().is_some_and(blown_up) {
        trace::count("align.ladder_engaged", 1);
        // The static restriction: pinning the array homes removes most of
        // the degeneracy behind a vertex that rounds badly, so a mobile solve
        // that keeps failing degrades to the (always meaningful) static
        // solution instead of to garbage.
        //
        // Measured record: since the repair above, `align.ladder_engaged`
        // is 0 over the test suite and the benchmark. Before it (PR 13) this
        // was one rung of four and engaged 23 times over the suite; its
        // candidate was the one written every time, the finer mobile
        // partition before it always rounded to a candidate as blown up as
        // the primary's, and the two rungs after it never ran.
        let static_subranges = all_initial_subranges(adg, OffsetStrategy::FixedPartition(5));
        let static_config = MobileOffsetConfig {
            forbid_mobile: true,
            ..config
        };
        let posed = assemble_l1(
            adg,
            &sys,
            &static_subranges,
            &cost_edges,
            static_config,
            &[],
        );
        let (mut report, offsets, _) = solve_once(adg, &sys, axis, posed, memo);
        report.fallback = Some("static");
        let improved = best_report
            .as_ref()
            .is_none_or(|b| report.exact_cost < b.exact_cost - 1e-9);
        if improved {
            best_report = Some(report);
            best_offsets = Some(offsets);
        }
    }

    // Write the best offsets into the alignment. The winning candidate's
    // exact cost already prices exactly what is written here; when only an
    // infeasible fallback was available, its violation penalty keeps the
    // cost honestly huge (the cost model prices broken node constraints, so
    // no infinity marker is needed).
    let offsets = best_offsets.expect("at least one solve ran");
    write_offsets(adg, alignment, axis, replicated, &offsets);
    let mut report = best_report.expect("at least one solve ran");
    report.rounds = rounds;
    debug_assert_eq!(report.exact_cost, {
        let model = CostModel::new(adg);
        model.shift_cost_on_axis(alignment, axis) + model.offset_violation_on_axis(alignment, axis)
    });
    report
}

/// The per-axis offset RLP in L1 form (Equation 3 over the hard node
/// constraints), with the variable layout that maps its unknowns back to
/// port offsets.
pub struct OffsetL1 {
    /// Hard node constraints as equalities, one abs term per subrange (plus
    /// the endpoint tie-breakers).
    pub l1: L1Problem,
    /// Variable layout.
    pub vars: OffsetVars,
    /// Subranges that contributed a term (nonzero weight moment).
    pub num_subranges: usize,
}

/// The offset RLP of template axis `axis` under `config`'s strategy, as
/// [`solve_axis_offsets`] first poses it (initial subranges, before any
/// refinement round). Exposed so experiments and the solver differential
/// tests can take the production LPs apart.
pub fn build_offset_l1(
    adg: &Adg,
    alignment: &ProgramAlignment,
    axis: usize,
    replicated: &HashSet<PortId>,
    config: MobileOffsetConfig,
) -> OffsetL1 {
    let sys = NodeConstraints::derive(adg, alignment, axis, replicated);
    let cost_edges = objective_edges(adg, replicated);
    let subranges = all_initial_subranges(adg, config.strategy);
    let (l1, num_subranges) = assemble_l1(adg, &sys, &subranges, &cost_edges, config, &[]);
    OffsetL1 {
        l1,
        vars: sys.vars,
        num_subranges,
    }
}

/// Edges participating in the objective: both endpoints non-replicated.
fn objective_edges<'a>(adg: &'a Adg, replicated: &HashSet<PortId>) -> Vec<(EdgeId, &'a Edge)> {
    adg.edges()
        .filter(|(_, e)| !replicated.contains(&e.src) && !replicated.contains(&e.dst))
        .collect()
}

/// `strategy`'s initial subranges of every edge, indexed by edge id.
fn all_initial_subranges(adg: &Adg, strategy: OffsetStrategy) -> Vec<Vec<Subrange>> {
    let _span = trace::span("align.subranges");
    adg.edges()
        .map(|(_, e)| initial_subranges(e, strategy))
        .collect()
}

/// Build the L1 problem for the given subranges over the axis's node
/// constraints, with every unknown of `pins` held at its value; also
/// returns how many subranges contributed a term.
fn assemble_l1(
    adg: &Adg,
    sys: &NodeConstraints,
    subranges: &[Vec<Subrange>],
    cost_edges: &[(EdgeId, &Edge)],
    config: MobileOffsetConfig,
    pins: &[(VarId, f64)],
) -> (L1Problem, usize) {
    let _span = trace::span("align.assemble");
    let vars = &sys.vars;
    let mut l1 = sys.pinned(adg);
    for &(v, value) in pins {
        l1.add_equality(&[(v, 1.0)], value);
    }

    if config.forbid_mobile {
        // Static baseline: the *homes* of the declared arrays may not move —
        // their ports' LIV coefficients are pinned to zero. A home port is
        // one carrying the whole array (same rank and extents as the array's
        // source). Derived values (section values, operator results) must
        // stay free: their positions are tied to moving subscripts by hard
        // node constraints, so pinning them too would make the LP infeasible
        // — a view sliding over a static array is still a static alignment.
        let homes: std::collections::BTreeMap<usize, (usize, Vec<Affine>)> = adg
            .nodes()
            .filter_map(|(_, n)| match n.kind {
                adg::NodeKind::Source { array } => n.output_ports().first().map(|&p| {
                    let port = adg.port(p);
                    (array.0, (port.rank, port.extents.clone()))
                }),
                _ => None,
            })
            .collect();
        for pid in adg.port_ids() {
            let port = adg.port(pid);
            let Some(array) = port.array else { continue };
            let is_home = homes
                .get(&array.0)
                .is_some_and(|(rank, extents)| port.rank == *rank && port.extents == *extents);
            if !is_home {
                continue;
            }
            for v in vars.slots(pid).skip(1) {
                l1.add_equality(&[(v, 1.0)], 0.0);
            }
        }
    }

    // Tie-breaking weight: when several solutions minimise the subrange
    // objective (e.g. when the optimum is communication-free), a small
    // penalty on the span at each subrange endpoint steers the LP towards
    // solutions whose span is pointwise zero rather than merely zero on
    // average across a subrange.
    let tie_eps = 1e-3;

    let mut num_subranges = 0;
    // The term being written; `add_abs_term` copies it into the RLP's arena.
    let mut span = Vec::new();
    const BOTH_ENDS: &str = "objective edges have variables at both ends";
    for (eid, edge) in cost_edges {
        for sub in &subranges[eid.0] {
            if sub.const_moment == 0.0 {
                continue;
            }
            num_subranges += 1;
            // Equation (3): Σ_i w(i)·span(i) over the subrange, in closed
            // form through the weight moments.
            let moments = |l| sub.moment_of(l);
            vars.span_terms(edge.src, edge.dst, sub.const_moment, moments, &mut span)
                .expect(BOTH_ENDS);
            l1.add_abs_term(1.0, span.iter().copied(), 0.0);
            // Endpoint tie-breakers.
            for pt in &sub.endpoints {
                let at = |l| pt.iter().find(|p| p.0 == l).map_or(0.0, |p| p.1 as f64);
                vars.span_terms(edge.src, edge.dst, 1.0, at, &mut span)
                    .expect(BOTH_ENDS);
                l1.add_abs_term(
                    tie_eps * sub.const_moment.max(1.0),
                    span.iter().copied(),
                    0.0,
                );
            }
        }
    }
    (l1, num_subranges)
}

/// Solve the posed L1 problem, round, and price the rounded offsets against
/// the node constraints the problem was posed over; returns statistics, the
/// per-port offsets, and the unknowns the LP point left non-integral with
/// the integers they were rounded to (the alignment is not touched).
fn solve_once(
    adg: &Adg,
    sys: &NodeConstraints,
    axis: usize,
    (l1, num_subranges): (L1Problem, usize),
    memo: &BlockMemo,
) -> (OffsetSolveReport, Vec<Option<Affine>>, Vec<(VarId, f64)>) {
    let num_vars = l1.num_vars() + l1.num_terms();
    let num_constraints = l1.num_equalities();
    let (solution, num_blocks) = l1.solve_counting_blocks(memo);

    // Ports without variables are the replicated ones: they keep `None`.
    let offsets: Vec<Option<Affine>> = match &solution {
        Ok(sol) => adg
            .port_ids()
            .map(|pid| sys.vars.rounded_offset(pid, sol))
            .collect(),
        Err(_) => {
            // Hard constraints should always be satisfiable; if the solver
            // gives up we fall back to all-zero offsets, whose priced
            // violations send the caller to the static retry. Counted, so a
            // numerical failure reaches the counter gate.
            trace::count("align.offset_lp_failed", 1);
            adg.port_ids()
                .map(|pid| sys.vars.constant_slot(pid).map(|_| Affine::zero()))
                .collect()
        }
    };
    let values = solution.iter().flat_map(|sol| &sol.values).enumerate();
    let fractional = values
        .filter(|(_, v)| (*v - v.round()).abs() > 1e-6)
        .map(|(i, v)| (VarId(i), v.round()))
        .collect();
    let lp_objective = solution.map_or(f64::INFINITY, |sol| sol.objective);

    // Exact cost of this candidate on this axis, as the cost model prices
    // it: the residual shift plus the violation penalty for any hard node
    // constraint the rounding (or an infeasible solve's all-zero fallback)
    // broke. Infeasible candidates used to be gated out by an explicit
    // post-hoc feasibility check; the cost model now prices them directly —
    // the penalty dwarfs every feasible candidate's cost, so they can only
    // win when no feasible candidate exists at all.
    let (exact_cost, violation_units) = {
        let _span = trace::span("align.price");
        let offset_of = |p: PortId| offsets[p.0].as_ref();
        let values = sys.values(offset_of);
        let units = sys.violation_units(&values);
        // Cross-check (the old post-hoc gate, demoted to an assertion): a
        // candidate the LP's own hard-constraint system accepts must price
        // violation-free. The converse need not hold — the LP system also
        // carries the deterministic translation pin (and the static pins),
        // which are not semantic constraints.
        debug_assert!(
            !l1.is_feasible(&values, 1e-6) || units == 0.0,
            "cost model charges {units} violation units for an LP-feasible candidate on axis {axis}"
        );
        let model = CostModel::new(adg);
        let shift = model.shift_cost_of(offset_of);
        (shift + units * model.violation_scale(), units)
    };

    (
        OffsetSolveReport {
            axis,
            lp_objective,
            exact_cost,
            violation_units,
            num_vars,
            num_blocks,
            num_constraints,
            num_subranges,
            rounds: 1,
            fallback: None,
        },
        offsets,
        fractional,
    )
}

/// Write per-port offsets on `axis` into `alignment` (replicated ports get
/// [`OffsetAlign::Replicated`]).
fn write_offsets(
    adg: &Adg,
    alignment: &mut ProgramAlignment,
    axis: usize,
    replicated: &HashSet<PortId>,
    offsets: &[Option<Affine>],
) {
    for pid in adg.port_ids() {
        if replicated.contains(&pid) {
            alignment.port_mut(pid).offsets[axis] = OffsetAlign::Replicated;
        } else if let Some(a) = &offsets[pid.0] {
            alignment.port_mut(pid).offsets[axis] = OffsetAlign::Fixed(a.clone());
        }
    }
}

/// Split subranges at zero crossings of the solved span. Returns the number
/// of splits performed. When `move_boundary` is set (zero-crossing tracking)
/// the edge is re-split into exactly two pieces at the crossing instead of
/// accumulating pieces.
fn refine_subranges(
    cost_edges: &[(EdgeId, &Edge)],
    subranges: &mut [Vec<Subrange>],
    offsets: &[Option<Affine>],
    move_boundary: bool,
) -> usize {
    let mut splits = 0;
    for (eid, edge) in cost_edges {
        let (Some(src), Some(dst)) = (&offsets[edge.src.0], &offsets[edge.dst.0]) else {
            continue;
        };
        let span = src - dst;
        if span.is_constant() {
            continue;
        }
        let entry = &mut subranges[eid.0];
        if move_boundary {
            // Re-split the whole edge space at the first located crossing.
            if let Some(at) = crossing_ordinal(&edge.space, &span) {
                let new = split_space_at(&edge.space, at)
                    .into_iter()
                    .map(|s| make_subrange(edge, s))
                    .collect::<Vec<_>>();
                if new.len() > 1 {
                    *entry = new;
                    splits += 1;
                }
            }
            continue;
        }
        let mut new_list = Vec::with_capacity(entry.len() + 1);
        for sub in entry.drain(..) {
            match crossing_ordinal(&sub.space, &span) {
                Some(at) if sub.space.size() > 1 => {
                    for piece in split_space_at(&sub.space, at) {
                        new_list.push(make_subrange(edge, piece));
                    }
                    splits += 1;
                }
                _ => new_list.push(sub),
            }
        }
        *entry = new_list;
    }
    splits
}

/// Find the ordinal (0-based position along the outermost loop level) at
/// which `span` changes sign inside `space`, if it does.
fn crossing_ordinal(space: &IterationSpace, span: &Affine) -> Option<i64> {
    if space.depth() == 0 {
        return None;
    }
    let pts = space.points();
    if pts.len() < 2 {
        return None;
    }
    // Walk the outermost LIV's distinct values in order.
    let outer = space.livs()[0];
    let mut prev_sign: Option<i64> = None;
    let mut seen: Vec<i64> = Vec::new();
    for p in &pts {
        let v = p
            .iter()
            .find(|(l, _)| *l == outer)
            .map(|(_, v)| *v)
            .unwrap_or(0);
        if seen.last() == Some(&v) {
            continue;
        }
        seen.push(v);
        let s = span.eval_assoc(p).signum();
        if s == 0 {
            continue;
        }
        match prev_sign {
            None => prev_sign = Some(s),
            Some(ps) if ps != s => {
                return Some((seen.len() - 1) as i64);
            }
            _ => {}
        }
    }
    None
}

/// Split a space at ordinal `at` of its outermost level.
fn split_space_at(space: &IterationSpace, at: i64) -> Vec<IterationSpace> {
    if space.depth() == 0 {
        return vec![space.clone()];
    }
    let levels = space.levels();
    let outer = &levels[0];
    if !outer.range.is_constant() {
        return vec![space.clone()];
    }
    let t = outer.range.at(&[]);
    let (a, b) = t.split_at(at);
    let mut out = Vec::new();
    for piece in [a, b].into_iter().flatten() {
        let mut s = IterationSpace::scalar()
            .enter_loop(outer.liv, align_ir::triplet::AffineTriplet::constant(piece));
        for lvl in &levels[1..] {
            s = s.enter_loop(lvl.liv, lvl.range.clone());
        }
        out.push(s);
    }
    out
}

/// Solve the offsets of every template axis with the same configuration.
/// Returns one report per axis. The axes share RLP blocks among themselves
/// (a memo of this call's own).
pub fn solve_all_offsets(
    adg: &Adg,
    alignment: &mut ProgramAlignment,
    replicated_per_axis: &[HashSet<PortId>],
    config: MobileOffsetConfig,
) -> Vec<OffsetSolveReport> {
    let memo = BlockMemo::default();
    solve_all_offsets_sharing(adg, alignment, replicated_per_axis, config, &memo)
}

/// [`solve_all_offsets`] against the caller's memo of RLP blocks.
pub(crate) fn solve_all_offsets_sharing(
    adg: &Adg,
    alignment: &mut ProgramAlignment,
    replicated_per_axis: &[HashSet<PortId>],
    config: MobileOffsetConfig,
    memo: &BlockMemo,
) -> Vec<OffsetSolveReport> {
    let subranges = all_initial_subranges(adg, config.strategy);
    (0..alignment.template_rank)
        .map(|axis| {
            let empty = HashSet::new();
            let replicated = replicated_per_axis.get(axis).unwrap_or(&empty);
            solve_axis(adg, alignment, axis, replicated, config, &subranges, memo)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use adg::build_adg;
    use align_ir::programs;

    fn identity_alignment(adg: &Adg, template_rank: usize) -> ProgramAlignment {
        let ranks: Vec<usize> = adg.port_ids().map(|p| adg.port(p).rank).collect();
        ProgramAlignment::identity(template_rank, &ranks)
    }

    fn solve_program(
        prog: &align_ir::Program,
        template_rank: usize,
        strategy: OffsetStrategy,
    ) -> (Adg, ProgramAlignment) {
        let adg = build_adg(prog);
        let mut alignment = identity_alignment(&adg, template_rank);
        let reps = vec![HashSet::new(); template_rank];
        solve_all_offsets(
            &adg,
            &mut alignment,
            &reps,
            MobileOffsetConfig::with_strategy(strategy),
        );
        (adg, alignment)
    }

    #[test]
    fn example1_offsets_remove_the_shift() {
        // Paper Example 1: aligning B(i) with [i-1] removes all communication.
        let (adg, alignment) = solve_program(
            &programs::example1(100),
            1,
            OffsetStrategy::FixedPartition(3),
        );
        let cost = CostModel::new(&adg).total_cost(&alignment);
        assert_eq!(cost.shift, 0.0, "offset alignment must remove the shift");
        assert_eq!(cost.general, 0.0);
    }

    #[test]
    fn figure1_mobile_offsets_remove_all_communication() {
        // Paper Figure 1 / Example 4: V needs the mobile alignment
        // [k, i - k + 1]; with it the loop runs without residual communication.
        let (adg, alignment) =
            solve_program(&programs::figure1(32), 2, OffsetStrategy::FixedPartition(3));
        let cost = CostModel::new(&adg).total_cost(&alignment);
        assert_eq!(
            cost.shift, 0.0,
            "mobile offsets must eliminate residual shifts: {cost}"
        );
        assert!(alignment.num_mobile() > 0, "V's alignment must be mobile");
    }

    #[test]
    fn figure1_static_offsets_cost_more_than_mobile() {
        // The best *static* offsets (mobile coefficients pinned to zero)
        // must pay Θ(n) shifts per iteration, while the mobile alignment is
        // communication-free — the core claim of Figure 1 / Example 4.
        let prog = programs::figure1(32);
        let adg = build_adg(&prog);
        let mut static_alignment = identity_alignment(&adg, 2);
        // The offset constraints assume the axis and stride phases ran (raw
        // identity axis maps are inconsistent for rank-changing sections,
        // which the feasibility check would rightly reject).
        crate::axis::solve_axes(&adg, &mut static_alignment);
        crate::stride::solve_strides(&adg, &mut static_alignment);
        let reps = vec![HashSet::new(); 2];
        solve_all_offsets(
            &adg,
            &mut static_alignment,
            &reps,
            MobileOffsetConfig::static_only(),
        );
        let static_cost = CostModel::new(&adg).total_cost(&static_alignment);
        let (_, mobile_alignment) = solve_program(&prog, 2, OffsetStrategy::FixedPartition(3));
        let mobile_cost = CostModel::new(&adg).total_cost(&mobile_alignment);
        assert!(
            mobile_cost.shift < static_cost.shift,
            "mobile {mobile_cost} must beat static {static_cost}"
        );
        assert!(static_cost.shift > 0.0);
    }

    #[test]
    fn skewed_sweep_mobile_offsets() {
        let (adg, alignment) = solve_program(
            &programs::skewed_sweep(24),
            1,
            OffsetStrategy::FixedPartition(3),
        );
        let cost = CostModel::new(&adg).total_cost(&alignment);
        // A and B slide in opposite directions; zero cost is impossible for
        // both, but the mobile solution must beat the static identity.
        let static_cost = CostModel::new(&adg).total_cost(&identity_alignment(&adg, 1));
        assert!(cost.shift <= static_cost.shift);
    }

    #[test]
    fn all_strategies_agree_on_straight_line_code() {
        for strategy in [
            OffsetStrategy::Unrolling,
            OffsetStrategy::SingleRange,
            OffsetStrategy::FixedPartition(3),
            OffsetStrategy::FixedPartition(5),
            OffsetStrategy::ZeroCrossing { max_rounds: 4 },
            OffsetStrategy::RecursiveRefinement { max_rounds: 4 },
            OffsetStrategy::StateSpaceSearch { max_steps: 4 },
        ] {
            let (adg, alignment) = solve_program(&programs::example1(64), 1, strategy);
            let cost = CostModel::new(&adg).total_cost(&alignment);
            assert_eq!(
                cost.shift,
                0.0,
                "strategy {} failed on example1",
                strategy.name()
            );
        }
    }

    #[test]
    fn fixed_partition_error_bound_holds_on_figure1() {
        // Unrolling is exact; fixed partitioning must stay within 1 + 2/m².
        let prog = programs::figure1(24);
        let (adg, exact) = solve_program(&prog, 2, OffsetStrategy::Unrolling);
        let exact_cost = CostModel::new(&adg).total_cost(&exact).shift;
        for m in [2usize, 3, 5] {
            let (_, approx) = solve_program(&prog, 2, OffsetStrategy::FixedPartition(m));
            let approx_cost = CostModel::new(&adg).total_cost(&approx).shift;
            let bound = 1.0 + 2.0 / ((m * m) as f64);
            assert!(
                approx_cost <= exact_cost.max(1e-9) * bound + 1e-6,
                "m={m}: approx {approx_cost} vs exact {exact_cost} (bound {bound})"
            );
        }
    }

    #[test]
    fn figure1_axis0_fixed_partition_solves_without_a_fallback() {
        // Regression: the figure1 axis-0 offset system is exactly the shape
        // of degenerate LP that used to stall the dense tableau under
        // FixedPartition and only survive through a fallback strategy. The
        // revised simplex must solve it outright — feasibly, with neither
        // the rounding repair nor the static retry.
        let prog = programs::figure1(32);
        let adg = build_adg(&prog);
        let mut alignment = identity_alignment(&adg, 2);
        crate::axis::solve_axes(&adg, &mut alignment);
        crate::stride::solve_strides(&adg, &mut alignment);
        let engaged = trace::counter("align.ladder_engaged");
        let report = solve_axis_offsets(
            &adg,
            &mut alignment,
            0,
            &HashSet::new(),
            MobileOffsetConfig::with_strategy(OffsetStrategy::FixedPartition(3)),
            &BlockMemo::default(),
        );
        assert_eq!(report.fallback, None, "the primary's rounding must stand");
        assert_eq!(trace::counter("align.ladder_engaged"), engaged);
        // Feasible: the rounded offsets satisfy every hard node constraint.
        let model = CostModel::new(&adg);
        assert_eq!(
            model.offset_violation_on_axis(&alignment, 0),
            0.0,
            "axis-0 solution must satisfy the hard node constraints"
        );
        assert!(report.exact_cost.is_finite());
    }

    #[test]
    fn report_statistics_are_populated() {
        let prog = programs::figure1(16);
        let adg = build_adg(&prog);
        let mut alignment = identity_alignment(&adg, 2);
        let report = solve_axis_offsets(
            &adg,
            &mut alignment,
            0,
            &HashSet::new(),
            MobileOffsetConfig::with_strategy(OffsetStrategy::FixedPartition(3)),
            &BlockMemo::default(),
        );
        assert!(report.num_vars > 0);
        assert!(report.num_constraints > 0);
        assert!(report.num_subranges > 0);
        assert!(report.lp_objective >= -1e-9);
    }

    #[test]
    fn replicated_ports_get_replicated_offsets() {
        let prog = programs::figure4(8, 10, 3);
        let adg = build_adg(&prog);
        let mut alignment = identity_alignment(&adg, 2);
        // Replicate every rank-1 (t-valued) port along axis 1.
        let replicated: HashSet<PortId> =
            adg.port_ids().filter(|&p| adg.port(p).rank == 1).collect();
        solve_axis_offsets(
            &adg,
            &mut alignment,
            1,
            &replicated,
            MobileOffsetConfig::default(),
            &BlockMemo::default(),
        );
        for p in &replicated {
            assert!(alignment.port(*p).offsets[1].is_replicated());
        }
    }

    #[test]
    fn strategy_names_and_bounds() {
        assert_eq!(
            OffsetStrategy::FixedPartition(3).name(),
            "fixed-partition(m=3)"
        );
        assert!(
            (OffsetStrategy::FixedPartition(3).error_bound().unwrap() - (1.0 + 2.0 / 9.0)).abs()
                < 1e-12
        );
        assert!((OffsetStrategy::FixedPartition(5).error_bound().unwrap() - 1.08).abs() < 1e-12);
        assert_eq!(OffsetStrategy::Unrolling.error_bound(), Some(1.0));
        assert_eq!(
            OffsetStrategy::ZeroCrossing { max_rounds: 3 }.error_bound(),
            None
        );
    }
}
