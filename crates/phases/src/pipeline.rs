//! The three-stage pipeline: align → distribute per phase → redistribute
//! between phases — built on a **single analysis per atom** and priced by a
//! **per-array layout-state DP** whose plan cost is exactly what the
//! communication simulator reports.
//!
//! [`align_then_distribute_dynamic`] fissions the program into distributable
//! atoms (loop distribution, [`align_ir::fission`]), aligns each atom
//! exactly once ([`crate::segment::analyze_atoms`]), and threads that one
//! [`AtomAnalysis`] through everything downstream. Candidate generation
//! searches the (grid, layout) signature space **once per phase** on the
//! phase's covering template ([`distrib::solve_distribution_pooled`]) —
//! atoms never re-enumerate the same grids — and every phase prices the
//! shared signature pool so "staying put" is always a comparable option.
//!
//! The decision layer is exact: each candidate's in-phase cost is its
//! **simulated element traffic** (every atom played through `commsim` under
//! the candidate instantiated on the phase's covering template), and the
//! per-array layout-state DP ([`crate::dynamic::solve_layout_dp`]) prices a
//! transition into a phase as the exact redistribution of just the arrays
//! that phase touches, each from the layout chosen by the phase that
//! *actually last used it* — no min-over-adjacent-candidates guess, no
//! per-gap special case. The plan's [`DynamicDistribution::planned_cost`]
//! therefore equals [`simulate_dynamic`]'s total under the same
//! [`SimOptions`] (identical under [`SimOptions::exact`]) — the priced plan
//! *is* the simulated plan.
//!
//! Boundary selection is DAG-driven with hysteresis: detection proposes
//! seams generously, the DP decides which to use (a layout switch must beat
//! staying put by [`DynamicConfig::switch_margin`]), and proposed seams the
//! chosen path leaves unused — same layout and same covering template on
//! both sides, no array actually moving, so the merge is exactly
//! cost-neutral — are coalesced away: a per-array move never forces a
//! global cut.

use crate::dynamic::{
    solve_layout_dp, solve_layout_dp_with, DpPricer, DpPruning, DynamicDistribution, LayoutDpError,
    LayoutDpPlan, PhaseCandidates, RedistStep, SigId,
};
use crate::redist::{price_resting, spread_stages, RedistCost};
use crate::segment::{analyze_atoms, detect_boundaries, AtomAnalysis};
use adg::{Adg, NodeKind, PortId};
use align_ir::{ArrayId, Program};
use alignment_core::pipeline::{AlignmentResult, PipelineConfig};
use alignment_core::position::PortAlignment;
use commsim::{simulate, RestingOwners, RestingPlacement, SimOptions, SimReport, TrafficScratch};
use distrib::{
    align_then_distribute, distribute_alignment, rank_distributions, solve_distribution_pooled,
    DistributionCost, DistributionCostModel, DistributionReport, FullPipelineConfig,
    FullPipelineResult, Layout, ProgramDistribution, RankedDistribution, SolveConfig,
};
use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, Mutex};

/// Safety bound on the candidate layer size per phase, applied (by
/// ascending model cost) before the DP; every phase's model optimum is
/// exempt — it stays in every layer even past the cap, so "staying put" on a
/// favourite is always priced (layers therefore hold at most this many
/// candidates plus one per phase).
pub const MAX_CANDIDATES_PER_PHASE: usize = 12;

/// Configuration of the dynamic pipeline. The distribution search per phase
/// is [`SolveConfig::new`] at the run's processor count, and detected
/// boundaries the chosen path does not use are always coalesced away:
/// identical layout and identical covering template on both sides, no
/// array paying any redistribution — the equal-cover requirement makes
/// every merge exactly cost-neutral.
#[derive(Debug, Clone)]
pub struct DynamicConfig {
    /// Alignment configuration (used for each atom and for the static
    /// baseline).
    pub alignment: PipelineConfig,
    /// Explicit phase boundaries — indices into the **distributable atom**
    /// sequence ([`Program::distributable_atoms`]) — overriding detection.
    /// `None` runs [`detect_boundaries`].
    pub boundaries: Option<Vec<usize>>,
    /// Sampling bounds for all plan pricing (in-phase simulation and
    /// redistribution pricing). [`DynamicDistribution::planned_cost`] is
    /// exact when this is [`SimOptions::exact`].
    pub sim: SimOptions,
    /// Hysteresis of the layout-state DP: during the search an array's
    /// layout switch is charged this many extra elements, so a switch must
    /// beat staying put by a margin before the plan takes it (guards
    /// against sampling noise flip-flopping layouts). Search-only — the
    /// returned plan is re-priced exactly, without the margin.
    pub switch_margin: f64,
}

impl Default for DynamicConfig {
    fn default() -> Self {
        DynamicConfig {
            alignment: PipelineConfig::default(),
            boundaries: None,
            sim: SimOptions::default(),
            switch_margin: 0.0,
        }
    }
}

/// Everything one phase produced. A phase is a contiguous run of atoms;
/// everything here is assembled from the atoms' single analyses — the phase
/// is never re-aligned as a whole.
#[derive(Debug, Clone)]
pub struct PhaseResult {
    /// Atom-index range `[start, end)` of the phase within the program's
    /// distributable-atom sequence.
    pub atom_range: (usize, usize),
    /// Top-level statement span `[start, end)` the phase's atoms originate
    /// from. Spans of adjacent phases overlap when loop distribution split
    /// one statement across a boundary.
    pub range: (usize, usize),
    /// The phase's atoms, each carrying its one-and-only analysis.
    pub atoms: Vec<AtomAnalysis>,
    /// Each atom's own template extents (diagnostic; pricing and simulation
    /// always instantiate candidates on the covering template,
    /// `report.template_extents`).
    pub atom_templates: Vec<Vec<i64>>,
    /// The phase-level report: one signature-space search over all the
    /// phase's atoms (shared enumeration), re-priced over the shared pool,
    /// ranked ascending by model cost on the phase's covering template.
    /// `best()` is the phase's model optimum.
    pub report: DistributionReport,
}

impl PhaseResult {
    /// The arrays this phase reads or assigns.
    pub fn referenced(&self) -> BTreeSet<ArrayId> {
        let mut out = BTreeSet::new();
        for a in &self.atoms {
            out.extend(a.referenced.iter().copied());
        }
        out
    }

    /// The covering template the phase's candidates are instantiated on:
    /// the elementwise max of its atoms' template extents. Pricing every
    /// atom on this shared cover (rather than on its own, possibly smaller
    /// template) is what keeps intra-phase seams honest — an atom touching
    /// a half-sized array sees the same block boundaries the rest of the
    /// phase sees, instead of a twice-as-fine grid that inflates its shift
    /// traffic.
    pub fn cover_extents(&self) -> &[i64] {
        &self.report.template_extents
    }
}

/// A (grid, per-axis layout) signature — the portable identity of a
/// distribution, instantiable on any template extents. Per-array layout
/// state in the DP is tracked as indices ([`SigId`]) into the shared pool
/// of these.
pub type Sig = (Vec<usize>, Vec<Layout>);

/// Adapt a signature to a template of rank `rank`: missing axes get one
/// processor (BLOCK), excess grid dimensions are folded into the last kept
/// one (preserving the processor count).
fn adapt_sig(sig: &Sig, rank: usize) -> Sig {
    let (grid, layouts) = sig;
    let rank = rank.max(1);
    match grid.len().cmp(&rank) {
        std::cmp::Ordering::Equal => sig.clone(),
        std::cmp::Ordering::Less => {
            let mut g = grid.clone();
            let mut l = layouts.clone();
            g.resize(rank, 1);
            l.resize(rank, Layout::Block);
            (g, l)
        }
        std::cmp::Ordering::Greater => {
            let mut g = grid[..rank].to_vec();
            let folded: usize = grid[rank - 1..].iter().product();
            g[rank - 1] = folded;
            (g, layouts[..rank].to_vec())
        }
    }
}

/// Instantiate a signature on a concrete template.
fn instantiate(sig: &Sig, extents: &[i64]) -> ProgramDistribution {
    let (grid, layouts) = adapt_sig(sig, extents.len());
    ProgramDistribution::new(extents, &grid, &layouts)
}

/// The portable signature of a concrete distribution.
fn sig_of(d: &ProgramDistribution) -> Sig {
    (d.grid(), d.layouts())
}

/// A one-line digest of what one [`align_then_distribute_dynamic`] run did
/// internally, assembled from the trace-counter deltas of the run (so
/// identical solves report identical numbers). Spans are counted only when
/// span recording is enabled ([`trace::TraceConfig`]); every other field is
/// always live.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SolveSummary {
    /// Timed spans the run recorded (0 with tracing disabled).
    pub spans: usize,
    /// Widest layer of the layout-state DP (live states after merging).
    pub peak_dp_layer_width: usize,
    /// Memoised boundary-pricing lookups answered from the memo.
    pub pricer_hits: u64,
    /// Boundary-pricing lookups that had to price from scratch.
    pub pricer_misses: u64,
    /// LP simplex pivots spent across all alignment solves.
    pub lp_pivots: u64,
}

impl SolveSummary {
    fn from_run(
        at_entry: &trace::CounterSnapshot,
        spans: usize,
        peak_dp_layer_width: usize,
    ) -> SolveSummary {
        let delta = trace::CounterSnapshot::now().delta_since(at_entry);
        let get = |name: &str| delta.counters.get(name).copied().unwrap_or(0);
        SolveSummary {
            spans,
            peak_dp_layer_width,
            pricer_hits: get("phases.pricer.hits"),
            pricer_misses: get("phases.pricer.misses"),
            lp_pivots: get("lp.pivots"),
        }
    }

    /// Fraction of boundary-pricing lookups answered from the memo, as a
    /// percentage (0 when the run priced no boundaries).
    pub fn pricer_hit_pct(&self) -> f64 {
        let total = self.pricer_hits + self.pricer_misses;
        if total == 0 {
            0.0
        } else {
            100.0 * self.pricer_hits as f64 / total as f64
        }
    }
}

impl std::fmt::Display for SolveSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "solve: {} spans, peak DP layer {}, pricer hit {:.0}% ({}/{}), {} LP pivots",
            self.spans,
            self.peak_dp_layer_width,
            self.pricer_hit_pct(),
            self.pricer_hits,
            self.pricer_hits + self.pricer_misses,
            self.lp_pivots
        )
    }
}

/// The dynamic pipeline's full output.
#[derive(Debug, Clone)]
pub struct DynamicPipelineResult {
    /// Processor count everything is distributed over.
    pub nprocs: usize,
    /// Per-phase analyses, in program order (after boundary coalescing).
    pub phases: Vec<PhaseResult>,
    /// Arrays priced at each boundary: `(array, name, extents)` — the arrays
    /// whose *next* use after the boundary is the immediately following
    /// phase. An array that skips phases appears only where it comes back
    /// into use; it is priced there from its true last-use layout.
    pub live: Vec<Vec<(ArrayId, String, Vec<i64>)>>,
    /// The shared signature pool all phases price.
    pub pool: Vec<Sig>,
    /// The candidate layer of each phase the DP chose from (model-capped,
    /// with every phase's favourite retained; `costs` are in-phase
    /// simulated elements).
    pub layers: Vec<PhaseCandidates>,
    /// The chosen dynamic distribution, priced exactly.
    pub dynamic: DynamicDistribution,
    /// The whole-program static solution, for comparison.
    pub static_result: FullPipelineResult,
    /// Simulated element traffic of the static solution under
    /// [`DynamicConfig::sim`] — the number [`DynamicDistribution::planned_cost`]
    /// is compared against (same units, same options).
    pub static_planned_cost: f64,
    /// One-line digest of the run's internal work (trace-counter deltas).
    pub summary: SolveSummary,
    /// The configuration used (needed to re-price or simulate).
    pub config: DynamicConfig,
    /// Per-phase, per-atom placement caches built under [`DynamicConfig::sim`]
    /// during the candidate-layer pass. [`simulate_dynamic`] replays the plan
    /// through them (owner lookups only) whenever it is asked for the same
    /// options — the caches reproduce [`simulate`] exactly, so the report is
    /// unchanged, just cheaper.
    phase_caches: Vec<Arc<Vec<commsim::PlacementCache>>>,
    /// Lazily-built placement caches for every *other* `SimOptions` the
    /// standalone [`simulate_dynamic`] / [`simulate_static`] entry points
    /// are asked for: per-options per-phase per-atom caches of the dynamic
    /// plan and a per-options cache of the static solution's ADG. Shared
    /// across clones (the caches depend only on immutable analysis state),
    /// so repeated calls price by owner lookups instead of re-walking every
    /// position.
    sim_caches: Arc<Mutex<SimCacheStore>>,
}

/// Placement caches built on demand for simulation options other than the
/// retained [`DynamicConfig::sim`] set, keyed by the exact [`SimOptions`]
/// value (a small `Copy + Eq` struct — a linear scan beats hashing for the
/// handful of option sets a result ever sees).
#[derive(Debug, Default)]
struct SimCacheStore {
    /// Per-phase, per-atom caches of the dynamic plan's phases.
    dynamic: Vec<(SimOptions, Vec<Arc<Vec<commsim::PlacementCache>>>)>,
    /// Cache of the static solution's whole-program ADG.
    static_adg: Vec<(SimOptions, Arc<commsim::PlacementCache>)>,
}

impl DynamicPipelineResult {
    /// Model cost of the best *static* distribution
    /// ([`distrib::DistributionCost::total`] units — **not** comparable to
    /// [`DynamicDistribution::planned_cost`], which is simulated elements;
    /// compare against [`DynamicPipelineResult::static_planned_cost`]).
    pub fn static_model_cost(&self) -> f64 {
        self.static_result.best().cost.total()
    }

    /// Total number of distributable atoms across all phases.
    pub fn num_atoms(&self) -> usize {
        self.phases.iter().map(|p| p.atoms.len()).sum()
    }

    /// Per-phase, per-atom placement caches for `opts`: the caches retained
    /// from the candidate-layer pass when the options match
    /// [`DynamicConfig::sim`], otherwise built once per distinct options and
    /// memoised in the shared store. Either way [`simulate_dynamic`] prices
    /// by owner lookups instead of re-walking every position per call.
    fn phase_caches_for(&self, opts: SimOptions) -> Vec<Arc<Vec<commsim::PlacementCache>>> {
        if opts == self.config.sim && self.phase_caches.len() == self.phases.len() {
            return self.phase_caches.clone();
        }
        let mut store = self.sim_caches.lock().unwrap();
        if let Some((_, caches)) = store.dynamic.iter().find(|(o, _)| *o == opts) {
            return caches.clone();
        }
        let caches: Vec<Arc<Vec<commsim::PlacementCache>>> = self
            .phases
            .iter()
            .map(|phase| {
                Arc::new(
                    phase
                        .atoms
                        .iter()
                        .map(|atom| {
                            commsim::PlacementCache::new(&atom.adg, &atom.alignment.alignment, opts)
                        })
                        .collect::<Vec<_>>(),
                )
            })
            .collect();
        store.dynamic.push((opts, caches.clone()));
        caches
    }

    /// Placement cache of the static solution's ADG under `opts`, built
    /// once per distinct options and shared across clones.
    fn static_cache_for(&self, opts: SimOptions) -> Arc<commsim::PlacementCache> {
        let mut store = self.sim_caches.lock().unwrap();
        if let Some((_, cache)) = store.static_adg.iter().find(|(o, _)| *o == opts) {
            return cache.clone();
        }
        let cache = Arc::new(commsim::PlacementCache::new(
            &self.static_result.adg,
            &self.static_result.alignment.alignment,
            opts,
        ));
        store.static_adg.push((opts, cache.clone()));
        cache
    }
}

/// The port where an array rests in an atom: the sink side when the atom
/// assigns it, otherwise its source.
fn resting_port(adg: &Adg, array: ArrayId, prefer_sink: bool) -> Option<PortId> {
    let sink = || {
        adg.nodes().find_map(|(_, n)| match n.kind {
            NodeKind::Sink { array: a } if a == array => n.ports.first().copied(),
            _ => None,
        })
    };
    let source = || {
        adg.nodes().find_map(|(_, n)| match n.kind {
            NodeKind::Source { array: a } if a == array => n.output_ports().first().copied(),
            _ => None,
        })
    };
    if prefer_sink {
        sink().or_else(source)
    } else {
        source()
    }
}

/// The resting placement of `array` looking *backwards* from the end of
/// phase `b`: its resting port's alignment in the last atom (searching
/// right-to-left through phase `b` and every earlier phase) that references
/// the array, the covering template of that phase, and the phase index.
fn resting_before(
    phases: &[PhaseResult],
    b: usize,
    array: ArrayId,
) -> Option<(&PortAlignment, &[i64], usize)> {
    for (p, phase) in phases.iter().enumerate().take(b + 1).rev() {
        for atom in phase.atoms.iter().rev() {
            if atom.references(array) {
                let port = resting_port(&atom.adg, array, true)?;
                return Some((
                    atom.alignment.alignment.port(port),
                    phase.cover_extents(),
                    p,
                ));
            }
        }
    }
    None
}

/// The resting placement of `array` at the start of phase `b`: its source
/// alignment in the first of the phase's atoms that references it, plus the
/// phase's covering template.
fn resting_at_start(phase: &PhaseResult, array: ArrayId) -> Option<(&PortAlignment, &[i64])> {
    phase
        .atoms
        .iter()
        .find(|atom| atom.references(array))
        .and_then(|atom| {
            let port = resting_port(&atom.adg, array, false)?;
            Some((atom.alignment.alignment.port(port), phase.cover_extents()))
        })
}

/// Memoised exact pricing of per-array boundary moves, shared between every
/// DP state that asks and the final step materialisation.
///
/// A move is a pair of *sides* — where the array rests before the boundary
/// and where the next phase needs it, each an (alignment, covering template)
/// spot under one pool signature — and its cost is a function of the two
/// sides alone. A DP layer asks about every (resting signature, candidate)
/// pair of every array it touches, a matrix over a dozen sides per spot, so
/// the pricer compiles each distinct side once
/// ([`commsim::RestingOwners::compile`]: the side's owner coordinates per
/// array axis) and combines two compiled sides per cell
/// ([`commsim::RestingOwners::traffic`]: no element is visited). Spots are
/// interned by content, so a later layer whose array rests the same way
/// finds its sides compiled. The source/destination spots of a given
/// (phase, array) pair are fixed by the program structure; only the
/// signatures vary with the path. Costs and counters are bit-identical to
/// pricing every cell by [`price_resting`], which remains the route of a
/// side that does not compile.
struct MovePricer<'a> {
    phases: &'a [PhaseResult],
    pool: &'a [Sig],
    program: &'a Program,
    sim: SimOptions,
    memo: HashMap<(usize, ArrayId, SigId, SigId), RedistCost>,
    endpoints: HashMap<(usize, ArrayId), Endpoints>,
    /// The distinct resting spots seen so far, by content.
    spots: Vec<Spot<'a>>,
    /// `sides[spot * pool.len() + sig]`, compiled on first use.
    sides: Vec<Option<Box<Side>>>,
    scratch: TrafficScratch,
}

/// Where an array moves between entering a phase: the spot it rests at
/// (with the index of the phase that last used it) and the spot the phase
/// needs it at, as indices into [`MovePricer::spots`].
#[derive(Clone, Copy)]
struct Endpoints {
    src: Option<(usize, usize)>,
    dst: Option<usize>,
}

/// Where an array can rest: its extents, its alignment onto the template,
/// and the covering template of the phase it rests in.
#[derive(PartialEq)]
struct Spot<'a> {
    extents: &'a [i64],
    alignment: &'a PortAlignment,
    cover: &'a [i64],
}

/// One spot under one signature: the signature instantiated on the spot's
/// cover, and the side compiled from it (`None` when the owner map does not
/// compile and the move is priced element by element).
struct Side {
    dist: ProgramDistribution,
    owners: Option<RestingOwners>,
}

impl<'a> MovePricer<'a> {
    fn new(
        phases: &'a [PhaseResult],
        pool: &'a [Sig],
        program: &'a Program,
        sim: SimOptions,
    ) -> Self {
        MovePricer {
            phases,
            pool,
            program,
            sim,
            memo: HashMap::new(),
            endpoints: HashMap::new(),
            spots: Vec::new(),
            sides: Vec::new(),
            scratch: TrafficScratch::default(),
        }
    }

    /// The two spots of `array`'s move into phase `q` (memoised).
    fn endpoints(&mut self, q: usize, array: ArrayId) -> Endpoints {
        if let Some(&ends) = self.endpoints.get(&(q, array)) {
            return ends;
        }
        let extents: &'a [i64] = &self.program.decl(array).extents;
        let phases = self.phases;
        let src = resting_before(phases, q - 1, array).map(|(alignment, cover, p)| {
            let spot = Spot {
                extents,
                alignment,
                cover,
            };
            (self.intern(spot), p)
        });
        let dst = resting_at_start(&phases[q], array).map(|(alignment, cover)| {
            self.intern(Spot {
                extents,
                alignment,
                cover,
            })
        });
        let ends = Endpoints { src, dst };
        self.endpoints.insert((q, array), ends);
        ends
    }

    fn intern(&mut self, spot: Spot<'a>) -> usize {
        self.spots
            .iter()
            .position(|s| *s == spot)
            .unwrap_or_else(|| {
                self.spots.push(spot);
                self.sides
                    .resize_with(self.spots.len() * self.pool.len(), || None);
                self.spots.len() - 1
            })
    }

    /// Exact price of moving `array` into phase `q` from resting signature
    /// `src` to the destination phase's signature `dst`.
    fn price(&mut self, q: usize, array: ArrayId, src: SigId, dst: SigId) -> RedistCost {
        if let Some(c) = self.memo.get(&(q, array, src, dst)) {
            trace::count("phases.pricer.hits", 1);
            return *c;
        }
        trace::count("phases.pricer.misses", 1);
        let ends = self.endpoints(q, array);
        let cost = self.cell(ends, src, dst);
        self.memo.insert((q, array, src, dst), cost);
        cost
    }

    /// The slot in [`MovePricer::sides`] of `spot` under `sig`, compiled if
    /// this is its first use.
    fn side(&mut self, spot: usize, sig: SigId) -> usize {
        let slot = spot * self.pool.len() + sig;
        if self.sides[slot].is_none() {
            let Spot {
                extents,
                alignment,
                cover,
            } = self.spots[spot];
            let dist = instantiate(&self.pool[sig], cover);
            let owners = RestingOwners::compile(extents, alignment, &dist, &[], self.sim);
            self.sides[slot] = Some(Box::new(Side { dist, owners }));
        }
        slot
    }

    /// The cost of one cell, from its two sides.
    fn cell(&mut self, ends: Endpoints, src: SigId, dst: SigId) -> RedistCost {
        let (Some((src_spot, _)), Some(dst_spot)) = (ends.src, ends.dst) else {
            return RedistCost::default();
        };
        let (from, to) = (self.side(src_spot, src), self.side(dst_spot, dst));
        let [from, to] = [from, to].map(|slot| self.sides[slot].as_deref().expect("compiled"));
        let (src_spot, dst_spot) = (&self.spots[src_spot], &self.spots[dst_spot]);
        match (&from.owners, &to.owners) {
            (Some(src_owners), Some(dst_owners)) => RedistCost::priced(
                RestingOwners::traffic(src_owners, dst_owners, &mut self.scratch),
                spread_stages(
                    src_spot.alignment,
                    dst_spot.alignment,
                    dst_owners.grid_dims(),
                ),
            ),
            _ => price_resting(
                src_spot.extents,
                &RestingPlacement::new(src_spot.alignment, &from.dist),
                &RestingPlacement::new(dst_spot.alignment, &to.dist),
                self.sim,
            ),
        }
    }
}

impl DpPricer for MovePricer<'_> {
    fn price(&mut self, phase: usize, array: ArrayId, src: SigId, dst: SigId) -> f64 {
        MovePricer::price(self, phase, array, src, dst).elements()
    }

    fn move_bound(&mut self, array: ArrayId) -> f64 {
        // Every move's element traffic is bounded by the array's total
        // element count: `redistribution_traffic` attributes each sampled
        // element's scale to either the point-to-point or the broadcast
        // bucket, and the scales sum to the extents product.
        self.program
            .decl(array)
            .extents
            .iter()
            .product::<i64>()
            .max(1) as f64
    }

    fn note_repeat_queries(&mut self, n: u64) {
        // The DP asks once per distinct cell and reports the duplicates it
        // collapsed; booking them as hits keeps `phases.pricer.{hits,misses}`
        // bitwise-identical to per-query pricing.
        trace::count("phases.pricer.hits", n);
    }
}

/// Group the atoms into phases and rank each phase's candidates: search the
/// signature space **once per phase** over all its atoms on the phase's
/// covering template (shared enumeration — no per-atom re-search), pool
/// every phase's top-ranked signatures (dedup'd in first-seen order), and
/// re-price each report over that shared pool — each pool signature
/// instantiated on the phase's cover and priced by summing the phase's
/// per-atom model costs. Every atom's cost model is built once and serves
/// both the search and the re-pricing. Returns the phases and the pool.
fn search_phases(
    atoms: Vec<AtomAnalysis>,
    atom_ranges: &[(usize, usize)],
    solve_cfg: &SolveConfig,
) -> (Vec<PhaseResult>, Vec<Sig>) {
    let models: Vec<DistributionCostModel<'_>> = atoms
        .iter()
        .map(|a| DistributionCostModel::new(&a.adg, &a.alignment.alignment))
        .collect();
    let mut searched: Vec<(Vec<Vec<i64>>, DistributionReport)> = atom_ranges
        .iter()
        .map(|&(lo, hi)| {
            let atom_templates: Vec<Vec<i64>> = models[lo..hi]
                .iter()
                .map(|m| m.template_extents())
                .collect();
            let cover = cover_of(&atom_templates);
            let report = solve_distribution_pooled(&models[lo..hi], &cover, solve_cfg);
            (atom_templates, report)
        })
        .collect();

    let mut pool: Vec<Sig> = Vec::new();
    for r in searched.iter().flat_map(|(_, report)| &report.ranked) {
        let sig = sig_of(&r.distribution);
        if !pool.contains(&sig) {
            pool.push(sig);
        }
    }

    for (&(lo, hi), (_, report)) in atom_ranges.iter().zip(&mut searched) {
        let mut ranked: Vec<RankedDistribution> = pool
            .iter()
            .map(|sig| {
                let dist = instantiate(sig, &report.template_extents);
                let cost = models[lo..hi]
                    .iter()
                    .map(|m| m.cost(&dist))
                    .fold(DistributionCost::default(), |a, b| a.plus(&b));
                RankedDistribution {
                    distribution: dist,
                    cost,
                }
            })
            .collect();
        rank_distributions(&mut ranked);
        report.ranked = ranked;
    }
    drop(models);

    let mut atoms = atoms.into_iter();
    let phases = atom_ranges
        .iter()
        .zip(searched)
        .map(|(&(lo, hi), (atom_templates, report))| {
            let atoms: Vec<AtomAnalysis> = atoms.by_ref().take(hi - lo).collect();
            PhaseResult {
                atom_range: (lo, hi),
                range: (
                    atoms.first().map_or(0, |a| a.stmt_index),
                    atoms.last().map_or(0, |a| a.stmt_index + 1),
                ),
                atoms,
                atom_templates,
                report,
            }
        })
        .collect();
    (phases, pool)
}

/// The elementwise-max cover of a set of template extents.
fn cover_of(templates: &[Vec<i64>]) -> Vec<i64> {
    let rank = templates.iter().map(Vec::len).max().unwrap_or(1).max(1);
    let mut cover = vec![1i64; rank];
    for t in templates {
        for (i, &e) in t.iter().enumerate() {
            cover[i] = cover[i].max(e);
        }
    }
    cover
}

/// Arrays priced at each boundary: next use is the following phase, and
/// referenced somewhere before.
fn build_live(
    program: &Program,
    phase_refs: &[BTreeSet<ArrayId>],
) -> Vec<Vec<(ArrayId, String, Vec<i64>)>> {
    (0..phase_refs.len().saturating_sub(1))
        .map(|b| {
            let before: BTreeSet<ArrayId> = phase_refs[..=b]
                .iter()
                .flat_map(|s| s.iter().copied())
                .collect();
            phase_refs[b + 1]
                .iter()
                .filter(|a| before.contains(a))
                .map(|&a| {
                    let decl = program.decl(a);
                    (a, decl.name.clone(), decl.extents.clone())
                })
                .collect()
        })
        .collect()
}

/// Candidate layers from the pool-priced reports: the
/// [`MAX_CANDIDATES_PER_PHASE`] cheapest by model cost, plus every phase's
/// favourite. `costs` are **in-phase simulated elements** under `sim` — the
/// same accounting [`simulate_dynamic`] replays, via the per-atom placement
/// caches — so the DP minimises end-to-end simulated traffic.
fn build_layers(
    phases: &[PhaseResult],
    pool: &[Sig],
    sim: SimOptions,
) -> (Vec<PhaseCandidates>, Vec<Arc<Vec<commsim::PlacementCache>>>) {
    let retained: Vec<Sig> = phases
        .iter()
        .filter_map(|p| p.report.ranked.first())
        .map(|r| sig_of(&r.distribution))
        .collect();
    // The caches are kept so `simulate_dynamic` can replay the chosen plan
    // by owner lookups instead of re-walking every position.
    phases
        .iter()
        .map(|p| {
            let caches: Vec<commsim::PlacementCache> = p
                .atoms
                .iter()
                .map(|a| commsim::PlacementCache::new(&a.adg, &a.alignment.alignment, sim))
                .collect();
            let layer = layer_from_report(p, pool, &retained, &caches);
            (layer, Arc::new(caches))
        })
        .unzip()
}

/// One phase's candidate layer: the [`MAX_CANDIDATES_PER_PHASE`] cheapest of
/// its pool-priced ranking plus every `retained` signature, with in-phase simulated-element
/// costs. Placements depend on the alignment, not the candidate, so the
/// per-atom placement caches (`caches`, in atom order) are built once and
/// every candidate is priced by owner lookups alone
/// ([`commsim::PlacementCache`] reproduces `simulate()` exactly, so these
/// costs equal the final plan pricing).
fn layer_from_report(
    p: &PhaseResult,
    pool: &[Sig],
    retained: &[Sig],
    caches: &[commsim::PlacementCache],
) -> PhaseCandidates {
    let sig_id = |sig: &Sig| -> SigId {
        pool.iter()
            .position(|s| s == sig)
            .expect("layer signature must come from the pool")
    };
    let keep: Vec<&RankedDistribution> = p
        .report
        .ranked
        .iter()
        .enumerate()
        .filter(|(i, r)| {
            *i < MAX_CANDIDATES_PER_PHASE || retained.contains(&sig_of(&r.distribution))
        })
        .map(|(_, r)| r)
        .collect();
    PhaseCandidates {
        costs: keep
            .iter()
            .map(|r| {
                caches
                    .iter()
                    .map(|c| c.total_elements(&r.distribution))
                    .sum()
            })
            .collect(),
        sigs: keep
            .iter()
            .map(|r| sig_id(&sig_of(&r.distribution)))
            .collect(),
        dists: keep.iter().map(|r| r.distribution.clone()).collect(),
    }
}

/// Materialise the per-array redistribution steps of the chosen plan: at
/// each boundary, every live array priced exactly from the layout of the
/// phase that actually last used it.
fn build_steps(
    phases: &[PhaseResult],
    live: &[Vec<(ArrayId, String, Vec<i64>)>],
    chosen_sigs: &[SigId],
    pricer: &mut MovePricer<'_>,
) -> Vec<Vec<RedistStep>> {
    (0..phases.len().saturating_sub(1))
        .map(|b| {
            live[b]
                .iter()
                .filter_map(|(array, name, extents)| {
                    let (_, src_phase) = pricer.endpoints(b + 1, *array).src?;
                    let cost =
                        pricer.price(b + 1, *array, chosen_sigs[src_phase], chosen_sigs[b + 1]);
                    Some(RedistStep {
                        array: *array,
                        name: name.clone(),
                        extents: extents.clone(),
                        src_phase,
                        cost,
                    })
                })
                .collect()
        })
        .collect()
}

/// Everything the layout DP consumes, computed by stages 2+3 of the
/// pipeline from the per-atom analyses: the pooled per-phase candidate
/// reports, the shared signature pool, per-phase reference sets, the
/// simulated candidate layers, and the per-atom placement caches retained
/// from the layer pass.
struct DpInputs {
    phases: Vec<PhaseResult>,
    sig_pool: Vec<Sig>,
    phase_refs: Vec<BTreeSet<ArrayId>>,
    layers: Vec<PhaseCandidates>,
    phase_caches: Vec<Arc<Vec<commsim::PlacementCache>>>,
}

/// Boundaries from the per-atom signatures, then one signature-space search
/// per phase (shared enumeration over all the phase's atoms), the
/// cross-phase pool with pool-priced reports, and the candidate layers
/// (model-capped, favourites retained, in-phase costs simulated).
fn build_dp_inputs(atoms: Vec<AtomAnalysis>, nprocs: usize, config: &DynamicConfig) -> DpInputs {
    let boundaries = match &config.boundaries {
        Some(b) => b.clone(),
        None => detect_boundaries(&atoms),
    };
    let atom_ranges = align_ir::ast::cut_ranges(atoms.len(), &boundaries);
    let (phases, sig_pool) = {
        let _span = trace::span("phases.search");
        search_phases(atoms, &atom_ranges, &SolveConfig::new(nprocs))
    };
    let phase_refs: Vec<BTreeSet<ArrayId>> = phases.iter().map(|p| p.referenced()).collect();
    let (layers, phase_caches) = {
        let _span = trace::span("phases.layers");
        build_layers(&phases, &sig_pool, config.sim)
    };
    DpInputs {
        phases,
        sig_pool,
        phase_refs,
        layers,
        phase_caches,
    }
}

/// A self-contained layout-DP instance over **real pipeline state**: the
/// candidate layers, reference sets and pooled phase analyses of a program,
/// detached from the rest of the pipeline so the DP can be solved
/// repeatedly under different pruning policies against the same inputs
/// (the `layout_dp` microbench and the pruned-vs-exhaustive property tests
/// drive this). Each [`LayoutDpProblem::solve`] builds a fresh `MovePricer`
/// — same memo behaviour, same counters — so runs are independent.
pub struct LayoutDpProblem {
    program: Program,
    config: DynamicConfig,
    phases: Vec<PhaseResult>,
    sig_pool: Vec<Sig>,
    phase_refs: Vec<BTreeSet<ArrayId>>,
    layers: Vec<PhaseCandidates>,
}

impl LayoutDpProblem {
    /// The candidate layers the DP chooses from.
    pub fn layers(&self) -> &[PhaseCandidates] {
        &self.layers
    }

    /// Solve the DP over the captured layers with a fresh exact pricer.
    pub fn solve(
        &self,
        switch_margin: f64,
        pruning: DpPruning,
    ) -> Result<LayoutDpPlan, LayoutDpError> {
        let mut pricer =
            MovePricer::new(&self.phases, &self.sig_pool, &self.program, self.config.sim);
        solve_layout_dp_with(
            &self.layers,
            &self.phase_refs,
            switch_margin,
            &mut pricer,
            pruning,
        )
    }
}

/// Capture the layout-DP instance of `program` at `nprocs` — the exact
/// layers and reference sets [`align_then_distribute_dynamic`] would hand
/// [`solve_layout_dp`] — without solving it.
pub fn layout_dp_problem(
    program: &Program,
    nprocs: usize,
    config: &DynamicConfig,
) -> LayoutDpProblem {
    let atoms = analyze_atoms(program, &config.alignment);
    let DpInputs {
        phases,
        sig_pool,
        phase_refs,
        layers,
        phase_caches: _,
    } = build_dp_inputs(atoms, nprocs, config);
    LayoutDpProblem {
        program: program.clone(),
        config: config.clone(),
        phases,
        sig_pool,
        phase_refs,
        layers,
    }
}

/// Run the complete three-stage analysis: fission into atoms, align each
/// once, detect candidate boundaries, search the signature space once per
/// phase, solve the per-array layout-state DP over the shared pool, and
/// coalesce the boundaries the chosen path does not use. The static
/// whole-program solution is computed alongside for comparison, simulated
/// under the same options as the plan pricing.
///
/// ```
/// use phases::{align_then_distribute_dynamic, simulate_dynamic, DynamicConfig};
///
/// // Row-work then column-work over the same array: no static distribution
/// // is good everywhere, so the plan flips layouts at the boundary.
/// let program = align_ir::programs::fft_like(16, 8);
/// let result = align_then_distribute_dynamic(&program, 4, &DynamicConfig::default());
///
/// assert_eq!(result.phases.len(), 2);
/// assert!(result.dynamic.redistributes());
/// // The priced plan IS the simulated plan: same accounting, same options.
/// let replay = simulate_dynamic(&result, result.config.sim);
/// assert_eq!(result.dynamic.planned_cost, replay.total_elements());
/// ```
pub fn align_then_distribute_dynamic(
    program: &Program,
    nprocs: usize,
    config: &DynamicConfig,
) -> DynamicPipelineResult {
    try_align_then_distribute_dynamic(program, nprocs, config)
        .expect("layout DP rejected the phase structure")
}

/// [`align_then_distribute_dynamic`] that reports a degenerate phase
/// structure (no phases, a phase with no candidates, a layer/reference
/// mismatch) as a typed [`LayoutDpError`] instead of panicking — the entry
/// point for server-bound callers that must answer every request.
pub fn try_align_then_distribute_dynamic(
    program: &Program,
    nprocs: usize,
    config: &DynamicConfig,
) -> Result<DynamicPipelineResult, LayoutDpError> {
    let _span = trace::span("phases.pipeline");
    trace::count("phases.pipeline_runs", 1);
    let counters_at_entry = trace::CounterSnapshot::now();
    let spans_at_entry = trace::span_count();

    // Stage 0+1: one analysis per atom — shared with the static baseline
    // below, which for a single-atom program IS the whole-program alignment
    // (the atom's standalone program equals the program), so the baseline
    // reuses it instead of aligning a second time.
    let atoms = analyze_atoms(program, &config.alignment);
    let static_seed =
        (atoms.len() == 1).then(|| (atoms[0].adg.clone(), atoms[0].alignment.clone()));

    // Stages 2+3: boundaries, per-phase signature search, shared pool,
    // candidate layers — then the per-array layout-state DP.
    let DpInputs {
        phases,
        sig_pool,
        phase_refs,
        layers,
        phase_caches,
    } = build_dp_inputs(atoms, nprocs, config);
    let live = build_live(program, &phase_refs);
    let mut pricer = MovePricer::new(&phases, &sig_pool, program, config.sim);
    let plan = solve_layout_dp(&layers, &phase_refs, config.switch_margin, &mut pricer)?;
    let peak_dp_layer_width = plan.states_per_layer.iter().copied().max().unwrap_or(0);
    let chosen_sigs: Vec<SigId> = plan
        .chosen
        .iter()
        .zip(&layers)
        .map(|(&k, l)| l.sigs[k])
        .collect();
    let steps = build_steps(&phases, &live, &chosen_sigs, &mut pricer);
    drop(pricer);

    // DAG-driven boundary selection: coalesce every detected boundary the
    // chosen path leaves unused (same signature and same covering template
    // on both sides, no array paying anything — a cost-neutral merge by
    // construction). The DP decided which seams are real; the rest disappear
    // from the plan.
    let (phases, live, layers, phase_caches, chosen_sigs, chosen, steps) = coalesce(
        phases,
        live,
        layers,
        phase_caches,
        chosen_sigs,
        plan.chosen,
        steps,
        &sig_pool,
        nprocs,
        program,
        config.sim,
    );

    // Exact plan pricing on the final structure: in-phase simulated traffic
    // plus every per-array step — the same accounting `simulate_dynamic`
    // replays, so `planned_cost` IS the simulated plan cost.
    let per_phase: Vec<ProgramDistribution> = chosen_sigs
        .iter()
        .zip(&phases)
        .map(|(&s, p)| instantiate(&sig_pool[s], p.cover_extents()))
        .collect();
    let planned_cost: f64 = chosen
        .iter()
        .zip(&layers)
        .map(|(&k, l)| l.costs[k])
        .sum::<f64>()
        + steps
            .iter()
            .flatten()
            .map(|s| s.cost.elements())
            .sum::<f64>();
    let dynamic = DynamicDistribution {
        chosen,
        per_phase,
        steps,
        planned_cost,
    };

    let (static_result, static_planned_cost) =
        static_baseline(program, nprocs, config, static_seed);

    let summary = SolveSummary::from_run(
        &counters_at_entry,
        trace::span_count() - spans_at_entry,
        peak_dp_layer_width,
    );

    Ok(DynamicPipelineResult {
        nprocs,
        phases,
        live,
        pool: sig_pool,
        layers,
        dynamic,
        static_result,
        static_planned_cost,
        summary,
        config: config.clone(),
        phase_caches,
        sim_caches: Arc::new(Mutex::new(SimCacheStore::default())),
    })
}

/// The static baseline over the whole program, simulated under the same
/// options the plan is priced with. A single-atom program's baseline
/// alignment is the atom's own (`seed`, already computed) — only the
/// distribution search runs then.
fn static_baseline(
    program: &Program,
    nprocs: usize,
    config: &DynamicConfig,
    seed: Option<(Adg, AlignmentResult)>,
) -> (FullPipelineResult, f64) {
    let _span = trace::span("phases.static_baseline");
    let static_result = match seed {
        Some((adg, alignment)) => {
            let distribution = distribute_alignment(&adg, &alignment.alignment, nprocs);
            FullPipelineResult {
                adg,
                alignment,
                distribution,
            }
        }
        None => align_then_distribute(
            program,
            nprocs,
            &FullPipelineConfig {
                alignment: config.alignment,
            },
        ),
    };
    let static_planned_cost = simulate(
        &static_result.adg,
        &static_result.alignment.alignment,
        &static_result.best().distribution,
        config.sim,
    )
    .total_elements();
    (static_result, static_planned_cost)
}

/// Merge adjacent phases across boundaries the chosen path does not use:
/// identical chosen signature on both sides, identical covering template,
/// and every step free. Requiring equal covers makes the merge exactly
/// cost-neutral — the candidate instances (and therefore every in-phase
/// simulation) are unchanged, so the merged plan prices identically to the
/// plan the DP selected; a boundary between phases with *different* covers
/// is kept even when nothing moves, because merging it would re-price the
/// smaller phase's atoms on a different block structure.
///
/// Only the merged groups are rebuilt: their reports are the signature-wise
/// sums of the members' pool-priced rankings (same cover ⇒ same candidate
/// instances ⇒ model costs add; no re-search, no new cost models), and
/// their layers are re-priced on the members' placement caches with the
/// chosen signature forced in.
/// Untouched phases keep their reports, layers and chosen indices.
#[allow(clippy::too_many_arguments, clippy::type_complexity)]
fn coalesce(
    phases: Vec<PhaseResult>,
    live: Vec<Vec<(ArrayId, String, Vec<i64>)>>,
    layers: Vec<PhaseCandidates>,
    phase_caches: Vec<Arc<Vec<commsim::PlacementCache>>>,
    chosen_sigs: Vec<SigId>,
    chosen: Vec<usize>,
    steps: Vec<Vec<RedistStep>>,
    pool: &[Sig],
    nprocs: usize,
    program: &Program,
    sim: SimOptions,
) -> (
    Vec<PhaseResult>,
    Vec<Vec<(ArrayId, String, Vec<i64>)>>,
    Vec<PhaseCandidates>,
    Vec<Arc<Vec<commsim::PlacementCache>>>,
    Vec<SigId>,
    Vec<usize>,
    Vec<Vec<RedistStep>>,
) {
    let _span = trace::span("phases.coalesce");
    // Group consecutive phases separated only by unused boundaries.
    let mut groups: Vec<Vec<usize>> = vec![vec![0]];
    for b in 0..phases.len().saturating_sub(1) {
        let unused = chosen_sigs[b] == chosen_sigs[b + 1]
            && phases[b].cover_extents() == phases[b + 1].cover_extents()
            && steps[b].iter().all(|s| s.cost.is_zero());
        if unused {
            groups.last_mut().unwrap().push(b + 1);
        } else {
            groups.push(vec![b + 1]);
        }
    }
    trace::count(
        "phases.seams_coalesced",
        (phases.len() - groups.len()) as u64,
    );
    if groups.len() == phases.len() {
        return (
            phases,
            live,
            layers,
            phase_caches,
            chosen_sigs,
            chosen,
            steps,
        );
    }

    let mut phases_iter = phases.into_iter();
    let mut layers_iter = layers.into_iter();
    let mut caches_iter = phase_caches.into_iter();
    let mut new_phases: Vec<PhaseResult> = Vec::with_capacity(groups.len());
    let mut new_layers: Vec<PhaseCandidates> = Vec::with_capacity(groups.len());
    let mut new_caches: Vec<Arc<Vec<commsim::PlacementCache>>> = Vec::with_capacity(groups.len());
    let mut new_sigs: Vec<SigId> = Vec::with_capacity(groups.len());
    let mut new_chosen: Vec<usize> = Vec::with_capacity(groups.len());
    for group in &groups {
        let members: Vec<PhaseResult> = phases_iter.by_ref().take(group.len()).collect();
        let member_layers: Vec<PhaseCandidates> = layers_iter.by_ref().take(group.len()).collect();
        let member_caches: Vec<Arc<Vec<commsim::PlacementCache>>> =
            caches_iter.by_ref().take(group.len()).collect();
        let sig = chosen_sigs[group[0]];
        new_sigs.push(sig);
        if members.len() == 1 {
            new_phases.push(members.into_iter().next().unwrap());
            new_layers.push(member_layers.into_iter().next().unwrap());
            new_caches.push(member_caches.into_iter().next().unwrap());
            new_chosen.push(chosen[group[0]]);
            continue;
        }
        let merged = merge_phase_group(members, nprocs);
        // The merged phase's atoms are the members' atoms in order, so its
        // caches are the members' caches in order.
        let caches: Vec<commsim::PlacementCache> = member_caches
            .into_iter()
            .flat_map(Arc::unwrap_or_clone)
            .collect();
        let layer = layer_from_report(&merged, pool, &[pool[sig].clone()], &caches);
        new_chosen.push(
            layer
                .sigs
                .iter()
                .position(|&x| x == sig)
                .expect("chosen signature forced into its layer"),
        );
        new_layers.push(layer);
        new_caches.push(Arc::new(caches));
        new_phases.push(merged);
    }

    let phase_refs: Vec<BTreeSet<ArrayId>> = new_phases.iter().map(|p| p.referenced()).collect();
    let live = build_live(program, &phase_refs);
    let mut pricer = MovePricer::new(&new_phases, pool, program, sim);
    let steps = build_steps(&new_phases, &live, &new_sigs, &mut pricer);
    drop(pricer);
    (
        new_phases, live, new_layers, new_caches, new_sigs, new_chosen, steps,
    )
}

/// Merge a run of phases that share one covering template into a single
/// [`PhaseResult`]. The members' pool-priced rankings are over identical
/// candidate instances (same cover), so the merged ranking is their
/// signature-wise sum — no re-search and no new cost models.
fn merge_phase_group(members: Vec<PhaseResult>, nprocs: usize) -> PhaseResult {
    let atom_range = (
        members.first().unwrap().atom_range.0,
        members.last().unwrap().atom_range.1,
    );
    let range = (
        members.iter().map(|p| p.range.0).min().unwrap(),
        members.iter().map(|p| p.range.1).max().unwrap(),
    );
    let cover = members[0].report.template_extents.clone();
    let mut summed: Vec<(Sig, DistributionCost)> = members[0]
        .report
        .ranked
        .iter()
        .map(|r| (sig_of(&r.distribution), r.cost))
        .collect();
    for m in &members[1..] {
        for r in &m.report.ranked {
            let sig = sig_of(&r.distribution);
            if let Some(entry) = summed.iter_mut().find(|(s, _)| *s == sig) {
                entry.1 = entry.1.plus(&r.cost);
            }
        }
    }
    let mut ranked: Vec<RankedDistribution> = summed
        .into_iter()
        .map(|(sig, cost)| RankedDistribution {
            distribution: instantiate(&sig, &cover),
            cost,
        })
        .collect();
    rank_distributions(&mut ranked);
    let candidates_evaluated = members.iter().map(|m| m.report.candidates_evaluated).sum();
    let mut atoms: Vec<AtomAnalysis> = Vec::new();
    let mut atom_templates: Vec<Vec<i64>> = Vec::new();
    for p in members {
        atoms.extend(p.atoms);
        atom_templates.extend(p.atom_templates);
    }
    PhaseResult {
        atom_range,
        range,
        atoms,
        atom_templates,
        report: DistributionReport {
            nprocs,
            template_extents: cover,
            ranked,
            candidates_evaluated,
        },
    }
}

/// Simulated traffic of a dynamic plan, phase by phase plus the per-array
/// redistribution steps — the end-to-end validation of the plan. Under the
/// options the plan was priced with ([`DynamicConfig::sim`]), the total
/// equals [`DynamicDistribution::planned_cost`]; under [`SimOptions::exact`]
/// both are exact.
#[derive(Debug, Clone)]
pub struct DynamicSimReport {
    /// Simulated element traffic of each phase under its chosen
    /// distribution (each phase's atoms summed on the phase's covering
    /// template; `per_edge` entries are per-atom edge ids).
    pub per_phase: Vec<SimReport>,
    /// Element traffic of each boundary's per-array redistribution steps.
    pub redist_elements: Vec<f64>,
}

impl DynamicSimReport {
    /// Total elements moved: in-phase traffic plus redistribution.
    pub fn total_elements(&self) -> f64 {
        self.per_phase
            .iter()
            .map(SimReport::total_elements)
            .sum::<f64>()
            + self.redist_elements.iter().sum::<f64>()
    }
}

/// Play the chosen dynamic distribution through the communication
/// simulator: each atom's ADG under its phase's chosen distribution on the
/// phase's covering template, plus the exact owner-comparison cost of every
/// per-array redistribution step — each array priced from the layout of the
/// phase that *actually last used it*. This is the same accounting the DP
/// priced the plan with, so with `opts == result.config.sim` the report's
/// total equals `result.dynamic.planned_cost`.
pub fn simulate_dynamic(result: &DynamicPipelineResult, opts: SimOptions) -> DynamicSimReport {
    let chosen_sigs: Vec<Sig> = result.dynamic.per_phase.iter().map(sig_of).collect();
    // Replay each phase through per-atom placement caches — the ones
    // retained from the candidate-layer pass when `opts` matches the plan's
    // own options, otherwise built once per distinct options and shared
    // across calls. The caches reproduce `simulate` exactly (same sampling,
    // same traffic), priced by owner-table lookups instead of re-walking
    // every position per call.
    let phase_caches = result.phase_caches_for(opts);
    let per_phase: Vec<SimReport> = result
        .phases
        .iter()
        .zip(&chosen_sigs)
        .enumerate()
        .map(|(i, (phase, sig))| {
            let dist = instantiate(sig, phase.cover_extents());
            let mut merged = SimReport {
                processors: result.nprocs,
                ..SimReport::default()
            };
            for cache in phase_caches[i].iter() {
                merged.merge(cache.price(&dist));
            }
            merged
        })
        .collect();
    let redist_elements: Vec<f64> = (0..result.phases.len().saturating_sub(1))
        .map(|b| {
            result.live[b]
                .iter()
                .filter_map(|(array, _, extents)| {
                    let (src_align, src_cover, src_phase) =
                        resting_before(&result.phases, b, *array)?;
                    let (dst_align, dst_cover) = resting_at_start(&result.phases[b + 1], *array)?;
                    let src_dist = instantiate(&chosen_sigs[src_phase], src_cover);
                    let dst_dist = instantiate(&chosen_sigs[b + 1], dst_cover);
                    let spec = commsim::RedistSpec {
                        extents,
                        src: RestingPlacement::new(src_align, &src_dist),
                        dst: RestingPlacement::new(dst_align, &dst_dist),
                    };
                    Some(
                        commsim::simulate_redistribution(std::slice::from_ref(&spec), opts)
                            .elements(),
                    )
                })
                .sum()
        })
        .collect();
    DynamicSimReport {
        per_phase,
        redist_elements,
    }
}

/// Simulated element traffic of the best *static* distribution over the
/// whole program — the baseline [`simulate_dynamic`] is compared against.
pub fn simulate_static(result: &DynamicPipelineResult, opts: SimOptions) -> SimReport {
    // Every call prices through a lazily-built placement cache of the
    // static ADG — one per distinct `SimOptions`, shared across clones —
    // identical traffic to `simulate`, by owner lookups instead of
    // re-walking every position per call.
    result
        .static_cache_for(opts)
        .price(&result.static_result.best().distribution)
}

#[cfg(test)]
mod tests {
    use super::*;
    use align_ir::programs;

    #[test]
    fn fft_like_plans_two_phases_and_redistributes() {
        let result = align_then_distribute_dynamic(
            &programs::fft_like(32, 40),
            8,
            &DynamicConfig::default(),
        );
        assert_eq!(result.phases.len(), 2, "detected phases");
        assert_eq!(result.live.len(), 1);
        assert_eq!(result.live[0].len(), 1, "A is live across the boundary");
        let d = &result.dynamic;
        assert!(d.redistributes(), "{d}");
        // Each phase serialises its traffic axis.
        assert_eq!(d.per_phase[0].grid(), vec![8, 1], "{d}");
        assert_eq!(d.per_phase[1].grid(), vec![1, 8], "{d}");
        assert!(d.planned_cost < result.static_planned_cost, "{d}");
    }

    #[test]
    fn standalone_simulation_prices_through_caches_unchanged() {
        // The standalone `simulate_dynamic` / `simulate_static` entry
        // points replay through placement caches — the set retained from
        // the candidate-layer pass for the plan's own options, lazily-built
        // memoised ones for any other options. The reports must equal a
        // direct cache-free `commsim::simulate` of the same placements, and
        // repeat calls must price through the existing caches without
        // building new ones.
        let result = align_then_distribute_dynamic(
            &programs::fft_like(32, 40),
            8,
            &DynamicConfig::default(),
        );
        for opts in [result.config.sim, SimOptions::sampled(64, 256)] {
            let report = simulate_dynamic(&result, opts);
            let chosen_sigs: Vec<Sig> = result.dynamic.per_phase.iter().map(sig_of).collect();
            for (i, (phase, sig)) in result.phases.iter().zip(&chosen_sigs).enumerate() {
                let dist = instantiate(sig, phase.cover_extents());
                let mut direct = SimReport {
                    processors: result.nprocs,
                    ..SimReport::default()
                };
                for atom in &phase.atoms {
                    direct.merge(simulate(&atom.adg, &atom.alignment.alignment, &dist, opts));
                }
                assert_eq!(
                    format!("{:?}", report.per_phase[i]),
                    format!("{direct:?}"),
                    "phase {i} cached replay diverged from direct simulation"
                );
            }
            let static_report = simulate_static(&result, opts);
            let static_direct = simulate(
                &result.static_result.adg,
                &result.static_result.alignment.alignment,
                &result.static_result.best().distribution,
                opts,
            );
            assert_eq!(
                format!("{static_report:?}"),
                format!("{static_direct:?}"),
                "static cached replay diverged from direct simulation"
            );

            let builds = trace::counter("commsim.cache.builds");
            let again = simulate_dynamic(&result, opts);
            let _ = simulate_static(&result, opts);
            assert_eq!(
                trace::counter("commsim.cache.builds"),
                builds,
                "repeat calls rebuilt placement caches"
            );
            assert_eq!(
                format!("{:?}", again.per_phase),
                format!("{:?}", report.per_phase),
                "repeat cached replay diverged"
            );
        }
    }

    #[test]
    fn explicit_boundaries_override_detection() {
        let mut cfg = DynamicConfig::default();
        cfg.boundaries = Some(vec![]);
        let one = align_then_distribute_dynamic(&programs::fft_like(16, 4), 4, &cfg);
        assert_eq!(one.phases.len(), 1);
        assert!(!one.dynamic.redistributes());
        cfg.boundaries = Some(vec![1]);
        let two = align_then_distribute_dynamic(&programs::fft_like(16, 4), 4, &cfg);
        assert_eq!(two.phases.len(), 2);
    }

    #[test]
    fn single_phase_dynamic_matches_static_choice() {
        // A program with one topology: the dynamic plan degenerates to a
        // single phase with no redistribution steps, and its simulated cost
        // is no worse than the static solution's.
        let result = align_then_distribute_dynamic(
            &programs::stencil2d(24, 3),
            4,
            &DynamicConfig::default(),
        );
        assert_eq!(result.phases.len(), 1);
        assert!(result.dynamic.steps.is_empty());
        assert!(
            result.dynamic.planned_cost <= result.static_planned_cost + 1e-9,
            "dynamic {} vs static {}",
            result.dynamic.planned_cost,
            result.static_planned_cost
        );
    }

    #[test]
    fn multigrid_pipeline_runs_end_to_end() {
        let result = align_then_distribute_dynamic(
            &programs::multigrid_vcycle(16, 2, 2),
            4,
            &DynamicConfig::default(),
        );
        assert!(!result.phases.is_empty());
        let sim = simulate_dynamic(&result, SimOptions::default());
        assert!(sim.total_elements().is_finite());
        assert!(result.dynamic.planned_cost.is_finite());
    }

    #[test]
    fn layers_are_capped_and_well_formed() {
        let result =
            align_then_distribute_dynamic(&programs::fft_like(16, 8), 8, &DynamicConfig::default());
        for (layer, phase) in result.layers.iter().zip(&result.phases) {
            assert!(!layer.dists.is_empty());
            assert_eq!(layer.dists.len(), layer.costs.len());
            assert_eq!(layer.dists.len(), layer.sigs.len());
            // Bounded by the cap plus the always-retained favourites (one
            // per phase, plus at most one forced signature per phase after
            // coalescing).
            assert!(layer.dists.len() <= MAX_CANDIDATES_PER_PHASE + 2 * result.phases.len());
            // The phase's own model optimum is always retained.
            let best = phase.report.best().distribution.grid();
            assert!(
                layer.dists.iter().any(|d| d.grid() == best),
                "layer missing the phase optimum {best:?}"
            );
            for d in &layer.dists {
                assert_eq!(d.grid().iter().product::<usize>(), 8);
            }
        }
        // The chosen plan picks within the layers.
        for (layer, (&chosen, dist)) in result
            .layers
            .iter()
            .zip(result.dynamic.chosen.iter().zip(&result.dynamic.per_phase))
        {
            assert!(chosen < layer.dists.len());
            assert_eq!(format!("{}", layer.dists[chosen]), format!("{dist}"));
        }
    }

    #[test]
    fn pool_signatures_span_phases() {
        // Every phase prices the shared pool, so "stay put" on any other
        // phase's favourite is always a comparable option and the plan can
        // never price worse than the best static candidate of the pool.
        let result =
            align_then_distribute_dynamic(&programs::fft_like(16, 8), 8, &DynamicConfig::default());
        assert_eq!(result.phases.len(), 2);
        let d = &result.dynamic;
        assert!(d.planned_cost <= result.static_planned_cost + 1e-9, "{d}");
    }

    #[test]
    fn planned_cost_equals_simulated_cost() {
        // The exactness contract, spot-checked here on one workload (the
        // full property test over every phase workload lives in
        // tests/dynamic_tests.rs): priced == simulated under the pricing
        // options.
        let mut cfg = DynamicConfig::default();
        cfg.sim = SimOptions::exact();
        let result = align_then_distribute_dynamic(&programs::fft_like(16, 8), 8, &cfg);
        let sim = simulate_dynamic(&result, SimOptions::exact());
        assert!(
            (result.dynamic.planned_cost - sim.total_elements()).abs() < 1e-9,
            "planned {} vs simulated {}",
            result.dynamic.planned_cost,
            sim.total_elements()
        );
    }

    #[test]
    fn unused_boundaries_coalesce() {
        // One trip per phase: the boundary all-to-all cannot pay for
        // itself, the DP keeps one layout, and the unused seam disappears
        // from the plan entirely.
        let result =
            align_then_distribute_dynamic(&programs::fft_like(32, 1), 8, &DynamicConfig::default());
        assert_eq!(result.phases.len(), 1, "unused boundary coalesced");
        assert!(!result.dynamic.redistributes());
        assert_eq!(result.num_atoms(), 2, "both atoms survive the merge");
    }
}
