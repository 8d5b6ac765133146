//! The simulation proper: walk every edge, iteration and element and count
//! where the data has to move.

use crate::machine::TemplateDistribution;
use adg::{Adg, Edge, EdgeId};
use align_ir::{Affine, LivId};
use alignment_core::position::{OffsetAlign, PortAlignment, ProgramAlignment};
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher};
use std::sync::atomic::{AtomicU64, Ordering};

/// Knobs bounding the cost of a simulation run.
///
/// # Sampling and its error bound
///
/// Objects (and edge iteration spaces) whose total count is at most
/// [`SimOptions::exact_below`] are enumerated **exactly** — every element and
/// every iteration point is visited and the reported traffic is not an
/// estimate. Beyond the threshold the enumeration is strided down to the
/// respective cap and every visited point is scaled up by
/// `total / sampled`.
///
/// The sample is a deterministic lattice (every `s`-th index per axis, `s =
/// ⌈(total/budget)^(1/rank)⌉`), not a random draw, so the error is
/// systematic, not probabilistic: ownership under a block-cyclic layout is
/// piecewise constant on runs of `block` consecutive cells, and a strided
/// scan misclassifies at most the elements lying within one stride of a
/// run boundary. Per distributed axis of extent `e` with per-processor run
/// length `b`, that is a fraction of at most `min(1, s/b)` of the axis —
/// i.e. the *relative* error of each traffic count is bounded by
/// `Σ_axis s/b_axis` (and is exactly 0 when `s = 1`). Shift-style traffic
/// that moves an `Θ(1/b)` boundary fraction is therefore resolved reliably
/// only while `s ≲ b`; raise the caps (or [`SimOptions::exact`]) when
/// pricing fine-grained layouts of very large objects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimOptions {
    /// Maximum number of elements enumerated per object per iteration;
    /// objects larger than [`SimOptions::exact_below`] are strided down to
    /// this budget and the counts scaled up.
    pub max_elements_per_object: usize,
    /// Maximum number of iteration points enumerated per edge; longer loops
    /// (above [`SimOptions::exact_below`]) are sampled and scaled up.
    pub max_iterations_per_edge: usize,
    /// Exact-iteration threshold: objects and iteration spaces whose total
    /// count is at most this are always enumerated exactly, even when the
    /// respective cap is smaller. Set to 0 to make the caps unconditional
    /// (pure sampling), or to `usize::MAX` for fully exact runs.
    pub exact_below: usize,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            max_elements_per_object: 4096,
            max_iterations_per_edge: 512,
            exact_below: 4096,
        }
    }
}

impl SimOptions {
    /// Fully exact simulation: no sampling anywhere, whatever the object or
    /// loop sizes. The cost is linear in `Σ_edges |iterations| × |elements|`.
    pub fn exact() -> Self {
        SimOptions {
            max_elements_per_object: usize::MAX,
            max_iterations_per_edge: usize::MAX,
            exact_below: usize::MAX,
        }
    }

    /// Pure sampling with explicit budgets: the exact-iteration threshold is
    /// disabled, so the caps apply unconditionally (used by tests that
    /// exercise the sampling path itself).
    pub fn sampled(max_elements_per_object: usize, max_iterations_per_edge: usize) -> Self {
        SimOptions {
            max_elements_per_object,
            max_iterations_per_edge,
            exact_below: 0,
        }
    }

    /// The element budget for an object of `total` elements: the object
    /// itself when exact, the cap otherwise.
    pub(crate) fn element_budget(&self, total: usize) -> usize {
        if total <= self.exact_below {
            total.max(1)
        } else {
            self.max_elements_per_object
        }
    }

    /// The iteration budget for an edge traversed `total` times.
    pub(crate) fn iteration_budget(&self, total: usize) -> usize {
        if total <= self.exact_below {
            total.max(1)
        } else {
            self.max_iterations_per_edge
        }
    }
}

/// Traffic measured on one edge.
#[derive(Debug, Clone, Copy, Default)]
pub struct EdgeTraffic {
    /// Elements that changed owning processor.
    pub element_moves: f64,
    /// Distinct (sender, receiver) pairs summed over traversals.
    pub messages: f64,
    /// Elements broadcast into a replicated position.
    pub broadcast_elements: f64,
}

impl EdgeTraffic {
    /// Accumulate another edge's traffic into this one.
    pub fn add(&mut self, other: &EdgeTraffic) {
        self.element_moves += other.element_moves;
        self.messages += other.messages;
        self.broadcast_elements += other.broadcast_elements;
    }

    /// Accumulate a run of `times` iteration points that each add
    /// `weigh(field)` of `per_point`, as the point-by-point walk would.
    fn add_run(&mut self, per_point: &EdgeTraffic, weigh: impl Fn(f64) -> f64, times: u64) {
        let add = |acc: f64, moved: f64| repeat_add(acc, weigh(moved), times);
        self.element_moves = add(self.element_moves, per_point.element_moves);
        self.messages = add(self.messages, per_point.messages);
        self.broadcast_elements = add(self.broadcast_elements, per_point.broadcast_elements);
    }

    /// True if the edge needed no communication at all.
    pub fn is_zero(&self) -> bool {
        self.element_moves == 0.0 && self.messages == 0.0 && self.broadcast_elements == 0.0
    }

    /// Total elements carried: point-to-point moves plus broadcasts. The
    /// scalar the phase pipeline's exact plan pricing sums.
    pub fn elements(&self) -> f64 {
        self.element_moves + self.broadcast_elements
    }
}

/// The result of simulating a whole program.
#[derive(Debug, Clone, Default)]
pub struct SimReport {
    /// Total traffic.
    pub total: EdgeTraffic,
    /// Traffic per edge (indexed in step with the ADG's edge ids), skipping
    /// zero-traffic edges.
    pub per_edge: Vec<(EdgeId, EdgeTraffic)>,
    /// Number of processors of the simulated machine.
    pub processors: usize,
}

impl SimReport {
    /// Total elements moved (point-to-point plus broadcast).
    pub fn total_elements(&self) -> f64 {
        self.total.element_moves + self.total.broadcast_elements
    }

    /// Fold another report into this one (summing totals, concatenating the
    /// per-edge breakdown — edge ids then refer to the *contributing* ADGs,
    /// e.g. one per atom when a phase is simulated atom by atom).
    pub fn merge(&mut self, other: SimReport) {
        self.total.add(&other.total);
        self.per_edge.extend(other.per_edge);
    }
}

/// Simulate the residual communication of `alignment` on `machine` — any
/// [`TemplateDistribution`]: the built-in block-cyclic [`crate::Machine`] or
/// an explicit per-axis distribution such as `distrib::ProgramDistribution`.
pub fn simulate<D: TemplateDistribution + ?Sized>(
    adg: &Adg,
    alignment: &ProgramAlignment,
    machine: &D,
    opts: SimOptions,
) -> SimReport {
    let _span = trace::span("commsim.simulate");
    let sampling_before = trace::counter("commsim.sampling_events");
    let mut scratch = TrafficScratch::default();
    let mut traversals = Traversals::new(machine, &mut scratch);
    let mut report = SimReport {
        processors: traversals.nprocs,
        ..SimReport::default()
    };
    for (eid, edge) in adg.edges() {
        let traffic = simulate_edge(adg, edge, alignment, opts, &mut traversals);
        if !traffic.is_zero() {
            report.per_edge.push((eid, traffic));
        }
        report.total.add(&traffic);
    }
    // A run is "exact" when no edge strided its iterations and no object
    // strided its element lattice — judged by what actually happened, not
    // by the options (default options enumerate small programs exactly).
    let kind = if trace::counter("commsim.sampling_events") > sampling_before {
        "commsim.sims.sampled"
    } else {
        "commsim.sims.exact"
    };
    trace::count(kind, 1);
    report
}

fn simulate_edge<D: TemplateDistribution + ?Sized>(
    adg: &Adg,
    edge: &Edge,
    alignment: &ProgramAlignment,
    opts: SimOptions,
    traversals: &mut Traversals<'_, '_, D>,
) -> EdgeTraffic {
    let mut traffic = EdgeTraffic::default();
    let Some(walk) = EdgeWalk::new(adg, edge, alignment, opts) else {
        return traffic;
    };
    if walk.iter_stride > 1 {
        trace::count("commsim.sampling_events", 1);
    }
    let iter_scale = walk.iter_stride as f64;
    let mut per_iter = EdgeTraffic::default();

    walk.for_each_run(|placement, lattice, fresh, times| {
        // A repeated placement moves what the previous run moved.
        if fresh {
            per_iter = traversals
                .counts(placement, lattice, walk.dst_replicated)
                .traffic(lattice.size.scale);
        }
        let weigh = |moved: f64| moved * iter_scale * edge.control_weight;
        traffic.add_run(&per_iter, weigh, times);
    });
    traffic
}

/// Where one sampled iteration point of an edge puts its object: the
/// object's extents and the two position evaluators at that point. Two equal
/// placements traverse the same element lattice over the same template
/// cells, so they move the same elements under every distribution.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct PointPlacement {
    extents: Vec<i64>,
    src: PosEval,
    dst: PosEval,
}

/// The sampled iteration points of one edge as runs of equal placement — the
/// one walk [`simulate`] and [`PlacementCache::new`] share, so both stride
/// the iteration space, skip empty objects and merge repeated placements
/// identically.
///
/// An alignment is mobile only where an offset or stride is affine in a loop
/// induction variable, so where the object sits depends on the LIVs the
/// edge's extents, offsets and strides *mention* and on nothing else. The
/// walk enumerates the outer `mobile_depth` levels of the nest only — one
/// past the innermost level any of those forms mentions — and takes each
/// run's length from the nest's shape: the points of the inner levels under
/// that prefix ([`IterationSpace::for_each_prefix`]), of which the sampled
/// ones are the multiples of `iter_stride` among their flat indices. Nothing
/// is evaluated per iteration point; the point-by-point walk is the case
/// `mobile_depth == depth`, every run one point long.
///
/// [`IterationSpace::for_each_prefix`]: align_ir::IterationSpace::for_each_prefix
struct EdgeWalk<'a> {
    edge: &'a Edge,
    extents: &'a [Affine],
    src: &'a PortAlignment,
    dst: &'a PortAlignment,
    opts: SimOptions,
    /// Every `iter_stride`-th iteration point is visited.
    iter_stride: usize,
    /// Destination replicated while the source is not: every element is a
    /// broadcast.
    dst_replicated: bool,
    /// Loop levels, outermost first, that can change the placement.
    mobile_depth: usize,
}

impl<'a> EdgeWalk<'a> {
    /// `None` when the edge is never traversed.
    fn new(
        adg: &'a Adg,
        edge: &'a Edge,
        alignment: &'a ProgramAlignment,
        opts: SimOptions,
    ) -> Option<EdgeWalk<'a>> {
        let num_points = edge.space.size() as usize;
        if num_points == 0 {
            return None;
        }
        let src = alignment.port(edge.src);
        let dst = alignment.port(edge.dst);
        let extents: &[Affine] = &adg.port(edge.src).extents;
        let follows = |liv: LivId| {
            let offsets = (src.offsets.iter().chain(&dst.offsets)).filter_map(OffsetAlign::fixed);
            (extents
                .iter()
                .chain(&src.strides)
                .chain(&dst.strides)
                .chain(offsets))
            .any(|form| form.coeff(liv) != 0)
        };
        Some(EdgeWalk {
            edge,
            extents,
            src,
            dst,
            opts,
            // Sample iterations if the loop is long.
            iter_stride: num_points
                .div_ceil(opts.iteration_budget(num_points))
                .max(1),
            dst_replicated: dst.offsets.iter().any(OffsetAlign::is_replicated)
                && !src.offsets.iter().any(OffsetAlign::is_replicated),
            mobile_depth: (edge.space.levels().iter())
                .rposition(|level| follows(level.liv))
                .map_or(0, |level| level + 1),
        })
    }

    /// Call `visit(placement, lattice, fresh, times)` once per run of
    /// `times` consecutive sampled iteration points that place the object
    /// identically and can move data; `fresh` is false when the run places
    /// it exactly as the previous run did (the visitor extends what it
    /// derived there). Every point of a run books its traversal's
    /// `commsim.elements_priced` / `commsim.sampling_events` here, in one
    /// call per run, so the counters read as if every point had been
    /// walked; `commsim.iterations_collapsed` counts the points after the
    /// first of each distinct placement.
    ///
    /// Not visited at all: runs whose object is empty, and perfectly
    /// aligned runs (identical position evaluators, no replication
    /// asymmetry) — every element's copies sit on one owner under every
    /// distribution, so they contribute nothing.
    fn for_each_run(&self, mut visit: impl FnMut(&PointPlacement, &SampleLattice, bool, u64)) {
        let stride = self.iter_stride as u64;
        // Flat index of the next run's first point.
        let mut base = 0u64;
        let mut prev: Option<(PointPlacement, SampleLattice)> = None;
        (self.edge.space).for_each_prefix(self.mobile_depth, |point, length| {
            let times = (base + length).div_ceil(stride) - base.div_ceil(stride);
            base += length;
            if times == 0 {
                return;
            }
            let extents: Vec<i64> = (self.extents.iter())
                .map(|a| a.eval_assoc(point).max(0))
                .collect();
            let total = extents.iter().product::<i64>();
            if total <= 0 {
                return;
            }
            let here = PointPlacement {
                extents,
                src: PosEval::new(self.src, point),
                dst: PosEval::new(self.dst, point),
            };
            let aligned = !self.dst_replicated && here.src == here.dst;
            let fresh = prev
                .as_ref()
                .is_none_or(|(placement, _)| *placement != here);
            if fresh {
                let budget = self.opts.element_budget(total as usize);
                let lattice = SampleLattice::new(&here.extents, budget);
                prev = Some((here, lattice));
            }
            let (placement, lattice) = prev.as_ref().expect("set on the first run");
            lattice.size.count(times);
            if aligned {
                return;
            }
            let collapsed = times - u64::from(fresh);
            if collapsed > 0 {
                trace::count("commsim.iterations_collapsed", collapsed);
            }
            visit(placement, lattice, fresh, times);
        });
    }
}

/// The sampling lattice of one element traversal: per-axis strides chosen so
/// the sampled count stays within the budget, plus the bookkeeping the
/// counters need. A traversal is priced from its lattice alone — walked only
/// when an owner map does not compile — so whoever stands for a traversal
/// books [`SampleSize::count`] for it.
#[derive(Debug, Clone)]
struct SampleLattice {
    strides: Vec<i64>,
    size: SampleSize,
}

/// How many of an object's elements a traversal visits, and what each visit
/// stands for.
#[derive(Debug, Clone, Copy, Default)]
struct SampleSize {
    sampled: i64,
    total: i64,
    scale: f64,
}

impl SampleLattice {
    fn new(extents: &[i64], budget: usize) -> SampleLattice {
        let total: i64 = extents.iter().product::<i64>().max(1);
        let shrink =
            ((total as f64) / budget.max(1) as f64).powf(1.0 / extents.len().max(1) as f64);
        let strides: Vec<i64> = extents
            .iter()
            .map(|_| (shrink.ceil() as i64).max(1))
            .collect();
        let sampled: i64 = extents
            .iter()
            .zip(&strides)
            .map(|(&e, &s)| (e + s - 1) / s)
            .product::<i64>()
            .max(1);
        let scale = total as f64 / sampled as f64;
        SampleLattice {
            strides,
            size: SampleSize {
                sampled,
                total,
                scale,
            },
        }
    }
}

impl SampleSize {
    /// Book the counters of `times` traversals of this sample (identical
    /// whether or not an element loop runs).
    fn count(&self, times: u64) {
        trace::count("commsim.elements_priced", self.sampled as u64 * times);
        if self.sampled < self.total {
            trace::count("commsim.sampling_events", times);
        }
    }
}

/// Visit the (1-based) element indices `lattice` samples of an object with
/// the given extents: every axis is strided so the sampled count stays within
/// the lattice's budget, and each visited index represents
/// `lattice.size.scale` real elements.
fn for_each_sampled_index(extents: &[i64], lattice: &SampleLattice, mut visit: impl FnMut(&[i64])) {
    let strides = &lattice.strides;

    let mut index = vec![1i64; extents.len()];
    loop {
        visit(&index);
        // Advance the multi-index (last axis fastest), stepping by the
        // sampling stride.
        let mut carry = true;
        for a in (0..extents.len()).rev() {
            if !carry {
                break;
            }
            index[a] += strides[a];
            if index[a] > extents[a] {
                index[a] = 1;
            } else {
                carry = false;
            }
        }
        if carry || extents.is_empty() {
            break;
        }
    }
}

/// Distinct `(sender, receiver)` pair tracker for the element loops. The
/// straightforward `HashSet<(usize, usize)>` pays a SipHash per *element*
/// (the loops insert on every moved element, not every distinct pair),
/// which dominates the traversal on high-traffic edges. Small machines —
/// the only kind the pipeline prices — use an epoch-marked dense matrix
/// instead: one array read/write per insert, `begin` is O(1), and the
/// distinct-pair count (the only output) is identical. Machines too large
/// for the dense matrix spill to the hash set.
#[derive(Debug)]
struct PairSet {
    /// `nprocs + 1`: receiver `usize::MAX` (a broadcast) maps to the extra
    /// last column.
    stride: usize,
    /// Dense marks (empty when spilling).
    marks: Vec<u32>,
    epoch: u32,
    spill: HashSet<(usize, usize)>,
    len: usize,
}

impl PairSet {
    /// Cells cap for the dense representation (4 MiB of marks).
    const DENSE_LIMIT: usize = 1 << 20;

    fn new(nprocs: usize) -> PairSet {
        let stride = nprocs + 1;
        let cells = stride.saturating_mul(stride);
        let marks = if cells <= Self::DENSE_LIMIT {
            vec![0u32; cells]
        } else {
            Vec::new()
        };
        PairSet {
            stride,
            marks,
            epoch: 0,
            spill: HashSet::new(),
            len: 0,
        }
    }

    /// Start a fresh traversal: the set becomes empty.
    fn begin(&mut self) {
        self.len = 0;
        if self.marks.is_empty() {
            self.spill.clear();
        } else {
            self.epoch = self.epoch.wrapping_add(1);
            if self.epoch == 0 {
                self.marks.fill(0);
                self.epoch = 1;
            }
        }
    }

    #[inline]
    fn insert(&mut self, src: usize, dst: usize) {
        if self.marks.is_empty() {
            if self.spill.insert((src, dst)) {
                self.len += 1;
            }
            return;
        }
        let dst = if dst == usize::MAX {
            self.stride - 1
        } else {
            dst
        };
        let cell = src * self.stride + dst;
        if self.marks[cell] != self.epoch {
            self.marks[cell] = self.epoch;
            self.len += 1;
        }
    }

    fn len(&self) -> usize {
        self.len
    }
}

/// What one traversal moves, in sampled elements: every sample stands for
/// the same `scale` real elements, so a traversal's traffic is three counts
/// until the moment it is reported.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct TraversalCounts {
    /// Samples whose owner changes.
    moved: u64,
    /// Distinct `(sender, receiver)` pairs.
    pairs: u64,
    /// Samples broadcast into a replicated position.
    broadcast: u64,
}

impl TraversalCounts {
    /// The traffic the per-element loop accumulates, one `scale` per sample.
    fn traffic(&self, scale: f64) -> EdgeTraffic {
        EdgeTraffic {
            element_moves: repeat_add(0.0, scale, self.moved),
            messages: self.pairs as f64,
            broadcast_elements: repeat_add(0.0, scale, self.broadcast),
        }
    }
}

/// The traversal evaluator [`simulate`] and [`PlacementCache`] share, over
/// a caller's workspace: the machine's shape is asked for once, both sides
/// of every traversal are compiled into the same buffers.
struct Traversals<'m, 's, D: ?Sized> {
    machine: &'m D,
    nprocs: usize,
    scratch: &'s mut TrafficScratch,
    /// Traversals evaluated element by element so far.
    evaluated: u64,
}

impl<'m, 's, D: TemplateDistribution + ?Sized> Traversals<'m, 's, D> {
    fn new(machine: &'m D, scratch: &'s mut TrafficScratch) -> Self {
        machine.grid_dims_into(&mut scratch.dims);
        Traversals {
            machine,
            nprocs: machine.num_processors(),
            scratch,
            evaluated: 0,
        }
    }

    /// Count what one traversal moves: from the two sides' per-axis owner
    /// classes ([`RestingOwners`]) when both owner maps compile, element by
    /// element over the lattice when one does not. Both stand for the
    /// identical sample; neither books a counter.
    fn counts(
        &mut self,
        placement: &PointPlacement,
        lattice: &SampleLattice,
        dst_replicated: bool,
    ) -> TraversalCounts {
        if let Some(counts) = self.compiled(placement, lattice, dst_replicated) {
            return counts;
        }
        self.evaluated += 1;
        let pairs = &mut self.scratch.pairs;
        if pairs.as_ref().is_none_or(|p| p.stride != self.nprocs + 1) {
            *pairs = Some(PairSet::new(self.nprocs));
        }
        let pairs = pairs.as_mut().expect("built above");
        evaluated_counts(placement, lattice, dst_replicated, self.machine, pairs)
    }

    /// `None` when an owner map does not decompose per lattice axis.
    fn compiled(
        &mut self,
        placement: &PointPlacement,
        lattice: &SampleLattice,
        dst_replicated: bool,
    ) -> Option<TraversalCounts> {
        let PointPlacement { extents, src, dst } = placement;
        let TrafficScratch {
            sides,
            product,
            dims,
            ..
        } = &mut *self.scratch;
        let [from, to] = sides;
        from.fill(src, self.machine, dims, self.nprocs, extents, lattice)?;
        if dst_replicated {
            return Some(from.broadcast());
        }
        to.fill(dst, self.machine, dims, self.nprocs, extents, lattice)?;
        // Both sides share the machine, and `owner_flat` pins replicated and
        // missing axes to coordinate 0 exactly as the compiler does, so
        // "moved" is flat-id inequality: no axis is exempt.
        Some(from.moved_to(to, false, product))
    }
}

/// The per-element owner comparison of one traversal — what
/// [`Traversals::counts`] falls back to for owner maps the table compiler
/// rejects, and the reference the compiled path is tested against.
fn evaluated_counts<D: TemplateDistribution + ?Sized>(
    placement: &PointPlacement,
    lattice: &SampleLattice,
    dst_replicated: bool,
    machine: &D,
    pairs: &mut PairSet,
) -> TraversalCounts {
    let PointPlacement { extents, src, dst } = placement;
    let (mut moved, mut broadcast) = (0, 0);
    let mut src_buf = Vec::new();
    let mut dst_buf = Vec::new();
    pairs.begin();

    for_each_sampled_index(extents, lattice, |index| {
        src.write(index, &mut src_buf);
        if dst_replicated {
            broadcast += 1;
            pairs.insert(machine.owner_flat(&src_buf), usize::MAX);
        } else {
            dst.write(index, &mut dst_buf);
            // Identical template positions have identical owners (same
            // machine on both sides): the element cannot move, so skip both
            // owner evaluations — on a well-aligned program this is the
            // overwhelmingly common case.
            if src_buf == dst_buf {
                return;
            }
            let src_owner = machine.owner_flat(&src_buf);
            let dst_owner = machine.owner_flat(&dst_buf);
            if src_owner != dst_owner {
                moved += 1;
                pairs.insert(src_owner, dst_owner);
            }
        }
    });

    TraversalCounts {
        moved,
        pairs: pairs.len() as u64,
        broadcast,
    }
}

use crate::machine::REPLICATED_COORD;

/// [`PortAlignment::position_of`] with the per-traversal work hoisted out of
/// the element loop: offsets and strides are affine in the *iteration point*
/// and never in the element index, so one traversal evaluates them once and
/// every element reduces to one integer multiply-add per body axis into a
/// reusable flat buffer ([`REPLICATED_COORD`] standing in for `None`).
/// Produces bit-identical coordinates to `position_of` — the owner values,
/// and therefore every traffic count, are unchanged.
///
/// Two equal evaluators produce equal coordinates at every element index —
/// the element loops use this to prove a perfectly aligned traversal moves
/// nothing without enumerating it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct PosEval {
    /// Per template axis: the offset at this iteration point.
    base: Vec<i64>,
    /// Per body axis: (template axis, stride at this iteration point).
    terms: Vec<(usize, i64)>,
}

impl PosEval {
    fn new(align: &PortAlignment, point: &[(LivId, i64)]) -> PosEval {
        PosEval {
            base: align
                .offsets
                .iter()
                .map(|o| o.eval(point).unwrap_or(REPLICATED_COORD))
                .collect(),
            terms: align
                .axis_map
                .iter()
                .enumerate()
                .map(|(b, &t)| (t, align.strides[b].eval_assoc(point)))
                .collect(),
        }
    }

    /// Write the template coordinates of element `index` into `out`.
    fn write(&self, index: &[i64], out: &mut Vec<i64>) {
        out.clear();
        out.extend_from_slice(&self.base);
        for (b, &(t, stride)) in self.terms.iter().enumerate() {
            if out[t] != REPLICATED_COORD {
                out[t] += stride * index[b];
            }
        }
    }
}

/// The distinct traversals of one (ADG, alignment) pair, ready to be priced
/// under any number of candidate distributions.
///
/// Where an object sits depends on the alignment, never on the candidate
/// distribution, so the walk over edges and iteration points — which runs
/// of points share a placement, which are empty or perfectly aligned — is
/// done once here (`EdgeWalk`). What is kept per distinct traversal is the
/// traversal itself, not what it visits: the object's extents, the two
/// position evaluators, the sampling lattice and the number of iteration
/// points it stands for — a few dozen bytes, whatever the object's size.
/// Equal traversals are stored once: the build interns them by content (a
/// hash, not a scan — a mobile program has many runs), and each edge keeps
/// only its runs as `(traversal, repeat)` pairs. [`PlacementCache::price`]
/// then gets each distinct traversal's moved, distinct-pair and broadcast
/// counts once per candidate, the way [`simulate`] does, from the per-axis
/// owner classes of its two sides, touching no element; a traversal whose owner
/// map does not compile (a skewed alignment, a grid axis wider than
/// [`RestingOwners`] tabulates) is evaluated element by element over its
/// lattice on demand, counted by `commsim.cache.evaluated_traversals`.
///
/// Ranking needs less: [`PlacementCache::total_elements_with`] counts only
/// the samples that move. Where a traversal is *separable* — on every grid
/// axis each side is fixed or driven by one body axis, the same one on
/// both sides — that is `sampled − Π stays`, one stay count per grid axis
/// the two sides disagree on, and each stay count depends on the traversal
/// and on that one axis's owner map only
/// ([`TemplateDistribution::axis_key`]), so it is tabulated once per
/// (axis, owner map) in the caller's [`TrafficScratch`] and read back by
/// every candidate sharing the axis. The rest take the class product.
///
/// The cache mirrors [`simulate`]'s sampling exactly (same iteration
/// strides, same element lattice, same scales, same order of additions), so
/// for any distribution `d`: `cache.price(&d)` reports the **identical**
/// traffic to `simulate(adg, alignment, &d, opts)`, bit for bit — locked in
/// by the `cache_matches_simulate` test and, on generated programs, by
/// `crates/bench/tests/placement_differential.rs`. Pricing books no
/// sampling counter: the build booked every point's.
#[derive(Debug, Clone)]
pub struct PlacementCache {
    /// Tags the stay tables a [`TrafficScratch`] holds for this cache.
    id: u64,
    /// The distinct traversals, in order of first use.
    traversals: Vec<CachedTraversal>,
    /// The edges with at least one traversal that can move data.
    edges: Vec<CachedEdge>,
    /// The stay factors of every separable traversal, traversal after
    /// traversal ([`Stay::factors`]).
    factors: Vec<AxisFactor>,
    /// Per template axis: how many factors lie on it — the rows of each of
    /// its stay tables ([`AxisTables`]).
    rows: Vec<usize>,
}

/// Where the next [`PlacementCache`] takes its id from; 0 tags no cache.
static NEXT_CACHE_ID: AtomicU64 = AtomicU64::new(1);

#[derive(Debug, Clone)]
struct CachedEdge {
    id: EdgeId,
    /// Iteration-sampling scale × the edge's control weight.
    weight: f64,
    /// `(traversal, repeat)` of each run of consecutive sampled iteration
    /// points that share one traversal, in iteration order (`repeat` at
    /// least 1).
    runs: Vec<(usize, u64)>,
}

/// One distinct traversal: where the object sits, how its elements are
/// sampled, and whether the destination replicates it (every element is
/// then a broadcast).
#[derive(Debug, Clone)]
struct CachedTraversal {
    placement: PointPlacement,
    lattice: SampleLattice,
    dst_replicated: bool,
    /// How the samples that stay put factor per grid axis; `None` when the
    /// traversal is not separable.
    stay: Option<Stay>,
}

/// The samples of a separable traversal that stay put: `fixed` times the
/// stay count of each of its factors.
#[derive(Debug, Clone, Copy)]
struct Stay {
    /// Sampled positions of the body axes no factor reads: the product of
    /// their counts (such a body axis drives no grid axis, or one both
    /// sides place identically).
    fixed: u64,
    /// `PlacementCache::factors[factors]`.
    factors: (usize, usize),
}

/// One grid axis on which the two sides of a separable traversal can put a
/// sample on different owner coordinates.
///
/// A traversal is separable when, on every grid axis, each side is either
/// fixed (a constant cell, or pinned: replicated or beyond the alignment's
/// template) or driven by one body axis, and a body axis that drives a grid
/// axis drives that same one on both sides (no transpose, no skew). Then a
/// sample stays put exactly when it stays put on every grid axis, and each
/// of those events reads one body axis only: the samples that stay are the
/// product of one count per grid axis and of the untouched body axes'
/// counts. Sampled position `j` of the driving body axis sits at template
/// cell `c + s·(1 + j·step)` on a side `(c, s)`; a fixed side has `s = 0`,
/// and a factor no body axis drives has one position.
#[derive(Debug, Clone, Copy)]
struct AxisFactor {
    /// The grid axis.
    axis: usize,
    /// Row of the factor in each of its axis's stay tables.
    row: usize,
    src: (i64, i64),
    dst: (i64, i64),
    /// Lattice stride of the driving body axis.
    step: i64,
    /// Sampled positions of the driving body axis.
    count: u64,
}

impl AxisFactor {
    /// Positions whose two cells have the same owner coordinate under
    /// `owner`.
    fn stay(&self, owner: impl Fn(i64) -> usize) -> u64 {
        let cell = |(c, s): (i64, i64), at: i64| c + s * at;
        (0..self.count as i64)
            .map(|j| 1 + j * self.step)
            .filter(|&at| owner(cell(self.src, at)) == owner(cell(self.dst, at)))
            .count() as u64
    }
}

/// One side of a traversal on grid axis `t`: `Some((c, s, by))`, the
/// sample at index `i` of body axis `by` sitting at cell `c + s·i` (`s = 0`
/// and no body axis when the side is fixed). `None` when two body axes
/// drive the axis (a skew).
fn axis_side(eval: &PosEval, t: usize) -> Option<(i64, i64, Option<usize>)> {
    let c = eval.base.get(t).copied().unwrap_or(REPLICATED_COORD);
    if c == REPLICATED_COORD {
        // Pinned: the owner is coordinate 0's.
        return Some((0, 0, None));
    }
    let mut by = None;
    for (b, &(tb, stride)) in eval.terms.iter().enumerate() {
        if tb == t && stride != 0 && by.replace((b, stride)).is_some() {
            return None;
        }
    }
    Some(by.map_or((c, 0, None), |(b, stride)| (c, stride, Some(b))))
}

/// Append the stay factors of one traversal to `factors` and return how
/// its stays factor, or `None` (leaving `factors` as it was) when it is not
/// separable.
fn separate(
    placement: &PointPlacement,
    lattice: &SampleLattice,
    factors: &mut Vec<AxisFactor>,
) -> Option<Stay> {
    let PointPlacement { extents, src, dst } = placement;
    let body = extents.len();
    let count = |b: usize| {
        let (e, s) = (extents[b], lattice.strides[b]);
        (((e + s - 1) / s) as u64).max(1)
    };
    let start = factors.len();
    // Bit `b`: body axis `b` is read by a factor.
    let read = (|| {
        if body > 64 || src.terms.len() != body || dst.terms.len() != body {
            return None;
        }
        // Bit `b`: body axis `b` drives a grid axis.
        let (mut driving, mut read) = (0u64, 0u64);
        for t in 0..src.base.len().max(dst.base.len()) {
            let (sc, ss, sb) = axis_side(src, t)?;
            let (dc, ds, db) = axis_side(dst, t)?;
            let by = match (sb, db) {
                (Some(a), Some(b)) if a != b => return None,
                (a, b) => a.or(b),
            };
            if let Some(b) = by {
                if driving >> b & 1 == 1 {
                    // It drives another grid axis too (a transpose).
                    return None;
                }
                driving |= 1 << b;
            }
            if (sc, ss) == (dc, ds) {
                // Both sides put every position on the same cell.
                continue;
            }
            read |= by.map_or(0, |b| 1 << b);
            factors.push(AxisFactor {
                axis: t,
                row: 0,
                src: (sc, ss),
                dst: (dc, ds),
                step: by.map_or(1, |b| lattice.strides[b]),
                count: by.map_or(1, count),
            });
        }
        Some(read)
    })();
    let Some(read) = read else {
        factors.truncate(start);
        return None;
    };
    Some(Stay {
        fixed: (0..body)
            .filter(|&b| read >> b & 1 == 0)
            .map(count)
            .product(),
        factors: (start, factors.len()),
    })
}

/// Finds a cache's stored traversals by content while it is built: a
/// traversal's hash leads to the last one stored with that hash, and each
/// stored traversal to the one stored before it with the same hash.
#[derive(Default)]
struct TraversalIndex {
    last: HashMap<u64, usize>,
    previous: Vec<Option<usize>>,
}

impl TraversalIndex {
    /// The index of the traversal in `stored`, appended if it is new.
    fn intern(
        &mut self,
        stored: &mut Vec<CachedTraversal>,
        placement: &PointPlacement,
        lattice: &SampleLattice,
        dst_replicated: bool,
    ) -> usize {
        let hash =
            BuildHasherDefault::<DefaultHasher>::default().hash_one((placement, dst_replicated));
        let mut at = self.last.get(&hash).copied();
        while let Some(i) = at {
            let t = &stored[i];
            if t.dst_replicated == dst_replicated && t.placement == *placement {
                return i;
            }
            at = self.previous[i];
        }
        stored.push(CachedTraversal {
            placement: placement.clone(),
            lattice: lattice.clone(),
            dst_replicated,
            stay: None,
        });
        let i = stored.len() - 1;
        self.previous.push(self.last.insert(hash, i));
        i
    }
}

/// `acc` after adding `s` to it `n` times, bit for bit, in time
/// proportional to the binades the sum crosses and not to `n`.
///
/// Inside one binade every addition rounds to the same grid (the binade's
/// ulp), so it adds `s` rounded to that grid: the same whole number of ulps
/// each time, once a first step has been taken there — a tie rounds to an
/// even mantissa, and from an even mantissa every later tie rounds the same
/// way. So one real addition settles the mantissa, a second measures the
/// step, and the rest of the binade is one integer multiply-add on the
/// mantissa, stopping short of the binade's top; the crossing itself is a
/// real addition again, because it rounds on the next binade's grid. A step
/// that leaves the sum unchanged (`s` at most half an ulp, or zero) leaves
/// it unchanged for good.
///
/// Both arguments are traffic, which is never negative.
fn repeat_add(mut acc: f64, s: f64, mut n: u64) -> f64 {
    const MANTISSA: u64 = (1 << 52) - 1;
    assert!(acc >= 0.0 && s >= 0.0, "traffic is never negative");
    // The previous real step stayed inside its binade.
    let mut settled = false;
    while n > 0 {
        let mut next = acc + s;
        n -= 1;
        if next == acc {
            return next;
        }
        let (from, to) = (acc.to_bits(), next.to_bits());
        let same_binade = from >> 52 == to >> 52;
        if same_binade && settled {
            let step = to - from;
            let steps = n.min(((to | MANTISSA) - to) / step);
            next = f64::from_bits(to + steps * step);
            n -= steps;
        }
        settled = same_binade;
        acc = next;
    }
    acc
}

impl PlacementCache {
    /// Walk every edge of the aligned program once and keep its distinct
    /// traversals.
    pub fn new(adg: &Adg, alignment: &ProgramAlignment, opts: SimOptions) -> Self {
        let _span = trace::span("commsim.cache.build");
        trace::count("commsim.cache.builds", 1);
        let mut traversals = Vec::new();
        let mut index = TraversalIndex::default();
        let mut edges = Vec::new();
        for (eid, edge) in adg.edges() {
            let Some(walk) = EdgeWalk::new(adg, edge, alignment, opts) else {
                continue;
            };
            let mut runs: Vec<(usize, u64)> = Vec::new();
            walk.for_each_run(|placement, lattice, fresh, times| {
                if fresh {
                    let t = index.intern(&mut traversals, placement, lattice, walk.dst_replicated);
                    runs.push((t, 0));
                }
                let run = runs.last_mut();
                run.expect("a repeated run follows the run it repeats").1 += times;
            });
            if !runs.is_empty() {
                edges.push(CachedEdge {
                    id: eid,
                    weight: walk.iter_stride as f64 * edge.control_weight,
                    runs,
                });
            }
        }
        Self::from_parts(traversals, edges)
    }

    /// A cache of the given traversals and edges: each traversal's stays
    /// factored, the factors numbered per grid axis, a fresh id.
    fn from_parts(mut traversals: Vec<CachedTraversal>, edges: Vec<CachedEdge>) -> Self {
        // A replicated destination broadcasts every sample: nothing to
        // factor.
        let mut factors = Vec::new();
        for t in traversals.iter_mut().filter(|t| !t.dst_replicated) {
            t.stay = separate(&t.placement, &t.lattice, &mut factors);
        }
        let mut rows = Vec::new();
        for factor in &mut factors {
            if rows.len() <= factor.axis {
                rows.resize(factor.axis + 1, 0);
            }
            factor.row = rows[factor.axis];
            rows[factor.axis] += 1;
        }
        PlacementCache {
            id: NEXT_CACHE_ID.fetch_add(1, Ordering::Relaxed),
            traversals,
            edges,
            factors,
            rows,
        }
    }

    /// `(iteration points, runs, distinct traversals, sampled elements
    /// stood for)`: what the cache stands for against what it holds
    /// (experiment E27's columns). The last is Σ sampled elements of the
    /// distinct traversals — what a cache that stored coordinates would
    /// hold one entry each for; this one holds none.
    #[doc(hidden)]
    pub fn footprint(&self) -> (usize, usize, usize, usize) {
        let runs = self.edges.iter().flat_map(|edge| &edge.runs);
        (
            runs.clone().map(|&(_, repeat)| repeat as usize).sum(),
            runs.count(),
            self.traversals.len(),
            (self.traversals.iter())
                .map(|t| t.lattice.size.sampled as usize)
                .sum(),
        )
    }

    /// The moved and broadcast samples of every distinct traversal under
    /// `machine`, once each, into `scratch`'s `moved` buffer: from the
    /// stay tables where the traversal is separable and `machine` keys its
    /// axes, from the class product otherwise.
    fn count_moved<D: TemplateDistribution + ?Sized>(
        &self,
        machine: &D,
        scratch: &mut TrafficScratch,
    ) {
        trace::count("commsim.cache.prices", 1);
        let mut moved = std::mem::take(&mut scratch.moved);
        let mut tables = std::mem::take(&mut scratch.tables);
        moved.clear();
        let mut traversals = Traversals::new(machine, scratch);
        let tabulated = tables.select(self, machine, &traversals.scratch.dims);
        moved.extend(self.traversals.iter().map(|t| {
            let sampled = t.lattice.size.sampled as u64;
            match t.stay {
                // Every sample is broadcast.
                _ if t.dst_replicated => sampled,
                Some(stay) if tabulated => sampled - tables.stay(&stay, &self.factors),
                _ => {
                    let counts = traversals.counts(&t.placement, &t.lattice, false);
                    counts.moved + counts.broadcast
                }
            }
        }));
        if traversals.evaluated > 0 {
            trace::count("commsim.cache.evaluated_traversals", traversals.evaluated);
        }
        scratch.moved = moved;
        scratch.tables = tables;
    }

    /// Count every distinct traversal under `machine`, once each, into
    /// `scratch`'s count buffer.
    fn count_traversals<D: TemplateDistribution + ?Sized>(
        &self,
        machine: &D,
        scratch: &mut TrafficScratch,
    ) {
        trace::count("commsim.cache.prices", 1);
        let mut counts = std::mem::take(&mut scratch.counts);
        counts.clear();
        let mut traversals = Traversals::new(machine, scratch);
        counts.extend(
            (self.traversals.iter())
                .map(|t| traversals.counts(&t.placement, &t.lattice, t.dst_replicated)),
        );
        if traversals.evaluated > 0 {
            trace::count("commsim.cache.evaluated_traversals", traversals.evaluated);
        }
        scratch.counts = counts;
    }

    /// Price one candidate distribution: identical traffic to running
    /// [`simulate`] with the same options the cache was built with.
    pub fn price<D: TemplateDistribution + ?Sized>(&self, machine: &D) -> SimReport {
        self.price_with(machine, &mut TrafficScratch::default())
    }

    /// [`PlacementCache::price`] in a caller's workspace, reused across
    /// calls.
    pub fn price_with<D: TemplateDistribution + ?Sized>(
        &self,
        machine: &D,
        scratch: &mut TrafficScratch,
    ) -> SimReport {
        let _span = trace::span("commsim.cache.price");
        self.count_traversals(machine, scratch);
        let mut report = SimReport {
            processors: machine.num_processors(),
            ..SimReport::default()
        };
        for edge in &self.edges {
            let mut traffic = EdgeTraffic::default();
            for &(t, repeat) in &edge.runs {
                let scale = self.traversals[t].lattice.size.scale;
                let per_point = scratch.counts[t].traffic(scale);
                // The walk accumulates per iteration point, so a run adds
                // its traversal's traffic once per point it stands for.
                traffic.add_run(&per_point, |moved| moved * edge.weight, repeat);
            }
            if !traffic.is_zero() {
                report.per_edge.push((edge.id, traffic));
            }
            report.total.add(&traffic);
        }
        report
    }

    /// Total elements moved under one candidate — what ranking needs: no
    /// per-edge breakdown, and one sum per edge over the samples of all its
    /// iteration points, weighted once.
    pub fn total_elements<D: TemplateDistribution + ?Sized>(&self, machine: &D) -> f64 {
        self.total_elements_with(machine, &mut TrafficScratch::default())
    }

    /// [`PlacementCache::total_elements`] in a caller's workspace, reused
    /// across calls: a search that hands every candidate the same one
    /// allocates nothing per candidate, and each candidate reads the
    /// per-axis stay tables earlier candidates of this cache filled there.
    pub fn total_elements_with<D: TemplateDistribution + ?Sized>(
        &self,
        machine: &D,
        scratch: &mut TrafficScratch,
    ) -> f64 {
        let _span = trace::span("commsim.cache.price");
        self.count_moved(machine, scratch);
        let mut total = 0.0;
        for edge in &self.edges {
            // The per-iteration walk adds `scale` once per moved sample of
            // every point, in order; within a run those are consecutive
            // additions of one value.
            let mut edge_elems = 0.0;
            for &(t, repeat) in &edge.runs {
                edge_elems = repeat_add(
                    edge_elems,
                    self.traversals[t].lattice.size.scale,
                    scratch.moved[t] * repeat,
                );
            }
            total += edge_elems * edge.weight;
        }
        total
    }
}

/// One side of a resting move — an object's alignment under one
/// distribution — compiled against the object's element-sampling lattice.
///
/// The compilation exploits that both maps in the composition
/// `owner_flat ∘ PosEval` are per-axis: a grid axis's template coordinate
/// is affine in at most one body-axis index (replicated and missing axes
/// pin to cell 0), and `owner` is the mixed-radix fold of the per-axis
/// owner coordinates ([`TemplateDistribution::owner_coord`]'s composition
/// contract). The flat owner id of the element at lattice position `pos` is
/// therefore `base + Σ_b coords_b[pos[b]] · weight_b`: each body axis holds
/// the owner coordinate its grid axis takes at each of its sampled
/// positions, and how many positions take each coordinate. That is all a
/// move's traffic depends on, so a side is compiled once and combined with
/// any number of opposite sides ([`RestingOwners::traffic`]) — the ids are
/// exactly the evaluated `owner_flat` values, and traffic, message pairs
/// and sampling counters are bit-identical to the per-element loop.
#[derive(Debug, Clone, Default)]
pub struct RestingOwners {
    size: SampleSize,
    nprocs: usize,
    /// The processor grid: the radix of the flat owner id.
    dims: Vec<usize>,
    /// Axes of the template the alignment places the object on (at most 64).
    template_rank: usize,
    /// Bit `t`: the alignment replicates the object along template axis `t`.
    replicated: u64,
    /// Weighted fold of the grid axes no body axis drives.
    base: usize,
    /// Per body axis of the object.
    axes: Vec<AxisOwners>,
    /// Every axis's table, one after the other ([`AxisOwners::table`]).
    tables: Vec<u32>,
}

/// What one body axis contributes to a side's flat owner ids.
#[derive(Debug, Clone)]
struct AxisOwners {
    /// Sampled positions along the axis (at least 1).
    count: usize,
    /// Mixed-radix weight of the grid axis this body axis drives.
    weight: usize,
    /// Extent of that grid axis; 0 when the body axis drives none (the
    /// owner does not depend on it).
    grid: usize,
    /// Where the axis's table starts in [`RestingOwners::tables`]: `grid`
    /// entries counting the sampled positions at each owner coordinate,
    /// then the owner coordinate of each of the `count` sampled positions.
    table: usize,
}

/// Reusable workspace of [`RestingOwners::traffic`] and of pricing a
/// [`PlacementCache`]; one per caller, handed to every call, so pricing a
/// layer of moves or a space of candidates allocates nothing per move or
/// candidate.
#[derive(Debug, Default)]
pub struct TrafficScratch {
    /// The two sides of a traversal priced in place (`Traversals`).
    sides: [RestingOwners; 2],
    product: ClassProduct,
    /// The grid of the machine being priced.
    dims: Vec<usize>,
    /// Distinct-pair marks of the traversals evaluated element by element,
    /// built by the first one.
    pairs: Option<PairSet>,
    /// Each distinct traversal's counts in one pricing of a cache.
    counts: Vec<TraversalCounts>,
    /// Each distinct traversal's moved and broadcast samples in one
    /// [`PlacementCache::total_elements_with`].
    moved: Vec<u64>,
    /// The stay tables of the cache last ranked in this workspace.
    tables: AxisTables,
}

/// The stay counts of one [`PlacementCache`]'s factors, tabulated per
/// (grid axis, owner map) as candidates ask for them: a column holds one
/// count per factor on the axis (`PlacementCache::rows`), and every
/// candidate whose axis has that owner map reads it.
#[derive(Debug, Default)]
struct AxisTables {
    /// The cache the columns belong to (`PlacementCache::id`; 0: none).
    cache: u64,
    /// `(grid axis, owner map, first entry)` of every column.
    keys: Vec<(usize, (usize, i64), usize)>,
    /// The columns, one after the other.
    stays: Vec<u64>,
    /// Per grid axis of the candidate being priced: where its column
    /// starts, or `None` when every position stays on it (one processor
    /// along the axis, or an axis the candidate does not distribute).
    columns: Vec<Option<usize>>,
}

impl AxisTables {
    /// Point `columns` at `machine`'s owner maps, tabulating those not
    /// seen yet. False when an axis has no [`TemplateDistribution::axis_key`].
    fn select<D: TemplateDistribution + ?Sized>(
        &mut self,
        cache: &PlacementCache,
        machine: &D,
        dims: &[usize],
    ) -> bool {
        if self.cache != cache.id {
            self.cache = cache.id;
            self.keys.clear();
            self.stays.clear();
        }
        self.columns.clear();
        for (t, &rows) in cache.rows.iter().enumerate() {
            if rows == 0 || dims.get(t).is_none_or(|&g| g == 1) {
                self.columns.push(None);
                continue;
            }
            let Some(key) = machine.axis_key(t) else {
                return false;
            };
            let found = self
                .keys
                .iter()
                .rev()
                .find(|&&(a, k, _)| a == t && k == key);
            let start = match found {
                Some(&(_, _, start)) => start,
                None => {
                    let start = self.stays.len();
                    self.keys.push((t, key, start));
                    let owner = |c| machine.owner_coord(t, c);
                    let on_axis = cache.factors.iter().filter(|f| f.axis == t);
                    self.stays.extend(on_axis.map(|f| f.stay(owner)));
                    trace::count("commsim.cache.axis_tables", rows as u64);
                    start
                }
            };
            self.columns.push(Some(start));
        }
        true
    }

    /// The samples of a traversal that stay put under the selected
    /// columns.
    fn stay(&self, stay: &Stay, factors: &[AxisFactor]) -> u64 {
        let (from, to) = stay.factors;
        (factors[from..to].iter()).fold(stay.fixed, |n, f| {
            n * self.columns[f.axis].map_or(f.count, |at| self.stays[at + f.row])
        })
    }
}

/// Workspace of the class product ([`RestingOwners::moved_to`]).
#[derive(Debug, Default)]
struct ClassProduct {
    /// Joint histogram of one body axis, zero between uses — or, when the
    /// histogram would have more cells than the axis has positions, the
    /// positions' runs of equal cells, sorted.
    joint: Vec<u64>,
    /// `(source contribution, destination contribution, positions)` of every
    /// class of every body axis, axis after axis.
    classes: Vec<(u32, u32, u32)>,
    /// `classes[bounds[b]..bounds[b + 1]]` are body axis `b`'s.
    bounds: Vec<usize>,
    /// The class of each body axis in the product being visited.
    cursor: Vec<usize>,
}

impl RestingOwners {
    /// Widest grid axis compiled: a `g × g` cell index of two sides' owner
    /// coordinates along one body axis stays far inside 32 bits. Wider axes
    /// take the per-element evaluation.
    const MAX_AXIS_OWNERS: usize = 1 << 10;

    /// Compile the side `alignment` ∘ `distribution` of moving an object
    /// with the given `extents`, sampled as `opts` says, with mobile offsets
    /// evaluated at `point` (see [`redistribution_traffic`]). `None` when
    /// the owner map does not decompose per lattice axis — a skewed
    /// alignment such as `i + j` on one template axis, whose owner
    /// coordinate is not a function of a single body index; such a move is
    /// priced by [`redistribution_traffic`]'s per-element route.
    pub fn compile<D: TemplateDistribution + ?Sized>(
        extents: &[i64],
        alignment: &PortAlignment,
        distribution: &D,
        point: &[(LivId, i64)],
        opts: SimOptions,
    ) -> Option<RestingOwners> {
        let total: usize = extents.iter().product::<i64>().max(1) as usize;
        Self::redist_side(
            &PosEval::new(alignment, point),
            distribution,
            extents,
            &SampleLattice::new(extents, opts.element_budget(total)),
        )
    }

    /// A freshly allocated side ([`RestingOwners::fill`]), counted.
    fn redist_side<D: TemplateDistribution + ?Sized>(
        eval: &PosEval,
        dist: &D,
        extents: &[i64],
        lattice: &SampleLattice,
    ) -> Option<RestingOwners> {
        let mut side = RestingOwners::default();
        let (dims, nprocs) = (dist.grid_dims(), dist.num_processors());
        side.fill(eval, dist, &dims, nprocs, extents, lattice)?;
        trace::count("commsim.redist.sides_compiled", 1);
        Some(side)
    }

    /// Compile a side into `self`, reusing its buffers; `dims` and `nprocs`
    /// are `dist`'s grid and processor count. On `None` the contents are
    /// unspecified.
    fn fill<D: TemplateDistribution + ?Sized>(
        &mut self,
        eval: &PosEval,
        dist: &D,
        dims: &[usize],
        nprocs: usize,
        extents: &[i64],
        lattice: &SampleLattice,
    ) -> Option<()> {
        // Owner ids and per-axis position counts are kept in 32 bits, the
        // replication mask in 64.
        if dims.iter().any(|&g| g == 0 || g > Self::MAX_AXIS_OWNERS)
            || eval.base.len() > 64
            || u32::try_from(nprocs).is_err()
            || extents.iter().any(|&e| u32::try_from(e).is_err())
        {
            return None;
        }
        self.size = lattice.size;
        self.nprocs = nprocs;
        self.dims.clear();
        self.dims.extend_from_slice(dims);
        self.template_rank = eval.base.len();
        self.replicated = (eval.base.iter().enumerate())
            .filter(|(_, &c)| c == REPLICATED_COORD)
            .fold(0u64, |mask, (t, _)| mask | 1 << t);
        self.base = 0;
        self.tables.clear();
        self.axes.clear();
        self.axes.extend(
            (extents.iter().zip(&lattice.strides)).map(|(&e, &s)| AxisOwners {
                // An empty axis is still visited once, at its origin
                // ([`for_each_sampled_index`]).
                count: (((e + s - 1) / s) as usize).max(1),
                weight: 0,
                grid: 0,
                table: 0,
            }),
        );
        // Mixed-radix weights, axis 0 most significant — `owner_flat`'s.
        let mut weight = 1usize;
        for (t, &g) in dims.iter().enumerate().rev() {
            let w = weight;
            weight *= g;
            if g == 1 {
                // One owner coordinate, 0: nothing to add or to tabulate.
                continue;
            }
            if self.pinned(t) {
                self.base += dist.owner_coord(t, 0) * w;
                continue;
            }
            let c0 = eval.base[t];
            let mut driver: Option<(usize, i64)> = None;
            for (b, &(tb, stride)) in eval.terms.iter().enumerate() {
                if tb == t && stride != 0 && driver.replace((b, stride)).is_some() {
                    // Two body axes on one grid axis (a skewed alignment).
                    return None;
                }
            }
            let Some((b, stride)) = driver else {
                self.base += dist.owner_coord(t, c0) * w;
                continue;
            };
            let axis = &mut self.axes[b];
            let step = lattice.strides[b];
            axis.weight = w;
            axis.grid = g;
            axis.table = self.tables.len();
            self.tables.resize(axis.table + g + axis.count, 0);
            let table = &mut self.tables[axis.table..];
            for j in 0..axis.count {
                let oc = dist.owner_coord(t, c0 + stride * (1 + j as i64 * step));
                // An owner coordinate outside the grid breaks the trait's
                // contract; leave such a map to the evaluation.
                if oc >= g {
                    return None;
                }
                table[oc] += 1;
                table[g + j] = oc as u32;
            }
        }
        Some(())
    }

    /// Grid axis `t` is replicated or missing in the alignment: a copy sits
    /// at every coordinate, and the flat id pins to coordinate 0's owner.
    fn pinned(&self, t: usize) -> bool {
        t >= self.template_rank || self.replicated >> t & 1 == 1
    }

    /// Sampled positions of `axis` per owner coordinate.
    fn hist(&self, axis: &AxisOwners) -> &[u32] {
        &self.tables[axis.table..axis.table + axis.grid]
    }

    /// Owner coordinate of each sampled position of `axis`.
    fn coords(&self, axis: &AxisOwners) -> &[u32] {
        &self.tables[axis.table + axis.grid..axis.table + axis.grid + axis.count]
    }

    /// `(weighted owner coordinate, positions)` of each coordinate `axis`
    /// takes. (Flat owner ids fit 32 bits: [`RestingOwners::fill`] checks.)
    fn classes<'a>(&'a self, axis: &'a AxisOwners) -> impl Iterator<Item = (u32, u32)> + 'a {
        (self.hist(axis).iter().enumerate())
            .filter(|(_, &n)| n > 0)
            .map(|(oc, &n)| ((oc * axis.weight) as u32, n))
    }

    /// The processor grid the side was compiled on.
    pub fn grid_dims(&self) -> &[usize] {
        &self.dims
    }

    /// Exact (sampled) traffic of moving the object from `src` to `dst` —
    /// two sides of one object under one `SimOptions` over the same
    /// processors. Bit-identical, sampling counters included, to the
    /// per-element owner comparison [`redistribution_traffic`] documents,
    /// without visiting the elements: the sampled positions of each body
    /// axis fall into classes by their `(source, destination)` owner
    /// coordinates, every element of one product of per-axis classes has
    /// the same `(sender, receiver)` pair — and distinct products have
    /// distinct pairs, the flat id being injective in the coordinates — so
    /// the moved count and the message count are sums over the products.
    pub fn traffic(
        src: &RestingOwners,
        dst: &RestingOwners,
        scratch: &mut TrafficScratch,
    ) -> EdgeTraffic {
        assert_eq!(
            src.nprocs, dst.nprocs,
            "redistribution keeps the machine; only the mapping changes"
        );
        debug_assert!(
            src.size.total == dst.size.total
                && (src.axes.iter().map(|a| a.count)).eq(dst.axes.iter().map(|a| a.count)),
            "two sides of one move share the object and its sampling"
        );
        src.size.count(1);
        let counts = if src.spreads_into(dst) {
            src.broadcast()
        } else {
            src.moved_to(dst, true, &mut scratch.product)
        };
        counts.traffic(src.size.scale)
    }

    /// Every sampled element broadcast from its source owner.
    fn broadcast(&self) -> TraversalCounts {
        TraversalCounts {
            pairs: (self.axes.iter())
                .map(|a| self.classes(a).count().max(1) as u64)
                .product(),
            broadcast: self.axes.iter().map(|a| a.count as u64).product(),
            ..TraversalCounts::default()
        }
    }

    /// The point-to-point move of the object from `self` to `dst`, counted.
    /// With `copies_hold`, an element stays put when *some* source copy sits
    /// on its destination owner (a replicated source axis holds one at every
    /// coordinate); without, only when the two flat owner ids are equal.
    fn moved_to(
        &self,
        dst: &RestingOwners,
        copies_hold: bool,
        product: &mut ClassProduct,
    ) -> TraversalCounts {
        let ClassProduct {
            joint,
            classes,
            bounds,
            cursor,
        } = product;
        classes.clear();
        bounds.clear();
        bounds.push(0);
        for (s, d) in self.axes.iter().zip(&dst.axes) {
            match (s.grid, d.grid) {
                (0, 0) => classes.push((0, 0, s.count as u32)),
                (_, 0) => classes.extend(self.classes(s).map(|(oc, n)| (oc, 0, n))),
                (0, _) => classes.extend(dst.classes(d).map(|(oc, n)| (0, oc, n))),
                (gs, gd) => {
                    let cell = |a: u32, b: u32| a as usize * gd + b as usize;
                    let (ws, wd) = (s.weight as u32, d.weight as u32);
                    let positions = || self.coords(s).iter().zip(dst.coords(d));
                    if gs * gd > s.count {
                        // More coordinate pairs than positions: class the
                        // positions by sorting their cells, in the same
                        // buffer, rather than tabulating every pair. Runs of
                        // equal neighbours (a block layout's) are merged
                        // first, as `cell << 32 | positions`, into a buffer
                        // sized to hold exactly the runs.
                        let cells = || positions().map(|(&a, &b)| cell(a, b) as u64);
                        let runs = 1 + cells().zip(cells().skip(1)).filter(|(x, y)| x != y).count();
                        joint.clear();
                        joint.reserve(runs);
                        for c in cells() {
                            match joint.last_mut() {
                                Some(run) if *run >> 32 == c => *run += 1,
                                _ => joint.push(c << 32 | 1),
                            }
                        }
                        joint.sort_unstable();
                        for class in joint.chunk_by(|x, y| x >> 32 == y >> 32) {
                            let c = (class[0] >> 32) as usize;
                            let n: u64 = class.iter().map(|run| run & u64::from(u32::MAX)).sum();
                            classes.push(((c / gd) as u32 * ws, (c % gd) as u32 * wd, n as u32));
                        }
                        joint.clear();
                    } else {
                        if joint.len() < gs * gd {
                            joint.resize(gs * gd, 0);
                        }
                        for (&a, &b) in positions() {
                            joint[cell(a, b)] += 1;
                        }
                        // Second pass: collect each class at its first
                        // position and leave the table zero for the next
                        // axis.
                        for (&a, &b) in positions() {
                            let n = std::mem::take(&mut joint[cell(a, b)]);
                            if n > 0 {
                                classes.push((a * ws, b * wd, n as u32));
                            }
                        }
                    }
                }
            }
            bounds.push(classes.len());
        }

        // Does a source copy already live on the destination owner?
        // Decompose both flat ids in the source grid's radix and compare
        // axis by axis; pinned source axes hold copies at every coordinate.
        // With none pinned that is equality of the ids, both being below
        // the shared processor count.
        let any_pinned =
            copies_hold && (0..self.dims.len()).any(|t| self.dims[t] > 1 && self.pinned(t));
        let held = |mut s: usize, mut d: usize| {
            if !any_pinned {
                return s == d;
            }
            for (t, &g) in self.dims.iter().enumerate().rev() {
                if !self.pinned(t) && s % g != d % g {
                    return false;
                }
                s /= g;
                d /= g;
            }
            true
        };

        let rank = self.axes.len();
        cursor.clear();
        cursor.extend_from_slice(&bounds[..rank]);
        let mut counts = TraversalCounts::default();
        'products: loop {
            let (mut s, mut d, mut n) = (self.base, dst.base, 1u64);
            for &c in cursor.iter() {
                let (cs, cd, cn) = classes[c];
                s += cs as usize;
                d += cd as usize;
                n *= cn as u64;
            }
            if !held(s, d) {
                counts.moved += n;
                counts.pairs += 1;
            }
            for b in (0..rank).rev() {
                cursor[b] += 1;
                if cursor[b] < bounds[b + 1] {
                    continue 'products;
                }
                cursor[b] = bounds[b];
            }
            break;
        }
        counts
    }

    /// A spread happens on any axis the destination replicates but the
    /// source does not — judged per axis, so a source replicated along some
    /// *other* axis still pays for the newly replicated one.
    fn spreads_into(&self, dst: &RestingOwners) -> bool {
        dst.replicated & !self.replicated != 0
    }
}

/// Exact (sampled) traffic of redistributing one object between two
/// (alignment, distribution) pairs over the *same* physical processors — the
/// inter-phase step of a dynamic distribution.
///
/// For every element the destination owner is computed under the target
/// alignment and distribution; the element moves unless some copy of it
/// already lives on that processor under the source pair. Replication is
/// handled per axis: a position replicated along a source axis is held at
/// every processor coordinate of that grid dimension (a *collapse* into a
/// single position is therefore free), while a destination that replicates a
/// previously single position charges a broadcast of the object (*spread*).
///
/// `extents` are the object's per-axis element counts, `point` the iteration
/// point at which mobile offsets are evaluated (boundary objects are loop
/// invariant, so this is usually the empty point).
pub fn redistribution_traffic<S, D>(
    extents: &[i64],
    src: &PortAlignment,
    src_dist: &S,
    dst: &PortAlignment,
    dst_dist: &D,
    point: &[(LivId, i64)],
    opts: SimOptions,
) -> EdgeTraffic
where
    S: TemplateDistribution + ?Sized,
    D: TemplateDistribution + ?Sized,
{
    assert_eq!(
        src_dist.num_processors(),
        dst_dist.num_processors(),
        "redistribution keeps the machine; only the mapping changes"
    );
    // A spread happens on any axis the destination replicates but the source
    // does not — judged per axis, so a source replicated along some *other*
    // axis still pays for the newly replicated one.
    let spread = dst.offsets.iter().enumerate().any(|(t, o)| {
        o.is_replicated() && !src.offsets.get(t).is_some_and(OffsetAlign::is_replicated)
    });

    let src_eval = PosEval::new(src, point);
    let dst_eval = PosEval::new(dst, point);
    let total: usize = extents.iter().product::<i64>().max(1) as usize;
    let budget = opts.element_budget(total);

    // The 1 × 1 case of pricing a matrix of moves: compile the two sides
    // ([`RestingOwners`]) and combine them. An owner map that does not
    // decompose per lattice axis does not compile; that move, counted, takes
    // the per-element evaluation. Both routes sample identically and book
    // identical counters; the `compiled_and_evaluated_*` tests lock their
    // agreement bit for bit.
    if let Some(traffic) = redistribution_compiled(
        extents, &src_eval, src_dist, &dst_eval, dst_dist, spread, budget,
    ) {
        return traffic;
    }
    trace::count("commsim.redist.evaluated_cells", 1);
    redistribution_evaluated(
        extents, &src_eval, src_dist, &dst_eval, dst_dist, spread, budget,
    )
}

/// [`redistribution_traffic`] from compiled sides; `None` when a side's
/// owner map cannot be compiled against the sampling lattice.
fn redistribution_compiled<S, D>(
    extents: &[i64],
    src_eval: &PosEval,
    src_dist: &S,
    dst_eval: &PosEval,
    dst_dist: &D,
    spread: bool,
    budget: usize,
) -> Option<EdgeTraffic>
where
    S: TemplateDistribution + ?Sized,
    D: TemplateDistribution + ?Sized,
{
    let lattice = SampleLattice::new(extents, budget);
    let src = RestingOwners::redist_side(src_eval, src_dist, extents, &lattice)?;
    let dst = RestingOwners::redist_side(dst_eval, dst_dist, extents, &lattice)?;
    debug_assert_eq!(spread, src.spreads_into(&dst));
    Some(RestingOwners::traffic(
        &src,
        &dst,
        &mut TrafficScratch::default(),
    ))
}

/// The original per-element owner evaluation of [`redistribution_traffic`] —
/// the fallback when the owner maps do not compile, and the reference the
/// compiled path is tested against.
fn redistribution_evaluated<S, D>(
    extents: &[i64],
    src_eval: &PosEval,
    src_dist: &S,
    dst_eval: &PosEval,
    dst_dist: &D,
    spread: bool,
    budget: usize,
) -> EdgeTraffic
where
    S: TemplateDistribution + ?Sized,
    D: TemplateDistribution + ?Sized,
{
    let src_dims = src_dist.grid_dims();
    let mut moves = 0.0;
    let mut broadcast = 0.0;
    let mut pairs = PairSet::new(src_dist.num_processors());
    pairs.begin();

    let mut src_buf = Vec::new();
    let mut dst_buf = Vec::new();
    let mut dst_in_src = vec![0usize; src_dims.len()];

    let lattice = SampleLattice::new(extents, budget);
    lattice.size.count(1);
    let scale = lattice.size.scale;
    for_each_sampled_index(extents, &lattice, |index| {
        src_eval.write(index, &mut src_buf);
        if spread {
            broadcast += scale;
            pairs.insert(src_dist.owner_flat(&src_buf), usize::MAX);
            return;
        }
        dst_eval.write(index, &mut dst_buf);
        let dst_owner = dst_dist.owner_flat(&dst_buf);
        // Does any source copy already live on dst_owner? Decompose the
        // destination owner in the source grid's radix and compare axis by
        // axis; replicated source axes hold copies at every coordinate.
        // The same pass folds the per-axis source owner coordinates into
        // the source's linear owner id (mixed-radix, axis 0 most
        // significant — the composition `owner` is specified by), so a
        // moved element needs no second `owner_flat` sweep.
        let mut id = dst_owner;
        for (t, &g) in src_dims.iter().enumerate().rev() {
            dst_in_src[t] = id % g.max(1);
            id /= g.max(1);
        }
        let mut held = true;
        let mut src_owner = 0usize;
        for (t, &g) in src_dims.iter().enumerate() {
            let oc = match src_buf.get(t).copied() {
                Some(c) if c != REPLICATED_COORD => {
                    let oc = src_dist.owner_coord(t, c);
                    held &= oc == dst_in_src[t];
                    oc
                }
                // Replicated along t: a copy at every coordinate, and the
                // linear id pins to the coordinate-0 owner (as `owner_flat`
                // does for `None` axes).
                _ => src_dist.owner_coord(t, 0),
            };
            src_owner = src_owner * g + oc;
        }
        if !held {
            moves += scale;
            pairs.insert(src_owner, dst_owner);
        }
    });

    EdgeTraffic {
        element_moves: moves,
        messages: pairs.len() as f64,
        broadcast_elements: broadcast,
    }
}

/// Where an object rests: an alignment onto the template combined with a
/// distribution of the template onto processors. The phase pipeline's
/// layered-DAG edges price redistributions between *chosen* resting
/// placements — which, with phase-aware placement, need not be the sink and
/// source placements of the adjacent phases — so the pairing is first-class
/// here rather than four loose arguments.
/// The distribution parameter defaults to the trait object, but callers on
/// the pricing hot path (the layout DP's boundary pricer) instantiate it
/// with the concrete distribution type so the per-element owner evaluations
/// monomorphise and inline.
pub struct RestingPlacement<'a, D: TemplateDistribution + ?Sized = dyn TemplateDistribution> {
    /// The object's alignment onto the template.
    pub alignment: &'a PortAlignment,
    /// The distribution of the template onto the machine.
    pub distribution: &'a D,
}

impl<D: TemplateDistribution + ?Sized> Clone for RestingPlacement<'_, D> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<D: TemplateDistribution + ?Sized> Copy for RestingPlacement<'_, D> {}

impl<'a, D: TemplateDistribution + ?Sized> RestingPlacement<'a, D> {
    /// Pair an alignment with a distribution.
    pub fn new(alignment: &'a PortAlignment, distribution: &'a D) -> Self {
        RestingPlacement {
            alignment,
            distribution,
        }
    }

    /// Exact (sampled) traffic of moving an object with the given extents
    /// from this resting placement to `dst` — a thin, self-describing front
    /// end to [`redistribution_traffic`] at the loop-invariant point.
    pub fn traffic_to<E: TemplateDistribution + ?Sized>(
        &self,
        dst: &RestingPlacement<'_, E>,
        extents: &[i64],
        opts: SimOptions,
    ) -> EdgeTraffic {
        redistribution_traffic(
            extents,
            self.alignment,
            self.distribution,
            dst.alignment,
            dst.distribution,
            &[],
            opts,
        )
    }
}

/// One array's move at a phase boundary: the object's extents plus its
/// resting placements on either side. A dynamic plan's boundary is a *list*
/// of these — each array moves independently from wherever it actually
/// rests (the layout chosen by the phase that last used it), there is no
/// whole-boundary "flip" of a single global layout.
pub struct RedistSpec<'a> {
    /// The object's per-axis element extents.
    pub extents: &'a [i64],
    /// Where the object rests before the boundary.
    pub src: RestingPlacement<'a>,
    /// Where the next phase needs it.
    pub dst: RestingPlacement<'a>,
}

/// Simulate the per-array redistribution steps of one boundary: each step is
/// priced by the exact (sampled) owner comparison and the traffic summed.
pub fn simulate_redistribution(steps: &[RedistSpec<'_>], opts: SimOptions) -> EdgeTraffic {
    let _span = trace::span("commsim.redistribution");
    trace::count("commsim.redistributions", 1);
    let mut total = EdgeTraffic::default();
    for step in steps {
        total.add(&step.src.traffic_to(&step.dst, step.extents, opts));
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;
    use adg::build_adg;
    use align_ir::programs;
    use alignment_core::pipeline::{align_program, PipelineConfig};
    use alignment_core::position::ProgramAlignment;

    fn identity(adg: &Adg, t: usize) -> ProgramAlignment {
        let ranks: Vec<usize> = adg.port_ids().map(|p| adg.port(p).rank).collect();
        ProgramAlignment::identity(t, &ranks)
    }

    #[test]
    fn identical_alignments_move_nothing() {
        let adg = build_adg(&programs::example1(64));
        let a = identity(&adg, 1);
        let m = Machine::block_distribution(vec![4], &[64]);
        let r = simulate(&adg, &a, &m, SimOptions::default());
        assert_eq!(r.total.element_moves, 0.0);
        assert_eq!(r.total.broadcast_elements, 0.0);
    }

    #[test]
    fn shifted_alignment_moves_boundary_elements_only() {
        // A one-cell offset mismatch under a block distribution moves only
        // the elements that cross a block boundary: n / block per traversal.
        use align_ir::Affine;
        use alignment_core::position::OffsetAlign;
        let adg = build_adg(&programs::example1(64));
        let mut a = identity(&adg, 1);
        let (pid, _) = adg.ports().find(|(_, p)| p.label.contains("B(2:")).unwrap();
        a.ports[pid.0].offsets[0] = OffsetAlign::Fixed(Affine::constant(1));
        let m = Machine::block_distribution(vec![4], &[64]);
        let r = simulate(&adg, &a, &m, SimOptions::default());
        // 63 elements, block 16: elements at positions 16, 32, 48 shift into
        // the next block (plus possibly one at the top boundary).
        assert!(
            r.total.element_moves >= 3.0 && r.total.element_moves <= 5.0,
            "expected a handful of boundary moves, got {}",
            r.total.element_moves
        );
        assert!(r.total.messages >= 3.0);
    }

    #[test]
    fn cyclic_distribution_makes_shifts_expensive() {
        // Under a cyclic distribution every element changes owner on a
        // one-cell shift — the distribution phase matters, which is exactly
        // why the paper separates it from alignment.
        use align_ir::Affine;
        use alignment_core::position::OffsetAlign;
        let adg = build_adg(&programs::example1(64));
        let mut a = identity(&adg, 1);
        let (pid, _) = adg.ports().find(|(_, p)| p.label.contains("B(2:")).unwrap();
        a.ports[pid.0].offsets[0] = OffsetAlign::Fixed(Affine::constant(1));
        let m = Machine::cyclic(vec![4]);
        let r = simulate(&adg, &a, &m, SimOptions::default());
        assert!((r.total.element_moves - 63.0).abs() < 1e-9);
    }

    #[test]
    fn replicated_destination_counts_broadcast() {
        let (adg, result) = align_program(&programs::figure4(16, 8, 4), &PipelineConfig::default());
        let m = Machine::new(vec![2, 2], vec![8, 4]);
        let r = simulate(&adg, &result.alignment, &m, SimOptions::default());
        // The min-cut labeling broadcasts t once at loop entry (16 elements).
        assert!(r.total.broadcast_elements > 0.0);
        assert!(
            r.total.broadcast_elements <= 16.0 * 2.0,
            "broadcast volume {} should be a loop-entry broadcast, not per-iteration",
            r.total.broadcast_elements
        );
    }

    #[test]
    fn aligned_pipeline_output_is_cheaper_than_identity() {
        let prog = programs::figure1(32);
        let (adg, result) = align_program(&prog, &PipelineConfig::default());
        let m = Machine::new(vec![2, 2], vec![16, 16]);
        let aligned = simulate(&adg, &result.alignment, &m, SimOptions::default());
        let naive = simulate(&adg, &identity(&adg, 2), &m, SimOptions::default());
        assert!(
            aligned.total_elements() <= naive.total_elements(),
            "aligned {} vs naive {}",
            aligned.total_elements(),
            naive.total_elements()
        );
    }

    #[test]
    fn redistribution_between_identical_pairs_is_free() {
        let a = PortAlignment::identity(2, 2);
        let m = Machine::new(vec![2, 2], vec![8, 8]);
        let t = redistribution_traffic(&[16, 16], &a, &m, &a, &m, &[], SimOptions::default());
        assert_eq!(t.element_moves, 0.0);
        assert_eq!(t.broadcast_elements, 0.0);
    }

    #[test]
    fn grid_flip_moves_most_elements() {
        // Row-distributed -> column-distributed on 4 processors: everything
        // off the block diagonal moves (the FFT transpose pattern).
        let a = PortAlignment::identity(2, 2);
        let rows = Machine::new(vec![4, 1], vec![4, 16]);
        let cols = Machine::new(vec![1, 4], vec![16, 4]);
        let t = redistribution_traffic(&[16, 16], &a, &rows, &a, &cols, &[], SimOptions::default());
        // 16x16 elements; each row block holds 4x16; under cols each element
        // stays only if its column block index equals its row block index:
        // 4x4 per processor stay -> 256 - 64 = 192 move.
        assert!((t.element_moves - 192.0).abs() < 1e-9, "{t:?}");
        assert!(t.messages >= 12.0, "{t:?}");
    }

    #[test]
    fn replicated_source_collapse_is_free_spread_charges_broadcast() {
        use alignment_core::position::OffsetAlign as OA;
        let single = PortAlignment::identity(1, 2);
        let mut replicated = PortAlignment::identity(1, 2);
        replicated.offsets[1] = OA::Replicated;
        let m = Machine::new(vec![2, 2], vec![8, 8]);
        // Collapse: every processor column already holds a copy, so landing
        // on any single position is local.
        let collapse = redistribution_traffic(
            &[16],
            &replicated,
            &m,
            &single,
            &m,
            &[],
            SimOptions::default(),
        );
        assert_eq!(collapse.element_moves, 0.0, "{collapse:?}");
        assert_eq!(collapse.broadcast_elements, 0.0);
        // Spread: a single position becoming replicated broadcasts the data.
        let spread = redistribution_traffic(
            &[16],
            &single,
            &m,
            &replicated,
            &m,
            &[],
            SimOptions::default(),
        );
        assert_eq!(spread.broadcast_elements, 16.0, "{spread:?}");
    }

    #[test]
    fn newly_replicated_axis_charges_spread_despite_other_source_replication() {
        // src replicated on axis 0 only; dst replicated on axes 0 and 1.
        // Axis 1 is *newly* replicated, so the move is a broadcast even
        // though the source was already replicated elsewhere.
        use alignment_core::position::OffsetAlign as OA;
        let mut src = PortAlignment::identity(1, 3);
        src.axis_map = vec![2];
        src.offsets[0] = OA::Replicated;
        let mut dst = src.clone();
        dst.offsets[1] = OA::Replicated;
        let m = Machine::new(vec![2, 2, 2], vec![8, 8, 8]);
        let t = redistribution_traffic(&[16], &src, &m, &dst, &m, &[], SimOptions::default());
        assert_eq!(t.broadcast_elements, 16.0, "{t:?}");
        assert_eq!(t.element_moves, 0.0);
    }

    #[test]
    fn cache_matches_simulate() {
        // The placement cache must reproduce simulate() traffic exactly —
        // same sampling, same scales, same message sets, the same bits —
        // for any candidate distribution, under exact and sampled options
        // alike.
        let aligned = |program: align_ir::Program| {
            let (adg, result) = align_program(&program, &PipelineConfig::default());
            (program.name, adg, result.alignment)
        };
        let mut cases = vec![
            aligned(programs::example1(200)),
            aligned(programs::figure1(24)),
            aligned(programs::figure4(16, 8, 4)),
            aligned(programs::stencil2d(24, 3)),
        ];
        // Loop invariant and sampled at a scale that is not dyadic
        // (6111/1568): 64 trips collapse into one run whose additions round.
        let (adg, alignment) = atom(&programs::reduction_tree(64, 64), 2);
        cases.push(("reduction_tree(64,64) atom 2".into(), adg, alignment));
        // Several runs per edge, each longer than one point.
        let (adg, alignment) = shifted_nest(true);
        cases.push(("shifted_nest".into(), adg, alignment));

        for (name, adg, alignment) in &cases {
            let rank = alignment.ports[0].template_rank();
            let machines = if rank == 2 {
                vec![
                    Machine::new(vec![2, 2], vec![8, 8]),
                    Machine::new(vec![4, 1], vec![8, 32]),
                    Machine::cyclic(vec![2, 2]),
                    Machine::block_distribution(vec![4, 8], &[64, 64]),
                ]
            } else {
                vec![
                    Machine::new(vec![4; rank], vec![8; rank]),
                    Machine::cyclic(vec![32; rank]),
                ]
            };
            for opts in [
                SimOptions::default(),
                SimOptions::exact(),
                SimOptions::sampled(64, 32),
            ] {
                let cache = PlacementCache::new(adg, alignment, opts);
                for machine in &machines {
                    let direct = simulate(adg, alignment, machine, opts);
                    let cached = cache.price(machine);
                    assert_eq!(
                        direct.total.element_moves.to_bits(),
                        cached.total.element_moves.to_bits(),
                        "{name}: moves"
                    );
                    assert_eq!(
                        direct.total.broadcast_elements.to_bits(),
                        cached.total.broadcast_elements.to_bits(),
                        "{name}: broadcast"
                    );
                    assert_eq!(
                        direct.total.messages.to_bits(),
                        cached.total.messages.to_bits(),
                        "{name}: messages"
                    );
                    assert_eq!(direct.per_edge.len(), cached.per_edge.len(), "{name}");
                    // The ranking sum adds per sample across the iteration
                    // points; check it against that walk spelled out, one
                    // addition per moved sample per point, the samples
                    // compared element by element.
                    let mut pairs = PairSet::new(machine.num_processors());
                    let mut unrolled = 0.0;
                    for edge in &cache.edges {
                        let mut edge_elems = 0.0;
                        for &(t, repeat) in &edge.runs {
                            let run = &cache.traversals[t];
                            let counts = evaluated_counts(
                                &run.placement,
                                &run.lattice,
                                run.dst_replicated,
                                machine,
                                &mut pairs,
                            );
                            for _ in 0..repeat * (counts.moved + counts.broadcast) {
                                edge_elems += run.lattice.size.scale;
                            }
                        }
                        unrolled += edge_elems * edge.weight;
                    }
                    let fast = cache.total_elements(machine);
                    assert_eq!(fast.to_bits(), unrolled.to_bits(), "{name}: fast path");
                    // The two summation orders agree to the bit only while
                    // no addition rounds.
                    if !name.starts_with("reduction_tree") {
                        assert_eq!(fast.to_bits(), cached.total_elements().to_bits(), "{name}");
                    } else {
                        assert!(
                            (fast - cached.total_elements()).abs() <= 1e-9 * fast,
                            "{name}"
                        );
                    }
                }
            }
        }
    }

    /// `(repeat, sampled elements stood for)` of every run, edge by edge.
    fn runs(cache: &PlacementCache) -> Vec<Vec<(u64, i64)>> {
        cache
            .edges
            .iter()
            .map(|e| {
                (e.runs.iter())
                    .map(|&(t, repeat)| (repeat, cache.traversals[t].lattice.size.sampled))
                    .collect()
            })
            .collect()
    }

    /// `program`'s `i`-th distributable atom, aligned on its own (what the
    /// phase pipeline builds one cache per).
    fn atom(program: &align_ir::Program, i: usize) -> (Adg, ProgramAlignment) {
        let atoms = program.distributable_atoms();
        let sub = program.from_atoms(std::slice::from_ref(&atoms[i]));
        let (adg, result) = align_program(&sub, &PipelineConfig::default());
        (adg, result.alignment)
    }

    /// `do k = 1, 3; do j = 1, 5; A(1:16,1:15) = A(1:16,1:15) + A(1:16,2:16)`
    /// under the identity alignment, except that the shifted operand's
    /// axis-1 offset is the outer (`k`) or the inner (`j`) induction
    /// variable.
    fn shifted_nest(offset_follows_outer: bool) -> (Adg, ProgramAlignment) {
        use align_ir::builder::{add, rng, ProgramBuilder};
        let mut b = ProgramBuilder::new("shifted_nest");
        let a = b.array("A", &[16, 16]);
        let k = b.begin_loop(1, 3);
        let j = b.begin_loop(1, 5);
        let near = b.sec_ref(a, vec![rng(1, 16), rng(1, 15)]);
        let far = b.sec_ref(a, vec![rng(1, 16), rng(2, 16)]);
        let lhs = align_ir::Section::new(vec![rng(1, 16), rng(1, 15)]);
        b.assign(a, lhs, add(near, far));
        b.end_loop();
        b.end_loop();
        let adg = build_adg(&b.finish());
        let mut alignment = identity(&adg, 2);
        let liv = if offset_follows_outer { k } else { j };
        for (pid, port) in adg.ports() {
            if port.label.contains("2:16") {
                alignment.ports[pid.0].offsets[1] = OffsetAlign::Fixed(Affine::liv(liv));
            }
        }
        (adg, alignment)
    }

    #[test]
    fn loop_invariant_points_share_one_stored_traversal() {
        // Not mobile in the loop: forty trips, one traversal.
        let (adg, a) = atom(&programs::fft_like(128, 40), 0);
        let collapsed = || trace::counter("commsim.iterations_collapsed");
        let before = collapsed();
        let cache = PlacementCache::new(&adg, &a, SimOptions::default());
        let stored: Vec<_> = runs(&cache).into_iter().flatten().collect();
        assert_eq!(stored, [(40, 4096)]);
        assert_eq!(collapsed() - before, 39);

        // Mobile in the outer loop only: one run per outer trip, as long as
        // the inner loop — and the uncached walk folds the same points.
        let (adg, a) = shifted_nest(true);
        let before = collapsed();
        let cache = PlacementCache::new(&adg, &a, SimOptions::default());
        let per_edge: Vec<_> = runs(&cache).into_iter().filter(|r| !r.is_empty()).collect();
        assert!(!per_edge.is_empty());
        for edge_runs in &per_edge {
            assert_eq!(edge_runs.len(), 3, "{edge_runs:?}");
            assert!(edge_runs.iter().all(|&(repeat, _)| repeat == 5));
        }
        let folded = (per_edge.len() * 3 * 4) as u64;
        assert_eq!(collapsed() - before, folded);
        let m = Machine::new(vec![2, 2], vec![4, 4]);
        simulate(&adg, &a, &m, SimOptions::default());
        assert_eq!(collapsed() - before, 2 * folded);

        // Mobile in the innermost loop: nothing to share, one run per point.
        let (adg, a) = shifted_nest(false);
        let before = collapsed();
        let cache = PlacementCache::new(&adg, &a, SimOptions::default());
        let per_edge: Vec<_> = runs(&cache).into_iter().filter(|r| !r.is_empty()).collect();
        assert!(!per_edge.is_empty());
        for edge_runs in per_edge {
            assert_eq!(edge_runs.len(), 15, "{edge_runs:?}");
            assert!(edge_runs.iter().all(|&(repeat, _)| repeat == 1));
        }
        assert_eq!(collapsed(), before);
    }

    #[test]
    fn equal_traversals_of_different_loops_are_stored_once() {
        // The same shifted statement in `loops` sequential loops: one run
        // per loop and edge, but the runs of one edge's statement place the
        // object identically, so the cache stores each traversal once and
        // prices it once per candidate — to the same traffic.
        use align_ir::builder::{add, rng, ProgramBuilder};
        let program = |loops: usize| {
            let mut b = ProgramBuilder::new("repeated_shift");
            let a = b.array("A", &[16, 16]);
            for _ in 0..loops {
                b.begin_loop(1, 3);
                let near = b.sec_ref(a, vec![rng(1, 16), rng(1, 15)]);
                let far = b.sec_ref(a, vec![rng(1, 16), rng(2, 16)]);
                let lhs = align_ir::Section::new(vec![rng(1, 16), rng(1, 15)]);
                b.assign(a, lhs, add(near, far));
                b.end_loop();
            }
            let adg = build_adg(&b.finish());
            let mut alignment = identity(&adg, 2);
            for (pid, port) in adg.ports() {
                if port.label.contains("2:16") {
                    alignment.ports[pid.0].offsets[1] = OffsetAlign::Fixed(Affine::constant(1));
                }
            }
            (adg, alignment)
        };
        let (adg, alignment) = program(1);
        let (_, one_runs, one_stored, _) =
            PlacementCache::new(&adg, &alignment, SimOptions::exact()).footprint();
        assert!(one_stored > 0 && one_stored <= one_runs);
        let (adg, alignment) = program(4);
        let cache = PlacementCache::new(&adg, &alignment, SimOptions::exact());
        let (points, runs, stored, _) = cache.footprint();
        assert_eq!(
            (runs, stored),
            (4 * one_runs, one_stored),
            "{points} points"
        );
        let m = Machine::new(vec![2, 2], vec![8, 8]);
        let direct = simulate(&adg, &alignment, &m, SimOptions::exact());
        assert!(direct.total_elements() > 0.0);
        let mut scratch = TrafficScratch::default();
        let cached = cache.price_with(&m, &mut scratch);
        assert_eq!(format!("{direct:?}"), format!("{cached:?}"));
        assert_eq!(
            cache.total_elements_with(&m, &mut scratch).to_bits(),
            direct.total_elements().to_bits()
        );
    }

    #[test]
    fn repeat_add_equals_the_addition_loop_bitwise() {
        // SplitMix64, seeded.
        let mut state = 14u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let naive = |acc: f64, s: f64, n: u64| (0..n).fold(acc, |a, _| a + s);
        let ulp = |x: f64| f64::from_bits(x.to_bits() + 1) - x;
        // A full-width mantissa in binade 2^e.
        let in_binade = |e: u64, mantissa: u64| f64::from_bits((1023 + e) << 52 | mantissa >> 12);
        for case in 0..200_000u64 {
            // Mostly short folds; one case in 256 runs up to a million steps.
            let n = match case % 256 {
                0 => next() % 1_000_001,
                _ => next() % (1 << (next() % 13)),
            };
            let (acc, s) = match case % 8 {
                // The scales traversals have: exact, dyadic (127/32), on the
                // 2⁻¹² grid, and 6111/1568 = 3.897…, whose additions round —
                // from zero, from sums of either kind, and across 2⁴¹.
                kind @ 0..=3 => {
                    let s = match kind {
                        0 => (1 + next() % 64) as f64,
                        1 => (1 + next() % 8192) as f64 / 32.0,
                        2 => (1 + next() % 8192) as f64 / 4096.0,
                        _ => (1 + next() % 8192) as f64 / 1568.0,
                    };
                    let acc = match (case / 8) % 4 {
                        0 => 0.0,
                        1 => (next() % (1 << 30)) as f64 / 4096.0,
                        2 => (next() % (1 << 30)) as f64 / 1568.0,
                        _ => (1u64 << 41) as f64 - ((next() % 4096) as f64 * s).floor(),
                    };
                    (acc, s)
                }
                // Every step a tie: `s` is a whole number of ulps and a half
                // (half an ulp alone moves an odd mantissa once, an even one
                // never).
                4 => {
                    let acc = in_binade(next() % 60, next());
                    (acc, ulp(acc) * ((next() % 5) as f64 + 0.5))
                }
                // Below half an ulp: absorbed from the first step — zero
                // included.
                5 => {
                    let acc = in_binade(next() % 60, next());
                    (acc, ulp(acc) * ((next() % 1000) as f64 / 2048.0))
                }
                // Starting a few ulps under a power of two, in steps of whole,
                // quarter, half and three-quarter ulps: crossings, some of
                // them landing exactly on the power.
                6 => {
                    let top = in_binade(1 + next() % 60, 0);
                    let acc = f64::from_bits(top.to_bits() - 1 - next() % 64);
                    (acc, ulp(acc) * ((next() % 256) as f64 / 4.0))
                }
                // Anything: `s` from 2⁻⁶⁰ to 2³ times `acc`, or `acc` zero.
                _ => {
                    let acc = in_binade(next() % 80, next()) / (1u64 << 20) as f64;
                    let s = in_binade(next() % 64, next()) * acc / (1u64 << 60) as f64;
                    (if case % 64 == 7 { 0.0 } else { acc }, s)
                }
            };
            assert_eq!(
                repeat_add(acc, s, n).to_bits(),
                naive(acc, s, n).to_bits(),
                "case {case}: acc {acc:e} s {s:e} n {n}"
            );
        }
        // Signed zero, and nothing added.
        assert_eq!(
            repeat_add(-0.0, 0.0, 3).to_bits(),
            naive(-0.0, 0.0, 3).to_bits()
        );
        assert_eq!(repeat_add(2.5, 0.1, 0).to_bits(), 2.5f64.to_bits());
    }

    #[test]
    fn sampling_scales_counts() {
        // With a tiny element budget the counts are scaled estimates but stay
        // in the right ballpark.
        use align_ir::Affine;
        use alignment_core::position::OffsetAlign;
        let adg = build_adg(&programs::example1(1000));
        let mut a = identity(&adg, 1);
        let (pid, _) = adg.ports().find(|(_, p)| p.label.contains("B(2:")).unwrap();
        a.ports[pid.0].offsets[0] = OffsetAlign::Fixed(Affine::constant(1));
        let m = Machine::cyclic(vec![4]);
        let exact = simulate(&adg, &a, &m, SimOptions::default());
        let sampled = simulate(&adg, &a, &m, SimOptions::sampled(64, 512));
        let ratio = sampled.total.element_moves / exact.total.element_moves;
        assert!(ratio > 0.8 && ratio < 1.2, "sampled/exact = {ratio}");
    }

    #[test]
    fn compiled_and_evaluated_redistribution_agree_bitwise() {
        // The table-driven redistribution loop must be indistinguishable
        // from the per-element owner evaluation: identical traffic (bitwise
        // f64s), identical message sets, identical sampling counters —
        // across offsets, strides, transposes, replication, unequal grid
        // shapes, and both exact and strided sampling lattices.
        use align_ir::Affine;
        use alignment_core::position::OffsetAlign;

        let mut aligns: Vec<(&str, PortAlignment)> = Vec::new();
        aligns.push(("identity", PortAlignment::identity(2, 2)));
        let mut transpose = PortAlignment::identity(2, 2);
        transpose.axis_map = vec![1, 0];
        aligns.push(("transpose", transpose));
        let mut offset = PortAlignment::identity(2, 2);
        offset.offsets[0] = OffsetAlign::Fixed(Affine::constant(3));
        offset.offsets[1] = OffsetAlign::Fixed(Affine::constant(-5));
        aligns.push(("offset", offset));
        let mut strided = PortAlignment::identity(2, 2);
        strided.strides[1] = Affine::constant(2);
        aligns.push(("strided", strided));
        let mut replicated = PortAlignment::identity(1, 2);
        replicated.offsets[1] = OffsetAlign::Replicated;
        aligns.push(("replicated", replicated));
        aligns.push(("collapsed", PortAlignment::identity(1, 2)));

        let machines: Vec<(&str, Machine)> = vec![
            ("block", Machine::block_distribution(vec![2, 4], &[13, 9])),
            ("cyclic", Machine::cyclic(vec![2, 4])),
            ("blockcyclic", Machine::new(vec![2, 4], vec![3, 2])),
            ("flipped", Machine::new(vec![4, 2], vec![2, 5])),
        ];
        let options = [SimOptions::exact(), SimOptions::sampled(24, 512)];

        let mut compiled_hits = 0usize;
        for (sa, src_align) in &aligns {
            for (da, dst_align) in &aligns {
                // The element lattice is the source object's; a replicated
                // source has rank 1 here, so pair it with rank-1 partners.
                if src_align.rank() != dst_align.rank() {
                    continue;
                }
                let extents: Vec<i64> = vec![13, 9][..src_align.rank()].to_vec();
                for (sm, src_dist) in &machines {
                    for (dm, dst_dist) in &machines {
                        for (oi, &opts) in options.iter().enumerate() {
                            let label = format!("{sa}->{da} on {sm}->{dm} opts{oi}");
                            let spread = dst_align.offsets.iter().enumerate().any(|(t, o)| {
                                o.is_replicated()
                                    && !src_align
                                        .offsets
                                        .get(t)
                                        .is_some_and(OffsetAlign::is_replicated)
                            });
                            let src_eval = PosEval::new(src_align, &[]);
                            let dst_eval = PosEval::new(dst_align, &[]);
                            let total: usize = extents.iter().product::<i64>().max(1) as usize;
                            let budget = opts.element_budget(total);

                            let before = trace::counter("commsim.elements_priced");
                            let reference = redistribution_evaluated(
                                &extents, &src_eval, src_dist, &dst_eval, dst_dist, spread, budget,
                            );
                            let ref_priced = trace::counter("commsim.elements_priced") - before;

                            let before = trace::counter("commsim.elements_priced");
                            let Some(compiled) = redistribution_compiled(
                                &extents, &src_eval, src_dist, &dst_eval, dst_dist, spread, budget,
                            ) else {
                                continue;
                            };
                            compiled_hits += 1;
                            let compiled_priced =
                                trace::counter("commsim.elements_priced") - before;

                            assert!(
                                compiled.element_moves == reference.element_moves
                                    && compiled.messages == reference.messages
                                    && compiled.broadcast_elements == reference.broadcast_elements,
                                "{label}: compiled {compiled:?} != evaluated {reference:?}"
                            );
                            assert_eq!(compiled_priced, ref_priced, "{label}: counters");
                        }
                    }
                }
            }
        }
        // The compiled path must take every separable scenario — a silent
        // fallback would invalidate the speedup. Rank-2 pairs all compile
        // (4² aligns x 4² machines x 2 options = 512), and so do the rank-1
        // pairs (2² aligns x 4² machines x 2 options = 128): the held test
        // compares owner coordinates in the source grid's radix, so a
        // replicated source compiles across differently-shaped grids too.
        assert_eq!(compiled_hits, 512 + 128, "fast-path coverage");

        // A 64 × 97 object moved from a 32 × 1 grid to a 1 × 32 one, as
        // the planner's transposed plans of `reduction_tree(64, 64)` move
        // it: with the destination transposed, body axis 0 has 32 owner
        // coordinates on both sides, 1 024 cells for 64 positions, and is
        // classed by sorting.
        let extents = [64, 97];
        let rows = Machine::block_distribution(vec![32, 1], &[64, 97]);
        let cols = Machine::block_distribution(vec![1, 32], &[97, 64]);
        for (da, dst_align) in [("identity", &aligns[0].1), ("transpose", &aligns[1].1)] {
            for (oi, &opts) in options.iter().enumerate() {
                let label = format!("identity->{da} on 32x1->1x32 opts{oi}");
                let src_eval = PosEval::new(&aligns[0].1, &[]);
                let dst_eval = PosEval::new(dst_align, &[]);
                let budget = opts.element_budget(64 * 97);
                let reference = redistribution_evaluated(
                    &extents, &src_eval, &rows, &dst_eval, &cols, false, budget,
                );
                let compiled = redistribution_compiled(
                    &extents, &src_eval, &rows, &dst_eval, &cols, false, budget,
                )
                .expect("both sides compile");
                assert!(
                    compiled.element_moves == reference.element_moves
                        && compiled.messages == reference.messages
                        && compiled.broadcast_elements == reference.broadcast_elements,
                    "{label}: compiled {compiled:?} != evaluated {reference:?}"
                );
            }
        }

        // A skewed alignment (two body axes on one template axis) is the
        // documented fallback: the owner coordinate is not a function of a
        // single lattice axis.
        let mut skewed = PortAlignment::identity(2, 2);
        skewed.axis_map = vec![0, 0];
        let eval = PosEval::new(&skewed, &[]);
        let m = &machines[0].1;
        assert!(redistribution_compiled(
            &[13, 9],
            &eval,
            m,
            &PosEval::new(&aligns[0].1, &[]),
            m,
            false,
            13 * 9,
        )
        .is_none());
    }

    /// Price one move through [`RestingOwners`] and through the
    /// per-element evaluation; every field and both sampling counters must
    /// agree to the bit. Returns the traffic.
    fn sides_match_evaluation(
        label: &str,
        extents: &[i64],
        (src, src_dist): (&PortAlignment, &Machine),
        (dst, dst_dist): (&PortAlignment, &Machine),
        point: &[(LivId, i64)],
        opts: SimOptions,
    ) -> EdgeTraffic {
        let sampling = || {
            (
                trace::counter("commsim.elements_priced"),
                trace::counter("commsim.sampling_events"),
            )
        };
        let spread = dst.offsets.iter().enumerate().any(|(t, o)| {
            o.is_replicated() && !src.offsets.get(t).is_some_and(OffsetAlign::is_replicated)
        });
        let total: usize = extents.iter().product::<i64>().max(1) as usize;
        let before = sampling();
        let want = redistribution_evaluated(
            extents,
            &PosEval::new(src, point),
            src_dist,
            &PosEval::new(dst, point),
            dst_dist,
            spread,
            opts.element_budget(total),
        );
        let mid = sampling();
        let from = RestingOwners::compile(extents, src, src_dist, point, opts)
            .unwrap_or_else(|| panic!("{label}: source side did not compile"));
        let to = RestingOwners::compile(extents, dst, dst_dist, point, opts)
            .unwrap_or_else(|| panic!("{label}: destination side did not compile"));
        assert_eq!(sampling(), mid, "{label}: compiling books no sampling");
        let got = RestingOwners::traffic(&from, &to, &mut TrafficScratch::default());
        let after = sampling();
        assert_eq!(
            (after.0 - mid.0, after.1 - mid.1),
            (mid.0 - before.0, mid.1 - before.1),
            "{label}: sampling counters"
        );
        for (field, got, want) in [
            ("element_moves", got.element_moves, want.element_moves),
            ("messages", got.messages, want.messages),
            (
                "broadcast_elements",
                got.broadcast_elements,
                want.broadcast_elements,
            ),
        ] {
            assert_eq!(got.to_bits(), want.to_bits(), "{label}: {field}");
        }
        got
    }

    #[test]
    fn compiled_sides_price_every_separable_move_like_the_evaluation() {
        let opts = SimOptions::default();
        // BLOCK, CYCLIC and BLOCK-CYCLIC(2, 4, 8) on every factorisation of
        // 8, 16 and 32 processors into a grid of the object's rank, each
        // against each — grids of different shapes included
        // (`[8,1]`→`[1,8]`, `[4,2]`→`[2,4]`).
        fn grids(nprocs: usize, rank: usize) -> Vec<Vec<usize>> {
            if rank == 1 {
                return vec![vec![nprocs]];
            }
            (0..=nprocs.trailing_zeros())
                .flat_map(|k| {
                    grids(nprocs >> k, rank - 1).into_iter().map(move |mut g| {
                        g.insert(0, 1 << k);
                        g
                    })
                })
                .collect()
        }
        let mut moved_somewhere = 0;
        for extents in [vec![96], vec![24, 40], vec![6, 10, 12]] {
            let align = PortAlignment::identity(extents.len(), extents.len());
            for nprocs in [8, 16, 32] {
                let machines: Vec<Machine> = grids(nprocs, extents.len())
                    .into_iter()
                    .flat_map(|grid| {
                        let rank = grid.len();
                        [
                            Machine::block_distribution(grid.clone(), &extents),
                            Machine::cyclic(grid.clone()),
                            Machine::new(grid.clone(), vec![2; rank]),
                            Machine::new(grid.clone(), vec![4; rank]),
                            Machine::new(grid, vec![8; rank]),
                        ]
                    })
                    .collect();
                for from in &machines {
                    for to in &machines {
                        let label = format!("{extents:?}: {from:?} -> {to:?}");
                        let t = sides_match_evaluation(
                            &label,
                            &extents,
                            (&align, from),
                            (&align, to),
                            &[],
                            opts,
                        );
                        moved_somewhere += usize::from(t.element_moves > 0.0);
                    }
                }
            }
        }
        assert!(moved_somewhere > 1000, "the sweep moves data");

        // A replicated source axis holds a copy at every coordinate of its
        // grid dimension, across equal and across different grid shapes; a
        // newly replicated destination axis is a spread.
        let single = PortAlignment::identity(1, 2);
        let mut replicated = PortAlignment::identity(1, 2);
        replicated.offsets[1] = OffsetAlign::Replicated;
        let square = Machine::new(vec![4, 4], vec![3, 5]);
        let flipped = Machine::new(vec![2, 8], vec![7, 2]);
        let wide = Machine::new(vec![16, 1], vec![2, 9]);
        for (to_name, to) in [("square", &square), ("flipped", &flipped), ("wide", &wide)] {
            let label = format!("collapse square -> {to_name}");
            let collapse = sides_match_evaluation(
                &label,
                &[50],
                (&replicated, &square),
                (&single, to),
                &[],
                opts,
            );
            assert_eq!(collapse.broadcast_elements, 0.0, "{label}");
            let label = format!("spread square -> {to_name}");
            let spread = sides_match_evaluation(
                &label,
                &[50],
                (&single, &square),
                (&replicated, to),
                &[],
                opts,
            );
            assert_eq!(spread.broadcast_elements, 50.0, "{label}");
        }
        let same = sides_match_evaluation(
            "collapse in place",
            &[50],
            (&replicated, &square),
            (&single, &square),
            &[],
            opts,
        );
        assert!(same.is_zero(), "every column already holds a copy");

        // Sampled objects: a dyadic scale (`lookup_table`'s 2048 × 512, 256
        // elements a sample) and one that is not (`reduction_tree(64,64)`'s
        // 63 × 97, 6111/1568 a sample — every addition rounds).
        let align = PortAlignment::identity(2, 2);
        for (extents, nprocs) in [([2048, 512], 16), ([63, 97], 32)] {
            let rows = Machine::block_distribution(vec![nprocs, 1], &extents);
            let cols = Machine::block_distribution(vec![1, nprocs], &extents);
            let cyclic = Machine::cyclic(vec![4, nprocs / 4]);
            for (from, to) in [(&rows, &cols), (&cols, &cyclic), (&cyclic, &rows)] {
                let label = format!("{extents:?}: {from:?} -> {to:?}");
                let t = sides_match_evaluation(
                    &label,
                    &extents,
                    (&align, from),
                    (&align, to),
                    &[],
                    opts,
                );
                assert!(t.element_moves > 0.0, "{label}");
                assert!(trace::counter("commsim.sampling_events") > 0);
            }
        }

        // A transposed, strided source whose offset follows a loop index,
        // evaluated away from the origin.
        let k = LivId(0);
        let mut mobile = PortAlignment::identity(2, 2);
        mobile.axis_map = vec![1, 0];
        mobile.strides[0] = Affine::constant(2);
        mobile.strides[1] = Affine::new(1, [(k, 1)]);
        mobile.offsets[0] = OffsetAlign::Fixed(Affine::new(-3, [(k, 2)]));
        let block = Machine::block_distribution(vec![2, 4], &[40, 60]);
        let cyclic = Machine::new(vec![4, 2], vec![3, 1]);
        for point in [vec![], vec![(k, 3)]] {
            let t = sides_match_evaluation(
                &format!("mobile at {point:?}"),
                &[13, 9],
                (&mobile, &block),
                (&align, &cyclic),
                &point,
                SimOptions::sampled(24, 512),
            );
            assert!(t.element_moves > 0.0);
        }
    }

    #[test]
    fn a_skewed_side_does_not_compile_and_the_move_is_evaluated() {
        // `i + j` on template axis 0: the owner coordinate is not a function
        // of one body index.
        let mut skewed = PortAlignment::identity(2, 2);
        skewed.axis_map = vec![0, 0];
        let plain = PortAlignment::identity(2, 2);
        let block = Machine::block_distribution(vec![4, 2], &[22, 9]);
        let cyclic = Machine::cyclic(vec![4, 2]);
        let opts = SimOptions::default();
        assert!(RestingOwners::compile(&[13, 9], &skewed, &block, &[], opts).is_none());
        assert!(RestingOwners::compile(&[13, 9], &plain, &cyclic, &[], opts).is_some());

        let evaluated = || trace::counter("commsim.redist.evaluated_cells");
        let before = evaluated();
        let t = redistribution_traffic(&[13, 9], &skewed, &block, &plain, &cyclic, &[], opts);
        assert_eq!(evaluated() - before, 1);
        // Counted by hand: element (i, j) sits at template cell (i + j, 0)
        // before the move and at (i, j) after it.
        let moved = (1..=13)
            .flat_map(|i| (1..=9).map(move |j| (i, j)))
            .filter(|&(i, j)| {
                block.owner(&[Some(i + j), Some(0)]) != cyclic.owner(&[Some(i), Some(j)])
            })
            .count();
        assert_eq!(t.element_moves, moved as f64);

        let before = evaluated();
        redistribution_traffic(&[13, 9], &plain, &block, &plain, &cyclic, &[], opts);
        assert_eq!(evaluated(), before, "a separable move is not evaluated");
    }

    #[test]
    fn compiled_and_evaluated_element_traffic_agree_bitwise() {
        // The in-phase element loop shares the owner-table compiler with the
        // redistribution loop; its compiled path must likewise be
        // indistinguishable from the per-element evaluation — and, because
        // both sides share the machine and `owner_flat` pins replicated
        // axes to coordinate 0 exactly as the compiler does, every
        // separable scenario (replication included) must compile.
        use align_ir::Affine;
        use alignment_core::position::OffsetAlign;

        let mut aligns: Vec<(&str, PortAlignment)> = Vec::new();
        aligns.push(("identity", PortAlignment::identity(2, 2)));
        let mut transpose = PortAlignment::identity(2, 2);
        transpose.axis_map = vec![1, 0];
        aligns.push(("transpose", transpose));
        let mut offset = PortAlignment::identity(2, 2);
        offset.offsets[0] = OffsetAlign::Fixed(Affine::constant(3));
        offset.offsets[1] = OffsetAlign::Fixed(Affine::constant(-5));
        aligns.push(("offset", offset));
        let mut strided = PortAlignment::identity(2, 2);
        strided.strides[1] = Affine::constant(2);
        aligns.push(("strided", strided));
        let mut replicated = PortAlignment::identity(1, 2);
        replicated.offsets[1] = OffsetAlign::Replicated;
        aligns.push(("replicated", replicated));
        aligns.push(("collapsed", PortAlignment::identity(1, 2)));

        let machines: Vec<(&str, Machine)> = vec![
            ("block", Machine::block_distribution(vec![2, 4], &[13, 9])),
            ("cyclic", Machine::cyclic(vec![2, 4])),
            ("blockcyclic", Machine::new(vec![2, 4], vec![3, 2])),
            ("flipped", Machine::new(vec![4, 2], vec![2, 5])),
        ];
        let options = [SimOptions::exact(), SimOptions::sampled(24, 512)];
        let sampling = || {
            (
                trace::counter("commsim.elements_priced"),
                trace::counter("commsim.sampling_events"),
            )
        };

        let mut compiled_hits = 0usize;
        for (sa, src_align) in &aligns {
            for (da, dst_align) in &aligns {
                if src_align.rank() != dst_align.rank() {
                    continue;
                }
                let extents: Vec<i64> = vec![13, 9][..src_align.rank()].to_vec();
                for (mn, machine) in &machines {
                    for (oi, &opts) in options.iter().enumerate() {
                        let label = format!("{sa}->{da} on {mn} opts{oi}");
                        let dst_replicated =
                            dst_align.offsets.iter().any(OffsetAlign::is_replicated)
                                && !src_align.offsets.iter().any(OffsetAlign::is_replicated);
                        let total: usize = extents.iter().product::<i64>().max(1) as usize;
                        let lattice = SampleLattice::new(&extents, opts.element_budget(total));
                        let placement = PointPlacement {
                            src: PosEval::new(src_align, &[]),
                            dst: PosEval::new(dst_align, &[]),
                            extents: extents.clone(),
                        };

                        let before = sampling();
                        let mut pairs = PairSet::new(machine.num_processors());
                        let reference = evaluated_counts(
                            &placement,
                            &lattice,
                            dst_replicated,
                            machine,
                            &mut pairs,
                        );
                        let compiled = Traversals::new(machine, &mut TrafficScratch::default())
                            .compiled(&placement, &lattice, dst_replicated)
                            .unwrap_or_else(|| panic!("{label}: separable scenario fell back"));
                        compiled_hits += 1;
                        assert_eq!(compiled, reference, "{label}");
                        assert_eq!(sampling(), before, "{label}: neither books a counter");
                    }
                }
            }
        }
        // 4² rank-2 align pairs + 2² rank-1 pairs, each on 4 machines and 2
        // sampling options.
        assert_eq!(compiled_hits, (16 + 4) * 4 * 2, "fast-path coverage");
    }

    #[test]
    fn tabulated_stays_equal_the_per_element_count() {
        // One traversal at a time, as a one-run cache: the elements
        // `total_elements` reads from the stay tables (or, for a traversal
        // that is not separable, from the class product — or element by
        // element where that does not compile either: a skew) must be the
        // per-element comparison's, to the bit.
        use align_ir::Affine;
        use alignment_core::position::OffsetAlign;
        // A rank-`rank` object on the 2-D template, shifted.
        let shifted = |rank: usize, shift: [i64; 2]| {
            let mut a = PortAlignment::identity(rank, 2);
            for (t, &d) in shift.iter().enumerate() {
                a.offsets[t] = OffsetAlign::Fixed(Affine::constant(d));
            }
            a
        };
        let plain = PortAlignment::identity(2, 2);
        let mut transposed = plain.clone();
        transposed.axis_map = vec![1, 0];
        let mut skewed = plain.clone();
        skewed.axis_map = vec![0, 0];
        let mut strided = shifted(2, [1, 0]);
        strided.strides[1] = Affine::constant(2);
        let mut replicated = PortAlignment::identity(1, 2);
        replicated.offsets[1] = OffsetAlign::Replicated;
        let mut moved_replica = replicated.clone();
        moved_replica.offsets[0] = OffsetAlign::Fixed(Affine::constant(3));
        let on_axis_1 = {
            let mut a = PortAlignment::identity(1, 2);
            a.axis_map = vec![1];
            a
        };
        // Body axis 0 sits at cell 5 of axis 0 and at cell 0 of axis 1.
        let mut collapsed = on_axis_1.clone();
        collapsed.strides[0] = Affine::constant(0);
        collapsed.offsets[0] = OffsetAlign::Fixed(Affine::constant(5));
        let exact = SimOptions::exact();
        let coarse = SimOptions::sampled(24, 512);
        let block = Machine::new(vec![2, 4], vec![4, 3]);
        let cases: Vec<(
            &str,
            &PortAlignment,
            PortAlignment,
            Machine,
            SimOptions,
            bool,
        )> = vec![
            (
                "shift",
                &plain,
                shifted(2, [1, -2]),
                block.clone(),
                exact,
                true,
            ),
            ("transpose", &plain, transposed, block.clone(), exact, false),
            ("skew", &plain, skewed, block.clone(), exact, false),
            (
                "stride 2",
                &plain,
                strided.clone(),
                block.clone(),
                exact,
                true,
            ),
            (
                "lattice stride 3",
                &plain,
                strided,
                block.clone(),
                coarse,
                true,
            ),
            (
                "replicated destination",
                &on_axis_1,
                replicated.clone(),
                block.clone(),
                exact,
                true,
            ),
            (
                "replicated source",
                &replicated,
                moved_replica,
                block.clone(),
                exact,
                true,
            ),
            (
                "fixed against driven",
                &on_axis_1,
                collapsed,
                Machine::cyclic(vec![2, 4]),
                exact,
                true,
            ),
            (
                "moved across axes",
                &on_axis_1,
                shifted(1, [0, 0]),
                Machine::cyclic(vec![2, 4]),
                exact,
                false,
            ),
            (
                "cover above the template",
                &plain,
                shifted(2, [1, 1]),
                Machine::new(vec![2, 2, 2], vec![4, 3, 1]),
                exact,
                true,
            ),
            (
                "g = 1",
                &plain,
                shifted(2, [1, 1]),
                Machine::new(vec![1, 8], vec![5, 2]),
                exact,
                true,
            ),
            (
                "g over 1 024",
                &plain,
                shifted(2, [0, 1]),
                Machine::cyclic(vec![1, 1500]),
                exact,
                true,
            ),
        ];
        let counter = |name| trace::counter(name);
        for (label, src, dst, machine, opts, separable) in cases {
            let extents: Vec<i64> = vec![13, 9][..src.rank()].to_vec();
            let total = extents.iter().product::<i64>() as usize;
            let lattice = SampleLattice::new(&extents, opts.element_budget(total));
            let dst_replicated = dst.offsets.iter().any(OffsetAlign::is_replicated)
                && !src.offsets.iter().any(OffsetAlign::is_replicated);
            let placement = PointPlacement {
                src: PosEval::new(src, &[]),
                dst: PosEval::new(&dst, &[]),
                extents,
            };
            let want = evaluated_counts(
                &placement,
                &lattice,
                dst_replicated,
                &machine,
                &mut PairSet::new(machine.num_processors()),
            );
            let scale = lattice.size.scale;
            let cache = PlacementCache::from_parts(
                vec![CachedTraversal {
                    placement,
                    lattice,
                    dst_replicated,
                    stay: None,
                }],
                vec![CachedEdge {
                    id: EdgeId(0),
                    weight: 1.0,
                    runs: vec![(0, 1)],
                }],
            );
            let stay = cache.traversals[0].stay;
            assert_eq!(
                stay.is_some(),
                separable && !dst_replicated,
                "{label}: separable"
            );
            let before = counter("commsim.cache.evaluated_traversals");
            let got = cache.total_elements(&machine);
            let wanted = repeat_add(0.0, scale, want.moved + want.broadcast);
            assert_eq!(
                got.to_bits(),
                wanted.to_bits(),
                "{label}: {got} != {wanted}"
            );
            assert_eq!(
                counter("commsim.cache.evaluated_traversals") - before,
                u64::from(label == "skew"),
                "{label}: traversals evaluated element by element"
            );
            assert!(
                want.moved + want.broadcast > 0,
                "{label}: the case moves data"
            );
        }
    }
}
