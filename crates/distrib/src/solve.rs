//! Search over (grid shape, per-axis layout) candidates.
//!
//! The candidate space — ordered factorisations of the processor count times
//! a handful of layouts per axis — is enumerated in full. It stays small:
//! the 2-D programs of EXPERIMENTS E16 peak at 96 candidates at 4 096
//! processors, and a 3-D template of 513³ cells first passes 4 096
//! candidates at 1 024 processors.
//!
//! A candidate is ranked by the elements it moves, counted by `commsim`'s
//! [`PlacementCache`]: the number every plan is priced in. Load imbalance
//! and broadcast fan-out are not priced; ARCHITECTURE.md ("The objective")
//! says where that is blind.

use crate::distribution::ProgramDistribution;
use crate::grid::enumerate_grids;
use crate::layout::Layout;
use adg::Adg;
use alignment_core::position::ProgramAlignment;
use alignment_core::CostModel;
use commsim::{PlacementCache, SimOptions, TrafficScratch};
use std::fmt;

/// Candidate block sizes for `BlockCyclic` layouts (besides the implicit
/// `Block` and `Cyclic` endpoints).
pub const BLOCK_SIZES: [usize; 3] = [2, 4, 8];

/// How many ranked distributions a [`DistributionReport`] keeps.
pub const TOP_K: usize = 8;

/// Iteration points per edge a template's extents are measured on
/// ([`template_extents`]).
pub const TEMPLATE_POINTS_PER_EDGE: usize = 128;

/// Configuration of the distribution search: the processor count. The
/// candidate space ([`BLOCK_SIZES`]) and the report length ([`TOP_K`]) are
/// fixed.
#[derive(Debug, Clone)]
pub struct SolveConfig {
    /// Total number of physical processors to distribute over.
    pub nprocs: usize,
}

impl SolveConfig {
    /// The search for a given processor count.
    pub fn new(nprocs: usize) -> Self {
        SolveConfig { nprocs }
    }
}

/// One scored candidate.
#[derive(Debug, Clone)]
pub struct RankedDistribution {
    /// The distribution.
    pub distribution: ProgramDistribution,
    /// Elements it moves, summed over the caches it was priced on.
    pub elements: f64,
}

/// The solver's output: candidates ranked by elements moved, cheapest
/// first.
#[derive(Debug, Clone)]
pub struct DistributionReport {
    /// Processor count the search distributed over.
    pub nprocs: usize,
    /// Template extents the candidates cover.
    pub template_extents: Vec<i64>,
    /// Ranked candidates, ascending elements (at most [`TOP_K`]).
    pub ranked: Vec<RankedDistribution>,
    /// Number of candidates priced: the whole signature space.
    pub candidates_evaluated: usize,
}

impl DistributionReport {
    /// The cheapest distribution found. Panics only if the template rank was
    /// zero *and* no processors fit, which `solve_distribution` never emits.
    pub fn best(&self) -> &RankedDistribution {
        &self.ranked[0]
    }
}

impl fmt::Display for DistributionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "distribution report: {} processors, template {:?}, {} candidates",
            self.nprocs, self.template_extents, self.candidates_evaluated,
        )?;
        for (i, r) in self.ranked.iter().enumerate() {
            writeln!(
                f,
                "  #{:<2} {}  [{:.1} elements]",
                i + 1,
                r.distribution,
                r.elements
            )?;
        }
        Ok(())
    }
}

/// Candidate layouts for one axis: `Block`, `Cyclic`, and each configured
/// block size that is neither (1 < b < the axis's natural block).
fn axis_layout_candidates(extent: i64, g: usize, block_sizes: &[usize]) -> Vec<Layout> {
    if g <= 1 {
        // One processor owns the whole axis; every layout is equivalent.
        return vec![Layout::Block];
    }
    let natural = (extent + g as i64 - 1) / g as i64;
    let mut out = vec![Layout::Block, Layout::Cyclic];
    for &b in block_sizes {
        if b > 1 && (b as i64) < natural {
            out.push(Layout::BlockCyclic(b));
        }
    }
    out
}

/// The enumerable (grid, per-axis layout) signature space of a template:
/// every grid shape of `config.nprocs` processors paired with its per-axis
/// layout candidate lists. Shared by [`solve_distribution`] and the phase
/// pipeline, which enumerates the space **once per phase** instead of once
/// per atom.
pub struct SignatureSpace {
    /// Grid shapes (`∏ = nprocs`).
    pub grids: Vec<Vec<usize>>,
    /// Per-grid, per-axis layout candidates.
    pub per_grid_layouts: Vec<Vec<Vec<Layout>>>,
    /// Total number of (grid, layout) candidates in the space.
    pub total_candidates: usize,
}

impl SignatureSpace {
    /// Enumerate the space for a template with the given extents.
    pub fn enumerate(extents: &[i64], config: &SolveConfig) -> SignatureSpace {
        let t = extents.len();
        assert!(t > 0, "cannot distribute a rank-0 template");
        assert!(config.nprocs > 0, "need at least one processor");
        let grids = enumerate_grids(config.nprocs, t);
        let per_grid_layouts: Vec<Vec<Vec<Layout>>> = grids
            .iter()
            .map(|grid| {
                (0..t)
                    .map(|ax| axis_layout_candidates(extents[ax], grid[ax], &BLOCK_SIZES))
                    .collect()
            })
            .collect();
        let total_candidates: usize = per_grid_layouts
            .iter()
            .map(|axes| axes.iter().map(Vec::len).product::<usize>())
            .sum();
        SignatureSpace {
            grids,
            per_grid_layouts,
            total_candidates,
        }
    }
}

/// The template extents a distribution of an aligned program covers,
/// measured on at most [`TEMPLATE_POINTS_PER_EDGE`] iteration points per
/// edge ([`CostModel::template_extents`]).
pub fn template_extents(adg: &Adg, alignment: &ProgramAlignment) -> Vec<i64> {
    let _span = trace::span("distrib.template_extents");
    CostModel::new(adg).template_extents(alignment, TEMPLATE_POINTS_PER_EDGE)
}

/// Price every (grid, layout) candidate of an aligned program over
/// `config.nprocs` processors by the exact elements it moves and rank them,
/// cheapest first. The whole signature space is enumerated, so the report's
/// best is the exact optimum.
pub fn solve_distribution(
    adg: &Adg,
    alignment: &ProgramAlignment,
    config: &SolveConfig,
) -> DistributionReport {
    let cache = PlacementCache::new(adg, alignment, SimOptions::exact());
    let extents = template_extents(adg, alignment);
    solve_distribution_pooled(std::slice::from_ref(&cache), &extents, config)
}

/// Search the (grid, layout) space once for a *pool* of placement caches
/// sharing one template: each candidate is priced on every cache (on the
/// shared `extents`) and the elements summed. The phase pipeline uses this
/// to search a whole phase — all its atoms — with a **single** enumeration
/// of the signature space on the phase's covering template.
pub fn solve_distribution_pooled(
    caches: &[PlacementCache],
    extents: &[i64],
    config: &SolveConfig,
) -> DistributionReport {
    let mut ranked = rank_signature_space(caches, extents, config);
    let evaluated = ranked.len();
    ranked.truncate(TOP_K);
    DistributionReport {
        nprocs: config.nprocs,
        template_extents: extents.to_vec(),
        ranked,
        candidates_evaluated: evaluated,
    }
}

/// Every candidate of the signature space on `extents`, priced by the
/// elements it moves summed over `caches` and ranked by
/// [`rank_distributions`] — the whole space, which
/// [`solve_distribution_pooled`] cuts to [`TOP_K`]. One workspace serves
/// every candidate and cache.
pub fn rank_signature_space(
    caches: &[PlacementCache],
    extents: &[i64],
    config: &SolveConfig,
) -> Vec<RankedDistribution> {
    assert!(!caches.is_empty(), "need at least one placement cache");
    let _span = trace::span("distrib.solve");
    trace::count("distrib.solves", 1);
    let space = SignatureSpace::enumerate(extents, config);
    trace::record_value("distrib.signature_space", space.total_candidates as f64);

    let mut scratch = TrafficScratch::default();
    let mut ranked: Vec<RankedDistribution> = Vec::with_capacity(space.total_candidates);
    for (grid, candidates) in space.grids.iter().zip(&space.per_grid_layouts) {
        for layouts in cartesian(candidates) {
            let distribution = ProgramDistribution::new(extents, grid, &layouts);
            let elements = (caches.iter())
                .map(|c| c.total_elements_with(&distribution, &mut scratch))
                .sum();
            ranked.push(RankedDistribution {
                distribution,
                elements,
            });
        }
    }
    trace::count("distrib.candidates_evaluated", ranked.len() as u64);
    rank_distributions(&mut ranked);
    ranked
}

/// Rank candidates cheapest-first and drop repeated distributions. Among
/// equal costs the most compact grid wins (smallest maximum dimension —
/// squarer grids keep future communication surfaces small), then remaining
/// ties break deterministically on the grid and then on the per-axis
/// layouts (`layout_rank`), so golden tests are stable across runs and
/// platforms. The phase pipeline ranks its pool-priced reports with this
/// rule too, so a single-phase program's `best()` is the static choice.
pub fn rank_distributions(ranked: &mut Vec<RankedDistribution>) {
    // Totals are non-negative, so their bit patterns order like the floats
    // themselves; the key is read straight from each candidate's axes, so
    // ranking allocates nothing per candidate.
    fn grid(d: &ProgramDistribution) -> impl Iterator<Item = usize> + '_ {
        d.axes.iter().map(|a| a.nprocs)
    }
    fn layouts(d: &ProgramDistribution) -> impl Iterator<Item = usize> + '_ {
        d.axes.iter().map(|a| layout_rank(a.layout))
    }
    ranked.sort_by(|a, b| {
        let (da, db) = (&a.distribution, &b.distribution);
        (a.elements.max(0.0).to_bits())
            .cmp(&b.elements.max(0.0).to_bits())
            .then_with(|| grid(da).max().cmp(&grid(db).max()))
            .then_with(|| grid(da).cmp(grid(db)))
            .then_with(|| layouts(da).cmp(layouts(db)))
    });
    ranked.dedup_by(|a, b| a.distribution == b.distribution);
}

/// The order ties between equally cheap layouts of one grid break in:
/// `BLOCK` < `CYCLIC(2)` < `CYCLIC(4)` < `CYCLIC(8)` < `CYCLIC`.
fn layout_rank(layout: Layout) -> usize {
    match layout {
        Layout::Block => 0,
        Layout::BlockCyclic(b) => b,
        Layout::Cyclic => usize::MAX,
    }
}

/// Cartesian product of per-axis candidate lists.
fn cartesian(axes: &[Vec<Layout>]) -> Vec<Vec<Layout>> {
    let mut out: Vec<Vec<Layout>> = vec![Vec::new()];
    for choices in axes {
        out = out
            .into_iter()
            .flat_map(|prefix| {
                choices.iter().map(move |&l| {
                    let mut next = prefix.clone();
                    next.push(l);
                    next
                })
            })
            .collect();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use adg::build_adg;
    use align_ir::programs;
    use alignment_core::pipeline::{align_program, PipelineConfig};
    use alignment_core::position::OffsetAlign;

    fn identity(adg: &Adg, t: usize) -> ProgramAlignment {
        let ranks: Vec<usize> = adg.port_ids().map(|p| adg.port(p).rank).collect();
        ProgramAlignment::identity(t, &ranks)
    }

    /// Exact elements `alignment` moves under `dist`.
    fn elements(adg: &Adg, alignment: &ProgramAlignment, dist: &ProgramDistribution) -> f64 {
        PlacementCache::new(adg, alignment, SimOptions::exact()).total_elements(dist)
    }

    #[test]
    fn aligned_program_on_any_distribution_moves_nothing() {
        // example1 aligned: no residual communication, so every
        // distribution moves nothing and the ranking is decided by ties.
        let (adg, result) = align_program(&programs::example1(64), &PipelineConfig::default());
        let extents = template_extents(&adg, &result.alignment);
        for layout in [Layout::Block, Layout::Cyclic, Layout::BlockCyclic(4)] {
            let d = ProgramDistribution::new(&extents, &[4], &[layout]);
            assert_eq!(elements(&adg, &result.alignment, &d), 0.0, "{layout}");
        }
    }

    #[test]
    fn block_beats_cyclic_for_unit_shifts() {
        // Shift B's section-value port by one cell (the edge misalignment
        // example1 exists to create): block layouts only move boundary
        // elements, cyclic moves everything.
        use align_ir::Affine;
        let adg = build_adg(&programs::example1(64));
        let mut a = identity(&adg, 1);
        let (pid, _) = adg
            .ports()
            .find(|(_, p)| p.label.contains("B(2:"))
            .expect("section def port for B");
        a.ports[pid.0].offsets[0] = OffsetAlign::Fixed(Affine::constant(1));
        let ext = template_extents(&adg, &a);
        let block = elements(
            &adg,
            &a,
            &ProgramDistribution::new(&ext, &[4], &[Layout::Block]),
        );
        let cyclic = elements(
            &adg,
            &a,
            &ProgramDistribution::new(&ext, &[4], &[Layout::Cyclic]),
        );
        assert!(
            block > 0.0 && block < cyclic / 4.0,
            "block {block} vs cyclic {cyclic}"
        );
    }

    #[test]
    fn single_processor_grid_is_communication_free() {
        let adg = build_adg(&programs::figure1(16));
        let a = identity(&adg, 2);
        let ext = template_extents(&adg, &a);
        let d = ProgramDistribution::new(&ext, &[1, 1], &[Layout::Block, Layout::Block]);
        assert_eq!(elements(&adg, &a, &d), 0.0);
    }

    #[test]
    fn template_is_measured_on_128_points_per_edge() {
        // One edge over `do k = 1, 32; do j = 1, 32`, its tail sliding to
        // cell `k - j`: every 8th of the 1 024 points (`j` in {1, 9, 17,
        // 25}) plus the last is measured, so the template reaches `k - j`
        // down to -24, not the nest's -31.
        use adg::NodeKind;
        use align_ir::triplet::AffineTriplet;
        use align_ir::{Affine, ArrayId, IterationSpace, LivId, Triplet, WeightPoly};
        let (k, j) = (LivId(0), LivId(1));
        let space = IterationSpace::single_loop(k, 1, 32, 1)
            .enter_loop(j, AffineTriplet::constant(Triplet::range(1, 32)));
        let mut g = Adg::new("nest");
        let src = g.add_node(NodeKind::Source { array: ArrayId(0) }, space.clone());
        let dst = g.add_node(NodeKind::Sink { array: ArrayId(0) }, space.clone());
        let d = g.add_port(src, 0, vec![], None, true, "d");
        let u = g.add_port(dst, 0, vec![], None, false, "u");
        g.add_edge(d, u, WeightPoly::constant(1), space, 1.0);
        let mut a = ProgramAlignment::identity(1, &[0, 0]);
        a.ports[d.0].offsets[0] = OffsetAlign::Fixed(Affine::new(0, [(k, 1), (j, -1)]));

        assert_eq!(template_extents(&g, &a), vec![56]);
        assert_eq!(
            CostModel::new(&g).template_extents(&a, usize::MAX),
            vec![63]
        );
    }

    #[test]
    fn report_is_ranked_ascending() {
        let (adg, result) =
            align_program(&align_ir::programs::figure1(16), &PipelineConfig::default());
        let report = solve_distribution(&adg, &result.alignment, &SolveConfig::new(16));
        assert!(!report.ranked.is_empty());
        for pair in report.ranked.windows(2) {
            assert!(pair[0].elements <= pair[1].elements);
        }
        assert_eq!(report.nprocs, 16);
        let space = SignatureSpace::enumerate(&report.template_extents, &SolveConfig::new(16));
        assert_eq!(report.candidates_evaluated, space.total_candidates);
    }

    #[test]
    fn best_distribution_uses_all_processors() {
        let (adg, result) =
            align_program(&align_ir::programs::figure1(16), &PipelineConfig::default());
        let report = solve_distribution(&adg, &result.alignment, &SolveConfig::new(16));
        let best = report.best();
        assert_eq!(
            best.distribution.grid().iter().product::<usize>(),
            16,
            "{}",
            best.distribution
        );
    }

    #[test]
    fn one_processor_solution_is_free() {
        let (adg, result) = align_program(
            &align_ir::programs::example1(32),
            &PipelineConfig::default(),
        );
        let report = solve_distribution(&adg, &result.alignment, &SolveConfig::new(1));
        assert_eq!(report.best().elements, 0.0);
    }

    #[test]
    fn layout_candidates_respect_axis_width() {
        // g=1 collapses to a single candidate; block sizes >= the natural
        // block are dropped (they alias Block).
        assert_eq!(axis_layout_candidates(64, 1, &[2, 4]), vec![Layout::Block]);
        let c = axis_layout_candidates(8, 4, &[2, 4, 8]);
        assert!(c.contains(&Layout::Block) && c.contains(&Layout::Cyclic));
        assert!(!c.contains(&Layout::BlockCyclic(4)), "4 >= natural block 2");
        assert!(!c.contains(&Layout::BlockCyclic(8)));
    }

    #[test]
    fn cartesian_product_size() {
        let axes = vec![
            vec![Layout::Block, Layout::Cyclic],
            vec![Layout::Block, Layout::Cyclic, Layout::BlockCyclic(2)],
        ];
        assert_eq!(cartesian(&axes).len(), 6);
    }
}
