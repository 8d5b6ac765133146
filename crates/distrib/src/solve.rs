//! Search over (grid shape, per-axis layout) candidates.
//!
//! The candidate space — ordered factorisations of the processor count times
//! a handful of layouts per axis — is enumerated in full. It stays small:
//! the 2-D programs of EXPERIMENTS E16 peak at 96 candidates at 4 096
//! processors, and a 3-D template of 513³ cells first passes 4 096
//! candidates at 1 024 processors.

use crate::cost::{DistributionCost, DistributionCostModel};
use crate::distribution::ProgramDistribution;
use crate::grid::enumerate_grids;
use crate::layout::Layout;
use adg::Adg;
use alignment_core::position::ProgramAlignment;
use std::fmt;

/// Candidate block sizes for `BlockCyclic` layouts (besides the implicit
/// `Block` and `Cyclic` endpoints).
pub const BLOCK_SIZES: [usize; 3] = [2, 4, 8];

/// How many ranked distributions a [`DistributionReport`] keeps.
pub const TOP_K: usize = 8;

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
    /// Its modelled cost.
    pub cost: DistributionCost,
}

/// The solver's output: candidates ranked by modelled cost, cheapest first.
#[derive(Debug, Clone)]
pub struct DistributionReport {
    /// Processor count the search distributed over.
    pub nprocs: usize,
    /// Template extents the candidates cover.
    pub template_extents: Vec<i64>,
    /// Ranked candidates, ascending cost (at most [`TOP_K`]).
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
                "  #{:<2} {}  [total {:.1}: {}]",
                i + 1,
                r.distribution,
                r.cost.total(),
                r.cost
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

/// Price every (grid, layout) candidate of an aligned program over
/// `config.nprocs` processors and rank them, cheapest first. The whole
/// signature space is enumerated, so the report's best is the model's
/// optimum.
pub fn solve_distribution(
    adg: &Adg,
    alignment: &ProgramAlignment,
    config: &SolveConfig,
) -> DistributionReport {
    let model = DistributionCostModel::new(adg, alignment);
    let extents = model.template_extents();
    solve_distribution_pooled(std::slice::from_ref(&model), &extents, config)
}

/// Search the (grid, layout) space once for a *pool* of cost models sharing
/// one template: each candidate is priced by every model (on the shared
/// `extents`) and the models' costs summed. The phase pipeline uses this to
/// search a whole phase — all its atoms — with a **single** enumeration of
/// the signature space on the phase's covering template, instead of
/// re-enumerating the same grids and layouts per atom.
pub fn solve_distribution_pooled(
    models: &[DistributionCostModel<'_>],
    extents: &[i64],
    config: &SolveConfig,
) -> DistributionReport {
    assert!(!models.is_empty(), "need at least one cost model");
    let _span = trace::span("distrib.solve");
    trace::count("distrib.solves", 1);
    let space = SignatureSpace::enumerate(extents, config);
    trace::record_value("distrib.signature_space", space.total_candidates as f64);

    let mut ranked: Vec<RankedDistribution> = Vec::new();
    for (grid, candidates) in space.grids.iter().zip(&space.per_grid_layouts) {
        for layouts in cartesian(candidates) {
            let distribution = ProgramDistribution::new(extents, grid, &layouts);
            let cost = models
                .iter()
                .map(|m| m.cost(&distribution))
                .fold(DistributionCost::default(), |a, b| a.plus(&b));
            ranked.push(RankedDistribution { distribution, cost });
        }
    }
    let evaluated = ranked.len();
    rank_distributions(&mut ranked);
    ranked.truncate(TOP_K);

    trace::count("distrib.candidates_evaluated", evaluated as u64);
    DistributionReport {
        nprocs: config.nprocs,
        template_extents: extents.to_vec(),
        ranked,
        candidates_evaluated: evaluated,
    }
}

/// Rank candidates cheapest-first and drop repeated distributions. Among
/// equal costs the most compact grid wins (smallest maximum dimension —
/// squarer grids keep future communication surfaces small), then remaining
/// ties break deterministically on the shape so golden tests are stable
/// across runs and platforms. The phase pipeline ranks its pool-priced
/// reports with this rule too, so a single-phase program's `best()` is the
/// static choice.
pub fn rank_distributions(ranked: &mut Vec<RankedDistribution>) {
    // The key is computed once per candidate (totals are non-negative, so
    // their bit patterns order like the floats themselves).
    ranked.sort_by_cached_key(|r| {
        let grid = r.distribution.grid();
        (
            r.cost.total().max(0.0).to_bits(),
            grid.iter().copied().max().unwrap_or(1),
            grid,
            r.distribution.to_string(),
        )
    });
    ranked.dedup_by(|a, b| a.distribution == b.distribution);
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
    use alignment_core::pipeline::{align_program, PipelineConfig};

    #[test]
    fn report_is_ranked_ascending() {
        let (adg, result) =
            align_program(&align_ir::programs::figure1(16), &PipelineConfig::default());
        let report = solve_distribution(&adg, &result.alignment, &SolveConfig::new(16));
        assert!(!report.ranked.is_empty());
        for pair in report.ranked.windows(2) {
            assert!(pair[0].cost.total() <= pair[1].cost.total() + 1e-12);
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
        assert_eq!(report.best().cost.total(), 0.0);
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
