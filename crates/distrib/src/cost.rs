//! The distribution cost model: what a candidate (grid, layout) pair costs
//! on top of a fixed alignment.
//!
//! The alignment cost model (`alignment_core::CostModel`) prices residual
//! communication in *template* terms: grid-metric shift distances, broadcast
//! volumes, general-communication volumes. This module translates those into
//! *machine* terms for a concrete [`ProgramDistribution`]:
//!
//! * a shift by `d` along an axis only moves the elements whose owning
//!   processor changes — a `1/block` fraction under a block layout,
//!   everything under a cyclic layout
//!   ([`crate::layout::AxisDistribution::moved_fraction`]);
//! * a broadcast into a replicated axis costs one tree stage per
//!   `log2(grid)` doubling along that axis;
//! * an axis or stride mismatch is an all-to-all redistribution: every
//!   element moves with probability `(p-1)/p`, weighted by a routing factor;
//! * uneven per-processor cell counts serialise the computation itself,
//!   charged as the template's worst per-axis load imbalance times the total
//!   data volume.
//!
//! The model is deliberately cheaper than running the `commsim` simulator on
//! every candidate — the solver evaluates hundreds of (grid, layout) pairs —
//! and the simulator remains the exact cross-check (see the golden tests).

use crate::distribution::ProgramDistribution;
use adg::Adg;
use alignment_core::position::{OffsetAlign, ProgramAlignment};
use alignment_core::CostModel;
use commsim::TemplateDistribution;
use std::collections::HashMap;

/// Per-element routing penalty of general (all-to-all) communication.
pub const GENERAL_FACTOR: f64 = 4.0;
/// Per-element cost of one broadcast tree stage.
pub const BROADCAST_HOP_COST: f64 = 1.0;
/// Weight of compute load imbalance relative to communication.
pub const IMBALANCE_WEIGHT: f64 = 1.0;
/// Iteration points sampled per edge (longer loops are strided). The sample
/// is taken once, when the [`DistributionCostModel`] is built, and the model
/// measures its template on the same points.
pub const MAX_POINTS_PER_EDGE: usize = 128;

/// A distribution cost, broken down by source.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DistributionCost {
    /// Element moves from offset shifts crossing ownership boundaries.
    pub shift: f64,
    /// Element·stage volume of broadcasts into replicated axes.
    pub broadcast: f64,
    /// Element moves from axis/stride mismatches (all-to-all routing).
    pub general: f64,
    /// Load-imbalance penalty (idle-processor work, in element units).
    pub imbalance: f64,
}

impl DistributionCost {
    /// The scalar the solver ranks by.
    pub fn total(&self) -> f64 {
        self.shift + self.broadcast + self.general + self.imbalance
    }

    /// True when the distribution induces no cost at all.
    pub fn is_zero(&self) -> bool {
        self.total() == 0.0
    }

    /// Componentwise sum — pooling per-atom costs into a phase cost.
    pub fn plus(&self, other: &DistributionCost) -> DistributionCost {
        DistributionCost {
            shift: self.shift + other.shift,
            broadcast: self.broadcast + other.broadcast,
            general: self.general + other.general,
            imbalance: self.imbalance + other.imbalance,
        }
    }
}

impl std::fmt::Display for DistributionCost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "shift={:.1} broadcast={:.1} general={:.1} imbalance={:.1}",
            self.shift, self.broadcast, self.general, self.imbalance
        )
    }
}

/// What one (edge, iteration point) contributes along one template axis,
/// independent of any candidate distribution.
#[derive(Debug, Clone, Copy)]
enum AxisEffect {
    /// Both ends fixed: a grid-metric shift, by the `(axis, distance)` pair
    /// at this index of the model's shift table.
    Shift(usize),
    /// Fixed tail into a replicated head: a broadcast along the axis.
    Broadcast,
    /// No communication (zero distance, or replicated tail).
    Free,
}

/// One sampled (edge, iteration point), pre-evaluated against the alignment.
#[derive(Debug, Clone)]
struct SampledPoint {
    /// Data weight (element count x control weight x sampling scale).
    weight: f64,
    /// Axis/stride mismatch: the whole object is redistributed.
    mismatch: bool,
    /// Where this sample's per-template-axis effects end in the model's
    /// effect list; they start where the previous sample's end (none when
    /// `mismatch`).
    effects_end: usize,
}

/// Prices candidate distributions for one (ADG, alignment) pair.
///
/// The solver prices hundreds to thousands of (grid, layout) candidates, so
/// everything that depends only on the ADG and the alignment — iteration
/// points, weights, offset distances — is evaluated once at construction
/// (sampling long loops down to [`MAX_POINTS_PER_EDGE`] per edge) into three
/// flat lists: the samples, all samples' per-axis effects one after another,
/// and the distinct `(axis, distance)` pairs the effects shift by. Pricing a
/// candidate asks it once per distinct pair what fraction of the elements
/// such a shift moves, then makes a single pass over the samples.
pub struct DistributionCostModel<'a> {
    adg: &'a Adg,
    alignment: &'a ProgramAlignment,
    samples: Vec<SampledPoint>,
    effects: Vec<AxisEffect>,
    shifts: Vec<(usize, i64)>,
    /// Total data volume over all edges (the imbalance scale factor).
    total_volume: f64,
}

impl<'a> DistributionCostModel<'a> {
    /// Build the model of an aligned program.
    pub fn new(adg: &'a Adg, alignment: &'a ProgramAlignment) -> Self {
        let _span = trace::span("distrib.model.build");
        let mut samples = Vec::new();
        let mut effects = Vec::new();
        let mut shifts = Vec::new();
        let mut shift_ids: HashMap<(usize, i64), usize> = HashMap::new();
        for (_, edge) in adg.edges() {
            let src = alignment.port(edge.src);
            let dst = alignment.port(edge.dst);
            let total = edge.space.size() as usize;
            if total == 0 {
                continue;
            }
            let stride = (total / MAX_POINTS_PER_EDGE).max(1);
            let scale = stride as f64;
            let mut idx = 0usize;
            edge.space.for_each_point(|point| {
                let take = idx.is_multiple_of(stride);
                idx += 1;
                if !take {
                    return;
                }
                let w = edge.weight.eval(point) as f64 * edge.control_weight * scale;
                if w == 0.0 {
                    return;
                }
                // Axis / stride agreement (the discrete metric): any mismatch
                // redistributes the whole object arbitrarily.
                let rank = src.rank().min(dst.rank());
                let mismatch = src.rank() != dst.rank()
                    || (0..rank).any(|b| {
                        src.axis_map.get(b) != dst.axis_map.get(b)
                            || src.strides[b].eval_assoc(point) != dst.strides[b].eval_assoc(point)
                    });
                if !mismatch {
                    let ends = src.offsets.iter().zip(&dst.offsets).enumerate();
                    effects.extend(ends.map(|(axis, ends)| match ends {
                        (OffsetAlign::Fixed(a), OffsetAlign::Fixed(b)) => {
                            match a.eval_assoc(point) - b.eval_assoc(point) {
                                0 => AxisEffect::Free,
                                d => AxisEffect::Shift(*shift_ids.entry((axis, d)).or_insert_with(
                                    || {
                                        shifts.push((axis, d));
                                        shifts.len() - 1
                                    },
                                )),
                            }
                        }
                        (OffsetAlign::Fixed(_), OffsetAlign::Replicated) => AxisEffect::Broadcast,
                        (OffsetAlign::Replicated, _) => AxisEffect::Free,
                    }));
                }
                samples.push(SampledPoint {
                    weight: w,
                    mismatch,
                    effects_end: effects.len(),
                });
            });
        }
        DistributionCostModel {
            adg,
            alignment,
            samples,
            effects,
            shifts,
            total_volume: adg.total_edge_data(),
        }
    }

    /// Estimated template extents under the alignment (the shape candidate
    /// distributions must cover), measured on the points the model samples.
    pub fn template_extents(&self) -> Vec<i64> {
        let _span = trace::span("distrib.template_extents");
        CostModel::new(self.adg).template_extents(self.alignment, MAX_POINTS_PER_EDGE)
    }

    /// Price one candidate distribution.
    pub fn cost(&self, dist: &ProgramDistribution) -> DistributionCost {
        let p = dist.num_processors() as f64;
        let t = dist.template_rank();
        // moved_fraction is O(period) per shift distance: taken once per
        // distinct (axis, distance) ahead of the walk. A pair on an axis the
        // candidate does not have is never read.
        let moved: Vec<f64> = self
            .shifts
            .iter()
            .map(|&(axis, d)| dist.axes.get(axis).map_or(0.0, |a| a.moved_fraction(d)))
            .collect();
        let mut cost = DistributionCost::default();

        let mut start = 0;
        for sample in &self.samples {
            let w = sample.weight;
            let effects = &self.effects[start..sample.effects_end];
            start = sample.effects_end;
            if sample.mismatch {
                cost.general += w * (p - 1.0) / p * GENERAL_FACTOR;
                continue;
            }
            for (axis, effect) in effects.iter().enumerate().take(t) {
                match *effect {
                    AxisEffect::Shift(pair) => cost.shift += w * moved[pair],
                    AxisEffect::Broadcast => {
                        // A broadcast tree doubles reached processors per
                        // stage along the replicated axis.
                        let g_axis = dist.axes[axis].nprocs;
                        let stages = (g_axis.max(1) as f64).log2().ceil();
                        cost.broadcast += w * stages * BROADCAST_HOP_COST;
                    }
                    AxisEffect::Free => {}
                }
            }
        }

        cost.imbalance = dist.imbalance() * self.total_volume * IMBALANCE_WEIGHT;
        cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::Layout;
    use adg::build_adg;
    use align_ir::programs;
    use alignment_core::pipeline::{align_program, PipelineConfig};

    fn identity(adg: &Adg, t: usize) -> ProgramAlignment {
        let ranks: Vec<usize> = adg.port_ids().map(|p| adg.port(p).rank).collect();
        ProgramAlignment::identity(t, &ranks)
    }

    #[test]
    fn aligned_program_on_any_distribution_has_no_shift_cost() {
        // example1 aligned: no residual communication, so every distribution
        // is communication-free and differs only in imbalance.
        let (adg, result) = align_program(&programs::example1(64), &PipelineConfig::default());
        let model = DistributionCostModel::new(&adg, &result.alignment);
        for layout in [Layout::Block, Layout::Cyclic, Layout::BlockCyclic(4)] {
            let d = ProgramDistribution::new(&model.template_extents(), &[4], &[layout]);
            let c = model.cost(&d);
            assert_eq!(c.shift, 0.0, "{layout}: {c}");
            assert_eq!(c.general, 0.0, "{layout}: {c}");
            assert_eq!(c.broadcast, 0.0, "{layout}: {c}");
        }
    }

    #[test]
    fn block_beats_cyclic_for_unit_shifts() {
        // Shift B's section-value port by one cell (the edge misalignment
        // example1 exists to create): block layouts only move boundary
        // elements, cyclic moves everything.
        use align_ir::Affine;
        use alignment_core::position::OffsetAlign;
        let adg = build_adg(&programs::example1(64));
        let mut a = identity(&adg, 1);
        let (pid, _) = adg
            .ports()
            .find(|(_, p)| p.label.contains("B(2:"))
            .expect("section def port for B");
        a.ports[pid.0].offsets[0] = OffsetAlign::Fixed(Affine::constant(1));
        let model = DistributionCostModel::new(&adg, &a);
        let ext = model.template_extents();
        let block = model.cost(&ProgramDistribution::new(&ext, &[4], &[Layout::Block]));
        let cyclic = model.cost(&ProgramDistribution::new(&ext, &[4], &[Layout::Cyclic]));
        assert!(
            block.shift < cyclic.shift / 4.0,
            "block {block} vs cyclic {cyclic}"
        );
    }

    #[test]
    fn single_processor_grid_is_communication_free() {
        let adg = build_adg(&programs::figure1(16));
        let a = identity(&adg, 2);
        let model = DistributionCostModel::new(&adg, &a);
        let ext = model.template_extents();
        let d = ProgramDistribution::new(&ext, &[1, 1], &[Layout::Block, Layout::Block]);
        let c = model.cost(&d);
        assert_eq!(c.shift, 0.0, "{c}");
        assert_eq!(c.broadcast, 0.0, "one stage of log2(1) = 0 hops: {c}");
    }

    #[test]
    fn broadcast_scales_with_grid_log() {
        let (adg, result) = align_program(&programs::figure4(16, 8, 4), &PipelineConfig::default());
        let model = DistributionCostModel::new(&adg, &result.alignment);
        let ext = model.template_extents();
        let narrow = model.cost(&ProgramDistribution::new(
            &ext,
            &[4, 2],
            &[Layout::Block, Layout::Block],
        ));
        let wide = model.cost(&ProgramDistribution::new(
            &ext,
            &[1, 8],
            &[Layout::Block, Layout::Block],
        ));
        // Replication in figure4 is along the spread axis; more processors
        // there means more broadcast stages.
        assert!(
            wide.broadcast >= narrow.broadcast,
            "wide {wide} vs narrow {narrow}"
        );
    }

    #[test]
    fn template_is_measured_on_the_points_the_model_samples() {
        // One edge over `do k = 1, 32; do j = 1, 32`, its tail sliding to
        // cell `k - j`: the model samples every 8th of the 1 024 points
        // (`j` in {1, 9, 17, 25}) plus the last, so it sees `k - j` down to
        // -24, not the nest's -31, and must report the template of the
        // points it samples, not of the whole nest.
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

        let sampled = DistributionCostModel::new(&g, &a).template_extents();
        assert_eq!(sampled, vec![56]);
        assert_eq!(
            sampled,
            CostModel::new(&g).template_extents(&a, MAX_POINTS_PER_EDGE)
        );
        assert_eq!(
            CostModel::new(&g).template_extents(&a, usize::MAX),
            vec![63]
        );
    }

    #[test]
    fn imbalance_charged_for_uneven_blocks() {
        let adg = build_adg(&programs::example1(64));
        let a = identity(&adg, 1);
        let model = DistributionCostModel::new(&adg, &a);
        // 65-cell template over 4 procs: last block is short.
        let skew = ProgramDistribution::new(&[65], &[4], &[Layout::Block]);
        let even = ProgramDistribution::new(&[64], &[4], &[Layout::Block]);
        assert!(model.cost(&skew).imbalance > 0.0);
        assert_eq!(model.cost(&even).imbalance, 0.0);
    }
}
