//! The realignment cost model (Section 2.3, Equation 1).
//!
//! The cost of an edge is `Σ_{i ∈ Z_xy} w_xy(i) · d(π_x(i), π_y(i))`: the data
//! weight times the distance between the two port positions, summed over the
//! edge's iteration space. Two metrics are combined, as in the paper:
//!
//! * the **discrete metric** for axis and stride — any mismatch means general
//!   communication for the whole object;
//! * the **grid (L1) metric** for offsets — the cost is the Manhattan
//!   distance between the two positions, summed independently per template
//!   axis (the metric is separable);
//! * additionally, an edge whose tail is non-replicated and whose head is
//!   replicated incurs a **broadcast** of the object (Section 5).
//!
//! Costs are evaluated *exactly*, by enumerating the edge's iteration space;
//! this is the reference the approximate RLP formulations are judged against
//! in the Figure 3 experiments.
//!
//! Besides the edge metrics, [`CostModel::total_cost`] prices **hard
//! node-constraint violations**: an "alignment" that breaks a node's internal
//! relation (a section value not sitting on its section, a transpose output
//! not swapped, elementwise operands on different axes) does not correspond
//! to any executable data placement, so it is charged a penalty that dwarfs
//! every legitimate communication cost. This closes the historical hole where
//! the naive identity assignment — infeasible on almost every program —
//! evaluated as spuriously free because only edges were priced.

use crate::constraints::{affine_mul, NodeConstraints};
use crate::position::{OffsetAlign, PortAlignment, ProgramAlignment};
use adg::{Adg, Edge, EdgeId, NodeKind, PortId};
use align_ir::{Affine, LivId, SectionSpec};
use std::collections::HashSet;
use std::ops::ControlFlow;

/// A communication cost, broken down the way the paper's examples report it.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CommCost {
    /// Element-weighted amount of *general* communication (axis or stride
    /// mismatch: the object must be redistributed arbitrarily).
    pub general: f64,
    /// Element-weighted L1 (grid metric) *shift* distance for offset
    /// mismatches between non-replicated positions.
    pub shift: f64,
    /// Element-weighted volume of *broadcast* communication (data flowing
    /// from a non-replicated tail to a replicated head).
    pub broadcast: f64,
    /// Penalty charged for hard node-constraint violations (already scaled —
    /// see [`CostModel::constraint_violation`]). Any alignment the pipeline
    /// emits has zero here; a positive value marks an alignment that places
    /// data where the program semantics forbid (e.g. the naive identity).
    pub violation: f64,
}

impl CommCost {
    /// The zero cost.
    pub fn zero() -> Self {
        CommCost::default()
    }

    /// Component-wise sum.
    pub fn add(&self, other: &CommCost) -> CommCost {
        CommCost {
            general: self.general + other.general,
            shift: self.shift + other.shift,
            broadcast: self.broadcast + other.broadcast,
            violation: self.violation + other.violation,
        }
    }

    /// A single scalar for comparisons: general communication is weighted as
    /// `general_factor` element-moves per element (it requires all-to-all
    /// routing), broadcasts as `broadcast_factor`, shifts as their distance.
    /// Violation penalties pass through unweighted (they are pre-scaled to
    /// dominate every edge cost).
    pub fn total_with(&self, general_factor: f64, broadcast_factor: f64) -> f64 {
        self.general * general_factor
            + self.shift
            + self.broadcast * broadcast_factor
            + self.violation
    }

    /// Default scalarisation: general communication counted at 4 element-move
    /// equivalents, broadcasts at 2.
    pub fn total(&self) -> f64 {
        self.total_with(4.0, 2.0)
    }

    /// True if no communication at all is required (and the alignment is
    /// feasible).
    pub fn is_zero(&self) -> bool {
        self.general == 0.0 && self.shift == 0.0 && self.broadcast == 0.0 && self.violation == 0.0
    }
}

impl std::fmt::Display for CommCost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "general={:.1} shift={:.1} broadcast={:.1}",
            self.general, self.shift, self.broadcast
        )?;
        if self.violation > 0.0 {
            write!(f, " violation={:.1}", self.violation)?;
        }
        Ok(())
    }
}

/// Exact cost evaluation over an ADG.
pub struct CostModel<'a> {
    adg: &'a Adg,
}

impl<'a> CostModel<'a> {
    /// Build a cost model for an ADG.
    pub fn new(adg: &'a Adg) -> Self {
        CostModel { adg }
    }

    /// The underlying graph.
    pub fn adg(&self) -> &Adg {
        self.adg
    }

    /// Exact cost of one edge under `alignment` (edge metrics only — node
    /// constraint violations are priced by [`CostModel::total_cost`]).
    pub fn edge_cost(&self, edge: &Edge, alignment: &ProgramAlignment) -> CommCost {
        let src = alignment.port(edge.src);
        let dst = alignment.port(edge.dst);
        let mut cost = CommCost::zero();
        edge.space.for_each_point(|point| {
            let w = edge.weight.eval(point) as f64 * edge.control_weight;
            if w == 0.0 {
                return;
            }
            cost = cost.add(&point_cost(src, dst, point, w));
        });
        cost
    }

    /// Exact cost of the whole program under `alignment`: every edge's
    /// realignment cost plus the penalty for hard node-constraint violations.
    pub fn total_cost(&self, alignment: &ProgramAlignment) -> CommCost {
        self.total_cost_given(alignment, &self.offset_violation_units(alignment))
    }

    /// [`CostModel::total_cost`] for a caller that has already measured how
    /// far `alignment`'s offsets are from the node constraints of each
    /// template axis (`offset_units`, one entry per axis, as
    /// [`NodeConstraints::violation_units`] reports them).
    pub fn total_cost_given(&self, alignment: &ProgramAlignment, offset_units: &[f64]) -> CommCost {
        let mut cost = CommCost::zero();
        for (_, e) in self.adg.edges() {
            cost = cost.add(&self.edge_cost(e, alignment));
        }
        cost.violation = self.violation_penalty(alignment, offset_units);
        cost
    }

    /// Penalty for hard node-constraint violations, pre-scaled so that any
    /// violation dominates every legitimate edge cost: the number of violated
    /// constraint units (offset residual magnitudes plus one per broken
    /// axis/stride relation) times the program's total edge data volume times
    /// a large factor. Zero exactly when the alignment is realisable.
    ///
    /// Offset relations are checked against the same per-axis node-constraint
    /// system the RLP solves ([`NodeConstraints`]); axis and stride
    /// relations are checked structurally per node kind. This replaces the
    /// post-hoc feasibility gate the offset solver used to apply after
    /// rounding — pricing the violation keeps infeasible candidates
    /// comparable (and reliably losing) instead of special-cased.
    pub fn constraint_violation(&self, alignment: &ProgramAlignment) -> f64 {
        self.violation_penalty(alignment, &self.offset_violation_units(alignment))
    }

    fn violation_penalty(&self, alignment: &ProgramAlignment, offset_units: &[f64]) -> f64 {
        let mut units = self.structural_violation_units(alignment);
        for axis_units in offset_units {
            units += axis_units;
        }
        units * self.violation_scale()
    }

    /// The violation penalty restricted to the offset relations of one
    /// template axis (what the per-axis RLP can break by rounding).
    pub fn offset_violation_on_axis(&self, alignment: &ProgramAlignment, axis: usize) -> f64 {
        self.offset_violation_units_on(alignment, axis) * self.violation_scale()
    }

    /// What one violated constraint unit costs.
    pub(crate) fn violation_scale(&self) -> f64 {
        // Any single violated unit must outweigh every feasible alignment's
        // edge cost; shifts are bounded by data volume times template-sized
        // distances, so data volume times a large factor is a safe dominator.
        self.adg.total_edge_data().max(1.0) * 1e3
    }

    /// The offset half of the hard node constraints, measured from scratch:
    /// per template axis, how far the alignment's offsets are from the
    /// axis's node constraints.
    fn offset_violation_units(&self, alignment: &ProgramAlignment) -> Vec<f64> {
        (0..alignment.template_rank)
            .map(|axis| self.offset_violation_units_on(alignment, axis))
            .collect()
    }

    fn offset_violation_units_on(&self, alignment: &ProgramAlignment, axis: usize) -> f64 {
        let replicated: HashSet<PortId> = self
            .adg
            .port_ids()
            .filter(|&p| alignment.port(p).offsets[axis].is_replicated())
            .collect();
        let sys = NodeConstraints::derive(self.adg, alignment, axis, &replicated);
        sys.violation_units(&sys.values(|p| alignment.port(p).offsets[axis].fixed()))
    }

    /// One unit per node whose axis-map / stride relation the alignment
    /// breaks (the discrete-metric half of the hard node constraints; the
    /// offset half is measured by [`CostModel::offset_violation_units`]).
    fn structural_violation_units(&self, alignment: &ProgramAlignment) -> f64 {
        let mut units = 0.0;
        for (_, node) in self.adg.nodes() {
            let a = |p: PortId| alignment.port(p);
            let broken = match &node.kind {
                NodeKind::Source { .. } | NodeKind::Sink { .. } => false,
                NodeKind::Elementwise { .. }
                | NodeKind::Merge
                | NodeKind::Fanout
                | NodeKind::Branch => node
                    .ports
                    .windows(2)
                    .any(|w| !same_body_alignment(a(w[0]), a(w[1]))),
                NodeKind::Gather => !same_body_alignment(a(node.ports[1]), a(node.ports[2])),
                NodeKind::Transformer { .. } => {
                    // Strides may substitute the LIV across the boundary;
                    // only the axis assignment must be preserved.
                    a(node.ports[0]).axis_map != a(node.ports[1]).axis_map
                }
                NodeKind::Transpose => {
                    let (i, o) = (a(node.ports[0]), a(node.ports[1]));
                    i.rank() != 2
                        || o.rank() != 2
                        || o.axis_map != [i.axis_map[1], i.axis_map[0]]
                        || o.strides != [i.strides[1].clone(), i.strides[0].clone()]
                }
                NodeKind::Spread { dim, .. } => {
                    let (i, o) = (a(node.ports[0]), a(node.ports[1]));
                    (0..i.rank()).any(|b| {
                        let ob = if b < *dim { b } else { b + 1 };
                        o.axis_map.get(ob) != i.axis_map.get(b)
                            || o.strides.get(ob) != i.strides.get(b)
                    })
                }
                NodeKind::Reduce { dim } => {
                    let (i, o) = (a(node.ports[0]), a(node.ports[1]));
                    (0..i.rank()).filter(|b| b != dim).any(|b| {
                        let ob = if b < *dim { b } else { b - 1 };
                        o.axis_map.get(ob) != i.axis_map.get(b)
                            || o.strides.get(ob) != i.strides.get(b)
                    })
                }
                NodeKind::Section { section } => {
                    !section_maps_hold(a(node.ports[0]), a(node.ports[1]), section)
                }
                NodeKind::SectionAssign { section } => {
                    let (old, val, out) = (a(node.ports[0]), a(node.ports[1]), a(node.ports[2]));
                    !same_body_alignment(old, out) || !section_maps_hold(old, val, section)
                }
            };
            if broken {
                units += 1.0;
            }
        }
        units
    }

    /// Per-edge cost breakdown (edge id, cost), skipping zero-cost edges.
    /// Edge metrics only — the violation penalty is not attributable to
    /// single edges.
    pub fn edge_breakdown(&self, alignment: &ProgramAlignment) -> Vec<(EdgeId, CommCost)> {
        self.adg
            .edges()
            .map(|(id, e)| (id, self.edge_cost(e, alignment)))
            .filter(|(_, c)| !c.is_zero())
            .collect()
    }

    /// Estimated extent of each template axis under `alignment`: the number
    /// of cells needed to hold every object position the program touches.
    ///
    /// Positions are affine in the element indices, so along template axis
    /// `t` an object spans `offset_t + Σ_b [min, max](stride_b, stride_b ·
    /// extent_b)` over the body axes `b` mapped to `t` — each body axis
    /// contributes its first or its last element, independently of the
    /// others, so no corner of the object is ever enumerated. Iteration
    /// points are walked (sampled past `max_points` per edge); an edge whose
    /// two ends follow no LIV touches the same cells at every point and is
    /// settled by the first sampled point that holds data. Replicated
    /// offsets occupy the whole axis and contribute nothing. Negative
    /// coordinates (possible under negative fixed offsets) widen the span:
    /// the extent returned is the full touched span's length, so block sizes
    /// computed from it cover every cell; owners of negative cells wrap
    /// euclideanly, consistently across the machine models. This is the
    /// template-shape input of the distribution phase.
    pub fn template_extents(&self, alignment: &ProgramAlignment, max_points: usize) -> Vec<i64> {
        let t = alignment.template_rank;
        // Min/max are over *observed* coordinates only: seeding them with 0
        // would inflate every axis by a phantom origin cell (positions are
        // 1-based), skewing the load-balance comparisons downstream.
        let mut hi = vec![i64::MIN; t];
        let mut lo = vec![i64::MAX; t];
        for (_, e) in self.adg.edges() {
            let total = e.space.size() as usize;
            if total == 0 || e.control_weight == 0.0 {
                continue;
            }
            let ends = [e.src, e.dst].map(|p| (self.adg.port(p), alignment.port(p)));
            for (port, pa) in ends {
                assert_eq!(port.extents.len(), pa.rank(), "extent arity mismatch");
            }
            let still = ends
                .iter()
                .all(|(port, pa)| port.extents.iter().all(Affine::is_constant) && !pa.is_mobile());
            let stride = (total / max_points.max(1)).max(1);
            let mut idx = 0usize;
            let _ = e.space.try_for_each_point(|point| {
                // Positions are affine in the LIVs, so extremes are attained
                // at the iteration-space endpoints: the strided sample must
                // always include the final point or growing positions get
                // undercounted.
                let take = idx.is_multiple_of(stride) || idx + 1 == total;
                idx += 1;
                // Zero-weight points move no data: the positions there are
                // unconstrained by the alignment LPs (loop-boundary
                // transformer ports are pinned only at entry/exit) and can
                // carry arbitrarily large mobile coefficients. Only places
                // where data actually sits shape the template.
                if !take || e.weight.eval(point) == 0 {
                    return ControlFlow::Continue(());
                }
                for (port, pa) in ends {
                    for (axis, offset) in pa.offsets.iter().enumerate() {
                        let Some(origin) = offset.eval(point) else {
                            continue;
                        };
                        let (mut near, mut far) = (origin, origin);
                        for (b, extent) in port.extents.iter().enumerate() {
                            if pa.axis_map[b] != axis {
                                continue;
                            }
                            let first = pa.strides[b].eval_assoc(point);
                            let last = first * extent.eval_assoc(point).max(1);
                            near += first.min(last);
                            far += first.max(last);
                        }
                        hi[axis] = hi[axis].max(far);
                        lo[axis] = lo[axis].min(near);
                    }
                }
                if still {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            });
        }
        hi.into_iter()
            .zip(lo)
            .map(|(h, l)| if h < l { 1 } else { (h - l + 1).max(1) })
            .collect()
    }

    /// The shift (grid-metric) cost restricted to one template axis — the
    /// quantity the per-axis offset LP minimises.
    pub fn shift_cost_on_axis(&self, alignment: &ProgramAlignment, axis: usize) -> f64 {
        self.shift_cost_of(|p| alignment.port(p).offsets[axis].fixed())
    }

    /// The shift cost of one template axis on which port `p` sits at
    /// `offset_of(p)` (`None`: replicated there): what
    /// [`CostModel::shift_cost_on_axis`] reports for an alignment, for
    /// offsets that are not written into one.
    pub fn shift_cost_of<'o>(&self, offset_of: impl Fn(PortId) -> Option<&'o Affine>) -> f64 {
        let mut total = 0.0;
        for (_, e) in self.adg.edges() {
            let (Some(a), Some(b)) = (offset_of(e.src), offset_of(e.dst)) else {
                continue;
            };
            if a == b {
                // The span is zero at every point: nothing to add.
                continue;
            }
            e.space.for_each_point(|point| {
                let w = e.weight.eval(point) as f64 * e.control_weight;
                if w == 0.0 {
                    return;
                }
                total += w * (a.eval_assoc(point) - b.eval_assoc(point)).abs() as f64;
            });
        }
        total
    }

    /// The shift cost of every template axis in one walk over the edges: the
    /// per-axis communication profile the phase analysis compares across
    /// program segments (a phase whose traffic lives on axis 0 wants a
    /// different grid than one whose traffic lives on axis 1).
    pub fn shift_cost_by_axis(&self, alignment: &ProgramAlignment) -> Vec<f64> {
        let t = alignment.template_rank;
        let mut totals = vec![0.0; t];
        for (_, e) in self.adg.edges() {
            let src = alignment.port(e.src);
            let dst = alignment.port(e.dst);
            e.space.for_each_point(|point| {
                let w = e.weight.eval(point) as f64 * e.control_weight;
                if w == 0.0 {
                    return;
                }
                for (axis, total) in totals.iter_mut().enumerate() {
                    if let (OffsetAlign::Fixed(a), OffsetAlign::Fixed(b)) =
                        (&src.offsets[axis], &dst.offsets[axis])
                    {
                        *total += w * (a.eval_assoc(point) - b.eval_assoc(point)).abs() as f64;
                    }
                }
            });
        }
        totals
    }
}

/// True when two ports of an equal-alignment node agree on axis maps and
/// strides (up to their common rank; rank changes across an edge are priced
/// as general communication by the edge metric, not here).
fn same_body_alignment(a: &PortAlignment, b: &PortAlignment) -> bool {
    let r = a.rank().min(b.rank());
    a.axis_map[..r] == b.axis_map[..r] && a.strides[..r] == b.strides[..r]
}

/// True when the section value's axis maps and strides are the array's,
/// restricted to the surviving axes and scaled by the triplet steps. Stride
/// products that would be non-affine (both factors mobile) are skipped — the
/// RLP approximates them the same way.
fn section_maps_hold(
    arr: &PortAlignment,
    sec: &PortAlignment,
    section: &align_ir::Section,
) -> bool {
    for (j, a) in section.surviving_axes().into_iter().enumerate() {
        if a >= arr.rank() || j >= sec.rank() {
            continue;
        }
        if sec.axis_map[j] != arr.axis_map[a] {
            return false;
        }
        let step = match &section.specs[a] {
            SectionSpec::Range(t) => t.stride.clone(),
            SectionSpec::Index(_) => unreachable!("surviving axes are ranges"),
        };
        if let Some(expected) = affine_mul(&arr.strides[a], &step) {
            if sec.strides[j] != expected {
                return false;
            }
        }
    }
    true
}

/// Cost of moving an object of weight `w` between two positions at one
/// iteration point.
fn point_cost(
    src: &PortAlignment,
    dst: &PortAlignment,
    point: &[(LivId, i64)],
    w: f64,
) -> CommCost {
    let mut cost = CommCost::zero();
    // Axis / stride agreement per body axis (discrete metric).
    let rank = src.rank().min(dst.rank());
    let mut general = false;
    for b in 0..rank {
        if src.axis_map.get(b) != dst.axis_map.get(b) {
            general = true;
            break;
        }
        let ss = src.strides[b].eval_assoc(point);
        let ds = dst.strides[b].eval_assoc(point);
        if ss != ds {
            general = true;
            break;
        }
    }
    if src.rank() != dst.rank() {
        // Rank change across an edge does not happen in well-formed ADGs;
        // treat it conservatively as general communication.
        general = true;
    }
    if general {
        cost.general += w;
        return cost;
    }
    // Offsets per template axis (grid metric + broadcasts).
    let t = src.template_rank().min(dst.template_rank());
    for axis in 0..t {
        match (&src.offsets[axis], &dst.offsets[axis]) {
            (OffsetAlign::Fixed(a), OffsetAlign::Fixed(b)) => {
                cost.shift += w * (a.eval_assoc(point) - b.eval_assoc(point)).abs() as f64;
            }
            (OffsetAlign::Fixed(_), OffsetAlign::Replicated) => {
                cost.broadcast += w;
            }
            (OffsetAlign::Replicated, _) => {
                // A replicated tail already has a copy wherever the head
                // needs it: no communication.
            }
        }
    }
    cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::position::{OffsetAlign, ProgramAlignment};
    use adg::build_adg;
    use align_ir::{programs, Affine};

    fn identity_alignment(adg: &Adg, template_rank: usize) -> ProgramAlignment {
        let ranks: Vec<usize> = adg.port_ids().map(|p| adg.port(p).rank).collect();
        ProgramAlignment::identity(template_rank, &ranks)
    }

    #[test]
    fn identity_alignment_charges_violation_not_edges() {
        // The naive identity breaks example1's section constraint (B(2:N)'s
        // value cannot sit at offset 0 if B does): no *edge* carries cost,
        // but the node-constraint penalty makes the alignment expensive —
        // closing the historical hole where the infeasible identity priced
        // as free.
        let adg = build_adg(&programs::example1(64));
        let a = identity_alignment(&adg, 1);
        let model = CostModel::new(&adg);
        let cost = model.total_cost(&a);
        assert_eq!(cost.general, 0.0, "{cost}");
        assert_eq!(cost.shift, 0.0, "{cost}");
        assert_eq!(cost.broadcast, 0.0, "{cost}");
        assert!(cost.violation > 0.0, "{cost}");
        assert!(!cost.is_zero());
        // ...and it must dominate what the real pipeline pays.
        let (_, aligned) =
            crate::pipeline::align_program(&programs::example1(64), &Default::default());
        assert_eq!(aligned.total_cost.violation, 0.0, "pipeline is feasible");
        assert!(cost.total() > aligned.total_cost.total() * 100.0);
    }

    #[test]
    fn structural_violations_are_priced() {
        // Identity maps on example3 leave the transpose output unswapped —
        // an axis-map violation the offset system cannot see.
        let adg = build_adg(&programs::example3(16));
        let a = identity_alignment(&adg, 2);
        let model = CostModel::new(&adg);
        assert!(model.constraint_violation(&a) > 0.0);
        // The pipeline's own alignment is violation-free.
        let (_, aligned) =
            crate::pipeline::align_program(&programs::example3(16), &Default::default());
        assert_eq!(
            model.constraint_violation(&aligned.alignment),
            0.0,
            "{}",
            aligned.total_cost
        );
    }

    #[test]
    fn offset_mismatch_charges_shift_distance() {
        let adg = build_adg(&programs::example1(64));
        let mut a = identity_alignment(&adg, 1);
        // Shift every port of array B by 3; edges between A-ports and B-ports
        // do not exist directly (they meet at the "+" node), so shift the
        // B-section def port only and check the cost is weight * 3.
        let (pid, port) = adg
            .ports()
            .find(|(_, p)| p.label.contains("B(2:"))
            .expect("section def port for B");
        assert!(port.is_def);
        a.ports[pid.0].offsets[0] = OffsetAlign::Fixed(Affine::constant(3));
        let cost = CostModel::new(&adg).total_cost(&a);
        assert_eq!(cost.general, 0.0);
        // The section value (63 elements) flows to the "+" node once.
        assert!((cost.shift - 63.0 * 3.0).abs() < 1e-9, "{cost}");
    }

    #[test]
    fn stride_mismatch_charges_general() {
        let adg = build_adg(&programs::example1(64));
        let mut a = identity_alignment(&adg, 1);
        let (pid, _) = adg.ports().find(|(_, p)| p.label.contains("B(2:")).unwrap();
        a.ports[pid.0].strides[0] = Affine::constant(2);
        let cost = CostModel::new(&adg).total_cost(&a);
        assert!(cost.general > 0.0);
        assert_eq!(cost.shift, 0.0);
    }

    #[test]
    fn broadcast_charged_for_n_to_r_edges_only() {
        let adg = build_adg(&programs::figure4(10, 20, 5));
        let mut a = identity_alignment(&adg, 2);
        // Replicate the spread input port along template axis 1.
        let spread = adg
            .nodes()
            .find(|(_, n)| matches!(n.kind, adg::NodeKind::Spread { .. }))
            .unwrap()
            .1;
        let spread_in = spread.input_ports()[0];
        a.ports[spread_in.0].offsets[1] = OffsetAlign::Replicated;
        let cost = CostModel::new(&adg).total_cost(&a);
        // t (size 10) flows into the spread once per iteration (5 trips).
        assert!((cost.broadcast - 50.0).abs() < 1e-9, "{cost}");

        // Making the *tail* replicated as well removes the broadcast.
        let e = adg.in_edge(spread_in).unwrap();
        let tail = adg.edge(e).src;
        a.ports[tail.0].offsets[1] = OffsetAlign::Replicated;
        let cost2 = CostModel::new(&adg).total_cost(&a);
        assert_eq!(cost2.broadcast, 0.0);
    }

    #[test]
    fn mobile_alignment_evaluates_per_iteration() {
        // Two ports on a loop edge: src offset k, dst offset 0 -> cost is
        // sum over k of w * k.
        use adg::NodeKind;
        use align_ir::{ArrayId, IterationSpace, WeightPoly};
        let k = align_ir::LivId(0);
        let mut g = Adg::new("mobile");
        let space = IterationSpace::single_loop(k, 1, 10, 1);
        let n1 = g.add_node(NodeKind::Source { array: ArrayId(0) }, space.clone());
        let n2 = g.add_node(NodeKind::Sink { array: ArrayId(0) }, space.clone());
        let d = g.add_port(n1, 1, vec![Affine::constant(1)], None, true, "d");
        let u = g.add_port(n2, 1, vec![Affine::constant(1)], None, false, "u");
        g.add_edge(d, u, WeightPoly::constant(1), space, 1.0);
        let mut a = ProgramAlignment::identity(1, &[1, 1]);
        a.ports[d.0].offsets[0] = OffsetAlign::Fixed(Affine::liv(k));
        let cost = CostModel::new(&g).total_cost(&a);
        assert!((cost.shift - 55.0).abs() < 1e-9);
    }

    #[test]
    fn total_is_sum_of_edge_breakdown() {
        let adg = build_adg(&programs::figure1(16));
        let mut a = identity_alignment(&adg, 2);
        // Perturb a few ports to create nonzero cost.
        for p in adg.port_ids().take(6) {
            if a.ports[p.0].template_rank() > 1 {
                a.ports[p.0].offsets[1] = OffsetAlign::Fixed(Affine::constant(2));
            }
        }
        let model = CostModel::new(&adg);
        let total = model.total_cost(&a);
        let sum = model
            .edge_breakdown(&a)
            .iter()
            .fold(CommCost::zero(), |acc, (_, c)| acc.add(c));
        assert!((total.shift - sum.shift).abs() < 1e-9);
        assert!((total.general - sum.general).abs() < 1e-9);
        assert!((total.broadcast - sum.broadcast).abs() < 1e-9);
    }

    #[test]
    fn scalarisation_orders_costs_sensibly() {
        let a = CommCost {
            general: 10.0,
            ..CommCost::zero()
        };
        let b = CommCost {
            shift: 10.0,
            ..CommCost::zero()
        };
        assert!(a.total() > b.total(), "general must cost more than shift");
        assert_eq!(CommCost::zero().total(), 0.0);
    }

    #[test]
    fn template_extents_cover_touched_positions() {
        // example1 at n=64: positions span template cells 0..=64 (B(2:N)
        // shifted by -1 stays within), so the extent is at most 65 and at
        // least 63.
        let adg = build_adg(&programs::example1(64));
        let a = identity_alignment(&adg, 1);
        let ext = CostModel::new(&adg).template_extents(&a, 64);
        assert_eq!(ext.len(), 1);
        assert!((63..=65).contains(&ext[0]), "{ext:?}");

        // figure1 at n=16: under the identity alignment V's single body axis
        // maps to template axis 0, so axis 0 must reach V's top element
        // (extent 2n = 32 -> cell 32) while axis 1 covers A's columns.
        let adg = build_adg(&programs::figure1(16));
        let a = identity_alignment(&adg, 2);
        let ext = CostModel::new(&adg).template_extents(&a, 64);
        assert_eq!(ext.len(), 2);
        assert!(ext[0] >= 32 && ext[1] >= 16, "{ext:?}");
    }

    #[test]
    fn shift_cost_on_axis_matches_total_for_single_axis_programs() {
        let adg = build_adg(&programs::example1(32));
        let mut a = identity_alignment(&adg, 1);
        let (pid, _) = adg.ports().find(|(_, p)| p.label.contains("B(2:")).unwrap();
        a.ports[pid.0].offsets[0] = OffsetAlign::Fixed(Affine::constant(-1));
        let model = CostModel::new(&adg);
        assert!((model.total_cost(&a).shift - model.shift_cost_on_axis(&a, 0)).abs() < 1e-9);
    }

    #[test]
    fn shift_cost_by_axis_agrees_with_per_axis_calls() {
        let adg = build_adg(&programs::figure1(12));
        let mut a = identity_alignment(&adg, 2);
        for p in adg.port_ids().take(8) {
            if a.ports[p.0].template_rank() > 1 {
                a.ports[p.0].offsets[1] = OffsetAlign::Fixed(Affine::constant(2));
            }
        }
        let model = CostModel::new(&adg);
        let by_axis = model.shift_cost_by_axis(&a);
        assert_eq!(by_axis.len(), 2);
        for (axis, &v) in by_axis.iter().enumerate() {
            assert!(
                (v - model.shift_cost_on_axis(&a, axis)).abs() < 1e-9,
                "axis {axis}"
            );
        }
    }
}
