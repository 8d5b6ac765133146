//! Offset constraint generation: from ADG nodes to linear constraints over
//! the affine offset coefficients.
//!
//! For one template axis at a time (the grid metric is separable, Section
//! 2.3), every non-replicated port gets one LP variable per affine
//! coefficient slot — a constant slot plus one slot per LIV of the port's
//! iteration space (Section 2.4 restricts mobile alignments to affine
//! functions of the LIVs). Node kinds then impose linear equalities between
//! the ports' symbolic offsets:
//!
//! * elementwise / merge / fanout / branch / gather-result nodes force equal
//!   offsets;
//! * `section` and `section-assign` nodes shift the offset by
//!   `(subscript) × stride` of the enclosing array (this is where *mobile*
//!   constraints such as Figure 1's `offset(V) = k` come from);
//! * `spread` and `reduce` leave the created / removed axis unconstrained;
//! * loop transformer nodes substitute the LIV (`k := k+s` for the back edge,
//!   `k := l` at entry, `k := last` at exit), tying the in-loop mobile
//!   function to the loop-invariant positions outside.
//!
//! The rows are **derived once and evaluated many times**: an axis solve
//! derives its [`NodeConstraints`] and every RLP it poses is those rows plus
//! pins ([`NodeConstraints::pinned`], the flat rows appended to the RLP's
//! own arena as slices), every rounded candidate is priced
//! against the same rows ([`NodeConstraints::violation_units`]), and the
//! cost model's from-scratch violation check reads them the same way. The
//! objective (per-edge subrange terms) is added by [`crate::mobile_offset`].

use crate::position::ProgramAlignment;
use adg::{Adg, NodeId, NodeKind, PortId, TransformerRole};
use align_ir::{Affine, LivId, SectionSpec};
use lp::{L1Problem, Problem, VarId};
use std::collections::HashSet;

/// Known-by-known affine product. Returns `None` when both factors depend on
/// LIVs (the product would be quadratic); callers fall back to evaluating at
/// a representative point.
pub fn affine_mul(a: &Affine, b: &Affine) -> Option<Affine> {
    if a.is_constant() {
        Some(b.scale(a.constant_part()))
    } else if b.is_constant() {
        Some(a.scale(b.constant_part()))
    } else {
        None
    }
}

/// The variable layout of the per-axis offset LP: every port that is not
/// replicated on the axis owns a run of consecutive variables, its constant
/// slot first, then one slot per LIV of its iteration space, outermost
/// first.
#[derive(Debug, Clone)]
pub struct OffsetVars {
    /// Per port, the variable of its constant slot (`None` if the port is
    /// replicated on this axis and has no variables).
    constant_slots: Vec<Option<VarId>>,
    /// Per port, where its LIV slots start in `liv_slots`; one more entry
    /// closes the last port's run.
    starts: Vec<usize>,
    /// Every port's `(LIV, variable)` slots, port after port, ascending by
    /// LIV within a port.
    liv_slots: Vec<(LivId, VarId)>,
    /// Number of variables laid out.
    num_vars: usize,
}

impl OffsetVars {
    /// Lay out the variables of every port outside `replicated`, in port
    /// order.
    fn lay_out(adg: &Adg, replicated: &HashSet<PortId>) -> OffsetVars {
        let mut vars = OffsetVars {
            constant_slots: Vec::with_capacity(adg.num_ports()),
            starts: Vec::with_capacity(adg.num_ports() + 1),
            liv_slots: Vec::new(),
            num_vars: 0,
        };
        for (pid, port) in adg.ports() {
            let next = vars.num_vars;
            let start = vars.liv_slots.len();
            vars.starts.push(start);
            if replicated.contains(&pid) {
                vars.constant_slots.push(None);
                continue;
            }
            vars.constant_slots.push(Some(VarId(next)));
            let levels = port.space.levels();
            vars.liv_slots.extend(
                levels
                    .iter()
                    .enumerate()
                    .map(|(i, level)| (level.liv, VarId(next + 1 + i))),
            );
            vars.liv_slots[start..].sort_unstable_by_key(|&(liv, _)| liv);
            vars.num_vars += 1 + levels.len();
        }
        vars.starts.push(vars.liv_slots.len());
        vars
    }

    /// Number of variables in the layout.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// The variable of port `p`'s constant slot, or `None` if the port is
    /// replicated on the axis under construction.
    pub fn constant_slot(&self, p: PortId) -> Option<VarId> {
        self.constant_slots[p.0]
    }

    /// Port `p`'s `(LIV, variable)` slots, ascending by LIV (empty for a
    /// replicated port).
    pub fn liv_slots(&self, p: PortId) -> &[(LivId, VarId)] {
        &self.liv_slots[self.starts[p.0]..self.starts[p.0 + 1]]
    }

    /// Every variable of port `p` — the constant slot's, then the LIV
    /// slots' — in variable order.
    pub fn slots(&self, p: PortId) -> impl Iterator<Item = VarId> {
        let run = self.constant_slots[p.0].map(|c| c.0..=c.0 + self.liv_slots(p).len());
        run.into_iter().flatten().map(VarId)
    }

    /// The variable of port `p`'s slot for `liv`, if it has one.
    fn liv_slot(&self, p: PortId, liv: LivId) -> Option<VarId> {
        self.liv_slots(p)
            .iter()
            .find(|&&(l, _)| l == liv)
            .map(|&(_, v)| v)
    }

    /// The terms of `Σ_slot weight(slot) · (src_slot − dst_slot)`: the span
    /// between two ports' symbolic offsets with every coefficient slot
    /// weighted — by the coordinates of an iteration point to evaluate the
    /// span there, by a subrange's weight moments (`Σ w(i)` for the constant
    /// slot, `Σ w(i)·i_liv` per LIV) for the closed form of `Σ_i w(i)·span(i)`
    /// that Equation (3) uses. Constant slots first, then the LIVs either
    /// port has a slot for, ascending, source before destination, written
    /// into `terms` (emptied first: a buffer the caller keeps, so a term
    /// never owns a container); `None` if either port is replicated on the
    /// axis.
    pub fn span_terms(
        &self,
        src: PortId,
        dst: PortId,
        constant: f64,
        liv: impl Fn(LivId) -> f64,
        terms: &mut Vec<(VarId, f64)>,
    ) -> Option<()> {
        let (s, d) = (self.liv_slots(src), self.liv_slots(dst));
        terms.clear();
        terms.push((self.constant_slot(src)?, constant));
        terms.push((self.constant_slot(dst)?, -constant));
        let (mut s, mut d) = (s.iter().peekable(), d.iter().peekable());
        while let Some(l) = match (s.peek(), d.peek()) {
            (Some(a), Some(b)) => Some(a.0.min(b.0)),
            (a, b) => a.or(b).map(|x| x.0),
        } {
            let weight = liv(l);
            terms.extend(s.next_if(|a| a.0 == l).map(|a| (a.1, weight)));
            terms.extend(d.next_if(|b| b.0 == l).map(|b| (b.1, -weight)));
        }
        Some(())
    }

    /// Diagnostic name of an offset variable — `off[p3].c` for port 3's
    /// constant slot, `off[p3].k` for its coefficient of LIV `k` — or `None`
    /// for a variable this layout does not own. Derived on demand: the LP
    /// itself carries no names.
    pub fn var_name(&self, v: VarId) -> Option<String> {
        (0..self.constant_slots.len()).find_map(|p| {
            if self.constant_slots[p] == Some(v) {
                return Some(format!("off[p{p}].c"));
            }
            let (liv, _) = self.liv_slots(PortId(p)).iter().find(|&&(_, s)| s == v)?;
            Some(format!("off[p{p}].{liv}"))
        })
    }

    /// Read the solved offset of a port back as an [`Affine`] with rounded
    /// integer coefficients (the "R" of RLP).
    pub fn rounded_offset(&self, p: PortId, solution: &lp::Solution) -> Option<Affine> {
        let constant = solution.value(self.constant_slot(p)?).round() as i64;
        let coeffs = self
            .liv_slots(p)
            .iter()
            .map(|&(l, v)| (l, solution.value(v).round() as i64));
        Some(Affine::new(constant, coeffs))
    }
}

/// The hard-constraint part of the per-axis offset LP.
pub struct OffsetLp {
    /// LP with all node constraints (objective still all-zero).
    pub problem: Problem,
    /// Variable layout.
    pub vars: OffsetVars,
}

/// Build offset variables and node constraints for template axis `axis`,
/// then pin the first source-node definition port to offset 0 so the
/// (translation-invariant) LP solution is deterministic.
///
/// `alignment` must already carry the axis maps and strides decided by the
/// earlier phases. `replicated` lists the ports labelled R on this axis
/// (their variables and constraints are omitted, per Section 5.1: edges with
/// a replicated endpoint are discarded before offset alignment).
pub fn build_offset_constraints(
    adg: &Adg,
    alignment: &ProgramAlignment,
    axis: usize,
    replicated: &HashSet<PortId>,
) -> OffsetLp {
    let sys = NodeConstraints::derive(adg, alignment, axis, replicated);
    OffsetLp {
        problem: sys.pinned(adg).equalities(),
        vars: sys.vars,
    }
}

/// The hard node constraints of one template axis: the variable layout and
/// one equality row per constrained coefficient slot, without the
/// deterministic source pin. A valid alignment may sit at any translation,
/// so the pin must not count as a violation — and the rows depend only on
/// the axis maps and strides, so whoever derives them can go on evaluating
/// them against any number of candidate offsets.
pub struct NodeConstraints {
    /// Variable layout.
    pub vars: OffsetVars,
    /// Every row's `(variable, coefficient)` terms, row after row.
    terms: Vec<(VarId, f64)>,
    /// Per row, where its terms end in `terms` (they start where the
    /// previous row's end) and its right-hand side.
    rows: Vec<(usize, f64)>,
}

impl NodeConstraints {
    /// Derive the rows of template axis `axis` from the node kinds, the axis
    /// maps and the strides of `alignment`; ports in `replicated` get no
    /// variables and drop out of every row.
    pub fn derive(
        adg: &Adg,
        alignment: &ProgramAlignment,
        axis: usize,
        replicated: &HashSet<PortId>,
    ) -> NodeConstraints {
        let mut gen = ConstraintGen {
            adg,
            alignment,
            axis,
            sys: NodeConstraints {
                vars: OffsetVars::lay_out(adg, replicated),
                terms: Vec::new(),
                rows: Vec::new(),
            },
            livs: Vec::new(),
        };
        for nid in adg.node_ids() {
            gen.node_constraints(nid);
        }
        gen.sys
    }

    /// The rows as `(terms, right-hand side)`, in the order derived.
    fn rows(&self) -> impl Iterator<Item = (&[(VarId, f64)], f64)> {
        let starts = std::iter::once(0).chain(self.rows.iter().map(|&(end, _)| end));
        starts
            .zip(&self.rows)
            .map(|(start, &(end, rhs))| (&self.terms[start..end], rhs))
    }

    /// The rows as the equalities of an L1 problem with no terms yet, plus
    /// the pin of the first source node's definition port to offset 0,
    /// which makes the (translation-invariant) solution deterministic: the
    /// hard part of every RLP posed on this axis. The unknowns carry no
    /// names; see [`OffsetVars::var_name`] for the diagnostic name.
    pub fn pinned(&self, adg: &Adg) -> L1Problem {
        let mut l1 = L1Problem::with_unknowns(self.vars.num_vars());
        for (terms, rhs) in self.rows() {
            l1.add_equality(terms, rhs);
        }
        let first_source = adg
            .nodes()
            .find(|(_, n)| matches!(n.kind, NodeKind::Source { .. }));
        if let Some(&p) = first_source.and_then(|(_, node)| node.output_ports().first()) {
            for v in self.vars.slots(p) {
                l1.add_equality(&[(v, 1.0)], 0.0);
            }
        }
        l1
    }

    /// The LP value vector of concrete offsets: `offset_of(p)`'s
    /// coefficients written into port `p`'s variable slots. Ports without
    /// variables (replicated on the axis) are never asked for.
    pub fn values<'o>(&self, offset_of: impl Fn(PortId) -> Option<&'o Affine>) -> Vec<f64> {
        let mut values = vec![0.0; self.vars.num_vars()];
        for p in (0..self.vars.constant_slots.len()).map(PortId) {
            let Some(constant) = self.vars.constant_slot(p) else {
                continue;
            };
            let Some(offset) = offset_of(p) else { continue };
            values[constant.0] = offset.constant_part() as f64;
            for &(liv, slot) in self.vars.liv_slots(p) {
                values[slot.0] = offset.coeff(liv) as f64;
            }
        }
        values
    }

    /// How far `values` (see [`NodeConstraints::values`]) are from
    /// satisfying the rows — the sum of the equality residuals beyond 1e-6,
    /// what [`lp::Problem::violation`] charges the rows of
    /// [`NodeConstraints::pinned`] before the pin: zero exactly when the
    /// offsets are realisable on this axis.
    pub fn violation_units(&self, values: &[f64]) -> f64 {
        let mut total = 0.0;
        for (terms, rhs) in self.rows() {
            let lhs: f64 = terms.iter().map(|(v, a)| a * values[v.0]).sum();
            let residual = (lhs - rhs).abs();
            if residual > 1e-6 {
                total += residual;
            }
        }
        total
    }
}

/// One side of a node equation: a port's symbolic offset — its slot
/// variables as the coefficients of an affine function of the LIVs — with
/// `liv := replacement` substituted when the port is seen across a loop
/// transformer.
#[derive(Clone, Copy)]
struct Side<'a> {
    port: PortId,
    bind: Option<(LivId, &'a Affine)>,
}

impl<'a> Side<'a> {
    /// The port's offset as it stands.
    fn of(port: PortId) -> Self {
        Side { port, bind: None }
    }

    /// The port's offset with `liv := to`.
    fn at(port: PortId, liv: LivId, to: &'a Affine) -> Self {
        Side {
            port,
            bind: Some((liv, to)),
        }
    }

    /// The side's terms in the equation of one coefficient slot — the
    /// constant slot for `liv = None` — each scaled by `sign`: the port's
    /// own slot variable, then what the substitution moves into this slot
    /// from the bound LIV's variable.
    fn terms(&self, vars: &OffsetVars, liv: Option<LivId>, sign: f64, out: &mut Vec<(VarId, f64)>) {
        let bound = self
            .bind
            .and_then(|(b, to)| Some((b, vars.liv_slot(self.port, b)?, to)));
        let own = match liv {
            None => vars.constant_slot(self.port),
            Some(l) if bound.is_some_and(|(b, ..)| b == l) => None,
            Some(l) => vars.liv_slot(self.port, l),
        };
        out.extend(own.map(|v| (v, sign)));
        if let Some((_, from, to)) = bound {
            match liv {
                None => out.push((from, to.constant_part() as f64 * sign)),
                Some(l) if to.coeff(l) != 0 => out.push((from, to.coeff(l) as f64 * sign)),
                Some(_) => {}
            }
        }
    }

    /// The LIVs whose slot this side may contribute to.
    fn livs(&self, vars: &OffsetVars, out: &mut Vec<LivId>) {
        out.extend(vars.liv_slots(self.port).iter().map(|&(l, _)| l));
        if let Some((_, to)) = self.bind {
            out.extend(to.terms().map(|(l, _)| l));
        }
    }
}

struct ConstraintGen<'a> {
    adg: &'a Adg,
    alignment: &'a ProgramAlignment,
    axis: usize,
    /// The system under construction: layout done, rows being written.
    sys: NodeConstraints,
    /// Scratch: the LIVs of the equation being written.
    livs: Vec<LivId>,
}

impl ConstraintGen<'_> {
    /// Add the equality `lhs == rhs + shift` coefficient-wise: one row for
    /// the constant slot, then one per LIV either side or the (fully known)
    /// `shift` mentions, ascending. Nothing is added unless both ports have
    /// variables on this axis.
    ///
    /// Inside a row the left side's terms come first; a side contributes its
    /// own slot variable, then the bound LIV's. Presolve, the simplex's
    /// route and the block memo all see this order and these bits (a zero
    /// right-hand side is the `-0.0` of negating an empty sum), so the RLP
    /// stays the problem it has always been.
    fn equate(&mut self, lhs: Side<'_>, rhs: Side<'_>, shift: Option<&Affine>) {
        let NodeConstraints { vars, terms, rows } = &mut self.sys;
        if vars.constant_slot(lhs.port).is_none() || vars.constant_slot(rhs.port).is_none() {
            return;
        }
        self.livs.clear();
        lhs.livs(vars, &mut self.livs);
        rhs.livs(vars, &mut self.livs);
        self.livs.sort_unstable();
        self.livs.dedup();
        for liv in std::iter::once(None).chain(self.livs.iter().copied().map(Some)) {
            let start = terms.len();
            lhs.terms(vars, liv, 1.0, terms);
            rhs.terms(vars, liv, -1.0, terms);
            if terms.len() == start {
                // A constant-only equation: either trivially satisfied or
                // the phases upstream produced an inconsistent alignment;
                // ignored here (the cost model will charge the resulting
                // misalignment).
                continue;
            }
            let known = shift.map_or(0, |s| liv.map_or(s.constant_part(), |l| s.coeff(l)));
            rows.push((terms.len(), if known == 0 { -0.0 } else { known as f64 }));
        }
    }

    fn equate_ports(&mut self, a: PortId, b: PortId) {
        self.equate(Side::of(a), Side::of(b), None);
    }

    /// `dst == src + known` (offsets shifted by a fully known affine form).
    fn equate_shifted(&mut self, dst: PortId, src: PortId, known: &Affine) {
        self.equate(Side::of(dst), Side::of(src), Some(known));
    }

    /// The known stride of port `p` on *array axis* `a` (after the stride
    /// phase), defaulting to 1.
    fn stride_of(&self, p: PortId, a: usize) -> Affine {
        self.alignment
            .port(p)
            .strides
            .get(a)
            .cloned()
            .unwrap_or_else(|| Affine::constant(1))
    }

    /// The template axis assigned to array axis `a` of port `p`.
    fn template_axis_of(&self, p: PortId, a: usize) -> Option<usize> {
        self.alignment.port(p).axis_map.get(a).copied()
    }

    /// `subscript × stride`, falling back to a representative evaluation when
    /// the exact product is not affine.
    fn subscript_times_stride(&self, subscript: &Affine, stride: &Affine) -> Affine {
        affine_mul(subscript, stride).unwrap_or_else(|| {
            // Both are mobile: approximate with the product of midpoint
            // values; alignment quality degrades gracefully (the cost model
            // still measures the truth).
            Affine::constant(subscript.constant_part() * stride.constant_part())
        })
    }

    fn node_constraints(&mut self, nid: NodeId) {
        let node = self.adg.node(nid);
        match &node.kind {
            NodeKind::Source { .. } | NodeKind::Sink { .. } => {}
            NodeKind::Elementwise { .. }
            | NodeKind::Merge
            | NodeKind::Fanout
            | NodeKind::Branch => {
                let ports = &node.ports;
                for w in ports.windows(2) {
                    self.equate_ports(w[0], w[1]);
                }
            }
            NodeKind::Gather => {
                // result aligned with the index; the table is unconstrained.
                let x = node.ports[1];
                let o = node.ports[2];
                self.equate_ports(x, o);
            }
            NodeKind::Transpose => {
                let i = node.ports[0];
                let o = node.ports[1];
                // Offsets agree per template axis; the swap lives in the axis
                // maps decided earlier.
                self.equate_ports(i, o);
            }
            NodeKind::Spread { dim, .. } => {
                let i = node.ports[0];
                let o = node.ports[1];
                let spread_axis = self.template_axis_of(o, *dim);
                if spread_axis != Some(self.axis) {
                    self.equate_ports(i, o);
                }
            }
            NodeKind::Reduce { dim } => {
                let i = node.ports[0];
                let o = node.ports[1];
                let reduced_axis = self.template_axis_of(i, *dim);
                if reduced_axis != Some(self.axis) {
                    self.equate_ports(i, o);
                }
            }
            NodeKind::Section { section } => {
                let i = node.ports[0];
                let o = node.ports[1];
                self.section_constraints(i, o, section);
            }
            NodeKind::SectionAssign { section } => {
                let old = node.ports[0];
                let val = node.ports[1];
                let out = node.ports[2];
                // The updated array keeps the old array's alignment.
                self.equate_ports(old, out);
                // The new value must sit where the section of the old array sits.
                self.section_constraints(old, val, section);
            }
            NodeKind::Transformer { liv, range, role } => {
                let (i, o) = (node.ports[0], node.ports[1]);
                match role {
                    TransformerRole::Entry => {
                        // outside value == in-loop value at the first iteration
                        self.equate(Side::of(i), Side::at(o, *liv, &range.lo), None);
                    }
                    TransformerRole::Back => {
                        // value at end of iteration k feeds iteration k+s
                        let step = Affine::liv(*liv) + range.stride.clone();
                        self.equate(Side::at(i, *liv, &step), Side::of(o), None);
                    }
                    TransformerRole::Exit => {
                        // outside value == in-loop value at the last iteration
                        let last = last_iteration(range);
                        self.equate(Side::of(o), Side::at(i, *liv, &last), None);
                    }
                }
            }
        }
    }

    /// Constraints relating a whole-array port `arr` and the port `sec`
    /// holding the value of `section` of that array.
    fn section_constraints(&mut self, arr: PortId, sec: PortId, section: &align_ir::Section) {
        // Which array axis (if any) is mapped to the current template axis?
        let arr_rank = self.adg.port(arr).rank;
        let mut handled = false;
        for a in 0..arr_rank {
            if self.template_axis_of(arr, a) != Some(self.axis) {
                continue;
            }
            handled = true;
            let stride = self.stride_of(arr, a);
            match &section.specs[a] {
                SectionSpec::Range(t) => {
                    // Section element 1 is array element `lo`; with the
                    // position convention `stride*i + offset` this yields
                    // off_sec = off_arr + (lo - step)·stride_arr.
                    let shift = self.subscript_times_stride(&(&t.lo - &t.stride), &stride);
                    self.equate_shifted(sec, arr, &shift);
                }
                SectionSpec::Index(x) => {
                    // The projected-away axis: the section value sits at the
                    // subscript's position (a space-axis offset, possibly
                    // mobile — Figure 1's `offset(A(k,:)) = k`).
                    let shift = self.subscript_times_stride(x, &stride);
                    self.equate_shifted(sec, arr, &shift);
                }
            }
        }
        if !handled {
            // The current template axis is a space axis of the array: the
            // section value stays wherever the array is.
            self.equate_ports(sec, arr);
        }
    }
}

/// The last iteration of a loop range (exact when the range is constant,
/// the upper bound otherwise).
pub fn last_iteration(range: &align_ir::triplet::AffineTriplet) -> Affine {
    if range.is_constant() {
        let t = range.at(&[]);
        Affine::constant(t.last().unwrap_or(t.lo))
    } else {
        range.hi.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adg::build_adg;
    use align_ir::{programs, ArrayId, IterationSpace};

    /// Two ports inside `do k = 1, 8` — variables `[x, y]` and `[x', y']`,
    /// offsets `x + y·k` and `x' + y'·k` — and one outside, variable `[c]`.
    fn three_ports() -> (Adg, [PortId; 3], OffsetVars) {
        let space = IterationSpace::single_loop(LivId(0), 1, 8, 1);
        let mut g = Adg::new("ports");
        let source = g.add_node(NodeKind::Source { array: ArrayId(0) }, space.clone());
        let sink = g.add_node(NodeKind::Sink { array: ArrayId(0) }, space);
        let outside = g.add_node(
            NodeKind::Sink { array: ArrayId(0) },
            IterationSpace::scalar(),
        );
        let ports = [
            g.add_port(source, 0, vec![], None, true, "p"),
            g.add_port(sink, 0, vec![], None, false, "q"),
            g.add_port(outside, 0, vec![], None, false, "r"),
        ];
        let vars = OffsetVars::lay_out(&g, &HashSet::new());
        assert_eq!(vars.num_vars(), 5);
        (g, ports, vars)
    }

    /// The rows of `lhs == rhs + shift` over [`three_ports`].
    fn equation(lhs: Side<'_>, rhs: Side<'_>, shift: Option<&Affine>) -> NodeConstraints {
        let (g, _, vars) = three_ports();
        let mut gen = ConstraintGen {
            adg: &g,
            alignment: &ProgramAlignment::identity(1, &[0, 0, 0]),
            axis: 0,
            sys: NodeConstraints {
                vars,
                terms: Vec::new(),
                rows: Vec::new(),
            },
            livs: Vec::new(),
        };
        gen.equate(lhs, rhs, shift);
        gen.sys
    }

    #[test]
    fn transformer_substitution_distributes() {
        let k = LivId(0);
        let (_, [p, q, r], ..) = three_ports();
        // (x + y·k)[k := k + 2] == x' + y'·k  is  x + 2y == x'  and  y == y'.
        let step = Affine::liv(k) + Affine::constant(2);
        let back = equation(Side::at(p, k, &step), Side::of(q), None);
        assert_eq!(back.rows.len(), 2);
        assert_eq!(back.violation_units(&[5.0, 3.0, 11.0, 3.0, 0.0]), 0.0);
        assert_eq!(back.violation_units(&[5.0, 3.0, 10.0, 3.0, 0.0]), 1.0);
        assert_eq!(back.violation_units(&[5.0, 3.0, 11.0, 5.0, 0.0]), 2.0);
        // Binding k to a constant removes the slot: c == x + 7y.
        let exit = equation(Side::of(r), Side::at(p, k, &Affine::constant(7)), None);
        assert_eq!(exit.rows.len(), 1);
        assert_eq!(exit.violation_units(&[5.0, 3.0, 0.0, 0.0, 26.0]), 0.0);
        assert_eq!(exit.violation_units(&[5.0, 3.0, 0.0, 0.0, 20.0]), 6.0);
    }

    #[test]
    fn known_shifts_land_on_the_right_hand_side_slot_by_slot() {
        let k = LivId(0);
        let (_, [p, q, r], ..) = three_ports();
        // x + y·k == x' + y'·k + (3 − 2k)
        let shifted = equation(Side::of(p), Side::of(q), Some(&Affine::new(3, [(k, -2)])));
        assert_eq!(shifted.rows.len(), 2);
        assert_eq!(shifted.violation_units(&[4.0, 0.0, 1.0, 2.0, 0.0]), 0.0);
        assert_eq!(shifted.violation_units(&[4.0, 0.0, 1.0, 0.0, 0.0]), 2.0);
        // A LIV slot only one side has still gets its row: c == x + y·k + k
        // forces y == −1.
        let one_sided = equation(Side::of(r), Side::of(p), Some(&Affine::liv(k)));
        assert_eq!(one_sided.rows.len(), 2);
        assert_eq!(one_sided.violation_units(&[6.0, -1.0, 0.0, 0.0, 6.0]), 0.0);
        assert_eq!(one_sided.violation_units(&[6.0, 0.0, 0.0, 0.0, 6.0]), 1.0);
    }

    #[test]
    fn weighted_sum_closed_form() {
        let k = LivId(0);
        let (_, [p, q, r], vars) = three_ports();
        // Σ_{k=1..3} ((x + y·k) − (x' + y'·k)) with unit weights: moments
        // σ0 = 3, σ1 = 6 -> 3x + 6y − 3x' − 6y'.
        let mut terms = Vec::new();
        vars.span_terms(p, q, 3.0, |l| if l == k { 6.0 } else { 0.0 }, &mut terms);
        let [x, y, x2, y2] = [VarId(0), VarId(1), VarId(2), VarId(3)];
        assert_eq!(terms, [(x, 3.0), (x2, -3.0), (y, 6.0), (y2, -6.0)]);
        // A port outside the loop has no slot to weight.
        vars.span_terms(p, r, 3.0, |_| 6.0, &mut terms);
        assert_eq!(terms, [(x, 3.0), (VarId(4), -3.0), (y, 6.0)]);
    }

    #[test]
    fn span_terms_at_a_fractional_point() {
        let (_, [p, q, _], vars) = three_ports();
        // The span at k = 4.5, where (x, y) = (3, 2) and (x', y') = (0, 0).
        let mut terms = Vec::new();
        vars.span_terms(p, q, 1.0, |_| 4.5, &mut terms).unwrap();
        let values = [3.0, 2.0, 0.0, 0.0, 0.0];
        let at: f64 = terms.iter().map(|&(v, c)| c * values[v.0]).sum();
        assert!((at - 12.0).abs() < 1e-12);
    }

    #[test]
    fn replicated_ports_have_no_variables() {
        let (g, [p, q, r], ..) = three_ports();
        let vars = OffsetVars::lay_out(&g, &HashSet::from([q]));
        assert_eq!(vars.num_vars(), 3);
        assert_eq!(vars.constant_slot(q), None);
        assert!(vars.liv_slots(q).is_empty());
        assert_eq!(vars.constant_slot(r), Some(VarId(2)));
        assert_eq!(vars.span_terms(p, q, 1.0, |_| 1.0, &mut Vec::new()), None);
    }

    #[test]
    fn affine_mul_rules() {
        let k = LivId(0);
        let a = Affine::new(0, [(k, 2)]);
        let c = Affine::constant(3);
        assert_eq!(affine_mul(&a, &c), Some(Affine::new(0, [(k, 6)])));
        assert_eq!(affine_mul(&c, &a), Some(Affine::new(0, [(k, 6)])));
        assert_eq!(affine_mul(&a, &a), None);
    }

    #[test]
    fn offset_lp_is_feasible_for_paper_programs() {
        // The hard constraint system alone (zero objective) must always be
        // feasible: the all-zeros offset satisfies every node constraint that
        // has no constant shift, and shifted constraints are satisfiable by
        // construction.
        for (name, prog) in programs::paper_programs() {
            let adg = build_adg(&prog);
            let rank = adg
                .port_ids()
                .map(|p| adg.port(p).rank)
                .max()
                .unwrap_or(1)
                .max(1);
            let ranks: Vec<usize> = adg.port_ids().map(|p| adg.port(p).rank).collect();
            let alignment = ProgramAlignment::identity(rank, &ranks);
            for axis in 0..rank {
                let sys = build_offset_constraints(&adg, &alignment, axis, &HashSet::new());
                let sol = sys.problem.solve();
                assert!(sol.is_ok(), "{name} axis {axis}: {:?}", sol.err());
            }
        }
    }

    #[test]
    fn offset_variables_are_named_on_demand() {
        let adg = build_adg(&programs::figure1(8));
        let ranks: Vec<usize> = adg.port_ids().map(|p| adg.port(p).rank).collect();
        let alignment = ProgramAlignment::identity(2, &ranks);
        let sys = build_offset_constraints(&adg, &alignment, 0, &HashSet::new());
        // The LP carries no names; the layout derives them.
        assert_eq!(sys.problem.var_name(VarId(0)), "");
        let p = adg
            .port_ids()
            .find(|&p| !sys.vars.liv_slots(p).is_empty())
            .expect("figure1 has in-loop ports");
        let constant = sys.vars.constant_slot(p).unwrap();
        assert_eq!(sys.vars.var_name(constant), Some(format!("off[{p}].c")));
        let (liv, slot) = sys.vars.liv_slots(p)[0];
        assert_eq!(sys.vars.var_name(slot), Some(format!("off[{p}].{liv}")));
        assert_eq!(sys.vars.var_name(VarId(sys.problem.num_vars())), None);
    }
}
