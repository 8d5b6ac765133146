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
//! The result is an [`lp::Problem`] containing only the *hard* constraints;
//! the objective (per-edge subrange surrogates) is added by
//! [`crate::mobile_offset`].

use crate::position::ProgramAlignment;
use adg::{Adg, NodeId, NodeKind, PortId, TransformerRole};
use align_ir::{Affine, LivId, SectionSpec};
use lp::{Problem, Relation, VarId};
use std::collections::{BTreeMap, HashSet};

/// A linear expression over LP variables plus a constant.
#[derive(Debug, Clone, Default)]
pub struct LinExpr {
    /// `(variable, coefficient)` terms.
    pub terms: Vec<(VarId, f64)>,
    /// Constant term.
    pub constant: f64,
}

impl LinExpr {
    /// The zero expression.
    pub fn zero() -> Self {
        LinExpr::default()
    }

    /// A single variable.
    pub fn var(v: VarId) -> Self {
        LinExpr {
            terms: vec![(v, 1.0)],
            constant: 0.0,
        }
    }

    /// A constant.
    pub fn constant(c: f64) -> Self {
        LinExpr {
            terms: Vec::new(),
            constant: c,
        }
    }

    /// `self + other`.
    pub fn add(&self, other: &LinExpr) -> LinExpr {
        let mut terms = self.terms.clone();
        terms.extend(other.terms.iter().copied());
        LinExpr {
            terms,
            constant: self.constant + other.constant,
        }
    }

    /// `self - other`.
    pub fn sub(&self, other: &LinExpr) -> LinExpr {
        self.add(&other.scale(-1.0))
    }

    /// `self * s`.
    pub fn scale(&self, s: f64) -> LinExpr {
        LinExpr {
            terms: self.terms.iter().map(|&(v, c)| (v, c * s)).collect(),
            constant: self.constant * s,
        }
    }

    /// True if the expression has no variable terms.
    pub fn is_constant(&self) -> bool {
        self.terms.iter().all(|&(_, c)| c == 0.0)
    }

    /// Evaluate given variable values.
    pub fn eval(&self, values: &[f64]) -> f64 {
        self.constant
            + self
                .terms
                .iter()
                .map(|&(v, c)| c * values[v.index()])
                .sum::<f64>()
    }
}

/// An affine function of the LIVs whose coefficients are linear expressions
/// over LP variables: the symbolic form of a port's (unknown) mobile offset.
#[derive(Debug, Clone, Default)]
pub struct SymAffine {
    /// Coefficient of 1.
    pub constant: LinExpr,
    /// Coefficient of each LIV.
    pub per_liv: BTreeMap<LivId, LinExpr>,
}

impl SymAffine {
    /// A fully known affine function (no LP variables).
    pub fn known(a: &Affine) -> Self {
        SymAffine {
            constant: LinExpr::constant(a.constant_part() as f64),
            per_liv: a
                .terms()
                .map(|(l, c)| (l, LinExpr::constant(c as f64)))
                .collect(),
        }
    }

    /// The zero function.
    pub fn zero() -> Self {
        SymAffine::default()
    }

    /// `self + other`.
    pub fn add(&self, other: &SymAffine) -> SymAffine {
        let mut per_liv = self.per_liv.clone();
        for (l, e) in &other.per_liv {
            let cur = per_liv.entry(*l).or_insert_with(LinExpr::zero);
            *cur = cur.add(e);
        }
        SymAffine {
            constant: self.constant.add(&other.constant),
            per_liv,
        }
    }

    /// `self - other`.
    pub fn sub(&self, other: &SymAffine) -> SymAffine {
        self.add(&other.scale(-1.0))
    }

    /// `self * s` for a scalar.
    pub fn scale(&self, s: f64) -> SymAffine {
        SymAffine {
            constant: self.constant.scale(s),
            per_liv: self.per_liv.iter().map(|(l, e)| (*l, e.scale(s))).collect(),
        }
    }

    /// Substitute `liv := replacement` where `replacement` is a *known*
    /// affine function (loop transformer semantics).
    pub fn substitute(&self, liv: LivId, replacement: &Affine) -> SymAffine {
        let Some(coef) = self.per_liv.get(&liv).cloned() else {
            return self.clone();
        };
        let mut out = self.clone();
        out.per_liv.remove(&liv);
        // coef * replacement = coef * (c0 + Σ ci · liv_i)
        out.constant = out
            .constant
            .add(&coef.scale(replacement.constant_part() as f64));
        for (l, c) in replacement.terms() {
            let cur = out.per_liv.entry(l).or_insert_with(LinExpr::zero);
            *cur = cur.add(&coef.scale(c as f64));
        }
        out
    }

    /// Evaluate at a (possibly fractional) iteration point, producing a
    /// linear expression over the LP variables.
    pub fn eval_point(&self, point: &[(LivId, f64)]) -> LinExpr {
        let mut out = self.constant.clone();
        for (l, e) in &self.per_liv {
            let v = point
                .iter()
                .find(|(k, _)| k == l)
                .map(|(_, v)| *v)
                .unwrap_or(0.0);
            out = out.add(&e.scale(v));
        }
        out
    }

    /// Weighted moment combination: `Σ_slot coeff_slot * moment_slot`, where
    /// `moments` gives the moment of the constant slot (`Σ w(i)`) and of each
    /// LIV slot (`Σ w(i)·i_liv`). This is the closed form of
    /// `Σ_i w(i)·self(i)` used by Equation (3).
    pub fn weighted_sum(&self, const_moment: f64, liv_moments: &BTreeMap<LivId, f64>) -> LinExpr {
        let mut out = self.constant.scale(const_moment);
        for (l, e) in &self.per_liv {
            let m = liv_moments.get(l).copied().unwrap_or(0.0);
            out = out.add(&e.scale(m));
        }
        out
    }
}

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

/// The variable layout of the per-axis offset LP.
#[derive(Debug, Clone)]
pub struct OffsetVars {
    /// For each port (by index): `None` if the port has no offset variable on
    /// this axis (replicated there), otherwise the variable of each slot
    /// (constant first, then one per LIV in `port_livs`).
    pub port_vars: Vec<Option<Vec<VarId>>>,
    /// LIV ordering per port (the LIVs of the port's iteration space).
    pub port_livs: Vec<Vec<LivId>>,
}

impl OffsetVars {
    /// The symbolic offset of a port, or `None` if it is replicated on the
    /// axis under construction.
    pub fn sym(&self, p: PortId) -> Option<SymAffine> {
        let vars = self.port_vars[p.0].as_ref()?;
        let livs = &self.port_livs[p.0];
        let mut out = SymAffine {
            constant: LinExpr::var(vars[0]),
            per_liv: BTreeMap::new(),
        };
        for (i, &l) in livs.iter().enumerate() {
            out.per_liv.insert(l, LinExpr::var(vars[i + 1]));
        }
        Some(out)
    }

    /// Diagnostic name of an offset variable — `off[p3].c` for port 3's
    /// constant slot, `off[p3].k` for its coefficient of LIV `k` — or `None`
    /// for a variable this layout does not own. Derived on demand: the LP
    /// itself carries no names.
    pub fn var_name(&self, v: VarId) -> Option<String> {
        self.port_vars.iter().enumerate().find_map(|(p, slots)| {
            let slot = slots.as_ref()?.iter().position(|&s| s == v)?;
            Some(match slot {
                0 => format!("off[p{p}].c"),
                _ => format!("off[p{p}].{}", self.port_livs[p][slot - 1]),
            })
        })
    }

    /// The LP value vector induced by a concrete alignment: every port's
    /// offset coefficients on `axis` written into its variable slots. Ports
    /// without variables (replicated on the axis) contribute nothing. The
    /// vector is sized to `num_vars` so it can cover problems that appended
    /// extra variables after the layout was built.
    pub fn values_from(
        &self,
        alignment: &ProgramAlignment,
        axis: usize,
        num_vars: usize,
    ) -> Vec<f64> {
        let mut values = vec![0.0; num_vars];
        for (idx, slots) in self.port_vars.iter().enumerate() {
            let Some(slots) = slots else { continue };
            let crate::position::OffsetAlign::Fixed(a) = &alignment.ports[idx].offsets[axis] else {
                continue;
            };
            values[slots[0].0] = a.constant_part() as f64;
            for (slot, liv) in slots[1..].iter().zip(&self.port_livs[idx]) {
                values[slot.0] = a.coeff(*liv) as f64;
            }
        }
        values
    }

    /// Read the solved offset of a port back as an [`Affine`] with rounded
    /// integer coefficients (the "R" of RLP).
    pub fn rounded_offset(&self, p: PortId, solution: &lp::Solution) -> Option<Affine> {
        let vars = self.port_vars[p.0].as_ref()?;
        let livs = &self.port_livs[p.0];
        let constant = solution.value(vars[0]).round() as i64;
        let coeffs: Vec<(LivId, i64)> = livs
            .iter()
            .enumerate()
            .map(|(i, &l)| (l, solution.value(vars[i + 1]).round() as i64))
            .collect();
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
    let OffsetLp { mut problem, vars } = build_node_constraints(adg, alignment, axis, replicated);
    // Pin the first source-node definition port to offset 0 on this axis, so
    // the (translation-invariant) solution is deterministic.
    if let Some((_, node)) = adg
        .nodes()
        .find(|(_, n)| matches!(n.kind, NodeKind::Source { .. }))
    {
        if let Some(&p) = node.output_ports().first() {
            if let Some(vs) = &vars.port_vars[p.0] {
                for &v in vs {
                    problem.add_constraint(vec![(v, 1.0)], Relation::Eq, 0.0);
                }
            }
        }
    }
    OffsetLp { problem, vars }
}

/// The hard node constraints alone, without the deterministic source pin.
/// This is the system the cost model evaluates candidate alignments against
/// when pricing constraint violations: a valid alignment may sit at any
/// translation, so the pin must not count as a violation.
pub fn build_node_constraints(
    adg: &Adg,
    alignment: &ProgramAlignment,
    axis: usize,
    replicated: &HashSet<PortId>,
) -> OffsetLp {
    let mut problem = Problem::new();
    let mut port_vars: Vec<Option<Vec<VarId>>> = Vec::with_capacity(adg.num_ports());
    let mut port_livs: Vec<Vec<LivId>> = Vec::with_capacity(adg.num_ports());

    for pid in adg.port_ids() {
        let port = adg.port(pid);
        let livs = port.space.livs();
        port_livs.push(livs.clone());
        if replicated.contains(&pid) {
            port_vars.push(None);
            continue;
        }
        // Unnamed in the LP — this runs several times per axis solve; see
        // [`OffsetVars::var_name`] for the diagnostic name.
        let vars = (0..=livs.len())
            .map(|_| problem.add_free_var("", 0.0))
            .collect();
        port_vars.push(Some(vars));
    }

    let vars = OffsetVars {
        port_vars,
        port_livs,
    };

    let mut gen = ConstraintGen {
        adg,
        alignment,
        axis,
        problem: &mut problem,
        vars: &vars,
    };
    for nid in adg.node_ids() {
        gen.node_constraints(nid);
    }

    OffsetLp { problem, vars }
}

struct ConstraintGen<'a> {
    adg: &'a Adg,
    alignment: &'a ProgramAlignment,
    axis: usize,
    problem: &'a mut Problem,
    vars: &'a OffsetVars,
}

impl<'a> ConstraintGen<'a> {
    /// Offset of `p` on the current axis, if it participates.
    fn sym(&self, p: PortId) -> Option<SymAffine> {
        self.vars.sym(p)
    }

    /// Add the equality `lhs == rhs` coefficient-wise (constant slot and every
    /// LIV slot mentioned by either side).
    fn equate(&mut self, lhs: &SymAffine, rhs: &SymAffine) {
        let diff = lhs.sub(rhs);
        self.add_zero_constraint(&diff.constant);
        for e in diff.per_liv.values() {
            self.add_zero_constraint(e);
        }
    }

    fn add_zero_constraint(&mut self, e: &LinExpr) {
        if e.terms.is_empty() {
            // A constant-only equation: either trivially satisfied or the
            // phases upstream produced an inconsistent alignment; we accept
            // small numerical residue and ignore exact conflicts here (the
            // cost model will charge the resulting misalignment).
            return;
        }
        self.problem
            .add_constraint(e.terms.clone(), Relation::Eq, -e.constant);
    }

    fn equate_ports(&mut self, a: PortId, b: PortId) {
        if let (Some(sa), Some(sb)) = (self.sym(a), self.sym(b)) {
            self.equate(&sa, &sb);
        }
    }

    /// `dst == src + known` (offsets shifted by a fully known affine form).
    fn equate_shifted(&mut self, dst: PortId, src: PortId, known: &Affine) {
        if let (Some(sd), Some(ss)) = (self.sym(dst), self.sym(src)) {
            let rhs = ss.add(&SymAffine::known(known));
            self.equate(&sd, &rhs);
        }
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
        let node = self.adg.node(nid).clone();
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
                let i = node.ports[0];
                let o = node.ports[1];
                let (Some(si), Some(so)) = (self.sym(i), self.sym(o)) else {
                    return;
                };
                match role {
                    TransformerRole::Entry => {
                        // outside value == in-loop value at the first iteration
                        let bound = so.substitute(*liv, &range.lo);
                        self.equate(&si, &bound);
                    }
                    TransformerRole::Back => {
                        // value at end of iteration k feeds iteration k+s
                        let step = Affine::liv(*liv) + range.stride.clone();
                        let shifted = si.substitute(*liv, &step);
                        self.equate(&shifted, &so);
                    }
                    TransformerRole::Exit => {
                        // outside value == in-loop value at the last iteration
                        let last = last_iteration(range);
                        let bound = si.substitute(*liv, &last);
                        self.equate(&so, &bound);
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
    use align_ir::programs;

    #[test]
    fn linexpr_arithmetic() {
        let v0 = VarId(0);
        let v1 = VarId(1);
        let _ = (v0, v1);
        let a = LinExpr {
            terms: vec![(VarId(0), 2.0)],
            constant: 1.0,
        };
        let b = LinExpr {
            terms: vec![(VarId(1), -1.0)],
            constant: 3.0,
        };
        let c = a.add(&b).scale(2.0);
        assert_eq!(c.constant, 8.0);
        assert_eq!(c.eval(&[1.0, 2.0]), 2.0 * (1.0 + 2.0 - 2.0 + 3.0));
        assert!(LinExpr::constant(4.0).is_constant());
        assert!(!LinExpr::var(VarId(0)).is_constant());
    }

    #[test]
    fn symaffine_substitution_distributes() {
        // f = x + y*k ; substitute k := k + 2  ->  x + 2y + y*k
        let k = LivId(0);
        let x = VarId(0);
        let y = VarId(1);
        let mut f = SymAffine::zero();
        f.constant = LinExpr::var(x);
        f.per_liv.insert(k, LinExpr::var(y));
        let g = f.substitute(k, &(Affine::liv(k) + Affine::constant(2)));
        // constant slot: x + 2y
        assert_eq!(g.constant.eval(&[5.0, 3.0]), 11.0);
        // k slot: y
        assert_eq!(g.per_liv[&k].eval(&[5.0, 3.0]), 3.0);
        // binding k to a constant removes the slot
        let h = f.substitute(k, &Affine::constant(7));
        assert!(h.per_liv.is_empty());
        assert_eq!(h.constant.eval(&[5.0, 3.0]), 26.0);
    }

    #[test]
    fn symaffine_known_and_eval_point() {
        let k = LivId(0);
        let f = SymAffine::known(&Affine::new(3, [(k, 2)]));
        let at = f.eval_point(&[(k, 4.5)]);
        assert!(at.is_constant());
        assert!((at.constant - 12.0).abs() < 1e-12);
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
        let sys = build_node_constraints(&adg, &alignment, 0, &HashSet::new());
        // The LP carries no names; the layout derives them.
        assert_eq!(sys.problem.var_name(VarId(0)), "");
        let (p, slots) = sys
            .vars
            .port_vars
            .iter()
            .enumerate()
            .find_map(|(p, s)| s.as_ref().filter(|s| s.len() > 1).map(|s| (p, s)))
            .expect("figure1 has in-loop ports");
        assert_eq!(sys.vars.var_name(slots[0]), Some(format!("off[p{p}].c")));
        let liv = sys.vars.port_livs[p][0];
        assert_eq!(
            sys.vars.var_name(slots[1]),
            Some(format!("off[p{p}].{liv}"))
        );
        assert_eq!(sys.vars.var_name(VarId(sys.problem.num_vars())), None);
    }

    #[test]
    fn weighted_sum_closed_form() {
        let k = LivId(0);
        let x = VarId(0);
        let mut f = SymAffine::zero();
        f.constant = LinExpr::var(x);
        f.per_liv.insert(k, LinExpr::constant(2.0));
        // Σ_{k=1..3} (x + 2k) with unit weights: moments σ0=3, σ1=6 -> 3x + 12
        let mut m = BTreeMap::new();
        m.insert(k, 6.0);
        let s = f.weighted_sum(3.0, &m);
        assert!((s.eval(&[1.0]) - 15.0).abs() < 1e-12);
    }
}
