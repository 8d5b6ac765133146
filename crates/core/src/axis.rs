//! Axis alignment (discrete metric).
//!
//! Axis alignment decides which template axis each body axis of each object
//! maps to. Any change of axis needs general communication, so the metric is
//! discrete (Section 2.3). The search here follows the structure of the
//! earlier static-alignment work the paper builds on: the hard node
//! constraints determine how axis maps propagate through the ADG (transpose
//! swaps them, sections and reductions project them, spreads insert a fresh
//! axis), so the only genuinely free choices are the axis maps of the
//! declared arrays. Those are chosen by exhaustive search when the number of
//! combinations is small and greedily otherwise, scoring each candidate with
//! the exact discrete-metric edge cost.

use crate::position::ProgramAlignment;
use adg::{Adg, NodeKind, PortId};
use align_ir::ArrayId;
use std::collections::BTreeMap;

/// The template rank needed by an ADG: the maximum port rank (at least 1).
pub fn template_rank(adg: &Adg) -> usize {
    adg.port_ids()
        .map(|p| adg.port(p).rank)
        .max()
        .unwrap_or(1)
        .max(1)
}

/// All injective maps from `rank` body axes into `template_rank` template
/// axes (the candidate axis maps of a declared array).
pub fn candidate_axis_maps(rank: usize, template_rank: usize) -> Vec<Vec<usize>> {
    fn go(rank: usize, template_rank: usize, prefix: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if prefix.len() == rank {
            out.push(prefix.clone());
            return;
        }
        for t in 0..template_rank {
            if !prefix.contains(&t) {
                prefix.push(t);
                go(rank, template_rank, prefix, out);
                prefix.pop();
            }
        }
    }
    let mut out = Vec::new();
    go(rank, template_rank, &mut Vec::new(), &mut out);
    if out.is_empty() {
        out.push(Vec::new()); // rank-0 objects have exactly one (empty) map
    }
    out
}

/// Solve the axis phase: fill `alignment.axis_map` for every port and return
/// the resulting discrete-metric (general-communication) cost.
pub fn solve_axes(adg: &Adg, alignment: &mut ProgramAlignment) -> f64 {
    let t = alignment.template_rank;
    // Free choices: axis map of each declared array (its Source port).
    let arrays: Vec<(ArrayId, usize)> = adg
        .nodes()
        .filter_map(|(_, n)| match n.kind {
            NodeKind::Source { array } => {
                let rank = adg.port(n.ports[0]).rank;
                Some((array, rank))
            }
            _ => None,
        })
        .collect();
    let candidates: Vec<Vec<Vec<usize>>> = arrays
        .iter()
        .map(|&(_, rank)| candidate_axis_maps(rank, t))
        .collect();

    // One candidate combination, propagated and priced.
    let evaluate = |idx: &[usize]| {
        let choice: BTreeMap<ArrayId, Vec<usize>> = arrays
            .iter()
            .zip(idx)
            .map(|(&(a, _), &i)| (a, candidates_at(&candidates, &arrays, a, i)))
            .collect();
        let maps = propagate_axis_maps(adg, t, &choice);
        let cost = discrete_axis_cost(adg, &maps);
        (maps, cost)
    };
    let total_combos: usize = candidates.iter().map(|c| c.len()).product();
    // The cheapest combination seen, as the maps it propagated to.
    let mut best_maps: Option<Vec<Vec<usize>>> = None;
    let mut best_cost = f64::INFINITY;

    if total_combos <= 4096 && total_combos > 0 {
        // Exhaustive search over array axis maps.
        let mut idx = vec![0usize; arrays.len()];
        loop {
            let (maps, cost) = evaluate(&idx);
            if cost < best_cost {
                best_cost = cost;
                best_maps = Some(maps);
            }
            if !advance(&mut idx, &candidates) {
                break;
            }
        }
    } else {
        // Greedy: natural maps first, then improve one array at a time.
        let mut idx = vec![0usize; arrays.len()];
        let mut improved = true;
        while improved {
            improved = false;
            for ai in 0..arrays.len() {
                let mut local_best = idx[ai];
                let mut local_maps = None;
                let mut local_cost = f64::INFINITY;
                for ci in 0..candidates[ai].len() {
                    idx[ai] = ci;
                    let (maps, cost) = evaluate(&idx);
                    if cost < local_cost {
                        local_cost = cost;
                        local_best = ci;
                        local_maps = Some(maps);
                    }
                }
                if idx[ai] != local_best {
                    improved = true;
                }
                idx[ai] = local_best;
                if local_cost < best_cost {
                    best_cost = local_cost;
                    best_maps = local_maps;
                }
            }
        }
    }

    // Apply the best choice (the natural maps if nothing priced finite).
    let (maps, cost) = match best_maps {
        Some(maps) => (maps, best_cost),
        None => evaluate(&vec![0; arrays.len()]),
    };
    for pid in adg.port_ids() {
        alignment.port_mut(pid).axis_map = maps[pid.0].clone();
        // Keep strides sized to the (possibly re-derived) rank.
        let rank = maps[pid.0].len();
        alignment
            .port_mut(pid)
            .strides
            .resize(rank, align_ir::Affine::constant(1));
    }
    cost
}

fn candidates_at(
    candidates: &[Vec<Vec<usize>>],
    arrays: &[(ArrayId, usize)],
    array: ArrayId,
    idx: usize,
) -> Vec<usize> {
    let pos = arrays.iter().position(|&(a, _)| a == array).unwrap();
    candidates[pos][idx].clone()
}

fn advance(idx: &mut [usize], candidates: &[Vec<Vec<usize>>]) -> bool {
    // Odometer order with the last position fastest, so "natural" choices for
    // the earlier-declared arrays are preferred among cost ties.
    for i in (0..idx.len()).rev() {
        idx[i] += 1;
        if idx[i] < candidates[i].len() {
            return true;
        }
        idx[i] = 0;
    }
    false
}

/// Propagate axis maps forward through the ADG given the declared arrays'
/// maps, satisfying every hard node constraint by construction.
pub fn propagate_axis_maps(
    adg: &Adg,
    template_rank: usize,
    array_maps: &BTreeMap<ArrayId, Vec<usize>>,
) -> Vec<Vec<usize>> {
    let mut maps: Vec<Option<Vec<usize>>> = vec![None; adg.num_ports()];

    // Seed sources.
    for (_, node) in adg.nodes() {
        if let NodeKind::Source { array } = node.kind {
            let rank = adg.port(node.ports[0]).rank;
            let map = array_maps
                .get(&array)
                .cloned()
                .unwrap_or_else(|| (0..rank).collect());
            maps[node.ports[0].0] = Some(map);
        }
    }

    // Fixpoint passes: resolve nodes whose driving inputs are known.
    let natural = |rank: usize| (0..rank).collect::<Vec<usize>>();
    for _ in 0..adg.num_nodes() + 2 {
        let mut changed = false;
        for (_, node) in adg.nodes() {
            // Pull each use port's map from its incoming edge source.
            for &p in node.input_ports() {
                if maps[p.0].is_some() {
                    continue;
                }
                if let Some(e) = adg.in_edge(p) {
                    if let Some(src_map) = maps[adg.edge(e).src.0].clone() {
                        // The use port adopts the incoming object's map
                        // unless the node forces otherwise (handled below).
                        maps[p.0] = Some(clip(&src_map, adg.port(p).rank));
                        changed = true;
                    }
                }
            }
            // Compute def ports from the node rule.
            match &node.kind {
                NodeKind::Source { .. } | NodeKind::Sink { .. } => {}
                NodeKind::Elementwise { .. } | NodeKind::Merge | NodeKind::Branch => {
                    let out = *node.output_ports().first().expect("result port");
                    if maps[out.0].is_some() {
                        continue;
                    }
                    // Use the first known input; all ports then share it.
                    if let Some(m) = node
                        .input_ports()
                        .iter()
                        .filter_map(|&p| maps[p.0].clone())
                        .next()
                    {
                        let rank = adg.port(out).rank;
                        let m = fit(&m, rank, template_rank);
                        for &p in node.input_ports() {
                            let r = adg.port(p).rank;
                            maps[p.0] = Some(fit(&m, r, template_rank));
                        }
                        maps[out.0] = Some(m);
                        changed = true;
                    }
                }
                NodeKind::Fanout => {
                    if let Some(m) = maps[node.ports[0].0].clone() {
                        for &p in node.output_ports() {
                            if maps[p.0].is_none() {
                                maps[p.0] = Some(m.clone());
                                changed = true;
                            }
                        }
                    }
                }
                NodeKind::Gather => {
                    let (x, o) = (node.ports[1], node.ports[2]);
                    if maps[o.0].is_none() {
                        if let Some(m) = maps[x.0].clone() {
                            maps[o.0] = Some(m);
                            changed = true;
                        }
                    }
                }
                NodeKind::Transpose => {
                    let (i, o) = (node.ports[0], node.ports[1]);
                    if maps[o.0].is_none() {
                        if let Some(m) = maps[i.0].clone() {
                            let mut swapped = m.clone();
                            swapped.reverse();
                            maps[o.0] = Some(swapped);
                            changed = true;
                        }
                    }
                }
                NodeKind::Spread { dim, .. } => {
                    let (i, o) = (node.ports[0], node.ports[1]);
                    if maps[o.0].is_none() {
                        if let Some(m) = maps[i.0].clone() {
                            let mut out_map = m.clone();
                            let free = (0..template_rank)
                                .find(|t| !m.contains(t))
                                .unwrap_or(template_rank.saturating_sub(1));
                            out_map.insert((*dim).min(out_map.len()), free);
                            maps[o.0] = Some(out_map);
                            changed = true;
                        }
                    }
                }
                NodeKind::Reduce { dim } => {
                    let (i, o) = (node.ports[0], node.ports[1]);
                    if maps[o.0].is_none() {
                        if let Some(m) = maps[i.0].clone() {
                            let mut out_map = m.clone();
                            if *dim < out_map.len() {
                                out_map.remove(*dim);
                            }
                            maps[o.0] = Some(out_map);
                            changed = true;
                        }
                    }
                }
                NodeKind::Section { section } => {
                    let (i, o) = (node.ports[0], node.ports[1]);
                    if maps[o.0].is_none() {
                        if let Some(m) = maps[i.0].clone() {
                            let surviving = section.surviving_axes();
                            let out_map: Vec<usize> = surviving
                                .iter()
                                .filter_map(|&a| m.get(a).copied())
                                .collect();
                            maps[o.0] = Some(out_map);
                            changed = true;
                        }
                    }
                }
                NodeKind::SectionAssign { section } => {
                    let (old, val, out) = (node.ports[0], node.ports[1], node.ports[2]);
                    if let Some(m) = maps[old.0].clone() {
                        if maps[out.0].is_none() {
                            maps[out.0] = Some(m.clone());
                            changed = true;
                        }
                        if maps[val.0].is_none() {
                            let surviving = section.surviving_axes();
                            let val_map: Vec<usize> = surviving
                                .iter()
                                .filter_map(|&a| m.get(a).copied())
                                .collect();
                            maps[val.0] = Some(val_map);
                            changed = true;
                        }
                    }
                }
                NodeKind::Transformer { .. } => {
                    let (i, o) = (node.ports[0], node.ports[1]);
                    if maps[o.0].is_none() {
                        if let Some(m) = maps[i.0].clone() {
                            maps[o.0] = Some(m);
                            changed = true;
                        }
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    maps.into_iter()
        .enumerate()
        .map(|(i, m)| m.unwrap_or_else(|| natural(adg.port(PortId(i)).rank)))
        .collect()
}

fn clip(map: &[usize], rank: usize) -> Vec<usize> {
    map.iter().copied().take(rank).collect()
}

/// Fit a map to a possibly different rank without duplicating axes.
fn fit(map: &[usize], rank: usize, template_rank: usize) -> Vec<usize> {
    let mut out: Vec<usize> = map.iter().copied().take(rank).collect();
    let mut next_free = 0;
    while out.len() < rank {
        while out.contains(&next_free) && next_free < template_rank {
            next_free += 1;
        }
        out.push(next_free.min(template_rank.saturating_sub(1)));
        next_free += 1;
    }
    out
}

/// Discrete-metric cost of a candidate axis assignment: the total data on
/// edges whose endpoints map some body axis differently.
pub fn discrete_axis_cost(adg: &Adg, maps: &[Vec<usize>]) -> f64 {
    let mut cost = 0.0;
    for (_, e) in adg.edges() {
        let a = &maps[e.src.0];
        let b = &maps[e.dst.0];
        let rank = a.len().min(b.len());
        if a[..rank] != b[..rank] || a.len() != b.len() {
            cost += e.total_data();
        }
    }
    cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use adg::build_adg;
    use align_ir::programs;

    fn fresh_alignment(adg: &Adg) -> ProgramAlignment {
        let t = template_rank(adg);
        let ranks: Vec<usize> = adg.port_ids().map(|p| adg.port(p).rank).collect();
        ProgramAlignment::identity(t, &ranks)
    }

    #[test]
    fn candidate_maps_enumeration() {
        assert_eq!(candidate_axis_maps(1, 2), vec![vec![0], vec![1]]);
        assert_eq!(candidate_axis_maps(2, 2).len(), 2);
        assert_eq!(candidate_axis_maps(0, 2), vec![Vec::<usize>::new()]);
        assert_eq!(candidate_axis_maps(2, 3).len(), 6);
    }

    #[test]
    fn example3_transpose_resolved_without_general_communication() {
        // Paper Example 3: aligning C with swapped axes removes the transpose
        // communication entirely.
        let adg = build_adg(&programs::example3(32));
        let mut alignment = fresh_alignment(&adg);
        let cost = solve_axes(&adg, &mut alignment);
        assert_eq!(cost, 0.0, "axis alignment must absorb the transpose");
        // C's source port must have the swapped map.
        let c_source = adg
            .nodes()
            .find(|(_, n)| {
                matches!(n.kind, NodeKind::Source { array } if {
                    array.0 == 1
                })
            })
            .unwrap()
            .1;
        assert_eq!(alignment.port(c_source.ports[0]).axis_map, vec![1, 0]);
    }

    #[test]
    fn figure1_v_lands_on_the_row_axis() {
        // V's single body axis must map to template axis 1 (the axis the rows
        // of A live on), otherwise every iteration needs general communication.
        let adg = build_adg(&programs::figure1(16));
        let mut alignment = fresh_alignment(&adg);
        let cost = solve_axes(&adg, &mut alignment);
        assert_eq!(cost, 0.0);
        let v_source = adg
            .nodes()
            .find(|(_, n)| matches!(n.kind, NodeKind::Source { array } if array.0 == 1))
            .unwrap()
            .1;
        assert_eq!(alignment.port(v_source.ports[0]).axis_map, vec![1]);
    }

    #[test]
    fn all_paper_programs_axis_align_without_general_comm() {
        for (name, prog) in programs::paper_programs() {
            let adg = build_adg(&prog);
            let mut alignment = fresh_alignment(&adg);
            let cost = solve_axes(&adg, &mut alignment);
            assert_eq!(cost, 0.0, "{name} should need no axis communication");
            alignment
                .validate()
                .unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    #[test]
    fn propagation_fills_every_port() {
        let adg = build_adg(&programs::stencil2d(16, 3));
        let maps = propagate_axis_maps(&adg, 2, &BTreeMap::new());
        assert_eq!(maps.len(), adg.num_ports());
        for (pid, map) in adg.port_ids().zip(&maps) {
            assert_eq!(map.len(), adg.port(pid).rank, "port {pid} map arity");
        }
    }

    #[test]
    fn template_rank_is_max_port_rank() {
        let adg = build_adg(&programs::figure4_default());
        assert_eq!(template_rank(&adg), 2);
        let adg1 = build_adg(&programs::example1(16));
        assert_eq!(template_rank(&adg1), 1);
    }
}
