//! `CostModel::template_extents` finds each object's span along a template
//! axis in closed form — per body axis the nearer and the farther of its
//! first and last element — and settles an edge whose two ends follow no LIV
//! at the first sampled point that holds data. The reference below is the
//! body it replaced, verbatim: every corner of every object at every sampled
//! point, through `PortAlignment::position_of`.

use adg::{Adg, NodeKind};
use align_ir::triplet::AffineTriplet;
use align_ir::{Affine, ArrayId, IterationSpace, LivId, Triplet, WeightPoly};
use alignment_core::position::{OffsetAlign, PortAlignment};
use array_alignment::prelude::*;
use bench::Rng;

/// The corner index vectors of an object with the given body-axis extents:
/// every combination of first (1) and last (extent) element per axis. Affine
/// position maps attain their per-axis extremes at these corners.
fn corner_indices(extents: &[i64]) -> Vec<Vec<i64>> {
    let mut corners = vec![Vec::new()];
    for &e in extents {
        corners = corners
            .into_iter()
            .flat_map(|c| {
                // A degenerate axis (extent <= 1) has a single corner; never
                // emit the duplicate (adjacent-only dedup would miss it when
                // a later axis interleaves the copies).
                let mut out = Vec::with_capacity(2);
                let mut lo = c.clone();
                lo.push(1);
                if e > 1 {
                    let mut hi = c;
                    hi.push(e);
                    out.push(lo);
                    out.push(hi);
                } else {
                    out.push(lo);
                }
                out
            })
            .collect();
    }
    corners
}

/// The corner enumeration `template_extents` used to be.
fn enumerated_extents(adg: &Adg, alignment: &ProgramAlignment, max_points: usize) -> Vec<i64> {
    let t = alignment.template_rank;
    let mut hi = vec![i64::MIN; t];
    let mut lo = vec![i64::MAX; t];
    for (_, e) in adg.edges() {
        let total = e.space.size() as usize;
        if total == 0 {
            continue;
        }
        let stride = (total / max_points.max(1)).max(1);
        let mut idx = 0usize;
        e.space.for_each_point(|point| {
            let take = idx.is_multiple_of(stride) || idx + 1 == total;
            idx += 1;
            if !take || e.weight.eval(point) == 0 || e.control_weight == 0.0 {
                return;
            }
            for &pid in &[e.src, e.dst] {
                let port = adg.port(pid);
                let pa = alignment.port(pid);
                let extents: Vec<i64> = port
                    .extents
                    .iter()
                    .map(|a| a.eval_assoc(point).max(1))
                    .collect();
                for corner in corner_indices(&extents) {
                    for (axis, coord) in pa.position_of(&corner, point).iter().enumerate() {
                        if let Some(c) = coord {
                            hi[axis] = hi[axis].max(*c);
                            lo[axis] = lo[axis].min(*c);
                        }
                    }
                }
            }
        });
    }
    hi.into_iter()
        .zip(lo)
        .map(|(h, l)| if h < l { 1 } else { (h - l + 1).max(1) })
        .collect()
}

#[test]
fn corner_indices_enumerate_extremes() {
    assert_eq!(corner_indices(&[]), vec![Vec::<i64>::new()]);
    assert_eq!(corner_indices(&[5]), vec![vec![1], vec![5]]);
    assert_eq!(
        corner_indices(&[2, 3]),
        vec![vec![1, 1], vec![1, 3], vec![2, 1], vec![2, 3]]
    );
    // Degenerate axes contribute a single corner, in any position.
    assert_eq!(corner_indices(&[1]), vec![vec![1]]);
    assert_eq!(corner_indices(&[1, 4]), vec![vec![1, 1], vec![1, 4]]);
    assert_eq!(corner_indices(&[4, 1]), vec![vec![1, 1], vec![4, 1]]);
}

/// `constant`, or with probability `follow` `constant + c·liv` for a drawn
/// LIV of the nest (a drawn `c = 0` leaves it constant after all).
fn affine(rand: &mut Rng, livs: &[LivId], follow: f64, lo: i64, hi: i64) -> Affine {
    let constant = rand.range_i64(lo, hi);
    if rand.bool_with(follow) && !livs.is_empty() {
        let liv = livs[rand.range_usize(0, livs.len())];
        Affine::new(constant, [(liv, rand.range_i64(-2, 2))])
    } else {
        Affine::constant(constant)
    }
}

/// A loop nest of depth 0 to 2; the inner loop is rectangular or
/// trapezoidal (`1..k` or `k..n`).
fn nest(rand: &mut Rng) -> IterationSpace {
    let (k, j) = (LivId(0), LivId(1));
    let depth = rand.range_usize(0, 3);
    if depth == 0 {
        return IterationSpace::scalar();
    }
    let n = rand.range_i64(1, 12);
    let outer = IterationSpace::single_loop(k, 1, n, rand.range_i64(1, 2));
    if depth == 1 {
        return outer;
    }
    let inner = match rand.range_usize(0, 3) {
        0 => AffineTriplet::constant(Triplet::range(1, rand.range_i64(1, 6))),
        1 => AffineTriplet::range(Affine::constant(1), Affine::liv(k)),
        _ => AffineTriplet::range(Affine::liv(k), Affine::constant(n)),
    };
    outer.enter_loop(j, inner)
}

/// One end of an edge: a port of rank 0 to 2 on `node` and its alignment.
/// Body axes may share a template axis; extents are 1, constant,
/// LIV-following or non-positive; strides negative, zero, positive or
/// mobile; offsets negative, positive, mobile or replicated.
fn end(
    rand: &mut Rng,
    g: &mut Adg,
    node: adg::NodeId,
    livs: &[LivId],
    template_rank: usize,
    still: bool,
    is_def: bool,
) -> PortAlignment {
    let follow = if still { 0.0 } else { 1.0 };
    let rank = rand.range_usize(0, 3);
    let extents: Vec<Affine> = (0..rank)
        .map(|_| match rand.range_usize(0, 4) {
            0 => Affine::constant(1),
            1 => Affine::constant(rand.range_i64(2, 9)),
            2 => Affine::constant(rand.range_i64(-3, 0)),
            _ => affine(rand, livs, follow, -2, 6),
        })
        .collect();
    g.add_port(node, rank, extents, None, is_def, "p");
    PortAlignment {
        axis_map: (0..rank)
            .map(|_| rand.range_usize(0, template_rank))
            .collect(),
        strides: (0..rank)
            .map(|_| affine(rand, livs, 0.3 * follow, -3, 3))
            .collect(),
        offsets: (0..template_rank)
            .map(|_| {
                if rand.bool_with(0.15) {
                    OffsetAlign::Replicated
                } else {
                    OffsetAlign::Fixed(affine(rand, livs, 0.4 * follow, -6, 6))
                }
            })
            .collect(),
    }
}

/// A graph of one to four edges over one loop nest, each edge with its own
/// pair of ports, and an alignment for it. Weights are constant or vanish
/// on part of the nest; some control weights are dead.
fn random_aligned_graph(seed: u64) -> (Adg, ProgramAlignment) {
    let mut rand = Rng::new(seed);
    let template_rank = rand.range_usize(1, 4);
    let space = nest(&mut rand);
    let livs = space.livs();
    let mut g = Adg::new(format!("random-{seed}"));
    let mut ports = Vec::new();
    for _ in 0..rand.range_usize(1, 5) {
        // Half the edges keep both ends off the LIVs: those are the ones the
        // one-point shortcut applies to.
        let still = rand.bool_with(0.5);
        let src = g.add_node(NodeKind::Source { array: ArrayId(0) }, space.clone());
        let dst = g.add_node(NodeKind::Sink { array: ArrayId(0) }, space.clone());
        ports.push(end(
            &mut rand,
            &mut g,
            src,
            &livs,
            template_rank,
            still,
            true,
        ));
        ports.push(end(
            &mut rand,
            &mut g,
            dst,
            &livs,
            template_rank,
            still,
            false,
        ));
        let weight = match rand.range_usize(0, 4) {
            0 => WeightPoly::constant(rand.range_i64(1, 5)),
            1 => WeightPoly::from_affine(affine(&mut rand, &livs, 1.0, -4, 4)),
            // Nothing to move until the outer loop is a few trips in.
            2 => WeightPoly::from_affine(Affine::new(-rand.range_i64(1, 3), [(LivId(0), 1)])),
            _ => WeightPoly::product(vec![
                affine(&mut rand, &livs, 1.0, -3, 5),
                affine(&mut rand, &livs, 1.0, 0, 7),
            ]),
        };
        let control_weight = [1.0, 1.0, 0.5, 0.0][rand.range_usize(0, 4)];
        let n = g.num_ports();
        g.add_edge(
            adg::PortId(n - 2),
            adg::PortId(n - 1),
            weight,
            space.clone(),
            control_weight,
        );
    }
    let alignment = ProgramAlignment {
        template_rank,
        ports,
    };
    (g, alignment)
}

/// True when the edge's ends follow no LIV while its weight is zero at the
/// first point and positive at a later one: the walk must not stop early.
fn sits_still_while_its_weight_comes_and_goes(
    adg: &Adg,
    alignment: &ProgramAlignment,
    e: &adg::Edge,
) -> bool {
    let still = [e.src, e.dst].iter().all(|&p| {
        adg.port(p).extents.iter().all(Affine::is_constant) && !alignment.port(p).is_mobile()
    });
    let weights: Vec<i64> = e
        .space
        .points()
        .iter()
        .map(|point| e.weight.eval(point))
        .collect();
    still
        && e.control_weight != 0.0
        && weights.first() == Some(&0)
        && weights.iter().any(|&w| w > 0)
}

#[test]
fn closed_form_equals_the_corner_enumeration_on_random_aligned_graphs() {
    let (mut shaped, mut late_settlers) = (0, 0);
    for seed in 0..500 {
        let (adg, alignment) = random_aligned_graph(seed);
        let model = CostModel::new(&adg);
        for cap in [1, 4, 128] {
            assert_eq!(
                model.template_extents(&alignment, cap),
                enumerated_extents(&adg, &alignment, cap),
                "seed {seed}, cap {cap}"
            );
        }
        if model
            .template_extents(&alignment, 128)
            .iter()
            .any(|&e| e > 1)
        {
            shaped += 1;
        }
        late_settlers += adg
            .edges()
            .filter(|(_, e)| sits_still_while_its_weight_comes_and_goes(&adg, &alignment, e))
            .count();
    }
    assert!(shaped >= 300, "only {shaped} of 500 templates have a shape");
    assert!(
        late_settlers >= 25,
        "only {late_settlers} edges sit still while their weight comes and goes"
    );
}

#[test]
fn closed_form_equals_the_corner_enumeration_on_the_paper_programs() {
    for (name, program) in programs::paper_programs() {
        let (adg, result) = align_program(&program, &PipelineConfig::default());
        let model = CostModel::new(&adg);
        for cap in [3, 128] {
            assert_eq!(
                model.template_extents(&result.alignment, cap),
                enumerated_extents(&adg, &result.alignment, cap),
                "{name}, cap {cap}"
            );
        }
    }
}
