//! `commsim` prices a placement from the shape of what it stands for: runs of
//! iteration points from the loop nest's bounds, a traversal's traffic from
//! per-axis owner classes, `n` equal additions from the binades they cross.
//! This file is the walk those shortcuts must be indistinguishable from —
//! every sampled iteration point, every sampled element, one addition each —
//! written against public API only, so it shares no code with `commsim` and
//! runs unchanged on a commit that still walked point by point.
//!
//! Checked per (program, options, machine): `simulate` equals the reference
//! edge by edge and field by field to the bit, `PlacementCache::price` equals
//! `simulate` likewise, `PlacementCache::total_elements` equals the
//! per-element unrolled sum — both also in one workspace reused across every
//! machine and option set — and the sampling counters of a walk and of a
//! cache build equal the reference's.

use adg::{build_adg, Adg, EdgeId};
use align_ir::builder::{add, rng, ProgramBuilder};
use align_ir::{programs, Affine, LivId, Program};
use alignment_core::pipeline::{align_program, PipelineConfig};
use alignment_core::position::{OffsetAlign, PortAlignment, ProgramAlignment};
use bench::{random_loop_program, RandomProgramConfig};
use commsim::{simulate, EdgeTraffic, Machine, PlacementCache, SimOptions, TrafficScratch};
use std::collections::HashSet;

/// `[elements_priced, sampling_events, iterations_collapsed]`.
type Counters = [u64; 3];

fn counters() -> Counters {
    [
        "commsim.elements_priced",
        "commsim.sampling_events",
        "commsim.iterations_collapsed",
    ]
    .map(trace::counter)
}

fn delta(f: impl FnOnce()) -> Counters {
    let before = counters();
    f();
    let after = counters();
    [0, 1, 2].map(|i| after[i] - before[i])
}

/// What the point-by-point, element-by-element walk reports.
struct Reference {
    per_edge: Vec<(EdgeId, EdgeTraffic)>,
    total: EdgeTraffic,
    /// `PlacementCache::total_elements`' sum, one addition per moved sample
    /// per iteration point.
    unrolled_elements: f64,
    /// Counters of a cache build; a walk books one more sampling event per
    /// edge whose iterations it strides.
    build: Counters,
    strided_edges: u64,
}

/// One port's alignment evaluated at an iteration point: what decides where
/// every element sits.
#[derive(PartialEq, Clone)]
struct Placed {
    offsets: Vec<Option<i64>>,
    terms: Vec<(usize, i64)>,
}

impl Placed {
    fn at(align: &PortAlignment, point: &[(LivId, i64)]) -> Placed {
        Placed {
            offsets: align.offsets.iter().map(|o| o.eval(point)).collect(),
            terms: (align.axis_map.iter().zip(&align.strides))
                .map(|(&t, s)| (t, s.eval_assoc(point)))
                .collect(),
        }
    }

    fn coords(&self, index: &[i64], out: &mut Vec<Option<i64>>) {
        out.clone_from(&self.offsets);
        for (&(t, stride), &i) in self.terms.iter().zip(index) {
            if let Some(c) = out[t].as_mut() {
                *c += stride * i;
            }
        }
    }
}

fn reference(
    adg: &Adg,
    alignment: &ProgramAlignment,
    machine: &Machine,
    opts: SimOptions,
) -> Reference {
    let mut out = Reference {
        per_edge: Vec::new(),
        total: EdgeTraffic::default(),
        unrolled_elements: 0.0,
        build: [0; 3],
        strided_edges: 0,
    };
    for (eid, edge) in adg.edges() {
        let num_points = edge.space.size() as usize;
        if num_points == 0 {
            continue;
        }
        let budget = if num_points <= opts.exact_below {
            num_points
        } else {
            opts.max_iterations_per_edge
        };
        let iter_stride = num_points.div_ceil(budget.max(1)).max(1);
        out.strided_edges += u64::from(iter_stride > 1);
        let (src, dst) = (alignment.port(edge.src), alignment.port(edge.dst));
        let broadcasts = dst.offsets.iter().any(OffsetAlign::is_replicated)
            && !src.offsets.iter().any(OffsetAlign::is_replicated);

        let mut traffic = EdgeTraffic::default();
        let mut edge_elements = 0.0;
        let mut previous: Option<(Vec<i64>, Placed, Placed)> = None;
        for (idx, point) in edge.space.points().iter().enumerate() {
            if idx % iter_stride != 0 {
                continue;
            }
            let extents: Vec<i64> = (adg.port(edge.src).extents.iter())
                .map(|a| a.eval_assoc(point).max(0))
                .collect();
            let total: i64 = extents.iter().product();
            if total <= 0 {
                continue;
            }
            // The element lattice: one stride for every axis, chosen so the
            // sample fits the budget.
            let element_budget = if total as usize <= opts.exact_below {
                total as usize
            } else {
                opts.max_elements_per_object
            };
            let shrink = (total as f64 / element_budget.max(1) as f64)
                .powf(1.0 / extents.len().max(1) as f64);
            let step = (shrink.ceil() as i64).max(1);
            let sampled: i64 = extents.iter().map(|&e| (e + step - 1) / step).product();
            let scale = total as f64 / sampled as f64;
            out.build[0] += sampled as u64;
            out.build[1] += u64::from(sampled < total);

            let here = (extents, Placed::at(src, point), Placed::at(dst, point));
            let aligned = !broadcasts && here.1 == here.2;
            if !aligned && previous.as_ref() == Some(&here) {
                out.build[2] += 1;
            }
            previous = Some(here.clone());
            if aligned {
                continue;
            }

            let (extents, from, to) = here;
            let (mut moves, mut broadcast) = (0.0, 0.0);
            let mut pairs: HashSet<(usize, usize)> = HashSet::new();
            let (mut a, mut b) = (Vec::new(), Vec::new());
            let mut index = vec![1i64; extents.len()];
            'elements: loop {
                from.coords(&index, &mut a);
                if broadcasts {
                    broadcast += scale;
                    edge_elements += scale;
                    pairs.insert((machine.owner(&a), usize::MAX));
                } else {
                    to.coords(&index, &mut b);
                    let (sender, receiver) = (machine.owner(&a), machine.owner(&b));
                    if sender != receiver {
                        moves += scale;
                        edge_elements += scale;
                        pairs.insert((sender, receiver));
                    }
                }
                for axis in (0..extents.len()).rev() {
                    index[axis] += step;
                    if index[axis] <= extents[axis] {
                        continue 'elements;
                    }
                    index[axis] = 1;
                }
                break;
            }
            traffic.element_moves += moves * iter_stride as f64 * edge.control_weight;
            traffic.messages += pairs.len() as f64 * iter_stride as f64 * edge.control_weight;
            traffic.broadcast_elements += broadcast * iter_stride as f64 * edge.control_weight;
        }
        out.unrolled_elements += edge_elements * (iter_stride as f64 * edge.control_weight);
        if !traffic.is_zero() {
            out.per_edge.push((eid, traffic));
        }
        out.total.add(&traffic);
    }
    out
}

fn same_bits(label: &str, what: &str, got: &EdgeTraffic, want: &EdgeTraffic) {
    for (field, got, want) in [
        ("element_moves", got.element_moves, want.element_moves),
        ("messages", got.messages, want.messages),
        (
            "broadcast_elements",
            got.broadcast_elements,
            want.broadcast_elements,
        ),
    ] {
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "{label}: {what} {field}: {got} != {want}"
        );
    }
}

fn same_edges(label: &str, got: &[(EdgeId, EdgeTraffic)], want: &[(EdgeId, EdgeTraffic)]) {
    assert_eq!(got.len(), want.len(), "{label}: edges that move data");
    for ((ge, gt), (we, wt)) in got.iter().zip(want) {
        assert_eq!(ge, we, "{label}: edge order");
        same_bits(label, &format!("edge {ge}"), gt, wt);
    }
}

/// Block, cyclic, a prime processor count and a single processor, on a
/// template of the given rank.
fn machines(rank: usize) -> Vec<(&'static str, Machine)> {
    let grid = |dims: &[usize]| -> Vec<usize> {
        (0..rank)
            .map(|t| dims.get(t).copied().unwrap_or(1))
            .collect()
    };
    vec![
        ("block", Machine::new(grid(&[4, 2]), vec![8; rank])),
        ("cyclic", Machine::cyclic(grid(&[4, 2]))),
        ("prime", Machine::new(grid(&[7]), vec![3; rank])),
        ("one", Machine::new(grid(&[]), vec![5; rank])),
    ]
}

fn options() -> [(&'static str, SimOptions); 4] {
    [
        ("default", SimOptions::default()),
        ("exact", SimOptions::exact()),
        ("sampled(64,32)", SimOptions::sampled(64, 32)),
        // An iteration stride that does not divide the trip count.
        ("sampled(64,7)", SimOptions::sampled(64, 7)),
    ]
}

/// Every comparison the header lists, for one aligned program. Returns the
/// elements the reference saw move over all machines and options.
fn check(
    name: &str,
    adg: &Adg,
    alignment: &ProgramAlignment,
    machines: &[(&'static str, Machine)],
) -> f64 {
    let mut moved = 0.0;
    let mut scratch = TrafficScratch::default();
    for (on, opts) in options() {
        let mut cache = None;
        let build = delta(|| cache = Some(PlacementCache::new(adg, alignment, opts)));
        let cache = cache.expect("built");
        for (mn, machine) in machines {
            let label = format!("{name} / {on} / {mn}");
            let want = reference(adg, alignment, machine, opts);
            moved += want.total.elements();

            let mut walked = None;
            let walk = delta(|| walked = Some(simulate(adg, alignment, machine, opts)));
            let walked = walked.expect("simulated");
            same_bits(&label, "simulate total", &walked.total, &want.total);
            same_edges(&label, &walked.per_edge, &want.per_edge);

            let priced = delta(|| {
                let cached = cache.price(machine);
                same_bits(&label, "price total", &cached.total, &walked.total);
                same_edges(&label, &cached.per_edge, &walked.per_edge);
                assert_eq!(
                    cache.total_elements(machine).to_bits(),
                    want.unrolled_elements.to_bits(),
                    "{label}: total_elements against the unrolled sum"
                );
                let reused = cache.price_with(machine, &mut scratch);
                same_bits(&label, "price_with total", &reused.total, &walked.total);
                same_edges(&label, &reused.per_edge, &walked.per_edge);
                assert_eq!(
                    cache.total_elements_with(machine, &mut scratch).to_bits(),
                    want.unrolled_elements.to_bits(),
                    "{label}: total_elements_with against the unrolled sum"
                );
            });

            assert_eq!(build, want.build, "{label}: PlacementCache::new counters");
            let mut walk_want = want.build;
            walk_want[1] += want.strided_edges;
            assert_eq!(walk, walk_want, "{label}: simulate counters");
            assert_eq!(priced, [0; 3], "{label}: pricing books no sampling");
        }
    }
    moved
}

fn aligned(program: &Program) -> (Adg, ProgramAlignment) {
    let (adg, result) = align_program(program, &PipelineConfig::default());
    (adg, result.alignment)
}

/// `do k = 1, 3; do j = 1, inner(k); A(1:16,1:15) = A(1:16,1:15) +
/// A(1:16,2:16)` under the identity alignment, except that the shifted
/// operand's axis-1 offset is the outer or the inner induction variable.
fn shifted_nest(inner_hi: Option<i64>, follows_outer: bool) -> (Adg, ProgramAlignment) {
    let mut b = ProgramBuilder::new("shifted_nest");
    let a = b.array("A", &[16, 16]);
    let k = b.begin_loop(1, if inner_hi.is_some() { 3 } else { 6 });
    let j = match inner_hi {
        Some(hi) => b.begin_loop(1, hi),
        None => b.begin_loop(1, Affine::liv(k)),
    };
    let near = b.sec_ref(a, vec![rng(1, 16), rng(1, 15)]);
    let far = b.sec_ref(a, vec![rng(1, 16), rng(2, 16)]);
    let lhs = align_ir::Section::new(vec![rng(1, 16), rng(1, 15)]);
    b.assign(a, lhs, add(near, far));
    b.end_loop();
    b.end_loop();
    let adg = build_adg(&b.finish());
    let ranks: Vec<usize> = adg.port_ids().map(|p| adg.port(p).rank).collect();
    let mut alignment = ProgramAlignment::identity(2, &ranks);
    let liv = if follows_outer { k } else { j };
    for (pid, port) in adg.ports() {
        if port.label.contains("2:16") {
            alignment.ports[pid.0].offsets[1] = OffsetAlign::Fixed(Affine::liv(liv));
        }
    }
    (adg, alignment)
}

#[test]
fn generated_programs_price_like_the_point_by_point_walk() {
    let mut moved = 0.0;
    for seed in 0..64 {
        let program = random_loop_program(RandomProgramConfig {
            array_size: 48,
            trips: 9,
            statements: 3,
            max_shift: 4,
            allow_skew: seed % 4 != 0,
            seed,
            ..RandomProgramConfig::default()
        });
        let (adg, alignment) = aligned(&program);
        moved += check(
            &program.name,
            &adg,
            &alignment,
            &machines(alignment.template_rank),
        );
    }
    assert!(moved > 0.0, "the generated programs move data");
}

#[test]
fn phase_workloads_price_like_the_point_by_point_walk() {
    let evaluated = || trace::counter("commsim.cache.evaluated_traversals");
    let before = evaluated();
    for (name, program) in programs::phase_workloads() {
        let (adg, alignment) = aligned(&program);
        check(name, &adg, &alignment, &machines(alignment.template_rank));
    }
    assert_eq!(evaluated(), before, "every owner map of the suite compiles");
}

#[test]
fn nests_price_like_the_point_by_point_walk() {
    for (name, (adg, alignment)) in [
        ("rectangular, outer", shifted_nest(Some(5), true)),
        ("rectangular, inner", shifted_nest(Some(5), false)),
        ("trapezoidal, outer", shifted_nest(None, true)),
        ("trapezoidal, inner", shifted_nest(None, false)),
    ] {
        assert!(
            check(name, &adg, &alignment, &machines(2)) > 0.0,
            "{name}: the shift moves data"
        );
    }
}

/// An owner map that does not compile into per-axis classes is evaluated
/// element by element over the stored lattice, on demand and counted — and
/// prices exactly as the walk does.
#[test]
fn traversals_that_do_not_compile_are_evaluated_and_right() {
    let evaluated = || trace::counter("commsim.cache.evaluated_traversals");

    // `i + j` on template axis 0: the owner coordinate is not a function of
    // one body index.
    let (adg, mut alignment) = shifted_nest(Some(5), true);
    for (pid, port) in adg.ports() {
        if port.label.contains("2:16") {
            alignment.ports[pid.0].axis_map = vec![0, 0];
        }
    }
    let before = evaluated();
    assert!(check("skewed", &adg, &alignment, &machines(2)) > 0.0);
    assert!(evaluated() > before, "a skewed traversal is evaluated");

    // A grid axis wider than the 1 024 owners a side tabulates.
    let (adg, alignment) = shifted_nest(Some(5), true);
    let wide = [("wide", Machine::cyclic(vec![1, 1025]))];
    let before = evaluated();
    assert!(check("wide grid", &adg, &alignment, &wide) > 0.0);
    assert!(evaluated() > before, "a wide grid axis is evaluated");

    let before = evaluated();
    check("compiles", &adg, &alignment, &machines(2));
    assert_eq!(evaluated(), before, "a separable traversal is not");
}
