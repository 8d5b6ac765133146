//! The experiment harness: regenerates every figure, example and quantitative
//! claim of the paper (experiment index E1..E15 in DESIGN.md).
//!
//! ```text
//! cargo run -p bench --release --bin experiments            # run everything
//! cargo run -p bench --release --bin experiments -- e1 e10  # selected ids
//! ```
//!
//! Output is GitHub-flavoured markdown so the tables can be pasted straight
//! into EXPERIMENTS.md.

use adg::build_adg;
use align_ir::builder::{add, rng, ProgramBuilder};
use align_ir::{programs, Affine, Program};
use alignment_core::axis::{solve_axes, template_rank};
use alignment_core::mobile_offset::{solve_all_offsets, MobileOffsetConfig, OffsetStrategy};
use alignment_core::pipeline::{align_program, PipelineConfig};
use alignment_core::replication::{brute_force_axis_cost, label_axis, ReplicationConfig};
use alignment_core::stride::{solve_strides, solve_strides_with};
use alignment_core::{CostModel, ProgramAlignment};
use bench::{random_loop_program, RandomProgramConfig, Table};
use commsim::{simulate, Machine, SimOptions};
use distrib::{solve_distribution, template_extents, ProgramDistribution, SolveConfig};
use phases::{align_then_distribute_dynamic, simulate_dynamic, simulate_static, DynamicConfig};
use std::collections::HashSet;
use std::time::Instant;

// The benchmark's own statistics and workload generators, included by path
// (the `benchmark` package depends on this one, not the other way round) so
// E26 profiles exactly the `stage_chain` programs `size_sweep` times and
// fits growth the way the ledger does.
#[allow(dead_code)]
#[path = "../../../../benchmark/src/stats.rs"]
mod benchmark_stats;
#[allow(dead_code)]
#[path = "../../../../benchmark/src/workloads.rs"]
mod benchmark_workloads;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).map(|a| a.to_lowercase()).collect();
    let want = |id: &str| args.is_empty() || args.iter().any(|a| a == id || a == "all");

    let experiments: Vec<(&str, &str, fn())> = vec![
        (
            "e1",
            "Figure 1 / Example 4 — mobile offset alignment",
            e1 as fn(),
        ),
        ("e2", "Example 1 — static offset alignment", e2),
        ("e3", "Example 2 — stride alignment", e3),
        ("e4", "Example 3 — axis alignment", e4),
        ("e5", "Example 5 — mobile stride alignment", e5),
        ("e6", "Figure 3 — subrange approximation error", e6),
        ("e7", "Section 4.2 — the five mobile-offset strategies", e7),
        ("e8", "Section 4.3 — variable-sized objects", e8),
        ("e9", "Section 4.4 — loop nests", e9),
        ("e10", "Figure 4 / Section 5 — replication labeling", e10),
        ("e11", "Theorem 1 — min-cut optimality", e11),
        ("e12", "Section 3 — mobile stride search", e12),
        ("e13", "Cost model vs. simulated communication", e13),
        ("e14", "Section 6 — replication/offset iteration", e14),
        ("e15", "Solver scaling (LP and max-flow)", e15),
        ("e16", "Processor scaling (1..=4096 processors)", e16),
        ("e17", "Block-size sensitivity", e17),
        ("e18", "Dynamic redistribution vs. best static", e18),
        (
            "e19",
            "Nested flip — loop distribution, dynamic vs static at scale",
            e19,
        ),
        (
            "e20",
            "Per-array layout-state DP — exact pricing vs the PR 4 min-approximation",
            e20,
        ),
        (
            "e21",
            "Observability — solve-internals counters across machine sizes",
            e21,
        ),
        (
            "e22",
            "Span profile — where the solve time goes (top exclusive spans)",
            e22,
        ),
        (
            "e25",
            "The flattened planner — re-profiled spans, dominance vs exhaustive DP",
            e25,
        ),
        (
            "e26",
            "The offset RLPs through their dual — primal oracle vs dual per LP, growth with atoms",
            e26,
        ),
        (
            "e27",
            "Run-collapsed placements — iteration points vs stored traversals on the benchmark cases",
            e27,
        ),
        (
            "e28",
            "Boundary moves priced as a matrix — cells, compiled sides and the DP pricing span on the benchmark cases",
            e28,
        ),
        (
            "e29",
            "The block as the unit of an offset-RLP solve — blocks posed, repeated and solved on the benchmark cases",
            e29,
        ),
        (
            "e30",
            "Evaluating an aligned ADG in place — the planner's tail by span, solve time and allocations on the benchmark cases",
            e30,
        ),
        (
            "e31",
            "The dual simplex from its feasible origin, roundings repaired by pinning — pivots, phase 1, solve time and every repair on the benchmark cases and the paper programs",
            e31,
        ),
        (
            "e33",
            "The offset RLP posed once, flat — the front end of `lp.solve` by span, allocations and solve time on the benchmark cases; `stage_chain` out to 128 atoms with fitted exponents",
            e33,
        ),
        (
            "e34",
            "A placement priced without visiting what it stands for — `commsim` spans, retained bytes, allocations and solve time on the benchmark cases",
            e34,
        ),
    ];

    for (id, title, run) in experiments {
        if want(id) {
            println!("\n## {} — {}\n", id.to_uppercase(), title);
            run();
        }
    }
}

fn pipeline_cost(p: &Program, cfg: &PipelineConfig) -> alignment_core::CommCost {
    align_program(p, cfg).1.total_cost
}

// --- E1: Figure 1 / Example 4 -------------------------------------------------

fn e1() {
    let mut t = Table::new(&[
        "n",
        "static shift cost",
        "mobile shift cost",
        "mobile broadcast",
        "sim moves static (P=4)",
        "sim moves mobile (P=4)",
    ]);
    for n in [32i64, 64, 128] {
        let p = programs::figure1(n);
        let (adg, mobile) = align_program(&p, &PipelineConfig::default());
        let mut static_cfg = PipelineConfig::default();
        static_cfg.offset = MobileOffsetConfig::static_only();
        static_cfg.disable_replication = true;
        let (_, fixed) = align_program(&p, &static_cfg);
        let machine = Machine::new(vec![2, 2], vec![(n / 2).max(1) as usize; 2]);
        let sim_static = simulate(&adg, &fixed.alignment, &machine, SimOptions::default());
        let sim_mobile = simulate(&adg, &mobile.alignment, &machine, SimOptions::default());
        t.row(vec![
            n.to_string(),
            format!("{:.0}", fixed.total_cost.shift),
            format!("{:.0}", mobile.total_cost.shift),
            format!("{:.0}", mobile.total_cost.broadcast),
            format!("{:.0}", sim_static.total_elements()),
            format!("{:.0}", sim_mobile.total_elements()),
        ]);
    }
    println!("{t}");
    println!("Paper claim: the static alignment shifts V on every iteration (Θ(n²) elements");
    println!("over the loop); the mobile alignment [k, i-k+1] removes all residual shifts,");
    println!("paying at most one broadcast of V when it is realised through replication.");
}

// --- E2..E4: the static alignment examples ------------------------------------

fn e2() {
    let mut t = Table::new(&["N", "unaligned shift cost", "aligned shift cost"]);
    for n in [64i64, 256, 1024] {
        let p = programs::example1(n);
        let adg = build_adg(&p);
        let ranks: Vec<usize> = adg.port_ids().map(|q| adg.port(q).rank).collect();
        let naive = ProgramAlignment::identity(1, &ranks);
        // "Unaligned" baseline: both arrays at identity, so the +1 shift of
        // B(2:N) is paid on its edge.
        let mut shifted = naive.clone();
        for (pid, port) in adg.ports() {
            if port.label.contains("B(2:") {
                shifted.ports[pid.0].offsets[0] =
                    alignment_core::OffsetAlign::Fixed(Affine::constant(1));
            }
        }
        let (_, aligned) = align_program(&p, &PipelineConfig::default());
        let model = CostModel::new(&adg);
        t.row(vec![
            n.to_string(),
            format!("{:.0}", model.total_cost(&shifted).shift),
            format!("{:.0}", aligned.total_cost.shift),
        ]);
    }
    println!("{t}");
    println!("Paper claim: aligning B(i) with [i-1] removes the nearest-neighbour shift.");
}

fn e3() {
    let mut t = Table::new(&["N", "identity-stride general comm", "aligned general comm"]);
    for n in [64i64, 256, 1024] {
        let p = programs::example2(n);
        let cost = pipeline_cost(&p, &PipelineConfig::default());
        // Baseline: force unit strides everywhere (the section edge then needs
        // general communication).
        let adg = build_adg(&p);
        let t_rank = template_rank(&adg);
        let ranks: Vec<usize> = adg.port_ids().map(|q| adg.port(q).rank).collect();
        let mut alignment = ProgramAlignment::identity(t_rank, &ranks);
        solve_axes(&adg, &mut alignment);
        // no stride solve: keep strides 1; the section output then mismatches
        let sec = adg
            .ports()
            .find(|(_, p)| p.is_def && p.label.contains("B(2:"))
            .map(|(pid, _)| pid)
            .unwrap();
        alignment.ports[sec.0].strides[0] = Affine::constant(2);
        let baseline = CostModel::new(&adg).total_cost(&alignment);
        t.row(vec![
            n.to_string(),
            format!("{:.0}", baseline.general),
            format!("{:.0}", cost.general),
        ]);
    }
    println!("{t}");
    println!("Paper claim: A(i) -> [2i], B(i) -> [i] avoids the general communication.");
}

fn e4() {
    let mut t = Table::new(&["n", "identity-axis general comm", "aligned general comm"]);
    for n in [32i64, 64, 128] {
        let p = programs::example3(n);
        let adg = build_adg(&p);
        let ranks: Vec<usize> = adg.port_ids().map(|q| adg.port(q).rank).collect();
        let naive = ProgramAlignment::identity(2, &ranks);
        // With identity maps everywhere the transpose node's hard constraint
        // is violated conceptually; the honest baseline keeps the transpose
        // output swapped (as the node requires) and pays for it on its edges.
        let mut baseline = naive.clone();
        for (_, node) in adg.nodes() {
            if matches!(node.kind, adg::NodeKind::Transpose) {
                let out = node.ports[1];
                baseline.ports[out.0].axis_map = vec![1, 0];
            }
        }
        let baseline_cost = CostModel::new(&adg).total_cost(&baseline);
        let aligned = pipeline_cost(&p, &PipelineConfig::default());
        t.row(vec![
            n.to_string(),
            format!("{:.0}", baseline_cost.general),
            format!("{:.0}", aligned.general),
        ]);
    }
    println!("{t}");
    println!("Paper claim: aligning C(i1,i2) with [i2,i1] removes the transpose communication.");
}

// --- E5: Example 5 --------------------------------------------------------------

fn e5() {
    let mut t = Table::new(&[
        "trips",
        "static general comm",
        "mobile general comm",
        "static / iteration",
        "mobile / iteration",
    ]);
    for trips in [25i64, 50, 100] {
        let p = programs::example5(1000, 20, trips);
        let adg = build_adg(&p);
        let t_rank = template_rank(&adg);
        let ranks: Vec<usize> = adg.port_ids().map(|q| adg.port(q).rank).collect();
        let model = CostModel::new(&adg);

        let mut mobile = ProgramAlignment::identity(t_rank, &ranks);
        solve_axes(&adg, &mut mobile);
        solve_strides(&adg, &mut mobile);
        let mobile_cost = model.total_cost(&mobile).general;

        let mut fixed = ProgramAlignment::identity(t_rank, &ranks);
        solve_axes(&adg, &mut fixed);
        solve_strides_with(&adg, &mut fixed, false);
        let static_cost = model.total_cost(&fixed).general;

        t.row(vec![
            trips.to_string(),
            format!("{static_cost:.0}"),
            format!("{mobile_cost:.0}"),
            format!("{:.1}", static_cost / (20.0 * trips as f64)),
            format!("{:.1}", mobile_cost / (20.0 * trips as f64)),
        ]);
    }
    println!("{t}");
    println!("Costs are element-traversals; dividing by the 20-element object size gives");
    println!("general communications per iteration. Paper claim: 2 with any static stride,");
    println!("1 with the mobile stride V(i) ->_k [k·i].");
}

// --- E6: Figure 3 ----------------------------------------------------------------

fn e6() {
    let mut t = Table::new(&[
        "m (subranges)",
        "approx shift cost",
        "exact optimum",
        "ratio",
        "paper bound 1+2/m^2",
    ]);
    let p = programs::skewed_sweep(48);
    let adg = build_adg(&p);
    let exact = offsets_with(&adg, OffsetStrategy::Unrolling);
    for m in [1usize, 2, 3, 5, 8] {
        let approx = offsets_with(&adg, OffsetStrategy::FixedPartition(m));
        let bound = 1.0 + 2.0 / ((m * m) as f64);
        t.row(vec![
            m.to_string(),
            format!("{approx:.0}"),
            format!("{exact:.0}"),
            format!("{:.3}", approx / exact.max(1.0)),
            format!("{bound:.3}"),
        ]);
    }
    println!("{t}");
    println!("Workload: skewed_sweep(48), whose optimal spans change sign mid-loop (the");
    println!("Figure 3(b) regime). Paper claim: fixed partitioning with m=3 is within 22%");
    println!("of optimal and m=5 within 8%.");
}

fn offsets_with(adg: &adg::Adg, strategy: OffsetStrategy) -> f64 {
    let t_rank = template_rank(adg);
    let ranks: Vec<usize> = adg.port_ids().map(|q| adg.port(q).rank).collect();
    let mut alignment = ProgramAlignment::identity(t_rank, &ranks);
    solve_axes(adg, &mut alignment);
    solve_strides(adg, &mut alignment);
    let reps = vec![HashSet::new(); t_rank];
    solve_all_offsets(
        adg,
        &mut alignment,
        &reps,
        MobileOffsetConfig::with_strategy(strategy),
    );
    CostModel::new(adg).total_cost(&alignment).shift
}

// --- E7: strategy comparison ------------------------------------------------------

fn e7() {
    let strategies = [
        OffsetStrategy::SingleRange,
        OffsetStrategy::FixedPartition(3),
        OffsetStrategy::FixedPartition(5),
        OffsetStrategy::ZeroCrossing { max_rounds: 4 },
        OffsetStrategy::RecursiveRefinement { max_rounds: 4 },
        OffsetStrategy::StateSpaceSearch { max_steps: 4 },
        OffsetStrategy::Unrolling,
    ];
    let mut t = Table::new(&[
        "strategy",
        "mean shift cost",
        "mean ratio to exact",
        "mean time (ms)",
    ]);
    let seeds = 0..6u64;
    let programs_list: Vec<Program> = seeds
        .map(|seed| {
            random_loop_program(RandomProgramConfig {
                seed,
                trips: 24,
                ..RandomProgramConfig::default()
            })
        })
        .collect();
    let adgs: Vec<adg::Adg> = programs_list.iter().map(build_adg).collect();
    let exact: Vec<f64> = adgs
        .iter()
        .map(|a| offsets_with(a, OffsetStrategy::Unrolling))
        .collect();
    for strategy in strategies {
        let mut total = 0.0;
        let mut ratio = 0.0;
        let mut time_ms = 0.0;
        for (adg_i, ex) in adgs.iter().zip(&exact) {
            let start = Instant::now();
            let cost = offsets_with(adg_i, strategy);
            time_ms += start.elapsed().as_secs_f64() * 1000.0;
            total += cost;
            ratio += cost / ex.max(1.0);
        }
        let n = adgs.len() as f64;
        t.row(vec![
            strategy.name(),
            format!("{:.0}", total / n),
            format!("{:.3}", ratio / n),
            format!("{:.1}", time_ms / n),
        ]);
    }
    println!("{t}");
    println!("Workloads: 6 random single-loop programs with skewed operands (24 iterations).");
    println!("Paper claim: unrolling is exact but expensive; fixed partitioning is the");
    println!("recommended compromise; adaptive refinement closes most of the remaining gap.");
}

// --- E8: variable-size objects ------------------------------------------------------

fn e8() {
    // A triangular workload: the section grows with the LIV, so edge weights
    // are affine in k (Section 4.3's beta_0 + beta_1 * i).
    fn triangular(n: i64) -> Program {
        let mut b = ProgramBuilder::new(format!("triangular(n={n})"));
        let a = b.array("A", &[n]);
        let c = b.array("C", &[2 * n]);
        let k = b.begin_loop(1, n);
        let ik = Affine::liv(k);
        let a_sec = b.sec_ref(a, vec![rng(1, ik.clone())]);
        let c_sec = b.sec_ref(c, vec![rng(ik.clone(), Affine::new(0, [(k, 2)]))]);
        b.assign(
            a,
            align_ir::Section::new(vec![rng(1, ik)]),
            add(a_sec, c_sec),
        );
        b.end_loop();
        b.finish()
    }
    let mut t = Table::new(&[
        "n",
        "closed-form Σ weight",
        "enumerated Σ weight",
        "static shift cost",
        "mobile shift cost",
    ]);
    for n in [32i64, 64, 128] {
        let p = triangular(n);
        let adg = build_adg(&p);
        // Check the sigma closed forms on the weight of the C-section edge.
        let (sum_closed, sum_enum) = adg
            .edges()
            .map(|(_, e)| {
                let closed = e.weight.sum_over(&e.space) as f64;
                let enumerated: i64 = e.space.points().iter().map(|pt| e.weight.eval(pt)).sum();
                (closed, enumerated as f64)
            })
            .fold((0.0, 0.0), |(a, b), (c, d)| (a + c, b + d));
        let mobile = offsets_with(&adg, OffsetStrategy::FixedPartition(3));
        let t_rank = template_rank(&adg);
        let ranks: Vec<usize> = adg.port_ids().map(|q| adg.port(q).rank).collect();
        let mut fixed = ProgramAlignment::identity(t_rank, &ranks);
        solve_axes(&adg, &mut fixed);
        solve_strides(&adg, &mut fixed);
        let reps = vec![HashSet::new(); t_rank];
        solve_all_offsets(&adg, &mut fixed, &reps, MobileOffsetConfig::static_only());
        let static_cost = CostModel::new(&adg).total_cost(&fixed).shift;
        t.row(vec![
            n.to_string(),
            format!("{sum_closed:.0}"),
            format!("{sum_enum:.0}"),
            format!("{static_cost:.0}"),
            format!("{mobile:.0}"),
        ]);
    }
    println!("{t}");
    println!("The closed-form weighted moments (sigma_0, sigma_1, sigma_2) match direct");
    println!("enumeration, and mobile offsets beat static ones on growing sections.");
}

// --- E9: loop nests -------------------------------------------------------------------

fn e9() {
    let mut t = Table::new(&[
        "n",
        "LP variables (m=3)",
        "subranges (m=3)",
        "shift cost m=3",
        "shift cost unrolled",
    ]);
    for n in [8i64, 12, 16] {
        let p = programs::nested_mobile(n);
        let adg = build_adg(&p);
        let t_rank = template_rank(&adg);
        let ranks: Vec<usize> = adg.port_ids().map(|q| adg.port(q).rank).collect();
        let mut alignment = ProgramAlignment::identity(t_rank, &ranks);
        solve_axes(&adg, &mut alignment);
        solve_strides(&adg, &mut alignment);
        let reps = vec![HashSet::new(); t_rank];
        let reports = solve_all_offsets(
            &adg,
            &mut alignment,
            &reps,
            MobileOffsetConfig::with_strategy(OffsetStrategy::FixedPartition(3)),
        );
        let cost3 = CostModel::new(&adg).total_cost(&alignment).shift;
        let exact = offsets_with(&adg, OffsetStrategy::Unrolling);
        t.row(vec![
            n.to_string(),
            reports
                .iter()
                .map(|r| r.num_vars)
                .sum::<usize>()
                .to_string(),
            reports
                .iter()
                .map(|r| r.num_subranges)
                .sum::<usize>()
                .to_string(),
            format!("{cost3:.0}"),
            format!("{exact:.0}"),
        ]);
    }
    println!("{t}");
    println!("Doubly nested mobile workload: the Cartesian 3^k-subrange decomposition");
    println!("(Section 4.4) stays close to the unrolled optimum while the LP stays small.");
}

// --- E10: Figure 4 -----------------------------------------------------------------------

fn e10() {
    let mut t = Table::new(&[
        "trips",
        "broadcast w/o labeling",
        "broadcast with min-cut",
        "improvement",
        "paper prediction",
    ]);
    for trips in [50i64, 100, 200] {
        let p = programs::figure4(100, 200, trips);
        let (_, with_cut) = align_program(&p, &PipelineConfig::default());
        let mut base_cfg = PipelineConfig::default();
        base_cfg.disable_replication = true;
        let (_, baseline) = align_program(&p, &base_cfg);
        t.row(vec![
            trips.to_string(),
            format!("{:.0}", baseline.total_cost.broadcast),
            format!("{:.0}", with_cut.total_cost.broadcast),
            format!(
                "{:.0}x",
                baseline.total_cost.broadcast / with_cut.total_cost.broadcast.max(1.0)
            ),
            format!("{trips}x"),
        ]);
    }
    println!("{t}");
    println!("Paper claim (Figure 4): without replication a broadcast occurs on every");
    println!("iteration; with the min-cut labeling a single broadcast occurs at loop entry.");
}

// --- E11: Theorem 1 -----------------------------------------------------------------------

fn e11() {
    let mut t = Table::new(&[
        "program",
        "axis",
        "min-cut cost",
        "brute-force cost",
        "optimal?",
    ]);
    let mut checked = 0;
    let mut matched = 0;
    for (name, p) in programs::paper_programs() {
        let adg = build_adg(&p);
        let t_rank = template_rank(&adg);
        let ranks: Vec<usize> = adg.port_ids().map(|q| adg.port(q).rank).collect();
        let mut alignment = ProgramAlignment::identity(t_rank, &ranks);
        solve_axes(&adg, &mut alignment);
        for axis in 0..t_rank {
            let labeling = label_axis(
                &adg,
                &alignment,
                axis,
                &HashSet::new(),
                &ReplicationConfig::default(),
            );
            if let Some(best) = brute_force_axis_cost(
                &adg,
                &alignment,
                axis,
                &HashSet::new(),
                &ReplicationConfig::default(),
                18,
            ) {
                checked += 1;
                let ok = (labeling.broadcast_cost - best).abs() < 1e-6;
                if ok {
                    matched += 1;
                }
                t.row(vec![
                    name.to_string(),
                    axis.to_string(),
                    format!("{:.0}", labeling.broadcast_cost),
                    format!("{best:.0}"),
                    if ok { "yes".into() } else { "NO".into() },
                ]);
            }
        }
    }
    println!("{t}");
    println!("Theorem 1: the min-cut labeling is optimal — {matched}/{checked} instances match");
    println!("exhaustive enumeration exactly.");
}

// --- E12: mobile stride search ---------------------------------------------------------------

fn e12() {
    let mut t = Table::new(&[
        "program",
        "static general",
        "mobile general",
        "mobile strides used",
    ]);
    for (label, p) in [
        ("example2", programs::example2(256)),
        ("example5", programs::example5_default()),
    ] {
        let adg = build_adg(&p);
        let t_rank = template_rank(&adg);
        let ranks: Vec<usize> = adg.port_ids().map(|q| adg.port(q).rank).collect();
        let model = CostModel::new(&adg);
        let mut mobile = ProgramAlignment::identity(t_rank, &ranks);
        solve_axes(&adg, &mut mobile);
        solve_strides(&adg, &mut mobile);
        let mut fixed = ProgramAlignment::identity(t_rank, &ranks);
        solve_axes(&adg, &mut fixed);
        solve_strides_with(&adg, &mut fixed, false);
        let used = mobile
            .ports
            .iter()
            .filter(|p| p.strides.iter().any(|s| !s.is_constant()))
            .count();
        t.row(vec![
            label.to_string(),
            format!("{:.0}", model.total_cost(&fixed).general),
            format!("{:.0}", model.total_cost(&mobile).general),
            used.to_string(),
        ]);
    }
    println!("{t}");
}

// --- E13: model vs simulator ------------------------------------------------------------------

fn e13() {
    let mut t = Table::new(&[
        "program",
        "P",
        "model cost (elements)",
        "simulated moves+broadcasts",
    ]);
    for (name, p) in programs::paper_programs() {
        let (adg, result) = align_program(&p, &PipelineConfig::default());
        for grid in [vec![4usize], vec![16usize]] {
            let t_rank = result.template_rank;
            let full_grid: Vec<usize> = (0..t_rank)
                .map(|i| if i == 0 { grid[0] } else { 2 })
                .collect();
            let block = vec![8usize; t_rank];
            let machine = Machine::new(full_grid, block);
            let sim = simulate(&adg, &result.alignment, &machine, SimOptions::default());
            let model =
                result.total_cost.shift + result.total_cost.broadcast + result.total_cost.general;
            t.row(vec![
                name.to_string(),
                machine.num_processors().to_string(),
                format!("{model:.0}"),
                format!("{:.0}", sim.total_elements()),
            ]);
        }
    }
    println!("{t}");
    println!("The model's element counts upper-bound the simulated traffic (the simulator");
    println!("only charges elements that actually cross a processor boundary), and the");
    println!("zero/non-zero structure — which programs need communication at all — agrees.");
}

// --- E14: iteration ----------------------------------------------------------------------------

fn e14() {
    let mut t = Table::new(&[
        "program",
        "iterations",
        "replicated ports",
        "mobile ports",
        "total cost",
    ]);
    for (name, p) in programs::paper_programs() {
        let mut cfg = PipelineConfig::default();
        cfg.max_iterations = 4;
        let (_, r) = align_program(&p, &cfg);
        t.row(vec![
            name.to_string(),
            r.iterations.to_string(),
            r.alignment.num_replicated().to_string(),
            r.alignment.num_mobile().to_string(),
            format!("{:.0}", r.total_cost.total()),
        ]);
    }
    println!("{t}");
    println!("The replication <-> mobile-offset iteration reaches quiescence within a few");
    println!("rounds on every paper program (Section 6's proposal).");
}

// --- E15: scaling ------------------------------------------------------------------------------

fn e15() {
    let mut t = Table::new(&[
        "statements",
        "ADG edges",
        "LP vars",
        "LP constraints",
        "offset solve (ms)",
        "min-cut solve (ms)",
    ]);
    for statements in [2usize, 4, 8, 16] {
        let p = random_loop_program(RandomProgramConfig {
            statements,
            num_arrays: statements.max(2),
            trips: 16,
            ..RandomProgramConfig::default()
        });
        let adg = build_adg(&p);
        let t_rank = template_rank(&adg);
        let ranks: Vec<usize> = adg.port_ids().map(|q| adg.port(q).rank).collect();
        let mut alignment = ProgramAlignment::identity(t_rank, &ranks);
        solve_axes(&adg, &mut alignment);
        solve_strides(&adg, &mut alignment);
        let reps = vec![HashSet::new(); t_rank];
        let start = Instant::now();
        let reports = solve_all_offsets(
            &adg,
            &mut alignment,
            &reps,
            MobileOffsetConfig::with_strategy(OffsetStrategy::FixedPartition(3)),
        );
        let lp_ms = start.elapsed().as_secs_f64() * 1000.0;
        let start = Instant::now();
        for axis in 0..t_rank {
            let _ = label_axis(
                &adg,
                &alignment,
                axis,
                &HashSet::new(),
                &ReplicationConfig::default(),
            );
        }
        let cut_ms = start.elapsed().as_secs_f64() * 1000.0;
        t.row(vec![
            statements.to_string(),
            adg.num_edges().to_string(),
            reports
                .iter()
                .map(|r| r.num_vars)
                .sum::<usize>()
                .to_string(),
            reports
                .iter()
                .map(|r| r.num_constraints)
                .sum::<usize>()
                .to_string(),
            format!("{lp_ms:.1}"),
            format!("{cut_ms:.1}"),
        ]);
    }
    println!("{t}");
    println!("Both phases stay low-order polynomial in the ADG size, as the paper assumes.");
}

// --- E16: processor scaling ---------------------------------------------------------------------

fn e16() {
    let workloads = [
        ("stencil2d(64)", programs::stencil2d(64, 4)),
        ("figure1(64)", programs::figure1(64)),
        ("fft_like(64)", programs::fft_like(64, 8)),
    ];
    let mut t = Table::new(&[
        "workload",
        "P",
        "best distribution",
        "elements",
        "candidates",
        "solve (ms)",
    ]);
    for (name, program) in &workloads {
        let (adg, result) = align_program(program, &PipelineConfig::default());
        for p in [1usize, 4, 16, 64, 256, 1024, 4096] {
            let cfg = SolveConfig::new(p);
            let start = Instant::now();
            let report = solve_distribution(&adg, &result.alignment, &cfg);
            let ms = start.elapsed().as_secs_f64() * 1000.0;
            t.row(vec![
                name.to_string(),
                p.to_string(),
                report.best().distribution.to_string(),
                format!("{:.0}", report.best().elements),
                report.candidates_evaluated.to_string(),
                format!("{ms:.1}"),
            ]);
        }
    }
    println!("{t}");
    println!("The search enumerates every (grid, layout) candidate, each priced by the");
    println!("exact elements it moves, and stays under 100 candidates to 4096");
    println!("processors. Idle processors are not priced: past the template's size the");
    println!("count stops falling, and the cheapest grid can leave most processors idle");
    println!("(1x4096 for stencil2d and fft_like).");
}

// --- E17: block-size sensitivity ----------------------------------------------------------------

fn e17() {
    let mut t = Table::new(&["workload", "layout", "moved", "broadcast", "total"]);
    for (name, program, nprocs) in [
        ("stencil2d(64) P=16", programs::stencil2d(64, 4), 16usize),
        ("example1(256) P=8", programs::example1(256), 8),
    ] {
        let (adg, result) = align_program(&program, &PipelineConfig::default());
        let extents = template_extents(&adg, &result.alignment);
        let rank = extents.len();
        let grid: Vec<usize> = match rank {
            1 => vec![nprocs],
            _ => {
                let mut g = vec![1; rank];
                let side = (nprocs as f64).sqrt() as usize;
                g[0] = side;
                g[1] = nprocs / side;
                g
            }
        };
        for block in [0usize, 1, 2, 4, 8, 16] {
            let layout = match block {
                0 => distrib::Layout::Block,
                1 => distrib::Layout::Cyclic,
                b => distrib::Layout::BlockCyclic(b),
            };
            let dist = ProgramDistribution::new(&extents, &grid, &vec![layout; rank]);
            let sim = simulate(&adg, &result.alignment, &dist, SimOptions::exact());
            t.row(vec![
                name.to_string(),
                dist.to_string(),
                format!("{:.0}", sim.total.element_moves),
                format!("{:.0}", sim.total.broadcast_elements),
                format!("{:.0}", sim.total_elements()),
            ]);
        }
    }
    println!("{t}");
    println!("Exact counts. Nearest-neighbour workloads degrade monotonically as the");
    println!("block shrinks towards CYCLIC (every shift crosses an ownership boundary);");
    println!("an aligned program moves nothing under any layout.");
}

// --- E18: dynamic redistribution ----------------------------------------------------------------

fn e18() {
    let mut t = Table::new(&[
        "workload",
        "P",
        "phases",
        "plan",
        "sim dynamic",
        "sim static",
        "winner",
    ]);
    for (name, program) in [
        ("fft_like(32,40)", programs::fft_like(32, 40)),
        ("fft_like(32,1)", programs::fft_like(32, 1)),
        ("multigrid(32)", programs::multigrid_vcycle(32, 4, 4)),
        ("stencil2d(32)", programs::stencil2d(32, 4)),
    ] {
        for p in [8usize, 16] {
            let result = align_then_distribute_dynamic(&program, p, &DynamicConfig::default());
            let opts = SimOptions::default();
            let dynamic = simulate_dynamic(&result, opts).total_elements();
            let fixed = simulate_static(&result, opts).total_elements();
            let plan: Vec<String> = result
                .dynamic
                .per_phase
                .iter()
                .map(|d| {
                    let g: Vec<String> = d.grid().iter().map(usize::to_string).collect();
                    g.join("x")
                })
                .collect();
            t.row(vec![
                name.to_string(),
                p.to_string(),
                result.phases.len().to_string(),
                plan.join(" -> "),
                format!("{dynamic:.0}"),
                format!("{fixed:.0}"),
                if dynamic + 1e-9 < fixed {
                    "dynamic".into()
                } else if fixed + 1e-9 < dynamic {
                    "static".into()
                } else {
                    "tie".into()
                },
            ]);
        }
    }
    println!("{t}");
    println!("On the transpose-heavy FFT workload the dynamic plan redistributes once");
    println!("between the row and column phases and beats every static distribution in");
    println!("the exact simulator; with a single trip per phase the boundary all-to-all");
    println!("cannot pay for itself and the DAG keeps one distribution (no regression on");
    println!("single-topology programs).");
}

// --- E19: nested flip via loop distribution ------------------------------------------------------

fn e19() {
    let mut t = Table::new(&[
        "P",
        "atoms",
        "phases",
        "plan",
        "sim dynamic",
        "sim static",
        "winner",
    ]);
    let program = programs::fft_like_nested(32, 40);
    for p in [8usize, 16, 32, 64, 128] {
        let result = align_then_distribute_dynamic(&program, p, &DynamicConfig::default());
        let opts = SimOptions::default();
        let dynamic = simulate_dynamic(&result, opts).total_elements();
        let fixed = simulate_static(&result, opts).total_elements();
        let plan: Vec<String> = result
            .dynamic
            .per_phase
            .iter()
            .map(|d| {
                let g: Vec<String> = d.grid().iter().map(usize::to_string).collect();
                g.join("x")
            })
            .collect();
        t.row(vec![
            p.to_string(),
            result.num_atoms().to_string(),
            result.phases.len().to_string(),
            plan.join(" -> "),
            format!("{dynamic:.0}"),
            format!("{fixed:.0}"),
            if dynamic + 1e-9 < fixed {
                "dynamic".into()
            } else if fixed + 1e-9 < dynamic {
                "static".into()
            } else {
                "tie".into()
            },
        ]);
    }
    println!("{t}");
    println!("fft_like_nested hides the row->column flip inside ONE top-level loop:");
    println!("statement-level segmentation sees a single atom and finds nothing. Loop");
    println!("distribution fissions the body (writes are disjoint; the shared operand D");
    println!("is read-only), the detector cuts between the halves, and the plan pays one");
    println!("all-to-all for D at the boundary instead of losing a phase every trip.");
}

// --- E20: per-array layout-state DP ---------------------------------------------------------------

fn e20() {
    let mut t = Table::new(&[
        "workload",
        "P",
        "phases",
        "plan",
        "planned",
        "sim dynamic",
        "sim static",
        "winner",
    ]);
    for (name, program) in [
        ("multi_array(32,8)", programs::multi_array_pipeline(32, 8)),
        ("reduction_tree(24,24)", programs::reduction_tree(24, 24)),
    ] {
        for p in [8usize, 16, 32, 64, 128] {
            let result = align_then_distribute_dynamic(&program, p, &DynamicConfig::default());
            let opts = SimOptions::default();
            let dynamic = simulate_dynamic(&result, opts).total_elements();
            let fixed = simulate_static(&result, opts).total_elements();
            let plan: Vec<String> = result
                .dynamic
                .per_phase
                .iter()
                .map(|d| {
                    let g: Vec<String> = d.grid().iter().map(usize::to_string).collect();
                    g.join("x")
                })
                .collect();
            t.row(vec![
                name.to_string(),
                p.to_string(),
                result.phases.len().to_string(),
                plan.join(" -> "),
                format!("{:.0}", result.dynamic.planned_cost),
                format!("{dynamic:.0}"),
                format!("{fixed:.0}"),
                if dynamic + 1e-9 < fixed {
                    "dynamic".into()
                } else if fixed + 1e-9 < dynamic {
                    "static".into()
                } else {
                    "tie".into()
                },
            ]);
        }
    }
    println!("{t}");
    println!("Both workloads have arrays that disagree about the boundary (A flips after");
    println!("loop 1, B after loop 2). PR 4's DP priced one global layout per phase and an");
    println!("array skipping phases by the min over the two adjacent candidates' layouts —");
    println!("on multi_array it over-cut (4 phases) and the simulated dynamic plan LOST to");
    println!("static at P=8..16. The per-array layout-state DP prices every move from the");
    println!("true last-use layout (planned == sim dynamic by construction, exactly so");
    println!("under exact sampling), so each array pays exactly one all-to-all where it");
    println!("wants one, and dynamic wins at every machine size.");
}

// --- E21: observability — counter deltas across machine sizes -------------------------------------

fn e21() {
    let mut t = Table::new(&[
        "P",
        "phases",
        "LP pivots",
        "DP peak width",
        "DP states merged",
        "pricer hit%",
        "cache prices/builds",
        "elements priced",
    ]);
    let program = programs::reduction_tree(24, 24);
    for p in [8usize, 16, 32, 64, 128] {
        let before = trace::CounterSnapshot::now();
        let result = align_then_distribute_dynamic(&program, p, &DynamicConfig::default());
        let delta = trace::CounterSnapshot::now().delta_since(&before);
        let get = |k: &str| delta.counters.get(k).copied().unwrap_or(0);
        t.row(vec![
            p.to_string(),
            result.phases.len().to_string(),
            get("lp.pivots").to_string(),
            result.summary.peak_dp_layer_width.to_string(),
            get("phases.dp.states_merged").to_string(),
            format!("{:.0}", result.summary.pricer_hit_pct()),
            format!(
                "{}/{}",
                get("commsim.cache.prices"),
                get("commsim.cache.builds")
            ),
            get("commsim.elements_priced").to_string(),
        ]);
    }
    println!("{t}");
    println!("The always-on trace counters expose the solver's internal economy without");
    println!("touching its results. LP pivots are exactly flat across P: alignment runs");
    println!("before any machine parameter enters the pipeline. Downstream the counters");
    println!("track the *surviving* signature space, not P itself — at larger P more");
    println!("(grid, block-size) candidates collapse to the same feasible layout of the");
    println!("24x24 arrays, so the DP layers get slightly narrower, fewer duplicate");
    println!("states need merging, and the placement cache prices fewer layouts per");
    println!("build (the prices/builds ratio is the per-phase candidate count). The");
    println!("priced element volume moves with the candidate count, not P, because the");
    println!("simulator samples a fixed fraction of each edge's iteration space.");
}

// --- E22: span profile — where the solve time goes ------------------------------------------------

fn e22() {
    // The starting map for the ROADMAP's raw-speed item: inclusive vs
    // exclusive wall time per pipeline stage on the two heaviest gated
    // workloads. Rendered by `trace::profile` over one traced solve (after
    // an untimed warm-up), the same fold the `profile` binary prints.
    let workloads = [
        (
            "multi_array_pipeline",
            programs::multi_array_pipeline(32, 8),
        ),
        ("reduction_tree", programs::reduction_tree(24, 24)),
    ];
    let cfg = DynamicConfig::default();
    for (name, program) in &workloads {
        let _ = align_then_distribute_dynamic(program, 8, &cfg);
        trace::reset();
        trace::configure(trace::TraceConfig::enabled());
        let _ = align_then_distribute_dynamic(program, 8, &cfg);
        trace::configure(trace::TraceConfig::default());
        let t = trace::take();
        println!("### {name} at P=8 — top 10 exclusive-time spans\n");
        println!("{}", trace::profile::report(&t, 10));
    }
    println!("Exclusive time (a span's duration minus its direct children) is disjoint");
    println!("by construction, so the ranking names the stages that actually burn the");
    println!("cycles rather than the stages that merely contain them. `lp.solve` is");
    println!("still the headline, but the sparse kernel's own spans (`lp.factor`,");
    println!("`lp.ftran`, `lp.btran`) now attribute *inside* it: factorisation and the");
    println!("triangular solves are individually visible instead of lumped into the");
    println!("solve wrapper, and the per-pivot dense `O(m)` sweeps the pre-sparse");
    println!("profile blamed are gone — the hypersparse FTRAN/BTRAN only touch the");
    println!("nonzero pattern. What remains of `lp.solve`'s exclusive share is pricing");
    println!("and ratio-test bookkeeping, with the planner, per-candidate simulation");
    println!("and placement-cache builds still orders of magnitude behind.");
}

// --- E25: the flattened planner — profile and DP pruning ----------------------

fn e25() {
    use phases::{layout_dp_problem, DpPruning};

    // Table group 1: the E22 profile rerun after the PR 10 planner work
    // (dominance-pruned DP, batched Devex BTRAN, PlacementCache-backed
    // standalone simulation, compiled owner LUTs). Same fold as e22, so
    // the two experiments read as before/after.
    let heavy = [
        (
            "multi_array_pipeline",
            programs::multi_array_pipeline(32, 8),
        ),
        ("reduction_tree", programs::reduction_tree(24, 24)),
    ];
    let cfg = DynamicConfig::default();
    for (name, program) in &heavy {
        let _ = align_then_distribute_dynamic(program, 8, &cfg);
        trace::reset();
        trace::configure(trace::TraceConfig::enabled());
        let _ = align_then_distribute_dynamic(program, 8, &cfg);
        trace::configure(trace::TraceConfig::default());
        let t = trace::take();
        println!("### {name} at P=8 — top 10 exclusive-time spans (post-PR 10)\n");
        println!("{}", trace::profile::report(&t, 10));
    }

    // Table 2: the dominance pruner vs the exhaustive ground truth, on
    // the real candidate layers the pipeline hands the DP, across machine
    // sizes. Width columns are max states in any layer;
    // the cost columns are the plan-identity contract run live (the
    // property test pins it bitwise over the whole suite plus random
    // programs — `crates/bench/tests/layout_dp_property.rs`).
    println!("### layout DP — dominance pruning vs the exhaustive DP\n");
    let mut t = Table::new(&[
        "workload",
        "P",
        "exhaustive max width",
        "dominance max width",
        "dominated states",
        "dominance cost == exhaustive",
    ]);
    for (name, program) in [
        (
            "multi_array_pipeline",
            programs::multi_array_pipeline(32, 8),
        ),
        ("reduction_tree", programs::reduction_tree(24, 24)),
        ("multigrid_vcycle", programs::multigrid_vcycle(32, 4, 4)),
    ] {
        for nprocs in [8usize, 32, 128] {
            let problem = layout_dp_problem(&program, nprocs, &cfg);
            let solve = |pruning: DpPruning| {
                let before = trace::CounterSnapshot::now();
                let plan = problem
                    .solve(cfg.switch_margin, pruning)
                    .expect("layout DP solves");
                let delta = trace::CounterSnapshot::now().delta_since(&before);
                let dominated = delta
                    .counters
                    .get("phases.dp.dominated")
                    .copied()
                    .unwrap_or(0);
                (plan, dominated)
            };
            let (exhaustive, _) = solve(DpPruning::Exhaustive);
            let (dominance, dominated) = solve(DpPruning::Dominance { trigger: 1 });
            let width = |plan: &phases::LayoutDpPlan| {
                plan.states_per_layer.iter().copied().max().unwrap_or(0)
            };
            t.row(vec![
                name.to_string(),
                nprocs.to_string(),
                width(&exhaustive).to_string(),
                width(&dominance).to_string(),
                dominated.to_string(),
                if dominance.cost.to_bits() == exhaustive.cost.to_bits() {
                    "yes".into()
                } else {
                    "NO".into()
                },
            ]);
        }
    }
    println!("{t}");

    println!("Read against e22: the planner's own spans have left the top of the");
    println!("profile — what remains is simplex tail work (`lp.pivot_tail`, the raw");
    println!("`lp.ftran`/`lp.btran` kernel solves) plus alignment assembly, which is");
    println!("what the ROADMAP's raw-speed item now points at. The DP table shows");
    println!("dominance shrinking the widest layers by 5–18x while staying *exact*");
    println!("(its cost column must read yes by theorem; the property test pins it");
    println!("bitwise over the whole suite plus random programs).");
}

// --- E26: the offset RLPs through their dual ------------------------------------------------

fn e26() {
    use alignment_core::mobile_offset::build_offset_l1;
    use benchmark_workloads::{stage_chain, StageChain};

    /// Counter delta and best-of-three wall time of `solve`.
    fn measured<T>(mut solve: impl FnMut() -> T) -> (T, trace::CounterSnapshot, f64) {
        let before = trace::CounterSnapshot::now();
        let out = solve();
        let delta = trace::CounterSnapshot::now().delta_since(&before);
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let t0 = Instant::now();
            std::hint::black_box(solve());
            best = best.min(t0.elapsed().as_secs_f64() * 1e3);
        }
        (out, delta, best)
    }

    let cfg = PipelineConfig::default();
    let chains: Vec<(String, usize, Program)> = [2usize, 4, 8, 16, 32]
        .iter()
        .map(|&stages| {
            let program = stage_chain(StageChain {
                n: 32,
                trips: 8,
                arrays: 2,
                stages,
                seed: 11,
            });
            (format!("stage_chain-{}", 2 * stages), 2 * stages, program)
        })
        .collect();
    let suite: Vec<(String, usize, Program)> = programs::phase_workloads()
        .into_iter()
        .map(|(name, program)| (name.to_string(), 0, program))
        .collect();

    let mut t = Table::new(&[
        "program",
        "axis",
        "primal rows",
        "primal cols",
        "primal pivots",
        "primal ms",
        "dual rows",
        "dual cols",
        "dual pivots",
        "dual ms",
        "objectives agree",
    ]);
    let mut primal_growth = Vec::new();
    let mut dual_growth = Vec::new();
    for (name, atoms, program) in chains.iter().chain(&suite) {
        let (adg, aligned) = align_program(program, &cfg);
        let alignment = &aligned.alignment;
        let (mut primal_total, mut dual_total) = (0.0, 0.0);
        for axis in 0..alignment.template_rank {
            let replicated: HashSet<_> = adg
                .port_ids()
                .filter(|&p| alignment.port(p).offsets[axis].is_replicated())
                .collect();
            let l1 = build_offset_l1(&adg, alignment, axis, &replicated, cfg.offset).l1;
            let primal = l1.to_primal();
            // What the simplex sees of the primal: the presolved problem.
            let reduced = lp::presolve::Presolve::new(&primal)
                .expect("node constraints are consistent")
                .reduced;
            let (p_sol, p_delta, p_ms) = measured(|| primal.solve());
            let (d_sol, d_delta, d_ms) = measured(|| l1.solve());
            let p_obj = p_sol.expect("primal oracle solves").objective;
            let d_obj = d_sol.expect("dual route solves").objective;
            assert_eq!(
                d_delta.get("lp.l1.primal_fallback"),
                0,
                "{name} axis {axis}"
            );
            primal_total += p_ms;
            dual_total += d_ms;
            t.row(vec![
                name.clone(),
                axis.to_string(),
                reduced.num_constraints().to_string(),
                reduced.num_vars().to_string(),
                p_delta.get("lp.pivots").to_string(),
                format!("{p_ms:.2}"),
                d_delta.get("lp.l1.dual_rows").to_string(),
                d_delta.get("lp.l1.dual_cols").to_string(),
                d_delta.get("lp.pivots").to_string(),
                format!("{d_ms:.2}"),
                if (p_obj - d_obj).abs() <= 1e-6 * (1.0 + p_obj.abs()) {
                    "yes".into()
                } else {
                    format!("NO ({p_obj} vs {d_obj})")
                },
            ]);
        }
        if *atoms > 0 {
            primal_growth.push((*atoms as f64, primal_total));
            dual_growth.push((*atoms as f64, dual_total));
        }
    }
    println!("{t}");
    println!(
        "Whole-program offset solve (both axes) over 4..64 atoms grows as atoms^{:.2} \
         through the primal oracle and atoms^{:.2} through the dual.\n",
        benchmark_stats::log_log_slope(&primal_growth),
        benchmark_stats::log_log_slope(&dual_growth)
    );

    // Where the time goes now, on the 32-atom case the issue quotes.
    let (name, _, program) = &chains[3];
    let dyn_cfg = DynamicConfig::default();
    let _ = align_then_distribute_dynamic(program, 8, &dyn_cfg);
    trace::reset();
    trace::configure(trace::TraceConfig::enabled());
    let _ = align_then_distribute_dynamic(program, 8, &dyn_cfg);
    trace::configure(trace::TraceConfig::default());
    let spans = trace::take();
    println!("### {name} at P=8 — top 12 exclusive-time spans\n");
    println!("{}", trace::profile::report(&spans, 12));
    let profile = trace::profile::Profile::from_trace(&spans);
    let inclusive = |span: &str| {
        profile
            .rows
            .iter()
            .find(|r| r.name == span)
            .map_or(0, |r| r.inclusive_ns)
    };
    let (solve_ns, drive_ns) = (inclusive("lp.solve"), inclusive("lp.drive_out"));
    println!(
        "`lp.solve` inclusive {}; `lp.drive_out` {} ({:.1} % of it).\n",
        trace::profile::fmt_ns(solve_ns),
        trace::profile::fmt_ns(drive_ns),
        100.0 * drive_ns as f64 / solve_ns.max(1) as f64
    );
    println!("Read against e25: the surrogate row pairs are gone from the basis — it");
    println!("has one row per surviving offset unknown, the subrange terms are boxed");
    println!("columns, and a surrogate swap is a bound flip in the ratio test. The");
    println!("primal columns time `to_primal()`, the differential oracle and counted");
    println!("fallback, through the same presolve and simplex.");
}

// --- E27: run-collapsed placements ------------------------------------------------------------

fn e27() {
    use benchmark_workloads::{Kind, Workload};
    use commsim::PlacementCache;

    // The nine planning cases of the benchmark's `lp_bound` and
    // `planner_bound` workloads, solved exactly as an op solves them. Per
    // case: what the per-atom placement caches stand for (sampled iteration
    // points that can move data, and the sampled elements of the stored
    // traversals) against what they hold (runs, distinct stored traversals,
    // live heap bytes), and the `commsim` spans of one traced solve.
    let mut t = Table::new(&[
        "case",
        "iteration points",
        "runs",
        "stored traversals",
        "sampled elements stood for",
        "retained KB",
        "cache.build ms",
        "cache.price ms",
        "simulate ms",
        "solve ms",
    ]);
    let mut profiles = Vec::new();
    for kind in [Kind::LpBound, Kind::PlannerBound] {
        let workload = Workload::build(kind, 11).expect("benchmark workload builds");
        for case in &workload.cases {
            let cfg = &workload.config;
            let solved = align_then_distribute_dynamic(&case.program, case.nprocs, cfg);
            trace::reset();
            trace::configure(trace::TraceConfig::enabled());
            let _ = align_then_distribute_dynamic(&case.program, case.nprocs, cfg);
            trace::configure(trace::TraceConfig::default());
            let profile = trace::profile::Profile::from_trace(&trace::take());
            let span_ms = |name: &str| {
                let ns = profile
                    .rows
                    .iter()
                    .find(|r| r.name == name)
                    .map_or(0, |r| r.inclusive_ns);
                format!("{:.2}", ns as f64 / 1e6)
            };

            let live_before = bench::alloc::stats().current_bytes;
            let caches: Vec<PlacementCache> = solved
                .phases
                .iter()
                .flat_map(|p| &p.atoms)
                .map(|a| PlacementCache::new(&a.adg, &a.alignment.alignment, cfg.sim))
                .collect();
            let retained = bench::alloc::stats().current_bytes - live_before;
            let (points, runs, stored, samples) = caches.iter().fold((0, 0, 0, 0), |acc, c| {
                let f = c.footprint();
                (acc.0 + f.0, acc.1 + f.1, acc.2 + f.2, acc.3 + f.3)
            });
            t.row(vec![
                case.name.clone(),
                points.to_string(),
                runs.to_string(),
                stored.to_string(),
                samples.to_string(),
                format!("{:.1}", retained as f64 / 1024.0),
                span_ms("commsim.cache.build"),
                span_ms("commsim.cache.price"),
                span_ms("commsim.simulate"),
                format!("{:.2}", profile.total_ns as f64 / 1e6),
            ]);
            if runs > 0 && points / runs >= 32 {
                profiles.push((case.name.clone(), profile));
            }
        }
    }
    println!("{t}");
    // Where the time went instead, on the cases that collapsed the most.
    for (name, profile) in &profiles {
        println!("### {name} — top 8 exclusive-time spans\n");
        println!("{}", profile.render(8));
    }
    println!("An alignment is mobile only where an offset or stride follows a loop");
    println!("index; everywhere else consecutive iteration points place the object at");
    println!("the same template cells, and the cache stores that traversal once with a");
    println!("repeat count (`commsim.iterations_collapsed` counts the folded points) —");
    println!("the traversal, not its samples: the fifth column is what the stored");
    println!("traversals stand for, and the cache holds nothing per element (E34).");
    println!("Eight of the nine cases collapse to one run per edge that moves data");
    println!("(`figure1` and `lookup_table` align perfectly and store nothing);");
    println!("`example5`, whose strides follow the loop index, is the mobile one and");
    println!("keeps a run per point; runs that place an object alike share one stored");
    println!("traversal, priced once per candidate. Reports, layer costs and every");
    println!("pre-existing counter are bit-identical to the per-point walk");
    println!("(`tests/placement_collapse.rs`).");
}

// --- E28: a DP layer's boundary moves as one matrix ---------------------------------------------

fn e28() {
    use benchmark_workloads::{Kind, Workload};

    // The thirteen planning cases of the benchmark (`lp_bound`,
    // `planner_bound`, `size_sweep` at seed 11), solved exactly as an op
    // solves them. Per case: the boundary-move cells the layout DP priced
    // (`phases.pricer.misses`), the sides compiled to price them, the cells
    // that fell back to the per-element evaluation, and the exclusive time
    // of the DP's pricing span in one traced solve.
    let mut t = Table::new(&[
        "case",
        "cells priced",
        "sides compiled",
        "evaluated cells",
        "dp.price excl ms",
        "us / cell",
        "solve ms",
    ]);
    for kind in [Kind::LpBound, Kind::PlannerBound, Kind::SizeSweep] {
        let workload = Workload::build(kind, 11).expect("benchmark workload builds");
        for case in &workload.cases {
            let cfg = &workload.config;
            let _ = align_then_distribute_dynamic(&case.program, case.nprocs, cfg);
            trace::reset();
            trace::configure(trace::TraceConfig::enabled());
            let _ = align_then_distribute_dynamic(&case.program, case.nprocs, cfg);
            trace::configure(trace::TraceConfig::default());
            let cells = trace::counter("phases.pricer.misses");
            let sides = trace::counter("commsim.redist.sides_compiled");
            let evaluated = trace::counter("commsim.redist.evaluated_cells");
            let profile = trace::profile::Profile::from_trace(&trace::take());
            let price_ns = profile
                .rows
                .iter()
                .find(|r| r.name == "phases.dp.price")
                .map_or(0, |r| r.exclusive_ns);
            t.row(vec![
                case.name.clone(),
                cells.to_string(),
                sides.to_string(),
                evaluated.to_string(),
                format!("{:.2}", price_ns as f64 / 1e6),
                if cells == 0 {
                    "-".into()
                } else {
                    format!("{:.2}", price_ns as f64 / 1e3 / cells as f64)
                },
                format!("{:.2}", profile.total_ns as f64 / 1e6),
            ]);
        }
    }
    println!("{t}");
    println!("A DP layer asks for every (resting signature, candidate) pair of every");
    println!("array it touches: a matrix over a dozen sides per resting spot. Each side");
    println!("(`commsim::RestingOwners`: the owner coordinate of every sampled position");
    println!("along each array axis) is compiled once, spots are interned by content so");
    println!("later layers reuse them, and a cell combines two sides by classing each");
    println!("axis's positions by their (source, destination) owner coordinates — no");
    println!("element is visited. Where boundaries coalesce, the count includes the");
    println!("sides the final steps are re-priced from (a second, short-lived pricer).");
    println!("Costs, plans and every pre-existing counter are bit-identical to pricing");
    println!("cell by cell (`tests/move_matrix.rs`).");
}

fn e29() {
    use alignment_core::mobile_offset::build_offset_l1;
    use alignment_core::replication::label_all;
    use benchmark_workloads::{Kind, Workload};

    /// The first-round offset RLP of every template axis of `program`, as
    /// `align_adg` poses them.
    fn offset_rlps(program: &Program, cfg: &PipelineConfig) -> Vec<lp::L1Problem> {
        let adg = build_adg(program);
        let rank = template_rank(&adg);
        let ranks: Vec<usize> = adg.port_ids().map(|p| adg.port(p).rank).collect();
        let mut alignment = ProgramAlignment::identity(rank, &ranks);
        solve_axes(&adg, &mut alignment);
        solve_strides(&adg, &mut alignment);
        let labeling = label_all(&adg, &alignment, &[], &cfg.replication);
        (0..rank)
            .map(|axis| {
                let replicated = labeling.replicated_ports(axis);
                build_offset_l1(&adg, &alignment, axis, &replicated, cfg.offset).l1
            })
            .collect()
    }

    // The thirteen planning cases of the benchmark (`lp_bound`,
    // `planner_bound`, `size_sweep` at seed 11). Structure first, from the
    // RLPs themselves: the blocks of every atom's and of the whole program's
    // RLPs, how many couple two unknowns or more, and how many of those are
    // distinct within one sharing scope (the atoms together; the whole
    // program). Then the work of one solve as an op runs it: blocks posed
    // and answered from a memo, simplex runs, pivots and dual rows, and the
    // inclusive time of the three spans the change is about.
    let mut t = Table::new(&[
        "case",
        "RLPs",
        "blocks",
        "coupled",
        "distinct coupled",
        "lp.l1.blocks",
        "block_hits",
        "lp.solves",
        "lp.pivots",
        "dual rows",
        "analyze ms",
        "baseline ms",
        "lp.solve ms",
        "solve ms",
    ]);
    for kind in [Kind::LpBound, Kind::PlannerBound, Kind::SizeSweep] {
        let workload = Workload::build(kind, 11).expect("benchmark workload builds");
        for case in &workload.cases {
            let cfg = &workload.config;
            let atoms = case.program.distributable_atoms();
            let atom_rlps: Vec<lp::L1Problem> = atoms
                .iter()
                .flat_map(|a| {
                    let sub = case.program.from_atoms(std::slice::from_ref(a));
                    offset_rlps(&sub, &cfg.alignment)
                })
                .collect();
            // A single-atom program's baseline reuses its atom's alignment.
            let whole_rlps = if atoms.len() > 1 {
                offset_rlps(&case.program, &cfg.alignment)
            } else {
                Vec::new()
            };
            let (mut blocks, mut coupled, mut distinct) = (0, 0, 0);
            for scope in [&atom_rlps, &whole_rlps] {
                let mut seen = HashSet::new();
                for block in scope.iter().flat_map(|rlp| rlp.blocks()) {
                    blocks += 1;
                    if block.num_vars() >= 2 {
                        coupled += 1;
                        distinct += usize::from(seen.insert(format!("{block:?}")));
                    }
                }
            }

            let _ = align_then_distribute_dynamic(&case.program, case.nprocs, cfg);
            trace::reset();
            trace::configure(trace::TraceConfig::enabled());
            let _ = align_then_distribute_dynamic(&case.program, case.nprocs, cfg);
            trace::configure(trace::TraceConfig::default());
            let counters = [
                "lp.l1.blocks",
                "lp.l1.block_hits",
                "lp.solves",
                "lp.pivots",
                "lp.l1.dual_rows",
            ]
            .map(trace::counter);
            let profile = trace::profile::Profile::from_trace(&trace::take());
            let inclusive_ms = |span: &str| {
                let row = profile.rows.iter().find(|r| r.name == span);
                format!("{:.2}", row.map_or(0, |r| r.inclusive_ns) as f64 / 1e6)
            };
            let mut row = vec![
                case.name.clone(),
                (atom_rlps.len() + whole_rlps.len()).to_string(),
                blocks.to_string(),
                coupled.to_string(),
                distinct.to_string(),
            ];
            row.extend(counters.map(|c| c.to_string()));
            row.extend(
                ["phases.analyze_atoms", "phases.static_baseline", "lp.solve"].map(inclusive_ms),
            );
            row.push(format!("{:.2}", profile.total_ns as f64 / 1e6));
            t.row(row);
        }
    }
    println!("{t}");
    println!("An offset RLP couples two unknowns only along an ADG edge or inside a node");
    println!("constraint, so it falls apart into one block per group of arrays that meet");
    println!("in an expression (plus a one-unknown block per declared array an atom does");
    println!("not touch). `L1Problem::solve` poses the blocks one at a time — a simplex");
    println!("over one block scans and refactorises that block's columns only — and the");
    println!("atoms of one `analyze_atoms` call share a memo keyed by the block itself, so");
    println!("statements that repeat a shape run the simplex once (`lp.solves` counts");
    println!("simplex runs; `lp.l1.blocks` − `lp.l1.block_hits` of them are L1 blocks, the");
    println!("counted columns include the rounding ladder's retries). Plans, costs, offsets");
    println!("and every non-`lp.*` counter are those of the monolithic solve");
    println!("(`tests/block_solve.rs`).");
}

fn e30() {
    use benchmark_workloads::{Kind, Workload};

    // The thirteen planning cases of the benchmark (`lp_bound`,
    // `planner_bound`, `size_sweep` at seed 11), solved exactly as an op
    // solves them. Per case: the exclusive time in one traced solve of the
    // six spans that name the evaluation tail, then of the three umbrella
    // spans it used to hide in; the median wall time of nine untraced
    // solves; and the allocations of one.
    const TAIL: [&str; 6] = [
        "align.subranges",
        "align.assemble",
        "align.price",
        "align.total_cost",
        "distrib.model.build",
        "distrib.template_extents",
    ];
    const UMBRELLAS: [&str; 3] = [
        "phases.search",
        "phases.static_baseline",
        "align.solve_axis_offsets",
    ];
    let mut header = vec!["case"];
    header.extend(TAIL.iter().chain(&UMBRELLAS));
    header.extend(["solve ms", "allocations"]);
    let mut t = Table::new(&header);
    for kind in [Kind::LpBound, Kind::PlannerBound, Kind::SizeSweep] {
        let workload = Workload::build(kind, 11).expect("benchmark workload builds");
        for case in &workload.cases {
            let cfg = &workload.config;
            let solve = || align_then_distribute_dynamic(&case.program, case.nprocs, cfg);
            drop(solve());
            let before = bench::alloc::stats().allocations;
            drop(solve());
            let allocations = bench::alloc::stats().allocations - before;
            let mut times: Vec<f64> = (0..9)
                .map(|_| {
                    let start = Instant::now();
                    drop(solve());
                    start.elapsed().as_secs_f64() * 1e3
                })
                .collect();
            times.sort_by(f64::total_cmp);

            trace::reset();
            trace::configure(trace::TraceConfig::enabled());
            drop(solve());
            trace::configure(trace::TraceConfig::default());
            let profile = trace::profile::Profile::from_trace(&trace::take());
            let exclusive_ms = |span: &&str| match profile.rows.iter().find(|r| r.name == *span) {
                Some(row) => format!("{:.2}", row.exclusive_ns as f64 / 1e6),
                None => "-".into(),
            };
            let mut row = vec![case.name.clone()];
            row.extend(TAIL.iter().chain(&UMBRELLAS).map(exclusive_ms));
            row.push(format!("{:.2}", times[times.len() / 2]));
            row.push(allocations.to_string());
            t.row(row);
        }
    }
    println!("{t}");
    println!("Everything the planner asks of an alignment once it exists has a closed or");
    println!("a once-derived form, because positions are affine: an object's span along a");
    println!("template axis is its offset plus, per body axis, the nearer and the farther");
    println!("of its first and last element (`distrib.template_extents`; no corner is");
    println!("enumerated, and an edge that follows no LIV is settled by its first point");
    println!("that holds data); an axis solve derives its node-constraint rows once");
    println!("(`align.assemble`) and every RLP and every rounded candidate (`align.price`)");
    println!("reads them; subrange moments are taken once per `solve_all_offsets`");
    println!("(`align.subranges`); `align_adg` prices the edges only, the violation units");
    println!("being the ones its last axis solves measured (`align.total_cost`); and each");
    println!("atom's distribution model is built once (`distrib.model.build`) for the phase");
    println!("search and the pool re-pricing both. The umbrella spans keep what no span");
    println!("names. Template extents, RLPs, costs, rankings, plans and every counter are");
    println!("bit-identical to rebuilding (`tests/evaluation_tail.rs`,");
    println!("`tests/template_extents.rs`, `tests/node_constraints.rs`).");
}

fn e31() {
    use benchmark_workloads::{Kind, Workload};

    // Every program the repository plans: the thirteen planning cases of the
    // benchmark (`lp_bound`, `planner_bound`, `size_sweep` at seed 11), then
    // the paper programs and the phase workloads at P = 8. One traced solve
    // gives the counters, `lp.solve` inclusive and the repair events; the
    // median of nine untraced solves the wall time.
    let config = DynamicConfig::default();
    let mut cases: Vec<(String, Program, usize)> = Vec::new();
    for kind in [Kind::LpBound, Kind::PlannerBound, Kind::SizeSweep] {
        let workload = Workload::build(kind, 11).expect("benchmark workload builds");
        let planned = workload.cases.into_iter();
        cases.extend(planned.map(|c| (c.name, c.program, c.nprocs)));
    }
    let named = programs::paper_programs().into_iter();
    let named = named.chain(programs::phase_workloads());
    cases.extend(named.map(|(name, program)| (format!("{name}-p8"), program, 8)));

    const COUNTERS: [&str; 7] = [
        "lp.pivots",
        "lp.phase1_pivots",
        "lp.l1.primal_fallback",
        "align.offset_lp_failed",
        "align.round.repaired",
        "align.round.repair_solves",
        "align.ladder_engaged",
    ];
    let mut header = vec!["case"];
    header.extend(COUNTERS);
    header.extend(["lp.solve ms", "solve ms"]);
    let mut t = Table::new(&header);
    let mut repairs = Table::new(&[
        "case",
        "axis",
        "unknowns pinned",
        "re-solves",
        "LP objective",
        "exact cost",
    ]);
    for (name, program, nprocs) in &cases {
        let solve = || align_then_distribute_dynamic(program, *nprocs, &config);
        drop(solve());
        let mut times: Vec<f64> = (0..9)
            .map(|_| {
                let start = Instant::now();
                drop(solve());
                start.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        times.sort_by(f64::total_cmp);

        trace::reset();
        trace::configure(trace::TraceConfig::enabled());
        drop(solve());
        trace::configure(trace::TraceConfig::default());
        let counters = COUNTERS.map(trace::counter);
        let traced = trace::take();
        let profile = trace::profile::Profile::from_trace(&traced);
        let lp_solve = profile.rows.iter().find(|r| r.name == "lp.solve");
        let mut row = vec![name.clone()];
        row.extend(counters.map(|c| c.to_string()));
        row.push(format!(
            "{:.2}",
            lp_solve.map_or(0, |r| r.inclusive_ns) as f64 / 1e6
        ));
        row.push(format!("{:.2}", times[times.len() / 2]));
        t.row(row);
        for event in traced
            .events
            .iter()
            .filter(|e| e.name == "align.round.repair")
        {
            let arg = |key: &str| {
                let found = event.args.iter().find(|(k, _)| k == key);
                found.map_or("-", |(_, v)| v.as_str())
            };
            let moved = |what: &str| {
                let side = |s: &str| arg(&format!("{what}_{s}")).parse().unwrap_or(f64::NAN);
                format!("{:.1} -> {:.1}", side("before"), side("after"))
            };
            let mut row = vec![name.clone()];
            row.extend(["axis", "pinned", "solves"].map(|key| arg(key).to_string()));
            row.extend(["lp_objective", "exact_cost"].map(moved));
            repairs.row(row);
        }
    }
    println!("{t}");
    println!("{repairs}");
    println!("Every column of an LP starts at the point of its range nearest zero, and the");
    println!("dual of an offset RLP is feasible there (`y = 0, μ = 0`): no artificial is");
    println!("positive, so neither phase 1 nor the drive-out runs (`lp.phase1_pivots` 0),");
    println!("the zero artificials stay basic until a ratio test evicts them, and a column");
    println!("whose reduced cost is zero never moves. A rounding that breaks a node");
    println!("constraint is repaired before the ladder: the unknowns the LP left fractional");
    println!("are pinned where the rounding put them and the RLP is solved again (second");
    println!("table: one row per repaired axis solve, values before -> after). The ladder");
    println!("engages nowhere (`align.ladder_engaged` 0), no dual solve falls back to the");
    println!("surrogate expansion and no offset LP fails.");
}

fn e33() {
    use benchmark_stats::{log_log_slope, median};
    use benchmark_workloads::{stage_chain, Kind, StageChain, Workload};

    /// One traced solve, drained.
    fn traced(solve: &dyn Fn()) -> trace::Trace {
        trace::reset();
        trace::configure(trace::TraceConfig::enabled());
        solve();
        trace::configure(trace::TraceConfig::default());
        trace::take()
    }
    /// Median wall time of `runs` untraced solves, in ms.
    fn median_ms(runs: usize, solve: &dyn Fn()) -> f64 {
        let times: Vec<f64> = (0..runs)
            .map(|_| {
                let start = Instant::now();
                solve();
                start.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        median(&times)
    }

    // The thirteen planning cases of the benchmark (`lp_bound`,
    // `planner_bound`, `size_sweep` at seed 11), solved exactly as an op
    // solves them. Per case, from one traced solve: the exclusive time of
    // every span between `assemble_l1` and the first pivot, their sum, and
    // `lp.solve` inclusive; then the allocations of one untraced solve and
    // the median wall time of nine.
    const FRONT: [&str; 9] = [
        "align.assemble",
        "lp.split",
        "lp.block_key",
        "lp.presolve",
        "lp.dual_assemble",
        "lp.standard_form",
        "lp.crash",
        "lp.assemble",
        "lp.certify",
    ];
    let mut header = vec!["case"];
    header.extend(FRONT);
    header.extend(["front end", "lp.solve incl", "allocations", "solve ms"]);
    let mut t = Table::new(&header);
    for kind in [Kind::LpBound, Kind::PlannerBound, Kind::SizeSweep] {
        let workload = Workload::build(kind, 11).expect("benchmark workload builds");
        for case in &workload.cases {
            let cfg = &workload.config;
            let solve = || {
                drop(align_then_distribute_dynamic(
                    &case.program,
                    case.nprocs,
                    cfg,
                ))
            };
            solve();
            let before = bench::alloc::stats().allocations;
            solve();
            let allocations = bench::alloc::stats().allocations - before;
            let solve_ms = median_ms(9, &solve);
            let profile = trace::profile::Profile::from_trace(&traced(&solve));
            let row_of = |span: &str| profile.rows.iter().find(|r| r.name == span);
            let exclusive = |span: &str| row_of(span).map_or(0, |r| r.exclusive_ns) as f64 / 1e6;
            let mut row = vec![case.name.clone()];
            row.extend(FRONT.iter().map(|s| format!("{:.2}", exclusive(s))));
            let front: f64 = FRONT.iter().map(|s| exclusive(s)).sum();
            row.push(format!("{front:.2}"));
            let inclusive = row_of("lp.solve").map_or(0, |r| r.inclusive_ns);
            row.push(format!("{:.2}", inclusive as f64 / 1e6));
            row.push(allocations.to_string());
            row.push(format!("{solve_ms:.2}"));
            t.row(row);
        }
    }
    println!("{t}");

    // `stage_chain` past the benchmark's 32 atoms: the median pass of five,
    // and from one traced solve `lp.solve` inclusive, the pivots, and the
    // time of the `lp.scan` spans under `phases.static_baseline` (the
    // whole-program RLP, whose blocks grow with the atoms).
    let mut growth = Table::new(&[
        "atoms",
        "pass ms",
        "lp.solve ms",
        "lp.pivots",
        "lp.scan calls (baseline)",
        "lp.scan µs (baseline)",
    ]);
    let (mut pass_points, mut scan_points) = (Vec::new(), Vec::new());
    let config = DynamicConfig::default();
    for stages in [2usize, 4, 8, 16, 32, 64] {
        let program = stage_chain(StageChain {
            n: 32,
            trips: 8,
            arrays: 2,
            stages,
            seed: 11,
        });
        let solve = || drop(align_then_distribute_dynamic(&program, 8, &config));
        solve();
        let pass_ms = median_ms(5, &solve);
        let drained = traced(&solve);
        let pivots = drained.counters.get("lp.pivots").copied().unwrap_or(0);
        let under_baseline = |i: usize| {
            let ancestors =
                std::iter::successors(drained.spans[i].parent, |&p| drained.spans[p].parent);
            ancestors
                .into_iter()
                .any(|p| drained.spans[p].name == "phases.static_baseline")
        };
        let scans = drained.spans.iter().enumerate();
        let scans = scans.filter(|(i, s)| s.name == "lp.scan" && under_baseline(*i));
        let (calls, scan_ns) = scans.fold((0u64, 0u64), |(n, ns), (_, s)| (n + 1, ns + s.dur_ns));
        let profile = trace::profile::Profile::from_trace(&drained);
        let lp_solve = profile.rows.iter().find(|r| r.name == "lp.solve");
        let atoms = (2 * stages) as f64;
        pass_points.push((atoms, pass_ms));
        scan_points.push((atoms, scan_ns as f64));
        growth.row(vec![
            (2 * stages).to_string(),
            format!("{pass_ms:.2}"),
            format!("{:.2}", lp_solve.map_or(0, |r| r.inclusive_ns) as f64 / 1e6),
            pivots.to_string(),
            calls.to_string(),
            format!("{:.0}", scan_ns as f64 / 1e3),
        ]);
    }
    println!("{growth}");
    let tail = |points: &[(f64, f64)]| log_log_slope(&points[points.len() - 3..]);
    println!(
        "Fitted exponents over 4..128 atoms: pass time ∝ atoms^{:.2} (last three points {:.2}), \
         `lp.scan` under the static baseline ∝ atoms^{:.2} (last three points {:.2}).",
        log_log_slope(&pass_points),
        tail(&pass_points),
        log_log_slope(&scan_points),
        tail(&scan_points),
    );
    println!();
    println!("An offset RLP has one representation from `assemble_l1` to the first pivot:");
    println!("the equalities and Equation 3's terms sit in two flat arenas of `lp::L1Problem`,");
    println!("the union-find split, the memo key (the block read through its renumbering,");
    println!("materialised only on a miss), the equality-chain presolve and the dual's");
    println!("columns are passes over those slices, and the columns land directly in the");
    println!("compressed sparse column matrix the crash basis factorises. The simplex is");
    println!("handed the matrix it was handed before, bit for bit, so the pivot kernels'");
    println!("call counts, every `lp.*` counter and every plan are unchanged");
    println!("(`counter_gate`, `tests/l1_differential.rs`, `tests/block_solve.rs`).");
}

// --- E34: pricing a placement without visiting what it stands for -------------------------------

fn e34() {
    use benchmark_workloads::{Kind, Workload};
    use commsim::PlacementCache;

    // The thirteen planning cases of the benchmark (`lp_bound`,
    // `planner_bound`, `size_sweep` at seed 11), solved exactly as an op
    // solves them. Per case: calls and exclusive time of the three `commsim`
    // spans in one traced solve, the live heap bytes of the per-atom
    // placement caches, the traversals a cache price had to evaluate element
    // by element, and E27's / E30's solve-time and allocation columns.
    const SPANS: [&str; 3] = [
        "commsim.cache.build",
        "commsim.cache.price",
        "commsim.simulate",
    ];
    let mut t = Table::new(&[
        "case",
        "build calls",
        "build ms",
        "price calls",
        "price ms",
        "simulate calls",
        "simulate ms",
        "commsim ms",
        "evaluated traversals",
        "retained KB",
        "allocations",
        "solve ms",
    ]);
    let mut profiles = Vec::new();
    for kind in [Kind::LpBound, Kind::PlannerBound, Kind::SizeSweep] {
        let workload = Workload::build(kind, 11).expect("benchmark workload builds");
        for case in &workload.cases {
            let cfg = &workload.config;
            let solve = || align_then_distribute_dynamic(&case.program, case.nprocs, cfg);
            let solved = solve();
            let before = bench::alloc::stats().allocations;
            drop(solve());
            let allocations = bench::alloc::stats().allocations - before;
            let mut times: Vec<f64> = (0..9)
                .map(|_| {
                    let start = Instant::now();
                    drop(solve());
                    start.elapsed().as_secs_f64() * 1e3
                })
                .collect();
            times.sort_by(f64::total_cmp);

            trace::reset();
            trace::configure(trace::TraceConfig::enabled());
            drop(solve());
            trace::configure(trace::TraceConfig::default());
            let evaluated = trace::counter("commsim.cache.evaluated_traversals");
            let profile = trace::profile::Profile::from_trace(&trace::take());

            let live_before = bench::alloc::stats().current_bytes;
            let caches: Vec<PlacementCache> = (solved.phases.iter())
                .flat_map(|p| &p.atoms)
                .map(|a| PlacementCache::new(&a.adg, &a.alignment.alignment, cfg.sim))
                .collect();
            let retained = bench::alloc::stats().current_bytes - live_before;
            drop(caches);

            let mut row = vec![case.name.clone()];
            let mut commsim_ns = 0;
            for span in SPANS {
                let (calls, ns) = (profile.rows.iter().find(|r| r.name == span))
                    .map_or((0, 0), |r| (r.count, r.exclusive_ns));
                commsim_ns += ns;
                row.push(calls.to_string());
                row.push(format!("{:.2}", ns as f64 / 1e6));
            }
            row.push(format!("{:.2}", commsim_ns as f64 / 1e6));
            row.push(evaluated.to_string());
            row.push(format!("{:.1}", retained as f64 / 1024.0));
            row.push(allocations.to_string());
            row.push(format!("{:.2}", times[times.len() / 2]));
            t.row(row);
            if kind == Kind::PlannerBound {
                profiles.push((case.name.clone(), profile));
            }
        }
    }
    println!("{t}");
    for (name, profile) in &profiles {
        println!("### {name} — top 8 exclusive-time spans\n");
        println!("{}", profile.render(8));
    }
    println!("Where an object sits depends on the LIVs its extents, offsets and strides");
    println!("mention and on nothing else. The walk enumerates only the loop levels down");
    println!("to the innermost one mentioned and reads each run's length off the nest's");
    println!("bounds; a stored traversal is its extents, two position evaluators, a");
    println!("lattice and a repeat count, priced per candidate from the per-axis owner");
    println!("classes of its two sides (no element, no stored coordinate); and `n` equal");
    println!("rounded additions cost a few real ones per binade crossed. `evaluated");
    println!("traversals` counts the cache prices that fell back to the per-element");
    println!("comparison (a skewed alignment, a grid axis over 1 024 owners): 0 on every");
    println!("case. Reports, layer costs and every pre-existing counter are bit-identical");
    println!("to the point-by-point, element-by-element walk");
    println!("(`tests/placement_collapse.rs`, `crates/bench/tests/placement_differential.rs`).");
}
