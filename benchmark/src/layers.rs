//! The layered run: where a pass spends its time, layer by layer.
//!
//! Everything here is measured from outside the crates, by timing calls to
//! their public functions on inputs that flow out of the real pipeline
//! stages before them. A *round* is four passes over the workload's cases:
//! serial (one worker, spans off — the timed run's configuration), traced
//! (the `trace` crate's spans on), pooled (the default worker count) and a
//! stage pass that calls each layer boundary on its own. Rounds repeat
//! until the time is up; every number is a median over rounds.

use crate::measure::{Counted, Tally};
use crate::report::{fill, ratio, Metric, PER_LAYER};
use crate::spans::{durations_ms, self_ns, Recorder, NO_CASE};
use crate::stats::{cpu_seconds, log_log_slope, median, quantile};
use crate::workloads::{Case, Kind, Outcome, Workload};
use adg::build_adg;
use alignment_core::axis::{solve_axes, template_rank};
use alignment_core::constraints::build_offset_constraints;
use alignment_core::mobile_offset::solve_all_offsets;
use alignment_core::pipeline::align_adg;
use alignment_core::position::ProgramAlignment;
use alignment_core::replication::label_all;
use alignment_core::stride::solve_strides;
use commsim::{PlacementCache, SimOptions};
use distrib::{align_then_distribute, solve_distribution, FullPipelineConfig, SolveConfig};
use lp::{Kernel, KernelBench, VarId};
use phases::{
    analyze_atoms, layout_dp_problem, simulate_dynamic, simulate_static, DpPruning, DynamicConfig,
    DynamicPipelineResult,
};
use std::collections::HashSet;
use std::hint::black_box;
use std::time::Instant;
use trace::TraceConfig;

/// FTRAN/BTRAN pairs per `lp.kernel` span (as `benches/lp_kernel.rs`).
const KERNEL_SWEEPS: usize = 1000;
/// Ranked candidates priced per `commsim.price` span and atom.
const PRICED_CANDIDATES: usize = 8;
/// Box of the offset variables in the `lp.solve` problem.
const OFFSET_BOX: f64 = 64.0;

/// Spans whose per-case medians, summed over cases, are the `<name>_ms`
/// metrics.
const STAGE_SPANS: &[&str] = &[
    "ir.fission",
    "adg.build",
    "align.adg",
    "align.axis_stride",
    "align.offsets",
    "netflow.label",
    "lp.solve",
    "lp.kernel",
    "distrib.search",
    "commsim.cache_build",
    "commsim.price",
    "commsim.simulate",
    "phases.analyze",
    "phases.dp",
    "phases.static_baseline",
    "phases.replay",
];

/// What the rounds recorded.
pub struct Layered {
    pub rec: Recorder,
    pub serial_ms: Vec<f64>,
    pub traced_ms: Vec<f64>,
    pub pooled_ms: Vec<f64>,
    pub serial_cpu_s: f64,
    pub pooled_cpu_s: f64,
    /// Spans the `trace` crate recorded over all traced passes.
    pub crate_spans: usize,
}

/// One pass over the cases with an `op.*` span per op inside a `pass.*`
/// span; returns the pass's milliseconds.
fn op_pass(
    rec: &mut Recorder,
    pass: &'static str,
    op: &'static str,
    w: &Workload,
    tally: &mut Tally,
    mut after_op: impl FnMut(),
) -> f64 {
    rec.begin_op(NO_CASE);
    let pass_span = rec.enter(pass);
    for i in 0..w.cases.len() {
        rec.begin_op(i);
        black_box(rec.time(op, || tally.op(w, i)));
        after_op();
    }
    rec.exit(pass_span)
}

/// The plan of case `i`: the stored one for `plan_replay`, else the counted
/// pass's output.
fn plan_of<'a>(
    w: &'a Workload,
    counted: &'a Counted,
    i: usize,
) -> Option<&'a DynamicPipelineResult> {
    match counted.outcomes[i].as_ref()? {
        Outcome::Planned(r) => Some(r),
        Outcome::Replayed(_) => w.plan(i),
    }
}

/// Run rounds for `seconds` (at least one).
pub fn layered_run(w: &Workload, counted: &Counted, seconds: f64, tally: &mut Tally) -> Layered {
    let mut out = Layered {
        rec: Recorder::default(),
        serial_ms: Vec::new(),
        traced_ms: Vec::new(),
        pooled_ms: Vec::new(),
        serial_cpu_s: 0.0,
        pooled_cpu_s: 0.0,
        crate_spans: 0,
    };
    let t = Instant::now();
    while out.serial_ms.is_empty() || t.elapsed().as_secs_f64() < seconds {
        let rec = &mut out.rec;

        pool::set_workers(1);
        let cpu = cpu_seconds();
        out.serial_ms
            .push(op_pass(rec, "pass.serial", "op.serial", w, tally, || ()));
        out.serial_cpu_s += cpu_seconds() - cpu;

        trace::configure(TraceConfig::enabled());
        let crate_spans = &mut out.crate_spans;
        out.traced_ms
            .push(op_pass(rec, "pass.traced", "op.traced", w, tally, || {
                *crate_spans += trace::take().spans.len();
            }));
        trace::configure(TraceConfig::default());

        pool::set_workers(0);
        let cpu = cpu_seconds();
        out.pooled_ms
            .push(op_pass(rec, "pass.pooled", "op.pooled", w, tally, || ()));
        out.pooled_cpu_s += cpu_seconds() - cpu;

        pool::set_workers(1);
        rec.begin_op(NO_CASE);
        let pass_span = rec.enter("pass.stages");
        for (i, case) in w.cases.iter().enumerate() {
            let Some(plan) = plan_of(w, counted, i) else {
                continue;
            };
            rec.begin_op(i);
            let op_span = rec.enter("op.stages");
            if w.kind != Kind::PlanReplay {
                plan_stages(rec, case, &w.config, plan);
            }
            replay_stages(rec, plan);
            rec.exit(op_span);
        }
        rec.exit(pass_span);
        pool::set_workers(0);
    }
    out
}

/// The boundary calls of one planning op, each on the outputs of the real
/// stages before it.
fn plan_stages(rec: &mut Recorder, case: &Case, cfg: &DynamicConfig, plan: &DynamicPipelineResult) {
    let program = &case.program;
    let align_cfg = &cfg.alignment;

    let subs = rec.time("ir.fission", || {
        let atoms = program.distributable_atoms();
        atoms
            .iter()
            .map(|a| program.from_atoms(std::slice::from_ref(a)))
            .collect::<Vec<_>>()
    });
    let adgs = rec.time("adg.build", || {
        subs.iter().map(build_adg).collect::<Vec<_>>()
    });

    // `align_adg` is axis → stride → replication labelling → offsets (one
    // round under the default config); the next three spans are its parts.
    let strided = rec.time("align.axis_stride", || {
        adgs.iter()
            .map(|adg| {
                let ranks: Vec<usize> = adg.port_ids().map(|p| adg.port(p).rank).collect();
                let mut alignment = ProgramAlignment::identity(template_rank(adg), &ranks);
                solve_axes(adg, &mut alignment);
                solve_strides(adg, &mut alignment);
                alignment
            })
            .collect::<Vec<_>>()
    });
    let replicated = rec.time("netflow.label", || {
        adgs.iter()
            .zip(&strided)
            .map(|(adg, alignment)| {
                let labeling = label_all(adg, alignment, &[], &align_cfg.replication);
                (0..alignment.template_rank)
                    .map(|axis| labeling.replicated_ports(axis))
                    .collect::<Vec<_>>()
            })
            .collect::<Vec<_>>()
    });
    let mut offset_inputs = strided.clone();
    rec.time("align.offsets", || {
        for ((adg, alignment), replicated) in adgs.iter().zip(&mut offset_inputs).zip(&replicated) {
            black_box(solve_all_offsets(
                adg,
                alignment,
                replicated,
                align_cfg.offset,
            ));
        }
    });
    let aligned = rec.time("align.adg", || {
        adgs.iter()
            .map(|adg| align_adg(adg, align_cfg))
            .collect::<Vec<_>>()
    });

    let solve_cfg = SolveConfig::new(case.nprocs);
    let reports = rec.time("distrib.search", || {
        adgs.iter()
            .zip(&aligned)
            .map(|(adg, a)| solve_distribution(adg, &a.alignment, &solve_cfg))
            .collect::<Vec<_>>()
    });
    let caches = rec.time("commsim.cache_build", || {
        adgs.iter()
            .zip(&aligned)
            .map(|(adg, a)| PlacementCache::new(adg, &a.alignment, cfg.sim))
            .collect::<Vec<_>>()
    });
    rec.time("commsim.price", || {
        for (cache, report) in caches.iter().zip(&reports) {
            for candidate in report.ranked.iter().take(PRICED_CANDIDATES) {
                black_box(cache.total_elements(&candidate.distribution));
            }
        }
    });

    black_box(rec.time("phases.analyze", || analyze_atoms(program, align_cfg)));
    let dp = rec.time("phases.layout_dp_problem", || {
        layout_dp_problem(program, case.nprocs, cfg)
    });
    let _ = black_box(rec.time("phases.dp", || {
        dp.solve(cfg.switch_margin, DpPruning::default())
    }));

    // A single-atom program's static baseline is its atom's alignment, which
    // the pipeline reuses; only a multi-atom program aligns a second time.
    let rebuilt;
    let baseline = if subs.len() > 1 {
        rebuilt = rec.time("phases.static_baseline", || {
            align_then_distribute(program, case.nprocs, &FullPipelineConfig::default())
        });
        &rebuilt
    } else {
        &plan.static_result
    };

    // The whole-program axis-0 offset LP, boxed and given the alternating
    // objective `benches/lp_kernel.rs` uses so the solve walks to a vertex.
    let mut problem = build_offset_constraints(
        &baseline.adg,
        &baseline.alignment.alignment,
        0,
        &HashSet::new(),
    )
    .problem;
    for i in 0..problem.num_vars() {
        problem.set_bounds(VarId(i), -OFFSET_BOX, OFFSET_BOX);
        problem.set_objective(VarId(i), if i % 2 == 0 { 1.0 } else { -1.0 });
    }
    let _ = black_box(rec.time("lp.solve", || problem.solve()));
    if let Some(mut kernel) = KernelBench::prepare(&problem, Kernel::default()) {
        rec.time("lp.kernel", || {
            black_box(kernel.refactor());
            black_box(kernel.sweeps(KERNEL_SWEEPS));
        });
    }
}

/// The boundary calls of one replay op.
fn replay_stages(rec: &mut Recorder, plan: &DynamicPipelineResult) {
    let exact = SimOptions::exact();
    let st = &plan.static_result;
    black_box(rec.time("commsim.simulate", || {
        commsim::simulate(
            &st.adg,
            &st.alignment.alignment,
            &st.best().distribution,
            exact,
        )
    }));
    black_box(rec.time("phases.replay", || {
        (simulate_dynamic(plan, exact), simulate_static(plan, exact))
    }));
}

/// Median over rounds of span `name` on `case`, 0 if it never ran there.
fn case_ms(l: &Layered, name: &str, case: usize) -> f64 {
    let d = durations_ms(l.rec.spans(), name, case);
    if d.is_empty() {
        0.0
    } else {
        median(&d)
    }
}

/// Per-case stage times the derived metrics need.
struct CaseTimes {
    serial: f64,
    analyze: f64,
    layers: f64,
    dp: f64,
    static_baseline: f64,
    /// Stage time that accounts for the serial op: the four planning stages,
    /// or for `plan_replay` the two walks.
    covered: f64,
}

fn case_times(w: &Workload, l: &Layered, case: usize) -> CaseTimes {
    let analyze = case_ms(l, "phases.analyze", case);
    let layers = case_ms(l, "phases.layout_dp_problem", case) - analyze;
    let dp = case_ms(l, "phases.dp", case);
    let static_baseline = case_ms(l, "phases.static_baseline", case);
    let covered = if w.kind == Kind::PlanReplay {
        case_ms(l, "phases.replay", case) + case_ms(l, "commsim.simulate", case)
    } else {
        analyze + layers + dp + static_baseline
    };
    CaseTimes {
        serial: case_ms(l, "op.serial", case),
        analyze,
        layers,
        dp,
        static_baseline,
        covered,
    }
}

fn unattributed_pct(serial: f64, covered: f64) -> f64 {
    100.0 * ratio(serial - covered, serial)
}

/// The per-layer metrics of one run, and the rows that exist only on this
/// workload (one set per case; growth exponents on `size_sweep`).
pub fn per_layer(
    w: &Workload,
    counted: &Counted,
    l: &Layered,
    tally: &Tally,
) -> (Vec<Metric>, Vec<Metric>) {
    let ncases = w.cases.len();
    let times: Vec<CaseTimes> = (0..ncases).map(|i| case_times(w, l, i)).collect();
    let sum = |f: fn(&CaseTimes) -> f64| times.iter().map(f).sum::<f64>();
    let stage_ms = |span: &str| (0..ncases).map(|i| case_ms(l, span, i)).sum::<f64>();

    let plans: Vec<&DynamicPipelineResult> =
        (0..ncases).filter_map(|i| plan_of(w, counted, i)).collect();
    let atoms = || {
        plans
            .iter()
            .flat_map(|p| &p.phases)
            .flat_map(|ph| &ph.atoms)
    };
    let phase_count: usize = plans.iter().map(|p| p.phases.len()).sum();
    let count = |name: &str| counted.counters.get(name) as f64;
    let dist = |name: &str| {
        counted
            .counters
            .dists
            .get(name)
            .copied()
            .unwrap_or_default()
    };
    let offset_solves: u64 = counted
        .counters
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("align.strategy."))
        .map(|(_, v)| v)
        .sum();

    let spans = l.rec.spans();
    let (glue_ns, stages_ns) = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "op.stages")
        .fold((0, 0), |(glue, total), (i, s)| {
            (glue + self_ns(spans, i), total + s.duration_ns())
        });

    let serial_p50 = median(&l.serial_ms);
    let pooled_p50 = median(&l.pooled_ms);
    let metrics = fill(PER_LAYER, |name| match name {
        "ir.atoms" => atoms().count() as f64,
        "adg.nodes" => atoms().map(|a| a.adg.num_nodes()).sum::<usize>() as f64,
        "adg.edges" => atoms().map(|a| a.adg.num_edges()).sum::<usize>() as f64,
        "align.ladder_share" => ratio(count("align.ladder_engaged"), offset_solves as f64),
        "lp.pivots_per_solve" => ratio(count("lp.pivots"), count("lp.solves")),
        "lp.warm_fallback_share" => ratio(count("lp.warm_fallbacks"), count("lp.warm_starts")),
        "lp.ftran_dense_share" => ratio(
            count("lp.ftran.dense"),
            count("lp.ftran.dense") + count("lp.ftran.sparse"),
        ),
        "distrib.signature_space" => dist("distrib.signature_space").sum,
        "distrib.beam_pruned_share" => {
            let space = dist("distrib.signature_space").sum;
            ratio(space - count("distrib.candidates_evaluated"), space)
        }
        "commsim.prices_per_build" => {
            ratio(count("commsim.cache.prices"), count("commsim.cache.builds"))
        }
        "commsim.sampled_share" => ratio(
            count("commsim.sims.sampled"),
            count("commsim.sims.sampled") + count("commsim.sims.exact"),
        ),
        "phases.layers_ms" => sum(|t| t.layers),
        "phases.unattributed_pct" => unattributed_pct(sum(|t| t.serial), sum(|t| t.covered)),
        "phases.count" => phase_count as f64,
        // Every plan keeps `phases − 1` of the seams proposed for it.
        "phases.seams_coalesced" if w.kind == Kind::PlanReplay => 0.0,
        "phases.seams_coalesced" => {
            count("phases.seams_proposed") - (phase_count - plans.len()) as f64
        }
        "phases.dp.max_layer_width" => dist("phases.dp.layer_width").max.max(0.0),
        "phases.pricer_hit_share" => ratio(
            count("phases.pricer.hits"),
            count("phases.pricer.hits") + count("phases.pricer.misses"),
        ),
        "phases.static_elements" => counted.static_elements,
        "phases.dynamic_over_static" => ratio(counted.comm_elements, counted.static_elements),
        "pool.workers" => pool::workers() as f64,
        "pool.speedup" => ratio(serial_p50, pooled_p50),
        "pool.cpu_overhead_pct" => 100.0 * ratio(l.pooled_cpu_s - l.serial_cpu_s, l.serial_cpu_s),
        "trace.span_overhead_pct" => 100.0 * ratio(median(&l.traced_ms) - serial_p50, serial_p50),
        "trace.spans_per_pass" => ratio(l.crate_spans as f64, l.traced_ms.len() as f64),
        "bench.passes" => l.pooled_ms.len() as f64,
        "bench.ops_attempted" => tally.attempted as f64,
        "bench.failed_share" => ratio(tally.failed as f64, tally.attempted as f64),
        "bench.pass_ms_min" => quantile(&l.pooled_ms, 0.0),
        "bench.pass_ms_p50" => pooled_p50,
        "bench.pass_ms_p90" => quantile(&l.pooled_ms, 0.9),
        "bench.serial_pass_ms_p50" => serial_p50,
        "bench.stage_glue_pct" => 100.0 * ratio(glue_ns as f64, stages_ns as f64),
        _ => match name.strip_suffix("_ms") {
            Some(span) if STAGE_SPANS.contains(&span) => stage_ms(span),
            // The remaining names are trace counters, reported as they are.
            _ => count(name),
        },
    });

    let mut rows = Vec::new();
    let mut row = |name: String, value: f64, unit: &'static str| {
        rows.push(Metric::new(name, value, unit));
    };
    for (i, case) in w.cases.iter().enumerate() {
        let t = &times[i];
        row(
            format!("case.{}.ms_p50", case.name),
            case_ms(l, "op.pooled", i),
            "ms",
        );
        row(format!("case.{}.serial_ms_p50", case.name), t.serial, "ms");
        row(
            format!("case.{}.unattributed_pct", case.name),
            unattributed_pct(t.serial, t.covered),
            "%",
        );
    }
    if w.kind == Kind::SizeSweep {
        let growth = |f: fn(&CaseTimes) -> f64| {
            let points: Vec<(f64, f64)> = plans
                .iter()
                .zip(&times)
                .map(|(p, t)| (p.num_atoms() as f64, f(t)))
                .collect();
            log_log_slope(&points)
        };
        row("size.growth_exponent".into(), growth(|t| t.serial), "ratio");
        row("size.align_growth".into(), growth(|t| t.analyze), "ratio");
        row(
            "size.static_growth".into(),
            growth(|t| t.static_baseline),
            "ratio",
        );
        row("size.dp_growth".into(), growth(|t| t.dp), "ratio");
    }
    (metrics, rows)
}
