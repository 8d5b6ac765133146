//! The observability layer end to end: a full dynamic solve leaves behind a
//! Chrome-exportable trace with spans from every pipeline layer, identical
//! solves emit identical counters (so per-run `metrics` in bench records
//! are meaningful baselines), and the plan explainer renders exactly the
//! costs the plan was priced from.
//!
//! Tracing state is thread-local and every `#[test]` runs on its own
//! thread, so these tests cannot observe each other (or anyone else).

use array_alignment::prelude::*;
use bench::json::Json;

/// The five instrumented pipeline layers (the `layer.` prefix of span and
/// counter names, and the Chrome event category).
const LAYERS: [&str; 5] = ["lp", "align", "distrib", "phases", "commsim"];

fn run_solve(program: &Program) -> DynamicPipelineResult {
    align_then_distribute_dynamic(program, 8, &DynamicConfig::default())
}

#[test]
fn chrome_trace_covers_every_layer_on_every_phase_workload() {
    for (name, program) in programs::phase_workloads() {
        trace::reset();
        trace::configure(TraceConfig::enabled());
        let _ = run_solve(&program);
        trace::configure(TraceConfig::default());
        let t = trace::take();

        // At least one span from each pipeline layer.
        let per_layer = t.spans_per_layer();
        for layer in LAYERS {
            assert!(
                per_layer.get(layer).copied().unwrap_or(0) >= 1,
                "{name}: no `{layer}` span; got {per_layer:?}"
            );
        }

        // Spans are properly nested: parents precede children, children
        // are contained in the parent's interval, depths are consistent,
        // and no duration is negative (u64 by construction, but the
        // saturating close must not produce wraparound-sized values).
        for (i, s) in t.spans.iter().enumerate() {
            assert!(s.dur_ns < u64::MAX / 2, "{name}: span {i} duration wrapped");
            match s.parent {
                Some(p) => {
                    assert!(p < i, "{name}: span {i} precedes its parent {p}");
                    let parent = &t.spans[p];
                    assert_eq!(s.depth, parent.depth + 1, "{name}: bad depth at {i}");
                    assert!(
                        s.start_ns >= parent.start_ns,
                        "{name}: span {i} starts early"
                    );
                    assert!(
                        s.start_ns + s.dur_ns <= parent.start_ns + parent.dur_ns,
                        "{name}: span {i} outlives its parent"
                    );
                }
                None => assert_eq!(s.depth, 0, "{name}: rootless span {i} below top level"),
            }
        }

        // Round-trip: the Chrome export parses with bench::json and keeps
        // one "X" event per span with non-negative microsecond timestamps.
        let text = trace::chrome::to_chrome_json(&t).to_string_pretty();
        let parsed = Json::parse(&text).unwrap_or_else(|e| panic!("{name}: bad JSON: {e}"));
        let events = parsed
            .get("traceEvents")
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("{name}: no traceEvents array"));
        let durations = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"));
        assert_eq!(durations.clone().count(), t.spans.len(), "{name}");
        for e in durations {
            assert!(e.get("ts").and_then(Json::as_f64).unwrap() >= 0.0, "{name}");
            assert!(
                e.get("dur").and_then(Json::as_f64).unwrap() >= 0.0,
                "{name}"
            );
            assert!(e.get("cat").and_then(Json::as_str).is_some(), "{name}");
        }
    }
}

#[test]
fn identical_solves_emit_identical_counters() {
    let program = programs::fft_like(32, 40);
    trace::reset();
    let _ = run_solve(&program);
    let first = CounterSnapshot::now();
    trace::reset();
    let _ = run_solve(&program);
    let second = CounterSnapshot::now();
    assert!(!first.counters.is_empty(), "solve recorded no counters");
    assert_eq!(
        first.counters, second.counters,
        "counters must be deterministic"
    );
    assert_eq!(
        first.dists, second.dists,
        "distributions must be deterministic"
    );
    // Every layer contributed counters, not just spans.
    for layer in ["lp", "align", "distrib", "phases", "commsim"] {
        assert!(
            first.counters.keys().any(|k| k.starts_with(layer)),
            "no `{layer}.*` counter in {:?}",
            first.counters.keys().collect::<Vec<_>>()
        );
    }
}

/// Spans observe the solve that runs, they do not select it: the traced
/// solve is the untraced solve — same plan, same bits, same counters.
#[test]
fn tracing_does_not_change_the_solve() {
    let program = programs::multi_array_pipeline(32, 8);
    let solve = |config: TraceConfig| {
        trace::reset();
        trace::configure(config);
        let result = run_solve(&program);
        trace::configure(TraceConfig::default());
        (result, CounterSnapshot::now())
    };
    let (plain, plain_counters) = solve(TraceConfig::default());
    let (traced, traced_counters) = solve(TraceConfig::enabled());
    assert!(trace::span_count() > 0, "the second solve was traced");
    assert_eq!(plain.dynamic.chosen, traced.dynamic.chosen);
    assert_eq!(
        plain.dynamic.planned_cost.to_bits(),
        traced.dynamic.planned_cost.to_bits()
    );
    assert_eq!(
        plain.static_planned_cost.to_bits(),
        traced.static_planned_cost.to_bits()
    );
    assert_eq!(plain_counters.counters, traced_counters.counters);
    assert_eq!(plain_counters.dists, traced_counters.dists);
}

#[test]
fn explainer_is_stable_and_sums_exactly_to_planned_cost() {
    let result = run_solve(&programs::fft_like(32, 40));
    let text = explain(&result);
    assert_eq!(text, explain(&result), "rendering must be deterministic");

    // Program order: phase 0, its boundary, then phase 1.
    let p0 = text.find("phase 0:").expect("phase 0 section");
    let b0 = text.find("boundary 0 -> 1").expect("boundary section");
    let p1 = text.find("phase 1:").expect("phase 1 section");
    assert!(p0 < b0 && b0 < p1, "sections out of order:\n{text}");

    // Every chosen distribution and every redistribution step is rendered.
    for d in &result.dynamic.per_phase {
        assert!(text.contains(&d.to_string()), "missing {d} in:\n{text}");
    }
    for s in result.dynamic.steps.iter().flatten() {
        assert!(
            text.contains(&format!("move {} ", s.name)),
            "missing step:\n{text}"
        );
    }

    // The rendered totals are the planned cost — the same numbers summed
    // in the same order, so the equality is exact, not within-epsilon.
    let in_phase: f64 = result
        .dynamic
        .chosen
        .iter()
        .zip(&result.layers)
        .map(|(&k, l)| l.costs[k])
        .sum();
    let redist: f64 = result
        .dynamic
        .steps
        .iter()
        .flatten()
        .map(|s| s.cost.elements())
        .sum();
    assert_eq!(in_phase + redist, result.dynamic.planned_cost);
    assert!(
        text.contains(&format!(
            "total: in-phase {in_phase:.1} + boundary {redist:.1} = {:.1} elements",
            result.dynamic.planned_cost
        )),
        "totals line wrong:\n{text}"
    );
}

#[test]
fn solve_summary_reports_the_runs_work() {
    trace::reset();
    let result = run_solve(&programs::fft_like(32, 40));
    let s = result.summary;
    assert_eq!(s.spans, 0, "span recording was disabled");
    assert!(s.peak_dp_layer_width >= 1, "{s}");
    assert!(s.lp_pivots > 0, "alignment solves pivot: {s}");
    assert!(
        s.pricer_hits + s.pricer_misses > 0,
        "boundaries were priced: {s}"
    );
    let line = s.to_string();
    assert!(line.starts_with("solve: "), "{line}");
    assert!(!line.contains('\n'), "one line: {line}");

    // With spans enabled the same solve also counts its spans.
    trace::reset();
    trace::configure(TraceConfig::enabled());
    let traced = run_solve(&programs::fft_like(32, 40));
    trace::configure(TraceConfig::default());
    trace::take();
    assert!(traced.summary.spans > 0, "{}", traced.summary);
    // The counter-derived numbers are unaffected by span recording.
    assert_eq!(traced.summary.lp_pivots, s.lp_pivots);
    assert_eq!(traced.summary.peak_dp_layer_width, s.peak_dp_layer_width);
}
