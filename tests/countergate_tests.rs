//! The machine-independent regression gate end to end: the canonical
//! suite's counters are reproducible (so a clean tree passes the gate), an
//! injected algorithmic regression fails the gate **with the offending
//! counter named**, and `explain_diff` audits plan pairs with cost deltas
//! that reproduce the planned-cost difference bit for bit.
//!
//! Tracing state is thread-local and every `#[test]` runs on its own
//! thread, so the `trace::reset` calls inside the gate helpers cannot
//! disturb other tests.

use array_alignment::prelude::*;
use bench::countergate::{self, CounterDiff, SuiteCounters};

/// A small but boundary-rich subset of the suite — enough for the gate
/// semantics without paying full-suite solve time in every test binary.
fn subset() -> Vec<(&'static str, Program)> {
    programs::phase_workloads()
        .into_iter()
        .filter(|(name, _)| matches!(*name, "fft_like" | "reduction_tree" | "lookup_table"))
        .collect()
}

fn run_subset(config: &DynamicConfig) -> SuiteCounters {
    SuiteCounters {
        nprocs: countergate::SUITE_NPROCS,
        workloads: subset()
            .iter()
            .map(|(name, program)| countergate::run_workload(name, program, config))
            .collect(),
    }
}

#[test]
fn clean_rerun_passes_the_gate() {
    let config = countergate::suite_config();
    let first = run_subset(&config);
    let second = run_subset(&config);
    assert!(!first.workloads.is_empty());
    for w in &first.workloads {
        assert!(
            !w.counters.is_empty(),
            "{}: a solve must leave a counter trail",
            w.name
        );
    }
    let summary = countergate::compare(&first, &second).unwrap_or_else(|diffs| {
        panic!(
            "identical solves must pass the gate:\n{}",
            countergate::render_diffs(&diffs)
        )
    });
    assert!(summary.contains("workload(s)"), "{summary}");
}

#[test]
fn baseline_roundtrips_through_the_committed_json_format() {
    let config = countergate::suite_config();
    let suite = run_subset(&config);
    let doc = suite.to_json().to_string_pretty();
    let parsed = SuiteCounters::from_json(&doc).unwrap();
    assert_eq!(parsed, suite, "JSON round-trip must be lossless");
    assert!(countergate::compare(&suite, &parsed).is_ok());
}

#[test]
fn drained_pricer_hits_fail_the_gate_naming_the_counters() {
    let baseline = run_subset(&countergate::suite_config());

    // The injected algorithmic regression, applied to the recorded
    // snapshot: what a bypassed MovePricer memo leaves behind. The plan is
    // unchanged, but every repeated (phase, array, src, dst) query is
    // re-priced — hits drain into misses on one workload — exactly the
    // class of silent slow-down the wall-time gate would miss at this
    // scale.
    let mut regressed = baseline.clone();
    let victim = regressed
        .workloads
        .iter_mut()
        .find(|w| w.counters.get("phases.pricer.hits").is_some_and(|&h| h > 0))
        .expect("some workload of the subset re-queries the pricer");
    let hits = victim
        .counters
        .remove("phases.pricer.hits")
        .expect("the victim was chosen for its hits");
    *victim
        .counters
        .entry("phases.pricer.misses".to_owned())
        .or_insert(0) += hits;
    let victim_name = victim.name.clone();

    let diffs: Vec<CounterDiff> = countergate::compare(&baseline, &regressed)
        .expect_err("a bypassed cache must not pass the counter gate");
    let drifted: Vec<&str> = diffs.iter().map(|d| d.counter.as_str()).collect();
    assert_eq!(
        drifted,
        ["phases.pricer.hits", "phases.pricer.misses"],
        "exactly the two drained counters must be named: {diffs:?}"
    );
    for d in &diffs {
        assert_eq!(d.workload, victim_name);
        assert_ne!(d.baseline, d.current);
    }
    // And the rendered table carries the name for the CI log.
    assert!(
        countergate::render_diffs(&diffs).contains("phases.pricer."),
        "diff table must name the counter"
    );
}

#[test]
fn explain_diff_deltas_are_bitwise_on_every_phase_workload_pair() {
    // For every workload: a = the default plan, b = a forced single-phase
    // plan (no seams). The structured diff's cost delta
    // must reproduce planned_cost(a) - planned_cost(b) bit for bit, and
    // the self-diff must be identically zero.
    let mut single_phase = DynamicConfig::default();
    single_phase.boundaries = Some(vec![]);
    for (name, program) in programs::phase_workloads() {
        let a = align_then_distribute_dynamic(&program, 8, &DynamicConfig::default());
        let b = align_then_distribute_dynamic(&program, 8, &single_phase);

        let diff = explain_diff(&a, &b);
        assert_eq!(
            diff.cost_delta().to_bits(),
            (a.dynamic.planned_cost - b.dynamic.planned_cost).to_bits(),
            "{name}: delta must be bitwise the planned-cost difference"
        );
        assert_eq!(
            diff.total_a.to_bits(),
            a.dynamic.planned_cost.to_bits(),
            "{name}"
        );
        assert_eq!(
            diff.total_b.to_bits(),
            b.dynamic.planned_cost.to_bits(),
            "{name}"
        );
        // Every seam of `a` is a removed boundary relative to the forced
        // single phase; nothing is ever added.
        assert_eq!(
            diff.boundaries_removed.len(),
            a.phases.len().saturating_sub(1),
            "{name}"
        );
        assert!(diff.boundaries_added.is_empty(), "{name}");
        // The reversed diff carries the negated delta.
        let rev = explain_diff(&b, &a);
        assert_eq!(
            rev.cost_delta().to_bits(),
            (b.dynamic.planned_cost - a.dynamic.planned_cost).to_bits(),
            "{name}: reversed"
        );

        // Self-diffs are structurally identical with a zero delta.
        let same = explain_diff(&a, &a);
        assert!(same.is_identical(), "{name}: self-diff:\n{same}");
        assert_eq!(same.cost_delta().to_bits(), 0.0f64.to_bits(), "{name}");
    }
}

#[test]
fn lookup_table_runs_through_the_full_gated_surface() {
    // The ROADMAP's missing gather/scatter workload is now a first-class
    // suite member: present in phase_workloads, solvable at the gate's
    // pinned configuration, and counter-reproducible like the rest.
    let workloads = programs::phase_workloads();
    let (name, program) = workloads
        .iter()
        .find(|(n, _)| *n == "lookup_table")
        .expect("lookup_table must be in the phase suite");
    let config = countergate::suite_config();
    let first = countergate::run_workload(name, program, &config);
    let second = countergate::run_workload(name, program, &config);
    assert_eq!(first, second, "lookup_table counters must be deterministic");
    assert!(first.counters.keys().any(|k| k.starts_with("align.")));
    assert!(first.counters.keys().any(|k| k.starts_with("commsim.")));
}
