//! Metric names and units (the same lists `BENCHMARK.json` declares — a
//! test keeps the two equal), and how a run is printed.

use bench::Json;

/// End-to-end metrics, `(name, unit)`, reported with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("pass_ms_p10", "ms"),
    ("pass_cpu_ms", "ms"),
    ("comm_elements", "elements"),
    ("peak_alloc_bytes", "bytes"),
    ("allocs_per_pass", "count"),
    ("setup_s", "s"),
];

/// Per-layer metrics, `(name, unit)`, reported with `--trace 1`. The part of
/// a name before the first `.` is the layer (a crate of the workspace, or
/// `bench` for the harness itself).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("ir.fission_ms", "ms"),
    ("ir.atoms", "count"),
    ("adg.build_ms", "ms"),
    ("adg.nodes", "count"),
    ("adg.edges", "count"),
    ("align.adg_ms", "ms"),
    ("align.axis_stride_ms", "ms"),
    ("align.offsets_ms", "ms"),
    ("align.calls", "count"),
    ("align.ladder_share", "ratio"),
    ("netflow.label_ms", "ms"),
    ("lp.solve_ms", "ms"),
    ("lp.kernel_ms", "ms"),
    ("lp.solves", "count"),
    ("lp.pivots", "count"),
    ("lp.phase1_pivots", "count"),
    ("lp.dual.pivots", "count"),
    ("lp.refactorisations", "count"),
    ("lp.milp_nodes", "count"),
    ("lp.factor.nnz", "count"),
    ("lp.pivots_per_solve", "ratio"),
    ("lp.warm_fallback_share", "ratio"),
    ("lp.ftran_dense_share", "ratio"),
    ("distrib.search_ms", "ms"),
    ("distrib.signature_space", "count"),
    ("distrib.candidates_evaluated", "count"),
    ("distrib.beam_pruned_share", "ratio"),
    ("commsim.cache_build_ms", "ms"),
    ("commsim.price_ms", "ms"),
    ("commsim.simulate_ms", "ms"),
    ("commsim.elements_priced", "count"),
    ("commsim.cache.builds", "count"),
    ("commsim.prices_per_build", "ratio"),
    ("commsim.sampled_share", "ratio"),
    ("phases.analyze_ms", "ms"),
    ("phases.layers_ms", "ms"),
    ("phases.dp_ms", "ms"),
    ("phases.static_baseline_ms", "ms"),
    ("phases.replay_ms", "ms"),
    ("phases.unattributed_pct", "%"),
    ("phases.count", "count"),
    ("phases.seams_proposed", "count"),
    ("phases.seams_coalesced", "count"),
    ("phases.dp.states_merged", "count"),
    ("phases.dp.dominated", "count"),
    ("phases.dp.max_layer_width", "count"),
    ("phases.pricer_hit_share", "ratio"),
    ("phases.static_elements", "elements"),
    ("phases.dynamic_over_static", "ratio"),
    ("pool.workers", "count"),
    ("pool.speedup", "ratio"),
    ("pool.cpu_overhead_pct", "%"),
    ("trace.span_overhead_pct", "%"),
    ("trace.spans_per_pass", "count"),
    ("bench.passes", "count"),
    ("bench.ops_attempted", "count"),
    ("bench.failed_share", "ratio"),
    ("bench.pass_ms_min", "ms"),
    ("bench.pass_ms_p50", "ms"),
    ("bench.pass_ms_p90", "ms"),
    ("bench.serial_pass_ms_p50", "ms"),
    ("bench.stage_glue_pct", "%"),
];

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// One metric per entry of `table`, in its order, valued by `value_of`.
pub fn fill(table: &[(&str, &'static str)], value_of: impl Fn(&str) -> f64) -> Vec<Metric> {
    table
        .iter()
        .map(|&(name, unit)| Metric::new(name, value_of(name), unit))
        .collect()
}

/// `a / b`, or 0 when there is no base to divide by.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The result of one `(workload, trace mode)` run.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub workload: &'static str,
    pub trace: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The declared metrics of this mode.
    pub metrics: Vec<Metric>,
    /// Rows that exist on this workload only (per case, per size), so they
    /// are printed and written to `--out` but are not in `BENCHMARK.json`.
    pub rows: Vec<Metric>,
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(m.value)),
                        ("unit".into(), Json::Str(m.unit.into())),
                    ]),
                )
            })
            .collect(),
    )
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The one-line result object the driver reads.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), metrics_json(&self.metrics)),
        ])
    }

    /// The entry of this run in the `--out` document.
    pub fn to_document_entry(&self) -> Json {
        let Json::Obj(mut fields) = self.to_json() else {
            unreachable!("to_json returns an object");
        };
        fields.insert(0, ("workload".into(), Json::Str(self.workload.into())));
        fields.insert(1, ("trace".into(), Json::Num(self.trace as u8 as f64)));
        fields.push(("rows".into(), metrics_json(&self.rows)));
        Json::Obj(fields)
    }

    /// Print `workload metric value unit` lines, then the result object.
    pub fn print(&self) {
        for m in self.metrics.iter().chain(&self.rows) {
            println!("{} {} {} {}", self.workload, m.name, m.value, m.unit);
        }
        println!("{}", self.to_json().to_string_compact());
    }
}
