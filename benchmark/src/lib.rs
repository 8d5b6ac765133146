//! The repository's benchmark: four planning workloads, six end-to-end
//! metrics and a per-layer ledger. `README.md` says what each workload and
//! metric is for; `../BENCHMARK.json` is the contract the driver reads.

pub mod check;
pub mod layers;
pub mod measure;
pub mod report;
pub mod spans;
pub mod stats;
pub mod workloads;

use check::Expected;
use measure::Tally;
use report::RunResult;
use workloads::Kind;

/// What one run is asked to do.
#[derive(Debug, Clone)]
pub struct RunOptions {
    pub kind: Kind,
    pub seed: u64,
    /// Length of the timed window (`--trace 0`) or of the rounds (`--trace 1`).
    pub seconds: f64,
    pub trace: bool,
    pub expected: Expected,
    /// Test hook: add a case whose op panics.
    pub inject_panic: bool,
}

/// Run one workload in one mode. `Err` means the workload could not even be
/// set up; failed ops are counted in the result instead.
pub fn run(opts: &RunOptions) -> Result<RunResult, String> {
    let mut tally = Tally::default();
    let (metrics, rows) = if opts.trace {
        let (w, _) = measure::set_up(opts.kind, opts.seed, opts.inject_panic, &mut tally)?;
        let counted = measure::counted_pass(&w, &opts.expected, &mut tally);
        let layered = layers::layered_run(&w, &counted, opts.seconds, &mut tally);
        write_trace(&w, &layered);
        layers::per_layer(&w, &counted, &layered, &tally)
    } else {
        // One worker from set-up to the counted pass: whether a pooled
        // region's second thread gets to run is up to the host, op by op
        // (README, "One worker"). `counted_pass` hands the pool back.
        pool::set_workers(1);
        let (w, setup_s) =
            measure::set_up_repeatedly(opts.kind, opts.seed, opts.inject_panic, &mut tally)?;
        let timed = measure::timed_window(&w, opts.seconds, &mut tally);
        let counted = measure::counted_pass(&w, &opts.expected, &mut tally);
        (
            measure::end_to_end(setup_s, &timed, &counted),
            measure::window_rows(&timed),
        )
    };
    Ok(RunResult {
        workload: opts.kind.name(),
        trace: opts.trace,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        rows,
    })
}

/// Write the layered run's spans to `out/trace.<workload>.json` beside this
/// package's manifest. A failure to write is reported, not fatal: the
/// metrics do not depend on the file.
fn write_trace(w: &workloads::Workload, layered: &layers::Layered) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace.{}.json", w.kind.name()));
    let names: Vec<String> = w.cases.iter().map(|c| c.name.clone()).collect();
    let doc = spans::to_chrome_json(layered.rec.spans(), &names).to_string_compact();
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, doc)) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}
