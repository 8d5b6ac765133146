//! Dynamic redistribution on a program whose best distribution flips
//! mid-program (the README's worked example), with the observability layer
//! on: the run records timed spans in every pipeline layer, prints the
//! one-line solve summary and the full plan explainer, and — when the
//! `TRACE_JSON` environment variable names a file — exports the trace in
//! Chrome trace-event format (load it in `chrome://tracing` or Perfetto):
//!
//! ```text
//! cargo run --release --example dynamic_redistribution
//! TRACE_JSON=target/dynamic.trace.json cargo run --release --example dynamic_redistribution
//! ```

use array_alignment::prelude::*;

fn main() {
    // Record spans for this run (counters are always on).
    trace::configure(TraceConfig::enabled());

    // Two loops over A(n,n): the first shifts data along the columns (work
    // within rows), the second along the rows (work within columns).
    let program = programs::fft_like(32, 40);
    let nprocs = 8;

    let result = align_then_distribute_dynamic(&program, nprocs, &DynamicConfig::default());

    println!("program: {}", program.name);
    println!("phases detected: {}", result.phases.len());
    for (i, phase) in result.phases.iter().enumerate() {
        println!(
            "  phase {i}: statements {:?}, best in isolation: {}",
            phase.range,
            phase.report.best().distribution
        );
    }
    println!("\n{}", result.dynamic);
    println!(
        "static best for comparison: {} ({:.0} simulated elements)",
        result.static_result.best().distribution,
        result.static_planned_cost
    );

    // Validate the plan end to end in the communication simulator, under
    // the options it was priced with (exact by default).
    let opts = result.config.sim;
    let dynamic = simulate_dynamic(&result, opts);
    let fixed = simulate_static(&result, opts);
    println!(
        "\nsimulated elements moved: dynamic {:.0} (of which {:.0} in the \
         mid-program redistribution) vs static {:.0}",
        dynamic.total_elements(),
        dynamic.redist_elements.iter().sum::<f64>(),
        fixed.total_elements()
    );

    // What the solve did internally, in one line and in full.
    println!("\n{}", result.summary);
    println!("\n{}", explain(&result));

    // Export the Chrome trace if TRACE_JSON names a file.
    match trace::chrome::export_env_trace() {
        Ok(Some(path)) => println!("trace written to {}", path.display()),
        Ok(None) => {}
        Err(e) => eprintln!("warning: could not write TRACE_JSON: {e}"),
    }
}
