//! `benchmark [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]`
//!
//! Runs the chosen workload (default: all four) in the chosen mode (default:
//! both, end-to-end first). For each it prints `workload metric value unit`
//! lines and then one JSON object, so that with `--workload` and `--trace`
//! given the last line of output is that run's result. Exits 1 if any op
//! failed, 2 on a usage or set-up error.

use bench::Json;
use benchmark::check::Expected;
use benchmark::workloads::Kind;
use benchmark::{run, RunOptions};
use std::process::ExitCode;

const USAGE: &str = "usage: benchmark [--workload lp_bound|planner_bound|size_sweep|plan_replay] \
[--seed N] [--seconds S] [--trace 0|1] [--out FILE] [--expected FILE] [--inject-panic]";

struct Args {
    kinds: Vec<Kind>,
    seed: u64,
    seconds: f64,
    traces: Vec<bool>,
    out: Option<String>,
    expected: Expected,
    inject_panic: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        kinds: Kind::ALL.to_vec(),
        seed: 11,
        seconds: 28.0,
        traces: vec![false, true],
        out: None,
        expected: Expected::committed(),
        inject_panic: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        if flag == "--inject-panic" {
            args.inject_panic = true;
            continue;
        }
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.kinds = vec![Kind::from_name(&value).ok_or_else(bad)?],
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.traces = match value.as_str() {
                    "0" => vec![false],
                    "1" => vec![true],
                    _ => return Err(bad()),
                }
            }
            "--out" => args.out = Some(value),
            "--expected" => {
                let text = std::fs::read_to_string(&value).map_err(|e| format!("{value}: {e}"))?;
                args.expected = Expected::parse(&text)?;
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// Host facts go to stderr, so the result stays the last line of stdout.
fn echo_host(args: &Args) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let loadavg = std::fs::read_to_string("/proc/loadavg").unwrap_or_default();
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|_| "rustc unavailable".into());
    eprintln!(
        "host: nproc {nproc}, pool.workers {}, {rustc}, loadavg {}, seed {}, seconds {}",
        pool::workers(),
        loadavg.trim(),
        args.seed,
        args.seconds
    );
    let load1: f64 = loadavg
        .split_whitespace()
        .next()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.0);
    if load1 > nproc as f64 {
        eprintln!(
            "warning: 1-minute load average {load1} exceeds nproc {nproc}; timings will be noisy"
        );
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    echo_host(&args);
    let mut entries = Vec::new();
    let mut failed = 0;
    for &kind in &args.kinds {
        for &trace in &args.traces {
            let opts = RunOptions {
                kind,
                seed: args.seed,
                seconds: args.seconds,
                trace,
                expected: args.expected.clone(),
                inject_panic: args.inject_panic,
            };
            match run(&opts) {
                Ok(result) => {
                    result.print();
                    failed += result.failed;
                    entries.push(result.to_document_entry());
                }
                Err(e) => {
                    eprintln!("{}: set-up failed: {e}", kind.name());
                    return ExitCode::from(2);
                }
            }
        }
    }
    if let Some(path) = &args.out {
        let doc = Json::Obj(vec![
            ("seed".into(), Json::Num(args.seed as f64)),
            ("seconds".into(), Json::Num(args.seconds)),
            ("runs".into(), Json::Arr(entries)),
        ]);
        if let Err(e) = std::fs::write(path, doc.to_string_pretty() + "\n") {
            eprintln!("{path}: {e}");
            return ExitCode::from(2);
        }
    }
    if failed > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
