//! The binary against its contract: what it prints matches what
//! `../BENCHMARK.json` declares, and failed ops are counted, survived and
//! reported through the exit code.

use bench::Json;
use std::process::Command;

/// Run the benchmark binary; returns its exit code and standard output.
fn benchmark(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(args)
        .output()
        .expect("the benchmark binary runs");
    (
        out.status.code().expect("the benchmark exits by itself"),
        String::from_utf8(out.stdout).expect("output is UTF-8"),
    )
}

fn fields(v: &Json) -> &[(String, Json)] {
    match v {
        Json::Obj(fields) => fields,
        other => panic!("expected an object, got {other:?}"),
    }
}

fn result_line(stdout: &str) -> Json {
    Json::parse(stdout.lines().last().expect("some output")).expect("the last line is JSON")
}

fn declared(spec: &Json, section: &str) -> Vec<(String, String)> {
    spec.get(section)
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|m| {
            let text = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
            (text("name"), text("unit"))
        })
        .collect()
}

#[test]
fn every_declared_metric_is_printed_once_with_its_unit_and_nothing_else() {
    let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec = Json::parse(&std::fs::read_to_string(manifest).unwrap()).unwrap();
    let workloads: Vec<String> = declared_names(&spec);
    assert_eq!(
        workloads,
        ["lp_bound", "planner_bound", "size_sweep", "plan_replay"]
    );
    for workload in &workloads {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let (code, stdout) = benchmark(&[
                "--workload",
                workload,
                "--seed",
                "3",
                "--seconds",
                "1",
                "--trace",
                trace,
            ]);
            assert_eq!(code, 0, "{workload} --trace {trace}");
            let result = result_line(&stdout);
            let keys: Vec<&str> = fields(&result).iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
            assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
            assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);

            let printed: Vec<(String, String)> = fields(result.get("metrics").unwrap())
                .iter()
                .map(|(name, m)| {
                    assert!(m.get("value").and_then(Json::as_f64).unwrap().is_finite());
                    let unit = m.get("unit").and_then(Json::as_str).unwrap();
                    (name.clone(), unit.to_string())
                })
                .collect();
            assert_eq!(
                printed,
                declared(&spec, section),
                "{workload} --trace {trace}"
            );

            // The text lines carry the same metrics once each; anything
            // more is a row of this workload or this mode alone.
            for (name, unit) in &printed {
                let lines = stdout
                    .lines()
                    .filter(|l| {
                        let w: Vec<&str> = l.split(' ').collect();
                        w.len() == 4 && w[0] == workload && w[1] == name && w[3] == unit
                    })
                    .count();
                assert_eq!(lines, 1, "{workload} {name}");
            }
            for line in stdout.lines().filter(|l| !l.starts_with('{')) {
                let name = line.split(' ').nth(1).unwrap();
                assert!(
                    printed.iter().any(|(n, _)| n == name)
                        || ["case.", "size.", "timed."]
                            .iter()
                            .any(|p| name.starts_with(p)),
                    "undeclared metric line: {line}"
                );
            }
        }
    }
}

fn declared_names(spec: &Json) -> Vec<String> {
    spec.get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
        .collect()
}

/// `(failed, attempted)` of a run that must have counted failures, gone on
/// to print its metrics, and exited 1.
fn failed_and_attempted(args: &[&str]) -> (f64, f64) {
    let (code, stdout) = benchmark(args);
    assert_eq!(code, 1, "failed ops make the exit code 1");
    let result = result_line(&stdout);
    assert_eq!(result.get("correct"), Some(&Json::Bool(false)));
    assert_eq!(
        fields(result.get("metrics").unwrap()).len(),
        6,
        "the run went on"
    );
    let number = |k: &str| result.get(k).and_then(Json::as_f64).unwrap();
    (number("failed"), number("attempted"))
}

#[test]
fn a_panicking_op_is_counted_and_survived() {
    let (failed, attempted) = failed_and_attempted(&[
        "--workload",
        "lp_bound",
        "--seconds",
        "1",
        "--trace",
        "0",
        "--inject-panic",
    ]);
    // One op in six panics, in every pass (warm-up, timed and counted).
    assert!(failed >= 5.0, "{failed} failed");
    assert_eq!(attempted, 6.0 * failed, "{failed} failed of {attempted}");
}

#[test]
fn a_wrong_expected_entry_is_counted_against_the_ops_attempted() {
    let wrong = concat!(env!("CARGO_TARGET_TMPDIR"), "/wrong_expected.json");
    std::fs::write(wrong, r#"{"figure4-p8": {"broadcast": 1}}"#).unwrap();
    let (failed, attempted) = failed_and_attempted(&[
        "--workload",
        "planner_bound",
        "--seconds",
        "1",
        "--trace",
        "0",
        "--expected",
        wrong,
    ]);
    // Checks run on the counted pass only, so exactly one op fails.
    assert_eq!(failed, 1.0);
    assert!(attempted > 8.0, "{attempted} attempted");
}
