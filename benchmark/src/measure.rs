//! The end-to-end run: set-up, the timed window, and the counted pass.

use crate::check::{check_plan, check_replay, Expected};
use crate::report::{fill, Metric, END_TO_END};
use crate::stats::{cpu_seconds, median, quantile};
use crate::workloads::{Kind, Outcome, Workload};
use commsim::SimOptions;
use phases::{simulate_dynamic, simulate_static};
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use trace::CounterSnapshot;

/// How many times a `--trace 0` run sets the workload up; `setup_s` is the
/// median.
const SETUP_REPEATS: usize = 5;

/// The quantile of an op's times over the timed window that the two time
/// metrics are built from. The host this runs on disturbs ops in bursts
/// that only ever slow them down, so a low quantile repeats from run to run
/// where the median does not, and the shorter the unit it is taken over
/// the more often that unit escapes a burst: hence per op, not per pass
/// (README, "Why the 10th percentile, op by op").
const STEADY_QUANTILE: f64 = 0.1;

/// Ops attempted and ops failed, over the whole run. An op fails when it
/// returns `Err`, panics, or its output fails a correctness check.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Run the op on case `i`. A panic is caught and counted; the run goes on.
    pub fn op(&mut self, w: &Workload, i: usize) -> Option<Outcome> {
        self.attempted += 1;
        match catch_unwind(AssertUnwindSafe(|| w.op(i))) {
            Ok(Ok(outcome)) => Some(outcome),
            Ok(Err(e)) => {
                self.fail(&w.cases[i].name, &e);
                None
            }
            Err(_) => {
                self.fail(&w.cases[i].name, "panicked");
                None
            }
        }
    }

    pub fn fail(&mut self, case: &str, why: &str) {
        self.failed += 1;
        eprintln!("FAILED op on {case}: {why}");
    }
}

/// Run every case once, in order; wall time in milliseconds.
pub fn pass_ms(w: &Workload, tally: &mut Tally) -> f64 {
    let t = Instant::now();
    for i in 0..w.cases.len() {
        black_box(tally.op(w, i));
    }
    t.elapsed().as_secs_f64() * 1e3
}

/// Generate the inputs (and for `plan_replay` solve the plans), then run one
/// warm-up pass. Returns the workload and the seconds this took.
pub fn set_up(
    kind: Kind,
    seed: u64,
    inject_panic: bool,
    tally: &mut Tally,
) -> Result<(Workload, f64), String> {
    let t = Instant::now();
    let mut w = Workload::build(kind, seed)?;
    if inject_panic {
        w.inject_panicking_case();
    }
    pass_ms(&w, tally);
    Ok((w, t.elapsed().as_secs_f64()))
}

/// [`set_up`] several times over; the last workload and the median time.
pub fn set_up_repeatedly(
    kind: Kind,
    seed: u64,
    inject_panic: bool,
    tally: &mut Tally,
) -> Result<(Workload, f64), String> {
    let mut seconds = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        let (w, s) = set_up(kind, seed, inject_panic, tally)?;
        seconds.push(s);
        last = Some(w);
    }
    Ok((last.expect("SETUP_REPEATS > 0"), median(&seconds)))
}

/// The ops of the timed window.
pub struct Timed {
    /// Per case, the wall time of every op on it.
    pub op_ms: Vec<Vec<f64>>,
    /// Per case, the process CPU time (all threads) of every op on it.
    pub op_cpu_ms: Vec<Vec<f64>>,
}

impl Timed {
    /// Wall time of every pass: the sum of its ops.
    pub fn pass_ms(&self) -> Vec<f64> {
        let passes = self.op_ms.first().map_or(0, Vec::len);
        (0..passes)
            .map(|k| self.op_ms.iter().map(|case| case[k]).sum())
            .collect()
    }
}

/// A pass assembled from the `q`-quantile of each case's op times.
pub fn pass_at_quantile(op_times: &[Vec<f64>], q: f64) -> f64 {
    op_times.iter().map(|case| quantile(case, q)).sum()
}

/// Run passes back to back, at the caller's worker count and spans off,
/// until `seconds` have gone by (at least one pass), timing every op.
pub fn timed_window(w: &Workload, seconds: f64, tally: &mut Tally) -> Timed {
    let mut timed = Timed {
        op_ms: vec![Vec::new(); w.cases.len()],
        op_cpu_ms: vec![Vec::new(); w.cases.len()],
    };
    let window = Instant::now();
    while timed.op_ms[0].is_empty() || window.elapsed().as_secs_f64() < seconds {
        for i in 0..w.cases.len() {
            let cpu_before = cpu_seconds();
            let t = Instant::now();
            black_box(tally.op(w, i));
            timed.op_ms[i].push(t.elapsed().as_secs_f64() * 1e3);
            timed.op_cpu_ms[i].push((cpu_seconds() - cpu_before) * 1e3);
        }
    }
    timed
}

/// What the counted pass saw: one serial pass with allocations and trace
/// counters recorded, whose outputs are then checked.
pub struct Counted {
    /// Per case; `None` where the op failed.
    pub outcomes: Vec<Option<Outcome>>,
    /// Allocations over the pass.
    pub allocations: u64,
    /// Largest growth of the live heap during one op.
    pub peak_bytes: u64,
    /// Trace counters and distributions of the ops alone.
    pub counters: CounterSnapshot,
    /// Σ exact simulated traffic of the dynamic plans.
    pub comm_elements: f64,
    /// Σ exact simulated traffic of the static plans.
    pub static_elements: f64,
}

/// One pass on a single worker (allocation counts repeat there, to within one),
/// then the correctness checks and the exact replay of every plan.
pub fn counted_pass(w: &Workload, expected: &Expected, tally: &mut Tally) -> Counted {
    pool::set_workers(1);
    trace::reset();
    let mut allocations = 0;
    let mut peak_bytes = 0;
    let outcomes: Vec<Option<Outcome>> = (0..w.cases.len())
        .map(|i| {
            bench::alloc::reset_peak();
            let before = bench::alloc::stats();
            let outcome = tally.op(w, i);
            let after = bench::alloc::stats();
            allocations += after.allocations - before.allocations;
            peak_bytes = peak_bytes.max(after.peak_bytes.saturating_sub(before.current_bytes));
            outcome
        })
        .collect();
    let counters = CounterSnapshot::now();
    pool::set_workers(0);

    let exact = SimOptions::exact();
    let mut comm_elements = 0.0;
    let mut static_elements = 0.0;
    for (i, outcome) in outcomes.iter().enumerate() {
        let case = &w.cases[i].name;
        let failures = match outcome {
            None => continue,
            Some(Outcome::Planned(r)) => {
                comm_elements += simulate_dynamic(r, exact).total_elements();
                static_elements += simulate_static(r, exact).total_elements();
                check_plan(case, r, expected)
            }
            Some(Outcome::Replayed(replay)) => {
                comm_elements += replay.dynamic_elements;
                static_elements += replay.static_elements;
                let plan = w.plan(i).expect("a replayed case has a stored plan");
                check_replay(case, replay, plan, expected)
            }
        };
        if !failures.is_empty() {
            tally.fail(case, &failures.join("; "));
        }
    }
    Counted {
        outcomes,
        allocations,
        peak_bytes,
        counters,
        comm_elements,
        static_elements,
    }
}

/// The window's sample count and the median and 90th percentile of its
/// passes: printed beside the metrics, so a reader sees how far the low
/// quantile sits from them.
pub fn window_rows(timed: &Timed) -> Vec<Metric> {
    let pass_ms = timed.pass_ms();
    vec![
        Metric::new("timed.passes", pass_ms.len() as f64, "count"),
        Metric::new("timed.pass_ms_p50", median(&pass_ms), "ms"),
        Metric::new("timed.pass_ms_p90", quantile(&pass_ms, 0.9), "ms"),
    ]
}

/// The end-to-end metrics of one run.
pub fn end_to_end(setup_s: f64, timed: &Timed, counted: &Counted) -> Vec<Metric> {
    fill(END_TO_END, |name| match name {
        "pass_ms_p10" => pass_at_quantile(&timed.op_ms, STEADY_QUANTILE),
        "pass_cpu_ms" => pass_at_quantile(&timed.op_cpu_ms, STEADY_QUANTILE),
        "comm_elements" => counted.comm_elements,
        "peak_alloc_bytes" => counted.peak_bytes as f64,
        "allocs_per_pass" => counted.allocations as f64,
        "setup_s" => setup_s,
        other => unreachable!("no value for end-to-end metric {other}"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_pass_is_the_sum_of_its_ops_and_quantiles_are_taken_case_by_case() {
        let timed = Timed {
            op_ms: vec![vec![1.0, 3.0, 2.0], vec![30.0, 10.0, 20.0]],
            op_cpu_ms: vec![vec![0.0; 3]; 2],
        };
        assert_eq!(timed.pass_ms(), [31.0, 13.0, 22.0]);
        // The fastest op of each case need not fall in the same pass.
        assert_eq!(pass_at_quantile(&timed.op_ms, 0.0), 11.0);
        assert_eq!(pass_at_quantile(&timed.op_ms, 0.5), 22.0);
        assert_eq!(pass_at_quantile(&timed.op_ms, 0.1), 1.2 + 12.0);
    }
}
