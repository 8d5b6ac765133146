//! The few statistics the benchmark reports, and the process CPU clock.

/// The `q`-quantile (0 ≤ q ≤ 1) of `values` by linear interpolation between
/// order statistics — the rule of numpy's default and of
/// `statistics.quantiles(method="inclusive")`. Panics on an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `struct timespec` of the 64-bit Linux ABIs.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU seconds this process has used so far, over all its
/// threads, exited ones included. The clock is the scheduler's own
/// nanosecond account, fine enough to time one op; the `utime`/`stime`
/// fields of `/proc/self/stat` tick at 10 ms and are not.
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` and the clock id is one
    // every Linux kernel serves; libc is linked by `std`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU-time clock is readable");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Least-squares slope of `ln y` on `ln x`: the exponent `k` of the power
/// law `y ∝ x^k` that best fits `points`. Needs two distinct `x`.
pub fn log_log_slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    let logs: Vec<(f64, f64)> = points.iter().map(|&(x, y)| (x.ln(), y.ln())).collect();
    let mean_x = logs.iter().map(|p| p.0).sum::<f64>() / n;
    let mean_y = logs.iter().map(|p| p.1).sum::<f64>() / n;
    let sxy: f64 = logs.iter().map(|p| (p.0 - mean_x) * (p.1 - mean_y)).sum();
    let sxx: f64 = logs.iter().map(|p| (p.0 - mean_x).powi(2)).sum();
    sxy / sxx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.9), 3.7);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    /// Spin for `ms` of wall time; the CPU seconds the process used meanwhile.
    fn cpu_of_spinning(ms: u128) -> f64 {
        let before = cpu_seconds();
        let mut x = 0u64;
        let t = std::time::Instant::now();
        while t.elapsed().as_millis() < ms {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        cpu_seconds() - before
    }

    #[test]
    fn cpu_clock_advances_with_work() {
        let used = cpu_of_spinning(60);
        assert!(
            (0.02..1.0).contains(&used),
            "60 ms of spinning read as {used} s"
        );
    }

    #[test]
    fn cpu_clock_resolves_a_short_op() {
        // A 10 ms tick would read 0 here nine times in ten.
        let used: Vec<f64> = (0..5).map(|_| cpu_of_spinning(2)).collect();
        assert!(
            used.iter().all(|&s| s > 0.0002),
            "2 ms of spinning read as {used:?} s"
        );
    }

    #[test]
    fn slope_recovers_a_power_law() {
        let pts: Vec<(f64, f64)> = [4.0, 16.0, 64.0]
            .iter()
            .map(|&x: &f64| (x, 3.0 * x.powf(1.5)))
            .collect();
        assert!((log_log_slope(&pts) - 1.5).abs() < 1e-12);
    }
}
