//! Pipeline-wide tracing and metrics.
//!
//! Every layer of the alignment pipeline (`lp`, `alignment-core`,
//! `distrib`, `phases`, `commsim`) reports into this crate so a solve
//! leaves behind a structured, machine-readable account of what it did:
//!
//! * **Spans** — hierarchical timed regions ([`span`] returns an RAII
//!   guard; a thread-local stack tracks nesting, a monotonic clock tracks
//!   time). Spans are **off by default** and enabled per thread via
//!   [`configure`]; a disabled [`span`] call is a single thread-local flag
//!   read, so the gated benches measure the uninstrumented pipeline.
//! * **Counters** — named monotonic `u64`s ([`count`]). Counters are
//!   *always on*: they are the same cheap thread-local increments the
//!   pre-trace ad-hoc counters (`align_call_count`) already paid,
//!   regression tests assert on them, and identical solves produce
//!   identical values.
//! * **Distributions** — named value histograms ([`record_value`]):
//!   count/sum/min/max plus power-of-two buckets, e.g. DP layer widths.
//! * **Events** — timestamped key=value facts ([`event`]), recorded only
//!   while spans are enabled.
//!
//! Everything is thread-local (like the counters this crate replaced), so
//! parallel test threads never interfere. [`take`] drains the current
//! thread's spans and events into a [`Trace`] for export —
//! [`chrome::to_chrome_json`] renders one as a `chrome://tracing`-loadable
//! trace-event file, honouring the `TRACE_JSON` environment variable (with
//! relative paths resolved against the workspace root, see [`path`]).
//!
//! Naming convention: `layer.metric` (`lp.pivots`,
//! `phases.dp.layer_width`, …). The segment before the first `.` is the
//! pipeline layer; the Chrome exporter uses it as the event category.

pub mod chrome;
pub mod json;
pub mod path;
pub mod profile;

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

/// What the tracing layer records. Counters and distributions are always
/// on (cheap thread-local increments); spans and events are opt-in.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceConfig {
    /// Record timed spans and structured events. Off by default: with
    /// spans disabled, [`span`] is a single thread-local flag read and no
    /// clock is touched — the gated benches run the uninstrumented
    /// pipeline.
    pub spans: bool,
}

impl TraceConfig {
    /// Spans and events on.
    pub fn enabled() -> TraceConfig {
        TraceConfig { spans: true }
    }
}

thread_local! {
    static SPANS_ENABLED: Cell<bool> = const { Cell::new(false) };
    static COLLECTOR: RefCell<Collector> = RefCell::new(Collector::new());
}

/// Apply `config` to the **current thread** (tracing state is thread-local
/// throughout, so parallel test threads never observe each other).
pub fn configure(config: TraceConfig) {
    SPANS_ENABLED.with(|c| c.set(config.spans));
}

/// Whether spans and events are currently recorded on this thread.
pub fn spans_enabled() -> bool {
    SPANS_ENABLED.with(Cell::get)
}

/// One completed (or still-open) timed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span name, `layer.operation` by convention.
    pub name: &'static str,
    /// Start, nanoseconds since the thread's trace epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds (elapsed-so-far for spans still open when
    /// the trace is taken).
    pub dur_ns: u64,
    /// Nesting depth (0 = top level).
    pub depth: usize,
    /// Index of the enclosing span within the same trace, if any.
    pub parent: Option<usize>,
}

/// One timestamped structured event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventRecord {
    /// Event name, `layer.what` by convention.
    pub name: &'static str,
    /// Timestamp, nanoseconds since the thread's trace epoch.
    pub ts_ns: u64,
    /// Key=value payload.
    pub args: Vec<(String, String)>,
}

/// Number of power-of-two buckets a [`Histogram`] keeps (bucket `i` counts
/// values `v` with `floor(log2(max(v,1))) == i`; the last bucket absorbs
/// everything larger).
pub const HISTOGRAM_BUCKETS: usize = 48;

/// A value distribution: count/sum/min/max plus power-of-two buckets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Histogram {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: f64,
    /// Smallest recorded value.
    pub min: f64,
    /// Largest recorded value.
    pub max: f64,
    /// Power-of-two buckets (see [`HISTOGRAM_BUCKETS`]).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            buckets: [0; HISTOGRAM_BUCKETS],
        }
    }
}

impl Histogram {
    fn record(&mut self, value: f64) {
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        let magnitude = value.max(1.0) as u64;
        let bucket = (63 - magnitude.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1);
        self.buckets[bucket] += 1;
    }

    /// Mean of the recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

struct Collector {
    epoch: Option<Instant>,
    spans: Vec<SpanRecord>,
    stack: Vec<usize>,
    events: Vec<EventRecord>,
    counters: BTreeMap<&'static str, u64>,
    dists: BTreeMap<&'static str, Histogram>,
}

impl Collector {
    fn new() -> Collector {
        Collector {
            epoch: None,
            spans: Vec::new(),
            stack: Vec::new(),
            events: Vec::new(),
            counters: BTreeMap::new(),
            dists: BTreeMap::new(),
        }
    }

    fn now_ns(&mut self) -> u64 {
        let epoch = self.epoch.get_or_insert_with(Instant::now);
        epoch.elapsed().as_nanos() as u64
    }
}

/// RAII guard of one timed span: the span covers the guard's lifetime.
/// With spans disabled the guard is inert and constructing it did no work
/// beyond one thread-local flag read.
#[must_use = "a span covers the guard's lifetime; dropping it immediately closes the span"]
pub struct SpanGuard {
    idx: Option<usize>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(idx) = self.idx else { return };
        COLLECTOR.with(|c| {
            let mut c = c.borrow_mut();
            let now = c.now_ns();
            if let Some(pos) = c.stack.iter().rposition(|&i| i == idx) {
                c.stack.truncate(pos);
            }
            if let Some(rec) = c.spans.get_mut(idx) {
                rec.dur_ns = now.saturating_sub(rec.start_ns);
            }
        });
    }
}

/// Open a timed span named `name` (convention: `layer.operation`). The
/// span closes when the returned guard drops. No-op (and near-free) unless
/// spans were enabled via [`configure`].
pub fn span(name: &'static str) -> SpanGuard {
    if !spans_enabled() {
        return SpanGuard { idx: None };
    }
    let idx = COLLECTOR.with(|c| {
        let mut c = c.borrow_mut();
        let start_ns = c.now_ns();
        let parent = c.stack.last().copied();
        let depth = c.stack.len();
        let idx = c.spans.len();
        c.spans.push(SpanRecord {
            name,
            start_ns,
            dur_ns: 0,
            depth,
            parent,
        });
        c.stack.push(idx);
        idx
    });
    SpanGuard { idx: Some(idx) }
}

/// Bump the named monotonic counter by `delta`. Always on.
pub fn count(name: &'static str, delta: u64) {
    COLLECTOR.with(|c| {
        let mut c = c.borrow_mut();
        *c.counters.entry(name).or_insert(0) += delta;
    });
}

/// Record one value into the named distribution. Always on.
pub fn record_value(name: &'static str, value: f64) {
    COLLECTOR.with(|c| {
        let mut c = c.borrow_mut();
        c.dists.entry(name).or_default().record(value);
    });
}

/// Record a structured key=value event (only while spans are enabled).
pub fn event(name: &'static str, args: &[(&str, String)]) {
    if !spans_enabled() {
        return;
    }
    COLLECTOR.with(|c| {
        let mut c = c.borrow_mut();
        let ts_ns = c.now_ns();
        let args = args
            .iter()
            .map(|(k, v)| ((*k).to_owned(), v.clone()))
            .collect();
        c.events.push(EventRecord { name, ts_ns, args });
    });
}

/// Current value of the named counter (0 if it never fired).
pub fn counter(name: &str) -> u64 {
    COLLECTOR.with(|c| c.borrow().counters.get(name).copied().unwrap_or(0))
}

/// Current state of the named distribution, if it ever recorded.
pub fn distribution(name: &str) -> Option<Histogram> {
    COLLECTOR.with(|c| c.borrow().dists.get(name).copied())
}

/// Number of spans recorded on this thread since the last [`reset`] /
/// [`take`].
pub fn span_count() -> usize {
    COLLECTOR.with(|c| c.borrow().spans.len())
}

/// Zero one counter (compatibility shims for the pre-trace per-counter
/// reset functions; prefer [`CounterSnapshot`] deltas in new code).
pub fn reset_counter(name: &str) {
    COLLECTOR.with(|c| {
        c.borrow_mut().counters.remove(name);
    });
}

/// Clear everything recorded on this thread: spans, events, counters,
/// distributions and the trace epoch.
pub fn reset() {
    COLLECTOR.with(|c| {
        let mut c = c.borrow_mut();
        *c = Collector::new();
    });
}

/// A point-in-time copy of every counter and distribution on this thread.
/// Subtract two snapshots ([`CounterSnapshot::delta_since`]) to attribute
/// activity to a region of code — the pattern the bench harness and the
/// phase pipeline's solve summary use.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CounterSnapshot {
    /// Counter name → value, sorted by name.
    pub counters: BTreeMap<String, u64>,
    /// Distribution name → state, sorted by name.
    pub dists: BTreeMap<String, Histogram>,
}

impl CounterSnapshot {
    /// Snapshot the current thread.
    pub fn now() -> CounterSnapshot {
        COLLECTOR.with(|c| {
            let c = c.borrow();
            CounterSnapshot {
                counters: c
                    .counters
                    .iter()
                    .map(|(&k, &v)| (k.to_owned(), v))
                    .collect(),
                dists: c.dists.iter().map(|(&k, &v)| (k.to_owned(), v)).collect(),
            }
        })
    }

    /// Value of a counter in this snapshot (0 when absent).
    pub fn get(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Counter-wise difference `self - earlier` (distributions keep the
    /// later state; counts that shrank — only possible across a reset —
    /// clamp to zero).
    pub fn delta_since(&self, earlier: &CounterSnapshot) -> CounterSnapshot {
        let counters = self
            .counters
            .iter()
            .map(|(k, &v)| (k.clone(), v.saturating_sub(earlier.get(k))))
            .filter(|(_, v)| *v > 0)
            .collect();
        CounterSnapshot {
            counters,
            dists: self.dists.clone(),
        }
    }
}

/// A drained trace: everything one thread recorded, ready for export.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Completed spans in start order (open spans are closed at the drain
    /// instant).
    pub spans: Vec<SpanRecord>,
    /// Structured events in record order.
    pub events: Vec<EventRecord>,
    /// Counter values at drain time.
    pub counters: BTreeMap<String, u64>,
    /// Distribution states at drain time.
    pub dists: BTreeMap<String, Histogram>,
}

impl Trace {
    /// Span count per pipeline layer (the `layer.` prefix of span names).
    pub fn spans_per_layer(&self) -> BTreeMap<String, usize> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            *out.entry(layer.to_owned()).or_insert(0) += 1;
        }
        out
    }
}

/// Drain the current thread's spans and events into a [`Trace`]; counters
/// and distributions are copied but left running (they are monotonic
/// program-lifetime quantities — use [`reset`] to zero them).
pub fn take() -> Trace {
    COLLECTOR.with(|c| {
        let mut c = c.borrow_mut();
        let now = c.now_ns();
        let mut spans = std::mem::take(&mut c.spans);
        for &open in &c.stack {
            if let Some(rec) = spans.get_mut(open) {
                rec.dur_ns = now.saturating_sub(rec.start_ns);
            }
        }
        c.stack.clear();
        Trace {
            spans,
            events: std::mem::take(&mut c.events),
            counters: c
                .counters
                .iter()
                .map(|(&k, &v)| (k.to_owned(), v))
                .collect(),
            dists: c.dists.iter().map(|(&k, &v)| (k.to_owned(), v)).collect(),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_spans_record_nothing() {
        reset();
        configure(TraceConfig::default());
        {
            let _g = span("lp.solve");
            let _h = span("lp.pivot");
        }
        assert_eq!(span_count(), 0);
        event("lp.note", &[("k", "v".into())]);
        assert!(take().events.is_empty());
    }

    #[test]
    fn spans_nest_and_close() {
        reset();
        configure(TraceConfig::enabled());
        {
            let _outer = span("phases.pipeline");
            {
                let _inner = span("lp.solve");
            }
            let _sibling = span("commsim.simulate");
        }
        configure(TraceConfig::default());
        let trace = take();
        assert_eq!(trace.spans.len(), 3);
        let outer = &trace.spans[0];
        let inner = &trace.spans[1];
        let sibling = &trace.spans[2];
        assert_eq!(outer.depth, 0);
        assert_eq!(inner.depth, 1);
        assert_eq!(inner.parent, Some(0));
        assert_eq!(sibling.parent, Some(0));
        // Children are contained in the parent.
        for child in [inner, sibling] {
            assert!(child.start_ns >= outer.start_ns);
            assert!(child.start_ns + child.dur_ns <= outer.start_ns + outer.dur_ns);
        }
        assert_eq!(trace.spans_per_layer()["lp"], 1);
        assert_eq!(trace.spans_per_layer()["phases"], 1);
    }

    #[test]
    fn counters_accumulate_and_snapshot_deltas() {
        reset();
        count("test.a", 2);
        let before = CounterSnapshot::now();
        count("test.a", 3);
        count("test.b", 1);
        let delta = CounterSnapshot::now().delta_since(&before);
        assert_eq!(delta.get("test.a"), 3);
        assert_eq!(delta.get("test.b"), 1);
        assert_eq!(counter("test.a"), 5);
        reset_counter("test.a");
        assert_eq!(counter("test.a"), 0);
        assert_eq!(counter("test.b"), 1);
        reset();
        assert_eq!(counter("test.b"), 0);
    }

    #[test]
    fn distributions_track_count_sum_and_buckets() {
        reset();
        record_value("test.width", 1.0);
        record_value("test.width", 4.0);
        record_value("test.width", 5.0);
        let h = distribution("test.width").unwrap();
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 10.0);
        assert_eq!(h.min, 1.0);
        assert_eq!(h.max, 5.0);
        assert_eq!(h.buckets[0], 1); // 1.0 -> bucket 0
        assert_eq!(h.buckets[2], 2); // 4.0, 5.0 -> bucket 2
        assert!((h.mean() - 10.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_histogram_is_well_defined() {
        let h = Histogram::default();
        assert_eq!(h.count, 0);
        assert_eq!(h.sum, 0.0);
        assert_eq!(h.mean(), 0.0, "mean of nothing is 0, not NaN");
        assert!(h.buckets.iter().all(|&b| b == 0));
        // min/max are the fold identities until something records.
        assert_eq!(h.min, f64::INFINITY);
        assert_eq!(h.max, f64::NEG_INFINITY);
    }

    #[test]
    fn single_sample_histogram_pins_all_statistics() {
        reset();
        record_value("test.single", 7.0);
        let h = distribution("test.single").unwrap();
        assert_eq!(h.count, 1);
        assert_eq!(h.sum, 7.0);
        assert_eq!(h.min, 7.0);
        assert_eq!(h.max, 7.0);
        assert_eq!(h.mean(), 7.0);
        assert_eq!(h.buckets.iter().sum::<u64>(), 1);
        assert_eq!(h.buckets[2], 1); // floor(log2(7)) == 2
    }

    #[test]
    fn histogram_buckets_split_exactly_at_powers_of_two() {
        reset();
        // Bucket i holds values v with floor(log2(max(v,1))) == i, so each
        // power of two opens a new bucket and 2^k - 1 stays in the old one.
        for v in [0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 7.0, 8.0] {
            record_value("test.edges", v);
        }
        let h = distribution("test.edges").unwrap();
        assert_eq!(h.buckets[0], 4); // 0, 0.5, 1, 1.5 (sub-1 clamps to 1)
        assert_eq!(h.buckets[1], 2); // 2, 3
        assert_eq!(h.buckets[2], 2); // 4, 7
        assert_eq!(h.buckets[3], 1); // 8
        assert_eq!(h.buckets.iter().sum::<u64>(), h.count);
        // Values past the largest boundary land in the final bucket.
        reset();
        record_value("test.huge", 2.0f64.powi(60));
        let h = distribution("test.huge").unwrap();
        assert_eq!(h.buckets[HISTOGRAM_BUCKETS - 1], 1);
    }

    #[test]
    fn delta_since_clamps_counters_reset_mid_run() {
        reset();
        count("test.kept", 5);
        count("test.reset", 9);
        let before = CounterSnapshot::now();
        count("test.kept", 2);
        reset_counter("test.reset"); // mid-run reset: value drops 9 -> 0
        count("test.reset", 4); // climbs back, but below the snapshot
        let after = CounterSnapshot::now();
        let delta = after.delta_since(&before);
        assert_eq!(delta.get("test.kept"), 2);
        // The shrunken counter clamps to zero and is dropped entirely
        // rather than reporting a wrapped-around delta.
        assert_eq!(delta.get("test.reset"), 0);
        assert!(!delta.counters.contains_key("test.reset"));
    }

    #[test]
    fn take_closes_open_spans_nonnegative() {
        reset();
        configure(TraceConfig::enabled());
        let guard = span("phases.open");
        let trace = take();
        configure(TraceConfig::default());
        drop(guard);
        assert_eq!(trace.spans.len(), 1);
        // dur is elapsed-so-far, not negative / not u64 wraparound.
        assert!(trace.spans[0].dur_ns < u64::MAX / 2);
    }
}
