//! The benchmark's own span recorder: one span per call into a layer,
//! recorded from outside the crates under test.
//!
//! Spans live in a `Vec` owned by the [`Recorder`] and are written out as
//! Chrome trace-event JSON when the run ends. The per-layer `*_ms` metrics
//! are medians over these spans.

use bench::Json;
use std::time::Instant;

/// Case index of spans that belong to a whole pass rather than one case.
pub const NO_CASE: usize = usize::MAX;

/// One timed call. Spans of one op share `op`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Index of the case the call worked on ([`NO_CASE`] for pass spans).
    pub case: usize,
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the recorder's list.
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans in start order; nesting follows enter/exit order.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    case: usize,
    op: u64,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            case: NO_CASE,
            op: 0,
        }
    }
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Start a new op on `case`: spans entered from here on carry its id.
    pub fn begin_op(&mut self, case: usize) {
        self.case = case;
        self.op += 1;
    }

    /// Open a span; close it with [`Recorder::exit`].
    pub fn enter(&mut self, name: &'static str) -> usize {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            case: self.case,
            op: self.op,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        idx
    }

    /// Close span `idx` (and any span still open inside it); returns its
    /// duration in milliseconds.
    pub fn exit(&mut self, idx: usize) -> f64 {
        let end_ns = self.now_ns();
        while let Some(open) = self.open.pop() {
            self.spans[open].end_ns = end_ns;
            if open == idx {
                break;
            }
        }
        self.spans[idx].duration_ns() as f64 / 1e6
    }

    /// Time one call as a leaf span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let idx = self.enter(name);
        let out = f();
        self.exit(idx);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of span `idx`: its duration minus the part of its interval that
/// its direct children cover (overlapping children are not counted twice).
pub fn self_ns(spans: &[Span], idx: usize) -> u64 {
    let span = &spans[idx];
    let mut children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(idx))
        .map(|s| (s.start_ns.max(span.start_ns), s.end_ns.min(span.end_ns)))
        .filter(|(lo, hi)| lo < hi)
        .collect();
    children.sort_unstable();
    let mut covered = 0;
    let mut reach = span.start_ns;
    for (lo, hi) in children {
        if hi > reach {
            covered += hi - lo.max(reach);
            reach = hi;
        }
    }
    span.duration_ns() - covered
}

/// Durations in milliseconds of every span called `name` on `case`.
pub fn durations_ms(spans: &[Span], name: &str, case: usize) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name && s.case == case)
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect()
}

/// The spans as a `chrome://tracing` / Perfetto document. The layer prefix
/// of each name is the event category.
pub fn to_chrome_json(spans: &[Span], case_names: &[String]) -> Json {
    let num = |v: u64| Json::Num(v as f64);
    let events = spans
        .iter()
        .map(|s| {
            let case = case_names.get(s.case).map_or("", String::as_str);
            Json::Obj(vec![
                ("name".into(), Json::Str(s.name.into())),
                (
                    "cat".into(),
                    Json::Str(s.name.split('.').next().unwrap_or(s.name).into()),
                ),
                ("ph".into(), Json::Str("X".into())),
                ("ts".into(), Json::Num(s.start_ns as f64 / 1e3)),
                ("dur".into(), Json::Num(s.duration_ns() as f64 / 1e3)),
                ("pid".into(), num(1)),
                ("tid".into(), num(1)),
                (
                    "args".into(),
                    Json::Obj(vec![
                        ("case".into(), Json::Str(case.into())),
                        ("op".into(), num(s.op)),
                        (
                            "parent".into(),
                            s.parent.map_or(Json::Null, |p| num(p as u64)),
                        ),
                    ]),
                ),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("traceEvents".into(), Json::Arr(events)),
        ("displayTimeUnit".into(), Json::Str("ms".into())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "t.span",
            case: 0,
            op: 1,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(20, 50, Some(0)), // overlaps the previous child: union is 10..50
            span(60, 70, Some(0)),
            span(62, 65, Some(3)), // a grandchild does not count against the root
            span(90, 140, Some(0)), // clipped to the parent's end
        ];
        assert_eq!(self_ns(&spans, 0), 100 - 40 - 10 - 10);
        assert_eq!(self_ns(&spans, 3), 10 - 3);
        assert_eq!(self_ns(&spans, 1), 20, "a leaf is all self time");
    }

    #[test]
    fn recorder_nests_by_enter_exit_order_and_tags_ops() {
        let mut rec = Recorder::default();
        rec.begin_op(3);
        let outer = rec.enter("op.outer");
        assert_eq!(rec.time("layer.leaf", || 7), 7);
        rec.exit(outer);
        rec.begin_op(4);
        rec.time("layer.leaf", || ());
        let s = rec.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent),
            (None, Some(0), None)
        );
        assert_eq!((s[0].op, s[1].op, s[2].op), (1, 1, 2));
        assert_eq!((s[1].case, s[2].case), (3, 4));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert_eq!(durations_ms(s, "layer.leaf", 3).len(), 1);
        assert!(self_ns(s, 0) <= s[0].duration_ns());
    }

    #[test]
    fn chrome_document_round_trips() {
        let mut rec = Recorder::default();
        rec.begin_op(0);
        rec.time("lp.solve", || ());
        let doc = to_chrome_json(rec.spans(), &["figure1".to_string()]);
        let parsed = Json::parse(&doc.to_string_pretty()).unwrap();
        let events = parsed.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].get("cat").and_then(Json::as_str), Some("lp"));
        let args = events[0].get("args").unwrap();
        assert_eq!(args.get("case").and_then(Json::as_str), Some("figure1"));
    }
}
