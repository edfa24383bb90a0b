//! Host-time spans around layer calls.
//!
//! The traced run wraps every call into a library crate in a [`span`]
//! named after the layer (the crate) and the operation. Spans live in a
//! thread-local recorder that is only installed by [`record`]; without
//! it [`span`] just runs its closure, so the untraced run pays one
//! thread-local lookup per call and reads no clock.
//!
//! A span's self time is its duration minus the time its direct
//! children cover. The per-layer figures the benchmark reports are sums
//! of self times, so nested layers are never counted twice.

use std::cell::RefCell;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer the span is attributed to (a crate name, or `perfbench`).
    pub layer: &'static str,
    /// Operation name, e.g. `policy.solve`.
    pub name: &'static str,
    /// Start, nanoseconds since the recording began.
    pub start_ns: u64,
    /// End, nanoseconds since the recording began.
    pub end_ns: u64,
    /// Index of the enclosing span in the recording, if any.
    pub parent: Option<usize>,
    /// Shared id of the cell or load point the span belongs to.
    pub group: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    group: u64,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Runs `f` with a span recorder installed and returns its result plus
/// the spans it recorded, in start order.
pub fn record<R>(f: impl FnOnce() -> R) -> (R, Vec<Span>) {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            group: 0,
        })
    });
    let out = f();
    let rec = RECORDER
        .with(|r| r.borrow_mut().take())
        .expect("recorder installed");
    (out, rec.spans)
}

/// Sets the group id stamped on spans opened from now on (a cell or a
/// load point). No-op without a recorder.
pub fn set_group(group: u64) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.group = group;
        }
    });
}

/// Runs `f` inside a span of `layer` named `name`.
pub fn span<R>(layer: &'static str, name: &'static str, f: impl FnOnce() -> R) -> R {
    let opened = RECORDER.with(|r| {
        r.borrow_mut().as_mut().map(|rec| {
            let idx = rec.spans.len();
            let start_ns = rec.origin.elapsed().as_nanos() as u64;
            rec.spans.push(Span {
                layer,
                name,
                start_ns,
                end_ns: start_ns,
                parent: rec.open.last().copied(),
                group: rec.group,
            });
            rec.open.push(idx);
            idx
        })
    });
    let out = f();
    if let Some(idx) = opened {
        RECORDER.with(|r| {
            let mut guard = r.borrow_mut();
            let rec = guard.as_mut().expect("recorder outlives its spans");
            rec.spans[idx].end_ns = rec.origin.elapsed().as_nanos() as u64;
            rec.open.pop();
        });
    }
    out
}

/// Self time of every span: its duration minus the durations of its
/// direct children.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Per-name totals of a recording.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Totals {
    /// `(name, layer, self seconds, calls)` in first-seen order.
    pub by_name: Vec<(&'static str, &'static str, f64, u64)>,
}

impl Totals {
    /// Sums self times per span name.
    pub fn of(spans: &[Span]) -> Totals {
        let own = self_times_ns(spans);
        let mut by_name: Vec<(&'static str, &'static str, f64, u64)> = Vec::new();
        for (s, ns) in spans.iter().zip(own) {
            match by_name.iter_mut().find(|e| e.0 == s.name) {
                Some(e) => {
                    e.2 += ns as f64 / 1e9;
                    e.3 += 1;
                }
                None => by_name.push((s.name, s.layer, ns as f64 / 1e9, 1)),
            }
        }
        Totals { by_name }
    }

    /// Self seconds of spans named `name` (0 if none ran).
    pub fn secs(&self, name: &str) -> f64 {
        self.by_name
            .iter()
            .find(|e| e.0 == name)
            .map_or(0.0, |e| e.2)
    }

    /// Number of spans named `name`.
    pub fn calls(&self, name: &str) -> u64 {
        self.by_name.iter().find(|e| e.0 == name).map_or(0, |e| e.3)
    }

    /// Self seconds per layer, in first-seen order.
    pub fn by_layer(&self) -> Vec<(&'static str, f64)> {
        let mut out: Vec<(&'static str, f64)> = Vec::new();
        for &(_, layer, secs, _) in &self.by_name {
            match out.iter_mut().find(|e| e.0 == layer) {
                Some(e) => e.1 += secs,
                None => out.push((layer, secs)),
            }
        }
        out
    }
}

/// Renders spans as a Chrome trace-event document (one process, one
/// thread, `"X"` events in microseconds) that `repro check-trace`
/// validates and Perfetto opens.
pub fn chrome_trace(process: &str, spans: &[Span]) -> ugache_bench::json::Value {
    use ugache_bench::json::Value;
    let num = |v: f64| Value::Num(format!("{v}"));
    let meta = |name: &str, label: &str| {
        Value::Obj(vec![
            ("name".to_string(), Value::Str(name.to_string())),
            ("ph".to_string(), Value::Str("M".to_string())),
            ("pid".to_string(), Value::Num("1".to_string())),
            ("tid".to_string(), Value::Num("1".to_string())),
            (
                "args".to_string(),
                Value::Obj(vec![("name".to_string(), Value::Str(label.to_string()))]),
            ),
        ])
    };
    let mut events = vec![meta("process_name", process), meta("thread_name", "host")];
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or(Value::Null, |p| Value::Num(p.to_string()));
        events.push(Value::Obj(vec![
            ("name".to_string(), Value::Str(s.name.to_string())),
            ("cat".to_string(), Value::Str(s.layer.to_string())),
            ("ph".to_string(), Value::Str("X".to_string())),
            ("pid".to_string(), Value::Num("1".to_string())),
            ("tid".to_string(), Value::Num("1".to_string())),
            ("ts".to_string(), num(s.start_ns as f64 / 1e3)),
            ("dur".to_string(), num(s.dur_ns() as f64 / 1e3)),
            (
                "args".to_string(),
                Value::Obj(vec![
                    ("id".to_string(), Value::Num(i.to_string())),
                    ("parent".to_string(), parent),
                    ("group".to_string(), Value::Num(s.group.to_string())),
                ]),
            ),
        ]));
    }
    Value::Obj(vec![("traceEvents".to_string(), Value::Arr(events))])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            layer: "l",
            name,
            start_ns: start,
            end_ns: end,
            parent,
            group: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            s("root", 0, 100, None),
            s("a", 10, 40, Some(0)),
            s("a.inner", 15, 35, Some(1)),
            s("b", 50, 90, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 10, 20, 40]);
        // Self times of a tree add up to the root's duration.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn totals_group_by_name_and_layer() {
        let mut spans = vec![s("root", 0, 100, None), s("a", 0, 30, Some(0))];
        spans.push(s("a", 30, 50, Some(0)));
        spans[0].layer = "top";
        let t = Totals::of(&spans);
        assert_eq!(t.calls("a"), 2);
        assert!((t.secs("a") - 50e-9).abs() < 1e-18);
        assert!((t.secs("root") - 50e-9).abs() < 1e-18);
        assert_eq!(t.secs("missing"), 0.0);
        assert_eq!(t.by_layer().len(), 2);
    }

    #[test]
    fn recorder_nests_spans_and_stamps_groups() {
        let (v, spans) = record(|| {
            span("x", "outer", || {
                set_group(7);
                span("y", "inner", || 3)
            })
        });
        assert_eq!(v, 3);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].group, 7);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        // Without a recorder a span is just a call.
        assert_eq!(span("x", "free", || 5), 5);
    }

    #[test]
    fn chrome_export_passes_the_repro_validator() {
        let (_, spans) = record(|| {
            span("x", "outer", || {
                span("y", "a", || ());
                span("y", "b", || ());
            })
        });
        let doc = chrome_trace("test", &spans);
        assert!(ugache_bench::chrome::validate(&doc).is_empty());
        let text = doc.render_compact();
        let back = ugache_bench::json::parse(&text).expect("round-trips");
        assert!(ugache_bench::chrome::validate(&back).is_empty());
    }
}
