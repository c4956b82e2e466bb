//! Spans the benchmark records around its own calls into each layer.
//!
//! Nothing in the program is instrumented: a traced pass calls the layers'
//! public functions itself and wraps each call in a [`Span`]. Spans are kept
//! in plain vectors owned by the recording task and merged after the pass,
//! so recording takes no lock. A span names its parent, and every span of
//! one request (one loop task, one design-point answer) carries the same
//! request id.

use hcrf_explore::json::Json;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id within the run.
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// Request the span belongs to.
    pub request: u64,
    /// `<layer>.<call>`, e.g. `sched.schedule`.
    pub name: &'static str,
    /// Recording thread (engine worker index; 0 on the caller's thread).
    pub tid: usize,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer: the name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Clock and id source shared by every recording thread of a run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name` and append the span to `out`.
    /// `f` receives `out` (for child spans) and the new span's id (their
    /// parent).
    pub fn record<R>(
        &self,
        out: &mut Vec<Span>,
        name: &'static str,
        request: u64,
        parent: Option<u64>,
        tid: usize,
        f: impl FnOnce(&mut Vec<Span>, u64) -> R,
    ) -> R {
        // Relaxed: the id is a unique label and publishes no other data.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let result = f(out, id);
        out.push(Span {
            id,
            parent,
            request,
            name,
            tid,
            start_ns,
            end_ns: self.now_ns(),
        });
        result
    }
}

/// Total length of the union of `intervals` clipped to `[lo, hi)`.
fn covered_ns(lo: u64, hi: u64, intervals: impl Iterator<Item = (u64, u64)>) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .map(|(s, e)| (s.max(lo), e.min(hi)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Self time of `span`: its duration minus the part of it that the union
/// of its `children`'s intervals covers. Overlapping children (tasks of one
/// engine run on several workers) count once.
pub fn self_time_ns(span: &Span, children: &[&Span]) -> u64 {
    span.dur_ns()
        - covered_ns(
            span.start_ns,
            span.end_ns,
            children.iter().map(|c| (c.start_ns, c.end_ns)),
        )
}

/// Sum of the self times of every span named `name` in `spans`.
pub fn total_self_ns(spans: &[Span], name: &str) -> u64 {
    let mut children: HashMap<u64, Vec<&Span>> = HashMap::new();
    for s in spans {
        if let Some(parent) = s.parent {
            children.entry(parent).or_default().push(s);
        }
    }
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| self_time_ns(s, children.get(&s.id).map_or(&[], Vec::as_slice)))
        .sum()
}

/// Sum of the durations of every span named `name`, in milliseconds
/// (`0`, not the `-0` an empty `f64` sum gives, when there are none).
pub fn total_ms(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e6)
        .fold(0.0, |a, b| a + b)
}

/// Durations of every span named `name`, in milliseconds.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect()
}

/// Chrome trace-event document of `spans` (complete `X` events, times in
/// microseconds): load it in Perfetto or `chrome://tracing`.
pub fn chrome_trace(spans: &[Span]) -> Json {
    let events = spans
        .iter()
        .map(|s| {
            let mut args = vec![("id", Json::u64(s.id)), ("request", Json::u64(s.request))];
            if let Some(parent) = s.parent {
                args.push(("parent", Json::u64(parent)));
            }
            Json::obj(vec![
                ("name", Json::str(s.name)),
                ("cat", Json::str(s.layer())),
                ("ph", Json::str("X")),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                ("dur", Json::Num(s.dur_ns() as f64 / 1e3)),
                ("pid", Json::u64(1)),
                ("tid", Json::usize(s.tid)),
                ("args", Json::obj(args)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::str("ms")),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 0,
            name: "driver.loop",
            tid: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_child_intervals() {
        let parent = span(1, None, 100, 200);
        // Two overlapping children cover 110..150 once (40 ns), a third
        // covers 160..170, and one sticks out past the parent's end.
        let a = span(2, Some(1), 110, 140);
        let b = span(3, Some(1), 120, 150);
        let c = span(4, Some(1), 160, 170);
        let d = span(5, Some(1), 190, 230);
        assert_eq!(self_time_ns(&parent, &[&a, &b, &c, &d]), 100 - 40 - 10 - 10);
        // A child nested inside another counts once.
        let inner = span(6, Some(1), 125, 130);
        assert_eq!(self_time_ns(&parent, &[&a, &b, &inner]), 60);
        assert_eq!(self_time_ns(&parent, &[]), 100);
        // Children covering everything leave no self time.
        let whole = span(7, Some(1), 50, 250);
        assert_eq!(self_time_ns(&parent, &[&a, &whole]), 0);
    }

    #[test]
    fn total_self_time_finds_children_by_parent_id() {
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 30),
            Span {
                name: "sched.schedule",
                ..span(3, Some(1), 20, 60)
            },
            span(4, None, 200, 250),
        ];
        // Span 1: 100 - |10..60| = 50; span 4: 50; span 2 has no children.
        assert_eq!(total_self_ns(&spans, "driver.loop"), 50 + 20 + 50);
        assert_eq!(total_ms(&spans, "sched.schedule"), 40.0 / 1e6);
    }

    #[test]
    fn tracer_nests_children_under_their_parent() {
        let tracer = Tracer::default();
        let mut out = Vec::new();
        let value = tracer.record(&mut out, "driver.loop", 7, None, 1, |out, id| {
            tracer.record(out, "sched.schedule", 7, Some(id), 1, |_, _| 42)
        });
        assert_eq!(value, 42);
        assert_eq!(out.len(), 2);
        let (child, parent) = (&out[0], &out[1]);
        assert_eq!(child.parent, Some(parent.id));
        assert!(parent.start_ns <= child.start_ns && child.end_ns <= parent.end_ns);
        assert_eq!(child.layer(), "sched");
        assert!(out.iter().all(|s| s.request == 7));
    }

    #[test]
    fn chrome_trace_round_trips_through_the_json_parser() {
        let spans = vec![span(1, None, 1_000, 3_500), span(2, Some(1), 1_500, 2_000)];
        let text = chrome_trace(&spans).to_compact();
        let doc = Json::parse(&text).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(events[0].get("dur").and_then(Json::as_f64), Some(2.5));
        let parent = events[1].get("args").and_then(|a| a.get("parent"));
        assert_eq!(parent.and_then(Json::as_u64), Some(1));
    }
}
