//! The benchmark's own in-memory span recorder.
//!
//! Spans are recorded from the benchmark's side of the product boundary —
//! around every rung call and every layer probe — so the numbers survive
//! any renaming of the product's internal instrumentation. One client
//! drives the load, so nesting is a plain stack. A disabled tracer records
//! nothing; end-to-end metrics are always measured with it disabled.

use crate::json::Json;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// The operation this span belongs to; spans of one request share it.
    pub request: u64,
}

struct Inner {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

pub struct Tracer {
    inner: Option<RefCell<Inner>>,
}

/// Closes its span when dropped.
pub struct Guard<'a> {
    tracer: &'a Tracer,
    id: usize,
}

/// Per-name totals: how often a span ran, its total time, and its self
/// time (total minus the time its direct children cover).
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub name: &'static str,
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Tracer {
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    pub fn enabled() -> Self {
        Self {
            inner: Some(RefCell::new(Inner {
                epoch: Instant::now(),
                spans: Vec::new(),
                open: Vec::new(),
                request: 0,
            })),
        }
    }

    /// Tags every span opened from now on with `request`.
    pub fn set_request(&self, request: u64) {
        if let Some(inner) = &self.inner {
            inner.borrow_mut().request = request;
        }
    }

    pub fn span(&self, name: &'static str) -> Guard<'_> {
        let Some(inner) = &self.inner else { return Guard { tracer: self, id: 0 } };
        let mut inner = inner.borrow_mut();
        let id = inner.spans.len();
        let span = Span {
            name,
            start_ns: inner.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: inner.open.last().copied(),
            request: inner.request,
        };
        inner.spans.push(span);
        inner.open.push(id);
        Guard { tracer: self, id }
    }

    pub fn n_spans(&self) -> usize {
        self.inner.as_ref().map_or(0, |inner| inner.borrow().spans.len())
    }

    pub fn spans(&self) -> Vec<Span> {
        self.inner.as_ref().map_or_else(Vec::new, |inner| inner.borrow().spans.clone())
    }

    /// The whole trace: per-name summary first, raw spans after.
    pub fn to_json(&self) -> Json {
        let spans = self.spans();
        let summary = summarize(&spans)
            .into_iter()
            .map(|s| {
                Json::object([
                    ("name", Json::from(s.name)),
                    ("count", Json::from(s.count)),
                    ("total_us", Json::from(s.total_ns as f64 / 1e3)),
                    ("self_us", Json::from(s.self_ns as f64 / 1e3)),
                ])
            })
            .collect();
        let raw = spans
            .iter()
            .map(|s| {
                Json::object([
                    ("name", Json::from(s.name)),
                    ("start_ns", Json::from(s.start_ns)),
                    ("end_ns", Json::from(s.end_ns)),
                    ("parent", s.parent.map_or(Json::Null, |p| Json::from(p as u64))),
                    ("request", Json::from(s.request)),
                ])
            })
            .collect();
        Json::object([("summary", Json::Array(summary)), ("spans", Json::Array(raw))])
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if let Some(inner) = &self.tracer.inner {
            let mut inner = inner.borrow_mut();
            let now = inner.epoch.elapsed().as_nanos() as u64;
            inner.spans[self.id].end_ns = now;
            let closed = inner.open.pop();
            debug_assert_eq!(closed, Some(self.id), "spans close in the order they nest");
        }
    }
}

/// Self time of every span: its duration minus the durations of its direct
/// children (children never overlap — there is one client thread).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] = own[parent].saturating_sub(span.end_ns - span.start_ns);
        }
    }
    own
}

pub fn summarize(spans: &[Span]) -> Vec<Summary> {
    let own = self_times(spans);
    let mut by_name: BTreeMap<&'static str, Summary> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(own) {
        let entry = by_name.entry(span.name).or_insert(Summary {
            name: span.name,
            count: 0,
            total_ns: 0,
            self_ns: 0,
        });
        entry.count += 1;
        entry.total_ns += span.end_ns - span.start_ns;
        entry.self_ns += self_ns;
    }
    by_name.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns: start, end_ns: end, parent, request: 1 }
    }

    #[test]
    fn self_time_is_span_minus_direct_children() {
        let spans = vec![
            span("resolve", 0, 100, None),
            span("wire", 10, 40, Some(0)),
            span("codec", 15, 25, Some(1)),
            span("wire", 50, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
        let summary = summarize(&spans);
        let wire = summary.iter().find(|s| s.name == "wire").unwrap();
        assert_eq!((wire.count, wire.total_ns, wire.self_ns), (2, 70, 60));
        // Self times partition the root's duration exactly.
        assert_eq!(summary.iter().map(|s| s.self_ns).sum::<u64>(), 100);
    }

    #[test]
    fn guards_nest_and_carry_the_request_id() {
        let tracer = Tracer::enabled();
        tracer.set_request(7);
        {
            let _outer = tracer.span("outer");
            let _inner = tracer.span("inner");
        }
        tracer.set_request(8);
        drop(tracer.span("next"));
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, None);
        assert_eq!((spans[0].request, spans[2].request), (7, 8));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let tracer = Tracer::disabled();
        drop(tracer.span("x"));
        assert!(tracer.spans().is_empty());
    }
}
