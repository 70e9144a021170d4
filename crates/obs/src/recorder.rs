//! Span and metrics recorder.
//!
//! A [`Recorder`] aggregates nanosecond span timings by hierarchical path
//! (`resolve.block`, `shard.ingest.local.3`, …) into mergeable
//! [`Histogram`]s, alongside monotonic counters, gauges, and value
//! histograms. Span nesting is tracked per thread: a guard opened while
//! another guard is live records under the joined dotted path. Worker
//! threads spawned by `flexer-par` do **not** inherit the caller's span
//! stack — instrumentation inside parallel closures should record explicit
//! dotted paths ([`Recorder::record_span_ns`] /
//! [`Recorder::record_span_ns_indexed`]) instead of relying on nesting.
//!
//! Steady-state recording is allocation-free: path composition reuses a
//! thread-local scratch string and histogram lookup borrows it as `&str`;
//! the owned key is allocated only the first time a path is seen.

use crate::export::{HistStat, MetricsSnapshot};
use crate::hist::Histogram;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Per-thread span stack plus a reusable path-composition buffer.
struct ThreadFrames {
    stack: Vec<&'static str>,
    scratch: String,
}

thread_local! {
    static FRAMES: RefCell<ThreadFrames> =
        const { RefCell::new(ThreadFrames { stack: Vec::new(), scratch: String::new() }) };
}

#[derive(Default)]
struct Shared {
    spans: Mutex<BTreeMap<Box<str>, Histogram>>,
    values: Mutex<BTreeMap<Box<str>, Histogram>>,
    counters: Mutex<BTreeMap<Box<str>, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<Box<str>, f64>>,
}

/// Shared-handle span/metrics aggregator. Cloning is cheap (`Arc`); all
/// clones record into the same aggregate.
#[derive(Clone, Default)]
pub struct Recorder {
    shared: Arc<Shared>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder").finish_non_exhaustive()
    }
}

/// Monotonic counter handle, pre-registered so hot paths pay one relaxed
/// atomic add per increment with no map lookup.
#[derive(Clone)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Counter").field(&self.get()).finish()
    }
}

impl Counter {
    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// RAII guard returned by [`Recorder::span`]; records the elapsed
/// nanoseconds under the composed span path on drop.
pub struct SpanGuard<'a> {
    rec: &'a Recorder,
    start: Instant,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let ns = self.start.elapsed().as_nanos() as u64;
        FRAMES.with(|f| {
            let mut f = f.borrow_mut();
            let f = &mut *f;
            f.scratch.clear();
            for (i, part) in f.stack.iter().enumerate() {
                if i > 0 {
                    f.scratch.push('.');
                }
                f.scratch.push_str(part);
            }
            self.rec.record_span_ns(&f.scratch, ns);
            f.stack.pop();
        });
    }
}

impl Recorder {
    /// New, empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Open a timed span named `name`, nested under any span already open
    /// on this thread. The returned guard records on drop; bind it
    /// (`let _span = …`) so it lives to the end of the scope.
    #[inline]
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        FRAMES.with(|f| f.borrow_mut().stack.push(name));
        SpanGuard { rec: self, start: Instant::now() }
    }

    /// Record `ns` under an explicit dotted span path, bypassing the
    /// thread-local nesting stack (use inside `flexer-par` workers).
    pub fn record_span_ns(&self, path: &str, ns: u64) {
        record_into(&self.shared.spans, path, ns);
    }

    /// Record the time since `*since` under the flat path `path` (as
    /// [`Self::record_span_ns`]) and restart `*since` from now, so
    /// consecutive laps tile a loop body into its stages.
    pub fn lap(&self, path: &str, since: &mut Instant) {
        let now = Instant::now();
        self.record_span_ns(path, now.duration_since(*since).as_nanos() as u64);
        *since = now;
    }

    /// Record `ns` under `base.idx` (e.g. per-shard paths) without
    /// allocating the composed path on the steady state.
    pub fn record_span_ns_indexed(&self, base: &str, idx: usize, ns: u64) {
        FRAMES.with(|f| {
            let mut f = f.borrow_mut();
            let f = &mut *f;
            f.scratch.clear();
            f.scratch.push_str(base);
            f.scratch.push('.');
            push_usize(&mut f.scratch, idx);
            record_into(&self.shared.spans, &f.scratch, ns);
        });
    }

    /// Record a non-timing sample (batch size, byte count, …) into the
    /// value histogram named `name`.
    pub fn record_value(&self, name: &str, v: u64) {
        record_into(&self.shared.values, name, v);
    }

    /// Pre-register (or look up) a counter handle by name.
    pub fn counter(&self, name: &str) -> Counter {
        let mut counters = self.shared.counters.lock().unwrap();
        if let Some(cell) = counters.get(name) {
            return Counter { cell: Arc::clone(cell) };
        }
        let cell = Arc::new(AtomicU64::new(0));
        counters.insert(name.into(), Arc::clone(&cell));
        Counter { cell }
    }

    /// One-shot counter increment by name (registers on first use).
    pub fn add(&self, name: &str, n: u64) {
        self.counter(name).add(n);
    }

    /// Set a gauge to an instantaneous value.
    pub fn set_gauge(&self, name: &str, v: f64) {
        let mut gauges = self.shared.gauges.lock().unwrap();
        if let Some(slot) = gauges.get_mut(name) {
            *slot = v;
        } else {
            gauges.insert(name.into(), v);
        }
    }

    /// Clone of the span histogram at `path`, if any samples were recorded.
    pub fn span_histogram(&self, path: &str) -> Option<Histogram> {
        self.shared.spans.lock().unwrap().get(path).cloned()
    }

    /// Fold another recorder's aggregates into this one: histograms merge
    /// bucket-wise (exact), counters add, gauges take the other's value.
    pub fn merge_from(&self, other: &Recorder) {
        if Arc::ptr_eq(&self.shared, &other.shared) {
            return;
        }
        for (map, other_map) in
            [(&self.shared.spans, &other.shared.spans), (&self.shared.values, &other.shared.values)]
        {
            let mut dst = map.lock().unwrap();
            for (path, hist) in other_map.lock().unwrap().iter() {
                if let Some(existing) = dst.get_mut(path.as_ref()) {
                    existing.merge(hist);
                } else {
                    dst.insert(path.clone(), hist.clone());
                }
            }
        }
        {
            let mut dst = self.shared.counters.lock().unwrap();
            for (name, cell) in other.shared.counters.lock().unwrap().iter() {
                let n = cell.load(Ordering::Relaxed);
                if let Some(existing) = dst.get(name.as_ref()) {
                    existing.fetch_add(n, Ordering::Relaxed);
                } else {
                    dst.insert(name.clone(), Arc::new(AtomicU64::new(n)));
                }
            }
        }
        let mut gauges = self.shared.gauges.lock().unwrap();
        for (name, v) in other.shared.gauges.lock().unwrap().iter() {
            gauges.insert(name.clone(), *v);
        }
    }

    /// Drop all span/value histograms and gauges and zero every counter
    /// (existing [`Counter`] handles stay registered and valid).
    pub fn reset(&self) {
        self.shared.spans.lock().unwrap().clear();
        self.shared.values.lock().unwrap().clear();
        self.shared.gauges.lock().unwrap().clear();
        for cell in self.shared.counters.lock().unwrap().values() {
            cell.store(0, Ordering::Relaxed);
        }
    }

    /// Point-in-time snapshot of every span, value, counter, and gauge, in
    /// deterministic (sorted-by-name) order.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let stats = |map: &Mutex<BTreeMap<Box<str>, Histogram>>| {
            map.lock()
                .unwrap()
                .iter()
                .filter(|(_, h)| !h.is_empty())
                .map(|(name, h)| HistStat::from_histogram(name, h))
                .collect::<Vec<_>>()
        };
        MetricsSnapshot {
            spans: stats(&self.shared.spans),
            values: stats(&self.shared.values),
            counters: self
                .shared
                .counters
                .lock()
                .unwrap()
                .iter()
                .map(|(name, cell)| (name.to_string(), cell.load(Ordering::Relaxed)))
                .collect(),
            gauges: self
                .shared
                .gauges
                .lock()
                .unwrap()
                .iter()
                .map(|(name, v)| (name.to_string(), *v))
                .collect(),
        }
    }
}

/// Record into a named histogram, allocating the owned key only on the
/// first occurrence of the name.
fn record_into(map: &Mutex<BTreeMap<Box<str>, Histogram>>, name: &str, v: u64) {
    let mut map = map.lock().unwrap();
    if let Some(h) = map.get_mut(name) {
        h.record(v);
    } else {
        let mut h = Histogram::new();
        h.record(v);
        map.insert(name.into(), h);
    }
}

/// Append a decimal integer without going through `format!` (and without
/// allocating — per-shard paths are composed on the ingest hot path).
fn push_usize(buf: &mut String, mut v: usize) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    for &d in &digits[i..] {
        buf.push(d as char);
    }
}

static GLOBAL: OnceLock<Recorder> = OnceLock::new();

/// Process-global recorder. Low-level crates (blocking, store) record here;
/// services clone this handle by default so their aggregates include the
/// layers below them.
pub fn global() -> &'static Recorder {
    GLOBAL.get_or_init(Recorder::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_compose_dotted_paths() {
        let rec = Recorder::new();
        {
            let _outer = rec.span("resolve");
            {
                let _inner = rec.span("block");
                std::thread::yield_now();
            }
            {
                let _inner = rec.span("forward");
            }
        }
        let snap = rec.snapshot();
        assert!(snap.span("resolve").is_some());
        assert!(snap.span("resolve.block").is_some());
        assert!(snap.span("resolve.forward").is_some());
        assert_eq!(snap.span("resolve").unwrap().count, 1);
    }

    #[test]
    fn indexed_span_paths() {
        let rec = Recorder::new();
        rec.record_span_ns_indexed("shard.ingest.local", 12, 500);
        rec.record_span_ns_indexed("shard.ingest.local", 3, 700);
        let snap = rec.snapshot();
        assert_eq!(snap.span("shard.ingest.local.12").unwrap().sum, 500);
        assert_eq!(snap.span("shard.ingest.local.3").unwrap().sum, 700);
    }

    #[test]
    fn counters_and_gauges_round_trip() {
        let rec = Recorder::new();
        let c = rec.counter("serve.cache.hits");
        c.add(5);
        c.inc();
        rec.add("serve.cache.hits", 4);
        rec.set_gauge("arena.rows", 42.5);
        let snap = rec.snapshot();
        assert_eq!(snap.counter("serve.cache.hits"), Some(10));
        assert_eq!(snap.gauge("arena.rows"), Some(42.5));
    }

    #[test]
    fn merge_from_adds_counters_and_merges_histograms() {
        let a = Recorder::new();
        let b = Recorder::new();
        a.record_span_ns("x", 10);
        b.record_span_ns("x", 20);
        b.record_span_ns("y", 5);
        a.add("c", 1);
        b.add("c", 2);
        a.merge_from(&b);
        let snap = a.snapshot();
        assert_eq!(snap.span("x").unwrap().count, 2);
        assert_eq!(snap.span("x").unwrap().sum, 30);
        assert_eq!(snap.span("y").unwrap().count, 1);
        assert_eq!(snap.counter("c"), Some(3));
    }

    #[test]
    fn reset_clears_but_keeps_counter_handles() {
        let rec = Recorder::new();
        let c = rec.counter("n");
        c.add(7);
        rec.record_span_ns("x", 10);
        rec.reset();
        assert_eq!(c.get(), 0);
        c.add(2);
        let snap = rec.snapshot();
        assert!(snap.span("x").is_none());
        assert_eq!(snap.counter("n"), Some(2));
    }
}
