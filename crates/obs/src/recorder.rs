//! Span and metrics recorder.
//!
//! A [`Recorder`] aggregates nanosecond span timings by hierarchical path
//! (`resolve.block`, `graph.fit.forward`, …) into mergeable
//! [`Histogram`]s, alongside monotonic counters, gauges, and value
//! histograms. Span nesting is tracked per thread: a guard opened while
//! another guard is live records under the joined dotted path. Worker
//! threads spawned by `flexer-par` do **not** inherit the caller's span
//! stack — instrumentation inside parallel closures should record explicit
//! dotted paths ([`Recorder::record_span_ns`]) instead of relying on
//! nesting.
//!
//! Steady-state recording is allocation-free: path composition reuses a
//! thread-local scratch string and histogram lookup borrows it as `&str`;
//! the owned key is allocated only the first time a path is seen. A hot
//! path that records under one fixed path registers a [`Timer`] for it
//! once, and then pays neither the composition nor the lookup: a sample
//! locks only its own histogram.

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

/// One span path's histogram, shared by the recorder's map and every
/// [`Timer`] registered for the path.
type SpanCell = Arc<Mutex<Histogram>>;

#[derive(Default)]
struct Shared {
    spans: Mutex<BTreeMap<Box<str>, SpanCell>>,
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

/// A span path registered ahead of time ([`Recorder::timer`]), for a hot
/// path that records under one fixed path: a sample locks only the path's
/// own histogram, with no path composed and none looked up. Cloning is
/// cheap; every clone records into the recorder's one histogram for the
/// path.
#[derive(Clone)]
pub struct Timer {
    path: &'static str,
    cell: SpanCell,
}

impl std::fmt::Debug for Timer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Timer").field(&self.path).finish()
    }
}

impl Timer {
    /// Record `ns` under the timer's path.
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        self.cell.lock().unwrap().record(ns);
    }

    /// Run `f` as one stage of an operation whose stages tile it: the
    /// stage runs from `*since` — where the previous stage ended — to
    /// `f`'s return, which becomes `*since`. One clock read per boundary,
    /// so nothing between two stages goes untimed (a span per stage reads
    /// the clock twice and leaves its own recording between them). Spans
    /// `f` opens nest under the timer's path, as under a
    /// [`Recorder::span`] guard of that path. The stage is the outermost
    /// span of its thread: opening it inside another is a bug (the two
    /// paths would disagree), caught in debug builds.
    #[inline]
    pub fn stage<R>(&self, since: &mut Instant, f: impl FnOnce() -> R) -> R {
        FRAMES.with(|f| {
            let mut f = f.borrow_mut();
            debug_assert!(f.stack.is_empty(), "stage {} opened inside {:?}", self.path, f.stack);
            f.stack.push(self.path);
        });
        let _frame = PopFrame;
        let out = f();
        let now = Instant::now();
        self.record_ns(now.duration_since(*since).as_nanos() as u64);
        *since = now;
        out
    }
}

/// Pops a [`Timer::stage`]'s frame, also when the stage unwinds.
struct PopFrame;

impl Drop for PopFrame {
    fn drop(&mut self) {
        FRAMES.with(|f| f.borrow_mut().stack.pop());
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
        let spans = self.shared.spans.lock().unwrap();
        match spans.get(path) {
            Some(cell) => cell.lock().unwrap().record(ns),
            None => {
                drop(spans);
                self.timer_cell(path).lock().unwrap().record(ns);
            }
        }
    }

    /// Register (or look up) a [`Timer`] for the span path `path`.
    pub fn timer(&self, path: &'static str) -> Timer {
        Timer { path, cell: self.timer_cell(path) }
    }

    /// The histogram of span path `path`, made empty if it has none yet.
    fn timer_cell(&self, path: &str) -> SpanCell {
        let mut spans = self.shared.spans.lock().unwrap();
        Arc::clone(spans.entry(path.into()).or_default())
    }

    /// Record the time since `*since` under the flat path `path` (as
    /// [`Self::record_span_ns`]) and restart `*since` from now, so
    /// consecutive laps tile a loop body into its stages.
    pub fn lap(&self, path: &str, since: &mut Instant) {
        let now = Instant::now();
        self.record_span_ns(path, now.duration_since(*since).as_nanos() as u64);
        *since = now;
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
        let spans = self.shared.spans.lock().unwrap();
        let hist = spans.get(path)?.lock().unwrap().clone();
        (!hist.is_empty()).then_some(hist)
    }

    /// Fold another recorder's aggregates into this one: histograms merge
    /// bucket-wise (exact), counters add, gauges take the other's value.
    pub fn merge_from(&self, other: &Recorder) {
        if Arc::ptr_eq(&self.shared, &other.shared) {
            return;
        }
        {
            let mut dst = self.shared.spans.lock().unwrap();
            for (path, cell) in other.shared.spans.lock().unwrap().iter() {
                let hist = cell.lock().unwrap();
                dst.entry(path.clone()).or_default().lock().unwrap().merge(&hist);
            }
        }
        {
            let mut dst = self.shared.values.lock().unwrap();
            for (name, hist) in other.shared.values.lock().unwrap().iter() {
                if let Some(existing) = dst.get_mut(name.as_ref()) {
                    existing.merge(hist);
                } else {
                    dst.insert(name.clone(), hist.clone());
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
    /// (existing [`Counter`] and [`Timer`] handles stay registered and
    /// valid; a timer's histogram is emptied in place).
    pub fn reset(&self) {
        for cell in self.shared.spans.lock().unwrap().values() {
            *cell.lock().unwrap() = Histogram::new();
        }
        self.shared.values.lock().unwrap().clear();
        self.shared.gauges.lock().unwrap().clear();
        for cell in self.shared.counters.lock().unwrap().values() {
            cell.store(0, Ordering::Relaxed);
        }
    }

    /// Point-in-time snapshot of every span, value, counter, and gauge, in
    /// deterministic (sorted-by-name) order.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let stat =
            |name: &str, h: &Histogram| (!h.is_empty()).then(|| HistStat::from_histogram(name, h));
        MetricsSnapshot {
            spans: (self.shared.spans.lock().unwrap().iter())
                .filter_map(|(path, cell)| stat(path, &cell.lock().unwrap()))
                .collect(),
            values: (self.shared.values.lock().unwrap().iter())
                .filter_map(|(name, h)| stat(name, h))
                .collect(),
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

    /// A timer records where a by-name record of its path does — one
    /// histogram — spans opened inside its stage nest under its path, and
    /// it outlives a reset and merges like any span.
    #[test]
    fn timers_record_under_their_path() {
        let rec = Recorder::new();
        let timer = rec.timer("resolve.embed");
        timer.stage(&mut Instant::now(), || drop(rec.span("featurize")));
        timer.record_ns(30);
        rec.record_span_ns("resolve.embed", 10);
        assert_eq!(rec.timer("resolve.embed").cell.lock().unwrap().count(), 3);
        let snap = rec.snapshot();
        assert_eq!(snap.span("resolve.embed").unwrap().count, 3);
        assert_eq!(snap.span("resolve.embed.featurize").unwrap().count, 1);

        rec.reset();
        assert!(rec.snapshot().span("resolve.embed").is_none());
        assert!(rec.span_histogram("resolve.embed").is_none());
        timer.record_ns(5);
        let other = Recorder::new();
        other.merge_from(&rec);
        let merged = other.snapshot();
        assert_eq!(
            (
                merged.span("resolve.embed").unwrap().count,
                merged.span("resolve.embed").unwrap().sum
            ),
            (1, 5)
        );
    }

    /// Stages tile: each runs from where the last ended, spans inside one
    /// nest under its path, and the frame is gone after it.
    #[test]
    fn stages_tile_from_one_start() {
        let rec = Recorder::new();
        let (first, second) = (rec.timer("op.first"), rec.timer("op.second"));
        let start = Instant::now();
        let mut since = start;
        let got = first.stage(&mut since, || {
            let _inner = rec.span("inner");
            std::thread::sleep(std::time::Duration::from_millis(1));
            7
        });
        second.stage(&mut since, || ());
        assert_eq!(got, 7);
        let snap = rec.snapshot();
        let sum = |path| snap.span(path).unwrap().sum;
        assert_eq!(sum("op.first") + sum("op.second"), (since - start).as_nanos() as u64);
        assert!(sum("op.first") >= 1_000_000);
        assert_eq!(snap.span("op.first.inner").unwrap().count, 1);
        drop(rec.span("after"));
        assert_eq!(rec.snapshot().span("after").unwrap().count, 1, "the stage's frame popped");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "opened inside")]
    fn a_stage_inside_another_span_panics() {
        let rec = Recorder::new();
        let _outer = rec.span("ingest");
        rec.timer("resolve.block").stage(&mut Instant::now(), || ());
    }
}
