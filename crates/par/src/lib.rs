//! # flexer-par
//!
//! The shared parallel execution layer of the FlexER workspace. FlexER's
//! compute is embarrassingly parallel at every level — *P* independent
//! GNNs over the same multiplex graph, independent rows of a matmul,
//! independent queries against a flat ANN index — and this crate is the one
//! place that turns that structure into threads.
//!
//! The design contract, relied on by `flexer-nn`, `flexer-ann`,
//! `flexer-graph` and `flexer-core`:
//!
//! * **Determinism.** Work items are split into contiguous blocks and every
//!   item is computed by exactly the same code as the serial path, in the
//!   same per-item floating-point order. Results are therefore bit-identical
//!   for any thread count, including 1.
//! * **Rayon-compatible configuration.** The thread budget honours
//!   `RAYON_NUM_THREADS` (and `FLEXER_NUM_THREADS`) so operators can pin the
//!   pool exactly as they would with rayon. This crate is the in-tree stand-in
//!   for a rayon dependency (the build environment is offline); its API is
//!   deliberately shaped so swapping the internals for `rayon::scope` is a
//!   one-file change.
//! * **Scoped borrows.** Everything runs on [`std::thread::scope`], so
//!   closures may borrow from the caller's stack — no `'static` bounds, no
//!   `Arc` plumbing.
//!
//! With a budget of one thread (`RAYON_NUM_THREADS=1`, or
//! `with_threads(1, …)`) every function here is a plain serial loop: the
//! run-time budget is the only serial switch there is.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::Cell;

thread_local! {
    /// Scoped override installed by [`with_threads`]; inherited by workers.
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Returns the maximum number of worker threads a parallel region may use:
/// the innermost [`with_threads`] override if one is active, otherwise
/// `RAYON_NUM_THREADS` / `FLEXER_NUM_THREADS` from the environment,
/// otherwise [`std::thread::available_parallelism`]. Always at least 1.
pub fn max_threads() -> usize {
    if let Some(n) = THREAD_OVERRIDE.with(Cell::get) {
        return n.max(1);
    }
    for var in ["RAYON_NUM_THREADS", "FLEXER_NUM_THREADS"] {
        if let Some(n) = std::env::var(var).ok().and_then(|v| v.parse::<usize>().ok()) {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs `f` with the thread budget pinned to `n` (≥ 1). The override is
/// scoped to the closure and inherited by any worker threads it spawns, so
/// `with_threads(1, …)` forces a fully serial execution — the lever the
/// determinism tests and the scaling benchmarks use.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    let _guard = OverrideGuard::install(Some(n.max(1)));
    f()
}

/// Restores the previous thread-budget override on drop, so an unwinding
/// closure cannot leave a stale budget pinned on the thread.
struct OverrideGuard {
    prev: Option<usize>,
}

impl OverrideGuard {
    fn install(value: Option<usize>) -> Self {
        Self { prev: THREAD_OVERRIDE.with(|cell| cell.replace(value)) }
    }
}

impl Drop for OverrideGuard {
    fn drop(&mut self) {
        let prev = self.prev;
        THREAD_OVERRIDE.with(|cell| cell.set(prev));
    }
}

/// The budget each worker of a region that used `threads` of `budget`
/// should pass down to nested regions: the remainder of the budget, split
/// evenly. Keeps total concurrency ≈ the configured budget instead of
/// multiplying it at every nesting level (rayon's global pool has the same
/// effect).
fn nested_budget(budget: usize, threads: usize) -> usize {
    (budget / threads).max(1)
}

/// Maps `f` over `0..n`, returning results in index order. Items are
/// partitioned into contiguous blocks, one per worker; each item sees
/// exactly the serial computation, so output is bit-identical to
/// `(0..n).map(f).collect()` for every thread count.
pub fn parallel_map<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    // One item has nothing to fan out, and asking for the budget (two
    // environment lookups and `available_parallelism`, ≈13 µs unpinned)
    // would cost more than a cheap item does.
    if n <= 1 {
        return (0..n).map(f).collect();
    }
    let budget = max_threads();
    let threads = budget.min(n).max(1);
    if threads <= 1 {
        return (0..n).map(f).collect();
    }
    let chunk = n.div_ceil(threads);
    let mut out: Vec<Option<R>> = Vec::new();
    out.resize_with(n, || None);
    let inner = nested_budget(budget, threads);
    std::thread::scope(|s| {
        for (b, block) in out.chunks_mut(chunk).enumerate() {
            let f = &f;
            s.spawn(move || {
                let _guard = OverrideGuard::install(Some(inner));
                let start = b * chunk;
                for (off, slot) in block.iter_mut().enumerate() {
                    *slot = Some(f(start + off));
                }
            });
        }
    });
    out.into_iter().map(|r| r.expect("every slot filled")).collect()
}

/// Maps `f` over the items of a slice, in order (index-parallel shorthand).
pub fn parallel_map_slice<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    parallel_map(items.len(), |i| f(&items[i]))
}

/// Splits `data` into rows of `row_len` elements and calls
/// `f(row_index, row)` for every row, fanning contiguous row-blocks out
/// across the thread budget. Rows must be independent; because each row is
/// produced by the same code as the serial loop, results are bit-identical
/// for any thread count. `data.len()` must be a multiple of `row_len`.
pub fn for_each_row_mut<T, F>(data: &mut [T], row_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(row_len > 0, "row length must be positive");
    assert_eq!(data.len() % row_len, 0, "data must be whole rows");
    let n_rows = data.len() / row_len;
    let budget = max_threads();
    let threads = budget.min(n_rows).max(1);
    if threads <= 1 {
        for (i, row) in data.chunks_mut(row_len).enumerate() {
            f(i, row);
        }
        return;
    }
    let rows_per_block = n_rows.div_ceil(threads);
    let inner = nested_budget(budget, threads);
    std::thread::scope(|s| {
        for (b, block) in data.chunks_mut(rows_per_block * row_len).enumerate() {
            let f = &f;
            s.spawn(move || {
                let _guard = OverrideGuard::install(Some(inner));
                let row0 = b * rows_per_block;
                for (j, row) in block.chunks_mut(row_len).enumerate() {
                    f(row0 + j, row);
                }
            });
        }
    });
}

/// Runs two closures, potentially on different threads, returning both
/// results.
pub fn join<RA, RB>(a: impl FnOnce() -> RA + Send, b: impl FnOnce() -> RB + Send) -> (RA, RB)
where
    RA: Send,
    RB: Send,
{
    let budget = max_threads();
    if budget <= 1 {
        return (a(), b());
    }
    let inner = nested_budget(budget, 2);
    std::thread::scope(|s| {
        let hb = s.spawn(move || {
            let _guard = OverrideGuard::install(Some(inner));
            b()
        });
        let ra = {
            // The caller-side closure gets its half of the budget too, so a
            // nested region under `a` cannot exceed the configured total.
            let _guard = OverrideGuard::install(Some(inner));
            a()
        };
        (ra, hb.join().expect("joined task panicked"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let out = parallel_map(100, |i| i * 3);
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_matches_serial_for_every_thread_count() {
        let serial: Vec<f64> = (0..57).map(|i| (i as f64).sin()).collect();
        for t in [1usize, 2, 3, 8, 64] {
            let par = with_threads(t, || parallel_map(57, |i| (i as f64).sin()));
            assert_eq!(par, serial, "thread count {t}");
        }
    }

    #[test]
    fn row_blocks_cover_everything_once() {
        let mut data = vec![0u32; 9 * 4];
        for t in [1usize, 2, 5, 16] {
            data.iter_mut().for_each(|v| *v = 0);
            with_threads(t, || {
                for_each_row_mut(&mut data, 4, |i, row| {
                    for (j, v) in row.iter_mut().enumerate() {
                        *v += (i * 4 + j) as u32 + 1;
                    }
                });
            });
            let want: Vec<u32> = (1..=36).collect();
            assert_eq!(data, want, "thread count {t}");
        }
    }

    #[test]
    fn with_threads_is_scoped_and_workers_split_the_budget() {
        assert!(max_threads() >= 1);
        with_threads(3, || {
            assert_eq!(max_threads(), 3);
            // Workers observe the budget divided across the region, so
            // nested regions cannot oversubscribe the configured total.
            let seen = parallel_map(3, |_| max_threads());
            for s in seen {
                assert_eq!(s, 1);
            }
        });
        with_threads(8, || {
            let seen = parallel_map(2, |_| max_threads());
            for s in seen {
                assert_eq!(s, 4);
            }
        });
    }

    #[test]
    fn override_restored_after_worker_panic() {
        let before = max_threads();
        let result = std::panic::catch_unwind(|| {
            with_threads(2, || {
                if max_threads() == 2 {
                    panic!("boom");
                }
            })
        });
        assert!(result.is_err());
        assert_eq!(max_threads(), before, "override must unwind with the scope");
    }

    #[test]
    fn join_returns_both_and_splits_the_budget() {
        let (a, b) = join(|| 1 + 1, || "x".to_string() + "y");
        assert_eq!(a, 2);
        assert_eq!(b, "xy");
        with_threads(8, || {
            let (ba, bb) = join(max_threads, max_threads);
            assert_eq!(ba, 4, "caller-side closure must not keep the full budget");
            assert_eq!(bb, 4);
        });
    }

    #[test]
    fn empty_and_single_item_maps() {
        assert!(parallel_map(0, |i| i).is_empty());
        assert_eq!(parallel_map(1, |i| i + 7), vec![7]);
        assert_eq!(parallel_map_slice(&[10, 20], |x| x + 1), vec![11, 21]);
    }
}
