//! The recorder's steady state allocates nothing, asserted with a counting
//! global allocator in the style of `flexer-serve`'s
//! `alloc_bound.rs` (test binary only; the library stays
//! `forbid(unsafe_code)`).
//!
//! The allocation counter is per thread: the libtest harness's own threads
//! allocate while a test runs (a process-global counter read 4 spurious
//! allocations in roughly one run of ten), and only the measuring thread's
//! allocations are the recorder's.

use flexer_obs::Recorder;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// No destructor and a `const` initializer: touching it never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.get();
    f();
    ALLOCS.get() - before
}

#[test]
fn recording_paths_respect_allocation_bounds() {
    // After the first occurrence of each span path (which allocates the
    // owned histogram key), the recording path reuses thread-local scratch
    // and is allocation-free.
    let rec = Recorder::new();
    let counter = rec.counter("serve.forward.rows");
    // Warm: first occurrence allocates the path key + histogram buckets,
    // and the thread-local stack/scratch grow to size.
    for _ in 0..3 {
        let _outer = rec.span("resolve");
        let _inner = rec.span("forward");
        counter.add(64);
    }
    let n = allocs_during(|| {
        for _ in 0..10_000 {
            let _outer = rec.span("resolve");
            let _inner = rec.span("forward");
            counter.add(64);
        }
    });
    assert_eq!(n, 0, "steady-state span recording allocated {n} times over 10k iterations");
}
