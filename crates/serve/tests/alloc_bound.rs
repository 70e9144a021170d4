//! Allocation-bound regression test of the data-oriented hot path.
//!
//! The point of the SoA arenas + batched forward is not just speed but
//! *allocation discipline*: a steady-state record query must not allocate
//! O(candidates × intents × depth) gather matrices the way a per-candidate
//! kernel does. A counting global allocator (test binary only — the
//! library crates stay `forbid(unsafe_code)`) measures allocations per
//! query and pins three absolute ceilings: a warm all-hit query over
//! every record, the same over the q-gram blocker's candidates, and a
//! never-seen title per missed candidate.

use flexer_block::BlockerState;
use flexer_core::{FlexErConfig, FlexErModel, InParallelModel, PipelineContext};
use flexer_datasets::AmazonMiConfig;
use flexer_serve::{ResolutionService, ServeConfig};
use flexer_store::{IndexKind, ModelSnapshot};
use flexer_types::{CandidateGenConfig, NGramBlockerConfig, ResolveQuery, Scale};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// System allocator with a global allocation counter.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    f();
    ALLOCS.load(Ordering::Relaxed) - before
}

#[test]
fn record_query_allocations_stay_under_warm_and_per_miss_ceilings() {
    let bench = AmazonMiConfig::at_scale(Scale::Tiny).with_seed(23).generate();
    let config = FlexErConfig::fast();
    let ctx = PipelineContext::new(bench, &config.matcher).unwrap();
    let base = InParallelModel::fit(&ctx, &config.matcher).unwrap();
    let model = FlexErModel::fit_from_embeddings(&ctx, &base.embeddings(), &config).unwrap();
    let snapshot = model.to_snapshot(&ctx, &base, &config, IndexKind::Flat).unwrap();

    // The q-gram blocker over the same corpus: a warm query's blocking
    // stage runs on thread-local scratch (the gram buffers and the dense
    // shared-gram counts) and allocates only the candidate list.
    let ngram = CandidateGenConfig::NGram(NGramBlockerConfig::default());
    let blocker = BlockerState::build(&ngram, snapshot.records.iter().map(String::as_str));
    let blocked = ModelSnapshot { blocker, ..snapshot.clone() };
    let blocked = ResolutionService::new(blocked, ServeConfig::default()).unwrap();
    let blocked_query = ResolveQuery::record(blocked.record_title(0));
    let blocked_allocs = flexer_par::with_threads(1, || {
        blocked.resolve_all_intents(&blocked_query, 10).unwrap();
        allocs_during(|| {
            blocked.resolve_all_intents(&blocked_query, 10).unwrap();
        })
    });
    // Two resolves of one title: half the count is one query's candidates.
    let blocked_candidates =
        blocked.obs_snapshot().counter("serve.resolve.candidates").unwrap() / 2;

    // Exhaustive candidates: every query is a corpus-sized batch, so any
    // per-candidate allocation shows even on the tiny corpus.
    let snapshot = ModelSnapshot { blocker: BlockerState::Exhaustive, ..snapshot };
    let svc = ResolutionService::new(snapshot, ServeConfig::default()).unwrap();

    // Single-threaded, warmed up: the second identical query is the
    // steady state — embeddings and neighbour lists cached (the tiny
    // corpus stays under the flood guard), thread-local scratch grown to
    // size.
    let query = ResolveQuery::record(svc.record_title(0));
    let warm_allocs = flexer_par::with_threads(1, || {
        svc.resolve_all_intents(&query, 10).unwrap();
        allocs_during(|| {
            svc.resolve_all_intents(&query, 10).unwrap();
        })
    });
    // A never-seen title against the same candidates: every pair misses
    // the cache, so this resolve pays for featurizing and embedding each
    // one on top of the work above.
    let cold_query = ResolveQuery::record(format!("{} (2nd listing)", svc.record_title(1)));
    let cold_allocs = flexer_par::with_threads(1, || {
        allocs_during(|| {
            svc.resolve_all_intents(&cold_query, 10).unwrap();
        })
    });
    let allocs_per_miss = cold_allocs / svc.n_records() as u64;

    eprintln!(
        "allocations/query: warm {warm_allocs}; warm q-gram blocked {blocked_allocs} \
         ({blocked_candidates} candidates); all-miss query: {allocs_per_miss} per missed candidate"
    );
    // Warm ceiling: a warmed query is an all-hit batch — every candidate's
    // embedding, neighbour lists *and* memoized scores come out of the
    // cache as shared `Arc`s, so nothing is allocated per candidate beyond
    // its ranked match: no ANN result lists (the old 633 were mostly
    // those), nothing per (candidate × intent × depth), and no forward.
    // Measured 18 (ranking's one key buffer is the 18th); a per-candidate
    // kernel takes ~30k. Revisit deliberately if the hot path changes.
    assert!(warm_allocs < 100, "steady-state query allocated {warm_allocs} times (budget 100)");
    // Blocked warm ceiling: the same all-hit query over the q-gram
    // blocker's 44 candidates. Blocking adds nothing to the warm count: its
    // gram buffers and shared-gram counts are thread-local scratch, and
    // its one list is the candidate list the exhaustive query builds too.
    // Measured 18.
    assert!(blocked_candidates >= 20, "the blocked query must rank a real candidate set");
    assert!(
        blocked_allocs <= 21,
        "warm q-gram blocked query allocated {blocked_allocs} times (budget 21)"
    );
    // Cold-path ceiling. A missed candidate owns its embedding and its
    // neighbour lists — its memo shares their block — and nothing else:
    // its left side is read out of the service's side store (no token
    // strings, no token `Vec` — the 9 that came off the 20 measured
    // before), the pair featurizer works in
    // buffers shared by the batch, and a group of 16 searches shares its
    // pivot-bound and list-order buffers. Measured 11; the string-set
    // featurizer took 104.
    assert!(
        allocs_per_miss <= 11,
        "all-miss query allocated {allocs_per_miss} times per missed candidate (budget 11)"
    );
}
