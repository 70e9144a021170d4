//! Serving throughput harness for the data-oriented record-resolution hot
//! path: trains FlexER over a large record corpus, snapshots it, then
//! loads **two** services from the same snapshot — the default batched
//! SoA kernel and the per-candidate reference kernel
//! ([`ServeConfig::reference_scoring`]) — and measures all three serving
//! paths: transductive corpus-pair lookups, inductive record resolution
//! (cold and cache-warm, on both kernels, with a counting allocator) and
//! online ingest.
//!
//! ```text
//! cargo run --release --bin serve -- [--records N] [--seed N] [--json]
//! ```
//!
//! Default corpus is 10k records, resolved exhaustively so every record
//! query scores a corpus-sized candidate batch — the workload the SoA
//! arenas + batched inductive forward exist for.
//!
//! **Bars.** Both kernels must return bit-identical responses, warm p99
//! must stay within 100× of p50, a warm batched query must allocate
//! ≤ 1/10 of what the reference kernel does (the data-orientation
//! criterion — no per-(candidate × intent × depth) churn), and warm
//! batched throughput must be ≥ 2× the reference kernel from 1k records
//! up. The throughput ratio *understates* the win over the pre-refactor
//! implementation: the reference kernel here already shares this tier's
//! Arc'd embedding cache, hashed cache keys, blocked ANN scans and
//! zero-copy arena gathers, and differs only in its per-candidate
//! P·(1+k)-row forwards, its gather allocations and its uncached
//! per-candidate ANN localization (the batched path's warm queries take
//! their neighbour lists from the cache beside the embeddings; the
//! reference kernel stays the uncached oracle).
//!
//! Two observability bars ride along (see `flexer-obs`): the four
//! `resolve.*` stage spans must cover 90–105% of the warm window's
//! end-to-end resolve time as summed by the latency histogram, and a
//! span guard on a *disabled* recorder must be cheap enough that a
//! pessimistic per-query touch count stays under 5% of the warm p50.

use flexer_bench::json::{write_bench_json, JsonObject};
use flexer_core::{FlexErConfig, FlexErModel, InParallelModel, PipelineContext};
use flexer_datasets::catalog::{Catalog, CatalogConfig, RecordCountDist};
use flexer_datasets::intents::IntentDef;
use flexer_datasets::mixture::{assemble_benchmark, component, sample_candidate_pairs, PairClass};
use flexer_datasets::perturb::NoiseConfig;
use flexer_datasets::taxonomy::{amazonmi_spec, Taxonomy, TaxonomyConfig};
use flexer_serve::{ResolutionService, ServeConfig};
use flexer_store::IndexKind;
use flexer_types::{ResolveQuery, Scale};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Training candidate pairs sampled over the corpus (kept modest: the
/// experiment measures *serving*, not batch training).
const TRAIN_PAIRS: usize = 360;
/// Distinct record queries in the cold pass (embedding-cache misses).
const COLD_QUERIES: usize = 8;
/// Warm repeats of one record query on the batched kernel — the
/// steady-state scoring measurement and the p50/p99 sample window.
const WARM_REPEATS: usize = 16;
/// Warm repeats on the reference kernel (each one re-runs a per-candidate
/// forward over the whole corpus; a few samples suffice).
const REF_WARM_REPEATS: usize = 3;
/// The span paths a record resolve decomposes into (see
/// `flexer-serve::service`); their sums must cover ~all of the end-to-end
/// resolve time the latency histogram measures over the same window.
const RESOLVE_STAGES: [&str; 4] =
    ["resolve.block", "resolve.embed", "resolve.forward", "resolve.rank"];
/// Upper bound on recorder touches per record resolve (4 span guards plus
/// a handful of counter adds), used by the disabled-path overhead gate.
const OBS_OPS_PER_QUERY: f64 = 16.0;

/// System allocator with a global allocation counter, so the harness can
/// report allocations per record query on both kernels.
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

fn main() {
    let (n_records, seed, json) = parse_args();
    eprintln!("[serve] corpus of {n_records} records, seed {seed}");

    // --- Offline phase: catalogue, benchmark, training, snapshot (the
    // part a production deployment amortizes across every query).
    let mut rng = StdRng::seed_from_u64(seed);
    let taxonomy = Taxonomy::from_spec(&amazonmi_spec(), TaxonomyConfig::at_scale(Scale::Small));
    let catalog = Catalog::generate(
        taxonomy,
        &CatalogConfig {
            n_records,
            record_counts: RecordCountDist([0.35, 0.35, 0.2, 0.1]),
            noise: NoiseConfig::default(),
        },
        &mut rng,
    );
    let sampled = sample_candidate_pairs(
        &catalog,
        &[
            component(PairClass::Duplicate, 0.25),
            component(PairClass::SameFamilyDiffProduct(None), 0.45),
            component(PairClass::DiffMain(None), 0.3),
        ],
        TRAIN_PAIRS,
        &mut rng,
    );
    let bench = assemble_benchmark(
        "serve-corpus",
        &catalog,
        &[
            (IntentDef::Equivalence, "Eq."),
            (IntentDef::SameBrand, "Brand"),
            (IntentDef::SameMainCategory, "Main-Cat."),
        ],
        sampled.candidates,
        seed,
    );
    // Fast training dims (the corpus, not the model, is the scale axis),
    // but the paper-default intra-layer fan-in k = 6 rather than the test
    // preset's k = 4: serving cost is dominated by the neighbour fan-in,
    // so benching at the production k keeps the numbers representative.
    let config = FlexErConfig::fast().with_seed(seed).with_k(6);
    let ctx = PipelineContext::new(bench, &config.matcher).expect("valid benchmark");
    eprintln!("[serve] training on {} pairs...", ctx.benchmark.n_pairs());
    let t0 = Instant::now();
    let base = InParallelModel::fit(&ctx, &config.matcher).expect("base fit");
    let model =
        FlexErModel::fit_from_embeddings(&ctx, &base.embeddings(), &config).expect("flexer fit");
    let train_secs = t0.elapsed().as_secs_f64();
    let snapshot = model.to_snapshot(&ctx, &base, &config, IndexKind::Flat).expect("export");
    let bytes = snapshot.to_bytes();
    println!("trained in {train_secs:.1}s; snapshot = {} bytes", bytes.len());

    // Exhaustive candidates make every record query a corpus-sized batch —
    // the workload the batched kernel exists for. The cache must hold one
    // query's embeddings (and clear the > capacity/2 flood guard), so it
    // scales with the corpus.
    let serve_config = ServeConfig {
        exhaustive: true,
        cache_capacity: (4 * n_records).max(1024),
        ..ServeConfig::default()
    };
    let t0 = Instant::now();
    let mut svc = ResolutionService::new(snapshot.clone(), serve_config).expect("load service");
    let load_secs = t0.elapsed().as_secs_f64();
    let reference =
        ResolutionService::new(snapshot, ServeConfig { reference_scoring: true, ..serve_config })
            .expect("load reference service");
    println!("service warm-loaded in {load_secs:.2}s ({} pairs)", svc.n_pairs());

    // --- Path 1: transductive corpus-pair lookups (the hot exact path).
    let n_pairs = svc.n_pairs();
    let corpus_queries: Vec<ResolveQuery> =
        (0..4096).map(|i| ResolveQuery::CorpusPair(i % n_pairs)).collect();
    let t0 = Instant::now();
    let results = svc.resolve_batch(&corpus_queries, 0, 1);
    let secs = t0.elapsed().as_secs_f64();
    assert!(results.iter().all(|r| r.is_ok()));
    let corpus_qps = corpus_queries.len() as f64 / secs;
    println!("corpus-pair resolve : {corpus_qps:>10.0} qps");

    // --- Path 2: inductive record resolution. Distinct corpus titles,
    // resolved serially (each query already fans its candidate batch out
    // across the thread budget). The first title doubles as the warm
    // query: its embeddings are cached by the cold pass, so the warm loop
    // right after measures the scoring kernel alone — the apples-to-apples
    // comparison between the batched SoA path and the per-candidate
    // reference kernel, on identical cache states.
    let n_cold = COLD_QUERIES.min(n_records);
    let queries: Vec<ResolveQuery> = (0..n_cold)
        .map(|i| ResolveQuery::record(svc.record_title(i * (n_records / n_cold))))
        .collect();

    let warm = &queries[0];
    svc.resolve_all_intents(warm, 10).expect("warm-up");
    // Scope the per-stage span accounting to exactly the warm window: the
    // recorder is process-global, so reset it and diff the latency
    // histogram's running sum around the measured loop.
    let rec = flexer_obs::global();
    let obs_on = rec.is_enabled();
    rec.reset();
    let m_warm0 = svc.metrics();
    let mut latencies_us = Vec::with_capacity(WARM_REPEATS);
    let t0 = Instant::now();
    let warm_allocs = allocs_during(|| {
        for _ in 0..WARM_REPEATS {
            let q0 = Instant::now();
            svc.resolve_all_intents(warm, 10).expect("warm resolve");
            latencies_us.push(q0.elapsed().as_secs_f64() * 1e6);
        }
    });
    let record_qps = WARM_REPEATS as f64 / t0.elapsed().as_secs_f64();
    let allocs_per_query = warm_allocs / WARM_REPEATS as u64;

    // Per-stage breakdown of the warm window. The four resolve.* spans
    // are timed inside the same end-to-end window the latency histogram
    // sums, so they must account for ~all of it — the bar that keeps the
    // instrumentation honest (a stage that silently stops recording shows
    // up as lost coverage, not as a quietly shrinking number).
    let m_warm1 = svc.metrics();
    let resolve_sum_ns = m_warm1.latency_sum_ns - m_warm0.latency_sum_ns;
    let stage_snap = svc.obs_snapshot();
    let stage_ns: Vec<(&str, u64)> = RESOLVE_STAGES
        .iter()
        .map(|&stage| (stage, stage_snap.span(stage).map_or(0, |s| s.sum)))
        .collect();
    let stage_sum_ns: u64 = stage_ns.iter().map(|(_, ns)| ns).sum();
    let stage_coverage = stage_sum_ns as f64 / resolve_sum_ns.max(1) as f64;
    if obs_on {
        for (stage, ns) in &stage_ns {
            assert!(*ns > 0, "stage span {stage} recorded nothing over the warm window");
        }
        assert!(
            (0.9..=1.05).contains(&stage_coverage),
            "resolve stage spans cover {:.1}% of end-to-end resolve time (need 90-105%)",
            100.0 * stage_coverage
        );
    }

    reference.resolve_all_intents(warm, 10).expect("reference warm-up");
    let t0 = Instant::now();
    let ref_allocs = allocs_during(|| {
        for _ in 0..REF_WARM_REPEATS {
            reference.resolve_all_intents(warm, 10).expect("reference warm resolve");
        }
    });
    let record_reference_qps = REF_WARM_REPEATS as f64 / t0.elapsed().as_secs_f64();
    let allocs_per_query_reference = ref_allocs / REF_WARM_REPEATS as u64;
    let record_speedup = record_qps / record_reference_qps;

    println!(
        "record resolve      : {record_qps:>10.2} qps warm (corpus of {} candidates/query)",
        svc.n_records()
    );
    println!("  reference kernel  : {record_reference_qps:>10.2} qps warm");
    println!("  speedup           : {record_speedup:>10.1}× (batched vs per-candidate)");
    println!(
        "  allocations/query : {allocs_per_query:>10} batched, {allocs_per_query_reference} reference"
    );

    // Cold pass over the remaining distinct titles, on both kernels, with
    // a bit-identity check — the differential contract, enforced at bench
    // scale too.
    let t0 = Instant::now();
    let cold: Vec<_> =
        queries.iter().map(|q| svc.resolve_all_intents(q, 10).expect("cold resolve")).collect();
    let record_cold_qps = queries.len() as f64 / t0.elapsed().as_secs_f64();
    let cold_ref: Vec<_> = queries
        .iter()
        .map(|q| reference.resolve_all_intents(q, 10).expect("cold reference resolve"))
        .collect();
    assert_eq!(cold, cold_ref, "batched and reference kernels must agree bit-for-bit");
    println!("  cold (embed+score): {record_cold_qps:>10.2} qps, bit-identical across kernels");

    // Warm-path latency distribution: the data-oriented path must not
    // trade throughput for tail spikes.
    latencies_us.sort_by(|a, b| a.total_cmp(b));
    let p50 = latencies_us[latencies_us.len() / 2];
    let p99 = latencies_us[(latencies_us.len() * 99 / 100).min(latencies_us.len() - 1)];
    println!("  warm latency      : p50 {p50:.0}µs, p99 {p99:.0}µs over {WARM_REPEATS} samples");
    assert!(p99 <= 100.0 * p50, "warm record-resolve p99 ({p99:.0}µs) over 100× p50 ({p50:.0}µs)");

    print!("  stage breakdown   :");
    for (stage, ns) in &stage_ns {
        let short = stage.rsplit('.').next().unwrap_or(stage);
        print!(" {short} {:.1}%", 100.0 * *ns as f64 / resolve_sum_ns.max(1) as f64);
    }
    println!(" (coverage {:.1}%)", 100.0 * stage_coverage);

    // Disabled-path overhead gate: a span guard on a disabled recorder is
    // one branch + one relaxed load, so even a pessimistic count of
    // recorder touches per query must stay under 5% of the warm p50.
    // `black_box` keeps the optimizer from deleting the loop outright.
    let disabled = flexer_obs::Recorder::disabled();
    let t0 = Instant::now();
    for _ in 0..1_000_000u32 {
        let _g = std::hint::black_box(&disabled).span("bench.noop");
    }
    let noop_span_ns = t0.elapsed().as_nanos() as f64 / 1e6;
    let overhead_frac = OBS_OPS_PER_QUERY * noop_span_ns / (p50 * 1e3);
    println!(
        "  obs off-path cost : {noop_span_ns:.2} ns/span, {:.4}% of a warm resolve",
        100.0 * overhead_frac
    );
    assert!(
        overhead_frac < 0.05,
        "disabled-recorder spans cost {:.2}% of a warm record resolve (need < 5%)",
        100.0 * overhead_frac
    );

    // Runtime-toggle comparison on the very same service — reported, not
    // asserted ({WARM_REPEATS} samples is scheduler-jitter territory).
    rec.set_enabled(false);
    let t0 = Instant::now();
    for _ in 0..WARM_REPEATS {
        svc.resolve_all_intents(warm, 10).expect("warm resolve, obs off");
    }
    let record_qps_obs_off = WARM_REPEATS as f64 / t0.elapsed().as_secs_f64();
    rec.set_enabled(obs_on);
    println!("  obs-off warm qps  : {record_qps_obs_off:>10.2} (recorded: {record_qps:.2})");

    // --- Path 3: online ingest (exhaustive candidates, batched scoring).
    let t0 = Instant::now();
    for i in 0..4 {
        svc.ingest(&format!("ingested widget number {i} deluxe"));
    }
    let ingest_secs = t0.elapsed().as_secs_f64() / 4.0;
    println!("ingest              : {:>10.2} records/sec", 1.0 / ingest_secs);

    let metrics = svc.metrics();
    println!(
        "latency (all paths) : p50 {:.3}µs, p99 {:.3}µs over {} samples",
        metrics.p50_latency_us, metrics.p99_latency_us, metrics.latency_samples
    );
    assert!(
        metrics.p50_latency_us > 0.0,
        "p50 must be non-zero whenever queries ran (nanosecond-granular window)"
    );
    println!("embedding cache     : {} hits / {} misses", metrics.cache_hits, metrics.cache_misses);

    enforce_bars(n_records, record_speedup, allocs_per_query, allocs_per_query_reference);

    if json {
        let doc = JsonObject::new()
            .str("bench", "serve")
            .int("seed", seed)
            .int("n_records", svc.n_records() as u64)
            .int("n_pairs", n_pairs as u64)
            .int("n_train_pairs", svc.n_train_pairs() as u64)
            .int("snapshot_bytes", bytes.len() as u64)
            .num("train_secs", train_secs)
            .num("load_secs", load_secs)
            .num("corpus_pair_qps", corpus_qps)
            .num("record_qps", record_qps)
            .num("record_reference_qps", record_reference_qps)
            .num("record_speedup", record_speedup)
            .num("record_cold_qps", record_cold_qps)
            .int("allocs_per_query", allocs_per_query)
            .int("allocs_per_query_reference", allocs_per_query_reference)
            .int("warm_repeats", WARM_REPEATS as u64)
            .num("record_p50_us", p50)
            .num("record_p99_us", p99)
            .num("ingest_per_sec", 1.0 / ingest_secs)
            .num("p50_latency_us", metrics.p50_latency_us)
            .num("p99_latency_us", metrics.p99_latency_us)
            .int("cache_hits", metrics.cache_hits)
            .int("cache_misses", metrics.cache_misses)
            .num("cache_hit_rate", metrics.cache_hit_rate)
            .int("flood_rejections", metrics.flood_rejections)
            .bool("obs_enabled", obs_on)
            .raw("stages", {
                let mut obj = JsonObject::new();
                for (stage, ns) in &stage_ns {
                    obj = obj.int(stage, *ns);
                }
                obj.render()
            })
            .int("resolve_sum_ns", resolve_sum_ns)
            .int("stage_sum_ns", stage_sum_ns)
            .num("stage_coverage", stage_coverage)
            .num("noop_span_ns", noop_span_ns)
            .num("record_qps_obs_off", record_qps_obs_off)
            .render();
        let path = write_bench_json("serve", &doc).expect("write BENCH_serve.json");
        eprintln!("[serve] wrote {}", path.display());
    }
}

/// The acceptance bars (see the module doc for why the throughput bar
/// sits below the allocation bar): ≥ 10× fewer allocations per warm query
/// at any scale, and ≥ 2× the reference kernel's warm throughput from 1k
/// records up.
fn enforce_bars(n_records: usize, speedup: f64, allocs: u64, allocs_reference: u64) {
    assert!(
        allocs * 10 <= allocs_reference,
        "batched record resolve allocates {allocs}/query vs {allocs_reference} reference \
         (need >= 10x fewer)"
    );
    if n_records >= 1_000 {
        assert!(
            speedup >= 2.0,
            "batched record resolve at {n_records} records is only {speedup:.1}x the reference \
             kernel (need >= 2x)"
        );
    }
}

fn parse_args() -> (usize, u64, bool) {
    let mut n_records = 10_000usize;
    let mut seed = 17u64;
    let mut json = false;
    let mut no_packed = false;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--records" => {
                i += 1;
                n_records = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--records expects an integer"));
            }
            "--seed" => {
                i += 1;
                seed = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--seed expects an integer"));
            }
            "--json" => json = true,
            // Pre-packing hot-path emulation (naive GEMM) — for generating
            // a "before" report that `compare` can gate a kernel change
            // against.
            "--no-packed-kernels" => no_packed = true,
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown argument {other}")),
        }
        i += 1;
    }
    if no_packed {
        flexer_nn::kernels::set_packed_kernels(false);
    }
    (n_records, seed, json)
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!("usage: serve [--records N] [--seed N] [--json] [--no-packed-kernels]");
    std::process::exit(2)
}
