//! Observability smoke: train a tiny model, serve it, and exercise every
//! instrumented path — snapshot save/load, record resolution, online
//! ingest — then assert that each expected span path, counter and gauge
//! actually recorded, that the four `resolve.*` stage spans account for
//! 90–105 % of the `resolve` span's time over a warm window, and dump both
//! export formats.
//!
//! ```sh
//! cargo run --release --example observability
//! ```
//!
//! CI runs this as the obs gate: if an instrumentation point is dropped
//! in a refactor, the presence asserts below fail rather than the span
//! silently vanishing, and a stage that stops being timed shows up as lost
//! coverage rather than as a quietly shrinking number.

use flexer::obs;
use flexer::prelude::*;

/// Every span path the serve → store → block pipeline must have recorded
/// after the workload below (ngram blocking is the `ServeConfig::default`
/// backend, so the blocking-tier spans are expected too). The service
/// records the `resolve.*` and `ingest.*` paths into its own recorder; the
/// store and the blocker record into the process-global one.
const EXPECTED_SPANS: [&str; 13] = [
    "resolve",
    "resolve.block",
    "resolve.embed",
    "resolve.embed.featurize",
    "resolve.embed.infer",
    "resolve.forward",
    "resolve.rank",
    "ingest.block",
    "ingest.score",
    "ingest.merge",
    "store.save",
    "store.load",
    "block.ngram.query",
];

/// The stages that tile a record resolve end to end.
const RESOLVE_STAGES: [&str; 4] =
    ["resolve.block", "resolve.embed", "resolve.forward", "resolve.rank"];

/// Warm resolves in the stage-coverage window.
const WARM_REPEATS: usize = 200;

fn main() {
    // 1. Offline phase: train on a tiny benchmark and snapshot it.
    let bench = AmazonMiConfig::at_scale(Scale::Tiny).with_seed(7).generate();
    let config = FlexErConfig::fast().with_seed(7);
    let ctx = PipelineContext::new(bench, &config.matcher).expect("valid benchmark");
    let base = InParallelModel::fit(&ctx, &config.matcher).expect("base fit");
    let model =
        FlexErModel::fit_from_embeddings(&ctx, &base.embeddings(), &config).expect("flexer fit");
    let snapshot = model.to_snapshot(&ctx, &base, &config, IndexKind::Flat).expect("export");

    // Scope the global recorder to the serving workload (training records
    // there too, but is not what this smoke asserts).
    obs::global().reset();

    // 2. The instrumented workload: save → load → resolve ×3 → ingest ×2 →
    //    resolve (its cached neighbour lists are now behind the indexes).
    let path = std::env::temp_dir().join("flexer_observability_example.flexer");
    snapshot.save(&path).expect("save snapshot");
    let mut svc = ResolutionService::load(&path, ServeConfig::default()).expect("load service");
    let query = ResolveQuery::record(svc.record_title(0).to_string());
    for _ in 0..3 {
        svc.resolve_all_intents(&query, 5).expect("resolve");
    }
    svc.ingest(&(svc.record_title(1).to_string() + " (2nd listing)"));
    svc.ingest(&(svc.record_title(2).to_string() + " (2nd listing)"));
    svc.resolve_all_intents(&query, 5).expect("resolve after ingest");

    // 3. Assert the full span inventory recorded, with real time in it.
    let snap = svc.obs_snapshot();
    for span in EXPECTED_SPANS {
        let stat = snap.span(span).unwrap_or_else(|| panic!("span {span} never recorded"));
        assert!(stat.count > 0 && stat.sum > 0, "span {span} is empty: {stat:?}");
    }
    assert_eq!(snap.span("resolve").map(|s| s.count), Some(4), "four resolves ran");
    assert_eq!(snap.counter("serve.ingest.records"), Some(2), "two records ingested");
    assert!(
        snap.counter("serve.resolve.candidates").unwrap_or(0) > 0,
        "candidate counter never incremented"
    );
    let rows = snap.counter("serve.forward.rows").unwrap_or(0);
    assert!(rows > 0, "forward-row counter never incremented");
    // The memo: the two repeats of the first resolve, and the candidates
    // of the last whose lists the ingests left as they were, answered from
    // their cache entries without a forward; `rows` counts only the rest.
    let memo_hits = snap.counter("serve.forward.memo_hits").unwrap_or(0);
    assert!(memo_hits > 0, "repeated candidates must answer from the memo");
    // The candidate memo: the two repeats of the first resolve took its
    // set without asking the blocker; the ingests emptied the memo, so the
    // last resolve asked again.
    let block_memo_hits = snap.counter("serve.block.memo_hits").unwrap_or(0);
    assert!(block_memo_hits > 0, "repeated titles must take their candidates from the memo");
    assert_eq!(block_memo_hits, 2, "an ingest must empty the candidate memo");
    // What the forward evaluated for those B·P new nodes per call. Every
    // call above scores all P intents through two-layer GNNs: the first
    // layer's concat once for all of them (B·P rows) and each GNN's
    // last layer on its own intent's B nodes; P first-layer GEMMs over
    // B·P rows and P last-layer GEMMs over B. (Every layer of every GNN
    // on every node would be 2·P times `rows`, both.)
    let p = svc.n_intents() as u64;
    let concat_rows = snap.counter("serve.forward.concat_rows").unwrap_or(0);
    let gemm_rows = snap.counter("serve.forward.gemm_rows").unwrap_or(0);
    println!(
        "forward: {rows} new nodes, {concat_rows} concat rows, {gemm_rows} GEMM rows, \
         {memo_hits} candidates from the memo"
    );
    assert_eq!(concat_rows, 2 * rows, "first concat shared, last layer on target rows");
    assert_eq!(gemm_rows, (p + 1) * rows, "last-layer GEMM on target rows");
    // The localization cache's hit and resume rates: first resolve and
    // ingests search from scratch, repeats reuse, the resolve after the
    // ingests resumes over the appended index tail.
    for counter in [
        "serve.localize.searched",
        "serve.localize.reused",
        "serve.localize.resumed",
        "serve.localize.tail_rows",
        "serve.localize.rows_scanned",
    ] {
        assert!(snap.counter(counter).unwrap_or(0) > 0, "{counter} never incremented");
    }
    // What the pruned search saves: distances evaluated (pivots
    // included) against a whole scan per searched list. The resumes'
    // few tail distances are in the numerator too, and the index grew
    // by the two ingests, so this reads a little high.
    let scanned = snap.counter("serve.localize.rows_scanned").unwrap_or(0) as f64;
    let searched = snap.counter("serve.localize.searched").unwrap_or(0) as f64;
    println!(
        "localize: {scanned} distances over {searched} searched lists x {} index rows = {:.3} of a whole scan",
        svc.n_pairs(),
        scanned / (searched * svc.n_pairs() as f64)
    );
    assert!(snap.gauge("serve.records").unwrap_or(0.0) > 0.0, "records gauge unset");
    // The per-record side store: what serving's one derived copy of
    // the corpus costs in memory.
    let side_bytes = snap.gauge("serve.sides.bytes").unwrap_or(0.0);
    assert!(side_bytes > 0.0, "side store gauge unset");
    println!(
        "side store: {side_bytes} bytes over {} records = {:.0} a record",
        svc.n_records(),
        side_bytes / svc.n_records() as f64
    );
    assert!(
        snap.counter("serve.cache.hits").unwrap_or(0) > 0
            && snap.gauge("serve.cache.hit_rate").unwrap_or(0.0) > 0.0,
        "repeated query must produce cache hits"
    );
    println!("span inventory OK: {} span paths, all non-zero", snap.spans.len());

    // 4. Stage coverage. The four `resolve.*` stages are timed inside the
    //    `resolve` span's window, so over a warm window (every sum diffed
    //    around it) they must account for nearly all of it.
    let sums = |snap: &obs::MetricsSnapshot| {
        let sum = |path| snap.span(path).map_or(0, |s| s.sum);
        (sum("resolve"), RESOLVE_STAGES.into_iter().map(sum).sum::<u64>())
    };
    let before = sums(&svc.obs_snapshot());
    for _ in 0..WARM_REPEATS {
        svc.resolve_all_intents(&query, 5).expect("warm resolve");
    }
    let after = sums(&svc.obs_snapshot());
    let (resolve_ns, stage_ns) = (after.0 - before.0, after.1 - before.1);
    let coverage = stage_ns as f64 / resolve_ns.max(1) as f64;
    println!(
        "stage coverage: resolve.* spans sum to {:.1}% of {WARM_REPEATS} warm resolves ({:.0} us each)",
        100.0 * coverage,
        resolve_ns as f64 / WARM_REPEATS as f64 / 1e3
    );
    assert!(
        (0.9..=1.05).contains(&coverage),
        "resolve stage spans cover {:.1}% of end-to-end resolve time (need 90-105%)",
        100.0 * coverage
    );

    // 5. Both export formats, as a service endpoint would emit them.
    println!("\nspans (sum ns / count → p50 ns):");
    for s in &snap.spans {
        println!("  {:<22} {:>12} / {:<4} -> p50 {}", s.name, s.sum, s.count, s.p50);
    }
    let json = snap.to_json();
    println!("\nto_json: {} bytes, starts {:?}...", json.len(), &json[..40.min(json.len())]);
    let prom = snap.to_prometheus();
    println!("to_prometheus ({} lines), e.g.:", prom.lines().count());
    for line in prom.lines().filter(|l| l.contains("resolve.forward")).take(4) {
        println!("  {line}");
    }

    println!("\nobservability OK: every instrumented stage recorded, exports render.");
}
