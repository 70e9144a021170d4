//! Ingest-throughput harness for the candidate-generation tier: trains a
//! small model over a **large record corpus**, loads two services from the
//! same snapshot — one blocked (the snapshot's q-gram blocker), one with
//! the explicit exhaustive fallback — and measures online `ingest()`
//! throughput on both, plus candidates-per-record, the blocking
//! suppression report and its golden-pair recall.
//!
//! ```text
//! cargo run --release --bin ingest -- [--records N] [--seed N] [--json]
//! ```
//!
//! Default corpus is 10k records: at that size an exhaustive ingest embeds
//! and GNN-scores 10k pairs, while a blocked ingest touches only the
//! records sharing an uncapped 4-gram with the new title.
//!
//! **Small-scale guard.** Blocking must never *lose* to the exhaustive
//! fallback once a corpus has a few hundred records — per-query constants
//! (allocation churn in the gram index, cache-eviction scans) used to eat
//! the savings at n = 300. The harness asserts `speedup ≥ 1` for every
//! measured corpus of ≥ 300 records, and when run at a larger scale it
//! *additionally* re-measures a 300-record corpus so the regression is
//! visible in one `BENCH_ingest.json`.
//!
//! The blocked loop also reports its `ingest.block` / `ingest.score` /
//! `ingest.merge` stage breakdown from the `flexer-obs` spans, so the
//! JSON shows *where* an ingest regression lives, not just that one
//! happened.

use flexer_bench::json::{write_bench_json, JsonObject};
use flexer_core::{FlexErModel, InParallelModel, PipelineContext};
use flexer_datasets::catalog::{Catalog, CatalogConfig, RecordCountDist};
use flexer_datasets::intents::IntentDef;
use flexer_datasets::mixture::{assemble_benchmark, component, sample_candidate_pairs, PairClass};
use flexer_datasets::perturb::NoiseConfig;
use flexer_datasets::taxonomy::{amazonmi_spec, Taxonomy, TaxonomyConfig};
use flexer_datasets::{CandidateGenerator, NGramBlocker};
use flexer_serve::{ResolutionService, ServeConfig};
use flexer_store::IndexKind;
use flexer_types::{BlockingReport, Scale};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Training candidate pairs sampled over the corpus (kept modest: the
/// experiment measures *online ingest*, not batch training).
const TRAIN_PAIRS: usize = 360;
/// Ingests measured on the blocked service.
const BLOCKED_INGESTS: usize = 48;
/// Ingests measured on the exhaustive service (each one is O(records)).
/// Small corpora get the full blocked budget: there each exhaustive ingest
/// is cheap, and the ≥ 1× small-scale guard compares throughputs that are
/// within a few percent of each other — 3 samples of ~25 ms would hand the
/// verdict to scheduler jitter.
fn exhaustive_ingests(n_records: usize) -> usize {
    if n_records <= 1_000 {
        BLOCKED_INGESTS
    } else {
        3
    }
}
/// Corpus size of the small-scale regression guard.
const GUARD_RECORDS: usize = 300;
/// The span paths an online ingest decomposes into: candidate generation,
/// the parallel pre-batch scoring phase and the serial merge.
const INGEST_STAGES: [&str; 3] = ["ingest.block", "ingest.score", "ingest.merge"];

/// One full measurement at a given corpus size.
struct Measurement {
    n_records: usize,
    n_train_pairs: usize,
    blocker_kind: &'static str,
    blocked_per_sec: f64,
    exhaustive_per_sec: f64,
    speedup: f64,
    candidates_per_record: f64,
    suppressed_per_record: f64,
    report: BlockingReport,
    /// `(span path, summed ns)` per ingest stage over the blocked loop.
    stage_ns: Vec<(&'static str, u64)>,
    /// Stage total ÷ the blocked loop's wall time.
    stage_coverage: f64,
}

fn measure(n_records: usize, seed: u64) -> Measurement {
    // --- Offline phase: catalogue, blocked benchmark, training, snapshot.
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
        "ingest-corpus",
        &catalog,
        &[
            (IntentDef::Equivalence, "Eq."),
            (IntentDef::SameBrand, "Brand"),
            (IntentDef::SameMainCategory, "Main-Cat."),
        ],
        sampled.candidates,
        seed,
    );
    let config = flexer_core::FlexErConfig::fast().with_seed(seed);
    let ctx = PipelineContext::new(bench, &config.matcher).expect("valid benchmark");
    eprintln!("[ingest] n={n_records}: training on {} pairs...", ctx.benchmark.n_pairs());
    let t0 = Instant::now();
    let base = InParallelModel::fit(&ctx, &config.matcher).expect("base fit");
    let model =
        FlexErModel::fit_from_embeddings(&ctx, &base.embeddings(), &config).expect("flexer fit");
    let snapshot = model.to_snapshot(&ctx, &base, &config, IndexKind::Flat).expect("export");
    eprintln!(
        "[ingest] n={n_records}: trained + snapshotted in {:.1}s",
        t0.elapsed().as_secs_f64()
    );

    // The corpus-level suppression report of the same blocker the service
    // runs, with golden-pair recall against the equivalence intent.
    let block_outcome = NGramBlocker::default()
        .generate(&catalog.dataset)
        .with_golden_recall(&ctx.benchmark.entity_maps[0]);
    let report = block_outcome.report;

    let mut blocked =
        ResolutionService::new(snapshot.clone(), ServeConfig::default()).expect("load blocked");
    let mut exhaustive =
        ResolutionService::new(snapshot, ServeConfig::exhaustive()).expect("load exhaustive");

    // Ingest titles: noisy second listings of existing products, so the
    // blocker has genuine candidates to find.
    let titles: Vec<String> = (0..BLOCKED_INGESTS)
        .map(|i| {
            let r = rng.gen_range(0..n_records);
            format!("{} listing {i}", catalog.dataset[r].title())
        })
        .collect();

    // --- Blocked ingest throughput, with the recorder reset so the
    // ingest.* stage spans cover exactly this loop (the recorder is
    // process-global; the guard re-measurement resets it again).
    let rec = flexer_obs::global();
    let obs_on = rec.is_enabled();
    rec.reset();
    let t0 = Instant::now();
    let mut blocked_pairs = 0usize;
    let mut blocked_suppressed = 0usize;
    for title in &titles {
        let r = blocked.ingest(title);
        blocked_pairs += r.n_pairs;
        blocked_suppressed += r.n_suppressed;
    }
    let blocked_secs = t0.elapsed().as_secs_f64();
    let blocked_per_sec = titles.len() as f64 / blocked_secs;

    // Per-stage breakdown of the blocked loop: block / score / merge must
    // each have been recorded once per ingest.
    let snap = blocked.obs_snapshot();
    let stage_ns: Vec<(&'static str, u64)> =
        INGEST_STAGES.iter().map(|&stage| (stage, snap.span(stage).map_or(0, |s| s.sum))).collect();
    let stage_sum_ns: u64 = stage_ns.iter().map(|(_, ns)| ns).sum();
    let stage_coverage = stage_sum_ns as f64 / (blocked_secs * 1e9);
    if obs_on {
        for stage in INGEST_STAGES {
            let stat = snap.span(stage).unwrap_or_else(|| panic!("span {stage} missing"));
            assert_eq!(stat.count, titles.len() as u64, "span {stage} must record once per ingest");
        }
    }

    // --- Exhaustive ingest throughput (the all-pairs fallback).
    let n_exhaustive = exhaustive_ingests(n_records);
    let t0 = Instant::now();
    for title in titles.iter().take(n_exhaustive) {
        exhaustive.ingest(title);
    }
    let exhaustive_secs = t0.elapsed().as_secs_f64();
    let exhaustive_per_sec = n_exhaustive as f64 / exhaustive_secs;

    Measurement {
        n_records,
        n_train_pairs: blocked.n_train_pairs(),
        blocker_kind: blocked.blocker_kind(),
        blocked_per_sec,
        exhaustive_per_sec,
        speedup: blocked_per_sec / exhaustive_per_sec,
        candidates_per_record: blocked_pairs as f64 / titles.len() as f64,
        suppressed_per_record: blocked_suppressed as f64 / titles.len() as f64,
        report,
        stage_ns,
        stage_coverage,
    }
}

fn print_measurement(m: &Measurement) {
    println!(
        "corpus blocking     : {} candidates ({:.3}% of all pairs), {} stop-grams skipped, \
         {} comparisons suppressed, golden recall {}",
        m.report.candidates,
        100.0 * m.report.retention(m.n_records),
        m.report.grams_skipped,
        m.report.comparisons_suppressed,
        m.report.golden_recall().map(|r| format!("{r:.3}")).unwrap_or_else(|| "n/a".into()),
    );
    println!(
        "blocked ingest      : {:>10.1} records/sec ({:.1} candidates/record, \
         {:.1} suppressed/record)",
        m.blocked_per_sec, m.candidates_per_record, m.suppressed_per_record
    );
    println!("exhaustive ingest   : {:>10.2} records/sec", m.exhaustive_per_sec);
    println!("speedup             : {:>10.1}× (blocked vs exhaustive)", m.speedup);
    print!("ingest stages       :");
    let total: u64 = m.stage_ns.iter().map(|(_, ns)| ns).sum();
    for (stage, ns) in &m.stage_ns {
        let short = stage.rsplit('.').next().unwrap_or(stage);
        print!(" {short} {:.1}%", 100.0 * *ns as f64 / total.max(1) as f64);
    }
    println!(" (covers {:.1}% of the blocked loop)", 100.0 * m.stage_coverage);
}

/// The acceptance bars. At the default 10k-record corpus blocked ingest
/// must sustain ≥ 10× the exhaustive baseline; at *any* measured corpus of
/// ≥ 300 records it must at least break even — blocking that loses to
/// brute force is a regression, not a trade-off.
fn enforce_bars(m: &Measurement) {
    if m.n_records >= 10_000 {
        assert!(
            m.speedup >= 10.0,
            "blocked ingest at {} records is only {:.1}x exhaustive (need >= 10x)",
            m.n_records,
            m.speedup
        );
    }
    if m.n_records >= GUARD_RECORDS {
        assert!(
            m.speedup >= 1.0,
            "blocked ingest at {} records is {:.2}x exhaustive — slower than brute force",
            m.n_records,
            m.speedup
        );
    }
}

fn main() {
    let (n_records, seed, json) = parse_args();
    eprintln!("[ingest] corpus of {n_records} records, seed {seed}");
    let main_run = measure(n_records, seed);
    print_measurement(&main_run);
    enforce_bars(&main_run);

    // Small-scale guard: re-measure at 300 records unless that *is* the
    // requested scale, so the JSON carries both ends.
    let guard_run = (n_records != GUARD_RECORDS).then(|| {
        let m = measure(GUARD_RECORDS, seed);
        println!(
            "small-scale guard   : {:>10.2}× blocked vs exhaustive at n={}",
            m.speedup, GUARD_RECORDS
        );
        enforce_bars(&m);
        m
    });

    if json {
        let mut doc = JsonObject::new()
            .str("bench", "ingest")
            .int("seed", seed)
            .int("n_records", main_run.n_records as u64)
            .int("n_train_pairs", main_run.n_train_pairs as u64)
            .str("blocker", main_run.blocker_kind)
            .num("blocked_ingest_per_sec", main_run.blocked_per_sec)
            .num("exhaustive_ingest_per_sec", main_run.exhaustive_per_sec)
            .num("speedup", main_run.speedup)
            .num("candidates_per_record", main_run.candidates_per_record)
            .num("suppressed_per_record", main_run.suppressed_per_record)
            .int("blocked_ingests", BLOCKED_INGESTS as u64)
            .int("exhaustive_ingests", exhaustive_ingests(main_run.n_records) as u64)
            .int("corpus_candidates", main_run.report.candidates as u64)
            .num("corpus_retention", main_run.report.retention(main_run.n_records))
            .int("grams_indexed", main_run.report.grams_indexed as u64)
            .int("grams_skipped", main_run.report.grams_skipped as u64)
            .int("comparisons_considered", main_run.report.comparisons_considered)
            .int("comparisons_suppressed", main_run.report.comparisons_suppressed)
            .int("golden_total", main_run.report.golden_total as u64)
            .int("golden_recalled", main_run.report.golden_recalled as u64)
            .num("golden_recall", main_run.report.golden_recall().unwrap_or(f64::NAN))
            .raw("stages", {
                let mut obj = JsonObject::new();
                for (stage, ns) in &main_run.stage_ns {
                    obj = obj.int(stage, *ns);
                }
                obj.render()
            })
            .num("stage_coverage", main_run.stage_coverage);
        if let Some(g) = &guard_run {
            doc = doc
                .int("guard_n_records", g.n_records as u64)
                .num("guard_blocked_ingest_per_sec", g.blocked_per_sec)
                .num("guard_exhaustive_ingest_per_sec", g.exhaustive_per_sec)
                .num("guard_speedup", g.speedup);
        }
        let path = write_bench_json("ingest", &doc.render()).expect("write BENCH_ingest.json");
        eprintln!("[ingest] wrote {}", path.display());
    }
}

fn parse_args() -> (usize, u64, bool) {
    let mut n_records = 10_000usize;
    let mut seed = 17u64;
    let mut json = false;
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
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown argument {other}")),
        }
        i += 1;
    }
    (n_records, seed, json)
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!("usage: ingest [--records N] [--seed N] [--json]");
    std::process::exit(2)
}
