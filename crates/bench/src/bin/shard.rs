//! Shard-sweep harness for the sharded resolution tier: trains one model
//! over a large record corpus, then for each shard count loads a
//! [`ShardedResolutionService`] from the same snapshot and measures
//! batched ingest throughput, record-resolve QPS and — the number
//! sharding exists to shrink — the **shard-local candidate work** a
//! single shard performs per ingest.
//!
//! ```text
//! cargo run --release --bin shard -- [--records N] [--seed N] [--shards 1,2,4,8] [--json]
//! ```
//!
//! Every shard count serves bit-identical answers (the ingest reports are
//! asserted equal across the sweep); what changes is how the blocking-tier
//! work is partitioned. `partition_factor` = global candidates per ingest
//! ÷ the *largest* shard-local candidate set (the critical-path shard): at
//! the default 10k-record corpus it must be ≥ 2 for the ≥ 4-shard entries.
//!
//! Each sweep entry also reports per-shard ingest-*time* balance (max/mean
//! of the `shard.ingest.local.<s>` span sums — the measured counterpart of
//! the candidate-count partition factor) and the `resolve.*` stage
//! breakdown of its query loop, which must cover 90–105% of the
//! end-to-end resolve time (same bar as the serve harness).

use flexer_bench::json::{array, write_bench_json, JsonObject};
use flexer_block::golden_pair_recall;
use flexer_core::{FlexErModel, InParallelModel, PipelineContext};
use flexer_datasets::catalog::{Catalog, CatalogConfig, RecordCountDist};
use flexer_datasets::intents::IntentDef;
use flexer_datasets::mixture::{assemble_benchmark, component, sample_candidate_pairs, PairClass};
use flexer_datasets::perturb::NoiseConfig;
use flexer_datasets::taxonomy::{amazonmi_spec, Taxonomy, TaxonomyConfig};
use flexer_datasets::{CandidateGenerator, NGramBlocker};
use flexer_serve::{ServeConfig, ShardedResolutionService};
use flexer_store::IndexKind;
use flexer_types::{ResolveQuery, Scale, ShardConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Training candidate pairs sampled over the corpus (modest: the sweep
/// measures the serving tier, not batch training).
const TRAIN_PAIRS: usize = 360;
/// Records ingested per shard count, in batches of [`BATCH`].
const INGESTS: usize = 48;
/// Batch size for `ingest_batch`.
const BATCH: usize = 12;
/// Record queries resolved per shard count.
const RECORD_QUERIES: usize = 24;
/// The span paths a record resolve decomposes into; the sharded front-end
/// times its fan-out/merge under the same `resolve.block` path as the
/// unsharded blocker, so the breakdown is comparable across deployments.
const RESOLVE_STAGES: [&str; 4] =
    ["resolve.block", "resolve.embed", "resolve.forward", "resolve.rank"];

fn main() {
    let args = parse_args();
    eprintln!(
        "[shard] corpus of {} records, seed {}, sweep {:?}",
        args.n_records, args.seed, args.shards
    );

    // --- Offline phase: catalogue, blocked benchmark, training, snapshot.
    let mut rng = StdRng::seed_from_u64(args.seed);
    let taxonomy = Taxonomy::from_spec(&amazonmi_spec(), TaxonomyConfig::at_scale(Scale::Small));
    let catalog = Catalog::generate(
        taxonomy,
        &CatalogConfig {
            n_records: args.n_records,
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
        "shard-corpus",
        &catalog,
        &[
            (IntentDef::Equivalence, "Eq."),
            (IntentDef::SameBrand, "Brand"),
            (IntentDef::SameMainCategory, "Main-Cat."),
        ],
        sampled.candidates,
        args.seed,
    );
    let config = flexer_core::FlexErConfig::fast().with_seed(args.seed);
    let ctx = PipelineContext::new(bench, &config.matcher).expect("valid benchmark");
    eprintln!("[shard] training on {} pairs...", ctx.benchmark.n_pairs());
    let t0 = Instant::now();
    let base = InParallelModel::fit(&ctx, &config.matcher).expect("base fit");
    let model =
        FlexErModel::fit_from_embeddings(&ctx, &base.embeddings(), &config).expect("flexer fit");
    let snapshot = model.to_snapshot(&ctx, &base, &config, IndexKind::Flat).expect("export");
    eprintln!("[shard] trained + snapshotted in {:.1}s", t0.elapsed().as_secs_f64());

    // Corpus-level blocking accounting, including golden-pair recall
    // against the equivalence intent's entity map (ROADMAP's recall
    // instrumentation: bucket caps and shard layouts are judged by the
    // golden signal they keep, measured, not guessed).
    let block_outcome = NGramBlocker::default()
        .generate(&catalog.dataset)
        .with_golden_recall(&ctx.benchmark.entity_maps[0]);
    let report = block_outcome.report;
    let (recalled, total) =
        golden_pair_recall(&block_outcome.candidates, &ctx.benchmark.entity_maps[0]);
    assert_eq!((recalled, total), (report.golden_recalled, report.golden_total));
    println!(
        "corpus blocking     : {} candidates ({:.3}% of all pairs), golden recall {}",
        report.candidates,
        100.0 * report.retention(args.n_records),
        report
            .golden_recall()
            .map(|r| format!("{:.3} ({}/{})", r, report.golden_recalled, report.golden_total))
            .unwrap_or_else(|| "n/a".into()),
    );

    // Ingest titles: noisy second listings of existing products, so the
    // blocker has genuine candidates to find.
    let titles: Vec<String> = (0..INGESTS)
        .map(|i| {
            let r = rng.gen_range(0..args.n_records);
            format!("{} listing {i}", catalog.dataset[r].title())
        })
        .collect();
    let title_refs: Vec<&str> = titles.iter().map(|s| s.as_str()).collect();

    // --- The sweep.
    let mut rows: Vec<SweepRow> = Vec::new();
    let mut reference_reports: Option<Vec<flexer_serve::IngestReport>> = None;
    for &n_shards in &args.shards {
        let mut svc = ShardedResolutionService::new(
            snapshot.clone(),
            ServeConfig::default(),
            ShardConfig::of(n_shards),
        )
        .expect("load sharded service");

        // Shard-local candidate work per ingest, measured against the
        // pre-ingest corpus: the largest shard is the critical path a
        // shard server would actually execute.
        let mut global_candidates = 0usize;
        let mut max_local = 0usize;
        for t in &title_refs {
            let locals = svc.local_candidate_counts(t).unwrap_or_default();
            global_candidates += locals.iter().sum::<usize>();
            max_local += locals.iter().copied().max().unwrap_or(0);
        }

        // Batched ingest throughput, with the recorder reset so the
        // shard.ingest.local.<s> spans cover exactly this sweep entry's
        // ingests (the recorder is process-global across the sweep).
        let rec = flexer_obs::global();
        let obs_on = rec.is_enabled();
        rec.reset();
        let t0 = Instant::now();
        let mut reports = Vec::with_capacity(INGESTS);
        for batch in title_refs.chunks(BATCH) {
            reports.extend(svc.ingest_batch(batch));
        }
        let ingest_secs = t0.elapsed().as_secs_f64();
        let ingest_per_sec = INGESTS as f64 / ingest_secs;

        // Per-shard ingest-time balance: each shard's blocking-tier insert
        // work is timed under its own span, so max/mean of the per-shard
        // time sums is the wall-clock imbalance a shard-per-server
        // deployment would see on its critical path.
        let ingest_snap = svc.obs_snapshot();
        let shard_ingest_ns: Vec<u64> = (0..n_shards)
            .map(|s| ingest_snap.span(&format!("shard.ingest.local.{s}")).map_or(0, |st| st.sum))
            .collect();
        let mean_ns = shard_ingest_ns.iter().sum::<u64>() as f64 / n_shards as f64;
        let max_ns = shard_ingest_ns.iter().copied().max().unwrap_or(0) as f64;
        let ingest_imbalance = if mean_ns > 0.0 { max_ns / mean_ns } else { 1.0 };
        if obs_on {
            assert!(
                shard_ingest_ns.iter().all(|&ns| ns > 0),
                "every shard must record local ingest time, got {shard_ingest_ns:?}"
            );
        }

        // Bit-identity across the sweep: every shard count must produce
        // the same reports (records, pair ids, candidate counts).
        match &reference_reports {
            None => reference_reports = Some(reports.clone()),
            Some(reference) => assert_eq!(
                &reports, reference,
                "{n_shards} shards diverged from the {} -shard reports",
                args.shards[0]
            ),
        }

        // Record-resolve throughput over the grown corpus, with the
        // resolve.* stage spans diffed against the latency histogram's
        // running sum over the same window (same coverage bar as the
        // serve harness, here per shard count).
        let queries: Vec<ResolveQuery> = (0..RECORD_QUERIES)
            .map(|i| ResolveQuery::record(svc.record_title((i * 17) % args.n_records)))
            .collect();
        rec.reset();
        let m0 = svc.metrics();
        let t0 = Instant::now();
        let results = svc.resolve_batch(&queries, 0, 10);
        let record_qps = queries.len() as f64 / t0.elapsed().as_secs_f64();
        assert!(results.iter().all(|r| r.is_ok()));
        let m1 = svc.metrics();
        let resolve_sum_ns = m1.latency_sum_ns - m0.latency_sum_ns;
        let resolve_snap = svc.obs_snapshot();
        let stage_ns: Vec<(&str, u64)> = RESOLVE_STAGES
            .iter()
            .map(|&stage| (stage, resolve_snap.span(stage).map_or(0, |s| s.sum)))
            .collect();
        let stage_sum_ns: u64 = stage_ns.iter().map(|(_, ns)| ns).sum();
        let stage_coverage = stage_sum_ns as f64 / resolve_sum_ns.max(1) as f64;
        if obs_on {
            assert!(
                (0.9..=1.05).contains(&stage_coverage),
                "{n_shards} shards: resolve stage spans cover {:.1}% of end-to-end resolve \
                 time (need 90-105%)",
                100.0 * stage_coverage
            );
        }

        let candidates_per_record = global_candidates as f64 / INGESTS as f64;
        let max_local_per_record = max_local as f64 / INGESTS as f64;
        let partition_factor = if max_local > 0 {
            global_candidates as f64 / max_local as f64
        } else {
            n_shards as f64
        };
        println!(
            "{n_shards:>2} shards           : {ingest_per_sec:>8.1} ingests/s, \
             {record_qps:>8.2} record qps, {candidates_per_record:>6.1} candidates/record \
             ({max_local_per_record:.1} on the largest shard, {partition_factor:.2}x partition)",
        );
        println!(
            "                      ingest balance {ingest_imbalance:.2}x max/mean, \
             resolve stages cover {:.1}% of {:.2} ms",
            100.0 * stage_coverage,
            resolve_sum_ns as f64 / 1e6
        );
        rows.push(SweepRow {
            n_shards,
            ingest_per_sec,
            record_qps,
            candidates_per_record,
            max_local_per_record,
            partition_factor,
            shard_sizes: svc.shard_sizes(),
            shard_ingest_ns,
            ingest_imbalance,
            stage_ns,
            resolve_sum_ns,
            stage_coverage,
        });
    }

    // Acceptance bar: at the default 10k-record corpus, the ≥ 4-shard
    // layouts must cut the critical-path candidate work at least in half
    // vs the single-shard blocker.
    if args.n_records >= 10_000 {
        for row in rows.iter().filter(|r| r.n_shards >= 4) {
            assert!(
                row.partition_factor >= 2.0,
                "{} shards reduce per-ingest comparisons only {:.2}x (need >= 2x)",
                row.n_shards,
                row.partition_factor
            );
        }
    }

    if args.json {
        let sweep = array(rows.iter().map(|r| {
            JsonObject::new()
                .int("shards", r.n_shards as u64)
                .num("ingest_per_sec", r.ingest_per_sec)
                .num("record_qps", r.record_qps)
                .num("candidates_per_record", r.candidates_per_record)
                .num("max_local_candidates_per_record", r.max_local_per_record)
                .num("partition_factor", r.partition_factor)
                .raw("shard_sizes", array(r.shard_sizes.iter().map(|s| s.to_string())))
                .raw("shard_ingest_ns", array(r.shard_ingest_ns.iter().map(|ns| ns.to_string())))
                .num("ingest_imbalance", r.ingest_imbalance)
                .raw("stages", {
                    let mut obj = JsonObject::new();
                    for (stage, ns) in &r.stage_ns {
                        obj = obj.int(stage, *ns);
                    }
                    obj.render()
                })
                .int("resolve_sum_ns", r.resolve_sum_ns)
                .num("stage_coverage", r.stage_coverage)
                .render()
        }));
        let doc = JsonObject::new()
            .str("bench", "shard")
            .int("seed", args.seed)
            .int("n_records", args.n_records as u64)
            .int("n_train_pairs", ctx.benchmark.n_pairs() as u64)
            .str("blocker", "ngram")
            .int("ingests", INGESTS as u64)
            .int("batch", BATCH as u64)
            .int("corpus_candidates", report.candidates as u64)
            .num("corpus_retention", report.retention(args.n_records))
            .int("golden_total", report.golden_total as u64)
            .int("golden_recalled", report.golden_recalled as u64)
            .num("golden_recall", report.golden_recall().unwrap_or(f64::NAN))
            .raw("sweep", sweep)
            .render();
        let path = write_bench_json("shard", &doc).expect("write BENCH_shard.json");
        eprintln!("[shard] wrote {}", path.display());
    }
}

struct SweepRow {
    n_shards: usize,
    ingest_per_sec: f64,
    record_qps: f64,
    candidates_per_record: f64,
    max_local_per_record: f64,
    partition_factor: f64,
    shard_sizes: Vec<usize>,
    /// Summed blocking-tier ingest time each shard spent, from the
    /// `shard.ingest.local.<s>` spans.
    shard_ingest_ns: Vec<u64>,
    /// max/mean of `shard_ingest_ns` — 1.0 is a perfectly balanced layout.
    ingest_imbalance: f64,
    /// `(span path, summed ns)` for each resolve stage over the query loop.
    stage_ns: Vec<(&'static str, u64)>,
    /// End-to-end resolve time of the same loop per the latency histogram.
    resolve_sum_ns: u64,
    /// `stage_ns` total ÷ `resolve_sum_ns`.
    stage_coverage: f64,
}

struct Args {
    n_records: usize,
    seed: u64,
    shards: Vec<usize>,
    json: bool,
}

fn parse_args() -> Args {
    let mut out = Args { n_records: 10_000, seed: 17, shards: vec![1, 2, 4, 8], json: false };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--records" => {
                i += 1;
                out.n_records = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--records expects an integer"));
            }
            "--seed" => {
                i += 1;
                out.seed = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--seed expects an integer"));
            }
            "--shards" => {
                i += 1;
                out.shards = args
                    .get(i)
                    .map(|s| s.split(',').filter_map(|x| x.parse().ok()).collect())
                    .filter(|v: &Vec<usize>| !v.is_empty() && v.iter().all(|&n| n >= 1))
                    .unwrap_or_else(|| usage("--shards expects a comma-separated list"));
            }
            "--json" => out.json = true,
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown argument {other}")),
        }
        i += 1;
    }
    out
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!("usage: shard [--records N] [--seed N] [--shards 1,2,4,8] [--json]");
    std::process::exit(2)
}
