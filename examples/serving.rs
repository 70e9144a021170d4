//! Serving quickstart: train FlexER once, snapshot it to a `.flexer`
//! file, load it into a [`ResolutionService`], and answer intent queries
//! online — ingest → resolve → snapshot → reload → identical answers.
//!
//! ```sh
//! cargo run --release --example serving
//! ```

use flexer::prelude::*;

fn main() {
    // 1. Train the batch pipeline on a tiny benchmark (the offline phase).
    let bench = AmazonMiConfig::at_scale(Scale::Tiny).with_seed(7).generate();
    let config = FlexErConfig::fast().with_seed(7);
    let ctx = PipelineContext::new(bench, &config.matcher).expect("valid benchmark");
    println!("training FlexER on {} pairs...", ctx.benchmark.n_pairs());
    let base = InParallelModel::fit(&ctx, &config.matcher).expect("base fit");
    let model =
        FlexErModel::fit_from_embeddings(&ctx, &base.embeddings(), &config).expect("flexer fit");

    // 2. Export everything serving needs into one snapshot file.
    let snapshot = model.to_snapshot(&ctx, &base, &config, IndexKind::Flat).expect("export");
    let path = std::env::temp_dir().join("flexer_serving_example.flexer");
    snapshot.save(&path).expect("save snapshot");
    let on_disk = std::fs::metadata(&path).expect("stat").len();
    println!("snapshot: {} ({on_disk} bytes)", path.display());

    // 3. A fresh service loads the snapshot — no retraining — and serves
    //    stored pairs exactly as the batch model predicted them.
    let mut svc = ResolutionService::load(&path, ServeConfig::default()).expect("load service");
    println!(
        "service up: {} records, {} pairs, {} intents",
        svc.n_records(),
        svc.n_pairs(),
        svc.n_intents()
    );
    let pair0 = svc.resolve_all_intents(&ResolveQuery::CorpusPair(0), 1).expect("resolve");
    let (a, b) = svc.pair_records(0);
    println!("\npair 0 = ({}, {}):", svc.record_title(a), svc.record_title(b));
    for response in &pair0 {
        let top = response.top().expect("one candidate");
        println!(
            "  {:<22} score {:.3} -> {}",
            ctx.benchmark.intents[response.intent].name,
            top.score,
            if top.matched { "match" } else { "no match" }
        );
        assert_eq!(top.matched, model.predictions.get(0, response.intent), "exact reproduction");
    }

    // 4. Ingest a new record: incremental ANN insert + frozen-weight
    //    inductive GNN scoring, no retraining.
    let new_title = svc.record_title(3).to_string() + " (2nd listing)";
    let report = svc.ingest(&new_title);
    println!(
        "\ningested record {} ({:?}): {} new candidate pairs",
        report.record, new_title, report.n_pairs
    );

    // 5. Query-driven resolution: which records match it, per intent?
    let eq = ctx.equivalence_id().expect("AmazonMI declares Eq.");
    let ranked = svc.resolve(&ResolveQuery::record(new_title.clone()), eq, 5).expect("resolve");
    println!("top candidates under {}:", ctx.benchmark.intents[eq].name);
    for m in &ranked.matches {
        if let MatchTarget::Record(r) = m.target {
            println!(
                "  {:.3} {} {}",
                m.score,
                if m.matched { "✓" } else { " " },
                svc.record_title(r)
            );
        }
    }

    // 6. Smoke-check the persistence loop: snapshot → reload → identical
    //    answers (and identical bytes).
    let path2 = std::env::temp_dir().join("flexer_serving_example_2.flexer");
    svc.save(&path2).expect("re-save");
    assert_eq!(
        std::fs::read(&path).expect("read 1"),
        std::fs::read(&path2).expect("read 2"),
        "snapshot -> load -> snapshot must be byte-identical"
    );
    let svc2 = ResolutionService::load(&path2, ServeConfig::default()).expect("reload");
    for pair in 0..svc2.n_pairs() {
        let responses = svc2.resolve_all_intents(&ResolveQuery::CorpusPair(pair), 1).expect("ok");
        for r in responses {
            let top = r.top().expect("one candidate");
            assert_eq!(top.matched, model.predictions.get(pair, r.intent));
            assert_eq!(top.score, model.trained[r.intent].scores[pair], "bit-exact scores");
        }
    }
    println!(
        "reload check: {} pairs × {} intents reproduced exactly",
        svc2.n_pairs(),
        svc2.n_intents()
    );

    let metrics = svc.obs_snapshot();
    let resolve = metrics.span("resolve").expect("resolves ran");
    assert!(resolve.p50 > 0, "nanosecond histogram: p50 is non-zero once queries ran");
    let counter = |name| metrics.counter(name).unwrap_or(0);
    println!(
        "\nmetrics: {} resolves, {} ingest(s), p50 {:.3}µs / p99 {:.3}µs, cache {}h/{}m",
        resolve.count,
        counter("serve.ingest.records"),
        resolve.p50 as f64 / 1e3,
        resolve.p99 as f64 / 1e3,
        counter("serve.cache.hits"),
        counter("serve.cache.misses")
    );
    println!("\nserving OK: batch predictions reproduced, ingest + query-time resolution live.");
}
