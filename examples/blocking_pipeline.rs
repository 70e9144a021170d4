//! The full three-phase ER pipeline of the paper's Figure 2 — blocking,
//! matching, merging — driven end to end on a generated catalogue, with the
//! 4-gram overlap blocker producing the candidate set (instead of the
//! calibrated sampler the benchmarks use).
//!
//! This is the "role of blocking in MIER" the paper leaves as future work:
//! here we block, label the surviving pairs from ground truth, train a
//! matcher per intent, and derive clean views.
//!
//! ```sh
//! cargo run --release --example blocking_pipeline
//! ```

use flexer::prelude::*;
use flexer_core::{clean_view, evaluate_on_split, InParallelModel, PipelineContext};
use flexer_datasets::catalog::{Catalog, CatalogConfig, RecordCountDist};
use flexer_datasets::intents::IntentDef;
use flexer_datasets::mixture::blocked_benchmark;
use flexer_datasets::perturb::NoiseConfig;
use flexer_datasets::taxonomy::{amazonmi_spec, Taxonomy, TaxonomyConfig};
use flexer_matcher::MatcherConfig;
use flexer_types::NGramBlockerConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // --- Phase 0: a product catalogue (the dirty dataset D). ---
    let taxonomy = Taxonomy::from_spec(&amazonmi_spec(), TaxonomyConfig::at_scale(Scale::Tiny));
    let catalog = Catalog::generate(
        taxonomy,
        &CatalogConfig {
            n_records: 160,
            record_counts: RecordCountDist([0.3, 0.4, 0.2, 0.1]),
            noise: NoiseConfig::default(),
        },
        &mut StdRng::seed_from_u64(11),
    );
    println!("catalogue: {} products, {} records", catalog.n_products(), catalog.n_records());

    // --- Phase 1: blocking (the 4-gram overlap blocker of §5.1), named by
    // a `CandidateGenConfig` — any backend (q-gram, ANN, exhaustive) plugs
    // in here. ---
    let blocker =
        CandidateGenConfig::NGram(NGramBlockerConfig { q: 4, min_shared: 2, max_bucket: 96 });
    println!("blocking with the `{}` backend...", blocker.name());

    // --- Label the blocked pairs for three intents and split. ---
    let (bench, report) = blocked_benchmark(
        "blocked-amazon",
        &catalog,
        &[
            (IntentDef::Equivalence, "Eq."),
            (IntentDef::SameBrand, "Brand"),
            (IntentDef::SameMainCategory, "Main-Cat."),
        ],
        &blocker,
        11,
    );
    let total_pairs = catalog.n_records() * (catalog.n_records() - 1) / 2;
    println!(
        "blocking: {} / {} pairs survive ({:.1}% reduction); {} stop-grams skipped, \
         {} comparisons suppressed",
        bench.n_pairs(),
        total_pairs,
        100.0 * (1.0 - report.retention(catalog.n_records())),
        report.grams_skipped,
        report.comparisons_suppressed,
    );

    // Blocking must not lose true duplicates (it prunes by shared grams,
    // and duplicates share plenty). Count survivors among golden pairs:
    let eq_map = IntentDef::Equivalence.entity_map(&catalog);
    let golden = Resolution::golden(&bench.candidates, &eq_map).unwrap();
    println!("true duplicate pairs inside the candidate set: {}", golden.len());
    println!(
        "labeled benchmark: {} pairs, %Pos per intent = {:?}",
        bench.n_pairs(),
        (0..3)
            .map(|p| format!("{:.1}%", 100.0 * bench.labels.positive_rate(p)))
            .collect::<Vec<_>>()
    );

    // --- Phase 2: matching (one matcher per intent). ---
    let config = MatcherConfig::fast();
    let ctx = PipelineContext::new(bench, &config).expect("valid benchmark");
    let model = InParallelModel::fit(&ctx, &config).expect("fit matchers");
    let report = evaluate_on_split(&ctx.benchmark, &model.predictions, Split::Test);
    println!("matching: MI-F = {:.3} over blocked candidates", report.mi_f1);

    // --- Phase 3: merging (clean views per intent). ---
    for p in 0..ctx.benchmark.n_intents() {
        let resolution = Resolution::from_predictions(&model.predictions.column(p));
        let view = clean_view(ctx.benchmark.dataset.len(), &ctx.benchmark.candidates, &resolution);
        println!(
            "merging [{:<9}]: {} records -> {} clean representatives",
            ctx.benchmark.intents[p].name,
            ctx.benchmark.dataset.len(),
            view.representatives.len()
        );
    }
}
