//! The measurement that kept `flexer-block::ann` in the tree, as a test.
//!
//! Blocking is judged on two axes (*Efficient Entity Resolution on
//! Heterogeneous Records*, PAPERS.md): how many candidate pairs it emits
//! and how many golden pairs — two records of one product — survive. On the
//! ladder's serving corpus the record-level ANN blocker beats the default
//! q-gram blocker on both at once (at 1 500 records the q-gram blocker's
//! bucket cap does not bite yet: its recall is 1.000 and there is nothing
//! to beat). A backend that no ladder workload runs stays only while that
//! holds; when the first test below fails, decide again.
//!
//! The second test prints ROADMAP's blocker table (under "Recent", PR 21):
//!
//! ```sh
//! cargo test --release --test blocking_recall -- --ignored --nocapture
//! ```

use flexer::block::{block, golden_pair_recall};
use flexer::datasets::catalog::{Catalog, CatalogConfig, RecordCountDist};
use flexer::datasets::intents::IntentDef;
use flexer::datasets::perturb::NoiseConfig;
use flexer::datasets::taxonomy::{amazonmi_spec, Taxonomy, TaxonomyConfig};
use flexer::types::{AnnBlockerConfig, CandidateGenConfig, Scale};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The ladder's serving-corpus generator (`ladder/src/inputs.rs`, seed 17)
/// asked for `n_records` records; it returns a few more or fewer.
fn catalogue(n_records: usize) -> Catalog {
    Catalog::generate(
        Taxonomy::from_spec(&amazonmi_spec(), TaxonomyConfig::at_scale(Scale::Small)),
        &CatalogConfig {
            n_records,
            record_counts: RecordCountDist([0.35, 0.35, 0.2, 0.1]),
            noise: NoiseConfig::default(),
        },
        &mut StdRng::seed_from_u64(17),
    )
}

/// One batch `block` over the catalogue: candidate partners per record
/// (2 · pairs ÷ records), golden-pair recall under Eq., and build seconds.
fn measure(blocker: &CandidateGenConfig, catalog: &Catalog) -> (f64, f64, f64) {
    let start = std::time::Instant::now();
    let outcome = block(blocker, &catalog.dataset);
    let seconds = start.elapsed().as_secs_f64();
    let (recalled, total) =
        golden_pair_recall(&outcome.candidates, &IntentDef::Equivalence.entity_map(catalog));
    assert!(total > 0, "the catalogue holds duplicates");
    (
        2.0 * outcome.candidates.len() as f64 / catalog.n_records() as f64,
        recalled as f64 / total as f64,
        seconds,
    )
}

fn ann(dim: usize, k: usize) -> CandidateGenConfig {
    CandidateGenConfig::Ann(AnnBlockerConfig { q: 3, dim, k })
}

#[test]
fn ann_blocker_reaches_the_qgram_defaults_recall_with_fewer_candidates() {
    let catalog = catalogue(4_000);
    let (qgram_candidates, qgram_recall, _) = measure(&CandidateGenConfig::default(), &catalog);
    let (ann_candidates, ann_recall, _) = measure(&ann(64, 32), &catalog);
    assert!(
        ann_recall >= qgram_recall && ann_candidates < qgram_candidates,
        "ANN k = 32: {ann_candidates:.1} candidates/record at recall {ann_recall:.3}; \
         q-gram default: {qgram_candidates:.1} at {qgram_recall:.3}"
    );
    // The q-gram figure must be one worth beating, not a broken baseline.
    assert!(qgram_recall > 0.9, "q-gram recall {qgram_recall:.3}");
}

#[test]
#[ignore = "prints ROADMAP's blocker table; ≈20 s with --release"]
fn blocker_frontier_table() {
    println!("| records | blocker | candidates/record | golden recall | build s |");
    println!("|---|---|---|---|---|");
    for n_records in [750, 4_000, 10_000] {
        let catalog = catalogue(n_records);
        let row = |name: &str, blocker: &CandidateGenConfig| {
            let (candidates, recall, seconds) = measure(blocker, &catalog);
            println!(
                "| {} | {name} | {candidates:.0} | {recall:.3} | {seconds:.2} |",
                catalog.n_records()
            );
        };
        row("q-gram (default)", &CandidateGenConfig::default());
        for dim in [64, 256] {
            for k in [8, 32, 65, 130] {
                row(&format!("ANN dim {dim}, k = {k}"), &ann(dim, k));
            }
        }
    }
}
