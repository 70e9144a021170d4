//! Property-based tests for the dataset substrate: blocker soundness,
//! perturbation safety, Walmart-Amazon generator invariants, and the
//! category-set ⇔ family equivalence that underpins the Set-Cat. intent.

use flexer_block::NGramBlocker;
use flexer_datasets::catalog::{Catalog, CatalogConfig, RecordCountDist};
use flexer_datasets::intents::IntentDef;
use flexer_datasets::perturb::{perturb_title, NoiseConfig, Perturbation};
use flexer_datasets::taxonomy::{amazonmi_spec, jaccard, Taxonomy, TaxonomyConfig};
use flexer_datasets::WalmartAmazonConfig;
use flexer_types::{Dataset, Record, Scale};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn title_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec("[a-z]{2,8}", 1..7).prop_map(|words| words.join(" "))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Blocker soundness: every emitted pair genuinely shares a q-gram
    /// (checked against the independent `survives` predicate).
    #[test]
    fn blocker_emits_only_gram_sharers(titles in prop::collection::vec(title_strategy(), 2..12)) {
        let dataset = Dataset::from_records(
            titles.iter().map(|t| Record::with_title(0, t.clone())).collect(),
        );
        let blocker = NGramBlocker::default().with_max_bucket(1_000);
        let candidates = blocker.block(&dataset).candidates;
        for (_, pair) in candidates.iter() {
            prop_assert!(blocker.survives(dataset[pair.a].title(), dataset[pair.b].title()));
        }
    }

    /// Blocker completeness at unlimited bucket size: identical titles are
    /// always paired.
    #[test]
    fn blocker_finds_identical_titles(title in title_strategy()) {
        prop_assume!(title.len() >= 4);
        let dataset = Dataset::from_records(vec![
            Record::with_title(0, title.clone()),
            Record::with_title(0, title),
        ]);
        let candidates = NGramBlocker::default().with_max_bucket(1_000).block(&dataset).candidates;
        prop_assert_eq!(candidates.len(), 1);
    }

    /// Perturbations never panic and never produce an empty title from a
    /// non-empty one.
    #[test]
    fn perturbations_total_and_nonempty(title in title_strategy(), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        for op in Perturbation::ALL {
            let out = op.apply(&title, "Black/White", &mut rng);
            prop_assert!(!out.trim().is_empty());
        }
        let noisy = perturb_title(
            &title,
            "Navy Blue",
            NoiseConfig { ops_per_duplicate: 3.0, perturb_base: 0.5 },
            &mut rng,
        );
        prop_assert!(!noisy.trim().is_empty());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Walmart-Amazon invariants across seeds: validation, Table 4 windows,
    /// and the Eq ⊆ Brand, Eq ⊆ Main ⊆ General structure.
    #[test]
    fn walmart_amazon_invariants(seed in 0u64..500) {
        let b = WalmartAmazonConfig::at_scale(Scale::Tiny).with_seed(seed).generate();
        b.validate().unwrap();
        prop_assert!(b.intent_subsumed_by(0, 1));
        prop_assert!(b.intent_subsumed_by(0, 2));
        prop_assert!(b.intent_subsumed_by(2, 3));
        let targets = [0.094, 0.76, 0.80, 0.90];
        for (p, &t) in targets.iter().enumerate() {
            let rate = b.labels.positive_rate(p);
            prop_assert!((rate - t).abs() < 0.12, "intent {} rate {:.3}", p, rate);
        }
    }

    /// The taxonomy construction makes "Jaccard ≥ 0.4" *exactly* the
    /// same-family relation over arbitrary catalogues.
    #[test]
    fn jaccard_threshold_equals_family_equivalence(seed in 0u64..200) {
        let taxonomy =
            Taxonomy::from_spec(&amazonmi_spec(), TaxonomyConfig::at_scale(Scale::Tiny));
        let catalog = Catalog::generate(
            taxonomy,
            &CatalogConfig {
                n_records: 120,
                record_counts: RecordCountDist([0.5, 0.5, 0.0, 0.0]),
                noise: NoiseConfig::default(),
            },
            &mut StdRng::seed_from_u64(seed),
        );
        for a in catalog.products.iter().step_by(3) {
            for b in catalog.products.iter().step_by(5) {
                let sim = jaccard(&a.category_set, &b.category_set) >= 0.4;
                prop_assert_eq!(sim, a.family == b.family,
                    "products {} and {}", a.id, b.id);
            }
        }
        // And the labeler agrees with the entity-map encoding on records.
        let theta = IntentDef::SimilarCategorySet.entity_map(&catalog);
        for r in (0..catalog.n_records()).step_by(7) {
            for s in (0..catalog.n_records()).step_by(11) {
                if r == s { continue; }
                prop_assert_eq!(
                    theta.corresponds(r, s).unwrap(),
                    IntentDef::SimilarCategorySet.pair_label(&catalog, r, s)
                );
            }
        }
    }
}
