//! Typed candidate-pair sampling.
//!
//! The paper's candidate sets come from blocking real corpora; their
//! defining statistic is the per-intent positive proportion (Table 4).
//! This module reproduces those proportions *constructively*: a mixture of
//! pair classes (duplicate, same-brand-same-family, …) with calibrated
//! weights, sampled over a [`Catalog`]. Negative classes prefer pairs whose
//! titles share a 4-gram, mirroring the fact that every paper candidate
//! endured the 4-gram blocker.

use crate::catalog::Catalog;
use crate::intents::IntentDef;
use flexer_block::ngram::survives;
use flexer_types::{
    BlockingReport, CandidateGenConfig, CandidateSet, IntentSet, LabelMatrix, MierBenchmark,
    NGramBlockerConfig, PairRef, Resolution, SplitAssignment, SplitRatios,
};
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::HashSet;

/// Brand constraint of a pair class: required equal, required different, or
/// unconstrained.
pub type BrandConstraint = Option<bool>;

/// One pair class of the mixture.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PairClass {
    /// Two records of the same product.
    Duplicate,
    /// Different products of the same family.
    SameFamilyDiffProduct(BrandConstraint),
    /// Same main category, different families.
    SameMainDiffFamily(BrandConstraint),
    /// Same general category, different main categories.
    SameGeneralDiffMain(BrandConstraint),
    /// Different main categories (datasets without generals).
    DiffMain(BrandConstraint),
    /// Different general categories.
    DiffGeneral(BrandConstraint),
}

impl PairClass {
    /// Whether this class benefits from the shared-4-gram preference
    /// (the "endured blocking" realism for broad negatives).
    fn prefers_blocking(self) -> bool {
        matches!(
            self,
            PairClass::DiffMain(_) | PairClass::DiffGeneral(_) | PairClass::SameGeneralDiffMain(_)
        )
    }
}

/// A weighted mixture component.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MixtureComponent {
    /// The pair class.
    pub class: PairClass,
    /// Mixture weight (weights are normalized internally).
    pub weight: f64,
}

/// Convenience constructor.
pub fn component(class: PairClass, weight: f64) -> MixtureComponent {
    MixtureComponent { class, weight }
}

/// Outcome of sampling: the candidate set plus per-class achieved counts
/// (diagnostics for calibration tests).
#[derive(Debug, Clone)]
pub struct SampledPairs {
    /// The deduplicated candidate set.
    pub candidates: CandidateSet,
    /// Achieved count per mixture component.
    pub achieved: Vec<usize>,
}

const MAX_ATTEMPTS_PER_PAIR: usize = 200;
const BLOCKING_TRIES: usize = 8;

/// Samples `n_pairs` candidate pairs according to the mixture.
pub fn sample_candidate_pairs(
    catalog: &Catalog,
    mixture: &[MixtureComponent],
    n_pairs: usize,
    rng: &mut impl Rng,
) -> SampledPairs {
    let total_weight: f64 = mixture.iter().map(|c| c.weight).sum();
    assert!(total_weight > 0.0, "mixture weights must be positive");
    let blocker = NGramBlockerConfig::default();

    let mut seen: HashSet<(usize, usize)> = HashSet::with_capacity(n_pairs);
    let mut pairs: Vec<PairRef> = Vec::with_capacity(n_pairs);
    let mut achieved = vec![0usize; mixture.len()];

    // Exact counts per class; remainder goes to the largest component.
    let mut counts: Vec<usize> = mixture
        .iter()
        .map(|c| ((c.weight / total_weight) * n_pairs as f64).round() as usize)
        .collect();
    let assigned: usize = counts.iter().sum();
    if assigned < n_pairs {
        if let Some(max_idx) = (0..counts.len()).max_by_key(|&i| counts[i]) {
            counts[max_idx] += n_pairs - assigned;
        }
    }

    for (ci, comp) in mixture.iter().enumerate() {
        match comp.class {
            PairClass::Duplicate => {
                let mut dups = catalog.all_duplicate_pairs();
                dups.shuffle(rng);
                for (a, b) in dups.into_iter().take(counts[ci]) {
                    let p = PairRef::new(a, b).expect("distinct records");
                    if seen.insert((p.a, p.b)) {
                        pairs.push(p);
                        achieved[ci] += 1;
                    }
                }
            }
            class => {
                let mut made = 0usize;
                let mut attempts = 0usize;
                let budget = counts[ci].saturating_mul(MAX_ATTEMPTS_PER_PAIR).max(1);
                while made < counts[ci] && attempts < budget {
                    attempts += 1;
                    if let Some(p) = sample_one(catalog, class, &blocker, rng) {
                        if seen.insert((p.a, p.b)) {
                            pairs.push(p);
                            made += 1;
                        }
                    }
                }
                achieved[ci] = made;
            }
        }
    }

    // Stable deterministic order independent of class interleaving.
    pairs.sort_unstable();
    SampledPairs { candidates: CandidateSet::from_pairs(pairs), achieved }
}

fn brand_ok(constraint: BrandConstraint, a: &str, b: &str) -> bool {
    match constraint {
        None => true,
        Some(true) => a == b,
        Some(false) => a != b,
    }
}

fn sample_one(
    catalog: &Catalog,
    class: PairClass,
    blocker: &NGramBlockerConfig,
    rng: &mut impl Rng,
) -> Option<PairRef> {
    let n = catalog.n_products();
    if n < 2 {
        return None;
    }
    let pa = rng.gen_range(0..n);
    let a = &catalog.products[pa];
    let pick = |pool: &[usize], rng: &mut dyn rand::RngCore| -> Option<usize> {
        if pool.is_empty() {
            None
        } else {
            Some(pool[rng.gen_range(0..pool.len())])
        }
    };
    let pb = match class {
        PairClass::Duplicate => unreachable!("duplicates are enumerated"),
        PairClass::SameFamilyDiffProduct(bc) => {
            let b = pick(catalog.products_in_family(a.family), rng)?;
            let pb = &catalog.products[b];
            (b != pa && brand_ok(bc, &a.brand, &pb.brand)).then_some(b)?
        }
        PairClass::SameMainDiffFamily(bc) => {
            let b = pick(catalog.products_in_main(a.main), rng)?;
            let pb = &catalog.products[b];
            (pb.family != a.family && brand_ok(bc, &a.brand, &pb.brand)).then_some(b)?
        }
        PairClass::SameGeneralDiffMain(bc) => {
            if a.general == usize::MAX {
                return None;
            }
            let b = pick(catalog.products_in_general(a.general), rng)?;
            let pb = &catalog.products[b];
            (pb.main != a.main && brand_ok(bc, &a.brand, &pb.brand)).then_some(b)?
        }
        PairClass::DiffMain(bc) => {
            let b = rng.gen_range(0..n);
            let pb = &catalog.products[b];
            (pb.main != a.main && brand_ok(bc, &a.brand, &pb.brand)).then_some(b)?
        }
        PairClass::DiffGeneral(bc) => {
            let b = rng.gen_range(0..n);
            let pb = &catalog.products[b];
            (pb.general != a.general && brand_ok(bc, &a.brand, &pb.brand)).then_some(b)?
        }
    };

    let ra = catalog.random_record_of(pa, rng);
    // Blocking preference: for broad negatives, try a few record choices
    // that share a 4-gram with `ra`; fall back to an arbitrary record.
    let rb = if class.prefers_blocking() {
        let title_a = catalog.dataset[ra].title().to_string();
        let mut chosen = None;
        for _ in 0..BLOCKING_TRIES {
            let cand = catalog.random_record_of(pb, rng);
            if survives(blocker, &title_a, catalog.dataset[cand].title()) {
                chosen = Some(cand);
                break;
            }
        }
        chosen.unwrap_or_else(|| catalog.random_record_of(pb, rng))
    } else {
        catalog.random_record_of(pb, rng)
    };
    if ra == rb {
        return None;
    }
    Some(PairRef::new(ra, rb).expect("distinct records"))
}

/// Generates a benchmark whose candidate set comes from a real blocking
/// pass instead of the calibrated sampler: blocks the catalogue's records
/// with the backend `blocker` names ([`flexer_block::block`]), labels the
/// surviving pairs from ground truth, and assembles the bundle. Returns the
/// benchmark together with the blocker's [`BlockingReport`].
pub fn blocked_benchmark(
    name: &str,
    catalog: &Catalog,
    intents: &[(IntentDef, &str)],
    blocker: &CandidateGenConfig,
    seed: u64,
) -> (MierBenchmark, BlockingReport) {
    let outcome = flexer_block::block(blocker, &catalog.dataset);
    (assemble_benchmark(name, catalog, intents, outcome.candidates, seed), outcome.report)
}

/// Assembles a full [`MierBenchmark`] from a catalogue, an intent list and
/// a sampled candidate set: derives entity maps and labels, splits 3:1:1,
/// and (in debug builds) validates the bundle.
pub fn assemble_benchmark(
    name: &str,
    catalog: &Catalog,
    intents: &[(IntentDef, &str)],
    candidates: CandidateSet,
    seed: u64,
) -> MierBenchmark {
    let intent_set = IntentSet::new(
        intents
            .iter()
            .enumerate()
            .map(|(i, (def, display))| flexer_types::Intent {
                id: i,
                name: display.to_string(),
                is_equivalence: matches!(def, IntentDef::Equivalence),
            })
            .collect(),
    );
    let entity_maps: Vec<_> = intents.iter().map(|(def, _)| def.entity_map(catalog)).collect();
    let columns: Vec<Vec<bool>> = entity_maps
        .iter()
        .map(|theta| {
            Resolution::golden(&candidates, theta).expect("maps cover the dataset").mask().to_vec()
        })
        .collect();
    let labels = LabelMatrix::from_columns(&columns).expect("at least one intent");
    let splits = SplitAssignment::random(candidates.len(), SplitRatios::PAPER, seed ^ 0x5157)
        .expect("valid ratios");
    let benchmark = MierBenchmark {
        name: name.to_string(),
        dataset: catalog.dataset.clone(),
        candidates,
        intents: intent_set,
        labels,
        entity_maps,
        splits,
    };
    debug_assert!(benchmark.validate().is_ok(), "generated benchmark must validate");
    benchmark
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{CatalogConfig, RecordCountDist};
    use crate::perturb::NoiseConfig;
    use crate::taxonomy::{amazonmi_spec, Taxonomy, TaxonomyConfig};
    use flexer_types::Scale;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn catalog(seed: u64) -> Catalog {
        let taxonomy = Taxonomy::from_spec(&amazonmi_spec(), TaxonomyConfig::at_scale(Scale::Tiny));
        let config = CatalogConfig {
            n_records: 400,
            record_counts: RecordCountDist([0.35, 0.35, 0.2, 0.1]),
            noise: NoiseConfig::default(),
        };
        Catalog::generate(taxonomy, &config, &mut StdRng::seed_from_u64(seed))
    }

    #[test]
    fn duplicate_class_yields_same_product_pairs() {
        let c = catalog(1);
        let mut rng = StdRng::seed_from_u64(2);
        let s = sample_candidate_pairs(&c, &[component(PairClass::Duplicate, 1.0)], 50, &mut rng);
        assert!(s.achieved[0] > 0);
        for (_, p) in s.candidates.iter() {
            assert_eq!(c.product_of[p.a], c.product_of[p.b]);
        }
    }

    #[test]
    fn typed_classes_respect_their_predicates() {
        let c = catalog(3);
        let mut rng = StdRng::seed_from_u64(4);
        let mixture = [
            component(PairClass::SameFamilyDiffProduct(Some(false)), 0.4),
            component(PairClass::SameMainDiffFamily(Some(true)), 0.3),
            component(PairClass::DiffMain(None), 0.3),
        ];
        let s = sample_candidate_pairs(&c, &mixture, 120, &mut rng);
        // Re-derive which class each pair belongs to and check counts by
        // predicate (classes are mutually exclusive here).
        let mut fam_diff_brand = 0;
        let mut main_same_brand = 0;
        let mut diff_main = 0;
        for (_, p) in s.candidates.iter() {
            let a = &c.products[c.product_of[p.a]];
            let b = &c.products[c.product_of[p.b]];
            assert_ne!(a.id, b.id, "typed classes never produce duplicates");
            if a.family == b.family && a.brand != b.brand {
                fam_diff_brand += 1;
            } else if a.main == b.main && a.family != b.family && a.brand == b.brand {
                main_same_brand += 1;
            } else if a.main != b.main {
                diff_main += 1;
            } else {
                panic!("pair outside every requested class");
            }
        }
        assert_eq!(fam_diff_brand, s.achieved[0]);
        assert_eq!(main_same_brand, s.achieved[1]);
        assert_eq!(diff_main, s.achieved[2]);
    }

    #[test]
    fn achieved_counts_close_to_requested() {
        let c = catalog(5);
        let mut rng = StdRng::seed_from_u64(6);
        let mixture = [
            component(PairClass::Duplicate, 0.2),
            component(PairClass::SameFamilyDiffProduct(None), 0.5),
            component(PairClass::DiffMain(None), 0.3),
        ];
        let n = 200;
        let s = sample_candidate_pairs(&c, &mixture, n, &mut rng);
        let total: usize = s.achieved.iter().sum();
        assert!(total as f64 >= 0.9 * n as f64, "only {total}/{n} sampled");
        assert!((s.achieved[0] as f64 - 0.2 * n as f64).abs() <= 0.05 * n as f64);
    }

    #[test]
    fn no_duplicate_pairs_in_candidate_set() {
        let c = catalog(7);
        let mut rng = StdRng::seed_from_u64(8);
        let mixture = [
            component(PairClass::Duplicate, 0.5),
            component(PairClass::SameFamilyDiffProduct(None), 0.5),
        ];
        let s = sample_candidate_pairs(&c, &mixture, 150, &mut rng);
        let mut set = HashSet::new();
        for (_, p) in s.candidates.iter() {
            assert!(set.insert((p.a, p.b)));
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let c = catalog(9);
        let mixture =
            [component(PairClass::Duplicate, 0.3), component(PairClass::DiffMain(None), 0.7)];
        let a = sample_candidate_pairs(&c, &mixture, 80, &mut StdRng::seed_from_u64(1));
        let b = sample_candidate_pairs(&c, &mixture, 80, &mut StdRng::seed_from_u64(1));
        assert_eq!(a.candidates, b.candidates);
    }

    #[test]
    fn assemble_builds_valid_benchmark() {
        let c = catalog(10);
        let mut rng = StdRng::seed_from_u64(11);
        let mixture = [
            component(PairClass::Duplicate, 0.2),
            component(PairClass::SameFamilyDiffProduct(None), 0.4),
            component(PairClass::DiffMain(None), 0.4),
        ];
        let s = sample_candidate_pairs(&c, &mixture, 100, &mut rng);
        let b = assemble_benchmark(
            "test",
            &c,
            &[
                (IntentDef::Equivalence, "Eq."),
                (IntentDef::SameBrand, "Brand"),
                (IntentDef::SameMainCategory, "Main-Cat."),
            ],
            s.candidates,
            11,
        );
        b.validate().unwrap();
        assert_eq!(b.n_intents(), 3);
        assert_eq!(b.intents.equivalence_id(), Some(0));
        // eq ⊆ brand and eq ⊆ main on every generated benchmark
        assert!(b.intent_subsumed_by(0, 1));
        assert!(b.intent_subsumed_by(0, 2));
    }

    #[test]
    fn blocked_benchmark_consumes_the_generator() {
        let c = catalog(13);
        let (b, report) = blocked_benchmark(
            "blocked",
            &c,
            &[(IntentDef::Equivalence, "Eq."), (IntentDef::SameBrand, "Brand")],
            &CandidateGenConfig::default(),
            13,
        );
        b.validate().unwrap();
        assert_eq!(b.n_pairs(), report.candidates);
        assert!(report.grams_indexed > 0);
        assert!(b.intent_subsumed_by(0, 1), "eq ⊆ brand survives blocking");
    }

    #[test]
    #[should_panic(expected = "mixture weights must be positive")]
    fn zero_mixture_panics() {
        let c = catalog(12);
        let mut rng = StdRng::seed_from_u64(0);
        let _ = sample_candidate_pairs(&c, &[component(PairClass::Duplicate, 0.0)], 10, &mut rng);
    }
}
