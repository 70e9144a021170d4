//! # flexer-bench
//!
//! The experiment harness: the FlexER paper's evaluation (§5, Tables 3–9
//! and Figs. 6–7) as one module, [`fidelity`], driven by one binary,
//! `paper`, and the `chaos` fault-injection smoke. Every experiment is
//! deterministic for a given scale/seed, prints the paper's reported
//! numbers next to ours, and states the paper's claims as computed verdicts
//! that `tests/fidelity.rs` pins. Where a run's fit time went is the
//! product's own training spans, which `paper` prints last
//! ([`fidelity::fit_stage_table`]). The repo's one benchmark, the
//! `ladder`, is a package of its own under `src/bin/ladder/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fidelity;

use flexer_core::prelude::*;
use flexer_datasets::{AmazonMiConfig, WalmartAmazonConfig, WdcConfig};
use flexer_matcher::PairFeaturizer;
use flexer_types::{MierBenchmark, Scale};

/// The three benchmarks of §5.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetKind {
    /// AmazonMI (the new MIER benchmark).
    AmazonMi,
    /// Walmart-Amazon.
    WalmartAmazon,
    /// WDC.
    Wdc,
}

impl DatasetKind {
    /// All datasets in Table 3 order.
    pub const ALL: [DatasetKind; 3] =
        [DatasetKind::AmazonMi, DatasetKind::WalmartAmazon, DatasetKind::Wdc];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            DatasetKind::AmazonMi => "AmazonMI",
            DatasetKind::WalmartAmazon => "Walmart-Amazon",
            DatasetKind::Wdc => "WDC",
        }
    }

    /// Generates the benchmark at a scale/seed.
    pub fn generate(self, scale: Scale, seed: u64) -> MierBenchmark {
        match self {
            DatasetKind::AmazonMi => AmazonMiConfig::at_scale(scale).with_seed(seed).generate(),
            DatasetKind::WalmartAmazon => {
                WalmartAmazonConfig::at_scale(scale).with_seed(seed).generate()
            }
            DatasetKind::Wdc => WdcConfig::at_scale(scale).with_seed(seed).generate(),
        }
    }

    /// Paper Table 3 row: (records, pairs, intents).
    pub fn paper_cardinalities(self) -> (usize, usize, usize) {
        match self {
            DatasetKind::AmazonMi => (3_835, 15_404, 5),
            DatasetKind::WalmartAmazon => (24_628, 10_242, 4),
            DatasetKind::Wdc => (10_935, 30_673, 3),
        }
    }

    /// Paper Table 4 positive rates (train, valid, test) per intent.
    pub fn paper_positive_rates(self) -> &'static [(&'static str, [f64; 3])] {
        match self {
            DatasetKind::AmazonMi => &[
                ("Eq.", [0.151, 0.162, 0.154]),
                ("Brand", [0.200, 0.213, 0.214]),
                ("Set-Cat.", [0.497, 0.507, 0.490]),
                ("Main-Cat.", [0.668, 0.673, 0.672]),
                ("Main-Cat. & Set-Cat.", [0.497, 0.507, 0.490]),
            ],
            DatasetKind::WalmartAmazon => &[
                ("Eq.", [0.094, 0.094, 0.094]),
                ("Brand", [0.757, 0.757, 0.764]),
                ("Main-Cat.", [0.799, 0.790, 0.800]),
                ("General-Cat.", [0.897, 0.902, 0.905]),
            ],
            DatasetKind::Wdc => &[
                ("Eq.", [0.116, 0.114, 0.113]),
                ("Cat.", [0.438, 0.438, 0.438]),
                ("General-Cat.", [0.670, 0.666, 0.672]),
            ],
        }
    }

    /// Paper Table 5 rows: model → (MI-P, MI-R, MI-F, MI-Acc, MI-E_F in %
    /// or NaN when the paper prints "-").
    pub fn paper_table5(self) -> &'static [(&'static str, [f64; 5])] {
        match self {
            DatasetKind::AmazonMi => &[
                ("Naive", [0.831, 0.611, 0.662, 0.769, f64::NAN]),
                ("In-parallel", [0.905, 0.977, 0.939, 0.960, f64::NAN]),
                ("Multi-label", [0.856, 0.975, 0.907, 0.931, f64::NAN]),
                ("FlexER", [0.951, 0.976, 0.964, 0.977, 41.0]),
            ],
            DatasetKind::WalmartAmazon => &[
                ("Naive", [0.933, 0.282, 0.350, 0.437, f64::NAN]),
                ("In-parallel", [0.924, 0.918, 0.921, 0.932, f64::NAN]),
                ("Multi-label", [0.926, 0.919, 0.922, 0.940, f64::NAN]),
                ("FlexER", [0.950, 0.932, 0.940, 0.953, 24.1]),
            ],
            DatasetKind::Wdc => &[
                ("Naive", [0.880, 0.373, 0.459, 0.674, f64::NAN]),
                ("In-parallel", [0.876, 0.854, 0.863, 0.921, f64::NAN]),
                ("Multi-label", [0.881, 0.836, 0.857, 0.914, f64::NAN]),
                ("FlexER", [0.871, 0.872, 0.871, 0.922, 5.8]),
            ],
        }
    }

    /// Paper Tables 6 (the equivalence intent) and 7 (every other intent)
    /// as one list, intents in Table 4 order: (intent, model, [P, R, F,
    /// Acc, E_F%]).
    pub fn paper_single_intent(self) -> &'static [(&'static str, &'static str, [f64; 5])] {
        match self {
            DatasetKind::AmazonMi => &[
                ("Eq.", "In-parallel", [0.829, 0.991, 0.901, 0.960, f64::NAN]),
                ("Eq.", "Multi-label", [0.921, 0.905, 0.912, 0.969, f64::NAN]),
                ("Eq.", "FlexER", [0.933, 0.985, 0.958, 0.985, 57.6]),
                ("Brand", "In-parallel", [0.926, 0.978, 0.951, 0.981, f64::NAN]),
                ("Brand", "Multi-label", [0.856, 0.993, 0.919, 0.965, f64::NAN]),
                ("Brand", "FlexER", [0.934, 0.979, 0.956, 0.982, 10.2]),
                ("Set-Cat.", "In-parallel", [0.912, 0.977, 0.944, 0.944, f64::NAN]),
                ("Set-Cat.", "Multi-label", [0.908, 0.990, 0.947, 0.947, f64::NAN]),
                ("Set-Cat.", "FlexER", [0.968, 0.976, 0.972, 0.973, 50.0]),
                ("Main-Cat.", "In-parallel", [0.979, 0.989, 0.984, 0.978, f64::NAN]),
                ("Main-Cat.", "Multi-label", [0.945, 0.993, 0.969, 0.957, f64::NAN]),
                ("Main-Cat.", "FlexER", [0.988, 0.987, 0.988, 0.983, 25.0]),
                ("Main-Cat. & Set-Cat.", "In-parallel", [0.881, 0.948, 0.913, 0.937, f64::NAN]),
                ("Main-Cat. & Set-Cat.", "Multi-label", [0.650, 0.993, 0.786, 0.815, f64::NAN]),
                ("Main-Cat. & Set-Cat.", "FlexER", [0.932, 0.955, 0.944, 0.961, 35.6]),
            ],
            DatasetKind::WalmartAmazon => &[
                ("Eq.", "In-parallel", [0.852, 0.812, 0.831, 0.969, f64::NAN]),
                ("Eq.", "Multi-label", [0.854, 0.772, 0.810, 0.966, f64::NAN]),
                ("Eq.", "FlexER", [0.903, 0.792, 0.844, 0.985, 7.7]),
                ("Brand", "In-parallel", [0.977, 0.964, 0.971, 0.955, f64::NAN]),
                ("Brand", "Multi-label", [0.970, 0.976, 0.973, 0.959, f64::NAN]),
                ("Brand", "FlexER", [0.986, 0.990, 0.988, 0.973, 43.6]),
                ("Main-Cat.", "In-parallel", [0.921, 0.931, 0.926, 0.881, f64::NAN]),
                ("Main-Cat.", "Multi-label", [0.927, 0.952, 0.939, 0.901, f64::NAN]),
                ("Main-Cat.", "FlexER", [0.942, 0.959, 0.950, 0.911, 32.5]),
                ("General-Cat.", "In-parallel", [0.948, 0.968, 0.957, 0.922, f64::NAN]),
                ("General-Cat.", "Multi-label", [0.954, 0.976, 0.965, 0.936, f64::NAN]),
                ("General-Cat.", "FlexER", [0.967, 0.987, 0.977, 0.945, 46.5]),
            ],
            DatasetKind::Wdc => &[
                ("Eq.", "In-parallel", [0.786, 0.745, 0.761, 0.948, f64::NAN]),
                ("Eq.", "Multi-label", [0.808, 0.713, 0.757, 0.948, f64::NAN]),
                ("Eq.", "FlexER", [0.775, 0.788, 0.782, 0.950, 8.8]),
                ("Cat.", "In-parallel", [0.939, 0.880, 0.909, 0.923, f64::NAN]),
                ("Cat.", "Multi-label", [0.934, 0.889, 0.911, 0.924, f64::NAN]),
                ("Cat.", "FlexER", [0.932, 0.890, 0.911, 0.923, 1.0]),
                ("General-Cat.", "In-parallel", [0.904, 0.937, 0.920, 0.891, f64::NAN]),
                ("General-Cat.", "Multi-label", [0.902, 0.905, 0.904, 0.870, f64::NAN]),
                ("General-Cat.", "FlexER", [0.900, 0.943, 0.921, 0.891, 1.0]),
            ],
        }
    }

    /// Paper Table 8: (k=0 F1, avg k>0 F1) for the equivalence intent.
    pub fn paper_table8(self) -> (f64, f64) {
        match self {
            DatasetKind::AmazonMi => (0.951, 0.955),
            DatasetKind::WalmartAmazon => (0.833, 0.838),
            DatasetKind::Wdc => (0.772, 0.777),
        }
    }

    /// Paper Table 9: (NN computation s, train+test 2L s, train+test 3L s).
    pub fn paper_table9(self) -> (f64, f64, f64) {
        match self {
            DatasetKind::AmazonMi => (398.6, 11.4, 16.7),
            DatasetKind::WalmartAmazon => (139.5, 8.1, 11.9),
            DatasetKind::Wdc => (954.5, 6.7, 9.0),
        }
    }

    /// The best-k value Figure 6 highlights per dataset.
    pub fn paper_fig6_best_k(self) -> usize {
        match self {
            DatasetKind::AmazonMi => 6,
            DatasetKind::WalmartAmazon => 2,
            DatasetKind::Wdc => 8,
        }
    }

    /// Paper Figure 7 (AmazonMI only): (subsumed intent, FlexER PE,
    /// In-parallel PE).
    pub fn paper_fig7(self) -> &'static [(&'static str, f64, f64)] {
        match self {
            DatasetKind::AmazonMi => &[
                ("Eq.", 7.97e-4, 15.89e-3),
                ("Set-Cat.", 2.0e-3, 6.3e-2),
                ("Main-Cat. & Set-Cat.", 2.0e-3, 2.1e-2),
            ],
            _ => &[],
        }
    }
}

/// Matcher configuration per scale (capacity grows with data volume).
pub fn matcher_config(scale: Scale, seed: u64) -> MatcherConfig {
    let base = match scale {
        Scale::Tiny => MatcherConfig {
            featurizer: PairFeaturizer::new(1 << 12),
            hidden_dim: 48,
            embedding_dim: 32,
            epochs: 20,
            ..MatcherConfig::default()
        },
        Scale::Small => MatcherConfig {
            featurizer: PairFeaturizer::new(1 << 14),
            hidden_dim: 96,
            embedding_dim: 48,
            epochs: 15,
            ..MatcherConfig::default()
        },
        Scale::Paper => MatcherConfig {
            featurizer: PairFeaturizer::new(1 << 15),
            hidden_dim: 128,
            embedding_dim: 64,
            epochs: 15,
            ..MatcherConfig::default()
        },
    };
    base.with_seed(seed)
}

/// GNN configuration per scale.
pub fn gnn_config(scale: Scale, seed: u64) -> GnnConfig {
    let base = match scale {
        Scale::Tiny => GnnConfig { hidden_dim: 32, epochs: 80, patience: 20, ..Default::default() },
        Scale::Small => {
            GnnConfig { hidden_dim: 64, epochs: 150, patience: 20, ..Default::default() }
        }
        Scale::Paper => {
            GnnConfig { hidden_dim: 100, epochs: 150, patience: 25, ..Default::default() }
        }
    };
    base.with_seed(seed)
}

/// Full FlexER configuration per scale.
pub fn flexer_config(scale: Scale, seed: u64) -> FlexErConfig {
    FlexErConfig {
        matcher: matcher_config(scale, seed),
        gnn: gnn_config(scale, seed),
        ..FlexErConfig::default()
    }
}

/// The four models of Table 5, fitted on one benchmark with a shared
/// context. FlexER reuses the in-parallel embeddings (§5.2.2's independent
/// intent-based representations).
pub struct ModelSuite {
    /// Shared context (benchmark + featurized corpus).
    pub ctx: PipelineContext,
    /// One-size-fits-all baseline.
    pub naive: NaiveModel,
    /// Binary-relevance baseline.
    pub in_parallel: InParallelModel,
    /// Joint multi-label baseline.
    pub multi_label: MultiLabelModel,
    /// FlexER.
    pub flexer: FlexErModel,
}

impl ModelSuite {
    /// Fits everything on a benchmark.
    pub fn fit(bench: MierBenchmark, scale: Scale, seed: u64) -> Self {
        let mcfg = matcher_config(scale, seed);
        let fcfg = flexer_config(scale, seed);
        let ctx = PipelineContext::new(bench, &mcfg).expect("generated benchmarks validate");
        let naive = NaiveModel::fit(&ctx, &mcfg).expect("fit naive");
        let in_parallel = InParallelModel::fit(&ctx, &mcfg).expect("fit in-parallel");
        // The multi-task network trains all intents in ONE phase (§3.3); give
        // it the same total budget the P in-parallel phases get.
        let ml_cfg = MatcherConfig { epochs: mcfg.epochs * 2, ..mcfg.clone() };
        let multi_label = MultiLabelModel::fit(&ctx, &ml_cfg).expect("fit multi-label");
        let flexer = FlexErModel::fit_from_embeddings(&ctx, &in_parallel.embeddings(), &fcfg)
            .expect("fit flexer");
        Self { ctx, naive, in_parallel, multi_label, flexer }
    }

    /// `(name, predictions)` for the Table 5 model rows, in paper order.
    pub fn rows(&self) -> Vec<(&'static str, &flexer_types::LabelMatrix)> {
        vec![
            ("Naive", &self.naive.predictions),
            ("In-parallel", &self.in_parallel.predictions),
            ("Multi-label", &self.multi_label.predictions),
            ("FlexER", &self.flexer.predictions),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_registry_generates_all() {
        for kind in DatasetKind::ALL {
            let b = kind.generate(Scale::Tiny, 3);
            b.validate().unwrap();
            let (_, _, intents) = kind.paper_cardinalities();
            assert_eq!(b.n_intents(), intents, "{}", kind.name());
        }
    }

    #[test]
    fn paper_tables_are_consistent() {
        for kind in DatasetKind::ALL {
            assert_eq!(kind.paper_table5().len(), 4);
            // Tables 4, 6 and 7 are looked up by the generator's intent
            // names, so they must be those names, in order.
            let names = kind.generate(Scale::Tiny, 3).intents.names().join(" | ");
            let table4: Vec<&str> = kind.paper_positive_rates().iter().map(|r| r.0).collect();
            assert_eq!(table4.join(" | "), names, "{} Table 4", kind.name());
            let mut tables67: Vec<&str> = kind.paper_single_intent().iter().map(|r| r.0).collect();
            tables67.dedup();
            assert_eq!(tables67.join(" | "), names, "{} Tables 6-7", kind.name());
            assert_eq!(kind.paper_single_intent().len(), 3 * tables67.len());
            let (k0, kpos) = kind.paper_table8();
            assert!(kpos > k0, "{}: paper reports k>0 beats k=0", kind.name());
        }
    }

    #[test]
    fn configs_scale_monotonically() {
        let tiny = matcher_config(Scale::Tiny, 0);
        let paper = matcher_config(Scale::Paper, 0);
        assert!(tiny.hidden_dim < paper.hidden_dim);
        assert!(tiny.featurizer.hash_dim < paper.featurizer.hash_dim);
        let gt = gnn_config(Scale::Tiny, 0);
        let gp = gnn_config(Scale::Paper, 0);
        assert!(gt.hidden_dim < gp.hidden_dim);
    }
}
