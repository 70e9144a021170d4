//! Shared training plumbing: the pair corpus (tokens + features) and
//! batching. Model selection is `flexer_nn::select`'s.

use crate::augment::augment_pair;
use crate::config::MatcherConfig;
use crate::summarize::DfTable;
use crate::tokenize::{tokenize, Token};
use flexer_nn::SparseMatrix;
use flexer_types::MierBenchmark;
use rand::seq::SliceRandom;
use rand::Rng;

/// A featurized pair corpus: per-pair token lists (for augmentation) plus
/// the precomputed feature matrix all matchers share — the paper trains
/// every intent's matcher on the *same* `C_train`, only labels differ.
#[derive(Debug, Clone)]
pub struct PairCorpus {
    /// Prepared (tokenized + summarized) sides of each candidate pair.
    pub tokens: Vec<(Vec<Token>, Vec<Token>)>,
    /// Corpus document frequencies.
    pub df: DfTable,
    /// The featurizer that produced [`PairCorpus::features`].
    pub featurizer: crate::features::PairFeaturizer,
    /// Feature matrix, row = candidate-pair index.
    pub features: SparseMatrix,
}

impl PairCorpus {
    /// Builds the corpus for a benchmark's candidate set.
    pub fn from_benchmark(bench: &MierBenchmark, config: &MatcherConfig) -> Self {
        let titles: Vec<(String, String)> = (0..bench.n_pairs())
            .map(|i| {
                let (a, b) = bench.pair_titles(i);
                (a.to_string(), b.to_string())
            })
            .collect();
        let docs: Vec<Vec<Token>> = bench.dataset.iter().map(|r| tokenize(r.title())).collect();
        let refs: Vec<&[Token]> = docs.iter().map(|d| d.as_slice()).collect();
        let df = DfTable::build(refs.into_iter());
        Self::build(&titles, df, config)
    }

    /// Builds the corpus from raw title pairs (DF computed from the pairs
    /// themselves).
    pub fn from_titles(titles: &[(String, String)], config: &MatcherConfig) -> Self {
        let docs: Vec<Vec<Token>> =
            titles.iter().flat_map(|(a, b)| [tokenize(a), tokenize(b)]).collect();
        let refs: Vec<&[Token]> = docs.iter().map(|d| d.as_slice()).collect();
        let df = DfTable::build(refs.into_iter());
        Self::build(titles, df, config)
    }

    fn build(titles: &[(String, String)], df: DfTable, config: &MatcherConfig) -> Self {
        let featurizer = config.featurizer.clone();
        let tokens: Vec<(Vec<Token>, Vec<Token>)> = titles
            .iter()
            .map(|(a, b)| (featurizer.prepare(a, &df), featurizer.prepare(b, &df)))
            .collect();
        let mut features = SparseMatrix::with_cols(featurizer.total_dim());
        let mut row = Vec::new();
        for (a, b) in &tokens {
            featurizer.features_into(a, b, &mut row);
            features.push_row_unsorted(&mut row);
        }
        Self { tokens, df, featurizer, features }
    }

    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// Whether the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// Feature row of an *augmented* copy of pair `idx` (span deletion on
    /// one side).
    pub fn augmented_row(&self, idx: usize, rng: &mut impl Rng) -> Vec<(u32, f32)> {
        let (a, b) = &self.tokens[idx];
        let (na, nb) = augment_pair(a, b, rng);
        self.featurizer.features(&na, &nb)
    }

    /// A training batch's feature rows and the corpus pair behind each: the
    /// `batch` rows, then — with `augment` — an augmented copy of each, in
    /// batch order (same labels as its original).
    pub(crate) fn batch(
        &self,
        batch: &[usize],
        augment: bool,
        rng: &mut impl Rng,
    ) -> (SparseMatrix, Vec<usize>) {
        let mut x = self.features.select_rows(batch);
        let mut rows = batch.to_vec();
        if augment {
            for &i in batch {
                x.push_row_unsorted(&mut self.augmented_row(i, rng));
                rows.push(i);
            }
        }
        (x, rows)
    }
}

/// Yields shuffled minibatches of indices.
pub fn minibatches(indices: &[usize], batch_size: usize, rng: &mut impl Rng) -> Vec<Vec<usize>> {
    let mut order: Vec<usize> = indices.to_vec();
    order.shuffle(rng);
    order.chunks(batch_size.max(1)).map(|c| c.to_vec()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn corpus() -> PairCorpus {
        let titles = vec![
            ("Nike Air Max 2016 Running Shoe".to_string(), "NIKE air max 2016 running".to_string()),
            ("Adidas D Rose 6 Basketball".to_string(), "The Last Winter's End".to_string()),
            ("Canon EOS R5 Camera".to_string(), "canon eos r5 mirrorless camera".to_string()),
        ];
        PairCorpus::from_titles(&titles, &MatcherConfig::fast())
    }

    #[test]
    fn corpus_shapes() {
        let c = corpus();
        assert_eq!(c.len(), 3);
        assert_eq!(c.features.rows(), 3);
        assert_eq!(c.features.cols(), c.featurizer.total_dim());
        assert!(!c.is_empty());
    }

    #[test]
    fn augmented_row_differs_but_same_space() {
        let c = corpus();
        let mut rng = StdRng::seed_from_u64(4);
        let aug = c.augmented_row(0, &mut rng);
        for (i, _) in &aug {
            assert!((*i as usize) < c.featurizer.total_dim());
        }
        let (orig_cols, _) = c.features.row(0);
        let aug_cols: Vec<u32> = aug.iter().map(|(i, _)| *i).collect();
        assert_ne!(orig_cols.to_vec(), aug_cols);
    }

    #[test]
    fn minibatches_partition() {
        let idx: Vec<usize> = (0..10).collect();
        let mut rng = StdRng::seed_from_u64(0);
        let batches = minibatches(&idx, 3, &mut rng);
        assert_eq!(batches.len(), 4);
        let mut all: Vec<usize> = batches.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, idx);
    }
}
