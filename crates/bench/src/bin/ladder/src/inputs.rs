//! Everything the program under test receives: the labelled corpus a model
//! is fitted on, and the stream of titles the serving rungs are asked to
//! resolve and ingest. The product sees only titles and labels, never the
//! generator or the ground truth kept here for scoring.
//!
//! As in a database benchmark, the data set is fixed by its scale and the
//! traffic is drawn from `--seed`: the same seed gives the same operation
//! stream. A corpus drawn afresh per seed would move every quality metric
//! by its own sampling error (MI-F on a 120-pair test split moves by
//! several percent between corpora), which is noise no product change
//! causes.

use flexer::core::FlexErConfig;
use flexer::datasets::catalog::{Catalog, CatalogConfig, RecordCountDist};
use flexer::datasets::intents::IntentDef;
use flexer::datasets::mixture::{assemble_benchmark, component, sample_candidate_pairs, PairClass};
use flexer::datasets::perturb::{perturb_title, NoiseConfig};
use flexer::datasets::taxonomy::{amazonmi_spec, Taxonomy, TaxonomyConfig};
use flexer::datasets::AmazonMiConfig;
use flexer::types::{EntityId, EntityMap, MierBenchmark, Scale};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// Ranked matches asked for per intent.
pub const TOP_K: usize = 10;
/// Titles per `ingest_batch` call.
pub const INGEST_BATCH: usize = 4;
/// Distinct corpus titles one hot group cycles through.
pub const HOT_SET: usize = 64;
/// Seed of the fixed corpora (and of the model fitted on them).
pub const CORPUS_SEED: u64 = 17;

/// Which labelled corpus a workload fits and serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corpus {
    /// A product catalogue served under three intents (Eq. / Brand /
    /// Main-Cat.), with `pairs` labelled candidate pairs split 3:1:1.
    Catalogue { records: usize, pairs: usize },
    /// The paper's AmazonMI benchmark (five intents) at a scale preset.
    AmazonMi(Scale),
}

/// The shape of the operation stream one deployment serves in one round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// One hot set of [`HOT_SET`] corpus titles — one warm-up pass, then
    /// `cycles` timed passes — then `write_batches` ingest calls. Every
    /// round of a run reads another hot set, because the cost of a resolve
    /// follows its candidate count and 64 titles are too few to pin the
    /// median of that. The writes come last so that no read sees a grown
    /// corpus: every pair embedding a timed read needs is in the LRU.
    HotThenWrites { cycles: usize, write_batches: usize },
    /// `steps` × {`reads_per_write` resolves of never-seen perturbed
    /// duplicates, then one ingest call}.
    Mixed { steps: usize, reads_per_write: usize },
}

/// One operation of the stream, with the ground truth needed to score it.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// `warm_up` resolves fill the embedding cache and are not timed.
    Resolve {
        title: String,
        entity: EntityId,
        warm_up: bool,
    },
    Ingest {
        titles: Vec<String>,
        entities: Vec<EntityId>,
    },
}

impl Op {
    /// The title and true entity of a resolve; `None` for an ingest.
    pub fn as_resolve(&self) -> Option<(&str, EntityId)> {
        match self {
            Op::Resolve { title, entity, .. } => Some((title, *entity)),
            Op::Ingest { .. } => None,
        }
    }
}

/// The model configuration every workload fits with: the repository's fast
/// preset (fixed epoch counts, so every fit is the same amount of work),
/// k = 6, and the default q-gram blocker.
pub fn config() -> FlexErConfig {
    FlexErConfig::fast().with_k(6).with_seed(CORPUS_SEED)
}

pub fn generate(corpus: Corpus) -> MierBenchmark {
    let seed = CORPUS_SEED;
    match corpus {
        Corpus::AmazonMi(scale) => AmazonMiConfig::at_scale(scale).with_seed(seed).generate(),
        Corpus::Catalogue { records, pairs } => {
            let mut rng = StdRng::seed_from_u64(seed);
            let taxonomy =
                Taxonomy::from_spec(&amazonmi_spec(), TaxonomyConfig::at_scale(Scale::Small));
            let catalog = Catalog::generate(
                taxonomy,
                &CatalogConfig {
                    n_records: records,
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
                pairs,
                &mut rng,
            );
            assemble_benchmark(
                "ladder-catalogue",
                &catalog,
                &[
                    (IntentDef::Equivalence, "Eq."),
                    (IntentDef::SameBrand, "Brand"),
                    (IntentDef::SameMainCategory, "Main-Cat."),
                ],
                sampled.candidates,
                seed,
            )
        }
    }
}

/// The equivalence intent: the one served quality is scored under.
pub fn eq_intent(bench: &MierBenchmark) -> usize {
    bench.intents.equivalence_id().expect("both corpora declare Eq.")
}

fn eq_map(bench: &MierBenchmark) -> &EntityMap {
    &bench.entity_maps[eq_intent(bench)]
}

/// Builds the operation stream of round `round` of a run. Titles are drawn
/// before anything is timed, and depend on the seed and the round only —
/// never on what a rung answered.
pub fn op_stream(bench: &MierBenchmark, traffic: Traffic, seed: u64, round: usize) -> Vec<Op> {
    let seed = seed ^ 0x6c61_6464_6572;
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(round as u64).wrapping_mul(0x9e37_79b9));
    let mut writer = TitleWriter::new(bench);
    let mut ops = Vec::new();
    match traffic {
        Traffic::HotThenWrites { cycles, write_batches } => {
            // One shuffle per seed, cut into disjoint hot sets: round r
            // reads the r-th.
            let mut records: Vec<usize> = (0..bench.dataset.len()).collect();
            records.shuffle(&mut StdRng::seed_from_u64(seed));
            let n_sets = records.len() / HOT_SET;
            let group = &records[round % n_sets * HOT_SET..][..HOT_SET];
            for pass in 0..=cycles {
                for &r in group {
                    ops.push(Op::Resolve {
                        title: bench.dataset.records()[r].title().to_string(),
                        entity: writer.entity_of(r),
                        warm_up: pass == 0,
                    });
                }
            }
            for _ in 0..write_batches {
                ops.push(writer.ingest(&mut rng));
            }
        }
        Traffic::Mixed { steps, reads_per_write } => {
            for _ in 0..steps {
                for _ in 0..reads_per_write {
                    let (title, entity) = writer.fresh_duplicate(&mut rng);
                    ops.push(Op::Resolve { title, entity, warm_up: false });
                }
                ops.push(writer.ingest(&mut rng));
            }
        }
    }
    ops
}

/// Draws perturbed duplicates of corpus records that no earlier operation
/// and no corpus record has used as a title, so a resolve of one can hit
/// no cached pair embedding.
struct TitleWriter<'a> {
    bench: &'a MierBenchmark,
    used: HashSet<String>,
    drawn: usize,
}

impl<'a> TitleWriter<'a> {
    fn new(bench: &'a MierBenchmark) -> Self {
        let used = bench.dataset.iter().map(|r| r.title().to_string()).collect();
        Self { bench, used, drawn: 0 }
    }

    fn entity_of(&self, record: usize) -> EntityId {
        eq_map(self.bench).entity_of(record).expect("record ids come from the dataset")
    }

    fn fresh_duplicate(&mut self, rng: &mut StdRng) -> (String, EntityId) {
        let n = self.bench.dataset.len();
        loop {
            let record = rng.gen_range(0..n);
            self.drawn += 1;
            let suffix = format!("lot {}", self.drawn);
            let base = self.bench.dataset.records()[record].title();
            let title = perturb_title(base, &suffix, NoiseConfig::default(), rng);
            if self.used.insert(title.clone()) {
                return (title, self.entity_of(record));
            }
        }
    }

    fn ingest(&mut self, rng: &mut StdRng) -> Op {
        let (titles, entities) = (0..INGEST_BATCH).map(|_| self.fresh_duplicate(rng)).unzip();
        Op::Ingest { titles, entities }
    }
}

/// Ground truth for scoring served answers: the corpus's equivalence map,
/// extended by every ingested record (rungs number records sequentially).
pub struct Truth {
    base: EntityMap,
    ingested: Vec<EntityId>,
}

impl Truth {
    pub fn new(bench: &MierBenchmark) -> Self {
        Self { base: eq_map(bench).clone(), ingested: Vec::new() }
    }

    pub fn note_ingested(&mut self, entities: &[EntityId]) {
        self.ingested.extend_from_slice(entities);
    }

    pub fn entity_of(&self, record: usize) -> Option<EntityId> {
        match record.checked_sub(self.base.len()) {
            None => self.base.entity_of(record).ok(),
            Some(i) => self.ingested.get(i).copied(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: Corpus = Corpus::Catalogue { records: 300, pairs: 90 };

    #[test]
    fn the_same_seed_gives_the_same_inputs() {
        let traffic = Traffic::Mixed { steps: 3, reads_per_write: 4 };
        let (a, b) = (generate(TINY), generate(TINY));
        assert_eq!(a.dataset.records(), b.dataset.records());
        assert_eq!(a.labels, b.labels);
        assert_eq!(op_stream(&a, traffic, 5, 0), op_stream(&b, traffic, 5, 0));
        assert_ne!(op_stream(&a, traffic, 5, 0), op_stream(&a, traffic, 6, 0));
        assert_ne!(op_stream(&a, traffic, 5, 0), op_stream(&a, traffic, 5, 1));
    }

    #[test]
    fn mixed_titles_are_never_seen_before() {
        let bench = generate(TINY);
        let ops = op_stream(&bench, Traffic::Mixed { steps: 5, reads_per_write: 8 }, 9, 0);
        assert_eq!(ops.len(), 5 * 9);
        let mut seen: HashSet<&str> = bench.dataset.iter().map(|r| r.title()).collect();
        for op in &ops {
            match op {
                Op::Resolve { title, warm_up, .. } => {
                    assert!(!warm_up && seen.insert(title), "repeated {title}")
                }
                Op::Ingest { titles, entities } => {
                    assert_eq!((titles.len(), entities.len()), (INGEST_BATCH, INGEST_BATCH));
                    for title in titles {
                        assert!(seen.insert(title), "repeated {title}");
                    }
                }
            }
        }
    }

    #[test]
    fn hot_traffic_cycles_one_set_and_writes_last() {
        let bench = generate(TINY);
        let traffic = Traffic::HotThenWrites { cycles: 2, write_batches: 2 };
        let ops = op_stream(&bench, traffic, 2, 0);
        assert_eq!(ops.len(), 3 * HOT_SET + 2);
        let title = |op: &Op| match op {
            Op::Resolve { title, warm_up, .. } => (title.clone(), *warm_up),
            Op::Ingest { .. } => panic!("reads come first"),
        };
        // The next round reads a disjoint hot set.
        let next = op_stream(&bench, traffic, 2, 1);
        let next: HashSet<String> = next[..HOT_SET].iter().map(|op| title(op).0).collect();
        for i in 0..HOT_SET {
            // Pass 0 warms, passes 1 and 2 repeat it timed.
            assert_eq!(title(&ops[i]), (title(&ops[i + HOT_SET]).0, true));
            assert_eq!(title(&ops[i + HOT_SET]), title(&ops[i + 2 * HOT_SET]));
            assert!(!next.contains(&title(&ops[i]).0));
        }
        assert!(ops[3 * HOT_SET..].iter().all(|op| matches!(op, Op::Ingest { .. })));
    }

    #[test]
    fn truth_covers_ingested_records() {
        let bench = generate(TINY);
        let n = bench.dataset.len();
        let mut truth = Truth::new(&bench);
        assert_eq!(truth.entity_of(n), None);
        truth.note_ingested(&[77, 78]);
        assert_eq!(truth.entity_of(n + 1), Some(78));
        assert_eq!(truth.entity_of(0), eq_map(&bench).entity_of(0).ok());
    }
}
