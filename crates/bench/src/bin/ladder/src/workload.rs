//! The four workloads and the untraced run that measures the end-to-end
//! metrics on one of them.
//!
//! A run is a number of **rounds**. Every round sets a deployment up from
//! nothing (generate, featurize, fit, export, reload, boot) and sends it the
//! same fixed count of operations, one client in a closed loop: the next
//! operation is sent when the previous one has answered. Ingests grow the
//! served state (≈100 pair rows per record on a 600-row graph), so every
//! operation costs more than the one before it; a fresh deployment per round
//! gives every round the same trajectory, and `--seconds` sets the number of
//! rounds, not their length. Each timing metric is a median over the
//! rounds, so a noisy neighbour has to sit on half of them to move it.

use crate::inputs::{self, Corpus, Op, Traffic, Truth, INGEST_BATCH};
use crate::json::Json;
use crate::rung::{self, Answer, Prepared, Rung, RungKind};
use crate::stats;
use crate::trace::Tracer;
use flexer::types::{LabelMatrix, MatchTarget, Scale};
use std::time::Instant;

/// Resolves repeated on the reference implementation: the warm-up pass of
/// a run's first hot set in full, and every n-th resolve.
const VERIFY_ALL: u64 = inputs::HOT_SET as u64;
const VERIFY_EVERY: u64 = 7;

/// Recorded floors: a run below either is wrong, not slow.
pub const MI_F_FLOOR: f64 = 0.80;
pub const EQ_RECALL_FLOOR: f64 = 0.90;

pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub corpus: Corpus,
    pub rung: RungKind,
    /// The operation stream one deployment serves in one round.
    pub traffic: Traffic,
    /// About how long one round takes on the 2-core reference box, set-up
    /// and checks included: `--seconds` over this is the number of rounds.
    pub seconds_per_round: f64,
    /// Whether fitting is the measured work: set-up then ends before the
    /// fit instead of after the boot.
    pub fit_is_measured: bool,
    /// Rounds of the stream the traced pass sends to its one deployment:
    /// enough for ten timed resolves beyond their p95.
    pub traced_rounds: usize,
}

/// The serving corpus all three serving workloads share: 4 000 catalogue
/// records, 600 labelled pairs (360 of them in the training split).
pub const SERVING_CORPUS: Corpus = Corpus::Catalogue { records: 4000, pairs: 600 };

/// The stream both mixed workloads serve in a round.
const MIXED: Traffic = Traffic::Mixed { steps: 10, reads_per_write: 8 };

/// A median needs more than one round whatever `--seconds` says.
const MIN_ROUNDS: usize = 2;

pub static WORKLOADS: [Spec; 4] = [
    Spec {
        name: "batch_fit",
        why: "paper pipeline on AmazonMI small: the only backward passes, batch k-NN graph and \
              whole-dataset blocking; serving is a short tail",
        corpus: Corpus::AmazonMi(Scale::Small),
        rung: RungKind::Single,
        traffic: Traffic::Mixed { steps: 10, reads_per_write: 10 },
        seconds_per_round: 15.0,
        fit_is_measured: true,
        traced_rounds: 2,
    },
    Spec {
        name: "resolve_hot",
        why: "in-process service, 64-title groups cycled so every pair embedding is an LRU hit: \
              GNN forward dominates; matcher and wire are bypassed, writes come after the reads",
        corpus: SERVING_CORPUS,
        rung: RungKind::Single,
        traffic: Traffic::HotThenWrites { cycles: 6, write_batches: 10 },
        seconds_per_round: 3.5,
        fit_is_measured: false,
        traced_rounds: 1,
    },
    Spec {
        name: "serve_mixed",
        why: "2-shard in-process service, never-seen duplicates between ingests: every resolve \
              misses the cache, so matcher embedding and ANN search dominate; writes beside reads",
        corpus: SERVING_CORPUS,
        rung: RungKind::Sharded,
        traffic: MIXED,
        seconds_per_round: 3.5,
        fit_is_measured: false,
        traced_rounds: 3,
    },
    Spec {
        name: "cluster_mixed",
        why: "the serve_mixed stream through RouterClient, Router and 2 shard servers over \
              loopback TCP: the difference to serve_mixed is the wire tier's cost",
        corpus: SERVING_CORPUS,
        rung: RungKind::Cluster,
        traffic: MIXED,
        seconds_per_round: 3.5,
        fit_is_measured: false,
        traced_rounds: 3,
    },
];

impl Spec {
    /// Rounds in a run of nominal length `seconds`.
    pub fn rounds(&self, seconds: f64) -> usize {
        ((seconds / self.seconds_per_round).round() as usize).max(MIN_ROUNDS)
    }

    /// A seconds-long version on a 300-record corpus, for the tests: the
    /// minimum number of rounds, a few operations each.
    pub fn smoke(&self) -> Spec {
        Spec {
            corpus: Corpus::Catalogue { records: 300, pairs: 120 },
            traffic: match self.traffic {
                Traffic::HotThenWrites { .. } => {
                    Traffic::HotThenWrites { cycles: 1, write_batches: 2 }
                }
                Traffic::Mixed { .. } => Traffic::Mixed { steps: 2, reads_per_write: 3 },
            },
            seconds_per_round: f64::INFINITY,
            traced_rounds: 1,
            ..*self
        }
    }

    /// The implementation answers are checked against: the other
    /// in-process service for the in-process rungs, the sharded service for
    /// the networked one.
    fn reference(&self) -> RungKind {
        match self.rung {
            RungKind::Single | RungKind::Cluster => RungKind::Sharded,
            RungKind::Sharded => RungKind::Single,
        }
    }
}

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// What one run of one workload produced.
pub struct Outcome {
    pub correct: bool,
    /// Why the run is not correct, one line per failed check.
    pub problems: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
    /// Sizes and sample counts behind the metrics.
    pub info: Json,
}

impl Outcome {
    /// A run that could not produce its metrics.
    pub fn failed(problem: String) -> Outcome {
        Outcome {
            correct: false,
            problems: vec![problem],
            attempted: 1,
            failed: 1,
            metrics: Vec::new(),
            info: Json::Null,
        }
    }
}

/// A model deployed on the rung under test, beside its reference.
pub struct Deployment {
    pub rung: Rung,
    pub reference: Rung,
}

impl Deployment {
    pub fn shutdown(self) -> Result<(), String> {
        self.reference.shutdown()?;
        self.rung.shutdown()
    }
}

/// Latencies, counts and checks accumulated over a run's operations.
#[derive(Default)]
pub struct Tally {
    /// Every timed resolve and ingest of the run, in order.
    pub resolve_ms: Vec<f64>,
    pub ingest_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub scored: u64,
    pub recalled: u64,
    pub verified: u64,
    pub problems: Vec<String>,
}

impl Tally {
    fn problem(&mut self, text: String) {
        // One line per kind of failure is enough to act on.
        if self.problems.len() < 8 {
            self.problems.push(text);
        }
    }
}

/// Whether the Eq.-intent top-k of `answer` holds a record of `entity`.
pub fn recalls(answer: &Answer, eq_intent: usize, truth: &Truth, entity: u64) -> bool {
    answer[eq_intent].matches.iter().any(|m| match m.target {
        MatchTarget::Record(r) => truth.entity_of(r) == Some(entity),
        _ => false,
    })
}

/// Sends `ops` to the deployment one at a time, timing only the calls into
/// the rung under test. Every ingest is replayed on the reference and its
/// reports compared; so are the answers of a run's first warm-up pass (one
/// whole hot set) and of every [`VERIFY_EVERY`]-th resolve.
pub fn drive(
    ops: &[Op],
    deployment: &mut Deployment,
    eq_intent: usize,
    truth: &mut Truth,
    tally: &mut Tally,
) {
    let tracer = Tracer::disabled();
    for op in ops {
        tally.attempted += 1;
        match op {
            Op::Resolve { title, entity, warm_up } => {
                let t0 = Instant::now();
                let answer = deployment.rung.resolve(title, &tracer);
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                let answer = match answer {
                    Ok(answer) => answer,
                    Err(e) => {
                        tally.failed += 1;
                        tally.problem(format!("resolve failed: {e}"));
                        continue;
                    }
                };
                if !warm_up {
                    tally.resolve_ms.push(ms);
                }
                tally.scored += 1;
                tally.recalled += u64::from(recalls(&answer, eq_intent, truth, *entity));
                if (*warm_up && tally.scored <= VERIFY_ALL)
                    || tally.scored.is_multiple_of(VERIFY_EVERY)
                {
                    tally.verified += 1;
                    if deployment.reference.resolve(title, &tracer).as_ref() != Ok(&answer) {
                        tally.problem(format!("resolve of {title:?} differs from the reference"));
                    }
                }
            }
            Op::Ingest { titles, entities } => {
                let t0 = Instant::now();
                let reports = deployment.rung.ingest(titles);
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                let expected = deployment.reference.ingest(titles);
                match reports {
                    Ok(reports) => {
                        tally.ingest_ms.push(ms);
                        truth.note_ingested(entities);
                        if Ok(&reports) != expected.as_ref() {
                            tally.problem("ingest reports differ from the reference".into());
                        }
                    }
                    Err(e) => {
                        tally.failed += 1;
                        tally.problem(format!("ingest failed: {e}"));
                    }
                }
            }
        }
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
            line.split_whitespace().next()?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// What one round's set-up left behind.
struct Round {
    prepared: Prepared,
    deployment: Deployment,
    snapshot_bytes: usize,
    setup_s: f64,
    fit_s: f64,
    mi_f: f64,
    predictions: LabelMatrix,
}

/// Sets a deployment up from nothing: generate and featurize the corpus,
/// fit, export, reload and boot the rung. The set-up clock stops after the
/// boot — or before the fit on a workload that measures the fit. The
/// reference implementation boots after it has stopped.
fn set_up(spec: &Spec) -> Result<Round, String> {
    let tracer = Tracer::disabled();
    let t0 = Instant::now();
    let prepared = rung::prepare(spec.corpus, &tracer);
    let prepare_s = t0.elapsed().as_secs_f64();
    let trained = rung::train(&prepared, &tracer);
    let exported = rung::export(&prepared, &trained, &tracer);
    let rung = Rung::boot(spec.rung, &exported.snapshot)?;
    let setup_s = if spec.fit_is_measured { prepare_s } else { t0.elapsed().as_secs_f64() };
    let reference = Rung::boot(spec.reference(), &exported.snapshot)?;
    Ok(Round {
        prepared,
        deployment: Deployment { rung, reference },
        snapshot_bytes: exported.bytes,
        setup_s,
        fit_s: trained.fit_s,
        mi_f: trained.mi_f,
        predictions: trained.model.predictions,
    })
}

/// `count / sum` per round, from samples laid end to end: `ends[r]` is the
/// sample count after round `r`.
fn round_rates(samples_ms: &[f64], ends: &[usize], per_sample: usize) -> Vec<f64> {
    let mut start = 0;
    let mut rates = Vec::new();
    for &end in ends {
        let round = &samples_ms[start..end];
        if !round.is_empty() {
            rates.push((round.len() * per_sample) as f64 / (round.iter().sum::<f64>() / 1e3));
        }
        start = end;
    }
    rates
}

/// The untraced run: every end-to-end metric of one workload.
pub fn run(spec: &Spec, seed: u64, seconds: f64) -> Outcome {
    let rounds = spec.rounds(seconds);
    let mut tally = Tally::default();
    let (mut setup_s, mut fit_s) = (Vec::new(), Vec::new());
    let (mut resolve_ends, mut ingest_ends) = (Vec::new(), Vec::new());
    let mut first_fit: Option<LabelMatrix> = None;
    let mut mi_f = f64::NAN;
    let mut sizes = (0, 0, 0, 0);

    for round in 0..rounds {
        // The fit and the boot count as one operation.
        tally.attempted += 1;
        let made = match set_up(spec) {
            Ok(made) => made,
            Err(e) => {
                tally.failed += 1;
                tally.problem(format!("set-up failed: {e}"));
                continue;
            }
        };
        setup_s.push(made.setup_s);
        fit_s.push(made.fit_s);
        mi_f = made.mi_f;
        let Round { prepared, mut deployment, snapshot_bytes, predictions, .. } = made;
        // A fit is a pure function of its inputs: every round must agree.
        if *first_fit.get_or_insert_with(|| predictions.clone()) != predictions {
            tally.problem("two fits of the same inputs predict differently".into());
        }
        let bench = &prepared.ctx.benchmark;
        sizes = (bench.dataset.len(), bench.n_pairs(), bench.n_intents(), snapshot_bytes);
        let ops = inputs::op_stream(bench, spec.traffic, seed, round);
        let mut truth = Truth::new(bench);
        drive(&ops, &mut deployment, inputs::eq_intent(bench), &mut truth, &mut tally);
        resolve_ends.push(tally.resolve_ms.len());
        ingest_ends.push(tally.ingest_ms.len());
        if let Err(e) = deployment.shutdown() {
            tally.problem(e);
        }
    }

    let eq_recall = tally.recalled as f64 / tally.scored.max(1) as f64;
    if mi_f.is_nan() || mi_f < MI_F_FLOOR {
        tally.problem(format!("mi_f {mi_f:.4} is below the floor {MI_F_FLOOR}"));
    }
    if eq_recall < EQ_RECALL_FLOOR {
        tally.problem(format!("eq_recall_at_10 {eq_recall:.4} is below {EQ_RECALL_FLOOR}"));
    }
    let resolve_rates = round_rates(&tally.resolve_ms, &resolve_ends, 1);
    let ingest_rates = round_rates(&tally.ingest_ms, &ingest_ends, INGEST_BATCH);
    if resolve_rates.is_empty() || ingest_rates.is_empty() {
        tally.problem("a metric has no samples".into());
        return Outcome {
            correct: false,
            problems: tally.problems,
            attempted: tally.attempted.max(1),
            failed: tally.failed,
            metrics: Vec::new(),
            info: Json::Null,
        };
    }

    let (n_records, n_pairs, n_intents, snapshot_bytes) = sizes;
    let resolve_ms = stats::sorted(tally.resolve_ms);
    // Every round fits the same corpus — identical work — and a neighbour
    // can only add time to it: the fastest fit is the least disturbed one.
    let best_fit_s = fit_s.iter().copied().fold(f64::INFINITY, f64::min);
    let metrics = vec![
        ("setup_s", stats::median(&setup_s)),
        ("resolve_per_s", stats::median(&resolve_rates)),
        ("resolve_p50_ms", stats::percentile(&resolve_ms, 50.0)),
        ("ingest_records_per_s", stats::median(&ingest_rates)),
        ("eq_recall_at_10", eq_recall),
        ("fit_pairs_per_s", n_pairs as f64 / best_fit_s),
        ("mi_f", mi_f),
        ("peak_rss_mb", peak_rss_mb()),
    ];
    let info = Json::object([
        ("workload", Json::from(spec.name)),
        ("corpus_records", Json::from(n_records)),
        ("labelled_pairs", Json::from(n_pairs)),
        ("n_intents", Json::from(n_intents)),
        ("snapshot_bytes", Json::from(snapshot_bytes)),
        ("rounds", Json::from(rounds)),
        ("operations", Json::from(tally.attempted)),
        ("resolve_samples", Json::from(resolve_ms.len())),
        ("ingest_batch_samples", Json::from(tally.ingest_ms.len())),
        ("fit_samples", Json::from(fit_s.len())),
        ("setup_samples", Json::from(setup_s.len())),
        ("answers_checked_against_reference", Json::from(tally.verified)),
    ]);
    Outcome {
        correct: tally.problems.is_empty(),
        problems: tally.problems,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        info,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::END_TO_END;

    /// Every workload, at smoke size: correct, nothing failed, and exactly
    /// the end-to-end metrics the registry (and `BENCHMARK.json`) names.
    #[test]
    fn every_workload_runs_at_smoke_size() {
        for spec in &WORKLOADS {
            let outcome = run(&spec.smoke(), 17, 1.0);
            assert!(outcome.correct, "{}: {:?}", spec.name, outcome.problems);
            assert_eq!(outcome.failed, 0, "{}", spec.name);
            assert!(outcome.attempted >= 8, "{}", spec.name);
            let names: Vec<&str> = outcome.metrics.iter().map(|(name, _)| *name).collect();
            let expected: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
            assert_eq!(names, expected, "{}", spec.name);
            for (name, value) in &outcome.metrics {
                assert!(value.is_finite() && *value > 0.0, "{}: {name} = {value}", spec.name);
            }
        }
    }

    #[test]
    fn the_same_seed_repeats_the_quality_metrics_exactly() {
        let spec = find("serve_mixed").unwrap().smoke();
        let quality = |outcome: &Outcome| -> Vec<f64> {
            ["mi_f", "eq_recall_at_10"]
                .iter()
                .map(|name| outcome.metrics.iter().find(|(n, _)| n == name).unwrap().1)
                .collect()
        };
        assert_eq!(quality(&run(&spec, 5, 1.0)), quality(&run(&spec, 5, 1.0)));
    }

    #[test]
    fn the_mixed_workloads_share_one_stream_and_one_corpus() {
        let (serve, cluster) = (find("serve_mixed").unwrap(), find("cluster_mixed").unwrap());
        assert_eq!(serve.corpus, cluster.corpus);
        assert_eq!(serve.corpus, find("resolve_hot").unwrap().corpus);
        assert_eq!(serve.corpus, Corpus::Catalogue { records: 4000, pairs: 600 });
        assert_eq!(serve.traffic, cluster.traffic);
        assert_eq!(serve.rounds(10.0), cluster.rounds(10.0));
        // The traced pass's p95 has at least ten samples beyond it.
        for spec in &WORKLOADS {
            let per_round = match spec.traffic {
                Traffic::HotThenWrites { cycles, .. } => cycles * inputs::HOT_SET,
                Traffic::Mixed { steps, reads_per_write } => steps * reads_per_write,
            };
            let timed = spec.traced_rounds * per_round;
            assert!(stats::samples_beyond(timed, 95.0) >= 10, "{}: {timed}", spec.name);
        }
    }

    #[test]
    fn rates_are_taken_round_by_round() {
        // Two rounds: 2 samples in 4 ms, then 1 sample in 4 ms.
        assert_eq!(round_rates(&[1.0, 3.0, 4.0], &[2, 3], 1), [500.0, 250.0]);
        assert_eq!(round_rates(&[2.0], &[0, 1], 4), [2000.0]);
    }
}
