//! The traced pass: per-layer metrics, measured from outside the product.
//!
//! It runs a few rounds of the workload's operation stream on **all three
//! rungs in lockstep** — the same operation goes to the in-process service,
//! the sharded service and the router tree back to back, every round on
//! fresh deployments as in the untraced run — so the difference between two
//! adjacent rungs on identical queries at identical state *is* the upper
//! rung's overhead. It then times each layer's public functions at the
//! shapes and counts the last round's reads ended with. Spans wrap every rung
//! call and every probe; nothing here feeds an end-to-end metric.

use crate::inputs::{self, Op, Traffic, Truth, HOT_SET, INGEST_BATCH, TOP_K};
use crate::json::Json;
use crate::rung::{self, Prepared, Rung, RungKind, Trained};
use crate::stats;
use crate::trace::Tracer;
use crate::workload::{recalls, Outcome, Spec};
use flexer::ann::{knn_graph, AnyIndex, VectorIndex};
use flexer::block::BlockerState;
use flexer::graph::{build_intent_graph, train_for_intent, NeighborArena, RowSource};
use flexer::nn::loss::softmax_cross_entropy;
use flexer::nn::{Adam, AdamConfig, Matrix, SparseMatrix};
use flexer::serve::LruCache;
use flexer::store::{decode_frame, frame_message, read_message, write_message, ModelSnapshot};
use flexer::types::{
    CandidateGenConfig, ResolveQuery, RouterRequest, RouterResponse, ShardRequest, ShardResponse,
    WireQuery,
};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Fresh never-seen titles for the end-state probes.
const PROBE_TITLES: usize = 32;
/// Passes over the probe titles for the tracing-overhead comparison.
const OVERHEAD_PASSES: usize = 3;

/// Seconds `f` takes, best of `repeats` (a probe times a pure function;
/// the minimum is the run least disturbed by the other core's tenant).
fn time_best<T>(repeats: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..repeats {
        let t0 = Instant::now();
        let out = black_box(f());
        best = best.min(t0.elapsed().as_secs_f64());
        last = Some(out);
    }
    (best, last.expect("repeats >= 1"))
}

fn time_once<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let out = black_box(f());
    (t0.elapsed().as_secs_f64(), out)
}

/// Deterministic filler in [-1, 1) for probe inputs whose values do not
/// matter (dense kernels run the same arithmetic on any finite input).
fn filler(rows: usize, cols: usize) -> Matrix {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    Matrix::from_fn(rows, cols, |_, _| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
    })
}

/// The three rungs driven in lockstep, with the per-rung latencies they
/// produced (index-aligned across rungs) and everything found wrong.
struct Lockstep<'a> {
    /// In-process, sharded, networked — in that order.
    rungs: [Rung; 3],
    truth: Truth,
    eq_intent: usize,
    tracer: &'a Tracer,
    /// `resolve_us[rung][i]`, warm-up excluded.
    resolve_us: [Vec<f64>; 3],
    /// `ingest_us[rung][i]`, one per batch.
    ingest_us: [Vec<f64>; 3],
    ingested_titles: Vec<String>,
    attempted: u64,
    failed: u64,
    scored: u64,
    recalled: u64,
    problems: Vec<String>,
}

const RESOLVE_SPANS: [&str; 3] =
    ["rung.single.resolve", "rung.sharded.resolve", "rung.cluster.resolve"];
const INGEST_SPANS: [&str; 3] =
    ["rung.single.ingest", "rung.sharded.ingest", "rung.cluster.ingest"];

impl Lockstep<'_> {
    /// Makes the same call on every rung back to back, each under its span.
    /// Returns the (common) answer and the three times in µs when all three
    /// answered; a rung that answers differently is a problem.
    fn on_all<T: PartialEq>(
        &mut self,
        spans: [&'static str; 3],
        mut call: impl FnMut(&mut Rung, &Tracer) -> Result<T, String>,
    ) -> Option<(T, [f64; 3])> {
        let mut answers = Vec::new();
        let mut times = [0.0; 3];
        for (r, rung) in self.rungs.iter_mut().enumerate() {
            self.attempted += 1;
            let _span = self.tracer.span(spans[r]);
            let (s, answer) = time_once(|| call(rung, self.tracer));
            times[r] = s * 1e6;
            match answer {
                Ok(answer) => answers.push(answer),
                Err(e) => {
                    self.failed += 1;
                    self.problems.push(format!("{}: {e}", spans[r]));
                }
            }
        }
        self.problems.truncate(8);
        if answers.len() < 3 {
            return None;
        }
        if answers[1] != answers[0] || answers[2] != answers[0] {
            self.problems.push(format!("{} and its siblings answer differently", spans[0]));
        }
        Some((answers.swap_remove(0), times))
    }

    /// Winds the rungs down and goes on with freshly booted ones.
    fn redeploy(&mut self, rungs: [Rung; 3], truth: Truth) {
        for rung in std::mem::replace(&mut self.rungs, rungs) {
            if let Err(e) = rung.shutdown() {
                self.problems.push(e);
            }
        }
        self.truth = truth;
        self.ingested_titles.clear();
    }

    /// Sends every operation to the three rungs; `first_request` numbers
    /// the spans of the first one.
    fn drive(&mut self, ops: &[Op], first_request: usize) {
        for (request, op) in ops.iter().enumerate() {
            self.tracer.set_request((first_request + request) as u64);
            match op {
                Op::Resolve { title, entity, warm_up } => {
                    let Some((answer, times)) =
                        self.on_all(RESOLVE_SPANS, |rung, tracer| rung.resolve(title, tracer))
                    else {
                        continue;
                    };
                    self.scored += 1;
                    self.recalled +=
                        u64::from(recalls(&answer, self.eq_intent, &self.truth, *entity));
                    if !warm_up {
                        for (samples, us) in self.resolve_us.iter_mut().zip(times) {
                            samples.push(us);
                        }
                    }
                }
                Op::Ingest { titles, entities } => {
                    let Some((_, times)) = self.on_all(INGEST_SPANS, |rung, _| rung.ingest(titles))
                    else {
                        continue;
                    };
                    self.truth.note_ingested(entities);
                    self.ingested_titles.extend(titles.iter().cloned());
                    for (samples, us) in self.ingest_us.iter_mut().zip(times) {
                        samples.push(us);
                    }
                }
            }
        }
    }
}

/// Median of the paired differences `upper[i] - lower[i]`.
fn median_diff(upper: &[f64], lower: &[f64]) -> f64 {
    let diffs: Vec<f64> = upper.iter().zip(lower).map(|(u, l)| u - l).collect();
    stats::median(&diffs)
}

/// What the upper rung adds at the median: the difference of the two
/// medians over identical operations, which is what the gap between two
/// workloads' p50 metrics is made of.
fn p50_gap(upper: &[f64], lower: &[f64]) -> f64 {
    stats::median(upper) - stats::median(lower)
}

fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// The traced pass of one workload. Its length is fixed: `--seconds` sets
/// the number of rounds of the untraced run only.
pub fn run(spec: &Spec, seed: u64) -> Outcome {
    let tracer = Tracer::enabled();
    let mut m: Vec<(&'static str, f64)> = Vec::new();

    // --- Set-up, once, with every stage under a span.
    let prepared = rung::prepare(spec.corpus, &tracer);
    let trained = rung::train(&prepared, &tracer);
    let exported = rung::export(&prepared, &trained, &tracer);
    m.push(("datasets.generate_s", prepared.generate_s));
    m.push(("core.context_s", prepared.context_s));
    m.push(("matcher.fit_s", trained.matcher_fit_s));
    m.push(("eval.score_ms", trained.score_s * 1e3));
    m.push(("store.snapshot_encode_ms", exported.encode_s * 1e3));
    m.push(("store.snapshot_decode_ms", exported.decode_s * 1e3));
    m.push(("store.snapshot_bytes", exported.bytes as f64));
    m.push(("par.threads", flexer::par::max_threads() as f64));
    fit_probes(&prepared, &trained, &exported.snapshot, &tracer, &mut m);

    // --- The three rungs over the same snapshot.
    let boot = |kind| Rung::boot(kind, &exported.snapshot);
    let beside = |cluster: Result<Rung, String>| match (
        boot(RungKind::Single),
        boot(RungKind::Sharded),
        cluster,
    ) {
        (Ok(single), Ok(sharded), Ok(cluster)) => Some([single, sharded, cluster]),
        _ => None,
    };
    let (boot_s, cluster) = time_once(|| {
        let _span = tracer.span("serve.router.boot");
        boot(RungKind::Cluster)
    });
    m.push(("serve.router.boot_s", boot_s));
    let Some(rungs) = beside(cluster) else {
        return Outcome::failed("a rung failed to boot".into());
    };

    // --- The workload's rounds, on all three in lockstep. As in the
    // untraced run every round has deployments of its own, so the rungs are
    // compared along the state trajectory the end-to-end metrics saw.
    let bench = &prepared.ctx.benchmark;
    let traffic = spec.traffic;
    let mut lock = Lockstep {
        rungs,
        truth: Truth::new(bench),
        eq_intent: inputs::eq_intent(bench),
        tracer: &tracer,
        resolve_us: Default::default(),
        ingest_us: Default::default(),
        ingested_titles: Vec::new(),
        attempted: 0,
        failed: 0,
        scored: 0,
        recalled: 0,
        problems: Vec::new(),
    };
    let last_round = spec.traced_rounds - 1;
    let mut request = 0;
    for round in 0..last_round {
        let ops = inputs::op_stream(bench, traffic, seed, round);
        lock.drive(&ops, request);
        request += ops.len();
        let Some(rungs) = beside(boot(RungKind::Cluster)) else {
            return Outcome::failed("a rung failed to boot".into());
        };
        lock.redeploy(rungs, Truth::new(bench));
    }
    // The last round first runs up to its last read, so that the probes
    // below see the state the reads ran at (a hot workload's trailing
    // writes would grow it).
    let ops = inputs::op_stream(bench, traffic, seed, last_round);
    let reads_end =
        ops.iter().rposition(|op| matches!(op, Op::Resolve { .. })).map_or(0, |i| i + 1);
    lock.drive(&ops[..reads_end], request);

    // --- Probes of the in-process service at that state. The hot titles
    // are the last group read: its pair embeddings are still cached.
    let hot_titles: Vec<&str> = ops[..reads_end]
        .iter()
        .rev()
        .filter_map(Op::as_resolve)
        .map(|(title, _)| title)
        .take(HOT_SET)
        .collect();
    let fresh = inputs::op_stream(
        bench,
        Traffic::Mixed { steps: 1, reads_per_write: PROBE_TITLES },
        seed ^ 0x0070_726f_6265,
        0,
    );
    let fresh_titles: Vec<(&str, u64)> = fresh.iter().filter_map(Op::as_resolve).collect();
    let [single, _, cluster] = &mut lock.rungs;
    let mut first_us = Vec::new();
    let mut repeat_us = Vec::new();
    for (title, _) in &fresh_titles {
        for samples in [&mut first_us, &mut repeat_us] {
            let _span = tracer.span("probe.serve.service.resolve");
            let (s, answer) = time_once(|| single.resolve(title, &tracer));
            if answer.is_err() {
                lock.problems.push(format!("probe resolve of {title:?} failed"));
            }
            samples.push(s * 1e6);
        }
    }
    m.push(("serve.service.cold_penalty_us", median_diff(&first_us, &repeat_us)));
    let hot = matches!(traffic, Traffic::HotThenWrites { .. });
    let resolve_us = if hot {
        // The fresh titles above took cache room: one unmeasured pass
        // re-warms the hot set.
        for title in &hot_titles {
            let _ = single.resolve(title, &tracer);
        }
        let samples: Vec<f64> = hot_titles
            .iter()
            .map(|title| {
                let _span = tracer.span("probe.serve.service.resolve");
                time_once(|| single.resolve(title, &tracer)).0 * 1e6
            })
            .collect();
        stats::median(&samples)
    } else {
        stats::median(&first_us)
    };
    m.push(("serve.service.resolve_us", resolve_us));

    // --- Layer probes at the same state.
    let final_pairs = match single {
        Rung::Single(service) => service.n_pairs(),
        _ => unreachable!("rungs[0] is the in-process service"),
    };
    let probe_titles: Vec<(&str, u64)> = if hot {
        hot_titles.iter().take(PROBE_TITLES).map(|t| (*t, u64::MAX)).collect()
    } else {
        fresh_titles.clone()
    };
    let layers = layer_probes(
        &exported.snapshot,
        &lock.ingested_titles,
        final_pairs,
        &probe_titles,
        &lock.truth,
        &tracer,
        &mut m,
    );
    // A never-seen title misses the embedding cache on every candidate;
    // each miss is embedded and inserted into the LRU, which costs an
    // eviction once the stream's misses have filled it.
    let miss_share = if hot { 0.0 } else { 1.0 };
    let round_resolves = ops[..reads_end].iter().filter_map(Op::as_resolve).count();
    let cache_insert_us = cache_probe(&tracer, &mut m);
    let cache_full =
        layers.candidates * round_resolves as f64 >= rung::serve_config().cache_capacity as f64;
    let miss_us = layers.embed_us_per_pair + if cache_full { cache_insert_us } else { 0.0 };
    let predicted_us = layers.block_query_us
        + miss_share * layers.candidates * miss_us
        + layers.searches_per_resolve * layers.search_us
        + layers.rows_per_resolve * layers.forward_us_per_row;
    m.push(("serve.service.unattributed_share", 1.0 - predicted_us / resolve_us));

    wire_probes(
        &exported.snapshot,
        single,
        cluster,
        probe_titles[0].0,
        &tracer,
        &mut m,
        &mut lock.problems,
    );

    // --- What tracing itself costs: the same cached resolves with the
    // recorder off and on, alternating which goes first.
    let off = Tracer::disabled();
    let mut samples: [Vec<f64>; 2] = Default::default();
    for pass in 0..=OVERHEAD_PASSES {
        for (i, title) in hot_titles.iter().take(PROBE_TITLES).enumerate() {
            for turn in 0..2 {
                let traced = (pass + i + turn) % 2;
                let t = [&off, &tracer][traced];
                let t0 = Instant::now();
                let span = t.span("probe.trace_overhead.resolve");
                let _ = black_box(single.resolve(title, t));
                drop(span);
                // Pass 0 re-warms the cache and is not measured.
                if pass > 0 {
                    samples[traced].push(t0.elapsed().as_secs_f64() * 1e3);
                }
            }
        }
    }
    let [plain_p50, traced_p50] = samples.map(|s| stats::median(&s));
    m.push(("trace_overhead_share", (traced_p50 - plain_p50) / plain_p50));

    // --- The rest of the stream, then what each rung adds to the one below.
    lock.drive(&ops[reads_end..], request + reads_end);
    if lock.resolve_us[0].is_empty() || lock.ingest_us[0].is_empty() {
        return Outcome::failed("the lockstep stream produced no samples".into());
    }
    let per_record = INGEST_BATCH as f64;
    m.push(("serve.service.ingest_us_per_record", stats::median(&lock.ingest_us[0]) / per_record));
    m.push(("serve.shard.resolve_overhead_us", p50_gap(&lock.resolve_us[1], &lock.resolve_us[0])));
    m.push(("serve.shard.ingest_overhead_us", p50_gap(&lock.ingest_us[1], &lock.ingest_us[0])));
    m.push(("serve.router.resolve_overhead_us", p50_gap(&lock.resolve_us[2], &lock.resolve_us[1])));
    // Per record from the means: the reciprocal of a records-per-second
    // rate is a mean, so this is what the two rates differ by.
    m.push((
        "serve.router.ingest_overhead_us_per_record",
        (mean(&lock.ingest_us[2]) - mean(&lock.ingest_us[1])) / per_record,
    ));
    m.push(("serve.router.calls_per_resolve", exported.snapshot.n_intents() as f64));
    // The tail and the per-batch view of the workload's own rung.
    let own = match spec.rung {
        RungKind::Single => 0,
        RungKind::Sharded => 1,
        RungKind::Cluster => 2,
    };
    let own_resolves = stats::sorted(lock.resolve_us[own].clone());
    m.push(("resolve_p95_ms", stats::percentile(&own_resolves, 95.0) / 1e3));
    m.push(("ingest_batch_p50_ms", stats::median(&lock.ingest_us[own]) / 1e3));

    // --- Wind down; the trace goes to disk last.
    let Lockstep { rungs, mut problems, .. } = lock;
    for rung in rungs {
        if let Err(e) = rung.shutdown() {
            problems.push(e);
        }
    }
    let trace_path = write_trace(&tracer);
    let eq_recall = lock.recalled as f64 / lock.scored.max(1) as f64;
    let info = Json::object([
        ("workload", Json::from(spec.name)),
        ("lockstep_rounds", Json::from(spec.traced_rounds)),
        ("lockstep_operations_per_rung", Json::from(request + ops.len())),
        ("lockstep_resolve_samples", Json::from(lock.resolve_us[0].len())),
        (
            "resolve_samples_beyond_p95",
            Json::from(stats::samples_beyond(lock.resolve_us[0].len(), 95.0)),
        ),
        ("lockstep_ingest_samples", Json::from(lock.ingest_us[0].len())),
        ("final_pairs", Json::from(final_pairs)),
        ("eq_recall_at_10", Json::from(eq_recall)),
        ("spans", Json::from(tracer.n_spans())),
        ("trace_file", trace_path.map_or(Json::Null, Json::from)),
    ]);
    Outcome {
        correct: problems.is_empty(),
        problems,
        attempted: lock.attempted,
        failed: lock.failed,
        metrics: m,
        info,
    }
}

fn write_trace(tracer: &Tracer) -> Option<String> {
    let path = "target/ladder_trace.json";
    std::fs::create_dir_all("target").ok()?;
    std::fs::write(path, tracer.to_json().render()).ok()?;
    Some(path.to_string())
}

/// Batch-pipeline layers, timed once more in isolation.
fn fit_probes(
    prepared: &Prepared,
    trained: &Trained,
    snapshot: &ModelSnapshot,
    tracer: &Tracer,
    m: &mut Vec<(&'static str, f64)>,
) {
    let ctx = &prepared.ctx;
    let (build_s, graph) = {
        let _span = tracer.span("probe.graph.build");
        time_once(|| build_intent_graph(&trained.base.embeddings(), prepared.config.k))
    };
    m.push(("graph.build_s", build_s));
    let (fit_s, _) = {
        let _span = tracer.span("probe.graph.fit");
        time_once(|| {
            train_for_intent(
                &graph,
                0,
                &ctx.benchmark.labels.column(0),
                &ctx.train_idx(),
                &ctx.valid_idx(),
                &prepared.config.gnn,
            )
        })
    };
    m.push(("graph.fit_s", fit_s));
    if let AnyIndex::Flat(flat) = &snapshot.indexes[0] {
        let _span = tracer.span("probe.ann.knn_graph");
        m.push(("ann.knn_graph_s", time_once(|| knn_graph(flat, snapshot.k)).0));
    }
    let titles = snapshot.records.iter().map(String::as_str);
    let _span = tracer.span("probe.block.generate");
    let config = snapshot.blocker.gen_config();
    m.push(("block.generate_s", time_once(|| BlockerState::build(&config, titles)).0));
    drop(_span);

    // One optimizer step of a matcher head, at the matcher's batch size.
    let mut mlp = snapshot.matchers[0].head().clone();
    let x = filler(prepared.config.matcher.batch_size, mlp.layer(0).in_dim());
    let targets: Vec<usize> = (0..x.rows()).map(|i| i % 2).collect();
    let mut opt = Adam::new(AdamConfig::default());
    let _span = tracer.span("probe.nn.train_step");
    let (step_s, _) = time_best(20, || {
        mlp.zero_grad();
        let trace = mlp.forward_trace(&x);
        let (_, grad) = softmax_cross_entropy(trace.output(), &targets, None);
        mlp.backward(&trace, &grad);
        mlp.apply(&mut opt, 0)
    });
    m.push(("nn.train_step_ms", step_s * 1e3));
}

/// Unit costs and counts of one resolve, layer by layer.
struct LayerCosts {
    block_query_us: f64,
    candidates: f64,
    embed_us_per_pair: f64,
    search_us: f64,
    searches_per_resolve: f64,
    forward_us_per_row: f64,
    rows_per_resolve: f64,
}

/// Rebuilds, outside the service, the state a resolve runs against at the
/// end of the stream — blocker with every ingested title, ANN indexes and
/// pinned states grown to the final pair count — and times each layer's
/// public entry point on the probe titles.
fn layer_probes(
    snapshot: &ModelSnapshot,
    ingested: &[String],
    final_pairs: usize,
    probe_titles: &[(&str, u64)],
    truth: &Truth,
    tracer: &Tracer,
    m: &mut Vec<(&'static str, f64)>,
) -> LayerCosts {
    let p = snapshot.n_intents();
    let dim = snapshot.graph.dim;
    let k = snapshot.k;

    // block: grow the snapshot's blocker through the stream's ingests.
    let mut blocker = snapshot.blocker.clone();
    let mut records = snapshot.records.clone();
    let (insert_s, ()) = {
        let _span = tracer.span("probe.block.insert");
        time_once(|| ingested.iter().for_each(|title| blocker.insert(title)))
    };
    records.extend(ingested.iter().cloned());
    m.push(("block.insert_us", insert_s * 1e6 / ingested.len().max(1) as f64));
    let mut query_us = Vec::new();
    let mut candidate_sets: Vec<Vec<usize>> = Vec::new();
    for (title, _) in probe_titles {
        let _span = tracer.span("probe.block.query");
        let (s, candidates) = time_best(3, || blocker.candidates(title));
        query_us.push(s * 1e6);
        candidate_sets.push(candidates.unwrap_or_else(|| (0..records.len()).collect()));
    }
    let block_query_us = stats::median(&query_us);
    let candidates =
        candidate_sets.iter().map(Vec::len).sum::<usize>() as f64 / candidate_sets.len() as f64;
    m.push(("block.query_us", block_query_us));
    m.push(("block.candidates_per_query", candidates));
    // The blocker's recall on the probe titles caps served recall. Hot
    // titles are corpus records and always recall themselves.
    let with_truth: Vec<bool> = probe_titles
        .iter()
        .zip(&candidate_sets)
        .filter(|((_, entity), _)| *entity != u64::MAX)
        .map(|((_, entity), set)| set.iter().any(|&r| truth.entity_of(r) == Some(*entity)))
        .collect();
    let golden = if with_truth.is_empty() {
        1.0
    } else {
        with_truth.iter().filter(|&&hit| hit).count() as f64 / with_truth.len() as f64
    };
    m.push(("block.golden_recall", golden));

    // matcher: featurize + embed each probe title against its candidates,
    // under every intent's matcher (what a cache miss costs).
    let mut embed_s = 0.0;
    let mut embedded_pairs = 0usize;
    let mut embeddings: Vec<Vec<Matrix>> = Vec::new();
    for ((title, _), set) in probe_titles.iter().zip(&candidate_sets) {
        let _span = tracer.span("probe.matcher.embed");
        let (s, per_intent) = time_once(|| {
            let featurizer = &snapshot.featurizer;
            let mut features = SparseMatrix::with_cols(featurizer.total_dim());
            let side = featurizer.prepare_side(title, &snapshot.df);
            let mut row = Vec::new();
            for &r in set {
                let tokens = featurizer.prepare(&records[r], &snapshot.df);
                featurizer.features_into_prepared(&tokens, &side, &mut row);
                features.push_row_unsorted(&mut row);
            }
            snapshot.matchers.iter().map(|m| m.infer(&features).embeddings).collect::<Vec<_>>()
        });
        embed_s += s;
        embedded_pairs += set.len();
        embeddings.push(per_intent);
    }
    let embed_us_per_pair = embed_s * 1e6 / embedded_pairs.max(1) as f64;
    m.push(("matcher.embed_us_per_pair", embed_us_per_pair));

    // ann: grow each layer's index to the final pair count (new rows repeat
    // stored ones; a flat scan costs the same on any values).
    let mut indexes = snapshot.indexes.clone();
    let stored = snapshot.n_pairs();
    let mut add_s = 0.0;
    for (q, index) in indexes.iter_mut().enumerate() {
        let _span = tracer.span("probe.ann.add");
        let (s, ()) = time_once(|| {
            for i in stored..final_pairs {
                let row = snapshot.indexes[q].vector(i % stored).to_vec();
                index.add(&row);
            }
        });
        add_s += s;
    }
    let added = (final_pairs - stored) * p;
    m.push(("ann.add_us", add_s * 1e6 / added.max(1) as f64));
    m.push(("ann.index_rows", final_pairs as f64));

    // Pinned neighbour states per intent and depth, cycled to the final
    // pair count like the index rows.
    let pinned: Vec<Vec<Vec<Vec<f32>>>> = snapshot
        .trained
        .iter()
        .map(|trained| {
            let trace = trained.model.forward(&snapshot.graph);
            (0..trained.model.n_layers() - 1)
                .map(|t| {
                    let hidden = trace.hidden(t);
                    let d = hidden.cols();
                    (0..p)
                        .map(|q| {
                            let block = &hidden.data()[q * stored * d..(q + 1) * stored * d];
                            block.iter().copied().cycle().take(final_pairs * d).collect()
                        })
                        .collect()
                })
                .collect()
        })
        .collect();

    let mut search_us = Vec::new();
    let mut forward_us = Vec::new();
    for per_intent in &embeddings {
        let b = per_intent[0].rows();
        if b == 0 {
            continue;
        }
        // Localize: every candidate's row, in every layer's index.
        let _span = tracer.span("probe.ann.search");
        let (s, neighbours) = time_once(|| {
            (0..p)
                .map(|q| {
                    let queries: Vec<&[f32]> = (0..b).map(|c| per_intent[q].row(c)).collect();
                    indexes[q].search_batch(&queries, k)
                })
                .collect::<Vec<_>>()
        });
        drop(_span);
        search_us.push(s * 1e6 / (b * p) as f64);

        // Forward: the batched inductive pass, once per intent's GNN.
        let mut ids: Vec<u32> = Vec::new();
        let mut offsets = vec![0usize];
        let mut stacked = Vec::with_capacity(b * p * dim);
        for c in 0..b {
            for (layer_hits, layer_rows) in neighbours.iter().zip(per_intent) {
                ids.extend(layer_hits[c].iter().map(|hit| hit.id as u32));
                offsets.push(ids.len());
                stacked.extend_from_slice(layer_rows.row(c));
            }
        }
        let stacked = Matrix::from_vec(b * p, dim, stacked);
        let arena = NeighborArena::new(&ids, &offsets, p);
        let _span = tracer.span("probe.graph.forward");
        let (s, _) = time_once(|| {
            snapshot
                .trained
                .iter()
                .zip(&pinned)
                .map(|(trained, states)| {
                    let sources: Vec<Vec<RowSource<'_>>> = (0..trained.model.n_layers())
                        .map(|t| {
                            (0..p)
                                .map(|q| match t {
                                    0 => RowSource::new(indexes[q].data(), dim),
                                    _ => {
                                        let d = trained.model.sage_layers()[t].in_dim();
                                        RowSource::new(&states[t - 1][q], d)
                                    }
                                })
                                .collect()
                        })
                        .collect();
                    trained.model.forward_inductive_batch(&stacked, &arena, &sources)
                })
                .collect::<Vec<_>>()
        });
        forward_us.push(s * 1e6 / (b * p * p) as f64);
    }
    let search_us = stats::median(&search_us);
    let forward_us_per_row = stats::median(&forward_us);
    let searches_per_resolve = candidates * p as f64;
    let rows_per_resolve = candidates * (p * p) as f64;
    m.push(("ann.search_us", search_us));
    m.push(("ann.searches_per_resolve", searches_per_resolve));
    m.push(("graph.forward_us_per_row", forward_us_per_row));
    m.push(("graph.rows_per_resolve", rows_per_resolve));

    // nn: the first SAGE layer's dense map at one resolve's row count, and
    // the dense FLOPs one resolve feeds through all P GNNs.
    let rows = (candidates.round() as usize).max(1) * p;
    let model = &snapshot.trained[0].model;
    let linear = model.sage_layers()[0].linear();
    let x = filler(rows, linear.in_dim());
    let _span = tracer.span("probe.nn.gemm");
    let (gemm_s, _) = time_best(50, || linear.forward(&x));
    drop(_span);
    let flop = |layer: &flexer::nn::Linear| 2.0 * (layer.in_dim() * layer.out_dim()) as f64;
    m.push(("nn.gemm_gflops", rows as f64 * flop(linear) / gemm_s / 1e9));
    let per_row: f64 =
        model.sage_layers().iter().map(|l| flop(l.linear())).sum::<f64>() + flop(model.head());
    m.push(("nn.flop_per_resolve", rows as f64 * per_row * p as f64));

    LayerCosts {
        block_query_us,
        candidates,
        embed_us_per_pair,
        search_us,
        searches_per_resolve,
        forward_us_per_row,
        rows_per_resolve,
    }
}

/// What one insert into a full embedding cache costs, at the serving
/// capacity and with the service's key and value shapes.
fn cache_probe(tracer: &Tracer, m: &mut Vec<(&'static str, f64)>) -> f64 {
    let capacity = rung::serve_config().cache_capacity;
    let mut cache: LruCache<u128, Arc<Matrix>> = LruCache::new(capacity);
    let value = Arc::new(Matrix::zeros(1, 1));
    for key in 0..capacity as u128 {
        cache.insert(key, Arc::clone(&value));
    }
    let inserts = 128u128;
    let _span = tracer.span("probe.serve.cache.insert");
    let (s, ()) = time_once(|| {
        for key in 0..inserts {
            cache.insert(capacity as u128 + key, Arc::clone(&value));
        }
    });
    let us = s * 1e6 / inserts as f64;
    m.push(("serve.cache.insert_full_us", us));
    us
}

/// The wire tier: codec cost and bytes of one resolve's frames, one direct
/// shard-server round trip, and the router's fault counters.
fn wire_probes(
    snapshot: &ModelSnapshot,
    single: &mut Rung,
    cluster: &mut Rung,
    title: &str,
    tracer: &Tracer,
    m: &mut Vec<(&'static str, f64)>,
    problems: &mut Vec<String>,
) {
    let p = snapshot.n_intents();
    let answer = single.resolve(title, tracer).unwrap_or_default();
    let mut bytes = 0usize;
    let _span = tracer.span("probe.store.wire_codec");
    let (codec_s, ()) = time_best(20, || {
        bytes = 0;
        for (intent, response) in answer.iter().enumerate() {
            let request = RouterRequest::Resolve {
                query: ResolveQuery::record(title),
                intent: intent as u64,
                top_k: TOP_K as u64,
            };
            let frame = frame_message(&request);
            bytes += frame.len();
            black_box(decode_frame::<RouterRequest>(&frame).ok());
            let frame = frame_message(&RouterResponse::Resolve(Ok(response.clone())));
            bytes += frame.len();
            black_box(decode_frame::<RouterResponse>(&frame).ok());
        }
    });
    drop(_span);
    m.push(("store.wire_codec_us", codec_s * 1e6));
    m.push(("store.wire_bytes_per_resolve", bytes as f64));
    debug_assert_eq!(answer.len(), p);

    let Rung::Cluster(tree) = cluster else { unreachable!("rungs[2] is the router tree") };
    let grams = match snapshot.blocker.gen_config() {
        CandidateGenConfig::NGram(c) => flexer::block::ngram::gram_vec(title, c.q),
        _ => Vec::new(),
    };
    let request = ShardRequest::QueryBatch(vec![WireQuery::Grams(grams)]);
    let roundtrip = std::net::TcpStream::connect(&tree.shard_addrs[0]).and_then(|mut stream| {
        stream.set_nodelay(true)?;
        let mut samples = Vec::new();
        for _ in 0..50 {
            let _span = tracer.span("probe.serve.server.roundtrip");
            let t0 = Instant::now();
            write_message(&mut stream, &request).map_err(std::io::Error::other)?;
            let reply: ShardResponse = read_message(&mut stream).map_err(std::io::Error::other)?;
            samples.push(t0.elapsed().as_secs_f64() * 1e6);
            if !matches!(reply, ShardResponse::CandidatesBatch(_)) {
                return Err(std::io::Error::other(format!("unexpected reply {reply:?}")));
            }
        }
        Ok(stats::median(&samples))
    });
    match roundtrip {
        Ok(us) => m.push(("serve.server.query_roundtrip_us", us)),
        Err(e) => problems.push(format!("shard-server round trip: {e}")),
    }

    match cluster.fault_stats() {
        Ok(counters) => {
            let count = |needle: &str| {
                counters
                    .iter()
                    .filter(|(name, _)| name.contains(needle))
                    .map(|(_, v)| *v)
                    .sum::<u64>()
            };
            // Non-zero counts fail the run when the rung shuts down.
            m.push(("serve.router.failover_count", count("failover") as f64));
            m.push(("serve.router.degraded_count", count("degraded") as f64));
        }
        Err(e) => problems.push(format!("router stats: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::PER_LAYER;
    use crate::workload::find;

    /// The traced pass at smoke size emits every per-layer metric once, the
    /// three rungs agree, and the router tree winds down.
    #[test]
    fn the_traced_pass_emits_every_per_layer_metric() {
        for name in ["resolve_hot", "cluster_mixed"] {
            let outcome = run(&find(name).unwrap().smoke(), 17);
            assert!(outcome.correct, "{name}: {:?}", outcome.problems);
            assert_eq!(outcome.failed, 0);
            let mut names: Vec<&str> = outcome.metrics.iter().map(|(n, _)| *n).collect();
            let mut expected: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
            names.sort_unstable();
            expected.sort_unstable();
            assert_eq!(names, expected, "{name}");
            assert!(outcome.metrics.iter().all(|(_, v)| v.is_finite()), "{name}");
        }
    }
}
