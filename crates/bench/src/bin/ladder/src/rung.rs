//! The rungs of the ladder, behind one interface: fit a model, export and
//! reload its snapshot, and serve it in-process, sharded in-process, or
//! through a router and shard servers over loopback TCP.
//!
//! This file is the only place (besides the layer probes) that names
//! product items, and it keeps to the pinned surface listed in the README.

use crate::inputs::{self, Corpus, TOP_K};
use crate::trace::Tracer;
use flexer::core::{
    evaluate_on_split, FlexErConfig, FlexErModel, InParallelModel, PipelineContext,
};
use flexer::serve::{
    NetConfig, ResolutionService, Router, RouterClient, ServeConfig, ShardServer,
    ShardedResolutionService,
};
use flexer::store::{IndexKind, ModelSnapshot};
use flexer::types::{ResolveQuery, ResolveResponse, ShardConfig, Split};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Shards of the sharded and networked rungs.
pub const N_SHARDS: usize = 2;

/// How long the router tree may take to wind down after `Shutdown`.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(10);

pub fn serve_config() -> ServeConfig {
    ServeConfig { cache_capacity: 16384, ..Default::default() }
}

/// A generated benchmark with its featurized pair corpus.
pub struct Prepared {
    pub ctx: PipelineContext,
    pub config: FlexErConfig,
    pub generate_s: f64,
    pub context_s: f64,
}

pub fn prepare(corpus: Corpus, tracer: &Tracer) -> Prepared {
    let config = inputs::config();
    let t0 = Instant::now();
    let bench = {
        let _span = tracer.span("datasets.generate");
        inputs::generate(corpus)
    };
    let generate_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let ctx = {
        let _span = tracer.span("core.context");
        PipelineContext::new(bench, &config.matcher).expect("generated benchmarks validate")
    };
    Prepared { ctx, config, generate_s, context_s: t0.elapsed().as_secs_f64() }
}

/// The paper's pipeline: per-intent matchers, then the multiplex graph and
/// one GNN per intent, then MI scores on the test split.
pub struct Trained {
    pub base: InParallelModel,
    pub model: FlexErModel,
    /// Wall time of matcher fit + graph/GNN fit + test-split scoring.
    pub fit_s: f64,
    pub matcher_fit_s: f64,
    pub score_s: f64,
    /// FlexER MI-F on the test split.
    pub mi_f: f64,
}

pub fn train(prepared: &Prepared, tracer: &Tracer) -> Trained {
    let Prepared { ctx, config, .. } = prepared;
    let t0 = Instant::now();
    let base = {
        let _span = tracer.span("matcher.fit");
        InParallelModel::fit(ctx, &config.matcher).expect("in-parallel fit")
    };
    let matcher_fit_s = t0.elapsed().as_secs_f64();
    let model = {
        let _span = tracer.span("graph.fit");
        FlexErModel::fit_from_embeddings(ctx, &base.embeddings(), config).expect("FlexER fit")
    };
    let t_score = Instant::now();
    let mi_f = {
        let _span = tracer.span("eval.score");
        evaluate_on_split(&ctx.benchmark, &model.predictions, Split::Test).mi_f1
    };
    Trained {
        base,
        model,
        fit_s: t0.elapsed().as_secs_f64(),
        matcher_fit_s,
        score_s: t_score.elapsed().as_secs_f64(),
        mi_f,
    }
}

/// The deployable artefact, after a trip through its byte encoding (a
/// deployment loads bytes, so set-up pays for the codec both ways).
pub struct Exported {
    pub snapshot: ModelSnapshot,
    pub encode_s: f64,
    pub decode_s: f64,
    pub bytes: usize,
}

pub fn export(prepared: &Prepared, trained: &Trained, tracer: &Tracer) -> Exported {
    let snapshot = trained
        .model
        .to_snapshot(&prepared.ctx, &trained.base, &prepared.config, IndexKind::Flat)
        .expect("snapshot export");
    let t0 = Instant::now();
    let bytes = {
        let _span = tracer.span("store.snapshot_encode");
        snapshot.to_bytes()
    };
    let encode_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let snapshot = {
        let _span = tracer.span("store.snapshot_decode");
        ModelSnapshot::from_bytes(&bytes).expect("a snapshot decodes from its own bytes")
    };
    Exported { snapshot, encode_s, decode_s: t0.elapsed().as_secs_f64(), bytes: bytes.len() }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RungKind {
    Single,
    Sharded,
    Cluster,
}

/// One resolve's answer: one ranked response per intent, in intent order.
pub type Answer = Vec<ResolveResponse>;

/// One ingested title's report: `[record, first_pair, n_pairs,
/// n_suppressed]` — the fields the in-process and the wire report share.
pub type Report = [u64; 4];

/// A router over [`N_SHARDS`] shard servers, all threads of this process,
/// talking over loopback TCP.
pub struct Cluster {
    client: RouterClient,
    n_intents: usize,
    router: JoinHandle<()>,
    shards: Vec<JoinHandle<()>>,
    /// Shard-server addresses, for the direct round-trip probe.
    pub shard_addrs: Vec<String>,
}

pub enum Rung {
    Single(ResolutionService),
    Sharded(ShardedResolutionService),
    Cluster(Cluster),
}

impl Rung {
    pub fn boot(kind: RungKind, snapshot: &ModelSnapshot) -> Result<Rung, String> {
        let shards = ShardConfig::of(N_SHARDS);
        match kind {
            RungKind::Single => ResolutionService::new(snapshot.clone(), serve_config())
                .map(Rung::Single)
                .map_err(|e| e.to_string()),
            RungKind::Sharded => {
                ShardedResolutionService::new(snapshot.clone(), serve_config(), shards)
                    .map(Rung::Sharded)
                    .map_err(|e| e.to_string())
            }
            RungKind::Cluster => {
                // The deployable form: the snapshot pre-split into one
                // blocker frame per shard server.
                let sharded =
                    ShardedResolutionService::new(snapshot.clone(), serve_config(), shards)
                        .map_err(|e| e.to_string())?
                        .to_snapshot();
                let n_intents = sharded.n_intents();
                let mut shard_addrs = Vec::new();
                let mut handles = Vec::new();
                for shard in 0..N_SHARDS {
                    let server = ShardServer::from_snapshot(sharded.clone(), shard, "127.0.0.1:0")
                        .map_err(|e| e.to_string())?;
                    shard_addrs.push(server.local_addr().to_string());
                    handles.push(server.spawn());
                }
                let router = Router::from_snapshot(
                    sharded,
                    serve_config(),
                    shard_addrs.iter().map(|a| vec![a.clone()]).collect(),
                    "127.0.0.1:0",
                    NetConfig::default(),
                )
                .map_err(|e| e.to_string())?;
                let addr = router.local_addr();
                let router = router.spawn();
                let client = RouterClient::connect(addr).map_err(|e| e.to_string())?;
                Ok(Rung::Cluster(Cluster {
                    client,
                    n_intents,
                    router,
                    shards: handles,
                    shard_addrs,
                }))
            }
        }
    }

    /// Resolves one record title under every intent, top [`TOP_K`] each.
    /// The in-process rungs answer in one call; the wire protocol has one
    /// intent per request, so the networked rung makes one call per intent.
    pub fn resolve(&mut self, title: &str, tracer: &Tracer) -> Result<Answer, String> {
        let query = ResolveQuery::record(title);
        match self {
            Rung::Single(s) => s.resolve_all_intents(&query, TOP_K).map_err(|e| e.to_string()),
            Rung::Sharded(s) => s.resolve_all_intents(&query, TOP_K).map_err(|e| e.to_string()),
            Rung::Cluster(c) => (0..c.n_intents)
                .map(|intent| {
                    let _span = tracer.span("rung.wire_call");
                    c.client.resolve(query.clone(), intent, TOP_K).map_err(|e| e.to_string())?
                })
                .collect(),
        }
    }

    pub fn ingest(&mut self, titles: &[String]) -> Result<Vec<Report>, String> {
        let refs: Vec<&str> = titles.iter().map(String::as_str).collect();
        let in_process = |r: flexer::serve::IngestReport| {
            [r.record as u64, r.first_pair as u64, r.n_pairs as u64, r.n_suppressed as u64]
        };
        match self {
            Rung::Single(s) => Ok(s.ingest_batch(&refs).into_iter().map(in_process).collect()),
            Rung::Sharded(s) => Ok(s.ingest_batch(&refs).into_iter().map(in_process).collect()),
            Rung::Cluster(c) => c
                .client
                .ingest_batch(titles.to_vec())
                .map(|reports| {
                    reports
                        .iter()
                        .map(|r| [r.record, r.first_pair, r.n_pairs, r.n_suppressed])
                        .collect()
                })
                .map_err(|e| e.to_string()),
        }
    }

    /// Router fault counters (`failover`, `degraded`, …); empty in process.
    pub fn fault_stats(&mut self) -> Result<Vec<(String, u64)>, String> {
        match self {
            Rung::Cluster(c) => c.client.stats().map_err(|e| e.to_string()),
            _ => Ok(Vec::new()),
        }
    }

    /// Stops the rung. The networked rung must have served without a
    /// failover, a degraded shard or a timeout, and must wind its whole
    /// thread tree down — router, writer lane, janitor and both shard
    /// servers — or the run fails.
    pub fn shutdown(mut self) -> Result<(), String> {
        let faults: Vec<String> = self
            .fault_stats()?
            .into_iter()
            .filter(|(name, count)| *count > 0 && !name.ends_with("pending"))
            .map(|(name, count)| format!("{name} = {count}"))
            .collect();
        if !faults.is_empty() {
            return Err(format!("the router reports faults: {}", faults.join(", ")));
        }
        let Rung::Cluster(mut cluster) = self else { return Ok(()) };
        cluster.client.shutdown().map_err(|e| format!("router shutdown: {e}"))?;
        let deadline = Instant::now() + SHUTDOWN_GRACE;
        for (name, handle) in std::iter::once(("router", cluster.router))
            .chain(cluster.shards.into_iter().map(|h| ("shard server", h)))
        {
            while !handle.is_finished() {
                if Instant::now() > deadline {
                    return Err(format!("{name} thread still running after shutdown"));
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            handle.join().map_err(|_| format!("{name} thread panicked"))?;
        }
        Ok(())
    }
}
