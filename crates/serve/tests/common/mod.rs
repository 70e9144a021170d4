//! What the integration-test binaries share: one tiny trained model per
//! binary (each `tests/*.rs` compiles this module on its own and uses its
//! own subset of it).
#![allow(dead_code)]

use flexer_block::BlockerState;
use flexer_core::{FlexErConfig, FlexErModel, InParallelModel, PipelineContext};
use flexer_datasets::AmazonMiConfig;
use flexer_serve::{ServeConfig, ShardedResolutionService};
use flexer_store::{IndexKind, ModelSnapshot};
use flexer_types::{Scale, ShardConfig, ShardRequest, ShardResponse};

/// One shared training run for the whole test binary: the snapshot and the
/// batch model it was exported from.
pub fn trained() -> &'static (ModelSnapshot, FlexErModel) {
    static SHARED: std::sync::OnceLock<(ModelSnapshot, FlexErModel)> = std::sync::OnceLock::new();
    SHARED.get_or_init(|| {
        let bench = AmazonMiConfig::at_scale(Scale::Tiny).with_seed(41).generate();
        let config = FlexErConfig::fast();
        let ctx = PipelineContext::new(bench, &config.matcher).unwrap();
        let base = InParallelModel::fit(&ctx, &config.matcher).unwrap();
        let model = FlexErModel::fit_from_embeddings(&ctx, &base.embeddings(), &config).unwrap();
        let snapshot = model.to_snapshot(&ctx, &base, &config, IndexKind::Flat).unwrap();
        (snapshot, model)
    })
}

/// The shared run's snapshot (tests clone what they mutate).
pub fn trained_snapshot() -> &'static ModelSnapshot {
    &trained().0
}

/// `snapshot` with the exhaustive backend for its blocker: every stored
/// record is a candidate (the all-pairs parity baseline).
pub fn exhaustive(snapshot: ModelSnapshot) -> ModelSnapshot {
    ModelSnapshot { blocker: BlockerState::Exhaustive, sharding: None, ..snapshot }
}

/// The shared run's snapshot pre-sharded into `n_shards` frames — the
/// shape a networked deployment boots.
pub fn sharded_snapshot(n_shards: usize) -> ModelSnapshot {
    let shards = ShardConfig::of(n_shards);
    ShardedResolutionService::new(trained_snapshot().clone(), ServeConfig::default(), shards)
        .unwrap()
        .to_snapshot()
}

/// Sends a direct `Shutdown` to one shard server, behind the router's
/// back.
pub fn kill_shard(addr: &str) {
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    flexer_store::write_message(&mut stream, &ShardRequest::Shutdown).unwrap();
    let reply: ShardResponse = flexer_store::read_message(&mut stream).unwrap();
    assert_eq!(reply, ShardResponse::Shutdown);
}
