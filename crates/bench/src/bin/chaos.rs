//! Chaos harness for the replicated networked tier: trains one model,
//! boots the **real processes** — a `router` in front of 2 shard slots ×
//! 2 replicas each — and drives resolve/ingest traffic through scripted
//! fault scenarios injected by [`flexer_serve::FaultProxy`] interposers
//! (one replica per shard sits behind a proxy; its sibling is reached
//! directly, so quorum holds through every scenario).
//!
//! ```text
//! cargo build --release -p flexer-serve --bins   # the processes to spawn
//! cargo run --release --bin chaos -- [--records N] [--seed N]
//! ```
//!
//! Scenarios, in order — an in-process [`ShardedResolutionService`]
//! replays the same call sequence and **every** networked answer must be
//! bit-identical to it, because one in-sync replica per shard stays
//! reachable throughout:
//!
//! * **healthy** — faithful forwarding, both replicas answering;
//! * **stall** — the proxied replica blackholes every byte (connect
//!   succeeds, reads starve): the bounded reader must cut it off within
//!   one I/O quantum and fail over to the sibling;
//! * **corrupt** — the proxy flips one deterministic bit per connection
//!   in the replica's replies: the frame checksum must reject it and the
//!   router must fail over, never decode garbage;
//! * **slow** — replies dribble out in tiny delayed chunks (slow-loris):
//!   the absolute frame deadline bounds the damage;
//! * **partition / heal** — the proxied replicas drop off the network
//!   entirely while ingest continues (their batches queue in replay
//!   lanes), then the partition heals and the janitor must drain every
//!   lane (`router.replica.pending` → 0) — ordered, idempotent replay;
//! * **kill** — the *direct* replica of every shard is killed outright
//!   (SIGKILL, no goodbye): answers must now come from the replicas that
//!   lived behind the faults, proving replay converged bit-exactly.
//!
//! Throughout, every resolve is wall-clocked and asserted to finish
//! within `budget + one I/O quantum` (plus scheduling grace): a fault may
//! cost latency, never a hang. Exit codes are asserted zero for every
//! child except the deliberately killed ones, and the whole harness must
//! finish under a hard wall-clock cap. It prints each scenario's
//! throughput, the fault-path latency percentiles and the router's fault
//! counters.

use flexer_core::{FlexErModel, InParallelModel, PipelineContext};
use flexer_datasets::catalog::{Catalog, CatalogConfig, RecordCountDist};
use flexer_datasets::intents::IntentDef;
use flexer_datasets::mixture::{assemble_benchmark, component, sample_candidate_pairs, PairClass};
use flexer_datasets::perturb::NoiseConfig;
use flexer_datasets::taxonomy::{amazonmi_spec, Taxonomy, TaxonomyConfig};
use flexer_obs::Histogram;
use flexer_serve::{
    FaultMode, FaultProxy, IngestReport, RouterClient, ServeConfig, ShardedResolutionService,
};
use flexer_store::IndexKind;
use flexer_types::{ResolveQuery, Scale, ShardConfig, WireIngestReport};
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Training candidate pairs (modest: the harness measures fault paths).
const TRAIN_PAIRS: usize = 240;
/// Shard slots; each gets two replicas (one direct, one proxied).
const N_SHARDS: usize = 2;
/// Resolves driven per scenario.
const QUERIES_PER_SCENARIO: usize = 18;
/// Ingest batches × batch size pushed during the partition.
const PARTITION_BATCHES: usize = 2;
const BATCH: usize = 6;
const TOP_K: usize = 10;

/// Router-side timeouts (`NetConfig` over the CLI).
const CONNECT_MS: u64 = 250;
const IO_MS: u64 = 500;
const BUDGET_MS: u64 = 2000;
/// Scheduling slack on top of `budget + quantum` for the per-request
/// ceiling — CI machines schedule threads when they feel like it.
const GRACE_MS: u64 = 2500;
/// The whole harness must finish under this (a chaos harness asserting
/// "no hangs" must not itself hang).
const WALL_CAP: Duration = Duration::from_secs(300);

fn main() {
    let wall0 = Instant::now();
    let args = parse_args();
    eprintln!(
        "[chaos] corpus of {} records, seed {}, {N_SHARDS} shards x 2 replicas",
        args.n_records, args.seed
    );

    // --- Offline phase: train once, pre-shard the snapshot, save it.
    let mut rng = {
        use rand::SeedableRng;
        rand::rngs::StdRng::seed_from_u64(args.seed)
    };
    let taxonomy = Taxonomy::from_spec(&amazonmi_spec(), TaxonomyConfig::at_scale(Scale::Small));
    let catalog = Catalog::generate(
        taxonomy,
        &CatalogConfig {
            n_records: args.n_records,
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
        TRAIN_PAIRS,
        &mut rng,
    );
    let bench = assemble_benchmark(
        "chaos-corpus",
        &catalog,
        &[(IntentDef::Equivalence, "Eq."), (IntentDef::SameBrand, "Brand")],
        sampled.candidates,
        args.seed,
    );
    let config = flexer_core::FlexErConfig::fast().with_seed(args.seed);
    let ctx = PipelineContext::new(bench, &config.matcher).expect("valid benchmark");
    eprintln!("[chaos] training on {} pairs...", ctx.benchmark.n_pairs());
    let base = InParallelModel::fit(&ctx, &config.matcher).expect("base fit");
    let model =
        FlexErModel::fit_from_embeddings(&ctx, &base.embeddings(), &config).expect("flexer fit");
    let snapshot = model.to_snapshot(&ctx, &base, &config, IndexKind::Flat).expect("export");
    let snapshot =
        ShardedResolutionService::new(snapshot, ServeConfig::default(), ShardConfig::of(N_SHARDS))
            .expect("shard the snapshot")
            .to_snapshot();
    let snapshot_path =
        std::env::temp_dir().join(format!("flexer-chaos-{}.flexer", std::process::id()));
    snapshot.save(&snapshot_path).expect("save sharded snapshot");

    // --- The in-process reference replaying every call bit-for-bit.
    let mut reference = ShardedResolutionService::new(
        snapshot.clone(),
        ServeConfig::default(),
        ShardConfig::of(N_SHARDS),
    )
    .expect("load reference service");
    let n_intents = reference.n_intents();

    // --- Boot the topology: per shard, replica A direct + replica B
    // behind a FaultProxy; then the router over both.
    let snapshot_arg = snapshot_path.to_str().expect("utf-8 temp path").to_string();
    let mut direct: Vec<ChildProc> = Vec::new();
    let mut proxied: Vec<ChildProc> = Vec::new();
    let mut proxies: Vec<FaultProxy> = Vec::new();
    let mut slots: Vec<String> = Vec::new();
    for s in 0..N_SHARDS {
        let a = spawn_listening(
            &sibling_bin("shard-server"),
            &["--snapshot", &snapshot_arg, "--shard", &s.to_string(), "--addr", "127.0.0.1:0"],
        );
        let b = spawn_listening(
            &sibling_bin("shard-server"),
            &["--snapshot", &snapshot_arg, "--shard", &s.to_string(), "--addr", "127.0.0.1:0"],
        );
        let upstream = b.addr.parse().expect("replica address");
        let proxy = FaultProxy::spawn(upstream, args.seed ^ s as u64).expect("spawn proxy");
        slots.push(format!("{}+{}", a.addr, proxy.addr()));
        direct.push(a);
        proxied.push(b);
        proxies.push(proxy);
    }
    let mut router = spawn_listening(
        &sibling_bin("router"),
        &[
            "--snapshot",
            &snapshot_arg,
            "--shards",
            &slots.join(","),
            "--addr",
            "127.0.0.1:0",
            "--replicas",
            "2",
            "--connect-ms",
            &CONNECT_MS.to_string(),
            "--io-ms",
            &IO_MS.to_string(),
            "--budget-ms",
            &BUDGET_MS.to_string(),
        ],
    );
    eprintln!("[chaos] router up at {} over {:?}", router.addr, slots);
    // Generous client-side I/O timeout: it exists to turn a router hang
    // into a loud failure, not to race the router's own deadlines.
    let mut client = RouterClient::connect_with_timeout(
        &*router.addr,
        Duration::from_secs(5),
        Duration::from_secs(30),
    )
    .expect("connect to router");
    let (n_shards, n_records, _) = client.hello().expect("hello");
    assert_eq!(n_shards as usize, N_SHARDS);
    assert_eq!(n_records as usize, reference.n_records());

    let queries: Vec<ResolveQuery> = (0..QUERIES_PER_SCENARIO - 1)
        .map(|i| ResolveQuery::record(reference.record_title((i * 37) % args.n_records)))
        .chain([ResolveQuery::record("no such product xyzzy")])
        .collect();
    let ceiling = Duration::from_millis(BUDGET_MS + IO_MS + GRACE_MS);
    let mut fault_lat = Histogram::new();

    // Drives every query once, asserting bit-identity against the
    // reference and the per-request deadline ceiling, and prints the
    // scenario's resolve throughput.
    let drive = |label: &str,
                 client: &mut RouterClient,
                 reference: &mut ShardedResolutionService,
                 lat: &mut Histogram| {
        let t0 = Instant::now();
        for (i, query) in queries.iter().enumerate() {
            let intent = i % n_intents;
            let q0 = Instant::now();
            let over_wire = client.resolve(query.clone(), intent, TOP_K).expect("resolve");
            let took = q0.elapsed();
            lat.record(took.as_nanos() as u64);
            let in_process = reference.resolve(query, intent, TOP_K).map_err(|e| e.to_string());
            assert_eq!(over_wire, in_process, "[{label}] divergence on {query:?}");
            assert!(
                took < ceiling,
                "[{label}] query {i} took {took:?} — deadline machinery allows {ceiling:?}"
            );
        }
        let qps = queries.len() as f64 / t0.elapsed().as_secs_f64();
        println!("{label:<20}: {qps:>8.2} resolves/s, {} queries bit-identical", queries.len());
    };

    // --- healthy: both replicas of both shards answering.
    drive("healthy", &mut client, &mut reference, &mut fault_lat);

    // --- stall: the proxied replicas blackhole every byte.
    for p in &proxies {
        p.set_mode(FaultMode::StallAfter(0));
        p.sever();
    }
    drive("stall", &mut client, &mut reference, &mut fault_lat);

    // --- corrupt: one bit flipped per connection in replica replies.
    for p in &proxies {
        p.set_mode(FaultMode::CorruptFrame);
        p.sever();
    }
    drive("corrupt", &mut client, &mut reference, &mut fault_lat);

    // --- slow: replies dribble out 9 bytes every 3 ms.
    for p in &proxies {
        p.set_mode(FaultMode::SlowWrite { chunk: 9, delay_ms: 3 });
        p.sever();
    }
    drive("slow", &mut client, &mut reference, &mut fault_lat);

    // --- partition: proxied replicas fully off the network; ingest
    // continues (their batches defer into replay lanes), resolves keep
    // answering from the direct replicas.
    for p in &proxies {
        p.partition();
    }
    let titles: Vec<String> = (0..PARTITION_BATCHES * BATCH)
        .map(|i| {
            let r = (i * 61) % args.n_records;
            format!("{} partition listing {i}", catalog.dataset[r].title())
        })
        .collect();
    for batch in titles.chunks(BATCH) {
        let over_wire = client.ingest_batch(batch.to_vec()).expect("partition ingest");
        let batch_refs: Vec<&str> = batch.iter().map(String::as_str).collect();
        let in_process = reference.ingest_batch(&batch_refs);
        assert_eq!(over_wire, as_wire(&in_process), "partition ingest report divergence");
    }
    drive("partition", &mut client, &mut reference, &mut fault_lat);

    // --- heal: the janitor must replay every deferred batch, in order.
    for p in &proxies {
        p.heal();
    }
    let drain0 = Instant::now();
    loop {
        let stats = client.stats().expect("stats");
        let pending =
            stats.iter().find(|(n, _)| n == "router.replica.pending").map_or(0, |(_, v)| *v);
        if pending == 0 {
            break;
        }
        assert!(
            drain0.elapsed() < Duration::from_secs(30),
            "replay lanes never drained after heal: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    println!(
        "heal                : replay lanes drained in {:.2}s",
        drain0.elapsed().as_secs_f64()
    );
    drive("healed", &mut client, &mut reference, &mut fault_lat);

    // --- kill: SIGKILL the *direct* replica of every shard. Everything
    // below is served by the replicas that lived behind the faults — if
    // replay misordered or skipped a batch, bit-identity dies here.
    for proc_ in &mut direct {
        proc_.child.kill().expect("kill direct replica");
        let _ = proc_.child.wait();
    }
    drive("killed", &mut client, &mut reference, &mut fault_lat);

    // --- Fault counters: failover and deferred-insert replay must have
    // actually happened; no shard may ever have lost quorum.
    let stats = client.stats().expect("final stats");
    let get = |name: &str| stats.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v);
    assert_eq!(get("router.shard.degraded"), 0, "quorum never broke, yet: {stats:?}");
    assert_eq!(get("router.replica.pending"), 0, "lanes must stay drained: {stats:?}");
    assert!(get("router.shard.failover") > 0, "faults must have forced failover: {stats:?}");
    assert!(get("router.shard.insert_deferred") > 0, "partition must defer inserts: {stats:?}");
    assert!(get("router.shard.insert_replayed") > 0, "heal must replay inserts: {stats:?}");
    let (p50_us, p99_us) =
        (fault_lat.quantile(0.5) as f64 / 1e3, fault_lat.quantile(0.99) as f64 / 1e3);
    println!(
        "deadlines           : p50 {p50_us:.0} us, p99 {p99_us:.0} us over {} faulted resolves \
         (ceiling {} ms)",
        fault_lat.count(),
        ceiling.as_millis()
    );
    println!(
        "counters            : failover {}, deferred {}, replayed {}, degraded 0",
        get("router.shard.failover"),
        get("router.shard.insert_deferred"),
        get("router.shard.insert_replayed"),
    );

    // --- Teardown: clean shutdown for every process except the ones we
    // murdered on purpose.
    client.shutdown().expect("clean shutdown");
    let status = router.child.wait().expect("router wait");
    assert!(status.success(), "router exited {status:?}");
    for (s, proc_) in proxied.iter_mut().enumerate() {
        let status = proc_.child.wait().expect("proxied replica wait");
        assert!(status.success(), "proxied replica {s} exited {status:?}");
    }
    let _ = std::fs::remove_file(&snapshot_path);
    let wall = wall0.elapsed();
    assert!(wall < WALL_CAP, "chaos harness took {wall:?}, cap is {WALL_CAP:?}");
    println!(
        "shutdown            : router + {} surviving replicas exited cleanly in {:.1}s total",
        N_SHARDS,
        wall.as_secs_f64()
    );
}

fn as_wire(reports: &[IngestReport]) -> Vec<WireIngestReport> {
    reports
        .iter()
        .map(|r| WireIngestReport {
            record: r.record as u64,
            first_pair: r.first_pair as u64,
            n_pairs: r.n_pairs as u64,
            n_suppressed: r.n_suppressed as u64,
        })
        .collect()
}

/// A spawned child plus the `LISTEN <addr>` it printed on boot.
struct ChildProc {
    child: Child,
    addr: String,
}

/// Path of a sibling binary (the serve bins land in the same
/// `target/<profile>/` directory as this harness).
fn sibling_bin(name: &str) -> PathBuf {
    let dir =
        std::env::current_exe().expect("current_exe").parent().expect("bin dir").to_path_buf();
    let path = dir.join(format!("{name}{}", std::env::consts::EXE_SUFFIX));
    assert!(
        path.exists(),
        "{} not found — build it first: cargo build --release -p flexer-serve --bins",
        path.display()
    );
    path
}

/// Spawns a serve binary and blocks until it prints its bound address.
fn spawn_listening(bin: &PathBuf, args: &[&str]) -> ChildProc {
    let mut child = Command::new(bin)
        .args(args)
        .stdout(Stdio::piped())
        .spawn()
        .unwrap_or_else(|e| panic!("spawn {}: {e}", bin.display()));
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(stdout).lines();
    for line in &mut lines {
        let line = line.expect("child stdout");
        if let Some(addr) = line.strip_prefix("LISTEN ") {
            let addr = addr.trim().to_string();
            // Keep draining stdout so the child never blocks on the pipe.
            std::thread::spawn(move || for _ in lines {});
            return ChildProc { child, addr };
        }
    }
    let status = child.wait();
    panic!("{} exited ({status:?}) before printing LISTEN", bin.display());
}

struct Args {
    n_records: usize,
    seed: u64,
}

fn parse_args() -> Args {
    let mut out = Args { n_records: 1000, seed: 23 };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--records" => {
                i += 1;
                out.n_records = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| panic!("--records expects a count"));
            }
            "--seed" => {
                i += 1;
                out.seed = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| panic!("--seed expects a number"));
            }
            other => panic!("unknown flag {other}"),
        }
        i += 1;
    }
    out
}
