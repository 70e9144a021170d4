//! `router` — the networked front-end of the sharded resolution tier.
//!
//! ```text
//! router --snapshot model.flexer \
//!        --shards 127.0.0.1:7001+127.0.0.1:7011,127.0.0.1:7002+127.0.0.1:7012 \
//!        [--addr 127.0.0.1:0] [--replicas 2] \
//!        [--connect-ms 1000] [--io-ms 2000] [--budget-ms 4000]
//! ```
//!
//! Loads the shared scoring tier from the snapshot and handshakes every
//! replica of every shard: `--shards` is comma-separated in shard order,
//! and within one shard slot `+` separates that shard's replica
//! addresses (a slot without `+` is an unreplicated shard, the pre-
//! replication syntax). `--replicas` optionally asserts the replication
//! factor — booting a topology with the wrong replica count is refused
//! rather than discovered during an outage. Prints the bound address as
//! `LISTEN <addr>` on stdout and serves resolve / ingest / stats traffic
//! until a `Shutdown` request arrives (which also shuts the shard
//! servers down).
//!
//! The timeout knobs map onto `NetConfig`: `--connect-ms` bounds each
//! dial, `--io-ms` is the per-read/write quantum (and the most a request
//! may overshoot its budget), `--budget-ms` is the whole-request fan-out
//! budget. Clients meet fixed limits: at most 64 concurrent connections,
//! idle connections reaped after 300 s, and a client that stalls
//! mid-frame or stops reading cut off after 30 s.

use flexer_serve::{NetConfig, Router, ServeConfig};
use std::process::ExitCode;
use std::time::Duration;

fn usage() -> ExitCode {
    eprintln!(
        "usage: router --snapshot <model.flexer> --shards <a+b,c+d,...> [--addr <host:port>] \
         [--replicas <n>] [--connect-ms <ms>] [--io-ms <ms>] [--budget-ms <ms>]"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut snapshot = None;
    let mut shards: Vec<Vec<String>> = Vec::new();
    let mut addr = "127.0.0.1:0".to_string();
    let mut replicas: Option<usize> = None;
    let mut net = NetConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else { return usage() };
        match flag.as_str() {
            "--snapshot" => snapshot = Some(value),
            "--shards" => {
                shards = value
                    .split(',')
                    .map(|slot| slot.split('+').map(str::trim).map(String::from).collect())
                    .collect();
            }
            "--addr" => addr = value,
            "--replicas" => match value.parse::<usize>() {
                Ok(r) if r > 0 => replicas = Some(r),
                _ => return usage(),
            },
            "--connect-ms" => match value.parse::<u64>() {
                Ok(ms) => net.connect_timeout = Duration::from_millis(ms),
                Err(_) => return usage(),
            },
            "--io-ms" => match value.parse::<u64>() {
                Ok(ms) => net.io_timeout = Duration::from_millis(ms),
                Err(_) => return usage(),
            },
            "--budget-ms" => match value.parse::<u64>() {
                Ok(ms) => net.request_budget = Duration::from_millis(ms),
                Err(_) => return usage(),
            },
            _ => return usage(),
        }
    }
    let Some(snapshot) = snapshot else { return usage() };
    if shards.is_empty() || shards.iter().any(|slot| slot.iter().any(String::is_empty)) {
        return usage();
    }
    if let Some(r) = replicas {
        if let Some(slot) = shards.iter().position(|s| s.len() != r) {
            eprintln!(
                "router: shard {slot} has {} replicas, --replicas demands {r}",
                shards[slot].len()
            );
            return ExitCode::FAILURE;
        }
    }
    let router = match Router::load(&snapshot, ServeConfig::default(), shards, addr.as_str(), net) {
        Ok(router) => router,
        Err(e) => {
            eprintln!("router: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("LISTEN {}", router.local_addr());
    router.run();
    ExitCode::SUCCESS
}
