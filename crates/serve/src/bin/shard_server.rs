//! `shard-server` — one shard of the blocking tier as a TCP process.
//!
//! ```text
//! shard-server --snapshot model.flexer --shard 0 [--addr 127.0.0.1:0]
//!              [--max-conns 64] [--idle-ms 60000] [--io-ms 10000]
//! ```
//!
//! Boots exactly one shard's state from a shard-aware snapshot (via
//! `ShardFrames::decode_shard`; no other shard is materialized), binds
//! the address (port 0 picks an ephemeral port), prints the bound
//! address as `LISTEN <addr>` on stdout, and serves until a `Shutdown`
//! request arrives. `--max-conns` caps concurrent connections,
//! `--idle-ms` reaps connections with no traffic, `--io-ms` cuts off a
//! peer that stalls mid-frame.

use flexer_serve::{ServerConfig, ShardServer};
use flexer_store::ModelSnapshot;
use std::process::ExitCode;
use std::time::Duration;

fn usage() -> ExitCode {
    eprintln!(
        "usage: shard-server --snapshot <model.flexer> --shard <index> [--addr <host:port>] \
         [--max-conns <n>] [--idle-ms <ms>] [--io-ms <ms>]"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut snapshot = None;
    let mut shard = None;
    let mut addr = "127.0.0.1:0".to_string();
    let mut config = ServerConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else { return usage() };
        match flag.as_str() {
            "--snapshot" => snapshot = Some(value),
            "--shard" => match value.parse::<usize>() {
                Ok(s) => shard = Some(s),
                Err(_) => return usage(),
            },
            "--addr" => addr = value,
            "--max-conns" => match value.parse::<usize>() {
                Ok(n) if n > 0 => config.max_conns = n,
                _ => return usage(),
            },
            "--idle-ms" => match value.parse::<u64>() {
                Ok(ms) => config.idle_timeout = Duration::from_millis(ms),
                Err(_) => return usage(),
            },
            "--io-ms" => match value.parse::<u64>() {
                Ok(ms) => config.io_timeout = Duration::from_millis(ms),
                Err(_) => return usage(),
            },
            _ => return usage(),
        }
    }
    let (Some(snapshot), Some(shard)) = (snapshot, shard) else { return usage() };
    let loaded = match ModelSnapshot::load(&snapshot) {
        Ok(loaded) => loaded,
        Err(e) => {
            eprintln!("shard-server: {e}");
            return ExitCode::FAILURE;
        }
    };
    let server = match ShardServer::with_config(loaded, shard, addr.as_str(), config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("shard-server: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The parent (the chaos harness, an operator's launcher) parses this
    // line to learn the ephemeral port.
    println!("LISTEN {}", server.local_addr());
    server.run();
    ExitCode::SUCCESS
}
