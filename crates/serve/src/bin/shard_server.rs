//! `shard-server` — one shard of the blocking tier as a TCP process.
//!
//! ```text
//! shard-server --snapshot model.flexer --shard 0 [--addr 127.0.0.1:0]
//! ```
//!
//! Boots exactly one shard's state from a sharded snapshot (built from
//! the corpus titles by `flexer_block::build_shard`; no other shard's
//! records are indexed), binds
//! the address (port 0 picks an ephemeral port), prints the bound
//! address as `LISTEN <addr>` on stdout, and serves until a `Shutdown`
//! request arrives. The connection limits are fixed: at most 64
//! concurrent connections, idle connections reaped after 60 s, and a
//! peer that stalls mid-frame cut off after 10 s.

use flexer_serve::ShardServer;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: shard-server --snapshot <model.flexer> --shard <index> [--addr <host:port>]");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut snapshot = None;
    let mut shard = None;
    let mut addr = "127.0.0.1:0".to_string();
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
            _ => return usage(),
        }
    }
    let (Some(snapshot), Some(shard)) = (snapshot, shard) else { return usage() };
    let server = match ShardServer::load(&snapshot, shard, addr.as_str()) {
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
