//! The names, units and directions of every metric the benchmark prints.
//! `BENCHMARK.json` at the repository root lists the same names; a test
//! holds the two together.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end: what the metric means. Per-layer: which end-to-end
    /// metric it should move, on which workload.
    pub note: &'static str,
}

const fn metric(
    name: &'static str,
    unit: &'static str,
    better: Better,
    note: &'static str,
) -> Metric {
    Metric { name, unit, better, note }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Every workload reports every one.
#[rustfmt::skip] // one metric per line reads as a table
pub static END_TO_END: &[Metric] = &[
    metric("setup_s", "s", Lower, "median wall time of one set-up: generate, featurize, and (serving workloads) fit, export, reload, boot"),
    metric("resolve_per_s", "1/s", Higher, "all-intent record resolves completed / wall time inside resolve calls"),
    metric("resolve_p50_ms", "ms", Lower, "median resolve latency, exact nearest rank over raw samples"),
    metric("ingest_records_per_s", "1/s", Higher, "records ingested / wall time inside ingest_batch calls"),
    metric("eq_recall_at_10", "share", Higher, "share of resolves whose Eq.-intent top 10 holds a record of the query's true entity"),
    metric("fit_pairs_per_s", "1/s", Higher, "labelled pairs / (matcher fit + graph and GNN fit + test-split scoring) wall time"),
    metric("mi_f", "share", Higher, "FlexER MI-F on the test split"),
    metric("peak_rss_mb", "MiB", Lower, "VmHWM of the workload process"),
];

/// What single layers do, measured from outside in the traced pass.
#[rustfmt::skip]
pub static PER_LAYER: &[Metric] = &[
    metric("resolve_p95_ms", "ms", Lower, "the tail of resolve_p50_ms on the workload's own rung; at least 10 samples beyond it"),
    metric("ingest_batch_p50_ms", "ms", Lower, "ingest_records_per_s on the workload's own rung, per batch of 4"),
    metric("nn.gemm_gflops", "GFLOP/s", Higher, "resolve_per_s on resolve_hot; nothing on batch_fit"),
    metric("nn.flop_per_resolve", "FLOP", Lower, "resolve_per_s on resolve_hot"),
    metric("nn.train_step_ms", "ms", Lower, "fit_pairs_per_s on batch_fit"),
    metric("graph.forward_us_per_row", "us", Lower, "resolve_p50_ms on resolve_hot"),
    metric("graph.rows_per_resolve", "count", Lower, "resolve_p50_ms on resolve_hot"),
    metric("graph.fit_s", "s", Lower, "fit_pairs_per_s on batch_fit"),
    metric("graph.build_s", "s", Lower, "fit_pairs_per_s on batch_fit"),
    metric("ann.search_us", "us", Lower, "resolve_p50_ms and ingest_records_per_s on serve_mixed"),
    metric("ann.searches_per_resolve", "count", Lower, "resolve_p50_ms on serve_mixed"),
    metric("ann.add_us", "us", Lower, "ingest_records_per_s on serve_mixed"),
    metric("ann.index_rows", "count", Lower, "ann.search_us is linear in it; grows ~100 rows per ingested record"),
    metric("ann.knn_graph_s", "s", Lower, "fit_pairs_per_s on batch_fit"),
    metric("block.query_us", "us", Lower, "resolve_p50_ms on every serving workload"),
    metric("block.insert_us", "us", Lower, "ingest_records_per_s on the mixed workloads"),
    metric("block.candidates_per_query", "count", Lower, "resolve_p50_ms on every serving workload, linearly"),
    metric("block.golden_recall", "share", Higher, "eq_recall_at_10 (its ceiling)"),
    metric("block.generate_s", "s", Lower, "setup_s"),
    metric("matcher.embed_us_per_pair", "us", Lower, "resolve_p50_ms on serve_mixed; no move on resolve_hot"),
    metric("matcher.fit_s", "s", Lower, "fit_pairs_per_s on batch_fit"),
    metric("store.snapshot_encode_ms", "ms", Lower, "setup_s"),
    metric("store.snapshot_decode_ms", "ms", Lower, "setup_s"),
    metric("store.snapshot_bytes", "B", Lower, "setup_s"),
    metric("store.wire_codec_us", "us", Lower, "resolve_p50_ms on cluster_mixed only"),
    metric("store.wire_bytes_per_resolve", "B", Lower, "resolve_p50_ms on cluster_mixed only"),
    metric("serve.service.resolve_us", "us", Lower, "the rung below: resolve_p50_ms on resolve_hot"),
    metric("serve.service.cold_penalty_us", "us", Lower, "resolve_p50_ms on the mixed workloads"),
    metric("serve.service.ingest_us_per_record", "us", Lower, "ingest_records_per_s everywhere"),
    metric("serve.cache.insert_full_us", "us", Lower, "none at a round's length: what a cache miss adds once the 16384-entry LRU is full"),
    metric("serve.service.unattributed_share", "share", Lower, "none: 1 - (layer probe sum / serve.service.resolve_us)"),
    metric("serve.shard.resolve_overhead_us", "us", Lower, "resolve_p50_ms on serve_mixed"),
    metric("serve.shard.ingest_overhead_us", "us", Lower, "ingest_batch_p50_ms on serve_mixed"),
    metric("serve.router.resolve_overhead_us", "us", Lower, "resolve_p50_ms on cluster_mixed; nothing elsewhere"),
    metric("serve.router.ingest_overhead_us_per_record", "us", Lower, "ingest_records_per_s on cluster_mixed; nothing elsewhere"),
    metric("serve.router.calls_per_resolve", "count", Lower, "resolve_p50_ms on cluster_mixed: one wire call per intent"),
    metric("serve.router.boot_s", "s", Lower, "setup_s on cluster_mixed"),
    metric("serve.router.failover_count", "count", Lower, "none: expected 0"),
    metric("serve.router.degraded_count", "count", Lower, "none: expected 0"),
    metric("serve.server.query_roundtrip_us", "us", Lower, "resolve_p50_ms on cluster_mixed"),
    metric("core.context_s", "s", Lower, "setup_s"),
    metric("eval.score_ms", "ms", Lower, "fit_pairs_per_s"),
    metric("datasets.generate_s", "s", Lower, "setup_s"),
    metric("par.threads", "count", Higher, "none: the thread budget the run pinned (1)"),
    metric("trace_overhead_share", "share", Lower, "none: traced vs untraced resolve_p50_ms on the hot set"),
];

pub fn find<'a>(registry: &'a [Metric], name: &str) -> Option<&'a Metric> {
    registry.iter().find(|m| m.name == name)
}

/// `(nproc, thread budget)`. The budget of the product's parallel regions
/// is one thread whatever the box has: on a few cores of a shared host a
/// fork-join over all of them waits for whichever core a neighbour holds,
/// and that wait — not the program — then sets every timing (measured:
/// with both of 2 cores budgeted, two bursty neighbours spread
/// `fit_pairs_per_s` by 32 % of its median; with one, by 3 %).
pub fn thread_budget() -> (usize, usize) {
    (std::thread::available_parallelism().map_or(1, |n| n.get()), 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workload::WORKLOADS;
    use std::collections::BTreeSet;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn every_name_fits_the_contract_and_is_used_once() {
        let mut seen = BTreeSet::new();
        let names = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|m| m.name)
            .chain(WORKLOADS.iter().map(|w| w.name));
        for name in names {
            assert!(well_formed(name), "{name}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(!m.unit.is_empty() && m.unit.len() <= 16, "{}", m.unit);
            assert!(
                m.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                m.unit
            );
        }
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
    }

    /// `BENCHMARK.json` must name exactly what the bin prints.
    #[test]
    fn benchmark_json_names_what_the_bin_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let keys: Vec<&str> = doc.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
        let listed = |section: &str, fields: &[&str]| -> Vec<Vec<String>> {
            doc.get(section)
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .map(|entry| {
                    let entry = entry.as_object().unwrap();
                    let keys: Vec<&str> = entry.iter().map(|(k, _)| k.as_str()).collect();
                    assert_eq!(keys, fields, "{section}");
                    entry.iter().map(|(_, v)| v.as_str().unwrap_or("").to_string()).collect()
                })
                .collect()
        };
        let workloads = listed("workloads", &["name", "why"]);
        assert_eq!(
            workloads,
            WORKLOADS
                .iter()
                .map(|w| vec![w.name.to_string(), w.why.to_string()])
                .collect::<Vec<_>>()
        );
        let same = |section: &str, fields: &[&str], registry: &[Metric]| {
            let got: Vec<Vec<String>> =
                listed(section, fields).into_iter().map(|e| e[..3].to_vec()).collect();
            let want: Vec<Vec<String>> = registry
                .iter()
                .map(|m| vec![m.name.into(), m.unit.into(), m.better.as_str().into()])
                .collect();
            assert_eq!(got, want, "{section}");
        };
        same("end_to_end", &["name", "unit", "better", "bound"], END_TO_END);
        same("per_layer", &["name", "unit", "better"], PER_LAYER);
        for entry in doc.get("end_to_end").and_then(Json::as_array).unwrap() {
            let bound = entry.get("bound").and_then(Json::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= 0.25, "{bound}");
        }
        assert_eq!(doc.get("paths").unwrap().as_array().unwrap().len(), 1);
    }
}
