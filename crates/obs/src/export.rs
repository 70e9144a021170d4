//! Snapshot types and JSON / Prometheus-style text exposition.
//!
//! The workspace is offline (no serde), so this carries its own minimal
//! JSON emitter. Output key order is deterministic (sorted by name) so
//! snapshot diffs are stable across runs.

use crate::hist::Histogram;

/// Summary statistics of one named histogram (span timings in nanoseconds,
/// or a value distribution).
#[derive(Clone, Debug, PartialEq)]
pub struct HistStat {
    /// Dotted span path or value name.
    pub name: String,
    /// Recorded sample count.
    pub count: u64,
    /// Sum of samples (ns for spans).
    pub sum: u64,
    /// Smallest sample.
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median estimate (≤ ~1.6% relative error).
    pub p50: u64,
    /// 90th-percentile estimate.
    pub p90: u64,
    /// 99th-percentile estimate.
    pub p99: u64,
}

impl HistStat {
    /// Summarise `hist` under `name`.
    pub fn from_histogram(name: &str, hist: &Histogram) -> Self {
        HistStat {
            name: name.to_string(),
            count: hist.count(),
            sum: hist.sum(),
            min: hist.min(),
            max: hist.max(),
            mean: hist.mean(),
            p50: hist.quantile(0.50),
            p90: hist.quantile(0.90),
            p99: hist.quantile(0.99),
        }
    }
}

/// Point-in-time export of a [`crate::Recorder`]'s aggregates.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Span timing histograms, keyed by dotted path, sorted by path.
    pub spans: Vec<HistStat>,
    /// Non-timing value histograms, sorted by name.
    pub values: Vec<HistStat>,
    /// Monotonic counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Instantaneous gauges, sorted by name.
    pub gauges: Vec<(String, f64)>,
}

impl MetricsSnapshot {
    /// Span statistics by exact dotted path.
    pub fn span(&self, path: &str) -> Option<&HistStat> {
        self.spans.iter().find(|s| s.name == path)
    }

    /// Value-histogram statistics by name.
    pub fn value(&self, name: &str) -> Option<&HistStat> {
        self.values.iter().find(|s| s.name == name)
    }

    /// Counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Gauge value by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// JSON object with `spans` / `values` / `counters` / `gauges` keys.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str("\"spans\":");
        push_hist_array(&mut out, &self.spans);
        out.push_str(",\"values\":");
        push_hist_array(&mut out, &self.values);
        out.push_str(",\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_string(&mut out, name);
            out.push(':');
            out.push_str(&v.to_string());
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_string(&mut out, name);
            out.push(':');
            push_json_f64(&mut out, *v);
        }
        out.push_str("}}");
        out
    }

    /// Prometheus-style text exposition: one `flexer_span_ns` sample per
    /// (path, quantile), plus `_sum`/`_count` series, counters, gauges, and
    /// value histograms.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (family, stats) in [("flexer_span_ns", &self.spans), ("flexer_value", &self.values)] {
            for s in stats {
                for (q, v) in [("0.5", s.p50), ("0.9", s.p90), ("0.99", s.p99)] {
                    out.push_str(family);
                    out.push_str("{path=\"");
                    out.push_str(&s.name);
                    out.push_str("\",quantile=\"");
                    out.push_str(q);
                    out.push_str("\"} ");
                    out.push_str(&v.to_string());
                    out.push('\n');
                }
                for (suffix, v) in [("_sum", s.sum), ("_count", s.count)] {
                    out.push_str(family);
                    out.push_str(suffix);
                    out.push_str("{path=\"");
                    out.push_str(&s.name);
                    out.push_str("\"} ");
                    out.push_str(&v.to_string());
                    out.push('\n');
                }
            }
        }
        for (name, v) in &self.counters {
            out.push_str("flexer_counter{name=\"");
            out.push_str(name);
            out.push_str("\"} ");
            out.push_str(&v.to_string());
            out.push('\n');
        }
        for (name, v) in &self.gauges {
            out.push_str("flexer_gauge{name=\"");
            out.push_str(name);
            out.push_str("\"} ");
            push_json_f64(&mut out, *v);
            out.push('\n');
        }
        out
    }
}

fn push_hist_array(out: &mut String, stats: &[HistStat]) {
    out.push('[');
    for (i, s) in stats.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        push_json_string(out, &s.name);
        for (key, v) in [
            ("count", s.count),
            ("sum", s.sum),
            ("min", s.min),
            ("max", s.max),
            ("p50", s.p50),
            ("p90", s.p90),
            ("p99", s.p99),
        ] {
            out.push_str(",\"");
            out.push_str(key);
            out.push_str("\":");
            out.push_str(&v.to_string());
        }
        out.push_str(",\"mean\":");
        push_json_f64(out, s.mean);
        out.push('}');
    }
    out.push(']');
}

fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_json_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let s = format!("{v}");
        // Bare integers are valid JSON numbers, keep them as-is.
        out.push_str(&s);
    } else {
        out.push_str("null");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recorder;

    fn sample_snapshot() -> MetricsSnapshot {
        let rec = Recorder::new();
        rec.record_span_ns("resolve.block", 100);
        rec.record_span_ns("resolve.block", 300);
        rec.record_span_ns("resolve.forward", 50);
        rec.record_value("ingest.batch_rows", 16);
        rec.add("cache.hits", 3);
        rec.set_gauge("arena.rows", 12.0);
        rec.snapshot()
    }

    #[test]
    fn json_contains_every_section() {
        let json = sample_snapshot().to_json();
        for needle in [
            "\"spans\":[",
            "\"name\":\"resolve.block\"",
            "\"count\":2",
            "\"sum\":400",
            "\"cache.hits\":3",
            "\"arena.rows\":12",
            "\"ingest.batch_rows\"",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
    }

    #[test]
    fn prometheus_exposition_shape() {
        let text = sample_snapshot().to_prometheus();
        assert!(text.contains("flexer_span_ns{path=\"resolve.block\",quantile=\"0.5\"} "));
        assert!(text.contains("flexer_span_ns_sum{path=\"resolve.block\"} 400"));
        assert!(text.contains("flexer_span_ns_count{path=\"resolve.forward\"} 1"));
        assert!(text.contains("flexer_counter{name=\"cache.hits\"} 3"));
        assert!(text.contains("flexer_gauge{name=\"arena.rows\"} 12"));
    }

    #[test]
    fn json_string_escaping() {
        let mut s = String::new();
        push_json_string(&mut s, "a\"b\\c\nd");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\"");
    }
}
