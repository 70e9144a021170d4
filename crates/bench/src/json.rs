//! Minimal JSON emission for machine-readable bench results.
//!
//! The environment is offline (no serde), and bench output only needs a
//! flat object of strings and numbers — so this is a tiny, dependency-free
//! builder. `chaos` calls it behind `--json` to drop
//! `target/bench/chaos.json`.

use std::io;
use std::path::PathBuf;

/// Escapes a string for a JSON literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// An insertion-ordered JSON object builder.
#[derive(Debug, Default)]
pub struct JsonObject {
    parts: Vec<(String, String)>,
}

impl JsonObject {
    /// Empty object.
    pub fn new() -> Self {
        Self::default()
    }

    fn push(mut self, key: &str, rendered: String) -> Self {
        self.parts.push((key.to_string(), rendered));
        self
    }

    /// A string field.
    pub fn str(self, key: &str, value: &str) -> Self {
        let rendered = format!("\"{}\"", escape(value));
        self.push(key, rendered)
    }

    /// An integer field.
    pub fn int(self, key: &str, value: u64) -> Self {
        self.push(key, value.to_string())
    }

    /// A float field (non-finite values become `null` — JSON has no NaN).
    pub fn num(self, key: &str, value: f64) -> Self {
        let rendered = if value.is_finite() { format!("{value}") } else { "null".to_string() };
        self.push(key, rendered)
    }

    /// Renders the object.
    pub fn render(&self) -> String {
        let body: Vec<String> =
            self.parts.iter().map(|(k, v)| format!("\"{}\":{}", escape(k), v)).collect();
        format!("{{{}}}", body.join(","))
    }
}

/// Writes `target/bench/<name>.json` (relative to the current directory,
/// created if missing — build output, never a tracked file) and returns
/// its path.
pub fn write_bench_json(name: &str, rendered: &str) -> io::Result<PathBuf> {
    let dir = PathBuf::from("target/bench");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.json"));
    std::fs::write(&path, format!("{rendered}\n"))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_fields_in_insertion_order() {
        let obj = JsonObject::new().str("bench", "chaos").int("seed", 17).num("qps", 0.5).render();
        assert_eq!(obj, r#"{"bench":"chaos","seed":17,"qps":0.5}"#);
    }

    #[test]
    fn escapes_and_non_finite() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        let obj = JsonObject::new().num("bad", f64::NAN).render();
        assert_eq!(obj, r#"{"bad":null}"#);
    }
}
