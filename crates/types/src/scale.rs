//! Scale presets for benchmarks and experiments.
//!
//! The paper ran on a 2×GPU server; this reproduction runs anywhere. Every
//! generator and experiment accepts a [`Scale`]: `Paper` reproduces Table 3
//! cardinalities, `Small` shrinks candidate sets ~5× for a single-core run
//! of the full suite, `Tiny` drives unit tests.

/// Workload size preset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Scale {
    /// Unit-test sized (hundreds of pairs).
    Tiny,
    /// Default harness size (thousands of pairs).
    #[default]
    Small,
    /// Table 3 cardinalities (tens of thousands of pairs).
    Paper,
}

impl Scale {
    /// Parses the CLI spelling (`tiny`/`small`/`paper`, case-insensitive).
    pub fn parse(s: &str) -> Option<Scale> {
        match s.to_ascii_lowercase().as_str() {
            "tiny" => Some(Scale::Tiny),
            "small" => Some(Scale::Small),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }

    /// Reporting name.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Tiny => "tiny",
            Scale::Small => "small",
            Scale::Paper => "paper",
        }
    }

    /// Scales a paper-sized cardinality down to this preset.
    pub fn scaled(self, paper_size: usize) -> usize {
        match self {
            Scale::Paper => paper_size,
            Scale::Small => (paper_size / 5).max(1),
            Scale::Tiny => (paper_size / 40).max(1),
        }
    }
}

impl std::fmt::Display for Scale {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrip() {
        for s in [Scale::Tiny, Scale::Small, Scale::Paper] {
            assert_eq!(Scale::parse(s.name()), Some(s));
            assert_eq!(Scale::parse(&s.name().to_uppercase()), Some(s));
        }
        assert_eq!(Scale::parse("huge"), None);
    }

    #[test]
    fn scaling_monotone() {
        let paper = 15404;
        assert_eq!(Scale::Paper.scaled(paper), paper);
        assert!(Scale::Small.scaled(paper) < paper);
        assert!(Scale::Tiny.scaled(paper) < Scale::Small.scaled(paper));
        assert!(Scale::Tiny.scaled(paper) >= 1);
    }

    #[test]
    fn tiny_never_zero() {
        assert_eq!(Scale::Tiny.scaled(3), 1);
    }

    #[test]
    fn default_is_small() {
        assert_eq!(Scale::default(), Scale::Small);
        assert_eq!(format!("{}", Scale::Small), "small");
    }
}
