//! Shard configuration and deterministic record routing.
//!
//! The serving tier scales out by partitioning the record corpus — and the
//! blocker state built over it — across `n_shards` shards. Routing is a
//! pure function of the record title ([`ShardRouter::route`]), so any
//! process that agrees on the [`ShardConfig`] agrees on the placement of
//! every record without coordination: ingest goes to exactly one shard,
//! candidate queries fan out over all of them, and replaying the same
//! title stream always reproduces the same partition.

/// How many shards the corpus (and its blocker state) is partitioned into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardConfig {
    /// Number of shards (≥ 1). One shard is the unsharded identity layout.
    pub n_shards: usize,
}

impl Default for ShardConfig {
    fn default() -> Self {
        Self { n_shards: 1 }
    }
}

impl ShardConfig {
    /// Config with `n_shards` shards.
    pub fn of(n_shards: usize) -> Self {
        Self { n_shards }
    }

    /// Errors unless the config is usable (`1 ≤ n_shards ≤ 65536`).
    pub fn validate(&self) -> Result<(), String> {
        if self.n_shards == 0 {
            return Err("shard count must be at least 1".into());
        }
        if self.n_shards > 1 << 16 {
            return Err(format!("shard count {} exceeds 65536", self.n_shards));
        }
        Ok(())
    }
}

/// Deterministic title → shard router (FNV-1a over the raw title bytes,
/// reduced modulo the shard count).
///
/// Hash-based routing keeps shards balanced for arbitrary title
/// distributions and — unlike gram-signature routing — never needs the
/// blocker's own configuration, so every tier (types, block, serve, store)
/// can route without depending on candidate-generation internals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRouter {
    config: ShardConfig,
}

impl ShardRouter {
    /// Router over a validated config; panics on a zero shard count (use
    /// [`ShardConfig::validate`] for fallible construction paths).
    pub fn new(config: ShardConfig) -> Self {
        config.validate().expect("valid shard config");
        Self { config }
    }

    /// The config this router partitions under.
    pub fn config(&self) -> ShardConfig {
        self.config
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.config.n_shards
    }

    /// The shard a record title lives on. Pure and stable: depends only on
    /// the title bytes and the shard count.
    pub fn route(&self, title: &str) -> usize {
        (fnv1a64(title.as_bytes()) % self.config.n_shards as u64) as usize
    }
}

/// FNV-1a 64-bit — the workspace's standard dependency-free hash.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF29CE484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_is_deterministic_and_in_range() {
        let router = ShardRouter::new(ShardConfig::of(5));
        for title in ["nike lunar force", "", "ünïcode title", "a"] {
            let s = router.route(title);
            assert!(s < 5);
            assert_eq!(s, router.route(title), "routing must be stable");
        }
    }

    #[test]
    fn single_shard_routes_everything_to_zero() {
        let router = ShardRouter::new(ShardConfig::default());
        assert_eq!(router.n_shards(), 1);
        assert_eq!(router.route("anything at all"), 0);
    }

    #[test]
    fn shards_receive_balanced_traffic() {
        let router = ShardRouter::new(ShardConfig::of(4));
        let mut counts = [0usize; 4];
        for i in 0..4000 {
            counts[router.route(&format!("record title number {i}"))] += 1;
        }
        for (s, &c) in counts.iter().enumerate() {
            assert!(c > 500, "shard {s} got only {c} of 4000 titles");
        }
    }

    #[test]
    fn config_validation() {
        assert!(ShardConfig::of(0).validate().is_err());
        assert!(ShardConfig::of(1).validate().is_ok());
        assert!(ShardConfig::of(1 << 16).validate().is_ok());
        assert!(ShardConfig::of((1 << 16) + 1).validate().is_err());
    }
}
