//! [`ShardFrames`] — the shard-aware snapshot section (format v3).
//!
//! A sharded deployment should not have to materialize every shard's
//! blocker state to boot one shard server. The sharded blocker therefore
//! serializes as *length-prefixed per-shard frames*: each frame is a
//! self-contained byte blob holding one shard's member list (global record
//! ids) and its [`BlockerState`]. Loading a snapshot copies the frame
//! bytes but decodes nothing; [`ShardFrames::decode_shard`] materializes
//! exactly one shard on demand, and [`ShardFrames::decode_all`] rebuilds
//! the full [`ShardedBlocker`] (with cross-shard partition validation) for
//! single-process serving.
//!
//! Frames are canonical — produced by the same sorted-bucket encoders as
//! the monolithic blocker codec — so `save → load → save` stays
//! byte-identical through any number of round trips.

use crate::codec::Codec;
use crate::format::{Reader, StoreError, Writer};
use flexer_block::{BlockerState, ShardedBlocker};
use flexer_types::ShardConfig;

/// The undecoded per-shard frames of a sharded blocker (see module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardFrames {
    n_records: usize,
    frames: Vec<Vec<u8>>,
}

impl ShardFrames {
    /// Encodes a sharded blocker into per-shard frames.
    pub fn from_blocker(blocker: &ShardedBlocker) -> Self {
        let frames = blocker
            .shards()
            .iter()
            .zip(blocker.members())
            .map(|(state, members)| {
                let mut w = Writer::new();
                w.put_u32_slice(members);
                state.encode(&mut w);
                w.into_bytes()
            })
            .collect();
        Self { n_records: blocker.len(), frames }
    }

    /// The shard configuration these frames partition under.
    pub fn config(&self) -> ShardConfig {
        ShardConfig::of(self.frames.len())
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.frames.len()
    }

    /// Total records across all shards.
    pub fn n_records(&self) -> usize {
        self.n_records
    }

    /// Decodes **one** shard — its global-id member list and blocker
    /// state — without touching any other frame. This is the lazy-loading
    /// path a shard server boots through.
    pub fn decode_shard(&self, shard: usize) -> Result<(Vec<u32>, BlockerState), StoreError> {
        let frame = self.frames.get(shard).ok_or_else(|| {
            StoreError::Malformed(format!(
                "shard {shard} out of range ({} frames)",
                self.frames.len()
            ))
        })?;
        let mut r = Reader::new(frame);
        let members = r.get_u32_slice()?;
        let state = BlockerState::decode(&mut r)?;
        r.finish()?;
        Ok((members, state))
    }

    /// Decodes every frame and reassembles the full sharded blocker,
    /// validating that the members partition `0..n_records` exactly.
    pub fn decode_all(&self) -> Result<ShardedBlocker, StoreError> {
        let mut shards = Vec::with_capacity(self.frames.len());
        let mut members = Vec::with_capacity(self.frames.len());
        for s in 0..self.frames.len() {
            let (m, state) = self.decode_shard(s)?;
            members.push(m);
            shards.push(state);
        }
        ShardedBlocker::from_parts(self.config(), shards, members, self.n_records)
            .map_err(StoreError::Malformed)
    }
}

impl Codec for ShardFrames {
    fn encode(&self, w: &mut Writer) {
        w.put_usize(self.n_records);
        w.put_usize(self.frames.len());
        for frame in &self.frames {
            w.put_bytes(frame);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        let n_records = r.get_usize()?;
        // Each frame is at least its own 8-byte length prefix, so the
        // count is bounded by the remaining payload before the config
        // validation (which caps it at 65536 shards anyway).
        let n_shards = r.get_count(8)?;
        ShardConfig::of(n_shards).validate().map_err(StoreError::Malformed)?;
        let mut frames = Vec::with_capacity(n_shards);
        for _ in 0..n_shards {
            frames.push(r.get_bytes()?);
        }
        Ok(Self { n_records, frames })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexer_types::{CandidateGenConfig, NGramBlockerConfig};

    fn sample_blocker(n_shards: usize) -> ShardedBlocker {
        let titles: Vec<String> = (0..30).map(|i| format!("gadget model number {i}")).collect();
        ShardedBlocker::build(
            &CandidateGenConfig::NGram(NGramBlockerConfig::default()),
            ShardConfig::of(n_shards),
            titles.iter().map(|t| t.as_str()),
        )
    }

    #[test]
    fn frames_roundtrip_bit_exactly() {
        let blocker = sample_blocker(3);
        let frames = ShardFrames::from_blocker(&blocker);
        let mut w = Writer::new();
        frames.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let decoded = ShardFrames::decode(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(decoded, frames);
        let mut w2 = Writer::new();
        decoded.encode(&mut w2);
        assert_eq!(w2.into_bytes(), bytes, "re-encode must be byte-identical");
        assert_eq!(decoded.decode_all().unwrap(), blocker);
    }

    #[test]
    fn single_shard_decodes_without_the_rest() {
        let blocker = sample_blocker(4);
        let frames = ShardFrames::from_blocker(&blocker);
        for s in 0..4 {
            let (members, state) = frames.decode_shard(s).unwrap();
            assert_eq!(members.as_slice(), &blocker.members()[s][..]);
            assert_eq!(&state, &blocker.shards()[s]);
        }
        assert!(frames.decode_shard(4).is_err());
    }

    #[test]
    fn corrupt_frame_fails_cleanly_and_lazily() {
        let blocker = sample_blocker(3);
        let mut frames = ShardFrames::from_blocker(&blocker);
        // Truncate shard 1's frame: decoding shard 0 still works, shard 1
        // and the full reassembly fail with a typed error.
        let cut = frames.frames[1].len() / 2;
        frames.frames[1].truncate(cut);
        assert!(frames.decode_shard(0).is_ok());
        assert!(frames.decode_shard(1).is_err());
        assert!(frames.decode_all().is_err());
    }

    #[test]
    fn partition_violations_are_rejected_on_reassembly() {
        let blocker = sample_blocker(2);
        let other = {
            let titles: Vec<String> = (0..10).map(|i| format!("other corpus {i}")).collect();
            ShardedBlocker::build(
                &CandidateGenConfig::NGram(NGramBlockerConfig::default()),
                ShardConfig::of(2),
                titles.iter().map(|t| t.as_str()),
            )
        };
        // Frames from one blocker with another's record count cannot
        // reassemble: members no longer partition 0..n_records.
        let mut frames = ShardFrames::from_blocker(&blocker);
        frames.n_records = other.len();
        assert!(frames.decode_all().is_err());
    }
}
