//! The bytes both formats write, pinned: one FNV-1a digest per wire frame
//! of every sample message, per snapshot and per set of shard frames. A
//! codec change that moves one byte fails here, by name; a deliberate
//! layout change bumps `VERSION` or `WIRE_VERSION` and re-pins.

mod common;

use common::messages::sample_messages;
use common::tiny_snapshot;
use flexer_block::ShardedBlocker;
use flexer_store::{fnv1a64, frame_message, Codec, ShardFrames, Writer};
use flexer_types::{CandidateGenConfig, NGramBlockerConfig, ShardConfig};
use std::fmt::Debug;

/// Asserts each message's frame digest against its pin, in sample order;
/// a pin names the variant it belongs to.
fn assert_pinned<T: Codec + Debug>(messages: &[T], pins: &[(&str, u64)]) {
    assert_eq!(messages.len(), pins.len(), "one pin per sample message");
    for (msg, &(variant, digest)) in messages.iter().zip(pins) {
        let debug = format!("{msg:?}");
        assert_eq!(debug.split([' ', '(']).next(), Some(variant), "{debug}");
        assert_eq!(fnv1a64(&frame_message(msg)), digest, "{variant} moved a byte");
    }
}

/// The digest of a value's encoding alone, outside any frame.
fn payload_digest<T: Codec>(value: &T) -> u64 {
    let mut w = Writer::new();
    value.encode(&mut w);
    fnv1a64(&w.into_bytes())
}

#[test]
fn shard_requests_keep_their_bytes() {
    let pins = [
        ("Hello", 0x41c44cf4136e26fc),
        ("QueryBatch", 0x8542d918f07ecab2),
        ("Insert", 0xf99852553455c3fd),
        ("Ping", 0xa94b14e49f53fd33),
        ("Shutdown", 0x6cc7399f178c6892),
    ];
    assert_pinned(&sample_messages().0, &pins);
}

#[test]
fn shard_responses_keep_their_bytes() {
    let pins = [
        ("Hello", 0x67d4d060c80ed6c8),
        ("CandidatesBatch", 0x5da1bade3b674a78),
        ("Inserted", 0xf4e8e37e4d46b29c),
        ("Pong", 0xe3ca35ac20a1f86f),
        ("Shutdown", 0x6cc7399f178c6892),
        ("Error", 0xbfbffac9c8f97ac6),
    ];
    assert_pinned(&sample_messages().1, &pins);
}

#[test]
fn router_requests_keep_their_bytes() {
    let pins = [
        ("Hello", 0x41c44cf4136e26fc),
        ("Resolve", 0x1d787ce762e089c8),
        ("IngestBatch", 0xb9067f59941a34e3),
        ("Stats", 0xa94b14e49f53fd33),
        ("Shutdown", 0x6cc7399f178c6892),
        ("Resolve", 0xa0e602d8301da691),
        ("Resolve", 0x7d398a5ee973b2b1),
    ];
    assert_pinned(&sample_messages().2, &pins);
}

#[test]
fn router_responses_keep_their_bytes() {
    let pins = [
        ("Hello", 0xcb4f6ae62bd0184d),
        ("Resolve", 0x4ebd260714552150),
        ("IngestBatch", 0x1cc238e46fd5ff8e),
        ("Stats", 0x3b0ebc3ac13dad7b),
        ("Shutdown", 0x6cc7399f178c6892),
        ("Error", 0xa7e205ece4d3f84f),
        ("Resolve", 0xf8d1cdebec54d111),
    ];
    assert_pinned(&sample_messages().3, &pins);
}

#[test]
fn snapshot_keeps_its_bytes() {
    let digest = fnv1a64(&tiny_snapshot().to_bytes());
    assert_eq!(digest, 0x38dca1cbe7805b4b, "the tiny snapshot moved a byte");
}

#[test]
fn shard_frames_keep_their_bytes() {
    let titles: Vec<String> = (0..30).map(|i| format!("gadget model number {i}")).collect();
    let blocker = ShardedBlocker::build(
        &CandidateGenConfig::NGram(NGramBlockerConfig::default()),
        ShardConfig::of(3),
        titles.iter().map(String::as_str),
    );
    let digest = payload_digest(&ShardFrames::from_blocker(&blocker));
    assert_eq!(digest, 0xc74a0c4c5838440c, "3-shard q-gram frames moved a byte");
}
