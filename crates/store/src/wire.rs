//! The TCP wire protocol of the networked shard deployment.
//!
//! Messages travel as self-delimiting frames with the same shape as the
//! `.flexer` container — magic, version, length, payload, FNV-1a
//! checksum — but under their own magic so a stray snapshot file can
//! never be mistaken for a protocol stream:
//!
//! ```text
//! ┌────────────┬─────────────┬─────────────────┬──────────┬──────────────┐
//! │ "FLEXWIRE" │ version u32 │ payload_len u64 │ payload  │ checksum u64 │
//! └────────────┴─────────────┴─────────────────┴──────────┴──────────────┘
//! ```
//!
//! Every byte here is **untrusted**: it arrives from a socket, not from a
//! file we wrote ourselves. The framing therefore bounds the declared
//! length twice — against [`MAX_WIRE_FRAME`] before any allocation, and
//! (in the slice-level [`unseal_frame`]) against the buffer with checked
//! arithmetic — and every list inside a payload decodes through the
//! store's one sequence codec, which caps each count by the bytes actually
//! present ([`Reader::get_count`]) before reserving anything. Corrupt input
//! yields `Err`, never a panic and never an attacker-sized allocation.
//!
//! The message vocabulary itself ([`ShardRequest`]/[`ShardResponse`],
//! [`RouterRequest`]/[`RouterResponse`]) lives in `flexer-types::wire`;
//! this module gives those types their [`Codec`] impls plus blocking
//! [`write_message`]/[`read_message`] over any `io::Write`/`io::Read`.

use crate::codec::{Codec, Encode};
use crate::format::{BadHeader, Framing, Reader, StoreError, Writer, HEADER};
use flexer_types::{
    MatchTarget, RankedMatch, ResolveQuery, ResolveResponse, RouterRequest, RouterResponse,
    ShardRequest, ShardResponse, WireCandidates, WireIngestReport, WireQuery,
};
use std::fmt;
use std::io::{self, Read, Write};

/// Leading magic bytes of every wire frame.
pub const WIRE_MAGIC: [u8; 8] = *b"FLEXWIRE";

/// Wire protocol version; both ends reject anything else. (v2 added the
/// `Ping`/`Pong` health probes, the router `Stats` endpoint, and the
/// sequence number on `Insert` that makes replay idempotent.)
pub const WIRE_VERSION: u32 = 2;

/// Hard ceiling on a frame's declared payload length (64 MiB). A peer
/// announcing more is broken or hostile; the reader errors out before
/// allocating a single payload byte.
pub const MAX_WIRE_FRAME: u64 = 64 << 20;

/// Everything that can go wrong on a wire hop.
#[derive(Debug)]
pub enum WireError {
    /// The socket failed (including EOF mid-frame).
    Io(io::Error),
    /// The frame or its payload failed to decode.
    Store(StoreError),
    /// The peer declared a payload larger than [`MAX_WIRE_FRAME`].
    FrameTooLarge(u64),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire I/O error: {e}"),
            WireError::Store(e) => write!(f, "wire decode error: {e}"),
            WireError::FrameTooLarge(n) => {
                write!(f, "wire frame declares {n} payload bytes (cap {MAX_WIRE_FRAME})")
            }
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            WireError::Store(e) => Some(e),
            WireError::FrameTooLarge(_) => None,
        }
    }
}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

impl From<StoreError> for WireError {
    fn from(e: StoreError) -> Self {
        WireError::Store(e)
    }
}

/// The wire protocol's framing. Every byte is untrusted here, so unlike a
/// snapshot file the declared length is capped before anything is
/// allocated for it.
const WIRE: Framing =
    Framing { magic: WIRE_MAGIC, version: WIRE_VERSION, max_payload: MAX_WIRE_FRAME };

/// Frames a payload into a complete wire frame.
pub fn seal_frame(payload: &[u8]) -> Vec<u8> {
    WIRE.seal(payload)
}

/// Validates framing + checksum of an in-memory frame and returns the
/// payload slice. Same hardening as [`crate::unseal`], plus the cap: the
/// declared length is bounded (cap first, then the buffer itself, with no
/// overflowable arithmetic) before anything is sliced.
pub fn unseal_frame(bytes: &[u8]) -> Result<&[u8], StoreError> {
    WIRE.unseal(bytes)
}

/// Encodes one message as a complete frame (for tests and fuzzing; the
/// socket path is [`write_message`]).
pub fn frame_message<T: Codec>(msg: &T) -> Vec<u8> {
    let mut w = Writer::new();
    msg.encode(&mut w);
    seal_frame(&w.into_bytes())
}

/// Decodes one message from a complete in-memory frame, requiring the
/// payload to be consumed exactly.
pub fn decode_frame<T: Codec>(bytes: &[u8]) -> Result<T, StoreError> {
    let mut r = Reader::new(unseal_frame(bytes)?);
    let msg = T::decode(&mut r)?;
    r.finish()?;
    Ok(msg)
}

/// Writes one framed message to a blocking stream.
pub fn write_message<T: Codec>(stream: &mut impl Write, msg: &T) -> Result<(), WireError> {
    stream.write_all(&frame_message(msg))?;
    stream.flush()?;
    Ok(())
}

/// The rest of a frame read, after its header: the header is validated
/// (magic, version, length cap) *before* the frame is allocated, so a
/// hostile peer cannot provoke an attacker-sized buffer; `fill` then reads
/// the body the way the caller reads its stream, and the reassembled frame
/// goes through [`decode_frame`] like any other.
fn read_body<T: Codec>(
    header: &[u8; HEADER],
    fill: impl FnOnce(&mut [u8]) -> io::Result<()>,
) -> Result<T, WireError> {
    let len = match WIRE.payload_len(header) {
        Ok(len) => len as usize,
        Err(BadHeader::TooLarge(len)) => return Err(WireError::FrameTooLarge(len)),
        Err(BadHeader::Foreign(e)) => return Err(e.into()),
    };
    let mut frame = vec![0u8; HEADER + len + 8];
    frame[..HEADER].copy_from_slice(header);
    fill(&mut frame[HEADER..])?;
    Ok(decode_frame(&frame)?)
}

/// Reads one framed message from a blocking stream, header first (see
/// `read_body`).
pub fn read_message<T: Codec>(stream: &mut impl Read) -> Result<T, WireError> {
    let mut header = [0u8; HEADER];
    stream.read_exact(&mut header)?;
    read_body(&header, |body| stream.read_exact(body))
}

/// Floor for socket timeouts: `set_read_timeout(Some(ZERO))` is an error,
/// and sub-millisecond timeouts busy-spin on some platforms.
const MIN_TIMEOUT: std::time::Duration = std::time::Duration::from_millis(1);

/// Reads exactly `buf.len()` bytes from `stream`, finishing before
/// `deadline`. Unlike a plain `set_read_timeout` + `read_exact`, the
/// budget covers the **whole** buffer: a peer dribbling one byte per
/// timeout window (slow-loris) cannot extend it, because the remaining
/// time is re-derived from the absolute deadline before every `read`.
fn read_exact_deadline(
    stream: &mut std::net::TcpStream,
    buf: &mut [u8],
    deadline: std::time::Instant,
) -> io::Result<()> {
    let mut filled = 0;
    while filled < buf.len() {
        let now = std::time::Instant::now();
        if now >= deadline {
            return Err(io::Error::new(io::ErrorKind::TimedOut, "frame read deadline exceeded"));
        }
        stream.set_read_timeout(Some((deadline - now).max(MIN_TIMEOUT)))?;
        match stream.read(&mut buf[filled..]) {
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            // The socket timer expired (Linux reports `WouldBlock`, other
            // platforms `TimedOut`): loop back so the absolute-deadline
            // check decides — either more budget remains and the read
            // retries, or the canonical `TimedOut` is returned.
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => {
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Reads one framed message from a TCP stream under two explicit bounds:
/// the peer has `first_byte_wait` to start a frame (no bytes within it ⇒
/// `Ok(None)`, the **idle** outcome — a server reaps the connection, a
/// client treats it as a timeout), and once the first byte has arrived
/// the whole frame must complete within `frame_budget` (exceeded ⇒
/// `Err(Io(TimedOut))`, the **stall** outcome — the connection is
/// desynchronized and must be dropped). This is the read every networked
/// component uses; the unbounded [`read_message`] remains for in-memory
/// streams and tests.
pub fn read_message_bounded<T: Codec>(
    stream: &mut std::net::TcpStream,
    first_byte_wait: std::time::Duration,
    frame_budget: std::time::Duration,
) -> Result<Option<T>, WireError> {
    let mut header = [0u8; HEADER];
    stream.set_read_timeout(Some(first_byte_wait.max(MIN_TIMEOUT)))?;
    let first = loop {
        match stream.read(&mut header) {
            Ok(0) => return Err(io::Error::from(io::ErrorKind::UnexpectedEof).into()),
            Ok(n) => break n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                return Ok(None)
            }
            Err(e) => return Err(e.into()),
        }
    };
    // A frame has begun: everything else races one absolute deadline.
    let deadline = std::time::Instant::now() + frame_budget;
    read_exact_deadline(stream, &mut header[first..], deadline)?;
    read_body(&header, |body| read_exact_deadline(stream, body, deadline)).map(Some)
}

fn bad_tag<T>(what: &str, tag: u8) -> Result<T, StoreError> {
    Err(StoreError::Malformed(format!("unknown {what} tag {tag}")))
}

// ---------------------------------------------------------------------------
// Resolve vocabulary (flexer-types::query)
// ---------------------------------------------------------------------------

impl Encode for ResolveQuery {
    fn encode(&self, w: &mut Writer) {
        match self {
            ResolveQuery::CorpusPair(p) => {
                w.put_u8(0);
                w.put_usize(*p);
            }
            ResolveQuery::TitlePair(a, b) => {
                w.put_u8(1);
                w.put_str(a);
                w.put_str(b);
            }
            ResolveQuery::Record(t) => {
                w.put_u8(2);
                w.put_str(t);
            }
        }
    }
}

impl Codec for ResolveQuery {
    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        match r.get_u8()? {
            0 => Ok(ResolveQuery::CorpusPair(r.get_usize()?)),
            1 => Ok(ResolveQuery::TitlePair(r.get_str()?, r.get_str()?)),
            2 => Ok(ResolveQuery::Record(r.get_str()?)),
            t => bad_tag("ResolveQuery", t),
        }
    }
}

impl Encode for MatchTarget {
    fn encode(&self, w: &mut Writer) {
        match self {
            MatchTarget::Record(i) => {
                w.put_u8(0);
                w.put_usize(*i);
            }
            MatchTarget::Pair(i) => {
                w.put_u8(1);
                w.put_usize(*i);
            }
            MatchTarget::AdHoc => w.put_u8(2),
        }
    }
}

impl Codec for MatchTarget {
    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        match r.get_u8()? {
            0 => Ok(MatchTarget::Record(r.get_usize()?)),
            1 => Ok(MatchTarget::Pair(r.get_usize()?)),
            2 => Ok(MatchTarget::AdHoc),
            t => bad_tag("MatchTarget", t),
        }
    }
}

impl Encode for RankedMatch {
    fn encode(&self, w: &mut Writer) {
        self.target.encode(w);
        w.put_f32(self.score); // raw bits — scores survive the hop bit-exactly
        w.put_bool(self.matched);
    }
}

impl Codec for RankedMatch {
    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        Ok(Self { target: MatchTarget::decode(r)?, score: r.get_f32()?, matched: r.get_bool()? })
    }
}

impl Encode for ResolveResponse {
    fn encode(&self, w: &mut Writer) {
        w.put_usize(self.intent);
        self.matches.encode(w);
    }
}

impl Codec for ResolveResponse {
    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        Ok(Self { intent: r.get_usize()?, matches: Vec::decode(r)? })
    }
}

// ---------------------------------------------------------------------------
// Router ↔ shard-server hop
// ---------------------------------------------------------------------------

impl Encode for WireQuery {
    fn encode(&self, w: &mut Writer) {
        match self {
            WireQuery::Grams(gs) => {
                w.put_u8(0);
                gs.encode(w);
            }
            WireQuery::Embedding(v) => {
                w.put_u8(1);
                v.encode(w);
            }
        }
    }
}

impl Codec for WireQuery {
    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        match r.get_u8()? {
            0 => Ok(WireQuery::Grams(Vec::decode(r)?)),
            1 => Ok(WireQuery::Embedding(Vec::decode(r)?)),
            t => bad_tag("WireQuery", t),
        }
    }
}

impl Encode for WireCandidates {
    fn encode(&self, w: &mut Writer) {
        match self {
            WireCandidates::Ids(ids) => {
                w.put_u8(0);
                ids.encode(w);
            }
            WireCandidates::Hits(hits) => {
                w.put_u8(1);
                hits.encode(w);
            }
        }
    }
}

impl Codec for WireCandidates {
    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        match r.get_u8()? {
            0 => Ok(WireCandidates::Ids(Vec::decode(r)?)),
            1 => Ok(WireCandidates::Hits(Vec::decode(r)?)),
            t => bad_tag("WireCandidates", t),
        }
    }
}

impl Encode for ShardRequest {
    fn encode(&self, w: &mut Writer) {
        match self {
            ShardRequest::Hello => w.put_u8(0),
            ShardRequest::QueryBatch(qs) => {
                w.put_u8(2);
                qs.encode(w);
            }
            ShardRequest::Insert { seq, rows } => {
                w.put_u8(3);
                w.put_u64(*seq);
                rows.encode(w);
            }
            ShardRequest::Shutdown => w.put_u8(4),
            ShardRequest::Ping => w.put_u8(5),
        }
    }
}

impl Codec for ShardRequest {
    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        match r.get_u8()? {
            0 => Ok(ShardRequest::Hello),
            2 => Ok(ShardRequest::QueryBatch(Vec::decode(r)?)),
            3 => Ok(ShardRequest::Insert { seq: r.get_u64()?, rows: Vec::decode(r)? }),
            4 => Ok(ShardRequest::Shutdown),
            5 => Ok(ShardRequest::Ping),
            t => bad_tag("ShardRequest", t),
        }
    }
}

impl Encode for ShardResponse {
    fn encode(&self, w: &mut Writer) {
        match self {
            ShardResponse::Hello { shard, n_shards, n_records, backend, gram_counts } => {
                w.put_u8(0);
                w.put_u64(*shard);
                w.put_u64(*n_shards);
                w.put_u64(*n_records);
                w.put_str(backend);
                gram_counts.encode(w);
            }
            ShardResponse::CandidatesBatch(cs) => {
                w.put_u8(2);
                cs.encode(w);
            }
            ShardResponse::Inserted { n_records } => {
                w.put_u8(3);
                w.put_u64(*n_records);
            }
            ShardResponse::Shutdown => w.put_u8(4),
            ShardResponse::Error(msg) => {
                w.put_u8(5);
                w.put_str(msg);
            }
            ShardResponse::Pong => w.put_u8(6),
        }
    }
}

impl Codec for ShardResponse {
    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        match r.get_u8()? {
            0 => Ok(ShardResponse::Hello {
                shard: r.get_u64()?,
                n_shards: r.get_u64()?,
                n_records: r.get_u64()?,
                backend: r.get_str()?,
                gram_counts: Vec::decode(r)?,
            }),
            2 => Ok(ShardResponse::CandidatesBatch(Vec::decode(r)?)),
            3 => Ok(ShardResponse::Inserted { n_records: r.get_u64()? }),
            4 => Ok(ShardResponse::Shutdown),
            5 => Ok(ShardResponse::Error(r.get_str()?)),
            6 => Ok(ShardResponse::Pong),
            t => bad_tag("ShardResponse", t),
        }
    }
}

// ---------------------------------------------------------------------------
// Client ↔ router hop
// ---------------------------------------------------------------------------

impl Encode for RouterRequest {
    fn encode(&self, w: &mut Writer) {
        match self {
            RouterRequest::Hello => w.put_u8(0),
            RouterRequest::Resolve { query, intent, top_k } => {
                w.put_u8(1);
                query.encode(w);
                w.put_u64(*intent);
                w.put_u64(*top_k);
            }
            RouterRequest::IngestBatch(titles) => {
                w.put_u8(3);
                titles.encode(w);
            }
            RouterRequest::Shutdown => w.put_u8(4),
            RouterRequest::Stats => w.put_u8(5),
        }
    }
}

impl Codec for RouterRequest {
    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        match r.get_u8()? {
            0 => Ok(RouterRequest::Hello),
            1 => Ok(RouterRequest::Resolve {
                query: ResolveQuery::decode(r)?,
                intent: r.get_u64()?,
                top_k: r.get_u64()?,
            }),
            3 => Ok(RouterRequest::IngestBatch(Vec::decode(r)?)),
            4 => Ok(RouterRequest::Shutdown),
            5 => Ok(RouterRequest::Stats),
            t => bad_tag("RouterRequest", t),
        }
    }
}

impl Encode for WireIngestReport {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.record);
        w.put_u64(self.first_pair);
        w.put_u64(self.n_pairs);
        w.put_u64(self.n_suppressed);
    }
}

impl Codec for WireIngestReport {
    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        Ok(Self {
            record: r.get_u64()?,
            first_pair: r.get_u64()?,
            n_pairs: r.get_u64()?,
            n_suppressed: r.get_u64()?,
        })
    }
}

impl Encode for RouterResponse {
    fn encode(&self, w: &mut Writer) {
        match self {
            RouterResponse::Hello { n_shards, n_records, n_intents } => {
                w.put_u8(0);
                w.put_u64(*n_shards);
                w.put_u64(*n_records);
                w.put_u64(*n_intents);
            }
            RouterResponse::Resolve(outcome) => {
                w.put_u8(1);
                outcome.encode(w);
            }
            RouterResponse::IngestBatch(reports) => {
                w.put_u8(3);
                reports.encode(w);
            }
            RouterResponse::Shutdown => w.put_u8(4),
            RouterResponse::Error(msg) => {
                w.put_u8(5);
                w.put_str(msg);
            }
            RouterResponse::Stats(pairs) => {
                w.put_u8(6);
                pairs.encode(w);
            }
        }
    }
}

impl Codec for RouterResponse {
    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        match r.get_u8()? {
            0 => Ok(RouterResponse::Hello {
                n_shards: r.get_u64()?,
                n_records: r.get_u64()?,
                n_intents: r.get_u64()?,
            }),
            1 => Ok(RouterResponse::Resolve(Result::decode(r)?)),
            3 => Ok(RouterResponse::IngestBatch(Vec::decode(r)?)),
            4 => Ok(RouterResponse::Shutdown),
            5 => Ok(RouterResponse::Error(r.get_str()?)),
            6 => Ok(RouterResponse::Stats(Vec::decode(r)?)),
            t => bad_tag("RouterResponse", t),
        }
    }
}

#[cfg(test)]
#[path = "../tests/common/messages.rs"]
mod messages;

#[cfg(test)]
mod tests {
    use super::messages::sample_messages;
    use super::*;

    fn roundtrip<T: Codec + PartialEq + std::fmt::Debug>(msg: &T) {
        let frame = frame_message(msg);
        assert_eq!(&decode_frame::<T>(&frame).unwrap(), msg);
        // Stream path: two copies back to back must frame cleanly.
        let mut stream = Vec::new();
        write_message(&mut stream, msg).unwrap();
        write_message(&mut stream, msg).unwrap();
        let mut cursor = stream.as_slice();
        assert_eq!(&read_message::<T>(&mut cursor).unwrap(), msg);
        assert_eq!(&read_message::<T>(&mut cursor).unwrap(), msg);
        assert!(cursor.is_empty());
    }

    #[test]
    fn every_message_roundtrips_bit_exactly() {
        let (sreq, sresp, rreq, rresp) = sample_messages();
        sreq.iter().for_each(roundtrip);
        sresp.iter().for_each(roundtrip);
        rreq.iter().for_each(roundtrip);
        rresp.iter().for_each(roundtrip);
    }

    /// Tag 1 of the shard hop was the single-query exchange, tag 2 of the
    /// router hop the batch of resolves; a frame that still carries either
    /// is an unknown tag now, in either direction.
    #[test]
    fn retired_single_query_tag_is_unknown() {
        let unknown = |tag: &str| {
            let tag = format!("tag {tag}");
            move |e: StoreError| matches!(e, StoreError::Malformed(m) if m.contains(&tag))
        };
        let frame = seal_frame(&[1]);
        assert!(decode_frame::<ShardRequest>(&frame).is_err_and(unknown("1")));
        assert!(decode_frame::<ShardResponse>(&frame).is_err_and(unknown("1")));
        let frame = seal_frame(&[2]);
        assert!(decode_frame::<RouterRequest>(&frame).is_err_and(unknown("2")));
        assert!(decode_frame::<RouterResponse>(&frame).is_err_and(unknown("2")));
    }

    /// What a read path makes of a corrupt frame, reduced to what the paths
    /// share: a bad length is `Truncated` on the slice path, `FrameTooLarge`
    /// or the EOF they run into on the stream paths.
    #[derive(Debug, PartialEq)]
    enum Verdict {
        Length,
        Magic,
        Version(u32),
        Checksum,
    }

    fn verdict<T>(outcome: Result<T, WireError>) -> Verdict {
        match outcome.err().expect("a corrupt frame must not decode") {
            WireError::Store(StoreError::BadMagic) => Verdict::Magic,
            WireError::Store(StoreError::UnsupportedVersion(v)) => Verdict::Version(v),
            WireError::Store(StoreError::ChecksumMismatch { .. }) => Verdict::Checksum,
            WireError::Store(StoreError::Truncated { .. }) | WireError::FrameTooLarge(_) => {
                Verdict::Length
            }
            WireError::Io(e) if e.kind() == io::ErrorKind::UnexpectedEof => Verdict::Length,
            other => panic!("unexpected error for a corrupt frame: {other}"),
        }
    }

    /// One table of corruptions — truncation at every prefix, forged
    /// lengths including the overflow bait, wrong magic, wrong version, a
    /// flipped payload bit — against both magics and every read path: the
    /// slice path of either framing, the blocking stream reader and the
    /// deadline-bounded TCP reader.
    #[test]
    fn corrupt_frames_fail_without_panicking() {
        use std::io::Write as _;
        use std::net::{Shutdown, TcpListener, TcpStream};

        let payload = {
            let mut w = Writer::new();
            ShardRequest::QueryBatch(vec![WireQuery::Grams(vec![7, 8])]).encode(&mut w);
            w.into_bytes()
        };
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let over_tcp = |bytes: &[u8]| {
            let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            peer.write_all(bytes).unwrap();
            peer.shutdown(Shutdown::Write).unwrap();
            let (mut conn, _) = listener.accept().unwrap();
            let wait = std::time::Duration::from_secs(5);
            verdict(read_message_bounded::<ShardRequest>(&mut conn, wait, wait))
        };
        type Unseal = fn(&[u8]) -> Result<&[u8], StoreError>;
        let framings: [(Vec<u8>, Unseal, bool); 2] = [
            (crate::format::seal(&payload), crate::format::unseal, false),
            (seal_frame(&payload), unseal_frame, true),
        ];
        for (frame, unseal, is_wire) in framings {
            assert_eq!(unseal(&frame).unwrap(), payload);
            let with = |at: std::ops::Range<usize>, bytes: &[u8]| {
                let mut bad = frame.clone();
                bad[at].copy_from_slice(bytes);
                bad
            };
            let mut cases: Vec<(Vec<u8>, Verdict)> =
                (0..frame.len()).map(|cut| (frame[..cut].to_vec(), Verdict::Length)).collect();
            for forged in [u64::MAX, u64::MAX - 7, MAX_WIRE_FRAME + 1, frame.len() as u64, 1 << 60]
            {
                cases.push((with(12..20, &forged.to_le_bytes()), Verdict::Length));
            }
            cases.push((with(0..1, b"X"), Verdict::Magic));
            cases.push((with(8..12, &99u32.to_le_bytes()), Verdict::Version(99)));
            cases.push((with(HEADER..HEADER + 1, &[frame[HEADER] ^ 0x01]), Verdict::Checksum));
            for (bad, want) in cases {
                assert_eq!(verdict(unseal(&bad).map_err(WireError::Store)), want, "slice {bad:?}");
                if is_wire {
                    let decoded = decode_frame::<ShardRequest>(&bad).map_err(WireError::Store);
                    assert_eq!(verdict(decoded), want, "decode {bad:?}");
                    let streamed = read_message::<ShardRequest>(&mut bad.as_slice());
                    assert_eq!(verdict(streamed), want, "stream {bad:?}");
                    assert_eq!(over_tcp(&bad), want, "bounded {bad:?}");
                }
            }
        }
    }

    #[test]
    fn bounded_reader_distinguishes_idle_stall_and_success() {
        use std::io::Write as _;
        use std::net::{TcpListener, TcpStream};
        use std::time::Duration;

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            // 1. Say nothing for a while (idle), then send a full frame.
            std::thread::sleep(Duration::from_millis(80));
            write_message(&mut stream, &ShardRequest::Ping).unwrap();
            // 2. Start a frame and stall after the first byte.
            stream.write_all(&WIRE_MAGIC[..1]).unwrap();
            stream.flush().unwrap();
            std::thread::sleep(Duration::from_millis(300));
        });
        let (mut conn, _) = listener.accept().unwrap();
        // Idle: no bytes inside the first-byte window.
        let idle = read_message_bounded::<ShardRequest>(
            &mut conn,
            Duration::from_millis(20),
            Duration::from_millis(200),
        )
        .unwrap();
        assert!(idle.is_none(), "no frame started yet — idle, not an error");
        // Success: a complete frame within budget.
        let msg = read_message_bounded::<ShardRequest>(
            &mut conn,
            Duration::from_secs(2),
            Duration::from_secs(2),
        )
        .unwrap();
        assert_eq!(msg, Some(ShardRequest::Ping));
        // Stall: the frame began but never completes within its budget.
        let stalled = read_message_bounded::<ShardRequest>(
            &mut conn,
            Duration::from_secs(2),
            Duration::from_millis(50),
        );
        assert!(
            matches!(stalled, Err(WireError::Io(ref e)) if e.kind() == io::ErrorKind::TimedOut),
            "mid-frame stall must surface as a timeout, got {stalled:?}"
        );
        client.join().unwrap();
    }

    #[test]
    fn stream_reader_rejects_oversized_frames_before_allocating() {
        let mut frame = frame_message(&RouterRequest::Hello);
        frame[12..20].copy_from_slice(&u64::MAX.to_le_bytes());
        let mut cursor = frame.as_slice();
        assert!(matches!(
            read_message::<RouterRequest>(&mut cursor),
            Err(WireError::FrameTooLarge(u64::MAX))
        ));
    }
}
