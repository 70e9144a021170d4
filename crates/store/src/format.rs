//! The `.flexer` container: a little-endian payload framed by a magic
//! string, a format version, the payload length and a trailing FNV-1a
//! checksum.
//!
//! ```text
//! ┌────────────┬─────────────┬──────────────────┬──────────┬──────────────┐
//! │ "FLEXSNAP" │ version u32 │ payload_len u64  │ payload  │ checksum u64 │
//! └────────────┴─────────────┴──────────────────┴──────────┴──────────────┘
//! ```
//!
//! The environment is offline (no serde), so the payload is produced by the
//! hand-rolled [`Writer`]/[`Reader`] pair below — the same style as the
//! `crates/compat` shims. All multi-byte values are little-endian; floats
//! are stored as their raw IEEE-754 bits, so round-trips are bit-exact.

use std::fmt;

/// Leading magic bytes of every `.flexer` file.
pub const MAGIC: [u8; 8] = *b"FLEXSNAP";

/// Current format version. Bump on any layout change; readers reject
/// versions they do not understand instead of mis-parsing them.
/// History: 1 = PR 2 layout; 2 = candidate-generation tier (the snapshot
/// carries the serving blocker state after the ANN indexes); 3 =
/// shard-aware snapshots (an optional sharded-blocker section of
/// length-prefixed per-shard frames follows the blocker, so shard servers
/// can decode their own shard without materializing the rest).
pub const VERSION: u32 = 3;

/// Everything that can go wrong reading a snapshot.
#[derive(Debug)]
pub enum StoreError {
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The file declares a version this reader does not support.
    UnsupportedVersion(u32),
    /// The buffer ended before a read completed.
    Truncated {
        /// Bytes the read needed.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// The trailing checksum does not match the payload.
    ChecksumMismatch {
        /// Checksum stored in the file.
        stored: u64,
        /// Checksum computed over the payload.
        computed: u64,
    },
    /// Bytes were left over after the payload decoded completely.
    TrailingBytes(usize),
    /// The payload decoded but its contents are inconsistent.
    Malformed(String),
    /// Filesystem error while reading or writing.
    Io(std::io::Error),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::BadMagic => write!(f, "not a .flexer snapshot (bad magic)"),
            StoreError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot version {v} (reader supports {VERSION})")
            }
            StoreError::Truncated { needed, available } => {
                write!(f, "snapshot truncated: needed {needed} bytes, {available} available")
            }
            StoreError::ChecksumMismatch { stored, computed } => write!(
                f,
                "snapshot corrupted: stored checksum {stored:#018x} != computed {computed:#018x}"
            ),
            StoreError::TrailingBytes(n) => {
                write!(f, "snapshot has {n} unexpected trailing payload bytes")
            }
            StoreError::Malformed(msg) => write!(f, "malformed snapshot: {msg}"),
            StoreError::Io(e) => write!(f, "snapshot I/O error: {e}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// FNV-1a 64-bit over a byte slice — cheap, dependency-free corruption
/// detection (not a cryptographic integrity guarantee).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF29CE484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001B3);
    }
    h
}

/// Bytes before a frame's payload: magic, version, payload length.
pub(crate) const HEADER: usize = 8 + 4 + 8;

/// What tells one kind of frame from another. The `.flexer` container and
/// the wire protocol share one layout, so they share one sealer, one header
/// parser and one body check, parameterised by this.
pub(crate) struct Framing {
    pub(crate) magic: [u8; 8],
    pub(crate) version: u32,
    /// Largest payload a reader accepts.
    pub(crate) max_payload: u64,
}

/// Why a header cannot start a frame.
pub(crate) enum BadHeader {
    /// Wrong magic or version.
    Foreign(StoreError),
    /// The declared payload length exceeds [`Framing::max_payload`].
    TooLarge(u64),
}

/// A snapshot file is read whole before it is unsealed, so the buffer is
/// its only length bound.
const SNAPSHOT: Framing = Framing { magic: MAGIC, version: VERSION, max_payload: u64::MAX };

impl Framing {
    /// Frames a payload.
    pub(crate) fn seal(&self, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER + payload.len() + 8);
        out.extend_from_slice(&self.magic);
        out.extend_from_slice(&self.version.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(payload);
        out.extend_from_slice(&fnv1a64(payload).to_le_bytes());
        out
    }

    /// Validates a frame's first [`HEADER`] bytes — magic, version, the
    /// declared payload length against the cap — and returns that length.
    /// Nothing is allocated or sliced for the payload before this passes.
    pub(crate) fn payload_len(&self, header: &[u8]) -> Result<u64, BadHeader> {
        if header[..8] != self.magic {
            return Err(BadHeader::Foreign(StoreError::BadMagic));
        }
        let version = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
        if version != self.version {
            return Err(BadHeader::Foreign(StoreError::UnsupportedVersion(version)));
        }
        let len = u64::from_le_bytes(header[12..HEADER].try_into().expect("8 bytes"));
        if len > self.max_payload {
            return Err(BadHeader::TooLarge(len));
        }
        Ok(len)
    }

    /// Validates framing + checksum of an in-memory frame and returns the
    /// payload slice.
    pub(crate) fn unseal<'a>(&self, bytes: &'a [u8]) -> Result<&'a [u8], StoreError> {
        let truncated = |needed: u64| StoreError::Truncated {
            needed: needed.min(usize::MAX as u64) as usize,
            available: bytes.len(),
        };
        if bytes.len() < HEADER + 8 {
            return Err(truncated((HEADER + 8) as u64));
        }
        // The length field is untrusted: `HEADER + len + 8` must not wrap (a
        // corrupt length near `u64::MAX` would otherwise slice out of bounds
        // in release builds and overflow-panic in debug builds). A valid
        // payload can never exceed the buffer, so bound it there first.
        let room = (bytes.len() - HEADER - 8) as u64;
        let total = match self.payload_len(&bytes[..HEADER]) {
            Ok(len) if len <= room => HEADER + len as usize + 8,
            Ok(len) | Err(BadHeader::TooLarge(len)) => {
                return Err(truncated(len.saturating_add((HEADER + 8) as u64)))
            }
            Err(BadHeader::Foreign(e)) => return Err(e),
        };
        if bytes.len() > total {
            return Err(StoreError::TrailingBytes(bytes.len() - total));
        }
        let (payload, stored) = bytes[HEADER..].split_at(total - HEADER - 8);
        let stored = u64::from_le_bytes(stored.try_into().expect("8 bytes"));
        let computed = fnv1a64(payload);
        if stored != computed {
            return Err(StoreError::ChecksumMismatch { stored, computed });
        }
        Ok(payload)
    }
}

/// Frames a payload into a complete `.flexer` byte stream.
pub fn seal(payload: &[u8]) -> Vec<u8> {
    SNAPSHOT.seal(payload)
}

/// Validates framing + checksum and returns the payload slice.
pub fn unseal(bytes: &[u8]) -> Result<&[u8], StoreError> {
    SNAPSHOT.unseal(bytes)
}

/// Little-endian payload writer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the writer, returning the payload.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// One byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Little-endian u32.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Little-endian u64.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// `usize` stored as u64 (portable across word sizes).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// IEEE-754 bits of an f32 (bit-exact, NaN-preserving).
    pub fn put_f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// IEEE-754 bits of an f64.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Strict boolean (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Length-prefixed raw byte blob (nested frames).
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_usize(bytes.len());
        self.buf.extend_from_slice(bytes);
    }
}

/// Little-endian payload reader over a borrowed buffer.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Reader over a full payload.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Errors unless every byte was consumed.
    pub fn finish(self) -> Result<(), StoreError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(StoreError::TrailingBytes(self.remaining()))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        if self.remaining() < n {
            return Err(StoreError::Truncated { needed: n, available: self.remaining() });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// One byte.
    pub fn get_u8(&mut self) -> Result<u8, StoreError> {
        Ok(self.take(1)?[0])
    }

    /// Little-endian u32.
    pub fn get_u32(&mut self) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    /// Little-endian u64.
    pub fn get_u64(&mut self) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// A u64 narrowed to usize; errors if it cannot fit.
    pub fn get_usize(&mut self) -> Result<usize, StoreError> {
        let v = self.get_u64()?;
        usize::try_from(v)
            .map_err(|_| StoreError::Malformed(format!("length {v} exceeds this platform")))
    }

    /// The count of a sequence, checked against the bytes left: every
    /// element encodes to at least one byte, so a larger count is corrupt
    /// and fails here, before anything is allocated for it. The sequence
    /// codec (`Vec<T>`'s `Codec` impl) is the one caller.
    pub fn get_count(&mut self) -> Result<usize, StoreError> {
        let n = self.get_usize()?;
        if n > self.remaining() {
            return Err(StoreError::Truncated { needed: n, available: self.remaining() });
        }
        Ok(n)
    }

    /// IEEE-754 f32.
    pub fn get_f32(&mut self) -> Result<f32, StoreError> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    /// IEEE-754 f64.
    pub fn get_f64(&mut self) -> Result<f64, StoreError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Strict boolean: any byte other than 0/1 is malformed.
    pub fn get_bool(&mut self) -> Result<bool, StoreError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(StoreError::Malformed(format!("invalid boolean byte {b}"))),
        }
    }

    /// Length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, StoreError> {
        let n = self.get_usize()?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| StoreError::Malformed(format!("invalid UTF-8 string: {e}")))
    }

    /// Length-prefixed raw byte blob (nested frames).
    pub fn get_bytes(&mut self) -> Result<Vec<u8>, StoreError> {
        let n = self.get_usize()?;
        Ok(self.take(n)?.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        let mut w = Writer::new();
        w.put_u8(7);
        w.put_u32(0xDEADBEEF);
        w.put_u64(u64::MAX - 1);
        w.put_usize(42);
        w.put_f32(-0.0);
        w.put_f64(std::f64::consts::PI);
        w.put_bool(true);
        w.put_str("intención");
        w.put_bytes(&[1, 2, 3]);
        let bytes = w.into_bytes();

        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 0xDEADBEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.get_usize().unwrap(), 42);
        assert_eq!(r.get_f32().unwrap().to_bits(), (-0.0f32).to_bits());
        assert_eq!(r.get_f64().unwrap(), std::f64::consts::PI);
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_str().unwrap(), "intención");
        assert_eq!(r.get_bytes().unwrap(), vec![1, 2, 3]);
        r.finish().unwrap();
    }

    #[test]
    fn nan_bits_preserved() {
        let weird = f32::from_bits(0x7FC0_1234); // a payloaded NaN
        let mut w = Writer::new();
        w.put_f32(weird);
        let bytes = w.into_bytes();
        let got = Reader::new(&bytes).get_f32().unwrap();
        assert_eq!(got.to_bits(), weird.to_bits());
    }

    #[test]
    fn seal_unseal_roundtrip() {
        let payload = b"hello snapshot".to_vec();
        let sealed = seal(&payload);
        assert_eq!(unseal(&sealed).unwrap(), payload.as_slice());
    }

    #[test]
    fn corruption_detected() {
        let sealed = seal(b"payload bytes");
        // Flip one payload bit.
        let mut bad = sealed.clone();
        bad[MAGIC.len() + 12 + 3] ^= 0x40;
        assert!(matches!(unseal(&bad), Err(StoreError::ChecksumMismatch { .. })));
        // Truncate.
        assert!(matches!(unseal(&sealed[..sealed.len() - 3]), Err(StoreError::Truncated { .. })));
        // Bad magic.
        let mut bad = sealed.clone();
        bad[0] = b'X';
        assert!(matches!(unseal(&bad), Err(StoreError::BadMagic)));
        // Future version.
        let mut bad = sealed.clone();
        bad[8] = 99;
        assert!(matches!(unseal(&bad), Err(StoreError::UnsupportedVersion(99))));
        // Trailing garbage.
        let mut bad = sealed;
        bad.push(0);
        assert!(matches!(unseal(&bad), Err(StoreError::TrailingBytes(1))));
    }

    #[test]
    fn corrupt_length_field_cannot_overflow() {
        // A sealed frame whose length field is forged to huge values must
        // report truncation, never wrap `header + len + 8` into an
        // out-of-bounds slice (release) or arithmetic overflow (debug).
        let sealed = seal(b"payload bytes");
        for forged in [u64::MAX, u64::MAX - 7, u64::MAX / 2, sealed.len() as u64, 1 << 60] {
            let mut bad = sealed.clone();
            bad[12..20].copy_from_slice(&forged.to_le_bytes());
            assert!(
                matches!(unseal(&bad), Err(StoreError::Truncated { .. })),
                "forged length {forged} must fail as truncated"
            );
        }
    }

    #[test]
    fn count_prefix_is_bounded_by_remaining_bytes() {
        let mut w = Writer::new();
        w.put_usize(3);
        w.put_u8(7);
        w.put_u8(7); // only 2 bytes follow: 3 elements of >= 1 byte cannot fit
        let mut bytes = w.into_bytes();
        assert!(matches!(Reader::new(&bytes).get_count(), Err(StoreError::Truncated { .. })));
        // With a third byte they could.
        bytes.push(7);
        assert_eq!(Reader::new(&bytes).get_count().unwrap(), 3);
    }

    #[test]
    fn oversized_length_fields_fail_before_allocating() {
        use crate::codec::Codec;
        let mut w = Writer::new();
        w.put_u64(u64::MAX / 2); // an absurd element count
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(matches!(Vec::<f32>::decode(&mut r), Err(StoreError::Truncated { .. })));
        let mut r = Reader::new(&bytes);
        assert!(matches!(r.get_bytes(), Err(StoreError::Truncated { .. })));
    }

    #[test]
    fn invalid_bool_rejected() {
        let mut r = Reader::new(&[2]);
        assert!(matches!(r.get_bool(), Err(StoreError::Malformed(_))));
    }

    #[test]
    fn fnv_vector() {
        // Known FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xCBF29CE484222325);
        assert_eq!(fnv1a64(b"a"), 0xAF63DC4C8601EC8C);
    }
}
