//! Versioned, checksummed NF state snapshots.
//!
//! Stateful NFs export their cross-packet state as a canonical byte
//! encoding — little-endian scalars, length-prefixed sequences, map
//! entries emitted in key order — so two instances holding identical
//! state always produce identical bytes. An FNV-1a/128 digest over the
//! header and payload (the same fingerprint idiom `lemur-p4sim` uses for
//! program identity) rides along in the wire framing; any corruption or
//! truncation of a snapshot in transit is detected before a single field
//! is applied, and restore is all-or-nothing: a snapshot that fails
//! validation leaves the target NF untouched.
//!
//! Wire framing of an encoded snapshot:
//!
//! ```text
//! magic   u32  "LMSN"
//! version u16  SNAPSHOT_VERSION
//! kind    u8   index into NfKind::ALL
//! len     u32  payload byte count
//! payload [u8; len]   NF-specific canonical encoding
//! digest  u128 FNV-1a/128 over everything above
//! ```

use crate::NfKind;
pub use lemur_packet::digest::Fnv128;
use std::fmt;

/// Current snapshot wire-format version.
pub const SNAPSHOT_VERSION: u16 = 1;

/// `b"LMSN"` as a little-endian u32.
const MAGIC: u32 = u32::from_le_bytes(*b"LMSN");

/// Why a snapshot could not be decoded or applied. Decoding validates the
/// full framing *and* payload before any state is mutated, so every error
/// here implies the restore target is unchanged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// Fewer bytes than the framing or payload promised.
    Truncated { need: usize, have: usize },
    /// The leading magic word is not `LMSN`.
    BadMagic(u32),
    /// The wire-format version is not one we can decode.
    UnsupportedVersion(u16),
    /// The FNV-1a/128 digest does not match the framed bytes.
    ChecksumMismatch { expected: u128, found: u128 },
    /// The snapshot is for a different NF kind than the restore target.
    KindMismatch { expected: NfKind, found: NfKind },
    /// The payload violates an NF-specific invariant (duplicate keys,
    /// out-of-range indices, trailing bytes, ...).
    Invalid(&'static str),
    /// The NF kind keeps no migratable state.
    NoState(NfKind),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated { need, have } => {
                write!(f, "snapshot truncated: need {need} bytes, have {have}")
            }
            SnapshotError::BadMagic(m) => write!(f, "bad snapshot magic {m:#010x}"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot version {v}")
            }
            SnapshotError::ChecksumMismatch { expected, found } => write!(
                f,
                "snapshot checksum mismatch: expected {expected:#034x}, found {found:#034x}"
            ),
            SnapshotError::KindMismatch { expected, found } => {
                write!(
                    f,
                    "snapshot kind mismatch: expected {expected}, found {found}"
                )
            }
            SnapshotError::Invalid(why) => write!(f, "invalid snapshot payload: {why}"),
            SnapshotError::NoState(kind) => write!(f, "{kind} has no migratable state"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Canonical little-endian payload writer.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// An empty encoder.
    pub fn new() -> Encoder {
        Encoder { buf: Vec::new() }
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// IEEE-754 bit pattern, so the encoding is exact.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Length-prefixed byte string (u32 length, then the bytes verbatim).
    pub fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// Length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Consume the encoder, yielding the payload bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Checked payload reader; every accessor fails cleanly on underrun.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Wrap a payload slice.
    pub fn new(buf: &'a [u8]) -> Decoder<'a> {
        Decoder { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.pos + n > self.buf.len() {
            return Err(SnapshotError::Truncated {
                need: self.pos + n,
                have: self.buf.len(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    pub fn u16(&mut self) -> Result<u16, SnapshotError> {
        let s = self.take(2)?;
        Ok(u16::from_le_bytes([s[0], s[1]]))
    }

    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        let s = self.take(4)?;
        Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        let s = self.take(8)?;
        let mut b = [0u8; 8];
        b.copy_from_slice(s);
        Ok(u64::from_le_bytes(b))
    }

    pub fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Length-prefixed byte string written by [`Encoder::bytes`].
    pub fn bytes(&mut self) -> Result<&'a [u8], SnapshotError> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// Length-prefixed UTF-8 string written by [`Encoder::str`].
    pub fn str(&mut self) -> Result<&'a str, SnapshotError> {
        std::str::from_utf8(self.bytes()?)
            .map_err(|_| SnapshotError::Invalid("string field is not UTF-8"))
    }

    /// Assert the payload was fully consumed (trailing garbage is a
    /// corruption signal, not slack).
    pub fn done(&self) -> Result<(), SnapshotError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(SnapshotError::Invalid("trailing bytes after payload"))
        }
    }
}

/// One NF's exported state: kind, format version, and the canonical
/// payload. The digest is recomputed on demand rather than stored, so a
/// snapshot can never disagree with its own checksum in memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NfSnapshot {
    pub kind: NfKind,
    pub version: u16,
    pub payload: Vec<u8>,
}

impl NfSnapshot {
    /// Wrap a payload at the current wire version.
    pub fn new(kind: NfKind, payload: Vec<u8>) -> NfSnapshot {
        NfSnapshot {
            kind,
            version: SNAPSHOT_VERSION,
            payload,
        }
    }

    /// FNV-1a/128 fingerprint over the framed header + payload. Equal
    /// fingerprints ⇔ byte-identical snapshots (modulo hash collisions),
    /// which — because the payload encoding is canonical — means equal
    /// migratable state.
    pub fn fingerprint(&self) -> u128 {
        let mut d = Fnv128::new();
        d.word(MAGIC as u64);
        d.word(self.version as u64);
        d.word(kind_index(self.kind) as u64);
        d.bytes(&self.payload);
        d.finish()
    }

    /// Serialize to the wire framing (header, payload, trailing digest).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.payload.len() + 27);
        out.extend_from_slice(&MAGIC.to_le_bytes());
        out.extend_from_slice(&self.version.to_le_bytes());
        out.push(kind_index(self.kind));
        out.extend_from_slice(&(self.payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.payload);
        out.extend_from_slice(&self.fingerprint().to_le_bytes());
        out
    }

    /// Parse and fully validate wire framing. Rejects bad magic, unknown
    /// versions, length/byte-count disagreement, and checksum mismatch.
    pub fn decode(bytes: &[u8]) -> Result<NfSnapshot, SnapshotError> {
        const HEADER: usize = 4 + 2 + 1 + 4;
        if bytes.len() < HEADER + 16 {
            return Err(SnapshotError::Truncated {
                need: HEADER + 16,
                have: bytes.len(),
            });
        }
        let magic = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        if magic != MAGIC {
            return Err(SnapshotError::BadMagic(magic));
        }
        let version = u16::from_le_bytes([bytes[4], bytes[5]]);
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let kind = kind_from_index(bytes[6])?;
        let len = u32::from_le_bytes([bytes[7], bytes[8], bytes[9], bytes[10]]) as usize;
        let need = HEADER + len + 16;
        if bytes.len() < need {
            return Err(SnapshotError::Truncated {
                need,
                have: bytes.len(),
            });
        }
        if bytes.len() > need {
            return Err(SnapshotError::Invalid("trailing bytes after digest"));
        }
        let snap = NfSnapshot {
            kind,
            version,
            payload: bytes[HEADER..HEADER + len].to_vec(),
        };
        let mut found = [0u8; 16];
        found.copy_from_slice(&bytes[need - 16..]);
        let found = u128::from_le_bytes(found);
        let expected = snap.fingerprint();
        if expected != found {
            return Err(SnapshotError::ChecksumMismatch { expected, found });
        }
        Ok(snap)
    }

    /// Guard a restore target: the snapshot must be for `kind`.
    pub fn expect_kind(&self, kind: NfKind) -> Result<(), SnapshotError> {
        if self.kind == kind {
            Ok(())
        } else {
            Err(SnapshotError::KindMismatch {
                expected: kind,
                found: self.kind,
            })
        }
    }
}

fn kind_index(kind: NfKind) -> u8 {
    NfKind::ALL
        .iter()
        .position(|k| *k == kind)
        .unwrap_or(NfKind::ALL.len()) as u8
}

fn kind_from_index(idx: u8) -> Result<NfKind, SnapshotError> {
    NfKind::ALL
        .get(idx as usize)
        .copied()
        .ok_or(SnapshotError::Invalid("unknown NF kind index"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> NfSnapshot {
        let mut e = Encoder::new();
        e.u32(0xdead_beef);
        e.u64(42);
        e.f64(1.5);
        NfSnapshot::new(NfKind::Nat, e.finish())
    }

    #[test]
    fn roundtrip() {
        let snap = sample();
        let wire = snap.encode();
        let back = NfSnapshot::decode(&wire).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.fingerprint(), snap.fingerprint());
    }

    #[test]
    fn every_single_byte_flip_detected() {
        let wire = sample().encode();
        for i in 0..wire.len() {
            let mut bad = wire.clone();
            bad[i] ^= 0x40;
            assert!(
                NfSnapshot::decode(&bad).is_err(),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn every_truncation_detected() {
        let wire = sample().encode();
        for n in 0..wire.len() {
            assert!(
                NfSnapshot::decode(&wire[..n]).is_err(),
                "truncation to {n} bytes went undetected"
            );
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut wire = sample().encode();
        wire.push(0);
        assert!(matches!(
            NfSnapshot::decode(&wire),
            Err(SnapshotError::Invalid(_))
        ));
    }

    #[test]
    fn kinds_are_distinguished() {
        let a = NfSnapshot::new(NfKind::Nat, vec![1, 2, 3]);
        let b = NfSnapshot::new(NfKind::Lb, vec![1, 2, 3]);
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert!(a.expect_kind(NfKind::Nat).is_ok());
        assert!(matches!(
            a.expect_kind(NfKind::Lb),
            Err(SnapshotError::KindMismatch { .. })
        ));
    }

    #[test]
    fn decoder_underrun_and_trailing() {
        let mut e = Encoder::new();
        e.u16(7);
        let payload = e.finish();
        let mut d = Decoder::new(&payload);
        assert_eq!(d.u16().unwrap(), 7);
        assert!(matches!(d.u32(), Err(SnapshotError::Truncated { .. })));
        let mut d = Decoder::new(&payload);
        assert_eq!(d.u8().unwrap(), 7);
        assert!(d.done().is_err());
    }
}
