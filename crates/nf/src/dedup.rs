//! Dedup NF: network redundancy elimination in the EndRE style (Table 3).
//!
//! The NF maintains a fingerprint store of recently seen payload chunks.
//! Payloads are split at content-defined boundaries chosen by a Rabin-style
//! rolling hash; chunks already in the store are replaced by an 8-byte
//! fingerprint token. This reproduces the two properties the paper calls
//! out (§5.2 "Data-dependent NFs"): per-packet cycles vary with content,
//! and the egress byte rate is lower than the ingress rate on redundant
//! traffic.
//!
//! One pass over the payload does all the per-byte work — the rolling hash
//! that finds the boundaries, the FNV-1a fingerprint of the chunk being
//! scanned, and a count of the bytes that will need escaping. Each chunk
//! is then emitted as a token or copied as a literal (a plain block copy
//! unless it holds an escape byte) into a scratch buffer the NF reuses
//! across packets.
//!
//! The store is an open-addressing hash table (fingerprint → insertion
//! epoch), unordered. Snapshots list its entries in ascending fingerprint
//! order, sorted when the snapshot is taken, so the wire format and the
//! state fingerprint do not depend on probe order.

use crate::payload::Layout;
use crate::snapshot::{Decoder, Encoder};
use crate::{NetworkFunction, NfCtx, NfKind, NfParams, NfSnapshot, SnapshotError, Verdict};
use lemur_packet::PacketBuf;

/// Rolling-hash window size (bytes).
const WINDOW: usize = 16;
/// Rolling-hash multiplier.
const BASE: u64 = 257;
/// A boundary is declared when `hash % ANCHOR_MOD == ANCHOR_MOD - 1`,
/// giving an expected chunk size of ANCHOR_MOD bytes.
const ANCHOR_MOD: u64 = 64;
/// Minimum chunk size worth deduplicating.
const MIN_CHUNK: usize = 32;
/// Escape byte marking a fingerprint token in the compressed payload.
const TOKEN_ESCAPE: u8 = 0xF5;
/// Encoded size of a fingerprint token: escape, marker, 8-byte fingerprint.
const TOKEN_LEN: usize = 10;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// One content-defined chunk, as the scan leaves it.
struct Chunk {
    /// End offset in the payload (exclusive).
    end: usize,
    /// FNV-1a of the chunk's bytes.
    fp: u64,
    /// How many of its bytes equal [`TOKEN_ESCAPE`].
    escapes: usize,
}

/// The single pass over a payload: yields its chunks in order (at least
/// one, the last always ending at `data.len()`), having computed per byte
/// the rolling hash that places the boundary, the chunk's fingerprint and
/// its escape count.
struct Chunker<'a> {
    data: &'a [u8],
    /// Where the chunk being scanned began.
    start: usize,
    /// Bytes absorbed so far; at least [`WINDOW`] (or all of a shorter
    /// payload) from construction on, so every later byte has an
    /// outgoing partner `WINDOW` positions behind it.
    pos: usize,
    /// Polynomial hash of the last [`WINDOW`] bytes; runs across chunk
    /// boundaries.
    roll: u64,
    /// Fingerprint and escape count of the chunk being scanned.
    fp: u64,
    escapes: usize,
    done: bool,
}

impl<'a> Chunker<'a> {
    /// Weight a byte has reached by the time it leaves the window.
    const OUTGOING: u64 = BASE.wrapping_pow(WINDOW as u32);

    fn new(data: &'a [u8]) -> Chunker<'a> {
        let mut c = Chunker {
            data,
            start: 0,
            pos: data.len().min(WINDOW),
            roll: 0,
            fp: FNV_OFFSET,
            escapes: 0,
            done: false,
        };
        // Fill the window: nothing leaves it yet.
        for &b in &data[..c.pos] {
            c.absorb(b, 0);
        }
        c
    }

    #[inline(always)]
    fn absorb(&mut self, incoming: u8, outgoing: u8) {
        self.roll = self
            .roll
            .wrapping_mul(BASE)
            .wrapping_add(incoming as u64)
            .wrapping_sub((outgoing as u64).wrapping_mul(Self::OUTGOING));
        self.fp = fnv_step(self.fp, &incoming);
        self.escapes += usize::from(incoming == TOKEN_ESCAPE);
    }

    /// `data[from..to]`, each byte paired with the one `WINDOW` positions
    /// behind it (`from` is past the first window, or the range is empty).
    fn pairs(&self, from: usize, to: usize) -> impl Iterator<Item = (&'a u8, &'a u8)> {
        let lag = from.saturating_sub(WINDOW);
        self.data[from..to].iter().zip(&self.data[lag..])
    }
}

impl Iterator for Chunker<'_> {
    type Item = Chunk;

    fn next(&mut self) -> Option<Chunk> {
        if self.done {
            return None;
        }
        let n = self.data.len();
        // No anchor counts until the chunk has MIN_CHUNK bytes: take the
        // ones before that without looking.
        let quiet = n.min(self.start + MIN_CHUNK - 1).max(self.pos);
        for (&b, &old) in self.pairs(self.pos, quiet) {
            self.absorb(b, old);
        }
        let mut end = n;
        for (k, (&b, &old)) in self.pairs(quiet, n).enumerate() {
            self.absorb(b, old);
            if self.roll % ANCHOR_MOD == ANCHOR_MOD - 1 {
                end = quiet + k + 1;
                break;
            }
        }
        let chunk = Chunk {
            end,
            fp: self.fp,
            escapes: self.escapes,
        };
        (self.start, self.pos, self.done) = (end, end, end == n);
        (self.fp, self.escapes) = (FNV_OFFSET, 0);
        Some(chunk)
    }
}

/// Content-defined chunk boundaries of `data` (end offsets, always ending
/// with `data.len()`).
pub fn chunk_boundaries(data: &[u8]) -> Vec<usize> {
    Chunker::new(data).map(|c| c.end).collect()
}

/// 64-bit FNV-1a, used as the chunk fingerprint.
pub fn fingerprint(data: &[u8]) -> u64 {
    data.iter().fold(FNV_OFFSET, fnv_step)
}

#[inline(always)]
fn fnv_step(h: u64, b: &u8) -> u64 {
    (h ^ *b as u64).wrapping_mul(FNV_PRIME)
}

/// One table slot; `epoch == VACANT` marks it empty. Real epochs never
/// reach that value: `remember` counts up from 0 and `restore_state`
/// rejects entries at or past the snapshot's epoch.
#[derive(Clone, Copy)]
struct Slot {
    fp: u64,
    epoch: u64,
}

const VACANT: u64 = u64::MAX;

impl Slot {
    const VACANT: Slot = Slot {
        fp: 0,
        epoch: VACANT,
    };
}

/// Fingerprint → insertion-epoch map: linear probing over a power-of-two
/// table kept at most half full, so the common lookup — a miss, on unique
/// traffic — ends within a probe or two.
#[derive(Default)]
struct FpStore {
    slots: Vec<Slot>,
    len: usize,
}

impl FpStore {
    /// Home slot: the fingerprint is already a hash, one multiply spreads
    /// it over the table's index bits.
    #[inline]
    fn home(&self, fp: u64) -> usize {
        (fp.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as usize & (self.slots.len() - 1)
    }

    /// Index of `fp`'s slot, or of the vacant slot where it would go.
    /// The table must not be empty.
    #[inline]
    fn probe(&self, fp: u64) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = self.home(fp);
        while self.slots[i].epoch != VACANT && self.slots[i].fp != fp {
            i = (i + 1) & mask;
        }
        i
    }

    fn contains(&self, fp: u64) -> bool {
        !self.slots.is_empty() && self.slots[self.probe(fp)].epoch != VACANT
    }

    /// Insert or overwrite; returns whether `fp` was already present.
    fn insert(&mut self, fp: u64, epoch: u64) -> bool {
        if 2 * (self.len + 1) > self.slots.len() {
            self.resize((2 * self.slots.len()).max(32));
        }
        let i = self.probe(fp);
        let present = self.slots[i].epoch != VACANT;
        self.slots[i] = Slot { fp, epoch };
        self.len += usize::from(!present);
        present
    }

    /// Move every entry into a fresh table of `size` slots.
    fn resize(&mut self, size: usize) {
        let old = std::mem::replace(&mut self.slots, vec![Slot::VACANT; size]);
        for slot in old.into_iter().filter(|s| s.epoch != VACANT) {
            let i = self.probe(slot.fp);
            self.slots[i] = slot;
        }
    }

    /// Drop the entries inserted before epoch `cutoff`, in one sweep over
    /// the table (a vacant slot's epoch is past every cutoff).
    fn evict_before(&mut self, cutoff: u64) {
        let mut i = 0;
        while i < self.slots.len() {
            if self.slots[i].epoch < cutoff {
                // Whatever shifts back into slot `i` is examined next.
                self.remove_at(i);
            } else {
                i += 1;
            }
        }
    }

    /// Empty slot `hole` and close the gap (backward-shift deletion, so no
    /// tombstones): each later entry of the probe run moves back into the
    /// hole unless that would put it before its home slot.
    fn remove_at(&mut self, mut hole: usize) {
        let mask = self.slots.len() - 1;
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let next = self.slots[j];
            if next.epoch == VACANT {
                break;
            }
            let from_home = j.wrapping_sub(self.home(next.fp)) & mask;
            if from_home >= (j.wrapping_sub(hole) & mask) {
                self.slots[hole] = next;
                hole = j;
            }
        }
        self.slots[hole] = Slot::VACANT;
        self.len -= 1;
    }

    /// Entries in ascending fingerprint order (the snapshot order).
    fn sorted(&self) -> Vec<Slot> {
        let mut v: Vec<Slot> = self
            .slots
            .iter()
            .filter(|s| s.epoch != VACANT)
            .copied()
            .collect();
        v.sort_unstable_by_key(|s| s.fp);
        v
    }
}

/// The Dedup NF.
pub struct Dedup {
    /// fingerprint → insertion epoch. Bounded FIFO-ish store.
    store: FpStore,
    capacity: usize,
    epoch: u64,
    bytes_in: u64,
    bytes_out: u64,
    /// Encoded payload of the packet in hand; kept for its allocation.
    scratch: Vec<u8>,
}

impl Dedup {
    /// Create with a fingerprint-store capacity.
    pub fn new(capacity: usize) -> Dedup {
        Dedup {
            store: FpStore::default(),
            capacity: capacity.max(16),
            epoch: 0,
            bytes_in: 0,
            bytes_out: 0,
            scratch: Vec::new(),
        }
    }

    /// Build from spec parameters: `store=N` fingerprints (default 65536).
    pub fn from_params(params: &NfParams) -> Dedup {
        Dedup::new(params.int_or("store", 65_536).max(16) as usize)
    }

    /// Ratio of egress to ingress payload bytes observed so far (1.0 = no
    /// redundancy removed).
    pub fn compression_ratio(&self) -> f64 {
        if self.bytes_in == 0 {
            1.0
        } else {
            self.bytes_out as f64 / self.bytes_in as f64
        }
    }

    /// Number of fingerprints currently stored.
    pub fn store_size(&self) -> usize {
        self.store.len
    }

    fn remember(&mut self, fp: u64) {
        if self.store.len >= self.capacity {
            // Evict the oldest ~1/8 of entries; coarse but O(n) only on
            // saturation, keeping the hot path cheap.
            let cutoff = self.epoch.saturating_sub((self.capacity as u64) * 7 / 8);
            self.store.evict_before(cutoff);
        }
        self.store.insert(fp, self.epoch);
        self.epoch += 1;
    }

    /// Encode a payload into `out`, returning the encoded length: known
    /// chunks become `TOKEN_ESCAPE || 0x01 || fp(8B)`, literal bytes equal
    /// to the escape are followed by `0x00`. `out` must hold
    /// `2 * payload.len()` bytes (every byte escaped).
    fn encode(&mut self, payload: &[u8], out: &mut [u8]) -> usize {
        let (mut start, mut len) = (0usize, 0usize);
        for chunk in Chunker::new(payload) {
            let literal = &payload[start..chunk.end];
            start = chunk.end;
            if literal.len() >= MIN_CHUNK {
                if self.store.contains(chunk.fp) {
                    out[len] = TOKEN_ESCAPE;
                    out[len + 1] = 0x01; // token marker
                    out[len + 2..len + TOKEN_LEN].copy_from_slice(&chunk.fp.to_be_bytes());
                    len += TOKEN_LEN;
                    continue;
                }
                self.remember(chunk.fp);
            }
            if chunk.escapes == 0 {
                out[len..len + literal.len()].copy_from_slice(literal);
                len += literal.len();
                continue;
            }
            for piece in literal.split_inclusive(|&b| b == TOKEN_ESCAPE) {
                out[len..len + piece.len()].copy_from_slice(piece);
                len += piece.len();
                if piece.last() == Some(&TOKEN_ESCAPE) {
                    out[len] = 0x00; // literal escape
                    len += 1;
                }
            }
        }
        len
    }
}

impl NetworkFunction for Dedup {
    fn kind(&self) -> NfKind {
        NfKind::Dedup
    }

    fn process(&mut self, _ctx: &NfCtx, pkt: &mut PacketBuf) -> Verdict {
        let Some(lay) = Layout::parse(pkt.as_slice()) else {
            return Verdict::Forward;
        };
        let payload = &pkt.as_slice()[lay.payload..];
        let mut out = std::mem::take(&mut self.scratch);
        if out.len() < 2 * payload.len() {
            out.resize(2 * payload.len(), 0);
        }
        let encoded_len = self.encode(payload, &mut out);
        self.bytes_in += payload.len() as u64;
        self.bytes_out += encoded_len as u64;
        if encoded_len < payload.len() {
            // Only rewrite when we actually shrink the packet; equal-size
            // or grown encodings (escape doubling) are not worth it.
            pkt.truncate(lay.payload);
            pkt.extend_tail(&out[..encoded_len]);
            lay.fix_lengths_and_checksums(pkt);
        }
        self.scratch = out;
        Verdict::Forward
    }

    /// The fingerprint store shards by flow under the demux's flow hashing,
    /// so Dedup is replicable (the paper replicates it on two cores, §5.3);
    /// replicas just see lower hit rates.
    fn is_stateful(&self) -> bool {
        false
    }

    fn clone_fresh(&self) -> Box<dyn NetworkFunction> {
        Box::new(Dedup::new(self.capacity))
    }

    fn snapshot_state(&self) -> Option<NfSnapshot> {
        let mut e = Encoder::new();
        e.u64(self.capacity as u64);
        e.u64(self.epoch);
        e.u64(self.bytes_in);
        e.u64(self.bytes_out);
        e.u32(self.store.len as u32);
        for slot in self.store.sorted() {
            e.u64(slot.fp);
            e.u64(slot.epoch);
        }
        Some(NfSnapshot::new(NfKind::Dedup, e.finish()))
    }

    fn restore_state(&mut self, snapshot: &NfSnapshot) -> Result<(), SnapshotError> {
        snapshot.expect_kind(NfKind::Dedup)?;
        let mut d = Decoder::new(&snapshot.payload);
        let capacity = d.u64()? as usize;
        if capacity < 16 {
            return Err(SnapshotError::Invalid("Dedup capacity below minimum"));
        }
        let epoch = d.u64()?;
        let bytes_in = d.u64()?;
        let bytes_out = d.u64()?;
        let n = d.u32()? as usize;
        let mut staged = FpStore::default();
        for _ in 0..n {
            let fp = d.u64()?;
            let e = d.u64()?;
            if e >= epoch {
                return Err(SnapshotError::Invalid("Dedup entry from the future"));
            }
            if staged.insert(fp, e) {
                return Err(SnapshotError::Invalid("duplicate Dedup fingerprint"));
            }
        }
        d.done()?;
        self.capacity = capacity;
        self.epoch = epoch;
        self.bytes_in = bytes_in;
        self.bytes_out = bytes_out;
        self.store = staged;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lemur_packet::builder::udp_packet;
    use lemur_packet::{ethernet, ipv4, udp};
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn pkt(payload: &[u8]) -> PacketBuf {
        udp_packet(
            ethernet::Address([2, 0, 0, 0, 0, 1]),
            ethernet::Address([2, 0, 0, 0, 0, 2]),
            ipv4::Address::new(10, 0, 0, 1),
            ipv4::Address::new(10, 0, 0, 2),
            1,
            2,
            payload,
        )
    }

    /// A payload long enough to contain several content-defined chunks.
    fn redundant_payload() -> Vec<u8> {
        // Repeating, content-rich text so anchors appear.
        let mut v = Vec::new();
        for i in 0..10 {
            v.extend_from_slice(
                format!("The quick brown fox {i} jumps over the lazy dog! ").as_bytes(),
            );
        }
        v
    }

    /// The encoder this module had before the single-pass rewrite —
    /// boundaries, then fingerprints, then output, over an ordered map —
    /// kept verbatim as the differential oracle.
    struct TwoPassDedup {
        store: BTreeMap<u64, u64>,
        capacity: usize,
        epoch: u64,
        bytes_in: u64,
        bytes_out: u64,
    }

    impl TwoPassDedup {
        fn remember(&mut self, fp: u64) {
            if self.store.len() >= self.capacity {
                let cutoff = self.epoch.saturating_sub((self.capacity as u64) * 7 / 8);
                self.store.retain(|_, &mut e| e >= cutoff);
            }
            self.store.insert(fp, self.epoch);
            self.epoch += 1;
        }

        fn encode(&mut self, payload: &[u8]) -> Vec<u8> {
            let bounds = chunk_boundaries(payload);
            let mut out = Vec::with_capacity(payload.len() + 8);
            let mut start = 0usize;
            for &end in &bounds {
                let chunk = &payload[start..end];
                start = end;
                if chunk.len() >= MIN_CHUNK {
                    let fp = fingerprint(chunk);
                    if self.store.contains_key(&fp) {
                        out.push(TOKEN_ESCAPE);
                        out.push(0x01);
                        out.extend_from_slice(&fp.to_be_bytes());
                        continue;
                    }
                    self.remember(fp);
                }
                for &b in chunk {
                    out.push(b);
                    if b == TOKEN_ESCAPE {
                        out.push(0x00);
                    }
                }
            }
            out
        }

        fn snapshot(&self) -> NfSnapshot {
            let mut e = Encoder::new();
            e.u64(self.capacity as u64);
            e.u64(self.epoch);
            e.u64(self.bytes_in);
            e.u64(self.bytes_out);
            e.u32(self.store.len() as u32);
            for (fp, epoch) in &self.store {
                e.u64(*fp);
                e.u64(*epoch);
            }
            NfSnapshot::new(NfKind::Dedup, e.finish())
        }
    }

    /// Payloads of the three kinds that stress different encoder paths:
    /// unique bytes (all misses, store churn), text stitched from a small
    /// phrase pool (hits, tokens, rewinds), and escape-heavy bytes
    /// (doubling, grown output).
    fn payload_strategy() -> impl Strategy<Value = Vec<u8>> {
        let pool: Vec<Vec<u8>> = (0..6u8)
            .map(|k| {
                (0..97u32)
                    .map(|j| (j * (2 * k as u32 + 7) + (j * j) % 13 + k as u32) as u8)
                    .collect()
            })
            .collect();
        (
            0u8..3,
            prop::collection::vec(any::<u8>(), 0..700),
            prop::collection::vec(0..pool.len(), 0..12),
            prop::collection::vec(0u8..8, 0..400),
        )
            .prop_map(move |(kind, unique, picks, noise)| match kind {
                0 => unique,
                1 => picks.iter().flat_map(|&k| pool[k].clone()).collect(),
                _ => noise
                    .iter()
                    .map(|&b| if b < 4 { TOKEN_ESCAPE } else { b })
                    .collect(),
            })
    }

    proptest! {
        /// The single-pass encoder over the hashed store is the two-pass
        /// encoder over the ordered one: same bytes out, same store, same
        /// snapshot, after every packet of a stream long enough for the
        /// small store to evict many times.
        #[test]
        fn single_pass_matches_two_pass(
            capacity in 16usize..=64,
            stream in prop::collection::vec(payload_strategy(), 1..60),
        ) {
            let mut new = Dedup::new(capacity);
            let mut old = TwoPassDedup {
                store: BTreeMap::new(),
                capacity,
                epoch: 0,
                bytes_in: 0,
                bytes_out: 0,
            };
            let mut out = Vec::new();
            for payload in &stream {
                out.resize(2 * payload.len(), 0xEE);
                let n = new.encode(payload, &mut out);
                new.bytes_in += payload.len() as u64;
                new.bytes_out += n as u64;
                let expect = old.encode(payload);
                old.bytes_in += payload.len() as u64;
                old.bytes_out += expect.len() as u64;
                prop_assert_eq!(&out[..n], &expect[..]);
                prop_assert_eq!(new.store_size(), old.store.len());
                prop_assert_eq!(new.snapshot_state(), Some(old.snapshot()));
                prop_assert_eq!(new.state_fingerprint(), old.snapshot().fingerprint());
            }
            // Enough distinct chunks went in to saturate and evict.
            prop_assert!(new.store_size() <= capacity);
        }
    }

    #[test]
    fn snapshot_round_trips_through_the_hashed_store() {
        let mut d = Dedup::new(32);
        let ctx = NfCtx::default();
        for i in 0u32..40 {
            let payload: Vec<u8> = (0..300u32)
                .map(|j| ((j * 31 + i * 1009) % 251) as u8)
                .collect();
            d.process(&ctx, &mut pkt(&payload));
        }
        let snap = d.snapshot_state().unwrap();
        let mut fresh = Dedup::new(999);
        fresh.restore_state(&snap).unwrap();
        assert_eq!(fresh.snapshot_state().unwrap(), snap);
        assert_eq!(fresh.store_size(), d.store_size());
    }

    #[test]
    fn boundaries_cover_payload() {
        let data = redundant_payload();
        let bounds = chunk_boundaries(&data);
        assert_eq!(*bounds.last().unwrap(), data.len());
        let mut prev = 0;
        for &b in &bounds {
            assert!(b > prev || (b == 0 && prev == 0));
            prev = b;
        }
    }

    #[test]
    fn boundaries_are_content_defined() {
        // Shifting the data must keep interior boundaries aligned to
        // content, so common chunks repeat.
        let data = redundant_payload();
        let b1 = chunk_boundaries(&data);
        assert!(b1.len() > 2, "expected several chunks, got {b1:?}");
    }

    #[test]
    fn second_copy_shrinks() {
        let mut d = Dedup::new(1024);
        let ctx = NfCtx::default();
        let payload = redundant_payload();
        let mut first = pkt(&payload);
        let len_first = first.len();
        d.process(&ctx, &mut first);
        // First copy: nothing in store yet, no shrink (sizes may equal).
        assert!(first.len() <= len_first);
        let mut second = pkt(&payload);
        d.process(&ctx, &mut second);
        assert!(
            second.len() < len_first,
            "duplicate payload must compress: {} vs {}",
            second.len(),
            len_first
        );
        assert!(d.compression_ratio() < 1.0);
    }

    #[test]
    fn compressed_packet_remains_valid() {
        let mut d = Dedup::new(1024);
        let ctx = NfCtx::default();
        let payload = redundant_payload();
        let mut a = pkt(&payload);
        d.process(&ctx, &mut a);
        let mut b = pkt(&payload);
        d.process(&ctx, &mut b);
        let eth = ethernet::Frame::new_checked(b.as_slice()).unwrap();
        let ip = ipv4::Packet::new_checked(eth.payload()).unwrap();
        assert!(ip.verify_checksum());
        let u = udp::Packet::new_checked(ip.payload()).unwrap();
        assert!(u.verify_checksum(ip.src(), ip.dst()));
    }

    #[test]
    fn unique_traffic_not_compressed() {
        let mut d = Dedup::new(1024);
        let ctx = NfCtx::default();
        for i in 0u32..20 {
            let payload: Vec<u8> = (0..400u32)
                .map(|j| {
                    (j.wrapping_mul(2654435761)
                        .wrapping_add(i.wrapping_mul(96557))
                        >> 13) as u8
                })
                .collect();
            let mut p = pkt(&payload);
            let before = p.len();
            d.process(&ctx, &mut p);
            assert_eq!(p.len(), before, "unique payloads must not shrink");
        }
    }

    #[test]
    fn fingerprint_is_stable_and_distinct() {
        assert_eq!(fingerprint(b"abc"), fingerprint(b"abc"));
        assert_ne!(fingerprint(b"abc"), fingerprint(b"abd"));
    }

    #[test]
    fn store_capacity_bounded() {
        let mut d = Dedup::new(32);
        let ctx = NfCtx::default();
        for i in 0u32..200 {
            let payload: Vec<u8> = (0..200u32)
                .map(|j| ((j * 31 + i * 1009) % 251) as u8)
                .collect();
            d.process(&ctx, &mut pkt(&payload));
        }
        assert!(d.store_size() <= 64, "store grew to {}", d.store_size());
    }

    #[test]
    fn short_payload_passthrough() {
        let mut d = Dedup::new(64);
        let ctx = NfCtx::default();
        let mut p = pkt(b"tiny");
        let before = p.as_slice().to_vec();
        assert_eq!(d.process(&ctx, &mut p), Verdict::Forward);
        assert_eq!(p.as_slice(), &before[..]);
    }
}
