//! Owned packet buffers.
//!
//! [`PacketBuf`] keeps headroom in front of the frame so that pushing an
//! encapsulation header (NSH at the server edge, a VLAN tag at the Tunnel NF)
//! is a copy of the header bytes only, mirroring how DPDK mbufs prepend
//! headers.

/// Default headroom reserved in front of a packet, enough for several
/// levels of encapsulation (Ethernet 14 + NSH 8 + VLAN 4, with slack).
pub const DEFAULT_HEADROOM: usize = 64;

/// An owned packet with prepend headroom.
///
/// Equality compares the *frame bytes only*: two packets with identical
/// frames are equal regardless of how much headroom each happens to carry
/// (headroom is an allocation detail, grown geometrically on demand).
#[derive(Debug, Clone)]
pub struct PacketBuf {
    storage: Vec<u8>,
    start: usize,
}

impl PartialEq for PacketBuf {
    fn eq(&self, other: &PacketBuf) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for PacketBuf {}

impl PacketBuf {
    /// Create a packet from frame bytes, reserving [`DEFAULT_HEADROOM`].
    pub fn from_bytes(frame: &[u8]) -> PacketBuf {
        let mut storage = vec![0u8; DEFAULT_HEADROOM + frame.len()];
        storage[DEFAULT_HEADROOM..].copy_from_slice(frame);
        PacketBuf {
            storage,
            start: DEFAULT_HEADROOM,
        }
    }

    /// Create an all-zero packet of `len` bytes.
    pub fn zeroed(len: usize) -> PacketBuf {
        PacketBuf {
            storage: vec![0u8; DEFAULT_HEADROOM + len],
            start: DEFAULT_HEADROOM,
        }
    }

    /// Current frame length.
    pub fn len(&self) -> usize {
        self.storage.len() - self.start
    }

    /// True if the frame is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Remaining headroom available for [`PacketBuf::push_front`].
    pub fn headroom(&self) -> usize {
        self.start
    }

    /// The frame bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.storage[self.start..]
    }

    /// Mutable frame bytes.
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        &mut self.storage[self.start..]
    }

    /// Overwrite this packet's frame with `src`'s frame, reusing the
    /// existing allocation whenever it is large enough. This is the
    /// buffer-recycle primitive: a steady-state dataplane refreshes a
    /// fixed ring of buffers instead of allocating fresh ones per packet.
    /// All slack beyond the frame is kept as headroom.
    pub fn copy_frame_from(&mut self, src: &PacketBuf) {
        let n = src.len();
        let need = DEFAULT_HEADROOM + n;
        if self.storage.len() < need {
            self.storage.resize(need, 0);
        }
        self.start = self.storage.len() - n;
        self.storage[self.start..].copy_from_slice(src.as_slice());
    }

    /// Prepend `bytes` to the frame. Falls back to reallocating when the
    /// existing headroom is exhausted, growing the headroom geometrically
    /// (at least doubling total storage) so a sequence of `push_front`
    /// calls costs amortized O(1) reallocations.
    pub fn push_front(&mut self, bytes: &[u8]) {
        if bytes.len() <= self.start {
            self.start -= bytes.len();
            self.storage[self.start..self.start + bytes.len()].copy_from_slice(bytes);
        } else {
            let new_headroom = (2 * bytes.len())
                .max(DEFAULT_HEADROOM)
                .max(self.storage.len());
            let mut storage = vec![0u8; new_headroom + bytes.len() + self.len()];
            storage[new_headroom..new_headroom + bytes.len()].copy_from_slice(bytes);
            storage[new_headroom + bytes.len()..].copy_from_slice(self.as_slice());
            self.storage = storage;
            self.start = new_headroom;
        }
    }

    /// Remove `n` bytes from the front of the frame without copying them
    /// anywhere: the bytes are reclaimed as headroom. This is the
    /// allocation-free decap primitive (the fused dataplane's steady state
    /// never allocates). Panics if the frame is shorter than `n`.
    pub fn advance_front(&mut self, n: usize) {
        assert!(n <= self.len(), "pull_front past end of frame");
        self.start += n;
    }

    /// Remove `n` bytes from the front of the frame into a caller-provided
    /// scratch buffer (cleared first; capacity is reused across calls).
    /// Panics if the frame is shorter than `n`.
    pub fn pull_front_into(&mut self, n: usize, scratch: &mut Vec<u8>) {
        assert!(n <= self.len(), "pull_front past end of frame");
        scratch.clear();
        scratch.extend_from_slice(&self.storage[self.start..self.start + n]);
        self.start += n;
    }

    /// Remove `n` bytes from the front of the frame, returning them as an
    /// owned vector. Compatibility wrapper over [`PacketBuf::pull_front_into`];
    /// prefer that (or [`PacketBuf::advance_front`]) on hot paths — this
    /// form allocates per call.
    pub fn pull_front(&mut self, n: usize) -> Vec<u8> {
        let mut removed = Vec::new();
        self.pull_front_into(n, &mut removed);
        removed
    }

    /// Insert `bytes` at `offset` within the frame (used to splice a VLAN tag
    /// after the Ethernet addresses). If `offset` is small and headroom is
    /// available, the bytes before the offset are shifted left so the
    /// operation costs `offset` bytes of copying, not the packet length.
    pub fn insert_at(&mut self, offset: usize, bytes: &[u8]) {
        assert!(offset <= self.len(), "insert_at past end of frame");
        if bytes.len() <= self.start {
            let new_start = self.start - bytes.len();
            // Shift [start, start+offset) left by bytes.len().
            self.storage
                .copy_within(self.start..self.start + offset, new_start);
            self.storage[new_start + offset..new_start + offset + bytes.len()]
                .copy_from_slice(bytes);
            self.start = new_start;
        } else {
            let mut v = self.as_slice().to_vec();
            v.splice(offset..offset, bytes.iter().copied());
            *self = PacketBuf::from_bytes(&v);
        }
    }

    /// Remove `len` bytes starting at `offset` within the frame, shifting
    /// the prefix right (cheap removal of a spliced tag) and discarding the
    /// removed bytes. Allocation-free: the vacated space becomes headroom.
    pub fn remove_at_discard(&mut self, offset: usize, len: usize) {
        assert!(offset + len <= self.len(), "remove_at past end of frame");
        self.storage
            .copy_within(self.start..self.start + offset, self.start + len);
        self.start += len;
    }

    /// [`PacketBuf::remove_at_discard`], copying the removed bytes into a
    /// caller-provided scratch buffer first (cleared; capacity reused).
    pub fn remove_at_into(&mut self, offset: usize, len: usize, scratch: &mut Vec<u8>) {
        assert!(offset + len <= self.len(), "remove_at past end of frame");
        scratch.clear();
        scratch.extend_from_slice(&self.storage[self.start + offset..self.start + offset + len]);
        self.remove_at_discard(offset, len);
    }

    /// Remove `len` bytes starting at `offset`, returning them as an owned
    /// vector. Compatibility wrapper over [`PacketBuf::remove_at_into`];
    /// prefer that (or [`PacketBuf::remove_at_discard`]) on hot paths —
    /// this form allocates per call.
    pub fn remove_at(&mut self, offset: usize, len: usize) -> Vec<u8> {
        let mut removed = Vec::new();
        self.remove_at_into(offset, len, &mut removed);
        removed
    }

    /// Truncate the frame to `len` bytes.
    pub fn truncate(&mut self, len: usize) {
        if len < self.len() {
            self.storage.truncate(self.start + len);
        }
    }

    /// Extend the frame at the tail with `bytes`.
    pub fn extend_tail(&mut self, bytes: &[u8]) {
        self.storage.extend_from_slice(bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_bytes_roundtrip() {
        let p = PacketBuf::from_bytes(b"hello");
        assert_eq!(p.as_slice(), b"hello");
        assert_eq!(p.len(), 5);
        assert_eq!(p.headroom(), DEFAULT_HEADROOM);
    }

    #[test]
    fn push_pull_front() {
        let mut p = PacketBuf::from_bytes(b"payload");
        p.push_front(b"hdr:");
        assert_eq!(p.as_slice(), b"hdr:payload");
        let removed = p.pull_front(4);
        assert_eq!(removed, b"hdr:");
        assert_eq!(p.as_slice(), b"payload");
    }

    #[test]
    fn push_front_exhausts_headroom_and_reallocates() {
        let mut p = PacketBuf::from_bytes(b"x");
        let big = vec![0xaa; DEFAULT_HEADROOM + 10];
        p.push_front(&big);
        assert_eq!(p.len(), big.len() + 1);
        assert_eq!(&p.as_slice()[..big.len()], &big[..]);
        assert_eq!(p.as_slice()[big.len()], b'x');
    }

    #[test]
    fn push_front_grows_headroom_geometrically() {
        // Exhausting headroom must at least double total storage, so a
        // stream of pushes reallocates O(log n) times, not O(n).
        let mut p = PacketBuf::from_bytes(b"x");
        let before = p.storage.len();
        let big = vec![0xbb; DEFAULT_HEADROOM + 1];
        p.push_front(&big);
        assert!(p.storage.len() >= 2 * before, "growth must be geometric");
        // The fresh headroom absorbs at least one more push of the same
        // size without reallocating.
        assert!(p.headroom() >= big.len());
        let cap_after_first = p.storage.len();
        p.push_front(&big);
        assert_eq!(
            p.storage.len(),
            cap_after_first,
            "second push must reuse headroom"
        );
        assert_eq!(p.len(), 1 + 2 * big.len());
    }

    #[test]
    fn pull_front_into_reuses_scratch() {
        let mut p = PacketBuf::from_bytes(b"hdr:payload");
        let mut scratch = Vec::with_capacity(16);
        p.pull_front_into(4, &mut scratch);
        assert_eq!(scratch, b"hdr:");
        assert_eq!(p.as_slice(), b"payload");
        // Scratch is cleared, not appended to.
        let mut q = PacketBuf::from_bytes(b"ab-rest");
        q.pull_front_into(3, &mut scratch);
        assert_eq!(scratch, b"ab-");
    }

    #[test]
    fn advance_front_reclaims_headroom() {
        let mut p = PacketBuf::from_bytes(b"ETHNSHinner");
        let head = p.headroom();
        p.advance_front(6);
        assert_eq!(p.as_slice(), b"inner");
        assert_eq!(p.headroom(), head + 6);
    }

    #[test]
    fn remove_at_discard_and_into() {
        let mut p = PacketBuf::from_bytes(b"AAAAAAAAAAAATAG!rest");
        let mut scratch = Vec::new();
        p.remove_at_into(12, 4, &mut scratch);
        assert_eq!(scratch, b"TAG!");
        assert_eq!(p.as_slice(), b"AAAAAAAAAAAArest");
        let mut q = PacketBuf::from_bytes(b"AAAAAAAAAAAATAG!rest");
        q.remove_at_discard(12, 4);
        assert_eq!(q.as_slice(), b"AAAAAAAAAAAArest");
    }

    #[test]
    fn copy_frame_from_reuses_allocation() {
        let template = PacketBuf::from_bytes(&[1, 2, 3, 4, 5, 6, 7, 8]);
        let mut buf = PacketBuf::from_bytes(&[9; 200]);
        let cap = buf.storage.capacity();
        // Drain the buffer's headroom so the recycle must restore it.
        buf.advance_front(100);
        buf.copy_frame_from(&template);
        assert_eq!(buf, template);
        assert_eq!(buf.storage.capacity(), cap, "recycle reallocated");
        assert!(buf.headroom() >= DEFAULT_HEADROOM);
        // Growing into a too-small buffer still produces the right frame.
        let mut tiny = PacketBuf::from_bytes(&[]);
        tiny.copy_frame_from(&template);
        assert_eq!(tiny, template);
        assert!(tiny.headroom() >= DEFAULT_HEADROOM);
    }

    #[test]
    fn equality_ignores_headroom() {
        let a = PacketBuf::from_bytes(b"same-frame");
        let mut b = PacketBuf::from_bytes(b"same-frame");
        // Force b through a reallocation so its headroom differs.
        let big = vec![7u8; DEFAULT_HEADROOM + 8];
        b.push_front(&big);
        b.advance_front(big.len());
        assert_ne!(a.headroom(), b.headroom());
        assert_eq!(a, b);
    }

    #[test]
    fn insert_and_remove_at() {
        // Simulate splicing a VLAN tag after a 12-byte Ethernet address pair.
        let mut p = PacketBuf::from_bytes(b"AAAAAAAAAAAArest-of-frame");
        p.insert_at(12, b"TAG!");
        assert_eq!(&p.as_slice()[..16], b"AAAAAAAAAAAATAG!");
        assert_eq!(&p.as_slice()[16..], b"rest-of-frame");
        let tag = p.remove_at(12, 4);
        assert_eq!(tag, b"TAG!");
        assert_eq!(p.as_slice(), b"AAAAAAAAAAAArest-of-frame");
    }

    #[test]
    fn insert_at_without_headroom() {
        let mut p = PacketBuf::from_bytes(b"abcdef");
        p.pull_front(0);
        // Exhaust headroom first.
        let big = vec![1u8; DEFAULT_HEADROOM];
        p.push_front(&big);
        p.insert_at(2, b"ZZ");
        assert_eq!(p.len(), DEFAULT_HEADROOM + 6 + 2);
        assert_eq!(&p.as_slice()[2..4], b"ZZ");
    }

    #[test]
    #[should_panic(expected = "pull_front past end")]
    fn pull_front_past_end_panics() {
        let mut p = PacketBuf::from_bytes(b"ab");
        p.pull_front(3);
    }

    #[test]
    fn truncate_and_extend() {
        let mut p = PacketBuf::from_bytes(b"abcdef");
        p.truncate(3);
        assert_eq!(p.as_slice(), b"abc");
        p.extend_tail(b"XY");
        assert_eq!(p.as_slice(), b"abcXY");
        // Truncate longer than current length is a no-op.
        p.truncate(100);
        assert_eq!(p.len(), 5);
    }
}
