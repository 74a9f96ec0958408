//! Incremental FNV-1a/128 over a canonical byte stream: the one digest
//! behind NF state fingerprints and snapshot checksums (`lemur-nf`), WAL
//! record checksums (`lemur-control`) and P4 program fingerprints
//! (`lemur-p4sim`).

/// FNV-1a/128 hasher. Length-prefixed byte strings keep the stream
/// prefix-free, so distinct inputs cannot collide by concatenation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv128(u128);

impl Fnv128 {
    const OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
    const PRIME: u128 = 0x0000000001000000000000000000013b;

    /// Start a fresh digest.
    pub fn new() -> Fnv128 {
        Fnv128(Self::OFFSET)
    }

    /// Mix in one byte.
    #[inline]
    pub fn byte(&mut self, b: u8) {
        self.0 ^= b as u128;
        self.0 = self.0.wrapping_mul(Self::PRIME);
    }

    /// Mix in a length-prefixed byte string.
    #[inline]
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.word(bytes.len() as u64);
        for &b in bytes {
            self.byte(b);
        }
    }

    /// Mix in a 64-bit word (little-endian).
    #[inline]
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.byte(b);
        }
    }

    /// The accumulated digest value.
    pub fn finish(&self) -> u128 {
        self.0
    }
}

impl Default for Fnv128 {
    fn default() -> Self {
        Fnv128::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_published_fnv1a_128_vectors() {
        // FNV-1a/128 of "" and "a" (Fowler/Noll/Vo reference vectors).
        assert_eq!(Fnv128::new().finish(), 0x6c62272e07bb014262b821756295c58d);
        let mut d = Fnv128::new();
        d.byte(b'a');
        assert_eq!(d.finish(), 0xd228cb696f1a8caf78912b704e4a8964);
    }

    #[test]
    fn word_is_little_endian_and_bytes_are_length_prefixed() {
        let mut by_word = Fnv128::new();
        by_word.word(0x0102_0304_0506_0708);
        let mut by_byte = Fnv128::new();
        for b in [8, 7, 6, 5, 4, 3, 2, 1] {
            by_byte.byte(b);
        }
        assert_eq!(by_word, by_byte);
        // "ab" + "c" and "a" + "bc" differ only in where the prefix falls.
        let (mut x, mut y) = (Fnv128::new(), Fnv128::new());
        x.bytes(b"ab");
        x.bytes(b"c");
        y.bytes(b"a");
        y.bytes(b"bc");
        assert_ne!(x, y);
    }
}
