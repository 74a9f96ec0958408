//! ChaCha20 stream cipher (RFC 8439), from scratch.
//!
//! Lemur's `Fast Encrypt` NF is 128-bit ChaCha in the paper's Table 3; we
//! implement the standard ChaCha20 (256-bit key) from RFC 8439 — the NF
//! derives its 32-byte key from the configured 16-byte key by repetition,
//! which preserves the cost profile the experiments care about.
//!
//! There are two keystream bodies behind the one [`ChaCha20::apply`], and
//! they produce the same bytes:
//!
//! * **Wide** (`mod wide`, x86-64 only): AVX2, eight blocks per pass, one
//!   block per 32-bit lane of sixteen state vectors — lane `j` runs counter
//!   `counter + j` (wrapping), rot16/rot8 are byte shuffles and rot12/rot7
//!   shift-or pairs. Each 512-byte pass is transposed back into block order
//!   and XORed into the buffer; a final partial pass is XORed from a stack
//!   copy. [`ChaCha20::new`] asks `is_x86_feature_detected!("avx2")`, and
//!   `apply` forks once per call; the whole buffer loop is inside the
//!   `target_feature` function. What the CPU reports is the only selector
//!   (a buffer of one block or less stays scalar: one block costs half a
//!   pass).
//! * **Scalar** (everywhere else, and [`ChaCha20::scalar_only`]): one block
//!   at a time through [`ChaCha20::block`]. It is the only body off x86-64
//!   or without AVX2, and the oracle the wide body is tested against.
//!
//! The wide body is written in intrinsics rather than as a portable
//! `[u32; 8]`-lane loop: LLVM leaves such a loop scalar on the x86-64
//! baseline and with SSSE3, so it would need the same AVX2 gate and the
//! same guarded call, and then its speed would rest on the autovectorizer
//! rather than on the shuffles and the transpose written out here.
//!
//! Like the AES module, this is a reproduction artifact, not audited crypto.

/// ChaCha20 keystream generator state.
#[derive(Clone)]
pub struct ChaCha20 {
    key: [u32; 8],
    nonce: [u32; 3],
    /// The CPU has AVX2, which `mod wide` is compiled for. Only
    /// [`ChaCha20::new`] sets it, from detection: every call into that
    /// module rests on it.
    wide: bool,
}

/// Whether this CPU runs the wide body (never, off x86-64).
fn wide_detected() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    false
}

#[inline]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

impl ChaCha20 {
    /// Create a cipher from a 32-byte key and a 12-byte nonce; `apply` will
    /// run eight blocks per pass if the CPU has AVX2 and one block at a
    /// time otherwise.
    pub fn new(key: &[u8; 32], nonce: &[u8; 12]) -> ChaCha20 {
        ChaCha20 {
            wide: wide_detected(),
            ..ChaCha20::scalar_only(key, nonce)
        }
    }

    /// [`ChaCha20::new`] pinned to the scalar body whatever the CPU offers:
    /// the reference for tests and benches, not something an NF is ever
    /// built with.
    pub fn scalar_only(key: &[u8; 32], nonce: &[u8; 12]) -> ChaCha20 {
        let mut k = [0u32; 8];
        for (w, c) in k.iter_mut().zip(key.chunks_exact(4)) {
            *w = u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        }
        let mut n = [0u32; 3];
        for (w, c) in n.iter_mut().zip(nonce.chunks_exact(4)) {
            *w = u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        }
        ChaCha20 {
            key: k,
            nonce: n,
            wide: false,
        }
    }

    /// Whether `apply` runs on the AVX2 body.
    pub fn is_wide(&self) -> bool {
        self.wide
    }

    /// The initial state of block `counter` (RFC 8439 §2.3).
    fn state(&self, counter: u32) -> [u32; 16] {
        let [k0, k1, k2, k3, k4, k5, k6, k7] = self.key;
        let [n0, n1, n2] = self.nonce;
        // "expand 32-byte k" constants.
        [
            0x6170_7865,
            0x3320_646e,
            0x7962_2d32,
            0x6b20_6574,
            k0,
            k1,
            k2,
            k3,
            k4,
            k5,
            k6,
            k7,
            counter,
            n0,
            n1,
            n2,
        ]
    }

    /// Produce the 64-byte keystream block for a given counter.
    pub fn block(&self, counter: u32) -> [u8; 64] {
        let initial = self.state(counter);
        let mut state = initial;
        for _ in 0..10 {
            // Column rounds.
            quarter_round(&mut state, 0, 4, 8, 12);
            quarter_round(&mut state, 1, 5, 9, 13);
            quarter_round(&mut state, 2, 6, 10, 14);
            quarter_round(&mut state, 3, 7, 11, 15);
            // Diagonal rounds.
            quarter_round(&mut state, 0, 5, 10, 15);
            quarter_round(&mut state, 1, 6, 11, 12);
            quarter_round(&mut state, 2, 7, 8, 13);
            quarter_round(&mut state, 3, 4, 9, 14);
        }
        let mut out = [0u8; 64];
        for i in 0..16 {
            let word = state[i].wrapping_add(initial[i]);
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_le_bytes());
        }
        out
    }

    /// XOR `data` with the keystream starting at block `counter`
    /// (encryption and decryption are the same operation).
    pub fn apply(&self, counter: u32, data: &mut [u8]) {
        // A single block costs half as much scalar as a wide pass of
        // eight; from two blocks up the pass costs the same or less.
        #[cfg(target_arch = "x86_64")]
        if self.wide && data.len() > 64 {
            // SAFETY: `wide` is true only where `ChaCha20::new` saw
            // `is_x86_feature_detected!` report avx2.
            return unsafe { wide::apply(&self.state(counter), data) };
        }
        for (i, chunk) in data.chunks_mut(64).enumerate() {
            let ks = self.block(counter.wrapping_add(i as u32));
            for (b, k) in chunk.iter_mut().zip(ks.iter()) {
                *b ^= k;
            }
        }
    }
}

/// The same keystream eight blocks at a time on AVX2. Every function here
/// is compiled for `avx2` and may only be entered on a CPU that has it;
/// inside, the value intrinsics are safe and bytes move through
/// `i64::{from,to}_le_bytes`, so there is no pointer to get wrong.
#[cfg(target_arch = "x86_64")]
mod wide {
    use std::arch::x86_64::{
        __m256i, _mm256_add_epi32, _mm256_extract_epi64, _mm256_or_si256,
        _mm256_permute2x128_si256, _mm256_set1_epi32, _mm256_set_epi64x, _mm256_setr_epi32,
        _mm256_setr_epi8, _mm256_shuffle_epi8, _mm256_slli_epi32, _mm256_srli_epi32,
        _mm256_unpackhi_epi32, _mm256_unpackhi_epi64, _mm256_unpacklo_epi32, _mm256_unpacklo_epi64,
        _mm256_xor_si256,
    };

    /// Keystream bytes one pass yields: eight 64-byte blocks.
    const PASS: usize = 8 * 64;

    /// Byte shuffles rotating every 32-bit lane left by 16 and by 8.
    struct Rotations {
        rot16: __m256i,
        rot8: __m256i,
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn rotations() -> Rotations {
        Rotations {
            rot16: _mm256_setr_epi8(
                2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13, //
                2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13,
            ),
            rot8: _mm256_setr_epi8(
                3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14, //
                3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14,
            ),
        }
    }

    /// Rotate every 32-bit lane left by `L` (`R` = 32 − `L`).
    #[inline]
    #[target_feature(enable = "avx2")]
    fn rotl<const L: i32, const R: i32>(x: __m256i) -> __m256i {
        _mm256_or_si256(_mm256_slli_epi32::<L>(x), _mm256_srli_epi32::<R>(x))
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn quarter_round(x: &mut [__m256i; 16], r: &Rotations, a: usize, b: usize, c: usize, d: usize) {
        x[a] = _mm256_add_epi32(x[a], x[b]);
        x[d] = _mm256_shuffle_epi8(_mm256_xor_si256(x[d], x[a]), r.rot16);
        x[c] = _mm256_add_epi32(x[c], x[d]);
        x[b] = rotl::<12, 20>(_mm256_xor_si256(x[b], x[c]));
        x[a] = _mm256_add_epi32(x[a], x[b]);
        x[d] = _mm256_shuffle_epi8(_mm256_xor_si256(x[d], x[a]), r.rot8);
        x[c] = _mm256_add_epi32(x[c], x[d]);
        x[b] = rotl::<7, 25>(_mm256_xor_si256(x[b], x[c]));
    }

    /// Rows `w[i]` hold word `i` of eight blocks, block `j` in lane `j`;
    /// returns the eight blocks' words, block `j` in `w[j]`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn transpose(w: &[__m256i]) -> [__m256i; 8] {
        // Rows i and i + 1 interleaved: their words of blocks 0, 1 | 4, 5
        // in `lo(i)`, of blocks 2, 3 | 6, 7 in `hi(i)`.
        let lo = |i: usize| _mm256_unpacklo_epi32(w[i], w[i + 1]);
        let hi = |i: usize| _mm256_unpackhi_epi32(w[i], w[i + 1]);
        let (t0, t1, t2, t3) = (lo(0), hi(0), lo(2), hi(2));
        let (t4, t5, t6, t7) = (lo(4), hi(4), lo(6), hi(6));
        // `u[j]`: words 0..4 of blocks j | j + 4; `u[4 + j]`: words 4..8.
        let (u0, u1) = (_mm256_unpacklo_epi64(t0, t2), _mm256_unpackhi_epi64(t0, t2));
        let (u2, u3) = (_mm256_unpacklo_epi64(t1, t3), _mm256_unpackhi_epi64(t1, t3));
        let (u4, u5) = (_mm256_unpacklo_epi64(t4, t6), _mm256_unpackhi_epi64(t4, t6));
        let (u6, u7) = (_mm256_unpacklo_epi64(t5, t7), _mm256_unpackhi_epi64(t5, t7));
        [
            _mm256_permute2x128_si256::<0x20>(u0, u4),
            _mm256_permute2x128_si256::<0x20>(u1, u5),
            _mm256_permute2x128_si256::<0x20>(u2, u6),
            _mm256_permute2x128_si256::<0x20>(u3, u7),
            _mm256_permute2x128_si256::<0x31>(u0, u4),
            _mm256_permute2x128_si256::<0x31>(u1, u5),
            _mm256_permute2x128_si256::<0x31>(u2, u6),
            _mm256_permute2x128_si256::<0x31>(u3, u7),
        ]
    }

    /// Keystream blocks `counter .. counter + 8` (wrapping) of the state
    /// `initial`, in byte order as 16 × 32 bytes.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn pass(initial: &[u32; 16], counter: u32, r: &Rotations) -> [__m256i; 16] {
        let mut start: [__m256i; 16] =
            std::array::from_fn(|i| _mm256_set1_epi32(initial[i] as i32));
        start[12] = _mm256_add_epi32(
            _mm256_set1_epi32(counter as i32),
            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
        );
        let mut x = start;
        for _ in 0..10 {
            quarter_round(&mut x, r, 0, 4, 8, 12);
            quarter_round(&mut x, r, 1, 5, 9, 13);
            quarter_round(&mut x, r, 2, 6, 10, 14);
            quarter_round(&mut x, r, 3, 7, 11, 15);
            quarter_round(&mut x, r, 0, 5, 10, 15);
            quarter_round(&mut x, r, 1, 6, 11, 12);
            quarter_round(&mut x, r, 2, 7, 8, 13);
            quarter_round(&mut x, r, 3, 4, 9, 14);
        }
        for (v, s) in x.iter_mut().zip(start) {
            *v = _mm256_add_epi32(*v, s);
        }
        let (first, last) = (transpose(&x[..8]), transpose(&x[8..]));
        std::array::from_fn(|i| {
            if i % 2 == 0 {
                first[i / 2]
            } else {
                last[i / 2]
            }
        })
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn load(b: &[u8; 32]) -> __m256i {
        let q = |k: usize| i64::from_le_bytes(b[8 * k..8 * k + 8].try_into().expect("8 bytes"));
        _mm256_set_epi64x(q(3), q(2), q(1), q(0))
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn store(b: &mut [u8; 32], v: __m256i) {
        let q = [
            _mm256_extract_epi64::<0>(v),
            _mm256_extract_epi64::<1>(v),
            _mm256_extract_epi64::<2>(v),
            _mm256_extract_epi64::<3>(v),
        ];
        for (out, q) in b.chunks_exact_mut(8).zip(q) {
            out.copy_from_slice(&q.to_le_bytes());
        }
    }

    /// XOR `data` with the keystream of `initial` (whose word 12 is the
    /// first block's counter): whole 512-byte passes in place, then the
    /// remainder from one more pass on the stack.
    #[target_feature(enable = "avx2")]
    pub(super) fn apply(initial: &[u32; 16], data: &mut [u8]) {
        let r = rotations();
        let mut counter = initial[12];
        let (passes, tail) = data.as_chunks_mut::<PASS>();
        for chunk in passes {
            let ks = pass(initial, counter, &r);
            for (piece, k) in chunk.as_chunks_mut::<32>().0.iter_mut().zip(ks) {
                store(piece, _mm256_xor_si256(load(piece), k));
            }
            counter = counter.wrapping_add(8);
        }
        if !tail.is_empty() {
            let mut bytes = [0u8; PASS];
            for (piece, k) in bytes
                .as_chunks_mut::<32>()
                .0
                .iter_mut()
                .zip(pass(initial, counter, &r))
            {
                store(piece, k);
            }
            for (b, k) in tail.iter_mut().zip(bytes) {
                *b ^= k;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(s: &str) -> Vec<u8> {
        let s: String = s.split_whitespace().collect();
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    fn rfc_key() -> [u8; 32] {
        let mut k = [0u8; 32];
        for (i, b) in k.iter_mut().enumerate() {
            *b = i as u8;
        }
        k
    }

    /// Both bodies on CPUs with AVX2 (the wide one second), the scalar body
    /// alone elsewhere.
    fn bodies(key: &[u8; 32], nonce: &[u8; 12]) -> Vec<ChaCha20> {
        let (scalar, auto) = (ChaCha20::scalar_only(key, nonce), ChaCha20::new(key, nonce));
        assert!(!scalar.is_wide());
        assert_eq!(auto.is_wide(), wide_detected());
        let mut bodies = vec![scalar];
        bodies.extend(auto.is_wide().then_some(auto));
        bodies
    }

    #[test]
    fn rfc8439_block_test_vector() {
        // RFC 8439 §2.3.2, through `block` and as the first block `apply`
        // XORs into a whole pass of zeros (one block alone stays scalar).
        let key = rfc_key();
        let nonce: [u8; 12] = hex("000000090000004a00000000").try_into().unwrap();
        let expected = hex("10 f1 e7 e4 d1 3b 59 15 50 0f dd 1f a3 20 71 c4 \
             c7 d1 f4 c7 33 c0 68 03 04 22 aa 9a c3 d4 6c 4e \
             d2 82 64 46 07 9f aa 09 14 c2 d7 05 d9 8b 02 a2 \
             b5 12 9c d1 de 16 4e b9 cb d0 83 e8 a2 50 3c 4e");
        for cipher in bodies(&key, &nonce) {
            assert_eq!(cipher.block(1).to_vec(), expected);
            let mut ks = [0u8; 512];
            cipher.apply(1, &mut ks);
            assert_eq!(ks[..64].to_vec(), expected, "wide {}", cipher.is_wide());
        }
    }

    #[test]
    fn rfc8439_encryption_test_vector() {
        // RFC 8439 §2.4.2, the whole 114-byte ciphertext.
        let key = rfc_key();
        let nonce: [u8; 12] = hex("000000000000004a00000000").try_into().unwrap();
        let expected = hex("6e 2e 35 9a 25 68 f9 80 41 ba 07 28 dd 0d 69 81 \
             e9 7e 7a ec 1d 43 60 c2 0a 27 af cc fd 9f ae 0b \
             f9 1b 65 c5 52 47 33 ab 8f 59 3d ab cd 62 b3 57 \
             16 39 d6 24 e6 51 52 ab 8f 53 0c 35 9f 08 61 d8 \
             07 ca 0d bf 50 0d 6a 61 56 a3 8e 08 8a 22 b6 5e \
             52 bc 51 4d 16 cc f8 06 81 8c e9 1a b7 79 37 36 \
             5a f9 0b bf 74 a3 5b e6 b4 0b 8e ed f2 78 5e 42 \
             87 4d");
        for cipher in bodies(&key, &nonce) {
            let mut data = b"Ladies and Gentlemen of the class of '99: If I could offer you \
only one tip for the future, sunscreen would be it."
                .to_vec();
            cipher.apply(1, &mut data);
            assert_eq!(data, expected, "wide {}", cipher.is_wide());
        }
    }

    #[test]
    fn apply_is_involutive() {
        let key = [0x42u8; 32];
        let nonce = [7u8; 12];
        let original: Vec<u8> = (0..200).map(|i| (i * 3) as u8).collect();
        for cipher in bodies(&key, &nonce) {
            let mut data = original.clone();
            cipher.apply(5, &mut data);
            assert_ne!(data, original);
            cipher.apply(5, &mut data);
            assert_eq!(data, original);
        }
    }

    #[test]
    fn different_counters_differ() {
        let cipher = ChaCha20::new(&[1u8; 32], &[2u8; 12]);
        assert_ne!(cipher.block(0).to_vec(), cipher.block(1).to_vec());
    }

    #[test]
    fn multiblock_matches_per_block() {
        let cipher = ChaCha20::new(&[9u8; 32], &[3u8; 12]);
        let mut big = vec![0u8; 130];
        cipher.apply(0, &mut big);
        // First 64 bytes should equal block(0), next 64 block(1), etc.
        assert_eq!(&big[..64], &cipher.block(0)[..]);
        assert_eq!(&big[64..128], &cipher.block(1)[..]);
        assert_eq!(&big[128..130], &cipher.block(2)[..2]);
    }

    mod differential {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![cases = 4]
            /// The wide body against the scalar oracle at every buffer
            /// length up to past an MTU frame — each side of every 64- and
            /// 512-byte boundary — from counter 0, 1, a random one and
            /// every start within eight of `u32::MAX`, where the lane
            /// counters of a pass wrap. The scalar keystream is a prefix
            /// code (block `i` covers bytes `64i..64i + 64` whatever the
            /// length), so one scalar buffer per counter is the oracle for
            /// every length. On a CPU without AVX2 both sides are the
            /// scalar body, and the test says so.
            #[test]
            fn wide_matches_scalar_at_every_length(
                key in any::<[u8; 32]>(),
                nonce in any::<[u8; 12]>(),
                random_counter in any::<u32>(),
                seed in any::<u64>(),
            ) {
                let bodies = bodies(&key, &nonce);
                let (scalar, wide) = (&bodies[0], &bodies[bodies.len() - 1]);
                if !wide.is_wide() {
                    eprintln!("no AVX2 on this CPU: the differential compares scalar with scalar");
                }
                let mut x = seed;
                let data: Vec<u8> = (0..1600)
                    .map(|_| {
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                        (x >> 56) as u8
                    })
                    .collect();
                let counters = [0, 1, random_counter].into_iter().chain(u32::MAX - 8..=u32::MAX);
                for counter in counters {
                    let mut want = data.clone();
                    scalar.apply(counter, &mut want);
                    for len in 0..=data.len() {
                        let mut got = data[..len].to_vec();
                        wide.apply(counter, &mut got);
                        prop_assert!(got == want[..len], "counter {counter}, len {len}");
                    }
                }
            }
        }
    }
}
