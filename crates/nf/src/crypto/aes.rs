//! AES-128 block cipher and CBC mode, implemented from the FIPS-197 spec.
//!
//! Lemur's `Encrypt`/`Decrypt` NFs are specified as 128-bit AES-CBC
//! (Table 3). We implement the cipher from scratch rather than pulling a
//! crypto crate. There are two bodies behind the same four entry points
//! (`encrypt_block`, `decrypt_block`, `cbc_encrypt_in_place`,
//! `cbc_decrypt_in_place`), and one expanded key serves both:
//!
//! * **Native** (`mod native`, x86-64 only): the CPU's AES instructions —
//!   AESENC/AESENCLAST, and AESDEC/AESDECLAST over the equivalent-inverse
//!   key schedule. [`Aes128::new`] asks `is_x86_feature_detected!` for
//!   `aes`, `sse2` and `sse4.1` once per key; every entry point then forks
//!   once per call (once per buffer for CBC — the block loop is inside the
//!   `target_feature` function). What the CPU reports is the only selector:
//!   there is no build or run-time option.
//! * **Table** (everywhere else, and [`Aes128::table_only`]): a round is
//!   four lookups and four XORs per state column over the `Te`/`Td` tables,
//!   which fold SubBytes, ShiftRows and MixColumns (FIPS-197 §5.1, §5.3.5
//!   "equivalent inverse cipher") into one `u32` per input byte. It is the
//!   only body on a CPU without the instructions and the reference the
//!   native body is tested against, block for block and buffer for buffer.
//!
//! Every table — S-box, inverse S-box, `Te`, `Td` — is derived at first use
//! from the GF(2⁸) arithmetic definition, never transcribed, which keeps
//! them typo-proof; the key expansion always runs on them. The byte-wise
//! textbook rounds live on under `cfg(test)` as the oracle both bodies are
//! checked against.
//!
//! This is a reproduction artifact, not a hardened implementation: the
//! table body (and the key expansion) index lookups by secret bytes and are
//! not constant-time — the native body has no secret-indexed lookup — and
//! none of it may be used to protect real traffic.

use std::sync::OnceLock;

/// GF(2⁸) multiplication with the AES reduction polynomial x⁸+x⁴+x³+x+1.
fn gmul(mut a: u8, mut b: u8) -> u8 {
    let mut p = 0u8;
    for _ in 0..8 {
        if b & 1 != 0 {
            p ^= a;
        }
        let hi = a & 0x80;
        a <<= 1;
        if hi != 0 {
            a ^= 0x1b;
        }
        b >>= 1;
    }
    p
}

/// Multiplicative inverse in GF(2⁸) (0 maps to 0), by exhaustive search —
/// run once when building the S-box.
fn ginv(a: u8) -> u8 {
    if a == 0 {
        return 0;
    }
    for b in 1..=255u8 {
        if gmul(a, b) == 1 {
            return b;
        }
    }
    unreachable!("every nonzero element of GF(2^8) has an inverse")
}

struct Tables {
    sbox: [u8; 256],
    inv_sbox: [u8; 256],
    /// `te[0][x]` is the MixColumns image of the column `(S[x], 0, 0, 0)`,
    /// i.e. the bytes `(2·S[x], S[x], S[x], 3·S[x])` packed big-endian;
    /// `te[k]` is `te[0]` rotated right by `k` bytes (row `k`'s share).
    te: [[u32; 256]; 4],
    /// The same for InvMixColumns over the inverse S-box:
    /// `td[0][x] = (14·S⁻¹[x], 9·S⁻¹[x], 13·S⁻¹[x], 11·S⁻¹[x])`.
    td: [[u32; 256]; 4],
}

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Box<Tables>> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut sbox = [0u8; 256];
        let mut inv_sbox = [0u8; 256];
        for (i, slot) in sbox.iter_mut().enumerate() {
            let x = ginv(i as u8);
            // Affine transform: b ^ rotl(b,1) ^ rotl(b,2) ^ rotl(b,3) ^ rotl(b,4) ^ 0x63.
            let s = x
                ^ x.rotate_left(1)
                ^ x.rotate_left(2)
                ^ x.rotate_left(3)
                ^ x.rotate_left(4)
                ^ 0x63;
            *slot = s;
            inv_sbox[s as usize] = i as u8;
        }
        let mut te = [[0u32; 256]; 4];
        let mut td = [[0u32; 256]; 4];
        for x in 0..256 {
            let s = sbox[x];
            let e = u32::from_be_bytes([gmul(2, s), s, s, gmul(3, s)]);
            let i = inv_sbox[x];
            let d = u32::from_be_bytes([gmul(14, i), gmul(9, i), gmul(13, i), gmul(11, i)]);
            for k in 0..4 {
                te[k][x] = e.rotate_right(8 * k as u32);
                td[k][x] = d.rotate_right(8 * k as u32);
            }
        }
        Box::new(Tables {
            sbox,
            inv_sbox,
            te,
            td,
        })
    })
}

/// Number of 32-bit words in the key (AES-128).
const NK: usize = 4;
/// Number of rounds (AES-128).
const NR: usize = 10;
/// Cipher block size in bytes.
pub const BLOCK: usize = 16;

/// One direction's round keys as big-endian column words, four per round.
type Schedule = [u32; 4 * (NR + 1)];

/// An expanded AES-128 key.
#[derive(Clone)]
pub struct Aes128 {
    enc_keys: Schedule,
    /// Round keys of the equivalent inverse cipher: `enc_keys` in reverse
    /// round order, the middle rounds passed through InvMixColumns.
    dec_keys: Schedule,
    /// The CPU has the AES instructions `mod native` is compiled for. Only
    /// [`Aes128::new`] sets it, from detection: every call into that
    /// module rests on it.
    native: bool,
}

/// Whether this CPU runs the native body (never, off x86-64).
fn native_detected() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("aes")
            && is_x86_feature_detected!("sse2")
            && is_x86_feature_detected!("sse4.1")
    }
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// Byte `k` of a column word (row `k` of that column), as a table index.
#[inline(always)]
fn row(w: u32, k: usize) -> usize {
    w.to_be_bytes()[k] as usize
}

/// Apply a byte substitution to each byte of a word.
#[inline(always)]
fn sub_word(sbox: &[u8; 256], w: u32) -> u32 {
    u32::from_be_bytes(w.to_be_bytes().map(|b| sbox[b as usize]))
}

/// The ten rounds over one block. `SHIFT` is how far ShiftRows moves row 1
/// in the table-lookup view: output column `c` takes row `k` from input
/// column `c + k·SHIFT` — 1 for the cipher, 3 (= −1 mod 4) for the
/// equivalent inverse cipher, which is the same code over `td`, the
/// inverse S-box and the inverse key schedule.
#[inline(always)]
fn rounds<const SHIFT: usize>(
    table: &[[u32; 256]; 4],
    sbox: &[u8; 256],
    rk: &Schedule,
    block: &mut [u8; BLOCK],
) {
    let mut s = [0u32; 4];
    for c in 0..4 {
        let col = [
            block[4 * c],
            block[4 * c + 1],
            block[4 * c + 2],
            block[4 * c + 3],
        ];
        s[c] = u32::from_be_bytes(col) ^ rk[c];
    }
    for r in 1..NR {
        let mut t = [0u32; 4];
        for c in 0..4 {
            t[c] = (table[0][row(s[c], 0)] ^ table[1][row(s[(c + SHIFT) % 4], 1)])
                ^ (table[2][row(s[(c + 2 * SHIFT) % 4], 2)]
                    ^ table[3][row(s[(c + 3 * SHIFT) % 4], 3)])
                ^ rk[4 * r + c];
        }
        s = t;
    }
    // Last round: no MixColumns, so plain S-box bytes.
    for c in 0..4 {
        let col = [
            sbox[row(s[c], 0)],
            sbox[row(s[(c + SHIFT) % 4], 1)],
            sbox[row(s[(c + 2 * SHIFT) % 4], 2)],
            sbox[row(s[(c + 3 * SHIFT) % 4], 3)],
        ];
        let out = u32::from_be_bytes(col) ^ rk[4 * NR + c];
        block[4 * c..4 * c + 4].copy_from_slice(&out.to_be_bytes());
    }
}

impl Aes128 {
    /// Expand a 16-byte key; the block and CBC functions will run on the
    /// CPU's AES instructions if it has them and on the tables otherwise.
    pub fn new(key: &[u8; 16]) -> Aes128 {
        Aes128 {
            native: native_detected(),
            ..Aes128::table_only(key)
        }
    }

    /// [`Aes128::new`] pinned to the table body whatever the CPU offers:
    /// the reference for tests and benches, not something an NF is ever
    /// built with.
    pub fn table_only(key: &[u8; 16]) -> Aes128 {
        let t = tables();
        let mut w = [0u32; 4 * (NR + 1)];
        for i in 0..NK {
            w[i] = u32::from_be_bytes([key[4 * i], key[4 * i + 1], key[4 * i + 2], key[4 * i + 3]]);
        }
        let mut rcon = 1u8;
        for i in NK..4 * (NR + 1) {
            let mut temp = w[i - 1];
            if i % NK == 0 {
                temp = sub_word(&t.sbox, temp.rotate_left(8)) ^ (u32::from(rcon) << 24);
                rcon = gmul(rcon, 2);
            }
            w[i] = w[i - NK] ^ temp;
        }
        let mut dec_keys = [0u32; 4 * (NR + 1)];
        for r in 0..=NR {
            for c in 0..4 {
                let k = w[4 * (NR - r) + c];
                dec_keys[4 * r + c] = if r == 0 || r == NR {
                    k
                } else {
                    // InvMixColumns(k): `td` already applies S⁻¹, so feed
                    // it S[byte] to cancel the substitution.
                    let k = sub_word(&t.sbox, k);
                    t.td[0][row(k, 0)]
                        ^ t.td[1][row(k, 1)]
                        ^ t.td[2][row(k, 2)]
                        ^ t.td[3][row(k, 3)]
                };
            }
        }
        Aes128 {
            enc_keys: w,
            dec_keys,
            native: false,
        }
    }

    /// Whether this key runs on the CPU's AES instructions.
    pub fn is_native(&self) -> bool {
        self.native
    }

    /// Encrypt one 16-byte block in place.
    pub fn encrypt_block(&self, block: &mut [u8; BLOCK]) {
        #[cfg(target_arch = "x86_64")]
        if self.native {
            // SAFETY: `native` is true only where `Aes128::new` saw
            // `is_x86_feature_detected!` report aes, sse2 and sse4.1.
            return unsafe { native::encrypt_block(&self.enc_keys, block) };
        }
        let t = tables();
        rounds::<1>(&t.te, &t.sbox, &self.enc_keys, block);
    }

    /// Decrypt one 16-byte block in place.
    pub fn decrypt_block(&self, block: &mut [u8; BLOCK]) {
        #[cfg(target_arch = "x86_64")]
        if self.native {
            // SAFETY: `native` is true only where `Aes128::new` saw
            // `is_x86_feature_detected!` report aes, sse2 and sse4.1.
            return unsafe { native::decrypt_block(&self.dec_keys, block) };
        }
        let t = tables();
        rounds::<3>(&t.td, &t.inv_sbox, &self.dec_keys, block);
    }
}

/// The same cipher on AESENC/AESDEC. Every function here is compiled for
/// `aes,sse2,sse4.1` and may only be entered on a CPU that has all three;
/// inside, the value intrinsics are safe and blocks move through
/// `u128::{from,to}_le_bytes`, so there is no pointer to get wrong.
#[cfg(target_arch = "x86_64")]
mod native {
    use super::{pkcs7_pad_of, Schedule, BLOCK, NR};
    use std::arch::x86_64::{
        __m128i, _mm_aesdec_si128, _mm_aesdeclast_si128, _mm_aesenc_si128, _mm_aesenclast_si128,
        _mm_cvtsi128_si64, _mm_extract_epi64, _mm_set_epi64x, _mm_xor_si128,
    };

    type RoundKeys = [__m128i; NR + 1];

    /// Sixteen bytes as the instructions see them: byte 0 in the lowest lane.
    #[inline]
    #[target_feature(enable = "aes,sse2,sse4.1")]
    fn load(b: &[u8; BLOCK]) -> __m128i {
        let v = u128::from_le_bytes(*b);
        _mm_set_epi64x((v >> 64) as i64, v as i64)
    }

    #[inline]
    #[target_feature(enable = "aes,sse2,sse4.1")]
    fn store(b: &mut [u8; BLOCK], v: __m128i) {
        let (lo, hi) = (
            _mm_cvtsi128_si64(v) as u64,
            _mm_extract_epi64::<1>(v) as u64,
        );
        *b = (u128::from(hi) << 64 | u128::from(lo)).to_le_bytes();
    }

    /// The schedule's big-endian column words, byte for byte in block order.
    #[inline]
    #[target_feature(enable = "aes,sse2,sse4.1")]
    fn round_keys(rk: &Schedule) -> RoundKeys {
        std::array::from_fn(|r| {
            let mut bytes = [0u8; BLOCK];
            for (col, w) in bytes.chunks_exact_mut(4).zip(&rk[4 * r..4 * r + 4]) {
                col.copy_from_slice(&w.to_be_bytes());
            }
            load(&bytes)
        })
    }

    #[inline]
    #[target_feature(enable = "aes,sse2,sse4.1")]
    fn encrypt(rk: &RoundKeys, block: __m128i) -> __m128i {
        let mut s = _mm_xor_si128(block, rk[0]);
        for k in &rk[1..NR] {
            s = _mm_aesenc_si128(s, *k);
        }
        _mm_aesenclast_si128(s, rk[NR])
    }

    /// `rk` is the equivalent-inverse-cipher schedule, which is the form
    /// AESDEC takes its keys in.
    #[inline]
    #[target_feature(enable = "aes,sse2,sse4.1")]
    fn decrypt(rk: &RoundKeys, block: __m128i) -> __m128i {
        let mut s = _mm_xor_si128(block, rk[0]);
        for k in &rk[1..NR] {
            s = _mm_aesdec_si128(s, *k);
        }
        _mm_aesdeclast_si128(s, rk[NR])
    }

    #[target_feature(enable = "aes,sse2,sse4.1")]
    pub(super) fn encrypt_block(enc_keys: &Schedule, block: &mut [u8; BLOCK]) {
        store(block, encrypt(&round_keys(enc_keys), load(block)));
    }

    #[target_feature(enable = "aes,sse2,sse4.1")]
    pub(super) fn decrypt_block(dec_keys: &Schedule, block: &mut [u8; BLOCK]) {
        store(block, decrypt(&round_keys(dec_keys), load(block)));
    }

    #[target_feature(enable = "aes,sse2,sse4.1")]
    pub(super) fn cbc_encrypt(enc_keys: &Schedule, iv: &[u8; BLOCK], blocks: &mut [[u8; BLOCK]]) {
        let rk = round_keys(enc_keys);
        let mut prev = load(iv);
        for block in blocks {
            prev = encrypt(&rk, _mm_xor_si128(load(block), prev));
            store(block, prev);
        }
    }

    /// Same walk as the table body of `cbc_decrypt_in_place`: last block
    /// first, its padding checked before the first store. Returns the pad
    /// length.
    #[target_feature(enable = "aes,sse2,sse4.1")]
    pub(super) fn cbc_decrypt(
        dec_keys: &Schedule,
        iv: &[u8; BLOCK],
        blocks: &mut [[u8; BLOCK]],
    ) -> Option<usize> {
        let rk = round_keys(dec_keys);
        let mut pad = None;
        for i in (0..blocks.len()).rev() {
            let prev = load(if i == 0 { iv } else { &blocks[i - 1] });
            let plain = _mm_xor_si128(decrypt(&rk, load(&blocks[i])), prev);
            if pad.is_none() {
                let mut last = [0u8; BLOCK];
                store(&mut last, plain);
                pad = Some(pkcs7_pad_of(&last)?);
            }
            store(&mut blocks[i], plain);
        }
        pad
    }
}

/// Bytes of PKCS#7 padding a `len`-byte plaintext takes (1..=16).
pub fn pkcs7_pad_len(len: usize) -> usize {
    BLOCK - len % BLOCK
}

/// The PKCS#7 pad length the last plaintext block declares, if its tail
/// is a well-formed pad.
fn pkcs7_pad_of(last: &[u8; BLOCK]) -> Option<usize> {
    let pad = last[BLOCK - 1] as usize;
    ((1..=BLOCK).contains(&pad) && last[BLOCK - pad..].iter().all(|&b| b == pad as u8))
        .then_some(pad)
}

fn xor_block(dst: &mut [u8; BLOCK], src: &[u8; BLOCK]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d ^= s;
    }
}

/// AES-128-CBC over an already padded buffer, in place: `buf` holds whole
/// plaintext blocks on entry and the ciphertext on return.
///
/// # Panics
/// If `buf.len()` is not a multiple of 16 — the caller owns the padding.
pub fn cbc_encrypt_in_place(key: &Aes128, iv: &[u8; BLOCK], buf: &mut [u8]) {
    let (blocks, rest) = buf.as_chunks_mut::<BLOCK>();
    assert!(rest.is_empty(), "CBC buffer must hold whole blocks");
    #[cfg(target_arch = "x86_64")]
    if key.native {
        // SAFETY: `native` is true only where `Aes128::new` saw
        // `is_x86_feature_detected!` report aes, sse2 and sse4.1.
        return unsafe { native::cbc_encrypt(&key.enc_keys, iv, blocks) };
    }
    let t = tables();
    let mut prev = *iv;
    for block in blocks {
        xor_block(block, &prev);
        rounds::<1>(&t.te, &t.sbox, &key.enc_keys, block);
        prev = *block;
    }
}

/// Decrypt AES-128-CBC ciphertext with PKCS#7 padding in place. On success
/// the plaintext occupies `buf[..n]` for the returned `n`. On a malformed
/// length or padding returns `None` and leaves `buf` untouched: blocks are
/// decrypted last to first (each needs only the still-intact ciphertext
/// block before it), so the padding is checked before anything is written.
pub fn cbc_decrypt_in_place(key: &Aes128, iv: &[u8; BLOCK], buf: &mut [u8]) -> Option<usize> {
    let (blocks, rest) = buf.as_chunks_mut::<BLOCK>();
    if blocks.is_empty() || !rest.is_empty() {
        return None;
    }
    #[cfg(target_arch = "x86_64")]
    if key.native {
        // SAFETY: `native` is true only where `Aes128::new` saw
        // `is_x86_feature_detected!` report aes, sse2 and sse4.1.
        let pad = unsafe { native::cbc_decrypt(&key.dec_keys, iv, blocks) }?;
        return Some(buf.len() - pad);
    }
    let t = tables();
    let last = blocks.len() - 1;
    let mut pad = 0;
    for i in (0..=last).rev() {
        let prev = if i == 0 { *iv } else { blocks[i - 1] };
        let mut plain = blocks[i];
        rounds::<3>(&t.td, &t.inv_sbox, &key.dec_keys, &mut plain);
        xor_block(&mut plain, &prev);
        if i == last {
            pad = pkcs7_pad_of(&plain)?;
        }
        blocks[i] = plain;
    }
    Some(buf.len() - pad)
}

/// Encrypt `data` with AES-128-CBC and PKCS#7 padding, returning the
/// ciphertext (always a multiple of 16 bytes, ≥ data.len()+1).
pub fn cbc_encrypt(key: &Aes128, iv: &[u8; BLOCK], data: &[u8]) -> Vec<u8> {
    let pad = pkcs7_pad_len(data.len());
    let mut out = Vec::with_capacity(data.len() + pad);
    out.extend_from_slice(data);
    out.extend(std::iter::repeat_n(pad as u8, pad));
    cbc_encrypt_in_place(key, iv, &mut out);
    out
}

/// Decrypt AES-128-CBC ciphertext with PKCS#7 padding. Returns `None` on a
/// malformed length or padding.
pub fn cbc_decrypt(key: &Aes128, iv: &[u8; BLOCK], data: &[u8]) -> Option<Vec<u8>> {
    let mut out = data.to_vec();
    let n = cbc_decrypt_in_place(key, iv, &mut out)?;
    out.truncate(n);
    Some(out)
}

/// The textbook cipher of FIPS-197 §5.1/§5.3, one byte-wise transformation
/// per function: the differential oracle for the table-driven rounds.
#[cfg(test)]
mod textbook {
    use super::{gmul, tables, Aes128, NR};

    fn add_round_key(state: &mut [u8; 16], rk: &[u32]) {
        for (c, w) in rk.iter().enumerate() {
            for (r, k) in w.to_be_bytes().iter().enumerate() {
                state[4 * c + r] ^= k;
            }
        }
    }

    fn sub_bytes(state: &mut [u8; 16], sbox: &[u8; 256]) {
        for b in state.iter_mut() {
            *b = sbox[*b as usize];
        }
    }

    /// State layout: byte `state[r + 4c]` is row r, column c (FIPS-197 §3.4).
    fn shift_rows(state: &mut [u8; 16]) {
        let s = *state;
        for r in 1..4 {
            for c in 0..4 {
                state[r + 4 * c] = s[r + 4 * ((c + r) % 4)];
            }
        }
    }

    fn inv_shift_rows(state: &mut [u8; 16]) {
        let s = *state;
        for r in 1..4 {
            for c in 0..4 {
                state[r + 4 * ((c + r) % 4)] = s[r + 4 * c];
            }
        }
    }

    /// Multiply every column by the circulant matrix whose first row is `m`.
    fn mix_columns(state: &mut [u8; 16], m: [u8; 4]) {
        for col in state.chunks_exact_mut(4) {
            let a = [col[0], col[1], col[2], col[3]];
            for (r, out) in col.iter_mut().enumerate() {
                *out = (0..4).fold(0, |acc, j| acc ^ gmul(m[(4 + j - r) % 4], a[j]));
            }
        }
    }

    pub(super) fn encrypt_block(key: &Aes128, block: &mut [u8; 16]) {
        let (t, rk) = (tables(), &key.enc_keys);
        add_round_key(block, &rk[..4]);
        for r in 1..=NR {
            sub_bytes(block, &t.sbox);
            shift_rows(block);
            if r < NR {
                mix_columns(block, [2, 3, 1, 1]);
            }
            add_round_key(block, &rk[4 * r..4 * r + 4]);
        }
    }

    pub(super) fn decrypt_block(key: &Aes128, block: &mut [u8; 16]) {
        let (t, rk) = (tables(), &key.enc_keys);
        add_round_key(block, &rk[4 * NR..]);
        for r in (0..NR).rev() {
            inv_shift_rows(block);
            sub_bytes(block, &t.inv_sbox);
            add_round_key(block, &rk[4 * r..4 * r + 4]);
            if r > 0 {
                mix_columns(block, [14, 11, 13, 9]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Both bodies on x86 CPUs with the AES instructions (the native one
    /// second), the table body alone elsewhere.
    fn bodies(key: &[u8; 16]) -> Vec<Aes128> {
        let (table, auto) = (Aes128::table_only(key), Aes128::new(key));
        assert!(!table.is_native());
        assert_eq!(auto.is_native(), native_detected());
        let mut bodies = vec![table];
        bodies.extend(auto.is_native().then_some(auto));
        bodies
    }

    proptest! {
        /// Table rounds and, where detected, the AES instructions equal the
        /// byte-wise textbook cipher (the straight inverse cipher, not the
        /// equivalent one) on any input.
        #[test]
        fn table_rounds_match_textbook(key in any::<[u8; 16]>(), block in any::<[u8; 16]>()) {
            let (mut enc, mut dec) = (block, block);
            textbook::encrypt_block(&Aes128::table_only(&key), &mut enc);
            textbook::decrypt_block(&Aes128::table_only(&key), &mut dec);
            for aes in bodies(&key) {
                let mut fast = block;
                aes.encrypt_block(&mut fast);
                prop_assert_eq!(fast, enc, "encrypt, native {}", aes.is_native());
                let mut fast = block;
                aes.decrypt_block(&mut fast);
                prop_assert_eq!(fast, dec, "decrypt, native {}", aes.is_native());
            }
        }
    }

    /// Decrypt `buf` with both bodies: they must agree on the verdict and on
    /// every byte left behind, and a refused buffer must be untouched.
    fn decrypt_both(bodies: &[Aes128], iv: &[u8; 16], buf: &[u8]) -> Option<usize> {
        let mut results = bodies.iter().map(|aes| {
            let mut out = buf.to_vec();
            (cbc_decrypt_in_place(aes, iv, &mut out), out)
        });
        let (verdict, left) = results.next().expect("the table body");
        for other in results {
            assert_eq!(other, (verdict, left.clone()), "len {}", buf.len());
        }
        assert!(verdict.is_some() || left == buf, "refused, yet written");
        verdict
    }

    proptest! {
        #![cases = 4]
        /// CBC, table against native, at every buffer length an MTU frame
        /// can reach and beyond: same ciphertext, same plaintext, and the
        /// same refusal — `None`, buffer untouched — of a bad length, a bad
        /// pad and a flipped ciphertext byte.
        #[test]
        fn cbc_native_matches_table_at_every_length(
            key in any::<[u8; 16]>(),
            iv in any::<[u8; 16]>(),
            seed in any::<u64>(),
        ) {
            let bodies = bodies(&key);
            let mut x = seed;
            let data: Vec<u8> = (0..1600)
                .map(|_| {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    (x >> 56) as u8
                })
                .collect();
            for len in 0..=1600 {
                let plain = &data[..len];
                let cipher = cbc_encrypt(&bodies[0], &iv, plain);
                for aes in &bodies[1..] {
                    prop_assert_eq!(&cbc_encrypt(aes, &iv, plain), &cipher, "len {}", len);
                }
                prop_assert_eq!(decrypt_both(&bodies, &iv, &cipher), Some(len));
                // Raw bytes as ciphertext: not whole blocks, or whole blocks
                // whose pad all but never checks out.
                let raw = decrypt_both(&bodies, &iv, plain);
                prop_assert!(raw.is_none() || len % BLOCK == 0 && len > 0, "len {}", len);
                // The byte that CBC folds into the pad length (the IV's last,
                // for a single block): always refused.
                let (mut bad, mut bad_iv) = (cipher.clone(), iv);
                match bad.len().checked_sub(BLOCK + 1) {
                    Some(i) => bad[i] ^= 0x80,
                    None => bad_iv[BLOCK - 1] ^= 0x80,
                }
                prop_assert_eq!(decrypt_both(&bodies, &bad_iv, &bad), None, "len {}", len);
                // Any other byte garbles one block and flips a bit of the
                // next; whatever the verdict, it is the same one.
                let mut bad = cipher.clone();
                bad[(seed as usize).wrapping_add(len) % cipher.len()] ^= 1 << (len % 8);
                decrypt_both(&bodies, &iv, &bad);
            }
        }
    }

    #[test]
    fn in_place_cbc_matches_vec_wrappers_and_keeps_bad_input_intact() {
        let key = Aes128::new(b"0123456789abcdef");
        let iv = [0x42u8; 16];
        let data: Vec<u8> = (0..77u8).collect();
        let ct = cbc_encrypt(&key, &iv, &data);
        let mut buf = ct.clone();
        assert_eq!(cbc_decrypt_in_place(&key, &iv, &mut buf), Some(data.len()));
        assert_eq!(&buf[..data.len()], &data[..]);
        // A corrupted last block fails the padding check before any write.
        let mut bad = ct.clone();
        *bad.last_mut().unwrap() ^= 0x80;
        let before = bad.clone();
        assert_eq!(cbc_decrypt_in_place(&key, &iv, &mut bad), None);
        assert_eq!(bad, before);
    }

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn sbox_known_entries() {
        let t = tables();
        // Spot checks from FIPS-197 Figure 7.
        assert_eq!(t.sbox[0x00], 0x63);
        assert_eq!(t.sbox[0x01], 0x7c);
        assert_eq!(t.sbox[0x53], 0xed);
        assert_eq!(t.sbox[0xff], 0x16);
        // Inverse is a true inverse.
        for i in 0..256 {
            assert_eq!(t.inv_sbox[t.sbox[i] as usize] as usize, i);
        }
    }

    #[test]
    fn fips197_appendix_b() {
        let key: [u8; 16] = hex("2b7e151628aed2a6abf7158809cf4f3c").try_into().unwrap();
        let mut block: [u8; 16] = hex("3243f6a8885a308d313198a2e0370734").try_into().unwrap();
        let aes = Aes128::new(&key);
        aes.encrypt_block(&mut block);
        assert_eq!(block.to_vec(), hex("3925841d02dc09fbdc118597196a0b32"));
    }

    #[test]
    fn fips197_appendix_c1() {
        let key: [u8; 16] = hex("000102030405060708090a0b0c0d0e0f").try_into().unwrap();
        let mut block: [u8; 16] = hex("00112233445566778899aabbccddeeff").try_into().unwrap();
        let aes = Aes128::new(&key);
        aes.encrypt_block(&mut block);
        assert_eq!(block.to_vec(), hex("69c4e0d86a7b0430d8cdb78070b4c55a"));
        aes.decrypt_block(&mut block);
        assert_eq!(block.to_vec(), hex("00112233445566778899aabbccddeeff"));
    }

    #[test]
    fn nist_sp800_38a_cbc_first_block() {
        // SP 800-38A F.2.1 CBC-AES128.Encrypt, first block.
        let key: [u8; 16] = hex("2b7e151628aed2a6abf7158809cf4f3c").try_into().unwrap();
        let iv: [u8; 16] = hex("000102030405060708090a0b0c0d0e0f").try_into().unwrap();
        let pt = hex("6bc1bee22e409f96e93d7e117393172a");
        let aes = Aes128::new(&key);
        let ct = cbc_encrypt(&aes, &iv, &pt);
        assert_eq!(&ct[..16], &hex("7649abac8119b246cee98e9b12e9197d")[..]);
        // One block of plaintext + full-block PKCS#7 pad = 2 blocks total.
        assert_eq!(ct.len(), 32);
    }

    #[test]
    fn cbc_roundtrip_various_lengths() {
        let key = Aes128::new(b"0123456789abcdef");
        let iv = [7u8; 16];
        for len in [0usize, 1, 15, 16, 17, 100, 1000] {
            let data: Vec<u8> = (0..len).map(|i| (i * 7) as u8).collect();
            let ct = cbc_encrypt(&key, &iv, &data);
            assert_eq!(ct.len() % 16, 0);
            assert!(ct.len() > data.len());
            let pt = cbc_decrypt(&key, &iv, &ct).unwrap();
            assert_eq!(pt, data);
        }
    }

    #[test]
    fn cbc_decrypt_rejects_garbage() {
        let key = Aes128::new(b"0123456789abcdef");
        let iv = [0u8; 16];
        assert!(cbc_decrypt(&key, &iv, &[]).is_none());
        assert!(cbc_decrypt(&key, &iv, &[0u8; 15]).is_none());
        // Random block: overwhelmingly likely to fail padding check.
        let bogus = [0x5au8; 16];
        assert!(cbc_decrypt(&key, &iv, &bogus).is_none());
    }

    #[test]
    fn gf_arithmetic() {
        // FIPS-197 §4.2: {57} · {83} = {c1}.
        assert_eq!(gmul(0x57, 0x83), 0xc1);
        assert_eq!(gmul(0x57, 0x13), 0xfe);
        assert_eq!(ginv(0x01), 0x01);
        assert_eq!(gmul(0x53, ginv(0x53)), 0x01);
    }
}
