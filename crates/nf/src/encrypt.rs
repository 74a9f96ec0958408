//! Crypto NFs: `Encrypt`/`Decrypt` (AES-128-CBC) and `FastEncrypt` (ChaCha).
//!
//! All three operate on the L4 payload, leaving Ethernet/IP/L4 headers
//! parseable so downstream NFs can still classify the traffic. Length
//! changes (CBC padding, the prepended IV) are propagated into the IP
//! total-length and UDP length fields, and checksums are recomputed.

use crate::crypto::aes::BLOCK;
use crate::crypto::{cbc_decrypt_in_place, cbc_encrypt_in_place, pkcs7_pad_len, Aes128, ChaCha20};
use crate::payload::Layout;
use crate::{NetworkFunction, NfCtx, NfKind, NfParams, Verdict};
use lemur_packet::{ipv4, PacketBuf};

/// Derive a deterministic per-packet IV from header bytes and a counter.
/// Real deployments would use random IVs; determinism keeps experiments
/// reproducible.
fn derive_iv(frame: &[u8], counter: u64) -> [u8; 16] {
    let mut iv = [0u8; 16];
    for (i, b) in frame.iter().take(8).enumerate() {
        iv[i] = *b;
    }
    iv[8..16].copy_from_slice(&counter.to_be_bytes());
    iv
}

/// AES-128-CBC payload encryption. The output payload is
/// `IV (16 B) || ciphertext`, so the matching [`Decrypt`] NF is self-
/// contained.
pub struct Encrypt {
    key: Aes128,
    key_bytes: [u8; 16],
    counter: u64,
}

impl Encrypt {
    /// Create with an explicit 16-byte key.
    pub fn new(key: [u8; 16]) -> Encrypt {
        Encrypt {
            key: Aes128::new(&key),
            key_bytes: key,
            counter: 0,
        }
    }

    /// Build from spec parameters: `key` as a 32-hex-digit string.
    pub fn from_params(params: &NfParams) -> Encrypt {
        Encrypt::new(key_from_params(params))
    }
}

/// Total over any string: a `key` that is not 32 bytes long gives the all-
/// zero key, and a byte pair that is not two hex digits (two halves of
/// multi-byte characters included) leaves its key byte zero.
fn key_from_params(params: &NfParams) -> [u8; 16] {
    let hex = params
        .str_or("key", "000102030405060708090a0b0c0d0e0f")
        .as_bytes();
    let mut key = [0u8; 16];
    if hex.len() == 32 {
        for (b, pair) in key.iter_mut().zip(hex.chunks_exact(2)) {
            let digits = std::str::from_utf8(pair).ok();
            if let Some(v) = digits.and_then(|d| u8::from_str_radix(d, 16).ok()) {
                *b = v;
            }
        }
    }
    key
}

impl NetworkFunction for Encrypt {
    fn kind(&self) -> NfKind {
        NfKind::Encrypt
    }

    /// Works inside the packet's own buffer: the IV is spliced in front of
    /// the payload (the headers shift into headroom), the PKCS#7 pad is
    /// appended, and the payload is enciphered where it lies.
    fn process(&mut self, _ctx: &NfCtx, pkt: &mut PacketBuf) -> Verdict {
        let Some(lay) = Layout::parse(pkt.as_slice()) else {
            return Verdict::Drop;
        };
        let iv = derive_iv(pkt.as_slice(), self.counter);
        self.counter = self.counter.wrapping_add(1);
        let pad = pkcs7_pad_len(pkt.len() - lay.payload);
        pkt.insert_at(lay.payload, &iv);
        pkt.extend_tail(&[pad as u8; BLOCK][..pad]);
        cbc_encrypt_in_place(
            &self.key,
            &iv,
            &mut pkt.as_mut_slice()[lay.payload + BLOCK..],
        );
        lay.fix_lengths_and_checksums(pkt);
        Verdict::Forward
    }

    fn clone_fresh(&self) -> Box<dyn NetworkFunction> {
        Box::new(Encrypt::new(self.key_bytes))
    }
}

/// AES-128-CBC payload decryption, inverse of [`Encrypt`]. Packets whose
/// payload does not decrypt (bad length or padding) are dropped.
pub struct Decrypt {
    key: Aes128,
    key_bytes: [u8; 16],
}

impl Decrypt {
    /// Create with an explicit 16-byte key.
    pub fn new(key: [u8; 16]) -> Decrypt {
        Decrypt {
            key: Aes128::new(&key),
            key_bytes: key,
        }
    }

    /// Build from spec parameters (same `key` format as [`Encrypt`]).
    pub fn from_params(params: &NfParams) -> Decrypt {
        Decrypt::new(key_from_params(params))
    }
}

impl NetworkFunction for Decrypt {
    fn kind(&self) -> NfKind {
        NfKind::Decrypt
    }

    /// Deciphers inside the packet's own buffer, then drops the IV and the
    /// pad. A packet that fails the length or padding check is dropped
    /// with its bytes untouched.
    fn process(&mut self, _ctx: &NfCtx, pkt: &mut PacketBuf) -> Verdict {
        let Some(lay) = Layout::parse(pkt.as_slice()) else {
            return Verdict::Drop;
        };
        let Some((iv, cipher)) = pkt.as_mut_slice()[lay.payload..].split_first_chunk_mut::<BLOCK>()
        else {
            return Verdict::Drop;
        };
        let Some(plain_len) = cbc_decrypt_in_place(&self.key, iv, cipher) else {
            return Verdict::Drop;
        };
        pkt.remove_at_discard(lay.payload, BLOCK);
        pkt.truncate(lay.payload + plain_len);
        lay.fix_lengths_and_checksums(pkt);
        Verdict::Forward
    }

    fn clone_fresh(&self) -> Box<dyn NetworkFunction> {
        Box::new(Decrypt::new(self.key_bytes))
    }
}

/// ChaCha payload encryption (Table 3 "Fast Enc."): a length-preserving
/// keystream XOR. Applying the NF twice restores the plaintext.
pub struct FastEncrypt {
    key: [u8; 32],
}

impl FastEncrypt {
    /// Create from a 16-byte key (expanded by repetition, see module docs).
    pub fn new(key16: [u8; 16]) -> FastEncrypt {
        let mut key = [0u8; 32];
        key[..16].copy_from_slice(&key16);
        key[16..].copy_from_slice(&key16);
        FastEncrypt { key }
    }

    /// Build from spec parameters (same `key` format as [`Encrypt`]).
    pub fn from_params(params: &NfParams) -> FastEncrypt {
        FastEncrypt::new(key_from_params(params))
    }

    /// Derive the per-packet nonce from IP identification + addresses so
    /// both directions of the NF agree without shared state.
    fn nonce_for(frame: &[u8], lay: &Layout) -> [u8; 12] {
        let ip = ipv4::Packet::new_unchecked(&frame[lay.l3..]);
        let mut nonce = [0u8; 12];
        nonce[..4].copy_from_slice(&ip.src().0);
        nonce[4..8].copy_from_slice(&ip.dst().0);
        nonce[8..10].copy_from_slice(&ip.ident().to_be_bytes());
        nonce
    }
}

impl NetworkFunction for FastEncrypt {
    fn kind(&self) -> NfKind {
        NfKind::FastEncrypt
    }

    fn process(&mut self, _ctx: &NfCtx, pkt: &mut PacketBuf) -> Verdict {
        let Some(lay) = Layout::parse(pkt.as_slice()) else {
            return Verdict::Drop;
        };
        let nonce = Self::nonce_for(pkt.as_slice(), &lay);
        let cipher = ChaCha20::new(&self.key, &nonce);
        let start = lay.payload;
        cipher.apply(1, &mut pkt.as_mut_slice()[start..]);
        lay.fix_lengths_and_checksums(pkt);
        Verdict::Forward
    }

    fn clone_fresh(&self) -> Box<dyn NetworkFunction> {
        Box::new(FastEncrypt { key: self.key })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lemur_packet::builder::udp_packet;
    use lemur_packet::flow::FiveTuple;
    use lemur_packet::{ethernet, udp};

    fn pkt(payload: &[u8]) -> PacketBuf {
        udp_packet(
            ethernet::Address([2, 0, 0, 0, 0, 1]),
            ethernet::Address([2, 0, 0, 0, 0, 2]),
            ipv4::Address::new(10, 0, 0, 1),
            ipv4::Address::new(10, 0, 0, 2),
            5555,
            8080,
            payload,
        )
    }

    fn payload_of(p: &PacketBuf) -> Vec<u8> {
        let lay = Layout::parse(p.as_slice()).unwrap();
        p.as_slice()[lay.payload..].to_vec()
    }

    fn valid_at_all_layers(p: &PacketBuf) -> bool {
        let eth = ethernet::Frame::new_checked(p.as_slice()).unwrap();
        let ip = ipv4::Packet::new_checked(eth.payload()).unwrap();
        if !ip.verify_checksum() {
            return false;
        }
        let u = udp::Packet::new_checked(ip.payload()).unwrap();
        u.verify_checksum(ip.src(), ip.dst())
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let key = *b"lemur-secret-key";
        let mut enc = Encrypt::new(key);
        let mut dec = Decrypt::new(key);
        let ctx = NfCtx::default();
        let mut p = pkt(b"confidential payload bytes");
        assert_eq!(enc.process(&ctx, &mut p), Verdict::Forward);
        assert_ne!(payload_of(&p), b"confidential payload bytes".to_vec());
        assert!(
            valid_at_all_layers(&p),
            "encrypted packet must stay well-formed"
        );
        assert_eq!(dec.process(&ctx, &mut p), Verdict::Forward);
        assert_eq!(payload_of(&p), b"confidential payload bytes".to_vec());
        assert!(valid_at_all_layers(&p));
    }

    /// `key` is operator input: whatever string it holds, all three crypto
    /// NFs build, on the key the 32-hex-digit rule gives — a pair that is
    /// not two hex digits reads as zero, any other length as all zeros.
    #[test]
    fn any_key_string_builds_and_malformed_keys_fall_back() {
        use crate::{build_nf, ParamValue};
        let mut from_valid = [0u8; 16];
        from_valid[0] = 0xfe;
        from_valid[15] = 0x0f;
        let mut from_partial = [0u8; 16];
        from_partial[1] = 0xab;
        let cases: [(String, [u8; 16]); 8] = [
            ("fe00000000000000000000000000000f".into(), from_valid),
            ("FE00000000000000000000000000000F".into(), from_valid),
            // 32 bytes, every pair boundary inside a two-byte character.
            (format!("a{}b", "é".repeat(15)), [0u8; 16]),
            // 32 bytes, every pair one whole (non-hex) character.
            ("é".repeat(16), [0u8; 16]),
            (format!("zzab{}", "é".repeat(14)), from_partial),
            ("0011".into(), [0u8; 16]),
            ("00".repeat(17), [0u8; 16]),
            (String::new(), [0u8; 16]),
        ];
        let ctx = NfCtx::default();
        let plain = pkt(b"whatever the key string, the NF builds");
        for (text, key) in cases {
            let mut params = NfParams::new();
            params.set("key", ParamValue::Str(text.clone()));
            let mut enc = build_nf(NfKind::Encrypt, &params);
            let mut dec = build_nf(NfKind::Decrypt, &params);
            let mut fast = build_nf(NfKind::FastEncrypt, &params);

            let (mut got, mut want) = (plain.clone(), plain.clone());
            assert_eq!(enc.process(&ctx, &mut got), Verdict::Forward);
            Encrypt::new(key).process(&ctx, &mut want);
            assert_eq!(got.as_slice(), want.as_slice(), "Encrypt, key {text:?}");
            assert_eq!(dec.process(&ctx, &mut want), Verdict::Forward);
            assert_eq!(want.as_slice(), plain.as_slice(), "Decrypt, key {text:?}");

            let (mut got, mut want) = (plain.clone(), plain.clone());
            fast.process(&ctx, &mut got);
            FastEncrypt::new(key).process(&ctx, &mut want);
            assert_eq!(got.as_slice(), want.as_slice(), "FastEncrypt, key {text:?}");
        }
    }

    #[test]
    fn encrypt_grows_packet_by_iv_and_padding() {
        let mut enc = Encrypt::new([0u8; 16]);
        let ctx = NfCtx::default();
        let mut p = pkt(b"0123456789"); // 10 bytes → 16-byte block + 16 IV
        let before = p.len();
        enc.process(&ctx, &mut p);
        assert_eq!(p.len(), before - 10 + 16 + 16);
    }

    #[test]
    fn decrypt_wrong_key_drops() {
        let mut enc = Encrypt::new([1u8; 16]);
        let mut dec = Decrypt::new([2u8; 16]);
        let ctx = NfCtx::default();
        let mut p = pkt(b"some payload that is long enough to matter!");
        enc.process(&ctx, &mut p);
        // Overwhelmingly likely to fail the padding check.
        assert_eq!(dec.process(&ctx, &mut p), Verdict::Drop);
    }

    #[test]
    fn decrypt_short_payload_drops() {
        let mut dec = Decrypt::new([0u8; 16]);
        let ctx = NfCtx::default();
        let mut p = pkt(b"short");
        assert_eq!(dec.process(&ctx, &mut p), Verdict::Drop);
    }

    #[test]
    fn fast_encrypt_is_involutive_and_length_preserving() {
        let mut fe = FastEncrypt::new(*b"fast-lemur-key!!");
        let ctx = NfCtx::default();
        let mut p = pkt(b"stream cipher payload");
        let before_len = p.len();
        let before_payload = payload_of(&p);
        fe.process(&ctx, &mut p);
        assert_eq!(p.len(), before_len);
        assert_ne!(payload_of(&p), before_payload);
        assert!(valid_at_all_layers(&p));
        fe.process(&ctx, &mut p);
        assert_eq!(payload_of(&p), before_payload);
    }

    #[test]
    fn headers_survive_encryption() {
        let mut enc = Encrypt::new([3u8; 16]);
        let ctx = NfCtx::default();
        let mut p = pkt(b"payload");
        let before = FiveTuple::parse(p.as_slice()).unwrap();
        enc.process(&ctx, &mut p);
        let after = FiveTuple::parse(p.as_slice()).unwrap();
        assert_eq!(before, after);
    }

    #[test]
    fn non_ip_dropped() {
        let mut enc = Encrypt::new([0u8; 16]);
        let ctx = NfCtx::default();
        let mut garbage = PacketBuf::from_bytes(&[0u8; 40]);
        assert_eq!(enc.process(&ctx, &mut garbage), Verdict::Drop);
    }

    #[test]
    fn encrypt_through_vlan() {
        let key = [9u8; 16];
        let mut enc = Encrypt::new(key);
        let mut dec = Decrypt::new(key);
        let ctx = NfCtx::default();
        let mut p = pkt(b"tagged payload");
        lemur_packet::builder::vlan_push(&mut p, 42);
        assert_eq!(enc.process(&ctx, &mut p), Verdict::Forward);
        assert_eq!(dec.process(&ctx, &mut p), Verdict::Forward);
        assert_eq!(payload_of(&p), b"tagged payload".to_vec());
        assert_eq!(lemur_packet::builder::vlan_peek(p.as_slice()), Some(42));
    }
}
