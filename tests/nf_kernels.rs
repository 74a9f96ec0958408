//! The per-byte NF kernels, held to their published vectors and to the
//! packet-level contract the dataplane relies on: AES-128 against FIPS-197,
//! CBC against SP 800-38A through the in-place entry points, and the
//! `Encrypt` → `Decrypt` NFs as an exact inverse pair that keeps every
//! frame well-formed and never panics on malformed input.

use lemur::nf::crypto::{cbc_decrypt_in_place, cbc_encrypt_in_place, Aes128};
use lemur::nf::dedup::Dedup;
use lemur::nf::encrypt::{Decrypt, Encrypt};
use lemur::nf::{NetworkFunction, NfCtx, Verdict};
use lemur::packet::builder::{tcp_packet, udp_packet, vlan_push};
use lemur::packet::flow::FiveTuple;
use lemur::packet::ipv4::Protocol;
use lemur::packet::{ethernet, ipv4, tcp, udp, vlan, PacketBuf};

fn hex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect()
}

fn hex16(s: &str) -> [u8; 16] {
    hex(s).try_into().unwrap()
}

/// `key` expanded by both constructors: the one NFs use (the CPU's AES
/// instructions where it has them) and the one pinned to the table body.
/// On a CPU without the instructions the two are the same body.
fn both_bodies(key: &str) -> [Aes128; 2] {
    let pinned = Aes128::table_only(&hex16(key));
    assert!(!pinned.is_native());
    [Aes128::new(&hex16(key)), pinned]
}

/// Encrypt `plain` to `cipher` and back under `key`.
fn assert_block_pair(key: &str, plain: &str, cipher: &str) {
    for aes in both_bodies(key) {
        let what = format!("under {key}, native {}", aes.is_native());
        let mut block = hex16(plain);
        aes.encrypt_block(&mut block);
        assert_eq!(block, hex16(cipher), "encrypt {what}");
        aes.decrypt_block(&mut block);
        assert_eq!(block, hex16(plain), "decrypt {what}");
    }
}

#[test]
fn fips197_appendix_b_both_directions() {
    assert_block_pair(
        "2b7e151628aed2a6abf7158809cf4f3c",
        "3243f6a8885a308d313198a2e0370734",
        "3925841d02dc09fbdc118597196a0b32",
    );
}

#[test]
fn fips197_appendix_c1_both_directions() {
    assert_block_pair(
        "000102030405060708090a0b0c0d0e0f",
        "00112233445566778899aabbccddeeff",
        "69c4e0d86a7b0430d8cdb78070b4c55a",
    );
}

/// SP 800-38A F.2.1 (encrypt) and F.2.2 (decrypt), all four blocks. The
/// vectors are unpadded; the in-place decryptor wants PKCS#7, so a fifth
/// all-pad block rides along — CBC makes the first four ciphertext blocks
/// independent of it.
#[test]
fn sp800_38a_cbc_vectors_through_the_in_place_entry_points() {
    let iv = hex16("000102030405060708090a0b0c0d0e0f");
    let plain = hex(concat!(
        "6bc1bee22e409f96e93d7e117393172a",
        "ae2d8a571e03ac9c9eb76fac45af8e51",
        "30c81c46a35ce411e5fbc1191a0a52ef",
        "f69f2445df4f9b17ad2b417be66c3710",
    ));
    let cipher = hex(concat!(
        "7649abac8119b246cee98e9b12e9197d",
        "5086cb9b507219ee95db113a917678b2",
        "73bed6b8e3c1743b7116e69e22229516",
        "3ff1caa1681fac09120eca307586e1a7",
    ));
    for key in both_bodies("2b7e151628aed2a6abf7158809cf4f3c") {
        let what = format!("native {}", key.is_native());
        let mut buf = plain.clone();
        buf.extend_from_slice(&[16u8; 16]);
        cbc_encrypt_in_place(&key, &iv, &mut buf);
        assert_eq!(&buf[..64], &cipher[..], "F.2.1, {what}");
        assert_eq!(cbc_decrypt_in_place(&key, &iv, &mut buf), Some(64));
        assert_eq!(&buf[..64], &plain[..], "F.2.2, {what}");
    }
}

const SRC_MAC: ethernet::Address = ethernet::Address([2, 0, 0, 0, 0, 1]);
const DST_MAC: ethernet::Address = ethernet::Address([2, 0, 0, 0, 0, 2]);

fn udp_frame(payload: &[u8]) -> PacketBuf {
    udp_packet(
        SRC_MAC,
        DST_MAC,
        ipv4::Address::new(10, 0, 0, 1),
        ipv4::Address::new(10, 9, 8, 7),
        5555,
        8080,
        payload,
    )
}

fn tcp_frame(payload: &[u8]) -> PacketBuf {
    tcp_packet(
        SRC_MAC,
        DST_MAC,
        ipv4::Address::new(10, 0, 0, 1),
        ipv4::Address::new(10, 9, 8, 7),
        5555,
        443,
        tcp::Flags::default(),
        payload,
    )
}

fn patterned(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 31 + len) as u8).collect()
}

/// The frame's IPv4 packet, past the optional VLAN tag.
fn ip_of(frame: &[u8]) -> ipv4::Packet<&[u8]> {
    let eth = ethernet::Frame::new_checked(frame).unwrap();
    let l3 = match eth.ethertype() {
        ethernet::EtherType::Vlan => &frame[ethernet::HEADER_LEN + vlan::TAG_LEN..],
        _ => &frame[ethernet::HEADER_LEN..],
    };
    ipv4::Packet::new_checked(l3).unwrap()
}

/// IP header checksum, L4 checksum and the lengths they cover all verify.
fn assert_well_formed(p: &PacketBuf, what: &str) {
    let ip = ip_of(p.as_slice());
    assert!(ip.verify_checksum(), "{what}: IP checksum");
    let ok = match ip.protocol() {
        Protocol::Udp => udp::Packet::new_checked(ip.payload())
            .unwrap()
            .verify_checksum(ip.src(), ip.dst()),
        Protocol::Tcp => tcp::Packet::new_checked(ip.payload())
            .unwrap()
            .verify_checksum(ip.src(), ip.dst()),
        other => panic!("{what}: unexpected protocol {other:?}"),
    };
    assert!(ok, "{what}: L4 checksum");
}

/// Encrypt then Decrypt `original`; the frame must come back byte for byte,
/// well-formed and with its five-tuple intact at every step.
fn assert_round_trip(enc: &mut Encrypt, dec: &mut Decrypt, original: &PacketBuf, what: &str) {
    let ctx = NfCtx::default();
    let tuple = FiveTuple::parse(original.as_slice()).unwrap();
    let mut p = original.clone();
    assert_eq!(enc.process(&ctx, &mut p), Verdict::Forward, "{what}");
    // IV plus at least one byte of padding, to a whole block.
    let grown = p.len() - original.len();
    assert!((17..=32).contains(&grown), "{what}: grew by {grown}");
    assert_well_formed(&p, what);
    assert_eq!(FiveTuple::parse(p.as_slice()).unwrap(), tuple, "{what}");
    assert_eq!(dec.process(&ctx, &mut p), Verdict::Forward, "{what}");
    assert_eq!(p.as_slice(), original.as_slice(), "{what}");
    assert_well_formed(&p, what);
}

#[test]
fn encrypt_decrypt_round_trip_at_every_udp_payload_length() {
    let key = *b"lemur-secret-key";
    let (mut enc, mut dec) = (Encrypt::new(key), Decrypt::new(key));
    for len in 0..=1472 {
        let frame = udp_frame(&patterned(len));
        assert_round_trip(&mut enc, &mut dec, &frame, &format!("udp payload {len}"));
    }
}

#[test]
fn encrypt_decrypt_round_trip_through_vlan_and_tcp() {
    let key = [9u8; 16];
    let (mut enc, mut dec) = (Encrypt::new(key), Decrypt::new(key));
    let mut tagged = udp_frame(&patterned(700));
    vlan_push(&mut tagged, 42);
    assert_round_trip(&mut enc, &mut dec, &tagged, "vlan-tagged udp");
    assert_round_trip(&mut enc, &mut dec, &tcp_frame(&patterned(333)), "tcp");
    assert_round_trip(&mut enc, &mut dec, &tcp_frame(&[]), "empty tcp");
}

/// A buffer with no headroom and no tail room still encrypts correctly
/// (the IV splice and the pad fall back to reallocating).
#[test]
fn encrypt_without_headroom_matches_encrypt_with_it() {
    let frame = udp_frame(&patterned(100));
    let bytes = frame.as_slice();
    // Prepending exactly the headroom's worth leaves none.
    let room = frame.headroom();
    let mut tight = PacketBuf::from_bytes(&bytes[room..]);
    tight.push_front(&bytes[..room]);
    assert_eq!(tight.headroom(), 0);
    assert_eq!(tight.as_slice(), bytes);
    let mut roomy = frame.clone();
    let ctx = NfCtx::default();
    // Fresh NFs on both sides: same key, same IV counter.
    let key = [3u8; 16];
    assert_eq!(
        Encrypt::new(key).process(&ctx, &mut roomy),
        Verdict::Forward
    );
    assert_eq!(
        Encrypt::new(key).process(&ctx, &mut tight),
        Verdict::Forward
    );
    assert_eq!(tight.as_slice(), roomy.as_slice());
    assert_eq!(
        Decrypt::new(key).process(&ctx, &mut tight),
        Verdict::Forward
    );
    assert_eq!(tight.as_slice(), bytes);
}

/// Every strict prefix of a valid frame, and plain garbage, gets the
/// verdict it always got — Encrypt and Decrypt drop what they cannot
/// parse, Dedup forwards it untouched — and nothing panics.
#[test]
fn truncated_and_garbage_frames_keep_their_verdicts() {
    let ctx = NfCtx::default();
    let mut enc = Encrypt::new([1u8; 16]);
    let mut dec = Decrypt::new([1u8; 16]);
    let mut dedup = Dedup::new(64);
    let mut tagged = udp_frame(&patterned(90));
    vlan_push(&mut tagged, 7);
    let mut encrypted = udp_frame(&patterned(90));
    assert_eq!(enc.process(&ctx, &mut encrypted), Verdict::Forward);
    for whole in [
        udp_frame(&patterned(90)),
        tcp_frame(&patterned(90)),
        tagged,
        encrypted,
    ] {
        for cut in 0..whole.len() {
            let prefix = &whole.as_slice()[..cut];
            let mut p = PacketBuf::from_bytes(prefix);
            assert_eq!(enc.process(&ctx, &mut p), Verdict::Drop, "cut {cut}");
            let mut p = PacketBuf::from_bytes(prefix);
            assert_eq!(dec.process(&ctx, &mut p), Verdict::Drop, "cut {cut}");
            assert_eq!(p.as_slice(), prefix, "a dropped packet is untouched");
            let mut p = PacketBuf::from_bytes(prefix);
            assert_eq!(dedup.process(&ctx, &mut p), Verdict::Forward);
            assert_eq!(p.as_slice(), prefix, "cut {cut}");
        }
    }
    for fill in [0x00u8, 0x5a, 0xff] {
        for len in [0usize, 1, 13, 14, 33, 34, 60, 1500] {
            let garbage = vec![fill; len];
            let mut p = PacketBuf::from_bytes(&garbage);
            assert_eq!(enc.process(&ctx, &mut p), Verdict::Drop);
            let mut p = PacketBuf::from_bytes(&garbage);
            assert_eq!(dec.process(&ctx, &mut p), Verdict::Drop);
            let mut p = PacketBuf::from_bytes(&garbage);
            assert_eq!(dedup.process(&ctx, &mut p), Verdict::Forward);
            assert_eq!(p.as_slice(), &garbage[..]);
        }
    }
    // Well-formed frames whose payload is not a ciphertext: too short for
    // an IV, not whole blocks, or whole blocks that fail the pad check.
    for len in [0usize, 5, 15, 16, 17, 40, 48] {
        let frame = udp_frame(&vec![0x5a; len]);
        let mut p = frame.clone();
        assert_eq!(dec.process(&ctx, &mut p), Verdict::Drop, "payload {len}");
        assert_eq!(p.as_slice(), frame.as_slice(), "payload {len}");
    }
}
