//! `FlowPacketSource` builds a flow's frames from a per-source template
//! and a closed-form UDP checksum instead of calling
//! `lemur_packet::builder::udp_packet` per packet. Whatever it emits must
//! still be, byte for byte, the frame `udp_packet` builds around a payload
//! of `flow_id as u8` bytes. `ChainSource` draws its payload straight into
//! the frame; that too must be the frame `udp_packet` builds around the
//! same draws.

use lemur_dataplane::traffic::ChainSource;
use lemur_dataplane::{FlowPacketSource, FlowRecord, Scenario, TrafficSpec};
use lemur_packet::builder::udp_packet;
use lemur_packet::{ethernet, ipv4, udp, PacketBuf};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn prefix() -> ipv4::Cidr {
    ipv4::Cidr::new(ipv4::Address::new(10, 3, 7, 0), 24).unwrap()
}

/// One single-packet flow per id, one nanosecond apart so the source
/// emits them in the order given.
fn scenario(flow_ids: &[u64]) -> Scenario {
    Scenario {
        horizon_ns: flow_ids.len() as u64 + 1,
        n_chains: 1,
        flows: flow_ids
            .iter()
            .enumerate()
            .map(|(i, &flow_id)| FlowRecord {
                chain: 0,
                flow_id,
                start_ns: i as u64,
                interval_ns: 1,
                packets: 1,
                size_packets: 1,
                ddos: false,
            })
            .collect(),
    }
}

/// The frame a flow source is specified to emit for `flow_id`.
fn reference(flow_id: u64, payload_len: usize) -> PacketBuf {
    reference_with(flow_id, &vec![flow_id as u8; payload_len])
}

/// The frame either source is specified to emit for `flow_id` around
/// `payload`.
fn reference_with(flow_id: u64, payload: &[u8]) -> PacketBuf {
    udp_packet(
        ethernet::Address([2, 0, 0, 0, 0, 0x10]),
        ethernet::Address([2, 0, 0, 0, 0, 0x20]),
        ipv4::Address::from_u32(prefix().address().to_u32() | ((flow_id % 254) as u32 + 1)),
        ipv4::Address::new(10, 200, (flow_id % 250) as u8, 1),
        10_000 + (flow_id % 40_000) as u16,
        80,
        payload,
    )
}

fn assert_frames_match(flow_ids: &[u64], payload_len: usize) {
    let scenario = scenario(flow_ids);
    let mut source = FlowPacketSource::new(&scenario, 0, |_| true, prefix(), payload_len);
    for &flow_id in flow_ids {
        let (_, pkt) = source.next_packet().expect("one packet per flow");
        let want = reference(flow_id, payload_len);
        assert_eq!(
            pkt.as_slice(),
            want.as_slice(),
            "flow {flow_id}, payload {payload_len}"
        );
        assert_eq!(pkt.headroom(), want.headroom());
        let ip = ipv4::Packet::new_checked(&pkt.as_slice()[ethernet::HEADER_LEN..]).unwrap();
        assert!(ip.verify_checksum());
        let u = udp::Packet::new_checked(ip.payload()).unwrap();
        assert_ne!(
            u.checksum_field(),
            0,
            "a computed checksum is never sent as zero"
        );
        assert!(u.verify_checksum(ip.src(), ip.dst()));
    }
    assert!(source.next_packet().is_none());
}

/// Flow ids on both sides of every wrap in the five-tuple derivation
/// (host octet at 254, destination octet at 250, port at 40 000, and the
/// 16-bit boundary the old `ChainSource` truncated at).
#[test]
fn frames_equal_udp_packet_across_five_tuple_wraps() {
    let flow_ids = [
        0, 1, 249, 250, 253, 254, 255, 256, 39_999, 40_000, 65_535, 65_536, 1_125_000,
    ];
    for payload_len in [0, 1, 2, 17, 22, 1458] {
        assert_frames_match(&flow_ids, payload_len);
    }
}

/// `ChainSource` against `udp_packet` over a payload drawn the way it is
/// specified to draw — one coin per packet, then the fixed text or one
/// `u8` per byte — from a second generator on the same seed: never, mixed
/// and always redundant, at an empty, a 64 B-frame and an MTU payload.
#[test]
fn chain_source_frames_equal_udp_packet_over_the_same_draws() {
    const TEXT: &[u8] = b"The quick brown fox jumps over the lazy dog. ";
    for redundancy in [0.0, 0.5, 1.0] {
        for payload_len in [0usize, 22, 1458] {
            let spec = TrafficSpec {
                offered_bps: 1e9,
                src_prefix: prefix(),
                flows: 300,
                payload_len,
                redundancy,
            };
            let mut source = ChainSource::new(spec, 9);
            let mut rng = StdRng::seed_from_u64(9);
            let mut redundant = 0;
            for seq in 0..600u64 {
                let payload: Vec<u8> = if rng.gen_bool(redundancy) {
                    redundant += 1;
                    TEXT.iter().copied().cycle().take(payload_len).collect()
                } else {
                    (0..payload_len).map(|_| rng.gen::<u8>()).collect()
                };
                let (_, pkt) = source.next_packet();
                let want = reference_with(seq % 300, &payload);
                assert!(
                    pkt == want,
                    "packet {seq}, payload {payload_len}, redundancy {redundancy}"
                );
                assert_eq!(pkt.headroom(), want.headroom());
            }
            let expected = match redundancy {
                0.0 => 0..=0,
                1.0 => 600..=600,
                _ => 200..=400,
            };
            assert!(expected.contains(&redundant), "{redundant} redundant");
        }
    }
}

/// The closed-form checksum against the summed one for every fill byte ×
/// every payload length an MTU frame can carry, odd and even — including
/// the combinations whose sum folds to zero and must go out as `0xffff`.
#[test]
fn closed_form_checksum_equals_summed_checksum_for_every_fill_and_length() {
    let flow_ids: Vec<u64> = (0..256).collect();
    let scenario = scenario(&flow_ids);
    let mut all_ones = 0;
    for payload_len in 0..=1472 {
        let mut source = FlowPacketSource::new(&scenario, 0, |_| true, prefix(), payload_len);
        for &flow_id in &flow_ids {
            let (_, pkt) = source.next_packet().expect("one packet per flow");
            let want = reference(flow_id, payload_len);
            // Compare checksums first for a readable failure, then the rest.
            let field = |p: &PacketBuf| {
                let l4 = ethernet::HEADER_LEN + ipv4::HEADER_LEN;
                udp::Packet::new_unchecked(&p.as_slice()[l4..]).checksum_field()
            };
            assert_eq!(
                field(&pkt),
                field(&want),
                "fill {flow_id:#04x}, payload {payload_len}"
            );
            assert!(pkt == want, "fill {flow_id:#04x}, payload {payload_len}");
            all_ones += usize::from(field(&pkt) == 0xffff);
        }
    }
    // A field of 0xffff can only be a computed zero (the sum of a datagram
    // that is not all zeroes never folds to 0x0000); 377 088 frames over
    // 65 535 possible sums must have hit it.
    assert!(all_ones > 0, "the zero → 0xffff case was never exercised");
}
