//! Deterministic traffic generation for the experiments.

use lemur_packet::builder::udp_packet_with;
use lemur_packet::{ethernet, ipv4, PacketBuf};
use lemur_placer::PACKET_BYTES;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// Error for chain indices whose classifier prefix cannot be derived:
/// `10.hi.lo.0/24` encodes the index in two octets, so only
/// `0..=65535` are representable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainIndexOutOfRange(pub usize);

impl fmt::Display for ChainIndexOutOfRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "chain index {} exceeds 65535: classifier prefixes derive both middle octets from the index",
            self.0
        )
    }
}

impl std::error::Error for ChainIndexOutOfRange {}

/// Offered load for one chain.
#[derive(Debug, Clone)]
pub struct TrafficSpec {
    /// Offered rate in bits/second.
    pub offered_bps: f64,
    /// Source prefix the chain's aggregate classifies on.
    pub src_prefix: ipv4::Cidr,
    /// Number of long-lived flows (paper footnote 6 uses 30–50).
    pub flows: usize,
    /// Payload bytes per packet.
    pub payload_len: usize,
    /// Fraction of packets carrying a *redundant* payload (exercises
    /// Dedup's redundancy elimination).
    pub redundancy: f64,
}

impl TrafficSpec {
    /// A default spec for a chain index: long-lived flows from
    /// `10.(idx >> 8).(idx & 0xff).0/24`. Both middle octets derive from
    /// the index, so every chain in `0..=65535` gets a disjoint classifier
    /// prefix (a plain `10.(idx).0.0/16` would silently wrap at 256 and
    /// alias chains 0 and 256 onto one aggregate). The flow count is high
    /// enough that hashing over many subgroup replicas stays balanced
    /// (40-flow profiling traffic per footnote 6 is available via
    /// [`TrafficSpec::flows`]).
    pub fn for_chain(idx: usize, offered_bps: f64) -> Result<TrafficSpec, ChainIndexOutOfRange> {
        if idx > u16::MAX as usize {
            return Err(ChainIndexOutOfRange(idx));
        }
        Ok(TrafficSpec {
            offered_bps,
            src_prefix: ipv4::Cidr::new(
                ipv4::Address::new(10, (idx >> 8) as u8, (idx & 0xff) as u8, 0),
                24,
            )
            .expect("/24 is a valid prefix length"),
            flows: 512,
            payload_len: PACKET_BYTES as usize - 42, // eth+ip+udp headers
            redundancy: 0.5,
        })
    }

    /// The chain's traffic aggregate matching this spec.
    pub fn aggregate(&self) -> lemur_packet::TrafficAggregate {
        lemur_packet::TrafficAggregate {
            src: Some(self.src_prefix),
            ..lemur_packet::TrafficAggregate::any()
        }
    }
}

/// The five-tuple fields that tell a chain's flows apart: `(src, dst,
/// source port)` of flow `flow` inside the classifier `/24` whose network
/// address is `prefix_base`. The host octet stays inside the /24; flows
/// beyond 254 remain distinct five-tuples via the source port (and the
/// destination's third octet). Every modulo applies to the full flow
/// number — truncating first would alias flows ≥ 65 536.
pub(crate) fn flow_tuple(prefix_base: u32, flow: u64) -> (ipv4::Address, ipv4::Address, u16) {
    (
        ipv4::Address::from_u32(prefix_base | ((flow % 254) as u32 + 1)),
        ipv4::Address::new(10, 200, (flow % 250) as u8, 1),
        10_000 + (flow % 40_000) as u16,
    )
}

/// Generates packets for one chain at a steady rate.
pub struct ChainSource {
    spec: TrafficSpec,
    rng: StdRng,
    next_ns: u64,
    interval_ns: f64,
    /// Nominal inter-packet gap at the spec's offered rate; `interval_ns`
    /// is this divided by the current rate factor.
    base_interval_ns: f64,
    carry: f64,
    seq: u64,
    redundant_payload: Vec<u8>,
}

impl ChainSource {
    /// Create a source; `seed` controls flow/payload randomness.
    pub fn new(spec: TrafficSpec, seed: u64) -> ChainSource {
        let bits = (spec.payload_len + 42) as f64 * 8.0;
        let interval_ns = bits / spec.offered_bps * 1e9;
        let mut redundant = Vec::with_capacity(spec.payload_len);
        while redundant.len() < spec.payload_len {
            redundant.extend_from_slice(b"The quick brown fox jumps over the lazy dog. ");
        }
        redundant.truncate(spec.payload_len);
        ChainSource {
            spec,
            rng: StdRng::seed_from_u64(seed),
            next_ns: 0,
            interval_ns,
            base_interval_ns: interval_ns,
            carry: 0.0,
            seq: 0,
            redundant_payload: redundant,
        }
    }

    /// Timestamp of the next packet (ns).
    pub fn peek_time(&self) -> u64 {
        self.next_ns
    }

    /// Scale the offered rate by `factor` (relative to the spec's nominal
    /// rate, not cumulative) from the next packet on. Used by the fault
    /// injector's traffic surges.
    pub fn set_rate_factor(&mut self, factor: f64) {
        assert!(factor > 0.0, "rate factor must be positive");
        self.interval_ns = self.base_interval_ns / factor;
    }

    /// Produce the next packet.
    pub fn next_packet(&mut self) -> (u64, PacketBuf) {
        let t = self.next_ns;
        // Advance with sub-ns carry so long runs keep the exact rate.
        self.carry += self.interval_ns;
        let step = self.carry as u64;
        self.carry -= step as f64;
        self.next_ns += step.max(1);

        let flow = self.seq % self.spec.flows as u64;
        self.seq += 1;
        let (src, dst, sport) = flow_tuple(self.spec.src_prefix.address().to_u32(), flow);
        // The payload is drawn straight into the frame: one coin for
        // redundant-or-not, then the fixed text or one draw per byte.
        let pkt = udp_packet_with(
            ethernet::Address([2, 0, 0, 0, 0, 0x10]),
            ethernet::Address([2, 0, 0, 0, 0, 0x20]),
            src,
            dst,
            sport,
            80,
            self.spec.payload_len,
            |payload| {
                if self.rng.gen_bool(self.spec.redundancy) {
                    payload.copy_from_slice(&self.redundant_payload);
                } else {
                    payload.fill_with(|| self.rng.gen::<u8>());
                }
            },
        );
        (t, pkt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lemur_packet::flow::FiveTuple;

    #[test]
    fn chain_prefixes_are_disjoint_and_bounded() {
        // The /16 scheme aliased chains 0 and 256; the two-octet /24
        // derivation keeps every index distinct.
        let a = TrafficSpec::for_chain(0, 1e9).unwrap();
        let b = TrafficSpec::for_chain(256, 1e9).unwrap();
        assert_ne!(a.src_prefix, b.src_prefix);
        assert_eq!(b.src_prefix.address(), ipv4::Address::new(10, 1, 0, 0));
        assert_eq!(
            TrafficSpec::for_chain(65_536, 1e9).unwrap_err(),
            ChainIndexOutOfRange(65_536)
        );
        let err = ChainIndexOutOfRange(70_000).to_string();
        assert!(err.contains("70000"), "{err}");
    }

    #[test]
    fn flow_tuple_takes_every_modulo_of_the_whole_flow_number() {
        let base = ipv4::Address::new(10, 0, 1, 0).to_u32();
        let tuple = |flow| {
            let (src, dst, sport) = flow_tuple(base, flow);
            (src.0, dst.0, sport)
        };
        // Host octet wraps at 254 (never .0, never .255)…
        assert_eq!(
            tuple(253),
            ([10, 0, 1, 254], [10, 200, 253 % 250, 1], 10_253)
        );
        assert_eq!(tuple(254), ([10, 0, 1, 1], [10, 200, 254 % 250, 1], 10_254));
        assert_eq!(tuple(255), ([10, 0, 1, 2], [10, 200, 255 % 250, 1], 10_255));
        // …the source port at 40 000…
        assert_eq!(tuple(39_999).2, 49_999);
        assert_eq!(tuple(40_000).2, 10_000);
        // …and neither is computed on a truncated flow number: a
        // `flow as u16 % 40_000` would send 65 536 back to port 10 000,
        // onto flow 0's five-tuple minus the (equally aliased) host octet.
        assert_eq!(tuple(65_535).2, 10_000 + 25_535);
        assert_eq!(tuple(65_536).2, 10_000 + 25_536);
        assert_eq!(tuple(65_536).0, [10, 0, 1, (65_536 % 254) as u8 + 1]);
        assert_eq!(tuple(65_536).1, [10, 200, (65_536 % 250) as u8, 1]);
    }

    #[test]
    fn chain_source_flows_past_65535_keep_distinct_ports() {
        let mut spec = TrafficSpec::for_chain(1, 1e9).unwrap();
        spec.flows = 70_000;
        spec.payload_len = 0;
        let mut src = ChainSource::new(spec, 7);
        let ports: Vec<u16> = (0..65_537)
            .map(|_| {
                let (_, p) = src.next_packet();
                FiveTuple::parse(p.as_slice()).unwrap().src_port
            })
            .collect();
        assert_eq!(ports[0], 10_000);
        assert_eq!(ports[65_535], 35_535);
        assert_eq!(ports[65_536], 35_536, "flow 65 536 aliased onto flow 0");
    }

    #[test]
    fn rate_is_honored() {
        let spec = TrafficSpec::for_chain(1, 1e9).unwrap(); // 1 Gbps
        let mut src = ChainSource::new(spec, 7);
        let mut last = 0;
        let mut bits = 0u64;
        for _ in 0..1000 {
            let (t, p) = src.next_packet();
            bits += p.len() as u64 * 8;
            last = t;
        }
        let rate = bits as f64 / (last as f64 / 1e9);
        assert!((rate / 1e9 - 1.0).abs() < 0.02, "measured {rate}");
    }

    #[test]
    fn flows_are_bounded_and_in_prefix() {
        let spec = TrafficSpec::for_chain(3, 1e9).unwrap();
        let agg = spec.aggregate();
        let mut src = ChainSource::new(spec, 7);
        let mut flows = std::collections::HashSet::new();
        for _ in 0..500 {
            let (_, p) = src.next_packet();
            let t = FiveTuple::parse(p.as_slice()).unwrap();
            assert!(agg.matches(&t), "packet outside aggregate");
            flows.insert(t);
        }
        assert!(flows.len() <= 512, "{} flows", flows.len());
    }

    #[test]
    fn deterministic_across_runs() {
        let a: Vec<_> = {
            let mut s = ChainSource::new(TrafficSpec::for_chain(1, 5e9).unwrap(), 42);
            (0..50)
                .map(|_| s.next_packet().1.as_slice().to_vec())
                .collect()
        };
        let b: Vec<_> = {
            let mut s = ChainSource::new(TrafficSpec::for_chain(1, 5e9).unwrap(), 42);
            (0..50)
                .map(|_| s.next_packet().1.as_slice().to_vec())
                .collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn redundancy_mix() {
        let mut spec = TrafficSpec::for_chain(1, 1e9).unwrap();
        spec.redundancy = 1.0;
        let mut s = ChainSource::new(spec, 1);
        let (_, p1) = s.next_packet();
        let (_, p2) = s.next_packet();
        // Fully redundant: payloads identical.
        let off = p1.len() - 500;
        assert_eq!(p1.as_slice()[off..], p2.as_slice()[off..]);
    }
}
