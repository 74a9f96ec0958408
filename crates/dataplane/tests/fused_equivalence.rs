//! Differential test: the fused NF storage must be *observationally
//! identical* to the per-NF trait-object reference storage.
//!
//! Two axes of comparison:
//!
//! 1. **Whole-testbed**: build the same placement twice — once from
//!    [`compile`], once from [`compile_fused`] — drive
//!    identical seeded traffic, and `assert_eq!` the *entire* [`SimReport`]
//!    (delivered bytes, drop reasons, conservation ledger, latency
//!    timelines, SLO violations). Any divergence in a verdict, a rewritten
//!    byte, or a drop reason shows up as a report mismatch.
//! 2. **Segment-level adversarial**: feed hand-built hostile frames
//!    (truncated, garbage, VLAN-tagged, non-IPv4, empty) through a boxed
//!    and a fused [`NfRuntime`] built from the same chain spec, and
//!    compare gates, bytes, and per-NF state fingerprints.
//!
//! The placer's LP fan-outs honour `LEMUR_WORKERS`; the worker-count axis
//! is exercised with explicit [`Workers`] handles (1, 2, 8) rather than by
//! mutating the environment, which would race with the parallel test
//! harness while proving the same property: the fused/reference
//! equivalence is independent of how the placement was computed.

use lemur_core::chains::{canonical_chain, CanonicalChain};
use lemur_core::graph::ChainSpec;
use lemur_core::Slo;
use lemur_dataplane::{SimConfig, SimReport, Testbed, TrafficSpec};
use lemur_metacompiler::{compile, compile_fused, NfRuntime};
use lemur_nf::fused::FusedNf;
use lemur_nf::{build_nf, NfCtx, NfKind, NfParams};
use lemur_packet::builder::udp_packet;
use lemur_packet::{ethernet, ipv4, PacketBuf};
use lemur_placer::corealloc::CoreStrategy;
use lemur_placer::placement::{EvaluatedPlacement, PlacementProblem};
use lemur_placer::profiles::NfProfiles;
use lemur_placer::topology::Topology;

#[derive(Clone, Copy)]
enum Placement {
    HwPreferred,
    /// Push every NF down to the servers: maximal fused-segment coverage.
    SwPreferred,
}

fn setup(
    which: &[CanonicalChain],
    placement: Placement,
    delta: f64,
) -> (PlacementProblem, EvaluatedPlacement, Vec<TrafficSpec>) {
    let mut specs = Vec::new();
    let chains: Vec<ChainSpec> = which
        .iter()
        .enumerate()
        .map(|(i, w)| {
            let spec = TrafficSpec::for_chain(i + 1, 1e9).expect("chain index in range");
            let agg = spec.aggregate();
            specs.push(spec);
            ChainSpec {
                name: format!("chain{}", w.index()),
                graph: canonical_chain(*w),
                slo: None,
                aggregate: Some(agg),
            }
        })
        .collect();
    let mut p = PlacementProblem::new(chains, Topology::testbed(), NfProfiles::table4());
    for i in 0..p.chains.len() {
        let base = p.base_rate_bps(i);
        p.chains[i].slo = Some(Slo::elastic_pipe(delta * base, 100e9));
    }
    let a = match placement {
        Placement::HwPreferred => lemur_placer::baselines::hw_preferred_assignment(&p),
        Placement::SwPreferred => lemur_placer::baselines::sw_preferred_assignment(&p),
    };
    let e = p.evaluate(&a, CoreStrategy::WaterFill).unwrap();
    for (i, s) in specs.iter_mut().enumerate() {
        // Offer 20% above the predicted rate, capped at the link, so the
        // run exercises both the delivery and the overload/drop paths.
        s.offered_bps = (e.chain_rates_bps[i] * 1.2).min(20e9);
    }
    (p, e, specs)
}

fn quick() -> SimConfig {
    SimConfig {
        duration_s: 0.004,
        warmup_s: 0.001,
        ..SimConfig::default()
    }
}

/// Build the same placement over both NF storages, run identical
/// traffic, and return both reports plus the fused testbed's census.
fn run_both(
    p: &PlacementProblem,
    e: &EvaluatedPlacement,
    specs: &[TrafficSpec],
) -> (SimReport, SimReport, (usize, usize)) {
    let mut reference = Testbed::build(p, e, compile(p, e).unwrap()).unwrap();
    let mut fused = Testbed::build(p, e, compile_fused(p, e).unwrap()).unwrap();
    assert_eq!(
        reference.runtime_census().0,
        0,
        "reference mode must not contain fused replicas"
    );
    let census = fused.runtime_census();
    let ref_report = reference.run(specs, quick());
    let fused_report = fused.run(specs, quick());
    (ref_report, fused_report, census)
}

#[test]
fn every_canonical_chain_fused_matches_reference_sw_preferred() {
    for chain in CanonicalChain::ALL {
        // All-software placements cannot reach the full hw-assisted base
        // rate; a relaxed SLO floor keeps them feasible.
        let (p, e, specs) = setup(&[chain], Placement::SwPreferred, 0.25);
        let (ref_report, fused_report, (fused_n, total)) = run_both(&p, &e, &specs);
        assert!(
            fused_n > 0 && fused_n == total,
            "chain{}: expected all {total} server replicas fused, got {fused_n}",
            chain.index()
        );
        assert!(
            ref_report.per_chain[0].delivered_bps > 0.0,
            "chain{}: reference delivered nothing — vacuous comparison",
            chain.index()
        );
        // Bit-identical verdicts, bytes, drop reasons, ledger totals,
        // latency samples: the whole report must match.
        assert_eq!(
            ref_report,
            fused_report,
            "chain{} diverged under fusion",
            chain.index()
        );
    }
}

#[test]
fn hw_preferred_mixed_platform_fused_matches_reference() {
    // Under hw-preferred placement only the residual server-side segments
    // are fused; switch and NIC hops are shared verbatim between modes.
    let (p, e, specs) = setup(
        &[CanonicalChain::Chain3, CanonicalChain::Chain5],
        Placement::HwPreferred,
        1.0,
    );
    let (ref_report, fused_report, (fused_n, total)) = run_both(&p, &e, &specs);
    assert_eq!(fused_n, total, "every server replica should be fused");
    assert_eq!(ref_report, fused_report);
}

#[test]
fn all_five_chains_together_fused_matches_reference() {
    let (p, e, specs) = setup(&CanonicalChain::ALL, Placement::SwPreferred, 0.2);
    let (ref_report, fused_report, (fused_n, _)) = run_both(&p, &e, &specs);
    assert!(fused_n > 0);
    let delivered: f64 = ref_report.per_chain.iter().map(|c| c.delivered_bps).sum();
    assert!(delivered > 0.0, "vacuous comparison");
    assert_eq!(ref_report, fused_report);
}

#[test]
fn worker_count_does_not_affect_fused_equivalence() {
    use lemur_metacompiler::CompilerOracle;
    use lemur_placer::parallel::Workers;

    // Compute the placement through the real heuristic pipeline at several
    // LEMUR_WORKERS settings. The placer guarantees bit-identical results
    // for every worker count; the fused runtime must preserve that.
    let (p, _, mut specs) = setup(&[CanonicalChain::Chain3], Placement::HwPreferred, 1.0);
    let oracle = CompilerOracle::new();
    let mut baseline: Option<(EvaluatedPlacement, SimReport)> = None;
    for workers in [1usize, 2, 8] {
        let e = lemur_placer::heuristic::place_with_workers(
            &p,
            &oracle,
            CoreStrategy::WaterFill,
            Workers::new(workers),
        )
        .unwrap();
        specs[0].offered_bps = (e.chain_rates_bps[0] * 1.2).min(20e9);
        let (ref_report, fused_report, _) = run_both(&p, &e, &specs);
        assert_eq!(
            ref_report, fused_report,
            "fused diverged at workers={workers}"
        );
        match &baseline {
            None => baseline = Some((e, fused_report)),
            Some((e0, r0)) => {
                assert_eq!(
                    e0.assignment, e.assignment,
                    "placement changed at workers={workers}"
                );
                assert_eq!(r0, &fused_report, "report changed at workers={workers}");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Segment-level adversarial differential
// ---------------------------------------------------------------------------

fn valid_pkt(dst: ipv4::Address, src_port: u16, payload: &[u8]) -> PacketBuf {
    udp_packet(
        ethernet::Address([2, 0, 0, 0, 0, 1]),
        ethernet::Address([2, 0, 0, 0, 0, 2]),
        ipv4::Address::new(203, 0, 113, 9),
        dst,
        src_port,
        443,
        payload,
    )
}

/// Hostile frames: every parse stage gets something it must reject.
fn adversarial_frames() -> Vec<PacketBuf> {
    let mut out = Vec::new();
    // Empty frame.
    out.push(PacketBuf::from_bytes(&[]));
    // Truncated ethernet header.
    out.push(PacketBuf::from_bytes(&[0xde, 0xad, 0xbe]));
    // Ethernet header only, no L3.
    let mut eth_only = vec![0u8; ethernet::HEADER_LEN];
    eth_only[12] = 0x08; // ethertype IPv4...
    eth_only[13] = 0x00; // ...but nothing follows.
    out.push(PacketBuf::from_bytes(&eth_only));
    // Non-IPv4 ethertype (ARP).
    let mut arp = vec![0u8; 60];
    arp[12] = 0x08;
    arp[13] = 0x06;
    out.push(PacketBuf::from_bytes(&arp));
    // VLAN-tagged frame (0x8100) — the plain IPv4 parser must reject it.
    let mut vlan = valid_pkt(ipv4::Address::new(10, 0, 0, 1), 1111, b"vlan")
        .as_slice()
        .to_vec();
    vlan.splice(12..12, [0x81, 0x00, 0x00, 0x2a]);
    out.push(PacketBuf::from_bytes(&vlan));
    // IPv4 header truncated mid-way.
    let full = valid_pkt(ipv4::Address::new(10, 0, 0, 2), 2222, b"trunc")
        .as_slice()
        .to_vec();
    out.push(PacketBuf::from_bytes(&full[..ethernet::HEADER_LEN + 7]));
    // IPv4 claiming IHL=15 with no options present.
    let mut bad_ihl = valid_pkt(ipv4::Address::new(10, 0, 0, 3), 3333, b"ihl")
        .as_slice()
        .to_vec();
    bad_ihl[ethernet::HEADER_LEN] = 0x4f;
    out.push(PacketBuf::from_bytes(&bad_ihl));
    // Non-UDP/TCP protocol (ICMP): no L4 tuple.
    let mut icmp = valid_pkt(ipv4::Address::new(10, 0, 0, 4), 4444, b"icmp")
        .as_slice()
        .to_vec();
    icmp[ethernet::HEADER_LEN + 9] = 1;
    out.push(PacketBuf::from_bytes(&icmp));
    // Pure garbage, longer than every header combined.
    let garbage: Vec<u8> = (0..96u16)
        .map(|i| (i.wrapping_mul(197) >> 3) as u8)
        .collect();
    out.push(PacketBuf::from_bytes(&garbage));
    out
}

/// Deterministic mixed stream: valid flows interleaved with every
/// adversarial frame, `n` packets long.
fn mixed_stream(n: usize, seed: u16) -> Vec<PacketBuf> {
    let hostile = adversarial_frames();
    (0..n)
        .map(|i| {
            if i % 3 == 2 {
                hostile[(seed as usize + i) % hostile.len()].clone()
            } else {
                let x = seed.wrapping_add(i as u16);
                valid_pkt(
                    ipv4::Address::new(10, (x % 5) as u8, 0, (x % 9) as u8 + 1),
                    5000 + (x % 37),
                    b"mixed stream payload",
                )
            }
        })
        .collect()
}

fn both_runtimes(specs: &[(NfKind, NfParams)]) -> (NfRuntime, NfRuntime) {
    let boxed = NfRuntime::boxed("ref", specs.iter().map(|(k, p)| build_nf(*k, p)).collect());
    let fused = NfRuntime::fused(
        "fused",
        specs.iter().map(|(k, p)| FusedNf::build(*k, p)).collect(),
    );
    (boxed, fused)
}

/// Chains that together cover all 14 NF kinds, including every
/// flow-cache-preserving classifier and every cache-invalidating mutator.
fn coverage_chains() -> Vec<Vec<(NfKind, NfParams)>> {
    let p = NfParams::new;
    vec![
        vec![
            (NfKind::Acl, p()),
            (NfKind::Match, p()),
            (NfKind::Monitor, p()),
            (NfKind::Limiter, p()),
        ],
        vec![(NfKind::Nat, p()), (NfKind::Monitor, p())],
        vec![(NfKind::Lb, p()), (NfKind::Acl, p())],
        vec![(NfKind::Encrypt, p()), (NfKind::Decrypt, p())],
        vec![(NfKind::Tunnel, p()), (NfKind::Detunnel, p())],
        vec![
            (NfKind::Dedup, p()),
            (NfKind::UrlFilter, p()),
            (NfKind::Ipv4Fwd, p()),
        ],
        vec![(NfKind::FastEncrypt, p()), (NfKind::Monitor, p())],
    ]
}

#[test]
fn adversarial_single_packet_path_matches_reference() {
    // The engine's per-packet entry point (`process_packet`) must agree
    // with the reference on the same hostile stream, byte for byte.
    for specs in coverage_chains() {
        let (mut sg, mut fs) = both_runtimes(&specs);
        let ctx = NfCtx { now_ns: 77_000 };
        for (i, pkt) in mixed_stream(48, 7).into_iter().enumerate() {
            let mut a = pkt.clone();
            let mut b = pkt;
            let ga = sg.process_packet(&ctx, &mut a);
            let gb = fs.process_packet(&ctx, &mut b);
            assert_eq!(ga, gb, "packet {i}: gate diverged");
            assert_eq!(a, b, "packet {i}: bytes diverged");
        }
        for idx in 0..specs.len() {
            assert_eq!(sg.nf_state_fingerprint(idx), fs.nf_state_fingerprint(idx));
        }
    }
}
