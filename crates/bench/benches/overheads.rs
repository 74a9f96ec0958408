//! Criterion benches for the §5.3 coordination overheads: NSH encap/decap
//! ("about 220 cycles"), demux steering ("about 180 cycles to load-balance
//! packets"), and the end-to-end testbed hop costs.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use lemur_bess::demux::{Demux, DemuxKey};
use lemur_packet::builder::{nsh_decap, nsh_encap, udp_packet, vlan_pop, vlan_push};
use lemur_packet::{ethernet, ipv4, PacketBuf};

fn base_packet() -> PacketBuf {
    udp_packet(
        ethernet::Address([2, 0, 0, 0, 0, 1]),
        ethernet::Address([2, 0, 0, 0, 0, 2]),
        ipv4::Address::new(10, 0, 0, 1),
        ipv4::Address::new(10, 0, 0, 2),
        1000,
        2000,
        &[0u8; 1400],
    )
}

fn bench_nsh(c: &mut Criterion) {
    let pkt = base_packet();
    let mut group = c.benchmark_group("coordination");
    group.throughput(Throughput::Elements(1));
    group.bench_function("nsh_encap_decap", |b| {
        b.iter_batched(
            || pkt.clone(),
            |mut p| {
                nsh_encap(&mut p, 1, 250);
                nsh_decap(&mut p)
            },
            criterion::BatchSize::SmallInput,
        );
    });
    group.bench_function("vlan_push_pop", |b| {
        b.iter_batched(
            || pkt.clone(),
            |mut p| {
                vlan_push(&mut p, 42);
                vlan_pop(&mut p)
            },
            criterion::BatchSize::SmallInput,
        );
    });
    let mut demux = Demux::new();
    demux.add_entry(DemuxKey { spi: 1, si: 249 }, 0, 4);
    let mut enc = pkt.clone();
    nsh_encap(&mut enc, 1, 249);
    group.bench_function("demux_steer_4way", |b| {
        b.iter_batched(
            || enc.clone(),
            |mut p| demux.steer(&mut p),
            criterion::BatchSize::SmallInput,
        );
    });
    group.finish();
}

/// A loaded ToR switch for `chains`, placed by Lemur on the testbed, and
/// the generated entries it was loaded with.
fn loaded_switch(
    chains: &[lemur_core::chains::CanonicalChain],
) -> (
    lemur_p4sim::Switch,
    Vec<lemur_dataplane::traffic::TrafficSpec>,
    lemur_metacompiler::p4gen::SynthesizedP4,
) {
    use lemur_bench::{build_problem, Scheme};
    let (p, specs) = build_problem(chains, 0.5, lemur_placer::topology::Topology::testbed());
    let oracle = lemur_bench::compiler_oracle();
    let e = lemur_bench::place(Scheme::Lemur, &p, &oracle).unwrap();
    let plan = lemur_metacompiler::routing::plan(&p, &e.assignment);
    let synth = lemur_metacompiler::p4gen::synthesize(&p, &e.assignment, &plan, Default::default())
        .unwrap();
    let mut sw =
        lemur_p4sim::Switch::new(synth.program.clone(), *p.topology.pisa().unwrap()).unwrap();
    synth.install(&mut sw);
    (sw, specs, synth)
}

fn bench_switch_pipeline(c: &mut Criterion) {
    use lemur_core::chains::CanonicalChain::Chain5;
    use lemur_p4sim::MatchValue;
    let visit = |c: &mut Criterion, name: &str, sw: &mut lemur_p4sim::Switch, pkt: &PacketBuf| {
        c.bench_function(name, |b| {
            b.iter_batched(
                || pkt.clone(),
                |mut p| sw.process(&mut p),
                criterion::BatchSize::SmallInput,
            );
        });
    };
    // Full generated-P4 switch traversal for chain 5's ingress visit.
    let (mut sw, _, _) = loaded_switch(&[Chain5]);
    let fresh = udp_packet(
        ethernet::Address([2, 0, 0, 0, 0, 1]),
        ethernet::Address([2, 0, 0, 0, 0, 2]),
        ipv4::Address::new(10, 1, 0, 1),
        ipv4::Address::new(10, 200, 0, 1),
        1234,
        80,
        &[0u8; 256],
    );
    visit(c, "switch_ingress_visit", &mut sw, &fresh);

    // The visits exp_perf's `rack-64b` ledger line `p4sim.process_ns`
    // averages: figure-2 set a (52 tables) at 64-byte frames, once as a
    // packet fresh from the wire and once resuming from a server with the
    // NSH header the steer table dispatches on.
    let (mut sw, specs, synth) = loaded_switch(&lemur_bench::figure2_set('a').unwrap());
    let mut spec = specs[0].clone();
    spec.payload_len = 22;
    let (_, fresh) = lemur_dataplane::traffic::ChainSource::new(spec, 1).next_packet();
    assert_eq!(fresh.len(), 64);
    assert!(!sw.process(&mut fresh.clone()).dropped);
    visit(c, "switch_set_a_64b_fresh_visit", &mut sw, &fresh);
    let (spi, si) = synth
        .entries
        .iter()
        .find_map(|(_, e)| match e.keys[..] {
            [MatchValue::Exact(spi), MatchValue::Exact(si), ..] if spi != 0 => Some((spi, si)),
            _ => None,
        })
        .expect("set a resumes from a server at least once");
    let mut resume = fresh.clone();
    nsh_encap(&mut resume, spi as u32, si as u8);
    assert!(!sw.process(&mut resume.clone()).dropped);
    visit(c, "switch_set_a_64b_nsh_resume_visit", &mut sw, &resume);
}

/// One whole `Testbed::run` of 10 000 64-byte packets on figure-2 set a:
/// the engine's per-packet cost (event queue, in-flight table, server
/// routing tables, plus the switch and NF work they carry) through the
/// public API only.
fn bench_engine_run(c: &mut Criterion) {
    use lemur_bench::{build_problem, Scheme};
    use lemur_dataplane::{SimConfig, Testbed};
    const PACKETS: f64 = 10_000.0;
    let chains = lemur_bench::figure2_set('a').unwrap();
    let (p, mut specs) = build_problem(&chains, 0.5, lemur_placer::topology::Topology::testbed());
    let e = lemur_bench::place(Scheme::Lemur, &p, &lemur_bench::compiler_oracle()).unwrap();
    // Each chain's predicted packet rate, restated at 64-byte frames.
    let mut total_pps = 0.0;
    for (s, rate_bps) in specs.iter_mut().zip(&e.chain_rates_bps) {
        let pps = rate_bps / (1500.0 * 8.0);
        s.payload_len = 22;
        s.offered_bps = pps * 64.0 * 8.0;
        total_pps += pps;
    }
    let config = SimConfig {
        duration_s: PACKETS / total_pps * 0.9,
        warmup_s: PACKETS / total_pps * 0.1,
        ..SimConfig::default()
    };
    let mut group = c.benchmark_group("engine");
    group.throughput(Throughput::Elements(PACKETS as u64));
    group.bench_function("engine_run_set_a_64b_10k", |b| {
        b.iter_batched(
            || Testbed::build(&p, &e, lemur_metacompiler::compile_fused(&p, &e).unwrap()).unwrap(),
            |mut testbed| {
                let report = testbed.run(&specs, config);
                assert!(report.ledger.injected as f64 > PACKETS * 0.99);
                report
            },
            criterion::BatchSize::SmallInput,
        );
    });
    group.finish();
}

/// Short measurement windows: these benches exist to regenerate the
/// paper's cost comparisons, not to chase nanosecond precision.
fn quick_config() -> Criterion {
    Criterion::default()
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_secs(1))
        .sample_size(10)
}

criterion_group! {
    name = benches;
    config = quick_config();
    targets = bench_nsh, bench_switch_pipeline, bench_engine_run
}
criterion_main!(benches);
