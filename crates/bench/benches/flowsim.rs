//! Criterion benches for the flow-level fast path: the per-window costs
//! the hybrid engine pays that the packet-level engine does not —
//! scenario materialization (inverse-CDF sampling + arrival scheduling),
//! analytic tail-plan aggregation, and heavy-hitter packet replay.
//!
//! `exp_scale` measures the same machinery end-to-end at million-flow
//! scale; these isolate the flowsim stages so regressions are
//! attributable.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use lemur_dataplane::{
    ChainLoad, Diurnal, FlowPacketSource, FlowRecord, FlowSizeDist, Scenario, ScenarioSpec, Surge,
    SurgeKind, TrafficSpec,
};

const FLOWS: usize = 20_000;
const HORIZON_NS: u64 = 10_000_000;
const THETA: u64 = 256;
const WINDOW_NS: u64 = 1_000_000;

fn spec() -> ScenarioSpec {
    ScenarioSpec {
        seed: 42,
        horizon_ns: HORIZON_NS,
        chains: vec![ChainLoad {
            flows: FLOWS,
            flow_rate_pps: 400_000.0,
            size: FlowSizeDist {
                alpha: 1.1,
                min_packets: 1,
                max_packets: 2_048,
            },
            diurnal: Some(Diurnal {
                period_ns: HORIZON_NS,
                amplitude: 0.3,
            }),
            surges: vec![Surge {
                kind: SurgeKind::FlashCrowd,
                start_ns: HORIZON_NS / 2,
                duration_ns: HORIZON_NS / 8,
                factor: 3.0,
            }],
        }],
    }
}

/// [`spec`] plus a DDoS surge, so materialization merges junk flows in.
fn ddos_spec() -> ScenarioSpec {
    let mut s = spec();
    s.chains[0].surges.push(Surge {
        kind: SurgeKind::Ddos,
        start_ns: HORIZON_NS * 5 / 8,
        duration_ns: HORIZON_NS / 8,
        factor: 2.0,
    });
    s
}

fn bench_flowsim_window(c: &mut Criterion) {
    let s = spec();
    let ddos = ddos_spec();
    let scenario = s.materialize();
    let traffic = TrafficSpec::for_chain(1, 1e9).expect("chain 1 in range");
    let frame_len = vec![(traffic.payload_len + 42) as u64];

    let mut group = c.benchmark_group("flowsim_window");
    group.throughput(Throughput::Elements(FLOWS as u64));
    group.bench_function("materialize_20k", |b| {
        b.iter(|| criterion::black_box(&s).materialize());
    });
    group.bench_function("materialize_20k_ddos", |b| {
        b.iter(|| criterion::black_box(&ddos).materialize());
    });
    group.bench_function("tail_plan_20k", |b| {
        b.iter(|| {
            criterion::black_box(&scenario).tail_plan(THETA, WINDOW_NS, WINDOW_NS, &frame_len)
        });
    });
    group.bench_function("heavy_replay_20k", |b| {
        b.iter(|| {
            let mut src = FlowPacketSource::new(
                criterion::black_box(&scenario),
                0,
                |f| f.size_packets >= THETA,
                traffic.src_prefix,
                traffic.payload_len,
            );
            let mut n = 0u64;
            while let Some((_t, buf)) = src.next_packet() {
                criterion::black_box(&buf);
                n += 1;
            }
            n
        });
    });
    group.finish();
}

/// One `FlowPacketSource::next_packet` at MTU: the schedule heap's
/// pop + push over 1 000 concurrent flows plus one template-built frame.
/// The flows never run dry, so every iteration is a steady-state packet.
fn bench_flow_source_packet(c: &mut Criterion) {
    let traffic = TrafficSpec::for_chain(1, 1e9).expect("chain 1 in range");
    let scenario = Scenario {
        horizon_ns: u64::MAX,
        n_chains: 1,
        flows: (0..1_000)
            .map(|flow_id| FlowRecord {
                chain: 0,
                flow_id,
                start_ns: flow_id,
                interval_ns: 2_500,
                packets: u64::MAX,
                size_packets: u64::MAX,
                ddos: false,
            })
            .collect(),
    };
    let mut src = FlowPacketSource::new(
        &scenario,
        0,
        |_| true,
        traffic.src_prefix,
        traffic.payload_len,
    );
    c.bench_function("flow_source_next_packet_1500B", |b| {
        b.iter(|| src.next_packet().expect("endless flows"));
    });
}

criterion_group!(benches, bench_flowsim_window, bench_flow_source_packet);
criterion_main!(benches);
