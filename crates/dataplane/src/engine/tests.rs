use super::accounts::{PacketTable, SimPacket};
use super::queue::{Event, EventQueue, Hop};
use super::*;
use crate::flowsim::FlowRecord;
use lemur_core::chains::{canonical_chain, CanonicalChain};
use lemur_core::graph::ChainSpec;
use lemur_core::Slo;
use lemur_placer::corealloc::CoreStrategy;
use lemur_placer::profiles::NfProfiles;
use lemur_placer::topology::Topology;

fn setup(
    which: &[CanonicalChain],
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
    let a = lemur_placer::baselines::hw_preferred_assignment(&p);
    let e = p.evaluate(&a, CoreStrategy::WaterFill).unwrap();
    for (i, s) in specs.iter_mut().enumerate() {
        // Offer 20% above the predicted rate, capped at the link.
        s.offered_bps = (e.chain_rates_bps[i] * 1.2).min(20e9);
    }
    (p, e, specs)
}

/// Short window keeping debug-mode tests fast; the bench harness uses
/// longer windows in release mode.
fn quick() -> SimConfig {
    SimConfig {
        duration_s: 0.004,
        warmup_s: 0.001,
        ..SimConfig::default()
    }
}

/// Placement problem over canonical chains (numbered 1–5) at δ.
fn problem(which: &[usize], delta: f64) -> PlacementProblem {
    let chains: Vec<CanonicalChain> = which.iter().map(|&w| CanonicalChain::ALL[w - 1]).collect();
    setup(&chains, delta).0
}

/// A deployment that names a server or SmartNIC the problem lacks is
/// a caller error `Testbed::build` reports, not an index panic.
#[test]
fn build_rejects_stray_server_and_nic_indices() {
    use lemur_placer::profiles::Platform;
    let (p, e, _) = setup(&[CanonicalChain::Chain3], 0.5);
    let mut dep = lemur_metacompiler::compile(&p, &e).unwrap();
    dep.bess[0].server = 7;
    let err = Testbed::build(&p, &e, dep).err();
    assert!(matches!(err, Some(BuildError::Mismatch(_))), "{err:?}");

    // Chain 5 with its ChaCha offloaded to the one SmartNIC.
    let mut p = problem(&[5], 0.5);
    p.topology = Topology::with_smartnic();
    let mut a = lemur_placer::baselines::hw_preferred_assignment(&p);
    for (id, n) in p.chains[0].graph.nodes() {
        if n.kind == NfKind::FastEncrypt {
            a[0].insert(id, Platform::SmartNic(0));
        }
    }
    let e = p.evaluate(&a, CoreStrategy::WaterFill).unwrap();
    let mut dep = lemur_metacompiler::compile(&p, &e).unwrap();
    dep.ebpf[0].nic = 3;
    let err = Testbed::build(&p, &e, dep).err();
    assert!(matches!(err, Some(BuildError::Mismatch(_))), "{err:?}");
}

/// The dense server tables answer exactly as the `ServerPipeline`
/// maps they were lowered from — for the keys the maps hold and for
/// keys around them that they don't — on every pipeline of the
/// heuristic and hardware-preferred placements of Figure 2's sets a–e.
#[test]
fn server_tables_answer_as_the_pipeline_maps_do() {
    use lemur_placer::oracle::AlwaysFits;
    const SETS: [&[usize]; 5] = [
        &[1, 2, 3, 4],
        &[1, 2, 3],
        &[1, 2, 4],
        &[1, 3, 4],
        &[2, 3, 4],
    ];
    // Present keys seen per map, so the test can't pass on empty maps.
    let (mut instances, mut rewrites, mut internal, mut replicated) = (0, 0, 0, 0);
    let mut pipelines = 0;
    for set in SETS {
        let p = problem(set, 0.5);
        let hw = lemur_placer::baselines::hw_preferred_assignment(&p);
        let placements = [
            lemur_placer::heuristic::place(&p, &AlwaysFits).unwrap(),
            p.evaluate(&hw, CoreStrategy::WaterFill).unwrap(),
        ];
        for e in &placements {
            let deployment = lemur_metacompiler::compile(&p, e).unwrap();
            let servers = build_platforms(&p, e, deployment).unwrap().0.servers;
            for server in servers.iter().flatten() {
                pipelines += 1;
                let (pipe, tables) = (&server.pipeline, &server.tables);
                // Probe a box around every key any map mentions.
                let max_sg = e.subgroups.len() + 2;
                let max_replica = pipe.instance_map.keys().map(|k| k.1).max().unwrap_or(0) + 2;
                let mut gates: Vec<usize> = pipe.internal_next.keys().map(|k| k.1).collect();
                let mut spis: Vec<u32> = vec![0, 1, u32::MAX];
                for rule in pipe.mux_rules.values() {
                    for (&(spi, gate), &out) in &rule.gate_spi {
                        spis.extend([spi, out, spi + 1]);
                        gates.push(gate);
                    }
                }
                let max_gate = gates.iter().max().copied().unwrap_or(0) + 2;
                for sg in 0..=max_sg {
                    for replica in 0..=max_replica {
                        let want = pipe.instance_map.get(&(sg, replica)).copied();
                        assert_eq!(tables.instance(sg, replica), want, "({sg}, {replica})");
                        instances += usize::from(want.is_some());
                    }
                    let want = pipe.replicas.get(&sg).copied();
                    assert_eq!(tables.replica_count(sg), want.unwrap_or(1), "subgroup {sg}");
                    replicated += usize::from(want.is_some_and(|n| n > 1));
                    for gate in 0..=max_gate {
                        let want = pipe.internal_next.get(&(sg, gate)).copied();
                        assert_eq!(tables.next_subgroup(sg, gate), want, "({sg}, {gate})");
                        internal += usize::from(want.is_some());
                        for &spi in &spis {
                            let want = pipe
                                .mux_rules
                                .get(&sg)
                                .and_then(|r| r.gate_spi.get(&(spi, gate)))
                                .copied();
                            assert_eq!(
                                tables.next_spi(sg, spi, gate),
                                want,
                                "({sg}, {spi}, {gate})"
                            );
                            rewrites += usize::from(want.is_some());
                        }
                    }
                }
                // Every worker core a visit can land on has a station.
                assert!(pipe.instances.iter().all(|i| i.core < server.cores.len()));
            }
        }
    }
    assert!(pipelines >= 10, "{pipelines} pipelines");
    assert!(
        instances > 0 && rewrites > 0 && internal > 0 && replicated > 0,
        "vacuous: {instances} instances, {rewrites} rewrites, {internal} internal hops, \
         {replicated} replicated subgroups"
    );
}

proptest::proptest! {
    #![cases = 300]

    /// `EventQueue` pops what a `BinaryHeap<Reverse<_>>` pops, under
    /// any interleaving: push-push, pop-pop, pop-then-push (the hole
    /// path), equal times, equal whole keys, and pops on empty.
    #[test]
    fn event_queue_pops_in_binary_heap_order(
        preload in 0usize..64,
        ops in proptest::collection::vec((0usize..4, 0u64..6, 0u64..4), 0..300),
    ) {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let event = |t: u64, id: u64| -> Event {
            let hop = match id {
                0 => Hop::Fault(t as usize),
                1 => Hop::AtTor,
                2 => Hop::AtServer(t as usize % 2),
                _ => Hop::EpochSwap,
            };
            (t, id, hop)
        };
        let mut queue = EventQueue::default();
        let mut reference: BinaryHeap<Reverse<Event>> = BinaryHeap::new();
        proptest::prop_assert_eq!(queue.pop(), None);
        for i in 0..preload as u64 {
            let e = event(i * 7 % 11, i % 4);
            queue.push(e);
            reference.push(Reverse(e));
        }
        for (op, t, id) in ops {
            let pops = match op {
                0 | 1 => {
                    queue.push(event(t, id));
                    reference.push(Reverse(event(t, id)));
                    0
                }
                2 => 1,
                _ => 2,
            };
            for _ in 0..pops {
                proptest::prop_assert_eq!(queue.pop(), reference.pop().map(|Reverse(e)| e));
            }
        }
        while let Some(Reverse(e)) = reference.pop() {
            proptest::prop_assert_eq!(queue.pop(), Some(e));
        }
        proptest::prop_assert_eq!(queue.pop(), None);
        proptest::prop_assert_eq!(queue.pop(), None);
    }
}

#[test]
fn packet_table_misses_stale_ids_and_sorts_what_is_left() {
    let packet = |chain| SimPacket {
        buf: PacketBuf::zeroed(0),
        chain,
        t_in: 0,
        ingress_bits: 0,
        hops: 0,
    };
    let mut table = PacketTable::default();
    for id in (1..=1000u64).rev() {
        table.insert(id, packet(id as usize));
    }
    for id in (1..=1000).filter(|id| id % 3 != 0) {
        assert_eq!(table.remove(id).map(|p| p.chain), Some(id as usize));
    }
    assert_eq!(table.len(), 333);
    // Gone is gone: a stale event's id finds nothing, not a neighbour.
    assert!(table.get(1).is_none() && table.get_mut(2).is_none());
    assert!(table.remove(4).is_none() && table.get(0).is_none());
    assert_eq!(table.get(999).map(|p| p.chain), Some(999));
    let ids = table.sorted_ids();
    assert_eq!(
        ids,
        (1..=1000).filter(|id| id % 3 == 0).collect::<Vec<u64>>()
    );
}

#[test]
fn chain3_measured_tracks_predicted() {
    let (p, e, specs) = setup(&[CanonicalChain::Chain3], 1.0);
    let dep = lemur_metacompiler::compile(&p, &e).unwrap();
    let mut tb = Testbed::build(&p, &e, dep).unwrap();
    let report = tb.run(&specs, quick());
    let measured = report.per_chain[0].delivered_bps;
    let predicted = e.chain_rates_bps[0];
    assert!(measured > 0.0, "no traffic delivered");
    let ratio = measured / predicted;
    assert!(
        (0.80..=1.25).contains(&ratio),
        "measured {:.3}G vs predicted {:.3}G (ratio {ratio:.3})",
        measured / 1e9,
        predicted / 1e9
    );
    // Conservative profiling: measured is usually ≥ predicted.
    assert!(report.per_chain[0].mean_latency_ns > 0.0);
}

#[test]
fn two_chains_meet_slos() {
    let (p, e, specs) = setup(&[CanonicalChain::Chain3, CanonicalChain::Chain5], 1.0);
    let dep = lemur_metacompiler::compile(&p, &e).unwrap();
    let mut tb = Testbed::build(&p, &e, dep).unwrap();
    let report = tb.run(&specs, quick());
    let t_mins: Vec<f64> = p.chains.iter().map(|c| c.slo.unwrap().t_min_bps).collect();
    assert!(
        report.slos_met(&t_mins, 0.05),
        "SLOs unmet: {:?} vs {:?}",
        report
            .per_chain
            .iter()
            .map(|c| c.delivered_bps / 1e9)
            .collect::<Vec<_>>(),
        t_mins.iter().map(|t| t / 1e9).collect::<Vec<_>>()
    );
}

#[test]
fn branchy_chain2_delivers_on_all_paths() {
    let (p, e, specs) = setup(&[CanonicalChain::Chain2], 0.5);
    let dep = lemur_metacompiler::compile(&p, &e).unwrap();
    let mut tb = Testbed::build(&p, &e, dep).unwrap();
    let report = tb.run(&specs, quick());
    let s = &report.per_chain[0];
    assert!(s.delivered_packets > 100, "{s:?}");
    // NAT pools and branch gates must not black-hole traffic: drops
    // should be a small fraction under moderate load.
    let total = s.delivered_packets + s.dropped_packets;
    assert!(
        s.dropped_packets as f64 / total as f64 <= 0.35,
        "{} drops of {total}",
        s.dropped_packets
    );
}

#[test]
fn deterministic_runs() {
    let (p, e, specs) = setup(&[CanonicalChain::Chain5], 0.5);
    let run = || {
        let dep = lemur_metacompiler::compile(&p, &e).unwrap();
        let mut tb = Testbed::build(&p, &e, dep).unwrap();
        let r = tb.run(&specs, quick());
        (
            r.per_chain[0].delivered_packets,
            r.per_chain[0].dropped_packets,
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn empty_fault_plan_matches_plain_run() {
    let (p, e, specs) = setup(&[CanonicalChain::Chain3], 0.5);
    let dep = lemur_metacompiler::compile(&p, &e).unwrap();
    let mut tb = Testbed::build(&p, &e, dep).unwrap();
    let plain = tb.run(&specs, quick());
    let dep = lemur_metacompiler::compile(&p, &e).unwrap();
    let mut tb = Testbed::build(&p, &e, dep).unwrap();
    let faulted = tb.run_with_faults(&specs, quick(), &FaultPlan::empty(), &[]);
    assert_eq!(plain, faulted);
    assert!(faulted.timeline.is_empty());
    assert!(faulted.windows.is_empty());
}

#[test]
fn link_down_triggers_guard_within_a_window() {
    let (p, e, specs) = setup(&[CanonicalChain::Chain3], 1.0);
    let server = e
        .subgroups
        .iter()
        .find(|sg| sg.chain == 0)
        .map(|sg| sg.server)
        .unwrap();
    let dep = lemur_metacompiler::compile(&p, &e).unwrap();
    let mut tb = Testbed::build(&p, &e, dep).unwrap();
    let config = quick(); // warmup 1 ms, duration 4 ms, window 1 ms
    let fault_ns = 2_000_000;
    let plan = FaultPlan::empty().with(fault_ns, FaultKind::LinkDown { server });
    let slos: Vec<Option<Slo>> = p.chains.iter().map(|c| c.slo).collect();
    let report = tb.run_with_faults(&specs, config, &plan, &slos);

    // The fault landed on the timeline.
    assert!(report
        .timeline
        .iter()
        .any(|ev| matches!(ev, TimelineEvent::Fault { .. })));
    // Fault-reason drops were recorded, and distinguished from others.
    assert!(
        report.per_chain[0].drops_fault > 0,
        "{:?}",
        report.per_chain[0]
    );
    // The guard flagged the starved chain no later than two windows
    // after injection (one full window must elapse below t_min).
    let detected = report
        .first_violation_ns(0)
        .expect("no SLO violation detected");
    assert!(
        detected >= fault_ns && detected <= fault_ns + 2 * config.window_ns,
        "detected at {detected} for fault at {fault_ns}"
    );
}

#[test]
fn link_flap_recovers_goodput() {
    let (p, e, specs) = setup(&[CanonicalChain::Chain3], 1.0);
    let server = e
        .subgroups
        .iter()
        .find(|sg| sg.chain == 0)
        .map(|sg| sg.server)
        .unwrap();
    let dep = lemur_metacompiler::compile(&p, &e).unwrap();
    let mut tb = Testbed::build(&p, &e, dep).unwrap();
    // Down for 1 ms mid-run, then back.
    let plan = FaultPlan::empty().link_flap(server, 2_000_000, 3_000_000);
    let slos: Vec<Option<Slo>> = p.chains.iter().map(|c| c.slo).collect();
    let report = tb.run_with_faults(&specs, quick(), &plan, &slos);
    // Traffic resumed after the flap: the last window delivers again.
    let last = report
        .windows
        .iter()
        .rfind(|w| w.chain == 0)
        .expect("guard produced windows");
    assert!(
        last.delivered_packets > 0,
        "no recovery after link came back: {last:?}"
    );
    assert!(report.per_chain[0].drops_fault > 0);
}

#[test]
fn traffic_surge_raises_arrivals() {
    let (p, e, specs) = setup(&[CanonicalChain::Chain5], 0.5);
    let run_with = |plan: &FaultPlan| {
        let dep = lemur_metacompiler::compile(&p, &e).unwrap();
        let mut tb = Testbed::build(&p, &e, dep).unwrap();
        let r = tb.run_with_faults(&specs, quick(), plan, &[]);
        r.per_chain[0].delivered_packets + r.per_chain[0].dropped_packets
    };
    let baseline = run_with(&FaultPlan::empty());
    let surged = run_with(&FaultPlan::empty().with(
        1_000_000,
        FaultKind::TrafficSurge {
            chain: 0,
            factor: 3.0,
        },
    ));
    assert!(
        surged > baseline + baseline / 2,
        "surge did not raise arrivals: {surged} vs {baseline}"
    );
}

#[test]
fn profile_drift_slows_service() {
    let (p, e, specs) = setup(&[CanonicalChain::Chain5], 0.5);
    let mean_latency = |plan: &FaultPlan| {
        let dep = lemur_metacompiler::compile(&p, &e).unwrap();
        let mut tb = Testbed::build(&p, &e, dep).unwrap();
        tb.run_with_faults(&specs, quick(), plan, &[]).per_chain[0].mean_latency_ns
    };
    let healthy = mean_latency(&FaultPlan::empty());
    // Inflate every subgroup's cycle cost 4× right at start.
    let mut plan = FaultPlan::empty();
    for sg in 0..e.subgroups.len() {
        plan = plan.with(
            0,
            FaultKind::ProfileDrift {
                subgroup: sg,
                factor: 4.0,
            },
        );
    }
    let drifted = mean_latency(&plan);
    assert!(
        drifted > healthy,
        "drift did not slow the chain: {drifted} vs {healthy}"
    );
}

#[test]
fn faulted_runs_are_deterministic() {
    let (p, e, specs) = setup(&[CanonicalChain::Chain3], 1.0);
    let server = e
        .subgroups
        .iter()
        .find(|sg| sg.chain == 0)
        .map(|sg| sg.server)
        .unwrap();
    let slos: Vec<Option<Slo>> = p.chains.iter().map(|c| c.slo).collect();
    let run = || {
        let dep = lemur_metacompiler::compile(&p, &e).unwrap();
        let mut tb = Testbed::build(&p, &e, dep).unwrap();
        let plan = FaultPlan::empty()
            .link_flap(server, 1_500_000, 2_500_000)
            .with(
                3_000_000,
                FaultKind::TrafficSurge {
                    chain: 0,
                    factor: 1.5,
                },
            );
        tb.run_with_faults(&specs, quick(), &plan, &slos)
    };
    assert_eq!(run(), run());
}

#[test]
fn latency_includes_bounces() {
    let (p, e, mut specs) = setup(&[CanonicalChain::Chain3], 0.5);
    // Light load: latency should reflect compute + bounces, not queues.
    for s in specs.iter_mut() {
        s.offered_bps = e.chain_rates_bps[0] * 0.4;
    }
    let dep = lemur_metacompiler::compile(&p, &e).unwrap();
    let mut tb = Testbed::build(&p, &e, dep).unwrap();
    let report = tb.run(&specs, quick());
    // Chain 3 HW-preferred bounces twice: latency must exceed the pure
    // compute floor (Dedup ~18µs + Limiter) plus several link hops.
    let lat = report.per_chain[0].mean_latency_ns;
    assert!(lat > 15_000.0, "latency {lat}ns implausibly low");
    assert!(lat < 3_000_000.0, "latency {lat}ns implausibly high");
}

/// A one-chain hybrid scenario run after `edit` has bent its inputs.
fn scenario_run(
    edit: impl FnOnce(&mut Scenario, &mut Vec<TrafficSpec>, &mut Vec<Option<Slo>>),
) -> Result<SimReport, ScenarioError> {
    let (p, e, mut specs) = setup(&[CanonicalChain::Chain3], 0.5);
    let dep = lemur_metacompiler::compile(&p, &e).unwrap();
    let mut tb = Testbed::build(&p, &e, dep).unwrap();
    let config = quick();
    let flow = |chain| FlowRecord {
        chain,
        flow_id: 0,
        start_ns: 1_500_000,
        interval_ns: 10_000,
        packets: 10,
        size_packets: 10,
        ddos: false,
    };
    let mut scenario = Scenario {
        horizon_ns: config.horizon_ns(),
        n_chains: 1,
        flows: vec![flow(0)],
    };
    let mut slos = vec![p.chains[0].slo];
    edit(&mut scenario, &mut specs, &mut slos);
    let mode = HybridMode::Hybrid(HybridConfig::default());
    let plan = FaultPlan::empty();
    tb.run_scenario_supervised(
        &scenario,
        &specs,
        config,
        &plan,
        &slos,
        &mode,
        &mut NoopHook,
    )
}

fn mismatch(what: &'static str, expected: u64, got: u64) -> Result<SimReport, ScenarioError> {
    Err(ScenarioError::Mismatch {
        what,
        expected,
        got,
    })
}

#[test]
fn scenario_run_with_fitting_inputs_is_ok() {
    let report = scenario_run(|_, _, _| {}).unwrap();
    assert_eq!(report.ledger.injected, 10);
    assert!(report.ledger.balanced(), "{:?}", report.ledger);
}

#[test]
fn scenario_chain_count_mismatch_is_an_error() {
    let got = scenario_run(|s, _, _| s.n_chains = 2);
    assert_eq!(got, mismatch("scenario chain count", 1, 2));
}

#[test]
fn traffic_spec_count_mismatch_is_an_error() {
    let got = scenario_run(|_, specs, _| specs.push(specs[0].clone()));
    assert_eq!(got, mismatch("traffic spec count", 1, 2));
}

#[test]
fn scenario_horizon_mismatch_is_an_error() {
    let got = scenario_run(|s, _, _| s.horizon_ns += 1);
    assert_eq!(got, mismatch("scenario horizon (ns)", 5_000_000, 5_000_001));
}

#[test]
fn flow_on_a_missing_chain_is_an_error() {
    let got = scenario_run(|s, _, _| {
        s.flows.push(FlowRecord {
            chain: 3,
            ..s.flows[0]
        })
    });
    assert_eq!(got, mismatch("flow chain index (must be below)", 1, 3));
}

#[test]
fn slo_count_mismatch_is_an_error() {
    let got = scenario_run(|_, _, slos| slos.push(None));
    assert_eq!(got, mismatch("SLO count", 1, 2));
}
