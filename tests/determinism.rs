//! Determinism properties of the fault-injected dataplane.
//!
//! Two guarantees the fault subsystem must never lose:
//!
//! 1. A `(SimConfig seed, FaultPlan)` pair fully determines the run — two
//!    executions produce bit-identical `SimReport`s (stats, timeline, and
//!    window samples included).
//! 2. An *empty* `FaultPlan` is not merely "no faults fired" but a no-op:
//!    the report equals a plain `Testbed::run` byte for byte, so fault
//!    support cannot perturb the pre-existing experiments.

use lemur::core::chains::{canonical_chain, CanonicalChain};
use lemur::core::graph::ChainSpec;
use lemur::core::Slo;
use lemur::dataplane::{FaultKind, FaultPlan, SimConfig, SimReport, Testbed, TrafficSpec};
use lemur::placer::oracle::AlwaysFits;
use lemur::placer::placement::PlacementProblem;
use lemur::placer::profiles::NfProfiles;
use lemur::placer::topology::Topology;
use proptest::prelude::*;

const DURATION_S: f64 = 0.003;

/// Full pipeline for one Chain3 tenant; `plan: None` uses the plain
/// `run()` entry point, `Some(plan)` goes through `run_with_faults` (with
/// the SLO guard armed iff `guard`).
fn run_once(seed: u64, plan: Option<&FaultPlan>, guard: bool) -> SimReport {
    let spec = TrafficSpec::for_chain(1, 1e9).expect("chain index in range");
    let agg = spec.aggregate();
    let chains = vec![ChainSpec {
        name: "chain3".to_string(),
        graph: canonical_chain(CanonicalChain::Chain3),
        slo: None,
        aggregate: Some(agg),
    }];
    let mut problem = PlacementProblem::new(chains, Topology::testbed(), NfProfiles::table4());
    let base = problem.base_rate_bps(0);
    problem.chains[0].slo = Some(Slo::elastic_pipe(0.5 * base, 100e9));
    let placement = lemur::placer::heuristic::place(&problem, &AlwaysFits).unwrap();
    let deployment = lemur::metacompiler::compile(&problem, &placement).unwrap();
    let mut testbed = Testbed::build(&problem, &placement, deployment).unwrap();
    let mut offered = vec![spec];
    offered[0].offered_bps = placement.chain_rates_bps[0] * 1.1;
    let config = SimConfig {
        duration_s: DURATION_S,
        warmup_s: DURATION_S / 5.0,
        seed,
        ..SimConfig::default()
    };
    match plan {
        None => testbed.run(&offered, config),
        Some(plan) => {
            let slos: Vec<Option<Slo>> = if guard {
                problem.chains.iter().map(|c| c.slo).collect()
            } else {
                Vec::new()
            };
            testbed.run_with_faults(&offered, config, plan, &slos)
        }
    }
}

proptest! {
    #![cases = 3]

    /// Same seed + same plan ⇒ bit-identical reports, faults and all.
    #[test]
    fn faulted_runs_bit_identical(
        seed in 0u64..1_000_000,
        down_at in 1_000_000u64..1_800_000,
        flap_ns in 100_000u64..600_000,
        surge in 1.1f64..3.0,
    ) {
        let plan = FaultPlan::empty()
            .link_flap(0, down_at, down_at + flap_ns)
            .with(900_000, FaultKind::TrafficSurge { chain: 0, factor: surge });
        let a = run_once(seed, Some(&plan), true);
        let b = run_once(seed, Some(&plan), true);
        prop_assert!(!a.timeline.is_empty(), "plan should land in the timeline");
        prop_assert_eq!(a, b);
    }

    /// An empty plan reproduces the plain `run()` report exactly.
    #[test]
    fn empty_plan_reproduces_plain_run(seed in 0u64..1_000_000) {
        let with_empty = run_once(seed, Some(&FaultPlan::empty()), false);
        let plain = run_once(seed, None, false);
        prop_assert!(with_empty.timeline.is_empty());
        prop_assert!(with_empty.windows.is_empty());
        prop_assert_eq!(with_empty, plain);
    }
}

// ---------------------------------------------------------------------------
// Pinned report digests.
//
// The engine's hot-loop data structures (event queue, in-flight packet
// table, per-server routing tables, flow frame builder) may be replaced,
// but no replacement may move a single bit of a `SimReport`. The three
// digests below were recorded from the build *before* PR 15 touched
// `engine.rs`; each run asserts first that it exercises what it is there
// for, so a digest can't keep passing on a run that went vacuous.

mod pinned {
    use super::*;
    use lemur::control::{Supervisor, SupervisorConfig};
    use lemur::core::Slo;
    use lemur::dataplane::{
        ChainLoad, FlowSizeDist, HybridConfig, HybridMode, NoopHook, Scenario, ScenarioSpec,
    };
    use lemur::placer::corealloc::CoreStrategy;
    use lemur::placer::placement::EvaluatedPlacement;

    /// FNV-1a over the report's `Debug` text (f64s print shortest
    /// round-trip, so equal text ⇔ equal bits up to the sign of zero).
    fn digest(report: &SimReport) -> u64 {
        format!("{report:?}")
            .bytes()
            .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            })
    }

    fn problem(
        which: &[CanonicalChain],
        topology: Topology,
        delta: f64,
    ) -> (PlacementProblem, Vec<TrafficSpec>) {
        let mut specs = Vec::new();
        let chains = which
            .iter()
            .enumerate()
            .map(|(i, w)| {
                let spec = TrafficSpec::for_chain(i + 1, 1e9).expect("chain index in range");
                let aggregate = Some(spec.aggregate());
                specs.push(spec);
                ChainSpec {
                    name: format!("chain{}", w.index()),
                    graph: canonical_chain(*w),
                    slo: None,
                    aggregate,
                }
            })
            .collect();
        let mut p = PlacementProblem::new(chains, topology, NfProfiles::table4());
        for i in 0..p.chains.len() {
            let base = p.base_rate_bps(i);
            p.chains[i].slo =
                Some(Slo::elastic_pipe(delta * base, 100e9).with_priority((which.len() - i) as u8));
        }
        (p, specs)
    }

    fn testbed(p: &PlacementProblem, e: &EvaluatedPlacement) -> Testbed {
        let deployment = lemur::metacompiler::compile(p, e).unwrap();
        Testbed::build(p, e, deployment).unwrap()
    }

    /// Set a (chains 1–4) at 64-byte frames, predicted packet rate, guard
    /// armed: every hop kind but NIC and EpochSwap, short event queue.
    #[test]
    fn set_a_64b_guarded_report_is_pinned() {
        let (p, mut specs) = problem(&CanonicalChain::ALL[..4], Topology::testbed(), 0.5);
        let e = lemur::placer::heuristic::place(&p, &AlwaysFits).unwrap();
        let scale = 64.0 / 1500.0;
        for (i, s) in specs.iter_mut().enumerate() {
            s.payload_len = 64 - 42;
            s.offered_bps = e.chain_rates_bps[i] * scale;
        }
        let slos: Vec<Option<Slo>> = p
            .chains
            .iter()
            .map(|c| {
                c.slo.map(|s| Slo {
                    t_min_bps: s.t_min_bps * scale,
                    ..s
                })
            })
            .collect();
        let config = SimConfig {
            duration_s: 0.0009,
            warmup_s: 0.0001,
            seed: 5,
            window_ns: 100_000,
            ..SimConfig::default()
        };
        let report = testbed(&p, &e).run_with_faults(&specs, config, &FaultPlan::empty(), &slos);
        assert!(report.ledger.balanced(), "{:?}", report.ledger);
        assert!(report.ledger.delivered > 1_000, "{:?}", report.ledger);
        assert_eq!(report.windows.len(), 9 * 4);
        assert_eq!(digest(&report), 928744469612855629, "{:?}", report.ledger);
    }

    /// Hybrid engine at θ = 512 with enough concurrent heavy flows to
    /// overflow the ToR→server link: a deep event queue, most materialized
    /// packets dropped at the ToR, tail cells applied at window closes.
    #[test]
    fn hybrid_theta_512_overflowing_link_report_is_pinned() {
        let (p, specs) = problem(
            &[CanonicalChain::Chain3, CanonicalChain::Chain5],
            Topology::testbed(),
            0.3,
        );
        let a = lemur::placer::baselines::hw_preferred_assignment(&p);
        let e = p.evaluate(&a, CoreStrategy::WaterFill).unwrap();
        let config = SimConfig {
            duration_s: 0.002,
            warmup_s: 0.0005,
            seed: 3,
            window_ns: 500_000,
            ..SimConfig::default()
        };
        let horizon_ns = ((config.warmup_s + config.duration_s) * 1e9) as u64;
        let scenario: Scenario = ScenarioSpec {
            seed: 9,
            horizon_ns,
            chains: (0..2)
                .map(|ci| ChainLoad {
                    flows: 3_000,
                    flow_rate_pps: 400_000.0 + 100_000.0 * ci as f64,
                    size: FlowSizeDist {
                        alpha: 1.1,
                        min_packets: 1,
                        max_packets: 2_048,
                    },
                    diurnal: None,
                    surges: vec![],
                })
                .collect(),
        }
        .materialize();
        let slos: Vec<Option<Slo>> = p.chains.iter().map(|c| c.slo).collect();
        let mode = HybridMode::Hybrid(HybridConfig {
            heavy_min_packets: 512,
            ..HybridConfig::default()
        });
        let report = testbed(&p, &e)
            .run_scenario_supervised(
                &scenario,
                &specs,
                config,
                &FaultPlan::empty(),
                &slos,
                &mode,
                &mut NoopHook,
            )
            .unwrap();
        assert!(report.ledger.balanced(), "{:?}", report.ledger);
        assert!(report.ledger.drops_queue > 0, "{:?}", report.ledger);
        assert!(report.ledger.delivered > 0, "{:?}", report.ledger);
        assert_eq!(digest(&report), 16620581297038614258, "{:?}", report.ledger);
    }

    /// Supervised run that loses a link, repairs and commits a swap with
    /// packets still in flight: their events outlive them (the table's
    /// miss path) and they are charged to the swap in sorted id order.
    #[test]
    fn supervised_swap_report_is_pinned() {
        let (p, mut specs) = problem(
            &[CanonicalChain::Chain3, CanonicalChain::Chain2],
            Topology::with_servers(3),
            0.3,
        );
        let e = lemur::placer::heuristic::place(&p, &AlwaysFits).unwrap();
        let deployment = lemur::metacompiler::compile(&p, &e).unwrap();
        for (i, s) in specs.iter_mut().enumerate() {
            s.offered_bps = (e.chain_rates_bps[i] * 1.1).max(1e8);
        }
        let slos: Vec<Option<Slo>> = p.chains.iter().map(|c| c.slo).collect();
        let mut supervisor = Supervisor::new(
            &p,
            &e,
            &deployment,
            &AlwaysFits,
            SupervisorConfig::default(),
        );
        let plan = FaultPlan::empty().with(
            3_000_000,
            FaultKind::LinkDown {
                server: e.subgroups[0].server,
            },
        );
        let config = SimConfig {
            duration_s: 0.012,
            warmup_s: 0.002,
            seed: 11,
            window_ns: 1_000_000,
            ..SimConfig::default()
        };
        let mut testbed = Testbed::build(&p, &e, deployment).unwrap();
        let report = testbed.run_supervised(&specs, config, &plan, &slos, &mut supervisor);
        assert!(report.ledger.balanced(), "{:?}", report.ledger);
        assert!(report.commits() >= 1, "no swap committed");
        assert!(
            report.update_time_loss() > 0,
            "swap found nothing in flight"
        );
        assert_eq!(digest(&report), 2073241478725074100, "{:?}", report.ledger);
    }
}
