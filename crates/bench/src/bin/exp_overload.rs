//! Overload soak: drive the hybrid dataplane through a DDoS + flash-crowd
//! storm under the surge-aware supervisor and hold the whole stack to the
//! graceful-degradation contract, per seed:
//!
//! 1. **Exact conservation, admission engaged** — the ledger balances as
//!    integers and rung 1 actually denied junk tail mass
//!    (`drops_admission > 0`).
//! 2. **No repair churn under pure surge** — every violated window is
//!    classified overload, so `repair_attempts == 0` while
//!    `suppressed_replans > 0`: the supervisor never replans against a
//!    load anomaly it cannot fix.
//! 3. **Priority order holds** — the top-priority chain is never shed by
//!    rung 2 and clears its `t_min` in the final guard window.
//! 4. **Full unwind** — once the storm passes, the ladder steps all the
//!    way back down: every chain re-admitted, admission denial cleared,
//!    no residual scale-out, supervisor settled, decision log consistent.
//!
//! The storm puts the DDoS junk surge on the *high*-priority chain (its
//! junk is denied, the chain itself is untouchable) and the flash crowd
//! on the *low*-priority chain (which rung 2 may shed and must later
//! restore). Per-chain tail capacity and a small fluid-queue buffer make
//! the surge visible as backlog latency and `QueueOverflow` drops, which
//! is what the detector and the SLO guard key off.
//!
//! Results land in `target/experiments/BENCH_overload.json`. Exit is
//! non-zero if any invariant fails on any seed.
//!
//! Usage: `exp_overload [--quick]`

use lemur_bench::table::{cell, json_row, Table};
use lemur_bench::{build_problem, compiler_oracle, write_json};
use lemur_control::surge::{SurgeConfig, SurgeDetector};
use lemur_control::{Supervisor, SupervisorConfig, SupervisorEvent};
use lemur_core::chains::CanonicalChain;
use lemur_core::Slo;
use lemur_dataplane::{
    validate_scenario, ChainLoad, FlowSizeDist, HybridConfig, HybridMode, ScenarioSpec, SimConfig,
    Surge, SurgeKind, Testbed, TrafficTolerance,
};
use lemur_placer::topology::Topology;

/// Heavy-hitter threshold: above every drawn flow size, so the whole
/// storm rides the analytic tail. The latency the guard sees is then
/// exactly the fluid queue's Little's-law waiting time — the signal the
/// overload machinery is built around — with no packet-path queueing
/// noise underneath it. (Heavy/tail interplay is `exp_scale`'s subject;
/// a single materialized heavy hitter saturates a chain's real stations
/// and would violate the latency SLO storm or no storm.)
const THETA: u64 = 1 << 32;
/// Fluid-queue bound (packets) per chain: small enough that a surge
/// overflows within a couple of windows.
const QUEUE_BUFFER: u64 = 256;
/// Latency SLO: calm windows sit at zero added waiting, a part-full
/// backlog's Little's-law waiting time sits far above the bound.
const D_MAX_NS: f64 = 100_000.0;
const WINDOW_NS: u64 = 1_000_000;
const SEEDS: [u64; 5] = [11, 23, 37, 41, 53];
const N_SERVERS: usize = 4;

fn flows_per_chain(quick: bool) -> usize {
    if quick {
        6_000
    } else {
        36_000
    }
}

fn sim_config(seed: u64, quick: bool) -> SimConfig {
    SimConfig {
        // Full depth scales the horizon with the flow count so the
        // realized *rate* (and hence the placement problem) stays the
        // same — more flows buy longer storms and more guard windows,
        // not a hotter rack.
        duration_s: if quick { 0.055 } else { 0.33 },
        warmup_s: 0.005,
        seed,
        window_ns: WINDOW_NS,
        ..SimConfig::default()
    }
}

fn horizon_ns(c: &SimConfig) -> u64 {
    ((c.warmup_s + c.duration_s) * 1e9) as u64
}

/// Chain 0 (top priority) takes the DDoS junk surge; chain 1 (shed
/// first) takes the flash crowd. Both storms end by ~37% of the horizon
/// so the back half is calm enough for a full unwind.
fn storm_load(flows: usize, horizon_ns: u64, chain: usize) -> ChainLoad {
    let surge = if chain == 0 {
        // Junk flows are minimum-size, so their *packet* mass per unit
        // intensity is min/mean of the size distribution; a factor of 6
        // puts the junk slice alone past the chain's tail capacity.
        Surge {
            kind: SurgeKind::Ddos,
            start_ns: horizon_ns / 6,
            duration_ns: horizon_ns / 5,
            factor: 6.0,
        }
    } else {
        Surge {
            kind: SurgeKind::FlashCrowd,
            start_ns: horizon_ns / 6,
            duration_ns: horizon_ns / 6,
            factor: 3.0,
        }
    };
    ChainLoad {
        flows,
        // Short flows (a max-size flow drains within one guard window):
        // the validator's intensity model assumes flow durations small
        // against the modulation, and short flows keep its window
        // statistics tight.
        flow_rate_pps: 300_000.0 + 100_000.0 * chain as f64,
        size: FlowSizeDist {
            alpha: 1.3,
            min_packets: 1,
            max_packets: 256,
        },
        diurnal: None,
        surges: vec![surge],
    }
}

fn storm_spec(seed: u64, horizon_ns: u64, quick: bool, n_chains: usize) -> ScenarioSpec {
    ScenarioSpec {
        seed,
        horizon_ns,
        chains: (0..n_chains)
            .map(|ci| storm_load(flows_per_chain(quick), horizon_ns, ci))
            .collect(),
    }
}

struct OverloadRow {
    seed: u64,
    flows_total: usize,
    junk_flows: usize,
    drops_admission: u64,
    drops_queue: u64,
    drops_shed: u64,
    max_rung: u8,
    suppressed_replans: u64,
    repair_attempts: u64,
    final_state: String,
    conservation_ok: bool,
    surge_suppression_ok: bool,
    priority_held: bool,
    fully_unwound: bool,
}

impl OverloadRow {
    fn ok(&self) -> bool {
        self.conservation_ok
            && self.surge_suppression_ok
            && self.priority_held
            && self.fully_unwound
    }
}

impl serde::Serialize for OverloadRow {
    fn to_value(&self) -> serde::Value {
        json_row(vec![
            ("seed", self.seed.to_value()),
            ("flows_total", self.flows_total.to_value()),
            ("junk_flows", self.junk_flows.to_value()),
            ("drops_admission", self.drops_admission.to_value()),
            ("drops_queue", self.drops_queue.to_value()),
            ("drops_shed", self.drops_shed.to_value()),
            ("max_rung", self.max_rung.to_value()),
            ("suppressed_replans", self.suppressed_replans.to_value()),
            ("repair_attempts", self.repair_attempts.to_value()),
            ("final_state", self.final_state.to_value()),
            ("conservation_ok", self.conservation_ok.to_value()),
            ("surge_suppression_ok", self.surge_suppression_ok.to_value()),
            ("priority_held", self.priority_held.to_value()),
            ("fully_unwound", self.fully_unwound.to_value()),
        ])
    }
}

struct Artifact {
    quick: bool,
    theta: u64,
    queue_buffer_packets: u64,
    d_max_ns: f64,
    seeds: Vec<OverloadRow>,
}

impl serde::Serialize for Artifact {
    fn to_value(&self) -> serde::Value {
        json_row(vec![
            ("quick", self.quick.to_value()),
            ("theta", self.theta.to_value()),
            ("queue_buffer_packets", self.queue_buffer_packets.to_value()),
            ("d_max_ns", self.d_max_ns.to_value()),
            ("seeds", self.seeds.to_value()),
        ])
    }
}

fn run_seed(seed: u64, quick: bool, failures: &mut Vec<String>) -> OverloadRow {
    let oracle = compiler_oracle();
    let (mut problem, specs) = build_problem(
        &[CanonicalChain::Chain3, CanonicalChain::Chain2],
        0.3,
        Topology::with_servers(N_SERVERS),
    );
    let n_chains = problem.chains.len();

    let config = sim_config(seed, quick);
    let horizon = horizon_ns(&config);
    let spec = storm_spec(seed, horizon, quick, n_chains);
    let scenario = spec.materialize();
    // The observed burst factor is the max over O(100) windows, so it
    // sits above the declared intensity peak by an extreme-value margin
    // that grows with the horizon; give it headroom while keeping the
    // rate, CV, and tail-index checks at their defaults.
    let tol = TrafficTolerance {
        burst_rel: 0.8,
        ..TrafficTolerance::default()
    };
    if let Err(e) = validate_scenario(&spec, &scenario, WINDOW_NS, &tol) {
        failures.push(format!("seed {seed}: traffic validator rejected: {e}"));
    }
    let junk_flows = scenario.flows.iter().filter(|f| f.ddos).count();

    // Size the SLOs and the tail capacity from the *realized* legitimate
    // load: t_min well below the calm delivery rate, capacity between the
    // calm rate and the surge peak so backlog builds only under storm.
    let horizon_s = horizon as f64 / 1e9;
    let legit_bps: Vec<f64> = (0..n_chains)
        .map(|ci| {
            let frame_bits = (specs[ci].payload_len + 42) as f64 * 8.0;
            scenario
                .flows
                .iter()
                .filter(|f| f.chain == ci && !f.ddos)
                .map(|f| f.packets)
                .sum::<u64>() as f64
                * frame_bits
                / horizon_s
        })
        .collect();
    for (i, (chain, &legit)) in problem.chains.iter_mut().zip(&legit_bps).enumerate() {
        // Descending shedding priority by index: chain 0 survives longest.
        chain.slo = Some(
            Slo::elastic_pipe(0.3 * legit, 100e9)
                .with_latency_ns(D_MAX_NS)
                .with_priority((n_chains - i) as u8),
        );
    }

    let placement =
        lemur_placer::heuristic::place(&problem, &oracle).expect("healthy rack placement");
    let deployment = lemur_metacompiler::compile(&problem, &placement).expect("meta-compilation");

    let mut sup = Supervisor::new(
        &problem,
        &placement,
        &deployment,
        &oracle,
        SupervisorConfig {
            seed,
            ladder_patience: 2,
            unwind_patience: 2,
            ..SupervisorConfig::default()
        },
    )
    .with_surge_detector(SurgeDetector::for_scenario(
        &scenario,
        SurgeConfig::default(),
    ));

    let mut testbed = Testbed::build(&problem, &placement, deployment).expect("testbed");
    let slos: Vec<Option<Slo>> = problem.chains.iter().map(|c| c.slo).collect();
    let mode = HybridMode::Hybrid(HybridConfig {
        heavy_min_packets: THETA,
        capacity_bps: legit_bps.iter().map(|&r| 2.0 * r).collect(),
        queue_buffer_packets: QUEUE_BUFFER,
    });
    let report = testbed
        .run_scenario_supervised(
            &scenario,
            &specs,
            config,
            &lemur_dataplane::FaultPlan::empty(),
            &slos,
            &mode,
            &mut sup,
        )
        .expect("valid hybrid config");

    let ledger = report.ledger;
    let max_rung = sup
        .events()
        .iter()
        .filter_map(|e| match e {
            SupervisorEvent::LadderEscalated { rung, .. } => Some(*rung),
            _ => None,
        })
        .max()
        .unwrap_or(0);

    // Invariant 1: exact conservation with rung 1 actually engaged.
    let conservation_ok = ledger.balanced() && ledger.drops_admission > 0;
    if !ledger.balanced() {
        failures.push(format!(
            "seed {seed}: conservation ledger unbalanced: {ledger:?}"
        ));
    }
    if ledger.drops_admission == 0 {
        failures.push(format!(
            "seed {seed}: admission control never denied junk (max rung {max_rung})"
        ));
    }

    // Invariant 2: the storm is pure surge — classified overload, never
    // repaired against.
    let surge_suppression_ok = sup.repair_attempts() == 0 && sup.suppressed_replans() > 0;
    if sup.repair_attempts() != 0 {
        failures.push(format!(
            "seed {seed}: {} replan(s) charged under pure surge",
            sup.repair_attempts()
        ));
    }
    if sup.suppressed_replans() == 0 {
        failures.push(format!(
            "seed {seed}: no suppressed replans — the detector never classified overload"
        ));
    }

    // Invariant 3: the top-priority chain (0) is never shed and clears
    // its t_min in the final guard window.
    let top_shed = sup.events().iter().any(|e| {
        matches!(
            e,
            SupervisorEvent::LadderEscalated {
                rung: 2,
                chain: Some(0),
                ..
            }
        )
    });
    let top_tmin = problem.chains[0].slo.map_or(0.0, |s| s.t_min_bps);
    let top_final_ok = report
        .windows
        .iter()
        .rev()
        .find(|w| w.chain == 0)
        .is_some_and(|w| w.delivered_bps >= top_tmin * 0.95);
    let priority_held = !top_shed && sup.admitted()[0] && top_final_ok;
    if top_shed {
        failures.push(format!("seed {seed}: rung 2 shed the top-priority chain"));
    }
    if !sup.admitted()[0] {
        failures.push(format!(
            "seed {seed}: top-priority chain not admitted at the end"
        ));
    }
    if !top_final_ok {
        failures.push(format!(
            "seed {seed}: top-priority chain below t_min in the final window"
        ));
    }

    // Invariant 4: the ladder unwound completely and the run settled.
    let fully_unwound = !sup.ladder_engaged()
        && sup.admitted().iter().all(|&a| a)
        && sup.is_settled()
        && sup.wal().is_consistent();
    if !fully_unwound {
        failures.push(format!(
            "seed {seed}: residual ladder state at the horizon: engaged={} admitted={:?} state={:?} wal_consistent={}",
            sup.ladder_engaged(),
            sup.admitted(),
            sup.state(),
            sup.wal().is_consistent()
        ));
    }

    OverloadRow {
        seed,
        flows_total: scenario.flows.len(),
        junk_flows,
        drops_admission: ledger.drops_admission,
        drops_queue: ledger.drops_queue,
        drops_shed: ledger.drops_shed,
        max_rung,
        suppressed_replans: sup.suppressed_replans(),
        repair_attempts: sup.repair_attempts(),
        final_state: format!("{:?}", sup.state()),
        conservation_ok,
        surge_suppression_ok,
        priority_held,
        fully_unwound,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");

    println!(
        "=== Overload soak (DDoS on top-priority chain, flash crowd on low, θ = {THETA}) ===\n"
    );
    let table = Table::new()
        .right("seed", 5)
        .right("flows", 7)
        .right("junk", 7)
        .right("adm-drop", 9)
        .right("q-drop", 8)
        .right("shed", 8)
        .right("rung", 5)
        .right("suppr", 6)
        .right("repair", 7)
        .left("final", 17)
        .right("ok", 4);
    table.print_header();

    let mut failures = Vec::new();
    let mut rows = Vec::new();
    for seed in SEEDS {
        let row = run_seed(seed, quick, &mut failures);
        table.print_row(&[
            cell(row.seed),
            cell(row.flows_total),
            cell(row.junk_flows),
            cell(row.drops_admission),
            cell(row.drops_queue),
            cell(row.drops_shed),
            cell(row.max_rung),
            cell(row.suppressed_replans),
            cell(row.repair_attempts),
            cell(row.final_state.clone()),
            cell(if row.ok() { "ok" } else { "FAIL" }),
        ]);
        rows.push(row);
    }

    let artifact = Artifact {
        quick,
        theta: THETA,
        queue_buffer_packets: QUEUE_BUFFER,
        d_max_ns: D_MAX_NS,
        seeds: rows,
    };
    write_json("BENCH_overload", &artifact);

    if failures.is_empty() {
        let escalated = artifact.seeds.iter().map(|r| r.max_rung).max().unwrap_or(0);
        let denied: u64 = artifact.seeds.iter().map(|r| r.drops_admission).sum();
        println!(
            "\nPASS: {} seeds — ladder climbed to rung {escalated}, {denied} junk packets denied, \
             zero replans under surge, every ladder fully unwound.",
            artifact.seeds.len(),
        );
    } else {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storm_specs_validate() {
        for quick in [false, true] {
            for seed in SEEDS {
                let spec = storm_spec(seed, horizon_ns(&sim_config(seed, quick)), quick, 2);
                assert_eq!(spec.validate(), Ok(()), "seed {seed}, quick = {quick}");
            }
        }
    }
}
