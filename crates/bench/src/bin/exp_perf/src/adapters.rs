//! Every call this benchmark makes into a product crate, and nothing else.
//!
//! The rest of the benchmark (workload loops, statistics, the replay
//! forwarder's control flow, tracing, reporting) is written against the
//! functions and plain-data structs below. An issue that changes a product
//! API has to keep exactly this file compiling and meaning the same thing;
//! the README lists the product items it touches, section by section.
//!
//! Adapters do one thing and return; callers hold the stopwatch. The two
//! exceptions wrap a product trait and therefore must live here:
//! [`TimingOracle`] and the hook behind [`ChaosRun::run_timed`].

use lemur_bess::demux;
use lemur_control::chaos::{chaos_plan, ChaosConfig};
use lemur_control::{Supervisor, SupervisorConfig, SupervisorEvent};
use lemur_core::chains::{canonical_chain, CanonicalChain};
use lemur_core::graph::ChainSpec;
use lemur_core::Slo;
use lemur_dataplane::traffic::ChainSource;
use lemur_dataplane::{
    validate_scenario, ChainLoad, ControlAction, ControlHook, Diurnal, FaultKind, FaultPlan,
    FlowSizeDist, HybridConfig, HybridMode, MigrationError, NoopHook, Scenario, ScenarioSpec,
    SimConfig, Surge, SurgeKind, Testbed, TimelineEvent, TrafficSpec, TrafficTolerance,
    WindowSample,
};
use lemur_ebpf::{Vm, XdpVerdict};
use lemur_fleet::sim::{FleetSim, FleetSimConfig, FleetSpec};
use lemur_metacompiler::bessgen::ServerPipeline;
use lemur_metacompiler::{CompilerOracle, Deployment};
use lemur_nf::{build_nf, AggregateUpdate, NetworkFunction, NfCtx, NfKind, NfParams, ParamValue};
use lemur_p4sim::Switch;
use lemur_packet::builder::udp_packet;
use lemur_packet::flow::FiveTuple;
use lemur_packet::{ethernet, ipv4};
use lemur_placer::brute::BruteConfig;
use lemur_placer::corealloc::CoreStrategy;
use lemur_placer::oracle::{StageOracle, StageVerdict};
use lemur_placer::placement::{Assignment, EvaluatedPlacement, PlacementProblem, SearchTelemetry};
use lemur_placer::profiles::NfProfiles;
use lemur_placer::topology::{ResourceMask, SmartNicSpec, Tor};
use lemur_placer::{Topology, Workers, PACKET_BITS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

pub use lemur_dataplane::SimReport;
pub use lemur_fleet::FleetReport;
pub use lemur_packet::PacketBuf;

/// The engine's per-packet hop cap and in-server chaining cap, mirrored by
/// the replay forwarder (`engine.rs`: `MAX_HOPS`, `for _chained in 0..16`).
pub const MAX_HOPS: usize = 64;
pub const MAX_CHAINED: usize = 16;

/// Ethernet + IPv4 + UDP header bytes in front of a generated payload.
pub const HEADER_BYTES: usize = 42;

// ------------------------------------------------------------------ problems

/// The Figure 2 chain sets a–e (canonical chain numbers).
pub const FIG2_SETS: [&[usize]; 5] = [
    &[1, 2, 3, 4],
    &[1, 2, 3],
    &[1, 2, 4],
    &[1, 3, 4],
    &[2, 3, 4],
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topo {
    /// The paper's testbed: Tofino ToR + one dual-socket 16-core server.
    Testbed,
    /// `n` single-socket 8-core servers behind the ToR.
    Servers(usize),
    /// One 8-core server with an Agilio SmartNIC (the Figure 3b rack).
    ServerWithNic,
}

fn topology(topo: Topo) -> Topology {
    match topo {
        Topo::Testbed => Topology::testbed(),
        Topo::Servers(n) => Topology::with_servers(n),
        Topo::ServerWithNic => {
            let mut t = Topology::with_servers(1);
            t.smartnics.push(SmartNicSpec::agilio_cx_40g(0));
            t
        }
    }
}

/// The stateless compiler-in-the-loop stage oracle. One shared instance:
/// it holds options only, so "a fresh oracle per pass" and this are the
/// same thing, and a `'static` borrow lets a `Supervisor` be stored.
fn oracle() -> &'static CompilerOracle {
    static ORACLE: OnceLock<CompilerOracle> = OnceLock::new();
    ORACLE.get_or_init(CompilerOracle::new)
}

/// Placement problem for canonical chains `which` at δ (t_min = δ × base
/// rate, t_max = 100 Gbps, §5.1) with matching traffic specs.
fn build_problem(which: &[usize], delta: f64, topo: Topo) -> (PlacementProblem, Vec<TrafficSpec>) {
    let mut specs = Vec::new();
    let chains: Vec<ChainSpec> = which
        .iter()
        .enumerate()
        .map(|(i, &w)| {
            let spec = TrafficSpec::for_chain(i + 1, 1e9).expect("chain index in range");
            let aggregate = Some(spec.aggregate());
            specs.push(spec);
            ChainSpec {
                name: format!("chain{w}"),
                graph: canonical_chain(CanonicalChain::ALL[w - 1]),
                slo: None,
                aggregate,
            }
        })
        .collect();
    let mut p = PlacementProblem::new(chains, topology(topo), NfProfiles::table4());
    for i in 0..p.chains.len() {
        let base = p.base_rate_bps(i);
        p.chains[i].slo = Some(Slo::elastic_pipe(delta * base, 100e9));
    }
    (p, specs)
}

// ---------------------------------------------------------------- sim results

/// What a `SimReport` says the modelled rack delivered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimNumbers {
    pub injected: u64,
    pub delivered: u64,
    pub drops: u64,
    pub balanced: bool,
    pub delivered_gbps: f64,
    /// Packet-weighted mean over chains of the per-chain mean latency.
    pub lat_mean_us: f64,
    pub lat_max_us: f64,
    /// Chain-windows meeting `t_min` (and `d_max` when contracted) ÷ all
    /// chain-windows.
    pub slo_frac: f64,
    pub commits: usize,
    pub migrations: usize,
    pub update_loss_pkts: u64,
}

pub fn sim_numbers(report: &SimReport, slos: &[Option<Slo>]) -> SimNumbers {
    let delivered_pkts: u64 = report.per_chain.iter().map(|c| c.delivered_packets).sum();
    let lat_sum: f64 = report
        .per_chain
        .iter()
        .map(|c| c.mean_latency_ns * c.delivered_packets as f64)
        .sum();
    let meets = |w: &WindowSample| {
        slos[w.chain].is_none_or(|s| {
            w.delivered_bps >= s.t_min_bps && s.d_max_ns.is_none_or(|d| w.mean_latency_ns <= d)
        })
    };
    let met = report.windows.iter().filter(|w| meets(w)).count();
    SimNumbers {
        injected: report.ledger.injected,
        delivered: report.ledger.delivered,
        drops: report.ledger.total_drops(),
        balanced: report.ledger.balanced(),
        delivered_gbps: report.aggregate_bps() / 1e9,
        lat_mean_us: lat_sum / delivered_pkts.max(1) as f64 / 1e3,
        lat_max_us: report
            .per_chain
            .iter()
            .map(|c| c.max_latency_ns)
            .fold(0.0, f64::max)
            / 1e3,
        slo_frac: met as f64 / report.windows.len().max(1) as f64,
        commits: report.commits(),
        migrations: report.migrations().count(),
        update_loss_pkts: report.update_time_loss(),
    }
}

// ----------------------------------------------------------------------- rack

/// Pinned shape of a steady-rate rack run.
#[derive(Debug, Clone, Copy)]
pub struct RackShape {
    pub chains: &'static [usize],
    pub delta: f64,
    pub topo: Topo,
    /// UDP payload bytes (frame = payload + 42).
    pub payload_len: usize,
    /// Offered load as a multiple of each chain's predicted *packet* rate.
    pub load: f64,
    /// Injected packets over warm-up + measurement, all chains together.
    pub packets: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Runtime {
    Fused,
    Reference,
}

/// Everything decided before a rack run except the executable testbed.
pub struct RackPlan {
    problem: PlacementProblem,
    placement: EvaluatedPlacement,
    /// Offered load per chain, frame size applied.
    specs: Vec<TrafficSpec>,
    config: SimConfig,
    /// The chains' SLOs with `t_min` restated at the workload's frame
    /// size (same packet rate), so the guard is meaningful at 64 B.
    pub slos: Vec<Option<Slo>>,
}

impl RackPlan {
    /// Build the problem and place it with the heuristic. The seed drives
    /// payload bytes and service-time draws (`SimConfig::seed`).
    pub fn place(shape: &RackShape, seed: u64) -> RackPlan {
        let (problem, specs) = build_problem(shape.chains, shape.delta, shape.topo);
        let placement =
            lemur_placer::heuristic::place(&problem, oracle()).expect("rack placement feasible");
        RackPlan::with_load(problem, placement, specs, shape, seed)
    }

    fn with_load(
        problem: PlacementProblem,
        placement: EvaluatedPlacement,
        mut specs: Vec<TrafficSpec>,
        shape: &RackShape,
        seed: u64,
    ) -> RackPlan {
        let frame_bits = (shape.payload_len + HEADER_BYTES) as f64 * 8.0;
        let mut total_pps = 0.0;
        for (i, s) in specs.iter_mut().enumerate() {
            let pps = placement.chain_rates_bps[i] / PACKET_BITS * shape.load;
            total_pps += pps;
            s.payload_len = shape.payload_len;
            s.offered_bps = pps * frame_bits;
        }
        let total_s = shape.packets as f64 / total_pps;
        let config = SimConfig {
            duration_s: total_s * 0.9,
            warmup_s: total_s * 0.1,
            seed,
            ..SimConfig::default()
        };
        let scale = frame_bits / PACKET_BITS;
        let slos = problem
            .chains
            .iter()
            .map(|c| {
                c.slo.map(|s| Slo {
                    t_min_bps: s.t_min_bps * scale,
                    ..s
                })
            })
            .collect();
        RackPlan {
            problem,
            placement,
            specs,
            config,
            slos,
        }
    }

    /// The same placement offered a different load / packet budget (the
    /// offered-load sweep).
    pub fn reload(&self, shape: &RackShape, seed: u64) -> RackPlan {
        RackPlan::with_load(
            self.problem.clone(),
            self.placement.clone(),
            self.specs.clone(),
            shape,
            seed,
        )
    }

    pub fn compile(&self, runtime: Runtime) -> Deployment {
        match runtime {
            Runtime::Fused => lemur_metacompiler::compile_fused(&self.problem, &self.placement),
            Runtime::Reference => lemur_metacompiler::compile(&self.problem, &self.placement),
        }
        .expect("meta-compilation of a feasible placement")
    }

    pub fn build(&self, deployment: Deployment) -> Testbed {
        Testbed::build(&self.problem, &self.placement, deployment).expect("testbed build")
    }

    /// The timed call of `rack-64b` / `rack-mtu`.
    pub fn run(&self, testbed: &mut Testbed) -> SimReport {
        testbed.run_with_faults(&self.specs, self.config, &FaultPlan::empty(), &self.slos)
    }

    pub fn n_chains(&self) -> usize {
        self.problem.chains.len()
    }

    pub fn horizon_ns(&self) -> u64 {
        ((self.config.warmup_s + self.config.duration_s) * 1e9) as u64
    }

    /// Frame bytes on the wire at ingress.
    pub fn frame_bytes(&self) -> usize {
        self.specs[0].payload_len + HEADER_BYTES
    }

    /// The server hosting the most subgroups (lowest index on a tie).
    pub fn busiest_server(&self) -> usize {
        let mut load = vec![0usize; self.problem.topology.servers.len()];
        for sg in &self.placement.subgroups {
            load[sg.server] += 1;
        }
        (0..load.len())
            .max_by_key(|&s| (load[s], std::cmp::Reverse(s)))
            .unwrap_or(0)
    }

    /// `(tables, stages used)` of the loaded switch program.
    pub fn switch_shape(&self, deployment: &Deployment) -> (usize, usize) {
        let switch = load_switch(&self.problem, deployment);
        (
            deployment.p4.program.num_tables(),
            switch.assignment().num_stages_used,
        )
    }

    /// `Switch::new` + `install` — the `p4sim.load_ms` layer.
    pub fn load_switch(&self, deployment: &Deployment) {
        std::hint::black_box(load_switch(&self.problem, deployment));
    }
}

fn load_switch(problem: &PlacementProblem, deployment: &Deployment) -> Switch {
    let Tor::Pisa(pisa) = &problem.topology.tor else {
        panic!("benchmark racks use a PISA ToR");
    };
    let mut switch =
        Switch::new(deployment.p4.program.clone(), *pisa).expect("generated P4 program loads");
    deployment.p4.install(&mut switch);
    switch
}

// --------------------------------------------------------------------- replay

/// One chain's packet generator, exactly as `Testbed::run_supervised`
/// seeds it (`config.seed + chain`).
pub struct Source(ChainSource);

impl Source {
    pub fn for_plan(plan: &RackPlan) -> Vec<Source> {
        plan.specs
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Source(ChainSource::new(
                    s.clone(),
                    plan.config.seed.wrapping_add(i as u64),
                ))
            })
            .collect()
    }

    pub fn peek_time(&self) -> u64 {
        self.0.peek_time()
    }

    pub fn next_packet(&mut self) -> (u64, PacketBuf) {
        self.0.next_packet()
    }
}

/// Where a server visit starts: the demux verdict.
#[derive(Debug, Clone, Copy)]
pub struct Steer {
    pub subgroup: usize,
    pub replica: usize,
    pub spi: u32,
    pub si: u8,
}

/// A deployment's artifacts, loaded the way `engine.rs::build_parts`
/// loads them, for the replay forwarder to drive by hand: no virtual
/// time, no queues, no faults — only the public per-packet calls.
pub struct ReplayRack {
    switch: Switch,
    servers: Vec<Option<ServerPipeline>>,
    nics: Vec<Option<lemur_ebpf::Program>>,
}

impl ReplayRack {
    pub fn load(plan: &RackPlan, deployment: Deployment) -> ReplayRack {
        let switch = load_switch(&plan.problem, &deployment);
        let mut servers: Vec<Option<ServerPipeline>> = (0..plan.problem.topology.servers.len())
            .map(|_| None)
            .collect();
        for pipe in deployment.bess {
            let s = pipe.server;
            servers[s] = Some(pipe);
        }
        let mut nics: Vec<Option<lemur_ebpf::Program>> = (0..plan.problem.topology.smartnics.len())
            .map(|_| None)
            .collect();
        for np in deployment.ebpf {
            nics[np.nic] = Some(np.program);
        }
        ReplayRack {
            switch,
            servers,
            nics,
        }
    }

    /// `Switch::process`: the egress port, or `None` for a drop.
    pub fn switch_process(&mut self, pkt: &mut PacketBuf) -> Option<u16> {
        let verdict = self.switch.process(pkt);
        if verdict.dropped {
            None
        } else {
            verdict.egress_port
        }
    }

    pub fn has_server(&self, server: usize) -> bool {
        matches!(self.servers.get(server), Some(Some(_)))
    }

    /// `Demux::steer`: strip the NSH header and pick subgroup + replica.
    pub fn steer(&mut self, server: usize, pkt: &mut PacketBuf) -> Option<Steer> {
        let pipe = self.servers[server].as_mut()?;
        let (subgroup, replica, key) = pipe.demux.steer(pkt)?;
        Some(Steer {
            subgroup,
            replica,
            spi: key.spi,
            si: key.si,
        })
    }

    /// `NfRuntime::process_packet` on the instance serving
    /// `(subgroup, replica)`: the exit gate, or `None` for a drop.
    pub fn segment(
        &mut self,
        server: usize,
        subgroup: usize,
        replica: usize,
        now_ns: u64,
        pkt: &mut PacketBuf,
    ) -> Option<usize> {
        let pipe = self.servers[server].as_mut()?;
        let inst = *pipe.instance_map.get(&(subgroup, replica))?;
        pipe.instances[inst]
            .runtime
            .process_packet(&NfCtx { now_ns }, pkt)
    }

    /// The branch decision after a segment: the (possibly rewritten) SPI
    /// from `mux_rules`, and the next in-server subgroup from
    /// `internal_next` with its replica count, if the packet stays.
    pub fn route(
        &self,
        server: usize,
        subgroup: usize,
        gate: usize,
        spi: u32,
    ) -> (u32, Option<(usize, usize)>) {
        let pipe = self.servers[server]
            .as_ref()
            .expect("routed on a loaded server");
        let spi = pipe
            .mux_rules
            .get(&subgroup)
            .and_then(|rule| rule.gate_spi.get(&(spi, gate)))
            .copied()
            .unwrap_or(spi);
        let next = pipe.internal_next.get(&(subgroup, gate)).map(|&next_sg| {
            let replicas = pipe.replicas.get(&next_sg).copied().unwrap_or(1);
            (next_sg, replicas)
        });
        (spi, next)
    }

    /// `demux::mux`: re-encapsulate for the next on-wire segment.
    pub fn mux(pkt: &mut PacketBuf, spi: u32, si: u8) {
        demux::mux(pkt, spi, si);
    }

    /// `Vm::run` of the NIC's program over the frame: the executed step
    /// count, or `None` unless the verdict is TX.
    pub fn nic_run(&self, nic: usize, pkt: &mut PacketBuf) -> Option<u64> {
        let program = self.nics.get(nic)?.as_ref()?;
        let mut frame = pkt.as_slice().to_vec();
        let result = Vm::run(program, &mut frame).ok()?;
        if result.verdict != XdpVerdict::Tx {
            return None;
        }
        *pkt = PacketBuf::from_bytes(&frame);
        Some(result.steps)
    }
}

/// `FiveTuple::parse` + symmetric hash modulo `n` — the replica choice
/// for an in-server hop, and the `packet.parse_ns` layer.
pub fn flow_hash_mod(frame: &[u8], n: usize) -> usize {
    FiveTuple::parse(frame)
        .map(|t| (t.symmetric_hash() % n as u64) as usize)
        .unwrap_or(0)
}

/// `udp_packet` (headers + checksum) around `payload` — `packet.build_ns`.
pub fn build_udp(flow: u32, payload: &[u8]) -> PacketBuf {
    udp_packet(
        ethernet::Address([2, 0, 0, 0, 0, 0x10]),
        ethernet::Address([2, 0, 0, 0, 0, 0x20]),
        ipv4::Address::from_u32(0x0a00_0100 | ((flow % 254) + 1)),
        ipv4::Address::new(10, 200, (flow % 250) as u8, 1),
        10_000 + (flow as u16 % 40_000),
        80,
        payload,
    )
}

// -------------------------------------------------------------- single layers

/// The 14 NF kinds by canonical name, in Table 3 order.
pub fn nf_kind_names() -> Vec<&'static str> {
    NfKind::ALL.iter().map(|k| k.name()).collect()
}

/// One software NF with the configuration the criterion benches use.
pub struct SingleNf(Box<dyn NetworkFunction>);

impl SingleNf {
    pub fn new(kind_name: &str) -> SingleNf {
        let kind: NfKind = kind_name.parse().expect("canonical NF name");
        let mut params = NfParams::new();
        if kind == NfKind::Acl {
            params.set("num_rules", ParamValue::Int(1024));
        }
        SingleNf(build_nf(kind, &params))
    }

    pub fn process(&mut self, now_ns: u64, pkt: &mut PacketBuf) {
        std::hint::black_box(self.0.process(&NfCtx { now_ns }, pkt));
    }
}

/// A seeded dense LP of the rate LP's size: one variable per chain,
/// one `≤` row per subgroup / link. Feasible and bounded by construction.
pub struct Lp(lemur_lp::Problem);

impl Lp {
    pub fn seeded(seed: u64, vars: usize, rows: usize) -> Lp {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x001b_501e);
        let mut p = lemur_lp::Problem::new();
        let xs: Vec<_> = (0..vars)
            .map(|i| p.add_var(&format!("r{i}"), 0.5, 100.0, 1.0 + rng.gen::<f64>()))
            .collect();
        for _ in 0..rows {
            let terms: Vec<_> = xs.iter().map(|&x| (x, 0.1 + rng.gen::<f64>())).collect();
            p.add_constraint(
                &terms,
                lemur_lp::Relation::Le,
                20.0 * vars as f64 * (1.0 + rng.gen::<f64>()),
            );
        }
        Lp(p)
    }

    pub fn solve(&self) -> f64 {
        self.0.solve().expect("seeded LP is feasible").objective
    }
}

// -------------------------------------------------------------------- placing

/// What a placement search returned, reduced to comparable data.
#[derive(Debug, Clone, PartialEq)]
pub struct Placed {
    pub assignment: Assignment,
    pub chain_rates_bps: Vec<f64>,
    pub marginal_bps: f64,
    pub latency_ns: Vec<f64>,
    pub telemetry: Option<SearchTelemetry>,
}

impl Placed {
    fn of(e: EvaluatedPlacement) -> Placed {
        Placed {
            assignment: e.assignment,
            chain_rates_bps: e.chain_rates_bps,
            marginal_bps: e.marginal_bps,
            latency_ns: e.latency_ns,
            telemetry: e.telemetry,
        }
    }
}

/// A stage oracle that counts and times its calls around the real
/// compiler oracle (`metacompiler.oracle_us`). Searches fan checks out
/// over worker threads, so the counters are atomics; the summed time is
/// CPU time across workers, not wall time.
#[derive(Default)]
pub struct TimingOracle {
    calls: AtomicU64,
    nanos: AtomicU64,
}

impl TimingOracle {
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    pub fn seconds(&self) -> f64 {
        self.nanos.load(Ordering::Relaxed) as f64 / 1e9
    }
}

impl StageOracle for TimingOracle {
    fn check(&self, problem: &PlacementProblem, assignment: &Assignment) -> StageVerdict {
        let t = Instant::now();
        let verdict = oracle().check(problem, assignment);
        self.nanos
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        verdict
    }
}

/// How many threads a placement search fans out over. The timed sweep
/// runs on one: results are bit-identical for every worker count (the
/// placer guarantees it), and on a small shared box a second worker buys
/// ~10 % for ±8 % run-to-run noise. The traced pass also times the
/// product default, so the pool's worth stays a measured number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchWorkers {
    One,
    /// `Workers::from_env()`: `LEMUR_WORKERS`, else available parallelism.
    Environment,
}

/// One cell of the placement sweep.
pub struct PlaceCell {
    problem: PlacementProblem,
}

impl PlaceCell {
    pub fn new(set: usize, delta: f64) -> PlaceCell {
        PlaceCell {
            problem: build_problem(FIG2_SETS[set], delta, Topo::Testbed).0,
        }
    }

    /// `heuristic::place` on one worker (see [`SearchWorkers`]).
    pub fn heuristic(&self, timing: Option<&TimingOracle>) -> Option<Placed> {
        let oracle: &dyn StageOracle = match timing {
            Some(t) => t,
            None => oracle(),
        };
        lemur_placer::heuristic::place_with_workers(
            &self.problem,
            oracle,
            CoreStrategy::WaterFill,
            Workers::new(1),
        )
        .ok()
        .map(Placed::of)
    }

    /// `brute::optimal` with the default beam.
    pub fn brute(&self, timing: Option<&TimingOracle>, workers: SearchWorkers) -> Option<Placed> {
        let oracle: &dyn StageOracle = match timing {
            Some(t) => t,
            None => oracle(),
        };
        let workers = match workers {
            SearchWorkers::One => Workers::new(1),
            SearchWorkers::Environment => Workers::from_env(),
        };
        lemur_placer::brute::optimal_with_workers(
            &self.problem,
            oracle,
            BruteConfig::default(),
            workers,
        )
        .ok()
        .map(Placed::of)
    }

    /// `PlacementProblem::evaluate` (core allocation + rate LP + latency
    /// check, no stage oracle) — `placer.evaluate_us`.
    pub fn evaluate(&self, assignment: &Assignment) -> bool {
        self.problem
            .evaluate(assignment, CoreStrategy::WaterFill)
            .is_ok()
    }
}

/// `placer::repair` of the plan's placement with one server masked, and
/// `compile_repair` of the result keeping the survivors' original SPIs —
/// the supervisor's two replan steps, separately callable.
pub struct Repair<'p> {
    plan: &'p RackPlan,
    down: usize,
    entry_spi: Vec<u32>,
}

pub struct Repaired {
    problem: PlacementProblem,
    placement: EvaluatedPlacement,
    spi_bases: Vec<u32>,
}

impl<'p> Repair<'p> {
    pub fn new(plan: &'p RackPlan, down: usize) -> Repair<'p> {
        Repair {
            plan,
            down,
            entry_spi: plan.compile(Runtime::Reference).routing.entry_spi,
        }
    }

    /// `placer.repair_ms`.
    pub fn repair(&self) -> Option<Repaired> {
        let r = lemur_placer::repair(
            &self.plan.problem,
            &self.plan.placement,
            ResourceMask::none().with_server_down(self.down),
            oracle(),
        )
        .ok()?;
        Some(Repaired {
            spi_bases: r.kept.iter().map(|&c| self.entry_spi[c]).collect(),
            problem: r.problem,
            placement: r.placement,
        })
    }
}

impl Repaired {
    /// `metacompiler.compile_repair_ms`.
    pub fn compile(&self) -> bool {
        lemur_metacompiler::compile_repair(&self.problem, &self.placement, &self.spi_bases).is_ok()
    }
}

/// `place_fleet` of the canonical fleet catalogue over `n_pops` PoPs:
/// the number of chains that found a home.
pub fn place_fleet(n_pops: usize) -> usize {
    let spec = FleetSpec::canonical(n_pops);
    let fp = lemur_placer::place_fleet(
        &spec.chains,
        &spec.topologies,
        &NfProfiles::table4(),
        oracle(),
        Workers::from_env(),
    );
    fp.pops.iter().map(|p| p.chains.len()).sum()
}

// ---------------------------------------------------------------------- chaos

/// Pinned shape of the supervised chaos soak (exp_chaos's).
#[derive(Debug, Clone, Copy)]
pub struct ChaosShape {
    pub duration_ms: u64,
    pub n_faults: usize,
    /// Seed of the fault storm and the supervisor's jitter. Pinned per
    /// workload: the storm is the workload's shape, not its noise.
    pub storm_seed: u64,
}

const CHAOS_SERVERS: usize = 4;
const CHAOS_WINDOW_NS: u64 = 1_000_000;

/// A supervised run ready to go: placement, storm, supervisor, testbed.
pub struct ChaosRun {
    pub plan: RackPlan,
    faults: FaultPlan,
    supervisor: Supervisor<'static>,
    testbed: Testbed,
}

impl ChaosRun {
    /// Chains {1,2,3} on four servers at δ = 0.3, 1500 B at 1.1× the
    /// predicted rate, descending shed priority, ≥`n_faults` seeded
    /// faults including two migration faults. `seed` drives traffic.
    pub fn setup(shape: &ChaosShape, seed: u64) -> ChaosRun {
        let (mut problem, mut specs) = build_problem(&[1, 2, 3], 0.3, Topo::Servers(CHAOS_SERVERS));
        let n_chains = problem.chains.len();
        for (i, chain) in problem.chains.iter_mut().enumerate() {
            chain.slo = chain.slo.map(|s| s.with_priority((n_chains - i) as u8));
        }
        let placement =
            lemur_placer::heuristic::place(&problem, oracle()).expect("healthy rack placement");
        let deployment =
            lemur_metacompiler::compile(&problem, &placement).expect("meta-compilation");
        for (i, s) in specs.iter_mut().enumerate() {
            s.offered_bps = (placement.chain_rates_bps[i] * 1.1).max(1e8);
        }
        // Busiest servers first, so link faults displace chains instead
        // of downing idle uplinks.
        let mut load = [0usize; CHAOS_SERVERS];
        for sg in &placement.subgroups {
            load[sg.server] += 1;
        }
        let mut hot_servers: Vec<usize> = (0..CHAOS_SERVERS).filter(|&s| load[s] > 0).collect();
        hot_servers.sort_by_key(|&s| std::cmp::Reverse(load[s]));

        let warmup_s = 0.003;
        let duration_s = shape.duration_ms as f64 / 1e3;
        let horizon_ns = ((warmup_s + duration_s) * 1e9) as u64;
        let faults = chaos_plan(&ChaosConfig {
            seed: shape.storm_seed,
            n_faults: shape.n_faults,
            start_ns: (warmup_s * 1e9) as u64 + 2 * CHAOS_WINDOW_NS,
            // Faults stop at 60 % of the horizon: a quiet tail to converge in.
            end_ns: horizon_ns * 3 / 5,
            n_servers: CHAOS_SERVERS,
            cores_per_server: problem.topology.servers[0].num_cores(),
            n_subgroups: placement.subgroups.len(),
            n_chains,
            max_core_fails_per_server: 2,
            n_migration_faults: 2,
            hot_servers,
        });
        faults
            .validate(&problem.topology, placement.subgroups.len(), n_chains)
            .expect("generated chaos plan is valid");
        let supervisor = Supervisor::new(
            &problem,
            &placement,
            &deployment,
            oracle(),
            SupervisorConfig {
                seed: shape.storm_seed,
                ..Default::default()
            },
        );
        let testbed = Testbed::build(&problem, &placement, deployment).expect("testbed build");
        let config = SimConfig {
            duration_s,
            warmup_s,
            seed,
            window_ns: CHAOS_WINDOW_NS,
            ..Default::default()
        };
        let slos = problem.chains.iter().map(|c| c.slo).collect();
        ChaosRun {
            plan: RackPlan {
                problem,
                placement,
                specs,
                config,
                slos,
            },
            faults,
            supervisor,
            testbed,
        }
    }

    /// The timed call of `rack-chaos`.
    pub fn run(&mut self) -> SimReport {
        self.testbed.run_supervised(
            &self.plan.specs,
            self.plan.config,
            &self.faults,
            &self.plan.slos,
            &mut self.supervisor,
        )
    }

    /// The same call with every hook entry timed.
    pub fn run_timed(&mut self) -> (SimReport, Vec<HookCall>) {
        let mut hook = TimedHook {
            inner: &mut self.supervisor,
            calls: Vec::new(),
        };
        let report = self.testbed.run_supervised(
            &self.plan.specs,
            self.plan.config,
            &self.faults,
            &self.plan.slos,
            &mut hook,
        );
        (report, hook.calls)
    }

    pub fn control(&self) -> ControlNumbers {
        let events = self.supervisor.events();
        ControlNumbers {
            settled: self.supervisor.is_settled(),
            wal_consistent: self.supervisor.wal().is_consistent(),
            wal_records: self.supervisor.wal().len(),
            replans: self.supervisor.repair_attempts(),
            rollbacks: events
                .iter()
                .filter(|e| matches!(e, SupervisorEvent::Committed { rollback: true, .. }))
                .count(),
        }
    }

    /// `DecisionLog::replay` of the run's write-ahead log.
    pub fn wal_replay(&self) {
        std::hint::black_box(self.supervisor.wal().replay());
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ControlNumbers {
    pub settled: bool,
    pub wal_consistent: bool,
    pub wal_records: usize,
    pub replans: u64,
    pub rollbacks: usize,
}

/// One timed entry into the control plane.
#[derive(Debug, Clone, Copy)]
pub struct HookCall {
    pub kind: &'static str,
    /// Virtual time the engine called at.
    pub at_ns: u64,
    pub start: Instant,
    pub end: Instant,
}

/// A `ControlHook` that forwards to another and times every entry. It
/// returns the inner hook's action untouched, so a hooked run's
/// `SimReport` equals the un-wrapped one (unit-tested).
struct TimedHook<'h> {
    inner: &'h mut dyn ControlHook,
    calls: Vec<HookCall>,
}

impl TimedHook<'_> {
    fn timed<T>(
        &mut self,
        kind: &'static str,
        at_ns: u64,
        f: impl FnOnce(&mut dyn ControlHook) -> T,
    ) -> T {
        let start = Instant::now();
        let out = f(self.inner);
        self.calls.push(HookCall {
            kind,
            at_ns,
            start,
            end: Instant::now(),
        });
        out
    }
}

impl ControlHook for TimedHook<'_> {
    fn on_fault(&mut self, at_ns: u64, kind: &FaultKind) -> ControlAction {
        self.timed("on_fault", at_ns, |h| h.on_fault(at_ns, kind))
    }

    fn on_window(
        &mut self,
        end_ns: u64,
        samples: &[WindowSample],
        violations: &[TimelineEvent],
    ) -> ControlAction {
        self.timed("on_window", end_ns, |h| {
            h.on_window(end_ns, samples, violations)
        })
    }

    fn on_commit(&mut self, at_ns: u64, epoch: u64, packets_lost: u64, rollback: bool) {
        self.timed("on_commit", at_ns, |h| {
            h.on_commit(at_ns, epoch, packets_lost, rollback)
        })
    }

    fn on_migration_failed(&mut self, at_ns: u64, error: &MigrationError) {
        self.timed("on_migration_failed", at_ns, |h| {
            h.on_migration_failed(at_ns, error)
        })
    }
}

// --------------------------------------------------------------- million-flow

/// Pinned shape of the hybrid flow-level run (exp_scale's headline cell).
#[derive(Debug, Clone, Copy)]
pub struct FlowShape {
    /// Nominal flows over both chains (DDoS junk flows come on top).
    pub flows: usize,
    /// Heavy-hitter threshold θ (packets).
    pub theta: u64,
    /// Seed of the flow table (sizes, start times). Pinned: heavy-tailed
    /// draws move the packet count by several percent between seeds,
    /// which would be the workload changing, not the program.
    pub table_seed: u64,
}

pub struct FlowPlan {
    problem: PlacementProblem,
    placement: EvaluatedPlacement,
    specs: Vec<TrafficSpec>,
    config: SimConfig,
    pub slos: Vec<Option<Slo>>,
    spec: ScenarioSpec,
    scenario: Scenario,
}

impl FlowPlan {
    /// Chains {3,5} hardware-preferred on the testbed, bounded-Pareto
    /// (α = 1.1) flow sizes under a diurnal envelope with a flash crowd
    /// and a DDoS surge. `seed` drives service-time draws. The flow table
    /// is empty until [`FlowPlan::materialize`].
    pub fn place(shape: &FlowShape, seed: u64) -> FlowPlan {
        let (problem, specs) = build_problem(&[3, 5], 0.3, Topo::Testbed);
        let assignment = lemur_placer::baselines::hw_preferred_assignment(&problem);
        let placement = problem
            .evaluate(&assignment, CoreStrategy::WaterFill)
            .expect("hardware-preferred placement");
        let config = SimConfig {
            duration_s: 0.02,
            warmup_s: 0.005,
            seed,
            ..SimConfig::default()
        };
        let horizon_ns = ((config.warmup_s + config.duration_s) * 1e9) as u64;
        let spec = ScenarioSpec {
            seed: shape.table_seed,
            horizon_ns,
            chains: (0..2)
                .map(|ci| ChainLoad {
                    flows: shape.flows / 2,
                    flow_rate_pps: 400_000.0 + 100_000.0 * ci as f64,
                    size: FlowSizeDist {
                        alpha: 1.1,
                        min_packets: 1,
                        max_packets: 2_048,
                    },
                    diurnal: Some(Diurnal {
                        period_ns: horizon_ns,
                        amplitude: 0.3,
                    }),
                    surges: vec![
                        Surge {
                            kind: SurgeKind::FlashCrowd,
                            start_ns: horizon_ns / 2,
                            duration_ns: horizon_ns / 8,
                            factor: 3.0,
                        },
                        Surge {
                            kind: SurgeKind::Ddos,
                            start_ns: horizon_ns * 5 / 8,
                            duration_ns: horizon_ns / 8,
                            factor: 2.0,
                        },
                    ],
                })
                .collect(),
        };
        let slos = problem.chains.iter().map(|c| c.slo).collect();
        FlowPlan {
            scenario: Scenario {
                horizon_ns,
                n_chains: 2,
                flows: Vec::new(),
            },
            problem,
            placement,
            specs,
            config,
            slos,
            spec,
        }
    }

    /// `ScenarioSpec::materialize` — `dataplane.materialize_s`.
    pub fn materialize(&mut self) {
        self.scenario = self.spec.materialize();
    }

    /// `validate_scenario` — `dataplane.validate_s`; the traffic guard.
    pub fn validate(&self) -> Result<(), String> {
        validate_scenario(
            &self.spec,
            &self.scenario,
            self.config.window_ns,
            &TrafficTolerance::default(),
        )
        .map(|_| ())
        .map_err(|e| e.to_string())
    }

    /// `Scenario::tail_plan` at θ — `dataplane.tail_plan_s` (the engine
    /// recomputes it inside the timed call; this times it alone).
    pub fn tail_plan(&self, theta: u64) {
        let frame_bytes: Vec<u64> = self
            .specs
            .iter()
            .map(|s| (s.payload_len + HEADER_BYTES) as u64)
            .collect();
        let warmup_ns = (self.config.warmup_s * 1e9) as u64;
        std::hint::black_box(self.scenario.tail_plan(
            theta,
            warmup_ns,
            self.config.window_ns,
            &frame_bytes,
        ));
    }

    pub fn build(&self) -> Testbed {
        let deployment = lemur_metacompiler::compile_fused(&self.problem, &self.placement)
            .expect("meta-compilation");
        Testbed::build(&self.problem, &self.placement, deployment).expect("testbed build")
    }

    /// The timed call of `million-flow`: the hybrid engine at θ with the
    /// SLO guard armed (so windows exist) and no control hook.
    pub fn run(&self, testbed: &mut Testbed, theta: u64) -> SimReport {
        let mode = HybridMode::Hybrid(HybridConfig {
            heavy_min_packets: theta,
            ..HybridConfig::default()
        });
        testbed
            .run_scenario_supervised(
                &self.scenario,
                &self.specs,
                self.config,
                &FaultPlan::empty(),
                &self.slos,
                &mode,
                &mut NoopHook,
            )
            .expect("valid hybrid config")
    }

    /// `(flows, all packets, heavy packets at θ, largest drawn flow)`.
    pub fn census(&self, theta: u64) -> (usize, u64, u64, u64) {
        let flows = &self.scenario.flows;
        (
            flows.len(),
            flows.iter().map(|f| f.packets).sum(),
            flows
                .iter()
                .filter(|f| f.size_packets >= theta)
                .map(|f| f.packets)
                .sum(),
            flows.iter().map(|f| f.size_packets).max().unwrap_or(0),
        )
    }

    /// The server-side runtimes of a fresh deployment, for timing
    /// `NfRuntime::apply_aggregate_nf` alone — `nf.aggregate_apply_ns`.
    pub fn aggregate_sweep(&self) -> AggregateSweep {
        let deployment = lemur_metacompiler::compile_fused(&self.problem, &self.placement)
            .expect("meta-compilation");
        AggregateSweep {
            pipes: deployment.bess,
            window_ns: self.config.window_ns,
        }
    }
}

pub struct AggregateSweep {
    pipes: Vec<ServerPipeline>,
    window_ns: u64,
}

impl AggregateSweep {
    /// Apply `rounds` windows of tail mass to every NF of every instance;
    /// returns the number of `apply_aggregate_nf` calls made.
    pub fn apply(&mut self, rounds: u64) -> u64 {
        let mut calls = 0;
        for round in 0..rounds {
            let update = AggregateUpdate {
                packets: 4_000,
                bytes: 4_000 * 1_500,
                new_flows: 900,
                window_start_ns: round * self.window_ns,
                window_end_ns: (round + 1) * self.window_ns,
            };
            for pipe in &mut self.pipes {
                for inst in &mut pipe.instances {
                    for idx in 0..inst.runtime.len() {
                        std::hint::black_box(inst.runtime.apply_aggregate_nf(idx, &update));
                        calls += 1;
                    }
                }
            }
        }
        calls
    }
}

// ---------------------------------------------------------------------- fleet

/// One `FleetSim` soak on `FleetSpec::canonical(n_pops)`. `weather`
/// seeds the storm, the lossy channel and the coordinator (the soak's
/// shape); `seed` drives crash damage and validation traffic.
pub struct FleetSoak {
    sim: FleetSim,
    ticks: u64,
    virtual_s: f64,
    chains: usize,
}

impl FleetSoak {
    /// `validation_s`: run the post-storm per-PoP dataplane validation
    /// for that many virtual seconds, or not at all.
    pub fn new(n_pops: usize, weather: u64, seed: u64, validation_s: Option<f64>) -> FleetSoak {
        let mut cfg = FleetSimConfig::soak(weather, n_pops);
        cfg.seed = seed;
        cfg.validate = validation_s.is_some();
        if let Some(s) = validation_s {
            cfg.validation_s = s;
        }
        let spec = FleetSpec::canonical(n_pops);
        FleetSoak {
            ticks: cfg.duration_ns / cfg.tick_ns + 1,
            virtual_s: cfg.duration_ns as f64 / 1e9,
            chains: spec.chains.len(),
            sim: FleetSim::new(spec, cfg),
        }
    }

    /// The timed call of `fleet-storm` (one of them).
    pub fn run(&self) -> FleetReport {
        self.sim.run(oracle())
    }

    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    pub fn virtual_s(&self) -> f64 {
        self.virtual_s
    }

    pub fn chains(&self) -> usize {
        self.chains
    }
}
