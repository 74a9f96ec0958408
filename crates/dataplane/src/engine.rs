//! The discrete-event cross-platform execution engine.
//!
//! [`Testbed`] holds the live configuration — switch, servers, SmartNICs
//! and the links between them — and its entry points feed it traffic.
//! One run's state lives in owned types, one concern each: the event
//! queue (`queue`), the books a report is built from (`accounts`), the
//! guard-window grid and SLO guard (`clock`), the analytic tail
//! (`tail`), live reconfiguration (`epoch`), the platforms' stations
//! (`stations`), and the loop that drives them (`run`).

mod accounts;
mod clock;
mod epoch;
mod queue;
mod run;
mod stations;
mod tail;

use crate::faults::{FaultKind, FaultPlan};
use crate::flowsim::{FlowPacketSource, Scenario};
use crate::migrate::{MigrationError, NfLocator, TorNatTarget};
use crate::report::{SimReport, TimelineEvent, WindowSample};
use crate::traffic::{ChainSource, TrafficSpec};
use lemur_core::Slo;
use lemur_metacompiler::bessgen::SubgroupInstance;
use lemur_metacompiler::Deployment;
use lemur_nf::{AggregateObservables, NfKind};
use lemur_p4sim::{PisaModel, Switch};
use lemur_packet::PacketBuf;
use lemur_placer::placement::{EvaluatedPlacement, PlacementProblem};
use lemur_placer::topology::Tor;
use run::Traffic;
use stations::{NicSim, ServerSim, ServerTables, Station};
use tail::TailQueue;

/// Why a testbed could not be constructed from a deployment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// The topology's ToR is not the PISA switch this engine simulates.
    UnsupportedTor(String),
    /// The generated P4 program failed to compile/load on the switch.
    SwitchLoad(String),
    /// The deployment names a server or SmartNIC the problem's topology
    /// does not have.
    Mismatch(String),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::UnsupportedTor(msg) => write!(f, "unsupported ToR: {msg}"),
            BuildError::SwitchLoad(msg) => write!(f, "switch load: {msg}"),
            BuildError::Mismatch(msg) => write!(f, "deployment mismatch: {msg}"),
        }
    }
}

impl std::error::Error for BuildError {}

/// Simulation parameters.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Measurement window (seconds of virtual time).
    pub duration_s: f64,
    /// Warm-up before measurement starts.
    pub warmup_s: f64,
    /// Seed for service-time sampling and traffic payloads.
    pub seed: u64,
    /// Queueing delay beyond which a station drops arrivals (overload).
    pub max_queue_ns: u64,
    /// Guard-window length (ns of virtual time). Windows tile the run from
    /// warm-up on and close into [`WindowSample`]s when the SLO guard is
    /// armed (an entry point given per-chain SLOs) or an analytic tail is
    /// attached ([`HybridMode::Hybrid`], whose tail is charged per window);
    /// otherwise none close.
    pub window_ns: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            duration_s: 0.02,
            warmup_s: 0.002,
            seed: 42,
            max_queue_ns: 3_000_000, // 3 ms
            window_ns: 1_000_000,    // 1 ms
        }
    }
}

impl SimConfig {
    /// End of warm-up, where measurement starts (ns).
    fn warmup_ns(&self) -> u64 {
        (self.warmup_s * 1e9) as u64
    }

    /// End of the run: warm-up plus the measured duration (ns).
    fn horizon_ns(&self) -> u64 {
        ((self.warmup_s + self.duration_s) * 1e9) as u64
    }
}

/// How [`Testbed::run_scenario`] advances a flow-level [`Scenario`].
#[derive(Debug, Clone)]
pub enum HybridMode {
    /// Materialize every flow packet-by-packet — exact but O(total
    /// packets); the reference the hybrid engine is validated against.
    PacketLevel,
    /// Heavy hitters packet-by-packet, long tail analytically per SLO
    /// window.
    Hybrid(HybridConfig),
}

/// Parameters of the hybrid fast path.
#[derive(Debug, Clone)]
pub struct HybridConfig {
    /// Flows whose *drawn* size is at least this many packets are
    /// materialized; smaller flows join the analytic tail.
    pub heavy_min_packets: u64,
    /// Per-chain delivery capacity (bits/s) charged against tail mass
    /// each window. Tail packets beyond what the heavy path left of the
    /// budget queue in a fluid M/D/1-style backlog that drains at
    /// capacity and contributes waiting time to the window's latency;
    /// only mass past `queue_buffer_packets` drops as
    /// [`DropReason::QueueOverflow`](crate::DropReason::QueueOverflow).
    /// Empty disables the constraint (the tail is assumed deliverable).
    pub capacity_bps: Vec<f64>,
    /// Bound on the per-chain fluid-queue backlog (packets). Mass
    /// arriving when the backlog is full overflows to
    /// [`DropReason::QueueOverflow`](crate::DropReason::QueueOverflow);
    /// `0` restores the drop-only capacity budget (no queueing, no added
    /// waiting time).
    pub queue_buffer_packets: u64,
}

impl Default for HybridConfig {
    fn default() -> Self {
        HybridConfig {
            heavy_min_packets: 0,
            capacity_bps: vec![],
            queue_buffer_packets: 4096,
        }
    }
}

impl HybridConfig {
    /// Reject silently-misbehaving capacity entries (zero, negative,
    /// NaN, infinite) before a run starts.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        for (chain, &cap) in self.capacity_bps.iter().enumerate() {
            if !cap.is_finite() || cap <= 0.0 {
                return Err(ScenarioError::InvalidCapacity { chain, value: cap });
            }
        }
        Ok(())
    }
}

/// Why a scenario run was refused before it started.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// `HybridConfig::capacity_bps[chain]` is zero, negative, NaN, or
    /// infinite — each of which would silently disable or corrupt the
    /// capacity budget instead of modelling a real link.
    InvalidCapacity { chain: usize, value: f64 },
    /// A `ScenarioSpec` load field is outside its documented domain (see
    /// `ScenarioSpec::validate`); `field` names it within `chains[chain]`.
    InvalidLoad {
        chain: usize,
        field: &'static str,
        value: f64,
    },
    /// Generating `chains[chain]` would take more work than
    /// `ScenarioSpec::validate` allows: `expected` units of `what` against
    /// a fixed `budget`.
    OverBudget {
        chain: usize,
        what: &'static str,
        expected: f64,
        budget: f64,
    },
    /// The run's inputs do not fit the testbed or each other: `what` was
    /// `got` where the run needs `expected` — the testbed's chain count
    /// for the scenario, the specs and (when given) the SLOs;
    /// `warmup_s + duration_s` for the scenario's horizon; and for a
    /// flow's chain index, the chain count it must stay below.
    Mismatch {
        what: &'static str,
        expected: u64,
        got: u64,
    },
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::InvalidCapacity { chain, value } => write!(
                f,
                "capacity_bps[{chain}] = {value} is not a positive finite rate"
            ),
            ScenarioError::InvalidLoad {
                chain,
                field,
                value,
            } => write!(
                f,
                "chains[{chain}].{field} = {value} is outside its domain \
                 (amplitude in [0, 1); factors, α and rates finite and > 0)"
            ),
            ScenarioError::OverBudget {
                chain,
                what,
                expected,
                budget,
            } => write!(
                f,
                "chains[{chain}] needs {expected:.3e} {what}, over the fixed budget of {budget}"
            ),
            ScenarioError::Mismatch {
                what,
                expected,
                got,
            } => write!(f, "{what}: expected {expected}, got {got}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

/// Uniform packet feed: the classic steady-rate generator or a
/// materialized flow schedule (the hybrid engine's heavy-hitter set).
pub(crate) enum PacketSource {
    Steady(ChainSource),
    Flows(FlowPacketSource),
}

impl PacketSource {
    #[inline]
    fn peek_time(&self) -> u64 {
        match self {
            PacketSource::Steady(s) => s.peek_time(),
            PacketSource::Flows(s) => s.peek_time(),
        }
    }

    #[inline]
    fn next_packet(&mut self) -> Option<(u64, PacketBuf)> {
        match self {
            PacketSource::Steady(s) => Some(s.next_packet()),
            PacketSource::Flows(s) => s.next_packet(),
        }
    }

    pub(crate) fn set_rate_factor(&mut self, factor: f64) {
        match self {
            PacketSource::Steady(s) => s.set_rate_factor(factor),
            PacketSource::Flows(s) => s.set_rate_factor(factor),
        }
    }
}

/// A pre-built configuration waiting to be swapped in at the end of a
/// drain window (phase one of the two-phase commit). Compiling and
/// loading happen here, off the "live" path, so the swap itself is
/// atomic from the dataplane's point of view.
pub struct StagedConfig {
    platforms: Platforms,
    /// Per *original* chain: is it admitted in the new epoch? Shed
    /// chains have their packets refused at inject
    /// ([`DropReason::Shed`](crate::DropReason::Shed)).
    admitted: Vec<bool>,
    /// Replacement SLO-guard bounds, indexed by original chain (shed
    /// chains should carry `None` so the guard stops flagging them).
    slos: Vec<Option<Slo>>,
    /// True when this config restores a last-known-good placement.
    rollback: bool,
}

impl StagedConfig {
    /// Pre-stage a deployment for a (possibly repaired sub-)problem.
    /// `admitted` and `slos` are indexed by the *original* problem's
    /// chains — the engine keeps original chain numbering across epochs.
    pub fn build(
        problem: &PlacementProblem,
        placement: &EvaluatedPlacement,
        deployment: Deployment,
        admitted: Vec<bool>,
        slos: Vec<Option<Slo>>,
        rollback: bool,
    ) -> Result<StagedConfig, BuildError> {
        let (platforms, _) = build_platforms(problem, placement, deployment)?;
        Ok(StagedConfig {
            platforms,
            admitted,
            slos,
            rollback,
        })
    }

    pub fn is_rollback(&self) -> bool {
        self.rollback
    }
}

/// What a [`ControlHook`] tells the engine to do after a callback.
pub enum ControlAction {
    /// Keep running the current epoch.
    Continue,
    /// Begin the two-phase commit: emit [`TimelineEvent::DrainStart`] now
    /// and swap `staged` in after `drain_ns` of virtual time. Ignored if
    /// a swap is already pending.
    StageCommit {
        staged: Box<StagedConfig>,
        drain_ns: u64,
    },
    /// Flip per-chain tail admission control (the first, cheapest rung of
    /// the graceful-degradation ladder): chains with `deny_junk[chain]`
    /// set have their DDoS-flagged analytic-tail arrivals refused as
    /// [`DropReason::Admission`](crate::DropReason::Admission) from this
    /// instant on. No epoch swap, no drain window — it takes effect at the
    /// next tail application. Only meaningful in hybrid runs (packet-level
    /// runs carry no junk marking); a no-op there.
    SetTailAdmission { deny_junk: Vec<bool> },
}

/// Control-plane logic running *inside* the simulation. The engine calls
/// back at guard-window closes and fault applications; the hook may
/// respond with a staged reconfiguration. All timing is virtual, so a
/// hooked run is exactly as deterministic as a plain one.
pub trait ControlHook {
    /// A fault-plan event was just applied.
    fn on_fault(&mut self, _at_ns: u64, _kind: &FaultKind) -> ControlAction {
        ControlAction::Continue
    }

    /// An SLO-guard window closed. `samples` holds this window's
    /// per-chain measurements; `violations` the violation events it
    /// produced (empty when all admitted chains met their bounds).
    fn on_window(
        &mut self,
        _end_ns: u64,
        _samples: &[WindowSample],
        _violations: &[TimelineEvent],
    ) -> ControlAction {
        ControlAction::Continue
    }

    /// An epoch swap committed (`packets_lost` = update-time loss).
    fn on_commit(&mut self, _at_ns: u64, _epoch: u64, _packets_lost: u64, _rollback: bool) {}

    /// The staged swap was aborted because state migration failed
    /// verification. The old epoch is still live with its state intact;
    /// the hook decides whether to retry, back off, or recover a crashed
    /// control plane from its decision log.
    fn on_migration_failed(&mut self, _at_ns: u64, _error: &MigrationError) {}
}

/// The do-nothing hook: [`Testbed::run_with_faults`] uses it, keeping
/// un-supervised runs byte-identical to the pre-control-loop engine.
pub struct NoopHook;

impl ControlHook for NoopHook {}

/// The executable testbed.
pub struct Testbed {
    /// The current epoch's compute state.
    live: Platforms,
    n_chains: usize,
    pisa: PisaModel,
    /// ToR→server and server→ToR link stations, per server.
    tor_to_server: Vec<Station>,
    server_to_tor: Vec<Station>,
    tor_out: Station,
    link_bps: Vec<f64>,
    tor_rate_bps: f64,
}

impl Testbed {
    /// Build from a placement and its deployment. The deployment's P4
    /// program is compiled and loaded; BESS pipelines and NIC programs are
    /// taken as-is, and must name servers and SmartNICs of `problem`.
    pub fn build(
        problem: &PlacementProblem,
        placement: &EvaluatedPlacement,
        deployment: Deployment,
    ) -> Result<Testbed, BuildError> {
        let (live, pisa) = build_platforms(problem, placement, deployment)?;
        let n_servers = problem.topology.servers.len();
        let link_bps: Vec<f64> = (0..n_servers)
            .map(|s| problem.topology.server_link_bps(s))
            .collect();
        Ok(Testbed {
            live,
            n_chains: problem.chains.len(),
            pisa,
            tor_to_server: vec![Station::default(); n_servers],
            server_to_tor: vec![Station::default(); n_servers],
            tor_out: Station::default(),
            link_bps,
            tor_rate_bps: pisa.port_rate_bps,
        })
    }

    /// `(fused replicas, total replicas)` across all servers — lets tests
    /// and benches assert which runtime a testbed actually executes.
    pub fn runtime_census(&self) -> (usize, usize) {
        let mut fused = 0;
        let mut total = 0;
        for server in self.live.servers.iter().flatten() {
            for inst in &server.pipeline.instances {
                total += 1;
                if inst.runtime.is_fused() {
                    fused += 1;
                }
            }
        }
        (fused, total)
    }

    /// Run the workload. `specs` must be index-aligned with the problem's
    /// chains (and the chains' aggregates must match the specs' prefixes —
    /// classification happens in the generated P4).
    ///
    /// # Panics
    ///
    /// If `specs` does not hold one spec per chain.
    pub fn run(&mut self, specs: &[TrafficSpec], config: SimConfig) -> SimReport {
        self.run_with_faults(specs, config, &FaultPlan::empty(), &[])
    }

    /// Run the workload while replaying a [`FaultPlan`] and (optionally)
    /// watching per-chain SLOs. `slos` is index-aligned with the chains;
    /// an empty slice disables the guard. When enabled, the guard closes a
    /// window every `config.window_ns` of virtual time after warm-up and
    /// emits a [`TimelineEvent::SloViolation`] whenever a chain's windowed
    /// delivered rate falls below its `t_min` or its windowed mean latency
    /// exceeds its `d_max`. An empty plan with no SLOs is byte-identical
    /// to [`Testbed::run`].
    ///
    /// # Panics
    ///
    /// If `specs` does not hold one spec per chain, or `slos` is neither
    /// empty nor one (optional) SLO per chain.
    pub fn run_with_faults(
        &mut self,
        specs: &[TrafficSpec],
        config: SimConfig,
        plan: &FaultPlan,
        slos: &[Option<Slo>],
    ) -> SimReport {
        self.run_supervised(specs, config, plan, slos, &mut NoopHook)
    }

    /// [`Testbed::run_with_faults`] plus a live control plane: `hook` is
    /// called back at guard-window closes and fault applications and may
    /// stage a transactional reconfiguration ([`ControlAction::StageCommit`]).
    /// The engine then emits [`TimelineEvent::DrainStart`], lets the old
    /// epoch run for the drain window, and atomically swaps the staged
    /// configuration in — dropping whatever is still in flight as
    /// [`DropReason::Reconfig`](crate::DropReason::Reconfig) (the
    /// update-time-loss metric) in sorted packet-id order, so supervised
    /// runs stay bit-for-bit reproducible.
    ///
    /// # Panics
    ///
    /// If `specs` does not hold one spec per chain, or `slos` is neither
    /// empty nor one (optional) SLO per chain.
    pub fn run_supervised(
        &mut self,
        specs: &[TrafficSpec],
        config: SimConfig,
        plan: &FaultPlan,
        slos: &[Option<Slo>],
        hook: &mut dyn ControlHook,
    ) -> SimReport {
        assert_eq!(specs.len(), self.n_chains, "one spec per chain");
        assert!(
            slos.is_empty() || slos.len() == self.n_chains,
            "SLO guard needs one (optional) SLO per chain"
        );
        let sources = specs
            .iter()
            .enumerate()
            .map(|(i, s)| {
                PacketSource::Steady(ChainSource::new(
                    s.clone(),
                    config.seed.wrapping_add(i as u64),
                ))
            })
            .collect();
        let offered_bps = specs.iter().map(|s| s.offered_bps).collect();
        let traffic = Traffic {
            sources,
            tail: None,
            offered_bps,
        };
        self.run_internal(traffic, config, plan, slos, hook)
    }

    /// Run a flow-level [`Scenario`] instead of steady-rate sources.
    /// `specs` supplies each chain's classifier prefix and frame size
    /// (flow packets are built inside the chain's `src_prefix`); the
    /// scenario's horizon must equal `config.warmup_s + config.duration_s`
    /// so the analytic tail's window grid lines up with the SLO guard's.
    ///
    /// [`HybridMode::PacketLevel`] materializes every flow — the exact
    /// reference. [`HybridMode::Hybrid`] materializes heavy hitters and
    /// charges the long tail analytically per guard window (see the
    /// module docs of [`crate::flowsim`]).
    pub fn run_scenario(
        &mut self,
        scenario: &Scenario,
        specs: &[TrafficSpec],
        config: SimConfig,
        mode: &HybridMode,
    ) -> Result<SimReport, ScenarioError> {
        self.run_scenario_supervised(
            scenario,
            specs,
            config,
            &FaultPlan::empty(),
            &[],
            mode,
            &mut NoopHook,
        )
    }

    /// [`Testbed::run_scenario`] with faults, SLOs, and a control hook —
    /// the hybrid counterpart of [`Testbed::run_supervised`]. Guard
    /// windows close on the same grid in both modes; in hybrid mode each
    /// closing window has its analytic-tail cell applied first, so the
    /// [`WindowSample`]s the hook sees (and any SLO violations) include
    /// tail mass. Inputs that do not fit the testbed or each other —
    /// chain counts, the horizon, a flow naming a chain the testbed lacks
    /// — return [`ScenarioError::Mismatch`] before any work starts.
    #[allow(clippy::too_many_arguments)]
    pub fn run_scenario_supervised(
        &mut self,
        scenario: &Scenario,
        specs: &[TrafficSpec],
        config: SimConfig,
        plan: &FaultPlan,
        slos: &[Option<Slo>],
        mode: &HybridMode,
        hook: &mut dyn ControlHook,
    ) -> Result<SimReport, ScenarioError> {
        if let HybridMode::Hybrid(hc) = mode {
            hc.validate()?;
        }
        self.check_scenario(scenario, specs, &config, slos)?;
        let frame_bytes: Vec<u64> = specs.iter().map(|s| (s.payload_len + 42) as u64).collect();
        // Report the *realized* offered load, not a nominal rate.
        let horizon_s = scenario.horizon_ns as f64 / 1e9;
        let mut offered_bps = vec![0f64; self.n_chains];
        for f in &scenario.flows {
            offered_bps[f.chain] += (f.packets * frame_bytes[f.chain] * 8) as f64 / horizon_s;
        }
        let theta = match mode {
            HybridMode::PacketLevel => 0,
            HybridMode::Hybrid(hc) => hc.heavy_min_packets,
        };
        let sources = specs
            .iter()
            .enumerate()
            .map(|(ci, s)| {
                PacketSource::Flows(FlowPacketSource::new(
                    scenario,
                    ci,
                    |f| f.size_packets >= theta,
                    s.src_prefix,
                    s.payload_len,
                ))
            })
            .collect();
        let tail = match mode {
            HybridMode::PacketLevel => None,
            HybridMode::Hybrid(hc) => {
                let window_ns = config.window_ns.max(1);
                let plan = scenario.tail_plan(theta, config.warmup_ns(), window_ns, &frame_bytes);
                Some(TailQueue::new(plan, frame_bytes, hc))
            }
        };
        let traffic = Traffic {
            sources,
            tail,
            offered_bps,
        };
        Ok(self.run_internal(traffic, config, plan, slos, hook))
    }

    /// The [`ScenarioError::Mismatch`] checks of
    /// [`Testbed::run_scenario_supervised`].
    fn check_scenario(
        &self,
        scenario: &Scenario,
        specs: &[TrafficSpec],
        config: &SimConfig,
        slos: &[Option<Slo>],
    ) -> Result<(), ScenarioError> {
        let n = self.n_chains as u64;
        // No SLOs at all disarms the guard; that is not a mismatch.
        let n_slos = if slos.is_empty() {
            n
        } else {
            slos.len() as u64
        };
        let counts = [
            ("scenario chain count", n, scenario.n_chains as u64),
            ("traffic spec count", n, specs.len() as u64),
            ("SLO count", n, n_slos),
            (
                "scenario horizon (ns)",
                config.horizon_ns(),
                scenario.horizon_ns,
            ),
        ];
        let stray = scenario.flows.iter().find(|f| f.chain as u64 >= n);
        let stray = stray.map(|f| ("flow chain index (must be below)", n, f.chain as u64));
        match counts.into_iter().find(|c| c.1 != c.2).or(stray) {
            Some((what, expected, got)) => Err(ScenarioError::Mismatch {
                what,
                expected,
                got,
            }),
            None => Ok(()),
        }
    }

    /// Aggregate observables of every server-resident NF instance as
    /// `(chain, node, replica, kind, observables)` in deterministic
    /// `(chain, node, replica)` order — packet-path state and applied
    /// tail aggregates combined. NAT tables offloaded to the ToR are not
    /// included (the tail sweep doesn't reach them either, so the two
    /// views stay comparable).
    pub fn nf_observables(&self) -> Vec<(usize, usize, usize, NfKind, AggregateObservables)> {
        self.live
            .nf_instances()
            .filter_map(|(loc, inst)| {
                let obs = inst.runtime.nf_observables(loc.nf_idx)?;
                Some((loc.chain, loc.node.0, loc.replica, loc.kind, obs))
            })
            .collect()
    }
}

/// A deployment compiled onto the platforms: the compute state an epoch
/// swap replaces as a whole (link stations, and their backlog, persist).
/// Built by [`Testbed::build`] and [`StagedConfig::build`].
struct Platforms {
    switch: Switch,
    servers: Vec<Option<ServerSim>>,
    nics: Vec<Option<NicSim>>,
    subgroup_cycles: Vec<f64>,
    /// Where each state-bearing NF lives.
    nf_index: Vec<NfLocator>,
    /// NAT nodes whose tables live on the ToR.
    tor_nat: Vec<TorNatTarget>,
}

impl Platforms {
    /// Every indexed NF with the server instance that runs it, in index
    /// order.
    fn nf_instances(&self) -> impl Iterator<Item = (&NfLocator, &SubgroupInstance)> {
        self.nf_index.iter().filter_map(|loc| {
            let srv = self.servers.get(loc.server)?.as_ref()?;
            Some((loc, srv.pipeline.instances.get(loc.inst_idx)?))
        })
    }
}

fn build_platforms(
    problem: &PlacementProblem,
    placement: &EvaluatedPlacement,
    deployment: Deployment,
) -> Result<(Platforms, PisaModel), BuildError> {
    let pisa = match &problem.topology.tor {
        Tor::Pisa(m) => *m,
        Tor::OpenFlow { .. } => {
            return Err(BuildError::UnsupportedTor(
                "OpenFlow testbeds use OfTestbed (see exp_fig3c)".to_string(),
            ))
        }
    };
    let mut switch = Switch::new(deployment.p4.program.clone(), pisa)
        .map_err(|e| BuildError::SwitchLoad(e.to_string()))?;
    deployment.p4.install(&mut switch);
    // NAT nodes synthesized onto the ToR are migration targets: their
    // (lookup, rewrite) table pair receives restored bindings as entries.
    let tor_nat: Vec<TorNatTarget> = deployment
        .p4
        .nf_tables
        .iter()
        .filter(|(_, _, kind, tables)| *kind == lemur_nf::NfKind::Nat && tables.len() == 2)
        .map(|(chain, node, _, tables)| TorNatTarget {
            chain: *chain,
            node: *node,
            lookup: tables[0],
            rewrite: tables[1],
        })
        .collect();

    let n_servers = problem.topology.servers.len();
    let mut servers: Vec<Option<ServerSim>> = (0..n_servers).map(|_| None).collect();
    for pipe in deployment.bess {
        let s = pipe.server;
        let Some(spec) = problem.topology.servers.get(s).cloned() else {
            return Err(BuildError::Mismatch(format!(
                "pipeline for server {s}, topology has {n_servers}"
            )));
        };
        let nic_socket = spec
            .nics
            .first()
            .map(|n| n.socket)
            .unwrap_or(lemur_bess::SocketId(0));
        let n_cores = pipe.instances.iter().map(|i| i.core + 1).max().unwrap_or(0);
        servers[s] = Some(ServerSim {
            index: s,
            tables: ServerTables::lower(&pipe),
            pipeline: pipe,
            demux: Station::default(),
            cores: vec![Station::default(); n_cores],
            clock_hz: spec.clock_hz,
            same_socket_factor: 1.0 / spec.cross_socket_penalty,
            nic_socket,
            spec,
        });
    }
    let n_nics = problem.topology.smartnics.len();
    let mut nics: Vec<Option<NicSim>> = (0..n_nics).map(|_| None).collect();
    for np in deployment.ebpf {
        let Some(spec) = problem.topology.smartnics.get(np.nic) else {
            return Err(BuildError::Mismatch(format!(
                "program for SmartNIC {}, topology has {n_nics}",
                np.nic
            )));
        };
        nics[np.nic] = Some(NicSim {
            program: np.program,
            proc: Station::default(),
            link_in: Station::default(),
            link_out: Station::default(),
            clock_hz: spec.clock_hz,
            link_bps: spec.rate_bps,
        });
    }
    let subgroup_cycles = placement
        .subgroups
        .iter()
        .map(|sg| {
            let mut c = sg.cycles;
            if sg.cores > 1 {
                c += lemur_placer::REPLICATION_OVERHEAD_CYCLES;
            }
            c
        })
        .collect();
    // Index every NF instance by its placement-independent identity
    // `(chain, node, replica)` so state captured from one epoch can be
    // aimed at the matching instance of the next. Sorted order makes the
    // capture (and thus the whole migration) deterministic.
    let mut nf_index: Vec<NfLocator> = Vec::new();
    for (s, srv) in servers.iter().enumerate() {
        let Some(srv) = srv else { continue };
        for (inst_idx, inst) in srv.pipeline.instances.iter().enumerate() {
            let Some(sg) = placement.subgroups.get(inst.subgroup_idx) else {
                continue;
            };
            for (nf_idx, node) in sg.nodes.iter().enumerate() {
                let Some(kind) = inst.runtime.nf_kind(nf_idx) else {
                    continue;
                };
                nf_index.push(NfLocator {
                    chain: sg.chain,
                    node: *node,
                    replica: inst.replica,
                    kind,
                    server: s,
                    inst_idx,
                    nf_idx,
                });
            }
        }
    }
    nf_index.sort_by_key(|l| (l.chain, l.node, l.replica));
    let platforms = Platforms {
        switch,
        servers,
        nics,
        subgroup_cycles,
        nf_index,
        tor_nat,
    };
    Ok((platforms, pisa))
}

#[cfg(test)]
mod tests;
