//! The discrete-event cross-platform execution engine.

use crate::faults::{FaultKind, FaultPlan, FaultState, MigrationFaultKind};
use crate::flowsim::{FlowPacketSource, Scenario, TailCell, TailPlan};
use crate::migrate::{
    decode_record, nat_binding_entries, MigrationError, MigrationStats, NfLocator, StateRecord,
    StateTransfer, TorNatTarget,
};
use crate::report::{
    ChainStats, ConservationLedger, DropReason, SimReport, TimelineEvent, ViolationKind,
    WindowSample,
};
use crate::traffic::{ChainSource, TrafficSpec};
use lemur_bess::CoreId;
use lemur_core::Slo;
use lemur_ebpf::{Vm, XdpVerdict};
use lemur_metacompiler::bessgen::ServerPipeline;
use lemur_metacompiler::Deployment;
use lemur_nf::{AggregateObservables, AggregateUpdate, NfCtx, NfKind};
use lemur_p4sim::{PisaModel, Switch};
use lemur_packet::PacketBuf;
use lemur_placer::placement::{EvaluatedPlacement, PlacementProblem};
use lemur_placer::topology::Tor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Propagation + PHY latency per link traversal (ns).
const PROP_NS: u64 = 500;
/// Demultiplexer cost per packet (cycles on the demux core).
const DEMUX_CYCLES: f64 = 300.0;
/// Safety cap on per-packet hops (a mis-programmed chain loops forever
/// otherwise).
const MAX_HOPS: u8 = 64;

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
    /// SLO-guard sampling window (ns of virtual time). The guard only
    /// runs when `run_with_faults` is given per-chain SLOs.
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
    /// [`DropReason::QueueOverflow`]. Empty disables the constraint
    /// (the tail is assumed deliverable).
    pub capacity_bps: Vec<f64>,
    /// Bound on the per-chain fluid-queue backlog (packets). Mass
    /// arriving when the backlog is full overflows to
    /// [`DropReason::QueueOverflow`]; `0` restores the drop-only
    /// capacity budget (no queueing, no added waiting time).
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
        }
    }
}

impl std::error::Error for ScenarioError {}

/// Uniform packet feed: the classic steady-rate generator or a
/// materialized flow schedule (the hybrid engine's heavy-hitter set).
enum PacketSource {
    Steady(ChainSource),
    Flows(FlowPacketSource),
}

impl PacketSource {
    fn peek_time(&self) -> u64 {
        match self {
            PacketSource::Steady(s) => s.peek_time(),
            PacketSource::Flows(s) => s.peek_time(),
        }
    }

    fn next_packet(&mut self) -> Option<(u64, PacketBuf)> {
        match self {
            PacketSource::Steady(s) => Some(s.next_packet()),
            PacketSource::Flows(s) => s.next_packet(),
        }
    }

    fn set_rate_factor(&mut self, factor: f64) {
        match self {
            PacketSource::Steady(s) => s.set_rate_factor(factor),
            PacketSource::Flows(s) => s.set_rate_factor(factor),
        }
    }
}

/// Run-time cursor over a [`TailPlan`]: which cells have been charged.
struct TailState {
    plan: TailPlan,
    /// Wire bytes per packet, per chain.
    frame_bytes: Vec<u64>,
    /// Per-chain capacity (empty = unconstrained).
    capacity_bps: Vec<f64>,
    /// Per-chain fluid-queue backlog (packets queued above capacity,
    /// draining at capacity across subsequent windows).
    backlog: Vec<u64>,
    /// Backlog bound: mass past this overflows to
    /// [`DropReason::QueueOverflow`].
    buffer_packets: u64,
    /// Next full-window row of `plan.windows` to apply.
    next_window: usize,
    warmup_applied: bool,
}

/// A FIFO station with a single server.
#[derive(Debug, Default, Clone, Copy)]
struct Station {
    free_at: u64,
}

impl Station {
    /// Try to serve an arrival: returns completion time, or `None` if the
    /// queue is too long (drop).
    fn serve(&mut self, now: u64, service_ns: u64, max_queue_ns: u64) -> Option<u64> {
        let start = now.max(self.free_at);
        if start - now > max_queue_ns {
            return None;
        }
        let done = start + service_ns;
        self.free_at = done;
        Some(done)
    }
}

/// A [`ServerPipeline`]'s routing maps lowered once, at build time, into
/// tables indexed by global subgroup index, so a server visit hashes
/// nothing. The maps stay the source of truth (and stay `pub` for
/// callers outside the engine); a subgroup the maps do not mention — in
/// range or not — answers as they would: no instance, no rewrite, no
/// internal hop, one replica.
struct ServerTables {
    routes: Vec<SubgroupRoute>,
}

struct SubgroupRoute {
    /// `inst_of[replica]` = index into `pipeline.instances`.
    inst_of: Vec<Option<usize>>,
    /// Branch rewrites `(incoming spi, gate) → outgoing spi`, sorted.
    gate_spi: Vec<((u32, usize), u32)>,
    /// Intra-server wiring `gate → next subgroup`, sorted.
    next: Vec<(usize, usize)>,
    replica_count: usize,
}

impl ServerTables {
    fn lower(pipeline: &ServerPipeline) -> ServerTables {
        let mut routes: Vec<SubgroupRoute> = Vec::new();
        fn route(routes: &mut Vec<SubgroupRoute>, sg: usize) -> &mut SubgroupRoute {
            if routes.len() <= sg {
                routes.resize_with(sg + 1, || SubgroupRoute {
                    inst_of: Vec::new(),
                    gate_spi: Vec::new(),
                    next: Vec::new(),
                    replica_count: 1,
                });
            }
            &mut routes[sg]
        }
        for (&(sg, replica), &inst) in &pipeline.instance_map {
            let inst_of = &mut route(&mut routes, sg).inst_of;
            if inst_of.len() <= replica {
                inst_of.resize(replica + 1, None);
            }
            inst_of[replica] = Some(inst);
        }
        for (&sg, rule) in &pipeline.mux_rules {
            let r = route(&mut routes, sg);
            r.gate_spi = rule.gate_spi.iter().map(|(&k, &v)| (k, v)).collect();
            r.gate_spi.sort_unstable();
        }
        for (&(sg, gate), &next_sg) in &pipeline.internal_next {
            route(&mut routes, sg).next.push((gate, next_sg));
        }
        for (&sg, &n) in &pipeline.replicas {
            route(&mut routes, sg).replica_count = n;
        }
        for r in &mut routes {
            r.next.sort_unstable();
        }
        ServerTables { routes }
    }

    fn instance(&self, sg: usize, replica: usize) -> Option<usize> {
        *self.routes.get(sg)?.inst_of.get(replica)?
    }

    fn next_spi(&self, sg: usize, spi: u32, gate: usize) -> Option<u32> {
        let rules = &self.routes.get(sg)?.gate_spi;
        let i = rules.binary_search_by_key(&(spi, gate), |&(k, _)| k).ok()?;
        Some(rules[i].1)
    }

    fn next_subgroup(&self, sg: usize, gate: usize) -> Option<usize> {
        let next = &self.routes.get(sg)?.next;
        let i = next.binary_search_by_key(&gate, |&(g, _)| g).ok()?;
        Some(next[i].1)
    }

    fn replica_count(&self, sg: usize) -> usize {
        self.routes.get(sg).map_or(1, |r| r.replica_count)
    }
}

struct ServerSim {
    pipeline: ServerPipeline,
    tables: ServerTables,
    demux: Station,
    /// Worker-core stations, indexed by core id.
    cores: Vec<Station>,
    clock_hz: f64,
    /// Discount for instances on the NIC's socket: the profile is
    /// worst-case cross-socket, so same-socket cores run faster.
    same_socket_factor: f64,
    nic_socket: lemur_bess::SocketId,
    spec: lemur_bess::ServerSpec,
}

struct NicSim {
    program: lemur_ebpf::Program,
    proc: Station,
    link_in: Station,
    link_out: Station,
    clock_hz: f64,
    link_bps: f64,
}

struct SimPacket {
    buf: PacketBuf,
    chain: usize,
    t_in: u64,
    ingress_bits: u64,
    hops: u8,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Hop {
    /// Apply fault-plan event `i`. Declared first so that at equal
    /// `(time, id)` a fault applies before any packet hop.
    Fault(usize),
    /// Pacemaker for the SLO-guard / tail window grid. Windows close
    /// lazily as events pop, so without this a run whose heap holds no
    /// packet events (e.g. a pure analytic-tail scenario) would close
    /// every window in one catch-up burst at the first pop — handing the
    /// control hook a garbage `now` and scheduling any staged swap after
    /// the whole run. The tick pins each window boundary to a real heap
    /// event; its handler is otherwise a no-op.
    WindowTick,
    Inject(usize),
    AtTor,
    AtServer(usize),
    /// Core processing finished; reserve the server→ToR link *now* (a
    /// separate event so link reservations happen in true arrival order —
    /// reserving at enqueue time would let one backed-up replica inflate
    /// every other replica's link start time).
    ServerEgress(usize),
    AtNic(usize),
    Deliver,
    /// End of a drain window: swap the staged configuration in. Declared
    /// last so that at an equal `(time, id)` every fault and packet hop
    /// settles before the epoch changes.
    EpochSwap,
}

/// One scheduled hop: `(time, id, hop)`, popped in ascending order. The
/// id is the packet's (or `0` for faults, ticks and swaps, `u64::MAX - chain`
/// for injects), so equal-time events replay in a fixed order; no two
/// queued events share a key, hence pop order is a property of the keys
/// alone and not of the queue that holds them.
type Event = (u64, u64, Hop);

/// Binary min-heap of [`Event`]s tuned to the engine's rhythm: nearly
/// every `pop` is followed by one `push` (the popped packet's next hop).
/// `pop` therefore leaves the root as a hole instead of repairing the
/// heap, and the following `push` drops its event into the hole with a
/// single sift-down — where pop-then-push on a plain heap pays a
/// sift-down *and* a sift-up. A second `pop` (or nothing) arriving first
/// just closes the hole the ordinary way. Either way every `pop` returns
/// the least queued key, which is all the engine can observe.
#[derive(Default)]
struct EventQueue {
    heap: Vec<Event>,
    /// `heap[0]` was handed out by the last `pop` and is vacant.
    hole: bool,
}

impl EventQueue {
    fn push(&mut self, event: Event) {
        if self.hole {
            self.hole = false;
            self.sift_down(event);
        } else {
            let mut i = self.heap.len();
            self.heap.push(event);
            while i > 0 {
                let parent = (i - 1) / 2;
                if self.heap[parent] <= event {
                    break;
                }
                self.heap[i] = self.heap[parent];
                i = parent;
            }
            self.heap[i] = event;
        }
    }

    fn pop(&mut self) -> Option<Event> {
        if self.hole {
            self.hole = false;
            let last = self.heap.pop()?;
            if !self.heap.is_empty() {
                self.sift_down(last);
            }
        }
        let top = *self.heap.first()?;
        self.hole = true;
        Some(top)
    }

    /// Place `event` at the vacant root and restore heap order.
    fn sift_down(&mut self, event: Event) {
        let n = self.heap.len();
        let mut i = 0;
        loop {
            let mut child = 2 * i + 1;
            if child >= n {
                break;
            }
            if child + 1 < n && self.heap[child + 1] < self.heap[child] {
                child += 1;
            }
            if event <= self.heap[child] {
                break;
            }
            self.heap[i] = self.heap[child];
            i = child;
        }
        self.heap[i] = event;
    }
}

/// Multiplicative (Fibonacci) hash for the sequential packet ids: one
/// multiply spreads consecutive ids over the table's buckets and control
/// bytes. Ids are minted by the engine, never read from input, so there
/// is no collision attack for SipHash to defend against.
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, id: u64) {
        self.0 = (self.0 ^ id).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

/// The packets in flight, by id. An event whose packet is gone (dropped
/// at an epoch swap) simply misses here; ids are never reused, so a
/// stale event cannot find somebody else's packet.
#[derive(Default)]
struct PacketTable {
    by_id: HashMap<u64, SimPacket, BuildHasherDefault<IdHasher>>,
}

impl PacketTable {
    fn insert(&mut self, id: u64, packet: SimPacket) {
        self.by_id.insert(id, packet);
    }

    fn get(&self, id: u64) -> Option<&SimPacket> {
        self.by_id.get(&id)
    }

    fn get_mut(&mut self, id: u64) -> Option<&mut SimPacket> {
        self.by_id.get_mut(&id)
    }

    fn remove(&mut self, id: u64) -> Option<SimPacket> {
        self.by_id.remove(&id)
    }

    fn len(&self) -> usize {
        self.by_id.len()
    }

    /// Every in-flight id, ascending — the deterministic order an epoch
    /// swap charges its update-time loss in.
    fn sorted_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.by_id.keys().copied().collect();
        ids.sort_unstable();
        ids
    }
}

/// A pre-built configuration waiting to be swapped in at the end of a
/// drain window (phase one of the two-phase commit). Compiling and
/// loading happen here, off the "live" path, so the swap itself is
/// atomic from the dataplane's point of view.
pub struct StagedConfig {
    switch: Switch,
    servers: Vec<Option<ServerSim>>,
    nics: Vec<Option<NicSim>>,
    subgroup_cycles: Vec<f64>,
    /// Where each state-bearing NF lives in this configuration.
    nf_index: Vec<NfLocator>,
    /// NAT nodes whose tables live on the ToR in this configuration.
    tor_nat: Vec<TorNatTarget>,
    /// Per *original* chain: is it admitted in the new epoch? Shed
    /// chains have their packets refused at inject ([`DropReason::Shed`]).
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
        let parts = build_parts(problem, placement, deployment)?;
        Ok(StagedConfig {
            switch: parts.switch,
            servers: parts.servers,
            nics: parts.nics,
            subgroup_cycles: parts.subgroup_cycles,
            nf_index: parts.nf_index,
            tor_nat: parts.tor_nat,
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
    /// [`DropReason::Admission`] from this instant on. No epoch swap, no
    /// drain window — it takes effect at the next tail application.
    /// Only meaningful in hybrid runs (packet-level runs carry no junk
    /// marking); a no-op there.
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
    switch: Switch,
    servers: Vec<Option<ServerSim>>,
    nics: Vec<Option<NicSim>>,
    n_chains: usize,
    pisa: PisaModel,
    /// ToR→server and server→ToR link stations, per server.
    tor_to_server: Vec<Station>,
    server_to_tor: Vec<Station>,
    tor_out: Station,
    link_bps: Vec<f64>,
    tor_rate_bps: f64,
    subgroup_cycles: Vec<f64>,
    /// Where each state-bearing NF lives in the current epoch.
    nf_index: Vec<NfLocator>,
    /// NAT nodes whose tables live on the ToR in the current epoch.
    tor_nat: Vec<TorNatTarget>,
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
        let parts = build_parts(problem, placement, deployment)?;
        let n_servers = problem.topology.servers.len();
        let link_bps: Vec<f64> = (0..n_servers)
            .map(|s| problem.topology.server_link_bps(s))
            .collect();
        Ok(Testbed {
            switch: parts.switch,
            servers: parts.servers,
            nics: parts.nics,
            n_chains: problem.chains.len(),
            pisa: parts.pisa,
            tor_to_server: vec![Station::default(); n_servers],
            server_to_tor: vec![Station::default(); n_servers],
            tor_out: Station::default(),
            link_bps,
            tor_rate_bps: parts.pisa.port_rate_bps,
            subgroup_cycles: parts.subgroup_cycles,
            nf_index: parts.nf_index,
            tor_nat: parts.tor_nat,
        })
    }

    /// `(fused replicas, total replicas)` across all servers — lets tests
    /// and benches assert which runtime a testbed actually executes.
    pub fn runtime_census(&self) -> (usize, usize) {
        let mut fused = 0;
        let mut total = 0;
        for server in self.servers.iter().flatten() {
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
    /// [`DropReason::Reconfig`] (the update-time-loss metric) in sorted
    /// packet-id order, so supervised runs stay bit-for-bit reproducible.
    pub fn run_supervised(
        &mut self,
        specs: &[TrafficSpec],
        config: SimConfig,
        plan: &FaultPlan,
        slos: &[Option<Slo>],
        hook: &mut dyn ControlHook,
    ) -> SimReport {
        assert_eq!(specs.len(), self.n_chains, "one spec per chain");
        let sources: Vec<PacketSource> = specs
            .iter()
            .enumerate()
            .map(|(i, s)| {
                PacketSource::Steady(ChainSource::new(
                    s.clone(),
                    config.seed.wrapping_add(i as u64),
                ))
            })
            .collect();
        let offered: Vec<f64> = specs.iter().map(|s| s.offered_bps).collect();
        self.run_internal(sources, None, &offered, config, plan, slos, hook)
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
    /// tail mass.
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
        assert_eq!(scenario.n_chains, self.n_chains, "one chain load per chain");
        assert_eq!(specs.len(), self.n_chains, "one spec per chain");
        let horizon_ns = ((config.warmup_s + config.duration_s) * 1e9) as u64;
        assert_eq!(
            scenario.horizon_ns, horizon_ns,
            "scenario horizon must equal warmup_s + duration_s"
        );
        let warmup_ns = (config.warmup_s * 1e9) as u64;
        let frame_bytes: Vec<u64> = specs.iter().map(|s| (s.payload_len + 42) as u64).collect();
        // Report the *realized* offered load, not a nominal rate.
        let horizon_s = scenario.horizon_ns as f64 / 1e9;
        let mut offered = vec![0f64; self.n_chains];
        for f in &scenario.flows {
            offered[f.chain] += (f.packets * frame_bytes[f.chain] * 8) as f64 / horizon_s;
        }
        let theta = match mode {
            HybridMode::PacketLevel => 0,
            HybridMode::Hybrid(hc) => hc.heavy_min_packets,
        };
        let sources: Vec<PacketSource> = specs
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
            HybridMode::Hybrid(hc) => Some(TailState {
                plan: scenario.tail_plan(
                    hc.heavy_min_packets,
                    warmup_ns,
                    config.window_ns.max(1),
                    &frame_bytes,
                ),
                frame_bytes,
                capacity_bps: hc.capacity_bps.clone(),
                backlog: vec![0; self.n_chains],
                buffer_packets: hc.queue_buffer_packets,
                next_window: 0,
                warmup_applied: false,
            }),
        };
        Ok(self.run_internal(sources, tail, &offered, config, plan, slos, hook))
    }

    /// Aggregate observables of every server-resident NF instance as
    /// `(chain, node, replica, kind, observables)` in deterministic
    /// `(chain, node, replica)` order — packet-path state and applied
    /// tail aggregates combined. NAT tables offloaded to the ToR are not
    /// included (the tail sweep doesn't reach them either, so the two
    /// views stay comparable).
    pub fn nf_observables(&self) -> Vec<(usize, usize, usize, NfKind, AggregateObservables)> {
        let mut out = Vec::with_capacity(self.nf_index.len());
        for loc in &self.nf_index {
            let Some(Some(srv)) = self.servers.get(loc.server) else {
                continue;
            };
            let Some(inst) = srv.pipeline.instances.get(loc.inst_idx) else {
                continue;
            };
            if let Some(obs) = inst.runtime.nf_observables(loc.nf_idx) {
                out.push((loc.chain, loc.node.0, loc.replica, loc.kind, obs));
            }
        }
        out
    }

    #[allow(clippy::too_many_arguments)]
    fn run_internal(
        &mut self,
        mut sources: Vec<PacketSource>,
        mut tail: Option<TailState>,
        offered_bps: &[f64],
        config: SimConfig,
        plan: &FaultPlan,
        slos: &[Option<Slo>],
        hook: &mut dyn ControlHook,
    ) -> SimReport {
        assert_eq!(sources.len(), self.n_chains, "one source per chain");
        assert!(
            slos.is_empty() || slos.len() == self.n_chains,
            "SLO guard needs one (optional) SLO per chain"
        );
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0x1e307);
        let horizon_ns = ((config.warmup_s + config.duration_s) * 1e9) as u64;
        let warmup_ns = (config.warmup_s * 1e9) as u64;
        // A packet has exactly one event queued at a time, and the event's
        // id is the packet's key in `packets`; its frame and bookkeeping
        // wait there between hops. Packet ids count up from 1 (injection
        // order breaks ties at equal times); id 0 is reserved for fault
        // events so a fault at the same instant as a packet hop applies
        // first.
        let mut queue = EventQueue::default();
        let mut packets = PacketTable::default();
        let mut next_id: u64 = 1;
        for (ci, src) in sources.iter().enumerate() {
            queue.push((src.peek_time(), u64::MAX - ci as u64, Hop::Inject(ci)));
        }
        for (fi, ev) in plan.events().iter().enumerate() {
            if ev.at_ns < horizon_ns {
                queue.push((ev.at_ns, 0, Hop::Fault(fi)));
            }
        }
        // One pacemaker tick per guard window (chained as they pop), so
        // window closes — and the control hook's view of `now` — never
        // depend on packet traffic existing. Window accounting is
        // span-based, so runs that already had packet events are
        // unchanged by the extra no-op pops.
        let first_tick = warmup_ns + config.window_ns.max(1);
        if (!slos.is_empty() || tail.is_some()) && first_tick <= horizon_ns {
            queue.push((first_tick, 0, Hop::WindowTick));
        }
        let mut fault_state = FaultState::healthy(self.servers.len());
        let mut timeline: Vec<TimelineEvent> = Vec::new();
        let mut ledger = ConservationLedger::default();

        let mut stats: Vec<ChainStats> = offered_bps
            .iter()
            .map(|&o| ChainStats {
                offered_bps: o,
                ..Default::default()
            })
            .collect();
        let mut latency_sum = vec![0f64; self.n_chains];
        // Latency denominators are tracked separately from delivered
        // counts: analytic-tail deliveries add packets but no latency
        // samples, and must not dilute the mean.
        let mut latency_packets = vec![0u64; self.n_chains];

        // Epoch state for live reconfiguration.
        let mut epoch: u64 = 0;
        let mut pending_swap: Option<Box<StagedConfig>> = None;
        let mut admitted: Vec<bool> = vec![true; self.n_chains];
        // Tail admission control (ladder rung 1): per-chain junk denial,
        // flipped by ControlAction::SetTailAdmission without an epoch swap.
        let mut deny_junk: Vec<bool> = vec![false; self.n_chains];
        // The guard bounds are swappable (a commit replaces them so shed
        // chains stop being flagged), so keep a local copy.
        let mut slos_live: Vec<Option<Slo>> = slos.to_vec();

        // SLO-guard window state. Windows also close (without SLO checks)
        // when an analytic tail is attached: its cells are applied at
        // window boundaries, so the grid must advance.
        let guard_on = !slos.is_empty();
        let windows_on = guard_on || tail.is_some();
        let window_ns = config.window_ns.max(1);
        let mut window_acc: Vec<WindowAcc> = vec![WindowAcc::default(); self.n_chains];
        let mut window_start = warmup_ns;
        // Every whole window up to the horizon closes, one sample per
        // chain: size the report's vector exactly instead of growing it, so
        // a caller that keeps many reports keeps no doubling slack. (Capped:
        // a degenerate window/duration pair must not reserve the world.)
        let whole_windows = (horizon_ns.saturating_sub(warmup_ns) / window_ns) as usize;
        let samples = if windows_on {
            whole_windows.saturating_mul(self.n_chains).min(1 << 16)
        } else {
            0
        };
        let mut windows: Vec<WindowSample> = Vec::with_capacity(samples);
        fn close_window(
            end_ns: u64,
            start_ns: u64,
            acc: &mut [WindowAcc],
            backlog: &[u64],
            windows: &mut Vec<WindowSample>,
            timeline: &mut Vec<TimelineEvent>,
            slos: &[Option<Slo>],
        ) {
            let span_s = (end_ns - start_ns) as f64 / 1e9;
            for (ci, a) in acc.iter_mut().enumerate() {
                let delivered_bps = if span_s > 0.0 { a.bits / span_s } else { 0.0 };
                let mean_latency_ns = if a.lat_packets > 0 {
                    a.lat_sum / a.lat_packets as f64
                } else {
                    0.0
                };
                windows.push(WindowSample {
                    start_ns,
                    end_ns,
                    chain: ci,
                    delivered_bps,
                    delivered_packets: a.packets,
                    dropped_packets: a.drops,
                    mean_latency_ns,
                    arrived_packets: a.arrivals,
                    junk_packets: a.junk,
                    backlog_packets: backlog.get(ci).copied().unwrap_or(0),
                });
                if let Some(Some(slo)) = slos.get(ci) {
                    if delivered_bps < slo.t_min_bps {
                        timeline.push(TimelineEvent::SloViolation {
                            at_ns: end_ns,
                            chain: ci,
                            kind: ViolationKind::RateBelowMin,
                            observed: delivered_bps,
                            bound: slo.t_min_bps,
                        });
                    }
                    if let Some(d_max) = slo.d_max_ns {
                        if a.lat_packets > 0 && mean_latency_ns > d_max {
                            timeline.push(TimelineEvent::SloViolation {
                                at_ns: end_ns,
                                chain: ci,
                                kind: ViolationKind::LatencyAboveMax,
                                observed: mean_latency_ns,
                                bound: d_max,
                            });
                        }
                    }
                }
                *a = WindowAcc::default();
            }
        }

        // Apply a hook's verdict: stage at most one pending swap, or flip
        // tail admission control in place.
        macro_rules! handle_action {
            ($action:expr, $now:expr) => {
                match $action {
                    ControlAction::Continue => {}
                    ControlAction::SetTailAdmission { deny_junk: dj } => {
                        debug_assert_eq!(dj.len(), self.n_chains);
                        timeline.push(TimelineEvent::AdmissionChange {
                            at_ns: $now,
                            deny_junk: dj.clone(),
                        });
                        deny_junk = dj;
                    }
                    ControlAction::StageCommit { staged, drain_ns } => {
                        if pending_swap.is_none() {
                            debug_assert_eq!(staged.admitted.len(), self.n_chains);
                            debug_assert_eq!(staged.slos.len(), self.n_chains);
                            timeline.push(TimelineEvent::DrainStart {
                                at_ns: $now,
                                epoch,
                                rollback: staged.rollback,
                            });
                            queue.push(($now + drain_ns, 0, Hop::EpochSwap));
                            pending_swap = Some(staged);
                        }
                    }
                }
            };
        }

        while let Some((now, id, hop)) = queue.pop() {
            // Close any SLO-guard windows that ended before this event.
            if windows_on {
                while window_start + window_ns <= now && window_start + window_ns <= horizon_ns {
                    let end = window_start + window_ns;
                    let w0 = windows.len();
                    let t0 = timeline.len();
                    // The closing window's analytic-tail cell lands first
                    // so the sample (and the hook) sees heavy + tail mass.
                    if let Some(ts) = tail.as_mut() {
                        advance_tail(
                            ts,
                            window_start,
                            end,
                            &mut self.servers,
                            &self.nf_index,
                            &admitted,
                            &deny_junk,
                            &mut stats,
                            &mut window_acc,
                            &mut ledger,
                        );
                    }
                    close_window(
                        end,
                        window_start,
                        &mut window_acc,
                        tail.as_ref().map(|t| t.backlog.as_slice()).unwrap_or(&[]),
                        &mut windows,
                        &mut timeline,
                        &slos_live,
                    );
                    window_start = end;
                    let action = hook.on_window(end, &windows[w0..], &timeline[t0..]);
                    handle_action!(action, now);
                }
            }
            match hop {
                Hop::Fault(fi) => {
                    let ev = &plan.events()[fi];
                    match ev.kind {
                        FaultKind::LinkDown { server } => {
                            if let Some(up) = fault_state.link_up.get_mut(server) {
                                *up = false;
                            }
                        }
                        FaultKind::LinkUp { server } => {
                            if let Some(up) = fault_state.link_up.get_mut(server) {
                                *up = true;
                            }
                        }
                        FaultKind::CoreFail { server, core } => {
                            fault_state.failed_cores.insert((server, core));
                        }
                        FaultKind::NfCrash { subgroup } => {
                            fault_state.crashed_subgroups.insert(subgroup);
                        }
                        FaultKind::NfRecover { subgroup } => {
                            fault_state.crashed_subgroups.remove(&subgroup);
                        }
                        FaultKind::ProfileDrift { subgroup, factor } => {
                            if let Some(c) = self.subgroup_cycles.get_mut(subgroup) {
                                *c *= factor;
                            }
                        }
                        FaultKind::TrafficSurge { chain, factor } => {
                            if let Some(src) = sources.get_mut(chain) {
                                src.set_rate_factor(factor);
                            }
                        }
                        FaultKind::MigrationFault { fault } => {
                            // Arms the next epoch swap; nothing happens to
                            // steady-state traffic now.
                            fault_state.armed_migration_faults.push(fault);
                        }
                    }
                    timeline.push(TimelineEvent::Fault {
                        at_ns: now,
                        kind: ev.kind.clone(),
                    });
                    let action = hook.on_fault(now, &ev.kind);
                    handle_action!(action, now);
                }
                Hop::Inject(ci) => {
                    let Some((t, buf)) = sources[ci].next_packet() else {
                        continue;
                    };
                    debug_assert_eq!(t, now);
                    ledger.injected += 1;
                    if now >= warmup_ns && now < horizon_ns {
                        // Arrival accounting happens before any admission
                        // decision — identically in packet-level and hybrid
                        // runs, so θ=0 equivalence holds field-for-field.
                        window_acc[ci].arrivals += 1;
                    }
                    if !admitted[ci] {
                        // The chain is shed in the current epoch: refuse
                        // admission. The source still advances so the
                        // arrival process is identical whether or not
                        // (and when) the chain is re-admitted.
                        ledger.record_drop(DropReason::Shed);
                        if now >= warmup_ns && now < horizon_ns {
                            stats[ci].record_drop(DropReason::Shed);
                            window_acc[ci].drops += 1;
                        }
                    } else {
                        let pid = next_id;
                        next_id += 1;
                        packets.insert(
                            pid,
                            SimPacket {
                                ingress_bits: buf.len() as u64 * 8,
                                buf,
                                chain: ci,
                                t_in: now,
                                hops: 0,
                            },
                        );
                        queue.push((now, pid, Hop::AtTor));
                    }
                    if sources[ci].peek_time() < horizon_ns {
                        queue.push((
                            sources[ci].peek_time(),
                            u64::MAX - ci as u64,
                            Hop::Inject(ci),
                        ));
                    }
                }
                Hop::Deliver => {
                    // A stale event (its packet was dropped at an epoch
                    // swap) is skipped, not a panic: post-swap heaps
                    // legitimately hold hops for packets that no longer
                    // exist.
                    let Some(p) = packets.remove(id) else {
                        continue;
                    };
                    ledger.delivered += 1;
                    // Egress-rate accounting: count packets *exiting* within
                    // the measurement window, so measured throughput is a
                    // true rate even before queues reach steady state.
                    if now >= warmup_ns && now < horizon_ns {
                        let s = &mut stats[p.chain];
                        s.delivered_packets += 1;
                        s.delivered_bps += p.ingress_bits as f64; // finalized below
                        let lat = (now - p.t_in) as f64;
                        latency_sum[p.chain] += lat;
                        latency_packets[p.chain] += 1;
                        s.max_latency_ns = s.max_latency_ns.max(lat);
                        let w = &mut window_acc[p.chain];
                        w.bits += p.ingress_bits as f64;
                        w.packets += 1;
                        w.lat_sum += lat;
                        w.lat_packets += 1;
                    }
                }
                Hop::AtTor => {
                    let Some(p) = packets.get_mut(id) else {
                        continue;
                    };
                    p.hops += 1;
                    if p.hops > MAX_HOPS {
                        drop_packet(
                            &mut packets,
                            &mut stats,
                            &mut window_acc,
                            &mut ledger,
                            id,
                            DropReason::MaxHops,
                            warmup_ns,
                            horizon_ns,
                        );
                        continue;
                    }
                    let bits = p.buf.len() as f64 * 8.0;
                    let verdict = self.switch.process(&mut p.buf);
                    let after_pipe = now
                        + self
                            .pisa
                            .pipeline_latency_ns(self.switch.assignment().num_stages_used.max(1))
                            as u64;
                    if verdict.dropped {
                        drop_packet(
                            &mut packets,
                            &mut stats,
                            &mut window_acc,
                            &mut ledger,
                            id,
                            DropReason::Verdict,
                            warmup_ns,
                            horizon_ns,
                        );
                        continue;
                    }
                    match verdict.egress_port {
                        None => drop_packet(
                            &mut packets,
                            &mut stats,
                            &mut window_acc,
                            &mut ledger,
                            id,
                            DropReason::Verdict,
                            warmup_ns,
                            horizon_ns,
                        ),
                        Some(0) => {
                            // Out port: serialize on the ToR uplink.
                            let ser = (bits / self.tor_rate_bps * 1e9) as u64;
                            match self.tor_out.serve(after_pipe, ser, config.max_queue_ns) {
                                Some(done) => queue.push((done + PROP_NS, id, Hop::Deliver)),
                                None => drop_packet(
                                    &mut packets,
                                    &mut stats,
                                    &mut window_acc,
                                    &mut ledger,
                                    id,
                                    DropReason::QueueOverflow,
                                    warmup_ns,
                                    horizon_ns,
                                ),
                            }
                        }
                        Some(port) if (1..100).contains(&port) => {
                            let s = (port - 1) as usize;
                            if s >= self.tor_to_server.len() {
                                drop_packet(
                                    &mut packets,
                                    &mut stats,
                                    &mut window_acc,
                                    &mut ledger,
                                    id,
                                    DropReason::Verdict,
                                    warmup_ns,
                                    horizon_ns,
                                );
                                continue;
                            }
                            if !fault_state.link_is_up(s) {
                                drop_packet(
                                    &mut packets,
                                    &mut stats,
                                    &mut window_acc,
                                    &mut ledger,
                                    id,
                                    DropReason::Fault,
                                    warmup_ns,
                                    horizon_ns,
                                );
                                continue;
                            }
                            let ser = (bits / self.link_bps[s] * 1e9) as u64;
                            match self.tor_to_server[s].serve(after_pipe, ser, config.max_queue_ns)
                            {
                                Some(done) => queue.push((done + PROP_NS, id, Hop::AtServer(s))),
                                None => drop_packet(
                                    &mut packets,
                                    &mut stats,
                                    &mut window_acc,
                                    &mut ledger,
                                    id,
                                    DropReason::QueueOverflow,
                                    warmup_ns,
                                    horizon_ns,
                                ),
                            }
                        }
                        Some(port) => {
                            let n = (port - 100) as usize;
                            let Some(Some(nic)) = self.nics.get_mut(n) else {
                                drop_packet(
                                    &mut packets,
                                    &mut stats,
                                    &mut window_acc,
                                    &mut ledger,
                                    id,
                                    DropReason::Verdict,
                                    warmup_ns,
                                    horizon_ns,
                                );
                                continue;
                            };
                            let ser = (bits / nic.link_bps * 1e9) as u64;
                            match nic.link_in.serve(after_pipe, ser, config.max_queue_ns) {
                                Some(done) => queue.push((done + PROP_NS, id, Hop::AtNic(n))),
                                None => drop_packet(
                                    &mut packets,
                                    &mut stats,
                                    &mut window_acc,
                                    &mut ledger,
                                    id,
                                    DropReason::QueueOverflow,
                                    warmup_ns,
                                    horizon_ns,
                                ),
                            }
                        }
                    }
                }
                Hop::AtServer(s) => {
                    let outcome = {
                        let Some(server) = self.servers[s].as_mut() else {
                            drop_packet(
                                &mut packets,
                                &mut stats,
                                &mut window_acc,
                                &mut ledger,
                                id,
                                DropReason::Verdict,
                                warmup_ns,
                                horizon_ns,
                            );
                            continue;
                        };
                        let Some(p) = packets.get_mut(id) else {
                            continue;
                        };
                        server_hop(
                            server,
                            s,
                            p,
                            now,
                            &config,
                            &self.subgroup_cycles,
                            &fault_state,
                            &mut rng,
                        )
                    };
                    match outcome {
                        Ok(done_at) => {
                            queue.push((done_at, id, Hop::ServerEgress(s)));
                        }
                        Err(reason) => drop_packet(
                            &mut packets,
                            &mut stats,
                            &mut window_acc,
                            &mut ledger,
                            id,
                            reason,
                            warmup_ns,
                            horizon_ns,
                        ),
                    }
                }
                Hop::ServerEgress(s) => {
                    // Back over the server→ToR link, reserved at the moment
                    // the core actually finished.
                    let Some(p) = packets.get(id) else { continue };
                    if !fault_state.link_is_up(s) {
                        drop_packet(
                            &mut packets,
                            &mut stats,
                            &mut window_acc,
                            &mut ledger,
                            id,
                            DropReason::Fault,
                            warmup_ns,
                            horizon_ns,
                        );
                        continue;
                    }
                    let bits = p.buf.len() as f64 * 8.0;
                    let ser = (bits / self.link_bps[s] * 1e9) as u64;
                    match self.server_to_tor[s].serve(now, ser, config.max_queue_ns) {
                        Some(done) => queue.push((done + PROP_NS, id, Hop::AtTor)),
                        None => drop_packet(
                            &mut packets,
                            &mut stats,
                            &mut window_acc,
                            &mut ledger,
                            id,
                            DropReason::QueueOverflow,
                            warmup_ns,
                            horizon_ns,
                        ),
                    }
                }
                Hop::AtNic(n) => {
                    // Process on the NIC, then reserve its egress link —
                    // both under one borrow so no post-hoc re-lookup (and
                    // no unwrap) is needed.
                    let outcome = {
                        let Some(nic) = self.nics[n].as_mut() else {
                            drop_packet(
                                &mut packets,
                                &mut stats,
                                &mut window_acc,
                                &mut ledger,
                                id,
                                DropReason::Verdict,
                                warmup_ns,
                                horizon_ns,
                            );
                            continue;
                        };
                        let Some(p) = packets.get_mut(id) else {
                            continue;
                        };
                        nic_hop(nic, p, now, &config).map(|done_at| {
                            let bits = p.buf.len() as f64 * 8.0;
                            let ser = (bits / nic.link_bps * 1e9) as u64;
                            nic.link_out.serve(done_at, ser, config.max_queue_ns)
                        })
                    };
                    match outcome {
                        Ok(Some(done)) => queue.push((done + PROP_NS, id, Hop::AtTor)),
                        Ok(None) => drop_packet(
                            &mut packets,
                            &mut stats,
                            &mut window_acc,
                            &mut ledger,
                            id,
                            DropReason::QueueOverflow,
                            warmup_ns,
                            horizon_ns,
                        ),
                        Err(reason) => drop_packet(
                            &mut packets,
                            &mut stats,
                            &mut window_acc,
                            &mut ledger,
                            id,
                            reason,
                            warmup_ns,
                            horizon_ns,
                        ),
                    }
                }
                Hop::WindowTick => {
                    // The catch-up loop above already closed the window
                    // this tick paces; just chain the next one.
                    let next = now + window_ns;
                    if next <= horizon_ns {
                        queue.push((next, 0, Hop::WindowTick));
                    }
                }
                Hop::EpochSwap => {
                    let Some(mut staged) = pending_swap.take().map(|b| *b) else {
                        continue;
                    };
                    // State migration runs inside the drain window:
                    // snapshot the old epoch, apply any armed migration
                    // faults to the transfer, restore into the staged
                    // configuration, and verify. A failure aborts the
                    // whole swap — the old epoch stays live with its
                    // state intact (the rollback to last-known-good).
                    let mut transfer = capture_state(&self.servers, &self.nf_index);
                    let snapshots = transfer.declared as u64;
                    let armed = std::mem::take(&mut fault_state.armed_migration_faults);
                    for fault in &armed {
                        transfer.apply_fault(*fault);
                    }
                    let migration = if armed.contains(&MigrationFaultKind::ControlCrash) {
                        Err(MigrationError::ControlCrash)
                    } else if armed.contains(&MigrationFaultKind::RestoreTimeout) {
                        Err(MigrationError::RestoreTimeout)
                    } else {
                        apply_transfer(&transfer, &mut staged)
                    };
                    let mut mig_stats = match migration {
                        Ok(s) => s,
                        Err(error) => {
                            timeline.push(TimelineEvent::MigrationAborted {
                                at_ns: now,
                                epoch,
                                error: error.clone(),
                            });
                            hook.on_migration_failed(now, &error);
                            continue;
                        }
                    };
                    mig_stats.snapshots = snapshots;
                    // Phase two of the commit: anything still in flight
                    // missed the drain window and is charged to the swap
                    // (update-time loss). Sorted id order keeps the drop
                    // sequence — and thus the report — deterministic.
                    let stale = packets.sorted_ids();
                    let packets_lost = stale.len() as u64;
                    for sid in stale {
                        drop_packet(
                            &mut packets,
                            &mut stats,
                            &mut window_acc,
                            &mut ledger,
                            sid,
                            DropReason::Reconfig,
                            warmup_ns,
                            horizon_ns,
                        );
                    }
                    // Atomic swap: compute state is replaced, physical
                    // link stations (and their backlog) persist.
                    self.switch = staged.switch;
                    self.servers = staged.servers;
                    self.nics = staged.nics;
                    self.subgroup_cycles = staged.subgroup_cycles;
                    self.nf_index = staged.nf_index;
                    self.tor_nat = staged.tor_nat;
                    admitted = staged.admitted;
                    slos_live = staged.slos;
                    epoch += 1;
                    timeline.push(TimelineEvent::Migration {
                        at_ns: now,
                        epoch,
                        stats: mig_stats,
                    });
                    timeline.push(TimelineEvent::EpochCommit {
                        at_ns: now,
                        epoch,
                        packets_lost,
                        rollback: staged.rollback,
                    });
                    hook.on_commit(now, epoch, packets_lost, staged.rollback);
                }
            }
        }

        // Flush any windows still open at the horizon. (No hook calls:
        // the run is over, nothing can be staged anymore.)
        if windows_on {
            while window_start + window_ns <= horizon_ns {
                let end = window_start + window_ns;
                if let Some(ts) = tail.as_mut() {
                    advance_tail(
                        ts,
                        window_start,
                        end,
                        &mut self.servers,
                        &self.nf_index,
                        &admitted,
                        &deny_junk,
                        &mut stats,
                        &mut window_acc,
                        &mut ledger,
                    );
                }
                close_window(
                    end,
                    window_start,
                    &mut window_acc,
                    tail.as_ref().map(|t| t.backlog.as_slice()).unwrap_or(&[]),
                    &mut windows,
                    &mut timeline,
                    &slos_live,
                );
                window_start = end;
            }
        }
        // Any tail mass past the last full window (the partial `rest`
        // span) is still owed to the ledger and the chain totals.
        if let Some(ts) = tail.as_mut() {
            finish_tail(
                ts,
                &mut self.servers,
                &self.nf_index,
                &admitted,
                &deny_junk,
                &mut stats,
                &mut window_acc,
                &mut ledger,
            );
        }
        // Undrained fluid-queue backlog at the horizon is in flight, not
        // lost: it balances the ledger exactly like packets still on the
        // wire.
        ledger.in_flight_at_end = packets.len() as u64
            + tail
                .as_ref()
                .map(|t| t.backlog.iter().sum::<u64>())
                .unwrap_or(0);

        // Finalize rates. The latency mean divides by the count of
        // *latency-carrying* deliveries (identical to delivered_packets
        // in pure packet-level runs).
        for (ci, s) in stats.iter_mut().enumerate() {
            s.delivered_bps /= config.duration_s;
            if latency_packets[ci] > 0 {
                s.mean_latency_ns = latency_sum[ci] / latency_packets[ci] as f64;
            }
        }
        SimReport {
            per_chain: stats,
            duration_s: config.duration_s,
            timeline,
            windows,
            ledger,
        }
    }
}

/// Compiled simulation state shared by [`Testbed::build`] and
/// [`StagedConfig::build`].
struct BuiltParts {
    switch: Switch,
    pisa: PisaModel,
    servers: Vec<Option<ServerSim>>,
    nics: Vec<Option<NicSim>>,
    subgroup_cycles: Vec<f64>,
    nf_index: Vec<NfLocator>,
    tor_nat: Vec<TorNatTarget>,
}

fn build_parts(
    problem: &PlacementProblem,
    placement: &EvaluatedPlacement,
    deployment: Deployment,
) -> Result<BuiltParts, BuildError> {
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
    Ok(BuiltParts {
        switch,
        pisa,
        servers,
        nics,
        subgroup_cycles,
        nf_index,
        tor_nat,
    })
}

/// Snapshot every state-bearing NF of the live configuration, in the
/// deterministic `(chain, node, replica)` order of the index. NFs that
/// export no state (stateless kinds) are simply absent from the transfer.
fn capture_state(servers: &[Option<ServerSim>], nf_index: &[NfLocator]) -> StateTransfer {
    let mut records = Vec::new();
    for loc in nf_index {
        let Some(Some(srv)) = servers.get(loc.server) else {
            continue;
        };
        let Some(inst) = srv.pipeline.instances.get(loc.inst_idx) else {
            continue;
        };
        if let Some(snap) = inst.runtime.snapshot_nf(loc.nf_idx) {
            records.push(StateRecord {
                chain: loc.chain,
                node: loc.node,
                replica: loc.replica,
                kind: loc.kind,
                bytes: snap.encode(),
            });
        }
    }
    StateTransfer::new(records)
}

/// Restore a transfer into a staged configuration, verifying integrity at
/// every step. Server-resident targets get a byte-exact restore checked
/// by state fingerprint; NAT nodes that moved onto the ToR have their
/// bindings re-expressed as P4 table entries; records whose node has no
/// target in the new placement (e.g. a shed chain) are dropped
/// deliberately. Errors leave the *live* configuration untouched — only
/// `staged`, which the caller then discards.
fn apply_transfer(
    transfer: &StateTransfer,
    staged: &mut StagedConfig,
) -> Result<MigrationStats, MigrationError> {
    if transfer.records.len() != transfer.declared {
        return Err(MigrationError::Truncated {
            expected: transfer.declared,
            got: transfer.records.len(),
        });
    }
    let mut stats = MigrationStats::default();
    for rec in &transfer.records {
        let snap = decode_record(rec)?;
        let target = staged
            .nf_index
            .iter()
            .find(|l| l.chain == rec.chain && l.node == rec.node && l.replica == rec.replica)
            .copied();
        if let Some(loc) = target {
            let Some(Some(srv)) = staged.servers.get_mut(loc.server) else {
                stats.dropped += 1;
                continue;
            };
            let Some(inst) = srv.pipeline.instances.get_mut(loc.inst_idx) else {
                stats.dropped += 1;
                continue;
            };
            inst.runtime
                .restore_nf(loc.nf_idx, &snap)
                .map_err(|source| MigrationError::Decode {
                    chain: rec.chain,
                    node: rec.node,
                    replica: rec.replica,
                    source,
                })?;
            if inst.runtime.nf_state_fingerprint(loc.nf_idx) != snap.fingerprint() {
                return Err(MigrationError::FingerprintMismatch {
                    chain: rec.chain,
                    node: rec.node,
                    replica: rec.replica,
                });
            }
            stats.restored += 1;
        } else if let Some(tor) = staged
            .tor_nat
            .iter()
            .find(|t| t.chain == rec.chain && t.node == rec.node)
            .copied()
        {
            // Cross-platform move: the NAT now runs as ToR tables, so its
            // bindings become match-action entries.
            let (ext_ip, bindings) =
                lemur_nf::nat::Nat::decode_bindings(&snap).map_err(|source| {
                    MigrationError::Decode {
                        chain: rec.chain,
                        node: rec.node,
                        replica: rec.replica,
                        source,
                    }
                })?;
            for (tid, entry) in nat_binding_entries(&tor, ext_ip, &bindings) {
                staged.switch.add_entry(tid, entry);
                stats.tor_entries += 1;
            }
        } else {
            stats.dropped += 1;
        }
    }
    Ok(stats)
}

/// Per-chain accumulator for one SLO-guard window.
#[derive(Debug, Default, Clone)]
struct WindowAcc {
    bits: f64,
    packets: u64,
    drops: u64,
    lat_sum: f64,
    /// Deliveries that contributed to `lat_sum` — the packet path plus,
    /// when the fluid queue is active, analytic-tail mass served through
    /// it (its Little's-law waiting time lands in `lat_sum`).
    lat_packets: u64,
    /// Arrivals before any shed/admission/capacity decision: heavy-path
    /// injects plus analytic-tail mass.
    arrivals: u64,
    /// DDoS-flagged analytic-tail arrivals (0 in packet-level runs).
    junk: u64,
}

/// Apply the tail cells owed before the guard window ending at
/// `window_end_ns` closes: the warm-up cell first (exactly once), then
/// the window's own row.
#[allow(clippy::too_many_arguments)]
fn advance_tail(
    ts: &mut TailState,
    window_start_ns: u64,
    window_end_ns: u64,
    servers: &mut [Option<ServerSim>],
    nf_index: &[NfLocator],
    admitted: &[bool],
    deny_junk: &[bool],
    stats: &mut [ChainStats],
    window_acc: &mut [WindowAcc],
    ledger: &mut ConservationLedger,
) {
    let TailState {
        plan,
        frame_bytes,
        capacity_bps,
        backlog,
        buffer_packets,
        next_window,
        warmup_applied,
    } = ts;
    if !*warmup_applied {
        *warmup_applied = true;
        apply_tail_cells(
            &plan.warmup,
            0,
            plan.warmup_ns,
            false,
            false,
            frame_bytes,
            capacity_bps,
            backlog,
            *buffer_packets,
            servers,
            nf_index,
            admitted,
            deny_junk,
            stats,
            window_acc,
            ledger,
        );
    }
    if let Some(row) = plan.windows.get(*next_window) {
        *next_window += 1;
        apply_tail_cells(
            row,
            window_start_ns,
            window_end_ns,
            true,
            true,
            frame_bytes,
            capacity_bps,
            backlog,
            *buffer_packets,
            servers,
            nf_index,
            admitted,
            deny_junk,
            stats,
            window_acc,
            ledger,
        );
    }
}

/// Charge whatever tail mass is still owed at the horizon: a never-applied
/// warm-up cell, any unreached window rows, and the final partial-window
/// `rest` span (measured, but not capacity-constrained — it is not a full
/// guard window).
#[allow(clippy::too_many_arguments)]
fn finish_tail(
    ts: &mut TailState,
    servers: &mut [Option<ServerSim>],
    nf_index: &[NfLocator],
    admitted: &[bool],
    deny_junk: &[bool],
    stats: &mut [ChainStats],
    window_acc: &mut [WindowAcc],
    ledger: &mut ConservationLedger,
) {
    let TailState {
        plan,
        frame_bytes,
        capacity_bps,
        backlog,
        buffer_packets,
        next_window,
        warmup_applied,
    } = ts;
    if !*warmup_applied {
        *warmup_applied = true;
        apply_tail_cells(
            &plan.warmup,
            0,
            plan.warmup_ns,
            false,
            false,
            frame_bytes,
            capacity_bps,
            backlog,
            *buffer_packets,
            servers,
            nf_index,
            admitted,
            deny_junk,
            stats,
            window_acc,
            ledger,
        );
    }
    while let Some(row) = plan.windows.get(*next_window) {
        let start = plan.warmup_ns + *next_window as u64 * plan.window_ns;
        *next_window += 1;
        apply_tail_cells(
            row,
            start,
            start + plan.window_ns,
            true,
            true,
            frame_bytes,
            capacity_bps,
            backlog,
            *buffer_packets,
            servers,
            nf_index,
            admitted,
            deny_junk,
            stats,
            window_acc,
            ledger,
        );
    }
    let rest_start = plan.warmup_ns + plan.windows.len() as u64 * plan.window_ns;
    if rest_start < plan.horizon_ns {
        apply_tail_cells(
            &plan.rest,
            rest_start,
            plan.horizon_ns,
            true,
            false,
            frame_bytes,
            capacity_bps,
            backlog,
            *buffer_packets,
            servers,
            nf_index,
            admitted,
            deny_junk,
            stats,
            window_acc,
            ledger,
        );
    }
}

/// Charge one span's tail cells: conservation ledger, shed, admission
/// control, the fluid queue's backlog and overflow, batched NF
/// aggregates down the chain, and delivered mass. `measured` spans
/// (inside `[warmup, horizon)`) also count toward chain stats and the
/// open guard window; `constrain` spans are charged against the
/// per-chain capacity left over by the heavy path. Tail mass above
/// capacity queues in `backlog` (bounded by `buffer_packets`, overflow
/// drops as [`DropReason::QueueOverflow`]) and its Little's-law waiting
/// time lands in the window's latency accumulators, so the SLO guard
/// sees surge-induced latency, not just loss.
#[allow(clippy::too_many_arguments)]
fn apply_tail_cells(
    cells: &[TailCell],
    span_start_ns: u64,
    span_end_ns: u64,
    measured: bool,
    constrain: bool,
    frame_bytes: &[u64],
    capacity_bps: &[f64],
    backlog: &mut [u64],
    buffer_packets: u64,
    servers: &mut [Option<ServerSim>],
    nf_index: &[NfLocator],
    admitted: &[bool],
    deny_junk: &[bool],
    stats: &mut [ChainStats],
    window_acc: &mut [WindowAcc],
    ledger: &mut ConservationLedger,
) {
    for (ci, cell) in cells.iter().enumerate() {
        if cell.is_empty() && (!constrain || backlog[ci] == 0) {
            // Zero-mass cells (with no queued carry-over) leave no
            // trace, so a hybrid run whose tail is empty stays
            // bit-identical to its packet-level twin.
            continue;
        }
        ledger.injected += cell.packets;
        if measured {
            window_acc[ci].arrivals += cell.packets;
            window_acc[ci].junk += cell.junk_packets;
        }
        if !admitted[ci] {
            // A shed chain refuses new arrivals *and* flushes whatever
            // its queue still holds — shed mass must not strand in the
            // backlog where it would read as in-flight forever.
            let shed = cell.packets + backlog[ci];
            backlog[ci] = 0;
            ledger.record_drops(DropReason::Shed, shed);
            if measured {
                stats[ci].record_drops(DropReason::Shed, shed);
                window_acc[ci].drops += shed;
            }
            continue;
        }
        // Ladder rung 1: admission control denies the DDoS-flagged junk
        // slice before it can queue (typed, exact in the ledger).
        let mut pkts = cell.packets;
        let mut new_flows = cell.new_flows;
        if deny_junk.get(ci).copied().unwrap_or(false) && cell.junk_packets > 0 {
            pkts -= cell.junk_packets;
            new_flows -= cell.junk_flows;
            ledger.record_drops(DropReason::Admission, cell.junk_packets);
            if measured {
                stats[ci].record_drops(DropReason::Admission, cell.junk_packets);
                window_acc[ci].drops += cell.junk_packets;
            }
        }
        let frame = frame_bytes[ci].max(1);
        if constrain {
            if let Some(&cap) = capacity_bps.get(ci) {
                if cap > 0.0 {
                    let span_ns = span_end_ns - span_start_ns;
                    let span_s = span_ns as f64 / 1e9;
                    // Whatever the heavy path already delivered this
                    // window has consumed its share of the budget.
                    let budget = ((cap * span_s / (frame * 8) as f64) as u64)
                        .saturating_sub(window_acc[ci].packets);
                    // Fluid M/D/1 step: last window's backlog plus this
                    // window's arrivals drain at the leftover capacity;
                    // what doesn't fit queues up to the buffer bound and
                    // overflows past it.
                    let b0 = backlog[ci];
                    let demand = b0 + pkts;
                    let served = demand.min(budget);
                    let queued_after = demand - served;
                    let over = queued_after.saturating_sub(buffer_packets);
                    if over > 0 {
                        ledger.record_drops(DropReason::QueueOverflow, over);
                        if measured {
                            stats[ci].record_drops(DropReason::QueueOverflow, over);
                            window_acc[ci].drops += over;
                        }
                    }
                    backlog[ci] = queued_after - over;
                    if measured && buffer_packets > 0 && span_ns > 0 {
                        // Little's law: total waiting time equals the
                        // integral of the queue length over the span.
                        // Q(t) is piecewise linear from b0 at slope
                        // g = λ − μ, clamped at the buffer going up and
                        // at zero going down.
                        let span = span_ns as f64;
                        let lam = pkts as f64 / span;
                        let mu = budget as f64 / span;
                        let g = lam - mu;
                        let b0f = b0 as f64;
                        let buf = buffer_packets as f64;
                        let wait = if g > 0.0 {
                            if b0f >= buf {
                                buf * span
                            } else {
                                let t_b = ((buf - b0f) / g).min(span);
                                b0f * t_b + 0.5 * g * t_b * t_b + buf * (span - t_b)
                            }
                        } else if g < 0.0 {
                            let t_e = (b0f / -g).min(span);
                            b0f * t_e - 0.5 * -g * t_e * t_e
                        } else {
                            b0f * span
                        };
                        if wait > 0.0 {
                            let w = &mut window_acc[ci];
                            w.lat_sum += wait;
                            w.lat_packets += served;
                        }
                    }
                    pkts = served;
                }
            }
        }
        // Sweep the chain's server NFs in (node, replica) order, splitting
        // each aggregate across replicas (remainder to the earliest) and
        // attenuating packet mass by each node's admitted outcome. Flow
        // pressure propagates unattenuated — refused packets don't
        // un-arrive their flows — which keeps binding counts conservative.
        let mut i = 0;
        while i < nf_index.len() {
            if nf_index[i].chain != ci {
                i += 1;
                continue;
            }
            let node = nf_index[i].node;
            let mut j = i;
            while j < nf_index.len() && nf_index[j].chain == ci && nf_index[j].node == node {
                j += 1;
            }
            let replicas = (j - i) as u64;
            let mut passed = 0u64;
            for (r, loc) in nf_index[i..j].iter().enumerate() {
                let r = r as u64;
                let share_p = pkts / replicas + u64::from(r < pkts % replicas);
                let share_f = new_flows / replicas + u64::from(r < new_flows % replicas);
                if share_p == 0 && share_f == 0 {
                    continue;
                }
                let update = AggregateUpdate {
                    packets: share_p,
                    bytes: share_p * frame,
                    new_flows: share_f,
                    window_start_ns: span_start_ns,
                    window_end_ns: span_end_ns,
                };
                let out = servers
                    .get_mut(loc.server)
                    .and_then(|s| s.as_mut())
                    .and_then(|srv| srv.pipeline.instances.get_mut(loc.inst_idx))
                    .and_then(|inst| inst.runtime.apply_aggregate_nf(loc.nf_idx, &update));
                passed += out.map(|o| o.packets.min(share_p)).unwrap_or(share_p);
            }
            if passed < pkts {
                let refused = pkts - passed;
                ledger.record_drops(DropReason::Verdict, refused);
                if measured {
                    stats[ci].record_drops(DropReason::Verdict, refused);
                    window_acc[ci].drops += refused;
                }
                pkts = passed;
            }
            i = j;
        }
        ledger.delivered += pkts;
        if measured && pkts > 0 {
            let bits = (pkts * frame * 8) as f64;
            let s = &mut stats[ci];
            s.delivered_packets += pkts;
            s.delivered_bps += bits;
            let w = &mut window_acc[ci];
            w.bits += bits;
            w.packets += pkts;
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn drop_packet(
    packets: &mut PacketTable,
    stats: &mut [ChainStats],
    window_acc: &mut [WindowAcc],
    ledger: &mut ConservationLedger,
    id: u64,
    reason: DropReason,
    warmup_ns: u64,
    horizon_ns: u64,
) {
    if let Some(p) = packets.remove(id) {
        // The ledger is unconditional — every injected packet lands in
        // exactly one bucket regardless of warmup windows.
        ledger.record_drop(reason);
        if p.t_in >= warmup_ns && p.t_in < horizon_ns {
            stats[p.chain].record_drop(reason);
            window_acc[p.chain].drops += 1;
        }
    }
}

/// Demux → subgroup instance(s) → mux. Consecutive same-server subgroups
/// (created by branch points) chain *inside* the pipeline, one core hop
/// each, before the packet re-encapsulates — one server visit on the wire.
/// Returns the time the packet is ready to leave the server, or the drop
/// reason.
#[allow(clippy::too_many_arguments)]
fn server_hop(
    server: &mut ServerSim,
    server_idx: usize,
    p: &mut SimPacket,
    now: u64,
    config: &SimConfig,
    subgroup_cycles: &[f64],
    faults: &FaultState,
    rng: &mut StdRng,
) -> Result<u64, DropReason> {
    // Demux core.
    let demux_ns = (DEMUX_CYCLES / server.clock_hz * 1e9) as u64;
    let after_demux = server
        .demux
        .serve(now, demux_ns, config.max_queue_ns)
        .ok_or(DropReason::QueueOverflow)?;
    let (first_sg, first_replica, key) = server
        .pipeline
        .demux
        .steer(&mut p.buf)
        .ok_or(DropReason::Verdict)?;

    let mut sg_idx = first_sg;
    let mut replica = first_replica;
    let mut spi = key.spi;
    let mut at = after_demux;
    for _chained in 0..16 {
        if faults.crashed_subgroups.contains(&sg_idx) {
            return Err(DropReason::Fault);
        }
        let inst_idx = server
            .tables
            .instance(sg_idx, replica)
            .ok_or(DropReason::Verdict)?;
        let core = server.pipeline.instances[inst_idx].core;
        if faults.failed_cores.contains(&(server_idx, core)) {
            return Err(DropReason::Fault);
        }

        // Effective service time: worst-case profile cycles, discounted
        // for same-socket placement and sampled over the Table 4 min–max
        // band.
        let base = subgroup_cycles.get(sg_idx).copied().unwrap_or(1000.0);
        let numa = if server.spec.socket_of(CoreId(core)) == server.nic_socket {
            server.same_socket_factor
        } else {
            1.0
        };
        let sample = 0.94 + 0.06 * rng.gen::<f64>();
        let service_ns = (base * numa * sample / server.clock_hz * 1e9) as u64;
        let done = server.cores[core]
            .serve(at, service_ns, config.max_queue_ns)
            .ok_or(DropReason::QueueOverflow)?;
        at = done;

        // Functional execution.
        let ctx = NfCtx { now_ns: done };
        let gate = server.pipeline.instances[inst_idx]
            .runtime
            .process_packet(&ctx, &mut p.buf)
            .ok_or(DropReason::Verdict)?;

        // Branch decision: rewrite the SPI per the routing plan.
        if let Some(next_spi) = server.tables.next_spi(sg_idx, spi, gate) {
            spi = next_spi;
        }

        // Continue inside the server, or leave.
        match server.tables.next_subgroup(sg_idx, gate) {
            Some(next_sg) => {
                sg_idx = next_sg;
                let n = server.tables.replica_count(next_sg);
                replica = if n <= 1 {
                    0
                } else {
                    lemur_packet::flow::FiveTuple::parse(p.buf.as_slice())
                        .map(|t| (t.symmetric_hash() % n as u64) as usize)
                        .unwrap_or(0)
                };
            }
            None => break,
        }
    }

    // Mux: re-encapsulate for the next on-wire segment.
    let si = key.si.checked_sub(1).ok_or(DropReason::Verdict)?;
    lemur_bess::demux::mux(&mut p.buf, spi, si);
    Ok(at)
}

/// SmartNIC execution.
fn nic_hop(
    nic: &mut NicSim,
    p: &mut SimPacket,
    now: u64,
    config: &SimConfig,
) -> Result<u64, DropReason> {
    // The VM rewrites the packet's own buffer. A program that errors or
    // does not return `Tx` gets the packet dropped by the caller, so a
    // partially rewritten frame is never observed.
    let result = Vm::run(&nic.program, p.buf.as_mut_slice()).map_err(|_| DropReason::Verdict)?;
    if result.verdict != XdpVerdict::Tx {
        return Err(DropReason::Verdict);
    }
    // One VM step ≈ one NFP cycle.
    let service_ns = (result.steps as f64 / nic.clock_hz * 1e9) as u64;
    nic.proc
        .serve(now, service_ns, config.max_queue_ns)
        .ok_or(DropReason::QueueOverflow)
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let chains: Vec<CanonicalChain> =
            which.iter().map(|&w| CanonicalChain::ALL[w - 1]).collect();
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
                let servers = build_parts(&p, e, deployment).unwrap().servers;
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
}
