//! Placement representation and evaluation.
//!
//! An [`Assignment`] maps every NF node of every chain onto a platform.
//! [`PlacementProblem::evaluate`] turns an assignment into predicted chain
//! rates by forming run-to-completion subgroups, allocating cores, solving
//! the marginal-throughput LP under link constraints, and checking latency
//! SLOs — exactly the §3.2 pipeline.

use crate::corealloc::{self, CoreStrategy};
use crate::profiles::{is_replicable, NfProfiles, Platform};
use crate::topology::{Topology, Tor};
use crate::{NSH_OVERHEAD_CYCLES, PACKET_BITS, REPLICATION_OVERHEAD_CYCLES};
use lemur_core::graph::{ChainSpec, LinearChain, NfGraph, NodeId};
use lemur_lp::{Problem, Relation};
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// Per-bounce latency between the ToR and a server/NIC, in nanoseconds.
/// Dominated by DPDK RX/TX batching and switch/NIC queueing under load
/// (the paper names "DPDK and switch queueing, and encap/decap overheads"
/// as its latency sources); 8 µs per traversal is a loaded-system figure.
pub const BOUNCE_LATENCY_NS: f64 = 8_000.0;

/// Platform assignment for every node of every chain.
///
/// A `BTreeMap` (not `HashMap`) on purpose: candidate generation, ranking,
/// and subsampling iterate assignments, and the parallel search asserts
/// bit-identical results across worker counts — ordered iteration (and
/// ordered `Debug` output) makes ties rank identically everywhere.
pub type Assignment = Vec<BTreeMap<NodeId, Platform>>;

/// Why a placement is infeasible.
#[derive(Debug, Clone, PartialEq)]
pub enum PlacementError {
    /// A chain's NF graph failed validation (see
    /// [`PlacementProblem::try_new`]).
    InvalidChain { chain: usize, reason: String },
    /// An NF was assigned to a platform it has no implementation for.
    NoCapability {
        chain: usize,
        node: String,
        platform: Platform,
    },
    /// Not enough cores / rate to satisfy every `t_min`.
    Infeasible(String),
    /// A latency SLO cannot be met.
    LatencyViolation {
        chain: usize,
        latency_ns: f64,
        d_max_ns: f64,
    },
    /// The stage oracle rejected the switch program.
    OutOfStages { required: usize, available: usize },
    /// An OpenFlow table-order violation.
    TableOrder { chain: usize },
}

impl fmt::Display for PlacementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlacementError::InvalidChain { chain, reason } => {
                write!(f, "chain {chain}: invalid NF graph: {reason}")
            }
            PlacementError::NoCapability {
                chain,
                node,
                platform,
            } => {
                write!(f, "chain {chain}: {node} cannot run on {platform:?}")
            }
            PlacementError::Infeasible(msg) => write!(f, "infeasible: {msg}"),
            PlacementError::LatencyViolation {
                chain,
                latency_ns,
                d_max_ns,
            } => write!(
                f,
                "chain {chain}: latency {:.1}us exceeds d_max {:.1}us",
                latency_ns / 1e3,
                d_max_ns / 1e3
            ),
            PlacementError::OutOfStages {
                required,
                available,
            } => {
                write!(f, "switch needs {required} stages, has {available}")
            }
            PlacementError::TableOrder { chain } => {
                write!(f, "chain {chain}: violates OpenFlow table order")
            }
        }
    }
}

impl std::error::Error for PlacementError {}

/// One run-to-completion subgroup in a placement plan.
#[derive(Debug, Clone)]
pub struct SubgroupPlan {
    pub chain: usize,
    pub server: usize,
    /// Member nodes in chain order.
    pub nodes: Vec<NodeId>,
    /// Worst-case cycles/packet, including NSH decap/encap overhead.
    pub cycles: f64,
    /// Fraction of the chain's traffic passing through this subgroup.
    pub fraction: f64,
    /// False for subgroups holding stateful or branch/merge NFs (§3.2).
    pub replicable: bool,
    /// Allocated cores (≥ 1).
    pub cores: usize,
}

impl SubgroupPlan {
    /// Subgroup capacity in chain-rate bits/second for its allocation on a
    /// server with the given clock: `cores · clock/cycles · packet_bits /
    /// fraction` (the chain rate at which this subgroup saturates).
    pub fn chain_rate_capacity_bps(&self, clock_hz: f64) -> f64 {
        self.capacity_with_cores_bps(self.cores, clock_hz)
    }

    /// [`Self::chain_rate_capacity_bps`] were the subgroup given `cores`.
    pub(crate) fn capacity_with_cores_bps(&self, cores: usize, clock_hz: f64) -> f64 {
        let mut cycles = self.cycles;
        if cores > 1 {
            cycles += REPLICATION_OVERHEAD_CYCLES;
        }
        let pps = cores as f64 * clock_hz / cycles;
        pps * PACKET_BITS / self.fraction.max(1e-12)
    }
}

/// An NF placed on a SmartNIC.
#[derive(Debug, Clone)]
pub struct NicNfPlan {
    pub chain: usize,
    pub node: NodeId,
    pub nic: usize,
    pub cycles: f64,
    pub fraction: f64,
}

/// Deterministic counters from a placement search. Every field is a pure
/// function of the search inputs — *never* of wall time or scheduling — so
/// telemetry compares bit-identically across worker counts (wall-clock
/// timings live in the bench harness, not here).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchTelemetry {
    /// Stage-oracle invocations (compiler calls when the oracle is the
    /// real metacompiler) made by the search.
    pub oracle_calls: u64,
    /// Memoized-oracle cache hits during the search (0 for uncached
    /// oracles).
    pub cache_hits: u64,
    /// Memoized-oracle cache misses — actual compiles — during the search.
    pub cache_misses: u64,
    /// Full LP evaluations ([`PlacementProblem::evaluate`]) performed.
    pub lp_evals: u64,
    /// Candidates generated but dropped before full evaluation (beam
    /// truncation, candidate-list caps, infeasible quick scores).
    pub pruned_candidates: u64,
}

/// A fully evaluated placement.
#[derive(Debug, Clone)]
pub struct EvaluatedPlacement {
    pub assignment: Assignment,
    pub subgroups: Vec<SubgroupPlan>,
    pub nic_nfs: Vec<NicNfPlan>,
    /// Predicted (LP-optimal) rate per chain, bits/second.
    pub chain_rates_bps: Vec<f64>,
    /// Σ chain rates.
    pub aggregate_bps: f64,
    /// Σ (rate − t_min) — the objective.
    pub marginal_bps: f64,
    /// Bounce count per chain (weighted-average server/NIC visits × 2).
    pub bounces: Vec<f64>,
    /// Worst-path latency per chain (ns).
    pub latency_ns: Vec<f64>,
    /// Stage usage if the stage oracle ran.
    pub stages_used: Option<usize>,
    /// Search accounting, if a search (not a bare `evaluate`) produced
    /// this placement.
    pub telemetry: Option<SearchTelemetry>,
}

/// What evaluating an assignment reads from one chain's graph and the
/// assignment cannot change. A search derives it once
/// ([`PlacementProblem::shapes`]) and evaluates every candidate against
/// it; the public one-shot entry points build it for their one call.
#[derive(Debug, Clone)]
pub(crate) struct ChainShape {
    /// The weighted source→sink paths ([`NfGraph::decompose`]).
    pub(crate) paths: Vec<LinearChain>,
    /// Traffic fraction through each node, by `NodeId.0`.
    fractions: Vec<f64>,
    /// Topological node order.
    order: Vec<NodeId>,
    /// Per edge of `graph.edges()`: the only way out of its tail and the
    /// only way into its head, so the two may share a subgroup.
    linear_edge: Vec<bool>,
    /// Per node: neither a branch nor a merge point.
    inline: Vec<bool>,
    /// The chain's rate variable in the LP.
    rate_var: String,
}

impl ChainShape {
    fn of(ci: usize, g: &NfGraph) -> ChainShape {
        let paths = g.decompose();
        let mut fractions = vec![0.0; g.num_nodes()];
        for lc in &paths {
            for n in &lc.nodes {
                fractions[n.0] += lc.weight;
            }
        }
        ChainShape {
            paths,
            fractions,
            order: g.topo_order().expect("validated"),
            linear_edge: g
                .edges()
                .iter()
                .map(|e| g.out_degree(e.from) == 1 && g.in_degree(e.to) == 1)
                .collect(),
            inline: (0..g.num_nodes())
                .map(|n| !g.is_branch(NodeId(n)) && !g.is_merge(NodeId(n)))
                .collect(),
            rate_var: format!("r{ci}"),
        }
    }
}

/// The placement problem: chains + topology + profiles.
#[derive(Debug, Clone)]
pub struct PlacementProblem {
    pub chains: Vec<ChainSpec>,
    pub topology: Topology,
    pub profiles: NfProfiles,
}

impl PlacementProblem {
    /// Create a problem. Panics if a chain graph fails validation; use
    /// [`PlacementProblem::try_new`] to get the error instead.
    pub fn new(chains: Vec<ChainSpec>, topology: Topology, profiles: NfProfiles) -> Self {
        Self::try_new(chains, topology, profiles)
            .unwrap_or_else(|e| panic!("chain graph must validate: {e}"))
    }

    /// Create a problem, surfacing chain-graph validation failures as a
    /// typed [`PlacementError::InvalidChain`].
    pub fn try_new(
        chains: Vec<ChainSpec>,
        topology: Topology,
        profiles: NfProfiles,
    ) -> Result<Self, PlacementError> {
        for (i, c) in chains.iter().enumerate() {
            c.graph
                .validate()
                .map_err(|e| PlacementError::InvalidChain {
                    chain: i,
                    reason: e.to_string(),
                })?;
        }
        Ok(PlacementProblem {
            chains,
            topology,
            profiles,
        })
    }

    /// One [`ChainShape`] per chain, index-aligned with `chains`.
    pub(crate) fn shapes(&self) -> Vec<ChainShape> {
        let graphs = self.chains.iter().map(|c| &c.graph);
        graphs
            .enumerate()
            .map(|(ci, g)| ChainShape::of(ci, g))
            .collect()
    }

    /// The chain's *base rate* (§5.1): the rate with one core on the
    /// slowest software NF. Used to derive the δ-scaled `t_min` sweeps.
    /// Zero on a rack without servers, where no software NF runs at all.
    pub fn base_rate_bps(&self, chain: usize) -> f64 {
        let clock = self.server_clock_hz();
        let g = &self.chains[chain].graph;
        let shape = ChainShape::of(chain, g);
        g.nodes()
            .filter(|(_, n)| {
                self.profiles
                    .capabilities(n.kind)
                    .contains(&crate::profiles::PlatformClass::Server)
            })
            .map(|(id, n)| {
                let cycles = self.profiles.server_cycles(n.kind, &n.params) + NSH_OVERHEAD_CYCLES;
                let pps = clock / cycles;
                pps * PACKET_BITS / shape.fractions[id.0].max(1e-12)
            })
            .fold(f64::INFINITY, f64::min)
    }

    /// The clock the rate and latency models assume for software NFs
    /// (server 0's; 0 Hz when the rack has no server).
    fn server_clock_hz(&self) -> f64 {
        self.topology.servers.first().map_or(0.0, |s| s.clock_hz)
    }

    /// Check assignment capabilities (every chain assigned, every node on a
    /// platform with an implementation that exists in this topology).
    pub fn check_capabilities(&self, assignment: &Assignment) -> Result<(), PlacementError> {
        for ci in 0..self.chains.len() {
            let Some(placed) = assignment.get(ci) else {
                return Err(PlacementError::Infeasible(format!(
                    "chain {ci}: unassigned"
                )));
            };
            self.check_chain_capabilities(ci, placed)?;
        }
        Ok(())
    }

    /// [`Self::check_capabilities`] for chain `ci` alone.
    pub(crate) fn check_chain_capabilities(
        &self,
        ci: usize,
        placed: &BTreeMap<NodeId, Platform>,
    ) -> Result<(), PlacementError> {
        for (id, node) in self.chains[ci].graph.nodes() {
            let Some(platform) = placed.get(&id) else {
                return Err(PlacementError::Infeasible(format!(
                    "chain {ci}: node {} unassigned",
                    node.name
                )));
            };
            if matches!(platform, Platform::Server(_)) && self.topology.servers.is_empty() {
                return Err(PlacementError::Infeasible(format!(
                    "chain {ci}: {} needs a server and the rack has none",
                    node.name
                )));
            }
            let ok = self
                .profiles
                .capabilities(node.kind)
                .contains(&platform.class())
                && match platform {
                    Platform::Pisa => self.topology.has_pisa(),
                    Platform::OpenFlow => matches!(self.topology.tor, Tor::OpenFlow { .. }),
                    Platform::Server(s) => *s < self.topology.servers.len(),
                    Platform::SmartNic(n) => *n < self.topology.smartnics.len(),
                };
            if !ok {
                return Err(PlacementError::NoCapability {
                    chain: ci,
                    node: node.name.clone(),
                    platform: *platform,
                });
            }
        }
        Ok(())
    }

    /// Form run-to-completion subgroups for an assignment: consecutive
    /// same-server nodes joined across purely linear edges (§3.2). Emitted
    /// chain by chain.
    pub fn form_subgroups(&self, assignment: &Assignment) -> Vec<SubgroupPlan> {
        self.form_subgroups_shaped(&self.shapes(), assignment)
    }

    /// [`Self::form_subgroups`] against the problem's [`Self::shapes`].
    pub(crate) fn form_subgroups_shaped(
        &self,
        shapes: &[ChainShape],
        assignment: &Assignment,
    ) -> Vec<SubgroupPlan> {
        let per_chain = assignment.iter().zip(shapes).enumerate();
        per_chain
            .flat_map(|(ci, (placed, shape))| self.chain_subgroups(ci, placed, shape))
            .collect()
    }

    /// [`Self::form_subgroups`] for chain `ci` alone. A chain's subgroups
    /// depend on no other chain's placement.
    pub(crate) fn chain_subgroups(
        &self,
        ci: usize,
        placed: &BTreeMap<NodeId, Platform>,
        shape: &ChainShape,
    ) -> Vec<SubgroupPlan> {
        let g = &self.chains[ci].graph;
        let server_of = |id: &NodeId| match placed.get(id) {
            Some(Platform::Server(s)) => Some(*s),
            _ => None,
        };
        // Union-find over nodes.
        let n = g.num_nodes();
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(p: &mut Vec<usize>, x: usize) -> usize {
            if p[x] != x {
                let r = find(p, p[x]);
                p[x] = r;
            }
            p[x]
        }
        for (e, linear) in g.edges().iter().zip(&shape.linear_edge) {
            let (from, to) = (server_of(&e.from), server_of(&e.to));
            if *linear && from.is_some() && from == to {
                let ra = find(&mut parent, e.from.0);
                let rb = find(&mut parent, e.to.0);
                parent[ra] = rb;
            }
        }
        // Collect groups in topo order, then order them by first member.
        let mut groups: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for id in &shape.order {
            if server_of(id).is_some() {
                let root = find(&mut parent, id.0);
                groups[root].push(*id);
            }
        }
        groups.retain(|nodes| !nodes.is_empty());
        groups.sort_by_key(|nodes| nodes[0].0);
        groups
            .into_iter()
            .map(|nodes| {
                let cycles: f64 = nodes
                    .iter()
                    .map(|id| {
                        let node = g.node(*id);
                        self.profiles.server_cycles(node.kind, &node.params)
                    })
                    .sum::<f64>()
                    + NSH_OVERHEAD_CYCLES;
                let replicable = nodes
                    .iter()
                    .all(|id| is_replicable(g.node(*id).kind) && shape.inline[id.0]);
                SubgroupPlan {
                    chain: ci,
                    server: server_of(&nodes[0]).expect("grouped nodes sit on a server"),
                    fraction: shape.fractions[nodes[0].0],
                    nodes,
                    cycles,
                    replicable,
                    cores: 1,
                }
            })
            .collect()
    }

    /// Per-chain, per-server weighted visit counts (maximal server
    /// segments per decomposed path × path weight). One visit = one
    /// NIC-link crossing per direction.
    pub fn server_visits(&self, assignment: &Assignment) -> Vec<HashMap<usize, f64>> {
        self.chains
            .iter()
            .zip(assignment)
            .map(|(chain, placed)| server_visits(placed, &chain.graph.decompose()))
            .collect()
    }

    /// Weighted bounce count per chain: total platform transitions along
    /// decomposed paths (ToR↔server, ToR↔NIC).
    pub fn bounce_counts(&self, assignment: &Assignment) -> Vec<f64> {
        self.chains
            .iter()
            .zip(assignment)
            .map(|(chain, placed)| bounce_count(placed, &chain.graph.decompose()))
            .collect()
    }

    /// Worst-path latency per chain for an assignment (ns).
    pub fn latencies_ns(&self, assignment: &Assignment) -> Vec<f64> {
        self.chains
            .iter()
            .zip(assignment)
            .map(|(chain, placed)| self.chain_latency_ns(chain, placed, &chain.graph.decompose()))
            .collect()
    }

    /// [`Self::latencies_ns`] for one chain, over its decomposed `paths`.
    pub(crate) fn chain_latency_ns(
        &self,
        chain: &ChainSpec,
        placed: &BTreeMap<NodeId, Platform>,
        paths: &[LinearChain],
    ) -> f64 {
        let switch_latency = match &self.topology.tor {
            Tor::Pisa(m) => m.pipeline_latency_ns(m.num_stages),
            Tor::OpenFlow { .. } => 1_000.0,
        };
        let clock = self.server_clock_hz();
        paths
            .iter()
            .map(|lc| {
                let mut ns = switch_latency;
                let mut prev = LocKind::Tor;
                for id in &lc.nodes {
                    let node = chain.graph.node(*id);
                    let here = loc_of(placed.get(id));
                    if here != prev {
                        ns += BOUNCE_LATENCY_NS;
                    }
                    match here {
                        LocKind::Server(_) => {
                            ns +=
                                self.profiles.server_cycles(node.kind, &node.params) / clock * 1e9;
                        }
                        LocKind::Nic(_) => {
                            let cycles = self
                                .profiles
                                .smartnic_cycles(node.kind, &node.params)
                                .unwrap_or(1000.0);
                            let nic_clock = self
                                .topology
                                .smartnics
                                .first()
                                .map(|n| n.clock_hz)
                                .unwrap_or(clock);
                            ns += cycles / nic_clock * 1e9;
                        }
                        LocKind::Tor => {}
                    }
                    prev = here;
                }
                if prev != LocKind::Tor {
                    ns += BOUNCE_LATENCY_NS;
                }
                ns
            })
            .fold(0.0, f64::max)
    }

    /// Evaluate an assignment: subgroup formation, core allocation with
    /// `strategy`, the rate LP, and the latency check. Does NOT run the
    /// stage oracle — algorithms call that themselves so they can control
    /// how often the (expensive) compiler is invoked; they account for
    /// those calls via [`crate::oracle::CountingOracle`] and report them
    /// in [`SearchTelemetry::oracle_calls`].
    pub fn evaluate(
        &self,
        assignment: &Assignment,
        strategy: CoreStrategy,
    ) -> Result<EvaluatedPlacement, PlacementError> {
        self.evaluate_shaped(&self.shapes(), assignment, Alloc::Strategy(strategy))
    }

    /// Re-evaluate an assignment with a *fixed* per-subgroup core vector
    /// (aligned with [`PlacementProblem::form_subgroups`] order). Used by
    /// the No-Profiling ablation: placement and cores were decided under
    /// wrong profiles; rates are recomputed under the true ones.
    pub fn evaluate_with_cores(
        &self,
        assignment: &Assignment,
        cores: &[usize],
    ) -> Result<EvaluatedPlacement, PlacementError> {
        self.evaluate_shaped(&self.shapes(), assignment, Alloc::Fixed(cores))
    }

    /// [`Self::evaluate`] against the problem's [`Self::shapes`], for
    /// searches that evaluate many assignments of one problem.
    pub(crate) fn evaluate_shaped(
        &self,
        shapes: &[ChainShape],
        assignment: &Assignment,
        alloc: Alloc<'_>,
    ) -> Result<EvaluatedPlacement, PlacementError> {
        self.check_capabilities(assignment)?;

        // OpenFlow table-order validation (§5.3).
        if matches!(self.topology.tor, Tor::OpenFlow { .. }) {
            for (ci, chain) in self.chains.iter().enumerate() {
                for lc in &shapes[ci].paths {
                    let seq: Vec<_> = lc
                        .nodes
                        .iter()
                        .filter(|id| matches!(assignment[ci].get(id), Some(Platform::OpenFlow)))
                        .filter_map(|id| of_kind(chain.graph.node(*id).kind))
                        .collect();
                    if !lemur_openflow::validate_nf_order(&seq) {
                        return Err(PlacementError::TableOrder { chain: ci });
                    }
                }
            }
        }

        let mut subgroups = self.form_subgroups_shaped(shapes, assignment);

        // SmartNIC NFs.
        let mut nic_nfs = Vec::new();
        for (ci, chain) in self.chains.iter().enumerate() {
            for (id, node) in chain.graph.nodes() {
                if let Some(Platform::SmartNic(nic)) = assignment[ci].get(&id) {
                    let cycles = self
                        .profiles
                        .smartnic_cycles(node.kind, &node.params)
                        .ok_or_else(|| PlacementError::NoCapability {
                            chain: ci,
                            node: node.name.clone(),
                            platform: Platform::SmartNic(*nic),
                        })?;
                    nic_nfs.push(NicNfPlan {
                        chain: ci,
                        node: id,
                        nic: *nic,
                        cycles,
                        fraction: shapes[ci].fractions[id.0],
                    });
                }
            }
        }

        // Core allocation.
        match alloc {
            Alloc::Strategy(strategy) => corealloc::allocate(self, &mut subgroups, strategy)?,
            Alloc::Fixed(cores) => {
                if cores.len() != subgroups.len() {
                    return Err(PlacementError::Infeasible(
                        "fixed core vector length mismatch".to_string(),
                    ));
                }
                for (sg, k) in subgroups.iter_mut().zip(cores) {
                    sg.cores = (*k).max(1);
                }
            }
        }

        // Latency check (before the LP: latency is rate-independent here).
        let per_chain = || self.chains.iter().zip(assignment).zip(shapes);
        let latency_ns: Vec<f64> = per_chain()
            .map(|((chain, placed), shape)| self.chain_latency_ns(chain, placed, &shape.paths))
            .collect();
        for (ci, chain) in self.chains.iter().enumerate() {
            if let Some(slo) = &chain.slo {
                if let Some(d_max) = slo.d_max_ns {
                    if latency_ns[ci] > d_max {
                        return Err(PlacementError::LatencyViolation {
                            chain: ci,
                            latency_ns: latency_ns[ci],
                            d_max_ns: d_max,
                        });
                    }
                }
            }
        }

        // The marginal-throughput LP.
        let visits: Vec<_> = per_chain()
            .map(|((_, placed), shape)| server_visits(placed, &shape.paths))
            .collect();
        let tor_rate = match &self.topology.tor {
            Tor::Pisa(m) => m.port_rate_bps,
            Tor::OpenFlow { rate_bps } => *rate_bps,
        };
        let mut lp = Problem::new();
        let mut vars = Vec::new();
        for (ci, chain) in self.chains.iter().enumerate() {
            let slo = chain.slo.unwrap_or(lemur_core::Slo::bulk());
            let hi = slo.t_max_bps.min(tor_rate);
            if slo.t_min_bps > hi {
                return Err(PlacementError::Infeasible(format!(
                    "chain {ci}: t_min above port rate"
                )));
            }
            vars.push(lp.add_var(&shapes[ci].rate_var, slo.t_min_bps, hi, 1.0));
        }
        let clock0 = |s: usize| self.topology.servers[s].clock_hz;
        for sg in &subgroups {
            let cap = sg.chain_rate_capacity_bps(clock0(sg.server));
            lp.add_constraint(&[(vars[sg.chain], 1.0)], Relation::Le, cap);
        }
        // NIC-link constraints (per server, per direction).
        for s in 0..self.topology.servers.len() {
            let terms: Vec<_> = (0..self.chains.len())
                .filter_map(|ci| visits[ci].get(&s).map(|v| (vars[ci], *v)))
                .filter(|(_, v)| *v > 0.0)
                .collect();
            if !terms.is_empty() {
                lp.add_constraint(&terms, Relation::Le, self.topology.server_link_bps(s));
            }
        }
        // SmartNIC compute and port constraints.
        for (ni, nic) in self.topology.smartnics.iter().enumerate() {
            let compute_terms: Vec<_> = nic_nfs
                .iter()
                .filter(|n| n.nic == ni)
                .map(|n| (vars[n.chain], n.fraction * n.cycles / PACKET_BITS))
                .collect();
            if !compute_terms.is_empty() {
                lp.add_constraint(&compute_terms, Relation::Le, nic.clock_hz);
                let port_terms: Vec<_> = nic_nfs
                    .iter()
                    .filter(|n| n.nic == ni)
                    .map(|n| (vars[n.chain], n.fraction))
                    .collect();
                lp.add_constraint(&port_terms, Relation::Le, nic.rate_bps);
            }
        }
        let sol = lp
            .solve()
            .map_err(|e| PlacementError::Infeasible(format!("rate LP: {e}")))?;

        let chain_rates_bps: Vec<f64> = vars.iter().map(|v| sol.value(*v)).collect();
        let aggregate_bps: f64 = chain_rates_bps.iter().sum();
        let marginal_bps: f64 = chain_rates_bps
            .iter()
            .zip(&self.chains)
            .map(|(r, c)| r - c.slo.map(|s| s.t_min_bps).unwrap_or(0.0))
            .sum();
        Ok(EvaluatedPlacement {
            assignment: assignment.clone(),
            subgroups,
            nic_nfs,
            chain_rates_bps,
            aggregate_bps,
            marginal_bps,
            bounces: per_chain()
                .map(|((_, placed), shape)| bounce_count(placed, &shape.paths))
                .collect(),
            latency_ns,
            stages_used: None,
            telemetry: None,
        })
    }
}

/// One chain's [`PlacementProblem::server_visits`].
fn server_visits(
    placed: &BTreeMap<NodeId, Platform>,
    paths: &[LinearChain],
) -> HashMap<usize, f64> {
    let mut visits: HashMap<usize, f64> = HashMap::new();
    for lc in paths {
        let mut prev: Option<usize> = None;
        for id in &lc.nodes {
            let here = match placed.get(id) {
                Some(Platform::Server(s)) => Some(*s),
                _ => None,
            };
            if let Some(s) = here {
                if prev != Some(s) {
                    *visits.entry(s).or_insert(0.0) += lc.weight;
                }
            }
            prev = here;
        }
    }
    visits
}

/// One chain's [`PlacementProblem::bounce_counts`].
fn bounce_count(placed: &BTreeMap<NodeId, Platform>, paths: &[LinearChain]) -> f64 {
    let mut bounces = 0.0;
    for lc in paths {
        // Traffic starts and ends at the ToR.
        let mut prev = LocKind::Tor;
        let mut count = 0usize;
        for id in &lc.nodes {
            let here = loc_of(placed.get(id));
            if here != prev {
                count += 1;
            }
            prev = here;
        }
        if prev != LocKind::Tor {
            count += 1; // return to ToR for egress
        }
        bounces += lc.weight * count as f64;
    }
    bounces
}

/// How cores are chosen during evaluation.
pub(crate) enum Alloc<'a> {
    Strategy(CoreStrategy),
    Fixed(&'a [usize]),
}

/// Coarse location for bounce counting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LocKind {
    Tor,
    Server(usize),
    Nic(usize),
}

fn loc_of(p: Option<&Platform>) -> LocKind {
    match p {
        Some(Platform::Server(s)) => LocKind::Server(*s),
        Some(Platform::SmartNic(n)) => LocKind::Nic(*n),
        _ => LocKind::Tor,
    }
}

fn of_kind(kind: lemur_nf::NfKind) -> Option<lemur_openflow::lemur_nf_kind::NfKind> {
    use lemur_openflow::lemur_nf_kind::NfKind as Of;
    Some(match kind {
        lemur_nf::NfKind::Detunnel => Of::Detunnel,
        lemur_nf::NfKind::Acl => Of::Acl,
        lemur_nf::NfKind::Monitor => Of::Monitor,
        lemur_nf::NfKind::Tunnel => Of::Tunnel,
        lemur_nf::NfKind::Ipv4Fwd => Of::Ipv4Fwd,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corealloc::CoreStrategy;
    use lemur_core::chains::{canonical_chain, CanonicalChain};
    use lemur_core::Slo;
    use lemur_nf::NfKind;

    fn spec(which: CanonicalChain, t_min: f64) -> ChainSpec {
        ChainSpec {
            name: format!("chain{}", which.index()),
            graph: canonical_chain(which),
            slo: Some(Slo::elastic_pipe(t_min, 100e9)),
            aggregate: None,
        }
    }

    /// All-server assignment except P4-only NFs (SW Preferred shape).
    fn sw_assignment(p: &PlacementProblem) -> Assignment {
        p.chains
            .iter()
            .map(|c| {
                c.graph
                    .nodes()
                    .map(|(id, n)| {
                        let plat = if n.kind == NfKind::Ipv4Fwd {
                            Platform::Pisa
                        } else {
                            Platform::Server(0)
                        };
                        (id, plat)
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn chain3_sw_evaluation() {
        let p = PlacementProblem::new(
            vec![spec(CanonicalChain::Chain3, 1e8)],
            Topology::testbed(),
            NfProfiles::table4(),
        );
        let a = sw_assignment(&p);
        let out = p.evaluate(&a, CoreStrategy::WaterFill).unwrap();
        // Chain 3 minus IPv4Fwd is one linear run on the server: one
        // subgroup (it contains Limiter → not replicable).
        assert_eq!(out.subgroups.len(), 1);
        assert!(!out.subgroups[0].replicable);
        assert_eq!(out.subgroups[0].cores, 1);
        // Rate = clock/cycles × packet bits (fraction 1).
        let cycles = out.subgroups[0].cycles;
        let expect = 1.7e9 / cycles * PACKET_BITS;
        assert!((out.chain_rates_bps[0] - expect).abs() / expect < 1e-6);
        assert!(out.marginal_bps > 0.0);
    }

    #[test]
    fn base_rate_is_dedup_bound_for_chain3() {
        let p = PlacementProblem::new(
            vec![spec(CanonicalChain::Chain3, 0.0)],
            Topology::testbed(),
            NfProfiles::table4(),
        );
        let base = p.base_rate_bps(0);
        let expect = 1.7e9 / (30867.0 + NSH_OVERHEAD_CYCLES) * PACKET_BITS;
        assert!((base - expect).abs() / expect < 1e-9, "{base} vs {expect}");
    }

    #[test]
    fn infeasible_when_t_min_too_high() {
        // Demand 10x what one unreplicable subgroup can do.
        let p = PlacementProblem::new(
            vec![spec(CanonicalChain::Chain3, 10e9)],
            Topology::testbed(),
            NfProfiles::table4(),
        );
        let a = sw_assignment(&p);
        let err = p.evaluate(&a, CoreStrategy::WaterFill).unwrap_err();
        assert!(matches!(err, PlacementError::Infeasible(_)), "{err}");
    }

    #[test]
    fn capability_violation_detected() {
        let p = PlacementProblem::new(
            vec![spec(CanonicalChain::Chain5, 1e8)],
            Topology::testbed(),
            NfProfiles::table4(),
        );
        // Put the UrlFilter (server-only) on the switch.
        let mut a = sw_assignment(&p);
        let url = p.chains[0]
            .graph
            .nodes()
            .find(|(_, n)| n.kind == NfKind::UrlFilter)
            .unwrap()
            .0;
        a[0].insert(url, Platform::Pisa);
        assert!(matches!(
            p.evaluate(&a, CoreStrategy::WaterFill).unwrap_err(),
            PlacementError::NoCapability { .. }
        ));
    }

    #[test]
    fn short_assignment_is_infeasible_not_a_panic() {
        let p = PlacementProblem::new(
            vec![
                spec(CanonicalChain::Chain3, 1e8),
                spec(CanonicalChain::Chain5, 1e8),
            ],
            Topology::testbed(),
            NfProfiles::table4(),
        );
        let full = sw_assignment(&p);
        for (len, missing) in [(1, 1), (0, 0)] {
            let a = full[..len].to_vec();
            let want = PlacementError::Infeasible(format!("chain {missing}: unassigned"));
            assert_eq!(p.check_capabilities(&a).unwrap_err(), want);
            assert_eq!(p.evaluate(&a, CoreStrategy::WaterFill).unwrap_err(), want);
            assert_eq!(p.evaluate_with_cores(&a, &[1]).unwrap_err(), want);
            let verdict = crate::oracle::StageOracle::check(&crate::ModelOracle::default(), &p, &a);
            assert!(matches!(
                verdict,
                crate::oracle::StageVerdict::OutOfStages { .. }
            ));
        }
    }

    #[test]
    fn subgroup_split_by_pisa_nf() {
        // Chain 3 with ACL moved to the switch: Dedup | ACL(P4) |
        // Limiter->LB — two server subgroups.
        let p = PlacementProblem::new(
            vec![spec(CanonicalChain::Chain3, 1e8)],
            Topology::testbed(),
            NfProfiles::table4(),
        );
        let mut a = sw_assignment(&p);
        let acl = p.chains[0]
            .graph
            .nodes()
            .find(|(_, n)| n.kind == NfKind::Acl)
            .unwrap()
            .0;
        a[0].insert(acl, Platform::Pisa);
        let out = p.evaluate(&a, CoreStrategy::WaterFill).unwrap();
        assert_eq!(out.subgroups.len(), 2);
        // Dedup-only subgroup is replicable; Limiter one is not.
        let dedup_sg = out.subgroups.iter().find(|sg| sg.nodes.len() == 1).unwrap();
        assert!(dedup_sg.replicable);
        // More bounces than the single-subgroup placement.
        assert!(out.bounces[0] >= 4.0);
    }

    #[test]
    fn latency_slo_enforced() {
        let mut chain = spec(CanonicalChain::Chain3, 1e8);
        // Dedup alone is ~18µs of compute; 5µs is unmeetable.
        chain.slo = Some(Slo::elastic_pipe(1e8, 100e9).with_latency_ns(5_000.0));
        let p = PlacementProblem::new(vec![chain], Topology::testbed(), NfProfiles::table4());
        let a = sw_assignment(&p);
        assert!(matches!(
            p.evaluate(&a, CoreStrategy::WaterFill).unwrap_err(),
            PlacementError::LatencyViolation { .. }
        ));
    }

    #[test]
    fn bounce_counting() {
        let p = PlacementProblem::new(
            vec![spec(CanonicalChain::Chain3, 1e8)],
            Topology::testbed(),
            NfProfiles::table4(),
        );
        // All server (except fwd): ToR→server→ToR = 2 bounces.
        let a = sw_assignment(&p);
        let b = p.bounce_counts(&a);
        assert!((b[0] - 2.0).abs() < 1e-9, "{b:?}");
        // ACL on switch splits the server run: 4 bounces.
        let mut a2 = a.clone();
        let acl = p.chains[0]
            .graph
            .nodes()
            .find(|(_, n)| n.kind == NfKind::Acl)
            .unwrap()
            .0;
        a2[0].insert(acl, Platform::Pisa);
        let b2 = p.bounce_counts(&a2);
        assert!((b2[0] - 4.0).abs() < 1e-9, "{b2:?}");
    }

    #[test]
    fn link_capacity_limits_rate() {
        // A cheap chain (5) bounced once should cap at the 40G NIC link.
        let mut chain = spec(CanonicalChain::Chain5, 1e8);
        chain.slo = Some(Slo::elastic_pipe(1e8, 200e9));
        let p = PlacementProblem::new(vec![chain], Topology::testbed(), NfProfiles::table4());
        let a = sw_assignment(&p);
        let out = p.evaluate(&a, CoreStrategy::WaterFill).unwrap();
        assert!(out.chain_rates_bps[0] <= 40e9 + 1.0);
    }
}
