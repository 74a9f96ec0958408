//! BESS pipeline generation (§4.2 "Codegen for BESS packet steering and NF
//! scheduling", §A.1).
//!
//! For every server with placed subgroups, generate:
//!
//! * the demux configuration: `(SPI, SI) → (subgroup, replica by flow
//!   hash)` entries for the shared `NSHdecap` module;
//! * runnable [`NfRuntime`] instances, one per replica;
//! * the mux rule: each departure re-encapsulates with `(SPI', SI−1)`,
//!   where `SPI'` applies the branch rewrite if the subgroup's tail was a
//!   branch `Match` (gate → SPI from the routing plan);
//! * the per-core scheduler trees (round-robin roots, `t_max` rate
//!   enforcement);
//! * a textual BESS script for the LoC accounting.

use crate::fuse::NfRuntime;
use crate::routing::{Location, RoutingPlan};
use lemur_bess::demux::{Demux, DemuxKey};
use lemur_bess::scheduler::{SchedulerTree, TaskId};
use lemur_core::graph::NodeId;
use lemur_nf::build_nf;
use lemur_nf::fused::FusedNf;
use lemur_placer::placement::{EvaluatedPlacement, PlacementProblem};
use std::collections::HashMap;

/// One replica instance of one subgroup, pinned to a core.
pub struct SubgroupInstance {
    pub subgroup_idx: usize,
    pub replica: usize,
    pub core: usize,
    pub runtime: NfRuntime,
}

/// How a packet leaves a subgroup.
#[derive(Debug, Clone, PartialEq)]
pub struct MuxRule {
    /// Branch rewrites: `(incoming spi, gate) → outgoing spi`. Empty for
    /// non-branch tails (spi unchanged).
    pub gate_spi: HashMap<(u32, usize), u32>,
}

/// The generated pipeline for one server.
pub struct ServerPipeline {
    pub server: usize,
    pub demux: Demux,
    /// Instances in execution order; index via `instance_map`.
    pub instances: Vec<SubgroupInstance>,
    /// `(subgroup idx, replica) → index into instances`.
    pub instance_map: HashMap<(usize, usize), usize>,
    /// Per-subgroup mux behaviour.
    pub mux_rules: HashMap<usize, MuxRule>,
    /// Intra-server wiring: `(subgroup idx, gate) → next subgroup idx` for
    /// consecutive same-server subgroups (a branch point splits subgroups
    /// without bouncing through the ToR — BESS connects them by queues).
    pub internal_next: HashMap<(usize, usize), usize>,
    /// Replica count per subgroup (for internal-hop flow hashing).
    pub replicas: HashMap<usize, usize>,
    /// One scheduler tree per worker core used.
    pub schedulers: HashMap<usize, SchedulerTree>,
    /// Generated BESS script text.
    pub script: String,
}

/// Generate pipelines for every server with placed work. `fused` picks
/// the storage every [`NfRuntime`] is built with (see [`crate::fuse`]);
/// nothing else in a pipeline depends on it.
pub fn generate(
    problem: &PlacementProblem,
    placement: &EvaluatedPlacement,
    routing: &RoutingPlan,
    fused: bool,
) -> Vec<ServerPipeline> {
    let mut pipelines = Vec::new();
    for server in 0..problem.topology.servers.len() {
        let sg_indices: Vec<usize> = placement
            .subgroups
            .iter()
            .enumerate()
            .filter(|(_, sg)| sg.server == server)
            .map(|(i, _)| i)
            .collect();
        if sg_indices.is_empty() {
            continue;
        }
        let mut demux = Demux::new();
        let mut instances = Vec::new();
        let mut instance_map = HashMap::new();
        let mut mux_rules: HashMap<usize, MuxRule> = HashMap::new();
        let mut internal_next: HashMap<(usize, usize), usize> = HashMap::new();
        let mut replicas: HashMap<usize, usize> = HashMap::new();
        // node → subgroup index, for intra-server wiring.
        let mut node_sg: HashMap<(usize, NodeId), usize> = HashMap::new();
        for &si in &sg_indices {
            let sg = &placement.subgroups[si];
            for id in &sg.nodes {
                node_sg.insert((sg.chain, *id), si);
            }
            replicas.insert(si, sg.cores);
        }
        let mut schedulers: HashMap<usize, SchedulerTree> = HashMap::new();
        let mut script = String::from(
            "# Auto-generated BESS pipeline (Lemur meta-compiler)\n\
             port0 = PMDPort(port_id=0)\n\
             inc = PortInc(port=port0)\n\
             out = PortOut(port=port0)\n\
             nshdecap = NSHdecap()\n\
             nshencap = NSHencap()\n\
             inc -> nshdecap\n",
        );

        // Core assignment: pack replicas onto worker cores round-robin,
        // skipping the demux core (core 0).
        let worker_cores = problem.topology.worker_cores(server);
        let mut next_core = 0usize;

        for &si in &sg_indices {
            let sg = &placement.subgroups[si];
            let chain = &problem.chains[sg.chain];
            // Subgroups are non-empty by construction; an empty one has
            // nothing to demux, schedule, or wire.
            let (Some(&head), Some(&tail)) = (sg.nodes.first(), sg.nodes.last()) else {
                continue;
            };
            // Each replica gets a fresh-state runtime built from the same
            // node specs.
            let name = format!("c{}_sg_{}", sg.chain, chain.graph.node(head).name);
            let specs = || sg.nodes.iter().map(|id| chain.graph.node(*id));
            let make_runtime = || {
                if fused {
                    let nfs = specs().map(|n| FusedNf::build(n.kind, &n.params));
                    NfRuntime::fused(&name, nfs.collect())
                } else {
                    let nfs = specs().map(|n| build_nf(n.kind, &n.params));
                    NfRuntime::boxed(&name, nfs.collect())
                }
            };
            for r in 0..sg.cores {
                let core = 1 + (next_core % worker_cores.max(1));
                next_core += 1;
                let runtime = make_runtime();
                let inst_idx = instances.len();
                instances.push(SubgroupInstance {
                    subgroup_idx: si,
                    replica: r,
                    core,
                    runtime,
                });
                instance_map.insert((si, r), inst_idx);
                let sched = schedulers.entry(core).or_default();
                let t_max = chain.slo.map(|s| s.t_max_bps).unwrap_or(f64::INFINITY);
                if t_max.is_finite() {
                    sched.add_rate_limited_task(TaskId(inst_idx), t_max, t_max / 100.0);
                } else {
                    sched.add_task(TaskId(inst_idx));
                }
                script.push_str(&format!(
                    "{name}_r{r} = Subgroup(core={core})  # {} NFs\n",
                    sg.nodes.len()
                ));
            }
            script.push_str(&format!("nshdecap -> {name}_r*:hash(flow)\n"));
            script.push_str(&format!("{name}_r* -> nshencap -> out\n"));

            // Demux entries: every (spi, si) of a server segment whose
            // first node belongs to this subgroup.
            for path in &routing.paths {
                if path.chain != sg.chain {
                    continue;
                }
                for (k, seg) in path.segments.iter().enumerate() {
                    if seg.location != Location::Server(server) || seg.nodes.is_empty() {
                        continue;
                    }
                    if !sg.nodes.contains(&seg.nodes[0]) {
                        continue;
                    }
                    let spi = routing.canonical_spi(problem, path, k);
                    demux.add_entry(DemuxKey { spi, si: seg.si }, si, sg.cores);
                }
            }

            // Mux rule: branch rewrite if the tail node is a branch.
            let mut gate_spi = HashMap::new();
            if chain.graph.is_branch(tail) {
                for ((spi, node, gate), spi_after) in &routing.branch_map {
                    if *node == tail {
                        gate_spi.insert((*spi, *gate), *spi_after);
                    }
                }
            }
            mux_rules.insert(si, MuxRule { gate_spi });

            // Intra-server wiring: a tail edge to another subgroup on this
            // same server continues inside the pipeline (no ToR bounce).
            for e in chain.graph.out_edges(tail) {
                if let Some(&target) = node_sg.get(&(sg.chain, e.to)) {
                    if placement.subgroups[target].nodes.first() == Some(&e.to) {
                        internal_next.insert((si, e.gate), target);
                    }
                }
            }
        }

        pipelines.push(ServerPipeline {
            server,
            demux,
            instances,
            instance_map,
            mux_rules,
            internal_next,
            replicas,
            schedulers,
            script,
        });
    }
    pipelines
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

    fn setup(which: CanonicalChain, delta: f64) -> (PlacementProblem, EvaluatedPlacement) {
        let mut p = PlacementProblem::new(
            vec![ChainSpec {
                name: format!("chain{}", which.index()),
                graph: canonical_chain(which),
                slo: None,
                aggregate: None,
            }],
            Topology::testbed(),
            NfProfiles::table4(),
        );
        let base = p.base_rate_bps(0);
        p.chains[0].slo = Some(Slo::elastic_pipe(delta * base, 100e9));
        let a = lemur_placer::baselines::hw_preferred_assignment(&p);
        let e = p.evaluate(&a, CoreStrategy::WaterFill).unwrap();
        (p, e)
    }

    #[test]
    fn chain3_pipeline_structure() {
        let (p, e) = setup(CanonicalChain::Chain3, 0.5);
        let routing = crate::routing::plan(&p, &e.assignment);
        let pipes = generate(&p, &e, &routing, false);
        assert_eq!(pipes.len(), 1);
        let pipe = &pipes[0];
        // HW-preferred chain 3 leaves Dedup and Limiter on the server →
        // two subgroups, one instance each at δ=0.5.
        assert_eq!(pipe.demux.num_entries(), 2);
        assert!(!pipe.instances.is_empty());
        assert!(pipe.script.contains("NSHdecap"));
        assert!(pipe.script.contains("Subgroup(core="));
        // Every instance maps back.
        for (i, inst) in pipe.instances.iter().enumerate() {
            assert_eq!(pipe.instance_map[&(inst.subgroup_idx, inst.replica)], i);
        }
    }

    #[test]
    fn replicated_subgroup_gets_instances() {
        let (p, e) = setup(CanonicalChain::Chain3, 2.0);
        let routing = crate::routing::plan(&p, &e.assignment);
        let pipes = generate(&p, &e, &routing, false);
        let pipe = &pipes[0];
        let dedup_sg = e
            .subgroups
            .iter()
            .enumerate()
            .find(|(_, sg)| {
                sg.nodes
                    .iter()
                    .any(|id| p.chains[0].graph.node(*id).kind == lemur_nf::NfKind::Dedup)
            })
            .unwrap();
        assert!(dedup_sg.1.cores >= 2);
        let replicas = pipe
            .instances
            .iter()
            .filter(|i| i.subgroup_idx == dedup_sg.0)
            .count();
        assert_eq!(replicas, dedup_sg.1.cores);
    }

    #[test]
    fn branch_mux_rules_present_for_server_branches() {
        // SW-preferred chain 2: the split Match lives on the server, so
        // its subgroup's mux rule must carry gate→SPI rewrites.
        let mut p = PlacementProblem::new(
            vec![ChainSpec {
                name: "chain2".into(),
                graph: canonical_chain(CanonicalChain::Chain2),
                slo: None,
                aggregate: None,
            }],
            Topology::testbed(),
            NfProfiles::table4(),
        );
        let base = p.base_rate_bps(0);
        p.chains[0].slo = Some(Slo::elastic_pipe(0.5 * base, 100e9));
        let a = lemur_placer::baselines::sw_preferred_assignment(&p);
        let e = p.evaluate(&a, CoreStrategy::WaterFill).unwrap();
        let routing = crate::routing::plan(&p, &e.assignment);
        let pipes = generate(&p, &e, &routing, false);
        let has_gate_rules = pipes[0].mux_rules.values().any(|r| !r.gate_spi.is_empty());
        assert!(
            has_gate_rules,
            "server-side branch must produce SPI rewrites"
        );
    }

    #[test]
    fn schedulers_cover_all_instances() {
        let (p, e) = setup(CanonicalChain::Chain3, 1.5);
        let routing = crate::routing::plan(&p, &e.assignment);
        let pipes = generate(&p, &e, &routing, false);
        let pipe = &pipes[0];
        let scheduled: usize = pipe.schedulers.values().map(|s| s.num_tasks()).sum();
        assert_eq!(scheduled, pipe.instances.len());
    }
}
