//! Core-allocation strategies (§3.2 "Searching through Core Allocations").

use crate::placement::{PlacementError, PlacementProblem, SubgroupPlan};
use crate::PACKET_BITS;
use lemur_core::Slo;

/// How cores are distributed over subgroups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreStrategy {
    /// Lemur/Optimal: meet every chain's `t_min`, then water-fill spare
    /// cores onto whichever subgroup yields the largest marginal gain.
    WaterFill,
    /// The Greedy baseline: meet `t_min` using profiles, then give spare
    /// cores to chains *sequentially by index* until each hits `t_max`.
    SequentialGreedy,
    /// The HW Preferred baseline: one core per subgroup, spare cores
    /// round-robined across chains regardless of SLO.
    EvenSpare,
    /// The §5.3 "No Core Allocation" ablation: one core per subgroup.
    MinimalOnly,
}

/// A subgroup's chain-rate capacity (bps) were it given `cores`.
fn capacity(problem: &PlacementProblem, sg: &SubgroupPlan, cores: usize) -> f64 {
    sg.capacity_with_cores_bps(cores, problem.topology.servers[sg.server].clock_hz)
}

/// A chain's bottleneck under the current allocation: the chain's capacity
/// now, which subgroup to grow, and what bounds the capacity afterwards.
#[derive(Debug, Clone, Copy)]
struct Bottleneck {
    /// The first subgroup of minimum capacity.
    index: usize,
    /// Its capacity, which is the chain's.
    cap: f64,
    /// Minimum capacity over the chain's other subgroups.
    rest: f64,
}

impl Bottleneck {
    /// Fold the next subgroup of the chain (slice position `index`,
    /// capacity `cap`) into the bottleneck found so far.
    fn with(found: Option<Bottleneck>, index: usize, cap: f64) -> Bottleneck {
        match found {
            Some(b) if cap < b.cap => Bottleneck {
                index,
                cap,
                rest: b.rest.min(b.cap),
            },
            Some(b) => Bottleneck {
                rest: b.rest.min(cap),
                ..b
            },
            None => Bottleneck {
                index,
                cap,
                rest: f64::INFINITY,
            },
        }
    }

    /// `None` for a chain with no subgroup: nothing on a server bounds it.
    fn of(problem: &PlacementProblem, subgroups: &[SubgroupPlan], chain: usize) -> Option<Self> {
        let mut found = None;
        for (index, sg) in subgroups.iter().enumerate() {
            if sg.chain == chain {
                found = Some(Self::with(found, index, capacity(problem, sg, sg.cores)));
            }
        }
        found
    }
}

/// Chain-rate capacity (bps) implied by the current allocation: min over
/// the chain's subgroups.
fn chain_capacity(problem: &PlacementProblem, subgroups: &[SubgroupPlan], chain: usize) -> f64 {
    Bottleneck::of(problem, subgroups, chain).map_or(f64::INFINITY, |b| b.cap)
}

fn slo_of(problem: &PlacementProblem, chain: usize) -> Slo {
    problem.chains[chain].slo.unwrap_or(Slo::bulk())
}

/// The vectors [`allocate_with`] works in. A search that allocates many
/// candidate subgroup lists of one problem keeps one and passes it to every
/// call; each call overwrites it, so nothing carries over between calls.
#[derive(Debug, Default)]
pub struct AllocBuffer {
    /// Free worker cores per server.
    free: Vec<isize>,
    /// Every chain's bottleneck under the allocation so far.
    bottlenecks: Vec<Option<Bottleneck>>,
}

/// One allocation in progress: every subgroup at its current core count,
/// with `free` and `bottlenecks` kept in step with it.
struct Allocation<'a> {
    problem: &'a PlacementProblem,
    subgroups: &'a mut [SubgroupPlan],
    free: &'a mut [isize],
    bottlenecks: &'a mut [Option<Bottleneck>],
}

impl Allocation<'_> {
    fn cap(&self, chain: usize) -> f64 {
        self.bottlenecks[chain].map_or(f64::INFINITY, |b| b.cap)
    }

    /// The chain's bottleneck, if it can take one more core (replicable,
    /// with a free core on its server).
    fn growable(&self, chain: usize) -> Option<Bottleneck> {
        self.bottlenecks[chain].filter(|b| {
            let sg = &self.subgroups[b.index];
            sg.replicable && self.free[sg.server] > 0
        })
    }

    /// The chain's capacity were its bottleneck `b` given one more core.
    fn cap_if_grown(&self, b: &Bottleneck) -> f64 {
        let sg = &self.subgroups[b.index];
        b.rest.min(capacity(self.problem, sg, sg.cores + 1))
    }

    /// Give subgroup `i` one more core. Only its own chain's capacity can
    /// change, so only that chain's bottleneck is found again.
    fn grow(&mut self, i: usize) {
        let (chain, server) = (self.subgroups[i].chain, self.subgroups[i].server);
        self.free[server] -= 1;
        self.subgroups[i].cores += 1;
        self.bottlenecks[chain] = Bottleneck::of(self.problem, self.subgroups, chain);
    }

    /// The first chain below its `t_min`, for error texts.
    fn first_unmet(&self) -> Option<usize> {
        (0..self.bottlenecks.len())
            .find(|&c| self.cap(c) + 1e-6 < slo_of(self.problem, c).t_min_bps)
    }
}

/// Allocate cores in place. Every subgroup starts at 1 core; failure to
/// fit the minimum allocation or to reach a chain's `t_min` is an error.
pub fn allocate(
    problem: &PlacementProblem,
    subgroups: &mut [SubgroupPlan],
    strategy: CoreStrategy,
) -> Result<(), PlacementError> {
    allocate_with(problem, subgroups, strategy, &mut AllocBuffer::default())
}

/// [`allocate`] working in the caller's `buffer`.
pub fn allocate_with(
    problem: &PlacementProblem,
    subgroups: &mut [SubgroupPlan],
    strategy: CoreStrategy,
    buffer: &mut AllocBuffer,
) -> Result<(), PlacementError> {
    let n_chains = problem.chains.len();
    let AllocBuffer { free, bottlenecks } = buffer;
    free.clear();
    free.extend(
        (0..problem.topology.servers.len()).map(|s| problem.topology.worker_cores(s) as isize),
    );
    bottlenecks.clear();
    bottlenecks.resize(n_chains, None);
    for (index, sg) in subgroups.iter_mut().enumerate() {
        sg.cores = 1;
        free[sg.server] -= 1;
        // Subgroups of a chain the problem does not hold take their core
        // and bound nothing.
        if let Some(found) = bottlenecks.get_mut(sg.chain) {
            *found = Some(Bottleneck::with(*found, index, capacity(problem, sg, 1)));
        }
    }
    if free.iter().any(|f| *f < 0) {
        return Err(PlacementError::Infeasible(
            "more subgroups than worker cores".to_string(),
        ));
    }
    let mut a = Allocation {
        problem,
        subgroups,
        free,
        bottlenecks,
    };

    let tor_rate = match &problem.topology.tor {
        crate::topology::Tor::Pisa(m) => m.port_rate_bps,
        crate::topology::Tor::OpenFlow { rate_bps } => *rate_bps,
    };

    // Phase 1 (all but EvenSpare/MinimalOnly): reach every t_min.
    if matches!(
        strategy,
        CoreStrategy::WaterFill | CoreStrategy::SequentialGreedy
    ) {
        loop {
            let mut progressed = false;
            let mut all_met = true;
            for c in 0..n_chains {
                if a.cap(c) + 1e-6 >= slo_of(problem, c).t_min_bps {
                    continue;
                }
                all_met = false;
                if let Some(b) = a.growable(c) {
                    a.grow(b.index);
                    progressed = true;
                }
            }
            if all_met {
                break;
            }
            if !progressed {
                let c = a.first_unmet().unwrap_or(0);
                return Err(PlacementError::Infeasible(format!(
                    "chain {c}: cannot reach t_min ({:.2}G < {:.2}G)",
                    a.cap(c) / 1e9,
                    slo_of(problem, c).t_min_bps / 1e9
                )));
            }
        }
    }

    // Phase 2: spend spare cores.
    match strategy {
        CoreStrategy::MinimalOnly => {
            // Still must verify t_min with single cores.
            if let Some(c) = a.first_unmet() {
                return Err(PlacementError::Infeasible(format!(
                    "chain {c}: t_min unreachable without core scaling"
                )));
            }
        }
        CoreStrategy::WaterFill => {
            // Greedy water-filling on marginal gain.
            loop {
                let mut best: Option<(usize, f64)> = None;
                for c in 0..n_chains {
                    let Some(b) = a.growable(c) else { continue };
                    let ceiling = slo_of(problem, c).t_max_bps.min(tor_rate);
                    let gain = a.cap_if_grown(&b).min(ceiling) - b.cap.min(ceiling);
                    if gain > 1e-6 && best.map(|(_, g)| gain > g).unwrap_or(true) {
                        best = Some((b.index, gain));
                    }
                }
                let Some((i, _)) = best else { break };
                a.grow(i);
            }
        }
        CoreStrategy::SequentialGreedy => {
            // Chains in index order, each filled to t_max before the next.
            for c in 0..n_chains {
                let ceiling = slo_of(problem, c).t_max_bps.min(tor_rate);
                loop {
                    let now = a.cap(c).min(ceiling);
                    if now + 1e-6 >= ceiling {
                        break;
                    }
                    let Some(b) = a.growable(c) else { break };
                    if a.cap_if_grown(&b).min(ceiling) - now <= 1e-6 {
                        break;
                    }
                    a.grow(b.index);
                }
            }
        }
        CoreStrategy::EvenSpare => {
            // Round-robin spare cores across chains, each chain growing its
            // bottleneck; stop when nothing can grow.
            loop {
                let mut gave_any = false;
                for c in 0..n_chains {
                    let Some(b) = a.growable(c) else { continue };
                    // Only if it actually improves (avoid burning cores
                    // on a non-bottleneck shape).
                    let after = a.cap_if_grown(&b);
                    if after - b.cap > 1e-6 && after <= 2.0 * tor_rate {
                        a.grow(b.index);
                        gave_any = true;
                    }
                }
                if !gave_any {
                    break;
                }
            }
            // EvenSpare ignores SLOs while allocating, but feasibility
            // still requires t_min afterwards.
            if let Some(c) = a.first_unmet() {
                return Err(PlacementError::Infeasible(format!(
                    "chain {c}: t_min unmet under even-spare allocation"
                )));
            }
        }
    }
    Ok(())
}

/// Analytic chain-rate estimate for a (possibly partial) allocation,
/// ignoring link constraints — used by search heuristics for cheap
/// ranking.
pub fn quick_estimate(problem: &PlacementProblem, subgroups: &[SubgroupPlan]) -> f64 {
    (0..problem.chains.len())
        .map(|c| {
            let slo = slo_of(problem, c);
            chain_capacity(problem, subgroups, c).min(slo.t_max_bps) - slo.t_min_bps
        })
        .sum()
}

/// Per-core packets/s for a subgroup (helper for tests and diagnostics).
pub fn per_core_pps(problem: &PlacementProblem, sg: &SubgroupPlan) -> f64 {
    problem.topology.servers[sg.server].clock_hz / sg.cycles
}

/// Per-core chain-rate bps for a subgroup.
pub fn per_core_bps(problem: &PlacementProblem, sg: &SubgroupPlan) -> f64 {
    per_core_pps(problem, sg) * PACKET_BITS / sg.fraction.max(1e-12)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::{NfProfiles, Platform};
    use crate::topology::Topology;
    use lemur_core::chains::{canonical_chain, extreme_nat_chain, CanonicalChain};
    use lemur_core::graph::ChainSpec;
    use lemur_core::Slo;
    use lemur_nf::NfKind;
    use std::collections::BTreeMap;

    fn problem(t_mins: &[(CanonicalChain, f64)]) -> PlacementProblem {
        let chains = t_mins
            .iter()
            .map(|(w, t)| ChainSpec {
                name: format!("chain{}", w.index()),
                graph: canonical_chain(*w),
                slo: Some(Slo::elastic_pipe(*t, 100e9)),
                aggregate: None,
            })
            .collect();
        PlacementProblem::new(chains, Topology::testbed(), NfProfiles::table4())
    }

    fn hw_assignment(p: &PlacementProblem) -> crate::Assignment {
        p.chains
            .iter()
            .map(|c| {
                c.graph
                    .nodes()
                    .map(|(id, n)| {
                        let plat = if crate::profiles::capabilities(n.kind)
                            .contains(&crate::profiles::PlatformClass::Pisa)
                        {
                            Platform::Pisa
                        } else {
                            Platform::Server(0)
                        };
                        (id, plat)
                    })
                    .collect::<BTreeMap<_, _>>()
            })
            .collect()
    }

    #[test]
    fn waterfill_replicates_dedup_for_high_tmin() {
        // Chain 3, HW-preferred: only Dedup/Limiter/UrlFilter-class NFs on
        // the server. Demand 2× the single-core Dedup rate.
        let p = problem(&[(CanonicalChain::Chain3, 1.2e9)]);
        let a = hw_assignment(&p);
        let mut sgs = p.form_subgroups(&a);
        allocate(&p, &mut sgs, CoreStrategy::WaterFill).unwrap();
        let dedup_sg = sgs
            .iter()
            .find(|sg| {
                sg.nodes
                    .iter()
                    .any(|id| p.chains[0].graph.node(*id).kind == NfKind::Dedup)
            })
            .unwrap();
        assert!(
            dedup_sg.cores >= 2,
            "dedup must be replicated: {}",
            dedup_sg.cores
        );
    }

    #[test]
    fn unreplicable_bottleneck_is_infeasible() {
        // SW-preferred chain 3 is one subgroup containing Limiter — 1 core
        // forever; a t_min above that capacity cannot be met.
        let p = problem(&[(CanonicalChain::Chain3, 5e9)]);
        let a: crate::Assignment = p
            .chains
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
                    .collect::<BTreeMap<_, _>>()
            })
            .collect();
        let mut sgs = p.form_subgroups(&a);
        let err = allocate(&p, &mut sgs, CoreStrategy::WaterFill).unwrap_err();
        assert!(matches!(err, PlacementError::Infeasible(_)));
    }

    #[test]
    fn minimal_only_keeps_single_cores() {
        let p = problem(&[(CanonicalChain::Chain3, 1e8)]);
        let a = hw_assignment(&p);
        let mut sgs = p.form_subgroups(&a);
        allocate(&p, &mut sgs, CoreStrategy::MinimalOnly).unwrap();
        assert!(sgs.iter().all(|sg| sg.cores == 1));
    }

    #[test]
    fn sequential_greedy_favors_earlier_chains() {
        // Two copies of chain 3 under HW-preferred; chain 0 should end up
        // with at least as many Dedup cores as chain 1.
        let p = problem(&[(CanonicalChain::Chain3, 5e8), (CanonicalChain::Chain3, 5e8)]);
        let a = hw_assignment(&p);
        let mut sgs = p.form_subgroups(&a);
        allocate(&p, &mut sgs, CoreStrategy::SequentialGreedy).unwrap();
        let cores_of = |chain: usize| -> usize {
            sgs.iter()
                .filter(|sg| sg.chain == chain)
                .map(|sg| sg.cores)
                .sum()
        };
        assert!(
            cores_of(0) >= cores_of(1),
            "{} vs {}",
            cores_of(0),
            cores_of(1)
        );
    }

    #[test]
    fn core_budget_respected() {
        let p = problem(&[(CanonicalChain::Chain3, 5e8), (CanonicalChain::Chain4, 5e8)]);
        let a = hw_assignment(&p);
        for strategy in [
            CoreStrategy::WaterFill,
            CoreStrategy::SequentialGreedy,
            CoreStrategy::EvenSpare,
            CoreStrategy::MinimalOnly,
        ] {
            let mut sgs = p.form_subgroups(&a);
            if allocate(&p, &mut sgs, strategy).is_ok() {
                let used: usize = sgs.iter().map(|sg| sg.cores).sum();
                assert!(
                    used <= p.topology.worker_cores(0),
                    "{strategy:?} used {used} cores"
                );
            }
        }
    }

    /// The allocation loops as they were before [`Bottleneck`]: every
    /// question (capacity now, which subgroup to grow, capacity after) is
    /// its own pass over the whole slice. Kept as the reference the
    /// single-pass version is compared against.
    mod reference {
        use super::super::{slo_of, CoreStrategy};
        use crate::placement::{PlacementError, PlacementProblem, SubgroupPlan};

        /// Free worker cores per server under the current allocation.
        fn free_cores(problem: &PlacementProblem, subgroups: &[SubgroupPlan]) -> Vec<isize> {
            let mut free: Vec<isize> = (0..problem.topology.servers.len())
                .map(|s| problem.topology.worker_cores(s) as isize)
                .collect();
            for sg in subgroups {
                free[sg.server] -= sg.cores as isize;
            }
            free
        }

        /// Chain-rate capacity (bps) implied by the current allocation: min over
        /// the chain's subgroups.
        fn chain_capacity(
            problem: &PlacementProblem,
            subgroups: &[SubgroupPlan],
            chain: usize,
        ) -> f64 {
            subgroups
                .iter()
                .filter(|sg| sg.chain == chain)
                .map(|sg| sg.chain_rate_capacity_bps(problem.topology.servers[sg.server].clock_hz))
                .fold(f64::INFINITY, f64::min)
        }

        /// Index of the chain's current bottleneck subgroup that can still grow
        /// (replicable, with a free core on its server).
        fn growable_bottleneck(
            problem: &PlacementProblem,
            subgroups: &[SubgroupPlan],
            free: &[isize],
            chain: usize,
        ) -> Option<usize> {
            let mut best: Option<(usize, f64)> = None;
            for (i, sg) in subgroups.iter().enumerate() {
                if sg.chain != chain {
                    continue;
                }
                let cap = sg.chain_rate_capacity_bps(problem.topology.servers[sg.server].clock_hz);
                if best.map(|(_, c)| cap < c).unwrap_or(true) {
                    best = Some((i, cap));
                }
            }
            let (i, _) = best?;
            let sg = &subgroups[i];
            (sg.replicable && free[sg.server] > 0).then_some(i)
        }

        /// Allocate cores in place. Every subgroup starts at 1 core; failure to
        /// fit the minimum allocation or to reach a chain's `t_min` is an error.
        pub fn allocate(
            problem: &PlacementProblem,
            subgroups: &mut [SubgroupPlan],
            strategy: CoreStrategy,
        ) -> Result<(), PlacementError> {
            for sg in subgroups.iter_mut() {
                sg.cores = 1;
            }
            let mut free = free_cores(problem, subgroups);
            if free.iter().any(|f| *f < 0) {
                return Err(PlacementError::Infeasible(
                    "more subgroups than worker cores".to_string(),
                ));
            }

            let n_chains = problem.chains.len();
            let tor_rate = match &problem.topology.tor {
                crate::topology::Tor::Pisa(m) => m.port_rate_bps,
                crate::topology::Tor::OpenFlow { rate_bps } => *rate_bps,
            };

            // Phase 1 (all but EvenSpare/MinimalOnly): reach every t_min.
            if matches!(
                strategy,
                CoreStrategy::WaterFill | CoreStrategy::SequentialGreedy
            ) {
                loop {
                    let mut progressed = false;
                    let mut all_met = true;
                    for c in 0..n_chains {
                        let need = slo_of(problem, c).t_min_bps;
                        if chain_capacity(problem, subgroups, c) + 1e-6 >= need {
                            continue;
                        }
                        all_met = false;
                        if let Some(i) = growable_bottleneck(problem, subgroups, &free, c) {
                            free[subgroups[i].server] -= 1;
                            subgroups[i].cores += 1;
                            progressed = true;
                        }
                    }
                    if all_met {
                        break;
                    }
                    if !progressed {
                        // Find the first unmet chain for the error message.
                        let c = (0..n_chains)
                            .find(|c| {
                                chain_capacity(problem, subgroups, *c) + 1e-6
                                    < slo_of(problem, *c).t_min_bps
                            })
                            .unwrap_or(0);
                        return Err(PlacementError::Infeasible(format!(
                            "chain {c}: cannot reach t_min ({:.2}G < {:.2}G)",
                            chain_capacity(problem, subgroups, c) / 1e9,
                            slo_of(problem, c).t_min_bps / 1e9
                        )));
                    }
                }
            }

            // Phase 2: spend spare cores.
            match strategy {
                CoreStrategy::MinimalOnly => {
                    // Still must verify t_min with single cores.
                    for c in 0..n_chains {
                        if chain_capacity(problem, subgroups, c) + 1e-6
                            < slo_of(problem, c).t_min_bps
                        {
                            return Err(PlacementError::Infeasible(format!(
                                "chain {c}: t_min unreachable without core scaling"
                            )));
                        }
                    }
                }
                CoreStrategy::WaterFill => {
                    // Greedy water-filling on marginal gain.
                    loop {
                        let mut best: Option<(usize, f64)> = None;
                        for c in 0..n_chains {
                            let slo = slo_of(problem, c);
                            let ceiling = slo.t_max_bps.min(tor_rate);
                            let now = chain_capacity(problem, subgroups, c).min(ceiling);
                            let Some(i) = growable_bottleneck(problem, subgroups, &free, c) else {
                                continue;
                            };
                            // Tentatively add a core.
                            subgroups[i].cores += 1;
                            let after = chain_capacity(problem, subgroups, c).min(ceiling);
                            subgroups[i].cores -= 1;
                            let gain = after - now;
                            if gain > 1e-6 && best.map(|(_, g)| gain > g).unwrap_or(true) {
                                best = Some((i, gain));
                            }
                        }
                        let Some((i, _)) = best else { break };
                        free[subgroups[i].server] -= 1;
                        subgroups[i].cores += 1;
                    }
                }
                CoreStrategy::SequentialGreedy => {
                    // Chains in index order, each filled to t_max before the next.
                    for c in 0..n_chains {
                        let ceiling = slo_of(problem, c).t_max_bps.min(tor_rate);
                        loop {
                            let now = chain_capacity(problem, subgroups, c).min(ceiling);
                            if now + 1e-6 >= ceiling {
                                break;
                            }
                            let Some(i) = growable_bottleneck(problem, subgroups, &free, c) else {
                                break;
                            };
                            subgroups[i].cores += 1;
                            let after = chain_capacity(problem, subgroups, c).min(ceiling);
                            if after - now <= 1e-6 {
                                subgroups[i].cores -= 1;
                                break;
                            }
                            free[subgroups[i].server] -= 1;
                        }
                    }
                }
                CoreStrategy::EvenSpare => {
                    // Round-robin spare cores across chains, each chain growing its
                    // bottleneck; stop when nothing can grow.
                    loop {
                        let mut gave_any = false;
                        for c in 0..n_chains {
                            if let Some(i) = growable_bottleneck(problem, subgroups, &free, c) {
                                // Only if it actually improves (avoid burning cores
                                // on a non-bottleneck shape).
                                let now = chain_capacity(problem, subgroups, c);
                                subgroups[i].cores += 1;
                                let after = chain_capacity(problem, subgroups, c);
                                if after - now > 1e-6 && after <= 2.0 * tor_rate {
                                    free[subgroups[i].server] -= 1;
                                    gave_any = true;
                                } else {
                                    subgroups[i].cores -= 1;
                                }
                            }
                        }
                        if !gave_any {
                            break;
                        }
                    }
                    // EvenSpare ignores SLOs while allocating, but feasibility
                    // still requires t_min afterwards.
                    for c in 0..n_chains {
                        if chain_capacity(problem, subgroups, c) + 1e-6
                            < slo_of(problem, c).t_min_bps
                        {
                            return Err(PlacementError::Infeasible(format!(
                                "chain {c}: t_min unmet under even-spare allocation"
                            )));
                        }
                    }
                }
            }
            Ok(())
        }
    }

    /// A problem and a capability-blind random placement's subgroups (so
    /// chains with none, one and many subgroups).
    fn scenario(
        picks: &[usize],
        delta: f64,
        servers: usize,
        seeds: &[usize],
    ) -> (PlacementProblem, Vec<SubgroupPlan>) {
        let chains = picks
            .iter()
            .map(|&w| ChainSpec {
                name: format!("chain{w}"),
                // 5: equal parallel branches, so capacities tie.
                graph: CanonicalChain::ALL
                    .get(w)
                    .map_or_else(|| extreme_nat_chain(3), |c| canonical_chain(*c)),
                slo: None,
                aggregate: None,
            })
            .collect();
        let topology = if servers == 1 {
            Topology::testbed()
        } else {
            Topology::with_servers(servers)
        };
        let mut p = PlacementProblem::new(chains, topology, NfProfiles::table4());
        for i in 0..p.chains.len() {
            let base = p.base_rate_bps(i);
            p.chains[i].slo = Some(Slo::elastic_pipe((delta * base).min(100e9), 100e9));
        }
        let mut next = seeds.iter().cycle();
        let a: crate::Assignment = p
            .chains
            .iter()
            .map(|c| {
                c.graph
                    .nodes()
                    .map(|(id, _)| {
                        let s = *next.next().unwrap();
                        let plat = if s.is_multiple_of(3) {
                            Platform::Pisa
                        } else {
                            Platform::Server(s % servers)
                        };
                        (id, plat)
                    })
                    .collect::<BTreeMap<_, _>>()
            })
            .collect();
        let subgroups = p.form_subgroups(&a);
        (p, subgroups)
    }

    proptest::proptest! {
        #![cases = 256]

        /// Same cores, same error text as the reference loops — every
        /// strategy, one to three servers, whole subgroup lists and
        /// prefixes of them. One buffer serves every call of a case, over
        /// problems of different chain and server counts: a call must not
        /// see what the one before left in it.
        #[test]
        fn allocate_matches_reference_loops(
            scenarios in proptest::prop::collection::vec(
                (
                    proptest::prop::collection::vec(0usize..6, 1..5),
                    0.1f64..3.0,
                    1usize..4,
                    proptest::prop::collection::vec(0usize..1000, 8..64),
                ),
                1..4,
            ),
        ) {
            let mut buffer = AllocBuffer::default();
            for (picks, delta, servers, seeds) in &scenarios {
                let (p, subgroups) = scenario(picks, *delta, *servers, seeds);
                for strategy in [
                    CoreStrategy::WaterFill,
                    CoreStrategy::SequentialGreedy,
                    CoreStrategy::EvenSpare,
                    CoreStrategy::MinimalOnly,
                ] {
                    for len in [subgroups.len(), subgroups.len() / 2] {
                        let mut got = subgroups[..len].to_vec();
                        let mut want = got.clone();
                        let got_result = allocate_with(&p, &mut got, strategy, &mut buffer);
                        let want_result = reference::allocate(&p, &mut want, strategy);
                        proptest::prop_assert_eq!(got_result, want_result, "{strategy:?} {len}");
                        let cores = |sgs: &[SubgroupPlan]| sgs.iter().map(|sg| sg.cores).collect::<Vec<_>>();
                        proptest::prop_assert_eq!(cores(&got), cores(&want), "{strategy:?} {len}");
                    }
                }
            }
        }
    }
}
