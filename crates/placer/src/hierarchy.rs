//! Hierarchical fleet placement: cross-PoP chain assignment on top of the
//! existing single-rack placer.
//!
//! A fleet is a set of PoPs, each a rack the single-site placer already
//! understands. Placement decomposes in two levels:
//!
//! 1. **Cross-PoP assignment** — every chain is routed to one PoP, chosen
//!    greedily in descending [`Slo::priority`] order (ties toward the
//!    larger `t_min`, then the lower chain index) with PoPs tried
//!    least-loaded first. Each tentative assignment is validated by
//!    actually solving the PoP's accumulated subproblem with the
//!    single-rack heuristic — the subproblem *is* the oracle, so the
//!    fleet level never admits a chain a rack cannot serve.
//! 2. **Per-PoP subproblems** — a PoP's chain set is an ordinary
//!    [`PlacementProblem`] solved by
//!    [`crate::heuristic::place_with_workers`], so worker-count
//!    determinism and stage-oracle memoization carry over unchanged.
//!
//! What is solved when: [`seat_chains`] is the one seating loop and solves
//! only the tentative sets it tries, so every PoP a candidate landed on
//! comes back with the plan of its final set and every other PoP with no
//! plan at all. Failover reads only where chains went and stops there.
//! [`assign_chains`] additionally solves the non-empty PoPs no candidate
//! landed on, for callers that deploy every PoP's plan.
//!
//! When aggregate fleet capacity is insufficient, the chains that find no
//! seat are **shed in ascending priority order** — the same graceful-
//! degradation contract as single-rack [`crate::repair`].

use lemur_core::graph::ChainSpec;
use lemur_core::Slo;

use crate::corealloc::CoreStrategy;
use crate::heuristic::place_with_workers;
use crate::oracle::StageOracle;
use crate::parallel::Workers;
use crate::placement::{EvaluatedPlacement, PlacementProblem};
use crate::profiles::NfProfiles;
use crate::topology::Topology;

/// Fractional slack when validating a subproblem's predicted rates
/// against each chain's `t_min` (matches the supervisor's dry-run
/// tolerance).
const VALIDATION_TOL: f64 = 0.05;

/// One PoP's share of a fleet placement.
#[derive(Debug, Clone)]
pub struct PopPlan {
    /// PoP index in the fleet topology.
    pub pop: usize,
    /// Global chain indices served here, ascending.
    pub chains: Vec<usize>,
    /// The PoP-local subproblem (its chain `i` is global `chains[i]`).
    /// `None` when the PoP serves nothing, when its set was never solved
    /// ([`seat_chains`] on a PoP no candidate landed on), or when the rack
    /// cannot serve the set.
    pub problem: Option<PlacementProblem>,
    /// The solved subproblem, aligned with `problem`.
    pub placement: Option<EvaluatedPlacement>,
}

/// A fleet-wide placement: every chain either has exactly one home PoP or
/// is listed in `shed`.
#[derive(Debug, Clone)]
pub struct FleetPlacement {
    /// One entry per PoP, index-aligned with the input topologies.
    pub pops: Vec<PopPlan>,
    /// Global chain indices shed for lack of aggregate capacity, in
    /// shedding order (ascending priority, ties toward smaller `t_min`).
    pub shed: Vec<usize>,
}

impl FleetPlacement {
    /// The home PoP of a global chain, if admitted.
    pub fn home_of(&self, chain: usize) -> Option<usize> {
        self.pops
            .iter()
            .find(|p| p.chains.contains(&chain))
            .map(|p| p.pop)
    }
}

fn slo_of(chain: &ChainSpec) -> Slo {
    chain.slo.unwrap_or(Slo::bulk())
}

/// Candidate order: descending priority, ties toward the larger `t_min`
/// (harder to seat late), then ascending index. Deterministic.
fn candidate_order(chains: &[ChainSpec], candidates: &[usize]) -> Vec<usize> {
    let mut order: Vec<usize> = candidates.to_vec();
    order.sort_by(|&a, &b| {
        let (sa, sb) = (slo_of(&chains[a]), slo_of(&chains[b]));
        sb.priority
            .cmp(&sa.priority)
            .then(
                sb.t_min_bps
                    .partial_cmp(&sa.t_min_bps)
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
            .then(a.cmp(&b))
    });
    order
}

/// Solve PoP `pop`'s subproblem for a chain set; `None` means the rack
/// cannot serve this set (infeasible or an SLO under water).
fn solve_pop(
    chains: &[ChainSpec],
    pop: usize,
    set: Vec<usize>,
    pop_topologies: &[Topology],
    profiles: &NfProfiles,
    oracle: &dyn StageOracle,
    workers: Workers,
) -> Option<PopPlan> {
    // A capacity-zero topology is how callers fence a PoP out of a
    // failover search: it holds nothing, not even the all-switch chains
    // the placer would put on a server-less rack's ToR.
    if pop_topologies[pop].total_worker_cores() == 0 {
        return None;
    }
    let sub = PlacementProblem::new(
        set.iter().map(|&c| chains[c].clone()).collect(),
        pop_topologies[pop].clone(),
        profiles.clone(),
    );
    let placement = place_with_workers(&sub, oracle, CoreStrategy::WaterFill, workers).ok()?;
    let feasible = set.iter().enumerate().all(|(i, &c)| {
        let t_min = slo_of(&chains[c]).t_min_bps;
        placement.chain_rates_bps[i] >= t_min * (1.0 - VALIDATION_TOL)
    });
    feasible.then_some(PopPlan {
        pop,
        chains: set,
        problem: Some(sub),
        placement: Some(placement),
    })
}

/// Seat `candidates` on PoPs on top of chains already `locked` in place:
/// the one greedy loop behind boot and failover. It solves exactly the
/// tentative sets `(PoP, set ∪ {c})` it tries: a PoP that took a candidate
/// carries the plan of its final set, a PoP that took none comes back
/// with its locked set and no plan. A candidate that is already locked
/// somewhere keeps that seat.
///
/// Chains that fit nowhere are shed (never an error): an empty fleet
/// placement is still an answer, just a fully-degraded one.
pub fn seat_chains(
    chains: &[ChainSpec],
    pop_topologies: &[Topology],
    locked: &[Vec<usize>],
    candidates: &[usize],
    profiles: &NfProfiles,
    oracle: &dyn StageOracle,
    workers: Workers,
) -> FleetPlacement {
    assert_eq!(locked.len(), pop_topologies.len(), "one locked set per PoP");
    let n_pops = pop_topologies.len();
    let mut pops: Vec<PopPlan> = (0..n_pops)
        .map(|pop| PopPlan {
            pop,
            chains: locked[pop].clone(),
            problem: None,
            placement: None,
        })
        .collect();
    for plan in &mut pops {
        plan.chains.sort_unstable();
    }
    let mut fp = FleetPlacement {
        pops,
        shed: Vec::new(),
    };

    for c in candidate_order(chains, candidates) {
        if fp.home_of(c).is_some() {
            continue;
        }
        // Least-loaded PoPs first: committed t_min per worker core, ties
        // toward the lower index. Recomputed per candidate so the greedy
        // level balances as it goes.
        let mut by_load: Vec<usize> = (0..n_pops)
            .filter(|&p| pop_topologies[p].total_worker_cores() > 0)
            .collect();
        let load = |p: usize| -> f64 {
            let committed = fp.pops[p]
                .chains
                .iter()
                .map(|&i| slo_of(&chains[i]).t_min_bps);
            committed.sum::<f64>() / pop_topologies[p].total_worker_cores() as f64
        };
        by_load.sort_by(|&a, &b| {
            load(a)
                .partial_cmp(&load(b))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });

        let seat = by_load.into_iter().find_map(|p| {
            let mut tentative = fp.pops[p].chains.clone();
            tentative.insert(tentative.partition_point(|&x| x < c), c);
            solve_pop(
                chains,
                p,
                tentative,
                pop_topologies,
                profiles,
                oracle,
                workers,
            )
        });
        match seat {
            Some(plan) => {
                let home = plan.pop;
                fp.pops[home] = plan;
            }
            None => fp.shed.push(c),
        }
    }

    // Shedding order for the report: ascending priority, smaller t_min
    // first, then index — the reverse of the seating order.
    fp.shed.reverse();
    fp
}

/// [`seat_chains`], then a solve of every non-empty PoP no candidate
/// landed on (its plan stays `None` if the rack cannot serve the set).
/// Boot locks nothing and failover only asks where chains went; this is
/// for callers that deploy every PoP's plan, such as post-storm validation.
pub fn assign_chains(
    chains: &[ChainSpec],
    pop_topologies: &[Topology],
    locked: &[Vec<usize>],
    candidates: &[usize],
    profiles: &NfProfiles,
    oracle: &dyn StageOracle,
    workers: Workers,
) -> FleetPlacement {
    let mut fp = seat_chains(
        chains,
        pop_topologies,
        locked,
        candidates,
        profiles,
        oracle,
        workers,
    );
    for plan in &mut fp.pops {
        if plan.placement.is_none() && !plan.chains.is_empty() {
            let set = plan.chains.clone();
            if let Some(solved) = solve_pop(
                chains,
                plan.pop,
                set,
                pop_topologies,
                profiles,
                oracle,
                workers,
            ) {
                *plan = solved;
            }
        }
    }
    fp
}

/// Place a whole chain catalog onto a fleet of PoPs from scratch — the
/// hierarchical entry point. Nothing is locked, so every PoP that serves
/// anything took a candidate and [`seat_chains`] already holds its plan.
pub fn place_fleet(
    chains: &[ChainSpec],
    pop_topologies: &[Topology],
    profiles: &NfProfiles,
    oracle: &dyn StageOracle,
    workers: Workers,
) -> FleetPlacement {
    let all: Vec<usize> = (0..chains.len()).collect();
    let locked = vec![Vec::new(); pop_topologies.len()];
    seat_chains(
        chains,
        pop_topologies,
        &locked,
        &all,
        profiles,
        oracle,
        workers,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::AlwaysFits;
    use lemur_core::chains::{canonical_chain, CanonicalChain};

    fn catalog(n: usize, t_min_each: f64) -> Vec<ChainSpec> {
        (0..n)
            .map(|i| {
                let which = [
                    CanonicalChain::Chain3,
                    CanonicalChain::Chain2,
                    CanonicalChain::Chain1,
                ][i % 3];
                ChainSpec {
                    name: format!("c{i}"),
                    graph: canonical_chain(which),
                    slo: Some(Slo::elastic_pipe(t_min_each, 100e9).with_priority((n - i) as u8)),
                    aggregate: None,
                }
            })
            .collect()
    }

    #[test]
    fn every_chain_has_exactly_one_home_or_is_shed() {
        let chains = catalog(4, 1e9);
        let pops = vec![Topology::with_servers(2), Topology::with_servers(2)];
        let fp = place_fleet(
            &chains,
            &pops,
            &NfProfiles::table4(),
            &AlwaysFits,
            Workers::new(1),
        );
        let mut seen = vec![0usize; chains.len()];
        for p in &fp.pops {
            for &c in &p.chains {
                seen[c] += 1;
            }
        }
        for &c in &fp.shed {
            seen[c] += 1;
        }
        assert!(seen.iter().all(|&n| n == 1), "ownership must partition");
        // Both PoPs should be earning their keep on a 4-chain catalog.
        assert!(fp.pops.iter().filter(|p| !p.chains.is_empty()).count() >= 2);
    }

    #[test]
    fn shedding_is_by_ascending_priority() {
        // One tiny PoP, demands far beyond its capacity: low-priority
        // chains must be the ones shed.
        let chains = catalog(4, 40e9);
        let pops = vec![Topology::with_servers(1)];
        let fp = place_fleet(
            &chains,
            &pops,
            &NfProfiles::table4(),
            &AlwaysFits,
            Workers::new(1),
        );
        assert!(!fp.shed.is_empty(), "overload must shed");
        let priorities: Vec<u8> = fp
            .shed
            .iter()
            .map(|&c| chains[c].slo.map_or(0, |s| s.priority))
            .collect();
        let mut sorted = priorities.clone();
        sorted.sort_unstable();
        assert_eq!(priorities, sorted, "shed order must be ascending priority");
        // The highest-priority chain always survives if anything does.
        let survivors: Vec<usize> = fp.pops.iter().flat_map(|p| p.chains.clone()).collect();
        if !survivors.is_empty() {
            assert!(survivors.contains(&0), "chain 0 has the top priority");
        }
    }

    #[test]
    fn failover_reassignment_respects_locked_chains() {
        let chains = catalog(4, 1e9);
        let pops = vec![Topology::with_servers(2), Topology::with_servers(2)];
        let fp = place_fleet(
            &chains,
            &pops,
            &NfProfiles::table4(),
            &AlwaysFits,
            Workers::new(1),
        );
        // PoP 0 dies: its chains become candidates, PoP 1 keeps its own.
        let dead: Vec<usize> = fp.pops[0].chains.clone();
        let locked = vec![Vec::new(), fp.pops[1].chains.clone()];
        let after = assign_chains(
            &chains,
            &[Topology::with_servers(0), pops[1].clone()],
            &locked,
            &dead,
            &NfProfiles::table4(),
            &AlwaysFits,
            Workers::new(1),
        );
        for &c in &fp.pops[1].chains {
            assert!(
                after.pops[1].chains.contains(&c),
                "locked chain {c} must stay at its PoP"
            );
        }
        assert!(after.pops[0].chains.is_empty(), "dead PoP seats nothing");
        for &c in &dead {
            let homed = after.pops[1].chains.contains(&c);
            let shed = after.shed.contains(&c);
            assert!(homed ^ shed, "chain {c} must fail over or shed, not both");
        }
    }

    #[test]
    fn a_candidate_that_is_already_locked_keeps_its_one_seat() {
        // Chain 1 is both locked at PoP 1 and offered. It must not be
        // seated a second time — not beside itself at PoP 1 (which solved
        // the PoP with double demand) and not at the emptier PoP 0.
        let chains = catalog(3, 1e9);
        let pops = vec![Topology::with_servers(2), Topology::with_servers(2)];
        let locked = vec![Vec::new(), vec![1]];
        let fp = assign_chains(
            &chains,
            &pops,
            &locked,
            &[0, 1, 2],
            &NfProfiles::table4(),
            &AlwaysFits,
            Workers::new(1),
        );
        assert!(
            fp.pops[1].chains.contains(&1),
            "locked chain keeps its seat"
        );
        let mut seen = vec![0usize; chains.len()];
        for &c in fp.pops.iter().flat_map(|p| &p.chains).chain(&fp.shed) {
            seen[c] += 1;
        }
        assert_eq!(seen, vec![1, 1, 1], "ownership must partition");
        for plan in &fp.pops {
            let problem = plan.problem.as_ref().expect("both PoPs serve something");
            assert_eq!(problem.chains.len(), plan.chains.len());
        }
    }

    /// Records the server count of every rack it is asked about.
    struct RackLog(std::sync::Mutex<Vec<usize>>);

    impl StageOracle for RackLog {
        fn check(
            &self,
            problem: &PlacementProblem,
            _: &crate::placement::Assignment,
        ) -> crate::oracle::StageVerdict {
            let mut log = self.0.lock().expect("no panic while logging");
            log.push(problem.topology.servers.len());
            crate::oracle::StageVerdict::Fits { stages: 1 }
        }
    }

    #[test]
    fn failover_seating_checks_no_pop_that_was_offered_nothing() {
        // PoP 0 is drained; its one chain fits at PoP 1, the emptier
        // survivor, so PoP 2 is never offered anything. Racks are told
        // apart by their server counts.
        let mut chains = catalog(4, 1e9);
        chains[3].slo = Some(Slo::elastic_pipe(3e9, 100e9));
        let pops = vec![
            Topology::with_servers(0),
            Topology::with_servers(2),
            Topology::with_servers(3),
        ];
        let locked = vec![Vec::new(), vec![1], vec![2, 3]];
        let seat = |oracle: &RackLog| {
            let profiles = NfProfiles::table4();
            seat_chains(
                &chains,
                &pops,
                &locked,
                &[0],
                &profiles,
                oracle,
                Workers::new(1),
            )
        };
        let log = RackLog(Default::default());
        let fp = seat(&log);
        assert_eq!(fp.home_of(0), Some(1));
        assert!(
            fp.pops[1].placement.is_some(),
            "the touched PoP has its plan"
        );
        assert!(
            fp.pops[2].placement.is_none(),
            "the untouched PoP was not solved"
        );
        let asked = log.0.into_inner().unwrap();
        assert!(asked.contains(&2), "PoP 1's tentative set was checked");
        assert!(!asked.contains(&3), "PoP 2 was offered nothing: {asked:?}");

        // `assign_chains` is the entry point that solves PoP 2 as well.
        let log = RackLog(Default::default());
        let profiles = NfProfiles::table4();
        let full = assign_chains(
            &chains,
            &pops,
            &locked,
            &[0],
            &profiles,
            &log,
            Workers::new(1),
        );
        assert!(full.pops[2].placement.is_some());
        assert!(log.0.into_inner().unwrap().contains(&3));
    }

    #[test]
    fn deterministic_across_worker_counts() {
        let chains = catalog(5, 1e9);
        let pops = vec![Topology::with_servers(2), Topology::with_servers(3)];
        let a = place_fleet(
            &chains,
            &pops,
            &NfProfiles::table4(),
            &AlwaysFits,
            Workers::new(1),
        );
        let b = place_fleet(
            &chains,
            &pops,
            &NfProfiles::table4(),
            &AlwaysFits,
            Workers::new(4),
        );
        for (pa, pb) in a.pops.iter().zip(&b.pops) {
            assert_eq!(pa.chains, pb.chains);
            assert_eq!(
                pa.placement.as_ref().map(|p| &p.assignment),
                pb.placement.as_ref().map(|p| &p.assignment)
            );
        }
        assert_eq!(a.shed, b.shed);
    }
}
