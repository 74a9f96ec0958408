//! Baseline placement strategies (§5.1 "Comparison").
//!
//! * **HW Preferred** — as many NFs as possible on the PISA switch; spare
//!   cores split evenly among chains (models accelerator-first systems
//!   like SilkRoad).
//! * **SW Preferred** — every NF with a software implementation on the
//!   server (models kernel-bypass software NFV, e.g. NetBricks).
//! * **Minimum Bounce** — minimize switch↔server traversals (models E2's
//!   Kernighan-Lin placement).
//! * **Greedy** — HW-preferred placement, profile-aware sequential core
//!   allocation per chain index.

use crate::corealloc::CoreStrategy;
use crate::oracle::{StageOracle, StageVerdict};
use crate::placement::{Assignment, EvaluatedPlacement, PlacementError, PlacementProblem};
use crate::profiles::{Platform, PlatformClass};
use std::collections::BTreeMap;

/// Pick a concrete server for each chain's server-class NFs: first-fit on
/// the server with the most remaining (estimated) core headroom. Mirrors
/// the paper's per-chain NIC/socket association. On a rack without
/// servers every chain gets index 0, which `check_capabilities` rejects for
/// any NF actually assigned there.
pub fn choose_server_per_chain(problem: &PlacementProblem, server_nodes: &[usize]) -> Vec<usize> {
    let n_servers = problem.topology.servers.len();
    let mut free: Vec<isize> = (0..n_servers)
        .map(|s| problem.topology.worker_cores(s) as isize)
        .collect();
    let mut choice = vec![0usize; problem.chains.len()];
    if n_servers == 0 {
        return choice;
    }
    // Heaviest chains first grab the emptiest server.
    let mut order: Vec<usize> = (0..problem.chains.len()).collect();
    order.sort_by_key(|c| std::cmp::Reverse(server_nodes[*c]));
    for c in order {
        let s = (0..n_servers).max_by_key(|s| free[*s]).unwrap_or(0);
        choice[c] = s;
        free[s] -= server_nodes[c] as isize;
    }
    choice
}

/// The HW-preferred assignment: every NF with a PISA implementation goes
/// to the switch; everything else to a server.
pub fn hw_preferred_assignment(problem: &PlacementProblem) -> Assignment {
    let server_nodes: Vec<usize> = problem
        .chains
        .iter()
        .map(|c| {
            c.graph
                .nodes()
                .filter(|(_, n)| {
                    !(problem.topology.has_pisa()
                        && problem
                            .profiles
                            .capabilities(n.kind)
                            .contains(&PlatformClass::Pisa))
                })
                .count()
        })
        .collect();
    let servers = choose_server_per_chain(problem, &server_nodes);
    problem
        .chains
        .iter()
        .enumerate()
        .map(|(ci, c)| {
            c.graph
                .nodes()
                .map(|(id, n)| {
                    let plat = if problem.topology.has_pisa()
                        && problem
                            .profiles
                            .capabilities(n.kind)
                            .contains(&PlatformClass::Pisa)
                    {
                        Platform::Pisa
                    } else {
                        Platform::Server(servers[ci])
                    };
                    (id, plat)
                })
                .collect::<BTreeMap<_, _>>()
        })
        .collect()
}

/// The SW-preferred assignment: every NF with a software implementation on
/// the server; NFs without one (the artificially P4-only IPv4Fwd) stay on
/// the switch.
pub fn sw_preferred_assignment(problem: &PlacementProblem) -> Assignment {
    let server_nodes: Vec<usize> = problem
        .chains
        .iter()
        .map(|c| {
            c.graph
                .nodes()
                .filter(|(_, n)| {
                    problem
                        .profiles
                        .capabilities(n.kind)
                        .contains(&PlatformClass::Server)
                })
                .count()
        })
        .collect();
    let servers = choose_server_per_chain(problem, &server_nodes);
    problem
        .chains
        .iter()
        .enumerate()
        .map(|(ci, c)| {
            c.graph
                .nodes()
                .map(|(id, n)| {
                    let plat = if problem
                        .profiles
                        .capabilities(n.kind)
                        .contains(&PlatformClass::Server)
                    {
                        Platform::Server(servers[ci])
                    } else {
                        Platform::Pisa
                    };
                    (id, plat)
                })
                .collect::<BTreeMap<_, _>>()
        })
        .collect()
}

fn check_stages(
    problem: &PlacementProblem,
    assignment: &Assignment,
    oracle: &dyn StageOracle,
) -> Result<usize, PlacementError> {
    match oracle.check(problem, assignment) {
        StageVerdict::Fits { stages } => Ok(stages),
        StageVerdict::OutOfStages {
            required,
            available,
        } => Err(PlacementError::OutOfStages {
            required,
            available,
        }),
    }
}

/// HW Preferred: max switch offload, even spare-core split.
pub fn hw_preferred(
    problem: &PlacementProblem,
    oracle: &dyn StageOracle,
) -> Result<EvaluatedPlacement, PlacementError> {
    let assignment = hw_preferred_assignment(problem);
    let stages = check_stages(problem, &assignment, oracle)?;
    let mut out = problem.evaluate(&assignment, CoreStrategy::EvenSpare)?;
    out.stages_used = Some(stages);
    Ok(out)
}

/// SW Preferred: maximal software placement.
pub fn sw_preferred(
    problem: &PlacementProblem,
    oracle: &dyn StageOracle,
) -> Result<EvaluatedPlacement, PlacementError> {
    let assignment = sw_preferred_assignment(problem);
    let stages = check_stages(problem, &assignment, oracle)?;
    let mut out = problem.evaluate(&assignment, CoreStrategy::WaterFill)?;
    out.stages_used = Some(stages);
    Ok(out)
}

/// Greedy: HW-preferred placement with profile-aware sequential cores.
pub fn greedy(
    problem: &PlacementProblem,
    oracle: &dyn StageOracle,
) -> Result<EvaluatedPlacement, PlacementError> {
    let assignment = hw_preferred_assignment(problem);
    let stages = check_stages(problem, &assignment, oracle)?;
    let mut out = problem.evaluate(&assignment, CoreStrategy::SequentialGreedy)?;
    out.stages_used = Some(stages);
    Ok(out)
}

/// Minimum Bounce: per chain, pick the platform pattern with the fewest
/// switch↔server traversals (ties broken toward higher estimated rate),
/// then allocate cores.
pub fn min_bounce(
    problem: &PlacementProblem,
    oracle: &dyn StageOracle,
) -> Result<EvaluatedPlacement, PlacementError> {
    // Per chain, enumerate patterns and keep the min-bounce one. Patterns
    // come from the same generator as brute force.
    let per_chain = crate::brute::per_chain_patterns(problem, 4096);
    let server_nodes: Vec<usize> = problem.chains.iter().map(|c| c.graph.num_nodes()).collect();
    let servers = choose_server_per_chain(problem, &server_nodes);
    let mut assignment: Assignment = Vec::new();
    for (ci, patterns) in per_chain.iter().enumerate() {
        let mut best: Option<(f64, f64, BTreeMap<_, _>)> = None;
        for pat in patterns {
            let mapped = crate::brute::materialize(pat, servers[ci]);
            let single: Assignment = vec![mapped.clone()];
            let sub = PlacementProblem::new(
                vec![problem.chains[ci].clone()],
                problem.topology.clone(),
                problem.profiles.clone(),
            );
            let bounces = sub.bounce_counts(&single)[0];
            // Cheap rate estimate with one core per subgroup.
            let sgs = sub.form_subgroups(&single);
            let est = crate::corealloc::quick_estimate(&sub, &sgs);
            let better = match &best {
                None => true,
                Some((b, e, _)) => bounces < *b - 1e-9 || (bounces < b + 1e-9 && est > *e),
            };
            if better {
                best = Some((bounces, est, mapped));
            }
        }
        assignment.push(best.map(|(_, _, m)| m).unwrap_or_default());
    }
    let stages = check_stages(problem, &assignment, oracle)?;
    let mut out = problem.evaluate(&assignment, CoreStrategy::WaterFill)?;
    out.stages_used = Some(stages);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::AlwaysFits;
    use crate::profiles::NfProfiles;
    use crate::topology::Topology;
    use lemur_core::chains::{canonical_chain, CanonicalChain};
    use lemur_core::graph::ChainSpec;
    use lemur_core::Slo;
    use lemur_nf::NfKind;

    fn problem(t_min_factor: f64) -> PlacementProblem {
        let chains = [CanonicalChain::Chain2, CanonicalChain::Chain3]
            .iter()
            .map(|w| ChainSpec {
                name: format!("chain{}", w.index()),
                graph: canonical_chain(*w),
                slo: None,
                aggregate: None,
            })
            .collect::<Vec<_>>();
        let mut p = PlacementProblem::new(chains, Topology::testbed(), NfProfiles::table4());
        for i in 0..p.chains.len() {
            let base = p.base_rate_bps(i);
            p.chains[i].slo = Some(Slo::elastic_pipe(t_min_factor * base, 100e9));
        }
        p
    }

    #[test]
    fn hw_preferred_maximizes_switch() {
        let p = problem(0.5);
        let a = hw_preferred_assignment(&p);
        // Chain 2's NATs/LB/Match/Fwd on the switch; Encrypt on server.
        let g = &p.chains[0].graph;
        for (id, n) in g.nodes() {
            match n.kind {
                NfKind::Encrypt => assert!(a[0][&id].is_server()),
                NfKind::Nat | NfKind::Lb | NfKind::Match | NfKind::Ipv4Fwd => {
                    assert_eq!(a[0][&id], Platform::Pisa)
                }
                _ => {}
            }
        }
    }

    #[test]
    fn sw_preferred_maximizes_server() {
        let p = problem(0.5);
        let a = sw_preferred_assignment(&p);
        let g = &p.chains[0].graph;
        for (id, n) in g.nodes() {
            if n.kind == NfKind::Ipv4Fwd {
                assert_eq!(a[0][&id], Platform::Pisa); // P4-only
            } else {
                assert!(a[0][&id].is_server(), "{} should be software", n.name);
            }
        }
    }

    #[test]
    fn all_baselines_feasible_at_low_delta() {
        let p = problem(0.5);
        for (name, f) in [
            ("hw", hw_preferred as fn(_, _) -> _),
            ("sw", sw_preferred),
            ("greedy", greedy),
            ("minbounce", min_bounce),
        ] {
            let r = f(&p, &AlwaysFits);
            assert!(r.is_ok(), "{name} failed: {:?}", r.err());
            let out = r.unwrap();
            for (i, rate) in out.chain_rates_bps.iter().enumerate() {
                let t_min = p.chains[i].slo.unwrap().t_min_bps;
                assert!(rate + 1.0 >= t_min, "{name}: chain {i} below t_min");
            }
        }
    }

    #[test]
    fn sw_preferred_fails_at_high_delta() {
        // SW Preferred packs whole chains into one unreplicable subgroup,
        // so it can't scale to δ = 2.
        let p = problem(2.0);
        assert!(sw_preferred(&p, &AlwaysFits).is_err());
    }

    #[test]
    fn min_bounce_has_fewest_bounces() {
        let p = problem(0.5);
        let mb = min_bounce(&p, &AlwaysFits).unwrap();
        let hw = hw_preferred(&p, &AlwaysFits).unwrap();
        let total = |o: &EvaluatedPlacement| o.bounces.iter().sum::<f64>();
        assert!(
            total(&mb) <= total(&hw) + 1e-9,
            "minbounce {} vs hw {}",
            total(&mb),
            total(&hw)
        );
    }

    #[test]
    fn greedy_meets_slos_when_hw_does() {
        let p = problem(1.0);
        let g = greedy(&p, &AlwaysFits);
        assert!(g.is_ok(), "{:?}", g.err());
    }
}
