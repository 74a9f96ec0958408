//! `seat_chains` and `assign_chains` against the fleet-placement loop they
//! were split out of.
//!
//! The reference below is that loop as it stood: it solves every non-empty
//! locked set before seating anything and keeps a per-PoP slot for the last
//! successful solve. The split must decide the same seats, shed in the same
//! order and carry the same plans; `seat_chains` may differ only in leaving
//! the PoPs no candidate landed on unsolved.

use lemur_core::chains::{canonical_chain, CanonicalChain};
use lemur_core::graph::ChainSpec;
use lemur_core::Slo;
use lemur_placer::corealloc::CoreStrategy;
use lemur_placer::heuristic::place_with_workers;
use lemur_placer::oracle::{AlwaysFits, ModelOracle, StageOracle};
use lemur_placer::placement::{EvaluatedPlacement, PlacementProblem};
use lemur_placer::profiles::NfProfiles;
use lemur_placer::topology::Topology;
use lemur_placer::{assign_chains, seat_chains, Workers};
use proptest::prelude::*;

type Solved = Option<(PlacementProblem, EvaluatedPlacement)>;

fn t_min(chain: &ChainSpec) -> f64 {
    chain.slo.expect("every chain gets an SLO").t_min_bps
}

fn solve(chains: &[ChainSpec], set: &[usize], rack: &Topology, oracle: &dyn StageOracle) -> Solved {
    if rack.total_worker_cores() == 0 {
        return None;
    }
    let sub = PlacementProblem::new(
        set.iter().map(|&c| chains[c].clone()).collect(),
        rack.clone(),
        NfProfiles::table4(),
    );
    let placement =
        place_with_workers(&sub, oracle, CoreStrategy::WaterFill, Workers::new(1)).ok()?;
    let mut rates = placement.chain_rates_bps.iter().zip(set);
    let feasible = rates.all(|(rate, &c)| *rate >= t_min(&chains[c]) * 0.95);
    feasible.then_some((sub, placement))
}

/// The unsplit loop: per-PoP sets, shed order, and the solved slot of
/// every PoP.
fn reference(
    chains: &[ChainSpec],
    racks: &[Topology],
    locked: &[Vec<usize>],
    candidates: &[usize],
    oracle: &dyn StageOracle,
) -> (Vec<Vec<usize>>, Vec<usize>, Vec<Solved>) {
    let mut sets: Vec<Vec<usize>> = locked.to_vec();
    for set in &mut sets {
        set.sort_unstable();
    }
    let mut solved: Vec<Solved> = (0..racks.len())
        .map(|p| {
            if sets[p].is_empty() {
                None
            } else {
                solve(chains, &sets[p], &racks[p], oracle)
            }
        })
        .collect();
    let mut order = candidates.to_vec();
    order.sort_by(|&a, &b| {
        let (sa, sb) = (chains[a].slo.unwrap(), chains[b].slo.unwrap());
        sb.priority
            .cmp(&sa.priority)
            .then(sb.t_min_bps.partial_cmp(&sa.t_min_bps).unwrap())
            .then(a.cmp(&b))
    });
    let mut shed = Vec::new();
    for c in order {
        let mut by_load: Vec<usize> = (0..racks.len())
            .filter(|&p| racks[p].total_worker_cores() > 0)
            .collect();
        let load = |p: usize| {
            let committed: f64 = sets[p].iter().map(|&i| t_min(&chains[i])).sum();
            committed / racks[p].total_worker_cores() as f64
        };
        by_load.sort_by(|&a, &b| load(a).partial_cmp(&load(b)).unwrap().then(a.cmp(&b)));
        let mut seated = false;
        for p in by_load {
            let mut tentative = sets[p].clone();
            tentative.push(c);
            tentative.sort_unstable();
            if let Some(ok) = solve(chains, &tentative, &racks[p], oracle) {
                sets[p] = tentative;
                solved[p] = Some(ok);
                seated = true;
                break;
            }
        }
        if !seated {
            shed.push(c);
        }
    }
    shed.reverse();
    (sets, shed, solved)
}

/// A plan as a caller sees it; `f64`s print exactly under `{:?}`.
fn plan_of(problem: &Option<PlacementProblem>, placement: &Option<EvaluatedPlacement>) -> String {
    let names = problem
        .as_ref()
        .map(|p| p.chains.iter().map(|c| c.name.clone()).collect::<Vec<_>>());
    format!("{names:?} {placement:?}")
}

fn check(
    chains: &[ChainSpec],
    racks: &[Topology],
    locked: &[Vec<usize>],
    candidates: &[usize],
    oracle: &dyn StageOracle,
) -> Result<(), TestCaseError> {
    let (sets, shed, solved) = reference(chains, racks, locked, candidates, oracle);
    let profiles = NfProfiles::table4();
    let one = Workers::new(1);
    let seated = seat_chains(chains, racks, locked, candidates, &profiles, oracle, one);
    let assigned = assign_chains(chains, racks, locked, candidates, &profiles, oracle, one);
    for fp in [&seated, &assigned] {
        prop_assert_eq!(&fp.shed, &shed);
        let got: Vec<&Vec<usize>> = fp.pops.iter().map(|p| &p.chains).collect();
        prop_assert_eq!(got, sets.iter().collect::<Vec<_>>());
    }
    for (p, slot) in solved.iter().enumerate() {
        let (want_problem, want_placement) = match slot {
            Some((problem, placement)) => (Some(problem.clone()), Some(placement.clone())),
            None => (None, None),
        };
        let want = plan_of(&want_problem, &want_placement);
        let full = &assigned.pops[p];
        prop_assert_eq!(
            plan_of(&full.problem, &full.placement),
            want.clone(),
            "PoP {}",
            p
        );
        // A PoP took a candidate iff its set grew past what was locked.
        let touched = sets[p].len() > locked[p].len();
        let seat = &seated.pops[p];
        if touched {
            prop_assert_eq!(plan_of(&seat.problem, &seat.placement), want, "PoP {}", p);
        } else {
            prop_assert!(
                seat.problem.is_none() && seat.placement.is_none(),
                "PoP {}",
                p
            );
        }
    }
    Ok(())
}

proptest! {
    #![cases = 96]

    #[test]
    fn seating_equals_the_unsplit_loop(
        picks in prop::collection::vec((0usize..5, 0.1f64..1.5, 0u8..4), 1..9),
        servers in prop::collection::vec(0usize..4, 1..5),
        // Per chain: locked at PoP `pop % n_pops`, offered (twice as
        // likely), or neither.
        fate in prop::collection::vec((0usize..4, 0usize..4), 8),
        tight in prop::bool::ANY,
    ) {
        let chains: Vec<ChainSpec> = picks
            .iter()
            .enumerate()
            .map(|(i, &(which, gbps, priority))| ChainSpec {
                name: format!("c{i}"),
                graph: canonical_chain(CanonicalChain::ALL[which]),
                slo: Some(Slo::elastic_pipe(gbps * 1e9, 100e9).with_priority(priority)),
                aggregate: None,
            })
            .collect();
        let racks: Vec<Topology> = servers.iter().map(|&n| Topology::with_servers(n)).collect();
        let mut locked = vec![Vec::new(); racks.len()];
        let mut candidates = Vec::new();
        for (c, &(what, pop)) in fate.iter().enumerate().take(chains.len()) {
            match what {
                0 => locked[pop % racks.len()].push(c),
                1 | 2 => candidates.push(c),
                _ => {}
            }
        }
        if tight {
            let oracle = ModelOracle { overhead_stages: 3, available: 6 };
            check(&chains, &racks, &locked, &candidates, &oracle)?;
        } else {
            check(&chains, &racks, &locked, &candidates, &AlwaysFits)?;
        }
    }
}
