//! The incremental beam of `brute::optimal_with_workers` against the
//! full-rescore search it replaced.
//!
//! The reference below is that search as it stood: every successor clones
//! its parent's assignment, pushes one chain's platform map, and re-derives
//! capabilities, subgroups, core allocation and the estimate for the whole
//! prefix. The production search scores a successor from per-chain tables
//! and carries indices instead of assignments; it must return the same
//! placement, telemetry and error text for every worker count.

use lemur::core::chains::{canonical_chain, CanonicalChain};
use lemur::core::graph::ChainSpec;
use lemur::core::Slo;
use lemur::metacompiler::CompilerOracle;
use lemur::placer::brute::{materialize, optimal_with_workers, per_chain_patterns, BruteConfig};
use lemur::placer::corealloc::{self, CoreStrategy};
use lemur::placer::oracle::{CountingOracle, ModelOracle, StageOracle, StageVerdict};
use lemur::placer::placement::{
    Assignment, EvaluatedPlacement, PlacementError, PlacementProblem, SearchTelemetry,
};
use lemur::placer::profiles::NfProfiles;
use lemur::placer::topology::Topology;
use lemur::placer::Workers;
use proptest::prelude::*;

/// Cheap (no-LP) score of a full assignment, or `None` if infeasible.
fn quick_score(problem: &PlacementProblem, assignment: &Assignment) -> Option<f64> {
    problem.check_capabilities(assignment).ok()?;
    let mut sgs = problem.form_subgroups(assignment);
    corealloc::allocate(problem, &mut sgs, CoreStrategy::WaterFill).ok()?;
    Some(corealloc::quick_estimate(problem, &sgs))
}

/// The full-rescore beam search, sequential.
fn optimal_full_rescore(
    problem: &PlacementProblem,
    oracle: &dyn StageOracle,
    config: BruteConfig,
) -> Result<EvaluatedPlacement, PlacementError> {
    let oracle = CountingOracle::new(oracle);
    let per_chain = per_chain_patterns(problem, config.max_patterns_per_chain);
    let n_servers = problem.topology.servers.len().max(1);
    let mut pruned: u64 = 0;

    let mut beam: Vec<(Assignment, f64)> = vec![(Vec::new(), 0.0)];
    for (ci, patterns) in per_chain.iter().enumerate() {
        let sub = PlacementProblem::new(
            problem.chains[..=ci].to_vec(),
            problem.topology.clone(),
            problem.profiles.clone(),
        );
        let generated = beam.len() as u64 * patterns.len() as u64 * n_servers as u64;
        let mut next = Vec::new();
        for (prefix, _) in &beam {
            for pattern in patterns {
                for server in 0..n_servers {
                    let mut assignment = prefix.clone();
                    assignment.push(materialize(pattern, server));
                    if let Some(score) = quick_score(&sub, &assignment) {
                        next.push((assignment, score));
                    }
                }
            }
        }
        if next.is_empty() {
            return Err(PlacementError::Infeasible(format!(
                "no feasible pattern prefix through chain {ci}"
            )));
        }
        pruned += generated - next.len() as u64;
        next.sort_by(|a, b| b.1.total_cmp(&a.1));
        pruned += next.len().saturating_sub(config.beam_width) as u64;
        next.truncate(config.beam_width);
        beam = next;
    }

    pruned += beam.len().saturating_sub(config.candidates) as u64;
    let ranked = &beam[..beam.len().min(config.candidates)];
    let mut best: Option<EvaluatedPlacement> = None;
    let mut last_err =
        PlacementError::Infeasible("no candidate survived full evaluation".to_string());
    for (assignment, _) in ranked {
        match problem.evaluate(assignment, CoreStrategy::WaterFill) {
            Ok(mut out) => match oracle.check(problem, assignment) {
                StageVerdict::Fits { stages } => {
                    out.stages_used = Some(stages);
                    if best
                        .as_ref()
                        .map(|b| out.marginal_bps > b.marginal_bps + 1e-6)
                        .unwrap_or(true)
                    {
                        best = Some(out);
                    }
                }
                StageVerdict::OutOfStages {
                    required,
                    available,
                } => {
                    last_err = PlacementError::OutOfStages {
                        required,
                        available,
                    }
                }
            },
            Err(e) => last_err = e,
        }
    }
    match best {
        Some(mut out) => {
            out.telemetry = Some(SearchTelemetry {
                oracle_calls: oracle.calls(),
                cache_hits: 0,
                cache_misses: 0,
                lp_evals: ranked.len() as u64,
                pruned_candidates: pruned,
            });
            Ok(out)
        }
        None => Err(last_err),
    }
}

fn topology(which: usize) -> Topology {
    match which {
        0 => Topology::testbed(),
        1 => Topology::with_servers(2),
        2 => Topology::with_servers(3),
        3 => Topology::with_smartnic(),
        _ => Topology::with_openflow_tor(),
    }
}

fn problem(picks: &[usize], delta: f64, topology: Topology) -> PlacementProblem {
    let chains = picks
        .iter()
        .enumerate()
        .map(|(i, &w)| ChainSpec {
            name: format!("chain{i}"),
            graph: canonical_chain(CanonicalChain::ALL[w]),
            slo: None,
            aggregate: None,
        })
        .collect();
    let mut p = PlacementProblem::new(chains, topology, NfProfiles::table4());
    for i in 0..p.chains.len() {
        let base = p.base_rate_bps(i);
        p.chains[i].slo = Some(Slo::elastic_pipe(delta * base, 100e9));
    }
    p
}

/// Everything a caller can observe of a search result. `f64`s by bit
/// pattern: the claim is the same arithmetic, not nearly the same.
fn observed(result: Result<EvaluatedPlacement, PlacementError>) -> Result<String, String> {
    result
        .map(|out| {
            format!(
                "{:?} marginal {:#x} rates {:?} cores {:?} stages {:?} {:?}",
                out.assignment,
                out.marginal_bps.to_bits(),
                out.chain_rates_bps
                    .iter()
                    .map(|r| r.to_bits())
                    .collect::<Vec<_>>(),
                out.subgroups
                    .iter()
                    .map(|sg| (sg.chain, sg.server, sg.cores))
                    .collect::<Vec<_>>(),
                out.stages_used,
                out.telemetry,
            )
        })
        .map_err(|e| e.to_string())
}

/// The five chain sets of the placement sweep (Figure 2's a–e) at
/// δ = 0.5 on the testbed, default beam, real compiler: the beam scores on
/// subgroups that carry no member lists, and what it returns — placement or
/// error text, and every search count — is the full-rescore search's.
#[test]
fn sweep_sets_equal_full_rescore_at_default_beam() {
    let sets: [&[usize]; 5] = [
        &[0, 1, 2, 3],
        &[0, 1, 2],
        &[0, 1, 3],
        &[0, 2, 3],
        &[1, 2, 3],
    ];
    let oracle = CompilerOracle::new();
    let config = BruteConfig::default();
    for picks in sets {
        let p = problem(picks, 0.5, Topology::testbed());
        let want = optimal_full_rescore(&p, &oracle, config);
        let got = optimal_with_workers(&p, &oracle, config, Workers::new(1));
        let counts = |r: &Result<EvaluatedPlacement, PlacementError>| {
            r.as_ref().ok().map(|out| {
                let t = out.telemetry.expect("a search reports its telemetry");
                (t.lp_evals, t.oracle_calls, t.pruned_candidates)
            })
        };
        assert_eq!(counts(&got), counts(&want), "{picks:?}");
        assert_eq!(observed(got), observed(want), "{picks:?}");
    }
}

proptest! {
    #![cases = 120]

    #[test]
    fn incremental_beam_equals_full_rescore(
        picks in prop::collection::vec(0usize..5, 1..5),
        which_topology in 0usize..5,
        delta in 0.25f64..3.0,
        (max_patterns_per_chain, beam_width, candidates) in (1usize..64, 1usize..16, 1usize..12),
        real_compiler in prop::bool::ANY,
    ) {
        let p = problem(&picks, delta, topology(which_topology));
        let config = BruteConfig { max_patterns_per_chain, beam_width, candidates };
        let oracle: &dyn StageOracle = if real_compiler {
            &CompilerOracle::new()
        } else {
            &ModelOracle::default()
        };
        let want = observed(optimal_full_rescore(&p, oracle, config));
        for workers in [1, 3] {
            let got = observed(optimal_with_workers(&p, oracle, config, Workers::new(workers)));
            prop_assert_eq!(&got, &want, "workers={}", workers);
        }
    }
}
