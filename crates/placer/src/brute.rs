//! Brute-force ("Optimal") placement (§3.2).
//!
//! The paper's brute force (a) enumerates placement patterns, (b) searches
//! core allocations per pattern, (c) ranks by maximum marginal throughput
//! via the LP, and (d) walks the ranking calling the PISA compiler until a
//! placement fits the stages. Exhaustive enumeration took ~4 hours for the
//! 4-chain configuration on the authors' machine; like theirs, our search
//! only runs the LP + compiler on the best candidates. A beam over the
//! chains (effectively exhaustive for ≤ 2 chains at the default width)
//! ranks partial placements by a no-LP estimate first.
//!
//! A chain's capability check and subgroups depend on that chain's
//! `(pattern, server)` choice alone, so they are computed once per chain
//! into a table ([`chain_table`]). A beam partial carries its chosen
//! indices and its prefix subgroups; scoring a successor is core
//! allocation + estimate over `prefix subgroups ++ table entry` — the very
//! vector [`PlacementProblem::form_subgroups`] would build for the full
//! assignment, because it emits subgroups chain by chain and
//! [`corealloc::allocate`] resets every core count first. The beam only
//! scores with these subgroups, and a score reads no member list, so the
//! table keeps none: copying an entry onto a prefix allocates nothing.
//! Assignments are built only for the ranked candidates that get the LP.

use crate::corealloc::{self, AllocBuffer, CoreStrategy};
use crate::oracle::{CountingOracle, StageOracle, StageVerdict};
use crate::parallel::{parallel_flat_map, parallel_map, Workers};
use crate::placement::{
    Alloc, Assignment, ChainShape, EvaluatedPlacement, PlacementError, PlacementProblem,
    SearchTelemetry, SubgroupPlan,
};
use crate::profiles::{Platform, PlatformClass};
use crate::topology::Tor;
use lemur_core::graph::NodeId;
use std::collections::BTreeMap;

/// A platform choice before a concrete server is picked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatPlat {
    Pisa,
    Server,
    SmartNic(usize),
    OpenFlow,
}

/// One per-chain pattern: a platform class per node.
pub type Pattern = Vec<(NodeId, PatPlat)>;

/// Search configuration.
#[derive(Debug, Clone, Copy)]
pub struct BruteConfig {
    /// Cap on enumerated patterns per chain (evenly subsampled beyond).
    pub max_patterns_per_chain: usize,
    /// Beam width while combining chains.
    pub beam_width: usize,
    /// How many ranked candidates get the full LP + stage-oracle check.
    pub candidates: usize,
}

impl Default for BruteConfig {
    fn default() -> Self {
        BruteConfig {
            max_patterns_per_chain: 4096,
            beam_width: 64,
            candidates: 40,
        }
    }
}

/// Enumerate platform patterns for every chain.
pub fn per_chain_patterns(problem: &PlacementProblem, cap: usize) -> Vec<Vec<Pattern>> {
    problem
        .chains
        .iter()
        .map(|chain| {
            let nodes: Vec<(NodeId, Vec<PatPlat>)> = chain
                .graph
                .nodes()
                .map(|(id, n)| {
                    let mut opts = Vec::new();
                    for class in problem.profiles.capabilities(n.kind) {
                        match class {
                            PlatformClass::Pisa if problem.topology.has_pisa() => {
                                opts.push(PatPlat::Pisa)
                            }
                            PlatformClass::Server => opts.push(PatPlat::Server),
                            PlatformClass::SmartNic => {
                                for ni in 0..problem.topology.smartnics.len() {
                                    opts.push(PatPlat::SmartNic(ni));
                                }
                            }
                            PlatformClass::OpenFlow
                                if matches!(problem.topology.tor, Tor::OpenFlow { .. }) =>
                            {
                                opts.push(PatPlat::OpenFlow)
                            }
                            _ => {}
                        }
                    }
                    if opts.is_empty() {
                        // No platform available in this topology: fall back
                        // to Server so the capability check reports it.
                        opts.push(PatPlat::Server);
                    }
                    (id, opts)
                })
                .collect();
            // Saturating: 64 two-option nodes already have more patterns
            // than a `usize` counts, and only `cap` of them are enumerated.
            let total = nodes
                .iter()
                .fold(1usize, |n, (_, o)| n.saturating_mul(o.len()));
            let take = total.min(cap);
            let stride = (total / take.max(1)).max(1);
            let mut patterns = Vec::with_capacity(take);
            let mut index = 0usize;
            while index < total && patterns.len() < take {
                let mut rem = index;
                let mut pat = Vec::with_capacity(nodes.len());
                for (id, opts) in &nodes {
                    pat.push((*id, opts[rem % opts.len()]));
                    rem /= opts.len();
                }
                patterns.push(pat);
                index += stride;
            }
            patterns
        })
        .collect()
}

/// Turn a pattern into a concrete per-node assignment on `server`.
pub fn materialize(pattern: &Pattern, server: usize) -> BTreeMap<NodeId, Platform> {
    pattern
        .iter()
        .map(|(id, p)| {
            let plat = match p {
                PatPlat::Pisa => Platform::Pisa,
                PatPlat::Server => Platform::Server(server),
                PatPlat::SmartNic(n) => Platform::SmartNic(*n),
                PatPlat::OpenFlow => Platform::OpenFlow,
            };
            (*id, plat)
        })
        .collect()
}

/// What one chain contributes under each `(pattern, server)` choice, at
/// index `pattern * n_servers + server`: its subgroups without their member
/// lists, or `None` when the pattern puts a node on a platform that cannot
/// run it.
fn chain_table(
    problem: &PlacementProblem,
    ci: usize,
    shape: &ChainShape,
    patterns: &[Pattern],
    n_servers: usize,
) -> Vec<Option<Vec<SubgroupPlan>>> {
    let mut table = Vec::with_capacity(patterns.len() * n_servers);
    for pattern in patterns {
        for server in 0..n_servers {
            let placed = materialize(pattern, server);
            table.push(
                problem
                    .check_chain_capabilities(ci, &placed)
                    .is_ok()
                    .then(|| {
                        let mut subgroups = problem.chain_subgroups(ci, &placed, shape);
                        for sg in &mut subgroups {
                            sg.nodes = Vec::new();
                        }
                        subgroups
                    }),
            );
        }
    }
    table
}

/// A beam entry: the [`chain_table`] index chosen for each chain so far and
/// the subgroups those choices form (no member lists, as in the table).
struct Partial {
    choices: Vec<usize>,
    subgroups: Vec<SubgroupPlan>,
}

/// A scored extension of `beam[parent]` by the next chain's table entry
/// `choice`.
struct Successor {
    parent: usize,
    choice: usize,
    score: f64,
}

/// Run brute-force placement with the environment's worker count
/// (`LEMUR_WORKERS` / available parallelism). Results are identical for
/// every worker count — see [`optimal_with_workers`].
pub fn optimal(
    problem: &PlacementProblem,
    oracle: &dyn StageOracle,
    config: BruteConfig,
) -> Result<EvaluatedPlacement, PlacementError> {
    optimal_with_workers(problem, oracle, config, Workers::from_env())
}

/// Outcome of one candidate's full evaluation (LP + stage oracle), carried
/// through the parallel fan-out so the sequential reduction can replicate
/// the exact best-selection and last-error semantics of the serial loop.
enum CandidateOutcome {
    Fit(Box<EvaluatedPlacement>),
    Rejected(PlacementError),
}

/// Run brute-force placement with an explicit worker count.
///
/// Both parallel phases reduce in item order, so the returned placement,
/// its telemetry, and every error message are bit-identical to the
/// sequential (`workers = 1`) path:
///
/// * beam expansion fans out over the current beam's partials; each worker
///   produces that partial's successors in the sequential nested-loop
///   order and the flat-map concatenates them in partial order (stable
///   sort ⇒ ties keep that order);
/// * candidate evaluation fans out over the ranked prefix; verdicts are
///   folded sequentially in rank order, reproducing the serial loop's
///   "last error wins" and "strictly better by 1e-6" rules.
pub fn optimal_with_workers(
    problem: &PlacementProblem,
    oracle: &dyn StageOracle,
    config: BruteConfig,
    workers: Workers,
) -> Result<EvaluatedPlacement, PlacementError> {
    let oracle = CountingOracle::new(oracle);
    let cache_before = oracle.cache_stats().unwrap_or_default();
    let per_chain = per_chain_patterns(problem, config.max_patterns_per_chain);
    let shapes = problem.shapes();
    let n_servers = problem.topology.servers.len().max(1);
    let mut pruned: u64 = 0;

    // Beam over (chains so far) × (server choice per chain).
    let mut beam = vec![Partial {
        choices: Vec::new(),
        subgroups: Vec::new(),
    }];
    for (ci, patterns) in per_chain.iter().enumerate() {
        // Score successors against the partial problem (chains 0..=ci).
        let sub = PlacementProblem::new(
            problem.chains[..=ci].to_vec(),
            problem.topology.clone(),
            problem.profiles.clone(),
        );
        let table = chain_table(problem, ci, &shapes[ci], patterns, n_servers);
        let generated = beam.len() as u64 * table.len() as u64;
        let mut next: Vec<Successor> = parallel_flat_map(workers, &beam, |parent, partial| {
            let prefix = partial.subgroups.len();
            let mut scratch = partial.subgroups.clone();
            let mut buffer = AllocBuffer::default();
            let mut successors = Vec::new();
            for (choice, entry) in table.iter().enumerate() {
                let Some(own) = entry else { continue };
                scratch.truncate(prefix);
                scratch.extend_from_slice(own);
                let allocated = corealloc::allocate_with(
                    &sub,
                    &mut scratch,
                    CoreStrategy::WaterFill,
                    &mut buffer,
                );
                if allocated.is_ok() {
                    successors.push(Successor {
                        parent,
                        choice,
                        score: corealloc::quick_estimate(&sub, &scratch),
                    });
                }
            }
            successors
        });
        if next.is_empty() {
            return Err(PlacementError::Infeasible(format!(
                "no feasible pattern prefix through chain {ci}"
            )));
        }
        pruned += generated - next.len() as u64;
        next.sort_by(|a, b| b.score.total_cmp(&a.score));
        pruned += next.len().saturating_sub(config.beam_width) as u64;
        next.truncate(config.beam_width);
        beam = next
            .iter()
            .map(|s| {
                let parent = &beam[s.parent];
                let own = table[s.choice]
                    .as_deref()
                    .expect("scored successors come from feasible table entries");
                Partial {
                    choices: [&parent.choices[..], &[s.choice]].concat(),
                    subgroups: [&parent.subgroups[..], own].concat(),
                }
            })
            .collect();
    }

    // Full evaluation + stage oracle on the ranked candidates.
    pruned += beam.len().saturating_sub(config.candidates) as u64;
    let ranked: Vec<Assignment> = beam
        .iter()
        .take(config.candidates)
        .map(|partial| {
            partial
                .choices
                .iter()
                .zip(&per_chain)
                .map(|(&choice, patterns)| {
                    materialize(&patterns[choice / n_servers], choice % n_servers)
                })
                .collect()
        })
        .collect();
    let lp_evals = ranked.len() as u64;
    let outcomes = parallel_map(workers, &ranked, |_, assignment| {
        match problem.evaluate_shaped(
            &shapes,
            assignment,
            Alloc::Strategy(CoreStrategy::WaterFill),
        ) {
            Ok(mut out) => match oracle.check(problem, assignment) {
                StageVerdict::Fits { stages } => {
                    out.stages_used = Some(stages);
                    CandidateOutcome::Fit(Box::new(out))
                }
                StageVerdict::OutOfStages {
                    required,
                    available,
                } => CandidateOutcome::Rejected(PlacementError::OutOfStages {
                    required,
                    available,
                }),
            },
            Err(e) => CandidateOutcome::Rejected(e),
        }
    });

    let mut best: Option<EvaluatedPlacement> = None;
    let mut last_err =
        PlacementError::Infeasible("no candidate survived full evaluation".to_string());
    for outcome in outcomes {
        match outcome {
            CandidateOutcome::Fit(out) => {
                if best
                    .as_ref()
                    .map(|b| out.marginal_bps > b.marginal_bps + 1e-6)
                    .unwrap_or(true)
                {
                    best = Some(*out);
                }
            }
            CandidateOutcome::Rejected(e) => last_err = e,
        }
    }
    let cache_after = oracle.cache_stats().unwrap_or_default();
    let cache = cache_after.since(&cache_before);
    match best {
        Some(mut out) => {
            out.telemetry = Some(SearchTelemetry {
                oracle_calls: oracle.calls(),
                cache_hits: cache.hits,
                cache_misses: cache.misses,
                lp_evals,
                pruned_candidates: pruned,
            });
            Ok(out)
        }
        None => Err(last_err),
    }
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

    fn problem(which: &[CanonicalChain], delta: f64) -> PlacementProblem {
        let chains = which
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
            p.chains[i].slo = Some(Slo::elastic_pipe(delta * base, 100e9));
        }
        p
    }

    #[test]
    fn pattern_enumeration_counts() {
        let p = problem(&[CanonicalChain::Chain3], 0.5);
        let pats = per_chain_patterns(&p, 4096);
        // Chain 3 free nodes: ACL {Pisa, Server}, LB {Pisa, Server};
        // Dedup/Limiter server-only, IPv4Fwd Pisa-only → 4 patterns.
        assert_eq!(pats[0].len(), 4);
    }

    #[test]
    fn pattern_cap_subsamples() {
        let p = problem(&[CanonicalChain::Chain1], 0.5);
        let pats = per_chain_patterns(&p, 16);
        assert_eq!(pats[0].len(), 16);
    }

    /// 70 NATs and the BPF in front of them, two platforms each, make 2⁷¹
    /// patterns: more than a `usize` counts. A product that wraps to zero
    /// enumerates no pattern, and the search then calls a feasible chain
    /// infeasible; one that panics takes the caller down.
    #[test]
    fn pattern_count_beyond_usize_is_capped_not_wrapped() {
        let chain = ChainSpec {
            name: "nat70".to_string(),
            graph: lemur_core::chains::extreme_nat_chain(70),
            slo: Some(Slo::elastic_pipe(1e6, 100e9)),
            aggregate: None,
        };
        let p = PlacementProblem::new(vec![chain], Topology::testbed(), NfProfiles::table4());
        let pats = per_chain_patterns(&p, 64);
        assert_eq!(pats[0].len(), 64);
        assert!(pats[0].iter().all(|pat| pat.len() == 72));
        let config = BruteConfig {
            max_patterns_per_chain: 64,
            beam_width: 4,
            candidates: 2,
        };
        let out = optimal(&p, &AlwaysFits, config).expect("a 1 Mb/s floor is feasible");
        assert_eq!(out.assignment[0].len(), 72);
    }

    #[test]
    fn optimal_finds_feasible_chain3() {
        let p = problem(&[CanonicalChain::Chain3], 1.5);
        let out = optimal(&p, &AlwaysFits, BruteConfig::default()).unwrap();
        let t_min = p.chains[0].slo.unwrap().t_min_bps;
        assert!(out.chain_rates_bps[0] + 1.0 >= t_min);
        // δ=1.5 > single-subgroup capacity: the optimal placement must
        // offload ACL/LB to the switch and replicate Dedup.
        let dedup_sg = out
            .subgroups
            .iter()
            .find(|sg| {
                sg.nodes
                    .iter()
                    .any(|id| p.chains[0].graph.node(*id).kind == lemur_nf::NfKind::Dedup)
            })
            .unwrap();
        assert!(dedup_sg.cores >= 2);
    }

    #[test]
    fn optimal_beats_or_matches_single_patterns() {
        let p = problem(&[CanonicalChain::Chain2, CanonicalChain::Chain3], 1.0);
        let opt = optimal(&p, &AlwaysFits, BruteConfig::default()).unwrap();
        let hw = crate::baselines::hw_preferred(&p, &AlwaysFits);
        if let Ok(hw) = hw {
            assert!(
                opt.marginal_bps + 1.0 >= hw.marginal_bps,
                "optimal {:.2}G < hw {:.2}G",
                opt.marginal_bps / 1e9,
                hw.marginal_bps / 1e9
            );
        }
    }

    #[test]
    fn infeasible_when_demand_absurd() {
        let p = problem(&[CanonicalChain::Chain3], 100.0);
        assert!(optimal(&p, &AlwaysFits, BruteConfig::default()).is_err());
    }
}
