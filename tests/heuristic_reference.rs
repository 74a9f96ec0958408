//! `heuristic::place_with_workers` against the loop it replaced.
//!
//! The reference below is that search as it stood, sequential: it builds
//! every step-3 candidate and evaluates each one — duplicates included —
//! through the public `evaluate`, and it always asks the oracle again for
//! the winner's stage count. The production search derives the per-chain
//! graph structure once, evaluates each distinct candidate once and reuses
//! step 1's verdict when the baseline wins; it must return the same
//! placement, and its telemetry must count the work it actually did.

use lemur::core::chains::{canonical_chain, CanonicalChain};
use lemur::core::graph::{ChainSpec, NodeId};
use lemur::core::Slo;
use lemur::metacompiler::CompilerOracle;
use lemur::placer::baselines::{hw_preferred_assignment, sw_preferred_assignment};
use lemur::placer::corealloc::{self, CoreStrategy};
use lemur::placer::heuristic::place_with_workers;
use lemur::placer::oracle::{
    model_stage_cost, CountingOracle, ModelOracle, StageOracle, StageVerdict,
};
use lemur::placer::placement::{Assignment, EvaluatedPlacement, PlacementError, PlacementProblem};
use lemur::placer::profiles::{NfProfiles, Platform, PlatformClass};
use lemur::placer::topology::Topology;
use lemur::placer::{Workers, NSH_OVERHEAD_CYCLES, REPLICATION_OVERHEAD_CYCLES};

/// What the reference did, beside its answer.
struct ReferenceRun {
    result: Result<EvaluatedPlacement, PlacementError>,
    /// Every `oracle.check` it made, the unconditional last one included.
    oracle_calls: u64,
    /// Every `evaluate` it made.
    evals: u64,
    /// Of those, the ones a search that skips repeats inside step 3 makes.
    distinct_evals: u64,
    /// The winner is the step-1 baseline itself.
    baseline_won: bool,
}

fn reference(problem: &PlacementProblem, oracle: &dyn StageOracle) -> ReferenceRun {
    let strategy = CoreStrategy::WaterFill;
    let oracle = CountingOracle::new(oracle);
    let (mut evals, mut distinct_evals) = (0u64, 0u64);
    let fail = |e, calls| ReferenceRun {
        result: Err(e),
        oracle_calls: calls,
        evals: 0,
        distinct_evals: 0,
        baseline_won: false,
    };

    // Step 1.
    let mut assignment = hw_preferred_assignment(problem);
    let mut stages = loop {
        match oracle.check(problem, &assignment) {
            StageVerdict::Fits { stages } => break stages,
            StageVerdict::OutOfStages {
                required,
                available,
            } => {
                let candidates = demotion_candidates(problem, &assignment);
                if candidates.is_empty() {
                    let e = PlacementError::OutOfStages {
                        required,
                        available,
                    };
                    return fail(e, oracle.calls());
                }
                let mut applied = false;
                for &(ci, id, server) in &candidates {
                    let mut trial = assignment.clone();
                    trial[ci].insert(id, Platform::Server(server));
                    let better = match oracle.check(problem, &trial) {
                        StageVerdict::Fits { .. } => true,
                        StageVerdict::OutOfStages { required: r, .. } => r < required,
                    };
                    if better {
                        assignment = trial;
                        applied = true;
                        break;
                    }
                }
                if !applied {
                    let (ci, id, server) = *candidates
                        .iter()
                        .max_by_key(|(ci, id, _)| {
                            model_stage_cost(problem.chains[*ci].graph.node(*id).kind)
                        })
                        .unwrap();
                    assignment[ci].insert(id, Platform::Server(server));
                }
            }
        }
    };

    // Step 2.
    let baseline = assignment.clone();
    let aggressive = coalesce(problem, &baseline, true);
    let conservative = coalesce(problem, &baseline, false);
    let mut candidates = vec![baseline.clone(), aggressive.clone(), conservative];
    for ci in 0..problem.chains.len() {
        let mut only_this = baseline.clone();
        only_this[ci] = aggressive[ci].clone();
        candidates.push(only_this);
        let mut all_but_this = aggressive.clone();
        all_but_this[ci] = baseline[ci].clone();
        candidates.push(all_but_this);
    }
    candidates.extend(nic_offload_candidates(problem, &baseline));
    let latencies = problem.latencies_ns(&baseline);
    let violating: Vec<usize> = (0..problem.chains.len())
        .filter(|&ci| {
            let d_max = problem.chains[ci].slo.and_then(|s| s.d_max_ns);
            d_max.is_some_and(|d| latencies[ci] > d)
        })
        .collect();
    if !violating.is_empty() {
        let sw = sw_preferred_assignment(problem);
        let mut low_bounce = baseline.clone();
        for ci in violating {
            low_bounce[ci] = sw[ci].clone();
        }
        candidates.push(low_bounce);
    }

    // Step 3: every candidate, repeats and all.
    let mut best: Option<EvaluatedPlacement> = None;
    let mut last_err = PlacementError::Infeasible("no heuristic candidate feasible".into());
    for (i, cand) in candidates.iter().enumerate() {
        evals += 1;
        if !candidates[..i].contains(cand) {
            distinct_evals += 1;
        }
        match problem.evaluate(cand, strategy) {
            Ok(out) => {
                if best
                    .as_ref()
                    .is_none_or(|b| out.marginal_bps > b.marginal_bps + 1e-6)
                {
                    best = Some(out);
                }
            }
            Err(e) => last_err = e,
        }
    }

    // Step 2b.
    let mut current = best
        .as_ref()
        .map_or_else(|| baseline.clone(), |b| b.assignment.clone());
    for _round in 0..24 {
        let current_score = best.as_ref().map_or(f64::NEG_INFINITY, |b| b.marginal_bps);
        let mut round_best: Option<(Assignment, EvaluatedPlacement)> = None;
        for (ci, id, server) in demotion_candidates(problem, &current) {
            let mut trial = current.clone();
            trial[ci].insert(id, Platform::Server(server));
            evals += 1;
            distinct_evals += 1;
            if let Ok(out) = problem.evaluate(&trial, strategy) {
                let better_than_round = round_best
                    .as_ref()
                    .is_none_or(|(_, b)| out.marginal_bps > b.marginal_bps + 1e-6);
                if out.marginal_bps > current_score + 1e-6 && better_than_round {
                    round_best = Some((trial, out));
                }
            }
        }
        let Some((trial, out)) = round_best else {
            break;
        };
        current = trial;
        best = Some(out);
    }

    let Some(mut out) = best else {
        return ReferenceRun {
            result: Err(last_err),
            oracle_calls: oracle.calls(),
            evals,
            distinct_evals,
            baseline_won: false,
        };
    };
    if let StageVerdict::Fits { stages: s } = oracle.check(problem, &out.assignment) {
        stages = s;
    }
    out.stages_used = Some(stages);
    ReferenceRun {
        baseline_won: out.assignment == baseline,
        result: Ok(out),
        oracle_calls: oracle.calls(),
        evals,
        distinct_evals,
    }
}

fn nic_offload_candidates(problem: &PlacementProblem, baseline: &Assignment) -> Vec<Assignment> {
    let mut out = Vec::new();
    for ni in 0..problem.topology.smartnics.len() {
        let mut cand = baseline.clone();
        let mut moved = false;
        for (ci, chain) in problem.chains.iter().enumerate() {
            for (id, node) in chain.graph.nodes() {
                let on_server = matches!(cand[ci].get(&id), Some(Platform::Server(_)));
                let capable = problem
                    .profiles
                    .capabilities(node.kind)
                    .contains(&PlatformClass::SmartNic);
                let heavy = problem.profiles.server_cycles(node.kind, &node.params) >= 1_000.0;
                if on_server && capable && heavy {
                    cand[ci].insert(id, Platform::SmartNic(ni));
                    moved = true;
                }
            }
        }
        if moved {
            out.push(cand);
        }
    }
    out
}

fn demotion_candidates(
    problem: &PlacementProblem,
    assignment: &Assignment,
) -> Vec<(usize, NodeId, usize)> {
    let mut out: Vec<(usize, NodeId, f64, usize)> = Vec::new();
    for (ci, chain) in problem.chains.iter().enumerate() {
        let server = assignment[ci]
            .values()
            .find_map(|p| match p {
                Platform::Server(s) => Some(*s),
                _ => None,
            })
            .unwrap_or(0);
        for (id, node) in chain.graph.nodes() {
            let on_switch = assignment[ci].get(&id) == Some(&Platform::Pisa);
            let capable = problem
                .profiles
                .capabilities(node.kind)
                .contains(&PlatformClass::Server);
            if on_switch && capable {
                let cycles = problem.profiles.server_cycles(node.kind, &node.params);
                out.push((ci, id, cycles, server));
            }
        }
    }
    out.sort_by(|a, b| a.2.total_cmp(&b.2));
    out.into_iter().map(|(ci, id, _, s)| (ci, id, s)).collect()
}

fn coalesce(problem: &PlacementProblem, baseline: &Assignment, aggressive: bool) -> Assignment {
    let mut assignment = baseline.clone();
    for (ci, chain) in problem.chains.iter().enumerate() {
        let g = &chain.graph;
        let cyc = |id: NodeId| {
            let n = g.node(id);
            problem.profiles.server_cycles(n.kind, &n.params)
        };
        for lc in g.decompose() {
            let mut w = 1usize;
            while w + 1 < lc.nodes.len() {
                if assignment[ci].get(&lc.nodes[w]) != Some(&Platform::Pisa) {
                    w += 1;
                    continue;
                }
                let start = w;
                let mut end = w;
                while end + 1 < lc.nodes.len()
                    && assignment[ci].get(&lc.nodes[end]) == Some(&Platform::Pisa)
                {
                    end += 1;
                }
                let run: Vec<NodeId> = lc.nodes[start..end].to_vec();
                w = end + 1;
                let all_have_server_impl = run.iter().all(|id| {
                    problem
                        .profiles
                        .capabilities(g.node(*id).kind)
                        .contains(&PlatformClass::Server)
                });
                if run.is_empty() || !all_have_server_impl {
                    continue;
                }
                let (Some(Platform::Server(sa)), Some(Platform::Server(sb))) = (
                    assignment[ci].get(&lc.nodes[start - 1]),
                    assignment[ci].get(&lc.nodes[end]),
                ) else {
                    continue;
                };
                if sa != sb {
                    continue;
                }
                let server = *sa;
                let ca = cyc(lc.nodes[start - 1]) + NSH_OVERHEAD_CYCLES;
                let cb = cyc(lc.nodes[end]) + NSH_OVERHEAD_CYCLES;
                let run_cycles: f64 = run.iter().map(|id| cyc(*id)).sum();
                let cm = cyc(lc.nodes[start - 1])
                    + run_cycles
                    + cyc(lc.nodes[end])
                    + NSH_OVERHEAD_CYCLES;
                let merged_2core = 2.0 / (cm + REPLICATION_OVERHEAD_CYCLES);
                let separate_1each = (1.0 / ca).min(1.0 / cb);
                let strict_wins = merged_2core > separate_1each;
                let apply = if aggressive {
                    strict_wins || {
                        let mut trial = assignment.clone();
                        for id in &run {
                            trial[ci].insert(*id, Platform::Server(server));
                        }
                        t_min_satisfiable(problem, &trial)
                    }
                } else {
                    strict_wins || merged_2core >= separate_1each * (1.0 - 1e-9)
                };
                if apply {
                    for id in &run {
                        assignment[ci].insert(*id, Platform::Server(server));
                    }
                }
            }
        }
    }
    assignment
}

fn t_min_satisfiable(problem: &PlacementProblem, assignment: &Assignment) -> bool {
    if problem.check_capabilities(assignment).is_err() {
        return false;
    }
    let mut sgs = problem.form_subgroups(assignment);
    corealloc::allocate(problem, &mut sgs, CoreStrategy::WaterFill).is_ok()
}

fn problem(
    which: &[CanonicalChain],
    delta: f64,
    topology: Topology,
    profiles: NfProfiles,
) -> PlacementProblem {
    let chains = which
        .iter()
        .map(|w| ChainSpec {
            name: format!("chain{}", w.index()),
            graph: canonical_chain(*w),
            slo: None,
            aggregate: None,
        })
        .collect();
    let mut p = PlacementProblem::new(chains, topology, profiles);
    for i in 0..p.chains.len() {
        let base = p.base_rate_bps(i);
        p.chains[i].slo = Some(Slo::elastic_pipe(delta * base, 100e9));
    }
    p
}

/// The placement a caller sees, `f64`s by bit pattern: the claim is the
/// same arithmetic, not nearly the same.
fn observed(result: &Result<EvaluatedPlacement, PlacementError>) -> Result<String, String> {
    let bits = |v: &[f64]| v.iter().map(|r| r.to_bits()).collect::<Vec<_>>();
    match result {
        Ok(out) => Ok(format!(
            "{:?} marginal {:#x} rates {:?} latency {:?} bounces {:?} cores {:?} stages {:?}",
            out.assignment,
            out.marginal_bps.to_bits(),
            bits(&out.chain_rates_bps),
            bits(&out.latency_ns),
            bits(&out.bounces),
            out.subgroups
                .iter()
                .map(|sg| (sg.chain, sg.server, &sg.nodes, sg.cores))
                .collect::<Vec<_>>(),
            out.stages_used,
        )),
        Err(e) => Err(e.to_string()),
    }
}

/// Compare over Figure 2's sets a–e × δ on one topology; returns how many
/// cells were feasible, how many were won by the baseline, and how many
/// evaluations the reference spent on repeats.
fn sweep(
    topology: &Topology,
    profiles: &NfProfiles,
    oracle: &dyn StageOracle,
    label: &str,
) -> (usize, usize, u64) {
    use CanonicalChain::*;
    let sets: [&[CanonicalChain]; 5] = [
        &[Chain1, Chain2, Chain3, Chain4],
        &[Chain1, Chain2, Chain3],
        &[Chain1, Chain2, Chain4],
        &[Chain1, Chain3, Chain4],
        &[Chain2, Chain3, Chain4],
    ];
    let (mut feasible, mut baseline_wins, mut repeats) = (0, 0, 0);
    for (set, chains) in "abcde".chars().zip(sets) {
        for step in 1..=8 {
            let delta = 0.25 * step as f64;
            let cell = format!("{label} set {set} δ={delta}");
            let p = problem(chains, delta, topology.clone(), profiles.clone());
            let want = reference(&p, oracle);
            repeats += want.evals - want.distinct_evals;
            for workers in [1, 3] {
                let counted = CountingOracle::new(oracle);
                let got = place_with_workers(
                    &p,
                    &counted,
                    CoreStrategy::WaterFill,
                    Workers::new(workers),
                );
                assert_eq!(observed(&got), observed(&want.result), "{cell}");
                let Ok(got) = got else { continue };
                let t = got.telemetry.expect("a search reports telemetry");
                assert_eq!(t.oracle_calls, counted.calls(), "{cell}: calls made");
                assert_eq!(
                    t.oracle_calls,
                    want.oracle_calls - u64::from(want.baseline_won),
                    "{cell}: one query saved exactly when the baseline wins"
                );
                assert_eq!(t.lp_evals, want.distinct_evals, "{cell}: evaluations made");
                match oracle.check(&p, &got.assignment) {
                    StageVerdict::Fits { stages } => {
                        assert_eq!(got.stages_used, Some(stages), "{cell}")
                    }
                    verdict => panic!("{cell}: final placement rejected: {verdict:?}"),
                }
            }
            if want.result.is_ok() {
                feasible += 1;
                baseline_wins += usize::from(want.baseline_won);
            }
        }
    }
    (feasible, baseline_wins, repeats)
}

#[test]
fn pisa_testbed_under_the_compiler_and_a_tight_model() {
    let (rack, profiles) = (Topology::testbed(), NfProfiles::table4());
    let (feasible, _, repeats) = sweep(&rack, &profiles, &CompilerOracle::new(), "compiler");
    assert!(feasible >= 10, "only {feasible} feasible cells");
    assert!(repeats > 0, "no repeated candidate: dedup untested");
    // Six stages force step 1 to demote, so the baseline differs from
    // HW-preferred.
    let tight = ModelOracle {
        overhead_stages: 3,
        available: 6,
    };
    let (feasible, ..) = sweep(&rack, &profiles, &tight, "tight model");
    assert!(feasible >= 10, "only {feasible} feasible cells");
}

#[test]
fn openflow_and_smartnic_racks() {
    let oracle = ModelOracle::default();
    let mut both_outcomes = (0, 0);
    // Without a PISA ToR the P4-only IPv4Fwd of Table 4 has nowhere to run;
    // the OpenFlow rack takes the profiles `exp_fig3c` uses.
    for (topology, profiles, label) in [
        (
            Topology::with_openflow_tor(),
            NfProfiles::table4_full_caps(),
            "openflow",
        ),
        (Topology::with_smartnic(), NfProfiles::table4(), "smartnic"),
    ] {
        let (feasible, baseline_wins, _) = sweep(&topology, &profiles, &oracle, label);
        assert!(feasible >= 5, "{label}: only {feasible} feasible cells");
        both_outcomes.0 += baseline_wins;
        both_outcomes.1 += feasible - baseline_wins;
    }
    // Both ways of getting the final stage count ran.
    assert!(
        both_outcomes.0 > 0,
        "the baseline never won: reuse untested"
    );
    assert!(
        both_outcomes.1 > 0,
        "the baseline always won: re-query untested"
    );
}
