//! Cache-equivalence property: the memoized stage oracle must be
//! observationally identical to a fresh compile.
//!
//! For random chain sets and random (possibly nonsensical) placements,
//! [`CachedCompilerOracle`] must return exactly the verdict a fresh
//! [`CompilerOracle`] computes — on the first probe (miss populates the
//! cache) and on the second (served from the cache). This is the
//! correctness contract that lets the placer's search, the δ-sweeps, and
//! the repair pass share one cache without ever changing a placement
//! decision.

use lemur_core::chains::{canonical_chain, CanonicalChain};
use lemur_core::graph::ChainSpec;
use lemur_core::Slo;
use lemur_metacompiler::{CachedCompilerOracle, CompilerOracle};
use lemur_placer::oracle::{StageOracle, StageVerdict};
use lemur_placer::placement::{Assignment, PlacementProblem};
use lemur_placer::profiles::{NfProfiles, Platform};
use lemur_placer::topology::Topology;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Build a problem over the selected canonical chains (indices into
/// [`CanonicalChain::ALL`]) on the standard testbed rack.
fn build_problem(chain_picks: &[usize]) -> PlacementProblem {
    let chains: Vec<ChainSpec> = chain_picks
        .iter()
        .enumerate()
        .map(|(i, &pick)| ChainSpec {
            name: format!("chain{i}"),
            graph: canonical_chain(CanonicalChain::ALL[pick % CanonicalChain::ALL.len()]),
            slo: None,
            aggregate: None,
        })
        .collect();
    let mut p = PlacementProblem::new(chains, Topology::testbed(), NfProfiles::table4());
    for i in 0..p.chains.len() {
        let base = p.base_rate_bps(i);
        p.chains[i].slo = Some(Slo::elastic_pipe(0.5 * base, 100e9));
    }
    p
}

/// Derive a platform per node from the seed stream: switch or server.
/// Deliberately capability-blind — an assignment the oracle rejects must
/// be rejected identically by the cached and fresh paths.
fn build_assignment(p: &PlacementProblem, seeds: &[u8]) -> Assignment {
    let n_servers = p.topology.servers.len();
    let mut next = 0usize;
    p.chains
        .iter()
        .map(|c| {
            c.graph
                .nodes()
                .map(|(id, _)| {
                    let s = seeds[next % seeds.len()] as usize;
                    next += 1;
                    let plat = if s.is_multiple_of(3) {
                        Platform::Pisa
                    } else {
                        Platform::Server(s % n_servers)
                    };
                    (id, plat)
                })
                .collect::<BTreeMap<_, _>>()
        })
        .collect()
}

proptest! {
    #![cases = 24]

    #[test]
    fn cached_verdicts_equal_fresh_compile(
        chain_picks in prop::collection::vec(0usize..5, 1..3),
        seeds in prop::collection::vec(0u8..=255, 8..64),
    ) {
        let p = build_problem(&chain_picks);
        let a = build_assignment(&p, &seeds);

        let fresh = CompilerOracle::new();
        let cached = CachedCompilerOracle::new();
        let want = fresh.check(&p, &a);
        let miss = cached.check(&p, &a);
        let hit = cached.check(&p, &a);
        prop_assert_eq!(&miss, &want, "first (miss) probe diverged from fresh compile");
        prop_assert_eq!(&hit, &want, "second (hit) probe diverged from fresh compile");
        // Two probes of one assignment: either synthesis failed (cache
        // never touched) or the first missed and the second hit.
        let s = cached.cache().stats();
        prop_assert_eq!(s.hits, s.misses);
        prop_assert!(s.entries <= 1);

        // Same equivalence for naive (unoptimized) code generation.
        let want_naive = CompilerOracle::naive().check(&p, &a);
        let cached_naive = CachedCompilerOracle::naive();
        prop_assert_eq!(cached_naive.check(&p, &a), want_naive.clone());
        prop_assert_eq!(cached_naive.check(&p, &a), want_naive);
    }
}

/// The oracle no longer renders source on its way to a verdict; its
/// verdicts must not have moved. 200 draws of the generator above under
/// both code-generation modes, folded into one FNV-1a digest that was
/// recorded from the build that still rendered eagerly (77 of the 400
/// verdicts are `Fits`).
#[test]
fn verdicts_equal_the_eagerly_rendering_oracle() {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut draw = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut fits = 0;
    for _ in 0..200 {
        let picks: Vec<usize> = (0..1 + draw() % 3).map(|_| draw() % 5).collect();
        let seeds: Vec<u8> = (0..8 + draw() % 56).map(|_| draw() as u8).collect();
        let p = build_problem(&picks);
        let a = build_assignment(&p, &seeds);
        for (fresh, cached) in [
            (CompilerOracle::new(), CachedCompilerOracle::new()),
            (CompilerOracle::naive(), CachedCompilerOracle::naive()),
        ] {
            let verdict = fresh.check(&p, &a);
            assert_eq!(cached.check(&p, &a), verdict);
            fits += usize::from(matches!(verdict, StageVerdict::Fits { .. }));
            for b in format!("{verdict:?}").bytes() {
                digest = (digest ^ b as u64).wrapping_mul(0x100_0000_01b3);
            }
        }
    }
    assert_eq!(fits, 77);
    assert_eq!(digest, 0xcc6d_7e1e_f42a_5569);
}

/// An assignment with fewer entries than chains is rejected, not indexed.
#[test]
fn short_assignment_is_rejected() {
    let p = build_problem(&[2, 4]);
    let mut a = build_assignment(&p, &[1, 2, 3]);
    a.pop();
    for a in [a, Vec::new()] {
        for verdict in [
            CompilerOracle::new().check(&p, &a),
            CachedCompilerOracle::new().check(&p, &a),
        ] {
            assert!(matches!(verdict, StageVerdict::OutOfStages { .. }));
        }
    }
}
