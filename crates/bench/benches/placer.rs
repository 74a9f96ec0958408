//! Criterion benches for the Placer (§5.3 "Scaling Placer Computation").
//!
//! Regenerates the heuristic-vs-brute-force comparison as statistically
//! sound microbenchmarks: the paper reports 3.5 s for the heuristic on the
//! 4-chain / 34-NF-instance configuration vs 14 901 s for exhaustive brute
//! force; our ranked brute force bounds the exhaustive search, and the
//! per-candidate evaluation cost lets `exp_placer_scaling` project the
//! full-enumeration time.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lemur_bench::{build_problem, cached_compiler_oracle, compiler_oracle};
use lemur_core::chains::CanonicalChain::{self, *};
use lemur_placer::brute::BruteConfig;
use lemur_placer::oracle::{AlwaysFits, ModelOracle};
use lemur_placer::topology::Topology;

fn sets() -> Vec<(&'static str, Vec<CanonicalChain>)> {
    vec![
        ("1chain", vec![Chain3]),
        ("2chains", vec![Chain2, Chain3]),
        ("4chains", vec![Chain1, Chain2, Chain3, Chain4]),
    ]
}

fn bench_heuristic(c: &mut Criterion) {
    let mut group = c.benchmark_group("placer_heuristic");
    group.sample_size(10);
    let oracle = compiler_oracle();
    for (label, chains) in sets() {
        let (p, _) = build_problem(&chains, 1.0, Topology::testbed());
        group.bench_with_input(BenchmarkId::from_parameter(label), &p, |b, p| {
            b.iter(|| lemur_placer::heuristic::place(p, &oracle).unwrap());
        });
    }
    group.finish();
}

fn bench_brute(c: &mut Criterion) {
    let mut group = c.benchmark_group("placer_brute_ranked");
    group.sample_size(10);
    let oracle = compiler_oracle();
    for (label, chains) in sets() {
        let (p, _) = build_problem(&chains, 1.0, Topology::testbed());
        group.bench_with_input(BenchmarkId::from_parameter(label), &p, |b, p| {
            b.iter(|| lemur_placer::brute::optimal(p, &oracle, BruteConfig::default()).unwrap());
        });
    }
    group.finish();
}

fn bench_brute_expand(c: &mut Criterion) {
    // Figure-2 set a with an oracle that accepts everything: the beam
    // expansion and the candidates' LPs, with no compiler in the loop.
    let (p, _) = build_problem(&[Chain1, Chain2, Chain3, Chain4], 1.0, Topology::testbed());
    c.bench_function("brute_expand_set_a", |b| {
        b.iter(|| lemur_placer::brute::optimal(&p, &AlwaysFits, BruteConfig::default()).unwrap());
    });
}

fn bench_brute_cached(c: &mut Criterion) {
    // The same ranked brute force with the memoized stage oracle: the
    // search's repeated probes of identical switch programs (candidates
    // differing only in server choice) hit the cache instead of
    // re-running stage packing. Compare against `placer_brute_ranked`
    // for the cache's end-to-end win; the warm variant keeps the cache
    // across iterations (a δ-sweep's steady state), the cold variant
    // clears it every iteration (a single search from scratch).
    let mut group = c.benchmark_group("placer_brute_cached");
    group.sample_size(10);
    let oracle = cached_compiler_oracle();
    for (label, chains) in sets() {
        let (p, _) = build_problem(&chains, 1.0, Topology::testbed());
        group.bench_with_input(BenchmarkId::new("warm", label), &p, |b, p| {
            b.iter(|| lemur_placer::brute::optimal(p, &oracle, BruteConfig::default()).unwrap());
        });
        group.bench_with_input(BenchmarkId::new("cold", label), &p, |b, p| {
            b.iter(|| {
                oracle.cache().clear();
                lemur_placer::brute::optimal(p, &oracle, BruteConfig::default()).unwrap()
            });
        });
    }
    group.finish();
}

fn bench_stage_oracle(c: &mut Criterion) {
    // The cost of one stage-feasibility check: the real compiler vs the
    // analytic model — the gap the heuristic's pruning saves.
    let (p, _) = build_problem(&[Chain1, Chain2, Chain3, Chain4], 1.0, Topology::testbed());
    let a = lemur_placer::baselines::hw_preferred_assignment(&p);
    let real = compiler_oracle();
    let model = ModelOracle::default();
    let mut group = c.benchmark_group("stage_oracle");
    group.bench_function("compiler", |b| {
        b.iter(|| lemur_placer::oracle::StageOracle::check(&real, &p, &a));
    });
    group.bench_function("model", |b| {
        b.iter(|| lemur_placer::oracle::StageOracle::check(&model, &p, &a));
    });
    group.finish();
}

fn bench_lp(c: &mut Criterion) {
    // The marginal-throughput LP plus core allocation (§3.2 step 3).
    let (p, _) = build_problem(&[Chain1, Chain2, Chain3, Chain4], 1.0, Topology::testbed());
    let a = lemur_placer::baselines::hw_preferred_assignment(&p);
    c.bench_function("placement_evaluate_lp", |b| {
        b.iter(|| {
            p.evaluate(&a, lemur_placer::corealloc::CoreStrategy::WaterFill)
                .unwrap()
        });
    });
}

fn bench_corealloc(c: &mut Criterion) {
    // Core allocation as the beam calls it on Figure-2 set a: 1 024
    // subgroup lists (a 64-wide beam × 16 table entries) that differ in
    // one chain's pattern, water-filled one after another through one
    // reused buffer.
    let (p, _) = build_problem(&[Chain1, Chain2, Chain3, Chain4], 1.0, Topology::testbed());
    let patterns = lemur_placer::brute::per_chain_patterns(&p, 16);
    let mut stream: Vec<_> = (0..1024usize)
        .map(|k| {
            let per_chain = patterns.iter().enumerate();
            let assignment = per_chain
                .map(|(ci, pats)| {
                    lemur_placer::brute::materialize(&pats[(k >> (2 * ci)) % pats.len()], 0)
                })
                .collect();
            p.form_subgroups(&assignment)
        })
        .collect();
    let mut buffer = lemur_placer::corealloc::AllocBuffer::default();
    c.bench_function("corealloc_allocate_set_a", |b| {
        b.iter(|| {
            let feasible = stream.iter_mut().filter_map(|subgroups| {
                let strategy = lemur_placer::corealloc::CoreStrategy::WaterFill;
                lemur_placer::corealloc::allocate_with(&p, subgroups, strategy, &mut buffer).ok()
            });
            feasible.count()
        });
    });
}

fn bench_fleet_failover(c: &mut Criterion) {
    // The coordinator's failover path, placement only: boot the canonical
    // four-PoP fleet, drain PoP 0, re-seat its chains with the survivors'
    // chains locked in place. Boot is outside the timed loop.
    let spec = lemur_fleet::sim::FleetSpec::canonical(4);
    let profiles = lemur_placer::NfProfiles::table4();
    let oracle = compiler_oracle();
    let workers = lemur_placer::Workers::new(1);
    let boot =
        lemur_placer::place_fleet(&spec.chains, &spec.topologies, &profiles, &oracle, workers);
    let refugees = boot.pops[0].chains.clone();
    assert!(!refugees.is_empty(), "PoP 0 must have chains to fail over");
    let mut topologies = spec.topologies.clone();
    topologies[0] = Topology::with_servers(0);
    let mut locked: Vec<Vec<usize>> = boot.pops.iter().map(|p| p.chains.clone()).collect();
    locked[0].clear();
    c.bench_function("fleet_failover_reassign", |b| {
        b.iter(|| {
            lemur_placer::seat_chains(
                &spec.chains,
                &topologies,
                &locked,
                &refugees,
                &profiles,
                &oracle,
                workers,
            )
        });
    });
}

/// Short measurement windows: these benches exist to regenerate the
/// paper's cost comparisons, not to chase nanosecond precision.
fn quick_config() -> Criterion {
    Criterion::default()
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_secs(1))
        .sample_size(10)
}

criterion_group! {
    name = benches;
    config = quick_config();
    targets = bench_heuristic, bench_brute, bench_brute_expand, bench_brute_cached, bench_stage_oracle, bench_lp, bench_corealloc, bench_fleet_failover
}
criterion_main!(benches);
