//! Criterion benches for the P4 stage-packing compiler — the feasibility
//! oracle the Placer invokes per candidate placement (§3.2 motivates the
//! heuristic by the cost of these invocations).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lemur_core::chains::{extreme_nat_chain, CanonicalChain::*};
use lemur_core::graph::ChainSpec;
use lemur_core::Slo;
use lemur_metacompiler::{p4gen, routing};
use lemur_p4sim::compiler::{compile, dependency_depth, estimate_conservative, CompileOptions};
use lemur_p4sim::PisaModel;
use lemur_placer::oracle::StageOracle;
use lemur_placer::placement::PlacementProblem;
use lemur_placer::profiles::NfProfiles;
use lemur_placer::topology::Topology;

fn nat_program(n: usize) -> lemur_p4sim::P4Program {
    let mut p = PlacementProblem::new(
        vec![ChainSpec {
            name: format!("extreme{n}"),
            graph: extreme_nat_chain(n),
            slo: Some(Slo::bulk()),
            aggregate: None,
        }],
        Topology::testbed(),
        NfProfiles::table4(),
    );
    p.chains[0].slo = Some(Slo::elastic_pipe(0.0, 100e9));
    let a = lemur_placer::baselines::hw_preferred_assignment(&p);
    let plan = routing::plan(&p, &a);
    p4gen::synthesize(&p, &a, &plan, p4gen::P4GenOptions::default())
        .unwrap()
        .program
}

fn bench_compile(c: &mut Criterion) {
    let model = PisaModel::default();
    let mut group = c.benchmark_group("p4_stage_packing");
    for n in [4usize, 8, 10] {
        let program = nat_program(n);
        group.bench_with_input(BenchmarkId::new("compile", n), &program, |b, p| {
            b.iter(|| compile(p, &model, CompileOptions::default()).unwrap());
        });
        group.bench_with_input(BenchmarkId::new("estimate", n), &program, |b, p| {
            b.iter(|| estimate_conservative(p, &model));
        });
    }
    group.finish();
}

fn bench_synthesis(c: &mut Criterion) {
    // Full meta-compilation (synthesis + entries), per oracle invocation.
    let mut p = PlacementProblem::new(
        vec![ChainSpec {
            name: "extreme10".into(),
            graph: extreme_nat_chain(10),
            slo: Some(Slo::bulk()),
            aggregate: None,
        }],
        Topology::testbed(),
        NfProfiles::table4(),
    );
    p.chains[0].slo = Some(Slo::elastic_pipe(0.0, 100e9));
    let a = lemur_placer::baselines::hw_preferred_assignment(&p);
    c.bench_function("p4_synthesize_10nat", |b| {
        b.iter(|| {
            let plan = routing::plan(&p, &a);
            p4gen::synthesize(&p, &a, &plan, p4gen::P4GenOptions::default()).unwrap()
        });
    });
}

fn bench_set_a(c: &mut Criterion) {
    // Figure-2 set a under the HW-preferred placement: what one stage
    // oracle call costs (routing plan + synthesis + stage packing), and
    // the synthesis and dependency-analysis shares of it.
    let (p, _) =
        lemur_bench::build_problem(&[Chain1, Chain2, Chain3, Chain4], 1.0, Topology::testbed());
    let a = lemur_placer::baselines::hw_preferred_assignment(&p);
    c.bench_function("synthesize_set_a", |b| {
        b.iter(|| {
            let plan = routing::plan(&p, &a);
            p4gen::synthesize(&p, &a, &plan, p4gen::P4GenOptions::default()).unwrap()
        });
    });
    // Dependency analysis alone on that program: the part of stage packing
    // that grows with the square of the table count.
    let plan = routing::plan(&p, &a);
    let program = p4gen::synthesize(&p, &a, &plan, p4gen::P4GenOptions::default())
        .unwrap()
        .program;
    c.bench_function("analyze_set_a", |b| {
        b.iter(|| dependency_depth(&program, &CompileOptions::default()));
    });
    let oracle = lemur_bench::compiler_oracle();
    c.bench_function("oracle_check_set_a", |b| {
        b.iter(|| oracle.check(&p, &a));
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
    targets = bench_compile, bench_synthesis, bench_set_a
}
criterion_main!(benches);
