//! P4 source is rendered on demand (`SynthesizedP4::render`), not during
//! synthesis. The text and the line accounting must be what synthesis
//! used to produce eagerly: the numbers below were read off the eager
//! build for Figure-2 set a (chains 1–4, δ = 0.5) under the HW-preferred
//! placement.

use lemur_core::chains::{canonical_chain, CanonicalChain};
use lemur_core::graph::ChainSpec;
use lemur_core::Slo;
use lemur_metacompiler::loc::CodegenStats;
use lemur_metacompiler::{p4gen, routing};
use lemur_placer::corealloc::CoreStrategy;
use lemur_placer::placement::PlacementProblem;
use lemur_placer::profiles::NfProfiles;
use lemur_placer::topology::Topology;

const SOURCE_LINES: usize = 1596;
const STEERING_LINES: usize = 1048;
const NF_LINES: usize = 514;
/// FNV-1a over the source bytes.
const SOURCE_FNV: u64 = 0x0168_8364_255c_d722;

fn set_a() -> PlacementProblem {
    let chains = CanonicalChain::ALL[..4]
        .iter()
        .enumerate()
        .map(|(i, &which)| ChainSpec {
            name: format!("chain{i}"),
            graph: canonical_chain(which),
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

#[test]
fn render_reproduces_the_eager_source() {
    let p = set_a();
    let a = lemur_placer::baselines::hw_preferred_assignment(&p);
    let plan = routing::plan(&p, &a);
    let synth = p4gen::synthesize(&p, &a, &plan, p4gen::P4GenOptions::default()).unwrap();
    let rendered = synth.render();
    assert_eq!(rendered.source.lines().count(), SOURCE_LINES);
    assert_eq!(rendered.steering_lines, STEERING_LINES);
    assert_eq!(rendered.nf_lines, NF_LINES);
    let fnv = rendered
        .source
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
        });
    assert_eq!(fnv, SOURCE_FNV, "rendered text changed");
    // Rendering reads the artifact; a second call gives the same text.
    assert_eq!(synth.render().source, rendered.source);
}

#[test]
fn deployment_stats_still_count_the_rendered_source() {
    let p = set_a();
    let a = lemur_placer::baselines::hw_preferred_assignment(&p);
    let placement = p.evaluate(&a, CoreStrategy::WaterFill).unwrap();
    let deployment = lemur_metacompiler::compile(&p, &placement).unwrap();
    assert_eq!(
        deployment.stats,
        CodegenStats {
            p4_generated: SOURCE_LINES,
            p4_steering: STEERING_LINES,
            bess_generated: 48,
            ebpf_generated: 0,
            library_lines: 1340,
        }
    );
}
