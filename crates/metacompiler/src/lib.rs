//! # lemur-metacompiler
//!
//! Lemur's meta-compiler (§4): takes NF chain specifications plus the
//! Placer's placement and generates everything needed to execute the
//! chains across platforms:
//!
//! * [`routing`] — NSH service-path synthesis: SPI/SI assignment per
//!   decomposed path, encap/decap minimization (one encap at the head and
//!   one decap at the tail of each service path), branch SPI-rewrite maps,
//!   and the demux configuration for every server.
//! * [`p4gen`] — P4 program synthesis for the PISA ToR: the standalone-NF
//!   library, §A.2.1 parser-tree unification, §A.2.2 DAG→tree conversion
//!   (branching nodes become exclusive `Switch` cases; merging nodes are
//!   re-attached at a common ancestor behind metadata guards), and the
//!   §4.2 dependency-elimination optimizations (a)–(d), each toggleable so
//!   their stage cost can be measured.
//! * [`bessgen`] — BESS pipeline generation per server: NSHdecap/demux,
//!   run-to-completion subgroup instances with replica counts, NSHencap,
//!   scheduler-tree core assignment, and the textual BESS script.
//! * [`fuse`] — [`NfRuntime`], the one server-segment runtime `bessgen`
//!   instantiates per replica, over boxed or fused NF storage.
//! * [`ebpfgen`] — eBPF program generation for SmartNIC-resident NFs with
//!   loop unrolling and full inlining (§A.3).
//! * [`ofgen`] — OpenFlow rules using the 12-bit VLAN VID as SPI/SI.
//! * [`oracle`] — [`oracle::CompilerOracle`]: the production
//!   `lemur_placer::StageOracle` that synthesizes the unified P4 program
//!   and invokes the `lemur-p4sim` stage-packing compiler; and
//!   [`oracle::CachedCompilerOracle`], the same oracle with a sharded
//!   memoized verdict cache keyed by program fingerprint.
//! * [`loc`] — generated-lines-of-code accounting for the §5.3
//!   "meta-compiler benefits" experiment.

pub mod bessgen;
pub mod ebpfgen;
pub mod fuse;
pub mod loc;
pub mod ofgen;
pub mod oracle;
pub mod p4gen;
pub mod routing;

pub use fuse::NfRuntime;
pub use oracle::{CachedCompilerOracle, CompilerOracle};
pub use p4gen::{P4GenOptions, SynthesizedP4};
pub use routing::{Location, PathRoute, RoutingPlan, Segment};

use lemur_placer::placement::{EvaluatedPlacement, PlacementProblem};

/// Everything the meta-compiler produces for one placement.
pub struct Deployment {
    pub routing: RoutingPlan,
    pub p4: SynthesizedP4,
    pub bess: Vec<bessgen::ServerPipeline>,
    pub ebpf: Vec<ebpfgen::NicProgram>,
    pub stats: loc::CodegenStats,
}

/// Why meta-compilation of a placement failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// P4 synthesis rejected the switch program.
    P4(String),
    /// eBPF generation rejected a SmartNIC assignment.
    Ebpf(String),
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::P4(msg) => write!(f, "p4 synthesis: {msg}"),
            CompileError::Ebpf(msg) => write!(f, "ebpf generation: {msg}"),
        }
    }
}

impl std::error::Error for CompileError {}

/// Run the full meta-compilation pipeline with boxed (reference) server
/// runtimes.
pub fn compile(
    problem: &PlacementProblem,
    placement: &EvaluatedPlacement,
) -> Result<Deployment, CompileError> {
    compile_with_options(problem, placement, P4GenOptions::default())
}

/// Full pipeline with fused server runtimes (see [`fuse`]). Routing, P4,
/// and eBPF outputs are identical to [`compile`]; only the storage of each
/// [`NfRuntime`] changes. With [`compile`], the one place it is chosen.
pub fn compile_fused(
    problem: &PlacementProblem,
    placement: &EvaluatedPlacement,
) -> Result<Deployment, CompileError> {
    compile_inner(problem, placement, P4GenOptions::default(), None, true)
}

/// Full pipeline with explicit P4 generation options (used by the stage
/// optimization experiments).
pub fn compile_with_options(
    problem: &PlacementProblem,
    placement: &EvaluatedPlacement,
    p4_options: P4GenOptions,
) -> Result<Deployment, CompileError> {
    compile_inner(problem, placement, p4_options, None, false)
}

/// Re-compile a *repaired sub-problem* without global renumbering:
/// `spi_bases[i]` is the original base SPI of the sub-problem's chain `i`
/// (take `routing.entry_spi[kept[i]]` from the pre-failure deployment).
/// Surviving chains keep their original service-path identifiers, so a
/// live epoch swap changes only the tables that actually must change.
pub fn compile_repair(
    problem: &PlacementProblem,
    placement: &EvaluatedPlacement,
    spi_bases: &[u32],
) -> Result<Deployment, CompileError> {
    compile_inner(
        problem,
        placement,
        P4GenOptions::default(),
        Some(spi_bases),
        false,
    )
}

fn compile_inner(
    problem: &PlacementProblem,
    placement: &EvaluatedPlacement,
    p4_options: P4GenOptions,
    spi_bases: Option<&[u32]>,
    fused: bool,
) -> Result<Deployment, CompileError> {
    let routing = routing::plan_with_spi_bases(problem, &placement.assignment, spi_bases);
    let p4 = p4gen::synthesize(problem, &placement.assignment, &routing, p4_options)
        .map_err(CompileError::P4)?;
    let bess = bessgen::generate(problem, placement, &routing, fused);
    let ebpf = ebpfgen::generate(problem, placement, &routing).map_err(CompileError::Ebpf)?;
    let stats = loc::account(problem, &p4, &bess, &ebpf);
    Ok(Deployment {
        routing,
        p4,
        bess,
        ebpf,
        stats,
    })
}
