//! The production stage oracle: synthesize the unified P4 program and
//! invoke the platform compiler (§3.2: "we then iteratively call a PISA
//! compiler to find the highest-ranked placement within the switch's stage
//! constraints").

use crate::p4gen::{self, P4GenOptions};
use crate::routing;
use lemur_p4sim::compiler::{compile, CompileError, CompileOptions};
use lemur_p4sim::ir::P4Program;
use lemur_p4sim::resources::PisaModel;
use lemur_placer::cache::{CacheStats, StageCache};
use lemur_placer::oracle::{StageOracle, StageVerdict};
use lemur_placer::placement::{Assignment, PlacementProblem};
use lemur_placer::topology::Tor;

/// A [`StageOracle`] backed by real code generation + stage packing.
#[derive(Debug, Clone, Default)]
pub struct CompilerOracle {
    /// Code-generation options (the stage experiments toggle these).
    pub options: P4GenOptions,
}

impl CompilerOracle {
    /// Oracle with default (fully optimized) code generation.
    pub fn new() -> CompilerOracle {
        CompilerOracle::default()
    }

    /// Oracle generating naive (unoptimized) code.
    pub fn naive() -> CompilerOracle {
        CompilerOracle {
            options: P4GenOptions::naive(),
        }
    }
}

/// Run the stage-packing compiler and map its outcome to a verdict.
fn compile_verdict(program: &P4Program, model: &PisaModel) -> StageVerdict {
    match compile(program, model, CompileOptions::default()) {
        Ok(out) => StageVerdict::Fits {
            stages: out.num_stages_used,
        },
        Err(CompileError::OutOfStages {
            required,
            available,
        }) => StageVerdict::OutOfStages {
            required,
            available,
        },
        // An oversized table or a structurally invalid program can never
        // fit, whatever the stage budget: reject the placement.
        Err(CompileError::TableTooLarge(_)) | Err(CompileError::Invalid(_)) => {
            StageVerdict::OutOfStages {
                required: model.num_stages + 1,
                available: model.num_stages,
            }
        }
    }
}

/// Synthesize the switch program for an assignment, or the rejection
/// verdict when synthesis itself fails.
fn synthesize_for(
    options: P4GenOptions,
    problem: &PlacementProblem,
    assignment: &Assignment,
    model: &PisaModel,
) -> Result<P4Program, StageVerdict> {
    // An unassigned chain, a parser conflict or any other synthesis
    // failure rejects the placement like an over-full pipeline would.
    let rejected = StageVerdict::OutOfStages {
        required: model.num_stages + 1,
        available: model.num_stages,
    };
    if assignment.len() < problem.chains.len() {
        return Err(rejected);
    }
    let plan = routing::plan(problem, assignment);
    match p4gen::synthesize(problem, assignment, &plan, options) {
        Ok(s) => Ok(s.program),
        Err(_) => Err(rejected),
    }
}

impl StageOracle for CompilerOracle {
    fn check(&self, problem: &PlacementProblem, assignment: &Assignment) -> StageVerdict {
        let Tor::Pisa(model) = &problem.topology.tor else {
            // No PISA switch: nothing to fit.
            return StageVerdict::Fits { stages: 0 };
        };
        match synthesize_for(self.options, problem, assignment, model) {
            Ok(program) => compile_verdict(&program, model),
            Err(verdict) => verdict,
        }
    }
}

/// [`CompilerOracle`] with a memoized stage-packing step: verdicts are
/// cached in a [`StageCache`] keyed by the canonical fingerprint of the
/// synthesized program mixed with the hardware-model fingerprint.
/// Candidates that differ only in server/NIC choices synthesize the same
/// switch program, and δ-sweeps and repair passes re-probe programs seen
/// before — those probes skip stage packing entirely.
///
/// Compilation is a pure function of (program, model), both of which the
/// key covers, so a cached verdict always equals a fresh compile (the
/// cache-equivalence property test in `tests/proptest_cache.rs` checks
/// this on random chains and placements). Safe to share across the
/// placer's worker pool.
#[derive(Debug, Default)]
pub struct CachedCompilerOracle {
    inner: CompilerOracle,
    cache: StageCache,
}

impl CachedCompilerOracle {
    /// Cached oracle with default (fully optimized) code generation.
    pub fn new() -> CachedCompilerOracle {
        CachedCompilerOracle::default()
    }

    /// Cached oracle generating naive (unoptimized) code.
    pub fn naive() -> CachedCompilerOracle {
        CachedCompilerOracle {
            inner: CompilerOracle::naive(),
            cache: StageCache::new(),
        }
    }

    /// Cached oracle with explicit code-generation options.
    pub fn with_options(options: P4GenOptions) -> CachedCompilerOracle {
        CachedCompilerOracle {
            inner: CompilerOracle { options },
            cache: StageCache::new(),
        }
    }

    /// The underlying verdict cache (for stats snapshots and resets).
    pub fn cache(&self) -> &StageCache {
        &self.cache
    }
}

impl StageOracle for CachedCompilerOracle {
    fn check(&self, problem: &PlacementProblem, assignment: &Assignment) -> StageVerdict {
        let Tor::Pisa(model) = &problem.topology.tor else {
            return StageVerdict::Fits { stages: 0 };
        };
        match synthesize_for(self.inner.options, problem, assignment, model) {
            Ok(program) => {
                let key = program.fingerprint() ^ ((model.fingerprint() as u128) << 64);
                self.cache
                    .get_or_insert_with(key, || compile_verdict(&program, model))
            }
            Err(verdict) => verdict,
        }
    }

    fn cache_stats(&self) -> Option<CacheStats> {
        Some(self.cache.stats())
    }
}
