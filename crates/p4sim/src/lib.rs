//! # lemur-p4sim
//!
//! A PISA (Protocol Independent Switch Architecture) switch substrate: the
//! simulated stand-in for the Barefoot Tofino switch in the paper's testbed.
//!
//! The crate has three layers:
//!
//! * [`ir`] — a P4-like intermediate representation: match-action tables,
//!   actions built from primitives, and a control-flow tree with explicit
//!   exclusive branches (the property Lemur's meta-compiler surfaces so the
//!   platform compiler "can pack parallel branches into the same set of
//!   switch stages", §4.2).
//! * [`compiler`] — the stage-packing compiler. This is the piece the
//!   paper's Placer must *invoke* rather than approximate: "it is hard to
//!   estimate a priori the number of PISA switch stages used by a placement
//!   because the PISA compiler performs stage packing" (§3.2). It performs
//!   table-dependency analysis and first-fit stage packing under per-stage
//!   SRAM/TCAM/table limits, and also exposes the *conservative analytic
//!   estimator* the paper compares against (14 estimated vs 12 compiled
//!   stages for the 10-NAT placement, §5.2).
//! * [`runtime`] — a switch that executes a compiled program on packets at
//!   line rate, used by the cross-platform dataplane.
//!
//! [`parser`] holds P4 parser trees and the §A.2.1 merge algorithm used by
//! the meta-compiler when unifying standalone NFs.

pub mod compiler;
mod header;
pub mod ir;
pub mod parser;
pub mod resources;
pub mod runtime;

pub use compiler::{
    compile, compile_naive, estimate_conservative, estimate_conservative_with, table_guards,
    CompileError, CompileOptions, GuardAtom, StageAssignment,
};
pub use ir::{
    Action, CmpOp, Control, FieldRef, MatchKind, MatchValue, P4Program, Primitive, ProgramError,
    Table, TableEntry, TableId,
};
pub use parser::{MergeError, ParserTree};
pub use resources::PisaModel;
pub use runtime::{DropCause, EntryError, Switch, SwitchVerdict, TableCounters};
