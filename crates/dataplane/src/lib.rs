//! # lemur-dataplane
//!
//! The cross-platform execution engine: the simulated stand-in for the
//! paper's physical testbed (Tofino ToR + BESS servers + SmartNIC).
//!
//! A [`Testbed`] is built from a placement and its meta-compiled
//! [`lemur_metacompiler::Deployment`]: the generated P4 program runs on a
//! real [`lemur_p4sim::Switch`], server subgroups run real `lemur-nf` code
//! behind the generated demux/mux, and SmartNIC NFs execute on the
//! `lemur-ebpf` VM. Packets *really* traverse every platform — NSH headers
//! are pushed, rewritten, and popped by the generated artifacts, not by
//! the simulator.
//!
//! Time is virtual: a deterministic discrete-event simulation charges each
//! hop its modeled cost (link serialization, demux cycles, per-subgroup
//! worst-case cycles with NUMA and replication effects, NIC instruction
//! costs) so throughput and latency measurements are reproducible
//! bit-for-bit on any machine. Per-packet service times sample the
//! profile's min–max band (Table 4), which is why *measured* throughput
//! can slightly exceed the Placer's conservative *prediction* — the same
//! effect the paper reports (§5.2 "Predictions are conservative").

#![warn(clippy::too_many_lines)]

pub mod engine;
pub mod faults;
pub mod flowsim;
pub mod migrate;
pub mod report;
pub mod traffic;
pub mod validate;

pub use engine::{
    BuildError, ControlAction, ControlHook, HybridConfig, HybridMode, NoopHook, ScenarioError,
    SimConfig, StagedConfig, Testbed,
};
pub use faults::{
    ChannelFault, ChannelFaultKind, FaultEvent, FaultKind, FaultPlan, FaultPlanError,
    MigrationFaultKind,
};
pub use flowsim::{
    ChainLoad, Diurnal, FlowPacketSource, FlowRecord, FlowSizeDist, Scenario, ScenarioSpec, Surge,
    SurgeKind, TailCell, TailPlan,
};
pub use migrate::{CrossSiteTransfer, MigrationError, MigrationStats, StateRecord, StateTransfer};
pub use report::{
    ChainStats, ConservationLedger, DropReason, SimReport, TimelineEvent, ViolationKind,
    WindowSample,
};
pub use traffic::{ChainIndexOutOfRange, TrafficSpec};
pub use validate::{validate_scenario, TrafficProfile, TrafficTolerance, TrafficValidationError};
