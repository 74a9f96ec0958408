//! # lemur-bess
//!
//! The x86 server substrate: a BESS-style software dataplane on a modeled
//! commodity server.
//!
//! Pieces, mirroring the paper's Appendix A.1:
//!
//! * [`machine`] — server hardware model: sockets, cores, NIC attachment,
//!   clock rate, and the NUMA cross-socket penalty visible in Table 4.
//! * [`demux`] — the shared `NSHdecap`/demultiplexer module that steers
//!   packets to the right subgroup (by SPI/SI) and replica (by flow hash),
//!   and the `NSHencap` mux at the tail (§A.1.2).
//! * [`scheduler`] — the per-core scheduler tree: round-robin interior
//!   nodes, task leaves, and token-bucket rate enforcement of `t_max`
//!   (§A.1.3).
//! * [`profiler`] — measures cycles/packet of the *real* Rust NFs in this
//!   repository under the paper's two worst-case traffic patterns
//!   (footnote 6), producing Table 4-shaped statistics.
//!
//! The run-to-completion subgroups themselves (§3.2) — consecutive server
//! NFs of one chain coalesced onto one core — are the meta-compiler's
//! `lemur_metacompiler::NfRuntime`, which these modules steer packets to
//! and schedule.

pub mod demux;
pub mod machine;
pub mod profiler;
pub mod scheduler;

pub use demux::{Demux, DemuxKey};
pub use machine::{CoreId, NicSpec, ServerSpec, SocketId};
pub use profiler::{profile_nf, ProfileStats, TrafficPattern};
pub use scheduler::{SchedulerTree, TaskId};
