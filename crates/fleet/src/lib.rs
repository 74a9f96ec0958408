//! # lemur-fleet
//!
//! Multi-PoP fleet control for the Lemur reproduction: each point of
//! presence runs its own sharded supervisor state (ownership under
//! fencing tokens + a write-ahead decision log + live stateful NFs),
//! while a global [`coordinator::FleetCoordinator`] decomposes placement
//! hierarchically — per-PoP subproblems through the existing placer, a
//! cross-PoP chain assignment on top — and drives everything over a
//! seeded lossy control channel.
//!
//! The coordinator speaks the idempotent, fenced protocol in [`msg`];
//! loss, duplication, delay, and scheduled fault windows live in
//! [`channel`]; retries back off per [`Backoff`], the schedule the
//! supervisor's replans use too. When a PoP goes dark it descends the
//! Suspect → Unreachable → Drained ladder, and its chains fail over to
//! surviving PoPs — stateful ones by replaying the last replicated LMSN
//! snapshot, excess ones shed by SLO priority. The whole loop is
//! exercised end-to-end by [`sim::FleetSim`] under
//! `lemur_control::chaos::fleet_storm` weather.

#![warn(clippy::too_many_lines)]

pub mod channel;
pub mod coordinator;
pub mod msg;
pub mod pop;
pub mod sim;

pub use channel::{ChannelConfig, ChannelStats, LossyChannel};
pub use coordinator::{CoordStats, FleetConfig, FleetCoordinator};
pub use lemur_control::retry::{Backoff, BackoffPolicy};
pub use msg::{ChainClaim, CtrlMsg, Endpoint, Envelope, StateReport};
pub use pop::{PopRuntime, PopStats};
pub use sim::{FleetReport, FleetSim, FleetSimConfig, FleetSpec, PopValidation};
