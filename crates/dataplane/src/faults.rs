//! Deterministic fault injection for the simulated testbed.
//!
//! A [`FaultPlan`] schedules events in *virtual* time: the engine replays
//! them from its event heap exactly like packet hops, so a run with a
//! given `(SimConfig, FaultPlan)` pair is bit-for-bit reproducible. An
//! empty plan leaves the engine's behavior byte-identical to a run without
//! fault support — the plan only exists in the heap if it has events.

use std::collections::BTreeSet;

use crate::engine::PacketSource;
use lemur_placer::Topology;
use serde::{DeError, Deserialize, Serialize, Value};

/// What an injected migration fault breaks inside the drain-window state
/// migration. These arm at injection time and fire at the *next* epoch
/// swap, modelling failures of the snapshot→transfer→restore pipeline
/// itself rather than of the steady-state dataplane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationFaultKind {
    /// One snapshot's bytes are corrupted in transit (single byte flip);
    /// the per-NF checksum must catch it and force a rollback.
    SnapshotCorrupt,
    /// The state transfer is cut short: the last record is lost while the
    /// manifest still declares it, so the receiver sees a truncation.
    TransferTruncate,
    /// The control plane crashes between snapshot and restore; the
    /// supervisor must replay its decision log to a consistent state.
    ControlCrash,
    /// The restore phase exceeds the drain window (modelled as a timeout);
    /// the old epoch must stay live.
    RestoreTimeout,
}

impl MigrationFaultKind {
    /// Short human-readable tag used in reports and JSON.
    pub fn tag(&self) -> &'static str {
        match self {
            MigrationFaultKind::SnapshotCorrupt => "snapshot_corrupt",
            MigrationFaultKind::TransferTruncate => "transfer_truncate",
            MigrationFaultKind::ControlCrash => "control_crash",
            MigrationFaultKind::RestoreTimeout => "restore_timeout",
        }
    }

    /// All kinds, for storm generation.
    pub const ALL: [MigrationFaultKind; 4] = [
        MigrationFaultKind::SnapshotCorrupt,
        MigrationFaultKind::TransferTruncate,
        MigrationFaultKind::ControlCrash,
        MigrationFaultKind::RestoreTimeout,
    ];

    fn from_tag(tag: &str) -> Option<MigrationFaultKind> {
        MigrationFaultKind::ALL.into_iter().find(|k| k.tag() == tag)
    }
}

impl std::fmt::Display for MigrationFaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.tag())
    }
}

/// One kind of injected fault (or recovery).
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// The ToR↔server link for `server` goes down: packets routed over it
    /// in either direction are dropped until a matching [`FaultKind::LinkUp`].
    LinkDown { server: usize },
    /// The ToR↔server link for `server` comes back.
    LinkUp { server: usize },
    /// A worker core on `server` fails: every packet steered to an NF
    /// instance pinned to that core is dropped for the rest of the run.
    CoreFail { server: usize, core: usize },
    /// The NF subgroup (global index into the placement's subgroup list)
    /// crashes: its traffic is dropped until [`FaultKind::NfRecover`].
    NfCrash { subgroup: usize },
    /// The crashed subgroup finishes restarting.
    NfRecover { subgroup: usize },
    /// The subgroup's per-packet cycle cost is multiplied by `factor`
    /// (> 1.0 models drift away from the profiled cost, e.g. a cache-
    /// hostile traffic mix).
    ProfileDrift { subgroup: usize, factor: f64 },
    /// The chain's offered rate is multiplied by `factor` from this point
    /// on (> 1.0 is a surge, < 1.0 a lull).
    TrafficSurge { chain: usize, factor: f64 },
    /// Arm a failure of the state-migration pipeline: it fires during the
    /// *next* epoch swap after this event's injection time (a no-op if no
    /// swap ever happens).
    MigrationFault { fault: MigrationFaultKind },
}

impl FaultKind {
    /// Short human-readable tag used in reports.
    pub fn tag(&self) -> &'static str {
        match self {
            FaultKind::LinkDown { .. } => "link_down",
            FaultKind::LinkUp { .. } => "link_up",
            FaultKind::CoreFail { .. } => "core_fail",
            FaultKind::NfCrash { .. } => "nf_crash",
            FaultKind::NfRecover { .. } => "nf_recover",
            FaultKind::ProfileDrift { .. } => "profile_drift",
            FaultKind::TrafficSurge { .. } => "traffic_surge",
            FaultKind::MigrationFault { .. } => "migration_fault",
        }
    }
}

impl Serialize for FaultKind {
    fn to_value(&self) -> Value {
        let mut entries = vec![("type".to_string(), Value::Str(self.tag().to_string()))];
        match self {
            FaultKind::LinkDown { server } | FaultKind::LinkUp { server } => {
                entries.push(("server".to_string(), server.to_value()));
            }
            FaultKind::CoreFail { server, core } => {
                entries.push(("server".to_string(), server.to_value()));
                entries.push(("core".to_string(), core.to_value()));
            }
            FaultKind::NfCrash { subgroup } | FaultKind::NfRecover { subgroup } => {
                entries.push(("subgroup".to_string(), subgroup.to_value()));
            }
            FaultKind::ProfileDrift { subgroup, factor } => {
                entries.push(("subgroup".to_string(), subgroup.to_value()));
                entries.push(("factor".to_string(), factor.to_value()));
            }
            FaultKind::TrafficSurge { chain, factor } => {
                entries.push(("chain".to_string(), chain.to_value()));
                entries.push(("factor".to_string(), factor.to_value()));
            }
            FaultKind::MigrationFault { fault } => {
                entries.push(("fault".to_string(), Value::Str(fault.tag().to_string())));
            }
        }
        Value::object(entries)
    }
}

/// Pull a typed field out of a JSON object, erroring if absent.
fn field<T: Deserialize>(v: &Value, name: &str) -> Result<T, DeError> {
    T::from_value(v.get(name).ok_or_else(|| DeError::missing(name))?)
}

impl Deserialize for FaultKind {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let tag: String = field(v, "type")?;
        match tag.as_str() {
            "link_down" => Ok(FaultKind::LinkDown {
                server: field(v, "server")?,
            }),
            "link_up" => Ok(FaultKind::LinkUp {
                server: field(v, "server")?,
            }),
            "core_fail" => Ok(FaultKind::CoreFail {
                server: field(v, "server")?,
                core: field(v, "core")?,
            }),
            "nf_crash" => Ok(FaultKind::NfCrash {
                subgroup: field(v, "subgroup")?,
            }),
            "nf_recover" => Ok(FaultKind::NfRecover {
                subgroup: field(v, "subgroup")?,
            }),
            "profile_drift" => Ok(FaultKind::ProfileDrift {
                subgroup: field(v, "subgroup")?,
                factor: field(v, "factor")?,
            }),
            "traffic_surge" => Ok(FaultKind::TrafficSurge {
                chain: field(v, "chain")?,
                factor: field(v, "factor")?,
            }),
            "migration_fault" => {
                let name: String = field(v, "fault")?;
                let fault = MigrationFaultKind::from_tag(&name)
                    .ok_or_else(|| DeError(format!("unknown migration fault `{name}`")))?;
                Ok(FaultKind::MigrationFault { fault })
            }
            other => Err(DeError(format!("unknown fault kind `{other}`"))),
        }
    }
}

/// A scheduled fault.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// Virtual time of injection (ns from simulation start; the warm-up
    /// period counts, so plans usually schedule after `warmup_s`).
    pub at_ns: u64,
    pub kind: FaultKind,
}

impl Serialize for FaultEvent {
    fn to_value(&self) -> Value {
        Value::object(vec![
            ("at_ns".to_string(), self.at_ns.to_value()),
            ("kind".to_string(), self.kind.to_value()),
        ])
    }
}

impl Deserialize for FaultEvent {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(FaultEvent {
            at_ns: field(v, "at_ns")?,
            kind: field(v, "kind")?,
        })
    }
}

/// A deterministic schedule of fault events, sorted by injection time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl Serialize for FaultPlan {
    fn to_value(&self) -> Value {
        Value::object(vec![("events".to_string(), self.events.to_value())])
    }
}

impl Deserialize for FaultPlan {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        // `new` re-sorts, so hand-edited JSON need not be time-ordered.
        Ok(FaultPlan::new(field(v, "events")?))
    }
}

/// Why a [`FaultPlan`] was rejected by [`FaultPlan::validate`].
#[derive(Debug, Clone, PartialEq)]
pub enum FaultPlanError {
    /// A server index exceeds the topology.
    ServerOutOfRange {
        event: usize,
        server: usize,
        n_servers: usize,
    },
    /// A core index exceeds the server's core count.
    CoreOutOfRange {
        event: usize,
        server: usize,
        core: usize,
        n_cores: usize,
    },
    /// A subgroup index exceeds the deployment's subgroup count.
    SubgroupOutOfRange {
        event: usize,
        subgroup: usize,
        n_subgroups: usize,
    },
    /// A chain index exceeds the problem's chain count.
    ChainOutOfRange {
        event: usize,
        chain: usize,
        n_chains: usize,
    },
    /// A drift/surge factor was non-positive or non-finite.
    BadFactor { event: usize, factor: f64 },
    /// A recovery (`LinkUp`/`NfRecover`) with no preceding matching fault.
    RepairBeforeFault { event: usize, kind: FaultKind },
}

impl std::fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultPlanError::ServerOutOfRange {
                event,
                server,
                n_servers,
            } => {
                write!(
                    f,
                    "event {event}: server {server} out of range (topology has {n_servers})"
                )
            }
            FaultPlanError::CoreOutOfRange {
                event,
                server,
                core,
                n_cores,
            } => {
                write!(
                    f,
                    "event {event}: core {core} out of range (server {server} has {n_cores})"
                )
            }
            FaultPlanError::SubgroupOutOfRange {
                event,
                subgroup,
                n_subgroups,
            } => {
                write!(
                    f,
                    "event {event}: subgroup {subgroup} out of range (deployment has {n_subgroups})"
                )
            }
            FaultPlanError::ChainOutOfRange {
                event,
                chain,
                n_chains,
            } => {
                write!(
                    f,
                    "event {event}: chain {chain} out of range (problem has {n_chains})"
                )
            }
            FaultPlanError::BadFactor { event, factor } => {
                write!(f, "event {event}: factor {factor} must be finite and > 0")
            }
            FaultPlanError::RepairBeforeFault { event, kind } => {
                write!(
                    f,
                    "event {event}: {} has no preceding matching fault",
                    kind.tag()
                )
            }
        }
    }
}

impl std::error::Error for FaultPlanError {}

impl FaultPlan {
    /// A plan with no events — running with it is identical to running
    /// without fault injection.
    pub fn empty() -> FaultPlan {
        FaultPlan { events: Vec::new() }
    }

    /// Build a plan from events (sorted by time on construction; ties keep
    /// their relative order, so e.g. a `LinkDown` listed before a `LinkUp`
    /// at the same instant applies first).
    pub fn new(mut events: Vec<FaultEvent>) -> FaultPlan {
        events.sort_by_key(|e| e.at_ns);
        FaultPlan { events }
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Events in injection order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Add an event, keeping the schedule sorted (builder style).
    pub fn with(mut self, at_ns: u64, kind: FaultKind) -> FaultPlan {
        self.events.push(FaultEvent { at_ns, kind });
        self.events.sort_by_key(|e| e.at_ns);
        self
    }

    /// Convenience: a link flap on `server` over `[down_ns, up_ns)`.
    pub fn link_flap(self, server: usize, down_ns: u64, up_ns: u64) -> FaultPlan {
        assert!(up_ns > down_ns, "flap must recover after it fails");
        self.with(down_ns, FaultKind::LinkDown { server })
            .with(up_ns, FaultKind::LinkUp { server })
    }

    /// Convenience: crash subgroup for a repair interval `[at_ns, at_ns + repair_ns)`.
    pub fn nf_crash(self, subgroup: usize, at_ns: u64, repair_ns: u64) -> FaultPlan {
        self.with(at_ns, FaultKind::NfCrash { subgroup })
            .with(at_ns + repair_ns, FaultKind::NfRecover { subgroup })
    }

    /// The set of servers whose links are down at the end of the plan
    /// (useful for building a degraded-topology repair problem).
    pub fn links_down_at_end(&self) -> BTreeSet<usize> {
        let mut down = BTreeSet::new();
        for e in &self.events {
            match e.kind {
                FaultKind::LinkDown { server } => {
                    down.insert(server);
                }
                FaultKind::LinkUp { server } => {
                    down.remove(&server);
                }
                _ => {}
            }
        }
        down
    }

    /// Check the plan against a topology (and the deployment's subgroup /
    /// chain counts, which the topology does not know). Rejects
    /// out-of-range indices, non-positive factors, and repairs that
    /// precede any matching fault — all of which would otherwise simulate
    /// silently as no-ops or nonsense.
    pub fn validate(
        &self,
        topo: &Topology,
        n_subgroups: usize,
        n_chains: usize,
    ) -> Result<(), FaultPlanError> {
        let n_servers = topo.servers.len();
        let check_server = |event: usize, server: usize| {
            if server >= n_servers {
                Err(FaultPlanError::ServerOutOfRange {
                    event,
                    server,
                    n_servers,
                })
            } else {
                Ok(())
            }
        };
        let check_subgroup = |event: usize, subgroup: usize| {
            if subgroup >= n_subgroups {
                Err(FaultPlanError::SubgroupOutOfRange {
                    event,
                    subgroup,
                    n_subgroups,
                })
            } else {
                Ok(())
            }
        };
        let check_factor = |event: usize, factor: f64| {
            if !factor.is_finite() || factor <= 0.0 {
                Err(FaultPlanError::BadFactor { event, factor })
            } else {
                Ok(())
            }
        };
        // Events are time-sorted, so a linear scan sees faults before the
        // repairs that reference them.
        let mut links_down: BTreeSet<usize> = BTreeSet::new();
        let mut crashed: BTreeSet<usize> = BTreeSet::new();
        for (i, e) in self.events.iter().enumerate() {
            match e.kind {
                FaultKind::LinkDown { server } => {
                    check_server(i, server)?;
                    links_down.insert(server);
                }
                FaultKind::LinkUp { server } => {
                    check_server(i, server)?;
                    if !links_down.remove(&server) {
                        return Err(FaultPlanError::RepairBeforeFault {
                            event: i,
                            kind: e.kind.clone(),
                        });
                    }
                }
                FaultKind::CoreFail { server, core } => {
                    check_server(i, server)?;
                    let n_cores = topo.servers[server].num_cores();
                    if core >= n_cores {
                        return Err(FaultPlanError::CoreOutOfRange {
                            event: i,
                            server,
                            core,
                            n_cores,
                        });
                    }
                }
                FaultKind::NfCrash { subgroup } => {
                    check_subgroup(i, subgroup)?;
                    crashed.insert(subgroup);
                }
                FaultKind::NfRecover { subgroup } => {
                    check_subgroup(i, subgroup)?;
                    if !crashed.remove(&subgroup) {
                        return Err(FaultPlanError::RepairBeforeFault {
                            event: i,
                            kind: e.kind.clone(),
                        });
                    }
                }
                FaultKind::ProfileDrift { subgroup, factor } => {
                    check_subgroup(i, subgroup)?;
                    check_factor(i, factor)?;
                }
                FaultKind::TrafficSurge { chain, factor } => {
                    if chain >= n_chains {
                        return Err(FaultPlanError::ChainOutOfRange {
                            event: i,
                            chain,
                            n_chains,
                        });
                    }
                    check_factor(i, factor)?;
                }
                // Migration faults arm the next swap; nothing to range-check.
                FaultKind::MigrationFault { .. } => {}
            }
        }
        Ok(())
    }

    /// `(server, core)` pairs failed by the plan (core failures are
    /// permanent for the run).
    pub fn cores_failed(&self) -> BTreeSet<(usize, usize)> {
        self.events
            .iter()
            .filter_map(|e| match e.kind {
                FaultKind::CoreFail { server, core } => Some((server, core)),
                _ => None,
            })
            .collect()
    }
}

/// What a fleet-level fault does to the coordinator↔PoP control channel.
/// These are *windowed* conditions (active between `from_ns` and `to_ns`
/// of a [`ChannelFault`]), unlike the point events of [`FaultKind`] —
/// control-plane failures are outages, not edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelFaultKind {
    /// Total blackout: every message to *and* from the site is dropped
    /// (the whole-PoP failure a fleet must survive).
    Blackout,
    /// Asymmetric partition: messages *to* the site are dropped, but the
    /// site's own messages still get out — the coordinator hears a PoP it
    /// cannot command.
    PartitionTo,
    /// Asymmetric partition the other way: the site hears everything but
    /// its replies are lost — the coordinator sees silence from a PoP that
    /// is obeying stale orders.
    PartitionFrom,
    /// Brownout: both directions limp along with an extra `drop_permille`
    /// ‰ loss on top of the channel's baseline.
    Brownout { drop_permille: u16 },
}

impl ChannelFaultKind {
    /// Short human-readable tag used in reports and JSON.
    pub fn tag(&self) -> &'static str {
        match self {
            ChannelFaultKind::Blackout => "blackout",
            ChannelFaultKind::PartitionTo => "partition_to",
            ChannelFaultKind::PartitionFrom => "partition_from",
            ChannelFaultKind::Brownout { .. } => "brownout",
        }
    }
}

impl std::fmt::Display for ChannelFaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChannelFaultKind::Brownout { drop_permille } => {
                write!(f, "brownout({drop_permille}‰)")
            }
            other => f.write_str(other.tag()),
        }
    }
}

/// One windowed control-channel fault against a site (PoP). The window is
/// half-open: active for `from_ns <= now < to_ns`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelFault {
    pub site: usize,
    pub kind: ChannelFaultKind,
    pub from_ns: u64,
    pub to_ns: u64,
}

impl ChannelFault {
    /// Is this fault active at `now` for traffic involving `site`?
    pub fn active(&self, now_ns: u64, site: usize) -> bool {
        self.site == site && self.from_ns <= now_ns && now_ns < self.to_ns
    }
}

impl Serialize for ChannelFault {
    fn to_value(&self) -> Value {
        let mut entries = vec![
            ("site".to_string(), self.site.to_value()),
            ("kind".to_string(), Value::Str(self.kind.tag().to_string())),
            ("from_ns".to_string(), self.from_ns.to_value()),
            ("to_ns".to_string(), self.to_ns.to_value()),
        ];
        if let ChannelFaultKind::Brownout { drop_permille } = self.kind {
            entries.push(("drop_permille".to_string(), drop_permille.to_value()));
        }
        Value::object(entries)
    }
}

impl Deserialize for ChannelFault {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let tag: String = field(v, "kind")?;
        let kind = match tag.as_str() {
            "blackout" => ChannelFaultKind::Blackout,
            "partition_to" => ChannelFaultKind::PartitionTo,
            "partition_from" => ChannelFaultKind::PartitionFrom,
            "brownout" => ChannelFaultKind::Brownout {
                drop_permille: field(v, "drop_permille")?,
            },
            other => return Err(DeError(format!("unknown channel fault `{other}`"))),
        };
        Ok(ChannelFault {
            site: field(v, "site")?,
            kind,
            from_ns: field(v, "from_ns")?,
            to_ns: field(v, "to_ns")?,
        })
    }
}

/// Live fault state the engine consults on the per-packet fast path.
#[derive(Debug, Clone)]
pub(crate) struct FaultState {
    /// Per-server ToR↔server link up/down.
    pub link_up: Vec<bool>,
    /// `(server, core)` pairs that have failed.
    pub failed_cores: BTreeSet<(usize, usize)>,
    /// Global subgroup indices currently offline.
    pub crashed_subgroups: BTreeSet<usize>,
    /// Migration faults armed for the next epoch swap, in injection order
    /// (the swap drains the whole queue).
    pub armed_migration_faults: Vec<MigrationFaultKind>,
}

impl FaultState {
    pub fn healthy(n_servers: usize) -> FaultState {
        FaultState {
            link_up: vec![true; n_servers],
            failed_cores: BTreeSet::new(),
            crashed_subgroups: BTreeSet::new(),
            armed_migration_faults: Vec::new(),
        }
    }

    pub fn link_is_up(&self, server: usize) -> bool {
        self.link_up.get(server).copied().unwrap_or(true)
    }

    /// Apply one fault-plan event. Two kinds act on the run rather than on
    /// this state: a profile drift scales a subgroup's cycle cost, a
    /// traffic surge a chain's offered rate. Indices the run does not have
    /// are ignored.
    pub fn apply(
        &mut self,
        kind: &FaultKind,
        subgroup_cycles: &mut [f64],
        sources: &mut [PacketSource],
    ) {
        match *kind {
            FaultKind::LinkDown { server } => {
                if let Some(up) = self.link_up.get_mut(server) {
                    *up = false;
                }
            }
            FaultKind::LinkUp { server } => {
                if let Some(up) = self.link_up.get_mut(server) {
                    *up = true;
                }
            }
            FaultKind::CoreFail { server, core } => {
                self.failed_cores.insert((server, core));
            }
            FaultKind::NfCrash { subgroup } => {
                self.crashed_subgroups.insert(subgroup);
            }
            FaultKind::NfRecover { subgroup } => {
                self.crashed_subgroups.remove(&subgroup);
            }
            FaultKind::ProfileDrift { subgroup, factor } => {
                if let Some(c) = subgroup_cycles.get_mut(subgroup) {
                    *c *= factor;
                }
            }
            FaultKind::TrafficSurge { chain, factor } => {
                if let Some(src) = sources.get_mut(chain) {
                    src.set_rate_factor(factor);
                }
            }
            FaultKind::MigrationFault { fault } => {
                // Arms the next epoch swap; nothing happens to
                // steady-state traffic now.
                self.armed_migration_faults.push(fault);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_sort_and_track_end_state() {
        let plan = FaultPlan::empty()
            .with(500, FaultKind::CoreFail { server: 1, core: 3 })
            .link_flap(0, 100, 400)
            .with(200, FaultKind::LinkDown { server: 2 });
        let times: Vec<u64> = plan.events().iter().map(|e| e.at_ns).collect();
        assert_eq!(times, vec![100, 200, 400, 500]);
        // Server 0 flapped back up; server 2 stays down.
        assert_eq!(
            plan.links_down_at_end().into_iter().collect::<Vec<_>>(),
            vec![2]
        );
        assert_eq!(
            plan.cores_failed().into_iter().collect::<Vec<_>>(),
            vec![(1, 3)]
        );
    }

    #[test]
    fn crash_recover_pairing() {
        let plan = FaultPlan::empty().nf_crash(4, 1_000, 2_000);
        assert_eq!(plan.len(), 2);
        assert_eq!(plan.events()[0].kind, FaultKind::NfCrash { subgroup: 4 });
        assert_eq!(plan.events()[1].at_ns, 3_000);
    }

    #[test]
    fn empty_plan_is_empty() {
        assert!(FaultPlan::empty().is_empty());
        assert!(FaultPlan::default().is_empty());
        assert_eq!(FaultPlan::empty(), FaultPlan::new(vec![]));
    }

    #[test]
    fn json_round_trip() {
        let plan = FaultPlan::empty()
            .link_flap(0, 100, 400)
            .with(500, FaultKind::CoreFail { server: 1, core: 3 })
            .nf_crash(2, 600, 100)
            .with(
                800,
                FaultKind::ProfileDrift {
                    subgroup: 1,
                    factor: 1.5,
                },
            )
            .with(
                900,
                FaultKind::TrafficSurge {
                    chain: 0,
                    factor: 2.0,
                },
            )
            .with(
                950,
                FaultKind::MigrationFault {
                    fault: MigrationFaultKind::SnapshotCorrupt,
                },
            )
            .with(
                960,
                FaultKind::MigrationFault {
                    fault: MigrationFaultKind::ControlCrash,
                },
            );
        let text = serde_json::to_string_pretty(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&text).unwrap();
        assert_eq!(back, plan);
    }

    #[test]
    fn json_rejects_unknown_kind() {
        let text = r#"{"events":[{"at_ns":1,"kind":{"type":"meteor_strike"}}]}"#;
        assert!(serde_json::from_str::<FaultPlan>(text).is_err());
        let missing = r#"{"events":[{"at_ns":1,"kind":{"type":"link_down"}}]}"#;
        assert!(serde_json::from_str::<FaultPlan>(missing).is_err());
        let bad_mig =
            r#"{"events":[{"at_ns":1,"kind":{"type":"migration_fault","fault":"gremlins"}}]}"#;
        assert!(serde_json::from_str::<FaultPlan>(bad_mig).is_err());
    }

    #[test]
    fn migration_fault_tags_are_distinct() {
        let tags: BTreeSet<&str> = MigrationFaultKind::ALL.iter().map(|k| k.tag()).collect();
        assert_eq!(tags.len(), MigrationFaultKind::ALL.len());
        for k in MigrationFaultKind::ALL {
            assert_eq!(MigrationFaultKind::from_tag(k.tag()), Some(k));
        }
    }

    #[test]
    fn json_resorts_on_load() {
        let text = r#"{"events":[
            {"at_ns":400,"kind":{"type":"link_up","server":0}},
            {"at_ns":100,"kind":{"type":"link_down","server":0}}
        ]}"#;
        let plan: FaultPlan = serde_json::from_str(text).unwrap();
        assert_eq!(plan.events()[0].at_ns, 100);
    }

    #[test]
    fn validate_accepts_sane_plans() {
        let topo = Topology::with_servers(2);
        let plan = FaultPlan::empty()
            .link_flap(1, 100, 400)
            .with(500, FaultKind::CoreFail { server: 0, core: 2 })
            .nf_crash(1, 600, 100)
            .with(
                800,
                FaultKind::TrafficSurge {
                    chain: 0,
                    factor: 3.0,
                },
            );
        assert_eq!(plan.validate(&topo, 2, 1), Ok(()));
    }

    #[test]
    fn validate_rejects_out_of_range() {
        let topo = Topology::with_servers(2);
        let bad_server = FaultPlan::empty().with(1, FaultKind::LinkDown { server: 2 });
        assert!(matches!(
            bad_server.validate(&topo, 1, 1),
            Err(FaultPlanError::ServerOutOfRange { server: 2, .. })
        ));
        let bad_core = FaultPlan::empty().with(
            1,
            FaultKind::CoreFail {
                server: 0,
                core: 99,
            },
        );
        assert!(matches!(
            bad_core.validate(&topo, 1, 1),
            Err(FaultPlanError::CoreOutOfRange { core: 99, .. })
        ));
        let bad_sg = FaultPlan::empty().with(1, FaultKind::NfCrash { subgroup: 7 });
        assert!(matches!(
            bad_sg.validate(&topo, 3, 1),
            Err(FaultPlanError::SubgroupOutOfRange { subgroup: 7, .. })
        ));
        let bad_chain = FaultPlan::empty().with(
            1,
            FaultKind::TrafficSurge {
                chain: 4,
                factor: 2.0,
            },
        );
        assert!(matches!(
            bad_chain.validate(&topo, 1, 2),
            Err(FaultPlanError::ChainOutOfRange { chain: 4, .. })
        ));
        let bad_factor = FaultPlan::empty().with(
            1,
            FaultKind::ProfileDrift {
                subgroup: 0,
                factor: 0.0,
            },
        );
        assert!(matches!(
            bad_factor.validate(&topo, 1, 1),
            Err(FaultPlanError::BadFactor { .. })
        ));
    }

    #[test]
    fn validate_rejects_repair_before_fault() {
        let topo = Topology::with_servers(2);
        let orphan_up = FaultPlan::empty().with(1, FaultKind::LinkUp { server: 0 });
        assert!(matches!(
            orphan_up.validate(&topo, 1, 1),
            Err(FaultPlanError::RepairBeforeFault { .. })
        ));
        // A recover scheduled *before* its crash is the same bug even
        // though both events exist.
        let inverted = FaultPlan::empty()
            .with(10, FaultKind::NfRecover { subgroup: 0 })
            .with(20, FaultKind::NfCrash { subgroup: 0 });
        assert!(matches!(
            inverted.validate(&topo, 1, 1),
            Err(FaultPlanError::RepairBeforeFault { .. })
        ));
    }
}
