//! Live reconfiguration: the control plane's verdicts, and the epoch swap
//! that commits a staged configuration with its NF state migrated.

use super::accounts::Accounts;
use super::clock::WindowClock;
use super::queue::{EventQueue, Hop};
use super::{ControlAction, ControlHook, Platforms, StagedConfig, Testbed};
use crate::faults::{FaultState, MigrationFaultKind};
use crate::migrate::{
    decode_record, nat_binding_entries, MigrationError, MigrationStats, StateRecord, StateTransfer,
};
use crate::report::{DropReason, TimelineEvent};

/// The epoch-scoped decisions a run carries: which configuration is live
/// (by number), which one waits to be swapped in, and which chains — and
/// which of their junk tail mass — are admitted.
pub(super) struct Epoch {
    number: u64,
    pending: Option<Box<StagedConfig>>,
    /// Per original chain: admitted in this epoch? Shed chains have their
    /// packets refused at inject ([`DropReason::Shed`]).
    pub(super) admitted: Vec<bool>,
    /// Tail admission control (ladder rung 1): per-chain junk denial,
    /// flipped by [`ControlAction::SetTailAdmission`] without a swap.
    pub(super) deny_junk: Vec<bool>,
}

impl Epoch {
    pub(super) fn new(n_chains: usize) -> Epoch {
        Epoch {
            number: 0,
            pending: None,
            admitted: vec![true; n_chains],
            deny_junk: vec![false; n_chains],
        }
    }

    /// Apply a hook's verdict at `now`: stage at most one pending swap
    /// (scheduled on `queue` after its drain window), or flip tail
    /// admission control in place.
    pub(super) fn apply(
        &mut self,
        action: ControlAction,
        now: u64,
        queue: &mut EventQueue,
        timeline: &mut Vec<TimelineEvent>,
    ) {
        match action {
            ControlAction::Continue => {}
            ControlAction::SetTailAdmission { deny_junk } => {
                // INVARIANT: a hook sizes `deny_junk` by the original
                // chains (a shorter one reads as "admit" past its end).
                debug_assert_eq!(deny_junk.len(), self.admitted.len());
                timeline.push(TimelineEvent::AdmissionChange {
                    at_ns: now,
                    deny_junk: deny_junk.clone(),
                });
                self.deny_junk = deny_junk;
            }
            ControlAction::StageCommit { staged, drain_ns } => {
                if self.pending.is_none() {
                    // INVARIANT: `StagedConfig::build` takes `admitted` and
                    // `slos` indexed by the original chains.
                    debug_assert_eq!(staged.admitted.len(), self.admitted.len());
                    debug_assert_eq!(staged.slos.len(), self.admitted.len());
                    timeline.push(TimelineEvent::DrainStart {
                        at_ns: now,
                        epoch: self.number,
                        rollback: staged.rollback,
                    });
                    queue.push((now.saturating_add(drain_ns), 0, Hop::EpochSwap));
                    self.pending = Some(staged);
                }
            }
        }
    }

    /// The drain window ended: migrate NF state into the staged
    /// configuration and, if that verifies, swap it into `tb` — charging
    /// whatever is still in flight to the swap — and its guard bounds into
    /// `clock`.
    pub(super) fn swap(
        &mut self,
        tb: &mut Testbed,
        now: u64,
        acct: &mut Accounts,
        faults: &mut FaultState,
        clock: &mut WindowClock,
        hook: &mut dyn ControlHook,
    ) {
        let Some(mut staged) = self.pending.take().map(|b| *b) else {
            return;
        };
        // State migration runs inside the drain window: snapshot the old
        // epoch, apply any armed migration faults to the transfer, restore
        // into the staged configuration, and verify. A failure aborts the
        // whole swap — the old epoch stays live with its state intact (the
        // rollback to last-known-good).
        let mut transfer = capture_state(&tb.live);
        let snapshots = transfer.declared as u64;
        let armed = std::mem::take(&mut faults.armed_migration_faults);
        for fault in &armed {
            transfer.apply_fault(*fault);
        }
        let migration = if armed.contains(&MigrationFaultKind::ControlCrash) {
            Err(MigrationError::ControlCrash)
        } else if armed.contains(&MigrationFaultKind::RestoreTimeout) {
            Err(MigrationError::RestoreTimeout)
        } else {
            apply_transfer(&transfer, &mut staged.platforms)
        };
        let mut stats = match migration {
            Ok(s) => s,
            Err(error) => {
                acct.timeline.push(TimelineEvent::MigrationAborted {
                    at_ns: now,
                    epoch: self.number,
                    error: error.clone(),
                });
                hook.on_migration_failed(now, &error);
                return;
            }
        };
        stats.snapshots = snapshots;
        // Phase two of the commit: anything still in flight missed the
        // drain window and is charged to the swap (update-time loss).
        // Sorted id order keeps the drop sequence — and thus the report —
        // deterministic.
        let stale = acct.packets.sorted_ids();
        let packets_lost = stale.len() as u64;
        for id in stale {
            acct.drop(id, DropReason::Reconfig);
        }
        // Atomic swap: compute state is replaced, physical link stations
        // (and their backlog) persist.
        tb.live = staged.platforms;
        self.admitted = staged.admitted;
        clock.slos = staged.slos;
        self.number += 1;
        acct.timeline.push(TimelineEvent::Migration {
            at_ns: now,
            epoch: self.number,
            stats,
        });
        acct.timeline.push(TimelineEvent::EpochCommit {
            at_ns: now,
            epoch: self.number,
            packets_lost,
            rollback: staged.rollback,
        });
        hook.on_commit(now, self.number, packets_lost, staged.rollback);
    }
}

/// Snapshot every state-bearing NF of the live configuration, in the
/// deterministic `(chain, node, replica)` order of the index. NFs that
/// export no state (stateless kinds) are simply absent from the transfer.
fn capture_state(live: &Platforms) -> StateTransfer {
    let records = live
        .nf_instances()
        .filter_map(|(loc, inst)| {
            Some(StateRecord {
                chain: loc.chain,
                node: loc.node,
                replica: loc.replica,
                kind: loc.kind,
                bytes: inst.runtime.snapshot_nf(loc.nf_idx)?.encode(),
            })
        })
        .collect();
    StateTransfer::new(records)
}

/// Restore a transfer into a staged configuration, verifying integrity at
/// every step. Server-resident targets get a byte-exact restore checked
/// by state fingerprint; NAT nodes that moved onto the ToR have their
/// bindings re-expressed as P4 table entries; records whose node has no
/// target in the new placement (e.g. a shed chain) are dropped
/// deliberately. Errors leave the *live* configuration untouched — only
/// `staged`, which the caller then discards.
fn apply_transfer(
    transfer: &StateTransfer,
    staged: &mut Platforms,
) -> Result<MigrationStats, MigrationError> {
    if transfer.records.len() != transfer.declared {
        return Err(MigrationError::Truncated {
            expected: transfer.declared,
            got: transfer.records.len(),
        });
    }
    let mut stats = MigrationStats::default();
    for rec in &transfer.records {
        let snap = decode_record(rec)?;
        let decode = |source| MigrationError::Decode {
            chain: rec.chain,
            node: rec.node,
            replica: rec.replica,
            source,
        };
        let target = staged
            .nf_index
            .iter()
            .find(|l| l.chain == rec.chain && l.node == rec.node && l.replica == rec.replica)
            .copied();
        if let Some(loc) = target {
            let Some(Some(srv)) = staged.servers.get_mut(loc.server) else {
                stats.dropped += 1;
                continue;
            };
            let Some(inst) = srv.pipeline.instances.get_mut(loc.inst_idx) else {
                stats.dropped += 1;
                continue;
            };
            inst.runtime.restore_nf(loc.nf_idx, &snap).map_err(decode)?;
            if inst.runtime.nf_state_fingerprint(loc.nf_idx) != snap.fingerprint() {
                return Err(MigrationError::FingerprintMismatch {
                    chain: rec.chain,
                    node: rec.node,
                    replica: rec.replica,
                });
            }
            stats.restored += 1;
        } else if let Some(tor) = staged
            .tor_nat
            .iter()
            .find(|t| t.chain == rec.chain && t.node == rec.node)
            .copied()
        {
            // Cross-platform move: the NAT now runs as ToR tables, so its
            // bindings become match-action entries.
            let (ext_ip, bindings) = lemur_nf::nat::Nat::decode_bindings(&snap).map_err(decode)?;
            for (tid, entry) in nat_binding_entries(&tor, ext_ip, &bindings) {
                staged.switch.add_entry(tid, entry);
                stats.tor_entries += 1;
            }
        } else {
            stats.dropped += 1;
        }
    }
    Ok(stats)
}
