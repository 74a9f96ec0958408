//! The supervisor's write-ahead decision log.
//!
//! Every reconfiguration decision is journaled *before* it is handed to
//! the engine, and every outcome is journaled when it lands. If the
//! control plane crashes between snapshot and restore (an injected
//! [`lemur_dataplane::MigrationFaultKind::ControlCrash`]), replaying the
//! log reconstructs a consistent view: either the last committed epoch is
//! live with its NF state intact, or an intent is dangling and the swap is
//! known to have aborted — never a half-applied state.
//!
//! Fleet deployments journal coordinator decisions too: chain-ownership
//! grants and revocations (with their fencing tokens), PoP health-ladder
//! transitions, and fleet-wide sheds. Replaying a coordinator's log after
//! a crash reconstructs exactly which PoP owns which chain under which
//! token, so a restarted coordinator can never re-grant a chain it already
//! gave away.
//!
//! The log has one durable form: [`WalRecord::encode`] /
//! [`DecisionLog::encode`] write a byte image of length-prefixed frames,
//! each sealed with the same FNV-1a/128 digest the LMSN snapshot wire
//! format uses, and [`DecisionLog::recover`] reads it back. The fleet
//! coordinator keeps that image and recovers from it after a crash. A torn
//! write — the journal cut mid-record — recovers to the longest complete
//! prefix and resolves any dangling intent with a synthesized
//! [`WalRecord::Recovered`]: recovery never errors and never leaves a
//! swap half-open.

use std::collections::BTreeMap;

use lemur_core::graph::NodeId;
use lemur_dataplane::MigrationError;
use lemur_nf::snapshot::{Decoder, Encoder, Fnv128, SnapshotError};
use lemur_nf::NfKind;

/// Where a PoP sits on the coordinator's graceful-degradation ladder.
///
/// Transitions only ever step right on missed heartbeats (Healthy →
/// Suspect → Unreachable → Drained) and reset to `Healthy` on contact;
/// `Drained` additionally requires the PoP's lease to have provably
/// expired, which is what makes cross-PoP failover safe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PopHealth {
    /// Heartbeats arriving within the suspect threshold.
    Healthy,
    /// Missed enough heartbeats to stop sending it new work.
    Suspect,
    /// Missed enough to start planning failover, but its lease may still
    /// be live — its chains cannot be re-granted yet.
    Unreachable,
    /// Lease provably expired; chains failed over and the PoP must
    /// re-join with a fresh incarnation before it is used again.
    Drained,
}

impl PopHealth {
    /// Every rung, in ladder order.
    pub const ALL: [PopHealth; 4] = [
        PopHealth::Healthy,
        PopHealth::Suspect,
        PopHealth::Unreachable,
        PopHealth::Drained,
    ];

    /// Short human-readable tag used in reports.
    pub fn tag(&self) -> &'static str {
        match self {
            PopHealth::Healthy => "healthy",
            PopHealth::Suspect => "suspect",
            PopHealth::Unreachable => "unreachable",
            PopHealth::Drained => "drained",
        }
    }
}

impl std::fmt::Display for PopHealth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.tag())
    }
}

/// One journaled decision or outcome, in virtual-time order.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// Written *before* a staged commit is handed to the engine: the
    /// supervisor intends to swap. `shed` lists chains the new epoch
    /// refuses (empty for rollbacks).
    Intent {
        at_ns: u64,
        rollback: bool,
        shed: Vec<usize>,
    },
    /// The engine committed the swap; `epoch` is now live.
    Committed {
        at_ns: u64,
        epoch: u64,
        rollback: bool,
    },
    /// The staged swap was aborted by a migration failure; the previous
    /// epoch (and its state) stayed live.
    MigrationFailed { at_ns: u64, error: MigrationError },
    /// The control plane came back from a crash and replayed the log;
    /// `replayed` is the number of records scanned.
    Recovered { at_ns: u64, replayed: usize },
    /// The fleet coordinator granted ownership of `chain` to `pop` under
    /// fencing `token`. Tokens are per-chain monotonic: a receiver that
    /// has seen a newer token rejects this grant as stale.
    FleetGrant {
        at_ns: u64,
        pop: usize,
        chain: usize,
        token: u64,
    },
    /// Ownership of `chain` was revoked from `pop` (graceful drain, or
    /// fencing of a PoP whose lease expired); `token` is the token being
    /// retired.
    FleetRevoke {
        at_ns: u64,
        pop: usize,
        chain: usize,
        token: u64,
    },
    /// `pop` moved to a new rung on the degradation ladder.
    FleetPopHealth {
        at_ns: u64,
        pop: usize,
        health: PopHealth,
    },
    /// `chain` was shed fleet-wide: no surviving PoP could satisfy its
    /// SLO, and by policy the lowest-priority chains go first.
    FleetShed { at_ns: u64, chain: usize },
    /// The supervisor flipped DDoS-junk admission control (the first
    /// rung of the graceful-degradation ladder). Journaled like a swap
    /// intent so a recovered control plane knows whether the dataplane
    /// is still denying junk.
    AdmissionControl { at_ns: u64, deny: bool },
}

impl WalRecord {
    pub fn at_ns(&self) -> u64 {
        match self {
            WalRecord::Intent { at_ns, .. }
            | WalRecord::Committed { at_ns, .. }
            | WalRecord::MigrationFailed { at_ns, .. }
            | WalRecord::Recovered { at_ns, .. }
            | WalRecord::FleetGrant { at_ns, .. }
            | WalRecord::FleetRevoke { at_ns, .. }
            | WalRecord::FleetPopHealth { at_ns, .. }
            | WalRecord::FleetShed { at_ns, .. }
            | WalRecord::AdmissionControl { at_ns, .. } => *at_ns,
        }
    }

    /// Serialize to the durable framed form: `u32` little-endian payload
    /// length, the payload, then the payload's FNV-1a/128 digest (16
    /// bytes). Frames concatenate into a journal image that
    /// [`DecisionLog::recover`] replays even when cut mid-frame.
    pub fn encode(&self) -> Vec<u8> {
        let payload = self.encode_payload();
        let mut out = Vec::with_capacity(4 + payload.len() + RECORD_DIGEST_BYTES);
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&payload);
        let mut digest = Fnv128::new();
        digest.bytes(&payload);
        out.extend_from_slice(&digest.finish().to_le_bytes());
        out
    }

    fn encode_payload(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        match self {
            WalRecord::Intent {
                at_ns,
                rollback,
                shed,
            } => {
                e.u8(0);
                e.u64(*at_ns);
                e.u8(u8::from(*rollback));
                e.u32(shed.len() as u32);
                for chain in shed {
                    e.u64(*chain as u64);
                }
            }
            WalRecord::Committed {
                at_ns,
                epoch,
                rollback,
            } => {
                e.u8(1);
                e.u64(*at_ns);
                e.u64(*epoch);
                e.u8(u8::from(*rollback));
            }
            WalRecord::MigrationFailed { at_ns, error } => {
                e.u8(2);
                e.u64(*at_ns);
                encode_migration_error(&mut e, error);
            }
            WalRecord::Recovered { at_ns, replayed } => {
                e.u8(3);
                e.u64(*at_ns);
                e.u64(*replayed as u64);
            }
            WalRecord::FleetGrant {
                at_ns,
                pop,
                chain,
                token,
            } => {
                e.u8(4);
                e.u64(*at_ns);
                e.u64(*pop as u64);
                e.u64(*chain as u64);
                e.u64(*token);
            }
            WalRecord::FleetRevoke {
                at_ns,
                pop,
                chain,
                token,
            } => {
                e.u8(5);
                e.u64(*at_ns);
                e.u64(*pop as u64);
                e.u64(*chain as u64);
                e.u64(*token);
            }
            WalRecord::FleetPopHealth { at_ns, pop, health } => {
                e.u8(6);
                e.u64(*at_ns);
                e.u64(*pop as u64);
                e.u8(*health as u8);
            }
            WalRecord::FleetShed { at_ns, chain } => {
                e.u8(7);
                e.u64(*at_ns);
                e.u64(*chain as u64);
            }
            WalRecord::AdmissionControl { at_ns, deny } => {
                e.u8(8);
                e.u64(*at_ns);
                e.u8(u8::from(*deny));
            }
        }
        e.finish()
    }

    fn decode_payload(bytes: &[u8]) -> Result<WalRecord, SnapshotError> {
        let mut d = Decoder::new(bytes);
        let rec = match d.u8()? {
            0 => {
                let at_ns = d.u64()?;
                let rollback = d.u8()? != 0;
                let n = d.u32()? as usize;
                let mut shed = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    shed.push(d.u64()? as usize);
                }
                WalRecord::Intent {
                    at_ns,
                    rollback,
                    shed,
                }
            }
            1 => WalRecord::Committed {
                at_ns: d.u64()?,
                epoch: d.u64()?,
                rollback: d.u8()? != 0,
            },
            2 => WalRecord::MigrationFailed {
                at_ns: d.u64()?,
                error: decode_migration_error(&mut d)?,
            },
            3 => WalRecord::Recovered {
                at_ns: d.u64()?,
                replayed: d.u64()? as usize,
            },
            4 => WalRecord::FleetGrant {
                at_ns: d.u64()?,
                pop: d.u64()? as usize,
                chain: d.u64()? as usize,
                token: d.u64()?,
            },
            5 => WalRecord::FleetRevoke {
                at_ns: d.u64()?,
                pop: d.u64()? as usize,
                chain: d.u64()? as usize,
                token: d.u64()?,
            },
            6 => WalRecord::FleetPopHealth {
                at_ns: d.u64()?,
                pop: d.u64()? as usize,
                health: decode_pop_health(&mut d)?,
            },
            7 => WalRecord::FleetShed {
                at_ns: d.u64()?,
                chain: d.u64()? as usize,
            },
            8 => WalRecord::AdmissionControl {
                at_ns: d.u64()?,
                deny: d.u8()? != 0,
            },
            _ => return Err(SnapshotError::Invalid("unknown WAL record tag")),
        };
        d.done()?;
        Ok(rec)
    }
}

const RECORD_DIGEST_BYTES: usize = 16;

fn decode_pop_health(d: &mut Decoder<'_>) -> Result<PopHealth, SnapshotError> {
    PopHealth::ALL
        .get(d.u8()? as usize)
        .copied()
        .ok_or(SnapshotError::Invalid("unknown PoP health rung"))
}

fn nf_kind_from_index(idx: u8) -> Result<NfKind, SnapshotError> {
    NfKind::ALL
        .get(idx as usize)
        .copied()
        .ok_or(SnapshotError::Invalid("unknown NF kind index"))
}

fn encode_u128(e: &mut Encoder, v: u128) {
    e.u64(v as u64);
    e.u64((v >> 64) as u64);
}

fn decode_u128(d: &mut Decoder<'_>) -> Result<u128, SnapshotError> {
    let lo = d.u64()? as u128;
    let hi = d.u64()? as u128;
    Ok(lo | (hi << 64))
}

fn encode_migration_error(e: &mut Encoder, err: &MigrationError) {
    match err {
        MigrationError::Decode {
            chain,
            node,
            replica,
            source,
        } => {
            e.u8(0);
            e.u64(*chain as u64);
            e.u64(node.0 as u64);
            e.u64(*replica as u64);
            encode_snapshot_error(e, source);
        }
        MigrationError::FingerprintMismatch {
            chain,
            node,
            replica,
        } => {
            e.u8(1);
            e.u64(*chain as u64);
            e.u64(node.0 as u64);
            e.u64(*replica as u64);
        }
        MigrationError::Truncated { expected, got } => {
            e.u8(2);
            e.u64(*expected as u64);
            e.u64(*got as u64);
        }
        MigrationError::ControlCrash => e.u8(3),
        MigrationError::RestoreTimeout => e.u8(4),
        MigrationError::StaleFencingToken {
            chain,
            held,
            offered,
        } => {
            e.u8(5);
            e.u64(*chain as u64);
            e.u64(*held);
            e.u64(*offered);
        }
        MigrationError::SiteUnreachable { site } => {
            e.u8(6);
            e.u64(*site as u64);
        }
    }
}

fn decode_migration_error(d: &mut Decoder<'_>) -> Result<MigrationError, SnapshotError> {
    Ok(match d.u8()? {
        0 => MigrationError::Decode {
            chain: d.u64()? as usize,
            node: NodeId(d.u64()? as usize),
            replica: d.u64()? as usize,
            source: decode_snapshot_error(d)?,
        },
        1 => MigrationError::FingerprintMismatch {
            chain: d.u64()? as usize,
            node: NodeId(d.u64()? as usize),
            replica: d.u64()? as usize,
        },
        2 => MigrationError::Truncated {
            expected: d.u64()? as usize,
            got: d.u64()? as usize,
        },
        3 => MigrationError::ControlCrash,
        4 => MigrationError::RestoreTimeout,
        5 => MigrationError::StaleFencingToken {
            chain: d.u64()? as usize,
            held: d.u64()?,
            offered: d.u64()?,
        },
        6 => MigrationError::SiteUnreachable {
            site: d.u64()? as usize,
        },
        _ => return Err(SnapshotError::Invalid("unknown migration error tag")),
    })
}

fn encode_snapshot_error(e: &mut Encoder, err: &SnapshotError) {
    match err {
        SnapshotError::Truncated { need, have } => {
            e.u8(0);
            e.u64(*need as u64);
            e.u64(*have as u64);
        }
        SnapshotError::BadMagic(magic) => {
            e.u8(1);
            e.u32(*magic);
        }
        SnapshotError::UnsupportedVersion(version) => {
            e.u8(2);
            e.u16(*version);
        }
        SnapshotError::ChecksumMismatch { expected, found } => {
            e.u8(3);
            encode_u128(e, *expected);
            encode_u128(e, *found);
        }
        SnapshotError::KindMismatch { expected, found } => {
            e.u8(4);
            e.u8(*expected as u8);
            e.u8(*found as u8);
        }
        SnapshotError::Invalid(msg) => {
            e.u8(5);
            e.str(msg);
        }
        SnapshotError::NoState(kind) => {
            e.u8(6);
            e.u8(*kind as u8);
        }
    }
}

fn decode_snapshot_error(d: &mut Decoder<'_>) -> Result<SnapshotError, SnapshotError> {
    Ok(match d.u8()? {
        0 => SnapshotError::Truncated {
            need: d.u64()? as usize,
            have: d.u64()? as usize,
        },
        1 => SnapshotError::BadMagic(d.u32()?),
        2 => SnapshotError::UnsupportedVersion(d.u16()?),
        3 => SnapshotError::ChecksumMismatch {
            expected: decode_u128(d)?,
            found: decode_u128(d)?,
        },
        4 => SnapshotError::KindMismatch {
            expected: nf_kind_from_index(d.u8()?)?,
            found: nf_kind_from_index(d.u8()?)?,
        },
        5 => SnapshotError::Invalid(intern_invalid(d.str()?)),
        6 => SnapshotError::NoState(nf_kind_from_index(d.u8()?)?),
        _ => return Err(SnapshotError::Invalid("unknown snapshot error tag")),
    })
}

/// Every `&'static str` message `SnapshotError::Invalid` can carry, so the
/// decoder can restore the static reference by interning. A message
/// outside this set (a newer writer) decodes to
/// [`UNKNOWN_INVALID_MESSAGE`] instead of failing the whole replay.
const INVALID_MESSAGES: &[&str] = &[
    "Dedup capacity below minimum",
    "Dedup entry from the future",
    "LB cache index out of range",
    "LB snapshot has no backends",
    "Limiter rate/burst not positive",
    "Limiter tokens outside bucket",
    "Monitor flow seen before it began",
    "NAT binding outside port pool",
    "NAT has more bindings than ports",
    "NAT port hint outside pool",
    "NAT port pool is empty",
    "NF index out of range in subgroup",
    "duplicate Dedup fingerprint",
    "duplicate LB cache flow",
    "duplicate Monitor flow",
    "duplicate NAT external port",
    "duplicate NAT internal endpoint",
    "string field is not UTF-8",
    "trailing bytes after digest",
    "trailing bytes after payload",
    "unknown NF kind index",
    "unknown WAL record tag",
    "unknown PoP health rung",
    "unknown migration error tag",
    "unknown snapshot error tag",
];

/// What an unrecognized `SnapshotError::Invalid` message decodes to.
pub const UNKNOWN_INVALID_MESSAGE: &str = "unrecognized snapshot invariant message";

fn intern_invalid(msg: &str) -> &'static str {
    INVALID_MESSAGES
        .iter()
        .copied()
        .find(|m| *m == msg)
        .unwrap_or(UNKNOWN_INVALID_MESSAGE)
}

/// What a replay of the log concludes the world looks like.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WalSummary {
    /// The last epoch known to have committed (`None` = still epoch 0,
    /// the boot configuration).
    pub committed_epoch: Option<u64>,
    /// True if an `Intent` has neither committed nor failed — the crash
    /// hit mid-drain and the engine's swap outcome is still unknown.
    pub in_flight_intent: bool,
    /// Migration failures since the last successful commit.
    pub failures_since_commit: usize,
    /// The last committed swap was a rollback to last-known-good.
    pub last_was_rollback: bool,
    /// Fleet view: chain → (owning PoP, fencing token) as of the end of
    /// the log. Empty for single-PoP supervisor logs.
    pub owners: BTreeMap<usize, (usize, u64)>,
    /// Fleet view: PoP → last journaled ladder rung.
    pub pop_health: BTreeMap<usize, PopHealth>,
    /// Fleet view: chains shed fleet-wide and not since re-granted,
    /// ascending.
    pub fleet_shed: Vec<usize>,
    /// True if the last journaled admission-control flip left the
    /// dataplane denying DDoS-junk tail mass.
    pub admission_deny: bool,
}

/// The outcome of replaying a possibly-torn durable journal image.
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecovery {
    /// The recovered log: the longest complete-record prefix, plus a
    /// synthesized [`WalRecord::Recovered`] if that prefix ended on a
    /// dangling intent.
    pub log: DecisionLog,
    /// Records decoded intact from the image.
    pub complete: usize,
    /// Trailing bytes discarded as a torn or corrupt tail.
    pub torn_bytes: usize,
    /// True if the prefix ended mid-swap and a `Recovered` record was
    /// appended to resolve it.
    pub resolved_intent: bool,
}

/// Append-only decision log with deterministic replay.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DecisionLog {
    records: Vec<WalRecord>,
}

impl DecisionLog {
    pub fn new() -> DecisionLog {
        DecisionLog::default()
    }

    pub fn append(&mut self, rec: WalRecord) {
        self.records.push(rec);
    }

    pub fn records(&self) -> &[WalRecord] {
        &self.records
    }

    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Serialize every record to the durable framed form, concatenated.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for rec in &self.records {
            out.extend_from_slice(&rec.encode());
        }
        out
    }

    /// Replay a durable journal image that may have been cut mid-record
    /// by a crash. Decodes the longest prefix of complete, digest-valid
    /// frames, discards the torn tail, and — if the surviving prefix ends
    /// on a dangling intent — resolves it by appending a
    /// [`WalRecord::Recovered`] stamped `now_ns`. Never errors: the worst
    /// input recovers to an empty log.
    pub fn recover(bytes: &[u8], now_ns: u64) -> WalRecovery {
        let mut records = Vec::new();
        let mut off = 0usize;
        loop {
            let rest = &bytes[off..];
            if rest.len() < 4 {
                break;
            }
            let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
            let frame = 4 + len + RECORD_DIGEST_BYTES;
            if rest.len() < frame {
                break;
            }
            let payload = &rest[4..4 + len];
            let mut stored = [0u8; RECORD_DIGEST_BYTES];
            stored.copy_from_slice(&rest[4 + len..frame]);
            let mut digest = Fnv128::new();
            digest.bytes(payload);
            if digest.finish() != u128::from_le_bytes(stored) {
                break;
            }
            match WalRecord::decode_payload(payload) {
                Ok(rec) => records.push(rec),
                Err(_) => break,
            }
            off += frame;
        }
        let complete = records.len();
        let mut log = DecisionLog { records };
        let resolved_intent = log.replay().in_flight_intent;
        if resolved_intent {
            log.append(WalRecord::Recovered {
                at_ns: now_ns,
                replayed: complete,
            });
        }
        WalRecovery {
            log,
            complete,
            torn_bytes: bytes.len() - off,
            resolved_intent,
        }
    }

    /// Replay the log front to back and report the consistent state it
    /// lands on. A crashed control plane calls this to re-learn which
    /// epoch is live (and, for a coordinator, who owns what under which
    /// fencing token) before touching the dataplane again.
    pub fn replay(&self) -> WalSummary {
        let mut s = WalSummary::default();
        for rec in &self.records {
            match rec {
                WalRecord::Intent { .. } => s.in_flight_intent = true,
                WalRecord::Committed {
                    epoch, rollback, ..
                } => {
                    s.committed_epoch = Some(*epoch);
                    s.in_flight_intent = false;
                    s.failures_since_commit = 0;
                    s.last_was_rollback = *rollback;
                }
                WalRecord::MigrationFailed { .. } => {
                    s.in_flight_intent = false;
                    s.failures_since_commit += 1;
                }
                WalRecord::Recovered { .. } => s.in_flight_intent = false,
                WalRecord::FleetGrant {
                    pop, chain, token, ..
                } => {
                    s.owners.insert(*chain, (*pop, *token));
                    s.fleet_shed.retain(|c| c != chain);
                }
                WalRecord::FleetRevoke { pop, chain, .. } => {
                    // Only the journaled owner's revocation clears the
                    // entry: a late revoke for a superseded grant is a
                    // no-op, exactly like a stale fencing token.
                    if s.owners.get(chain).map(|(p, _)| *p) == Some(*pop) {
                        s.owners.remove(chain);
                    }
                }
                WalRecord::FleetPopHealth { pop, health, .. } => {
                    s.pop_health.insert(*pop, *health);
                }
                WalRecord::FleetShed { chain, .. } => {
                    s.owners.remove(chain);
                    if let Err(at) = s.fleet_shed.binary_search(chain) {
                        s.fleet_shed.insert(at, *chain);
                    }
                }
                WalRecord::AdmissionControl { deny, .. } => s.admission_deny = *deny,
            }
        }
        s
    }

    /// The consistency invariant the soak asserts after every storm: each
    /// intent is resolved (committed, failed, or recovered past) — the
    /// log never ends mid-swap.
    pub fn is_consistent(&self) -> bool {
        !self.replay().in_flight_intent
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_log_is_boot_state() {
        let log = DecisionLog::new();
        assert!(log.is_empty());
        assert_eq!(log.replay(), WalSummary::default());
        assert!(log.is_consistent());
    }

    #[test]
    fn intent_then_commit_resolves() {
        let mut log = DecisionLog::new();
        log.append(WalRecord::Intent {
            at_ns: 100,
            rollback: false,
            shed: vec![1],
        });
        assert!(!log.is_consistent(), "dangling intent must be visible");
        log.append(WalRecord::Committed {
            at_ns: 300,
            epoch: 1,
            rollback: false,
        });
        let s = log.replay();
        assert!(log.is_consistent());
        assert_eq!(s.committed_epoch, Some(1));
        assert_eq!(s.failures_since_commit, 0);
    }

    #[test]
    fn failure_resolves_intent_without_advancing_epoch() {
        let mut log = DecisionLog::new();
        log.append(WalRecord::Intent {
            at_ns: 100,
            rollback: false,
            shed: vec![],
        });
        log.append(WalRecord::MigrationFailed {
            at_ns: 300,
            error: MigrationError::RestoreTimeout,
        });
        let s = log.replay();
        assert!(log.is_consistent());
        assert_eq!(s.committed_epoch, None, "aborted swap must not commit");
        assert_eq!(s.failures_since_commit, 1);
    }

    #[test]
    fn crash_recovery_replays_to_last_commit() -> Result<(), String> {
        let mut log = DecisionLog::new();
        log.append(WalRecord::Intent {
            at_ns: 100,
            rollback: false,
            shed: vec![],
        });
        log.append(WalRecord::Committed {
            at_ns: 300,
            epoch: 1,
            rollback: false,
        });
        log.append(WalRecord::Intent {
            at_ns: 900,
            rollback: false,
            shed: vec![],
        });
        log.append(WalRecord::MigrationFailed {
            at_ns: 1_100,
            error: MigrationError::ControlCrash,
        });
        let replayed = log.len();
        log.append(WalRecord::Recovered {
            at_ns: 1_100,
            replayed,
        });
        let s = log.replay();
        assert!(log.is_consistent());
        // The world the recovered control plane sees: epoch 1 live, one
        // failed attempt since.
        assert_eq!(s.committed_epoch, Some(1));
        assert_eq!(s.failures_since_commit, 1);
        let last = log.records().last().ok_or("replayed log lost its tail")?;
        assert_eq!(last.at_ns(), 1_100);
        Ok(())
    }

    #[test]
    fn commit_clears_failure_count() {
        let mut log = DecisionLog::new();
        for at in [10, 20] {
            log.append(WalRecord::Intent {
                at_ns: at,
                rollback: false,
                shed: vec![],
            });
            log.append(WalRecord::MigrationFailed {
                at_ns: at + 5,
                error: MigrationError::RestoreTimeout,
            });
        }
        assert_eq!(log.replay().failures_since_commit, 2);
        log.append(WalRecord::Intent {
            at_ns: 30,
            rollback: true,
            shed: vec![],
        });
        log.append(WalRecord::Committed {
            at_ns: 35,
            epoch: 1,
            rollback: true,
        });
        let s = log.replay();
        assert_eq!(s.failures_since_commit, 0);
        assert!(s.last_was_rollback);
    }

    fn fleet_log() -> DecisionLog {
        let mut log = DecisionLog::new();
        log.append(WalRecord::FleetGrant {
            at_ns: 10,
            pop: 0,
            chain: 0,
            token: 1,
        });
        log.append(WalRecord::FleetGrant {
            at_ns: 10,
            pop: 1,
            chain: 1,
            token: 1,
        });
        log.append(WalRecord::FleetPopHealth {
            at_ns: 500,
            pop: 1,
            health: PopHealth::Drained,
        });
        log.append(WalRecord::FleetRevoke {
            at_ns: 500,
            pop: 1,
            chain: 1,
            token: 1,
        });
        log.append(WalRecord::FleetGrant {
            at_ns: 600,
            pop: 0,
            chain: 1,
            token: 2,
        });
        log.append(WalRecord::FleetShed {
            at_ns: 700,
            chain: 2,
        });
        log
    }

    #[test]
    fn fleet_replay_tracks_ownership_health_and_shed() {
        let s = fleet_log().replay();
        assert_eq!(s.owners.get(&0), Some(&(0, 1)));
        assert_eq!(s.owners.get(&1), Some(&(0, 2)), "failover moved chain 1");
        assert_eq!(s.pop_health.get(&1), Some(&PopHealth::Drained));
        assert_eq!(s.fleet_shed, vec![2]);
        assert!(!s.in_flight_intent && s.committed_epoch.is_none());
    }

    #[test]
    fn stale_revoke_does_not_clear_newer_grant() {
        let mut log = fleet_log();
        // A delayed revoke from drained PoP 1 arrives after chain 1 was
        // re-granted to PoP 0: it must not clear the newer ownership.
        log.append(WalRecord::FleetRevoke {
            at_ns: 800,
            pop: 1,
            chain: 1,
            token: 1,
        });
        assert_eq!(log.replay().owners.get(&1), Some(&(0, 2)));
    }

    #[test]
    fn regrant_clears_fleet_shed() {
        let mut log = fleet_log();
        log.append(WalRecord::FleetGrant {
            at_ns: 900,
            pop: 0,
            chain: 2,
            token: 3,
        });
        let s = log.replay();
        assert!(s.fleet_shed.is_empty());
        assert_eq!(s.owners.get(&2), Some(&(0, 3)));
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Intent {
                at_ns: 1,
                rollback: false,
                shed: vec![3, 5],
            },
            WalRecord::Committed {
                at_ns: 2,
                epoch: 7,
                rollback: true,
            },
            WalRecord::MigrationFailed {
                at_ns: 3,
                error: MigrationError::Decode {
                    chain: 2,
                    node: NodeId(9),
                    replica: 1,
                    source: SnapshotError::ChecksumMismatch {
                        expected: u128::MAX - 5,
                        found: 42,
                    },
                },
            },
            WalRecord::MigrationFailed {
                at_ns: 4,
                error: MigrationError::StaleFencingToken {
                    chain: 1,
                    held: 8,
                    offered: 3,
                },
            },
            WalRecord::Recovered {
                at_ns: 5,
                replayed: 4,
            },
            WalRecord::FleetGrant {
                at_ns: 6,
                pop: 2,
                chain: 0,
                token: 11,
            },
            WalRecord::FleetPopHealth {
                at_ns: 7,
                pop: 2,
                health: PopHealth::Suspect,
            },
            WalRecord::FleetShed { at_ns: 8, chain: 4 },
            WalRecord::AdmissionControl {
                at_ns: 9,
                deny: true,
            },
        ]
    }

    #[test]
    fn admission_control_replays_to_last_flip() {
        let mut log = DecisionLog::new();
        log.append(WalRecord::AdmissionControl {
            at_ns: 10,
            deny: true,
        });
        assert!(log.replay().admission_deny);
        log.append(WalRecord::AdmissionControl {
            at_ns: 20,
            deny: false,
        });
        assert!(!log.replay().admission_deny);
        assert!(log.is_consistent(), "admission flips are not intents");
    }

    #[test]
    fn binary_round_trip_is_exact() {
        let mut log = DecisionLog::new();
        for rec in sample_records() {
            log.append(rec);
        }
        let image = log.encode();
        let rec = DecisionLog::recover(&image, 999);
        assert_eq!(rec.log, log);
        assert_eq!(rec.complete, log.len());
        assert_eq!(rec.torn_bytes, 0);
        assert!(!rec.resolved_intent);
    }

    #[test]
    fn torn_tail_recovers_to_last_complete_record() {
        let mut log = DecisionLog::new();
        log.append(WalRecord::Intent {
            at_ns: 1,
            rollback: false,
            shed: vec![],
        });
        log.append(WalRecord::Committed {
            at_ns: 2,
            epoch: 1,
            rollback: false,
        });
        log.append(WalRecord::Intent {
            at_ns: 3,
            rollback: false,
            shed: vec![9],
        });
        let image = log.encode();
        // Cut mid-way through the final record's frame.
        let cut = image.len() - 7;
        let rec = DecisionLog::recover(&image[..cut], 50);
        assert_eq!(rec.complete, 2, "only the complete prefix survives");
        assert!(rec.torn_bytes > 0);
        assert!(!rec.resolved_intent, "surviving prefix ends on a commit");
        assert!(rec.log.is_consistent());
        assert_eq!(rec.log.replay().committed_epoch, Some(1));
    }

    #[test]
    fn torn_tail_after_intent_synthesizes_recovered() {
        let mut log = DecisionLog::new();
        log.append(WalRecord::Intent {
            at_ns: 1,
            rollback: false,
            shed: vec![],
        });
        log.append(WalRecord::Committed {
            at_ns: 2,
            epoch: 1,
            rollback: false,
        });
        log.append(WalRecord::Intent {
            at_ns: 3,
            rollback: false,
            shed: vec![],
        });
        log.append(WalRecord::Committed {
            at_ns: 4,
            epoch: 2,
            rollback: false,
        });
        let image = log.encode();
        // Cut inside the final commit: the surviving prefix dangles an
        // intent, which recovery must resolve rather than error on.
        let rec = DecisionLog::recover(&image[..image.len() - 3], 77);
        assert_eq!(rec.complete, 3);
        assert!(rec.resolved_intent);
        assert!(rec.log.is_consistent());
        let s = rec.log.replay();
        assert_eq!(s.committed_epoch, Some(1), "epoch 2 never provably landed");
        assert_eq!(
            rec.log.records().last(),
            Some(&WalRecord::Recovered {
                at_ns: 77,
                replayed: 3
            })
        );
    }

    #[test]
    fn corrupt_byte_in_tail_is_discarded_by_digest() {
        let mut log = DecisionLog::new();
        log.append(WalRecord::Committed {
            at_ns: 2,
            epoch: 1,
            rollback: false,
        });
        log.append(WalRecord::FleetShed { at_ns: 9, chain: 1 });
        let mut image = log.encode();
        let n = image.len();
        image[n - 20] ^= 0x40; // flip a payload byte in the last frame
        let rec = DecisionLog::recover(&image, 0);
        assert_eq!(rec.complete, 1, "digest must reject the corrupt frame");
        assert_eq!(rec.log.replay().committed_epoch, Some(1));
    }
}
