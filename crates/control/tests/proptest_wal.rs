//! Property-based tests for the decision log's durable form, its binary
//! journal image.
//!
//! Two families: (1) the round-trip is exact for arbitrary record mixes
//! (including fleet records and every migration/snapshot error shape), and
//! (2) an image cut or corrupted at an arbitrary point always recovers —
//! to the longest complete prefix, consistently, with any dangling intent
//! resolved — and never errors.

use lemur_control::wal::{DecisionLog, PopHealth, WalRecord};
use lemur_core::graph::NodeId;
use lemur_dataplane::MigrationError;
use lemur_nf::snapshot::SnapshotError;
use lemur_nf::NfKind;
use proptest::prelude::*;

/// Raw fuzz tuple → one WAL record. Every variant (and nested error
/// shape) is reachable, so round-trips cover the full wire grammar.
fn record_from(raw: (u8, u64, u64, u64, u64)) -> WalRecord {
    let (tag, a, b, c, d) = raw;
    match tag % 8 {
        0 => WalRecord::Intent {
            at_ns: a,
            rollback: b % 2 == 1,
            shed: vec![(c % 64) as usize, (d % 64) as usize],
        },
        1 => WalRecord::Committed {
            at_ns: a,
            epoch: b,
            rollback: c % 2 == 1,
        },
        2 => WalRecord::MigrationFailed {
            at_ns: a,
            error: migration_error_from(b, c, d),
        },
        3 => WalRecord::Recovered {
            at_ns: a,
            replayed: (b % 1_000) as usize,
        },
        4 => WalRecord::FleetGrant {
            at_ns: a,
            pop: (b % 8) as usize,
            chain: (c % 64) as usize,
            token: d,
        },
        5 => WalRecord::FleetRevoke {
            at_ns: a,
            pop: (b % 8) as usize,
            chain: (c % 64) as usize,
            token: d,
        },
        6 => WalRecord::FleetPopHealth {
            at_ns: a,
            pop: (b % 8) as usize,
            health: PopHealth::ALL[(c % 4) as usize],
        },
        _ => WalRecord::FleetShed {
            at_ns: a,
            chain: (b % 64) as usize,
        },
    }
}

fn migration_error_from(b: u64, c: u64, d: u64) -> MigrationError {
    match b % 7 {
        0 => MigrationError::Decode {
            chain: (c % 64) as usize,
            node: NodeId((d % 256) as usize),
            replica: (c % 4) as usize,
            source: snapshot_error_from(c, d),
        },
        1 => MigrationError::FingerprintMismatch {
            chain: (c % 64) as usize,
            node: NodeId((d % 256) as usize),
            replica: (d % 4) as usize,
        },
        2 => MigrationError::Truncated {
            expected: (c % 1_000) as usize,
            got: (d % 1_000) as usize,
        },
        3 => MigrationError::ControlCrash,
        4 => MigrationError::RestoreTimeout,
        5 => MigrationError::StaleFencingToken {
            chain: (c % 64) as usize,
            held: c,
            offered: d,
        },
        _ => MigrationError::SiteUnreachable {
            site: (c % 8) as usize,
        },
    }
}

fn snapshot_error_from(c: u64, d: u64) -> SnapshotError {
    match d % 7 {
        0 => SnapshotError::Truncated {
            need: (c % 10_000) as usize,
            have: (d % 10_000) as usize,
        },
        1 => SnapshotError::BadMagic(c as u32),
        2 => SnapshotError::UnsupportedVersion(c as u16),
        3 => SnapshotError::ChecksumMismatch {
            expected: ((c as u128) << 64) | d as u128,
            found: d as u128,
        },
        4 => SnapshotError::KindMismatch {
            expected: NfKind::ALL[(c % 14) as usize],
            found: NfKind::ALL[(d % 14) as usize],
        },
        // The decoder restores `Invalid` by interning against the known
        // message set, so only real messages round-trip exactly.
        5 => SnapshotError::Invalid(if c.is_multiple_of(2) {
            "NAT port pool is empty"
        } else {
            "duplicate Dedup fingerprint"
        }),
        _ => SnapshotError::NoState(NfKind::ALL[(c % 14) as usize]),
    }
}

fn log_from(raws: Vec<(u8, u64, u64, u64, u64)>) -> DecisionLog {
    let mut log = DecisionLog::new();
    for raw in raws {
        log.append(record_from(raw));
    }
    log
}

proptest! {
    /// Binary round-trip of an untruncated image is exact: every record
    /// survives, nothing is torn, and no recovery record is invented
    /// unless the log really ended mid-swap.
    #[test]
    fn binary_round_trip(
        raws in prop::collection::vec(
            (0u8..8, 0u64..1_000_000, 0u64..1_000, 0u64..1_000, 0u64..1_000), 0..12),
    ) {
        let log = log_from(raws);
        let rec = DecisionLog::recover(&log.encode(), 42);
        prop_assert_eq!(rec.complete, log.len());
        prop_assert_eq!(rec.torn_bytes, 0);
        prop_assert_eq!(&rec.log.records()[..rec.complete], log.records());
        prop_assert_eq!(rec.resolved_intent, !log.is_consistent());
        prop_assert!(rec.log.is_consistent());
    }

    /// A journal cut at an arbitrary byte recovers to exactly the records
    /// whose frames fit before the cut, replays to the last complete
    /// decision, and never errors or dangles an intent.
    #[test]
    fn torn_tail_recovers_to_last_complete_decision(
        raws in prop::collection::vec(
            (0u8..8, 0u64..1_000_000, 0u64..1_000, 0u64..1_000, 0u64..1_000), 1..12),
        cut_seed in 0usize..100_000,
    ) {
        let log = log_from(raws);
        let image = log.encode();
        let cut = cut_seed % (image.len() + 1);
        let rec = DecisionLog::recover(&image[..cut], 7);

        // The survivor count is exactly the frames wholly inside the cut.
        let mut fit = 0usize;
        let mut off = 0usize;
        for r in log.records() {
            off += r.encode().len();
            if off <= cut {
                fit += 1;
            } else {
                break;
            }
        }
        prop_assert_eq!(rec.complete, fit);
        let consumed: usize = log.records()[..fit].iter().map(|r| r.encode().len()).sum();
        prop_assert_eq!(rec.torn_bytes, cut - consumed);
        prop_assert_eq!(&rec.log.records()[..fit], &log.records()[..fit]);

        // Replay of the recovered log matches replay of the true prefix,
        // modulo the synthesized resolution of a dangling intent.
        let mut prefix = DecisionLog::new();
        for r in &log.records()[..fit] {
            prefix.append(r.clone());
        }
        prop_assert!(rec.log.is_consistent(), "recovery must never dangle an intent");
        let got = rec.log.replay();
        let want = prefix.replay();
        prop_assert_eq!(got.committed_epoch, want.committed_epoch);
        prop_assert_eq!(got.owners, want.owners);
        prop_assert_eq!(got.fleet_shed, want.fleet_shed);
        prop_assert_eq!(rec.resolved_intent, want.in_flight_intent);
    }

    /// A single flipped byte anywhere in the image never panics the
    /// recovery and never yields an inconsistent log.
    #[test]
    fn corrupt_byte_never_breaks_recovery(
        raws in prop::collection::vec(
            (0u8..8, 0u64..1_000_000, 0u64..1_000, 0u64..1_000, 0u64..1_000), 1..10),
        pos_seed in 0usize..100_000,
        mask in 1u8..=255,
    ) {
        let log = log_from(raws);
        let mut image = log.encode();
        let pos = pos_seed % image.len();
        image[pos] ^= mask;
        let rec = DecisionLog::recover(&image, 3);
        prop_assert!(rec.complete <= log.len());
        prop_assert!(rec.log.is_consistent());
    }
}
