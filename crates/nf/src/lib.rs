//! # lemur-nf
//!
//! The software network-function library: Rust implementations of every NF
//! in the paper's Table 3, processing real packet bytes.
//!
//! Each NF implements [`NetworkFunction`]: a stateful object that processes
//! one packet at a time and returns a [`Verdict`]. Branching NFs (the BPF
//! `Match`) return `Verdict::Gate(n)` to select an output edge, mirroring
//! BESS output gates.
//!
//! | NF | Spec (Table 3) | Module |
//! |----|----------------|--------|
//! | Encrypt / Decrypt | 128-bit AES-CBC | [`encrypt`] |
//! | Fast Encrypt | ChaCha | [`encrypt`] |
//! | Dedup | Network redundancy elimination | [`dedup`] |
//! | Tunnel / Detunnel | push/pop VLAN tag | [`tunnel`] |
//! | IPv4Fwd | LPM forwarding | [`fwd`] |
//! | Limiter | token bucket | [`limiter`] |
//! | UrlFilter | HTML/URL keyword filter | [`urlfilter`] |
//! | Monitor | per-flow statistics | [`monitor`] |
//! | NAT | carrier-grade NAT | [`nat`] |
//! | LB | L4 load balancer | [`lb`] |
//! | Match | flexible BPF-style match | [`matchnf`] |
//! | ACL | src/dst field ACL | [`acl`] |

pub mod acl;
pub mod aggregate;
pub mod crypto;
pub mod dedup;
pub mod encrypt;
pub mod flowmap;
pub mod fused;
pub mod fwd;
pub mod lb;
pub mod limiter;
pub mod matchnf;
pub mod monitor;
pub mod nat;
pub mod params;
mod payload;
pub mod snapshot;
pub mod tunnel;
pub mod urlfilter;

pub use aggregate::{AggregateObservables, AggregateOutcome, AggregateUpdate};
pub use params::{NfParams, ParamValue};
pub use snapshot::{NfSnapshot, SnapshotError, SNAPSHOT_VERSION};

use lemur_packet::PacketBuf;
use std::fmt;
use std::str::FromStr;

/// The outcome of processing one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Pass the packet to the next NF (output gate 0).
    Forward,
    /// Drop the packet.
    Drop,
    /// Emit the packet on a specific output gate (branching NFs only).
    Gate(usize),
}

/// Per-packet processing context supplied by the execution engine.
#[derive(Debug, Clone, Copy, Default)]
pub struct NfCtx {
    /// Virtual time in nanoseconds (drives the Limiter's token refill and
    /// the Monitor/NAT idle timeouts).
    pub now_ns: u64,
}

/// A software network function.
///
/// NFs are deliberately synchronous and single-threaded: BESS replicates an
/// NF by instantiating it once per core, which is exactly what the
/// [`NetworkFunction::clone_fresh`] constructor supports.
pub trait NetworkFunction: Send {
    /// The NF kind (links the instance back to profiles and capabilities).
    fn kind(&self) -> NfKind;

    /// Process one packet, possibly mutating it.
    fn process(&mut self, ctx: &NfCtx, pkt: &mut PacketBuf) -> Verdict;

    /// True if the NF keeps cross-packet state that prevents naive
    /// replication (paper §3.2 "we do not replicate stateful NFs").
    fn is_stateful(&self) -> bool {
        false
    }

    /// Create a fresh instance with the same configuration but empty state
    /// (used when a subgroup is replicated across cores).
    fn clone_fresh(&self) -> Box<dyn NetworkFunction>;

    /// Export the NF's migratable cross-packet state as a versioned,
    /// checksummed snapshot. `None` (the default) means the kind keeps no
    /// state worth carrying across an epoch swap.
    fn snapshot_state(&self) -> Option<NfSnapshot> {
        None
    }

    /// Atomically replace this instance's state with a snapshot taken from
    /// another instance of the same kind. The snapshot is fully validated
    /// before any field is applied: on `Err` the instance is unchanged.
    fn restore_state(&mut self, snapshot: &NfSnapshot) -> Result<(), SnapshotError> {
        Err(SnapshotError::NoState(snapshot.kind))
    }

    /// FNV-1a/128 fingerprint of the current migratable state (0 when the
    /// NF exports none). Two instances with equal fingerprints are
    /// observationally identical on any future packet trace.
    fn state_fingerprint(&self) -> u128 {
        self.snapshot_state().map(|s| s.fingerprint()).unwrap_or(0)
    }

    /// Apply one SLO window's analytic tail traffic as a batched state
    /// update (hybrid flow/packet engine). The default passes the whole
    /// update through untouched — correct for every NF whose verdict
    /// never depends on cross-packet state. Stateful NFs override this to
    /// evolve their state (token drain, binding mass, affinity pins) and
    /// may admit fewer packets; the engine charges the difference to its
    /// drop ledger. Aggregate mass lives *outside* the snapshot wire
    /// format, so migration fidelity is unaffected.
    fn apply_aggregate(&mut self, update: &AggregateUpdate) -> AggregateOutcome {
        AggregateOutcome::pass(update)
    }

    /// Combined exact + aggregate state summary for cross-mode
    /// equivalence checks. The default (all zeros) means the NF tracks
    /// nothing the hybrid engine needs to compare.
    fn observables(&self) -> AggregateObservables {
        AggregateObservables::default()
    }
}

/// The 14 NF kinds of Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum NfKind {
    Encrypt,
    Decrypt,
    FastEncrypt,
    Dedup,
    Tunnel,
    Detunnel,
    Ipv4Fwd,
    Limiter,
    UrlFilter,
    Monitor,
    Nat,
    Lb,
    Match,
    Acl,
}

impl NfKind {
    /// Every kind, in Table 3 order.
    pub const ALL: [NfKind; 14] = [
        NfKind::Encrypt,
        NfKind::Decrypt,
        NfKind::FastEncrypt,
        NfKind::Dedup,
        NfKind::Tunnel,
        NfKind::Detunnel,
        NfKind::Ipv4Fwd,
        NfKind::Limiter,
        NfKind::UrlFilter,
        NfKind::Monitor,
        NfKind::Nat,
        NfKind::Lb,
        NfKind::Match,
        NfKind::Acl,
    ];

    /// The canonical spec-language name.
    pub fn name(&self) -> &'static str {
        match self {
            NfKind::Encrypt => "Encrypt",
            NfKind::Decrypt => "Decrypt",
            NfKind::FastEncrypt => "FastEncrypt",
            NfKind::Dedup => "Dedup",
            NfKind::Tunnel => "Tunnel",
            NfKind::Detunnel => "Detunnel",
            NfKind::Ipv4Fwd => "IPv4Fwd",
            NfKind::Limiter => "Limiter",
            NfKind::UrlFilter => "UrlFilter",
            NfKind::Monitor => "Monitor",
            NfKind::Nat => "NAT",
            NfKind::Lb => "LB",
            NfKind::Match => "BPF",
            NfKind::Acl => "ACL",
        }
    }
}

impl fmt::Display for NfKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error for unknown NF names in chain specifications.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownNf(pub String);

impl fmt::Display for UnknownNf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown NF name: {}", self.0)
    }
}

impl std::error::Error for UnknownNf {}

impl FromStr for NfKind {
    type Err = UnknownNf;

    fn from_str(s: &str) -> Result<NfKind, UnknownNf> {
        // Accept the spec names plus common aliases used in the paper text.
        Ok(match s {
            "Encrypt" | "Encryption" => NfKind::Encrypt,
            "Decrypt" | "Decryption" => NfKind::Decrypt,
            "FastEncrypt" | "FastEnc" | "ChaCha" => NfKind::FastEncrypt,
            "Dedup" => NfKind::Dedup,
            "Tunnel" => NfKind::Tunnel,
            "Detunnel" => NfKind::Detunnel,
            "IPv4Fwd" | "Ipv4Fwd" | "Forward" => NfKind::Ipv4Fwd,
            "Limiter" => NfKind::Limiter,
            "UrlFilter" | "URLFilter" => NfKind::UrlFilter,
            "Monitor" => NfKind::Monitor,
            "NAT" | "Nat" => NfKind::Nat,
            "LB" | "Lb" | "LoadBalancer" => NfKind::Lb,
            "BPF" | "Match" => NfKind::Match,
            "ACL" | "Acl" => NfKind::Acl,
            other => return Err(UnknownNf(other.to_string())),
        })
    }
}

/// Instantiate a software NF of the given kind with parameters from a chain
/// specification. Unknown parameters are ignored (forward compatibility);
/// malformed values fall back to defaults.
pub fn build_nf(kind: NfKind, params: &NfParams) -> Box<dyn NetworkFunction> {
    match kind {
        NfKind::Encrypt => Box::new(encrypt::Encrypt::from_params(params)),
        NfKind::Decrypt => Box::new(encrypt::Decrypt::from_params(params)),
        NfKind::FastEncrypt => Box::new(encrypt::FastEncrypt::from_params(params)),
        NfKind::Dedup => Box::new(dedup::Dedup::from_params(params)),
        NfKind::Tunnel => Box::new(tunnel::Tunnel::from_params(params)),
        NfKind::Detunnel => Box::new(tunnel::Detunnel::new()),
        NfKind::Ipv4Fwd => Box::new(fwd::Ipv4Fwd::from_params(params)),
        NfKind::Limiter => Box::new(limiter::Limiter::from_params(params)),
        NfKind::UrlFilter => Box::new(urlfilter::UrlFilter::from_params(params)),
        NfKind::Monitor => Box::new(monitor::Monitor::new()),
        NfKind::Nat => Box::new(nat::Nat::from_params(params)),
        NfKind::Lb => Box::new(lb::LoadBalancer::from_params(params)),
        NfKind::Match => Box::new(matchnf::Match::from_params(params)),
        NfKind::Acl => Box::new(acl::Acl::from_params(params)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip() {
        for kind in NfKind::ALL {
            let parsed: NfKind = kind.name().parse().unwrap();
            assert_eq!(parsed, kind);
        }
    }

    #[test]
    fn aliases_accepted() {
        assert_eq!("Encryption".parse::<NfKind>().unwrap(), NfKind::Encrypt);
        assert_eq!("ChaCha".parse::<NfKind>().unwrap(), NfKind::FastEncrypt);
        assert_eq!("Match".parse::<NfKind>().unwrap(), NfKind::Match);
    }

    #[test]
    fn unknown_rejected() {
        assert!("Quic".parse::<NfKind>().is_err());
    }

    #[test]
    fn factory_builds_all_kinds() {
        let params = NfParams::new();
        for kind in NfKind::ALL {
            let nf = build_nf(kind, &params);
            assert_eq!(nf.kind(), kind);
        }
    }

    #[test]
    fn stateful_flags_match_paper() {
        // Table 3 bolds Limiter and NAT as non-replicable; those are the
        // stateful NFs whose state cannot be partitioned by our runtime.
        let params = NfParams::new();
        assert!(build_nf(NfKind::Limiter, &params).is_stateful());
        assert!(build_nf(NfKind::Nat, &params).is_stateful());
        assert!(!build_nf(NfKind::Acl, &params).is_stateful());
        assert!(!build_nf(NfKind::Encrypt, &params).is_stateful());
        // Dedup and Monitor keep state but are replicable (per-flow sharded
        // by the demux); §5.3 replicates Dedup on two cores.
        assert!(!build_nf(NfKind::Dedup, &params).is_stateful());
    }
}
