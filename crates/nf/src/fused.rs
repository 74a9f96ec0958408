//! Static-dispatch NF enumeration for the fused dataplane.
//!
//! The reference runtime walks packets through `Box<dyn NetworkFunction>`
//! hops: one indirect call per NF per packet, plus each classifying NF
//! re-parsing the frame headers from scratch. [`FusedNf`] closes both
//! costs: every Table 3 kind is enumerated into one enum so the hot path
//! is a direct, inlinable `match` (no vtable), and [`FlowCache`] carries
//! the parsed 5-tuple from NF to NF so a chain segment parses each packet
//! at most once.
//!
//! ## Equivalence discipline
//!
//! The cached path must be bit-identical to `NetworkFunction::process`.
//! Two rules keep that true by construction:
//!
//! * NFs that consume the cached tuple (ACL, Monitor, BPF/Match, LB) share
//!   one post-parse implementation with their trait `process` — the fused
//!   path differs only in who performed the parse.
//! * After any NF that may rewrite bytes the parse depends on, the cache
//!   is invalidated ([`FusedNf::invalidates_flow`]). The table is
//!   conservative: only NFs proven to leave the 5-tuple fields untouched
//!   (IPv4Fwd rewrites the destination MAC only; Limiter never touches
//!   the frame) keep the cache warm.

use crate::flowmap::tuple_hash;
use crate::{
    acl, dedup, encrypt, fwd, lb, limiter, matchnf, monitor, nat, tunnel, urlfilter,
    NetworkFunction, NfCtx, NfKind, NfParams, Verdict,
};
use lemur_packet::flow::FiveTuple;
use lemur_packet::PacketBuf;

/// Cached result of parsing one packet's 5-tuple, carried across the NFs
/// of a fused segment. The tuple's [`tuple_hash`] is cached alongside it,
/// so every flow table the packet touches (classifier memo, Monitor)
/// probes with the same hash — parse once, hash once.
#[derive(Debug, Clone, Copy, Default)]
pub enum FlowCache {
    /// Not parsed yet (or invalidated by a mutating NF).
    #[default]
    Unknown,
    /// Parsed successfully; `(tuple, tuple_hash(tuple))`.
    Parsed(FiveTuple, u64),
    /// Parse failed; the frame is not classifiable IPv4 TCP/UDP.
    Unparseable,
}

impl FlowCache {
    /// Forget everything (new packet, or bytes changed).
    pub fn reset(&mut self) {
        *self = FlowCache::Unknown;
    }

    /// The packet's 5-tuple, parsing on first use.
    pub fn tuple(&mut self, pkt: &PacketBuf) -> Option<FiveTuple> {
        self.tuple_hashed(pkt).map(|(t, _)| t)
    }

    /// The packet's 5-tuple plus its [`tuple_hash`], parsing and hashing
    /// on first use.
    #[inline]
    pub fn tuple_hashed(&mut self, pkt: &PacketBuf) -> Option<(FiveTuple, u64)> {
        match self {
            FlowCache::Parsed(t, h) => Some((*t, *h)),
            FlowCache::Unparseable => None,
            FlowCache::Unknown => match FiveTuple::parse(pkt.as_slice()) {
                Ok(t) => {
                    let h = tuple_hash(&t);
                    *self = FlowCache::Parsed(t, h);
                    Some((t, h))
                }
                Err(_) => {
                    *self = FlowCache::Unparseable;
                    None
                }
            },
        }
    }
}

/// One concrete NF, statically dispatched. See the module docs.
pub enum FusedNf {
    Encrypt(encrypt::Encrypt),
    Decrypt(encrypt::Decrypt),
    FastEncrypt(encrypt::FastEncrypt),
    Dedup(dedup::Dedup),
    Tunnel(tunnel::Tunnel),
    Detunnel(tunnel::Detunnel),
    Ipv4Fwd(fwd::Ipv4Fwd),
    Limiter(limiter::Limiter),
    UrlFilter(urlfilter::UrlFilter),
    Monitor(monitor::Monitor),
    Nat(nat::Nat),
    Lb(lb::LoadBalancer),
    Match(matchnf::Match),
    Acl(acl::Acl),
}

impl FusedNf {
    /// Instantiate from a chain-spec kind + parameters (the static-dispatch
    /// counterpart of [`crate::build_nf`]).
    pub fn build(kind: NfKind, params: &NfParams) -> FusedNf {
        match kind {
            NfKind::Encrypt => FusedNf::Encrypt(encrypt::Encrypt::from_params(params)),
            NfKind::Decrypt => FusedNf::Decrypt(encrypt::Decrypt::from_params(params)),
            NfKind::FastEncrypt => FusedNf::FastEncrypt(encrypt::FastEncrypt::from_params(params)),
            NfKind::Dedup => FusedNf::Dedup(dedup::Dedup::from_params(params)),
            NfKind::Tunnel => FusedNf::Tunnel(tunnel::Tunnel::from_params(params)),
            NfKind::Detunnel => FusedNf::Detunnel(tunnel::Detunnel::new()),
            NfKind::Ipv4Fwd => FusedNf::Ipv4Fwd(fwd::Ipv4Fwd::from_params(params)),
            NfKind::Limiter => FusedNf::Limiter(limiter::Limiter::from_params(params)),
            NfKind::UrlFilter => FusedNf::UrlFilter(urlfilter::UrlFilter::from_params(params)),
            NfKind::Monitor => FusedNf::Monitor(monitor::Monitor::new()),
            NfKind::Nat => FusedNf::Nat(nat::Nat::from_params(params)),
            NfKind::Lb => FusedNf::Lb(lb::LoadBalancer::from_params(params)),
            NfKind::Match => FusedNf::Match(matchnf::Match::from_params(params)),
            NfKind::Acl => FusedNf::Acl(acl::Acl::from_params(params)),
        }
    }

    /// True if processing may rewrite bytes the 5-tuple parse depends on,
    /// so any cached parse of the packet must be discarded afterwards.
    /// Conservative: only kinds proven tuple-preserving return false.
    pub fn invalidates_flow(&self) -> bool {
        match self {
            // Rewrites the destination MAC only; addresses/ports/protocol
            // and all header offsets are untouched.
            FusedNf::Ipv4Fwd(_) => false,
            // Never touches the frame.
            FusedNf::Limiter(_) => false,
            // Pure classifiers.
            FusedNf::Acl(_) | FusedNf::Monitor(_) | FusedNf::Match(_) => false,
            // Everything else may encapsulate, rewrite, or transform.
            _ => true,
        }
    }

    /// True if this NF's verdict is a pure function of the packet's
    /// 5-tuple: stateless, no frame mutation, and no inspection of bytes
    /// beyond what [`FiveTuple::parse`] reads. The fused segment memoizes
    /// contiguous runs of such NFs per flow (the megaflow-cache fast
    /// path) — skipping them cannot change state fingerprints (they hold
    /// no state) or bytes (they never write).
    pub fn tuple_pure(&self) -> bool {
        match self {
            // ACL rules are fixed at build time and match on the tuple.
            FusedNf::Acl(_) => true,
            // Match entries may filter on the VLAN tag (frame bytes the
            // tuple does not capture); only VLAN-free entry sets are pure.
            FusedNf::Match(x) => x.is_tuple_pure(),
            _ => false,
        }
    }

    /// Process one packet, statically dispatched (no vtable).
    #[inline]
    pub fn process(&mut self, ctx: &NfCtx, pkt: &mut PacketBuf) -> Verdict {
        match self {
            FusedNf::Encrypt(x) => x.process(ctx, pkt),
            FusedNf::Decrypt(x) => x.process(ctx, pkt),
            FusedNf::FastEncrypt(x) => x.process(ctx, pkt),
            FusedNf::Dedup(x) => x.process(ctx, pkt),
            FusedNf::Tunnel(x) => x.process(ctx, pkt),
            FusedNf::Detunnel(x) => x.process(ctx, pkt),
            FusedNf::Ipv4Fwd(x) => x.process(ctx, pkt),
            FusedNf::Limiter(x) => x.process(ctx, pkt),
            FusedNf::UrlFilter(x) => x.process(ctx, pkt),
            FusedNf::Monitor(x) => x.process(ctx, pkt),
            FusedNf::Nat(x) => x.process(ctx, pkt),
            FusedNf::Lb(x) => x.process(ctx, pkt),
            FusedNf::Match(x) => x.process(ctx, pkt),
            FusedNf::Acl(x) => x.process(ctx, pkt),
        }
    }

    /// Process one packet with a shared parse cache: classifiers consume
    /// the cached tuple instead of re-parsing; mutating NFs run their own
    /// parse (they inspect more than the 5-tuple) and then invalidate.
    #[inline]
    pub fn process_cached(
        &mut self,
        ctx: &NfCtx,
        pkt: &mut PacketBuf,
        cache: &mut FlowCache,
    ) -> Verdict {
        match self {
            FusedNf::Acl(x) => x.verdict_for(cache.tuple(pkt).as_ref()),
            FusedNf::Monitor(x) => {
                let len = pkt.len() as u64;
                match cache.tuple_hashed(pkt) {
                    Some((t, h)) => x.record_hashed(ctx.now_ns, len, &t, h),
                    None => x.record(ctx.now_ns, len, None),
                }
                Verdict::Forward
            }
            FusedNf::Match(x) => {
                let tuple = cache.tuple(pkt);
                x.classify(pkt, tuple.as_ref())
            }
            FusedNf::Lb(x) => {
                let tuple = cache.tuple(pkt);
                let v = x.steer(pkt, tuple.as_ref());
                cache.reset();
                v
            }
            other => {
                let v = other.process(ctx, pkt);
                if other.invalidates_flow() {
                    cache.reset();
                }
                v
            }
        }
    }

    /// The NF as a trait object, for cold paths (snapshots, fingerprints).
    pub fn as_nf(&self) -> &dyn NetworkFunction {
        match self {
            FusedNf::Encrypt(x) => x,
            FusedNf::Decrypt(x) => x,
            FusedNf::FastEncrypt(x) => x,
            FusedNf::Dedup(x) => x,
            FusedNf::Tunnel(x) => x,
            FusedNf::Detunnel(x) => x,
            FusedNf::Ipv4Fwd(x) => x,
            FusedNf::Limiter(x) => x,
            FusedNf::UrlFilter(x) => x,
            FusedNf::Monitor(x) => x,
            FusedNf::Nat(x) => x,
            FusedNf::Lb(x) => x,
            FusedNf::Match(x) => x,
            FusedNf::Acl(x) => x,
        }
    }

    /// Mutable trait-object view, for cold paths (restore).
    pub fn as_nf_mut(&mut self) -> &mut dyn NetworkFunction {
        match self {
            FusedNf::Encrypt(x) => x,
            FusedNf::Decrypt(x) => x,
            FusedNf::FastEncrypt(x) => x,
            FusedNf::Dedup(x) => x,
            FusedNf::Tunnel(x) => x,
            FusedNf::Detunnel(x) => x,
            FusedNf::Ipv4Fwd(x) => x,
            FusedNf::Limiter(x) => x,
            FusedNf::UrlFilter(x) => x,
            FusedNf::Monitor(x) => x,
            FusedNf::Nat(x) => x,
            FusedNf::Lb(x) => x,
            FusedNf::Match(x) => x,
            FusedNf::Acl(x) => x,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build_nf;
    use lemur_packet::builder::udp_packet;
    use lemur_packet::{ethernet, ipv4};

    fn pkt(dst: ipv4::Address, src_port: u16) -> PacketBuf {
        udp_packet(
            ethernet::Address([2, 0, 0, 0, 0, 1]),
            ethernet::Address([2, 0, 0, 0, 0, 2]),
            ipv4::Address::new(10, 0, 0, 1),
            dst,
            src_port,
            80,
            b"fused payload",
        )
    }

    #[test]
    fn build_covers_all_kinds() {
        let params = NfParams::new();
        for kind in NfKind::ALL {
            let f = FusedNf::build(kind, &params);
            assert_eq!(f.as_nf().kind(), kind);
        }
    }

    #[test]
    fn cached_process_matches_boxed_for_every_kind() {
        // Same packet stream through FusedNf::process_cached (fresh cache
        // per packet) and through the boxed trait object: identical
        // verdicts, bytes, and state fingerprints.
        let params = NfParams::new();
        let ctx = NfCtx { now_ns: 1_000 };
        for kind in NfKind::ALL {
            let mut fused = FusedNf::build(kind, &params);
            let mut boxed = build_nf(kind, &params);
            for i in 0..32u16 {
                let mut a = pkt(ipv4::Address::new(10, 0, (i % 4) as u8, 9), 4000 + i);
                let mut b = a.clone();
                let mut cache = FlowCache::default();
                let va = fused.process_cached(&ctx, &mut a, &mut cache);
                let vb = boxed.process(&ctx, &mut b);
                assert_eq!(va, vb, "{kind} verdict diverged");
                assert_eq!(a, b, "{kind} bytes diverged");
            }
            assert_eq!(
                fused.as_nf().state_fingerprint(),
                boxed.state_fingerprint(),
                "{kind} state diverged"
            );
        }
    }

    #[test]
    fn cache_survives_pure_classifiers_and_resets_after_mutators() {
        let params = NfParams::new();
        let ctx = NfCtx::default();
        let mut p = pkt(ipv4::Address::new(10, 0, 0, 2), 1234);
        let mut cache = FlowCache::default();
        let mut acl = FusedNf::build(NfKind::Acl, &params);
        acl.process_cached(&ctx, &mut p, &mut cache);
        assert!(matches!(cache, FlowCache::Parsed(..)));
        let mut nat = FusedNf::build(NfKind::Nat, &params);
        nat.process_cached(&ctx, &mut p, &mut cache);
        assert!(matches!(cache, FlowCache::Unknown));
        // After invalidation the next classifier re-parses the (rewritten)
        // frame and still agrees with a from-scratch parse.
        let mut mon = FusedNf::build(NfKind::Monitor, &params);
        mon.process_cached(&ctx, &mut p, &mut cache);
        if let FlowCache::Parsed(t, _) = cache {
            assert_eq!(t, FiveTuple::parse(p.as_slice()).unwrap());
        }
    }
}
