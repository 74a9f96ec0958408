//! The server-segment runtime: one type, a packet at a time.
//!
//! A placed server subgroup is a maximal run of consecutive server NFs of
//! one chain, executed to completion on one core (§3.2): a packet passes
//! through every NF by reference — no copies, no queues, no cross-core
//! traffic — before the core takes the next one. [`NfRuntime`] is one
//! replica of such a run. It owns the name, the two packet counters and
//! the NFs, stored one of two ways:
//!
//! * **boxed** — `Box<dyn NetworkFunction>` per NF, the reference
//!   semantics: an indirect call per NF and a fresh header parse inside
//!   every classifying NF;
//! * **fused** — the same NF list enumerated into the static-dispatch
//!   [`FusedNf`] enum, with one [`FlowCache`] carried from NF to NF (at
//!   most one header parse per packet) and a per-flow memo over the
//!   longest run of tuple-pure classifiers.
//!
//! The bookkeeping (kinds, statefulness, snapshot and restore, state
//! fingerprints, aggregate updates, observables) is written once over the
//! `&dyn NetworkFunction` view either storage hands out. Only
//! [`NfRuntime::process_packet`] treats the storages differently, and
//! both of its arms fold verdicts through the same `fold`: `Forward`
//! continues, `Drop` drops, a terminal `Gate(g)` selects the exit gate, a
//! mid-run `Gate(g != 0)` drops. `crates/dataplane/tests/fused_equivalence.rs`
//! holds the two storages to identical reports, bytes and NF state.
//!
//! There is no batch entry point because no run can feed one: the engine
//! schedules every server arrival at a link station's completion time,
//! which is strictly increasing, so two packets never reach one server in
//! the same nanosecond (DESIGN.md "Server-segment runtime").
//!
//! Segment boundaries fall exactly where subgroup boundaries fall: at
//! platform crossings (ToR P4, SmartNIC eBPF, OpenFlow) and at branch
//! points, both of which bounce through NSH re-encapsulation. A segment
//! therefore never spans a platform crossing, which is also why the engine
//! can run either storage per subgroup without touching routing.

use lemur_nf::flowmap::FlowMap;
use lemur_nf::fused::{FlowCache, FusedNf};
use lemur_nf::{
    AggregateObservables, AggregateOutcome, AggregateUpdate, NetworkFunction, NfCtx, NfKind,
    NfSnapshot, SnapshotError, Verdict,
};
use lemur_packet::PacketBuf;

/// Classifier-memo capacity bound: when the per-flow table reaches this
/// many entries it is cleared wholesale (the next packets repopulate it).
/// A blunt policy, but correct for pure functions — re-running the
/// classifiers reproduces the evicted outcomes exactly.
const MEMO_CAP: usize = 65_536;

/// What a run of NFs decided for one packet. Also the classifier memo's
/// cache line: every NF in the memoized run is a pure function of the
/// 5-tuple (stateless, never writes the frame), so replaying the outcome
/// for later packets of the same flow is observationally identical to
/// re-running the NFs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    /// Every NF forwarded (mid-run `Gate(0)` counts as forward).
    Proceed,
    /// Some NF dropped, or gated mid-run onto a non-zero gate.
    Drop,
    /// The run ends the segment and its final NF chose this exit gate.
    Exit(usize),
}

/// One NF's verdict as the segment sees it. A branching verdict mid-run
/// means the meta-compiler put a `Match` in a non-terminal slot: gate 0
/// continues the run (all other traffic was already split upstream).
#[inline]
fn fold(verdict: Verdict, terminal: bool) -> Outcome {
    match verdict {
        Verdict::Forward => Outcome::Proceed,
        Verdict::Drop => Outcome::Drop,
        Verdict::Gate(g) if terminal => Outcome::Exit(g),
        Verdict::Gate(0) => Outcome::Proceed,
        Verdict::Gate(_) => Outcome::Drop,
    }
}

/// Run `nfs` — the NFs from index `first` of a segment whose final index is
/// `last` — until one of them settles the packet.
#[inline]
fn run<N>(
    nfs: &mut [N],
    first: usize,
    last: usize,
    mut process: impl FnMut(&mut N) -> Verdict,
) -> Outcome {
    for (off, nf) in nfs.iter_mut().enumerate() {
        match fold(process(nf), first + off == last) {
            Outcome::Proceed => {}
            settled => return settled,
        }
    }
    Outcome::Proceed
}

/// The per-flow folded outcome of a fused segment's longest contiguous run
/// of tuple-pure classifiers (a megaflow-style cache).
struct ClassifierMemo {
    /// The memoized NFs, `start..end`; at least two.
    span: std::ops::Range<usize>,
    outcomes: FlowMap<Outcome>,
}

impl ClassifierMemo {
    /// Memoize the longest contiguous run of tuple-pure NFs. Runs shorter
    /// than 2 are not worth the memo probe.
    fn over(nfs: &[FusedNf]) -> Option<ClassifierMemo> {
        let mut best = 0..0;
        let mut start = 0;
        for i in 0..=nfs.len() {
            if i < nfs.len() && nfs[i].tuple_pure() {
                continue;
            }
            if i - start > best.len() {
                best = start..i;
            }
            start = i + 1;
        }
        (best.len() >= 2).then(|| ClassifierMemo {
            span: best,
            outcomes: FlowMap::new(),
        })
    }

    /// Settle one packet over the span: probe the memo, on a miss run the
    /// span's NFs and memoize the folded outcome. Unparseable frames bypass
    /// the memo entirely (their verdicts may depend on bytes the tuple key
    /// cannot represent).
    #[inline]
    fn process(
        &mut self,
        nfs: &mut [FusedNf],
        ctx: &NfCtx,
        pkt: &mut PacketBuf,
        cache: &mut FlowCache,
    ) -> Outcome {
        let key = cache.tuple_hashed(pkt);
        if let Some((t, h)) = key {
            if let Some(o) = self.outcomes.get_hashed(h, &t) {
                return *o;
            }
        }
        let last = nfs.len() - 1;
        let outcome = run(&mut nfs[self.span.clone()], self.span.start, last, |nf| {
            nf.process_cached(ctx, pkt, cache)
        });
        if let Some((t, h)) = key {
            if self.outcomes.len() >= MEMO_CAP {
                self.outcomes.clear();
            }
            *self
                .outcomes
                .get_mut_or_insert_with_hashed(h, &t, || outcome) = outcome;
        }
        outcome
    }
}

/// How a segment holds its NFs. See the module docs.
enum Storage {
    Boxed(Vec<Box<dyn NetworkFunction>>),
    Fused(Vec<FusedNf>, Option<ClassifierMemo>),
}

/// One replica of a run-to-completion server segment. See the module docs.
pub struct NfRuntime {
    name: String,
    packets_in: u64,
    packets_dropped: u64,
    nfs: Storage,
}

impl NfRuntime {
    fn new(name: &str, nfs: Storage) -> NfRuntime {
        let rt = NfRuntime {
            name: name.to_string(),
            packets_in: 0,
            packets_dropped: 0,
            nfs,
        };
        assert!(!rt.is_empty(), "segment needs at least one NF");
        rt
    }

    /// Build from per-NF trait objects (must be non-empty) — the reference
    /// semantics.
    pub fn boxed(name: &str, nfs: Vec<Box<dyn NetworkFunction>>) -> NfRuntime {
        NfRuntime::new(name, Storage::Boxed(nfs))
    }

    /// Build from static-dispatch NF instances (must be non-empty).
    pub fn fused(name: &str, nfs: Vec<FusedNf>) -> NfRuntime {
        let memo = ClassifierMemo::over(&nfs);
        NfRuntime::new(name, Storage::Fused(nfs, memo))
    }

    /// True when this replica holds the fused storage.
    pub fn is_fused(&self) -> bool {
        matches!(self.nfs, Storage::Fused(..))
    }

    /// The segment's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of NFs in the segment.
    pub fn len(&self) -> usize {
        match &self.nfs {
            Storage::Boxed(nfs) => nfs.len(),
            Storage::Fused(nfs, _) => nfs.len(),
        }
    }

    /// True if the segment has no NFs (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn nf(&self, idx: usize) -> Option<&dyn NetworkFunction> {
        match &self.nfs {
            Storage::Boxed(nfs) => nfs.get(idx).map(|nf| &**nf),
            Storage::Fused(nfs, _) => nfs.get(idx).map(FusedNf::as_nf),
        }
    }

    fn nf_mut(&mut self, idx: usize) -> Option<&mut dyn NetworkFunction> {
        match &mut self.nfs {
            Storage::Boxed(nfs) => nfs.get_mut(idx).map(|nf| &mut **nf as _),
            Storage::Fused(nfs, _) => nfs.get_mut(idx).map(FusedNf::as_nf_mut),
        }
    }

    /// True if any member NF is stateful (non-replicable, §3.2).
    pub fn is_stateful(&self) -> bool {
        (0..self.len()).any(|idx| self.nf(idx).is_some_and(|nf| nf.is_stateful()))
    }

    /// Process one packet through the whole segment. Returns the exit gate
    /// or `None` if dropped.
    #[inline]
    pub fn process_packet(&mut self, ctx: &NfCtx, pkt: &mut PacketBuf) -> Option<usize> {
        self.packets_in += 1;
        let outcome = match &mut self.nfs {
            Storage::Boxed(nfs) => {
                let last = nfs.len() - 1;
                run(nfs, 0, last, |nf| nf.process(ctx, pkt))
            }
            Storage::Fused(nfs, memo) => {
                let mut cache = FlowCache::default();
                let last = nfs.len() - 1;
                let span = memo.as_ref().map_or(0..0, |m| m.span.clone());
                let mut outcome = run(&mut nfs[..span.start], 0, last, |nf| {
                    nf.process_cached(ctx, pkt, &mut cache)
                });
                if let (Outcome::Proceed, Some(memo)) = (outcome, memo) {
                    outcome = memo.process(nfs, ctx, pkt, &mut cache);
                }
                if outcome == Outcome::Proceed {
                    outcome = run(&mut nfs[span.end..], span.end, last, |nf| {
                        nf.process_cached(ctx, pkt, &mut cache)
                    });
                }
                outcome
            }
        };
        match outcome {
            Outcome::Exit(gate) => Some(gate),
            Outcome::Proceed => Some(0),
            Outcome::Drop => {
                self.packets_dropped += 1;
                None
            }
        }
    }

    /// Packets seen so far.
    pub fn packets_in(&self) -> u64 {
        self.packets_in
    }

    /// Packets dropped so far.
    pub fn packets_dropped(&self) -> u64 {
        self.packets_dropped
    }

    /// The kind of the NF at `idx`, if in range.
    pub fn nf_kind(&self, idx: usize) -> Option<NfKind> {
        self.nf(idx).map(|nf| nf.kind())
    }

    /// Snapshot the migratable state of the NF at `idx` (`None` if the NF
    /// exports none or `idx` is out of range).
    pub fn snapshot_nf(&self, idx: usize) -> Option<NfSnapshot> {
        self.nf(idx).and_then(|nf| nf.snapshot_state())
    }

    /// Restore a snapshot into the NF at `idx`. All-or-nothing: on `Err`
    /// the NF is unchanged. Drops the classifier memo — the memoized NFs
    /// are stateless, so this is purely defensive, but it keeps "memo
    /// matches current NF config" trivially invariant.
    pub fn restore_nf(&mut self, idx: usize, snapshot: &NfSnapshot) -> Result<(), SnapshotError> {
        self.nf_mut(idx)
            .ok_or(SnapshotError::Invalid("NF index out of range in segment"))?
            .restore_state(snapshot)?;
        if let Storage::Fused(_, Some(memo)) = &mut self.nfs {
            memo.outcomes.clear();
        }
        Ok(())
    }

    /// FNV-1a/128 state fingerprint of the NF at `idx` (0 when stateless
    /// or out of range).
    pub fn nf_state_fingerprint(&self, idx: usize) -> u128 {
        self.nf(idx).map_or(0, |nf| nf.state_fingerprint())
    }

    /// Apply one SLO window's analytic-tail mass to the NF at `idx`
    /// (hybrid engine); `None` when `idx` is out of range. The memo is
    /// untouched: memoized spans cover only tuple-pure NFs, which ignore
    /// aggregates by construction.
    pub fn apply_aggregate_nf(
        &mut self,
        idx: usize,
        update: &AggregateUpdate,
    ) -> Option<AggregateOutcome> {
        self.nf_mut(idx).map(|nf| nf.apply_aggregate(update))
    }

    /// Combined exact + tail observables of the NF at `idx`.
    pub fn nf_observables(&self, idx: usize) -> Option<AggregateObservables> {
        self.nf(idx).map(|nf| nf.observables())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lemur_nf::{build_nf, NfParams, ParamValue};
    use lemur_packet::builder::udp_packet;
    use lemur_packet::{ethernet, ipv4};

    fn pkt(dst: ipv4::Address, port: u16) -> PacketBuf {
        udp_packet(
            ethernet::Address([2, 0, 0, 0, 0, 1]),
            ethernet::Address([2, 0, 0, 0, 0, 2]),
            ipv4::Address::new(203, 0, 113, 1),
            dst,
            port,
            80,
            b"segment payload",
        )
    }

    fn acl_params(prefix: &str) -> NfParams {
        let mut params = NfParams::new();
        let mut d = std::collections::BTreeMap::new();
        d.insert("dst_ip".to_string(), ParamValue::Str(prefix.into()));
        d.insert("drop".to_string(), ParamValue::Bool(false));
        params.set("rules", ParamValue::List(vec![ParamValue::Dict(d)]));
        params
    }

    fn split_params(ways: i64) -> NfParams {
        let mut params = NfParams::new();
        params.set("split", ParamValue::Int(ways));
        params
    }

    /// The same NF list in both storages: `[boxed, fused]`.
    fn both_storages(name: &str, specs: &[(NfKind, NfParams)]) -> [NfRuntime; 2] {
        let boxed = NfRuntime::boxed(name, specs.iter().map(|(k, p)| build_nf(*k, p)).collect());
        let fused = NfRuntime::fused(
            name,
            specs.iter().map(|(k, p)| FusedNf::build(*k, p)).collect(),
        );
        assert!(!boxed.is_fused() && fused.is_fused());
        [boxed, fused]
    }

    #[test]
    fn mixed_stream_matches_reference_on_both_storages() {
        let specs = vec![
            (NfKind::Acl, acl_params("10.0.0.0/8")),
            (NfKind::Match, NfParams::new()),
            (NfKind::Monitor, NfParams::new()),
            (NfKind::Limiter, NfParams::new()),
        ];
        let [mut boxed, mut fused] = both_storages("mixed", &specs);
        // Two passes over the same flows: the second one is served from the
        // fused storage's ACL+Match memo.
        for round in 0..2u64 {
            let ctx = NfCtx {
                now_ns: 5_000 + round,
            };
            for i in 0..8u16 {
                // Half in-prefix (survive the ACL), half out (dropped
                // before the Monitor can count them).
                let in_prefix = i % 2 == 0;
                let first = if in_prefix { 10 } else { 99 };
                let mut a = pkt(ipv4::Address::new(first, 0, 0, (i + 1) as u8), 2000 + i);
                let mut b = a.clone();
                let verdict = boxed.process_packet(&ctx, &mut a);
                assert_eq!(verdict, in_prefix.then_some(0), "packet {i}");
                assert_eq!(verdict, fused.process_packet(&ctx, &mut b), "packet {i}");
                assert_eq!(a, b, "packet {i} bytes diverged");
            }
        }
        for rt in [&boxed, &fused] {
            assert_eq!(rt.len(), 4);
            assert_eq!(rt.packets_in(), 16);
            assert_eq!(rt.packets_dropped(), 8);
        }
        for idx in 0..specs.len() {
            assert_eq!(
                boxed.nf_state_fingerprint(idx),
                fused.nf_state_fingerprint(idx),
                "NF {idx} state diverged"
            );
        }
        let monitor = build_nf(NfKind::Monitor, &NfParams::new()).state_fingerprint();
        assert_ne!(
            fused.nf_state_fingerprint(2),
            monitor,
            "Monitor saw nothing"
        );
    }

    #[test]
    fn terminal_branch_gates_match_reference() {
        let specs = vec![
            (NfKind::Monitor, NfParams::new()),
            (NfKind::Match, split_params(3)),
        ];
        let [mut boxed, mut fused] = both_storages("brancher", &specs);
        let ctx = NfCtx::default();
        for port in 3000..3050u16 {
            let mut a = pkt(ipv4::Address::new(10, 0, 0, 7), port);
            let mut b = a.clone();
            assert_eq!(
                boxed.process_packet(&ctx, &mut a),
                fused.process_packet(&ctx, &mut b),
                "gate diverged for port {port}"
            );
            assert_eq!(a, b);
        }
    }

    #[test]
    fn terminal_match_reports_gate() {
        let specs = vec![
            (NfKind::Monitor, NfParams::new()),
            (NfKind::Match, split_params(3)),
        ];
        let ctx = NfCtx::default();
        for mut rt in both_storages("brancher", &specs) {
            let gates: std::collections::HashSet<usize> = (0..50u16)
                .map(|i| {
                    let mut p = pkt(ipv4::Address::new(10, 0, 0, 2), 1000 + i);
                    rt.process_packet(&ctx, &mut p).unwrap()
                })
                .collect();
            assert!(gates.len() >= 2, "split must use several gates: {gates:?}");
            assert!(gates.iter().all(|g| *g < 3));
        }
    }

    #[test]
    fn stateful_detection() {
        let acl = (NfKind::Acl, NfParams::new());
        let stateless = [acl.clone(), (NfKind::Ipv4Fwd, NfParams::new())];
        let stateful = [acl, (NfKind::Limiter, NfParams::new())];
        for rt in both_storages("s", &stateless) {
            assert!(!rt.is_stateful());
        }
        for rt in both_storages("t", &stateful) {
            assert!(rt.is_stateful());
        }
    }

    /// `bessgen` gives each replica a runtime built afresh from the same
    /// node specs: same configuration, no shared state.
    #[test]
    fn replicas_share_config_not_state() {
        let specs = [(NfKind::Monitor, NfParams::new())];
        let ctx = NfCtx::default();
        for (mut used, replica) in both_storages("m", &specs)
            .into_iter()
            .zip(both_storages("m", &specs))
        {
            let mut p = pkt(ipv4::Address::new(10, 0, 0, 1), 1111);
            used.process_packet(&ctx, &mut p);
            assert_eq!(used.packets_in(), 1);
            assert_eq!(replica.packets_in(), 0);
            assert_eq!(replica.len(), 1);
            assert_eq!(replica.name(), "m");
            assert_eq!(replica.nf_kind(0), used.nf_kind(0));
            assert_ne!(
                replica.nf_state_fingerprint(0),
                used.nf_state_fingerprint(0)
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one NF")]
    fn empty_segment_panics() {
        assert!(std::panic::catch_unwind(|| NfRuntime::fused("x", vec![])).is_err());
        NfRuntime::boxed("x", vec![]);
    }
}
