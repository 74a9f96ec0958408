//! Everything a run counts: the packets in flight and the counters its
//! [`SimReport`] is built from.

use crate::report::{
    ChainStats, ConservationLedger, DropReason, SimReport, TimelineEvent, WindowSample,
};
use lemur_packet::PacketBuf;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

pub(super) struct SimPacket {
    pub(super) buf: PacketBuf,
    pub(super) chain: usize,
    pub(super) t_in: u64,
    pub(super) ingress_bits: u64,
    pub(super) hops: u8,
}

/// Multiplicative (Fibonacci) hash for the sequential packet ids: one
/// multiply spreads consecutive ids over the table's buckets and control
/// bytes. Ids are minted by the engine, never read from input, so there
/// is no collision attack for SipHash to defend against.
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, id: u64) {
        self.0 = (self.0 ^ id).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

/// The packets in flight, by id. An event whose packet is gone (dropped
/// at an epoch swap) simply misses here; ids are never reused, so a
/// stale event cannot find somebody else's packet.
#[derive(Default)]
pub(super) struct PacketTable {
    by_id: HashMap<u64, SimPacket, BuildHasherDefault<IdHasher>>,
}

impl PacketTable {
    #[inline]
    pub(super) fn insert(&mut self, id: u64, packet: SimPacket) {
        self.by_id.insert(id, packet);
    }

    #[inline]
    pub(super) fn get(&self, id: u64) -> Option<&SimPacket> {
        self.by_id.get(&id)
    }

    #[inline]
    pub(super) fn get_mut(&mut self, id: u64) -> Option<&mut SimPacket> {
        self.by_id.get_mut(&id)
    }

    #[inline]
    pub(super) fn remove(&mut self, id: u64) -> Option<SimPacket> {
        self.by_id.remove(&id)
    }

    pub(super) fn len(&self) -> usize {
        self.by_id.len()
    }

    /// Every in-flight id, ascending — the deterministic order an epoch
    /// swap charges its update-time loss in.
    pub(super) fn sorted_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.by_id.keys().copied().collect();
        ids.sort_unstable();
        ids
    }
}

/// Per-chain accumulator for one SLO-guard window.
#[derive(Debug, Default, Clone)]
pub(super) struct WindowAcc {
    pub(super) bits: f64,
    pub(super) packets: u64,
    pub(super) drops: u64,
    pub(super) lat_sum: f64,
    /// Deliveries that contributed to `lat_sum` — the packet path plus,
    /// when the fluid queue is active, analytic-tail mass served through
    /// it (its Little's-law waiting time lands in `lat_sum`).
    pub(super) lat_packets: u64,
    /// Arrivals before any shed/admission/capacity decision: heavy-path
    /// injects plus analytic-tail mass.
    pub(super) arrivals: u64,
    /// DDoS-flagged analytic-tail arrivals (0 in packet-level runs).
    pub(super) junk: u64,
}

/// One run's books. The ledger counts every packet, always; per-chain
/// stats and the open guard window count only what is *measured* — a
/// packet whose time falls in `[warm-up, horizon)`. A delivery's time is
/// its egress (so measured throughput is a true rate even before queues
/// reach steady state); a drop's is its injection.
pub(super) struct Accounts {
    pub(super) packets: PacketTable,
    /// Id of the next admitted packet. Ids count up from 1 (admission
    /// order breaks ties at equal times); id 0 is reserved for faults,
    /// ticks and swaps.
    next_id: u64,
    stats: Vec<ChainStats>,
    /// Latency numerators and denominators, kept apart from delivered
    /// counts: analytic-tail deliveries add packets but no latency
    /// samples, and must not dilute the mean.
    latency_sum: Vec<f64>,
    latency_packets: Vec<u64>,
    /// The open guard window, per chain.
    pub(super) window: Vec<WindowAcc>,
    pub(super) ledger: ConservationLedger,
    pub(super) timeline: Vec<TimelineEvent>,
    warmup_ns: u64,
    horizon_ns: u64,
}

impl Accounts {
    pub(super) fn new(offered_bps: &[f64], warmup_ns: u64, horizon_ns: u64) -> Accounts {
        let n = offered_bps.len();
        Accounts {
            packets: PacketTable::default(),
            next_id: 1,
            stats: offered_bps
                .iter()
                .map(|&o| ChainStats {
                    offered_bps: o,
                    ..Default::default()
                })
                .collect(),
            latency_sum: vec![0.0; n],
            latency_packets: vec![0; n],
            window: vec![WindowAcc::default(); n],
            ledger: ConservationLedger::default(),
            timeline: Vec::new(),
            warmup_ns,
            horizon_ns,
        }
    }

    /// Is virtual time `t` inside the measured span `[warm-up, horizon)`?
    #[inline]
    pub(super) fn measured(&self, t: u64) -> bool {
        t >= self.warmup_ns && t < self.horizon_ns
    }

    /// `packets` arrived on `chain` (`junk` of them DDoS-flagged), before
    /// any admission decision.
    #[inline]
    pub(super) fn arrive(&mut self, chain: usize, packets: u64, junk: u64, measured: bool) {
        self.ledger.injected += packets;
        if measured {
            let w = &mut self.window[chain];
            w.arrivals += packets;
            w.junk += junk;
        }
    }

    /// Put an arrived frame in flight; returns its id.
    #[inline]
    pub(super) fn admit(&mut self, chain: usize, now: u64, buf: PacketBuf) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        let packet = SimPacket {
            ingress_bits: buf.len() as u64 * 8,
            buf,
            chain,
            t_in: now,
            hops: 0,
        };
        self.packets.insert(id, packet);
        id
    }

    /// Drop in-flight packet `id` (a no-op if it is already gone).
    #[inline]
    pub(super) fn drop(&mut self, id: u64, reason: DropReason) {
        if let Some(p) = self.packets.remove(id) {
            let measured = self.measured(p.t_in);
            self.drop_mass(p.chain, reason, 1, measured);
        }
    }

    /// Drop `n` packets of `chain` that never got an id: shed injects and
    /// analytic-tail mass.
    #[inline]
    pub(super) fn drop_mass(&mut self, chain: usize, reason: DropReason, n: u64, measured: bool) {
        self.ledger.record_drops(reason, n);
        if measured {
            self.stats[chain].record_drops(reason, n);
            self.window[chain].drops += n;
        }
    }

    /// In-flight packet `id` left the ToR at `now` (a no-op if it is
    /// already gone).
    #[inline]
    pub(super) fn deliver(&mut self, id: u64, now: u64) {
        let Some(p) = self.packets.remove(id) else {
            return;
        };
        self.ledger.delivered += 1;
        if self.measured(now) {
            let s = &mut self.stats[p.chain];
            s.delivered_packets += 1;
            s.delivered_bps += p.ingress_bits as f64; // a rate after `finish`
            let lat = (now - p.t_in) as f64;
            self.latency_sum[p.chain] += lat;
            self.latency_packets[p.chain] += 1;
            s.max_latency_ns = s.max_latency_ns.max(lat);
            let w = &mut self.window[p.chain];
            w.bits += p.ingress_bits as f64;
            w.packets += 1;
            w.lat_sum += lat;
            w.lat_packets += 1;
        }
    }

    /// `packets` frames of `frame` bytes of `chain`'s analytic tail made
    /// it through; they carry no latency sample.
    #[inline]
    pub(super) fn deliver_mass(&mut self, chain: usize, packets: u64, frame: u64, measured: bool) {
        self.ledger.delivered += packets;
        if measured && packets > 0 {
            let bits = (packets * frame * 8) as f64;
            let s = &mut self.stats[chain];
            s.delivered_packets += packets;
            s.delivered_bps += bits;
            let w = &mut self.window[chain];
            w.bits += bits;
            w.packets += packets;
        }
    }

    /// Close the books: whatever is still in flight — packets plus
    /// `backlog`, the tail's undrained fluid queue — balances the ledger,
    /// and the chain totals become rates and means over `duration_s`.
    pub(super) fn finish(
        mut self,
        backlog: u64,
        duration_s: f64,
        windows: Vec<WindowSample>,
    ) -> SimReport {
        self.ledger.in_flight_at_end = self.packets.len() as u64 + backlog;
        // The latency mean divides by the count of *latency-carrying*
        // deliveries (identical to delivered_packets in pure packet-level
        // runs).
        for (ci, s) in self.stats.iter_mut().enumerate() {
            s.delivered_bps /= duration_s;
            if self.latency_packets[ci] > 0 {
                s.mean_latency_ns = self.latency_sum[ci] / self.latency_packets[ci] as f64;
            }
        }
        SimReport {
            per_chain: self.stats,
            duration_s,
            timeline: self.timeline,
            windows,
            ledger: self.ledger,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const WARMUP: u64 = 1_000;
    const HORIZON: u64 = 10_000;

    fn books() -> Accounts {
        Accounts::new(&[1e9], WARMUP, HORIZON)
    }

    fn frame() -> PacketBuf {
        PacketBuf::zeroed(64)
    }

    /// A packet injected during warm-up and dropped once measurement has
    /// started counts in the ledger only: drops go by injection time.
    #[test]
    fn warmup_inject_dropped_later_counts_in_the_ledger_only() {
        let mut acct = books();
        let id = acct.admit(0, WARMUP - 1, frame());
        acct.drop(id, DropReason::Fault);
        acct.drop(id, DropReason::Fault); // already gone: a no-op
        assert_eq!(acct.ledger.drops_fault, 1);
        assert_eq!(acct.window[0].drops, 0);
        let report = acct.finish(0, 1.0, Vec::new());
        assert_eq!(report.per_chain[0].dropped_packets, 0);
        assert_eq!(report.ledger.in_flight_at_end, 0);

        // The same drop of a packet injected at warm-up's end is measured.
        let mut acct = books();
        let id = acct.admit(0, WARMUP, frame());
        acct.drop(id, DropReason::Fault);
        assert_eq!(acct.window[0].drops, 1);
        let report = acct.finish(0, 1.0, Vec::new());
        assert_eq!(report.per_chain[0].drops_fault, 1);
    }

    /// Deliveries count by egress time, drops by injection time: a packet
    /// injected in warm-up and delivered inside the span is measured; one
    /// injected inside the span and delivered past the horizon is not,
    /// though it would be had it been dropped.
    #[test]
    fn deliveries_count_by_egress_and_drops_by_injection() {
        let mut acct = books();
        let early = acct.admit(0, WARMUP - 500, frame());
        let late = acct.admit(0, HORIZON - 1, frame());
        let dropped = acct.admit(0, HORIZON - 1, frame());
        assert_eq!((early, late, dropped), (1, 2, 3), "ids count up from 1");
        acct.deliver(early, WARMUP + 500);
        acct.deliver(late, HORIZON);
        acct.drop(dropped, DropReason::QueueOverflow);
        assert_eq!(acct.window[0].packets, 1);
        assert_eq!(acct.window[0].lat_sum, 1_000.0);
        assert_eq!(acct.window[0].drops, 1);
        let report = acct.finish(0, 2.0, Vec::new());
        let s = &report.per_chain[0];
        assert_eq!((s.delivered_packets, s.dropped_packets), (1, 1));
        assert_eq!(s.delivered_bps, 64.0 * 8.0 / 2.0);
        assert_eq!((s.mean_latency_ns, s.max_latency_ns), (1_000.0, 1_000.0));
        assert_eq!(report.ledger.delivered, 2);
        assert_eq!(report.ledger.drops_queue, 1);
    }

    /// Mass counters follow the same rule on the caller's `measured`, and
    /// tail deliveries add no latency sample; the books balance with the
    /// backlog and the packets still in flight.
    #[test]
    fn mass_charges_balance_the_ledger() {
        let mut acct = books();
        acct.arrive(0, 10, 4, false);
        acct.drop_mass(0, DropReason::Shed, 10, false);
        // 20 measured arrivals: 4 junk denied, 9 delivered, 7 left queued.
        acct.arrive(0, 20, 4, true);
        acct.drop_mass(0, DropReason::Admission, 4, true);
        acct.deliver_mass(0, 9, 100, true);
        acct.arrive(0, 1, 0, true);
        acct.admit(0, WARMUP, frame());
        let w = acct.window[0].clone();
        assert_eq!((w.arrivals, w.junk, w.drops, w.packets), (21, 4, 4, 9));
        assert_eq!((w.bits, w.lat_packets), (7_200.0, 0));
        let report = acct.finish(7, 1.0, Vec::new());
        let s = &report.per_chain[0];
        assert_eq!((s.drops_shed, s.drops_admission), (0, 4));
        assert_eq!(s.mean_latency_ns, 0.0);
        assert_eq!(report.ledger.injected, 31);
        assert_eq!(report.ledger.in_flight_at_end, 8);
        assert!(report.ledger.balanced(), "{:?}", report.ledger);
    }
}
