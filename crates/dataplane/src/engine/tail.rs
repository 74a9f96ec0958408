//! The analytic tail at run time: a [`TailPlan`]'s cells charged one
//! guard window at a time, through a per-chain fluid queue and the live
//! epoch's NF aggregates.

use super::accounts::Accounts;
use super::epoch::Epoch;
use super::stations::ServerSim;
use super::HybridConfig;
use crate::flowsim::{TailCell, TailPlan};
use crate::migrate::NfLocator;
use crate::report::DropReason;
use lemur_nf::AggregateUpdate;

/// The live epoch's server-resident NF instances, as the tail sweep
/// reaches them.
pub(super) struct NfView<'a> {
    pub(super) servers: &'a mut [Option<ServerSim>],
    pub(super) index: &'a [NfLocator],
}

/// Which of the plan's spans a charge covers.
#[derive(Clone, Copy)]
enum Span {
    /// `[0, warm-up)`: neither measured nor capacity-constrained.
    Warmup,
    /// The w-th full guard window: measured and constrained.
    Window(usize),
    /// The partial span from the last full window to the horizon:
    /// measured, but not constrained — it is not a full guard window.
    Rest,
}

/// Run-time cursor over a [`TailPlan`] — which cells have been charged —
/// and the per-chain fluid queue its mass waits in.
pub(super) struct TailQueue {
    plan: TailPlan,
    /// Wire bytes per packet, per chain.
    frame_bytes: Vec<u64>,
    /// Per-chain capacity (empty = unconstrained).
    capacity_bps: Vec<f64>,
    /// Per-chain fluid-queue backlog (packets queued above capacity,
    /// draining at capacity across subsequent windows).
    backlog: Vec<u64>,
    /// Backlog bound: mass past this overflows to
    /// [`DropReason::QueueOverflow`].
    buffer_packets: u64,
    /// Next full-window row of `plan.windows` to charge.
    next_window: usize,
    warmup_charged: bool,
}

impl TailQueue {
    pub(super) fn new(plan: TailPlan, frame_bytes: Vec<u64>, config: &HybridConfig) -> TailQueue {
        TailQueue {
            plan,
            backlog: vec![0; frame_bytes.len()],
            frame_bytes,
            capacity_bps: config.capacity_bps.clone(),
            buffer_packets: config.queue_buffer_packets,
            next_window: 0,
            warmup_charged: false,
        }
    }

    pub(super) fn backlog(&self) -> &[u64] {
        &self.backlog
    }

    /// Charge the cells owed before the next guard window closes: the
    /// warm-up cell, then that window's row.
    pub(super) fn charge_window(&mut self, acct: &mut Accounts, nfs: &mut NfView, epoch: &Epoch) {
        self.charge_warmup(acct, nfs, epoch);
        if self.next_window < self.plan.windows.len() {
            self.next_window += 1;
            self.charge(Span::Window(self.next_window - 1), acct, nfs, epoch);
        }
    }

    /// Charge whatever is still owed at the horizon: the warm-up cell,
    /// any rows no window close reached, and the final partial span.
    pub(super) fn finish(&mut self, acct: &mut Accounts, nfs: &mut NfView, epoch: &Epoch) {
        self.charge_warmup(acct, nfs, epoch);
        for _ in self.next_window..self.plan.windows.len() {
            self.charge_window(acct, nfs, epoch);
        }
        let (_, rest_start, horizon) = Span::Rest.of(&self.plan);
        if rest_start < horizon {
            self.charge(Span::Rest, acct, nfs, epoch);
        }
    }

    /// The warm-up cell is owed once, to whichever comes first: the
    /// first window close or the horizon.
    fn charge_warmup(&mut self, acct: &mut Accounts, nfs: &mut NfView, epoch: &Epoch) {
        if !self.warmup_charged {
            self.warmup_charged = true;
            self.charge(Span::Warmup, acct, nfs, epoch);
        }
    }

    /// Charge one span's cells: conservation ledger, shed, admission
    /// control, the fluid queue's backlog and overflow, batched NF
    /// aggregates down the chain, and delivered mass. Measured spans also
    /// count toward chain stats and the open guard window; constrained
    /// ones are charged against the per-chain capacity left over by the
    /// heavy path. Tail mass above capacity queues in the backlog
    /// (bounded by `buffer_packets`, overflow drops as
    /// [`DropReason::QueueOverflow`]) and its Little's-law waiting time
    /// lands in the window's latency accumulators, so the SLO guard sees
    /// surge-induced latency, not just loss.
    fn charge(&mut self, span: Span, acct: &mut Accounts, nfs: &mut NfView, epoch: &Epoch) {
        let measured = !matches!(span, Span::Warmup);
        let constrain = matches!(span, Span::Window(_));
        let (cells, start_ns, end_ns) = span.of(&self.plan);
        for (ci, cell) in cells.iter().enumerate() {
            if cell.is_empty() && (!constrain || self.backlog[ci] == 0) {
                // Zero-mass cells (with no queued carry-over) leave no
                // trace, so a hybrid run whose tail is empty stays
                // bit-identical to its packet-level twin.
                continue;
            }
            acct.arrive(ci, cell.packets, cell.junk_packets, measured);
            if !epoch.admitted[ci] {
                // A shed chain refuses new arrivals *and* flushes whatever
                // its queue still holds — shed mass must not strand in the
                // backlog where it would read as in-flight forever.
                let shed = cell.packets + self.backlog[ci];
                self.backlog[ci] = 0;
                acct.drop_mass(ci, DropReason::Shed, shed, measured);
                continue;
            }
            // Ladder rung 1: admission control denies the DDoS-flagged junk
            // slice before it can queue (typed, exact in the ledger).
            let mut pkts = cell.packets;
            let mut new_flows = cell.new_flows;
            if epoch.deny_junk.get(ci).copied().unwrap_or(false) && cell.junk_packets > 0 {
                pkts -= cell.junk_packets;
                new_flows -= cell.junk_flows;
                acct.drop_mass(ci, DropReason::Admission, cell.junk_packets, measured);
            }
            let frame = self.frame_bytes[ci].max(1);
            let cap = self.capacity_bps.get(ci).copied();
            if let Some(cap) = cap.filter(|&c| constrain && c > 0.0) {
                let span_ns = end_ns - start_ns;
                let span_s = span_ns as f64 / 1e9;
                // Whatever the heavy path already delivered this window
                // has consumed its share of the budget.
                let budget = ((cap * span_s / (frame * 8) as f64) as u64)
                    .saturating_sub(acct.window[ci].packets);
                // Fluid M/D/1 step: last window's backlog plus this
                // window's arrivals drain at the leftover capacity; what
                // doesn't fit queues up to the buffer bound and overflows
                // past it.
                let b0 = self.backlog[ci];
                let demand = b0 + pkts;
                let served = demand.min(budget);
                let queued_after = demand - served;
                let over = queued_after.saturating_sub(self.buffer_packets);
                acct.drop_mass(ci, DropReason::QueueOverflow, over, measured);
                self.backlog[ci] = queued_after - over;
                if measured && self.buffer_packets > 0 && span_ns > 0 {
                    let wait = fluid_wait(b0, pkts, budget, self.buffer_packets, span_ns);
                    if wait > 0.0 {
                        let w = &mut acct.window[ci];
                        w.lat_sum += wait;
                        w.lat_packets += served;
                    }
                }
                pkts = served;
            }
            let passed = nfs.sweep(ci, pkts, new_flows, frame, start_ns, end_ns);
            acct.drop_mass(ci, DropReason::Verdict, pkts - passed, measured);
            acct.deliver_mass(ci, passed, frame, measured);
        }
    }
}

impl Span {
    /// The span's cells and its `[start, end)` in virtual time.
    fn of(self, plan: &TailPlan) -> (&[TailCell], u64, u64) {
        let (w, rows) = (plan.window_ns, plan.windows.len() as u64);
        match self {
            Span::Warmup => (&plan.warmup, 0, plan.warmup_ns),
            Span::Window(i) => {
                let start = plan.warmup_ns + i as u64 * w;
                (&plan.windows[i], start, start + w)
            }
            Span::Rest => (&plan.rest, plan.warmup_ns + rows * w, plan.horizon_ns),
        }
    }
}

/// Little's law over one span of the fluid queue: the total waiting time
/// (packet·ns) equals the integral of the queue length. Q(t) is piecewise
/// linear from `b0` at slope g = λ − μ (λ = `arrivals`, μ = `budget`,
/// both per span), clamped at `buffer` going up and at zero going down.
fn fluid_wait(b0: u64, arrivals: u64, budget: u64, buffer: u64, span_ns: u64) -> f64 {
    let span = span_ns as f64;
    let lam = arrivals as f64 / span;
    let mu = budget as f64 / span;
    let g = lam - mu;
    let b0f = b0 as f64;
    let buf = buffer as f64;
    if g > 0.0 {
        if b0f >= buf {
            buf * span
        } else {
            let t_b = ((buf - b0f) / g).min(span);
            b0f * t_b + 0.5 * g * t_b * t_b + buf * (span - t_b)
        }
    } else if g < 0.0 {
        let t_e = (b0f / -g).min(span);
        b0f * t_e - 0.5 * -g * t_e * t_e
    } else {
        b0f * span
    }
}

impl NfView<'_> {
    /// Sweep chain `ci`'s server NFs in (node, replica) order, splitting
    /// each aggregate across replicas (remainder to the earliest) and
    /// attenuating packet mass by each node's admitted outcome; returns
    /// the packets that passed every node. Flow pressure propagates
    /// unattenuated — refused packets don't un-arrive their flows — which
    /// keeps binding counts conservative.
    fn sweep(
        &mut self,
        ci: usize,
        mut pkts: u64,
        new_flows: u64,
        frame: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        let index = self.index;
        let mut i = 0;
        while i < index.len() {
            if index[i].chain != ci {
                i += 1;
                continue;
            }
            let node = index[i].node;
            let mut j = i;
            while j < index.len() && index[j].chain == ci && index[j].node == node {
                j += 1;
            }
            let replicas = (j - i) as u64;
            let mut passed = 0u64;
            for (r, loc) in index[i..j].iter().enumerate() {
                let r = r as u64;
                let share_p = pkts / replicas + u64::from(r < pkts % replicas);
                let share_f = new_flows / replicas + u64::from(r < new_flows % replicas);
                if share_p == 0 && share_f == 0 {
                    continue;
                }
                let update = AggregateUpdate {
                    packets: share_p,
                    bytes: share_p * frame,
                    new_flows: share_f,
                    window_start_ns: start_ns,
                    window_end_ns: end_ns,
                };
                let out = self
                    .servers
                    .get_mut(loc.server)
                    .and_then(|s| s.as_mut())
                    .and_then(|srv| srv.pipeline.instances.get_mut(loc.inst_idx))
                    .and_then(|inst| inst.runtime.apply_aggregate_nf(loc.nf_idx, &update));
                passed += out.map(|o| o.packets.min(share_p)).unwrap_or(share_p);
            }
            // Each replica passes at most its share, so `passed <= pkts`.
            pkts = passed;
            i = j;
        }
        pkts
    }
}

#[cfg(test)]
pub(super) mod tests {
    use super::*;

    pub(in crate::engine) const MS: u64 = 1_000_000;
    /// Wire bytes per tail packet.
    pub(in crate::engine) const FRAME: u64 = 100;

    fn cell(packets: u64, junk: u64) -> TailCell {
        TailCell {
            packets,
            bytes: packets * FRAME,
            new_flows: packets,
            junk_packets: junk,
            junk_flows: junk,
        }
    }

    /// One chain: 5 warm-up packets before `warmup_ns`, then 10 (one of
    /// them junk) in each whole window up to `horizon_ns`.
    pub(in crate::engine) fn plan(warmup_ns: u64, horizon_ns: u64) -> TailPlan {
        let windows = (horizon_ns - warmup_ns) / MS;
        TailPlan {
            warmup_ns,
            window_ns: MS,
            horizon_ns,
            warmup: vec![cell(5, 0)],
            windows: vec![vec![cell(10, 1)]; windows as usize],
            rest: vec![cell(3, 0)],
            tail_flows: vec![0],
            tail_packets: vec![0],
        }
    }

    /// Capacity for 6 tail packets a window and room for 3 more queued:
    /// each window serves, queues and overflows.
    pub(in crate::engine) fn tail(plan: TailPlan) -> TailQueue {
        let config = HybridConfig {
            capacity_bps: vec![(6 * FRAME * 8) as f64 * 1e3],
            queue_buffer_packets: 3,
            ..HybridConfig::default()
        };
        TailQueue::new(plan, vec![FRAME], &config)
    }

    fn charge(order: &[bool], horizon_ns: u64) -> (Accounts, TailQueue) {
        let mut acct = Accounts::new(&[1e9], MS, horizon_ns);
        let mut tail = tail(plan(MS, horizon_ns));
        let epoch = Epoch::new(1);
        let mut nfs = NfView {
            servers: &mut [],
            index: &[],
        };
        for &window_close in order {
            if window_close {
                tail.charge_window(&mut acct, &mut nfs, &epoch);
            } else {
                tail.finish(&mut acct, &mut nfs, &epoch);
            }
        }
        (acct, tail)
    }

    /// The warm-up cell is owed once, to whichever comes first: a window
    /// close or the horizon. Every cell lands exactly once however many
    /// windows close before `finish`, even past the last row.
    #[test]
    fn warmup_cell_is_charged_exactly_once() {
        let horizon = 4 * MS + MS / 2; // three whole windows and a rest
        let owed = 5 + 3 * 10 + 3;
        let runs = [
            charge(&[false], horizon),
            charge(&[true, false], horizon),
            charge(&[true, true, true, false], horizon),
            charge(&[true, true, true, true, true, false], horizon),
        ];
        for (acct, tail) in &runs {
            assert_eq!(acct.ledger.injected, owed, "{:?}", acct.ledger);
            let queued = tail.backlog()[0];
            let l = &acct.ledger;
            assert_eq!(l.delivered + l.total_drops() + queued, owed, "{l:?}");
        }
        // The first close charges warm-up and the first row; only the row
        // is measured.
        let (first, _) = charge(&[true], horizon);
        assert_eq!(first.ledger.injected, 5 + 10);
        assert_eq!(first.window[0].arrivals, 10);

        // No whole window at all, so none closes: the horizon alone
        // charges warm-up (and the rest).
        let (acct, tail) = charge(&[false], MS + MS / 2);
        assert_eq!(acct.ledger.injected, 5 + 3);
        assert_eq!(tail.backlog(), &[0]);
    }
}
