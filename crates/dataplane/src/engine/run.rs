//! The run loop: pop the earliest event, run its hop, queue what follows.

use super::accounts::Accounts;
use super::clock::{Control, WindowClock};
use super::epoch::Epoch;
use super::queue::{EventQueue, Hop};
use super::tail::{NfView, TailQueue};
use super::{ControlHook, PacketSource, SimConfig, Testbed};
use crate::faults::{FaultPlan, FaultState};
use crate::report::{DropReason, SimReport, TimelineEvent};
use lemur_core::Slo;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Propagation + PHY latency per link traversal (ns).
const PROP_NS: u64 = 500;
/// Safety cap on per-packet hops (a mis-programmed chain loops forever
/// otherwise).
const MAX_HOPS: u8 = 64;

/// What a run feeds the testbed: one packet source per chain, the
/// analytic tail of a hybrid run, and the offered load each chain
/// reports.
pub(super) struct Traffic {
    pub(super) sources: Vec<PacketSource>,
    pub(super) tail: Option<TailQueue>,
    pub(super) offered_bps: Vec<f64>,
}

/// One run's state besides the testbed it drives. Each field owns one
/// concern; the hop handlers borrow the ones they touch.
struct Run {
    max_queue_ns: u64,
    horizon_ns: u64,
    queue: EventQueue,
    acct: Accounts,
    clock: WindowClock,
    tail: Option<TailQueue>,
    epoch: Epoch,
    faults: FaultState,
    sources: Vec<PacketSource>,
    rng: StdRng,
}

/// Where a hop sends its packet next: `(time, hop)`, or why it drops.
type Next = Result<(u64, Hop), DropReason>;

impl Run {
    /// Queue packet `id`'s next hop, or drop it.
    #[inline]
    fn forward(&mut self, id: u64, next: Next) {
        match next {
            Ok((at, hop)) => self.queue.push((at, id, hop)),
            Err(reason) => self.acct.drop(id, reason),
        }
    }

    /// Chain `ci`'s source is due: take its packet, admit it (or refuse
    /// it, if the chain is shed), and queue the source's next inject.
    #[inline]
    fn inject(&mut self, ci: usize, now: u64) {
        let Some((t, buf)) = self.sources[ci].next_packet() else {
            return;
        };
        // INVARIANT: an inject is queued at its source's `peek_time`.
        debug_assert_eq!(t, now);
        // Arrival accounting happens before any admission decision —
        // identically in packet-level and hybrid runs, so θ=0 equivalence
        // holds field-for-field.
        let measured = self.acct.measured(now);
        self.acct.arrive(ci, 1, 0, measured);
        if self.epoch.admitted[ci] {
            let id = self.acct.admit(ci, now, buf);
            self.queue.push((now, id, Hop::AtTor));
        } else {
            // The chain is shed in the current epoch: refuse admission.
            // The source still advances so the arrival process is
            // identical whether or not (and when) the chain is re-admitted.
            self.acct.drop_mass(ci, DropReason::Shed, 1, measured);
        }
        let next = self.sources[ci].peek_time();
        if next < self.horizon_ns {
            self.queue
                .push((next, u64::MAX - ci as u64, Hop::Inject(ci)));
        }
    }
}

impl Testbed {
    pub(super) fn run_internal(
        &mut self,
        traffic: Traffic,
        config: SimConfig,
        plan: &FaultPlan,
        slos: &[Option<Slo>],
        hook: &mut dyn ControlHook,
    ) -> SimReport {
        // INVARIANT: every entry point builds one source per chain and
        // checks `slos` against the chain count first.
        debug_assert_eq!(traffic.sources.len(), self.n_chains);
        debug_assert!(slos.is_empty() || slos.len() == self.n_chains);
        let (warmup_ns, horizon_ns) = (config.warmup_ns(), config.horizon_ns());
        let mut run = Run {
            max_queue_ns: config.max_queue_ns,
            horizon_ns,
            queue: EventQueue::default(),
            acct: Accounts::new(&traffic.offered_bps, warmup_ns, horizon_ns),
            clock: WindowClock::new(&config, slos, traffic.tail.is_some(), self.n_chains),
            tail: traffic.tail,
            epoch: Epoch::new(self.n_chains),
            faults: FaultState::healthy(self.live.servers.len()),
            sources: traffic.sources,
            rng: StdRng::seed_from_u64(config.seed ^ 0x1e307),
        };
        // A packet has exactly one event queued at a time, and the event's
        // id is the packet's key in `acct.packets`; its frame and
        // bookkeeping wait there between hops. Faults carry id 0 so a fault
        // at the same instant as a packet hop applies first.
        for (ci, src) in run.sources.iter().enumerate() {
            run.queue
                .push((src.peek_time(), u64::MAX - ci as u64, Hop::Inject(ci)));
        }
        for (fi, ev) in plan.events().iter().enumerate() {
            if ev.at_ns < horizon_ns {
                run.queue.push((ev.at_ns, 0, Hop::Fault(fi)));
            }
        }
        // One pacemaker tick per guard window (chained as they pop), so
        // window closes — and the control hook's view of `now` — never
        // depend on packet traffic existing. Window accounting is
        // span-based, so runs that already had packet events are unchanged
        // by the extra no-op pops.
        if let Some(first) = run.clock.tick_after(warmup_ns) {
            run.queue.push((first, 0, Hop::WindowTick));
        }

        while let Some((now, id, hop)) = run.queue.pop() {
            if run.clock.due(now).is_some() {
                // Close the guard windows that ended before this event.
                let control: Control = (&mut *hook, &mut run.queue);
                let (acct, tail, epoch) = (&mut run.acct, run.tail.as_mut(), &mut run.epoch);
                let nfs = &mut self.nf_view();
                run.clock
                    .close_through(now, acct, tail, nfs, epoch, Some(control));
            }
            match hop {
                Hop::Fault(fi) => {
                    let kind = &plan.events()[fi].kind;
                    run.faults
                        .apply(kind, &mut self.live.subgroup_cycles, &mut run.sources);
                    run.acct.timeline.push(TimelineEvent::Fault {
                        at_ns: now,
                        kind: kind.clone(),
                    });
                    let action = hook.on_fault(now, kind);
                    run.epoch
                        .apply(action, now, &mut run.queue, &mut run.acct.timeline);
                }
                Hop::Inject(ci) => run.inject(ci, now),
                Hop::AtTor => self.at_tor(&mut run, id, now),
                Hop::AtServer(s) => self.at_server(&mut run, s, id, now),
                Hop::ServerEgress(s) => self.server_egress(&mut run, s, id, now),
                Hop::AtNic(n) => self.at_nic(&mut run, n, id, now),
                Hop::Deliver => run.acct.deliver(id, now),
                Hop::WindowTick => {
                    // The catch-up above already closed the window this
                    // tick paces; just chain the next one.
                    if let Some(next) = run.clock.tick_after(now) {
                        run.queue.push((next, 0, Hop::WindowTick));
                    }
                }
                Hop::EpochSwap => run.epoch.swap(
                    self,
                    now,
                    &mut run.acct,
                    &mut run.faults,
                    &mut run.clock,
                    hook,
                ),
            }
        }

        let mut nfs = self.nf_view();
        let (acct, epoch) = (&mut run.acct, &mut run.epoch);
        run.clock
            .close_through(horizon_ns, acct, run.tail.as_mut(), &mut nfs, epoch, None);
        // Tail mass no window close reached (the partial `rest` span
        // included) is still owed to the ledger and the chain totals, and
        // undrained fluid-queue backlog at the horizon is in flight, not
        // lost.
        let mut backlog = 0;
        if let Some(tail) = run.tail.as_mut() {
            tail.finish(acct, &mut nfs, epoch);
            backlog = tail.backlog().iter().sum();
        }
        run.acct
            .finish(backlog, config.duration_s, run.clock.into_windows())
    }

    fn nf_view(&mut self) -> NfView<'_> {
        NfView {
            servers: &mut self.live.servers,
            index: &self.live.nf_index,
        }
    }

    /// Through the switch pipeline, then onto the link its verdict names.
    fn at_tor(&mut self, run: &mut Run, id: u64, now: u64) {
        let Some(p) = run.acct.packets.get_mut(id) else {
            return;
        };
        p.hops += 1;
        if p.hops > MAX_HOPS {
            return run.acct.drop(id, DropReason::MaxHops);
        }
        let bits = p.buf.len() as f64 * 8.0;
        let verdict = self.live.switch.process(&mut p.buf);
        let stages = self.live.switch.assignment().num_stages_used.max(1);
        let after_pipe = now + self.pisa.pipeline_latency_ns(stages) as u64;
        let max_q = run.max_queue_ns;
        let next = match verdict.egress_port {
            _ if verdict.dropped => Err(DropReason::Verdict),
            None => Err(DropReason::Verdict),
            Some(0) => {
                // Out port: serialize on the ToR uplink.
                let ser = (bits / self.tor_rate_bps * 1e9) as u64;
                self.tor_out
                    .serve(after_pipe, ser, max_q)
                    .map(|done| (done + PROP_NS, Hop::Deliver))
                    .ok_or(DropReason::QueueOverflow)
            }
            Some(port) if (1..100).contains(&port) => {
                let s = (port - 1) as usize;
                if s >= self.tor_to_server.len() {
                    Err(DropReason::Verdict)
                } else if !run.faults.link_is_up(s) {
                    Err(DropReason::Fault)
                } else {
                    let ser = (bits / self.link_bps[s] * 1e9) as u64;
                    self.tor_to_server[s]
                        .serve(after_pipe, ser, max_q)
                        .map(|done| (done + PROP_NS, Hop::AtServer(s)))
                        .ok_or(DropReason::QueueOverflow)
                }
            }
            Some(port) => {
                let n = (port - 100) as usize;
                match self.live.nics.get_mut(n) {
                    Some(Some(nic)) => {
                        let ser = (bits / nic.link_bps * 1e9) as u64;
                        nic.link_in
                            .serve(after_pipe, ser, max_q)
                            .map(|done| (done + PROP_NS, Hop::AtNic(n)))
                            .ok_or(DropReason::QueueOverflow)
                    }
                    _ => Err(DropReason::Verdict),
                }
            }
        };
        run.forward(id, next);
    }

    fn at_server(&mut self, run: &mut Run, s: usize, id: u64, now: u64) {
        let next = match self.live.servers[s].as_mut() {
            None => Err(DropReason::Verdict),
            Some(server) => {
                let Some(p) = run.acct.packets.get_mut(id) else {
                    return;
                };
                let cycles = &self.live.subgroup_cycles;
                let (max_q, faults, rng) = (run.max_queue_ns, &run.faults, &mut run.rng);
                let done = server.visit(p, now, max_q, cycles, faults, rng);
                done.map(|done| (done, Hop::ServerEgress(s)))
            }
        };
        run.forward(id, next);
    }

    /// Back over the server→ToR link, reserved at the moment the core
    /// actually finished.
    fn server_egress(&mut self, run: &mut Run, s: usize, id: u64, now: u64) {
        let Some(p) = run.acct.packets.get(id) else {
            return;
        };
        let next = if run.faults.link_is_up(s) {
            let bits = p.buf.len() as f64 * 8.0;
            let ser = (bits / self.link_bps[s] * 1e9) as u64;
            self.server_to_tor[s]
                .serve(now, ser, run.max_queue_ns)
                .map(|done| (done + PROP_NS, Hop::AtTor))
                .ok_or(DropReason::QueueOverflow)
        } else {
            Err(DropReason::Fault)
        };
        run.forward(id, next);
    }

    fn at_nic(&mut self, run: &mut Run, n: usize, id: u64, now: u64) {
        let next = match self.live.nics[n].as_mut() {
            None => Err(DropReason::Verdict),
            Some(nic) => {
                let Some(p) = run.acct.packets.get_mut(id) else {
                    return;
                };
                nic.visit(p, now, run.max_queue_ns)
                    .map(|done| (done + PROP_NS, Hop::AtTor))
            }
        };
        run.forward(id, next);
    }
}
