//! The guard-window grid and the SLO guard that checks each window.

use super::accounts::Accounts;
use super::epoch::Epoch;
use super::queue::EventQueue;
use super::tail::{NfView, TailQueue};
use super::{ControlHook, SimConfig};
use crate::report::{TimelineEvent, ViolationKind, WindowSample};
use lemur_core::Slo;

/// The live control plane a closing window reports to, and the queue a
/// swap it stages is scheduled on.
pub(super) type Control<'a> = (&'a mut dyn ControlHook, &'a mut EventQueue);

/// Windows of `window_ns` tile `[warm-up, horizon)` from warm-up on;
/// each one that ends by the horizon closes exactly once, into one
/// [`WindowSample`] per chain. They close when the SLO guard is armed or
/// an analytic tail is attached (its cells are charged per window), and
/// never otherwise.
pub(super) struct WindowClock {
    on: bool,
    window_ns: u64,
    horizon_ns: u64,
    /// End of the window still open, if it is to close at all (windows
    /// are on and it ends by the horizon).
    end_ns: Option<u64>,
    /// Guard bounds, by original chain. An epoch swap replaces them so
    /// shed chains stop being flagged.
    pub(super) slos: Vec<Option<Slo>>,
    windows: Vec<WindowSample>,
}

impl WindowClock {
    pub(super) fn new(
        config: &SimConfig,
        slos: &[Option<Slo>],
        tail_attached: bool,
        n_chains: usize,
    ) -> WindowClock {
        let on = !slos.is_empty() || tail_attached;
        let (warmup_ns, horizon_ns) = (config.warmup_ns(), config.horizon_ns());
        let window_ns = config.window_ns.max(1);
        // Every whole window up to the horizon closes, one sample per
        // chain: size the report's vector exactly instead of growing it, so
        // a caller that keeps many reports keeps no doubling slack.
        // (Capped: a degenerate window/duration pair must not reserve the
        // world.)
        let whole_windows = (horizon_ns.saturating_sub(warmup_ns) / window_ns) as usize;
        let samples = if on {
            whole_windows.saturating_mul(n_chains).min(1 << 16)
        } else {
            0
        };
        let mut clock = WindowClock {
            on,
            window_ns,
            horizon_ns,
            end_ns: None,
            slos: slos.to_vec(),
            windows: Vec::with_capacity(samples),
        };
        clock.end_ns = clock.tick_after(warmup_ns);
        clock
    }

    /// The window boundary after `t`, if windows close and it is not past
    /// the horizon: where the pacemaker tick goes next.
    pub(super) fn tick_after(&self, t: u64) -> Option<u64> {
        let next = t.checked_add(self.window_ns)?;
        (self.on && next <= self.horizon_ns).then_some(next)
    }

    /// Close every window that ends by both `limit` and the horizon, in
    /// order. Each closing window first has the tail's cell for it
    /// charged, so its samples (and the hook) see heavy + tail mass; then
    /// it is sampled and checked; then `control`, if given, hears of it
    /// and its answer is applied — at `limit` — before the next window
    /// closes. The loop passes the popped event's time and a control; the
    /// horizon flush passes the horizon and none (the run is over, nothing
    /// can be staged anymore). Closing through a limit already reached is a
    /// no-op, and [`WindowClock::due`] says whether one is.
    pub(super) fn close_through(
        &mut self,
        limit: u64,
        acct: &mut Accounts,
        mut tail: Option<&mut TailQueue>,
        nfs: &mut NfView<'_>,
        epoch: &mut Epoch,
        mut control: Option<Control<'_>>,
    ) {
        while let Some(end) = self.due(limit) {
            if let Some(tail) = tail.as_deref_mut() {
                tail.charge_window(acct, nfs, epoch);
            }
            let (w0, t0) = (self.windows.len(), acct.timeline.len());
            self.close(end, acct, tail.as_deref().map_or(&[], TailQueue::backlog));
            if let Some((hook, queue)) = control.as_mut() {
                let action = hook.on_window(end, &self.windows[w0..], &acct.timeline[t0..]);
                epoch.apply(action, limit, queue, &mut acct.timeline);
            }
        }
    }

    /// End of the open window, if it closes by `limit`.
    #[inline]
    pub(super) fn due(&self, limit: u64) -> Option<u64> {
        self.end_ns.filter(|&end| end <= limit)
    }

    /// Sample the open window into one [`WindowSample`] per chain, flag
    /// each SLO it misses on the timeline, and open the next one.
    fn close(&mut self, end_ns: u64, acct: &mut Accounts, backlog: &[u64]) {
        let start_ns = end_ns - self.window_ns;
        let span_s = (end_ns - start_ns) as f64 / 1e9;
        for (ci, a) in acct.window.iter_mut().enumerate() {
            let delivered_bps = if span_s > 0.0 { a.bits / span_s } else { 0.0 };
            let mean_latency_ns = if a.lat_packets > 0 {
                a.lat_sum / a.lat_packets as f64
            } else {
                0.0
            };
            self.windows.push(WindowSample {
                start_ns,
                end_ns,
                chain: ci,
                delivered_bps,
                delivered_packets: a.packets,
                dropped_packets: a.drops,
                mean_latency_ns,
                arrived_packets: a.arrivals,
                junk_packets: a.junk,
                backlog_packets: backlog.get(ci).copied().unwrap_or(0),
            });
            if let Some(Some(slo)) = self.slos.get(ci) {
                if delivered_bps < slo.t_min_bps {
                    acct.timeline.push(TimelineEvent::SloViolation {
                        at_ns: end_ns,
                        chain: ci,
                        kind: ViolationKind::RateBelowMin,
                        observed: delivered_bps,
                        bound: slo.t_min_bps,
                    });
                }
                if let Some(d_max) = slo.d_max_ns {
                    if a.lat_packets > 0 && mean_latency_ns > d_max {
                        acct.timeline.push(TimelineEvent::SloViolation {
                            at_ns: end_ns,
                            chain: ci,
                            kind: ViolationKind::LatencyAboveMax,
                            observed: mean_latency_ns,
                            bound: d_max,
                        });
                    }
                }
            }
            *a = Default::default();
        }
        self.end_ns = self.tick_after(end_ns);
    }

    /// The samples of every window closed so far.
    pub(super) fn into_windows(self) -> Vec<WindowSample> {
        self.windows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tail::tests::{plan, tail, MS};
    use crate::engine::NoopHook;
    use lemur_packet::PacketBuf;

    /// Warm-up 1 ms, then four 1 ms windows.
    fn config() -> SimConfig {
        SimConfig {
            duration_s: 0.004,
            warmup_s: 0.001,
            window_ns: MS,
            ..SimConfig::default()
        }
    }

    /// One chain whose SLO no window meets, an analytic tail that queues
    /// and overflows, and one packet delivered in the first window.
    struct Rig {
        clock: WindowClock,
        acct: Accounts,
        tail: TailQueue,
        epoch: Epoch,
    }

    impl Rig {
        fn new() -> Rig {
            let config = config();
            let (warmup, horizon) = (config.warmup_ns(), config.horizon_ns());
            let slo = Slo {
                t_min_bps: 1e12,
                t_max_bps: f64::INFINITY,
                d_max_ns: Some(1.0),
                priority: 0,
            };
            let mut acct = Accounts::new(&[1e9], warmup, horizon);
            acct.arrive(0, 1, 0, true);
            let id = acct.admit(0, warmup, PacketBuf::zeroed(64));
            acct.deliver(id, warmup + 500);
            Rig {
                clock: WindowClock::new(&config, &[Some(slo)], true, 1),
                acct,
                tail: tail(plan(warmup, horizon)),
                epoch: Epoch::new(1),
            }
        }

        /// Close through `limit` as the loop's catch-up does (each close
        /// reported to a hook) or as the horizon flush does (to none).
        fn close_through(&mut self, limit: u64, catch_up: bool) {
            let (mut hook, mut queue) = (NoopHook, EventQueue::default());
            let control: Option<Control> = catch_up.then_some((&mut hook, &mut queue));
            let mut nfs = NfView {
                servers: &mut [],
                index: &[],
            };
            let (acct, epoch) = (&mut self.acct, &mut self.epoch);
            let tail = Some(&mut self.tail);
            self.clock
                .close_through(limit, acct, tail, &mut nfs, epoch, control);
        }

        fn state(&self) -> (Vec<WindowSample>, Vec<TimelineEvent>, String, Vec<u64>) {
            let ledger = format!("{:?}", self.acct.ledger);
            let backlog = self.tail.backlog().to_vec();
            (
                self.clock.windows.clone(),
                self.acct.timeline.clone(),
                ledger,
                backlog,
            )
        }
    }

    /// The loop's catch-up, closing a window or two at a time, and the
    /// horizon flush, closing them all at once, emit the same samples,
    /// violations, tail charges and backlog; closing through a limit
    /// already reached — or past the horizon — changes nothing.
    #[test]
    fn catch_up_and_flush_close_the_same_windows() {
        let horizon = config().horizon_ns();
        let mut flushed = Rig::new();
        flushed.close_through(horizon, false);
        let once = flushed.state();
        flushed.close_through(horizon, false);
        flushed.close_through(u64::MAX, true);
        assert!(flushed.state() == once, "closing again moved something");

        let mut caught_up = Rig::new();
        for limit in [MS, 2 * MS + 1, 2 * MS + 1, 4 * MS, horizon - 1, horizon] {
            caught_up.close_through(limit, true);
            let closed = caught_up.clock.windows.len() as u64;
            assert_eq!(closed, (limit.min(horizon) - MS) / MS, "at {limit}");
        }
        assert!(caught_up.state() == once, "catch-up and flush differ");

        let (windows, timeline, _, backlog) = once;
        let tiles: Vec<(u64, u64)> = windows.iter().map(|w| (w.start_ns, w.end_ns)).collect();
        assert_eq!(
            tiles,
            [
                (MS, 2 * MS),
                (2 * MS, 3 * MS),
                (3 * MS, 4 * MS),
                (4 * MS, 5 * MS)
            ]
        );
        // The heavy packet took one of the first window's six slots.
        assert_eq!(windows[0].delivered_packets, 6);
        assert!(windows
            .iter()
            .all(|w| w.backlog_packets == 3 && w.arrived_packets >= 10));
        assert_eq!(backlog, [3]);
        let violations = |kind| {
            let of = |e: &&TimelineEvent| matches!(e, TimelineEvent::SloViolation { kind: k, .. } if *k == kind);
            timeline.iter().filter(of).count()
        };
        assert_eq!(violations(ViolationKind::RateBelowMin), 4);
        assert_eq!(violations(ViolationKind::LatencyAboveMax), 4);
    }
}
