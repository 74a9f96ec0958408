//! The engine's event queue: what happens next, in a fixed order.

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(super) enum Hop {
    /// Apply fault-plan event `i`. Declared first so that at equal
    /// `(time, id)` a fault applies before any packet hop.
    Fault(usize),
    /// Pacemaker for the SLO-guard / tail window grid. Windows close
    /// lazily as events pop, so without this a run whose heap holds no
    /// packet events (e.g. a pure analytic-tail scenario) would close
    /// every window in one catch-up burst at the first pop — handing the
    /// control hook a garbage `now` and scheduling any staged swap after
    /// the whole run. The tick pins each window boundary to a real heap
    /// event; its handler is otherwise a no-op.
    WindowTick,
    Inject(usize),
    AtTor,
    AtServer(usize),
    /// Core processing finished; reserve the server→ToR link *now* (a
    /// separate event so link reservations happen in true arrival order —
    /// reserving at enqueue time would let one backed-up replica inflate
    /// every other replica's link start time).
    ServerEgress(usize),
    AtNic(usize),
    Deliver,
    /// End of a drain window: swap the staged configuration in. Declared
    /// last so that at an equal `(time, id)` every fault and packet hop
    /// settles before the epoch changes.
    EpochSwap,
}

/// One scheduled hop: `(time, id, hop)`, popped in ascending order. The
/// id is the packet's (or `0` for faults, ticks and swaps, `u64::MAX - chain`
/// for injects), so equal-time events replay in a fixed order; no two
/// queued events share a key, hence pop order is a property of the keys
/// alone and not of the queue that holds them.
pub(super) type Event = (u64, u64, Hop);

/// Binary min-heap of [`Event`]s tuned to the engine's rhythm: nearly
/// every `pop` is followed by one `push` (the popped packet's next hop).
/// `pop` therefore leaves the root as a hole instead of repairing the
/// heap, and the following `push` drops its event into the hole with a
/// single sift-down — where pop-then-push on a plain heap pays a
/// sift-down *and* a sift-up. A second `pop` (or nothing) arriving first
/// just closes the hole the ordinary way. Either way every `pop` returns
/// the least queued key, which is all the engine can observe.
#[derive(Default)]
pub(super) struct EventQueue {
    heap: Vec<Event>,
    /// `heap[0]` was handed out by the last `pop` and is vacant.
    hole: bool,
}

impl EventQueue {
    pub(super) fn push(&mut self, event: Event) {
        if self.hole {
            self.hole = false;
            self.sift_down(event);
        } else {
            let mut i = self.heap.len();
            self.heap.push(event);
            while i > 0 {
                let parent = (i - 1) / 2;
                if self.heap[parent] <= event {
                    break;
                }
                self.heap[i] = self.heap[parent];
                i = parent;
            }
            self.heap[i] = event;
        }
    }

    #[inline]
    pub(super) fn pop(&mut self) -> Option<Event> {
        if self.hole {
            self.hole = false;
            let last = self.heap.pop()?;
            if !self.heap.is_empty() {
                self.sift_down(last);
            }
        }
        let top = *self.heap.first()?;
        self.hole = true;
        Some(top)
    }

    /// Place `event` at the vacant root and restore heap order.
    fn sift_down(&mut self, event: Event) {
        let n = self.heap.len();
        let mut i = 0;
        loop {
            let mut child = 2 * i + 1;
            if child >= n {
                break;
            }
            if child + 1 < n && self.heap[child + 1] < self.heap[child] {
                child += 1;
            }
            if event <= self.heap[child] {
                break;
            }
            self.heap[i] = self.heap[child];
            i = child;
        }
        self.heap[i] = event;
    }
}
