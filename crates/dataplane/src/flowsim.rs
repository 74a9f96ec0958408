//! Flow-level scenario generation for the hybrid simulation engine.
//!
//! The paper's experiments drive tens of long-lived CBR flows per chain;
//! fleet-scale evaluation needs *millions* of flows with realistic
//! heavy-tailed sizes, diurnal load curves, and surge events. Simulating
//! every packet of every flow caps the engine at toy scale, so the hybrid
//! engine splits a [`Scenario`] in two:
//!
//! - **Heavy hitters** (`size_packets >= heavy_min_packets`) are
//!   materialized and run packet-by-packet through the full dataplane —
//!   exact NF semantics, exact queueing, exact latency.
//! - **The long tail** (everything else) is advanced analytically once
//!   per SLO window as a [`TailPlan`]: exact-integer packet/flow counts
//!   per `(window, chain)` cell, charged to the same ledgers and applied
//!   to stateful NFs as batched [`lemur_nf::AggregateUpdate`]s.
//!
//! Everything is seeded and deterministic: materializing the same
//! [`ScenarioSpec`] twice yields byte-identical flow tables, so hybrid
//! runs replay bit-for-bit.

use crate::engine::ScenarioError;
use crate::traffic::flow_tuple;
use lemur_packet::{checksum, ethernet, ipv4, udp, PacketBuf};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Heavy-tailed (bounded-Pareto) flow-size distribution, in packets.
///
/// `P(S > x) ∝ x^-alpha` on `[min_packets, max_packets]` — the classic
/// mice-and-elephants shape: most flows are a few packets, a small
/// fraction carry most of the volume.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowSizeDist {
    /// Tail index (Internet flow sizes are typically 1.05–1.3).
    pub alpha: f64,
    pub min_packets: u64,
    pub max_packets: u64,
}

impl FlowSizeDist {
    /// Inverse-CDF sample from one uniform draw `u ∈ [0, 1)`.
    pub fn sample(&self, u: f64) -> u64 {
        InverseCdf::new(self).sample(u)
    }
}

/// The bounded-Pareto inverse CDF with its per-distribution constants
/// computed once:
///   x = (-(u·(H^-α − L^-α) − L^-α))^(-1/α)
/// evaluated as `(L^-α − u·(L^-α − H^-α))^(-1/α)`, so a chain's sizes
/// cost one `powf` each instead of three.
#[derive(Debug, Clone, Copy)]
struct InverseCdf {
    min: u64,
    max: u64,
    /// `Some(L)` for a point mass (`L ≥ H`).
    point: Option<u64>,
    la: f64,
    la_minus_ha: f64,
    neg_inv_alpha: f64,
}

impl InverseCdf {
    fn new(d: &FlowSizeDist) -> InverseCdf {
        let min = d.min_packets.max(1);
        let l = min as f64;
        let h = d.max_packets.max(min) as f64;
        let la = l.powf(-d.alpha);
        let ha = h.powf(-d.alpha);
        InverseCdf {
            min,
            max: d.max_packets,
            point: (l >= h).then_some(l as u64),
            la,
            la_minus_ha: la - ha,
            neg_inv_alpha: -1.0 / d.alpha,
        }
    }

    fn sample(&self, u: f64) -> u64 {
        if let Some(l) = self.point {
            return l;
        }
        let x = (self.la - u * self.la_minus_ha).powf(self.neg_inv_alpha);
        (x as u64).clamp(self.min, self.max)
    }
}

/// Sinusoidal diurnal load curve: arrival intensity scales by
/// `1 + amplitude·sin(2πt/period)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Diurnal {
    pub period_ns: u64,
    /// In `[0, 1)`: 0.3 means ±30% around the mean rate.
    pub amplitude: f64,
}

impl Diurnal {
    fn factor(&self, t_ns: u64) -> f64 {
        let phase = t_ns as f64 / self.period_ns.max(1) as f64;
        1.0 + self.amplitude * (phase * std::f64::consts::TAU).sin()
    }

    /// `∫ factor(t) dt` over `[a, b)`, in closed form: `(b − a) +
    /// amplitude·P/2π · (cos 2πa/P − cos 2πb/P)`. Held within the bounds
    /// the integrand cannot leave, since `cos` of a phase far from zero is
    /// coarse.
    fn integral(&self, a: u64, b: u64) -> f64 {
        let len = (b - a) as f64;
        let period = self.period_ns.max(1) as f64;
        let cos = |t: u64| (t as f64 / period * std::f64::consts::TAU).cos();
        let exact = len + self.amplitude * period / std::f64::consts::TAU * (cos(a) - cos(b));
        exact.clamp((1.0 - self.amplitude) * len, (1.0 + self.amplitude) * len)
    }
}

/// What kind of surge a [`Surge`] injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SurgeKind {
    /// Legitimate flash crowd: flow arrivals intensify by `factor` but
    /// flows keep their normal size distribution.
    FlashCrowd,
    /// Volumetric DDoS: `factor − 1` times the nominal arrival mass of
    /// *minimum-size* junk flows is added on top of normal traffic.
    Ddos,
}

/// A load surge over `[start_ns, start_ns + duration_ns)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Surge {
    pub kind: SurgeKind,
    pub start_ns: u64,
    pub duration_ns: u64,
    /// Intensity multiplier while the surge is active: finite and > 0
    /// (a surge proper is > 1; a DDoS factor ≤ 1 adds no junk).
    pub factor: f64,
}

impl Surge {
    fn active(&self, t_ns: u64) -> bool {
        t_ns >= self.start_ns && t_ns - self.start_ns < self.duration_ns
    }
}

/// Flow-level load for one chain.
#[derive(Debug, Clone)]
pub struct ChainLoad {
    /// Flows arriving over the horizon at nominal intensity (flash crowds
    /// reshape *when* they arrive; DDoS surges add flows on top).
    pub flows: usize,
    /// Per-flow packet rate (CBR within a flow).
    pub flow_rate_pps: f64,
    pub size: FlowSizeDist,
    pub diurnal: Option<Diurnal>,
    pub surges: Vec<Surge>,
}

/// A seeded, fully-specified flow-level scenario for every chain.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    pub seed: u64,
    pub horizon_ns: u64,
    /// Index-aligned with the placement problem's chains.
    pub chains: Vec<ChainLoad>,
}

/// One generated flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowRecord {
    pub chain: usize,
    /// Dense per-chain id; drives the flow's five-tuple when materialized.
    pub flow_id: u64,
    pub start_ns: u64,
    /// Inter-packet gap (CBR).
    pub interval_ns: u64,
    /// Packets this flow emits *before the horizon* — the mass the
    /// simulation actually carries.
    pub packets: u64,
    /// The flow's drawn size, untruncated by the horizon. Heavy-hitter
    /// selection and tail-index estimation use this, so the split is a
    /// property of the workload, not of the simulated window.
    pub size_packets: u64,
    /// True for junk flows added by a [`SurgeKind::Ddos`] surge.
    pub ddos: bool,
}

impl FlowRecord {
    /// Exact number of this flow's packet arrivals strictly before
    /// `t_ns` (arrivals happen at `start + k·interval`, `k < packets`).
    pub fn arrivals_before(&self, t_ns: u64) -> u64 {
        if t_ns <= self.start_ns {
            return 0;
        }
        let elapsed = t_ns - 1 - self.start_ns;
        self.packets.min(1 + elapsed / self.interval_ns.max(1))
    }
}

/// A materialized scenario: every flow, with deterministic start times,
/// sizes, and schedules. `flows` is sorted by `(chain, start_ns, flow_id)`.
#[derive(Debug, Clone)]
pub struct Scenario {
    pub horizon_ns: u64,
    pub n_chains: usize,
    pub flows: Vec<FlowRecord>,
}

/// Most rejection-sampler candidates [`ScenarioSpec::validate`] lets a
/// chain draw per accepted flow start, in expectation: ≈ 40 µs of sampling
/// per flow at ≈ 10 ns a candidate. `million-flow`'s chains need ≈ 3.2.
const MAX_CANDIDATES_PER_FLOW: f64 = 4096.0;

/// Most DDoS junk flows [`ScenarioSpec::validate`] lets a spec add over all
/// its chains: ≈ 0.9 GiB of [`FlowRecord`]s, over 100× the 125 k junk flows
/// of `million-flow`.
const MAX_JUNK_FLOWS: usize = 1 << 24;

/// The rejection sampler's envelope: the diurnal peak times the largest
/// flash-crowd factor (at least 1).
fn envelope(load: &ChainLoad) -> f64 {
    let d = 1.0 + load.diurnal.map(|d| d.amplitude).unwrap_or(0.0);
    let s = flash_crowds(load).map(|s| s.factor).fold(1.0, f64::max);
    d * s
}

fn flash_crowds(load: &ChainLoad) -> impl Iterator<Item = &Surge> {
    load.surges
        .iter()
        .filter(|s| s.kind == SurgeKind::FlashCrowd)
}

impl ScenarioSpec {
    /// Reject loads outside their documented domains before any draw: a
    /// diurnal amplitude outside `[0, 1)`, and a surge factor, tail index
    /// α or per-flow rate that is not finite and positive. A NaN or
    /// all-zero intensity envelope would otherwise leave the rejection
    /// sampler spinning forever, and the rest would draw nonsense.
    ///
    /// Then bound the work generation would do, against two fixed
    /// budgets, with [`ScenarioError::OverBudget`]: the rejection
    /// sampler's expected candidates per flow (`expected_candidates`, at
    /// most `MAX_CANDIDATES_PER_FLOW`), and the DDoS junk flows of all
    /// chains together (at most `MAX_JUNK_FLOWS`, compared before any
    /// truncating cast and summed with checked arithmetic). A tiny
    /// flash-crowd factor would otherwise slow the sampler in proportion,
    /// and a huge DDoS factor ask for more flow records than memory holds.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        let positive = |v: f64| v.is_finite() && v > 0.0;
        let mut junk = 0usize;
        for (chain, load) in self.chains.iter().enumerate() {
            let bad = |field: &'static str, value: f64| {
                Err(ScenarioError::InvalidLoad {
                    chain,
                    field,
                    value,
                })
            };
            if !positive(load.flow_rate_pps) {
                return bad("flow_rate_pps", load.flow_rate_pps);
            }
            if !positive(load.size.alpha) {
                return bad("size.alpha", load.size.alpha);
            }
            if let Some(d) = load.diurnal {
                if !(0.0..1.0).contains(&d.amplitude) {
                    return bad("diurnal.amplitude", d.amplitude);
                }
            }
            if let Some(s) = load.surges.iter().find(|s| !positive(s.factor)) {
                return bad("surges.factor", s.factor);
            }
            let over = |what: &'static str, expected: f64, budget: f64| ScenarioError::OverBudget {
                chain,
                what,
                expected,
                budget,
            };
            let candidates = self.expected_candidates(load);
            if candidates.is_nan() || candidates > MAX_CANDIDATES_PER_FLOW {
                return Err(over(
                    "rejection candidates per flow",
                    candidates,
                    MAX_CANDIDATES_PER_FLOW,
                ));
            }
            for (_, extra) in self.ddos_surges(load) {
                junk = Some(extra)
                    .filter(|&n| n <= MAX_JUNK_FLOWS as f64)
                    .and_then(|n| junk.checked_add(n as usize))
                    .filter(|&total| total <= MAX_JUNK_FLOWS)
                    .ok_or_else(|| {
                        over(
                            "DDoS junk flows",
                            junk as f64 + extra,
                            MAX_JUNK_FLOWS as f64,
                        )
                    })?;
            }
        }
        Ok(())
    }

    /// Expected rejection-sampler candidates per accepted start of `load`:
    /// the envelope over the horizon mean of what a candidate is accepted
    /// under, `min(intensity, envelope)`. Between consecutive flash-crowd
    /// boundaries the product of active factors is constant and the
    /// diurnal term integrates in closed form. Capping that product at the
    /// largest single factor keeps each piece under the envelope and never
    /// over the intensity, so the figure never reads low.
    fn expected_candidates(&self, load: &ChainLoad) -> f64 {
        let horizon = self.horizon_ns.max(1);
        let top = flash_crowds(load).map(|s| s.factor).fold(1.0, f64::max);
        let mut cuts: Vec<u64> = flash_crowds(load)
            .flat_map(|s| [s.start_ns, s.start_ns.saturating_add(s.duration_ns)])
            .chain([0, horizon])
            .filter(|&t| t <= horizon)
            .collect();
        cuts.sort_unstable();
        cuts.dedup();
        let mass: f64 = cuts
            .windows(2)
            .map(|w| {
                let (a, b) = (w[0], w[1]);
                let product: f64 = flash_crowds(load)
                    .filter(|s| s.active(a))
                    .map(|s| s.factor)
                    .product();
                let diurnal = load.diurnal.map_or((b - a) as f64, |d| d.integral(a, b));
                product.min(top) * diurnal
            })
            .sum();
        envelope(load) * horizon as f64 / mass
    }

    /// [`ScenarioSpec::try_materialize`] for a spec known to be valid.
    ///
    /// # Panics
    /// With the [`ScenarioError`]'s text when the spec fails
    /// [`ScenarioSpec::validate`].
    pub fn materialize(&self) -> Scenario {
        self.try_materialize().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Generate the concrete flow table. Deterministic in `seed`: flow
    /// start times are drawn by rejection sampling against the chain's
    /// diurnal × flash-crowd intensity curve, sizes by inverse CDF, and
    /// DDoS junk flows are added inside their surge windows.
    ///
    /// The table is built in `(chain, start_ns, flow_id)` order rather
    /// than sorted afterwards: a chain's regular flows get their ids in
    /// start order, so only its junk flows need sorting before they merge
    /// in (at equal start the regular flow, whose id is smaller, first).
    ///
    /// # Errors
    /// The [`ScenarioSpec::validate`] error of a spec outside its domain.
    pub fn try_materialize(&self) -> Result<Scenario, ScenarioError> {
        self.validate()?;
        let total: usize = self
            .chains
            .iter()
            .map(|load| {
                load.flows
                    + self
                        .ddos_surges(load)
                        .map(|(_, n)| n as usize)
                        .sum::<usize>()
            })
            .sum();
        let mut flows = Vec::with_capacity(total);
        let mut junk = Vec::new();
        for (ci, load) in self.chains.iter().enumerate() {
            let mut rng =
                StdRng::seed_from_u64(self.seed ^ (ci as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
            let interval_ns = (1e9 / load.flow_rate_pps).max(1.0) as u64;
            let record = |start_ns: u64, size_packets: u64, ddos: bool, flow_id: u64| {
                // Arrivals strictly before the horizon.
                let span = self.horizon_ns.saturating_sub(start_ns);
                let horizon_cap = if span == 0 {
                    0
                } else {
                    1 + (span - 1) / interval_ns
                };
                FlowRecord {
                    chain: ci,
                    flow_id,
                    start_ns,
                    interval_ns,
                    packets: size_packets.min(horizon_cap),
                    size_packets,
                    ddos,
                }
            };
            let mut starts = self.draw_starts(load, &mut rng);
            starts.sort_unstable();
            let base = flows.len();
            let cdf = InverseCdf::new(&load.size);
            for (id, start) in starts.into_iter().enumerate() {
                let size = cdf.sample(rng.gen::<f64>());
                flows.push(record(start, size, false, id as u64));
            }
            // DDoS junk: (factor−1) × the nominal arrival mass of the
            // surge window, all minimum-size flows.
            let mut id = load.flows as u64;
            junk.clear();
            for (s, extra) in self.ddos_surges(load) {
                for _ in 0..extra as usize {
                    let t = s.start_ns + rng.gen_range(0..s.duration_ns.max(1));
                    let start = t.min(self.horizon_ns.saturating_sub(1));
                    junk.push(record(start, load.size.min_packets, true, id));
                    id += 1;
                }
            }
            junk.sort_unstable_by_key(|f| (f.start_ns, f.flow_id));
            merge_from_back(&mut flows, base, &junk);
        }
        Ok(Scenario {
            horizon_ns: self.horizon_ns,
            n_chains: self.chains.len(),
            flows,
        })
    }

    /// Each DDoS surge of `load` with the number of junk flows it adds,
    /// before the truncating cast to a count.
    fn ddos_surges<'a>(&self, load: &'a ChainLoad) -> impl Iterator<Item = (&'a Surge, f64)> {
        let horizon = self.horizon_ns.max(1) as f64;
        load.surges
            .iter()
            .filter(|s| s.kind == SurgeKind::Ddos)
            .map(move |s| {
                let share = s.duration_ns as f64 / horizon;
                (s, (s.factor - 1.0).max(0.0) * load.flows as f64 * share)
            })
    }

    /// `load.flows` start times (unsorted), rejection-sampled against the
    /// chain's intensity curve under its peak envelope.
    ///
    /// Most candidates are decided without `sin`: `intensity(t)` lies
    /// within `[lo, hi]`, the diurnal term at `sin = ∓1` times the active
    /// flash-crowd factors multiplied in `intensity`'s order. Every step
    /// is monotone under round-to-nearest — `a·s` in `s` for `a ≥ 0`,
    /// `1 + x` in `x`, `x·f` in `x` for `f > 0` — so `lo ≤ intensity(t)
    /// ≤ hi` holds exactly in floating point on every valid spec, and a
    /// draw at or below `lo` (above `hi`) is accepted (rejected) exactly
    /// as the full evaluation would.
    fn draw_starts(&self, load: &ChainLoad, rng: &mut StdRng) -> Vec<u64> {
        let flash: Vec<&Surge> = flash_crowds(load).collect();
        let peak = envelope(load);
        // The diurnal term at sin = ∓1: `a·∓1` is exact, so these are
        // `1 + a·sin` at its extremes to the last bit.
        let (lo0, hi0) = match load.diurnal {
            Some(d) => (1.0 - d.amplitude, 1.0 + d.amplitude),
            None => (1.0, 1.0),
        };
        let intensity = |t: u64| -> f64 {
            let mut f = load.diurnal.map(|d| d.factor(t)).unwrap_or(1.0);
            for s in &flash {
                if s.active(t) {
                    f *= s.factor;
                }
            }
            f
        };
        let mut starts = Vec::with_capacity(load.flows);
        while starts.len() < load.flows {
            let t = rng.gen_range(0..self.horizon_ns.max(1));
            let y = rng.gen::<f64>() * peak;
            let (mut lo, mut hi) = (lo0, hi0);
            for s in &flash {
                if s.active(t) {
                    lo *= s.factor;
                    hi *= s.factor;
                }
            }
            if y <= lo || (y <= hi && y <= intensity(t)) {
                starts.push(t);
            }
        }
        starts
    }
}

/// Merge `junk`, sorted by `(start_ns, flow_id)`, into the sorted run
/// `flows[base..]` of one chain's regular flows, from the back so no
/// record moves twice. Junk ids follow every regular id, so at equal
/// `start_ns` a junk flow goes after the regular one.
fn merge_from_back(flows: &mut Vec<FlowRecord>, base: usize, junk: &[FlowRecord]) {
    let mut i = flows.len();
    flows.extend_from_slice(junk);
    let mut j = junk.len();
    let mut k = flows.len();
    while j > 0 {
        k -= 1;
        if i > base && junk[j - 1].start_ns < flows[i - 1].start_ns {
            i -= 1;
            flows[k] = flows[i];
        } else {
            j -= 1;
            flows[k] = junk[j];
        }
    }
}

/// One `(window, chain)` cell of analytic-tail mass. All counts are exact
/// integers, so charging a cell keeps the conservation ledger balanced.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TailCell {
    pub packets: u64,
    pub bytes: u64,
    pub new_flows: u64,
    /// The subset of `packets` carried by [`SurgeKind::Ddos`] junk flows
    /// — the mass overload admission control may deny.
    pub junk_packets: u64,
    /// The subset of `new_flows` that are junk flows.
    pub junk_flows: u64,
}

impl TailCell {
    pub fn is_empty(&self) -> bool {
        self.packets == 0 && self.new_flows == 0
    }
}

/// The analytic tail, pre-binned onto the engine's SLO-window grid.
///
/// The grid mirrors the engine's lazy window closes exactly: `warmup`
/// covers `[0, warmup_ns)`, `windows[w]` covers the w-th full guard
/// window, and `rest` covers the partial span between the last full
/// window and the horizon (empty cells when the horizon is aligned).
#[derive(Debug, Clone)]
pub struct TailPlan {
    pub warmup_ns: u64,
    pub window_ns: u64,
    pub horizon_ns: u64,
    /// Per chain: arrivals before measurement starts.
    pub warmup: Vec<TailCell>,
    /// `[window][chain]` cells over the full guard windows.
    pub windows: Vec<Vec<TailCell>>,
    /// Per chain: arrivals in the final partial window.
    pub rest: Vec<TailCell>,
    /// Tail flows per chain (for observability and validation).
    pub tail_flows: Vec<u64>,
    /// Tail packets per chain before the horizon.
    pub tail_packets: Vec<u64>,
}

impl Scenario {
    /// Split point: flows at least this large (by *drawn* size) are
    /// materialized; the rest go to the analytic tail. Returns the
    /// indices of heavy flows.
    pub fn heavy_indices(&self, heavy_min_packets: u64) -> Vec<usize> {
        self.flows
            .iter()
            .enumerate()
            .filter(|(_, f)| f.size_packets >= heavy_min_packets)
            .map(|(i, _)| i)
            .collect()
    }

    /// Bin every non-heavy flow's arrivals onto the window grid.
    /// `frame_len` is the per-chain wire bytes per packet.
    pub fn tail_plan(
        &self,
        heavy_min_packets: u64,
        warmup_ns: u64,
        window_ns: u64,
        frame_len: &[u64],
    ) -> TailPlan {
        assert_eq!(frame_len.len(), self.n_chains, "one frame length per chain");
        let window_ns = window_ns.max(1);
        let n_windows = (self.horizon_ns.saturating_sub(warmup_ns) / window_ns) as usize;
        let mut plan = TailPlan {
            warmup_ns,
            window_ns,
            horizon_ns: self.horizon_ns,
            warmup: vec![TailCell::default(); self.n_chains],
            windows: vec![vec![TailCell::default(); self.n_chains]; n_windows],
            rest: vec![TailCell::default(); self.n_chains],
            tail_flows: vec![0; self.n_chains],
            tail_packets: vec![0; self.n_chains],
        };
        // Cell edges: warmup end, then each full window end, then horizon.
        let edge = |i: usize| -> u64 {
            if i == 0 {
                0
            } else if i <= n_windows + 1 {
                (warmup_ns + (i as u64 - 1) * window_ns).min(self.horizon_ns)
            } else {
                self.horizon_ns
            }
        };
        let cell_of_start = |start: u64| -> usize {
            if start < warmup_ns {
                0
            } else {
                (1 + ((start - warmup_ns) / window_ns) as usize).min(n_windows + 1)
            }
        };
        for f in &self.flows {
            if f.size_packets >= heavy_min_packets || f.packets == 0 {
                continue;
            }
            plan.tail_flows[f.chain] += 1;
            plan.tail_packets[f.chain] += f.packets;
            // Walk only the cells the flow's schedule overlaps.
            let first = cell_of_start(f.start_ns);
            let mut before_prev = f.arrivals_before(edge(first));
            debug_assert_eq!(before_prev, 0);
            for i in first..n_windows + 2 {
                let before_end = f.arrivals_before(edge(i + 1));
                let n = before_end - before_prev;
                before_prev = before_end;
                if n > 0 {
                    let cell = if i == 0 {
                        &mut plan.warmup[f.chain]
                    } else if i <= n_windows {
                        &mut plan.windows[i - 1][f.chain]
                    } else {
                        &mut plan.rest[f.chain]
                    };
                    cell.packets += n;
                    cell.bytes += n * frame_len[f.chain];
                    if f.ddos {
                        cell.junk_packets += n;
                    }
                    if i == first {
                        cell.new_flows += 1;
                        if f.ddos {
                            cell.junk_flows += 1;
                        }
                    }
                }
                if before_end == f.packets {
                    break;
                }
            }
        }
        plan
    }
}

/// Packet-by-packet source over a set of materialized flows of one chain
/// — the heavy-hitter counterpart of [`crate::ChainSource`], driven by a
/// min-heap over per-flow CBR schedules.
pub struct FlowPacketSource {
    /// `(chain-relative) flow table`, only this chain's heavy flows.
    flows: Vec<FlowRecord>,
    /// Packets already emitted per flow.
    emitted: Vec<u64>,
    /// `(next_arrival_ns, flow_idx)` min-heap.
    heap: BinaryHeap<Reverse<(u64, usize)>>,
    /// Source prefix base (the chain's classifier `/24`).
    prefix_base: u32,
    /// A whole frame of this source with everything its packets share
    /// already in place — MACs, EtherType, the IPv4 header but for the
    /// addresses and checksum, UDP destination port and length. A packet
    /// is a clone of it with the flow's five-tuple, fill byte and the two
    /// checksums patched in. Nothing is kept per flow: a packet-level run
    /// holds a million flows.
    template: PacketBuf,
    /// Surge-fault rate multiplier (1.0 nominally); scales the *gaps*
    /// of future arrivals, mirroring `ChainSource::set_rate_factor`.
    rate_factor: f64,
    horizon_ns: u64,
}

impl FlowPacketSource {
    /// Build from the scenario's flows for `chain`, keeping only the
    /// given indices (the heavy set; pass all indices for a full
    /// packet-level run).
    pub fn new(
        scenario: &Scenario,
        chain: usize,
        keep: impl Fn(&FlowRecord) -> bool,
        prefix: ipv4::Cidr,
        payload_len: usize,
    ) -> FlowPacketSource {
        let flows: Vec<FlowRecord> = scenario
            .flows
            .iter()
            .filter(|f| f.chain == chain && f.packets > 0 && keep(f))
            .copied()
            .collect();
        let mut heap = BinaryHeap::with_capacity(flows.len());
        for (i, f) in flows.iter().enumerate() {
            heap.push(Reverse((f.start_ns, i)));
        }
        let unset = ipv4::Address::new(0, 0, 0, 0);
        let template = lemur_packet::builder::udp_packet(
            ethernet::Address([2, 0, 0, 0, 0, 0x10]),
            ethernet::Address([2, 0, 0, 0, 0, 0x20]),
            unset,
            unset,
            0,
            DST_PORT,
            &vec![0; payload_len],
        );
        FlowPacketSource {
            emitted: vec![0; flows.len()],
            flows,
            heap,
            prefix_base: prefix.address().to_u32(),
            template,
            rate_factor: 1.0,
            horizon_ns: scenario.horizon_ns,
        }
    }

    /// Timestamp of the next packet (`u64::MAX` when exhausted).
    pub fn peek_time(&self) -> u64 {
        self.heap
            .peek()
            .map(|Reverse((t, _))| *t)
            .unwrap_or(u64::MAX)
    }

    /// Total packets this source will emit (for sizing checks).
    pub fn total_packets(&self) -> u64 {
        self.flows.iter().map(|f| f.packets).sum()
    }

    /// Mirror of [`crate::ChainSource::set_rate_factor`]: future
    /// inter-packet gaps divide by `factor`.
    pub fn set_rate_factor(&mut self, factor: f64) {
        assert!(factor > 0.0, "rate factor must be positive");
        self.rate_factor = factor;
    }

    /// Produce the next packet; `None` when every flow is exhausted.
    pub fn next_packet(&mut self) -> Option<(u64, PacketBuf)> {
        let Reverse((t, idx)) = self.heap.pop()?;
        let f = self.flows[idx];
        self.emitted[idx] += 1;
        if self.emitted[idx] < f.packets {
            let gap = ((f.interval_ns as f64 / self.rate_factor) as u64).max(1);
            let next = t + gap;
            if next < self.horizon_ns {
                self.heap.push(Reverse((next, idx)));
            }
        }
        // The frame `udp_packet` would build around a payload of
        // `flow_id as u8` bytes, without building the payload, copying it
        // or reading it back: the payload is one byte repeated, so its
        // contribution to the UDP checksum is a product.
        let (src, dst, sport) = flow_tuple(self.prefix_base, f.flow_id);
        let fill = f.flow_id as u8;
        let mut pkt = self.template.clone();
        let mut ip = ipv4::Packet::new_unchecked(&mut pkt.as_mut_slice()[ethernet::HEADER_LEN..]);
        ip.set_src(src);
        ip.set_dst(dst);
        ip.fill_checksum();
        let mut u = udp::Packet::new_unchecked(ip.payload_mut());
        u.set_src_port(sport);
        let udp_len = u.length();
        let payload = u.payload_mut();
        payload.fill(fill);
        let sum = checksum::fold(
            checksum::pseudo_header_v4(src.0, dst.0, 17, udp_len)
                + u32::from(sport)
                + u32::from(DST_PORT)
                + u32::from(udp_len)
                + constant_fill_sum(fill, payload.len()),
        );
        // RFC 768: an all-zero computed checksum is transmitted as all-ones.
        u.set_checksum_field(if sum == 0 { 0xffff } else { sum });
        Some((t, pkt))
    }
}

/// UDP destination port of every generated flow.
const DST_PORT: u16 = 80;

/// Ones-complement sum (RFC 1071, folded to 16 bits) of `len` bytes all
/// equal to `fill`: ⌊len/2⌋ words `fill·0x0101` plus, for odd `len`, the
/// last byte as a high-order byte. Equals
/// `checksum::ones_complement_sum(0, &vec![fill; len])` modulo `0xffff`.
fn constant_fill_sum(fill: u8, len: usize) -> u32 {
    let word = u64::from(u16::from_be_bytes([fill, fill]));
    let odd = u64::from(u16::from_be_bytes([fill, 0])) * (len % 2) as u64;
    let mut acc = (len / 2) as u64 * word + odd;
    while acc > 0xffff {
        acc = (acc & 0xffff) + (acc >> 16);
    }
    acc as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ScenarioSpec {
        ScenarioSpec {
            seed: 7,
            horizon_ns: 10_000_000,
            chains: vec![ChainLoad {
                flows: 200,
                flow_rate_pps: 100_000.0,
                size: FlowSizeDist {
                    alpha: 1.1,
                    min_packets: 2,
                    max_packets: 10_000,
                },
                diurnal: Some(Diurnal {
                    period_ns: 10_000_000,
                    amplitude: 0.3,
                }),
                surges: vec![Surge {
                    kind: SurgeKind::FlashCrowd,
                    start_ns: 4_000_000,
                    duration_ns: 2_000_000,
                    factor: 3.0,
                }],
            }],
        }
    }

    #[test]
    fn materialize_is_deterministic() {
        let a = spec().materialize();
        let b = spec().materialize();
        assert_eq!(a.flows, b.flows);
        assert_eq!(a.flows.len(), 200);
    }

    #[test]
    fn sizes_are_heavy_tailed_and_bounded() {
        let s = spec().materialize();
        let sizes: Vec<u64> = s.flows.iter().map(|f| f.size_packets).collect();
        assert!(sizes.iter().all(|&x| (2..=10_000).contains(&x)));
        // Mice dominate by count…
        let small = sizes.iter().filter(|&&x| x <= 10).count();
        assert!(
            small * 2 > sizes.len(),
            "only {small} mice of {}",
            sizes.len()
        );
        // …while a few elephants exist.
        assert!(sizes.iter().any(|&x| x >= 100));
    }

    #[test]
    fn flash_crowd_skews_start_times() {
        let s = spec().materialize();
        let in_surge = s
            .flows
            .iter()
            .filter(|f| (4_000_000..6_000_000).contains(&f.start_ns))
            .count();
        // The surge window is 20% of the horizon but at 3× intensity it
        // should attract well over 20% of the flows.
        assert!(
            in_surge as f64 > 0.3 * s.flows.len() as f64,
            "{in_surge} of {} flows in surge window",
            s.flows.len()
        );
    }

    #[test]
    fn ddos_adds_min_size_flows() {
        let mut sp = spec();
        sp.chains[0].surges = vec![Surge {
            kind: SurgeKind::Ddos,
            start_ns: 2_000_000,
            duration_ns: 5_000_000,
            factor: 3.0,
        }];
        let s = sp.materialize();
        let junk: Vec<_> = s.flows.iter().filter(|f| f.ddos).collect();
        assert_eq!(junk.len(), 200); // (3−1) × 200 × 0.5
        assert!(junk.iter().all(|f| f.size_packets == 2));
        assert!(junk
            .iter()
            .all(|f| (2_000_000..7_000_000).contains(&f.start_ns)));
    }

    /// The inverse CDF as it was written before its constants were
    /// hoisted: three `powf` per draw.
    fn sample_reference(d: &FlowSizeDist, u: f64) -> u64 {
        let l = d.min_packets.max(1) as f64;
        let h = (d.max_packets.max(d.min_packets.max(1))) as f64;
        if l >= h {
            return l as u64;
        }
        let la = l.powf(-d.alpha);
        let ha = h.powf(-d.alpha);
        let x = (la - u * (la - ha)).powf(-1.0 / d.alpha);
        (x as u64).clamp(d.min_packets.max(1), d.max_packets)
    }

    /// `materialize` as it was written before the envelope bounds, the
    /// presized table and the junk merge: every candidate evaluates
    /// `intensity`, and the whole table is stable-sorted at the end.
    fn materialize_reference(spec: &ScenarioSpec) -> Scenario {
        let mut flows = Vec::new();
        for (ci, load) in spec.chains.iter().enumerate() {
            let mut rng =
                StdRng::seed_from_u64(spec.seed ^ (ci as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
            let interval_ns = (1e9 / load.flow_rate_pps).max(1.0) as u64;
            let peak = {
                let d = 1.0 + load.diurnal.map(|d| d.amplitude).unwrap_or(0.0);
                let s = load
                    .surges
                    .iter()
                    .filter(|s| s.kind == SurgeKind::FlashCrowd)
                    .map(|s| s.factor)
                    .fold(1.0, f64::max);
                d * s
            };
            let intensity = |t: u64| -> f64 {
                let mut f = load.diurnal.map(|d| d.factor(t)).unwrap_or(1.0);
                for s in &load.surges {
                    if s.kind == SurgeKind::FlashCrowd && s.active(t) {
                        f *= s.factor;
                    }
                }
                f
            };
            let mut starts: Vec<u64> = Vec::with_capacity(load.flows);
            while starts.len() < load.flows {
                let t = rng.gen_range(0..spec.horizon_ns.max(1));
                if rng.gen::<f64>() * peak <= intensity(t) {
                    starts.push(t);
                }
            }
            starts.sort_unstable();
            let mut push = |start_ns: u64, size_packets: u64, ddos: bool, id: &mut u64| {
                let horizon_cap = {
                    let span = spec.horizon_ns.saturating_sub(start_ns);
                    if span == 0 {
                        0
                    } else {
                        1 + (span - 1) / interval_ns
                    }
                };
                flows.push(FlowRecord {
                    chain: ci,
                    flow_id: *id,
                    start_ns,
                    interval_ns,
                    packets: size_packets.min(horizon_cap),
                    size_packets,
                    ddos,
                });
                *id += 1;
            };
            let mut id = 0u64;
            for start in starts {
                let size = sample_reference(&load.size, rng.gen::<f64>());
                push(start, size, false, &mut id);
            }
            for s in &load.surges {
                if s.kind != SurgeKind::Ddos {
                    continue;
                }
                let share = s.duration_ns as f64 / spec.horizon_ns.max(1) as f64;
                let extra = ((s.factor - 1.0).max(0.0) * load.flows as f64 * share) as usize;
                for _ in 0..extra {
                    let t = s.start_ns + rng.gen_range(0..s.duration_ns.max(1));
                    push(
                        t.min(spec.horizon_ns.saturating_sub(1)),
                        load.size.min_packets,
                        true,
                        &mut id,
                    );
                }
            }
        }
        flows.sort_by_key(|f| (f.chain, f.start_ns, f.flow_id));
        Scenario {
            horizon_ns: spec.horizon_ns,
            n_chains: spec.chains.len(),
            flows,
        }
    }

    #[test]
    fn inverse_cdf_matches_sample_on_grid() {
        let dists = [
            (1.1, 2, 10_000),
            (1.0, 1, 2_048),
            (0.5, 0, 5),
            (3.0, 7, 1_000_000),
            (1.3, 9, 9),
            (2.0, 40, 3),
            (1.1, u64::MAX - 1, u64::MAX),
        ];
        let grid = (0..=1_000)
            .map(|i| i as f64 / 1_000.0)
            .filter(|&u| u < 1.0)
            .chain([f64::EPSILON, 0.5 - f64::EPSILON, 1.0 - f64::EPSILON / 2.0]);
        for (alpha, min_packets, max_packets) in dists {
            let d = FlowSizeDist {
                alpha,
                min_packets,
                max_packets,
            };
            let cdf = InverseCdf::new(&d);
            for u in grid.clone() {
                let want = sample_reference(&d, u);
                assert_eq!(cdf.sample(u), want, "{d:?} at u = {u}");
                assert_eq!(d.sample(u), want, "{d:?} at u = {u}");
            }
        }
    }

    #[test]
    fn test_specs_validate() {
        let mut ddos = spec();
        ddos.chains[0].surges[0].kind = SurgeKind::Ddos;
        for sp in [spec(), ddos] {
            assert_eq!(sp.validate(), Ok(()));
            assert_eq!(sp.materialize().flows, materialize_reference(&sp).flows);
        }
    }

    /// `field` of `spec()`'s chain 0 set to each bad value: refused with
    /// a typed error naming the field, and `materialize` panics instead
    /// of spinning.
    fn assert_rejected(field: &str, bad: &[f64], set: impl Fn(&mut ChainLoad, f64)) {
        for &value in bad {
            let mut sp = spec();
            set(&mut sp.chains[0], value);
            let err = sp
                .try_materialize()
                .expect_err("out-of-domain load accepted");
            let ScenarioError::InvalidLoad {
                chain,
                field: got,
                value: v,
            } = err
            else {
                panic!("expected InvalidLoad, got {err}");
            };
            assert_eq!((chain, got), (0, field));
            assert!(v == value || (v.is_nan() && value.is_nan()));
            assert!(err.to_string().contains(field), "{err}");
            let panicked = std::panic::catch_unwind(|| sp.materialize()).is_err();
            assert!(panicked, "materialize accepted {field} = {value}");
        }
    }

    #[test]
    fn validate_rejects_bad_flow_rate() {
        assert_rejected(
            "flow_rate_pps",
            &[0.0, -1.0, f64::NAN, f64::INFINITY],
            |l, v| l.flow_rate_pps = v,
        );
    }

    #[test]
    fn validate_rejects_bad_alpha() {
        assert_rejected(
            "size.alpha",
            &[0.0, -1.1, f64::NAN, f64::INFINITY],
            |l, v| l.size.alpha = v,
        );
    }

    #[test]
    fn validate_rejects_bad_diurnal_amplitude() {
        // NaN used to hang the rejection sampler; the others leave the
        // documented [0, 1) (a negative one inverts the curve).
        assert_rejected(
            "diurnal.amplitude",
            &[f64::NAN, -0.1, 1.0, 1.5, f64::INFINITY],
            |l, v| l.diurnal.as_mut().unwrap().amplitude = v,
        );
    }

    #[test]
    fn validate_rejects_bad_surge_factor() {
        // A zero flash crowd over the whole horizon used to hang the
        // rejection sampler; an infinite DDoS factor asks for usize::MAX
        // junk flows.
        assert_rejected("surges.factor", &[0.0, -2.0, f64::NAN], |l, v| {
            l.surges[0].factor = v;
        });
        assert_rejected("surges.factor", &[0.0, f64::INFINITY], |l, v| {
            l.surges = vec![Surge {
                kind: SurgeKind::FlashCrowd,
                start_ns: 0,
                duration_ns: 10_000_000,
                factor: v,
            }];
        });
        assert_rejected("surges.factor", &[f64::INFINITY, -1.0], |l, v| {
            l.surges[0].kind = SurgeKind::Ddos;
            l.surges[0].factor = v;
        });
    }

    /// `f` on a thread of its own; fails if it has not answered in 5 s.
    fn within_watchdog<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || tx.send(f()));
        rx.recv_timeout(std::time::Duration::from_secs(5))
            .expect("still running after 5 s")
    }

    /// Specs inside every field's domain whose generation used to run
    /// unbounded — a 1e-9 flash crowd over the whole horizon kept the
    /// sampler drawing ≈ 1e9 candidates per flow, a 1e30 DDoS saturated
    /// the junk count and wrapped the table size, and a 1e9 DDoS aborted
    /// on a 560 GB allocation — are refused over budget, at once.
    #[test]
    fn validate_bounds_generation_work() {
        let tiny = |surge: Surge| ScenarioSpec {
            seed: 1,
            horizon_ns: 1_000_000,
            chains: vec![ChainLoad {
                flows: 10,
                surges: vec![surge],
                ..spec().chains[0].clone()
            }],
        };
        let whole = |kind, factor| Surge {
            kind,
            start_ns: 0,
            duration_ns: 1_000_000,
            factor,
        };
        let cases = [
            (
                whole(SurgeKind::FlashCrowd, 1e-9),
                "rejection candidates per flow",
            ),
            (whole(SurgeKind::Ddos, 1e30), "DDoS junk flows"),
            (whole(SurgeKind::Ddos, 1e9), "DDoS junk flows"),
        ];
        for (surge, what) in cases {
            let sp = tiny(surge);
            let err = within_watchdog(move || sp.try_materialize().map(|s| s.flows.len()))
                .expect_err("over-budget spec accepted");
            let ScenarioError::OverBudget {
                chain,
                what: got,
                expected,
                budget,
            } = err
            else {
                panic!("expected OverBudget, got {err}");
            };
            assert_eq!((chain, got), (0, what), "{surge:?}");
            assert!(expected > budget, "{err}");
            assert!(err.to_string().contains(what), "{err}");
        }
        // Just inside the budgets both ways: it validates, and draws.
        let mut sp = tiny(whole(SurgeKind::FlashCrowd, 1.0 / 2048.0));
        sp.chains[0].diurnal = None;
        assert!((sp.expected_candidates(&sp.chains[0]) - 2048.0).abs() < 1e-6);
        assert_eq!(within_watchdog(move || sp.materialize().flows.len()), 10);
        // (Validated only: drawing this many junk flows takes ≈ 0.9 GiB.)
        let sp = tiny(whole(SurgeKind::Ddos, 1.0 + MAX_JUNK_FLOWS as f64 / 10.5));
        assert_eq!(sp.validate(), Ok(()));
        let mut two = tiny(whole(
            SurgeKind::Ddos,
            1.0 + MAX_JUNK_FLOWS as f64 / 20.0 + 1.0,
        ));
        two.chains.push(two.chains[0].clone());
        assert!(matches!(
            two.validate(),
            Err(ScenarioError::OverBudget { chain: 1, .. })
        ));
    }

    /// The closed-form estimate on `million-flow`'s shape (diurnal period =
    /// horizon, a ×3 flash crowd over the fifth eighth, a ×2 DDoS): ≈ 3.2
    /// candidates per flow, as a fine Riemann sum of `min(intensity,
    /// envelope)` gives it.
    #[test]
    fn expected_candidates_match_riemann_sum() {
        let horizon_ns = 25_000_000u64;
        let mut sp = spec();
        sp.horizon_ns = horizon_ns;
        let load = &mut sp.chains[0];
        load.diurnal = Some(Diurnal {
            period_ns: horizon_ns,
            amplitude: 0.3,
        });
        load.surges = vec![
            Surge {
                kind: SurgeKind::FlashCrowd,
                start_ns: horizon_ns / 2,
                duration_ns: horizon_ns / 8,
                factor: 3.0,
            },
            Surge {
                kind: SurgeKind::Ddos,
                start_ns: horizon_ns * 5 / 8,
                duration_ns: horizon_ns / 8,
                factor: 2.0,
            },
        ];
        let riemann = |load: &ChainLoad| {
            let steps = 200_000u64;
            let peak = envelope(load);
            let mean = (0..steps)
                .map(|i| {
                    let t = i * horizon_ns / steps;
                    let mut f = load.diurnal.map_or(1.0, |d| d.factor(t));
                    for s in flash_crowds(load).filter(|s| s.active(t)) {
                        f *= s.factor;
                    }
                    f.min(peak)
                })
                .sum::<f64>()
                / steps as f64;
            peak / mean
        };
        let closed = sp.expected_candidates(&sp.chains[0]);
        assert!((3.1..3.3).contains(&closed), "{closed}");
        assert!(
            (closed / riemann(&sp.chains[0]) - 1.0).abs() < 1e-3,
            "{closed}"
        );
        // Flash crowds, one below 1 and two that overlap past the envelope:
        // the capped product only ever reads the estimate high.
        sp.chains[0].surges = [(0.1, 0, 2), (4.0, 2, 5), (5.0, 4, 8)]
            .map(|(factor, from, to)| Surge {
                kind: SurgeKind::FlashCrowd,
                start_ns: horizon_ns * from / 8,
                duration_ns: horizon_ns * (to - from) / 8,
                factor,
            })
            .to_vec();
        let (closed, sum) = (
            sp.expected_candidates(&sp.chains[0]),
            riemann(&sp.chains[0]),
        );
        assert!(closed >= sum * (1.0 - 1e-3), "{closed} vs {sum}");
    }

    /// A horizon of a few nanoseconds puts many regular and junk flows on
    /// the same start: the regular flow, whose id is smaller, goes first.
    #[test]
    fn merge_puts_regular_flow_first_at_equal_start() {
        let mut sp = spec();
        sp.horizon_ns = 8;
        sp.chains[0].diurnal = None;
        sp.chains[0].surges = vec![Surge {
            kind: SurgeKind::Ddos,
            start_ns: 0,
            duration_ns: 8,
            factor: 2.0,
        }];
        let s = sp.materialize();
        let ties = s
            .flows
            .windows(2)
            .filter(|w| w[0].start_ns == w[1].start_ns && !w[0].ddos && w[1].ddos)
            .count();
        assert!(ties > 0, "vacuous: no regular/junk tie");
        assert!(s
            .flows
            .windows(2)
            .all(|w| (w[0].start_ns, w[0].flow_id) < (w[1].start_ns, w[1].flow_id)));
        assert_eq!(s.flows, materialize_reference(&sp).flows);
    }

    mod differential {
        use super::*;
        use proptest::prelude::*;

        /// Raw draws for one chain; [`build`] turns them into a load
        /// once the horizon is known.
        type RawChain = (
            (usize, f64, u8, f64),
            (u64, bool, u64),
            (bool, f64, f64),
            Vec<(bool, u8, f64, f64, bool, f64)>,
        );

        fn raw_chain() -> impl Strategy<Value = RawChain> {
            (
                (0usize..3_001, 1_000.0f64..1e6, 0u8..4, 0.5f64..3.0),
                (0u64..10, prop::bool::ANY, 0u64..5_000),
                (prop::bool::ANY, 0.0f64..1.0, 0.0f64..2.0),
                prop::collection::vec(
                    (
                        prop::bool::ANY,
                        0u8..3,
                        0.0f64..1.0,
                        0.0f64..1.0,
                        prop::bool::ANY,
                        0.1f64..8.0,
                    ),
                    0..=3,
                ),
            )
        }

        fn build(horizon_ns: u64, raw: RawChain) -> ChainLoad {
            let ((flows, flow_rate_pps, alpha_sel, alpha), (min, point, extra), diurnal, surges) =
                raw;
            let (diurnal_on, amplitude, period_frac) = diurnal;
            ChainLoad {
                flows,
                flow_rate_pps,
                size: FlowSizeDist {
                    alpha: match alpha_sel {
                        0 => 1.0,
                        1 => 3.0,
                        _ => alpha,
                    },
                    min_packets: min,
                    max_packets: if point { min } else { min + extra },
                },
                diurnal: diurnal_on.then(|| Diurnal {
                    period_ns: ((period_frac * horizon_ns as f64) as u64).max(1),
                    amplitude,
                }),
                surges: surges
                    .into_iter()
                    .map(|(ddos, at, start_frac, dur_frac, max_factor, factor)| {
                        let duration_ns = (dur_frac * horizon_ns as f64) as u64;
                        Surge {
                            kind: if ddos {
                                SurgeKind::Ddos
                            } else {
                                SurgeKind::FlashCrowd
                            },
                            // From the horizon's start, up to its end, or
                            // anywhere inside it.
                            start_ns: match at {
                                0 => 0,
                                1 => horizon_ns - duration_ns,
                                _ => (start_frac * (horizon_ns - duration_ns) as f64) as u64,
                            },
                            duration_ns,
                            factor: if max_factor { 8.0 } else { factor },
                        }
                    })
                    .collect(),
            }
        }

        fn any_spec() -> impl Strategy<Value = ScenarioSpec> {
            (
                any::<u64>(),
                (prop::bool::ANY, 1u64..64, 1_000u64..20_000_000),
                prop::collection::vec(raw_chain(), 1..=3),
            )
                .prop_map(|(seed, (tiny, short, long), chains)| {
                    let horizon_ns = if tiny { short } else { long };
                    ScenarioSpec {
                        seed,
                        horizon_ns,
                        chains: chains.into_iter().map(|c| build(horizon_ns, c)).collect(),
                    }
                })
        }

        proptest! {
            #![cases = 160]

            /// The bounded rejection sampler, the hoisted inverse CDF and
            /// the merged junk flows reproduce the reference's flow table
            /// record for record.
            #[test]
            fn materialize_matches_reference(spec in any_spec()) {
                prop_assert_eq!(spec.validate(), Ok(()));
                let got = spec.materialize();
                let want = materialize_reference(&spec);
                prop_assert_eq!(got.flows.len(), want.flows.len());
                for (i, (g, w)) in got.flows.iter().zip(&want.flows).enumerate() {
                    prop_assert_eq!(g, w, "flow {i} differs on {spec:?}");
                }
                prop_assert_eq!(got.horizon_ns, want.horizon_ns);
                prop_assert_eq!(got.n_chains, want.n_chains);
            }
        }
    }

    #[test]
    fn arrivals_before_is_exact() {
        let f = FlowRecord {
            chain: 0,
            flow_id: 0,
            start_ns: 100,
            interval_ns: 10,
            packets: 5,
            size_packets: 5,
            ddos: false,
        };
        // Arrivals at 100, 110, 120, 130, 140.
        assert_eq!(f.arrivals_before(100), 0);
        assert_eq!(f.arrivals_before(101), 1);
        assert_eq!(f.arrivals_before(110), 1);
        assert_eq!(f.arrivals_before(111), 2);
        assert_eq!(f.arrivals_before(1_000), 5);
    }

    #[test]
    fn tail_plan_conserves_mass() {
        let s = spec().materialize();
        let total: u64 = s.flows.iter().map(|f| f.packets).sum();
        let plan = s.tail_plan(u64::MAX, 1_000_000, 1_000_000, &[100]);
        // θ = MAX: everything is tail. Every packet lands in exactly one
        // cell, and every flow registers exactly one new_flows increment.
        let binned: u64 = plan.warmup.iter().map(|c| c.packets).sum::<u64>()
            + plan
                .windows
                .iter()
                .flat_map(|w| w.iter())
                .map(|c| c.packets)
                .sum::<u64>()
            + plan.rest.iter().map(|c| c.packets).sum::<u64>();
        assert_eq!(binned, total);
        assert_eq!(plan.tail_packets[0], total);
        let flows_binned: u64 = plan.warmup.iter().map(|c| c.new_flows).sum::<u64>()
            + plan
                .windows
                .iter()
                .flat_map(|w| w.iter())
                .map(|c| c.new_flows)
                .sum::<u64>()
            + plan.rest.iter().map(|c| c.new_flows).sum::<u64>();
        assert_eq!(flows_binned, plan.tail_flows[0]);
        // Bytes are packets × frame everywhere.
        for c in plan.windows.iter().flat_map(|w| w.iter()) {
            assert_eq!(c.bytes, c.packets * 100);
        }
    }

    #[test]
    fn tail_plan_splits_junk_mass_exactly() {
        let mut sp = spec();
        sp.chains[0].surges = vec![Surge {
            kind: SurgeKind::Ddos,
            start_ns: 2_000_000,
            duration_ns: 5_000_000,
            factor: 3.0,
        }];
        let s = sp.materialize();
        let junk_total: u64 = s.flows.iter().filter(|f| f.ddos).map(|f| f.packets).sum();
        let junk_flows = s.flows.iter().filter(|f| f.ddos).count() as u64;
        let plan = s.tail_plan(u64::MAX, 1_000_000, 1_000_000, &[100]);
        let cells = plan
            .warmup
            .iter()
            .chain(plan.windows.iter().flat_map(|w| w.iter()))
            .chain(plan.rest.iter());
        let (mut jp, mut jf) = (0u64, 0u64);
        for c in cells {
            assert!(c.junk_packets <= c.packets, "junk is a subset of packets");
            assert!(c.junk_flows <= c.new_flows, "junk flows subset");
            jp += c.junk_packets;
            jf += c.junk_flows;
        }
        assert!(junk_total > 0, "vacuous: no junk generated");
        assert_eq!(jp, junk_total);
        assert_eq!(jf, junk_flows);
    }

    #[test]
    fn heavy_split_partitions_packets() {
        let s = spec().materialize();
        let theta = 50;
        let heavy: u64 = s
            .flows
            .iter()
            .filter(|f| f.size_packets >= theta)
            .map(|f| f.packets)
            .sum();
        let plan = s.tail_plan(theta, 1_000_000, 1_000_000, &[100]);
        let total: u64 = s.flows.iter().map(|f| f.packets).sum();
        assert_eq!(heavy + plan.tail_packets[0], total);
    }

    #[test]
    fn flow_source_replays_schedule_exactly() {
        let s = spec().materialize();
        let prefix = ipv4::Cidr::new(ipv4::Address::new(10, 0, 1, 0), 24).unwrap();
        let mut src = FlowPacketSource::new(&s, 0, |_| true, prefix, 100);
        let total: u64 = s.flows.iter().map(|f| f.packets).sum();
        assert_eq!(src.total_packets(), total);
        let mut n = 0u64;
        let mut last = 0u64;
        while let Some((t, pkt)) = src.next_packet() {
            assert!(t >= last, "time went backwards");
            assert!(t < s.horizon_ns);
            last = t;
            n += 1;
            if n == 1 {
                let tuple = lemur_packet::flow::FiveTuple::parse(pkt.as_slice()).unwrap();
                assert!(prefix.contains(tuple.src_ip), "src outside chain prefix");
            }
        }
        assert_eq!(n, total);
        assert_eq!(src.peek_time(), u64::MAX);
    }
}
