//! The replay forwarder: re-drives a workload's generated packets through
//! a deployment's artifacts with the same sequence of public calls the
//! engine makes (`engine.rs`: `Hop::AtTor`, `server_hop`, `nic_hop`), but
//! with no virtual time and no queues — so what is left is the host cost
//! of the layers themselves, one span around each call:
//!
//! ```text
//! source.next_packet
//! loop: Switch::process → egress port
//!         0        → delivered
//!         1..100   → Demux::steer → [NfRuntime::process_packet → route]* → demux::mux
//!         100..    → Vm::run
//! ```
//!
//! Whatever the engine's run costs beyond the sum of these layers is the
//! engine itself (event queue, packet table, stations, window accounting):
//! the residual the budget prints.

use crate::adapters::{PacketBuf, RackPlan, ReplayRack, Source, MAX_CHAINED, MAX_HOPS};
use crate::trace::{LayerTotals, SpanId, Tracer};

/// Span layers; a span names its layer by index into this list.
pub const LAYERS: [&str; 8] = [
    "replay.packet",
    "dataplane.source",
    "p4sim.process",
    "bess.steer",
    "nf.segment",
    "packet.parse",
    "bess.mux",
    "ebpf.run",
];
const PACKET: usize = 0;
const SOURCE: usize = 1;
const SWITCH: usize = 2;
const STEER: usize = 3;
const SEGMENT: usize = 4;
const PARSE: usize = 5;
const MUX: usize = 6;
const NIC: usize = 7;

/// What a replay pass did, besides its spans.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReplayCounts {
    pub packets: u64,
    pub delivered: Vec<u64>,
    pub dropped: u64,
    pub nic_steps: u64,
}

impl ReplayCounts {
    pub fn delivered_total(&self) -> u64 {
        self.delivered.iter().sum()
    }
}

pub struct Replay {
    pub counts: ReplayCounts,
    pub tracer: Tracer,
    /// `tracer.totals()`, index-aligned with [`LAYERS`].
    totals: Vec<LayerTotals>,
}

impl Replay {
    pub fn layer(&self, name: &str) -> LayerTotals {
        let i = LAYERS
            .iter()
            .position(|l| *l == name)
            .expect("known replay layer");
        self.totals[i]
    }
}

/// Generate the plan's packets (every chain's source, merged in time
/// order up to the horizon, as the engine injects them) and forward each
/// through `rack`.
pub fn replay(plan: &RackPlan, rack: &mut ReplayRack) -> Replay {
    let mut sources = Source::for_plan(plan);
    let horizon_ns = plan.horizon_ns();
    let mut tracer = Tracer::new(&LAYERS);
    let mut counts = ReplayCounts {
        delivered: vec![0; plan.n_chains()],
        ..ReplayCounts::default()
    };
    while let Some(chain) = (0..sources.len())
        .filter(|&c| sources[c].peek_time() < horizon_ns)
        .min_by_key(|&c| sources[c].peek_time())
    {
        let packet = counts.packets as u32;
        let root = tracer.open(PACKET, None, packet);
        let span = tracer.open(SOURCE, Some(root), packet);
        let (t_ns, mut pkt) = sources[chain].next_packet();
        tracer.close(span);
        counts.packets += 1;
        match forward(rack, &mut tracer, root, packet, t_ns, &mut pkt) {
            Some(steps) => {
                counts.delivered[chain] += 1;
                counts.nic_steps += steps;
            }
            None => counts.dropped += 1,
        }
        tracer.close(root);
    }
    Replay {
        counts,
        totals: tracer.totals(),
        tracer,
    }
}

/// Forward one packet until it leaves on port 0 (`Some(nic steps)`) or is
/// dropped (`None`).
fn forward(
    rack: &mut ReplayRack,
    tracer: &mut Tracer,
    root: SpanId,
    packet: u32,
    t_ns: u64,
    pkt: &mut PacketBuf,
) -> Option<u64> {
    let mut nic_steps = 0;
    for _hop in 0..MAX_HOPS {
        let span = tracer.open(SWITCH, Some(root), packet);
        let port = rack.switch_process(pkt);
        tracer.close(span);
        match port? {
            0 => return Some(nic_steps),
            port @ 1..=99 => {
                let server = (port - 1) as usize;
                if !rack.has_server(server) {
                    return None;
                }
                server_visit(rack, tracer, root, packet, server, t_ns, pkt)?;
            }
            port => {
                let span = tracer.open(NIC, Some(root), packet);
                let steps = rack.nic_run((port - 100) as usize, pkt);
                tracer.close(span);
                nic_steps += steps?;
            }
        }
    }
    None // the engine's MAX_HOPS cap
}

fn server_visit(
    rack: &mut ReplayRack,
    tracer: &mut Tracer,
    root: SpanId,
    packet: u32,
    server: usize,
    t_ns: u64,
    pkt: &mut PacketBuf,
) -> Option<()> {
    let span = tracer.open(STEER, Some(root), packet);
    let steer = rack.steer(server, pkt);
    tracer.close(span);
    let steer = steer?;
    let (mut subgroup, mut replica, mut spi) = (steer.subgroup, steer.replica, steer.spi);
    for _chained in 0..MAX_CHAINED {
        let span = tracer.open(SEGMENT, Some(root), packet);
        let gate = rack.segment(server, subgroup, replica, t_ns, pkt);
        tracer.close(span);
        let (next_spi, next) = rack.route(server, subgroup, gate?, spi);
        spi = next_spi;
        let Some((next_subgroup, replicas)) = next else {
            break;
        };
        subgroup = next_subgroup;
        replica = if replicas <= 1 {
            0
        } else {
            let span = tracer.open(PARSE, Some(root), packet);
            let r = crate::adapters::flow_hash_mod(pkt.as_slice(), replicas);
            tracer.close(span);
            r
        };
    }
    let si = steer.si.checked_sub(1)?;
    let span = tracer.open(MUX, Some(root), packet);
    ReplayRack::mux(pkt, spi, si);
    tracer.close(span);
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapters::{sim_numbers, RackShape, Runtime, Topo};

    /// On a small uncongested Chain-3 run the forwarder delivers exactly
    /// the packets `Testbed::run` delivers, in both runtimes.
    #[test]
    fn replay_delivers_what_the_engine_delivers() {
        let shape = RackShape {
            chains: &[3],
            delta: 0.5,
            topo: Topo::Testbed,
            payload_len: 1458,
            load: 0.5,
            packets: 2_000,
        };
        let plan = RackPlan::place(&shape, 7);
        for runtime in [Runtime::Fused, Runtime::Reference] {
            let mut testbed = plan.build(plan.compile(runtime));
            let report = plan.run(&mut testbed);
            let sim = sim_numbers(&report, &plan.slos);
            assert_eq!(sim.drops, 0, "uncongested run must not drop");

            let mut rack = ReplayRack::load(&plan, plan.compile(runtime));
            let replayed = replay(&plan, &mut rack);
            assert_eq!(replayed.counts.packets, sim.injected);
            assert_eq!(replayed.counts.dropped, 0);
            assert_eq!(replayed.counts.delivered_total(), sim.injected);
            // Every packet crossed the switch at least twice (in and out
            // of the server) and each call got exactly one span.
            let switch = replayed.layer("p4sim.process");
            assert!(switch.count >= 2 * sim.injected, "{switch:?}");
            assert_eq!(replayed.layer("replay.packet").count, sim.injected);
        }
    }
}
