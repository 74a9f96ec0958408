//! The simulated servers and SmartNICs, and the FIFO stations their
//! links and cores are made of.

use super::accounts::SimPacket;
use crate::faults::FaultState;
use crate::report::DropReason;
use lemur_bess::CoreId;
use lemur_ebpf::{Vm, XdpVerdict};
use lemur_metacompiler::bessgen::ServerPipeline;
use lemur_nf::NfCtx;
use rand::rngs::StdRng;
use rand::Rng;

/// Demultiplexer cost per packet (cycles on the demux core).
const DEMUX_CYCLES: f64 = 300.0;

/// A FIFO station with a single server.
#[derive(Debug, Default, Clone, Copy)]
pub(super) struct Station {
    free_at: u64,
}

impl Station {
    /// Try to serve an arrival: returns completion time, or `None` if the
    /// queue is too long (drop).
    #[inline]
    pub(super) fn serve(&mut self, now: u64, service_ns: u64, max_queue_ns: u64) -> Option<u64> {
        let start = now.max(self.free_at);
        if start - now > max_queue_ns {
            return None;
        }
        let done = start + service_ns;
        self.free_at = done;
        Some(done)
    }
}

/// A [`ServerPipeline`]'s routing maps lowered once, at build time, into
/// tables indexed by global subgroup index, so a server visit hashes
/// nothing. The maps stay the source of truth (and stay `pub` for
/// callers outside the engine); a subgroup the maps do not mention — in
/// range or not — answers as they would: no instance, no rewrite, no
/// internal hop, one replica.
pub(super) struct ServerTables {
    routes: Vec<SubgroupRoute>,
}

struct SubgroupRoute {
    /// `inst_of[replica]` = index into `pipeline.instances`.
    inst_of: Vec<Option<usize>>,
    /// Branch rewrites `(incoming spi, gate) → outgoing spi`, sorted.
    gate_spi: Vec<((u32, usize), u32)>,
    /// Intra-server wiring `gate → next subgroup`, sorted.
    next: Vec<(usize, usize)>,
    replica_count: usize,
}

impl ServerTables {
    pub(super) fn lower(pipeline: &ServerPipeline) -> ServerTables {
        let mut routes: Vec<SubgroupRoute> = Vec::new();
        fn route(routes: &mut Vec<SubgroupRoute>, sg: usize) -> &mut SubgroupRoute {
            if routes.len() <= sg {
                routes.resize_with(sg + 1, || SubgroupRoute {
                    inst_of: Vec::new(),
                    gate_spi: Vec::new(),
                    next: Vec::new(),
                    replica_count: 1,
                });
            }
            &mut routes[sg]
        }
        for (&(sg, replica), &inst) in &pipeline.instance_map {
            let inst_of = &mut route(&mut routes, sg).inst_of;
            if inst_of.len() <= replica {
                inst_of.resize(replica + 1, None);
            }
            inst_of[replica] = Some(inst);
        }
        for (&sg, rule) in &pipeline.mux_rules {
            let r = route(&mut routes, sg);
            r.gate_spi = rule.gate_spi.iter().map(|(&k, &v)| (k, v)).collect();
            r.gate_spi.sort_unstable();
        }
        for (&(sg, gate), &next_sg) in &pipeline.internal_next {
            route(&mut routes, sg).next.push((gate, next_sg));
        }
        for (&sg, &n) in &pipeline.replicas {
            route(&mut routes, sg).replica_count = n;
        }
        for r in &mut routes {
            r.next.sort_unstable();
        }
        ServerTables { routes }
    }

    pub(super) fn instance(&self, sg: usize, replica: usize) -> Option<usize> {
        *self.routes.get(sg)?.inst_of.get(replica)?
    }

    pub(super) fn next_spi(&self, sg: usize, spi: u32, gate: usize) -> Option<u32> {
        let rules = &self.routes.get(sg)?.gate_spi;
        let i = rules.binary_search_by_key(&(spi, gate), |&(k, _)| k).ok()?;
        Some(rules[i].1)
    }

    pub(super) fn next_subgroup(&self, sg: usize, gate: usize) -> Option<usize> {
        let next = &self.routes.get(sg)?.next;
        let i = next.binary_search_by_key(&gate, |&(g, _)| g).ok()?;
        Some(next[i].1)
    }

    pub(super) fn replica_count(&self, sg: usize) -> usize {
        self.routes.get(sg).map_or(1, |r| r.replica_count)
    }
}

pub(super) struct ServerSim {
    /// This server's index in the topology.
    pub(super) index: usize,
    pub(super) pipeline: ServerPipeline,
    pub(super) tables: ServerTables,
    pub(super) demux: Station,
    /// Worker-core stations, indexed by core id.
    pub(super) cores: Vec<Station>,
    pub(super) clock_hz: f64,
    /// Discount for instances on the NIC's socket: the profile is
    /// worst-case cross-socket, so same-socket cores run faster.
    pub(super) same_socket_factor: f64,
    pub(super) nic_socket: lemur_bess::SocketId,
    pub(super) spec: lemur_bess::ServerSpec,
}

impl ServerSim {
    /// Demux → subgroup instance(s) → mux. Consecutive same-server
    /// subgroups (created by branch points) chain *inside* the pipeline,
    /// one core hop each, before the packet re-encapsulates — one server
    /// visit on the wire. Returns the time the packet is ready to leave
    /// the server, or the drop reason.
    #[inline]
    pub(super) fn visit(
        &mut self,
        p: &mut SimPacket,
        now: u64,
        max_queue_ns: u64,
        subgroup_cycles: &[f64],
        faults: &FaultState,
        rng: &mut StdRng,
    ) -> Result<u64, DropReason> {
        // Demux core.
        let demux_ns = (DEMUX_CYCLES / self.clock_hz * 1e9) as u64;
        let after_demux = self
            .demux
            .serve(now, demux_ns, max_queue_ns)
            .ok_or(DropReason::QueueOverflow)?;
        let (first_sg, first_replica, key) = self
            .pipeline
            .demux
            .steer(&mut p.buf)
            .ok_or(DropReason::Verdict)?;

        let mut sg_idx = first_sg;
        let mut replica = first_replica;
        let mut spi = key.spi;
        let mut at = after_demux;
        for _chained in 0..16 {
            if faults.crashed_subgroups.contains(&sg_idx) {
                return Err(DropReason::Fault);
            }
            let inst_idx = self
                .tables
                .instance(sg_idx, replica)
                .ok_or(DropReason::Verdict)?;
            let core = self.pipeline.instances[inst_idx].core;
            if faults.failed_cores.contains(&(self.index, core)) {
                return Err(DropReason::Fault);
            }

            // Effective service time: worst-case profile cycles, discounted
            // for same-socket placement and sampled over the Table 4
            // min–max band.
            let base = subgroup_cycles.get(sg_idx).copied().unwrap_or(1000.0);
            let numa = if self.spec.socket_of(CoreId(core)) == self.nic_socket {
                self.same_socket_factor
            } else {
                1.0
            };
            let sample = 0.94 + 0.06 * rng.gen::<f64>();
            let service_ns = (base * numa * sample / self.clock_hz * 1e9) as u64;
            let done = self.cores[core]
                .serve(at, service_ns, max_queue_ns)
                .ok_or(DropReason::QueueOverflow)?;
            at = done;

            // Functional execution.
            let ctx = NfCtx { now_ns: done };
            let gate = self.pipeline.instances[inst_idx]
                .runtime
                .process_packet(&ctx, &mut p.buf)
                .ok_or(DropReason::Verdict)?;

            // Branch decision: rewrite the SPI per the routing plan.
            if let Some(next_spi) = self.tables.next_spi(sg_idx, spi, gate) {
                spi = next_spi;
            }

            // Continue inside the server, or leave.
            match self.tables.next_subgroup(sg_idx, gate) {
                Some(next_sg) => {
                    sg_idx = next_sg;
                    let n = self.tables.replica_count(next_sg);
                    replica = if n <= 1 {
                        0
                    } else {
                        lemur_packet::flow::FiveTuple::parse(p.buf.as_slice())
                            .map(|t| (t.symmetric_hash() % n as u64) as usize)
                            .unwrap_or(0)
                    };
                }
                None => break,
            }
        }

        // Mux: re-encapsulate for the next on-wire segment.
        let si = key.si.checked_sub(1).ok_or(DropReason::Verdict)?;
        lemur_bess::demux::mux(&mut p.buf, spi, si);
        Ok(at)
    }
}

pub(super) struct NicSim {
    pub(super) program: lemur_ebpf::Program,
    pub(super) proc: Station,
    pub(super) link_in: Station,
    pub(super) link_out: Station,
    pub(super) clock_hz: f64,
    pub(super) link_bps: f64,
}

impl NicSim {
    /// Run the NIC's program on the packet, then reserve its egress link.
    /// Returns the time the packet is back on the wire, or the drop reason.
    #[inline]
    pub(super) fn visit(
        &mut self,
        p: &mut SimPacket,
        now: u64,
        max_queue_ns: u64,
    ) -> Result<u64, DropReason> {
        // The VM rewrites the packet's own buffer. A program that errors
        // or does not return `Tx` gets the packet dropped by the caller, so
        // a partially rewritten frame is never observed.
        let result =
            Vm::run(&self.program, p.buf.as_mut_slice()).map_err(|_| DropReason::Verdict)?;
        if result.verdict != XdpVerdict::Tx {
            return Err(DropReason::Verdict);
        }
        // One VM step ≈ one NFP cycle.
        let service_ns = (result.steps as f64 / self.clock_hz * 1e9) as u64;
        let done_at = self
            .proc
            .serve(now, service_ns, max_queue_ns)
            .ok_or(DropReason::QueueOverflow)?;
        let bits = p.buf.len() as f64 * 8.0;
        let ser = (bits / self.link_bps * 1e9) as u64;
        self.link_out
            .serve(done_at, ser, max_queue_ns)
            .ok_or(DropReason::QueueOverflow)
    }
}
