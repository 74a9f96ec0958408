//! The end-to-end fleet soak: coordinator + PoPs + lossy channel +
//! seeded storm, ticked in lockstep virtual time, with a packet-exact
//! conservation ledger, per-tick fencing checks, and a post-storm
//! packet-level validation of every surviving PoP through the real
//! dataplane under its own supervisor.
//!
//! Everything — channel fates, storm windows, crash truncation, traffic —
//! draws from seeded generators, so a run is a pure function of
//! `(spec, config)` and must reproduce bit-identically regardless of
//! `LEMUR_WORKERS` (the placer's parallelism is internally
//! deterministic). [`FleetReport`] implements `PartialEq` precisely so
//! soaks can assert that.

use lemur_control::chaos::{fleet_storm, FleetChaosConfig};
use lemur_control::{Supervisor, SupervisorConfig};
use lemur_core::chains::{canonical_chain, CanonicalChain};
use lemur_core::graph::ChainSpec;
use lemur_core::Slo;
use lemur_dataplane::{FaultPlan, SimConfig, Testbed, TrafficSpec};
use lemur_nf::NfKind;
use lemur_placer::hierarchy::assign_chains;
use lemur_placer::oracle::StageOracle;
use lemur_placer::parallel::Workers;
use lemur_placer::profiles::NfProfiles;
use lemur_placer::topology::Topology;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

use crate::channel::{ChannelConfig, LossyChannel};
use crate::coordinator::{FleetConfig, FleetCoordinator};
use crate::msg::{Endpoint, Envelope, OverloadLevel};
use crate::pop::PopRuntime;

/// The workload: a chain catalog spread over a PoP fleet.
#[derive(Debug, Clone)]
pub struct FleetSpec {
    pub chains: Vec<ChainSpec>,
    /// Traffic specs aligned with `chains` (drive validation runs).
    pub traffic: Vec<TrafficSpec>,
    /// Global indices of chains with migratable NF state.
    pub stateful: Vec<usize>,
    pub topologies: Vec<Topology>,
}

impl FleetSpec {
    /// The canonical soak workload: two chains per PoP cycling the Table 2
    /// catalog, 1 Gbps `t_min` each, distinct priorities (higher index =
    /// lower priority = shed first), two servers per rack. Chains whose
    /// graph contains a NAT are stateful.
    pub fn canonical(n_pops: usize) -> FleetSpec {
        let n_chains = n_pops * 2;
        let mut chains = Vec::new();
        let mut traffic = Vec::new();
        let mut stateful = Vec::new();
        for i in 0..n_chains {
            let which = [
                CanonicalChain::Chain2,
                CanonicalChain::Chain3,
                CanonicalChain::Chain1,
            ][i % 3];
            let graph = canonical_chain(which);
            if graph.nodes().any(|(_, n)| n.kind == NfKind::Nat) {
                stateful.push(i);
            }
            let spec = TrafficSpec::for_chain(i + 1, 1e9).expect("chain index in range");
            chains.push(ChainSpec {
                name: format!("fleet{i}"),
                aggregate: Some(spec.aggregate()),
                graph,
                slo: Some(Slo::elastic_pipe(1e9, 100e9).with_priority((n_chains - i) as u8)),
            });
            traffic.push(spec);
        }
        FleetSpec {
            chains,
            traffic,
            stateful,
            topologies: vec![Topology::with_servers(2); n_pops],
        }
    }

    pub fn n_pops(&self) -> usize {
        self.topologies.len()
    }
}

/// Soak parameters. `chaos` must target `topologies.len()` PoPs.
#[derive(Debug, Clone)]
pub struct FleetSimConfig {
    pub seed: u64,
    pub duration_ns: u64,
    pub tick_ns: u64,
    /// Synthetic packets per chain per tick.
    pub packets_per_tick: u32,
    /// PoP status-report period.
    pub report_every_ns: u64,
    pub channel: ChannelConfig,
    pub fleet: FleetConfig,
    pub chaos: FleetChaosConfig,
    pub workers: Workers,
    /// Run post-storm packet-level validation sims per surviving PoP.
    pub validate: bool,
    /// Virtual duration of each validation sim.
    pub validation_s: f64,
    /// Overload storm: `(victim PoP, start_ns, end_ns)`. Inside the
    /// window the victim's local ladder reports `Shedding` on every
    /// status; everyone else reports `Calm`. `None` leaves all PoPs calm
    /// (and keeps pre-overload soak reports bit-identical).
    pub overload_storm: Option<(usize, u64, u64)>,
}

impl FleetSimConfig {
    /// The standard 12 ms soak against [`FleetChaosConfig::soak`] weather.
    pub fn soak(seed: u64, n_pops: usize) -> FleetSimConfig {
        FleetSimConfig {
            seed,
            duration_ns: 12_000_000,
            tick_ns: 50_000,
            packets_per_tick: 4,
            report_every_ns: 250_000,
            channel: ChannelConfig {
                seed,
                ..ChannelConfig::default()
            },
            fleet: FleetConfig {
                seed,
                ..FleetConfig::default()
            },
            chaos: FleetChaosConfig::soak(seed, n_pops),
            workers: Workers::new(1),
            validate: true,
            validation_s: 0.012,
            overload_storm: None,
        }
    }
}

/// One surviving PoP's post-storm validation through the real dataplane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PopValidation {
    pub pop: usize,
    /// Global chain indices validated there.
    pub chains: Vec<usize>,
    /// Whether the subproblem compiled + built at all.
    pub ran: bool,
    /// Supervisor ended Converged/GracefulDegraded.
    pub settled: bool,
    /// The dataplane's packet ledger balanced exactly.
    pub balanced: bool,
    pub commits: usize,
}

impl Serialize for PopValidation {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("pop".to_string(), self.pop.to_value()),
            ("chains".to_string(), self.chains.to_value()),
            ("ran".to_string(), self.ran.to_value()),
            ("settled".to_string(), self.settled.to_value()),
            ("balanced".to_string(), self.balanced.to_value()),
            ("commits".to_string(), self.commits.to_value()),
        ])
    }
}

/// Everything a soak measures. Integer-only (plus short strings), so
/// equality is exact and worker-count reproducibility is a `==`.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    pub seed: u64,
    // Fleet-level packet ledger.
    pub generated: u64,
    pub forwarded: u64,
    pub nf_dropped: u64,
    pub dropped_unowned: u64,
    pub conservation_ok: bool,
    // Channel copy ledger.
    pub channel_sent: u64,
    pub channel_duplicated: u64,
    pub channel_delivered: u64,
    pub channel_dropped: u64,
    pub channel_in_flight: u64,
    pub channel_conserved: bool,
    /// Ticks on which ≥2 PoPs were simultaneously live for one chain.
    pub fencing_events: u64,
    // Storm + control-plane counters.
    pub blackout_victim: Option<usize>,
    pub coordinator_recoveries: u64,
    pub drains: u64,
    pub failovers: u64,
    pub state_failovers: u64,
    pub sheds: u64,
    pub welcomes: u64,
    pub regrants: u64,
    pub adopted: u64,
    pub gave_up: u64,
    /// Chains the coordinator moved off a PoP reporting sustained
    /// overload, before its ladder had to shed them.
    pub overload_rebalances: u64,
    /// Displaced chains sent home after their origin PoP calmed down.
    pub overload_restores: u64,
    pub state_restores: u64,
    pub fresh_starts: u64,
    pub duplicate_replays: u64,
    // Final fleet state.
    pub shed_chains: Vec<usize>,
    /// (chain, home PoP, token), ascending by chain.
    pub final_owners: Vec<(usize, usize, u64)>,
    pub pop_health: Vec<String>,
    /// Every non-shed chain live at exactly one PoP, at its journaled home.
    pub settled: bool,
    /// Coordinator + every PoP journal replays to the live state.
    pub wal_consistent: bool,
    pub validations: Vec<PopValidation>,
}

impl FleetReport {
    /// The soak's four hard invariants in one verdict.
    pub fn invariants_hold(&self) -> bool {
        self.conservation_ok
            && self.channel_conserved
            && self.fencing_events == 0
            && self.settled
            && self.wal_consistent
            && self
                .validations
                .iter()
                .all(|v| v.ran && v.settled && v.balanced)
    }
}

impl Serialize for FleetReport {
    fn to_value(&self) -> serde::Value {
        let owners: Vec<serde::Value> = self
            .final_owners
            .iter()
            .map(|&(chain, pop, token)| {
                serde::Value::Object(vec![
                    ("chain".to_string(), chain.to_value()),
                    ("pop".to_string(), pop.to_value()),
                    ("token".to_string(), token.to_value()),
                ])
            })
            .collect();
        serde::Value::Object(vec![
            ("seed".to_string(), self.seed.to_value()),
            ("generated".to_string(), self.generated.to_value()),
            ("forwarded".to_string(), self.forwarded.to_value()),
            ("nf_dropped".to_string(), self.nf_dropped.to_value()),
            (
                "dropped_unowned".to_string(),
                self.dropped_unowned.to_value(),
            ),
            (
                "conservation_ok".to_string(),
                self.conservation_ok.to_value(),
            ),
            ("channel_sent".to_string(), self.channel_sent.to_value()),
            (
                "channel_duplicated".to_string(),
                self.channel_duplicated.to_value(),
            ),
            (
                "channel_delivered".to_string(),
                self.channel_delivered.to_value(),
            ),
            (
                "channel_dropped".to_string(),
                self.channel_dropped.to_value(),
            ),
            (
                "channel_in_flight".to_string(),
                self.channel_in_flight.to_value(),
            ),
            (
                "channel_conserved".to_string(),
                self.channel_conserved.to_value(),
            ),
            ("fencing_events".to_string(), self.fencing_events.to_value()),
            (
                "blackout_victim".to_string(),
                self.blackout_victim.to_value(),
            ),
            (
                "coordinator_recoveries".to_string(),
                self.coordinator_recoveries.to_value(),
            ),
            ("drains".to_string(), self.drains.to_value()),
            ("failovers".to_string(), self.failovers.to_value()),
            (
                "state_failovers".to_string(),
                self.state_failovers.to_value(),
            ),
            ("sheds".to_string(), self.sheds.to_value()),
            ("welcomes".to_string(), self.welcomes.to_value()),
            ("regrants".to_string(), self.regrants.to_value()),
            ("adopted".to_string(), self.adopted.to_value()),
            ("gave_up".to_string(), self.gave_up.to_value()),
            (
                "overload_rebalances".to_string(),
                self.overload_rebalances.to_value(),
            ),
            (
                "overload_restores".to_string(),
                self.overload_restores.to_value(),
            ),
            ("state_restores".to_string(), self.state_restores.to_value()),
            ("fresh_starts".to_string(), self.fresh_starts.to_value()),
            (
                "duplicate_replays".to_string(),
                self.duplicate_replays.to_value(),
            ),
            ("shed_chains".to_string(), self.shed_chains.to_value()),
            ("final_owners".to_string(), serde::Value::Array(owners)),
            ("pop_health".to_string(), self.pop_health.to_value()),
            ("settled".to_string(), self.settled.to_value()),
            ("wal_consistent".to_string(), self.wal_consistent.to_value()),
            (
                "validations".to_string(),
                serde::Value::Array(self.validations.iter().map(|v| v.to_value()).collect()),
            ),
            (
                "invariants_hold".to_string(),
                self.invariants_hold().to_value(),
            ),
        ])
    }
}

/// The soak driver. Construct, then [`FleetSim::run`].
pub struct FleetSim {
    spec: FleetSpec,
    cfg: FleetSimConfig,
}

impl FleetSim {
    pub fn new(spec: FleetSpec, cfg: FleetSimConfig) -> FleetSim {
        assert_eq!(
            cfg.chaos.n_pops,
            spec.n_pops(),
            "storm must target the fleet's PoPs"
        );
        FleetSim { spec, cfg }
    }

    /// Run the whole soak. Deterministic in `(spec, cfg)`.
    pub fn run(&self, oracle: &dyn StageOracle) -> FleetReport {
        let spec = &self.spec;
        let cfg = &self.cfg;
        let n_pops = spec.n_pops();
        let n_chains = spec.chains.len();

        let storm = fleet_storm(&cfg.chaos);
        let blackout_victim = storm.blackout_victim();
        let crashes = storm.coordinator_crashes();
        let mut channel = LossyChannel::new(cfg.channel, storm.channel_faults());
        let mut coordinator = FleetCoordinator::new(
            cfg.fleet,
            spec.chains.clone(),
            spec.stateful.clone(),
            spec.topologies.clone(),
            NfProfiles::table4(),
            cfg.workers,
        );
        let mut pops: Vec<PopRuntime> = (0..n_pops)
            .map(|site| PopRuntime::new(site, &spec.stateful, cfg.report_every_ns))
            .collect();
        // Torn-tail sizes for coordinator crashes, drawn up-front so the
        // storm schedule and crash damage are one seeded stream.
        let mut crash_rng = StdRng::seed_from_u64(cfg.seed ^ 0x70a5_7c4a_53d0_0000u64);

        for env in coordinator.boot(0, oracle) {
            channel.send(0, env);
        }

        let mut ledger = TrafficLedger::default();
        let mut recoveries = 0u64;
        // Coordinator stats survive crashes only if we accumulate them.
        let mut lost_stats = crate::coordinator::CoordStats::default();

        let mut next_crash = 0usize;
        let ticks = cfg.duration_ns / cfg.tick_ns;
        for t in 0..=ticks {
            let now = t * cfg.tick_ns;

            while next_crash < crashes.len() && crashes[next_crash] <= now {
                next_crash += 1;
                let image = coordinator.durable_image().to_vec();
                let cut = (crash_rng.gen_range(0u64..24) as usize).min(image.len());
                accumulate(&mut lost_stats, &coordinator.stats);
                coordinator = FleetCoordinator::recover(
                    cfg.fleet,
                    spec.chains.clone(),
                    spec.stateful.clone(),
                    spec.topologies.clone(),
                    NfProfiles::table4(),
                    cfg.workers,
                    &image[..image.len() - cut],
                    now,
                );
                recoveries += 1;
            }

            let mut coord_inbox = Vec::new();
            let mut pop_inboxes: Vec<Vec<Envelope>> = vec![Vec::new(); n_pops];
            for env in channel.poll(now) {
                match env.to {
                    Endpoint::Coordinator => coord_inbox.push(env),
                    Endpoint::Pop(i) if i < n_pops => pop_inboxes[i].push(env),
                    Endpoint::Pop(_) => {}
                }
            }

            for env in coordinator.tick(now, coord_inbox, oracle) {
                channel.send(now, env);
            }
            // Drive each PoP's self-reported ladder level from the
            // configured overload storm before its status can fire.
            if let Some((victim, from_ns, until_ns)) = cfg.overload_storm {
                for (i, pop) in pops.iter_mut().enumerate() {
                    let level = if i == victim && now >= from_ns && now < until_ns {
                        OverloadLevel::Shedding
                    } else {
                        OverloadLevel::Calm
                    };
                    pop.set_overload(level);
                }
            }
            for (i, inbox) in pop_inboxes.into_iter().enumerate() {
                let mut replies = Vec::new();
                for env in inbox {
                    replies.extend(pops[i].handle(now, &env));
                }
                replies.extend(pops[i].tick(now));
                for env in replies {
                    channel.send(now, env);
                }
            }

            ledger.tick(&mut pops, now, n_chains, cfg.packets_per_tick);
        }

        accumulate(&mut lost_stats, &coordinator.stats);
        let cstats = lost_stats;
        let horizon = ticks * cfg.tick_ns;

        let shed_chains: Vec<usize> = coordinator.shed().iter().copied().collect();
        let settled = settled(&coordinator, &pops, n_chains, horizon);

        // Journals must replay to the live state on both sides.
        let coord_replay = coordinator.wal().replay();
        let mut wal_consistent = coordinator.wal().is_consistent()
            && coord_replay.owners == *coordinator.assignment()
            && coord_replay.fleet_shed == shed_chains;
        for pop in &pops {
            wal_consistent &= pop.wal().is_consistent() && pop.wal_matches_owned();
        }

        let validations = if cfg.validate {
            self.validate(&coordinator, oracle)
        } else {
            Vec::new()
        };

        let stats = channel.stats();
        let pop_stats = pops.iter().map(|p| p.stats).collect::<Vec<_>>();
        FleetReport {
            seed: cfg.seed,
            generated: ledger.generated,
            forwarded: ledger.forwarded,
            nf_dropped: ledger.nf_dropped,
            dropped_unowned: ledger.dropped_unowned,
            conservation_ok: ledger.generated
                == ledger.forwarded + ledger.nf_dropped + ledger.dropped_unowned,
            channel_sent: stats.sent,
            channel_duplicated: stats.duplicated,
            channel_delivered: stats.delivered,
            channel_dropped: stats.dropped,
            channel_in_flight: channel.in_flight() as u64,
            channel_conserved: stats.conserved(channel.in_flight()),
            fencing_events: ledger.fencing_events,
            blackout_victim,
            coordinator_recoveries: recoveries,
            drains: cstats.drains,
            failovers: cstats.failovers,
            state_failovers: cstats.state_failovers,
            sheds: cstats.sheds,
            welcomes: cstats.welcomes,
            regrants: cstats.regrants,
            adopted: cstats.adopted,
            gave_up: cstats.gave_up,
            overload_rebalances: cstats.overload_rebalances,
            overload_restores: cstats.overload_restores,
            state_restores: pop_stats.iter().map(|s| s.state_restores).sum(),
            fresh_starts: pop_stats.iter().map(|s| s.fresh_starts).sum(),
            duplicate_replays: pop_stats.iter().map(|s| s.duplicate_replays).sum(),
            shed_chains,
            final_owners: coordinator
                .assignment()
                .iter()
                .map(|(&chain, &(pop, token))| (chain, pop, token))
                .collect(),
            pop_health: coordinator.health().iter().map(|h| h.to_string()).collect(),
            settled,
            wal_consistent,
            validations,
        }
    }

    /// Post-storm validation: re-solve each PoP's final chain set as an
    /// ordinary placement subproblem, compile it, and run it through the
    /// real dataplane under its own supervisor. Survivors must settle and
    /// conserve packets exactly.
    fn validate(
        &self,
        coordinator: &FleetCoordinator,
        oracle: &dyn StageOracle,
    ) -> Vec<PopValidation> {
        let spec = &self.spec;
        let cfg = &self.cfg;
        let mut locked: Vec<Vec<usize>> = vec![Vec::new(); spec.n_pops()];
        for (&chain, &(pop, _)) in coordinator.assignment() {
            locked[pop].push(chain);
        }
        let fp = assign_chains(
            &spec.chains,
            &spec.topologies,
            &locked,
            &[],
            &NfProfiles::table4(),
            oracle,
            cfg.workers,
        );
        let mut out = Vec::new();
        for plan in &fp.pops {
            if plan.chains.is_empty() {
                continue;
            }
            let failed = |pop: usize, chains: &[usize]| PopValidation {
                pop,
                chains: chains.to_vec(),
                ran: false,
                settled: false,
                balanced: false,
                commits: 0,
            };
            let (Some(problem), Some(placement)) = (&plan.problem, &plan.placement) else {
                out.push(failed(plan.pop, &plan.chains));
                continue;
            };
            let Ok(deployment) = lemur_metacompiler::compile(problem, placement) else {
                out.push(failed(plan.pop, &plan.chains));
                continue;
            };
            let mut sup = Supervisor::new(
                problem,
                placement,
                &deployment,
                oracle,
                SupervisorConfig {
                    seed: cfg.seed ^ plan.pop as u64,
                    ..SupervisorConfig::default()
                },
            );
            let Ok(mut testbed) = Testbed::build(problem, placement, deployment) else {
                out.push(failed(plan.pop, &plan.chains));
                continue;
            };
            let specs: Vec<TrafficSpec> = plan
                .chains
                .iter()
                .enumerate()
                .map(|(local, &global)| {
                    let mut s = spec.traffic[global].clone();
                    s.offered_bps = (placement.chain_rates_bps[local] * 1.1).max(1e8);
                    s
                })
                .collect();
            let slos: Vec<Option<Slo>> = problem.chains.iter().map(|c| c.slo).collect();
            let report = testbed.run_supervised(
                &specs,
                SimConfig {
                    duration_s: cfg.validation_s,
                    warmup_s: cfg.validation_s / 5.0,
                    seed: cfg.seed ^ ((plan.pop as u64) << 8),
                    window_ns: 1_000_000,
                    ..SimConfig::default()
                },
                &FaultPlan::new(Vec::new()),
                &slos,
                &mut sup,
            );
            out.push(PopValidation {
                pop: plan.pop,
                chains: plan.chains.clone(),
                ran: true,
                settled: sup.is_settled(),
                balanced: report.ledger.balanced(),
                commits: report.commits(),
            });
        }
        out
    }
}

/// The fleet-level packet ledger, and the fencing violations met while
/// filling it.
#[derive(Default)]
struct TrafficLedger {
    generated: u64,
    forwarded: u64,
    nf_dropped: u64,
    dropped_unowned: u64,
    /// Ticks on which ≥2 PoPs were simultaneously live for one chain.
    fencing_events: u64,
}

impl TrafficLedger {
    /// One tick of synthetic traffic: each chain's packets go to whichever
    /// PoP is live for it. Two live PoPs for one chain is the fencing
    /// violation this whole design exists to prevent; the first serves.
    fn tick(&mut self, pops: &mut [PopRuntime], now: u64, n_chains: usize, packets: u32) {
        let live: Vec<Vec<usize>> = pops.iter().map(|p| p.live_chains(now)).collect();
        for chain in 0..n_chains {
            let claimants: Vec<usize> = (0..pops.len())
                .filter(|&i| live[i].contains(&chain))
                .collect();
            self.generated += u64::from(packets);
            match claimants.as_slice() {
                [] => self.dropped_unowned += u64::from(packets),
                [first, rest @ ..] => {
                    if !rest.is_empty() {
                        self.fencing_events += 1;
                    }
                    let (f, d) = pops[*first].process(now, chain, packets);
                    self.forwarded += f;
                    self.nf_dropped += d;
                }
            }
        }
    }
}

/// Every non-shed chain is live at exactly its journaled home PoP at `now`.
fn settled(coordinator: &FleetCoordinator, pops: &[PopRuntime], n_chains: usize, now: u64) -> bool {
    (0..n_chains)
        .filter(|chain| !coordinator.shed().contains(chain))
        .all(|chain| {
            let home = coordinator.assignment().get(&chain).map(|&(p, _)| p);
            let live_at: Vec<usize> = (0..pops.len())
                .filter(|&i| pops[i].live_chains(now).contains(&chain))
                .collect();
            home.is_some_and(|h| live_at == [h])
        })
}

fn accumulate(into: &mut crate::coordinator::CoordStats, from: &crate::coordinator::CoordStats) {
    into.drains += from.drains;
    into.failovers += from.failovers;
    into.state_failovers += from.state_failovers;
    into.sheds += from.sheds;
    into.regrants += from.regrants;
    into.adopted += from.adopted;
    into.welcomes += from.welcomes;
    into.rejected_acks += from.rejected_acks;
    into.gave_up += from.gave_up;
    into.overload_rebalances += from.overload_rebalances;
    into.overload_restores += from.overload_restores;
}

#[cfg(test)]
mod tests {
    use super::*;
    use lemur_placer::oracle::AlwaysFits;

    /// A quick 2-PoP soak with validation off: the cheap determinism and
    /// ledger gate (the full battery lives in tests/fleet_invariants.rs
    /// and the exp_fleet binary).
    #[test]
    fn quick_soak_holds_core_invariants() {
        let spec = FleetSpec::canonical(2);
        let mut cfg = FleetSimConfig::soak(3, 2);
        cfg.validate = false;
        let sim = FleetSim::new(spec, cfg);
        let report = sim.run(&AlwaysFits);
        assert!(report.conservation_ok, "{report:?}");
        assert!(report.channel_conserved, "{report:?}");
        assert_eq!(report.fencing_events, 0, "{report:?}");
        assert!(report.settled, "{report:?}");
        assert!(report.wal_consistent, "{report:?}");
        assert_eq!(report.drains, 1, "the guaranteed blackout must drain");
        assert!(report.failovers + report.sheds >= 1);
    }

    /// A sustained overload storm on one PoP makes the coordinator move
    /// load off it cross-PoP, through the lossy channel, without ever
    /// double-owning a chain — and the soak still settles and conserves.
    #[test]
    fn overload_storm_moves_load_off_the_surging_pop() {
        // The chaos schedule (and thus the blackout victim) is a pure
        // function of the chaos config, so a probe run tells us which
        // PoP dies — the overload storm then targets a different one.
        let probe = {
            let mut cfg = FleetSimConfig::soak(3, 3);
            cfg.validate = false;
            FleetSim::new(FleetSpec::canonical(3), cfg).run(&AlwaysFits)
        };
        let blackout = probe.blackout_victim.unwrap_or(0);
        let storm_pop = (blackout + 1) % 3;

        let mut cfg = FleetSimConfig::soak(3, 3);
        cfg.validate = false;
        cfg.overload_storm = Some((storm_pop, 1_000_000, 5_000_000));
        let report = FleetSim::new(FleetSpec::canonical(3), cfg).run(&AlwaysFits);
        assert!(
            report.overload_rebalances >= 1,
            "sustained shedding must move load: {report:?}"
        );
        // The two-phase migration must never create a second leased
        // owner, and the fleet must still settle after the storm.
        assert_eq!(report.fencing_events, 0, "{report:?}");
        assert!(report.conservation_ok, "{report:?}");
        assert!(report.channel_conserved, "{report:?}");
        assert!(report.settled, "{report:?}");
        assert!(report.wal_consistent, "{report:?}");
    }

    #[test]
    fn same_seed_same_report() {
        let run = |seed| {
            let spec = FleetSpec::canonical(2);
            let mut cfg = FleetSimConfig::soak(seed, 2);
            cfg.validate = false;
            FleetSim::new(spec, cfg).run(&AlwaysFits)
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }
}
