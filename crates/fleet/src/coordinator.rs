//! The global fleet coordinator: hierarchical placement, leases, the
//! PoP-health degradation ladder, and cross-PoP failover — all journaled
//! to a write-ahead [`DecisionLog`] so a coordinator crash replays to a
//! consistent ownership map with strictly fresh fencing tokens.
//!
//! ## Why draining a silent PoP is safe
//!
//! A PoP serves only under a lease renewed exclusively by coordinator
//! heartbeats, and every heartbeat sent at time *S* is delivered no later
//! than *S* + `delay_max_ns` (the channel's hard delay bound — duplicates
//! included), extending the lease to at most *S* + `delay_max_ns` +
//! `lease_ns`. The coordinator stops heartbeating a PoP the moment it is
//! `Unreachable` and remembers `last_hb_sent`; it drains the PoP (and
//! re-grants its chains elsewhere) only once
//!
//! ```text
//! now ≥ last_hb_sent + delay_max_ns + lease_ns + drain_margin_ns
//! ```
//!
//! and the PoP has been silent for `drain_after_ns`. Past that point no
//! message still in flight can extend the victim's lease, so two PoPs can
//! never serve the same chain simultaneously.
//!
//! ## Why a coordinator crash cannot reuse a token
//!
//! Fencing tokens are `(epoch << 40) | counter`. Recovery replays the
//! journal (possibly torn mid-record) and resumes at
//! `max(granted epoch) + 1`, so every post-crash token is strictly larger
//! than anything minted before the crash — including grants lost to the
//! torn tail.
//!
//! Request ids are epoch-scoped the same way (`(epoch << 32) | counter`):
//! PoPs answer duplicates from a cache keyed by request id, so a
//! recovered coordinator must never reuse an id a previous incarnation
//! already spent — a cached pre-crash answer would silently swallow the
//! new command and be mistaken for its acknowledgement.
//!
//! ## Overload propagation
//!
//! Each PoP piggybacks its local degradation-ladder level on every
//! status report. After [`FleetConfig::overload_streak`] consecutive
//! [`OverloadLevel::Shedding`] reports the coordinator fences the PoP
//! out of refugee placement and moves its lowest-priority chain to a
//! calm PoP — *before* the local ladder has to shed it outright. Because
//! the source is alive (unlike a drain), the move is two-phase: a
//! tracked `Revoke` first, and the replacement `Grant` only after the
//! owner's acknowledgement, so no tick ever has two leased owners. The
//! same streak of `Calm` reports unfences the PoP and sends its
//! displaced chains home the same way. Fences and displacement history
//! are deliberately volatile: a coordinator crash forgets them, and the
//! next rounds of status reports rebuild whatever still matters.

use std::collections::{BTreeMap, BTreeSet};

use lemur_control::retry::{Backoff, BackoffPolicy};
use lemur_control::wal::{DecisionLog, PopHealth, WalRecord};
use lemur_core::graph::ChainSpec;
use lemur_dataplane::CrossSiteTransfer;
use lemur_placer::hierarchy::seat_chains;
use lemur_placer::oracle::StageOracle;
use lemur_placer::parallel::Workers;
use lemur_placer::profiles::NfProfiles;
use lemur_placer::topology::Topology;

use crate::msg::{ChainClaim, CtrlMsg, Endpoint, Envelope, OverloadLevel, StateReport};

/// Bits of a fencing token below the epoch.
const TOKEN_EPOCH_SHIFT: u32 = 40;

/// Bits of a request id below the epoch. Epoch-scoping keeps a recovered
/// coordinator's request ids disjoint from every id a previous
/// incarnation minted (whose answers may still sit in PoP reply caches).
const REQ_EPOCH_SHIFT: u32 = 32;

/// Timing and policy knobs. Defaults pair with
/// [`crate::channel::ChannelConfig::default`]: `delay_max_ns` here must
/// be ≥ the channel's, or the drain-safety argument does not hold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetConfig {
    pub seed: u64,
    /// Heartbeat period per healthy PoP.
    pub heartbeat_every_ns: u64,
    /// Lease duration carried by each heartbeat.
    pub lease_ns: u64,
    /// Silence before a PoP is Suspect.
    pub suspect_after_ns: u64,
    /// Silence before a PoP is Unreachable (heartbeats stop).
    pub unreachable_after_ns: u64,
    /// Silence before a PoP may be Drained (subject to the lease bound).
    pub drain_after_ns: u64,
    /// The channel's worst-case delivery delay.
    pub delay_max_ns: u64,
    /// Extra slack on top of the provable lease-expiry bound.
    pub drain_margin_ns: u64,
    /// Consecutive [`OverloadLevel::Shedding`] status reports before the
    /// coordinator moves load off a PoP (and the same count of `Calm`
    /// reports before it unfences the PoP and restores displaced chains).
    pub overload_streak: u32,
    pub backoff: BackoffPolicy,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            seed: 0,
            heartbeat_every_ns: 200_000,
            lease_ns: 600_000,
            suspect_after_ns: 500_000,
            unreachable_after_ns: 900_000,
            drain_after_ns: 1_300_000,
            delay_max_ns: 80_000,
            drain_margin_ns: 100_000,
            overload_streak: 3,
            backoff: BackoffPolicy::default(),
        }
    }
}

/// Coordinator-side counters for reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoordStats {
    pub drains: u64,
    /// Chains re-granted to a surviving PoP after a drain.
    pub failovers: u64,
    /// Failovers that shipped replicated state with the grant.
    pub state_failovers: u64,
    pub sheds: u64,
    /// Anti-entropy re-sends of grants the journal says are owned.
    pub regrants: u64,
    /// Claims adopted from PoP status reports (heals torn-journal loss).
    pub adopted: u64,
    pub welcomes: u64,
    pub rejected_acks: u64,
    /// Requests abandoned after the retry budget (anti-entropy takes over).
    pub gave_up: u64,
    /// Chains moved off a PoP whose ladder reported sustained shedding.
    pub overload_rebalances: u64,
    /// Displaced chains sent home after the PoP reported calm again.
    pub overload_restores: u64,
}

/// What the coordinator believes about one PoP.
#[derive(Debug, Clone, Copy)]
struct PopView {
    health: PopHealth,
    incarnation: u64,
    last_heard_ns: u64,
    last_hb_sent_ns: u64,
    next_hb_ns: u64,
    /// The ladder level the PoP last self-reported.
    overload: OverloadLevel,
    /// Consecutive `Shedding` reports (toward a rebalance trigger).
    shedding_streak: u32,
    /// Consecutive `Calm` reports (toward unfencing).
    calm_streak: u32,
    /// Fenced out of refugee placement until it reports calm again.
    /// Volatile by design: a coordinator crash forgets fences, and the
    /// next round of status reports rebuilds them.
    overload_fenced: bool,
}

/// An unacknowledged request being retried.
struct Pending {
    env: Envelope,
    backoff: Backoff,
    due_ns: u64,
    /// The chain a Grant concerns (suppresses duplicate regrants).
    chain: Option<usize>,
}

/// The global controller of a PoP fleet.
pub struct FleetCoordinator {
    cfg: FleetConfig,
    chains: Vec<ChainSpec>,
    stateful: Vec<usize>,
    topologies: Vec<Topology>,
    profiles: NfProfiles,
    workers: Workers,
    pops: Vec<PopView>,
    /// chain → (home PoP, fencing token) — mirrors the journal replay.
    assignment: BTreeMap<usize, (usize, u64)>,
    shed: BTreeSet<usize>,
    /// chain → last replicated snapshot from its current owner.
    state_cache: BTreeMap<usize, StateReport>,
    pending: BTreeMap<u64, Pending>,
    next_req: u64,
    token_epoch: u64,
    token_ctr: u64,
    /// One-shot post-recovery repair deadline: after this instant the
    /// coordinator re-places chains the torn journal left assigned to a
    /// drained PoP or tracked nowhere at all.
    repair_at_ns: Option<u64>,
    /// PoPs whose shedding streak just crossed the threshold; a chain is
    /// moved off each at the next tick.
    overload_pending: BTreeSet<usize>,
    /// PoPs just unfenced; their displaced chains head home next tick.
    restore_pending: BTreeSet<usize>,
    /// Chains mid two-phase migration off a *live* owner: the Revoke is
    /// in flight or acknowledged but the new grant not yet issued. Claim
    /// anti-entropy ignores these so a stale status cannot resurrect the
    /// old ownership between release and re-seat.
    migrating: BTreeSet<usize>,
    /// chain → origin PoP, for chains moved away by an overload
    /// rebalance. Consumed when the origin calms and the chain is sent
    /// home. Volatile, like the fences.
    displaced: BTreeMap<usize, usize>,
    /// Migration victims whose owners acknowledged release this tick;
    /// seated via `replace_chains` once the oracle is in hand.
    ready_place: Vec<(usize, Option<(usize, u64)>)>,
    wal: DecisionLog,
    /// The append-only durable image (what a crash leaves behind,
    /// possibly with a torn tail).
    wal_image: Vec<u8>,
    pub stats: CoordStats,
}

impl FleetCoordinator {
    pub fn new(
        cfg: FleetConfig,
        chains: Vec<ChainSpec>,
        stateful: Vec<usize>,
        topologies: Vec<Topology>,
        profiles: NfProfiles,
        workers: Workers,
    ) -> FleetCoordinator {
        let n_pops = topologies.len();
        FleetCoordinator {
            cfg,
            chains,
            stateful,
            topologies,
            profiles,
            workers,
            pops: vec![
                PopView {
                    health: PopHealth::Healthy,
                    incarnation: 1,
                    last_heard_ns: 0,
                    last_hb_sent_ns: 0,
                    next_hb_ns: 0,
                    overload: OverloadLevel::Calm,
                    shedding_streak: 0,
                    calm_streak: 0,
                    overload_fenced: false,
                };
                n_pops
            ],
            assignment: BTreeMap::new(),
            shed: BTreeSet::new(),
            state_cache: BTreeMap::new(),
            pending: BTreeMap::new(),
            next_req: 0,
            token_epoch: 1,
            token_ctr: 0,
            repair_at_ns: None,
            overload_pending: BTreeSet::new(),
            restore_pending: BTreeSet::new(),
            migrating: BTreeSet::new(),
            displaced: BTreeMap::new(),
            ready_place: Vec::new(),
            wal: DecisionLog::new(),
            wal_image: Vec::new(),
            stats: CoordStats::default(),
        }
    }

    /// Rebuild a coordinator from the durable journal image a crash left
    /// behind. Volatile state (pending retries, the state cache, liveness
    /// clocks) is gone; ownership, shed set, and PoP health replay from
    /// the longest complete journal prefix, and the token epoch jumps
    /// past everything ever granted.
    #[allow(clippy::too_many_arguments)]
    pub fn recover(
        cfg: FleetConfig,
        chains: Vec<ChainSpec>,
        stateful: Vec<usize>,
        topologies: Vec<Topology>,
        profiles: NfProfiles,
        workers: Workers,
        image: &[u8],
        now_ns: u64,
    ) -> FleetCoordinator {
        let recovery = DecisionLog::recover(image, now_ns);
        let summary = recovery.log.replay();
        let mut c = FleetCoordinator::new(cfg, chains, stateful, topologies, profiles, workers);
        let max_epoch = recovery
            .log
            .records()
            .iter()
            .filter_map(|r| match r {
                WalRecord::FleetGrant { token, .. } => Some(token >> TOKEN_EPOCH_SHIFT),
                _ => None,
            })
            .max()
            .unwrap_or(0);
        c.token_epoch = max_epoch + 1;
        c.assignment = summary.owners.clone();
        c.shed = summary.fleet_shed.iter().copied().collect();
        for (&pop, &health) in &summary.pop_health {
            if pop < c.pops.len() {
                c.pops[pop].health = health;
            }
        }
        for view in &mut c.pops {
            // Grace: nothing has been heard *since recovery*; don't let a
            // stale journal age straight into a drain.
            view.last_heard_ns = now_ns;
            view.last_hb_sent_ns = now_ns;
            view.next_hb_ns = now_ns;
        }
        c.wal = recovery.log;
        c.wal_image = c.wal.encode();
        // A torn tail can leave chains assigned to a PoP that already
        // drained (its failover records were cut) or tracked nowhere at
        // all (revoked, but the shed/grant record was cut). Schedule a
        // repair pass after a grace window long enough for surviving PoPs
        // to report in — claims heal the journal for free, and whatever
        // is still stranded then gets re-placed or shed.
        c.repair_at_ns = Some(now_ns + c.cfg.unreachable_after_ns);
        c
    }

    fn journal(&mut self, rec: WalRecord) {
        self.wal_image.extend_from_slice(&rec.encode());
        self.wal.append(rec);
    }

    fn mint_token(&mut self) -> u64 {
        self.token_ctr += 1;
        (self.token_epoch << TOKEN_EPOCH_SHIFT) | self.token_ctr
    }

    fn req_id(&mut self) -> u64 {
        self.next_req += 1;
        (self.token_epoch << REQ_EPOCH_SHIFT) | self.next_req
    }

    /// Send a request that must be acknowledged: queued for seeded,
    /// bounded, jittered retries until acked or given up on.
    fn send_tracked(
        &mut self,
        now_ns: u64,
        to_pop: usize,
        msg: CtrlMsg,
        chain: Option<usize>,
        out: &mut Vec<Envelope>,
    ) {
        let req_id = self.req_id();
        let env = Envelope {
            req_id,
            from: Endpoint::Coordinator,
            to: Endpoint::Pop(to_pop),
            sent_ns: now_ns,
            msg,
        };
        out.push(env.clone());
        let mut backoff = Backoff::new(self.cfg.backoff, self.cfg.seed ^ req_id);
        let due_ns = now_ns + backoff.next_delay().unwrap_or(self.cfg.heartbeat_every_ns);
        self.pending.insert(
            req_id,
            Pending {
                env,
                backoff,
                due_ns,
                chain,
            },
        );
    }

    fn chain_pending(&self, chain: usize) -> bool {
        self.pending.values().any(|p| p.chain == Some(chain))
    }

    fn welcome_pending(&self, pop: usize) -> bool {
        self.pending
            .values()
            .any(|p| p.env.to == Endpoint::Pop(pop) && matches!(p.env.msg, CtrlMsg::Welcome { .. }))
    }

    fn set_health(&mut self, now_ns: u64, pop: usize, health: PopHealth) {
        if self.pops[pop].health == health {
            return;
        }
        self.pops[pop].health = health;
        self.journal(WalRecord::FleetPopHealth {
            at_ns: now_ns,
            pop,
            health,
        });
    }

    /// Initial hierarchical placement: per-PoP subproblems solved by the
    /// single-rack placer, chains that fit nowhere shed by priority.
    pub fn boot(&mut self, now_ns: u64, oracle: &dyn StageOracle) -> Vec<Envelope> {
        let fp = lemur_placer::hierarchy::place_fleet(
            &self.chains,
            &self.topologies,
            &self.profiles,
            oracle,
            self.workers,
        );
        let mut out = Vec::new();
        for plan in &fp.pops {
            for &chain in &plan.chains {
                let token = self.mint_token();
                self.journal(WalRecord::FleetGrant {
                    at_ns: now_ns,
                    pop: plan.pop,
                    chain,
                    token,
                });
                self.assignment.insert(chain, (plan.pop, token));
                let incarnation = self.pops[plan.pop].incarnation;
                self.send_tracked(
                    now_ns,
                    plan.pop,
                    CtrlMsg::Grant {
                        chain,
                        token,
                        incarnation,
                        transfer: None,
                    },
                    Some(chain),
                    &mut out,
                );
            }
        }
        for &chain in &fp.shed {
            self.journal(WalRecord::FleetShed {
                at_ns: now_ns,
                chain,
            });
            self.shed.insert(chain);
            self.stats.sheds += 1;
        }
        out
    }

    /// One control step: ingest delivered messages, walk the health
    /// ladder, heartbeat live PoPs, and fire due retries.
    pub fn tick(
        &mut self,
        now_ns: u64,
        inbox: Vec<Envelope>,
        oracle: &dyn StageOracle,
    ) -> Vec<Envelope> {
        let mut out = Vec::new();
        for env in inbox {
            self.handle(now_ns, env, &mut out);
        }
        self.health_ladder(now_ns, oracle, &mut out);
        if let Some(due) = self.repair_at_ns {
            if now_ns >= due {
                self.repair_at_ns = None;
                self.repair(now_ns, oracle, &mut out);
            }
        }
        self.overload_moves(now_ns, oracle, &mut out);
        self.heartbeats(now_ns, &mut out);
        self.retries(now_ns, &mut out);
        out
    }

    fn handle(&mut self, now_ns: u64, env: Envelope, out: &mut Vec<Envelope>) {
        let Endpoint::Pop(pop) = env.from else {
            return;
        };
        if pop >= self.pops.len() {
            return;
        }
        match env.msg {
            CtrlMsg::Status {
                incarnation,
                lease_valid: _,
                owned,
                state,
                overload,
            } => self.handle_status(now_ns, pop, incarnation, owned, state, overload, out),
            CtrlMsg::Ack {
                of_req,
                incarnation,
                accepted,
            } => {
                self.pops[pop].incarnation = self.pops[pop].incarnation.max(incarnation);
                if self.pops[pop].health != PopHealth::Drained {
                    self.pops[pop].last_heard_ns = self.pops[pop].last_heard_ns.max(now_ns);
                }
                let Some(p) = self.pending.remove(&of_req) else {
                    return; // duplicate ack; already resolved
                };
                if accepted {
                    match p.env.msg {
                        CtrlMsg::Welcome { .. } => {
                            // The PoP adopted its new life: re-admit it
                            // empty, with a clean overload record.
                            self.set_health(now_ns, pop, PopHealth::Healthy);
                            self.pops[pop].last_heard_ns = now_ns;
                            self.pops[pop].next_hb_ns = now_ns;
                            self.pops[pop].overload = OverloadLevel::Calm;
                            self.pops[pop].shedding_streak = 0;
                            self.pops[pop].calm_streak = 0;
                            self.pops[pop].overload_fenced = false;
                            self.stats.welcomes += 1;
                        }
                        CtrlMsg::Revoke { chain, .. } if self.migrating.contains(&chain) => {
                            // The live owner released a migrating chain:
                            // only now is it safe to seat it elsewhere.
                            let prior = self.assignment.get(&chain).copied();
                            self.ready_place.push((chain, prior));
                        }
                        _ => {}
                    }
                } else {
                    if let CtrlMsg::Revoke { chain, .. } = p.env.msg {
                        // A refused release aborts the migration; the
                        // chain stays where it is.
                        if self.migrating.remove(&chain) {
                            self.displaced.remove(&chain);
                        }
                    }
                    // Rejected (incarnation skew or a failed restore):
                    // drop it — status-report anti-entropy re-derives the
                    // right command with fresh knowledge.
                    self.stats.rejected_acks += 1;
                }
            }
            _ => {}
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn handle_status(
        &mut self,
        now_ns: u64,
        pop: usize,
        incarnation: u64,
        owned: Vec<ChainClaim>,
        state: Vec<StateReport>,
        overload: OverloadLevel,
        out: &mut Vec<Envelope>,
    ) {
        self.pops[pop].incarnation = self.pops[pop].incarnation.max(incarnation);
        if self.pops[pop].health == PopHealth::Drained {
            // A drained PoP is talking again: its chains have moved on, so
            // it must discard its past life before rejoining.
            if !self.welcome_pending(pop) {
                let next_inc = self.pops[pop].incarnation + 1;
                self.send_tracked(
                    now_ns,
                    pop,
                    CtrlMsg::Welcome {
                        incarnation: next_inc,
                    },
                    None,
                    out,
                );
            }
            return;
        }
        self.pops[pop].last_heard_ns = now_ns;
        if self.pops[pop].health != PopHealth::Healthy {
            self.set_health(now_ns, pop, PopHealth::Healthy);
        }
        self.observe_overload(pop, overload);

        // Claim anti-entropy: fence stale claims, adopt journal-lost ones.
        for claim in &owned {
            self.reconcile_claim(now_ns, pop, *claim, out);
        }
        // Grant anti-entropy: re-send grants the journal says this PoP
        // owns but the PoP does not claim (lost or torn away).
        let claimed: BTreeSet<usize> = owned.iter().map(|c| c.chain).collect();
        let missing: Vec<(usize, u64)> = self
            .assignment
            .iter()
            .filter(|(chain, (p, _))| *p == pop && !claimed.contains(chain))
            .map(|(&chain, &(_, token))| (chain, token))
            .collect();
        for (chain, token) in missing {
            if self.chain_pending(chain) || self.migrating.contains(&chain) {
                continue;
            }
            let transfer = self.failover_state(chain, pop, token);
            let incarnation = self.pops[pop].incarnation;
            self.stats.regrants += 1;
            self.send_tracked(
                now_ns,
                pop,
                CtrlMsg::Grant {
                    chain,
                    token,
                    incarnation,
                    transfer,
                },
                Some(chain),
                out,
            );
        }
        // State replication: cache snapshots from the legitimate owner.
        for rep in state {
            if self.assignment.get(&rep.chain).map(|&(p, _)| p) == Some(pop) {
                self.state_cache.insert(rep.chain, rep);
            }
        }
    }

    fn reconcile_claim(
        &mut self,
        now_ns: u64,
        pop: usize,
        claim: ChainClaim,
        out: &mut Vec<Envelope>,
    ) {
        if self.migrating.contains(&claim.chain) {
            // Mid two-phase migration: a stale claim (a status composed
            // before the owner applied the Revoke) must neither be
            // adopted back nor fenced — the migration resolves it.
            return;
        }
        match self.assignment.get(&claim.chain).copied() {
            None => {
                if self.shed.contains(&claim.chain) {
                    // A shed chain must not quietly live on somewhere.
                    self.send_tracked(
                        now_ns,
                        pop,
                        CtrlMsg::Revoke {
                            chain: claim.chain,
                            token: claim.token,
                        },
                        None,
                        out,
                    );
                } else {
                    // The journal lost this grant (torn tail): adopt it.
                    self.journal(WalRecord::FleetGrant {
                        at_ns: now_ns,
                        pop,
                        chain: claim.chain,
                        token: claim.token,
                    });
                    self.assignment.insert(claim.chain, (pop, claim.token));
                    self.stats.adopted += 1;
                }
            }
            Some((home, token)) if home == pop => {
                if claim.token > token {
                    // Newer than the journal knows (lost re-grant): adopt.
                    self.journal(WalRecord::FleetGrant {
                        at_ns: now_ns,
                        pop,
                        chain: claim.chain,
                        token: claim.token,
                    });
                    self.assignment.insert(claim.chain, (pop, claim.token));
                    self.stats.adopted += 1;
                }
                // claim.token ≤ token: the regrant path re-sends it.
            }
            Some((home, token)) => {
                if claim.token < token {
                    // A superseded owner still claiming: fence it off.
                    self.send_tracked(
                        now_ns,
                        pop,
                        CtrlMsg::Revoke {
                            chain: claim.chain,
                            token: claim.token,
                        },
                        None,
                        out,
                    );
                } else {
                    // The claimant outranks the journaled owner — only a
                    // torn tail can cause this. Adopt the claimant, fence
                    // the stale journal entry.
                    self.send_tracked(
                        now_ns,
                        home,
                        CtrlMsg::Revoke {
                            chain: claim.chain,
                            token,
                        },
                        None,
                        out,
                    );
                    self.journal(WalRecord::FleetGrant {
                        at_ns: now_ns,
                        pop,
                        chain: claim.chain,
                        token: claim.token,
                    });
                    self.assignment.insert(claim.chain, (pop, claim.token));
                    self.stats.adopted += 1;
                }
            }
        }
    }

    fn health_ladder(&mut self, now_ns: u64, oracle: &dyn StageOracle, out: &mut Vec<Envelope>) {
        for pop in 0..self.pops.len() {
            let view = self.pops[pop];
            if view.health == PopHealth::Drained {
                continue;
            }
            let silent = now_ns.saturating_sub(view.last_heard_ns);
            let ladder = if silent >= self.cfg.unreachable_after_ns {
                PopHealth::Unreachable
            } else if silent >= self.cfg.suspect_after_ns {
                PopHealth::Suspect
            } else {
                PopHealth::Healthy
            };
            if ladder != view.health {
                self.set_health(now_ns, pop, ladder);
            }
            if self.pops[pop].health == PopHealth::Unreachable {
                // Drain only once no in-flight heartbeat can still renew
                // the victim's lease (see the module doc's bound).
                let lease_dead_at = view.last_hb_sent_ns
                    + self.cfg.delay_max_ns
                    + self.cfg.lease_ns
                    + self.cfg.drain_margin_ns;
                if silent >= self.cfg.drain_after_ns && now_ns >= lease_dead_at {
                    self.set_health(now_ns, pop, PopHealth::Drained);
                    self.stats.drains += 1;
                    self.failover(now_ns, pop, oracle, out);
                }
            }
        }
    }

    /// Move a drained PoP's chains to surviving PoPs via the hierarchical
    /// placer (survivors' chains locked in place), shipping replicated
    /// state for stateful chains and shedding what fits nowhere.
    fn failover(
        &mut self,
        now_ns: u64,
        dead: usize,
        oracle: &dyn StageOracle,
        out: &mut Vec<Envelope>,
    ) {
        let victims: Vec<(usize, Option<(usize, u64)>)> = self
            .assignment
            .iter()
            .filter(|(_, (p, _))| *p == dead)
            .map(|(&chain, &(p, token))| (chain, Some((p, token))))
            .collect();
        self.replace_chains(now_ns, victims, oracle, out);
    }

    /// The post-recovery repair pass: re-place every chain the replayed
    /// journal left assigned to an already-drained PoP (its failover
    /// records were torn away) or tracked neither as owned nor as shed
    /// (its shed/grant record was torn away). Fresh epoch tokens outrank
    /// anything a lost grant may have seated, so this is always safe.
    fn repair(&mut self, now_ns: u64, oracle: &dyn StageOracle, out: &mut Vec<Envelope>) {
        let mut victims: Vec<(usize, Option<(usize, u64)>)> = self
            .assignment
            .iter()
            .filter(|(_, (p, _))| self.pops[*p].health == PopHealth::Drained)
            .map(|(&chain, &(p, token))| (chain, Some((p, token))))
            .collect();
        for chain in 0..self.chains.len() {
            if !self.assignment.contains_key(&chain) && !self.shed.contains(&chain) {
                victims.push((chain, None));
            }
        }
        self.replace_chains(now_ns, victims, oracle, out);
    }

    /// Track a PoP's self-reported ladder level. `overload_streak`
    /// consecutive `Shedding` reports fence the PoP out of refugee
    /// placement and queue a rebalance that moves its lowest-priority
    /// chain to a calm PoP; the same count of consecutive `Calm` reports
    /// unfences it and queues the displaced chains' homecoming.
    fn observe_overload(&mut self, pop: usize, overload: OverloadLevel) {
        let streak = self.cfg.overload_streak.max(1);
        let view = &mut self.pops[pop];
        view.overload = overload;
        if overload == OverloadLevel::Shedding {
            view.shedding_streak += 1;
        } else {
            view.shedding_streak = 0;
        }
        if overload == OverloadLevel::Calm {
            view.calm_streak += 1;
        } else {
            view.calm_streak = 0;
        }
        if view.shedding_streak >= streak {
            view.shedding_streak = 0;
            view.overload_fenced = true;
            self.overload_pending.insert(pop);
        }
        if view.overload_fenced && view.calm_streak >= streak {
            view.calm_streak = 0;
            view.overload_fenced = false;
            self.restore_pending.insert(pop);
        }
    }

    /// The chain to move off an overloaded PoP: its lowest-priority
    /// chain, never its top-priority one (mirroring the local ladder's
    /// shed rule), and never a chain already mid-migration. `None` when
    /// the PoP serves at most one chain — moving the last chain is just
    /// a failover wearing a different hat, and shedding the top-priority
    /// chain is exactly what the rebalance exists to prevent.
    fn rebalance_victim(&self, pop: usize) -> Option<usize> {
        let owned: Vec<usize> = self
            .assignment
            .iter()
            .filter(|&(_, &(p, _))| p == pop)
            .map(|(&chain, _)| chain)
            .collect();
        if owned.len() <= 1 {
            return None;
        }
        let prio = |c: usize| {
            self.chains
                .get(c)
                .and_then(|ch| ch.slo)
                .map_or(0, |s| s.priority)
        };
        let top = owned
            .iter()
            .copied()
            .max_by_key(|&c| (prio(c), std::cmp::Reverse(c)))?;
        owned
            .into_iter()
            .filter(|&c| c != top && !self.migrating.contains(&c))
            .min_by_key(|&c| (prio(c), c))
    }

    /// Cross-PoP overload response, run once per tick: start two-phase
    /// migrations off PoPs with sustained shedding reports, start
    /// homecomings for PoPs that calmed down, and seat every chain whose
    /// live owner has acknowledged release. Moving a chain off a *live*
    /// PoP is revoke-then-grant — the new grant is issued only after the
    /// old owner's Ack — so no tick ever has two leased owners.
    fn overload_moves(&mut self, now_ns: u64, oracle: &dyn StageOracle, out: &mut Vec<Envelope>) {
        let surging: Vec<usize> = std::mem::take(&mut self.overload_pending)
            .into_iter()
            .collect();
        for pop in surging {
            if self.pops[pop].health != PopHealth::Healthy {
                continue;
            }
            let Some(victim) = self.rebalance_victim(pop) else {
                continue;
            };
            let token = self.assignment[&victim].1;
            self.migrating.insert(victim);
            self.displaced.insert(victim, pop);
            self.stats.overload_rebalances += 1;
            self.send_tracked(
                now_ns,
                pop,
                CtrlMsg::Revoke {
                    chain: victim,
                    token,
                },
                Some(victim),
                out,
            );
        }
        let calmed: Vec<usize> = std::mem::take(&mut self.restore_pending)
            .into_iter()
            .collect();
        for pop in calmed {
            let home: Vec<usize> = self
                .displaced
                .iter()
                .filter(|&(_, &origin)| origin == pop)
                .map(|(&chain, _)| chain)
                .collect();
            for chain in home {
                self.displaced.remove(&chain);
                let Some(&(owner, token)) = self.assignment.get(&chain) else {
                    continue; // shed in the meantime
                };
                if owner == pop
                    || self.migrating.contains(&chain)
                    || self.pops[owner].health != PopHealth::Healthy
                {
                    continue;
                }
                self.migrating.insert(chain);
                self.stats.overload_restores += 1;
                self.send_tracked(
                    now_ns,
                    owner,
                    CtrlMsg::Revoke { chain, token },
                    Some(chain),
                    out,
                );
            }
        }
        let ready = std::mem::take(&mut self.ready_place);
        if !ready.is_empty() {
            self.replace_chains(now_ns, ready, oracle, out);
        }
    }

    /// Re-place a set of chains onto PoPs that can currently hear us,
    /// revoking their prior grants (if any), shipping replicated state
    /// for stateful chains, and shedding what fits nowhere.
    fn replace_chains(
        &mut self,
        now_ns: u64,
        victims: Vec<(usize, Option<(usize, u64)>)>,
        oracle: &dyn StageOracle,
        out: &mut Vec<Envelope>,
    ) {
        if victims.is_empty() {
            return;
        }
        for &(chain, prior) in &victims {
            if let Some((pop, token)) = prior {
                self.journal(WalRecord::FleetRevoke {
                    at_ns: now_ns,
                    pop,
                    chain,
                    token,
                });
                self.assignment.remove(&chain);
            }
        }
        let mut locked: Vec<Vec<usize>> = vec![Vec::new(); self.topologies.len()];
        for (&chain, &(p, _)) in &self.assignment {
            locked[p].push(chain);
        }
        // Only PoPs that can currently hear us — and are not themselves
        // overloaded — may receive refugees. Piling load onto a surging
        // PoP would just move the collapse; if nowhere calm fits, the
        // chain sheds instead (degrade before collapse).
        let mut topos = self.topologies.clone();
        for (i, view) in self.pops.iter().enumerate() {
            if matches!(view.health, PopHealth::Unreachable | PopHealth::Drained)
                || view.overload_fenced
                || view.overload != OverloadLevel::Calm
            {
                topos[i] = Topology::with_servers(0);
            }
        }
        let candidates: Vec<usize> = victims.iter().map(|&(c, _)| c).collect();
        // Only where each victim lands is read below, so the seating
        // alone: the PoPs no victim lands on are not re-solved.
        let fp = seat_chains(
            &self.chains,
            &topos,
            &locked,
            &candidates,
            &self.profiles,
            oracle,
            self.workers,
        );
        for (chain, prior) in victims {
            self.migrating.remove(&chain);
            match fp.home_of(chain) {
                Some(new_home) => {
                    let token = self.mint_token();
                    self.journal(WalRecord::FleetGrant {
                        at_ns: now_ns,
                        pop: new_home,
                        chain,
                        token,
                    });
                    self.assignment.insert(chain, (new_home, token));
                    let src = prior.map(|(p, _)| p).unwrap_or(new_home);
                    let transfer = self.failover_state(chain, src, token);
                    if transfer.is_some() {
                        self.stats.state_failovers += 1;
                    }
                    let incarnation = self.pops[new_home].incarnation;
                    self.stats.failovers += 1;
                    self.send_tracked(
                        now_ns,
                        new_home,
                        CtrlMsg::Grant {
                            chain,
                            token,
                            incarnation,
                            transfer,
                        },
                        Some(chain),
                        out,
                    );
                }
                None => {
                    self.journal(WalRecord::FleetShed {
                        at_ns: now_ns,
                        chain,
                    });
                    self.shed.insert(chain);
                    self.stats.sheds += 1;
                }
            }
        }
    }

    /// The migration payload for a stateful chain headed to a new home:
    /// the last replicated snapshot, re-fenced under the fresh token.
    fn failover_state(
        &self,
        chain: usize,
        src_site: usize,
        token: u64,
    ) -> Option<CrossSiteTransfer> {
        if !self.stateful.contains(&chain) {
            return None;
        }
        let (dst_site, _) = self.assignment.get(&chain).copied()?;
        let rep = self.state_cache.get(&chain)?;
        Some(CrossSiteTransfer {
            src_site,
            dst_site,
            chain,
            token,
            transfer: rep.transfer.clone(),
        })
    }

    fn heartbeats(&mut self, now_ns: u64, out: &mut Vec<Envelope>) {
        for pop in 0..self.pops.len() {
            let view = self.pops[pop];
            if !matches!(view.health, PopHealth::Healthy | PopHealth::Suspect) {
                continue;
            }
            if now_ns < view.next_hb_ns {
                continue;
            }
            let req_id = self.req_id();
            out.push(Envelope {
                req_id,
                from: Endpoint::Coordinator,
                to: Endpoint::Pop(pop),
                sent_ns: now_ns,
                msg: CtrlMsg::Heartbeat {
                    lease_ns: self.cfg.lease_ns,
                },
            });
            self.pops[pop].last_hb_sent_ns = now_ns;
            self.pops[pop].next_hb_ns = now_ns + self.cfg.heartbeat_every_ns;
        }
    }

    fn retries(&mut self, now_ns: u64, out: &mut Vec<Envelope>) {
        let due: Vec<u64> = self
            .pending
            .iter()
            .filter(|(_, p)| p.due_ns <= now_ns)
            .map(|(&id, _)| id)
            .collect();
        for id in due {
            let Some(mut p) = self.pending.remove(&id) else {
                continue;
            };
            // A drained target's requests are moot; failover owns repair.
            if let Endpoint::Pop(pop) = p.env.to {
                if self.pops[pop].health == PopHealth::Drained
                    && !matches!(p.env.msg, CtrlMsg::Welcome { .. })
                {
                    continue;
                }
            }
            p.env.sent_ns = now_ns;
            out.push(p.env.clone());
            match p.backoff.next_delay() {
                Some(delay) => {
                    p.due_ns = now_ns + delay;
                    self.pending.insert(id, p);
                }
                None => {
                    if let CtrlMsg::Revoke { chain, .. } = p.env.msg {
                        // An unanswerable migration Revoke: abort; the
                        // chain stays journaled at its origin and claim
                        // anti-entropy keeps the two views consistent.
                        if self.migrating.remove(&chain) {
                            self.displaced.remove(&chain);
                        }
                    }
                    self.stats.gave_up += 1;
                }
            }
        }
    }

    // ---- read-side accessors for soaks and reports -------------------

    pub fn assignment(&self) -> &BTreeMap<usize, (usize, u64)> {
        &self.assignment
    }

    pub fn shed(&self) -> &BTreeSet<usize> {
        &self.shed
    }

    pub fn health(&self) -> Vec<PopHealth> {
        self.pops.iter().map(|v| v.health).collect()
    }

    pub fn incarnations(&self) -> Vec<u64> {
        self.pops.iter().map(|v| v.incarnation).collect()
    }

    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    pub fn wal(&self) -> &DecisionLog {
        &self.wal
    }

    /// The bytes a crash would leave on disk.
    pub fn durable_image(&self) -> &[u8] {
        &self.wal_image
    }

    pub fn chains(&self) -> &[ChainSpec] {
        &self.chains
    }

    pub fn topologies(&self) -> &[Topology] {
        &self.topologies
    }

    pub fn profiles(&self) -> &NfProfiles {
        &self.profiles
    }

    pub fn workers(&self) -> Workers {
        self.workers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lemur_core::chains::{canonical_chain, CanonicalChain};
    use lemur_core::Slo;
    use lemur_placer::oracle::AlwaysFits;

    fn catalog(n: usize) -> Vec<ChainSpec> {
        (0..n)
            .map(|i| ChainSpec {
                name: format!("c{i}"),
                graph: canonical_chain([CanonicalChain::Chain1, CanonicalChain::Chain2][i % 2]),
                slo: Some(Slo::elastic_pipe(1e9, 100e9).with_priority((n - i) as u8)),
                aggregate: None,
            })
            .collect()
    }

    fn coordinator(n_chains: usize, n_pops: usize) -> FleetCoordinator {
        FleetCoordinator::new(
            FleetConfig::default(),
            catalog(n_chains),
            Vec::new(),
            vec![Topology::with_servers(2); n_pops],
            NfProfiles::table4(),
            Workers::new(1),
        )
    }

    fn status_with(
        pop: usize,
        incarnation: u64,
        owned: Vec<ChainClaim>,
        overload: OverloadLevel,
    ) -> Envelope {
        Envelope {
            req_id: 0,
            from: Endpoint::Pop(pop),
            to: Endpoint::Coordinator,
            sent_ns: 0,
            msg: CtrlMsg::Status {
                incarnation,
                lease_valid: true,
                owned,
                state: Vec::new(),
                overload,
            },
        }
    }

    fn status_from(pop: usize, incarnation: u64, owned: Vec<ChainClaim>) -> Envelope {
        status_with(pop, incarnation, owned, OverloadLevel::Calm)
    }

    /// The claims a PoP would report for its journaled assignment.
    fn claims_of(c: &FleetCoordinator, pop: usize) -> Vec<ChainClaim> {
        c.assignment()
            .iter()
            .filter(|&(_, &(p, _))| p == pop)
            .map(|(&chain, &(_, token))| ChainClaim { chain, token })
            .collect()
    }

    /// Ack every tracked command in `envs` as its target PoP, accepted.
    fn acks_for(envs: &[Envelope], incarnation: u64) -> Vec<Envelope> {
        envs.iter()
            .filter(|e| e.msg.wants_ack())
            .filter_map(|e| match e.to {
                Endpoint::Pop(p) => Some(Envelope {
                    req_id: 0,
                    from: Endpoint::Pop(p),
                    to: Endpoint::Coordinator,
                    sent_ns: e.sent_ns,
                    msg: CtrlMsg::Ack {
                        of_req: e.req_id,
                        incarnation,
                        accepted: true,
                    },
                }),
                Endpoint::Coordinator => None,
            })
            .collect()
    }

    #[test]
    fn boot_grants_every_chain_and_journals_it() {
        let mut c = coordinator(4, 2);
        let out = c.boot(0, &AlwaysFits);
        let grants = out
            .iter()
            .filter(|e| matches!(e.msg, CtrlMsg::Grant { .. }))
            .count();
        assert_eq!(grants, 4);
        assert_eq!(c.assignment().len(), 4);
        assert_eq!(c.wal().len(), 4);
        assert!(c.shed().is_empty());
        // Every grant is pending until acked.
        assert_eq!(c.pending_len(), 4);
    }

    #[test]
    fn silence_descends_the_ladder_and_drain_respects_the_lease_bound() {
        let cfg = FleetConfig::default();
        let mut c = coordinator(2, 2);
        c.boot(0, &AlwaysFits);
        let pop0_chains = c
            .assignment()
            .values()
            .filter(|&&(pop, _)| pop == 0)
            .count() as u64;
        assert!(pop0_chains > 0, "boot must spread chains across PoPs");
        // Both pops report at t=100µs; then pop 0 goes silent.
        c.tick(
            100_000,
            vec![status_from(0, 1, vec![]), status_from(1, 1, vec![])],
            &AlwaysFits,
        );
        let mut drained_at = None;
        let mut last_hb_before_drain = 0;
        for step in 1..60 {
            let now = 100_000 + step * 100_000;
            let out = c.tick(now, vec![status_from(1, 1, vec![])], &AlwaysFits);
            let hb_to_0 = out
                .iter()
                .any(|e| e.to == Endpoint::Pop(0) && matches!(e.msg, CtrlMsg::Heartbeat { .. }));
            if hb_to_0 && drained_at.is_none() {
                last_hb_before_drain = now;
            }
            if c.health()[0] == PopHealth::Drained && drained_at.is_none() {
                drained_at = Some(now);
            }
            // Silence thresholds hold exactly.
            let silent = now - 100_000;
            if silent < cfg.suspect_after_ns {
                assert_eq!(c.health()[0], PopHealth::Healthy);
            } else if silent < cfg.unreachable_after_ns {
                assert_eq!(c.health()[0], PopHealth::Suspect);
            }
        }
        let drained_at = drained_at.expect("a silent pop must eventually drain");
        assert!(
            drained_at
                >= last_hb_before_drain + cfg.delay_max_ns + cfg.lease_ns + cfg.drain_margin_ns,
            "drained at {drained_at} but a heartbeat sent at {last_hb_before_drain} could \
             still be renewing the lease"
        );
        // Failover moved both chains to pop 1.
        for (&_chain, &(pop, _)) in c.assignment() {
            assert_eq!(pop, 1);
        }
        assert_eq!(c.stats.drains, 1);
        assert_eq!(c.stats.failovers, pop0_chains);
    }

    #[test]
    fn recovery_jumps_the_token_epoch_past_torn_grants() {
        let mut c = coordinator(3, 2);
        c.boot(0, &AlwaysFits);
        let max_granted = c.assignment().values().map(|&(_, t)| t).max().unwrap();
        // Crash with a torn tail: cut into the last record.
        let image = c.durable_image();
        let cut = &image[..image.len() - 5];
        let r = FleetCoordinator::recover(
            FleetConfig::default(),
            catalog(3),
            Vec::new(),
            vec![Topology::with_servers(2); 2],
            NfProfiles::table4(),
            Workers::new(1),
            cut,
            1_000_000,
        );
        // The torn grant is gone from the replayed assignment…
        assert_eq!(r.assignment().len(), 2);
        // …but every token the recovered coordinator can ever mint is
        // strictly newer than anything granted before the crash.
        let mut r = r;
        let fresh = r.mint_token();
        assert!(
            fresh > max_granted,
            "fresh token {fresh:#x} must outrank pre-crash {max_granted:#x}"
        );
    }

    #[test]
    fn status_claims_heal_a_torn_journal() {
        let mut c = coordinator(2, 2);
        let out = c.boot(0, &AlwaysFits);
        // Remember what pop each chain went to.
        let granted: Vec<(usize, usize, u64)> = out
            .iter()
            .filter_map(|e| match (&e.msg, e.to) {
                (CtrlMsg::Grant { chain, token, .. }, Endpoint::Pop(p)) => {
                    Some((*chain, p, *token))
                }
                _ => None,
            })
            .collect();
        // Crash losing the whole journal tail (everything).
        let mut r = FleetCoordinator::recover(
            FleetConfig::default(),
            catalog(2),
            Vec::new(),
            vec![Topology::with_servers(2); 2],
            NfProfiles::table4(),
            Workers::new(1),
            &[],
            500_000,
        );
        assert!(r.assignment().is_empty());
        // The pops still claim their grants; status reports re-teach the
        // coordinator without re-granting.
        for &(chain, pop, token) in &granted {
            r.tick(
                600_000,
                vec![status_from(pop, 1, vec![ChainClaim { chain, token }])],
                &AlwaysFits,
            );
        }
        assert_eq!(r.assignment().len(), 2);
        for &(chain, pop, token) in &granted {
            assert_eq!(r.assignment()[&chain], (pop, token));
        }
        assert_eq!(r.stats.adopted, 2);
    }

    #[test]
    fn recovery_repairs_orphaned_and_dead_assigned_chains() {
        // Build a journal whose tail tears mid-transaction: chain 0 is
        // revoked from a drained pop but its shed record is lost, and
        // chain 1 stays assigned to the drained pop.
        let mut log = lemur_control::wal::DecisionLog::new();
        log.append(WalRecord::FleetGrant {
            at_ns: 0,
            pop: 0,
            chain: 0,
            token: (1 << 40) | 1,
        });
        log.append(WalRecord::FleetGrant {
            at_ns: 0,
            pop: 0,
            chain: 1,
            token: (1 << 40) | 2,
        });
        log.append(WalRecord::FleetPopHealth {
            at_ns: 1,
            pop: 0,
            health: PopHealth::Drained,
        });
        log.append(WalRecord::FleetRevoke {
            at_ns: 2,
            pop: 0,
            chain: 0,
            token: (1 << 40) | 1,
        });
        // (FleetShed for chain 0 and the failover records for chain 1
        // were in the torn tail.)
        let mut r = FleetCoordinator::recover(
            FleetConfig::default(),
            catalog(2),
            Vec::new(),
            vec![Topology::with_servers(2); 2],
            NfProfiles::table4(),
            Workers::new(1),
            &log.encode(),
            1_000_000,
        );
        assert_eq!(r.assignment().len(), 1, "chain 0 is orphaned");
        // Pop 1 keeps reporting; once the grace window passes, repair
        // re-places both stranded chains onto it under fresh tokens.
        let mut out = Vec::new();
        let mut now = 1_000_000;
        while r.assignment().len() != 2 || r.assignment().values().any(|&(p, _)| p != 1) {
            now += 100_000;
            assert!(now < 4_000_000, "repair must fire within the grace window");
            out = r.tick(now, vec![status_from(1, 1, vec![])], &AlwaysFits);
        }
        for (&chain, &(pop, token)) in r.assignment() {
            assert_eq!(pop, 1, "chain {chain} must land on the live pop");
            assert!(
                token >> TOKEN_EPOCH_SHIFT >= 2,
                "repair tokens outrank torn grants"
            );
        }
        assert!(r.shed().is_empty());
        let grants = out
            .iter()
            .filter(|e| matches!(e.msg, CtrlMsg::Grant { .. }) && e.to == Endpoint::Pop(1))
            .count();
        assert_eq!(grants, 2);
        // The journal now replays to exactly the repaired state.
        let replay = r.wal().replay();
        assert_eq!(&replay.owners, r.assignment());
    }

    #[test]
    fn recovered_req_ids_cannot_hit_stale_reply_caches() {
        use crate::pop::PopRuntime;

        // Pre-crash: boot grants land on the pops, seeding their
        // idempotency caches with this incarnation's request ids.
        let mut c = coordinator(4, 2);
        let boot = c.boot(0, &AlwaysFits);
        let pre_crash_ids: Vec<u64> = boot.iter().map(|e| e.req_id).collect();
        let mut pop0 = PopRuntime::new(0, &[], 1_000_000);
        for env in &boot {
            if env.to == Endpoint::Pop(0) {
                pop0.handle(0, env);
            }
        }
        assert!(!pop0.claims().is_empty(), "boot must seat chains on pop 0");

        // Crash and recover; every fresh request id must be disjoint from
        // every pre-crash one, or a cached pre-crash answer could swallow
        // a post-crash command and masquerade as its acknowledgement.
        let mut r = FleetCoordinator::recover(
            FleetConfig::default(),
            catalog(4),
            Vec::new(),
            vec![Topology::with_servers(2); 2],
            NfProfiles::table4(),
            Workers::new(1),
            c.durable_image(),
            1_000_000,
        );
        let out = r.tick(1_000_000, vec![status_from(1, 1, vec![])], &AlwaysFits);
        for env in &out {
            assert!(
                !pre_crash_ids.contains(&env.req_id),
                "post-crash req_id {} collides with a pre-crash one",
                env.req_id
            );
        }
        // A post-crash Welcome actually executes on a pop whose cache is
        // full of pre-crash answers (the end-to-end consequence).
        let welcome = Envelope {
            req_id: r.req_id(),
            from: Endpoint::Coordinator,
            to: Endpoint::Pop(0),
            sent_ns: 1_000_000,
            msg: CtrlMsg::Welcome { incarnation: 2 },
        };
        pop0.handle(1_000_000, &welcome);
        assert_eq!(pop0.incarnation(), 2, "welcome must not be swallowed");
        assert!(pop0.claims().is_empty());
        assert_eq!(pop0.stats.duplicate_replays, 0);
    }

    #[test]
    fn drained_pop_talking_again_is_welcomed_not_believed() {
        let mut c = coordinator(2, 2);
        c.boot(0, &AlwaysFits);
        c.tick(
            100_000,
            vec![status_from(0, 1, vec![]), status_from(1, 1, vec![])],
            &AlwaysFits,
        );
        // Silence pop 0 until it drains.
        let mut now = 100_000;
        while c.health()[0] != PopHealth::Drained {
            now += 100_000;
            assert!(now < 10_000_000, "must drain eventually");
            c.tick(now, vec![status_from(1, 1, vec![])], &AlwaysFits);
        }
        // It comes back claiming its old chains: it gets a Welcome, and
        // none of its claims are adopted.
        let stale_claims: Vec<ChainClaim> = vec![ChainClaim { chain: 0, token: 1 }];
        let before = c.assignment().clone();
        let out = c.tick(
            now + 100_000,
            vec![status_from(0, 1, stale_claims)],
            &AlwaysFits,
        );
        assert!(out
            .iter()
            .any(|e| matches!(e.msg, CtrlMsg::Welcome { .. }) && e.to == Endpoint::Pop(0)));
        assert_eq!(c.assignment(), &before, "stale claims must not resurrect");
        // The welcome ack re-admits it, empty and healthy.
        let welcome_req = out
            .iter()
            .find(|e| matches!(e.msg, CtrlMsg::Welcome { .. }))
            .unwrap()
            .req_id;
        c.tick(
            now + 200_000,
            vec![Envelope {
                req_id: 0,
                from: Endpoint::Pop(0),
                to: Endpoint::Coordinator,
                sent_ns: now + 200_000,
                msg: CtrlMsg::Ack {
                    of_req: welcome_req,
                    incarnation: 2,
                    accepted: true,
                },
            }],
            &AlwaysFits,
        );
        assert_eq!(c.health()[0], PopHealth::Healthy);
        assert_eq!(c.incarnations()[0], 2);
        assert_eq!(c.stats.welcomes, 1);
    }

    #[test]
    fn sustained_shedding_moves_the_lowest_priority_chain_then_calm_restores_it() {
        let mut c = coordinator(4, 2);
        let boot = c.boot(0, &AlwaysFits);
        c.tick(50_000, acks_for(&boot, 1), &AlwaysFits);
        assert_eq!(c.pending_len(), 0);
        let pop0_chains: Vec<usize> = claims_of(&c, 0).iter().map(|cl| cl.chain).collect();
        assert!(pop0_chains.len() >= 2, "boot must spread chains");
        // catalog() priorities descend with the index, so pop 0's
        // highest-index chain is its lowest-priority one.
        let expect_victim = *pop0_chains.iter().max().unwrap();
        let expect_top = *pop0_chains.iter().min().unwrap();

        // Three consecutive Shedding reports trigger the rebalance.
        let mut out = Vec::new();
        for step in 1..=3u64 {
            out = c.tick(
                50_000 + step * 100_000,
                vec![
                    status_with(0, 1, claims_of(&c, 0), OverloadLevel::Shedding),
                    status_from(1, 1, claims_of(&c, 1)),
                ],
                &AlwaysFits,
            );
        }
        let revoke = out
            .iter()
            .find(|e| matches!(e.msg, CtrlMsg::Revoke { .. }) && e.to == Endpoint::Pop(0))
            .expect("three shedding reports must start a migration");
        let CtrlMsg::Revoke { chain: victim, .. } = revoke.msg else {
            unreachable!()
        };
        assert_eq!(victim, expect_victim, "move the lowest-priority chain");
        assert_ne!(victim, expect_top, "never the top-priority chain");
        assert_eq!(c.stats.overload_rebalances, 1);

        // The owner acks the release; only then is the chain re-seated —
        // on pop 1, because pop 0 is fenced while overloaded.
        let out = c.tick(450_000, acks_for(&out, 1), &AlwaysFits);
        let grant = out
            .iter()
            .find(|e| matches!(e.msg, CtrlMsg::Grant { chain, .. } if chain == victim))
            .expect("an acked release must be followed by a grant");
        assert_eq!(grant.to, Endpoint::Pop(1), "refugees avoid the fenced pop");
        c.tick(550_000, acks_for(&out, 1), &AlwaysFits);
        assert_eq!(c.assignment()[&victim].0, 1);
        assert_eq!(c.stats.failovers, 1, "the move is a fenced failover");

        // Three Calm reports unfence pop 0 and send the chain home.
        let mut out = Vec::new();
        for step in 1..=3u64 {
            out = c.tick(
                550_000 + step * 100_000,
                vec![
                    status_from(0, 1, claims_of(&c, 0)),
                    status_from(1, 1, claims_of(&c, 1)),
                ],
                &AlwaysFits,
            );
        }
        assert!(
            out.iter().any(
                |e| matches!(e.msg, CtrlMsg::Revoke { chain, .. } if chain == victim)
                    && e.to == Endpoint::Pop(1)
            ),
            "calm must start the homecoming migration"
        );
        assert_eq!(c.stats.overload_restores, 1);
        let out = c.tick(950_000, acks_for(&out, 1), &AlwaysFits);
        let grant = out
            .iter()
            .find(|e| matches!(e.msg, CtrlMsg::Grant { chain, .. } if chain == victim))
            .expect("the released chain must be re-granted");
        assert_eq!(grant.to, Endpoint::Pop(0), "displaced chains head home");
        c.tick(1_050_000, acks_for(&out, 1), &AlwaysFits);
        assert_eq!(c.assignment()[&victim].0, 0);
        assert_eq!(c.pending_len(), 0);
        // The journal replays to exactly the round-tripped state.
        assert_eq!(&c.wal().replay().owners, c.assignment());
    }

    #[test]
    fn failover_refugees_avoid_surging_pops() {
        let mut c = coordinator(6, 3);
        let boot = c.boot(0, &AlwaysFits);
        c.tick(50_000, acks_for(&boot, 1), &AlwaysFits);
        let pop0_chains: Vec<usize> = claims_of(&c, 0).iter().map(|cl| cl.chain).collect();
        let pop2_chains: Vec<usize> = claims_of(&c, 2).iter().map(|cl| cl.chain).collect();
        assert!(!pop0_chains.is_empty() && !pop2_chains.is_empty());

        // Pop 0 goes silent; pop 2 keeps reporting but is Surging the
        // whole time. When pop 0 drains, its chains must all land on the
        // only calm survivor, pop 1 — never on the surging pop 2.
        let mut now = 50_000;
        let mut granted_to_2 = false;
        while c.health()[0] != PopHealth::Drained {
            now += 100_000;
            assert!(now < 10_000_000, "must drain eventually");
            let out = c.tick(
                now,
                vec![
                    status_from(1, 1, claims_of(&c, 1)),
                    status_with(2, 1, claims_of(&c, 2), OverloadLevel::Surging),
                ],
                &AlwaysFits,
            );
            granted_to_2 |= out
                .iter()
                .any(|e| matches!(e.msg, CtrlMsg::Grant { .. }) && e.to == Endpoint::Pop(2));
        }
        assert!(!granted_to_2, "a surging pop must receive no refugees");
        for &chain in &pop0_chains {
            assert_eq!(
                c.assignment()[&chain].0,
                1,
                "chain {chain} must fail over to the calm pop"
            );
        }
        for &chain in &pop2_chains {
            assert_eq!(c.assignment()[&chain].0, 2, "pop 2 keeps its own chains");
        }
        assert_eq!(c.stats.sheds, 0);
        assert_eq!(
            c.stats.overload_rebalances, 0,
            "Surging alone moves nothing"
        );
    }
}
