//! # lemur-control
//!
//! The online supervisor: a control plane that runs *inside* the
//! dataplane's discrete-event simulation (via
//! [`lemur_dataplane::ControlHook`]) and drives transactional hitless
//! reconfiguration when faults push chains out of their SLOs.
//!
//! The state machine:
//!
//! ```text
//!             clean window                     K violated windows
//!   Converged <────────────> Monitoring ───────────────────────────┐
//!       ▲                        ▲                                 ▼
//!       │ probation clean        │ rollback committed,        Replanning
//!       │                        │ or backoff expired clean   (repair +
//!       │                        │                             validate)
//!   Probation <── EpochCommit ── Draining <── StageCommit ────────┤
//!       │                                                         │
//!       │ violated window → stage rollback (→ Draining)           │ infeasible /
//!       ▼                                                         ▼ no-op candidate
//!   (rollback)                                   Backoff ── exp. backoff with
//!                                                   │        seeded jitter
//!                                                   ▼ attempts > max
//!                                            GracefulDegraded
//! ```
//!
//! * **Detection** is hysteretic: only `hysteresis_k` *consecutive*
//!   violated guard windows trigger a replan, so a single noisy window
//!   does not thrash the dataplane.
//! * **Replanning** calls [`lemur_placer::repair_assignment`] against the
//!   fault-masked topology; surviving chains keep their original service-
//!   path identifiers via [`lemur_metacompiler::compile_repair`], so a
//!   live swap only rewrites the tables that must change.
//! * **Validation** is a dry run: the candidate is rejected unless every
//!   surviving chain's predicted rate clears its `t_min` (within
//!   `validation_tol`).
//! * **Commit** is two-phase: the engine emits `DrainStart`, runs the old
//!   epoch for `drain_ns`, then atomically swaps — in-flight packets lost
//!   to the swap are the *update-time loss*.
//! * **Probation**: a fresh epoch must survive `probation_windows` clean
//!   windows before it is promoted to last-known-good; a violation during
//!   probation stages a *rollback* to the previous last-known-good.
//! * **Backoff** is the shared [`retry::Backoff`]: exponential with
//!   deterministic seeded jitter; exhausting `max_attempts` parks the
//!   supervisor in [`SupervisorState::GracefulDegraded`] (serve what
//!   still works, stop churning).
//! * **Flap damping**: a link that comes back up is not trusted until it
//!   stays up for `hold_down_ns`, so a flapping link cannot drag chains
//!   back and forth.

#![warn(clippy::too_many_lines)]

pub mod chaos;
pub mod retry;
pub mod surge;
pub mod wal;

use std::collections::{BTreeMap, BTreeSet};

use lemur_core::Slo;
use lemur_dataplane::{
    ControlAction, ControlHook, FaultKind, MigrationError, StagedConfig, TimelineEvent,
    WindowSample,
};
use lemur_metacompiler::{compile_repair, Deployment};
use lemur_placer::corealloc::CoreStrategy;
use lemur_placer::oracle::StageOracle;
use lemur_placer::placement::{Assignment, EvaluatedPlacement, PlacementProblem};
use lemur_placer::topology::ResourceMask;
use lemur_placer::{repair_assignment, RepairResult};
use retry::{Backoff, BackoffPolicy};
use surge::{SurgeClass, SurgeDetector};
use wal::{DecisionLog, WalRecord};

/// Tunables for the online supervisor. Times are virtual nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SupervisorConfig {
    /// Consecutive violated guard windows before a replan is attempted.
    pub hysteresis_k: u32,
    /// Drain time between `DrainStart` and the atomic epoch swap.
    pub drain_ns: u64,
    /// How long a recovered link must stay up before it is trusted again.
    pub hold_down_ns: u64,
    /// First backoff interval; doubles per failed attempt, up to 1024×.
    pub backoff_base_ns: u64,
    /// Failed replan attempts tolerated before giving up
    /// ([`SupervisorState::GracefulDegraded`]).
    pub max_attempts: u32,
    /// Clean windows a fresh epoch must survive before promotion to
    /// last-known-good. The window containing the commit itself is grace.
    pub probation_windows: u32,
    /// Fractional slack when validating a candidate's predicted rates
    /// against `t_min` (0.05 = accept 95% of the guarantee).
    pub validation_tol: f64,
    /// Consecutive overload-classified violated windows before the
    /// degradation ladder climbs one rung (only with a surge detector).
    pub ladder_patience: u32,
    /// Consecutive calm windows before the ladder steps back down one
    /// rung. Larger than `ladder_patience` by default so recovery is
    /// more cautious than escalation.
    pub unwind_patience: u32,
    /// Seed for backoff jitter. Same seed → bit-identical decisions.
    pub seed: u64,
}

impl Default for SupervisorConfig {
    fn default() -> SupervisorConfig {
        SupervisorConfig {
            hysteresis_k: 2,
            drain_ns: 200_000,       // 200 µs
            hold_down_ns: 4_000_000, // 4 ms ≈ 4 guard windows
            backoff_base_ns: 2_000_000,
            max_attempts: 6,
            probation_windows: 2,
            validation_tol: 0.05,
            ladder_patience: 3,
            unwind_patience: 4,
            seed: 0,
        }
    }
}

/// Where the supervisor's state machine currently is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SupervisorState {
    /// Watching the guard; violations accumulate toward the hysteresis
    /// threshold.
    Monitoring,
    /// Monitoring after a clean window — the healthy terminal state.
    Converged,
    /// A replan failed (or produced nothing actionable); retry at
    /// `until_ns`.
    Backoff { until_ns: u64 },
    /// A staged configuration is draining; waiting for the epoch swap.
    Draining,
    /// A fresh epoch is on trial. `grace` skips the window that contains
    /// the commit itself (its stats straddle both epochs).
    Probation { windows_left: u32, grace: bool },
    /// Replanning gave up; serve the current (possibly shed) placement
    /// without further churn. Terminal.
    GracefulDegraded,
}

/// One entry of the supervisor's decision log, in virtual-time order.
#[derive(Debug, Clone, PartialEq)]
pub enum SupervisorEvent {
    /// Hysteresis threshold crossed; replanning started.
    Detected { at_ns: u64, streak: u32 },
    /// A repair candidate passed validation and was staged.
    Staged {
        at_ns: u64,
        shed: Vec<usize>,
        moved_nodes: usize,
        rollback: bool,
    },
    /// The engine committed the staged epoch.
    Committed {
        at_ns: u64,
        epoch: u64,
        packets_lost: u64,
        rollback: bool,
    },
    /// Replan failed or was a no-op; retrying at `until_ns`.
    BackedOff {
        at_ns: u64,
        until_ns: u64,
        attempt: u32,
    },
    /// Probation completed clean; epoch promoted to last-known-good.
    Promoted { at_ns: u64 },
    /// A recovered link survived its hold-down and was unmasked.
    LinkTrusted { at_ns: u64, server: usize },
    /// Attempts exhausted; parked.
    Degraded { at_ns: u64 },
    /// The engine aborted a staged swap because state migration failed
    /// verification; the previous epoch stayed live.
    MigrationFailed { at_ns: u64, error: MigrationError },
    /// The control plane recovered from an injected crash by replaying
    /// its decision log. `committed_epoch` is what the replay concluded
    /// is live.
    Recovered {
        at_ns: u64,
        committed_epoch: Option<u64>,
    },
    /// The degradation ladder climbed one rung under classified overload
    /// (1 = admission control, 2 = shed `chain`, 3 = replica scale-out,
    /// 4 = parked in [`SupervisorState::GracefulDegraded`]).
    LadderEscalated {
        at_ns: u64,
        rung: u8,
        chain: Option<usize>,
    },
    /// The ladder stepped back down one rung after a calm stretch
    /// (same rung numbering; 2 restores `chain`).
    LadderUnwound {
        at_ns: u64,
        rung: u8,
        chain: Option<usize>,
    },
}

impl SupervisorEvent {
    pub fn at_ns(&self) -> u64 {
        match self {
            SupervisorEvent::Detected { at_ns, .. }
            | SupervisorEvent::Staged { at_ns, .. }
            | SupervisorEvent::Committed { at_ns, .. }
            | SupervisorEvent::BackedOff { at_ns, .. }
            | SupervisorEvent::Promoted { at_ns }
            | SupervisorEvent::LinkTrusted { at_ns, .. }
            | SupervisorEvent::Degraded { at_ns }
            | SupervisorEvent::MigrationFailed { at_ns, .. }
            | SupervisorEvent::Recovered { at_ns, .. }
            | SupervisorEvent::LadderEscalated { at_ns, .. }
            | SupervisorEvent::LadderUnwound { at_ns, .. } => *at_ns,
        }
    }

    /// A ladder step on `rung`: `LadderEscalated` going up, else
    /// `LadderUnwound`.
    fn ladder(at_ns: u64, up: bool, rung: u8, chain: Option<usize>) -> SupervisorEvent {
        if up {
            SupervisorEvent::LadderEscalated { at_ns, rung, chain }
        } else {
            SupervisorEvent::LadderUnwound { at_ns, rung, chain }
        }
    }
}

/// Why a replan was kicked off — changes what a no-op candidate means.
#[derive(Clone, Copy, PartialEq)]
enum ReplanReason {
    /// The guard said chains are hurting. A candidate identical to the
    /// running config means repair cannot help → backoff.
    Violation,
    /// A masked resource came back; try to re-admit / re-home. A no-op
    /// candidate just means nothing was displaced → stay put.
    Improve,
}

/// What a commit means for the degradation ladder's bookkeeping. The
/// delta is applied at commit time, not stage time, so an aborted
/// migration never records a rung that was not actually climbed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LadderDelta {
    /// The staged epoch sheds `chain` under overload.
    Shed(usize),
    /// The staged epoch re-admits previously-shed `chain`.
    Restore(usize),
    /// The staged epoch is a scale-out re-placement of the survivors.
    ScaleOut,
}

impl LadderDelta {
    /// The ladder event journaled when this delta is staged.
    fn event(self, at_ns: u64) -> SupervisorEvent {
        match self {
            LadderDelta::Shed(c) => SupervisorEvent::ladder(at_ns, true, 2, Some(c)),
            LadderDelta::Restore(c) => SupervisorEvent::ladder(at_ns, false, 2, Some(c)),
            LadderDelta::ScaleOut => SupervisorEvent::ladder(at_ns, true, 3, None),
        }
    }
}

/// Why an epoch is staged: what its intent journals, and what its commit
/// does to the ladder.
#[derive(Clone, Copy)]
enum Staging<'s> {
    /// A repair; the new epoch refuses `shed`.
    Repair { shed: &'s [usize] },
    /// A return to last-known-good.
    Rollback,
    /// A ladder rung: shed, restore, or scale out.
    Ladder(LadderDelta),
}

/// Bookkeeping for a staged-but-not-yet-committed configuration.
struct PendingCommit {
    /// Original-chain-indexed assignment after the swap (shed chains keep
    /// their stale entry as a re-admission hint).
    assignment: Assignment,
    admitted: Vec<bool>,
    /// Ladder rung this commit climbs or unwinds, if any.
    ladder: Option<LadderDelta>,
}

/// The online control plane. Implements [`ControlHook`]; hand it to
/// [`lemur_dataplane::Testbed::run_supervised`].
pub struct Supervisor<'a> {
    cfg: SupervisorConfig,
    /// The original (healthy-rack) problem; repairs degrade its topology.
    problem: PlacementProblem,
    oracle: &'a dyn StageOracle,
    /// Original base SPIs per chain, so survivors keep their identifiers.
    entry_spi: Vec<u32>,

    /// What the dataplane is running right now (original-chain indexed).
    current_assignment: Assignment,
    current_admitted: Vec<bool>,
    /// Last configuration that survived probation.
    lkg_assignment: Assignment,
    lkg_admitted: Vec<bool>,

    /// Fault mask the supervisor believes in.
    servers_down: BTreeSet<usize>,
    failed_cores: BTreeSet<(usize, usize)>,
    /// Recovered links serving their hold-down: server → trust time.
    link_trust_at: BTreeMap<usize, u64>,

    state: SupervisorState,
    streak: u32,
    /// Failed-replan schedule; its attempt count is the episode's.
    retry: Backoff,
    /// Set when the mask shrank (hold-down expiry); prompts an
    /// opportunistic re-admission replan.
    improve_pending: bool,
    pending: Option<PendingCommit>,
    events: Vec<SupervisorEvent>,
    /// Write-ahead decision log: every intent precedes its commit, so a
    /// crash at any point replays to a consistent state.
    wal: DecisionLog,

    /// Overload classifier; without one every violation is degradation
    /// and the ladder never engages (the pre-surge-aware behavior).
    surge: Option<SurgeDetector>,
    /// Consecutive overload-classified violated windows toward the next
    /// ladder escalation.
    overload_windows: u32,
    /// Consecutive calm windows toward the next ladder unwind.
    calm_windows: u32,
    /// Rung 1: the dataplane is currently denying DDoS-flagged tail mass.
    admission_on: bool,
    /// Rung 2: chains shed by the ladder, in shed order (unwound LIFO).
    overload_shed: Vec<usize>,
    /// Rung 3: the survivors were re-placed with scale-out.
    scaled_out: bool,
    /// Rung 4: `GracefulDegraded` was entered by the ladder (recoverable
    /// on calm), not by exhausting repair attempts (terminal).
    ladder_parked: bool,
    /// Violation-triggered replans actually attempted.
    repair_attempts: u64,
    /// Violated windows where overload classification suppressed the
    /// repair loop.
    suppressed_replans: u64,
}

impl<'a> Supervisor<'a> {
    /// Build a supervisor for a deployed placement. Call *before*
    /// [`lemur_dataplane::Testbed::build`] consumes the deployment — the
    /// supervisor only copies the routing plan's entry SPIs out of it.
    pub fn new(
        problem: &PlacementProblem,
        placement: &EvaluatedPlacement,
        deployment: &Deployment,
        oracle: &'a dyn StageOracle,
        cfg: SupervisorConfig,
    ) -> Supervisor<'a> {
        let n = problem.chains.len();
        Supervisor {
            cfg,
            problem: problem.clone(),
            oracle,
            entry_spi: deployment.routing.entry_spi.clone(),
            current_assignment: placement.assignment.clone(),
            current_admitted: vec![true; n],
            lkg_assignment: placement.assignment.clone(),
            lkg_admitted: vec![true; n],
            servers_down: BTreeSet::new(),
            failed_cores: BTreeSet::new(),
            link_trust_at: BTreeMap::new(),
            state: SupervisorState::Converged,
            streak: 0,
            retry: Backoff::new(
                BackoffPolicy {
                    base_ns: cfg.backoff_base_ns,
                    cap_ns: cfg.backoff_base_ns.saturating_mul(1 << 10),
                    max_attempts: cfg.max_attempts,
                },
                // `Backoff::new` folds in its own salt; cancel it so the
                // jitter stream is the one seeded from `seed ^ 0x5157_e501`.
                cfg.seed ^ 0x5157_e501 ^ 0xb0ff_0ff5,
            ),
            improve_pending: false,
            pending: None,
            events: Vec::new(),
            wal: DecisionLog::new(),
            surge: None,
            overload_windows: 0,
            calm_windows: 0,
            admission_on: false,
            overload_shed: Vec::new(),
            scaled_out: false,
            ladder_parked: false,
            repair_attempts: 0,
            suppressed_replans: 0,
        }
    }

    /// Attach an overload classifier. With one installed, violated
    /// windows classified [`SurgeClass::Overload`] suppress the repair
    /// loop and drive the graceful-degradation ladder instead.
    pub fn with_surge_detector(mut self, detector: SurgeDetector) -> Supervisor<'a> {
        self.surge = Some(detector);
        self
    }

    pub fn state(&self) -> SupervisorState {
        self.state
    }

    /// True in the states a chaos soak is allowed to end in.
    pub fn is_settled(&self) -> bool {
        matches!(
            self.state,
            SupervisorState::Converged | SupervisorState::GracefulDegraded
        )
    }

    /// Chains currently admitted (original indices).
    pub fn admitted(&self) -> &[bool] {
        &self.current_admitted
    }

    /// Failed replan attempts since the last promotion.
    pub fn attempts(&self) -> u32 {
        self.retry.attempts()
    }

    /// Violation-triggered replans actually attempted over the run.
    pub fn repair_attempts(&self) -> u64 {
        self.repair_attempts
    }

    /// Violated windows where overload classification held the repair
    /// loop back.
    pub fn suppressed_replans(&self) -> u64 {
        self.suppressed_replans
    }

    /// True while any ladder rung is active (admission denial, an
    /// overload shed, or a scale-out placement).
    pub fn ladder_engaged(&self) -> bool {
        self.admission_on || !self.overload_shed.is_empty() || self.scaled_out
    }

    /// Chains currently shed by the ladder, in shed order.
    pub fn overload_shed(&self) -> &[usize] {
        &self.overload_shed
    }

    /// The surge detector's current classification, if one is attached.
    pub fn is_overload(&self) -> bool {
        self.surge.as_ref().is_some_and(|d| d.is_overload())
    }

    /// The decision log, in virtual-time order.
    pub fn events(&self) -> &[SupervisorEvent] {
        &self.events
    }

    /// The write-ahead decision log (intents, commits, failures,
    /// recoveries), in virtual-time order.
    pub fn wal(&self) -> &DecisionLog {
        &self.wal
    }

    /// The fault mask the supervisor currently distrusts.
    pub fn mask(&self) -> ResourceMask {
        let mut mask = ResourceMask::none();
        for &s in &self.servers_down {
            mask = mask.with_server_down(s);
        }
        let mut per_server: BTreeMap<usize, usize> = BTreeMap::new();
        for &(s, _) in &self.failed_cores {
            *per_server.entry(s).or_insert(0) += 1;
        }
        for (s, n) in per_server {
            mask = mask.with_cores_down(s, n);
        }
        mask
    }

    /// Unmask links whose hold-down elapsed by `now`.
    fn expire_hold_downs(&mut self, now: u64) {
        let ready: Vec<usize> = self
            .link_trust_at
            .iter()
            .filter(|&(_, &at)| now >= at)
            .map(|(&s, _)| s)
            .collect();
        for s in ready {
            self.link_trust_at.remove(&s);
            if self.servers_down.remove(&s) {
                self.improve_pending = true;
                self.events.push(SupervisorEvent::LinkTrusted {
                    at_ns: now,
                    server: s,
                });
            }
        }
    }

    fn backoff(&mut self, now: u64) -> ControlAction {
        match self.retry.next_delay() {
            Some(delay) => {
                let until_ns = now.saturating_add(delay);
                self.state = SupervisorState::Backoff { until_ns };
                self.events.push(SupervisorEvent::BackedOff {
                    at_ns: now,
                    until_ns,
                    attempt: self.retry.attempts(),
                });
            }
            None => {
                self.state = SupervisorState::GracefulDegraded;
                self.events.push(SupervisorEvent::Degraded { at_ns: now });
            }
        }
        ControlAction::Continue
    }

    /// Full admitted/SLO vectors (original-chain indexed) for a kept set.
    fn admission_vectors(&self, kept: &[usize]) -> (Vec<bool>, Vec<Option<Slo>>) {
        let n = self.problem.chains.len();
        let mut admitted = vec![false; n];
        let mut slos = vec![None; n];
        for &c in kept {
            admitted[c] = true;
            slos[c] = self.problem.chains[c].slo;
        }
        (admitted, slos)
    }

    /// The `kept` chains (original indices, ascending) on the fault-masked
    /// topology: the problem every candidate epoch is placed in.
    fn sub_problem(&self, kept: &[usize]) -> PlacementProblem {
        PlacementProblem {
            chains: kept
                .iter()
                .map(|&c| self.problem.chains[c].clone())
                .collect(),
            topology: self.problem.topology.degraded(self.mask()),
            profiles: self.problem.profiles.clone(),
        }
    }

    /// Compile `placement` (chain `i` is original chain `kept[i]`), pre-
    /// build its epoch, journal the intent and hand the engine a
    /// two-phase commit. `None` if the candidate does not compile or
    /// build; then nothing is journaled and no state changes.
    fn stage(
        &mut self,
        now: u64,
        kept: &[usize],
        sub: &PlacementProblem,
        placement: &EvaluatedPlacement,
        why: Staging<'_>,
    ) -> Option<ControlAction> {
        let (rollback, ladder, shed) = match why {
            Staging::Repair { shed } => (false, None, shed.to_vec()),
            Staging::Rollback => (true, None, Vec::new()),
            Staging::Ladder(LadderDelta::Shed(c)) => (false, Some(LadderDelta::Shed(c)), vec![c]),
            Staging::Ladder(delta) => (false, Some(delta), Vec::new()),
        };
        let bases: Vec<u32> = kept.iter().map(|&c| self.entry_spi[c]).collect();
        let deployment = compile_repair(sub, placement, &bases).ok()?;
        let (admitted, slos) = self.admission_vectors(kept);
        let staged =
            StagedConfig::build(sub, placement, deployment, admitted.clone(), slos, rollback)
                .ok()?;

        // Moved nodes as `RepairResult::moved_nodes` counts them: every
        // node whose platform changes, plus every node of a shed chain.
        // Shed chains keep their stale entry as a re-admission hint.
        let mut moved: usize = shed.iter().map(|&c| self.current_assignment[c].len()).sum();
        let mut assignment = self.current_assignment.clone();
        for (i, &c) in kept.iter().enumerate() {
            let nodes = &placement.assignment[i];
            moved += nodes
                .iter()
                .filter(|&(node, platform)| assignment[c].get(node) != Some(platform))
                .count();
            assignment[c] = nodes.clone();
        }
        self.pending = Some(PendingCommit {
            assignment,
            admitted,
            ladder,
        });
        self.state = SupervisorState::Draining;
        // WAL intent first: a crash after this point replays as "swap of
        // unknown outcome", never as silent state loss.
        self.wal.append(WalRecord::Intent {
            at_ns: now,
            rollback,
            shed: shed.clone(),
        });
        if let Some(delta) = ladder {
            self.events.push(delta.event(now));
        }
        self.events.push(SupervisorEvent::Staged {
            at_ns: now,
            shed,
            moved_nodes: moved,
            rollback,
        });
        Some(ControlAction::StageCommit {
            staged: Box::new(staged),
            drain_ns: self.cfg.drain_ns,
        })
    }

    /// A repair worth staging changes something, and its dry run clears
    /// every survivor's `t_min` (within `validation_tol`).
    fn worth_staging(&self, r: &RepairResult) -> bool {
        let (admitted, _) = self.admission_vectors(&r.kept);
        let unchanged = admitted == self.current_admitted
            && r.kept
                .iter()
                .enumerate()
                .all(|(i, &c)| r.placement.assignment[i] == self.current_assignment[c]);
        let valid = r.kept.iter().enumerate().all(|(i, &c)| {
            let t_min = self.problem.chains[c].slo.map_or(0.0, |s| s.t_min_bps);
            r.placement.chain_rates_bps[i] >= t_min * (1.0 - self.cfg.validation_tol)
        });
        !unchanged && valid
    }

    /// Repair against the current mask, validate, and stage a commit.
    fn try_replan(&mut self, now: u64, reason: ReplanReason) -> ControlAction {
        self.streak = 0;
        self.improve_pending = false;
        if reason == ReplanReason::Violation {
            self.repair_attempts += 1;
        }
        let mask = self.mask();
        let staged =
            match repair_assignment(&self.problem, &self.current_assignment, mask, self.oracle) {
                Ok(r) if self.worth_staging(&r) => {
                    let why = Staging::Repair { shed: &r.shed };
                    self.stage(now, &r.kept, &r.problem, &r.placement, why)
                }
                _ => None,
            };
        match (staged, reason) {
            (Some(action), _) => action,
            // Repair has nothing to offer (e.g. the violation is a traffic
            // lull or an unmaskable crash): backing off is all we can do.
            (None, ReplanReason::Violation) => self.backoff(now),
            (None, ReplanReason::Improve) => ControlAction::Continue,
        }
    }

    /// Stage a return to the last-known-good placement (on the degraded
    /// topology). Falls back to backoff → fresh repair if LKG no longer
    /// fits the surviving rack.
    fn stage_rollback(&mut self, now: u64) -> ControlAction {
        let kept: Vec<usize> = (0..self.problem.chains.len())
            .filter(|&c| self.lkg_admitted[c])
            .collect();
        let sub = self.sub_problem(&kept);
        let lkg: Assignment = kept
            .iter()
            .map(|&c| self.lkg_assignment[c].clone())
            .collect();
        sub.evaluate(&lkg, CoreStrategy::WaterFill)
            .ok()
            .and_then(|placement| self.stage(now, &kept, &sub, &placement, Staging::Rollback))
            .unwrap_or_else(|| self.backoff(now))
    }

    /// Shed-priority of a chain (higher survives longer).
    fn chain_priority(&self, c: usize) -> u8 {
        self.problem.chains[c].slo.map_or(0, |s| s.priority)
    }

    /// The next chain the ladder would shed: lowest [`Slo::priority`]
    /// among the admitted, but never the single most important chain —
    /// something must keep serving all the way to `GracefulDegraded`.
    fn shed_victim(&self) -> Option<usize> {
        let admitted: Vec<usize> = (0..self.problem.chains.len())
            .filter(|&c| self.current_admitted[c])
            .collect();
        let top = admitted
            .iter()
            .copied()
            .max_by_key(|&c| (self.chain_priority(c), std::cmp::Reverse(c)))?;
        admitted
            .iter()
            .copied()
            .filter(|&c| c != top)
            .min_by_key(|&c| (self.chain_priority(c), c))
    }

    /// Flip the dataplane's per-chain junk-admission denial (rung 1).
    /// Takes effect immediately — no epoch swap, no drain loss.
    fn set_admission(&mut self, now: u64, deny: bool) -> ControlAction {
        self.admission_on = deny;
        self.wal
            .append(WalRecord::AdmissionControl { at_ns: now, deny });
        self.events
            .push(SupervisorEvent::ladder(now, deny, 1, None));
        ControlAction::SetTailAdmission {
            deny_junk: vec![deny; self.problem.chains.len()],
        }
    }

    /// Chains admitted once `delta` commits, ascending.
    fn kept_after(&self, delta: LadderDelta) -> Vec<usize> {
        let admitted = &self.current_admitted;
        (0..self.problem.chains.len())
            .filter(|&c| match delta {
                LadderDelta::Shed(victim) => admitted[c] && c != victim,
                LadderDelta::Restore(chain) => admitted[c] || c == chain,
                LadderDelta::ScaleOut => admitted[c],
            })
            .collect()
    }

    /// Stage a two-phase commit whose only change is admission: shed a
    /// chain (rung 2 up) or re-admit one (rung 2 down). The survivors
    /// keep their placements; the shed chain keeps its stale assignment
    /// entry as the re-admission hint.
    fn stage_ladder_swap(&mut self, now: u64, delta: LadderDelta) -> ControlAction {
        let kept = self.kept_after(delta);
        let sub = self.sub_problem(&kept);
        let current: Assignment = kept
            .iter()
            .map(|&c| self.current_assignment[c].clone())
            .collect();
        // Infeasible (e.g. the restored chain no longer fits the degraded
        // rack): leave the rung as it is and retry on the next patience
        // expiry.
        sub.evaluate(&current, CoreStrategy::WaterFill)
            .ok()
            .and_then(|placement| self.stage(now, &kept, &sub, &placement, Staging::Ladder(delta)))
            .unwrap_or(ControlAction::Continue)
    }

    /// Rung 3: ask the placer for a fresh scale-out placement of the
    /// surviving chains on the fault-masked topology.
    fn stage_scaleout(&mut self, now: u64) -> ControlAction {
        let delta = LadderDelta::ScaleOut;
        let kept = self.kept_after(delta);
        let sub = self.sub_problem(&kept);
        lemur_placer::heuristic::place(&sub, self.oracle)
            .ok()
            .filter(|placement| {
                kept.iter()
                    .enumerate()
                    .any(|(i, &c)| placement.assignment[i] != self.current_assignment[c])
            })
            .and_then(|placement| self.stage(now, &kept, &sub, &placement, Staging::Ladder(delta)))
            .unwrap_or_else(|| {
                // No (different) scale-out exists: spend the rung so the
                // ladder can move on to parking rather than retrying
                // forever.
                self.scaled_out = true;
                ControlAction::Continue
            })
    }

    /// Climb one rung: admission denial → shed (ascending priority) →
    /// scale-out → park. Each step is the cheapest remaining lever.
    fn escalate_ladder(&mut self, now: u64) -> ControlAction {
        if !self.admission_on {
            return self.set_admission(now, true);
        }
        if let Some(victim) = self.shed_victim() {
            return self.stage_ladder_swap(now, LadderDelta::Shed(victim));
        }
        if !self.scaled_out {
            return self.stage_scaleout(now);
        }
        if self.state != SupervisorState::GracefulDegraded {
            self.ladder_parked = true;
            self.state = SupervisorState::GracefulDegraded;
            self.events
                .push(SupervisorEvent::ladder(now, true, 4, None));
            self.events.push(SupervisorEvent::Degraded { at_ns: now });
        }
        ControlAction::Continue
    }

    /// Step one rung back down, in reverse order of escalation.
    fn unwind_ladder(&mut self, now: u64) -> ControlAction {
        if self.scaled_out {
            // The scale-out placement is not harmful on a calm rack;
            // fold it back through the normal improve path instead of a
            // dedicated swap.
            self.scaled_out = false;
            self.improve_pending = true;
            self.events
                .push(SupervisorEvent::ladder(now, false, 3, None));
            return ControlAction::Continue;
        }
        if let Some(&chain) = self.overload_shed.last() {
            return self.stage_ladder_swap(now, LadderDelta::Restore(chain));
        }
        if self.admission_on {
            return self.set_admission(now, false);
        }
        ControlAction::Continue
    }
}

impl ControlHook for Supervisor<'_> {
    fn on_fault(&mut self, at_ns: u64, kind: &FaultKind) -> ControlAction {
        match *kind {
            FaultKind::LinkDown { server } => {
                // Distrust is immediate; any pending re-trust is void.
                self.servers_down.insert(server);
                self.link_trust_at.remove(&server);
            }
            FaultKind::LinkUp { server } => {
                // Trust is slow: start the hold-down clock.
                if self.servers_down.contains(&server) {
                    self.link_trust_at
                        .insert(server, at_ns + self.cfg.hold_down_ns);
                }
            }
            FaultKind::CoreFail { server, core } => {
                self.failed_cores.insert((server, core));
            }
            // Crashes, drift, and surges don't map onto rack resources;
            // the guard decides whether they hurt enough to act on.
            // Migration faults arm inside the engine and surface through
            // `on_migration_failed` if a swap is actually attempted.
            FaultKind::NfCrash { .. }
            | FaultKind::NfRecover { .. }
            | FaultKind::ProfileDrift { .. }
            | FaultKind::TrafficSurge { .. }
            | FaultKind::MigrationFault { .. } => {}
        }
        if self.state == SupervisorState::Converged {
            self.state = SupervisorState::Monitoring;
        }
        ControlAction::Continue
    }

    fn on_window(
        &mut self,
        end_ns: u64,
        samples: &[WindowSample],
        violations: &[TimelineEvent],
    ) -> ControlAction {
        // Keep the classifier's hysteresis current in every state, even
        // the ones that take no action this window.
        let overload = match self.surge.as_mut() {
            Some(det) => det.observe(samples) == SurgeClass::Overload,
            None => false,
        };
        let violated = !violations.is_empty();

        if self.state == SupervisorState::GracefulDegraded {
            if !self.ladder_parked {
                // Parked by exhausted repair attempts: terminal.
                return ControlAction::Continue;
            }
            // Parked by the ladder: a calm stretch un-parks it.
            if violated || overload {
                self.calm_windows = 0;
                return ControlAction::Continue;
            }
            self.calm_windows += 1;
            if self.calm_windows >= self.cfg.unwind_patience {
                self.calm_windows = 0;
                self.ladder_parked = false;
                self.retry.reset();
                self.streak = 0;
                self.state = SupervisorState::Monitoring;
                self.events
                    .push(SupervisorEvent::ladder(end_ns, false, 4, None));
            }
            return ControlAction::Continue;
        }
        self.expire_hold_downs(end_ns);

        match self.state {
            SupervisorState::Monitoring | SupervisorState::Converged => {
                if violated && overload {
                    // Pure surge: a replan cannot manufacture capacity
                    // that was never provisioned, and churning the
                    // dataplane now maximizes update-time loss. Suppress
                    // the repair loop; climb the ladder instead.
                    self.suppressed_replans += 1;
                    self.streak = 0;
                    self.calm_windows = 0;
                    self.state = SupervisorState::Monitoring;
                    self.overload_windows += 1;
                    if self.overload_windows >= self.cfg.ladder_patience {
                        self.overload_windows = 0;
                        return self.escalate_ladder(end_ns);
                    }
                    return ControlAction::Continue;
                }
                self.overload_windows = 0;
                if violated {
                    self.streak += 1;
                    self.calm_windows = 0;
                    self.state = SupervisorState::Monitoring;
                } else {
                    self.streak = 0;
                    self.state = SupervisorState::Converged;
                    if self.ladder_engaged() {
                        if overload {
                            self.calm_windows = 0;
                        } else {
                            self.calm_windows += 1;
                        }
                        if self.calm_windows >= self.cfg.unwind_patience {
                            self.calm_windows = 0;
                            return self.unwind_ladder(end_ns);
                        }
                    }
                }
                if self.streak >= self.cfg.hysteresis_k {
                    self.events.push(SupervisorEvent::Detected {
                        at_ns: end_ns,
                        streak: self.streak,
                    });
                    return self.try_replan(end_ns, ReplanReason::Violation);
                }
                if self.improve_pending && !overload {
                    return self.try_replan(end_ns, ReplanReason::Improve);
                }
                ControlAction::Continue
            }
            SupervisorState::Backoff { until_ns } => {
                if end_ns < until_ns {
                    return ControlAction::Continue;
                }
                if violated && overload {
                    // The episode is (or became) overload: stop charging
                    // repair attempts and let the ladder logic see it.
                    self.suppressed_replans += 1;
                    self.streak = 0;
                    self.state = SupervisorState::Monitoring;
                    return ControlAction::Continue;
                }
                if violated {
                    return self.try_replan(end_ns, ReplanReason::Violation);
                }
                // The episode resolved itself while we waited.
                self.retry.reset();
                self.streak = 0;
                self.state = SupervisorState::Monitoring;
                if self.improve_pending && !overload {
                    return self.try_replan(end_ns, ReplanReason::Improve);
                }
                ControlAction::Continue
            }
            SupervisorState::Draining => ControlAction::Continue,
            SupervisorState::Probation {
                windows_left,
                grace,
            } => {
                if grace {
                    // This window straddles the swap; its stats mix epochs.
                    self.state = SupervisorState::Probation {
                        windows_left,
                        grace: false,
                    };
                    return ControlAction::Continue;
                }
                if violated && !overload {
                    return self.stage_rollback(end_ns);
                }
                let left = windows_left.saturating_sub(1);
                if left == 0 {
                    self.lkg_assignment = self.current_assignment.clone();
                    self.lkg_admitted = self.current_admitted.clone();
                    self.retry.reset();
                    self.streak = 0;
                    self.state = SupervisorState::Converged;
                    self.events
                        .push(SupervisorEvent::Promoted { at_ns: end_ns });
                } else {
                    self.state = SupervisorState::Probation {
                        windows_left: left,
                        grace: false,
                    };
                }
                ControlAction::Continue
            }
            SupervisorState::GracefulDegraded => ControlAction::Continue,
        }
    }

    fn on_commit(&mut self, at_ns: u64, epoch: u64, packets_lost: u64, rollback: bool) {
        if let Some(pending) = self.pending.take() {
            self.current_assignment = pending.assignment;
            self.current_admitted = pending.admitted;
            match pending.ladder {
                Some(LadderDelta::Shed(c)) => self.overload_shed.push(c),
                Some(LadderDelta::Restore(c)) => self.overload_shed.retain(|&x| x != c),
                Some(LadderDelta::ScaleOut) => self.scaled_out = true,
                None => {}
            }
            // A non-ladder commit (repair or rollback) may re-admit
            // chains the ladder had shed; reconcile so the unwind never
            // tries to restore an already-admitted chain.
            self.overload_shed.retain(|&c| !self.current_admitted[c]);
        }
        self.wal.append(WalRecord::Committed {
            at_ns,
            epoch,
            rollback,
        });
        self.events.push(SupervisorEvent::Committed {
            at_ns,
            epoch,
            packets_lost,
            rollback,
        });
        self.streak = 0;
        self.state = if rollback {
            // Back on known-good ground; monitor rather than re-trial.
            SupervisorState::Monitoring
        } else if self.cfg.probation_windows == 0 {
            self.lkg_assignment = self.current_assignment.clone();
            self.lkg_admitted = self.current_admitted.clone();
            self.retry.reset();
            SupervisorState::Converged
        } else {
            SupervisorState::Probation {
                windows_left: self.cfg.probation_windows,
                grace: true,
            }
        };
    }

    fn on_migration_failed(&mut self, at_ns: u64, error: &MigrationError) {
        // The swap never happened: the engine kept the old epoch (and its
        // NF state) live, so the staged assignment must be forgotten.
        self.pending = None;
        self.wal.append(WalRecord::MigrationFailed {
            at_ns,
            error: error.clone(),
        });
        self.events.push(SupervisorEvent::MigrationFailed {
            at_ns,
            error: error.clone(),
        });
        if *error == MigrationError::ControlCrash {
            // Crash recovery: replay the decision log to re-learn the
            // consistent state (last committed epoch; this attempt is a
            // resolved failure, not a half-applied swap).
            let replayed = self.wal.len();
            let summary = self.wal.replay();
            debug_assert!(
                !summary.in_flight_intent,
                "replay must resolve every intent"
            );
            self.wal.append(WalRecord::Recovered { at_ns, replayed });
            self.events.push(SupervisorEvent::Recovered {
                at_ns,
                committed_epoch: summary.committed_epoch,
            });
        }
        // Either way the episode consumed an attempt: back off before
        // trying to reconfigure again (or park if attempts are spent).
        let _ = self.backoff(at_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lemur_core::chains::{canonical_chain, CanonicalChain};
    use lemur_core::graph::ChainSpec;
    use lemur_dataplane::{SimConfig, Testbed, TrafficSpec, ViolationKind};
    use lemur_metacompiler::compile;
    use lemur_placer::heuristic::place;
    use lemur_placer::oracle::AlwaysFits;
    use lemur_placer::profiles::NfProfiles;
    use lemur_placer::topology::Topology;

    fn problem(n_servers: usize, delta: f64) -> (PlacementProblem, Vec<TrafficSpec>) {
        let mut specs = Vec::new();
        let chains = [CanonicalChain::Chain3, CanonicalChain::Chain2]
            .iter()
            .enumerate()
            .map(|(i, w)| {
                let spec = TrafficSpec::for_chain(i + 1, 1e9).expect("chain index in range");
                let agg = spec.aggregate();
                specs.push(spec);
                ChainSpec {
                    name: format!("chain{}", w.index()),
                    graph: canonical_chain(*w),
                    slo: None,
                    aggregate: Some(agg),
                }
            })
            .collect::<Vec<_>>();
        let mut p = PlacementProblem::new(
            chains,
            Topology::with_servers(n_servers),
            NfProfiles::table4(),
        );
        for i in 0..p.chains.len() {
            let base = p.base_rate_bps(i);
            p.chains[i].slo =
                Some(Slo::elastic_pipe(delta * base, 100e9).with_priority((2 - i) as u8));
        }
        (p, specs)
    }

    fn deployed(p: &PlacementProblem) -> Result<(EvaluatedPlacement, Deployment), String> {
        let placement = place(p, &AlwaysFits).map_err(|e| format!("place: {e:?}"))?;
        let deployment = compile(p, &placement).map_err(|e| format!("compile: {e:?}"))?;
        Ok((placement, deployment))
    }

    fn violation(at_ns: u64) -> TimelineEvent {
        TimelineEvent::SloViolation {
            at_ns,
            chain: 0,
            kind: ViolationKind::RateBelowMin,
            observed: 0.0,
            bound: 1e9,
        }
    }

    const WIN: u64 = 1_000_000;

    /// Feed `sup` a violated window at window-grid time `w`.
    fn violated_window(sup: &mut Supervisor<'_>, w: u64) -> ControlAction {
        sup.on_window(w * WIN, &[], &[violation(w * WIN)])
    }

    fn clean_window(sup: &mut Supervisor<'_>, w: u64) -> ControlAction {
        sup.on_window(w * WIN, &[], &[])
    }

    /// Lengths of the WAL and the event log, taken before a call that
    /// may stage.
    fn mark(sup: &Supervisor<'_>) -> (usize, usize) {
        (sup.wal().len(), sup.events().len())
    }

    /// Hold a staging to the contract every caller shares, then commit
    /// it: since `before`, exactly one `Intent` was journaled and it
    /// agrees with the `Staged` event; `Staged` is the last event, right
    /// after the ladder event if the commit moves the ladder; committing
    /// makes `admitted()` the staged admission vector. Returns `Staged`.
    fn commit_staged(
        sup: &mut Supervisor<'_>,
        before: (usize, usize),
        action: ControlAction,
        at_ns: u64,
        epoch: u64,
    ) -> SupervisorEvent {
        let ControlAction::StageCommit { staged, .. } = action else {
            panic!("expected a StageCommit");
        };
        let records = &sup.wal().records()[before.0..];
        let [WalRecord::Intent { rollback, shed, .. }] = records else {
            panic!("expected exactly one Intent, got {records:?}");
        };
        let events = &sup.events()[before.1..];
        let Some(
            last @ SupervisorEvent::Staged {
                shed: staged_shed,
                rollback: staged_rollback,
                ..
            },
        ) = events.last()
        else {
            panic!("Staged must be the last event: {events:?}");
        };
        assert_eq!((staged_shed, staged_rollback), (shed, rollback));
        assert_eq!(*rollback, staged.is_rollback());
        let last = last.clone();
        let pending = sup.pending.as_ref().expect("a staged commit is pending");
        if let Some(delta) = pending.ladder {
            assert_eq!(events.iter().rev().nth(1), Some(&delta.event(last.at_ns())));
        }
        let admitted = pending.admitted.clone();
        sup.on_commit(at_ns, epoch, 0, staged.is_rollback());
        assert_eq!(sup.admitted(), &admitted[..]);
        last
    }

    use surge::SurgeConfig;

    /// A detector declaring 1000 legitimate packets per window per chain,
    /// with single-window hysteresis so tests stay short.
    fn detector() -> SurgeDetector {
        SurgeDetector::new(
            vec![1000.0 / WIN as f64; 2],
            SurgeConfig {
                k_up: 1,
                k_down: 1,
                ..SurgeConfig::default()
            },
        )
    }

    fn sample(chain: usize, w: u64, arrived: u64, junk: u64) -> WindowSample {
        WindowSample {
            start_ns: (w - 1) * WIN,
            end_ns: w * WIN,
            chain,
            delivered_bps: 0.0,
            delivered_packets: arrived,
            dropped_packets: 0,
            mean_latency_ns: 0.0,
            arrived_packets: arrived,
            junk_packets: junk,
            backlog_packets: 0,
        }
    }

    /// A violated window whose samples scream overload (5× declared,
    /// mostly junk).
    fn surge_window(sup: &mut Supervisor<'_>, w: u64) -> ControlAction {
        let samples = [sample(0, w, 5000, 2000), sample(1, w, 5000, 2000)];
        sup.on_window(w * WIN, &samples, &[violation(w * WIN)])
    }

    /// A clean window at exactly the declared intensity.
    fn calm_window(sup: &mut Supervisor<'_>, w: u64) -> ControlAction {
        let samples = [sample(0, w, 1000, 0), sample(1, w, 1000, 0)];
        sup.on_window(w * WIN, &samples, &[])
    }

    /// The whole arc: suppression → admission → shed → scale-out → park
    /// under sustained overload, then a full reverse unwind on calm.
    #[test]
    fn ladder_climbs_under_overload_and_fully_unwinds() -> Result<(), String> {
        let (p, _) = problem(3, 0.4);
        let (placement, deployment) = deployed(&p)?;
        let cfg = SupervisorConfig {
            ladder_patience: 2,
            unwind_patience: 2,
            ..Default::default()
        };
        let mut sup = Supervisor::new(&p, &placement, &deployment, &AlwaysFits, cfg)
            .with_surge_detector(detector());

        // Two overload windows: the repair loop stays silent, then the
        // ladder's first rung flips admission control on.
        assert!(matches!(surge_window(&mut sup, 1), ControlAction::Continue));
        let action = surge_window(&mut sup, 2);
        match action {
            ControlAction::SetTailAdmission { deny_junk } => {
                assert!(deny_junk.iter().all(|&d| d))
            }
            _ => panic!("expected admission denial"),
        }
        assert_eq!(sup.repair_attempts(), 0, "no replans under pure surge");
        assert_eq!(sup.suppressed_replans(), 2);
        assert!(sup.ladder_engaged());

        // Still overloaded: rung 2 sheds the *lowest-priority* chain
        // (chain 1; chain 0 has the higher priority and is untouchable).
        surge_window(&mut sup, 3);
        let before = mark(&sup);
        let action = surge_window(&mut sup, 4);
        let staged = commit_staged(&mut sup, before, action, 4 * WIN + 200_000, 1);
        let SupervisorEvent::Staged { moved_nodes, .. } = staged else {
            panic!("expected Staged, got {staged:?}");
        };
        assert_eq!(
            moved_nodes,
            placement.assignment[1].len(),
            "the shed chain's nodes"
        );
        assert_eq!(sup.overload_shed(), &[1]);
        assert_eq!(sup.admitted(), &[true, false]);

        // Probation rides through surge-violated windows as if clean:
        // the fresh epoch is not at fault for the overload.
        surge_window(&mut sup, 5); // grace
        surge_window(&mut sup, 6);
        surge_window(&mut sup, 7);
        assert_eq!(sup.state(), SupervisorState::Converged);
        assert_eq!(sup.lkg_admitted, vec![true, false]);

        // Rung 3: scale out the survivor on the (unmasked) topology. A
        // fresh placement may be identical to the running one, in which
        // case the rung is spent without a swap.
        surge_window(&mut sup, 8);
        let before = mark(&sup);
        let action = surge_window(&mut sup, 9);
        let mut w = 10;
        if matches!(action, ControlAction::StageCommit { .. }) {
            commit_staged(&mut sup, before, action, 9 * WIN + 200_000, 2);
            for _ in 0..3 {
                surge_window(&mut sup, w);
                w += 1;
            }
            assert_eq!(sup.state(), SupervisorState::Converged);
        }
        assert!(sup.scaled_out, "rung 3 must be spent");

        // Rung 4: nothing left — park, recoverably.
        surge_window(&mut sup, w);
        surge_window(&mut sup, w + 1);
        assert_eq!(sup.state(), SupervisorState::GracefulDegraded);
        assert!(sup.ladder_parked);
        w += 2;

        // Calm returns: drive clean windows and commit whatever the
        // unwind stages until every rung has stepped back down.
        let mut epoch = 3;
        for i in 0..60 {
            let before = mark(&sup);
            let action = calm_window(&mut sup, w + i);
            match action {
                ControlAction::StageCommit { .. } => {
                    commit_staged(&mut sup, before, action, (w + i) * WIN + 200_000, epoch);
                    epoch += 1;
                }
                ControlAction::SetTailAdmission { deny_junk } => {
                    assert!(
                        deny_junk.iter().all(|&d| !d),
                        "unwind must clear the denial, not re-arm it"
                    );
                }
                ControlAction::Continue => {}
            }
            if !sup.ladder_engaged() && sup.admitted().iter().all(|&a| a) && sup.is_settled() {
                break;
            }
        }
        assert!(!sup.ladder_engaged(), "residual ladder state after calm");
        assert!(
            sup.admitted().iter().all(|&a| a),
            "shed chains must be restored: {:?}",
            sup.admitted()
        );
        assert!(!sup.admission_on);
        assert_eq!(sup.repair_attempts(), 0, "the whole arc was pure surge");
        assert!(sup
            .events()
            .iter()
            .any(|e| matches!(e, SupervisorEvent::LadderUnwound { rung: 4, .. })));
        // The WAL journaled both admission flips.
        assert!(sup
            .wal()
            .records()
            .iter()
            .any(|r| matches!(r, WalRecord::AdmissionControl { deny: true, .. })));
        assert!(!sup.wal().replay().admission_deny);
        Ok(())
    }

    /// Stage from window `w` (calm or surging), commit it, and ride out
    /// its probation through surging windows, which count as clean.
    /// Returns the events window `w` pushed, `Staged` last.
    fn stage_and_promote(
        sup: &mut Supervisor<'_>,
        w: u64,
        calm: bool,
        epoch: u64,
    ) -> Vec<SupervisorEvent> {
        let before = mark(sup);
        let action = if calm {
            calm_window(sup, w)
        } else {
            surge_window(sup, w)
        };
        commit_staged(sup, before, action, w * WIN + 200_000, epoch);
        let pushed = sup.events()[before.1..sup.events().len() - 1].to_vec();
        for k in 1..=3 {
            surge_window(sup, w + k);
        }
        assert_eq!(sup.state(), SupervisorState::Converged);
        pushed
    }

    /// The ladder's restore and scale-out stage through the same contract
    /// as a repair or a rollback.
    #[test]
    fn ladder_restore_and_scaleout_keep_the_staging_contract() -> Result<(), String> {
        let (p, _) = problem(3, 0.4);
        let (placement, deployment) = deployed(&p)?;
        let cfg = SupervisorConfig {
            ladder_patience: 1,
            unwind_patience: 1,
            ..Default::default()
        };
        let mut sup = Supervisor::new(&p, &placement, &deployment, &AlwaysFits, cfg)
            .with_surge_detector(detector());

        // Rung 1, then rung 2 sheds chain 1; a calm window restores it.
        surge_window(&mut sup, 1);
        stage_and_promote(&mut sup, 2, false, 1);
        assert_eq!(sup.admitted(), &[true, false]);
        let restore = stage_and_promote(&mut sup, 6, true, 2);
        assert!(
            matches!(
                restore.as_slice(),
                [
                    ..,
                    SupervisorEvent::LadderUnwound {
                        rung: 2,
                        chain: Some(1),
                        ..
                    },
                    SupervisorEvent::Staged { .. }
                ]
            ),
            "{restore:?}"
        );
        assert_eq!(sup.admitted(), &[true, true]);

        // Shed again, then lose a server under chain 0 while the surge
        // holds repair back: rung 3 must re-place chain 0 off it.
        stage_and_promote(&mut sup, 10, false, 3);
        let dead = placement
            .subgroups
            .iter()
            .find(|sg| sg.chain == 0)
            .ok_or("chain 0 has no subgroup")?
            .server;
        sup.on_fault(14 * WIN - 1, &FaultKind::LinkDown { server: dead });
        let scaleout = stage_and_promote(&mut sup, 14, false, 4);
        assert!(
            matches!(
                scaleout.as_slice(),
                [
                    ..,
                    SupervisorEvent::LadderEscalated {
                        rung: 3,
                        chain: None,
                        ..
                    },
                    SupervisorEvent::Staged { moved_nodes, .. }
                ] if *moved_nodes > 0
            ),
            "{scaleout:?}"
        );
        assert!(sup.scaled_out);
        Ok(())
    }

    /// Overload arriving at backoff expiry must neither charge another
    /// repair attempt nor keep the supervisor pinned in backoff.
    #[test]
    fn overload_at_backoff_expiry_suppresses_instead_of_replanning() -> Result<(), String> {
        let (p, _) = problem(3, 0.4);
        let (placement, deployment) = deployed(&p)?;
        let mut sup = Supervisor::new(
            &p,
            &placement,
            &deployment,
            &AlwaysFits,
            SupervisorConfig::default(),
        )
        .with_surge_detector(detector());

        // A non-overload violation episode with nothing to repair lands
        // in backoff, charging one attempt.
        violated_window(&mut sup, 1);
        violated_window(&mut sup, 2);
        let SupervisorState::Backoff { until_ns } = sup.state() else {
            panic!("expected backoff, got {:?}", sup.state());
        };
        assert_eq!(sup.repair_attempts(), 1);

        // At expiry the violation persists but is now classified
        // overload: no replan, no attempt, back to monitoring.
        let w = until_ns / WIN + 1;
        let action = surge_window(&mut sup, w);
        assert!(matches!(action, ControlAction::Continue));
        assert_eq!(sup.state(), SupervisorState::Monitoring);
        assert_eq!(sup.repair_attempts(), 1, "suppression must not replan");
        assert_eq!(sup.attempts(), 1, "surge must not clear the episode");
        assert!(sup.suppressed_replans() >= 1);
        Ok(())
    }

    /// Without a detector the new machinery is inert: violated windows
    /// drive the repair loop exactly as before.
    #[test]
    fn no_detector_means_every_violation_is_degradation() -> Result<(), String> {
        let (p, _) = problem(3, 0.4);
        let (placement, deployment) = deployed(&p)?;
        let mut sup = Supervisor::new(
            &p,
            &placement,
            &deployment,
            &AlwaysFits,
            SupervisorConfig::default(),
        );
        let dead = placement.subgroups[0].server;
        sup.on_fault(100, &FaultKind::LinkDown { server: dead });
        // Even surge-shaped samples cannot suppress anything.
        let samples = [sample(0, 1, 5000, 2000), sample(1, 1, 5000, 2000)];
        sup.on_window(WIN, &samples, &[violation(WIN)]);
        let samples = [sample(0, 2, 5000, 2000), sample(1, 2, 5000, 2000)];
        let action = sup.on_window(2 * WIN, &samples, &[violation(2 * WIN)]);
        assert!(matches!(action, ControlAction::StageCommit { .. }));
        assert_eq!(sup.repair_attempts(), 1);
        assert_eq!(sup.suppressed_replans(), 0);
        Ok(())
    }

    #[test]
    fn hysteresis_delays_action() -> Result<(), String> {
        let (p, _) = problem(3, 0.4);
        let (placement, deployment) = deployed(&p)?;
        let cfg = SupervisorConfig {
            hysteresis_k: 3,
            ..Default::default()
        };
        let mut sup = Supervisor::new(&p, &placement, &deployment, &AlwaysFits, cfg);

        let dead = placement.subgroups[0].server;
        sup.on_fault(100, &FaultKind::LinkDown { server: dead });
        assert_eq!(sup.state(), SupervisorState::Monitoring);

        // K-1 violated windows: still only watching.
        for w in 1..3 {
            assert!(matches!(
                violated_window(&mut sup, w),
                ControlAction::Continue
            ));
        }
        // A clean window resets the streak; the next violation starts over.
        clean_window(&mut sup, 3);
        assert!(matches!(
            violated_window(&mut sup, 4),
            ControlAction::Continue
        ));
        assert!(matches!(
            violated_window(&mut sup, 5),
            ControlAction::Continue
        ));
        // Third consecutive violation crosses the threshold and stages.
        let before = mark(&sup);
        let action = violated_window(&mut sup, 6);
        assert_eq!(sup.state(), SupervisorState::Draining);
        let staged = commit_staged(&mut sup, before, action, 6 * WIN + 200_000, 1);
        assert!(matches!(
            staged,
            SupervisorEvent::Staged {
                rollback: false,
                ..
            }
        ));
        Ok(())
    }

    #[test]
    fn commit_probation_promotion_flow() -> Result<(), String> {
        let (p, _) = problem(3, 0.4);
        let (placement, deployment) = deployed(&p)?;
        let mut sup = Supervisor::new(
            &p,
            &placement,
            &deployment,
            &AlwaysFits,
            SupervisorConfig::default(),
        );

        let dead = placement.subgroups[0].server;
        sup.on_fault(100, &FaultKind::LinkDown { server: dead });
        violated_window(&mut sup, 1);
        let before = mark(&sup);
        let action = violated_window(&mut sup, 2);
        // Engine swaps; epoch 1 goes live.
        commit_staged(&mut sup, before, action, 2 * WIN + 200_000, 1);
        assert!(matches!(
            sup.state(),
            SupervisorState::Probation { grace: true, .. }
        ));

        // Grace window (straddles the swap), then two clean windows.
        clean_window(&mut sup, 3);
        clean_window(&mut sup, 4);
        assert!(matches!(sup.state(), SupervisorState::Probation { .. }));
        clean_window(&mut sup, 5);
        assert_eq!(sup.state(), SupervisorState::Converged);
        assert_eq!(sup.attempts(), 0);
        assert!(sup
            .events()
            .iter()
            .any(|e| matches!(e, SupervisorEvent::Promoted { .. })));
        // The promoted placement is now last-known-good.
        assert_eq!(sup.lkg_assignment, sup.current_assignment);
        Ok(())
    }

    #[test]
    fn probation_violation_stages_rollback() -> Result<(), String> {
        let (p, _) = problem(3, 0.4);
        let (placement, deployment) = deployed(&p)?;
        let mut sup = Supervisor::new(
            &p,
            &placement,
            &deployment,
            &AlwaysFits,
            SupervisorConfig::default(),
        );

        let dead = placement.subgroups[0].server;
        sup.on_fault(100, &FaultKind::LinkDown { server: dead });
        violated_window(&mut sup, 1);
        let before = mark(&sup);
        let action = violated_window(&mut sup, 2);
        let repair = commit_staged(&mut sup, before, action, 2 * WIN + 200_000, 1);

        // Hold-down expires mid-probation: the link is trusted again, so
        // the LKG (which used that server) is feasible for rollback.
        sup.on_fault(2 * WIN + 300_000, &FaultKind::LinkUp { server: dead });
        clean_window(&mut sup, 3); // grace
        let before = mark(&sup);
        let action = sup.on_window(9 * WIN, &[], &[violation(9 * WIN)]);
        let rollback = commit_staged(&mut sup, before, action, 9 * WIN + 200_000, 2);
        assert!(
            matches!(rollback, SupervisorEvent::Staged { rollback: true, .. }),
            "probation violation must stage a rollback"
        );
        assert!(matches!(
            repair,
            SupervisorEvent::Staged {
                rollback: false,
                ..
            }
        ));
        assert_eq!(sup.state(), SupervisorState::Monitoring);
        // All chains re-admitted by the rollback.
        assert!(sup.admitted().iter().all(|&a| a));
        Ok(())
    }

    #[test]
    fn unfixable_violation_backs_off_then_degrades() -> Result<(), String> {
        let (p, _) = problem(3, 0.4);
        let (placement, deployment) = deployed(&p)?;
        let cfg = SupervisorConfig {
            max_attempts: 2,
            ..Default::default()
        };
        let mut sup = Supervisor::new(&p, &placement, &deployment, &AlwaysFits, cfg);

        // No mask, but the guard screams (e.g. a traffic lull): repair
        // returns the identical placement, so all we can do is back off.
        violated_window(&mut sup, 1);
        violated_window(&mut sup, 2);
        let SupervisorState::Backoff { until_ns } = sup.state() else {
            panic!("expected backoff, got {:?}", sup.state());
        };
        assert_eq!(sup.attempts(), 1);

        // Still violating at expiry → second attempt → still nothing.
        let w = until_ns / WIN + 1;
        violated_window(&mut sup, w);
        let SupervisorState::Backoff { until_ns } = sup.state() else {
            panic!("expected a second backoff, got {:?}", sup.state());
        };
        violated_window(&mut sup, until_ns / WIN + 1);
        assert_eq!(sup.state(), SupervisorState::GracefulDegraded);

        // Parked: further windows do nothing.
        assert!(matches!(
            violated_window(&mut sup, w + 50),
            ControlAction::Continue
        ));
        assert_eq!(sup.state(), SupervisorState::GracefulDegraded);
        Ok(())
    }

    #[test]
    fn backoff_schedule_is_deterministic() -> Result<(), String> {
        let (p, _) = problem(3, 0.4);
        let (placement, deployment) = deployed(&p)?;
        let mk = || {
            Supervisor::new(
                &p,
                &placement,
                &deployment,
                &AlwaysFits,
                SupervisorConfig {
                    seed: 42,
                    ..Default::default()
                },
            )
        };
        let (mut a, mut b) = (mk(), mk());
        for sup in [&mut a, &mut b] {
            violated_window(sup, 1);
            violated_window(sup, 2);
        }
        assert_eq!(a.state(), b.state());
        assert!(matches!(a.state(), SupervisorState::Backoff { .. }));
        // Different seed → different jitter (with overwhelming probability).
        let mut c = Supervisor::new(
            &p,
            &placement,
            &deployment,
            &AlwaysFits,
            SupervisorConfig {
                seed: 43,
                ..Default::default()
            },
        );
        violated_window(&mut c, 1);
        violated_window(&mut c, 2);
        assert_ne!(a.state(), c.state());
        Ok(())
    }

    /// A base delay near `u64::MAX` saturates the retry time instead of
    /// overflowing it (a panic in debug builds, an immediate retry once
    /// wrapped in release builds).
    #[test]
    fn huge_backoff_base_saturates_the_retry_time() -> Result<(), String> {
        let (p, _) = problem(3, 0.4);
        let (placement, deployment) = deployed(&p)?;
        let cfg = SupervisorConfig {
            backoff_base_ns: u64::MAX - 1_000,
            ..Default::default()
        };
        let mut sup = Supervisor::new(&p, &placement, &deployment, &AlwaysFits, cfg);
        // Nothing to repair: the second violated window backs off.
        violated_window(&mut sup, 1);
        violated_window(&mut sup, 2);
        assert_eq!(sup.state(), SupervisorState::Backoff { until_ns: u64::MAX });
        Ok(())
    }

    /// `Staged::moved_nodes` means one thing on every path: a rollback
    /// that undoes a repair moves back exactly the nodes the repair moved.
    #[test]
    fn rollback_moves_back_what_the_repair_moved() -> Result<(), String> {
        let (p, _) = problem(3, 0.4);
        let (placement, deployment) = deployed(&p)?;
        let mut sup = Supervisor::new(
            &p,
            &placement,
            &deployment,
            &AlwaysFits,
            SupervisorConfig::default(),
        );
        let dead = placement.subgroups[0].server;
        sup.on_fault(100, &FaultKind::LinkDown { server: dead });
        violated_window(&mut sup, 1);
        let before = mark(&sup);
        let action = violated_window(&mut sup, 2);
        let repair = commit_staged(&mut sup, before, action, 2 * WIN + 200_000, 1);
        sup.on_fault(2 * WIN + 300_000, &FaultKind::LinkUp { server: dead });
        clean_window(&mut sup, 3); // grace
        let before = mark(&sup);
        let action = violated_window(&mut sup, 9);
        let rollback = commit_staged(&mut sup, before, action, 9 * WIN + 200_000, 2);

        let SupervisorEvent::Staged {
            moved_nodes: moved,
            shed,
            ..
        } = repair
        else {
            panic!("expected Staged, got {repair:?}");
        };
        assert!(shed.is_empty() && moved > 0, "need a node-moving repair");
        assert!(matches!(
            rollback,
            SupervisorEvent::Staged {
                moved_nodes,
                rollback: true,
                ..
            } if moved_nodes == moved
        ));
        Ok(())
    }

    #[test]
    fn flap_damping_holds_the_mask() -> Result<(), String> {
        let (p, _) = problem(3, 0.4);
        let (placement, deployment) = deployed(&p)?;
        let cfg = SupervisorConfig {
            hold_down_ns: 5 * WIN,
            ..Default::default()
        };
        let mut sup = Supervisor::new(&p, &placement, &deployment, &AlwaysFits, cfg);

        sup.on_fault(WIN / 2, &FaultKind::LinkDown { server: 1 });
        sup.on_fault(WIN / 2 + 1000, &FaultKind::LinkUp { server: 1 });
        // The link is "up" but on probationary hold-down: still masked.
        clean_window(&mut sup, 1);
        assert!(sup.mask().servers_down.contains(&1));

        // A re-flap voids the pending trust entirely.
        sup.on_fault(2 * WIN, &FaultKind::LinkDown { server: 1 });
        clean_window(&mut sup, 8);
        assert!(
            sup.mask().servers_down.contains(&1),
            "re-flap must reset hold-down"
        );

        // Up again; only after a full quiet hold-down does trust return.
        sup.on_fault(8 * WIN + 1000, &FaultKind::LinkUp { server: 1 });
        clean_window(&mut sup, 9);
        assert!(sup.mask().servers_down.contains(&1));
        clean_window(&mut sup, 14);
        assert!(!sup.mask().servers_down.contains(&1), "hold-down elapsed");
        assert!(sup
            .events()
            .iter()
            .any(|e| matches!(e, SupervisorEvent::LinkTrusted { server: 1, .. })));
        Ok(())
    }

    /// End-to-end: a link failure inside the simulation drives the full
    /// detect → repair → drain → commit → probation → promote loop.
    #[test]
    fn supervised_run_commits_and_settles() -> Result<(), String> {
        let (p, mut specs) = problem(3, 0.3);
        let (placement, deployment) = deployed(&p)?;
        let slos: Vec<Option<Slo>> = p.chains.iter().map(|c| c.slo).collect();
        for (i, s) in specs.iter_mut().enumerate() {
            s.offered_bps = (placement.chain_rates_bps[i] * 1.1).max(1e8);
        }

        let mut sup = Supervisor::new(
            &p,
            &placement,
            &deployment,
            &AlwaysFits,
            SupervisorConfig::default(),
        );
        let dead = placement.subgroups[0].server;
        let plan = lemur_dataplane::FaultPlan::new(vec![lemur_dataplane::FaultEvent {
            at_ns: 6_000_000,
            kind: FaultKind::LinkDown { server: dead },
        }]);
        let config = SimConfig {
            duration_s: 0.04,
            warmup_s: 0.002,
            seed: 11,
            window_ns: WIN,
            ..Default::default()
        };
        let mut testbed =
            Testbed::build(&p, &placement, deployment).map_err(|e| format!("build: {e:?}"))?;
        let report = testbed.run_supervised(&specs, config, &plan, &slos, &mut sup);

        assert!(report.commits() >= 1, "the repair must reach the dataplane");
        assert!(
            report.ledger.balanced(),
            "packet conservation: {:?}",
            report.ledger
        );
        assert!(
            sup.is_settled(),
            "soak must end settled, got {:?} (events: {:?})",
            sup.state(),
            sup.events()
        );
        assert!(report.update_time_loss() > 0 || report.ledger.drops_reconfig == 0);
        Ok(())
    }

    /// The SLO guard consumes *hybrid* windows: window samples include
    /// analytic-tail mass, so a `t_min` sitting between the heavy-only
    /// rate and the tail-inclusive rate stays clean, while a `t_min`
    /// above the tail-inclusive rate still violates every window.
    #[test]
    fn guard_consumes_tail_inclusive_hybrid_windows() -> Result<(), String> {
        use lemur_dataplane::{ChainLoad, FlowSizeDist, HybridConfig, HybridMode, ScenarioSpec};

        let (p, specs) = problem(3, 0.3);
        let (placement, deployment) = deployed(&p)?;
        let config = SimConfig {
            duration_s: 0.004,
            warmup_s: 0.001,
            seed: 5,
            window_ns: WIN,
            ..Default::default()
        };
        let horizon_ns = ((config.warmup_s + config.duration_s) * 1e9) as u64;
        // Short mice with a few modest elephants: at θ = 6 roughly 90% of
        // the packet mass is analytic tail.
        let theta = 6u64;
        let load = || ChainLoad {
            flows: 400,
            flow_rate_pps: 400_000.0,
            size: FlowSizeDist {
                alpha: 1.3,
                min_packets: 1,
                max_packets: 8,
            },
            diurnal: None,
            surges: vec![],
        };
        let scenario = ScenarioSpec {
            seed: 23,
            horizon_ns,
            chains: vec![load(), load()],
        }
        .materialize();
        let horizon_s = horizon_ns as f64 / 1e9;
        let frame_bits = (specs[0].payload_len + 42) as f64 * 8.0;
        let rate_of = |chain: usize, heavy_only: bool| -> f64 {
            scenario
                .flows
                .iter()
                .filter(|f| f.chain == chain && (!heavy_only || f.size_packets >= theta))
                .map(|f| f.packets)
                .sum::<u64>() as f64
                * frame_bits
                / horizon_s
        };
        let heavy0 = rate_of(0, true);
        let total0 = rate_of(0, false);
        let t_min0 = 0.5 * total0;
        assert!(
            heavy0 < t_min0,
            "split too heavy-skewed ({heavy0:.0} vs {t_min0:.0}): the test would be vacuous"
        );
        // Chain 1's floor is unreachable even with the tail included.
        let t_min1 = 3.0 * rate_of(1, false);
        let slos = vec![
            Some(Slo::elastic_pipe(t_min0, 100e9)),
            Some(Slo::elastic_pipe(t_min1, 100e9)),
        ];

        // A supervisor that observes but never replans: hybrid windows
        // drive its violation streaks, nothing else.
        let cfg = SupervisorConfig {
            hysteresis_k: 1_000,
            ..Default::default()
        };
        let mut sup = Supervisor::new(&p, &placement, &deployment, &AlwaysFits, cfg);
        let mut testbed =
            Testbed::build(&p, &placement, deployment).map_err(|e| format!("build: {e:?}"))?;
        let report = testbed
            .run_scenario_supervised(
                &scenario,
                &specs,
                config,
                &lemur_dataplane::FaultPlan::empty(),
                &slos,
                &HybridMode::Hybrid(HybridConfig {
                    heavy_min_packets: theta,
                    ..HybridConfig::default()
                }),
                &mut sup,
            )
            .map_err(|e| format!("scenario: {e}"))?;

        assert!(report.ledger.balanced(), "ledger: {:?}", report.ledger);
        let violated_chains: Vec<usize> = report
            .timeline
            .iter()
            .filter_map(|e| match e {
                TimelineEvent::SloViolation { chain, .. } => Some(*chain),
                _ => None,
            })
            .collect();
        // Chain 0 clears its floor only because tail mass is counted.
        assert!(
            !violated_chains.contains(&0),
            "chain 0 violated: the guard is not seeing tail mass ({violated_chains:?})"
        );
        // Chain 1's floor is unreachable: every closed window violates.
        assert!(
            violated_chains.iter().filter(|&&c| c == 1).count() >= 3,
            "chain 1 should violate nearly every window, got {violated_chains:?}"
        );
        // The supervisor consumed those windows (violation streak active).
        assert_eq!(sup.state(), SupervisorState::Monitoring);
        // And the samples themselves carry more than the heavy packets.
        let heavy_pkts: u64 = scenario
            .flows
            .iter()
            .filter(|f| f.chain == 0 && f.size_packets >= theta)
            .map(|f| f.packets)
            .sum();
        let windowed0: u64 = report
            .windows
            .iter()
            .filter(|w| w.chain == 0)
            .map(|w| w.delivered_packets)
            .sum();
        assert!(
            windowed0 > heavy_pkts,
            "windows carry {windowed0} ≤ heavy-only {heavy_pkts}: tail mass missing"
        );
        Ok(())
    }
}
