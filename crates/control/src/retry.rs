//! Bounded, jittered exponential backoff: the one retry schedule of the
//! control plane.
//!
//! The supervisor spaces its failed replans with it, and the fleet
//! coordinator its unacknowledged requests. Either way a schedule must be
//! *seeded* (soaks replay bit-identically), *bounded* (a silent PoP
//! eventually stops being retried and the degradation ladder takes over;
//! a supervisor out of attempts parks), and *jittered* (a storm of
//! simultaneous losses must not re-synchronize into a retry thundering
//! herd).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The declared limits a backoff schedule must stay inside.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackoffPolicy {
    /// First retry delay (before jitter).
    pub base_ns: u64,
    /// Exponential growth is clamped at this delay (before jitter).
    pub cap_ns: u64,
    /// Retries after which the sender gives up and leaves repair to the
    /// periodic status-report anti-entropy.
    pub max_attempts: u32,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        BackoffPolicy {
            base_ns: 200_000,
            cap_ns: 1_600_000,
            max_attempts: 6,
        }
    }
}

/// One retry schedule (a request's, or a supervisor's failure episode):
/// delay *n* is `min(cap, base · 2ⁿ) + jitter`, jitter uniform in
/// `[0, delay/2]`, every step saturating at `u64::MAX`.
#[derive(Debug, Clone)]
pub struct Backoff {
    policy: BackoffPolicy,
    rng: StdRng,
    attempts: u32,
}

impl Backoff {
    pub fn new(policy: BackoffPolicy, seed: u64) -> Backoff {
        Backoff {
            policy,
            rng: StdRng::seed_from_u64(seed ^ 0xb0ff_0ff5),
            attempts: 0,
        }
    }

    /// The next retry delay, or `None` once the attempt budget is spent.
    pub fn next_delay(&mut self) -> Option<u64> {
        if self.attempts >= self.policy.max_attempts {
            return None;
        }
        let exp = self
            .policy
            .base_ns
            .saturating_mul(1 << self.attempts.min(20))
            .min(self.policy.cap_ns);
        let jitter = self.rng.gen_range(0..=exp / 2);
        self.attempts += 1;
        Some(exp.saturating_add(jitter))
    }

    /// Retries consumed so far.
    pub fn attempts(&self) -> u32 {
        self.attempts
    }

    /// Start a fresh episode: the attempt budget refills and delays grow
    /// from `base_ns` again. The jitter stream carries on where it was.
    pub fn reset(&mut self) {
        self.attempts = 0;
    }

    /// True once [`Backoff::next_delay`] would return `None`.
    pub fn exhausted(&self) -> bool {
        self.attempts >= self.policy.max_attempts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schedule(policy: BackoffPolicy, seed: u64) -> Vec<u64> {
        let mut b = Backoff::new(policy, seed);
        let mut out = Vec::new();
        while let Some(d) = b.next_delay() {
            out.push(d);
        }
        out
    }

    #[test]
    fn schedule_is_deterministic_per_seed() {
        let p = BackoffPolicy::default();
        assert_eq!(schedule(p, 7), schedule(p, 7));
        assert_ne!(
            schedule(p, 7),
            schedule(p, 8),
            "different seeds must desynchronize retries"
        );
    }

    #[test]
    fn every_delay_is_jittered_within_declared_limits() {
        let p = BackoffPolicy {
            base_ns: 100_000,
            cap_ns: 800_000,
            max_attempts: 8,
        };
        for seed in 0..50 {
            for (n, d) in schedule(p, seed).iter().enumerate() {
                let exp = (p.base_ns << n.min(20)).min(p.cap_ns);
                assert!(
                    (exp..=exp + exp / 2).contains(d),
                    "seed {seed} attempt {n}: delay {d} outside [{exp}, {}]",
                    exp + exp / 2
                );
            }
        }
    }

    #[test]
    fn attempts_are_bounded_and_exhaustion_is_sticky() {
        let p = BackoffPolicy {
            max_attempts: 4,
            ..BackoffPolicy::default()
        };
        let mut b = Backoff::new(p, 3);
        for _ in 0..4 {
            assert!(!b.exhausted());
            assert!(b.next_delay().is_some());
        }
        assert!(b.exhausted());
        assert_eq!(b.next_delay(), None);
        assert_eq!(b.next_delay(), None, "exhaustion never un-happens");
        assert_eq!(b.attempts(), 4);
    }

    #[test]
    fn growth_is_exponential_until_the_cap() {
        let p = BackoffPolicy {
            base_ns: 100,
            cap_ns: 1_600,
            max_attempts: 10,
        };
        // Strip jitter by checking the floor of each delay.
        let floors: Vec<u64> = schedule(p, 1)
            .iter()
            .enumerate()
            .map(|(n, _)| (p.base_ns << n.min(20)).min(p.cap_ns))
            .collect();
        assert_eq!(
            floors,
            vec![100, 200, 400, 800, 1_600, 1_600, 1_600, 1_600, 1_600, 1_600]
        );
    }

    #[test]
    fn jitter_actually_varies() {
        let p = BackoffPolicy {
            base_ns: 1_000_000,
            cap_ns: 1_000_000,
            max_attempts: 32,
        };
        let s = schedule(p, 11);
        let distinct: std::collections::BTreeSet<u64> = s.iter().copied().collect();
        assert!(
            distinct.len() > 8,
            "32 same-floor delays should spread: {s:?}"
        );
    }

    #[test]
    fn reset_refills_the_budget_but_keeps_the_jitter_stream() {
        let p = BackoffPolicy::default();
        let mut b = Backoff::new(p, 9);
        while b.next_delay().is_some() {}
        b.reset();
        assert_eq!(b.attempts(), 0);
        let mut again = Vec::new();
        while let Some(d) = b.next_delay() {
            again.push(d);
        }
        assert_eq!(again.len(), p.max_attempts as usize, "the budget refills");
        assert!((p.base_ns..=p.base_ns * 3 / 2).contains(&again[0]));
        assert_ne!(
            again,
            schedule(p, 9),
            "a reset must not replay the jitter already drawn"
        );
    }

    #[test]
    fn huge_base_never_overflows() {
        let p = BackoffPolicy {
            base_ns: u64::MAX / 2,
            cap_ns: u64::MAX / 2,
            max_attempts: 6,
        };
        for d in schedule(p, 0) {
            assert!(d >= u64::MAX / 2);
        }
    }
}
