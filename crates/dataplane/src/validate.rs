//! Statistical validation of generated traffic against its declared
//! scenario parameters.
//!
//! Synthetic workload bugs are silent: a mis-seeded surge or a wrong
//! Pareto exponent doesn't crash anything, it just makes every
//! downstream "SLO met at 1M flows" claim meaningless. Before a scale
//! experiment trusts a [`crate::Scenario`], this module measures the
//! realized traffic and checks it against what the
//! [`crate::ScenarioSpec`] declared:
//!
//! - **mean arrival rate** (packets/s over the horizon),
//! - **window-to-window coefficient of variation** (captures diurnal
//!   modulation and surges),
//! - **burst factor** (peak window rate over mean rate),
//! - **flow-size tail index** via the Hill estimator on the drawn
//!   (untruncated) sizes.

use crate::flowsim::{Scenario, ScenarioSpec, SurgeKind};
use std::fmt;

/// Measured or declared statistical profile of one chain's traffic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficProfile {
    /// Mean packet arrival rate over the horizon (packets/second), with
    /// per-flow sizes capped at a trim threshold. The *untrimmed* mean of
    /// an `alpha < 2` Pareto doesn't concentrate — a single elephant can
    /// move it by tens of percent at realistic flow counts — so the rate
    /// check trims at the declared distribution's 98th percentile and
    /// leaves tail fidelity to the Hill estimator.
    pub mean_rate_pps: f64,
    /// Coefficient of variation of per-window packet counts.
    pub window_cv: f64,
    /// Peak window rate divided by mean window rate.
    pub burst_factor: f64,
    /// Hill tail-index estimate of the flow-size distribution
    /// (`None` when there are too few flows to estimate).
    pub tail_alpha: Option<f64>,
}

/// Relative (and for CV, absolute) tolerances for profile comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficTolerance {
    /// Allowed relative error on the mean rate (e.g. 0.1 = ±10%).
    pub rate_rel: f64,
    /// Allowed absolute error on the window CV.
    pub cv_abs: f64,
    /// Allowed relative error on the burst factor.
    pub burst_rel: f64,
    /// Allowed relative error on the tail index.
    pub alpha_rel: f64,
}

impl Default for TrafficTolerance {
    fn default() -> TrafficTolerance {
        TrafficTolerance {
            rate_rel: 0.15,
            cv_abs: 0.25,
            burst_rel: 0.5,
            alpha_rel: 0.35,
        }
    }
}

/// A declared-vs-observed mismatch on one chain.
#[derive(Debug, Clone, PartialEq)]
pub enum TrafficValidationError {
    MeanRate {
        chain: usize,
        declared_pps: f64,
        observed_pps: f64,
    },
    WindowCv {
        chain: usize,
        declared: f64,
        observed: f64,
    },
    BurstFactor {
        chain: usize,
        declared: f64,
        observed: f64,
    },
    TailIndex {
        chain: usize,
        declared: f64,
        observed: f64,
    },
}

impl fmt::Display for TrafficValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrafficValidationError::MeanRate {
                chain,
                declared_pps,
                observed_pps,
            } => write!(
                f,
                "chain {chain}: mean rate {observed_pps:.0} pps deviates from declared {declared_pps:.0} pps"
            ),
            TrafficValidationError::WindowCv {
                chain,
                declared,
                observed,
            } => write!(
                f,
                "chain {chain}: window CV {observed:.3} deviates from declared {declared:.3}"
            ),
            TrafficValidationError::BurstFactor {
                chain,
                declared,
                observed,
            } => write!(
                f,
                "chain {chain}: burst factor {observed:.2} deviates from declared {declared:.2}"
            ),
            TrafficValidationError::TailIndex {
                chain,
                declared,
                observed,
            } => write!(
                f,
                "chain {chain}: flow-size tail index {observed:.2} deviates from declared {declared:.2}"
            ),
        }
    }
}

impl std::error::Error for TrafficValidationError {}

impl TrafficProfile {
    /// Measure one chain's realized profile from a materialized scenario,
    /// binning packet arrivals into `window_ns` windows. `trim_packets`
    /// caps each flow's contribution to the rate estimate (pass
    /// `u64::MAX` for the raw rate); use the same trim as the declared
    /// profile it will be checked against.
    pub fn observed(
        scenario: &Scenario,
        chain: usize,
        window_ns: u64,
        trim_packets: u64,
    ) -> TrafficProfile {
        let window_ns = window_ns.max(1);
        let n_windows = scenario.horizon_ns.div_ceil(window_ns) as usize;
        let mut bins = vec![0u64; n_windows.max(1)];
        let mut total = 0u64;
        let mut trimmed = 0u64;
        let mut sizes: Vec<u64> = Vec::new();
        for f in scenario.flows.iter().filter(|f| f.chain == chain) {
            sizes.push(f.size_packets);
            total += f.packets;
            trimmed += f.packets.min(trim_packets);
            // Exact per-window arrival counts via the difference of the
            // flow's arrival-counting function at window edges.
            let first = (f.start_ns / window_ns) as usize;
            let mut before_prev = 0u64;
            for (w, bin) in bins.iter_mut().enumerate().skip(first) {
                let end = ((w as u64 + 1) * window_ns).min(scenario.horizon_ns);
                let before_end = f.arrivals_before(end);
                *bin += before_end - before_prev;
                before_prev = before_end;
                if before_end == f.packets {
                    break;
                }
            }
        }
        let horizon_s = scenario.horizon_ns as f64 / 1e9;
        let mean_rate_pps = trimmed as f64 / horizon_s.max(1e-12);
        let mean_bin = total as f64 / bins.len() as f64;
        let var = bins
            .iter()
            .map(|&b| (b as f64 - mean_bin).powi(2))
            .sum::<f64>()
            / bins.len() as f64;
        let window_cv = if mean_bin > 0.0 {
            var.sqrt() / mean_bin
        } else {
            0.0
        };
        let peak = bins.iter().copied().max().unwrap_or(0) as f64;
        let burst_factor = if mean_bin > 0.0 { peak / mean_bin } else { 1.0 };
        TrafficProfile {
            mean_rate_pps,
            window_cv,
            burst_factor,
            tail_alpha: hill_estimator(&mut sizes),
        }
    }

    /// The profile the spec *declares* for one chain, derived analytically
    /// (no sampling): expected packet mass from the mean of the bounded
    /// Pareto, CV/burst from the intensity curve, alpha from the spec.
    pub fn declared(spec: &ScenarioSpec, chain: usize, window_ns: u64) -> TrafficProfile {
        let load = &spec.chains[chain];
        let trim = rate_trim(spec, chain);
        let mean_size = bounded_pareto_capped_mean(
            load.size.alpha,
            load.size.min_packets as f64,
            load.size.max_packets as f64,
            trim as f64,
        );
        let horizon_s = spec.horizon_ns as f64 / 1e9;
        // DDoS junk flows add min-size mass on top of the nominal flows.
        let ddos_flows: f64 = load
            .surges
            .iter()
            .filter(|s| s.kind == SurgeKind::Ddos)
            .map(|s| {
                (s.factor - 1.0).max(0.0) * load.flows as f64 * s.duration_ns as f64
                    / spec.horizon_ns.max(1) as f64
            })
            .sum();
        let total_packets =
            load.flows as f64 * mean_size + ddos_flows * load.size.min_packets as f64;
        let mean_rate_pps = total_packets / horizon_s.max(1e-12);

        // Window-count statistics from the normalized intensity curve,
        // sampled at window midpoints. This treats packet mass as
        // proportional to arrival intensity — accurate when flows are
        // short relative to the modulation period.
        let window_ns = window_ns.max(1);
        let n_windows = spec.horizon_ns.div_ceil(window_ns) as usize;
        let mut weights = Vec::with_capacity(n_windows);
        for w in 0..n_windows {
            let mid = (w as u64 * window_ns + window_ns / 2).min(spec.horizon_ns - 1);
            let mut f = 1.0;
            if let Some(d) = load.diurnal {
                let phase = mid as f64 / d.period_ns.max(1) as f64;
                f *= 1.0 + d.amplitude * (phase * std::f64::consts::TAU).sin();
            }
            for s in &load.surges {
                let active = mid >= s.start_ns && mid - s.start_ns < s.duration_ns;
                if active {
                    match s.kind {
                        SurgeKind::FlashCrowd => f *= s.factor,
                        // Junk flows are min-size; their packet-mass
                        // contribution scales by min/mean size.
                        SurgeKind::Ddos => {
                            f +=
                                (s.factor - 1.0).max(0.0) * load.size.min_packets as f64 / mean_size
                        }
                    }
                }
            }
            weights.push(f);
        }
        let mean_w = weights.iter().sum::<f64>() / weights.len().max(1) as f64;
        let var_w =
            weights.iter().map(|w| (w - mean_w).powi(2)).sum::<f64>() / weights.len().max(1) as f64;
        let window_cv = if mean_w > 0.0 {
            var_w.sqrt() / mean_w
        } else {
            0.0
        };
        let peak_w = weights.iter().copied().fold(0.0, f64::max);
        let burst_factor = if mean_w > 0.0 { peak_w / mean_w } else { 1.0 };
        TrafficProfile {
            mean_rate_pps,
            window_cv,
            burst_factor,
            tail_alpha: Some(load.size.alpha),
        }
    }

    /// Compare an observed profile against a declared one.
    pub fn check(
        &self,
        declared: &TrafficProfile,
        chain: usize,
        tol: &TrafficTolerance,
    ) -> Result<(), TrafficValidationError> {
        let rel = |obs: f64, dec: f64| (obs - dec).abs() / dec.abs().max(1e-12);
        if rel(self.mean_rate_pps, declared.mean_rate_pps) > tol.rate_rel {
            return Err(TrafficValidationError::MeanRate {
                chain,
                declared_pps: declared.mean_rate_pps,
                observed_pps: self.mean_rate_pps,
            });
        }
        if (self.window_cv - declared.window_cv).abs() > tol.cv_abs {
            return Err(TrafficValidationError::WindowCv {
                chain,
                declared: declared.window_cv,
                observed: self.window_cv,
            });
        }
        if rel(self.burst_factor, declared.burst_factor) > tol.burst_rel {
            return Err(TrafficValidationError::BurstFactor {
                chain,
                declared: declared.burst_factor,
                observed: self.burst_factor,
            });
        }
        if let (Some(obs), Some(dec)) = (self.tail_alpha, declared.tail_alpha) {
            if rel(obs, dec) > tol.alpha_rel {
                return Err(TrafficValidationError::TailIndex {
                    chain,
                    declared: dec,
                    observed: obs,
                });
            }
        }
        Ok(())
    }
}

/// Validate every chain of a materialized scenario against its spec.
pub fn validate_scenario(
    spec: &ScenarioSpec,
    scenario: &Scenario,
    window_ns: u64,
    tol: &TrafficTolerance,
) -> Result<Vec<TrafficProfile>, TrafficValidationError> {
    let mut profiles = Vec::with_capacity(spec.chains.len());
    for chain in 0..spec.chains.len() {
        let obs = TrafficProfile::observed(scenario, chain, window_ns, rate_trim(spec, chain));
        let dec = TrafficProfile::declared(spec, chain, window_ns);
        obs.check(&dec, chain, tol)?;
        profiles.push(obs);
    }
    Ok(profiles)
}

/// Trim threshold for the rate check: the declared size distribution's
/// 98th percentile (its inverse CDF at 0.98).
fn rate_trim(spec: &ScenarioSpec, chain: usize) -> u64 {
    spec.chains[chain].size.sample(0.98)
}

/// Mean of `min(S, t)` for a bounded Pareto `S` on `[l, h]` with tail
/// index `alpha`: `E[S·1{S≤t}] + t·P(S>t)`.
fn bounded_pareto_capped_mean(alpha: f64, l: f64, h: f64, t: f64) -> f64 {
    if l >= h {
        return l.min(t);
    }
    let t = t.clamp(l, h);
    let la = l.powf(-alpha);
    let ha = h.powf(-alpha);
    let ta = t.powf(-alpha);
    let p_above = (ta - ha) / (la - ha);
    let below = if (alpha - 1.0).abs() < 1e-9 {
        // α = 1 limit: ∫ x·αx^{-α-1} dx = ln(t/l) over the normalizer.
        (t / l).ln() / (la - ha)
    } else {
        alpha / (alpha - 1.0) * (l.powf(1.0 - alpha) - t.powf(1.0 - alpha)) / (la - ha)
    };
    below + t * p_above
}

/// Hill estimator of the tail index over the top ~10% order statistics.
/// Sorts `sizes` in place; returns `None` below 20 samples.
fn hill_estimator(sizes: &mut [u64]) -> Option<f64> {
    if sizes.len() < 20 {
        return None;
    }
    sizes.sort_unstable_by(|a, b| b.cmp(a));
    let k = (sizes.len() / 10).clamp(10, sizes.len() - 1);
    let x_k = sizes[k] as f64;
    if x_k <= 0.0 {
        return None;
    }
    let sum: f64 = sizes[..k].iter().map(|&x| (x as f64 / x_k).ln()).sum();
    if sum <= 0.0 {
        return None;
    }
    Some(k as f64 / sum)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flowsim::{ChainLoad, Diurnal, FlowSizeDist, Surge};

    fn base_spec() -> ScenarioSpec {
        ScenarioSpec {
            seed: 11,
            horizon_ns: 50_000_000,
            chains: vec![ChainLoad {
                flows: 3_000,
                flow_rate_pps: 200_000.0,
                size: FlowSizeDist {
                    alpha: 1.2,
                    min_packets: 2,
                    max_packets: 100_000,
                },
                diurnal: Some(Diurnal {
                    period_ns: 50_000_000,
                    amplitude: 0.3,
                }),
                surges: vec![],
            }],
        }
    }

    #[test]
    fn faithful_scenario_validates() {
        let spec = base_spec();
        let scenario = spec.materialize();
        let profiles = validate_scenario(&spec, &scenario, 1_000_000, &TrafficTolerance::default())
            .expect("faithful generation must pass its own validator");
        assert_eq!(profiles.len(), 1);
        assert!(profiles[0].mean_rate_pps > 0.0);
    }

    #[test]
    fn hill_estimator_recovers_alpha_on_skewed_input() {
        // Pure inverse-CDF samples at a known alpha — no generation
        // machinery in the loop.
        let dist = FlowSizeDist {
            alpha: 1.3,
            min_packets: 2,
            max_packets: 1_000_000,
        };
        let mut sizes: Vec<u64> = (0..20_000)
            .map(|i| dist.sample((i as f64 + 0.5) / 20_000.0))
            .collect();
        let est = hill_estimator(&mut sizes).unwrap();
        assert!(
            (est - 1.3).abs() / 1.3 < 0.2,
            "Hill estimate {est} far from 1.3"
        );
    }

    #[test]
    fn wrong_rate_is_rejected() {
        let spec = base_spec();
        let mut declared = TrafficProfile::declared(&spec, 0, 1_000_000);
        // Claim twice the rate the generator produces.
        declared.mean_rate_pps *= 2.0;
        let scenario = spec.materialize();
        let obs = TrafficProfile::observed(&scenario, 0, 1_000_000, rate_trim(&spec, 0));
        let err = obs
            .check(&declared, 0, &TrafficTolerance::default())
            .unwrap_err();
        assert!(
            matches!(err, TrafficValidationError::MeanRate { .. }),
            "{err}"
        );
        assert!(err.to_string().contains("mean rate"));
    }

    #[test]
    fn wrong_tail_index_is_rejected() {
        // Generate at α=1.2 but declare α=3.0 (nearly light-tailed):
        // the Hill estimator must notice.
        let spec = base_spec();
        let scenario = spec.materialize();
        let obs = TrafficProfile::observed(&scenario, 0, 1_000_000, rate_trim(&spec, 0));
        let mut declared = TrafficProfile::declared(&spec, 0, 1_000_000);
        declared.tail_alpha = Some(3.0);
        let err = obs
            .check(&declared, 0, &TrafficTolerance::default())
            .unwrap_err();
        assert!(
            matches!(err, TrafficValidationError::TailIndex { .. }),
            "{err}"
        );
    }

    mod degenerate {
        use super::*;
        use proptest::prelude::*;

        /// A spec strategy that leans into the validator's edge cases:
        /// tiny (possibly zero) flow counts, point-mass size
        /// distributions (`min == max`), tail indices straddling the
        /// α = 1 limit of the capped-mean integral, and windows as large
        /// as (or larger than) the whole horizon. Diurnal amplitudes and
        /// surge factors are drawn in and out of their domains — NaN,
        /// ±∞, zero, negative, an amplitude ≥ 1 — so that some specs
        /// must be refused; and in their domains but at the scale of
        /// 1e-9 or 1e30, where a flash crowd starves the rejection
        /// sampler and a DDoS asks for more junk flows than memory holds,
        /// so that some must be refused over budget.
        fn degenerate_spec() -> impl Strategy<Value = ScenarioSpec> {
            let odd = |sel: u8, raw: f64| match sel {
                0 => f64::NAN,
                1 => 0.0,
                2 => f64::INFINITY,
                3 => -raw,
                4 => raw * 1e-9,
                5 => raw * 1e30,
                _ => raw,
            };
            (
                (any::<u64>(), 0usize..60, 1_000.0f64..1e6),
                (0.5f64..3.0, 1u64..10, 0u64..400, 1_000_000u64..20_000_000),
                (0u8..16, 0.0f64..1.2, 1u64..20_000_000),
                prop::collection::vec(
                    (
                        prop::bool::ANY,
                        0u8..4,
                        0.0f64..1.0,
                        0.0f64..1.0,
                        0u8..16,
                        0.0f64..6.0,
                    ),
                    0..3,
                ),
            )
                .prop_map(
                    move |(
                        (seed, flows, rate),
                        (alpha, min_packets, extra, horizon_ns),
                        (amp_sel, amplitude, period_ns),
                        surges,
                    )| ScenarioSpec {
                        seed,
                        horizon_ns,
                        chains: vec![ChainLoad {
                            flows,
                            flow_rate_pps: rate,
                            size: FlowSizeDist {
                                alpha,
                                min_packets,
                                max_packets: min_packets + extra,
                            },
                            diurnal: (amp_sel > 0).then(|| Diurnal {
                                period_ns,
                                amplitude: odd(amp_sel - 1, amplitude),
                            }),
                            surges: surges
                                .into_iter()
                                .map(|(ddos, at, start, duration, factor_sel, factor)| {
                                    // One in four spans the whole horizon.
                                    let (start, duration) = if at == 0 {
                                        (0.0, 1.0)
                                    } else {
                                        (start, duration)
                                    };
                                    Surge {
                                        kind: if ddos {
                                            SurgeKind::Ddos
                                        } else {
                                            SurgeKind::FlashCrowd
                                        },
                                        start_ns: (start * horizon_ns as f64) as u64,
                                        duration_ns: (duration * horizon_ns as f64) as u64,
                                        factor: odd(factor_sel, factor),
                                    }
                                })
                                .collect(),
                        }],
                    },
                )
        }

        fn finite(p: &TrafficProfile) -> bool {
            p.mean_rate_pps.is_finite()
                && p.window_cv.is_finite()
                && p.burst_factor.is_finite()
                && p.tail_alpha.map(f64::is_finite).unwrap_or(true)
        }

        proptest! {
            #![cases = 1024]
            /// The Hill estimator must answer every input with `None` or
            /// a finite positive estimate — never a panic, NaN, or ±∞.
            /// The generator covers the degenerate shapes directly:
            /// empty input, fewer samples than the order-statistic floor,
            /// and all-equal sizes (whose log-spacings sum to zero).
            #[test]
            fn hill_estimator_total_on_arbitrary_sizes(
                mut sizes in prop::collection::vec(any::<u64>(), 0..200),
            ) {
                if let Some(est) = hill_estimator(&mut sizes) {
                    prop_assert!(est.is_finite() && est > 0.0, "estimate {est}");
                }
            }

            /// All-equal sizes have no measurable tail: the estimator
            /// must decline (its log-sum is exactly zero) rather than
            /// divide by it.
            #[test]
            fn hill_estimator_declines_point_mass(
                n in 0usize..100,
                v in 1u64..1_000_000,
            ) {
                prop_assert_eq!(hill_estimator(&mut vec![v; n]), None);
            }

            /// Below 20 samples there are not enough order statistics:
            /// always `None`, even for perfectly heavy-tailed data.
            #[test]
            fn hill_estimator_declines_short_input(
                mut sizes in prop::collection::vec(1u64..1_000_000, 0..20),
            ) {
                prop_assert_eq!(hill_estimator(&mut sizes), None);
            }

            /// Degenerate specs — zero flows, point-mass sizes, α at the
            /// integral's removable singularity, a window spanning the
            /// whole horizon — must produce finite profiles and either
            /// validate or fail with a *typed* error whose display
            /// formats. No panic, no NaN, anywhere in the pipeline. A
            /// spec outside its domain, or over the generation budget, is
            /// refused by `try_materialize` before any draw, never left
            /// spinning or allocating.
            #[test]
            fn validation_pipeline_total_on_degenerate_specs(
                spec in degenerate_spec(),
                window_ns in 500_000u64..30_000_000,
            ) {
                let scenario = match spec.try_materialize() {
                    Ok(scenario) => scenario,
                    Err(err) => {
                        prop_assert!(spec.validate().is_err());
                        prop_assert!(!err.to_string().is_empty());
                        return Ok(());
                    }
                };
                let declared = TrafficProfile::declared(&spec, 0, window_ns);
                let observed =
                    TrafficProfile::observed(&scenario, 0, window_ns, rate_trim(&spec, 0));
                prop_assert!(finite(&declared), "declared {declared:?}");
                prop_assert!(finite(&observed), "observed {observed:?}");
                match validate_scenario(&spec, &scenario, window_ns, &TrafficTolerance::default()) {
                    Ok(profiles) => prop_assert!(profiles.iter().all(finite)),
                    Err(err) => prop_assert!(!err.to_string().is_empty()),
                }
            }
        }
    }

    #[test]
    fn surge_raises_burstiness_and_cv() {
        let mut spec = base_spec();
        spec.chains[0].surges = vec![Surge {
            kind: SurgeKind::FlashCrowd,
            start_ns: 20_000_000,
            duration_ns: 5_000_000,
            factor: 4.0,
        }];
        let calm = base_spec().materialize();
        let surged = spec.materialize();
        let obs_calm = TrafficProfile::observed(&calm, 0, 1_000_000, u64::MAX);
        let obs_surge = TrafficProfile::observed(&surged, 0, 1_000_000, u64::MAX);
        assert!(obs_surge.window_cv > obs_calm.window_cv);
        assert!(obs_surge.burst_factor > obs_calm.burst_factor);
        // And the surged scenario still validates against the spec that
        // declares the surge.
        validate_scenario(&spec, &surged, 1_000_000, &TrafficTolerance::default())
            .expect("declared surge must validate");
    }
}
