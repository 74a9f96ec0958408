//! Comparing two sets of results: `--compare A.json B.json` and the
//! `--sets 2` self-check. One row per end-to-end metric × workload; a
//! metric is never averaged with another.

use crate::metrics::{Better, EndToEnd, END_TO_END, WORKLOADS};
use crate::report::{sig, RunResult};
use crate::stats::Summary;
use serde::Value;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// B is worse than A by more than the metric's bound.
    Regressed,
    /// The run-to-run spread of A or B is wider than the bound, so a
    /// difference of the bound's size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By how much `b` is worse than `a`, as a share of `a` (negative when
/// `b` is better).
pub fn worsening(metric: &EndToEnd, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match metric.better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

pub fn verdict(metric: &EndToEnd, a: &Summary, b: &Summary) -> Verdict {
    if a.spread() > metric.bound || b.spread() > metric.bound {
        Verdict::Unresolved
    } else if worsening(metric, a.value, b.value) > metric.bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// The runs of one set of a run document.
pub fn runs_of(set: &Value) -> Vec<RunResult> {
    set.get("runs")
        .and_then(Value::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(RunResult::from_value)
        .collect()
}

/// Print the comparison table of B against base A; returns the rows'
/// verdicts. Every delta is a share of A's value (the base).
pub fn compare(a: &[RunResult], b: &[RunResult]) -> Vec<Verdict> {
    println!(
        "{:<14} {:<20} {:>12} {:>25} {:>12} {:>25} {:>9} {:>6}  verdict",
        "workload", "metric", "A", "A [q1, q3]", "B", "B [q1, q3]", "B vs A", "bound"
    );
    let mut verdicts = Vec::new();
    for w in &WORKLOADS {
        let (Some(ra), Some(rb)) = (
            a.iter().find(|r| r.workload == w.name),
            b.iter().find(|r| r.workload == w.name),
        ) else {
            continue;
        };
        for m in &END_TO_END {
            let (Some(ma), Some(mb)) = (ra.metrics.get(m.name), rb.metrics.get(m.name)) else {
                continue;
            };
            let (sa, sb, unit) = (&ma.summary, &mb.summary, &ma.unit);
            let v = verdict(m, sa, sb);
            let worse = worsening(m, sa.value, sb.value);
            println!(
                "{:<14} {:<20} {:>12} {:>25} {:>12} {:>25} {:>+8.2}% {:>5.0}%  {} ({} is better, {unit})",
                w.name,
                m.name,
                sig(sa.value),
                format!("[{}, {}]", sig(sa.q1), sig(sa.q3)),
                sig(sb.value),
                format!("[{}, {}]", sig(sb.q1), sig(sb.q3)),
                // Signed so that + always reads "worse than A".
                100.0 * worse,
                100.0 * m.bound,
                v.as_str(),
                m.better.as_str(),
            );
            verdicts.push(v);
        }
    }
    println!("deltas are B against A as a share of A's value; + is worse");
    verdicts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str) -> &'static EndToEnd {
        END_TO_END.iter().find(|m| m.name == name).unwrap()
    }

    fn tight(v: f64) -> Summary {
        Summary {
            value: v,
            median: v,
            q1: v * 0.99,
            q3: v * 1.01,
            mad: v * 0.005,
            n: 5,
        }
    }

    #[test]
    fn direction_decides_what_worse_means() {
        let run_s = metric("run_s");
        let rate = metric("host_units_per_s");
        assert!((worsening(run_s, 1.0, 1.2) - 0.2).abs() < 1e-12);
        assert!((worsening(run_s, 1.0, 0.8) + 0.2).abs() < 1e-12);
        assert!((worsening(rate, 100.0, 80.0) - 0.2).abs() < 1e-12);
        assert!(worsening(rate, 100.0, 120.0) < 0.0);
    }

    #[test]
    fn verdicts() {
        let run_s = metric("run_s"); // bound 25 %
        assert_eq!(verdict(run_s, &tight(1.0), &tight(1.05)), Verdict::Ok);
        assert_eq!(verdict(run_s, &tight(1.0), &tight(0.5)), Verdict::Ok);
        assert_eq!(verdict(run_s, &tight(1.0), &tight(1.3)), Verdict::Regressed);
        let noisy = Summary {
            q1: 0.85,
            q3: 1.15, // spread 30 % > bound
            ..tight(1.0)
        };
        assert_eq!(verdict(run_s, &noisy, &tight(1.3)), Verdict::Unresolved);
        // An exact sim metric has no spread: any loss past 1 % regresses.
        let frac = metric("sim_goodput_frac");
        assert_eq!(
            verdict(frac, &Summary::exact(1.0), &Summary::exact(0.98)),
            Verdict::Regressed
        );
    }
}
