//! Printing and (de)serialising results: the `name workload value unit`
//! lines, the driver's one-line JSON result, and the run document the
//! orchestrator writes and `--compare` reads.

use crate::metrics::{Better, END_TO_END, PER_LAYER};
use crate::stats::Summary;
use serde::{Serialize, Value};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Where artifacts go: `$CARGO_TARGET_DIR/experiments`, else
/// `target/experiments` under the working directory — the same rule the
/// `exp_*` binaries follow, and always inside the checkout.
pub fn experiments_dir() -> PathBuf {
    PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string()))
        .join("experiments")
}

/// One metric as measured, self-describing so a run document can be read
/// without this source.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    pub summary: Summary,
    pub unit: String,
    pub better: Better,
}

/// One single-workload run's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub workload: String,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Every metric of the pass (end-to-end or per-layer), by name.
    pub metrics: BTreeMap<String, Measured>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// `name workload value unit` per metric, with the sample statistics
    /// where there is a sample (the value is one of them, see
    /// [`Summary::quiet`]).
    pub fn print_lines(&self) {
        // Catalogue order, not alphabetical: related metrics stay together.
        let order: Vec<&str> = if self.traced {
            PER_LAYER.iter().map(|m| m.name).collect()
        } else {
            END_TO_END.iter().map(|m| m.name).collect()
        };
        for name in order {
            let Some(Measured {
                summary: s, unit, ..
            }) = self.metrics.get(name)
            else {
                continue;
            };
            if s.n > 1 {
                println!(
                    "{name} {} {} {unit}  (q1 {} median {} q3 {} mad {} n {})",
                    self.workload,
                    sig(s.value),
                    sig(s.q1),
                    sig(s.median),
                    sig(s.q3),
                    sig(s.mad),
                    s.n
                );
            } else {
                println!("{name} {} {} {unit}", self.workload, sig(s.value));
            }
        }
        println!(
            "ops_failed/ops_attempted {} {}/{}",
            self.workload, self.failed, self.attempted
        );
    }

    /// The driver's result object: exactly `correct`, `attempted`,
    /// `failed`, `metrics`; values with all their digits.
    pub fn contract_json(&self) -> String {
        let metrics: Vec<(String, Value)> = self
            .metrics
            .iter()
            .map(|(name, m)| {
                (
                    name.clone(),
                    Value::Object(vec![
                        ("value".to_string(), m.summary.value.to_value()),
                        ("unit".to_string(), m.unit.to_value()),
                    ]),
                )
            })
            .collect();
        let doc = Value::Object(vec![
            ("correct".to_string(), self.correct().to_value()),
            ("attempted".to_string(), self.attempted.to_value()),
            ("failed".to_string(), self.failed.to_value()),
            ("metrics".to_string(), Value::Object(metrics)),
        ]);
        serde_json::to_string(&doc).expect("serializable")
    }

    /// Full statistics, for the orchestrator (`#detail` line) and the run
    /// document.
    pub fn to_value(&self) -> Value {
        let metrics: Vec<(String, Value)> = self
            .metrics
            .iter()
            .map(|(name, m)| {
                let s = &m.summary;
                (
                    name.clone(),
                    Value::Object(vec![
                        ("value".to_string(), s.value.to_value()),
                        ("median".to_string(), s.median.to_value()),
                        ("q1".to_string(), s.q1.to_value()),
                        ("q3".to_string(), s.q3.to_value()),
                        ("mad".to_string(), s.mad.to_value()),
                        ("n".to_string(), s.n.to_value()),
                        ("unit".to_string(), m.unit.to_value()),
                        ("better".to_string(), m.better.as_str().to_value()),
                    ]),
                )
            })
            .collect();
        Value::Object(vec![
            ("workload".to_string(), self.workload.to_value()),
            ("traced".to_string(), self.traced.to_value()),
            ("attempted".to_string(), self.attempted.to_value()),
            ("failed".to_string(), self.failed.to_value()),
            ("metrics".to_string(), Value::Object(metrics)),
        ])
    }

    pub fn from_value(v: &Value) -> Option<RunResult> {
        let num = |v: &Value, key: &str| v.get(key).and_then(Value::as_f64);
        let Value::Object(entries) = v.get("metrics")? else {
            return None;
        };
        let mut metrics = BTreeMap::new();
        for (name, m) in entries {
            let summary = Summary {
                value: num(m, "value")?,
                median: num(m, "median")?,
                q1: num(m, "q1")?,
                q3: num(m, "q3")?,
                mad: num(m, "mad")?,
                n: num(m, "n")? as usize,
            };
            metrics.insert(
                name.clone(),
                Measured {
                    summary,
                    unit: m.get("unit")?.as_str()?.to_string(),
                    better: match m.get("better")?.as_str()? {
                        "lower" => Better::Lower,
                        "higher" => Better::Higher,
                        _ => return None,
                    },
                },
            );
        }
        Some(RunResult {
            workload: v.get("workload")?.as_str()?.to_string(),
            traced: matches!(v.get("traced")?, Value::Bool(true)),
            attempted: num(v, "attempted")? as u64,
            failed: num(v, "failed")? as u64,
            metrics,
        })
    }
}

/// Six significant digits: enough to read, not the stored precision.
pub fn sig(x: f64) -> String {
    if x == 0.0 || !x.is_finite() {
        return format!("{x}");
    }
    let digits = (5 - x.abs().log10().floor() as i32).clamp(0, 12) as usize;
    format!("{x:.digits$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> RunResult {
        let mut metrics = BTreeMap::new();
        metrics.insert(
            "run_s".to_string(),
            Measured {
                summary: Summary::quiet(&[1.0, 2.0, 4.0], true),
                unit: "s".to_string(),
                better: Better::Lower,
            },
        );
        metrics.insert(
            "sim_goodput_frac".to_string(),
            Measured {
                summary: Summary::exact(0.999_987_654_321),
                unit: "ratio".to_string(),
                better: Better::Higher,
            },
        );
        RunResult {
            workload: "rack-64b".to_string(),
            traced: false,
            attempted: 3,
            failed: 0,
            metrics,
        }
    }

    #[test]
    fn contract_json_has_exactly_the_four_keys_and_full_digits() {
        let text = result().contract_json();
        let v = serde_json::parse_value_str(&text).unwrap();
        let Value::Object(entries) = &v else {
            panic!("not an object")
        };
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
        let frac = v.get("metrics").unwrap().get("sim_goodput_frac").unwrap();
        assert_eq!(frac.get("value").unwrap().as_f64(), Some(0.999_987_654_321));
        assert_eq!(frac.get("unit").unwrap().as_str(), Some("ratio"));
        assert!(!text.contains('\n'));
    }

    #[test]
    fn detail_round_trips() {
        let r = result();
        let text = serde_json::to_string(&r.to_value()).unwrap();
        let back = RunResult::from_value(&serde_json::parse_value_str(&text).unwrap()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn sig_keeps_six_digits() {
        assert_eq!(sig(1234.56789), "1234.57");
        assert_eq!(sig(0.000123456789), "0.000123457");
        assert_eq!(sig(0.0), "0");
        assert_eq!(sig(2_000_000.4), "2000000");
    }
}
