//! Runs the built binary the way the driver does (`--quick` sizes) and
//! holds its output against the root `BENCHMARK.json`: every workload and
//! every metric the contract names is emitted, under the contract's unit,
//! and nothing else is.

use serde::Value;
use std::collections::BTreeSet;
use std::process::Command;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("root BENCHMARK.json");
    serde_json::parse_value_str(&text).expect("valid JSON")
}

fn named(doc: &Value, key: &str) -> Vec<(String, Option<String>)> {
    doc.get(key)
        .and_then(Value::as_array)
        .expect("array")
        .iter()
        .map(|v| {
            (
                v.get("name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_string(),
                v.get("unit").and_then(Value::as_str).map(str::to_string),
            )
        })
        .collect()
}

/// Run one workload as the driver does and return its result object.
fn run(workload: &str, trace: &str) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_exp_perf"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0"])
        .args(["--trace", trace, "--quick"])
        // Artifacts of the traced pass stay inside the test's own directory.
        .env("CARGO_TARGET_DIR", env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("exp_perf runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} exited with {}:\n{stdout}",
        out.status
    );
    let last = stdout.lines().last().expect("a result line");
    serde_json::parse_value_str(last).expect("last line is JSON")
}

#[test]
fn quick_run_emits_exactly_what_benchmark_json_names() {
    let doc = benchmark_json();
    let workloads = named(&doc, "workloads");
    assert_eq!(workloads.len(), 6);
    for (workload, _) in &workloads {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let result = run(workload, trace);
            let Value::Object(entries) = &result else {
                panic!("result is not an object")
            };
            let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(
                result.get("correct"),
                Some(&Value::Bool(true)),
                "{workload}"
            );
            assert!(result.get("attempted").and_then(Value::as_i128).unwrap() >= 1);
            assert_eq!(result.get("failed").and_then(Value::as_i128), Some(0));

            let Some(Value::Object(metrics)) = result.get("metrics") else {
                panic!("metrics is not an object")
            };
            let emitted: BTreeSet<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            let expected = named(&doc, key);
            assert_eq!(
                emitted,
                expected.iter().map(|(n, _)| n.as_str()).collect(),
                "{workload} --trace {trace}"
            );
            for (name, unit) in &expected {
                let m = result.get("metrics").unwrap().get(name).unwrap();
                assert_eq!(m.get("unit").and_then(Value::as_str), unit.as_deref());
                let value = m.get("value").and_then(Value::as_f64).expect("a number");
                assert!(value.is_finite(), "{workload} {name} = {value}");
                if key == "end_to_end" {
                    assert!(value > 0.0, "{workload} {name} must never be 0");
                }
            }
        }
    }
}
