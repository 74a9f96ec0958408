//! `exp_perf` — the repo's performance ledger: six workloads, seven
//! end-to-end metrics each, ~95 per-layer metrics from a traced pass.
//! Method, glossary and predictions are in the README beside this crate;
//! the root `BENCHMARK.json` states the same contract for the driver.
//!
//! ```text
//! exp_perf --workload W [--seed N] [--seconds S] [--trace 0|1] [--quick]
//!     one workload in this process; last stdout line is the JSON result
//! exp_perf [--seed N] [--seconds S] [--sets K] [--spread M] [--quick]
//!     every workload, timed then traced, each in its own child process,
//!     one at a time; K sets of M seeds each; writes
//!     <target>/experiments/BENCHMARK_run.json
//! exp_perf --compare A.json B.json
//!     one row per end-to-end metric × workload, B against base A
//! ```

mod adapters;
mod compare;
mod layers;
mod metrics;
mod replay;
mod report;
mod stats;
mod trace;
mod workloads;

use compare::Verdict;
use metrics::{Better, END_TO_END, PER_LAYER, WORKLOADS};
use report::{Measured, RunResult};
use serde::{Serialize, Value};
use stats::Summary;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use workloads::{Iteration, Scale, Workload};

/// Timed operations a full run makes at least, however short `--seconds`.
const MIN_OPS: usize = 3;
/// Default measuring time per workload when every workload runs.
const DEFAULT_SECONDS: f64 = 5.0;

struct Args {
    workload: Option<&'static str>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    sets: usize,
    spread: usize,
    compare: Option<(String, String)>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        quick: false,
        sets: 1,
        spread: 1,
        compare: None,
    };
    let mut i = 0;
    let value = |i: &mut usize| -> Result<&String, String> {
        *i += 1;
        argv.get(*i)
            .ok_or_else(|| format!("{} needs a value", argv[*i - 1]))
    };
    let count = |flag: &str, text: &str| -> Result<usize, String> {
        match text.parse() {
            Ok(n) if (1..=32).contains(&n) => Ok(n),
            _ => Err(format!("{flag} takes a count from 1 to 32, not {text}")),
        }
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--workload" => {
                let name = value(&mut i)?;
                args.workload = Some(
                    WORKLOADS
                        .iter()
                        .map(|w| w.name)
                        .find(|n| n == name)
                        .ok_or_else(|| format!("unknown workload {name}"))?,
                );
            }
            "--seed" => args.seed = value(&mut i)?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=600.0).contains(&s) {
                    return Err(format!("--seconds {s} is outside 0..=600"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value(&mut i)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--sets" => args.sets = count("--sets", value(&mut i)?)?,
            "--spread" => args.spread = count("--spread", value(&mut i)?)?,
            "--quick" => args.quick = true,
            "--compare" => {
                let a = value(&mut i)?.clone();
                let b = value(&mut i)?.clone();
                args.compare = Some((a, b));
            }
            other => return Err(format!("unknown argument {other}")),
        }
        i += 1;
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("exp_perf: {e}");
            return ExitCode::from(2);
        }
    };
    let ok = if let Some((a, b)) = &args.compare {
        compare_files(a, b)
    } else if let Some(workload) = args.workload {
        let result = run_one(workload, &args);
        result.print_lines();
        println!(
            "#detail {}",
            serde_json::to_string(&result.to_value()).expect("serializable")
        );
        println!("{}", result.contract_json());
        result.correct()
    } else {
        run_all(&args)
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

// ------------------------------------------------------------ one workload

fn run_one(name: &'static str, args: &Args) -> RunResult {
    let scale = if args.quick {
        Scale::Quick
    } else {
        Scale::Full
    };
    let seconds = args
        .seconds
        .unwrap_or(if args.quick { 0.0 } else { DEFAULT_SECONDS });
    let workload = Workload::new(name, args.seed, scale);
    if args.trace {
        traced_pass(&workload)
    } else {
        timed_pass(&workload, seconds, args.quick)
    }
}

/// One untimed warm-up operation, then timed operations until `seconds`
/// have passed; each host time is the quiet quartile of the timed
/// operations ([`Summary::quiet`]). An operation fails if a guard fails or
/// its report differs from the first one's.
fn timed_pass(workload: &Workload, seconds: f64, quick: bool) -> RunResult {
    if !quick && !workload.warmed() {
        workload.iterate();
    }
    let min_ops = if quick { 1 } else { MIN_OPS };
    let started = Instant::now();
    let mut ops: Vec<Iteration> = Vec::new();
    let mut failed = 0;
    while ops.len() < min_ops || started.elapsed().as_secs_f64() < seconds {
        // Each operation on a fresh thread: std seeds `HashMap` hashing
        // once per thread, and the engine's and p4sim's maps make run time
        // depend on that seed by several percent. One thread for the whole
        // run would inherit one draw per process (run-to-run spread of
        // rack-64b: 6 %); a draw per operation lets the run's statistic
        // average over them (1 %). One operation at a time, so never two
        // threads.
        let op = std::thread::scope(|s| {
            s.spawn(|| workload.iterate())
                .join()
                .expect("operation panicked")
        });
        let mut failures = op.failures.clone();
        if ops.first().is_some_and(|first| first.report != op.report) {
            failures.push("report differs from the first repeat's (same seed)".to_string());
        }
        for f in &failures {
            println!("# FAIL {} op {}: {f}", workload.name, ops.len() + 1);
        }
        failed += u64::from(!failures.is_empty());
        println!(
            "# op {} at {:.1} s: setup {:.4} s, run {:.4} s",
            ops.len() + 1,
            started.elapsed().as_secs_f64(),
            op.setup_s,
            op.run_s
        );
        ops.push(op);
    }

    let host = |f: fn(&Iteration) -> f64, lower_is_better: bool| {
        Summary::quiet(&ops.iter().map(f).collect::<Vec<_>>(), lower_is_better)
    };
    let first = &ops[0];
    let values: [(&str, Summary); 7] = [
        ("setup_s", host(|o| o.setup_s, true)),
        ("run_s", host(|o| o.run_s, true)),
        ("host_units_per_s", host(|o| o.units / o.run_s, false)),
        ("peak_rss_mb", Summary::exact(peak_rss_mib())),
        (
            "sim_delivered_gbps",
            Summary::exact(first.sim_delivered_gbps),
        ),
        ("sim_goodput_frac", Summary::exact(first.sim_goodput_frac)),
        ("sim_slo_frac", Summary::exact(first.sim_slo_frac)),
    ];
    let metrics = END_TO_END
        .iter()
        .map(|m| {
            let (_, summary) = values
                .iter()
                .find(|(name, _)| *name == m.name)
                .expect("every end-to-end metric is measured");
            (m.name.to_string(), measured(*summary, m.unit, m.better))
        })
        .collect();
    RunResult {
        workload: workload.name.to_string(),
        traced: false,
        attempted: ops.len() as u64,
        failed,
        metrics,
    }
}

fn traced_pass(workload: &Workload) -> RunResult {
    let traced = workload.trace(&report::experiments_dir());
    for note in &traced.notes {
        println!("# {note}");
    }
    for f in &traced.failures {
        println!("# FAIL {} traced pass: {f}", workload.name);
    }
    // Every per-layer metric is printed; a layer this workload does not
    // route through reads 0.
    let metrics = PER_LAYER
        .iter()
        .map(|m| {
            let summary = traced
                .values
                .get(m.name)
                .copied()
                .unwrap_or(Summary::exact(0.0));
            (m.name.to_string(), measured(summary, m.unit, m.better))
        })
        .collect();
    RunResult {
        workload: workload.name.to_string(),
        traced: true,
        attempted: traced.attempted.max(1),
        failed: traced.failures.len() as u64,
        metrics,
    }
}

fn measured(summary: Summary, unit: &str, better: Better) -> Measured {
    Measured {
        summary,
        unit: unit.to_string(),
        better,
    }
}

/// `VmHWM` of this process, MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

// ------------------------------------------------------------ all workloads

/// Run `exp_perf --workload …` as a child and collect its `#detail`.
fn child(workload: &str, seed: u64, args: &Args, trace: bool) -> Option<RunResult> {
    let exe = std::env::current_exe().ok()?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if let Some(s) = args.seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if args.quick {
        cmd.arg("--quick");
    }
    // `output` waits for the child: no process outlives this call.
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .ok()?;
    let text = String::from_utf8_lossy(&out.stdout);
    let mut detail = None;
    for line in text.lines() {
        if let Some(json) = line.strip_prefix("#detail ") {
            detail = serde_json::parse_value_str(json)
                .ok()
                .as_ref()
                .and_then(RunResult::from_value);
        } else if !line.starts_with('{') {
            println!("{line}");
        }
    }
    if !out.status.success() {
        println!("# FAIL {workload}: child exited with {}", out.status);
    }
    detail
}

/// One set: every workload on `spread` consecutive seeds, timed; the
/// first seed also traced. Children run one at a time.
fn run_set(args: &Args, ok: &mut bool) -> Vec<RunResult> {
    let mut runs = Vec::new();
    for w in &WORKLOADS {
        println!("# workload {}: {}", w.name, w.why);
        for k in 0..args.spread as u64 {
            for trace in [false, true] {
                if trace && k > 0 {
                    continue;
                }
                let t = Instant::now();
                match child(w.name, args.seed + k, args, trace) {
                    Some(r) => {
                        *ok &= r.correct();
                        runs.push(r);
                    }
                    None => {
                        println!("# FAIL {}: no result from child", w.name);
                        *ok = false;
                    }
                }
                println!(
                    "# {} seed {} {} pass took {:.1} s",
                    w.name,
                    args.seed + k,
                    if trace { "traced" } else { "timed" },
                    t.elapsed().as_secs_f64()
                );
            }
        }
    }
    runs
}

/// A set's end-to-end results per workload. With one seed these are the
/// run's own statistics (over its repeats); with several, the median and
/// quartiles *across seeds* of each run's value — the acceptance
/// procedure's spread.
fn end_to_end(set: &[RunResult]) -> Vec<RunResult> {
    WORKLOADS
        .iter()
        .filter_map(|w| {
            let runs: Vec<&RunResult> = set
                .iter()
                .filter(|r| !r.traced && r.workload == w.name)
                .collect();
            let first = (*runs.first()?).clone();
            if runs.len() == 1 {
                return Some(first);
            }
            let metrics = first
                .metrics
                .iter()
                .map(|(name, m)| {
                    let values: Vec<f64> = runs
                        .iter()
                        .filter_map(|r| r.metrics.get(name))
                        .map(|m| m.summary.value)
                        .collect();
                    (
                        name.clone(),
                        Measured {
                            summary: Summary::of(&values),
                            ..m.clone()
                        },
                    )
                })
                .collect();
            Some(RunResult {
                attempted: runs.iter().map(|r| r.attempted).sum(),
                failed: runs.iter().map(|r| r.failed).sum(),
                metrics,
                ..first
            })
        })
        .collect()
}

fn run_all(args: &Args) -> bool {
    let started = Instant::now();
    let mut ok = true;
    let mut sets: Vec<Vec<RunResult>> = Vec::new();
    for set in 1..=args.sets {
        println!(
            "# set {set} of {}: seeds {}..={}",
            args.sets,
            args.seed,
            args.seed + args.spread as u64 - 1
        );
        sets.push(run_set(args, &mut ok));
    }
    write_run_document(args, &sets);

    let summaries: Vec<Vec<RunResult>> = sets.iter().map(|s| end_to_end(s)).collect();
    if args.spread > 1 {
        ok &= print_spreads(&summaries[0], args.spread);
    }
    for (i, later) in summaries.iter().enumerate().skip(1) {
        println!("# set {} against set 1", i + 1);
        let verdicts = compare::compare(&summaries[0], later);
        ok &= sets_agree(&summaries[0], later, args.quick);
        let unresolved = verdicts
            .iter()
            .filter(|v| **v == Verdict::Unresolved)
            .count();
        if unresolved > 0 {
            println!("# {unresolved} rows unresolved: spread wider than the bound");
        }
    }
    println!(
        "# {} in {:.1} s",
        if ok { "PASS" } else { "FAIL" },
        started.elapsed().as_secs_f64()
    );
    ok
}

/// The first acceptance criterion: over a set's seeds, each end-to-end
/// metric's interquartile range as a share of its median stays within the
/// metric's bound (`setup_s` is reported but not gated), and ideally
/// within a third of it.
fn print_spreads(set: &[RunResult], seeds: usize) -> bool {
    println!("# spread over {seeds} seeds: (q3 - q1) / median of the runs' values");
    let mut ok = true;
    for r in set {
        for m in &END_TO_END {
            let Some(v) = r.metrics.get(m.name) else {
                continue;
            };
            let s = &v.summary;
            let spread = s.spread();
            let verdict = if spread <= m.bound / 3.0 {
                "steady"
            } else if spread <= m.bound {
                "within bound"
            } else if m.name == "setup_s" {
                "wide (not gated)"
            } else {
                ok = false;
                "WIDER THAN BOUND"
            };
            println!(
                "spread {:<14} {:<20} median {:>12} {:<5} spread {:>6.2}% bound {:>3.0}%  {verdict}",
                r.workload,
                m.name,
                report::sig(s.median),
                v.unit,
                100.0 * spread,
                100.0 * m.bound,
            );
        }
    }
    ok
}

/// The second acceptance criterion: every end-to-end metric of the later
/// set within its bound of set 1, exact metrics equal. Host times are not
/// gated in `--quick` (one short repeat is not a measurement).
fn sets_agree(a: &[RunResult], b: &[RunResult], quick: bool) -> bool {
    let mut ok = true;
    for (ra, rb) in a.iter().zip(b) {
        for m in &END_TO_END {
            let (Some(ma), Some(mb)) = (ra.metrics.get(m.name), rb.metrics.get(m.name)) else {
                continue;
            };
            let (va, vb) = (ma.summary.value, mb.summary.value);
            let bad = if m.exact {
                va != vb
            } else {
                !quick && compare::worsening(m, va, vb) > m.bound
            };
            if bad {
                println!(
                    "# FAIL {} {}: {} then {} (bound {:.0}%{})",
                    ra.workload,
                    m.name,
                    report::sig(va),
                    report::sig(vb),
                    100.0 * m.bound,
                    if m.exact { ", exact for a seed" } else { "" }
                );
                ok = false;
            }
        }
    }
    ok
}

fn write_run_document(args: &Args, sets: &[Vec<RunResult>]) {
    let doc = Value::Object(vec![
        ("seed".to_string(), args.seed.to_value()),
        ("spread".to_string(), args.spread.to_value()),
        (
            "seconds".to_string(),
            args.seconds.unwrap_or(DEFAULT_SECONDS).to_value(),
        ),
        ("quick".to_string(), args.quick.to_value()),
        (
            "cores".to_string(),
            std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .to_value(),
        ),
        (
            "sets".to_string(),
            Value::Array(
                sets.iter()
                    .map(|runs| {
                        Value::Object(vec![(
                            "runs".to_string(),
                            Value::Array(runs.iter().map(RunResult::to_value).collect()),
                        )])
                    })
                    .collect(),
            ),
        ),
    ]);
    let dir = report::experiments_dir();
    let path = dir.join("BENCHMARK_run.json");
    let text = serde_json::to_string_pretty(&doc).expect("serializable");
    match std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, text)) {
        Ok(()) => println!("# wrote {}", path.display()),
        Err(e) => println!("# could not write {}: {e}", path.display()),
    }
}

// ----------------------------------------------------------------- compare

fn compare_files(a: &str, b: &str) -> bool {
    let load = |path: &str| -> Result<Vec<RunResult>, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let doc = serde_json::parse_value_str(&text).map_err(|e| format!("{path}: {e}"))?;
        let first = doc
            .get("sets")
            .and_then(Value::as_array)
            .and_then(|s| s.first())
            .ok_or_else(|| format!("{path}: no sets"))?;
        Ok(end_to_end(&compare::runs_of(first)))
    };
    match (load(a), load(b)) {
        (Ok(ra), Ok(rb)) => {
            println!("# A = {a} (base), B = {b}");
            let verdicts = compare::compare(&ra, &rb);
            let count = |v: Verdict| verdicts.iter().filter(|x| **x == v).count();
            println!(
                "# {} rows: {} ok, {} regressed, {} unresolved",
                verdicts.len(),
                count(Verdict::Ok),
                count(Verdict::Regressed),
                count(Verdict::Unresolved)
            );
            count(Verdict::Regressed) == 0
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("exp_perf --compare: {e}");
            false
        }
    }
}
