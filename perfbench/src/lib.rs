//! lsbench's performance benchmark: one command that runs a workload for
//! a fixed time, checks its outputs, and prints its end-to-end metrics or,
//! traced, its per-layer ledger. See `README.md` beside this crate.

pub mod checks;
pub mod host;
pub mod layers;
pub mod report;
pub mod workloads;

use report::Metric;
use serde::Value;
use std::path::PathBuf;
use std::time::Instant;
use workloads::{Iteration, Options, Scale, Workload};

/// Command-line arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Workload to run.
    pub workload: Workload,
    /// Seed all inputs are generated from.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Report per-layer metrics from traced iterations.
    pub trace: bool,
}

/// Usage text for argument errors.
pub const USAGE: &str = "usage: perfbench --workload read-archive|write-drift|openloop-capacity \
                         --seed N --seconds S --trace 0|1";

impl Args {
    /// Parses `--flag value` pairs; every flag is required.
    pub fn parse(args: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = || format!("bad value '{value}' for {flag}");
            match flag.as_str() {
                "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
                "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| bad())?;
                    seconds = Some(if s > 0.0 && s.is_finite() {
                        s
                    } else {
                        Err(bad())?
                    });
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => Err(bad())?,
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// What one benchmark run printed and decided.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Lines before the result: host block, digests, ledger.
    pub lines: Vec<String>,
    /// The result object (the last line of standard output).
    pub result: Value,
    /// Whether every check passed.
    pub correct: bool,
    /// What the failed checks found.
    pub problems: Vec<String>,
}

/// Where the results store of each iteration lives, relative to the
/// working directory; removed when the run ends.
const SCRATCH: &str = ".perfbench-tmp";

/// Runs the benchmark: iterations of the workload until `args.seconds`
/// are spent (alternating untraced and traced ones with `--trace 1`),
/// then the metrics.
pub fn execute(args: &Args, scale: Scale) -> Result<Outcome, String> {
    let scratch = PathBuf::from(SCRATCH);
    let start = Instant::now();
    let mut iterations: Vec<Iteration> = Vec::new();
    loop {
        let traced = args.trace && iterations.len() % 2 == 1;
        let opts = Options {
            workload: args.workload,
            scale,
            seed: args.seed,
            traced,
            latency_pass: traced && !iterations.iter().any(|it| it.traced),
            deep_checks: iterations.is_empty(),
            scratch: scratch.clone(),
        };
        iterations.push(workloads::run_iteration(&opts)?);
        let elapsed = start.elapsed().as_secs_f64();
        let per_iteration = elapsed / iterations.len() as f64;
        let enough = iterations.len() >= if args.trace { 2 } else { 1 };
        if enough && elapsed + per_iteration > args.seconds {
            break;
        }
    }
    // Only removes the directory if every iteration emptied it.
    let _ = std::fs::remove_dir(&scratch);

    let mut problems: Vec<String> = iterations
        .iter()
        .flat_map(|it| it.problems.clone())
        .collect();
    let mut failed: u64 = iterations.iter().map(|it| it.failed).sum();
    let attempted: u64 = iterations.iter().map(|it| it.attempted).sum();
    let first = &iterations[0];
    let mut lines = Vec::new();
    let scenario = args.workload.scenario(scale, args.seed)?;
    let ops = workloads::offered_ops(&scenario);
    let env = host::env(args.workload.name(), args.seed, scale.keys, ops);
    lines.push(
        serde_json::to_string(&Value::Object(vec![("env".into(), env)]))
            .map_err(|e| e.to_string())?,
    );
    for it in &iterations[1..] {
        if let Err(problem) = checks::repeats(first, it) {
            failed += 1;
            problems.push(problem);
        }
    }
    for s in &first.suts {
        lines.push(format!(
            "digest {} {} {:016x}",
            args.workload.name(),
            s.name,
            s.digest
        ));
    }
    if let Some(c) = &first.capacity {
        lines.push(format!(
            "capacity knee_rate {} probes {} saturated {}",
            c.knee_rate, c.probes, c.saturated
        ));
    }
    let untraced: Vec<&Iteration> = iterations.iter().filter(|it| !it.traced).collect();
    let traced: Vec<&Iteration> = iterations.iter().filter(|it| it.traced).collect();
    let metrics = if args.trace {
        let mut by_total = traced.clone();
        by_total.sort_by(|a, b| a.total_s.total_cmp(&b.total_s));
        // The first traced iteration also ran the per-op latency pass.
        let probed = traced[0];
        let ledger = report::render_ledger(by_total[by_total.len() / 2], probed);
        lines.extend(ledger.lines().map(String::from));
        report::per_layer(
            &traced,
            &untraced,
            probed,
            failed as f64 / attempted.max(1) as f64,
        )
    } else {
        let peak = host::peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
        report::end_to_end(&untraced, peak)
    };
    let correct = failed == 0;
    let result = result_json(correct, attempted.max(1), failed, &metrics)?;
    Ok(Outcome {
        lines,
        result,
        correct,
        problems,
    })
}

fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) -> Result<Value, String> {
    let mut entries = Vec::new();
    for m in metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite", m.name));
        }
        entries.push((
            m.name.to_string(),
            Value::Object(vec![
                ("value".into(), Value::Float(m.value)),
                ("unit".into(), Value::Str(m.unit.into())),
            ]),
        ));
    }
    Ok(Value::Object(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::UInt(attempted)),
        ("failed".into(), Value::UInt(failed)),
        ("metrics".into(), Value::Object(entries)),
    ]))
}
