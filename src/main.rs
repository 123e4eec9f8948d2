//! `lsbench` — command-line front end for the learned-systems benchmark.
//!
//! ```text
//! lsbench suite [--size N] [--ops N] [--seed N] [--threads N] [--sut NAME]... [--faults P] [--trace]
//! lsbench run --scenario NAME|FILE --sut NAME [--mode M] [--threads N] [--clients N] [--faults P] [--trace]
//! lsbench run --scenario NAME|FILE --remote HOST:PORT [--threads N] [--faults P]
//! lsbench capacity --scenario NAME|FILE --sut NAME --sla p99:MS [--remote HOST:PORT]
//! lsbench sweep --scenario NAME|FILE --sut A[,B,...] [--drift LO..HIxN] [--json]
//! lsbench serve --sut NAME --port P [--host H]
//! lsbench shift --sut NAME [--size N] [--ops N] [--threads N] [--trace]
//! lsbench quality --dist NAME [--param X]
//! lsbench trace import|replay|fit|record FILE ... [--speed X] [--out FILE]
//! lsbench archive run --scenario NAME|FILE --sut NAME [--threads N] [--store DIR]
//! lsbench archive list|show [ID] [--store DIR]
//! lsbench compare BASELINE CANDIDATE [--store DIR] [--json]
//! lsbench regress --baseline ID --candidate ID --policy FILE [--store DIR]
//! lsbench scenarios | validate FILE|DIR... | export NAME | list
//! ```
//!
//! SUT names are resolved through [`SutRegistry`]; scenario names and
//! `scenarios/*.spec` files are resolved through [`ScenarioRegistry`];
//! `--faults` takes a built-in chaos-plan name or a fault-plan file and
//! attaches it to the scenario(s) (deterministic fault injection — see
//! [`lsbench::core::faults`]). `--trace` turns on the observability
//! layer: runs emit a deterministic virtual-clock event trace (written to
//! `target/lsbench-results/trace.jsonl`) and print a wall-clock span tree.
//!
//! `lsbench serve` hosts a registered SUT out-of-process behind the
//! length-prefixed wire protocol ([`lsbench::core::wire`]); `--remote
//! HOST:PORT` on `run` / `archive run` drives such a server through the
//! pipelined [`RemoteSut`] client pool instead of an in-process SUT. The
//! in-process mode stays the conformance oracle: the same scenario run
//! remotely and locally must produce identical records.
//!
//! The `archive`/`compare`/`regress` family is the longitudinal layer
//! ([`lsbench::core::results`]): `archive run` executes a scenario and
//! saves the complete run record as a schema-versioned, content-addressed
//! artifact under `.lsbench/results/`; `compare` computes the paper's
//! paired metrics (Fig. 1a–1d) head-to-head between two saved runs; and
//! `regress` gates a candidate against a baseline under a policy file,
//! exiting non-zero on violation and emitting `BENCH_summary.json`.

use lsbench::core::capacity::{
    capacity_search, render_capacity_report, with_arrival_rate, CapacityConfig, CapacityPoint,
    SlaTarget,
};
use lsbench::core::driver::{run_kv_trace, run_kv_trace_open_loop, ReplayConfig};
use lsbench::core::faults::{resolve_fault_plan, FaultPlan};
use lsbench::core::metrics::adaptability::AdaptabilityReport;
use lsbench::core::obs::{render_spans, ObsConfig};
use lsbench::core::report::{render_adaptability, to_json, write_artifact};
use lsbench::core::results::{
    compare, evaluate_regression, parse_regression_policy, render_comparison_report,
    render_regression, render_transport_header, write_bench_summary, CapacityArtifact,
    CapacityManifest, ResultStore, RunArtifact, RunManifest, SuiteArtifact, SweepArtifact,
    SweepManifest, Transport,
};
use lsbench::core::runner::{ExecutionMode, RunOptions, RunOutcome, Runner};
use lsbench::core::scenario::{ClockMode, ModePreference, Scenario};
use lsbench::core::spec::{render_scenario, ScenarioRegistry};
use lsbench::core::suite::{
    render_comparison, run_scenarios_observed, standard_scenarios, SuiteConfig, SuiteResult,
};
use lsbench::core::sut_registry::SutRegistry;
use lsbench::core::sweep::{render_sweep_report, sweep_curve, DriftLadder};
use lsbench::core::trace::{
    export_csv, export_jsonl, fit_scenario, import_str, ImportedTrace, TraceFormat,
};
use lsbench::core::wire::{RemoteOptions, RemoteSut, WireServer, PROTOCOL_VERSION};
use lsbench::core::BenchError;
use lsbench::sut::sut::SystemUnderTest;
use lsbench::workload::keygen::{KeyDistribution, KeyGenerator, CANONICAL_DISTRIBUTIONS};
use lsbench::workload::quality::score_dataset;
use std::path::Path;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "lsbench — benchmark for learned data systems

USAGE:
  lsbench suite [--size N] [--ops N] [--seed N] [--threads N] [--sut NAME]...
                [--faults NAME|FILE] [--trace] [--save] [--store DIR]
      Run the standard 5-scenario suite (default: all SUTs) and print the
      cross-SUT comparison. Artifacts land in target/lsbench-results/.
      --threads N > 1 key-range-shards every scenario across N worker
      threads on the concurrent engine. --faults attaches a deterministic
      fault plan (chaos-errors, chaos-latency, chaos-timeouts, or a plan
      file) to every scenario. --trace records the virtual-clock event
      trace (trace.jsonl) and prints per-scenario span trees. --save
      archives every run record into the results store for later
      `lsbench compare` / `lsbench regress`.

  lsbench run --scenario NAME|FILE --sut NAME [--mode M] [--clock C]
              [--threads N] [--clients N] [--trace] [--size N] [--ops N]
              [--seed N] [--faults NAME|FILE] [--remote HOST:PORT]
      Run one scenario — a built-in name (see `lsbench scenarios`) or a
      .spec file — for one SUT. --size/--ops/--seed rescale built-in
      scenarios; spec files always run exactly as written. --mode picks
      the execution mode (serial, shared, sharded, open-loop); without it
      the scenario's `[run] mode` / `[open_loop]` section decides, then
      --threads N > 1 implies sharded, else serial. --clock picks the
      reporting clock (sim, wall); without it the scenario's `[run]
      clock` decides, defaulting to sim. Wall mode additionally measures
      host time coordinated-omission-safely beside the virtual record —
      the work-unit record itself is bit-identical across clocks.
      --clients N sets (and implies) the open-loop client population
      multiplexed onto the worker pool. --faults attaches a deterministic
      fault plan on top of whatever [[fault]] blocks the spec itself
      carries (the flag wins). --remote drives a `lsbench serve` server
      over the wire protocol instead of an in-process SUT (the server
      chooses the SUT; --sut is ignored).

  lsbench capacity --scenario NAME|FILE --sut NAME --sla pNN:MS
                   [--clients N] [--threads N] [--rate R] [--probes N]
                   [--tolerance X] [--size N] [--ops N] [--seed N]
                   [--faults NAME|FILE] [--remote HOST:PORT]
                   [--store DIR] [--json]
      Binary-search the maximum sustainable open-loop arrival rate under
      a latency SLA (`p99:5` = p99 at most 5ms, virtual time). Each probe
      runs the scenario open-loop on a fresh SUT with the arrival rate
      substituted, bracketing then bisecting to the SLA knee; every probe
      lands in the printed throughput-latency curve. The report is
      archived as a schema-versioned capacity artifact under the results
      store's capacity/ directory. --rate sets the first probed rate
      (default 1000 ops/s), --probes caps probe runs (default 12),
      --tolerance sets the relative bracket width to stop at (default
      0.05). With --remote every probe drives a `lsbench serve` server.

  lsbench sweep --scenario NAME|FILE --sut A[,B,...] [--drift LO..HIxN]
                [--mode M] [--clock C] [--threads N] [--clients N]
                [--faults NAME|FILE] [--remote HOST:PORT]
                [--store DIR] [--json]
      Grade the scenario's drift by intensity: expand the --drift axis
      (default 0..1x5) into an N-rung ladder — rung α replays every phase
      pulled toward the first phase so that α=0 is a static control and
      α=1 is the scenario as written — run every (SUT, α) cell, and print
      per-SUT curves of adaptability area, adjustment speed, SLA
      violation rate, and specialization spread against α, with the
      linear distribution-shift bound as a theory overlay (rungs that
      degrade faster are flagged). Multiple lanes: repeat --sut or pass a
      comma list. The curves are archived as a schema-versioned sweep
      artifact under the results store's sweep/ directory; --json prints
      the artifact instead of the text report. The ladder requires every
      phase to share the first phase's distribution shape.

  lsbench serve --sut NAME --port P [--host H]
      Host a registered SUT out-of-process: listen on H:P (default host
      127.0.0.1; port 0 picks a free port) and serve the full SUT surface
      over the versioned length-prefixed wire protocol. Clients ship the
      scenario spec in the Load request, so one server handles any
      scenario. Runs until killed.

  lsbench shift --sut NAME [--size N] [--ops N] [--seed N] [--threads N] [--trace]
      Run the canonical two-phase distribution-shift scenario for one SUT
      and print its adaptability report. --threads N > 1 runs it sharded
      on the concurrent engine and also prints merged latency quantiles.
      --trace writes shift_trace.jsonl and prints the span tree.

  lsbench quality --dist NAME [--theta X]
      Score a key distribution with the §V-C quality tool.
      NAME: see `lsbench list`

  lsbench archive run --scenario NAME|FILE --sut NAME [--threads N]
                      [--size N] [--ops N] [--seed N] [--faults NAME|FILE]
                      [--store DIR] [--remote HOST:PORT]
      Run one scenario and save the complete run record as a
      schema-versioned, content-addressed artifact (default store:
      .lsbench/results/ at the workspace root). With --remote the run
      executes against a `lsbench serve` server and the manifest records
      the remote transport, so `lsbench compare` can surface
      remote-vs-local pairings.

  lsbench archive list [--store DIR]
      List stored artifacts (digest, SUT, scenario, workers, transport,
      ops).

  lsbench archive show ID [--store DIR]
      Print one artifact's manifest and record summary. ID is a file
      path, a digest (prefix), or a unique substring of the file name.

  lsbench compare BASELINE CANDIDATE [--store DIR] [--json]
      Head-to-head comparison of two saved runs: Fig. 1b adaptability
      area difference, per-phase Fig. 1a box-stat deltas, Fig. 1c SLA
      deltas (threshold calibrated from BASELINE), fault accounting, and
      Fig. 1d cost-per-query ratio. --json emits the serialized report.

  lsbench regress --baseline ID --candidate ID --policy FILE
                  [--store DIR] [--json]
      Gate the candidate against the baseline under a regression policy
      (spec-style file; see policies/default.policy). Writes
      BENCH_summary.json and exits non-zero on any policy violation.

  lsbench trace import FILE [--format csv|jsonl] [--out FILE] [--speed X]
      Parse and validate a keyed-operation trace (CSV or JSON-lines;
      format inferred from the extension) and print its summary:
      op counts, distinct keys, key range, and whether it carries
      timestamps (open-loop replay) or not (closed-loop fallback).
      Errors are positioned (file:line N: field: reason). --out rewrites
      the trace in canonical form; --speed rescales timestamps.

  lsbench trace replay FILE --sut NAME [--speed X] [--mode open-loop]
                      [--clients N] [--threads N] [--format csv|jsonl]
                      [--archive] [--store DIR]
      Replay an imported trace against a SUT on the virtual clock.
      Timestamped traces replay open-loop at the recorded arrival times
      (divided by --speed); timestamp-less traces replay closed-loop.
      --mode open-loop / --clients N multiplexes the trace over an
      open-loop client population (bit-identical for any --threads).
      --archive saves the record into the results store so replays can
      feed `lsbench compare` / `lsbench regress`.

  lsbench trace fit FILE [--name NAME] [--seed N] [--out FILE]
                   [--format csv|jsonl]
      Fit a scenario spec to a trace: change-point phase segmentation
      over windowed op-mix/key statistics, then per-phase mix, key-range,
      and distribution estimation (hotspot / Zipf / uniform) plus a
      repetition-factor report. Prints canonical spec text (or writes
      --out) that `lsbench validate` and `lsbench run` accept as-is.

  lsbench trace record --scenario NAME|FILE --out FILE [--rate R]
                       [--format csv|jsonl] [--size N] [--ops N] [--seed N]
      Record a scenario's generated operation stream as a trace file.
      --rate R stamps constant-rate timestamps (R ops/s) so the
      recording replays open-loop.

  lsbench scenarios
      List built-in scenarios (resolvable by name in `lsbench run`).

  lsbench validate FILE|DIR...
      Parse and validate scenario spec files, printing positioned
      errors (file:line: field: reason). Directories are scanned for
      *.spec. Exits non-zero if any file is invalid.

  lsbench export NAME [--size N] [--ops N] [--seed N]
      Print a built-in scenario as canonical spec text (the format
      shipped in scenarios/).

  lsbench list
      List registered SUTs and distributions.
"
    );
    ExitCode::from(2)
}

fn parse_flag(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn parse_num<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> T {
    parse_flag(args, flag)
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

fn obs_config(args: &[String]) -> ObsConfig {
    if has_flag(args, "--trace") {
        ObsConfig::traced()
    } else {
        ObsConfig::default()
    }
}

/// Resolves `--faults NAME|FILE` to a plan, or `None` when the flag is
/// absent. `Err` means the argument was present but did not resolve.
fn fault_plan_arg(args: &[String]) -> Result<Option<FaultPlan>, ExitCode> {
    let Some(arg) = parse_flag(args, "--faults") else {
        return Ok(None);
    };
    match resolve_fault_plan(&arg) {
        Ok(plan) => Ok(Some(plan)),
        Err(e) => {
            eprintln!("{e}");
            Err(ExitCode::from(2))
        }
    }
}

/// Attaches a fault plan to a scenario and re-validates (a plan can name
/// phases or op windows the scenario does not have).
fn attach_faults(scenario: &mut Scenario, plan: &FaultPlan) -> Result<(), ExitCode> {
    scenario.faults = Some(plan.clone());
    if let Err(e) = scenario.validate() {
        eprintln!("fault plan does not fit scenario '{}': {e}", scenario.name);
        return Err(ExitCode::from(2));
    }
    Ok(())
}

/// The flags every run-executing subcommand (`run`, `suite`, `archive
/// run`, `capacity`, `shift`) shares, parsed once with one error style
/// instead of per-command copies: scenario/SUT selection, transport,
/// execution mode, worker threads, open-loop clients, fault plan, and
/// observability.
struct CommonRunArgs {
    scenario: Option<String>,
    /// Every `--sut` occurrence; single-SUT commands use the first.
    suts: Vec<String>,
    remote: Option<String>,
    mode: Option<ModePreference>,
    clock: Option<ClockMode>,
    threads: usize,
    clients: Option<usize>,
    faults: Option<FaultPlan>,
    obs: ObsConfig,
}

impl CommonRunArgs {
    /// Parses the shared flags. Flag errors print to stderr and exit with
    /// the usage code, same as every other CLI error.
    fn parse(args: &[String]) -> Result<Self, ExitCode> {
        let mode = match parse_flag(args, "--mode") {
            None => None,
            Some(name) => match ModePreference::parse(&name) {
                Some(m) => Some(m),
                None => {
                    eprintln!(
                        "unknown mode '{name}' (expected \"serial\", \"shared\", \"sharded\", \
                         or \"open-loop\")"
                    );
                    return Err(ExitCode::from(2));
                }
            },
        };
        let clock = match parse_flag(args, "--clock") {
            None => None,
            Some(name) => match ClockMode::parse(&name) {
                Some(c) => Some(c),
                None => {
                    eprintln!("unknown clock '{name}' (expected \"sim\" or \"wall\")");
                    return Err(ExitCode::from(2));
                }
            },
        };
        let clients = match parse_flag(args, "--clients") {
            None => None,
            Some(v) => match v.parse::<usize>() {
                Ok(n) if n >= 1 => Some(n),
                _ => {
                    eprintln!("--clients must be a positive integer, got '{v}'");
                    return Err(ExitCode::from(2));
                }
            },
        };
        Ok(CommonRunArgs {
            scenario: parse_flag(args, "--scenario"),
            suts: args
                .windows(2)
                .filter(|w| w[0] == "--sut")
                .map(|w| w[1].clone())
                .collect(),
            remote: parse_flag(args, "--remote"),
            mode,
            clock,
            threads: parse_num(args, "--threads", 1),
            clients,
            faults: fault_plan_arg(args)?,
            obs: obs_config(args),
        })
    }

    /// The required `--scenario` argument, resolved through the registry
    /// with the shared `--faults` plan attached.
    fn resolve_scenario(&self, args: &[String]) -> Result<Scenario, ExitCode> {
        let Some(scenario_arg) = &self.scenario else {
            eprintln!("--scenario NAME|FILE is required (see `lsbench scenarios`)");
            return Err(ExitCode::from(2));
        };
        let mut scenario = scenario_registry(args).resolve(scenario_arg).map_err(|e| {
            eprintln!("{e}");
            ExitCode::from(2)
        })?;
        if let Some(plan) = &self.faults {
            attach_faults(&mut scenario, plan)?;
        }
        Ok(scenario)
    }

    /// The required `--sut` argument (unless `--remote` stands in).
    fn require_sut(&self) -> Result<String, ExitCode> {
        match self.suts.first() {
            Some(name) => Ok(name.clone()),
            None => {
                eprintln!(
                    "--sut NAME is required unless --remote HOST:PORT is given \
                     (see `lsbench list`)"
                );
                Err(ExitCode::from(2))
            }
        }
    }

    /// Resolves the execution mode for `scenario`. Precedence: the
    /// `--mode` flag, then the scenario's `[run] mode` preference, then
    /// its `[open_loop]` section (or an explicit `--clients`), then
    /// `--threads N > 1` implying sharded, defaulting to serial.
    fn execution_mode(&self, scenario: &Scenario) -> ExecutionMode {
        let workers = self.threads.max(1);
        let open_loop = || ExecutionMode::OpenLoop {
            clients: self
                .clients
                .or(scenario.open_loop.map(|o| o.clients as usize))
                .unwrap_or(DEFAULT_CLIENTS),
            workers,
        };
        match self.mode.or(scenario.mode) {
            Some(ModePreference::Serial) => ExecutionMode::Serial,
            Some(ModePreference::Shared) => ExecutionMode::SharedLock { workers },
            Some(ModePreference::Sharded) => ExecutionMode::Sharded { workers },
            Some(ModePreference::OpenLoop) => open_loop(),
            None if scenario.open_loop.is_some() || self.clients.is_some() => open_loop(),
            None if workers > 1 => ExecutionMode::Sharded { workers },
            None => ExecutionMode::Serial,
        }
    }

    /// Resolves the clock mode for `scenario`. Precedence: the `--clock`
    /// flag, then the scenario's `[run] clock` preference, then sim.
    fn clock_mode(&self, scenario: &Scenario) -> ClockMode {
        self.clock.or(scenario.clock).unwrap_or_default()
    }

    /// [`RunOptions`] for `scenario`: the resolved execution mode plus
    /// the resolved clock and the shared observability config.
    fn run_options(&self, scenario: &Scenario) -> RunOptions {
        RunOptions {
            obs: self.obs,
            clock: self.clock_mode(scenario),
            ..RunOptions::with_mode(self.execution_mode(scenario))
        }
    }
}

/// Open-loop client population when neither `--clients` nor the
/// scenario's `[open_loop]` section names one.
const DEFAULT_CLIENTS: usize = 1000;

/// Worker count recorded in archive manifests: the thread count the mode
/// actually runs with (1 = serial driver).
fn mode_workers(mode: ExecutionMode) -> usize {
    match mode {
        ExecutionMode::Serial => 1,
        ExecutionMode::SharedLock { workers }
        | ExecutionMode::Sharded { workers }
        | ExecutionMode::OpenLoop { workers, .. } => workers,
    }
}

fn cmd_suite(args: &[String]) -> ExitCode {
    let common = match CommonRunArgs::parse(args) {
        Ok(c) => c,
        Err(code) => return code,
    };
    let registry = SutRegistry::default();
    let cfg = SuiteConfig {
        dataset_size: parse_num(args, "--size", 100_000),
        ops_per_phase: parse_num(args, "--ops", 10_000),
        seed: parse_num(args, "--seed", 0x5EED),
        work_units_per_second: 1_000_000.0,
        threads: common.threads,
    };
    let chosen: Vec<String> = if common.suts.is_empty() {
        registry.names().iter().map(|s| s.to_string()).collect()
    } else {
        common.suts.clone()
    };
    let obs = common.obs;
    let scenarios = match standard_scenarios(&cfg) {
        Ok(mut scenarios) => {
            if let Some(plan) = &common.faults {
                for scenario in &mut scenarios {
                    if let Err(code) = attach_faults(scenario, plan) {
                        return code;
                    }
                }
            }
            scenarios
        }
        Err(e) => {
            eprintln!("cannot build suite scenarios: {e}");
            return ExitCode::FAILURE;
        }
    };
    let store = if has_flag(args, "--save") {
        match open_store(args) {
            Ok(s) => Some(s),
            Err(code) => return code,
        }
    } else {
        None
    };
    let mut results: Vec<SuiteResult> = Vec::new();
    let mut trace_lines = String::new();
    for name in &chosen {
        let factory = match registry.factory(name) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::from(2);
            }
        };
        eprint!("running {name} ... ");
        match run_scenarios_observed(factory, &scenarios, cfg.threads, obs) {
            Ok((result, observation)) => {
                eprintln!("done");
                for (scenario, trace) in &observation.traces {
                    match trace.to_jsonl_tagged(&[("sut", name), ("scenario", scenario)]) {
                        Ok(lines) => trace_lines.push_str(&lines),
                        Err(e) => eprintln!("trace render failed: {e}"),
                    }
                }
                for (scenario, spans) in &observation.spans {
                    println!("[spans] {name} / {scenario}");
                    print!("{}", render_spans(spans));
                }
                if let Some(store) = &store {
                    for (scenario_name, record) in &observation.records {
                        let Some(scenario) = scenarios.iter().find(|s| &s.name == scenario_name)
                        else {
                            continue;
                        };
                        let manifest = RunManifest::for_run(scenario, name, cfg.threads);
                        let artifact = RunArtifact::new(manifest, record.clone());
                        match store.save(&artifact) {
                            Ok(path) => eprintln!("[archived {}]", path.display()),
                            Err(e) => {
                                eprintln!("archive failed: {e}");
                                return ExitCode::FAILURE;
                            }
                        }
                    }
                }
                results.push(result);
            }
            Err(e) => {
                eprintln!("failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!("{}", render_comparison(&results));
    if let Ok(json) = to_json(&SuiteArtifact::new(results.clone())) {
        if let Ok(path) = write_artifact("cli_suite.json", &json) {
            eprintln!("[saved {}]", path.display());
        }
    }
    if !trace_lines.is_empty() {
        match write_artifact("trace.jsonl", &trace_lines) {
            Ok(path) => eprintln!("[saved {}]", path.display()),
            Err(e) => eprintln!("trace write failed: {e}"),
        }
    }
    ExitCode::SUCCESS
}

fn cmd_shift(args: &[String]) -> ExitCode {
    let common = match CommonRunArgs::parse(args) {
        Ok(c) => c,
        Err(code) => return code,
    };
    let registry = SutRegistry::default();
    let sut_name = match common.require_sut() {
        Ok(name) => name,
        Err(code) => return code,
    };
    let factory = match registry.factory(&sut_name) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let scenario = match Scenario::two_phase_shift(
        "cli-shift",
        KeyDistribution::LogNormal {
            mu: 0.0,
            sigma: 1.2,
        },
        KeyDistribution::Normal {
            center: 0.9,
            std_frac: 0.03,
        },
        parse_num(args, "--size", 100_000),
        parse_num(args, "--ops", 20_000),
        parse_num(args, "--seed", 42),
    ) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("invalid scenario: {e}");
            return ExitCode::FAILURE;
        }
    };
    let opts = common.run_options(&scenario);
    let outcome = match Runner::from_factory(factory).config(opts).run(&scenario) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("run failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    report_outcome(&outcome, &sut_name, &scenario, "shift_trace.jsonl");
    ExitCode::SUCCESS
}

/// Prints the standard single-run summary: engine stats, record counters,
/// the adaptability report when the scenario has enough phases for one,
/// span trees, and the event trace artifact.
fn report_outcome(
    outcome: &lsbench::core::runner::RunOutcome,
    sut_name: &str,
    scenario: &Scenario,
    trace_file: &str,
) {
    if let Some(stats) = &outcome.engine {
        let q = |p: f64| {
            stats
                .latency
                .quantile(p)
                .map(|ns| ns as f64 / 1e9)
                .unwrap_or(f64::NAN)
        };
        println!(
            "[engine] {} threads, {} lanes, p50 {:.6}s p99 {:.6}s (virtual)",
            stats.threads,
            stats.lanes,
            q(0.50),
            q(0.99)
        );
    }
    if let Some(wall) = &outcome.wall {
        if wall.latency.total() > 0 {
            let q = |p: f64| {
                wall.latency
                    .quantile(p)
                    .map(|ns| ns as f64 / 1e6)
                    .unwrap_or(f64::NAN)
            };
            println!(
                "[wall] {:.3}s elapsed, {:.0} ops/s, batch p50 {:.4}ms p99 {:.4}ms (host clock)",
                wall.elapsed_seconds,
                wall.throughput,
                q(0.50),
                q(0.99)
            );
        } else {
            println!(
                "[wall] {:.3}s elapsed, {:.0} ops/s (host clock, coarse)",
                wall.elapsed_seconds, wall.throughput
            );
        }
    }
    let record = &outcome.record;
    println!(
        "{}: {:.0} ops/s mean, {} completed, {} failures, training {:.3}s",
        record.sut_name,
        record.mean_throughput(),
        record.completed(),
        record.failures(),
        record.train.seconds
    );
    let faults = &record.faults;
    if faults.injected + faults.retries + faults.timeouts + faults.crashes > 0 {
        println!(
            "[faults] injected {}, retries {}, timeouts {}, crashes {}",
            faults.injected, faults.retries, faults.timeouts, faults.crashes
        );
    }
    if let Ok(rep) = AdaptabilityReport::from_record(record) {
        println!("{}", render_adaptability(&[&rep]));
    }
    if !outcome.spans.is_empty() {
        println!("[spans] {sut_name} / {}", scenario.name);
        print!("{}", render_spans(&outcome.spans));
    }
    if let Some(trace) = &outcome.trace {
        match trace
            .to_jsonl_tagged(&[("sut", sut_name), ("scenario", scenario.name.as_str())])
            .and_then(|lines| write_artifact(trace_file, &lines))
        {
            Ok(path) => eprintln!("[saved {}]", path.display()),
            Err(e) => eprintln!("trace write failed: {e}"),
        }
    }
}

/// The scenario registry at the scale given by `--size`/`--ops`/`--seed`
/// (defaults match the standard suite).
fn scenario_registry(args: &[String]) -> ScenarioRegistry {
    let default = SuiteConfig::default();
    ScenarioRegistry::with_config(SuiteConfig {
        dataset_size: parse_num(args, "--size", default.dataset_size),
        ops_per_phase: parse_num(args, "--ops", default.ops_per_phase),
        seed: parse_num(args, "--seed", default.seed),
        ..default
    })
}

/// Executes one resolved scenario locally or remotely with the shared
/// options — the common tail of `run`, `archive run`, and every capacity
/// probe. Returns the outcome, the (possibly server-reported) SUT name,
/// and the transport used.
fn execute_scenario(
    common: &CommonRunArgs,
    scenario: &Scenario,
    opts: RunOptions,
    quiet: bool,
) -> Result<(RunOutcome, String, Transport), ExitCode> {
    if let Some(endpoint) = &common.remote {
        let (outcome, sut_name) = run_remote(scenario, endpoint, opts, quiet)?;
        let transport = Transport::Remote {
            endpoint: endpoint.clone(),
        };
        return Ok((outcome, sut_name, transport));
    }
    let sut_name = common.require_sut()?;
    let registry = SutRegistry::default();
    let factory = registry.factory(&sut_name).map_err(|e| {
        eprintln!("{e}");
        ExitCode::from(2)
    })?;
    if !quiet {
        eprintln!(
            "running {} on {} ({} phases, {} ops, mode {}) ...",
            scenario.name,
            sut_name,
            scenario.workload.phases().len(),
            scenario.workload.total_ops(),
            opts.mode.label()
        );
    }
    let outcome = Runner::from_factory(factory)
        .config(opts)
        .run(scenario)
        .map_err(|e| {
            eprintln!("run failed: {e}");
            ExitCode::FAILURE
        })?;
    Ok((outcome, sut_name, Transport::Local))
}

fn cmd_run(args: &[String]) -> ExitCode {
    let common = match CommonRunArgs::parse(args) {
        Ok(c) => c,
        Err(code) => return code,
    };
    if common.remote.is_none() && common.suts.is_empty() {
        eprintln!("--sut NAME is required unless --remote HOST:PORT is given (see `lsbench list`)");
        return ExitCode::from(2);
    }
    let scenario = match common.resolve_scenario(args) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let opts = common.run_options(&scenario);
    let (outcome, sut_name, _) = match execute_scenario(&common, &scenario, opts, false) {
        Ok(v) => v,
        Err(code) => return code,
    };
    report_outcome(&outcome, &sut_name, &scenario, "run_trace.jsonl");
    ExitCode::SUCCESS
}

/// Runs a scenario against a `lsbench serve` endpoint: connects the
/// pipelined client pool, ships the canonical rendered spec in the Load
/// request (the server builds the dataset and its configured SUT), and
/// drives the run through the same [`Runner`] as an in-process SUT.
/// Returns the outcome plus the server-reported SUT name.
fn run_remote(
    scenario: &Scenario,
    endpoint: &str,
    opts: RunOptions,
    quiet: bool,
) -> Result<(RunOutcome, String), ExitCode> {
    let mut remote = RemoteSut::connect(endpoint, RemoteOptions::default()).map_err(|e| {
        eprintln!("cannot connect to {endpoint}: {e}");
        ExitCode::from(2)
    })?;
    if !quiet {
        eprintln!(
            "running {} remotely on '{}' at {endpoint} (protocol v{PROTOCOL_VERSION}, {} phases, {} ops, mode {}) ...",
            scenario.name,
            remote.name(),
            scenario.workload.phases().len(),
            scenario.workload.total_ops(),
            opts.mode.label()
        );
    }
    remote.load(&render_scenario(scenario)).map_err(|e| {
        eprintln!("remote load failed: {e}");
        ExitCode::FAILURE
    })?;
    let outcome = Runner::new(&mut remote)
        .config(opts)
        .run(scenario)
        .map_err(|e| {
            eprintln!("remote run failed: {e}");
            ExitCode::FAILURE
        })?;
    let sut_name = remote.name().to_string();
    Ok((outcome, sut_name))
}

/// `lsbench serve`: host a registered SUT behind the wire protocol until
/// the process is killed.
fn cmd_serve(args: &[String]) -> ExitCode {
    let Some(sut_name) = parse_flag(args, "--sut") else {
        eprintln!("--sut NAME is required (see `lsbench list`)");
        return ExitCode::from(2);
    };
    let Some(port) = parse_flag(args, "--port") else {
        eprintln!("--port P is required (0 picks a free port)");
        return ExitCode::from(2);
    };
    let host = parse_flag(args, "--host").unwrap_or_else(|| "127.0.0.1".to_string());
    let server = match WireServer::bind(format!("{host}:{port}"), SutRegistry::default(), &sut_name)
    {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot serve: {e}");
            return ExitCode::from(2);
        }
    };
    match server.local_addr() {
        Ok(addr) => {
            println!("lsbench serve: hosting '{sut_name}' on {addr} (protocol v{PROTOCOL_VERSION})")
        }
        Err(e) => {
            eprintln!("cannot resolve listen address: {e}");
            return ExitCode::FAILURE;
        }
    }
    match server.run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("server error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Opens the results store named by `--store DIR`, or the default
/// workspace store when the flag is absent.
fn open_store(args: &[String]) -> Result<ResultStore, ExitCode> {
    let opened = match parse_flag(args, "--store") {
        Some(dir) => ResultStore::open(dir),
        None => ResultStore::open_default(),
    };
    opened.map_err(|e| {
        eprintln!("{e}");
        ExitCode::FAILURE
    })
}

/// Positional (non-flag) arguments, skipping the values of value-taking
/// flags so `compare A B --store DIR` sees exactly `[A, B]`.
fn positional_args(args: &[String]) -> Vec<String> {
    const VALUE_FLAGS: &[&str] = &[
        "--store",
        "--policy",
        "--baseline",
        "--candidate",
        "--scenario",
        "--sut",
        "--threads",
        "--size",
        "--ops",
        "--seed",
        "--faults",
        "--remote",
        "--port",
        "--host",
        "--mode",
        "--clock",
        "--clients",
        "--sla",
        "--drift",
        "--rate",
        "--probes",
        "--tolerance",
        "--speed",
        "--out",
        "--format",
        "--name",
    ];
    let mut out = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if VALUE_FLAGS.contains(&args[i].as_str()) {
            i += 2;
        } else if args[i].starts_with("--") {
            i += 1;
        } else {
            out.push(args[i].clone());
            i += 1;
        }
    }
    out
}

fn cmd_archive(args: &[String]) -> ExitCode {
    match args.first().map(|s| s.as_str()) {
        Some("run") => cmd_archive_run(&args[1..]),
        Some("list") => cmd_archive_list(&args[1..]),
        Some("show") => cmd_archive_show(&args[1..]),
        _ => {
            eprintln!("usage: lsbench archive run|list|show ... (see `lsbench` for details)");
            ExitCode::from(2)
        }
    }
}

/// `lsbench archive run`: exactly `lsbench run`, plus saving the record
/// (with its reproduction manifest and engine statistics) into the
/// results store.
fn cmd_archive_run(args: &[String]) -> ExitCode {
    let common = match CommonRunArgs::parse(args) {
        Ok(c) => c,
        Err(code) => return code,
    };
    if common.remote.is_none() && common.suts.is_empty() {
        eprintln!("--sut NAME is required unless --remote HOST:PORT is given (see `lsbench list`)");
        return ExitCode::from(2);
    }
    let store = match open_store(args) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let scenario = match common.resolve_scenario(args) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let opts = common.run_options(&scenario);
    let (outcome, sut_name, transport) = match execute_scenario(&common, &scenario, opts, false) {
        Ok(v) => v,
        Err(code) => return code,
    };
    report_outcome(&outcome, &sut_name, &scenario, "run_trace.jsonl");
    let manifest = RunManifest::for_run(&scenario, &sut_name, mode_workers(opts.mode))
        .with_transport(transport)
        .with_clock(opts.clock);
    let artifact = RunArtifact::new(manifest, outcome.record)
        .with_engine(outcome.engine)
        .with_wall(outcome.wall);
    match store.save(&artifact) {
        Ok(path) => {
            println!("archived {} (digest {})", path.display(), artifact.digest);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("archive failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `lsbench capacity`: binary-search the maximum sustainable open-loop
/// arrival rate under a latency SLA, probing with full runs on fresh
/// SUTs, and archive the resulting knee curve.
fn cmd_capacity(args: &[String]) -> ExitCode {
    let common = match CommonRunArgs::parse(args) {
        Ok(c) => c,
        Err(code) => return code,
    };
    if common.remote.is_none() && common.suts.is_empty() {
        eprintln!("--sut NAME is required unless --remote HOST:PORT is given (see `lsbench list`)");
        return ExitCode::from(2);
    }
    let Some(sla_arg) = parse_flag(args, "--sla") else {
        eprintln!("--sla pNN:MS is required (e.g. --sla p99:5 for p99 <= 5ms)");
        return ExitCode::from(2);
    };
    let sla = match SlaTarget::parse(&sla_arg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let store = match open_store(args) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let scenario = match common.resolve_scenario(args) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let clients = common
        .clients
        .or(scenario.open_loop.map(|o| o.clients as usize))
        .unwrap_or(DEFAULT_CLIENTS);
    let workers = common.threads.max(1);
    let config = CapacityConfig {
        sla,
        initial_rate: parse_num(args, "--rate", 1000.0),
        max_probes: parse_num(args, "--probes", 12),
        tolerance: parse_num(args, "--tolerance", 0.05),
    };
    eprintln!(
        "capacity search: {} under {} ({clients} clients, {workers} workers, \
         start {} ops/s, <= {} probes) ...",
        scenario.name,
        sla.describe(),
        config.initial_rate,
        config.max_probes
    );
    // Each probe is a fresh SUT at a substituted arrival rate; the probe
    // fails the whole search rather than guessing past a broken run.
    let mut probe_sut = String::new();
    let probe_result = capacity_search(&config, |rate| {
        let probe_scenario = with_arrival_rate(&scenario, rate);
        let opts = RunOptions::with_mode(ExecutionMode::OpenLoop { clients, workers });
        let (outcome, sut_name, _) = execute_scenario(&common, &probe_scenario, opts, true)
            .map_err(|_| BenchError::Sut(format!("probe at {rate} ops/s failed")))?;
        probe_sut = sut_name;
        let engine = outcome.engine.as_ref().ok_or_else(|| {
            BenchError::Metric("open-loop probe produced no engine stats".to_string())
        })?;
        let point = CapacityPoint::from_run(rate, &sla, engine, &outcome.record)?;
        eprintln!(
            "  probe {:>12.2} ops/s -> p{} {:.4}ms, {} completed: {}",
            point.rate,
            sla.quantile * 100.0,
            point.latency_seconds * 1000.0,
            point.completed,
            if point.met { "met" } else { "VIOLATED" }
        );
        Ok(point)
    });
    let report = match probe_result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("capacity search failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if has_flag(args, "--json") {
        match to_json(&report) {
            Ok(json) => println!("{json}"),
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        print!("{}", render_capacity_report(&report));
    }
    let transport = match &common.remote {
        Some(endpoint) => Transport::Remote {
            endpoint: endpoint.clone(),
        },
        None => Transport::Local,
    };
    let manifest = CapacityManifest::for_search(&scenario, &probe_sut, &sla_arg, clients, workers)
        .with_transport(transport);
    let artifact = CapacityArtifact::new(manifest, report);
    match store.save_capacity(&artifact) {
        Ok(path) => {
            println!("archived {} (digest {})", path.display(), artifact.digest);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("archive failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `lsbench sweep`: grade a scenario's drift by intensity — expand the
/// `--drift lo..hixN` ladder, run every (SUT, α) cell through the normal
/// runner, print the metric-vs-α curves with the linear shift-bound
/// overlay, and archive the curves as a sweep artifact.
fn cmd_sweep(args: &[String]) -> ExitCode {
    let common = match CommonRunArgs::parse(args) {
        Ok(c) => c,
        Err(code) => return code,
    };
    // `--sut a --sut b` and `--sut a,b` both spell a multi-SUT sweep.
    let suts: Vec<String> = common
        .suts
        .iter()
        .flat_map(|s| s.split(','))
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    if common.remote.is_none() && suts.is_empty() {
        eprintln!("--sut NAME is required unless --remote HOST:PORT is given (see `lsbench list`)");
        return ExitCode::from(2);
    }
    let store = match open_store(args) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let scenario = match common.resolve_scenario(args) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let axis = parse_flag(args, "--drift").unwrap_or_else(|| "0..1x5".to_string());
    let ladder = match DriftLadder::build(&scenario, &axis) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    // With --remote the server picks the single SUT; locally each named
    // SUT is one lane of the sweep.
    let lanes: Vec<Option<String>> = if common.remote.is_some() {
        vec![None]
    } else {
        suts.into_iter().map(Some).collect()
    };
    eprintln!(
        "drift sweep: {} over {} ({} rungs x {} SUT lane(s)) ...",
        scenario.name,
        ladder.axis,
        ladder.rungs.len(),
        lanes.len()
    );
    let mut curves = Vec::with_capacity(lanes.len());
    let mut curve_suts = Vec::with_capacity(lanes.len());
    for lane in lanes {
        let lane_common = CommonRunArgs {
            scenario: common.scenario.clone(),
            suts: lane.clone().into_iter().collect(),
            remote: common.remote.clone(),
            mode: common.mode,
            clock: common.clock,
            threads: common.threads,
            clients: common.clients,
            faults: common.faults.clone(),
            obs: common.obs,
        };
        let mut lane_sut = lane.unwrap_or_default();
        let mut records = Vec::with_capacity(ladder.rungs.len());
        for (&alpha, rung) in ladder.alphas.iter().zip(&ladder.rungs) {
            let opts = lane_common.run_options(rung);
            let (outcome, sut_name, _) = match execute_scenario(&lane_common, rung, opts, true) {
                Ok(v) => v,
                Err(code) => return code,
            };
            eprintln!(
                "  {sut_name} α={alpha:.3}: {} completed",
                outcome.record.completed()
            );
            lane_sut = sut_name;
            records.push(outcome.record);
        }
        let curve = match sweep_curve(&lane_sut, &ladder.alphas, &ladder.rungs, &records) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("sweep curve for {lane_sut} failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        curve_suts.push(lane_sut);
        curves.push(curve);
    }
    let transport = match &common.remote {
        Some(endpoint) => Transport::Remote {
            endpoint: endpoint.clone(),
        },
        None => Transport::Local,
    };
    let manifest = SweepManifest::for_sweep(&scenario, &curve_suts, &ladder.axis, &ladder.alphas)
        .with_transport(transport)
        .with_clock(common.clock_mode(&scenario));
    let artifact = SweepArtifact::new(manifest, curves);
    if has_flag(args, "--json") {
        match artifact.to_json() {
            Ok(json) => print!("{json}"),
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        print!(
            "{}",
            render_sweep_report(&scenario.name, &ladder.axis, &artifact.curves)
        );
    }
    match store.save_sweep(&artifact) {
        Ok(path) => {
            println!("archived {} (digest {})", path.display(), artifact.digest);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("archive failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_archive_list(args: &[String]) -> ExitCode {
    let store = match open_store(args) {
        Ok(s) => s,
        Err(code) => return code,
    };
    match store.list() {
        Ok(entries) => {
            if entries.is_empty() {
                println!("(no artifacts in {})", store.dir().display());
                return ExitCode::SUCCESS;
            }
            println!(
                "{:<16} {:<14} {:<22} {:>7} {:<24} {:>9}",
                "digest", "sut", "scenario", "workers", "transport", "ops"
            );
            for e in &entries {
                println!(
                    "{:<16} {:<14} {:<22} {:>7} {:<24} {:>9}",
                    e.digest,
                    e.sut,
                    e.scenario,
                    e.concurrency,
                    e.transport.to_string(),
                    e.completed
                );
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_archive_show(args: &[String]) -> ExitCode {
    let Some(id) = positional_args(args).into_iter().next() else {
        eprintln!("usage: lsbench archive show ID [--store DIR]");
        return ExitCode::from(2);
    };
    let store = match open_store(args) {
        Ok(s) => s,
        Err(code) => return code,
    };
    match store.load(&id) {
        Ok(a) => {
            let m = &a.manifest;
            println!("digest:        {}", a.digest);
            println!("schema:        v{}", a.schema_version);
            println!("sut:           {}", m.sut);
            println!("scenario:      {}", m.scenario);
            println!("workers:       {}", m.concurrency);
            println!("transport:     {}", m.transport);
            println!("crate version: {}", m.crate_version);
            let r = &a.record;
            println!(
                "record:        {} completed, {} failures, {:.0} ops/s mean, train {:.3}s",
                r.completed(),
                r.failures(),
                r.mean_throughput(),
                r.train.seconds
            );
            println!("--- rendered spec ---");
            print!("{}", m.spec);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_compare(args: &[String]) -> ExitCode {
    let ids = positional_args(args);
    let [baseline_id, candidate_id] = ids.as_slice() else {
        eprintln!("usage: lsbench compare BASELINE CANDIDATE [--store DIR] [--json]");
        return ExitCode::from(2);
    };
    let store = match open_store(args) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let load = |id: &str| {
        store.load(id).map_err(|e| {
            eprintln!("{e}");
            ExitCode::FAILURE
        })
    };
    let (baseline, candidate) = match (load(baseline_id), load(candidate_id)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(code), _) | (_, Err(code)) => return code,
    };
    match compare(&baseline.record, &candidate.record) {
        Ok(report) => {
            let transport_header = render_transport_header(&baseline.manifest, &candidate.manifest);
            if has_flag(args, "--json") {
                eprint!("{transport_header}");
                match to_json(&report) {
                    Ok(json) => println!("{json}"),
                    Err(e) => {
                        eprintln!("{e}");
                        return ExitCode::FAILURE;
                    }
                }
            } else {
                print!("{transport_header}");
                print!("{}", render_comparison_report(&report));
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("comparison failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_regress(args: &[String]) -> ExitCode {
    let Some(baseline_id) = parse_flag(args, "--baseline") else {
        eprintln!("--baseline ID is required");
        return ExitCode::from(2);
    };
    let Some(candidate_id) = parse_flag(args, "--candidate") else {
        eprintln!("--candidate ID is required");
        return ExitCode::from(2);
    };
    let Some(policy_file) = parse_flag(args, "--policy") else {
        eprintln!("--policy FILE is required (see policies/default.policy)");
        return ExitCode::from(2);
    };
    let policy_text = match std::fs::read_to_string(&policy_file) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {policy_file}: {e}");
            return ExitCode::from(2);
        }
    };
    let policy = match parse_regression_policy(&policy_text) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{policy_file}:{e}");
            return ExitCode::from(2);
        }
    };
    let store = match open_store(args) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let load = |id: &str| {
        store.load(id).map_err(|e| {
            eprintln!("{e}");
            ExitCode::FAILURE
        })
    };
    let (baseline, candidate) = match (load(&baseline_id), load(&candidate_id)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(code), _) | (_, Err(code)) => return code,
    };
    let comparison = match compare(&baseline.record, &candidate.record) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("comparison failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let verdict = evaluate_regression(&comparison, &policy);
    if has_flag(args, "--json") {
        match to_json(&verdict) {
            Ok(json) => println!("{json}"),
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        print!("{}", render_regression(&verdict));
    }
    match write_bench_summary(&verdict) {
        Ok(path) => eprintln!("[saved {}]", path.display()),
        Err(e) => {
            eprintln!("summary write failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    if verdict.passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_scenarios() -> ExitCode {
    let registry = ScenarioRegistry::default();
    println!("built-in scenarios (run with `lsbench run --scenario NAME`):");
    for (name, description) in registry.descriptions() {
        println!("  {name:<18} {description}");
    }
    println!("spec files: `lsbench run --scenario path/to/file.spec` (see scenarios/)");
    ExitCode::SUCCESS
}

/// Collects spec files from a path argument: a file is taken as-is, a
/// directory contributes its `*.spec` entries sorted by name.
fn collect_specs(arg: &str, out: &mut Vec<String>) -> Result<(), String> {
    let path = Path::new(arg);
    if path.is_dir() {
        let entries = std::fs::read_dir(path).map_err(|e| format!("cannot read {arg}: {e}"))?;
        let mut found: Vec<String> = entries
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "spec"))
            .map(|p| p.display().to_string())
            .collect();
        if found.is_empty() {
            return Err(format!("no .spec files in {arg}"));
        }
        found.sort();
        out.extend(found);
        Ok(())
    } else if path.is_file() {
        out.push(arg.to_string());
        Ok(())
    } else {
        Err(format!("no such file or directory: {arg}"))
    }
}

fn cmd_validate(args: &[String]) -> ExitCode {
    if args.is_empty() {
        eprintln!("usage: lsbench validate FILE|DIR...");
        return ExitCode::from(2);
    }
    let mut files = Vec::new();
    for arg in args {
        if let Err(e) = collect_specs(arg, &mut files) {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    }
    let mut failures = 0usize;
    for file in &files {
        match ScenarioRegistry::load_file(file) {
            Ok(s) => println!(
                "{file}: OK ({}, {} phases, {} ops)",
                s.name,
                s.workload.phases().len(),
                s.workload.total_ops()
            ),
            Err(e) => {
                println!("{file}:{e}");
                failures += 1;
            }
        }
    }
    if failures > 0 {
        eprintln!("{failures} of {} file(s) invalid", files.len());
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn cmd_export(args: &[String]) -> ExitCode {
    let Some(name) = args.iter().find(|a| !a.starts_with("--")).cloned() else {
        eprintln!("usage: lsbench export NAME [--size N] [--ops N] [--seed N]");
        return ExitCode::from(2);
    };
    match scenario_registry(args).get(&name) {
        Ok(s) => {
            print!("{}", render_scenario(&s));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

/// Reads and imports a trace file, resolving the format from `--format`
/// or the file extension. Errors print positioned, `validate`-style:
/// `file:line N: field: reason`.
fn load_trace(file: &str, args: &[String]) -> Result<ImportedTrace, ExitCode> {
    let format = match parse_flag(args, "--format") {
        Some(name) => match TraceFormat::from_name(&name) {
            Some(f) => f,
            None => {
                eprintln!("unknown trace format '{name}' (expected \"csv\" or \"jsonl\")");
                return Err(ExitCode::from(2));
            }
        },
        None => match TraceFormat::from_path(file) {
            Some(f) => f,
            None => {
                eprintln!("cannot infer trace format of {file} (use --format csv|jsonl)");
                return Err(ExitCode::from(2));
            }
        },
    };
    let text = std::fs::read_to_string(file).map_err(|e| {
        eprintln!("cannot read {file}: {e}");
        ExitCode::from(2)
    })?;
    let mut imported = import_str(&text, format).map_err(|e| {
        eprintln!("{file}:{e}");
        ExitCode::FAILURE
    })?;
    if let Some(speed) = parse_flag(args, "--speed") {
        let speed: f64 = match speed.parse() {
            Ok(v) => v,
            Err(_) => {
                eprintln!("--speed must be a number, got '{speed}'");
                return Err(ExitCode::from(2));
            }
        };
        imported.scale_speed(speed).map_err(|e| {
            eprintln!("{e}");
            ExitCode::from(2)
        })?;
    }
    Ok(imported)
}

/// Writes a trace in canonical form to `path`, format from the path's
/// extension (or `--format`).
fn write_trace(trace: &lsbench::workload::Trace, path: &str, args: &[String]) -> ExitCode {
    let format = parse_flag(args, "--format")
        .and_then(|n| TraceFormat::from_name(&n))
        .or_else(|| TraceFormat::from_path(path))
        .unwrap_or(TraceFormat::Csv);
    let text = match format {
        TraceFormat::Csv => export_csv(trace),
        TraceFormat::Jsonl => export_jsonl(trace),
    };
    match std::fs::write(path, text) {
        Ok(()) => {
            eprintln!("wrote {} ops to {path}", trace.len());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cannot write {path}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn print_trace_stats(stats: &lsbench::core::trace::import::TraceStats, had_timestamps: bool) {
    println!(
        "{} ops (read {}, insert {}, update {}, scan {}, delete {})",
        stats.ops,
        stats.by_kind[0],
        stats.by_kind[1],
        stats.by_kind[2],
        stats.by_kind[3],
        stats.by_kind[4]
    );
    println!(
        "{} distinct keys in [{}, {}]",
        stats.distinct_keys, stats.key_range.0, stats.key_range.1
    );
    if had_timestamps {
        println!(
            "timestamped: {:.6}s span, replays open-loop",
            stats.duration
        );
    } else {
        println!("no timestamps: replays closed-loop");
    }
}

/// `lsbench trace import`: parse, validate, and summarize a trace file,
/// optionally re-exporting it in canonical form.
fn cmd_trace_import(args: &[String]) -> ExitCode {
    let Some(file) = positional_args(args).first().cloned() else {
        eprintln!("usage: lsbench trace import FILE [--format csv|jsonl] [--out FILE]");
        return ExitCode::from(2);
    };
    let imported = match load_trace(&file, args) {
        Ok(t) => t,
        Err(code) => return code,
    };
    print_trace_stats(&imported.stats(), imported.had_timestamps);
    if let Some(out) = parse_flag(args, "--out") {
        return write_trace(&imported.trace, &out, args);
    }
    ExitCode::SUCCESS
}

/// `lsbench trace replay`: replay an imported trace against a SUT —
/// closed-loop by default, open-loop with `--mode open-loop` /
/// `--clients` — optionally archiving the record into the results store.
fn cmd_trace_replay(args: &[String]) -> ExitCode {
    let Some(file) = positional_args(args).first().cloned() else {
        eprintln!(
            "usage: lsbench trace replay FILE --sut NAME [--speed X] [--mode open-loop] \
             [--clients N] [--threads N] [--archive] [--store DIR]"
        );
        return ExitCode::from(2);
    };
    let common = match CommonRunArgs::parse(args) {
        Ok(c) => c,
        Err(code) => return code,
    };
    let sut_name = match common.require_sut() {
        Ok(name) => name,
        Err(code) => return code,
    };
    let imported = match load_trace(&file, args) {
        Ok(t) => t,
        Err(code) => return code,
    };
    // The dataset a trace replays over: the trace's own key population.
    let data = lsbench::workload::Dataset::from_keys(
        imported
            .trace
            .entries()
            .iter()
            .map(|e| e.op.key())
            .collect(),
    );
    let mut sut = match SutRegistry::default().build(&sut_name, &data) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let config = ReplayConfig::default();
    let open_loop =
        matches!(common.mode, Some(ModePreference::OpenLoop)) || common.clients.is_some();
    let record = if open_loop {
        let clients = common.clients.unwrap_or(DEFAULT_CLIENTS);
        eprintln!(
            "replaying {} ops open-loop on {sut_name} ({clients} clients) ...",
            imported.trace.len()
        );
        run_kv_trace_open_loop(sut.as_mut(), &imported.trace, &config, clients)
    } else {
        eprintln!(
            "replaying {} ops closed-loop on {sut_name} ...",
            imported.trace.len()
        );
        run_kv_trace(sut.as_mut(), &imported.trace, &config)
    };
    let record = match record {
        Ok(r) => r,
        Err(e) => {
            eprintln!("replay failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "{}: {:.0} ops/s mean, {} completed, {} failures",
        record.sut_name,
        record.mean_throughput(),
        record.completed(),
        record.failures()
    );
    if has_flag(args, "--archive") {
        let store = match open_store(args) {
            Ok(s) => s,
            Err(code) => return code,
        };
        // Replays have no Scenario, so the manifest carries a stable
        // descriptor instead of rendered spec text.
        let clients = common.clients.unwrap_or(DEFAULT_CLIENTS);
        let stem = Path::new(&file)
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| file.clone());
        let manifest = RunManifest {
            sut: sut_name.clone(),
            scenario: format!("trace-{stem}"),
            spec: format!(
                "# trace replay\nfile = \"{file}\"\nspeed = \"{}\"\nmode = \"{}\"\n",
                parse_flag(args, "--speed").unwrap_or_else(|| "1".to_string()),
                if open_loop {
                    format!("open-loop:{clients}")
                } else {
                    "closed-loop".to_string()
                }
            ),
            concurrency: common.threads.max(1),
            crate_version: env!("CARGO_PKG_VERSION").to_string(),
            transport: Transport::Local,
            clock: ClockMode::Sim,
        };
        let artifact = RunArtifact::new(manifest, record);
        match store.save(&artifact) {
            Ok(path) => println!("archived {} (digest {})", path.display(), artifact.digest),
            Err(e) => {
                eprintln!("archive failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// `lsbench trace fit`: fit a `.spec` scenario to a trace and print (or
/// write) the canonical spec text plus a fit report.
fn cmd_trace_fit(args: &[String]) -> ExitCode {
    let Some(file) = positional_args(args).first().cloned() else {
        eprintln!("usage: lsbench trace fit FILE [--name NAME] [--seed N] [--out FILE]");
        return ExitCode::from(2);
    };
    let imported = match load_trace(&file, args) {
        Ok(t) => t,
        Err(code) => return code,
    };
    let name = parse_flag(args, "--name").unwrap_or_else(|| "fitted-trace".to_string());
    let seed: u64 = parse_num(args, "--seed", 0x5EED);
    let (scenario, report) = match fit_scenario(&imported.trace, &name, seed) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("fit failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "fit: {} phase(s), repetition factor: distinct ratio {:.3}, top-10 template mass {:.3}",
        report.phases.len(),
        report.distinct_ratio,
        report.top_template_mass
    );
    for p in &report.phases {
        eprintln!(
            "  {}: {} ops, {:?}, key_range [{}, {}), distinct {:.3}, top1 {:.4}",
            p.name,
            p.ops,
            p.distribution,
            p.key_range.0,
            p.key_range.1,
            p.distinct_ratio,
            p.top1_mass
        );
    }
    let spec = render_scenario(&scenario);
    match parse_flag(args, "--out") {
        Some(out) => match std::fs::write(&out, &spec) {
            Ok(()) => {
                eprintln!("wrote fitted spec to {out}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("cannot write {out}: {e}");
                ExitCode::FAILURE
            }
        },
        None => {
            print!("{spec}");
            ExitCode::SUCCESS
        }
    }
}

/// `lsbench trace record`: record a scenario's generated operation stream
/// as a trace file — the bridge from generators to shareable traces.
/// `--rate R` stamps constant-rate timestamps (R ops/s) so the recording
/// replays open-loop.
fn cmd_trace_record(args: &[String]) -> ExitCode {
    let common = match CommonRunArgs::parse(args) {
        Ok(c) => c,
        Err(code) => return code,
    };
    let Some(out) = parse_flag(args, "--out") else {
        eprintln!(
            "usage: lsbench trace record --scenario NAME|FILE --out FILE \
             [--rate R] [--format csv|jsonl]"
        );
        return ExitCode::from(2);
    };
    let scenario = match common.resolve_scenario(args) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let trace = match lsbench::workload::Trace::record(&scenario.workload) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot record {}: {e}", scenario.name);
            return ExitCode::FAILURE;
        }
    };
    let trace = match parse_flag(args, "--rate") {
        None => trace,
        Some(rate) => {
            let rate: f64 = match rate.parse() {
                Ok(v) if v > 0.0 => v,
                _ => {
                    eprintln!("--rate must be a positive number, got '{rate}'");
                    return ExitCode::from(2);
                }
            };
            let mut stamped = lsbench::workload::Trace::new(trace.phase_names().to_vec());
            for (i, entry) in trace.entries().iter().enumerate() {
                stamped.push(lsbench::workload::trace::TraceEntry {
                    op: entry.op,
                    phase: entry.phase,
                    arrival: i as f64 / rate,
                });
            }
            stamped
        }
    };
    write_trace(&trace, &out, args)
}

fn cmd_trace(args: &[String]) -> ExitCode {
    match args.first().map(|s| s.as_str()) {
        Some("import") => cmd_trace_import(&args[1..]),
        Some("replay") => cmd_trace_replay(&args[1..]),
        Some("fit") => cmd_trace_fit(&args[1..]),
        Some("record") => cmd_trace_record(&args[1..]),
        _ => {
            eprintln!(
                "usage: lsbench trace import|replay|fit|record ... (see `lsbench` for details)"
            );
            ExitCode::from(2)
        }
    }
}

fn cmd_quality(args: &[String]) -> ExitCode {
    let Some(dist_name) = parse_flag(args, "--dist") else {
        eprintln!("--dist NAME is required (see `lsbench list`)");
        return ExitCode::from(2);
    };
    let theta: f64 = parse_num(args, "--theta", 1.1);
    let dist = match KeyDistribution::from_canonical(&dist_name) {
        Some(KeyDistribution::Zipf { .. }) => KeyDistribution::Zipf { theta },
        Some(d) => d,
        None => {
            eprintln!("unknown distribution '{dist_name}' (see `lsbench list`)");
            return ExitCode::from(2);
        }
    };
    let keys = match KeyGenerator::new(dist, 0, 10_000_000, 7) {
        Ok(mut g) => g.sample_f64(30_000),
        Err(e) => {
            eprintln!("invalid distribution: {e}");
            return ExitCode::FAILURE;
        }
    };
    let r = score_dataset(&keys);
    println!(
        "{dist_name}: skew {:.3}, clustering {:.3}, overall {:.3}",
        r.skew_score, r.clustering_score, r.overall
    );
    println!("(higher = better benchmark material; uniform scores near 0)");
    ExitCode::SUCCESS
}

fn cmd_list() -> ExitCode {
    let registry = SutRegistry::default();
    println!("SUTs:");
    for (name, description) in registry.descriptions() {
        println!("  {name:<14} {description}");
    }
    println!("distributions:");
    for (name, description) in CANONICAL_DISTRIBUTIONS {
        println!("  {name:<14} {description}");
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(|s| s.as_str()) {
        Some("suite") => cmd_suite(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("capacity") => cmd_capacity(&args[1..]),
        Some("sweep") => cmd_sweep(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("shift") => cmd_shift(&args[1..]),
        Some("quality") => cmd_quality(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("archive") => cmd_archive(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("regress") => cmd_regress(&args[1..]),
        Some("scenarios") => cmd_scenarios(),
        Some("validate") => cmd_validate(&args[1..]),
        Some("export") => cmd_export(&args[1..]),
        Some("list") => cmd_list(),
        _ => usage(),
    }
}
