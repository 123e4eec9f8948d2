//! The unified run facade.
//!
//! Historically each execution mode had its own entry point —
//! [`run_kv_scenario`](crate::driver::run_kv_scenario) for serial runs,
//! [`run_concurrent_kv_scenario`](crate::engine::run_concurrent_kv_scenario)
//! for shared-SUT concurrency,
//! [`run_sharded_kv_scenario`](crate::engine::run_sharded_kv_scenario) for
//! key-range sharding,
//! [`run_open_loop_kv_scenario`](crate::engine::run_open_loop_kv_scenario)
//! for multiplexed open-loop client populations, and
//! [`run_holdout`](crate::holdout::run_holdout) for the out-of-sample pass
//! — and every caller chose a code path by hand. [`Runner`] collapses
//! them: describe *what* to run with [`RunOptions`] (an explicit
//! [`ExecutionMode`], operation cap, hold-out, observability) and the
//! runner picks the path:
//!
//! ```text
//! Runner::new(&mut sut).config(opts).run(&scenario)?          // one SUT
//! Runner::from_factory(|data| build(data)).run(&scenario)?    // per-shard SUTs
//! ```
//!
//! * [`ExecutionMode::Serial`] → the serial driver.
//! * [`ExecutionMode::SharedLock`] → the concurrent engine in shared-mutex
//!   mode (a factory builds one SUT from the full dataset first).
//! * [`ExecutionMode::Sharded`] → the dataset is key-range-sharded and each
//!   lane owns one factory-built shard. With a single borrowed SUT there is
//!   nothing to shard, so this degrades to shared-mutex mode (the historic
//!   `with_concurrency` behavior).
//! * [`ExecutionMode::OpenLoop`] → the event-heap scheduler multiplexes
//!   `clients` simulated open-loop clients onto `workers` threads
//!   ([`crate::engine::sched`]); the scenario must carry an
//!   [`ArrivalSpec`](crate::scenario::ArrivalSpec).
//!
//! Every path reports through the same [`RunOutcome`]: the merged
//! [`RunRecord`], optional engine statistics, optional hold-out
//! comparison, and whatever the observability layer collected.

use crate::driver::{run_kv_scenario_observed, run_kv_scenario_timed, DriverConfig};
use crate::engine::{
    run_concurrent_kv_scenario_observed, run_open_loop_kv_scenario_observed,
    run_sharded_kv_scenario_observed, shard_dataset, EngineConfig, EngineReport,
};
use crate::holdout::{one_shot_scenario, HoldoutReport};
use crate::obs::{MetricsRegistry, ObsConfig, RunObserver, SpanNode, TraceLog};
use crate::record::RunRecord;
use crate::scenario::{ClockMode, Scenario};
use crate::{BenchError, Result};
use lsbench_stats::{IntervalCounts, LatencyHistogram};
use lsbench_sut::sut::SystemUnderTest;
use lsbench_workload::dataset::Dataset;
use lsbench_workload::ops::Operation;
use serde::{Deserialize, Serialize};

/// A boxed key-value system under test, as produced by SUT factories and
/// the [`SutRegistry`](crate::sut_registry::SutRegistry).
pub type BoxedKvSut = Box<dyn SystemUnderTest<Operation> + Send>;

/// How a run executes: which concurrency model drives the scenario.
///
/// This replaces the old implicit `concurrency: usize` selection (where
/// `1` meant serial and anything larger meant "the engine, shared or
/// sharded depending on how the runner was built"). Each variant names
/// its model explicitly, so call sites say what they mean and the
/// open-loop client population is a first-class axis instead of being
/// conflated with worker count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ExecutionMode {
    /// One operation at a time on one virtual clock (the serial driver).
    #[default]
    Serial,
    /// `workers` closed-loop lanes share one SUT behind a mutex
    /// ([`crate::engine::run_concurrent_kv_scenario`]).
    SharedLock {
        /// Logical lanes (and default worker threads).
        workers: usize,
    },
    /// The key space is split into `workers` range shards, each owned by
    /// one lane ([`crate::engine::run_sharded_kv_scenario`]).
    Sharded {
        /// Number of shards/lanes (and default worker threads).
        workers: usize,
    },
    /// `clients` simulated open-loop clients are multiplexed onto
    /// `workers` threads by the event-heap scheduler
    /// ([`crate::engine::run_open_loop_kv_scenario`]). Requires the
    /// scenario to define an arrival process.
    OpenLoop {
        /// Simulated open-loop client population (may be millions).
        clients: usize,
        /// Worker threads the clients are multiplexed onto. Never affects
        /// results, only wall-clock speed.
        workers: usize,
    },
}

impl ExecutionMode {
    /// Rejects degenerate parameters (zero workers or clients).
    pub fn validate(&self) -> Result<()> {
        let ok = match *self {
            ExecutionMode::Serial => true,
            ExecutionMode::SharedLock { workers } | ExecutionMode::Sharded { workers } => {
                workers >= 1
            }
            ExecutionMode::OpenLoop { clients, workers } => clients >= 1 && workers >= 1,
        };
        if ok {
            Ok(())
        } else {
            Err(BenchError::InvalidScenario(
                "ExecutionMode workers and clients must be at least 1".to_string(),
            ))
        }
    }

    /// Short human-readable label (`serial`, `shared`, `sharded`,
    /// `open-loop`) used by CLI output.
    pub fn label(&self) -> &'static str {
        match self {
            ExecutionMode::Serial => "serial",
            ExecutionMode::SharedLock { .. } => "shared",
            ExecutionMode::Sharded { .. } => "sharded",
            ExecutionMode::OpenLoop { .. } => "open-loop",
        }
    }
}

/// How a run executes, independent of the scenario.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// The execution mode (serial, shared-lock, sharded, or open-loop).
    pub mode: ExecutionMode,
    /// Physical worker-thread override for engine runs; `None` = the
    /// mode's `workers`. Never affects results, only wall-clock speed.
    pub threads: Option<usize>,
    /// Cap on executed operations.
    pub max_ops: u64,
    /// Operations per engine channel batch (and per scheduler event
    /// batch in open-loop mode).
    pub batch_size: usize,
    /// Engine completion-counter interval width (virtual seconds).
    pub completion_interval: f64,
    /// Also run the scenario's hold-out workload once after the main run
    /// and report the generalization ratio (§V-A).
    pub holdout: bool,
    /// What to observe (see [`ObsConfig`]); `ObsConfig::default()` collects
    /// metrics only, [`ObsConfig::traced`] adds the event trace and spans.
    pub obs: ObsConfig,
    /// Which clock the run reports on. [`ClockMode::Sim`] (the default)
    /// is the deterministic conformance oracle; [`ClockMode::Wall`]
    /// additionally captures host wall-clock timings into
    /// [`RunOutcome::wall`] without perturbing the virtual record.
    pub clock: ClockMode,
}

impl Default for RunOptions {
    fn default() -> Self {
        let engine = EngineConfig::default();
        RunOptions {
            mode: ExecutionMode::Serial,
            threads: None,
            max_ops: u64::MAX,
            batch_size: engine.batch_size,
            completion_interval: engine.completion_interval,
            holdout: false,
            obs: ObsConfig::default(),
            clock: ClockMode::Sim,
        }
    }
}

impl RunOptions {
    /// Options running in the given [`ExecutionMode`].
    pub fn with_mode(mode: ExecutionMode) -> Self {
        RunOptions {
            mode,
            ..RunOptions::default()
        }
    }

    /// Legacy constructor from a bare lane count: `n <= 1` is serial,
    /// anything larger maps to [`ExecutionMode::Sharded`] (which the
    /// runner degrades to shared-mutex when it only holds one SUT — the
    /// exact historic routing).
    #[deprecated(
        since = "0.1.0",
        note = "name the concurrency model explicitly with `RunOptions::with_mode(ExecutionMode::...)`"
    )]
    pub fn with_concurrency(n: usize) -> Self {
        let mode = if n <= 1 {
            ExecutionMode::Serial
        } else {
            ExecutionMode::Sharded { workers: n }
        };
        RunOptions::with_mode(mode)
    }

    fn engine_config(&self) -> EngineConfig {
        let (default_threads, lanes) = match self.mode {
            ExecutionMode::Serial => (1, 1),
            ExecutionMode::SharedLock { workers } | ExecutionMode::Sharded { workers } => {
                (workers, workers)
            }
            ExecutionMode::OpenLoop { clients, workers } => (workers, clients),
        };
        EngineConfig {
            threads: self.threads.unwrap_or(default_threads).max(1),
            lanes,
            max_ops: self.max_ops,
            batch_size: self.batch_size,
            completion_interval: self.completion_interval,
        }
    }

    fn driver_config(&self) -> DriverConfig {
        DriverConfig {
            max_ops: self.max_ops,
            mode: ExecutionMode::Serial,
            clock: self.clock,
            ..DriverConfig::default()
        }
    }
}

/// Concurrent-engine statistics carried through [`RunOutcome`] when the
/// run went through the engine, and stamped into archived
/// [`RunArtifact`](crate::results::RunArtifact)s (schema v3) so capacity
/// runs can report scheduler occupancy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineStats {
    /// Merged log-bucketed latency histogram (nanoseconds, virtual).
    pub latency: LatencyHistogram,
    /// Completions per fixed-width interval.
    pub completions: IntervalCounts,
    /// Worker threads used.
    pub threads: usize,
    /// Logical lanes used (the client count in open-loop mode).
    pub lanes: usize,
}

impl EngineStats {
    fn from_report(report: &EngineReport) -> Self {
        EngineStats {
            latency: report.latency.clone(),
            completions: report.completions.clone(),
            threads: report.threads,
            lanes: report.lanes,
        }
    }
}

/// Host wall-clock statistics for a run executed with [`ClockMode::Wall`],
/// carried through [`RunOutcome::wall`] and stamped into archived
/// [`RunArtifact`](crate::results::RunArtifact)s (schema v4).
///
/// Wall data lives *beside* the virtual record, never inside it: the
/// work-unit [`RunRecord`] of a wall run is bit-identical to the sim run
/// of the same scenario, which is what keeps the virtual clock the
/// conformance oracle (pinned by `tests/determinism.rs` and
/// `tests/rank_agreement.rs`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WallStats {
    /// Wall seconds from the end of training to the last completion.
    pub elapsed_seconds: f64,
    /// Operations measured.
    pub ops: u64,
    /// `ops / elapsed_seconds` (0 when elapsed rounds to zero).
    pub throughput: f64,
    /// Coordinated-omission-safe wall latency histogram (nanoseconds) of
    /// *batch* latency, one sample per op: every op is charged the whole
    /// duration of the dispatch batch it ran in, so this bounds an op's
    /// latency from above rather than measuring it. Empty for engine-path
    /// runs, which report only the coarse elapsed/throughput pair.
    pub latency: LatencyHistogram,
}

impl WallStats {
    /// Packages a finished capture; computes throughput defensively.
    pub fn new(elapsed_seconds: f64, ops: u64, latency: LatencyHistogram) -> Self {
        let throughput = if elapsed_seconds > 0.0 {
            ops as f64 / elapsed_seconds
        } else {
            0.0
        };
        WallStats {
            elapsed_seconds,
            ops,
            throughput,
            latency,
        }
    }

    /// Coarse capture for engine-path runs: elapsed and throughput only,
    /// no per-op histogram (the engine's own latency histogram is virtual
    /// and lives in [`EngineStats`]).
    pub fn coarse(elapsed_seconds: f64, ops: u64) -> Self {
        WallStats::new(elapsed_seconds, ops, LatencyHistogram::new())
    }
}

/// Everything one [`Runner::run`] produced.
#[derive(Debug)]
pub struct RunOutcome {
    /// The merged run record (same shape for every execution path).
    pub record: RunRecord,
    /// Engine statistics when the run used the concurrent engine.
    pub engine: Option<EngineStats>,
    /// Host wall-clock statistics when the run used [`ClockMode::Wall`].
    pub wall: Option<WallStats>,
    /// Hold-out record and generalization comparison when
    /// [`RunOptions::holdout`] was set.
    pub holdout: Option<(RunRecord, HoldoutReport)>,
    /// Deterministic event trace when [`ObsConfig::trace`] was on.
    pub trace: Option<TraceLog>,
    /// Counters, gauges, and latency histograms from the run.
    pub metrics: MetricsRegistry,
    /// Wall-clock profiling spans when [`ObsConfig::spans`] was on.
    pub spans: Vec<SpanNode>,
}

/// A boxed per-shard SUT constructor, as held by [`Runner::from_factory`].
type SutFactory<'a> = Box<dyn FnMut(&Dataset) -> Result<BoxedKvSut> + 'a>;

/// The system(s) under test a [`Runner`] drives.
enum RunnerSut<'a> {
    /// One caller-built SUT, already loaded with the scenario's dataset.
    Single(&'a mut (dyn SystemUnderTest<Operation> + Send)),
    /// A constructor invoked per shard (or once, for the non-sharded
    /// modes) with the freshly built dataset.
    Factory(SutFactory<'a>),
}

/// The unified run facade. See the [module docs](self) for routing rules.
pub struct Runner<'a> {
    sut: RunnerSut<'a>,
    opts: RunOptions,
}

impl<'a> Runner<'a> {
    /// A runner over one caller-built SUT (already loaded with the
    /// scenario's dataset). The shared-lock and open-loop modes drive it
    /// directly; `Sharded` degrades to shared-lock (one SUT cannot be
    /// range-split).
    pub fn new(sut: &'a mut (dyn SystemUnderTest<Operation> + Send)) -> Self {
        Runner {
            sut: RunnerSut::Single(sut),
            opts: RunOptions::default(),
        }
    }

    /// A runner that builds its SUT(s) from the scenario's dataset: once
    /// per key-range shard in `Sharded` mode, once otherwise.
    pub fn from_factory<F>(factory: F) -> Self
    where
        F: FnMut(&Dataset) -> Result<BoxedKvSut> + 'a,
    {
        Runner {
            sut: RunnerSut::Factory(Box::new(factory)),
            opts: RunOptions::default(),
        }
    }

    /// Sets the run options (builder style).
    pub fn config(mut self, opts: RunOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Runs the scenario, routing to the serial driver, the shared-SUT
    /// engine, the sharded engine, or the open-loop scheduler based on
    /// the configured [`ExecutionMode`].
    pub fn run(&mut self, scenario: &Scenario) -> Result<RunOutcome> {
        self.opts.mode.validate()?;
        let opts = self.opts;
        let mut obs = RunObserver::new(opts.obs);
        // Engine paths have no per-op wall recorder; when clock=wall they
        // get a coarse elapsed/throughput capture measured from here (so
        // the window includes dataset build for factory runs — coarse by
        // name and by nature; the serial driver owns precise capture).
        let coarse_start = (opts.clock == ClockMode::Wall).then(std::time::Instant::now);
        let coarse = |started: Option<std::time::Instant>, record: &RunRecord| {
            started.map(|t0| WallStats::coarse(t0.elapsed().as_secs_f64(), record.ops.len() as u64))
        };
        let (record, engine, holdout, wall) = match (&mut self.sut, opts.mode) {
            (RunnerSut::Single(sut), ExecutionMode::Serial) => {
                let span = obs.spans.enter("run");
                let (record, wall) =
                    run_kv_scenario_timed(*sut, scenario, opts.driver_config(), &mut obs)?;
                obs.spans.exit(span);
                let holdout = run_serial_holdout(&mut obs, *sut, scenario, opts, &record)?;
                (record, None, holdout, wall)
            }
            (
                RunnerSut::Single(sut),
                ExecutionMode::SharedLock { .. } | ExecutionMode::Sharded { .. },
            ) => {
                let span = obs.spans.enter("run");
                let report = run_concurrent_kv_scenario_observed(
                    *sut,
                    scenario,
                    &opts.engine_config(),
                    &mut obs,
                )?;
                obs.spans.exit(span);
                let wall = coarse(coarse_start, &report.record);
                let holdout = run_serial_holdout(&mut obs, *sut, scenario, opts, &report.record)?;
                let stats = EngineStats::from_report(&report);
                (report.record, Some(stats), holdout, wall)
            }
            (RunnerSut::Single(sut), ExecutionMode::OpenLoop { .. }) => {
                let span = obs.spans.enter("run");
                let report = run_open_loop_kv_scenario_observed(
                    *sut,
                    scenario,
                    &opts.engine_config(),
                    &mut obs,
                )?;
                obs.spans.exit(span);
                let wall = coarse(coarse_start, &report.record);
                let holdout = run_serial_holdout(&mut obs, *sut, scenario, opts, &report.record)?;
                let stats = EngineStats::from_report(&report);
                (report.record, Some(stats), holdout, wall)
            }
            (RunnerSut::Factory(factory), ExecutionMode::Serial) => {
                let span = obs.spans.enter("bulk-load");
                let data = build_dataset(&mut obs, scenario)?;
                let mut sut = factory(&data)?;
                obs.spans.exit(span);
                let span = obs.spans.enter("run");
                let (record, wall) =
                    run_kv_scenario_timed(sut.as_mut(), scenario, opts.driver_config(), &mut obs)?;
                obs.spans.exit(span);
                let holdout = run_serial_holdout(&mut obs, sut.as_mut(), scenario, opts, &record)?;
                (record, None, holdout, wall)
            }
            (RunnerSut::Factory(factory), ExecutionMode::SharedLock { .. }) => {
                let span = obs.spans.enter("bulk-load");
                let data = build_dataset(&mut obs, scenario)?;
                let mut sut = factory(&data)?;
                obs.spans.exit(span);
                let span = obs.spans.enter("run");
                let report = run_concurrent_kv_scenario_observed(
                    sut.as_mut(),
                    scenario,
                    &opts.engine_config(),
                    &mut obs,
                )?;
                obs.spans.exit(span);
                let wall = coarse(coarse_start, &report.record);
                let holdout =
                    run_serial_holdout(&mut obs, sut.as_mut(), scenario, opts, &report.record)?;
                let stats = EngineStats::from_report(&report);
                (report.record, Some(stats), holdout, wall)
            }
            (RunnerSut::Factory(factory), ExecutionMode::OpenLoop { .. }) => {
                let span = obs.spans.enter("bulk-load");
                let data = build_dataset(&mut obs, scenario)?;
                let mut sut = factory(&data)?;
                obs.spans.exit(span);
                let span = obs.spans.enter("run");
                let report = run_open_loop_kv_scenario_observed(
                    sut.as_mut(),
                    scenario,
                    &opts.engine_config(),
                    &mut obs,
                )?;
                obs.spans.exit(span);
                let wall = coarse(coarse_start, &report.record);
                let holdout =
                    run_serial_holdout(&mut obs, sut.as_mut(), scenario, opts, &report.record)?;
                let stats = EngineStats::from_report(&report);
                (report.record, Some(stats), holdout, wall)
            }
            (RunnerSut::Factory(factory), ExecutionMode::Sharded { workers }) => {
                let span = obs.spans.enter("bulk-load");
                let data = build_dataset(&mut obs, scenario)?;
                let (router, shards) = shard_dataset(&data, workers)?;
                let mut suts = shards.iter().map(factory).collect::<Result<Vec<_>>>()?;
                obs.spans.exit(span);
                let config = opts.engine_config();
                let span = obs.spans.enter("run");
                let report = run_sharded_kv_scenario_observed(
                    &mut suts, &router, scenario, &config, &mut obs,
                )?;
                obs.spans.exit(span);
                let wall = coarse(coarse_start, &report.record);
                let holdout = if opts.holdout {
                    let span = obs.spans.enter("holdout");
                    let one_shot = one_shot_scenario(scenario)?;
                    let hold = run_sharded_kv_scenario_observed(
                        &mut suts,
                        &router,
                        &one_shot,
                        &config,
                        &mut RunObserver::disabled(),
                    )?;
                    obs.spans.exit(span);
                    let cmp = HoldoutReport::new(&report.record, &hold.record)?;
                    Some((hold.record, cmp))
                } else {
                    None
                };
                let stats = EngineStats::from_report(&report);
                (report.record, Some(stats), holdout, wall)
            }
        };
        let report = obs.finish()?;
        Ok(RunOutcome {
            record,
            engine,
            holdout,
            wall,
            trace: report.trace,
            metrics: report.metrics,
            spans: report.spans,
        })
    }
}

/// Builds the scenario's dataset inside a `dataset` span, so the span tree
/// shows generation apart from the SUT build that follows it.
fn build_dataset(obs: &mut RunObserver, scenario: &Scenario) -> Result<Dataset> {
    let span = obs.spans.enter("dataset");
    let data = scenario.dataset.build()?;
    obs.spans.exit(span);
    Ok(data)
}

/// Shared serial hold-out pass: runs the one-shot scenario on the same SUT
/// (no adaptation opportunity), with observation disabled so the main
/// run's trace stays a trace of the main run.
fn run_serial_holdout(
    obs: &mut RunObserver,
    sut: &mut (dyn SystemUnderTest<Operation> + Send),
    scenario: &Scenario,
    opts: RunOptions,
    main: &RunRecord,
) -> Result<Option<(RunRecord, HoldoutReport)>> {
    if !opts.holdout {
        return Ok(None);
    }
    let span = obs.spans.enter("holdout");
    let one_shot = one_shot_scenario(scenario)?;
    let hold = run_kv_scenario_observed(
        sut,
        &one_shot,
        DriverConfig::default(),
        &mut RunObserver::disabled(),
    )?;
    obs.spans.exit(span);
    let cmp = HoldoutReport::new(main, &hold)?;
    Ok(Some((hold, cmp)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::run_kv_scenario;
    use crate::engine::run_sharded_kv_scenario;
    use lsbench_sut::kv::BTreeSut;
    use lsbench_workload::keygen::KeyDistribution;
    use lsbench_workload::ops::OperationMix;
    use lsbench_workload::phases::{PhasedWorkload, WorkloadPhase};

    fn scenario() -> Scenario {
        Scenario::two_phase_shift(
            "runner-shift",
            KeyDistribution::Uniform,
            KeyDistribution::Normal {
                center: 0.1,
                std_frac: 0.02,
            },
            5_000,
            1_000,
            42,
        )
        .unwrap()
    }

    fn factory(data: &Dataset) -> Result<BoxedKvSut> {
        Ok(Box::new(
            BTreeSut::build(data).map_err(|e| BenchError::Sut(e.to_string()))?,
        ))
    }

    #[test]
    fn serial_runner_matches_direct_driver_call() {
        let s = scenario();
        let data = s.dataset.build().unwrap();
        let mut direct_sut = BTreeSut::build(&data).unwrap();
        let direct = run_kv_scenario(&mut direct_sut, &s, DriverConfig::default()).unwrap();
        let mut runner_sut = BTreeSut::build(&data).unwrap();
        let outcome = Runner::new(&mut runner_sut).run(&s).unwrap();
        assert_eq!(outcome.record.ops, direct.ops);
        assert_eq!(outcome.record.exec_end, direct.exec_end);
        assert!(outcome.engine.is_none());
        assert!(outcome.trace.is_none());
        // Default observation still collects metrics.
        assert_eq!(
            outcome.metrics.counter("ops_completed"),
            direct.completed() as u64
        );
    }

    #[test]
    fn factory_sharded_mode_matches_direct_sharded_call() {
        let s = scenario();
        let data = s.dataset.build().unwrap();
        let (router, shards) = shard_dataset(&data, 4).unwrap();
        let mut suts: Vec<BoxedKvSut> = shards.iter().map(|d| factory(d).unwrap()).collect();
        let direct =
            run_sharded_kv_scenario(&mut suts, &router, &s, &EngineConfig::with_concurrency(4))
                .unwrap();
        let outcome = Runner::from_factory(factory)
            .config(RunOptions::with_mode(ExecutionMode::Sharded { workers: 4 }))
            .run(&s)
            .unwrap();
        assert_eq!(outcome.record.ops, direct.record.ops);
        let stats = outcome.engine.expect("engine stats for concurrent run");
        assert_eq!(stats.lanes, 4);
        assert_eq!(stats.latency, direct.latency);
    }

    #[test]
    fn shared_lock_mode_uses_engine() {
        let s = scenario();
        let data = s.dataset.build().unwrap();
        let mut sut = BTreeSut::build(&data).unwrap();
        let outcome = Runner::new(&mut sut)
            .config(RunOptions::with_mode(ExecutionMode::SharedLock {
                workers: 2,
            }))
            .run(&s)
            .unwrap();
        assert_eq!(outcome.engine.as_ref().unwrap().lanes, 2);
        assert_eq!(outcome.record.completed(), 2_000);
    }

    #[test]
    fn deprecated_concurrency_shim_keeps_historic_routing() {
        // `with_concurrency(n)` on a single borrowed SUT historically ran
        // the shared-mutex engine with `n` lanes; the shim must preserve
        // that (via Sharded-degrades-to-shared).
        let s = scenario();
        let data = s.dataset.build().unwrap();
        let mut sut = BTreeSut::build(&data).unwrap();
        #[allow(deprecated)]
        let opts = RunOptions::with_concurrency(2);
        assert_eq!(opts.mode, ExecutionMode::Sharded { workers: 2 });
        let legacy = Runner::new(&mut sut).config(opts).run(&s).unwrap();
        let mut sut2 = BTreeSut::build(&data).unwrap();
        let explicit = Runner::new(&mut sut2)
            .config(RunOptions::with_mode(ExecutionMode::SharedLock {
                workers: 2,
            }))
            .run(&s)
            .unwrap();
        assert_eq!(legacy.record.ops, explicit.record.ops);
        #[allow(deprecated)]
        let serial = RunOptions::with_concurrency(1);
        assert_eq!(serial.mode, ExecutionMode::Serial);
    }

    #[test]
    fn holdout_option_reports_generalization() {
        let mut s = scenario();
        s.holdout = Some(
            PhasedWorkload::single(
                WorkloadPhase::new(
                    "holdout",
                    KeyDistribution::Uniform,
                    (0, 10_000_000),
                    OperationMix::ycsb_c(),
                    500,
                ),
                99,
            )
            .unwrap(),
        );
        let opts = RunOptions {
            holdout: true,
            ..RunOptions::default()
        };
        let outcome = Runner::from_factory(factory).config(opts).run(&s).unwrap();
        let (hold, cmp) = outcome.holdout.expect("hold-out requested");
        assert_eq!(hold.completed(), 500);
        assert!(cmp.generalization_ratio > 0.0);
        // Hold-out ops don't pollute the main run's metrics.
        assert_eq!(outcome.metrics.counter("ops_completed"), 2_000);
    }

    #[test]
    fn traced_run_produces_trace_and_spans() {
        let s = scenario();
        let opts = RunOptions {
            obs: ObsConfig::traced(),
            ..RunOptions::default()
        };
        let outcome = Runner::from_factory(factory).config(opts).run(&s).unwrap();
        let trace = outcome.trace.expect("trace requested");
        assert_eq!(trace.count_kind("run_end"), 1);
        assert_eq!(trace.phase_boundaries(), outcome.record.phase_change_times);
        let names: Vec<&str> = outcome.spans.iter().map(|n| n.name.as_str()).collect();
        assert_eq!(names, ["bulk-load", "run"]);
    }

    #[test]
    fn degenerate_modes_rejected() {
        let s = scenario();
        for mode in [
            ExecutionMode::SharedLock { workers: 0 },
            ExecutionMode::Sharded { workers: 0 },
            ExecutionMode::OpenLoop {
                clients: 0,
                workers: 1,
            },
            ExecutionMode::OpenLoop {
                clients: 1,
                workers: 0,
            },
        ] {
            assert!(mode.validate().is_err(), "{mode:?} should be invalid");
            let opts = RunOptions::with_mode(mode);
            assert!(Runner::from_factory(factory).config(opts).run(&s).is_err());
        }
    }

    #[test]
    fn open_loop_mode_requires_arrival_spec() {
        let s = scenario(); // closed loop: no arrival section
        let opts = RunOptions::with_mode(ExecutionMode::OpenLoop {
            clients: 4,
            workers: 2,
        });
        assert!(Runner::from_factory(factory).config(opts).run(&s).is_err());
    }
}
