//! The three workloads and one iteration of each.
//!
//! An iteration is the whole user-visible flow of one workload, from
//! dataset generation to the last output, driven through lsbench's public
//! functions in-process. Checks and the traced-only measurement passes run
//! beside the flow and are kept out of its `total_s`.

use crate::checks::{self, Oracle};
use crate::layers::{Ledger, ProbeLatencies, TimedSut};
use lsbench_core::capacity::{
    capacity_search, with_arrival_rate, CapacityConfig, CapacityPoint, SlaTarget,
};
use lsbench_core::metrics::adaptability::AdaptabilityReport;
use lsbench_core::metrics::phi::{distribution_phis, DataPhiMethod};
use lsbench_core::metrics::sla::SlaReport;
use lsbench_core::metrics::specialization::SpecializationReport;
use lsbench_core::record::RunRecord;
use lsbench_core::results::{compare, ResultStore, RunArtifact, RunManifest};
use lsbench_core::runner::{BoxedKvSut, ExecutionMode, RunOptions, RunOutcome, Runner};
use lsbench_core::scenario::Scenario;
use lsbench_core::suite::{s1_specialization, s3_gradual_writes, s5_bursty_load, SuiteConfig};
use lsbench_core::sut_registry::SutRegistry;
use lsbench_core::BenchError;
use lsbench_sut::kv::{AlexSut, BTreeSut};
use lsbench_sut::sut::SystemUnderTest;
use lsbench_workload::dataset::Dataset;
use lsbench_workload::ops::Operation;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// SLA bands per run and the adjustment-speed N, as the standard suite
/// derives them.
const SLA_INTERVALS: f64 = 40.0;
const ADJUSTMENT_N: usize = 2_000;
/// Open-loop probes judge p99 latency against this many virtual seconds.
const CAPACITY_SLA: SlaTarget = SlaTarget {
    quantile: 0.99,
    threshold_seconds: 0.005,
};
/// Keys of each kind read back per SUT after every run.
const SAMPLE_KEYS: usize = 1_000;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// S1-specialization on btree and rmi, then derive, archive, reload
    /// and compare.
    ReadArchive,
    /// S3-gradual-writes on alex and rmi, derive only.
    WriteDrift,
    /// Capacity search over S5-bursty-load on rmi, open loop.
    OpenloopCapacity,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::ReadArchive,
        Workload::WriteDrift,
        Workload::OpenloopCapacity,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReadArchive => "read-archive",
            Workload::WriteDrift => "write-drift",
            Workload::OpenloopCapacity => "openloop-capacity",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The SUTs the workload drives, baseline first.
    pub fn suts(self) -> &'static [&'static str] {
        match self {
            Workload::ReadArchive => &["btree", "rmi"],
            Workload::WriteDrift => &["alex", "rmi"],
            Workload::OpenloopCapacity => &["rmi"],
        }
    }

    /// The scenario the workload runs, generated from `seed` at `scale`.
    pub fn scenario(self, scale: Scale, seed: u64) -> Result<Scenario, String> {
        let cfg = SuiteConfig {
            dataset_size: scale.keys,
            ops_per_phase: scale.ops_per_phase,
            seed,
            ..SuiteConfig::default()
        };
        match self {
            Workload::ReadArchive => s1_specialization(&cfg),
            Workload::WriteDrift => s3_gradual_writes(&cfg),
            Workload::OpenloopCapacity => s5_bursty_load(&cfg),
        }
        .map_err(|e| e.to_string())
    }
}

/// Input sizes of a workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Keys in the dataset.
    pub keys: usize,
    /// Ops per workload phase (S1 adds a hold-out of half that).
    pub ops_per_phase: u64,
    /// Open-loop virtual clients per probe.
    pub clients: usize,
    /// Capacity-search probe budget.
    pub probes: usize,
}

impl Scale {
    /// The benchmark's sizes. The host's L2 is 4 MiB per core and a key
    /// costs 16 bytes of key plus value: read-archive's 1M keys (16 MB) and
    /// write-drift's 400k keys (6.4 MB) spill out of L2, openloop-capacity's
    /// 100k keys (1.6 MB) fit in it. Dataset generation rejects duplicate
    /// draws and grows faster than linearly (3M keys take 8.5 s), which
    /// caps read-archive at 1M keys.
    pub fn full(workload: Workload) -> Scale {
        match workload {
            Workload::ReadArchive => Scale {
                keys: 1_000_000,
                ops_per_phase: 50_000,
                clients: 1,
                probes: 0,
            },
            Workload::WriteDrift => Scale {
                keys: 400_000,
                ops_per_phase: 200_000,
                clients: 1,
                probes: 0,
            },
            Workload::OpenloopCapacity => Scale {
                keys: 100_000,
                ops_per_phase: 100_000,
                clients: 10_000,
                probes: 6,
            },
        }
    }

    /// Sizes small enough for unit tests.
    pub fn tiny() -> Scale {
        Scale {
            keys: 5_000,
            ops_per_phase: 2_000,
            clients: 100,
            probes: 3,
        }
    }
}

/// How to run one iteration.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Input sizes.
    pub scale: Scale,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Time every call into the SUT and run the measurement passes.
    pub traced: bool,
    /// Also time each op alone on a fresh SUT (`sut.read_ns`/`write_ns`).
    pub latency_pass: bool,
    /// Also run the slow checks (the rmi replica).
    pub deep_checks: bool,
    /// Scratch directory for the results store; emptied afterwards.
    pub scratch: PathBuf,
}

/// One SUT's share of an iteration.
#[derive(Debug, Clone, Default)]
pub struct SutRow {
    /// SUT name.
    pub name: String,
    /// Wall seconds inside `Runner::run`.
    pub run_s: f64,
    /// Seconds inside the SUT's `execute`/`execute_many` (traced only).
    pub execute_s: f64,
    /// Seconds inside its `train`/`maintenance`/`on_phase_change`.
    pub maintenance_s: f64,
    /// Ops completed inside `Runner::run`.
    pub ops: u64,
    /// Adaptations the SUT reported at the end of its last run.
    pub adaptations: u64,
    /// Index bytes per dataset key at the end of its last run.
    pub bytes_per_key: f64,
    /// Digest of its main record.
    pub digest: u64,
    /// Per-op latencies from the latency pass.
    pub latencies: ProbeLatencies,
}

/// The capacity search's outcome.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CapacitySummary {
    /// Highest rate that met the SLA (ops per virtual second).
    pub knee_rate: f64,
    /// Probes run.
    pub probes: usize,
    /// Whether some probe violated the SLA.
    pub saturated: bool,
    /// Wall seconds of each probe (SUT build, run and reduction).
    pub probe_s: Vec<f64>,
}

/// Everything one iteration measured and checked.
#[derive(Debug, Clone, Default)]
pub struct Iteration {
    /// Whether the SUT calls were timed.
    pub traced: bool,
    /// Flow wall seconds, checks and measurement passes excluded.
    pub total_s: f64,
    /// Dataset generation plus SUT builds.
    pub setup_s: f64,
    /// Layer spans of the flow.
    pub ledger: Ledger,
    /// Per-SUT rows, in [`Workload::suts`] order.
    pub suts: Vec<SutRow>,
    /// Op-stream generation cost from a separate drain (traced only).
    pub opgen_ns_per_op: f64,
    /// Ops offered to `Runner::run`.
    pub attempted: u64,
    /// Record failures plus failed checks.
    pub failed: u64,
    /// What each failed check found.
    pub problems: Vec<String>,
    /// Bytes archived.
    pub artifact_bytes: u64,
    /// Ops in the archived records.
    pub archived_ops: u64,
    /// Capacity search outcome (openloop-capacity only).
    pub capacity: Option<CapacitySummary>,
}

impl Iteration {
    /// Ops completed inside `Runner::run`, over every SUT and probe.
    pub fn ops(&self) -> u64 {
        self.suts.iter().map(|s| s.ops).sum()
    }

    /// Wall seconds inside `Runner::run`, over every SUT and probe.
    pub fn run_s(&self) -> f64 {
        self.suts.iter().map(|s| s.run_s).sum()
    }

    fn fail(&mut self, count: u64, problem: String) {
        if count > 0 {
            self.failed += count;
            self.problems.push(problem);
        }
    }
}

/// Time spent beside the flow (checks, measurement passes), subtracted
/// from its total.
#[derive(Default)]
struct Aside(f64);

impl Aside {
    fn run<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.0 += t0.elapsed().as_secs_f64();
        out
    }
}

/// A built SUT, keeping the concrete type where it has an index to read
/// back.
enum Sut {
    BTree(BTreeSut),
    Alex(AlexSut),
    Other(BoxedKvSut),
}

impl Sut {
    fn build(name: &str, data: &Dataset) -> Result<Sut, String> {
        let err = |e: lsbench_sut::SutError| e.to_string();
        Ok(match name {
            "btree" => Sut::BTree(BTreeSut::build(data).map_err(err)?),
            "alex" => Sut::Alex(AlexSut::build(data).map_err(err)?),
            _ => Sut::Other(
                SutRegistry::default()
                    .build(name, data)
                    .map_err(|e| e.to_string())?,
            ),
        })
    }

    fn as_dyn(&mut self) -> &mut (dyn SystemUnderTest<Operation> + Send) {
        match self {
            Sut::BTree(s) => s,
            Sut::Alex(s) => s,
            Sut::Other(s) => s.as_mut(),
        }
    }

    /// Reads `key` through the SUT's own index, if it exposes one.
    fn reader(&self) -> Option<Box<dyn Fn(u64) -> Option<u64> + '_>> {
        use lsbench_index::Index;
        match self {
            Sut::BTree(s) => Some(Box::new(|k| s.index().get(k))),
            Sut::Alex(s) => Some(Box::new(|k| s.index().get(k))),
            Sut::Other(_) => None,
        }
    }
}

/// Runs `scenario` on `sut`, timing the call into `run_layer` and, when
/// traced, every call into the SUT.
fn run_timed(
    sut: &mut (dyn SystemUnderTest<Operation> + Send),
    scenario: &Scenario,
    opts: RunOptions,
    traced: bool,
    run_layer: &'static str,
    ledger: &mut Ledger,
    row: &mut SutRow,
) -> Result<RunOutcome, String> {
    let t0 = Instant::now();
    let outcome = if traced {
        let mut timed = TimedSut::new(sut);
        let outcome = Runner::new(&mut timed).config(opts).run(scenario);
        ledger.add("sut.execute", timed.execute.seconds, timed.execute.calls);
        ledger.add(
            "sut.maintenance",
            timed.maintenance.seconds,
            timed.maintenance.calls,
        );
        row.execute_s += timed.execute.seconds;
        row.maintenance_s += timed.maintenance.seconds;
        outcome
    } else {
        Runner::new(sut).config(opts).run(scenario)
    }
    .map_err(|e| e.to_string())?;
    let run_s = t0.elapsed().as_secs_f64();
    ledger.add(run_layer, run_s, 1);
    row.run_s += run_s;
    let holdout_ops = outcome.holdout.as_ref().map_or(0, |(r, _)| r.ops.len());
    row.ops += (outcome.record.ops.len() + holdout_ops) as u64;
    row.adaptations = outcome.record.final_metrics.adaptations;
    Ok(outcome)
}

/// Ops `scenario` offers per run, its hold-out included.
pub fn offered_ops(scenario: &Scenario) -> u64 {
    scenario.workload.total_ops() + scenario.holdout.as_ref().map_or(0, |h| h.total_ops())
}

/// Drains the scenario's op streams; returns ns per op.
fn opgen_ns_per_op(scenario: &Scenario) -> Result<f64, String> {
    let t0 = Instant::now();
    let mut n = 0u64;
    let streams = std::iter::once(&scenario.workload).chain(scenario.holdout.as_ref());
    for workload in streams {
        for labeled in workload.stream().map_err(|e| e.to_string())? {
            std::hint::black_box(labeled);
            n += 1;
        }
    }
    Ok(t0.elapsed().as_nanos() as f64 / n.max(1) as f64)
}

/// Times each op alone on a fresh SUT built over `data`.
fn latency_pass(name: &str, data: &Dataset, scenario: &Scenario) -> Result<ProbeLatencies, String> {
    let mut sut = Sut::build(name, data)?;
    let mut timed = TimedSut::per_op(sut.as_dyn());
    Runner::new(&mut timed)
        .config(RunOptions::with_mode(ExecutionMode::Serial))
        .run(scenario)
        .map_err(|e| e.to_string())?;
    Ok(timed.into_latencies())
}

/// Runs one iteration of `opts.workload`.
pub fn run_iteration(opts: &Options) -> Result<Iteration, String> {
    let scenario = opts.workload.scenario(opts.scale, opts.seed)?;
    match opts.workload {
        Workload::OpenloopCapacity => capacity_flow(opts, &scenario),
        Workload::ReadArchive | Workload::WriteDrift => serial_flow(opts, &scenario),
    }
}

fn serial_flow(opts: &Options, scenario: &Scenario) -> Result<Iteration, String> {
    let archive = opts.workload == Workload::ReadArchive;
    let mut it = Iteration {
        traced: opts.traced,
        ..Iteration::default()
    };
    let mut aside = Aside::default();
    let t0 = Instant::now();
    let mut ledger = Ledger::default();

    let data = ledger
        .time("workload.dataset", || scenario.dataset.build())
        .map_err(|e| e.to_string())?;
    let mut suts = Vec::new();
    for name in opts.workload.suts() {
        suts.push(ledger.time("sut.build", || Sut::build(name, &data))?);
    }
    it.setup_s = ledger.seconds("workload.dataset") + ledger.seconds("sut.build");

    let run_opts = RunOptions {
        holdout: scenario.holdout.is_some(),
        ..RunOptions::with_mode(ExecutionMode::Serial)
    };
    let mut records: Vec<RunRecord> = Vec::new();
    for (name, sut) in opts.workload.suts().iter().zip(&mut suts) {
        let mut row = SutRow {
            name: name.to_string(),
            ..SutRow::default()
        };
        let outcome = run_timed(
            sut.as_dyn(),
            scenario,
            run_opts,
            opts.traced,
            "driver.run",
            &mut ledger,
            &mut row,
        )?;
        let offered = offered_ops(scenario);
        it.attempted += offered;
        aside.run(|| {
            let record = &outcome.record;
            row.digest = checks::record_digest(record);
            row.bytes_per_key = record.final_metrics.size_bytes as f64 / data.len().max(1) as f64;
            let failures =
                record.failures() + outcome.holdout.as_ref().map_or(0, |(h, _)| h.failures());
            it.fail(failures as u64, format!("{name}: {failures} failed ops"));
            if let Err(problem) = checks::completed_all(offered, row.ops) {
                it.fail(offered.abs_diff(row.ops), format!("{name}: {problem}"));
            }
        });
        records.push(outcome.record);
        it.suts.push(row);
    }

    derive(scenario, &records, &mut ledger)?;

    if archive {
        archive_and_compare(opts, scenario, records, &mut ledger, &mut aside, &mut it)?;
    } else {
        drop(records);
    }

    // The read-back checks run once the records are gone and the replica
    // once the SUTs are, so that what the checks allocate stays below the
    // flow's own memory peak and `peak_rss_mb` is the flow's.
    let (oracle, sample) = aside.run(|| {
        let oracle = match archive {
            true => Oracle::new(&data),
            false => Oracle::with_writes(&data, &scenario.workload)?,
        };
        let sample = oracle.sample(SAMPLE_KEYS, opts.seed);
        Ok::<_, String>((oracle, sample))
    })?;
    aside.run(|| {
        for (name, sut) in opts.workload.suts().iter().zip(&suts) {
            if let Some(get) = sut.reader() {
                let bad = checks::key_mismatches(&sample, get, &oracle);
                it.fail(bad, format!("{name}: {bad} sampled keys read back wrong"));
            }
        }
    });
    drop(suts);
    if opts.deep_checks && opts.workload.suts().contains(&"rmi") {
        let bad = aside
            .run(|| checks::rmi_replica_mismatches(&data, &scenario.workload, &sample, &oracle))?;
        it.fail(
            bad,
            format!("rmi replica: {bad} sampled keys read back wrong"),
        );
    }
    drop(oracle);

    if opts.traced {
        it.opgen_ns_per_op = aside.run(|| opgen_ns_per_op(scenario))?;
        if opts.latency_pass {
            for row in &mut it.suts {
                row.latencies = aside.run(|| latency_pass(&row.name, &data, scenario))?;
            }
        }
    }
    it.total_s = t0.elapsed().as_secs_f64() - aside.0;
    it.ledger = ledger;
    Ok(it)
}

/// Computes the Fig. 1a-1c metrics of every record: adaptability, the SLA
/// report against the first (baseline) record's calibrated threshold, and
/// specialization over the scenario's phase distributions.
fn derive(scenario: &Scenario, records: &[RunRecord], ledger: &mut Ledger) -> Result<(), String> {
    let bench = |e: BenchError| e.to_string();
    for record in records {
        ledger
            .time("metrics.adaptability", || {
                AdaptabilityReport::from_record(record)
            })
            .map_err(bench)?;
    }
    let threshold = ledger
        .time("metrics.sla", || scenario.sla.resolve(records.first()))
        .map_err(bench)?;
    for record in records {
        let interval = (record.exec_duration() / SLA_INTERVALS).max(f64::MIN_POSITIVE);
        ledger
            .time("metrics.sla", || {
                SlaReport::from_record(record, threshold, interval, ADJUSTMENT_N)
            })
            .map_err(bench)?;
    }
    let phases = scenario.workload.phases();
    let dists: Vec<_> = phases.iter().map(|p| p.distribution.clone()).collect();
    let phis = ledger
        .time("metrics.specialization", || {
            distribution_phis(
                &dists,
                phases[0].key_range,
                DataPhiMethod::KolmogorovSmirnov,
                scenario.workload.seed(),
            )
        })
        .map_err(bench)?;
    let min_ops = phases.iter().map(|p| p.ops).min().unwrap_or(2);
    let ops_per_window = (min_ops / 8).clamp(2, 200) as usize;
    for record in records {
        ledger
            .time("metrics.specialization", || {
                SpecializationReport::from_record(record, &phis, ops_per_window, &[])
            })
            .map_err(bench)?;
    }
    Ok(())
}

/// Archives every record into a fresh store, reloads them strictly and
/// compares the first (baseline) with the second — `lsbench archive run`
/// twice, then `lsbench compare`.
fn archive_and_compare(
    opts: &Options,
    scenario: &Scenario,
    records: Vec<RunRecord>,
    ledger: &mut Ledger,
    aside: &mut Aside,
    it: &mut Iteration,
) -> Result<(), String> {
    let dir = ScratchDir::new(&opts.scratch)?;
    let store = ResultStore::open(dir.path()).map_err(|e| e.to_string())?;
    let mut saved = Vec::new();
    for (name, record) in opts.workload.suts().iter().zip(records) {
        let artifact = RunArtifact::new(RunManifest::for_run(scenario, name, 1), record);
        let path = ledger
            .time("results.save", || store.save(&artifact))
            .map_err(|e| e.to_string())?;
        if opts.traced {
            // `ResultStore::save` encodes, then writes: doing both steps
            // once more on the side splits its time between them.
            let (encode_s, write_s) =
                aside.run(|| side_save(&artifact, &dir.path().join("side")))?;
            ledger.add("results.encode", encode_s, 1);
            ledger.add("results.write", write_s, 1);
        }
        it.artifact_bytes += std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
        it.archived_ops += artifact.record.ops.len() as u64;
        saved.push((path, artifact));
    }
    let mut loaded = Vec::new();
    for (path, archived) in &saved {
        let id = path.to_str().ok_or("non-UTF-8 store path")?;
        let result = ledger.time("results.load", || store.load(id));
        match aside.run(|| checks::reloaded(result, &archived.record)) {
            Ok(artifact) => loaded.push(artifact),
            Err(problem) => it.fail(1, format!("{}: {problem}", path.display())),
        }
    }
    if let [baseline, candidate, ..] = loaded.as_slice() {
        ledger
            .time("results.compare", || {
                compare(&baseline.record, &candidate.record)
            })
            .map_err(|e| e.to_string())?;
    }
    drop(loaded);
    drop(saved);
    aside.run(|| dir.remove())
}

/// Encodes `artifact` and writes it to `path`, timing each step.
fn side_save(artifact: &RunArtifact, path: &Path) -> Result<(f64, f64), String> {
    let t0 = Instant::now();
    let json = artifact.to_json().map_err(|e| e.to_string())?;
    let encode_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    std::fs::write(path, json).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok((encode_s, t1.elapsed().as_secs_f64()))
}

fn capacity_flow(opts: &Options, scenario: &Scenario) -> Result<Iteration, String> {
    let mut it = Iteration {
        traced: opts.traced,
        ..Iteration::default()
    };
    let mut aside = Aside::default();
    let t0 = Instant::now();
    let mut ledger = Ledger::default();
    let data = ledger
        .time("workload.dataset", || scenario.dataset.build())
        .map_err(|e| e.to_string())?;
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
    let run_opts = RunOptions::with_mode(ExecutionMode::OpenLoop {
        clients: opts.scale.clients,
        workers,
    });
    let config = CapacityConfig {
        sla: CAPACITY_SLA,
        initial_rate: match scenario.arrival.map(|a| a.process) {
            Some(lsbench_workload::arrival::ArrivalProcess::Poisson { rate }) => rate,
            _ => CapacityConfig::default().initial_rate,
        },
        max_probes: opts.scale.probes,
        tolerance: 0.05,
    };
    let offered = offered_ops(scenario);
    let mut row = SutRow {
        name: "rmi".to_string(),
        ..SutRow::default()
    };
    let mut probe_s = Vec::new();
    let mut digest = 0u64;
    let report = capacity_search(&config, |rate| {
        let started = Instant::now();
        let probe = with_arrival_rate(scenario, rate);
        let mut sut = ledger
            .time("sut.build", || Sut::build("rmi", &data))
            .map_err(BenchError::Sut)?;
        let outcome = run_timed(
            sut.as_dyn(),
            &probe,
            run_opts,
            opts.traced,
            "engine.run",
            &mut ledger,
            &mut row,
        )
        .map_err(BenchError::Sut)?;
        it.attempted += offered;
        let engine = outcome
            .engine
            .as_ref()
            .ok_or_else(|| BenchError::Metric("open-loop probe without engine stats".into()))?;
        let point = ledger.time("capacity.reduce", || {
            CapacityPoint::from_run(rate, &CAPACITY_SLA, engine, &outcome.record)
        })?;
        aside.run(|| {
            let record = &outcome.record;
            if !checks::probe_complete(offered, record) {
                let missing = offered.saturating_sub(record.ops.len() as u64);
                it.fail(
                    (missing + record.failures() as u64).max(1),
                    format!(
                        "probe at {rate} ops/s completed {} of {offered} ops",
                        record.ops.len()
                    ),
                );
            }
            digest = digest.rotate_left(5) ^ checks::record_digest(record);
            row.bytes_per_key = record.final_metrics.size_bytes as f64 / data.len().max(1) as f64;
        });
        drop(sut);
        probe_s.push(started.elapsed().as_secs_f64());
        Ok(point)
    })
    .map_err(|e| e.to_string())?;
    it.setup_s = ledger.seconds("workload.dataset") + ledger.seconds("sut.build");
    row.digest = digest;
    if opts.traced {
        it.opgen_ns_per_op = aside.run(|| opgen_ns_per_op(scenario))?;
        if opts.latency_pass {
            row.latencies = aside.run(|| latency_pass("rmi", &data, scenario))?;
        }
    }
    it.suts.push(row);
    it.capacity = Some(CapacitySummary {
        knee_rate: report.knee_rate,
        probes: report.points.len(),
        saturated: report.saturated,
        probe_s,
    });
    it.total_s = t0.elapsed().as_secs_f64() - aside.0;
    it.ledger = ledger;
    Ok(it)
}

/// A scratch directory that is removed again, also on early return.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(parent: &Path) -> Result<Self, String> {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = parent.join(format!("store-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(ScratchDir(dir))
    }

    fn path(&self) -> &Path {
        &self.0
    }

    fn remove(self) -> Result<(), String> {
        std::fs::remove_dir_all(&self.0).map_err(|e| format!("{}: {e}", self.0.display()))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
