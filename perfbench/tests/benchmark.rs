//! The benchmark's own tests: every workload prints every metric named in
//! `BENCHMARK.json` with its unit, on both documented seeds, and every
//! correctness check fires when its input is broken.

use lsbench_core::record::RunRecord;
use lsbench_core::results::{ResultStore, RunArtifact, RunManifest};
use lsbench_core::runner::Runner;
use lsbench_perfbench::checks::{self, Oracle};
use lsbench_perfbench::workloads::{CapacitySummary, Iteration, Scale, SutRow, Workload};
use lsbench_perfbench::{execute, Args};
use lsbench_sut::kv::BTreeSut;
use lsbench_workload::dataset::Dataset;
use serde::Value;
use std::path::PathBuf;

/// The development seed and the held-out seed documented in the README.
const SEEDS: [u64; 2] = [1, 2026];

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
    let spec: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let entries = spec.as_object().expect("object");
    let Value::Array(metrics) = Value::get(entries, list) else {
        panic!("{list} is not a list");
    };
    metrics
        .iter()
        .map(|m| {
            let m = m.as_object().expect("metric object");
            match (Value::get(m, "name"), Value::get(m, "unit")) {
                (Value::Str(n), Value::Str(u)) => (n.clone(), u.clone()),
                other => panic!("bad metric {other:?}"),
            }
        })
        .collect()
}

/// `(name, unit)` of every metric in a result object.
fn printed(result: &Value) -> Vec<(String, String)> {
    let entries = result.as_object().expect("result object");
    let metrics = Value::get(entries, "metrics").as_object().expect("metrics");
    metrics
        .iter()
        .map(
            |(name, m)| match Value::get(m.as_object().expect("metric"), "unit") {
                Value::Str(u) => (name.clone(), u.clone()),
                other => panic!("{name} has unit {other:?}"),
            },
        )
        .collect()
}

#[test]
fn every_workload_prints_every_metric_on_both_seeds() {
    for workload in Workload::ALL {
        for seed in SEEDS {
            for (trace, list) in [(false, "end_to_end"), (true, "per_layer")] {
                let args = Args {
                    workload,
                    seed,
                    seconds: 0.01,
                    trace,
                };
                let outcome = execute(&args, Scale::tiny()).expect("workload runs");
                assert!(
                    outcome.correct,
                    "{} seed {seed}: {:?}",
                    workload.name(),
                    outcome.problems
                );
                assert_eq!(
                    printed(&outcome.result),
                    declared(list),
                    "{} seed {seed} trace {trace}",
                    workload.name()
                );
                let digests = outcome
                    .lines
                    .iter()
                    .filter(|l| l.starts_with("digest "))
                    .count();
                assert_eq!(digests, workload.suts().len());
            }
        }
    }
}

#[test]
fn workload_names_match_the_benchmark_file() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec: Value = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
    let Value::Array(workloads) = Value::get(spec.as_object().unwrap(), "workloads") else {
        panic!("workloads is not a list");
    };
    let names: Vec<&Value> = workloads
        .iter()
        .map(|w| Value::get(w.as_object().unwrap(), "name"))
        .collect();
    let expected: Vec<Value> = Workload::ALL
        .iter()
        .map(|w| Value::Str(w.name().to_string()))
        .collect();
    assert_eq!(names, expected.iter().collect::<Vec<_>>());
}

/// A tiny read-archive run: its dataset and btree record.
fn tiny_run() -> (Dataset, RunRecord) {
    let scenario = Workload::ReadArchive
        .scenario(Scale::tiny(), SEEDS[0])
        .unwrap();
    let data = scenario.dataset.build().unwrap();
    let mut sut = BTreeSut::build(&data).unwrap();
    let record = Runner::new(&mut sut).run(&scenario).unwrap().record;
    (data, record)
}

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join(".perfbench-tmp")
        .join(format!("test-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn reload_check_fires_on_a_flipped_byte() {
    let (_, record) = tiny_run();
    let dir = scratch("reload");
    let store = ResultStore::open(&dir).unwrap();
    let scenario = Workload::ReadArchive
        .scenario(Scale::tiny(), SEEDS[0])
        .unwrap();
    let artifact = RunArtifact::new(RunManifest::for_run(&scenario, "btree", 1), record.clone());
    let path = store.save(&artifact).unwrap();
    assert!(checks::reloaded(ResultStore::load_path(&path), &record).is_ok());

    // One digit of the first op's latency, flipped on disk.
    let mut bytes = std::fs::read(&path).unwrap();
    let at = find(&bytes, b"\"latency\"").expect("latency field") + b"\"latency\": ".len();
    let digit = (at..bytes.len())
        .find(|&i| bytes[i].is_ascii_digit() && bytes[i] != b'0')
        .unwrap();
    bytes[digit] = if bytes[digit] == b'9' {
        b'8'
    } else {
        bytes[digit] + 1
    };
    std::fs::write(&path, &bytes).unwrap();
    assert!(checks::reloaded(ResultStore::load_path(&path), &record).is_err());

    // A byte flipped in the manifest fails the strict load itself.
    let mut bytes = std::fs::read(&path).unwrap();
    let at = find(&bytes, b"\"sut\": \"btree\"").expect("manifest sut") + b"\"sut\": \"".len();
    bytes[at] = b'x';
    std::fs::write(&path, &bytes).unwrap();
    assert!(checks::reloaded(ResultStore::load_path(&path), &record).is_err());
    std::fs::remove_dir_all(&dir).unwrap();
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

#[test]
fn key_check_fires_on_a_wrong_value() {
    let (data, _) = tiny_run();
    let oracle = Oracle::new(&data);
    let sample = oracle.sample(100, 7);
    let sut = BTreeSut::build(&data).unwrap();
    use lsbench_index::Index;
    assert_eq!(
        checks::key_mismatches(&sample, |k| sut.index().get(k), &oracle),
        0
    );
    let wrong = sample[0];
    let broken = |k: u64| {
        let v = sut.index().get(k);
        if k == wrong {
            v.map(|v| v ^ 1)
        } else {
            v
        }
    };
    assert_eq!(checks::key_mismatches(&sample, broken, &oracle), 1);
}

#[test]
fn rmi_replica_check_fires_when_the_oracle_misses_the_writes() {
    let scenario = Workload::WriteDrift
        .scenario(Scale::tiny(), SEEDS[0])
        .unwrap();
    let data = scenario.dataset.build().unwrap();
    let oracle = Oracle::with_writes(&data, &scenario.workload).unwrap();
    let sample = oracle.sample(200, 3);
    let ok = checks::rmi_replica_mismatches(&data, &scenario.workload, &sample, &oracle);
    assert_eq!(ok, Ok(0));
    let stale = Oracle::new(&data);
    let bad = checks::rmi_replica_mismatches(&data, &scenario.workload, &sample, &stale);
    assert!(bad.unwrap() > 0);
}

#[test]
fn probe_check_fires_on_missing_or_failed_ops() {
    let (_, record) = tiny_run();
    let offered = record.ops.len() as u64;
    assert!(checks::probe_complete(offered, &record));
    assert!(!checks::probe_complete(offered + 1, &record));
    let mut failed = record.clone();
    failed.ops[0].ok = false;
    assert!(!checks::probe_complete(offered, &failed));
}

#[test]
fn completed_check_fires_on_a_short_op_count() {
    assert!(checks::completed_all(225_000, 225_000).is_ok());
    assert!(checks::completed_all(225_000, 224_999).is_err());
    assert!(checks::completed_all(225_000, 0).is_err());
}

/// An iteration with the given record digests and capacity outcome.
fn iteration(digests: &[u64], capacity: Option<(f64, usize)>) -> Iteration {
    Iteration {
        suts: digests
            .iter()
            .map(|&digest| SutRow {
                digest,
                ..SutRow::default()
            })
            .collect(),
        capacity: capacity.map(|(knee_rate, probes)| CapacitySummary {
            knee_rate,
            probes,
            ..CapacitySummary::default()
        }),
        ..Iteration::default()
    }
}

#[test]
fn repeat_check_fires_on_a_changed_digest_knee_or_probe_count() {
    let serial = iteration(&[1, 2], None);
    assert!(checks::repeats(&serial, &iteration(&[1, 2], None)).is_ok());
    assert!(checks::repeats(&serial, &iteration(&[1, 3], None)).is_err());
    assert!(checks::repeats(&serial, &iteration(&[1], None)).is_err());

    let capacity = iteration(&[7], Some((4000.0, 6)));
    assert!(checks::repeats(&capacity, &iteration(&[7], Some((4000.0, 6)))).is_ok());
    assert!(checks::repeats(&capacity, &iteration(&[8], Some((4000.0, 6)))).is_err());
    assert!(checks::repeats(&capacity, &iteration(&[7], Some((4001.0, 6)))).is_err());
    assert!(checks::repeats(&capacity, &iteration(&[7], Some((4000.0, 5)))).is_err());
    assert!(checks::repeats(&capacity, &iteration(&[7], None)).is_err());
}

#[test]
fn digest_changes_with_any_op() {
    let (_, record) = tiny_run();
    let mut changed = record.clone();
    changed.ops[record.ops.len() / 2].latency *= 1.0 + f64::EPSILON;
    assert_eq!(
        checks::record_digest(&record),
        checks::record_digest(&record.clone())
    );
    assert_ne!(
        checks::record_digest(&record),
        checks::record_digest(&changed)
    );
}

#[test]
fn bad_arguments_are_refused() {
    let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
    assert!(Args::parse(&args(
        "--workload read-archive --seed 1 --seconds 5 --trace 0"
    ))
    .is_ok());
    for bad in [
        "--workload nope --seed 1 --seconds 5 --trace 0",
        "--workload read-archive --seed x --seconds 5 --trace 0",
        "--workload read-archive --seed 1 --seconds 0 --trace 0",
        "--workload read-archive --seed 1 --seconds 5 --trace 2",
        "--workload read-archive --seed 1 --seconds 5",
        "--workload read-archive --seed 1 --seconds 5 --trace 0 --extra 1",
        "--workload read-archive --seed 1 --seconds 5 --trace 0 --out dir",
    ] {
        assert!(Args::parse(&args(bad)).is_err(), "{bad}");
    }
}
