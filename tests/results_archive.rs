//! Integration tests for the results archive and head-to-head comparison
//! subsystem: the save→load→compare bit-identity acceptance criterion,
//! strict store semantics, the byte-exact golden artifact fixture, the
//! `ops` column codec (lossless round trips, hostile columns), crash-safe
//! writes, and the versioned suite envelope.

use lsbench::core::faults::FaultStats;
use lsbench::core::metrics::adaptability::AdaptabilityReport;
use lsbench::core::metrics::cost::CostReport;
use lsbench::core::metrics::sla::SlaReport;
use lsbench::core::metrics::specialization::SpecializationReport;
use lsbench::core::record::{OpRecord, RunRecord};
use lsbench::core::results::{
    compare, ComparisonReport, ResultStore, RunArtifact, RunManifest, StoreError, SuiteArtifact,
    Transport, SCHEMA_VERSION,
};
use lsbench::core::runner::{ExecutionMode, RunOptions, Runner, WallStats};
use lsbench::core::scenario::{ClockMode, Scenario};
use lsbench::core::suite::{s2_abrupt_shift, SuiteConfig, SuiteResult};
use lsbench::core::sut_registry::SutRegistry;
use lsbench::sut::cost::HardwareProfile;
use lsbench::sut::sut::SutMetrics;
use proptest::prelude::*;
use std::path::PathBuf;

fn temp_store(tag: &str) -> (ResultStore, PathBuf) {
    let dir = std::env::temp_dir().join(format!("lsbench-results-it-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    (ResultStore::open(&dir).expect("store opens"), dir)
}

fn small_shift_scenario() -> Scenario {
    s2_abrupt_shift(&SuiteConfig {
        dataset_size: 8_000,
        ops_per_phase: 1_500,
        ..SuiteConfig::default()
    })
    .expect("valid scenario")
}

fn run_and_record(scenario: &Scenario, sut: &str, threads: usize) -> RunRecord {
    let registry = SutRegistry::default();
    let factory = registry.factory(sut).expect("known SUT");
    let outcome = Runner::from_factory(factory)
        .config(RunOptions::with_mode(if threads > 1 {
            ExecutionMode::Sharded { workers: threads }
        } else {
            ExecutionMode::Serial
        }))
        .run(scenario)
        .expect("run succeeds");
    outcome.record
}

/// The acceptance criterion: comparing two *loaded* artifacts reproduces
/// the in-process comparison bit-identically — `save → load → compare`
/// equals `run → compare`, including the Fig. 1b area difference down to
/// the f64 bit pattern, at 1 and 4 workers.
#[test]
fn save_load_compare_is_bit_identical_to_live_compare() {
    let scenario = small_shift_scenario();
    for threads in [1usize, 4] {
        let baseline = run_and_record(&scenario, "btree", threads);
        let candidate = run_and_record(&scenario, "rmi", threads);
        let live = compare(&baseline, &candidate).expect("live compare");

        let (store, dir) = temp_store(&format!("bitident-t{threads}"));
        for (name, record) in [("btree", &baseline), ("rmi", &candidate)] {
            let manifest = RunManifest::for_run(&scenario, name, threads);
            store
                .save(&RunArtifact::new(manifest, record.clone()))
                .expect("save");
        }
        let loaded_b = store.load("btree").expect("load baseline");
        let loaded_c = store.load("rmi").expect("load candidate");
        assert_eq!(
            loaded_b.record, baseline,
            "record survives the store losslessly"
        );
        let archived = compare(&loaded_b.record, &loaded_c.record).expect("archived compare");

        assert_eq!(
            live.area_difference.to_bits(),
            archived.area_difference.to_bits(),
            "Fig. 1b area difference must be bit-identical after save/load (threads={threads})"
        );
        assert_eq!(live, archived, "full comparison report (threads={threads})");
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Worker count is part of the manifest identity: the same scenario+SUT at
/// different concurrency gets different digests and coexists in the store.
#[test]
fn concurrency_is_part_of_the_artifact_identity() {
    let scenario = small_shift_scenario();
    let m1 = RunManifest::for_run(&scenario, "btree", 1);
    let m4 = RunManifest::for_run(&scenario, "btree", 4);
    assert_ne!(m1.digest(), m4.digest());
}

/// A deterministic synthetic artifact used by the golden fixture tests.
/// Everything is hand-pinned (including `crate_version`) so the fixture
/// bytes never depend on the workspace version or any runtime behavior.
fn golden_artifact() -> RunArtifact {
    let manifest = RunManifest {
        sut: "btree".to_string(),
        scenario: "golden".to_string(),
        spec: "name = \"golden\"\n".to_string(),
        concurrency: 1,
        crate_version: "0.1.0-fixture".to_string(),
        transport: Transport::Remote {
            endpoint: "127.0.0.1:7070".to_string(),
        },
        clock: ClockMode::Wall,
    };
    let record = RunRecord {
        sut_name: "btree".to_string(),
        scenario_name: "golden".to_string(),
        phase_names: vec!["head".to_string(), "tail".to_string()],
        ops: vec![
            OpRecord {
                t_end: 0.25,
                latency: 0.25,
                phase: 0,
                ok: true,
                in_transition: false,
            },
            OpRecord {
                t_end: 0.75,
                latency: 0.5,
                phase: 1,
                ok: false,
                in_transition: true,
            },
        ],
        phase_change_times: vec![(0, 0.0), (1, 0.25)],
        train: lsbench::core::record::TrainInfo {
            work: 1234,
            seconds: 0.5,
        },
        exec_start: 0.0,
        exec_end: 0.75,
        final_metrics: SutMetrics {
            size_bytes: 4096,
            training_work: 1234,
            execution_work: 5678,
            model_count: 3,
            adaptations: 2,
            label_collection_work: 99,
        },
        work_units_per_second: 1000000.0,
        faults: FaultStats {
            injected: 4,
            retries: 3,
            timeouts: 2,
            crashes: 1,
        },
    };
    // A wall run carries its host-clock stats beside (never inside) the
    // record, so the fixture pins the wall block's serialized shape too.
    let mut latency = lsbench::stats::LatencyHistogram::new();
    latency.record(250_000);
    latency.record(500_000);
    RunArtifact::new(manifest, record).with_wall(Some(WallStats::new(0.75, 2, latency)))
}

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("run_artifact_v5.json")
}

/// Byte-exact golden pin of the `RunArtifact` v5 JSON schema. If this
/// fails, the serialized shape changed: bump
/// [`lsbench::core::results::SCHEMA_VERSION`], regenerate the fixture with
/// `cargo test regenerate_golden_artifact_fixture -- --ignored`, and
/// review the diff deliberately — stored artifacts from before the change
/// must be *refused*, not misread.
#[test]
fn run_artifact_json_schema_is_pinned_byte_exact() {
    let artifact = golden_artifact();
    let expected = std::fs::read_to_string(fixture_path())
        .expect("tests/fixtures/run_artifact_v5.json exists (see regenerate test)");
    let actual = artifact.to_json().expect("serializes");
    assert_eq!(
        actual, expected,
        "RunArtifact JSON changed shape — bump SCHEMA_VERSION and regenerate the fixture"
    );
    // The committed fixture also parses back to the identical artifact.
    let parsed = RunArtifact::from_json(&expected).expect("fixture parses strictly");
    assert_eq!(parsed, artifact);
    assert_eq!(parsed.schema_version, SCHEMA_VERSION);
}

/// Regenerates the golden fixture. Deliberately `#[ignore]`d: run it only
/// when a schema change is intentional, together with a
/// `SCHEMA_VERSION` bump.
#[test]
#[ignore = "writes the golden fixture; run explicitly after a deliberate schema change"]
fn regenerate_golden_artifact_fixture() {
    let path = fixture_path();
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    std::fs::write(&path, golden_artifact().to_json().unwrap()).unwrap();
}

#[test]
fn store_refuses_unversioned_and_drifted_artifacts() {
    let (store, dir) = temp_store("strict");
    let artifact = golden_artifact();
    let path = store.save(&artifact).expect("save");
    let json = std::fs::read_to_string(&path).unwrap();

    // Strip the version field → refused as unversioned.
    let unversioned = json.replacen("  \"schema_version\": 5,\n", "", 1);
    assert_ne!(unversioned, json);
    std::fs::write(&path, &unversioned).unwrap();
    match store.load(&artifact.digest) {
        Err(StoreError::Schema {
            found: None,
            expected,
        }) => assert_eq!(expected, SCHEMA_VERSION),
        other => panic!("expected unversioned refusal, got {other:?}"),
    }

    // Version drift: v3-era (pre-clock-mode) and v4-era (ops as JSON
    // objects) artifacts must be refused with the found version reported,
    // never best-effort parsed.
    for old in [3, 4] {
        let drifted = json.replacen(
            "\"schema_version\": 5",
            &format!("\"schema_version\": {old}"),
            1,
        );
        std::fs::write(&path, &drifted).unwrap();
        assert_eq!(
            store.load(&artifact.digest),
            Err(StoreError::Schema {
                found: Some(old),
                expected: 5,
            })
        );
    }
    // A genuine v4 body, ops as an array of objects, is refused by its
    // version rather than by the `ops` field it no longer decodes as.
    let start = json.find("\"ops\": {").expect("ops block");
    let end = start + json[start..].find('}').expect("block end") + 1;
    let v4 = format!(
        "{}\"ops\": [{{\"t_end\": 0.25, \"latency\": 0.25, \"phase\": 0, \"ok\": true, \
         \"in_transition\": false}}]{}",
        &json[..start],
        &json[end..]
    )
    .replacen("\"schema_version\": 5", "\"schema_version\": 4", 1);
    std::fs::write(&path, &v4).unwrap();
    assert_eq!(
        store.load(&artifact.digest),
        Err(StoreError::Schema {
            found: Some(4),
            expected: 5,
        })
    );

    // Tampered manifest → digest mismatch.
    let tampered = json.replacen("\"sut\": \"btree\"", "\"sut\": \"edited\"", 1);
    assert_ne!(tampered, json);
    std::fs::write(&path, &tampered).unwrap();
    assert!(matches!(
        store.load(&artifact.digest),
        Err(StoreError::ManifestMismatch { .. })
    ));

    // And the listing is strict too: one bad artifact fails the list.
    assert!(store.list().is_err());
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn find_resolves_digest_prefixes_and_reports_ambiguity() {
    let scenario = small_shift_scenario();
    let record = run_and_record(&scenario, "btree", 1);
    let (store, dir) = temp_store("find");
    let a = RunArtifact::new(RunManifest::for_run(&scenario, "btree", 1), record.clone());
    let b = RunArtifact::new(RunManifest::for_run(&scenario, "btree", 4), record);
    store.save(&a).expect("save a");
    store.save(&b).expect("save b");

    assert_eq!(store.find(&a.digest[..8]).expect("prefix").digest, a.digest);
    assert!(matches!(
        store.find("btree"),
        Err(StoreError::Ambiguous { .. })
    ));
    assert!(matches!(
        store.find("no-such-run"),
        Err(StoreError::NotFound(_))
    ));
    let _ = std::fs::remove_dir_all(dir);
}

/// The suite JSON envelope: `schema_version` wrapped around the typed
/// results, parsing back losslessly — and refusing unversioned text.
#[test]
fn suite_artifact_envelope_parses_back_into_typed_reports() {
    let results = vec![SuiteResult {
        sut_name: "btree".to_string(),
        summaries: vec![],
    }];
    let envelope = SuiteArtifact::new(results.clone());
    let json = lsbench::core::report::to_json(&envelope).expect("serializes");
    let back = SuiteArtifact::from_json(&json).expect("parses back");
    assert_eq!(back.schema_version, SCHEMA_VERSION);
    assert_eq!(back.results, results);
    assert!(matches!(
        SuiteArtifact::from_json("{\"results\": []}"),
        Err(StoreError::Schema { found: None, .. })
    ));
}

/// The serialized comparison report round-trips through its own JSON —
/// the `--json` output of `lsbench compare` is lossless.
#[test]
fn comparison_report_json_round_trips() {
    let scenario = small_shift_scenario();
    let a = run_and_record(&scenario, "btree", 1);
    let b = run_and_record(&scenario, "rmi", 1);
    let report = compare(&a, &b).expect("compare");
    let json = lsbench::core::report::to_json(&report).expect("serializes");
    let back: ComparisonReport = serde_json::from_str(&json).expect("parses");
    assert_eq!(back, report);
    assert_eq!(
        back.area_difference.to_bits(),
        report.area_difference.to_bits()
    );
}

/// Names the store the child half of the killed-writer test writes into.
const KILLED_WRITER_STORE: &str = "LSBENCH_TEST_KILLED_WRITER_STORE";

/// Child half of [`a_writer_killed_mid_write_leaves_no_partial_artifact`]:
/// re-saves the golden manifest with ~10 MB of ops into the store named
/// by [`KILLED_WRITER_STORE`]. Without that variable it does nothing.
#[test]
#[ignore = "child process of a_writer_killed_mid_write_leaves_no_partial_artifact"]
fn writer_killed_mid_write() {
    let Some(dir) = std::env::var_os(KILLED_WRITER_STORE) else {
        return;
    };
    let mut artifact = golden_artifact();
    artifact.record.ops = vec![artifact.record.ops[0]; 400_000];
    let store = ResultStore::open(PathBuf::from(dir)).expect("store opens");
    store.save(&artifact).expect("save");
}

/// A writer killed mid-write never leaves a truncated file under an
/// artifact's final name. The child runs under a file-size limit of 1–2
/// MB (`ulimit -f` counts 512- or 1024-byte blocks depending on the
/// shell), so the kernel stops it with SIGXFSZ (core dumps off) partway
/// through its ~10 MB write; the previously saved artifact must survive
/// intact, and the listing must ignore whatever temporary file the child
/// left.
#[cfg(unix)]
#[test]
fn a_writer_killed_mid_write_leaves_no_partial_artifact() {
    let (store, dir) = temp_store("killed-writer");
    let original = golden_artifact();
    store.save(&original).expect("save");
    let status = std::process::Command::new("sh")
        .arg("-c")
        .arg("ulimit -c 0; ulimit -f 2048 && exec \"$0\" writer_killed_mid_write --exact --ignored --quiet")
        .arg(std::env::current_exe().expect("test binary path"))
        .env(KILLED_WRITER_STORE, &dir)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .expect("child runs");
    assert!(!status.success(), "the oversized write must be cut off");
    assert_eq!(
        store.load(&original.digest).expect("old artifact intact"),
        original
    );
    let entries = store.list().expect("leftover temporary files are ignored");
    assert_eq!(entries.len(), 1);
    assert_eq!(entries[0].completed, original.record.ops.len());
    let _ = std::fs::remove_dir_all(dir);
}

/// Fig. 1a–1d metrics derived from a reloaded record are bit-identical to
/// those derived from the in-memory record. `Debug` prints every `f64` in
/// its shortest round-trip form, so equal text means equal bits.
#[test]
fn metrics_from_a_reloaded_record_are_bit_identical() {
    let scenario = small_shift_scenario();
    let (store, dir) = temp_store("metrics");
    let baseline = run_and_record(&scenario, "btree", 1);
    let threshold = scenario.sla.resolve(Some(&baseline)).expect("threshold");
    for (sut, record) in [
        ("btree", baseline.clone()),
        ("rmi", run_and_record(&scenario, "rmi", 1)),
    ] {
        let manifest = RunManifest::for_run(&scenario, sut, 1);
        store
            .save(&RunArtifact::new(manifest, record.clone()))
            .expect("save");
        let reloaded = store.load(sut).expect("load").record;
        let phis: Vec<f64> = (0..record.phase_names.len())
            .map(|i| i as f64 / 3.0)
            .collect();
        let interval = record.exec_duration() / 16.0;
        let profiles = [HardwareProfile::cpu(), HardwareProfile::gpu()];
        let derive = |r: &RunRecord| {
            format!(
                "{:?}\n{:?}\n{:?}\n{:?}",
                AdaptabilityReport::from_record(r).expect("Fig. 1b"),
                SlaReport::from_record(r, threshold, interval, 100).expect("Fig. 1c"),
                SpecializationReport::from_record(r, &phis, 50, &[]).expect("Fig. 1a"),
                CostReport::from_record(r, &profiles).expect("Fig. 1d"),
            )
        };
        assert_eq!(derive(&reloaded), derive(&record), "{sut}");
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// Any `f64` bit pattern, with the edge classes drawn often: NaNs with
/// payloads, ±∞, −0.0, and subnormals.
fn arb_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        any::<u64>().prop_map(f64::from_bits),
        (1u64..1 << 52).prop_map(f64::from_bits),
        Just(f64::NAN),
        Just(f64::from_bits(0xfff0_0000_dead_beef)),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(-0.0),
    ]
}

fn arb_op() -> impl Strategy<Value = OpRecord> {
    (
        arb_f64(),
        arb_f64(),
        prop_oneof![any::<u16>(), Just(u16::MAX)],
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|(t_end, latency, phase, ok, in_transition)| OpRecord {
            t_end,
            latency,
            phase,
            ok,
            in_transition,
        })
}

/// Replaces the base64 text of `column` in an artifact's JSON.
fn with_column(json: &str, column: &str, f: impl Fn(&str) -> String) -> String {
    let key = format!("\"{column}\": \"");
    let start = json.find(&key).expect("column present") + key.len();
    let end = start + json[start..].find('"').expect("closing quote");
    format!("{}{}{}", &json[..start], f(&json[start..end]), &json[end..])
}

/// Standard padded base64, written out independently of the codec.
fn base64(bytes: &[u8]) -> String {
    const ALPHABET: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
    let mut out = String::new();
    for chunk in bytes.chunks(3) {
        let n = chunk
            .iter()
            .enumerate()
            .fold(0u32, |n, (i, &b)| n | u32::from(b) << (16 - 8 * i));
        for k in 0..4 {
            out.push(if k <= chunk.len() {
                ALPHABET[(n >> (18 - 6 * k)) as usize & 63] as char
            } else {
                '='
            });
        }
    }
    out
}

/// Five ops: the f64 columns (40 B) end in `==`, the flags (5 B) in `=`.
fn five_op_json() -> String {
    let mut artifact = golden_artifact();
    let op = artifact.record.ops[1];
    artifact.record.ops = vec![op; 5];
    artifact.to_json().expect("serializes")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every op survives `to_json`/`from_json` bit for bit, including the
    /// values a JSON number cannot carry (NaN, ±∞) and −0.0.
    #[test]
    fn ops_columns_round_trip_bit_exactly(ops in prop::collection::vec(arb_op(), 0..200)) {
        let mut artifact = golden_artifact();
        artifact.record.ops = ops.clone();
        let json = artifact.to_json().expect("serializes");
        let back = RunArtifact::from_json(&json).expect("parses strictly").record.ops;
        prop_assert_eq!(back.len(), ops.len());
        for (a, b) in back.iter().zip(&ops) {
            prop_assert_eq!(a.t_end.to_bits(), b.t_end.to_bits());
            prop_assert_eq!(a.latency.to_bits(), b.latency.to_bits());
            prop_assert_eq!((a.phase, a.ok, a.in_transition), (b.phase, b.ok, b.in_transition));
        }
    }

    /// Hostile columns are refused as parse errors, never panics, and a
    /// huge `count` never reaches an allocation.
    #[test]
    fn hostile_columns_are_refused_without_panicking(
        column in prop_oneof![Just("t_end"), Just("latency"), Just("phase"), Just("flags")],
        kind in 0u8..7,
        pos in any::<usize>(),
        byte in any::<u8>(),
    ) {
        let json = five_op_json();
        let hostile = match kind {
            // A byte outside the alphabet, or `=` before the padding.
            0 => with_column(&json, column, |s| {
                let at = pos % (s.len() - 2);
                let bad = ['!', '-', '_', '.', ' ', '='][usize::from(byte) % 6];
                format!("{}{bad}{}", &s[..at], &s[at + 1..])
            }),
            // Non-canonical padding: bits set under the `=` (`/` sets all
            // six), or a data character in place of the `=`.
            1 => with_column(&json, column, |s| {
                let body = s.trim_end_matches('=').len();
                if byte.is_multiple_of(2) {
                    format!("{}/{}", &s[..body - 1], &s[body..])
                } else {
                    format!("{}A{}", &s[..body], &s[body + 1..])
                }
            }),
            // Truncation, and a length that is not `count × width`.
            2 => with_column(&json, column, |s| s[..pos % s.len()].to_string()),
            3 => with_column(&json, column, |s| format!("{s}AAAA")),
            // Flag bits above bit 1.
            4 => with_column(&json, "flags", |_| {
                let mut flags = [1u8; 5];
                flags[pos % 5] = byte | 4;
                base64(&flags)
            }),
            // A `count` that disagrees with the columns: huge ones whose
            // byte or base64 lengths overflow, and arbitrary ones.
            5 => {
                let huge = [u64::MAX, u64::MAX / 8, u64::MAX / 3, 1 << 62][usize::from(byte) % 4];
                json.replacen("\"count\": 5", &format!("\"count\": {huge}"), 1)
            }
            _ => {
                let count = 6 + pos as u64 % (u64::MAX - 6);
                json.replacen("\"count\": 5", &format!("\"count\": {count}"), 1)
            }
        };
        prop_assert_ne!(&hostile, &json);
        let result = RunArtifact::from_json(&hostile);
        let refused = result.map(|a| a.record.ops.len());
        prop_assert!(matches!(refused, Err(StoreError::Parse(_))), "kind {kind}: {refused:?}");
    }
}
