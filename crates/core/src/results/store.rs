//! The content-addressed, schema-versioned results store.
//!
//! A saved run is a [`RunArtifact`]: a schema version, a reproduction
//! [`RunManifest`], the manifest's stable digest, and the complete
//! [`RunRecord`]. Artifacts are JSON files under a store directory
//! (default `<workspace>/.lsbench/results/`) whose names embed the
//! manifest digest, so the same run configuration always lands in the
//! same file and two stores can be merged by copying files.
//!
//! Loading is strict by design: an artifact without a `schema_version`, or
//! with the wrong one, is refused with [`StoreError::Schema`]; an artifact
//! whose stored digest does not match its manifest is refused with
//! [`StoreError::ManifestMismatch`]. There is no best-effort parsing — a
//! benchmark result that cannot be trusted end-to-end is worse than no
//! result.

use super::SCHEMA_VERSION;
use crate::capacity::CapacityReport;
use crate::record::RunRecord;
use crate::report::{workspace_root, write_artifact_to};
use crate::runner::{EngineStats, WallStats};
use crate::scenario::{ClockMode, Scenario};
use crate::spec::render_scenario;
use crate::suite::SuiteResult;
use crate::sweep::curves::SweepCurve;
use crate::BenchError;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// Errors from the results store. Schema and digest drift get their own
/// variants so callers (and CI) can tell "this artifact is from another
/// era" apart from plain I/O trouble.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreError {
    /// Filesystem operation failed.
    Io(String),
    /// The file is not valid artifact JSON.
    Parse(String),
    /// The artifact is unversioned or carries a different schema version.
    Schema {
        /// Version found in the file (`None` = no `schema_version` field).
        found: Option<u32>,
        /// Version this build reads and writes.
        expected: u32,
    },
    /// The stored digest does not match the digest recomputed from the
    /// stored manifest: the artifact was edited or corrupted after save.
    ManifestMismatch {
        /// Digest recorded in the artifact.
        stored: String,
        /// Digest recomputed from the manifest as loaded.
        computed: String,
    },
    /// No stored artifact matches the query.
    NotFound(String),
    /// More than one stored artifact matches the query.
    Ambiguous {
        /// The query that matched more than once.
        query: String,
        /// File names of all matches.
        matches: Vec<String>,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(m) => write!(f, "store I/O error: {m}"),
            StoreError::Parse(m) => write!(f, "artifact parse error: {m}"),
            StoreError::Schema { found, expected } => match found {
                Some(v) => write!(
                    f,
                    "artifact schema version {v} (this build reads {expected}); refusing to parse"
                ),
                None => write!(
                    f,
                    "artifact has no schema_version field (this build reads {expected}); \
                     refusing unversioned artifacts"
                ),
            },
            StoreError::ManifestMismatch { stored, computed } => write!(
                f,
                "manifest digest mismatch: artifact says {stored} but its manifest hashes to \
                 {computed}; the artifact was modified after it was saved"
            ),
            StoreError::NotFound(q) => write!(f, "no stored artifact matches '{q}'"),
            StoreError::Ambiguous { query, matches } => write!(
                f,
                "'{query}' matches {} artifacts: {}",
                matches.len(),
                matches.join(", ")
            ),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<StoreError> for BenchError {
    fn from(e: StoreError) -> Self {
        BenchError::Store(e.to_string())
    }
}

/// Where the run's SUT executed: in this process (the determinism
/// oracle) or behind a `lsbench serve` endpoint. Recorded in the
/// manifest so `lsbench compare` can never silently pair a remote run
/// against a local baseline — the transport surfaces in the report
/// header and in listings.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum Transport {
    /// In-process SUT on the virtual clock.
    #[default]
    Local,
    /// Out-of-process SUT over the wire protocol.
    Remote {
        /// The `host:port` the run connected to.
        endpoint: String,
    },
}

impl std::fmt::Display for Transport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Transport::Local => write!(f, "local"),
            Transport::Remote { endpoint } => write!(f, "remote({endpoint})"),
        }
    }
}

/// Everything needed to reproduce the run an artifact records: the SUT and
/// scenario names, the *rendered canonical spec text* of the scenario
/// (dataset seed, phases, transitions, arrival process, SLA policy, and
/// any attached fault plan all included — `parse ∘ render = id`), the
/// worker count, and the crate version that produced the record.
///
/// The manifest is what gets content-addressed: [`RunManifest::digest`] is
/// a stable hash over its canonical JSON encoding, and the artifact file
/// name embeds it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunManifest {
    /// SUT name as resolved by the registry.
    pub sut: String,
    /// Scenario name.
    pub scenario: String,
    /// Canonical spec text of the scenario ([`render_scenario`]), seeds
    /// and fault plan included.
    pub spec: String,
    /// Worker count the run used (1 = serial driver).
    pub concurrency: usize,
    /// `lsbench-core` version that wrote the artifact.
    pub crate_version: String,
    /// Where the SUT executed (local process vs. remote endpoint).
    pub transport: Transport,
    /// Which clock the run reported on (sim vs. wall). Part of the
    /// content address: a wall-clock run can never collide with (or be
    /// silently compared as) its sim twin. New in schema v4.
    pub clock: ClockMode,
}

impl RunManifest {
    /// Builds the manifest for a run of `scenario` (faults attached and
    /// all) by `sut` at `concurrency` workers, stamped with this crate's
    /// version. Transport defaults to [`Transport::Local`]; remote runs
    /// chain [`RunManifest::with_transport`]. Clock defaults to
    /// [`ClockMode::Sim`]; wall runs chain [`RunManifest::with_clock`].
    pub fn for_run(scenario: &Scenario, sut: &str, concurrency: usize) -> Self {
        RunManifest {
            sut: sut.to_string(),
            scenario: scenario.name.clone(),
            spec: render_scenario(scenario),
            concurrency,
            crate_version: env!("CARGO_PKG_VERSION").to_string(),
            transport: Transport::Local,
            clock: ClockMode::Sim,
        }
    }

    /// Stamps the transport the run used.
    pub fn with_transport(mut self, transport: Transport) -> Self {
        self.transport = transport;
        self
    }

    /// Stamps the clock mode the run used.
    pub fn with_clock(mut self, clock: ClockMode) -> Self {
        self.clock = clock;
        self
    }

    /// Stable content digest: FNV-1a (64-bit) over the manifest's compact
    /// canonical JSON, in fixed-width hex. Field order is the struct
    /// declaration order and the JSON writer is deterministic, so equal
    /// manifests always hash equal — across runs, platforms, and worker
    /// counts.
    pub fn digest(&self) -> String {
        let canonical = serde_json::to_string(self).expect("manifest serialization is total");
        format!("{:016x}", fnv1a64(canonical.as_bytes()))
    }
}

/// FNV-1a, 64-bit: tiny, dependency-free, and stable — exactly what a
/// content-addressed file name needs (collision resistance against
/// *accidents*, not adversaries).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A saved run: schema version, manifest digest, manifest, and the
/// complete run record. This is the unit the store saves and loads.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunArtifact {
    /// Schema version ([`SCHEMA_VERSION`]) — checked before anything else
    /// on load.
    pub schema_version: u32,
    /// [`RunManifest::digest`] at save time — revalidated on load.
    pub digest: String,
    /// The reproduction manifest.
    pub manifest: RunManifest,
    /// The complete run record (lossless: `final_metrics` included).
    pub record: RunRecord,
    /// Engine statistics (merged latency histogram, completion intervals,
    /// thread/lane counts) when the run went through the concurrent
    /// engine; `None` for serial-driver runs. New in schema v3.
    pub engine: Option<EngineStats>,
    /// Host wall-clock statistics when the run used `clock = wall`;
    /// `None` for sim runs. Lives beside the record, never inside it, so
    /// a wall artifact's `record` is bit-identical to its sim twin's.
    /// New in schema v4.
    pub wall: Option<WallStats>,
}

impl RunArtifact {
    /// Packages a manifest and record into a versioned, digested artifact.
    /// Engine stats start absent; chain [`RunArtifact::with_engine`] for
    /// engine-path runs and [`RunArtifact::with_wall`] for wall-clock runs.
    pub fn new(manifest: RunManifest, record: RunRecord) -> Self {
        RunArtifact {
            schema_version: SCHEMA_VERSION,
            digest: manifest.digest(),
            manifest,
            record,
            engine: None,
            wall: None,
        }
    }

    /// Stamps the engine statistics of the run that produced the record.
    /// The digest stays manifest-only, so stamping stats never changes
    /// which file the artifact stores under.
    pub fn with_engine(mut self, engine: Option<EngineStats>) -> Self {
        self.engine = engine;
        self
    }

    /// Stamps the wall-clock statistics of the run that produced the
    /// record. Digest unaffected, same as [`RunArtifact::with_engine`].
    pub fn with_wall(mut self, wall: Option<WallStats>) -> Self {
        self.wall = wall;
        self
    }

    /// The file name this artifact stores under:
    /// `<scenario>-<sut>-t<workers>-<digest>.json` (slugged), so listings
    /// read well while the digest keeps the name content-addressed.
    pub fn file_name(&self) -> String {
        format!(
            "{}-{}-t{}-{}.json",
            slug(&self.manifest.scenario),
            slug(&self.manifest.sut),
            self.manifest.concurrency,
            self.digest
        )
    }

    /// Pretty JSON encoding (trailing newline included).
    pub fn to_json(&self) -> Result<String, StoreError> {
        serde_json::to_string_pretty(self)
            .map(|mut s| {
                s.push('\n');
                s
            })
            .map_err(|e| StoreError::Parse(e.to_string()))
    }

    /// Strict decode: checks `schema_version` *before* interpreting the
    /// rest, then revalidates the stored digest against the manifest.
    pub fn from_json(text: &str) -> Result<Self, StoreError> {
        let artifact: RunArtifact = decode_versioned(text, SCHEMA_VERSION)?;
        let computed = artifact.manifest.digest();
        if computed != artifact.digest {
            return Err(StoreError::ManifestMismatch {
                stored: artifact.digest,
                computed,
            });
        }
        Ok(artifact)
    }
}

/// Everything needed to reproduce a capacity search: the SUT and scenario
/// names, the rendered canonical spec text of the *base* scenario (before
/// per-probe arrival-rate substitution), the SLA target string as given on
/// the command line, the open-loop client/worker counts, the crate
/// version, and the transport. Content-addressed exactly like
/// [`RunManifest`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CapacityManifest {
    /// SUT name as resolved by the registry.
    pub sut: String,
    /// Scenario name.
    pub scenario: String,
    /// Canonical spec text of the base scenario ([`render_scenario`]).
    pub spec: String,
    /// The SLA target as given (`pNN:MS`, e.g. `p99:5`).
    pub sla: String,
    /// Simulated open-loop clients per probe.
    pub clients: usize,
    /// Worker threads per probe.
    pub workers: usize,
    /// `lsbench-core` version that wrote the artifact.
    pub crate_version: String,
    /// Where the SUT executed (local process vs. remote endpoint).
    pub transport: Transport,
}

impl CapacityManifest {
    /// Builds the manifest for a capacity search of `scenario` by `sut`
    /// under `sla`, stamped with this crate's version. Transport defaults
    /// to [`Transport::Local`]; chain [`CapacityManifest::with_transport`]
    /// for remote searches.
    pub fn for_search(
        scenario: &Scenario,
        sut: &str,
        sla: &str,
        clients: usize,
        workers: usize,
    ) -> Self {
        CapacityManifest {
            sut: sut.to_string(),
            scenario: scenario.name.clone(),
            spec: render_scenario(scenario),
            sla: sla.to_string(),
            clients,
            workers,
            crate_version: env!("CARGO_PKG_VERSION").to_string(),
            transport: Transport::Local,
        }
    }

    /// Stamps the transport the search used.
    pub fn with_transport(mut self, transport: Transport) -> Self {
        self.transport = transport;
        self
    }

    /// Stable content digest, same construction as [`RunManifest::digest`].
    pub fn digest(&self) -> String {
        let canonical = serde_json::to_string(self).expect("manifest serialization is total");
        format!("{:016x}", fnv1a64(canonical.as_bytes()))
    }
}

/// A saved capacity search: schema version, manifest digest, manifest,
/// and the full [`CapacityReport`] (every probe point plus the knee).
/// Stored under the `capacity/` subdirectory of a results store so run
/// and capacity artifacts never shadow each other in listings.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CapacityArtifact {
    /// Schema version ([`SCHEMA_VERSION`]) — checked before anything else
    /// on load.
    pub schema_version: u32,
    /// [`CapacityManifest::digest`] at save time — revalidated on load.
    pub digest: String,
    /// The reproduction manifest.
    pub manifest: CapacityManifest,
    /// The search result: probe points and the SLA knee.
    pub report: CapacityReport,
}

impl CapacityArtifact {
    /// Packages a manifest and report into a versioned, digested artifact.
    pub fn new(manifest: CapacityManifest, report: CapacityReport) -> Self {
        CapacityArtifact {
            schema_version: SCHEMA_VERSION,
            digest: manifest.digest(),
            manifest,
            report,
        }
    }

    /// The file name this artifact stores under (inside `capacity/`):
    /// `<scenario>-<sut>-<sla>-<digest>.json` (slugged).
    pub fn file_name(&self) -> String {
        format!(
            "{}-{}-{}-{}.json",
            slug(&self.manifest.scenario),
            slug(&self.manifest.sut),
            slug(&self.manifest.sla),
            self.digest
        )
    }

    /// Pretty JSON encoding (trailing newline included).
    pub fn to_json(&self) -> Result<String, StoreError> {
        serde_json::to_string_pretty(self)
            .map(|mut s| {
                s.push('\n');
                s
            })
            .map_err(|e| StoreError::Parse(e.to_string()))
    }

    /// Strict decode: checks `schema_version` *before* interpreting the
    /// rest, then revalidates the stored digest against the manifest.
    pub fn from_json(text: &str) -> Result<Self, StoreError> {
        let artifact: CapacityArtifact = decode_versioned(text, SCHEMA_VERSION)?;
        let computed = artifact.manifest.digest();
        if computed != artifact.digest {
            return Err(StoreError::ManifestMismatch {
                stored: artifact.digest,
                computed,
            });
        }
        Ok(artifact)
    }
}

/// Version of the serialized [`SweepArtifact`] schema. Sweep artifacts
/// version independently of the run-artifact family ([`SCHEMA_VERSION`]):
/// they live in their own `sweep/` subdirectory, are never cross-read by
/// the run loaders, and started life after v4, so coupling the two would
/// only force pointless migrations. History: v1 = this format's debut
/// (manifest: scenario, base spec text, SUTs, axis, α grid, transport,
/// clock; payload: per-SUT metric curves).
pub const SWEEP_SCHEMA_VERSION: u32 = 1;

/// Everything needed to reproduce a drift sweep: the scenario name, the
/// rendered canonical spec text of the *base* scenario (rung derivation
/// is deterministic from it), the SUT list, the axis as given on the
/// command line plus the expanded α grid, the crate version, transport,
/// and clock. Content-addressed exactly like [`RunManifest`].
///
/// Deliberately absent: worker/thread counts. Lanes are decided by the
/// scenario's execution mode and results never depend on executing
/// thread count, so the same sweep at 1 or 4 workers must produce the
/// same digest — and byte-identical artifacts (the determinism tests pin
/// this).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepManifest {
    /// Scenario name.
    pub scenario: String,
    /// Canonical spec text of the base scenario ([`render_scenario`]).
    pub spec: String,
    /// SUT names, in run order.
    pub suts: Vec<String>,
    /// The drift axis as given (`lo..hixN`, e.g. `0..1x5`).
    pub axis: String,
    /// The expanded monotone α grid, one entry per rung.
    pub alphas: Vec<f64>,
    /// `lsbench-core` version that wrote the artifact.
    pub crate_version: String,
    /// Where the SUTs executed (local process vs. remote endpoint).
    pub transport: Transport,
    /// Which clock the rungs reported on (sim vs. wall).
    pub clock: ClockMode,
}

impl SweepManifest {
    /// Builds the manifest for a sweep of `scenario` by `suts` over
    /// `axis`/`alphas`, stamped with this crate's version. Transport
    /// defaults to [`Transport::Local`] and clock to [`ClockMode::Sim`];
    /// chain [`SweepManifest::with_transport`] /
    /// [`SweepManifest::with_clock`] otherwise.
    pub fn for_sweep(scenario: &Scenario, suts: &[String], axis: &str, alphas: &[f64]) -> Self {
        SweepManifest {
            scenario: scenario.name.clone(),
            spec: render_scenario(scenario),
            suts: suts.to_vec(),
            axis: axis.to_string(),
            alphas: alphas.to_vec(),
            crate_version: env!("CARGO_PKG_VERSION").to_string(),
            transport: Transport::Local,
            clock: ClockMode::Sim,
        }
    }

    /// Stamps the transport the sweep used.
    pub fn with_transport(mut self, transport: Transport) -> Self {
        self.transport = transport;
        self
    }

    /// Stamps the clock mode the sweep used.
    pub fn with_clock(mut self, clock: ClockMode) -> Self {
        self.clock = clock;
        self
    }

    /// Stable content digest, same construction as [`RunManifest::digest`].
    pub fn digest(&self) -> String {
        let canonical = serde_json::to_string(self).expect("manifest serialization is total");
        format!("{:016x}", fnv1a64(canonical.as_bytes()))
    }
}

/// A saved drift sweep: schema version ([`SWEEP_SCHEMA_VERSION`]),
/// manifest digest, manifest, and one metric curve per SUT. Stored under
/// the `sweep/` subdirectory of a results store so sweep, capacity, and
/// run artifacts never shadow each other in listings.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepArtifact {
    /// Schema version ([`SWEEP_SCHEMA_VERSION`]) — checked before
    /// anything else on load.
    pub schema_version: u32,
    /// [`SweepManifest::digest`] at save time — revalidated on load.
    pub digest: String,
    /// The reproduction manifest.
    pub manifest: SweepManifest,
    /// Per-SUT metric-vs-α curves, in manifest SUT order.
    pub curves: Vec<SweepCurve>,
}

impl SweepArtifact {
    /// Packages a manifest and curves into a versioned, digested artifact.
    pub fn new(manifest: SweepManifest, curves: Vec<SweepCurve>) -> Self {
        SweepArtifact {
            schema_version: SWEEP_SCHEMA_VERSION,
            digest: manifest.digest(),
            manifest,
            curves,
        }
    }

    /// The file name this artifact stores under (inside `sweep/`):
    /// `<scenario>-sweep-<axis>-<digest>.json` (slugged).
    pub fn file_name(&self) -> String {
        format!(
            "{}-sweep-{}-{}.json",
            slug(&self.manifest.scenario),
            slug(&self.manifest.axis),
            self.digest
        )
    }

    /// Pretty JSON encoding (trailing newline included).
    pub fn to_json(&self) -> Result<String, StoreError> {
        serde_json::to_string_pretty(self)
            .map(|mut s| {
                s.push('\n');
                s
            })
            .map_err(|e| StoreError::Parse(e.to_string()))
    }

    /// Strict decode: checks `schema_version` against
    /// [`SWEEP_SCHEMA_VERSION`] *before* interpreting the rest, then
    /// revalidates the stored digest against the manifest.
    pub fn from_json(text: &str) -> Result<Self, StoreError> {
        let artifact: SweepArtifact = decode_versioned(text, SWEEP_SCHEMA_VERSION)?;
        let computed = artifact.manifest.digest();
        if computed != artifact.digest {
            return Err(StoreError::ManifestMismatch {
                stored: artifact.digest,
                computed,
            });
        }
        Ok(artifact)
    }
}

/// The versioned envelope for `lsbench suite` JSON output: the same
/// `schema_version` discipline as [`RunArtifact`], wrapped around the
/// cross-SUT [`SuiteResult`] list.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SuiteArtifact {
    /// Schema version ([`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// One result per SUT, in run order.
    pub results: Vec<SuiteResult>,
}

impl SuiteArtifact {
    /// Wraps suite results in the versioned envelope.
    pub fn new(results: Vec<SuiteResult>) -> Self {
        SuiteArtifact {
            schema_version: SCHEMA_VERSION,
            results,
        }
    }

    /// Strict decode: refuses unversioned or version-drifted suite JSON.
    pub fn from_json(text: &str) -> Result<Self, StoreError> {
        decode_versioned(text, SCHEMA_VERSION)
    }
}

/// Strict decode shared by every artifact family: parses `text` once,
/// refuses a missing or drifted `schema_version` (reported as such rather
/// than as a confusing field-level parse error), and only then decodes
/// the same tree. Families that version independently (sweeps vs. runs)
/// pass their own `expected`.
fn decode_versioned<T: Deserialize>(text: &str, expected: u32) -> Result<T, StoreError> {
    let parse_error = |e: serde_json::Error| StoreError::Parse(e.to_string());
    let tree = serde_json::parse(text).map_err(parse_error)?;
    let entries = tree
        .as_object()
        .ok_or_else(|| StoreError::Parse("artifact is not a JSON object".to_string()))?;
    let found = match serde::Value::get(entries, "schema_version") {
        serde::Value::UInt(v) if *v <= u32::MAX as u64 => Some(*v as u32),
        serde::Value::Null => None,
        other => {
            return Err(StoreError::Parse(format!(
                "schema_version must be an integer, got {other:?}"
            )))
        }
    };
    if found != Some(expected) {
        return Err(StoreError::Schema { found, expected });
    }
    serde_json::from_value(tree).map_err(parse_error)
}

/// Lowercases and maps every non-alphanumeric run to a single `-` so SUT
/// and scenario names are safe in file names.
fn slug(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut dash = true; // suppress a leading dash
    for c in s.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
            dash = false;
        } else if !dash {
            out.push('-');
            dash = true;
        }
    }
    while out.ends_with('-') {
        out.pop();
    }
    if out.is_empty() {
        out.push('x');
    }
    out
}

/// One row of [`ResultStore::list`]: enough to identify an artifact
/// without holding its full record.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreEntry {
    /// Full path of the artifact file.
    pub path: PathBuf,
    /// File name (the stable identity within a store).
    pub file: String,
    /// Manifest digest.
    pub digest: String,
    /// SUT name from the manifest.
    pub sut: String,
    /// Scenario name from the manifest.
    pub scenario: String,
    /// Worker count from the manifest.
    pub concurrency: usize,
    /// Completed operations in the stored record.
    pub completed: usize,
    /// Where the SUT executed.
    pub transport: Transport,
}

/// A directory of [`RunArtifact`] files with save/load/list/find.
#[derive(Debug, Clone)]
pub struct ResultStore {
    dir: PathBuf,
}

impl ResultStore {
    /// Opens (creating if needed) a store at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, StoreError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| StoreError::Io(format!("cannot create {}: {e}", dir.display())))?;
        Ok(ResultStore { dir })
    }

    /// The default store location: `<workspace>/.lsbench/results/`.
    pub fn default_dir() -> PathBuf {
        workspace_root().join(".lsbench").join("results")
    }

    /// Opens the default store ([`ResultStore::default_dir`]).
    pub fn open_default() -> Result<Self, StoreError> {
        Self::open(Self::default_dir())
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Saves an artifact under its content-addressed file name, routed
    /// through the same write path as every other lsbench artifact.
    /// Saving the same manifest again overwrites the same file.
    pub fn save(&self, artifact: &RunArtifact) -> Result<PathBuf, StoreError> {
        let json = artifact.to_json()?;
        write_artifact_to(&self.dir, &artifact.file_name(), &json)
            .map_err(|e| StoreError::Io(e.to_string()))
    }

    /// Loads and strictly validates the artifact at `path` (any path, not
    /// necessarily inside a store).
    pub fn load_path(path: &Path) -> Result<RunArtifact, StoreError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| StoreError::Io(format!("cannot read {}: {e}", path.display())))?;
        RunArtifact::from_json(&text).map_err(|e| annotate_with_path(e, path))
    }

    /// Loads an artifact by identifier: an existing file path, a digest
    /// (or unique digest prefix), or a unique substring of the entry's
    /// `sut`/`scenario`/file name.
    pub fn load(&self, id: &str) -> Result<RunArtifact, StoreError> {
        let as_path = Path::new(id);
        if as_path.is_file() {
            return Self::load_path(as_path);
        }
        let entry = self.find(id)?;
        Self::load_path(&entry.path)
    }

    /// Lists every artifact in the store, sorted by file name. Strict like
    /// everything else here: one invalid artifact fails the listing with
    /// an error naming the file, because a store with unreadable entries
    /// should be repaired, not skimmed.
    pub fn list(&self) -> Result<Vec<StoreEntry>, StoreError> {
        let read = std::fs::read_dir(&self.dir)
            .map_err(|e| StoreError::Io(format!("cannot read {}: {e}", self.dir.display())))?;
        let mut paths: Vec<PathBuf> = read
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect();
        paths.sort();
        let mut out = Vec::with_capacity(paths.len());
        for path in paths {
            let artifact = Self::load_path(&path)?;
            out.push(StoreEntry {
                file: path
                    .file_name()
                    .map(|n| n.to_string_lossy().into_owned())
                    .unwrap_or_default(),
                digest: artifact.digest,
                sut: artifact.manifest.sut,
                scenario: artifact.manifest.scenario,
                concurrency: artifact.manifest.concurrency,
                completed: artifact.record.ops.len(),
                transport: artifact.manifest.transport,
                path,
            });
        }
        Ok(out)
    }

    /// The capacity subdirectory of this store. [`ResultStore::list`]
    /// only looks at files directly in the store directory, so capacity
    /// artifacts never appear in (or break) run listings.
    pub fn capacity_dir(&self) -> PathBuf {
        self.dir.join("capacity")
    }

    /// Saves a capacity artifact under its content-addressed file name in
    /// the `capacity/` subdirectory. Saving the same manifest again
    /// overwrites the same file.
    pub fn save_capacity(&self, artifact: &CapacityArtifact) -> Result<PathBuf, StoreError> {
        let dir = self.capacity_dir();
        std::fs::create_dir_all(&dir)
            .map_err(|e| StoreError::Io(format!("cannot create {}: {e}", dir.display())))?;
        let json = artifact.to_json()?;
        write_artifact_to(&dir, &artifact.file_name(), &json)
            .map_err(|e| StoreError::Io(e.to_string()))
    }

    /// Loads and strictly validates the capacity artifact at `path`.
    pub fn load_capacity_path(path: &Path) -> Result<CapacityArtifact, StoreError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| StoreError::Io(format!("cannot read {}: {e}", path.display())))?;
        CapacityArtifact::from_json(&text).map_err(|e| annotate_with_path(e, path))
    }

    /// Lists every capacity artifact file in the store, sorted by name.
    /// An empty (or absent) `capacity/` directory lists as empty.
    pub fn list_capacity(&self) -> Result<Vec<PathBuf>, StoreError> {
        let dir = self.capacity_dir();
        if !dir.is_dir() {
            return Ok(Vec::new());
        }
        let read = std::fs::read_dir(&dir)
            .map_err(|e| StoreError::Io(format!("cannot read {}: {e}", dir.display())))?;
        let mut paths: Vec<PathBuf> = read
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect();
        paths.sort();
        Ok(paths)
    }

    /// The sweep subdirectory of this store. Like `capacity/`,
    /// [`ResultStore::list`] never looks inside it, so sweep artifacts
    /// never appear in (or break) run listings.
    pub fn sweep_dir(&self) -> PathBuf {
        self.dir.join("sweep")
    }

    /// Saves a sweep artifact under its content-addressed file name in
    /// the `sweep/` subdirectory. Saving the same manifest again
    /// overwrites the same file.
    pub fn save_sweep(&self, artifact: &SweepArtifact) -> Result<PathBuf, StoreError> {
        let dir = self.sweep_dir();
        std::fs::create_dir_all(&dir)
            .map_err(|e| StoreError::Io(format!("cannot create {}: {e}", dir.display())))?;
        let json = artifact.to_json()?;
        write_artifact_to(&dir, &artifact.file_name(), &json)
            .map_err(|e| StoreError::Io(e.to_string()))
    }

    /// Loads and strictly validates the sweep artifact at `path`.
    pub fn load_sweep_path(path: &Path) -> Result<SweepArtifact, StoreError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| StoreError::Io(format!("cannot read {}: {e}", path.display())))?;
        SweepArtifact::from_json(&text).map_err(|e| annotate_with_path(e, path))
    }

    /// Lists every sweep artifact file in the store, sorted by name. An
    /// empty (or absent) `sweep/` directory lists as empty.
    pub fn list_sweep(&self) -> Result<Vec<PathBuf>, StoreError> {
        let dir = self.sweep_dir();
        if !dir.is_dir() {
            return Ok(Vec::new());
        }
        let read = std::fs::read_dir(&dir)
            .map_err(|e| StoreError::Io(format!("cannot read {}: {e}", dir.display())))?;
        let mut paths: Vec<PathBuf> = read
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect();
        paths.sort();
        Ok(paths)
    }

    /// Finds the unique entry matching `query`: first by digest prefix,
    /// then by substring over `sut`, `scenario`, and file name. Zero
    /// matches is [`StoreError::NotFound`]; several are
    /// [`StoreError::Ambiguous`] with the candidates listed.
    pub fn find(&self, query: &str) -> Result<StoreEntry, StoreError> {
        let entries = self.list()?;
        let by_digest: Vec<&StoreEntry> = entries
            .iter()
            .filter(|e| !query.is_empty() && e.digest.starts_with(query))
            .collect();
        let matches: Vec<&StoreEntry> = if by_digest.is_empty() {
            entries
                .iter()
                .filter(|e| {
                    e.sut.contains(query) || e.scenario.contains(query) || e.file.contains(query)
                })
                .collect()
        } else {
            by_digest
        };
        match matches.as_slice() {
            [] => Err(StoreError::NotFound(query.to_string())),
            [one] => Ok((*one).clone()),
            many => Err(StoreError::Ambiguous {
                query: query.to_string(),
                matches: many.iter().map(|e| e.file.clone()).collect(),
            }),
        }
    }
}

/// Prefixes schema/digest/parse errors with the offending file path.
fn annotate_with_path(e: StoreError, path: &Path) -> StoreError {
    match e {
        StoreError::Parse(m) => StoreError::Parse(format!("{}: {m}", path.display())),
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultStats;
    use crate::record::{OpRecord, TrainInfo};
    use lsbench_sut::sut::SutMetrics;

    fn tiny_record(sut: &str) -> RunRecord {
        RunRecord {
            sut_name: sut.to_string(),
            scenario_name: "store-test".to_string(),
            phase_names: vec!["p0".to_string()],
            ops: vec![OpRecord {
                t_end: 0.5,
                latency: 0.5,
                phase: 0,
                ok: true,
                in_transition: false,
            }],
            phase_change_times: vec![(0, 0.0)],
            train: TrainInfo::default(),
            exec_start: 0.0,
            exec_end: 0.5,
            final_metrics: SutMetrics::default(),
            work_units_per_second: 1.0,
            faults: FaultStats::default(),
        }
    }

    fn manifest(sut: &str) -> RunManifest {
        RunManifest {
            sut: sut.to_string(),
            scenario: "store-test".to_string(),
            spec: "name = \"store-test\"\n".to_string(),
            concurrency: 1,
            crate_version: "0.0.0-test".to_string(),
            transport: Transport::Local,
            clock: ClockMode::Sim,
        }
    }

    fn temp_store(tag: &str) -> (ResultStore, PathBuf) {
        let dir =
            std::env::temp_dir().join(format!("lsbench-store-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        (ResultStore::open(&dir).unwrap(), dir)
    }

    #[test]
    fn digest_is_stable_and_content_sensitive() {
        let m = manifest("a");
        assert_eq!(m.digest(), m.clone().digest());
        assert_eq!(m.digest().len(), 16);
        let mut other = manifest("a");
        other.concurrency = 4;
        assert_ne!(m.digest(), other.digest());
    }

    #[test]
    fn save_load_round_trips_and_is_idempotent() {
        let (store, dir) = temp_store("roundtrip");
        let artifact = RunArtifact::new(manifest("btree"), tiny_record("btree"));
        let p1 = store.save(&artifact).unwrap();
        let p2 = store.save(&artifact).unwrap();
        assert_eq!(p1, p2, "same manifest → same file");
        let back = store.load(&artifact.digest).unwrap();
        assert_eq!(back, artifact);
        // Also loadable by digest prefix, substring, and path.
        assert_eq!(store.load(&artifact.digest[..6]).unwrap(), artifact);
        assert_eq!(store.load("btree").unwrap(), artifact);
        assert_eq!(store.load(p1.to_str().unwrap()).unwrap(), artifact);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn list_and_find_disambiguate() {
        let (store, dir) = temp_store("find");
        let a = RunArtifact::new(manifest("btree"), tiny_record("btree"));
        let b = RunArtifact::new(manifest("rmi"), tiny_record("rmi"));
        store.save(&a).unwrap();
        store.save(&b).unwrap();
        let entries = store.list().unwrap();
        assert_eq!(entries.len(), 2);
        assert!(entries.iter().all(|e| e.scenario == "store-test"));
        assert_eq!(store.find("rmi").unwrap().sut, "rmi");
        assert!(matches!(
            store.find("store-test"),
            Err(StoreError::Ambiguous { .. })
        ));
        assert!(matches!(
            store.find("nonexistent"),
            Err(StoreError::NotFound(_))
        ));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn list_ignores_leftover_temporary_files() {
        let (store, dir) = temp_store("leftover");
        let artifact = RunArtifact::new(manifest("btree"), tiny_record("btree"));
        let path = store.save(&artifact).unwrap();
        let saved: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert_eq!(saved.len(), 1, "a successful save leaves no temporary file");
        // What a writer killed mid-write leaves behind: a truncated
        // temporary file next to the artifact, never under its name.
        let json = artifact.to_json().unwrap();
        let leftover = dir.join(format!(".{}.4242-0.tmp", artifact.file_name()));
        std::fs::write(leftover, &json[..json.len() / 2]).unwrap();
        let entries = store.list().unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].path, path);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn transport_is_recorded_listed_and_content_addressed() {
        let (store, dir) = temp_store("transport");
        let remote = manifest("btree").with_transport(Transport::Remote {
            endpoint: "127.0.0.1:9999".to_string(),
        });
        let artifact = RunArtifact::new(remote.clone(), tiny_record("btree"));
        store.save(&artifact).unwrap();
        let entries = store.list().unwrap();
        assert_eq!(
            entries[0].transport,
            Transport::Remote {
                endpoint: "127.0.0.1:9999".to_string()
            }
        );
        assert_eq!(entries[0].transport.to_string(), "remote(127.0.0.1:9999)");
        assert_eq!(Transport::default().to_string(), "local");
        // The transport participates in the content address: a remote run
        // can never collide with its local twin.
        assert_ne!(manifest("btree").digest(), remote.digest());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn unversioned_artifacts_are_refused() {
        let artifact = RunArtifact::new(manifest("x"), tiny_record("x"));
        let json = artifact.to_json().unwrap();
        let stripped = json.replacen(&format!("\"schema_version\": {SCHEMA_VERSION},\n"), "", 1);
        assert_ne!(json, stripped, "fixture must actually strip the field");
        match RunArtifact::from_json(&stripped) {
            Err(StoreError::Schema {
                found: None,
                expected,
            }) => {
                assert_eq!(expected, SCHEMA_VERSION)
            }
            other => panic!("expected unversioned refusal, got {other:?}"),
        }
    }

    #[test]
    fn version_drift_is_refused() {
        let artifact = RunArtifact::new(manifest("x"), tiny_record("x"));
        let json = artifact.to_json().unwrap().replacen(
            &format!("\"schema_version\": {SCHEMA_VERSION}"),
            "\"schema_version\": 999",
            1,
        );
        assert!(matches!(
            RunArtifact::from_json(&json),
            Err(StoreError::Schema {
                found: Some(999),
                ..
            })
        ));
    }

    #[test]
    fn manifest_tampering_is_refused() {
        let artifact = RunArtifact::new(manifest("x"), tiny_record("x"));
        let json =
            artifact
                .to_json()
                .unwrap()
                .replacen("\"sut\": \"x\"", "\"sut\": \"tampered\"", 1);
        assert!(matches!(
            RunArtifact::from_json(&json),
            Err(StoreError::ManifestMismatch { .. })
        ));
    }

    #[test]
    fn capacity_artifacts_round_trip_in_their_own_subdirectory() {
        use crate::capacity::{CapacityPoint, CapacityReport, SlaTarget};
        let (store, dir) = temp_store("capacity");
        let manifest = CapacityManifest {
            sut: "btree".to_string(),
            scenario: "store-test".to_string(),
            spec: "name = \"store-test\"\n".to_string(),
            sla: "p99:5".to_string(),
            clients: 1000,
            workers: 4,
            crate_version: "0.0.0-test".to_string(),
            transport: Transport::Local,
        };
        let report = CapacityReport {
            sla: SlaTarget {
                quantile: 0.99,
                threshold_seconds: 0.005,
            },
            points: vec![CapacityPoint {
                rate: 100.0,
                latency_seconds: 0.001,
                throughput: 99.0,
                completed: 1000,
                met: true,
            }],
            knee_rate: 100.0,
            saturated: false,
        };
        let artifact = CapacityArtifact::new(manifest.clone(), report);
        let p1 = store.save_capacity(&artifact).unwrap();
        let p2 = store.save_capacity(&artifact).unwrap();
        assert_eq!(p1, p2, "same manifest → same file");
        assert!(p1.starts_with(store.capacity_dir()));
        let back = ResultStore::load_capacity_path(&p1).unwrap();
        assert_eq!(back, artifact);
        assert_eq!(store.list_capacity().unwrap(), vec![p1]);
        // Capacity artifacts never leak into the run listing, and run
        // listings never fail because a capacity artifact exists.
        assert!(store.list().unwrap().is_empty());
        // Tampering with the manifest is refused just like run artifacts.
        let tampered =
            artifact
                .to_json()
                .unwrap()
                .replacen("\"sla\": \"p99:5\"", "\"sla\": \"p50:5\"", 1);
        assert!(matches!(
            CapacityArtifact::from_json(&tampered),
            Err(StoreError::ManifestMismatch { .. })
        ));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn sweep_artifacts_round_trip_in_their_own_subdirectory() {
        use crate::sweep::curves::{SweepCurve, SweepPoint};
        let (store, dir) = temp_store("sweep");
        let manifest = SweepManifest {
            scenario: "store-test".to_string(),
            spec: "name = \"store-test\"\n".to_string(),
            suts: vec!["btree".to_string(), "rmi".to_string()],
            axis: "0..1x2".to_string(),
            alphas: vec![0.0, 1.0],
            crate_version: "0.0.0-test".to_string(),
            transport: Transport::Local,
            clock: ClockMode::Sim,
        };
        let curves = vec![SweepCurve {
            sut: "btree".to_string(),
            points: vec![SweepPoint {
                alpha: 0.0,
                adaptability_area: -0.01,
                adjustment_speed: 0.5,
                sla_violation_rate: 0.1,
                specialization_spread: 1.25,
            }],
        }];
        let artifact = SweepArtifact::new(manifest.clone(), curves);
        assert_eq!(artifact.schema_version, SWEEP_SCHEMA_VERSION);
        let p1 = store.save_sweep(&artifact).unwrap();
        let p2 = store.save_sweep(&artifact).unwrap();
        assert_eq!(p1, p2, "same manifest → same file");
        assert!(p1.starts_with(store.sweep_dir()));
        let back = ResultStore::load_sweep_path(&p1).unwrap();
        assert_eq!(back, artifact);
        assert_eq!(store.list_sweep().unwrap(), vec![p1]);
        // Sweep artifacts never leak into (or break) run listings.
        assert!(store.list().unwrap().is_empty());
        // Tampering with the manifest is refused just like run artifacts.
        let tampered =
            artifact
                .to_json()
                .unwrap()
                .replacen("\"axis\": \"0..1x2\"", "\"axis\": \"0..1x9\"", 1);
        assert!(matches!(
            SweepArtifact::from_json(&tampered),
            Err(StoreError::ManifestMismatch { .. })
        ));
        // A run-schema version in a sweep artifact is version drift, not
        // a pass: the families version independently.
        let drifted = artifact.to_json().unwrap().replacen(
            "\"schema_version\": 1",
            &format!("\"schema_version\": {SCHEMA_VERSION}"),
            1,
        );
        assert_eq!(
            SweepArtifact::from_json(&drifted),
            Err(StoreError::Schema {
                found: Some(SCHEMA_VERSION),
                expected: SWEEP_SCHEMA_VERSION,
            })
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn clock_mode_is_content_addressed_and_wall_stats_stamp_cleanly() {
        let sim = manifest("btree");
        let wall = manifest("btree").with_clock(ClockMode::Wall);
        // The clock participates in the content address: a wall-clock run
        // can never collide with (or silently replace) its sim twin.
        assert_ne!(sim.digest(), wall.digest());
        let plain = RunArtifact::new(wall.clone(), tiny_record("btree"));
        let stamped =
            RunArtifact::new(wall, tiny_record("btree")).with_wall(Some(WallStats::coarse(1.5, 3)));
        assert_eq!(plain.digest, stamped.digest, "digest is manifest-only");
        assert!(plain.wall.is_none());
        let json = stamped.to_json().unwrap();
        let back = RunArtifact::from_json(&json).unwrap();
        assert_eq!(back, stamped, "wall stats survive the store losslessly");
        assert_eq!(back.wall.as_ref().unwrap().ops, 3);
        assert_eq!(back.manifest.clock, ClockMode::Wall);
    }

    #[test]
    fn engine_stats_are_stamped_without_changing_the_digest() {
        use crate::runner::EngineStats;
        use lsbench_stats::{IntervalCounts, LatencyHistogram};
        let plain = RunArtifact::new(manifest("btree"), tiny_record("btree"));
        let mut latency = LatencyHistogram::new();
        latency.record(500_000_000);
        let stamped = RunArtifact::new(manifest("btree"), tiny_record("btree")).with_engine(Some(
            EngineStats {
                latency,
                completions: IntervalCounts::new(0.0, 0.5).unwrap(),
                threads: 4,
                lanes: 1000,
            },
        ));
        assert_eq!(plain.digest, stamped.digest, "digest is manifest-only");
        assert_eq!(plain.file_name(), stamped.file_name());
        assert!(plain.engine.is_none());
        let json = stamped.to_json().unwrap();
        let back = RunArtifact::from_json(&json).unwrap();
        assert_eq!(back, stamped, "engine stats survive the store losslessly");
    }

    #[test]
    fn suite_envelope_round_trips_and_is_strict() {
        let result = SuiteResult {
            sut_name: "btree".to_string(),
            summaries: vec![],
        };
        let envelope = SuiteArtifact::new(vec![result]);
        let json = serde_json::to_string_pretty(&envelope).unwrap();
        let back = SuiteArtifact::from_json(&json).unwrap();
        assert_eq!(back, envelope);
        assert!(matches!(
            SuiteArtifact::from_json("{\"results\": []}"),
            Err(StoreError::Schema { found: None, .. })
        ));
    }
}
