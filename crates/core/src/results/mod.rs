//! The results archive and head-to-head comparison subsystem.
//!
//! The paper's headline metrics are inherently *comparative*: the Fig. 1b
//! adaptability score is the area difference between two systems'
//! cumulative-query curves, Fig. 1c SLA thresholds are calibrated from a
//! baseline system's latency statistics, and Fig. 1d cost only means
//! something relative to a non-learned competitor. That requires runs to
//! outlive the process that produced them. This module turns the harness
//! from a one-shot runner into a longitudinal benchmark:
//!
//! * [`store`] — a content-addressed, schema-versioned results store:
//!   [`RunArtifact`] pairs a reproduction [`RunManifest`] with the complete
//!   [`RunRecord`](crate::record::RunRecord); artifacts live under
//!   `.lsbench/results/` with file names derived from a stable hash of the
//!   manifest, and loading *refuses* unversioned or drifted artifacts
//!   ([`StoreError::Schema`], [`StoreError::ManifestMismatch`]) instead of
//!   best-effort parsing. Each file is parsed once: the version is read
//!   off the parsed tree, and the same tree is then decoded. The record's
//!   per-op data is stored as a column block of base64 strings (see
//!   [`RunRecord`](crate::record::RunRecord)), about 25 bytes per op
//!   instead of ~150 for an array of JSON objects, and every write goes
//!   to a temporary file that is renamed into place, so a crashed writer
//!   never leaves a truncated artifact under a final name.
//! * [`mod@compare`] — the paired-comparison engine:
//!   [`compare`](compare::compare) derives the Fig. 1b area difference,
//!   per-phase Fig. 1a box-stat deltas, baseline-calibrated Fig. 1c SLA
//!   deltas, fault/retry accounting deltas, and Fig. 1d cost-per-query
//!   ratios from two records, rendered as aligned text and JSON.
//! * [`regress`] — CI gating: a [`RegressionPolicy`] loaded from a
//!   spec-style file (same positioned-error line parser as scenarios)
//!   evaluates a comparison into pass/fail plus `BENCH_summary.json`.
//!
//! Every artifact this module writes carries a `schema_version` field;
//! bump [`SCHEMA_VERSION`] whenever the serialized shape changes, so old
//! readers fail loudly rather than misread. Drift-sweep artifacts
//! ([`SweepArtifact`], under `sweep/`) version independently via
//! [`SWEEP_SCHEMA_VERSION`] — see its docs for why.

pub mod compare;
pub mod regress;
pub mod store;

pub use compare::{
    compare, render_comparison_report, render_transport_header, ComparisonReport, CostComparison,
    FaultDeltas, ScalarDelta, SlaComparison,
};
pub use regress::{
    evaluate_regression, parse_regression_policy, render_regression, write_bench_summary,
    PolicyViolation, RegressionPolicy, RegressionReport,
};
pub use store::{
    CapacityArtifact, CapacityManifest, ResultStore, RunArtifact, RunManifest, StoreEntry,
    StoreError, SuiteArtifact, SweepArtifact, SweepManifest, Transport, SWEEP_SCHEMA_VERSION,
};

/// Version of every serialized artifact schema in this module
/// ([`RunArtifact`], [`SuiteArtifact`], [`ComparisonReport`],
/// [`RegressionReport`]). Any change to the serialized shape of these
/// types — a field added, removed, renamed, or retyped — must bump this,
/// which the byte-exact golden fixture test enforces.
///
/// History: v1 = PR-5 initial archive; v2 = `RunManifest` gains the
/// `transport` field (local vs. remote endpoint); v3 = `RunArtifact`
/// gains the optional `engine` stats block
/// ([`EngineStats`](crate::runner::EngineStats)) and the store learns
/// capacity artifacts ([`CapacityArtifact`] under `capacity/`); v4 =
/// `RunManifest` gains the `clock` field (sim vs. wall — part of the
/// content address, so a wall run never collides with its sim twin) and
/// `RunArtifact` gains the optional `wall` stats block
/// ([`WallStats`](crate::runner::WallStats)); v5 = `RunRecord.ops` is
/// stored as a compact column block (`count` plus base64 `t_end`,
/// `latency`, `phase` and `flags` columns) instead of one JSON object per
/// op. v4 artifacts are refused and must be re-archived.
pub const SCHEMA_VERSION: u32 = 5;
