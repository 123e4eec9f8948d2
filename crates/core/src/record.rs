//! Run records: everything a benchmark run produced.
//!
//! The metric families (Fig. 1a–1d) are all *derived* from one record
//! format: a vector of per-operation completions with timestamps, latencies
//! and phase labels, plus training information and the SUT's final metric
//! counters. Keeping the raw record (rather than aggregates) is what lets
//! the benchmark report distributions, transitions, and bands instead of a
//! single average (Lesson 2).
//!
//! That raw record is also what an archived run mostly consists of, so
//! [`RunRecord`] serializes its `ops` as a compact column block rather
//! than one JSON object per op (see the `Serialize` impl below).

use crate::faults::FaultStats;
use lsbench_stats::timeseries::CumulativeCurve;
use lsbench_sut::sut::SutMetrics;
use serde::{field, DeError, Deserialize, Serialize, Value};

/// One completed operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpRecord {
    /// Completion time (virtual seconds since run start).
    pub t_end: f64,
    /// Latency in virtual seconds.
    pub latency: f64,
    /// Scheduled phase index.
    pub phase: u16,
    /// Whether the operation succeeded.
    pub ok: bool,
    /// Whether the operation fell inside a gradual-transition window.
    pub in_transition: bool,
}

/// Training-phase outcome.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct TrainInfo {
    /// Work units spent training offline.
    pub work: u64,
    /// Virtual seconds the training phase took.
    pub seconds: f64,
}

/// A complete run record for one SUT on one scenario.
///
/// Serializes as a JSON object with the fields in declaration order.
/// `ops` is the column block of the `columns` codec (results schema v5),
/// not an array: `{"count": N, "t_end": …, "latency": …, "phase": …,
/// "flags": …}`, each column a padded base64 string of little-endian
/// values. The floats travel as their bit patterns, so a reloaded record
/// is bit-identical to the saved one (NaN and −0.0 included).
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// SUT display name.
    pub sut_name: String,
    /// Scenario name.
    pub scenario_name: String,
    /// Phase names, indexed by [`OpRecord::phase`].
    pub phase_names: Vec<String>,
    /// Per-operation records in completion order.
    pub ops: Vec<OpRecord>,
    /// Time each phase first became active: `(phase, time)`.
    pub phase_change_times: Vec<(usize, f64)>,
    /// Offline training outcome.
    pub train: TrainInfo,
    /// Virtual time when execution (post-training) started.
    pub exec_start: f64,
    /// Virtual time when execution finished.
    pub exec_end: f64,
    /// SUT metric counters at the end of the run.
    pub final_metrics: SutMetrics,
    /// Work-to-time conversion rate used (work units per second).
    pub work_units_per_second: f64,
    /// Fault-injection accounting (all zero for unfaulted runs).
    pub faults: FaultStats,
}

impl Serialize for RunRecord {
    fn to_value(&self) -> Value {
        let entries = vec![
            ("sut_name", self.sut_name.to_value()),
            ("scenario_name", self.scenario_name.to_value()),
            ("phase_names", self.phase_names.to_value()),
            ("ops", columns::encode(&self.ops)),
            ("phase_change_times", self.phase_change_times.to_value()),
            ("train", self.train.to_value()),
            ("exec_start", self.exec_start.to_value()),
            ("exec_end", self.exec_end.to_value()),
            ("final_metrics", self.final_metrics.to_value()),
            (
                "work_units_per_second",
                self.work_units_per_second.to_value(),
            ),
            ("faults", self.faults.to_value()),
        ];
        Value::Object(
            entries
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }
}

impl Deserialize for RunRecord {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let entries = v
            .as_object()
            .ok_or_else(|| DeError::custom("expected object for RunRecord"))?;
        Ok(RunRecord {
            sut_name: field(entries, "sut_name")?,
            scenario_name: field(entries, "scenario_name")?,
            phase_names: field(entries, "phase_names")?,
            ops: columns::decode(Value::get(entries, "ops"))
                .map_err(|e| DeError(format!("field `ops`: {e}")))?,
            phase_change_times: field(entries, "phase_change_times")?,
            train: field(entries, "train")?,
            exec_start: field(entries, "exec_start")?,
            exec_end: field(entries, "exec_end")?,
            final_metrics: field(entries, "final_metrics")?,
            work_units_per_second: field(entries, "work_units_per_second")?,
            faults: field(entries, "faults")?,
        })
    }
}

/// The `ops` column block: four little-endian columns, one padded
/// standard base64 string each — `t_end` and `latency` as `f64` bits
/// (8 B), `phase` as `u16` (2 B), and `flags` as `u8` (bit 0 = `ok`,
/// bit 1 = `in_transition`; higher bits are refused).
///
/// Decoding is strict: the block must hold exactly its five keys, every
/// column's length must be exactly the encoding of `count × width`
/// bytes, and the base64 must be canonical. The lengths are checked
/// before anything `count`-sized is allocated, so a hostile `count`
/// fails as an error instead of an allocation.
mod columns {
    use super::OpRecord;
    use serde::Value;

    const OK: u8 = 1;
    const IN_TRANSITION: u8 = 2;
    const ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
    /// Column name and bytes per op, in block order.
    const COLUMNS: [(&str, u64); 4] = [("t_end", 8), ("latency", 8), ("phase", 2), ("flags", 1)];

    pub(super) fn encode(ops: &[OpRecord]) -> Value {
        let mut bytes: [Vec<u8>; 4] =
            COLUMNS.map(|(_, w)| Vec::with_capacity(ops.len() * w as usize));
        for op in ops {
            bytes[0].extend_from_slice(&op.t_end.to_bits().to_le_bytes());
            bytes[1].extend_from_slice(&op.latency.to_bits().to_le_bytes());
            bytes[2].extend_from_slice(&op.phase.to_le_bytes());
            bytes[3].push((u8::from(op.ok) * OK) | (u8::from(op.in_transition) * IN_TRANSITION));
        }
        let mut entries = vec![("count".to_string(), Value::UInt(ops.len() as u64))];
        for ((name, _), column) in COLUMNS.iter().zip(&bytes) {
            entries.push((name.to_string(), Value::Str(to_base64(column))));
        }
        Value::Object(entries)
    }

    pub(super) fn decode(v: &Value) -> Result<Vec<OpRecord>, String> {
        let entries = v
            .as_object()
            .ok_or("expected the ops column block (an object)")?;
        if entries.len() != COLUMNS.len() + 1 {
            return Err(format!("expected 5 keys, found {}", entries.len()));
        }
        let count = match Value::get(entries, "count") {
            Value::UInt(n) => *n,
            other => {
                return Err(format!(
                    "`count` must be an unsigned integer, got {other:?}"
                ))
            }
        };
        // Check every column's length against `count` before decoding any
        // of them, so no allocation is sized by an unchecked `count`.
        let mut texts = [("", 0usize); 4];
        for (text, &(name, width)) in texts.iter_mut().zip(&COLUMNS) {
            let Value::Str(s) = Value::get(entries, name) else {
                return Err(format!("column `{name}` must be a base64 string"));
            };
            let len = count
                .checked_mul(width)
                .and_then(|n| usize::try_from(n).ok());
            let encoded = len
                .and_then(|n| n.checked_add(2))
                .and_then(|n| (n / 3).checked_mul(4));
            if encoded != Some(s.len()) {
                return Err(format!(
                    "column `{name}` is {} chars, not the encoding of {count} × {width} bytes",
                    s.len()
                ));
            }
            *text = (s.as_str(), len.expect("checked above"));
        }
        let [t_end, latency, phase, flags] = texts.map(|(s, len)| from_base64(s, len));
        let (t_end, latency, phase, flags) = (t_end?, latency?, phase?, flags?);
        if let Some(i) = flags.iter().position(|f| f & !(OK | IN_TRANSITION) != 0) {
            return Err(format!("op {i}: unknown flag bits {:#04x}", flags[i]));
        }
        let float = |b: &[u8]| f64::from_bits(u64::from_le_bytes(b.try_into().expect("8 bytes")));
        Ok(t_end
            .chunks_exact(8)
            .zip(latency.chunks_exact(8))
            .zip(phase.chunks_exact(2))
            .zip(flags)
            .map(|(((t, l), p), f)| OpRecord {
                t_end: float(t),
                latency: float(l),
                phase: u16::from_le_bytes([p[0], p[1]]),
                ok: f & OK != 0,
                in_transition: f & IN_TRANSITION != 0,
            })
            .collect())
    }

    fn to_base64(bytes: &[u8]) -> String {
        let quad = |b: [u8; 3]| {
            let n = u32::from_be_bytes([0, b[0], b[1], b[2]]);
            [18, 12, 6, 0].map(|shift| ALPHABET[(n >> shift) as usize & 63])
        };
        let mut out = Vec::with_capacity(bytes.len().div_ceil(3) * 4);
        let mut chunks = bytes.chunks_exact(3);
        for c in &mut chunks {
            out.extend_from_slice(&quad([c[0], c[1], c[2]]));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut b = [0u8; 3];
            b[..rest.len()].copy_from_slice(rest);
            let mut last = quad(b);
            last[rest.len() + 1..].fill(b'=');
            out.extend_from_slice(&last);
        }
        String::from_utf8(out).expect("the base64 alphabet is ASCII")
    }

    /// Sextet value of each byte; [`INVALID`] outside the alphabet.
    const SEXTET: [u8; 256] = {
        let mut table = [INVALID; 256];
        let mut i = 0;
        while i < 64 {
            table[ALPHABET[i] as usize] = i as u8;
            i += 1;
        }
        table
    };
    const INVALID: u8 = 0xff;

    /// Decodes canonical padded base64 of `len` bytes; the caller has
    /// checked that `text` has exactly the encoded length of `len` bytes.
    fn from_base64(text: &str, len: usize) -> Result<Vec<u8>, String> {
        let pad = (3 - len % 3) % 3;
        let (body, tail) = text.as_bytes().split_at(text.len() - pad);
        if tail.iter().any(|&c| c != b'=') {
            return Err(format!("expected {pad} `=` of padding"));
        }
        let mut out = vec![0u8; len + pad];
        for (q, (quad, dst)) in body.chunks(4).zip(out.chunks_exact_mut(3)).enumerate() {
            // The padded positions of the last quad decode as zero bits.
            let sextets: [u8; 4] =
                std::array::from_fn(|k| quad.get(k).map_or(0, |&c| SEXTET[c as usize]));
            if let Some(k) = sextets.iter().position(|&s| s == INVALID) {
                return Err(format!(
                    "invalid base64 byte {:#04x} at {}",
                    quad[k],
                    4 * q + k
                ));
            }
            let n = sextets.iter().fold(0u32, |n, &s| n << 6 | u32::from(s));
            dst.copy_from_slice(&n.to_be_bytes()[1..]);
        }
        // The padded positions stand for bytes that must decode to zero:
        // a set bit there is a non-canonical encoding.
        if out.drain(len..).any(|b| b != 0) {
            return Err("non-canonical base64 padding".to_string());
        }
        Ok(out)
    }
}

impl RunRecord {
    /// Number of completed operations.
    pub fn completed(&self) -> usize {
        self.ops.len()
    }

    /// Number of failed/unsupported operations.
    pub fn failures(&self) -> usize {
        self.ops.iter().filter(|o| !o.ok).count()
    }

    /// Wall span of the execution portion.
    pub fn exec_duration(&self) -> f64 {
        self.exec_end - self.exec_start
    }

    /// Average throughput over the execution portion (ops per virtual
    /// second) — the *traditional* metric, kept for comparison.
    pub fn mean_throughput(&self) -> f64 {
        if self.exec_duration() <= 0.0 {
            0.0
        } else {
            self.ops.len() as f64 / self.exec_duration()
        }
    }

    /// Latencies of operations in phase `p` (seconds).
    pub fn phase_latencies(&self, p: usize) -> Vec<f64> {
        self.ops
            .iter()
            .filter(|o| o.phase as usize == p)
            .map(|o| o.latency)
            .collect()
    }

    /// Latencies of all operations.
    pub fn all_latencies(&self) -> Vec<f64> {
        self.ops.iter().map(|o| o.latency).collect()
    }

    /// Completion-time curve of the execution portion.
    pub fn cumulative_curve(&self) -> CumulativeCurve {
        CumulativeCurve::from_timestamps(self.ops.iter().map(|o| o.t_end).collect())
            .expect("timestamps are finite and ordered")
    }

    /// Throughput measured over consecutive windows of `ops_per_window`
    /// completions within phase `p` (ops/second). Used by the Fig. 1a
    /// box plots: each window contributes one throughput sample.
    pub fn phase_throughput_samples(&self, p: usize, ops_per_window: usize) -> Vec<f64> {
        let times: Vec<f64> = self
            .ops
            .iter()
            .filter(|o| o.phase as usize == p)
            .map(|o| o.t_end)
            .collect();
        let mut out = Vec::new();
        let mut i = 0;
        while i + ops_per_window <= times.len() {
            let span = times[i + ops_per_window - 1] - times[i];
            if span > 0.0 {
                out.push((ops_per_window - 1) as f64 / span);
            }
            i += ops_per_window;
        }
        out
    }

    /// Time the given phase became active, if it ever did.
    pub fn phase_start_time(&self, p: usize) -> Option<f64> {
        self.phase_change_times
            .iter()
            .find(|&&(phase, _)| phase == p)
            .map(|&(_, t)| t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic record: phase 0 at 1 op/sec for 10s, phase 1 at 5 ops/sec
    /// for 10s.
    pub(crate) fn synthetic() -> RunRecord {
        let mut ops = Vec::new();
        for i in 0..10 {
            ops.push(OpRecord {
                t_end: i as f64 + 1.0,
                latency: 1.0,
                phase: 0,
                ok: true,
                in_transition: false,
            });
        }
        for i in 0..50 {
            ops.push(OpRecord {
                t_end: 10.0 + (i as f64 + 1.0) * 0.2,
                latency: 0.2,
                phase: 1,
                ok: i % 10 != 0,
                in_transition: false,
            });
        }
        RunRecord {
            sut_name: "synthetic".to_string(),
            scenario_name: "test".to_string(),
            phase_names: vec!["slow".to_string(), "fast".to_string()],
            ops,
            phase_change_times: vec![(0, 0.0), (1, 10.0)],
            train: TrainInfo {
                work: 100,
                seconds: 0.1,
            },
            exec_start: 0.0,
            exec_end: 20.0,
            final_metrics: SutMetrics::default(),
            work_units_per_second: 1000.0,
            faults: FaultStats::default(),
        }
    }

    #[test]
    fn counters() {
        let r = synthetic();
        assert_eq!(r.completed(), 60);
        assert_eq!(r.failures(), 5);
        assert_eq!(r.exec_duration(), 20.0);
        assert!((r.mean_throughput() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn phase_latencies_split() {
        let r = synthetic();
        assert_eq!(r.phase_latencies(0).len(), 10);
        assert_eq!(r.phase_latencies(1).len(), 50);
        assert!(r.phase_latencies(0).iter().all(|&l| l == 1.0));
        assert!(r.phase_latencies(2).is_empty());
    }

    #[test]
    fn throughput_samples_reflect_phase_speed() {
        let r = synthetic();
        let slow = r.phase_throughput_samples(0, 5);
        let fast = r.phase_throughput_samples(1, 5);
        assert!(!slow.is_empty() && !fast.is_empty());
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!((mean(&slow) - 1.0).abs() < 0.01, "slow = {slow:?}");
        assert!((mean(&fast) - 5.0).abs() < 0.1, "fast = {fast:?}");
    }

    #[test]
    fn cumulative_curve_total() {
        let r = synthetic();
        let c = r.cumulative_curve();
        assert_eq!(c.total(), 60);
        assert_eq!(c.completed_by(10.0), 10);
    }

    /// A saved record must round-trip *completely*: `final_metrics` used
    /// to be `#[serde(skip)]`, which silently zeroed the cost counters of
    /// any archived run. Equality here pins the lossless contract the
    /// results store depends on.
    #[test]
    fn serde_round_trips_the_complete_record() {
        let mut r = synthetic();
        r.final_metrics = SutMetrics {
            size_bytes: 4096,
            training_work: 1234,
            execution_work: 98765,
            model_count: 3,
            adaptations: 7,
            label_collection_work: 111,
        };
        r.faults.injected = 5;
        r.faults.retries = 2;
        let json = serde_json::to_string(&r).unwrap();
        let back: RunRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.final_metrics, r.final_metrics);
    }

    #[test]
    fn phase_start_lookup() {
        let r = synthetic();
        assert_eq!(r.phase_start_time(1), Some(10.0));
        assert_eq!(r.phase_start_time(9), None);
    }
}
