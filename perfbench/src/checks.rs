//! Correctness checks. Each returns what it found instead of panicking, so
//! the benchmark can count failures into `failed_op_frac` and exit
//! non-zero, and the tests can feed each one a broken input.

use crate::workloads::Iteration;
use lsbench_core::record::RunRecord;
use lsbench_core::results::{RunArtifact, StoreError};
use lsbench_index::{DeltaIndex, Index, Rmi};
use lsbench_workload::dataset::Dataset;
use lsbench_workload::ops::Operation;
use lsbench_workload::phases::PhasedWorkload;
use std::collections::HashMap;

/// SplitMix64: a tiny seeded generator for picking sample keys.
struct SplitMix(u64);

impl SplitMix {
    /// A value in `0..n` (`n > 0`).
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n
    }
}

/// The expected contents of a SUT after a run: the dataset overlaid with
/// the workload's own writes, applied in stream order.
pub struct Oracle<'a> {
    data: &'a Dataset,
    writes: HashMap<u64, Option<u64>>,
}

impl<'a> Oracle<'a> {
    /// The dataset alone (read-only workloads).
    pub fn new(data: &'a Dataset) -> Self {
        Oracle {
            data,
            writes: HashMap::new(),
        }
    }

    /// The dataset plus every write in `workload`'s op stream.
    pub fn with_writes(data: &'a Dataset, workload: &PhasedWorkload) -> Result<Self, String> {
        let mut oracle = Oracle::new(data);
        for labeled in workload.stream().map_err(|e| e.to_string())? {
            match labeled.op {
                Operation::Insert { key, value } | Operation::Update { key, value } => {
                    oracle.writes.insert(key, Some(value));
                }
                Operation::Delete { key } => {
                    oracle.writes.insert(key, None);
                }
                Operation::Read { .. } | Operation::Scan { .. } => {}
            }
        }
        Ok(oracle)
    }

    /// The value `key` must map to.
    pub fn get(&self, key: u64) -> Option<u64> {
        match self.writes.get(&key) {
            Some(v) => *v,
            None => self.data.get(key),
        }
    }

    /// A seeded sample: `n` dataset keys, `n` written keys and `n` keys
    /// drawn uniformly from the dataset's key range (mostly absent).
    pub fn sample(&self, n: usize, seed: u64) -> Vec<u64> {
        let mut rng = SplitMix(seed);
        let keys = self.data.keys();
        // Sorted, so the same seed picks the same keys.
        let mut written: Vec<u64> = self.writes.keys().copied().collect();
        written.sort_unstable();
        let mut out = Vec::with_capacity(3 * n);
        for _ in 0..n {
            if !keys.is_empty() {
                out.push(keys[rng.below(keys.len() as u64) as usize]);
            }
            if !written.is_empty() {
                out.push(written[rng.below(written.len() as u64) as usize]);
            }
            let hi = keys.last().copied().unwrap_or(0).max(1);
            out.push(rng.below(hi));
        }
        out
    }
}

/// Keys in `sample` whose value read through `get` differs from the
/// oracle's.
pub fn key_mismatches(
    sample: &[u64],
    get: impl Fn(u64) -> Option<u64>,
    oracle: &Oracle<'_>,
) -> u64 {
    sample.iter().filter(|&&k| get(k) != oracle.get(k)).count() as u64
}

/// The rmi SUT adapter exposes no index accessor, so its index type is
/// checked on a replica: the same `DeltaIndex<Rmi>` bulk-loaded from the
/// dataset and fed the workload's writes, read back before and after a
/// retrain. Returns the mismatches over both reads.
pub fn rmi_replica_mismatches(
    data: &Dataset,
    workload: &PhasedWorkload,
    sample: &[u64],
    oracle: &Oracle<'_>,
) -> Result<u64, String> {
    let pairs: Vec<(u64, u64)> = data.pairs().collect();
    let mut index = DeltaIndex::<Rmi>::build(&pairs).map_err(|e| e.to_string())?;
    for labeled in workload.stream().map_err(|e| e.to_string())? {
        let applied = match labeled.op {
            Operation::Insert { key, value } | Operation::Update { key, value } => {
                index.insert(key, value).map(|_| ())
            }
            Operation::Delete { key } => index.delete(key).map(|_| ()),
            Operation::Read { .. } | Operation::Scan { .. } => Ok(()),
        };
        applied.map_err(|e| e.to_string())?;
    }
    let before = key_mismatches(sample, |k| index.get(k), oracle);
    index.retrain().map_err(|e| e.to_string())?;
    Ok(before + key_mismatches(sample, |k| index.get(k), oracle))
}

/// Checks a strict reload of an archived artifact: the load must succeed
/// and give back the record that was archived.
pub fn reloaded(
    loaded: Result<RunArtifact, StoreError>,
    archived: &RunRecord,
) -> Result<RunArtifact, String> {
    let loaded = loaded.map_err(|e| format!("strict reload failed: {e}"))?;
    if loaded.record != *archived {
        return Err("reloaded record differs from the archived one".to_string());
    }
    Ok(loaded)
}

/// Checks that a serial run completed every op it was offered.
pub fn completed_all(offered: u64, completed: u64) -> Result<(), String> {
    if completed == offered {
        Ok(())
    } else {
        Err(format!("completed {completed} of {offered} offered ops"))
    }
}

/// Checks that `it` reproduced `first`'s virtual-clock outputs, which are
/// deterministic: every SUT's record digest, the capacity knee and the
/// probe count.
pub fn repeats(first: &Iteration, it: &Iteration) -> Result<(), String> {
    let digests = |it: &Iteration| it.suts.iter().map(|s| s.digest).collect::<Vec<_>>();
    if digests(it) != digests(first) {
        return Err("an iteration did not reproduce the first one's records".to_string());
    }
    let capacity = |it: &Iteration| it.capacity.as_ref().map(|c| (c.knee_rate, c.probes));
    if capacity(it) != capacity(first) {
        return Err(format!(
            "an iteration found capacity (knee, probes) {:?}, the first one {:?}",
            capacity(it),
            capacity(first)
        ));
    }
    Ok(())
}

/// Whether an open-loop probe completed every op it offered.
pub fn probe_complete(offered: u64, record: &RunRecord) -> bool {
    record.ops.len() as u64 == offered && record.failures() == 0
}

/// FNV-1a digest of a record's virtual-clock contents: every op's
/// completion time, latency, phase and flags, the phase changes, the
/// training outcome and the execution window. Equal records, equal digest.
pub fn record_digest(record: &RunRecord) -> u64 {
    let mut h = Fnv::default();
    for op in &record.ops {
        h.u64(op.t_end.to_bits());
        h.u64(op.latency.to_bits());
        h.u64(op.phase as u64 | (op.ok as u64) << 16 | (op.in_transition as u64) << 17);
    }
    for &(phase, t) in &record.phase_change_times {
        h.u64(phase as u64);
        h.u64(t.to_bits());
    }
    h.u64(record.train.work);
    h.u64(record.train.seconds.to_bits());
    h.u64(record.exec_start.to_bits());
    h.u64(record.exec_end.to_bits());
    h.0
}

struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}
