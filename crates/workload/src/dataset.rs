//! Dataset construction and growth.
//!
//! A [`Dataset`] is the database the system under test indexes: a sorted set
//! of unique `u64` keys with associated values. §III-A calls out "changing
//! data distributions and dataset size" as real-world behaviours benchmarks
//! miss. Datasets here support *growth batches* (new keys arriving over
//! time); distribution change is the job of the phased workloads in
//! [`phases`](crate::phases).
//!
//! [`Dataset::generate`] deduplicates its draws in one of two ways, chosen by
//! the domain's density alone: a bitmap over `[lo, hi)` when it is no larger
//! than the key vector (`span <= 64·n`), a hash set otherwise. Both accept
//! exactly the first `min(n, span)` distinct draws, so the choice never
//! changes a dataset.

use crate::keygen::{KeyDistribution, KeyGenerator};
use crate::Result;

/// A sorted, deduplicated set of `(key, value)` pairs.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    keys: Vec<u64>,
    values: Vec<u64>,
}

impl Dataset {
    /// Builds a dataset of `n` *unique* keys drawn from `dist` over
    /// `[lo, hi)`. Draws until `n` unique keys are collected, the domain is
    /// exhausted, or `max(50·n, 1000)` draws have been made (heavily skewed
    /// distributions may not produce `n` unique keys in reasonable time).
    ///
    /// Values are derived from keys (`value = key.wrapping_mul(31)`), which
    /// keeps datasets cheap to verify in tests.
    pub fn generate(dist: KeyDistribution, lo: u64, hi: u64, n: usize, seed: u64) -> Result<Self> {
        let mut gen = KeyGenerator::new(dist, lo, hi, seed)?;
        let keys = if is_dense(hi - lo, n) {
            dedup_dense(&mut gen, n)
        } else {
            dedup_sparse(&mut gen, n)
        };
        Ok(Dataset::from_sorted_unique(keys))
    }

    /// Wraps keys that are already sorted and unique.
    fn from_sorted_unique(keys: Vec<u64>) -> Self {
        let values = keys.iter().map(|k| k.wrapping_mul(31)).collect();
        Dataset { keys, values }
    }

    /// Builds a dataset directly from keys (deduplicated and sorted here).
    pub fn from_keys(mut keys: Vec<u64>) -> Self {
        keys.sort_unstable();
        keys.dedup();
        Dataset::from_sorted_unique(keys)
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The sorted keys.
    pub fn keys(&self) -> &[u64] {
        &self.keys
    }

    /// The values, aligned with [`Dataset::keys`].
    pub fn values(&self) -> &[u64] {
        &self.values
    }

    /// Sorted `(key, value)` pairs.
    pub fn pairs(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.keys.iter().copied().zip(self.values.iter().copied())
    }

    /// The value for `key`, if present.
    pub fn get(&self, key: u64) -> Option<u64> {
        self.keys
            .binary_search(&key)
            .ok()
            .map(|idx| self.values[idx])
    }

    /// Whether `key` is present.
    pub fn contains(&self, key: u64) -> bool {
        self.keys.binary_search(&key).is_ok()
    }

    /// A uniform sample of `n` keys as `f64` for distribution-distance
    /// computations (deterministic stride sampling).
    pub fn sample_f64(&self, n: usize) -> Vec<f64> {
        if self.keys.is_empty() || n == 0 {
            return Vec::new();
        }
        let stride = (self.keys.len() as f64 / n as f64).max(1.0);
        let mut out = Vec::with_capacity(n);
        let mut pos = 0.0f64;
        while (pos as usize) < self.keys.len() && out.len() < n {
            out.push(self.keys[pos as usize] as f64);
            pos += stride;
        }
        out
    }

    /// Merges `batch` (new arrivals) into the dataset, keeping sort order
    /// and uniqueness. Returns how many keys were actually new.
    pub fn grow(&mut self, batch: &Dataset) -> usize {
        let before = self.keys.len();
        let mut merged_keys = Vec::with_capacity(self.keys.len() + batch.keys.len());
        let mut merged_vals = Vec::with_capacity(merged_keys.capacity());
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.keys.len() || j < batch.keys.len() {
            let take_self = match (self.keys.get(i), batch.keys.get(j)) {
                (Some(a), Some(b)) => {
                    if a == b {
                        j += 1; // drop duplicate from batch
                        continue;
                    }
                    a < b
                }
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            if take_self {
                merged_keys.push(self.keys[i]);
                merged_vals.push(self.values[i]);
                i += 1;
            } else {
                merged_keys.push(batch.keys[j]);
                merged_vals.push(batch.values[j]);
                j += 1;
            }
        }
        self.keys = merged_keys;
        self.values = merged_vals;
        self.keys.len() - before
    }
}

/// Whether a bitmap over a domain of `span` keys is no larger than the
/// `n`-key vector the dataset keeps anyway (`span <= 64·n`).
fn is_dense(span: u64, n: usize) -> bool {
    span.div_ceil(64) <= n as u64
}

/// How many distinct keys to collect, and how many draws to allow, when
/// drawing `n` keys from `gen`'s domain.
fn draw_budget(gen: &KeyGenerator, n: usize) -> (u64, u64) {
    let (lo, hi) = gen.range();
    let target = (hi - lo).min(n as u64);
    let max_draws = (n as u64).saturating_mul(50).max(1000);
    (target, max_draws)
}

/// Deduplicates draws in a bitmap over `[lo, hi)` and emits the keys in
/// order by scanning it: no hash table, no sort. Meant for dense domains,
/// where the bitmap is at most `8·n` bytes.
fn dedup_dense(gen: &mut KeyGenerator, n: usize) -> Vec<u64> {
    let (target, max_draws) = draw_budget(gen, n);
    let (lo, hi) = gen.range();
    let mut bits = vec![0u64; (hi - lo).div_ceil(64) as usize];
    let (mut found, mut draws) = (0u64, 0u64);
    while found < target && draws < max_draws {
        let offset = gen.next_key() - lo;
        let word = &mut bits[(offset / 64) as usize];
        let mask = 1u64 << (offset % 64);
        found += u64::from(*word & mask == 0);
        *word |= mask;
        draws += 1;
    }
    let mut keys = Vec::with_capacity(found as usize);
    for (i, &word) in bits.iter().enumerate() {
        let base = lo + 64 * i as u64;
        let mut rest = word;
        while rest != 0 {
            keys.push(base + u64::from(rest.trailing_zeros()));
            rest &= rest - 1;
        }
    }
    keys
}

/// Deduplicates draws in a hash set, then sorts. Serves any domain width.
fn dedup_sparse(gen: &mut KeyGenerator, n: usize) -> Vec<u64> {
    let (target, max_draws) = draw_budget(gen, n);
    let mut set = std::collections::HashSet::with_capacity(target as usize);
    let mut draws = 0u64;
    while (set.len() as u64) < target && draws < max_draws {
        set.insert(gen.next_key());
        draws += 1;
    }
    let mut keys: Vec<u64> = set.into_iter().collect();
    keys.sort_unstable();
    keys
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keygen::CANONICAL_DISTRIBUTIONS;
    use proptest::prelude::*;

    /// Runs both deduplication paths on the same draws.
    fn both_paths(
        dist: KeyDistribution,
        lo: u64,
        span: u64,
        n: usize,
        seed: u64,
    ) -> (Dataset, Dataset) {
        let gen = || KeyGenerator::new(dist.clone(), lo, lo + span, seed).unwrap();
        (
            Dataset::from_sorted_unique(dedup_dense(&mut gen(), n)),
            Dataset::from_sorted_unique(dedup_sparse(&mut gen(), n)),
        )
    }

    /// Every canonical distribution at its default parameters, plus a Zipf
    /// skewed enough to hit the draw cap.
    fn distribution(pick: usize) -> KeyDistribution {
        match CANONICAL_DISTRIBUTIONS.get(pick) {
            Some((name, _)) => KeyDistribution::from_canonical(name).unwrap(),
            None => KeyDistribution::Zipf { theta: 2.0 },
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn dense_and_sparse_dedup_agree(
            pick in 0usize..CANONICAL_DISTRIBUTIONS.len() + 1,
            seed in any::<u64>(),
            n in 1usize..1500,
            span_kind in 0u8..4,
            span_raw in any::<u64>(),
            near_max in any::<bool>(),
            lo_raw in 0u64..1000,
        ) {
            let n64 = 64 * n as u64;
            let span = match span_kind {
                0 => 1 + span_raw % n as u64, // exhausts the domain
                1 => n64,
                2 => n64 + 1,
                _ => 1 + span_raw % (n64 + 64), // any residue mod 64
            };
            let lo = if near_max { u64::MAX - span - lo_raw } else { lo_raw };
            let (dense, sparse) = both_paths(distribution(pick), lo, span, n, seed);
            prop_assert_eq!(dense, sparse, "dist {} lo {} span {} n {}", pick, lo, span, n);
        }
    }

    #[test]
    fn boundary_cases_select_and_agree() {
        let n = 1000usize;
        let n64 = 64 * n as u64;
        // (span, dense?)
        for (span, dense) in [
            (1, true),
            (n as u64 - 1, true),
            (10 * n as u64, true), // read-archive's ratio
            (25 * n as u64, true), // write-drift's
            (n64 - 1, true),
            (n64, true),
            (n64 + 1, false),
            (100 * n as u64, false), // openloop-capacity's
        ] {
            assert_eq!(is_dense(span, n), dense, "span {span}");
            for lo in [0, 7, u64::MAX - span] {
                let (d, s) = both_paths(KeyDistribution::Uniform, lo, span, n, 3);
                assert_eq!(d, s, "span {span} lo {lo}");
                assert_eq!(d.len() as u64, span.min(n as u64));
            }
        }
        assert!(!is_dense(1, 0), "an empty request never allocates a bitmap");
        assert!(
            !is_dense(u64::MAX, 1_000_000),
            "full-width domains stay sparse"
        );
    }

    #[test]
    fn generate_sorted_unique() {
        let d = Dataset::generate(KeyDistribution::Uniform, 0, 1_000_000, 10_000, 1).unwrap();
        assert_eq!(d.len(), 10_000);
        for w in d.keys().windows(2) {
            assert!(w[0] < w[1], "not sorted-unique");
        }
    }

    #[test]
    fn generate_small_domain_caps() {
        let d = Dataset::generate(KeyDistribution::Uniform, 0, 100, 10_000, 1).unwrap();
        assert!(d.len() <= 100);
        assert!(d.len() > 50, "should nearly exhaust the domain");
    }

    #[test]
    fn skewed_generation_terminates() {
        // zipf(2.0) concentrates on few keys; the draw bound must kick in,
        // at the same draw on both paths.
        let (dense, sparse) = both_paths(KeyDistribution::Zipf { theta: 2.0 }, 0, 10_000, 5_000, 1);
        assert_eq!(dense, sparse);
        assert!(!dense.is_empty() && dense.len() < 5_000, "{}", dense.len());
        assert_eq!(
            Dataset::generate(KeyDistribution::Zipf { theta: 2.0 }, 0, 10_000, 5_000, 1).unwrap(),
            dense
        );
    }

    #[test]
    fn values_derived_from_keys() {
        let d = Dataset::from_keys(vec![3, 1, 2, 2]);
        assert_eq!(d.keys(), &[1, 2, 3]);
        assert_eq!(d.get(2), Some(62));
        assert_eq!(d.get(4), None);
        assert!(d.contains(1));
        assert!(!d.contains(99));
    }

    #[test]
    fn grow_merges_sorted() {
        let mut d = Dataset::from_keys(vec![1, 5, 9]);
        let batch = Dataset::from_keys(vec![2, 5, 10]);
        let added = d.grow(&batch);
        assert_eq!(added, 2);
        assert_eq!(d.keys(), &[1, 2, 5, 9, 10]);
        // Values stay aligned.
        for (k, v) in d.pairs() {
            assert_eq!(v, k.wrapping_mul(31));
        }
    }

    #[test]
    fn grow_with_empty_batch() {
        let mut d = Dataset::from_keys(vec![1, 2]);
        let added = d.grow(&Dataset::from_keys(vec![]));
        assert_eq!(added, 0);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn sample_f64_spans_dataset() {
        let d = Dataset::from_keys((0..1000).collect());
        let s = d.sample_f64(100);
        assert_eq!(s.len(), 100);
        assert_eq!(s[0], 0.0);
        assert!(*s.last().unwrap() > 900.0);
    }

    #[test]
    fn sample_f64_edge_cases() {
        let d = Dataset::from_keys(vec![]);
        assert!(d.sample_f64(10).is_empty());
        let d = Dataset::from_keys(vec![5]);
        assert_eq!(d.sample_f64(10), vec![5.0]);
    }
}
