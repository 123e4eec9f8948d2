//! Pinned digests of dense-domain datasets.
//!
//! `Dataset::generate` picks its deduplication strategy from the domain's
//! density. These digests were measured while every domain still went
//! through the hash-set path, so they pin that the bitmap path used for
//! dense domains accepts the same keys from the same draws.

use lsbench_workload::{Dataset, KeyDistribution};

/// FNV-1a over the little-endian bytes of every key, in order.
fn keys_digest(d: &Dataset) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for k in d.keys() {
        for b in k.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The standard suite's base distribution.
const SUITE_BASE: KeyDistribution = KeyDistribution::LogNormal {
    mu: 0.0,
    sigma: 1.2,
};

#[test]
fn suite_base_lognormal_seed_1() {
    let d = Dataset::generate(SUITE_BASE, 0, 10_000_000, 200_000, 1).unwrap();
    assert_eq!(d.len(), 200_000);
    assert_eq!(keys_digest(&d), 0x9cc4_ad81_3ede_e624);
}

#[test]
fn suite_base_lognormal_seed_2026() {
    let d = Dataset::generate(SUITE_BASE, 0, 10_000_000, 200_000, 2026).unwrap();
    assert_eq!(d.len(), 200_000);
    assert_eq!(keys_digest(&d), 0xdc04_5e39_574a_3044);
}

#[test]
fn uniform_unaligned_domain() {
    // Neither bound is a multiple of 64.
    let d = Dataset::generate(KeyDistribution::Uniform, 5, 1_000_008, 50_000, 7).unwrap();
    assert_eq!(d.len(), 50_000);
    assert_eq!(keys_digest(&d), 0xec6d_255d_3c72_a0ac);
}
