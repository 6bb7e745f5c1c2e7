//! Parallel sample sort (Helman & JáJá, ALENEX'99).
//!
//! This is the sort at the heart of Bor-EL's compact-graph step (§2.1): the
//! whole edge list is sorted with supervertex(u) as the primary key,
//! supervertex(v) as the secondary key, and the weight as the tertiary key,
//! after which self-loops and multi-edges occupy consecutive positions.
//!
//! The classic three phases: (1) draw an oversampled set of keys and pick
//! `buckets - 1` splitters; (2) every thread partitions its block of the
//! input into buckets by binary-searching the splitters; (3) each bucket is
//! sorted independently in parallel (with this crate's bottom-up merge sort)
//! and the buckets are concatenated.

use super::merge_sort_by;
use crate::{block_range, pool};

/// Tuning knobs for [`sample_sort_by_key`].
#[derive(Debug, Clone, Copy)]
pub struct SampleSortConfig {
    /// Number of buckets (and of parallel block scans). Defaults to the
    /// pool width.
    pub buckets: usize,
    /// Sample-per-bucket oversampling ratio; larger samples give more even
    /// buckets at the cost of a longer (sequential) splitter-selection step.
    pub oversample: usize,
    /// Inputs shorter than this are sorted sequentially.
    pub seq_threshold: usize,
}

impl Default for SampleSortConfig {
    fn default() -> Self {
        SampleSortConfig {
            buckets: pool::width(),
            oversample: 32,
            seq_threshold: 1 << 13,
        }
    }
}

/// Sort `data` by an extracted key, returning the sorted vector.
///
/// The sort is stable for equal keys (blocks are scanned in order and the
/// per-bucket merge sort is stable), which compact-graph relies on when it
/// keeps the first (minimum-weight) edge of a duplicate run.
pub fn sample_sort_by_key<T, K, F>(data: Vec<T>, key: F, cfg: SampleSortConfig) -> Vec<T>
where
    T: Copy + Send + Sync,
    K: Ord + Copy + Send + Sync,
    F: Fn(&T) -> K + Sync,
{
    let n = data.len();
    let buckets = cfg.buckets.max(1);
    if n <= cfg.seq_threshold || buckets == 1 {
        let mut out = data;
        merge_sort_by(&mut out, |a, b| key(a) < key(b));
        return out;
    }

    // Phase 1: regular sampling. A deterministic stride sample behaves like
    // random sampling on the already-unordered edge lists we feed it and
    // keeps runs reproducible.
    let sample_size = (buckets * cfg.oversample).min(n);
    let stride = n / sample_size;
    let mut sample: Vec<K> = (0..sample_size).map(|i| key(&data[i * stride])).collect();
    sample.sort_unstable();
    let splitters: Vec<K> = (1..buckets)
        .map(|b| sample[b * sample_size / buckets])
        .collect();

    // Phase 2: each block partitions its elements into per-bucket vectors.
    // `partition_point` on the sorted splitters gives the bucket index; ties
    // go to the right bucket boundary consistently, preserving stability.
    let parts: Vec<Vec<Vec<T>>> = pool::map_collect(buckets, 1, |t| {
        let r = block_range(n, buckets, t);
        let mut local: Vec<Vec<T>> = (0..buckets)
            .map(|_| Vec::with_capacity(r.len() / buckets + 1))
            .collect();
        for item in &data[r] {
            let k = key(item);
            let b = splitters.partition_point(|s| *s <= k);
            local[b].push(*item);
        }
        local
    });
    drop(data);

    // Phase 3: gather each bucket (block order preserves stability) and sort.
    let sorted_buckets: Vec<Vec<T>> = pool::map_collect(buckets, 1, |b| {
        let mut bucket: Vec<T> = Vec::with_capacity(parts.iter().map(|p| p[b].len()).sum());
        for part in &parts {
            bucket.extend_from_slice(&part[b]);
        }
        merge_sort_by(&mut bucket, |a, b| key(a) < key(b));
        bucket
    });

    let mut out = Vec::with_capacity(n);
    for bucket in sorted_buckets {
        out.extend_from_slice(&bucket);
    }
    debug_assert_eq!(out.len(), n);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn cfg(buckets: usize) -> SampleSortConfig {
        SampleSortConfig {
            buckets,
            oversample: 8,
            seq_threshold: 16,
        }
    }

    #[test]
    fn sorts_large_input() {
        let data: Vec<u64> = (0..100_000u64)
            .map(|i| i.wrapping_mul(0x9e3779b97f4a7c15))
            .collect();
        let mut expect = data.clone();
        expect.sort_unstable();
        let got = sample_sort_by_key(data, |&x| x, cfg(4));
        assert_eq!(got, expect);
    }

    #[test]
    fn stable_for_equal_keys() {
        // Key is value % 4; payload records original index.
        let data: Vec<(u64, usize)> = (0..50_000).map(|i| ((i as u64 * 7) % 4, i)).collect();
        let got = sample_sort_by_key(data, |&(k, _)| k, cfg(4));
        for w in got.windows(2) {
            assert!(w[0].0 < w[1].0 || (w[0].0 == w[1].0 && w[0].1 < w[1].1));
        }
    }

    #[test]
    fn handles_skewed_and_constant_keys() {
        let data: Vec<u32> = vec![7; 40_000];
        let got = sample_sort_by_key(data, |&x| x, cfg(8));
        assert!(got.iter().all(|&x| x == 7));
        assert_eq!(got.len(), 40_000);

        let skew: Vec<u32> = (0..40_000)
            .map(|i| if i % 100 == 0 { i as u32 } else { 3 })
            .collect();
        let mut expect = skew.clone();
        expect.sort_unstable();
        assert_eq!(sample_sort_by_key(skew, |&x| x, cfg(8)), expect);
    }

    #[test]
    fn single_bucket_falls_back() {
        let data: Vec<u32> = (0..1000).rev().collect();
        let got = sample_sort_by_key(data, |&x| x, cfg(1));
        assert_eq!(got, (0..1000).collect::<Vec<u32>>());
    }

    proptest! {
        #[test]
        fn matches_std_sort(v in proptest::collection::vec(any::<u32>(), 0..5000),
                            buckets in 1usize..9) {
            let mut expect = v.clone();
            expect.sort_unstable();
            let got = sample_sort_by_key(v, |&x| x, cfg(buckets));
            prop_assert_eq!(got, expect);
        }
    }
}
