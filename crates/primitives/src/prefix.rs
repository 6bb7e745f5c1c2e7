//! Prefix sums (scans) and scan-based compaction.
//!
//! Borůvka's `compact-graph` step merges runs of duplicate edges with a
//! prefix-sum pass (paper §2.1); [`par_filter`] follows the standard chunked
//! two-pass scheme: each thread counts its block's survivors, an exclusive
//! scan over the block counts sizes the output, and a second pass copies
//! each block's survivors out in order.

use crate::pool;

/// Minimum input length before the parallel kernels fall back to the
/// sequential code path; below this the fork/join overhead dominates.
pub const PAR_THRESHOLD: usize = 1 << 14;

/// In-place sequential exclusive prefix sum. Returns the total.
///
/// `[3, 1, 4]` becomes `[0, 3, 4]` and `8` is returned.
pub fn exclusive_scan(data: &mut [usize]) -> usize {
    let mut acc = 0usize;
    for x in data.iter_mut() {
        let v = *x;
        *x = acc;
        acc += v;
    }
    acc
}

/// Parallel compaction: keep the elements of `data` whose flag is set,
/// preserving order. This is the scatter phase shared by the compact-graph
/// implementations.
pub fn par_filter<T: Copy + Send + Sync>(data: &[T], keep: &[bool], chunks: usize) -> Vec<T> {
    assert_eq!(data.len(), keep.len());
    let n = data.len();
    if n < PAR_THRESHOLD || chunks <= 1 {
        return data
            .iter()
            .zip(keep)
            .filter(|&(_, &k)| k)
            .map(|(&x, _)| x)
            .collect();
    }
    let chunk = n.div_ceil(chunks);
    let blocks = n.div_ceil(chunk);
    let block = |c: usize| c * chunk..((c + 1) * chunk).min(n);
    let counts: Vec<[usize; 1]> = pool::map_collect(blocks, 1, |c| {
        [keep[block(c)].iter().filter(|&&k| k).count()]
    });
    // Each block writes its survivors straight into its region of the
    // output.
    let [out] = pool::fill_regions(&counts, |c, [region]| {
        let r = block(c);
        for (&x, _) in data[r.clone()].iter().zip(&keep[r]).filter(|&(_, &k)| k) {
            region.push(x);
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exclusive_scan_basics() {
        let mut v = vec![3, 1, 4, 1, 5];
        let total = exclusive_scan(&mut v);
        assert_eq!(v, vec![0, 3, 4, 8, 9]);
        assert_eq!(total, 14);
        let mut empty: Vec<usize> = vec![];
        assert_eq!(exclusive_scan(&mut empty), 0);
    }

    #[test]
    fn par_filter_matches_sequential() {
        let n = PAR_THRESHOLD + 41;
        let data: Vec<u64> = (0..n as u64).collect();
        let keep: Vec<bool> = (0..n).map(|i| i % 3 != 1).collect();
        let expect: Vec<u64> = data
            .iter()
            .zip(&keep)
            .filter(|&(_, &k)| k)
            .map(|(&x, _)| x)
            .collect();
        assert_eq!(par_filter(&data, &keep, 4), expect);
        assert_eq!(par_filter(&data[..100], &keep[..100], 4).len(), {
            keep[..100].iter().filter(|&&k| k).count()
        });
    }
}
