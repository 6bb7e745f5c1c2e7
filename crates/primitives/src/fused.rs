//! Fused single-pass filter/relabel/compact kernels — the bandwidth-lean
//! contraction core.
//!
//! The paper's per-round contraction pipeline streams the edge array several
//! times: a find-min pass, a relabel pass, a self-loop filter, and a compact
//! write. On memory-bandwidth-bound sparse inputs (Sanders & Schimek's
//! observation, PAPERS.md) each extra pass is a full DRAM sweep of the edge
//! array. The kernels here collapse those passes:
//!
//! * [`filter_relabel_compact`] — one read of each input item, a caller
//!   `visit` closure that relabels/filters/side-effects (the fused
//!   write-min race rides inside it), and a compacted output. Each block
//!   stages its survivors in a vector of its own; then every block copies
//!   its run, in parallel, into its region of the uninitialised output
//!   ([`pool::fill_regions`]).
//! * [`partition_compact`] — the two-way variant behind filter-Kruskal's
//!   light/heavy pivot split. Each block counts its light items, then
//!   writes every item straight into its region of the light or heavy
//!   output: no staging and no serial splice.
//!
//! Every contraction call site uses these kernels; there is no multi-pass
//! alternative. Survivors keep index order at every `p`, so a kernel's
//! output is the same at every thread count. The placement's one `unsafe`
//! block lives in `msf-pool`; this crate stays `#![forbid(unsafe_code)]`.
//!
//! Kernel traffic is observable: [`record_traffic`] feeds the
//! `kernel.fused_bytes_read` registry counter (a [`LazyCounter`], free when
//! metrics are off), which `msf bench --json` pre-registers and
//! EXPERIMENTS.md's bandwidth accounting reads against analytic
//! bytes-per-edge estimates.

use crate::obs::metrics::LazyCounter;
use crate::pool;
use crate::prefix::PAR_THRESHOLD;

static FUSED_BYTES_READ: LazyCounter = LazyCounter::new("kernel.fused_bytes_read");

/// Account `bytes` of fused-kernel read traffic to the
/// `kernel.fused_bytes_read` counter. Call sites with side-band reads the
/// kernels cannot see (label tables, union-find probes) add them here.
#[inline]
pub fn record_traffic(bytes: u64) {
    FUSED_BYTES_READ.add(bytes);
}

/// The fused relabel+filter+compact kernel over an implicit index domain
/// `0..len`: `visit(i)` reads item `i` exactly once, applies the caller's
/// relabeling, and returns `Some(mapped)` for survivors (side effects —
/// e.g. the next round's write-min race — ride along). Survivors are
/// written to a compacted output preserving index order.
pub fn filter_compact_indexed<U: Copy + Send + Sync>(
    len: usize,
    p: usize,
    visit: impl Fn(usize) -> Option<U> + Sync,
) -> Vec<U> {
    let p = p.max(1);
    // Take the single-buffer path whenever no second worker can exist:
    // staging + placement only pays for itself when blocks actually run
    // concurrently, and the visit order between the two paths is
    // observationally identical (each index exactly once; survivors in
    // index order).
    if p == 1 || len < PAR_THRESHOLD || pool::runs_inline() {
        let mut out = Vec::with_capacity(len);
        for i in 0..len {
            if let Some(u) = visit(i) {
                out.push(u);
            }
        }
        return out;
    }
    // Pass 1: each block reads its range once, staging survivors locally.
    // `visit` runs once per index, so the staging cannot be replaced by a
    // count pass: the closure may carry a race.
    let parts: Vec<Vec<U>> = pool::map_collect(p, 1, |t| {
        let r = crate::block_range(len, p, t);
        let mut out = Vec::with_capacity(r.len());
        for i in r {
            if let Some(u) = visit(i) {
                out.push(u);
            }
        }
        out
    });
    // Placement: every block copies its run into its region of the
    // output, in parallel.
    let lens: Vec<[usize; 1]> = parts.iter().map(|part| [part.len()]).collect();
    let [out] = pool::fill_regions(&lens, |t, [region]| region.extend_from_slice(&parts[t]));
    out
}

/// [`filter_compact_indexed`] over a slice: one read of each input item,
/// compacted mapped survivors out. Records the input sweep (and the
/// survivor write-back) as fused traffic.
pub fn filter_relabel_compact<T: Sync, U: Copy + Send + Sync>(
    input: &[T],
    p: usize,
    visit: impl Fn(usize, &T) -> Option<U> + Sync,
) -> Vec<U> {
    let out = filter_compact_indexed(input.len(), p, |i| visit(i, &input[i]));
    record_traffic((std::mem::size_of_val(input) + std::mem::size_of_val(out.as_slice())) as u64);
    out
}

/// Two-way fused partition: two compacted outputs (both preserving index
/// order) — filter-Kruskal's light/heavy pivot split. `classify` returns
/// `true` for the first (light) side. It must give the same answer for an
/// item every time: at `p ≥ 2` each block calls it once to count its light
/// items and once to place them (an inconsistent answer panics as an
/// under- or over-filled region). The recorded traffic is one read and one
/// write per item at every `p`.
pub fn partition_compact<T: Sync + Copy + Send>(
    input: &[T],
    p: usize,
    classify: impl Fn(usize, &T) -> bool + Sync,
) -> (Vec<T>, Vec<T>) {
    let len = input.len();
    let p = p.max(1);
    record_traffic(std::mem::size_of_val(input) as u64 * 2);
    if p == 1 || len < PAR_THRESHOLD || pool::runs_inline() {
        let mut light = Vec::with_capacity(len);
        let mut heavy = Vec::new();
        for (i, t) in input.iter().enumerate() {
            if classify(i, t) {
                light.push(*t);
            } else {
                heavy.push(*t);
            }
        }
        return (light, heavy);
    }
    // Count pass: a block's light count sizes its regions of both outputs.
    let lens: Vec<[usize; 2]> = pool::map_collect(p, 1, |t| {
        let r = crate::block_range(len, p, t);
        let light = r.clone().filter(|&i| classify(i, &input[i])).count();
        [light, r.len() - light]
    });
    // Placement pass: every item goes straight into its block's region.
    let [light, heavy] = pool::fill_regions(&lens, |t, [light, heavy]| {
        for i in crate::block_range(len, p, t) {
            if classify(i, &input[i]) {
                light.push(input[i]);
            } else {
                heavy.push(input[i]);
            }
        }
    });
    (light, heavy)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_preserves_order_and_drops_losers() {
        let data: Vec<u32> = (0..100).collect();
        let out = filter_relabel_compact(&data, 3, |_, &x| (x % 3 == 0).then_some(x * 2));
        let expect: Vec<u32> = (0..100).filter(|x| x % 3 == 0).map(|x| x * 2).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn parallel_and_sequential_paths_agree() {
        let data: Vec<u64> = (0..(PAR_THRESHOLD as u64 + 999))
            .map(|x| x * 7 % 1013)
            .collect();
        let keep = |_: usize, &x: &u64| (x % 5 != 0).then_some(x + 1);
        let seq = filter_relabel_compact(&data, 1, keep);
        for p in [2, 3, 7, 8] {
            assert_eq!(filter_relabel_compact(&data, p, keep), seq, "p {p}");
        }
        let pooled_seq = crate::pool::with_sequential(|| filter_relabel_compact(&data, 8, keep));
        assert_eq!(pooled_seq, seq);
    }

    #[test]
    fn visit_sees_each_index_exactly_once() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let n = PAR_THRESHOLD + 17;
        let hits: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
        let out = filter_compact_indexed(n, 4, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
            Some(i)
        });
        assert_eq!(out, (0..n).collect::<Vec<_>>());
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn partition_splits_both_sides_in_order() {
        let data: Vec<u32> = (0..(PAR_THRESHOLD as u32 + 321)).collect();
        for p in [1, 2, 5, 8] {
            let (light, heavy) = partition_compact(&data, p, |_, &x| x % 2 == 0);
            assert_eq!(
                light,
                data.iter()
                    .copied()
                    .filter(|x| x % 2 == 0)
                    .collect::<Vec<_>>(),
                "p {p}"
            );
            assert_eq!(
                heavy,
                data.iter()
                    .copied()
                    .filter(|x| x % 2 == 1)
                    .collect::<Vec<_>>(),
                "p {p}"
            );
        }
    }

    #[test]
    fn partition_handles_all_light_and_all_heavy_blocks() {
        // Block 0 is all light and every other block all heavy, then the
        // reverse, then one side empty.
        let n = 3 * PAR_THRESHOLD + 5;
        let data: Vec<u32> = (0..n as u32).collect();
        for p in [2, 3, 7] {
            let first = crate::block_range(n, p, 0);
            let (head, tail) = data.split_at(first.end);
            let (light, heavy) = partition_compact(&data, p, |i, _| first.contains(&i));
            assert_eq!((light.as_slice(), heavy.as_slice()), (head, tail), "p {p}");
            let (light, heavy) = partition_compact(&data, p, |i, _| !first.contains(&i));
            assert_eq!((light.as_slice(), heavy.as_slice()), (tail, head), "p {p}");
            let (all, none) = partition_compact(&data, p, |_, _| true);
            assert_eq!((all.as_slice(), none.len()), (data.as_slice(), 0), "p {p}");
            let (none, all) = partition_compact(&data, p, |_, _| false);
            assert_eq!((none.len(), all.as_slice()), (0, data.as_slice()), "p {p}");
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let out = filter_relabel_compact(&[] as &[u8], 4, |_, &x| Some(x));
        assert!(out.is_empty());
        let (l, h) = partition_compact(&[1u8, 2, 3], 4, |_, &x| x < 3);
        assert_eq!((l, h), (vec![1, 2], vec![3]));
    }
}
