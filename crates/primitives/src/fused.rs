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
//!   write-min race rides inside it), and a compacted output written with
//!   the existing prefix/chunk machinery. Per-block staging plus parallel
//!   placement keeps everything safe (`#![forbid(unsafe_code)]`): block
//!   survivors land in per-block vectors, an exclusive scan of their
//!   lengths fixes each block's output region, and the regions — obtained
//!   by repeated `split_at_mut` — are filled concurrently.
//! * [`partition_compact`] — the two-way variant behind filter-Kruskal's
//!   light/heavy pivot split: one read, two compacted outputs.
//!
//! Every contraction call site uses these kernels; there is no multi-pass
//! alternative. Survivors keep index order at every `p`, so a kernel's
//! output is the same at every thread count.
//!
//! Kernel traffic is observable: [`record_traffic`] feeds the
//! `kernel.fused_bytes_read` registry counter (a [`LazyCounter`], free when
//! metrics are off), which `msf bench --json` pre-registers and
//! EXPERIMENTS.md's bandwidth accounting reads against analytic
//! bytes-per-edge estimates.

use std::sync::OnceLock;

use crate::obs::metrics::LazyCounter;
use crate::pool;
use crate::prefix::{exclusive_scan, PAR_THRESHOLD};

static FUSED_BYTES_READ: LazyCounter = LazyCounter::new("kernel.fused_bytes_read");

/// Whether the host has at least two hardware threads — the gate for
/// placement strategies that trade extra writes for concurrency. Pool
/// width deliberately does not enter: an oversubscribed pool on a 1-core
/// host still executes one copy at a time.
fn parallel_host() -> bool {
    static HOST: OnceLock<bool> = OnceLock::new();
    *HOST.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get() >= 2)
            .unwrap_or(false)
    })
}

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
///
/// `fill` is a throwaway element used to initialize the output buffer
/// (survivor placement is a safe overwrite, never an uninitialized write).
pub fn filter_compact_indexed<U: Copy + Send + Sync>(
    len: usize,
    p: usize,
    fill: U,
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
    // Placement: exclusive scan of block lengths sizes the output exactly,
    // then the p block runs are spliced in order. Concurrent placement
    // writes the output twice (the `fill` initialization, then the copy
    // into disjoint `split_at_mut` regions — the price of staying inside
    // `#![forbid(unsafe_code)]`), so it only pays for itself when at least
    // two hardware threads can actually run the copies; on a serial host
    // the blocks are spliced once, in order.
    let mut lens: Vec<usize> = parts.iter().map(Vec::len).collect();
    let total = exclusive_scan(&mut lens);
    if !parallel_host() {
        let mut out = Vec::with_capacity(total);
        for part in &parts {
            out.extend_from_slice(part);
        }
        return out;
    }
    let mut out = vec![fill; total];
    let mut copies: Vec<(Vec<U>, &mut [U])> = Vec::with_capacity(p);
    let mut rest: &mut [U] = &mut out;
    for part in parts {
        let (head, tail) = rest.split_at_mut(part.len());
        copies.push((part, head));
        rest = tail;
    }
    // Each block's staging vector is freed by the task that copied it.
    pool::map_mut(&mut copies, |_, (part, dst)| {
        dst.copy_from_slice(&std::mem::take(part))
    });
    out
}

/// [`filter_compact_indexed`] over a slice: one read of each input item,
/// compacted mapped survivors out. Records the input sweep (and the
/// survivor write-back) as fused traffic.
pub fn filter_relabel_compact<T: Sync, U: Copy + Send + Sync>(
    input: &[T],
    p: usize,
    fill: U,
    visit: impl Fn(usize, &T) -> Option<U> + Sync,
) -> Vec<U> {
    let out = filter_compact_indexed(input.len(), p, fill, |i| visit(i, &input[i]));
    record_traffic((std::mem::size_of_val(input) + std::mem::size_of_val(out.as_slice())) as u64);
    out
}

/// Two-way fused partition: one read of each item, two compacted outputs
/// (both preserving index order) — filter-Kruskal's light/heavy pivot
/// split. `classify` returns `true` for the first (light) side.
pub fn partition_compact<T: Sync + Copy + Send>(
    input: &[T],
    p: usize,
    classify: impl Fn(usize, &T) -> bool + Sync,
) -> (Vec<T>, Vec<T>) {
    let len = input.len();
    let p = p.max(1);
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
        record_traffic(std::mem::size_of_val(input) as u64 * 2);
        return (light, heavy);
    }
    let parts: Vec<(Vec<T>, Vec<T>)> = pool::map_collect(p, 1, |t| {
        let r = crate::block_range(len, p, t);
        let mut light = Vec::with_capacity(r.len());
        let mut heavy = Vec::new();
        for i in r {
            if classify(i, &input[i]) {
                light.push(input[i]);
            } else {
                heavy.push(input[i]);
            }
        }
        (light, heavy)
    });
    fn pick<T>(pr: &(Vec<T>, Vec<T>), side: usize) -> &Vec<T> {
        if side == 0 {
            &pr.0
        } else {
            &pr.1
        }
    }
    let place = |side: usize| -> Vec<T> {
        let mut lens: Vec<usize> = parts.iter().map(|pr| pick(pr, side).len()).collect();
        let total = exclusive_scan(&mut lens);
        let mut out = Vec::with_capacity(total);
        for pr in &parts {
            out.extend_from_slice(pick(pr, side));
        }
        out
    };
    let light = place(0);
    let heavy = place(1);
    record_traffic(std::mem::size_of_val(input) as u64 * 2);
    (light, heavy)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_preserves_order_and_drops_losers() {
        let data: Vec<u32> = (0..100).collect();
        let out = filter_relabel_compact(&data, 3, 0u32, |_, &x| (x % 3 == 0).then_some(x * 2));
        let expect: Vec<u32> = (0..100).filter(|x| x % 3 == 0).map(|x| x * 2).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn parallel_and_sequential_paths_agree() {
        let data: Vec<u64> = (0..(PAR_THRESHOLD as u64 + 999))
            .map(|x| x * 7 % 1013)
            .collect();
        let keep = |_: usize, &x: &u64| (x % 5 != 0).then_some(x + 1);
        let seq = filter_relabel_compact(&data, 1, 0u64, keep);
        for p in [2, 3, 7, 8] {
            assert_eq!(filter_relabel_compact(&data, p, 0u64, keep), seq, "p {p}");
        }
        let pooled_seq =
            crate::pool::with_sequential(|| filter_relabel_compact(&data, 8, 0u64, keep));
        assert_eq!(pooled_seq, seq);
    }

    #[test]
    fn visit_sees_each_index_exactly_once() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let n = PAR_THRESHOLD + 17;
        let hits: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
        let out = filter_compact_indexed(n, 4, 0usize, |i| {
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
    fn empty_and_tiny_inputs() {
        let out = filter_relabel_compact(&[] as &[u8], 4, 0u8, |_, &x| Some(x));
        assert!(out.is_empty());
        let (l, h) = partition_compact(&[1u8, 2, 3], 4, |_, &x| x < 3);
        assert_eq!((l, h), (vec![1, 2], vec![3]));
    }
}
