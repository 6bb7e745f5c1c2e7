//! # msf-primitives
//!
//! Shared-memory parallel primitives substrate for the MSF algorithm suite,
//! reproducing the building blocks Bader & Cong's implementation drew from
//! the SIMPLE methodology (Bader & JáJá 1999) and from Helman & JáJá's SMP
//! algorithm-engineering work:
//!
//! * [`pool`] — the persistent work-stealing execution backend (re-export
//!   of the `msf-pool` crate): process-global stealing workers with
//!   mutex-guarded job queues behind `join` and the data-parallel loops every
//!   kernel uses (`map_collect`, `map_mut`, `fill_regions`), and the
//!   `MSF_SEQUENTIAL` escape hatch. The paper's per-processor steps ("for
//!   processor p_i") are `map_collect(p, 1, …)` tasks on it.
//! * [`prefix`] — the sequential exclusive scan and parallel compaction.
//! * [`csr`] — compressed sparse rows by a `p`-block counting sort, the
//!   shared builder of every adjacency and grouping laid out in parallel.
//! * [`sort`] — insertion sort, non-recursive merge sort, and the parallel
//!   sample sort used by the Bor-EL compact-graph step.
//! * [`connectivity`] — pointer-jumping components for Borůvka hook forests,
//!   Shiloach–Vishkin components for arbitrary edge lists, and the lock-free
//!   CAS-hooking union–find of Filter-Kruskal.
//! * [`atomic`] — lock-free atomic write-min slots (the parlaylib race
//!   replacing barriered segmented find-min), with the order-isomorphic
//!   `(weight bits, edge id)` packed key.
//! * [`fused`] — single-pass fused filter/relabel/compact kernels (one
//!   DRAM sweep per contraction round instead of several) and the
//!   `kernel.fused_bytes_read` traffic observable.
//! * [`unionfind`] — sequential union–find (rank + path compression).
//! * [`heap`] — an indexed binary heap with `decrease-key` for Prim-style
//!   tree growth.
//! * [`permutation`] — parallel random permutation (Sanders-style), used by
//!   MST-BC to guarantee progress with high probability.
//! * [`arena`] — per-thread bump arenas, the Bor-ALM memory manager.
//! * [`split`] — contiguous blocks of about equal total weight, for loops
//!   whose items cost very different amounts (Bor-FAL's and MST-BC's
//!   adjacency scans on skewed graphs).
//! * [`steal`] — work-stealing vertex partitions (owner takes from the head,
//!   thieves from the tail), as described in §4 of the paper.
//! * [`cost`] — per-thread work meters and per-step timers in the spirit of
//!   the Helman–JáJá SMP cost model (memory accesses + computation), used to
//!   produce deterministic modeled speedup curves on machines with fewer
//!   physical cores than the paper's testbed.
//! * [`obs`] — the observability subsystem (re-export of the `msf-obs`
//!   crate): per-thread lock-free event rings, span tracing over the
//!   Borůvka step loops and MST-BC's growers, and chrome-trace export,
//!   gated by `MSF_TRACE` (see DESIGN.md §11).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use msf_obs as obs;
pub use msf_pool as pool;

pub mod arena;
pub mod atomic;
pub mod connectivity;
pub mod cost;
pub mod csr;
pub mod fused;
pub mod heap;
pub mod permutation;
pub mod prefix;
pub mod sort;
pub mod split;
pub mod steal;
pub mod unionfind;

/// Decide how many items of `n` a chunk owned by thread `t` of `p` receives,
/// handing out the remainder one item at a time to the lowest-ranked threads.
///
/// Returns the half-open range `[start, end)` of the `t`-th block.
#[inline]
pub fn block_range(n: usize, p: usize, t: usize) -> std::ops::Range<usize> {
    debug_assert!(p > 0 && t < p);
    let base = n / p;
    let rem = n % p;
    let start = t * base + t.min(rem);
    let len = base + usize::from(t < rem);
    start..start + len
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_ranges_partition_exactly() {
        for n in [0usize, 1, 2, 7, 64, 1000, 1001] {
            for p in 1..=9usize {
                let mut covered = 0usize;
                let mut prev_end = 0usize;
                for t in 0..p {
                    let r = block_range(n, p, t);
                    assert_eq!(r.start, prev_end, "blocks must be contiguous");
                    prev_end = r.end;
                    covered += r.len();
                }
                assert_eq!(prev_end, n);
                assert_eq!(covered, n);
            }
        }
    }

    #[test]
    fn block_ranges_are_balanced() {
        for n in [10usize, 100, 101, 999] {
            for p in 1..=8usize {
                let sizes: Vec<usize> = (0..p).map(|t| block_range(n, p, t).len()).collect();
                let min = *sizes.iter().min().unwrap();
                let max = *sizes.iter().max().unwrap();
                assert!(max - min <= 1, "n={n} p={p} sizes={sizes:?}");
            }
        }
    }
}
