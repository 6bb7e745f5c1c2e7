//! Shiloach–Vishkin-style parallel connected components on an edge list.
//!
//! The practical variant with two alternating phases per round:
//!
//! * **hook** — every edge (u, v) tries to attach the larger current label's
//!   root under the smaller label with an atomic `fetch_min`;
//! * **shortcut** — every vertex pointer-jumps to its grandparent.
//!
//! Labels only ever decrease, so the races inherent in the concurrent
//! `fetch_min` stores are benign and the algorithm converges; with the
//! shortcut phase the number of rounds is O(log n) on all the graphs this
//! suite generates. MST-BC uses this to contract its mature subtrees
//! (paper §4, step 4).

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

use crate::pool;

/// Edge lists shorter than this run the sequential union–find instead.
const PAR_THRESHOLD: usize = 1 << 14;

/// Compute connected components of the `n`-vertex graph with the given
/// undirected edges. Returns canonical per-vertex root ids (the minimum
/// vertex of each component points at itself).
pub fn connected_components(n: usize, edges: &[(u32, u32)]) -> Vec<u32> {
    if edges.len() < PAR_THRESHOLD {
        return super::seq::components_union_find(n, edges.iter().copied());
    }
    let parent: Vec<AtomicU32> = (0..n as u32).map(AtomicU32::new).collect();
    let changed = AtomicBool::new(true);
    let mut rounds = 0usize;
    while changed.swap(false, Ordering::Relaxed) {
        rounds += 1;
        assert!(rounds <= 64 + n.ilog2() as usize, "SV failed to converge");
        // Hook phase.
        pool::map_collect(edges.len(), 1, |i| {
            let (u, v) = edges[i];
            let pu = parent[u as usize].load(Ordering::Relaxed);
            let pv = parent[v as usize].load(Ordering::Relaxed);
            if pu == pv {
                return;
            }
            let (hi, lo) = if pu > pv { (pu, pv) } else { (pv, pu) };
            let prev = parent[hi as usize].fetch_min(lo, Ordering::Relaxed);
            if prev > lo {
                changed.store(true, Ordering::Relaxed);
            }
        });
        // Shortcut phase: jump every vertex all the way to its current root.
        pool::map_collect(n, 1, |v| {
            let slot = &parent[v];
            let mut p = slot.load(Ordering::Relaxed);
            let mut g = parent[p as usize].load(Ordering::Relaxed);
            while g != p {
                p = g;
                g = parent[p as usize].load(Ordering::Relaxed);
            }
            slot.store(p, Ordering::Relaxed);
        });
    }
    let mut roots: Vec<u32> = parent.into_iter().map(AtomicU32::into_inner).collect();
    // Final cleanup jump: hooks racing with shortcuts can leave one level of
    // indirection behind in the last round.
    crate::connectivity::pointer_jump::jump_to_roots(&mut roots);
    canonicalize(&mut roots);
    roots
}

/// Rewrite roots so every component is represented by its minimum vertex.
/// `fetch_min` hooking already drives labels toward minima, but interleaved
/// hooks can settle on a non-minimal root; one linear pass fixes that.
fn canonicalize(roots: &mut [u32]) {
    let n = roots.len();
    let mut min_of_root = vec![u32::MAX; n];
    for (v, &r) in roots.iter().enumerate() {
        min_of_root[r as usize] = min_of_root[r as usize].min(v as u32);
    }
    for r in roots.iter_mut() {
        *r = min_of_root[*r as usize];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connectivity::seq::components_union_find;
    use rand::prelude::*;

    #[test]
    fn small_graph_matches_union_find() {
        let edges = vec![(0u32, 1u32), (2, 3), (3, 4), (6, 7)];
        assert_eq!(
            connected_components(8, &edges),
            components_union_find(8, edges.iter().copied())
        );
    }

    #[test]
    fn large_random_graph_matches_union_find() {
        let mut rng = StdRng::seed_from_u64(42);
        let n = 20_000usize;
        let m = 60_000usize;
        let edges: Vec<(u32, u32)> = (0..m)
            .map(|_| (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32)))
            .collect();
        assert_eq!(
            connected_components(n, &edges),
            components_union_find(n, edges.iter().copied())
        );
    }

    #[test]
    fn long_path_converges() {
        let n = 40_000usize;
        let edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        let roots = connected_components(n, &edges);
        assert!(roots.iter().all(|&r| r == 0));
    }

    #[test]
    fn star_converges_in_one_round() {
        let n = 50_000usize;
        let edges: Vec<(u32, u32)> = (1..n as u32).map(|i| (0, i)).collect();
        let roots = connected_components(n, &edges);
        assert!(roots.iter().all(|&r| r == 0));
    }

    #[test]
    fn disconnected_pieces_keep_distinct_roots() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 30_000usize;
        // Edges only within [0, n/2) and [n/2, n).
        let half = n as u32 / 2;
        let mut edges = Vec::new();
        for _ in 0..40_000 {
            let a = rng.gen_range(0..half);
            let b = rng.gen_range(0..half);
            edges.push((a, b));
            edges.push((a + half, b + half));
        }
        let roots = connected_components(n, &edges);
        assert_eq!(roots, components_union_find(n, edges.iter().copied()));
    }
}
