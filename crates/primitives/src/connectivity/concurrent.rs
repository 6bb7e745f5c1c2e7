//! Concurrent union–find with CAS hooking — the gbbs `nd.h` idiom.
//!
//! A lock-free disjoint-set forest, shared by Filter-Kruskal's base case
//! (which unites) and its heavy-edge filter (which queries). Linking
//! follows the gbbs discipline that makes plain (non-CAS) path compression
//! safe:
//!
//! * **Roots only hook upward.** [`ConcurrentUnionFind::unite`] links the
//!   *smaller-id* root under the larger, so every non-self parent pointer
//!   points at a strictly larger vertex id and the forest can never cycle,
//!   no matter how stores interleave.
//! * **One hook per root, claimed by CAS.** A root may acquire at most one
//!   parent in its lifetime. The claim is a `compare_exchange` on the
//!   `hooks` array (from the vacant sentinel to the caller's edge tag);
//!   only the winner writes the parent pointer. The hooks array therefore
//!   records, per retired root, *which edge* retired it — the spanning
//!   forest falls out of the structure for free.
//! * **Compression stores ancestors.** [`ConcurrentUnionFind::find`] uses
//!   path halving with plain stores. Any value it writes was observed as an
//!   ancestor, and ancestors only ever move rootward (to larger ids), so a
//!   stale store still shortcuts correctly.
//!
//! Determinism: the final partition is the connectivity of the united
//! pairs, and when the united edges form a forest (each edge joins two
//! components not connected by the other edges, as Borůvka's per-vertex
//! minimum edges always do after mutual-pair dedup) the set of tags in the
//! hooks array is schedule-independent too — every forest edge retires
//! exactly one root. The *final root* of each component is its maximum
//! vertex id, also schedule-independent.
//!
//! Contention is observable: every lost hook CAS increments the
//! `unionfind.hook.cas_retry` registry counter. There is one path for every
//! mode: the sequential escape hatch inlines only the pool's loops, and
//! threads a caller spawns itself still race, so a plain store there could
//! hook one root twice. A caller that unites on one thread never loses a
//! CAS, so it records zero retries anyway.

use std::sync::atomic::{AtomicU32, Ordering};

use crate::obs::metrics::LazyCounter;

/// Sentinel in the hooks array for "this root has not been retired".
/// Edge tags passed to [`ConcurrentUnionFind::unite`] must stay below it.
pub const NO_HOOK: u32 = u32::MAX;

static HOOK_CAS_RETRY: LazyCounter = LazyCounter::new("unionfind.hook.cas_retry");

/// Lock-free union–find over vertices `0..n`. See the module docs for the
/// linking discipline and determinism contract.
pub struct ConcurrentUnionFind {
    parent: Vec<AtomicU32>,
    hooks: Vec<AtomicU32>,
}

impl ConcurrentUnionFind {
    /// `n` singleton sets.
    pub fn new(n: usize) -> ConcurrentUnionFind {
        ConcurrentUnionFind {
            parent: (0..n as u32).map(AtomicU32::new).collect(),
            hooks: (0..n).map(|_| AtomicU32::new(NO_HOOK)).collect(),
        }
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether the structure has zero vertices.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Current root of `u`'s set, compressing by path halving. Safe to call
    /// concurrently with `unite`; the answer is only stable once all
    /// uniting has joined.
    #[inline]
    pub fn find(&self, u: u32) -> u32 {
        let mut u = u;
        loop {
            let p = self.parent[u as usize].load(Ordering::Acquire);
            if p == u {
                return u;
            }
            let gp = self.parent[p as usize].load(Ordering::Acquire);
            if gp == p {
                return p;
            }
            // Halve: point u at its grandparent. gp was an ancestor of u
            // when loaded and links only move rootward, so a plain store
            // is safe (see module docs).
            self.parent[u as usize].store(gp, Ordering::Release);
            u = gp;
        }
    }

    /// Whether `u` and `v` are currently in the same set (quiescent reads
    /// only — see [`ConcurrentUnionFind::find`]).
    pub fn same_set(&self, u: u32, v: u32) -> bool {
        self.find(u) == self.find(v)
    }

    /// Join the sets of `u` and `v`, recording `tag` (an edge id,
    /// `< NO_HOOK`) in the hooks slot of whichever root gets retired.
    /// Returns `true` iff *this call* performed the link; `false` means the
    /// two were already connected (possibly by a concurrent racer).
    pub fn unite(&self, u: u32, v: u32, tag: u32) -> bool {
        debug_assert!(tag != NO_HOOK, "NO_HOOK is reserved for vacant hooks");
        loop {
            let ru = self.find(u);
            let rv = self.find(v);
            if ru == rv {
                return false;
            }
            // Retire the smaller root under the larger, keeping parent
            // pointers monotone in vertex id.
            let (lo, hi) = if ru < rv { (ru, rv) } else { (rv, ru) };
            // gbbs nd.h: claim the root via CAS on its hooks slot; only
            // the winner may write the parent pointer. A root whose hooks
            // slot is vacant is guaranteed still to be a root.
            if self.hooks[lo as usize]
                .compare_exchange(NO_HOOK, tag, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                self.parent[lo as usize].store(hi, Ordering::Release);
                return true;
            }
            // Someone else retired lo between our find and our CAS:
            // re-find under the new structure and try again.
            HOOK_CAS_RETRY.inc();
        }
    }

    /// The edge tags that performed links, i.e. the spanning forest of
    /// everything united so far, in ascending retired-root order. Call only
    /// after all uniting has joined.
    pub fn hooked(&self) -> Vec<u32> {
        self.hooks
            .iter()
            .map(|h| h.load(Ordering::Acquire))
            .filter(|&t| t != NO_HOOK)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons_then_links() {
        let uf = ConcurrentUnionFind::new(5);
        assert_eq!(uf.len(), 5);
        assert!(!uf.same_set(0, 1));
        assert!(uf.unite(0, 1, 10));
        assert!(uf.same_set(0, 1));
        assert!(!uf.unite(1, 0, 11), "already connected");
        assert!(uf.unite(3, 4, 12));
        assert!(!uf.same_set(0, 3));
        assert_eq!(uf.hooked(), vec![10, 12]);
    }

    #[test]
    fn final_root_is_the_component_maximum() {
        // Whatever the unite order, roots merge smaller-into-larger, so the
        // surviving root is the component's max id.
        for edges in [
            vec![(0u32, 1u32), (1, 2), (2, 3)],
            vec![(2, 3), (0, 1), (1, 2)],
            vec![(0, 3), (1, 2), (0, 2)],
        ] {
            let uf = ConcurrentUnionFind::new(4);
            for (i, &(u, v)) in edges.iter().enumerate() {
                uf.unite(u, v, i as u32);
            }
            for v in 0..4 {
                assert_eq!(uf.find(v), 3, "edges {edges:?}, vertex {v}");
            }
        }
    }

    #[test]
    fn forest_unites_record_every_edge_exactly_once() {
        // A path: every edge links, tags = all edge ids as a set.
        let uf = ConcurrentUnionFind::new(6);
        for (i, uv) in [(4u32, 5u32), (0, 1), (2, 3), (1, 2), (3, 4)]
            .iter()
            .enumerate()
        {
            assert!(uf.unite(uv.0, uv.1, i as u32));
        }
        let mut tags = uf.hooked();
        tags.sort_unstable();
        assert_eq!(tags, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn matches_sequential_union_find_on_random_pairs() {
        use crate::unionfind::UnionFind;
        let n = 200u32;
        // Deterministic pseudo-random pair stream (no external RNG).
        let mut x = 0x2545F4914F6CDD1Du64;
        let mut pairs = Vec::new();
        for _ in 0..300 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let u = (x >> 32) as u32 % n;
            let v = x as u32 % n;
            if u != v {
                pairs.push((u, v));
            }
        }
        let conc = ConcurrentUnionFind::new(n as usize);
        let mut seq = UnionFind::new(n as usize);
        for (i, &(u, v)) in pairs.iter().enumerate() {
            assert_eq!(
                conc.unite(u, v, i as u32),
                seq.union(u as usize, v as usize),
                "pair {i}"
            );
        }
        for u in 0..n {
            for v in (u + 1..n).step_by(17) {
                assert_eq!(
                    conc.same_set(u, v),
                    seq.find(u as usize) == seq.find(v as usize),
                    "{u} {v}"
                );
            }
        }
    }
}
