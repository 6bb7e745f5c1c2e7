//! The flexible adjacency list (paper §2.3).
//!
//! Bor-FAL's insight: never rewrite edges. The original adjacency arrays
//! stay intact for the entire run; a supervertex simply *collects* the
//! original vertices whose adjacency lists belong to it ("a linked list of
//! adjacency lists"), and a lookup table maps every original vertex to its
//! current supervertex. Compacting the graph touches only vertices, never
//! edges, and find-min pays the added cost of translating endpoints
//! through the table and skipping self-loops on the fly.
//!
//! The linked lists are held in one flat array: every original vertex
//! appears once, grouped by supervertex, ascending within each group. A
//! compact regroups the array by the new labels with the shared counting
//! sort ([`csr::build_rows`]) and rewrites the lookup table in the same
//! scatter: two passes over the vertices in `p` blocks, no edge touched
//! and no allocation per supervertex.

use std::sync::atomic::{AtomicU32, Ordering};

use msf_primitives::{csr, pool};

use crate::adjacency::AdjacencyArray;
use crate::edgelist::EdgeList;

/// Flexible adjacency list: immutable base CSR + supervertex membership +
/// the vertex→supervertex lookup table.
///
/// The membership array and the table are rewritten by a compact's
/// parallel scatter, so they hold atomics written and read with relaxed
/// ordering (plain loads and stores on every mainstream target); the
/// scatter's fork-join publishes them before the next find-min.
#[derive(Debug)]
pub struct FlexAdjacencyList {
    base: AdjacencyArray,
    /// Every original vertex, grouped by supervertex in ascending vertex
    /// id: the "linked list of adjacency lists", each member contributing
    /// its intact base adjacency array segment.
    members: Vec<AtomicU32>,
    /// `members[starts[s]..starts[s + 1]]` are the members of supervertex
    /// `s`.
    starts: Vec<usize>,
    /// label[v] = current supervertex of original vertex v.
    label: Vec<AtomicU32>,
}

impl FlexAdjacencyList {
    /// Initialize with every vertex its own supervertex, each pointing at
    /// exactly one adjacency list (paper Fig. 1b). The base CSR is built
    /// over `p` blocks.
    pub fn new(g: &EdgeList, p: usize) -> Self {
        let n = g.num_vertices();
        let identity = || pool::map_collect(n, 1, |v| AtomicU32::new(v as u32));
        FlexAdjacencyList {
            base: AdjacencyArray::from_edges(n, g.edges(), p),
            members: identity(),
            starts: (0..=n).collect(),
            label: identity(),
        }
    }

    /// Number of original vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.label.len()
    }

    /// Current number of supervertices.
    #[inline]
    pub fn num_supervertices(&self) -> usize {
        self.starts.len() - 1
    }

    /// The untouched base adjacency structure.
    #[inline]
    pub fn base(&self) -> &AdjacencyArray {
        &self.base
    }

    /// The supervertex of original vertex `v`.
    #[inline]
    pub fn supervertex_of(&self, v: u32) -> u32 {
        self.label[v as usize].load(Ordering::Relaxed)
    }

    /// Entry `i` of the flat membership array: members are grouped by
    /// supervertex, and those of `s` sit at
    /// `member_starts()[s]..member_starts()[s + 1]`.
    #[inline]
    pub fn member(&self, i: usize) -> u32 {
        self.members[i].load(Ordering::Relaxed)
    }

    /// Where each supervertex's members start in the membership array,
    /// plus the total (length `num_supervertices() + 1`).
    #[inline]
    pub fn member_starts(&self) -> &[usize] {
        &self.starts
    }

    /// The member vertices of supervertex `s`, ascending.
    pub fn members(&self, s: u32) -> impl Iterator<Item = u32> + '_ {
        (self.starts[s as usize]..self.starts[s as usize + 1]).map(|i| self.member(i))
    }

    /// Iterate the (translated) incident entries of supervertex `s`:
    /// `(other_supervertex, weight, edge id)`, with self-loops already
    /// filtered out — the filtering duty the paper moves into find-min.
    /// Multi-edges are *not* merged; callers keep the minimum on the fly.
    pub fn incident(&self, s: u32) -> impl Iterator<Item = (u32, f64, u32)> + '_ {
        self.members(s).flat_map(move |v| {
            self.base
                .neighbors(v)
                .map(move |(t, w, id)| (self.supervertex_of(t), w, id))
                .filter(move |&(ts, _, _)| ts != s)
        })
    }

    /// Compact the graph given the connected-component relabeling of the
    /// current supervertices: `new_of_old[s]` is the new supervertex of old
    /// supervertex `s`, with new labels dense in `0..k`.
    ///
    /// This is the paper's cheap compact-graph, over `p` blocks: one
    /// counting sort of the vertices by `new_of_old[label[v]]` regroups the
    /// membership array in place (a compact never reads the old grouping),
    /// and its scatter rewrites `label[v]` as it places `v`. Each vertex is
    /// touched a constant number of times, and no edge at all.
    pub fn compact(&mut self, new_of_old: &[u32], k: usize, p: usize) {
        assert_eq!(new_of_old.len(), self.num_supervertices());
        let (members, label) = (&self.members, &self.label);
        self.starts = csr::build_rows(
            k,
            label.len(),
            p,
            // Only the scatter for `v` rewrites `label[v]`, after both
            // passes have read it.
            |v| {
                let new = new_of_old[label[v].load(Ordering::Relaxed) as usize];
                [(new, (v as u32, new))]
            },
            |pos, (v, new)| {
                members[pos].store(v, Ordering::Relaxed);
                label[v as usize].store(new, Ordering::Relaxed);
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The 6-vertex example of the paper's Fig. 1 (0-indexed).
    fn fig1_graph() -> EdgeList {
        EdgeList::from_triples(
            6,
            vec![
                (0, 4, 1.0), // v1-v5
                (0, 1, 2.0), // v1-v2
                (1, 5, 3.0), // v2-v6
                (4, 2, 4.0), // v5-v3
                (2, 3, 5.0), // v3-v4
                (3, 5, 6.0), // v4-v6
            ],
        )
    }

    #[test]
    fn initial_state_is_identity() {
        let f = FlexAdjacencyList::new(&fig1_graph(), 2);
        assert_eq!(f.num_supervertices(), 6);
        for v in 0..6u32 {
            assert_eq!(f.supervertex_of(v), v);
            assert_eq!(f.members(v).collect::<Vec<_>>(), vec![v]);
        }
    }

    #[test]
    fn compact_merges_membership_like_fig1() {
        // After one Borůvka iteration on Fig. 1: {v1,v2,v3} and {v4,v5,v6}
        // i.e. 0-indexed {0,1,2} and {3,4,5}.
        for p in [1, 2, 3, 8] {
            let mut f = FlexAdjacencyList::new(&fig1_graph(), p);
            f.compact(&[0, 0, 0, 1, 1, 1], 2, p);
            assert_eq!(f.num_supervertices(), 2);
            assert_eq!(f.members(0).collect::<Vec<_>>(), vec![0, 1, 2]);
            assert_eq!(f.members(1).collect::<Vec<_>>(), vec![3, 4, 5]);
            assert_eq!(f.supervertex_of(4), 1);
            // Interleaved groups come out ascending too.
            let mut f = FlexAdjacencyList::new(&fig1_graph(), p);
            f.compact(&[1, 0, 1, 2, 0, 2], 3, p);
            let all: Vec<u32> = (0..6).map(|i| f.member(i)).collect();
            assert_eq!(all, vec![1, 4, 0, 2, 3, 5]);
            assert_eq!(f.member_starts(), &[0, 2, 4, 6]);
        }
    }

    #[test]
    fn incident_translates_and_filters_self_loops() {
        let mut f = FlexAdjacencyList::new(&fig1_graph(), 1);
        f.compact(&[0, 0, 0, 1, 1, 1], 2, 1);
        // Supervertex 0 = {v1,v2,v3}: the cross edges are v1-v5 (id 0),
        // v2-v6 (id 2), v5-v3 (id 3), and v3-v4 (id 4); the internal edge
        // v1-v2 (id 1) must be filtered as a self-loop.
        let inc: Vec<(u32, f64, u32)> = f.incident(0).collect();
        let mut ids: Vec<u32> = inc.iter().map(|&(_, _, id)| id).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 2, 3, 4]);
        assert!(inc.iter().all(|&(s, _, _)| s == 1));
    }

    /// The flat membership invariants: every original vertex exactly once,
    /// each supervertex's members contiguous and ascending, and the
    /// grouping agreeing with the lookup table.
    fn check_membership(f: &FlexAdjacencyList, context: &str) {
        let n = f.num_vertices();
        let starts = f.member_starts();
        assert_eq!(starts.len(), f.num_supervertices() + 1, "{context}");
        assert_eq!(
            (starts[0], starts[f.num_supervertices()]),
            (0, n),
            "{context}"
        );
        let mut seen = vec![false; n];
        for s in 0..f.num_supervertices() as u32 {
            let members: Vec<u32> = f.members(s).collect();
            assert!(!members.is_empty(), "{context}: supervertex {s} is empty");
            assert!(
                members.windows(2).all(|w| w[0] < w[1]),
                "{context}: members of {s} not ascending"
            );
            for v in members {
                assert_eq!(f.supervertex_of(v), s, "{context}: vertex {v}");
                assert!(!std::mem::replace(&mut seen[v as usize], true), "{context}");
            }
        }
        assert!(seen.iter().all(|&x| x), "{context}: not a permutation");
    }

    /// Run Borůvka on the flexible list — every supervertex hooks along its
    /// lightest `(weight, id)` incident edge, the hooks contract, the list
    /// compacts — checking the membership after every compact.
    fn boruvka_checking_membership(g: &EdgeList, p: usize) -> usize {
        let mut f = FlexAdjacencyList::new(g, p);
        check_membership(&f, &format!("p={p} initial"));
        let mut compacts = 0;
        loop {
            let k = f.num_supervertices();
            let mut uf = msf_primitives::unionfind::UnionFind::new(k);
            let mut hooked = false;
            for s in 0..k as u32 {
                let lightest = f
                    .incident(s)
                    .min_by(|a, b| (a.1, a.2).partial_cmp(&(b.1, b.2)).expect("finite weights"));
                if let Some((t, _, _)) = lightest {
                    uf.union(s as usize, t as usize);
                    hooked = true;
                }
            }
            if !hooked {
                return compacts;
            }
            // Dense new labels, numbered by each component's first member.
            let mut new_of_root = vec![u32::MAX; k];
            let mut next = 0u32;
            let new_of_old: Vec<u32> = (0..k)
                .map(|s| {
                    let slot = &mut new_of_root[uf.find(s)];
                    if *slot == u32::MAX {
                        *slot = next;
                        next += 1;
                    }
                    *slot
                })
                .collect();
            f.compact(&new_of_old, next as usize, p);
            compacts += 1;
            check_membership(&f, &format!("p={p} compact {compacts}"));
        }
    }

    #[test]
    fn membership_stays_flat_grouped_and_ascending_through_a_run() {
        use crate::generators::{random_graph, rmat_graph, rmat_graph500, GeneratorConfig};
        let cfg = GeneratorConfig::with_seed(12);
        let graphs = [
            random_graph(&cfg, 2_000, 6_000),
            rmat_graph(rmat_graph500(&cfg, 12, 8)).expect("small R-MAT builds"),
        ];
        for g in &graphs {
            for p in [1, 2, 3, 8] {
                assert!(boruvka_checking_membership(g, p) >= 2, "p={p}");
            }
        }
    }

    #[test]
    fn repeated_compaction_reaches_single_supervertex() {
        let mut f = FlexAdjacencyList::new(&fig1_graph(), 2);
        f.compact(&[0, 0, 0, 1, 1, 1], 2, 2);
        f.compact(&[0, 0], 1, 2);
        assert_eq!(f.num_supervertices(), 1);
        assert_eq!(f.incident(0).count(), 0, "everything is a self-loop now");
        assert_eq!(
            f.members(0).collect::<Vec<_>>(),
            (0..6).collect::<Vec<u32>>()
        );
    }
}
