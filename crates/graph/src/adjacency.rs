//! Cache-friendly adjacency arrays (CSR).
//!
//! The paper uses "the more cache-friendly adjacency arrays" (citing Park,
//! Penner & Prasanna) instead of pointer-linked adjacency lists: one index
//! array of `n + 1` offsets into flat entry arrays holding both directions
//! of every edge.

use std::sync::atomic::{AtomicU64, Ordering};

use msf_primitives::csr;

use crate::edge::Edge;
use crate::edgelist::EdgeList;

/// Compressed sparse row adjacency structure. Immutable once built; the
/// Borůvka variants build fresh (smaller) ones per iteration, while Bor-FAL
/// keeps the original untouched for the whole run.
///
/// Every entry is two 8-byte words in two arrays: the weight's bits, and
/// `(neighbour << 32) | edge id`. The parallel build scatters them through
/// relaxed atomic stores ([`csr::build_rows`]); reads are relaxed loads,
/// plain loads on every mainstream target.
#[derive(Debug)]
pub struct AdjacencyArray {
    offsets: Vec<usize>,
    weights: Vec<AtomicU64>,
    entries: Vec<AtomicU64>,
}

impl AdjacencyArray {
    /// Build from an edge list (both directions of each edge are laid out)
    /// on the calling thread.
    pub fn from_edge_list(g: &EdgeList) -> Self {
        Self::from_edges(g.num_vertices(), g.edges(), 1)
    }

    /// Build from undirected edges over `0..n` with the shared `p`-block
    /// counting sort. Row `v` lists `v`'s incident edges in the order of
    /// `edges`, the same at every `p`.
    pub fn from_edges(n: usize, edges: &[Edge], p: usize) -> Self {
        let weights: Vec<AtomicU64> = csr::zeroed_slots(2 * edges.len());
        let entries: Vec<AtomicU64> = csr::zeroed_slots(2 * edges.len());
        let offsets = csr::build_rows(
            n,
            edges.len(),
            p,
            |i| {
                let e = &edges[i];
                let entry = |nb: u32| (u64::from(nb) << 32) | u64::from(e.id);
                [(e.u, (entry(e.v), e.w)), (e.v, (entry(e.u), e.w))]
            },
            |pos, (entry, w)| {
                weights[pos].store(w.to_bits(), Ordering::Relaxed);
                entries[pos].store(entry, Ordering::Relaxed);
            },
        );
        AdjacencyArray {
            offsets,
            weights,
            entries,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of directed entries (2m for an undirected graph).
    #[inline]
    pub fn num_directed_edges(&self) -> usize {
        self.entries.len()
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: u32) -> usize {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// Iterate `(neighbor, weight, edge id)` over `v`'s incident edges.
    #[inline]
    pub fn neighbors(&self, v: u32) -> impl Iterator<Item = (u32, f64, u32)> + '_ {
        let (lo, hi) = (self.offsets[v as usize], self.offsets[v as usize + 1]);
        self.entries[lo..hi]
            .iter()
            .zip(&self.weights[lo..hi])
            .map(|(x, w)| {
                let x = x.load(Ordering::Relaxed);
                let w = f64::from_bits(w.load(Ordering::Relaxed));
                ((x >> 32) as u32, w, x as u32)
            })
    }

    /// The row offsets array (length n + 1).
    #[inline]
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }
}

/// Heap bytes of an [`AdjacencyArray`] over `n` vertices and `m` undirected
/// edges, without building it: `n + 1` offsets plus two 8-byte words per
/// directed entry. The ingestion-memory gate measures peaks against it.
pub fn csr_bytes(n: u64, m: u64) -> u128 {
    (n as u128 + 1) * 8 + 32 * m as u128
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{random_graph, rmat_graph, rmat_graph500, GeneratorConfig};

    fn path4() -> EdgeList {
        EdgeList::from_triples(4, vec![(0, 1, 0.5), (1, 2, 1.5), (2, 3, 2.5)])
    }

    fn rows(csr: &AdjacencyArray) -> Vec<Vec<(u32, f64, u32)>> {
        (0..csr.num_vertices() as u32)
            .map(|v| csr.neighbors(v).collect())
            .collect()
    }

    #[test]
    fn builds_csr_with_both_directions() {
        let csr = AdjacencyArray::from_edge_list(&path4());
        assert_eq!(csr.num_vertices(), 4);
        assert_eq!(csr.num_directed_edges(), 6);
        assert_eq!(csr.degree(0), 1);
        assert_eq!(csr.degree(1), 2);
        assert_eq!(csr.degree(3), 1);
        let n1: Vec<_> = csr.neighbors(1).collect();
        assert_eq!(n1, vec![(0, 0.5, 0), (2, 1.5, 1)]);
    }

    #[test]
    fn rows_partition_the_entry_space() {
        let csr = AdjacencyArray::from_edge_list(&path4());
        let total: usize = (0..4).map(|v| csr.degree(v)).sum();
        assert_eq!(total, csr.num_directed_edges());
        assert_eq!(csr.offsets().first(), Some(&0));
        assert_eq!(csr.offsets().last(), Some(&6));
    }

    #[test]
    fn isolated_vertices_have_empty_rows() {
        let g = EdgeList::from_triples(5, vec![(0, 4, 1.0)]);
        let csr = AdjacencyArray::from_edge_list(&g);
        for v in 1..4 {
            assert_eq!(csr.degree(v), 0);
            assert_eq!(csr.neighbors(v).count(), 0);
        }
        assert_eq!(csr.degree(0), 1);
        assert_eq!(csr.degree(4), 1);
    }

    #[test]
    fn multi_edges_are_kept_distinct() {
        // Two parallel edges with different weights/ids between 0 and 1.
        let edges = vec![Edge::new(0, 1, 1.0, 0), Edge::new(0, 1, 2.0, 1)];
        let csr = AdjacencyArray::from_edges(2, &edges, 1);
        assert_eq!(csr.degree(0), 2);
        let ids: Vec<u32> = csr.neighbors(0).map(|(_, _, id)| id).collect();
        assert_eq!(ids, vec![0, 1]);
    }

    #[test]
    fn csr_size_model_matches_reality() {
        let g = random_graph(&GeneratorConfig::with_seed(2), 100, 400);
        let csr = AdjacencyArray::from_edge_list(&g);
        let heap = std::mem::size_of_val(csr.offsets.as_slice())
            + std::mem::size_of_val(csr.weights.as_slice())
            + std::mem::size_of_val(csr.entries.as_slice());
        assert_eq!(heap as u128, csr_bytes(100, 400));
    }

    #[test]
    fn rows_list_edges_in_input_order_at_every_p() {
        let multi = EdgeList::from_triples(
            6,
            vec![
                (0, 1, 3.0),
                (1, 0, 2.0),
                (0, 1, 2.0),
                (4, 1, 1.0),
                (1, 4, 5.0),
                (0, 4, 1.0),
            ],
        );
        let graphs = [
            multi,
            random_graph(&GeneratorConfig::with_seed(4), 300, 1_500),
            rmat_graph(rmat_graph500(&GeneratorConfig::with_seed(5), 9, 8)).unwrap(),
            EdgeList::from_triples(1, vec![]),
            EdgeList::from_triples(7, vec![]),
            EdgeList::from_triples(0, vec![]),
        ];
        for g in &graphs {
            let n = g.num_vertices();
            let reference = AdjacencyArray::from_edges(n, g.edges(), 1);
            // Ascending edge id per row (ids are input positions here).
            for row in rows(&reference) {
                assert!(row.windows(2).all(|w| w[0].2 < w[1].2), "{row:?}");
            }
            for p in [2, 3, 8] {
                let csr = AdjacencyArray::from_edges(n, g.edges(), p);
                assert_eq!(csr.offsets(), reference.offsets(), "n={n} p={p}");
                assert_eq!(rows(&csr), rows(&reference), "n={n} p={p}");
            }
        }
    }
}
