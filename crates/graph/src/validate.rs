//! Graph invariant checks used by generators, I/O, and the test suite.

use crate::edgelist::EdgeList;
use msf_primitives::unionfind::UnionFind;

/// Verify the graph is *simple*: endpoints in range (already enforced at
/// construction), no self-loops (idem), and no parallel edges. Returns a
/// description of the first violation.
pub fn check_simple(g: &EdgeList) -> Result<(), String> {
    let mut keys: Vec<u64> = g
        .edges()
        .iter()
        .map(|e| {
            let (lo, hi) = if e.u < e.v { (e.u, e.v) } else { (e.v, e.u) };
            (u64::from(lo) << 32) | u64::from(hi)
        })
        .collect();
    keys.sort_unstable();
    for w in keys.windows(2) {
        if w[0] == w[1] {
            return Err(format!(
                "parallel edge between {} and {}",
                w[0] >> 32,
                w[0] & 0xFFFF_FFFF
            ));
        }
    }
    Ok(())
}

/// Number of connected components (union–find; reference-quality, not the
/// parallel kernel).
pub fn component_count(g: &EdgeList) -> usize {
    let mut uf = UnionFind::new(g.num_vertices());
    for e in g.edges() {
        uf.union(e.u as usize, e.v as usize);
    }
    uf.set_count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detects_parallel_edges() {
        let g = EdgeList::from_triples(3, vec![(0, 1, 1.0), (1, 0, 2.0)]);
        assert!(check_simple(&g).unwrap_err().contains("parallel"));
    }

    #[test]
    fn accepts_simple_graphs() {
        let g = EdgeList::from_triples(3, vec![(0, 1, 1.0), (1, 2, 2.0)]);
        assert!(check_simple(&g).is_ok());
    }

    #[test]
    fn counts_components() {
        let g = EdgeList::from_triples(5, vec![(0, 1, 1.0), (2, 3, 1.0)]);
        assert_eq!(component_count(&g), 3);
        let t = EdgeList::from_triples(3, vec![(0, 1, 1.0), (1, 2, 1.0)]);
        assert_eq!(component_count(&t), 1);
    }

    #[test]
    fn empty_graphs() {
        let g = EdgeList::from_triples(0, vec![]);
        assert!(check_simple(&g).is_ok());
        assert_eq!(component_count(&g), 0);
    }
}
