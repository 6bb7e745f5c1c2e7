//! The sequential connected-component reference (union–find).
//!
//! These are the ground truth the parallel kernels are tested against, and
//! the fallback used when a contracted problem fits one processor.

use crate::unionfind::UnionFind;

/// Connected components via union–find. Returns per-vertex root ids
/// (each entry points at the minimum vertex of its component, making the
/// output canonical) — pair with [`crate::connectivity::relabel_consecutive`]
/// for dense labels.
pub fn components_union_find(n: usize, edges: impl IntoIterator<Item = (u32, u32)>) -> Vec<u32> {
    let mut uf = UnionFind::new(n);
    for (u, v) in edges {
        uf.union(u as usize, v as usize);
    }
    canonical_roots(n, |v| uf.find(v) as u32)
}

/// Canonicalize arbitrary representative ids to "minimum vertex in the
/// component", so different algorithms produce byte-identical outputs.
fn canonical_roots(n: usize, mut rep: impl FnMut(usize) -> u32) -> Vec<u32> {
    let mut min_of_rep = vec![u32::MAX; n];
    let reps: Vec<u32> = (0..n).map(&mut rep).collect();
    for (v, &r) in reps.iter().enumerate() {
        min_of_rep[r as usize] = min_of_rep[r as usize].min(v as u32);
    }
    reps.iter().map(|&r| min_of_rep[r as usize]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_find_components_basic() {
        let roots = components_union_find(6, vec![(0, 1), (1, 2), (4, 5)]);
        assert_eq!(roots, vec![0, 0, 0, 3, 4, 4]);
    }

    #[test]
    fn empty_edge_set_gives_singletons() {
        let roots = components_union_find(4, std::iter::empty());
        assert_eq!(roots, vec![0, 1, 2, 3]);
    }

    #[test]
    fn self_loops_and_duplicates_are_harmless() {
        let roots = components_union_find(3, vec![(0, 0), (1, 2), (2, 1), (1, 2)]);
        assert_eq!(roots, vec![0, 1, 1]);
    }
}
