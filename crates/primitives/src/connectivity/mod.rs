//! Connected-component kernels.
//!
//! Borůvka's connect-components step (paper §2, citing Chung & Condon's
//! pointer-jumping approach) resolves the pseudo-forest induced by each
//! vertex's minimum-weight edge; [`pointer_jump`] implements it. MST-BC's
//! contraction step needs components of an arbitrary edge set, for which
//! [`sv`] provides a Shiloach–Vishkin-style parallel algorithm.
//! [`seq`] holds sequential reference implementations used for verification
//! and as the small-problem fallback. [`concurrent`] is the lock-free
//! CAS-hooking union–find behind Filter-Kruskal's base case and heavy-edge
//! filter.

pub mod concurrent;
pub mod pointer_jump;
pub mod seq;
pub mod sv;

/// Relabel an array of root ids (each entry pointing at its component's root
/// vertex) into consecutive component labels `0..k`. Returns the per-vertex
/// labels and the component count `k`.
///
/// Runs the standard flag/prefix-sum/gather sequence so supervertices keep
/// the relative order of their root vertex ids — the property Bor-FAL's
/// lookup table relies on.
pub fn relabel_consecutive(roots: &[u32]) -> (Vec<u32>, u32) {
    let n = roots.len();
    let mut is_root = vec![0usize; n];
    for (v, &r) in roots.iter().enumerate() {
        debug_assert!(
            (r as usize) < n && roots[r as usize] == r,
            "entry {v} does not point at a root"
        );
        if r as usize == v {
            is_root[v] = 1;
        }
    }
    let k = crate::prefix::exclusive_scan(&mut is_root);
    // After the scan, is_root[v] is the new label of root v.
    let labels: Vec<u32> = roots.iter().map(|&r| is_root[r as usize] as u32).collect();
    (labels, k as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relabel_assigns_consecutive_labels() {
        // Roots: {0,0,3,3,0} -> components {0:[0,1,4], 3:[2,3]}.
        let roots = vec![0, 0, 3, 3, 0];
        let (labels, k) = relabel_consecutive(&roots);
        assert_eq!(k, 2);
        assert_eq!(labels, vec![0, 0, 1, 1, 0]);
    }

    #[test]
    fn relabel_identity_when_all_singletons() {
        let roots: Vec<u32> = (0..10).collect();
        let (labels, k) = relabel_consecutive(&roots);
        assert_eq!(k, 10);
        assert_eq!(labels, roots);
    }
}
