//! Pointer jumping over the pseudo-forest produced by Borůvka's find-min.
//!
//! After find-min, every vertex points along its minimum-weight edge. The
//! resulting functional graph is a collection of trees whose roots sit on
//! mutual 2-cycles (u points at v and v at u, because the globally minimal
//! edge of the pair is minimal for both endpoints). Breaking each 2-cycle at
//! the smaller-indexed endpoint yields a rooted forest, and O(log n) rounds
//! of parallel pointer jumping collapse every vertex onto its root.

use std::sync::atomic::{AtomicBool, Ordering};

use crate::pool;

/// Length below which the jump rounds run sequentially.
const PAR_THRESHOLD: usize = 1 << 14;

/// Resolve a find-min pseudo-forest in place: on return, `parent[v]` is the
/// root of `v`'s tree and every root satisfies `parent[r] == r`.
///
/// # Panics
/// Panics (in debug builds) if the structure contains a cycle longer than 2,
/// which a correct find-min with totally ordered edge keys can never emit.
pub fn resolve_pseudo_forest(parent: &mut [u32]) {
    let n = parent.len();
    // Break 2-cycles: the smaller endpoint becomes the root.
    if n >= PAR_THRESHOLD {
        let broken = pool::map_collect(n, 1, |v| {
            let p = parent[v];
            if parent[p as usize] as usize == v && (p as usize) > v {
                v as u32
            } else {
                p
            }
        });
        parent.copy_from_slice(&broken);
    } else {
        for v in 0..n {
            let p = parent[v] as usize;
            if parent[p] as usize == v && p > v {
                parent[v] = v as u32;
            }
        }
    }
    jump_to_roots(parent);
}

/// Repeated parent doubling until every vertex points at a root. The input
/// must already be a rooted forest (no cycles except self-loops).
pub fn jump_to_roots(parent: &mut [u32]) {
    let n = parent.len();
    let mut rounds = 0usize;
    loop {
        rounds += 1;
        debug_assert!(
            rounds <= 2 * usize::BITS as usize + 2,
            "pointer jumping did not converge; input was not a rooted forest"
        );
        let changed = if n >= PAR_THRESHOLD {
            // Loaded before it is stored, so once set the flag's cache line
            // stays shared between workers; the fork-join publishes it.
            let changed = AtomicBool::new(false);
            let jumped = pool::map_collect(n, 1, |v| {
                let g = parent[parent[v] as usize];
                if g != parent[v] && !changed.load(Ordering::Relaxed) {
                    changed.store(true, Ordering::Relaxed);
                }
                g
            });
            parent.copy_from_slice(&jumped);
            changed.into_inner()
        } else {
            let mut any = false;
            for v in 0..n {
                let g = parent[parent[v] as usize];
                if g != parent[v] {
                    parent[v] = g;
                    any = true;
                }
            }
            any
        };
        if !changed {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolves_single_pair() {
        // 0 <-> 1 mutual pair.
        let mut parent = vec![1u32, 0];
        resolve_pseudo_forest(&mut parent);
        assert_eq!(parent, vec![0, 0]);
    }

    #[test]
    fn resolves_chain_onto_pair_root() {
        // 4 -> 3 -> 2 -> 1 <-> 0
        let mut parent = vec![1u32, 0, 1, 2, 3];
        resolve_pseudo_forest(&mut parent);
        assert_eq!(parent, vec![0, 0, 0, 0, 0]);
    }

    #[test]
    fn resolves_multiple_components() {
        // Component A: 0<->1 with 2 hanging; component B: 3<->4.
        let mut parent = vec![1u32, 0, 0, 4, 3];
        resolve_pseudo_forest(&mut parent);
        assert_eq!(parent, vec![0, 0, 0, 3, 3]);
    }

    #[test]
    fn large_star_and_long_chain() {
        let n = PAR_THRESHOLD + 100;
        // Long chain: v -> v-1, vertex 0 and 1 mutual.
        let mut parent: Vec<u32> = (0..n)
            .map(|v| if v == 0 { 1 } else { v as u32 - 1 })
            .collect();
        resolve_pseudo_forest(&mut parent);
        assert!(parent.iter().all(|&p| p == 0));

        // Star: everything points at n-1, which pairs with 0.
        let mut star: Vec<u32> = vec![(n - 1) as u32; n];
        star[n - 1] = 0;
        resolve_pseudo_forest(&mut star);
        assert!(star.iter().all(|&p| p == 0));
    }

    #[test]
    fn roots_stay_roots() {
        let mut parent = vec![0u32, 1, 2];
        resolve_pseudo_forest(&mut parent);
        assert_eq!(parent, vec![0, 1, 2]);
    }
}
