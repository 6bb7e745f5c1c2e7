//! Parallel random permutation (Sanders 1998).
//!
//! MST-BC's progress guarantee (paper §4) randomly reorders the vertex set so
//! adversarial start-vertex alignments across processors occur only with
//! vanishing probability. Sanders' scheme: each of `p` workers throws its
//! block of the identity into `p` random buckets, buckets are concatenated,
//! and each bucket is shuffled locally — a communication-free permutation
//! whose output is uniform when the local shuffles are.

use rand::prelude::*;
use rand::rngs::StdRng;

use crate::{block_range, pool};

/// Produce a random permutation of `0..n` using `p`-way bucketting, seeded
/// deterministically (each run reproducible; vary `seed` for fresh draws).
pub fn parallel_permutation(n: usize, p: usize, seed: u64) -> Vec<u32> {
    let p = p.max(1);
    if n == 0 {
        return Vec::new();
    }
    // Phase 1: each worker scatters its block into p buckets at random.
    let scattered: Vec<Vec<Vec<u32>>> = pool::map_collect(p, 1, |t| {
        let mut rng =
            StdRng::seed_from_u64(seed ^ (0x9e37_79b9_7f4a_7c15u64).wrapping_mul(t as u64 + 1));
        let mut buckets: Vec<Vec<u32>> = (0..p).map(|_| Vec::new()).collect();
        for v in block_range(n, p, t) {
            buckets[rng.gen_range(0..p)].push(v as u32);
        }
        buckets
    });
    // Phase 2: concatenate bucket b across workers, shuffle locally.
    let shuffled: Vec<Vec<u32>> = pool::map_collect(p, 1, |b| {
        let mut bucket: Vec<u32> = Vec::new();
        for worker in &scattered {
            bucket.extend_from_slice(&worker[b]);
        }
        let mut rng =
            StdRng::seed_from_u64(seed ^ 0xd1b5_4a32_d192_ed03u64.wrapping_mul(b as u64 + 1));
        bucket.shuffle(&mut rng);
        bucket
    });
    let mut out = Vec::with_capacity(n);
    for bucket in shuffled {
        out.extend_from_slice(&bucket);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_is_permutation(perm: &[u32], n: usize) {
        assert_eq!(perm.len(), n);
        let mut seen = vec![false; n];
        for &v in perm {
            assert!(!seen[v as usize], "duplicate {v}");
            seen[v as usize] = true;
        }
    }

    #[test]
    fn produces_permutations() {
        for (n, p) in [(0usize, 1usize), (1, 1), (10, 3), (1000, 4), (12345, 7)] {
            assert_is_permutation(&parallel_permutation(n, p, 11), n);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = parallel_permutation(500, 4, 99);
        let b = parallel_permutation(500, 4, 99);
        let c = parallel_permutation(500, 4, 100);
        assert_eq!(a, b);
        assert_ne!(a, c, "different seeds should virtually never collide");
    }

    #[test]
    fn not_identity_for_nontrivial_inputs() {
        let perm = parallel_permutation(1000, 2, 1);
        let identity: Vec<u32> = (0..1000).collect();
        assert_ne!(perm, identity);
    }

    #[test]
    fn displacement_is_substantial() {
        // A genuinely random permutation moves most elements far; a buggy
        // near-identity output would fail this.
        let n = 10_000usize;
        let perm = parallel_permutation(n, 8, 5);
        let moved = perm
            .iter()
            .enumerate()
            .filter(|&(i, &v)| (i as i64 - v as i64).unsigned_abs() as usize > n / 10)
            .count();
        assert!(moved > n / 2, "only {moved} of {n} moved far");
    }
}
