//! Maximum-weight-on-path queries over a forest (binary lifting).
//!
//! The substrate for cycle-property edge filtering, which the paper's §3
//! analysis motivates ("if we can exclude heavy edges in the early stages
//! … we may have a more efficient parallel implementation", citing Cole,
//! Klein & Tarjan's sampling algorithm and Katriel–Sanders–Träff): given a
//! spanning forest F of a sampled subgraph, a non-forest edge (u, v) can be
//! discarded iff it is strictly heavier than every edge on the F-path
//! between u and v.
//!
//! Build is O(n log d) for a forest of BFS depth d: a counting-sort CSR and
//! an array-backed BFS root the forest, then ancestor tables double, one
//! parallel map per level, for `max(1, bits(d))` levels. Each query is
//! O(log d) and read-only, so the filtering pass parallelizes trivially.

use msf_primitives::pool;

use crate::edge::{EdgeKey, OrderedWeight};

const NONE: u32 = u32::MAX;

/// Smallest per-task vertex range of a parallel level build.
const LEVEL_GRAIN: usize = 4096;

/// Number of lifting levels that cover every ancestor distance up to
/// `max_depth`: `bits(max_depth)`, at least 1 so level 0 (the parent
/// array) always exists.
#[inline]
pub fn lifting_levels(max_depth: u32) -> usize {
    bit_len(max_depth).max(1)
}

/// `bits(x)`: the length of `x` in binary (0 for 0).
#[inline]
pub fn bit_len(x: u32) -> usize {
    (u32::BITS - x.leading_zeros()) as usize
}

/// One lifting-table entry: the 2^k-th ancestor of a vertex and the
/// maximum key on the path up to it, packed into 16 bytes so that a query
/// step reads one entry instead of one from each of two tables.
#[derive(Debug, Clone, Copy)]
struct Hop {
    /// Weight of the path-maximum edge.
    w: OrderedWeight,
    /// Id of the path-maximum edge.
    id: u32,
    /// The 2^k-th ancestor (NONE above the root).
    up: u32,
}

const _: () = assert!(std::mem::size_of::<Hop>() == 16);

impl Hop {
    /// The entry of a vertex with no 2^k-th ancestor's path to report.
    const ROOT: Hop = Hop {
        w: EdgeKey::MAX.w,
        id: EdgeKey::MAX.id,
        up: NONE,
    };

    #[inline]
    fn key(self) -> EdgeKey {
        EdgeKey {
            w: self.w,
            id: self.id,
        }
    }
}

/// Binary-lifting path-maximum structure over a rooted forest. Maxima are
/// full [`EdgeKey`]s, so queries are exact under the suite's `(weight, id)`
/// total order — ties included.
#[derive(Debug, Clone)]
pub struct PathMaxForest {
    /// hops[k][v]: v's 2^k-th ancestor and the max edge key on the path
    /// from v up to it.
    hops: Vec<Vec<Hop>>,
    depth: Vec<u32>,
    /// Component root of each vertex (identifies connectivity).
    comp: Vec<u32>,
}

impl PathMaxForest {
    /// Build from forest edges `(u, v, key)` over vertices `0..n`.
    ///
    /// # Panics
    /// Panics if the edges contain a cycle.
    pub fn build(n: usize, edges: &[(u32, u32, EdgeKey)]) -> Self {
        // Counting-sort CSR of the forest: `slots[head[x]..head[x + 1]]`
        // are the indices of the edges incident to x.
        let mut head = vec![0u32; n + 1];
        for &(u, v, _) in edges {
            head[u as usize] += 1;
            head[v as usize] += 1;
        }
        let mut total = 0u32;
        for h in &mut head {
            total += *h;
            *h = total;
        }
        let mut slots = vec![0u32; 2 * edges.len()];
        for (i, &(u, v, _)) in edges.iter().enumerate() {
            for x in [u, v] {
                head[x as usize] -= 1;
                slots[head[x as usize] as usize] = i as u32;
            }
        }

        let mut base = vec![Hop::ROOT; n];
        let mut depth = vec![0u32; n];
        let mut comp = vec![NONE; n];
        // Every vertex is enqueued exactly once over all trees, so one
        // n-slot array serves as the BFS queue of the whole forest.
        let mut queue = vec![0u32; n];
        let (mut qhead, mut qtail) = (0usize, 0usize);
        let mut max_depth = 0u32;
        let mut visited_edges = 0usize;
        for root in 0..n as u32 {
            if comp[root as usize] != NONE {
                continue;
            }
            comp[root as usize] = root;
            queue[qtail] = root;
            qtail += 1;
            while qhead < qtail {
                let x = queue[qhead];
                qhead += 1;
                let (lo, hi) = (head[x as usize], head[x as usize + 1]);
                for &i in &slots[lo as usize..hi as usize] {
                    let (a, b, w) = edges[i as usize];
                    let y = a ^ b ^ x;
                    if comp[y as usize] != NONE {
                        continue;
                    }
                    comp[y as usize] = root;
                    base[y as usize] = Hop {
                        w: w.w,
                        id: w.id,
                        up: x,
                    };
                    depth[y as usize] = depth[x as usize] + 1;
                    max_depth = max_depth.max(depth[y as usize]);
                    visited_edges += 1;
                    queue[qtail] = y;
                    qtail += 1;
                }
            }
        }
        assert_eq!(visited_edges, edges.len(), "input contained a cycle");

        let levels = lifting_levels(max_depth);
        let mut hops = vec![base];
        for k in 1..levels {
            let prev = &hops[k - 1];
            let next: Vec<Hop> = pool::map_collect(n, LEVEL_GRAIN, |v| match prev[v].up {
                NONE => Hop::ROOT,
                mid => {
                    // When `mid` is a root this entry has no 2^k-th
                    // ancestor (up = NONE) and no query reads it.
                    let (h, m) = (prev[v], prev[mid as usize]);
                    let max = h.key().max(m.key());
                    Hop {
                        w: max.w,
                        id: max.id,
                        up: m.up,
                    }
                }
            });
            hops.push(next);
        }
        PathMaxForest { hops, depth, comp }
    }

    /// True when `u` and `v` are in the same tree.
    #[inline]
    pub fn connected(&self, u: u32, v: u32) -> bool {
        self.comp[u as usize] == self.comp[v as usize]
    }

    /// Maximum edge key on the forest path between `u` and `v`, or `None`
    /// when they are in different trees (or `u == v`).
    pub fn path_max(&self, mut u: u32, mut v: u32) -> Option<EdgeKey> {
        if u == v || !self.connected(u, v) {
            return None;
        }
        let mut best = EdgeKey {
            w: OrderedWeight(f64::NEG_INFINITY),
            id: 0,
        };
        // Lift the deeper endpoint.
        if self.depth[u as usize] < self.depth[v as usize] {
            std::mem::swap(&mut u, &mut v);
        }
        let mut diff = self.depth[u as usize] - self.depth[v as usize];
        let mut k = 0;
        while diff > 0 {
            if diff & 1 == 1 {
                let h = self.hops[k][u as usize];
                best = best.max(h.key());
                u = h.up;
            }
            diff >>= 1;
            k += 1;
        }
        if u == v {
            return Some(best);
        }
        // Lift both until the parents coincide. The common ancestor is at
        // most depth(u) levels up, so jumps of 2^k > depth(u) never apply.
        for k in (0..bit_len(self.depth[u as usize])).rev() {
            let (hu, hv) = (self.hops[k][u as usize], self.hops[k][v as usize]);
            if hu.up != hv.up {
                best = best.max(hu.key()).max(hv.key());
                u = hu.up;
                v = hv.up;
            }
        }
        let (hu, hv) = (self.hops[0][u as usize], self.hops[0][v as usize]);
        Some(best.max(hu.key()).max(hv.key()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(w: f64, id: u32) -> EdgeKey {
        EdgeKey {
            w: OrderedWeight(w),
            id,
        }
    }

    /// Keyed forest edges from (u, v, w) triples, ids in order.
    fn keyed(edges: &[(u32, u32, f64)]) -> Vec<(u32, u32, EdgeKey)> {
        edges
            .iter()
            .enumerate()
            .map(|(i, &(u, v, w))| (u, v, k(w, i as u32)))
            .collect()
    }

    /// Brute-force path max via DFS for cross-checking.
    fn brute(n: usize, edges: &[(u32, u32, EdgeKey)], u: u32, v: u32) -> Option<EdgeKey> {
        let mut adj: Vec<Vec<(u32, EdgeKey)>> = vec![Vec::new(); n];
        for &(a, b, w) in edges {
            adj[a as usize].push((b, w));
            adj[b as usize].push((a, w));
        }
        if u == v {
            return None;
        }
        let mut stack = vec![(u, k(f64::NEG_INFINITY, 0))];
        let mut seen = vec![false; n];
        seen[u as usize] = true;
        while let Some((x, mx)) = stack.pop() {
            for &(y, w) in &adj[x as usize] {
                if seen[y as usize] {
                    continue;
                }
                let m = mx.max(w);
                if y == v {
                    return Some(m);
                }
                seen[y as usize] = true;
                stack.push((y, m));
            }
        }
        None
    }

    #[test]
    fn path_on_a_chain() {
        let edges = keyed(&[(0, 1, 1.0), (1, 2, 5.0), (2, 3, 2.0)]);
        let pm = PathMaxForest::build(4, &edges);
        assert_eq!(pm.path_max(0, 3), Some(k(5.0, 1)));
        assert_eq!(pm.path_max(0, 1), Some(k(1.0, 0)));
        assert_eq!(pm.path_max(2, 3), Some(k(2.0, 2)));
        assert_eq!(pm.path_max(1, 1), None);
    }

    #[test]
    fn ties_resolve_by_id() {
        // Equal weights: the larger id is the larger key.
        let edges = keyed(&[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]);
        let pm = PathMaxForest::build(4, &edges);
        assert_eq!(pm.path_max(0, 3), Some(k(1.0, 2)));
        assert_eq!(pm.path_max(0, 2), Some(k(1.0, 1)));
    }

    #[test]
    fn different_trees_are_disconnected() {
        let edges = keyed(&[(0, 1, 1.0), (2, 3, 2.0)]);
        let pm = PathMaxForest::build(4, &edges);
        assert!(!pm.connected(0, 2));
        assert_eq!(pm.path_max(0, 3), None);
        assert!(pm.connected(0, 1));
    }

    #[test]
    fn star_and_binary_tree() {
        // Star centered at 0.
        let star = keyed(&(1..50u32).map(|v| (0, v, f64::from(v))).collect::<Vec<_>>());
        let pm = PathMaxForest::build(50, &star);
        assert_eq!(pm.path_max(3, 7).unwrap().w, OrderedWeight(7.0));
        assert_eq!(pm.path_max(49, 1).unwrap().w, OrderedWeight(49.0));
        // Heap-shaped binary tree.
        let tree = keyed(
            &(1..31u32)
                .map(|v| ((v - 1) / 2, v, f64::from(v) * 0.1))
                .collect::<Vec<_>>(),
        );
        let pm = PathMaxForest::build(31, &tree);
        for (u, v) in [(15u32, 22u32), (7, 8), (0, 30), (29, 30)] {
            assert_eq!(pm.path_max(u, v), brute(31, &tree, u, v), "({u},{v})");
        }
    }

    #[test]
    fn matches_brute_force_on_random_forest() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(5);
        let n = 200usize;
        // Random forest: each vertex v>0 attaches to a random earlier vertex
        // with probability 0.9 (so several components exist).
        let mut raw = Vec::new();
        for v in 1..n as u32 {
            if rng.gen::<f64>() < 0.9 {
                raw.push((rng.gen_range(0..v), v, rng.gen::<f64>()));
            }
        }
        let edges = keyed(&raw);
        let pm = PathMaxForest::build(n, &edges);
        for _ in 0..500 {
            let u = rng.gen_range(0..n as u32);
            let v = rng.gen_range(0..n as u32);
            assert_eq!(pm.path_max(u, v), brute(n, &edges, u, v), "({u},{v})");
        }
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn rejects_cycles() {
        let edges = keyed(&[(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)]);
        PathMaxForest::build(3, &edges);
    }

    #[test]
    fn empty_forest_and_single_vertex() {
        let pm = PathMaxForest::build(0, &[]);
        assert!(pm.hops[0].is_empty());
        let pm = PathMaxForest::build(1, &[]);
        assert!(pm.connected(0, 0));
        assert_eq!(pm.path_max(0, 0), None);
        // Edgeless multi-vertex forest: everything is its own tree.
        let pm = PathMaxForest::build(4, &[]);
        for u in 0..4u32 {
            for v in 0..4u32 {
                assert_eq!(pm.connected(u, v), u == v);
                assert_eq!(pm.path_max(u, v), None);
            }
        }
    }

    #[test]
    fn ties_with_ids_against_insertion_order() {
        // Equal weights, but ids deliberately NOT in insertion order: the
        // key comparison must follow ids, not build order.
        let edges = vec![
            (0u32, 1u32, k(1.0, 9)),
            (1, 2, k(1.0, 4)),
            (2, 3, k(1.0, 7)),
        ];
        let pm = PathMaxForest::build(4, &edges);
        assert_eq!(pm.path_max(0, 3), Some(k(1.0, 9)));
        assert_eq!(pm.path_max(1, 3), Some(k(1.0, 7)));
        assert_eq!(pm.path_max(1, 2), Some(k(1.0, 4)));
    }

    #[test]
    fn many_small_trees_with_isolated_vertices() {
        // Pairs (0,1), (4,5), … with isolated vertices 2, 3, 6, 7 between.
        let edges = keyed(&[(0, 1, 3.0), (4, 5, 1.0), (8, 9, 2.0)]);
        let pm = PathMaxForest::build(10, &edges);
        assert_eq!(pm.path_max(0, 1), Some(k(3.0, 0)));
        assert_eq!(pm.path_max(4, 5), Some(k(1.0, 1)));
        assert_eq!(pm.path_max(0, 4), None);
        assert_eq!(pm.path_max(2, 3), None);
        assert!(!pm.connected(2, 6));
        assert!(!pm.connected(1, 9));
    }

    /// Max depth of the forest when each tree is rooted at its smallest
    /// vertex, by a plain BFS over an adjacency-list copy.
    fn reference_max_depth(n: usize, edges: &[(u32, u32, EdgeKey)]) -> u32 {
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
        for &(a, b, _) in edges {
            adj[a as usize].push(b);
            adj[b as usize].push(a);
        }
        let mut depth = vec![u32::MAX; n];
        let mut deepest = 0;
        for root in 0..n {
            if depth[root] != u32::MAX {
                continue;
            }
            depth[root] = 0;
            let mut queue = std::collections::VecDeque::from([root]);
            while let Some(x) = queue.pop_front() {
                deepest = deepest.max(depth[x]);
                for &y in &adj[x] {
                    if depth[y as usize] == u32::MAX {
                        depth[y as usize] = depth[x] + 1;
                        queue.push_back(y as usize);
                    }
                }
            }
        }
        deepest
    }

    /// Build, check that the tables have exactly `max(1, bits(depth))`
    /// levels, and compare `path_max` with the brute-force DFS on the given
    /// pairs plus `random` random pairs.
    fn check_against_brute(
        n: usize,
        edges: &[(u32, u32, EdgeKey)],
        pairs: &[(u32, u32)],
        random: usize,
        seed: u64,
    ) {
        use rand::prelude::*;
        let pm = PathMaxForest::build(n, edges);
        let depth = reference_max_depth(n, edges);
        assert_eq!(pm.hops.len(), bit_len(depth).max(1), "depth {depth}");
        let mut rng = StdRng::seed_from_u64(seed);
        let random_pairs =
            (0..random).map(|_| (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32)));
        for (u, v) in pairs
            .iter()
            .copied()
            .chain(random_pairs.collect::<Vec<_>>())
        {
            assert_eq!(pm.path_max(u, v), brute(n, edges, u, v), "({u},{v})");
        }
    }

    /// A "broom" of exact depth `d`: a handle path 0 - 1 - … - d rooted at
    /// vertex 0, plus `bristles` leaves hung off handle vertices above the
    /// last one. Labels 1.. are shuffled so the BFS meets them out of order;
    /// weights are small integers, so many ties fall to the id order.
    fn broom(d: u32, bristles: u32, seed: u64) -> (usize, Vec<(u32, u32, EdgeKey)>) {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(seed);
        let n = (d + 1 + bristles) as usize;
        let mut label: Vec<u32> = (0..n as u32).collect();
        label[1..].shuffle(&mut rng);
        let mut raw = Vec::new();
        for i in 0..d {
            raw.push((label[i as usize], label[i as usize + 1]));
        }
        for b in 0..bristles {
            let anchor = rng.gen_range(0..d.max(1));
            raw.push((label[anchor as usize], label[(d + 1 + b) as usize]));
        }
        let edges = raw
            .into_iter()
            .enumerate()
            .map(|(i, (u, v))| (u, v, k(f64::from(rng.gen_range(0..8u32)), i as u32)))
            .collect();
        (n, edges)
    }

    #[test]
    fn level_count_tracks_depth_at_power_of_two_boundaries() {
        // Depth 0: no edges, one level (the parent array) all the same.
        check_against_brute(5, &[], &[(0, 4), (2, 2)], 10, 1);
        // Depth 1: a star rooted at 0.
        let star = keyed(
            &(1..40u32)
                .map(|v| (0, v, f64::from(v % 5)))
                .collect::<Vec<_>>(),
        );
        check_against_brute(40, &star, &[(3, 39), (0, 7)], 100, 2);
        let kk = 10u32;
        for d in [(1 << kk) - 1, 1 << kk, (1 << kk) + 1] {
            let (n, edges) = broom(d, 64, u64::from(d));
            let (root, tip) = (0, edges[d as usize - 1].1);
            let mid = edges[d as usize / 2].1;
            check_against_brute(n, &edges, &[(root, tip), (tip, root), (mid, tip)], 150, 3);
        }
    }

    #[test]
    fn long_chain_and_many_small_trees_match_brute_force() {
        // A 2^12 + 1 vertex chain: depth 2^12, 13 levels.
        let n = (1u32 << 12) + 1;
        let chain = keyed(
            &(0..n - 1)
                .map(|v| (v, v + 1, f64::from((v * 7919) % 101)))
                .collect::<Vec<_>>(),
        );
        let pm = PathMaxForest::build(n as usize, &chain);
        assert_eq!(pm.hops.len(), 13);
        check_against_brute(
            n as usize,
            &chain,
            &[(0, n - 1), (n - 1, 1), (2047, 2049)],
            100,
            4,
        );

        // 600 small random trees (1 to 9 vertices) with shuffled labels, so
        // each tree's root is wherever its smallest label landed.
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(5);
        let mut raw = Vec::new();
        let mut trees = Vec::new();
        let mut next = 0u32;
        for _ in 0..600 {
            let size = rng.gen_range(1..10u32);
            for v in 1..size {
                raw.push((next + rng.gen_range(0..v), next + v));
            }
            trees.push(next..next + size);
            next += size;
        }
        let mut label: Vec<u32> = (0..next).collect();
        label.shuffle(&mut rng);
        let edges: Vec<(u32, u32, EdgeKey)> = raw
            .iter()
            .enumerate()
            .map(|(i, &(u, v))| {
                let w = f64::from(rng.gen_range(0..4u32));
                (label[u as usize], label[v as usize], k(w, i as u32))
            })
            .collect();
        // Every pair inside every fifth tree, plus random (mostly
        // cross-tree) ones.
        let pairs: Vec<(u32, u32)> = trees
            .iter()
            .step_by(5)
            .flat_map(|t| t.clone().flat_map(move |u| t.clone().map(move |v| (u, v))))
            .map(|(u, v)| (label[u as usize], label[v as usize]))
            .collect();
        check_against_brute(next as usize, &edges, &pairs, 2000, 6);
    }

    #[test]
    fn deep_chain_exercises_all_lifting_levels() {
        // A 1000-vertex path: queries must climb ~10 lifting levels; the
        // maximum sits mid-path so both endpoint climbs matter.
        let n = 1000u32;
        let raw: Vec<(u32, u32, f64)> = (0..n - 1)
            .map(|v| (v, v + 1, if v == 499 { 1e6 } else { f64::from(v % 97) }))
            .collect();
        let edges = keyed(&raw);
        let pm = PathMaxForest::build(n as usize, &edges);
        assert_eq!(pm.path_max(0, n - 1), Some(k(1e6, 499)));
        assert_eq!(pm.path_max(450, 550), Some(k(1e6, 499)));
        // Entirely on one side of the spike.
        assert_eq!(pm.path_max(0, 400), brute(n as usize, &edges, 0, 400));
        assert_eq!(pm.path_max(600, 999), brute(n as usize, &edges, 600, 999));
    }
}
