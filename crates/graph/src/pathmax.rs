//! Maximum-weight-on-path queries over a forest, answered on King's
//! Borůvka tree.
//!
//! The substrate for cycle-property edge filtering, which the paper's §3
//! analysis motivates ("if we can exclude heavy edges in the early stages
//! … we may have a more efficient parallel implementation", citing Cole,
//! Klein & Tarjan's sampling algorithm and Katriel–Sanders–Träff): given a
//! spanning forest F of a sampled subgraph, a non-forest edge (u, v) can be
//! discarded iff it is strictly heavier than every edge on the F-path
//! between u and v.
//!
//! The structure is the Borůvka tree of V. King, "A Simpler Minimum
//! Spanning Tree Verification Algorithm" (Algorithmica, 1997). The build
//! runs Borůvka rounds over F. In each round every super-vertex that still
//! has an edge picks its lightest under the `(weight, id)` order, and
//! becomes a tree node that holds that key and points at its super-vertex
//! of the next round. The vertices are the leaves. Every super-vertex of a
//! tree picks in every round until the tree is one super-vertex, so each
//! round at least halves a tree's super-vertices, all leaves of one tree
//! sit at one depth of at most bits(n), and there are fewer than 2n nodes.
//!
//! A query walks both leaves up in lockstep until the walks meet, and the
//! largest key it passes is the F-path maximum. King's theorem needs
//! distinct weights, and the keys are distinct: each super-vertex on the
//! walk holds one endpoint, so the F-path leaves it through an edge no
//! lighter than its pick, and the heaviest F-path edge is the pick of one
//! of them. The build is sequential and O(n α(n)); a query is O(log n) and
//! read-only, so the filtering pass parallelizes trivially.

use msf_primitives::unionfind::UnionFind;

use crate::edge::{EdgeKey, OrderedWeight};

const NONE: u32 = u32::MAX;

/// One Borůvka-tree node: the key of the edge its super-vertex picked and
/// the node of the super-vertex it joined, packed into 16 bytes so that a
/// query step reads one entry.
#[derive(Debug, Clone, Copy)]
struct Hop {
    /// Weight of the picked edge.
    w: OrderedWeight,
    /// Id of the picked edge.
    id: u32,
    /// The parent node (NONE at a root).
    up: u32,
}

const _: () = assert!(std::mem::size_of::<Hop>() == 16);

impl Hop {
    /// A node that has picked no edge: a root. Its key is above every real
    /// key, so the first edge a round offers it replaces it.
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

/// Path-maximum structure over a forest: King's Borůvka tree. Maxima are
/// full [`EdgeKey`]s, so queries are exact under the suite's `(weight, id)`
/// total order — ties included.
#[derive(Debug, Clone)]
pub struct PathMaxForest {
    /// The vertices `0..n` are the leaves; each round's new super-vertices
    /// follow the previous round's.
    nodes: Vec<Hop>,
}

impl PathMaxForest {
    /// Build from forest edges `(u, v, key)` over vertices `0..n`.
    ///
    /// # Panics
    /// Panics if the edges contain a cycle.
    pub fn build(n: usize, edges: &[(u32, u32, EdgeKey)]) -> Self {
        let mut nodes = Vec::with_capacity(2 * n);
        nodes.resize(n, Hop::ROOT);
        // A round's super-vertices are `nodes[lo..]`.
        let mut lo = 0;
        let mut rest;
        let mut round = edges;
        while !round.is_empty() {
            let hi = nodes.len();
            rest = contract(&mut nodes, lo, round);
            round = &rest;
            lo = hi;
        }
        PathMaxForest { nodes }
    }

    /// Maximum edge key on the forest path between `u` and `v`, or `None`
    /// when they are in different trees (or `u == v`).
    pub fn path_max(&self, mut u: u32, mut v: u32) -> Option<EdgeKey> {
        if u == v {
            return None;
        }
        let mut best = EdgeKey {
            w: OrderedWeight(f64::NEG_INFINITY),
            id: 0,
        };
        while u != v {
            let (hu, hv) = (self.nodes[u as usize], self.nodes[v as usize]);
            // The leaves of one tree share a depth, so a walk that reaches
            // a root before the walks meet started in another tree.
            if hu.up == NONE || hv.up == NONE {
                return None;
            }
            best = best.max(hu.key()).max(hv.key());
            (u, v) = (hu.up, hv.up);
        }
        Some(best)
    }
}

/// One Borůvka round over `edges`, whose endpoints are the super-vertices
/// `nodes[lo..]`. Each super-vertex with an edge takes its lightest edge's
/// key and a fresh parent node, one per new super-vertex; the edges that
/// join two new super-vertices come back relabelled to them.
///
/// # Panics
/// Panics if the edges contain a cycle.
fn contract(
    nodes: &mut Vec<Hop>,
    lo: usize,
    edges: &[(u32, u32, EdgeKey)],
) -> Vec<(u32, u32, EdgeKey)> {
    let hi = nodes.len();
    for &(u, v, key) in edges {
        for (x, y) in [(u, v), (v, u)] {
            let pick = &mut nodes[x as usize];
            if key < pick.key() {
                *pick = Hop {
                    w: key.w,
                    id: key.id,
                    up: y,
                };
            }
        }
    }
    // The picks join super-vertices into sets, one per new super-vertex.
    // Union–find compresses the chains that picks can form: on a path whose
    // weights rise along it, one round hooks every vertex into one chain.
    let mut sets = UnionFind::new(hi - lo);
    for (x, node) in nodes[lo..hi].iter().enumerate() {
        if node.up != NONE {
            sets.union(x, node.up as usize - lo);
        }
    }
    let hooks = (hi - lo) - sets.set_count();
    let mut parent = vec![NONE; hi - lo];
    for x in lo..hi {
        if nodes[x].up != NONE {
            let set = sets.find(x - lo);
            if parent[set] == NONE {
                parent[set] = nodes.len() as u32;
                nodes.push(Hop::ROOT);
            }
            nodes[x].up = parent[set];
        }
    }
    // Every endpoint picked, so its `up` is its new super-vertex. A forest
    // drops exactly the picked edges, one per hook; any other edge inside a
    // set closes a cycle.
    let rest: Vec<_> = edges
        .iter()
        .map(|&(u, v, key)| (nodes[u as usize].up, nodes[v as usize].up, key))
        .filter(|&(u, v, _)| u != v)
        .collect();
    assert_eq!(edges.len() - rest.len(), hooks, "input contained a cycle");
    rest
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
        assert_eq!(pm.path_max(0, 2), None);
        assert_eq!(pm.path_max(0, 3), None);
        assert_eq!(pm.path_max(0, 1), Some(k(1.0, 0)));
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
        assert!(pm.nodes.is_empty());
        let pm = PathMaxForest::build(1, &[]);
        assert_eq!(pm.path_max(0, 0), None);
        // Edgeless multi-vertex forest: everything is its own tree, a leaf
        // that is its own root.
        let pm = PathMaxForest::build(4, &[]);
        assert_eq!(pm.nodes.len(), 4);
        for u in 0..4u32 {
            for v in 0..4u32 {
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
        assert_eq!(pm.path_max(2, 6), None);
        assert_eq!(pm.path_max(1, 9), None);
    }

    /// The root of leaf `v`'s tree, and the leaf's depth: the number of
    /// rounds its tree took.
    fn root_and_depth(pm: &PathMaxForest, v: u32) -> (u32, usize) {
        let (mut x, mut depth) = (v, 0);
        while pm.nodes[x as usize].up != NONE {
            x = pm.nodes[x as usize].up;
            depth += 1;
        }
        (x, depth)
    }

    fn leaf_depth(pm: &PathMaxForest, v: u32) -> usize {
        root_and_depth(pm, v).1
    }

    /// Within each tree every leaf sits at one depth, at most bits(n), and
    /// the forest has fewer than 2n nodes.
    fn assert_levels(pm: &PathMaxForest, n: usize) {
        assert!(pm.nodes.len() < 2 * n.max(1), "{} nodes", pm.nodes.len());
        let bits = (usize::BITS - n.leading_zeros()) as usize;
        let mut depth_of_root = std::collections::HashMap::new();
        for v in 0..n as u32 {
            let (root, depth) = root_and_depth(pm, v);
            assert!(depth <= bits, "leaf {v} at depth {depth}, bits(n) = {bits}");
            let first = *depth_of_root.entry(root).or_insert(depth);
            assert_eq!(depth, first, "leaves of root {root} differ in depth");
        }
    }

    /// Build, check the Borůvka tree's levels, and compare `path_max` with
    /// the brute-force DFS on the given pairs plus `random` random pairs.
    fn check_against_brute(
        n: usize,
        edges: &[(u32, u32, EdgeKey)],
        pairs: &[(u32, u32)],
        random: usize,
        seed: u64,
    ) {
        use rand::prelude::*;
        let pm = PathMaxForest::build(n, edges);
        assert_levels(&pm, n);
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
    /// last one. Labels 1.. are shuffled, so ids do not follow the handle;
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
        // Depth 0: no edges, every vertex a root.
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
        // A 2^12 + 1 vertex chain: depth 2^12, at most 13 rounds.
        let n = (1u32 << 12) + 1;
        let chain = keyed(
            &(0..n - 1)
                .map(|v| (v, v + 1, f64::from((v * 7919) % 101)))
                .collect::<Vec<_>>(),
        );
        let pm = PathMaxForest::build(n as usize, &chain);
        assert!((2..=13).contains(&leaf_depth(&pm, 0)));
        check_against_brute(
            n as usize,
            &chain,
            &[(0, n - 1), (n - 1, 1), (2047, 2049)],
            100,
            4,
        );

        // 600 small random trees (1 to 9 vertices) with shuffled labels, so
        // a tree's ids are scattered over the whole range.
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
    fn deep_chain_finds_a_mid_path_spike() {
        // A 1000-vertex path whose maximum sits mid-path, so both endpoint
        // walks matter.
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

    /// A 2^20-vertex path whose keys rise along it: round 1 hooks every
    /// vertex into one chain, which only a compressed labelling finishes
    /// in time. Equal weights rise the same way, by id.
    #[test]
    fn rising_path_of_a_million_vertices_collapses_in_one_round() {
        let n = 1u32 << 20;
        for w in [|v: u32| f64::from(v), |_| 1.0] {
            let path = keyed(&(0..n - 1).map(|v| (v, v + 1, w(v))).collect::<Vec<_>>());
            let pm = PathMaxForest::build(n as usize, &path);
            assert_levels(&pm, n as usize);
            assert_eq!(leaf_depth(&pm, 0), 1);
            // The path max between u < v is its last edge, (v - 1, v).
            for (u, v) in [(0, n - 1), (n - 1, 0), (0, 1), (5, 6), (12_345, 999_999)] {
                let last = u.max(v) - 1;
                assert_eq!(pm.path_max(u, v), Some(k(w(last), last)), "({u},{v})");
            }
        }
    }

    #[test]
    fn trees_of_different_heights_are_disconnected() {
        // A 2-vertex tree (one round) and a 9-vertex path 2 - … - 10 whose
        // alternating weights take two rounds.
        let mut raw = vec![(0, 1, 1.0)];
        raw.extend((2..10u32).map(|v| (v, v + 1, if v % 2 == 0 { 1.0 } else { 9.0 })));
        let edges = keyed(&raw);
        let pm = PathMaxForest::build(11, &edges);
        assert_levels(&pm, 11);
        assert_eq!(leaf_depth(&pm, 0), 1);
        assert_eq!(leaf_depth(&pm, 2), 2);
        for u in 0..2 {
            for v in 2..11 {
                assert_eq!(pm.path_max(u, v), None, "({u},{v})");
                assert_eq!(pm.path_max(v, u), None, "({v},{u})");
            }
        }
        assert_eq!(pm.path_max(2, 10), brute(11, &edges, 2, 10));
        assert_eq!(pm.path_max(0, 1), Some(k(1.0, 0)));
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn cycle_closed_by_the_first_edge_panics() {
        // Round 1 contracts 0 - 1 and 2 - 3; round 2 sees two edges between
        // the pairs, and the closing edge (3, 0) comes first.
        let edges = keyed(&[(3, 0, 5.0), (0, 1, 1.0), (1, 2, 5.0), (2, 3, 1.0)]);
        PathMaxForest::build(4, &edges);
    }
}
