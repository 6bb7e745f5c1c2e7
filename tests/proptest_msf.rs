//! Property-based integration tests: random graph shapes, weights, and
//! configurations; the MSF invariants must hold for every algorithm.

use proptest::prelude::*;

use msf_suite::core::{minimum_spanning_forest, verify, Algorithm, MsfConfig};
use msf_suite::graph::EdgeList;
use msf_suite::primitives::unionfind::UnionFind;

/// Strategy: a random simple graph as (n, unique edge pairs with weights).
fn arb_graph() -> impl Strategy<Value = EdgeList> {
    (2usize..60).prop_flat_map(|n| {
        let max_m = n * (n - 1) / 2;
        proptest::collection::btree_set((0..n as u32, 0..n as u32), 0..max_m.min(120)).prop_map(
            move |pairs| {
                let triples: Vec<(u32, u32, f64)> = pairs
                    .into_iter()
                    .filter(|&(a, b)| a != b)
                    .map(|(a, b)| (a.min(b), a.max(b)))
                    .collect::<std::collections::BTreeSet<_>>()
                    .into_iter()
                    .enumerate()
                    .map(|(i, (a, b))| (a, b, ((i * 37) % 11) as f64 * 0.5))
                    .collect();
                EdgeList::from_triples(n, triples)
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every algorithm returns the unique Kruskal forest AND passes the
    /// Kruskal-independent optimality certificate.
    #[test]
    fn all_algorithms_match_reference(g in arb_graph(), p in 1usize..5) {
        let reference = minimum_spanning_forest(&g, Algorithm::Kruskal, &MsfConfig::default());
        prop_assert!(verify::verify_msf(&g, &reference).is_ok());
        let cfg = MsfConfig { base_size: 4, ..MsfConfig::with_threads(p) };
        for algo in Algorithm::ALL {
            let r = minimum_spanning_forest(&g, algo, &cfg);
            prop_assert_eq!(&r.edges, &reference.edges, "{} at p={}", algo, p);
            if let Err(v) = msf_suite::core::certify::certify_msf_with(&g, &r, p) {
                prop_assert!(false, "{} at p={} fails certification: {}", algo, p, v);
            }
        }
    }

    /// Forest structural invariants, independently recomputed.
    #[test]
    fn forest_invariants(g in arb_graph()) {
        let r = minimum_spanning_forest(&g, Algorithm::BorFal, &MsfConfig::with_threads(3));
        // Acyclic + tree count == component count.
        let mut uf = UnionFind::new(g.num_vertices());
        for &id in &r.edges {
            let e = g.edge(id);
            prop_assert!(uf.union(e.u as usize, e.v as usize), "cycle via edge {}", id);
        }
        let mut components = UnionFind::new(g.num_vertices());
        for e in g.edges() {
            components.union(e.u as usize, e.v as usize);
        }
        prop_assert_eq!(uf.set_count(), components.set_count());
        prop_assert_eq!(r.components as usize, components.set_count());
    }

    /// Cycle property by brute force, independent of `PathMaxForest`: for
    /// every non-forest edge, the BFS path between its endpoints inside the
    /// forest contains no heavier edge.
    #[test]
    fn cycle_property_holds(g in arb_graph()) {
        let r = minimum_spanning_forest(&g, Algorithm::MstBc, &MsfConfig::with_threads(2));
        let n = g.num_vertices();
        // Build forest adjacency.
        let mut adj: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n];
        for &id in &r.edges {
            let e = g.edge(id);
            adj[e.u as usize].push((e.v, id));
            adj[e.v as usize].push((e.u, id));
        }
        let in_forest: std::collections::HashSet<u32> = r.edges.iter().copied().collect();
        for e in g.edges() {
            if in_forest.contains(&e.id) {
                continue;
            }
            // BFS path u -> v in the forest.
            let mut prev: Vec<Option<(u32, u32)>> = vec![None; n];
            let mut queue = std::collections::VecDeque::from([e.u]);
            prev[e.u as usize] = Some((e.u, u32::MAX));
            while let Some(x) = queue.pop_front() {
                if x == e.v { break; }
                for &(y, id) in &adj[x as usize] {
                    if prev[y as usize].is_none() {
                        prev[y as usize] = Some((x, id));
                        queue.push_back(y);
                    }
                }
            }
            prop_assert!(prev[e.v as usize].is_some(),
                "non-tree edge endpoints must be connected in the forest");
            // Walk back, checking each path edge is lighter (by total order).
            let mut cur = e.v;
            while cur != e.u {
                let (parent, id) = prev[cur as usize].unwrap();
                let path_edge = g.edge(id);
                prop_assert!(path_edge.key() < e.key(),
                    "path edge {} must beat excluded edge {}", id, e.id);
                cur = parent;
            }
        }
    }

    /// MSF weight is invariant under edge order permutation of the input
    /// (ids change, but the selected *weight multiset* must not).
    #[test]
    fn weight_invariant_under_edge_reordering(g in arb_graph(), seed in 0u64..100) {
        use rand::prelude::*;
        let mut triples: Vec<(u32, u32, f64)> =
            g.edges().iter().map(|e| (e.u, e.v, e.w)).collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        triples.shuffle(&mut rng);
        let shuffled = EdgeList::from_triples(g.num_vertices(), triples);

        let a = minimum_spanning_forest(&g, Algorithm::BorAl, &MsfConfig::with_threads(2));
        let b = minimum_spanning_forest(&shuffled, Algorithm::BorAl, &MsfConfig::with_threads(2));
        prop_assert!((a.total_weight - b.total_weight).abs() < 1e-9,
            "weight changed under reordering: {} vs {}", a.total_weight, b.total_weight);
        prop_assert_eq!(a.edges.len(), b.edges.len());
    }
}
