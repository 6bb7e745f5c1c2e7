//! Robustness integration tests: weight schemes, vertex relabelings, graph
//! compositions, and representation extremes must never change the forest
//! (beyond what the transformation itself implies).

use msf_suite::core::{minimum_spanning_forest, Algorithm, MsfConfig};
use msf_suite::graph::generators::{
    assign_weights, geometric_knn, random_graph, GeneratorConfig, WeightScheme,
};
use msf_suite::graph::transform::{disjoint_union, overlay, permute_vertices};

const SCHEMES: [WeightScheme; 4] = [
    WeightScheme::Uniform,
    WeightScheme::SmallIntegers { range: 4 },
    WeightScheme::Exponential,
    WeightScheme::Bimodal,
];

/// Every algorithm agrees with Kruskal under every weight distribution —
/// including the heavy-tie small-integer scheme.
#[test]
fn all_algorithms_under_all_weight_schemes() {
    let base = random_graph(&GeneratorConfig::with_seed(42), 400, 1600);
    for scheme in SCHEMES {
        let g = assign_weights(&base, scheme, 7);
        let reference = minimum_spanning_forest(&g, Algorithm::Kruskal, &MsfConfig::default());
        for algo in Algorithm::ALL {
            let r = minimum_spanning_forest(&g, algo, &MsfConfig::with_threads(4));
            assert_eq!(
                r.edges,
                reference.edges,
                "{algo} under {} weights",
                scheme.name()
            );
        }
    }
}

/// Vertex relabeling cannot change the MSF weight (a graph invariant) even
/// though ids and edge choices under ties may differ.
#[test]
fn msf_weight_invariant_under_vertex_permutation() {
    let g = geometric_knn(&GeneratorConfig::with_seed(3), 1_000, 5);
    let h = permute_vertices(&g, 99);
    for algo in [Algorithm::BorFal, Algorithm::MstBc, Algorithm::BorEl] {
        let rg = minimum_spanning_forest(&g, algo, &MsfConfig::with_threads(3));
        let rh = minimum_spanning_forest(&h, algo, &MsfConfig::with_threads(3));
        assert!(
            (rg.total_weight - rh.total_weight).abs() < 1e-9,
            "{algo}: {} vs {}",
            rg.total_weight,
            rh.total_weight
        );
        assert_eq!(rg.components, rh.components, "{algo}");
    }
}

/// The forest of a disjoint union is the union of the parts' forests
/// (weights add; tree counts add).
#[test]
fn disjoint_union_composes_forests() {
    let a = random_graph(&GeneratorConfig::with_seed(1), 200, 700);
    let b = geometric_knn(&GeneratorConfig::with_seed(2), 300, 4);
    let u = disjoint_union(&[&a, &b]);
    let cfg = MsfConfig::with_threads(4);
    let ra = minimum_spanning_forest(&a, Algorithm::BorAl, &cfg);
    let rb = minimum_spanning_forest(&b, Algorithm::BorAl, &cfg);
    let ru = minimum_spanning_forest(&u, Algorithm::BorAl, &cfg);
    assert!(
        (ru.total_weight - (ra.total_weight + rb.total_weight)).abs() < 1e-9,
        "union weight must be the sum of part weights"
    );
    assert_eq!(ru.components, ra.components + rb.components);
    assert_eq!(ru.edges.len(), ra.edges.len() + rb.edges.len());
}

/// Overlaying a graph with a strictly heavier copy of itself must not
/// change the forest weight: every parallel heavy edge is dominated.
#[test]
fn overlay_with_dominated_layer_is_a_noop() {
    let base = random_graph(&GeneratorConfig::with_seed(5), 300, 900);
    let heavy = {
        let triples: Vec<(u32, u32, f64)> = base
            .edges()
            .iter()
            .map(|e| (e.u, e.v, e.w + 100.0))
            .collect();
        msf_suite::graph::EdgeList::from_triples(300, triples)
    };
    let combined = overlay(&[&base, &heavy]);
    let cfg = MsfConfig::with_threads(4);
    let r_base = minimum_spanning_forest(&base, Algorithm::BorFal, &cfg);
    for algo in [Algorithm::BorFal, Algorithm::BorAl, Algorithm::MstBc] {
        let r = minimum_spanning_forest(&combined, algo, &cfg);
        assert!(
            (r.total_weight - r_base.total_weight).abs() < 1e-9,
            "{algo}: dominated layer changed the weight"
        );
    }
}

/// Extreme thread counts (p far above n, p = 1) stay correct.
#[test]
fn extreme_thread_counts() {
    let g = random_graph(&GeneratorConfig::with_seed(8), 50, 200);
    let reference = minimum_spanning_forest(&g, Algorithm::Kruskal, &MsfConfig::default());
    for algo in Algorithm::PARALLEL {
        for p in [1usize, 64] {
            let cfg = MsfConfig {
                base_size: 2,
                ..MsfConfig::with_threads(p)
            };
            let r = minimum_spanning_forest(&g, algo, &cfg);
            assert_eq!(r.edges, reference.edges, "{algo} at p={p}");
        }
    }
}

/// Near-empty and tiny graphs across all algorithms.
#[test]
fn degenerate_sizes() {
    use msf_suite::graph::EdgeList;
    let cases = [
        EdgeList::from_triples(0, vec![]),
        EdgeList::from_triples(1, vec![]),
        EdgeList::from_triples(2, vec![]),
        EdgeList::from_triples(2, vec![(0, 1, 0.5)]),
        EdgeList::from_triples(3, vec![(0, 1, 0.5)]),
    ];
    for (i, g) in cases.iter().enumerate() {
        let reference = minimum_spanning_forest(g, Algorithm::Kruskal, &MsfConfig::default());
        for algo in Algorithm::ALL {
            let r = minimum_spanning_forest(g, algo, &MsfConfig::with_threads(3));
            assert_eq!(r.edges, reference.edges, "case {i}, {algo}");
            assert_eq!(r.components, reference.components, "case {i}, {algo}");
        }
    }
}
