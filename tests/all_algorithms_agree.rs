//! Cross-crate integration: every algorithm on every generator class must
//! produce the identical (unique) minimum spanning forest.

use msf_suite::core::certify::certify_msf_with;
use msf_suite::core::{minimum_spanning_forest, verify, Algorithm, MsfConfig};
use msf_suite::graph::generators::{standard_suite, GeneratorConfig};

/// The headline invariant: 8 algorithms × 10 generator classes × several
/// thread counts, all byte-identical to the Kruskal reference.
#[test]
fn full_matrix_agreement() {
    let gen = GeneratorConfig::with_seed(2026);
    for (name, g) in standard_suite(&gen, 600) {
        let reference = minimum_spanning_forest(&g, Algorithm::Kruskal, &MsfConfig::default());
        verify::verify_msf(&g, &reference).unwrap_or_else(|e| panic!("{name}: {e}"));
        certify_msf_with(&g, &reference, 3).unwrap_or_else(|e| panic!("{name} (certificate): {e}"));
        for algo in Algorithm::ALL {
            for p in [1usize, 3, 7] {
                let cfg = MsfConfig {
                    base_size: 16,
                    ..MsfConfig::with_threads(p)
                };
                let r = minimum_spanning_forest(&g, algo, &cfg);
                assert_eq!(
                    r.edges, reference.edges,
                    "{algo} disagrees with Kruskal on {name} at p={p}"
                );
                assert_eq!(r.components, reference.components, "{algo} on {name}");
                assert!(
                    (r.total_weight - reference.total_weight).abs()
                        <= 1e-9 * reference.total_weight.abs().max(1.0),
                    "{algo} weight drift on {name}"
                );
            }
        }
    }
}

/// Disconnected inputs: the suite solves minimum spanning *forest*, so glue
/// three islands together and check every algorithm finds one tree each.
#[test]
fn disconnected_inputs_yield_forests() {
    use msf_suite::graph::generators::random_graph;
    use msf_suite::graph::EdgeList;

    let gen = GeneratorConfig::with_seed(7);
    let islands: Vec<_> = (0..3)
        .map(|i| random_graph(&GeneratorConfig::with_seed(gen.seed + i), 150, 450))
        .collect();
    // Re-number vertices into one big disconnected graph.
    let mut triples = Vec::new();
    for (i, island) in islands.iter().enumerate() {
        let off = (i * 150) as u32;
        for e in island.edges() {
            triples.push((e.u + off, e.v + off, e.w));
        }
    }
    let g = EdgeList::from_triples(450 + 5, triples); // plus 5 isolated vertices

    let reference = minimum_spanning_forest(&g, Algorithm::Kruskal, &MsfConfig::default());
    let components = msf_suite::graph::validate::component_count(&g) as u32;
    assert!(
        components >= 3 + 5,
        "at least 3 islands + 5 isolated vertices"
    );
    assert_eq!(reference.components, components);
    assert_eq!(reference.edges.len(), 455 - components as usize);
    for algo in Algorithm::ALL {
        let r = minimum_spanning_forest(&g, algo, &MsfConfig::with_threads(4));
        assert_eq!(r.edges, reference.edges, "{algo}");
        verify::verify_msf(&g, &r).unwrap_or_else(|e| panic!("{algo}: {e}"));
    }
}

/// Heavy tie stress: many duplicate weights must still give one unique
/// forest thanks to the (weight, id) total order.
#[test]
fn duplicate_weights_are_deterministic() {
    use msf_suite::graph::EdgeList;
    // A 20x20 grid where every edge weighs 1.0.
    let side = 20u32;
    let mut triples = Vec::new();
    for r in 0..side {
        for c in 0..side {
            let v = r * side + c;
            if c + 1 < side {
                triples.push((v, v + 1, 1.0));
            }
            if r + 1 < side {
                triples.push((v, v + side, 1.0));
            }
        }
    }
    let g = EdgeList::from_triples((side * side) as usize, triples);
    let reference = minimum_spanning_forest(&g, Algorithm::Kruskal, &MsfConfig::default());
    for algo in Algorithm::ALL {
        for p in [1, 2, 5] {
            let r = minimum_spanning_forest(&g, algo, &MsfConfig::with_threads(p));
            assert_eq!(r.edges, reference.edges, "{algo} p={p}");
        }
    }
}

/// Star graphs maximize contention on a single hub — a worst case for the
/// concurrent coloring in MST-BC and for segment skew in Bor-EL.
#[test]
fn star_graph_all_algorithms() {
    use msf_suite::graph::EdgeList;
    let n = 2000u32;
    let triples: Vec<(u32, u32, f64)> = (1..n).map(|v| (0, v, f64::from(v) * 0.25)).collect();
    let g = EdgeList::from_triples(n as usize, triples);
    let reference = minimum_spanning_forest(&g, Algorithm::Kruskal, &MsfConfig::default());
    assert_eq!(reference.edges.len(), (n - 1) as usize);
    for algo in Algorithm::ALL {
        let r = minimum_spanning_forest(&g, algo, &MsfConfig::with_threads(6));
        assert_eq!(r.edges, reference.edges, "{algo}");
    }
}

/// Paths stress the iteration count of pointer jumping and the recursion
/// depth of MST-BC.
#[test]
fn long_path_all_algorithms() {
    use msf_suite::graph::EdgeList;
    let n = 3000u32;
    let triples: Vec<(u32, u32, f64)> = (0..n - 1)
        .map(|v| (v, v + 1, ((v * 7919) % 1000) as f64))
        .collect();
    let g = EdgeList::from_triples(n as usize, triples);
    for algo in Algorithm::ALL {
        let r = minimum_spanning_forest(&g, algo, &MsfConfig::with_threads(4));
        assert_eq!(
            r.edges.len(),
            (n - 1) as usize,
            "{algo} must take every path edge"
        );
    }
}
