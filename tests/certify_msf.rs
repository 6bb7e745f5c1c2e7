//! Acceptance tests for the Kruskal-independent certification layer: every
//! algorithm's output across the standard generator suite and several thread
//! counts must pass `certify_msf`, and each canonical corruption — swapped
//! edge, dropped edge, heavier parallel substitute — must be rejected with a
//! named certificate violation.

use msf_suite::core::certify::{certify_msf_with, CertificateViolation};
use msf_suite::core::stats::RunStats;
use msf_suite::core::{minimum_spanning_forest, verify, Algorithm, MsfConfig, MsfResult};
use msf_suite::graph::generators::{random_graph, standard_suite, GeneratorConfig};
use msf_suite::graph::pathmax::PathMaxForest;
use msf_suite::graph::transform::overlay;
use msf_suite::graph::{EdgeKey, EdgeList};

/// An `MsfResult` for a claimed edge set, with weight and component count
/// recomputed honestly so only the optimality checks can object.
fn claimed(g: &EdgeList, mut edges: Vec<u32>) -> MsfResult {
    edges.sort_unstable();
    let total_weight = edges.iter().map(|&id| g.edge(id).w).sum();
    let components = msf_suite::graph::validate::component_count(g) as u32;
    MsfResult {
        edges,
        total_weight,
        components,
        stats: RunStats::default(),
    }
}

/// The headline acceptance matrix: every algorithm × every standard
/// generator × p ∈ {1, 3, 7}, certified purely from the cycle property —
/// `certify_msf_with` never runs Kruskal or any reference.
#[test]
fn certifies_full_matrix_without_a_reference() {
    for (name, g) in standard_suite(&GeneratorConfig::with_seed(2026), 400) {
        for algo in Algorithm::ALL {
            for p in [1usize, 3, 7] {
                let cfg = MsfConfig {
                    base_size: 16,
                    ..MsfConfig::with_threads(p)
                };
                let r = minimum_spanning_forest(&g, algo, &cfg);
                let cert = certify_msf_with(&g, &r, p)
                    .unwrap_or_else(|e| panic!("{algo} on {name} at p={p}: {e}"));
                assert_eq!(cert.forest_edges, r.edges.len(), "{algo} on {name}");
                assert_eq!(cert.cut_checks, r.edges.len(), "{algo} on {name}");
                assert_eq!(cert.meters.len(), p, "one meter per block");
            }
        }
    }
}

/// Swap one forest edge for a non-forest edge closing the same cycle: the
/// result still spans, weights are honest, but optimality is gone.
#[test]
fn swapped_edge_is_rejected_by_name() {
    let g = random_graph(&GeneratorConfig::with_seed(31), 150, 600);
    let good = minimum_spanning_forest(&g, Algorithm::BorAl, &MsfConfig::with_threads(3));
    let in_forest: std::collections::HashSet<u32> = good.edges.iter().copied().collect();
    let heavy = g
        .edges()
        .iter()
        .filter(|e| !in_forest.contains(&e.id))
        .max_by_key(|e| e.key())
        .expect("dense graph has non-forest edges");
    let forest: Vec<(u32, u32, EdgeKey)> = good
        .edges
        .iter()
        .map(|&id| {
            let e = g.edge(id);
            (e.u, e.v, e.key())
        })
        .collect();
    let on_cycle = PathMaxForest::build(g.num_vertices(), &forest)
        .path_max(heavy.u, heavy.v)
        .expect("endpoints are in one tree");
    let mut edges: Vec<u32> = good
        .edges
        .iter()
        .copied()
        .filter(|&id| id != on_cycle.id)
        .collect();
    edges.push(heavy.id);
    let bad = claimed(&g, edges);
    match certify_msf_with(&g, &bad, 3) {
        Err(CertificateViolation::CycleProperty {
            non_forest,
            path_max,
            ..
        }) => {
            assert_ne!(non_forest, heavy.id, "the swapped-in edge now IS forest");
            assert_eq!(
                path_max.id, heavy.id,
                "the violation names the swapped-in edge"
            );
        }
        other => panic!("expected a named optimality violation, got {other:?}"),
    }
    // The Kruskal-based verifier and the certificate agree on the verdict.
    assert!(verify::verify_msf(&g, &bad).is_err());
}

/// Drop a forest edge: structure itself breaks (too many trees).
#[test]
fn dropped_edge_is_rejected_by_name() {
    let g = random_graph(&GeneratorConfig::with_seed(32), 100, 400);
    let good = minimum_spanning_forest(&g, Algorithm::BorFal, &MsfConfig::with_threads(3));
    let mut edges = good.edges.clone();
    edges.pop();
    let bad = claimed(&g, edges);
    match certify_msf_with(&g, &bad, 3) {
        Err(CertificateViolation::NotSpanning {
            forest_trees,
            graph_components,
        }) => assert_eq!(forest_trees, graph_components + 1),
        other => panic!("expected NotSpanning, got {other:?}"),
    }
}

/// Replace a forest edge with a strictly heavier parallel twin: spanning
/// structure is intact, so only the optimality checks can object.
#[test]
fn heavier_substitute_is_rejected_by_name() {
    let base = random_graph(&GeneratorConfig::with_seed(33), 80, 240);
    let m = base.num_edges() as u32;
    let heavy = EdgeList::from_triples(
        base.num_vertices(),
        base.edges().iter().map(|e| (e.u, e.v, e.w + 50.0)),
    );
    let g = overlay(&[&base, &heavy]);
    let good = minimum_spanning_forest(&g, Algorithm::Boruvka, &MsfConfig::default());
    // Overlay keeps layer order, so edge id + m is the heavy twin.
    let victim = good.edges[0];
    let edges: Vec<u32> = good
        .edges
        .iter()
        .map(|&id| if id == victim { id + m } else { id })
        .collect();
    let bad = claimed(&g, edges);
    match certify_msf_with(&g, &bad, 3) {
        Err(CertificateViolation::CycleProperty {
            non_forest,
            path_max,
            ..
        }) => {
            assert_eq!(non_forest, victim, "the dropped light twin flags first");
            assert_eq!(
                path_max.id,
                victim + m,
                "the violation names the heavy twin"
            );
        }
        other => panic!("expected a named optimality violation, got {other:?}"),
    }
}

/// The two verifiers (Kruskal comparison, self-contained certificate) must
/// agree on correct results end to end — `verify_msf` now enforces this.
#[test]
fn verify_msf_cross_checks_both_verifiers() {
    let g = random_graph(&GeneratorConfig::with_seed(34), 200, 800);
    for algo in [Algorithm::BorEl, Algorithm::MstBc, Algorithm::BorFalFilter] {
        let r = minimum_spanning_forest(&g, algo, &MsfConfig::with_threads(7));
        verify::verify_msf(&g, &r).unwrap_or_else(|e| panic!("{algo}: {e}"));
    }
}
