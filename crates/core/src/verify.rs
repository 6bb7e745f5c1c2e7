//! MSF verification.
//!
//! With the `(weight, edge id)` total order the minimum spanning forest is
//! unique, so the strongest check is available cheaply: structural forest
//! invariants plus exact edge-set equality with a trusted sequential
//! reference, cross-checked against the Kruskal-independent certificate of
//! [`crate::certify`] so the reference and the certifier vouch for each
//! other.

use std::collections::HashSet;

use msf_graph::EdgeList;
use msf_primitives::unionfind::UnionFind;

use crate::MsfResult;

/// How many differing edge ids to include in a mismatch message.
const DIFF_SAMPLE: usize = 5;

/// The ids in `a` but not `b`, ascending, at most [`DIFF_SAMPLE`] of them.
/// Hash-set membership keeps the diff O(k) rather than the O(k²) that
/// repeated `contains` scans on large forests would cost.
fn sample_diff(a: &[u32], b: &[u32]) -> Vec<u32> {
    let b: HashSet<u32> = b.iter().copied().collect();
    let mut out: Vec<u32> = a.iter().copied().filter(|id| !b.contains(id)).collect();
    out.sort_unstable();
    out.truncate(DIFF_SAMPLE);
    out
}

/// Verify that `result` is a minimum spanning forest of `g`.
///
/// Checks, in order:
/// 1. every edge id is valid and used at most once;
/// 2. the edges are acyclic (union–find accepts every one);
/// 3. the forest spans: tree count equals the component count of `g`;
/// 4. the reported weight and component fields are consistent;
/// 5. the edge set equals the (unique) MSF computed by Kruskal;
/// 6. the Kruskal comparison and the self-contained optimality certificate
///    of [`crate::certify::certify_msf`] reach the same verdict — a
///    disagreement means the *verifiers* are buggy, and is reported as such.
pub fn verify_msf(g: &EdgeList, result: &MsfResult) -> Result<(), String> {
    let n = g.num_vertices();
    let m = g.num_edges();

    let mut seen = vec![false; m];
    for &id in &result.edges {
        let id = id as usize;
        if id >= m {
            return Err(format!("edge id {id} out of range (m = {m})"));
        }
        if seen[id] {
            return Err(format!("edge id {id} used twice"));
        }
        seen[id] = true;
    }

    let mut uf = UnionFind::new(n);
    for &id in &result.edges {
        let e = g.edge(id);
        if !uf.union(e.u as usize, e.v as usize) {
            return Err(format!("edge id {id} closes a cycle"));
        }
    }

    let components = msf_graph::validate::component_count(g);
    if uf.set_count() != components {
        return Err(format!(
            "forest has {} trees but the graph has {} components — not spanning",
            uf.set_count(),
            components
        ));
    }
    if result.components as usize != components {
        return Err(format!(
            "result reports {} components, graph has {components}",
            result.components
        ));
    }

    let weight: f64 = result.edges.iter().map(|&id| g.edge(id).w).sum();
    if !crate::certify::weight_matches(weight, result.total_weight) {
        return Err(format!(
            "reported weight {} != recomputed {weight}",
            result.total_weight
        ));
    }

    let reference = crate::seq::kruskal::msf(g);
    let kruskal_verdict = if reference.edges == result.edges {
        Ok(())
    } else {
        let missing = sample_diff(&reference.edges, &result.edges);
        let extra = sample_diff(&result.edges, &reference.edges);
        Err(format!(
            "edge set differs from the unique MSF (missing e.g. {missing:?}, extra e.g. {extra:?})"
        ))
    };

    // Independent second opinion: the cycle-property certificate never
    // runs Kruskal, so agreement here means a shared reference bug cannot
    // silently accept a wrong forest (nor a certifier bug reject a right
    // one).
    let certificate_verdict = crate::certify::certify_msf(g, result);
    match (kruskal_verdict, certificate_verdict) {
        (Ok(()), Ok(_)) => Ok(()),
        (Err(k), Err(_)) => Err(k),
        (Ok(()), Err(c)) => Err(format!(
            "verifier disagreement: matches the Kruskal reference but fails \
             certification ({c}) — one of the two verifiers is buggy"
        )),
        (Err(k), Ok(_)) => Err(format!(
            "verifier disagreement: certified optimal yet differs from the \
             Kruskal reference ({k}) — one of the two verifiers is buggy"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::RunStats;
    use crate::{minimum_spanning_forest, Algorithm, MsfConfig, MsfResult};
    use msf_graph::generators::{random_graph, GeneratorConfig};

    fn fake_result(edges: Vec<u32>, weight: f64, components: u32) -> MsfResult {
        MsfResult {
            edges,
            total_weight: weight,
            components,
            stats: RunStats::default(),
        }
    }

    #[test]
    fn accepts_correct_forest() {
        let g = random_graph(&GeneratorConfig::with_seed(1), 100, 300);
        let r = minimum_spanning_forest(&g, Algorithm::Kruskal, &MsfConfig::default());
        verify_msf(&g, &r).unwrap();
    }

    #[test]
    fn rejects_cycle() {
        let g = EdgeList::from_triples(3, vec![(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)]);
        let r = fake_result(vec![0, 1, 2], 6.0, 0);
        assert!(verify_msf(&g, &r).unwrap_err().contains("cycle"));
    }

    #[test]
    fn rejects_non_spanning() {
        let g = EdgeList::from_triples(3, vec![(0, 1, 1.0), (1, 2, 2.0)]);
        let r = fake_result(vec![0], 1.0, 2);
        assert!(verify_msf(&g, &r).unwrap_err().contains("not spanning"));
    }

    #[test]
    fn rejects_non_minimum() {
        // Spanning but picks the heavy edge.
        let g = EdgeList::from_triples(3, vec![(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)]);
        let r = fake_result(vec![0, 2], 4.0, 1);
        assert!(verify_msf(&g, &r).unwrap_err().contains("differs"));
    }

    #[test]
    fn rejects_bad_ids_and_weights() {
        let g = EdgeList::from_triples(3, vec![(0, 1, 1.0), (1, 2, 2.0)]);
        assert!(verify_msf(&g, &fake_result(vec![7], 0.0, 1))
            .unwrap_err()
            .contains("out of range"));
        assert!(verify_msf(&g, &fake_result(vec![0, 0], 2.0, 1))
            .unwrap_err()
            .contains("twice"));
        let wrong_weight = fake_result(vec![0, 1], 999.0, 1);
        assert!(verify_msf(&g, &wrong_weight)
            .unwrap_err()
            .contains("weight"));
    }

    #[test]
    fn rejects_nan_reported_weight() {
        let g = EdgeList::from_triples(3, vec![(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)]);
        let r = fake_result(vec![0, 1], f64::NAN, 1);
        assert!(verify_msf(&g, &r).unwrap_err().contains("weight"));
    }

    #[test]
    fn rejects_wrong_component_count() {
        let g = EdgeList::from_triples(3, vec![(0, 1, 1.0), (1, 2, 2.0)]);
        let r = fake_result(vec![0, 1], 3.0, 5);
        assert!(verify_msf(&g, &r).unwrap_err().contains("components"));
    }
}
