//! Self-certifying MSF verification — no reference forest, no Kruskal.
//!
//! [`verify_msf`](crate::verify::verify_msf) proves a result correct by
//! recomputing the forest with Kruskal and comparing edge sets. That is a
//! strong check with one blind spot: a bug shared by the reference and the
//! algorithm under test (the `(weight, id)` tie-break conventions, the
//! dedup rules of the contract passes) self-certifies. This module closes
//! the gap with one certificate derived *only* from an optimality
//! characterization of the MSF itself:
//!
//! * **structure** — every claimed edge id is valid and distinct, the edge
//!   set is acyclic, and it spans: no input edge joins two of its trees;
//! * **cycle property** — every non-forest edge is strictly heavier (in the
//!   `(weight, id)` total order) than the maximum edge on the forest path
//!   between its endpoints, checked by O(log n) queries against a
//!   [`PathMaxForest`], King's Borůvka tree of the claimed forest.
//!
//! A spanning forest with the cycle property is THE unique MSF under the
//! total order. The cut property needs no pass of its own: a non-forest
//! edge e crosses the cut that a forest edge f defines exactly when f lies
//! on e's forest path, so e's query already compares e with every such f,
//! and e lighter than f breaks both properties at once. A cut-side check
//! over the same pairs could never reject a spanning forest that the cycle
//! side accepts.
//!
//! The same queries decide spanning. An acyclic claimed forest has
//! n − |F| trees, and it fails to span exactly when some non-forest edge
//! joins two of them, which is a query that finds no forest path. Only then
//! is the input's component count recomputed, for the
//! [`CertificateViolation::NotSpanning`] report. The queries are read-only
//! and run as `p` block-partitioned parallel tasks, each carrying a
//! [`WorkMeter`] so certification shows up in the modeled-cost accounting
//! like any other phase. Total cost is O(n α(n) + m log n). Verdicts come
//! in a fixed order (structure, spanning, reported components, reported
//! weight, then the cycle property at the lowest offending edge id), so a
//! fixed input gets the same verdict at every p.

use msf_graph::pathmax::PathMaxForest;
use msf_graph::{EdgeKey, EdgeList};
use msf_primitives::cost::WorkMeter;
use msf_primitives::pool;
use msf_primitives::unionfind::UnionFind;

use crate::MsfResult;

/// A named reason a claimed forest is not the minimum spanning forest.
#[derive(Debug, Clone, PartialEq)]
pub enum CertificateViolation {
    /// A claimed edge id does not exist in the input graph.
    EdgeIdOutOfRange {
        /// The offending id.
        id: u32,
        /// Number of edges in the input graph.
        num_edges: usize,
    },
    /// The same edge id appears twice in the claimed forest.
    DuplicateEdge {
        /// The duplicated id.
        id: u32,
    },
    /// The claimed edge set contains a cycle.
    CyclicForest {
        /// The first edge that closes a cycle (in claimed order).
        id: u32,
    },
    /// The claimed forest has more trees than the input has components.
    NotSpanning {
        /// Trees in the claimed forest.
        forest_trees: usize,
        /// Connected components of the input graph.
        graph_components: usize,
    },
    /// `MsfResult::total_weight` disagrees with the sum of claimed edges.
    InconsistentWeight {
        /// The reported total.
        reported: f64,
        /// The recomputed total.
        recomputed: f64,
    },
    /// `MsfResult::components` disagrees with the input's component count.
    InconsistentComponents {
        /// The reported count.
        reported: u32,
        /// The recomputed count.
        actual: usize,
    },
    /// Cycle property broken: a non-forest edge is not the heaviest edge of
    /// the cycle it closes, so swapping it in would produce a lighter (or
    /// total-order-smaller) spanning forest.
    CycleProperty {
        /// The offending non-forest edge.
        non_forest: u32,
        /// Its total-order key.
        non_forest_key: EdgeKey,
        /// The maximum key on the forest path between its endpoints. Its id
        /// names the forest edge that `non_forest` should replace:
        /// `non_forest` crosses that edge's cut and is lighter.
        path_max: EdgeKey,
    },
}

impl std::fmt::Display for CertificateViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CertificateViolation::EdgeIdOutOfRange { id, num_edges } => {
                write!(f, "edge id {id} out of range (m = {num_edges})")
            }
            CertificateViolation::DuplicateEdge { id } => write!(f, "edge id {id} used twice"),
            CertificateViolation::CyclicForest { id } => {
                write!(f, "edge id {id} closes a cycle in the claimed forest")
            }
            CertificateViolation::NotSpanning {
                forest_trees,
                graph_components,
            } => write!(
                f,
                "forest is not spanning: {forest_trees} trees but the graph has \
                 {graph_components} components"
            ),
            CertificateViolation::InconsistentWeight {
                reported,
                recomputed,
            } => write!(f, "reported weight {reported} != recomputed {recomputed}"),
            CertificateViolation::InconsistentComponents { reported, actual } => {
                write!(
                    f,
                    "result reports {reported} components, graph has {actual}"
                )
            }
            CertificateViolation::CycleProperty {
                non_forest,
                non_forest_key,
                path_max,
            } => write!(
                f,
                "cycle property violated: non-forest edge {non_forest} (key {non_forest_key:?}) \
                 is lighter than forest edge {} (key {path_max:?}), the maximum of the cycle it \
                 closes — the forest is not minimum",
                path_max.id
            ),
        }
    }
}

impl std::error::Error for CertificateViolation {}

/// Evidence of a successful certification, with the work accounting of the
/// parallel query pass.
#[derive(Debug, Clone)]
pub struct Certificate {
    /// Edges in the certified forest.
    pub forest_edges: usize,
    /// Non-forest edges that passed the cycle-property query.
    pub cycle_queries: usize,
    /// Forest edges proved the minimum edge across their cut. Derived, not
    /// counted: the cycle-property queries test every (forest edge,
    /// crossing non-forest edge) pair, so on acceptance this equals
    /// `forest_edges`. It stays because the daemon's certify reply and the
    /// benchmark's `certify.cut_checks` report it.
    pub cut_checks: usize,
    /// Trees in the forest (== components of the input).
    pub trees: usize,
    /// Per-block meters of the parallel cycle-property pass.
    pub meters: Vec<WorkMeter>,
}

impl Certificate {
    /// Modeled time of the certification's parallel query pass (max over
    /// blocks, as barriers make a phase as slow as its slowest worker).
    pub fn modeled_time(&self) -> u64 {
        msf_primitives::cost::modeled_time(&self.meters)
    }
}

/// True when a reported forest weight matches the recomputed sum within
/// the suite's relative tolerance. A NaN or infinite report never matches.
pub(crate) fn weight_matches(recomputed: f64, reported: f64) -> bool {
    (recomputed - reported).abs() <= 1e-9 * recomputed.abs().max(1.0)
}

/// Certify `result` against `g` using [`pool::width`] blocks.
pub fn certify_msf(g: &EdgeList, result: &MsfResult) -> Result<Certificate, CertificateViolation> {
    certify_msf_with(g, result, pool::width())
}

/// Certify `result` against `g`, partitioning the cycle-property queries
/// into `threads` metered blocks. Never invokes Kruskal (or any other MSF
/// algorithm): acceptance is proved from the cycle property alone.
pub fn certify_msf_with(
    g: &EdgeList,
    result: &MsfResult,
    threads: usize,
) -> Result<Certificate, CertificateViolation> {
    let n = g.num_vertices();
    let m = g.num_edges();

    // --- Structure: ids valid and distinct, acyclic. ---
    let mut in_forest = vec![false; m];
    for &id in &result.edges {
        if id as usize >= m {
            return Err(CertificateViolation::EdgeIdOutOfRange { id, num_edges: m });
        }
        if in_forest[id as usize] {
            return Err(CertificateViolation::DuplicateEdge { id });
        }
        in_forest[id as usize] = true;
    }
    let mut uf = UnionFind::new(n);
    for &id in &result.edges {
        let e = g.edge(id);
        if !uf.union(e.u as usize, e.v as usize) {
            return Err(CertificateViolation::CyclicForest { id });
        }
    }
    let trees = uf.set_count();

    let pass = query_pass(g, &result.edges, &in_forest, threads.max(1));
    if !pass.spans {
        return Err(CertificateViolation::NotSpanning {
            forest_trees: trees,
            graph_components: msf_graph::validate::component_count(g),
        });
    }
    if result.components as usize != trees {
        return Err(CertificateViolation::InconsistentComponents {
            reported: result.components,
            actual: trees,
        });
    }
    let weight: f64 = result.edges.iter().map(|&id| g.edge(id).w).sum();
    if !weight_matches(weight, result.total_weight) {
        return Err(CertificateViolation::InconsistentWeight {
            reported: result.total_weight,
            recomputed: weight,
        });
    }
    if let Some(v) = pass.violation {
        return Err(v);
    }

    Ok(Certificate {
        forest_edges: result.edges.len(),
        cycle_queries: pass.queries,
        cut_checks: result.edges.len(),
        trees,
        meters: pass.meters,
    })
}

/// What the path-max queries over the non-forest edges found.
struct QueryPass {
    /// One meter per block.
    meters: Vec<WorkMeter>,
    /// Queries answered.
    queries: usize,
    /// False when some non-forest edge joins two trees of the claimed
    /// forest (a block stops at the first such edge).
    spans: bool,
    /// The cycle-property violation of the lowest offending edge id.
    violation: Option<CertificateViolation>,
}

/// Build a [`PathMaxForest`] over the claimed edges, then answer one
/// path-max query per non-forest edge in `p` metered blocks.
fn query_pass(g: &EdgeList, forest_ids: &[u32], in_forest: &[bool], p: usize) -> QueryPass {
    let n = g.num_vertices();
    let m = g.num_edges();
    let forest: Vec<(u32, u32, EdgeKey)> = forest_ids
        .iter()
        .map(|&id| {
            let e = g.edge(id);
            (e.u, e.v, e.key())
        })
        .collect();
    let pm = PathMaxForest::build(n, &forest);
    let log_n = u64::from(usize::BITS - n.max(2).leading_zeros());
    let edges = g.edges();
    let blocks: Vec<(Option<CertificateViolation>, bool, WorkMeter, usize)> =
        pool::map_collect(p, 1, |t| {
            let r = msf_primitives::block_range(m, p, t);
            let mut meter = WorkMeter::new();
            let mut queries = 0usize;
            let mut first: Option<CertificateViolation> = None;
            for e in &edges[r] {
                if in_forest[e.id as usize] || e.u == e.v {
                    continue;
                }
                queries += 1;
                // A path-max query walks two ancestor chains: ~2 log n
                // scattered reads and as many key comparisons.
                meter.mem(2 * log_n);
                meter.ops(2 * log_n);
                match pm.path_max(e.u, e.v) {
                    Some(path_max) if e.key() > path_max => {}
                    // Edge ids match positions, so a block's first
                    // violation is its lowest id.
                    Some(path_max) => {
                        first.get_or_insert(CertificateViolation::CycleProperty {
                            non_forest: e.id,
                            non_forest_key: e.key(),
                            path_max,
                        });
                    }
                    None => return (first, false, meter, queries),
                }
            }
            (first, true, meter, queries)
        });
    let mut pass = QueryPass {
        meters: Vec::with_capacity(p),
        queries: 0,
        spans: true,
        violation: None,
    };
    // Blocks come in id order, so the first block's violation is the
    // lowest overall.
    for (first, spans, meter, queries) in blocks {
        pass.meters.push(meter);
        pass.queries += queries;
        pass.spans &= spans;
        pass.violation = pass.violation.or(first);
    }
    pass
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::RunStats;
    use crate::{minimum_spanning_forest, Algorithm, MsfConfig};
    use msf_graph::generators::{random_graph, GeneratorConfig};

    fn result_with(edges: Vec<u32>, g: &EdgeList) -> MsfResult {
        let total_weight = edges.iter().map(|&id| g.edge(id).w).sum();
        let mut uf = UnionFind::new(g.num_vertices());
        for e in g.edges() {
            uf.union(e.u as usize, e.v as usize);
        }
        MsfResult {
            edges,
            total_weight,
            components: uf.set_count() as u32,
            stats: RunStats::default(),
        }
    }

    #[test]
    fn accepts_every_algorithm_without_a_reference() {
        let g = random_graph(&GeneratorConfig::with_seed(11), 300, 1200);
        for algo in Algorithm::ALL {
            let r = minimum_spanning_forest(&g, algo, &MsfConfig::with_threads(3));
            let cert = certify_msf_with(&g, &r, 3).unwrap_or_else(|e| panic!("{algo}: {e}"));
            assert_eq!(cert.forest_edges, r.edges.len());
            assert!(cert.cycle_queries > 0);
            assert!(cert.modeled_time() > 0);
        }
    }

    #[test]
    fn rejects_swapped_edge_as_cut_or_cycle_violation() {
        // Triangle: MSF is {0, 1}; swapping in the heavy edge 2 for edge 1
        // keeps it spanning but breaks both optimality properties.
        let g = EdgeList::from_triples(3, vec![(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)]);
        let bad = result_with(vec![0, 2], &g);
        match certify_msf_with(&g, &bad, 2).unwrap_err() {
            CertificateViolation::CycleProperty { non_forest, .. } => assert_eq!(non_forest, 1),
            v => panic!("expected CycleProperty, got {v}"),
        }
    }

    #[test]
    fn rejects_dropped_edge_as_not_spanning() {
        let g = EdgeList::from_triples(3, vec![(0, 1, 1.0), (1, 2, 2.0)]);
        let bad = result_with(vec![0], &g);
        match certify_msf_with(&g, &bad, 2).unwrap_err() {
            CertificateViolation::NotSpanning {
                forest_trees,
                graph_components,
            } => {
                assert_eq!(forest_trees, 2);
                assert_eq!(graph_components, 1);
            }
            v => panic!("expected NotSpanning, got {v}"),
        }
    }

    #[test]
    fn rejects_heavier_parallel_substitute() {
        // Two parallel (0,1) edges; the claimed forest takes the heavy one.
        let g = EdgeList::from_triples(2, vec![(0, 1, 1.0), (0, 1, 5.0)]);
        let bad = result_with(vec![1], &g);
        let err = certify_msf_with(&g, &bad, 1).unwrap_err();
        assert!(
            matches!(
                err,
                CertificateViolation::CycleProperty { non_forest: 0, .. }
            ),
            "got {err}"
        );
    }

    #[test]
    fn rejects_cycle_duplicate_and_bad_ids() {
        let g = EdgeList::from_triples(3, vec![(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)]);
        let cyc = result_with(vec![0, 1, 2], &g);
        assert!(matches!(
            certify_msf_with(&g, &cyc, 1).unwrap_err(),
            CertificateViolation::CyclicForest { id: 2 }
        ));
        let dup = result_with(vec![0, 0], &g);
        assert!(matches!(
            certify_msf_with(&g, &dup, 1).unwrap_err(),
            CertificateViolation::DuplicateEdge { id: 0 }
        ));
        let oob = MsfResult {
            edges: vec![9],
            total_weight: 0.0,
            components: 1,
            stats: RunStats::default(),
        };
        assert!(matches!(
            certify_msf_with(&g, &oob, 1).unwrap_err(),
            CertificateViolation::EdgeIdOutOfRange {
                id: 9,
                num_edges: 3
            }
        ));
    }

    #[test]
    fn rejects_inconsistent_weight_and_components() {
        let g = EdgeList::from_triples(3, vec![(0, 1, 1.0), (1, 2, 2.0)]);
        let mut r = result_with(vec![0, 1], &g);
        r.total_weight = 999.0;
        assert!(matches!(
            certify_msf_with(&g, &r, 1).unwrap_err(),
            CertificateViolation::InconsistentWeight { .. }
        ));
        let mut r = result_with(vec![0, 1], &g);
        r.components = 7;
        assert!(matches!(
            certify_msf_with(&g, &r, 1).unwrap_err(),
            CertificateViolation::InconsistentComponents { reported: 7, .. }
        ));
    }

    #[test]
    fn rejects_nan_and_infinite_reported_weight() {
        // `(w - NaN).abs() > tol` is false, so a tolerance test written that
        // way lets a NaN report through.
        let g = EdgeList::from_triples(3, vec![(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)]);
        for reported in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut r = result_with(vec![0, 1], &g);
            r.total_weight = reported;
            match certify_msf_with(&g, &r, 2) {
                Err(CertificateViolation::InconsistentWeight { recomputed, .. }) => {
                    assert_eq!(recomputed, 3.0, "reported {reported}")
                }
                other => panic!("reported {reported}: expected InconsistentWeight, got {other:?}"),
            }
        }
    }

    #[test]
    fn tie_heavy_wrong_tree_is_rejected() {
        // 4-cycle, all weights equal: only (weight, id) order decides. The
        // true MSF is {0, 1, 2}; {1, 2, 3} spans but is not THE forest.
        let g = EdgeList::from_triples(4, vec![(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)]);
        let good = result_with(vec![0, 1, 2], &g);
        certify_msf_with(&g, &good, 2).unwrap();
        let bad = result_with(vec![1, 2, 3], &g);
        let err = certify_msf_with(&g, &bad, 2).unwrap_err();
        assert!(
            matches!(
                err,
                CertificateViolation::CycleProperty { non_forest: 0, .. }
            ),
            "id tie-break must flag edge 0, got {err}"
        );
    }

    #[test]
    fn verdicts_are_identical_across_p_and_the_sequential_hatch() {
        let g = random_graph(&GeneratorConfig::with_seed(21), 120, 480);
        let good = minimum_spanning_forest(&g, Algorithm::Boruvka, &MsfConfig::default());
        // Corrupt: drop the last forest edge, substitute the heaviest
        // non-forest edge (keeps the tree count, breaks minimality).
        let in_forest: std::collections::HashSet<u32> = good.edges.iter().copied().collect();
        let heavy = g
            .edges()
            .iter()
            .filter(|e| !in_forest.contains(&e.id))
            .max_by_key(|e| e.key())
            .unwrap();
        // Find a forest edge on the cycle heavy closes, to swap out.
        let forest: Vec<(u32, u32, EdgeKey)> = good
            .edges
            .iter()
            .map(|&id| {
                let e = g.edge(id);
                (e.u, e.v, e.key())
            })
            .collect();
        let pm = PathMaxForest::build(g.num_vertices(), &forest);
        let cycle_max = pm.path_max(heavy.u, heavy.v).unwrap();
        let mut edges: Vec<u32> = good
            .edges
            .iter()
            .copied()
            .filter(|&id| id != cycle_max.id)
            .collect();
        edges.push(heavy.id);
        edges.sort_unstable();
        let mut cases = vec![(g.clone(), result_with(edges, &g)), (g, good)];
        for (_, g, edges, _, _) in canonical_corruptions() {
            let r = result_with(edges, &g);
            cases.push((g, r));
        }

        // A disconnected input: two triangles and an isolated vertex, so
        // three components and a three-tree true forest {0, 1, 3, 4}.
        let islands = EdgeList::from_triples(
            7,
            vec![
                (0, 1, 1.0),
                (1, 2, 2.0),
                (0, 2, 3.0),
                (3, 4, 1.0),
                (4, 5, 2.0),
                (3, 5, 3.0),
            ],
        );
        let true_forest = result_with(vec![0, 1, 3, 4], &islands);
        match certify_msf_with(&islands, &true_forest, 2) {
            Ok(c) => assert_eq!((c.trees, c.cut_checks), (3, 4)),
            Err(v) => panic!("the true forest of a disconnected input: {v}"),
        }
        // Edge 2 swapped in for edge 1 (edge 1 now breaks the cycle
        // property) and edge 4 dropped (edges 4 and 5 now join two trees).
        // Spanning is judged first, at every p, even where a block meets
        // the cycle violation before the crossing edge.
        let swapped_and_dropped = result_with(vec![0, 2, 3], &islands);
        assert_eq!(
            certify_msf_with(&islands, &swapped_and_dropped, 2).unwrap_err(),
            CertificateViolation::NotSpanning {
                forest_trees: 4,
                graph_components: 3,
            }
        );
        let mut miscounted = true_forest.clone();
        miscounted.components += 1;
        assert_eq!(
            certify_msf_with(&islands, &miscounted, 2).unwrap_err(),
            CertificateViolation::InconsistentComponents {
                reported: 4,
                actual: 3,
            }
        );
        for r in [true_forest, swapped_and_dropped, miscounted] {
            cases.push((islands.clone(), r));
        }

        // Same verdict, and for accepted forests the same certificate, at
        // every p and with the pool bypassed (as under MSF_SEQUENTIAL=1).
        for (g, r) in &cases {
            let reference = msf_pool::with_sequential(|| certify_msf_with(g, r, 1));
            for p in [1usize, 2, 3, 7] {
                let pooled = certify_msf_with(g, r, p);
                let sequential = msf_pool::with_sequential(|| certify_msf_with(g, r, p));
                for verdict in [&pooled, &sequential] {
                    match (verdict, &reference) {
                        (Ok(c), Ok(rc)) => {
                            assert_eq!(c.meters.len(), p);
                            assert_eq!(
                                (c.forest_edges, c.cycle_queries, c.cut_checks, c.trees),
                                (rc.forest_edges, rc.cycle_queries, rc.cut_checks, rc.trees)
                            );
                        }
                        (Err(a), Err(b)) => assert_eq!(a, b, "p = {p}"),
                        (a, b) => panic!("p = {p}: verdicts differ: {a:?} vs {b:?}"),
                    }
                }
            }
        }
    }

    /// The canonical corruptions, each with the cycle violation it must
    /// produce: `(name, graph, claimed forest, offending non-forest edge,
    /// forest edge at its path maximum)`.
    fn canonical_corruptions() -> Vec<(&'static str, EdgeList, Vec<u32>, u32, u32)> {
        vec![
            (
                // Triangle, heavy edge 2 swapped in for edge 1: edge 1's
                // cycle runs through the heavier edge 2.
                "swapped heavy edge",
                EdgeList::from_triples(3, vec![(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)]),
                vec![0, 2],
                1,
                2,
            ),
            (
                "heavier parallel substitute",
                EdgeList::from_triples(2, vec![(0, 1, 1.0), (0, 1, 5.0)]),
                vec![1],
                0,
                1,
            ),
            (
                // Equal-weight 4-cycle, {1, 2, 3} claimed: edge 0 wins every
                // tie by id, and the path maximum is the highest id, 3.
                "tie-heavy wrong tree",
                EdgeList::from_triples(4, vec![(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)]),
                vec![1, 2, 3],
                0,
                3,
            ),
        ]
    }

    #[test]
    fn canonical_corruptions_are_named_at_every_p() {
        for (name, g, edges, non_forest, path_max_id) in canonical_corruptions() {
            let r = result_with(edges, &g);
            for p in [1usize, 2, 3] {
                match certify_msf_with(&g, &r, p) {
                    Err(CertificateViolation::CycleProperty {
                        non_forest: nf,
                        non_forest_key,
                        path_max,
                    }) => {
                        assert_eq!((nf, path_max.id), (non_forest, path_max_id), "{name}");
                        assert_eq!(non_forest_key, g.edge(non_forest).key(), "{name}");
                        assert_eq!(path_max, g.edge(path_max_id).key(), "{name}");
                    }
                    other => panic!("{name} at p = {p}: expected CycleProperty, got {other:?}"),
                }
            }
            // The true forest is accepted.
            let good = minimum_spanning_forest(&g, Algorithm::Kruskal, &MsfConfig::default());
            certify_msf_with(&g, &good, 2).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    #[test]
    fn handles_empty_and_single_vertex_graphs() {
        for n in [0usize, 1, 2] {
            let g = EdgeList::from_triples(n, vec![]);
            let r = result_with(vec![], &g);
            let cert = certify_msf_with(&g, &r, 3).unwrap();
            assert_eq!(cert.forest_edges, 0);
            assert_eq!(cert.trees, n);
        }
    }
}
