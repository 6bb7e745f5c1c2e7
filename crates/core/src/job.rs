//! The first Borůvka round as a reusable, cacheable intermediate.
//!
//! [`crate::par::bor_write_min::first_round`] runs Bor-WriteMin's first
//! round (find-min race, connect, relabel and filter) and returns a
//! [`BoruvkaRound`]; [`finish_from_round`] finishes any algorithm over its
//! contracted multigraph. A server holding a graph resident computes the
//! round once and then serves every later request from the (much smaller)
//! contraction. The combined forest is **bit-identical** to a from-scratch
//! run because the `(weight, edge id)` total order makes the MSF unique and
//! the round selects only edges of that unique forest (cut property).

use msf_graph::{Edge, EdgeList};

use crate::{minimum_spanning_forest, Algorithm, MsfConfig, MsfResult};

/// The cacheable intermediate of one Borůvka iteration over a graph: the
/// forest edges the round selected, the contracted supervertex multigraph
/// (self-loops removed, multi-edges kept), and the id map that translates
/// contracted edge ids back to input edge ids.
#[derive(Debug, Clone)]
pub struct BoruvkaRound {
    /// Input edge ids selected by the round (all in the unique MSF).
    pub forest: Vec<u32>,
    /// The contracted multigraph. Its edge ids are fresh (`0..m'`) but
    /// assigned in increasing input-id order, so the `(weight, id)` tie
    /// order of the contraction is isomorphic to the input's.
    pub contracted: EdgeList,
    /// Contracted edge id → input edge id.
    pub id_map: Vec<u32>,
    /// Vertex count of the input graph the round was computed from.
    pub orig_vertices: usize,
    /// Edge count of the input graph the round was computed from.
    pub orig_edges: usize,
}

impl BoruvkaRound {
    /// Approximate resident size in bytes (for cache accounting).
    pub fn bytes(&self) -> u64 {
        (self.forest.len() * std::mem::size_of::<u32>()
            + self.contracted.num_edges() * std::mem::size_of::<Edge>()
            + self.id_map.len() * std::mem::size_of::<u32>()) as u64
    }
}

/// Finish an MSF computation from a cached [`BoruvkaRound`]: run
/// `algorithm` over the contracted multigraph, translate the selected ids
/// back to input ids, and merge with the round's forest.
///
/// # Panics
/// Panics if `round` was not computed from a graph with `g`'s shape (the
/// cache key must pin graph identity; this is the last-line guard).
pub fn finish_from_round(
    g: &EdgeList,
    round: &BoruvkaRound,
    algorithm: Algorithm,
    cfg: &MsfConfig,
) -> MsfResult {
    assert_eq!(
        (round.orig_vertices, round.orig_edges),
        (g.num_vertices(), g.num_edges()),
        "BoruvkaRound used with a different graph than it was computed from"
    );
    let mut ids = round.forest.clone();
    let mut stats = crate::stats::RunStats::new(algorithm.name(), cfg.threads);
    if round.contracted.num_edges() > 0 {
        let sub = minimum_spanning_forest(&round.contracted, algorithm, cfg);
        ids.extend(sub.edges.iter().map(|&cid| round.id_map[cid as usize]));
        stats = sub.stats;
    }
    MsfResult::from_ids(g, ids, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::par::bor_write_min::first_round;
    use msf_graph::generators::{
        assign_weights, mesh2d, random_graph, rmat_graph, GeneratorConfig, RmatConfig, WeightScheme,
    };

    fn reference(g: &EdgeList) -> MsfResult {
        minimum_spanning_forest(g, Algorithm::Kruskal, &MsfConfig::default())
    }

    #[test]
    fn round_selects_only_msf_edges_and_shrinks() {
        let g = random_graph(&GeneratorConfig::with_seed(9), 500, 2_000);
        let round = first_round(&g, 2);
        let reference = reference(&g);
        for id in &round.forest {
            assert!(reference.edges.contains(id), "round picked a non-MSF edge");
        }
        assert!(round.contracted.num_vertices() <= g.num_vertices() / 2 + 1);
        assert_eq!(round.id_map.len(), round.contracted.num_edges());
    }

    #[test]
    fn finish_from_round_is_bit_identical_for_every_algorithm() {
        let base = random_graph(&GeneratorConfig::with_seed(3), 400, 1_600);
        // The heavy-tie scheme is the hard case for id-order isomorphism.
        for scheme in [
            WeightScheme::Uniform,
            WeightScheme::SmallIntegers { range: 4 },
        ] {
            let g = assign_weights(&base, scheme, 11);
            let round = first_round(&g, 2);
            let want = reference(&g);
            for algo in Algorithm::ALL {
                let got = finish_from_round(&g, &round, algo, &MsfConfig::with_threads(4));
                assert_eq!(got.edges, want.edges, "{algo} diverged via the round cache");
                assert_eq!(got.components, want.components);
                assert!((got.total_weight - want.total_weight).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn finish_handles_single_round_and_disconnected_graphs() {
        // A path contracts fully in one round: the sub-run must be skipped.
        let g = EdgeList::from_triples(4, vec![(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0)]);
        let round = first_round(&g, 2);
        assert_eq!(round.contracted.num_edges(), 0);
        let r = finish_from_round(&g, &round, Algorithm::BorFal, &MsfConfig::default());
        assert_eq!(r.edges, vec![0, 1, 2]);
        // Disconnected with isolated vertices.
        let g = EdgeList::from_triples(7, vec![(0, 1, 1.0), (2, 3, 5.0), (3, 4, 4.0)]);
        let round = first_round(&g, 2);
        let r = finish_from_round(&g, &round, Algorithm::Kruskal, &MsfConfig::default());
        assert_eq!(r.edges, reference(&g).edges);
        assert_eq!(r.components, 4);
    }

    #[test]
    fn mesh_round_trip_matches() {
        let g = mesh2d(&GeneratorConfig::with_seed(5), 20, 20);
        let round = first_round(&g, 2);
        let r = finish_from_round(
            &g,
            &round,
            Algorithm::BorWriteMin,
            &MsfConfig::with_threads(3),
        );
        assert_eq!(r.edges, reference(&g).edges);
    }

    /// The round's inputs: a random graph, the same graph under heavy ties,
    /// an R-MAT graph with isolated vertices, a path, and an empty graph.
    fn round_inputs() -> Vec<(&'static str, EdgeList)> {
        let random = random_graph(&GeneratorConfig::with_seed(29), 3_000, 12_000);
        let ties = assign_weights(&random, WeightScheme::SmallIntegers { range: 4 }, 29);
        let rmat = rmat_graph(RmatConfig::graph500(11, 8, 29)).unwrap();
        let mut degree = vec![0u32; rmat.num_vertices()];
        for e in rmat.edges() {
            degree[e.u as usize] += 1;
            degree[e.v as usize] += 1;
        }
        assert!(degree.contains(&0), "the R-MAT input has isolated vertices");
        let path =
            EdgeList::from_triples(2_000, (0..1_999u32).map(|i| (i, i + 1, f64::from(i % 5))));
        let empty = EdgeList::from_triples(5, vec![]);
        vec![
            ("random", random),
            ("ties", ties),
            ("rmat", rmat),
            ("path", path),
            ("empty", empty),
        ]
    }

    #[test]
    fn first_round_is_the_same_at_every_p_and_under_the_hatch() {
        for (name, g) in round_inputs() {
            let want = first_round(&g, 1);
            let seq = msf_primitives::pool::with_sequential(|| first_round(&g, 4));
            let rounds = [2, 3, 8].map(|p| (format!("p {p}"), first_round(&g, p)));
            for (how, got) in rounds.into_iter().chain([("the hatch".into(), seq)]) {
                assert_eq!(got.forest, want.forest, "{name}, {how}: forest");
                assert_eq!(got.id_map, want.id_map, "{name}, {how}: id map");
                assert_eq!(
                    got.contracted, want.contracted,
                    "{name}, {how}: contraction"
                );
            }
        }
    }

    #[test]
    fn finish_from_first_round_matches_kruskal_for_every_algorithm() {
        for (name, g) in round_inputs() {
            let round = first_round(&g, 3);
            let want = reference(&g);
            for algo in Algorithm::ALL {
                let got = finish_from_round(&g, &round, algo, &MsfConfig::with_threads(3));
                assert_eq!(
                    got.edges, want.edges,
                    "{name}: {algo} diverged via the round"
                );
                assert_eq!(got.components, want.components, "{name}: {algo}");
            }
        }
    }
}
