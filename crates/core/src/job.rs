//! MSF computations as *jobs*: schedulable units with a work estimate, so a
//! serving layer can admission-control, batch, and account them instead of
//! treating every run as an opaque whole-process batch.
//!
//! Two pieces live here:
//!
//! - [`MsfJob`] — an algorithm + config pair with an explicit
//!   [`WorkEstimate`]. [`crate::minimum_spanning_forest`] is now a thin
//!   wrapper over [`MsfJob::run`], so the CLI, benches, and the daemon all
//!   go through the same entry point.
//! - [`boruvka_round`] / [`finish_from_round`] — the first Borůvka
//!   iteration factored out as a reusable, cacheable intermediate. A server
//!   holding a graph resident computes the round once and then serves every
//!   subsequent request from the (much smaller) contracted multigraph; the
//!   combined forest is **bit-identical** to a from-scratch run because the
//!   `(weight, edge id)` total order makes the MSF unique and the round
//!   selects only edges of that unique forest (cut property).

use msf_graph::{Edge, EdgeList};
use msf_primitives::unionfind::UnionFind;

use crate::{minimum_spanning_forest, Algorithm, MsfConfig, MsfResult};

/// How much work a job will do, in abstract *edge-work units*. The unit is
/// deliberately coarse — `m + n` — because admission control needs a stable
/// ordering of job sizes, not a cycle-accurate cost model (the modeled-cost
/// machinery in `stats` answers that after the fact).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkEstimate {
    /// Vertices of the input.
    pub vertices: usize,
    /// Edges of the input.
    pub edges: usize,
    /// Admission units: `m + n`.
    pub units: u64,
}

/// Estimate the work of one MSF computation over `g`.
pub fn estimate_work(g: &EdgeList) -> WorkEstimate {
    WorkEstimate {
        vertices: g.num_vertices(),
        edges: g.num_edges(),
        units: g.num_edges() as u64 + g.num_vertices() as u64,
    }
}

/// One schedulable MSF computation: an algorithm plus its configuration.
///
/// The job owns no graph — the same job value can run over many graphs
/// (that is exactly what a daemon multiplexing resident graphs does).
#[derive(Debug, Clone)]
pub struct MsfJob {
    /// Algorithm to run.
    pub algorithm: Algorithm,
    /// Run-time configuration (processor count, MST-BC knobs, ...).
    pub config: MsfConfig,
}

impl MsfJob {
    /// A job with the default configuration.
    pub fn new(algorithm: Algorithm) -> MsfJob {
        MsfJob {
            algorithm,
            config: MsfConfig::default(),
        }
    }

    /// A job with an explicit configuration.
    pub fn with_config(algorithm: Algorithm, config: MsfConfig) -> MsfJob {
        MsfJob { algorithm, config }
    }

    /// The job's admission-control work estimate over `g`.
    pub fn estimate(&self, g: &EdgeList) -> WorkEstimate {
        estimate_work(g)
    }

    /// Run the job over `g`. Equivalent to
    /// [`crate::minimum_spanning_forest`]`(g, self.algorithm, &self.config)`.
    pub fn run(&self, g: &EdgeList) -> MsfResult {
        minimum_spanning_forest(g, self.algorithm, &self.config)
    }

    /// Run the job over `g`, reusing a cached first-round contraction.
    /// Bit-identical to [`MsfJob::run`]; see [`finish_from_round`].
    pub fn run_from_round(&self, g: &EdgeList, round: &BoruvkaRound) -> MsfResult {
        finish_from_round(g, round, self.algorithm, &self.config)
    }
}

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

/// Run one sequential Borůvka iteration over `g` and contract along the
/// selected edges.
///
/// Every selected edge is in the unique `(weight, edge id)` MSF (it is the
/// strict minimum over a cut, under a total order), and the MSF of the
/// contracted multigraph is exactly the rest of that forest — so any MSF
/// algorithm finished over the contraction yields, after id translation,
/// the same edge set a from-scratch run produces.
pub fn boruvka_round(g: &EdgeList) -> BoruvkaRound {
    const NONE: u32 = u32::MAX;
    let n = g.num_vertices();
    let edges = g.edges();

    // find-min: per vertex, the (weight, id)-minimum incident edge.
    let mut best: Vec<u32> = vec![NONE; n];
    for e in edges {
        let key = e.key();
        for v in [e.u as usize, e.v as usize] {
            if best[v] == NONE || key < edges[best[v] as usize].key() {
                best[v] = e.id;
            }
        }
    }

    // connect: union along the selected edges; dedup via union's return.
    let mut uf = UnionFind::new(n);
    let mut forest: Vec<u32> = Vec::new();
    for &id in best.iter().filter(|&&id| id != NONE) {
        let e = edges[id as usize];
        if uf.union(e.u as usize, e.v as usize) {
            forest.push(id);
        }
    }
    forest.sort_unstable();

    // compact: relabel roots to 0..n' and keep surviving edges in input-id
    // order (so fresh ids are monotone in input ids — tie-order preserving).
    let mut label: Vec<u32> = vec![NONE; n];
    let mut next = 0u32;
    let mut root_label = |uf: &mut UnionFind, v: usize, label: &mut Vec<u32>| -> u32 {
        let r = uf.find(v);
        if label[r] == NONE {
            label[r] = next;
            next += 1;
        }
        label[r]
    };
    let mut kept: Vec<(u32, u32, f64)> = Vec::new();
    let mut id_map: Vec<u32> = Vec::new();
    for e in edges {
        let lu = root_label(&mut uf, e.u as usize, &mut label);
        let lv = root_label(&mut uf, e.v as usize, &mut label);
        if lu != lv {
            kept.push((lu, lv, e.w));
            id_map.push(e.id);
        }
    }
    // Isolated input vertices never get a label; they contribute no edges
    // and the contracted vertex count only needs to cover labeled roots.
    let contracted = EdgeList::from_triples(next as usize, kept);
    BoruvkaRound {
        forest,
        contracted,
        id_map,
        orig_vertices: n,
        orig_edges: g.num_edges(),
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
    use msf_graph::generators::{
        assign_weights, mesh2d, random_graph, GeneratorConfig, WeightScheme,
    };

    fn reference(g: &EdgeList) -> MsfResult {
        minimum_spanning_forest(g, Algorithm::Kruskal, &MsfConfig::default())
    }

    #[test]
    fn round_selects_only_msf_edges_and_shrinks() {
        let g = random_graph(&GeneratorConfig::with_seed(9), 500, 2_000);
        let round = boruvka_round(&g);
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
            let round = boruvka_round(&g);
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
        let round = boruvka_round(&g);
        assert_eq!(round.contracted.num_edges(), 0);
        let r = finish_from_round(&g, &round, Algorithm::BorFal, &MsfConfig::default());
        assert_eq!(r.edges, vec![0, 1, 2]);
        // Disconnected with isolated vertices.
        let g = EdgeList::from_triples(7, vec![(0, 1, 1.0), (2, 3, 5.0), (3, 4, 4.0)]);
        let round = boruvka_round(&g);
        let r = finish_from_round(&g, &round, Algorithm::Kruskal, &MsfConfig::default());
        assert_eq!(r.edges, reference(&g).edges);
        assert_eq!(r.components, 4);
    }

    #[test]
    fn mesh_round_trip_matches() {
        let g = mesh2d(&GeneratorConfig::with_seed(5), 20, 20);
        let round = boruvka_round(&g);
        let r = finish_from_round(
            &g,
            &round,
            Algorithm::BorWriteMin,
            &MsfConfig::with_threads(3),
        );
        assert_eq!(r.edges, reference(&g).edges);
    }

    #[test]
    fn job_estimate_and_run() {
        let g = random_graph(&GeneratorConfig::with_seed(1), 100, 300);
        let job = MsfJob::new(Algorithm::BorFal);
        let est = job.estimate(&g);
        assert_eq!(est.units, 400);
        let r = job.run(&g);
        assert_eq!(r.edges, reference(&g).edges);
        let round = boruvka_round(&g);
        assert_eq!(job.run_from_round(&g, &round).edges, r.edges);
    }
}
