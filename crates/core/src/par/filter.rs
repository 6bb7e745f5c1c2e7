//! Cycle-property edge filtering in front of Bor-FAL (the extension the
//! paper's §3 analysis argues for).
//!
//! Table 1 shows that for random sparse graphs the Borůvka edge list
//! shrinks *slowly* for several iterations while "for a graph with
//! m/n ≥ 2, more than half of the edges are not in the MST". The paper
//! points at the sampling approach of Cole, Klein & Tarjan and the
//! cycle-property filter of Katriel, Sanders & Träff as the remedy. This
//! module implements that remedy on top of the suite's own substrate:
//!
//! 1. flip a fair coin per edge → sampled subgraph `G_s`;
//! 2. `F ← Bor-FAL MSF of G_s`;
//! 3. discard every edge heavier — under the exact `(weight, id)` total
//!    order — than the maximum edge on its endpoints' F-path (path-max
//!    queries on King's Borůvka tree of F, read-only and embarrassingly
//!    parallel): such edges are the unique maximum of a cycle and cannot be
//!    in the unique MSF;
//! 4. `Bor-FAL` on the surviving edges (expected O(n) of them).
//!
//! Both inner runs preserve relative input edge order, so `(weight, id)`
//! tie breaking survives the id remapping and the output is the suite-wide
//! unique MSF.

use msf_graph::pathmax::PathMaxForest;
use msf_graph::EdgeList;
use msf_primitives::cost::{Stopwatch, WorkMeter};
use msf_primitives::obs;

use crate::stats::RunStats;
use crate::{MsfConfig, MsfResult};

/// Below this density the filter cannot pay for itself (the paper's own
/// threshold intuition: with m/n < 2, fewer than half the edges can be
/// discarded at all).
const MIN_DENSITY: f64 = 2.0;

/// Compute the MSF with sampling + cycle-property filtering + Bor-FAL.
pub fn msf(g: &EdgeList, cfg: &MsfConfig) -> MsfResult {
    msf_with_inner(g, cfg, crate::Algorithm::BorFal)
}

/// The filter front-end over any inner MSF algorithm. The extension bench
/// compares `inner = Bor-FAL` (whose compact step is already O(n), so
/// filtering buys little) against `inner = Bor-AL` (whose per-iteration
/// cost scales with the surviving m, the case §3's analysis targets).
pub fn msf_with_inner(g: &EdgeList, cfg: &MsfConfig, inner: crate::Algorithm) -> MsfResult {
    let watch = Stopwatch::start();
    let n = g.num_vertices();
    if g.density() < MIN_DENSITY {
        let mut r = crate::minimum_spanning_forest(g, inner, cfg);
        r.stats.algorithm = "Bor-FAL+filter";
        return r;
    }
    let p = cfg.threads.max(1);
    let mut stats = RunStats::new("Bor-FAL+filter", p);

    // Step 1: coin-flip sample, preserving edge order (ids stay monotone).
    use rand::prelude::*;
    let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed ^ 0xF117);
    let sampled_ids: Vec<u32> = (0..g.num_edges() as u32)
        .filter(|_| rng.gen::<bool>())
        .collect();
    let sample = EdgeList::from_triples(
        n,
        sampled_ids
            .iter()
            .map(|&id| {
                let e = g.edge(id);
                (e.u, e.v, e.w)
            })
            .collect::<Vec<_>>(),
    );

    // Step 2: forest of the sample.
    let f = crate::minimum_spanning_forest(&sample, inner, cfg);
    stats.add_flat_cost(f.stats.modeled_cost);

    // Step 3: filter F-heavy edges with parallel path-max queries. The
    // forest keys carry the ORIGINAL edge ids, so heaviness is exact under
    // the suite's total order (ties included).
    let forest_edges: Vec<(u32, u32, msf_graph::EdgeKey)> = f
        .edges
        .iter()
        .map(|&sid| {
            let e = sample.edge(sid);
            let orig = g.edge(sampled_ids[sid as usize]);
            (e.u, e.v, orig.key())
        })
        .collect();
    // Span arg a = edges examined; the END event carries (kept, dropped).
    let filter_span = obs::span(obs::SpanKind::Filter, g.num_edges() as u64, 0);
    let pm = PathMaxForest::build(n, &forest_edges);
    let mut filter_meters = vec![WorkMeter::new(); p];
    let m = g.num_edges();
    // The cycle-property keep-pass: O(log n) scattered path-max reads per edge.
    let query_mem = 2 * (usize::BITS - n.max(2).leading_zeros()) as u64;
    for (t, meter) in filter_meters.iter_mut().enumerate() {
        meter.mem(query_mem * msf_primitives::block_range(m, p, t).len() as u64);
    }
    let survives = |id: usize| {
        let e = g.edge(id as u32);
        let heavy = pm
            .path_max(e.u, e.v)
            .is_some_and(|path_max| e.key() > path_max);
        (!heavy).then_some(id as u32)
    };
    let kept_ids = msf_primitives::fused::filter_compact_indexed(m, p, survives);
    // One sweep over the edge array plus the survivor id write-back; the
    // path-max reads are side-band traffic the kernel cannot see.
    msf_primitives::fused::record_traffic((24 * m + 4 * kept_ids.len()) as u64);
    stats.add_flat_cost(msf_primitives::cost::modeled_time(&filter_meters));
    filter_span.end_with(
        kept_ids.len() as u64,
        (m - kept_ids.len()) as u64, // dropped by the cycle property
    );

    // Step 4: MSF of the survivors (order-preserving id remap).
    let kept = EdgeList::from_triples(
        n,
        kept_ids
            .iter()
            .map(|&id| {
                let e = g.edge(id);
                (e.u, e.v, e.w)
            })
            .collect::<Vec<_>>(),
    );
    let final_run = crate::minimum_spanning_forest(&kept, inner, cfg);
    stats.add_flat_cost(final_run.stats.modeled_cost);
    for it in final_run.stats.iterations {
        stats.iterations.push(it);
    }
    let out: Vec<u32> = final_run
        .edges
        .iter()
        .map(|&kid| kept_ids[kid as usize])
        .collect();

    stats.total_seconds = watch.seconds();
    MsfResult::from_ids(g, out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use msf_graph::generators::{random_graph, GeneratorConfig};

    fn cfg(p: usize) -> MsfConfig {
        MsfConfig::with_threads(p)
    }

    #[test]
    fn matches_kruskal_on_random_graphs() {
        for seed in 0..4u64 {
            let g = random_graph(&GeneratorConfig::with_seed(seed), 400, 2400);
            let expect = crate::seq::kruskal::msf(&g);
            for p in [1, 2, 4] {
                assert_eq!(msf(&g, &cfg(p)).edges, expect.edges, "seed {seed} p {p}");
            }
        }
    }

    #[test]
    fn sparse_inputs_fall_back_to_plain_bor_fal() {
        let g = random_graph(&GeneratorConfig::with_seed(3), 300, 450); // m/n = 1.5
        let r = msf(&g, &cfg(2));
        assert_eq!(r.edges, crate::seq::kruskal::msf(&g).edges);
        assert_eq!(r.stats.algorithm, "Bor-FAL+filter");
    }

    #[test]
    fn filter_discards_a_large_fraction_on_dense_inputs() {
        // Indirect check through correctness at high density, where >80% of
        // edges are F-heavy and must be filterable without harming the MSF.
        let g = random_graph(&GeneratorConfig::with_seed(9), 200, 4000); // m/n = 20
        assert_eq!(msf(&g, &cfg(4)).edges, crate::seq::kruskal::msf(&g).edges);
    }

    #[test]
    fn disconnected_inputs() {
        let g = {
            use msf_graph::EdgeList;
            // Two dense blobs with no bridge.
            let a = random_graph(&GeneratorConfig::with_seed(1), 100, 600);
            let b = random_graph(&GeneratorConfig::with_seed(2), 100, 600);
            let mut triples: Vec<(u32, u32, f64)> =
                a.edges().iter().map(|e| (e.u, e.v, e.w)).collect();
            triples.extend(b.edges().iter().map(|e| (e.u + 100, e.v + 100, e.w)));
            EdgeList::from_triples(200, triples)
        };
        let expect = crate::seq::kruskal::msf(&g);
        assert_eq!(msf(&g, &cfg(3)).edges, expect.edges);
    }

    #[test]
    fn duplicate_weights_stay_deterministic() {
        use msf_graph::EdgeList;
        // Dense equal-weight graph: ties everywhere; strict filtering must
        // not discard any potential MSF edge.
        let n = 40u32;
        let mut triples = Vec::new();
        for u in 0..n {
            for v in u + 1..n {
                if (u + v) % 3 != 0 {
                    triples.push((u, v, 1.0));
                }
            }
        }
        let g = EdgeList::from_triples(n as usize, triples);
        let expect = crate::seq::kruskal::msf(&g);
        assert_eq!(msf(&g, &cfg(2)).edges, expect.edges);
    }
}
