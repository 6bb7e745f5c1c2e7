//! Bor-EL: parallel Borůvka on the edge-list representation (paper §2.1).
//!
//! Every undirected edge appears twice (both directions). The
//! compact-graph step is "an elegant implementation": one parallel **sample
//! sort** of the whole edge list keyed by (supervertex(u), supervertex(v),
//! weight), after which self-loops and multi-edges sit in consecutive
//! positions and a prefix-sum pass merges them. The price is rewriting the
//! entire edge array every iteration — which is exactly why the paper finds
//! Bor-EL the slowest variant and why Bor-FAL exists.
//!
//! Invariant maintained across iterations: the directed edge array is sorted
//! by (source, target, key), so find-min is a contiguous segmented scan.

use msf_graph::EdgeList;
use msf_primitives::cost::{Stopwatch, WorkMeter};
use msf_primitives::obs;

use crate::par::common::{
    connect_components, emit_unique, relabel_and_filter, segment_starts, segmented_find_min,
    sort_and_dedup, PHASE_OVERHEAD,
};
use crate::stats::{IterationStats, RunStats, StepKind, StepSpan};
use crate::{MsfConfig, MsfResult};

/// Compute the MSF with Bor-EL.
pub fn msf(g: &EdgeList, cfg: &MsfConfig) -> MsfResult {
    let watch = Stopwatch::start();
    let p = cfg.threads.max(1);
    let mut stats = RunStats::new("Bor-EL", p);

    // Setup: mirror to directed pairs and establish the sorted invariant.
    let setup = StepSpan::begin(StepKind::Setup, 0);
    let mut setup_meters = vec![WorkMeter::new(); p];
    let mut edges = sort_and_dedup(g.to_directed_pairs(), p, &mut setup_meters);
    stats.add_flat_cost(setup.finish(&setup_meters, PHASE_OVERHEAD).modeled_max);

    let mut n = g.num_vertices();
    let mut out: Vec<u32> = Vec::with_capacity(n.saturating_sub(1));

    while !edges.is_empty() {
        let mut it = IterationStats {
            vertices: n,
            directed_edges: edges.len(),
            ..Default::default()
        };
        let _iteration = obs::span(
            obs::SpanKind::Iteration,
            stats.iterations.len() as u64,
            n as u64,
        );

        // Step 1: find-min over the per-source segments.
        let step = StepSpan::begin(StepKind::FindMin, stats.iterations.len());
        let mut fm_meters = vec![WorkMeter::new(); p];
        let seg = segment_starts(&edges, n, p);
        let mins = segmented_find_min(&edges, &seg, p, &mut fm_meters);
        let chosen: Vec<u32> = mins
            .iter()
            .filter(|&&i| i != u32::MAX)
            .map(|&i| edges[i as usize].id)
            .collect();
        emit_unique(&mut out, chosen);
        it.find_min = step.finish(&fm_meters, PHASE_OVERHEAD);

        // Step 2: connect-components over the chosen edges.
        let step = StepSpan::begin(StepKind::Connect, stats.iterations.len());
        let mut cc_meters = vec![WorkMeter::new(); p];
        let to: Vec<u32> = mins
            .iter()
            .enumerate()
            .map(|(v, &i)| {
                if i == u32::MAX {
                    v as u32
                } else {
                    edges[i as usize].v
                }
            })
            .collect();
        let (labels, k) = connect_components(to, p, &mut cc_meters);
        it.connect = step.finish(&cc_meters, PHASE_OVERHEAD);

        // Step 3: compact-graph — relabel, drop self-loops, global sample
        // sort, merge multi-edge runs.
        let step = StepSpan::begin(StepKind::Compact, stats.iterations.len());
        let mut cg_meters = vec![WorkMeter::new(); p];
        let survivors = relabel_and_filter(&edges, &labels, p, &mut cg_meters);
        edges = sort_and_dedup(survivors, p, &mut cg_meters);
        n = k as usize;
        it.compact = step.finish(&cg_meters, PHASE_OVERHEAD);

        stats.push_iteration(it);
        if n <= 1 {
            break;
        }
    }

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
    fn triangle() {
        let g = EdgeList::from_triples(3, vec![(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)]);
        let r = msf(&g, &cfg(2));
        assert_eq!(r.edges, vec![0, 1]);
        assert_eq!(r.components, 1);
    }

    #[test]
    fn matches_kruskal_on_random_graphs() {
        for seed in 0..4u64 {
            let g = random_graph(&GeneratorConfig::with_seed(seed), 400, 1600);
            let expect = crate::seq::kruskal::msf(&g);
            for p in [1, 2, 4] {
                let r = msf(&g, &cfg(p));
                assert_eq!(r.edges, expect.edges, "seed {seed}, p {p}");
            }
        }
    }

    #[test]
    fn forest_and_isolated_vertices() {
        let g = EdgeList::from_triples(6, vec![(0, 1, 1.0), (2, 3, 4.0), (3, 4, 2.0)]);
        let r = msf(&g, &cfg(2));
        assert_eq!(r.edges, vec![0, 1, 2]);
        assert_eq!(r.components, 3);
    }

    #[test]
    fn records_iteration_trace() {
        let g = random_graph(&GeneratorConfig::with_seed(5), 200, 600);
        let r = msf(&g, &cfg(2));
        assert!(!r.stats.iterations.is_empty());
        assert_eq!(r.stats.iterations[0].vertices, 200);
        assert_eq!(r.stats.iterations[0].directed_edges, 1200);
        // Edge counts strictly decrease.
        for w in r.stats.iterations.windows(2) {
            assert!(w[1].directed_edges < w[0].directed_edges);
        }
        assert!(r.stats.modeled_cost > 0);
    }

    #[test]
    fn empty_graph_short_circuits() {
        let g = EdgeList::from_triples(4, vec![]);
        let r = msf(&g, &cfg(2));
        assert!(r.edges.is_empty());
        assert_eq!(r.components, 4);
    }
}
