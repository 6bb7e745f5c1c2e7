//! Bor-FAL: parallel Borůvka on the flexible adjacency list (paper §2.3).
//!
//! compact-graph rewrites the vertex→supervertex lookup table and regroups
//! the membership array — no edge is ever rewritten or copied, and its cost
//! depends only on the number of vertices. In exchange, find-min must
//! translate endpoints through the lookup table and filter self-loops and
//! multi-edges on the fly, so its cost stays O(m) every iteration. Fewer
//! memory *writes* is the key SMP win: "memory writes typically generate
//! more cache coherency transactions than do reads".

use msf_graph::{EdgeList, FlexAdjacencyList};
use msf_primitives::block_range;
use msf_primitives::cost::{Stopwatch, WorkMeter};
use msf_primitives::csr;
use msf_primitives::fused::record_traffic;
use msf_primitives::obs;
use msf_primitives::pool;
use msf_primitives::split::WeightedSplit;

use crate::par::common::{connect_components, PHASE_OVERHEAD};
use crate::stats::{IterationStats, RunStats, StepKind, StepSpan};
use crate::{MsfConfig, MsfResult};

/// Compute the MSF with Bor-FAL.
pub fn msf(g: &EdgeList, cfg: &MsfConfig) -> MsfResult {
    let watch = Stopwatch::start();
    let p = cfg.threads.max(1);
    let mut stats = RunStats::new("Bor-FAL", p);
    let n = g.num_vertices();

    // Setup: the base CSR, built over p blocks, plus the identity
    // membership and lookup table.
    let setup = StepSpan::begin(StepKind::Setup, 0);
    let mut setup_meters = vec![WorkMeter::new(); p];
    let mut flex = FlexAdjacencyList::new(g, p);
    csr::charge_build(&mut setup_meters, n, g.num_edges(), 2);
    // Two sweeps of the edge list, two 8-byte words per entry, the count
    // matrix read and rewritten by the prefix pass, and the identity
    // membership, member starts and lookup table.
    let entries = flex.base().num_directed_edges();
    record_traffic(
        (2 * std::mem::size_of_val(g.edges()) + 16 * entries + 16 * p * n + 16 * n) as u64,
    );
    stats.add_flat_cost(setup.finish(&setup_meters, PHASE_OVERHEAD).modeled_max);

    // Forest membership by edge id: two supervertices may pick the same
    // edge, and the marks dedup it with no sort.
    let mut in_forest = vec![false; g.num_edges()];
    let mut split = WeightedSplit::new(p);
    loop {
        let k = flex.num_supervertices();
        if k <= 1 {
            break;
        }
        // The flexible list never shrinks the edge set, so the 2m column of
        // the iteration trace is constant — exactly what the paper reports
        // about Bor-FAL's compact step ("almost the same for the three
        // input graphs because it only depends on the number of vertices").
        let mut it = IterationStats {
            vertices: k,
            directed_edges: entries,
            ..Default::default()
        };
        let _iteration = obs::span(
            obs::SpanKind::Iteration,
            stats.iterations.len() as u64,
            k as u64,
        );

        // Step 1: find-min with on-the-fly translation + self-loop filter.
        let step = StepSpan::begin(StepKind::FindMin, stats.iterations.len());
        let mut fm_meters = vec![WorkMeter::new(); p];
        let (to, chosen) = find_min(&flex, &mut split, &mut fm_meters);
        for &id in &chosen {
            in_forest[id as usize] = true;
        }
        it.find_min = step.finish(&fm_meters, PHASE_OVERHEAD);
        if chosen.is_empty() {
            // Every supervertex is mature: the forest is complete. This
            // probe iteration is not pushed onto the stats, so its find-min
            // span is a trailing singleton in the trace.
            break;
        }

        // Step 2: connect-components.
        let step = StepSpan::begin(StepKind::Connect, stats.iterations.len());
        let mut cc_meters = vec![WorkMeter::new(); p];
        let (labels, new_k) = connect_components(to, p, &mut cc_meters);
        it.connect = step.finish(&cc_meters, PHASE_OVERHEAD);

        // Step 3: compact-graph — one counting sort of the vertices by
        // their new supervertex regroups the membership and rewrites the
        // lookup table. Each vertex gathers its new label in both passes.
        let step = StepSpan::begin(StepKind::Compact, stats.iterations.len());
        let mut cg_meters = vec![WorkMeter::new(); p];
        for (t, meter) in cg_meters.iter_mut().enumerate() {
            meter.mem(2 * block_range(n, p, t).len() as u64);
        }
        csr::charge_build(&mut cg_meters, new_k as usize, n, 1);
        // Bor-FAL's compact never touches edge data — its entire bandwidth
        // bill is per vertex: two sweeps of the table, each gathering the
        // new label, the member and table writes, and the count matrix read
        // and rewritten by the prefix pass (DESIGN.md §15).
        record_traffic((24 * n + 16 * p * new_k as usize) as u64);
        flex.compact(&labels, new_k as usize, p);
        it.compact = step.finish(&cg_meters, PHASE_OVERHEAD);

        stats.push_iteration(it);
    }

    let out: Vec<u32> = (0..g.num_edges() as u32)
        .filter(|&id| in_forest[id as usize])
        .collect();
    stats.total_seconds = watch.seconds();
    MsfResult::from_ids(g, out, stats)
}

/// find-min across supervertices: scan every member's base adjacency list,
/// translating targets through the lookup table; returns the hook targets
/// and the chosen edge ids, empty once no supervertex has an external edge.
///
/// Work is partitioned over the flat member array in `p` contiguous blocks
/// of about equal scan work, one per meter in `meters`. Blocks of
/// supervertices would leave one worker with nearly all edges once a giant
/// supervertex absorbs most of the graph ("load balancing among the
/// processors as the algorithm progresses" — the balancing concern the
/// paper raises for find-min). Blocks of equal member count fail on skewed
/// degrees: on R-MAT the members that hold most entries come first, and one
/// of two blocks scanned 76–96% of them. So member `i` weighs
/// `1 + degree(member(i))`, and [`WeightedSplit`] cuts the array by that
/// weight. The cut is worked out again every call: the base CSR's row
/// prefix is in vertex order, which matches member order only until the
/// first compact regroups the members by supervertex. The weight pass reads
/// one degree per member, `n` reads against the scan's `2m`.
///
/// A block may split a supervertex, and a supervertex may span several
/// blocks, so each worker returns per-supervertex partial minima in member
/// order, and a cheap sequential pass keeps the lightest of consecutive
/// partials of the same supervertex.
fn find_min(
    flex: &FlexAdjacencyList,
    split: &mut WeightedSplit,
    meters: &mut [WorkMeter],
) -> (Vec<u32>, Vec<u32>) {
    let p = meters.len();
    let starts = flex.member_starts();
    let bounds = split.split(
        flex.num_vertices(),
        |i| 1 + flex.base().degree(flex.member(i)) as u64,
        meters,
    );

    // (supervertex, weight, edge id, hook target) of a block's lightest
    // external edge per supervertex it covers.
    type Partial = (u32, f64, u32, u32);
    let parts: Vec<(Vec<Partial>, WorkMeter)> = pool::map_collect(p, 1, |t| {
        let r = bounds[t]..bounds[t + 1];
        let mut meter = WorkMeter::new();
        let mut partials: Vec<Partial> = Vec::new();
        let mut at = r.start;
        while at < r.end {
            // The supervertex owning this member; its members run on
            // to the next start, or past the block's end.
            let s = flex.supervertex_of(flex.member(at));
            let seg_end = starts[s as usize + 1].min(r.end);
            let (mut bw, mut bid, mut bts) = (f64::INFINITY, u32::MAX, u32::MAX);
            for v in (at..seg_end).map(|i| flex.member(i)) {
                // One member hop (the linked-list pointer chase), and
                // one scattered lookup-table read per edge entry: every
                // scan translates through the table. Self-loops are
                // filtered here; the (weight, id) order picks the
                // lightest of any multi-edges.
                let degree = flex.base().degree(v) as u64;
                meter.mem(1 + degree);
                meter.ops(degree);
                for (nb, w, id) in flex.base().neighbors(v) {
                    let ts = flex.supervertex_of(nb);
                    if ts != s && (w < bw || (w == bw && id < bid)) {
                        (bw, bid, bts) = (w, id, ts);
                    }
                }
            }
            if bts != u32::MAX {
                partials.push((s, bw, bid, bts));
            }
            at = seg_end;
        }
        (partials, meter)
    });

    let mut to: Vec<u32> = (0..flex.num_supervertices() as u32).collect();
    let mut chosen: Vec<u32> = Vec::new();
    // The partial behind `chosen`'s last entry.
    let mut last: Option<(u32, f64, u32)> = None;
    for (t, (partials, m)) in parts.into_iter().enumerate() {
        meters[t] = meters[t] + m;
        for (s, w, id, ts) in partials {
            match last {
                Some((ls, lw, lid)) if ls == s => {
                    if (w, id) >= (lw, lid) {
                        continue;
                    }
                    chosen.pop();
                }
                _ => {}
            }
            to[s as usize] = ts;
            chosen.push(id);
            last = Some((s, w, id));
        }
    }
    (to, chosen)
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
    }

    #[test]
    fn matches_kruskal_on_random_graphs() {
        for seed in 0..4u64 {
            let g = random_graph(&GeneratorConfig::with_seed(seed), 400, 1600);
            let expect = crate::seq::kruskal::msf(&g);
            for p in [1, 2, 4] {
                assert_eq!(msf(&g, &cfg(p)).edges, expect.edges, "seed {seed}, p {p}");
            }
        }
    }

    #[test]
    fn disconnected_input_terminates_via_maturity() {
        let g = EdgeList::from_triples(6, vec![(0, 1, 1.0), (2, 3, 2.0), (3, 4, 0.5)]);
        let r = msf(&g, &cfg(2));
        assert_eq!(r.edges, vec![0, 1, 2]);
        assert_eq!(r.components, 3);
    }

    #[test]
    fn disconnected_random_input_matches_kruskal_at_every_p() {
        // Two random components, a path and isolated vertices: the run
        // ends at the maturity break with several supervertices left.
        let a = random_graph(&GeneratorConfig::with_seed(21), 500, 1_500);
        let b = random_graph(&GeneratorConfig::with_seed(22), 300, 600);
        let mut triples: Vec<(u32, u32, f64)> = a.edges().iter().map(|e| (e.u, e.v, e.w)).collect();
        triples.extend(b.edges().iter().map(|e| (e.u + 500, e.v + 500, e.w)));
        triples.extend([(810, 811, 0.5), (811, 812, 0.25)]);
        let g = EdgeList::from_triples(820, triples);
        let expect = crate::seq::kruskal::msf(&g);
        assert!(expect.components > 2, "the input must stay disconnected");
        for p in [1, 2, 3, 7] {
            let r = msf(&g, &cfg(p));
            assert_eq!(r.edges, expect.edges, "p={p}");
            assert_eq!(r.components, expect.components, "p={p}");
            let seq = msf_pool::with_sequential(|| msf(&g, &cfg(p)));
            assert_eq!(seq.edges, expect.edges, "p={p} sequential");
        }
    }

    #[test]
    fn setup_is_charged_to_the_modeled_cost() {
        let g = random_graph(&GeneratorConfig::with_seed(3), 300, 900);
        let r = msf(&g, &cfg(2));
        let (fm, cc, cg) = r.stats.step_totals();
        let steps = fm.modeled_max + cc.modeled_max + cg.modeled_max;
        // The run's modeled cost is its steps plus the setup's flat cost:
        // at least the 2m entries the base CSR build scatters.
        assert!(
            r.stats.modeled_cost >= steps + 2 * 900,
            "{}",
            r.stats.modeled_cost
        );
    }

    #[test]
    fn paper_fig1_example() {
        // The 6-vertex graph of the paper's Fig. 1.
        let g = EdgeList::from_triples(
            6,
            vec![
                (0, 4, 1.0),
                (0, 1, 2.0),
                (1, 5, 3.0),
                (4, 2, 4.0),
                (2, 3, 5.0),
                (3, 5, 6.0),
            ],
        );
        let r = msf(&g, &cfg(2));
        assert_eq!(r.edges, crate::seq::kruskal::msf(&g).edges);
        assert_eq!(r.components, 1);
        assert_eq!(r.edges.len(), 5);
    }

    #[test]
    fn iteration_trace_has_constant_edge_column() {
        let g = random_graph(&GeneratorConfig::with_seed(2), 300, 900);
        let r = msf(&g, &cfg(2));
        assert!(r.stats.iterations.len() >= 2);
        for it in &r.stats.iterations {
            assert_eq!(
                it.directed_edges, 1800,
                "Bor-FAL never shrinks the edge set"
            );
        }
    }

    #[test]
    fn find_min_blocks_carry_equal_work_on_skewed_inputs() {
        // Blocks of equal member count gave one block up to 2.1x its share
        // on these inputs: the members holding most entries sit together.
        for (name, g) in crate::par::common::balance::skewed_inputs() {
            for p in [2, 3] {
                let r = msf(&g, &cfg(p));
                assert_eq!(r.edges, crate::seq::kruskal::msf(&g).edges, "{name} p={p}");
                for (i, it) in r.stats.iterations.iter().enumerate() {
                    let what = format!("{name}, p={p}, find-min of iteration {i}");
                    crate::par::common::balance::assert_balanced(&it.find_min, p, &what);
                }
            }
        }
    }
}
