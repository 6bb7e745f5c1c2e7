//! MST-BC: the paper's new shared-memory MSF algorithm (§4, Algs. 1–2).
//!
//! `p` processors each run Prim's algorithm concurrently on the shared
//! graph, growing vertex-disjoint subtrees claimed through a CAS-once color
//! array. A tree stops growing ("matures") when its heap yields a vertex it
//! no longer owns or a vertex adjacent to a foreign color. Vertices left
//! unvisited pick their minimum incident edge (one Borůvka step), mature
//! subtrees contract via connected components, and the algorithm recurses on
//! the contracted graph until the problem fits one processor, which finishes
//! with the best sequential algorithm. Every round rebuilds its graph in
//! linear time with no comparison sort: a counting-sorted adjacency
//! (`Rows`) and a counting-sort merge of parallel edges
//! (`merge_parallel_edges`).
//!
//! With p = 1 this *is* Prim's algorithm (one tree grows to completion per
//! component); with p = n it degenerates to Borůvka. Load balance uses work
//! stealing from the tail of unfinished partitions; progress against
//! adversarial start alignments uses a random vertex permutation (Sanders).
//!
//! Correctness relies on two facts enforced here (cf. the paper's
//! Appendix B and DESIGN.md §6): a vertex's color is written exactly once,
//! so trees never share vertices; and every neighbor — even foreign-colored
//! — is inserted into the grower's heap, so a tree always stops *before*
//! skipping a lighter crossing edge, making every accepted edge the minimum
//! edge over its tree's cut.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};

use msf_graph::{Edge, EdgeKey, EdgeList, OrderedWeight};
use msf_primitives::block_range;
use msf_primitives::cost::{Stopwatch, WorkMeter};
use msf_primitives::csr;
use msf_primitives::fused::record_traffic;
use msf_primitives::heap::IndexedHeap;
use msf_primitives::obs;
use msf_primitives::permutation::parallel_permutation;
use msf_primitives::pool;
use msf_primitives::steal::StealingPartitions;
use msf_primitives::unionfind::UnionFind;

use crate::par::common::{connect_components_from_roots, relabel_and_filter, PHASE_OVERHEAD};
use crate::stats::{IterationStats, MstBcStats, RunStats, StepKind, StepSpan};
use crate::{MsfConfig, MsfResult};

const NONE: u32 = u32::MAX;

/// The sentinel key that makes a tree's start vertex pop first.
const START_KEY: EdgeKey = EdgeKey {
    w: OrderedWeight(f64::NEG_INFINITY),
    id: 0,
};

/// Compute the MSF with MST-BC.
pub fn msf(g: &EdgeList, cfg: &MsfConfig) -> MsfResult {
    let watch = Stopwatch::start();
    let p = cfg.threads.max(1);
    let mut stats = RunStats::new("MST-BC", p);

    // Current contracted problem: endpoints are current vertex ids, `id`
    // still the original input edge id.
    let mut n = g.num_vertices();
    let mut edges: Vec<Edge> = g.edges().to_vec();
    let mut out: Vec<u32> = Vec::with_capacity(n.saturating_sub(1));
    let mut level = 0u64;

    while n > cfg.base_size && !edges.is_empty() {
        let mut it = IterationStats {
            vertices: n,
            directed_edges: edges.len() * 2,
            ..Default::default()
        };
        let _iteration = obs::span(
            obs::SpanKind::Iteration,
            stats.iterations.len() as u64,
            n as u64,
        );
        let step = StepSpan::begin(StepKind::FindMin, stats.iterations.len());

        // Rows hold edge *indices*, so chosen edges resolve to current
        // endpoints, while the total-order key still uses the ORIGINAL id,
        // keeping the forest identical to every other algorithm's under ties.
        let mut grow_meters = vec![WorkMeter::new(); p];
        let rows = Rows::build::<true>(n, &edges, p, &mut grow_meters);

        // Steps 1–2 (Alg. 2): concurrent Prim growth.
        let (tree_edges, visited, round_stats) =
            grow_trees(&rows, &edges, n, p, cfg, level, &mut grow_meters);
        stats.mstbc = Some(stats.mstbc.unwrap_or_default() + round_stats);
        it.find_min = step.finish(&grow_meters, PHASE_OVERHEAD);

        // Step 3: Borůvka step for unvisited vertices.
        let step = StepSpan::begin(StepKind::Connect, stats.iterations.len());
        let mut b_meters = vec![WorkMeter::new(); p];
        let boruvka_edges = unvisited_min_edges(&rows, &edges, &visited, p, &mut b_meters);
        drop(rows);
        let mut chosen = tree_edges;
        chosen.extend_from_slice(&boruvka_edges);
        chosen.sort_unstable();
        chosen.dedup();
        out.extend(chosen.iter().map(|&i| edges[i as usize].id));

        // Step 4: contract the found forest via connected components.
        let pairs: Vec<(u32, u32)> = chosen
            .iter()
            .map(|&i| (edges[i as usize].u, edges[i as usize].v))
            .collect();
        let roots = msf_primitives::connectivity::sv::connected_components(n, &pairs);
        let (labels, k) = connect_components_from_roots(roots, p, &mut b_meters);
        it.connect = step.finish(&b_meters, PHASE_OVERHEAD);

        // Step 5: rebuild the graph between supervertices — relabel and
        // drop self-loops, then keep one minimum edge per supervertex pair.
        let step = StepSpan::begin(StepKind::Compact, stats.iterations.len());
        let mut cg_meters = vec![WorkMeter::new(); p];
        let survivors = relabel_and_filter(&edges, &labels, p, &mut cg_meters);
        drop(edges);
        edges = merge_parallel_edges(&survivors, k as usize, p, &mut cg_meters);
        n = k as usize;
        it.compact = step.finish(&cg_meters, PHASE_OVERHEAD);

        stats.push_iteration(it);
        level += 1;
        if n <= 1 {
            edges.clear();
        }
    }

    // Base case: one processor solves the contracted remainder (Kruskal).
    if !edges.is_empty() {
        let base = StepSpan::begin(StepKind::BaseCase, stats.iterations.len());
        let mut meter = WorkMeter::new();
        let mut order: Vec<u32> = (0..edges.len() as u32).collect();
        order.sort_unstable_by_key(|&i| edges[i as usize].key());
        let mut uf = UnionFind::new(n);
        for &i in &order {
            let e = edges[i as usize];
            meter.ops(2);
            meter.mem(2);
            if uf.union(e.u as usize, e.v as usize) {
                out.push(e.id);
            }
        }
        meter.ops((edges.len().max(2).ilog2() as u64) * edges.len() as u64);
        stats.add_flat_cost(base.finish(&[meter], 0).modeled_max);
    }

    stats.total_seconds = watch.seconds();
    MsfResult::from_ids(g, out, stats)
}

/// MST-BC's per-round graph: a CSR whose entries pack
/// `(neighbour << 32) | edge index`, 8 bytes each. Keys are read from
/// `edges[index]`, so rows carry no weights or ids of their own. Laid out
/// by the shared counting sort ([`csr::build_rows`]), rows list entries in
/// ascending edge index at every `p` and pool width.
struct Rows {
    offsets: Vec<usize>,
    entries: Vec<AtomicU64>,
}

impl Rows {
    /// Lay `edges` out over rows `0..n`: with `MIRROR`, edge `i = (u, v)`
    /// appears as `(v, i)` in row `u` and `(u, i)` in row `v`; without, once,
    /// as `(max, i)` in row `min(u, v)`.
    fn build<const MIRROR: bool>(
        n: usize,
        edges: &[Edge],
        p: usize,
        meters: &mut [WorkMeter],
    ) -> Rows {
        let per_edge = 1 + usize::from(MIRROR);
        let entries: Vec<AtomicU64> = csr::zeroed_slots(per_edge * edges.len());
        let offsets = csr::build_rows(
            n,
            edges.len(),
            p,
            |i| {
                let e = &edges[i];
                let (a, b) = if MIRROR || e.u < e.v {
                    (e.u, e.v)
                } else {
                    (e.v, e.u)
                };
                let entry = |nb: u32| (u64::from(nb) << 32) | i as u64;
                [(a, entry(b)), (b, entry(a))].into_iter().take(per_edge)
            },
            |pos, entry| entries[pos].store(entry, Ordering::Relaxed),
        );
        csr::charge_build(meters, n, edges.len(), per_edge);
        // Two sweeps of the edge list, the entry writes, and the count
        // matrix read and rewritten by the prefix pass.
        record_traffic((2 * std::mem::size_of_val(edges) + 8 * entries.len() + 16 * p * n) as u64);
        Rows { offsets, entries }
    }

    /// `(neighbour, edge index)` over row `v`.
    #[inline]
    fn row(&self, v: u32) -> impl Iterator<Item = (u32, u32)> + '_ {
        let (lo, hi) = (self.offsets[v as usize], self.offsets[v as usize + 1]);
        self.entries[lo..hi].iter().map(|x| {
            let x = x.load(Ordering::Relaxed);
            ((x >> 32) as u32, x as u32)
        })
    }
}

/// Step 5's merge: keep exactly one edge per unordered supervertex pair,
/// the minimum under the `(weight, id)` total order — the same edge set a
/// sort by `(min, max, weight, id)` with a keep-first dedup would leave.
/// `survivors` are relabeled and self-loop free over `0..k`; the result is
/// oriented `u < v` and grouped by `u`.
///
/// No comparison sort: one counting sort by the smaller endpoint
/// ([`Rows::build`] without mirroring), then a marker pass over `p` blocks
/// of rows balanced by entry count. Each block keeps a `k`-slot marker:
/// while it scans row `a`, `marker[b]` holds one plus the output position
/// of the pair `(a, b)`'s best edge so far. A marker below the row's first
/// output position is stale, so markers are never reset.
fn merge_parallel_edges(
    survivors: &[Edge],
    k: usize,
    p: usize,
    meters: &mut [WorkMeter],
) -> Vec<Edge> {
    let lower = Rows::build::<false>(k, survivors, p, meters);
    let total = lower.entries.len();
    let starts = &lower.offsets[..k];
    let mut bounds: Vec<usize> = (0..p)
        .map(|t| starts.partition_point(|&o| o < total * t / p))
        .collect();
    bounds.push(k);
    let parts: Vec<Vec<Edge>> = pool::map_collect(p, 1, |t| {
        let rows = bounds[t]..bounds[t + 1];
        let mut out: Vec<Edge> =
            Vec::with_capacity(lower.offsets[rows.end] - lower.offsets[rows.start]);
        let mut marker = vec![0u32; k];
        for a in rows {
            let row_start = out.len();
            for (b, i) in lower.row(a as u32) {
                let e = &survivors[i as usize];
                let kept = marker[b as usize] as usize;
                if kept > row_start {
                    let slot = &mut out[kept - 1];
                    if e.key() < slot.key() {
                        *slot = Edge::new(a as u32, b, e.w, e.id);
                    }
                } else {
                    out.push(Edge::new(a as u32, b, e.w, e.id));
                    marker[b as usize] = out.len() as u32;
                }
            }
        }
        out
    });
    let merged = parts.concat();
    // Modeled cost per block: each entry gathers its survivor and probes
    // the marker.
    for (t, meter) in meters.iter_mut().enumerate().take(p) {
        let placed = (lower.offsets[bounds[t + 1]] - lower.offsets[bounds[t]]) as u64;
        meter.mem(2 * placed);
        meter.ops(placed);
    }
    // The entry sweep, the survivor gathers, and the kept edges written
    // once per block and once into the merged list.
    let edge = std::mem::size_of::<Edge>();
    record_traffic(((8 + edge) * total + 2 * edge * merged.len()) as u64);
    merged
}

/// Alg. 2: `p` growers, one pool task each, claim uncolored start vertices
/// and grow Prim trees until maturity. Returns the chosen edge indices and
/// the visited map, and adds grower `t`'s work to `meters[t]`.
///
/// Colour and visited traffic is `Relaxed`. A colour is written once, by a
/// CAS from 0, and every decision reads a single colour slot, so per-slot
/// coherence is all the races need. A stale 0 only makes the grower try a
/// CAS that fails, or miss a maturity stop, which merely ends growth early:
/// every accepted edge is still the heap minimum over the tree's whole cut.
/// `visited[v]` is written and read only by the grower whose colour `v`
/// holds. `map_collect` publishes both arrays to the caller: each task's
/// latch is set with `Release` and awaited with `Acquire`. Under the
/// sequential escape hatch the growers run in rank order on the calling
/// thread, and program order publishes them.
///
/// No grower waits for another, so `p` may exceed the pool width: the
/// growers are then multiplexed on the workers, and how far each one grows
/// (hence the modeled cost) follows the schedule.
fn grow_trees(
    rows: &Rows,
    edges: &[Edge],
    n: usize,
    p: usize,
    cfg: &MsfConfig,
    level: u64,
    meters: &mut [WorkMeter],
) -> (Vec<u32>, Vec<bool>, MstBcStats) {
    let color: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
    let visited: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
    let order: Option<Vec<u32>> = cfg
        .shuffle
        .then(|| parallel_permutation(n, p, cfg.seed ^ level.wrapping_mul(0x9e37)));
    let partitions = StealingPartitions::new(n, p);

    let results: Vec<(Vec<u32>, WorkMeter, MstBcStats)> = pool::map_collect(p, 1, |t| {
        let _grower = obs::span(obs::SpanKind::Rank, t as u64, p as u64);
        let mut meter = WorkMeter::new();
        let mut local_stats = MstBcStats::default();
        let mut heap: IndexedHeap<EdgeKey> = IndexedHeap::new(n);
        let mut edge_to: Vec<u32> = vec![NONE; n];
        let mut found: Vec<u32> = Vec::new();
        let mut trees = 0u32;
        let mut rng_state = (t as u64).wrapping_mul(0x9e3779b97f4a7c15) ^ level;

        loop {
            let slot = match partitions.claim_local(t) {
                Some(slot) => Some(slot),
                None if cfg.work_stealing => {
                    rng_state = rng_state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let stolen = partitions.claim_steal_only(t, (rng_state >> 33) as usize);
                    if stolen.is_some() {
                        local_stats.steals += 1;
                    }
                    stolen
                }
                None => None,
            };
            let Some(slot) = slot else { break };
            let v = order.as_ref().map_or(slot as u32, |o| o[slot]);
            meter.mem(1);
            if color[v as usize].load(Ordering::Relaxed) != 0 {
                continue;
            }
            // Choose a color unique across processors and this processor's
            // earlier trees (step 1.2 of Alg. 2).
            let my_color = trees
                .wrapping_mul(p as u32)
                .wrapping_add(t as u32)
                .wrapping_add(1);
            trees += 1;
            if color[v as usize]
                .compare_exchange(0, my_color, Ordering::Relaxed, Ordering::Relaxed)
                .is_err()
            {
                continue; // lost the race for the start vertex
            }
            local_stats.trees += 1;
            // Grow one Prim tree from v.
            heap.reset();
            heap.insert_or_decrease(v, START_KEY);
            edge_to[v as usize] = NONE;
            let mut accepted = 0u32;
            while let Some((_, w)) = heap.extract_min() {
                meter.ops(1);
                // On hosts with fewer cores than pool workers, one worker
                // could grow an entire component before its peers are
                // scheduled, which no real SMP would do. Yielding every few
                // dozen acceptances interleaves the workers the way genuine
                // concurrency does; it costs nothing with a core per worker.
                accepted += 1;
                if p > 1 && accepted.is_multiple_of(32) {
                    std::thread::yield_now();
                }
                if color[w as usize].load(Ordering::Relaxed) != my_color {
                    local_stats.collisions += 1;
                    break; // collision: another tree owns w — mature
                }
                if visited[w as usize].load(Ordering::Relaxed) {
                    continue; // already folded into this tree
                }
                // Maturity check: any neighbor already in a foreign tree?
                let mut foreign = false;
                for (u, _) in rows.row(w) {
                    meter.mem(1);
                    let c = color[u as usize].load(Ordering::Relaxed);
                    if c != 0 && c != my_color {
                        foreign = true;
                        break;
                    }
                }
                if foreign {
                    local_stats.matured += 1;
                    break;
                }
                visited[w as usize].store(true, Ordering::Relaxed);
                local_stats.visited += 1;
                if edge_to[w as usize] != NONE {
                    found.push(edge_to[w as usize]);
                }
                for (u, idx) in rows.row(w) {
                    meter.mem(1);
                    meter.ops(1);
                    let c = color[u as usize].load(Ordering::Relaxed);
                    if c == my_color && visited[u as usize].load(Ordering::Relaxed) {
                        continue; // my own tree body
                    }
                    if c == 0 {
                        let _ = color[u as usize].compare_exchange(
                            0,
                            my_color,
                            Ordering::Relaxed,
                            Ordering::Relaxed,
                        );
                    }
                    // Insert regardless of who owns u: if the cut minimum
                    // leads into a foreign tree we must *stop* there, not
                    // skip past it (see module docs).
                    let key = edges[idx as usize].key();
                    if heap.insert_or_decrease(u, key) {
                        edge_to[u as usize] = idx;
                    }
                }
            }
        }
        (found, meter, local_stats)
    });

    let mut found = Vec::new();
    let mut agg = MstBcStats::default();
    for ((f, m, st), meter) in results.into_iter().zip(meters.iter_mut()) {
        found.extend_from_slice(&f);
        *meter = *meter + m;
        agg = agg + st;
    }
    let visited: Vec<bool> = visited.into_iter().map(AtomicBool::into_inner).collect();
    (found, visited, agg)
}

/// Step 3: each unvisited vertex contributes its minimum incident edge.
fn unvisited_min_edges(
    rows: &Rows,
    edges: &[Edge],
    visited: &[bool],
    p: usize,
    meters: &mut [WorkMeter],
) -> Vec<u32> {
    let n = visited.len();
    let parts: Vec<(Vec<u32>, WorkMeter)> = pool::map_collect(p, 1, |t| {
        let r = block_range(n, p, t);
        let mut meter = WorkMeter::new();
        let mut found = Vec::new();
        for v in r {
            if visited[v] {
                continue;
            }
            meter.mem(1);
            let mut best: Option<(EdgeKey, u32)> = None;
            for (_, idx) in rows.row(v as u32) {
                meter.ops(1);
                let key = edges[idx as usize].key();
                if best.is_none_or(|(bk, _)| key < bk) {
                    best = Some((key, idx));
                }
            }
            if let Some((_, idx)) = best {
                found.push(idx);
            }
        }
        (found, meter)
    });
    let mut found = Vec::new();
    for (t, (f, m)) in parts.into_iter().enumerate() {
        meters[t] = meters[t] + m;
        found.extend_from_slice(&f);
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::par::common::sort_and_dedup;
    use msf_graph::generators::{random_graph, structured, GeneratorConfig, StructuredKind};
    use msf_graph::AdjacencyArray;
    use proptest::prelude::*;

    fn cfg(p: usize) -> MsfConfig {
        MsfConfig {
            base_size: 8,
            ..MsfConfig::with_threads(p)
        }
    }

    /// An edge set as sorted `(min, max, id)` triples.
    fn pair_triples(edges: &[Edge]) -> Vec<(u32, u32, u32)> {
        let mut t: Vec<_> = edges
            .iter()
            .map(|e| (e.u.min(e.v), e.u.max(e.v), e.id))
            .collect();
        t.sort_unstable();
        t
    }

    /// Relabel `edges` through `labels`, merge, and check the result against
    /// the sort-based step 5 it replaced (canonical orientation, then
    /// `sort_and_dedup`) at several `p`. Returns the merged list.
    fn check_merge(edges: &[Edge], labels: &[u32], k: usize) -> Vec<Edge> {
        let mut first: Option<Vec<Edge>> = None;
        for p in [1, 2, 3, 8] {
            let mut meters = vec![WorkMeter::new(); p];
            let survivors = relabel_and_filter(edges, labels, p, &mut meters);
            let merged = merge_parallel_edges(&survivors, k, p, &mut meters);
            assert!(merged.iter().all(|e| e.u < e.v), "p={p}: not oriented");
            let canon: Vec<Edge> = survivors
                .iter()
                .map(|e| Edge::new(e.u.min(e.v), e.u.max(e.v), e.w, e.id))
                .collect();
            let reference = sort_and_dedup(canon, p, &mut meters);
            assert_eq!(pair_triples(&merged), pair_triples(&reference), "p={p}");
            // The output order is p-independent too, not just the set.
            match &first {
                Some(f) => assert_eq!(&merged, f, "p={p}: order differs from p=1"),
                None => first = Some(merged),
            }
        }
        first.unwrap_or_default()
    }

    #[test]
    fn merge_keeps_the_edges_sort_and_dedup_keeps() {
        // Vertices 3 and 4 contract into supervertex 3; 5 becomes 4.
        let labels = vec![0, 1, 2, 3, 3, 4];
        let edges = vec![
            Edge::new(0, 1, 3.0, 0),
            Edge::new(1, 0, 2.0, 1), // reversed orientation, lighter: wins
            Edge::new(2, 1, 5.0, 2), // tie on weight: the lower id wins…
            Edge::new(1, 2, 5.0, 3), // …whatever the orientation
            Edge::new(0, 3, 1.0, 4),
            Edge::new(4, 0, 1.0, 5), // same pair only after relabelling
            Edge::new(3, 4, 0.1, 6), // self-loop after relabelling
            Edge::new(5, 2, 7.0, 7),
            Edge::new(4, 5, 0.5, 8),
            Edge::new(5, 3, 0.25, 9), // collides with id 8, lighter
        ];
        let merged = check_merge(&edges, &labels, 5);
        assert_eq!(
            pair_triples(&merged),
            vec![(0, 1, 1), (0, 3, 4), (1, 2, 2), (2, 4, 7), (3, 4, 9)]
        );
        // Nothing in, and everything collapsed into one supervertex.
        assert!(check_merge(&[], &[0, 0], 1).is_empty());
        assert!(check_merge(&edges, &[0; 6], 1).is_empty());
    }

    /// Random small multigraphs (self-loops, both orientations, few distinct
    /// weights) under random contractions.
    fn arb_contraction() -> impl Strategy<Value = (Vec<Edge>, Vec<u32>, usize)> {
        (2usize..40, 1usize..40)
            .prop_flat_map(|(n, k)| {
                (
                    collection::vec((0..n as u32, 0..n as u32, 0u32..6), 0..200),
                    collection::vec(0..k as u32, n..n + 1),
                    Just(k),
                )
            })
            .prop_map(|(raw, labels, k)| {
                let edges = raw
                    .into_iter()
                    .enumerate()
                    .map(|(i, (u, v, w))| Edge::new(u, v, f64::from(w), i as u32))
                    .collect();
                (edges, labels, k)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        #[test]
        fn merge_matches_sort_and_dedup_on_random_multigraphs(c in arb_contraction()) {
            let (edges, labels, k) = c;
            check_merge(&edges, &labels, k);
        }
    }

    #[test]
    fn rows_list_entries_in_edge_order_at_every_p() {
        let g = random_graph(&GeneratorConfig::with_seed(4), 300, 1_500);
        let csr = AdjacencyArray::from_edge_list(&g);
        for p in [1, 2, 3, 8] {
            let rows = Rows::build::<true>(300, g.edges(), p, &mut vec![WorkMeter::new(); p]);
            for v in 0..300u32 {
                let expect: Vec<(u32, u32)> = csr.neighbors(v).map(|(u, _, id)| (u, id)).collect();
                assert_eq!(rows.row(v).collect::<Vec<_>>(), expect, "p={p}, row {v}");
            }
        }
    }

    #[test]
    fn triangle() {
        let g = EdgeList::from_triples(3, vec![(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)]);
        let r = msf(&g, &cfg(2));
        assert_eq!(r.edges, vec![0, 1]);
    }

    #[test]
    fn single_thread_behaves_as_prim() {
        let g = random_graph(&GeneratorConfig::with_seed(3), 300, 1200);
        let r = msf(&g, &cfg(1));
        assert_eq!(r.edges, crate::seq::prim::msf(&g).edges);
    }

    #[test]
    fn matches_kruskal_for_many_thread_counts() {
        for seed in 0..4u64 {
            let g = random_graph(&GeneratorConfig::with_seed(seed), 400, 1600);
            let expect = crate::seq::kruskal::msf(&g);
            for p in [1, 2, 3, 4, 8] {
                let r = msf(&g, &cfg(p));
                assert_eq!(r.edges, expect.edges, "seed {seed}, p {p}");
            }
        }
    }

    #[test]
    fn handles_structured_worst_cases() {
        for kind in [
            StructuredKind::Str0,
            StructuredKind::Str1,
            StructuredKind::Str2,
            StructuredKind::Str3,
        ] {
            let g = structured(&GeneratorConfig::with_seed(1), kind, 200);
            let r = msf(&g, &cfg(4));
            // The input is a tree: the MSF is the whole edge set.
            assert_eq!(r.edges, (0..199u32).collect::<Vec<_>>(), "{kind:?}");
        }
    }

    #[test]
    fn disconnected_forest() {
        let g = EdgeList::from_triples(7, vec![(0, 1, 1.0), (2, 3, 2.0), (3, 4, 0.5)]);
        let r = msf(&g, &cfg(3));
        assert_eq!(r.edges, vec![0, 1, 2]);
        assert_eq!(r.components, 4);
    }

    #[test]
    fn ablations_still_correct() {
        let g = random_graph(&GeneratorConfig::with_seed(5), 500, 2000);
        let expect = crate::seq::kruskal::msf(&g);
        for (shuffle, stealing) in [(false, false), (false, true), (true, false)] {
            let c = MsfConfig {
                shuffle,
                work_stealing: stealing,
                base_size: 8,
                ..MsfConfig::with_threads(4)
            };
            let r = msf(&g, &c);
            assert_eq!(r.edges, expect.edges, "shuffle={shuffle} steal={stealing}");
        }
    }

    #[test]
    fn behavioral_counters_are_plausible() {
        let g = random_graph(&GeneratorConfig::with_seed(8), 2_000, 8_000);
        let r = msf(&g, &cfg(4));
        let st = r.stats.mstbc.expect("MST-BC populates its counters");
        assert!(st.trees >= 1);
        assert!(st.visited >= 1);
        // At p=1 there are no foreign trees to collide with…
        let r1 = msf(&g, &cfg(1));
        let st1 = r1.stats.mstbc.expect("populated at p=1 too");
        assert_eq!(st1.collisions, 0, "single worker never collides");
        assert_eq!(st1.steals, 0, "single worker has nobody to steal from");
        // …and one worker visits every vertex of the (connected) graph.
        assert_eq!(st1.visited, 2_000);
    }

    #[test]
    fn no_stealing_when_disabled() {
        let g = random_graph(&GeneratorConfig::with_seed(9), 1_000, 4_000);
        let c = MsfConfig {
            work_stealing: false,
            base_size: 8,
            ..MsfConfig::with_threads(4)
        };
        let r = msf(&g, &c);
        assert_eq!(r.stats.mstbc.unwrap().steals, 0);
    }

    #[test]
    fn base_case_only_when_tiny() {
        let g = random_graph(&GeneratorConfig::with_seed(6), 30, 60);
        let c = MsfConfig {
            base_size: 1000,
            ..MsfConfig::with_threads(4)
        };
        let r = msf(&g, &c);
        assert_eq!(r.edges, crate::seq::kruskal::msf(&g).edges);
        assert!(r.stats.iterations.is_empty(), "entirely the base case");
    }
}
