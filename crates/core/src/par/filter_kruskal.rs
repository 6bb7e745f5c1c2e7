//! Filter-Kruskal: sampling pivot partition + concurrent-union-find
//! filtering (Osipov, Sanders & Singler, ALENEX 2009), built from the
//! suite's fused bandwidth kernels.
//!
//! Where the Borůvka family contracts the *graph*, filter-Kruskal prunes
//! the *edge list*: pick a pivot weight by sampling, split the edges into
//! light (≤ pivot under the `(weight, id)` total order) and heavy, recurse
//! on the light side first, then discard every heavy edge whose endpoints
//! the light recursion already connected — the cycle property again, but
//! applied through a union-find instead of path-max queries — and recurse
//! on the survivors. The recursion stops where the fused kernels stop
//! splitting: a slice they would sweep on one thread (fewer than
//! [`PAR_THRESHOLD`] edges) goes straight to a sequential Kruskal base
//! case over the shared [`ConcurrentUnionFind`], so every partition and
//! heavy filter runs on a slice the pool can split. The base case sorts
//! one `u128` per edge as plain integers: the [`packed_edge_key`] the
//! pivot uses, with the edge's slice index in the low 32 bits.
//!
//! Because all light keys precede all heavy keys and every base case sorts
//! ascending, edges are united in globally nondecreasing `(weight, id)`
//! order: the output is the suite-wide unique MSF, bit-identical at every
//! thread count and under `MSF_SEQUENTIAL`.
//!
//! The bandwidth story (DESIGN.md §15): the first partition reads straight
//! out of the input `EdgeList` — there is **no** setup copy at all — and
//! every subsequent slice is touched exactly once per recursion level by a
//! fused kernel: [`partition_compact`] for the pivot split (one read, two
//! compacted writes) and [`filter_relabel_compact`] for the heavy filter
//! (one read, survivors written back).
//!
//! Determinism of the pivot: a stride-spread sample of at most
//! [`PIVOT_SAMPLE`] packed `(weight bits, id)` keys, median taken after a
//! sort. The sample positions depend only on the slice length, never on
//! thread count or timing, so the whole recursion tree — and therefore
//! every modeled-cost charge — is a pure function of the input.

use msf_graph::{Edge, EdgeList};
use msf_primitives::atomic::packed_edge_key;
use msf_primitives::connectivity::concurrent::ConcurrentUnionFind;
use msf_primitives::cost::{Stopwatch, WorkMeter};
use msf_primitives::fused::{filter_relabel_compact, partition_compact, record_traffic};
use msf_primitives::prefix::PAR_THRESHOLD;

use crate::par::common::PHASE_OVERHEAD;
use crate::stats::{IterationStats, RunStats, StepKind, StepSpan, StepStats};
use crate::{MsfConfig, MsfResult};

/// Upper bound on pivot-sample size (stride-spread over the slice).
const PIVOT_SAMPLE: usize = 64;

/// Depth cap: a pathologically skewed pivot sequence falls back to the
/// base case rather than recursing toward stack exhaustion. With the
/// stride-median pivot this is never reached on real inputs.
const MAX_DEPTH: usize = 64;

/// Compute the MSF with filter-Kruskal.
pub fn msf(g: &EdgeList, cfg: &MsfConfig) -> MsfResult {
    let watch = Stopwatch::start();
    let p = cfg.threads.max(1);
    let n = g.num_vertices();
    let mut stats = RunStats::new("Filter-Kruskal", p);

    let uf = ConcurrentUnionFind::new(n);
    let mut out: Vec<u32> = Vec::with_capacity(n.saturating_sub(1));
    // Per-depth accumulated step stats: partition → compact column, heavy
    // filter → find-min column (both phases of one depth run under the
    // same recursion level even though the tree visits them many times).
    let mut levels: Vec<IterationStats> = Vec::new();
    let mut base_cost: u64 = 0;

    recurse(
        Slice::Input(g.edges()),
        0,
        n,
        p,
        &uf,
        &mut out,
        &mut levels,
        &mut base_cost,
    );

    for (depth, mut it) in levels.into_iter().enumerate() {
        it.vertices = n >> depth.min(63); // nominal frontier decay marker
        stats.push_iteration(it);
    }
    stats.add_flat_cost(base_cost);
    stats.total_seconds = watch.seconds();
    MsfResult::from_ids(g, out, stats)
}

/// A recursion slice: the root borrows the input edge list (no setup
/// copy); every split below owns its compacted half.
enum Slice<'a> {
    Input(&'a [Edge]),
    Owned(Vec<Edge>),
}

impl Slice<'_> {
    fn edges(&self) -> &[Edge] {
        match self {
            Slice::Input(e) => e,
            Slice::Owned(e) => e,
        }
    }
}

/// Accumulate `step` into the depth-`d` row of `levels` (growing it with
/// empty rows as the recursion deepens), into the column picked by `col`.
fn accumulate(
    levels: &mut Vec<IterationStats>,
    d: usize,
    edges_seen: usize,
    col: impl Fn(&mut IterationStats) -> &mut StepStats,
    step: StepStats,
) {
    while levels.len() <= d {
        levels.push(IterationStats::default());
    }
    let row = &mut levels[d];
    row.directed_edges += edges_seen;
    let cell = col(row);
    cell.seconds += step.seconds;
    cell.modeled_max += step.modeled_max;
    cell.modeled_total += step.modeled_total;
}

/// The stride-median pivot: deterministic, width-independent, O(1) space.
fn pick_pivot(edges: &[Edge]) -> u128 {
    let len = edges.len();
    let take = PIVOT_SAMPLE.min(len);
    let stride = len / take;
    let mut keys: Vec<u128> = (0..take)
        .map(|i| {
            let e = &edges[i * stride];
            packed_edge_key(e.w, e.id)
        })
        .collect();
    keys.sort_unstable();
    keys[take / 2]
}

#[allow(clippy::too_many_arguments)]
fn recurse(
    slice: Slice<'_>,
    depth: usize,
    n: usize,
    p: usize,
    uf: &ConcurrentUnionFind,
    out: &mut Vec<u32>,
    levels: &mut Vec<IterationStats>,
    base_cost: &mut u64,
) {
    let edges = slice.edges();
    let m = edges.len();
    if m == 0 {
        return;
    }
    if m < PAR_THRESHOLD || depth >= MAX_DEPTH {
        *base_cost += base_case(edges, n, uf, out, depth);
        return;
    }

    // Partition around the sampled pivot — charged as this depth's
    // compact-graph analogue. The sample is a handful of scattered reads
    // plus a tiny sort (serial, so charged to one block); the split itself
    // is one read and one write per edge, block-partitioned.
    let step = StepSpan::begin(StepKind::Compact, depth);
    let mut meters = vec![WorkMeter::new(); p];
    let take = PIVOT_SAMPLE.min(m) as u64;
    meters[0].mem(take);
    meters[0].ops(take * (64 - take.max(2).leading_zeros()) as u64);
    for (t, meter) in meters.iter_mut().enumerate() {
        meter.mem(2 * msf_primitives::block_range(m, p, t).len() as u64);
    }
    let pivot = pick_pivot(edges);
    let (light, heavy) = partition_compact(edges, p, |_, e| packed_edge_key(e.w, e.id) <= pivot);
    accumulate(
        levels,
        depth,
        m,
        |it| &mut it.compact,
        step.finish(&meters, PHASE_OVERHEAD),
    );

    if light.len() == m {
        // Degenerate pivot (every key ≤ pivot): recursing would not shrink
        // the slice, so solve it directly.
        *base_cost += base_case(&light, n, uf, out, depth);
        return;
    }

    // Light side first: after it returns, `uf` holds the MSF of every edge
    // lighter than the pivot, which is exactly the state the cycle
    // property needs to prune the heavy side.
    recurse(
        Slice::Owned(light),
        depth + 1,
        n,
        p,
        uf,
        out,
        levels,
        base_cost,
    );

    // Heavy filter — this depth's find-min analogue: two union-find lookups
    // per edge (scattered, O(log n) expected hops each), survivors
    // compacted in one fused sweep.
    let step = StepSpan::begin(StepKind::FindMin, depth);
    let mut meters = vec![WorkMeter::new(); p];
    let log_n = (usize::BITS - n.max(2).leading_zeros()) as u64;
    let hm = heavy.len();
    for (t, meter) in meters.iter_mut().enumerate() {
        meter.mem(2 * log_n * msf_primitives::block_range(hm, p, t).len() as u64);
    }
    let kept = filter_relabel_compact(&heavy, p, |_, e| (!uf.same_set(e.u, e.v)).then_some(*e));
    // The union-find parent reads are side-band traffic the kernel cannot
    // see; the sweep itself is already recorded.
    record_traffic(8 * hm as u64);
    accumulate(
        levels,
        depth,
        hm,
        |it| &mut it.find_min,
        step.finish(&meters, PHASE_OVERHEAD),
    );
    drop(heavy);

    recurse(
        Slice::Owned(kept),
        depth + 1,
        n,
        p,
        uf,
        out,
        levels,
        base_cost,
    );
}

/// Sequential Kruskal over one slice: sort ascending under the total
/// order, unite in order, emit the ids that linked. Returns the modeled
/// cost of the solve (sort plus scattered union-find traffic, serial).
///
/// Each edge becomes one `u128`, `packed_edge_key(w, id) << 32 | index`:
/// the 96-bit packed key orders exactly as [`Edge::key`] (±0.0 and ties
/// included), ids are unique so the slice index below it never decides
/// an order, and it gives the edge back after the integer sort. Edge ids
/// are `u32`, so a slice never holds more than 2³² edges.
fn base_case(
    edges: &[Edge],
    n: usize,
    uf: &ConcurrentUnionFind,
    out: &mut Vec<u32>,
    depth: usize,
) -> u64 {
    let m = edges.len();
    if m == 0 {
        return 0;
    }
    let step = StepSpan::begin(StepKind::BaseCase, depth);
    let mut keys: Vec<u128> = edges
        .iter()
        .enumerate()
        .map(|(i, e)| (packed_edge_key(e.w, e.id) << 32) | i as u128)
        .collect();
    keys.sort_unstable();
    for key in keys {
        let e = &edges[key as u32 as usize];
        if uf.unite(e.u, e.v, e.id) {
            out.push(e.id);
        }
    }
    let mut meter = WorkMeter::new();
    let log_n = (usize::BITS - n.max(2).leading_zeros()) as u64;
    let log_m = (usize::BITS - m.max(2).leading_zeros()) as u64;
    meter.ops(m as u64 * log_m);
    meter.mem(m as u64 * (2 * log_n + 1));
    step.finish(&[meter], PHASE_OVERHEAD).modeled_max
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
        assert_eq!(msf(&g, &cfg(2)).edges, vec![0, 1]);
    }

    #[test]
    fn matches_kruskal_on_random_graphs() {
        for seed in 0..4u64 {
            let g = random_graph(&GeneratorConfig::with_seed(seed), 400, 2400);
            let expect = crate::seq::kruskal::msf(&g);
            for p in [1, 2, 4, 8] {
                let r = msf(&g, &cfg(p));
                assert_eq!(r.edges, expect.edges, "seed {seed} p {p}");
            }
        }
    }

    #[test]
    fn recursion_engages_above_the_base_case() {
        // Large enough that at least one partition + heavy filter happens.
        let g = random_graph(&GeneratorConfig::with_seed(7), 2000, 3 * PAR_THRESHOLD);
        let expect = crate::seq::kruskal::msf(&g);
        let r = msf(&g, &cfg(3));
        assert_eq!(r.edges, expect.edges);
        assert!(
            !r.stats.iterations.is_empty(),
            "partition levels should be recorded"
        );
    }

    #[test]
    fn duplicate_weights_stay_deterministic() {
        // All-equal weights: the packed key degenerates to the id order and
        // the pivot still splits (ids are unique).
        let mut triples = Vec::new();
        for u in 0..60u32 {
            for v in u + 1..60 {
                triples.push((u, v, 1.0));
            }
        }
        let g = EdgeList::from_triples(60, triples);
        let expect = crate::seq::kruskal::msf(&g);
        for p in [1, 3] {
            assert_eq!(msf(&g, &cfg(p)).edges, expect.edges, "p {p}");
        }

        // Above the cutoff, so the pivot split, the heavy filter and the
        // packed base-case sort all meet ±0.0, negatives, a subnormal and
        // heavy ties; each must order them exactly as `Edge::key()` does.
        let n = 4_000u32;
        let weights = [1.0, -2.5, 0.0, -0.0, f64::MIN_POSITIVE / 4.0, -1e-300];
        let triples: Vec<(u32, u32, f64)> = (0..3 * PAR_THRESHOLD as u32)
            .map(|i| {
                let u = i % n;
                let v = (u + 1 + i.wrapping_mul(2654435761) % (n - 1)) % n;
                let w = weights[(i.wrapping_mul(40503) >> 7) as usize % weights.len()];
                (u, v, w)
            })
            .collect();
        let g = EdgeList::from_triples(n as usize, triples);
        let expect = crate::seq::kruskal::msf(&g);
        for p in [1, 2, 3] {
            let r = msf(&g, &cfg(p));
            assert!(!r.stats.iterations.is_empty(), "p {p}: no recursion");
            assert_eq!(r.edges, expect.edges, "mixed keys, p {p}");
        }
        let r = msf_primitives::pool::with_sequential(|| msf(&g, &cfg(3)));
        assert_eq!(r.edges, expect.edges, "mixed keys, sequential");
    }

    #[test]
    fn disconnected_inputs() {
        let a = random_graph(&GeneratorConfig::with_seed(1), 300, 1800);
        let b = random_graph(&GeneratorConfig::with_seed(2), 300, 1800);
        let mut triples: Vec<(u32, u32, f64)> = a.edges().iter().map(|e| (e.u, e.v, e.w)).collect();
        triples.extend(b.edges().iter().map(|e| (e.u + 300, e.v + 300, e.w)));
        let g = EdgeList::from_triples(600, triples);
        let expect = crate::seq::kruskal::msf(&g);
        let r = msf(&g, &cfg(4));
        assert_eq!(r.edges, expect.edges);
        assert_eq!(r.components, expect.components);
    }

    #[test]
    fn sequential_escape_hatch_matches() {
        let g = random_graph(&GeneratorConfig::with_seed(11), 500, 3000);
        let expect = crate::seq::kruskal::msf(&g);
        msf_primitives::pool::with_sequential(|| {
            assert_eq!(msf(&g, &cfg(4)).edges, expect.edges);
        });
    }
}
