//! Bor-AL / Bor-ALM: parallel Borůvka on adjacency arrays with the
//! two-level compact-graph sort (paper §2.2).
//!
//! compact-graph here is *bucketed*: first a small counting sort groups the
//! vertex array by supervertex label, then each vertex's adjacency list is
//! sorted individually — insertion sort for the many short lists, bottom-up
//! merge sort for long ones — and the sorted member lists of each
//! supervertex are k-way merged, dropping self-loops and keeping the
//! lightest of every multi-edge group. Sorting within buckets "saves
//! unnecessary comparisons between edges that have no vertices in common",
//! which is the paper's explanation for Bor-AL beating Bor-EL.
//!
//! **Bor-ALM** is the same algorithm under a different allocation policy:
//! instead of one fresh heap allocation per supervertex list per iteration,
//! each worker bump-allocates its lists from a retained per-worker
//! [`Arena`] — the paper's per-thread memory segments that sidestep the
//! shared `malloc` lock on Solaris. The arenas double-buffer across
//! iterations (compact reads generation i while writing generation i+1
//! into the spare set), so after the first couple of iterations warm the
//! capacity, the steady state performs **zero** system allocations per
//! iteration — which is exactly what the allocation-stats table printed by
//! `msf bench` demonstrates.

use msf_graph::{EdgeKey, EdgeList, OrderedWeight};
use msf_primitives::arena::Arena;
use msf_primitives::cost::{Stopwatch, WorkMeter};
use msf_primitives::obs;
use msf_primitives::pool;
use msf_primitives::sort::two_level_sort_by;

use crate::par::common::{connect_components, emit_unique, group_by_label, PHASE_OVERHEAD};
use crate::stats::{IterationStats, RunStats, StepKind, StepSpan};
use crate::{MsfConfig, MsfResult};

/// How compact-graph allocates the new adjacency lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocPolicy {
    /// One heap allocation per supervertex list per iteration (Bor-AL).
    SystemHeap,
    /// Per-worker retained arena buffers (Bor-ALM).
    ThreadArena,
}

/// One adjacency entry: target vertex, weight, original edge id.
/// (`Default` is required by the arena's zero-fill contract.)
#[derive(Debug, Clone, Copy, Default)]
struct AdjEntry {
    t: u32,
    w: f64,
    id: u32,
}

impl AdjEntry {
    #[inline]
    fn key(&self) -> EdgeKey {
        EdgeKey {
            w: OrderedWeight(self.w),
            id: self.id,
        }
    }

    /// compact-graph sort key: target supervertex first, then edge key.
    #[inline]
    fn group_key(&self) -> (u32, OrderedWeight, u32) {
        (self.t, OrderedWeight(self.w), self.id)
    }
}

/// One worker's retained Bor-ALM memory: its bump arena plus the scratch
/// buffers compact-graph reuses every iteration. Everything here keeps its
/// capacity across iterations (the arena via [`Arena::reset`], the `Vec`s
/// via `clear`), which is where Bor-ALM's zero-steady-state-allocation
/// behavior comes from.
#[derive(Debug, Default)]
struct ArenaWorker {
    arena: Arena<AdjEntry>,
    /// Relabeled, per-member-sorted entries for the supervertex in flight.
    scratch: Vec<AdjEntry>,
    /// Segment boundaries into `scratch`, one member list per segment.
    seg_bounds: Vec<usize>,
    /// K-way-merge output staging, copied into the arena per list.
    merge_buf: Vec<AdjEntry>,
    /// Retained k-way-merge heap and cursors.
    merge: MergeScratch,
}

/// Reusable state for one k-way merge, retained across supervertices so the
/// merge itself performs no heap allocation in steady state.
#[derive(Debug, Default)]
struct MergeScratch {
    heads: std::collections::BinaryHeap<MergeHead>,
    cursor: Vec<usize>,
}

/// One segment's frontier entry in the merge heap (min-heap via `Reverse`).
type MergeHead = std::cmp::Reverse<((u32, OrderedWeight, u32), usize)>;

/// Adjacency lists under either allocation policy.
enum Lists {
    Heap(Vec<Vec<AdjEntry>>),
    /// `index[v] = (worker, start, len)` into `storage[worker].arena`.
    Arena {
        index: Vec<(u32, u32, u32)>,
        storage: Vec<ArenaWorker>,
    },
}

impl Lists {
    #[inline]
    fn list(&self, v: usize) -> &[AdjEntry] {
        match self {
            Lists::Heap(lists) => &lists[v],
            Lists::Arena { index, storage } => {
                let (b, s, l) = index[v];
                storage[b as usize].arena.range(s as usize, l as usize)
            }
        }
    }

    fn total_entries(&self) -> usize {
        match self {
            Lists::Heap(lists) => lists.iter().map(Vec::len).sum(),
            Lists::Arena { index, .. } => index.iter().map(|&(_, _, l)| l as usize).sum(),
        }
    }
}

/// Compute the MSF with Bor-AL (`SystemHeap`) or Bor-ALM (`ThreadArena`).
pub fn msf(g: &EdgeList, cfg: &MsfConfig, policy: AllocPolicy) -> MsfResult {
    let watch = Stopwatch::start();
    let p = cfg.threads.max(1);
    let name = match policy {
        AllocPolicy::SystemHeap => "Bor-AL",
        AllocPolicy::ThreadArena => "Bor-ALM",
    };
    let mut stats = RunStats::new(name, p);

    let mut n = g.num_vertices();
    let mut out: Vec<u32> = Vec::with_capacity(n.saturating_sub(1));

    // Bor-ALM double buffer: compact reads the front generation (inside
    // `lists`) while writing the next one into these spare workers; after
    // the swap the displaced generation's arenas come back here, capacity
    // intact, for the iteration after.
    let mut spare: Vec<ArenaWorker> = match policy {
        AllocPolicy::ThreadArena => (0..p).map(|_| ArenaWorker::default()).collect(),
        AllocPolicy::SystemHeap => Vec::new(),
    };

    // Initial lists straight from the input. Bor-AL pays one heap `Vec` per
    // vertex here (as it will again every iteration); Bor-ALM bump-allocates
    // the whole generation from its per-thread arenas from the start.
    let csr = msf_graph::AdjacencyArray::from_edges(n, g.edges(), p);
    let mut lists = match policy {
        AllocPolicy::SystemHeap => Lists::Heap(
            (0..n as u32)
                .map(|v| {
                    csr.neighbors(v)
                        .map(|(t, w, id)| AdjEntry { t, w, id })
                        .collect()
                })
                .collect(),
        ),
        AllocPolicy::ThreadArena => {
            let mut workers = std::mem::take(&mut spare);
            let spans_per_worker: Vec<Vec<(u32, u32)>> = pool::map_mut(&mut workers, |t, w| {
                let r = msf_primitives::block_range(n, p, t);
                w.arena.reset();
                let mut spans = Vec::with_capacity(r.len());
                for v in r {
                    w.merge_buf.clear();
                    w.merge_buf
                        .extend(csr.neighbors(v as u32).map(|(t2, w2, id)| AdjEntry {
                            t: t2,
                            w: w2,
                            id,
                        }));
                    let av = w.arena.alloc_from(&w.merge_buf);
                    spans.push((av.start() as u32, av.len() as u32));
                }
                spans
            });
            let mut index = Vec::with_capacity(n);
            for (t, spans) in spans_per_worker.into_iter().enumerate() {
                for (s0, l) in spans {
                    index.push((t as u32, s0, l));
                }
            }
            Lists::Arena {
                index,
                storage: workers,
            }
        }
    };
    drop(csr);

    loop {
        let directed_edges = lists.total_entries();
        if directed_edges == 0 {
            break;
        }
        let mut it = IterationStats {
            vertices: n,
            directed_edges,
            ..Default::default()
        };
        let _iteration = obs::span(
            obs::SpanKind::Iteration,
            stats.iterations.len() as u64,
            n as u64,
        );

        // Step 1: find-min — scan each vertex's (contiguous) list.
        let step = StepSpan::begin(StepKind::FindMin, stats.iterations.len());
        let mut fm_meters = vec![WorkMeter::new(); p];
        let (to, chosen) = find_min(&lists, n, p, &mut fm_meters);
        emit_unique(&mut out, chosen);
        it.find_min = step.finish(&fm_meters, PHASE_OVERHEAD);

        // Step 2: connect-components.
        let step = StepSpan::begin(StepKind::Connect, stats.iterations.len());
        let mut cc_meters = vec![WorkMeter::new(); p];
        let (labels, k) = connect_components(to, p, &mut cc_meters);
        it.connect = step.finish(&cc_meters, PHASE_OVERHEAD);

        // Step 3: compact-graph — the two-level sort + k-way merge.
        let step = StepSpan::begin(StepKind::Compact, stats.iterations.len());
        let mut cg_meters = vec![WorkMeter::new(); p];
        let next = compact(
            &lists,
            &labels,
            k as usize,
            p,
            policy,
            &mut spare,
            &mut cg_meters,
        );
        // compact-graph is already a fused relabel+filter sweep (each
        // surviving entry is read exactly once, relabeled, and written into
        // the next generation), so it participates in the suite-wide
        // bandwidth accounting: one read of the old generation plus one
        // write of the new one (DESIGN.md §15).
        msf_primitives::fused::record_traffic(
            ((directed_edges + next.total_entries()) * std::mem::size_of::<AdjEntry>()) as u64,
        );
        let old = std::mem::replace(&mut lists, next);
        if let Lists::Arena { storage, .. } = old {
            // Recycle the displaced generation's arenas and scratch buffers.
            spare = storage;
        }
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

/// find-min over per-vertex lists: returns the hook targets (`v` itself when
/// the list is empty) and the chosen edge ids.
fn find_min(lists: &Lists, n: usize, p: usize, meters: &mut [WorkMeter]) -> (Vec<u32>, Vec<u32>) {
    let parts: Vec<(Vec<u32>, Vec<u32>, WorkMeter)> = pool::map_collect(p, 1, |t| {
        let r = msf_primitives::block_range(n, p, t);
        let mut meter = WorkMeter::new();
        let mut to = Vec::with_capacity(r.len());
        let mut chosen = Vec::new();
        for v in r {
            let list = lists.list(v);
            meter.mem(1);
            meter.ops(list.len() as u64);
            match list.iter().min_by_key(|e| e.key()) {
                Some(best) => {
                    to.push(best.t);
                    chosen.push(best.id);
                }
                None => to.push(v as u32),
            }
        }
        (to, chosen, meter)
    });
    let mut to = Vec::with_capacity(n);
    let mut chosen = Vec::new();
    for (t, (tpart, cpart, m)) in parts.into_iter().enumerate() {
        meters[t] = meters[t] + m;
        to.extend_from_slice(&tpart);
        chosen.extend_from_slice(&cpart);
    }
    (to, chosen)
}

/// Relabel, per-member-sort, and segment one supervertex's member lists
/// into `scratch`/`seg_bounds` (cleared first). Shared by both policies.
fn build_segments(
    lists: &Lists,
    labels: &[u32],
    members: &[u32],
    s: u32,
    scratch: &mut Vec<AdjEntry>,
    seg_bounds: &mut Vec<usize>,
    meter: &mut WorkMeter,
) {
    scratch.clear();
    seg_bounds.clear();
    seg_bounds.push(0);
    for &v in members {
        let start = scratch.len();
        for e in lists.list(v as usize) {
            meter.mem(1); // label lookup
            let tl = labels[e.t as usize];
            if tl != s {
                scratch.push(AdjEntry { t: tl, ..*e });
            }
        }
        let seg = &mut scratch[start..];
        let len = seg.len() as u64;
        meter.ops(len * (64 - len.max(2).leading_zeros()) as u64);
        two_level_sort_by(seg, |a, b| a.group_key() < b.group_key());
        seg_bounds.push(scratch.len());
    }
}

/// The two-level compact-graph step. For `ThreadArena`, the next generation
/// is written into `spare` (drained by this call; the caller recycles the
/// displaced generation back into it after swapping).
fn compact(
    lists: &Lists,
    labels: &[u32],
    k: usize,
    p: usize,
    policy: AllocPolicy,
    spare: &mut Vec<ArenaWorker>,
    meters: &mut [WorkMeter],
) -> Lists {
    // "Sort the vertex array according to the supervertex label" — the
    // smaller parallel sort is the shared counting sort here.
    let (starts, order) = group_by_label(labels, k, p);
    for m in meters.iter_mut() {
        m.mem((labels.len() / p.max(1)) as u64 + 1);
        m.ops((labels.len() / p.max(1)) as u64 + 1);
    }

    match policy {
        // Bor-AL: each worker heap-allocates one fresh Vec per supervertex
        // list, every iteration — the allocator-contention baseline.
        AllocPolicy::SystemHeap => {
            let parts: Vec<(Vec<Vec<AdjEntry>>, WorkMeter)> = pool::map_collect(p, 1, |t| {
                let r = msf_primitives::block_range(k, p, t);
                let mut meter = WorkMeter::new();
                let mut built: Vec<Vec<AdjEntry>> = Vec::with_capacity(r.len());
                let mut scratch: Vec<AdjEntry> = Vec::new();
                let mut seg_bounds: Vec<usize> = Vec::new();
                let mut merge = MergeScratch::default();
                for s in r {
                    build_segments(
                        lists,
                        labels,
                        &order[starts[s]..starts[s + 1]],
                        s as u32,
                        &mut scratch,
                        &mut seg_bounds,
                        &mut meter,
                    );
                    let mut list = Vec::with_capacity(scratch.len());
                    merge_segments_into(&scratch, &seg_bounds, &mut merge, &mut list, &mut meter);
                    built.push(list);
                }
                (built, meter)
            });
            let mut lists: Vec<Vec<AdjEntry>> = Vec::with_capacity(k);
            for (t, (built, m)) in parts.into_iter().enumerate() {
                meters[t] = meters[t] + m;
                lists.extend(built);
            }
            Lists::Heap(lists)
        }
        // Bor-ALM: each worker bump-allocates its block's lists from its
        // retained arena; only capacity warm-up ever hits the system heap.
        AllocPolicy::ThreadArena => {
            let mut workers = std::mem::take(spare);
            if workers.len() < p {
                workers.resize_with(p, ArenaWorker::default);
            }
            let parts: Vec<(Vec<(u32, u32)>, WorkMeter)> = pool::map_mut(&mut workers, |t, w| {
                let r = msf_primitives::block_range(k, p, t);
                let mut meter = WorkMeter::new();
                w.arena.reset();
                let mut spans: Vec<(u32, u32)> = Vec::with_capacity(r.len());
                for s in r {
                    let (scratch, seg_bounds) = (&mut w.scratch, &mut w.seg_bounds);
                    build_segments(
                        lists,
                        labels,
                        &order[starts[s]..starts[s + 1]],
                        s as u32,
                        scratch,
                        seg_bounds,
                        &mut meter,
                    );
                    w.merge_buf.clear();
                    merge_segments_into(
                        &w.scratch,
                        &w.seg_bounds,
                        &mut w.merge,
                        &mut w.merge_buf,
                        &mut meter,
                    );
                    let av = w.arena.alloc_from(&w.merge_buf);
                    spans.push((av.start() as u32, av.len() as u32));
                }
                (spans, meter)
            });
            let mut index: Vec<(u32, u32, u32)> = Vec::with_capacity(k);
            for (t, (spans, m)) in parts.into_iter().enumerate() {
                meters[t] = meters[t] + m;
                for (start, len) in spans {
                    index.push((t as u32, start, len));
                }
            }
            Lists::Arena {
                index,
                storage: workers,
            }
        }
    }
}

/// K-way merge of per-member sorted segments into `outlist`, keeping the
/// minimum entry per target ("the set of vertices with the same supervertex
/// label … can be merged efficiently"). The caller owns `outlist` and the
/// merge scratch, so Bor-ALM stages into retained buffers and the merge is
/// allocation-free in steady state.
fn merge_segments_into(
    scratch: &[AdjEntry],
    bounds: &[usize],
    ms: &mut MergeScratch,
    outlist: &mut Vec<AdjEntry>,
    meter: &mut WorkMeter,
) {
    let segs = bounds.len() - 1;
    outlist.reserve(scratch.len());
    if segs == 1 {
        // Single member: already sorted; dedup by target in one pass.
        for e in scratch {
            if outlist.last().is_none_or(|l| l.t != e.t) {
                outlist.push(*e);
            }
        }
        meter.ops(scratch.len() as u64);
        return;
    }
    ms.heads.clear();
    ms.heads.extend(
        (0..segs)
            .filter(|&i| bounds[i] < bounds[i + 1])
            .map(|i| std::cmp::Reverse((scratch[bounds[i]].group_key(), i))),
    );
    ms.cursor.clear();
    ms.cursor.extend_from_slice(&bounds[..segs]);
    while let Some(std::cmp::Reverse((_, i))) = ms.heads.pop() {
        let e = scratch[ms.cursor[i]];
        meter.ops(2);
        if outlist.last().is_none_or(|l| l.t != e.t) {
            outlist.push(e);
        }
        ms.cursor[i] += 1;
        if ms.cursor[i] < bounds[i + 1] {
            ms.heads
                .push(std::cmp::Reverse((scratch[ms.cursor[i]].group_key(), i)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msf_graph::generators::{random_graph, GeneratorConfig};

    fn cfg(p: usize) -> MsfConfig {
        MsfConfig::with_threads(p)
    }

    #[test]
    fn triangle_both_policies() {
        let g = EdgeList::from_triples(3, vec![(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)]);
        for policy in [AllocPolicy::SystemHeap, AllocPolicy::ThreadArena] {
            let r = msf(&g, &cfg(2), policy);
            assert_eq!(r.edges, vec![0, 1], "{policy:?}");
        }
    }

    #[test]
    fn matches_kruskal_on_random_graphs() {
        for seed in 0..4u64 {
            let g = random_graph(&GeneratorConfig::with_seed(seed), 400, 1600);
            let expect = crate::seq::kruskal::msf(&g);
            for p in [1, 2, 4] {
                for policy in [AllocPolicy::SystemHeap, AllocPolicy::ThreadArena] {
                    let r = msf(&g, &cfg(p), policy);
                    assert_eq!(r.edges, expect.edges, "seed {seed}, p {p}, {policy:?}");
                }
            }
        }
    }

    #[test]
    fn multi_edge_merge_keeps_minimum() {
        // A square whose contraction creates parallel edges: 0-1 and 2-3
        // are the light pair edges; between the pairs run 1-2 (w 10, id 2),
        // 0-3 (w 9, id 3), 0-2 (w 8, id 4). After one iteration the three
        // become parallel edges and only id 4 (w 8) must survive and win.
        let g = EdgeList::from_triples(
            4,
            vec![
                (0, 1, 1.0),
                (2, 3, 1.5),
                (1, 2, 10.0),
                (0, 3, 9.0),
                (0, 2, 8.0),
            ],
        );
        let r = msf(&g, &cfg(2), AllocPolicy::SystemHeap);
        assert_eq!(r.edges, vec![0, 1, 4]);
        assert_eq!(r.total_weight, 1.0 + 1.5 + 8.0);
    }

    #[test]
    fn disconnected_forest() {
        let g = EdgeList::from_triples(5, vec![(0, 1, 1.0), (2, 3, 2.0)]);
        let r = msf(&g, &cfg(3), AllocPolicy::ThreadArena);
        assert_eq!(r.edges, vec![0, 1]);
        assert_eq!(r.components, 3);
    }

    #[test]
    fn alm_and_al_byte_identical() {
        let g = random_graph(&GeneratorConfig::with_seed(31), 500, 2500);
        let a = msf(&g, &cfg(4), AllocPolicy::SystemHeap);
        let b = msf(&g, &cfg(4), AllocPolicy::ThreadArena);
        assert_eq!(a.edges, b.edges);
        assert_eq!(a.total_weight, b.total_weight);
    }
}
