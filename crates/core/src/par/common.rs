//! Machinery shared by the parallel MSF algorithms: connect-components over
//! find-min choices, edge relabel/contract passes, and the modeled-cost
//! conventions.

use std::sync::atomic::{AtomicU32, Ordering};

use msf_graph::{Edge, OrderedWeight};
use msf_primitives::atomic::{packed_edge_key, MinSlots};
use msf_primitives::connectivity::{pointer_jump, relabel_consecutive};
use msf_primitives::cost::WorkMeter;
use msf_primitives::sort::{sample_sort_by_key, SampleSortConfig};
use msf_primitives::{csr, pool};

/// Modeled fixed cost of launching and barrier-joining one parallel phase
/// (fork overhead, splitter selection, cache-line ping-pong on shared
/// cursors). In work units of [`WorkMeter::cost`]; roughly the ~20 µs a
/// fork/join round trip costs at ~1 ns/unit. This constant is what bends the
/// modeled speedup curves away from ideal on iteration-heavy inputs (the
/// structured graphs of Fig. 6), matching the qualitative behavior the paper
/// measured on real hardware.
pub(crate) const PHASE_OVERHEAD: u64 = 20_000;

/// Composite sort key for contract passes: group by (source, target), then
/// order each group by the total-order edge key so the group's first element
/// is its minimum.
#[inline]
pub(crate) fn contract_key(e: &Edge) -> (u32, u32, OrderedWeight, u32) {
    (e.u, e.v, OrderedWeight(e.w), e.id)
}

/// The connect-components step (paper §2, step 2): every vertex points along
/// its chosen minimum edge (`to[v]`, or `v` itself when it chose nothing),
/// mutual pairs are broken, pointer jumping collapses the hook trees, and
/// roots are renumbered consecutively. Returns `(labels, k)` and charges the
/// modeled cost to `meters`.
pub(crate) fn connect_components(
    to: Vec<u32>,
    p: usize,
    meters: &mut [WorkMeter],
) -> (Vec<u32>, u32) {
    let n = to.len();
    let mut parent = to;
    pointer_jump::resolve_pseudo_forest(&mut parent);
    let (labels, k) = relabel_consecutive(&parent);
    // Pointer jumping is O(n log n) scattered reads split across p workers;
    // the paper's own bound for this step (§3): ME ≤ 2 n log n.
    let log_n = (usize::BITS - n.max(2).leading_zeros()) as u64;
    let per = (n as u64 * log_n) / p.max(1) as u64;
    for m in meters.iter_mut() {
        m.mem(per);
        m.ops(per);
    }
    (labels, k)
}

/// Renumber already-resolved component roots (e.g. from Shiloach–Vishkin)
/// into consecutive labels, charging the modeled relabel cost to `meters`.
pub(crate) fn connect_components_from_roots(
    roots: Vec<u32>,
    p: usize,
    meters: &mut [WorkMeter],
) -> (Vec<u32>, u32) {
    let n = roots.len();
    let (labels, k) = relabel_consecutive(&roots);
    let per = (n / p.max(1)) as u64 + 1;
    for m in meters.iter_mut() {
        m.mem(per);
        m.ops(per);
    }
    (labels, k)
}

/// Relabel endpoints through `labels` and drop self-loops in one fused
/// sweep ([`msf_primitives::fused::filter_relabel_compact`]), charging two
/// scattered lookup-table reads per edge to `p` metered blocks. The
/// surviving edges keep their weight, original id and relative order.
pub(crate) fn relabel_and_filter(
    edges: &[Edge],
    labels: &[u32],
    p: usize,
    meters: &mut [WorkMeter],
) -> Vec<Edge> {
    let p = p.max(1);
    for (t, m) in meters.iter_mut().enumerate().take(p) {
        m.mem(2 * msf_primitives::block_range(edges.len(), p, t).len() as u64);
    }
    let out = msf_primitives::fused::filter_relabel_compact(edges, p, |_, e| {
        let (lu, lv) = (labels[e.u as usize], labels[e.v as usize]);
        (lu != lv).then(|| Edge::new(lu, lv, e.w, e.id))
    });
    // The kernel records the edge sweep; the two u32 label-table reads per
    // edge are side-band traffic it cannot see.
    msf_primitives::fused::record_traffic(8 * edges.len() as u64);
    out
}

/// Sort relabeled edges by [`contract_key`] and keep only the first (=
/// minimum) edge of every (u, v) group — the sample-sort + prefix-merge
/// compact of Bor-EL (§2.1).
///
/// Input edges must already be self-loop free.
pub(crate) fn sort_and_dedup(edges: Vec<Edge>, p: usize, meters: &mut [WorkMeter]) -> Vec<Edge> {
    let len = edges.len();
    if len == 0 {
        return edges;
    }
    let p = p.max(1);
    let cfg = SampleSortConfig {
        buckets: p,
        ..SampleSortConfig::default()
    };
    let sorted = sample_sort_by_key(edges, contract_key, cfg);
    // Keep the head of each (u, v) run.
    let keep: Vec<bool> = pool::map_collect(len, 1, |i| {
        i == 0 || (sorted[i].u, sorted[i].v) != (sorted[i - 1].u, sorted[i - 1].v)
    });
    let out = msf_primitives::prefix::par_filter(&sorted, &keep, p);
    // Modeled cost per worker, following the paper's sample-sort complexity
    // (Eq. 2): each element is bucketed (1 scattered write), gathered
    // (1 scattered read), and takes part in an O(l log l) bucket sort.
    let log_l = (usize::BITS - len.max(2).leading_zeros()) as u64;
    let per_elems = (len / p) as u64 + 1;
    for m in meters.iter_mut() {
        m.mem(2 * per_elems);
        m.ops(per_elems * log_l + per_elems);
    }
    out
}

/// Segment starts of a (sorted-by-source) directed edge array: `seg[v]` is
/// the first index whose source is ≥ v, computed by `p` blocks of binary
/// searches; `seg[n] == edges.len()`.
pub(crate) fn segment_starts(edges: &[Edge], n: usize, p: usize) -> Vec<usize> {
    let p = p.max(1);
    let mut seg: Vec<usize> = pool::map_collect(n, n.div_ceil(p), |v| {
        edges.partition_point(|e| (e.u as usize) < v)
    });
    seg.push(edges.len());
    seg
}

/// Per-vertex minimum edge over source segments: returns, for each vertex,
/// the index of its minimum-key incident edge or `u32::MAX` when its segment
/// is empty. Metered per block.
pub(crate) fn segmented_find_min(
    edges: &[Edge],
    seg: &[usize],
    p: usize,
    meters: &mut [WorkMeter],
) -> Vec<u32> {
    let n = seg.len() - 1;
    let p = p.max(1);
    let parts: Vec<(Vec<u32>, WorkMeter)> = pool::map_collect(p, 1, |t| {
        let r = msf_primitives::block_range(n, p, t);
        let mut meter = WorkMeter::new();
        let mut out = Vec::with_capacity(r.len());
        for v in r {
            let (lo, hi) = (seg[v], seg[v + 1]);
            meter.mem(1);
            meter.ops((hi - lo) as u64);
            if lo == hi {
                out.push(u32::MAX);
                continue;
            }
            let mut best = lo;
            for i in lo + 1..hi {
                if edges[i].key() < edges[best].key() {
                    best = i;
                }
            }
            out.push(best as u32);
        }
        (out, meter)
    });
    let mut out = Vec::with_capacity(n);
    for (t, (part, m)) in parts.into_iter().enumerate() {
        meters[t] = meters[t] + m;
        out.extend_from_slice(&part);
    }
    out
}

/// [`MinSlots`] sized `n`, in single-writer mode when every write of a race
/// run in the pool's loops is guaranteed to run on the calling thread
/// ([`pool::runs_inline`]: the sequential escape hatch is on, or the pool
/// has a single worker). This is the soundness condition for
/// [`MinSlots::new_single_writer`]'s plain path — note it is about the
/// *pool*, not the host, and covers only races run in the pool's loops:
/// writers on threads a caller spawns itself never qualify.
pub(crate) fn min_slots_here(n: usize) -> MinSlots {
    if pool::runs_inline() {
        MinSlots::new_single_writer(n)
    } else {
        MinSlots::new(n)
    }
}

/// The per-endpoint write-min race (parlaylib `boruvka.h`): every edge
/// lowers both endpoints' slots to its own index under the packed
/// `(weight bits, edge id)` key, so the quiescent slots hold each vertex's
/// unique minimum incident edge — the same winner the barriered segmented
/// scan elects, without any sort or segment structure.
pub(crate) fn write_min_race(
    edges: &[Edge],
    n: usize,
    p: usize,
    meters: &mut [WorkMeter],
) -> MinSlots {
    let p = p.max(1);
    let slots = min_slots_here(n);
    let key = |i: u64| {
        let e = &edges[i as usize];
        packed_edge_key(e.w, e.id)
    };
    let parts: Vec<WorkMeter> = pool::map_collect(p, 1, |t| {
        let r = msf_primitives::block_range(edges.len(), p, t);
        let mut meter = WorkMeter::new();
        // Slot initialization, amortized over the blocks.
        meter.mem((n / p) as u64 + 1);
        for i in r {
            let e = &edges[i];
            // Two atomic RMWs per edge (plus rare retry reloads).
            meter.mem(2);
            slots.write_min_by(e.u as usize, i as u64, key);
            slots.write_min_by(e.v as usize, i as u64, key);
        }
        meter
    });
    for (t, m) in parts.into_iter().enumerate() {
        meters[t] = meters[t] + m;
    }
    slots
}

/// Sort + dedup a batch of chosen edge ids (both endpoints of a mutual pair
/// pick the same edge) and append them to the output forest.
pub(crate) fn emit_unique(out: &mut Vec<u32>, mut chosen: Vec<u32>) {
    chosen.sort_unstable();
    chosen.dedup();
    out.extend_from_slice(&chosen);
}

/// Group items by their labels with the shared counting sort over `p` blocks:
/// returns `(starts, order)` where `order[starts[s]..starts[s+1]]` lists the
/// items labeled `s`, ascending.
pub(crate) fn group_by_label(labels: &[u32], k: usize, p: usize) -> (Vec<usize>, Vec<u32>) {
    let order: Vec<AtomicU32> = csr::zeroed_slots(labels.len());
    let starts = csr::build_rows(
        k,
        labels.len(),
        p,
        |v| [(labels[v], v as u32)],
        |pos, v| order[pos].store(v, Ordering::Relaxed),
    );
    (
        starts,
        order.into_iter().map(AtomicU32::into_inner).collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connect_components_pairs_and_chains() {
        // 0<->1, 2->1, 3<->4.
        let to = vec![1u32, 0, 1, 4, 3];
        let mut meters = vec![WorkMeter::new(); 2];
        let (labels, k) = connect_components(to, 2, &mut meters);
        assert_eq!(k, 2);
        assert_eq!(labels, vec![0, 0, 0, 1, 1]);
        assert!(meters[0].cost() > 0);
    }

    #[test]
    fn relabel_filters_self_loops() {
        let edges = vec![
            Edge::new(0, 1, 1.0, 0),
            Edge::new(1, 2, 2.0, 1),
            Edge::new(2, 3, 3.0, 2),
        ];
        let labels = vec![0, 0, 1, 1];
        let mut meters = vec![WorkMeter::new(); 2];
        let out = relabel_and_filter(&edges, &labels, 2, &mut meters);
        assert_eq!(out.len(), 1);
        assert_eq!((out[0].u, out[0].v, out[0].id), (0, 1, 1));
    }

    #[test]
    fn sort_and_dedup_keeps_minimum_of_group() {
        let edges = vec![
            Edge::new(0, 1, 5.0, 0),
            Edge::new(0, 1, 2.0, 1),
            Edge::new(1, 0, 3.0, 2),
            Edge::new(0, 2, 1.0, 3),
        ];
        let mut meters = vec![WorkMeter::new(); 2];
        let out = sort_and_dedup(edges, 2, &mut meters);
        // Groups: (0,1) -> id1 (w=2 min), (0,2) -> id3, (1,0) -> id2.
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].id, 1);
        assert_eq!(out[1].id, 3);
        assert_eq!(out[2].id, 2);
    }

    #[test]
    fn segment_starts_and_find_min() {
        let edges = vec![
            Edge::new(0, 1, 5.0, 0),
            Edge::new(0, 2, 2.0, 1),
            Edge::new(2, 0, 2.0, 1),
            Edge::new(2, 1, 9.0, 2),
        ];
        let seg = segment_starts(&edges, 3, 2);
        assert_eq!(seg, vec![0, 2, 2, 4]);
        let mut meters = vec![WorkMeter::new(); 2];
        let mins = segmented_find_min(&edges, &seg, 2, &mut meters);
        assert_eq!(mins[0], 1); // w=2 edge
        assert_eq!(mins[1], u32::MAX); // vertex 1 has no outgoing entries
        assert_eq!(mins[2], 2);
    }

    #[test]
    fn emit_unique_dedups() {
        let mut out = vec![9u32];
        emit_unique(&mut out, vec![3, 1, 3, 2, 1]);
        assert_eq!(out, vec![9, 1, 2, 3]);
    }

    #[test]
    fn group_by_label_buckets() {
        let labels = vec![1u32, 0, 1, 2, 0];
        let (starts, order) = group_by_label(&labels, 3, 2);
        assert_eq!(starts, vec![0, 2, 4, 5]);
        assert_eq!(&order[0..2], &[1, 4]); // label 0
        assert_eq!(&order[2..4], &[0, 2]); // label 1
        assert_eq!(&order[4..5], &[3]); // label 2
    }
}
