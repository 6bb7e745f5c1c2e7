//! Bor-WriteMin: filter-Borůvka with per-endpoint atomic write-min races
//! (the parlaylib `boruvka.h` shape).
//!
//! The paper's §2 variants all pay a sort- or list-surgery-based
//! compact-graph step every iteration to keep find-min cheap. This
//! contender drops that bargain entirely:
//!
//! 1. **find-min** is a lock-free race: every surviving edge lowers both
//!    endpoints' [`MinSlots`] cells to its own index under the packed
//!    `(weight bits, edge id)` key. No segments, no sort — one linear pass
//!    over the edge array, O(m) atomic RMWs.
//! 2. **connect** star-contracts the chosen pseudo-forest by the suite's
//!    deterministic rule (mutual pairs broken at the smaller index, pointer
//!    jumping, consecutive relabel) — the "deterministic rule" alternative
//!    to coin-flipping, chosen so the contraction is schedule-independent.
//! 3. **compact** merely relabels endpoints and filters self-loops,
//!    *keeping multi-edges* — the "recursion on the filtered edge list" of
//!    filter-Borůvka. Each round is O(m_i) with no reordering, so the edge
//!    array stays in original-id order forever (the property the base case
//!    leans on).
//!
//! **Fused rounds** read each surviving edge once per round instead of
//! twice-plus:
//!
//! * round 0 races directly over the input edge array — [`EdgeList`]
//!   admits no self-loops, so a setup copy of the undirected list would be
//!   pure bandwidth and is never materialized;
//! * each compact sweep relabels, filters, writes the compacted survivor —
//!   **and runs the next round's write-min race on it in the same read**.
//!   The race value is the edge's index into the *pre-contraction* array
//!   (immutable during the sweep, so the key closure never aliases the
//!   output being staged); the next find-min merely harvests the quiescent
//!   slots, translating winner endpoints through that round's labels.
//!
//! Every modeled charge is a pure function of `(m, n, p)`: the formulas a
//! standalone race pass and a separate relabel pass would charge,
//! attributed to the steps they serve. See DESIGN.md §15 for the dataflow.
//!
//! The recursion bottoms out on a sequential Kruskal over the contracted
//! multigraph once few edges survive, amortizing the long tail of tiny
//! rounds. Because every pass preserves relative edge order and original
//! ids ride along, position order in the base problem equals original-id
//! order and the `(weight, id)` tie-break is preserved end to end: the
//! output is the suite-wide unique forest, bit-identical at every thread
//! count and under `MSF_SEQUENTIAL`.
//!
//! [`first_round`] runs the first round alone, unfused, for the daemon's
//! round cache: the same race, harvest and connect, then one
//! relabel-and-filter sweep whose survivors become a contracted
//! [`EdgeList`] with an id map (`crate::job`).

use msf_graph::{Edge, EdgeList};
use msf_primitives::atomic::{packed_edge_key, MinSlots, EMPTY};
use msf_primitives::cost::{Stopwatch, WorkMeter};
use msf_primitives::obs;
use msf_primitives::pool;
use msf_primitives::prefix::exclusive_scan;

use crate::job::BoruvkaRound;
use crate::par::common::{
    connect_components, emit_unique, relabel_and_filter, write_min_race, PHASE_OVERHEAD,
};
use crate::stats::{IterationStats, RunStats, StepKind, StepSpan};
use crate::{MsfConfig, MsfResult};

/// Below this many surviving edges the races stop paying for their phase
/// overhead and a sequential Kruskal finishes the contracted multigraph.
const BASE_CASE_EDGES: usize = 256;

/// Fewest vertices or survivors one [`first_round`] task relabels or
/// gathers ids for.
const ID_GRAIN: usize = 1 << 14;

/// This round's edge array: round 0 reads the input graph in place (it is
/// never copied); later rounds own their filtered list.
enum Round<'a> {
    Input(&'a [Edge]),
    Owned(Vec<Edge>),
}

impl Round<'_> {
    #[inline]
    fn edges(&self) -> &[Edge] {
        match self {
            Round::Input(s) => s,
            Round::Owned(v) => v,
        }
    }
}

/// Compute the MSF with Bor-WriteMin: one read of each surviving edge per
/// round.
pub fn msf(g: &EdgeList, cfg: &MsfConfig) -> MsfResult {
    let p = cfg.threads.max(1);
    let watch = Stopwatch::start();
    let mut stats = RunStats::new("Bor-WriteMin", p);

    // Setup. The input list already carries no self-loops, so round 0
    // races over it in place; setup only charges the modeled cost of one
    // read per edge, split over the `p` blocks.
    let setup = StepSpan::begin(StepKind::Setup, 0);
    let mut setup_meters = vec![WorkMeter::new(); p];
    let all = g.edges();
    for (t, m) in setup_meters.iter_mut().enumerate() {
        m.mem(msf_primitives::block_range(all.len(), p, t).len() as u64);
    }
    stats.add_flat_cost(setup.finish(&setup_meters, PHASE_OVERHEAD).modeled_max);

    let mut n = g.num_vertices();
    let mut out: Vec<u32> = Vec::with_capacity(n.saturating_sub(1));

    let mut cur = Round::Input(all);
    // The race already run over `cur` by the previous compact sweep: the
    // quiescent slots, the pre-contraction array their values index, and
    // the labels translating that array's endpoints into `cur`'s space.
    let mut pending: Option<(MinSlots, Round, Vec<u32>)> = None;

    while !cur.edges().is_empty() {
        if cur.edges().len() <= BASE_CASE_EDGES {
            base_case(n, cur.edges(), &mut out, &mut stats);
            break;
        }
        let m_cur = cur.edges().len();
        let mut it = IterationStats {
            vertices: n,
            directed_edges: 2 * m_cur,
            ..Default::default()
        };
        let _iteration = obs::span(
            obs::SpanKind::Iteration,
            stats.iterations.len() as u64,
            n as u64,
        );

        // Step 1: find-min. Round 0 races here; later rounds raced during
        // the previous compact sweep and only harvest the winners, charging
        // the standalone race's exact formula (slot init amortized over the
        // blocks, two atomic RMWs per surviving edge) where the RMWs were
        // actually issued on this step's behalf.
        let step = StepSpan::begin(StepKind::FindMin, stats.iterations.len());
        let mut fm_meters = vec![WorkMeter::new(); p];
        let (chosen, to) = match pending.take() {
            None => {
                let slots = write_min_race(cur.edges(), n, p, &mut fm_meters);
                harvest(cur.edges(), &slots, n, p, &mut fm_meters, |e, v| {
                    (e.id, e.other(v))
                })
            }
            Some((slots, prev, prev_labels)) => {
                for (t, m) in fm_meters.iter_mut().enumerate() {
                    m.mem(
                        (n / p) as u64
                            + 1
                            + 2 * msf_primitives::block_range(m_cur, p, t).len() as u64,
                    );
                }
                harvest(prev.edges(), &slots, n, p, &mut fm_meters, |e, v| {
                    let (lu, lv) = (prev_labels[e.u as usize], prev_labels[e.v as usize]);
                    (e.id, if lu == v { lv } else { lu })
                })
            }
        };
        emit_unique(&mut out, chosen);
        it.find_min = step.finish(&fm_meters, PHASE_OVERHEAD);

        // Step 2: star-contract the pseudo-forest (deterministic rule:
        // mutual pairs break at the smaller index, then pointer jumping).
        let step = StepSpan::begin(StepKind::Connect, stats.iterations.len());
        let mut cc_meters = vec![WorkMeter::new(); p];
        let (labels, k) = connect_components(to, p, &mut cc_meters);
        it.connect = step.finish(&cc_meters, PHASE_OVERHEAD);

        // Step 3: the fused compact sweep — relabel, drop self-loops, write
        // the compacted survivor, and run the NEXT round's write-min race,
        // all in one read of each edge. The race values index the immutable
        // `cur` array, so the key closure never touches the output being
        // staged; the RMWs are attributed to the next find-min (above),
        // this step charging only the relabel's two label reads per edge.
        let step = StepSpan::begin(StepKind::Compact, stats.iterations.len());
        let mut cg_meters = vec![WorkMeter::new(); p];
        for (t, m) in cg_meters.iter_mut().enumerate() {
            m.mem(2 * msf_primitives::block_range(m_cur, p, t).len() as u64);
        }
        let slots_next = crate::par::common::min_slots_here(k as usize);
        let next = {
            let cur_edges = cur.edges();
            let key = |i: u64| {
                let e = &cur_edges[i as usize];
                packed_edge_key(e.w, e.id)
            };
            msf_primitives::fused::filter_relabel_compact(cur_edges, p, |i, e| {
                let (lu, lv) = (labels[e.u as usize], labels[e.v as usize]);
                if lu == lv {
                    return None;
                }
                slots_next.write_min_by(lu as usize, i as u64, key);
                slots_next.write_min_by(lv as usize, i as u64, key);
                Some(Edge::new(lu, lv, e.w, e.id))
            })
        };
        msf_primitives::fused::record_traffic(8 * m_cur as u64);
        it.compact = step.finish(&cg_meters, PHASE_OVERHEAD);

        pending = Some((slots_next, cur, labels));
        cur = Round::Owned(next);
        n = k as usize;

        stats.push_iteration(it);
        if n <= 1 {
            break;
        }
    }

    stats.total_seconds = watch.seconds();
    MsfResult::from_ids(g, out, stats)
}

/// The first round of [`msf`] over `g` on `p` blocks, kept as a cacheable
/// [`BoruvkaRound`]: the write-min race, the harvest, connect, and a
/// relabel-and-filter sweep. The survivors keep their input order, so their
/// fresh ids `0..m'` are monotone in the input ids. The contraction's
/// vertices are the round's components in root order, less the input
/// vertices that have no edge. The round is the same at every `p`.
pub fn first_round(g: &EdgeList, p: usize) -> BoruvkaRound {
    let p = p.max(1);
    let (n, edges) = (g.num_vertices(), g.edges());
    let mut meters = vec![WorkMeter::new(); p];
    let slots = write_min_race(edges, n, p, &mut meters);
    let (chosen, to) = harvest(edges, &slots, n, p, &mut meters, |e, v| (e.id, e.other(v)));
    let mut forest = Vec::new();
    emit_unique(&mut forest, chosen);
    // Only a vertex with no edge hooks to itself, and it stays alone.
    let bare: Vec<usize> = (0..n).filter(|&v| to[v] as usize == v).collect();
    let (labels, k) = connect_components(to, p, &mut meters);
    let mut live = vec![1usize; k as usize];
    for &v in &bare {
        live[labels[v] as usize] = 0;
    }
    let k = exclusive_scan(&mut live);
    let labels = pool::map_collect(n, ID_GRAIN, |v| live[labels[v] as usize] as u32);
    let kept = relabel_and_filter(edges, &labels, p, &mut meters);
    let id_map = pool::map_collect(kept.len(), ID_GRAIN, |i| kept[i].id);
    let contracted = EdgeList::try_from_edges(k, kept)
        .unwrap_or_else(|e| panic!("a contraction of a valid graph is valid: {e}"));
    BoruvkaRound {
        forest,
        contracted,
        id_map,
        orig_vertices: n,
        orig_edges: edges.len(),
    }
}

/// Walk the quiescent slots in `p` metered blocks (one read per vertex).
/// `edges` is the array the slot values index; `decode(edge, v)` maps a
/// vertex's winning edge to `(forest id, hook target)` in `v`'s own vertex
/// space. Vertices with empty slots hook to themselves.
fn harvest(
    edges: &[Edge],
    slots: &MinSlots,
    n: usize,
    p: usize,
    meters: &mut [WorkMeter],
    decode: impl Fn(&Edge, u32) -> (u32, u32) + Sync,
) -> (Vec<u32>, Vec<u32>) {
    let parts: Vec<(Vec<u32>, Vec<u32>, WorkMeter)> = pool::map_collect(p, 1, |t| {
        let r = msf_primitives::block_range(n, p, t);
        let mut meter = WorkMeter::new();
        let mut chosen = Vec::new();
        let mut to = Vec::with_capacity(r.len());
        for v in r {
            meter.mem(1);
            let s = slots.get(v);
            if s == EMPTY {
                to.push(v as u32);
            } else {
                let (id, target) = decode(&edges[s as usize], v as u32);
                chosen.push(id);
                to.push(target);
            }
        }
        (chosen, to, meter)
    });
    let mut chosen = Vec::new();
    let mut to = Vec::with_capacity(n);
    for (t, (c, t_part, m)) in parts.into_iter().enumerate() {
        meters[t] = meters[t] + m;
        chosen.extend_from_slice(&c);
        to.extend_from_slice(&t_part);
    }
    (chosen, to)
}

/// Sequential Kruskal over the contracted multigraph. Relative edge order
/// equals original-id order (every pass is order-preserving), so the
/// remapped position ids tie-break exactly like the originals.
fn base_case(n: usize, edges: &[Edge], out: &mut Vec<u32>, stats: &mut RunStats) {
    let step = StepSpan::begin(StepKind::BaseCase, stats.iterations.len());
    let ids: Vec<u32> = edges.iter().map(|e| e.id).collect();
    let sub = EdgeList::from_triples(n, edges.iter().map(|e| (e.u, e.v, e.w)).collect::<Vec<_>>());
    let r = crate::seq::kruskal::msf(&sub);
    out.extend(r.edges.iter().map(|&sid| ids[sid as usize]));
    let m = edges.len() as u64;
    let log_m = (u64::BITS - m.max(2).leading_zeros()) as u64;
    let mut meter = WorkMeter::new();
    meter.mem(2 * m);
    meter.ops(m * log_m);
    stats.add_flat_cost(step.finish(&[meter], PHASE_OVERHEAD).modeled_max);
}

#[cfg(test)]
mod tests {
    use super::*;
    use msf_graph::generators::{mesh2d, random_graph, GeneratorConfig};

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
    fn exercises_the_race_rounds_past_the_base_case() {
        // Big enough that several write-min rounds run before the Kruskal
        // tail takes over.
        let g = random_graph(&GeneratorConfig::with_seed(7), 4_000, 16_000);
        let expect = crate::seq::kruskal::msf(&g);
        let r = msf(&g, &cfg(3));
        assert_eq!(r.edges, expect.edges);
        assert!(!r.stats.iterations.is_empty());
        assert_eq!(r.stats.iterations[0].vertices, 4_000);
        assert_eq!(r.stats.iterations[0].directed_edges, 32_000);
        // The filtered list shrinks strictly (chosen edges self-loop away).
        for w in r.stats.iterations.windows(2) {
            assert!(w[1].directed_edges < w[0].directed_edges);
        }
        assert!(r.stats.modeled_cost > 0);
    }

    #[test]
    fn bit_identical_across_thread_counts() {
        let g = mesh2d(&GeneratorConfig::with_seed(3), 70, 70);
        let base = msf(&g, &cfg(1));
        for p in [2, 3, 7, 8] {
            let r = msf(&g, &cfg(p));
            assert_eq!(r.edges, base.edges, "p {p}");
            assert_eq!(r.total_weight.to_bits(), base.total_weight.to_bits());
        }
    }

    #[test]
    fn ties_and_negative_weights_stay_deterministic() {
        // Equal, negative, and ±0.0 weights: the packed key must break
        // every tie by id, matching Kruskal.
        let mut triples = Vec::new();
        let n = 60u32;
        for u in 0..n {
            for v in u + 1..n {
                let w = match (u + v) % 4 {
                    0 => 1.0,
                    1 => -2.5,
                    2 => 0.0,
                    _ => -0.0,
                };
                if (u * v) % 3 != 1 {
                    triples.push((u, v, w));
                }
            }
        }
        let g = EdgeList::from_triples(n as usize, triples);
        let expect = crate::seq::kruskal::msf(&g);
        for p in [1, 2, 4] {
            assert_eq!(msf(&g, &cfg(p)).edges, expect.edges, "p {p}");
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
    fn empty_graph_short_circuits() {
        let g = EdgeList::from_triples(4, vec![]);
        let r = msf(&g, &cfg(2));
        assert!(r.edges.is_empty());
        assert_eq!(r.components, 4);
    }

    #[test]
    fn sequential_escape_hatch_is_bit_identical() {
        let g = random_graph(&GeneratorConfig::with_seed(11), 3_000, 12_000);
        let pooled = msf(&g, &cfg(4));
        let seq = msf_primitives::pool::with_sequential(|| msf(&g, &cfg(4)));
        assert_eq!(pooled.edges, seq.edges);
        assert_eq!(pooled.total_weight.to_bits(), seq.total_weight.to_bits());
    }
}
