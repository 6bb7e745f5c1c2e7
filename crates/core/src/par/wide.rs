//! Width-adaptive write-min Borůvka over the structure-of-arrays graphs —
//! the wide entry point whose hot recursion narrows itself to `u32`.
//!
//! Every in-memory compute kernel in this suite indexes vertices with
//! `u32`; the binary format and [`SoaEdgeList`] additionally make
//! \>4-billion-vertex graphs *representable* with `u64` ids. This module is
//! the bridge: [`msf_on_soa`] runs the lock-free write-min contraction
//! directly over either width, and — the adaptive part — **re-indexes the
//! recursion into the narrow representation the moment the live
//! supervertex count fits the `u32` id space** (checked after every
//! contraction round, so a wide input typically narrows after round one,
//! the paper's own observation that Borůvka's first round collapses most
//! of the graph). Narrowing halves endpoint bandwidth for every remaining
//! sweep.
//!
//! **Safety of the trigger** (DESIGN.md §15): contraction only ever shrinks
//! the supervertex count, labels are renumbered consecutively (`0..k`)
//! every round, and surviving edges carry their original input ids
//! untouched — so once `k ≤ 2³²` every future endpoint fits `u32` and the
//! conversion is exact. The narrowing write happens *inside* the round's
//! fused compact sweep (the `visit` closure simply emits `u32` endpoints
//! instead of `u64`), so it costs zero extra passes, and the modeled cost
//! — which counts memory *accesses*, not bytes — is identical whether the
//! round narrows or not. That identity is what the narrow≡wide
//! differential suite asserts: `MSF_NO_NARROW=1` (or [`with_no_narrow`])
//! keeps the recursion wide end to end and must reproduce the same forest
//! bit for bit at the same modeled cost; only the `kernel.fused_bytes_read`
//! byte counter — which *does* see widths — is allowed to differ.

use msf_graph::soa::SoaEdgeList;
use msf_graph::vertexid::VertexId;
use msf_primitives::atomic::{weight_order_bits, EMPTY};
use msf_primitives::cost::{Stopwatch, WorkMeter};
use msf_primitives::fused;
use rayon::prelude::*;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

use crate::par::common::{min_slots_here, PHASE_OVERHEAD};
use crate::stats::{StepKind, StepSpan};
use crate::MsfConfig;

/// Below this many surviving edges the recursion solves sequentially
/// (matches the narrow core's base-case philosophy).
const BASE_CASE_EDGES: usize = 256;

/// Mode override: 0 = follow `MSF_NO_NARROW`, 1 = force narrowing on,
/// 2 = force narrowing off. Only [`with_no_narrow`] writes it.
static FORCE_MODE: AtomicU8 = AtomicU8::new(0);

fn env_no_narrow() -> bool {
    static ENV: OnceLock<bool> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("MSF_NO_NARROW")
            .map(|v| !v.is_empty() && v != "0")
            .unwrap_or(false)
    })
}

/// Whether the recursion must stay at the input width (`MSF_NO_NARROW=1`
/// or a [`with_no_narrow`] scope) — the differential-testing lever.
#[inline]
pub fn no_narrow() -> bool {
    match FORCE_MODE.load(Ordering::Relaxed) {
        1 => false,
        2 => true,
        _ => env_no_narrow(),
    }
}

/// Run `f` with narrowing forced on (`false`) or off (`true`), restoring
/// the previous override afterwards. Process global, like
/// [`fused::with_unfused`]; both settings compute the identical forest, so
/// a concurrent observer of a flipped mode still gets exact results.
pub fn with_no_narrow<R>(on: bool, f: impl FnOnce() -> R) -> R {
    let prev = FORCE_MODE.swap(if on { 2 } else { 1 }, Ordering::Relaxed);
    let r = f();
    FORCE_MODE.store(prev, Ordering::Relaxed);
    r
}

/// The result of a width-adaptive run. Mirrors [`crate::MsfResult`] but
/// with `u64` edge indices and component counts, since the input may not
/// fit the narrow id space at all.
#[derive(Debug, Clone)]
pub struct WideMsfResult {
    /// Input edge indices in the forest, sorted ascending.
    pub edges: Vec<u64>,
    /// Sum of selected edge weights.
    pub total_weight: f64,
    /// Trees in the forest (isolated vertices included).
    pub components: u64,
    /// Accumulated modeled cost — a pure function of the round structure
    /// and `(m, n, p)`, *independent of the representation width*, which
    /// is what makes the narrow≡wide differential exact.
    pub modeled_cost: u64,
    /// Whether the recursion re-indexed itself into `u32` at some round.
    pub narrowed: bool,
    /// Wall-clock seconds.
    pub total_seconds: f64,
}

/// One in-flight contraction edge at width `V`. The id is always `u64`:
/// original input indices never shrink, only endpoints do.
#[derive(Debug, Clone, Copy)]
struct WEdge<V: VertexId> {
    u: V,
    v: V,
    w: f64,
    id: u64,
}

/// The exact `(weight, id)` total order as one `u128`: order-isomorphic
/// weight bits above, the full 64-bit original id below — the wide
/// analogue of [`msf_primitives::atomic::packed_edge_key`].
#[inline]
fn wide_key(w: f64, id: u64) -> u128 {
    (u128::from(weight_order_bits(w)) << 64) | u128::from(id)
}

/// The round's working edges: round zero borrows the input arrays (no
/// setup copy — the first race and compact read the SoA directly), every
/// later round owns its compacted survivors.
enum Work<'a, V: VertexId> {
    Soa(&'a [V], &'a [V], &'a [f64]),
    Owned(Vec<WEdge<V>>),
}

impl<V: VertexId> Work<'_, V> {
    #[inline]
    fn len(&self) -> usize {
        match self {
            Work::Soa(u, _, _) => u.len(),
            Work::Owned(e) => e.len(),
        }
    }

    #[inline]
    fn get(&self, i: usize) -> WEdge<V> {
        match self {
            Work::Soa(u, v, w) => WEdge {
                u: u[i],
                v: v[i],
                w: w[i],
                id: i as u64,
            },
            Work::Owned(e) => e[i],
        }
    }
}

/// Compute the MSF of a structure-of-arrays graph at either vertex width,
/// narrowing the recursion to `u32` as soon as the live supervertex count
/// permits (unless [`no_narrow`]). The vertex count must be addressable
/// (`n` vertices of per-vertex state are allocated).
pub fn msf_on_soa<V: VertexId>(g: &SoaEdgeList<V>, cfg: &MsfConfig) -> WideMsfResult {
    let watch = Stopwatch::start();
    let p = cfg.threads.max(1);
    let n = g.num_vertices();
    let (us, vs, ws) = g.arrays();
    let mut out: Vec<u64> = Vec::new();
    let mut cost = 0u64;
    let narrowed = solve(Work::Soa(us, vs, ws), n, p, &mut out, &mut cost);
    out.sort_unstable();
    let total_weight = out.iter().map(|&i| ws[i as usize]).sum();
    WideMsfResult {
        components: n - out.len() as u64,
        total_weight,
        edges: out,
        modeled_cost: cost,
        narrowed,
        total_seconds: watch.seconds(),
    }
}

/// The contraction loop at width `V`. Returns whether any round narrowed.
fn solve<V: VertexId>(
    work: Work<'_, V>,
    n: u64,
    p: usize,
    out: &mut Vec<u64>,
    cost: &mut u64,
) -> bool {
    let mut work = work;
    let mut n = n;
    let mut round = 0usize;
    loop {
        let m = work.len();
        if m == 0 || n <= 1 {
            return false;
        }
        if m <= BASE_CASE_EDGES {
            *cost += base_case(&work, round, out);
            return false;
        }

        // Find-min: the per-endpoint write-min race under the wide packed
        // key, then one harvest read per vertex.
        let step = StepSpan::begin(StepKind::FindMin, round);
        let mut meters = vec![WorkMeter::new(); p];
        let n_idx = usize::try_from(n).expect("vertex state must be addressable");
        let slots = min_slots_here(n_idx);
        let key = |x: u64| {
            let e = work.get(x as usize);
            wide_key(e.w, e.id)
        };
        (0..p).into_par_iter().for_each(|t| {
            for i in msf_primitives::block_range(m, p, t) {
                let e = work.get(i);
                slots.write_min_by(e.u.to_index(), i as u64, key);
                slots.write_min_by(e.v.to_index(), i as u64, key);
            }
        });
        for (t, meter) in meters.iter_mut().enumerate() {
            meter.mem(n / p as u64 + 1);
            meter.mem(2 * msf_primitives::block_range(m, p, t).len() as u64);
            meter.mem(msf_primitives::block_range(n_idx, p, t).len() as u64); // harvest
        }
        let parts: Vec<(Vec<u64>, Vec<u64>)> = (0..p)
            .into_par_iter()
            .map(|t| {
                let r = msf_primitives::block_range(n_idx, p, t);
                let mut to = Vec::with_capacity(r.len());
                let mut chosen = Vec::new();
                for v in r {
                    let s = slots.get(v);
                    if s == EMPTY {
                        to.push(v as u64);
                    } else {
                        let e = work.get(s as usize);
                        to.push(e.other(v as u64));
                        chosen.push(e.id);
                    }
                }
                (to, chosen)
            })
            .collect();
        let mut to: Vec<u64> = Vec::with_capacity(n_idx);
        let mut chosen: Vec<u64> = Vec::new();
        for (t_part, c_part) in parts {
            to.extend_from_slice(&t_part);
            chosen.extend_from_slice(&c_part);
        }
        chosen.sort_unstable();
        chosen.dedup();
        out.extend_from_slice(&chosen);
        *cost += step.finish(&meters, PHASE_OVERHEAD).modeled_max;

        // Connect: break 2-cycles, pointer jump, renumber consecutively.
        let step = StepSpan::begin(StepKind::Connect, round);
        let mut meters = vec![WorkMeter::new(); p];
        let log_n = (64 - n.max(2).leading_zeros()) as u64;
        let per = (n * log_n) / p as u64;
        for meter in meters.iter_mut() {
            meter.mem(per);
            meter.ops(per);
        }
        let (labels, k) = connect_wide(to);
        *cost += step.finish(&meters, PHASE_OVERHEAD).modeled_max;

        // Compact: the fused relabel+filter sweep. When the surviving
        // supervertex count fits u32 (and narrowing is allowed), the sweep
        // emits narrow endpoints directly — same access count, half the
        // endpoint bytes — and the loop continues at the narrow width.
        let step = StepSpan::begin(StepKind::Compact, round);
        let mut meters = vec![WorkMeter::new(); p];
        for (t, meter) in meters.iter_mut().enumerate() {
            meter.mem(2 * msf_primitives::block_range(m, p, t).len() as u64);
        }
        let narrow = V::WIDE && !no_narrow() && u128::from(k) <= <u32 as VertexId>::MAX_COUNT;
        if narrow {
            let next: Vec<WEdge<u32>> = compact_into(&work, &labels, p);
            *cost += step.finish(&meters, PHASE_OVERHEAD).modeled_max;
            solve(Work::Owned(next), k, p, out, cost);
            return true;
        }
        let next: Vec<WEdge<V>> = compact_into(&work, &labels, p);
        *cost += step.finish(&meters, PHASE_OVERHEAD).modeled_max;
        work = Work::Owned(next);
        n = k;
        round += 1;
    }
}

impl<V: VertexId> WEdge<V> {
    #[inline]
    fn other(&self, x: u64) -> u64 {
        let (u, v) = (self.u.to_u64(), self.v.to_u64());
        u ^ v ^ x
    }
}

/// Relabel through `labels`, drop self-loops, and write survivors at width
/// `W` in one fused sweep (multi-pass staging under `MSF_UNFUSED=1`; same
/// survivors, same order). This is where narrowing physically happens:
/// `W = u32` while `V = u64` makes the compact write the narrow
/// representation with zero extra passes.
fn compact_into<V: VertexId, W: VertexId>(
    work: &Work<'_, V>,
    labels: &[u64],
    p: usize,
) -> Vec<WEdge<W>> {
    let m = work.len();
    let visit = |i: usize| {
        let e = work.get(i);
        let (lu, lv) = (labels[e.u.to_index()], labels[e.v.to_index()]);
        (lu != lv).then(|| WEdge {
            u: W::from_u64(lu),
            v: W::from_u64(lv),
            w: e.w,
            id: e.id,
        })
    };
    if fused::unfused() {
        let parts: Vec<Vec<WEdge<W>>> = (0..p)
            .into_par_iter()
            .map(|t| {
                let r = msf_primitives::block_range(m, p, t);
                let mut part = Vec::with_capacity(r.len());
                for i in r {
                    if let Some(e) = visit(i) {
                        part.push(e);
                    }
                }
                part
            })
            .collect();
        let mut next = Vec::with_capacity(m);
        for part in parts {
            next.extend_from_slice(&part);
        }
        return next;
    }
    let fill = WEdge {
        u: W::from_u64(0),
        v: W::from_u64(0),
        w: 0.0,
        id: 0,
    };
    let next = fused::filter_compact_indexed(m, p, fill, visit);
    // Bytes, not accesses: the read side is width V (two endpoints, weight,
    // id), the write side width W — this counter is the one place where
    // narrowing is *visible*, while the modeled cost stays width-pure. The
    // two u64 label-table reads per edge are side-band traffic on top.
    fused::record_traffic(
        (m * (2 * V::WIDTH + 16) + next.len() * (2 * W::WIDTH + 16) + 16 * m) as u64,
    );
    next
}

/// Resolve the find-min pseudo-forest and renumber roots consecutively —
/// the width-generic analogue of the narrow core's connect step (2-cycle
/// break at the smaller endpoint, parent doubling, exclusive-scan
/// renumbering). Labels are deterministic: they depend only on the
/// component structure, never on thread schedule.
fn connect_wide(mut parent: Vec<u64>) -> (Vec<u64>, u64) {
    let n = parent.len();
    for v in 0..n {
        let p = parent[v] as usize;
        if parent[p] as usize == v && p > v {
            parent[v] = v as u64;
        }
    }
    loop {
        let mut any = false;
        for v in 0..n {
            let g = parent[parent[v] as usize];
            if g != parent[v] {
                parent[v] = g;
                any = true;
            }
        }
        if !any {
            break;
        }
    }
    let mut is_root = vec![0usize; n];
    for (v, &r) in parent.iter().enumerate() {
        if r as usize == v {
            is_root[v] = 1;
        }
    }
    let k = msf_primitives::prefix::exclusive_scan(&mut is_root);
    let labels: Vec<u64> = parent.iter().map(|&r| is_root[r as usize] as u64).collect();
    (labels, k as u64)
}

/// Sequential Kruskal over the surviving edges: sort under the exact
/// `(weight, original id)` order, unite through a plain path-halving DSU,
/// emit the original ids that linked. Endpoints are densified first so the
/// DSU is O(live vertices), not O(original n).
fn base_case<V: VertexId>(work: &Work<'_, V>, round: usize, out: &mut Vec<u64>) -> u64 {
    let m = work.len();
    let step = StepSpan::begin(StepKind::BaseCase, round);
    let mut order: Vec<u32> = (0..m as u32).collect();
    order.sort_unstable_by_key(|&i| {
        let e = work.get(i as usize);
        wide_key(e.w, e.id)
    });
    let mut dense: std::collections::HashMap<u64, u32> = std::collections::HashMap::new();
    let mut parent: Vec<u32> = Vec::new();
    let mut dense_id = |x: u64, parent: &mut Vec<u32>| -> u32 {
        *dense.entry(x).or_insert_with(|| {
            let id = parent.len() as u32;
            parent.push(id);
            id
        })
    };
    let find = |parent: &mut Vec<u32>, mut x: u32| -> u32 {
        while parent[x as usize] != x {
            let g = parent[parent[x as usize] as usize];
            parent[x as usize] = g;
            x = g;
        }
        x
    };
    for &i in &order {
        let e = work.get(i as usize);
        let (du, dv) = (
            dense_id(e.u.to_u64(), &mut parent),
            dense_id(e.v.to_u64(), &mut parent),
        );
        let (ru, rv) = (find(&mut parent, du), find(&mut parent, dv));
        if ru != rv {
            parent[ru.max(rv) as usize] = ru.min(rv);
            out.push(e.id);
        }
    }
    let mut meter = WorkMeter::new();
    let log_m = (usize::BITS - m.max(2).leading_zeros()) as u64;
    meter.mem(2 * m as u64);
    meter.ops(m as u64 * log_m);
    step.finish(&[meter], PHASE_OVERHEAD).modeled_max
}

#[cfg(test)]
mod tests {
    use super::*;
    use msf_graph::generators::{random_graph, GeneratorConfig};

    fn cfg(p: usize) -> MsfConfig {
        MsfConfig::with_threads(p)
    }

    /// Held by the tests that set or rely on the process-global narrowing
    /// mode, so one test's `with_no_narrow` scope never overlaps another
    /// test's default-mode run.
    static NARROW_MODE: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn narrow_mode() -> std::sync::MutexGuard<'static, ()> {
        NARROW_MODE.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn expect_ids(g: &msf_graph::EdgeList) -> Vec<u64> {
        crate::seq::kruskal::msf(g)
            .edges
            .iter()
            .map(|&i| u64::from(i))
            .collect()
    }

    #[test]
    fn narrow_entry_matches_kruskal() {
        for seed in 0..3u64 {
            let g = random_graph(&GeneratorConfig::with_seed(seed), 500, 3000);
            let soa = SoaEdgeList::<u32>::from_edge_list(&g).unwrap();
            for p in [1, 3, 8] {
                let r = msf_on_soa(&soa, &cfg(p));
                assert_eq!(r.edges, expect_ids(&g), "seed {seed} p {p}");
                assert!(!r.narrowed, "u32 entry must never re-narrow");
            }
        }
    }

    #[test]
    fn wide_entry_narrows_and_matches() {
        let _mode = narrow_mode();
        let g = random_graph(&GeneratorConfig::with_seed(5), 4000, 16000);
        let soa = SoaEdgeList::<u64>::from_edge_list(&g).unwrap();
        let r = msf_on_soa(&soa, &cfg(4));
        assert_eq!(r.edges, expect_ids(&g));
        assert!(r.narrowed, "a u64 input this small must narrow");
    }

    #[test]
    fn narrowed_and_wide_runs_are_bit_identical() {
        let _mode = narrow_mode();
        for seed in [2u64, 9] {
            let g = random_graph(&GeneratorConfig::with_seed(seed), 3000, 12000);
            let soa = SoaEdgeList::<u64>::from_edge_list(&g).unwrap();
            for p in [1, 2, 3, 7, 8] {
                let narrowed = with_no_narrow(false, || msf_on_soa(&soa, &cfg(p)));
                let wide = with_no_narrow(true, || msf_on_soa(&soa, &cfg(p)));
                assert!(narrowed.narrowed && !wide.narrowed);
                assert_eq!(narrowed.edges, wide.edges, "seed {seed} p {p}");
                assert_eq!(
                    narrowed.total_weight.to_bits(),
                    wide.total_weight.to_bits(),
                    "seed {seed} p {p}"
                );
                assert_eq!(
                    narrowed.modeled_cost, wide.modeled_cost,
                    "seed {seed} p {p}: modeled cost must be width-pure"
                );
            }
        }
    }

    #[test]
    fn fused_and_unfused_agree_at_both_widths() {
        let g = random_graph(&GeneratorConfig::with_seed(13), 2000, 9000);
        let soa = SoaEdgeList::<u64>::from_edge_list(&g).unwrap();
        let fused_run = fused::with_unfused(false, || msf_on_soa(&soa, &cfg(3)));
        let plain_run = fused::with_unfused(true, || msf_on_soa(&soa, &cfg(3)));
        assert_eq!(fused_run.edges, plain_run.edges);
        assert_eq!(fused_run.modeled_cost, plain_run.modeled_cost);
    }

    #[test]
    fn disconnected_components_counted() {
        let a = random_graph(&GeneratorConfig::with_seed(1), 200, 800);
        let mut triples: Vec<(u32, u32, f64)> = a.edges().iter().map(|e| (e.u, e.v, e.w)).collect();
        triples.extend(
            random_graph(&GeneratorConfig::with_seed(2), 200, 800)
                .edges()
                .iter()
                .map(|e| (e.u + 200, e.v + 200, e.w)),
        );
        let g = msf_graph::EdgeList::from_triples(400, triples);
        let soa = SoaEdgeList::<u64>::from_edge_list(&g).unwrap();
        let r = msf_on_soa(&soa, &cfg(2));
        let expect = crate::seq::kruskal::msf(&g);
        assert_eq!(r.edges, expect_ids(&g));
        assert_eq!(r.components, u64::from(expect.components));
    }

    #[test]
    fn sequential_escape_hatch_matches() {
        let g = random_graph(&GeneratorConfig::with_seed(17), 800, 4000);
        let soa = SoaEdgeList::<u64>::from_edge_list(&g).unwrap();
        msf_primitives::pool::with_sequential(|| {
            assert_eq!(msf_on_soa(&soa, &cfg(4)).edges, expect_ids(&g));
        });
    }
}
