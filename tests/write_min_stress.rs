//! Multi-thread contention stress for the lock-free substrate behind the
//! speed contenders: `atomic::MinSlots` (write-min races) and
//! `connectivity::concurrent::ConcurrentUnionFind` (CAS hooking).
//!
//! It also races MST-BC's CAS-once colour claims end to end.
//!
//! Three contracts are held here:
//!
//! * **Determinism under racing.** However the schedule interleaves, the
//!   quiescent slot values equal the sequential minimum, and the union-find
//!   partition equals the sequential union-find's over the same pairs (its
//!   hooked tags always forming a spanning forest of the united pairs).
//! * **Contention is observable.** The `atomic.write_min.cas_retry` and
//!   `unionfind.hook.cas_retry` registry counters must go nonzero when real
//!   threads actually race. A single round of racing is not *guaranteed* to
//!   lose a CAS (the scheduler may never preempt inside the read-CAS
//!   window, especially on few-core hosts), so the tests rerun the workload
//!   until a retry shows up, bounded by a generous cap.
//! * **The escape hatch stays exact.** The racers here are scoped threads
//!   this file spawns, so they still race under `MSF_SEQUENTIAL`: the
//!   primitives keep their CAS paths and the racing tests assert the same
//!   exact answers. The algorithms whose races run in the pool's loops run
//!   them on one thread there, and record exactly zero CAS retries.
//!
//! The metrics registry is process-global, so every test serializes on one
//! mutex and resets the registry before measuring.

use std::sync::Mutex;

use msf_primitives::atomic::{packed_edge_key, MinSlots, EMPTY};
use msf_primitives::connectivity::concurrent::ConcurrentUnionFind;
use msf_primitives::obs;
use msf_primitives::unionfind::UnionFind;

static METRICS_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    METRICS_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

const P: usize = 8;

/// Run `f(rank)` for every rank in `0..P`, each on a scoped thread of its
/// own, and return once all have finished. The racers are spawned here,
/// not taken from the pool, so they race under `MSF_SEQUENTIAL=1` too.
fn race(f: impl Fn(usize) + Sync) {
    std::thread::scope(|scope| {
        for rank in 0..P {
            let f = &f;
            scope.spawn(move || f(rank));
        }
    });
}

/// Read a registry counter, treating "never registered" as zero (lazy
/// counters only register on their first enabled increment).
fn counter(name: &str) -> u64 {
    obs::metrics::snapshot().counter(name).unwrap_or(0)
}

/// Rounds of re-racing before we give up waiting for a lost CAS. Each
/// round is millions of atomic ops; even a single-core host preempts
/// inside the read-CAS window well within this budget.
const MAX_ROUNDS: usize = 60;

/// xorshift64* — deterministic pseudo-random stream, no external RNG.
fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// One round of the slot race: `P` racers hammer one shared slot with the
/// same strictly descending value sequence, so whenever a rank is preempted
/// between its read and its CAS the slot moves underneath it. Returns the
/// quiescent slot value.
fn race_one_slot(iters: u64) -> u64 {
    let slots = MinSlots::new(1);
    race(|_| {
        for i in 0..iters {
            // BASE - i: every rank walks the same descending ramp.
            slots.write_min(0, u64::MAX - 1 - i);
        }
    });
    slots.get(0)
}

#[test]
fn racing_write_min_converges_to_the_sequential_min() {
    let _l = lock();
    obs::metrics::set_enabled(true);
    obs::metrics::reset_for_test();

    // Many slots, pseudo-random values: the quiescent state must equal the
    // per-slot sequential minimum no matter how the ranks interleave.
    const SLOTS: usize = 64;
    const ITERS: usize = 20_000;
    let slots = MinSlots::new(SLOTS);
    race(|rank| {
        let mut x = 0x9E3779B97F4A7C15u64.wrapping_mul(rank as u64 + 1);
        for _ in 0..ITERS {
            x = xorshift(x);
            let slot = (x >> 32) as usize % SLOTS;
            let v = x & 0x00FF_FFFF_FFFF_FFFF; // well below EMPTY
            slots.write_min(slot, v);
        }
    });
    // Recompute the expected minima sequentially from the same streams.
    let mut expect = vec![EMPTY; SLOTS];
    for rank in 0..P {
        let mut x = 0x9E3779B97F4A7C15u64.wrapping_mul(rank as u64 + 1);
        for _ in 0..ITERS {
            x = xorshift(x);
            let slot = (x >> 32) as usize % SLOTS;
            let v = x & 0x00FF_FFFF_FFFF_FFFF;
            expect[slot] = expect[slot].min(v);
        }
    }
    for (s, &e) in expect.iter().enumerate() {
        assert_eq!(slots.get(s), e, "slot {s}");
    }
    obs::metrics::set_enabled(false);
}

/// The weight filter under racing: 8 ranks write edge indices whose packed
/// keys have small-integer weights, so most writers share a key prefix
/// with the incumbent (and tie the filter) or sit above it (and are turned
/// away). The quiescent slots must hold the sequential minimum by key.
#[test]
fn racing_filtered_write_min_matches_the_sequential_minimum() {
    let _l = lock();
    const SLOTS: usize = 64;
    const EDGES: u64 = 4_096;
    const ITERS: usize = 20_000;
    let key = |v: u64| packed_edge_key((xorshift(v + 1) % 5) as f64, v as u32);
    let stream = |rank: usize| {
        let mut x = 0xD1B54A32D192ED03u64.wrapping_mul(rank as u64 + 1);
        std::iter::repeat_with(move || {
            x = xorshift(x);
            ((x >> 32) as usize % SLOTS, x % EDGES)
        })
        .take(ITERS)
    };
    let mut expect = vec![EMPTY; SLOTS];
    for rank in 0..P {
        for (slot, v) in stream(rank) {
            if expect[slot] == EMPTY || key(v) < key(expect[slot]) {
                expect[slot] = v;
            }
        }
    }
    for round in 0..4 {
        let slots = MinSlots::new(SLOTS);
        race(|rank| {
            for (slot, v) in stream(rank) {
                slots.write_min_by(slot, v, key);
            }
        });
        for (s, &e) in expect.iter().enumerate() {
            assert_eq!(slots.get(s), e, "round {round}, slot {s}");
        }
    }
}

#[test]
fn contended_write_min_reports_cas_retries() {
    let _l = lock();
    obs::metrics::set_enabled(true);
    obs::metrics::reset_for_test();

    if msf_pool::sequential_env() {
        // MSF_SEQUENTIAL=1: the racers are scoped threads racing the shared
        // store, so only the answer is asserted, not the retry count.
        assert_eq!(race_one_slot(100_000), u64::MAX - 100_000);
        obs::metrics::set_enabled(false);
        return;
    }
    let mut rounds = 0;
    while counter("atomic.write_min.cas_retry") == 0 && rounds < MAX_ROUNDS {
        assert_eq!(race_one_slot(400_000), u64::MAX - 400_000);
        rounds += 1;
    }
    let retries = counter("atomic.write_min.cas_retry");
    obs::metrics::set_enabled(false);
    assert!(
        retries > 0,
        "8 ranks hammered one slot for {rounds} rounds without a single lost CAS"
    );
}

/// Under the escape hatch Bor-WriteMin races into single-writer slots and
/// Filter-Kruskal unites on one thread, so neither may lose a CAS.
#[test]
fn sequential_escape_hatch_records_zero_retries() {
    let _l = lock();
    let g = msf_graph::generators::assign_weights(
        &msf_graph::generators::random_graph(
            &msf_graph::generators::GeneratorConfig::with_seed(5),
            3_000,
            20_000,
        ),
        msf_graph::generators::WeightScheme::SmallIntegers { range: 6 },
        5,
    );
    let reference = msf_core::minimum_spanning_forest(
        &g,
        msf_core::Algorithm::Kruskal,
        &msf_core::MsfConfig::default(),
    );
    obs::metrics::set_enabled(true);
    obs::metrics::reset_for_test();
    let cfg = msf_core::MsfConfig::with_threads(P);
    let forests = msf_primitives::pool::with_sequential(|| {
        [
            msf_core::Algorithm::BorWriteMin,
            msf_core::Algorithm::FilterKruskal,
        ]
        .map(|algo| msf_core::minimum_spanning_forest(&g, algo, &cfg))
    });
    let wm = counter("atomic.write_min.cas_retry");
    let hook = counter("unionfind.hook.cas_retry");
    obs::metrics::set_enabled(false);
    for r in &forests {
        assert_eq!(r.edges, reference.edges);
    }
    assert!(forests[0].stats.iterations.len() > 1, "Bor-WriteMin raced");
    assert_eq!(wm, 0, "sequential Bor-WriteMin must never lose a CAS");
    assert_eq!(hook, 0, "sequential Filter-Kruskal must never lose a CAS");
}

/// One round of union-find racing over a fixed pseudo-random pair list on
/// a deliberately tiny vertex set (every unite collides with every other).
/// Verifies the partition against the sequential union-find and that the
/// hooked tags form a spanning forest of the united pairs.
fn race_union_find(n: u32, pairs: &[(u32, u32)]) {
    let uf = ConcurrentUnionFind::new(n as usize);
    race(|rank| {
        // Block-partition the pair list over the racers.
        let r = msf_primitives::block_range(pairs.len(), P, rank);
        for i in r {
            let (u, v) = pairs[i];
            uf.unite(u, v, i as u32);
        }
    });
    let mut seq = UnionFind::new(n as usize);
    for &(u, v) in pairs {
        seq.union(u as usize, v as usize);
    }
    for u in 0..n {
        for v in u + 1..n {
            assert_eq!(
                uf.same_set(u, v),
                seq.find(u as usize) == seq.find(v as usize),
                "partition diverged at ({u}, {v})"
            );
        }
    }
    // The hooks array must hold exactly a spanning forest of the pairs:
    // n - components edges, each one joining two distinct trees.
    let components = seq.set_count();
    let hooked = uf.hooked();
    assert_eq!(hooked.len(), n as usize - components);
    let mut check = UnionFind::new(n as usize);
    for &tag in &hooked {
        let (u, v) = pairs[tag as usize];
        assert!(
            check.union(u as usize, v as usize),
            "hooked edge {tag} closes a cycle"
        );
    }
}

#[test]
fn racing_union_find_matches_sequential() {
    let _l = lock();
    const N: u32 = 256;
    let mut pairs = Vec::new();
    let mut x = 0x2545F4914F6CDD1Du64;
    for _ in 0..4_000 {
        x = xorshift(x);
        let (u, v) = ((x >> 32) as u32 % N, x as u32 % N);
        if u != v {
            pairs.push((u, v));
        }
    }
    for _ in 0..8 {
        race_union_find(N, &pairs);
    }
}

/// One round of the hook race: *every* rank walks the same ascending star
/// `(0, v)`. Vertices another rank already absorbed are cheap same-root
/// no-ops, so a trailing rank races through them and rejoins the frontier
/// immediately — whenever the frontier rank is preempted between its find
/// and its CAS on the shared current root, the next rank scheduled claims
/// that root first and the resumed CAS fails. Every rank is therefore
/// contending at the frontier for the whole round, single core or not.
fn race_star(n: u32) {
    let uf = ConcurrentUnionFind::new(n as usize);
    race(|_| {
        for v in 1..n {
            uf.unite(0, v, v - 1);
        }
    });
    assert!(uf.same_set(0, n - 1));
    assert_eq!(uf.hooked().len(), n as usize - 1);
}

/// Filter-Kruskal's heavy-edge filter runs `same_set` from every worker at
/// once over a union-find whose unions are quiescent — but the *finds* are
/// not: path halving keeps rewriting parent pointers underneath the other
/// ranks' traversals. Every concurrent answer must equal the sequential
/// partition's, and the racing compaction must leave the partition intact.
#[test]
fn fk_filter_queries_race_path_halving() {
    let _l = lock();
    const N: u32 = 512;
    // Long chains maximize the halving writes a concurrent find can trip
    // over: unite as one path 0-1-2-..., leaving every other vertex out.
    let uf = ConcurrentUnionFind::new(N as usize);
    let mut pairs = Vec::new();
    let mut x = 0x9E3779B97F4A7C15u64;
    for _ in 0..900 {
        x = xorshift(x);
        let (u, v) = ((x >> 32) as u32 % N, x as u32 % N);
        if u != v {
            pairs.push((u, v));
        }
    }
    for (i, &(u, v)) in pairs.iter().enumerate() {
        uf.unite(u, v, i as u32);
    }
    let mut seq = UnionFind::new(N as usize);
    for &(u, v) in &pairs {
        seq.union(u as usize, v as usize);
    }
    // Query edges: the pair list again plus a pseudo-random probe mix, so
    // both connected and cross-component answers are exercised.
    let mut probes = pairs.clone();
    for _ in 0..2_000 {
        x = xorshift(x);
        let (u, v) = ((x >> 32) as u32 % N, x as u32 % N);
        if u != v {
            probes.push((u, v));
        }
    }
    let expect: Vec<bool> = probes
        .iter()
        .map(|&(u, v)| seq.find(u as usize) == seq.find(v as usize))
        .collect();
    for _ in 0..8 {
        race(|rank| {
            // Every racer sweeps the whole probe list (not a block split):
            // maximal overlap means maximal racing between the racers'
            // path-halving stores.
            let mut order = rank;
            for _ in 0..probes.len() {
                order = (order + 7) % probes.len();
                let (u, v) = probes[order];
                assert_eq!(
                    uf.same_set(u, v),
                    expect[order],
                    "concurrent same_set({u}, {v}) diverged from the sequential partition"
                );
            }
        });
    }
}

/// End-to-end determinism for the sampling Filter-Kruskal under the forced
/// stress pool: racing heavy-filter sweeps must never perturb the forest.
#[test]
fn filter_kruskal_is_deterministic_under_the_stress_pool() {
    let _l = lock();
    msf_pool::force_width(4);
    let g = msf_graph::generators::assign_weights(
        &msf_graph::generators::random_graph(
            &msf_graph::generators::GeneratorConfig::with_seed(11),
            2_000,
            12_000,
        ),
        msf_graph::generators::WeightScheme::SmallIntegers { range: 6 },
        11,
    );
    let cfg = msf_core::MsfConfig::with_threads(P);
    let reference = msf_core::minimum_spanning_forest(
        &g,
        msf_core::Algorithm::Kruskal,
        &msf_core::MsfConfig::default(),
    );
    for round in 0..8 {
        let r = msf_core::minimum_spanning_forest(&g, msf_core::Algorithm::FilterKruskal, &cfg);
        assert_eq!(
            r.edges, reference.edges,
            "round {round}: Filter-Kruskal forest drifted from Kruskal's"
        );
        assert_eq!(r.total_weight.to_bits(), reference.total_weight.to_bits());
    }
}

/// MST-BC's colour race on the stress pool: eight growers claim vertices
/// through CAS-once colours on a hub-heavy power-law graph, with the random
/// start permutation and work stealing on, so frontiers meet constantly.
/// However the claims interleave, every forest must be Kruskal's, in every
/// mode. The growers are pool tasks, so only a pool that runs them on
/// workers can race them; there some tree must have stopped at a foreign
/// colour. Under `MSF_SEQUENTIAL=1` they run one after another on the
/// calling thread, and a stop there proves no race, so the count is not
/// asserted.
#[test]
fn mst_bc_colour_race_collides_and_stays_exact() {
    let _l = lock();
    msf_pool::force_width(4);
    let gen = msf_graph::generators::GeneratorConfig::with_seed(13);
    let g = msf_graph::generators::powerlaw_graph(msf_graph::generators::powerlaw_from(
        &gen, 10_000, 40_000,
    ))
    .expect("power-law graph builds");
    let reference = msf_core::minimum_spanning_forest(
        &g,
        msf_core::Algorithm::Kruskal,
        &msf_core::MsfConfig::default(),
    );
    let cfg = msf_core::MsfConfig {
        shuffle: true,
        work_stealing: true,
        ..msf_core::MsfConfig::with_threads(P)
    };
    let mut raced = 0u64;
    for round in 0..50 {
        let r = msf_core::minimum_spanning_forest(&g, msf_core::Algorithm::MstBc, &cfg);
        assert_eq!(
            r.edges, reference.edges,
            "round {round}: MST-BC forest drifted from Kruskal's"
        );
        let st = r.stats.mstbc.expect("MST-BC populates its counters");
        raced += st.collisions + st.matured;
    }
    if !msf_pool::runs_inline() {
        assert!(
            raced > 0,
            "50 MST-BC runs at p={P} never stopped a tree at a foreign colour"
        );
    }
}

#[test]
fn contended_hooking_reports_cas_retries() {
    let _l = lock();
    obs::metrics::set_enabled(true);
    obs::metrics::reset_for_test();

    const N: u32 = 200_000;
    if msf_pool::sequential_env() {
        // MSF_SEQUENTIAL=1: the racers are scoped threads racing the CAS
        // hooks, so only the answer is asserted, not the retry count.
        race_star(N);
        obs::metrics::set_enabled(false);
        return;
    }
    let mut rounds = 0;
    while counter("unionfind.hook.cas_retry") == 0 && rounds < MAX_ROUNDS {
        race_star(N);
        rounds += 1;
    }
    let retries = counter("unionfind.hook.cas_retry");
    obs::metrics::set_enabled(false);
    assert!(
        retries > 0,
        "8 ranks raced an ascending star for {rounds} rounds without a lost hook CAS"
    );
}
