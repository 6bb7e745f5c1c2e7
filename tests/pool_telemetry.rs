//! Absolute telemetry assertions, enabled by the reset/snapshot semantics
//! of the pool counters and the metrics registry.
//!
//! Historically these assertions lived as *deltas* between two snapshots
//! (`after.x >= before.x + k`), because counters are process-global and
//! accumulate whatever earlier tests did — making them order-dependent and
//! racy under the concurrent test harness. This file runs as its own test
//! binary with a single `#[test]`, so after `reset_telemetry_for_test` /
//! `metrics::reset_for_test` the process is quiescent and the assertions
//! can be exact.

use std::sync::Mutex;

use msf_core::{minimum_spanning_forest, Algorithm, MsfConfig};
use msf_graph::generators::{mesh2d, GeneratorConfig};
use msf_primitives::obs;

/// Both tests reset process-global state, so they must not overlap even
/// under the concurrent harness.
static GLOBAL_STATE: Mutex<()> = Mutex::new(());

#[test]
fn reset_then_snapshot_gives_absolute_counters() {
    let _l = GLOBAL_STATE.lock().unwrap_or_else(|e| e.into_inner());
    let width = msf_pool::force_width(4);
    let g = mesh2d(&GeneratorConfig::with_seed(7), 30, 30);
    let cfg = MsfConfig::with_threads(4);

    // Warm up: start the stealing workers. How much telemetry this run
    // generates is history we don't care about.
    let warm = minimum_spanning_forest(&g, Algorithm::BorFal, &cfg);

    // Quiescent now (single test, single binary): zero everything and
    // assert the zero state absolutely.
    msf_pool::reset_telemetry_for_test();
    let zero = msf_pool::pool_stats();
    assert_eq!(zero.width, width);
    assert_eq!(zero.injector_pushes, 0);
    assert_eq!(zero.injector_pops, 0);
    assert_eq!(zero.steal_hits() + zero.steal_misses() + zero.parks(), 0);

    // One run's pool traffic, measured absolutely — no before/after deltas.
    let run = minimum_spanning_forest(&g, Algorithm::BorFal, &cfg);
    assert_eq!(run.edges, warm.edges, "workload must be deterministic");
    let stats = msf_pool::pool_stats();
    assert!(
        stats.injector_pushes > 0,
        "a p=4 run must inject work from the calling thread, found none after reset"
    );
    // Every injected job is claimed by a worker or reclaimed by its
    // submitter, never both.
    assert!(stats.injector_pops <= stats.injector_pushes);

    // One join from outside the pool injects exactly its `b` half.
    msf_pool::reset_telemetry_for_test();
    assert_eq!(msf_pool::join(|| 1u32, || 2u32), (1, 2));
    let stats = msf_pool::pool_stats();
    assert_eq!(stats.injector_pushes, 1);
    assert!(stats.injector_pops <= 1);
}

#[test]
fn metrics_registry_resets_to_exact_per_run_counts() {
    let _l = GLOBAL_STATE.lock().unwrap_or_else(|e| e.into_inner());
    msf_pool::force_width(4);
    let g = mesh2d(&GeneratorConfig::with_seed(7), 30, 30);
    let cfg = MsfConfig::with_threads(4);

    obs::metrics::set_enabled(true);
    obs::metrics::reset_for_test();
    let run = minimum_spanning_forest(&g, Algorithm::BorAlm, &cfg);
    let snap = obs::metrics::snapshot();
    obs::metrics::set_enabled(false);

    // One find-min phase per Borůvka iteration: the histogram count is
    // exactly the iteration count of this single run.
    let iters = run.stats.iterations.len() as u64;
    let fm = snap
        .histogram("phase.find-min.wall_ns")
        .expect("find-min wall histogram registered");
    assert_eq!(fm.count, iters, "one find-min record per iteration");
    let compact = snap
        .histogram("phase.compact.wall_ns")
        .expect("compact wall histogram registered");
    assert_eq!(compact.count, iters, "one compact record per iteration");
    // Shrink ratios are recorded from the second iteration on, and a
    // Borůvka iteration at least halves the vertex count.
    let shrink = snap
        .histogram("boruvka.shrink_permille")
        .expect("shrink histogram registered");
    assert_eq!(shrink.count, iters.saturating_sub(1));
    assert!(shrink.max <= 500, "shrink ratio above 500‰: {}", shrink.max);
    // Bor-ALM ran: its arenas must have reported chunks, and everything
    // live was released by the end of the run.
    assert!(snap.counter("arena.chunks").unwrap_or(0) > 0);
    assert_eq!(snap.gauge("arena.live_bytes").map(|(v, _)| v), Some(0));
}
