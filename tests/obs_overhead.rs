//! The observability overhead contract (DESIGN.md §11): with tracing
//! disabled, an instrumented hot path costs one relaxed atomic load and a
//! predictable branch per span — nothing else. These tests hold the
//! subsystem to that contract on the same fingerprint workload
//! `tests/pool_matrix.rs` uses, so a regression that makes the disabled
//! path expensive (an accidental allocation, an env read per call, a
//! thread-local ring touch) fails loudly rather than silently taxing every
//! algorithm.
//!
//! Timing assertions are deliberately loose (their job is to catch
//! orders-of-magnitude regressions, not nanoseconds of noise), and the
//! correctness assertion is exact: tracing on vs off must not change a
//! single output bit.

use std::sync::Mutex;
use std::time::Instant;

use msf_core::{minimum_spanning_forest, Algorithm, MsfConfig, MsfResult};
use msf_graph::generators::{mesh2d, GeneratorConfig};
use msf_graph::EdgeList;
use msf_primitives::obs;

static OBS_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn mesh() -> EdgeList {
    mesh2d(&GeneratorConfig::with_seed(3), 30, 30)
}

fn fingerprint(r: &MsfResult) -> (Vec<u32>, u64, u32) {
    (r.edges.clone(), r.total_weight.to_bits(), r.components)
}

/// The fingerprint workload: every parallel algorithm once, p = 4.
fn workload(g: &EdgeList) -> Vec<(Vec<u32>, u64, u32)> {
    Algorithm::PARALLEL
        .iter()
        .map(|&a| fingerprint(&minimum_spanning_forest(g, a, &MsfConfig::with_threads(4))))
        .collect()
}

#[test]
fn disabled_span_is_a_single_branch_in_cost() {
    let _l = lock();
    obs::set_enabled(false);
    // Warm the gate so the measured loop sees the steady state.
    assert!(!obs::enabled());
    const CALLS: u64 = 2_000_000;
    let t = Instant::now();
    for i in 0..CALLS {
        let span = obs::span(obs::SpanKind::FindMin, i, 0);
        span.end_with(i, i);
    }
    let per_call = t.elapsed().as_nanos() as f64 / CALLS as f64;
    // A relaxed load + branch is ~1 ns; 200 ns flags a real regression
    // (allocation, env lookup, ring registration) with a 100x margin for
    // slow CI hosts.
    assert!(
        per_call < 200.0,
        "disabled span costs {per_call:.1} ns/call — the disabled path must be one \
         relaxed load and a branch"
    );
}

#[test]
fn tracing_does_not_change_any_output_bit() {
    let _l = lock();
    msf_pool::force_width(4);
    let g = mesh();
    obs::set_enabled(false);
    let plain = workload(&g);
    obs::set_enabled(true);
    let _ = obs::drain();
    let traced = workload(&g);
    let trace = obs::drain();
    obs::set_enabled(false);
    assert!(!trace.is_empty(), "the traced leg must actually record");
    assert_eq!(
        plain, traced,
        "tracing must be observation, not interference"
    );
}

#[test]
fn disabled_metrics_record_is_a_single_branch_in_cost() {
    let _l = lock();
    obs::metrics::set_enabled(false);
    assert!(!obs::metrics::enabled());
    static HIST: obs::metrics::LazyHistogram = obs::metrics::LazyHistogram::new("overhead.hist");
    static CTR: obs::metrics::LazyCounter = obs::metrics::LazyCounter::new("overhead.ctr");
    const CALLS: u64 = 2_000_000;
    let t = Instant::now();
    for i in 0..CALLS {
        HIST.record(i);
        CTR.inc();
    }
    let per_call = t.elapsed().as_nanos() as f64 / (2 * CALLS) as f64;
    // Same contract as the span gate: one relaxed load and a branch.
    assert!(
        per_call < 200.0,
        "disabled metric record costs {per_call:.1} ns/call — the disabled path must \
         be one relaxed load and a branch"
    );
}

#[test]
fn disabled_metrics_cost_is_under_one_percent_of_the_workload() {
    let _l = lock();
    msf_pool::force_width(4);
    let g = mesh();

    // Count the records the workload would make with metrics on: the phase
    // wall-ns histograms and shrink ratios flow through the registry, so
    // the snapshot's total histogram count is the record volume.
    obs::metrics::set_enabled(true);
    obs::metrics::reset_for_test();
    let on = workload(&g);
    let snap = obs::metrics::snapshot();
    let records: u64 = snap.histograms.iter().map(|h| h.count).sum::<u64>()
        + snap.counters.iter().map(|&(_, v)| v.min(1)).sum::<u64>();
    obs::metrics::set_enabled(false);
    assert!(records > 0, "the workload must actually hit the registry");

    // Metrics on vs off must not change a single output bit.
    let off = workload(&g);
    assert_eq!(on, off, "metrics must be observation, not interference");

    // Per-record cost of the disabled gate.
    static HIST: obs::metrics::LazyHistogram = obs::metrics::LazyHistogram::new("overhead.tax");
    const CALLS: u64 = 1_000_000;
    let t = Instant::now();
    for i in 0..CALLS {
        HIST.record(i);
    }
    let per_record = t.elapsed().as_nanos() as f64 / CALLS as f64;

    // Baseline: median of three disabled runs.
    let mut walls: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            let _ = workload(&g);
            t.elapsed().as_nanos() as f64
        })
        .collect();
    walls.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let baseline = walls[1];

    let tax = per_record * records as f64;
    assert!(
        tax < baseline * 0.01,
        "disabled metrics would cost {tax:.0} ns against a {baseline:.0} ns workload \
         ({records} records, {per_record:.1} ns each) — over the 1% budget"
    );
}

#[test]
fn disabled_cas_retry_counters_stay_under_the_one_percent_guard() {
    let _l = lock();
    msf_pool::force_width(4);
    let g = mesh();
    let contenders = [Algorithm::BorWriteMin, Algorithm::FilterKruskal];
    let run_both = |g: &EdgeList| {
        for a in contenders {
            let _ = minimum_spanning_forest(g, a, &MsfConfig::with_threads(4));
        }
    };

    // The retry counters sit inside CAS failure paths, which execute with
    // metrics on or off — so the disabled-path tax is the failure count
    // (measured with metrics on; zero on an uncontended run is fine) times
    // the cost of the disabled gate.
    obs::metrics::set_enabled(true);
    obs::metrics::reset_for_test();
    run_both(&g);
    let snap = obs::metrics::snapshot();
    let retries = snap.counter("atomic.write_min.cas_retry").unwrap_or(0)
        + snap.counter("unionfind.hook.cas_retry").unwrap_or(0);
    obs::metrics::set_enabled(false);

    static CTR: obs::metrics::LazyCounter = obs::metrics::LazyCounter::new("overhead.retry");
    const CALLS: u64 = 1_000_000;
    let t = Instant::now();
    for _ in 0..CALLS {
        CTR.inc();
    }
    let per_inc = t.elapsed().as_nanos() as f64 / CALLS as f64;

    let mut walls: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            run_both(&g);
            t.elapsed().as_nanos() as f64
        })
        .collect();
    walls.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let baseline = walls[1];

    let tax = per_inc * retries as f64;
    assert!(
        tax < baseline * 0.01,
        "disabled cas-retry gates would cost {tax:.0} ns against a {baseline:.0} ns \
         contender run ({retries} retries, {per_inc:.1} ns/inc) — over the 1% budget"
    );
}

#[test]
fn disabled_profiler_cost_is_under_one_percent_of_the_workload() {
    let _l = lock();
    msf_pool::force_width(4);
    let g = mesh();
    assert!(
        !obs::profile::is_running(),
        "this guard measures the profiler's DISABLED path"
    );

    // How many profiler gate checks would this workload make? Exactly one
    // per span begin (the pop side is flag-guarded, not gate-guarded), so
    // the traced event count / 2 is the check volume.
    obs::set_enabled(true);
    let _ = obs::drain();
    let _ = workload(&g);
    let checks = obs::drain().events.len() as f64 / 2.0;
    obs::set_enabled(false);
    assert!(checks > 0.0);

    // Per-span cost with tracing AND profiling both disabled — the loop
    // below pays both gates, so the measurement is an upper bound on the
    // profiler's share.
    const CALLS: u64 = 1_000_000;
    let t = Instant::now();
    for i in 0..CALLS {
        obs::span(obs::SpanKind::FindMin, i, 0).end_with(i, i);
    }
    let per_span = t.elapsed().as_nanos() as f64 / CALLS as f64;

    let mut walls: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            let _ = workload(&g);
            t.elapsed().as_nanos() as f64
        })
        .collect();
    walls.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let baseline = walls[1];

    let tax = per_span * checks;
    assert!(
        tax < baseline * 0.01,
        "disabled profiler gate would cost {tax:.0} ns against a {baseline:.0} ns \
         workload ({checks} checks, {per_span:.1} ns/span) — over the 1% budget"
    );
}

#[test]
fn disabled_instrumentation_cost_is_under_one_percent_of_the_workload() {
    let _l = lock();
    msf_pool::force_width(4);
    let g = mesh();

    // How many events would this workload record? (Run traced once.)
    obs::set_enabled(true);
    let _ = obs::drain();
    let _ = workload(&g);
    let events = obs::drain().events.len() as f64;
    obs::set_enabled(false);
    assert!(events > 0.0);

    // Per-call cost of the disabled gate, measured in situ.
    const CALLS: u64 = 1_000_000;
    let t = Instant::now();
    for i in 0..CALLS {
        obs::span(obs::SpanKind::FindMin, i, 0).end_with(i, i);
    }
    // One span = two gate checks (begin + end), which the loop above pairs.
    let per_span = t.elapsed().as_nanos() as f64 / CALLS as f64;

    // Baseline: median of three disabled runs of the workload.
    let mut walls: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            let _ = workload(&g);
            t.elapsed().as_nanos() as f64
        })
        .collect();
    walls.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let baseline = walls[1];

    // Each recorded event corresponds to one armed gate check; the total
    // disabled-path tax over the whole workload must be noise.
    let tax = per_span * events;
    assert!(
        tax < baseline * 0.01,
        "disabled instrumentation would cost {tax:.0} ns against a {baseline:.0} ns \
         workload ({events} events, {per_span:.1} ns/span) — over the 1% budget"
    );
}
