//! End-to-end contract of the observability subsystem (`msf_primitives::obs`):
//! with tracing on, every parallel algorithm emits a well-nested span tree
//! whose per-step END payloads are *exactly* the numbers recorded in
//! `RunStats` — the trace and the stats are two views of one measurement,
//! not two measurements. With tracing off, nothing is recorded at all.
//!
//! Inputs are connected meshes: on a connected graph no algorithm takes the
//! Bor-FAL maturity break, so step spans correspond one-to-one with the
//! iterations pushed onto the stats and the sums can be compared with `==`
//! (the END events carry the exact `modeled_max` / `event_ns(seconds)`
//! values, so there is no float slop anywhere).
//!
//! The obs globals (enable flag, per-thread rings, epoch) are process-wide,
//! so every test here serializes on one mutex and drains the rings before
//! and after its run.

use std::collections::BTreeSet;
use std::sync::Mutex;

use msf_bench::json::Json;
use msf_core::stats::event_ns;
use msf_core::{minimum_spanning_forest, Algorithm, MsfConfig};
use msf_graph::generators::{mesh2d, GeneratorConfig};
use msf_graph::EdgeList;
use msf_primitives::obs;
use obs::{Phase, SpanKind};

static OBS_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn mesh() -> EdgeList {
    mesh2d(&GeneratorConfig::with_seed(11), 30, 30)
}

/// Run one algorithm with tracing on and return (its trace, its result).
fn traced_run(g: &EdgeList, algo: Algorithm, p: usize) -> (obs::Trace, msf_core::MsfResult) {
    msf_pool::force_width(4);
    obs::set_enabled(true);
    let _ = obs::drain(); // discard events from earlier tests / pool warmup
    let r = minimum_spanning_forest(g, algo, &MsfConfig::with_threads(p));
    let trace = obs::drain();
    obs::set_enabled(false);
    (trace, r)
}

#[test]
fn every_parallel_algorithm_emits_a_well_nested_trace() {
    let _l = lock();
    let g = mesh();
    for algo in Algorithm::PARALLEL {
        let (trace, _) = traced_run(&g, algo, 2);
        assert_eq!(trace.dropped, 0, "{algo}: ring overflow on a small mesh");
        trace
            .validate_nesting()
            .unwrap_or_else(|e| panic!("{algo}: {e}"));
        // Exactly one whole-run span, and at least one span per Borůvka
        // step kind (MST-BC also uses the find-min/connect/compact taxonomy
        // for its grow/contract/rebuild phases).
        assert_eq!(trace.count(SpanKind::Run, Phase::End), 1, "{algo}");
        if algo == Algorithm::FilterKruskal {
            // Filter-Kruskal has no connect-components phase, and this
            // mesh is below its sequential base-case cutoff — the whole
            // solve is one base-case span. Its recursive trace shape is
            // covered by filter_kruskal_trace_shape_and_reconciliation.
            assert!(trace.count(SpanKind::BaseCase, Phase::End) >= 1, "{algo}");
            continue;
        }
        for kind in [SpanKind::FindMin, SpanKind::Connect, SpanKind::Compact] {
            assert!(
                trace.count(kind, Phase::End) >= 1,
                "{algo}: no {} span",
                kind.name()
            );
        }
    }
}

#[test]
fn step_span_payloads_sum_to_the_iteration_stats() {
    let _l = lock();
    let g = mesh();
    for algo in Algorithm::PARALLEL {
        if algo == Algorithm::FilterKruskal {
            // Filter-Kruskal records one stats row per recursion *depth*
            // (several spans fold into one row) and emits no iteration
            // spans at all; covered by
            // filter_kruskal_trace_shape_and_reconciliation.
            continue;
        }
        let (trace, r) = traced_run(&g, algo, 2);
        let stats = &r.stats;
        assert!(!stats.iterations.is_empty(), "{algo}");
        // Connected input: no maturity-break probe iteration, so the span
        // count is exactly the iteration count.
        assert_eq!(
            trace.count(SpanKind::Iteration, Phase::End),
            stats.iterations.len(),
            "{algo}"
        );
        for (kind, pick) in [
            (SpanKind::FindMin, 0usize),
            (SpanKind::Connect, 1),
            (SpanKind::Compact, 2),
        ] {
            let (sum_max, sum_ns) = trace.sum_end_args(kind);
            let expect_max: u64 = stats
                .iterations
                .iter()
                .map(|it| [&it.find_min, &it.connect, &it.compact][pick].modeled_max)
                .sum();
            let expect_ns: u64 = stats
                .iterations
                .iter()
                .map(|it| event_ns([&it.find_min, &it.connect, &it.compact][pick].seconds))
                .sum();
            assert_eq!(sum_max, expect_max, "{algo} {} modeled_max", kind.name());
            assert_eq!(sum_ns, expect_ns, "{algo} {} seconds", kind.name());
        }
    }
}

#[test]
fn chrome_export_is_valid_json_with_named_spans() {
    let _l = lock();
    let g = mesh();
    let (trace, _) = traced_run(&g, Algorithm::BorAl, 2);
    let json = trace.chrome_json();
    Json::parse(&json).expect("chrome trace must be valid JSON");
    for name in ["find-min", "connect-components", "compact-graph", "run"] {
        assert!(json.contains(&format!("\"name\":\"{name}\"")), "{name}");
    }
    assert!(json.contains("\"traceEvents\""));
    // The text summary names every kind that appeared.
    let summary = trace.summary();
    assert!(summary.contains("find-min"), "{summary}");
}

#[test]
fn filter_kruskal_trace_shape_and_reconciliation() {
    let _l = lock();
    // 60×60 mesh: 7080 edges, comfortably above the 2048-edge base-case
    // cutoff, so the pivot recursion actually engages.
    let g = mesh2d(&GeneratorConfig::with_seed(11), 60, 60);
    let (trace, r) = traced_run(&g, Algorithm::FilterKruskal, 2);
    trace.validate_nesting().expect("nesting");
    assert_eq!(trace.count(SpanKind::Run, Phase::End), 1);
    // The recursion's taxonomy: partition → compact-graph, heavy filter →
    // find-min, leaves → base-case. No connect-components phase exists.
    for kind in [SpanKind::Compact, SpanKind::FindMin, SpanKind::BaseCase] {
        assert!(
            trace.count(kind, Phase::End) >= 1,
            "no {} span",
            kind.name()
        );
    }
    assert_eq!(trace.count(SpanKind::Connect, Phase::End), 0);
    // Span modeled_max payloads sum exactly to the per-depth stats rows
    // (several recursion nodes fold into one depth row, so only the
    // integer modeled sums — not the independently rounded per-span
    // nanoseconds — reconcile with `==`).
    let stats = &r.stats;
    assert!(!stats.iterations.is_empty());
    for (kind, pick) in [(SpanKind::FindMin, 0usize), (SpanKind::Compact, 2)] {
        let (sum_max, _) = trace.sum_end_args(kind);
        let expect_max: u64 = stats
            .iterations
            .iter()
            .map(|it| [&it.find_min, &it.connect, &it.compact][pick].modeled_max)
            .sum();
        assert_eq!(sum_max, expect_max, "{} modeled_max", kind.name());
    }
}

#[test]
fn bor_fal_setup_is_one_span_before_the_first_iteration() {
    let _l = lock();
    let g = mesh();
    let (trace, r) = traced_run(&g, Algorithm::BorFal, 2);
    trace.validate_nesting().expect("nesting");
    assert_eq!(trace.count(SpanKind::Setup, Phase::Begin), 1);
    assert_eq!(trace.count(SpanKind::Setup, Phase::End), 1);
    let first = |kind: SpanKind, phase: Phase| {
        trace
            .events
            .iter()
            .find(|e| e.kind == kind as u16 && e.phase == phase)
            .copied()
            .unwrap_or_else(|| panic!("no {} event", kind.name()))
    };
    let setup_end = first(SpanKind::Setup, Phase::End);
    let iteration = first(SpanKind::Iteration, Phase::Begin);
    // Both run on the calling thread, in program order.
    assert_eq!(setup_end.tid, iteration.tid);
    assert!(setup_end.seq < iteration.seq, "setup must end first");
    assert!(setup_end.ts_ns <= iteration.ts_ns);
    // The setup build is charged: it carries a nonzero modeled cost.
    assert!(setup_end.a > 0);
    assert!(r.stats.modeled_cost > setup_end.a);
}

/// The threads that ran MST-BC's growers, and the thread of the run span.
fn grower_threads(trace: &obs::Trace) -> (BTreeSet<u32>, u32) {
    let tids = |kind| {
        trace
            .events
            .iter()
            .filter(move |e| e.span_kind() == Some(kind) && e.phase == Phase::End)
            .map(|e| e.tid)
    };
    let caller = tids(SpanKind::Run).next().expect("one run span");
    (tids(SpanKind::Rank).collect(), caller)
}

#[test]
fn mst_bc_records_one_rank_span_per_grower() {
    let _l = lock();
    // Large enough that a round's growers outlast a worker's wake-up.
    let g = mesh2d(&GeneratorConfig::with_seed(11), 120, 120);
    // Each round runs p = 4 growers, one pool task and one `rank` span each.
    let (trace, r) = traced_run(&g, Algorithm::MstBc, 4);
    trace.validate_nesting().expect("nesting");
    let iterations = r.stats.iterations.len();
    assert!(
        iterations >= 1,
        "the mesh must take at least one grow round"
    );
    assert_eq!(trace.count(SpanKind::Rank, Phase::End), 4 * iterations);
    let (threads, caller) = grower_threads(&trace);
    if msf_pool::runs_inline() {
        assert_eq!(threads, BTreeSet::from([caller]));
    } else {
        assert!(
            threads.len() > 1,
            "growers on the width-4 pool must run on more than one thread"
        );
    }
    // Under the escape hatch the growers run in rank order on the calling
    // thread: no pool worker and no thread of their own.
    let (trace, r) = msf_pool::with_sequential(|| traced_run(&g, Algorithm::MstBc, 4));
    trace.validate_nesting().expect("nesting");
    assert_eq!(
        trace.count(SpanKind::Rank, Phase::End),
        4 * r.stats.iterations.len()
    );
    let (threads, caller) = grower_threads(&trace);
    assert_eq!(
        threads,
        BTreeSet::from([caller]),
        "under the escape hatch every grower runs on the calling thread"
    );
}

#[test]
fn disabled_tracing_records_nothing() {
    let _l = lock();
    let g = mesh();
    obs::set_enabled(true);
    let _ = obs::drain();
    obs::set_enabled(false);
    let r = minimum_spanning_forest(&g, Algorithm::BorEl, &MsfConfig::with_threads(2));
    assert!(!r.edges.is_empty());
    obs::set_enabled(true); // drain under the same epoch
    let trace = obs::drain();
    obs::set_enabled(false);
    assert!(
        trace.is_empty(),
        "disabled tracing must write no events, got {}",
        trace.events.len()
    );
}
