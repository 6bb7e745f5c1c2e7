//! Contract tests for the sampling profiler (DESIGN.md §16) against real
//! MSF runs: the folded export must speak valid span-kind frames, sample
//! counts must reconcile with wall-clock × rate, and attribution must hold
//! in every execution mode — including the MSF_SEQUENTIAL=1 CI harness,
//! where the whole run executes on the calling thread.
//!
//! The profiler is process-global, so every test serializes on one lock
//! and stops the sampler before releasing it.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use msf_core::{minimum_spanning_forest, Algorithm, MsfConfig};
use msf_graph::generators::{mesh2d, GeneratorConfig};
use msf_graph::EdgeList;
use msf_primitives::obs;

static PROFILER_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    PROFILER_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

const KNOWN_FRAMES: &[&str] = &[
    "run",
    "setup",
    "iteration",
    "find-min",
    "connect-components",
    "compact-graph",
    "base-case",
    "rank",
    "filter",
    "serve",
];

/// Run Filter-Kruskal on a mesh repeatedly until `budget` elapses, so the
/// sampler has real span stacks to catch regardless of host speed.
fn churn(budget: Duration) {
    let g: EdgeList = mesh2d(&GeneratorConfig::with_seed(7), 60, 60);
    let cfg = MsfConfig::with_threads(4);
    let t = Instant::now();
    while t.elapsed() < budget {
        let _ = minimum_spanning_forest(&g, Algorithm::FilterKruskal, &cfg);
    }
}

#[test]
fn folded_output_parses_and_speaks_span_kind_frames() {
    let _l = lock();
    obs::profile::start(997).expect("start profiler");
    churn(Duration::from_millis(300));
    let report = obs::profile::stop();

    assert!(
        report.total_samples() > 0,
        "300ms of MSF churn at 997 Hz must catch at least one sample \
         ({} wakeups, {} dropped)",
        report.wakeups,
        report.dropped
    );
    let folded = report.folded();
    assert!(!folded.is_empty());
    for line in folded.lines() {
        // `<frame>[;<frame>...] <count>` — exactly what flamegraph.pl eats.
        let (stack, count) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("malformed folded line: {line:?}"));
        let count: u64 = count
            .parse()
            .unwrap_or_else(|_| panic!("non-numeric count in folded line: {line:?}"));
        assert!(count > 0, "zero-weight path exported: {line:?}");
        for frame in stack.split(';') {
            assert!(
                KNOWN_FRAMES.contains(&frame),
                "unknown frame {frame:?} in folded line {line:?}"
            );
        }
    }
    // The SVG renders from the same trie; a sampled run must produce rects.
    let svg = report.svg();
    assert!(svg.starts_with("<svg") && svg.contains("<rect"));
}

#[test]
fn sample_counts_reconcile_with_wall_clock_times_rate() {
    let _l = lock();
    const HZ: u64 = 997;
    obs::profile::start(HZ).expect("start profiler");
    let wall = Duration::from_millis(250);
    {
        // One long span on this thread — the sampler should catch it on
        // nearly every wakeup for the whole window.
        let span = obs::span(obs::SpanKind::FindMin, 0, 0);
        std::thread::sleep(wall);
        span.end_with(0, 0);
    }
    let report = obs::profile::stop();

    let expected = HZ as f64 * wall.as_secs_f64();
    let got = report.inclusive_samples(obs::SpanKind::FindMin) as f64;
    // Factor-of-four tolerance: CI hosts oversleep and the sampler sheds
    // ticks under load, but an order-of-magnitude miss means the schedule
    // or the fold is broken.
    assert!(
        got >= expected / 4.0,
        "caught {got} find-min samples where ~{expected:.0} were expected \
         ({} wakeups, {} dropped)",
        report.wakeups,
        report.dropped
    );
    assert!(
        got <= expected * 4.0,
        "caught {got} find-min samples where ~{expected:.0} were expected — \
         the sampler is over-counting"
    );
    // Samples can never outnumber wakeup×thread opportunities.
    assert!(report.total_samples() <= report.wakeups.max(1) * 64);
}

#[test]
fn run_span_attribution_holds_in_every_execution_mode() {
    // Under MSF_SEQUENTIAL=1 the whole algorithm runs on this thread; in
    // parallel mode it fans out to pool workers. Either way every sampled
    // stack must root at a known top-level span and the run span must own
    // samples — attribution cannot silently vanish with the pool.
    let _l = lock();
    obs::profile::start(997).expect("start profiler");
    churn(Duration::from_millis(300));
    let report = obs::profile::stop();

    assert!(
        report.inclusive_samples(obs::SpanKind::Run) > 0,
        "no samples attributed to the run span (total {}, sequential={})",
        report.total_samples(),
        std::env::var("MSF_SEQUENTIAL").is_ok()
    );
    for line in report.folded().lines() {
        let (stack, _) = line.rsplit_once(' ').expect("folded line");
        let root = stack.split(';').next().expect("non-empty stack");
        assert!(
            // Pool workers root at whatever span the stolen task opened
            // (MST-BC growers at `rank`, parallel loops inside a phase at
            // that phase) — but the driving thread always roots at `run`.
            KNOWN_FRAMES.contains(&root),
            "unknown root frame {root:?} in {line:?}"
        );
    }
    // The run span must dominate inclusive samples of an MSF-only workload
    // (ties allowed: a phase that holds 100% of the samples matches run).
    let run = report.inclusive_samples(obs::SpanKind::Run);
    let hottest = report.hottest().expect("samples were taken");
    assert!(
        report.inclusive_samples(hottest) == run,
        "hottest frame {:?} has more inclusive samples than the run span",
        hottest.name()
    );
}
