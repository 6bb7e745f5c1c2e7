//! The benchmark of record for the MSF suite.
//!
//! Two workloads, each run in a process of its own:
//!
//! - `rmat17`: R-MAT graphs streamed to `.msfb` and read back through
//!   mmap; graph file → forest for every parallel algorithm and sequential
//!   Kruskal, and graph file → forest → certificate.
//! - `random250k-text`: the same pipelines over sparse uniform random
//!   graphs read from DIMACS text.
//!
//! End-to-end metrics are measured with the program's metrics registry
//! off. A traced run turns the registry on and reports per-layer numbers
//! from the benchmark's spans around each call into the program, the
//! program's `RunStats` and `Certificate`, and `msf_obs::metrics::snapshot()`
//! deltas. Nothing inside the program is instrumented for the benchmark.

pub mod catalog;
pub mod cli;
pub mod host;
pub mod report;
pub mod stats;
pub mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;

use msf_core::{minimum_spanning_forest, Algorithm, MsfConfig};
use msf_graph::EdgeList;
use msf_obs::metrics::MetricsSnapshot;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// R-MAT graph, binary file read through mmap.
    Rmat,
    /// Uniform random graph, DIMACS text.
    RandomText,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 2] = [Workload::Rmat, Workload::RandomText];

    /// The name used on the command line, in `BENCHMARK.json` and in result
    /// files.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Rmat => "rmat17",
            Workload::RandomText => "random250k-text",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Input sizes: the benchmark of record, or the small smoke scale the
/// self-tests run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Sizes of record.
    Full,
    /// Small inputs: every workload finishes in seconds.
    Smoke,
}

impl Scale {
    /// `full` or `smoke`.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Smoke => "smoke",
        }
    }
}

/// Everything one workload run needs.
#[derive(Debug, Clone)]
pub struct Settings {
    /// The workload.
    pub workload: Workload,
    /// The only input to graph generation.
    pub seed: u64,
    /// How long the measurement loop runs.
    pub seconds: f64,
    /// Traced run: metrics registry on, per-layer metrics out.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
    /// Compute threads.
    pub p: usize,
    /// Scratch directory for generated files.
    pub dir: PathBuf,
    /// Self-test: corrupt the Kruskal reference checksum so every forest
    /// check fails.
    pub corrupt_reference: bool,
}

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// The four parallel contenders every workload times.
pub const PARALLEL: [Algorithm; 4] = [
    Algorithm::FilterKruskal,
    Algorithm::BorWriteMin,
    Algorithm::BorFal,
    Algorithm::MstBc,
];

/// [`PARALLEL`] plus sequential Kruskal.
pub const TIMED: [Algorithm; 5] = [
    Algorithm::FilterKruskal,
    Algorithm::BorWriteMin,
    Algorithm::BorFal,
    Algorithm::MstBc,
    Algorithm::Kruskal,
];

/// Counters the program keeps in its metrics registry, as
/// `(per-layer metric, registry counter)`. Traced runs report their
/// increase per traced cell.
pub const PROGRAM_COUNTS: [(&str, &str); 7] = [
    (
        "primitives.write_min_cas_retry",
        "atomic.write_min.cas_retry",
    ),
    ("primitives.hook_cas_retry", "unionfind.hook.cas_retry"),
    ("pool.steal_hits", "pool.steal_hits"),
    ("pool.steal_misses", "pool.steal_misses"),
    ("pool.parks", "pool.parks"),
    ("pool.wakes", "pool.wakes"),
    ("pool.team_leases", "pool.team_leases"),
];

/// A registry snapshot with the pool's counters folded in first.
pub fn snapshot() -> MetricsSnapshot {
    msf_pool::publish_metrics();
    msf_obs::metrics::snapshot()
}

/// Increase of a registry counter between two snapshots.
pub fn counter_delta(a: &MetricsSnapshot, b: &MetricsSnapshot, name: &str) -> f64 {
    let get = |s: &MetricsSnapshot| s.counter(name).unwrap_or(0);
    get(b).saturating_sub(get(a)) as f64
}

/// Increase of a registry histogram's `(sum, count)` between two snapshots.
pub fn hist_delta(a: &MetricsSnapshot, b: &MetricsSnapshot, name: &str) -> (f64, f64) {
    let get = |s: &MetricsSnapshot| s.histogram(name).map_or((0, 0), |h| (h.sum, h.count));
    let ((s0, c0), (s1, c1)) = (get(a), get(b));
    (s1.saturating_sub(s0) as f64, c1.saturating_sub(c0) as f64)
}

/// Attempted and failed checks of program output.
#[derive(Debug, Default, Clone, Copy)]
pub struct Ledger {
    /// Outputs checked.
    pub attempted: u64,
    /// Outputs that were wrong, refused or missing.
    pub failed: u64,
}

impl Ledger {
    /// Count one checked output; report it on stderr when it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAILED: {}", what());
        }
    }

    /// Fold another ledger into this one.
    pub fn merge(&mut self, other: Ledger) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Samples per metric name. Names outside the catalog are intermediate
/// values that derived metrics are computed from.
#[derive(Debug, Default)]
pub struct Samples(pub BTreeMap<String, Vec<f64>>);

impl Samples {
    /// Record one sample.
    pub fn push(&mut self, name: impl Into<String>, v: f64) {
        self.0.entry(name.into()).or_default().push(v);
    }

    /// Median of a metric's samples.
    pub fn median(&self, name: &str) -> Option<f64> {
        self.0.get(name).and_then(|v| stats::median(v))
    }

    /// Mean of a metric's samples (0 when absent).
    pub fn mean(&self, name: &str) -> f64 {
        self.0
            .get(name)
            .filter(|v| !v.is_empty())
            .map_or(0.0, |v| v.iter().sum::<f64>() / v.len() as f64)
    }

    /// `median(num) / median(den)`, or 0 when either is missing or the
    /// denominator is 0.
    pub fn ratio(&self, num: &str, den: &str) -> f64 {
        match (self.median(num), self.median(den)) {
            (Some(n), Some(d)) if d != 0.0 => n / d,
            _ => 0.0,
        }
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Output checks.
    pub ledger: Ledger,
    /// A check outside the output ledger failed: a certificate rejected or
    /// spans covering too little wall.
    pub broken: Vec<String>,
    /// Samples per metric.
    pub samples: Samples,
    /// The benchmark's spans (traced runs only).
    pub spans: Vec<trace::Span>,
}

impl Outcome {
    /// True when every output was right and every gate passed.
    pub fn correct(&self) -> bool {
        self.ledger.failed == 0 && self.broken.is_empty()
    }
}

/// The reference forest checksum: sequential Kruskal on the generated
/// graph before it is written anywhere.
pub fn reference_checksum(g: &EdgeList, corrupt: bool) -> u64 {
    let sum =
        minimum_spanning_forest(g, Algorithm::Kruskal, &MsfConfig::with_threads(1)).checksum();
    if corrupt {
        !sum
    } else {
        sum
    }
}

/// Run one workload: repeated setup, the timed loop, then peak memory.
pub fn run(s: &Settings) -> Outcome {
    // Untraced runs keep the registry off even if `MSF_METRICS` is set.
    msf_obs::metrics::set_enabled(s.trace);
    let mut out = cli::run(s);
    out.samples
        .push("peak_rss_mb", msf_obs::alloc::peak_rss_kb() as f64 / 1024.0);
    if s.trace {
        let cov = trace::coverage(&out.spans);
        let min = cov.iter().map(|&(_, c)| c).fold(1.0, f64::min);
        out.samples.push("bench.span_coverage_min", min);
        out.samples.push(
            "bench.unattributed_s",
            trace::unattributed_seconds(&out.spans),
        );
        if min < trace::MIN_COVERAGE {
            out.broken.push(format!(
                "layer spans cover only {:.1}% of one cell's wall (need {:.0}%)",
                min * 100.0,
                trace::MIN_COVERAGE * 100.0
            ));
        }
    }
    out
}
