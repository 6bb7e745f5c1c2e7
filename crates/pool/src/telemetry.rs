//! Always-on pool telemetry: relaxed monotone counters on the registry's
//! rare paths (steal probes, injector traffic, sleep/wake), snapshotted as
//! a [`PoolStats`].
//!
//! Counters are deliberately *not* gated by `MSF_TRACE`: every increment
//! sits on a path that already paid a probe, a mutex, or a condvar, so a
//! relaxed `fetch_add` is noise there. The hot local push/pop fast path has
//! no counter at all.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use msf_obs::metrics::LazyHistogram;

/// How long a successful steal scan hunted (nanoseconds from the first
/// victim probe to the hit). Gated with the rest of the metrics registry.
pub(crate) static STEAL_LATENCY_NS: LatencyHistogram =
    LatencyHistogram(LazyHistogram::new("pool.steal_latency_ns"));

/// A histogram of elapsed nanoseconds with an explicit two-phase timer, so
/// the `Instant::now()` pair is only paid while metrics are enabled.
pub(crate) struct LatencyHistogram(LazyHistogram);

impl LatencyHistogram {
    /// Start timing if `enabled` (pass `msf_obs::metrics::enabled()` so the
    /// caller can share one gate check across several decisions).
    #[inline]
    pub(crate) fn timer_start(&self, enabled: bool) -> Option<Instant> {
        enabled.then(Instant::now)
    }

    /// Record the elapsed time of a timer started by
    /// [`LatencyHistogram::timer_start`]; `None` (disabled at start) is free.
    #[inline]
    pub(crate) fn timer_record(&self, start: Option<Instant>) {
        if let Some(start) = start {
            self.0.record(start.elapsed().as_nanos() as u64);
        }
    }
}

/// A relaxed monotone counter padded to its own cache-line pair so writers
/// of different counters never false-share.
#[repr(align(128))]
#[derive(Default)]
pub(crate) struct Counter(AtomicU64);

impl Counter {
    #[inline]
    pub(crate) fn bump(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// One stealing worker's counters. All three are written only by the owning
/// worker, so they share the worker's own padded line.
#[repr(align(128))]
#[derive(Default)]
pub(crate) struct WorkerCounters {
    pub(crate) steal_hits: AtomicU64,
    pub(crate) steal_misses: AtomicU64,
    pub(crate) parks: AtomicU64,
}

/// The registry-owned counter block.
pub(crate) struct RegistryCounters {
    pub(crate) workers: Box<[WorkerCounters]>,
    pub(crate) injector_pushes: Counter,
    pub(crate) injector_pops: Counter,
    pub(crate) wakes: Counter,
}

impl RegistryCounters {
    pub(crate) fn new(width: usize) -> RegistryCounters {
        RegistryCounters {
            workers: (0..width).map(|_| WorkerCounters::default()).collect(),
            injector_pushes: Counter::default(),
            injector_pops: Counter::default(),
            wakes: Counter::default(),
        }
    }

    pub(crate) fn snapshot(&self) -> PoolStats {
        PoolStats {
            width: self.workers.len(),
            workers: self
                .workers
                .iter()
                .map(|w| PoolWorkerStats {
                    steal_hits: w.steal_hits.load(Ordering::Relaxed),
                    steal_misses: w.steal_misses.load(Ordering::Relaxed),
                    parks: w.parks.load(Ordering::Relaxed),
                })
                .collect(),
            injector_pushes: self.injector_pushes.get(),
            injector_pops: self.injector_pops.get(),
            wakes: self.wakes.get(),
        }
    }

    /// Zero every counter. Test isolation only — see
    /// [`crate::reset_telemetry_for_test`] for the caveats.
    pub(crate) fn reset_for_test(&self) {
        for w in self.workers.iter() {
            w.steal_hits.store(0, Ordering::Relaxed);
            w.steal_misses.store(0, Ordering::Relaxed);
            w.parks.store(0, Ordering::Relaxed);
        }
        self.injector_pushes.reset();
        self.injector_pops.reset();
        self.wakes.reset();
    }
}

/// Per-worker slice of a [`PoolStats`] snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolWorkerStats {
    /// Successful steals from another worker's queue.
    pub steal_hits: u64,
    /// Steal probes that found the victim's queue empty.
    pub steal_misses: u64,
    /// Times this worker entered the condvar sleep protocol.
    pub parks: u64,
}

/// A monotone snapshot of the pool's lifetime telemetry. Taken with
/// [`crate::pool_stats`]; counters never reset, so rate over an interval is
/// the difference of two snapshots.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Stealing-worker count (0 when the pool was never started).
    pub width: usize,
    /// Per-worker steal and park counters, indexed by worker id.
    pub workers: Vec<PoolWorkerStats>,
    /// Jobs submitted through the external-thread injector.
    pub injector_pushes: u64,
    /// Injected jobs claimed by workers (the rest were reclaimed by their
    /// submitters).
    pub injector_pops: u64,
    /// `notify_all` wakeups actually issued (publishers skip the condvar
    /// while no worker sleeps).
    pub wakes: u64,
}

/// Totals already pushed into the metrics registry, so republishing adds
/// only the delta (registry counters are add-only; pool counters are
/// monotone).
static PUBLISHED: std::sync::Mutex<[u64; 6]> = std::sync::Mutex::new([0; 6]);

/// Sync the pool's lifetime telemetry into the `msf-obs` metrics registry
/// as the six `pool.*` counters, making the registry the single source of
/// truth for every consumer (`msf bench --json`, the daemon's scrape
/// endpoint). Idempotent and monotone: each call adds only what accrued
/// since the previous call. No-op while metrics are disabled.
///
/// Caveat for tests: `msf_obs::metrics::reset_for_test` zeroes the registry
/// but not the internal published-totals cache, so assert on snapshot
/// *deltas* around the work under test rather than absolute values (or call
/// [`crate::reset_telemetry_for_test`] too, which resets both sides).
pub fn publish_metrics() {
    use msf_obs::metrics::LazyCounter;
    static COUNTERS: [LazyCounter; 6] = [
        LazyCounter::new("pool.steal_hits"),
        LazyCounter::new("pool.steal_misses"),
        LazyCounter::new("pool.parks"),
        LazyCounter::new("pool.injector_pushes"),
        LazyCounter::new("pool.injector_pops"),
        LazyCounter::new("pool.wakes"),
    ];
    if !msf_obs::metrics::enabled() {
        return;
    }
    let s = crate::pool_stats();
    let now = [
        s.steal_hits(),
        s.steal_misses(),
        s.parks(),
        s.injector_pushes,
        s.injector_pops,
        s.wakes,
    ];
    let mut last = PUBLISHED.lock().unwrap_or_else(|e| e.into_inner());
    for ((counter, &cur), prev) in COUNTERS.iter().zip(&now).zip(last.iter_mut()) {
        // saturating: reset_telemetry_for_test can move pool counters
        // backwards mid-process; never push a wrapped delta.
        counter.add(cur.saturating_sub(*prev));
        *prev = cur;
    }
}

/// Forget the published-totals cache (paired with zeroing the pool's own
/// counters). Test isolation only.
pub(crate) fn reset_published_for_test() {
    *PUBLISHED.lock().unwrap_or_else(|e| e.into_inner()) = [0; 6];
}

impl PoolStats {
    /// Total successful steals across workers.
    pub fn steal_hits(&self) -> u64 {
        self.workers.iter().map(|w| w.steal_hits).sum()
    }

    /// Total failed steal probes across workers.
    pub fn steal_misses(&self) -> u64 {
        self.workers.iter().map(|w| w.steal_misses).sum()
    }

    /// Total sleep-protocol entries across workers.
    pub fn parks(&self) -> u64 {
        self.workers.iter().map(|w| w.parks).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_sum_over_workers() {
        let stats = PoolStats {
            width: 2,
            workers: vec![
                PoolWorkerStats {
                    steal_hits: 3,
                    steal_misses: 10,
                    parks: 1,
                },
                PoolWorkerStats {
                    steal_hits: 4,
                    steal_misses: 20,
                    parks: 2,
                },
            ],
            ..PoolStats::default()
        };
        assert_eq!(stats.steal_hits(), 7);
        assert_eq!(stats.steal_misses(), 30);
        assert_eq!(stats.parks(), 3);
    }

    #[test]
    fn publish_metrics_pushes_monotone_deltas_into_registry() {
        crate::force_width(4);
        msf_obs::metrics::set_enabled(true);
        publish_metrics(); // sync whatever ran before this test
        let before = msf_obs::metrics::snapshot()
            .counter("pool.injector_pushes")
            .unwrap_or(0);
        // A join from outside the pool always injects its `b` half, unless
        // it runs inline (width 1, or the hatch): then no pool work moves
        // any counter, in this test or in any other.
        assert_eq!(crate::join(|| 1u32, || 2u32), (1, 2));
        publish_metrics();
        let mid = msf_obs::metrics::snapshot()
            .counter("pool.injector_pushes")
            .expect("pool.injector_pushes must be registered after publish");
        if crate::runs_inline() {
            assert_eq!(mid, before, "injector pushes {before} -> {mid} inline");
        } else {
            assert!(mid > before, "injector pushes {before} -> {mid}");
        }
        // Republishing without new pool work never double-counts: the
        // registry value may only grow by what other tests' pool work
        // accrued, never shrink.
        publish_metrics();
        let after = msf_obs::metrics::snapshot()
            .counter("pool.injector_pushes")
            .unwrap();
        assert!(after >= mid);
        let snap = msf_obs::metrics::snapshot();
        for name in [
            "pool.steal_hits",
            "pool.steal_misses",
            "pool.parks",
            "pool.injector_pops",
            "pool.wakes",
        ] {
            assert!(snap.counter(name).is_some(), "{name} missing from registry");
        }
    }

    #[test]
    fn pool_work_moves_the_counters() {
        let width = crate::force_width(4);
        let before = crate::pool_stats();
        // Four one-index tasks from outside the pool: every external join
        // of the split injects its `b` half.
        assert_eq!(crate::map_collect(4, 1, |i| i * 10), vec![0, 10, 20, 30]);
        let after = crate::pool_stats();
        if crate::runs_inline() {
            // Everything ran on this thread: the pool never started, and no
            // counter moved.
            assert_eq!(after.width, 0);
            assert_eq!(after.injector_pushes, before.injector_pushes);
            assert_eq!(after.injector_pops, before.injector_pops);
            assert_eq!(after.steal_hits(), before.steal_hits());
            assert_eq!(after.wakes, before.wakes);
            return;
        }
        assert_eq!(after.width, width);
        assert_eq!(after.workers.len(), width);
        assert!(after.injector_pushes > before.injector_pushes);
        // Monotonicity across the board.
        assert!(after.injector_pops >= before.injector_pops);
        assert!(after.steal_hits() >= before.steal_hits());
        assert!(after.steal_misses() >= before.steal_misses());
        assert!(after.parks() >= before.parks());
        assert!(after.wakes >= before.wakes);
    }
}
