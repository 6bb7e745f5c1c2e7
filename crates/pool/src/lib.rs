//! `msf_pool`: the persistent work-stealing execution backend under every
//! parallel kernel of the workspace.
//!
//! The pool is **lazily initialized** (first `join`/width query builds it),
//! **process-global** (one registry, leaked for `'static`), and
//! **persistent** (workers live for the process). Its stealing workers run
//! fork-join jobs from job queues of one type, a mutex-guarded `VecDeque`:
//! one per worker (the owner works LIFO at the back, thieves take FIFO from
//! the front) plus an injector for forks from threads outside the pool.
//! These power [`join`] and the data-parallel loops built on it:
//! [`map_collect`] (the `p`-block par-for and the par map-collect over an
//! index domain), [`map_mut`] (one task per per-block state) and
//! [`fill_regions`] (vectors built from per-block regions of known length,
//! each block writing its own). Every "for processor p_i" step of the
//! paper, MST-BC's concurrent Prim growers included, is one of these loops.
//!
//! # Sequential escape hatch
//! Two independent switches force the exact pre-pool sequential behaviour
//! (same thread, same order, no pool threads touched):
//!
//! - `MSF_SEQUENTIAL=1` (or `true`/`yes`) in the environment,
//! - [`with_sequential`], a scoped, thread-local override for in-process
//!   A/B comparisons (used by the thread-count matrix tests).
//!
//! # Width
//! `MSF_POOL_THREADS` pins the worker count; otherwise the host's available
//! parallelism is used. The width is frozen at first pool touch.

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

mod job;
mod latch;
mod loops;
mod queue;
mod registry;
mod telemetry;

use std::cell::Cell;
use std::sync::OnceLock;

pub use loops::{fill_regions, map_collect, map_mut, Sink};
pub use telemetry::{publish_metrics, PoolStats, PoolWorkerStats};

/// A monotone snapshot of the pool's lifetime telemetry counters (steals,
/// injector traffic, parks/wakes). Never starts the pool:
/// before first use all counters are zero and `width` is 0.
pub fn pool_stats() -> PoolStats {
    registry::stats_snapshot()
}

/// Zero the pool's lifetime telemetry counters (steals, injector traffic,
/// parks/wakes), so a test can assert on the deltas of *its own*
/// work rather than on whatever ran earlier in the process. **Test
/// isolation only**: counters are normally monotone for the process
/// lifetime, and racing workers may be mid-increment — call this only at
/// quiescence (no in-flight pool work).
pub fn reset_telemetry_for_test() {
    registry::reset_telemetry_for_test();
    telemetry::reset_published_for_test();
}

/// True when the process-wide sequential escape hatch is on:
/// `MSF_SEQUENTIAL=1|true|yes` in the environment (checked once, at first
/// use).
pub fn sequential_env() -> bool {
    static FROM_ENV: OnceLock<bool> = OnceLock::new();
    *FROM_ENV.get_or_init(|| {
        std::env::var("MSF_SEQUENTIAL")
            .map(|v| {
                let v = v.trim().to_ascii_lowercase();
                !v.is_empty() && v != "0" && v != "false" && v != "no"
            })
            .unwrap_or(false)
    })
}

thread_local! {
    static SEQ_DEPTH: Cell<u32> = const { Cell::new(0) };
}

/// True when the calling thread must execute sequentially: the process-wide
/// escape hatch is on, or the call is inside [`with_sequential`].
#[inline]
pub fn sequential_here() -> bool {
    SEQ_DEPTH.with(Cell::get) > 0 || sequential_env()
}

/// Run `f` with the sequential escape hatch forced on for the calling
/// thread (nesting-safe). Everything under `f` that consults the pool —
/// `join`, `map_collect`, `map_mut`, `fill_regions` — runs inline on this
/// thread in deterministic sequential order, exactly like
/// `MSF_SEQUENTIAL=1`.
pub fn with_sequential<R>(f: impl FnOnce() -> R) -> R {
    struct Guard;
    impl Drop for Guard {
        fn drop(&mut self) {
            SEQ_DEPTH.with(|d| d.set(d.get() - 1));
        }
    }
    SEQ_DEPTH.with(|d| d.set(d.get() + 1));
    let _guard = Guard;
    f()
}

static WIDTH: OnceLock<usize> = OnceLock::new();

/// The width `MSF_POOL_THREADS` pins, if it is set to a number (clamped to
/// 1..=1024).
fn env_width() -> Option<usize> {
    let v = std::env::var("MSF_POOL_THREADS").ok()?;
    v.trim().parse::<usize>().ok().map(|n| n.clamp(1, 1024))
}

/// The pool width: `MSF_POOL_THREADS` if set (clamped to 1..=1024), else
/// the host's available parallelism. Frozen at first call.
pub fn width() -> usize {
    *WIDTH.get_or_init(|| {
        env_width().unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
    })
}

/// Pin the pool width before the pool's first use, for tests that need
/// real concurrency regardless of the host (e.g. on a 1-core CI runner).
/// `MSF_POOL_THREADS` wins when it is set, so a CI job can run the same
/// tests at another width. No-op if the width is already frozen; returns
/// the effective width, which callers assert against.
#[doc(hidden)]
pub fn force_width(n: usize) -> usize {
    if env_width().is_none() {
        let _ = WIDTH.set(n.clamp(1, 1024));
    }
    width()
}

/// Potentially-parallel `join`: runs `a` on the calling thread while `b` is
/// offered to the pool, returning both results.
///
/// Runs strictly sequentially as `(a(), b())` when [`runs_inline`] (the
/// pool is then never even started).
///
/// # Panics
/// If both closures panic, `a`'s payload is propagated (matching the
/// sequential order of observation); either way the other closure is fully
/// settled before unwinding.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    if runs_inline() {
        let ra = a();
        let rb = b();
        return (ra, rb);
    }
    registry::global().join(registry::current_worker(), a, b)
}

/// True when `join`, `map_collect` and `map_mut` run everything inline on
/// the calling thread: the escape hatch is on ([`sequential_here`]) or the
/// pool has a single worker.
#[inline]
pub fn runs_inline() -> bool {
    sequential_here() || width() == 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    /// Tests share a process: pin the width before any pool touch so every
    /// test sees real concurrency even on a 1-core host.
    fn pool_width_4() {
        force_width(4);
    }

    #[test]
    fn join_returns_both_and_nests() {
        pool_width_4();
        fn sum(range: std::ops::Range<u64>) -> u64 {
            if range.end - range.start <= 64 {
                return range.sum();
            }
            let mid = range.start + (range.end - range.start) / 2;
            let (a, b) = join(|| sum(range.start..mid), || sum(mid..range.end));
            a + b
        }
        assert_eq!(sum(0..10_000), (0..10_000u64).sum());
    }

    #[test]
    fn join_runs_closures_exactly_once() {
        pool_width_4();
        for _ in 0..200 {
            let calls = Arc::new(AtomicUsize::new(0));
            let (ca, cb) = (Arc::clone(&calls), Arc::clone(&calls));
            let (ra, rb) = join(
                move || ca.fetch_add(1, Ordering::SeqCst),
                move || cb.fetch_add(1, Ordering::SeqCst),
            );
            assert_eq!(calls.load(Ordering::SeqCst), 2);
            // fetch_add returns the prior count: one side saw 0, the other 1.
            assert_eq!(ra + rb, 1);
        }
    }

    /// A join tree rooted on one pool worker: its forks land on that
    /// worker's own queue, so any other worker that runs a leaf stole it
    /// from there.
    #[test]
    fn worker_forks_are_stolen_and_run_exactly_once() {
        pool_width_4();
        fn tree(leaves: &[AtomicUsize]) {
            if let [leaf] = leaves {
                // Spin briefly, so idle workers find forks pending.
                (0..2_000u64).for_each(|i| _ = std::hint::black_box(i));
                leaf.fetch_add(1, Ordering::SeqCst);
                return;
            }
            let (lo, hi) = leaves.split_at(leaves.len() / 2);
            join(|| tree(lo), || tree(hi));
        }
        let before = pool_stats().steal_hits();
        // A thief needs a core, and other tests' threads may hold the
        // host's few: after eight rounds, repeat until some worker stole.
        let deadline = Instant::now() + Duration::from_secs(30);
        for round in 1.. {
            let leaves: Vec<AtomicUsize> = (0..256).map(|_| AtomicUsize::new(0)).collect();
            if runs_inline() {
                tree(&leaves);
            } else {
                // This thread is not a worker, so `join` hands `b` to the
                // injector; `a` holds on until a worker has claimed it.
                let rooted = AtomicBool::new(false);
                let wait = || {
                    while !rooted.load(Ordering::SeqCst) {
                        std::hint::spin_loop()
                    }
                };
                join(wait, || {
                    assert!(registry::current_worker().is_some());
                    rooted.store(true, Ordering::SeqCst);
                    tree(&leaves);
                });
            }
            let once = leaves.iter().all(|l| l.load(Ordering::SeqCst) == 1);
            assert!(once, "round {round}: a leaf ran twice or never");
            if round >= 8 && (runs_inline() || pool_stats().steal_hits() > before) {
                break;
            }
            assert!(Instant::now() < deadline, "no steal in {round} rounds");
        }
    }

    #[test]
    fn join_propagates_panic_from_either_side() {
        pool_width_4();
        let caught = std::panic::catch_unwind(|| join(|| -> u32 { panic!("side a") }, || 7u32));
        assert!(caught.is_err());
        let caught = std::panic::catch_unwind(|| join(|| 7u32, || -> u32 { panic!("side b") }));
        assert!(caught.is_err());
    }

    #[test]
    fn with_sequential_is_scoped_and_nested() {
        assert_eq!(SEQ_DEPTH.with(Cell::get), 0);
        with_sequential(|| {
            assert!(sequential_here());
            with_sequential(|| assert!(sequential_here()));
            assert!(sequential_here());
        });
        assert_eq!(SEQ_DEPTH.with(Cell::get), 0);
    }

    #[test]
    fn sequential_join_preserves_evaluation_order() {
        pool_width_4();
        with_sequential(|| {
            let order = AtomicUsize::new(0);
            let (a, b) = join(
                || {
                    assert_eq!(order.swap(1, Ordering::SeqCst), 0);
                    1
                },
                || {
                    assert_eq!(order.swap(2, Ordering::SeqCst), 1);
                    2
                },
            );
            assert_eq!((a, b), (1, 2));
        });
    }
}
