//! Churn stress for the fork-join completion latch.
//!
//! Two threads that are not pool workers fire many short `join`s at a
//! two-worker pool (or the width `MSF_POOL_THREADS` pins). Each `join` forks its `b` half into the injector and
//! parks on a latch that lives in the forker's stack frame; when a worker
//! steals `b`, the worker's `Latch::set` races the forker returning and
//! reusing that frame for the next `join`. The test checks every result and
//! that the run finishes: a `set` that wrote into the reused frame could
//! corrupt it, and a wake-up lost between `set` taking the parked waiter
//! and storing `SET` would hang a forker. The race window is nanoseconds
//! wide, so a clean run is evidence, not proof.

use std::sync::atomic::{AtomicU64, Ordering};

const FORKERS: u64 = 2;
const JOINS_PER_FORKER: u64 = 60_000;

/// `rounds` steps of dependent arithmetic (a few nanoseconds each).
fn spin(x: u64, rounds: u64) -> u64 {
    let mut h = x;
    for _ in 0..rounds {
        h = h.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17) ^ x;
    }
    h
}

#[test]
fn external_joins_churn_on_a_two_worker_pool() {
    // Two workers unless `MSF_POOL_THREADS` pins another width; the
    // race needs at least two, so that workers steal the forked halves. At
    // width 1, or under the hatch, every join runs on its forker: the
    // results are still checked, and nothing may be stolen.
    msf_pool::force_width(2);
    let before = msf_pool::pool_stats().injector_pops;
    let checked = AtomicU64::new(0);
    std::thread::scope(|s| {
        for t in 0..FORKERS {
            let checked = &checked;
            s.spawn(move || {
                for i in 0..JOINS_PER_FORKER {
                    let x = t * JOINS_PER_FORKER + i;
                    // Sweep the `a` half's length against a fixed `b`, so
                    // some joins see `b` finish exactly while the forker
                    // polls its latch: the window a late `set` write hits.
                    let rounds = (i % 64) * 8;
                    let (a, b) = msf_pool::join(|| spin(x, rounds), || spin(!x, 256));
                    let expected = (spin(x, rounds), spin(!x, 256));
                    assert_eq!((a, b), expected, "join {x} returned wrong results");
                    checked.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    assert_eq!(checked.load(Ordering::Relaxed), FORKERS * JOINS_PER_FORKER);
    // The stress is only meaningful if workers really stole forks and set
    // their latches while the forkers were waiting.
    let stolen = msf_pool::pool_stats().injector_pops - before;
    if msf_pool::runs_inline() {
        assert_eq!(stolen, 0, "an inline join reached the injector");
    } else {
        assert!(stolen > 0, "no fork was ever stolen from the injector");
    }
}
