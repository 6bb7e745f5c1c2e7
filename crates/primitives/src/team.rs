//! SPMD thread team with reusable barriers.
//!
//! The paper's algorithms are written per-processor ("for processor pi,
//! 0 ≤ i ≤ p−1") with implicit barrier synchronization between steps — the
//! execution model of the SIMPLE library the authors built on. [`SmpTeam`]
//! reproduces it: `p` ranks run the same closure, each sees its rank, and
//! [`TeamCtx::barrier`] lines the phases up.
//!
//! Since the pool backend landed, `run` **leases** `p` persistent team
//! threads from [`msf_pool`] instead of spawning (and joining) `p` OS
//! threads per invocation — a Borůvka algorithm calling `run` once per
//! phase pays thread startup once per *process*, not once per phase. The
//! rank barrier is a reusable [sense-reversing barrier](msf_pool::SenseBarrier).
//! Under `MSF_SEQUENTIAL=1` (or `msf_pool::with_sequential`) `run` falls
//! back to the pre-pool scoped-thread implementation so the pool is never
//! touched, and nested data-parallel calls inside the closure stay
//! sequential too.
//!
//! # Panic propagation contract
//! If any rank's closure panics, `run` (both paths) first **poisons the
//! team barrier** — every sibling rank blocked in, or later reaching,
//! [`TeamCtx::barrier`] aborts by panicking with
//! [`msf_pool::BarrierPoisoned`] instead of deadlocking on the dead rank —
//! then waits for every rank to settle, and finally re-throws the
//! lowest-ranked *original* payload (secondary `BarrierPoisoned` casualties
//! are never chosen over the real panic). Partial per-rank results are
//! dropped.
//!
//! Data-parallel primitives (sorts, scans) use the pool's `map_collect` and
//! `map_mut` loops internally; the SPMD team is reserved for the algorithm skeletons whose structure
//! genuinely is "p coordinated sequential programs", like MST-BC's
//! concurrent Prim growth.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use msf_pool::{BarrierPoisoned, SenseBarrier};

/// Handle given to every member of a running team.
pub struct TeamCtx<'a> {
    /// This thread's rank in `0..p`.
    pub rank: usize,
    /// Team width.
    pub p: usize,
    barrier: &'a SenseBarrier,
}

impl TeamCtx<'_> {
    /// Block until every team member arrives. Panics with
    /// [`msf_pool::BarrierPoisoned`] if a sibling rank has panicked.
    #[inline]
    pub fn barrier(&self) {
        self.barrier.wait();
    }

    /// This rank's block of a `0..n` index space (contiguous, balanced).
    #[inline]
    pub fn block(&self, n: usize) -> std::ops::Range<usize> {
        crate::block_range(n, self.p, self.rank)
    }
}

/// A fixed-width SPMD team. Creating the team is free; [`SmpTeam::run`]
/// leases persistent pool threads, so repeated runs (one per Borůvka phase)
/// reuse the same OS threads and a reusable sense-reversing barrier.
#[derive(Debug, Clone, Copy)]
pub struct SmpTeam {
    p: usize,
}

impl SmpTeam {
    /// A team of `p` workers (`p >= 1`).
    pub fn new(p: usize) -> Self {
        SmpTeam { p: p.max(1) }
    }

    /// Team width.
    #[inline]
    pub fn width(&self) -> usize {
        self.p
    }

    /// Run `f` on every member; returns the per-rank results in rank order.
    ///
    /// When tracing is enabled (see [`crate::obs`]) the whole run is wrapped
    /// in a `team-run` span (`a = p`) on the calling thread, and each rank's
    /// closure in a `rank` span (`a = rank`, `b = p`) on the thread that
    /// executes it — rank 0 of a pooled run executes inline on the caller.
    ///
    /// See the module docs for the panic-propagation contract.
    pub fn run<R, F>(&self, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&TeamCtx<'_>) -> R + Sync,
    {
        let p = self.p;
        let _team_run = crate::obs::span(crate::obs::SpanKind::TeamRun, p as u64, 0);
        let barrier = SenseBarrier::new(p);
        if p == 1 {
            // Degenerate team: run inline, still honoring barrier() calls.
            let ctx = TeamCtx {
                rank: 0,
                p: 1,
                barrier: &barrier,
            };
            let _rank = crate::obs::span(crate::obs::SpanKind::Rank, 0, 1);
            return vec![f(&ctx)];
        }
        if msf_pool::sequential_here() {
            return run_scoped(p, &barrier, &f);
        }
        msf_pool::run_team_collect(p, |rank| {
            let ctx = TeamCtx {
                rank,
                p,
                barrier: &barrier,
            };
            let _rank = crate::obs::span(crate::obs::SpanKind::Rank, rank as u64, p as u64);
            match catch_unwind(AssertUnwindSafe(|| f(&ctx))) {
                Ok(result) => result,
                Err(payload) => {
                    // Free the sibling ranks before unwinding (see the
                    // panic contract): a rank parked on the barrier must
                    // die, not wait for us forever.
                    barrier.poison();
                    resume_unwind(payload)
                }
            }
        })
    }
}

/// Pre-pool implementation: `p` scoped OS threads per run. Used under the
/// sequential escape hatch, where touching the persistent pool is not
/// allowed; the escape hatch is propagated into each rank thread so nested
/// data-parallel calls stay sequential there too.
fn run_scoped<R, F>(p: usize, barrier: &SenseBarrier, f: &F) -> Vec<R>
where
    R: Send,
    F: Fn(&TeamCtx<'_>) -> R + Sync,
{
    let mut results: Vec<Option<R>> = (0..p).map(|_| None).collect();
    let panics: std::sync::Mutex<Vec<(usize, Box<dyn std::any::Any + Send>)>> =
        std::sync::Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for (rank, slot) in results.iter_mut().enumerate() {
            let panics = &panics;
            scope.spawn(move || {
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    msf_pool::with_sequential(|| {
                        let ctx = TeamCtx { rank, p, barrier };
                        let _rank =
                            crate::obs::span(crate::obs::SpanKind::Rank, rank as u64, p as u64);
                        f(&ctx)
                    })
                }));
                match outcome {
                    Ok(result) => *slot = Some(result),
                    Err(payload) => {
                        barrier.poison();
                        panics
                            .lock()
                            .expect("panic list poisoned")
                            .push((rank, payload));
                    }
                }
            });
        }
    });
    let mut panics = panics.into_inner().expect("panic list poisoned");
    if !panics.is_empty() {
        panics.sort_by_key(|(rank, _)| *rank);
        let original = panics
            .iter()
            .position(|(_, payload)| !payload.is::<BarrierPoisoned>())
            .unwrap_or(0);
        resume_unwind(panics.swap_remove(original).1);
    }
    results
        .into_iter()
        .map(|r| r.expect("worker completed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn pool() {
        msf_pool::force_width(4);
    }

    #[test]
    fn results_come_back_in_rank_order() {
        pool();
        let team = SmpTeam::new(4);
        let out = team.run(|ctx| ctx.rank * 10);
        assert_eq!(out, vec![0, 10, 20, 30]);
    }

    #[test]
    fn width_one_runs_inline() {
        pool();
        let team = SmpTeam::new(1);
        let out = team.run(|ctx| {
            ctx.barrier(); // must not deadlock
            ctx.p
        });
        assert_eq!(out, vec![1]);
    }

    #[test]
    fn barrier_separates_phases() {
        pool();
        // Phase 1: everyone increments. Phase 2: everyone must observe p.
        let team = SmpTeam::new(4);
        let counter = AtomicUsize::new(0);
        let observed = team.run(|ctx| {
            counter.fetch_add(1, Ordering::SeqCst);
            ctx.barrier();
            counter.load(Ordering::SeqCst)
        });
        assert_eq!(observed, vec![4, 4, 4, 4]);
    }

    #[test]
    fn blocks_cover_index_space() {
        pool();
        let team = SmpTeam::new(3);
        let n = 100;
        let ranges = team.run(|ctx| ctx.block(n));
        let total: usize = ranges.iter().map(|r| r.len()).sum();
        assert_eq!(total, n);
        assert_eq!(ranges[0].start, 0);
        assert_eq!(ranges[2].end, n);
    }

    #[test]
    fn zero_width_clamps_to_one() {
        let team = SmpTeam::new(0);
        assert_eq!(team.width(), 1);
    }

    #[test]
    fn sequential_mode_matches_pooled_results() {
        pool();
        let team = SmpTeam::new(4);
        let pooled = team.run(|ctx| ctx.rank * 3 + 1);
        let seq = msf_pool::with_sequential(|| team.run(|ctx| ctx.rank * 3 + 1));
        assert_eq!(pooled, seq);
    }

    #[test]
    fn rank_panic_reaches_caller_not_deadlock() {
        pool();
        let team = SmpTeam::new(3);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            team.run(|ctx| {
                if ctx.rank == 2 {
                    panic!("rank 2 exploded");
                }
                ctx.barrier(); // poisoned by rank 2's unwinding
            })
        }));
        let payload = caught.expect_err("panic must propagate");
        assert_eq!(
            payload.downcast_ref::<&str>().copied(),
            Some("rank 2 exploded"),
            "original payload must win over BarrierPoisoned"
        );
    }
}
