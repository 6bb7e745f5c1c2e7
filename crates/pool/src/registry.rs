//! The process-global worker registry: persistent stealing workers, their
//! job queues and the injector, the sleep/wake protocol, and `join`.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};
use std::time::Duration;

use crate::job::{JobRef, StackJob};
use crate::latch::Latch;
use crate::queue::JobQueue;
use crate::telemetry::{PoolStats, RegistryCounters};

/// One stealing worker's view of the pool.
pub(crate) struct Registry {
    /// One queue per worker, indexed by worker id.
    queues: Box<[JobQueue]>,
    /// The queue no worker owns: jobs forked by threads outside the pool.
    injector: JobQueue,
    /// Count of workers inside the sleep protocol; publishers skip the
    /// condvar entirely while it is zero (the common case under load).
    sleepers: AtomicUsize,
    sleep_lock: Mutex<()>,
    wake: Condvar,
    /// Lifetime telemetry; see [`crate::telemetry`]. Counters live on rare
    /// paths only, so they are always on.
    counters: RegistryCounters,
}

static REGISTRY: OnceLock<&'static Registry> = OnceLock::new();

thread_local! {
    /// This thread's worker index, or `usize::MAX` for non-pool threads.
    static WORKER_INDEX: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// The calling thread's worker index, if it is a pool worker.
#[inline]
pub(crate) fn current_worker() -> Option<usize> {
    let idx = WORKER_INDEX.with(Cell::get);
    (idx != usize::MAX).then_some(idx)
}

/// Lazily create the global registry and spawn its workers. The width is
/// fixed at first touch (see [`crate::width`]).
pub(crate) fn global() -> &'static Registry {
    REGISTRY.get_or_init(|| {
        let width = crate::width();
        let registry: &'static Registry = Box::leak(Box::new(Registry {
            queues: (0..width).map(|_| JobQueue::new()).collect(),
            injector: JobQueue::new(),
            sleepers: AtomicUsize::new(0),
            sleep_lock: Mutex::new(()),
            wake: Condvar::new(),
            counters: RegistryCounters::new(width),
        }));
        for index in 0..width {
            std::thread::Builder::new()
                .name(format!("msf-pool-{index}"))
                .spawn(move || registry.worker_main(index))
                .expect("failed to spawn pool worker");
        }
        registry
    })
}

impl Registry {
    // ---- publication ---------------------------------------------------

    /// The queue a caller forks onto: a worker's own, or the injector for a
    /// thread outside the pool.
    fn queue(&self, worker: Option<usize>) -> &JobQueue {
        worker.map_or(&self.injector, |w| &self.queues[w])
    }

    fn push(&self, worker: Option<usize>, job: JobRef) {
        self.queue(worker).push(job);
        if worker.is_none() {
            self.counters.injector_pushes.bump();
        }
        self.wake_sleepers();
    }

    fn wake_sleepers(&self) {
        // Dekker/store-buffer pattern with the sleep path: we published work
        // (a queue's length hint, stored under its lock; neither the store
        // nor the unlock is SeqCst) and now load `sleepers`; the sleeper
        // increments `sleepers` and then loads the length hints. SeqCst
        // fences on both sides (here and in `worker_main`) make the two
        // pairs totally ordered, so either we observe the sleeper (and
        // notify under the lock) or the sleeper observes our hint — a wakeup
        // can no longer fall between.
        std::sync::atomic::fence(Ordering::SeqCst);
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            // Taking the lock pairs with the sleeper's locked re-check: the
            // sleeper either sees the published work or gets this notify.
            let _guard = self.sleep_lock.lock().expect("sleep mutex poisoned");
            self.wake.notify_all();
            self.counters.wakes.bump();
        }
    }

    // ---- work discovery ------------------------------------------------

    fn has_visible_work(&self) -> bool {
        !self.injector.is_empty() || self.queues.iter().any(|q| !q.is_empty())
    }

    /// One full scan: own queue, injector, then every other worker's queue
    /// starting from a rotating offset.
    fn find_work(&self, me: usize, rotor: &mut usize) -> Option<JobRef> {
        if let Some(job) = self.queues[me].pop_back() {
            return Some(job);
        }
        if let Some(job) = self.injector.pop_front() {
            self.counters.injector_pops.bump();
            return Some(job);
        }
        // Time the steal scan only while metrics are on (the gate is one
        // relaxed load); a hit records how long this worker hunted before
        // finding a victim with work.
        let scan_start =
            crate::telemetry::STEAL_LATENCY_NS.timer_start(msf_obs::metrics::enabled());
        let p = self.queues.len();
        *rotor = rotor.wrapping_add(1);
        for offset in 0..p {
            let victim = (*rotor + offset) % p;
            if victim == me {
                continue;
            }
            if let Some(job) = self.queues[victim].pop_front() {
                self.counters.workers[me]
                    .steal_hits
                    .fetch_add(1, Ordering::Relaxed);
                crate::telemetry::STEAL_LATENCY_NS.timer_record(scan_start);
                return Some(job);
            }
            self.counters.workers[me]
                .steal_misses
                .fetch_add(1, Ordering::Relaxed);
        }
        None
    }

    // ---- worker loop ---------------------------------------------------

    fn worker_main(&'static self, index: usize) {
        WORKER_INDEX.with(|cell| cell.set(index));
        // Pre-register this worker's span stack with the sampling profiler
        // so profiles carry the pool thread name even if the first profiled
        // span opens mid-run.
        msf_obs::profile::register_current_thread();
        let mut rotor = index;
        loop {
            if let Some(job) = self.find_work(index, &mut rotor) {
                // SAFETY: a queue hands out each JobRef exactly once, and
                // its forker latch-joins before the job object dies.
                unsafe { job.execute() };
                continue;
            }
            // Sleep protocol: register as a sleeper, fence (see
            // `wake_sleepers` for the pairing), re-check under the lock,
            // then wait. The timeout is a pure liveness backstop now, not a
            // correctness crutch for missed wakeups.
            let guard = self.sleep_lock.lock().expect("sleep mutex poisoned");
            self.sleepers.fetch_add(1, Ordering::SeqCst);
            std::sync::atomic::fence(Ordering::SeqCst);
            if !self.has_visible_work() {
                self.counters.workers[index]
                    .parks
                    .fetch_add(1, Ordering::Relaxed);
                let _ = self
                    .wake
                    .wait_timeout(guard, Duration::from_millis(2))
                    .expect("sleep mutex poisoned");
            }
            self.sleepers.fetch_sub(1, Ordering::SeqCst);
        }
    }

    // ---- latch waiting -------------------------------------------------

    /// Worker-side latch wait: keep executing other jobs (our own queue
    /// first — the stolen job may have forked children we must drain) until
    /// the latch is set. This is what makes nested `join` deadlock-free.
    fn wait_latch_stealing(&self, me: usize, latch: &Latch) {
        let mut rotor = me;
        let mut idle = 0u32;
        while !latch.probe() {
            if let Some(job) = self.find_work(me, &mut rotor) {
                // SAFETY: as in worker_main.
                unsafe { job.execute() };
                idle = 0;
                continue;
            }
            idle += 1;
            if idle < 32 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }

    // ---- fork-join -----------------------------------------------------

    /// Fork `b` onto the caller's queue, run `a` inline, then take `b` back
    /// and run it inline, or wait for whoever claimed it: a worker
    /// steal-waits, any other thread parks.
    pub(crate) fn join<A, B, RA, RB>(&self, me: Option<usize>, a: A, b: B) -> (RA, RB)
    where
        A: FnOnce() -> RA + Send,
        B: FnOnce() -> RB + Send,
        RA: Send,
        RB: Send,
    {
        let job_b = StackJob::new(b);
        let job_ref = job_b.as_job_ref();
        self.push(me, job_ref);
        let ra = std::panic::catch_unwind(std::panic::AssertUnwindSafe(a));
        // Settle `b` before propagating any panic from `a`: the job object
        // references this stack frame and must not be left reachable.
        if self.queue(me).take_back(job_ref.id()) {
            // No one claimed it; it is exclusively ours again.
            return match ra {
                Ok(ra) => (ra, job_b.run_inline()),
                // `a` panicked: sequential `(a(), b())` would never reach
                // `b`, so drop the unclaimed fork and propagate.
                Err(payload) => std::panic::resume_unwind(payload),
            };
        }
        // Claimed: wait for completion before touching the result or
        // letting the stack frame die.
        match me {
            Some(me) => self.wait_latch_stealing(me, job_b.latch()),
            None => job_b.latch().wait_parked(),
        }
        match (ra, job_b.take_result()) {
            (Ok(ra), Ok(rb)) => (ra, rb),
            // `a`'s panic wins when both sides panicked, matching the
            // sequential order of observation.
            (Err(payload), _) | (Ok(_), Err(payload)) => std::panic::resume_unwind(payload),
        }
    }
}

/// Zero the registry counters. Test isolation only; see
/// [`crate::reset_telemetry_for_test`].
pub(crate) fn reset_telemetry_for_test() {
    if let Some(registry) = REGISTRY.get() {
        registry.counters.reset_for_test();
    }
}

/// The current telemetry snapshot; zeros (width 0) when the pool was never
/// started, so the query itself does not force workers into existence.
pub(crate) fn stats_snapshot() -> PoolStats {
    REGISTRY
        .get()
        .map_or_else(PoolStats::default, |registry| registry.counters.snapshot())
}
