//! The process-global worker registry: persistent stealing workers, the
//! external-submission injector, the sleep/wake protocol, and `join`.

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};
use std::time::Duration;

use crate::deque::Deque;
use crate::job::{JobRef, StackJob};
use crate::latch::Latch;
use crate::telemetry::{PoolStats, RegistryCounters};

/// One stealing worker's view of the pool.
pub(crate) struct Registry {
    deques: Box<[Deque]>,
    /// FIFO queue for jobs submitted by threads that are not pool workers
    /// (and for fork-join `b` halves forked from such threads).
    injector: Mutex<VecDeque<JobRef>>,
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
        let deques = (0..width).map(|_| Deque::new()).collect();
        let registry: &'static Registry = Box::leak(Box::new(Registry {
            deques,
            injector: Mutex::new(VecDeque::new()),
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

    /// Push onto the calling worker's own deque, or run inline on overflow.
    /// Returns `true` if the job was enqueued.
    fn push_local(&self, worker: usize, job: JobRef) -> bool {
        if self.deques[worker].push(job) {
            self.wake_sleepers();
            true
        } else {
            self.counters.overflows.bump();
            false
        }
    }

    /// Submit a job from a non-pool thread.
    fn inject(&self, job: JobRef) {
        self.injector
            .lock()
            .expect("injector mutex poisoned")
            .push_back(job);
        self.counters.injector_pushes.bump();
        self.wake_sleepers();
    }

    /// Remove a not-yet-claimed injected job by identity. Used by external
    /// forkers to take their `b` half back and run it inline.
    fn try_remove_injected(&self, job_id: usize) -> bool {
        let mut queue = self.injector.lock().expect("injector mutex poisoned");
        if let Some(pos) = queue.iter().position(|j| j.id() == job_id) {
            queue.remove(pos);
            true
        } else {
            false
        }
    }

    fn wake_sleepers(&self) {
        // Dekker/store-buffer pattern with the sleep path: we published work
        // (deque CAS / injector unlock — neither SeqCst) and now load
        // `sleepers`; the sleeper increments `sleepers` and then loads the
        // work queues. SeqCst fences on both sides (here and in
        // `worker_main`) make the two pairs totally ordered, so either we
        // observe the sleeper (and notify under the lock) or the sleeper
        // observes our work — a wakeup can no longer fall between.
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
        !self
            .injector
            .lock()
            .expect("injector mutex poisoned")
            .is_empty()
            || self.deques.iter().any(|d| !d.is_empty())
    }

    fn pop_injected(&self) -> Option<JobRef> {
        let job = self
            .injector
            .lock()
            .expect("injector mutex poisoned")
            .pop_front();
        if job.is_some() {
            self.counters.injector_pops.bump();
        }
        job
    }

    /// One full scan: own deque, injector, then every other worker's deque
    /// starting from a rotating offset.
    fn find_work(&self, me: usize, rotor: &mut usize) -> Option<JobRef> {
        if let Some(job) = self.deques[me].pop() {
            return Some(job);
        }
        if let Some(job) = self.pop_injected() {
            return Some(job);
        }
        // Time the steal scan only while metrics are on (the gate is one
        // relaxed load); a hit records how long this worker hunted before
        // finding a victim with work.
        let scan_start =
            crate::telemetry::STEAL_LATENCY_NS.timer_start(msf_obs::metrics::enabled());
        let p = self.deques.len();
        *rotor = rotor.wrapping_add(1);
        for offset in 0..p {
            let victim = (*rotor + offset) % p;
            if victim == me {
                continue;
            }
            if let Some(job) = self.deques[victim].steal() {
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
                // SAFETY: the deque/injector hand out each JobRef exactly
                // once, and its forker latch-joins before the job object
                // dies.
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

    /// Worker-side latch wait: keep executing other jobs (our own deque
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

    /// `join` called from a pool worker: fork `b` onto our own deque, run
    /// `a` inline, then pop `b` back or steal-wait for the thief.
    fn join_worker<A, B, RA, RB>(&self, me: usize, a: A, b: B) -> (RA, RB)
    where
        A: FnOnce() -> RA + Send,
        B: FnOnce() -> RB + Send,
        RA: Send,
        RB: Send,
    {
        let job_b = StackJob::new(b);
        if !self.push_local(me, job_b.as_job_ref()) {
            // Deque full: run both inline, in the documented sequential
            // order — `a` first, so `b` never runs when `a` panics.
            let ra = a();
            let rb = job_b.run_inline();
            return (ra, rb);
        }
        let ra = std::panic::catch_unwind(std::panic::AssertUnwindSafe(a));
        // Settle `b` before propagating any panic from `a`: the job object
        // references this stack frame and must not be left reachable.
        match self.deques[me].pop() {
            Some(job) if job.id() == job_b.as_job_ref().id() => {
                // Popped our own fork back, unstolen: run it inline.
                match ra {
                    Ok(ra) => (ra, job_b.run_inline()),
                    // `a` panicked: sequential `(a(), b())` would never
                    // reach `b`, so drop the unstolen fork and propagate.
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
            Some(other) => {
                // LIFO discipline means the only way our fork is not on top
                // is that a thief took it; `other` is a different job forked
                // by code `a` ran?? — impossible: `a`'s nested joins settle
                // their own forks before returning. Execute defensively and
                // fall through to waiting.
                // SAFETY: handed out exactly once by the pop above.
                unsafe { other.execute() };
                self.finish_stolen(me, &job_b, ra)
            }
            None => self.finish_stolen(me, &job_b, ra),
        }
    }

    /// Our fork was stolen: steal-wait on its latch, then combine results.
    fn finish_stolen<F, RA, RB>(
        &self,
        me: usize,
        job_b: &StackJob<F, RB>,
        ra: std::thread::Result<RA>,
    ) -> (RA, RB)
    where
        F: FnOnce() -> RB + Send,
        RB: Send,
    {
        self.wait_latch_stealing(me, job_b.latch());
        let rb = job_b.take_result();
        match (ra, rb) {
            (Ok(ra), Ok(rb)) => (ra, rb),
            // `a`'s panic wins when both sides panicked, matching the
            // sequential order of observation.
            (Err(payload), _) => std::panic::resume_unwind(payload),
            (Ok(_), Err(payload)) => std::panic::resume_unwind(payload),
        }
    }

    /// `join` called from outside the pool: inject `b`, run `a` inline, then
    /// claim `b` back from the injector (run inline) or park on its latch.
    fn join_external<A, B, RA, RB>(&self, a: A, b: B) -> (RA, RB)
    where
        A: FnOnce() -> RA + Send,
        B: FnOnce() -> RB + Send,
        RA: Send,
        RB: Send,
    {
        let job_b = StackJob::new(b);
        let job_ref = job_b.as_job_ref();
        self.inject(job_ref);
        let ra = std::panic::catch_unwind(std::panic::AssertUnwindSafe(a));
        if self.try_remove_injected(job_ref.id()) {
            // No worker claimed it; it is exclusively ours again.
            match ra {
                Ok(ra) => (ra, job_b.run_inline()),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        } else {
            // A worker claimed it; wait for completion before touching the
            // result or letting the stack frame die.
            job_b.latch().wait_parked();
            let rb = job_b.take_result();
            match (ra, rb) {
                (Ok(ra), Ok(rb)) => (ra, rb),
                (Err(payload), _) => std::panic::resume_unwind(payload),
                (Ok(_), Err(payload)) => std::panic::resume_unwind(payload),
            }
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

/// Potentially-parallel `join`: see [`crate::join`] for the public contract.
pub(crate) fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let registry = global();
    match current_worker() {
        Some(me) => registry.join_worker(me, a, b),
        None => registry.join_external(a, b),
    }
}
