//! Type-erased job references and stack-allocated fork-join jobs.
//!
//! A [`JobRef`] is the unit the job queues move around: a thin
//! `(data, exec)` pair pointing at a job object that lives on the stack of
//! the thread that created it. The creating thread never returns past the
//! job's lifetime: it either takes the job back and runs it inline, or blocks
//! on the job's latch until the thief that stole it has finished executing.

use std::cell::UnsafeCell;
use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::latch::Latch;

/// Erased pointer to an executable job. The pointee must outlive every use,
/// which the fork-join protocol guarantees by latch-joining before return.
#[derive(Clone, Copy)]
pub(crate) struct JobRef {
    data: *const (),
    exec: unsafe fn(*const ()),
}

// SAFETY: a JobRef is only ever executed once, and the job object it points
// at is Sync-compatible by construction (all mutation goes through
// UnsafeCells that the execute-once discipline keeps exclusive).
unsafe impl Send for JobRef {}

impl JobRef {
    pub(crate) fn new(data: *const (), exec: unsafe fn(*const ())) -> JobRef {
        JobRef { data, exec }
    }

    /// The erased data pointer, used as the job's identity.
    pub(crate) fn id(&self) -> usize {
        self.data as usize
    }

    /// Run the job.
    ///
    /// # Safety
    /// Must be called at most once, while the job object is still alive.
    pub(crate) unsafe fn execute(self) {
        // SAFETY: forwarded contract.
        unsafe { (self.exec)(self.data) }
    }
}

/// A fork-join job allocated on the forking thread's stack: the closure, a
/// slot for its (caught) result, and the latch the forker joins on.
pub(crate) struct StackJob<F, R> {
    func: UnsafeCell<Option<F>>,
    result: UnsafeCell<Option<std::thread::Result<R>>>,
    latch: Latch,
}

// SAFETY: the fork-join protocol makes all UnsafeCell accesses exclusive:
// the executing thread (forker or thief, never both — a queue hands each
// job out once, under its lock) writes func/result, and the forker reads
// the result only after the latch's release/acquire edge.
unsafe impl<F: Send, R: Send> Sync for StackJob<F, R> {}

impl<F, R> StackJob<F, R>
where
    F: FnOnce() -> R + Send,
    R: Send,
{
    pub(crate) fn new(f: F) -> StackJob<F, R> {
        StackJob {
            func: UnsafeCell::new(Some(f)),
            result: UnsafeCell::new(None),
            latch: Latch::new(),
        }
    }

    pub(crate) fn latch(&self) -> &Latch {
        &self.latch
    }

    pub(crate) fn as_job_ref(&self) -> JobRef {
        JobRef::new(self as *const Self as *const (), Self::execute_erased)
    }

    /// Entry point for a thief: run the closure, park the caught result, and
    /// release the latch.
    ///
    /// # Safety
    /// `ptr` must point at a live `StackJob` whose closure has not been
    /// taken, and no other thread may be executing it.
    unsafe fn execute_erased(ptr: *const ()) {
        // SAFETY: contract above; a queue hands out each JobRef once.
        let this = unsafe { &*(ptr as *const Self) };
        // SAFETY: exclusive access per the execute-once discipline.
        let func = unsafe { &mut *this.func.get() }
            .take()
            .expect("fork-join job executed twice");
        let result = catch_unwind(AssertUnwindSafe(func));
        // SAFETY: exclusive access; the forker reads only after latch.set().
        unsafe { *this.result.get() = Some(result) };
        this.latch.set();
    }

    /// Run the closure inline on the forking thread (after taking the job
    /// back unclaimed). Panics propagate directly.
    pub(crate) fn run_inline(&self) -> R {
        // SAFETY: the job was taken back, so no thief holds a reference.
        let func = unsafe { &mut *self.func.get() }
            .take()
            .expect("fork-join job executed twice");
        func()
    }

    /// Take the result deposited by a thief. Call only after the latch is
    /// set (that edge makes the write visible).
    pub(crate) fn take_result(&self) -> std::thread::Result<R> {
        debug_assert!(self.latch.probe(), "result taken before latch was set");
        // SAFETY: the thief finished (latch release/acquire) and dropped its
        // reference; the forker is the only accessor now.
        unsafe { &mut *self.result.get() }
            .take()
            .expect("stolen job completed without a result")
    }
}
