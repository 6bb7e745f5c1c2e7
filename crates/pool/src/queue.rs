//! The pool's one job-queue type: a mutex-guarded `VecDeque` of
//! [`JobRef`]s. Every worker owns one, and the injector is one more that no
//! worker owns.
//!
//! - The **owner** (for the injector, any submitter) pushes at the back, and
//!   takes its own jobs back from the back: LIFO, which keeps recursive
//!   splits cache-hot.
//! - **Thieves** take from the front: FIFO, the oldest and therefore biggest
//!   pending split first.
//!
//! Every claim happens under the lock, so each job is handed out once. The
//! queue's length is mirrored in an atomic hint written under the lock, and
//! probes read the hint before locking: an idle thief polling an empty queue
//! only reads it, so it never bounces the line its owner pushes to.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::job::JobRef;

/// One job queue, padded to its own cache-line pair so the queues of
/// different workers never false-share.
#[repr(align(128))]
pub(crate) struct JobQueue {
    jobs: Mutex<VecDeque<JobRef>>,
    /// `jobs.len()`, stored under the lock after every change. `Relaxed`:
    /// the hint publishes no job (claims read the jobs under the lock), and
    /// the sleep protocol orders it with SeqCst fences
    /// (`Registry::wake_sleepers`).
    len: AtomicUsize,
}

impl JobQueue {
    pub(crate) fn new() -> JobQueue {
        JobQueue {
            jobs: Mutex::new(VecDeque::new()),
            len: AtomicUsize::new(0),
        }
    }

    /// Whether the queue looked empty at the last change this thread can
    /// see. A hint: only a locked claim decides who gets a job.
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.len.load(Ordering::Relaxed) == 0
    }

    /// Lock the queue, change it with `f`, and republish the length hint.
    fn update<R>(&self, f: impl FnOnce(&mut VecDeque<JobRef>) -> R) -> R {
        let mut jobs = self.jobs.lock().expect("job queue mutex poisoned");
        let out = f(&mut jobs);
        self.len.store(jobs.len(), Ordering::Relaxed);
        out
    }

    pub(crate) fn push(&self, job: JobRef) {
        self.update(|jobs| jobs.push_back(job));
    }

    /// The owner's pop: the newest job.
    pub(crate) fn pop_back(&self) -> Option<JobRef> {
        if self.is_empty() {
            return None;
        }
        self.update(VecDeque::pop_back)
    }

    /// A thief's (or the injector's consumer's) pop: the oldest job.
    pub(crate) fn pop_front(&self) -> Option<JobRef> {
        if self.is_empty() {
            return None;
        }
        self.update(VecDeque::pop_front)
    }

    /// Take the job with identity `id` back if no one has claimed it.
    /// Searches from the back, where a forker's job sits unless another
    /// forker sharing the queue pushed after it.
    pub(crate) fn take_back(&self, id: usize) -> bool {
        self.update(|jobs| {
            jobs.iter()
                .rposition(|j| j.id() == id)
                .and_then(|pos| jobs.remove(pos))
                .is_some()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A job that is never run: only its identity (`id`) matters here.
    fn job(id: &u8) -> JobRef {
        fn never_run(_: *const ()) {}
        JobRef::new(id as *const u8 as *const (), never_run)
    }

    #[test]
    fn owner_is_lifo_thieves_are_fifo() {
        let queue = JobQueue::new();
        let ids = [0u8; 4];
        let id = |i: usize| &ids[i] as *const u8 as usize;
        for i in &ids {
            queue.push(job(i));
        }
        // Thief takes the oldest (index 0), owner the newest (index 3).
        assert_eq!(queue.pop_front().expect("non-empty").id(), id(0));
        assert_eq!(queue.pop_back().expect("non-empty").id(), id(3));
        // Remaining: 1, 2. Take 1 back by identity from under 2.
        assert!(queue.take_back(id(1)));
        assert!(!queue.take_back(id(1)), "a claimed job is gone");
        assert_eq!(queue.pop_front().expect("non-empty").id(), id(2));
        assert!(queue.pop_back().is_none());
        assert!(queue.pop_front().is_none());
        assert!(queue.is_empty());
    }
}
