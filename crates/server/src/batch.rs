//! The small-job epoch batcher.
//!
//! Small requests (under the admission gate's large-job threshold) are not
//! worth a thread of their own contending for the pool: waking workers and
//! warming caches dominate the actual Borůvka work. Instead, all small jobs
//! funnel into one executor thread that drains its queue in *epochs* — it
//! blocks for the first job, then greedily drains everything already
//! queued and runs the batch back-to-back. Consecutive jobs in an epoch
//! reuse the shared pool's already-woken workers, so a burst of N small
//! computes pays roughly one wake-up, not N.
//!
//! Jobs are opaque closures; each handler thread submits a closure that
//! sends its result back over a private channel, so ordering across
//! clients is irrelevant and a slow small job only delays its own epoch.

use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Mutex;
use std::thread::JoinHandle;

use msf_obs::metrics::{LazyCounter, LazyHistogram};

static EPOCHS: LazyCounter = LazyCounter::new("serve.batch.epochs");
static JOBS: LazyCounter = LazyCounter::new("serve.batch.jobs");
static BATCH_SIZE: LazyHistogram = LazyHistogram::new("serve.batch.size");

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Handle to the executor thread; dropping (or [`Batcher::shutdown`])
/// drains outstanding jobs and joins.
pub struct Batcher {
    tx: Mutex<Option<Sender<Job>>>,
    executor: Mutex<Option<JoinHandle<()>>>,
}

impl Batcher {
    /// Spawn the executor thread.
    pub fn new() -> Batcher {
        let (tx, rx) = mpsc::channel::<Job>();
        let executor = std::thread::Builder::new()
            .name("msf-serve-batch".into())
            .spawn(move || run_epochs(rx))
            .expect("spawn batch executor");
        Batcher {
            tx: Mutex::new(Some(tx)),
            executor: Mutex::new(Some(executor)),
        }
    }

    /// Queue a job for the next epoch. Returns `false` after shutdown
    /// (the caller should run the job inline instead).
    pub fn submit(&self, job: Job) -> bool {
        match &*self.tx.lock().unwrap() {
            Some(tx) => tx.send(job).is_ok(),
            None => false,
        }
    }

    /// Run `f` on the batcher and wait for its result. `None` when the
    /// batcher has shut down (callers run inline instead).
    pub fn run<T: Send + 'static>(&self, f: impl FnOnce() -> T + Send + 'static) -> Option<T> {
        let (tx, rx): (Sender<T>, Receiver<T>) = mpsc::channel();
        {
            let guard = self.tx.lock().unwrap();
            let queue = guard.as_ref()?;
            let job: Job = Box::new(move || {
                let _ = tx.send(f());
            });
            queue.send(job).ok()?;
        }
        rx.recv().ok()
    }

    /// True while the executor accepts jobs.
    pub fn accepting(&self) -> bool {
        self.tx.lock().unwrap().is_some()
    }

    /// Stop accepting, drain queued jobs, and join the executor.
    pub fn shutdown(&self) {
        let tx = self.tx.lock().unwrap().take();
        drop(tx); // executor's recv() errors once the queue drains
        if let Some(handle) = self.executor.lock().unwrap().take() {
            let _ = handle.join();
        }
    }
}

impl Default for Batcher {
    fn default() -> Batcher {
        Batcher::new()
    }
}

impl Drop for Batcher {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn run_epochs(rx: Receiver<Job>) {
    // Block for the epoch's first job; a closed-and-empty queue ends the
    // executor.
    while let Ok(first) = rx.recv() {
        let mut batch = vec![first];
        while let Ok(job) = rx.try_recv() {
            batch.push(job);
        }
        EPOCHS.inc();
        JOBS.add(batch.len() as u64);
        BATCH_SIZE.record(batch.len() as u64);
        for job in batch.drain(..) {
            job();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;

    #[test]
    fn run_returns_results_from_the_executor_thread() {
        let batcher = Batcher::new();
        let main = std::thread::current().id();
        let (val, ran_on) = batcher
            .run(move || (21 * 2, std::thread::current().id()))
            .expect("batcher is accepting");
        assert_eq!(val, 42);
        assert_ne!(ran_on, main, "jobs run on the executor, not the caller");
        batcher.shutdown();
        assert!(!batcher.accepting());
        assert!(
            !batcher.submit(Box::new(|| {})),
            "submit after shutdown refuses"
        );
    }

    #[test]
    fn concurrent_submitters_all_complete() {
        let batcher = Arc::new(Batcher::new());
        let done = Arc::new(AtomicU32::new(0));
        let threads: Vec<_> = (0..8)
            .map(|i| {
                let batcher = Arc::clone(&batcher);
                let done = Arc::clone(&done);
                std::thread::spawn(move || {
                    let got = batcher.run(move || i * 10).expect("accepting");
                    assert_eq!(got, i * 10);
                    done.fetch_add(1, Ordering::SeqCst);
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(done.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn shutdown_drains_queued_jobs() {
        let batcher = Batcher::new();
        let count = Arc::new(AtomicU32::new(0));
        for _ in 0..16 {
            let count = Arc::clone(&count);
            assert!(batcher.submit(Box::new(move || {
                count.fetch_add(1, Ordering::SeqCst);
            })));
        }
        batcher.shutdown();
        assert_eq!(count.load(Ordering::SeqCst), 16, "every queued job ran");
    }
}
