//! Admission control: a budgeted gate in front of the shared pool.
//!
//! Every request is costed in *work units*: `m + n` of its graph, a coarse
//! size that orders jobs, not a cost model. Small jobs — under the
//! large-job threshold — bypass the gate entirely and go to the epoch batcher, which
//! runs them back-to-back on one executor. Large jobs must acquire a
//! [`WorkPermit`]: the controller caps the total in-flight units, queues a
//! bounded number of waiters beyond that, and rejects with a protocol-level
//! `Overloaded` once the queue is full. Rejection over unbounded queueing
//! keeps tail latency honest — the client sees backpressure instead of a
//! timeout.
//!
//! The gate never starves an oversized job: a job larger than the whole
//! budget is admitted as soon as the gate is empty (`inflight == 0`).

use std::sync::{Condvar, Mutex};

use msf_obs::metrics::{LazyCounter, LazyGauge, LazyHistogram};

static ADMITTED: LazyCounter = LazyCounter::new("serve.admission.admitted");
static QUEUED: LazyCounter = LazyCounter::new("serve.admission.queued");
static REJECTED: LazyCounter = LazyCounter::new("serve.admission.rejected");
static INFLIGHT_UNITS: LazyGauge = LazyGauge::new("serve.admission.inflight_units");
static WAIT_NS: LazyHistogram = LazyHistogram::new("serve.admission.wait_ns");

/// Tuning knobs for the gate; [`Default`] matches the daemon's defaults.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionConfig {
    /// Jobs at or above this many units are "large" and must hold a permit.
    pub large_threshold: u64,
    /// Cap on the summed units of concurrently admitted large jobs.
    pub max_inflight_units: u64,
    /// Large jobs allowed to wait for capacity before rejection.
    pub max_queued: u32,
}

impl Default for AdmissionConfig {
    fn default() -> AdmissionConfig {
        AdmissionConfig {
            large_threshold: 1 << 17,
            max_inflight_units: 1 << 23,
            max_queued: 64,
        }
    }
}

struct Gate {
    inflight_units: u64,
    inflight_jobs: u32,
    waiting: u32,
}

/// The budgeted gate. Cheap to share behind an `Arc`.
pub struct Admission {
    cfg: AdmissionConfig,
    gate: Mutex<Gate>,
    freed: Condvar,
}

/// Outcome of an admission attempt.
pub enum Admitted<'a> {
    /// Under the large-job threshold: run on the small-job batcher, no
    /// permit needed.
    Small,
    /// Admitted (possibly after queueing); the permit returns the units on
    /// drop.
    Large(WorkPermit<'a>),
    /// Queue full — reply `Overloaded {queued, max}` and move on.
    Rejected {
        /// Waiters at rejection time.
        queued: u32,
        /// The queue bound.
        max: u32,
    },
}

impl Admission {
    /// A gate with the given knobs.
    pub fn new(cfg: AdmissionConfig) -> Admission {
        Admission {
            cfg,
            gate: Mutex::new(Gate {
                inflight_units: 0,
                inflight_jobs: 0,
                waiting: 0,
            }),
            freed: Condvar::new(),
        }
    }

    /// The configured knobs.
    pub fn config(&self) -> AdmissionConfig {
        self.cfg
    }

    /// True when a job of `units` goes to the small-job batcher.
    pub fn is_small(&self, units: u64) -> bool {
        units < self.cfg.large_threshold
    }

    /// Cost `units` against the budget, blocking while the gate is full
    /// and the queue has room.
    pub fn admit(&self, units: u64) -> Admitted<'_> {
        if self.is_small(units) {
            return Admitted::Small;
        }
        let start = std::time::Instant::now();
        let mut gate = self.gate.lock().unwrap();
        let fits = |g: &Gate| {
            g.inflight_jobs == 0 || g.inflight_units + units <= self.cfg.max_inflight_units
        };
        if !fits(&gate) {
            if gate.waiting >= self.cfg.max_queued {
                REJECTED.inc();
                return Admitted::Rejected {
                    queued: gate.waiting,
                    max: self.cfg.max_queued,
                };
            }
            gate.waiting += 1;
            QUEUED.inc();
            while !fits(&gate) {
                gate = self.freed.wait(gate).unwrap();
            }
            gate.waiting -= 1;
        }
        gate.inflight_units += units;
        gate.inflight_jobs += 1;
        drop(gate);
        ADMITTED.inc();
        INFLIGHT_UNITS.add(units);
        WAIT_NS.record(start.elapsed().as_nanos() as u64);
        Admitted::Large(WorkPermit { gate: self, units })
    }

    /// Units currently admitted (tests/scrape).
    pub fn inflight_units(&self) -> u64 {
        self.gate.lock().unwrap().inflight_units
    }

    fn release(&self, units: u64) {
        let mut gate = self.gate.lock().unwrap();
        gate.inflight_units -= units;
        gate.inflight_jobs -= 1;
        drop(gate);
        INFLIGHT_UNITS.sub(units);
        self.freed.notify_all();
    }
}

/// RAII hold on admitted units; dropping returns them and wakes waiters.
pub struct WorkPermit<'a> {
    gate: &'a Admission,
    units: u64,
}

impl WorkPermit<'_> {
    /// Units this permit holds.
    pub fn units(&self) -> u64 {
        self.units
    }
}

impl Drop for WorkPermit<'_> {
    fn drop(&mut self) {
        self.gate.release(self.units);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;

    #[test]
    fn small_jobs_bypass_the_gate() {
        let gate = Admission::new(AdmissionConfig::default());
        assert!(matches!(gate.admit(10), Admitted::Small));
        assert_eq!(gate.inflight_units(), 0);
    }

    #[test]
    fn permits_account_units_and_release_on_drop() {
        let cfg = AdmissionConfig {
            large_threshold: 100,
            max_inflight_units: 1000,
            max_queued: 4,
        };
        let gate = Admission::new(cfg);
        let p1 = match gate.admit(600) {
            Admitted::Large(p) => p,
            _ => panic!("should admit"),
        };
        assert_eq!(gate.inflight_units(), 600);
        assert_eq!(p1.units(), 600);
        let p2 = match gate.admit(400) {
            Admitted::Large(p) => p,
            _ => panic!("600+400 fits exactly"),
        };
        drop(p1);
        assert_eq!(gate.inflight_units(), 400);
        drop(p2);
        assert_eq!(gate.inflight_units(), 0);
    }

    #[test]
    fn oversized_job_admits_when_gate_is_empty() {
        let cfg = AdmissionConfig {
            large_threshold: 100,
            max_inflight_units: 1000,
            max_queued: 4,
        };
        let gate = Admission::new(cfg);
        // 5000 > max_inflight_units, but nothing is in flight.
        match gate.admit(5000) {
            Admitted::Large(p) => assert_eq!(p.units(), 5000),
            _ => panic!("empty gate must admit oversized jobs"),
        };
    }

    #[test]
    fn full_queue_rejects_instead_of_blocking() {
        let cfg = AdmissionConfig {
            large_threshold: 100,
            max_inflight_units: 500,
            max_queued: 0,
        };
        let gate = Admission::new(cfg);
        let _hold = match gate.admit(500) {
            Admitted::Large(p) => p,
            _ => panic!(),
        };
        match gate.admit(500) {
            Admitted::Rejected { queued, max } => {
                assert_eq!(queued, 0);
                assert_eq!(max, 0);
            }
            _ => panic!("queue of 0 must reject immediately"),
        };
    }

    #[test]
    fn queued_job_runs_after_capacity_frees() {
        let cfg = AdmissionConfig {
            large_threshold: 100,
            max_inflight_units: 500,
            max_queued: 4,
        };
        let gate = Arc::new(Admission::new(cfg));
        let order = Arc::new(AtomicU32::new(0));
        let hold = match gate.admit(500) {
            Admitted::Large(p) => p,
            _ => panic!(),
        };
        let t = {
            let gate = Arc::clone(&gate);
            let order = Arc::clone(&order);
            std::thread::spawn(move || match gate.admit(300) {
                Admitted::Large(_p) => order.fetch_add(1, Ordering::SeqCst),
                _ => panic!("queued job must eventually admit"),
            })
        };
        // Give the waiter time to block, then free capacity.
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert_eq!(order.load(Ordering::SeqCst), 0, "waiter is blocked");
        drop(hold);
        t.join().unwrap();
        assert_eq!(order.load(Ordering::SeqCst), 1);
        assert_eq!(gate.inflight_units(), 0);
    }
}
