//! Work accounting in the spirit of the Helman–JáJá SMP model.
//!
//! The paper analyzes every algorithm as ⟨ME; TC⟩ — the number of
//! non-contiguous **m**emory accesses and the **c**omputation time (§3).
//! This module lets the algorithms measure both empirically: each of the
//! `p` processor blocks carries a [`WorkMeter`] and bumps it as it touches
//! memory and does work; [`modeled_time`] then reduces the per-thread
//! meters to the modeled parallel running time (the maximum over workers,
//! since barriers make each phase as slow as its slowest worker).
//!
//! On the paper's 14-way Sun E4500 wall-clock time shows real speedup; on a
//! host with fewer physical cores, wall clock measures oversubscription
//! instead, and the meter-based model is the honest way to reproduce the
//! *shape* of the paper's speedup figures. EXPERIMENTS.md reports both.

/// Per-thread work counters. Plain integers — cheap enough to keep enabled
/// in benchmark builds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkMeter {
    /// Non-contiguous memory accesses (the model's ME term).
    pub mem: u64,
    /// Computation units: comparisons, hooks, heap operations (TC term).
    pub ops: u64,
}

impl WorkMeter {
    /// Fresh zeroed meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `n` non-contiguous memory accesses.
    #[inline(always)]
    pub fn mem(&mut self, n: u64) {
        self.mem += n;
    }

    /// Record `n` computation units.
    #[inline(always)]
    pub fn ops(&mut self, n: u64) {
        self.ops += n;
    }

    /// Weighted single-number cost: `ops + MEM_WEIGHT * mem`. The model
    /// charges a non-contiguous access substantially more than an ALU op;
    /// [`MEM_WEIGHT`] is the ratio measured on the development host, and no
    /// *relative* comparison depends on its value. Everything derived from
    /// meter costs — [`modeled_time`], [`total_work`], and the modeled
    /// speedup curves in the bench harness — picks the weight up through
    /// here.
    #[inline]
    pub fn cost(&self) -> u64 {
        self.ops + MEM_WEIGHT * self.mem
    }
}

/// The DRAM:ALU cost weight `W` used by [`WorkMeter::cost`].
pub const MEM_WEIGHT: u64 = 4;

impl std::ops::Add for WorkMeter {
    type Output = WorkMeter;
    fn add(self, rhs: WorkMeter) -> WorkMeter {
        WorkMeter {
            mem: self.mem + rhs.mem,
            ops: self.ops + rhs.ops,
        }
    }
}

impl std::iter::Sum for WorkMeter {
    fn sum<I: Iterator<Item = WorkMeter>>(iter: I) -> Self {
        iter.fold(WorkMeter::default(), |a, b| a + b)
    }
}

/// Modeled parallel time of one barrier-synchronized phase: the cost of the
/// slowest worker.
pub fn modeled_time(per_thread: &[WorkMeter]) -> u64 {
    per_thread.iter().map(WorkMeter::cost).max().unwrap_or(0)
}

/// Total work across workers (the model's work term; `work / p` bounds the
/// perfectly balanced time).
pub fn total_work(per_thread: &[WorkMeter]) -> u64 {
    per_thread.iter().map(WorkMeter::cost).sum()
}

/// A wall-clock stopwatch for per-step timing breakdowns (Fig. 2).
#[derive(Debug)]
pub struct Stopwatch(std::time::Instant);

impl Stopwatch {
    /// Start timing now.
    pub fn start() -> Self {
        Stopwatch(std::time::Instant::now())
    }

    /// Seconds elapsed since start.
    pub fn seconds(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meter_accumulates_and_costs() {
        let mut m = WorkMeter::new();
        m.mem(10);
        m.ops(3);
        m.mem(2);
        assert_eq!(m.mem, 12);
        assert_eq!(m.ops, 3);
        assert_eq!(m.cost(), 3 + 4 * 12);
    }

    #[test]
    fn modeled_time_is_max_total_is_sum() {
        let meters = vec![
            WorkMeter { mem: 0, ops: 10 },
            WorkMeter { mem: 5, ops: 0 },
            WorkMeter { mem: 1, ops: 1 },
        ];
        assert_eq!(modeled_time(&meters), 20);
        assert_eq!(total_work(&meters), 10 + 20 + 5);
        assert_eq!(modeled_time(&[]), 0);
    }

    #[test]
    fn meters_sum() {
        let a = WorkMeter { mem: 1, ops: 2 };
        let b = WorkMeter { mem: 3, ops: 4 };
        let s: WorkMeter = [a, b].into_iter().sum();
        assert_eq!(s, WorkMeter { mem: 4, ops: 6 });
    }

    #[test]
    fn stopwatch_laps_monotonically() {
        let w = Stopwatch::start();
        let a = w.seconds();
        let b = w.seconds();
        assert!(a >= 0.0);
        assert!(b >= a);
    }
}
