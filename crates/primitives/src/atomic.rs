//! Lock-free atomic write-min slots — the parlaylib `boruvka.h` race.
//!
//! Modern engineered Borůvka codes replace the barriered segmented find-min
//! of the paper's §2 variants with a per-endpoint *race*: every edge tries to
//! CAS itself into both endpoints' slots, and the slot keeps whichever
//! candidate is smallest under a strict total order. Because the order is
//! total, the final slot contents are the minimum of everything written
//! regardless of scheduling — the race is deterministic in its outcome, only
//! the interleaving varies.
//!
//! Two pieces live here:
//!
//! * [`weight_order_bits`] — the order-isomorphic `f64 → u64` bit map that
//!   lets IEEE weights be compared as unsigned integers. Packed with the
//!   edge id ([`packed_edge_key`]) it reproduces the suite's exact
//!   `(weight, edge id)` total order, ties and all — the invariant the
//!   unique-forest determinism contract rests on.
//! * [`MinSlots`] — an array of `AtomicU64` cells with `write_min`
//!   (natural `u64` order) and `write_min_by` (caller-supplied packed key).
//!   Under `MSF_SEQUENTIAL` (or inside `msf_pool::with_sequential`) the CAS
//!   loop is replaced by a plain load/compare/store, so the sequential
//!   escape hatch takes the exact branch-free path and records **zero** CAS
//!   retries.
//!
//! Contention is observable: every failed `compare_exchange` increments the
//! `atomic.write_min.cas_retry` registry counter (a [`LazyCounter`], free
//! when metrics are off), surfaced by `msf bench --json` and the metrics
//! snapshot.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::obs::metrics::LazyCounter;

/// Sentinel for a slot nothing has written yet. It is `u64::MAX`, so under
/// the natural order of [`MinSlots::write_min`] every real value beats it.
pub const EMPTY: u64 = u64::MAX;

static WRITE_MIN_CAS_RETRY: LazyCounter = LazyCounter::new("atomic.write_min.cas_retry");

/// Map a finite, non-NaN `f64` onto a `u64` whose **unsigned** order equals
/// the weight order used everywhere else in the suite (`OrderedWeight`,
/// which compares via `partial_cmp`):
///
/// * positives (and +0.0) get the sign bit set, keeping their magnitude
///   order;
/// * negatives are bitwise-inverted, reversing their magnitude order into
///   value order;
/// * `-0.0` is normalized to `+0.0` first — `partial_cmp` treats the two
///   zeros as equal, so their bit patterns must collide and leave the tie
///   to the edge id, exactly like the `(weight, id)` key does.
///
/// Subnormals need no special case: IEEE-754 bit patterns of same-sign
/// finite numbers (subnormal or not) are already monotone in magnitude.
#[inline]
pub fn weight_order_bits(w: f64) -> u64 {
    debug_assert!(!w.is_nan(), "NaN weights are rejected at graph build");
    let w = if w == 0.0 { 0.0 } else { w }; // collapse -0.0 onto +0.0
    let b = w.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | (1 << 63)
    }
}

/// The packed `(weight bits, edge id)` key: 64 order-isomorphic weight bits
/// above, 32 id bits below. Its `u128` unsigned order is *exactly* the
/// suite-wide `(weight, edge id)` total order, so a `write_min_by` race
/// keyed by it elects the same unique minimum edge the sequential segmented
/// scan would.
#[inline]
pub fn packed_edge_key(w: f64, id: u32) -> u128 {
    (u128::from(weight_order_bits(w)) << 32) | u128::from(id)
}

/// Slot storage. The shared form is the lock-free CAS race. The
/// single-writer form interleaves each slot's value with a cache of its
/// current minimum key `(value, key hi, key lo)` — one cache line per
/// slot — so an improving write never has to re-derive the incumbent's
/// key (for edge races, a scattered read into the full edge array). The
/// atomics in the single-writer form are only there to stay inside
/// `#![forbid(unsafe_code)]`; every access is a plain Relaxed load/store
/// and the one-writer contract makes them race-free.
enum Store {
    Shared(Vec<AtomicU64>),
    Single(Vec<(AtomicU64, AtomicU64, AtomicU64)>),
}

/// An array of atomic minimum cells. See the module docs for the race
/// semantics and the sequential fallback.
pub struct MinSlots {
    store: Store,
}

impl MinSlots {
    /// `n` slots, all [`EMPTY`]. Captures the calling context's sequential
    /// mode (`MSF_SEQUENTIAL` / `with_sequential`) for the lifetime of the
    /// array, so a sequential run never touches the CAS path.
    pub fn new(n: usize) -> MinSlots {
        if crate::pool::sequential_here() {
            MinSlots::new_single_writer(n)
        } else {
            MinSlots {
                store: Store::Shared((0..n).map(|_| AtomicU64::new(EMPTY)).collect()),
            }
        }
    }

    /// `n` slots in single-writer mode: plain load/compare/store (zero CAS
    /// retries for the telemetry to report) plus a per-slot key cache, so
    /// `write_min_by` never re-derives the incumbent's key.
    ///
    /// **Caller contract:** every `write_min`/`write_min_by` on this array
    /// happens on one thread. Algorithms whose races run in the pool's
    /// loops (`map_collect`, `map_mut`) satisfy it when the pool has a
    /// single worker (everything runs inline); `SmpTeam` ranks are real
    /// threads at any pool width and must use [`new`].
    pub fn new_single_writer(n: usize) -> MinSlots {
        MinSlots {
            store: Store::Single(
                (0..n)
                    .map(|_| (AtomicU64::new(EMPTY), AtomicU64::new(0), AtomicU64::new(0)))
                    .collect(),
            ),
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        match &self.store {
            Store::Shared(s) => s.len(),
            Store::Single(s) => s.len(),
        }
    }

    /// Whether the array has zero slots.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether this array is in the single-writer (plain path) mode.
    pub fn is_single_writer(&self) -> bool {
        matches!(self.store, Store::Single(_))
    }

    /// Read slot `i` (the minimum of everything written so far, or
    /// [`EMPTY`]). Only the quiescent value — after the writing phase has
    /// joined — is deterministic.
    #[inline]
    pub fn get(&self, i: usize) -> u64 {
        match &self.store {
            Store::Shared(s) => s[i].load(Ordering::Acquire),
            Store::Single(s) => s[i].0.load(Ordering::Relaxed),
        }
    }

    /// Reset every slot to [`EMPTY`] for reuse in the next round. Takes
    /// `&mut self`: resetting is a phase boundary, not part of any race.
    pub fn reset(&mut self) {
        match &mut self.store {
            Store::Shared(s) => {
                for v in s.iter_mut() {
                    *v.get_mut() = EMPTY;
                }
            }
            Store::Single(s) => {
                for (v, _, _) in s.iter_mut() {
                    *v.get_mut() = EMPTY;
                }
            }
        }
    }

    /// Lower slot `i` to `v` under the natural `u64` order. Returns whether
    /// the slot changed. `v` must not be [`EMPTY`] itself.
    #[inline]
    pub fn write_min(&self, i: usize, v: u64) -> bool {
        self.write_min_by(i, v, u128::from)
    }

    /// Lower slot `i` to `v` under the strict total order induced by `key`
    /// (smaller key wins; [`EMPTY`] always loses). Returns whether the slot
    /// changed. Keys must be distinct for distinct values, otherwise the
    /// race winner among equal-key values is schedule-dependent.
    #[inline]
    pub fn write_min_by(&self, i: usize, v: u64, key: impl Fn(u64) -> u128) -> bool {
        debug_assert!(v != EMPTY, "EMPTY is reserved for vacant slots");
        let kv = key(v);
        match &self.store {
            Store::Single(s) => {
                // One writer by contract: plain read/compare/write against
                // the cached incumbent key, zero CAS retries for the
                // telemetry to report.
                let (val, hi, lo) = &s[i];
                let cur = val.load(Ordering::Relaxed);
                let cur_key = (u128::from(hi.load(Ordering::Relaxed)) << 64)
                    | u128::from(lo.load(Ordering::Relaxed));
                if cur == EMPTY || kv < cur_key {
                    val.store(v, Ordering::Relaxed);
                    hi.store((kv >> 64) as u64, Ordering::Relaxed);
                    lo.store(kv as u64, Ordering::Relaxed);
                    return true;
                }
                false
            }
            Store::Shared(s) => {
                let slot = &s[i];
                let mut cur = slot.load(Ordering::Relaxed);
                loop {
                    if cur != EMPTY && kv >= key(cur) {
                        return false;
                    }
                    match slot.compare_exchange_weak(cur, v, Ordering::AcqRel, Ordering::Acquire) {
                        Ok(_) => return true,
                        Err(actual) => {
                            // Lost the race to a concurrent writer: re-read
                            // and re-decide. This is the contention
                            // observable.
                            WRITE_MIN_CAS_RETRY.inc();
                            cur = actual;
                        }
                    }
                }
            }
        }
    }

    /// Consume the array and return the plain slot values.
    pub fn into_values(self) -> Vec<u64> {
        match self.store {
            Store::Shared(s) => s.into_iter().map(AtomicU64::into_inner).collect(),
            Store::Single(s) => s.into_iter().map(|(v, _, _)| v.into_inner()).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference order: `(partial_cmp weight, id)` — what `EdgeKey`
    /// implements in msf-graph.
    fn ref_order(a: (f64, u32), b: (f64, u32)) -> std::cmp::Ordering {
        a.0.partial_cmp(&b.0).expect("finite").then(a.1.cmp(&b.1))
    }

    #[test]
    fn weight_order_bits_is_monotone_over_tricky_weights() {
        // Negatives, -0.0/+0.0, subnormals, and wide magnitude spread —
        // sorted ascending by value.
        let ws = [
            f64::MIN,
            -1.0e300,
            -2.5,
            -1.0,
            -1.0e-300,
            -f64::MIN_POSITIVE / 4.0, // negative subnormal
            0.0,
            f64::MIN_POSITIVE / 4.0, // positive subnormal
            f64::MIN_POSITIVE,
            1.0e-300,
            1.0,
            2.5,
            1.0e300,
            f64::MAX,
        ];
        for pair in ws.windows(2) {
            assert!(
                weight_order_bits(pair[0]) < weight_order_bits(pair[1]),
                "{} !< {}",
                pair[0],
                pair[1]
            );
        }
    }

    #[test]
    fn negative_zero_ties_with_positive_zero() {
        assert_eq!(weight_order_bits(-0.0), weight_order_bits(0.0));
        // The tie falls through to the id, exactly like (weight, id).
        assert!(packed_edge_key(-0.0, 3) < packed_edge_key(0.0, 4));
        assert!(packed_edge_key(0.0, 3) < packed_edge_key(-0.0, 4));
    }

    #[test]
    fn packed_key_matches_the_reference_total_order() {
        let keys = [
            (-3.5f64, 9u32),
            (-3.5, 2),
            (-0.0, 7),
            (0.0, 1),
            (0.0, 7),
            (f64::MIN_POSITIVE / 2.0, 0),
            (1.0, 5),
            (1.0, 6),
            (7.25e12, 3),
        ];
        for &a in &keys {
            for &b in &keys {
                assert_eq!(
                    packed_edge_key(a.0, a.1).cmp(&packed_edge_key(b.0, b.1)),
                    ref_order(a, b),
                    "{a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn write_min_keeps_the_minimum() {
        let slots = MinSlots::new(2);
        assert_eq!(slots.get(0), EMPTY);
        assert!(slots.write_min(0, 42));
        assert!(!slots.write_min(0, 99));
        assert!(slots.write_min(0, 7));
        assert_eq!(slots.get(0), 7);
        assert_eq!(slots.get(1), EMPTY);
        assert_eq!(slots.into_values(), vec![7, EMPTY]);
    }

    #[test]
    fn write_min_by_uses_the_key_order() {
        // Values are indices into a table; the key reverses natural order.
        let table = [30u128, 20, 10];
        let slots = MinSlots::new(1);
        for v in 0..table.len() as u64 {
            slots.write_min_by(0, v, |v| table[v as usize]);
        }
        assert_eq!(slots.get(0), 2); // index of the smallest key
    }

    #[test]
    fn reset_vacates_every_slot() {
        let mut slots = MinSlots::new(3);
        for i in 0..3 {
            slots.write_min(i, i as u64);
        }
        slots.reset();
        assert!((0..3).all(|i| slots.get(i) == EMPTY));
    }

    #[test]
    fn sequential_mode_takes_the_plain_path() {
        crate::pool::with_sequential(|| {
            let slots = MinSlots::new(1);
            assert!(slots.is_single_writer());
            assert!(slots.write_min(0, 5));
            assert!(!slots.write_min(0, 6));
            assert_eq!(slots.get(0), 5);
        });
    }

    #[test]
    fn single_writer_mode_matches_the_shared_race() {
        // Same pseudo-random workload through both stores; the quiescent
        // minima (and the change/no-change return values) must coincide.
        let table: Vec<u128> = (0..512u64)
            .map(|v| u128::from(v * 2654435761 % 977))
            .collect();
        let shared = MinSlots::new(64);
        let single = MinSlots::new_single_writer(64);
        assert!(single.is_single_writer());
        let mut x = 0x9E3779B97F4A7C15u64;
        for _ in 0..4_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let (slot, v) = ((x >> 32) as usize % 64, x % 512);
            let a = shared.write_min_by(slot, v, |v| table[v as usize]);
            let b = single.write_min_by(slot, v, |v| table[v as usize]);
            assert_eq!(a, b);
        }
        for i in 0..64 {
            assert_eq!(shared.get(i), single.get(i), "slot {i}");
        }
        let (a, b) = (shared.into_values(), single.into_values());
        assert_eq!(a, b);
    }
}
