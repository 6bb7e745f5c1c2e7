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
//! * [`MinSlots`] — an array of atomic minimum cells with `write_min`
//!   (natural `u64` order) and `write_min_by` (caller-supplied packed key).
//!   A shared slot pairs the value with a **filter**: the smallest key
//!   prefix (`key >> 32`, the weight bits of a packed edge key) any writer
//!   has announced. A writer whose prefix is above the filter returns after
//!   one load, without reading the incumbent's key (for edge races, a
//!   random read of a 24-byte edge) and without a CAS; a writer that lowers
//!   or ties the filter runs the exact `(weight, id)` CAS race on the value.
//!   The writer that set the filter always enters that race and beats
//!   every writer the filter turned away, so the result stays exact.
//!   [`MinSlots::new_single_writer`] is the plain load/compare/store store
//!   for races that provably run on one thread; [`MinSlots::new`] is
//!   always the shared store, because the sequential escape hatch inlines
//!   only the pool's loops, not threads a caller spawns itself.
//!
//! Contention is observable: every failed `compare_exchange`, on the filter
//! or on the value, increments the `atomic.write_min.cas_retry` registry
//! counter (a [`LazyCounter`], free when metrics are off), surfaced by
//! `msf bench --json` and the metrics snapshot.

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

/// One shared slot: the filter and the value, on one 16-byte line so a
/// writer's filter load brings the value's cache line with it.
#[repr(C, align(16))]
struct SharedSlot {
    /// The smallest key prefix announced so far ([`key_prefix`]);
    /// `u64::MAX` when vacant. Only ever lowered.
    filter: AtomicU64,
    value: AtomicU64,
}

impl SharedSlot {
    fn vacant() -> SharedSlot {
        SharedSlot {
            filter: AtomicU64::new(u64::MAX),
            value: AtomicU64::new(EMPTY),
        }
    }
}

/// The filter's view of a key: its bits above the low 32, saturated to
/// `u64`. For a [`packed_edge_key`] that is exactly the weight's order bits.
/// Saturation keeps the map monotone — a larger prefix always means a
/// larger key — which is all the filter relies on.
#[inline]
fn key_prefix(key: u128) -> u64 {
    u64::try_from(key >> 32).unwrap_or(u64::MAX)
}

/// Slot storage. The shared form is the filtered lock-free CAS race. The
/// single-writer form interleaves each slot's value with a cache of its
/// current minimum key `(value, key hi, key lo)` — one cache line per
/// slot — so an improving write never has to re-derive the incumbent's
/// key (for edge races, a scattered read into the full edge array). The
/// atomics in the single-writer form are only there to stay inside
/// `#![forbid(unsafe_code)]`; every access is a plain Relaxed load/store
/// and the one-writer contract makes them race-free.
enum Store {
    Shared(Vec<SharedSlot>),
    Single(Vec<(AtomicU64, AtomicU64, AtomicU64)>),
}

/// An array of atomic minimum cells. See the module docs for the race
/// semantics and the single-writer store.
pub struct MinSlots {
    store: Store,
}

impl MinSlots {
    /// `n` slots, all [`EMPTY`], in the shared store: safe for writers on
    /// any number of threads, whatever the pool mode.
    pub fn new(n: usize) -> MinSlots {
        MinSlots {
            store: Store::Shared((0..n).map(|_| SharedSlot::vacant()).collect()),
        }
    }

    /// `n` slots in single-writer mode: plain load/compare/store (zero CAS
    /// retries for the telemetry to report) plus a per-slot key cache, so
    /// `write_min_by` never re-derives the incumbent's key.
    ///
    /// **Caller contract:** every `write_min`/`write_min_by` on this array
    /// happens on one thread. Algorithms whose races run in the pool's
    /// loops (`map_collect`, `map_mut`) satisfy it when the pool runs
    /// everything inline (`msf_pool::runs_inline`); writers on threads of
    /// the caller's own, which race under the sequential escape hatch too,
    /// must use [`new`](MinSlots::new).
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
            Store::Shared(s) => s[i].value.load(Ordering::Acquire),
            Store::Single(s) => s[i].0.load(Ordering::Relaxed),
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
                // The filter publishes no data of its own — the value race
                // below carries the result, and readers see it only after
                // the writing phase has joined — so Relaxed suffices.
                let prefix = key_prefix(kv);
                let mut filter = slot.filter.load(Ordering::Relaxed);
                loop {
                    if prefix > filter {
                        // Whoever set the filter holds a smaller key and
                        // runs the race below: this write cannot win.
                        return false;
                    }
                    if prefix == filter {
                        break;
                    }
                    match slot.filter.compare_exchange_weak(
                        filter,
                        prefix,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => break,
                        Err(actual) => {
                            WRITE_MIN_CAS_RETRY.inc();
                            filter = actual;
                        }
                    }
                }
                let mut cur = slot.value.load(Ordering::Relaxed);
                loop {
                    if cur != EMPTY && kv >= key(cur) {
                        return false;
                    }
                    match slot.value.compare_exchange_weak(
                        cur,
                        v,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    ) {
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
    fn sequential_mode_keeps_the_shared_store() {
        // The escape hatch inlines only the pool's loops, so `new` must stay
        // safe for writers on a caller's own threads: only `new_single_writer`
        // (reached through a caller that knows every write runs inline)
        // takes the plain path.
        crate::pool::with_sequential(|| {
            let slots = MinSlots::new(1);
            assert!(!slots.is_single_writer());
            assert!(slots.write_min(0, 5));
            assert!(!slots.write_min(0, 6));
            assert_eq!(slots.get(0), 5);
            assert!(MinSlots::new_single_writer(1).is_single_writer());
        });
    }

    /// Edge `v` of a table with small-integer weights: many edges share a
    /// weight, so packed keys share their prefix (`key >> 32`).
    fn small_weight_key(v: u64) -> u128 {
        packed_edge_key((v * 2654435761 % 7) as f64, v as u32)
    }

    #[test]
    fn the_filter_turns_away_heavier_writers_and_races_ties() {
        let slots = MinSlots::new(1);
        let reads = std::cell::Cell::new(0);
        let key = |v: u64| {
            reads.set(reads.get() + 1);
            u128::from(v % 100) << 32 | u128::from(v)
        };
        // Weight 3 (value 103) claims the vacant slot.
        assert!(slots.write_min_by(0, 103, key));
        // Weight 5 is above the filter: refused after its own key alone,
        // without reading the incumbent's.
        reads.set(0);
        assert!(!slots.write_min_by(0, 105, key));
        assert_eq!(
            reads.get(),
            1,
            "a filtered write must not read the incumbent"
        );
        // Weight 3 again ties the filter and races on the id: 203 loses to
        // 103, and 3 (weight 3, smaller id) wins.
        assert!(!slots.write_min_by(0, 203, key));
        assert!(slots.write_min_by(0, 3, key));
        // Weight 1 lowers the filter, then wins the race.
        assert!(slots.write_min_by(0, 401, key));
        assert_eq!(slots.get(0), 401);
        assert!(!slots.write_min_by(0, 2, key));
        assert_eq!(slots.get(0), 401);
    }

    #[test]
    fn single_writer_mode_matches_the_shared_race() {
        // Same pseudo-random workload through both stores; the quiescent
        // minima (and the change/no-change return values) must coincide.
        // Keys below 2^32 leave every prefix at 0, so the filter admits
        // every writer; packed keys over small-integer weights make it
        // turn writers away and tie them.
        let table: Vec<u128> = (0..512u64)
            .map(|v| u128::from(v * 2654435761 % 977))
            .collect();
        let keys: [&dyn Fn(u64) -> u128; 2] = [&|v| table[v as usize], &small_weight_key];
        for key in keys {
            let shared = MinSlots::new(64);
            let single = MinSlots::new_single_writer(64);
            assert!(single.is_single_writer());
            let mut x = 0x9E3779B97F4A7C15u64;
            for _ in 0..4_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let (slot, v) = ((x >> 32) as usize % 64, x % 512);
                let a = shared.write_min_by(slot, v, key);
                let b = single.write_min_by(slot, v, key);
                assert_eq!(a, b);
            }
            for i in 0..64 {
                assert_eq!(shared.get(i), single.get(i), "slot {i}");
            }
        }
    }
}
