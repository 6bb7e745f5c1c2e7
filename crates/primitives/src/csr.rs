//! Compressed sparse rows by a `p`-block counting sort — the one builder
//! behind every CSR the suite lays out in parallel: MST-BC's per-round
//! adjacency and its parallel-edge merge, the base `AdjacencyArray`
//! (Prim, Bor-AL, Bor-FAL), Bor-FAL's supervertex membership, and Bor-AL's
//! grouping of supervertices by label.
//!
//! [`build_rows`] runs three passes over `p` contiguous blocks of items:
//! every block counts its slots per row, one sequential prefix pass over
//! the `p × rows` counts yields the row starts and turns the counts into
//! per-block cursors (row-major, block-minor), and every block scatters
//! through its own cursors into positions no other block writes. Row `r`
//! lists block 0's slots first, then block 1's, each block in item order,
//! so every row lists its slots in ascending item order at every `p` and
//! every pool width. Linear work, no comparison sort, no `unsafe`.

use crate::cost::WorkMeter;
use crate::{block_range, pool};

/// Lay `items` out over `rows` rows and return the row offsets: `rows + 1`
/// entries, the last one the total number of slots.
///
/// `slots(i)` lists item `i`'s `(row, payload)` pairs. It runs twice per
/// item, once to count and once to scatter, and must list the same rows
/// both times. `place(pos, payload)` stores one payload at its final
/// position; every position below the total is placed exactly once. The
/// caller owns the storage and sizes it to the total it knows up front.
/// Several blocks write interleaved positions concurrently, which safe Rust
/// allows only through atomics, so storage is a slice of atomics written
/// with relaxed stores (see [`zeroed_slots`]); the scatter's fork-join
/// publishes them before this returns.
pub fn build_rows<T, I, S, P>(rows: usize, items: usize, p: usize, slots: S, place: P) -> Vec<usize>
where
    I: IntoIterator<Item = (u32, T)>,
    S: Fn(usize) -> I + Sync,
    P: Fn(usize, T) + Sync,
{
    let p = p.max(1);
    // Pass 1: per-block row counts.
    let mut counts: Vec<Vec<usize>> = pool::map_collect(p, 1, |t| {
        let mut c = vec![0usize; rows];
        for i in block_range(items, p, t) {
            for (r, _) in slots(i) {
                c[r as usize] += 1;
            }
        }
        c
    });
    // Pass 2: row starts, and the counts turned into per-block cursors.
    // Sequential: rows·p additions, small next to the scatter at the p
    // this runs with.
    let mut offsets = Vec::with_capacity(rows + 1);
    let mut total = 0usize;
    for r in 0..rows {
        offsets.push(total);
        for c in counts.iter_mut() {
            let here = c[r];
            c[r] = total;
            total += here;
        }
    }
    offsets.push(total);
    // Pass 3: every block scatters through its own cursors, and frees them
    // on the thread that used them.
    pool::map_mut(&mut counts, |t, cursors| {
        let mut cursor = std::mem::take(cursors);
        for i in block_range(items, p, t) {
            for (r, x) in slots(i) {
                let at = &mut cursor[r as usize];
                place(*at, x);
                *at += 1;
            }
        }
    });
    offsets
}

/// `len` zeroed atomics for [`build_rows`] to scatter into, first touched
/// by the pool's workers in parallel.
pub fn zeroed_slots<A: Default + Send>(len: usize) -> Vec<A> {
    pool::map_collect(len, 1, |_| A::default())
}

/// Charge one [`build_rows`] call over `items` items of `per_item` slots
/// each to `meters`, one meter per block: every block pays one scattered
/// count increment and one scattered write per slot, and rank 0 (the
/// calling thread) pays the prefix pass over the `p × rows` counts.
pub fn charge_build(meters: &mut [WorkMeter], rows: usize, items: usize, per_item: usize) {
    let p = meters.len();
    for (t, meter) in meters.iter_mut().enumerate() {
        let placed = (per_item * block_range(items, p, t).len()) as u64;
        meter.mem(2 * placed);
        meter.ops(placed);
    }
    if let Some(rank0) = meters.first_mut() {
        rank0.ops((p * rows) as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Group `keys` by value with `build_rows`; returns (offsets, items).
    fn group(keys: &[u32], rows: usize, p: usize) -> (Vec<usize>, Vec<u64>) {
        let out: Vec<AtomicU64> = zeroed_slots(keys.len());
        let offsets = build_rows(
            rows,
            keys.len(),
            p,
            |i| [(keys[i], i as u64)],
            |pos, i| out[pos].store(i, Ordering::Relaxed),
        );
        (
            offsets,
            out.into_iter().map(AtomicU64::into_inner).collect(),
        )
    }

    #[test]
    fn rows_are_stable_and_p_independent() {
        let keys: Vec<u32> = (0..1000u32).map(|i| (i * 7919) % 13).collect();
        let (offsets, items) = group(&keys, 13, 1);
        assert_eq!(offsets.len(), 14);
        assert_eq!(offsets[13], 1000);
        for r in 0..13 {
            let row = &items[offsets[r]..offsets[r + 1]];
            assert!(row.iter().all(|&i| keys[i as usize] == r as u32));
            assert!(row.windows(2).all(|w| w[0] < w[1]), "row {r} not ascending");
        }
        for p in [2, 3, 8, 2000] {
            assert_eq!(
                group(&keys, 13, p),
                (offsets.clone(), items.clone()),
                "p={p}"
            );
        }
    }

    #[test]
    fn empty_rows_and_no_items() {
        assert_eq!(group(&[], 3, 4), (vec![0, 0, 0, 0], vec![]));
        assert_eq!(group(&[], 0, 2), (vec![0], vec![]));
        let (offsets, items) = group(&[2, 2], 4, 3);
        assert_eq!(offsets, vec![0, 0, 0, 2, 2]);
        assert_eq!(items, vec![0, 1]);
    }

    #[test]
    fn items_may_fill_several_slots() {
        // Each pair (a, b) lands in row a and row b, mirrored.
        let pairs = [(0u32, 1u32), (1, 2), (0, 2), (1, 0)];
        for p in [1, 2, 3] {
            let out: Vec<AtomicU64> = zeroed_slots(2 * pairs.len());
            let offsets = build_rows(
                3,
                pairs.len(),
                p,
                |i| {
                    let (a, b) = pairs[i];
                    [(a, (b, i)), (b, (a, i))]
                },
                |pos, (nb, i)| out[pos].store(u64::from(nb) << 32 | i as u64, Ordering::Relaxed),
            );
            let got: Vec<u64> = out.into_iter().map(AtomicU64::into_inner).collect();
            let row = |r: usize| -> Vec<(u64, u64)> {
                got[offsets[r]..offsets[r + 1]]
                    .iter()
                    .map(|&x| (x >> 32, x & 0xffff_ffff))
                    .collect()
            };
            assert_eq!(row(0), vec![(1, 0), (2, 2), (1, 3)], "p={p}");
            assert_eq!(row(1), vec![(0, 0), (2, 1), (0, 3)], "p={p}");
            assert_eq!(row(2), vec![(1, 1), (0, 2)], "p={p}");
        }
    }

    #[test]
    fn charge_matches_the_blocks() {
        let mut meters = vec![WorkMeter::new(); 3];
        charge_build(&mut meters, 5, 10, 2);
        // Blocks of 4, 3 and 3 items, two slots each.
        assert_eq!(
            meters[0],
            WorkMeter {
                mem: 16,
                ops: 8 + 15
            }
        );
        assert_eq!(meters[1], WorkMeter { mem: 12, ops: 6 });
        assert_eq!(meters[2], WorkMeter { mem: 12, ops: 6 });
    }
}
