//! The data-parallel loops every kernel of the suite is written with:
//! Bader & Cong's "for processor p_i, 0 ≤ i ≤ p−1" over one block of the
//! input, and the same loop over an index domain.
//!
//! - [`map_collect`] evaluates `f(0..n)` into a vector in index order.
//! - [`map_mut`] hands item `i` of a slice to `f(i, &mut item)`, one task
//!   per item.
//! - [`fill_regions`] builds vectors from per-block regions of known
//!   length: block `t` writes its region of each output through a
//!   write-only [`Sink`], so a kernel that has counted its survivors places
//!   them straight into the final vector.
//!
//! All three recursively halve their range and hand the halves to [`join`],
//! so the leaves run on the stealing workers. All three run every leaf
//! inline on the calling thread, in ascending order, when
//! [`sequential_here`](crate::sequential_here) is true or the pool has one
//! worker.
//!
//! `fill_regions` holds the module's one `unsafe` block, and `map_collect`
//! is built on it.

use std::mem::MaybeUninit;

use crate::{join, runs_inline, width};

/// Leaf length for `n` indices on a pool of `width` workers: about eight
/// leaves per worker, so thieves find slack, but never fewer than
/// `min_leaf` indices per leaf.
fn leaf_len(n: usize, min_leaf: usize, width: usize) -> usize {
    n.div_ceil(width.saturating_mul(8)).max(min_leaf).max(1)
}

/// Return `[f(0), f(1), …, f(n − 1)]`, evaluated in parallel leaves of at
/// least `min_leaf` indices. With `n = p` and `min_leaf = 1`, each of the
/// `p` blocks is a task of its own.
///
/// # Panics
/// A panic in `f` propagates once the other leaves have settled; the
/// values already written are leaked, never read.
pub fn map_collect<T, F>(n: usize, min_leaf: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if runs_inline() {
        return (0..n).map(f).collect();
    }
    let leaf = leaf_len(n, min_leaf, width());
    let lens: Vec<[usize; 1]> = (0..n).step_by(leaf).map(|i| [leaf.min(n - i)]).collect();
    let [out] = fill_regions(&lens, |b, [leaf_out]| {
        let start = b * leaf;
        for i in start..start + leaf_out.remaining() {
            leaf_out.push(f(i));
        }
    });
    out
}

/// A write-only cursor over one block's region of a vector that
/// [`fill_regions`] is building. Each write fills the next slot of the
/// region; the block must leave it exactly full.
pub struct Sink<'a, T> {
    slots: &'a mut [MaybeUninit<T>],
    filled: usize,
}

impl<T> Sink<'_, T> {
    /// Write `value` into the next slot of the region.
    ///
    /// # Panics
    /// If the region is already full.
    #[inline]
    pub fn push(&mut self, value: T) {
        let Some(slot) = self.slots.get_mut(self.filled) else {
            panic!("region over-filled: it holds {} items", self.slots.len());
        };
        slot.write(value);
        self.filled += 1;
    }

    /// Copy `items` into the next slots of the region.
    ///
    /// # Panics
    /// If fewer than `items.len()` slots remain.
    pub fn extend_from_slice(&mut self, items: &[T])
    where
        T: Copy,
    {
        let Some(dst) = self.slots.get_mut(self.filled..self.filled + items.len()) else {
            panic!("region over-filled: it holds {} items", self.slots.len());
        };
        for (slot, &item) in dst.iter_mut().zip(items) {
            slot.write(item);
        }
        self.filled += items.len();
    }

    /// Slots of the region still to fill.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.slots.len() - self.filled
    }
}

/// Build `K` vectors from per-block regions of known length, in parallel.
/// `lens[t][k]` is the length of block `t`'s region of output `k`, and
/// output `k` is the concatenation of its regions in block order.
/// `f(t, sinks)` runs once per block, one task per block as in
/// [`map_mut`], and must write exactly `lens[t][k]` items into `sinks[k]`.
///
/// # Panics
/// If a block over-fills a region (at the write) or under-fills one (once
/// every block has settled), or if `f` panics. The items already written
/// are then leaked, never read or dropped.
pub fn fill_regions<T, const K: usize, F>(lens: &[[usize; K]], f: F) -> [Vec<T>; K]
where
    T: Send,
    F: Fn(usize, &mut [Sink<'_, T>; K]) + Sync,
{
    let totals: [usize; K] = std::array::from_fn(|k| {
        lens.iter()
            .try_fold(0usize, |sum, l| sum.checked_add(l[k]))
            .expect("region lengths overflow usize")
    });
    let mut outs: [Vec<T>; K] = totals.map(Vec::with_capacity);
    let mut rests = outs.each_mut().map(|v| v.spare_capacity_mut());
    let mut blocks: Vec<[Sink<'_, T>; K]> = lens
        .iter()
        .map(|l| {
            std::array::from_fn(|k| {
                let (slots, rest) = std::mem::take(&mut rests[k]).split_at_mut(l[k]);
                rests[k] = rest;
                Sink { slots, filled: 0 }
            })
        })
        .collect();
    map_mut(&mut blocks, |t, sinks| f(t, sinks));
    for sink in blocks.iter().flatten() {
        assert!(
            sink.remaining() == 0,
            "region under-filled: {} of {} items written",
            sink.filled,
            sink.slots.len()
        );
    }
    drop(blocks);
    for (out, total) in outs.iter_mut().zip(totals) {
        // SAFETY: `blocks` split `out`'s first `total` spare slots into
        // disjoint regions, one sink each. A sink advances `filled` only
        // after `MaybeUninit::write` has filled that slot. Only this
        // function constructs sinks, and `f` holds them by `&mut`, so it
        // can reorder them but neither drop nor replace them: the check
        // above saw every region's sink with `filled` equal to the
        // region's length, so all `total` slots are initialised.
        unsafe { out.set_len(total) };
    }
    outs
}

/// Run `f(i, &mut items[i])` for every item, one task per item, and return
/// the results in item order. Meant for the `p` per-block states of a
/// kernel (cursors, arenas, output regions).
///
/// # Panics
/// A panic in `f` propagates once the other items have settled.
pub fn map_mut<T, R, F>(items: &mut [T], f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    if runs_inline() {
        return items.iter_mut().enumerate().map(|(i, x)| f(i, x)).collect();
    }
    split_mut(items, 0, &f)
}

fn split_mut<T, R, F>(items: &mut [T], offset: usize, f: &F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    match items {
        [] => Vec::new(),
        [item] => vec![f(offset, item)],
        _ => {
            let mid = items.len() / 2;
            let (left, right) = items.split_at_mut(mid);
            let (mut head, tail) = join(
                || split_mut(left, offset, f),
                || split_mut(right, offset + mid, f),
            );
            head.extend(tail);
            head
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{force_width, with_sequential};
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Pin a multi-worker pool before first use so the loops split and
    /// steal even on a 1-core host.
    fn pool() {
        force_width(4);
    }

    #[test]
    fn leaves_are_an_eighth_of_a_worker_share_but_at_least_min_leaf() {
        for w in [1usize, 2, 4] {
            assert_eq!(leaf_len(80 * w, 1, w), 10);
            assert_eq!(leaf_len(80 * w + 1, 1, w), 11);
            assert_eq!(leaf_len(80 * w, 64, w), 64);
            assert_eq!(leaf_len(w, 1, w), 1, "n = p blocks run one task each");
            assert_eq!(leaf_len(0, 1, w), 1);
            assert_eq!(leaf_len(5, 0, w), 1);
        }
    }

    #[test]
    fn map_collect_is_exact_and_ordered() {
        pool();
        for (n, min_leaf) in [(10usize, 1usize), (100, 8), (100_000, 1), (100_000, 4096)] {
            let v = map_collect(n, min_leaf, |i| (i as u64) * 3 + 1);
            assert_eq!(v.len(), n);
            assert!(v.iter().enumerate().all(|(i, &x)| x == (i as u64) * 3 + 1));
        }
    }

    #[test]
    fn map_collect_visits_each_index_once() {
        pool();
        let n = 50_000usize;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        map_collect(n, 1, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn map_collect_handles_empty_and_single() {
        pool();
        assert!(map_collect(0, 1, |i| i).is_empty());
        assert_eq!(map_collect(1, 1, |i| i + 7), vec![7]);
        assert_eq!(map_collect(1, 4096, |i| i + 7), vec![7]);
        let mut none: [u32; 0] = [];
        assert!(map_mut(&mut none, |i, _| i).is_empty());
        let mut one = [5u32];
        assert_eq!(map_mut(&mut one, |i, x| *x + i as u32), vec![5]);
    }

    #[test]
    fn sequential_hatch_matches_pooled_results_in_order() {
        pool();
        let n = 30_000usize;
        let pooled = map_collect(n, 1, |i| (i as u64).pow(2));
        let order = std::sync::Mutex::new(Vec::new());
        let seq = with_sequential(|| {
            map_collect(n, 1, |i| {
                order.lock().unwrap().push(i);
                (i as u64).pow(2)
            })
        });
        assert_eq!(pooled, seq);
        assert_eq!(order.into_inner().unwrap(), (0..n).collect::<Vec<_>>());

        let mut items: Vec<usize> = vec![0; 9];
        let calls = std::sync::Mutex::new(Vec::new());
        let out = with_sequential(|| {
            map_mut(&mut items, |i, x| {
                calls.lock().unwrap().push(i);
                *x = i * 10;
                i
            })
        });
        assert_eq!(calls.into_inner().unwrap(), (0..9).collect::<Vec<_>>());
        assert_eq!(out, (0..9).collect::<Vec<_>>());
        assert_eq!(items, (0..9).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn map_mut_hands_out_disjoint_items_in_order() {
        pool();
        for len in [2usize, 3, 7, 8, 33] {
            let mut items: Vec<Vec<usize>> = vec![Vec::new(); len];
            let out = map_mut(&mut items, |i, v| {
                v.push(i);
                v.len() + i
            });
            assert_eq!(out, (1..=len).collect::<Vec<_>>());
            assert_eq!(items, (0..len).map(|i| vec![i]).collect::<Vec<_>>());
        }
    }

    #[test]
    fn fill_regions_concatenates_regions_in_block_order() {
        pool();
        // Block t writes t copies of 10·t + k into output k; output 1 gets
        // one extra item per block, so both outputs have empty and
        // non-empty regions.
        let lens: Vec<[usize; 2]> = (0..9).map(|t| [t, t + 1]).collect();
        let [a, b] = fill_regions(&lens, |t, [a, b]| {
            for _ in 0..t {
                a.push(10 * t);
            }
            b.extend_from_slice(&vec![10 * t + 1; t + 1]);
            assert_eq!((a.remaining(), b.remaining()), (0, 0));
        });
        let expect = |k: usize, extra: usize| -> Vec<usize> {
            (0..9)
                .flat_map(|t| std::iter::repeat_n(10 * t + k, t + extra))
                .collect()
        };
        assert_eq!(a, expect(0, 0));
        assert_eq!(b, expect(1, 1));
        let seq = with_sequential(|| {
            fill_regions(&lens, |t, [a, b]| {
                a.extend_from_slice(&vec![10 * t; t]);
                b.extend_from_slice(&vec![10 * t + 1; t + 1]);
            })
        });
        assert_eq!(seq, [expect(0, 0), expect(1, 1)]);
    }

    #[test]
    fn fill_regions_handles_no_blocks_and_empty_regions() {
        pool();
        let [none]: [Vec<u8>; 1] = fill_regions(&[], |_, _| unreachable!("no blocks"));
        assert!(none.is_empty());
        let [empty]: [Vec<u8>; 1] = fill_regions(&[[0]; 5], |_, [s]| assert_eq!(s.remaining(), 0));
        assert!(empty.is_empty());
        let [one] = fill_regions(&[[0], [1], [0]], |t, [s]| {
            if t == 1 {
                s.push("x".to_string());
            }
        });
        assert_eq!(one, ["x"]);
    }

    #[test]
    fn fill_regions_panics_on_under_and_over_fill() {
        pool();
        let lens = [[3usize], [2], [4]];
        let under = std::panic::catch_unwind(|| {
            fill_regions(&lens, |t, [s]| {
                for _ in 0..lens[t][0] - usize::from(t == 2) {
                    s.push(t.to_string());
                }
            })
        });
        let msg = under.expect_err("an under-filled region must panic");
        assert!(msg
            .downcast_ref::<String>()
            .is_some_and(|m| m.contains("under-filled")));
        let over = std::panic::catch_unwind(|| {
            fill_regions(&lens, |t, [s]| {
                for _ in 0..lens[t][0] + usize::from(t == 1) {
                    s.push(t.to_string());
                }
            })
        });
        let msg = over.expect_err("an over-filled region must panic");
        assert!(msg
            .downcast_ref::<String>()
            .is_some_and(|m| m.contains("over-filled")));
        let over_copy = std::panic::catch_unwind(|| {
            fill_regions(&lens, |t, [s]| {
                s.extend_from_slice(&vec![0u8; lens[t][0] + 1])
            })
        });
        assert!(over_copy.is_err());
    }

    #[test]
    fn a_panicking_leaf_propagates() {
        pool();
        let caught = std::panic::catch_unwind(|| {
            map_collect(10_000, 1, |i| {
                assert!(i != 7_777, "leaf {i} failed");
                i
            })
        });
        assert!(caught.is_err());
        let caught = std::panic::catch_unwind(|| {
            let mut items = vec![0u32; 6];
            map_mut(&mut items, |i, _| assert!(i != 4, "item {i} failed"))
        });
        assert!(caught.is_err());
    }
}
