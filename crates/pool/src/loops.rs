//! The two data-parallel loops every kernel of the suite is written with:
//! Bader & Cong's "for processor p_i, 0 ≤ i ≤ p−1" over one block of the
//! input, and the same loop over an index domain.
//!
//! - [`map_collect`] evaluates `f(0..n)` into a vector in index order.
//! - [`map_mut`] hands item `i` of a slice to `f(i, &mut item)`, one task
//!   per item.
//!
//! Both recursively halve their range and hand the halves to [`join`], so
//! the leaves run on the stealing workers. Both run every leaf inline on
//! the calling thread, in ascending order, when
//! [`sequential_here`](crate::sequential_here) is true or the pool has one
//! worker.

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
    let mut out: Vec<T> = Vec::with_capacity(n);
    fill(
        &mut out.spare_capacity_mut()[..n],
        0,
        leaf_len(n, min_leaf, width()),
        &f,
    );
    // SAFETY: `fill` returned without panicking, so every leaf wrote each
    // slot of its disjoint sub-slice of `out[..n]` through
    // `MaybeUninit::write`: all `n` elements are initialised.
    unsafe { out.set_len(n) };
    out
}

/// Write `f(offset + i)` into `slots[i]`, splitting in halves down to
/// `leaf` slots.
fn fill<T, F>(slots: &mut [MaybeUninit<T>], offset: usize, leaf: usize, f: &F)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if slots.len() <= leaf {
        for (i, slot) in slots.iter_mut().enumerate() {
            slot.write(f(offset + i));
        }
        return;
    }
    let mid = slots.len() / 2;
    let (left, right) = slots.split_at_mut(mid);
    join(
        || fill(left, offset, leaf, f),
        || fill(right, offset + mid, leaf, f),
    );
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
