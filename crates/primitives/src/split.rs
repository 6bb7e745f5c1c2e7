//! Contiguous blocks of about equal work.
//!
//! [`block_range`] cuts `0..n` into `p` blocks of equal item count. That
//! balances a loop only when every item costs the same. A vertex's
//! adjacency scan costs its degree, and on skewed graphs a few items hold
//! most of the entries, so one block of equal count can hold most of the
//! work. [`WeightedSplit`] cuts `0..n` by a weight per item instead. One
//! pooled pass sums the weights of `8p` chunks of equal count. A sequential
//! prefix over those sums finds the chunk in which each bound falls, and a
//! short walk inside that chunk places the bound. The weights may change
//! between calls (Bor-FAL regroups its members every iteration), so the
//! split is worked out afresh each time, into buffers made once.

use crate::cost::WorkMeter;
use crate::{block_range, pool};

/// Chunks of the weight pass per block. A walk that places a bound reads
/// at most one chunk, `n / (8p)` items.
const CHUNKS_PER_BLOCK: usize = 8;

/// The buffers of a split of `0..n` into `p` contiguous blocks of about
/// equal total weight. Make one per run; [`split`](Self::split) allocates
/// nothing.
#[derive(Debug)]
pub struct WeightedSplit {
    /// The total weight of each chunk of the weight pass.
    sums: Vec<u64>,
    /// The `p + 1` bounds of the last split.
    bounds: Vec<usize>,
}

impl WeightedSplit {
    /// Buffers for `p` blocks.
    pub fn new(p: usize) -> Self {
        let p = p.max(1);
        WeightedSplit {
            sums: vec![0; CHUNKS_PER_BLOCK * p],
            bounds: vec![0; p + 1],
        }
    }

    /// Cut `0..n` into `p` blocks by `weight` and return the `p + 1`
    /// bounds: block `t` is `bounds[t]..bounds[t + 1]`.
    ///
    /// Bound `t` is where the prefix weight first reaches `t / p` of the
    /// total `W` (with weights of 0, the end of a run of them may be
    /// picked). So the bounds start at 0, end at `n` and never decrease, and
    /// each block weighs at most `⌈W / p⌉` plus the heaviest single weight.
    /// A block may be empty. The bounds depend only on `n`, `p` and the
    /// weights, never on the pool's width or schedule.
    ///
    /// `weight(i)` runs once per item in the pooled pass, and again for the
    /// items a walk crosses. The pass charges block `t`'s meter one read
    /// per item of its `8` chunks, and rank 0 (the calling thread) pays one
    /// read per item walked. `meters` holds one meter per block.
    pub fn split<W>(&mut self, n: usize, weight: W, meters: &mut [WorkMeter]) -> &[usize]
    where
        W: Fn(usize) -> u64 + Sync,
    {
        let p = self.bounds.len() - 1;
        let chunks = self.sums.len();
        debug_assert_eq!(meters.len(), p);
        pool::map_mut(&mut self.sums, |c, sum| {
            *sum = block_range(n, chunks, c).map(&weight).sum();
        });
        for c in 0..chunks {
            meters[c / CHUNKS_PER_BLOCK].mem(block_range(n, chunks, c).len() as u64);
        }
        let total: u64 = self.sums.iter().sum();
        // `before` is the weight of the chunks ahead of chunk `c`.
        let (mut c, mut before, mut walked) = (0, 0u64, 0u64);
        for t in 1..p {
            let target = (u128::from(total) * t as u128).div_ceil(p as u128) as u64;
            // A bound on a chunk's end is the next chunk's start: no walk.
            while c + 1 < chunks && before + self.sums[c] <= target {
                before += self.sums[c];
                c += 1;
            }
            let start = block_range(n, chunks, c).start;
            let (mut at, mut reached) = (start, before);
            while reached < target {
                reached += weight(at);
                at += 1;
            }
            walked += (at - start) as u64;
            self.bounds[t] = at;
        }
        self.bounds[p] = n;
        meters[0].mem(walked);
        &self.bounds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Split `weights` into `p` blocks; returns the bounds and the meters.
    fn split(weights: &[u64], p: usize) -> (Vec<usize>, Vec<WorkMeter>) {
        let mut meters = vec![WorkMeter::new(); p];
        let bounds = WeightedSplit::new(p)
            .split(weights.len(), |i| weights[i], &mut meters)
            .to_vec();
        (bounds, meters)
    }

    /// Check the documented guarantees of a split of `weights` at `p`.
    fn check(weights: &[u64], p: usize) -> Vec<usize> {
        let (bounds, _) = split(weights, p);
        let n = weights.len();
        assert_eq!(bounds.len(), p + 1, "p={p}");
        assert_eq!((bounds[0], bounds[p]), (0, n), "p={p}");
        assert!(bounds.windows(2).all(|b| b[0] <= b[1]), "p={p}: {bounds:?}");
        let total: u64 = weights.iter().sum();
        let heaviest = weights.iter().copied().max().unwrap_or(0);
        for (t, b) in bounds.windows(2).enumerate() {
            let w: u64 = weights[b[0]..b[1]].iter().sum();
            assert!(
                w <= total.div_ceil(p as u64) + heaviest,
                "p={p}: block {t} weighs {w} of {total}: {bounds:?}"
            );
        }
        bounds
    }

    #[test]
    fn bounds_are_monotone_and_blocks_balanced() {
        // Uniform, skewed to the front (R-MAT's shape), skewed to the back,
        // and a few heavy items among light ones.
        let n = 1_000u64;
        let shapes: [Vec<u64>; 4] = [
            vec![1; n as usize],
            (0..n).map(|i| 1 + 10_000 / (i + 1)).collect(),
            (0..n).map(|i| 1 + i * i / 100).collect(),
            (0..n)
                .map(|i| if i % 97 == 3 { 500 } else { 1 + i % 5 })
                .collect(),
        ];
        for weights in &shapes {
            for p in 1..=9 {
                check(weights, p);
            }
        }
    }

    #[test]
    fn equal_weights_split_like_equal_counts() {
        let weights = vec![3u64; 1_000];
        for p in 1..=8 {
            let bounds = check(&weights, p);
            for t in 0..p {
                let len = bounds[t + 1] - bounds[t];
                assert!(len.abs_diff(1_000 / p) <= 1, "p={p} t={t}: {bounds:?}");
            }
        }
    }

    #[test]
    fn one_item_heavier_than_the_rest_together() {
        let mut weights = vec![1u64; 200];
        weights[50] = 1_000_000;
        for p in [2, 3, 8] {
            let bounds = check(&weights, p);
            // The heavy item closes the block that holds it, and the last
            // block takes the light tail.
            let heavy = bounds.windows(2).position(|b| b[0] <= 50 && 50 < b[1]);
            let heavy = heavy.expect("some block holds the heavy item");
            assert_eq!(bounds[heavy + 1], 51, "p={p}: {bounds:?}");
            assert_eq!(bounds[p], 200);
        }
    }

    #[test]
    fn more_blocks_than_items_and_no_items() {
        let bounds = check(&[1, 1, 1], 8);
        let nonempty = bounds.windows(2).filter(|b| b[0] < b[1]).count();
        assert_eq!(nonempty, 3, "{bounds:?}");
        for p in [1, 2, 5] {
            assert_eq!(check(&[], p), vec![0; p + 1]);
        }
    }

    #[test]
    fn one_block_covers_everything() {
        assert_eq!(check(&[5, 1, 9], 1), vec![0, 3]);
        let (_, meters) = split(&[5, 1, 9], 1);
        assert_eq!(meters, vec![WorkMeter { mem: 3, ops: 0 }]);
    }

    #[test]
    fn charges_one_read_per_item_per_block_and_the_walks_to_rank_0() {
        // Equal weights put the bound on a chunk's end: nothing is walked.
        let mut weights = vec![1u64; 1_600];
        let (bounds, meters) = split(&weights, 2);
        assert_eq!(bounds, vec![0, 800, 1_600]);
        assert_eq!((meters[0].mem, meters[1].mem), (800, 800));
        // A heavy first item moves the bound to 750, half-way into the
        // 8th chunk of 100 items: rank 0 walks 50 of them.
        weights[0] = 101;
        let (bounds, meters) = split(&weights, 2);
        assert_eq!(bounds, vec![0, 750, 1_600]);
        assert_eq!((meters[0].mem, meters[1].mem), (800 + 50, 800));
        assert_eq!(meters[0].ops + meters[1].ops, 0);
    }

    #[test]
    fn buffers_are_reused_across_calls() {
        let mut s = WeightedSplit::new(3);
        let mut meters = vec![WorkMeter::new(); 3];
        let first = s.split(30, |_| 1, &mut meters).to_vec();
        assert_eq!(first, vec![0, 10, 20, 30]);
        let second = s
            .split(4, |i| if i == 0 { 9 } else { 1 }, &mut meters)
            .to_vec();
        assert_eq!(second, vec![0, 1, 1, 4]);
        assert_eq!(s.split(0, |_| 1, &mut meters), &[0, 0, 0, 0]);
    }

    #[test]
    fn pooled_and_sequential_bounds_agree() {
        let weights: Vec<u64> = (0..50_000u64)
            .map(|i| 1 + (i.wrapping_mul(0x9E37_79B9) >> 7) % 64 + 4_000 / (i + 1))
            .collect();
        for p in [2, 3, 4, 7] {
            let pooled = split(&weights, p);
            let sequential = pool::with_sequential(|| split(&weights, p));
            assert_eq!(pooled, sequential, "p={p}");
            check(&weights, p);
        }
    }
}
