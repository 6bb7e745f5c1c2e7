//! Sorting kernels used by the Borůvka compact-graph implementations.
//!
//! The paper's algorithm-engineering choices (§2.2) are reproduced exactly:
//! O(n²) insertion sort for the many short adjacency lists of very sparse
//! graphs, a non-recursive (bottom-up) merge sort for longer lists, and a
//! Helman–JáJá parallel sample sort for the global edge-list sort in Bor-EL.

mod insertion;
mod merge;
mod sample;

pub use insertion::insertion_sort_by;
pub use merge::merge_sort_by;
pub use sample::{sample_sort_by_key, SampleSortConfig};

/// List length at or below which [`two_level_sort_by`] prefers insertion
/// sort. Profiling in the paper showed 80% of adjacency lists of a 1M-vertex
/// 6M-edge random graph hold 1–100 elements; 32 is the crossover we measured
/// for the edge tuples sorted here (EXPERIMENTS.md, "Ablations").
pub const INSERTION_THRESHOLD: usize = 32;

/// The paper's two-level sequential sort: insertion sort for short lists,
/// non-recursive merge sort otherwise.
pub fn two_level_sort_by<T, F>(data: &mut [T], less: F)
where
    T: Copy,
    F: Fn(&T, &T) -> bool,
{
    if data.len() <= INSERTION_THRESHOLD {
        insertion_sort_by(data, less);
    } else {
        merge_sort_by(data, less);
    }
}

#[cfg(test)]
pub(crate) fn is_sorted_by<T, F: Fn(&T, &T) -> bool>(data: &[T], less: F) -> bool {
    data.windows(2).all(|w| !less(&w[1], &w[0]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_level_dispatches_both_paths() {
        let mut short: Vec<u32> = (0..INSERTION_THRESHOLD as u32).rev().collect();
        two_level_sort_by(&mut short, |a, b| a < b);
        assert!(is_sorted_by(&short, |a, b| a < b));

        let mut long: Vec<u32> = (0..1000u32).map(|i| i.wrapping_mul(2654435761)).collect();
        two_level_sort_by(&mut long, |a, b| a < b);
        assert!(is_sorted_by(&long, |a, b| a < b));
    }
}
