//! # msf-core
//!
//! The minimum-spanning-forest algorithms of Bader & Cong (IPPS 2004):
//!
//! | Algorithm | Paper § | Module |
//! |---|---|---|
//! | Prim (binary heap)            | 5.2 | [`seq::prim`] |
//! | Kruskal (bottom-up merge sort)| 5.2 | [`seq::kruskal`] |
//! | Borůvka (m log n, union-find) | 5.2 | [`seq::boruvka`] |
//! | Bor-EL (edge list + sample sort)        | 2.1 | [`par::bor_el`] |
//! | Bor-AL (adjacency arrays + 2-level sort)| 2.2 | [`par::bor_al`] |
//! | Bor-ALM (Bor-AL + per-thread arenas)    | 2.2 | [`par::bor_al`] |
//! | Bor-FAL (flexible adjacency list)       | 2.3 | [`par::bor_fal`] |
//! | MST-BC (concurrent Prim + Borůvka hybrid)| 4  | [`par::mst_bc`] |
//! | Bor-WriteMin (lock-free write-min filter-Borůvka) | — | [`par::bor_write_min`] |
//! | Filter-Kruskal (sampling pivot + union-find filter)| — | [`par::filter_kruskal`] |
//!
//! Every algorithm solves the minimum spanning **forest** problem and, with
//! the `(weight, edge id)` total order, produces exactly the same edge set —
//! the invariant the verification module and test suite enforce.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod certify;
pub mod fuzz;
pub mod job;
pub mod par;
pub mod seq;
pub mod stats;
pub mod verify;

use msf_graph::EdgeList;
use stats::RunStats;

/// Which MSF algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Sequential Prim with binary heap.
    Prim,
    /// Sequential Kruskal with non-recursive merge sort.
    Kruskal,
    /// Sequential m log n Borůvka.
    Boruvka,
    /// Parallel Borůvka, edge-list representation (global sample sort).
    BorEl,
    /// Parallel Borůvka, adjacency arrays (two-level sort).
    BorAl,
    /// Bor-AL with per-thread arena memory management.
    BorAlm,
    /// Parallel Borůvka, flexible adjacency list.
    BorFal,
    /// Bor-FAL behind sampling + cycle-property edge filtering (the
    /// extension argued for in the paper's §3 analysis).
    BorFalFilter,
    /// The new hybrid algorithm (concurrent Prim growth + contraction).
    MstBc,
    /// Lock-free filter-Borůvka: per-endpoint atomic write-min races under
    /// the packed `(weight bits, edge id)` key, recursing on the filtered
    /// (relabel-only, multi-edges kept) edge list.
    BorWriteMin,
    /// Sampling filter-Kruskal: pivot-partition the edge list, recurse on
    /// the light side, prune the heavy side through a concurrent union-find
    /// (the cycle property again), recurse on the survivors.
    FilterKruskal,
}

impl Algorithm {
    /// All algorithms, sequential baselines first.
    pub const ALL: [Algorithm; 11] = [
        Algorithm::Prim,
        Algorithm::Kruskal,
        Algorithm::Boruvka,
        Algorithm::BorEl,
        Algorithm::BorAl,
        Algorithm::BorAlm,
        Algorithm::BorFal,
        Algorithm::BorFalFilter,
        Algorithm::MstBc,
        Algorithm::BorWriteMin,
        Algorithm::FilterKruskal,
    ];

    /// The parallel algorithms compared in the paper's Figs. 4–6, plus the
    /// lock-free speed contenders adjudicated against them.
    pub const PARALLEL: [Algorithm; 7] = [
        Algorithm::BorEl,
        Algorithm::BorAl,
        Algorithm::BorAlm,
        Algorithm::BorFal,
        Algorithm::MstBc,
        Algorithm::BorWriteMin,
        Algorithm::FilterKruskal,
    ];

    /// The CLI/wire slug (lower-case, hyphenated; `parse` inverts it).
    pub fn slug(self) -> &'static str {
        match self {
            Algorithm::Prim => "prim",
            Algorithm::Kruskal => "kruskal",
            Algorithm::Boruvka => "boruvka",
            Algorithm::BorEl => "bor-el",
            Algorithm::BorAl => "bor-al",
            Algorithm::BorAlm => "bor-alm",
            Algorithm::BorFal => "bor-fal",
            Algorithm::BorFalFilter => "bor-fal-filter",
            Algorithm::MstBc => "mst-bc",
            Algorithm::BorWriteMin => "bor-write-min",
            Algorithm::FilterKruskal => "filter-kruskal",
        }
    }

    /// Parse a slug (case-insensitive); inverse of [`Algorithm::slug`].
    pub fn parse(s: &str) -> Option<Algorithm> {
        let lower = s.to_ascii_lowercase();
        Algorithm::ALL.iter().copied().find(|a| a.slug() == lower)
    }

    /// The paper's name for the algorithm.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Prim => "Prim",
            Algorithm::Kruskal => "Kruskal",
            Algorithm::Boruvka => "Boruvka",
            Algorithm::BorEl => "Bor-EL",
            Algorithm::BorAl => "Bor-AL",
            Algorithm::BorAlm => "Bor-ALM",
            Algorithm::BorFal => "Bor-FAL",
            Algorithm::BorFalFilter => "Bor-FAL+filter",
            Algorithm::MstBc => "MST-BC",
            Algorithm::BorWriteMin => "Bor-WriteMin",
            Algorithm::FilterKruskal => "Filter-Kruskal",
        }
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Run-time configuration shared by all algorithms.
#[derive(Debug, Clone)]
pub struct MsfConfig {
    /// Logical processor count `p`: the number of Prim growers (MST-BC) and
    /// of parallel blocks (Borůvka variants), each one pool task. On a pool
    /// (`msf_primitives::pool::width`) at least this wide it is also the
    /// physical parallelism; on a narrower pool the `p` tasks share the
    /// workers.
    pub threads: usize,
    /// MST-BC recurses until the contracted problem has at most this many
    /// vertices, then solves it sequentially (the paper's `nb`).
    pub base_size: usize,
    /// MST-BC: randomly permute the vertex visit order (the paper's
    /// progress-with-high-probability safeguard).
    pub shuffle: bool,
    /// MST-BC: steal vertices from other processors' partitions when your
    /// own is exhausted.
    pub work_stealing: bool,
    /// Seed for the MST-BC permutation.
    pub seed: u64,
}

impl Default for MsfConfig {
    fn default() -> Self {
        MsfConfig {
            threads: msf_primitives::pool::width(),
            base_size: 64,
            shuffle: true,
            work_stealing: true,
            seed: 0xB0C0,
        }
    }
}

impl MsfConfig {
    /// Config with an explicit processor count.
    pub fn with_threads(threads: usize) -> Self {
        MsfConfig {
            threads: threads.max(1),
            ..Self::default()
        }
    }
}

/// The result of an MSF computation.
#[derive(Debug, Clone)]
pub struct MsfResult {
    /// Input edge ids in the forest, sorted ascending (so results compare
    /// with `==`).
    pub edges: Vec<u32>,
    /// Sum of selected edge weights.
    pub total_weight: f64,
    /// Number of trees in the forest (== connected components of the input,
    /// counting isolated vertices).
    pub components: u32,
    /// Timing, iteration, and modeled-cost statistics.
    pub stats: RunStats,
}

impl MsfResult {
    /// A stable 64-bit fingerprint of the forest: FNV-1a over the sorted
    /// edge ids, the weight bits, and the tree count. Because the
    /// `(weight, edge id)` total order makes the MSF unique, every
    /// algorithm — and every client of a serving daemon — must observe the
    /// same checksum for the same input graph.
    pub fn checksum(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x1000_0000_01b3;
        let mut h = OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(PRIME);
            }
        };
        for &id in &self.edges {
            eat(&id.to_le_bytes());
        }
        eat(&self.total_weight.to_bits().to_le_bytes());
        eat(&self.components.to_le_bytes());
        h
    }

    pub(crate) fn from_ids(g: &EdgeList, mut ids: Vec<u32>, stats: RunStats) -> Self {
        ids.sort_unstable();
        debug_assert!(ids.windows(2).all(|w| w[0] != w[1]), "duplicate MSF edge");
        let total_weight = ids.iter().map(|&id| g.edge(id).w).sum();
        let components = (g.num_vertices() - ids.len()) as u32;
        MsfResult {
            edges: ids,
            total_weight,
            components,
            stats,
        }
    }
}

/// Compute the minimum spanning forest of `g` with the chosen algorithm.
///
/// When tracing is enabled (see [`msf_primitives::obs`]) the whole
/// computation is wrapped in a `run` span whose BEGIN event carries
/// `(n, m)` and whose END event carries `(forest edges, components)`.
/// Inner runs (the filter front-end, MST-BC base cases through this entry
/// point) nest their own `run` spans inside it.
pub fn minimum_spanning_forest(g: &EdgeList, algorithm: Algorithm, cfg: &MsfConfig) -> MsfResult {
    let run_span = msf_primitives::obs::span(
        msf_primitives::obs::SpanKind::Run,
        g.num_vertices() as u64,
        g.num_edges() as u64,
    );
    let result = dispatch(g, algorithm, cfg);
    run_span.end_with(result.edges.len() as u64, u64::from(result.components));
    result
}

fn dispatch(g: &EdgeList, algorithm: Algorithm, cfg: &MsfConfig) -> MsfResult {
    match algorithm {
        Algorithm::Prim => seq::prim::msf(g),
        Algorithm::Kruskal => seq::kruskal::msf(g),
        Algorithm::Boruvka => seq::boruvka::msf(g),
        Algorithm::BorEl => par::bor_el::msf(g, cfg),
        Algorithm::BorAl => par::bor_al::msf(g, cfg, par::bor_al::AllocPolicy::SystemHeap),
        Algorithm::BorAlm => par::bor_al::msf(g, cfg, par::bor_al::AllocPolicy::ThreadArena),
        Algorithm::BorFal => par::bor_fal::msf(g, cfg),
        Algorithm::BorFalFilter => par::filter::msf(g, cfg),
        Algorithm::MstBc => par::mst_bc::msf(g, cfg),
        Algorithm::BorWriteMin => par::bor_write_min::msf(g, cfg),
        Algorithm::FilterKruskal => par::filter_kruskal::msf(g, cfg),
    }
}

/// Run the three sequential baselines and return the fastest result — the
/// paper always reports speedup "compared with the best sequential
/// algorithm" (§5.2).
pub fn best_sequential(g: &EdgeList) -> (Algorithm, MsfResult) {
    [Algorithm::Prim, Algorithm::Kruskal, Algorithm::Boruvka]
        .into_iter()
        .map(|a| (a, minimum_spanning_forest(g, a, &MsfConfig::default())))
        .min_by(|a, b| {
            a.1.stats
                .total_seconds
                .partial_cmp(&b.1.stats.total_seconds)
                .expect("finite timings")
        })
        .expect("non-empty candidate list")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slugs_roundtrip() {
        for a in Algorithm::ALL {
            assert_eq!(Algorithm::parse(a.slug()), Some(a));
            assert_eq!(Algorithm::parse(&a.slug().to_ascii_uppercase()), Some(a));
        }
        assert_eq!(Algorithm::parse("injected"), None);
    }
}
