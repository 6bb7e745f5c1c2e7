//! # msf-suite
//!
//! Umbrella crate for the reproduction of Bader & Cong, *Fast Shared-Memory
//! Algorithms for Computing the Minimum Spanning Forest of Sparse Graphs*
//! (IPPS 2004). It re-exports the three library crates so examples and
//! downstream users can depend on a single name:
//!
//! * [`primitives`] — the work-stealing pool, parallel sample sort, prefix
//!   sums, connected components, heaps, union–find, arenas, work stealing.
//! * [`graph`] — edge-list / adjacency-array / flexible-adjacency-list graph
//!   representations, the paper's generator suite, and DIMACS-style I/O.
//! * [`core`] — the eight MSF algorithms (Prim, Kruskal, sequential Borůvka,
//!   Bor-EL, Bor-AL, Bor-ALM, Bor-FAL, MST-BC) plus verification and
//!   per-iteration statistics.
//!
//! ```
//! use msf_suite::graph::generators::{random_graph, GeneratorConfig};
//! use msf_suite::core::{minimum_spanning_forest, Algorithm, MsfConfig};
//!
//! let g = random_graph(&GeneratorConfig::with_seed(1), 1_000, 5_000);
//! let msf = minimum_spanning_forest(&g, Algorithm::BorFal, &MsfConfig::default());
//! assert_eq!(msf.edges.len(), 1_000 - msf.components as usize);
//! ```

pub use msf_core as core;
pub use msf_graph as graph;
pub use msf_primitives as primitives;
