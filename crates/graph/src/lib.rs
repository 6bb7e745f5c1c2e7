//! # msf-graph
//!
//! Sparse-graph representations, generators, and I/O for the MSF suite.
//!
//! The paper's three graph layouts are all here:
//!
//! * [`edgelist::EdgeList`] — the flat list of weighted undirected edges
//!   that Bor-EL sorts globally each iteration (§2.1);
//! * [`adjacency::AdjacencyArray`] — cache-friendly CSR adjacency arrays
//!   (Park/Penner/Prasanna-style), the substrate of Bor-AL and of every
//!   Prim-style traversal (§2.2);
//! * [`flexadj::FlexAdjacencyList`] — the paper's new *flexible adjacency
//!   list*, a per-supervertex list of adjacency arrays whose compact-graph
//!   step is pointer surgery instead of edge rewriting (§2.3).
//!
//! [`generators`] reproduces the full §5.1 input suite: random `G(n, m)`,
//! regular/irregular meshes (2D, 2D60, 3D40), fixed-degree geometric graphs,
//! and the Chung–Condon structured worst cases `str0..str3` — plus the
//! large-graph tier's streaming R-MAT and power-law generators.
//!
//! The large-graph substrate lives in [`binfmt`] (the `.msfb` binary
//! on-disk format with a memory-mapped zero-copy loader) and [`vertexid`]
//! (the sealed u32/u64 width trait of its id arrays).

// `binfmt::bytes` is the single intentional exception (mmap + checked POD
// casts); everything else stays unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod adjacency;
pub mod binfmt;
pub mod edge;
pub mod edgelist;
pub mod flexadj;
pub mod generators;
pub mod io;
pub mod pathmax;
pub mod transform;
pub mod validate;
pub mod vertexid;

pub use adjacency::AdjacencyArray;
pub use binfmt::BinGraph;
pub use edge::{Edge, EdgeKey, OrderedWeight};
pub use edgelist::{EdgeList, GraphBuildError};
pub use flexadj::FlexAdjacencyList;
pub use vertexid::VertexId;
