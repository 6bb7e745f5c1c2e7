//! The four parallel Borůvka variants (§2), the new MST-BC hybrid (§4), and
//! the lock-free speed contenders (Bor-WriteMin, Filter-Kruskal).

pub mod bor_al;
pub mod bor_el;
pub mod bor_fal;
pub mod bor_write_min;
pub(crate) mod common;
pub mod filter;
pub mod filter_kruskal;
pub mod mst_bc;
