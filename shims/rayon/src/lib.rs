//! Empty on purpose. This package used to be the workspace's stand-in for
//! `rayon`; every kernel now calls `msf_pool::{join, map_collect, map_mut}`
//! directly. The package stays, with its `msf-pool` dependency and the
//! crates' `rayon.workspace = true` lines, only so that
//! `benchmark/Cargo.lock` stays byte-identical. It goes together with the
//! next change to the benchmark, which re-locks that file.
