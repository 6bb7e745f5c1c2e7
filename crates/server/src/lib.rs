//! `msf-server`: the persistent MSF daemon.
//!
//! The offline CLI pays the whole pipeline on every invocation — process
//! start, graph parse, pool spin-up, first-round contraction — even when
//! the same graph is computed a hundred times with different algorithms.
//! The daemon amortizes all four: graphs load once into a capacity-bounded
//! [`registry`], the process-global work-stealing pool stays warm across
//! requests, and the first Borůvka round of each resident graph —
//! Bor-WriteMin's, run on the pool by the first request that needs it — is
//! cached and shared by every algorithm and thread count (valid because the
//! `(weight, edge id)` total order makes the MSF — and hence every round-1
//! hook — unique).
//!
//! Layering, bottom-up:
//!
//! - [`proto`] — the length-prefixed binary wire format (framing, request
//!   and response bodies). No serde; flat little-endian fields.
//! - [`registry`] — named resident graphs, LRU eviction under a byte cap,
//!   refcount-safe unloading, one cached first round per graph.
//! - [`admission`] — the work-unit budget gate for large jobs: cap, queue,
//!   reject.
//! - [`batch`] — the epoch batcher that runs small jobs back-to-back on
//!   one executor so a burst shares one pool wake-up.
//! - [`server`] — accept/dispatch/drain, signal handling, hard-failure
//!   accounting, the serve entry point.
//! - [`client`] — the synchronous client used by `msf client`, benches,
//!   and tests.

#![warn(missing_docs)]

pub mod admission;
pub mod batch;
pub mod client;
pub mod proto;
pub mod registry;
pub mod server;

pub use client::Client;
pub use server::{serve, Listen, Server, ServerConfig};
