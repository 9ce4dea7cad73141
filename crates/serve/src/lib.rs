//! # shmls-serve — compile-as-a-service for stencil-hmls
//!
//! A long-running compilation server: clients send canonical DSL source
//! plus compile options over a newline-delimited JSON protocol on TCP
//! and receive the compiled design's fingerprint, structural summary,
//! per-pass timings and cache disposition. The server is backed by
//! [`stencil_hmls::PersistentCache`], so concurrent requests for one
//! key compile exactly once (single-flight) and a restarted server
//! answers repeat keys from disk without recompiling.
//!
//! Five public modules, one per layer, over one shared connection loop
//! (`listener`: accept thread, worker pool, the NDJSON read/answer/write
//! loop the server and the router both run):
//!
//! - [`protocol`] — the wire format: [`protocol::Request`] /
//!   [`protocol::Response`] and their hand-rolled JSON codecs (the
//!   workspace's [`shmls_ir::json::Json`]; no serialisation
//!   dependency).
//! - [`server`] — the TCP service: the shared listener answering from
//!   the compile cache, per-request panic isolation, cooperative
//!   shutdown.
//! - [`shard`] — ring membership ([`shard::Topology`]) and the
//!   in-process shard supervisor ([`shard::ShardSet`]) with the
//!   kill/restart hooks the fault-injection tests drive.
//! - [`router`] — the front tier: a consistent-hash ring
//!   ([`router::Ring`]) over the live shards, keyed by the
//!   content-addressed compile key, with failover-and-replay when a
//!   shard dies mid-request.
//! - [`loadgen`] — the load generator and gate: N concurrent clients
//!   replaying a mixed cold/warm key set, reporting throughput, hit
//!   rates, latency percentiles and per-key dispositions, and failing
//!   loudly when the exactly-once or hit-rate invariants do not hold.
//!   Speaks to a single server or (`router: true`) to the front tier.
//!
//! ## Example
//!
//! ```
//! use shmls_serve::loadgen::{self, LoadgenConfig};
//! use shmls_serve::server::{serve, ServerConfig};
//!
//! let handle = serve(ServerConfig::default()).unwrap();
//! let report = loadgen::run(&LoadgenConfig {
//!     addr: handle.local_addr().to_string(),
//!     clients: 2,
//!     requests: 8,
//!     unique_keys: 2,
//!     ..Default::default()
//! })
//! .unwrap();
//! assert_eq!(report.gate_failures, Vec::<String>::new());
//! assert_eq!(report.cold.counts.misses, 2); // each unique key compiled once
//! assert_eq!(report.warm.counts.hit_rate(), 1.0);
//! handle.shutdown();
//! ```
//!
//! ## Routed example
//!
//! ```
//! use shmls_serve::loadgen::{self, LoadgenConfig};
//! use shmls_serve::router::{start_router, RouterConfig};
//! use shmls_serve::shard::{ShardSet, ShardSetConfig};
//!
//! let shards = ShardSet::start(ShardSetConfig {
//!     shards: 2,
//!     workers_per_shard: 2,
//!     ..Default::default()
//! })
//! .unwrap();
//! let router = start_router(RouterConfig::default(), shards.topology()).unwrap();
//! let report = loadgen::run(&LoadgenConfig {
//!     addr: router.local_addr().to_string(),
//!     clients: 2,
//!     requests: 8,
//!     unique_keys: 2,
//!     router: true,
//!     ..Default::default()
//! })
//! .unwrap();
//! assert_eq!(report.gate_failures, Vec::<String>::new());
//! // Every request was answered by a ring member.
//! let routed = report.router.as_ref().unwrap();
//! assert_eq!(routed.forwarded, 16);
//! router.shutdown();
//! shards.shutdown();
//! ```

#![warn(missing_docs)]

mod listener;
pub mod loadgen;
pub mod protocol;
pub mod router;
pub mod server;
pub mod shard;

pub use loadgen::{LoadgenConfig, LoadgenReport, PhaseReport};
pub use protocol::{ErrorKind, Request, RequestOptions, Response};
pub use router::{start_router, Ring, RouterConfig, RouterHandle, RouterReport};
pub use server::{serve, ServerConfig, ServerHandle};
pub use shard::{ShardSet, ShardSetConfig, Topology};
