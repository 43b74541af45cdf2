//! # websim — simulated web access for the concurrent-connections study
//!
//! SoftEng 751 **project 10**: "due to the latency of network
//! connections, it is sometimes meaningful to open several connections
//! at the same time … however, the question arises how many
//! connections should be opened at the same time. Students implemented
//! a simple program that needs to access a large number of web-pages
//! and used Parallel Task to download these pages as quickly as
//! possible."
//!
//! Substitution (see DESIGN.md): no network exists in this container,
//! so [`server::SimServer`] models one deterministically — per-page
//! round-trip latency plus a transfer time that *degrades as client
//! concurrency grows* (shared bandwidth), which is exactly the
//! trade-off that creates an optimal connection count:
//!
//! * few connections → latency dominates, link idle;
//! * many connections → bandwidth shared thin, diminishing returns —
//!   and past the server's connection limit, queueing.
//!
//! [`fetcher`] downloads a page set with a configurable connection
//! pool built on partask multi-tasks and reports wall time, and
//! [`fetcher::sweep_connections`] regenerates the optimum curve of
//! experiment E10. The time scale is microseconds-per-simulated-
//! millisecond so the sweep runs quickly; shapes are scale-invariant.
//!
//! [`resilient`] adds the graceful-degradation layer for fault-storm
//! soaks: deadline-aware load shedding, per-connection circuit
//! breakers, and stale-cache serving with quantified
//! coverage/staleness.
//!
//! [`cluster`] scales the story from one server to a sharded tier:
//! a consistent-hash load balancer over N replicas with R-way
//! replication, health-check ejection, hedged requests, bounded
//! per-replica queues that shed with an attributed
//! [`faultsim::ShedReason`], and supervised replica kill/restart that
//! loses zero acknowledged pages.

pub mod cluster;
pub mod fetcher;
pub mod resilient;
pub mod server;

pub use cluster::{Cluster, ClusterConfig, ClusterReport, HashRing, OutageScript};
pub use fetcher::{
    fetch_all, predict_fetch_sim_ms, sweep_connections, try_fetch_all, FetchOutcome, FetchReport,
    PageOutcome, SweepPoint,
};
pub use resilient::{ResilientConfig, ResilientCrawler, ResilientPage, ResilientReport};
pub use server::{PageMeta, RequestError, ServerConfig, SimServer};
