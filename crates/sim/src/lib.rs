//! The discrete-event tiered-memory simulation engine.
//!
//! This crate replaces the paper's two-socket emulated-CXL testbed (§5.1):
//! it replays a [`Workload`](tiering_trace::Workload)'s operations against a
//! [`TieredMemory`](tiering_mem::TieredMemory) managed by a
//! [`TieringPolicy`](tiering_policies::TieringPolicy), advancing simulated
//! time by each operation's compute time plus its memory-access latencies,
//! and charging tiering costs where the real system pays them:
//!
//! * **synchronously** — hint-fault service time lands on the faulting
//!   access (recency systems sample through faults);
//! * **asynchronously** — a configurable fraction of migration bandwidth
//!   and tiering-thread CPU time is charged to the application, modelling
//!   interference from the co-located tiering runtime;
//! * **through the cache** — when cache simulation is enabled, application
//!   and metadata references share a simulated L1/LLC and misses are
//!   attributed per source (paper Figures 5/13/14).
//!
//! Outputs are [`SimReport`]s: latency percentiles (exact, from log-bucketed
//! histograms), a median-latency timeline (paper Figure 4), migration and
//! cache statistics, and a stable outcome
//! [`fingerprint`](SimReport::fingerprint) that distributed sweeps use as
//! portable scenario identity. Figures that need more — the sample stream,
//! cache counters per window — read it through a policy's sample hook or
//! by stepping a [`SimRun`].
//!
//! # Module map
//!
//! * `engine` — [`Engine`] and [`SimConfig`]: one [`SimRun`] to completion.
//! * `pipeline` — [`SimRun`], the one engine loop, over the batched stage
//!   pipeline (pull → access → policy → migrate → account over
//!   [`AccessBatch`](tiering_trace::AccessBatch)es; provably
//!   batch-size-invariant and resumable at any clock bound).
//! * `report` — [`SimReport`] and, for a fleet run (N tenants, one
//!   [`SimRun`] each, under the §7 global controller — the round loop
//!   lives in `tiering_runner`), [`MultiTenantReport`] and friends.
//! * `adaptation` / `histo` / `prefetch` — measurement helpers:
//!   adaptation-time extraction, exact log-bucketed percentiles, stream
//!   prefetch detection.
//!
//! Everything here is single-run machinery; *many* runs (matrices,
//! parallel sweeps, multi-host sharding) live in `tiering_runner`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod adaptation;
mod charge;
mod engine;
mod histo;
mod pipeline;
mod prefetch;
mod report;

pub use adaptation::{adaptation_time_ns, steady_state_p50};
pub use charge::charge_scaled;
pub use engine::{CacheSimOptions, Engine, SimConfig};
pub use histo::LogHistogram;
pub use pipeline::SimRun;
pub use prefetch::StreamPrefetcher;
pub use report::{
    ChurnKind, ChurnRecord, LatencySummary, MultiTenantReport, SimReport, TenantReport,
    TimelinePoint, SUMMARY_MAX_TENANTS,
};
