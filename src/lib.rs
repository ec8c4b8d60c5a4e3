//! # HybridTier
//!
//! A full reproduction of **"HybridTier: an Adaptive and Lightweight
//! CXL-Memory Tiering System"** (ASPLOS 2025) as a Rust workspace: the
//! HybridTier algorithm itself (dual counting-Bloom-filter hotness
//! trackers, Table-1 migration policy, blocked-CBF metadata), the five
//! baseline tiering systems it is evaluated against, the twelve evaluation
//! workloads, and a discrete-event tiered-memory simulator standing in for
//! the paper's emulated-CXL testbed.
//!
//! This crate is a facade: it re-exports the workspace crates and offers a
//! [`prelude`] for one-line imports.
//!
//! ## Quickstart
//!
//! ```
//! use hybridtier::prelude::*;
//!
//! // A skewed workload over 2 000 pages with a 1:8 fast:slow split.
//! let mut workload = ZipfPageWorkload::new(2_000, 0.99, 100_000, 42);
//! let pages = workload.footprint_pages(PageSize::Base4K);
//! let tier_cfg = TierConfig::for_footprint(pages, TierRatio::OneTo8, PageSize::Base4K);
//! let mut policy = build_policy(PolicyKind::HybridTier, &tier_cfg);
//!
//! let report = Engine::new(SimConfig::default()).run(
//!     &mut workload,
//!     policy.as_mut(),
//!     tier_cfg,
//! );
//! assert!(report.fast_hit_frac > 0.5, "hot set should migrate to the fast tier");
//! ```
//!
//! ## Crate map
//!
//! | Crate | Contents |
//! |---|---|
//! | [`cbf`] | counting Bloom filters (standard + blocked), sizing formulas |
//! | [`cache`] | set-associative L1/LLC simulator with per-source attribution |
//! | [`mem`] | tiers and N-tier ladder topologies, page table, latency model, migration accounting |
//! | [`trace`] | access/op abstractions, op/access batches, PEBS-like sampler |
//! | [`workloads`] | the 12 evaluation workloads (Table 2) |
//! | [`policies`] | HybridTier + Memtis, AutoNUMA, TPP, ARC, TwoQ, NeoMem — all with batched ingestion hooks and N-tier demotion chains |
//! | [`sim`] | the batched-pipeline simulation engine, reports, adaptation measurement |
//! | [`runner`] | `Scenario` abstraction + parallel sweep driver (many simulations per run) |
//!
//! The benchmark harness regenerating every paper figure/table lives in the
//! `hybridtier-bench` crate (`cargo run -p hybridtier-bench --release --bin
//! repro -- all`); its `bench` binary runs each sweep once on the parallel
//! sweep driver and writes a byte-deterministic `BENCH_*.json` document
//! with no timing in it. Host cost is measured by the separate
//! `benchmark/` package.

/// Doc-tests the repository README: every Rust snippet in it must keep
/// compiling and passing under `cargo test`.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;

pub use cache_sim as cache;
pub use hybridtier_cbf as cbf;
pub use tiering_mem as mem;
pub use tiering_policies as policies;
pub use tiering_sim as sim;
pub use tiering_trace as trace;
pub use tiering_workloads as workloads;

/// `Scenario` abstraction, parallel sweep driver, and distributed
/// execution (re-export of [`tiering_runner`], plus [`runner::remote`]).
pub mod runner {
    pub use tiering_runner::*;

    /// In-process fan-out of a sharded sweep over worker threads
    /// (re-export of [`fleet_exec`]), kept for the benchmark's
    /// shard-dispatch probe. Multi-host sweeps use `bench --shard` and
    /// `bench --merge`.
    pub mod remote {
        pub use fleet_exec::*;
    }
}

/// Everything needed to define and run a tiering experiment.
pub mod prelude {
    pub use crate::cache::{CacheConfig, CacheHierarchy, Source};
    pub use crate::cbf::{
        AccessCounter, BlockedCbf, CbfParams, CounterWidth, GroundTruthCounter, StandardCbf,
    };
    pub use crate::mem::{
        LadderKind, LatencyModel, MigrationError, PageId, PageSize, Tier, TierConfig, TierRatio,
        TierTopology, TieredMemory,
    };
    pub use crate::policies::{
        build_policy, ArcPolicy, AutoNumaPolicy, GlobalController, HybridTierConfig,
        HybridTierPolicy, MemtisPolicy, MigrationDecision, NeoMemPolicy, PolicyCtx, PolicyKind,
        RebalanceEvent, TieringPolicy, TppPolicy, TwoQPolicy,
    };
    pub use crate::runner::{
        BudgetSpec, ChurnSpec, CoLocationMatrix, FleetMatrix, FleetSpec, PolicySpec, Scenario,
        ScenarioError, ScenarioKind, ScenarioMatrix, ScenarioResult, ShardReport, ShardSpec,
        ShardedSweep, SweepReport, SweepRunner, TenantSpec, TierSpec, WorkloadSpec,
    };
    pub use crate::sim::{
        adaptation_time_ns, Engine, MultiTenantReport, SimConfig, SimReport, TenantReport,
    };
    pub use crate::trace::{
        Access, AccessBatch, Op, Sample, Sampler, TraceError, TraceReader, TraceWriter, Workload,
    };
    pub use crate::workloads::{
        build_workload, record_workload, BfsWorkload, CacheLibConfig, CacheLibWorkload, Graph,
        GraphKind, PhasedWorkload, SequentialScanWorkload, TraceReplayWorkload, WorkloadId,
        ZipfDistribution, ZipfPageWorkload,
    };
}
