//! Parallel scenario runner: many simulations per invocation.
//!
//! The paper's evaluation is a *sweep* — twelve workloads × six systems ×
//! three tier ratios, plus ablations — and production CXL tiering is
//! evaluated fleet-wide across many concurrent scenarios. This crate turns
//! the engine's one-run API into that shape:
//!
//! * [`Scenario`] — one self-contained experiment: a workload spec × policy
//!   spec × tier spec × [`SimConfig`](tiering_sim::SimConfig) × seed.
//!   Scenarios are *recipes* (factories, not live objects): each run builds
//!   its workload and policy inside the executing thread, so nothing
//!   mutable crosses threads and every run is as deterministic as
//!   [`Engine::run`](tiering_sim::Engine::run) itself.
//! * [`ScenarioMatrix`] — cross-product builder for the standard
//!   workload × policy × ratio sweeps, with deterministic per-scenario
//!   seeds derived from one base seed (see [`derive_seed`]).
//! * [`TenantSpec`] / [`FleetSpec`] / [`ChurnSpec`] /
//!   [`ScenarioKind::Fleet`] — multi-tenant runs as a first-class sweep
//!   dimension: N tenants share one fast tier under the §7 global
//!   controller, optionally arriving and departing mid-run on an op-count
//!   schedule, with quotas apportioned under one of the built-in
//!   [`ObjectiveKind`](tiering_policies::ObjectiveKind)s (proportional,
//!   max-min, SLO-utility). The paper's co-location is the static
//!   proportional fleet.
//! * [`CoLocationMatrix`] / [`FleetMatrix`] — pairings × budgets and
//!   fleets × objectives × budgets cross-product into ordinary scenario
//!   lists (see the crate README for an authoring guide).
//! * [`SweepRunner`] — a work-stealing thread pool over a scenario list.
//!   Results land in input order no matter which thread finishes first, so
//!   parallel output is byte-identical to serial output — asserted by this
//!   crate's tests.
//! * [`SweepReport`] — the merged results in input order, with lookup
//!   helpers and an outcome comparison; the bench harness renders them as
//!   the byte-deterministic `BENCH_*.json` document (simulated outcomes
//!   and fingerprints, no host timings).
//! * [`ShardSpec`] / [`ShardedSweep`] / [`ShardReport`] /
//!   [`SweepReport::merge`] / [`reassemble`] — distributed sweeps: any matrix partitions
//!   deterministically across hosts by round-robin over the canonical
//!   scenario order (per-scenario seeds are identical sharded or not), and
//!   merging the shard reports reproduces the unsharded results exactly —
//!   see [`ShardSpec`] and the crate README's "sharding a sweep across
//!   hosts" guide.
//!
//! # Example
//!
//! ```
//! use tiering_mem::TierRatio;
//! use tiering_policies::PolicyKind;
//! use tiering_runner::{ScenarioMatrix, SweepRunner};
//! use tiering_sim::SimConfig;
//! use tiering_workloads::WorkloadId;
//!
//! let scenarios = ScenarioMatrix::new(SimConfig::default().with_max_ops(5_000), 7)
//!     .workloads([WorkloadId::CdnCacheLib])
//!     .policies([PolicyKind::HybridTier, PolicyKind::FirstTouch])
//!     .ratios([TierRatio::OneTo8])
//!     .build();
//! let sweep = SweepRunner::new(0).run(scenarios);
//! assert_eq!(sweep.results.len(), 2);
//! assert!(sweep.results[0].report.ops > 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod multi_tenant;
mod scenario;
mod shard;
mod sweep;

pub use scenario::{
    BudgetSpec, ChurnAction, ChurnSpec, FleetSpec, PolicySpec, Scenario, ScenarioError,
    ScenarioKind, ScenarioResult, TenantSpec, TierSpec, WorkloadSpec,
};
pub use shard::{reassemble, MergeError, ShardError, ShardReport, ShardSpec, ShardedSweep};
pub use sweep::{CoLocationMatrix, FleetMatrix, ScenarioMatrix, SweepReport, SweepRunner};

/// Doc-tests the crate README: every Rust snippet in it must keep
/// compiling and passing under `cargo test`.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;

/// Derives the seed for scenario `index` of a sweep from the sweep's base
/// seed (SplitMix64 of `base ^ index`): deterministic, stable under
/// re-ordering, and uncorrelated between adjacent indices — so two
/// scenarios of one sweep never share a workload RNG stream by accident.
pub fn derive_seed(base: u64, index: u64) -> u64 {
    let mut z = base ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::derive_seed;

    #[test]
    fn derived_seeds_are_stable_and_distinct() {
        assert_eq!(derive_seed(7, 3), derive_seed(7, 3));
        let seeds: std::collections::HashSet<u64> =
            (0..1000).map(|i| derive_seed(0xA5F0_5EED, i)).collect();
        assert_eq!(seeds.len(), 1000, "seed collisions within one sweep");
        assert_ne!(derive_seed(1, 0), derive_seed(2, 0), "base seed ignored");
    }
}
