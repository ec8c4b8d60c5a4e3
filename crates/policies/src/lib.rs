//! Memory tiering policies over a common interface.
//!
//! This crate implements the paper's contribution and all five baselines it
//! compares against (paper §5.2), driven by the same sampled access stream
//! and tiered-memory substrate:
//!
//! * [`HybridTierPolicy`] — the paper's system: frequency + momentum
//!   counting-Bloom-filter trackers, promote on *either* signal, demote on
//!   *neither*, second chance in between (Table 1).
//! * [`MemtisPolicy`] — state-of-the-art frequency-based tiering: exact
//!   per-page counters, a hotness histogram with an auto-adjusted threshold,
//!   and periodic cooling (Lee et al., SOSP'23).
//! * [`AutoNumaPolicy`] — Linux NUMA balancing: hint-fault recency with a
//!   1-second promotion threshold and MGLRU-style pressure demotion.
//! * [`TppPolicy`] — transparent page placement (Maruf et al., ASPLOS'23):
//!   fast-tier-first allocation, two-fault promotion filter, proactive
//!   watermark demotion.
//! * [`ArcPolicy`] / [`TwoQPolicy`] — classic caching algorithms adapted to
//!   tiering, with slow-tier initial allocation as in the paper.
//! * [`AllFastPolicy`] — the all-fast-tier upper bound of Figure 11.
//! * [`NeoMemPolicy`] — a NeoMem-style device-side counter design: the CXL
//!   device counts accesses to its own pages in hardware and the host only
//!   pays for periodic readouts, a third observation mode (exact device
//!   counters) alongside host PEBS sampling and CBF compression.
//!
//! Policies communicate with the simulation engine through
//! [`TieringPolicy`]: they receive each op's PEBS-like [`Sample`]s and/or
//! its accesses (the fault hook) in one batched call, mutate the
//! [`TieredMemory`] page table, and report the metadata cache lines they
//! touch (for the cache-overhead experiments) via [`PolicyCtx`].
//!
//! Each mechanism is written once. Demotion is a watermark-driven clock
//! sweep of the address space (paper §4.3), and every sweep here — the
//! fast-tier scans of HybridTier and Memtis, the two-pass recency reclaim
//! of TPP, AutoNUMA and NeoMem, and the [`DemotionChain`] cascade down a
//! ladder's middle rungs — advances its hand through
//! [`TieredMemory::next_resident`](tiering_mem::TieredMemory::next_resident),
//! charging scan cost per entry walked and testing its (exact) watermark
//! before the first entry and after each resident. TPP is built on NUMA
//! balancing, so the scanner, per-page fault bookkeeping and reclaim of the
//! two recency baselines are one crate-private hint-fault model
//! (`hint_fault.rs`); the policies supply only their promotion test and
//! reclaim trigger.
//!
//! Above the per-tenant policies sits the `global` module — the paper's §7
//! multi-tenant extension: a [`GlobalController`] owns one physical fast
//! budget, collects each tenant's demand signal
//! ([`TieringPolicy::fast_demand_pages`]), and re-partitions on a cadence
//! under one of three built-in, exact-integer objectives
//! ([`ObjectiveKind`]: proportional share, max-min fairness, SLO utility),
//! supporting mid-run tenant churn and recording every decision as a typed
//! [`RebalanceEvent`]. Its invariants (budget conservation, floors,
//! min-one admission, determinism, demand monotonicity) are
//! property-tested for every objective in `tests/global_properties.rs` and
//! model-tested under churn in `tests/global_churn_model.rs`; all three
//! suites compare the controller with the full-scan oracle in
//! `tests/support/oracle.rs`.
//!
//! [`Sample`]: tiering_trace::Sample
//! [`TieredMemory`]: tiering_mem::TieredMemory

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod arc;
mod autonuma;
mod baseline;
mod chain;
mod ema;
mod flat_table;
mod global;
mod hint_fault;
mod histogram;
mod hybridtier;
mod list_set;
mod memtis;
mod neomem;
mod ostree;
mod policy;
mod tpp;
mod twoq;

pub use arc::ArcPolicy;
pub use autonuma::AutoNumaPolicy;
pub use baseline::{AllFastPolicy, FirstTouchPolicy};
pub use chain::DemotionChain;
pub use ema::{ema_lag_series, EmaScore};
pub use flat_table::FlatPageMap;
pub use global::{ControllerMode, GlobalController, ObjectiveKind, RebalanceEvent};
pub use histogram::HotnessHistogram;
pub use hybridtier::{HybridTierConfig, HybridTierPolicy, MigrationDecision, TrackerLayout};
pub use list_set::ListSet;
pub use memtis::{MemtisConfig, MemtisPolicy};
pub use neomem::{NeoMemConfig, NeoMemPolicy};
pub use policy::{build_policy, visit_policy, PolicyCtx, PolicyKind, PolicyVisitor, TieringPolicy};
pub use tpp::TppPolicy;
pub use twoq::TwoQPolicy;
