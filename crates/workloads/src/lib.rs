//! Generative models of the twelve workloads in the HybridTier evaluation
//! (paper Table 2).
//!
//! The paper evaluates on production-scale workloads (150–335 GB footprints).
//! This crate reproduces each one as a *generator* with the same
//! distributional structure at ~512× smaller footprint, so the simulator can
//! replay them in seconds while preserving what tiering systems actually
//! react to: skew, hot-set size, and hotness churn.
//!
//! | Paper workload | Type here |
//! |---|---|
//! | CacheLib CDN | [`CacheLibWorkload`] with [`CacheLibConfig::cdn`] |
//! | CacheLib Social-graph | [`CacheLibWorkload`] with [`CacheLibConfig::social_graph`] |
//! | GAP BFS / CC / PR (Kronecker + uniform) | [`BfsWorkload`], [`CcWorkload`], [`PrWorkload`] over [`Graph`] |
//! | SPEC 603.bwaves | [`BwavesWorkload`] |
//! | SPEC 654.roms | [`RomsWorkload`] |
//! | Silo (YCSB-C) | [`SiloWorkload`] |
//! | XGBoost (Criteo) | [`XgboostWorkload`] |
//!
//! Plus synthetic building blocks ([`ZipfPageWorkload`],
//! [`SequentialScanWorkload`]) used by the motivation figures and unit tests,
//! and two composition layers: [`PhasedWorkload`] (generators switching at
//! op thresholds, for diurnal long-horizon scenarios) and
//! [`TraceReplayWorkload`] + [`record_workload`] (capture any generator to
//! an on-disk trace and replay it chunk-streamed through the batch
//! pipeline — format in `docs/TRACE_FORMAT.md`).
//!
//! All generators are deterministic given their seed.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cachelib;
mod gap;
mod layout;
mod memo;
mod phased;
mod replay;
mod silo;
mod spec;
mod suite;
mod synthetic;
mod xgboost;
mod zipf;

pub use cachelib::{CacheLibConfig, CacheLibWorkload, ShiftEvent};
pub use gap::{BfsWorkload, CcWorkload, Graph, GraphKind, PrWorkload};
pub use layout::{LayoutBuilder, Region};
pub use phased::PhasedWorkload;
pub use replay::{record_workload, TraceReplayWorkload};
pub use silo::{SiloConfig, SiloWorkload};
pub use spec::{BwavesWorkload, RomsWorkload};
pub use suite::{build_workload, visit_workload, WorkloadId, WorkloadVisitor};
pub use synthetic::{SequentialScanWorkload, ZipfPageWorkload};
pub use xgboost::{XgboostConfig, XgboostWorkload};
pub use zipf::{ShiftableZipf, ZipfDistribution};
