//! In-process fan-out of a sharded sweep: `workers` scoped threads run the
//! round-robin shards of one scenario matrix and the shard reports merge
//! back into the unsharded answer.
//!
//! This is not a second way to run a sweep on many workers — that is
//! [`SweepRunner::new(n)`](tiering_runner::SweepRunner::new) on one host
//! and `bench --shard i/N` plus `bench --merge` across hosts. The crate is
//! kept at the size of its one caller, the benchmark's shard-dispatch
//! probe (`benchmark/src/probes.rs`), which prices what cutting a sweep
//! into shards and merging them back costs. ROADMAP direction 6 retires
//! that probe; this crate goes with it.
//!
//! Shard `i` of [`ShardSpec::all(shards)`](tiering_runner::ShardSpec::all)
//! runs on worker `i % workers`, each shard as
//! `ShardedSweep::new(spec, SweepRunner::serial()).try_run(matrix())`, and
//! the reports merge through
//! [`SweepReport::merge`](tiering_runner::SweepReport::merge). Shards are
//! deterministic, so nothing is retried: an unbuildable scenario is a
//! typed [`FleetError::Scenario`] on its first failure, and a panic inside
//! a shard propagates, as it does in `SweepRunner`.
//!
//! ```
//! use fleet_exec::{sweep_coordinator, FleetConfig};
//! use tiering_policies::PolicyKind;
//! use tiering_runner::{ScenarioMatrix, SweepRunner};
//! use tiering_sim::SimConfig;
//! use tiering_workloads::WorkloadId;
//!
//! let matrix = || {
//!     ScenarioMatrix::new(SimConfig::default().with_max_ops(2_000), 42)
//!         .workloads([WorkloadId::CdnCacheLib, WorkloadId::Silo])
//!         .policies([PolicyKind::HybridTier, PolicyKind::FirstTouch])
//!         .build()
//! };
//! let fleet = sweep_coordinator(matrix, 3, FleetConfig::default())
//!     .run_sweep(6)
//!     .expect("every scenario builds");
//! assert!(fleet.report.same_outcomes(&SweepRunner::serial().run(matrix())));
//! assert_eq!(fleet.exec.retries, 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::fmt;
use std::panic;
use std::thread;

use tiering_runner::{
    MergeError, Scenario, ScenarioError, ShardReport, ShardSpec, ShardedSweep, SweepReport,
    SweepRunner,
};

/// The fan-out's settings: there are none. A fault-free in-process shard
/// has nothing to time out, retry or back off from.
#[derive(Debug, Clone, Copy, Default)]
pub struct FleetConfig {}

/// A matrix factory fanned out over `workers` threads; run it with
/// [`FleetCoordinator::run_sweep`].
pub struct FleetCoordinator<M> {
    matrix: M,
    workers: usize,
}

impl<M> fmt::Debug for FleetCoordinator<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FleetCoordinator")
            .field("workers", &self.workers)
            .finish_non_exhaustive()
    }
}

/// A fan-out of `matrix` over `workers` in-process workers. Every worker
/// builds the full matrix and runs only its shards' slices, as a host of
/// a `bench --shard` run does.
pub fn sweep_coordinator<M>(matrix: M, workers: usize, _config: FleetConfig) -> FleetCoordinator<M>
where
    M: Fn() -> Vec<Scenario> + Sync,
{
    FleetCoordinator { matrix, workers }
}

impl<M> FleetCoordinator<M>
where
    M: Fn() -> Vec<Scenario> + Sync,
{
    /// Runs the matrix in `shards` round-robin shards, shard `i` on worker
    /// `i % workers`, and merges the reports into one identical in every
    /// deterministic field to an unsharded [`SweepRunner`] run.
    pub fn run_sweep(self, shards: usize) -> Result<FleetSweep, FleetError> {
        if self.workers == 0 {
            return Err(FleetError::NoWorkers);
        }
        if shards == 0 {
            return Err(FleetError::NoShards);
        }
        let (matrix, workers) = (&self.matrix, self.workers);
        let per_worker: Vec<Result<Vec<ShardReport>, ScenarioError>> = thread::scope(|scope| {
            let handles: Vec<_> = (0..workers.min(shards))
                .map(|worker| {
                    scope.spawn(move || {
                        ShardSpec::all(shards)
                            .skip(worker)
                            .step_by(workers)
                            .map(|spec| {
                                ShardedSweep::new(spec, SweepRunner::serial()).try_run(matrix())
                            })
                            .collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|payload| panic::resume_unwind(payload))
                })
                .collect()
        });
        let mut reports = Vec::with_capacity(shards);
        for worker in per_worker {
            reports.extend(worker?);
        }
        Ok(FleetSweep {
            report: SweepReport::merge(reports)?,
            exec: FleetExecReport { retries: 0 },
        })
    }
}

/// What the fan-out did besides the results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetExecReport {
    /// Shard re-dispatches. Always 0: an in-process shard is
    /// deterministic, so a second attempt would fail the same way, and
    /// the first failure is returned instead.
    pub retries: u64,
}

/// A completed fan-out: the merged results plus the execution account.
#[derive(Debug)]
pub struct FleetSweep {
    /// The merged sweep — identical in every deterministic field to an
    /// unsharded [`SweepRunner`] run.
    pub report: SweepReport,
    /// The execution account.
    pub exec: FleetExecReport,
}

/// Why a fan-out failed.
#[derive(Debug)]
pub enum FleetError {
    /// Zero workers were requested.
    NoWorkers,
    /// Zero shards were requested.
    NoShards,
    /// A scenario could not be built (an unreadable trace input).
    Scenario(ScenarioError),
    /// The shard reports did not form a complete union.
    Merge(MergeError),
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::NoWorkers => write!(f, "fleet has no workers"),
            FleetError::NoShards => write!(f, "cannot run a sweep over zero shards"),
            FleetError::Scenario(e) => e.fmt(f),
            FleetError::Merge(e) => write!(f, "merging shard reports failed: {e}"),
        }
    }
}

impl std::error::Error for FleetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FleetError::NoWorkers | FleetError::NoShards => None,
            FleetError::Scenario(e) => Some(e),
            FleetError::Merge(e) => Some(e),
        }
    }
}

impl From<ScenarioError> for FleetError {
    fn from(e: ScenarioError) -> Self {
        FleetError::Scenario(e)
    }
}

impl From<MergeError> for FleetError {
    fn from(e: MergeError) -> Self {
        FleetError::Merge(e)
    }
}
