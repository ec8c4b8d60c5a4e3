//! Matrix builders, the parallel sweep driver, and its merged report.
//!
//! Three cross-product builders turn experiment dimensions into canonical
//! scenario lists — [`ScenarioMatrix`] (workloads × policies × ratios),
//! [`CoLocationMatrix`] (pairings × budgets), [`FleetMatrix`] (fleets ×
//! objectives × budgets) — each deriving per-scenario seeds from one base
//! seed and the scenario's position in that canonical order. Because seeds
//! are fixed at build time, any *selection* of the built list (a
//! [`ShardSpec`] slice for a multi-host run, a filtered subset, a reordered
//! copy) runs the exact same simulations; the builders' `shard(..)` methods
//! exploit this for distributed sweeps.
//!
//! [`SweepRunner`] executes any scenario list over a work-stealing pool and
//! returns a [`SweepReport`] with results **in input order** — execution
//! interleaving never leaks into the output, so serial and parallel sweeps
//! are interchangeable and shard reports merge deterministically
//! ([`SweepReport::merge`], defined in the shard module).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use tiering_mem::{LadderKind, TierRatio};
use tiering_policies::{ObjectiveKind, PolicyKind};
use tiering_sim::SimConfig;
use tiering_workloads::WorkloadId;

use crate::derive_seed;
use crate::scenario::{
    BudgetSpec, ChurnSpec, CoLocationSpec, FleetSpec, Scenario, ScenarioError, ScenarioResult,
    TenantSpec,
};
use crate::shard::ShardSpec;

/// Builds the standard workload × policy × ratio cross product with
/// deterministic per-scenario seeds.
///
/// Iteration order is workload-major, then ratio, then policy — the order
/// the paper's figures tabulate — and seeds are derived from the base seed
/// and the scenario *index*, so adding a policy to the list never changes
/// the seeds of scenarios that come before it... within one build.
#[derive(Debug, Clone)]
pub struct ScenarioMatrix {
    workloads: Vec<WorkloadId>,
    policies: Vec<PolicyKind>,
    ratios: Vec<TierRatio>,
    ladders: Vec<LadderKind>,
    config: SimConfig,
    seed: u64,
    seed_mode: SeedMode,
}

/// How per-scenario seeds are assigned within a matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SeedMode {
    /// One derived seed per (workload, ratio) cell: policies at one cell are
    /// compared on *identical* access streams (the paper's protocol), while
    /// distinct cells get independent streams. The default.
    PerCell,
    /// Every scenario uses the base seed verbatim (the legacy harness
    /// behaviour; keeps regenerated figures comparable across PRs).
    Fixed,
}

impl ScenarioMatrix {
    /// A matrix over the given engine config and base seed.
    pub fn new(config: SimConfig, seed: u64) -> Self {
        Self {
            workloads: Vec::new(),
            policies: Vec::new(),
            ratios: vec![TierRatio::OneTo8],
            ladders: Vec::new(),
            config,
            seed,
            seed_mode: SeedMode::PerCell,
        }
    }

    /// Sets the workloads (rows).
    #[must_use]
    pub fn workloads(mut self, ids: impl IntoIterator<Item = WorkloadId>) -> Self {
        self.workloads = ids.into_iter().collect();
        self
    }

    /// Sets the policies (columns).
    #[must_use]
    pub fn policies(mut self, kinds: impl IntoIterator<Item = PolicyKind>) -> Self {
        self.policies = kinds.into_iter().collect();
        self
    }

    /// Sets the tier ratios (planes).
    #[must_use]
    pub fn ratios(mut self, ratios: impl IntoIterator<Item = TierRatio>) -> Self {
        self.ratios = ratios.into_iter().collect();
        self
    }

    /// Adds N-tier ladder presets as an extra tier axis. Ladder cells are
    /// appended *after* the ratio cross product in the canonical order (the
    /// same trick [`FleetMatrix::tenant_counts`] uses), so turning the axis
    /// on never disturbs the seeds — and therefore the results — of the
    /// existing two-tier scenarios.
    #[must_use]
    pub fn ladders(mut self, ladders: impl IntoIterator<Item = LadderKind>) -> Self {
        self.ladders = ladders.into_iter().collect();
        self
    }

    /// Uses the base seed verbatim for every scenario (the legacy harness
    /// protocol, kept so regenerated paper figures stay comparable).
    #[must_use]
    pub fn fixed_seed(mut self) -> Self {
        self.seed_mode = SeedMode::Fixed;
        self
    }

    /// Materializes the scenario list.
    pub fn build(&self) -> Vec<Scenario> {
        let planes = self.ratios.len() + self.ladders.len();
        let mut out = Vec::with_capacity(self.workloads.len() * planes * self.policies.len());
        let mut cell = 0u64;
        for &id in &self.workloads {
            for &ratio in &self.ratios {
                let cell_seed = derive_seed(self.seed, cell);
                cell += 1;
                for &kind in &self.policies {
                    let seed = match self.seed_mode {
                        SeedMode::PerCell => cell_seed,
                        SeedMode::Fixed => self.seed,
                    };
                    out.push(Scenario::suite(id, kind, ratio, &self.config, seed));
                }
            }
        }
        // Ladder planes come after the whole ratio cross product so that
        // enabling them leaves every existing cell's seed untouched.
        for &id in &self.workloads {
            for &ladder in &self.ladders {
                let cell_seed = derive_seed(self.seed, cell);
                cell += 1;
                for &kind in &self.policies {
                    let seed = match self.seed_mode {
                        SeedMode::PerCell => cell_seed,
                        SeedMode::Fixed => self.seed,
                    };
                    out.push(Scenario::suite_ladder(id, kind, ladder, &self.config, seed));
                }
            }
        }
        out
    }

    /// Materializes `spec`'s round-robin slice of the canonical scenario
    /// list. Seeds, labels, and configs are identical to the corresponding
    /// entries of [`build`](ScenarioMatrix::build) — sharding decides *where*
    /// a scenario runs, never *what* it is — so the union of all shards'
    /// results merges back into exactly the unsharded sweep
    /// (`tests/shard_equivalence.rs`).
    pub fn shard(&self, spec: ShardSpec) -> Vec<Scenario> {
        spec.select(self.build())
    }
}

/// Cross-product builder for co-location sweeps: named tenant pairings ×
/// budget specs, each cell one [`ScenarioKind::CoLocation`] scenario with a
/// seed derived from the base seed and the scenario index (tenant workload
/// seeds are derived further, per tenant — see [`Scenario::run`]).
///
/// [`ScenarioKind::CoLocation`]: crate::ScenarioKind::CoLocation
#[derive(Debug, Clone)]
pub struct CoLocationMatrix {
    pairings: Vec<(String, Vec<TenantSpec>)>,
    budgets: Vec<BudgetSpec>,
    floor_frac: f64,
    rebalance_interval_ns: u64,
    config: SimConfig,
    seed: u64,
}

impl CoLocationMatrix {
    /// A matrix over the given engine config and base seed, with the
    /// [`CoLocationSpec::new`] demo defaults (1:8 budget, 10% floor, 10 ms
    /// cadence) until overridden.
    pub fn new(config: SimConfig, seed: u64) -> Self {
        let defaults = CoLocationSpec::new(Vec::new());
        Self {
            pairings: Vec::new(),
            budgets: vec![defaults.budget],
            floor_frac: defaults.floor_frac,
            rebalance_interval_ns: defaults.rebalance_interval_ns,
            config,
            seed,
        }
    }

    /// Adds a named tenant pairing (row).
    #[must_use]
    pub fn pairing(mut self, label: impl Into<String>, tenants: Vec<TenantSpec>) -> Self {
        self.pairings.push((label.into(), tenants));
        self
    }

    /// Sets the budget specs (columns).
    #[must_use]
    pub fn budgets(mut self, budgets: impl IntoIterator<Item = BudgetSpec>) -> Self {
        self.budgets = budgets.into_iter().collect();
        self
    }

    /// Overrides the tenant floor fraction.
    #[must_use]
    pub fn floor_frac(mut self, frac: f64) -> Self {
        self.floor_frac = frac;
        self
    }

    /// Overrides the rebalance cadence.
    #[must_use]
    pub fn rebalance_every_ns(mut self, ns: u64) -> Self {
        self.rebalance_interval_ns = ns;
        self
    }

    /// Materializes the scenario list (pairing-major, then budget).
    pub fn build(&self) -> Vec<Scenario> {
        let mut out = Vec::with_capacity(self.pairings.len() * self.budgets.len());
        for (label, tenants) in &self.pairings {
            for &budget in &self.budgets {
                let spec = CoLocationSpec::new(tenants.clone())
                    .with_budget(budget)
                    .with_floor_frac(self.floor_frac)
                    .with_rebalance_interval_ns(self.rebalance_interval_ns);
                let seed = derive_seed(self.seed, out.len() as u64);
                out.push(Scenario::co_location(
                    format!("{label}/{}/co", budget.label()),
                    spec,
                    &self.config,
                    seed,
                ));
            }
        }
        out
    }

    /// Materializes `spec`'s round-robin slice of the canonical scenario
    /// list — same seed-identity guarantee as
    /// [`ScenarioMatrix::shard`](ScenarioMatrix::shard).
    pub fn shard(&self, spec: ShardSpec) -> Vec<Scenario> {
        spec.select(self.build())
    }
}

/// Cross-product builder for dynamic-fleet sweeps: named fleets (tenants +
/// churn pattern) × quota objectives × budget specs, each cell one
/// [`ScenarioKind::Fleet`] scenario with a seed derived from the base seed
/// and the scenario index (tenant workload seeds are derived further, per
/// tenant — see [`Scenario::run`]).
///
/// [`ScenarioKind::Fleet`]: crate::ScenarioKind::Fleet
#[derive(Debug, Clone)]
pub struct FleetMatrix {
    fleets: Vec<(String, Vec<TenantSpec>, Vec<ChurnSpec>)>,
    objectives: Vec<ObjectiveKind>,
    budgets: Vec<BudgetSpec>,
    tenant_counts: Vec<usize>,
    floor_frac: f64,
    rebalance_interval_ns: u64,
    config: SimConfig,
    seed: u64,
}

impl FleetMatrix {
    /// A matrix over the given engine config and base seed, sweeping all
    /// built-in objectives at the [`FleetSpec::new`] defaults until
    /// overridden.
    pub fn new(config: SimConfig, seed: u64) -> Self {
        let defaults = FleetSpec::new(Vec::new());
        Self {
            fleets: Vec::new(),
            objectives: ObjectiveKind::ALL.to_vec(),
            budgets: vec![defaults.budget],
            tenant_counts: Vec::new(),
            floor_frac: defaults.floor_frac,
            rebalance_interval_ns: defaults.rebalance_interval_ns,
            config,
            seed,
        }
    }

    /// Adds a named fleet — initial tenants plus churn pattern (row).
    #[must_use]
    pub fn fleet(
        mut self,
        label: impl Into<String>,
        tenants: Vec<TenantSpec>,
        churn: Vec<ChurnSpec>,
    ) -> Self {
        self.fleets.push((label.into(), tenants, churn));
        self
    }

    /// Sets the quota objectives (columns; defaults to all built-ins).
    #[must_use]
    pub fn objectives(mut self, objectives: impl IntoIterator<Item = ObjectiveKind>) -> Self {
        self.objectives = objectives.into_iter().collect();
        self
    }

    /// Sets the budget specs (planes).
    #[must_use]
    pub fn budgets(mut self, budgets: impl IntoIterator<Item = BudgetSpec>) -> Self {
        self.budgets = budgets.into_iter().collect();
        self
    }

    /// Adds a tenant-count axis: for each count `n` (and each objective),
    /// the matrix appends the synthetic large-fleet scenario
    /// [`Scenario::synthetic_fleet_spec`] at `n` tenants. The axis is
    /// appended **after** the named-fleet cross product, so adding counts
    /// never disturbs the derived seeds (and hence the fingerprints) of
    /// the existing scenarios.
    #[must_use]
    pub fn tenant_counts(mut self, counts: impl IntoIterator<Item = usize>) -> Self {
        self.tenant_counts = counts.into_iter().collect();
        self
    }

    /// Overrides the tenant floor fraction.
    #[must_use]
    pub fn floor_frac(mut self, frac: f64) -> Self {
        self.floor_frac = frac;
        self
    }

    /// Overrides the rebalance cadence.
    #[must_use]
    pub fn rebalance_every_ns(mut self, ns: u64) -> Self {
        self.rebalance_interval_ns = ns;
        self
    }

    /// Materializes the scenario list (fleet-major, then objective, then
    /// budget).
    pub fn build(&self) -> Vec<Scenario> {
        let mut out =
            Vec::with_capacity(self.fleets.len() * self.objectives.len() * self.budgets.len());
        for (label, tenants, churn) in &self.fleets {
            for &objective in &self.objectives {
                for &budget in &self.budgets {
                    let spec = FleetSpec::new(tenants.clone())
                        .with_churn(churn.clone())
                        .with_objective_kind(objective)
                        .with_budget(budget)
                        .with_floor_frac(self.floor_frac)
                        .with_rebalance_interval_ns(self.rebalance_interval_ns);
                    let seed = derive_seed(self.seed, out.len() as u64);
                    out.push(Scenario::fleet(
                        format!("{label}/{}/{}/fleet", objective.label(), budget.label()),
                        spec,
                        &self.config,
                        seed,
                    ));
                }
            }
        }
        // The tenant-count axis rides strictly after the named-fleet cross
        // product: seeds derive from `out.len()`, so existing scenarios
        // keep their identity whether or not counts are configured.
        for &n in &self.tenant_counts {
            for &objective in &self.objectives {
                let spec = Scenario::synthetic_fleet_spec(n).with_objective_kind(objective);
                let seed = derive_seed(self.seed, out.len() as u64);
                out.push(Scenario::fleet(
                    format!("synth{n}/{}/fleet", objective.label()),
                    spec,
                    &self.config,
                    seed,
                ));
            }
        }
        out
    }

    /// Materializes `spec`'s round-robin slice of the canonical scenario
    /// list — same seed-identity guarantee as
    /// [`ScenarioMatrix::shard`](ScenarioMatrix::shard).
    pub fn shard(&self, spec: ShardSpec) -> Vec<Scenario> {
        spec.select(self.build())
    }
}

/// A thread pool that runs a list of scenarios to completion.
#[derive(Debug, Clone, Copy)]
pub struct SweepRunner {
    threads: usize,
}

impl SweepRunner {
    /// A runner over `threads` worker threads; `0` means one per available
    /// core.
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            threads
        };
        Self { threads }
    }

    /// A single-threaded runner (the serial reference the determinism tests
    /// compare against).
    pub fn serial() -> Self {
        Self { threads: 1 }
    }

    /// Worker threads this runner uses.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// [`try_run`](SweepRunner::try_run) for sweeps whose scenarios cannot
    /// fail to build (everything but trace replay).
    ///
    /// # Panics
    ///
    /// With the [`ScenarioError`]'s message if a workload cannot be built.
    pub fn run(&self, scenarios: Vec<Scenario>) -> SweepReport {
        self.try_run(scenarios).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Runs every scenario, in parallel across the pool, and returns the
    /// results **in input order** — execution interleaving never leaks into
    /// the output. A scenario that cannot be built fails the sweep, not
    /// its worker: the rest still run, and the error returned is the first
    /// in input order, so it too is independent of thread count.
    pub fn try_run(&self, scenarios: Vec<Scenario>) -> Result<SweepReport, ScenarioError> {
        let start = Instant::now();
        let n = scenarios.len();
        let results: Vec<Mutex<Option<Result<ScenarioResult, ScenarioError>>>> =
            (0..n).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        let workers = self.threads.min(n.max(1));

        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    // Work stealing by atomic cursor: threads grab the next
                    // unclaimed scenario, so long runs (PageRank at 1:16)
                    // don't serialize behind a static partition.
                    let idx = next.fetch_add(1, Ordering::Relaxed);
                    if idx >= n {
                        break;
                    }
                    let result = scenarios[idx].try_run();
                    *results[idx].lock().expect("result slot poisoned") = Some(result);
                });
            }
        });

        Ok(SweepReport {
            results: results
                .into_iter()
                .map(|slot| {
                    slot.into_inner()
                        .expect("result slot poisoned")
                        .expect("scenario slot never filled")
                })
                .collect::<Result<_, _>>()?,
            wall: start.elapsed(),
            threads: workers,
        })
    }
}

/// Merged output of one sweep.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Per-scenario results, in the input scenario order.
    pub results: Vec<ScenarioResult>,
    /// Wall-clock time of the whole sweep.
    pub wall: Duration,
    /// Worker threads used.
    pub threads: usize,
}

impl SweepReport {
    /// Looks a result up by scenario label.
    pub fn find(&self, label: &str) -> Option<&ScenarioResult> {
        self.results.iter().find(|r| r.label == label)
    }

    /// Looks a suite result up by its (workload, ratio, policy) cell.
    pub fn cell(
        &self,
        id: WorkloadId,
        ratio: TierRatio,
        kind: PolicyKind,
    ) -> Option<&ScenarioResult> {
        self.find(&format!("{}/{}/{}", id.label(), ratio, kind.label()))
    }

    /// Whether two sweeps produced identical simulation outcomes (ignoring
    /// wall-clock and thread count).
    pub fn same_outcomes(&self, other: &Self) -> bool {
        self.results.len() == other.results.len()
            && self
                .results
                .iter()
                .zip(&other.results)
                .all(|(a, b)| a.same_outcome(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_matrix() -> Vec<Scenario> {
        ScenarioMatrix::new(SimConfig::default().with_max_ops(2_000), 0xA5F0_5EED)
            .workloads([WorkloadId::CdnCacheLib, WorkloadId::Silo])
            .policies([PolicyKind::HybridTier, PolicyKind::FirstTouch])
            .ratios([TierRatio::OneTo8])
            .build()
    }

    #[test]
    fn matrix_order_and_shared_streams() {
        let scenarios = small_matrix();
        assert_eq!(scenarios.len(), 4);
        assert_eq!(scenarios[0].label, "CDN/1:8/HybridTier");
        assert_eq!(scenarios[1].label, "CDN/1:8/FirstTouch");
        // Same cell → same stream seed; different cells → different seeds.
        assert_eq!(scenarios[0].seed, scenarios[1].seed);
        assert_ne!(scenarios[0].seed, scenarios[2].seed);
    }

    #[test]
    fn parallel_matches_serial_and_order_independent() {
        let parallel = SweepRunner::new(4).run(small_matrix());
        let serial = SweepRunner::serial().run(small_matrix());
        assert!(parallel.same_outcomes(&serial), "parallel != serial");
        // Reversed submission order still yields per-scenario identical
        // outcomes (matched up by label).
        let mut reversed_scenarios = small_matrix();
        reversed_scenarios.reverse();
        let reversed = SweepRunner::new(4).run(reversed_scenarios);
        for r in &serial.results {
            let other = reversed.find(&r.label).expect("label present");
            assert!(r.same_outcome(other), "{} diverged on reorder", r.label);
        }
    }

    #[test]
    fn more_threads_than_scenarios_is_fine() {
        let sweep = SweepRunner::new(64).run(small_matrix());
        assert_eq!(sweep.results.len(), 4);
        assert!(sweep.threads <= 4);
    }

    #[test]
    fn ladder_axis_appends_without_disturbing_seeds() {
        let base = ScenarioMatrix::new(SimConfig::default().with_max_ops(2_000), 0xA5F0_5EED)
            .workloads([WorkloadId::CdnCacheLib, WorkloadId::Silo])
            .policies([PolicyKind::HybridTier, PolicyKind::FirstTouch])
            .ratios([TierRatio::OneTo8]);
        let plain = base.clone().build();
        let extended = base.ladders([LadderKind::DramCxlNvme]).build();
        // The two-tier prefix is untouched; ladder cells come after.
        assert_eq!(extended.len(), plain.len() + 4);
        for (a, b) in plain.iter().zip(&extended) {
            assert_eq!(a.label, b.label);
            assert_eq!(a.seed, b.seed);
        }
        let cdn = &extended[plain.len()];
        assert_eq!(cdn.label, "CDN/dram-cxl-nvme/HybridTier");
        // Policies within one ladder cell share the access stream.
        assert_eq!(extended[plain.len()].seed, extended[plain.len() + 1].seed);
    }

    #[test]
    fn ladder_scenarios_run_deterministically_on_three_tiers() {
        let scenarios = ScenarioMatrix::new(SimConfig::default().with_max_ops(2_000), 7)
            .workloads([WorkloadId::CdnCacheLib])
            .policies([PolicyKind::HybridTier, PolicyKind::NeoMem])
            .ratios([])
            .ladders([LadderKind::DramCxlNvme])
            .build();
        assert_eq!(scenarios.len(), 2);
        let a = SweepRunner::serial().run(scenarios.clone());
        let b = SweepRunner::new(2).run(scenarios);
        assert!(a.same_outcomes(&b), "ladder sweep must be deterministic");
        for r in &a.results {
            assert_eq!(r.tier, "dram-cxl-nvme");
            assert!(r.report.accesses > 0);
        }
    }

    #[test]
    fn tenant_count_axis_appends_without_disturbing_seeds() {
        let (tenants, churn) = Scenario::fleet_churn_demo_tenants();
        let base = FleetMatrix::new(SimConfig::default().with_max_ops(500), 0xF1EE7)
            .fleet("demo", tenants, churn)
            .objectives([ObjectiveKind::Proportional]);
        let plain = base.clone().build();
        let extended = base.tenant_counts([48]).build();
        assert_eq!(extended.len(), plain.len() + 1);
        for (a, b) in plain.iter().zip(&extended) {
            assert_eq!(a.label, b.label);
            assert_eq!(a.seed, b.seed);
        }
        assert_eq!(extended.last().unwrap().label, "synth48/proportional/fleet");
    }

    #[test]
    fn synthetic_fleet_runs_with_compact_events() {
        // Small head-count run of the large-fleet recipe: enough per-lane
        // ops that both churn events fire, small enough for a debug test.
        let scenarios = FleetMatrix::new(SimConfig::default().with_max_ops(5_000), 99)
            .objectives([ObjectiveKind::MaxMin])
            .tenant_counts([48])
            .build();
        assert_eq!(scenarios.len(), 1);
        let sweep = SweepRunner::serial().run(scenarios);
        let result = &sweep.results[0];
        let multi = result.multi.as_ref().expect("fleet scenario");
        // 48 initial tenants plus the churn arrival's fresh slot.
        assert_eq!(multi.tenants.len(), 49);
        assert!(
            multi.churn.len() >= 2,
            "depart + arrive should both fire, saw {}",
            multi.churn.len()
        );
        // Incremental mode records compact rebalance events.
        assert!(!multi.rebalances.is_empty());
        assert!(multi.rebalances.iter().all(|e| e.quotas.is_empty()));
    }

    /// The same recipe at 10⁵ tenants, end to end: engine active-set
    /// iteration, donor-funded churn and compact events at the scale the
    /// control plane is built for. Minutes in a debug build, so CI runs it
    /// once with `--release -- --ignored`, under `ulimit -v 3145728`: the
    /// run peaks near 1.5 GiB, and the cap turns a per-tenant memory
    /// regression into a failed allocation on any runner.
    #[test]
    #[ignore = "release-only scale test: cargo test --release -p tiering_runner -- --ignored"]
    fn hundred_thousand_tenant_fleet_runs_end_to_end() {
        let mut config = SimConfig::default()
            .with_max_ops(100_000)
            .with_batch_ops(32);
        // The per-lane metadata-cache model costs ~37 KiB of tags per
        // tenant — ~3.5 GiB at this scale, more than the rest of the fleet
        // together (a lane is ~2 KiB, its latency histograms a few KiB
        // since they are sized by the range they record, its lean CBF
        // 4 KiB).
        config.metadata_cache = false;
        let scenario = Scenario::fleet(
            "synth100000/scale/fleet",
            Scenario::synthetic_fleet_spec(100_000),
            &config,
            0xA5F0_5EED,
        );
        let result = scenario.run();
        assert!(result.report.ops > 0);
        let multi = result.multi.as_ref().expect("fleet scenario");
        assert!(!multi.rebalances.is_empty());
        assert!(multi.rebalances.iter().all(|e| e.quotas.is_empty()));
        assert_eq!(multi.churn.len(), 2, "depart + arrive");
    }
}
