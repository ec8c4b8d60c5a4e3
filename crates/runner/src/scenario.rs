//! One experiment = one scenario.
//!
//! A [`Scenario`] is a *recipe*, not a live object: workload and policy
//! **factories** ([`WorkloadSpec`], [`PolicySpec`]) plus tier sizing
//! ([`TierSpec`] or, for multi-tenant kinds, [`BudgetSpec`]), an engine
//! [`SimConfig`], and a seed. [`Scenario::run`] builds everything inside
//! the executing thread, so recipes are cheap to clone, safe to send to
//! any thread (or serialize to another host as a matrix position — see the
//! shard module), and every run is as deterministic as the engine itself.
//!
//! Three [`ScenarioKind`]s cover the repo's experiment shapes: `Single`
//! (the classic one-workload/one-policy run), `CoLocation`
//! ([`CoLocationSpec`]: N tenants share one controller-partitioned fast
//! tier, paper §7), and `Fleet` ([`FleetSpec`]: co-location plus a
//! [`ChurnSpec`] arrival/departure schedule and a pluggable quota
//! objective). The canonical demo recipes ([`Scenario::wakeup_demo`],
//! [`Scenario::fleet_churn_demo`]) are shared verbatim by the examples,
//! the bench sweeps, and the golden suite so their trajectories can never
//! drift apart.
//!
//! Every run yields a [`ScenarioResult`]: labels, the seed, the
//! [`SimReport`] (for multi-tenant kinds, the whole-machine aggregate plus
//! per-tenant detail in [`ScenarioResult::multi`]), host wall time, and a
//! stable outcome [`fingerprint`](ScenarioResult::fingerprint) used by the
//! distributed-sweep merge layer.

use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tiering_mem::{LadderKind, TierConfig, TierRatio, TierTopology};
use tiering_policies::{
    build_policy, visit_policy, ControllerMode, HybridTierConfig, HybridTierPolicy, ObjectiveKind,
    PolicyKind, PolicyVisitor, TieringPolicy,
};
use tiering_sim::{
    ChurnSchedule, Engine, FleetError, MultiTenantConfig, MultiTenantEngine, MultiTenantReport,
    SimConfig, SimReport, TenantRun,
};
use tiering_trace::{TraceError, Workload};
use tiering_workloads::{
    build_workload, visit_workload, TraceReplayWorkload, WorkloadId, WorkloadVisitor,
    ZipfPageWorkload,
};

use crate::derive_seed;

/// Factory for a workload, given the scenario seed.
pub type WorkloadFactory = Arc<dyn Fn(u64) -> Box<dyn Workload> + Send + Sync>;

/// Factory for a policy, given the resolved tier configuration.
pub type PolicyFactory = Arc<dyn Fn(&TierConfig) -> Box<dyn TieringPolicy> + Send + Sync>;

/// Why a scenario could not be run: a workload that comes from outside
/// the program could not be built, or a caller-built fleet is not one the
/// engine can run.
#[derive(Debug)]
pub enum ScenarioError {
    /// A [`WorkloadSpec::Trace`] file could not be opened or did not verify.
    Trace {
        /// The trace file.
        path: std::path::PathBuf,
        /// What the trace reader found wrong with it.
        source: TraceError,
    },
    /// A co-location or fleet spec with no tenants, or a churn schedule
    /// that departs a tenant that is not live.
    Fleet(FleetError),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Trace { path, source } => {
                write!(f, "cannot open trace {}: {source}", path.display())
            }
            ScenarioError::Fleet(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for ScenarioError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ScenarioError::Trace { source, .. } => Some(source),
            ScenarioError::Fleet(e) => Some(e),
        }
    }
}

/// Which workload a scenario runs.
#[derive(Clone)]
pub enum WorkloadSpec {
    /// A suite workload (paper Table 2) built with the scenario seed.
    Suite(WorkloadId),
    /// A custom generator; the factory is invoked with the scenario seed in
    /// the executing thread.
    Custom {
        /// Label used in reports.
        label: String,
        /// The generator factory.
        build: WorkloadFactory,
    },
    /// Replay of a recorded on-disk trace (`docs/TRACE_FORMAT.md`). The
    /// file is opened (and fully verified) in the executing thread; the
    /// scenario seed is ignored — a trace is the same stream for every
    /// seed. Labelled by the file stem.
    Trace(std::path::PathBuf),
}

impl WorkloadSpec {
    /// A custom workload from a factory closure.
    pub fn custom<F>(label: impl Into<String>, build: F) -> Self
    where
        F: Fn(u64) -> Box<dyn Workload> + Send + Sync + 'static,
    {
        WorkloadSpec::Custom {
            label: label.into(),
            build: Arc::new(build),
        }
    }

    /// Label used in reports and JSON output.
    pub fn label(&self) -> String {
        match self {
            WorkloadSpec::Suite(id) => id.label().to_string(),
            WorkloadSpec::Custom { label, .. } => label.clone(),
            WorkloadSpec::Trace(path) => path
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_else(|| "trace".to_string()),
        }
    }

    fn build(&self, seed: u64) -> Result<Box<dyn Workload>, ScenarioError> {
        Ok(match self {
            WorkloadSpec::Suite(id) => build_workload(*id, seed),
            WorkloadSpec::Custom { build, .. } => build(seed),
            WorkloadSpec::Trace(path) => {
                let open = TraceReplayWorkload::open(path);
                Box::new(open.map_err(|source| ScenarioError::Trace {
                    path: path.clone(),
                    source,
                })?)
            }
        })
    }
}

impl fmt::Debug for WorkloadSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadSpec::Suite(id) => write!(f, "Suite({id:?})"),
            WorkloadSpec::Custom { label, .. } => write!(f, "Custom({label})"),
            WorkloadSpec::Trace(path) => write!(f, "Trace({})", path.display()),
        }
    }
}

/// Which policy a scenario runs.
#[derive(Clone)]
pub enum PolicySpec {
    /// A standard policy with the crate's scaled defaults.
    Kind(PolicyKind),
    /// A custom policy (ablations, parameter sweeps); built in the
    /// executing thread from the resolved tier configuration.
    Custom {
        /// Label used in reports.
        label: String,
        /// The policy factory.
        build: PolicyFactory,
    },
}

impl PolicySpec {
    /// A custom policy from a factory closure.
    pub fn custom<F>(label: impl Into<String>, build: F) -> Self
    where
        F: Fn(&TierConfig) -> Box<dyn TieringPolicy> + Send + Sync + 'static,
    {
        PolicySpec::Custom {
            label: label.into(),
            build: Arc::new(build),
        }
    }

    /// Label used in reports and JSON output.
    pub fn label(&self) -> String {
        match self {
            PolicySpec::Kind(kind) => kind.label().to_string(),
            PolicySpec::Custom { label, .. } => label.clone(),
        }
    }

    fn build(&self, tier_cfg: &TierConfig) -> Box<dyn TieringPolicy> {
        match self {
            PolicySpec::Kind(kind) => build_policy(*kind, tier_cfg),
            PolicySpec::Custom { build, .. } => build(tier_cfg),
        }
    }
}

impl fmt::Debug for PolicySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicySpec::Kind(kind) => write!(f, "Kind({kind:?})"),
            PolicySpec::Custom { label, .. } => write!(f, "Custom({label})"),
        }
    }
}

/// How the tiers are sized for the workload footprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TierSpec {
    /// `TierConfig::for_footprint` at the given fast:slow ratio.
    Ratio(TierRatio),
    /// The all-fast upper-bound configuration (paper Figure 11).
    AllFast,
    /// An explicit configuration (footprint-independent; sensitivity
    /// studies).
    Explicit(TierConfig),
    /// An N-tier ladder preset sized for the workload footprint
    /// ([`LadderKind::topology`]): the run executes on the full ladder —
    /// per-rung latencies, adjacent-hop migrations, demotion cascades —
    /// instead of the binary fast/slow testbed.
    Ladder(LadderKind),
}

impl TierSpec {
    /// Label used in reports and JSON output.
    pub fn label(&self) -> String {
        match self {
            TierSpec::Ratio(r) => r.to_string(),
            TierSpec::AllFast => "all-fast".to_string(),
            TierSpec::Explicit(_) => "explicit".to_string(),
            TierSpec::Ladder(kind) => kind.label().to_string(),
        }
    }

    /// Resolves the ladder for a workload of `pages` pages. The binary
    /// specs are the N = 2 ladder over `config.latency`.
    fn topology(&self, config: &SimConfig, pages: u64) -> TierTopology {
        let tier_cfg = match self {
            TierSpec::Ratio(ratio) => TierConfig::for_footprint(pages, *ratio, config.page_size),
            TierSpec::AllFast => TierConfig::all_fast(pages, config.page_size),
            TierSpec::Explicit(cfg) => *cfg,
            TierSpec::Ladder(kind) => return kind.topology(pages, config.page_size),
        };
        TierTopology::two_tier(tier_cfg, &config.latency)
    }
}

/// One co-located tenant: a name plus workload and policy recipes. The
/// tenant's workload seed is derived from the scenario seed and the
/// tenant's index, so every tenant of a scenario gets an independent,
/// reproducible stream.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Tenant name (reporting and lookup; keep unique within a scenario).
    pub name: String,
    /// Workload recipe.
    pub workload: WorkloadSpec,
    /// Policy recipe.
    pub policy: PolicySpec,
}

impl TenantSpec {
    /// A tenant from arbitrary recipes.
    pub fn new(name: impl Into<String>, workload: WorkloadSpec, policy: PolicySpec) -> Self {
        Self {
            name: name.into(),
            workload,
            policy,
        }
    }

    /// A tenant running a suite workload under a standard policy.
    pub fn suite(name: impl Into<String>, id: WorkloadId, kind: PolicyKind) -> Self {
        Self::new(name, WorkloadSpec::Suite(id), PolicySpec::Kind(kind))
    }
}

/// How the shared fast budget of a co-location scenario is sized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetSpec {
    /// An explicit page count.
    Pages(u64),
    /// Combined tenant footprint divided by the ratio's slow multiple —
    /// e.g. `Ratio(1:8)` gives a fast budget holding 1/8 of everything the
    /// tenants map.
    Ratio(TierRatio),
}

impl BudgetSpec {
    /// Label used in reports and JSON output.
    pub fn label(&self) -> String {
        match self {
            BudgetSpec::Pages(p) => format!("{p}pg"),
            BudgetSpec::Ratio(r) => r.to_string(),
        }
    }

    /// Fast pages for the given combined tenant footprint, clamped so the
    /// budget can always give each of `num_tenants` tenants one page (the
    /// controller's min-one quota guarantee requires it).
    pub fn resolve(&self, combined_footprint_pages: u64, num_tenants: usize) -> u64 {
        let min = (num_tenants as u64).max(1);
        match self {
            BudgetSpec::Pages(p) => (*p).max(min),
            BudgetSpec::Ratio(r) => (combined_footprint_pages / r.slow_multiple()).max(min),
        }
    }
}

/// A complete co-location recipe: who shares the machine and how the
/// controller carves it up.
#[derive(Debug, Clone)]
pub struct CoLocationSpec {
    /// The co-located tenants (at least one; typically ≥ 2).
    pub tenants: Vec<TenantSpec>,
    /// Shared fast-tier sizing.
    pub budget: BudgetSpec,
    /// Minimum budget share any tenant keeps.
    pub floor_frac: f64,
    /// Simulated time between controller rebalances.
    pub rebalance_interval_ns: u64,
}

impl CoLocationSpec {
    /// The default budget sizing (see [`CoLocationSpec::new`]).
    pub const DEFAULT_BUDGET: BudgetSpec = BudgetSpec::Ratio(TierRatio::OneTo8);

    /// A spec with the demo defaults: 1:8 budget, 10% floor, 10 ms cadence
    /// (the floor/cadence constants live in `tiering_sim`).
    pub fn new(tenants: Vec<TenantSpec>) -> Self {
        Self {
            tenants,
            budget: Self::DEFAULT_BUDGET,
            floor_frac: tiering_sim::DEFAULT_FLOOR_FRAC,
            rebalance_interval_ns: tiering_sim::DEFAULT_REBALANCE_INTERVAL_NS,
        }
    }

    /// Overrides the budget sizing.
    #[must_use]
    pub fn with_budget(mut self, budget: BudgetSpec) -> Self {
        self.budget = budget;
        self
    }

    /// Overrides the tenant floor fraction.
    #[must_use]
    pub fn with_floor_frac(mut self, frac: f64) -> Self {
        self.floor_frac = frac;
        self
    }

    /// Overrides the rebalance cadence.
    #[must_use]
    pub fn with_rebalance_interval_ns(mut self, ns: u64) -> Self {
        self.rebalance_interval_ns = ns;
        self
    }

    /// `a+b+c` label over the tenant names.
    pub fn tenants_label(&self) -> String {
        self.tenants
            .iter()
            .map(|t| t.name.as_str())
            .collect::<Vec<_>>()
            .join("+")
    }
}

/// One scheduled fleet-composition change, as a recipe: what happens and
/// at which fleet op count (see
/// [`ChurnSchedule`](tiering_sim::ChurnSchedule) for the trigger
/// semantics).
#[derive(Debug, Clone)]
pub struct ChurnSpec {
    /// Fleet-wide completed-op threshold the event fires at.
    pub at_fleet_ops: u64,
    /// What happens.
    pub action: ChurnAction,
}

/// The two fleet-composition changes a [`ChurnSpec`] can schedule.
#[derive(Debug, Clone)]
pub enum ChurnAction {
    /// A new tenant joins (admitted under the min-one guarantee). Its
    /// workload seed is derived from the scenario seed and its position in
    /// the churn list, after the initial tenants' seeds.
    Arrive(TenantSpec),
    /// The named live tenant leaves; its fast pages are reclaimed.
    Depart(String),
}

impl ChurnSpec {
    /// Schedules `tenant` to arrive at the given fleet op count.
    pub fn arrive(at_fleet_ops: u64, tenant: TenantSpec) -> Self {
        Self {
            at_fleet_ops,
            action: ChurnAction::Arrive(tenant),
        }
    }

    /// Schedules the named tenant's departure at the given fleet op count.
    pub fn depart(at_fleet_ops: u64, name: impl Into<String>) -> Self {
        Self {
            at_fleet_ops,
            action: ChurnAction::Depart(name.into()),
        }
    }
}

/// A complete dynamic-fleet recipe: who starts on the machine, how the
/// composition churns, and which objective the controller apportions
/// under. The churn-free, proportional special case is exactly a
/// [`CoLocationSpec`] — this is its fleet-scale superset.
#[derive(Debug, Clone)]
pub struct FleetSpec {
    /// Tenants present from the start (at least one).
    pub tenants: Vec<TenantSpec>,
    /// Scheduled arrivals/departures (may be empty — a static fleet).
    pub churn: Vec<ChurnSpec>,
    /// The controller's quota objective.
    pub objective: ObjectiveKind,
    /// Shared fast-tier sizing. `BudgetSpec::Ratio` resolves against the
    /// combined footprint of **every** tenant the recipe names (initial
    /// and arrivals), so the budget never shrinks below the min-one
    /// guarantee however the composition churns.
    pub budget: BudgetSpec,
    /// Minimum budget share any live tenant keeps.
    pub floor_frac: f64,
    /// Simulated time between controller rebalances.
    pub rebalance_interval_ns: u64,
    /// The shape of the controller's rebalance events. `FullScan` (the
    /// default) records the full per-slot vectors the goldens fingerprint;
    /// `Incremental` records compact `O(1)` events — the setting for large
    /// fleets. Quotas are computed the same way in both.
    pub controller_mode: ControllerMode,
}

impl FleetSpec {
    /// A spec with the demo defaults: proportional objective, 1:8 budget,
    /// 10% floor, 10 ms cadence.
    pub fn new(tenants: Vec<TenantSpec>) -> Self {
        Self {
            tenants,
            churn: Vec::new(),
            objective: ObjectiveKind::Proportional,
            budget: CoLocationSpec::DEFAULT_BUDGET,
            floor_frac: tiering_sim::DEFAULT_FLOOR_FRAC,
            rebalance_interval_ns: tiering_sim::DEFAULT_REBALANCE_INTERVAL_NS,
            controller_mode: ControllerMode::FullScan,
        }
    }

    /// Sets the churn schedule.
    #[must_use]
    pub fn with_churn(mut self, churn: Vec<ChurnSpec>) -> Self {
        self.churn = churn;
        self
    }

    /// Overrides the quota objective.
    #[must_use]
    pub fn with_objective_kind(mut self, objective: ObjectiveKind) -> Self {
        self.objective = objective;
        self
    }

    /// Overrides the budget sizing.
    #[must_use]
    pub fn with_budget(mut self, budget: BudgetSpec) -> Self {
        self.budget = budget;
        self
    }

    /// Overrides the tenant floor fraction.
    #[must_use]
    pub fn with_floor_frac(mut self, frac: f64) -> Self {
        self.floor_frac = frac;
        self
    }

    /// Overrides the rebalance cadence.
    #[must_use]
    pub fn with_rebalance_interval_ns(mut self, ns: u64) -> Self {
        self.rebalance_interval_ns = ns;
        self
    }

    /// Overrides the shape of the controller's rebalance events.
    #[must_use]
    pub fn with_controller_mode(mut self, mode: ControllerMode) -> Self {
        self.controller_mode = mode;
        self
    }

    /// Every tenant the recipe can ever admit: the initial set plus churn
    /// arrivals (budget floors and seed derivation are sized by this).
    pub fn total_tenant_slots(&self) -> usize {
        self.tenants.len()
            + self
                .churn
                .iter()
                .filter(|c| matches!(c.action, ChurnAction::Arrive(_)))
                .count()
    }

    /// `a+b+c` label over the initial tenant names.
    pub fn tenants_label(&self) -> String {
        self.tenants
            .iter()
            .map(|t| t.name.as_str())
            .collect::<Vec<_>>()
            .join("+")
    }
}

/// What a scenario executes: one (workload, policy, tier) run, N
/// co-located tenants sharing a controller-partitioned fast tier, or a
/// dynamic fleet with churn and a pluggable quota objective.
#[derive(Debug, Clone)]
pub enum ScenarioKind {
    /// The classic single-application experiment.
    Single {
        /// Workload recipe.
        workload: WorkloadSpec,
        /// Policy recipe.
        policy: PolicySpec,
        /// Tier sizing.
        tier: TierSpec,
    },
    /// Multi-tenant co-location under the §7 global controller.
    CoLocation(CoLocationSpec),
    /// A dynamic fleet: tenant churn plus a pluggable quota objective.
    Fleet(FleetSpec),
}

/// One self-contained experiment: everything needed to reproduce one
/// result, cheap to clone and safe to run from any thread.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Display label (defaults to `workload/tier/policy`).
    pub label: String,
    /// What this scenario executes.
    pub kind: ScenarioKind,
    /// Engine configuration.
    pub config: SimConfig,
    /// Base seed (single: the workload seed; co-location: per-tenant seeds
    /// are derived from it by tenant index).
    pub seed: u64,
}

impl Scenario {
    /// A scenario over standard suite components, mirroring
    /// [`run_suite_experiment`](tiering_sim::run_suite_experiment): the
    /// `AllFast` policy gets the all-fast tier configuration, everything
    /// else the ratio split.
    pub fn suite(
        id: WorkloadId,
        kind: PolicyKind,
        ratio: TierRatio,
        config: &SimConfig,
        seed: u64,
    ) -> Self {
        let tier = if kind == PolicyKind::AllFast {
            TierSpec::AllFast
        } else {
            TierSpec::Ratio(ratio)
        };
        Self {
            label: format!("{}/{}/{}", id.label(), ratio, kind.label()),
            kind: ScenarioKind::Single {
                workload: WorkloadSpec::Suite(id),
                policy: PolicySpec::Kind(kind),
                tier,
            },
            config: config.clone(),
            seed,
        }
    }

    /// A scenario over standard suite components on an N-tier ladder
    /// preset: the workload footprint sizes the ladder via
    /// [`LadderKind::topology`] and the run executes on every rung
    /// (per-rung latencies, adjacent-hop migrations, demotion cascades).
    pub fn suite_ladder(
        id: WorkloadId,
        kind: PolicyKind,
        ladder: LadderKind,
        config: &SimConfig,
        seed: u64,
    ) -> Self {
        Self {
            label: format!("{}/{}/{}", id.label(), ladder.label(), kind.label()),
            kind: ScenarioKind::Single {
                workload: WorkloadSpec::Suite(id),
                policy: PolicySpec::Kind(kind),
                tier: TierSpec::Ladder(ladder),
            },
            config: config.clone(),
            seed,
        }
    }

    /// A fully custom single-application scenario.
    pub fn new(
        label: impl Into<String>,
        workload: WorkloadSpec,
        policy: PolicySpec,
        tier: TierSpec,
        config: &SimConfig,
        seed: u64,
    ) -> Self {
        Self {
            label: label.into(),
            kind: ScenarioKind::Single {
                workload,
                policy,
                tier,
            },
            config: config.clone(),
            seed,
        }
    }

    /// A co-location scenario: the tenants run concurrently (in simulated
    /// time) against one controller-partitioned fast tier.
    pub fn co_location(
        label: impl Into<String>,
        spec: CoLocationSpec,
        config: &SimConfig,
        seed: u64,
    ) -> Self {
        Self {
            label: label.into(),
            kind: ScenarioKind::CoLocation(spec),
            config: config.clone(),
            seed,
        }
    }

    /// The tenant pair behind [`wakeup_demo`](Scenario::wakeup_demo): a hot
    /// cache-style tenant and a mostly idle batch tenant that wakes up at
    /// 40 simulated ms. Exposed so sweeps (the bench co-location matrix)
    /// can build on the exact same recipe the demo pins.
    pub fn wakeup_demo_tenants() -> Vec<TenantSpec> {
        vec![
            TenantSpec::new(
                "cache",
                WorkloadSpec::custom("zipf-hot", |seed| {
                    Box::new(ZipfPageWorkload::new(8_000, 0.99, u64::MAX, seed))
                }),
                PolicySpec::Kind(PolicyKind::HybridTier),
            ),
            TenantSpec::new(
                "batch",
                WorkloadSpec::custom("zipf-wakeup", |seed| {
                    Box::new(
                        ZipfPageWorkload::new(16_000, 0.2, u64::MAX, seed)
                            .with_cpu_ns(2_000)
                            .with_wakeup(40_000_000, 1.1, 50),
                    )
                }),
                PolicySpec::Kind(PolicyKind::HybridTier),
            ),
        ]
    }

    /// The canonical §7 wake-up demonstration, shared verbatim by the
    /// `multi_tenant` example, the `sec7` bench experiment, and the golden
    /// suite (so all three see the same quota trajectory): the
    /// [`wakeup_demo_tenants`](Scenario::wakeup_demo_tenants) pair at a 1:8
    /// budget, rebalanced every 10 ms. Run it with a horizon of at least
    /// ~100 ms (`config.max_sim_ns`) to see the controller follow the
    /// demand swing.
    pub fn wakeup_demo(config: &SimConfig, seed: u64) -> Self {
        let spec = CoLocationSpec::new(Self::wakeup_demo_tenants())
            .with_budget(BudgetSpec::Ratio(TierRatio::OneTo8))
            .with_rebalance_interval_ns(10_000_000);
        Self::co_location("cache+batch/1:8/wakeup", spec, config, seed)
    }

    /// A dynamic-fleet scenario: tenants arrive and depart on the spec's
    /// churn schedule, under its quota objective.
    pub fn fleet(label: impl Into<String>, spec: FleetSpec, config: &SimConfig, seed: u64) -> Self {
        Self {
            label: label.into(),
            kind: ScenarioKind::Fleet(spec),
            config: config.clone(),
            seed,
        }
    }

    /// The tenants and churn schedule behind
    /// [`fleet_churn_demo`](Scenario::fleet_churn_demo): a hot cache-style
    /// tenant, a wide lukewarm analytics tenant, and a `burst` tenant that
    /// departs a third of the way in and arrives again (a fresh slot, same
    /// name) two thirds in — the canonical arrive/depart/arrive-again
    /// trajectory. Exposed so sweeps (the bench fleet matrix) build on the
    /// exact recipe the golden suite pins.
    pub fn fleet_churn_demo_tenants() -> (Vec<TenantSpec>, Vec<ChurnSpec>) {
        let burst = || {
            TenantSpec::new(
                "burst",
                WorkloadSpec::custom("zipf-burst", |seed| {
                    Box::new(ZipfPageWorkload::new(6_000, 0.9, u64::MAX, seed))
                }),
                PolicySpec::Kind(PolicyKind::HybridTier),
            )
        };
        let tenants = vec![
            TenantSpec::new(
                "cache",
                WorkloadSpec::custom("zipf-hot", |seed| {
                    Box::new(ZipfPageWorkload::new(8_000, 0.99, u64::MAX, seed))
                }),
                PolicySpec::Kind(PolicyKind::HybridTier),
            ),
            TenantSpec::new(
                "analytics",
                WorkloadSpec::custom("zipf-wide", |seed| {
                    Box::new(ZipfPageWorkload::new(16_000, 0.4, u64::MAX, seed).with_cpu_ns(1_500))
                }),
                PolicySpec::Kind(PolicyKind::HybridTier),
            ),
            burst(),
        ];
        let churn = vec![
            ChurnSpec::depart(60_000, "burst"),
            ChurnSpec::arrive(120_000, burst()),
        ];
        (tenants, churn)
    }

    /// The canonical 3-tenant churn demonstration under the given
    /// objective, shared verbatim by the `fleet_churn` example, the bench
    /// fleet matrix, and the golden suite (one snapshot per objective):
    /// the [`fleet_churn_demo_tenants`](Scenario::fleet_churn_demo_tenants)
    /// fleet at a 1:8 budget, rebalanced every 5 ms. Run it with a horizon
    /// of at least ~60 ms (`config.max_sim_ns`) so both churn events fire.
    pub fn fleet_churn_demo(objective: ObjectiveKind, config: &SimConfig, seed: u64) -> Self {
        let (tenants, churn) = Self::fleet_churn_demo_tenants();
        let spec = FleetSpec::new(tenants)
            .with_churn(churn)
            .with_objective_kind(objective)
            .with_budget(BudgetSpec::Ratio(TierRatio::OneTo8))
            .with_rebalance_interval_ns(5_000_000);
        Self::fleet(
            format!("cache+analytics+burst/{}/churn", objective.label()),
            spec,
            config,
            seed,
        )
    }

    /// The fleet recipe behind the sweep's tenant-count axis
    /// ([`FleetMatrix::tenant_counts`](crate::FleetMatrix::tenant_counts)):
    /// `n` tenants where a small head of `hot` tenants does real paging
    /// work (Zipf over 256 pages, 20 k ops each) and the long tail of
    /// `tiny` tenants registers, touches a handful of pages, and finishes
    /// within the first round — the fleet shape that stresses the
    /// controller's admit/retire and sparse-rebalance paths rather than
    /// the memory pipeline. The controller records compact
    /// ([`ControllerMode::Incremental`]) events on a tight 200 µs cadence with a
    /// 4-pages-per-tenant budget, and one hot tenant departs then a
    /// replacement arrives mid-run so the schedule exercises churn at
    /// scale.
    pub fn synthetic_fleet_spec(n: usize) -> FleetSpec {
        let hot_workload = || {
            WorkloadSpec::custom("zipf-hot-small", |seed| {
                Box::new(ZipfPageWorkload::new(256, 0.9, 20_000, seed))
            })
        };
        let hot = n.min(16);
        let mut tenants = Vec::with_capacity(n);
        for i in 0..hot {
            tenants.push(TenantSpec::new(
                format!("hot{i}"),
                hot_workload(),
                PolicySpec::Kind(PolicyKind::HybridTier),
            ));
        }
        // Tail tenants get a byte-budgeted HybridTier without the momentum
        // tracker: the default config's 16 Ki-key CBF floors cost ~100 KiB
        // per tenant — negligible at demo scale, ~10 GiB at 10⁵ tenants.
        let lean_policy = || {
            PolicySpec::custom("hybridtier-lean", |tier_cfg| {
                let config = HybridTierConfig::scaled(tier_cfg)
                    .without_momentum()
                    .with_cbf_budget(4096);
                Box::new(HybridTierPolicy::new(config, tier_cfg))
            })
        };
        for i in hot..n {
            tenants.push(TenantSpec::new(
                format!("tiny{i}"),
                WorkloadSpec::custom("zipf-tiny", |seed| {
                    Box::new(ZipfPageWorkload::new(64, 0.9, 40, seed))
                }),
                lean_policy(),
            ));
        }
        let churn = vec![
            ChurnSpec::depart(20_000, "hot0"),
            ChurnSpec::arrive(
                60_000,
                TenantSpec::new(
                    "hot0",
                    hot_workload(),
                    PolicySpec::Kind(PolicyKind::HybridTier),
                ),
            ),
        ];
        // floor_frac 0.25 on a 4-pages-per-tenant budget yields a one-page
        // floor, which keeps the incremental controller on its lazy
        // O(k log n) path (the min-one fixup is provably inert) instead of
        // legitimately falling back to the O(n) oracle every round.
        FleetSpec::new(tenants)
            .with_churn(churn)
            .with_budget(BudgetSpec::Pages(4 * n as u64))
            .with_floor_frac(0.25)
            .with_rebalance_interval_ns(200_000)
            .with_controller_mode(ControllerMode::Incremental)
    }

    /// [`try_run`](Scenario::try_run) for scenarios that cannot fail
    /// (everything but trace replay and hand-built fleet specs).
    ///
    /// # Panics
    ///
    /// With the [`ScenarioError`]'s message if a workload cannot be built
    /// or the fleet cannot be run.
    pub fn run(&self) -> ScenarioResult {
        self.try_run().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds the workload(s) and policy(ies) and runs the engine to
    /// completion in the calling thread. Deterministic: identical scenarios
    /// produce byte-identical reports regardless of which/how many threads
    /// run their siblings. Every workload is built before anything runs,
    /// so an unreadable trace costs no simulation.
    pub fn try_run(&self) -> Result<ScenarioResult, ScenarioError> {
        let start = Instant::now();
        Ok(match &self.kind {
            ScenarioKind::Single {
                workload,
                policy,
                tier,
            } => {
                let report = run_single(workload, policy, tier, &self.config, self.seed)?;
                ScenarioResult {
                    label: self.label.clone(),
                    workload: workload.label(),
                    policy: policy.label(),
                    tier: tier.label(),
                    seed: self.seed,
                    wall: start.elapsed(),
                    report,
                    multi: None,
                }
            }
            ScenarioKind::CoLocation(spec) => {
                let runs: Vec<TenantRun> = spec
                    .tenants
                    .iter()
                    .enumerate()
                    .map(|(i, t)| {
                        let wseed = derive_seed(self.seed, i as u64);
                        let policy = t.policy.clone();
                        let workload = t.workload.build(wseed)?;
                        Ok(TenantRun::new(t.name.clone(), workload, move |cfg| {
                            policy.build(cfg)
                        }))
                    })
                    .collect::<Result<_, ScenarioError>>()?;
                let combined: u64 = runs
                    .iter()
                    .map(|r| r.workload.footprint_pages(self.config.page_size))
                    .sum();
                let budget = spec.budget.resolve(combined, spec.tenants.len());
                let mt_cfg = MultiTenantConfig::new(budget)
                    .with_floor_frac(spec.floor_frac)
                    .with_rebalance_interval_ns(spec.rebalance_interval_ns);
                let multi = MultiTenantEngine::new(self.config.clone(), mt_cfg)
                    .run(runs)
                    .map_err(ScenarioError::Fleet)?;
                ScenarioResult {
                    label: self.label.clone(),
                    workload: spec.tenants_label(),
                    policy: spec
                        .tenants
                        .iter()
                        .map(|t| t.policy.label())
                        .collect::<Vec<_>>()
                        .join("+"),
                    tier: format!("co/{}", spec.budget.label()),
                    seed: self.seed,
                    wall: start.elapsed(),
                    report: multi.aggregate.clone(),
                    multi: Some(multi),
                }
            }
            ScenarioKind::Fleet(spec) => {
                let runs: Vec<TenantRun> = spec
                    .tenants
                    .iter()
                    .enumerate()
                    .map(|(i, t)| {
                        let wseed = derive_seed(self.seed, i as u64);
                        let policy = t.policy.clone();
                        let workload = t.workload.build(wseed)?;
                        Ok(TenantRun::new(t.name.clone(), workload, move |cfg| {
                            policy.build(cfg)
                        }))
                    })
                    .collect::<Result<_, ScenarioError>>()?;
                let mut schedule = ChurnSchedule::new();
                let mut combined: u64 = runs
                    .iter()
                    .map(|r| r.workload.footprint_pages(self.config.page_size))
                    .sum();
                for (j, c) in spec.churn.iter().enumerate() {
                    match &c.action {
                        ChurnAction::Arrive(t) => {
                            let wseed = derive_seed(self.seed, (spec.tenants.len() + j) as u64);
                            let workload = t.workload.build(wseed)?;
                            combined += workload.footprint_pages(self.config.page_size);
                            let policy = t.policy.clone();
                            schedule = schedule.arrive(
                                c.at_fleet_ops,
                                TenantRun::new(t.name.clone(), workload, move |cfg| {
                                    policy.build(cfg)
                                }),
                            );
                        }
                        ChurnAction::Depart(name) => {
                            schedule = schedule.depart(c.at_fleet_ops, name.clone());
                        }
                    }
                }
                let budget = spec.budget.resolve(combined, spec.total_tenant_slots());
                let mt_cfg = MultiTenantConfig::new(budget)
                    .with_floor_frac(spec.floor_frac)
                    .with_rebalance_interval_ns(spec.rebalance_interval_ns)
                    .with_objective_kind(spec.objective)
                    .with_controller_mode(spec.controller_mode);
                let multi = MultiTenantEngine::new(self.config.clone(), mt_cfg)
                    .run_with_churn(runs, schedule)
                    .map_err(ScenarioError::Fleet)?;
                ScenarioResult {
                    label: self.label.clone(),
                    workload: spec.tenants_label(),
                    policy: spec
                        .tenants
                        .iter()
                        .map(|t| t.policy.label())
                        .collect::<Vec<_>>()
                        .join("+"),
                    tier: format!("fleet/{}/{}", spec.objective.label(), spec.budget.label()),
                    seed: self.seed,
                    wall: start.elapsed(),
                    report: multi.aggregate.clone(),
                    multi: Some(multi),
                }
            }
        })
    }
}

/// One single-application run.
///
/// Suite workload + standard policy: resolve both identifiers to concrete
/// types once, so the whole run executes the monomorphized pipeline.
/// Custom specs only hand out boxed trait objects, so they take the dyn
/// instantiation of the same [`Engine::run_typed_ladder`]; either way the
/// report is byte-identical (see `typed_path_equals_dyn` in the sim crate's
/// integration tests).
fn run_single(
    workload: &WorkloadSpec,
    policy: &PolicySpec,
    tier: &TierSpec,
    config: &SimConfig,
    seed: u64,
) -> Result<SimReport, ScenarioError> {
    Ok(match (workload, policy) {
        (WorkloadSpec::Suite(id), PolicySpec::Kind(kind)) => visit_workload(
            *id,
            seed,
            TypedSingle {
                config,
                tier,
                kind: *kind,
            },
        ),
        _ => {
            let mut w = workload.build(seed)?;
            let topology = tier.topology(config, w.footprint_pages(config.page_size));
            let mut p = policy.build(&topology.as_tier_config());
            Engine::new(config.clone()).run_typed_ladder(w.as_mut(), p.as_mut(), topology)
        }
    })
}

/// Double-dispatch glue for the monomorphized single-scenario path: the
/// workload visitor resolves the generator type, sizes the tiers from its
/// footprint, then hands off to the policy visitor, which resolves the
/// policy type and runs [`Engine::run_typed_ladder`]. Only these two
/// small shells are instantiated per (workload, policy) type pair — the
/// heavy pipeline stages are generic in at most one of the two, so the
/// instantiation count stays additive, not multiplicative.
struct TypedSingle<'a> {
    config: &'a SimConfig,
    tier: &'a TierSpec,
    kind: PolicyKind,
}

impl WorkloadVisitor for TypedSingle<'_> {
    type Out = SimReport;
    fn visit<W: Workload + 'static>(self, mut workload: W) -> SimReport {
        let pages = workload.footprint_pages(self.config.page_size);
        let topology = self.tier.topology(self.config, pages);
        visit_policy(
            self.kind,
            &topology.as_tier_config(),
            TypedSingleWithWorkload {
                config: self.config,
                topology,
                workload: &mut workload,
            },
        )
    }
}

struct TypedSingleWithWorkload<'a, W: Workload> {
    config: &'a SimConfig,
    topology: TierTopology,
    workload: &'a mut W,
}

impl<W: Workload> PolicyVisitor for TypedSingleWithWorkload<'_, W> {
    type Out = SimReport;
    fn visit<P: TieringPolicy + 'static>(self, mut policy: P) -> SimReport {
        Engine::new(self.config.clone()).run_typed_ladder(self.workload, &mut policy, self.topology)
    }
}

/// The outcome of one scenario run.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioResult {
    /// Scenario label.
    pub label: String,
    /// Workload label (tenant names joined with `+` for co-location).
    pub workload: String,
    /// Policy label (joined with `+` for co-location).
    pub policy: String,
    /// Tier-spec label (`co/<budget>` for co-location).
    pub tier: String,
    /// Seed the workload(s) were built with.
    pub seed: u64,
    /// Host wall-clock time of this run (excluded from `PartialEq`-based
    /// determinism checks via [`ScenarioResult::same_outcome`]).
    pub wall: Duration,
    /// The simulation report (co-location: the whole-machine aggregate).
    pub report: SimReport,
    /// Per-tenant detail and quota trajectory for co-location scenarios.
    pub multi: Option<MultiTenantReport>,
}

impl ScenarioResult {
    /// Whether two results describe the same simulation outcome (ignores
    /// host wall-clock, which legitimately varies between runs).
    pub fn same_outcome(&self, other: &Self) -> bool {
        self.label == other.label
            && self.workload == other.workload
            && self.policy == other.policy
            && self.tier == other.tier
            && self.seed == other.seed
            && self.report == other.report
            && self.multi == other.multi
    }

    /// A stable 64-bit digest of this result's deterministic outcome:
    /// labels, seed, the report fingerprint, and (for multi-tenant kinds)
    /// the [`MultiTenantReport::fingerprint`]. Host wall time is excluded.
    ///
    /// Identical scenarios produce identical fingerprints on any host, so
    /// distributed-sweep tooling can cross-check shard outputs (and the
    /// `"fingerprint"` field of `BENCH_*.json` entries) without comparing
    /// whole reports.
    pub fn fingerprint(&self) -> u64 {
        // Mix the identity strings and seed into the report digest with the
        // same splitmix-style finalizer used for seed derivation.
        let mut acc = self.report.fingerprint();
        for s in [&self.label, &self.workload, &self.policy, &self.tier] {
            for b in s.as_bytes() {
                acc = crate::derive_seed(acc, u64::from(*b));
            }
            acc = crate::derive_seed(acc, s.len() as u64);
        }
        acc = crate::derive_seed(acc, self.seed);
        if let Some(multi) = &self.multi {
            acc = crate::derive_seed(acc, multi.fingerprint());
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_scenario_runs_and_labels() {
        let s = Scenario::suite(
            WorkloadId::CdnCacheLib,
            PolicyKind::HybridTier,
            TierRatio::OneTo8,
            &SimConfig::default().with_max_ops(2_000),
            42,
        );
        assert_eq!(s.label, "CDN/1:8/HybridTier");
        let r = s.run();
        assert_eq!(r.report.ops, 2_000);
        assert_eq!(r.policy, "HybridTier");
        assert_eq!(r.tier, "1:8");
        assert!(r.multi.is_none());
    }

    #[test]
    fn allfast_policy_gets_allfast_tier() {
        let s = Scenario::suite(
            WorkloadId::CdnCacheLib,
            PolicyKind::AllFast,
            TierRatio::OneTo8,
            &SimConfig::default().with_max_ops(1_000),
            42,
        );
        assert!(matches!(
            s.kind,
            ScenarioKind::Single {
                tier: TierSpec::AllFast,
                ..
            }
        ));
        let r = s.run();
        assert!((r.report.fast_hit_frac - 1.0).abs() < 1e-9);
    }

    #[test]
    fn custom_specs_run() {
        let s = Scenario::new(
            "custom-zipf",
            WorkloadSpec::custom("zipf", |seed| {
                Box::new(ZipfPageWorkload::new(500, 0.99, 3_000, seed))
            }),
            PolicySpec::custom("ht-tuned", |cfg| {
                tiering_policies::build_policy(PolicyKind::HybridTier, cfg)
            }),
            TierSpec::Ratio(TierRatio::OneTo4),
            &SimConfig::default(),
            9,
        );
        let r = s.run();
        assert_eq!(r.workload, "zipf");
        assert_eq!(r.policy, "ht-tuned");
        assert!(r.report.ops > 0);
    }

    #[test]
    fn identical_scenarios_identical_outcomes() {
        let mk = || {
            Scenario::suite(
                WorkloadId::Silo,
                PolicyKind::Memtis,
                TierRatio::OneTo16,
                &SimConfig::default().with_max_ops(3_000),
                5,
            )
            .run()
        };
        assert!(mk().same_outcome(&mk()));
    }

    #[test]
    fn colocation_scenario_runs_with_derived_tenant_seeds() {
        let spec = CoLocationSpec::new(vec![
            TenantSpec::new(
                "a",
                WorkloadSpec::custom("zipf", |seed| {
                    Box::new(ZipfPageWorkload::new(1_000, 0.99, 8_000, seed))
                }),
                PolicySpec::Kind(PolicyKind::HybridTier),
            ),
            TenantSpec::new(
                "b",
                WorkloadSpec::custom("zipf", |seed| {
                    Box::new(ZipfPageWorkload::new(1_000, 0.99, 8_000, seed))
                }),
                PolicySpec::Kind(PolicyKind::HybridTier),
            ),
        ])
        .with_budget(BudgetSpec::Pages(250))
        .with_rebalance_interval_ns(500_000);
        let r = Scenario::co_location("a+b", spec, &SimConfig::default(), 77).run();
        let multi = r.multi.expect("co-location detail");
        assert_eq!(multi.tenants.len(), 2);
        assert_eq!(multi.fast_budget_pages, 250);
        assert_eq!(r.workload, "a+b");
        assert_eq!(r.tier, "co/250pg");
        assert_eq!(r.report.ops, 16_000, "aggregate sums both tenants");
        // Identical recipes, but derived seeds make the streams distinct.
        assert_ne!(
            multi.tenants[0].report.sim_ns, multi.tenants[1].report.sim_ns,
            "tenants must not share a workload RNG stream"
        );
        assert!(!multi.rebalances.is_empty());
    }

    /// A hand-built spec the engine refuses comes back as
    /// `ScenarioError::Fleet` from `try_run` — and as the documented panic,
    /// with the same message, from `run`.
    #[test]
    fn unrunnable_fleet_specs_are_typed_errors() {
        let config = SimConfig::default().with_max_ops(2_000);
        let empty = Scenario::co_location("none", CoLocationSpec::new(Vec::new()), &config, 1);
        assert!(matches!(
            empty.try_run(),
            Err(ScenarioError::Fleet(FleetError::NoTenants))
        ));

        let tenant = TenantSpec::new(
            "a",
            WorkloadSpec::custom("zipf", |seed| {
                Box::new(ZipfPageWorkload::new(500, 0.9, 2_000, seed))
            }),
            PolicySpec::Kind(PolicyKind::HybridTier),
        );
        let spec = FleetSpec::new(vec![tenant])
            .with_churn(vec![ChurnSpec::depart(100, "ghost")])
            .with_rebalance_interval_ns(100_000);
        let ghost = Scenario::fleet("ghost", spec, &config, 1);
        let err = ghost.try_run().map(drop).expect_err("unknown departure");
        assert!(matches!(
            &err,
            ScenarioError::Fleet(FleetError::UnknownDeparture { tenant, at_fleet_ops: 100 })
                if tenant == "ghost"
        ));
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| ghost.run()))
            .expect_err("run panics");
        assert_eq!(panic.downcast_ref::<String>(), Some(&err.to_string()));
    }

    #[test]
    fn fleet_churn_demo_runs_under_every_objective() {
        let config = SimConfig::default().with_max_sim_ns(60_000_000);
        for objective in tiering_policies::ObjectiveKind::ALL {
            let s = Scenario::fleet_churn_demo(objective, &config, 21);
            assert_eq!(
                s.label,
                format!("cache+analytics+burst/{}/churn", objective.label())
            );
            let r = s.run();
            assert_eq!(r.tier, format!("fleet/{}/1:8", objective.label()));
            let multi = r.multi.expect("fleet detail");
            assert_eq!(multi.tenants.len(), 4, "3 initial + 1 re-arrival slot");
            assert_eq!(multi.churn.len(), 2, "both churn events fired");
            assert!(
                multi
                    .rebalances
                    .iter()
                    .all(|e| e.objective == objective.label()
                        && e.assigned() == multi.fast_budget_pages),
                "{objective:?}: budget leak or mislabel"
            );
            // The burst tenant really leaves and a fresh slot really runs.
            assert!(multi.tenants[2].departed_at_ns.is_some());
            assert!(multi.tenants[3].report.ops > 0);
        }
    }

    #[test]
    fn fleet_arrivals_get_derived_seeds() {
        // Two arrivals with identical recipes must not share an RNG
        // stream (seeds derive from the churn position).
        let tenant = |name: &str| {
            TenantSpec::new(
                name,
                WorkloadSpec::custom("zipf", |seed| {
                    Box::new(ZipfPageWorkload::new(1_000, 0.9, 4_000, seed))
                }),
                PolicySpec::Kind(PolicyKind::HybridTier),
            )
        };
        let spec = FleetSpec::new(vec![tenant("base")])
            .with_churn(vec![
                ChurnSpec::arrive(1_000, tenant("x")),
                ChurnSpec::arrive(2_000, tenant("y")),
            ])
            .with_budget(BudgetSpec::Pages(300))
            .with_rebalance_interval_ns(500_000);
        assert_eq!(spec.total_tenant_slots(), 3);
        let r = Scenario::fleet("fleet", spec, &SimConfig::default(), 5).run();
        let multi = r.multi.expect("fleet detail");
        assert_eq!(multi.tenants.len(), 3);
        assert_ne!(
            multi.tenants[1].report.sim_ns, multi.tenants[2].report.sim_ns,
            "arrivals must not share a workload RNG stream"
        );
    }

    #[test]
    fn wakeup_demo_shifts_quota_to_the_woken_tenant() {
        let config = SimConfig::default().with_max_sim_ns(100_000_000);
        let r = Scenario::wakeup_demo(&config, 17).run();
        let multi = r.multi.expect("co-location detail");
        let cache_traj = multi.quota_trajectory(0);
        let batch_traj = multi.quota_trajectory(1);
        assert_eq!(cache_traj.len(), batch_traj.len());
        // Before the wake (first ~4 rebalances) the cache tenant dominates;
        // after it, the batch tenant's quota must rise substantially.
        let before = batch_traj
            .iter()
            .find(|(t, _)| *t == 30_000_000)
            .expect("rebalance at 30ms")
            .1;
        let after = batch_traj.last().expect("events").1;
        assert!(
            after > before * 2,
            "wake-up must grow the batch tenant's quota: {before} -> {after}"
        );
        assert!(
            cache_traj[1].1 > batch_traj[1].1,
            "cache tenant dominates while batch idles: {cache_traj:?}"
        );
    }
}
