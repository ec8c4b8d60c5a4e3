//! One experiment = one scenario.
//!
//! A [`Scenario`] is a *recipe*, not a live object: workload and policy
//! **factories** ([`WorkloadSpec`], [`PolicySpec`]) plus tier sizing
//! ([`TierSpec`] or, for a fleet, [`BudgetSpec`]), an engine
//! [`SimConfig`], and a seed. [`Scenario::run`] builds everything inside
//! the executing thread, so recipes are cheap to clone, safe to send to
//! any thread (or serialize to another host as a matrix position — see the
//! shard module), and every run is as deterministic as the engine itself.
//!
//! Two [`ScenarioKind`]s cover the repo's experiment shapes: `Single`
//! (the classic one-workload/one-policy run) and `Fleet` ([`FleetSpec`]:
//! N tenants share one controller-partitioned fast tier, with an optional
//! [`ChurnSpec`] arrival/departure schedule and one of the built-in
//! [`ObjectiveKind`]s). The paper's §7 co-location is the static
//! proportional fleet. The canonical demo recipes ([`Scenario::wakeup_demo`],
//! [`Scenario::fleet_churn_demo`]) are shared verbatim by the examples,
//! the bench sweeps, and the golden suite so their trajectories can never
//! drift apart.
//!
//! Every run yields a [`ScenarioResult`]: labels, the seed, the
//! [`SimReport`] (for a fleet, the whole-machine aggregate plus
//! per-tenant detail in [`ScenarioResult::multi`]), host wall time, and a
//! stable outcome [`fingerprint`](ScenarioResult::fingerprint) used by the
//! distributed-sweep merge layer.

use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tiering_mem::{LadderKind, TierConfig, TierRatio, TierTopology};
use tiering_policies::{
    build_policy, ControllerMode, HybridTierConfig, HybridTierPolicy, ObjectiveKind, PolicyKind,
    TieringPolicy,
};
use tiering_sim::{Engine, MultiTenantReport, SimConfig, SimReport};
use tiering_trace::{TraceError, Workload};
use tiering_workloads::{build_workload, TraceReplayWorkload, WorkloadId, ZipfPageWorkload};

use crate::multi_tenant;

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
    /// A fleet spec with no initial tenants: a fleet starts with at least
    /// one.
    NoTenants,
    /// A fleet's churn schedule departed a name no live tenant carries
    /// when the event fired.
    UnknownDeparture {
        /// The name the event carried.
        tenant: String,
        /// The event's fleet op-count threshold.
        at_fleet_ops: u64,
    },
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Trace { path, source } => {
                write!(f, "cannot open trace {}: {source}", path.display())
            }
            ScenarioError::NoTenants => write!(f, "co-location needs at least one tenant"),
            ScenarioError::UnknownDeparture {
                tenant,
                at_fleet_ops,
            } => write!(
                f,
                "depart of unknown live tenant {tenant} (scheduled at {at_fleet_ops} fleet ops)"
            ),
        }
    }
}

impl std::error::Error for ScenarioError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ScenarioError::Trace { source, .. } => Some(source),
            ScenarioError::NoTenants | ScenarioError::UnknownDeparture { .. } => None,
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

    pub(crate) fn build(&self, seed: u64) -> Result<Box<dyn Workload>, ScenarioError> {
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

    pub(crate) fn build(&self, tier_cfg: &TierConfig) -> Box<dyn TieringPolicy> {
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

/// How the shared fast budget of a fleet scenario is sized.
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

/// One scheduled fleet-composition change, as a recipe: what happens and
/// at which fleet op count. The event fires at the first rebalance
/// boundary where the fleet's cumulative completed operations have reached
/// `at_fleet_ops`, whatever its position in the list; events due in the
/// same round apply in list order, and an event whose threshold the run
/// never reaches does not fire.
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

/// A complete multi-tenant recipe: who starts on the machine, how the
/// composition churns, and which objective the controller apportions
/// under. The churn-free, proportional case is the paper's §7
/// co-location, and its results carry the tier label `co/<budget>`;
/// every other fleet is labelled `fleet/<objective>/<budget>`.
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
    /// Simulated time between controller rebalances; must be positive (a
    /// run panics on 0).
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
            budget: BudgetSpec::Ratio(TierRatio::OneTo8),
            floor_frac: 0.1,
            rebalance_interval_ns: 10_000_000,
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

    /// The results' tier label: `co/<budget>` for a churn-free fleet under
    /// the proportional objective (the §7 co-location), otherwise
    /// `fleet/<objective>/<budget>`.
    fn tier_label(&self) -> String {
        if self.churn.is_empty() && self.objective == ObjectiveKind::Proportional {
            format!("co/{}", self.budget.label())
        } else {
            format!("fleet/{}/{}", self.objective.label(), self.budget.label())
        }
    }
}

/// What a scenario executes: one (workload, policy, tier) run, or N
/// tenants sharing a controller-partitioned fast tier.
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
    /// N tenants under the §7 global controller, static or churned.
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
    /// Base seed (single: the workload seed; fleet: per-tenant seeds are
    /// derived from it by tenant slot).
    pub seed: u64,
}

impl Scenario {
    /// A scenario over standard suite components: the `AllFast` policy gets
    /// the all-fast tier configuration, everything else the ratio split.
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
    /// budget, rebalanced every 10 ms — a static proportional fleet. Run it
    /// with a horizon of at least ~100 ms (`config.max_sim_ns`) to see the
    /// controller follow the demand swing.
    pub fn wakeup_demo(config: &SimConfig, seed: u64) -> Self {
        let spec = FleetSpec::new(Self::wakeup_demo_tenants())
            .with_budget(BudgetSpec::Ratio(TierRatio::OneTo8))
            .with_rebalance_interval_ns(10_000_000);
        Self::fleet("cache+batch/1:8/wakeup", spec, config, seed)
    }

    /// A multi-tenant scenario: the tenants run concurrently (in simulated
    /// time) against one controller-partitioned fast tier, arriving and
    /// departing on the spec's churn schedule, under its quota objective.
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
                let config = HybridTierConfig::scaled()
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
    ///
    /// Every workload and policy, suite or custom, runs boxed: a single
    /// run is the `Box<dyn Workload>` × `Box<dyn TieringPolicy>` pipeline
    /// that every fleet lane runs. Resolving suite ids to concrete types
    /// instead gives byte-identical reports and bought no measurable host
    /// time (the numbers are on [`Engine::run_typed`]).
    pub fn try_run(&self) -> Result<ScenarioResult, ScenarioError> {
        let start = Instant::now();
        let (workload, policy, tier, report, multi) = match &self.kind {
            ScenarioKind::Single {
                workload,
                policy,
                tier,
            } => {
                let mut w = workload.build(self.seed)?;
                let pages = w.footprint_pages(self.config.page_size);
                let topology = tier.topology(&self.config, pages);
                let mut p = policy.build(&topology.as_tier_config());
                let engine = Engine::new(self.config.clone());
                let report = engine.run_ladder(w.as_mut(), p.as_mut(), topology);
                (workload.label(), policy.label(), tier.label(), report, None)
            }
            ScenarioKind::Fleet(spec) => {
                let (multi, _) = multi_tenant::run(spec, &self.config, self.seed)?;
                let joined = |label: fn(&TenantSpec) -> String| {
                    spec.tenants.iter().map(label).collect::<Vec<_>>().join("+")
                };
                (
                    joined(|t| t.name.clone()),
                    joined(|t| t.policy.label()),
                    spec.tier_label(),
                    multi.aggregate.clone(),
                    Some(multi),
                )
            }
        };
        Ok(ScenarioResult {
            label: self.label.clone(),
            workload,
            policy,
            tier,
            seed: self.seed,
            wall: start.elapsed(),
            report,
            multi,
        })
    }
}

/// The outcome of one scenario run.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioResult {
    /// Scenario label.
    pub label: String,
    /// Workload label (initial tenant names joined with `+` for a fleet).
    pub workload: String,
    /// Policy label (joined with `+` for a fleet).
    pub policy: String,
    /// Tier-spec label (for a fleet, `co/<budget>` or
    /// `fleet/<objective>/<budget>` — see [`FleetSpec`]).
    pub tier: String,
    /// Seed the workload(s) were built with.
    pub seed: u64,
    /// Host wall-clock time of this run (excluded from `PartialEq`-based
    /// determinism checks via [`ScenarioResult::same_outcome`]).
    pub wall: Duration,
    /// The simulation report (fleet: the whole-machine aggregate).
    pub report: SimReport,
    /// Per-tenant detail and quota trajectory for fleet scenarios.
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
    /// labels, seed, the report fingerprint, and (for a fleet)
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
    use crate::derive_seed;

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
        let spec = FleetSpec::new(vec![
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
        let r = Scenario::fleet("a+b", spec, &SimConfig::default(), 77).run();
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

    /// A hand-built spec the engine refuses comes back as a typed
    /// `ScenarioError` from `try_run` — and as the documented panic,
    /// with the same message, from `run`.
    #[test]
    fn unrunnable_fleet_specs_are_typed_errors() {
        let config = SimConfig::default().with_max_ops(2_000);
        let empty = Scenario::fleet("none", FleetSpec::new(Vec::new()), &config, 1);
        assert!(matches!(empty.try_run(), Err(ScenarioError::NoTenants)));

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
            ScenarioError::UnknownDeparture { tenant, at_fleet_ops: 100 }
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
        let r = Scenario::fleet("fleet", spec, &SimConfig::default(), 5).run();
        let multi = r.multi.expect("fleet detail");
        assert_eq!(multi.tenants.len(), 3);
        assert_ne!(
            multi.tenants[1].report.sim_ns, multi.tenants[2].report.sim_ns,
            "arrivals must not share a workload RNG stream"
        );
    }

    /// Every tenant slot's workload is built from `derive_seed(seed, slot)`:
    /// initial tenants by index, then arrivals by churn position after
    /// them (a departure still takes its position).
    #[test]
    fn tenant_slots_seed_initial_tenants_then_arrivals() {
        let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
        let tenant = |name: &str| {
            let seen = Arc::clone(&seen);
            TenantSpec::new(
                name,
                WorkloadSpec::custom("zipf", move |seed| {
                    seen.lock().unwrap().push(seed);
                    Box::new(ZipfPageWorkload::new(200, 0.9, 500, seed))
                }),
                PolicySpec::Kind(PolicyKind::HybridTier),
            )
        };
        let spec = FleetSpec::new(vec![tenant("a"), tenant("b")]).with_churn(vec![
            ChurnSpec::depart(100, "a"),
            ChurnSpec::arrive(200, tenant("c")),
        ]);
        Scenario::fleet("slots", spec, &SimConfig::default(), 9).run();
        let want = [0, 1, 3].map(|slot| derive_seed(9, slot));
        assert_eq!(*seen.lock().unwrap(), want);
    }

    /// `co/<budget>` marks exactly the fleets the §7 co-location covers:
    /// no churn and the proportional objective.
    #[test]
    fn tier_label_is_co_only_for_static_proportional_fleets() {
        let tenant = || TenantSpec::suite("a", WorkloadId::Silo, PolicyKind::HybridTier);
        let fleet =
            FleetSpec::new(vec![tenant()]).with_budget(BudgetSpec::Ratio(TierRatio::OneTo4));
        assert_eq!(fleet.tier_label(), "co/1:4");
        let max_min = fleet.clone().with_objective_kind(ObjectiveKind::MaxMin);
        assert_eq!(max_min.tier_label(), "fleet/max-min/1:4");
        let churned = fleet.with_churn(vec![ChurnSpec::arrive(1_000, tenant())]);
        assert_eq!(churned.tier_label(), "fleet/proportional/1:4");
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
