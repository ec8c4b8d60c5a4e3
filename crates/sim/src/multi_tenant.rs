//! Co-located tenants over one physical fast tier (paper §7).
//!
//! [`MultiTenantEngine`] drives N tenants — each an ordinary (workload,
//! policy) pair with its own [`SimRun`], the run handle the single-tenant
//! [`Engine`](crate::Engine) drives too — against one shared fast-tier
//! budget partitioned by a [`GlobalController`]. Execution is round-based:
//!
//! 1. every tenant's run is stepped until its local simulated clock reaches
//!    the next rebalance boundary (or it finishes);
//! 2. the controller collects each tenant's demand signal
//!    ([`TieringPolicy::fast_demand_pages`]) and re-partitions the budget,
//!    recording a typed [`RebalanceEvent`](tiering_policies::RebalanceEvent);
//! 3. the new quotas are applied to each tenant's memory view — shrunk
//!    tenants drain through their policy's ordinary watermark demotion, so
//!    quota enforcement rides the existing migration path.
//!
//! Determinism mirrors the single-tenant engine: tenants are stepped in
//! registration order, all state is thread-local, and batching never
//! perturbs results. A tenant suspended at a round boundary with
//! pulled-but-unconsumed operations resumes them after the rebalance (see
//! [`SimRun::run_until`]); a rebalance only resizes memory, never the
//! workload. The `multi_tenant_equivalence` integration tests pin
//! batch-size invariance for the whole co-located run.
//!
//! # Tenant churn
//!
//! Real fleets are not a fixed tenant set: applications arrive, finish,
//! and leave mid-run. [`ChurnSchedule`] expresses that as
//! [`TenantEvent`]s triggered at **fleet op-count boundaries**: once the
//! fleet's cumulative completed operations cross an event's threshold, the
//! event is applied at the next round boundary (round boundaries are the
//! only points where the fleet's state is globally consistent, and per-
//! round op counts are batch-size invariant — so churn is too). Departing
//! tenants stop executing and their fast pages are reclaimed into the live
//! budget immediately; arrivals are admitted under the controller's
//! min-one guarantee and earn their real share at the next rebalance.
//! Every applied event is sealed into the report as a
//! [`ChurnRecord`](crate::ChurnRecord), so per-epoch fleet composition is
//! reconstructible from the result alone.
//!
//! Like single-tenant runs, a whole co-located run is a pure function of
//! its recipe: the sealed [`MultiTenantReport`](crate::MultiTenantReport)
//! (and its [`fingerprint`](crate::MultiTenantReport::fingerprint)) is
//! identical on any host or thread count, which is what lets
//! `tiering_runner` treat fleet scenarios as ordinary units of parallel —
//! and, via its shard layer, distributed — sweeps.

use std::collections::VecDeque;
use std::fmt;

use tiering_mem::{TierConfig, TierTopology};
use tiering_policies::{ControllerMode, GlobalController, ObjectiveKind, TieringPolicy};
use tiering_trace::Workload;

use crate::pipeline::SimRun;
use crate::report::{ChurnKind, ChurnRecord, MultiTenantReport, SimReport, TenantReport};
use crate::{LatencySummary, LogHistogram, SimConfig};

/// Default tenant floor fraction (the canonical §7 demo value, shared with
/// the runner's co-location specs so the constant lives once).
pub const DEFAULT_FLOOR_FRAC: f64 = 0.1;

/// Default rebalance cadence in simulated ns (10 ms; see
/// [`DEFAULT_FLOOR_FRAC`]).
pub const DEFAULT_REBALANCE_INTERVAL_NS: u64 = 10_000_000;

/// Builds a tenant's policy once its initial tier configuration (equal-share
/// quota) is known.
pub type TenantPolicyBuilder = Box<dyn FnOnce(&TierConfig) -> Box<dyn TieringPolicy>>;

/// One tenant to co-locate: a name, a workload, and a policy recipe.
pub struct TenantRun {
    /// Tenant name (reporting and lookup).
    pub name: String,
    /// The tenant's application.
    pub workload: Box<dyn Workload>,
    /// Policy factory, invoked with the tenant's initial tier config.
    pub policy: TenantPolicyBuilder,
}

impl TenantRun {
    /// A tenant from its parts.
    pub fn new<F>(name: impl Into<String>, workload: Box<dyn Workload>, policy: F) -> Self
    where
        F: FnOnce(&TierConfig) -> Box<dyn TieringPolicy> + 'static,
    {
        Self {
            name: name.into(),
            workload,
            policy: Box::new(policy),
        }
    }
}

impl fmt::Debug for TenantRun {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TenantRun({}, {})", self.name, self.workload.name())
    }
}

/// One fleet-composition change.
pub enum TenantEvent {
    /// A new tenant joins the fleet (admitted under the min-one
    /// guarantee; its workload starts at the round boundary it arrives
    /// at).
    Arrive(TenantRun),
    /// The named tenant leaves the fleet: it stops executing and its fast
    /// pages are reclaimed into the live budget. Names are resolved
    /// against **live** tenants, so a departed name can arrive again
    /// later (a fresh slot).
    Depart(String),
}

impl fmt::Debug for TenantEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TenantEvent::Arrive(run) => write!(f, "Arrive({})", run.name),
            TenantEvent::Depart(name) => write!(f, "Depart({name})"),
        }
    }
}

/// A list of [`TenantEvent`]s, each firing independently once the fleet's
/// cumulative completed operations reach its threshold (applied at the
/// next round boundary; events due in the same round apply in list
/// order). Events whose threshold is never reached — the fleet finished
/// first — do not fire.
#[derive(Debug, Default)]
pub struct ChurnSchedule {
    events: Vec<(u64, TenantEvent)>,
}

impl ChurnSchedule {
    /// An empty schedule (a static fleet).
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the schedule holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Schedules an arrival once the fleet has completed `at_fleet_ops`
    /// operations.
    #[must_use]
    pub fn arrive(mut self, at_fleet_ops: u64, tenant: TenantRun) -> Self {
        self.events
            .push((at_fleet_ops, TenantEvent::Arrive(tenant)));
        self
    }

    /// Schedules the named tenant's departure once the fleet has completed
    /// `at_fleet_ops` operations.
    #[must_use]
    pub fn depart(mut self, at_fleet_ops: u64, name: impl Into<String>) -> Self {
        self.events
            .push((at_fleet_ops, TenantEvent::Depart(name.into())));
        self
    }
}

/// Co-location parameters: the shared budget, the controller cadence, and
/// the quota objective.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultiTenantConfig {
    /// Physical fast pages shared by all tenants.
    pub fast_budget_pages: u64,
    /// Minimum budget share any tenant keeps (see
    /// [`GlobalController::new`]).
    pub floor_frac: f64,
    /// Simulated time between controller rebalances; must be positive
    /// ([`MultiTenantEngine::run_with_churn`] panics on 0).
    pub rebalance_interval_ns: u64,
    /// How the controller follows demand (see [`ObjectiveKind`]).
    pub objective: ObjectiveKind,
    /// The shape of the controller's rebalance events.
    /// [`ControllerMode::FullScan`] (the default) records the full
    /// per-slot vectors the fleet goldens pin;
    /// [`ControllerMode::Incremental`] records compact `O(1)` events — the
    /// setting for synthetic large fleets. Quotas are identical either
    /// way.
    pub controller_mode: ControllerMode,
}

impl MultiTenantConfig {
    /// A configuration with the paper-demo defaults: 10% floor, 10 ms
    /// rebalance cadence, proportional share.
    pub fn new(fast_budget_pages: u64) -> Self {
        Self {
            fast_budget_pages,
            floor_frac: DEFAULT_FLOOR_FRAC,
            rebalance_interval_ns: DEFAULT_REBALANCE_INTERVAL_NS,
            objective: ObjectiveKind::Proportional,
            controller_mode: ControllerMode::FullScan,
        }
    }

    /// Overrides the controller's event shape (see
    /// [`MultiTenantConfig::controller_mode`]).
    #[must_use]
    pub fn with_controller_mode(mut self, mode: ControllerMode) -> Self {
        self.controller_mode = mode;
        self
    }

    /// Overrides the quota objective.
    #[must_use]
    pub fn with_objective_kind(mut self, objective: ObjectiveKind) -> Self {
        self.objective = objective;
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
}

/// Why a fleet could not be run: both conditions come from the caller's
/// tenant list and [`ChurnSchedule`], not from the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetError {
    /// The initial tenant list was empty; a fleet starts with at least
    /// one tenant.
    NoTenants,
    /// A [`TenantEvent::Depart`] fired for a name no live tenant carries.
    UnknownDeparture {
        /// The name the event carried.
        tenant: String,
        /// The event's fleet op-count threshold.
        at_fleet_ops: u64,
    },
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::NoTenants => write!(f, "co-location needs at least one tenant"),
            FleetError::UnknownDeparture {
                tenant,
                at_fleet_ops,
            } => write!(
                f,
                "depart of unknown live tenant {tenant} (scheduled at {at_fleet_ops} fleet ops)"
            ),
        }
    }
}

impl std::error::Error for FleetError {}

/// One tenant's live execution state.
struct Lane<'c> {
    name: String,
    workload: Box<dyn Workload>,
    policy: Box<dyn TieringPolicy>,
    run: SimRun<'c>,
    initial_quota: u64,
    /// Fleet time at which this lane joined (0 for initial tenants). The
    /// lane's run clock is local — fleet boundaries are translated by this
    /// offset.
    start_ns: u64,
    /// Fleet time the lane departed at, once a churn event removed it.
    departed_at_ns: Option<u64>,
    /// Ops already folded into the engine's running fleet total, so the
    /// per-round fleet op count is an `O(active)` delta accumulation
    /// instead of an `O(tenants)` re-sum.
    counted_ops: u64,
}

impl Lane<'_> {
    /// Whether this tenant has nothing left to simulate (departed lanes
    /// are done regardless of their workload's state).
    fn finished(&self) -> bool {
        self.departed_at_ns.is_some() || self.run.finished()
    }

    /// Advances the tenant until its local clock reaches the **fleet**
    /// boundary `until_fleet_ns` (see [`SimRun::run_until`]).
    fn run_until(&mut self, until_fleet_ns: u64) {
        self.run.run_until(
            self.workload.as_mut(),
            self.policy.as_mut(),
            until_fleet_ns.saturating_sub(self.start_ns),
        );
    }
}

/// The co-location engine: N tenants, one fast budget, a central
/// controller.
///
/// Like [`Engine`](crate::Engine), runs are deterministic: the same tenant
/// list, configurations, and seeds produce byte-identical
/// [`MultiTenantReport`]s regardless of batch size.
#[derive(Debug, Clone)]
pub struct MultiTenantEngine {
    sim: SimConfig,
    cfg: MultiTenantConfig,
}

impl MultiTenantEngine {
    /// Creates the engine. `sim` applies to every tenant's pipeline
    /// (per-tenant op/time caps, batch size, timeline window).
    pub fn new(sim: SimConfig, cfg: MultiTenantConfig) -> Self {
        Self { sim, cfg }
    }

    /// Runs a static fleet to completion and seals the merged report.
    ///
    /// # Errors
    ///
    /// [`FleetError::NoTenants`] if `tenants` is empty.
    pub fn run(&self, tenants: Vec<TenantRun>) -> Result<MultiTenantReport, FleetError> {
        self.run_with_churn(tenants, ChurnSchedule::new())
    }

    /// Runs a dynamic fleet: the initial tenants start together, and
    /// `churn` events are applied at round boundaries once the fleet's
    /// cumulative op count crosses their thresholds (see the module docs
    /// for the determinism argument). Events whose threshold the run never
    /// reaches do not fire.
    ///
    /// # Errors
    ///
    /// [`FleetError::NoTenants`] if `tenants` is empty (a fleet must start
    /// with at least one tenant); [`FleetError::UnknownDeparture`] if a
    /// [`TenantEvent::Depart`] names no live tenant when it fires.
    ///
    /// # Panics
    ///
    /// Panics if the rebalance interval is 0: no round would ever end.
    pub fn run_with_churn(
        &self,
        tenants: Vec<TenantRun>,
        churn: ChurnSchedule,
    ) -> Result<MultiTenantReport, FleetError> {
        assert!(
            self.cfg.rebalance_interval_ns > 0,
            "rebalance interval must be positive"
        );
        if tenants.is_empty() {
            return Err(FleetError::NoTenants);
        }
        let mut controller = GlobalController::new(self.cfg.fast_budget_pages, self.cfg.floor_frac)
            .with_objective_kind(self.cfg.objective)
            .with_mode(self.cfg.controller_mode);
        for t in &tenants {
            controller.add_tenant(&t.name, t.workload.footprint_pages(self.sim.page_size));
        }

        // Sized once for every slot the run can create: a `Lane` is over
        // 2 KiB, so one arrival doubling a 5 000-lane table is a 32 MiB
        // transient.
        let arrivals = churn
            .events
            .iter()
            .filter(|(_, e)| matches!(e, TenantEvent::Arrive(_)))
            .count();
        let mut lanes: Vec<Lane<'_>> = Vec::with_capacity(tenants.len() + arrivals);
        lanes.extend(
            tenants
                .into_iter()
                .enumerate()
                .map(|(i, t)| self.lane(&controller, i, t, 0)),
        );
        let mut pending: VecDeque<(u64, TenantEvent)> = churn.events.into();
        let mut churn_records: Vec<ChurnRecord> = Vec::new();

        // Active-set iteration: only lanes that can still make progress
        // are visited per round, so a fleet where most tenants finished
        // early (the synthetic large-fleet shape) costs O(active) per
        // round, not O(tenants). Registration order is preserved —
        // `retain` keeps relative order — so stepping order, and with it
        // every report bit, is unchanged.
        let mut active: Vec<usize> = (0..lanes.len()).collect();
        let mut fleet_ops = 0u64;

        let mut round_end = self.cfg.rebalance_interval_ns;
        loop {
            for &i in &active {
                let lane = &mut lanes[i];
                lane.run_until(round_end);
                fleet_ops += lane.run.ops() - lane.counted_ops;
                lane.counted_ops = lane.run.ops();
            }

            // Apply due churn events. Each event fires independently of
            // its position in the schedule — the whole pending list is
            // scanned every round, so an event listed after one with a
            // higher (possibly never-reached) threshold still fires when
            // its own threshold is crossed; events due in the same round
            // apply in list order. Thresholds compare against fleet-wide
            // completed ops, which are identical at round boundaries for
            // every batch size — so churn timing is batch-size invariant
            // too.
            let mut scan = 0;
            while scan < pending.len() {
                if pending[scan].0 > fleet_ops {
                    scan += 1;
                    continue;
                }
                let (at_ops, event) = pending.remove(scan).expect("index checked");
                let (kind, tenant) = match event {
                    TenantEvent::Depart(name) => {
                        let Some(slot) = lanes
                            .iter()
                            .position(|l| l.departed_at_ns.is_none() && l.name == name)
                        else {
                            return Err(FleetError::UnknownDeparture {
                                tenant: name,
                                at_fleet_ops: at_ops,
                            });
                        };
                        lanes[slot].departed_at_ns = Some(round_end);
                        controller.retire_tenant(slot);
                        (ChurnKind::Departed, name)
                    }
                    TenantEvent::Arrive(run) => {
                        let slot = controller.admit_tenant(
                            &run.name,
                            run.workload.footprint_pages(self.sim.page_size),
                        );
                        let name = run.name.clone();
                        let lane = self.lane(&controller, slot, run, round_end);
                        debug_assert_eq!(slot, lanes.len(), "slots track lanes");
                        debug_assert!(lanes.len() < lanes.capacity(), "lane table sized once");
                        lanes.push(lane);
                        active.push(slot);
                        (ChurnKind::Arrived, name)
                    }
                };
                // Reclaimed/carved pages are enforced immediately, not at
                // the next rebalance — live quotas always sum to budget.
                // Finished lanes never run again, so re-capping them is
                // unobservable: active lanes suffice.
                for &i in &active {
                    let lane = &mut lanes[i];
                    if lane.departed_at_ns.is_none() {
                        lane.run.set_fast_capacity(controller.quota(i));
                    }
                }
                churn_records.push(ChurnRecord {
                    at_ns: round_end,
                    at_fleet_ops: at_ops,
                    kind,
                    tenant,
                    live_after: controller.live_mask(),
                });
            }

            // A finished tenant's application is gone: its policy state
            // (and hot-set estimate) is frozen at peak, so letting it keep
            // reporting demand would squeeze still-running tenants forever.
            // It reports zero exactly once, at the transition off the
            // active set — the controller floors that to the idle share
            // and the applied demand model never changes again, which is
            // why dropping it from the per-round loop is bit-identical.
            // (Departed tenants have no quota at all — their slots are
            // dead; `update_demand` ignores them.)
            active.retain(|&i| {
                if lanes[i].finished() {
                    controller.update_demand(i, 0);
                    false
                } else {
                    true
                }
            });
            if active.is_empty() {
                break;
            }
            for &i in &active {
                let lane = &lanes[i];
                controller.update_demand(i, lane.policy.fast_demand_pages(lane.run.mem()));
            }
            controller.rebalance_dirty(round_end);
            for &i in &active {
                lanes[i].run.set_fast_capacity(controller.quota(i));
            }
            round_end += self.cfg.rebalance_interval_ns;
        }

        Ok(self.seal(controller, lanes, churn_records))
    }

    /// Builds one tenant's lane at its controller-assigned initial quota.
    fn lane<'c>(
        &'c self,
        controller: &GlobalController,
        slot: usize,
        run: TenantRun,
        start_ns: u64,
    ) -> Lane<'c> {
        let tier_cfg = controller.tier_config(slot, self.sim.page_size);
        let policy = (run.policy)(&tier_cfg);
        Lane {
            name: run.name,
            workload: run.workload,
            run: SimRun::new(
                &self.sim,
                TierTopology::two_tier(tier_cfg, &self.sim.latency),
                policy.as_ref(),
            ),
            policy,
            initial_quota: tier_cfg.fast_capacity_pages,
            start_ns,
            departed_at_ns: None,
            counted_ops: 0,
        }
    }

    /// Merges per-lane state into the final report.
    fn seal(
        &self,
        controller: GlobalController,
        lanes: Vec<Lane<'_>>,
        churn: Vec<ChurnRecord>,
    ) -> MultiTenantReport {
        let mut merged_hist = LogHistogram::new();
        let mut tenant_reports = Vec::with_capacity(lanes.len());
        let mut names = Vec::with_capacity(lanes.len());
        let mut policies = Vec::with_capacity(lanes.len());
        for (i, lane) in lanes.into_iter().enumerate() {
            merged_hist.merge(&lane.run.hist());
            let final_fast_used = lane.run.mem().fast_used();
            let report = lane.run.finish(lane.workload.name(), lane.policy.as_ref());
            names.push(lane.name.clone());
            policies.push(report.policy.clone());
            tenant_reports.push(TenantReport {
                name: lane.name,
                initial_quota_pages: lane.initial_quota,
                final_quota_pages: controller.quota(i),
                final_fast_used,
                arrived_at_ns: lane.start_ns,
                departed_at_ns: lane.departed_at_ns,
                report,
            });
        }

        let mut migrations = tiering_mem::MigrationStats::default();
        let (mut ops, mut accesses, mut samples, mut fast_hits_weighted) = (0, 0, 0, 0.0);
        let mut sim_ns = 0;
        let mut metadata_bytes = 0;
        for t in &tenant_reports {
            ops += t.report.ops;
            accesses += t.report.accesses;
            samples += t.report.samples;
            // Fleet-time end of this tenant's run (arrivals run on offset
            // local clocks; identical for static fleets).
            sim_ns = sim_ns.max(t.arrived_at_ns + t.report.sim_ns);
            metadata_bytes += t.report.metadata_bytes;
            fast_hits_weighted += t.report.fast_hit_frac * t.report.accesses as f64;
            migrations.promotions += t.report.migrations.promotions;
            migrations.demotions += t.report.migrations.demotions;
            migrations.allocated_fast += t.report.migrations.allocated_fast;
            migrations.allocated_slow += t.report.migrations.allocated_slow;
            migrations.failed_promotions += t.report.migrations.failed_promotions;
        }
        let aggregate = SimReport {
            workload: names.join("+"),
            policy: policies.join("+"),
            ops,
            accesses,
            samples,
            sim_ns,
            latency: LatencySummary::from_histogram(&merged_hist),
            timeline: Vec::new(),
            cache: None,
            migrations,
            fast_hit_frac: if accesses == 0 {
                0.0
            } else {
                fast_hits_weighted / accesses as f64
            },
            metadata_bytes,
        };

        MultiTenantReport {
            fast_budget_pages: self.cfg.fast_budget_pages,
            tenants: tenant_reports,
            rebalances: controller.events().to_vec(),
            churn,
            aggregate,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiering_mem::PageSize;
    use tiering_policies::{build_policy, PolicyKind};
    use tiering_workloads::ZipfPageWorkload;

    fn two_tenants(ops: u64) -> Vec<TenantRun> {
        vec![
            TenantRun::new(
                "hot",
                Box::new(ZipfPageWorkload::new(2_000, 0.99, ops, 7)),
                |cfg| build_policy(PolicyKind::HybridTier, cfg),
            ),
            TenantRun::new(
                "cool",
                // Uniform and slow: samples spread one-per-page and arrive
                // rarely, so almost nothing crosses the hotness threshold
                // and the demand signal stays near zero.
                Box::new(ZipfPageWorkload::new(4_000, 0.0, ops, 9).with_cpu_ns(2_000)),
                |cfg| build_policy(PolicyKind::HybridTier, cfg),
            ),
        ]
    }

    #[test]
    #[should_panic(expected = "rebalance interval must be positive")]
    fn zero_rebalance_interval_is_rejected() {
        let cfg = MultiTenantConfig {
            rebalance_interval_ns: 0,
            ..MultiTenantConfig::new(750)
        };
        let engine = MultiTenantEngine::new(SimConfig::default().with_max_ops(1_000), cfg);
        let _ = engine.run(two_tenants(1_000));
    }

    #[test]
    fn budget_is_partitioned_and_rebalanced() {
        let engine = MultiTenantEngine::new(
            SimConfig::default().with_max_ops(40_000),
            MultiTenantConfig::new(750).with_rebalance_interval_ns(2_000_000),
        );
        let r = engine.run(two_tenants(40_000)).unwrap();
        assert_eq!(r.tenants.len(), 2);
        assert!(!r.rebalances.is_empty(), "cadence must fire");
        for e in &r.rebalances {
            assert_eq!(e.assigned(), 750, "every rebalance assigns the budget");
        }
        assert_eq!(
            r.tenants[0].initial_quota_pages + r.tenants[1].initial_quota_pages,
            750
        );
        // Quota follows demand: whichever tenant demonstrated the larger
        // hot set at the final rebalance holds the larger quota. (Note a
        // highly skewed tenant legitimately demands *few* pages — its hot
        // set is small — so the invariant is demand-ordering, not skew.)
        let last = r.rebalances.last().expect("events");
        let hi = usize::from(last.demands[1] > last.demands[0]);
        assert!(
            last.quotas[hi] >= last.quotas[1 - hi],
            "quota must follow demand: {last:?}"
        );
        assert_eq!(r.tenants[0].final_quota_pages, last.quotas[0]);
        assert_eq!(r.aggregate.ops, 80_000);
        assert_eq!(
            r.aggregate.accesses,
            r.tenants.iter().map(|t| t.report.accesses).sum::<u64>()
        );
        let fairness = r.fairness_index();
        assert!((0.5..=1.0).contains(&fairness), "2-tenant Jain: {fairness}");
        // "hot" hits its op cap within a few simulated ms while "cool"
        // runs ~20x longer: once finished, "hot" must stop claiming its
        // frozen peak demand so the live tenant takes over the budget.
        assert!(
            r.tenants[0].report.sim_ns < r.tenants[1].report.sim_ns,
            "test premise: hot finishes first"
        );
        assert_eq!(
            last.demands[0], 1,
            "finished tenant's demand must drop to the idle floor: {last:?}"
        );
        assert_eq!(r.find("cool").unwrap().name, "cool");
        let traj = r.quota_trajectory(0);
        assert_eq!(traj.len(), r.rebalances.len() + 1);
        assert_eq!(traj[0], (0, r.tenants[0].initial_quota_pages));
    }

    #[test]
    fn single_tenant_colocation_matches_quota() {
        let engine = MultiTenantEngine::new(
            SimConfig::default().with_max_ops(5_000),
            MultiTenantConfig::new(500),
        );
        let r = engine
            .run(vec![TenantRun::new(
                "solo",
                Box::new(ZipfPageWorkload::new(1_000, 0.99, 5_000, 3)),
                |cfg| build_policy(PolicyKind::HybridTier, cfg),
            )])
            .unwrap();
        assert_eq!(r.tenants[0].initial_quota_pages, 500);
        assert!(r.tenants[0].final_fast_used <= 500);
        assert_eq!(r.quota_share(0), 1.0);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            MultiTenantEngine::new(
                SimConfig::default().with_max_ops(20_000),
                MultiTenantConfig::new(600).with_rebalance_interval_ns(3_000_000),
            )
            .run(two_tenants(20_000))
            .unwrap()
        };
        assert_eq!(run(), run());
    }

    /// A 3-tenant fleet with an arrive → depart → arrive-again schedule:
    /// the churn records seal the composition, departed tenants' pages are
    /// reclaimed (every rebalance still assigns the full budget over the
    /// live fleet), and the re-arrived name gets a fresh slot.
    #[test]
    fn churn_schedule_applies_and_conserves_the_budget() {
        let engine = MultiTenantEngine::new(
            SimConfig::default().with_max_ops(30_000),
            MultiTenantConfig::new(900).with_rebalance_interval_ns(1_000_000),
        );
        let mk_burst = || {
            TenantRun::new(
                "burst",
                Box::new(ZipfPageWorkload::new(1_000, 0.9, 30_000, 23)),
                |cfg| build_policy(PolicyKind::HybridTier, cfg),
            )
        };
        let schedule = ChurnSchedule::new()
            .depart(20_000, "burst")
            .arrive(45_000, mk_burst());
        let mut tenants = two_tenants(30_000);
        tenants.push(mk_burst());
        let r = engine.run_with_churn(tenants, schedule).unwrap();

        assert_eq!(r.tenants.len(), 4, "3 initial slots + 1 re-arrival slot");
        assert_eq!(r.churn.len(), 2, "both events fired");
        assert_eq!(r.churn[0].kind, ChurnKind::Departed);
        assert_eq!(r.churn[0].tenant, "burst");
        assert_eq!(r.churn[0].live_after, vec![true, true, false]);
        assert!(r.churn[0].at_fleet_ops <= r.churn[1].at_fleet_ops);
        assert_eq!(r.churn[1].kind, ChurnKind::Arrived);
        assert_eq!(r.churn[1].live_after, vec![true, true, false, true]);
        assert!(
            r.churn[1].at_ns > r.churn[0].at_ns,
            "depart before re-arrive"
        );

        // The departed slot stopped mid-run; the fresh slot ran after it.
        let departed = &r.tenants[2];
        assert_eq!(departed.departed_at_ns, Some(r.churn[0].at_ns));
        assert_eq!(departed.final_quota_pages, 0, "pages reclaimed");
        assert!(departed.report.ops < 30_000, "cut short by departure");
        let rearrived = &r.tenants[3];
        assert_eq!(rearrived.name, "burst");
        assert_eq!(rearrived.arrived_at_ns, r.churn[1].at_ns);
        assert_eq!(rearrived.initial_quota_pages, 1, "min-one admission");
        assert!(rearrived.report.ops > 0, "re-arrival actually ran");

        // Budget conservation at every rebalance, over whatever fleet was
        // live (the acceptance criterion).
        for e in &r.rebalances {
            assert_eq!(e.assigned(), 900, "budget leak at t={}", e.at_ns);
            for (i, &l) in e.live.iter().enumerate() {
                if !l {
                    assert_eq!(e.quotas[i], 0, "dead slot holds quota at t={}", e.at_ns);
                }
            }
        }
        // The re-arrival's trajectory starts at its arrival time.
        let traj = r.quota_trajectory(3);
        assert_eq!(traj[0], (r.churn[1].at_ns, 1));
        assert!(traj.last().expect("rebalances after arrival").1 >= 1);
        // Summary renders pre-arrival slots as `-` and lists churn.
        let s = r.summary();
        assert!(s.contains(" - "), "pre-arrival placeholder: {s}");
        assert!(s.contains("churn @"), "churn section present: {s}");
    }

    /// Churn thresholds the run never reaches do not fire, and the fleet
    /// still terminates.
    #[test]
    fn unreachable_churn_events_are_dropped() {
        let engine = MultiTenantEngine::new(
            SimConfig::default().with_max_ops(4_000),
            MultiTenantConfig::new(400),
        );
        let schedule = ChurnSchedule::new().arrive(
            u64::MAX,
            TenantRun::new(
                "never",
                Box::new(ZipfPageWorkload::new(500, 0.9, 1_000, 3)),
                |cfg| build_policy(PolicyKind::HybridTier, cfg),
            ),
        );
        let r = engine.run_with_churn(two_tenants(4_000), schedule).unwrap();
        assert_eq!(r.tenants.len(), 2, "unreachable arrival never joined");
        assert!(r.churn.is_empty());
    }

    /// Events fire independently of schedule order: a due departure listed
    /// *behind* an unreachable arrival must still be applied when its own
    /// threshold is crossed.
    #[test]
    fn due_events_fire_behind_unreached_ones() {
        let engine = MultiTenantEngine::new(
            SimConfig::default().with_max_ops(20_000),
            MultiTenantConfig::new(600).with_rebalance_interval_ns(2_000_000),
        );
        let schedule = ChurnSchedule::new()
            .arrive(
                u64::MAX,
                TenantRun::new(
                    "never",
                    Box::new(ZipfPageWorkload::new(500, 0.9, 1_000, 3)),
                    |cfg| build_policy(PolicyKind::HybridTier, cfg),
                ),
            )
            .depart(5_000, "hot");
        let r = engine
            .run_with_churn(two_tenants(20_000), schedule)
            .unwrap();
        assert_eq!(r.churn.len(), 1, "the due depart must fire");
        assert_eq!(r.churn[0].kind, ChurnKind::Departed);
        assert_eq!(r.churn[0].tenant, "hot");
        assert!(r.find("hot").unwrap().departed_at_ns.is_some());
        assert_eq!(r.tenants.len(), 2, "unreachable arrival never joined");
    }

    #[test]
    fn objective_is_recorded_in_events() {
        let engine = MultiTenantEngine::new(
            SimConfig::default().with_max_ops(10_000),
            MultiTenantConfig::new(500)
                .with_rebalance_interval_ns(2_000_000)
                .with_objective_kind(ObjectiveKind::MaxMin),
        );
        let r = engine.run(two_tenants(10_000)).unwrap();
        assert!(!r.rebalances.is_empty());
        assert!(r.rebalances.iter().all(|e| e.objective == "max-min"));
        assert!(r.rebalances.iter().all(|e| e.assigned() == 500));
    }

    #[test]
    fn footprint_panic_is_loud() {
        let engine = MultiTenantEngine::new(
            SimConfig {
                page_size: PageSize::Base4K,
                ..SimConfig::default()
            },
            MultiTenantConfig::new(100),
        );
        assert_eq!(engine.run(Vec::new()), Err(FleetError::NoTenants));
    }

    /// A departure that names no live tenant — never present, or already
    /// departed — is the caller's schedule being wrong, reported as such.
    #[test]
    fn unknown_departure_is_an_error() {
        let engine = MultiTenantEngine::new(
            SimConfig::default().with_max_ops(4_000),
            MultiTenantConfig::new(400).with_rebalance_interval_ns(1_000_000),
        );
        let never = ChurnSchedule::new().depart(100, "ghost");
        assert_eq!(
            engine.run_with_churn(two_tenants(4_000), never),
            Err(FleetError::UnknownDeparture {
                tenant: "ghost".into(),
                at_fleet_ops: 100,
            })
        );
        let twice = ChurnSchedule::new().depart(100, "hot").depart(200, "hot");
        let err = engine
            .run_with_churn(two_tenants(4_000), twice)
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            "depart of unknown live tenant hot (scheduled at 200 fleet ops)"
        );
    }

    /// The footprint meter at lane level: a tail tenant of the synthetic
    /// fleet (64 pages, 40 ops, 100–400 ns each) ends its run holding a few
    /// hundred histogram buckets, where the fixed-range histograms held
    /// 8 192 (64 KiB, 16× the tenant's CBF budget).
    #[test]
    fn tiny_lane_histograms_cost_what_they_record() {
        let engine = MultiTenantEngine::new(
            SimConfig::default().with_batch_ops(32),
            MultiTenantConfig::new(4).with_rebalance_interval_ns(200_000),
        );
        let mut controller = GlobalController::new(4, 0.25);
        let run = TenantRun::new(
            "tiny",
            Box::new(ZipfPageWorkload::new(64, 0.9, 40, 5)),
            |cfg| build_policy(PolicyKind::HybridTier, cfg),
        );
        controller.add_tenant(&run.name, 64);
        let mut lane = engine.lane(&controller, 0, run, 0);
        assert_eq!(lane.run.histogram_buckets(), 0, "nothing recorded yet");
        lane.run_until(u64::MAX);
        assert!(lane.finished());
        assert_eq!(lane.run.ops(), 40);
        let held = lane.run.histogram_buckets();
        assert!((1..1024).contains(&held), "{held} buckets allocated");
    }
}
