//! Co-located tenants over one physical fast tier (paper §7): the round
//! loop behind [`ScenarioKind::Fleet`](crate::ScenarioKind::Fleet).
//!
//! A [`FleetSpec`] runs N tenants — each an ordinary (workload, policy)
//! pair with its own [`SimRun`], the run handle the single-tenant
//! [`Engine`](tiering_sim::Engine) drives too — against one shared
//! fast-tier budget partitioned by a [`GlobalController`]. Execution is
//! round-based:
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
//! and leave mid-run. The spec's [`ChurnSpec`](crate::ChurnSpec)s fire at
//! **fleet op-count boundaries**: once the fleet's cumulative completed
//! operations cross an event's threshold, the event is applied at the next
//! round boundary (round boundaries are the only points where the fleet's
//! state is globally consistent, and per-round op counts are batch-size
//! invariant — so churn is too). Events due in the same round apply in list
//! order; events whose threshold the run never reaches do not fire.
//! Departing tenants stop executing and their fast pages are reclaimed into
//! the live budget immediately; arrivals are admitted under the
//! controller's min-one guarantee and earn their real share at the next
//! rebalance. Every applied event is sealed into the report as a
//! [`ChurnRecord`], so per-epoch fleet composition is reconstructible from
//! the result alone.

use std::collections::VecDeque;

use tiering_mem::TierTopology;
use tiering_policies::{GlobalController, TieringPolicy};
use tiering_sim::{
    ChurnKind, ChurnRecord, LatencySummary, LogHistogram, MultiTenantReport, SimConfig, SimReport,
    SimRun, TenantReport,
};
use tiering_trace::Workload;

use crate::derive_seed;
use crate::scenario::{ChurnAction, FleetSpec, ScenarioError, TenantSpec};

/// A scheduled churn event, its arrival's workload already built.
enum Event<'s> {
    Arrive(&'s TenantSpec, Box<dyn Workload>),
    Depart(&'s str),
}

/// One tenant's live execution state.
struct Lane<'s> {
    name: &'s str,
    workload: Box<dyn Workload>,
    policy: Box<dyn TieringPolicy>,
    run: SimRun<'s>,
    initial_quota: u64,
    /// Fleet time at which this lane joined (0 for initial tenants). The
    /// lane's run clock is local — fleet boundaries are translated by this
    /// offset.
    start_ns: u64,
    /// Fleet time the lane departed at, once a churn event removed it.
    departed_at_ns: Option<u64>,
    /// Ops already folded into the running fleet total, so the per-round
    /// fleet op count is an `O(active)` delta accumulation instead of an
    /// `O(tenants)` re-sum.
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

/// Runs `spec` to completion and seals the merged report. Every tenant
/// slot gets its own workload seed: initial tenant `i` is built from
/// `derive_seed(seed, i)`, the arrival at churn position `j` from
/// `derive_seed(seed, tenants.len() + j)`. Every workload, arrivals
/// included, is built before anything runs. `sim` applies to every
/// tenant's run (per-tenant op/time caps, batch size, timeline window).
///
/// # Panics
///
/// Panics if the rebalance interval is 0: no round would ever end.
pub(crate) fn run(
    spec: &FleetSpec,
    sim: &SimConfig,
    seed: u64,
) -> Result<MultiTenantReport, ScenarioError> {
    let slot_seed = |slot: usize| derive_seed(seed, slot as u64);
    let workloads = spec
        .tenants
        .iter()
        .enumerate()
        .map(|(i, t)| t.workload.build(slot_seed(i)))
        .collect::<Result<Vec<_>, _>>()?;
    let mut pending = VecDeque::with_capacity(spec.churn.len());
    for (j, c) in spec.churn.iter().enumerate() {
        let event = match &c.action {
            ChurnAction::Arrive(t) => {
                Event::Arrive(t, t.workload.build(slot_seed(spec.tenants.len() + j))?)
            }
            ChurnAction::Depart(name) => Event::Depart(name),
        };
        pending.push_back((c.at_fleet_ops, event));
    }
    assert!(
        spec.rebalance_interval_ns > 0,
        "rebalance interval must be positive"
    );
    if spec.tenants.is_empty() {
        return Err(ScenarioError::NoTenants);
    }

    let footprint = |w: &dyn Workload| w.footprint_pages(sim.page_size);
    let arrivals = pending.iter().filter_map(|(_, e)| match e {
        Event::Arrive(_, w) => Some(w.as_ref()),
        Event::Depart(_) => None,
    });
    let combined: u64 = workloads
        .iter()
        .map(|w| w.as_ref())
        .chain(arrivals.clone())
        .map(footprint)
        .sum();
    let slots = workloads.len() + arrivals.count();
    // Sized for every slot the recipe can ever admit, so churn never
    // pushes the budget below the min-one guarantee.
    let budget = spec.budget.resolve(combined, slots);
    let mut controller = GlobalController::new(budget, spec.floor_frac)
        .with_objective_kind(spec.objective)
        .with_mode(spec.controller_mode);
    for (t, w) in spec.tenants.iter().zip(&workloads) {
        controller.add_tenant(&t.name, footprint(w.as_ref()));
    }

    // Sized once for every slot the run can create: a `Lane` is over
    // 2 KiB, so one arrival doubling a 5 000-lane table is a 32 MiB
    // transient.
    let mut lanes: Vec<Lane<'_>> = Vec::with_capacity(slots);
    lanes.extend(
        spec.tenants
            .iter()
            .zip(workloads)
            .enumerate()
            .map(|(i, (t, w))| lane(sim, &controller, i, t, w, 0)),
    );
    let mut churn_records: Vec<ChurnRecord> = Vec::new();

    // Active-set iteration: only lanes that can still make progress
    // are visited per round, so a fleet where most tenants finished
    // early (the synthetic large-fleet shape) costs O(active) per
    // round, not O(tenants). Registration order is preserved —
    // `retain` keeps relative order — so stepping order, and with it
    // every report bit, is unchanged.
    let mut active: Vec<usize> = (0..lanes.len()).collect();
    let mut fleet_ops = 0u64;

    let mut round_end = spec.rebalance_interval_ns;
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
                Event::Depart(name) => {
                    let Some(slot) = lanes
                        .iter()
                        .position(|l| l.departed_at_ns.is_none() && l.name == name)
                    else {
                        return Err(ScenarioError::UnknownDeparture {
                            tenant: name.to_string(),
                            at_fleet_ops: at_ops,
                        });
                    };
                    lanes[slot].departed_at_ns = Some(round_end);
                    controller.retire_tenant(slot);
                    (ChurnKind::Departed, name.to_string())
                }
                Event::Arrive(t, workload) => {
                    let slot = controller.admit_tenant(&t.name, footprint(workload.as_ref()));
                    let lane = lane(sim, &controller, slot, t, workload, round_end);
                    debug_assert_eq!(slot, lanes.len(), "slots track lanes");
                    debug_assert!(lanes.len() < lanes.capacity(), "lane table sized once");
                    lanes.push(lane);
                    active.push(slot);
                    (ChurnKind::Arrived, t.name.clone())
                }
            };
            // No re-cap here: the quotas this event moved reach the
            // lanes at the round-end re-cap below, and nothing can see
            // the difference. No lane runs before it; the calls in
            // between (`finished`, `fast_demand_pages`, `update_demand`,
            // `rebalance_dirty`) read occupancy or a policy's histogram,
            // never a capacity; and a lane that leaves `active` never
            // runs again, while no report field reads its capacity.
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
        round_end += spec.rebalance_interval_ns;
    }

    Ok(seal(budget, controller, lanes, churn_records))
}

/// Builds one tenant's lane at its controller-assigned initial quota.
fn lane<'s>(
    sim: &'s SimConfig,
    controller: &GlobalController,
    slot: usize,
    tenant: &'s TenantSpec,
    workload: Box<dyn Workload>,
    start_ns: u64,
) -> Lane<'s> {
    let tier_cfg = controller.tier_config(slot, sim.page_size);
    let policy = tenant.policy.build(&tier_cfg);
    Lane {
        name: &tenant.name,
        workload,
        run: SimRun::new(
            sim,
            TierTopology::two_tier(tier_cfg, &sim.latency),
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
    fast_budget_pages: u64,
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
        names.push(lane.name);
        policies.push(report.policy.clone());
        tenant_reports.push(TenantReport {
            name: lane.name.to_string(),
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
        fast_budget_pages,
        tenants: tenant_reports,
        rebalances: controller.events().to_vec(),
        churn,
        aggregate,
    }
}

#[cfg(test)]
mod tests {
    use tiering_mem::PageSize;
    use tiering_policies::{ObjectiveKind, PolicyKind};
    use tiering_workloads::ZipfPageWorkload;

    use super::*;
    use crate::{BudgetSpec, ChurnSpec, PolicySpec, Scenario, WorkloadSpec};

    /// A tenant whose workload ignores the slot seed, so its stream is
    /// fixed by the recipe alone.
    fn tenant(name: &str, build: fn(u64) -> ZipfPageWorkload, ops: u64) -> TenantSpec {
        TenantSpec::new(
            name,
            WorkloadSpec::custom(name, move |_| Box::new(build(ops))),
            PolicySpec::Kind(PolicyKind::HybridTier),
        )
    }

    fn two_tenants(ops: u64) -> Vec<TenantSpec> {
        vec![
            tenant("hot", |ops| ZipfPageWorkload::new(2_000, 0.99, ops, 7), ops),
            // Uniform and slow: samples spread one-per-page and arrive
            // rarely, so almost nothing crosses the hotness threshold and
            // the demand signal stays near zero.
            tenant(
                "cool",
                |ops| ZipfPageWorkload::new(4_000, 0.0, ops, 9).with_cpu_ns(2_000),
                ops,
            ),
        ]
    }

    /// A fleet of `tenants` sharing `budget_pages` under the demo defaults.
    fn fleet(tenants: Vec<TenantSpec>, budget_pages: u64) -> FleetSpec {
        FleetSpec::new(tenants).with_budget(BudgetSpec::Pages(budget_pages))
    }

    fn try_run(spec: FleetSpec, sim: &SimConfig) -> Result<MultiTenantReport, ScenarioError> {
        let result = Scenario::fleet("test", spec, sim, 0).try_run()?;
        Ok(result.multi.expect("fleet detail"))
    }

    fn run(spec: FleetSpec, sim: &SimConfig) -> MultiTenantReport {
        try_run(spec, sim).unwrap_or_else(|e| panic!("{e}"))
    }

    #[test]
    #[should_panic(expected = "rebalance interval must be positive")]
    fn zero_rebalance_interval_is_rejected() {
        let spec = fleet(two_tenants(1_000), 750).with_rebalance_interval_ns(0);
        run(spec, &SimConfig::default().with_max_ops(1_000));
    }

    #[test]
    fn budget_is_partitioned_and_rebalanced() {
        let spec = fleet(two_tenants(40_000), 750).with_rebalance_interval_ns(2_000_000);
        let r = run(spec, &SimConfig::default().with_max_ops(40_000));
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
        let solo = tenant(
            "solo",
            |ops| ZipfPageWorkload::new(1_000, 0.99, ops, 3),
            5_000,
        );
        let r = run(
            fleet(vec![solo], 500),
            &SimConfig::default().with_max_ops(5_000),
        );
        assert_eq!(r.tenants[0].initial_quota_pages, 500);
        assert!(r.tenants[0].final_fast_used <= 500);
        assert_eq!(r.quota_share(0), 1.0);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let spec = fleet(two_tenants(20_000), 600).with_rebalance_interval_ns(3_000_000);
            run(spec, &SimConfig::default().with_max_ops(20_000))
        };
        assert_eq!(run(), run());
    }

    /// A 3-tenant fleet with an arrive → depart → arrive-again schedule:
    /// the churn records seal the composition, departed tenants' pages are
    /// reclaimed (every rebalance still assigns the full budget over the
    /// live fleet), and the re-arrived name gets a fresh slot.
    #[test]
    fn churn_schedule_applies_and_conserves_the_budget() {
        let burst = || {
            tenant(
                "burst",
                |ops| ZipfPageWorkload::new(1_000, 0.9, ops, 23),
                30_000,
            )
        };
        let mut tenants = two_tenants(30_000);
        tenants.push(burst());
        let spec = fleet(tenants, 900)
            .with_rebalance_interval_ns(1_000_000)
            .with_churn(vec![
                ChurnSpec::depart(20_000, "burst"),
                ChurnSpec::arrive(45_000, burst()),
            ]);
        let r = run(spec, &SimConfig::default().with_max_ops(30_000));

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

    /// An arrival that can never fire: its threshold is out of reach.
    fn never() -> ChurnSpec {
        let never = tenant(
            "never",
            |ops| ZipfPageWorkload::new(500, 0.9, ops, 3),
            1_000,
        );
        ChurnSpec::arrive(u64::MAX, never)
    }

    /// Churn thresholds the run never reaches do not fire, and the fleet
    /// still terminates.
    #[test]
    fn unreachable_churn_events_are_dropped() {
        let spec = fleet(two_tenants(4_000), 400).with_churn(vec![never()]);
        let r = run(spec, &SimConfig::default().with_max_ops(4_000));
        assert_eq!(r.tenants.len(), 2, "unreachable arrival never joined");
        assert!(r.churn.is_empty());
    }

    /// Events fire independently of schedule order: a due departure listed
    /// *behind* an unreachable arrival must still be applied when its own
    /// threshold is crossed.
    #[test]
    fn due_events_fire_behind_unreached_ones() {
        let spec = fleet(two_tenants(20_000), 600)
            .with_rebalance_interval_ns(2_000_000)
            .with_churn(vec![never(), ChurnSpec::depart(5_000, "hot")]);
        let r = run(spec, &SimConfig::default().with_max_ops(20_000));
        assert_eq!(r.churn.len(), 1, "the due depart must fire");
        assert_eq!(r.churn[0].kind, ChurnKind::Departed);
        assert_eq!(r.churn[0].tenant, "hot");
        assert!(r.find("hot").unwrap().departed_at_ns.is_some());
        assert_eq!(r.tenants.len(), 2, "unreachable arrival never joined");
    }

    #[test]
    fn objective_is_recorded_in_events() {
        let spec = fleet(two_tenants(10_000), 500)
            .with_rebalance_interval_ns(2_000_000)
            .with_objective_kind(ObjectiveKind::MaxMin);
        let r = run(spec, &SimConfig::default().with_max_ops(10_000));
        assert!(!r.rebalances.is_empty());
        assert!(r.rebalances.iter().all(|e| e.objective == "max-min"));
        assert!(r.rebalances.iter().all(|e| e.assigned() == 500));
    }

    #[test]
    fn footprint_panic_is_loud() {
        let sim = SimConfig {
            page_size: PageSize::Base4K,
            ..SimConfig::default()
        };
        let empty = try_run(fleet(Vec::new(), 100), &sim);
        assert!(matches!(empty, Err(ScenarioError::NoTenants)), "{empty:?}");
    }

    /// A departure that names no live tenant — never present, or already
    /// departed — is the caller's schedule being wrong, reported as such.
    #[test]
    fn unknown_departure_is_an_error() {
        let sim = SimConfig::default().with_max_ops(4_000);
        let spec = |churn| {
            fleet(two_tenants(4_000), 400)
                .with_rebalance_interval_ns(1_000_000)
                .with_churn(churn)
        };
        let ghost = try_run(spec(vec![ChurnSpec::depart(100, "ghost")]), &sim);
        assert!(
            matches!(
                &ghost,
                Err(ScenarioError::UnknownDeparture { tenant, at_fleet_ops: 100 })
                    if tenant == "ghost"
            ),
            "{ghost:?}"
        );
        let twice = vec![ChurnSpec::depart(100, "hot"), ChurnSpec::depart(200, "hot")];
        let err = try_run(spec(twice), &sim).unwrap_err();
        assert_eq!(
            err.to_string(),
            "depart of unknown live tenant hot (scheduled at 200 fleet ops)"
        );
    }
}
