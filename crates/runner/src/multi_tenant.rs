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
//! # Lane lifecycle
//!
//! A tenant's policy and run exist only while it can step: an initial
//! tenant's are built right before its first step in round 1, an
//! arrival's at admission. A lane is *sealed* — report and final fast-tier
//! use kept, histogram folded into the fleet's, run dropped — right after
//! the step in which it finishes, or when a churn event departs it. So a
//! fleet whose tail finishes in its first step holds its hot tenants'
//! runs plus one at most. This is exact: no rebalance runs before round 1
//! ends, so a late build reads the quota an eager one would, and building
//! is pure; a finished or departed lane is never stepped, asked for demand
//! or re-capped again, and its final quota is read from the controller at
//! the end; histogram merge is per-bucket addition plus max, so merge
//! order does not matter; and reports stay in slot order.
//!
//! # Tenant churn
//!
//! Tenants arrive and leave mid-run. The spec's
//! [`ChurnSpec`](crate::ChurnSpec)s fire at **fleet op-count boundaries**:
//! once the fleet's cumulative completed operations cross an event's
//! threshold, the event is applied at the next round boundary (round
//! boundaries are the only points where the fleet's state is globally
//! consistent, and per-round op counts are batch-size invariant — so churn
//! is too). Events whose threshold the run never reaches do not fire.
//! Departing tenants stop executing and their fast pages are reclaimed into
//! the live budget immediately; arrivals are admitted under the
//! controller's min-one guarantee and earn their real share at the next
//! rebalance. Every applied event is sealed into the report as a
//! [`ChurnRecord`], so per-epoch fleet composition is reconstructible from
//! the result alone.

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

/// One tenant slot: `live` until the lane is sealed, `sealed` after.
struct Lane<'s> {
    name: &'s str,
    initial_quota: u64,
    /// Fleet time at which this lane joined (0 for initial tenants); its
    /// run's clock is local, offset by this.
    start_ns: u64,
    /// Fleet time the lane departed at, once a churn event removed it.
    departed_at_ns: Option<u64>,
    /// Boxed, so that a slot stays small.
    live: Option<Box<Live<'s>>>,
    /// The report and the fast pages the lane ended on.
    sealed: Option<(SimReport, u64)>,
}

/// A live lane's workload, policy and run.
struct Live<'s>(Box<dyn Workload>, Box<dyn TieringPolicy>, SimRun<'s>);

/// The lane table in slot order, and what sealed lanes fold into.
#[derive(Default)]
struct Lanes<'s> {
    slots: Vec<Lane<'s>>,
    hist: LogHistogram,
    live: usize,
    /// Most lanes live at once (the footprint meter).
    peak_live: usize,
}

impl<'s> Lanes<'s> {
    /// Appends the next slot's lane, built at its current quota.
    fn build(
        &mut self,
        sim: &'s SimConfig,
        controller: &GlobalController,
        tenant: &'s TenantSpec,
        workload: Box<dyn Workload>,
        start_ns: u64,
    ) {
        let tier_cfg = controller.tier_config(self.slots.len(), sim.page_size);
        let policy = tenant.policy.build(&tier_cfg);
        let topology = TierTopology::two_tier(tier_cfg, &sim.latency);
        let run = SimRun::new(sim, topology, policy.as_ref());
        self.slots.push(Lane {
            name: &tenant.name,
            initial_quota: tier_cfg.fast_capacity_pages,
            start_ns,
            departed_at_ns: None,
            live: Some(Box::new(Live(workload, policy, run))),
            sealed: None,
        });
        self.live += 1;
        self.peak_live = self.peak_live.max(self.live);
    }

    fn live(&mut self, slot: usize) -> &mut Live<'s> {
        self.slots[slot].live.as_mut().expect("active lane")
    }

    /// Steps `slot` to the **fleet** boundary `until_ns` and seals it if it
    /// finished; returns the ops it simulated.
    fn step(&mut self, slot: usize, until_ns: u64) -> u64 {
        let local_ns = until_ns.saturating_sub(self.slots[slot].start_ns);
        let Live(workload, policy, run) = self.live(slot);
        let ops = run.run_until(workload.as_mut(), policy.as_mut(), local_ns);
        self.seal(slot, false);
        ops
    }

    /// Seals `slot` if it is live and departing or finished; returns
    /// whether the lane is sealed.
    fn seal(&mut self, slot: usize, departing: bool) -> bool {
        let lane = &mut self.slots[slot];
        if let Some(live) = lane.live.take_if(|l| departing || l.2.finished()) {
            let Live(workload, policy, run) = *live;
            let fast_used = run.mem().fast_used();
            let report = run.finish(workload.name(), policy.as_ref(), &mut self.hist);
            lane.sealed = Some((report, fast_used));
            self.live -= 1;
        }
        lane.sealed.is_some()
    }
}

/// Runs `spec` to completion and seals the merged report, returned with
/// the most lanes live at once. Every tenant slot gets its own workload
/// seed: initial tenant `i` is built from `derive_seed(seed, i)`, the
/// arrival at churn position `j` from `derive_seed(seed, tenants.len() +
/// j)`. Every workload, arrivals included, is built before anything runs.
/// `sim` applies to every tenant's run (per-tenant op/time caps, batch
/// size, timeline window).
///
/// # Panics
///
/// Panics if the rebalance interval is 0: no round would ever end.
pub(crate) fn run(
    spec: &FleetSpec,
    sim: &SimConfig,
    seed: u64,
) -> Result<(MultiTenantReport, usize), ScenarioError> {
    let slot_seed = |slot: usize| derive_seed(seed, slot as u64);
    let workloads = spec
        .tenants
        .iter()
        .enumerate()
        .map(|(i, t)| t.workload.build(slot_seed(i)))
        .collect::<Result<Vec<_>, _>>()?;
    let mut pending = Vec::with_capacity(spec.churn.len());
    for (j, c) in spec.churn.iter().enumerate() {
        let event = match &c.action {
            ChurnAction::Arrive(t) => {
                Event::Arrive(t, t.workload.build(slot_seed(spec.tenants.len() + j))?)
            }
            ChurnAction::Depart(name) => Event::Depart(name),
        };
        pending.push((c.at_fleet_ops, event));
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

    let mut lanes = Lanes::default();
    // Initial tenant `i` is built when round 1 reaches slot `i`.
    let mut unbuilt = spec.tenants.iter().zip(workloads);
    let mut churn_records: Vec<ChurnRecord> = Vec::new();
    // Only lanes that can still step are visited, in slot order, so a
    // fleet whose tail finished early costs O(active) per round.
    let mut active: Vec<usize> = (0..spec.tenants.len()).collect();
    let mut fleet_ops = 0u64;

    let mut round_end = spec.rebalance_interval_ns;
    loop {
        for &i in &active {
            if i == lanes.slots.len() {
                let (t, w) = unbuilt.next().expect("round 1 visits every slot");
                lanes.build(sim, &controller, t, w, 0);
            }
            fleet_ops += lanes.step(i, round_end);
        }

        // Apply due churn events: the whole pending list is scanned every
        // round, so a due event fires behind a never-reached one; events
        // due in the same round apply in list order.
        let mut scan = 0;
        while scan < pending.len() {
            if pending[scan].0 > fleet_ops {
                scan += 1;
                continue;
            }
            let (at_ops, event) = pending.remove(scan);
            let (kind, tenant) = match event {
                Event::Depart(name) => {
                    let Some(slot) = lanes
                        .slots
                        .iter()
                        .position(|l| l.departed_at_ns.is_none() && l.name == name)
                    else {
                        return Err(ScenarioError::UnknownDeparture {
                            tenant: name.to_string(),
                            at_fleet_ops: at_ops,
                        });
                    };
                    lanes.slots[slot].departed_at_ns = Some(round_end);
                    lanes.seal(slot, true);
                    controller.retire_tenant(slot);
                    (ChurnKind::Departed, name.to_string())
                }
                Event::Arrive(t, workload) => {
                    let slot = controller.admit_tenant(&t.name, footprint(workload.as_ref()));
                    debug_assert_eq!(slot, lanes.slots.len(), "slots track lanes");
                    lanes.build(sim, &controller, t, workload, round_end);
                    active.push(slot);
                    (ChurnKind::Arrived, t.name.clone())
                }
            };
            // No re-cap here: the quotas this event moved reach the live
            // lanes at the round-end re-cap below, and no call in between
            // (`seal`, `fast_demand_pages`, `update_demand`,
            // `rebalance_dirty`) reads a capacity.
            churn_records.push(ChurnRecord {
                at_ns: round_end,
                at_fleet_ops: at_ops,
                kind,
                tenant,
                live_after: controller.live_mask(),
            });
        }

        // A finished tenant's policy state is frozen at peak, so its
        // demand would squeeze the running tenants forever: it reports
        // zero once, leaving `active`, and the controller floors that to
        // the idle share for good (departed slots are dead and ignore it).
        // The seal here catches only an arrival capped at admission.
        active.retain(|&i| {
            let sealed = lanes.seal(i, false);
            if sealed {
                controller.update_demand(i, 0);
            }
            !sealed
        });
        if active.is_empty() {
            break;
        }
        for &i in &active {
            let Live(_, policy, run) = lanes.live(i);
            controller.update_demand(i, policy.fast_demand_pages(run.mem()));
        }
        controller.rebalance_dirty(round_end);
        for &i in &active {
            lanes.live(i).2.set_fast_capacity(controller.quota(i));
        }
        round_end += spec.rebalance_interval_ns;
    }

    let peak_live = lanes.peak_live;
    Ok((seal(budget, controller, lanes, churn_records), peak_live))
}

/// Merges the sealed lanes into the final report.
fn seal(
    fast_budget_pages: u64,
    controller: GlobalController,
    lanes: Lanes<'_>,
    churn: Vec<ChurnRecord>,
) -> MultiTenantReport {
    let mut tenant_reports = Vec::with_capacity(lanes.slots.len());
    for (i, lane) in lanes.slots.into_iter().enumerate() {
        let (report, final_fast_used) = lane.sealed.expect("a lane leaves `active` sealed");
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
    let joined = |f: fn(&TenantReport) -> &str| {
        let parts: Vec<_> = tenant_reports.iter().map(f).collect();
        parts.join("+")
    };
    let aggregate = SimReport {
        workload: joined(|t| &t.name),
        policy: joined(|t| &t.report.policy),
        ops,
        accesses,
        samples,
        sim_ns,
        latency: LatencySummary::from_histogram(&lanes.hist),
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

    /// A tenant that finished and is departed in a later round: its
    /// departure is stamped with that round's end, and its report is the
    /// one the same fleet gives it when nobody departs it.
    #[test]
    fn departing_a_finished_tenant_keeps_its_report() {
        let sim = SimConfig::default().with_max_ops(30_000);
        let spec = |churn| {
            let tenants = vec![
                tenant(
                    "short",
                    |ops| ZipfPageWorkload::new(500, 0.9, ops, 5),
                    2_000,
                ),
                two_tenants(30_000).remove(1),
            ];
            fleet(tenants, 500)
                .with_rebalance_interval_ns(1_000_000)
                .with_churn(churn)
        };
        let kept = run(spec(Vec::new()), &sim);
        let r = run(spec(vec![ChurnSpec::depart(10_000, "short")]), &sim);
        let (before, after) = (&kept.tenants[0], &r.tenants[0]);
        assert_eq!(r.churn.len(), 1);
        assert_eq!(r.churn[0].kind, ChurnKind::Departed);
        let at_ns = r.churn[0].at_ns;
        assert_eq!(at_ns % 1_000_000, 0, "departures land on a round end");
        assert!(
            after.report.sim_ns + 1_000_000 <= at_ns,
            "test premise: finished a round or more before it departed"
        );
        assert_eq!(after.departed_at_ns, Some(at_ns));
        assert_eq!(after.final_quota_pages, 0, "pages reclaimed");
        assert_eq!(after.report, before.report);
        assert_eq!(after.final_fast_used, before.final_fast_used);
        assert_eq!(before.departed_at_ns, None);
    }

    /// The footprint meter: the synthetic fleet's tail tenants finish in
    /// their first step, so at most its 16 hot lanes plus the tail lane
    /// being stepped are live at once, whatever the tail's length. Lanes
    /// built up front and sealed at the end would read `n + 1`.
    #[test]
    fn synthetic_fleet_holds_only_the_lanes_that_can_step() {
        let sim = SimConfig::default().with_batch_ops(32).with_max_ops(5_000);
        for n in [200, 2_000] {
            let spec = Scenario::synthetic_fleet_spec(n);
            let (report, peak_live) = super::run(&spec, &sim, 7).expect("fleet runs");
            assert_eq!(report.tenants.len(), n + 1, "n initial tenants + 1 arrival");
            assert_eq!(report.churn.len(), 2, "depart + arrive");
            assert_eq!(peak_live, 17, "n = {n}");
        }
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
