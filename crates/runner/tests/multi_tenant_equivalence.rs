//! The co-location analogue of `tiering_sim`'s `batch_equivalence`: for
//! fixed seeds, a multi-tenant run produces a **byte-identical**
//! [`MultiTenantReport`] at any batch size. This holds because tenants are
//! only batch-pulled while time-independent, a rebalance only resizes
//! memory (never the workload), and pulled-but-unconsumed ops suspended at
//! a rebalance boundary resume unchanged afterwards. The controller mode
//! is held to the same standard: it shapes the rebalance events and
//! nothing else.

use tiering_policies::{ControllerMode, ObjectiveKind, PolicyKind, RebalanceEvent};
use tiering_runner::{
    BudgetSpec, ChurnSpec, FleetSpec, PolicySpec, Scenario, ScenarioKind, TenantSpec, WorkloadSpec,
};
use tiering_sim::{MultiTenantReport, SimConfig};
use tiering_workloads::ZipfPageWorkload;

/// A tenant whose workload ignores the slot seed, so its stream is fixed
/// by the recipe alone.
fn tenant<F>(name: &str, kind: PolicyKind, build: F) -> TenantSpec
where
    F: Fn() -> ZipfPageWorkload + Send + Sync + 'static,
{
    TenantSpec::new(
        name,
        WorkloadSpec::custom(name, move |_| Box::new(build())),
        PolicySpec::Kind(kind),
    )
}

fn tenants(ops: u64) -> Vec<TenantSpec> {
    vec![
        tenant("cache", PolicyKind::HybridTier, move || {
            // The shift keeps this tenant time-sensitive (single-op pulls)
            // early on and batchable afterwards, covering both pull modes
            // across rebalance boundaries.
            ZipfPageWorkload::new(2_000, 0.99, ops, 11).with_shift(6_000_000, 0.8)
        }),
        tenant("batch", PolicyKind::HybridTier, move || {
            ZipfPageWorkload::new(6_000, 0.2, ops, 13)
                .with_cpu_ns(900)
                .with_wakeup(9_000_000, 1.1, 50)
        }),
        // A fault-driven policy exercises the on_access batch path too.
        tenant("faulty", PolicyKind::Tpp, move || {
            ZipfPageWorkload::new(1_500, 0.8, ops, 17)
        }),
    ]
}

/// The fleet's report at `batch_ops` ops per pull, every tenant capped at
/// `ops` operations.
fn run_fleet(spec: FleetSpec, batch_ops: usize, ops: u64) -> MultiTenantReport {
    let sim = SimConfig::default()
        .with_max_ops(ops)
        .with_batch_ops(batch_ops);
    let result = Scenario::fleet("equivalence", spec, &sim, 0).run();
    result.multi.expect("fleet detail")
}

fn fleet(ops: u64) -> FleetSpec {
    FleetSpec::new(tenants(ops))
        .with_budget(BudgetSpec::Pages(1_200))
        .with_floor_frac(0.1)
        .with_rebalance_interval_ns(2_000_000)
}

fn run(batch_ops: usize, ops: u64) -> MultiTenantReport {
    run_fleet(fleet(ops), batch_ops, ops)
}

/// Field-by-field assertion so a regression names the diverging tenant and
/// field instead of dumping two full reports.
fn assert_identical(a: &MultiTenantReport, b: &MultiTenantReport, what: &str) {
    assert_eq!(a.churn, b.churn, "{what}: churn trace");
    assert_eq!(a.rebalances, b.rebalances, "{what}: rebalance trace");
    assert_eq!(a.tenants.len(), b.tenants.len(), "{what}: tenant count");
    for (ta, tb) in a.tenants.iter().zip(&b.tenants) {
        let name = &ta.name;
        assert_eq!(ta.report.ops, tb.report.ops, "{what}/{name}: ops");
        assert_eq!(ta.report.sim_ns, tb.report.sim_ns, "{what}/{name}: sim_ns");
        assert_eq!(
            ta.report.migrations, tb.report.migrations,
            "{what}/{name}: migrations"
        );
        assert_eq!(ta, tb, "{what}/{name}: full tenant report");
    }
    assert_eq!(a.aggregate, b.aggregate, "{what}: aggregate");
    assert_eq!(a, b, "{what}: full report");
}

/// Batch size is purely a host-performance knob for co-located runs too:
/// scalar (1), odd, default, and huge batches all produce one report.
#[test]
fn colocated_run_is_batch_size_invariant() {
    let scalar = run(1, 60_000);
    assert!(
        !scalar.rebalances.is_empty(),
        "test must cross rebalance boundaries to be meaningful"
    );
    for batch_ops in [2, 7, 64, 1024] {
        let batched = run(batch_ops, 60_000);
        assert_identical(&scalar, &batched, &format!("batch_ops={batch_ops}"));
    }
}

/// Suspending a tenant mid-batch at a rebalance boundary must not lose or
/// duplicate operations: total ops equal the per-tenant caps exactly.
#[test]
fn no_ops_lost_across_rebalance_boundaries() {
    let r = run(64, 30_000);
    for t in &r.tenants {
        assert_eq!(
            t.report.ops, 30_000,
            "{}: ops dropped or duplicated",
            t.name
        );
    }
    assert_eq!(r.aggregate.ops, 90_000);
}

/// The churn analogue of `run`: the 3-tenant fleet plus an
/// arrive → depart → arrive-again schedule for the `batch` tenant, under a
/// non-default objective (so objective-specific quota paths are covered
/// too).
fn run_churn(batch_ops: usize, ops: u64) -> MultiTenantReport {
    let late = || {
        tenant("late", PolicyKind::HybridTier, move || {
            ZipfPageWorkload::new(2_500, 0.9, ops, 29).with_cpu_ns(400)
        })
    };
    let spec = fleet(ops)
        .with_churn(vec![
            ChurnSpec::arrive(15_000, late()),
            ChurnSpec::depart(40_000, "late"),
            ChurnSpec::arrive(70_000, late()),
        ])
        .with_objective_kind(ObjectiveKind::MaxMin);
    run_fleet(spec, batch_ops, ops)
}

/// Churn timing rides fleet op counts observed at round boundaries, which
/// are batch-size invariant — so an arrive/depart/arrive-again fleet run
/// produces one byte-identical report (churn records, rebalance trace,
/// per-tenant results) at every batch size.
#[test]
fn churn_fleet_run_is_batch_size_invariant() {
    let scalar = run_churn(1, 40_000);
    assert_eq!(
        scalar.churn.len(),
        3,
        "test must apply the whole arrive/depart/arrive-again schedule to be meaningful"
    );
    assert!(
        !scalar.rebalances.is_empty(),
        "test must cross rebalance boundaries to be meaningful"
    );
    assert_eq!(scalar.tenants.len(), 5, "3 initial + 2 arrival slots");
    for batch_ops in [2, 7, 64, 1024] {
        let batched = run_churn(batch_ops, 40_000);
        assert_identical(&scalar, &batched, &format!("churn batch_ops={batch_ops}"));
    }
}

/// Departure cuts a tenant short; the rest still complete their caps, and
/// every rebalance in the churned run assigns the whole budget over the
/// live fleet.
#[test]
fn churned_fleet_conserves_ops_and_budget() {
    let r = run_churn(64, 40_000);
    for t in &r.tenants {
        if t.departed_at_ns.is_some() {
            assert!(t.report.ops < 40_000, "{}: departed but ran to cap", t.name);
        }
    }
    for name in ["cache", "batch", "faulty"] {
        assert_eq!(r.find(name).expect(name).report.ops, 40_000, "{name}");
    }
    for e in &r.rebalances {
        assert_eq!(e.assigned(), 1_200, "budget leak at t={}", e.at_ns);
    }
}

/// `ControllerMode` shapes only the rebalance events: over the churn demo
/// under every objective, `FullScan` and `Incremental` runs produce the
/// same tenants, churn records and aggregate, and their events differ only
/// in the three per-slot vectors (`live`, `demands`, `quotas`), which the
/// compact events leave empty.
#[test]
fn controller_mode_changes_only_the_event_vectors() {
    let sim = SimConfig::default().with_max_sim_ns(80_000_000);
    for objective in ObjectiveKind::ALL {
        let run = |mode| {
            let mut scenario = Scenario::fleet_churn_demo(objective, &sim, 21);
            let ScenarioKind::Fleet(spec) = &mut scenario.kind else {
                unreachable!("the churn demo is a fleet");
            };
            spec.controller_mode = mode;
            scenario.run().multi.expect("fleet detail")
        };
        let full = run(ControllerMode::FullScan);
        let compact = run(ControllerMode::Incremental);
        assert_eq!(full.churn.len(), 2, "{objective:?}: both churn events fire");
        assert!(!full.rebalances.is_empty(), "{objective:?}: cadence fires");

        assert_eq!(full.fast_budget_pages, compact.fast_budget_pages);
        assert_eq!(full.tenants, compact.tenants, "{objective:?}: tenants");
        assert_eq!(full.churn, compact.churn, "{objective:?}: churn records");
        assert_eq!(
            full.aggregate, compact.aggregate,
            "{objective:?}: aggregate"
        );
        assert_eq!(full.rebalances.len(), compact.rebalances.len());
        for (f, c) in full.rebalances.iter().zip(&compact.rebalances) {
            assert_eq!(f.live.len(), f.quotas.len(), "{objective:?}: full event");
            assert_eq!(f.assigned(), full.fast_budget_pages, "{objective:?}");
            let without_vectors = RebalanceEvent {
                live: Vec::new(),
                demands: Vec::new(),
                quotas: Vec::new(),
                ..f.clone()
            };
            assert_eq!(without_vectors, *c, "{objective:?}: event at {}", f.at_ns);
        }
    }
}
