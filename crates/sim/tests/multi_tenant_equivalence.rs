//! The co-location analogue of `batch_equivalence`: for fixed seeds, a
//! multi-tenant run produces a **byte-identical** [`MultiTenantReport`] at
//! any batch size. This holds because tenants are only batch-pulled while
//! time-independent, a rebalance only resizes memory (never the workload),
//! and pulled-but-unconsumed ops suspended at a rebalance boundary resume
//! unchanged afterwards.

use tiering_policies::{build_policy, ObjectiveKind, PolicyKind};
use tiering_sim::{
    ChurnSchedule, MultiTenantConfig, MultiTenantEngine, MultiTenantReport, SimConfig, TenantRun,
};
use tiering_workloads::ZipfPageWorkload;

fn tenants(ops: u64) -> Vec<TenantRun> {
    vec![
        TenantRun::new(
            "cache",
            // The shift keeps this tenant time-sensitive (single-op pulls)
            // early on and batchable afterwards, covering both pull modes
            // across rebalance boundaries.
            Box::new(ZipfPageWorkload::new(2_000, 0.99, ops, 11).with_shift(6_000_000, 0.8)),
            |cfg| build_policy(PolicyKind::HybridTier, cfg),
        ),
        TenantRun::new(
            "batch",
            Box::new(
                ZipfPageWorkload::new(6_000, 0.2, ops, 13)
                    .with_cpu_ns(900)
                    .with_wakeup(9_000_000, 1.1, 50),
            ),
            |cfg| build_policy(PolicyKind::HybridTier, cfg),
        ),
        TenantRun::new(
            "faulty",
            // A fault-driven policy exercises the on_access batch path too.
            Box::new(ZipfPageWorkload::new(1_500, 0.8, ops, 17)),
            |cfg| build_policy(PolicyKind::Tpp, cfg),
        ),
    ]
}

fn run(batch_ops: usize, ops: u64) -> MultiTenantReport {
    let sim = SimConfig::default()
        .with_max_ops(ops)
        .with_batch_ops(batch_ops);
    MultiTenantEngine::new(
        sim,
        MultiTenantConfig::new(1_200)
            .with_floor_frac(0.1)
            .with_rebalance_interval_ns(2_000_000),
    )
    .run(tenants(ops))
    .expect("a two-tenant fleet")
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
    let sim = SimConfig::default()
        .with_max_ops(ops)
        .with_batch_ops(batch_ops);
    let mk_late = || {
        TenantRun::new(
            "late",
            Box::new(ZipfPageWorkload::new(2_500, 0.9, ops, 29).with_cpu_ns(400)),
            |cfg| build_policy(PolicyKind::HybridTier, cfg),
        )
    };
    let schedule = ChurnSchedule::new()
        .arrive(15_000, mk_late())
        .depart(40_000, "late")
        .arrive(70_000, mk_late());
    MultiTenantEngine::new(
        sim,
        MultiTenantConfig::new(1_200)
            .with_floor_frac(0.1)
            .with_rebalance_interval_ns(2_000_000)
            .with_objective_kind(ObjectiveKind::MaxMin),
    )
    .run_with_churn(tenants(ops), schedule)
    .expect("the schedule departs live tenants only")
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
