//! Co-location and dynamic fleets as sweep dimensions must behave exactly
//! like single scenarios under the parallel driver: serial ≡ parallel,
//! order independent, and per-tenant seeds stable — including
//! arrive/depart/arrive-again churn schedules under every quota
//! objective.

use tiering_mem::TierRatio;
use tiering_policies::{ObjectiveKind, PolicyKind};
use tiering_runner::{
    BudgetSpec, ChurnSpec, CoLocationMatrix, FleetMatrix, Scenario, SweepRunner, TenantSpec,
    WorkloadSpec,
};
use tiering_sim::SimConfig;
use tiering_workloads::{WorkloadId, ZipfPageWorkload};

fn colocation_matrix() -> Vec<Scenario> {
    let hot = |name: &str| {
        TenantSpec::new(
            name,
            WorkloadSpec::custom("zipf-hot", |seed| {
                Box::new(ZipfPageWorkload::new(1_500, 0.99, 12_000, seed))
            }),
            tiering_runner::PolicySpec::Kind(PolicyKind::HybridTier),
        )
    };
    let idle = |name: &str| {
        TenantSpec::new(
            name,
            WorkloadSpec::custom("zipf-idle", |seed| {
                Box::new(ZipfPageWorkload::new(3_000, 0.3, 12_000, seed).with_cpu_ns(700))
            }),
            tiering_runner::PolicySpec::Kind(PolicyKind::HybridTier),
        )
    };
    CoLocationMatrix::new(SimConfig::default().with_max_ops(12_000), 0xC0_10C8)
        .pairing("hot+idle", vec![hot("hot"), idle("idle")])
        .pairing("hot+hot", vec![hot("a"), hot("b")])
        .pairing(
            "suite-pair",
            vec![
                TenantSpec::suite("cdn", WorkloadId::CdnCacheLib, PolicyKind::HybridTier),
                TenantSpec::suite("silo", WorkloadId::Silo, PolicyKind::Memtis),
            ],
        )
        .budgets([BudgetSpec::Ratio(TierRatio::OneTo8), BudgetSpec::Pages(400)])
        .rebalance_every_ns(1_000_000)
        .build()
}

#[test]
fn matrix_builds_the_cross_product_with_distinct_seeds() {
    let scenarios = colocation_matrix();
    assert_eq!(scenarios.len(), 6, "3 pairings x 2 budgets");
    assert_eq!(scenarios[0].label, "hot+idle/1:8/co");
    assert_eq!(scenarios[1].label, "hot+idle/400pg/co");
    let seeds: std::collections::HashSet<u64> = scenarios.iter().map(|s| s.seed).collect();
    assert_eq!(seeds.len(), 6, "every scenario gets its own derived seed");
}

/// The acceptance-criterion test: a ≥2-tenant co-location matrix through
/// the parallel sweep driver, byte-identical to the serial reference.
#[test]
fn parallel_colocation_sweep_matches_serial() {
    let parallel = SweepRunner::new(4).run(colocation_matrix());
    let serial = SweepRunner::serial().run(colocation_matrix());
    assert!(
        parallel.same_outcomes(&serial),
        "parallel co-location sweep diverged from serial"
    );
    for r in &serial.results {
        let multi = r.multi.as_ref().expect("co-location detail present");
        assert_eq!(multi.tenants.len(), 2);
        assert!(
            !multi.rebalances.is_empty(),
            "{}: cadence never fired",
            r.label
        );
        for e in &multi.rebalances {
            assert_eq!(
                e.assigned(),
                multi.fast_budget_pages,
                "{}: budget leak",
                r.label
            );
        }
    }
    // Reversed submission order still yields per-scenario identical
    // outcomes (matched up by label).
    let mut reversed_scenarios = colocation_matrix();
    reversed_scenarios.reverse();
    let reversed = SweepRunner::new(4).run(reversed_scenarios);
    for r in &serial.results {
        let other = reversed.find(&r.label).expect("label present");
        assert!(r.same_outcome(other), "{} diverged on reorder", r.label);
    }
}

/// A ≥3-tenant fleet matrix with an arrive/depart/arrive-again schedule,
/// crossed with every objective and two budgets.
fn fleet_matrix() -> Vec<Scenario> {
    let tenant = |name: &str, pages: usize, theta: f64, cpu: u64| {
        TenantSpec::new(
            name,
            WorkloadSpec::custom("zipf", move |seed| {
                Box::new(ZipfPageWorkload::new(pages, theta, 15_000, seed).with_cpu_ns(cpu))
            }),
            tiering_runner::PolicySpec::Kind(PolicyKind::HybridTier),
        )
    };
    let fleet = vec![
        tenant("hot", 1_500, 0.99, 0),
        tenant("warm", 2_500, 0.7, 300),
        tenant("cold", 3_000, 0.2, 600),
    ];
    // `warm` leaves early and arrives again later (fresh slot, same name).
    let churn = vec![
        ChurnSpec::depart(9_000, "warm"),
        ChurnSpec::arrive(21_000, tenant("warm", 2_500, 0.7, 300)),
    ];
    FleetMatrix::new(SimConfig::default().with_max_ops(15_000), 0xF1EE7)
        .fleet("trio-churn", fleet, churn)
        .objectives(ObjectiveKind::ALL)
        .budgets([BudgetSpec::Ratio(TierRatio::OneTo8), BudgetSpec::Pages(500)])
        .rebalance_every_ns(1_000_000)
        .build()
}

#[test]
fn fleet_matrix_builds_the_cross_product_with_distinct_seeds() {
    let scenarios = fleet_matrix();
    assert_eq!(scenarios.len(), 6, "1 fleet x 3 objectives x 2 budgets");
    assert_eq!(scenarios[0].label, "trio-churn/proportional/1:8/fleet");
    assert_eq!(scenarios[1].label, "trio-churn/proportional/500pg/fleet");
    assert_eq!(scenarios[2].label, "trio-churn/max-min/1:8/fleet");
    assert_eq!(scenarios[5].label, "trio-churn/slo-utility/500pg/fleet");
    let seeds: std::collections::HashSet<u64> = scenarios.iter().map(|s| s.seed).collect();
    assert_eq!(seeds.len(), 6, "every scenario gets its own derived seed");
}

/// The fleet acceptance-criterion test: a 3-tenant arrive/depart fleet
/// runs under all three objectives through the parallel sweep driver,
/// byte-identical to the serial reference, with quotas provably summing
/// to the budget at every rebalance.
#[test]
fn parallel_fleet_sweep_matches_serial() {
    let parallel = SweepRunner::new(4).run(fleet_matrix());
    let serial = SweepRunner::serial().run(fleet_matrix());
    assert!(
        parallel.same_outcomes(&serial),
        "parallel fleet sweep diverged from serial"
    );
    for r in &serial.results {
        let multi = r.multi.as_ref().expect("fleet detail present");
        assert_eq!(
            multi.tenants.len(),
            4,
            "{}: 3 initial slots + 1 re-arrival slot",
            r.label
        );
        assert_eq!(multi.churn.len(), 2, "{}: churn must fire", r.label);
        assert!(
            !multi.rebalances.is_empty(),
            "{}: cadence never fired",
            r.label
        );
        for e in &multi.rebalances {
            assert_eq!(
                e.assigned(),
                multi.fast_budget_pages,
                "{}: budget leak at t={}",
                r.label,
                e.at_ns
            );
        }
        // The objective named in the label is the one that actually ran.
        let objective = r.label.split('/').nth(1).expect("label shape");
        assert!(
            multi.rebalances.iter().all(|e| e.objective == objective),
            "{}: objective mislabel",
            r.label
        );
    }
    // Reversed submission order still yields per-scenario identical
    // outcomes (matched up by label).
    let mut reversed_scenarios = fleet_matrix();
    reversed_scenarios.reverse();
    let reversed = SweepRunner::new(4).run(reversed_scenarios);
    for r in &serial.results {
        let other = reversed.find(&r.label).expect("label present");
        assert!(r.same_outcome(other), "{} diverged on reorder", r.label);
    }
}

/// Co-location scenarios mix freely with single scenarios in one sweep.
#[test]
fn mixed_single_and_colocation_sweep_is_deterministic() {
    let mk = || {
        let mut scenarios = vec![Scenario::suite(
            WorkloadId::CdnCacheLib,
            PolicyKind::HybridTier,
            TierRatio::OneTo8,
            &SimConfig::default().with_max_ops(5_000),
            3,
        )];
        scenarios.extend(colocation_matrix().into_iter().take(2));
        scenarios.extend(fleet_matrix().into_iter().take(1));
        scenarios
    };
    let a = SweepRunner::new(3).run(mk());
    let b = SweepRunner::serial().run(mk());
    assert!(a.same_outcomes(&b));
    assert!(a.results[0].multi.is_none());
    assert!(a.results[1].multi.is_some());
    assert!(
        a.results[3].multi.is_some(),
        "fleet scenario carries detail"
    );
    let fleet = a.results[3].multi.as_ref().expect("checked above");
    assert_eq!(fleet.churn.len(), 2, "fleet churn applied");
}
