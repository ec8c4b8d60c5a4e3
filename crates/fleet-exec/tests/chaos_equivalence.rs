//! The fan-out's headline property: for every scenario kind (single,
//! co-location, churned fleet, and a matrix mixing all three) and every
//! worker × shard layout, `run_sweep` is identical in all deterministic
//! fields (labels, seeds, fingerprints, outcomes) to the unsharded serial
//! run — including more shards than scenarios, where trailing shards own
//! nothing. The error paths are in `failure_paths.rs`.

use fleet_exec::{sweep_coordinator, FleetConfig};
use tiering_mem::TierRatio;
use tiering_policies::{ObjectiveKind, PolicyKind};
use tiering_runner::{
    BudgetSpec, CoLocationMatrix, FleetMatrix, Scenario, ScenarioMatrix, SweepReport, SweepRunner,
    TenantSpec,
};
use tiering_sim::SimConfig;
use tiering_workloads::WorkloadId;

/// A scenario-matrix factory, as every worker of a fan-out calls it.
type Matrix = fn() -> Vec<Scenario>;

fn single_matrix() -> Vec<Scenario> {
    ScenarioMatrix::new(SimConfig::default().with_max_ops(2_000), 0xD15C_0FEE)
        .workloads([WorkloadId::CdnCacheLib, WorkloadId::Silo])
        .policies([PolicyKind::HybridTier, PolicyKind::FirstTouch])
        .ratios([TierRatio::OneTo8])
        .build()
}

fn colocation_matrix() -> Vec<Scenario> {
    CoLocationMatrix::new(SimConfig::default().with_max_sim_ns(3_000_000), 0xC0C0)
        .pairing("wakeup", Scenario::wakeup_demo_tenants())
        .pairing(
            "cdn+silo",
            vec![
                TenantSpec::suite("cdn", WorkloadId::CdnCacheLib, PolicyKind::HybridTier),
                TenantSpec::suite("silo", WorkloadId::Silo, PolicyKind::HybridTier),
            ],
        )
        .budgets([
            BudgetSpec::Ratio(TierRatio::OneTo8),
            BudgetSpec::Ratio(TierRatio::OneTo4),
        ])
        .rebalance_every_ns(1_000_000)
        .build()
}

fn fleet_matrix() -> Vec<Scenario> {
    let (tenants, churn) = Scenario::fleet_churn_demo_tenants();
    FleetMatrix::new(SimConfig::default().with_max_sim_ns(4_000_000), 0xF1EE7)
        .fleet("demo", tenants, churn)
        .objectives(ObjectiveKind::ALL)
        .budgets([BudgetSpec::Ratio(TierRatio::OneTo8)])
        .rebalance_every_ns(1_000_000)
        .build()
}

fn mixed_matrix() -> Vec<Scenario> {
    let mut m = single_matrix();
    m.extend(colocation_matrix());
    m.extend(fleet_matrix());
    m
}

fn assert_equivalent(what: &str, fleet: &SweepReport, reference: &SweepReport) {
    assert!(
        fleet.same_outcomes(reference),
        "{what}: fan-out outcomes != unsharded run"
    );
    assert_eq!(fleet.results.len(), reference.results.len(), "{what}");
    for (f, r) in fleet.results.iter().zip(&reference.results) {
        assert_eq!(f.label, r.label, "{what}: order diverged");
        assert_eq!(f.seed, r.seed, "{what}: seed drifted");
        assert_eq!(
            f.fingerprint(),
            r.fingerprint(),
            "{what}: fingerprint diverged for {}",
            f.label
        );
    }
}

/// Runs `matrix` under every layout — one worker and shard, more shards
/// than workers, a worker count that does not divide the shards, and more
/// shards than scenarios — and checks each against the serial run.
fn assert_fan_out_equivalence(kind: &str, matrix: Matrix) {
    let reference = SweepRunner::serial().run(matrix());
    let layouts = [(1, 1), (2, 4), (3, 7), (2, reference.results.len() + 3)];
    for (workers, shards) in layouts {
        let what = format!("{kind}, {workers} workers × {shards} shards");
        let fleet = sweep_coordinator(matrix, workers, FleetConfig::default())
            .run_sweep(shards)
            .unwrap_or_else(|e| panic!("{what}: {e}"));
        assert_equivalent(&what, &fleet.report, &reference);
        assert_eq!(fleet.exec.retries, 0, "{what}");
    }
}

#[test]
fn chaos_equivalence_single() {
    assert_fan_out_equivalence("single", single_matrix);
}

#[test]
fn chaos_equivalence_colocation() {
    assert_fan_out_equivalence("colocation", colocation_matrix);
}

#[test]
fn chaos_equivalence_fleet() {
    assert_fan_out_equivalence("fleet", fleet_matrix);
}

#[test]
fn chaos_equivalence_mixed_kinds() {
    assert_fan_out_equivalence("mixed", mixed_matrix);
}
