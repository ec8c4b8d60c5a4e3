//! The headline chaos property: for random matrices × random fault plans
//! with at least one surviving worker, the coordinator's merged report is
//! identical in **all deterministic fields** (labels, seeds, fingerprints,
//! outcomes) to the unsharded `SweepRunner` run — for Single, co-location
//! (static fleet), churned fleet, and mixed matrices.
//!
//! Plans are generated by `FaultPlan::seeded` from seeds derived off each
//! matrix's own base seed (`derive_seed`, no wall-clock randomness), so a
//! failing seed reproduces exactly.

use std::time::Duration;

use fleet_exec::{sweep_coordinator, FaultPlan, FleetConfig};
use tiering_mem::TierRatio;
use tiering_policies::{ObjectiveKind, PolicyKind};
use tiering_runner::{
    derive_seed, CoLocationMatrix, FleetMatrix, Scenario, ScenarioMatrix, SweepReport, SweepRunner,
    TenantSpec,
};
use tiering_sim::SimConfig;
use tiering_workloads::WorkloadId;

const WORKERS: usize = 3;
const SHARDS: usize = 5;
const PLANS_PER_MATRIX: u64 = 8;

/// Budgets sized so genuine work (a few ms per shard) never trips the
/// timeout, while generated `Delay` faults always do.
fn chaos_config() -> FleetConfig {
    FleetConfig {
        shard_timeout: Duration::from_millis(400),
        lag_grace: Duration::from_millis(1_000),
        max_attempts: 5,
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(4),
    }
}

fn delay() -> Duration {
    Duration::from_millis(650)
}

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
            tiering_runner::BudgetSpec::Ratio(TierRatio::OneTo8),
            tiering_runner::BudgetSpec::Ratio(TierRatio::OneTo4),
        ])
        .rebalance_every_ns(1_000_000)
        .build()
}

fn fleet_matrix() -> Vec<Scenario> {
    let (tenants, churn) = Scenario::fleet_churn_demo_tenants();
    FleetMatrix::new(SimConfig::default().with_max_sim_ns(4_000_000), 0xF1EE7)
        .fleet("demo", tenants, churn)
        .objectives(ObjectiveKind::ALL)
        .budgets([tiering_runner::BudgetSpec::Ratio(TierRatio::OneTo8)])
        .rebalance_every_ns(1_000_000)
        .build()
}

fn mixed_matrix() -> Vec<Scenario> {
    let mut m = single_matrix();
    m.extend(colocation_matrix());
    m.extend(fleet_matrix());
    m
}

fn assert_chaos_equivalence(
    kind: &str,
    matrix: impl Fn() -> Vec<Scenario> + Send + Sync + Clone + 'static,
    base_seed: u64,
) {
    let reference = SweepRunner::serial().run(matrix());
    for i in 0..PLANS_PER_MATRIX {
        let plan_seed = derive_seed(base_seed, i);
        let plan = FaultPlan::seeded(plan_seed, WORKERS, SHARDS, delay());
        assert!(
            plan.workers_killed() < WORKERS,
            "generator must leave a survivor"
        );
        let fleet = sweep_coordinator(matrix.clone(), WORKERS, chaos_config())
            .with_faults(plan.clone())
            .run_sweep(SHARDS)
            .unwrap_or_else(|e| panic!("{kind}: plan seed {plan_seed:#x} ({plan:?}) failed: {e}"));
        assert_equivalent(kind, plan_seed, &fleet.report, &reference);
        assert_eq!(fleet.exec.shards, SHARDS);
        assert_eq!(
            fleet.exec.events.last().map(|e| e.at),
            Some(fleet.exec.events.len() as u64 - 1),
            "logical timestamps must be gapless"
        );
    }
}

fn assert_equivalent(kind: &str, seed: u64, fleet: &SweepReport, reference: &SweepReport) {
    assert!(
        fleet.same_outcomes(reference),
        "{kind}: plan seed {seed:#x}: fleet outcomes != unsharded run"
    );
    assert_eq!(fleet.results.len(), reference.results.len());
    for (f, r) in fleet.results.iter().zip(&reference.results) {
        assert_eq!(
            f.label, r.label,
            "{kind}: plan seed {seed:#x}: order diverged"
        );
        assert_eq!(f.seed, r.seed, "{kind}: plan seed {seed:#x}: seed drifted");
        assert_eq!(
            f.fingerprint(),
            r.fingerprint(),
            "{kind}: plan seed {seed:#x}: fingerprint diverged for {}",
            f.label
        );
    }
}

#[test]
fn chaos_equivalence_single() {
    assert_chaos_equivalence("single", single_matrix, 0xD15C_0FEE);
}

#[test]
fn chaos_equivalence_colocation() {
    assert_chaos_equivalence("colocation", colocation_matrix, 0xC0C0);
}

#[test]
fn chaos_equivalence_fleet() {
    assert_chaos_equivalence("fleet", fleet_matrix, 0xF1EE7);
}

#[test]
fn chaos_equivalence_mixed_kinds() {
    assert_chaos_equivalence("mixed", mixed_matrix, 0x1D1D_0C75);
}
