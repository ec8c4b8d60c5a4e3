//! Tier-1 coverage of the multi-tenant control plane, through the facade:
//! the canonical churn fleet under every quota objective (full-scan
//! controller), the synthetic 64-tenant fleet (incremental controller), and
//! the §7 co-locations (static proportional fleets: the wake-up demo and
//! the four cells of the bench co-location matrix). The fingerprints are
//! pinned, so a change that moves a quota, a churn record, a report or a
//! `co/<budget>` tier label fails `cargo test -q` at the root — no other
//! facade test reaches `policies::global`.

use hybridtier::policies::ObjectiveKind;
use hybridtier::prelude::*;

/// `ScenarioResult::fingerprint()` of each scenario below, in order.
const PINNED: [u64; 4] = [
    0xc25c_ecd9_ec29_79ea,
    0xa22e_225a_d933_7c9b,
    0xb418_3e1d_3601_0b74,
    0x07a7_9d07_9d74_329d,
];

fn scenarios() -> Vec<Scenario> {
    let churn = SimConfig::default().with_max_sim_ns(60_000_000);
    let mut out: Vec<Scenario> = ObjectiveKind::ALL
        .into_iter()
        .map(|objective| Scenario::fleet_churn_demo(objective, &churn, 0xA5F0_5EED))
        .collect();
    out.push(Scenario::fleet(
        "synth64",
        Scenario::synthetic_fleet_spec(64),
        &SimConfig::default(),
        0xF1EE7,
    ));
    out
}

#[test]
fn fleet_fingerprints_are_pinned_and_sweep_equals_direct_runs() {
    let scenarios = scenarios();
    let sweep = SweepRunner::serial()
        .try_run(scenarios.clone())
        .expect("custom workloads always build");
    let mut got = Vec::new();
    for (scenario, swept) in scenarios.iter().zip(&sweep.results) {
        let direct = scenario.try_run().expect("custom workloads always build");
        assert!(
            direct.same_outcome(swept),
            "{}: sweep diverged",
            direct.label
        );
        got.push(direct.fingerprint());
    }
    assert_eq!(
        got, PINNED,
        "a control-plane outcome moved; got {got:#018x?}"
    );
}

/// `ScenarioResult::fingerprint()` and tier label of each co-location
/// scenario below, in order.
const PINNED_CO: [(u64, &str); 5] = [
    (0x50ab_e096_5054_c527, "co/1:8"),
    (0xd897_33ad_398f_3be6, "co/1:8"),
    (0x4c22_ef1b_bbb8_170e, "co/1:4"),
    (0x2ba6_b7db_b137_8379, "co/1:8"),
    (0x0ffa_e1e5_0866_0f34, "co/1:4"),
];

/// The wake-up demo at its golden horizon, then the bench co-location
/// matrix (`hybridtier_bench::colocation_matrix`) at a 20 ms horizon.
fn co_location_scenarios() -> Vec<Scenario> {
    let seed = 0xA5F0_5EED;
    let mut out = vec![Scenario::wakeup_demo(
        &SimConfig::default().with_max_sim_ns(100_000_000),
        seed,
    )];
    out.extend(
        CoLocationMatrix::new(SimConfig::default().with_max_sim_ns(20_000_000), seed)
            .pairing("cache+wakeup", Scenario::wakeup_demo_tenants())
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
            .build(),
    );
    out
}

#[test]
fn co_location_fingerprints_and_tier_labels_are_pinned() {
    let got: Vec<(u64, String)> = co_location_scenarios()
        .iter()
        .map(|scenario| {
            let result = scenario.run();
            (result.fingerprint(), result.tier)
        })
        .collect();
    let want: Vec<(u64, String)> = PINNED_CO
        .iter()
        .map(|&(fingerprint, tier)| (fingerprint, tier.to_string()))
        .collect();
    assert_eq!(got, want, "a co-location outcome or label moved");
}
