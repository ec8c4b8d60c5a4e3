//! Tier-1 coverage of the multi-tenant control plane, through the facade:
//! the canonical churn fleet under every quota objective (full-scan
//! controller) and the synthetic 64-tenant fleet (incremental controller).
//! The fingerprints are pinned, so a change that moves a quota, a churn
//! record or a report fails `cargo test -q` at the root — no other facade
//! test reaches `policies::global`.

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
