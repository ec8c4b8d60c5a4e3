//! The fan-out's failure paths: zero workers or zero shards and an
//! unbuildable scenario are typed errors on the first failure, more
//! shards than scenarios is legal, and a panic inside a shard propagates.
//! Shards are deterministic, so nothing is retried.

use std::time::{Duration, Instant};

use fleet_exec::{sweep_coordinator, FleetConfig, FleetError};
use tiering_mem::TierRatio;
use tiering_policies::PolicyKind;
use tiering_runner::{
    PolicySpec, Scenario, ScenarioMatrix, SweepReport, SweepRunner, TierSpec, WorkloadSpec,
};
use tiering_sim::SimConfig;
use tiering_workloads::WorkloadId;

/// The 4-scenario single-kind matrix the shard-equivalence suite uses.
fn matrix() -> Vec<Scenario> {
    ScenarioMatrix::new(SimConfig::default().with_max_ops(2_000), 0xD15C_0FEE)
        .workloads([WorkloadId::CdnCacheLib, WorkloadId::Silo])
        .policies([PolicyKind::HybridTier, PolicyKind::FirstTouch])
        .ratios([TierRatio::OneTo8])
        .build()
}

fn assert_matches_unsharded(fleet: &SweepReport) {
    let reference = SweepRunner::serial().run(matrix());
    assert!(fleet.same_outcomes(&reference), "fan-out diverged");
    assert_eq!(fleet.results.len(), reference.results.len());
    for (f, r) in fleet.results.iter().zip(&reference.results) {
        assert_eq!(f.label, r.label, "order diverged");
        assert_eq!(f.seed, r.seed, "seed drifted");
        assert_eq!(f.fingerprint(), r.fingerprint(), "outcome drifted");
    }
}

#[test]
fn degenerate_fleets_are_typed_errors() {
    let no_workers = sweep_coordinator(matrix, 0, FleetConfig::default()).run_sweep(4);
    assert!(matches!(no_workers, Err(FleetError::NoWorkers)));
    let no_shards = sweep_coordinator(matrix, 2, FleetConfig::default()).run_sweep(0);
    assert!(matches!(no_shards, Err(FleetError::NoShards)));
}

#[test]
fn more_shards_than_scenarios_still_merges() {
    // Trailing shards own zero scenarios; the union must still be
    // index-complete and exact.
    let fleet = sweep_coordinator(matrix, 2, FleetConfig::default())
        .run_sweep(matrix().len() + 3)
        .expect("empty shards are legal");
    assert_matches_unsharded(&fleet.report);
    assert_eq!(fleet.exec.retries, 0);
}

/// A scenario that cannot be built is outside input (a trace path). It
/// fails the same way on every attempt, so the first failure is the
/// answer: a typed error naming the file, not a retry loop.
#[test]
fn unreadable_trace_is_a_typed_error_not_a_worker_panic() {
    let with_bad_trace = || {
        let mut m = matrix();
        m.push(Scenario::new(
            "replay/missing",
            WorkloadSpec::Trace("/nonexistent".into()),
            PolicySpec::Kind(PolicyKind::HybridTier),
            TierSpec::Ratio(TierRatio::OneTo8),
            &SimConfig::default().with_max_ops(2_000),
            7,
        ));
        m
    };
    let started = Instant::now();
    let err = sweep_coordinator(with_bad_trace, 2, FleetConfig::default())
        .run_sweep(2)
        .expect_err("the shard holding the trace can never complete");
    assert!(matches!(err, FleetError::Scenario(_)), "got {err:?}");
    assert!(
        err.to_string().contains("/nonexistent"),
        "the error must name the file: {err}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "an unbuildable scenario must fail promptly"
    );

    let fleet = sweep_coordinator(matrix, 2, FleetConfig::default())
        .run_sweep(2)
        .expect("the same fan-out without the trace completes");
    assert_matches_unsharded(&fleet.report);
}

#[test]
#[should_panic(expected = "matrix factory bug")]
fn a_panic_inside_a_shard_propagates() {
    let _ = sweep_coordinator(
        || -> Vec<Scenario> { panic!("matrix factory bug") },
        2,
        FleetConfig::default(),
    )
    .run_sweep(2);
}
