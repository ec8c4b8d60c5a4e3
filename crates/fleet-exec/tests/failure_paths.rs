//! Exhaustive failure-path coverage: every recovery path of the
//! coordinator exercised one at a time by targeted fault plans —
//! kill at each phase of a shard attempt, timeout → retry → success,
//! retry-budget exhaustion (typed error, never a hang), corrupt and
//! truncated artifacts rejected and reassigned, duplicate results
//! ignored deterministically, and a fully-dead fleet failing in bounded
//! time.

use std::time::{Duration, Instant};

use fleet_exec::{
    sweep_coordinator, FaultKind, FaultPlan, FleetConfig, FleetCoordinator, FleetError,
    FleetEventKind, ShardWorker, WorkerFailure,
};
use tiering_mem::TierRatio;
use tiering_policies::PolicyKind;
use tiering_runner::{
    PolicySpec, Scenario, ScenarioMatrix, ShardSpec, SweepRunner, TierSpec, WorkloadSpec,
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

fn assert_matches_unsharded(fleet: &tiering_runner::SweepReport) {
    let reference = SweepRunner::serial().run(matrix());
    assert!(fleet.same_outcomes(&reference), "fleet run diverged");
    for (f, r) in fleet.results.iter().zip(&reference.results) {
        assert_eq!(f.label, r.label, "order diverged");
        assert_eq!(f.seed, r.seed, "seed drifted");
        assert_eq!(f.fingerprint(), r.fingerprint(), "outcome drifted");
    }
}

/// Asserts `wanted` appears as an ordered (not necessarily contiguous)
/// subsequence of the event log, matching on `(kind name, shard)`.
fn assert_event_subsequence(events: &[fleet_exec::FleetEvent], wanted: &[(&str, usize)]) {
    let mut it = wanted.iter().peekable();
    for e in events {
        let Some(&&(name, shard)) = it.peek() else {
            return;
        };
        let got_shard = match &e.kind {
            FleetEventKind::Assigned { shard, .. }
            | FleetEventKind::Completed { shard, .. }
            | FleetEventKind::TimedOut { shard, .. }
            | FleetEventKind::Rejected { shard, .. }
            | FleetEventKind::Retried { shard, .. }
            | FleetEventKind::Reassigned { shard, .. }
            | FleetEventKind::StaleResult { shard, .. } => Some(*shard),
            _ => None,
        };
        if e.kind.name() == name && got_shard == Some(shard) {
            it.next();
        }
    }
    assert!(
        it.peek().is_none(),
        "event log is missing {:?}; log was:\n{}",
        it.collect::<Vec<_>>(),
        events
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn kill_at_each_phase_recovers_and_matches_unsharded() {
    for kind in [
        FaultKind::KillBefore,
        FaultKind::KillMid,
        FaultKind::KillAfter,
    ] {
        let fleet = sweep_coordinator(matrix, 3, FleetConfig::snappy())
            .with_faults(FaultPlan::new(vec![kind.clone().on(1)]))
            .run_sweep(6)
            .unwrap_or_else(|e| panic!("{kind:?}: fleet failed: {e}"));
        assert_matches_unsharded(&fleet.report);
        assert_eq!(fleet.exec.workers_lost, 1, "{kind:?}");
        assert!(fleet.exec.workers[1].lost, "{kind:?}: wrong worker lost");
        assert!(
            !fleet.exec.workers[0].lost && !fleet.exec.workers[2].lost,
            "{kind:?}: survivors marked lost"
        );
        let completed: u64 = fleet.exec.workers.iter().map(|w| w.completed).sum();
        assert_eq!(completed, 6, "{kind:?}: every shard completes exactly once");
        // KillBefore/KillMid lose the in-flight shard: it must be
        // reassigned to a survivor. KillAfter loses nothing in flight.
        if matches!(kind, FaultKind::KillBefore | FaultKind::KillMid) {
            assert!(
                fleet.exec.reassignments >= 1,
                "{kind:?}: lost shard was not reassigned:\n{}",
                fleet.exec.event_log()
            );
            assert_eq!(fleet.exec.workers[1].completed, 0, "{kind:?}");
        } else {
            assert_eq!(
                fleet.exec.workers[1].completed, 1,
                "KillAfter: the result that arrived before death counts"
            );
        }
    }
}

#[test]
fn timeout_then_retry_then_success() {
    let config = FleetConfig {
        shard_timeout: Duration::from_millis(120),
        lag_grace: Duration::from_millis(1_000),
        max_attempts: 3,
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(4),
    };
    let fleet = sweep_coordinator(matrix, 2, config)
        .with_faults(FaultPlan::new(vec![FaultKind::Delay(
            Duration::from_millis(300),
        )
        .on_shard(0, 0)]))
        .run_sweep(2)
        .expect("a delayed shard retries and completes");
    assert_matches_unsharded(&fleet.report);
    assert_eq!(fleet.exec.timeouts, 1);
    assert_eq!(fleet.exec.retries, 1);
    assert_eq!(fleet.exec.stale_results, 1, "the late result is discarded");
    assert_eq!(
        fleet.exec.workers_lost, 0,
        "a slow worker is not a dead one"
    );
    assert_event_subsequence(
        &fleet.exec.events,
        &[
            ("assigned", 0),
            ("timed_out", 0),
            ("stale_result", 0),
            ("retried", 0),
            ("assigned", 0),
            ("completed", 0),
        ],
    );
}

#[test]
fn retry_budget_exhausted_is_a_typed_error_not_a_hang() {
    let started = Instant::now();
    let err = sweep_coordinator(matrix, 1, FleetConfig::snappy().with_max_attempts(2))
        .with_faults(FaultPlan::new(vec![
            FaultKind::Corrupt.on_shard(0, 0),
            FaultKind::Corrupt.on_shard(0, 0),
        ]))
        .run_sweep(2)
        .expect_err("two corrupt attempts exhaust a budget of two");
    match err {
        FleetError::RetryBudgetExhausted {
            shard,
            attempts,
            last_error,
        } => {
            assert_eq!(shard, 0);
            assert_eq!(attempts, 2);
            assert!(
                last_error.contains("invalid artifact"),
                "unexpected last error: {last_error}"
            );
        }
        other => panic!("wrong error variant: {other:?}"),
    }
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "budget exhaustion must fail promptly"
    );
}

/// A scenario that cannot be built is outside input (a trace path), not a
/// worker death: each attempt fails as `Crashed`, the workers stay in
/// rotation, and the budget runs out with the trace error as the reason.
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
    let bad_shard = matrix().len() % 2;
    let started = Instant::now();
    let err = sweep_coordinator(with_bad_trace, 2, FleetConfig::snappy())
        .run_sweep(2)
        .expect_err("the shard holding the trace can never complete");
    match err {
        FleetError::RetryBudgetExhausted {
            shard,
            attempts,
            last_error,
        } => {
            assert_eq!(shard, bad_shard);
            assert_eq!(attempts, FleetConfig::snappy().max_attempts);
            assert!(
                last_error.contains("cannot open trace /nonexistent"),
                "unexpected last error: {last_error}"
            );
        }
        other => panic!("wrong error variant: {other:?}"),
    }
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "an unbuildable scenario must fail promptly"
    );

    let fleet = sweep_coordinator(matrix, 2, FleetConfig::snappy())
        .run_sweep(2)
        .expect("the same fleet without the trace completes");
    assert_matches_unsharded(&fleet.report);
    assert_eq!(fleet.exec.workers_lost, 0);
}

#[test]
fn corrupt_report_is_rejected_and_reassigned() {
    // w1 carries double weight so the deficit rule moves the retried
    // shard off the faulty w0.
    let mut coordinator = FleetCoordinator::new(FleetConfig::snappy())
        .with_faults(FaultPlan::new(vec![FaultKind::Corrupt.on_shard(0, 0)]));
    let matrix_len = matrix().len();
    coordinator = coordinator
        .with_worker("w0", fleet_exec::LocalWorker::new(matrix))
        .with_worker("w1", fleet_exec::LocalWorker::new(matrix).with_weight(2))
        .with_validator(
            move |spec: ShardSpec, report: &tiering_runner::ShardReport| {
                if report.matrix_len != matrix_len {
                    return Err(format!(
                        "matrix length {} != {matrix_len}",
                        report.matrix_len
                    ));
                }
                if report.sweep.results.len() != spec.count_of(matrix_len) {
                    return Err("wrong result count".into());
                }
                Ok(())
            },
        );
    let run = coordinator.run(2).expect("corruption is recoverable");
    let merged = tiering_runner::SweepReport::merge(run.artifacts).expect("clean union");
    assert_matches_unsharded(&merged);
    assert_eq!(run.exec.rejected, 1);
    assert!(run.exec.retries >= 1);
    assert_event_subsequence(
        &run.exec.events,
        &[("rejected", 0), ("reassigned", 0), ("completed", 0)],
    );
}

/// A String-artifact worker: the subprocess plane's shape without the
/// subprocess, for exercising text-level corruption handling.
struct TextWorker;
impl ShardWorker for TextWorker {
    type Artifact = String;
    fn run_shard(&mut self, shard: ShardSpec, _attempt: u32) -> Result<String, WorkerFailure> {
        Ok(format!("{{\"shard\":{}}}", shard.index()))
    }
}

#[test]
fn truncated_text_artifact_is_rejected_then_retried() {
    let coordinator = FleetCoordinator::new(FleetConfig::snappy())
        .with_worker("w0", TextWorker)
        .with_worker("w1", TextWorker)
        .with_validator(|spec: ShardSpec, text: &String| {
            if *text == format!("{{\"shard\":{}}}", spec.index()) {
                Ok(())
            } else {
                Err(format!("damaged artifact: {text:?}"))
            }
        })
        .with_faults(FaultPlan::new(vec![
            FaultKind::Truncate.on_shard(0, 0),
            FaultKind::Corrupt.on_shard(1, 1),
        ]));
    let run = coordinator.run(4).expect("both damages are recoverable");
    assert_eq!(run.artifacts.len(), 4);
    for (i, a) in run.artifacts.iter().enumerate() {
        assert_eq!(*a, format!("{{\"shard\":{i}}}"));
    }
    assert_eq!(run.exec.rejected, 2);
}

#[test]
fn duplicate_shard_result_is_ignored_deterministically() {
    let config = FleetConfig {
        shard_timeout: Duration::from_millis(120),
        lag_grace: Duration::from_millis(1_000),
        max_attempts: 3,
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(4),
    };
    // w0's first attempt at shard 0 straggles past the timeout; the
    // retry completes the shard; w0's late duplicate must be discarded
    // at the next round boundary — exactly once, exactly there.
    let fleet = sweep_coordinator(matrix, 2, config)
        .with_faults(FaultPlan::new(vec![FaultKind::Delay(
            Duration::from_millis(300),
        )
        .on_shard(0, 0)]))
        .run_sweep(4)
        .expect("duplicate results are survivable");
    assert_matches_unsharded(&fleet.report);
    assert_eq!(fleet.exec.stale_results, 1, "one duplicate, one discard");
    let completions = fleet
        .exec
        .events
        .iter()
        .filter(|e| matches!(e.kind, FleetEventKind::Completed { shard: 0, .. }))
        .count();
    assert_eq!(completions, 1, "shard 0 must complete exactly once");
}

#[test]
fn fully_dead_fleet_is_a_typed_error_in_bounded_time() {
    let started = Instant::now();
    let err = sweep_coordinator(matrix, 3, FleetConfig::snappy())
        .with_faults(FaultPlan::new(vec![
            FaultKind::KillBefore.on(0),
            FaultKind::KillMid.on(1),
            FaultKind::KillBefore.on(2),
        ]))
        .run_sweep(6)
        .expect_err("no survivors, no sweep");
    match err {
        FleetError::AllWorkersLost { completed, shards } => {
            assert_eq!(shards, 6);
            assert!(completed < shards);
        }
        other => panic!("wrong error variant: {other:?}"),
    }
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "a dead fleet must fail in bounded time, not hang"
    );
}

#[test]
fn weighted_quota_sizing_is_exact_in_the_happy_path() {
    let mut coordinator = FleetCoordinator::new(FleetConfig::snappy());
    coordinator = coordinator
        .with_worker("fast", fleet_exec::LocalWorker::new(matrix).with_weight(3))
        .with_worker("slow", fleet_exec::LocalWorker::new(matrix));
    let fleet = coordinator.run_sweep(8).expect("no faults");
    assert_matches_unsharded(&fleet.report);
    assert_eq!(fleet.exec.workers[0].weight, 3);
    assert_eq!(
        (
            fleet.exec.workers[0].completed,
            fleet.exec.workers[1].completed
        ),
        (6, 2),
        "weight 3:1 over 8 shards apportions 6:2;\n{}",
        fleet.exec.event_log()
    );
}

#[test]
fn calibration_probe_produces_a_usable_weight() {
    let fleet = FleetCoordinator::new(FleetConfig::snappy())
        .with_worker(
            "probed",
            fleet_exec::LocalWorker::new(matrix).with_probe(true),
        )
        .with_worker("declared", fleet_exec::LocalWorker::new(matrix))
        .run_sweep(4)
        .expect("probing must not break execution");
    assert_matches_unsharded(&fleet.report);
    assert!(fleet.exec.workers[0].weight >= 1, "weights stay positive");
    assert!(matches!(
        fleet.exec.events[0].kind,
        FleetEventKind::Calibrated { weight } if weight == fleet.exec.workers[0].weight
    ));
}

#[test]
fn degenerate_fleets_are_typed_errors() {
    let empty: FleetCoordinator<tiering_runner::ShardReport> =
        FleetCoordinator::new(FleetConfig::snappy());
    assert!(matches!(empty.run(4), Err(FleetError::NoWorkers)));
    let no_shards = sweep_coordinator(matrix, 2, FleetConfig::snappy());
    assert!(matches!(no_shards.run(0), Err(FleetError::NoShards)));
}

#[test]
fn more_shards_than_scenarios_still_merges() {
    // Trailing shards own zero scenarios; the union must still be
    // index-complete and exact.
    let fleet = sweep_coordinator(matrix, 2, FleetConfig::snappy())
        .run_sweep(matrix().len() + 3)
        .expect("empty shards are legal");
    assert_matches_unsharded(&fleet.report);
}
