//! The distributed-sweep contract: union-of-shards ≡ unsharded.
//!
//! For every matrix builder (`ScenarioMatrix` of Single scenarios,
//! `CoLocationMatrix` of static fleets, `FleetMatrix` of churned fleets)
//! these tests pin that
//!
//! 1. sharding a matrix N ways and merging the shard reports yields results
//!    identical to the unsharded sweep (same scenarios, same seeds, same
//!    reports, same order — and the same serialized JSON up to host wall
//!    time);
//! 2. each shard is itself serial ≡ parallel;
//! 3. merging is order-invariant;
//! 4. overlapping, missing, or inconsistent shard sets are rejected.

use tiering_mem::TierRatio;
use tiering_policies::{ObjectiveKind, PolicyKind};
use tiering_runner::{
    CoLocationMatrix, FleetMatrix, MergeError, Scenario, ScenarioMatrix, ShardSpec, ShardedSweep,
    SweepReport, SweepRunner, TenantSpec,
};
use tiering_sim::SimConfig;
use tiering_workloads::WorkloadId;

/// A small Single-kind matrix (4 scenarios — not a multiple of 3, so
/// 3-way shards are uneven).
fn single_matrix() -> ScenarioMatrix {
    ScenarioMatrix::new(SimConfig::default().with_max_ops(2_000), 0xD15C_0FEE)
        .workloads([WorkloadId::CdnCacheLib, WorkloadId::Silo])
        .policies([PolicyKind::HybridTier, PolicyKind::FirstTouch])
        .ratios([TierRatio::OneTo8])
}

/// A 2-pairing × 2-budget co-location matrix (4 scenarios).
fn colocation_matrix() -> CoLocationMatrix {
    CoLocationMatrix::new(SimConfig::default().with_max_sim_ns(4_000_000), 0xC0C0)
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
}

/// A 1-fleet × 3-objective × 2-budget Fleet matrix (6 scenarios) with the
/// canonical churn schedule.
fn fleet_matrix() -> FleetMatrix {
    let (tenants, churn) = Scenario::fleet_churn_demo_tenants();
    FleetMatrix::new(SimConfig::default().with_max_sim_ns(6_000_000), 0xF1EE7)
        .fleet("demo", tenants, churn)
        .objectives(ObjectiveKind::ALL)
        .budgets([
            tiering_runner::BudgetSpec::Ratio(TierRatio::OneTo8),
            tiering_runner::BudgetSpec::Ratio(TierRatio::OneTo4),
        ])
        .rebalance_every_ns(1_000_000)
}

/// Shards `matrix` `total` ways, runs every shard (each on its own small
/// pool), merges, and asserts the merge equals the given unsharded
/// reference — results and fingerprints both.
fn assert_union_of_shards_matches(
    kind: &str,
    total: usize,
    matrix: &[Scenario],
    unsharded: &SweepReport,
) {
    let shards: Vec<_> = ShardSpec::all(total)
        .map(|spec| ShardedSweep::new(spec, SweepRunner::new(2)).run(matrix.to_vec()))
        .collect();
    // Each shard carries exactly its slice.
    for (i, s) in shards.iter().enumerate() {
        assert_eq!(s.spec.index(), i);
        assert_eq!(s.matrix_len, matrix.len());
        assert_eq!(s.sweep.results.len(), s.spec.count_of(matrix.len()));
    }
    let merged = SweepReport::merge(shards).expect("complete shard set merges");
    assert!(
        merged.same_outcomes(unsharded),
        "{kind}: union of {total} shards != unsharded run"
    );
    for (m, u) in merged.results.iter().zip(&unsharded.results) {
        assert_eq!(m.label, u.label, "{kind}: order diverged");
        assert_eq!(m.seed, u.seed, "{kind}: sharding changed a seed");
        assert_eq!(
            m.fingerprint(),
            u.fingerprint(),
            "{kind}: fingerprint diverged for {}",
            m.label
        );
    }
}

#[test]
fn union_of_shards_equals_unsharded_single() {
    let matrix = single_matrix().build();
    let unsharded = SweepRunner::serial().run(matrix.clone());
    for total in [1, 2, 3] {
        assert_union_of_shards_matches("single", total, &matrix, &unsharded);
    }
    // More shards than scenarios: trailing shards are empty but the union
    // still reassembles exactly.
    assert_union_of_shards_matches("single", matrix.len() + 2, &matrix, &unsharded);
}

#[test]
fn union_of_shards_equals_unsharded_colocation() {
    let matrix = colocation_matrix().build();
    let unsharded = SweepRunner::serial().run(matrix.clone());
    for total in [2, 3] {
        assert_union_of_shards_matches("colocation", total, &matrix, &unsharded);
    }
}

#[test]
fn union_of_shards_equals_unsharded_fleet() {
    let matrix = fleet_matrix().build();
    assert_eq!(matrix.len(), 6, "3 objectives x 2 budgets");
    let unsharded = SweepRunner::serial().run(matrix.clone());
    for total in [2, 4] {
        assert_union_of_shards_matches("fleet", total, &matrix, &unsharded);
    }
}

#[test]
fn shard_select_preserves_canonical_seeds_and_labels() {
    let spec = ShardSpec::new(1, 3).unwrap();
    let shard = spec.select(single_matrix().build());
    assert_eq!(shard.len(), spec.count_of(4));
    // Entry j of shard i is entry j*total+i of the canonical list, seed
    // and label alike.
    let full = single_matrix().build();
    for (j, s) in shard.iter().enumerate() {
        assert_eq!(s.seed, full[spec.global_index(j)].seed);
        assert_eq!(s.label, full[spec.global_index(j)].label);
    }
}

#[test]
fn each_shard_is_serial_parallel_identical() {
    let matrix = fleet_matrix().build();
    for spec in ShardSpec::all(3) {
        let serial = ShardedSweep::new(spec, SweepRunner::serial()).run(matrix.clone());
        let parallel = ShardedSweep::new(spec, SweepRunner::new(4)).run(matrix.clone());
        assert!(
            serial.sweep.same_outcomes(&parallel.sweep),
            "shard {spec}: parallel != serial"
        );
    }
}

#[test]
fn merge_is_order_invariant() {
    let matrix = single_matrix().build();
    let shards: Vec<_> = ShardSpec::all(3)
        .map(|spec| ShardedSweep::new(spec, SweepRunner::serial()).run(matrix.clone()))
        .collect();
    let forward = SweepReport::merge(shards.clone()).unwrap();
    let mut reversed_in = shards.clone();
    reversed_in.reverse();
    let reversed = SweepReport::merge(reversed_in).unwrap();
    assert!(forward.same_outcomes(&reversed), "merge depends on order");
    // Rotated too, for good measure.
    let mut rotated_in = shards;
    rotated_in.rotate_left(1);
    let rotated = SweepReport::merge(rotated_in).unwrap();
    assert!(forward.same_outcomes(&rotated));
}

#[test]
fn merge_rejects_bad_unions() {
    let matrix = single_matrix().build();
    let shards: Vec<_> = ShardSpec::all(3)
        .map(|spec| ShardedSweep::new(spec, SweepRunner::serial()).run(matrix.clone()))
        .collect();

    assert!(matches!(
        SweepReport::merge(Vec::new()),
        Err(MergeError::Empty)
    ));

    // Missing shard.
    let missing = vec![shards[0].clone(), shards[2].clone()];
    assert!(matches!(
        SweepReport::merge(missing),
        Err(MergeError::MissingShard { index: 1 })
    ));

    // Overlapping (duplicate) shard.
    let overlap = vec![shards[0].clone(), shards[1].clone(), shards[1].clone()];
    assert!(matches!(
        SweepReport::merge(overlap),
        Err(MergeError::DuplicateShard { index: 1 })
    ));

    // Disagreeing shard counts.
    let two_way =
        ShardedSweep::new(ShardSpec::new(0, 2).unwrap(), SweepRunner::serial()).run(matrix.clone());
    assert!(matches!(
        SweepReport::merge(vec![shards[0].clone(), two_way]),
        Err(MergeError::MismatchedTotal {
            expected: 3,
            found: 2
        })
    ));

    // Disagreeing matrix lengths (a shard cut from a different matrix).
    let mut short_matrix = matrix.clone();
    short_matrix.pop();
    let foreign =
        ShardedSweep::new(ShardSpec::new(1, 3).unwrap(), SweepRunner::serial()).run(short_matrix);
    assert!(matches!(
        SweepReport::merge(vec![shards[0].clone(), foreign, shards[2].clone()]),
        Err(MergeError::MismatchedMatrixLen { .. })
    ));

    // A tampered shard (wrong result count for its slice).
    let mut truncated = shards[0].clone();
    truncated.sweep.results.pop();
    assert!(matches!(
        SweepReport::merge(vec![truncated, shards[1].clone(), shards[2].clone()]),
        Err(MergeError::WrongShardLen { index: 0, .. })
    ));
}

#[test]
fn mixed_kind_sweep_shards_too() {
    // Sharding operates on scenario lists, not matrices — a heterogeneous
    // list (all three matrices concatenated) shards and merges the same way.
    let mut matrix = single_matrix().build();
    matrix.extend(colocation_matrix().build());
    matrix.extend(fleet_matrix().build());
    let unsharded = SweepRunner::serial().run(matrix.clone());
    assert_union_of_shards_matches("mixed", 3, &matrix, &unsharded);
}
