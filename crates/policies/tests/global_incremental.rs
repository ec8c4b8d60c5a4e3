//! Fleet-scale equivalence suite for [`ControllerMode::Incremental`]: the
//! heap-backed delta path must be **bit-identical** to the historical
//! full-scan arithmetic for every objective, at every step of random churn
//! scripts, at 10³ and 10⁴ tenants — and must do sub-linear *work*
//! (tree-node visits, not wall-clock) when only `k ≪ n` demands change.
//!
//! The oracle is the unmodified full-scan controller itself, so any drift
//! in the incremental planner (largest-remainder bookkeeping, max-min
//! water filling, SLO phase selection, min-one fixup prediction) shows up
//! as a quota mismatch, not a statistical anomaly.

use proptest::prelude::*;
use tiering_policies::{ControllerMode, GlobalController, ObjectiveKind};

/// SplitMix64 — expands one script seed into per-step demand updates.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn fleet(n: usize, kind: ObjectiveKind, mode: ControllerMode) -> GlobalController {
    let mut g = GlobalController::new(16 * n as u64, 0.01)
        .with_objective_kind(kind)
        .with_mode(mode);
    for i in 0..n {
        g.add_tenant(&format!("t{i}"), 256);
    }
    g
}

/// Drives paired controllers through `rounds` rounds of `k` random demand
/// changes plus occasional churn, asserting exact quota agreement after
/// every event. Returns the incremental controller for further checks.
fn run_script(
    n: usize,
    kind: ObjectiveKind,
    seed: u64,
    rounds: u64,
    k: usize,
    churn: bool,
) -> GlobalController {
    let mut full = fleet(n, kind, ControllerMode::FullScan);
    let mut inc = fleet(n, kind, ControllerMode::Incremental);
    let mut state = seed;
    let mut slots = n;
    let mut live: Vec<usize> = (0..n).collect();
    for round in 0..rounds {
        if churn {
            match mix(&mut state) % 8 {
                0 if live.len() > n / 2 => {
                    let at = (mix(&mut state) % live.len() as u64) as usize;
                    let victim = live.swap_remove(at);
                    full.retire_tenant(victim);
                    inc.retire_tenant(victim);
                }
                1 => {
                    let name = format!("n{round}");
                    let a = full.admit_tenant(&name, 256);
                    let b = inc.admit_tenant(&name, 256);
                    assert_eq!(a, b, "slot indices diverged");
                    live.push(a);
                    slots += 1;
                }
                _ => {}
            }
        }
        for _ in 0..k {
            let slot = live[(mix(&mut state) % live.len() as u64) as usize];
            let demand = match mix(&mut state) % 8 {
                0 => 0,
                1 => u64::MAX,
                v => mix(&mut state) % (100 << v),
            };
            full.update_demand(slot, demand);
            inc.update_demand(slot, demand);
        }
        full.rebalance_dirty(round);
        inc.rebalance_dirty(round);
        assert_eq!(
            full.quotas(),
            inc.quotas(),
            "{kind:?} n={n} seed={seed:#x} round {round}: quotas diverged"
        );
        assert_eq!(full.floor_pages(), inc.floor_pages());
    }
    assert_eq!(inc.num_tenants(), slots);
    inc
}

/// 10³ tenants, all three objectives, randomized scripts with churn: the
/// incremental path is bit-identical to the full-scan oracle.
#[test]
fn thousand_tenant_scripts_match_the_oracle() {
    for kind in ObjectiveKind::ALL {
        for seed in [0xA5F0_5EED_u64, 0x00DD_BA11, 0xFEED_F00D] {
            run_script(1_000, kind, seed ^ kind as u64, 30, 8, true);
        }
    }
}

/// 10⁴ tenants: same bit-identity, fewer rounds (the full-scan oracle is
/// the expensive half of this test by design).
#[test]
fn ten_thousand_tenant_scripts_match_the_oracle() {
    for kind in ObjectiveKind::ALL {
        run_script(10_000, kind, 0xD15C_0B01 ^ kind as u64, 8, 16, true);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random budgets, floors, fleet sizes, and scripts — the equivalence
    /// is not an artifact of the hand-picked constants above.
    #[test]
    fn randomized_fleets_match_the_oracle(
        n in 3usize..200,
        budget_per in 2u64..64,
        floor_pct in 0u64..=50,
        seed in any::<u64>(),
        k in 1usize..12,
    ) {
        for kind in ObjectiveKind::ALL {
            let budget = budget_per * n as u64;
            let mk = |mode| {
                let mut g = GlobalController::new(budget, floor_pct as f64 / 100.0)
                    .with_objective_kind(kind)
                    .with_mode(mode);
                for i in 0..n {
                    g.add_tenant(&format!("t{i}"), 256);
                }
                g
            };
            let mut full = mk(ControllerMode::FullScan);
            let mut inc = mk(ControllerMode::Incremental);
            let mut state = seed;
            for round in 0..12u64 {
                for _ in 0..k {
                    let slot = (mix(&mut state) % n as u64) as usize;
                    let d = mix(&mut state) % (1u64 << (mix(&mut state) % 45));
                    full.update_demand(slot, d);
                    inc.update_demand(slot, d);
                }
                full.rebalance_dirty(round);
                inc.rebalance_dirty(round);
                prop_assert_eq!(
                    full.quotas(),
                    inc.quotas(),
                    "{:?} n={} round {}", kind, n, round
                );
            }
        }
    }
}

/// A fleet in the regime where the lazy path legitimately engages:
/// `floor_frac` 0.1 on a 16-pages-per-tenant budget yields a one-page
/// floor, which makes the min-one fixup provably inert no matter how
/// small a tenant's proportional share rounds down to. (With a zero
/// floor, one demand-1 tenant whose share truncates to 0 forces the
/// full-scan fallback on every round — correct, but O(n), which is
/// exactly what the work-meter tests must not measure.)
fn floored_fleet(n: usize, kind: ObjectiveKind) -> GlobalController {
    let mut g = GlobalController::new(16 * n as u64, 0.1)
        .with_objective_kind(kind)
        .with_mode(ControllerMode::Incremental);
    for i in 0..n {
        g.add_tenant(&format!("t{i}"), 256);
    }
    g
}

/// The work meter: a dirty-`k` rebalance at 10⁴ tenants must cost far
/// less than a full scan. Counted in tree-node visits + plan-walk steps +
/// full-scan slots (`apportion_ops`), not wall-clock, so the assertion
/// cannot flake on a loaded CI host. The demand palette stays at 256
/// distinct values — well under the planner's class cap — mirroring real
/// fleets where demands are bucketed sampler readings, not raw counters.
#[test]
fn sparse_rebalances_do_sublinear_work() {
    let n = 10_000usize;
    for kind in ObjectiveKind::ALL {
        let mut inc = floored_fleet(n, kind);
        inc.rebalance_dirty(0); // settle the idle fleet
        let settled = inc.apportion_ops();
        let rounds = 64u64;
        let mut state = 0x5EED ^ kind as u64;
        for round in 0..rounds {
            for _ in 0..8 {
                let slot = (mix(&mut state) % n as u64) as usize;
                inc.update_demand(slot, 1 + mix(&mut state) % 256);
            }
            inc.rebalance_dirty(round + 1);
        }
        let per_round = (inc.apportion_ops() - settled) / rounds;
        // A full scan costs ≥ n = 10_000 ops per round. 8 dirty slots at
        // O(log n) per treap op plus the ≤ 257-class plan walk should land
        // in the hundreds; assert an order of magnitude under the scan.
        assert!(
            per_round < n as u64 / 10,
            "{kind:?}: {per_round} ops/round is not sub-linear (n = {n})"
        );
    }
}

/// Work scales with the number of *changes*, not the fleet: for the same
/// k, each 10× in tenants adds a roughly constant number of ops per round
/// (O(k log n)) instead of multiplying them. The counts are exact on any
/// host, so they are pinned: a planner change that moves them must say so.
/// (The ledger's `policies.controller_ops_per_rebalance` is the same meter
/// at 5 000 tenants, k = 16, averaged over the objectives.)
#[test]
fn work_tracks_dirty_count_not_fleet_size() {
    let per_round = |n: usize| {
        let mut inc = floored_fleet(n, ObjectiveKind::Proportional);
        inc.rebalance_dirty(0);
        let settled = inc.apportion_ops();
        let rounds = 32u64;
        let mut state = 0xBEEF;
        for round in 0..rounds {
            for _ in 0..8 {
                let slot = (mix(&mut state) % n as u64) as usize;
                inc.update_demand(slot, 1 + mix(&mut state) % 256);
            }
            inc.rebalance_dirty(round + 1);
        }
        (inc.apportion_ops() - settled) / rounds
    };
    let ops = [1_000, 10_000, 100_000].map(per_round);
    assert_eq!(ops, [295, 360, 414], "ops/round at 10³ / 10⁴ / 10⁵ tenants");
    assert!(
        ops[2] < ops[0] * 4,
        "100× the tenants must not cost ~100× the work: {ops:?} ops/round"
    );
}

/// A 10⁵-tenant fleet completes a rebalance-heavy script. Kept to one
/// objective and few rounds so the debug-profile suite stays fast;
/// `benchmark/`'s controller probe is the timed version.
#[test]
fn hundred_thousand_tenants_smoke() {
    let n = 100_000usize;
    let mut inc = fleet(n, ObjectiveKind::MaxMin, ControllerMode::Incremental);
    let mut state = 0xCAFE;
    for round in 0..4u64 {
        for _ in 0..16 {
            let slot = (mix(&mut state) % n as u64) as usize;
            inc.update_demand(slot, mix(&mut state) % 100_000);
        }
        inc.rebalance_dirty(round);
    }
    let quotas = inc.quotas();
    assert_eq!(quotas.len(), n);
    assert_eq!(quotas.iter().sum::<u64>(), 16 * n as u64);
    // Spot-check against the oracle once at the final state.
    let mut full = fleet(n, ObjectiveKind::MaxMin, ControllerMode::FullScan);
    let mut state = 0xCAFE;
    for round in 0..4u64 {
        for _ in 0..16 {
            let slot = (mix(&mut state) % n as u64) as usize;
            full.update_demand(slot, mix(&mut state) % 100_000);
        }
        full.rebalance_dirty(round);
    }
    assert_eq!(quotas, full.quotas());
}
