//! Fleet-scale equivalence suite for [`GlobalController`]: in both
//! [`ControllerMode`]s the controller's quotas must equal the full-scan
//! oracle (`support/oracle.rs`) for every objective, after every rebalance
//! of random churn scripts at 10³ and 10⁴ tenants — including long class
//! walks (more than 1 024 distinct demands) and zero allocations the
//! min-one fixup must repair — and must do sub-linear *work* (tree-node
//! visits, not wall-clock) when only `k ≪ n` demands change.
//!
//! The oracle is the objectives' original full-scan bodies, so any drift
//! in the lazy planner (largest-remainder bookkeeping, max-min water
//! filling, SLO phase selection, min-one fixup) shows up as a quota
//! mismatch, not a statistical anomaly.

#[path = "support/oracle.rs"]
mod oracle;

use std::collections::BTreeSet;

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

/// One controller per [`ControllerMode`], fed the same script, plus the
/// raw demand per slot both were fed — everything the oracle needs.
struct Pair {
    kind: ObjectiveKind,
    budget: u64,
    floor_frac: f64,
    full: GlobalController,
    inc: GlobalController,
    demands: Vec<u64>,
}

impl Pair {
    fn new(kind: ObjectiveKind, budget: u64, floor_frac: f64, n: usize) -> Self {
        let mk = |mode| {
            let mut g = GlobalController::new(budget, floor_frac)
                .with_objective_kind(kind)
                .with_mode(mode);
            for i in 0..n {
                g.add_tenant(&format!("t{i}"), 256);
            }
            g
        };
        Self {
            kind,
            budget,
            floor_frac,
            full: mk(ControllerMode::FullScan),
            inc: mk(ControllerMode::Incremental),
            demands: vec![1; n],
        }
    }

    fn update(&mut self, slot: usize, demand: u64) {
        self.full.update_demand(slot, demand);
        self.inc.update_demand(slot, demand);
        self.demands[slot] = demand;
    }

    fn admit(&mut self, name: &str) -> usize {
        let a = self.full.admit_tenant(name, 256);
        let b = self.inc.admit_tenant(name, 256);
        assert_eq!(a, b, "slot indices diverged");
        self.demands.push(1);
        assert_eq!(self.full.quotas(), self.inc.quotas(), "admit {name}");
        a
    }

    fn retire(&mut self, slot: usize) {
        self.full.retire_tenant(slot);
        self.inc.retire_tenant(slot);
        assert_eq!(self.full.quotas(), self.inc.quotas(), "retire {slot}");
    }

    /// Clamped demands of the live slots.
    fn live_demands(&self) -> Vec<u64> {
        let live = self.full.live_mask();
        (0..live.len())
            .filter(|&i| live[i])
            .map(|i| oracle::clamp(self.demands[i]))
            .collect()
    }

    /// The oracle's quotas before the min-one fixup.
    fn raw(&self) -> Vec<u64> {
        let live = self.full.live_mask();
        oracle::raw_quotas(
            self.kind,
            self.budget,
            self.floor_frac,
            &live,
            &self.demands,
        )
    }

    /// Rebalances both controllers from the staged deltas and asserts
    /// both hold exactly the oracle's quotas; returns them.
    fn rebalance(&mut self, at_ns: u64, what: &str) -> Vec<u64> {
        let full_ev = self.full.rebalance_dirty(at_ns);
        let inc_ev = self.inc.rebalance_dirty(at_ns);
        let live = self.full.live_mask();
        assert_eq!(live, self.inc.live_mask(), "{what}: live masks diverged");
        let want = oracle::quotas(
            self.kind,
            self.budget,
            self.floor_frac,
            &live,
            &self.demands,
        );
        let kind = self.kind;
        assert_eq!(
            self.full.quotas(),
            want,
            "{kind:?} {what}: FullScan ≠ oracle"
        );
        assert_eq!(
            self.inc.quotas(),
            want,
            "{kind:?} {what}: Incremental ≠ oracle"
        );
        assert_eq!(full_ev.quotas, want, "{kind:?} {what}: full event");
        assert!(inc_ev.quotas.is_empty(), "{what}: compact event");
        assert_eq!(full_ev.floor_pages, inc_ev.floor_pages);
        assert_eq!(full_ev.floor_pages, self.full.floor_pages());
        want
    }
}

/// Drives a [`Pair`] through `rounds` rounds of `k` random demand changes
/// plus occasional churn, asserting oracle equality after every rebalance.
/// The budget is 16 pages per tenant; `floor_frac` 0.01 makes the floor 0
/// (the fixup runs whenever an idle tenant's share truncates to 0), 0.1
/// makes it one page (every rebalance stays lazy).
fn run_script(n: usize, kind: ObjectiveKind, floor_frac: f64, seed: u64, rounds: u64, k: usize) {
    let mut pair = Pair::new(kind, 16 * n as u64, floor_frac, n);
    let mut state = seed;
    let mut live: Vec<usize> = (0..n).collect();
    for round in 0..rounds {
        match mix(&mut state) % 8 {
            0 if live.len() > n / 2 => {
                let at = (mix(&mut state) % live.len() as u64) as usize;
                pair.retire(live.swap_remove(at));
            }
            1 => live.push(pair.admit(&format!("n{round}"))),
            _ => {}
        }
        for _ in 0..k {
            let slot = live[(mix(&mut state) % live.len() as u64) as usize];
            let demand = match mix(&mut state) % 8 {
                0 => 0,
                1 => u64::MAX,
                v => mix(&mut state) % (100 << v),
            };
            pair.update(slot, demand);
        }
        pair.rebalance(round, &format!("n={n} seed={seed:#x} round {round}"));
    }
    assert_eq!(pair.inc.num_tenants(), pair.demands.len());
}

/// 10³ tenants, all three objectives, randomized scripts with churn, with
/// and without a floor: both modes hold the oracle's quotas.
#[test]
fn thousand_tenant_scripts_match_the_oracle() {
    for kind in ObjectiveKind::ALL {
        for seed in [0xA5F0_5EED_u64, 0x00DD_BA11, 0xFEED_F00D] {
            for floor_frac in [0.01, 0.1] {
                run_script(1_000, kind, floor_frac, seed ^ kind as u64, 30, 8);
            }
        }
    }
}

/// 10⁴ tenants: same equality, fewer rounds, one-page floor (the oracle's
/// per-zero rescan would cost 10⁸ steps a round here; the fixup is covered
/// at 10³ and by the floor-0 crowd case below).
#[test]
fn ten_thousand_tenant_scripts_match_the_oracle() {
    for kind in ObjectiveKind::ALL {
        run_script(10_000, kind, 0.1, 0xD15C_0B01 ^ kind as u64, 8, 16);
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
            let mut pair = Pair::new(kind, budget_per * n as u64, floor_pct as f64 / 100.0, n);
            let mut state = seed;
            for round in 0..12u64 {
                for _ in 0..k {
                    let slot = (mix(&mut state) % n as u64) as usize;
                    let d = mix(&mut state) % (1u64 << (mix(&mut state) % 45));
                    pair.update(slot, d);
                }
                pair.rebalance(round, &format!("n={n} round {round}"));
            }
        }
    }
}

/// More than 1 024 distinct live demands, so every weighted plan walks
/// more than 1 024 demand classes for its dust. Three budgets put every
/// objective in each of its phases (SLO requirement pressure, post-SLO
/// fill, surplus; max-min filling and surplus), with and without a floor,
/// and a few demands move every round.
#[test]
fn more_than_1024_distinct_demands_match_the_oracle() {
    let n = 1_200usize;
    // Demand of slot i starts at 1 + 3i: 1 200 classes, Σd ≈ 2.2 M.
    for kind in ObjectiveKind::ALL {
        for budget in [2 * n as u64, 1_500_000, 4_000_000] {
            for floor_frac in [0.0, 0.1] {
                let mut pair = Pair::new(kind, budget, floor_frac, n);
                let mut state = budget ^ kind as u64;
                for slot in 0..n {
                    pair.update(slot, 1 + 3 * slot as u64);
                }
                for round in 0..6u64 {
                    let classes: BTreeSet<u64> = pair.live_demands().into_iter().collect();
                    assert!(classes.len() > 1_024, "only {} classes", classes.len());
                    pair.rebalance(
                        round,
                        &format!("budget {budget} floor {floor_frac} round {round}"),
                    );
                    for _ in 0..16 {
                        let slot = (mix(&mut state) % n as u64) as usize;
                        pair.update(slot, 1 + mix(&mut state) % 5_000);
                    }
                }
            }
        }
    }
}

/// Floor 0 with crowds of demand-1 tenants beside a few hungry ones: the
/// oracle's allocation truncates the crowd to zero pages, so every such
/// rebalance runs the min-one fixup, through churn as well. (Max-min
/// cannot get there: with budget > live tenants its water level is ≥ 1, so
/// it runs as the control.)
#[test]
fn floor_zero_demand_one_crowds_match_the_oracle() {
    for kind in ObjectiveKind::ALL {
        let n = 1_000usize;
        let mut pair = Pair::new(kind, 3 * n as u64, 0.0, n);
        let mut state = 0xF1A7 ^ kind as u64;
        let mut live: Vec<usize> = (0..n).collect();
        let mut zero_rounds = 0;
        for round in 0..12u64 {
            match round % 3 {
                0 => live.push(pair.admit(&format!("late{round}"))),
                1 => {
                    let at = (mix(&mut state) % live.len() as u64) as usize;
                    pair.retire(live.swap_remove(at));
                }
                _ => {}
            }
            // A handful of hungry tenants; everyone else stays at demand 1.
            for _ in 0..8 {
                let slot = live[(mix(&mut state) % live.len() as u64) as usize];
                pair.update(slot, 100_000 + mix(&mut state) % 1_000_000);
            }
            let raw = pair.raw();
            let live_mask = pair.full.live_mask();
            if (0..raw.len()).any(|i| live_mask[i] && raw[i] == 0) {
                zero_rounds += 1;
            }
            let want = pair.rebalance(round, &format!("round {round}"));
            assert!((0..want.len()).all(|i| !live_mask[i] || want[i] >= 1));
        }
        match kind {
            ObjectiveKind::MaxMin => assert_eq!(zero_rounds, 0, "max-min water level ≥ 1"),
            _ => assert_eq!(zero_rounds, 12, "{kind:?}: the fixup must run every round"),
        }
    }
}

/// A small fleet with occasional extreme demands (0 and `u64::MAX`): both
/// modes hold the oracle's quotas every round, the full event assigns the
/// whole budget and the compact one nothing.
#[test]
fn incremental_matches_full_scan_for_every_objective() {
    for kind in ObjectiveKind::ALL {
        let mut pair = Pair::new(kind, 10_000, 0.02, 24);
        let mut state = 0xA5F0_5EED ^ kind as u64;
        for round in 0..40 {
            // A few slots change per round, with occasional extremes.
            for _ in 0..3 {
                let slot = (mix(&mut state) % 24) as usize;
                let d = match mix(&mut state) % 5 {
                    0 => 0,
                    1 => u64::MAX,
                    _ => mix(&mut state) % 5_000,
                };
                pair.update(slot, d);
            }
            let want = pair.rebalance(round, &format!("round {round}"));
            assert_eq!(want.iter().sum::<u64>(), 10_000);
            assert_eq!(pair.full.events().last().unwrap().assigned(), 10_000);
            assert_eq!(pair.inc.events().last().unwrap().assigned(), 0);
        }
    }
}

/// Retirements and admissions between rebalances: churn moves the same
/// quotas in both modes, and every rebalance lands on the oracle.
#[test]
fn incremental_matches_full_scan_under_churn() {
    for kind in ObjectiveKind::ALL {
        let mut pair = Pair::new(kind, 4_096, 0.01, 8);
        let mut state = 0xC0FF_EE00 ^ kind as u64;
        let mut live: Vec<usize> = (0..8).collect();
        for round in 0..60 {
            match mix(&mut state) % 4 {
                0 if live.len() > 2 => {
                    let victim = live.swap_remove((mix(&mut state) % live.len() as u64) as usize);
                    pair.retire(victim);
                }
                1 => live.push(pair.admit(&format!("n{round}"))),
                _ => {
                    let slot = live[(mix(&mut state) % live.len() as u64) as usize];
                    pair.update(slot, mix(&mut state) % 3_000);
                }
            }
            pair.rebalance(round, &format!("round {round}"));
            assert_eq!(pair.full.num_live(), pair.inc.num_live());
        }
    }
}

/// The bulk `rebalance(demands)` and the delta API (`update_demand` +
/// `rebalance_dirty`) reach the oracle's quotas alike, in either mode.
#[test]
fn delta_api_matches_bulk_rebalance() {
    for kind in ObjectiveKind::ALL {
        for mode in [ControllerMode::FullScan, ControllerMode::Incremental] {
            let mk = || {
                let mut g = GlobalController::new(8_192, 0.05)
                    .with_objective_kind(kind)
                    .with_mode(mode);
                for i in 0..16 {
                    g.add_tenant(&format!("t{i}"), 512);
                }
                g
            };
            let (mut bulk, mut delta) = (mk(), mk());
            let mut state = 7u64;
            let mut demands = vec![1u64; 16];
            for round in 0..25 {
                let slot = (mix(&mut state) % 16) as usize;
                let d = mix(&mut state) % 2_000;
                demands[slot] = d;
                bulk.rebalance(round, &demands);
                delta.update_demand(slot, d);
                delta.rebalance_dirty(round);
                let want = oracle::quotas(kind, 8_192, 0.05, &[true; 16], &demands);
                assert_eq!(bulk.quotas(), want, "{kind:?} {mode:?} round {round}: bulk");
                assert_eq!(
                    delta.quotas(),
                    want,
                    "{kind:?} {mode:?} round {round}: delta"
                );
            }
        }
    }
}

/// A fleet in the regime where no rebalance needs the min-one fixup:
/// `floor_frac` 0.1 on a 16-pages-per-tenant budget yields a one-page
/// floor, so every quota is ≥ 1 however small a tenant's share rounds
/// down to. (With a zero floor, one demand-1 tenant whose share truncates
/// to 0 makes every round materialize all quotas — correct, but O(n),
/// which is exactly what the work-meter tests must not measure.)
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
/// fixup slots (`apportion_ops`), not wall-clock, so the assertion cannot
/// flake on a loaded CI host. The demand palette stays at 256 distinct
/// values, mirroring real fleets where demands are bucketed sampler
/// readings, not raw counters.
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
    let mut demands = vec![1u64; n];
    let mut state = 0xCAFE;
    for round in 0..4u64 {
        for _ in 0..16 {
            let slot = (mix(&mut state) % n as u64) as usize;
            demands[slot] = mix(&mut state) % 100_000;
            inc.update_demand(slot, demands[slot]);
        }
        inc.rebalance_dirty(round);
    }
    let quotas = inc.quotas();
    assert_eq!(quotas.len(), n);
    assert_eq!(quotas.iter().sum::<u64>(), 16 * n as u64);
    // Spot-check against the oracle once at the final state.
    let want = oracle::quotas(
        ObjectiveKind::MaxMin,
        16 * n as u64,
        0.01,
        &vec![true; n],
        &demands,
    );
    assert_eq!(quotas, want);
}
