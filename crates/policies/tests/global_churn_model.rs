//! Randomized model test for [`GlobalController`] churn bookkeeping, in
//! the style of the `FlatPageMap` vs `HashMap` model test: a brute-force
//! reference controller tracks what *must* be true of the slot table —
//! liveness, names, and above all that **all live tenants' quotas re-sum
//! exactly to the budget after every event** (admit, retire, rebalance)
//! — while long random event sequences drive the real controller under
//! every objective. The reference is deliberately dumb (it re-derives
//! everything from scratch each step), so a bookkeeping bug in the real
//! controller's incremental updates cannot hide in a matching bug here.
//! After every rebalance the quotas must also be exactly the full-scan
//! oracle's (`support/oracle.rs`) over the live composition.

#[path = "support/oracle.rs"]
mod oracle;

use proptest::prelude::*;
use tiering_policies::{ControllerMode, GlobalController, ObjectiveKind};

/// The brute-force reference: just the slot table, re-checked wholesale.
#[derive(Debug)]
struct ReferenceController {
    budget: u64,
    floor_frac: f64,
    /// One entry per registration slot: (name, live).
    slots: Vec<(String, bool)>,
}

impl ReferenceController {
    fn new(budget: u64, floor_frac: f64) -> Self {
        Self {
            budget,
            floor_frac,
            slots: Vec::new(),
        }
    }

    fn num_live(&self) -> usize {
        self.slots.iter().filter(|(_, live)| *live).count()
    }

    /// Re-derives every invariant from scratch against the real
    /// controller's observable state. `after_rebalance` additionally
    /// enforces the floor (between churn events a quota may legitimately
    /// sit below the floor of the *new* fleet size until the next
    /// rebalance, but min-one always holds).
    fn check(&self, real: &GlobalController, after_rebalance: bool, what: &str) {
        assert_eq!(real.num_tenants(), self.slots.len(), "{what}: slot count");
        assert_eq!(real.num_live(), self.num_live(), "{what}: live count");
        let quotas = real.quotas();
        let mut live_sum = 0u64;
        for (i, (name, live)) in self.slots.iter().enumerate() {
            assert_eq!(real.tenant_name(i), name, "{what}: slot {i} name");
            assert_eq!(real.is_live(i), *live, "{what}: slot {i} liveness");
            if *live {
                assert!(quotas[i] >= 1, "{what}: live slot {i} below min-one");
                live_sum += quotas[i];
            } else {
                assert_eq!(quotas[i], 0, "{what}: dead slot {i} holds pages");
            }
        }
        if self.num_live() > 0 {
            assert_eq!(
                live_sum, self.budget,
                "{what}: live quotas do not re-sum to the budget"
            );
        } else {
            assert_eq!(live_sum, 0, "{what}: parked budget leaked");
        }
        if after_rebalance && self.num_live() > 0 {
            let floor = (self.budget as f64 * self.floor_frac / self.num_live() as f64) as u64;
            assert_eq!(real.floor_pages(), floor, "{what}: floor");
            for (i, (_, live)) in self.slots.iter().enumerate() {
                if *live {
                    assert!(
                        quotas[i] >= floor.max(1),
                        "{what}: slot {i} below floor after rebalance"
                    );
                }
            }
        }
    }
}

/// SplitMix64 — derives per-step pseudo-random demands from the step
/// seed so the op list stays compact.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One scripted event: the discriminant picks admit/retire/rebalance, the
/// payload seeds the details.
fn ops() -> impl Strategy<Value = Vec<(u8, u64)>> {
    prop::collection::vec((0u8..=2, 0u64..u64::MAX), 1..60)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Long random admit/retire/rebalance interleavings, replayed against
    /// the reference for every objective: the budget is conserved after
    /// **every** event, dead slots never hold pages, live slots never drop
    /// below min-one, and the floor holds at every rebalance.
    #[test]
    fn controller_matches_reference_under_churn(
        budget in 64u64..100_000,
        floor_pct in 0u64..=50,
        script in ops(),
    ) {
        for kind in ObjectiveKind::ALL {
          // Both controller modes obey the same slot-table invariants; the
          // incremental mode additionally exercises the lazy-plan fold on
          // every churn event (materialize-then-mutate).
          for mode in [ControllerMode::FullScan, ControllerMode::Incremental] {
            let floor_frac = floor_pct as f64 / 100.0;
            let mut real = GlobalController::new(budget, floor_frac)
                .with_objective_kind(kind)
                .with_mode(mode);
            let mut model = ReferenceController::new(budget, floor_frac);

            // Seed fleet: two initial tenants (the common case).
            for name in ["a", "b"] {
                real.add_tenant(name, 1 << 16);
                model.slots.push((name.to_string(), true));
            }
            model.check(&real, false, "after seed");

            let mut at = 0u64;
            for (step, &(op, payload)) in script.iter().enumerate() {
                let what = format!("{kind:?} step {step}");
                match op {
                    // Admit, when the min-one guarantee allows another
                    // live tenant.
                    0 => {
                        if (model.num_live() as u64) < budget {
                            let name = format!("t{step}");
                            let idx = real.admit_tenant(&name, 1 << 16);
                            prop_assert_eq!(idx, model.slots.len(), "slot indices are stable");
                            model.slots.push((name, true));
                            model.check(&real, false, &format!("{what}: admit"));
                        }
                    }
                    // Retire a pseudo-random live slot, when one exists.
                    1 => {
                        let live: Vec<usize> = model
                            .slots
                            .iter()
                            .enumerate()
                            .filter(|(_, (_, l))| *l)
                            .map(|(i, _)| i)
                            .collect();
                        if !live.is_empty() {
                            let victim = live[(mix(payload) % live.len() as u64) as usize];
                            real.retire_tenant(victim);
                            model.slots[victim].1 = false;
                            model.check(&real, false, &format!("{what}: retire {victim}"));
                        }
                    }
                    // Rebalance with pseudo-random demands, when anyone is
                    // live to decide over.
                    _ => {
                        if model.num_live() > 0 {
                            let demands: Vec<u64> = (0..model.slots.len() as u64)
                                .map(|i| mix(payload ^ i) % 4_000_000)
                                .collect();
                            at += 1;
                            let event = real.rebalance(at, &demands);
                            if mode == ControllerMode::FullScan {
                                prop_assert_eq!(
                                    event.live,
                                    model.slots.iter().map(|(_, l)| *l).collect::<Vec<_>>(),
                                    "event live mask"
                                );
                            } else {
                                prop_assert!(event.live.is_empty(), "compact event");
                            }
                            model.check(&real, true, &format!("{what}: rebalance"));
                            let live = real.live_mask();
                            prop_assert_eq!(
                                real.quotas(),
                                oracle::quotas(kind, budget, floor_frac, &live, &demands),
                                "{:?} {}: rebalance ≠ oracle", mode, what
                            );
                        }
                    }
                }
            }

            // Drain: retire everyone, conserving at each step, then verify
            // the budget parks and a re-admission reclaims all of it.
            let live: Vec<usize> = model
                .slots
                .iter()
                .enumerate()
                .filter(|(_, (_, l))| *l)
                .map(|(i, _)| i)
                .collect();
            for victim in live {
                real.retire_tenant(victim);
                model.slots[victim].1 = false;
                model.check(&real, false, &format!("{kind:?} drain {victim}"));
            }
            let last = real.admit_tenant("last", 1 << 16);
            model.slots.push(("last".to_string(), true));
            model.check(&real, false, &format!("{kind:?} re-admit"));
            prop_assert_eq!(real.quota(last), budget, "sole tenant takes the parked budget");
          }
        }
    }
}
