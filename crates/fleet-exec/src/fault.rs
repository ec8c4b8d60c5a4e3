//! Deterministic fault injection: the chaos harness the executor ships
//! with.
//!
//! A [`FaultPlan`] is interpreted by the coordinator's worker shell (the
//! thread a [`ShardWorker`](crate::ShardWorker) runs on), not by the
//! worker itself — so the *real* failure-detection paths are exercised: a
//! kill is an actual thread exit (the coordinator sees a channel
//! disconnect, exactly like a dead host), a delay is a real sleep past the
//! response timeout, and corruption damages the real artifact before it
//! is sent. Plans are data: either hand-written for targeted tests or
//! generated from a seed ([`FaultPlan::seeded`]) with **no wall-clock
//! randomness**, so every chaotic run is replayable.

use std::time::Duration;

use tiering_runner::derive_seed;

/// What goes wrong, and when relative to the shard attempt it targets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultKind {
    /// The worker dies *before* running the shard: its thread exits
    /// without producing anything, like a host lost between assignment
    /// and start. Detected as a channel disconnect.
    KillBefore,
    /// The worker dies *mid-shard*: the work runs (and is wasted) but no
    /// result is ever sent. Detected as a channel disconnect.
    KillMid,
    /// The worker dies *after* responding: the result arrives, then the
    /// worker is gone when the next shard is offered.
    KillAfter,
    /// The response is held back for the given duration — long enough
    /// (by the test's choice) to trip the coordinator's response timeout
    /// and exercise the retry/stale-result paths.
    Delay(Duration),
    /// The artifact is structurally damaged
    /// ([`ShardArtifact::corrupt`](crate::ShardArtifact::corrupt)) before
    /// sending; the validator must reject it.
    Corrupt,
    /// The artifact is cut short
    /// ([`ShardArtifact::truncate`](crate::ShardArtifact::truncate))
    /// before sending — a partially-written shard json.
    Truncate,
}

impl FaultKind {
    /// This fault, armed against `worker`'s next shard attempt.
    pub fn on(self, worker: usize) -> Fault {
        Fault {
            worker,
            shard: None,
            kind: self,
        }
    }

    /// This fault, armed against `worker`'s next attempt at shard
    /// index `shard` specifically.
    pub fn on_shard(self, worker: usize, shard: usize) -> Fault {
        Fault {
            worker,
            shard: Some(shard),
            kind: self,
        }
    }

    /// Whether this fault permanently removes the worker.
    fn is_kill(&self) -> bool {
        matches!(
            self,
            FaultKind::KillBefore | FaultKind::KillMid | FaultKind::KillAfter
        )
    }
}

/// One armed fault: a [`FaultKind`] bound to a worker (and optionally to
/// one shard index). Each fault fires **once**, on the first matching
/// attempt, then disarms — except that a kill is permanent by nature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fault {
    /// Index of the targeted worker (coordinator order).
    pub worker: usize,
    /// Shard index this fault waits for; `None` fires on the worker's
    /// next attempt at any shard.
    pub shard: Option<usize>,
    /// What happens.
    pub kind: FaultKind,
}

/// A deterministic schedule of injected failures for one coordinator run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// The empty plan: nothing goes wrong.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// A plan from an explicit fault list.
    pub fn new(faults: Vec<Fault>) -> Self {
        FaultPlan { faults }
    }

    /// Arms one more fault.
    pub fn push(&mut self, fault: Fault) {
        self.faults.push(fault);
    }

    /// The armed faults, in arming order.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// How many distinct workers this plan kills.
    pub fn workers_killed(&self) -> usize {
        let mut killed: Vec<usize> = self
            .faults
            .iter()
            .filter(|f| f.kind.is_kill())
            .map(|f| f.worker)
            .collect();
        killed.sort_unstable();
        killed.dedup();
        killed.len()
    }

    /// Splits the plan into per-worker fault queues for `workers` workers
    /// (plan order preserved within each worker).
    pub(crate) fn per_worker(&self, workers: usize) -> Vec<Vec<Fault>> {
        let mut split = vec![Vec::new(); workers];
        for f in &self.faults {
            if f.worker < workers {
                split[f.worker].push(f.clone());
            }
        }
        split
    }

    /// A pseudo-random plan derived **only** from `seed` (via the sweep
    /// infrastructure's own [`derive_seed`] mixer — no wall clock, no
    /// global RNG): between 1 and `workers + 2` faults over `workers`
    /// workers and `shards` shard indices, guaranteed to leave **at least
    /// one worker unkilled** so the sweep can always complete. `delay` is
    /// the duration used for generated `Delay` faults; pass something
    /// comfortably past the coordinator's response timeout.
    pub fn seeded(seed: u64, workers: usize, shards: usize, delay: Duration) -> Self {
        assert!(workers > 0, "a fleet needs at least one worker");
        let mut state = seed;
        let mut next = |bound: u64| -> u64 {
            state = derive_seed(state, 0x5EED_FA07);
            if bound == 0 {
                0
            } else {
                state % bound
            }
        };
        let count = 1 + next(workers as u64 + 2) as usize;
        let mut plan = FaultPlan::none();
        let mut killed = vec![false; workers];
        for _ in 0..count {
            let worker = next(workers as u64) as usize;
            let shard = match next(3) {
                0 => None,
                _ => Some(next(shards.max(1) as u64) as usize),
            };
            let mut kind = match next(6) {
                0 => FaultKind::KillBefore,
                1 => FaultKind::KillMid,
                2 => FaultKind::KillAfter,
                3 => FaultKind::Delay(delay),
                4 => FaultKind::Corrupt,
                _ => FaultKind::Truncate,
            };
            if kind.is_kill() {
                let would_kill =
                    killed.iter().filter(|k| **k).count() + usize::from(!killed[worker]);
                if would_kill >= workers {
                    // Never kill the last survivor: downgrade to a
                    // recoverable fault instead.
                    kind = FaultKind::Corrupt;
                } else {
                    killed[worker] = true;
                }
            }
            plan.push(Fault {
                worker,
                shard,
                kind,
            });
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_reproducible_and_survivable() {
        for seed in 0..200u64 {
            for workers in 1..5usize {
                let a = FaultPlan::seeded(seed, workers, 7, Duration::from_millis(50));
                let b = FaultPlan::seeded(seed, workers, 7, Duration::from_millis(50));
                assert_eq!(a, b, "same seed must give the same plan");
                assert!(!a.is_empty(), "seeded plans always inject something");
                assert!(
                    a.workers_killed() < workers,
                    "seed {seed}: plan kills all {workers} workers: {a:?}"
                );
            }
        }
    }

    #[test]
    fn seeds_vary_plans() {
        let distinct: std::collections::HashSet<String> = (0..50u64)
            .map(|s| {
                format!(
                    "{:?}",
                    FaultPlan::seeded(s, 3, 6, Duration::from_millis(10))
                )
            })
            .collect();
        assert!(
            distinct.len() > 25,
            "seeded plans barely vary: {distinct:?}"
        );
    }

    #[test]
    fn per_worker_split_preserves_order_and_targets() {
        let plan = FaultPlan::new(vec![
            FaultKind::Corrupt.on(1),
            FaultKind::KillMid.on_shard(0, 3),
            FaultKind::Truncate.on(1),
        ]);
        let split = plan.per_worker(2);
        assert_eq!(split[0], vec![FaultKind::KillMid.on_shard(0, 3)]);
        assert_eq!(
            split[1],
            vec![FaultKind::Corrupt.on(1), FaultKind::Truncate.on(1)]
        );
        assert_eq!(plan.workers_killed(), 1);
    }
}
