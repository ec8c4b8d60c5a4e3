//! Phase-shift composition: a [`Workload`] that switches between underlying
//! generators at operation thresholds.
//!
//! Long-horizon tiering scenarios are diurnal — a cache serves interactive
//! traffic by day and batch scans by night, and policy rankings shift with
//! the phase (the CXL characterization study in PAPERS.md measures exactly
//! this under time-varying traces). [`PhasedWorkload`] models it by
//! chaining generators: each phase runs its workload for a fixed op budget
//! (or until the inner generator ends early), then hands off to the next.
//!
//! Phase boundaries are keyed on the *op counter*, not the clock, so a
//! phased workload is batchable whenever its current phase is.
//! [`fill_batch`](Workload::fill_batch) caps each request at the ops left
//! in the phase, and a call that reaches the boundary of a phase whose
//! output depends on the clock stops there, so that phase's first op is
//! generated at the clock of its own call, as in one-op pulls.

use tiering_trace::{AccessBatch, Workload};

struct Phase {
    /// Op budget for this phase (the generator may end earlier).
    ops: u64,
    workload: Box<dyn Workload>,
}

impl std::fmt::Debug for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Phase")
            .field("ops", &self.ops)
            .field("workload", &self.workload.name())
            .finish()
    }
}

/// A sequence of workload phases executed back to back, switching at op
/// thresholds. Built with [`PhasedWorkload::new`] + [`phase`](Self::phase).
#[derive(Debug, Default)]
pub struct PhasedWorkload {
    phases: Vec<Phase>,
    current: usize,
    done_in_phase: u64,
    /// `"phased(a>b>c)"` — rebuilt as phases are added.
    name: String,
}

impl PhasedWorkload {
    /// An empty composition (yields no ops until phases are added).
    pub fn new() -> Self {
        Self {
            phases: Vec::new(),
            current: 0,
            done_in_phase: 0,
            name: "phased()".to_string(),
        }
    }

    /// Appends a phase: run `workload` for at most `ops` operations, then
    /// switch to the next phase.
    ///
    /// # Panics
    ///
    /// Panics if `ops` is zero — a zero-length phase would be
    /// indistinguishable from no phase at all.
    #[must_use]
    pub fn phase(mut self, ops: u64, workload: Box<dyn Workload>) -> Self {
        assert!(ops > 0, "a phase must run at least one op");
        self.phases.push(Phase { ops, workload });
        self.name = format!(
            "phased({})",
            self.phases
                .iter()
                .map(|p| p.workload.name())
                .collect::<Vec<_>>()
                .join(">")
        );
        self
    }

    /// Index of the phase that will serve the next op (assuming no early
    /// exhaustion), or `None` when all phases are spent.
    fn serving_phase(&self) -> Option<usize> {
        let mut idx = self.current;
        if idx < self.phases.len() && self.done_in_phase >= self.phases[idx].ops {
            idx += 1;
        }
        (idx < self.phases.len()).then_some(idx)
    }

    /// Moves `current` onto the serving phase, resetting the per-phase
    /// counter when crossing a threshold. Returns `false` when spent.
    fn settle(&mut self) -> bool {
        while self.current < self.phases.len()
            && self.done_in_phase >= self.phases[self.current].ops
        {
            self.current += 1;
            self.done_in_phase = 0;
        }
        self.current < self.phases.len()
    }
}

impl Workload for PhasedWorkload {
    /// The largest phase footprint: phases share the address space
    /// sequentially, so peak residency is the biggest phase, not the sum.
    fn footprint_bytes(&self) -> u64 {
        self.phases
            .iter()
            .map(|p| p.workload.footprint_bytes())
            .max()
            .unwrap_or(0)
    }

    fn name(&self) -> &str {
        &self.name
    }

    /// Batchable exactly when the phase about to serve is: thresholds are
    /// op-keyed (never clock-keyed), and `fill_batch` stops before a phase
    /// that is not batchable.
    fn batchable_now(&self) -> bool {
        match self.serving_phase() {
            Some(idx) => self.phases[idx].workload.batchable_now(),
            None => true, // spent: fill_batch returns 0 regardless
        }
    }

    fn fill_batch(&mut self, now_ns: u64, max_ops: usize, batch: &mut AccessBatch) -> usize {
        let mut filled = 0;
        while filled < max_ops && self.settle() {
            let phase = &mut self.phases[self.current];
            if filled > 0 && !phase.workload.batchable_now() {
                // Its next op depends on the clock: it runs in a call of
                // its own.
                break;
            }
            let budget = phase.ops - self.done_in_phase;
            let room = (max_ops - filled).min(usize::try_from(budget).unwrap_or(usize::MAX));
            let n = phase.workload.fill_batch(now_ns, room, batch);
            self.done_in_phase += n as u64;
            filled += n;
            if n == 0 {
                // The generator ended before its op budget: move on.
                self.current += 1;
                self.done_in_phase = 0;
            }
        }
        filled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SequentialScanWorkload, ZipfPageWorkload};

    fn diurnal() -> PhasedWorkload {
        PhasedWorkload::new()
            .phase(150, Box::new(ZipfPageWorkload::new(256, 1.1, 100_000, 1)))
            .phase(100, Box::new(SequentialScanWorkload::new(512, 1_000, 1)))
            .phase(150, Box::new(ZipfPageWorkload::new(256, 0.7, 100_000, 2)))
    }

    #[test]
    fn switches_phases_at_thresholds() {
        let mut w = diurnal();
        assert_eq!(w.name(), "phased(zipf-256p-t1.1>seq-scan>zipf-256p-t0.7)");
        let mut out = Vec::new();
        let mut count = 0u64;
        while w.next_op(0, &mut out).is_some() {
            out.clear();
            count += 1;
        }
        assert_eq!(count, 400, "150 + 100 + 150 ops across the three phases");
    }

    #[test]
    fn early_exhaustion_advances_to_next_phase() {
        // Middle generator holds only 20 ops against a 1000-op budget.
        let mut w = PhasedWorkload::new()
            .phase(50, Box::new(ZipfPageWorkload::new(64, 1.0, 100_000, 3)))
            .phase(1_000, Box::new(ZipfPageWorkload::new(64, 1.0, 20, 4)))
            .phase(30, Box::new(ZipfPageWorkload::new(64, 1.0, 100_000, 5)));
        let mut out = Vec::new();
        let mut count = 0u64;
        while w.next_op(0, &mut out).is_some() {
            out.clear();
            count += 1;
        }
        assert_eq!(count, 50 + 20 + 30);
    }

    #[test]
    fn fill_batch_equals_next_op_across_boundaries() {
        let mut via_next = diurnal();
        let mut via_fill = diurnal();
        let mut buf = Vec::new();
        // Batch size 61 never divides the 150/100/150 thresholds, so every
        // boundary lands mid-batch.
        for round in 0..10 {
            let mut b = AccessBatch::with_capacity(61, 61);
            let nb = via_fill.fill_batch(0, 61, &mut b);
            assert_eq!(b.len(), nb, "round {round}");
            for i in 0..nb {
                let (op, s, e) = b.op_bounds(i);
                buf.clear();
                assert_eq!(
                    via_next.next_op(0, &mut buf),
                    Some(op),
                    "round {round} op {i}"
                );
                let got: Vec<_> = (s..e).map(|k| b.access(k)).collect();
                assert_eq!(got, buf, "round {round} op {i}");
            }
            if nb < 61 {
                assert_eq!(via_next.next_op(0, &mut buf), None, "round {round}");
            }
        }
    }

    #[test]
    fn footprint_is_the_largest_phase() {
        let w = PhasedWorkload::new()
            .phase(10, Box::new(ZipfPageWorkload::new(100, 1.0, 10, 1)))
            .phase(10, Box::new(ZipfPageWorkload::new(400, 1.0, 10, 2)));
        assert_eq!(
            w.footprint_bytes(),
            ZipfPageWorkload::new(400, 1.0, 10, 2).footprint_bytes()
        );
    }

    #[test]
    fn empty_composition_yields_nothing() {
        let mut w = PhasedWorkload::new();
        assert_eq!(w.next_op(0, &mut Vec::new()), None);
        assert!(w.batchable_now());
        assert_eq!(w.footprint_bytes(), 0);
    }
}
