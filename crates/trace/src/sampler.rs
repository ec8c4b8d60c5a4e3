//! PEBS-style periodic access sampling.

use tiering_mem::{PageId, Tier};

use crate::access::Access;

/// One hardware access sample, as delivered by PEBS/IBS: the virtual address
/// plus which tier served it (paper §2.3.3: "each sampled event contains the
/// exact virtual address accessed by the application and whether it was in
/// local DRAM or CXL memory").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    /// Page containing the sampled access.
    pub page: PageId,
    /// Exact sampled byte address.
    pub addr: u64,
    /// Tier that served the access.
    pub tier: Tier,
    /// Simulated time the sample was taken.
    pub at_ns: u64,
    /// Whether the sampled access was a store.
    pub is_write: bool,
}

/// Deterministic every-Nth-access sampler.
///
/// Real PEBS counts events and fires on counter overflow, which for a fixed
/// reload value is exactly an every-Nth filter. Determinism keeps simulation
/// runs reproducible.
#[derive(Debug, Clone)]
pub struct Sampler {
    period: u32,
    countdown: u32,
}

impl Sampler {
    /// Samples every `period`-th access (`period = 1` observes everything,
    /// as fault-based policies effectively do for their fault window).
    ///
    /// # Panics
    ///
    /// Panics if `period == 0`.
    pub fn new(period: u32) -> Self {
        assert!(period > 0, "sampling period must be at least 1");
        Self {
            period,
            countdown: period,
        }
    }

    /// The configured sampling period.
    pub fn period(&self) -> u32 {
        self.period
    }

    /// How many more accesses until the next one is sampled (≥ 1).
    ///
    /// Lets the engine's batched pipeline decide in one comparison whether
    /// an operation's access burst contains any sample at all — the common
    /// case at realistic periods is that it does not, and the whole
    /// per-access sampling path is skipped via [`skip`](Self::skip).
    #[inline]
    pub fn due_in(&self) -> u32 {
        self.countdown
    }

    /// Advances the sampler past `n` unsampled accesses in one step.
    ///
    /// Equivalent to `n` calls to [`observe`](Self::observe) that all return
    /// `None`; callers must ensure `n < due_in()`.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `n >= due_in()` — that would silently drop
    /// a due sample.
    #[inline]
    pub fn skip(&mut self, n: u32) {
        debug_assert!(n < self.countdown, "skip({n}) would cross a due sample");
        self.countdown -= n;
    }

    /// Advances the sampler by one access; returns whether that access is
    /// sampled. The raw primitive behind [`observe`](Self::observe), for
    /// callers (the SoA pipeline) that carry the address/page in columns and
    /// only need the selection decision.
    #[inline]
    pub fn tick(&mut self) -> bool {
        self.countdown -= 1;
        if self.countdown == 0 {
            self.countdown = self.period;
            true
        } else {
            false
        }
    }

    /// Observes one access; returns its address if this access is sampled.
    #[inline]
    pub fn observe(&mut self, access: &Access) -> Option<u64> {
        if self.tick() {
            Some(access.addr)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_every_nth_exactly() {
        let mut s = Sampler::new(5);
        let hits: Vec<usize> = (0..20)
            .filter(|&i| s.observe(&Access::read(i as u64)).is_some())
            .collect();
        assert_eq!(hits, vec![4, 9, 14, 19]);
    }

    #[test]
    fn period_one_samples_everything() {
        let mut s = Sampler::new(1);
        for i in 0..10u64 {
            assert_eq!(s.observe(&Access::read(i)), Some(i));
        }
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_period_rejected() {
        let _ = Sampler::new(0);
    }
}
