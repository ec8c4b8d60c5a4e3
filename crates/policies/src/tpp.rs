//! TPP: Transparent Page Placement for CXL-enabled tiered memory.
//!
//! TPP (Maruf et al., ASPLOS'23) is the second recency-based baseline
//! (paper §2.3.2, §5.2). Its distinguishing mechanics relative to AutoNUMA:
//!
//! * **top-tier-first allocation** with *proactive* demotion: a background
//!   reclaimer keeps a free headroom in the fast tier so new allocations
//!   and promotions never stall;
//! * **two-touch promotion filter**: a slow-tier page is promoted only when
//!   hint-faulted twice within a window (TPP checks whether the faulting
//!   page is on the active LRU), filtering single-touch cold pages slightly
//!   better than AutoNUMA;
//! * demotion picks from the inactive LRU tail (approximated here by oldest
//!   last-fault time, like the AutoNUMA model, but triggered proactively).

use tiering_mem::{PageId, Tier, TierConfig, TieredMemory};

use crate::hint_fault::HintFaultModel;
use crate::policy::{PolicyCtx, TieringPolicy};

/// A second fault must arrive within this window of the first to count as
/// "active" (the promotion filter): 150 scan intervals, so 2.3 full sweeps
/// from 65 536 pages up, 2.7 of the suite's CDN model (55–56 intervals a
/// sweep) and 6 of social (25).
const ACTIVE_WINDOW_NS: u64 = 1_500_000_000;
/// Proactive free-headroom target for the fast tier: TPP keeps it free even
/// without promotion pressure (decoupled watermarks), above the
/// `DEMOTE_WMARK` the other policies demote to.
const HEADROOM_WMARK: f64 = 0.08;

/// The TPP policy: the shared hint-fault model with TPP's two-touch
/// promotion filter and proactive reclaim trigger.
#[derive(Debug)]
pub struct TppPolicy {
    model: HintFaultModel,
}

impl TppPolicy {
    /// Builds TPP for the given address space. A full sweep takes
    /// ⌈n / 1 024⌉ 10 ms intervals below 65 536 pages and 640 ms from there
    /// up (see `HintFaultModel::new`), so the two-fault window spans a
    /// constant number of sweeps only in the second regime.
    pub fn new(tier_cfg: &TierConfig) -> Self {
        Self {
            model: HintFaultModel::new(HEADROOM_WMARK, tier_cfg),
        }
    }
}

impl TieringPolicy for TppPolicy {
    fn name(&self) -> &'static str {
        "TPP"
    }

    fn preferred_alloc_tier(&self) -> Tier {
        Tier::Fast // top-tier-first allocation
    }

    fn wants_access_hook(&self) -> bool {
        true
    }

    fn on_access_batch(
        &mut self,
        pages: &[PageId],
        now_ns: u64,
        mem: &mut TieredMemory,
        ctx: &mut PolicyCtx,
    ) -> u64 {
        // Two-touch filter: promote only when the previous fault was recent
        // (the page is on the active list).
        self.model
            .on_access_batch(pages, now_ns, mem, ctx, |fault| {
                fault.prev_fault_ns > 0
                    && now_ns.saturating_sub(fault.prev_fault_ns) < ACTIVE_WINDOW_NS
            })
    }

    fn on_tick(&mut self, now_ns: u64, mem: &mut TieredMemory, ctx: &mut PolicyCtx) {
        // Proactive reclaim keeps the headroom even before pressure (TPP's
        // signature behaviour): the trigger is the reclaim target itself.
        self.model.on_tick(now_ns, HEADROOM_WMARK, mem, ctx);
    }

    fn metadata_bytes(&self) -> usize {
        self.model.metadata_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiering_mem::{PageSize, TierRatio};

    fn setup() -> (TppPolicy, TieredMemory) {
        let cfg = TierConfig::for_footprint(512, TierRatio::OneTo8, PageSize::Base4K);
        (TppPolicy::new(&cfg), TieredMemory::new(cfg))
    }

    #[test]
    fn single_fault_does_not_promote() {
        let (mut p, mut mem) = setup();
        let mut ctx = PolicyCtx::new();
        mem.ensure_mapped(PageId(1), Tier::Slow);
        p.on_tick(0, &mut mem, &mut ctx);
        p.on_access_batch(&[PageId(1)], 100, &mut mem, &mut ctx);
        assert_eq!(
            mem.tier_of(PageId(1)),
            Some(Tier::Slow),
            "TPP's two-touch filter rejects single faults"
        );
    }

    #[test]
    fn two_recent_faults_promote() {
        let (mut p, mut mem) = setup();
        let mut ctx = PolicyCtx::new();
        mem.ensure_mapped(PageId(1), Tier::Slow);
        p.on_tick(0, &mut mem, &mut ctx);
        p.on_access_batch(&[PageId(1)], 100, &mut mem, &mut ctx);
        // Second scan re-arms the hint fault; second access within the
        // active window promotes.
        p.on_tick(20_000_000, &mut mem, &mut ctx);
        p.on_access_batch(&[PageId(1)], 20_000_100, &mut mem, &mut ctx);
        // (both faults fall inside the 1.5 s active window)
        assert_eq!(mem.tier_of(PageId(1)), Some(Tier::Fast));
    }

    #[test]
    fn widely_spaced_faults_do_not_promote() {
        let (mut p, mut mem) = setup();
        let mut ctx = PolicyCtx::new();
        mem.ensure_mapped(PageId(1), Tier::Slow);
        p.on_tick(0, &mut mem, &mut ctx);
        p.on_access_batch(&[PageId(1)], 100, &mut mem, &mut ctx);
        let far = 10_000_000_000; // 10 s later, beyond the active window
        p.on_tick(far, &mut mem, &mut ctx);
        p.on_access_batch(&[PageId(1)], far + 100, &mut mem, &mut ctx);
        assert_eq!(mem.tier_of(PageId(1)), Some(Tier::Slow));
    }

    #[test]
    fn proactive_reclaim_keeps_headroom() {
        let (mut p, mut mem) = setup();
        let mut ctx = PolicyCtx::new();
        let cap = mem.config().fast_capacity_pages;
        for i in 0..cap {
            mem.ensure_mapped(PageId(i), Tier::Fast);
        }
        assert_eq!(mem.fast_free(), 0);
        p.on_tick(0, &mut mem, &mut ctx);
        assert!(
            !mem.fast_free_below(0.08),
            "TPP reclaims proactively to its headroom target"
        );
    }

    #[test]
    fn allocates_fast_first() {
        let (p, _) = setup();
        assert_eq!(p.preferred_alloc_tier(), Tier::Fast);
    }
}
