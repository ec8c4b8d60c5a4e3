//! AutoNUMA: Linux NUMA-balancing recency tiering.
//!
//! AutoNUMA "periodically scans the application address space and unmaps
//! 256 MB of pages. The time elapsed between when an unmapped page is
//! accessed and when it was unmapped is the hint fault latency. If a page
//! has hint fault latency of less than 1 second, it is promoted, regardless
//! of its historical access statistics" (paper §2.3.2).
//!
//! The two recency weaknesses the paper demonstrates arise structurally:
//! a single recent access promotes a cold page (no frequency filter), and
//! under fast-tier pressure those mispromotions crowd out genuinely hot
//! pages. Demotion follows the MGLRU configuration the paper enables:
//! pages whose last hint fault is oldest are demoted first.

use tiering_mem::{PageId, TierConfig, TieredMemory};

use crate::chain::{DEMOTE_WMARK, PROMO_WMARK};
use crate::hint_fault::HintFaultModel;
use crate::policy::{PolicyCtx, TieringPolicy};

/// Hint-fault latency below which a slow-tier page is promoted: 20 ms
/// (paper: 1 second, compressed like the scan interval).
const PROMOTE_LATENCY_NS: u64 = 20_000_000;

/// The AutoNUMA policy: the shared hint-fault model with AutoNUMA's
/// hint-fault-latency promotion test and pressure-only reclaim trigger.
#[derive(Debug)]
pub struct AutoNumaPolicy {
    model: HintFaultModel,
}

impl AutoNumaPolicy {
    /// Builds AutoNUMA for the given address space. The scanner's window
    /// scales with the footprint only from 65 536 pages up, where a full
    /// sweep takes a constant 64 intervals; below that it is 1 024 pages and
    /// the sweep takes ⌈n / 1 024⌉ (see `HintFaultModel::new`).
    pub fn new(tier_cfg: &TierConfig) -> Self {
        Self {
            model: HintFaultModel::new(DEMOTE_WMARK, tier_cfg),
        }
    }
}

impl TieringPolicy for AutoNumaPolicy {
    fn name(&self) -> &'static str {
        "AutoNUMA"
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
        // One recent access suffices: promote when the hint-fault latency
        // (unmap → access) is short, regardless of history.
        self.model
            .on_access_batch(pages, now_ns, mem, ctx, |fault| {
                now_ns.saturating_sub(fault.unmapped_ns) < PROMOTE_LATENCY_NS
            })
    }

    fn on_tick(&mut self, now_ns: u64, mem: &mut TieredMemory, ctx: &mut PolicyCtx) {
        // Reclaim only under promotion pressure (MGLRU aging: oldest hint
        // fault first), down to `DEMOTE_WMARK`.
        self.model.on_tick(now_ns, PROMO_WMARK, mem, ctx);
    }

    fn metadata_bytes(&self) -> usize {
        self.model.metadata_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiering_mem::{PageSize, Tier, TierRatio};

    fn setup() -> (AutoNumaPolicy, TieredMemory) {
        let cfg = TierConfig::for_footprint(512, TierRatio::OneTo8, PageSize::Base4K);
        (AutoNumaPolicy::new(&cfg), TieredMemory::new(cfg))
    }

    #[test]
    fn no_fault_no_overhead() {
        let (mut p, mut mem) = setup();
        let mut ctx = PolicyCtx::new();
        mem.ensure_mapped(PageId(1), Tier::Slow);
        assert_eq!(p.on_access_batch(&[PageId(1)], 100, &mut mem, &mut ctx), 0);
        assert_eq!(mem.tier_of(PageId(1)), Some(Tier::Slow));
    }

    #[test]
    fn recent_fault_promotes_even_single_access() {
        let (mut p, mut mem) = setup();
        let mut ctx = PolicyCtx::new();
        mem.ensure_mapped(PageId(1), Tier::Slow);
        p.on_tick(1_000, &mut mem, &mut ctx); // unmaps a window incl. page 1
        let cost = p.on_access_batch(&[PageId(1)], 2_000, &mut mem, &mut ctx);
        assert!(cost > 0, "hint fault must cost time");
        assert_eq!(
            mem.tier_of(PageId(1)),
            Some(Tier::Fast),
            "one recent access suffices for promotion (the recency weakness)"
        );
    }

    #[test]
    fn old_fault_does_not_promote() {
        let (mut p, mut mem) = setup();
        let mut ctx = PolicyCtx::new();
        mem.ensure_mapped(PageId(1), Tier::Slow);
        p.on_tick(1_000, &mut mem, &mut ctx);
        // Access arrives 2 simulated seconds later: above the 1 s threshold.
        let cost = p.on_access_batch(&[PageId(1)], 2_001_001_000, &mut mem, &mut ctx);
        assert!(cost > 0);
        assert_eq!(mem.tier_of(PageId(1)), Some(Tier::Slow));
    }

    #[test]
    fn fault_fires_once_until_rescanned() {
        let (mut p, mut mem) = setup();
        let mut ctx = PolicyCtx::new();
        mem.ensure_mapped(PageId(3), Tier::Fast);
        p.on_tick(0, &mut mem, &mut ctx);
        assert!(p.on_access_batch(&[PageId(3)], 10, &mut mem, &mut ctx) > 0);
        assert_eq!(p.on_access_batch(&[PageId(3)], 20, &mut mem, &mut ctx), 0);
    }

    #[test]
    fn pressure_demotes_stalest_pages() {
        let (mut p, mut mem) = setup();
        let mut ctx = PolicyCtx::new();
        let cap = mem.config().fast_capacity_pages;
        for i in 0..cap {
            mem.ensure_mapped(PageId(i), Tier::Fast);
        }
        // Fault page 0 recently so it is "fresh".
        p.on_tick(0, &mut mem, &mut ctx);
        let t = 10_000_000_000;
        p.on_tick(t, &mut mem, &mut ctx); // rescan
        p.on_access_batch(&[PageId(0)], t + 1_000, &mut mem, &mut ctx);
        // Trigger pressure demotion.
        p.model.reclaim(t + 2_000, &mut mem, &mut ctx);
        assert!(mem.stats().demotions > 0);
        assert_eq!(
            mem.tier_of(PageId(0)),
            Some(Tier::Fast),
            "recently faulted page survives MGLRU-style demotion"
        );
    }

    #[test]
    fn metadata_is_two_words_per_page() {
        let cfg = TierConfig::for_footprint(1_000, TierRatio::OneTo8, PageSize::Base4K);
        let p = AutoNumaPolicy::new(&cfg);
        assert_eq!(p.metadata_bytes(), 16_000);
    }
}
