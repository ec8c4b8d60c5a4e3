//! Static placement baselines.

use tiering_mem::Tier;

use crate::policy::TieringPolicy;

/// The all-fast-tier upper bound (paper Figure 11): run with a
/// [`TierConfig::all_fast`](tiering_mem::TierConfig::all_fast) configuration
/// so every page allocates fast and no tiering ever happens.
#[derive(Debug, Clone, Copy, Default)]
pub struct AllFastPolicy;

impl AllFastPolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        Self
    }
}

impl TieringPolicy for AllFastPolicy {
    fn name(&self) -> &'static str {
        "AllFast"
    }

    fn preferred_alloc_tier(&self) -> Tier {
        Tier::Fast
    }

    fn metadata_bytes(&self) -> usize {
        0
    }
}

/// First-touch placement with no migrations: pages fill the fast tier in
/// allocation order and then spill to slow — Linux's default behaviour with
/// NUMA balancing off, and the "no tiering" lower bound.
#[derive(Debug, Clone, Copy, Default)]
pub struct FirstTouchPolicy;

impl FirstTouchPolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        Self
    }
}

impl TieringPolicy for FirstTouchPolicy {
    fn name(&self) -> &'static str {
        "FirstTouch"
    }

    fn preferred_alloc_tier(&self) -> Tier {
        Tier::Fast
    }

    fn metadata_bytes(&self) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyCtx;
    use tiering_mem::{PageId, PageSize, TierConfig, TieredMemory};
    use tiering_trace::Sample;

    #[test]
    fn all_fast_never_migrates() {
        let cfg = TierConfig::all_fast(100, PageSize::Base4K);
        let mut mem = TieredMemory::new(cfg);
        let mut p = AllFastPolicy::new();
        let mut ctx = PolicyCtx::new();
        for i in 0..100u64 {
            mem.ensure_mapped(PageId(i), p.preferred_alloc_tier());
        }
        p.on_sample_batch(
            &[Sample {
                page: PageId(0),
                addr: 0,
                tier: Tier::Fast,
                at_ns: 0,
                is_write: false,
            }],
            &mut mem,
            &mut ctx,
        );
        p.on_tick(0, &mut mem, &mut ctx);
        assert_eq!(mem.stats().promotions + mem.stats().demotions, 0);
        assert_eq!(mem.fast_used(), 100);
        assert_eq!(p.metadata_bytes(), 0);
    }

    #[test]
    fn first_touch_spills_to_slow() {
        let cfg = TierConfig {
            fast_capacity_pages: 10,
            slow_capacity_pages: 100,
            page_size: PageSize::Base4K,
            address_space_pages: 100,
        };
        let mut mem = TieredMemory::new(cfg);
        let p = FirstTouchPolicy::new();
        for i in 0..50u64 {
            mem.ensure_mapped(PageId(i), p.preferred_alloc_tier());
        }
        assert_eq!(mem.fast_used(), 10);
        assert_eq!(mem.slow_used(), 40);
    }
}
