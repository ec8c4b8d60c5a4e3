//! Demotion chains: cascading watermark pressure down an N-tier ladder.
//!
//! On two tiers, watermark demotion ends at "slow" — there is nowhere
//! colder. On a ladder (DRAM → CXL → NVMe → …) the same pressure must
//! *cascade*: demoting fast-tier excess fills the next rung, whose own
//! watermark then pushes its coldest residents another hop down, and so on
//! to the bottom (TPP's multi-NUMA-node demotion targets work exactly this
//! way). [`DemotionChain`] packages that cascade so every watermark policy
//! can bolt it onto its existing 2-tier demotion logic: on a 2-tier memory
//! there are no middle rungs and [`cascade`](DemotionChain::cascade) is a
//! structural no-op — zero scans, zero charge, zero state change — which is
//! what keeps the 2-tier golden trajectories byte-identical.
//!
//! The fast-tier counterpart the recency policies share, the two-pass
//! reclaim ([`reclaim_two_pass`]), lives beside it: same sweep primitive,
//! same per-entry charge.

use tiering_mem::{PageId, TieredMemory};

use crate::policy::PolicyCtx;

/// Fast-tier free fraction below which watermark demotion starts
/// (PROMO_WMARK, paper §4.3).
pub(crate) const PROMO_WMARK: f64 = 0.02;
/// Free fraction at which demotion stops (DEMOTE_WMARK, paper §4.3); the
/// cascade keeps every middle rung of a ladder at it too.
pub(crate) const DEMOTE_WMARK: f64 = 0.06;
/// Per-call demotion budget of the policies with no scan budget of their
/// own: ARC's and 2Q's cascade, and the hint-fault model's reclaim passes
/// and cascade. ARC and 2Q have no watermark machinery — the cache *is* the
/// fast tier — but on an N-tier ladder their demotions land on the next
/// rung down, which must in turn drain or they wedge against a full rung.
pub(crate) const DEMOTE_BUDGET: u64 = 4_096;

/// Cost charged per page-table entry walked by a cascade sweep, by the
/// recency reclaims ([`reclaim_two_pass`]) and by the hint-fault scanner's
/// unmap: a kernel page-table step per entry, twice HybridTier's sequential
/// userspace pagemap read.
pub(crate) const RECLAIM_ENTRY_NS: u64 = 10;

/// The two-pass fast-tier reclaim the recency policies share (TPP and
/// AutoNUMA through the hint-fault model, NeoMem on its device counters):
/// while the fast tier's free fraction is (exactly) below `wmark`, sweep
/// `hand` over fast-tier residents — the first pass demotes only pages
/// `is_cold` accepts, the second anything — walking at most
/// `max_walk_per_pass` entries (and at most one revolution) per pass.
pub(crate) fn reclaim_two_pass(
    mem: &mut TieredMemory,
    hand: &mut u64,
    wmark: f64,
    max_walk_per_pass: u64,
    ctx: &mut PolicyCtx,
    is_cold: impl Fn(PageId) -> bool,
) {
    let budget = max_walk_per_pass.min(mem.address_space_pages());
    for pass in 0..2 {
        let mut walked = 0;
        while mem.fast_free_below(wmark) && walked < budget {
            let (page, step) = mem.next_resident(0, hand, budget - walked);
            walked += step;
            ctx.tiering_work_ns += step * RECLAIM_ENTRY_NS;
            let Some(page) = page else { break };
            if pass == 1 || is_cold(page) {
                let _ = mem.demote(page);
            }
        }
        if !mem.fast_free_below(wmark) {
            break;
        }
    }
}

/// Per-rung clock cursors driving watermark cascades down a tier ladder.
///
/// One instance lives inside each watermark policy; cursors persist across
/// ticks so successive sweeps resume where the last one stopped (the same
/// clock discipline the 2-tier demotion scans use).
#[derive(Debug, Clone, Default)]
pub struct DemotionChain {
    /// Clock cursor per ladder rung (grown on first use).
    cursors: Vec<u64>,
}

impl DemotionChain {
    /// Creates a chain with no per-rung state yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cascades watermark pressure down every *middle* rung of the ladder:
    /// for each tier `t` in `1..bottom`, while `t`'s free fraction is
    /// (exactly) below `wmark`, clock-scan the address space demoting
    /// residents of `t` one hop toward `t + 1`, up to `max_per_tier` page
    /// moves per rung per call. The fast tier (rung 0) is *not* touched —
    /// that is the policy's own demotion logic — and on a 2-tier memory
    /// the middle range is empty, making this a no-op.
    ///
    /// Returns the number of pages moved; scan work is charged to `ctx` at
    /// the same per-entry rate the 2-tier demotion scans use.
    pub fn cascade(
        &mut self,
        mem: &mut TieredMemory,
        wmark: f64,
        max_per_tier: u64,
        ctx: &mut PolicyCtx,
    ) -> u64 {
        let bottom = mem.n_tiers() - 1;
        if bottom < 2 {
            return 0;
        }
        if self.cursors.len() < bottom {
            self.cursors.resize(bottom, 0);
        }
        let n = mem.address_space_pages();
        let mut moved_total = 0u64;
        for t in 1..bottom {
            let mut moved = 0u64;
            let mut walked = 0u64;
            // Bound the sweep by one full revolution: if a rung is over
            // watermark but holds nothing demotable (everything already
            // moved this call), stop rather than spin.
            while mem.tier_free_below(t, wmark) && moved < max_per_tier && walked < n {
                let (page, step) = mem.next_resident(t, &mut self.cursors[t], n - walked);
                walked += step;
                ctx.tiering_work_ns += step * RECLAIM_ENTRY_NS;
                let Some(page) = page else { break };
                if mem.demote_toward(page, t + 1).is_ok() {
                    moved += 1;
                }
            }
            moved_total += moved;
        }
        moved_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiering_mem::{PageId, PageSize, Tier, TierConfig, TierTopology, TieredMemory};

    #[test]
    fn two_tier_cascade_is_a_structural_noop() {
        let cfg = TierConfig::for_footprint(512, tiering_mem::TierRatio::OneTo8, PageSize::Base4K);
        let mut mem = TieredMemory::new(cfg);
        for i in 0..512 {
            mem.ensure_mapped(PageId(i), Tier::Fast);
        }
        let mut chain = DemotionChain::new();
        let mut ctx = PolicyCtx::new();
        let before = mem.stats();
        assert_eq!(chain.cascade(&mut mem, 0.9, 4_096, &mut ctx), 0);
        assert_eq!(mem.stats(), before, "no migrations");
        assert_eq!(ctx.tiering_work_ns, 0, "no scan work charged");
        assert!(chain.cursors.is_empty(), "no per-rung state allocated");
    }

    #[test]
    fn cascade_drains_a_pressured_middle_rung() {
        // dram 10 / cxl 40 / nvme 80.
        let topo = TierTopology::three_tier_dram_cxl_nvme(80, PageSize::Base4K);
        let mut mem = TieredMemory::with_topology(topo);
        for i in 0..40 {
            mem.ensure_mapped(PageId(i), Tier::Slow); // fills cxl (tier 1)
        }
        assert_eq!(mem.tier_free(1), 0);
        let mut chain = DemotionChain::new();
        let mut ctx = PolicyCtx::new();
        let moved = chain.cascade(&mut mem, 0.1, 4_096, &mut ctx);
        assert!(moved > 0);
        assert!(
            !mem.tier_free_below(1, 0.1),
            "cxl pressure relieved: free frac {} of capacity",
            mem.tier_free(1)
        );
        assert_eq!(mem.tier_used(2), moved, "excess landed one rung down");
        assert!(ctx.tiering_work_ns > 0, "scan work charged");
    }

    #[test]
    fn cascade_respects_the_per_tier_move_budget() {
        let topo = TierTopology::three_tier_dram_cxl_nvme(80, PageSize::Base4K);
        let mut mem = TieredMemory::with_topology(topo);
        for i in 0..40 {
            mem.ensure_mapped(PageId(i), Tier::Slow);
        }
        let mut chain = DemotionChain::new();
        let mut ctx = PolicyCtx::new();
        assert_eq!(chain.cascade(&mut mem, 0.5, 3, &mut ctx), 3);
        assert_eq!(mem.tier_used(2), 3);
    }

    #[test]
    fn cascade_terminates_when_nothing_is_demotable() {
        // Four rungs; overfill cxl while nvme (tier 2) is sized so the
        // cascade keeps pressure below — one revolution per rung, no spin.
        let topo = TierTopology::four_tier_archive(256, PageSize::Base4K);
        let mut mem = TieredMemory::with_topology(topo);
        for i in 0..mem.address_space_pages() {
            mem.ensure_mapped(PageId(i), Tier::Slow);
        }
        let mut chain = DemotionChain::new();
        let mut ctx = PolicyCtx::new();
        // Absurd watermark: every rung always "pressured". Must still
        // return (bounded by one revolution + budget per rung).
        let moved = chain.cascade(&mut mem, 1.0, u64::MAX, &mut ctx);
        let again = chain.cascade(&mut mem, 1.0, u64::MAX, &mut ctx);
        assert!(moved >= again, "progress is monotone, not oscillating");
    }
}
