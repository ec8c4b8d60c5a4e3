//! TwoQ (2Q) adapted to memory tiering.
//!
//! 2Q (Johnson & Shasha, VLDB'94) filters one-time accesses with a FIFO
//! admission queue: pages enter `A1in`; only pages re-referenced *after*
//! falling out of `A1in` (caught by the `A1out` ghost queue) enter the main
//! LRU `Am`. The paper uses the original parameters `Kin = maxSize/4`,
//! `Kout = maxSize/2` (§6.1), allocates new pages slow-tier first, and
//! promotes on first sampled touch — sharing ARC's lenient-promotion
//! weakness. `maxSize` is the fast tier's capacity, read live.

use tiering_mem::{PageId, Tier, TierConfig, TieredMemory};
use tiering_trace::Sample;

use crate::chain::{DemotionChain, DEMOTE_BUDGET, DEMOTE_WMARK};
use crate::list_set::ListSet;
use crate::policy::{PolicyCtx, TieringPolicy};

const A1IN: u8 = 0;
const AM: u8 = 1;
const A1OUT: u8 = 2;

const LRU_NODE_NS: u64 = 8;
const META_BASE: u64 = 0x7900_0000_0000;

/// FIFO admission-queue capacity for a cache of `c` pages (`maxSize / 4`).
fn k_in(c: usize) -> usize {
    (c / 4).max(1)
}

/// Ghost-queue capacity for a cache of `c` pages (`maxSize / 2`).
fn k_out(c: usize) -> usize {
    (c / 2).max(1)
}

/// The 2Q tiering policy.
#[derive(Debug)]
pub struct TwoQPolicy {
    lists: ListSet,
    chain: DemotionChain,
}

impl TwoQPolicy {
    /// Builds 2Q over the address space of `tier_cfg`; its queues are
    /// sized from the fast tier's live capacity.
    pub fn new(tier_cfg: &TierConfig) -> Self {
        Self {
            lists: ListSet::new(tier_cfg.address_space_pages as usize, 3),
            chain: DemotionChain::new(),
        }
    }

    /// Resident pages under 2Q control.
    pub fn resident(&self) -> usize {
        self.lists.len(A1IN) + self.lists.len(AM)
    }

    /// Frees one resident slot of a `c`-page cache per the 2Q reclaim rule.
    fn reclaim_slot(&mut self, c: usize, mem: &mut TieredMemory) {
        if self.lists.len(A1IN) > k_in(c) {
            // Evict the FIFO tail into the ghost queue.
            if let Some(victim) = self.lists.pop_lru(A1IN) {
                let _ = mem.demote(PageId(victim as u64));
                self.lists.push_mru(A1OUT, victim);
                if self.lists.len(A1OUT) > k_out(c) {
                    self.lists.pop_lru(A1OUT);
                }
            }
        } else if let Some(victim) = self.lists.pop_lru(AM) {
            // Evict from the main LRU; 2Q does not remember Am evictions.
            let _ = mem.demote(PageId(victim as u64));
        } else if let Some(victim) = self.lists.pop_lru(A1IN) {
            let _ = mem.demote(PageId(victim as u64));
            self.lists.push_mru(A1OUT, victim);
        }
    }

    fn promote(&mut self, page: PageId, c: usize, mem: &mut TieredMemory) -> bool {
        while mem.fast_free() == 0 && self.resident() > 0 {
            self.reclaim_slot(c, mem);
        }
        mem.promote(page).is_ok()
    }

    /// One 2Q step.
    #[inline]
    fn ingest_sample(&mut self, sample: Sample, mem: &mut TieredMemory, ctx: &mut PolicyCtx) {
        let x = sample.page.0 as u32;
        ctx.tiering_work_ns += LRU_NODE_NS;
        ctx.metadata_lines.push(META_BASE + sample.page.0 * 9);
        // The live cache size: a quota change moves it.
        let c = mem.topology().tier(0).capacity_pages as usize;
        match self.lists.which(x) {
            Some(AM) => {
                self.lists.touch(AM, x);
            }
            Some(A1IN) => {
                // FIFO: membership refreshes nothing.
            }
            Some(A1OUT) => {
                // Re-reference after admission-queue eviction: hot enough
                // for the main LRU.
                self.lists.remove(x);
                if self.promote(sample.page, c, mem) {
                    self.lists.push_mru(AM, x);
                }
            }
            Some(_) => unreachable!("only three lists"),
            None => {
                if mem.tier_of(sample.page) == Some(Tier::Slow) && self.promote(sample.page, c, mem)
                {
                    self.lists.push_mru(A1IN, x);
                    if self.resident() > c {
                        self.reclaim_slot(c, mem);
                    }
                } else if mem.tier_of(sample.page) == Some(Tier::Fast)
                    && self.lists.which(x).is_none()
                {
                    // Page arrived fast without 2Q knowing (first touch
                    // spill): adopt it into the admission queue.
                    self.lists.push_mru(A1IN, x);
                }
            }
        }
    }
}

impl TieringPolicy for TwoQPolicy {
    fn name(&self) -> &'static str {
        "TwoQ"
    }

    fn preferred_alloc_tier(&self) -> Tier {
        Tier::Slow
    }

    fn on_sample_batch(&mut self, samples: &[Sample], mem: &mut TieredMemory, ctx: &mut PolicyCtx) {
        for &sample in samples {
            self.ingest_sample(sample, mem, ctx);
        }
    }

    fn on_tick(&mut self, _now_ns: u64, mem: &mut TieredMemory, ctx: &mut PolicyCtx) {
        // Keep the rung below the cache drained on deep ladders so reclaim
        // has somewhere to demote to (no-op on the 2-tier testbed).
        self.chain.cascade(mem, DEMOTE_WMARK, DEMOTE_BUDGET, ctx);
    }

    fn metadata_bytes(&self) -> usize {
        // The lists plus the scalars `c`, `Kin`, `Kout` a standalone 2Q stores.
        self.lists.metadata_bytes() + 24
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiering_mem::{PageSize, TierRatio};

    fn setup() -> (TwoQPolicy, TieredMemory) {
        let cfg = TierConfig::for_footprint(64, TierRatio::OneTo4, PageSize::Base4K);
        (TwoQPolicy::new(&cfg), TieredMemory::new(cfg))
    }

    fn sample(page: u64) -> Sample {
        Sample {
            page: PageId(page),
            addr: page << 12,
            tier: Tier::Slow,
            at_ns: 0,
            is_write: false,
        }
    }

    #[test]
    fn parameters_follow_the_paper() {
        let (_, mem) = setup();
        let c = mem.topology().tier(0).capacity_pages as usize;
        assert_eq!(c, 16);
        assert_eq!(k_in(c), 4);
        assert_eq!(k_out(c), 8);
    }

    #[test]
    fn first_touch_admits_to_a1in_and_promotes() {
        let (mut p, mut mem) = setup();
        let mut ctx = PolicyCtx::new();
        mem.ensure_mapped(PageId(1), Tier::Slow);
        p.on_sample_batch(&[sample(1)], &mut mem, &mut ctx);
        assert_eq!(p.lists.which(1), Some(A1IN));
        assert_eq!(mem.tier_of(PageId(1)), Some(Tier::Fast));
    }

    #[test]
    fn one_time_pages_cycle_through_a1in_not_am() {
        let (mut p, mut mem) = setup();
        let mut ctx = PolicyCtx::new();
        for i in 0..64u64 {
            mem.ensure_mapped(PageId(i), Tier::Slow);
        }
        // A long one-time scan: nothing should reach Am.
        for i in 0..60u64 {
            p.on_sample_batch(&[sample(i)], &mut mem, &mut ctx);
        }
        assert_eq!(p.lists.len(AM), 0, "scan pages must not enter Am");
        assert!(mem.stats().demotions > 0);
    }

    #[test]
    fn reference_after_a1out_enters_am() {
        let (mut p, mut mem) = setup();
        let mut ctx = PolicyCtx::new();
        for i in 0..64u64 {
            mem.ensure_mapped(PageId(i), Tier::Slow);
        }
        // Push page 0 through A1in and out into the ghost queue: 2Q only
        // reclaims once the cache (fast tier, 16 pages) is actually full,
        // so stream enough distinct pages to exceed capacity.
        p.on_sample_batch(&[sample(0)], &mut mem, &mut ctx);
        for i in 1..20u64 {
            p.on_sample_batch(&[sample(i)], &mut mem, &mut ctx);
        }
        assert_eq!(p.lists.which(0), Some(A1OUT), "page 0 should be ghosted");
        // Re-reference: promoted into Am.
        p.on_sample_batch(&[sample(0)], &mut mem, &mut ctx);
        assert_eq!(p.lists.which(0), Some(AM));
        assert_eq!(mem.tier_of(PageId(0)), Some(Tier::Fast));
    }

    #[test]
    fn admission_queue_eviction_follows_the_current_capacity() {
        let (mut p, mut mem) = setup();
        let mut ctx = PolicyCtx::new();
        for i in 0..64u64 {
            mem.ensure_mapped(PageId(i), Tier::Slow);
        }
        // A quota grow from 16 to 48 pages: Kin becomes 12, Kout 24.
        mem.set_fast_capacity(48);
        for i in 0..48u64 {
            p.on_sample_batch(&[sample(i)], &mut mem, &mut ctx);
        }
        assert_eq!(mem.stats().demotions, 0, "no eviction while there is room");
        assert_eq!((p.lists.len(A1IN), mem.fast_used()), (48, 48));
        // Twelve more cold admissions each evict the FIFO tail, and the
        // ghost queue holds all twelve (above the old Kout of 8).
        for i in 48..60u64 {
            p.on_sample_batch(&[sample(i)], &mut mem, &mut ctx);
        }
        assert_eq!(mem.stats().demotions, 12);
        assert_eq!((p.lists.len(A1IN), p.lists.len(A1OUT)), (48, 12));
        assert_eq!(p.lists.peek_lru(A1OUT), Some(0), "FIFO order");
    }

    #[test]
    fn capacity_respected_under_churn() {
        let (mut p, mut mem) = setup();
        let mut ctx = PolicyCtx::new();
        for i in 0..64u64 {
            mem.ensure_mapped(PageId(i), Tier::Slow);
        }
        for round in 0..5u64 {
            for i in 0..64u64 {
                p.on_sample_batch(&[sample((i * 11 + round * 3) % 64)], &mut mem, &mut ctx);
                assert!(mem.fast_used() <= mem.config().fast_capacity_pages);
                assert_eq!(p.resident() as u64, mem.fast_used());
            }
        }
    }
}
