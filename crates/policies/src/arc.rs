//! ARC (Adaptive Replacement Cache) adapted to memory tiering.
//!
//! ARC (Megiddo & Modha, FAST'03) self-tunes between recency and frequency
//! with two resident LRU lists (T1: seen once, T2: seen twice+) and two
//! ghost lists (B1/B2) steering the adaptation parameter `p`. The paper
//! implements it as a tiering baseline (§5.2): the fast tier is the cache
//! (capacity = fast-tier pages, read live), new pages allocate to the slow
//! tier, and a sampled access to a non-resident page is a "miss" that
//! promotes it.
//!
//! The paper's profiling observation — "upon a cold miss, both systems
//! directly promote the missed page... often too aggressive" (§6.1) — is a
//! direct consequence of the algorithm and reproduces here.

use tiering_mem::{PageId, Tier, TierConfig, TieredMemory};
use tiering_trace::Sample;

use crate::chain::{DemotionChain, DEMOTE_BUDGET, DEMOTE_WMARK};
use crate::list_set::ListSet;
use crate::policy::{PolicyCtx, TieringPolicy};

const T1: u8 = 0;
const T2: u8 = 1;
const B1: u8 = 2;
const B2: u8 = 3;

const LRU_NODE_NS: u64 = 8;
const META_BASE: u64 = 0x7800_0000_0000;

/// The ARC tiering policy.
#[derive(Debug)]
pub struct ArcPolicy {
    lists: ListSet,
    /// Adaptation target for |T1|, kept within the cache capacity.
    p: usize,
    chain: DemotionChain,
}

impl ArcPolicy {
    /// Builds ARC over the address space of `tier_cfg`; the cache capacity
    /// is the fast tier's, read live from the memory.
    pub fn new(tier_cfg: &TierConfig) -> Self {
        Self {
            lists: ListSet::new(tier_cfg.address_space_pages as usize, 4),
            p: 0,
            chain: DemotionChain::new(),
        }
    }

    /// Current adaptation parameter (target |T1|).
    pub fn p(&self) -> usize {
        self.p
    }

    /// Resident pages under ARC control.
    pub fn resident(&self) -> usize {
        self.lists.len(T1) + self.lists.len(T2)
    }

    /// The REPLACE subroutine: demote one resident page to make room,
    /// moving its id to the appropriate ghost list.
    fn replace(&mut self, in_b2: bool, mem: &mut TieredMemory) {
        let t1_len = self.lists.len(T1);
        let take_t1 = t1_len > 0 && (t1_len > self.p || (in_b2 && t1_len == self.p));
        let (src, ghost) = if take_t1 { (T1, B1) } else { (T2, B2) };
        let victim = match self.lists.pop_lru(src) {
            Some(v) => v,
            None => match self.lists.pop_lru(if take_t1 { T2 } else { T1 }) {
                Some(v) => v,
                None => return,
            },
        };
        let _ = mem.demote(PageId(victim as u64));
        self.lists.push_mru(ghost, victim);
    }

    fn promote(&mut self, page: PageId, mem: &mut TieredMemory) {
        if mem.fast_free() == 0 {
            self.replace(false, mem);
        }
        let _ = mem.promote(page);
    }

    /// One ARC step (Cases I–IV).
    #[inline]
    fn ingest_sample(&mut self, sample: Sample, mem: &mut TieredMemory, ctx: &mut PolicyCtx) {
        let x = sample.page.0 as u32;
        ctx.tiering_work_ns += LRU_NODE_NS;
        ctx.metadata_lines.push(META_BASE + sample.page.0 * 9);
        // The live cache size (a quota change moves it); `p ≤ c` across a shrink.
        let c = mem.topology().tier(0).capacity_pages as usize;
        self.p = self.p.min(c);
        match self.lists.which(x) {
            // Case I: resident hit → MRU of T2.
            Some(T1) | Some(T2) => {
                self.lists.touch(T2, x);
            }
            // Case II: ghost hit in B1 → grow p toward recency.
            Some(B1) => {
                let delta = (self.lists.len(B2) / self.lists.len(B1).max(1)).max(1);
                self.p = (self.p + delta).min(c);
                self.replace(false, mem);
                self.lists.remove(x);
                self.lists.push_mru(T2, x);
                self.promote(sample.page, mem);
            }
            // Case III: ghost hit in B2 → shrink p toward frequency.
            Some(B2) => {
                let delta = (self.lists.len(B1) / self.lists.len(B2).max(1)).max(1);
                self.p = self.p.saturating_sub(delta);
                self.replace(true, mem);
                self.lists.remove(x);
                self.lists.push_mru(T2, x);
                self.promote(sample.page, mem);
            }
            Some(_) => unreachable!("only four lists"),
            // Case IV: cold miss → admit to T1 (the lenient promotion).
            None => {
                // `>=`: after a shrink |T1| + |B1| may exceed c.
                let l1 = self.lists.len(T1) + self.lists.len(B1);
                if l1 >= c {
                    if self.lists.len(T1) < c {
                        self.lists.pop_lru(B1);
                        self.replace(false, mem);
                    } else if let Some(v) = self.lists.pop_lru(T1) {
                        // T1 fills the whole cache: drop its LRU entirely.
                        let _ = mem.demote(PageId(v as u64));
                    }
                } else {
                    let total = l1 + self.lists.len(T2) + self.lists.len(B2);
                    if total >= c {
                        if total >= 2 * c {
                            self.lists.pop_lru(B2);
                        }
                        if self.resident() >= c {
                            self.replace(false, mem);
                        }
                    }
                }
                if mem.tier_of(sample.page) == Some(Tier::Slow) {
                    self.promote(sample.page, mem);
                }
                if mem.tier_of(sample.page) == Some(Tier::Fast) {
                    self.lists.push_mru(T1, x);
                }
            }
        }
    }
}

impl TieringPolicy for ArcPolicy {
    fn name(&self) -> &'static str {
        "ARC"
    }

    fn preferred_alloc_tier(&self) -> Tier {
        Tier::Slow // paper §5.2: ARC/TwoQ allocate new pages on the slow tier
    }

    fn on_sample_batch(&mut self, samples: &[Sample], mem: &mut TieredMemory, ctx: &mut PolicyCtx) {
        for &sample in samples {
            self.ingest_sample(sample, mem, ctx);
        }
    }

    fn on_tick(&mut self, _now_ns: u64, mem: &mut TieredMemory, ctx: &mut PolicyCtx) {
        // Keep the rung below the cache drained on deep ladders so REPLACE
        // has somewhere to demote to (no-op on the 2-tier testbed).
        self.chain.cascade(mem, DEMOTE_WMARK, DEMOTE_BUDGET, ctx);
    }

    fn metadata_bytes(&self) -> usize {
        // The lists plus the scalars `p` and `c` a standalone ARC stores.
        self.lists.metadata_bytes() + 16
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiering_mem::{PageSize, TierRatio};

    fn setup() -> (ArcPolicy, TieredMemory) {
        // Footprint 64 pages, fast tier 16.
        let cfg = TierConfig::for_footprint(64, TierRatio::OneTo4, PageSize::Base4K);
        (ArcPolicy::new(&cfg), TieredMemory::new(cfg))
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
    fn cold_miss_promotes_immediately() {
        let (mut p, mut mem) = setup();
        let mut ctx = PolicyCtx::new();
        mem.ensure_mapped(PageId(3), Tier::Slow);
        p.on_sample_batch(&[sample(3)], &mut mem, &mut ctx);
        assert_eq!(
            mem.tier_of(PageId(3)),
            Some(Tier::Fast),
            "ARC promotes on first touch (the lenient-promotion weakness)"
        );
        assert_eq!(p.lists.which(3), Some(T1));
    }

    #[test]
    fn second_touch_moves_to_t2() {
        let (mut p, mut mem) = setup();
        let mut ctx = PolicyCtx::new();
        mem.ensure_mapped(PageId(3), Tier::Slow);
        p.on_sample_batch(&[sample(3)], &mut mem, &mut ctx);
        p.on_sample_batch(&[sample(3)], &mut mem, &mut ctx);
        assert_eq!(p.lists.which(3), Some(T2));
    }

    #[test]
    fn capacity_never_exceeded() {
        let (mut p, mut mem) = setup();
        let mut ctx = PolicyCtx::new();
        for i in 0..64u64 {
            mem.ensure_mapped(PageId(i), Tier::Slow);
        }
        // Stream far more distinct pages than capacity.
        for round in 0..4 {
            for i in 0..64u64 {
                p.on_sample_batch(&[sample((i * 7 + round) % 64)], &mut mem, &mut ctx);
                assert!(
                    mem.fast_used() <= mem.config().fast_capacity_pages,
                    "fast tier overflowed"
                );
                assert_eq!(p.resident() as u64, mem.fast_used(), "lists out of sync");
            }
        }
        assert!(mem.stats().demotions > 0, "churn must cause evictions");
    }

    #[test]
    fn ghost_hit_adapts_p() {
        let (mut p, mut mem) = setup();
        let mut ctx = PolicyCtx::new();
        for i in 0..64u64 {
            mem.ensure_mapped(PageId(i), Tier::Slow);
        }
        // Promote pages 0..8 twice so they reach T2 (shrinking T1), then
        // stream fresh pages: REPLACE now routes T1 victims into B1.
        for _ in 0..2 {
            for i in 0..8u64 {
                p.on_sample_batch(&[sample(i)], &mut mem, &mut ctx);
            }
        }
        for i in 8..40u64 {
            p.on_sample_batch(&[sample(i)], &mut mem, &mut ctx);
        }
        assert!(p.lists.len(B1) > 0, "evictions should populate B1 ghosts");
        let ghost = p.lists.peek_lru(B1).unwrap();
        let p_before = p.p();
        p.on_sample_batch(&[sample(ghost as u64)], &mut mem, &mut ctx);
        assert!(p.p() > p_before, "B1 ghost hit grows p");
        assert_eq!(p.lists.which(ghost), Some(T2));
        assert_eq!(mem.tier_of(PageId(ghost as u64)), Some(Tier::Fast));
    }

    #[test]
    fn frequent_pages_survive_scan_pollution() {
        let (mut p, mut mem) = setup();
        let mut ctx = PolicyCtx::new();
        for i in 0..64u64 {
            mem.ensure_mapped(PageId(i), Tier::Slow);
        }
        // Establish pages 0..4 as frequent (T2).
        for _ in 0..3 {
            for i in 0..4u64 {
                p.on_sample_batch(&[sample(i)], &mut mem, &mut ctx);
            }
        }
        // One-time scan over many cold pages.
        for i in 8..56u64 {
            p.on_sample_batch(&[sample(i)], &mut mem, &mut ctx);
        }
        // The frequent pages should still be resident.
        let survivors = (0..4u64)
            .filter(|&i| mem.tier_of(PageId(i)) == Some(Tier::Fast))
            .count();
        assert!(survivors >= 3, "only {survivors}/4 frequent pages survived");
    }
}
