//! Memtis: frequency-based tiering with exact per-page counters.
//!
//! Memtis (Lee et al., SOSP'23) is the state-of-the-art frequency-based
//! system the paper compares against most closely. It tracks PEBS samples
//! in *exact* per-page counters (16 B of metadata per 4 KiB page attached to
//! `struct page`, paper §2.3.3), maintains a global hotness histogram from
//! which it derives the promotion threshold for the fast-tier capacity, and
//! keeps the histogram fresh by halving all counters every cooling period
//! (EMA with decay factor 2, §2.3.2).
//!
//! The two weaknesses the paper demonstrates are reproduced structurally:
//!
//! * *slow adaptation* — a formerly hot page keeps a high EMA score for
//!   several cooling periods after turning cold (Figure 3a), so it lingers
//!   in the fast tier;
//! * *cache-hostile metadata* — every sample updates a 16 B/page record
//!   reached through a page-table-like walk, touching several metadata
//!   cache lines with poor locality (§3.3, Algorithm 1).

use tiering_mem::{PageId, Tier, TierConfig, TieredMemory};
use tiering_trace::Sample;

use crate::chain::{DemotionChain, DEMOTE_WMARK, PROMO_WMARK};
use crate::histogram::HotnessHistogram;
use crate::policy::{PolicyCtx, TieringPolicy};

const META_BASE: u64 = 0x7600_0000_0000;
const LEVEL2_BASE: u64 = 0x7680_0000_0000;
const LEVEL3_BASE: u64 = 0x76C0_0000_0000;
const HIST_BASE: u64 = 0x7700_0000_0000;
/// Cost charged per page-table entry a demotion scan walks: Memtis reads
/// each page's record through its multi-level table (three lines per
/// entry, [`MemtisPolicy::record_meta_lines`]), so twice a reclaim step.
const PTE_ENTRY_NS: u64 = 20;
const SYSCALL_NS: u64 = 1_500;
/// Lower bound on the derived hotness threshold.
const MIN_THRESHOLD: u32 = 2;
/// Max pages examined per demotion scan call.
const MAX_SCAN_PER_CALL: u64 = 16_384;
/// Pages demote only when their count falls below this (Memtis demotes from
/// its *cold* set — the lowest histogram region — not everything below the
/// promotion threshold; a warm page stays until cooling erodes it, which is
/// precisely the paper's adaptation critique).
const DEMOTE_BELOW: u32 = 2;
/// Background management overhead per fast-tier page per tick, in
/// nanoseconds ×1000 (the paper observes Memtis "performs additional
/// background activities that result in higher runtime overhead" as the
/// fast tier grows, §6.1).
const BACKGROUND_NS_PER_KPAGE: u64 = 3_000;

/// Configuration of [`MemtisPolicy`].
#[derive(Debug, Clone)]
pub struct MemtisConfig {
    /// Cooling period in samples (the paper's Figure 3b sweeps this;
    /// Memtis's default at full scale is 2M samples).
    pub cool_samples: u64,
}

impl Default for MemtisConfig {
    fn default() -> Self {
        Self {
            cool_samples: 200_000,
        }
    }
}

/// The Memtis tiering system.
#[derive(Debug)]
pub struct MemtisPolicy {
    config: MemtisConfig,
    /// Exact access counter per page (the counting half of the 16 B/page
    /// record).
    counts: Vec<u32>,
    hist: HotnessHistogram,
    threshold: u32,
    samples_seen: u64,
    /// Samples until the next cooling pass (countdown form of
    /// `samples_seen % cool_samples == 0`, sparing the per-sample
    /// division).
    cool_in: u64,
    scan_cursor: u64,
    chain: DemotionChain,
    /// Physical pages across both tiers (struct-page metadata is per
    /// physical page, not per mapped page). Sized once at construction on
    /// purpose: a quota change does not move the Table 4 charge.
    physical_pages: u64,
}

/// Histogram levels (counts clamp here for thresholding purposes).
const MAX_LEVEL: u32 = 63;

impl MemtisPolicy {
    /// Builds Memtis for an address space of `tier_cfg.address_space_pages`.
    ///
    /// # Panics
    ///
    /// Panics if `config.cool_samples` is zero (the cooling cadence is
    /// countdown driven; use a huge period to effectively disable it).
    pub fn new(config: MemtisConfig, tier_cfg: &TierConfig) -> Self {
        assert!(config.cool_samples > 0, "cooling period must be positive");
        Self {
            counts: vec![0; tier_cfg.address_space_pages as usize],
            hist: HotnessHistogram::new(MAX_LEVEL),
            threshold: MIN_THRESHOLD,
            samples_seen: 0,
            cool_in: config.cool_samples,
            scan_cursor: 0,
            chain: DemotionChain::new(),
            physical_pages: tier_cfg.fast_capacity_pages + tier_cfg.slow_capacity_pages,
            config,
        }
    }

    /// Current promotion threshold.
    pub fn threshold(&self) -> u32 {
        self.threshold
    }

    /// Exact access count of a page.
    pub fn count_of(&self, page: PageId) -> u32 {
        self.counts[page.0 as usize]
    }

    /// Metadata lines touched when updating a page's record: the 16 B/page
    /// leaf array entry plus two upper page-table levels (the multi-level
    /// walk of paper §3.3; the root level is effectively always cached and
    /// omitted).
    fn record_meta_lines(&self, page: u64, out: &mut Vec<u64>) {
        out.push(META_BASE + page * 16);
        out.push(LEVEL2_BASE + (page >> 9) * 64);
        out.push(LEVEL3_BASE + (page >> 18) * 64);
    }

    /// The per-sample update: exact counter, histogram transition, metadata
    /// walk, threshold refresh, inline promotion.
    #[inline]
    fn ingest_sample(&mut self, sample: Sample, mem: &mut TieredMemory, ctx: &mut PolicyCtx) {
        self.samples_seen += 1;
        let page = sample.page.0;
        let old = self.counts[page as usize];
        let new = old.saturating_add(1);
        self.counts[page as usize] = new;
        self.hist.transition(old.min(MAX_LEVEL), new.min(MAX_LEVEL));
        self.record_meta_lines(page, &mut ctx.metadata_lines);
        ctx.metadata_lines
            .push(HIST_BASE + u64::from(new.min(MAX_LEVEL)) / 8 * 64);

        self.cool_in -= 1;
        if self.cool_in == 0 {
            self.cool_in = self.config.cool_samples;
            self.cool_all();
            // A full cooling pass walks every record.
            ctx.tiering_work_ns += self.counts.len() as u64 / 64;
        }

        self.threshold = self
            .hist
            .threshold_for(mem.topology().tier(0).capacity_pages, MIN_THRESHOLD);

        // Promotion is attempted inline (kmigrated is asynchronous but fast);
        // when the fast tier is clogged the candidate is simply dropped —
        // demotion happens only from the background tick, so a clogged tier
        // stalls promotions until cooling refreshes the cold set.
        if sample.tier == Tier::Slow && new >= self.threshold && mem.fast_free() > 0 {
            ctx.tiering_work_ns += SYSCALL_NS / 32; // kernel-side migration, amortized
            let _ = mem.promote(sample.page);
        }
    }

    fn cool_all(&mut self) {
        for c in &mut self.counts {
            *c /= 2;
        }
        self.hist.cool();
    }

    fn demote_scan(&mut self, mem: &mut TieredMemory, ctx: &mut PolicyCtx) {
        let budget = MAX_SCAN_PER_CALL.min(mem.address_space_pages());
        let mut walked = 0;
        while mem.fast_free_below(DEMOTE_WMARK) && walked < budget {
            let (page, step) = mem.next_resident(0, &mut self.scan_cursor, budget - walked);
            walked += step;
            ctx.tiering_work_ns += step * PTE_ENTRY_NS;
            let Some(page) = page else { break };
            self.record_meta_lines(page.0, &mut ctx.metadata_lines);
            // Demote only cold-classified pages; warm/hot pages keep their
            // fast residency until cooling erodes their EMA score (no
            // momentum signal, no second chance — the adaptation lag of
            // paper §2.3.2).
            if self.counts[page.0 as usize] < DEMOTE_BELOW.min(self.threshold) {
                let _ = mem.demote(page);
            }
        }
    }
}

impl TieringPolicy for MemtisPolicy {
    fn name(&self) -> &'static str {
        "Memtis"
    }

    fn on_sample_batch(&mut self, samples: &[Sample], mem: &mut TieredMemory, ctx: &mut PolicyCtx) {
        for &sample in samples {
            self.ingest_sample(sample, mem, ctx);
        }
    }

    fn on_tick(&mut self, _now_ns: u64, mem: &mut TieredMemory, ctx: &mut PolicyCtx) {
        if mem.fast_free_below(PROMO_WMARK) {
            self.demote_scan(mem, ctx);
        }
        // Cascade watermark pressure down any middle rungs (no-op on the
        // 2-tier testbed).
        self.chain
            .cascade(mem, DEMOTE_WMARK, MAX_SCAN_PER_CALL, ctx);
        // Background page-size determination / kptscand-style activity that
        // grows with the managed fast tier (paper §6.1 observation).
        ctx.tiering_work_ns +=
            mem.topology().tier(0).capacity_pages * BACKGROUND_NS_PER_KPAGE / 1_000;
    }

    fn metadata_bytes(&self) -> usize {
        // 16 B per page of the *total* memory, as the paper charges Memtis
        // (Table 4: overhead scales with total capacity and stays 0.39%).
        self.physical_pages as usize * 16 + self.hist.metadata_bytes()
    }

    fn debug_state(&self) -> String {
        format!("thr={}", self.threshold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiering_mem::{PageSize, TierRatio};

    fn setup() -> (MemtisPolicy, TieredMemory) {
        let cfg = TierConfig::for_footprint(1_024, TierRatio::OneTo16, PageSize::Base4K);
        (
            MemtisPolicy::new(MemtisConfig::default(), &cfg),
            TieredMemory::new(cfg),
        )
    }

    fn sample(page: u64, tier: Tier, at: u64) -> Sample {
        Sample {
            page: PageId(page),
            addr: page << 12,
            tier,
            at_ns: at,
            is_write: false,
        }
    }

    #[test]
    fn counts_are_exact() {
        let (mut p, mut mem) = setup();
        let mut ctx = PolicyCtx::new();
        mem.ensure_mapped(PageId(5), Tier::Slow);
        for i in 0..7 {
            p.on_sample_batch(&[sample(5, Tier::Slow, i)], &mut mem, &mut ctx);
        }
        assert_eq!(p.count_of(PageId(5)), 7);
    }

    #[test]
    fn hot_page_promoted_when_over_threshold() {
        let (mut p, mut mem) = setup();
        let mut ctx = PolicyCtx::new();
        mem.ensure_mapped(PageId(1), Tier::Slow);
        for i in 0..5 {
            p.on_sample_batch(&[sample(1, Tier::Slow, i)], &mut mem, &mut ctx);
        }
        assert_eq!(mem.tier_of(PageId(1)), Some(Tier::Fast));
    }

    #[test]
    fn cooling_halves_counts_and_is_periodic() {
        let cfg = TierConfig::for_footprint(64, TierRatio::OneTo4, PageSize::Base4K);
        let mut p = MemtisPolicy::new(MemtisConfig { cool_samples: 10 }, &cfg);
        let mut mem = TieredMemory::new(cfg);
        let mut ctx = PolicyCtx::new();
        mem.ensure_mapped(PageId(0), Tier::Slow);
        for i in 0..10 {
            p.on_sample_batch(&[sample(0, Tier::Slow, i)], &mut mem, &mut ctx);
        }
        // 10 increments then one cooling: 10/2 = 5.
        assert_eq!(p.count_of(PageId(0)), 5);
    }

    #[test]
    #[should_panic(expected = "cooling period must be positive")]
    fn zero_cooling_period_rejected() {
        let cfg = TierConfig::for_footprint(64, TierRatio::OneTo4, PageSize::Base4K);
        let _ = MemtisPolicy::new(MemtisConfig { cool_samples: 0 }, &cfg);
    }

    #[test]
    fn metadata_is_16b_per_total_page() {
        let cfg = TierConfig::for_footprint(10_000, TierRatio::OneTo8, PageSize::Base4K);
        let p = MemtisPolicy::new(MemtisConfig::default(), &cfg);
        assert!(p.metadata_bytes() >= 160_000);
        // Ratio to total (fast + slow) memory ≈ 16/4096 = 0.39%, constant
        // across ratios (paper Table 4).
        let frac = p.metadata_bytes() as f64 / cfg.total_bytes() as f64;
        assert!((frac - 0.0039).abs() < 0.0005, "metadata fraction {frac}");
    }

    #[test]
    fn metadata_update_walks_multiple_lines() {
        let (mut p, mut mem) = setup();
        let mut ctx = PolicyCtx::new();
        mem.ensure_mapped(PageId(9), Tier::Slow);
        p.on_sample_batch(&[sample(9, Tier::Slow, 0)], &mut mem, &mut ctx);
        // Leaf + 2 upper levels + histogram = 4 distinct lines.
        assert_eq!(ctx.metadata_lines.len(), 4);
    }

    #[test]
    fn demotes_cold_pages_under_pressure() {
        let (mut p, mut mem) = setup();
        let mut ctx = PolicyCtx::new();
        let cap = mem.config().fast_capacity_pages;
        for i in 0..cap {
            mem.ensure_mapped(PageId(i), Tier::Fast);
        }
        p.on_tick(0, &mut mem, &mut ctx);
        assert!(mem.stats().demotions > 0);
        assert!(!mem.fast_free_below(0.06));
    }

    #[test]
    fn stale_hot_page_lingers_until_cooled() {
        // The adaptation weakness: a page with a large accumulated count
        // stays above threshold (and hence undemotable) until enough cooling
        // periods pass — unlike HybridTier's second-chance fast path.
        let cfg = TierConfig::for_footprint(64, TierRatio::OneTo4, PageSize::Base4K);
        let mut p = MemtisPolicy::new(
            MemtisConfig {
                cool_samples: 1_000_000,
            },
            &cfg,
        );
        let mut mem = TieredMemory::new(cfg);
        let mut ctx = PolicyCtx::new();
        let cap = mem.config().fast_capacity_pages;
        for i in 0..cap {
            mem.ensure_mapped(PageId(i), Tier::Fast);
        }
        // Page 0 accumulates a deep history.
        for i in 0..40 {
            p.on_sample_batch(&[sample(0, Tier::Fast, i)], &mut mem, &mut ctx);
        }
        // It then turns cold, but pressure-driven scans cannot demote it.
        for t in 0..4 {
            p.on_tick(t, &mut mem, &mut ctx);
        }
        assert_eq!(
            mem.tier_of(PageId(0)),
            Some(Tier::Fast),
            "stale-hot page survives scans until cooling catches up"
        );
    }
}
