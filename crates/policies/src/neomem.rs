//! NeoMem-style device-side counter sampling.
//!
//! NeoMem (Zhou et al.) moves hotness tracking *onto the CXL device*: the
//! memory controller counts accesses to its own pages in hardware and the
//! host periodically reads out a compact hot-page report. This inverts the
//! paper's design point — HybridTier samples on the host through PEBS and
//! compresses with a CBF precisely because it assumes stock hardware —
//! which makes NeoMem the natural third axis in the policy comparison:
//!
//! * **observation**: every access to a device-resident (non-DRAM) page is
//!   counted, not a 1-in-N PEBS sample — no sampling noise, but DRAM-tier
//!   (rung 0) pages are invisible to the device;
//! * **host cost**: the host pays only the periodic readout (one
//!   syscall-sized transaction plus a few bytes per reported hot page), so
//!   host-side metadata is O(readout buffer), not O(pages);
//! * **placement**: counter-hot pages are promoted one rung toward DRAM per
//!   readout; watermark demotion drains cold DRAM pages and a
//!   [`DemotionChain`] cascades pressure down deeper ladders.
//!
//! The model is deliberately structural (counter widths, readout cadence,
//! decay) rather than a device RTL model — enough to compare the *sampling
//! mode* against CBF/PEBS under identical workloads.

use tiering_mem::{PageId, Tier, TierConfig, TieredMemory};

use crate::chain::{reclaim_two_pass, DemotionChain};
use crate::policy::{PolicyCtx, TieringPolicy};

/// Host-side cost of one device-counter readout transaction (an MMIO/DMA
/// exchange, comparable to a syscall).
const READOUT_NS: u64 = 1_500;
/// Host-side cost per hot-page entry processed from a readout.
const PER_ENTRY_NS: u64 = 40;

/// Configuration of [`NeoMemPolicy`].
#[derive(Debug, Clone)]
pub struct NeoMemConfig {
    /// Interval between host readouts of the device counters (simulated).
    pub readout_interval_ns: u64,
    /// Device counter value at which a page is reported hot.
    pub hot_threshold: u8,
    /// Right-shift applied to every counter at each readout (hardware decay
    /// so counters track the current epoch, not all of history).
    pub decay_shift: u8,
    /// Maximum pages promoted per readout (bounds the migration burst the
    /// host issues per report).
    pub max_promote_per_readout: u64,
    /// Fast-tier free-fraction target maintained by demotion.
    pub demote_wmark: f64,
    /// Maximum pages scanned per demotion call.
    pub max_scan_per_call: u64,
}

impl Default for NeoMemConfig {
    fn default() -> Self {
        Self {
            readout_interval_ns: 5_000_000, // 5 ms — NeoMem polls fast
            hot_threshold: 4,
            decay_shift: 1,
            max_promote_per_readout: 2_048,
            demote_wmark: 0.06,
            max_scan_per_call: 16_384,
        }
    }
}

/// The NeoMem-style policy: device-side per-page counters, periodic host
/// readout, counter-driven promotion, watermark demotion with a ladder
/// cascade.
#[derive(Debug)]
pub struct NeoMemPolicy {
    config: NeoMemConfig,
    /// Device-side 8-bit saturating counter per page. Device memory, not
    /// host metadata — see [`metadata_bytes`](TieringPolicy::metadata_bytes).
    counters: Vec<u8>,
    next_readout_ns: u64,
    demote_cursor: u64,
    chain: DemotionChain,
    /// Capacity of the host-side hot-page readout buffer (entries).
    readout_buf_entries: usize,
}

impl NeoMemPolicy {
    /// Builds the policy for the given address space.
    pub fn new(config: NeoMemConfig, tier_cfg: &TierConfig) -> Self {
        let readout_buf_entries = (config.max_promote_per_readout as usize).max(64);
        Self {
            counters: vec![0; tier_cfg.address_space_pages as usize],
            next_readout_ns: config.readout_interval_ns,
            demote_cursor: 0,
            chain: DemotionChain::new(),
            readout_buf_entries,
            config,
        }
    }

    /// Device counter value of a page (test/diagnostic hook).
    pub fn counter_of(&self, page: PageId) -> u8 {
        self.counters[page.0 as usize]
    }

    /// One host readout: harvest counter-hot device pages, promote them one
    /// rung toward DRAM, decay every counter.
    fn readout(&mut self, mem: &mut TieredMemory, ctx: &mut PolicyCtx) {
        ctx.tiering_work_ns += READOUT_NS;
        let mut promoted = 0u64;
        for page in 0..self.counters.len() as u64 {
            if self.counters[page as usize] >= self.config.hot_threshold
                && promoted < self.config.max_promote_per_readout
            {
                let p = PageId(page);
                // Device pages are any rung below 0; hop one toward DRAM.
                if mem.tier_index_of(p).is_some_and(|t| t > 0) {
                    ctx.tiering_work_ns += PER_ENTRY_NS;
                    if mem.fast_free() == 0 {
                        self.demote_pressure(mem, ctx);
                    }
                    if mem.promote_toward(p, 0).is_ok() {
                        promoted += 1;
                    }
                }
            }
            // Hardware decay runs over the whole counter array regardless.
            self.counters[page as usize] >>= self.config.decay_shift;
        }
    }

    /// Demotes DRAM-resident pages whose device history has fully decayed
    /// (counter 0: not reported hot in recent epochs) until the watermark
    /// recovers, then lets the chain cascade the pressure downward.
    fn demote_pressure(&mut self, mem: &mut TieredMemory, ctx: &mut PolicyCtx) {
        let counters = &self.counters;
        reclaim_two_pass(
            mem,
            &mut self.demote_cursor,
            self.config.demote_wmark,
            self.config.max_scan_per_call,
            ctx,
            |page| counters[page.0 as usize] == 0,
        );
    }
}

impl TieringPolicy for NeoMemPolicy {
    fn name(&self) -> &'static str {
        "NeoMem"
    }

    fn preferred_alloc_tier(&self) -> Tier {
        Tier::Fast
    }

    fn wants_access_hook(&self) -> bool {
        // The device sees every access to its pages; the hook is how the
        // engine exposes the full access stream. It costs the *host*
        // nothing (returns 0 ns) — counting happens in device hardware.
        true
    }

    fn on_access_batch(
        &mut self,
        pages: &[PageId],
        _now_ns: u64,
        mem: &mut TieredMemory,
        _ctx: &mut PolicyCtx,
    ) -> u64 {
        for &page in pages {
            // Count only device-resident pages (DRAM rung 0 has no counters).
            if mem.tier_index_of(page).is_some_and(|t| t > 0) {
                let c = &mut self.counters[page.0 as usize];
                *c = c.saturating_add(1);
            }
        }
        0
    }

    fn on_tick(&mut self, now_ns: u64, mem: &mut TieredMemory, ctx: &mut PolicyCtx) {
        if now_ns >= self.next_readout_ns {
            self.readout(mem, ctx);
            self.next_readout_ns = now_ns + self.config.readout_interval_ns;
        }
        if mem.fast_free_below(self.config.demote_wmark) {
            self.demote_pressure(mem, ctx);
        }
        self.chain.cascade(
            mem,
            self.config.demote_wmark,
            self.config.max_scan_per_call,
            ctx,
        );
    }

    fn metadata_bytes(&self) -> usize {
        // Host-side metadata only: the readout buffer (8 B page id + 1 B
        // count per entry) plus cursors. The per-page counters live on the
        // device — that asymmetry is NeoMem's selling point and the number
        // the metadata-overhead comparison should reflect.
        self.readout_buf_entries * 9 + 64
    }

    fn debug_state(&self) -> String {
        let hot = self
            .counters
            .iter()
            .filter(|&&c| c >= self.config.hot_threshold)
            .count();
        format!("hot={hot} next_readout={}", self.next_readout_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiering_mem::{PageSize, TierRatio, TierTopology};

    fn setup() -> (NeoMemPolicy, TieredMemory) {
        let cfg = TierConfig::for_footprint(512, TierRatio::OneTo8, PageSize::Base4K);
        (
            NeoMemPolicy::new(NeoMemConfig::default(), &cfg),
            TieredMemory::new(cfg),
        )
    }

    #[test]
    fn device_counts_only_non_dram_pages() {
        let (mut p, mut mem) = setup();
        let mut ctx = PolicyCtx::new();
        mem.ensure_mapped(PageId(0), Tier::Fast);
        mem.ensure_mapped(PageId(1), Tier::Slow);
        for _ in 0..3 {
            assert_eq!(p.on_access_batch(&[PageId(0)], 0, &mut mem, &mut ctx), 0);
            assert_eq!(p.on_access_batch(&[PageId(1)], 0, &mut mem, &mut ctx), 0);
        }
        assert_eq!(p.counter_of(PageId(0)), 0, "DRAM pages are invisible");
        assert_eq!(p.counter_of(PageId(1)), 3);
    }

    #[test]
    fn hot_device_page_promoted_at_readout() {
        let (mut p, mut mem) = setup();
        let mut ctx = PolicyCtx::new();
        mem.ensure_mapped(PageId(7), Tier::Slow);
        for _ in 0..4 {
            p.on_access_batch(&[PageId(7)], 0, &mut mem, &mut ctx);
        }
        p.on_tick(10_000_000, &mut mem, &mut ctx); // past the readout interval
        assert_eq!(mem.tier_of(PageId(7)), Some(Tier::Fast));
        assert!(ctx.tiering_work_ns >= READOUT_NS, "readout cost charged");
    }

    #[test]
    fn readout_decays_counters() {
        let (mut p, mut mem) = setup();
        let mut ctx = PolicyCtx::new();
        mem.ensure_mapped(PageId(3), Tier::Slow);
        for _ in 0..2 {
            p.on_access_batch(&[PageId(3)], 0, &mut mem, &mut ctx);
        }
        assert_eq!(p.counter_of(PageId(3)), 2);
        p.on_tick(10_000_000, &mut mem, &mut ctx);
        assert_eq!(p.counter_of(PageId(3)), 1, "decay shift halves");
    }

    #[test]
    fn watermark_demotion_prefers_cold_pages() {
        let (mut p, mut mem) = setup();
        let mut ctx = PolicyCtx::new();
        let cap = mem.config().fast_capacity_pages;
        for i in 0..cap {
            mem.ensure_mapped(PageId(i), Tier::Fast);
        }
        assert_eq!(mem.fast_free(), 0);
        p.on_tick(0, &mut mem, &mut ctx);
        assert!(!mem.fast_free_below(0.06), "headroom restored");
        assert!(mem.stats().demotions > 0);
    }

    #[test]
    fn host_metadata_is_footprint_independent() {
        let small = TierConfig::for_footprint(512, TierRatio::OneTo8, PageSize::Base4K);
        let large = TierConfig::for_footprint(500_000, TierRatio::OneTo8, PageSize::Base4K);
        let ps = NeoMemPolicy::new(NeoMemConfig::default(), &small);
        let pl = NeoMemPolicy::new(NeoMemConfig::default(), &large);
        assert_eq!(
            ps.metadata_bytes(),
            pl.metadata_bytes(),
            "host cost must not scale with footprint — that is the point"
        );
    }

    #[test]
    fn three_tier_hot_page_climbs_one_rung_per_readout() {
        let topo = TierTopology::three_tier_dram_cxl_nvme(80, PageSize::Base4K);
        let mut mem = TieredMemory::with_topology(topo);
        let mut p = NeoMemPolicy::new(NeoMemConfig::default(), &mem.config());
        let mut ctx = PolicyCtx::new();
        mem.ensure_mapped(PageId(9), Tier::Slow); // cxl, rung 1
        mem.demote(PageId(9)).unwrap(); // nvme, rung 2
        for readout in 0..2 {
            for _ in 0..8 {
                p.on_access_batch(&[PageId(9)], 0, &mut mem, &mut ctx);
            }
            let t = (readout + 1) * 10_000_000;
            p.on_tick(t, &mut mem, &mut ctx);
        }
        assert_eq!(
            mem.tier_index_of(PageId(9)),
            Some(0),
            "two readouts walk nvme → cxl → dram"
        );
    }
}
