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

use crate::chain::{reclaim_two_pass, DemotionChain, DEMOTE_WMARK};
use crate::policy::{PolicyCtx, TieringPolicy};

/// Host-side cost of one device-counter readout transaction (an MMIO/DMA
/// exchange, comparable to a syscall).
const READOUT_NS: u64 = 1_500;
/// Host-side cost per hot-page entry processed from a readout.
const PER_ENTRY_NS: u64 = 40;
/// Counters a readout tests for a hot entry, and decays, at a time.
const READOUT_CHUNK: usize = 64;
/// Interval between host readouts of the device counters (simulated): 5 ms
/// — NeoMem polls fast.
const READOUT_INTERVAL_NS: u64 = 5_000_000;

/// Configuration of [`NeoMemPolicy`].
#[derive(Debug, Clone)]
pub struct NeoMemConfig {
    /// Device counter value at which a page is reported hot.
    pub hot_threshold: u8,
    /// Right-shift applied to every counter at each readout (hardware decay
    /// so counters track the current epoch, not all of history); 8 or more
    /// clears the 8-bit counters.
    pub decay_shift: u8,
    /// Maximum pages promoted per readout (bounds the migration burst the
    /// host issues per report).
    pub max_promote_per_readout: u64,
    /// Maximum pages scanned per demotion call.
    pub max_scan_per_call: u64,
}

impl Default for NeoMemConfig {
    fn default() -> Self {
        Self {
            hot_threshold: 4,
            decay_shift: 1,
            max_promote_per_readout: 2_048,
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
            next_readout_ns: READOUT_INTERVAL_NS,
            demote_cursor: 0,
            chain: DemotionChain::new(),
            readout_buf_entries,
            config,
        }
    }

    /// Device counter value of a page.
    #[cfg(test)]
    fn counter_of(&self, page: PageId) -> u8 {
        self.counters[page.0 as usize]
    }

    /// One host readout: harvest counter-hot device pages, promote them one
    /// rung toward DRAM, decay every counter.
    ///
    /// The array is walked in index order, [`READOUT_CHUNK`] counters at a
    /// time. A chunk with no counter at or above `hot_threshold` — and any
    /// chunk once `max_promote_per_readout` pages are promoted — can promote
    /// nothing, so it is only decayed, by a branch-free loop. A chunk that
    /// holds a hot counter is visited entry by entry, test before decay,
    /// because a promotion into a full DRAM rung runs
    /// [`demote_pressure`](Self::demote_pressure), whose cold test reads the
    /// counters of arbitrary pages: at every promotion all earlier entries
    /// are decayed and all later ones are not, exactly as in a walk that
    /// visits every entry.
    fn readout(&mut self, mem: &mut TieredMemory, ctx: &mut PolicyCtx) {
        ctx.tiering_work_ns += READOUT_NS;
        let hot = self.config.hot_threshold;
        let max_promote = self.config.max_promote_per_readout;
        // A shift of the whole counter width or more forgets everything
        // (`u8 >> 8` is an overflow, not 0).
        let shift = u32::from(self.config.decay_shift);
        let decay = |c: u8| c.checked_shr(shift).unwrap_or(0);
        let mut promoted = 0u64;
        for start in (0..self.counters.len()).step_by(READOUT_CHUNK) {
            let end = (start + READOUT_CHUNK).min(self.counters.len());
            let chunk = &mut self.counters[start..end];
            // The maximum, not `any`: no early exit, so it vectorizes.
            if promoted >= max_promote || chunk.iter().fold(0, |m, &c| m.max(c)) < hot {
                chunk.iter_mut().for_each(|c| *c = decay(*c));
                continue;
            }
            for page in start..end {
                if self.counters[page] >= hot && promoted < max_promote {
                    let p = PageId(page as u64);
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
                self.counters[page] = decay(self.counters[page]);
            }
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
            DEMOTE_WMARK,
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
            self.next_readout_ns = now_ns + READOUT_INTERVAL_NS;
        }
        if mem.fast_free_below(DEMOTE_WMARK) {
            self.demote_pressure(mem, ctx);
        }
        self.chain
            .cascade(mem, DEMOTE_WMARK, self.config.max_scan_per_call, ctx);
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

    /// One readout of `counter` under `decay_shift`, through both paths: a
    /// chunk that is only decayed and one visited entry by entry.
    fn decayed(decay_shift: u8, counter: u8) -> u8 {
        let (mut p, mut mem) = setup();
        p.config.decay_shift = decay_shift;
        p.config.max_promote_per_readout = 0;
        p.counters[3] = counter;
        p.readout(&mut mem, &mut PolicyCtx::new());
        let bulk = p.counter_of(PageId(3));
        p.config.max_promote_per_readout = 1;
        p.config.hot_threshold = 0;
        p.counters[3] = counter;
        p.readout(&mut mem, &mut PolicyCtx::new());
        assert_eq!(p.counter_of(PageId(3)), bulk, "shift {decay_shift}");
        bulk
    }

    #[test]
    fn decay_shift_of_the_counter_width_or_more_forgets_everything() {
        for counter in [0u8, 1, 2, 0x80, 0xAB, u8::MAX] {
            assert_eq!(decayed(0, counter), counter, "shift 0 keeps the count");
            assert_eq!(decayed(1, counter), counter >> 1);
            assert_eq!(decayed(7, counter), counter >> 7);
            assert_eq!(decayed(8, counter), 0, "shift 8 is not shift 0");
            assert_eq!(decayed(255, counter), 0, "shift 255 is not shift 7");
        }
    }

    /// `readout` as it was before it walked the counters in chunks, line
    /// for line: every entry tested, then decayed, in index order.
    fn readout_per_entry(p: &mut NeoMemPolicy, mem: &mut TieredMemory, ctx: &mut PolicyCtx) {
        ctx.tiering_work_ns += READOUT_NS;
        let mut promoted = 0u64;
        for page in 0..p.counters.len() as u64 {
            if p.counters[page as usize] >= p.config.hot_threshold
                && promoted < p.config.max_promote_per_readout
            {
                let pg = PageId(page);
                // Device pages are any rung below 0; hop one toward DRAM.
                if mem.tier_index_of(pg).is_some_and(|t| t > 0) {
                    ctx.tiering_work_ns += PER_ENTRY_NS;
                    if mem.fast_free() == 0 {
                        p.demote_pressure(mem, ctx);
                    }
                    if mem.promote_toward(pg, 0).is_ok() {
                        promoted += 1;
                    }
                }
            }
            // Hardware decay runs over the whole counter array regardless.
            p.counters[page as usize] >>= p.config.decay_shift;
        }
    }

    /// SplitMix64: seeded, dependency-free.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// A ladder of `n_tiers` rungs over `pages` pages with a small DRAM
    /// rung, every page mapped and DRAM full, so that the first promotion
    /// of a readout already has to reclaim.
    fn full_ladder(n_tiers: usize, pages: u64, rng: &mut Rng) -> TieredMemory {
        let rung = |capacity_pages| tiering_mem::TierParams {
            label: "rung",
            capacity_pages,
            access_ns: 100,
            stream_ns: 30,
            migrate_base_page_ns: 2_000,
        };
        let mut tiers = vec![rung(1 + pages / 16)];
        tiers.extend((2..n_tiers).map(|t| rung(1 + pages / (2 + t as u64))));
        tiers.push(rung(pages));
        let mut mem =
            TieredMemory::with_topology(TierTopology::new(tiers, PageSize::Base4K, pages));
        while mem.fast_free() > 0 && mem.tier_used(0) < pages {
            mem.ensure_mapped(PageId(rng.below(pages)), Tier::Fast);
        }
        for page in 0..pages {
            mem.ensure_mapped(PageId(page), Tier::Slow);
            if rng.below(3) == 0 {
                let _ = mem.demote_toward(PageId(page), rng.below(n_tiers as u64) as usize);
            }
        }
        mem
    }

    #[test]
    fn chunked_readout_equals_the_per_entry_loop() {
        let mut rng = Rng(0x5EED_4E30);
        let (mut readouts, mut promotions, mut reclaims) = (0, 0, 0);
        for case in 0..360 {
            // Never a whole number of chunks, down to less than one.
            let pages = [1, 63, 65, 333, 1_000, 4_097][case % 6];
            let n_tiers = 2 + case % 3;
            let config = NeoMemConfig {
                hot_threshold: [0, 1, 4, 200, 255][rng.below(5) as usize],
                decay_shift: [0, 1, 2, 7][rng.below(4) as usize],
                max_promote_per_readout: [0, 1, 2_048][case / 6 % 3],
                max_scan_per_call: [8, 16_384][rng.below(2) as usize],
            };
            let mut mem = full_ladder(n_tiers, pages, &mut rng);
            let mut oracle_mem = mem.clone();
            let mut p = NeoMemPolicy::new(config.clone(), &mem.config());
            let mut oracle = NeoMemPolicy::new(config.clone(), &mem.config());
            // From all-zero arrays to every counter live.
            let one_in = [1, 8, 64, 1_024][rng.below(4) as usize];
            for _ in 0..4 {
                for page in 0..pages as usize {
                    if rng.below(one_in) == 0 {
                        p.counters[page] = rng.next() as u8;
                    }
                }
                oracle.counters.clone_from(&p.counters);
                let before = mem.stats();
                let (mut ctx, mut oracle_ctx) = (PolicyCtx::new(), PolicyCtx::new());
                p.readout(&mut mem, &mut ctx);
                readout_per_entry(&mut oracle, &mut oracle_mem, &mut oracle_ctx);

                let what = format!("case {case}: {pages} pages, {n_tiers} rungs, {config:?}");
                assert_eq!(p.counters, oracle.counters, "{what}");
                assert_eq!(p.demote_cursor, oracle.demote_cursor, "{what}");
                assert_eq!(mem.stats(), oracle_mem.stats(), "{what}");
                assert_eq!(ctx.tiering_work_ns, oracle_ctx.tiering_work_ns, "{what}");
                assert_eq!(ctx.metadata_lines, oracle_ctx.metadata_lines, "{what}");
                for page in (0..pages).map(PageId) {
                    assert_eq!(
                        mem.tier_index_of(page),
                        oracle_mem.tier_index_of(page),
                        "{what}"
                    );
                }
                readouts += 1;
                promotions += mem.stats().promotions - before.promotions;
                reclaims += mem.stats().demotions - before.demotions;
            }
        }
        // Promotions happened, and into a full DRAM rung: the cold test of
        // `demote_pressure` read the counters in the middle of readouts.
        assert!(readouts >= 1_000 && promotions > 10_000 && reclaims > 1_000);
    }
}
