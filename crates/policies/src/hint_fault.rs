//! The NUMA-balancing hint-fault model under both recency baselines.
//!
//! TPP is built on the kernel's NUMA-balancing machinery, so it and
//! AutoNUMA observe the application the same way: a periodic scanner unmaps
//! a window of the address space, the next access to an unmapped page takes
//! a *hint fault*, and the fault is where promotion is decided; the fast
//! tier is kept below its watermark by a two-pass recency reclaim (stale
//! pages first, then anything) and the pressure cascades down deeper
//! ladders. All of that — scanner, per-page fault bookkeeping, reclaim,
//! cascade — lives here once. What the two systems do differently is passed
//! in by each policy: the promotion test applied to a fault
//! ([`HintFault`]), the watermark reclaim restores, and the one whose
//! breach triggers reclaim on a tick.

use tiering_mem::{PageId, Tier, TierConfig, TieredMemory};

use crate::chain::{reclaim_two_pass, DemotionChain, DEMOTE_BUDGET, RECLAIM_ENTRY_NS};
use crate::policy::PolicyCtx;

const FAULT_SERVICE_NS: u64 = 250;
/// Fewest pages a scan window unmaps (256 MB at paper scale; scaled down
/// with the footprints here).
const MIN_SCAN_WINDOW_PAGES: u64 = 1_024;
/// Interval between scan windows (paper-scale seconds, compressed ~1000×).
const SCAN_INTERVAL_NS: u64 = 10_000_000;

/// What a hint fault on a page knows when the promotion test runs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HintFault {
    /// When the scanner unmapped the page (never 0).
    pub unmapped_ns: u64,
    /// The page's previous hint fault; 0 if it never faulted before.
    pub prev_fault_ns: u64,
}

/// Scanner, fault bookkeeping and reclaim state of one hint-fault policy.
#[derive(Debug)]
pub(crate) struct HintFaultModel {
    scan_window_pages: u64,
    /// Fast-tier free fraction reclaim restores (and the cascade keeps on
    /// middle rungs).
    demote_wmark: f64,
    /// Per-page unmap timestamp; 0 = currently mapped (no pending hint
    /// fault).
    unmapped_at: Vec<u64>,
    /// Per-page last hint-fault time (the recency signal reclaim demotes
    /// by).
    last_fault: Vec<u64>,
    scan_cursor: u64,
    next_scan_ns: u64,
    demote_cursor: u64,
    chain: DemotionChain,
}

impl HintFaultModel {
    /// Builds the model for the given address space, reclaiming to
    /// `demote_wmark`. The scan window is `max(1 024, n / 64)` pages of an
    /// `n`-page address space, so a full sweep takes ⌈n / 1 024⌉ intervals
    /// below 65 536 pages and 64 from there up (65 when 64 does not divide
    /// `n`). The suite's CacheLib models fall in the first regime: CDN
    /// (≈ 56 000–57 000 pages, by seed) sweeps in 55–56 intervals and
    /// social (≈ 24 900 pages) in 25.
    pub(crate) fn new(demote_wmark: f64, tier_cfg: &TierConfig) -> Self {
        let n = tier_cfg.address_space_pages as usize;
        Self {
            scan_window_pages: MIN_SCAN_WINDOW_PAGES.max(n as u64 / 64),
            demote_wmark,
            unmapped_at: vec![0; n],
            last_fault: vec![0; n],
            scan_cursor: 0,
            next_scan_ns: 0,
            demote_cursor: 0,
            chain: DemotionChain::new(),
        }
    }

    /// Unmaps the next scan window (the periodic kernel scanner).
    fn scan_window(&mut self, now_ns: u64, ctx: &mut PolicyCtx) {
        let n = self.unmapped_at.len() as u64;
        if n == 0 {
            return;
        }
        let window = self.scan_window_pages.min(n);
        for _ in 0..window {
            self.unmapped_at[self.scan_cursor as usize] = now_ns.max(1);
            self.scan_cursor = (self.scan_cursor + 1) % n;
        }
        ctx.tiering_work_ns += window * RECLAIM_ENTRY_NS;
    }

    /// Demotes coldest-by-recency fast-tier pages until `demote_wmark`
    /// holds: first pages whose last hint fault is older than two scan
    /// intervals, then anything fast (the MGLRU / inactive-list tail,
    /// found by a clock sweep).
    pub(crate) fn reclaim(&mut self, now_ns: u64, mem: &mut TieredMemory, ctx: &mut PolicyCtx) {
        let stale_cutoff = now_ns.saturating_sub(2 * SCAN_INTERVAL_NS);
        let last_fault = &self.last_fault;
        reclaim_two_pass(
            mem,
            &mut self.demote_cursor,
            self.demote_wmark,
            DEMOTE_BUDGET,
            ctx,
            |page| last_fault[page.0 as usize] <= stale_cutoff,
        );
    }

    /// Serves the hint faults among one op's accesses and returns the fault
    /// time charged to the op. Pages the scanner has not unmapped — almost
    /// all of them between scan windows — cost one array probe. A faulting
    /// slow-tier page that passes `promotes` is promoted, after a reclaim
    /// if the fast tier is full.
    pub(crate) fn on_access_batch(
        &mut self,
        pages: &[PageId],
        now_ns: u64,
        mem: &mut TieredMemory,
        ctx: &mut PolicyCtx,
        promotes: impl Fn(HintFault) -> bool,
    ) -> u64 {
        let mut total = 0;
        for &page in pages {
            let idx = page.0 as usize;
            let unmapped_ns = self.unmapped_at[idx];
            if unmapped_ns == 0 {
                continue;
            }
            self.unmapped_at[idx] = 0;
            let prev_fault_ns = std::mem::replace(&mut self.last_fault[idx], now_ns.max(1));
            let fault = HintFault {
                unmapped_ns,
                prev_fault_ns,
            };
            if mem.tier_of(page) == Some(Tier::Slow) && promotes(fault) {
                if mem.fast_free() == 0 {
                    self.reclaim(now_ns, mem, ctx);
                }
                let _ = mem.promote(page);
            }
            total += FAULT_SERVICE_NS;
        }
        total
    }

    /// One tick: unmap the next window when the scan interval has passed,
    /// reclaim when the fast tier's free fraction is below `reclaim_below`,
    /// and cascade `demote_wmark` down any middle rungs (no-op on the
    /// 2-tier testbed).
    pub(crate) fn on_tick(
        &mut self,
        now_ns: u64,
        reclaim_below: f64,
        mem: &mut TieredMemory,
        ctx: &mut PolicyCtx,
    ) {
        if now_ns >= self.next_scan_ns {
            self.scan_window(now_ns, ctx);
            self.next_scan_ns = now_ns + SCAN_INTERVAL_NS;
        }
        if mem.fast_free_below(reclaim_below) {
            self.reclaim(now_ns, mem, ctx);
        }
        self.chain
            .cascade(mem, self.demote_wmark, DEMOTE_BUDGET, ctx);
    }

    /// Two u64 timestamps per page.
    pub(crate) fn metadata_bytes(&self) -> usize {
        self.unmapped_at.len() * 16
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::DEMOTE_WMARK;
    use tiering_mem::{PageSize, TierRatio};

    fn model(pages: u64, demote_wmark: f64) -> (HintFaultModel, TieredMemory) {
        let cfg = TierConfig::for_footprint(pages, TierRatio::OneTo8, PageSize::Base4K);
        (
            HintFaultModel::new(demote_wmark, &cfg),
            TieredMemory::new(cfg),
        )
    }

    /// Scan intervals until every page of the address space has been
    /// unmapped once (nothing is accessed, so nothing is remapped).
    fn intervals_per_sweep(pages: u64) -> u64 {
        let (mut m, mut mem) = model(pages, DEMOTE_WMARK);
        let mut ctx = PolicyCtx::new();
        let mut intervals = 0;
        while m.unmapped_at.contains(&0) {
            // A tick inside the interval scans nothing.
            m.on_tick(intervals * SCAN_INTERVAL_NS + 1, 0.0, &mut mem, &mut ctx);
            let charged = ctx.tiering_work_ns;
            m.on_tick(
                (intervals + 1) * SCAN_INTERVAL_NS - 1,
                0.0,
                &mut mem,
                &mut ctx,
            );
            assert_eq!(ctx.tiering_work_ns, charged, "{pages} pages");
            intervals += 1;
        }
        intervals
    }

    #[test]
    fn full_sweep_takes_a_window_of_max_1024_or_n_over_64_pages() {
        // Below 65 536 pages the window is 1 024 pages: ⌈n / 1 024⌉
        // intervals. From there up it is ⌊n / 64⌋: 64 intervals, 65 when 64
        // does not divide n.
        for (pages, intervals) in [
            (1, 1),
            (512, 1),
            (1_024, 1),
            (1_025, 2),
            (24_926, 25), // the suite's social model, seed 1
            (56_401, 56), // the suite's CDN model, seed 1
            (65_535, 64),
            (65_536, 64),
            (65_537, 65),
            (65_600, 64),
            (200_000, 64),
            (200_001, 65),
        ] {
            let (m, _) = model(pages, DEMOTE_WMARK);
            assert_eq!(m.scan_window_pages, MIN_SCAN_WINDOW_PAGES.max(pages / 64));
            assert_eq!(intervals_per_sweep(pages), intervals, "{pages} pages");
        }
    }

    #[test]
    fn reclaim_stops_at_the_watermark_it_was_given() {
        for wmark in [0.02, 0.06, 0.08, 0.5, 1.0] {
            let (mut m, mut mem) = model(4_096, wmark);
            let cap = mem.config().fast_capacity_pages;
            for i in 0..cap {
                mem.ensure_mapped(PageId(i), Tier::Fast);
            }
            // The fewest demotions that bring the free fraction to `wmark`.
            let mut oracle = mem.clone();
            let mut needed = 0;
            while oracle.fast_free_below(wmark) {
                oracle.demote(PageId(needed)).unwrap();
                needed += 1;
            }
            m.reclaim(0, &mut mem, &mut PolicyCtx::new());
            assert!(!mem.fast_free_below(wmark), "wmark {wmark}");
            assert_eq!(mem.stats().demotions, needed, "wmark {wmark}");
            assert!(needed > 0, "wmark {wmark}");
        }
    }
}
