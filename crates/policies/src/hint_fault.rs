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
//! ([`HintFault`]) and the watermark whose breach triggers reclaim on a
//! tick.

use tiering_mem::{PageId, Tier, TierConfig, TieredMemory};

use crate::chain::{reclaim_two_pass, DemotionChain, SCAN_PAGE_NS};
use crate::policy::PolicyCtx;

const FAULT_SERVICE_NS: u64 = 250;

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
    scan_interval_ns: u64,
    /// Fast-tier free fraction reclaim restores (and the cascade keeps on
    /// middle rungs).
    demote_wmark: f64,
    max_demote_per_call: u64,
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
    /// Builds the model for the given address space. The scan window grows
    /// with the footprint so a full sweep takes a roughly constant ~64
    /// intervals.
    pub(crate) fn new(
        scan_window_pages: u64,
        scan_interval_ns: u64,
        demote_wmark: f64,
        max_demote_per_call: u64,
        tier_cfg: &TierConfig,
    ) -> Self {
        let n = tier_cfg.address_space_pages as usize;
        Self {
            scan_window_pages: scan_window_pages.max(n as u64 / 64),
            scan_interval_ns,
            demote_wmark,
            max_demote_per_call,
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
        ctx.tiering_work_ns += window * SCAN_PAGE_NS;
    }

    /// Demotes coldest-by-recency fast-tier pages until `demote_wmark`
    /// holds: first pages whose last hint fault is older than two scan
    /// intervals, then anything fast (the MGLRU / inactive-list tail,
    /// found by a clock sweep).
    pub(crate) fn reclaim(&mut self, now_ns: u64, mem: &mut TieredMemory, ctx: &mut PolicyCtx) {
        let stale_cutoff = now_ns.saturating_sub(2 * self.scan_interval_ns);
        let last_fault = &self.last_fault;
        reclaim_two_pass(
            mem,
            &mut self.demote_cursor,
            self.demote_wmark,
            self.max_demote_per_call,
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
            self.next_scan_ns = now_ns + self.scan_interval_ns;
        }
        if mem.fast_free_below(reclaim_below) {
            self.reclaim(now_ns, mem, ctx);
        }
        self.chain
            .cascade(mem, self.demote_wmark, self.max_demote_per_call, ctx);
    }

    /// Two u64 timestamps per page.
    pub(crate) fn metadata_bytes(&self) -> usize {
        self.unmapped_at.len() * 16
    }
}
