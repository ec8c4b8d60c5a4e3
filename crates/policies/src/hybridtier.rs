//! HybridTier: adaptive, lightweight tiering via dual CBF trackers.
//!
//! The paper's system (§3–§4). Two probabilistic trackers per page:
//!
//! * **frequency** — long-term hotness: a counting Bloom filter cooled on a
//!   *high* period, capturing the minutes-to-hours access history;
//! * **momentum** — short-term intensity: a 128×-smaller CBF cooled on a
//!   *low* period, capturing access bursts within seconds.
//!
//! Migration follows the paper's Table 1 ([`MigrationDecision::decide`]):
//! promote on high frequency **or** high momentum; demote on low frequency
//! **and** low momentum; give historically-hot-but-currently-cold pages a
//! second chance. Promotions are batched (100 000 samples per syscall at
//! paper scale); demotion is a watermark-driven linear scan of the address
//! space, as the userspace runtime does via `/proc/PID/pagemap` (§4.3).

use hybridtier_cbf::{AccessCounter, BlockedCbf, CbfParams, CounterWidth, StandardCbf};
use tiering_mem::{PageId, PageSize, Tier, TierConfig, TieredMemory};
use tiering_trace::Sample;

use crate::chain::{DemotionChain, DEMOTE_WMARK, PROMO_WMARK};
use crate::flat_table::FlatPageMap;
use crate::histogram::HotnessHistogram;
use crate::policy::{PolicyCtx, TieringPolicy};

/// Simulated base addresses for metadata regions (cache-miss attribution).
const FREQ_BASE: u64 = 0x7100_0000_0000;
const MOM_BASE: u64 = 0x7200_0000_0000;
const HIST_BASE: u64 = 0x7300_0000_0000;
const PAGEMAP_BASE: u64 = 0x7500_0000_0000;

/// Cost constants for tiering-thread work (charged via `PolicyCtx`).
const SYSCALL_NS: u64 = 1_500;
/// Per pagemap entry the demotion scan reads: the userspace runtime reads
/// `/proc/PID/pagemap` sequentially, 8 bytes per page, so half a kernel
/// reclaim step.
const PAGEMAP_ENTRY_NS: u64 = 5;

/// Number of CBF hash functions (paper: 4).
const CBF_HASHES: u32 = 4;
/// CBF tracking-error target (paper: 0.001).
const CBF_ERROR_RATE: f64 = 0.001;
/// The momentum CBF is `1/MOMENTUM_DIVISOR` the size of the frequency CBF
/// (paper: 128).
const MOMENTUM_DIVISOR: usize = 128;

/// Which CBF layout the trackers use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrackerLayout {
    /// Cache-line-blocked CBF (HybridTier's default; one line per op).
    Blocked,
    /// Standard CBF (the Figure 14 "HybridTier-CBF" ablation; up to `k`
    /// lines per op).
    Standard,
}

/// The four cells of the paper's Table 1 policy matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationDecision {
    /// Move the page to the fast tier.
    Promote,
    /// Leave the page where it is.
    NoAction,
    /// Mark for second-chance revisit (fast-tier, historically hot,
    /// momentum-cold).
    SecondChance,
    /// Move the page to the slow tier.
    Demote,
}

impl MigrationDecision {
    /// Evaluates Table 1 for a page with the given signals.
    ///
    /// | frequency | momentum | slow-tier page | fast-tier page |
    /// |---|---|---|---|
    /// | high | high | promote | no action |
    /// | high | low  | promote | 2nd chance |
    /// | low  | high | promote | no action |
    /// | low  | low  | no action | demote |
    pub fn decide(freq_high: bool, momentum_high: bool, in_fast_tier: bool) -> Self {
        if in_fast_tier {
            match (freq_high, momentum_high) {
                (true, true) | (false, true) => MigrationDecision::NoAction,
                (true, false) => MigrationDecision::SecondChance,
                (false, false) => MigrationDecision::Demote,
            }
        } else if freq_high || momentum_high {
            MigrationDecision::Promote
        } else {
            MigrationDecision::NoAction
        }
    }
}

/// Configuration of [`HybridTierPolicy`].
#[derive(Debug, Clone)]
pub struct HybridTierConfig {
    /// Tracker layout (paper default: blocked).
    pub layout: TrackerLayout,
    /// Explicit frequency-CBF budget in bytes; overrides formula sizing
    /// (the lean tail tenants of `Scenario::synthetic_fleet_spec`).
    pub cbf_budget_bytes: Option<usize>,
    /// Whether the momentum tracker participates (Figure 15 ablation).
    pub momentum_enabled: bool,
    /// Momentum hotness threshold (paper: 3, set empirically; Figure 17).
    pub momentum_threshold: u32,
    /// Cooling period of the frequency tracker, in samples (high).
    pub freq_cool_samples: u64,
    /// Cooling period of the momentum tracker, in samples (low).
    pub momentum_cool_samples: u64,
    /// Samples per promotion batch (paper: 100 000 per syscall).
    pub batch_samples: u64,
    /// Demotion starts when free fast-tier fraction drops below this
    /// (PROMO_WMARK, §4.3).
    pub promo_wmark: f64,
    /// Demotion stops once free fast-tier fraction reaches this
    /// (DEMOTE_WMARK, §4.3).
    pub demote_wmark: f64,
    /// Second-chance revisit delay (paper: 1 minute).
    pub second_chance_revisit_ns: u64,
    /// Lower bound on the auto-derived frequency threshold.
    pub min_freq_threshold: u32,
    /// Cap on pages inspected per demotion-scan invocation.
    pub max_scan_per_call: u64,
}

impl HybridTierConfig {
    /// The paper's parameters scaled to this repository's ~512×-smaller
    /// footprints: the sample-count periods shrink proportionally so
    /// cooling/batching happen at the same *per-page* rates as at paper
    /// scale.
    pub fn scaled() -> Self {
        Self {
            layout: TrackerLayout::Blocked,
            cbf_budget_bytes: None,
            momentum_enabled: true,
            momentum_threshold: 3,
            freq_cool_samples: 200_000,    // paper: 2 000 000
            momentum_cool_samples: 12_000, // paper: 31 250
            batch_samples: 2_000,          // paper: 100 000
            promo_wmark: PROMO_WMARK,
            demote_wmark: DEMOTE_WMARK,
            second_chance_revisit_ns: 100_000_000, // 100 ms (paper: 1 min)
            min_freq_threshold: 2,
            max_scan_per_call: 32_768, // paper: 65 536
        }
    }

    /// Disables the momentum tracker (the "HybridTier-onlyFreqCBF" ablation
    /// of Figure 15).
    #[must_use]
    pub fn without_momentum(mut self) -> Self {
        self.momentum_enabled = false;
        self
    }

    /// Selects the tracker layout.
    #[must_use]
    pub fn with_layout(mut self, layout: TrackerLayout) -> Self {
        self.layout = layout;
        self
    }

    /// Overrides the momentum threshold (Figure 17 sensitivity).
    #[must_use]
    pub fn with_momentum_threshold(mut self, t: u32) -> Self {
        self.momentum_threshold = t;
        self
    }

    /// Fixes the frequency-CBF size by byte budget (lean fleet tenants).
    #[must_use]
    pub fn with_cbf_budget(mut self, bytes: usize) -> Self {
        self.cbf_budget_bytes = Some(bytes);
        self
    }
}

/// The pagemap lines a scan reads walking `walked` entries (at most one
/// revolution) from hand position `from`: one line covers 8 pages (8-byte
/// entries), touched as the hand lands on a multiple of 8 — 0 after the
/// wrap at `n` included. Each run is a counted range of line indices `k`.
///
/// Entry `pos` is emitted as `PAGEMAP_BASE + pos`, not `+ 8 * pos`, so eight
/// successive lines fall in one 64-byte cache line: the pagemap defect of
/// ROADMAP Known defects, kept on purpose. Fixing it moves every HybridTier
/// fingerprint, so it lands with the result-moving fixes (direction 2(ii)).
fn push_pagemap_lines(from: u64, walked: u64, n: u64, out: &mut Vec<u64>) {
    let end = from + walked;
    let line = |k| PAGEMAP_BASE + 8 * k;
    out.extend((from / 8 + 1..end.min(n - 1) / 8 + 1).map(line));
    if end >= n {
        out.extend((0..(end - n) / 8 + 1).map(line));
    }
}

#[cfg(test)]
use tests::meter;
#[cfg(not(test))]
fn meter(_walked: u64, _probes: u64) {}

fn build_tracker(params: CbfParams, layout: TrackerLayout) -> Box<dyn AccessCounter + Send + Sync> {
    match layout {
        TrackerLayout::Blocked => Box::new(BlockedCbf::new(params)),
        TrackerLayout::Standard => Box::new(StandardCbf::new(params)),
    }
}

/// The HybridTier userspace tiering runtime.
pub struct HybridTierPolicy {
    config: HybridTierConfig,
    freq: Box<dyn AccessCounter + Send + Sync>,
    momentum: Box<dyn AccessCounter + Send + Sync>,
    hist: HotnessHistogram,
    freq_threshold: u32,
    samples_seen: u64,
    samples_since_flush: u64,
    /// Samples until the next frequency cooling (countdown form of
    /// `samples_seen % freq_cool_samples == 0`, sparing the per-sample
    /// division).
    freq_cool_in: u64,
    /// Samples until the next momentum cooling.
    momentum_cool_in: u64,
    promo_queue: Vec<PageId>,
    /// Number of frequency-cooling events so far; lets the second-chance
    /// check distinguish "count decayed by cooling" from "page was
    /// accessed" when comparing against the saved estimate.
    cooling_epoch: u32,
    /// page → (frequency estimate at marking, marked-at time, epoch), in a
    /// flat open-addressed table: the demotion scan probes/updates it per
    /// fast-tier page, so marks live in two dense arrays instead of a
    /// `std::collections::HashMap`'s hashed heap buckets.
    second_chance: FlatPageMap<(u32, u64, u32)>,
    scan_cursor: u64,
    /// The last quiet revolution's [`TieredMemory::fast_set_changes`] (`None`
    /// once momentum cools) and lines, which [`demote_scan`](Self::demote_scan)
    /// replays: simulator state, not modelled metadata.
    quiet_key: Option<u64>,
    quiet_lines: Vec<u64>,
    chain: DemotionChain,
}

impl std::fmt::Debug for HybridTierPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HybridTierPolicy")
            .field("freq_threshold", &self.freq_threshold)
            .field("samples_seen", &self.samples_seen)
            .field("promo_queued", &self.promo_queue.len())
            .field("second_chance", &self.second_chance.len())
            .finish()
    }
}

impl HybridTierPolicy {
    /// Builds the policy for the given tier configuration: the frequency
    /// CBF is sized for the fast-tier page count (paper §4.2, `n` = number
    /// of fast-tier pages) and the momentum CBF `MOMENTUM_DIVISOR`× smaller.
    ///
    /// # Panics
    ///
    /// Panics if either cooling period is zero (the cadences are countdown
    /// driven; a zero period is meaningless — use a huge period to
    /// effectively disable cooling).
    pub fn new(config: HybridTierConfig, tier_cfg: &TierConfig) -> Self {
        assert!(
            config.freq_cool_samples > 0 && config.momentum_cool_samples > 0,
            "cooling periods must be positive"
        );
        let width = match tier_cfg.page_size {
            PageSize::Base4K => CounterWidth::W4,
            PageSize::Huge2M => CounterWidth::W16,
        };
        // Size the frequency CBF for the fast-tier page count (paper §4.2)
        // with a floor: at this repository's scaled-down footprints a filter
        // sized for a few hundred pages would saturate with collisions,
        // which at paper scale (millions of fast-tier pages) cannot happen.
        // The floors are negligible in bytes and only bind in small runs.
        // Sized once here on purpose: a quota change keeps the filter.
        let n_freq = (tier_cfg.fast_capacity_pages.max(1) as usize).max(16_384);
        let freq_params = match config.cbf_budget_bytes {
            Some(bytes) => CbfParams::for_budget_bytes(bytes, CBF_HASHES, width),
            None => CbfParams::for_capacity(n_freq, CBF_HASHES, CBF_ERROR_RATE, width),
        }
        .with_base_addr(FREQ_BASE);
        // Momentum tracker: `MOMENTUM_DIVISOR`× smaller, same floor logic.
        // When the tracker is disabled every write and decision path is
        // gated off, so it stays empty and only its allocation remains
        // observable (via `metadata_bytes`) — size it minimally instead of
        // carrying a dead divisor-scaled filter per tenant, which at fleet
        // scale (10⁵ lean tenants) is gigabytes.
        let n_mom = (n_freq / MOMENTUM_DIVISOR).max(16_384);
        let mom_params = if config.momentum_enabled {
            CbfParams::for_capacity(n_mom, CBF_HASHES, CBF_ERROR_RATE, width)
        } else {
            CbfParams::for_budget_bytes(64, CBF_HASHES, width)
        }
        .with_base_addr(MOM_BASE)
        .with_seed(0x4D4F_4D45_4E54_554D); // distinct seed for the momentum tracker
        let counter_cap = width.max_count();
        Self {
            freq: build_tracker(freq_params, config.layout),
            momentum: build_tracker(mom_params, config.layout),
            hist: HotnessHistogram::new(counter_cap.min(63)),
            freq_threshold: config.min_freq_threshold,
            samples_seen: 0,
            samples_since_flush: 0,
            freq_cool_in: config.freq_cool_samples,
            momentum_cool_in: config.momentum_cool_samples,
            promo_queue: Vec::new(),
            cooling_epoch: 0,
            second_chance: FlatPageMap::new(),
            scan_cursor: 0,
            quiet_key: None,
            quiet_lines: Vec::new(),
            chain: DemotionChain::new(),
            config,
        }
    }

    /// Current auto-derived frequency threshold.
    pub fn freq_threshold(&self) -> u32 {
        self.freq_threshold
    }

    /// Frequency estimate for a page (exposed for experiments).
    pub fn freq_estimate(&self, page: PageId) -> u32 {
        self.freq.estimate(page.0)
    }

    /// Momentum estimate for a page (exposed for experiments).
    pub fn momentum_estimate(&self, page: PageId) -> u32 {
        self.momentum.estimate(page.0)
    }

    /// The Algorithm-1 loop body: update both trackers, cool on schedule,
    /// queue promotion candidates, flush full batches.
    #[inline]
    fn ingest_sample(&mut self, sample: Sample, mem: &mut TieredMemory, ctx: &mut PolicyCtx) {
        self.samples_seen += 1;
        self.samples_since_flush += 1;
        let key = sample.page.0;

        // Update both trackers (paper Figure 6, step 3). The fused
        // GET+INCREMENT visits the key's block once and reports the
        // pre-update estimate for the histogram transition; the pair
        // touches the same lines, reported once.
        let (old_f, new_f) = self.freq.increment_with_prev(key);
        self.hist.transition(old_f, new_f);
        self.freq.touched_lines(key, &mut ctx.metadata_lines);
        ctx.metadata_lines
            .push(HIST_BASE + u64::from(new_f.min(63)) / 8 * 64);
        let new_m = if self.config.momentum_enabled {
            let m = self.momentum.increment(key);
            self.momentum.touched_lines(key, &mut ctx.metadata_lines);
            m
        } else {
            0
        };

        // Cooling (EMA decay): high period for frequency, low for momentum
        // (countdowns, identical cadence to `samples_seen % period == 0`).
        self.freq_cool_in -= 1;
        if self.freq_cool_in == 0 {
            self.freq_cool_in = self.config.freq_cool_samples;
            self.freq.cool();
            self.hist.cool();
            self.cooling_epoch += 1;
        }
        if self.config.momentum_enabled {
            self.momentum_cool_in -= 1;
            if self.momentum_cool_in == 0 {
                self.momentum_cool_in = self.config.momentum_cool_samples;
                self.momentum.cool();
                self.quiet_key = None;
            }
        }

        // Promotion candidacy (Table 1, slow-tier column).
        if sample.tier == Tier::Slow {
            let decision = MigrationDecision::decide(
                self.is_freq_hot(new_f),
                self.is_momentum_hot(new_m),
                false,
            );
            if decision == MigrationDecision::Promote {
                self.promo_queue.push(sample.page);
            }
        }

        if self.samples_since_flush >= self.config.batch_samples {
            self.flush_promotions(sample.at_ns, mem, ctx);
        }
    }

    fn is_freq_hot(&self, f: u32) -> bool {
        f >= self.freq_threshold
    }

    fn is_momentum_hot(&self, m: u32) -> bool {
        self.config.momentum_enabled && m >= self.config.momentum_threshold
    }

    /// Flushes the promotion batch with one modeled syscall (paper §4.3).
    fn flush_promotions(&mut self, now_ns: u64, mem: &mut TieredMemory, ctx: &mut PolicyCtx) {
        self.samples_since_flush = 0;
        self.freq_threshold = self.hist.threshold_for(
            mem.topology().tier(0).capacity_pages,
            self.config.min_freq_threshold,
        );
        if self.promo_queue.is_empty() {
            return;
        }
        ctx.tiering_work_ns += SYSCALL_NS;
        let queue = std::mem::take(&mut self.promo_queue);
        for page in queue {
            if mem.tier_of(page) != Some(Tier::Slow) {
                continue;
            }
            if mem.fast_free() == 0 {
                self.demote_scan(now_ns, mem, ctx);
                if mem.fast_free() == 0 {
                    continue; // nothing demotable right now; drop candidate
                }
            }
            let _ = mem.promote(page);
        }
    }

    /// Watermark-driven linear demotion scan (paper §4.3): walk the address
    /// space, applying Table 1 to fast-tier pages until the free fraction
    /// recovers to `DEMOTE_WMARK` or the scan budget is exhausted.
    ///
    /// A revolution over the whole address space (`n ≤ max_scan_per_call`)
    /// finding every rung-0 page momentum-hot is *quiet*: Table 1 makes each
    /// `NoAction`, so it moves nothing and ends where it began. Momentum only
    /// rises between coolings, so until momentum cools or a page enters or
    /// leaves rung 0, each later scan past the watermark test would walk it
    /// again with the same lines and `n × PAGEMAP_ENTRY_NS`: it replays instead.
    fn demote_scan(&mut self, now_ns: u64, mem: &mut TieredMemory, ctx: &mut PolicyCtx) {
        let n = mem.address_space_pages();
        if mem.fast_free_below(self.config.demote_wmark)
            && self.quiet_key == Some(mem.fast_set_changes())
        {
            ctx.tiering_work_ns += n * PAGEMAP_ENTRY_NS;
            ctx.metadata_lines.extend_from_slice(&self.quiet_lines);
            return;
        }
        let budget = self.config.max_scan_per_call.min(n);
        let first_line = ctx.metadata_lines.len();
        let mut quiet = true;
        let mut walked = 0;
        while mem.fast_free_below(self.config.demote_wmark) && walked < budget {
            let from = self.scan_cursor;
            let (page, step) = mem.next_resident(0, &mut self.scan_cursor, budget - walked);
            walked += step;
            meter(step, 0);
            ctx.tiering_work_ns += step * PAGEMAP_ENTRY_NS;
            push_pagemap_lines(from, step, n, &mut ctx.metadata_lines);
            let Some(page) = page else { break };
            self.freq.touched_lines(page.0, &mut ctx.metadata_lines);
            if self.config.momentum_enabled {
                self.momentum.touched_lines(page.0, &mut ctx.metadata_lines);
            }
            // Table 1: momentum-hot is `NoAction`, so read frequency if cold.
            meter(0, 1);
            if self.is_momentum_hot(self.momentum.estimate(page.0)) {
                continue;
            }
            quiet = false;
            meter(0, 1);
            let f = self.freq.estimate(page.0);
            match MigrationDecision::decide(self.is_freq_hot(f), false, true) {
                MigrationDecision::Demote => {
                    self.second_chance.remove(page.0);
                    let _ = mem.demote(page);
                }
                MigrationDecision::SecondChance => {
                    match self.second_chance.get(page.0) {
                        None => {
                            self.second_chance
                                .insert(page.0, (f, now_ns, self.cooling_epoch));
                        }
                        Some((saved, marked_at, epoch)) => {
                            if now_ns.saturating_sub(marked_at)
                                >= self.config.second_chance_revisit_ns
                            {
                                // An un-accessed page's count can only have
                                // decayed by cooling since marking; anything
                                // above `saved >> coolings` means new
                                // accesses arrived.
                                let coolings = (self.cooling_epoch - epoch).min(31);
                                let expected = saved >> coolings;
                                meter(0, 1);
                                if self.freq.estimate(page.0) <= expected {
                                    // Not accessed since marking: demote.
                                    self.second_chance.remove(page.0);
                                    let _ = mem.demote(page);
                                } else {
                                    // Still being accessed: re-mark.
                                    self.second_chance
                                        .insert(page.0, (f, now_ns, self.cooling_epoch));
                                }
                            }
                        }
                    }
                }
                MigrationDecision::NoAction | MigrationDecision::Promote => {}
            }
        }
        if quiet && walked == n {
            self.quiet_key = Some(mem.fast_set_changes());
            self.quiet_lines.clear();
            self.quiet_lines
                .extend_from_slice(&ctx.metadata_lines[first_line..]);
        }
    }
}

impl TieringPolicy for HybridTierPolicy {
    fn name(&self) -> &'static str {
        if !self.config.momentum_enabled {
            "HybridTier-onlyFreqCBF"
        } else if self.config.layout == TrackerLayout::Standard {
            "HybridTier-CBF"
        } else {
            "HybridTier"
        }
    }

    /// Estimated hot-set size: pages at or above the *minimum* hotness
    /// level (used by the global controller of paper §7 to apportion fast
    /// memory across tenants). The adaptive threshold is unsuitable here —
    /// it rises until the hot set fits the current quota, so measuring at
    /// it would always report "exactly my quota".
    fn fast_demand_pages(&self, _mem: &TieredMemory) -> u64 {
        self.hist.pages_at_or_above(self.config.min_freq_threshold)
    }

    fn on_sample_batch(&mut self, samples: &[Sample], mem: &mut TieredMemory, ctx: &mut PolicyCtx) {
        for &sample in samples {
            self.ingest_sample(sample, mem, ctx);
        }
    }

    fn on_tick(&mut self, now_ns: u64, mem: &mut TieredMemory, ctx: &mut PolicyCtx) {
        // Time-based flush so trailing candidates are not stranded.
        if !self.promo_queue.is_empty() {
            self.flush_promotions(now_ns, mem, ctx);
        }
        if mem.fast_free_below(self.config.promo_wmark) {
            self.demote_scan(now_ns, mem, ctx);
        }
        // Cascade watermark pressure down any middle rungs (no-op on the
        // 2-tier testbed).
        self.chain.cascade(
            mem,
            self.config.demote_wmark,
            self.config.max_scan_per_call,
            ctx,
        );
    }

    fn metadata_bytes(&self) -> usize {
        // Second-chance marks are charged at their live payload (24 B per
        // entry: 8 B key + 16 B record), the figure this policy has always
        // reported and the golden suite snapshots; the flat table's
        // allocated capacity is visible via `debug_state`.
        self.freq.metadata_bytes()
            + self.momentum.metadata_bytes()
            + self.hist.metadata_bytes()
            + self.second_chance.resident_bytes()
            + self.promo_queue.capacity() * 8
    }

    fn debug_state(&self) -> String {
        format!(
            "thr={} 2nd={}/{}B queue={} epoch={}",
            self.freq_threshold,
            self.second_chance.len(),
            self.second_chance.allocated_bytes(),
            self.promo_queue.len(),
            self.cooling_epoch
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiering_mem::TierRatio;

    fn setup(ratio: TierRatio) -> (HybridTierPolicy, TieredMemory) {
        let cfg = TierConfig::for_footprint(4_096, ratio, PageSize::Base4K);
        let mut ht_cfg = HybridTierConfig::scaled();
        ht_cfg.batch_samples = 16; // small batches for unit tests
        ht_cfg.freq_cool_samples = 1_000_000;
        ht_cfg.momentum_cool_samples = 1_000_000;
        let policy = HybridTierPolicy::new(ht_cfg, &cfg);
        (policy, TieredMemory::new(cfg))
    }

    fn sample(page: u64, tier: Tier, at_ns: u64) -> Sample {
        Sample {
            page: PageId(page),
            addr: page << 12,
            tier,
            at_ns,
            is_write: false,
        }
    }

    #[test]
    fn table1_decision_matrix() {
        use MigrationDecision::*;
        // Slow-tier column.
        assert_eq!(MigrationDecision::decide(true, true, false), Promote);
        assert_eq!(MigrationDecision::decide(true, false, false), Promote);
        assert_eq!(MigrationDecision::decide(false, true, false), Promote);
        assert_eq!(MigrationDecision::decide(false, false, false), NoAction);
        // Fast-tier column.
        assert_eq!(MigrationDecision::decide(true, true, true), NoAction);
        assert_eq!(MigrationDecision::decide(true, false, true), SecondChance);
        assert_eq!(MigrationDecision::decide(false, true, true), NoAction);
        assert_eq!(MigrationDecision::decide(false, false, true), Demote);
    }

    #[test]
    fn pagemap_lines_are_the_multiples_of_8_the_hand_lands_on() {
        // 64 / 65 / 130: runs over several cache lines, and revolutions
        // that wrap with and without a partial last line.
        for n in [1u64, 7, 8, 9, 16, 21, 64, 65, 130] {
            for from in 0..n {
                for walked in 0..=n {
                    let mut hand = from;
                    let mut expected = Vec::new();
                    for _ in 0..walked {
                        hand = (hand + 1) % n;
                        if hand.is_multiple_of(8) {
                            expected.push(PAGEMAP_BASE + hand);
                        }
                    }
                    let mut got = Vec::new();
                    push_pagemap_lines(from, walked, n, &mut got);
                    assert_eq!(got, expected, "n={n} from={from} walked={walked}");
                }
            }
        }
    }

    #[test]
    fn momentum_promotes_new_hot_page_quickly() {
        let (mut p, mut mem) = setup(TierRatio::OneTo16);
        let mut ctx = PolicyCtx::new();
        mem.ensure_mapped(PageId(7), Tier::Slow);
        // Burst of accesses to a brand-new page: momentum (threshold 3)
        // should trigger promotion on the next batch flush even though
        // frequency history is shallow.
        for i in 0..16 {
            p.on_sample_batch(&[sample(7, Tier::Slow, i)], &mut mem, &mut ctx);
        }
        assert_eq!(mem.tier_of(PageId(7)), Some(Tier::Fast));
    }

    #[test]
    fn freq_only_ablation_does_not_use_momentum() {
        let cfg = TierConfig::for_footprint(4_096, TierRatio::OneTo16, PageSize::Base4K);
        let mut ht_cfg = HybridTierConfig::scaled().without_momentum();
        ht_cfg.batch_samples = 4;
        ht_cfg.min_freq_threshold = 10; // high bar frequency can't reach fast
        let mut p = HybridTierPolicy::new(ht_cfg, &cfg);
        let mut mem = TieredMemory::new(cfg);
        let mut ctx = PolicyCtx::new();
        mem.ensure_mapped(PageId(3), Tier::Slow);
        for i in 0..8 {
            p.on_sample_batch(&[sample(3, Tier::Slow, i)], &mut mem, &mut ctx);
        }
        assert_eq!(
            mem.tier_of(PageId(3)),
            Some(Tier::Slow),
            "without momentum, a short burst must not promote below the freq threshold"
        );
        assert_eq!(p.name(), "HybridTier-onlyFreqCBF");
    }

    #[test]
    fn demotion_scan_evicts_cold_pages_under_pressure() {
        let (mut p, mut mem) = setup(TierRatio::OneTo16);
        let mut ctx = PolicyCtx::new();
        let fast_cap = mem.config().fast_capacity_pages;
        // Fill the fast tier with never-sampled (cold) pages.
        for i in 0..fast_cap {
            mem.ensure_mapped(PageId(i), Tier::Fast);
        }
        assert_eq!(mem.fast_free(), 0);
        p.on_tick(0, &mut mem, &mut ctx);
        assert!(
            !mem.fast_free_below(0.06),
            "scan should demote cold pages to DEMOTE_WMARK, {} free",
            mem.fast_free()
        );
        assert!(mem.stats().demotions > 0);
    }

    #[test]
    fn hot_fast_pages_survive_demotion_scan() {
        let (mut p, mut mem) = setup(TierRatio::OneTo16);
        let mut ctx = PolicyCtx::new();
        let fast_cap = mem.config().fast_capacity_pages;
        for i in 0..fast_cap {
            mem.ensure_mapped(PageId(i), Tier::Fast);
        }
        // Make page 0 intensely hot (both trackers).
        for i in 0..50 {
            p.on_sample_batch(&[sample(0, Tier::Fast, i)], &mut mem, &mut ctx);
        }
        p.on_tick(100, &mut mem, &mut ctx);
        assert_eq!(
            mem.tier_of(PageId(0)),
            Some(Tier::Fast),
            "momentum-hot page must not be demoted"
        );
    }

    #[test]
    fn second_chance_defers_then_demotes_stale_pages() {
        let cfg = TierConfig::for_footprint(256, TierRatio::OneTo4, PageSize::Base4K);
        let mut ht_cfg = HybridTierConfig::scaled();
        ht_cfg.batch_samples = 1_000_000; // no auto flush
        ht_cfg.momentum_cool_samples = 4; // momentum cools fast
        ht_cfg.freq_cool_samples = 1_000_000;
        ht_cfg.second_chance_revisit_ns = 100;
        ht_cfg.min_freq_threshold = 2;
        // Keep the scan always active and bounded to one wrap, so the
        // revisit dynamics are deterministic.
        ht_cfg.promo_wmark = 1.0;
        ht_cfg.demote_wmark = 1.0;
        ht_cfg.max_scan_per_call = 256;
        let mut p = HybridTierPolicy::new(ht_cfg, &cfg);
        let mut mem = TieredMemory::new(cfg);
        let mut ctx = PolicyCtx::new();
        let fast_cap = mem.config().fast_capacity_pages;
        for i in 0..fast_cap {
            mem.ensure_mapped(PageId(i), Tier::Fast);
        }
        // Page 0 historically hot: many samples...
        for i in 0..16 {
            p.on_sample_batch(&[sample(0, Tier::Fast, i)], &mut mem, &mut ctx);
        }
        assert!(p.freq_estimate(PageId(0)) >= 2);
        // ...then it goes quiet while other pages keep the sampler busy, so
        // momentum cooling (every 4 samples) erodes its burst score to 0.
        for i in 0..16 {
            p.on_sample_batch(&[sample(1, Tier::Fast, 100 + i)], &mut mem, &mut ctx);
        }
        assert_eq!(p.momentum_estimate(PageId(0)), 0, "momentum cooled to 0");
        // First scan: page 0 is freq-hot/momentum-cold → marked, not demoted.
        p.on_tick(1_000, &mut mem, &mut ctx);
        assert_eq!(mem.tier_of(PageId(0)), Some(Tier::Fast));
        assert!(!p.second_chance.is_empty());
        // Second scan past the revisit window with no further accesses:
        // demoted.
        p.on_tick(10_000, &mut mem, &mut ctx);
        assert_eq!(
            mem.tier_of(PageId(0)),
            Some(Tier::Slow),
            "stale second-chance page should be demoted on revisit"
        );
    }

    thread_local! {
        /// Work meter: page-table entries the demotion scan walked and CBF
        /// estimates it read, on this thread.
        static SCAN_WORK: std::cell::Cell<[u64; 2]> = const { std::cell::Cell::new([0; 2]) };
    }

    pub(super) fn meter(walked: u64, probes: u64) {
        SCAN_WORK.with(|w| {
            let [a, b] = w.get();
            w.set([a + walked, b + probes]);
        });
    }

    fn scan_work() -> [u64; 2] {
        SCAN_WORK.with(std::cell::Cell::get)
    }

    /// One policy + memory of the quiet-regime differential below.
    struct Pair {
        p: HybridTierPolicy,
        mem: TieredMemory,
        ctx: PolicyCtx,
    }

    impl Pair {
        fn new(max_scan_per_call: u64) -> Self {
            let cfg = TierConfig::for_footprint(512, TierRatio::OneTo16, PageSize::Base4K);
            let mut ht_cfg = HybridTierConfig::scaled();
            // Every sample flushes its own batch, so a call runs at most one
            // scan: the reference, cleared before each call, never replays.
            ht_cfg.batch_samples = 1;
            ht_cfg.momentum_cool_samples = 1_000;
            ht_cfg.freq_cool_samples = 1_000_000;
            ht_cfg.second_chance_revisit_ns = 50_000;
            ht_cfg.max_scan_per_call = max_scan_per_call;
            let mut mem = TieredMemory::new(cfg);
            for pg in 0..480 {
                mem.ensure_mapped(PageId(pg), if pg < 32 { Tier::Fast } else { Tier::Slow });
            }
            Self {
                p: HybridTierPolicy::new(ht_cfg, &cfg),
                mem,
                ctx: PolicyCtx::new(),
            }
        }

        /// Runs one call, returning the `[walked, probes]` it cost.
        fn call(&mut self, tick: bool, page: u64, now_ns: u64) -> [u64; 2] {
            let before = scan_work();
            self.ctx.drain();
            if tick {
                self.p.on_tick(now_ns, &mut self.mem, &mut self.ctx);
            } else {
                let tier = self
                    .mem
                    .tier_of(PageId(page))
                    .expect("sampled pages are mapped");
                let s = sample(page, tier, now_ns);
                self.p.on_sample_batch(&[s], &mut self.mem, &mut self.ctx);
            }
            let after = scan_work();
            [after[0] - before[0], after[1] - before[1]]
        }

        fn assert_same(&self, other: &Self, step: u64) {
            assert_eq!(
                self.ctx.metadata_lines, other.ctx.metadata_lines,
                "lines, step {step}"
            );
            assert_eq!(
                self.ctx.tiering_work_ns, other.ctx.tiering_work_ns,
                "work, step {step}"
            );
            assert_eq!(self.mem.stats(), other.mem.stats(), "stats, step {step}");
            assert_eq!(
                self.p.scan_cursor, other.p.scan_cursor,
                "cursor, step {step}"
            );
            for pg in 0..self.mem.address_space_pages() {
                let page = PageId(pg);
                assert_eq!(
                    self.mem.tier_of(page),
                    other.mem.tier_of(page),
                    "{page}, step {step}"
                );
                assert_eq!(
                    self.p.second_chance.get(pg),
                    other.p.second_chance.get(pg),
                    "second chance of {page}, step {step}"
                );
            }
        }
    }

    /// Drives a walking reference pair (memo cleared before every call) and
    /// a replaying pair through a quiet regime — every fast page sampled
    /// until momentum-hot, slow pages bursting into promotion candidates —
    /// past momentum coolings, a capacity shrink and grow, first-touch
    /// allocations into rung 0, a hot-set shift that brings promotions,
    /// second-chance marks and revisits, and asserts both agree after every
    /// call. Returns how many scans the replaying pair replayed.
    fn quiet_regime_differential(max_scan_per_call: u64) -> u64 {
        let (mut walking, mut replaying) =
            (Pair::new(max_scan_per_call), Pair::new(max_scan_per_call));
        let n = walking.mem.address_space_pages();
        let mut hot: Vec<u64> = (0..32).collect();
        let (mut burst, mut burst_left) = (0, 0);
        let mut state = 0x0051_E7C4_u64;
        let (mut replays, mut revisited) = (0, 0);
        for step in 0..24_000u64 {
            if step == 6_000 {
                // Over quota, but every fast page is still momentum-hot.
                walking.mem.set_fast_capacity(28);
                replaying.mem.set_fast_capacity(28);
            }
            if step == 9_000 {
                // Grow, first-touch two pages into rung 0, then shift the hot
                // set: 0..8 go cold (second chance, then demotion) and
                // 100..108 heat up and are promoted.
                for x in [&mut walking, &mut replaying] {
                    x.mem.set_fast_capacity(36);
                    for pg in [500, 501] {
                        assert_eq!(x.mem.ensure_mapped(PageId(pg), Tier::Fast), Tier::Fast);
                    }
                }
                hot = (8..32).chain(100..108).chain([500, 501]).collect();
            }
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let r = state >> 33;
            let tick = step % 64 == 63;
            if !tick && burst_left == 0 && r.is_multiple_of(97) {
                (burst, burst_left) = (200 + r % 280, 3);
            }
            let page = if burst_left > 0 && !tick {
                burst_left -= 1;
                burst
            } else {
                hot[(r % hot.len() as u64) as usize]
            };
            // Marks past their revisit window: the next scan to reach one
            // demotes or re-marks it.
            let now_ns = step * 1_000;
            let due: Vec<_> = (0..n)
                .filter_map(|pg| Some((pg, walking.p.second_chance.get(pg)?)))
                .filter(|&(_, (_, at, _))| now_ns - at >= walking.p.config.second_chance_revisit_ns)
                .collect();
            walking.p.quiet_key = None;
            let walked = walking.call(tick, page, now_ns);
            let memo_valid = replaying.p.quiet_key == Some(replaying.mem.fast_set_changes());
            let replayed = replaying.call(tick, page, now_ns);
            walking.assert_same(&replaying, step);
            if replayed != walked {
                // The meter's bound: a replayed revolution walks 0 entries
                // and makes 0 CBF probes. The walk it stands for is one
                // revolution, one momentum probe per (momentum-hot) rung-0
                // page and no frequency probe.
                assert!(memo_valid, "step {step}");
                assert_eq!(replayed, [0, 0], "step {step}");
                assert_eq!(walked, [n, walking.mem.fast_used()], "step {step}");
                replays += 1;
            }
            revisited += due
                .iter()
                .filter(|&&(pg, mark)| walking.p.second_chance.get(pg) != Some(mark))
                .count();
        }
        let (stats, coolings) = (walking.mem.stats(), walking.p.samples_seen / 1_000);
        assert!(coolings >= 20, "{coolings} momentum coolings");
        assert!(
            stats.allocated_fast == 34 && stats.promotions >= 8,
            "{stats:?}"
        );
        assert!(revisited > 0, "no second-chance mark was revisited");
        replays
    }

    #[test]
    fn quiet_revolution_replay_equals_walking() {
        // The whole address space fits one scan: quiet revolutions replay.
        let replays = quiet_regime_differential(32_768);
        assert!(replays >= 100, "{replays} replays");
        // 512 pages against a 200-entry budget: no scan walks a revolution,
        // so none is recorded and none replays.
        assert_eq!(quiet_regime_differential(200), 0);
    }

    #[test]
    fn batch_flush_cadence() {
        let (mut p, mut mem) = setup(TierRatio::OneTo16);
        let mut ctx = PolicyCtx::new();
        for pg in 0..100u64 {
            mem.ensure_mapped(PageId(pg), Tier::Slow);
        }
        // 15 samples (batch = 16): candidates queued but not flushed.
        for i in 0..15 {
            p.on_sample_batch(&[sample(i % 5, Tier::Slow, i)], &mut mem, &mut ctx);
        }
        assert_eq!(mem.stats().promotions, 0, "no flush before the batch fills");
        p.on_sample_batch(&[sample(0, Tier::Slow, 15)], &mut mem, &mut ctx);
        assert!(mem.stats().promotions > 0, "batch flush promotes");
    }

    #[test]
    #[should_panic(expected = "cooling periods must be positive")]
    fn zero_cooling_period_rejected() {
        let cfg = TierConfig::for_footprint(256, TierRatio::OneTo4, PageSize::Base4K);
        let mut ht_cfg = HybridTierConfig::scaled();
        ht_cfg.freq_cool_samples = 0;
        let _ = HybridTierPolicy::new(ht_cfg, &cfg);
    }

    #[test]
    fn metadata_is_far_smaller_than_16b_per_page() {
        let cfg = TierConfig::for_footprint(100_000, TierRatio::OneTo16, PageSize::Base4K);
        let p = HybridTierPolicy::new(HybridTierConfig::scaled(), &cfg);
        let memtis_equivalent = 100_000 * 16;
        assert!(
            p.metadata_bytes() * 2 < memtis_equivalent,
            "HybridTier {}B vs Memtis-style {}B",
            p.metadata_bytes(),
            memtis_equivalent
        );
    }

    #[test]
    fn blocked_layout_touches_fewer_lines_than_standard() {
        let cfg = TierConfig::for_footprint(50_000, TierRatio::OneTo8, PageSize::Base4K);
        let mut blocked = HybridTierPolicy::new(HybridTierConfig::scaled(), &cfg);
        let mut standard = HybridTierPolicy::new(
            HybridTierConfig::scaled().with_layout(TrackerLayout::Standard),
            &cfg,
        );
        let mut mem_b = TieredMemory::new(cfg);
        let mut mem_s = TieredMemory::new(cfg);
        let (mut cb, mut cs) = (PolicyCtx::new(), PolicyCtx::new());
        for pg in 0..200u64 {
            mem_b.ensure_mapped(PageId(pg), Tier::Slow);
            mem_s.ensure_mapped(PageId(pg), Tier::Slow);
        }
        for i in 0..200u64 {
            blocked.on_sample_batch(&[sample(i % 200, Tier::Slow, i)], &mut mem_b, &mut cb);
            standard.on_sample_batch(&[sample(i % 200, Tier::Slow, i)], &mut mem_s, &mut cs);
        }
        assert!(
            cb.metadata_lines.len() < cs.metadata_lines.len(),
            "blocked {} lines vs standard {}",
            cb.metadata_lines.len(),
            cs.metadata_lines.len()
        );
        assert_eq!(standard.name(), "HybridTier-CBF");
    }

    #[test]
    fn threshold_adapts_to_distribution() {
        let (mut p, mut mem) = setup(TierRatio::OneTo16);
        let mut ctx = PolicyCtx::new();
        for pg in 0..1_000u64 {
            mem.ensure_mapped(PageId(pg), Tier::Slow);
        }
        // Make far more pages "hot at level >= 2" than fast capacity (256):
        // threshold must rise above the minimum.
        for round in 0..6 {
            for pg in 0..1_000u64 {
                p.on_sample_batch(
                    &[sample(pg, Tier::Slow, round * 1_000 + pg)],
                    &mut mem,
                    &mut ctx,
                );
            }
        }
        assert!(
            p.freq_threshold() > 2,
            "threshold {} should exceed the minimum when the hot set overflows",
            p.freq_threshold()
        );
    }
}
