//! The tiered page table: placement, capacity accounting, and migration.

use std::error::Error;
use std::fmt;

use crate::latency::LatencyModel;
use crate::page::{PageId, PageSize, Tier};
use crate::topology::TierTopology;

/// Fast:slow capacity ratios evaluated in the paper (§6.1: "the x-axis
/// indicates the ratio between fast and slow-tier memory capacity").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TierRatio {
    /// Fast tier is 1/16 of the slow tier (scarce fast memory).
    OneTo16,
    /// Fast tier is 1/8 of the slow tier.
    OneTo8,
    /// Fast tier is 1/4 of the slow tier (abundant fast memory).
    OneTo4,
}

impl TierRatio {
    /// All three ratios, in the order the paper plots them.
    pub const ALL: [TierRatio; 3] = [TierRatio::OneTo16, TierRatio::OneTo8, TierRatio::OneTo4];

    /// The slow-tier multiple (16, 8, or 4).
    pub fn slow_multiple(self) -> u64 {
        match self {
            TierRatio::OneTo16 => 16,
            TierRatio::OneTo8 => 8,
            TierRatio::OneTo4 => 4,
        }
    }
}

impl fmt::Display for TierRatio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "1:{}", self.slow_multiple())
    }
}

/// Capacity configuration for the two tiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierConfig {
    /// Pages the fast tier can hold.
    pub fast_capacity_pages: u64,
    /// Pages the slow tier can hold.
    pub slow_capacity_pages: u64,
    /// Page granularity.
    pub page_size: PageSize,
    /// Number of pages in the application's address space (page table span).
    pub address_space_pages: u64,
}

impl TierConfig {
    /// Sizes the tiers for a workload of `footprint_pages` at the given
    /// ratio, mirroring the paper's setup: the slow tier alone can hold the
    /// whole footprint (theirs is fixed at 512 GiB ≥ every workload), and
    /// the fast tier is `footprint / ratio` — e.g. 1:8 gives a fast tier
    /// holding 1/8 of the footprint.
    ///
    /// # Panics
    ///
    /// Panics if `footprint_pages == 0`.
    pub fn for_footprint(footprint_pages: u64, ratio: TierRatio, page_size: PageSize) -> Self {
        assert!(footprint_pages > 0, "footprint must be non-empty");
        let fast = (footprint_pages / ratio.slow_multiple()).max(1);
        Self {
            fast_capacity_pages: fast,
            slow_capacity_pages: footprint_pages,
            page_size,
            address_space_pages: footprint_pages,
        }
    }

    /// A configuration whose fast tier holds the entire footprint — the
    /// all-fast-tier upper bound of paper Figure 11.
    pub fn all_fast(footprint_pages: u64, page_size: PageSize) -> Self {
        Self {
            fast_capacity_pages: footprint_pages,
            slow_capacity_pages: footprint_pages,
            page_size,
            address_space_pages: footprint_pages,
        }
    }

    /// Total bytes across both tiers.
    pub fn total_bytes(&self) -> u64 {
        (self.fast_capacity_pages + self.slow_capacity_pages) * self.page_size.bytes()
    }
}

/// Why a migration could not be performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationError {
    /// The page has never been touched (no mapping exists).
    NotMapped(PageId),
    /// The page is already resident in the requested tier.
    AlreadyThere(PageId, Tier),
    /// The destination tier has no free capacity.
    TierFull(Tier),
}

impl fmt::Display for MigrationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MigrationError::NotMapped(p) => write!(f, "{p} is not mapped"),
            MigrationError::AlreadyThere(p, t) => write!(f, "{p} is already in the {t} tier"),
            MigrationError::TierFull(t) => write!(f, "{t} tier is full"),
        }
    }
}

impl Error for MigrationError {}

/// Running migration/allocation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MigrationStats {
    /// Page hops moved toward the fast end of the ladder (slow → fast in
    /// the 2-tier testbed).
    pub promotions: u64,
    /// Page hops moved toward the cold end (fast → slow in 2-tier).
    pub demotions: u64,
    /// First-touch allocations landing in the fast tier (tier 0).
    pub allocated_fast: u64,
    /// First-touch allocations landing below the fast tier.
    pub allocated_slow: u64,
    /// Promotions rejected because the destination tier was full.
    pub failed_promotions: u64,
}

/// Exactly compares the rational `num / den` against an `f64` threshold —
/// `num / den < threshold` — without a floating-point division.
///
/// The threshold decomposes exactly into `m · 2^e` (every finite `f64`
/// does), so the comparison reduces to integer arithmetic in `u128` with
/// shift-overflow guards. `fast_free_frac() < w` computed through `f64`
/// division agrees everywhere except ratios within one rounding error of
/// the threshold, where the division's round-to-nearest can flip the
/// verdict; this form is the exact one. NaN thresholds compare `false`
/// (matching `<` on `f64`); a zero denominator compares `false`.
pub fn frac_lt(num: u64, den: u64, threshold: f64) -> bool {
    if den == 0 || threshold.is_nan() || threshold <= 0.0 {
        // num/den >= 0, so it is only below a strictly positive threshold.
        return false;
    }
    if threshold == f64::INFINITY {
        return true;
    }
    // threshold = m * 2^e exactly.
    let bits = threshold.to_bits();
    let raw_exp = ((bits >> 52) & 0x7ff) as i64;
    let raw_man = bits & ((1u64 << 52) - 1);
    let (mut m, mut e) = if raw_exp == 0 {
        (raw_man, -1074i64)
    } else {
        (raw_man | (1u64 << 52), raw_exp - 1075)
    };
    let tz = m.trailing_zeros();
    m >>= tz;
    e += i64::from(tz);
    if e >= 0 {
        // num/den < m·2^e  ⟺  num < den·m·2^e. Overflow means the right
        // side exceeds u128 (and so any u64 numerator).
        if e >= 128 {
            return true;
        }
        let prod = (den as u128) * (m as u128); // den·m < 2^64 · 2^53, fits.
        if prod.leading_zeros() < e as u32 {
            // den·m·2^e ≥ 2^128: above any u64 numerator.
            return true;
        }
        (num as u128) < (prod << e)
    } else {
        // num/den < m·2^e  ⟺  num·2^s < den·m with s = -e. den·m < 2^117
        // always fits; a left-shift overflow means the left side ≥ 2^128.
        let s = (-e) as u32;
        if num == 0 {
            return true;
        }
        if s >= 128 || (num as u128).leading_zeros() < s {
            return false;
        }
        ((num as u128) << s) < (den as u128) * (m as u128)
    }
}

const UNMAPPED: u8 = u8::MAX;

/// The tiered page table.
///
/// Maps every page of the application address space to its current tier and
/// enforces tier capacities. This is the simulator's analogue of the kernel
/// page table plus NUMA placement; policies manipulate it through
/// [`promote`](TieredMemory::promote) / [`demote`](TieredMemory::demote)
/// (the stand-ins for `move_pages(2)`) and read it through
/// [`tier_of`](TieredMemory::tier_of) (the stand-in for
/// `/proc/PID/pagemap` scans, which is how HybridTier's demotion scan walks
/// the address space, §4.3).
///
/// Internally the table is an N-tier ladder ([`TierTopology`]): the classic
/// constructor [`new`](TieredMemory::new) builds the 2-tier testbed, while
/// [`with_topology`](TieredMemory::with_topology) runs deeper hierarchies.
/// The binary [`Tier`] API is a facade over the ladder — tier 0 reads as
/// [`Tier::Fast`], every rung below it as [`Tier::Slow`] — so policies
/// written for two tiers keep working; ladder-aware callers use
/// [`tier_index_of`](TieredMemory::tier_index_of) and the
/// [`promote_toward`](TieredMemory::promote_toward) /
/// [`demote_toward`](TieredMemory::demote_toward) adjacent-hop moves.
#[derive(Debug, Clone)]
pub struct TieredMemory {
    config: TierConfig,
    topology: TierTopology,
    /// Placement per page: tier index, or [`UNMAPPED`].
    table: Vec<u8>,
    /// Pages resident per rung.
    used: Vec<u64>,
    stats: MigrationStats,
    /// Accumulated per-hop migration cost (each hop charged at the slower
    /// rung's rate), drained by [`take_migration_ns`](Self::take_migration_ns).
    migration_ns: u64,
}

impl TieredMemory {
    /// Creates an empty 2-tier memory with the given configuration (the
    /// classic emulated-CXL testbed shape).
    pub fn new(config: TierConfig) -> Self {
        Self::with_topology(TierTopology::two_tier(config, &LatencyModel::default()))
    }

    /// Creates an empty memory over an arbitrary N-tier ladder.
    pub fn with_topology(topology: TierTopology) -> Self {
        Self {
            config: topology.as_tier_config(),
            table: vec![UNMAPPED; topology.address_space_pages() as usize],
            used: vec![0; topology.n_tiers()],
            topology,
            stats: MigrationStats::default(),
            migration_ns: 0,
        }
    }

    /// The 2-tier facade of this memory's configuration: `fast` is tier 0,
    /// `slow` pools every rung below it. Exactly the constructor argument
    /// for memories built with [`new`](Self::new).
    pub fn config(&self) -> TierConfig {
        self.config
    }

    /// The ladder this memory runs on.
    pub fn topology(&self) -> &TierTopology {
        &self.topology
    }

    /// Number of rungs in the ladder (2 for the classic testbed).
    #[inline]
    pub fn n_tiers(&self) -> usize {
        self.used.len()
    }

    #[inline]
    fn facade(idx: u8) -> Tier {
        if idx == 0 {
            Tier::Fast
        } else {
            Tier::Slow
        }
    }

    /// Current tier of `page` through the binary facade (`Fast` = tier 0,
    /// `Slow` = any rung below), or `None` if never touched.
    #[inline]
    pub fn tier_of(&self, page: PageId) -> Option<Tier> {
        match self.table.get(page.0 as usize) {
            Some(&idx) if idx != UNMAPPED => Some(Self::facade(idx)),
            _ => None,
        }
    }

    /// Current ladder index of `page` (0 = fastest), or `None` if never
    /// touched.
    #[inline]
    pub fn tier_index_of(&self, page: PageId) -> Option<usize> {
        match self.table.get(page.0 as usize) {
            Some(&idx) if idx != UNMAPPED => Some(idx as usize),
            _ => None,
        }
    }

    /// Ensures `page` is mapped, allocating it on first touch.
    ///
    /// Allocation tries `preferred` first and falls back to the nearest
    /// rung with room — colder rungs in ladder order, then warmer rungs
    /// nearest-first (Linux first-touch with fallback; in the 2-tier shape
    /// this is exactly "preferred, then the other tier"). Returns the tier
    /// the page resides in after the call.
    ///
    /// # Panics
    ///
    /// Panics if `page` is outside the configured address space, or if every
    /// tier is full (the topology guarantees the bottom tier can hold the
    /// footprint, so this indicates a harness bug).
    #[inline]
    pub fn ensure_mapped(&mut self, page: PageId, preferred: Tier) -> Tier {
        Self::facade(self.ensure_mapped_indexed(page, preferred) as u8)
    }

    /// [`ensure_mapped`](Self::ensure_mapped), returning the page's ladder
    /// index instead of the binary facade — the form ladder-aware access
    /// accounting uses.
    #[inline]
    pub fn ensure_mapped_indexed(&mut self, page: PageId, preferred: Tier) -> usize {
        let idx = page.0 as usize;
        assert!(
            idx < self.table.len(),
            "{page} outside address space of {} pages",
            self.table.len()
        );
        if self.table[idx] != UNMAPPED {
            return self.table[idx] as usize;
        }
        let preferred = match preferred {
            Tier::Fast => 0,
            Tier::Slow => 1,
        };
        let dst = self.alloc_tier(preferred);
        self.table[idx] = dst as u8;
        self.used[dst] += 1;
        if dst == 0 {
            self.stats.allocated_fast += 1;
        } else {
            self.stats.allocated_slow += 1;
        }
        dst
    }

    /// First-touch placement order: `preferred`, then each colder rung down
    /// the ladder, then warmer rungs nearest-first.
    fn alloc_tier(&self, preferred: usize) -> usize {
        if self.has_free(preferred) {
            return preferred;
        }
        for t in preferred + 1..self.n_tiers() {
            if self.has_free(t) {
                return t;
            }
        }
        for t in (0..preferred).rev() {
            if self.has_free(t) {
                return t;
            }
        }
        if self.n_tiers() == 2 {
            panic!("both tiers full; slow tier must be sized to the footprint");
        }
        panic!("all tiers full; the bottom tier must be sized to the footprint");
    }

    #[inline]
    fn has_free(&self, tier: usize) -> bool {
        self.used[tier] < self.topology.tier(tier).capacity_pages
    }

    /// Moves a mapped page one adjacent hop, `from` → `to`, charging the
    /// hop at the slower rung's migration rate.
    fn hop(&mut self, page: PageId, from: usize, to: usize) -> Result<usize, MigrationError> {
        debug_assert!(from.abs_diff(to) == 1, "hops move one rung");
        if !self.has_free(to) {
            if to < from {
                self.stats.failed_promotions += 1;
            }
            return Err(MigrationError::TierFull(Self::facade(to as u8)));
        }
        self.table[page.0 as usize] = to as u8;
        self.used[from] -= 1;
        self.used[to] += 1;
        if to < from {
            self.stats.promotions += 1;
        } else {
            self.stats.demotions += 1;
        }
        let slower = from.max(to);
        self.migration_ns = self.migration_ns.saturating_add(
            self.topology.tier(slower).migrate_base_page_ns
                * self.topology.page_size().base_pages(),
        );
        Ok(to)
    }

    /// Moves `page` one rung toward the fast end (slow → fast in 2-tier).
    ///
    /// # Errors
    ///
    /// [`MigrationError::NotMapped`] if the page was never touched,
    /// [`MigrationError::AlreadyThere`] if it is already in tier 0, or
    /// [`MigrationError::TierFull`] if the destination rung has no free
    /// page (the caller must demote first; failed promotions are counted).
    pub fn promote(&mut self, page: PageId) -> Result<(), MigrationError> {
        match self.tier_index_of(page) {
            None => Err(MigrationError::NotMapped(page)),
            Some(0) => Err(MigrationError::AlreadyThere(page, Tier::Fast)),
            Some(idx) => self.hop(page, idx, idx - 1).map(|_| ()),
        }
    }

    /// Moves `page` one rung toward the cold end (fast → slow in 2-tier).
    ///
    /// # Errors
    ///
    /// Mirror image of [`promote`](TieredMemory::promote), except failed
    /// demotions are not counted.
    pub fn demote(&mut self, page: PageId) -> Result<(), MigrationError> {
        match self.tier_index_of(page) {
            None => Err(MigrationError::NotMapped(page)),
            Some(idx) if idx == self.topology.bottom() => {
                Err(MigrationError::AlreadyThere(page, Tier::Slow))
            }
            Some(idx) => self.hop(page, idx, idx + 1).map(|_| ()),
        }
    }

    /// One adjacent hop up-ladder toward the `target` rung; returns the
    /// page's index after the hop. Calling in a loop walks the page all the
    /// way to `target` (each hop is a separate `move_pages`-equivalent and
    /// is counted/charged individually).
    ///
    /// # Errors
    ///
    /// [`MigrationError::AlreadyThere`] when the page is already at or
    /// above `target`; otherwise as [`promote`](Self::promote).
    ///
    /// # Panics
    ///
    /// Panics if `target` is not a rung of the ladder.
    pub fn promote_toward(&mut self, page: PageId, target: usize) -> Result<usize, MigrationError> {
        assert!(target < self.n_tiers(), "tier {target} outside the ladder");
        match self.tier_index_of(page) {
            None => Err(MigrationError::NotMapped(page)),
            Some(idx) if idx <= target => {
                Err(MigrationError::AlreadyThere(page, Self::facade(idx as u8)))
            }
            Some(idx) => self.hop(page, idx, idx - 1),
        }
    }

    /// One adjacent hop down-ladder toward the `target` rung; returns the
    /// page's index after the hop — the demotion-chain primitive (cascading
    /// excess fast → slow → cold instead of stopping at "slow").
    ///
    /// # Errors
    ///
    /// [`MigrationError::AlreadyThere`] when the page is already at or
    /// below `target`; otherwise as [`demote`](Self::demote).
    ///
    /// # Panics
    ///
    /// Panics if `target` is not a rung of the ladder.
    pub fn demote_toward(&mut self, page: PageId, target: usize) -> Result<usize, MigrationError> {
        assert!(target < self.n_tiers(), "tier {target} outside the ladder");
        match self.tier_index_of(page) {
            None => Err(MigrationError::NotMapped(page)),
            Some(idx) if idx >= target => {
                Err(MigrationError::AlreadyThere(page, Self::facade(idx as u8)))
            }
            Some(idx) => self.hop(page, idx, idx + 1),
        }
    }

    /// Pages currently resident in the fast tier (tier 0).
    pub fn fast_used(&self) -> u64 {
        self.used[0]
    }

    /// Pages currently resident below the fast tier.
    pub fn slow_used(&self) -> u64 {
        self.used[1..].iter().sum()
    }

    /// Pages currently resident in one rung.
    pub fn tier_used(&self, tier: usize) -> u64 {
        self.used[tier]
    }

    /// One rung's current capacity.
    pub fn tier_capacity(&self, tier: usize) -> u64 {
        self.topology.tier(tier).capacity_pages
    }

    /// Free pages remaining in one rung (zero when over quota after a
    /// capacity shrink).
    pub fn tier_free(&self, tier: usize) -> u64 {
        self.tier_capacity(tier).saturating_sub(self.used[tier])
    }

    /// Free pages remaining in the fast tier (zero when over quota after a
    /// capacity shrink).
    pub fn fast_free(&self) -> u64 {
        self.config.fast_capacity_pages.saturating_sub(self.used[0])
    }

    /// Re-sizes the fast tier (the global-tiering controller of paper §7
    /// adjusts per-tenant quotas at runtime). Shrinking below the current
    /// occupancy is allowed: the tier reports zero free pages until the
    /// policy's watermark demotion drains the excess.
    ///
    /// # Panics
    ///
    /// Panics if `pages == 0`.
    pub fn set_fast_capacity(&mut self, pages: u64) {
        assert!(pages > 0, "fast capacity must be positive");
        self.config.fast_capacity_pages = pages;
        self.topology.set_tier_capacity(0, pages);
    }

    /// Free fast-tier fraction in `[0, 1]`.
    ///
    /// This is the *display* form; watermark checks should use the exact
    /// [`fast_free_below`](Self::fast_free_below) instead of comparing this
    /// rounded quotient.
    pub fn fast_free_frac(&self) -> f64 {
        self.fast_free() as f64 / self.config.fast_capacity_pages as f64
    }

    /// Exact watermark test: `fast_free() / fast_capacity < frac`, computed
    /// in integer arithmetic ([`frac_lt`]) rather than through a rounded
    /// `f64` division. `!fast_free_below(w)` is the exact form of
    /// `fast_free_frac() >= w` (for the non-NaN thresholds policies use).
    #[inline]
    pub fn fast_free_below(&self, frac: f64) -> bool {
        frac_lt(self.fast_free(), self.config.fast_capacity_pages, frac)
    }

    /// Exact watermark test for one rung: `tier_free(tier) / capacity <
    /// frac` — the per-rung form demotion chains cascade on.
    #[inline]
    pub fn tier_free_below(&self, tier: usize, frac: f64) -> bool {
        frac_lt(
            self.tier_free(tier),
            self.topology.tier(tier).capacity_pages,
            frac,
        )
    }

    /// Number of pages in the address space (mapped or not).
    pub fn address_space_pages(&self) -> u64 {
        self.config.address_space_pages
    }

    /// Number of currently mapped pages.
    #[cfg(test)]
    fn mapped_pages(&self) -> u64 {
        self.used.iter().sum()
    }

    /// Migration statistics so far.
    pub fn stats(&self) -> MigrationStats {
        self.stats
    }

    /// Drains the accumulated per-hop migration cost (each hop charged at
    /// the slower rung's `migrate_base_page_ns` × page span) — what the
    /// pipeline's account stage charges. On a [`TierTopology::two_tier`]
    /// ladder this is `moves × LatencyModel::migrate_page_ns`.
    pub fn take_migration_ns(&mut self) -> u64 {
        std::mem::take(&mut self.migration_ns)
    }

    /// Iterates over all mapped pages and their facade tiers in address
    /// order — the simulator analogue of a linear `/proc/PID/pagemap` scan.
    pub fn iter_mapped(&self) -> impl Iterator<Item = (PageId, Tier)> + '_ {
        self.table
            .iter()
            .enumerate()
            .filter(|&(_, &t)| t != UNMAPPED)
            .map(|(i, &t)| (PageId(i as u64), Self::facade(t)))
    }

    /// The clock sweep every watermark demotion runs on: advances `hand`
    /// (a page-table position the caller owns and keeps between calls),
    /// wrapping at the end of the address space, over at most `budget`
    /// entries, and stops just past the first entry resident on `rung`.
    /// Returns that page (`None` when the budget ran out first — the hand
    /// has then advanced by exactly `budget`) and the number of entries
    /// walked, which is what a caller charges scan cost for.
    ///
    /// Occupancy only changes when a caller moves the page it was handed,
    /// so a watermark tested before the first call and after each returned
    /// page decides exactly what a per-entry test would.
    ///
    /// The walk is over at most two contiguous runs of the page table per
    /// revolution (split at the wrap and at the budget), each searched eight
    /// one-byte entries per step; the per-entry walk it equals is
    /// the oracle in this module's tests.
    ///
    /// # Panics
    ///
    /// Panics if `rung` is not a rung of the ladder or `hand` is outside a
    /// non-empty address space.
    pub fn next_resident(&self, rung: usize, hand: &mut u64, budget: u64) -> (Option<PageId>, u64) {
        assert!(rung < self.n_tiers(), "tier {rung} outside the ladder");
        let rung = rung as u8; // at most MAX_TIERS, so never `UNMAPPED`
        let n = self.table.len() as u64;
        if n == 0 {
            return (None, 0);
        }
        assert!(*hand < n, "hand {hand} outside address space of {n} pages");
        let mut walked = 0;
        while walked < budget {
            // One contiguous run: up to the wrap or the end of the budget.
            let run = (n - *hand).min(budget - walked);
            let entries = &self.table[*hand as usize..(*hand + run) as usize];
            match first_equal(entries, rung) {
                Some(i) => {
                    let page = *hand + i as u64;
                    *hand = (page + 1) % n;
                    return (Some(PageId(page)), walked + i as u64 + 1);
                }
                None => {
                    *hand = (*hand + run) % n;
                    walked += run;
                }
            }
        }
        (None, walked)
    }
}

/// Index of the first byte of `entries` equal to `value`, searched eight
/// entries per step: with `x = word ^ value-in-every-byte`, a byte of `x` is
/// zero exactly where the entry matches, and `(x − 0x01…) & !x & 0x80…` has
/// its high bit set in every zero byte. The subtraction's borrow can also
/// flag bytes *above* a zero byte, never one below the lowest, so with the
/// word loaded little-endian the lowest flagged byte is the first match.
/// The tail shorter than a word is searched entry by entry.
fn first_equal(entries: &[u8], value: u8) -> Option<usize> {
    const LOW: u64 = 0x0101_0101_0101_0101;
    const HIGH: u64 = 0x8080_8080_8080_8080;
    let pattern = LOW * u64::from(value);
    let mut words = entries.chunks_exact(8);
    for (w, word) in words.by_ref().enumerate() {
        let word: [u8; 8] = word.try_into().expect("chunks_exact(8) yields 8 entries");
        let x = u64::from_le_bytes(word) ^ pattern;
        let zero_bytes = x.wrapping_sub(LOW) & !x & HIGH;
        if zero_bytes != 0 {
            return Some(w * 8 + (zero_bytes.trailing_zeros() / 8) as usize);
        }
    }
    let tail = words.remainder();
    let searched = entries.len() - tail.len();
    tail.iter().position(|&t| t == value).map(|i| searched + i)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> TieredMemory {
        TieredMemory::new(TierConfig {
            fast_capacity_pages: 4,
            slow_capacity_pages: 100,
            page_size: PageSize::Base4K,
            address_space_pages: 100,
        })
    }

    fn three_tier() -> TieredMemory {
        TieredMemory::with_topology(TierTopology::three_tier_dram_cxl_nvme(80, PageSize::Base4K))
    }

    #[test]
    fn ratio_configs() {
        let c = TierConfig::for_footprint(1600, TierRatio::OneTo16, PageSize::Base4K);
        assert_eq!(c.fast_capacity_pages, 100);
        assert_eq!(c.slow_capacity_pages, 1600);
        let c = TierConfig::for_footprint(1600, TierRatio::OneTo4, PageSize::Base4K);
        assert_eq!(c.fast_capacity_pages, 400);
        assert_eq!(TierRatio::OneTo8.to_string(), "1:8");
    }

    #[test]
    fn first_touch_allocates_preferred() {
        let mut m = small();
        assert_eq!(m.ensure_mapped(PageId(0), Tier::Fast), Tier::Fast);
        assert_eq!(m.ensure_mapped(PageId(1), Tier::Slow), Tier::Slow);
        // Idempotent: second touch does not move or re-allocate.
        assert_eq!(m.ensure_mapped(PageId(0), Tier::Slow), Tier::Fast);
        assert_eq!(m.stats().allocated_fast, 1);
        assert_eq!(m.stats().allocated_slow, 1);
    }

    #[test]
    fn fast_allocation_falls_back_when_full() {
        let mut m = small();
        for i in 0..4 {
            assert_eq!(m.ensure_mapped(PageId(i), Tier::Fast), Tier::Fast);
        }
        // Fifth fast-preferred touch spills to slow.
        assert_eq!(m.ensure_mapped(PageId(4), Tier::Fast), Tier::Slow);
        assert_eq!(m.fast_free(), 0);
    }

    #[test]
    fn promote_and_demote_move_pages() {
        let mut m = small();
        m.ensure_mapped(PageId(7), Tier::Slow);
        m.promote(PageId(7)).unwrap();
        assert_eq!(m.tier_of(PageId(7)), Some(Tier::Fast));
        assert_eq!(m.fast_used(), 1);
        assert_eq!(m.slow_used(), 0);
        m.demote(PageId(7)).unwrap();
        assert_eq!(m.tier_of(PageId(7)), Some(Tier::Slow));
        let s = m.stats();
        assert_eq!((s.promotions, s.demotions), (1, 1));
    }

    #[test]
    fn promote_errors() {
        let mut m = small();
        assert_eq!(
            m.promote(PageId(3)),
            Err(MigrationError::NotMapped(PageId(3)))
        );
        m.ensure_mapped(PageId(3), Tier::Fast);
        assert_eq!(
            m.promote(PageId(3)),
            Err(MigrationError::AlreadyThere(PageId(3), Tier::Fast))
        );
        // Fill the fast tier, then promotion of a slow page must fail.
        for i in 10..13 {
            m.ensure_mapped(PageId(i), Tier::Fast);
        }
        m.ensure_mapped(PageId(20), Tier::Slow);
        assert_eq!(
            m.promote(PageId(20)),
            Err(MigrationError::TierFull(Tier::Fast))
        );
        assert_eq!(m.stats().failed_promotions, 1);
    }

    #[test]
    fn capacity_accounting_is_conserved() {
        let mut m = small();
        for i in 0..50 {
            m.ensure_mapped(PageId(i), Tier::Slow);
        }
        for i in 0..4 {
            m.promote(PageId(i)).unwrap();
        }
        assert_eq!(m.mapped_pages(), 50);
        assert_eq!(m.fast_used() + m.slow_used(), 50);
        assert_eq!(m.fast_used(), 4);
        assert!((m.fast_free_frac() - 0.0).abs() < 1e-12);
    }

    #[test]
    fn iter_mapped_in_address_order() {
        let mut m = small();
        m.ensure_mapped(PageId(9), Tier::Slow);
        m.ensure_mapped(PageId(2), Tier::Fast);
        let v: Vec<_> = m.iter_mapped().collect();
        assert_eq!(v, vec![(PageId(2), Tier::Fast), (PageId(9), Tier::Slow)]);
    }

    #[test]
    fn error_display() {
        let e = MigrationError::TierFull(Tier::Fast);
        assert_eq!(e.to_string(), "fast tier is full");
    }

    #[test]
    #[should_panic(expected = "outside address space")]
    fn out_of_range_page_panics() {
        let mut m = small();
        m.ensure_mapped(PageId(1000), Tier::Fast);
    }

    #[test]
    fn three_tier_slow_facade_spans_lower_rungs() {
        let mut m = three_tier();
        assert_eq!(m.n_tiers(), 3);
        // Slow-preferred first touch lands in tier 1 (cxl), not the bottom.
        assert_eq!(m.ensure_mapped(PageId(5), Tier::Slow), Tier::Slow);
        assert_eq!(m.tier_index_of(PageId(5)), Some(1));
        // The facade pools every lower rung into "slow".
        m.demote(PageId(5)).unwrap();
        assert_eq!(m.tier_index_of(PageId(5)), Some(2));
        assert_eq!(m.tier_of(PageId(5)), Some(Tier::Slow));
        assert_eq!(m.slow_used(), 1);
        // config() is the facade view: slow = cxl + nvme capacity.
        assert_eq!(m.config().slow_capacity_pages, 40 + 80);
    }

    #[test]
    fn toward_moves_are_single_hops() {
        let mut m = three_tier();
        m.ensure_mapped(PageId(3), Tier::Slow);
        m.demote_toward(PageId(3), 2).unwrap();
        assert_eq!(m.tier_index_of(PageId(3)), Some(2));
        assert_eq!(
            m.demote_toward(PageId(3), 2),
            Err(MigrationError::AlreadyThere(PageId(3), Tier::Slow))
        );
        // Two hops back to the top, one call per rung.
        assert_eq!(m.promote_toward(PageId(3), 0), Ok(1));
        assert_eq!(m.promote_toward(PageId(3), 0), Ok(0));
        assert_eq!(
            m.promote_toward(PageId(3), 0),
            Err(MigrationError::AlreadyThere(PageId(3), Tier::Fast))
        );
        let s = m.stats();
        assert_eq!((s.promotions, s.demotions), (2, 1));
    }

    #[test]
    fn hop_costs_charge_the_slower_rung() {
        let mut m = three_tier();
        m.ensure_mapped(PageId(0), Tier::Slow); // tier 1
        m.demote(PageId(0)).unwrap(); // 1 -> 2: nvme rate
        m.promote(PageId(0)).unwrap(); // 2 -> 1: nvme rate
        m.promote(PageId(0)).unwrap(); // 1 -> 0: cxl rate
        assert_eq!(m.take_migration_ns(), 20_000 + 20_000 + 2_000);
        assert_eq!(m.take_migration_ns(), 0, "drained");
    }

    #[test]
    fn two_tier_hop_cost_matches_latency_model() {
        // The pipeline charges migrations by draining this accumulator; on
        // the two-tier ladder that must equal the flat per-move rate of the
        // latency model the ladder was built from, at both page sizes.
        let latency = LatencyModel {
            migrate_base_page_ns: 3_100,
            ..LatencyModel::default()
        };
        for page_size in [PageSize::Base4K, PageSize::Huge2M] {
            let cfg = TierConfig::for_footprint(64, TierRatio::OneTo8, page_size);
            let mut m = TieredMemory::with_topology(TierTopology::two_tier(cfg, &latency));
            for p in 0..64 {
                m.ensure_mapped(PageId(p), Tier::Slow);
            }
            for p in 0..8 {
                m.promote(PageId(p)).unwrap();
            }
            assert!(m.promote(PageId(8)).is_err(), "fast tier is full");
            for p in 0..5 {
                m.demote(PageId(p)).unwrap();
            }
            let s = m.stats();
            assert_eq!((s.promotions, s.demotions), (8, 5));
            assert_eq!(
                m.take_migration_ns(),
                (s.promotions + s.demotions) * latency.migrate_page_ns(page_size),
                "{page_size:?}"
            );
            assert_eq!(m.take_migration_ns(), 0, "drained");
        }
    }

    #[test]
    fn ensure_mapped_cascades_down_a_full_ladder() {
        let mut m = three_tier(); // dram 10, cxl 40, nvme 80
        for i in 0..10 {
            assert_eq!(m.ensure_mapped(PageId(i), Tier::Fast), Tier::Fast);
        }
        // Fast full: spills to cxl (nearest colder rung with room).
        assert_eq!(m.ensure_mapped(PageId(10), Tier::Fast), Tier::Slow);
        assert_eq!(m.tier_index_of(PageId(10)), Some(1));
        for i in 11..50 {
            m.ensure_mapped(PageId(i), Tier::Slow);
        }
        // cxl now full too: the next slow-preferred touch lands on nvme.
        assert_eq!(m.tier_used(1), 40);
        m.ensure_mapped(PageId(50), Tier::Slow);
        assert_eq!(m.tier_index_of(PageId(50)), Some(2));
    }

    #[test]
    fn frac_lt_matches_exact_rationals() {
        // Dyadic thresholds are exactly representable: the predicate must
        // equal the integer comparison num·2^j < den·k for frac = k/2^j.
        for (k, j) in [(1u64, 1u32), (3, 2), (5, 6), (1, 10), (13, 4)] {
            let frac = k as f64 / (1u64 << j) as f64;
            for num in 0..100u64 {
                for den in 1..40u64 {
                    let exact = (num as u128) << j < (den as u128) * (k as u128);
                    assert_eq!(
                        frac_lt(num, den, frac),
                        exact,
                        "num={num} den={den} frac={frac}"
                    );
                }
            }
        }
    }

    #[test]
    fn frac_lt_edge_cases() {
        assert!(!frac_lt(1, 10, f64::NAN));
        assert!(!frac_lt(0, 10, f64::NAN));
        assert!(!frac_lt(1, 10, -0.5));
        assert!(!frac_lt(0, 10, 0.0));
        assert!(!frac_lt(1, 0, 0.5), "zero denominator compares false");
        assert!(frac_lt(0, 10, f64::MIN_POSITIVE), "0 < any positive");
        assert!(frac_lt(u64::MAX, 1, f64::INFINITY));
        assert!(
            frac_lt(u64::MAX, 1, 1e300),
            "huge thresholds exceed any u64 ratio"
        );
        assert!(
            !frac_lt(u64::MAX, 1, 1e-300),
            "tiny thresholds below any positive ratio"
        );
        // Threshold 2^80: the shifted product den·m·2^e overflows u128's
        // value range (shift count itself is in range) — must still report
        // "below" for any u64 ratio.
        let big = (1u128 << 80) as f64;
        assert!(frac_lt(u64::MAX, u64::MAX, big));
        assert!(frac_lt(u64::MAX, 1, big));
        // Exactly-at-threshold is not below (strict <).
        assert!(!frac_lt(1, 2, 0.5));
        assert!(frac_lt(1, 2, 0.5000000000000001));
        // 0.1 as f64 is slightly above 1/10, so 1/10 IS below it.
        assert!(frac_lt(1, 10, 0.1));
        // 0.3 as f64 is slightly below 3/10, so 3/10 is NOT below it.
        assert!(!frac_lt(3, 10, 0.3));
    }

    #[test]
    fn frac_lt_agrees_with_f64_division_at_policy_watermarks() {
        // Deterministic sweep over the watermark constants the policies
        // use: away from one-ulp boundaries (which realistic free/capacity
        // ratios never hit) the exact form and the f64 division agree —
        // the empirical footing of the goldens-stay-identical claim.
        for w in [0.02f64, 0.03, 0.06, 0.08] {
            let mut state = 0x9E37_79B9u64;
            for _ in 0..50_000 {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let den = (state >> 33) % 1_000_000 + 1;
                let num = (state >> 11) % (den + 1);
                assert_eq!(
                    frac_lt(num, den, w),
                    (num as f64 / den as f64) < w,
                    "num={num} den={den} w={w}"
                );
            }
        }
    }

    #[test]
    fn exact_watermark_methods_track_occupancy() {
        let mut m = three_tier();
        for i in 0..80 {
            m.ensure_mapped(PageId(i), Tier::Slow);
        }
        // cxl (tier 1) holds 40/40: zero free => below any positive mark.
        assert!(m.tier_free_below(1, 0.06));
        assert!(!m.tier_free_below(2, 0.06), "nvme is half free");
        assert!(m.fast_free_below(1.1), "fully free is still below 1.1");
        assert!(!m.fast_free_below(0.5), "fast tier is empty: frac 1.0");
    }

    /// `small()` with pages 2 and 5 fast, 3 slow, everything else unmapped.
    fn sparse() -> TieredMemory {
        let mut m = small();
        m.ensure_mapped(PageId(2), Tier::Fast);
        m.ensure_mapped(PageId(3), Tier::Slow);
        m.ensure_mapped(PageId(5), Tier::Fast);
        m
    }

    #[test]
    fn next_resident_stops_just_past_the_hit() {
        let m = sparse();
        let mut hand = 0;
        assert_eq!(m.next_resident(0, &mut hand, 100), (Some(PageId(2)), 3));
        assert_eq!(hand, 3);
        assert_eq!(m.next_resident(0, &mut hand, 100), (Some(PageId(5)), 3));
        assert_eq!(hand, 6);
        // A hit on the very entry under the hand walks one entry.
        let mut hand = 3;
        assert_eq!(m.next_resident(1, &mut hand, 1), (Some(PageId(3)), 1));
        assert_eq!(hand, 4);
    }

    #[test]
    fn next_resident_wraps_at_the_last_entry() {
        let mut m = sparse();
        m.ensure_mapped(PageId(99), Tier::Slow);
        let mut hand = 98;
        assert_eq!(m.next_resident(1, &mut hand, 100), (Some(PageId(99)), 2));
        assert_eq!(hand, 0, "a hit on the last entry leaves the hand at 0");
        let mut hand = 6;
        assert_eq!(m.next_resident(0, &mut hand, 100), (Some(PageId(2)), 97));
        assert_eq!(hand, 3, "the walk continued through the wrap");
    }

    #[test]
    fn next_resident_budget_runs_out_mid_gap() {
        let m = sparse();
        let mut hand = 6;
        assert_eq!(m.next_resident(0, &mut hand, 96), (None, 96));
        assert_eq!(hand, 2, "advanced by exactly the budget, through the wrap");
        let mut hand = 0;
        assert_eq!(m.next_resident(0, &mut hand, 2), (None, 2));
        assert_eq!(hand, 2, "stopped on the resident without visiting it");
    }

    #[test]
    fn next_resident_walks_the_whole_budget_on_an_empty_rung() {
        let m = three_tier(); // 80 pages, nothing mapped
        let mut hand = 70;
        assert_eq!(m.next_resident(2, &mut hand, 15), (None, 15));
        assert_eq!(hand, 5);
        // More than one revolution is still exactly `budget` entries.
        assert_eq!(m.next_resident(2, &mut hand, 200), (None, 200));
        assert_eq!(hand, (5 + 200) % 80);
    }

    #[test]
    fn next_resident_walks_nothing_on_zero_budget_or_empty_space() {
        let m = sparse();
        let mut hand = 2;
        assert_eq!(m.next_resident(0, &mut hand, 0), (None, 0));
        assert_eq!(hand, 2);
        let empty = TieredMemory::new(TierConfig {
            address_space_pages: 0,
            ..small().config()
        });
        let mut hand = 0;
        assert_eq!(empty.next_resident(0, &mut hand, 10), (None, 0));
        assert_eq!(hand, 0);
    }

    /// An 8-rung memory (every value 0..=7 is a rung) whose page table is
    /// `table`, written directly: only `next_resident` is asked of it.
    fn with_table(table: &[u8]) -> TieredMemory {
        let n = table.len() as u64;
        let rung = crate::TierParams {
            label: "rung",
            capacity_pages: n,
            access_ns: 100,
            stream_ns: 30,
            migrate_base_page_ns: 2_000,
        };
        let topo = TierTopology::new(vec![rung; crate::MAX_TIERS], PageSize::Base4K, n);
        let mut m = TieredMemory::with_topology(topo);
        m.table.copy_from_slice(table);
        m
    }

    #[test]
    fn next_resident_never_matches_unmapped_entries() {
        // A full 8-rung ladder: no rung index can alias the unmapped marker.
        let m = with_table(&[UNMAPPED; 16]);
        for t in 0..crate::MAX_TIERS {
            let mut hand = 0;
            assert_eq!(m.next_resident(t, &mut hand, 16), (None, 16), "rung {t}");
        }
    }

    /// The per-entry clock walk `next_resident` replaced, written out: the
    /// oracle any indexed implementation of the sweep is held to.
    fn next_resident_oracle(
        m: &TieredMemory,
        rung: usize,
        hand: &mut u64,
        budget: u64,
    ) -> (Option<PageId>, u64) {
        let n = m.address_space_pages();
        let mut walked = 0;
        while n > 0 && walked < budget {
            let page = PageId(*hand);
            *hand = (*hand + 1) % n;
            walked += 1;
            if m.tier_index_of(page) == Some(rung) {
                return (Some(page), walked);
            }
        }
        (None, walked)
    }

    /// `next_resident` from `hand` under `budget` equals the per-entry walk.
    fn assert_sweep_equals_walk(m: &TieredMemory, rung: usize, hand: u64, budget: u64) {
        let (mut swept_hand, mut walked_hand) = (hand, hand);
        assert_eq!(
            m.next_resident(rung, &mut swept_hand, budget),
            next_resident_oracle(m, rung, &mut walked_hand, budget),
            "table {:?} rung {rung} hand {hand} budget {budget}",
            m.table
        );
        assert_eq!(swept_hand, walked_hand, "table {:?} rung {rung}", m.table);
    }

    const TABLE_VALUES: [u8; 9] = [0, 1, 2, 3, 4, 5, 6, 7, UNMAPPED];

    #[test]
    fn next_resident_is_exact_beside_every_neighbouring_value() {
        // The word test's borrow can flag the byte above a match (a
        // neighbour that differs from the rung in its lowest bit only);
        // every pair of neighbours, at every position in a word, with and
        // without the match between them.
        for rung in 0..crate::MAX_TIERS {
            for filler in [UNMAPPED, (rung as u8 + 1) % 8, rung as u8 ^ 1] {
                for (a, b) in TABLE_VALUES
                    .iter()
                    .flat_map(|&a| TABLE_VALUES.map(|b| (a, b)))
                {
                    for at in 0..8 {
                        let mut table = [filler; 24];
                        table[at..at + 2].copy_from_slice(&[a, b]);
                        assert_sweep_equals_walk(&with_table(&table), rung, 0, 24);
                        table[at..at + 3].copy_from_slice(&[a, rung as u8, b]);
                        assert_sweep_equals_walk(&with_table(&table), rung, 0, 24);
                    }
                }
            }
        }
    }

    #[test]
    fn next_resident_finds_a_match_at_every_offset_from_every_alignment() {
        for rung in [0usize, 3, 7] {
            for hand in 0..8u64 {
                for offset in 0..16u64 {
                    let mut table = [UNMAPPED; 40];
                    table[(hand + offset) as usize] = rung as u8;
                    let m = with_table(&table);
                    // Short of the match, exactly on it, the whole table.
                    for budget in [offset, offset + 1, 40] {
                        assert_sweep_equals_walk(&m, rung, hand, budget);
                    }
                    // From just past the match: all the way round to it.
                    assert_sweep_equals_walk(&m, rung, (hand + offset + 1) % 40, 40);
                }
            }
        }
    }

    #[test]
    fn next_resident_is_exact_on_tables_shorter_than_three_words() {
        for n in 1..=17usize {
            // No match, then a match at every position.
            for matched in std::iter::once(None).chain((0..n).map(Some)) {
                let mut table = vec![6u8; n];
                if let Some(at) = matched {
                    table[at] = 1;
                }
                let m = with_table(&table);
                for hand in 0..n as u64 {
                    for budget in [1, n as u64 - 1, n as u64, 2 * n as u64 + 1] {
                        assert_sweep_equals_walk(&m, 1, hand, budget);
                    }
                }
            }
        }
    }

    #[test]
    fn next_resident_equals_the_per_entry_walk() {
        let mut state = 0x5EED_71C4u64;
        let mut rand = move |below: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % below
        };
        let mut calls = 0;
        for table in 0..40 {
            let n = [1, 2, 7, 64, 300][table % 5] + rand(3);
            let n_tiers = 2 + table % 3;
            let mut rung = |label| crate::TierParams {
                label,
                capacity_pages: n / 2 + 1 + rand(n),
                access_ns: 100,
                stream_ns: 30,
                migrate_base_page_ns: 2_000,
            };
            let mut tiers: Vec<_> = (1..n_tiers).map(|_| rung("upper")).collect();
            tiers.push(crate::TierParams {
                capacity_pages: n,
                ..rung("bottom")
            });
            let mut m = TieredMemory::with_topology(TierTopology::new(tiers, PageSize::Base4K, n));
            let mut hands = vec![0u64; n_tiers];
            for _ in 0..3_000 {
                // Placement changes between sweeps, as between two visits.
                let page = PageId(rand(n));
                let target = rand(n_tiers as u64) as usize;
                match rand(5) {
                    0 => {
                        let preferred = [Tier::Fast, Tier::Slow][rand(2) as usize];
                        m.ensure_mapped_indexed(page, preferred);
                    }
                    1 => drop(m.demote_toward(page, target)),
                    2 => drop(m.promote_toward(page, target)),
                    _ => {}
                }
                let t = rand(n_tiers as u64) as usize;
                if rand(16) == 0 {
                    hands[t] = rand(n);
                }
                let budget = [0, 1, rand(n + 1), n, 2 * n + rand(4)][rand(5) as usize];
                let mut expected_hand = hands[t];
                let expected = next_resident_oracle(&m, t, &mut expected_hand, budget);
                assert_eq!(
                    m.next_resident(t, &mut hands[t], budget),
                    expected,
                    "table {table} rung {t} budget {budget}"
                );
                assert_eq!(hands[t], expected_hand, "table {table} rung {t}");
                calls += 1;
                // What every caller does with a hit: move the page.
                if let (Some(hit), true) = (expected.0, t + 1 < n_tiers) {
                    let _ = m.demote_toward(hit, t + 1);
                }
            }
        }
        assert!(calls >= 100_000);
    }

    #[test]
    fn shrink_below_occupancy_reports_zero_free() {
        let mut m = small();
        for i in 0..4 {
            m.ensure_mapped(PageId(i), Tier::Fast);
        }
        m.set_fast_capacity(2);
        assert_eq!(m.fast_free(), 0);
        assert_eq!(m.tier_capacity(0), 2);
        assert!(m.fast_free_below(0.08));
        assert_eq!(m.config().fast_capacity_pages, 2);
    }
}
