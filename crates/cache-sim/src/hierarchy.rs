//! Two-level hierarchy with per-source miss attribution.

use crate::cache::{CacheConfig, SetAssocCache};

/// Who issued a memory reference — the application, or the tiering runtime
/// updating its metadata. Mirrors the paper's per-thread `perf` attribution
/// (§6.3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Source {
    /// The workload's own loads/stores.
    App,
    /// Tiering-metadata loads/stores (tracker updates, histogram, scans).
    Tiering,
}

/// Hit/miss counts for one source at one level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SourceStats {
    /// Number of accesses that hit.
    pub hits: u64,
    /// Number of accesses that missed.
    pub misses: u64,
}

impl SourceStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss ratio in `[0, 1]`; zero when no accesses occurred.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses() as f64
        }
    }
}

/// Per-level statistics split by source.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LevelStats {
    app: SourceStats,
    tiering: SourceStats,
}

impl LevelStats {
    /// Stats for one source.
    pub fn by(&self, source: Source) -> SourceStats {
        match source {
            Source::App => self.app,
            Source::Tiering => self.tiering,
        }
    }

    /// Total misses across both sources.
    pub fn total_misses(&self) -> u64 {
        self.app.misses + self.tiering.misses
    }

    /// Fraction of this level's misses caused by tiering metadata — the
    /// quantity plotted in paper Figures 5 and 13.
    pub fn tiering_miss_fraction(&self) -> f64 {
        let total = self.total_misses();
        if total == 0 {
            0.0
        } else {
            self.tiering.misses as f64 / total as f64
        }
    }

    fn record(&mut self, source: Source, hit: bool) {
        let s = match source {
            Source::App => &mut self.app,
            Source::Tiering => &mut self.tiering,
        };
        if hit {
            s.hits += 1;
        } else {
            s.misses += 1;
        }
    }
}

/// Snapshot of both levels' statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HierarchyStats {
    /// L1 data cache statistics.
    pub l1: LevelStats,
    /// Last-level cache statistics.
    pub llc: LevelStats,
}

/// Result of one access through the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HitLevel {
    /// Served by L1.
    L1,
    /// Missed L1, served by LLC.
    Llc,
    /// Missed both levels; served by memory.
    Memory,
}

/// An L1 + LLC hierarchy with per-source attribution.
///
/// Non-inclusive: each level tracks residency independently; an L1 hit does
/// not touch the LLC (matching the common "L1 filter" modelling convention).
#[derive(Debug, Clone)]
pub struct CacheHierarchy {
    l1: SetAssocCache,
    llc: SetAssocCache,
    stats: HierarchyStats,
}

impl CacheHierarchy {
    /// Builds a hierarchy from two level geometries.
    pub fn new(l1: CacheConfig, llc: CacheConfig) -> Self {
        Self {
            l1: SetAssocCache::new(l1),
            llc: SetAssocCache::new(llc),
            stats: HierarchyStats::default(),
        }
    }

    /// Hierarchy for scaled-down simulations (48 KiB L1d, 2 MiB LLC), keeping
    /// metadata:LLC proportions close to the paper's despite smaller
    /// footprints.
    pub fn scaled() -> Self {
        Self::new(CacheConfig::l1d(), CacheConfig::llc_scaled())
    }

    /// Touches `byte_addr` on behalf of `source`; returns where it hit.
    #[inline]
    pub fn access(&mut self, byte_addr: u64, source: Source) -> HitLevel {
        if self.l1.access(byte_addr) {
            self.stats.l1.record(source, true);
            return HitLevel::L1;
        }
        self.stats.l1.record(source, false);
        if self.llc.access(byte_addr) {
            self.stats.llc.record(source, true);
            HitLevel::Llc
        } else {
            self.stats.llc.record(source, false);
            HitLevel::Memory
        }
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> HierarchyStats {
        self.stats
    }

    /// Resets statistics but keeps cache contents (for excluding warmup).
    pub fn reset_stats(&mut self) {
        self.stats = HierarchyStats::default();
    }

    /// Flushes both levels and resets statistics.
    pub fn reset(&mut self) {
        self.l1.flush();
        self.llc.flush();
        self.stats = HierarchyStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{metadata_pair, Mix, Rng, StampLru, Stream};

    fn tiny_hierarchy() -> CacheHierarchy {
        CacheHierarchy::new(
            CacheConfig {
                size_bytes: 512,
                ways: 2,
                line_bytes: 64,
            },
            CacheConfig {
                size_bytes: 4096,
                ways: 4,
                line_bytes: 64,
            },
        )
    }

    #[test]
    fn miss_then_l1_hit() {
        let mut h = tiny_hierarchy();
        assert_eq!(h.access(0, Source::App), HitLevel::Memory);
        assert_eq!(h.access(0, Source::App), HitLevel::L1);
        let s = h.stats();
        assert_eq!(s.l1.by(Source::App).hits, 1);
        assert_eq!(s.l1.by(Source::App).misses, 1);
        assert_eq!(s.llc.by(Source::App).misses, 1);
    }

    #[test]
    fn llc_catches_l1_evictions() {
        let mut h = tiny_hierarchy();
        // Fill far beyond L1 (8 lines) but within LLC (64 lines).
        for i in 0..32u64 {
            h.access(i * 64, Source::App);
        }
        // Second pass: L1 misses but LLC hits.
        let mut llc_hits = 0;
        for i in 0..32u64 {
            if h.access(i * 64, Source::App) == HitLevel::Llc {
                llc_hits += 1;
            }
        }
        assert!(
            llc_hits > 24,
            "most of pass 2 should hit LLC, got {llc_hits}"
        );
    }

    #[test]
    fn attribution_separates_sources() {
        let mut h = tiny_hierarchy();
        h.access(0x0000, Source::App);
        h.access(0x9000, Source::Tiering);
        h.access(0xA000, Source::Tiering);
        let s = h.stats();
        assert_eq!(s.l1.by(Source::App).misses, 1);
        assert_eq!(s.l1.by(Source::Tiering).misses, 2);
        let f = s.l1.tiering_miss_fraction();
        assert!((f - 2.0 / 3.0).abs() < 1e-12, "fraction {f}");
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let mut h = tiny_hierarchy();
        h.access(0, Source::App);
        h.reset_stats();
        assert_eq!(
            h.access(0, Source::App),
            HitLevel::L1,
            "line still resident"
        );
        assert_eq!(h.stats().l1.by(Source::App).misses, 0);
    }

    #[test]
    fn miss_ratio_edge_cases() {
        let s = SourceStats::default();
        assert_eq!(s.miss_ratio(), 0.0);
        let l = LevelStats::default();
        assert_eq!(l.tiering_miss_fraction(), 0.0);
    }

    /// The hierarchy over two stamp/clock caches: what `CacheHierarchy` was
    /// before its levels kept their sets in recency order.
    struct StampHierarchy {
        l1: StampLru,
        llc: StampLru,
        stats: HierarchyStats,
    }

    impl StampHierarchy {
        fn access(&mut self, byte_addr: u64, source: Source) -> HitLevel {
            if self.l1.access(byte_addr) {
                self.stats.l1.record(source, true);
                return HitLevel::L1;
            }
            self.stats.l1.record(source, false);
            if self.llc.access(byte_addr) {
                self.stats.llc.record(source, true);
                HitLevel::Llc
            } else {
                self.stats.llc.record(source, false);
                HitLevel::Memory
            }
        }
    }

    #[test]
    fn hierarchy_equals_the_stamp_lru_hierarchy() {
        const STEPS_PER_MIX: usize = 500_000;
        let pairs = [
            (CacheConfig::l1d(), CacheConfig::llc_scaled()),
            metadata_pair(),
        ];
        for (p, (l1, llc)) in pairs.into_iter().enumerate() {
            let mut hier = CacheHierarchy::new(l1, llc);
            let mut oracle = StampHierarchy {
                l1: StampLru::new(l1),
                llc: StampLru::new(llc),
                stats: HierarchyStats::default(),
            };
            let mut levels = [0usize; 3];
            for (m, mix) in Mix::ALL.into_iter().enumerate() {
                // Sized against the LLC, so all three levels serve hits.
                let seed = 0x5EED_1000 + (p * 16 + m) as u64;
                let mut stream = Stream::new(mix, llc, seed);
                let mut rng = Rng(seed ^ 0xFFFF);
                for step in 0..STEPS_PER_MIX {
                    let addr = stream.next_addr();
                    let source = [Source::App, Source::Tiering][rng.below(2) as usize];
                    let level = hier.access(addr, source);
                    assert_eq!(
                        level,
                        oracle.access(addr, source),
                        "{l1:?}+{llc:?} {mix:?} step {step}"
                    );
                    levels[level as usize] += 1;
                }
            }
            assert_eq!(hier.stats(), oracle.stats, "{l1:?}+{llc:?}");
            assert!(levels.iter().all(|&n| n > 50_000), "{levels:?}");
        }
    }
}
