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

    fn add(&mut self, source: Source, hits: u64, misses: u64) {
        let s = match source {
            Source::App => &mut self.app,
            Source::Tiering => &mut self.tiering,
        };
        s.hits += hits;
        s.misses += misses;
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

    /// Touches `byte_addr` on behalf of `source`; returns where it hit.
    #[inline]
    pub fn access(&mut self, byte_addr: u64, source: Source) -> HitLevel {
        if self.l1.access(byte_addr) {
            self.stats.l1.add(source, 1, 0);
            return HitLevel::L1;
        }
        self.stats.l1.add(source, 0, 1);
        if self.llc.access(byte_addr) {
            self.stats.llc.add(source, 1, 0);
            HitLevel::Llc
        } else {
            self.stats.llc.add(source, 0, 1);
            HitLevel::Memory
        }
    }

    /// One [`access`](Self::access) per address of `addrs`, in order; returns
    /// how many were served by L1, the LLC and memory (indexed by
    /// [`HitLevel`]). A repeat of the previous reference's L1 line is an L1
    /// hit with no set lookup — exact, since every access leaves its line as
    /// its L1 set's MRU way, where a hit moves nothing.
    pub fn access_all(&mut self, addrs: &[u64], source: Source) -> [u64; 3] {
        let shift = self.l1.config().line_bytes.trailing_zeros();
        let mut levels = [0u64; 3];
        // Not the first line, so the first reference is looked up.
        let mut prev = addrs.first().map_or(0, |&a| !(a >> shift));
        for &addr in addrs {
            let line = addr >> shift;
            let level = if line == prev || self.l1.access(addr) {
                HitLevel::L1
            } else if self.llc.access(addr) {
                HitLevel::Llc
            } else {
                HitLevel::Memory
            };
            prev = line;
            levels[level as usize] += 1;
        }
        let [l1, llc, memory] = levels;
        self.stats.l1.add(source, l1, llc + memory);
        self.stats.llc.add(source, llc, memory);
        levels
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> HierarchyStats {
        self.stats
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
    fn miss_ratio_edge_cases() {
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
                self.stats.l1.add(source, 1, 0);
                return HitLevel::L1;
            }
            self.stats.l1.add(source, 0, 1);
            if self.llc.access(byte_addr) {
                self.stats.llc.add(source, 1, 0);
                HitLevel::Llc
            } else {
                self.stats.llc.add(source, 0, 1);
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

    /// The replay loop `access_all` replaced: one `access` per reference.
    fn access_each(h: &mut CacheHierarchy, addrs: &[u64], source: Source) -> [u64; 3] {
        let mut levels = [0; 3];
        for &addr in addrs {
            levels[h.access(addr, source) as usize] += 1;
        }
        levels
    }

    /// Same-line runs in `addrs`: the L1 lookups `access_all` may make.
    fn runs(addrs: &[u64]) -> u64 {
        let starts = addrs.windows(2).filter(|w| w[0] >> 6 != w[1] >> 6).count();
        (starts + !addrs.is_empty() as usize) as u64
    }

    #[test]
    fn batched_replay_equals_per_reference_replay() {
        const REFS_PER_MIX: usize = 200_000;
        let pairs = [
            metadata_pair(),
            (CacheConfig::l1d(), CacheConfig::llc_scaled()),
            // The engine's full hierarchy (`CacheSimOptions::default`).
            (
                CacheConfig::l1d(),
                CacheConfig {
                    size_bytes: 512 << 10,
                    ways: 16,
                    line_bytes: 64,
                },
            ),
        ];
        for (p, (l1, llc)) in pairs.into_iter().enumerate() {
            let mut batched = CacheHierarchy::new(l1, llc);
            let mut oracle = CacheHierarchy::new(l1, llc);
            let mut levels = [0u64; 3];
            let (mut refs, mut lookups, mut rejoined) = (0u64, 0u64, 0usize);
            for (m, mix) in Mix::ALL.into_iter().enumerate() {
                let seed = 0x5EED_2000 + (p * 16 + m) as u64;
                let mut tiering = Stream::new(mix, llc, seed);
                let mut app = Stream::new(mix, llc, seed ^ 0xA99);
                let mut rng = Rng(seed ^ 0xFFFF);
                let mut probes = [0u64; 16];
                let mut slice: Vec<u64> = Vec::new();
                let mut done = 0;
                while done < REFS_PER_MIX {
                    // Application references between two replays, as the
                    // engine's access stage issues them between two ops.
                    for _ in 0..rng.below(4) {
                        let addr = app.next_addr();
                        probes[rng.below(16) as usize] = addr;
                        let level = batched.access(addr, Source::App);
                        assert_eq!(level, oracle.access(addr, Source::App));
                    }
                    // A quarter of the slices start on the line the last
                    // one ended on (at another byte of it).
                    let last = slice.last().copied();
                    slice.clear();
                    if let Some(last) = last.filter(|_| rng.below(4) == 0) {
                        slice.push(last & !63 | rng.below(64));
                        rejoined += 1;
                    }
                    let len = rng.below(97) as usize;
                    slice.extend((0..len).map(|_| tiering.next_addr()));
                    if let Some(&addr) = slice.last() {
                        probes[rng.below(16) as usize] = addr;
                    }

                    let before = batched.l1.lookups;
                    let got = batched.access_all(&slice, Source::Tiering);
                    let want = access_each(&mut oracle, &slice, Source::Tiering);
                    let at = format!("{l1:?}+{llc:?} {mix:?} ref {done}");
                    assert_eq!(got, want, "{at}");
                    assert_eq!(batched.stats(), oracle.stats(), "{at}");
                    for probe in probes {
                        assert_eq!(batched.l1.contains(probe), oracle.l1.contains(probe));
                        assert_eq!(batched.llc.contains(probe), oracle.llc.contains(probe));
                    }
                    // The exact lookup meter: one per same-line run.
                    assert_eq!(batched.l1.lookups - before, runs(&slice), "{at}");

                    (0..3).for_each(|i| levels[i] += got[i]);
                    refs += slice.len() as u64;
                    lookups += runs(&slice);
                    done += slice.len();
                }
            }
            // Every level serves references, repeats are skipped (7/8 of
            // the `Repeat8` quarter: a lookup per ~0.78 references), and
            // slices start on the line the last one ended on.
            assert!(levels.iter().all(|&n| n > 20_000), "{levels:?}");
            assert!(lookups < refs * 4 / 5, "{lookups} of {refs}");
            assert!(rejoined > 1_000, "{rejoined}");
        }
    }

    /// The pagemap walk's 8×-repeated stream costs one L1 lookup per line.
    #[test]
    fn batched_replay_looks_up_a_repeated_line_once() {
        let (l1, llc) = metadata_pair();
        let mut h = CacheHierarchy::new(l1, llc);
        let mut stream = Stream::new(Mix::Repeat8, llc, 0x5EED_3000);
        let refs: Vec<u64> = (0..800_000).map(|_| stream.next_addr()).collect();
        h.access_all(&refs, Source::Tiering);
        let lookups = h.l1.lookups;
        assert!(lookups <= refs.len() as u64 / 8 + 1, "{lookups}");
        assert_eq!(h.stats().l1.by(Source::Tiering).accesses(), 800_000);
    }
}
