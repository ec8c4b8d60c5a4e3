//! A single set-associative, true-LRU cache level, each set kept in recency
//! order.

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Line size in bytes (must be a power of two).
    pub line_bytes: usize,
}

impl CacheConfig {
    /// A 48 KiB, 12-way L1 data cache (Ice Lake-SP, as in the paper's Xeon
    /// 4314 testbed).
    pub fn l1d() -> Self {
        Self {
            size_bytes: 48 << 10,
            ways: 12,
            line_bytes: 64,
        }
    }

    /// A small LLC for scaled-down simulations: keeps the ratio of metadata
    /// size to LLC size comparable to the paper despite ~512× smaller
    /// footprints.
    pub fn llc_scaled() -> Self {
        Self {
            size_bytes: 2 << 20,
            ways: 16,
            line_bytes: 64,
        }
    }

    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero sizes, capacity not
    /// divisible into whole sets, or a non-power-of-two line size).
    pub fn num_sets(&self) -> usize {
        assert!(
            self.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(self.ways > 0 && self.size_bytes > 0);
        let lines = self.size_bytes / self.line_bytes;
        assert!(
            lines.is_multiple_of(self.ways),
            "capacity {} lines not divisible by {} ways",
            lines,
            self.ways
        );
        lines / self.ways
    }
}

/// One set-associative cache level with true-LRU replacement.
///
/// Tags are full line addresses, so aliasing across address spaces is
/// impossible. Each set keeps its ways **in recency order**: way 0 is the
/// most recently used line, the last way the least recently used one, and
/// empty ways sink to the tail. A hit at depth `i` rotates `tags[0..=i]` —
/// that tag moves to the front and the `i` more recent ones down by one; a
/// miss rotates the whole set, which drops the last way — an empty one until
/// the set is full, the LRU line afterwards. The order *is* the replacement
/// state, so there is no per-way timestamp and no clock, and a lookup costs
/// as many compares as the line's recency depth. A repeat of the previous
/// line is a hit on way 0 that moves nothing, so batched replay
/// ([`crate::CacheHierarchy::access_all`]) settles it before any lookup.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    config: CacheConfig,
    set_mask: u64,
    line_shift: u32,
    /// `sets * ways` tags, each set MRU first; `u64::MAX` marks an empty way.
    tags: Vec<u64>,
    /// Work meters: calls to `access`, and the tag comparisons they make.
    #[cfg(test)]
    pub(crate) lookups: u64,
    #[cfg(test)]
    compares: u64,
}

const EMPTY: u64 = u64::MAX;

impl SetAssocCache {
    /// Builds an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if `config` is degenerate (see [`CacheConfig::num_sets`]) or if
    /// the set count is not a power of two.
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.num_sets();
        assert!(
            sets.is_power_of_two(),
            "set count {sets} must be a power of two"
        );
        Self {
            config,
            set_mask: sets as u64 - 1,
            line_shift: config.line_bytes.trailing_zeros(),
            tags: vec![EMPTY; sets * config.ways],
            #[cfg(test)]
            lookups: 0,
            #[cfg(test)]
            compares: 0,
        }
    }

    /// Geometry of this level.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Touches the line containing `byte_addr`; returns `true` on hit.
    ///
    /// The line becomes the set's most recently used; on a miss the least
    /// recently used way of the set is evicted to make room.
    #[inline]
    pub fn access(&mut self, byte_addr: u64) -> bool {
        #[cfg(test)]
        {
            self.lookups += 1;
        }
        let line = byte_addr >> self.line_shift;
        let base = (line & self.set_mask) as usize * self.config.ways;
        let set = &mut self.tags[base..base + self.config.ways];
        // One pass from the MRU end: each way takes the tag of the way
        // before it (way 0 takes `line`) until the way that held `line` is
        // reached — on a miss that is never, and the last tag drops out.
        let mut carried = line;
        for tag in set {
            #[cfg(test)]
            {
                self.compares += 1;
            }
            let found = std::mem::replace(tag, carried);
            if found == line {
                return true;
            }
            carried = found;
        }
        false
    }

    /// Returns whether the line containing `byte_addr` is currently resident
    /// (without touching LRU state).
    #[cfg(test)]
    pub fn contains(&self, byte_addr: u64) -> bool {
        let line = byte_addr >> self.line_shift;
        let set = (line & self.set_mask) as usize;
        let base = set * self.config.ways;
        self.tags[base..base + self.config.ways].contains(&line)
    }

    /// Empties the cache.
    #[cfg(test)]
    pub fn flush(&mut self) {
        self.tags.fill(EMPTY);
    }

    /// Number of resident lines.
    #[cfg(test)]
    pub fn resident_lines(&self) -> usize {
        self.tags.iter().filter(|&&t| t != EMPTY).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{metadata_pair, Mix, Rng, StampLru, Stream};

    fn tiny() -> SetAssocCache {
        // 4 sets × 2 ways × 64B = 512B.
        SetAssocCache::new(CacheConfig {
            size_bytes: 512,
            ways: 2,
            line_bytes: 64,
        })
    }

    #[test]
    fn geometry() {
        assert_eq!(CacheConfig::l1d().num_sets(), 64);
        assert_eq!(CacheConfig::llc_scaled().num_sets(), 2048);
        assert_eq!(tiny().config().num_sets(), 4);
    }

    #[test]
    fn first_touch_misses_second_hits() {
        let mut c = tiny();
        assert!(!c.access(0x0));
        assert!(c.access(0x0));
        assert!(c.access(0x3F), "same line as 0x0");
        assert!(!c.access(0x40), "next line misses");
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Set index = (addr >> 6) & 3. Addresses mapping to set 0:
        let a = 0x000; // line 0
        let b = 0x100; // line 4
        let d = 0x200; // line 8
        assert!(!c.access(a));
        assert!(!c.access(b));
        assert!(c.access(a), "refresh a's recency");
        assert!(!c.access(d), "evicts b (LRU)");
        assert!(c.access(a), "a survived");
        assert!(!c.access(b), "b was evicted");
    }

    #[test]
    fn working_set_larger_than_cache_thrashes() {
        let mut c = tiny();
        // 16 distinct lines round-robin over a 8-line cache: all misses on
        // every pass.
        let mut misses = 0;
        for pass in 0..3 {
            for i in 0..16u64 {
                if !c.access(i * 64) {
                    misses += 1;
                }
            }
            let _ = pass;
        }
        assert_eq!(misses, 48);
    }

    #[test]
    fn working_set_fitting_in_cache_hits_after_warmup() {
        let mut c = tiny();
        for i in 0..8u64 {
            c.access(i * 64);
        }
        for i in 0..8u64 {
            assert!(c.access(i * 64), "line {i} should be resident");
        }
        assert_eq!(c.resident_lines(), 8);
    }

    #[test]
    fn contains_does_not_disturb_lru() {
        let mut c = tiny();
        c.access(0x000);
        c.access(0x100);
        assert!(c.contains(0x000));
        // `contains` must not refresh 0x000: after touching 0x100 then
        // inserting a third line in set 0, 0x000 is the LRU victim.
        c.access(0x100);
        c.access(0x200);
        assert!(!c.contains(0x000));
        assert!(c.contains(0x100));
    }

    #[test]
    fn flush_empties() {
        let mut c = tiny();
        c.access(0);
        c.flush();
        assert_eq!(c.resident_lines(), 0);
        assert!(!c.access(0));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_bad_line_size() {
        let _ = SetAssocCache::new(CacheConfig {
            size_bytes: 512,
            ways: 2,
            line_bytes: 48,
        });
    }

    /// One of each associativity the simulator builds, and a direct-mapped
    /// and a 2-way cache for the degenerate rotations.
    fn geometries() -> Vec<CacheConfig> {
        let (meta_l1, meta_llc) = metadata_pair();
        let small = |size_bytes, ways| CacheConfig {
            size_bytes,
            ways,
            line_bytes: 64,
        };
        vec![
            small(4 << 10, 1),
            small(512, 2),
            meta_l1,
            meta_llc,
            CacheConfig::l1d(),
            CacheConfig::llc_scaled(),
        ]
    }

    #[test]
    fn recency_order_equals_stamp_lru_at_every_step() {
        const STEPS_PER_MIX: usize = 500_000;
        for (g, config) in geometries().into_iter().enumerate() {
            let mut cache = SetAssocCache::new(config);
            let mut oracle = StampLru::new(config);
            let mut hits = 0usize;
            for (m, mix) in Mix::ALL.into_iter().enumerate() {
                let seed = 0x5EED_0000 + (g * 16 + m) as u64;
                let mut stream = Stream::new(mix, config, seed);
                let mut rng = Rng(seed ^ 0xFFFF);
                // A sample of the last few thousand addresses: some still
                // resident, some evicted.
                let mut probes = [0u64; 64];
                for step in 0..STEPS_PER_MIX {
                    let addr = stream.next_addr();
                    let hit = cache.access(addr);
                    assert_eq!(
                        hit,
                        oracle.access(addr),
                        "{config:?} {mix:?} step {step} addr {addr:#x}"
                    );
                    hits += hit as usize;
                    match rng.below(1 << 16) {
                        0 => {
                            cache.flush();
                            oracle.flush();
                            assert_eq!(cache.resident_lines(), 0);
                        }
                        // `contains` agrees, and must not reorder the set
                        // (the steps that follow would diverge if it did).
                        1..=1_024 => {
                            for probe in probes {
                                assert_eq!(
                                    cache.contains(probe),
                                    oracle.contains(probe),
                                    "{config:?} {mix:?} step {step} probe {probe:#x}"
                                );
                            }
                        }
                        1_025..=2_048 => probes[rng.below(64) as usize] = addr,
                        _ => {}
                    }
                }
                assert_eq!(
                    cache.resident_lines(),
                    oracle.resident_lines(),
                    "{config:?} {mix:?}"
                );
                for probe in probes {
                    assert_eq!(cache.contains(probe), oracle.contains(probe));
                }
            }
            // The streams exercise both outcomes, not one of them.
            let steps = Mix::ALL.len() * STEPS_PER_MIX;
            assert!(
                hits > steps / 4 && hits < steps * 3 / 4,
                "{config:?}: {hits}"
            );
        }
    }

    #[test]
    fn direct_mapped_cache_replaces_on_every_conflict() {
        let mut c = SetAssocCache::new(CacheConfig {
            size_bytes: 256,
            ways: 1,
            line_bytes: 64,
        });
        assert!(!c.access(0x000));
        assert!(c.access(0x000));
        assert!(!c.access(0x100), "same set, other line");
        assert!(!c.access(0x000), "evicted by the conflict");
        assert_eq!(c.resident_lines(), 1);
    }

    /// Tag compares per access over `addrs`.
    fn compares_per_access(c: &mut SetAssocCache, addrs: impl Iterator<Item = u64>) -> f64 {
        let before = c.compares;
        let mut accesses = 0u64;
        for addr in addrs {
            c.access(addr);
            accesses += 1;
        }
        (c.compares - before) as f64 / accesses as f64
    }

    /// The work a lookup does is the line's recency depth, not the
    /// associativity. Exact on any host, so a regression to a scan of the
    /// whole set per reference fails here without a stopwatch.
    #[test]
    fn compares_per_access_track_recency_depth() {
        let (meta_l1, _) = metadata_pair();

        // A repeat of the previous line is one compare, in a cold set and
        // in a full one.
        let mut c = SetAssocCache::new(meta_l1);
        let mut rng = Rng(0x5EED_C0DE);
        for _ in 0..100_000 {
            let addr = rng.below(1 << 22);
            c.access(addr);
            let before = c.compares;
            assert!(c.access(addr));
            assert_eq!(c.compares - before, 1);
        }

        // The pagemap walk: a miss that scans the set, then seven repeats.
        let mut c = SetAssocCache::new(meta_l1);
        let walk = compares_per_access(&mut c, (0..800_000u64).map(|i| (i / 8) * 64));
        assert!(walk <= 2.0, "8x-repeated sequential stream: {walk}");

        // A cyclic sweep over a working set that fits hits at full depth:
        // never more than one compare per way.
        for config in geometries() {
            let lines = (config.size_bytes / config.line_bytes) as u64;
            let mut c = SetAssocCache::new(config);
            let cyclic = compares_per_access(&mut c, (0..4 * lines).map(|i| (i % lines) * 64));
            assert!(cyclic <= config.ways as f64, "{config:?}: {cyclic}");
        }
    }
}
