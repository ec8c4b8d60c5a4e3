//! Test support: the stamp/clock cache the recency-ordered sets replaced,
//! kept as the differential oracle, and the seeded reference streams both
//! the cache and the hierarchy are compared on.

use crate::cache::CacheConfig;

const EMPTY: u64 = u64::MAX;

/// [`SetAssocCache`](crate::SetAssocCache) as it was before its sets were
/// kept in recency order, line for line: a last-touch stamp per way from a
/// global clock, and the victim is the way with the lowest stamp.
#[derive(Debug, Clone)]
pub(crate) struct StampLru {
    config: CacheConfig,
    set_mask: u64,
    line_shift: u32,
    /// `sets * ways` tags; `u64::MAX` marks an empty way.
    tags: Vec<u64>,
    /// Per-way last-touch stamps for LRU.
    stamps: Vec<u64>,
    clock: u64,
}

impl StampLru {
    pub(crate) fn new(config: CacheConfig) -> Self {
        let sets = config.num_sets();
        assert!(sets.is_power_of_two());
        Self {
            config,
            set_mask: sets as u64 - 1,
            line_shift: config.line_bytes.trailing_zeros(),
            tags: vec![EMPTY; sets * config.ways],
            stamps: vec![0; sets * config.ways],
            clock: 0,
        }
    }

    pub(crate) fn access(&mut self, byte_addr: u64) -> bool {
        self.clock += 1;
        let line = byte_addr >> self.line_shift;
        let set = (line & self.set_mask) as usize;
        let base = set * self.config.ways;
        let ways = &mut self.tags[base..base + self.config.ways];

        let mut victim = 0usize;
        let mut victim_stamp = u64::MAX;
        for (i, &tag) in ways.iter().enumerate() {
            if tag == line {
                self.stamps[base + i] = self.clock;
                return true;
            }
            let s = self.stamps[base + i];
            if s < victim_stamp {
                victim_stamp = s;
                victim = i;
            }
        }
        self.tags[base + victim] = line;
        self.stamps[base + victim] = self.clock;
        false
    }

    pub(crate) fn contains(&self, byte_addr: u64) -> bool {
        let line = byte_addr >> self.line_shift;
        let set = (line & self.set_mask) as usize;
        let base = set * self.config.ways;
        self.tags[base..base + self.config.ways].contains(&line)
    }

    pub(crate) fn flush(&mut self) {
        self.tags.fill(EMPTY);
        self.stamps.fill(0);
    }

    pub(crate) fn resident_lines(&self) -> usize {
        self.tags.iter().filter(|&&t| t != EMPTY).count()
    }
}

/// The dedicated metadata hierarchy `tiering_sim` replays every policy's
/// metadata lines through: a 32 KiB L1 and a 256 KiB LLC slice, both 8-way.
pub(crate) fn metadata_pair() -> (CacheConfig, CacheConfig) {
    let level = |size_bytes| CacheConfig {
        size_bytes,
        ways: 8,
        line_bytes: 64,
    };
    (level(32 << 10), level(256 << 10))
}

/// SplitMix64: seeded, dependency-free.
pub(crate) struct Rng(pub(crate) u64);

impl Rng {
    pub(crate) fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub(crate) fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// How a reference stream picks its next line.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Mix {
    /// Uniform over four times the cache.
    Uniform,
    /// Nine in ten from a scattered hot set a quarter of the cache, the rest
    /// from anywhere.
    HotSet,
    /// A cyclic sequential sweep over twice the cache: every reference
    /// evicts.
    Sweep,
    /// Sequential, each line eight times in a row — the pagemap walk.
    Repeat8,
}

impl Mix {
    pub(crate) const ALL: [Mix; 4] = [Mix::Uniform, Mix::HotSet, Mix::Sweep, Mix::Repeat8];
}

/// A seeded stream of byte addresses sized against a cache of
/// `cache_lines` 64-byte lines.
pub(crate) struct Stream {
    mix: Mix,
    cache_lines: u64,
    rng: Rng,
    step: u64,
}

impl Stream {
    pub(crate) fn new(mix: Mix, config: CacheConfig, seed: u64) -> Self {
        Self {
            mix,
            cache_lines: (config.size_bytes / config.line_bytes) as u64,
            rng: Rng(seed),
            step: 0,
        }
    }

    pub(crate) fn next_addr(&mut self) -> u64 {
        let n = self.cache_lines;
        let step = self.step;
        self.step += 1;
        let line = match self.mix {
            Mix::Uniform => self.rng.below(4 * n),
            Mix::HotSet if self.rng.below(10) > 0 => {
                // A fixed odd multiplier scatters the hot lines over the sets.
                self.rng.below(n / 4 + 1).wrapping_mul(0x9E37_79B1) >> 3
            }
            Mix::HotSet => self.rng.next() >> 8,
            Mix::Sweep => step % (2 * n + 3),
            Mix::Repeat8 => (step / 8) % (3 * n + 1),
        };
        line * 64 + self.rng.below(64)
    }
}
