//! The cache-line-blocked counting Bloom filter (paper §4.2, Figure 8).

use crate::counters::CounterArray;
use crate::hash::{reduce, PageHasher};
use crate::sizing::CbfParams;
use crate::AccessCounter;

/// A blocked counting Bloom filter: each key maps to exactly one 64-byte
/// block, and all `k` of its counters live within that block.
///
/// This guarantees every `GET`/`INCREMENT` touches exactly one cache line —
/// at most one cache miss — versus up to `k` for [`StandardCbf`]
/// (paper §3.3: the final piece of HybridTier's cache-overhead reduction,
/// Figure 14). The price is a slightly higher false-positive rate because
/// collisions concentrate within blocks; the paper finds the trade favorable,
/// and the Table 5 experiment in this repository quantifies it.
///
/// With 4-bit counters a block holds 128 counter slots; with 16-bit counters,
/// 32 slots (paper §4.2).
///
/// # Hot-path engineering
///
/// The simulator practices what the paper preaches, at the instruction level
/// too:
///
/// * one private `probes(key)` is the whole layout rule: it derives the
///   double-hash pair `(h1, h2)` **once** per key and takes the block from
///   probe 0 and the `k` in-block slots from probes `1..=k`, probe `i`
///   being `h1 + i·h2` — not one [`PageHasher::pair`] rehash per probe.
///   `increment`, `estimate` and `touched_lines` all read it;
/// * `increment`/`estimate` load the key's 64-byte block as eight whole
///   `u64` words ([`CounterArray::load_block`]), extract and update all `k`
///   counters with shifts/masks in registers, and write the block back once
///   — fusing what used to be a get-min pass plus a set pass of per-counter
///   indexed accesses. The shifts and masks are the counter array's one bit
///   layout ([`CounterWidth::get_in_words`](crate::CounterWidth::get_in_words)).
///
/// This is the only `GET`/`INCREMENT` implementation. Its tests compare it
/// under random operation sequences with a per-counter reference compiled
/// only into them, which derives the block and slots independently, by
/// one [`PageHasher::probe`] rehash per probe, and reads each counter with
/// [`CounterArray::get`]/[`set`](CounterArray::set). Duplicate slots update
/// in the same order on both paths.
///
/// [`StandardCbf`]: crate::StandardCbf
#[derive(Debug, Clone)]
pub struct BlockedCbf {
    counters: CounterArray,
    hasher: PageHasher,
    k: u32,
    num_blocks: usize,
    slots_per_block: usize,
    base_addr: u64,
}

impl BlockedCbf {
    /// Builds a blocked filter with (at least) the counter count implied by
    /// `params`, rounded up to a whole number of 64-byte blocks.
    ///
    /// # Panics
    ///
    /// Panics if `params.k == 0`, `params.m == 0`, or `k` exceeds the number
    /// of counter slots in one block.
    pub fn new(params: CbfParams) -> Self {
        assert!(params.k > 0, "k must be positive");
        assert!(params.m > 0, "m must be positive");
        let slots_per_block = params.width.counters_per_line();
        assert!(
            (params.k as usize) <= slots_per_block,
            "k={} exceeds {} slots per block",
            params.k,
            slots_per_block
        );
        let num_blocks = params.m.div_ceil(slots_per_block);
        Self {
            counters: CounterArray::new(num_blocks * slots_per_block, params.width),
            hasher: PageHasher::new(params.seed),
            k: params.k,
            num_blocks,
            slots_per_block,
            base_addr: params.base_addr,
        }
    }

    /// Number of counters (blocks × slots per block).
    pub fn num_counters(&self) -> usize {
        self.counters.len()
    }

    /// Number of hash functions.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// The layout of `key`: the index of its block's first counter and its
    /// `k` in-block slots, all from one `(h1, h2)` pair. Probe 0 (`h1`)
    /// selects the block and probe `i + 1` (`h1 + (i + 1)·h2`) slot `i`,
    /// exactly [`PageHasher::probe`] without the per-probe rehash.
    ///
    /// Duplicate slots within a block are permitted (they simply behave as a
    /// filter with fewer effective hashes for that key), matching hardware
    /// blocked-bloom designs.
    #[inline]
    fn probes(&self, key: u64) -> (usize, impl Iterator<Item = usize> + Clone) {
        let (h1, h2) = self.hasher.pair(key);
        let slots = self.slots_per_block;
        let base = reduce(h1, self.num_blocks) * slots;
        let probe = move |i: u64| reduce(h1.wrapping_add((i + 1).wrapping_mul(h2)), slots);
        (base, (0..self.k as u64).map(probe))
    }
}

impl AccessCounter for BlockedCbf {
    fn increment(&mut self, key: u64) -> u32 {
        self.increment_with_prev(key).1
    }

    fn increment_with_prev(&mut self, key: u64) -> (u32, u32) {
        let (base, slots) = self.probes(key);
        let width = self.counters.width();
        // One load pass over the block; min-scan and conservative update run
        // on the in-register copy (sequentially, in slot order, so duplicate
        // slots behave exactly as in the per-counter path); one store pass.
        // The pre-update minimum *is* the estimate, so `(prev, new)` costs
        // one block visit.
        let mut words = self.counters.load_block(base);
        let min = slots
            .clone()
            .map(|s| width.get_in_words(&words, s))
            .min()
            .expect("k > 0");
        if min >= width.max_count() {
            return (min, min);
        }
        for s in slots {
            if width.get_in_words(&words, s) == min {
                width.set_in_words(&mut words, s, min + 1);
            }
        }
        self.counters.store_block(base, words);
        (min, min + 1)
    }

    fn estimate(&self, key: u64) -> u32 {
        let (base, slots) = self.probes(key);
        let width = self.counters.width();
        // Read-only: borrow the block and extract the k probed counters
        // (only the probed words are touched — still exactly one line).
        let words = self.counters.block_ref(base);
        slots
            .map(|s| width.get_in_words(words, s))
            .min()
            .expect("k > 0")
    }

    fn cool(&mut self) {
        self.counters.halve_all();
    }

    fn metadata_bytes(&self) -> usize {
        self.counters.storage_bytes()
    }

    fn touched_lines(&self, key: u64, out: &mut Vec<u64>) {
        // The defining property: exactly one cache line per operation.
        let (base, _) = self.probes(key);
        out.push(self.base_addr + self.counters.line_offset(base));
    }

    fn base_addr(&self) -> u64 {
        self.base_addr
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::CounterWidth;
    use proptest::prelude::*;

    impl BlockedCbf {
        /// The layout of `key` derived independently of
        /// [`probes`](BlockedCbf::probes): one [`PageHasher::probe`] rehash
        /// per probe, probe 0 for the block and probe `i + 1` for slot `i`.
        fn rehashed_probes(&self, key: u64) -> (usize, Vec<usize>) {
            let block = reduce(self.hasher.probe(key, 0), self.num_blocks);
            let slots = (0..self.k)
                .map(|i| reduce(self.hasher.probe(key, i + 1), self.slots_per_block))
                .collect();
            (block * self.slots_per_block, slots)
        }

        /// Per-counter reference implementation of [`AccessCounter::increment`]:
        /// the rehashed layout and one indexed
        /// [`CounterArray::get`]/[`CounterArray::set`] per probe, as the
        /// pre-word-level code did. The tests below pin the word-level path
        /// against it.
        fn increment_per_counter(&mut self, key: u64) -> u32 {
            let (base, slots) = self.rehashed_probes(key);
            let min = slots
                .iter()
                .map(|&s| self.counters.get(base + s))
                .min()
                .expect("k > 0");
            if min >= self.counters.width().max_count() {
                return min;
            }
            for &s in &slots {
                if self.counters.get(base + s) == min {
                    self.counters.set(base + s, min + 1);
                }
            }
            min + 1
        }

        /// Per-counter reference implementation of [`AccessCounter::estimate`]
        /// (see [`increment_per_counter`](Self::increment_per_counter)).
        fn estimate_per_counter(&self, key: u64) -> u32 {
            let (base, slots) = self.rehashed_probes(key);
            slots
                .iter()
                .map(|&s| self.counters.get(base + s))
                .min()
                .expect("k > 0")
        }
    }

    fn filter(cap: usize) -> BlockedCbf {
        BlockedCbf::new(CbfParams::for_capacity(cap, 4, 0.001, CounterWidth::W8))
    }

    #[test]
    fn counts_single_key() {
        let mut f = filter(1000);
        for expect in 1..=10 {
            assert_eq!(f.increment(0x1000), expect);
        }
        assert_eq!(f.estimate(0x1000), 10);
        assert_eq!(f.estimate(0x2000), 0);
    }

    #[test]
    fn exactly_one_cache_line_per_op() {
        let f = filter(100_000);
        for key in 0..500u64 {
            let mut lines = Vec::new();
            f.touched_lines(key, &mut lines);
            assert_eq!(lines.len(), 1, "blocked CBF must touch exactly one line");
            assert_eq!(lines[0] % 64, 0);
        }
    }

    /// One `pair()` call derives the same probe sequence as per-probe
    /// `PageHasher::probe(key, i)` rehashing, in both filters.
    #[test]
    fn single_pair_derivation_matches_per_probe_hashing() {
        let params = CbfParams::for_capacity(10_000, 4, 0.001, CounterWidth::W8);
        let blocked = BlockedCbf::new(params.clone());
        let standard = crate::StandardCbf::new(params.clone());
        let hasher = PageHasher::new(params.seed);
        for key in 0..500u64 {
            let (base, slots) = blocked.probes(key);
            let legacy_block = reduce(hasher.probe(key, 0), blocked.num_blocks);
            assert_eq!(
                base,
                legacy_block * blocked.slots_per_block,
                "key {key}: block diverged"
            );
            let legacy_slots: Vec<usize> = (0..blocked.k)
                .map(|i| reduce(hasher.probe(key, i + 1), blocked.slots_per_block))
                .collect();
            assert_eq!(
                slots.collect::<Vec<_>>(),
                legacy_slots,
                "key {key}: slots diverged"
            );
            let legacy_indices: Vec<usize> = (0..standard.k())
                .map(|i| reduce(hasher.probe(key, i), standard.num_counters()))
                .collect();
            assert_eq!(
                standard.probes(key).collect::<Vec<_>>(),
                legacy_indices,
                "key {key}: standard indices diverged"
            );
        }
    }

    #[test]
    fn all_counters_of_a_key_are_in_its_block() {
        let f = filter(10_000);
        for key in 0..200u64 {
            let (base, slots) = f.probes(key);
            assert_eq!(base % f.slots_per_block, 0, "block base is line-aligned");
            let mut lines = Vec::new();
            f.touched_lines(key, &mut lines);
            let block = (base / f.slots_per_block) as u64;
            assert_eq!(
                lines,
                [f.base_addr + block * 64],
                "the block is the touched line"
            );
            for slot in slots {
                assert!(slot < f.slots_per_block, "slot escapes the block");
            }
        }
    }

    #[test]
    fn word_level_ops_match_per_counter_reference() {
        let mut word = filter(2_000);
        let mut scalar = filter(2_000);
        let mut state = 77u64;
        for _ in 0..20_000 {
            state = crate::hash::splitmix64(state);
            let key = state % 700;
            assert_eq!(word.increment(key), scalar.increment_per_counter(key));
            let probe = state % 900;
            assert_eq!(word.estimate(probe), scalar.estimate_per_counter(probe));
        }
    }

    fn any_width() -> impl Strategy<Value = CounterWidth> {
        prop_oneof![
            Just(CounterWidth::W4),
            Just(CounterWidth::W8),
            Just(CounterWidth::W16),
        ]
    }

    proptest! {
        /// The word-level `BlockedCbf` increment/estimate equals the
        /// per-counter reference implementation under random op sequences
        /// (interleaved increments, estimates, and cooling), at every width.
        #[test]
        fn blocked_word_path_matches_reference(
            width in any_width(),
            ops in prop::collection::vec((0u64..96, any::<bool>()), 1..300),
            cool_every in 20usize..80,
        ) {
            let params = CbfParams::for_capacity(64, 4, 0.001, width);
            let mut word = BlockedCbf::new(params.clone());
            let mut reference = BlockedCbf::new(params);
            for (i, &(key, is_inc)) in ops.iter().enumerate() {
                if is_inc {
                    prop_assert_eq!(word.increment(key), reference.increment_per_counter(key));
                } else {
                    prop_assert_eq!(word.estimate(key), reference.estimate_per_counter(key));
                }
                if (i + 1) % cool_every == 0 {
                    word.cool();
                    reference.cool();
                }
            }
            for key in 0..96u64 {
                prop_assert_eq!(word.estimate(key), reference.estimate_per_counter(key));
            }
        }
    }

    #[test]
    fn never_underestimates() {
        let mut f = filter(500);
        let mut truth = std::collections::HashMap::new();
        let mut state = 999u64;
        for _ in 0..5_000 {
            state = crate::hash::splitmix64(state);
            let key = state % 400;
            f.increment(key);
            *truth.entry(key).or_insert(0u32) += 1;
        }
        let cap = CounterWidth::W8.max_count();
        for (&key, &count) in &truth {
            assert!(f.estimate(key) >= count.min(cap));
        }
    }

    #[test]
    fn blocked_error_worse_than_standard_but_bounded() {
        // Insert exactly the design load once each; compare overestimates.
        let n = 4_000;
        let params = CbfParams::for_capacity(n, 4, 0.001, CounterWidth::W8);
        let mut blocked = BlockedCbf::new(params.clone());
        let mut standard = crate::StandardCbf::new(params);
        for key in 0..n as u64 {
            blocked.increment(key);
            standard.increment(key);
        }
        let over_b = (0..n as u64).filter(|&k| blocked.estimate(k) > 1).count();
        let over_s = (0..n as u64).filter(|&k| standard.estimate(k) > 1).count();
        // Paper: "blocked CBF has a slightly higher false positive rate".
        assert!(over_b >= over_s, "blocked {over_b} vs standard {over_s}");
        assert!(
            over_b < n / 20,
            "blocked overestimates {over_b}/{n}, beyond the 'slight' regime"
        );
    }

    #[test]
    fn cool_halves_estimate() {
        let mut f = filter(100);
        for _ in 0..9 {
            f.increment(5);
        }
        f.cool();
        assert_eq!(f.estimate(5), 4);
    }

    #[test]
    fn whole_blocks_allocation() {
        let f = BlockedCbf::new(CbfParams {
            k: 4,
            m: 130, // not a multiple of 128
            width: CounterWidth::W4,
            seed: 0,
            base_addr: 0,
        });
        assert_eq!(f.num_blocks, 2);
        assert_eq!(f.num_counters(), 256);
        assert_eq!(f.metadata_bytes(), 128);
    }

    #[test]
    fn four_bit_saturation() {
        let mut f = BlockedCbf::new(CbfParams::for_capacity(64, 4, 0.001, CounterWidth::W4));
        for _ in 0..40 {
            f.increment(3);
        }
        assert_eq!(f.estimate(3), 15);
    }
}
