//! Packed saturating counter arrays.
//!
//! HybridTier stores CBF counters at 4 bits each in base-page mode (cap 15;
//! paper §3.2: "pages with access count ≥ 15 should all be placed in fast-tier
//! memory, thus there is no need to differentiate between them") and 16 bits
//! in huge-page mode (§4.4). An 8-bit width is provided for experimentation.

use std::fmt;

/// `u64` words per 64-byte cache-line block (the unit of the word-level
/// block operations below).
pub const WORDS_PER_LINE: usize = crate::CACHE_LINE_BYTES / 8;

/// One cache-line block of packed counters, loaded/stored as whole words.
///
/// [`CounterArray::load_block`] copies the eight `u64` words backing one
/// 64-byte block into registers; counters are then extracted and updated
/// in-place with shifts and masks ([`CounterWidth::get_in_words`] /
/// [`CounterWidth::set_in_words`]) and the block is written back once with
/// [`CounterArray::store_block`]. This is the simulator-side analogue of the
/// paper's one-cache-line-per-op engineering (§4.2): a `k`-probe
/// GET+INCREMENT does one load pass and one store pass over the block
/// instead of `2k` independent read-modify-write word accesses.
pub type CounterBlock = [u64; WORDS_PER_LINE];

/// Width of each counter in a [`CounterArray`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CounterWidth {
    /// 4-bit counters saturating at 15 (HybridTier base-page default).
    W4,
    /// 8-bit counters saturating at 255.
    W8,
    /// 16-bit counters saturating at 65 535 (HybridTier huge-page mode).
    W16,
}

impl CounterWidth {
    /// Number of bits per counter.
    pub const fn bits(self) -> u32 {
        match self {
            CounterWidth::W4 => 4,
            CounterWidth::W8 => 8,
            CounterWidth::W16 => 16,
        }
    }

    /// Saturation cap (maximum representable count).
    pub const fn max_count(self) -> u32 {
        match self {
            CounterWidth::W4 => 15,
            CounterWidth::W8 => 255,
            CounterWidth::W16 => 65_535,
        }
    }

    /// How many counters of this width fit in one 64-byte cache line.
    pub const fn counters_per_line(self) -> usize {
        (crate::CACHE_LINE_BYTES * 8) / self.bits() as usize
    }

    /// How many counters of this width fit in one `u64` word.
    const fn counters_per_word(self) -> usize {
        64 / self.bits() as usize
    }

    /// Reads in-block counter `slot` from a loaded [`CounterBlock`].
    ///
    /// Bit arithmetic is identical to [`CounterArray::get`] on the
    /// corresponding global index, provided the block was loaded from a
    /// block-aligned position — asserted by the `cbf_properties` suite.
    #[inline]
    pub fn get_in_words(self, words: &CounterBlock, slot: usize) -> u32 {
        let per_word = self.counters_per_word();
        let shift = (slot % per_word) as u32 * self.bits();
        ((words[slot / per_word] >> shift) & self.max_count() as u64) as u32
    }

    /// Writes in-block counter `slot` of a loaded [`CounterBlock`],
    /// clamping `value` to the saturation cap (mirror of
    /// [`CounterArray::set`]).
    #[inline]
    pub fn set_in_words(self, words: &mut CounterBlock, slot: usize, value: u32) {
        let cap = self.max_count();
        let per_word = self.counters_per_word();
        let shift = (slot % per_word) as u32 * self.bits();
        let mask = (cap as u64) << shift;
        let w = &mut words[slot / per_word];
        *w = (*w & !mask) | ((value.min(cap) as u64) << shift);
    }
}

impl fmt::Display for CounterWidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}-bit", self.bits())
    }
}

/// A dense array of `len` saturating counters, packed `width.bits()` bits
/// each into `u64` words.
///
/// All index arithmetic is branch-light so that the simulator can run tens of
/// millions of updates per second.
#[derive(Debug, Clone)]
pub struct CounterArray {
    width: CounterWidth,
    len: usize,
    words: Vec<u64>,
}

impl CounterArray {
    /// Creates an array of `len` zeroed counters.
    pub fn new(len: usize, width: CounterWidth) -> Self {
        let per_word = 64 / width.bits() as usize;
        let words = len.div_ceil(per_word);
        Self {
            width,
            len,
            words: vec![0u64; words],
        }
    }

    /// Number of counters.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the array holds zero counters.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Counter width.
    pub fn width(&self) -> CounterWidth {
        self.width
    }

    /// Bytes of backing storage.
    pub fn storage_bytes(&self) -> usize {
        self.words.len() * 8
    }

    #[inline]
    fn slot(&self, idx: usize) -> (usize, u32) {
        debug_assert!(
            idx < self.len,
            "counter index {idx} out of bounds {}",
            self.len
        );
        let bits = self.width.bits();
        let per_word = 64 / bits;
        (idx / per_word as usize, (idx as u32 % per_word) * bits)
    }

    /// Reads counter `idx`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `idx >= len`.
    #[inline]
    pub fn get(&self, idx: usize) -> u32 {
        let (word, shift) = self.slot(idx);
        let mask = self.width.max_count() as u64;
        ((self.words[word] >> shift) & mask) as u32
    }

    /// Writes counter `idx`, clamping `value` to the saturation cap.
    #[inline]
    pub fn set(&mut self, idx: usize, value: u32) {
        let cap = self.width.max_count();
        let v = value.min(cap) as u64;
        let (word, shift) = self.slot(idx);
        let mask = (cap as u64) << shift;
        let w = &mut self.words[word];
        *w = (*w & !mask) | (v << shift);
    }

    /// Copies the 64-byte block starting at counter `first` into a stack
    /// [`CounterBlock`] (one load pass; the paper's blocked CBF touches
    /// exactly this one line per operation).
    ///
    /// `first` must be line-aligned: a multiple of
    /// [`CounterWidth::counters_per_line`].
    ///
    /// # Panics
    ///
    /// Panics in debug builds on a misaligned `first` or when the block
    /// extends past the backing words.
    #[inline]
    pub fn load_block(&self, first: usize) -> CounterBlock {
        debug_assert!(
            first.is_multiple_of(self.width.counters_per_line()),
            "block start {first} not line-aligned"
        );
        let w0 = first / self.width.counters_per_word();
        let mut words = [0u64; WORDS_PER_LINE];
        words.copy_from_slice(&self.words[w0..w0 + WORDS_PER_LINE]);
        words
    }

    /// Borrows the 64-byte block starting at counter `first` as whole
    /// words, without copying — the read-only sibling of
    /// [`load_block`](Self::load_block). `estimate` uses this so only the
    /// probed words of the (single) line are actually loaded.
    ///
    /// # Panics
    ///
    /// Panics in debug builds on a misaligned `first` (see
    /// [`load_block`](Self::load_block)).
    #[inline]
    pub fn block_ref(&self, first: usize) -> &CounterBlock {
        debug_assert!(
            first.is_multiple_of(self.width.counters_per_line()),
            "block start {first} not line-aligned"
        );
        let w0 = first / self.width.counters_per_word();
        (&self.words[w0..w0 + WORDS_PER_LINE])
            .try_into()
            .expect("slice is exactly one block")
    }

    /// Writes a [`CounterBlock`] back to the block starting at counter
    /// `first` (one store pass; see [`load_block`](Self::load_block)).
    #[inline]
    pub fn store_block(&mut self, first: usize, words: CounterBlock) {
        debug_assert!(
            first.is_multiple_of(self.width.counters_per_line()),
            "block start {first} not line-aligned"
        );
        let w0 = first / self.width.counters_per_word();
        self.words[w0..w0 + WORDS_PER_LINE].copy_from_slice(&words);
    }

    /// Increments counter `idx` by one, saturating at the cap; returns the
    /// new value.
    #[cfg(test)]
    fn saturating_inc(&mut self, idx: usize) -> u32 {
        let v = self.get(idx);
        if v < self.width.max_count() {
            self.set(idx, v + 1);
            v + 1
        } else {
            v
        }
    }

    /// Halves every counter in place (EMA decay factor 2).
    ///
    /// Works word-at-a-time: shifting the whole word right by one and masking
    /// out the bit that would bleed across counter boundaries — the same
    /// bit-trick a production implementation uses, so cooling an `m`-counter
    /// filter is `O(m / 16)` word operations for 4-bit counters.
    pub fn halve_all(&mut self) {
        let bits = self.width.bits();
        // Mask with the top bit of every counter field cleared, so a 1-bit
        // right shift never imports the neighbour counter's low bit.
        let field_mask: u64 = match bits {
            4 => 0x7777_7777_7777_7777,
            8 => 0x7F7F_7F7F_7F7F_7F7F,
            16 => 0x7FFF_7FFF_7FFF_7FFF,
            _ => unreachable!("unsupported width"),
        };
        for w in &mut self.words {
            *w = (*w >> 1) & field_mask;
        }
    }

    /// Resets every counter to zero.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Sum of all counters (used for occupancy statistics and tests).
    pub fn total(&self) -> u64 {
        (0..self.len).map(|i| self.get(i) as u64).sum()
    }

    /// Number of non-zero counters.
    pub fn occupied(&self) -> usize {
        (0..self.len).filter(|&i| self.get(i) != 0).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widths_pack_correctly() {
        assert_eq!(CounterWidth::W4.counters_per_line(), 128);
        assert_eq!(CounterWidth::W8.counters_per_line(), 64);
        assert_eq!(CounterWidth::W16.counters_per_line(), 32);
    }

    #[test]
    fn get_set_roundtrip_all_widths() {
        for width in [CounterWidth::W4, CounterWidth::W8, CounterWidth::W16] {
            let mut arr = CounterArray::new(100, width);
            for i in 0..100 {
                arr.set(i, (i as u32 * 7) % (width.max_count() + 1));
            }
            for i in 0..100 {
                assert_eq!(arr.get(i), (i as u32 * 7) % (width.max_count() + 1));
            }
        }
    }

    #[test]
    fn set_clamps_to_cap() {
        let mut arr = CounterArray::new(4, CounterWidth::W4);
        arr.set(2, 1000);
        assert_eq!(arr.get(2), 15);
        assert_eq!(arr.get(1), 0, "neighbours untouched");
        assert_eq!(arr.get(3), 0, "neighbours untouched");
    }

    #[test]
    fn saturating_inc_saturates() {
        let mut arr = CounterArray::new(1, CounterWidth::W4);
        for expect in 1..=15 {
            assert_eq!(arr.saturating_inc(0), expect);
        }
        assert_eq!(arr.saturating_inc(0), 15, "stays at cap");
    }

    #[test]
    fn halve_all_is_per_counter_floor_division() {
        for width in [CounterWidth::W4, CounterWidth::W8, CounterWidth::W16] {
            let mut arr = CounterArray::new(64, width);
            let cap = width.max_count();
            for i in 0..64 {
                arr.set(i, (i as u32 * 3 + 1) % (cap + 1));
            }
            let before: Vec<u32> = (0..64).map(|i| arr.get(i)).collect();
            arr.halve_all();
            for (i, b) in before.iter().enumerate() {
                assert_eq!(arr.get(i), b / 2, "width {width} idx {i}");
            }
        }
    }

    #[test]
    fn halve_all_does_not_leak_across_counters() {
        let mut arr = CounterArray::new(16, CounterWidth::W4);
        // Alternate max/zero; halving must not bleed a bit into the zeros.
        for i in 0..16 {
            arr.set(i, if i % 2 == 0 { 15 } else { 0 });
        }
        arr.halve_all();
        for i in 0..16 {
            assert_eq!(arr.get(i), if i % 2 == 0 { 7 } else { 0 });
        }
    }

    #[test]
    fn clear_zeroes_everything() {
        let mut arr = CounterArray::new(33, CounterWidth::W16);
        for i in 0..33 {
            arr.set(i, 9);
        }
        arr.clear();
        assert_eq!(arr.total(), 0);
        assert_eq!(arr.occupied(), 0);
    }

    #[test]
    fn block_ops_mirror_get_set() {
        for width in [CounterWidth::W4, CounterWidth::W8, CounterWidth::W16] {
            let per_line = width.counters_per_line();
            let mut arr = CounterArray::new(per_line * 3, width);
            for i in 0..arr.len() {
                arr.set(i, (i as u32 * 5 + 3) % (width.max_count() + 1));
            }
            // Middle block: word-level reads match scalar reads.
            let base = per_line;
            let words = arr.load_block(base);
            for slot in 0..per_line {
                assert_eq!(
                    width.get_in_words(&words, slot),
                    arr.get(base + slot),
                    "width {width} slot {slot}"
                );
            }
            // Word-level writes round-trip through a store and clamp.
            let mut words = arr.load_block(base);
            width.set_in_words(&mut words, 1, 1_000_000);
            width.set_in_words(&mut words, 2, 1);
            arr.store_block(base, words);
            assert_eq!(arr.get(base + 1), width.max_count(), "clamped");
            assert_eq!(arr.get(base + 2), 1);
            assert_eq!(arr.get(base), words[0] as u32 & width.max_count());
            // Neighbouring blocks untouched.
            assert_eq!(
                arr.get(base - 1),
                ((base - 1) as u32 * 5 + 3) % (width.max_count() + 1)
            );
            assert_eq!(
                arr.get(base + per_line),
                ((base + per_line) as u32 * 5 + 3) % (width.max_count() + 1)
            );
        }
    }

    #[test]
    fn storage_is_packed() {
        // 128 4-bit counters = 64 bytes.
        let arr = CounterArray::new(128, CounterWidth::W4);
        assert_eq!(arr.storage_bytes(), 64);
        // 100 counters round up to whole words.
        let arr = CounterArray::new(100, CounterWidth::W4);
        assert_eq!(arr.storage_bytes(), 56);
    }
}
