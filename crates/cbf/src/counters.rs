//! Packed saturating counter arrays.
//!
//! HybridTier stores CBF counters at 4 bits each in base-page mode (cap 15;
//! paper §3.2: "pages with access count ≥ 15 should all be placed in fast-tier
//! memory, thus there is no need to differentiate between them") and 16 bits
//! in huge-page mode (§4.4). An 8-bit width is provided for experimentation.

use std::fmt;
use std::ops::Range;

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

/// Bits in one cache-line block.
const LINE_BITS: usize = crate::CACHE_LINE_BYTES * 8;

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
        LINE_BITS / self.bits() as usize
    }

    /// The counter bit layout: counter `slot` of a word sequence is the
    /// `bits()`-wide field at bit `slot · bits()`, low bits first. Returns
    /// its word index and its shift within that word. Every width divides
    /// 64, so no field straddles two words.
    #[inline]
    const fn field(self, slot: usize) -> (usize, u32) {
        let bit = slot * self.bits() as usize;
        (bit / 64, (bit % 64) as u32)
    }

    /// Reads counter `slot` of the packed words `words` — a loaded
    /// [`CounterBlock`] with an in-block slot, or a whole array's words
    /// with a global index ([`CounterArray::get`] is exactly that).
    ///
    /// # Panics
    ///
    /// Panics if the counter lies past the end of `words`.
    #[inline]
    pub fn get_in_words(self, words: &[u64], slot: usize) -> u32 {
        let (word, shift) = self.field(slot);
        ((words[word] >> shift) & self.max_count() as u64) as u32
    }

    /// Writes counter `slot` of the packed words `words`, clamping `value`
    /// to the saturation cap (the writer of
    /// [`get_in_words`](Self::get_in_words)'s layout).
    ///
    /// # Panics
    ///
    /// Panics if the counter lies past the end of `words`.
    #[inline]
    pub fn set_in_words(self, words: &mut [u64], slot: usize, value: u32) {
        let cap = self.max_count();
        let (word, shift) = self.field(slot);
        let mask = (cap as u64) << shift;
        let w = &mut words[word];
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
        let words = (len * width.bits() as usize).div_ceil(64);
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

    /// `idx`, checked against `len` in every profile: it is caller input,
    /// and an index past `len` but inside the last word would silently
    /// reach a padding counter.
    #[inline]
    fn checked(&self, idx: usize) -> usize {
        assert!(
            idx < self.len,
            "counter index {idx} out of bounds {}",
            self.len
        );
        idx
    }

    /// Reads counter `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= len`.
    #[inline]
    pub fn get(&self, idx: usize) -> u32 {
        self.width.get_in_words(&self.words, self.checked(idx))
    }

    /// Writes counter `idx`, clamping `value` to the saturation cap.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= len`.
    #[inline]
    pub fn set(&mut self, idx: usize, value: u32) {
        let idx = self.checked(idx);
        self.width.set_in_words(&mut self.words, idx, value);
    }

    /// Byte offset, within this array, of the cache line holding counter
    /// `idx`.
    #[inline]
    pub(crate) fn line_offset(&self, idx: usize) -> u64 {
        let (word, _) = self.width.field(idx);
        (word / WORDS_PER_LINE * crate::CACHE_LINE_BYTES) as u64
    }

    /// The eight words backing the 64-byte block whose first counter is
    /// `first`.
    ///
    /// `first` is caller input, so its alignment is checked in every
    /// profile: a misaligned `first` would silently read or write words
    /// straddling two lines.
    #[inline]
    fn block_words(&self, first: usize) -> Range<usize> {
        let bit = first * self.width.bits() as usize;
        assert!(
            bit.is_multiple_of(LINE_BITS),
            "block start {first} not line-aligned"
        );
        let w0 = bit / 64;
        w0..w0 + WORDS_PER_LINE
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
    /// Panics on a misaligned `first` or when the block extends past the
    /// backing words.
    #[inline]
    pub fn load_block(&self, first: usize) -> CounterBlock {
        *self.block_ref(first)
    }

    /// Borrows the 64-byte block starting at counter `first` as whole
    /// words, without copying — the read-only sibling of
    /// [`load_block`](Self::load_block). `estimate` uses this so only the
    /// probed words of the (single) line are actually loaded.
    ///
    /// # Panics
    ///
    /// As [`load_block`](Self::load_block).
    #[inline]
    pub fn block_ref(&self, first: usize) -> &CounterBlock {
        self.words[self.block_words(first)]
            .try_into()
            .expect("slice is exactly one block")
    }

    /// Writes a [`CounterBlock`] back to the block starting at counter
    /// `first` (one store pass; see [`load_block`](Self::load_block)).
    ///
    /// # Panics
    ///
    /// As [`load_block`](Self::load_block).
    #[inline]
    pub fn store_block(&mut self, first: usize, words: CounterBlock) {
        let range = self.block_words(first);
        self.words[range].copy_from_slice(&words);
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
        // Every field's top bit cleared, so a 1-bit right shift never
        // imports the neighbour counter's low bit: `MAX / cap` has a one at
        // each field's lowest bit, and `cap >> 1` fills all but its top.
        let cap = self.width.max_count() as u64;
        let field_mask = (u64::MAX / cap) * (cap >> 1);
        for w in &mut self.words {
            *w = (*w >> 1) & field_mask;
        }
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
