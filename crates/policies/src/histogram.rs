//! Hotness histogram with automatic threshold derivation.
//!
//! Memtis "maintains a histogram to track the overall access frequency
//! distribution of memory pages. By understanding the overall hotness
//! distribution and the fast-tier memory capacity, Memtis can accurately
//! calculate the hotness threshold to ensure only the hottest data are
//! placed in the fast-tier" (paper §2.3.1). HybridTier adopts the same
//! mechanism for its frequency threshold (§3.1).

/// A histogram of page counts per hotness level.
///
/// `bucket[v]` approximates the number of pages whose current access count
/// is `v`. Maintained incrementally: when a page's count transitions from
/// `old` to `new`, the corresponding buckets are adjusted; when counters are
/// cooled (halved), the whole histogram is folded accordingly.
#[derive(Debug, Clone)]
pub struct HotnessHistogram {
    buckets: Vec<u64>,
}

impl HotnessHistogram {
    /// A histogram over hotness levels `0..=max_level`.
    ///
    /// # Panics
    ///
    /// Panics if `max_level == 0`.
    pub fn new(max_level: u32) -> Self {
        assert!(max_level > 0, "need at least levels 0 and 1");
        Self {
            buckets: vec![0; max_level as usize + 1],
        }
    }

    /// Highest representable level (counts are clamped to it).
    fn max_level(&self) -> u32 {
        self.buckets.len() as u32 - 1
    }

    /// Records a page's count transition `old → new`.
    ///
    /// A page entering the histogram for the first time should transition
    /// from level 0. No-ops when `old == new` (e.g. saturated counters).
    #[inline]
    pub fn transition(&mut self, old: u32, new: u32) {
        let cap = self.max_level();
        let (old, new) = (old.min(cap), new.min(cap));
        if old == new {
            return;
        }
        if old > 0 {
            let b = &mut self.buckets[old as usize];
            *b = b.saturating_sub(1);
        }
        if new > 0 {
            self.buckets[new as usize] += 1;
        }
    }

    /// Folds the histogram for a cooling event: every page at level `v`
    /// moves to level `v/2`.
    pub fn cool(&mut self) {
        let n = self.buckets.len();
        let mut folded = vec![0u64; n];
        for (v, &count) in self.buckets.iter().enumerate() {
            folded[v / 2] += count;
        }
        folded[0] = 0; // level 0 is implicit (untracked pages)
        self.buckets = folded;
    }

    /// Number of pages at exactly `level`.
    #[cfg(test)]
    fn pages_at(&self, level: u32) -> u64 {
        self.buckets
            .get(level as usize)
            .copied()
            .unwrap_or_default()
    }

    /// Number of pages at or above `level`.
    pub fn pages_at_or_above(&self, level: u32) -> u64 {
        self.buckets[(level as usize).min(self.buckets.len() - 1)..]
            .iter()
            .sum()
    }

    /// Derives the hotness threshold for a fast tier of `fast_capacity`
    /// pages: the smallest level `t ≥ min_threshold` such that the pages at
    /// or above `t` fit in the fast tier.
    ///
    /// When even the hottest level overflows the capacity, returns the top
    /// level (only the very hottest pages promote).
    pub fn threshold_for(&self, fast_capacity: u64, min_threshold: u32) -> u32 {
        // One suffix-sum pass from the top (Memtis refreshes the threshold
        // per sample, so the former per-level re-summation was quadratic in
        // levels). `pages_at_or_above(t)` is non-increasing in `t`, so the
        // smallest admissible `t` is the last one the descending scan sees
        // before the suffix overflows — identical to the ascending search.
        let min = min_threshold.max(1);
        let max = self.max_level();
        let mut suffix = 0u64;
        let mut best = max;
        let mut found = false;
        for t in (min..=max).rev() {
            suffix += self.buckets[t as usize];
            if suffix <= fast_capacity {
                best = t;
                found = true;
            } else {
                break;
            }
        }
        if found {
            best
        } else {
            max
        }
    }

    /// Resets all buckets.
    pub fn clear(&mut self) {
        self.buckets.fill(0);
    }

    /// Bytes consumed by the histogram.
    pub fn metadata_bytes(&self) -> usize {
        self.buckets.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transitions_track_population() {
        let mut h = HotnessHistogram::new(15);
        h.transition(0, 1); // page A reaches 1
        h.transition(0, 1); // page B reaches 1
        h.transition(1, 2); // page A reaches 2
        assert_eq!(h.pages_at(1), 1);
        assert_eq!(h.pages_at(2), 1);
        assert_eq!(h.pages_at_or_above(1), 2);
    }

    #[test]
    fn saturated_transitions_are_noops() {
        let mut h = HotnessHistogram::new(15);
        h.transition(0, 15);
        h.transition(15, 15);
        assert_eq!(h.pages_at(15), 1);
    }

    #[test]
    fn transitions_clamp_to_max_level() {
        let mut h = HotnessHistogram::new(15);
        h.transition(0, 40);
        assert_eq!(h.pages_at(15), 1);
        h.transition(40, 99); // both clamp to 15: no-op
        assert_eq!(h.pages_at(15), 1);
    }

    #[test]
    fn cooling_folds_levels() {
        let mut h = HotnessHistogram::new(15);
        h.transition(0, 8);
        h.transition(0, 9);
        h.transition(0, 1);
        h.cool();
        assert_eq!(h.pages_at(4), 2, "8 and 9 both fold to 4");
        assert_eq!(h.pages_at(8), 0);
        // The level-1 page folded to 0 and left the histogram.
        assert_eq!(h.pages_at_or_above(1), 2);
    }

    #[test]
    fn threshold_fits_hot_set_to_capacity() {
        let mut h = HotnessHistogram::new(15);
        // 10 pages at level 10, 100 at level 5, 1000 at level 2.
        for _ in 0..10 {
            h.transition(0, 10);
        }
        for _ in 0..100 {
            h.transition(0, 5);
        }
        for _ in 0..1000 {
            h.transition(0, 2);
        }
        // Smallest level admitting <= capacity pages: only the 10 pages at
        // level 10 fit a capacity of 10, and level 6 is the first level
        // whose at-or-above population is exactly those 10 pages.
        assert_eq!(h.threshold_for(10, 1), 6);
        assert_eq!(h.threshold_for(110, 1), 3);
        assert_eq!(h.threshold_for(2000, 1), 1);
        // Capacity smaller than even the hottest bucket: threshold rises
        // past it, admitting nobody currently tracked.
        assert_eq!(h.threshold_for(5, 1), 11);
        assert_eq!(h.pages_at_or_above(11), 0);
    }

    /// The descending single-pass threshold scan equals the textbook
    /// ascending `pages_at_or_above` search for arbitrary populations,
    /// capacities, and minimums.
    #[test]
    fn threshold_single_pass_matches_reference_scan() {
        let reference = |h: &HotnessHistogram, cap: u64, min: u32| -> u32 {
            let min = min.max(1);
            for t in min..=h.max_level() {
                if h.pages_at_or_above(t) <= cap {
                    return t;
                }
            }
            h.max_level()
        };
        let mut h = HotnessHistogram::new(15);
        let mut state = 42u64;
        for round in 0..200 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(99);
            h.transition(0, (state >> 20) as u32 % 16);
            for cap in [0u64, 1, 3, 10, 50, 1_000] {
                for min in [0u32, 1, 2, 5, 14, 15, 20] {
                    assert_eq!(
                        h.threshold_for(cap, min),
                        reference(&h, cap, min),
                        "round {round} cap {cap} min {min}"
                    );
                }
            }
        }
    }

    #[test]
    fn threshold_respects_minimum() {
        let mut h = HotnessHistogram::new(15);
        h.transition(0, 2);
        assert_eq!(h.threshold_for(1_000_000, 3), 3);
    }

    #[test]
    #[should_panic(expected = "at least levels")]
    fn zero_levels_rejected() {
        let _ = HotnessHistogram::new(0);
    }
}
