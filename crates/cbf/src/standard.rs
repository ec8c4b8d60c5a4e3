//! The standard (unblocked) counting Bloom filter.

use crate::counters::CounterArray;
use crate::hash::{reduce, PageHasher};
use crate::sizing::CbfParams;
use crate::AccessCounter;

/// A textbook counting Bloom filter: `k` hash functions index anywhere in a
/// single array of `m` counters (paper §4.2, Figure 7).
///
/// `GET` returns the minimum of the `k` counters; `INCREMENT` applies the
/// *conservative update* rule, incrementing only the counters currently equal
/// to the minimum. Conservative update dominates plain increment-all for
/// count accuracy and is what the paper's Figure 7 illustrates (only the
/// minimum counters move).
///
/// Because the `k` indices are spread over the whole array, one operation
/// touches up to `k` distinct cache lines — the locality weakness that
/// motivates [`BlockedCbf`](crate::BlockedCbf) (paper §3.3).
#[derive(Debug, Clone)]
pub struct StandardCbf {
    counters: CounterArray,
    hasher: PageHasher,
    k: u32,
    base_addr: u64,
}

impl StandardCbf {
    /// Builds a filter from the given parameters.
    ///
    /// # Panics
    ///
    /// Panics if `params.k == 0` or `params.m == 0`.
    pub fn new(params: CbfParams) -> Self {
        assert!(params.k > 0, "k must be positive");
        assert!(params.m > 0, "m must be positive");
        Self {
            counters: CounterArray::new(params.m, params.width),
            hasher: PageHasher::new(params.seed),
            k: params.k,
            base_addr: params.base_addr,
        }
    }

    /// Number of counters in the filter.
    pub fn num_counters(&self) -> usize {
        self.counters.len()
    }

    /// Number of hash functions.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// The layout of `key`: its `k` counter indices, all from one
    /// `(h1, h2)` pair. Index `i` is `h1 + i·h2` reduced to the array,
    /// exactly [`PageHasher::probe`] without the per-probe rehash.
    #[inline]
    pub(crate) fn probes(&self, key: u64) -> impl Iterator<Item = usize> + Clone {
        let m = self.counters.len();
        let (h1, h2) = self.hasher.pair(key);
        (0..self.k as u64).map(move |i| reduce(h1.wrapping_add(i.wrapping_mul(h2)), m))
    }
}

impl AccessCounter for StandardCbf {
    fn increment(&mut self, key: u64) -> u32 {
        self.increment_with_prev(key).1
    }

    fn increment_with_prev(&mut self, key: u64) -> (u32, u32) {
        let probes = self.probes(key);
        let min = probes
            .clone()
            .map(|i| self.counters.get(i))
            .min()
            .expect("k > 0");
        if min >= self.counters.width().max_count() {
            return (min, min); // saturated
        }
        // Conservative update: bump only the counters at the minimum, in
        // probe order, so a duplicate index is bumped once.
        for i in probes {
            if self.counters.get(i) == min {
                self.counters.set(i, min + 1);
            }
        }
        (min, min + 1)
    }

    fn estimate(&self, key: u64) -> u32 {
        self.probes(key)
            .map(|i| self.counters.get(i))
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
        for i in self.probes(key) {
            out.push(self.base_addr + self.counters.line_offset(i));
        }
    }

    fn base_addr(&self) -> u64 {
        self.base_addr
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::CounterWidth;

    fn filter(cap: usize) -> StandardCbf {
        StandardCbf::new(CbfParams::for_capacity(cap, 4, 0.001, CounterWidth::W8))
    }

    #[test]
    fn counts_single_key_exactly() {
        let mut f = filter(1000);
        for expect in 1..=20 {
            assert_eq!(f.increment(42), expect);
        }
        assert_eq!(f.estimate(42), 20);
        assert_eq!(f.estimate(43), 0, "untouched key reads zero");
    }

    #[test]
    fn never_underestimates() {
        // The one-sided error guarantee: estimate >= true count (below cap).
        let mut f = filter(500);
        let mut truth = std::collections::HashMap::new();
        let mut state = 12345u64;
        for _ in 0..5_000 {
            state = crate::hash::splitmix64(state);
            let key = state % 400;
            f.increment(key);
            *truth.entry(key).or_insert(0u32) += 1;
        }
        let cap = CounterWidth::W8.max_count();
        for (&key, &count) in &truth {
            assert!(
                f.estimate(key) >= count.min(cap),
                "key {key}: estimate {} < truth {count}",
                f.estimate(key)
            );
        }
    }

    #[test]
    fn tracking_error_is_rare_at_design_load() {
        // At the designed capacity with p=0.001, overestimates should be rare.
        let mut f = StandardCbf::new(CbfParams::for_capacity(2_000, 4, 0.001, CounterWidth::W8));
        for key in 0..2_000u64 {
            f.increment(key);
        }
        let overestimated = (0..2_000u64).filter(|&k| f.estimate(k) > 1).count();
        assert!(
            overestimated < 20,
            "{overestimated} of 2000 keys overestimated (expected ~2)"
        );
    }

    #[test]
    fn saturates_at_width_cap() {
        let mut f = StandardCbf::new(CbfParams::for_capacity(100, 4, 0.001, CounterWidth::W4));
        for _ in 0..100 {
            f.increment(7);
        }
        assert_eq!(f.estimate(7), 15);
    }

    #[test]
    fn cool_halves_estimates() {
        let mut f = filter(1000);
        for _ in 0..10 {
            f.increment(1);
        }
        for _ in 0..5 {
            f.increment(2);
        }
        f.cool();
        assert_eq!(f.estimate(1), 5);
        assert_eq!(f.estimate(2), 2);
    }

    #[test]
    fn touched_lines_reports_up_to_k_lines() {
        let f = filter(100_000);
        let mut lines = Vec::new();
        f.touched_lines(0xABC, &mut lines);
        assert_eq!(lines.len(), 4);
        for &l in &lines {
            assert_eq!(l % 64, 0, "line addresses are 64B aligned");
            assert!(l >= f.base_addr());
        }
    }

    #[test]
    fn conservative_update_beats_increment_all() {
        // Construct heavy collision pressure and verify the estimate of a
        // cold key stays below what increment-all would produce.
        let mut f = StandardCbf::new(CbfParams {
            k: 4,
            m: 256,
            width: CounterWidth::W8,
            seed: 1,
            base_addr: 0,
        });
        for key in 0..1_000u64 {
            f.increment(key % 100);
        }
        // Total counter mass under conservative update must be <= k * inserts.
        let total: u64 = (0..256).map(|i| f.counters.get(i) as u64).sum();
        assert!(total < 4 * 1_000, "conservative update added {total} mass");
    }
}
