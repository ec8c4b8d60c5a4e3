//! Bloom-filter sizing formulas (paper §4.2).
//!
//! HybridTier sizes its filters from the target tracking-error probability
//! `p`, the number of hash functions `k`, and the expected number of tracked
//! elements `n` (the number of fast-tier pages):
//!
//! ```text
//! r = -k / ln(1 - exp(ln(p) / k))      counters per element
//! m = ceil(n * r)                      total counters
//! ```
//!
//! With the paper's defaults `k = 4`, `p = 0.001` this yields ≈ 20.4 counters
//! per element, i.e. ≈ 10.2 bytes per tracked page at 4 bits per counter.

use crate::counters::CounterWidth;

/// Computes `m`, the number of counters for a filter expected to hold `n`
/// elements with `k` hashes at false-positive rate `p`.
///
/// # Panics
///
/// Panics if `k == 0`, `n == 0`, or `p` is not in `(0, 1)`.
pub fn counters_for(n: usize, k: u32, p: f64) -> usize {
    assert!(k > 0, "k must be positive");
    assert!(n > 0, "n must be positive");
    assert!(p > 0.0 && p < 1.0, "p must be in (0, 1), got {p}");
    let r = -(k as f64) / (1.0 - (p.ln() / k as f64).exp()).ln();
    (n as f64 * r).ceil() as usize
}

/// Complete parameter set for constructing a CBF.
#[derive(Debug, Clone, PartialEq)]
pub struct CbfParams {
    /// Number of hash functions (paper default: 4).
    pub k: u32,
    /// Total number of counters in the filter.
    pub m: usize,
    /// Counter width (4-bit for base pages, 16-bit for huge pages).
    pub width: CounterWidth,
    /// Hash seed, fixed per experiment for reproducibility.
    pub seed: u64,
    /// Base virtual address of the filter's storage in the simulated address
    /// space (used for cache-miss attribution).
    pub base_addr: u64,
}

impl CbfParams {
    /// Sizes a filter for `capacity` expected elements at error rate `p`
    /// using [`counters_for`], with a default seed and base address.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`counters_for`].
    pub fn for_capacity(capacity: usize, k: u32, p: f64, width: CounterWidth) -> Self {
        Self {
            k,
            m: counters_for(capacity, k, p),
            width,
            seed: 0xC0FF_EE00,
            base_addr: 0x7000_0000_0000,
        }
    }

    /// Sizes a filter by its total metadata budget in bytes (used by the
    /// Table 5 accuracy-vs-size sweep).
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is too small to hold a single counter.
    pub fn for_budget_bytes(bytes: usize, k: u32, width: CounterWidth) -> Self {
        let m = bytes * 8 / width.bits() as usize;
        assert!(m > 0, "budget {bytes}B too small for any {width} counter");
        Self {
            k,
            m,
            width,
            seed: 0xC0FF_EE00,
            base_addr: 0x7000_0000_0000,
        }
    }

    /// Returns a copy with a different hash seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns a copy with a different base address.
    #[must_use]
    pub fn with_base_addr(mut self, base: u64) -> Self {
        self.base_addr = base;
        self
    }

    /// Returns a copy scaled to `1/divisor` of the counters, as HybridTier
    /// does for its momentum tracker (128× smaller than the frequency
    /// tracker, paper §4.2).
    #[cfg(test)]
    #[must_use]
    fn scaled_down(mut self, divisor: usize) -> Self {
        self.m = (self.m / divisor).max(self.width.counters_per_line());
        self
    }

    /// Bytes of counter storage this parameter set implies.
    pub fn storage_bytes(&self) -> usize {
        (self.m * self.width.bits() as usize).div_ceil(8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_parameters_give_about_20_counters_per_element() {
        // k=4, p=0.001 → r ≈ 20.41.
        let m = counters_for(1_000_000, 4, 0.001);
        let r = m as f64 / 1e6;
        assert!((20.0..21.0).contains(&r), "r = {r}");
    }

    #[test]
    fn lower_error_means_bigger_filter() {
        let loose = counters_for(10_000, 4, 0.01);
        let tight = counters_for(10_000, 4, 0.0001);
        assert!(tight > loose);
    }

    #[test]
    fn more_hashes_changes_ratio() {
        let k2 = counters_for(10_000, 2, 0.001);
        let k8 = counters_for(10_000, 8, 0.001);
        // At p=0.001 the optimum k is ~10; k=2 is far off and needs more
        // counters than k=8.
        assert!(k2 > k8, "k2={k2} k8={k8}");
    }

    #[test]
    #[should_panic(expected = "p must be in (0, 1)")]
    fn rejects_bad_probability() {
        counters_for(10, 4, 1.5);
    }

    #[test]
    fn budget_sizing_roundtrips() {
        let params = CbfParams::for_budget_bytes(64 << 10, 4, CounterWidth::W4);
        assert_eq!(params.m, (64 << 10) * 2); // 2 counters per byte at 4 bits
        assert_eq!(params.storage_bytes(), 64 << 10);
    }

    #[test]
    fn momentum_scaling_is_128x() {
        let freq = CbfParams::for_capacity(1_000_000, 4, 0.001, CounterWidth::W4);
        let mom = freq.clone().scaled_down(128);
        assert_eq!(mom.m, freq.m / 128);
        assert!(mom.storage_bytes() * 100 < freq.storage_bytes());
    }

    #[test]
    fn scaled_down_never_below_one_line() {
        let tiny = CbfParams::for_capacity(10, 4, 0.01, CounterWidth::W4).scaled_down(1 << 20);
        assert_eq!(tiny.m, CounterWidth::W4.counters_per_line());
    }
}
