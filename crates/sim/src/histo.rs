//! Log-bucketed latency histogram (HDR-style) for exact-enough percentiles
//! at O(1) record cost.

/// Number of sub-buckets per power of two (6 mantissa bits → ≤ 1.6% value
/// error, fine enough to resolve the 1% adaptation tolerance of Table 3).
const SUB_BITS: u32 = 6;
const SUB: u64 = 1 << SUB_BITS;

/// A histogram over `u64` nanosecond values with logarithmic bucketing.
///
/// Values below 64 get one bucket each; every power of two above that is
/// split into 64 sub-buckets, so the full `u64` range is `59 × 64 = 3 776`
/// buckets (30 KiB). The bucket vector is allocated only as far as the
/// largest value recorded (or merged in): an empty histogram owns no heap,
/// and one whose values stay below `2^k` ns (`k ≥ 6`) holds at most
/// `(k − 5) × 64` buckets — 2 KiB for sub-512 ns op latencies, which is
/// what keeps a fleet tenant's two histograms below its policy's CBF.
/// Buckets past the end read as zero, so every statistic is the one the
/// full-range array would give.
#[derive(Debug, Clone)]
pub struct LogHistogram {
    /// `buckets[i]` counts values with `bucket_of(v) == i`; the length is
    /// one past the highest bucket touched since the last `clear`.
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: Vec::new(),
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    #[inline]
    fn bucket_of(value: u64) -> usize {
        let v = value.max(1);
        if v < SUB {
            // Small values are represented exactly.
            return v as usize;
        }
        let exp = 63 - v.leading_zeros() as u64; // floor(log2 v), >= SUB_BITS
        let mantissa = (v >> (exp - SUB_BITS as u64)) & (SUB - 1);
        ((exp - SUB_BITS as u64 + 1) * SUB + mantissa) as usize
    }

    /// Representative (midpoint) value of bucket `idx`.
    fn bucket_value(idx: usize) -> u64 {
        if (idx as u64) < SUB {
            return idx as u64;
        }
        let exp = idx as u64 / SUB - 1 + SUB_BITS as u64;
        let mantissa = idx as u64 % SUB;
        (1 << exp) + (mantissa << (exp - SUB_BITS as u64)) + (1 << (exp - SUB_BITS as u64)) / 2
    }

    /// Records one value.
    #[inline]
    pub fn record(&mut self, value: u64) {
        let idx = Self::bucket_of(value);
        // The bounds check is the growth check.
        match self.buckets.get_mut(idx) {
            Some(c) => *c += 1,
            None => self.grow_and_count(idx),
        }
        self.count += 1;
        self.sum += value as u128;
        self.max = self.max.max(value);
    }

    /// `record`'s miss: extends the vector to bucket `idx` and counts the
    /// value there. Out of line, so the hit stays compare-and-increment.
    #[cold]
    #[inline(never)]
    fn grow_and_count(&mut self, idx: usize) {
        self.buckets.resize(idx + 1, 0);
        self.buckets[idx] = 1;
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean, 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Maximum recorded value.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Value at quantile `q` in `[0, 1]`; 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Self::bucket_value(idx).min(self.max);
            }
        }
        self.max
    }

    /// Median (p50).
    pub fn p50(&self) -> u64 {
        self.quantile(0.5)
    }

    /// Clears all recorded values (the allocation is kept for reuse).
    pub fn clear(&mut self) {
        self.buckets.clear();
        self.count = 0;
        self.sum = 0;
        self.max = 0;
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LogHistogram) {
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Buckets allocated (the footprint meters read this, not `len`).
    #[cfg(test)]
    pub(crate) fn allocated_buckets(&self) -> usize {
        self.buckets.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LatencySummary;

    /// The fixed-range histogram `LogHistogram` replaced, kept verbatim as
    /// the reference: all `64 × SUB` buckets allocated up front, its own
    /// copy of the bucket function and representative values.
    #[derive(Debug, Clone)]
    struct FixedHistogram {
        buckets: Vec<u64>,
        count: u64,
        sum: u128,
        max: u64,
    }

    impl FixedHistogram {
        fn new() -> Self {
            Self {
                buckets: vec![0; (64 * SUB) as usize],
                count: 0,
                sum: 0,
                max: 0,
            }
        }

        #[inline]
        fn bucket_of(value: u64) -> usize {
            let v = value.max(1);
            if v < SUB {
                // Small values are represented exactly.
                return v as usize;
            }
            let exp = 63 - v.leading_zeros() as u64; // floor(log2 v), >= SUB_BITS
            let mantissa = (v >> (exp - SUB_BITS as u64)) & (SUB - 1);
            ((exp - SUB_BITS as u64 + 1) * SUB + mantissa) as usize
        }

        /// Representative (midpoint) value of bucket `idx`.
        fn bucket_value(idx: usize) -> u64 {
            if (idx as u64) < SUB {
                return idx as u64;
            }
            let exp = idx as u64 / SUB - 1 + SUB_BITS as u64;
            let mantissa = idx as u64 % SUB;
            (1 << exp) + (mantissa << (exp - SUB_BITS as u64)) + (1 << (exp - SUB_BITS as u64)) / 2
        }

        #[inline]
        fn record(&mut self, value: u64) {
            self.buckets[Self::bucket_of(value)] += 1;
            self.count += 1;
            self.sum += value as u128;
            self.max = self.max.max(value);
        }

        fn count(&self) -> u64 {
            self.count
        }

        fn mean(&self) -> f64 {
            if self.count == 0 {
                0.0
            } else {
                self.sum as f64 / self.count as f64
            }
        }

        fn max(&self) -> u64 {
            self.max
        }

        fn quantile(&self, q: f64) -> u64 {
            if self.count == 0 {
                return 0;
            }
            let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
            let mut seen = 0u64;
            for (idx, &c) in self.buckets.iter().enumerate() {
                seen += c;
                if seen >= target {
                    return Self::bucket_value(idx).min(self.max);
                }
            }
            self.max
        }

        fn p50(&self) -> u64 {
            self.quantile(0.5)
        }

        fn clear(&mut self) {
            self.buckets.fill(0);
            self.count = 0;
            self.sum = 0;
            self.max = 0;
        }

        fn merge(&mut self, other: &FixedHistogram) {
            for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
                *a += b;
            }
            self.count += other.count;
            self.sum += other.sum;
            self.max = self.max.max(other.max);
        }
    }

    /// splitmix64: the seeded stream behind the differential tests.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// The O(1) observables, cheap enough to compare after every step.
    fn assert_same_totals(h: &LogHistogram, f: &FixedHistogram, step: usize) {
        assert_eq!(h.count(), f.count(), "count at step {step}");
        assert_eq!(h.max(), f.max(), "max at step {step}");
        assert_eq!(h.mean().to_bits(), f.mean().to_bits(), "mean at {step}");
    }

    /// Every observable of `h` equals the oracle's, bit for bit, and the
    /// allocated prefix is the oracle's array up to its last touched bucket.
    fn assert_same(h: &LogHistogram, f: &FixedHistogram, qs: &[f64], step: usize) {
        assert_same_totals(h, f, step);
        assert_eq!(h.p50(), f.p50(), "p50 at step {step}");
        for &q in qs {
            assert_eq!(h.quantile(q), f.quantile(q), "quantile({q}) at {step}");
        }
        let (head, tail) = f.buckets.split_at(h.buckets.len());
        assert_eq!(h.buckets, head, "bucket prefix at step {step}");
        assert!(tail.iter().all(|&c| c == 0), "unallocated tail at {step}");
        assert_eq!(
            LatencySummary::from_histogram(h),
            LatencySummary {
                p50_ns: f.p50(),
                p90_ns: f.quantile(0.9),
                p99_ns: f.quantile(0.99),
                mean_ns: f.mean(),
            },
            "summary at step {step}"
        );
    }

    /// 1.2 M seeded steps over four histogram pairs of different ranges:
    /// `record` on every edge value, `merge` in both length directions,
    /// `clear` and reuse, with the cheap observables compared after every
    /// step and the quantiles, bucket arrays and `LatencySummary` on a
    /// sample of them and at the end.
    #[test]
    fn range_sized_equals_fixed_oracle() {
        const STEPS: usize = 1_200_000;
        const EDGES: [u64; 10] = [
            0,
            1,
            63,
            64,
            (1 << 10) - 1,
            1 << 10,
            (1 << 10) + 1,
            u64::MAX - 1,
            u64::MAX,
            1 << 63,
        ];
        // Widest value each pair records itself (bits): op-latency-sized,
        // µs, ms and the full range, so merges meet operands of different
        // lengths.
        const BITS: [u32; 4] = [9, 14, 30, 64];
        let mut rng = Rng(0x5EED_0021);
        let mut pairs: Vec<(LogHistogram, FixedHistogram)> = (0..BITS.len())
            .map(|_| (LogHistogram::new(), FixedHistogram::new()))
            .collect();
        for (h, f) in &pairs {
            assert_same(h, f, &[0.0, 0.5, 1.0], 0);
        }
        let (mut grew, mut fit, mut cleared, mut reused) = (0u32, 0u32, 0u32, 0u32);
        let mut fresh = [true; BITS.len()];
        for step in 1..=STEPS {
            let i = rng.below(BITS.len() as u64) as usize;
            // Merging among the pairs doubles counts: past 2^40 the step
            // becomes a clear, long before `count` could wrap.
            let crowded = pairs[i].0.count() > 1 << 40;
            match rng.below(1000) {
                0..=2 if !crowded => {
                    let j = (i + 1 + rng.below(BITS.len() as u64 - 1) as usize) % BITS.len();
                    let (src_h, src_f) = pairs[j].clone();
                    if pairs[i].0.buckets.len() < src_h.buckets.len() {
                        grew += 1;
                    } else {
                        fit += 1;
                    }
                    pairs[i].0.merge(&src_h);
                    pairs[i].1.merge(&src_f);
                }
                0..=3 => {
                    pairs[i].0.clear();
                    pairs[i].1.clear();
                    cleared += 1;
                    fresh[i] = false;
                    assert_same(&pairs[i].0, &pairs[i].1, &[0.0, 0.5, 1.0], step);
                }
                r => {
                    let v = if r < 40 {
                        // Cut to the pair's width, so narrow pairs stay
                        // narrow (2^k − 1 and 0 are edges too).
                        EDGES[rng.below(EDGES.len() as u64) as usize] & (u64::MAX >> (64 - BITS[i]))
                    } else {
                        // Log-uniform below the pair's width.
                        let bits = 1 + rng.below(u64::from(BITS[i])) as u32;
                        rng.next() >> (64 - bits)
                    };
                    reused += u32::from(!fresh[i] && pairs[i].0.count() == 0);
                    pairs[i].0.record(v);
                    pairs[i].1.record(v);
                }
            }
            let (h, f) = &pairs[i];
            assert_same_totals(h, f, step);
            if rng.below(256) == 0 {
                let q = rng.below(1001) as f64 / 1000.0;
                assert_same(h, f, &[0.0, q, 0.9, 0.99, 1.0], step);
            }
        }
        for (h, f) in &pairs {
            assert_same(h, f, &[0.0, 0.001, 0.25, 0.75, 0.999, 1.0], STEPS);
        }
        assert!(grew > 100 && fit > 100, "merge directions: {grew} / {fit}");
        assert!(
            cleared > 100 && reused > 100,
            "clear/reuse: {cleared} / {reused}"
        );
    }

    /// The footprint meter: allocation follows the recorded range, exactly.
    #[test]
    fn allocation_follows_the_recorded_range() {
        assert_eq!(LogHistogram::new().allocated_buckets(), 0);
        let mut rng = Rng(0x5EED_0022);
        for k in 6..=64u32 {
            let bound = (k as usize - 5) * SUB as usize;
            // Largest value first: one allocation of exactly the bound.
            let mut h = LogHistogram::new();
            h.record(u64::MAX >> (64 - k));
            assert_eq!(h.buckets.len(), bound, "2^{k} - 1 fills the bound");
            assert_eq!(h.allocated_buckets(), bound, "k = {k}");
            // Any order: the length never passes the bound, and amortised
            // growth stays below twice it.
            let mut h = LogHistogram::new();
            for _ in 0..2_000 {
                let bits = 1 + rng.below(u64::from(k)) as u32;
                h.record(rng.next() >> (64 - bits));
                assert!(h.buckets.len() <= bound, "k = {k}");
                assert!(h.allocated_buckets() < 2 * bound, "k = {k}");
            }
            // `clear` keeps the allocation and drops the length; merging a
            // longer histogram in grows to it and no further.
            let held = h.allocated_buckets();
            let filled = h.clone();
            h.clear();
            assert_eq!((h.buckets.len(), h.allocated_buckets()), (0, held));
            let mut short = LogHistogram::new();
            short.record(1);
            short.merge(&filled);
            assert_eq!(short.buckets.len(), filled.buckets.len());
        }
        // Op latencies of the fleet's tail tenants (100–400 ns): ≤ 2 KiB.
        let mut h = LogHistogram::new();
        for v in 100..=400 {
            h.record(v);
        }
        assert!(h.buckets.len() <= 4 * SUB as usize);
    }

    #[test]
    fn empty_is_zero() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn single_value() {
        let mut h = LogHistogram::new();
        h.record(1000);
        let p50 = h.p50();
        assert!((900..=1100).contains(&p50), "p50 {p50} should be ~1000");
        assert_eq!(h.max(), 1000);
    }

    #[test]
    fn quantiles_of_uniform_ramp() {
        let mut h = LogHistogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let p50 = h.p50();
        let p90 = h.quantile(0.9);
        let p99 = h.quantile(0.99);
        assert!((4500..=5600).contains(&p50), "p50 {p50}");
        assert!((8200..=10_000).contains(&p90), "p90 {p90}");
        assert!(p99 >= p90 && p99 <= 10_000, "p99 {p99}");
        assert!((h.mean() - 5000.5).abs() < 1.0);
    }

    #[test]
    fn bucket_error_is_bounded() {
        // Every value's bucket representative is within 2 % (64 sub-buckets
        // per power of two: ≤ 1/128 of the value, plus midpoint rounding).
        for v in [1u64, 7, 63, 64, 100, 1000, 123_456, 1 << 40] {
            let idx = LogHistogram::bucket_of(v);
            let rep = LogHistogram::bucket_value(idx);
            let err = (rep as f64 - v as f64).abs() / v as f64;
            assert!(err <= 0.02, "value {v} rep {rep} err {err}");
        }
    }

    #[test]
    fn merge_combines() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        for v in 1..=100u64 {
            a.record(v);
        }
        for v in 901..=1000u64 {
            b.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), 200);
        let p50 = a.p50();
        assert!(
            (64..=512).contains(&p50),
            "p50 {p50} should sit between ranges"
        );
    }

    #[test]
    fn clear_resets() {
        let mut h = LogHistogram::new();
        h.record(5);
        h.clear();
        assert_eq!(h.count(), 0);
        assert_eq!(h.p50(), 0);
    }

    #[test]
    fn monotone_quantiles() {
        let mut h = LogHistogram::new();
        let mut x = 12345u64;
        for _ in 0..10_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            h.record((x >> 33) % 1_000_000);
        }
        let mut prev = 0;
        for q in [0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let v = h.quantile(q);
            assert!(v >= prev, "quantile({q}) = {v} < {prev}");
            prev = v;
        }
    }
}
