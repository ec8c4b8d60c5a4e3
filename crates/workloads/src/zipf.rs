//! Zipfian popularity with re-rankable (shiftable) item assignment.

use std::sync::{Arc, OnceLock};

use rand::{Rng, SeedableRng};

use crate::memo::{memoized, Memo};

/// Bounds on the quantile-index fan-out accelerating
/// [`ZipfDistribution::sample_rank`]: `u`'s top bits select a precomputed
/// rank range, and the search runs only inside it. Pure search pruning —
/// the returned rank is identical to a whole-table `partition_point` for
/// *any* fan-out, so the count is a tuning knob.
///
/// The fan-out scales with the table ([`quantile_buckets`]) to keep the
/// residual search short — one or two cache lines — even for tables that
/// outgrow the LLC: the 220k-item social-graph CDF is 1.7 MiB, and at the
/// old fixed 4096-bucket fan-out every draw walked a ~54-entry
/// (seven-line) cold subrange, which dominated that workload's generation
/// cost. The index itself stays ≤ 256 KiB per memoized table.
const MIN_QUANTILE_BUCKETS: usize = 4096;
const MAX_QUANTILE_BUCKETS: usize = 65_536;

/// Entries [`ZipfDistribution::rank_for`] counts instead of searching:
/// a bucket of at most this many entries is resolved by one branch-free
/// count over `WINDOW` consecutive CDF values (one or two cache lines).
/// Buckets are uneven — the Zipf tail packs many entries into one — but
/// 93 % (CDN) and 85 % (social) of the CacheLib tables' buckets fit.
const WINDOW: usize = 8;

/// Quantile-index fan-out for an `n`-entry CDF: the next power of two
/// above `n/2`, clamped to the module bounds.
fn quantile_buckets(n: usize) -> usize {
    (n / 2)
        .next_power_of_two()
        .clamp(MIN_QUANTILE_BUCKETS, MAX_QUANTILE_BUCKETS)
}

/// The CDF (plus its quantile index) for one `(n, θ)`, shared across every
/// distribution instance with those parameters.
#[derive(Debug)]
struct ZipfTable {
    cdf: Vec<f64>,
    /// Quantile-index fan-out for this table ([`quantile_buckets`]).
    buckets: usize,
    /// `bucket_start[j]` = `partition_point` of `j / buckets` over `cdf`
    /// (one extra trailing entry pinning the end of the last bucket).
    bucket_start: Vec<u32>,
}

impl ZipfTable {
    fn build(n: usize, theta: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for r in 0..n {
            acc += 1.0 / ((r + 1) as f64).powf(theta);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        // Guard against floating-point residue keeping the last entry < 1.
        *cdf.last_mut().expect("n > 0") = 1.0;
        let buckets = quantile_buckets(n);
        let bucket_start = (0..=buckets)
            .map(|j| {
                let u = j as f64 / buckets as f64;
                cdf.partition_point(|&c| c < u) as u32
            })
            .collect();
        Self {
            cdf,
            buckets,
            bucket_start,
        }
    }
}

/// Process-wide table cache: sweeps build the same `(n, θ)` distribution
/// once per scenario (dozens of times per bench run); the 220k-entry CDF of
/// the Silo table alone costs milliseconds of `powf` per build. Sharing the
/// table is invisible to results — the cached values are the very f64s a
/// fresh build would produce.
fn table_for(n: usize, theta: f64) -> Arc<ZipfTable> {
    static TABLES: Memo<(usize, u64), Arc<ZipfTable>> = OnceLock::new();
    memoized(&TABLES, (n, theta.to_bits()), || {
        Arc::new(ZipfTable::build(n, theta))
    })
}

/// A Zipf(θ) distribution over ranks `0..n` (rank 0 most popular),
/// `P(rank r) ∝ 1 / (r + 1)^θ`.
///
/// Sampling inverts a precomputed CDF table — exact, and deterministic
/// given the caller's RNG: a quantile index narrows each draw to a bucket,
/// which is resolved by a fixed-window count (or, for the few wide tail
/// buckets, a binary search inside the bucket). Production
/// in-memory caches follow this shape with high skew (paper §2.2: "~80% of
/// accesses to Meta's object storage cache focus on the top 10% most popular
/// items").
///
/// The CDF is immutable and memoized process-wide by `(n, θ)` — see
/// `table_for` in this module — so repeated scenario builds in a sweep pay the `powf`
/// pass once, and a size-scaled quantile index (see `quantile_buckets`)
/// narrows each draw's search. Neither changes any sampled rank.
#[derive(Debug, Clone)]
pub struct ZipfDistribution {
    table: Arc<ZipfTable>,
}

impl ZipfDistribution {
    /// Builds the distribution for `n` items with exponent `theta`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `theta < 0`.
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n > 0, "need at least one item");
        assert!(theta >= 0.0, "theta must be non-negative");
        Self {
            table: table_for(n, theta),
        }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.table.cdf.len()
    }

    /// Whether the distribution is over zero items (never true; kept for
    /// API completeness).
    pub fn is_empty(&self) -> bool {
        self.table.cdf.is_empty()
    }

    /// Draws a rank in `0..n`.
    #[inline]
    pub fn sample_rank<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        self.rank_for(rng.gen())
    }

    /// The rank whose CDF interval contains `u` — the quantile-indexed
    /// equivalent of `cdf.partition_point(|c| c < u)` over the whole table.
    ///
    /// `u`'s top bits select a precomputed bucket `[lo, hi]`; monotonicity
    /// of the partition point in `u` pins the full-table answer inside it
    /// (including the answer-equals-hi case), so only that range is read.
    ///
    /// A bucket of at most [`WINDOW`] entries is resolved by counting the
    /// entries of `cdf[lo..lo + WINDOW]` below `u` — branch-free, no
    /// data-dependent loads. Entries past `hi` add nothing to the count:
    /// the bucket count is a power of two, so `j = ⌊u·buckets⌋` is exact
    /// and `u < (j+1)/buckets ≤ cdf[k]` for every `k ≥ hi` (for `u = 1`,
    /// the clamped last bucket, every such entry is `≥ 1`). Wider buckets,
    /// and a window that would run off the table's end, fall back to a
    /// binary search of `[lo, hi)`.
    #[inline]
    fn rank_for(&self, u: f64) -> usize {
        let cdf = &self.table.cdf;
        let buckets = self.table.buckets;
        let j = ((u * buckets as f64) as usize).min(buckets - 1);
        let lo = self.table.bucket_start[j] as usize;
        let hi = self.table.bucket_start[j + 1] as usize;
        let p = match cdf.get(lo..lo + WINDOW) {
            Some(window) if hi - lo <= WINDOW => {
                lo + window.iter().map(|&c| usize::from(c < u)).sum::<usize>()
            }
            _ => {
                #[cfg(test)]
                FALLBACK_SEARCHES.with(|n| n.set(n.get() + 1));
                lo + cdf[lo..hi].partition_point(|&c| c < u)
            }
        };
        p.min(cdf.len() - 1)
    }

    /// Probability mass of the top `k` ranks.
    #[cfg(test)]
    fn head_mass(&self, k: usize) -> f64 {
        if k == 0 {
            0.0
        } else {
            self.table.cdf[(k - 1).min(self.table.cdf.len() - 1)]
        }
    }

    /// Smallest number of top ranks whose combined mass reaches `mass`
    /// (all of them, [`len`](Self::len), for `mass ≥ 1`).
    fn ranks_for_mass(&self, mass: f64) -> usize {
        (self.table.cdf.partition_point(|&c| c < mass) + 1).min(self.len())
    }
}

#[cfg(test)]
thread_local! {
    /// Work meter: draws [`ZipfDistribution::rank_for`] resolved by binary
    /// search rather than the window count, on this thread.
    static FALLBACK_SEARCHES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// A Zipf distribution over *items* through a mutable rank→item permutation,
/// supporting hotness-distribution shifts.
///
/// This models the churn production caches report (paper §2.2: "50% of
/// popular objects are no longer popular after just 10 minutes"): a
/// [`shift`](ShiftableZipf::shift) re-assigns a fraction of the hot ranks to
/// previously cold items, so the *distribution shape* is unchanged but the
/// identity of the hot set moves — exactly the CacheLib experiment of paper
/// Figure 4, where at 1800 s "2/3 of previously hot data are no longer hot".
#[derive(Debug, Clone)]
pub struct ShiftableZipf {
    dist: ZipfDistribution,
    /// `item_of[rank]` = item id currently occupying that popularity rank.
    ///
    /// Shared (copy-on-write) so seed-memoized shuffles cost one `Arc`
    /// clone per workload build; the first [`shift`](Self::shift) detaches
    /// a private copy.
    item_of: Arc<Vec<u32>>,
}

impl ShiftableZipf {
    /// Creates the distribution with the identity rank→item assignment.
    ///
    /// Prefer [`shuffled_from_seed`](ShiftableZipf::shuffled_from_seed) for
    /// workload generation: with the identity assignment, item id
    /// correlates with popularity, so first-touch page placement
    /// accidentally captures the hot set.
    pub fn new(n: usize, theta: f64) -> Self {
        Self {
            dist: ZipfDistribution::new(n, theta),
            item_of: Arc::new((0..n as u32).collect()),
        }
    }

    /// Randomizes the rank→item assignment so hot items are scattered across
    /// the id (and therefore address) space, as in real caches.
    #[must_use]
    pub fn shuffled<R: Rng + ?Sized>(mut self, rng: &mut R) -> Self {
        let item_of = Arc::make_mut(&mut self.item_of);
        for i in (1..item_of.len()).rev() {
            let j = rng.gen_range(0..=i);
            item_of.swap(i, j);
        }
        self
    }

    /// [`shuffled`](Self::shuffled) driven by a fresh
    /// `SmallRng::seed_from_u64(seed)`, with the resulting permutation
    /// memoized process-wide by `(n, seed)`.
    ///
    /// Sweeps rebuild identically-seeded workloads once per (policy ×
    /// ratio) scenario; the 220k-element Fisher–Yates pass of the Silo
    /// table costs milliseconds per build, so reusing the permutation is a
    /// large fraction of scenario setup. The cached vector is bit-identical
    /// to what the uncached path produces (pinned by a unit test), and it
    /// is shared copy-on-write — shifts never leak between instances.
    #[must_use]
    pub fn shuffled_from_seed(n: usize, theta: f64, seed: u64) -> Self {
        static PERMS: Memo<(usize, u64), Arc<Vec<u32>>> = OnceLock::new();
        let item_of = memoized(&PERMS, (n, seed), || {
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
            Self::new(n, theta).shuffled(&mut rng).item_of
        });
        Self {
            dist: ZipfDistribution::new(n, theta),
            item_of,
        }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.item_of.len()
    }

    /// Whether there are zero items (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.item_of.is_empty()
    }

    /// Draws an item id.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u32 {
        self.item_of[self.dist.sample_rank(rng)]
    }

    /// Item currently at `rank`.
    pub(crate) fn item_at_rank(&self, rank: usize) -> u32 {
        self.item_of[rank]
    }

    /// The underlying rank distribution.
    pub(crate) fn distribution(&self) -> &ZipfDistribution {
        &self.dist
    }

    /// Re-assigns `fraction` of the hot ranks (the top ranks carrying 80% of
    /// the probability mass) to uniformly chosen items from the cold tail.
    ///
    /// Returns the number of ranks reassigned.
    pub fn shift<R: Rng + ?Sized>(&mut self, fraction: f64, rng: &mut R) -> usize {
        let n = self.item_of.len();
        if n < 2 {
            return 0;
        }
        let head = self.dist.ranks_for_mass(0.8).min(n - 1).max(1);
        let item_of = Arc::make_mut(&mut self.item_of);
        let mut moved = 0;
        for rank in 0..head {
            if rng.gen::<f64>() < fraction {
                // Swap with a random cold rank: the old hot item becomes
                // cold and a cold item inherits the hot rank.
                let cold = rng.gen_range(head..n);
                item_of.swap(rank, cold);
                moved += 1;
            }
        }
        moved
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// The quantile-indexed rank lookup must agree with a plain
    /// `partition_point` over the full CDF for every `u`, including bucket
    /// boundaries — the invariant that keeps the index a pure accelerator
    /// at every fan-out the size scaling produces (the chosen `n`s cover
    /// the clamp floor, the scaling region, and the clamp ceiling).
    #[test]
    fn quantile_index_matches_full_partition_point() {
        for &(n, theta) in &[
            (1usize, 0.99),
            (3, 2.5),
            (50, 0.0),
            (1000, 0.99),
            (9973, 1.2),
            (30_000, 0.9),
            (220_000, 0.9),
        ] {
            let d = ZipfDistribution::new(n, theta);
            let cdf = &d.table.cdf;
            let buckets = d.table.buckets;
            let check = |u: f64| {
                let want = cdf.partition_point(|&c| c < u).min(n - 1);
                assert_eq!(d.rank_for(u), want, "n={n} theta={theta} u={u}");
            };
            for i in 0..=(4 * buckets) {
                check(i as f64 / (4 * buckets) as f64);
            }
            // Values straddling every CDF entry.
            for &c in cdf.iter().take(n.min(500)) {
                check(c);
                check((c - 1e-12).max(0.0));
                check((c + 1e-12).min(1.0));
            }
            // The fallback path: one ulp either side of both edges of every
            // bucket wider than the window, and every entry inside it.
            let start = &d.table.bucket_start;
            for j in (0..buckets).filter(|&j| start[j + 1] - start[j] > WINDOW as u32) {
                for edge in [j, j + 1] {
                    let e = edge as f64 / buckets as f64;
                    check(e.next_down().max(0.0));
                    check(e);
                    check(e.next_up().min(1.0));
                }
                for &c in &cdf[start[j] as usize..start[j + 1] as usize] {
                    check(c.next_down());
                    check(c);
                }
            }
        }
    }

    /// Fallback-search meter: a draw falls back to the binary search
    /// exactly when its bucket is wider than [`WINDOW`], and that is rare
    /// on both CacheLib tables.
    #[test]
    fn fallback_searches_are_the_wide_bucket_draws() {
        for (n, theta, max_frac) in [(14_000, 0.99, 0.07), (220_000, 0.90, 0.16)] {
            let d = ZipfDistribution::new(n, theta);
            let t = &d.table;
            let mut rng = SmallRng::seed_from_u64(n as u64);
            let draws = 1_000_000;
            let before = FALLBACK_SEARCHES.with(|c| c.get());
            let mut wide = 0u64;
            for _ in 0..draws {
                let u: f64 = rng.gen();
                let j = (u * t.buckets as f64) as usize;
                wide += u64::from(t.bucket_start[j + 1] - t.bucket_start[j] > WINDOW as u32);
                d.rank_for(u);
            }
            let fallbacks = FALLBACK_SEARCHES.with(|c| c.get()) - before;
            assert_eq!(fallbacks, wide, "n={n}");
            assert!(
                (fallbacks as f64) <= max_frac * draws as f64,
                "n={n}: {fallbacks} fallbacks in {draws} draws"
            );
        }
    }

    /// All of the mass takes all of the ranks, not one more.
    #[test]
    fn ranks_for_mass_is_clamped_to_len() {
        let z = ZipfDistribution::new(1000, 0.9);
        assert_eq!(z.ranks_for_mass(1.0), 1000);
        assert_eq!(z.ranks_for_mass(1.5), 1000);
        assert_eq!(z.ranks_for_mass(f64::INFINITY), 1000);
        assert_eq!(ZipfDistribution::new(1, 0.9).ranks_for_mass(2.0), 1);
    }

    /// The fan-out scaling: `n/2` rounded up to a power of two, clamped.
    #[test]
    fn quantile_bucket_scaling() {
        assert_eq!(quantile_buckets(1), MIN_QUANTILE_BUCKETS);
        assert_eq!(quantile_buckets(8_192), MIN_QUANTILE_BUCKETS);
        assert_eq!(quantile_buckets(30_000), 16_384);
        assert_eq!(quantile_buckets(220_000), MAX_QUANTILE_BUCKETS);
        assert_eq!(quantile_buckets(10_000_000), MAX_QUANTILE_BUCKETS);
    }

    /// The seed-memoized shuffle is bit-identical to driving `shuffled`
    /// with a fresh `SmallRng` of the same seed, and instances share the
    /// permutation until one shifts (copy-on-write).
    #[test]
    fn shuffled_from_seed_matches_fresh_rng_and_is_cow() {
        let n = 5_000;
        let mut rng = SmallRng::seed_from_u64(0xBEEF);
        let plain = ShiftableZipf::new(n, 0.99).shuffled(&mut rng);
        let cached_a = ShiftableZipf::shuffled_from_seed(n, 0.99, 0xBEEF);
        let cached_b = ShiftableZipf::shuffled_from_seed(n, 0.99, 0xBEEF);
        for rank in 0..n {
            assert_eq!(plain.item_at_rank(rank), cached_a.item_at_rank(rank));
        }
        assert!(Arc::ptr_eq(&cached_a.item_of, &cached_b.item_of));
        // A shift detaches a private copy; the cached permutation and the
        // sibling instance are untouched.
        let mut shifted = cached_a.clone();
        let mut shift_rng = SmallRng::seed_from_u64(1);
        assert!(shifted.shift(0.9, &mut shift_rng) > 0);
        assert!(!Arc::ptr_eq(&shifted.item_of, &cached_b.item_of));
        let fresh = ShiftableZipf::shuffled_from_seed(n, 0.99, 0xBEEF);
        for rank in 0..n {
            assert_eq!(fresh.item_at_rank(rank), cached_b.item_at_rank(rank));
        }
    }

    /// Two distributions with the same parameters share one memoized table.
    #[test]
    fn tables_are_memoized() {
        let a = ZipfDistribution::new(777, 0.55);
        let b = ZipfDistribution::new(777, 0.55);
        assert!(Arc::ptr_eq(&a.table, &b.table));
        let c = ZipfDistribution::new(777, 0.56);
        assert!(!Arc::ptr_eq(&a.table, &c.table));
    }

    #[test]
    fn cdf_is_monotone_and_normalized() {
        let z = ZipfDistribution::new(1000, 0.99);
        let mut prev = 0.0;
        for r in 0..1000 {
            let c = z.head_mass(r + 1);
            assert!(c >= prev);
            prev = c;
        }
        assert!((z.head_mass(1000) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn high_skew_concentrates_mass() {
        // θ=0.99 over 100k items: top 10% should carry well over half the
        // mass (the Meta observation is ~80%).
        let z = ZipfDistribution::new(100_000, 0.99);
        let head = z.head_mass(10_000);
        assert!(head > 0.7, "top-10% mass {head}");
    }

    #[test]
    fn theta_zero_is_uniform() {
        let z = ZipfDistribution::new(10, 0.0);
        for k in 1..=10 {
            assert!((z.head_mass(k) - k as f64 / 10.0).abs() < 1e-9);
        }
    }

    #[test]
    fn sampling_matches_distribution() {
        let z = ZipfDistribution::new(100, 1.0);
        let mut rng = SmallRng::seed_from_u64(7);
        let mut counts = vec![0u32; 100];
        let draws = 200_000;
        for _ in 0..draws {
            counts[z.sample_rank(&mut rng)] += 1;
        }
        // Rank 0 should see ~ mass(0) fraction of draws.
        let expect0 = z.head_mass(1);
        let got0 = counts[0] as f64 / draws as f64;
        assert!(
            (got0 - expect0).abs() < 0.01,
            "got {got0}, expect {expect0}"
        );
        // Monotone-ish: rank 0 >> rank 50.
        assert!(counts[0] > counts[50] * 10);
    }

    #[test]
    fn ranks_for_mass_inverts_head_mass() {
        let z = ZipfDistribution::new(1000, 0.9);
        let k = z.ranks_for_mass(0.5);
        assert!(z.head_mass(k) >= 0.5);
        assert!(z.head_mass(k.saturating_sub(1)) < 0.5 || k == 1);
    }

    #[test]
    fn shift_moves_requested_fraction_of_hot_ranks() {
        let mut z = ShiftableZipf::new(10_000, 0.99);
        let before: Vec<u32> = (0..100).map(|r| z.item_at_rank(r)).collect();
        let mut rng = SmallRng::seed_from_u64(3);
        let moved = z.shift(2.0 / 3.0, &mut rng);
        assert!(moved > 0);
        let changed = (0..100).filter(|&r| z.item_at_rank(r) != before[r]).count();
        // Roughly 2/3 of the inspected head ranks changed identity.
        assert!(changed > 40, "only {changed}/100 head ranks changed");
    }

    #[test]
    fn shift_preserves_permutation() {
        let mut z = ShiftableZipf::new(1000, 0.99);
        let mut rng = SmallRng::seed_from_u64(4);
        z.shift(0.5, &mut rng);
        let mut items: Vec<u32> = (0..1000).map(|r| z.item_at_rank(r)).collect();
        items.sort_unstable();
        let expect: Vec<u32> = (0..1000).collect();
        assert_eq!(items, expect, "shift must remain a permutation");
    }

    #[test]
    fn shift_zero_fraction_is_noop() {
        let mut z = ShiftableZipf::new(100, 0.99);
        let before: Vec<u32> = (0..100).map(|r| z.item_at_rank(r)).collect();
        let mut rng = SmallRng::seed_from_u64(5);
        assert_eq!(z.shift(0.0, &mut rng), 0);
        let after: Vec<u32> = (0..100).map(|r| z.item_at_rank(r)).collect();
        assert_eq!(before, after);
    }
}
