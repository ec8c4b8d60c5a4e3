//! What Figures 2 and 16 read off the PEBS sample stream (paper §2): a
//! first-touch policy that folds every sample the engine hands to
//! [`TieringPolicy::on_sample_batch`] into a tally, plus the two tallies.

use std::collections::{HashMap, HashSet};

use tiering_mem::{PageId, TierConfig, TierRatio, TieredMemory};
use tiering_policies::{PolicyCtx, TieringPolicy};
use tiering_sim::{Engine, SimConfig, SimReport};
use tiering_trace::{Sample, Workload};

/// First-touch placement — `FirstTouchPolicy`'s name, default fast-tier
/// preference, no access hook and no metadata — that folds every sample it
/// ingests into `tally`.
struct SampleRecorder<T> {
    tally: T,
    fold: fn(&mut T, &Sample),
}

impl<T> TieringPolicy for SampleRecorder<T> {
    fn name(&self) -> &'static str {
        "FirstTouch"
    }

    fn on_sample_batch(&mut self, samples: &[Sample], _: &mut TieredMemory, _: &mut PolicyCtx) {
        for s in samples {
            (self.fold)(&mut self.tally, s);
        }
    }

    fn metadata_bytes(&self) -> usize {
        0
    }
}

/// Runs `workload` under first-touch placement at 1:4, folding every
/// sample into the tally `tally` builds from the run's address space
/// (pages). Returns the tally and the run's report.
pub(crate) fn record_samples<T>(
    workload: &mut dyn Workload,
    cfg: &SimConfig,
    tally: impl FnOnce(u64) -> T,
    fold: fn(&mut T, &Sample),
) -> (T, SimReport) {
    let pages = workload.footprint_pages(cfg.page_size);
    let tier_cfg = TierConfig::for_footprint(pages, TierRatio::OneTo4, cfg.page_size);
    let mut recorder = SampleRecorder {
        tally: tally(tier_cfg.address_space_pages),
        fold,
    };
    let report = Engine::new(cfg.clone()).run(workload, &mut recorder, tier_cfg);
    (recorder.tally, report)
}

/// Folds one sample into per-page counts that saturate at 15, the 4-bit
/// counter of paper §6.4.2.
#[allow(clippy::ptr_arg)] // a `record_samples` fold takes `&mut` of the tally
pub(crate) fn count_sample(counts: &mut Vec<u8>, s: &Sample) {
    let c = &mut counts[s.page.0 as usize];
    *c = (*c + 1).min(15);
}

/// The paper's Figure 16 x-axis.
pub(crate) const COUNT_BUCKET_LABELS: [&str; 7] =
    ["0", "1-3", "4-6", "7-9", "10-12", "13-14", "15"];

/// Pages per [`COUNT_BUCKET_LABELS`] bucket of saturating per-page counts,
/// one per page of the address space (never-touched pages count 0).
fn count_buckets(counts: &[u8]) -> [u64; 7] {
    let mut buckets = [0u64; 7];
    for &c in counts {
        buckets[match c {
            0 => 0,
            1..=3 => 1,
            4..=6 => 2,
            7..=9 => 3,
            10..=12 => 4,
            13..=14 => 5,
            _ => 6,
        }] += 1;
    }
    buckets
}

/// Cumulative page fraction per bucket (the Figure 16 y-axis).
pub(crate) fn cumulative_fractions(counts: &[u8]) -> [f64; 7] {
    let total = counts.len().max(1) as f64;
    let mut acc = 0u64;
    count_buckets(counts).map(|b| {
        acc += b;
        acc as f64 / total
    })
}

/// Measures, per window, what fraction of the *initial* hot set is still
/// hot — the paper's Figure 2 ("the fraction of pages that were hot at time
/// 0 and remained hot over a certain time").
#[derive(Debug)]
pub(crate) struct Retention {
    window_ns: u64,
    /// Sampled accesses within one window that make a page hot.
    hot_min_samples: u32,
    window_counts: HashMap<u64, u32>,
    initial_hot: Option<HashSet<u64>>,
    window_end_ns: u64,
    series: Vec<(u64, f64)>,
}

impl Retention {
    /// Windows of `window_ns`; the first window's hot set is the reference.
    pub(crate) fn new(window_ns: u64, hot_min_samples: u32) -> Self {
        Self {
            window_ns,
            hot_min_samples,
            window_counts: HashMap::new(),
            initial_hot: None,
            window_end_ns: window_ns,
            series: Vec::new(),
        }
    }

    /// Records a sampled access at `now_ns`.
    pub(crate) fn record(&mut self, page: PageId, now_ns: u64) {
        self.roll_to(now_ns);
        *self.window_counts.entry(page.0).or_insert(0) += 1;
    }

    /// Closes every window that ended by `now_ns`.
    fn roll_to(&mut self, now_ns: u64) {
        while now_ns >= self.window_end_ns {
            let hot: HashSet<u64> = self
                .window_counts
                .drain()
                .filter(|&(_, c)| c >= self.hot_min_samples)
                .map(|(p, _)| p)
                .collect();
            let frac = match &self.initial_hot {
                None => {
                    self.initial_hot = Some(hot);
                    1.0
                }
                Some(initial) if initial.is_empty() => 0.0,
                Some(initial) => initial.intersection(&hot).count() as f64 / initial.len() as f64,
            };
            self.series.push((self.window_end_ns, frac));
            self.window_end_ns += self.window_ns;
        }
    }

    /// Closes every window that ended by `now_ns` and returns the series:
    /// `(window end ns, fraction of the initial hot set still hot)`.
    pub(crate) fn finish(mut self, now_ns: u64) -> Vec<(u64, f64)> {
        self.roll_to(now_ns);
        self.series
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiering_mem::PageSize;
    use tiering_workloads::ZipfPageWorkload;

    /// The count buckets of a recorded Zipf run over `pages` pages.
    fn recorded_counts(pages: usize, ops: u64) -> ([u64; 7], SimReport) {
        let mut w = ZipfPageWorkload::new(pages, 0.99, ops, 3);
        let (counts, report) = record_samples(
            &mut w,
            &SimConfig::default(),
            |pages| vec![0; pages as usize],
            count_sample,
        );
        (count_buckets(&counts), report)
    }

    #[test]
    fn count_probe_distribution_sums_to_address_space() {
        let (d, _) = recorded_counts(500, 50_000);
        let w = ZipfPageWorkload::new(500, 0.99, 50_000, 3);
        assert_eq!(d.iter().sum::<u64>(), w.footprint_pages(PageSize::Base4K));
        assert!(d[6] > 0, "hottest zipf pages should saturate");
    }

    #[test]
    fn count_probe_counts_unmapped_pages_once() {
        // One access per op and fewer ops than pages: most of the address
        // space is never touched, so never mapped, and must still be
        // counted exactly once, in the 0 bucket.
        let (d, r) = recorded_counts(4_000, 1_000);
        let pages = ZipfPageWorkload::new(4_000, 0.99, 1_000, 3).footprint_pages(PageSize::Base4K);
        assert!(r.accesses < pages, "the run must leave pages unmapped");
        assert_eq!(d.iter().sum::<u64>(), pages);
        assert!(d[0] >= pages - r.accesses, "untouched pages count 0");
    }

    #[test]
    fn recorder_leaves_the_first_touch_run_unchanged() {
        let mut w = ZipfPageWorkload::new(2_000, 0.99, 50_000, 7);
        let cfg = SimConfig::default();
        let (seen, recorded) = record_samples(&mut w, &cfg, |_| 0u64, |n, _| *n += 1);
        let mut w = ZipfPageWorkload::new(2_000, 0.99, 50_000, 7);
        let pages = w.footprint_pages(PageSize::Base4K);
        let tier_cfg = TierConfig::for_footprint(pages, TierRatio::OneTo4, PageSize::Base4K);
        let plain = Engine::new(cfg).run(
            &mut w,
            &mut tiering_policies::FirstTouchPolicy::new(),
            tier_cfg,
        );
        assert_eq!(recorded, plain);
        assert_eq!(seen, plain.samples, "every delivered sample is folded");
    }

    #[test]
    fn distribution_buckets_match_figure16_axis() {
        let counts = vec![0u8, 0, 0, 0, 0, 0, 1, 3, 4, 6, 7, 9, 10, 12, 13, 14, 15, 15];
        assert_eq!(count_buckets(&counts), [6, 2, 2, 2, 2, 2, 2]);
        let cum = cumulative_fractions(&counts);
        assert!((cum[0] - 6.0 / 18.0).abs() < 1e-12);
        assert!((cum[6] - 1.0).abs() < 1e-12);
        assert!(cum.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn saturated_fraction() {
        // The paper's check for 4-bit counters (§6.4.2: "for all workloads
        // except for social-graph, the fraction of pages with frequency ≥
        // 15 is less than 3%") reads the last bucket.
        let cum = cumulative_fractions(&[15, 15, 1, 2]);
        assert!((1.0 - cum[5] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn retention_full_when_hot_set_stable() {
        let mut p = Retention::new(100, 2);
        // Pages 1 and 2 hot in every window.
        for w in 0..5u64 {
            for _ in 0..3 {
                p.record(PageId(1), w * 100 + 10);
                p.record(PageId(2), w * 100 + 10);
            }
        }
        let series = p.finish(500);
        assert_eq!(series.len(), 5);
        for &(_, frac) in &series {
            assert!((frac - 1.0).abs() < 1e-12, "stable hot set retains 100%");
        }
    }

    #[test]
    fn retention_decays_when_hot_set_shifts() {
        let mut p = Retention::new(100, 2);
        // Window 0: pages 0..10 hot. Later windows: pages 100.. hot.
        for pg in 0..10u64 {
            p.record(PageId(pg), 10);
            p.record(PageId(pg), 20);
        }
        for w in 1..4u64 {
            for pg in 100..110u64 {
                p.record(PageId(pg), w * 100 + 10);
                p.record(PageId(pg), w * 100 + 20);
            }
        }
        let series = p.finish(400);
        assert!((series[0].1 - 1.0).abs() < 1e-12);
        for &(_, frac) in &series[1..] {
            assert_eq!(frac, 0.0, "disjoint hot sets retain nothing");
        }
    }

    #[test]
    fn single_touch_pages_are_not_hot() {
        let mut p = Retention::new(100, 2);
        p.record(PageId(7), 10); // only once
        p.record(PageId(8), 20);
        p.record(PageId(8), 30);
        let series = p.finish(200);
        // Initial hot set = {8} only; second window empty → retention 0.
        assert_eq!(series.len(), 2);
        assert!((series[0].1 - 1.0).abs() < 1e-12);
        assert_eq!(series[1].1, 0.0);
    }
}
