//! Hotness probes for the motivation/analysis figures.

use std::collections::HashSet;

use tiering_mem::PageId;

/// Per-page sampled-access-count distribution, bucketed exactly as the
/// paper's Figure 16 x-axis: 0, 1–3, 4–6, 7–9, 10–12, 13–14, 15 (counts
/// saturate at 15, matching the 4-bit counter argument of §6.4.2).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CountDistribution {
    /// Pages per bucket, in the Figure 16 bucket order.
    pub buckets: [u64; 7],
}

/// Bucket labels matching Figure 16.
pub const COUNT_BUCKET_LABELS: [&str; 7] = ["0", "1-3", "4-6", "7-9", "10-12", "13-14", "15"];

impl CountDistribution {
    /// Builds the distribution from saturating per-page counts, one per
    /// page of the address space (never-touched pages count 0).
    pub fn from_counts(counts: &[u8]) -> Self {
        let mut buckets = [0u64; 7];
        for &c in counts {
            let b = match c {
                0 => 0,
                1..=3 => 1,
                4..=6 => 2,
                7..=9 => 3,
                10..=12 => 4,
                13..=14 => 5,
                _ => 6,
            };
            buckets[b] += 1;
        }
        Self { buckets }
    }

    /// Total pages.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Cumulative fractions per bucket (the Figure 16 y-axis).
    pub fn cumulative_fractions(&self) -> [f64; 7] {
        let total = self.total().max(1) as f64;
        let mut acc = 0u64;
        let mut out = [0.0; 7];
        for (i, &b) in self.buckets.iter().enumerate() {
            acc += b;
            out[i] = acc as f64 / total;
        }
        out
    }

    /// Fraction of pages with saturated (≥15) counts — the paper's
    /// justification check for 4-bit counters (§6.4.2: "for all workloads
    /// except for social-graph, the fraction of pages with frequency ≥ 15 is
    /// less than 3%").
    pub fn saturated_fraction(&self) -> f64 {
        self.buckets[6] as f64 / self.total().max(1) as f64
    }
}

/// Configuration for the hot-set retention probe (paper Figure 2).
#[derive(Debug, Clone, Copy)]
pub struct RetentionConfig {
    /// Window length over which hotness is assessed.
    pub window_ns: u64,
    /// Minimum sampled accesses within a window for a page to count as hot.
    pub hot_min_samples: u32,
}

impl Default for RetentionConfig {
    fn default() -> Self {
        Self {
            window_ns: 2_000_000_000,
            hot_min_samples: 2,
        }
    }
}

/// Measures, per window, what fraction of the *initial* hot set is still
/// hot — the paper's Figure 2 ("the fraction of pages that were hot at time
/// 0 and remained hot over a certain time").
#[derive(Debug)]
pub struct RetentionProbe {
    config: RetentionConfig,
    window_counts: std::collections::HashMap<u64, u32>,
    initial_hot: Option<HashSet<u64>>,
    window_end_ns: u64,
    series: Vec<(u64, f64)>,
}

impl RetentionProbe {
    /// Creates the probe; the first window's hot set becomes the reference.
    pub fn new(config: RetentionConfig) -> Self {
        Self {
            window_end_ns: config.window_ns,
            config,
            window_counts: std::collections::HashMap::new(),
            initial_hot: None,
            series: Vec::new(),
        }
    }

    /// Records a sampled access at `now_ns`.
    pub fn record(&mut self, page: PageId, now_ns: u64) {
        while now_ns >= self.window_end_ns {
            self.roll_window();
        }
        *self.window_counts.entry(page.0).or_insert(0) += 1;
    }

    fn roll_window(&mut self) {
        let hot: HashSet<u64> = self
            .window_counts
            .iter()
            .filter(|&(_, &c)| c >= self.config.hot_min_samples)
            .map(|(&p, _)| p)
            .collect();
        match &self.initial_hot {
            None => {
                self.initial_hot = Some(hot);
                self.series.push((self.window_end_ns, 1.0));
            }
            Some(initial) => {
                let retained = initial.intersection(&hot).count();
                let frac = if initial.is_empty() {
                    0.0
                } else {
                    retained as f64 / initial.len() as f64
                };
                self.series.push((self.window_end_ns, frac));
            }
        }
        self.window_counts.clear();
        self.window_end_ns += self.config.window_ns;
    }

    /// Finalizes and returns the retention series.
    pub fn finish(mut self, now_ns: u64) -> Vec<(u64, f64)> {
        while now_ns >= self.window_end_ns {
            self.roll_window();
        }
        self.series
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distribution_buckets_match_figure16_axis() {
        let counts = vec![0u8, 0, 0, 0, 0, 0, 1, 3, 4, 6, 7, 9, 10, 12, 13, 14, 15, 15];
        let d = CountDistribution::from_counts(&counts);
        assert_eq!(d.buckets, [6, 2, 2, 2, 2, 2, 2]);
        assert_eq!(d.total(), counts.len() as u64, "one entry per page");
        let cum = d.cumulative_fractions();
        assert!((cum[6] - 1.0).abs() < 1e-12);
        assert!(cum.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn saturated_fraction() {
        let d = CountDistribution::from_counts(&[15, 15, 1, 2]);
        assert!((d.saturated_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn retention_full_when_hot_set_stable() {
        let mut p = RetentionProbe::new(RetentionConfig {
            window_ns: 100,
            hot_min_samples: 2,
        });
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
        let mut p = RetentionProbe::new(RetentionConfig {
            window_ns: 100,
            hot_min_samples: 2,
        });
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
        let mut p = RetentionProbe::new(RetentionConfig {
            window_ns: 100,
            hot_min_samples: 2,
        });
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
