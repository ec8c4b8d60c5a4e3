//! Cache-overhead experiments: Figures 5, 13, and 14.
//!
//! These enable full cache simulation: application and tiering-metadata
//! references share one L1+LLC hierarchy and every miss is attributed to its
//! source, the simulator analogue of the paper's per-thread `perf`
//! attribution (§6.3.3).

use cache_sim::{HierarchyStats, LevelStats, Source};
use tiering_mem::{PageSize, TierConfig, TierRatio, TierTopology};
use tiering_policies::{build_policy, PolicyKind};
use tiering_runner::SweepRunner;
use tiering_sim::{LogHistogram, SimConfig, SimReport, SimRun};
use tiering_trace::Workload;
use tiering_workloads::{CacheLibConfig, CacheLibWorkload};

use super::Budget;
use crate::{Cell, Figure, SEED};

/// The cache-attributed run of these figures: 600 000 CDN CacheLib ops at
/// the given page granularity, 100 ms windows.
fn cached_config(page_size: PageSize) -> SimConfig {
    let mut cfg = SimConfig::default().with_max_ops(600_000).with_cache_sim();
    cfg.page_size = page_size;
    cfg.window_ns = 100_000_000;
    cfg
}

/// Runs `kind` over the CDN CacheLib workload at 1:4 under `cfg` (cache
/// simulation on), stepped one `cfg.window_ns` window at a time, and reads
/// the cache counters at every window end the clock passes — the way the
/// paper reads per-thread `perf` counters (§6.3.3). Returns each window as
/// `(end ns, tiering share of its L1 misses, same for the LLC)`, and the
/// run's report.
fn cache_windows(kind: PolicyKind, cfg: &SimConfig) -> (Vec<(u64, f64, f64)>, SimReport) {
    let mut workload = CacheLibWorkload::new(CacheLibConfig::cdn().with_seed(SEED));
    let pages = workload.footprint_pages(cfg.page_size);
    let tier_cfg = TierConfig::for_footprint(pages, TierRatio::OneTo4, cfg.page_size);
    let mut policy = build_policy(kind, &tier_cfg);
    let topology = TierTopology::two_tier(tier_cfg, &cfg.latency);
    let mut run = SimRun::new(cfg, topology, &*policy);
    // The tiering share of the misses a level took since `last`.
    let share = |now: &LevelStats, last: &LevelStats| {
        let tiering = now.by(Source::Tiering).misses - last.by(Source::Tiering).misses;
        let total = now.total_misses() - last.total_misses();
        if total == 0 {
            0.0
        } else {
            tiering as f64 / total as f64
        }
    };
    let mut windows = Vec::new();
    let mut last = HierarchyStats::default();
    let mut window_end = cfg.window_ns;
    while !run.finished() {
        run.run_until(&mut workload, policy.as_mut(), window_end);
        // One op can pass several window ends; the windows after the first
        // took no misses.
        while run.now_ns() >= window_end {
            let now = run
                .cache_stats()
                .expect("`cfg` turns the cache simulation on");
            windows.push((
                window_end,
                share(&now.l1, &last.l1),
                share(&now.llc, &last.llc),
            ));
            last = now;
            window_end += cfg.window_ns;
        }
    }
    let report = run.finish(workload.name(), &*policy, &mut LogHistogram::new());
    (windows, report)
}

/// Figures 5 and 13: the per-window share of L1 and LLC misses caused by
/// `kind`'s tiering work under 4 KiB and 2 MiB pages, with the whole-run
/// shares as notes.
fn tiering_fractions(id: &'static str, kind: PolicyKind, name: &str) -> Figure {
    let mut fig = Figure::new(
        id,
        ["config", "t_ns", "l1_tiering_frac", "llc_tiering_frac"],
    );
    let runs = SweepRunner::new(0).map(&[PageSize::Base4K, PageSize::Huge2M], |&page_size| {
        cache_windows(kind, &cached_config(page_size))
    });
    for ((windows, report), suffix) in runs.iter().zip(["4k", "2m"]) {
        let label = format!("{name}-{suffix}");
        for &(t_ns, l1, llc) in windows {
            fig.row(vec![
                Cell::label(&label),
                Cell::int(t_ns),
                Cell::fixed(l1, 3),
                Cell::fixed(llc, 3),
            ]);
        }
        let stats = report
            .cache
            .expect("`cached_config` turns the cache simulation on");
        fig.note(format!(
            "{label:<24} L1 misses from tiering: {:>5.1}%   LLC: {:>5.1}%",
            stats.l1.tiering_miss_fraction() * 100.0,
            stats.llc.tiering_miss_fraction() * 100.0
        ));
    }
    fig
}

/// Figure 5: cache misses caused by Memtis tiering activity as a fraction of
/// the system total, under 4 KiB and 2 MiB pages. Paper: ~9%/18% (L1/LLC)
/// regular, 13%/18% huge.
pub fn fig5(_: &Budget) -> Figure {
    tiering_fractions("fig5", PolicyKind::Memtis, "memtis")
}

/// Figure 13: same measurement for HybridTier. Paper: ~5% (4 KiB) and ~4%
/// (huge) of total misses — far below Memtis.
pub fn fig13(_: &Budget) -> Figure {
    tiering_fractions("fig13", PolicyKind::HybridTier, "hybridtier")
}

/// Figure 14: step-by-step reduction in tiering cache misses: Memtis →
/// HybridTier with a standard CBF → HybridTier with the blocked CBF.
/// Paper: standard CBF cuts misses 12–36%, blocking another 31–72%.
pub fn fig14(_: &Budget) -> Figure {
    let mut fig = Figure::new(
        "fig14",
        [
            "system",
            "l1_tiering_misses",
            "llc_tiering_misses",
            "l1_vs_memtis",
            "llc_vs_memtis",
        ],
    );
    let kinds = [
        PolicyKind::Memtis,
        PolicyKind::HybridTierUnblocked,
        PolicyKind::HybridTier,
    ];
    let cfg = cached_config(PageSize::Base4K);
    let runs = SweepRunner::new(0).map(&kinds, |&kind| cache_windows(kind, &cfg));
    let mut baseline: Option<(u64, u64)> = None;
    for (_, report) in &runs {
        let stats = report
            .cache
            .expect("`cached_config` turns the cache simulation on");
        let l1 = stats.l1.by(Source::Tiering).misses;
        let llc = stats.llc.by(Source::Tiering).misses;
        let (bl1, bllc) = *baseline.get_or_insert((l1.max(1), llc.max(1)));
        fig.row(vec![
            Cell::label(&report.policy),
            Cell::int(l1),
            Cell::int(llc),
            Cell::fixed(bl1 as f64 / l1.max(1) as f64, 3),
            Cell::fixed(bllc as f64 / llc.max(1) as f64, 3),
        ]);
    }
    fig.note("(ratios are miss reductions relative to Memtis; higher is better)");
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Stepping closes exactly the windows the engine's latency timeline
    /// closes: one cache window per full-window timeline point, same end.
    #[test]
    fn cache_windows_match_the_full_timeline_windows() {
        for page_size in [PageSize::Base4K, PageSize::Huge2M] {
            let mut cfg = cached_config(page_size).with_max_ops(60_000);
            cfg.window_ns = 5_000_000;
            let (windows, report) = cache_windows(PolicyKind::Memtis, &cfg);
            let stepped: Vec<u64> = windows.iter().map(|w| w.0).collect();
            let full: Vec<u64> = report
                .timeline
                .iter()
                .map(|p| p.t_ns)
                .filter(|t| t % cfg.window_ns == 0)
                .collect();
            assert!(stepped.len() >= 5, "{page_size:?}: {stepped:?}");
            assert_eq!(stepped, full, "{page_size:?}");
        }
    }
}
