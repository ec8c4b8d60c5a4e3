//! Cache-overhead experiments: Figures 5, 13, and 14.
//!
//! These enable full cache simulation: application and tiering-metadata
//! references share one L1+LLC hierarchy and every miss is attributed to its
//! source, the simulator analogue of the paper's per-thread `perf`
//! attribution (§6.3.3).

use cache_sim::{HierarchyStats, Source};
use tiering_mem::{PageSize, TierRatio};
use tiering_policies::PolicyKind;
use tiering_runner::{PolicySpec, Scenario, SweepRunner, TierSpec, WorkloadSpec};
use tiering_sim::{SimConfig, SimReport};
use tiering_workloads::{CacheLibConfig, CacheLibWorkload};

use super::Budget;
use crate::{Cell, Figure, SEED};

/// One cache-attributed CacheLib scenario of 600 000 ops at the given page
/// granularity.
fn cached_scenario(kind: PolicyKind, page_size: PageSize) -> Scenario {
    let mut cfg = SimConfig::default().with_max_ops(600_000).with_cache_sim();
    cfg.page_size = page_size;
    cfg.window_ns = 100_000_000;
    let suffix = match page_size {
        PageSize::Base4K => "4k",
        PageSize::Huge2M => "2m",
    };
    Scenario::new(
        format!("{}/{}", kind.label(), suffix),
        WorkloadSpec::custom("CDN", |seed| {
            Box::new(CacheLibWorkload::new(CacheLibConfig::cdn().with_seed(seed)))
        }),
        PolicySpec::Kind(kind),
        TierSpec::Ratio(TierRatio::OneTo4),
        &cfg,
        SEED,
    )
}

/// Runs a list of cache-attributed scenarios in parallel and returns their
/// reports in input order.
fn run_cached_sweep(scenarios: Vec<Scenario>) -> Vec<SimReport> {
    SweepRunner::new(0)
        .run(scenarios)
        .results
        .into_iter()
        .map(|r| r.report)
        .collect()
}

/// The cache statistics of a [`cached_scenario`] run.
fn cache_stats(report: &SimReport) -> HierarchyStats {
    report
        .cache
        .expect("`cached_scenario` turns the cache simulation on")
}

/// Figures 5 and 13: the per-window share of L1 and LLC misses caused by
/// `kind`'s tiering work under 4 KiB and 2 MiB pages, with the whole-run
/// shares as notes.
fn tiering_fractions(id: &'static str, kind: PolicyKind, name: &str) -> Figure {
    let mut fig = Figure::new(
        id,
        ["config", "t_ns", "l1_tiering_frac", "llc_tiering_frac"],
    );
    let reports = run_cached_sweep(vec![
        cached_scenario(kind, PageSize::Base4K),
        cached_scenario(kind, PageSize::Huge2M),
    ]);
    for (report, suffix) in reports.iter().zip(["4k", "2m"]) {
        let label = format!("{name}-{suffix}");
        for p in &report.cache_timeline {
            fig.row(vec![
                Cell::label(&label),
                Cell::int(p.t_ns),
                Cell::fixed(p.l1_tiering_frac, 3),
                Cell::fixed(p.llc_tiering_frac, 3),
            ]);
        }
        let stats = cache_stats(report);
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
    let reports = run_cached_sweep(
        kinds
            .iter()
            .map(|&k| cached_scenario(k, PageSize::Base4K))
            .collect(),
    );
    let mut baseline: Option<(u64, u64)> = None;
    for report in &reports {
        let stats = cache_stats(report);
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
