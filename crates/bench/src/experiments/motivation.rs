//! Motivation figures: hotness churn (Figure 2) and the cooling-period
//! dilemma (Figure 3).

use tiering_mem::PageSize;
use tiering_policies::ema_lag_series;
use tiering_sim::{RetentionConfig, SimConfig};
use tiering_trace::{AccessBatch, Sampler, Workload};
use tiering_workloads::{CacheLibConfig, CacheLibWorkload, WorkloadId};

use super::Budget;
use crate::{Cell, Figure, SEED};

/// Figure 2: fraction of initially hot pages still hot over time, for
/// PageRank and XGBoost. Paper: "most pages are no longer hot after just 5
/// minutes" (PR > 90% decayed, XGBoost > 50%).
pub fn fig2(_: &Budget) -> Figure {
    let mut fig = Figure::new("fig2", ["workload", "t_ns", "fraction_still_hot"]);
    let mut cfg = SimConfig::default().with_max_ops(4_000_000);
    // Windows shorter than one kernel iteration/boosting round, so the
    // probe sees the hot set move through the data (the paper's minutes
    // compress to tens of milliseconds here).
    // One sample per window is already strong hotness evidence at the
    // scaled sampling density (period 19 vs. the paper's thousands).
    cfg.retention_probe = Some(RetentionConfig {
        window_ns: 100_000_000,
        hot_min_samples: 1,
    });
    let sweep = tiering_runner::SweepRunner::new(0).run(
        tiering_runner::ScenarioMatrix::new(cfg, SEED)
            .workloads([WorkloadId::PrKron, WorkloadId::Xgboost])
            .ratios([tiering_mem::TierRatio::OneTo4])
            .policies([tiering_policies::PolicyKind::FirstTouch])
            .fixed_seed()
            .build(),
    );
    for result in &sweep.results {
        let report = &result.report;
        let series = report
            .retention
            .as_ref()
            .expect("`cfg.retention_probe` is set above");
        for &(t, frac) in series {
            fig.row(vec![
                Cell::label(&report.workload),
                Cell::int(t),
                Cell::fixed(frac, 3),
            ]);
        }
        fig.note(format!("{}:", report.workload));
        if let Some(&(t_last, f_last)) = series.last() {
            fig.note(format!(
                "  after {:.1}s (scaled minutes): {:.0}% of the initial hot set remains",
                t_last as f64 / 1e9,
                f_last * 100.0
            ));
        }
    }
    fig
}

/// Figure 3(a): a page accessed 50×/min for 10 minutes; its EMA score
/// (cooling ÷2 every 2 min) lags ~9 minutes behind the access stream.
pub fn fig3a(_: &Budget) -> Figure {
    let mut fig = Figure::new("fig3a", ["minute", "accesses_per_min", "ema_score"]);
    let series = ema_lag_series(50, 10, 2, 25);
    let mut lag_minute = None;
    for (minute, &score) in series.iter().enumerate() {
        let rate = if minute < 10 { 50 } else { 0 };
        fig.row(vec![
            Cell::int(minute as u64),
            Cell::int(rate),
            Cell::int(score),
        ]);
        if minute >= 10 && score < 10 && lag_minute.is_none() {
            lag_minute = Some(minute);
        }
    }
    fig.note(format!(
        "page went cold at minute 10; EMA score dropped below 10 at minute {} (paper: ~19)",
        lag_minute.unwrap_or(25)
    ));
    fig
}

/// Figure 3(b): the fraction of pages classified hot/warm/cold under
/// different cooling periods C. Lower C refreshes faster but starves the
/// histogram: hot/warm pages lose their accumulated counts.
pub fn fig3b(_: &Budget) -> Figure {
    let mut fig = Figure::new(
        "fig3b",
        [
            "cooling_period_samples",
            "hot_frac",
            "warm_frac",
            "cold_frac",
        ],
    );
    // Paper sweeps C in {Inf, 25M, 10M, 5M, 2M} samples at full scale; the
    // sampled stream here is ~500× smaller.
    let periods: [(&str, u64); 5] = [
        ("Inf", u64::MAX),
        ("50k", 50_000),
        ("20k", 20_000),
        ("10k", 10_000),
        ("4k", 4_000),
    ];
    for (label, period) in periods {
        let mut workload =
            CacheLibWorkload::new(CacheLibConfig::cdn().without_churn().with_ops(1_500_000));
        let pages = workload.footprint_pages(PageSize::Base4K) as usize;
        let mut counts = vec![0u32; pages];
        let mut sampler = Sampler::new(19);
        let mut batch = AccessBatch::new();
        let mut samples = 0u64;
        while workload.fill_batch(0, 64, &mut batch) > 0 {
            for i in 0..batch.total_accesses() {
                let a = batch.access(i);
                if sampler.observe(&a).is_some() {
                    samples += 1;
                    counts[(a.addr >> 12) as usize] =
                        counts[(a.addr >> 12) as usize].saturating_add(1);
                    if period != u64::MAX && samples.is_multiple_of(period) {
                        for c in &mut counts {
                            *c /= 2;
                        }
                    }
                }
            }
            batch.clear();
        }
        let touched = counts.iter().filter(|&&c| c > 0).count().max(1);
        let hot = counts.iter().filter(|&&c| c >= 8).count();
        let warm = counts.iter().filter(|&&c| (2..8).contains(&c)).count();
        let cold = touched - hot - warm;
        fig.row(vec![
            Cell::label(label),
            Cell::fixed(hot as f64 / touched as f64, 3),
            Cell::fixed(warm as f64 / touched as f64, 3),
            Cell::fixed(cold as f64 / touched as f64, 3),
        ]);
    }
    fig.note("(lower C loses hot/warm mass to cold — requirement 1 vs 2 tension)");
    fig
}
