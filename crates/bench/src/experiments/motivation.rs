//! Motivation figures: hotness churn (Figure 2) and the cooling-period
//! dilemma (Figure 3).

use std::io;
use std::path::Path;

use tiering_mem::PageSize;
use tiering_policies::ema_lag_series;
use tiering_sim::{RetentionConfig, SimConfig};
use tiering_trace::{AccessBatch, Sampler, Workload};
use tiering_workloads::{CacheLibConfig, CacheLibWorkload, WorkloadId};

use crate::output::{f3, print_header, CsvWriter};
use crate::SEED;

/// Figure 2: fraction of initially hot pages still hot over time, for
/// PageRank and XGBoost. Paper: "most pages are no longer hot after just 5
/// minutes" (PR > 90% decayed, XGBoost > 50%).
pub fn fig2(out: &Path) -> io::Result<()> {
    print_header("fig2", "hot-page retention over time");
    let mut csv = CsvWriter::create(out, "fig2")?;
    csv.row(["workload", "t_ns", "fraction_still_hot"])?;

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
        let series = report.retention.clone().expect("probe enabled");
        println!("{}:", report.workload);
        for &(t, frac) in &series {
            csv.row([report.workload.clone(), t.to_string(), f3(frac)])?;
        }
        if let Some(&(t_last, f_last)) = series.last() {
            println!(
                "  after {:.1}s (scaled minutes): {:.0}% of the initial hot set remains",
                t_last as f64 / 1e9,
                f_last * 100.0
            );
        }
    }
    let path = csv.finish()?;
    println!("wrote {}", path.display());
    Ok(())
}

/// Figure 3(a): a page accessed 50×/min for 10 minutes; its EMA score
/// (cooling ÷2 every 2 min) lags ~9 minutes behind the access stream.
pub fn fig3a(out: &Path) -> io::Result<()> {
    print_header("fig3a", "EMA lag on a pulsed page");
    let mut csv = CsvWriter::create(out, "fig3a")?;
    csv.row(["minute", "accesses_per_min", "ema_score"])?;
    let series = ema_lag_series(50, 10, 2, 25);
    let mut lag_minute = None;
    for (minute, &score) in series.iter().enumerate() {
        let rate = if minute < 10 { 50 } else { 0 };
        csv.row([minute.to_string(), rate.to_string(), score.to_string()])?;
        if minute >= 10 && score < 10 && lag_minute.is_none() {
            lag_minute = Some(minute);
        }
    }
    println!(
        "page went cold at minute 10; EMA score dropped below 10 at minute {} (paper: ~19)",
        lag_minute.unwrap_or(25)
    );
    let path = csv.finish()?;
    println!("wrote {}", path.display());
    Ok(())
}

/// Figure 3(b): the fraction of pages classified hot/warm/cold under
/// different cooling periods C. Lower C refreshes faster but starves the
/// histogram: hot/warm pages lose their accumulated counts.
pub fn fig3b(out: &Path) -> io::Result<()> {
    print_header("fig3b", "hotness classification vs cooling period");
    let mut csv = CsvWriter::create(out, "fig3b")?;
    csv.row([
        "cooling_period_samples",
        "hot_frac",
        "warm_frac",
        "cold_frac",
    ])?;

    // Paper sweeps C in {Inf, 25M, 10M, 5M, 2M} samples at full scale; the
    // sampled stream here is ~500× smaller.
    let periods: [(&str, u64); 5] = [
        ("Inf", u64::MAX),
        ("50k", 50_000),
        ("20k", 20_000),
        ("10k", 10_000),
        ("4k", 4_000),
    ];
    println!("{:<10} {:>8} {:>8} {:>8}", "C", "hot", "warm", "cold");
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
        let (h, w, c) = (
            hot as f64 / touched as f64,
            warm as f64 / touched as f64,
            cold as f64 / touched as f64,
        );
        println!("{label:<10} {h:>8.3} {w:>8.3} {c:>8.3}");
        csv.row([label.to_string(), f3(h), f3(w), f3(c)])?;
    }
    println!("(lower C loses hot/warm mass to cold — requirement 1 vs 2 tension)");
    let path = csv.finish()?;
    println!("wrote {}", path.display());
    Ok(())
}
