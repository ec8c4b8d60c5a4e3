//! Metadata experiments: Figure 16 and Tables 4/5.

use std::io;
use std::path::Path;

use hybridtier_cbf::{
    AccessCounter, BlockedCbf, CbfParams, CounterWidth, DecisionOutcome, GroundTruthCounter,
};
use tiering_mem::{PageSize, TierConfig, TierRatio};
use tiering_policies::{build_policy, PolicyKind};
use tiering_sim::{SimConfig, COUNT_BUCKET_LABELS};
use tiering_trace::{AccessBatch, Sampler, Workload};
use tiering_workloads::{build_workload, WorkloadId};

use crate::output::{f3, print_header, CsvWriter};
use crate::SEED;

/// Figure 16: cumulative per-page sampled-access-count distributions for all
/// 12 workloads. Paper: social-graph has the largest ≥15 fraction; GAP
/// Kronecker workloads have ~94% of pages at count 0.
pub fn fig16(out: &Path) -> io::Result<()> {
    print_header("fig16", "access hotness distributions (12 workloads)");
    let mut csv = CsvWriter::create(out, "fig16")?;
    let mut header = vec!["workload".to_string()];
    header.extend(COUNT_BUCKET_LABELS.iter().map(|b| format!("cum_{b}")));
    csv.row(header)?;
    println!(
        "{:<9} {}",
        "workload",
        COUNT_BUCKET_LABELS.map(|b| format!("{b:>8}")).join(" ")
    );
    let mut cfg = SimConfig::default().with_max_ops(1_500_000);
    cfg.count_probe = true;
    // The paper's counts come from real PEBS rates, where most pages of
    // a hundreds-of-GB footprint are never sampled (GAP-Kronecker: 94%
    // at count 0). Use a proportionally sparse probe period so the
    // distribution reflects relative hotness rather than run length.
    cfg.sample_period = 499;
    let sweep = tiering_runner::SweepRunner::new(0).run(
        tiering_runner::ScenarioMatrix::new(cfg, SEED)
            .workloads(WorkloadId::ALL)
            .ratios([TierRatio::OneTo4])
            .policies([PolicyKind::FirstTouch])
            .fixed_seed()
            .build(),
    );
    for (id, result) in WorkloadId::ALL.iter().zip(&sweep.results) {
        let id = *id;
        let dist = result
            .report
            .count_distribution
            .clone()
            .expect("probe enabled");
        let cum = dist.cumulative_fractions();
        println!(
            "{:<9} {}",
            id.label(),
            cum.map(|c| format!("{c:>8.3}")).join(" ")
        );
        let mut row = vec![id.label().to_string()];
        row.extend(cum.iter().map(|c| f3(*c)));
        csv.row(row)?;
    }
    let path = csv.finish()?;
    println!("wrote {}", path.display());
    Ok(())
}

/// Table 4: tiering metadata size relative to total memory capacity.
/// Paper: Memtis constant at 0.39%; HybridTier 0.050%/0.097%/0.192% at
/// 1:16/1:8/1:4 (2.0–7.8× smaller).
pub fn table4(out: &Path) -> io::Result<()> {
    print_header("table4", "metadata size relative to total memory");
    let mut csv = CsvWriter::create(out, "table4")?;
    csv.row(["ratio", "memtis_frac", "hybridtier_frac", "reduction"])?;
    // Use a CDN-scale footprint; the fractions are size-independent for
    // Memtis and scale with the fast-tier share for HybridTier.
    // A footprint large enough that the small-scale CBF sizing floors do
    // not bind (the paper's server has millions of fast-tier pages).
    let pages = 1_000_000u64;
    println!(
        "{:<6} {:>10} {:>12} {:>10}",
        "ratio", "Memtis", "HybridTier", "reduction"
    );
    for ratio in TierRatio::ALL {
        let tier_cfg = TierConfig::for_footprint(pages, ratio, PageSize::Base4K);
        let total_bytes = tier_cfg.total_bytes() as f64;
        let memtis = build_policy(PolicyKind::Memtis, &tier_cfg).metadata_bytes() as f64;
        let ht = build_policy(PolicyKind::HybridTier, &tier_cfg).metadata_bytes() as f64;
        let (mf, hf) = (memtis / total_bytes, ht / total_bytes);
        println!(
            "{:<6} {:>9.3}% {:>11.3}% {:>9.1}x",
            ratio.to_string(),
            mf * 100.0,
            hf * 100.0,
            mf / hf
        );
        csv.row([
            ratio.to_string(),
            format!("{mf:.5}"),
            format!("{hf:.5}"),
            f3(mf / hf),
        ])?;
    }
    let path = csv.finish()?;
    println!("wrote {}", path.display());
    Ok(())
}

/// Table 5: accuracy of CBF-based migration decisions vs. an exact hash
/// table as CBF size shrinks. Paper (at 256–8 MB full scale):
/// 99.72% → 96.92%. Sizes here are scaled 512× with the footprints.
pub fn table5(out: &Path) -> io::Result<()> {
    print_header("table5", "CBF migration-decision accuracy vs size");
    let mut csv = CsvWriter::create(out, "table5")?;
    csv.row(["cbf_kib", "accuracy"])?;
    // Paper sizes {256,128,64,32,8} MB ÷ 512 → KiB.
    let sizes_kib = [512usize, 256, 128, 64, 16];
    let threshold = 4u32;

    // One pass of the CDN sample stream drives all filters plus the exact
    // ground truth, mirroring the paper's methodology ("we modify HybridTier
    // to maintain a hash table in addition to the CBF").
    let mut workload = build_workload(WorkloadId::CdnCacheLib, SEED);
    let mut filters: Vec<(usize, BlockedCbf, DecisionOutcome)> = sizes_kib
        .iter()
        .map(|&kib| {
            (
                kib,
                BlockedCbf::new(CbfParams::for_budget_bytes(kib << 10, 4, CounterWidth::W4)),
                DecisionOutcome::default(),
            )
        })
        .collect();
    let mut truth = GroundTruthCounter::new(CounterWidth::W4);
    let mut sampler = Sampler::new(19);
    let mut batch = AccessBatch::new();
    let mut ops = 0u64;
    let mut samples = 0u64;
    while ops < 1_200_000 {
        batch.clear();
        let n = workload.fill_batch(0, (1_200_000 - ops).min(64) as usize, &mut batch);
        if n == 0 {
            break;
        }
        ops += n as u64;
        for i in 0..batch.total_accesses() {
            let a = batch.access(i);
            if sampler.observe(&a).is_none() {
                continue;
            }
            samples += 1;
            let page = a.addr >> 12;
            let t = truth.increment(page);
            for (_, cbf, outcome) in &mut filters {
                let e = cbf.increment(page);
                outcome.record(e >= threshold, t >= threshold);
            }
            if samples.is_multiple_of(50_000) {
                truth.cool();
                for (_, cbf, _) in &mut filters {
                    cbf.cool();
                }
            }
        }
    }
    println!("{:<10} {:>10}", "CBF size", "accuracy");
    for (kib, _, outcome) in &filters {
        println!("{:>7}KiB {:>9.2}%", kib, outcome.accuracy() * 100.0);
        csv.row([kib.to_string(), format!("{:.4}", outcome.accuracy())])?;
    }
    println!("({samples} sampled decisions compared)");
    let path = csv.finish()?;
    println!("wrote {}", path.display());
    Ok(())
}
