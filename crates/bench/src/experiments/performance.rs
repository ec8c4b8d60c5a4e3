//! End-to-end performance sweeps: Figures 9, 10, 11, 12, 15, and 17.
//!
//! All sweeps run through the parallel scenario runner: every
//! (workload, ratio, policy) cell becomes a [`Scenario`], the whole matrix
//! executes across the machine's cores, and the rows are read from the
//! merged sweep report in the paper's row order. Seeds follow the legacy
//! protocol (one fixed seed for the whole figure) so regenerated numbers
//! stay comparable across PRs.

use tiering_mem::TierRatio;
use tiering_policies::{HybridTierConfig, HybridTierPolicy, PolicyKind};
use tiering_runner::{PolicySpec, Scenario, ScenarioMatrix, SweepRunner, TierSpec, WorkloadSpec};
use tiering_workloads::WorkloadId;

use super::{built, geomean, Budget};
use crate::{Cell, Figure, SEED};

/// Figure 9: CacheLib CDN + social-graph median latency and throughput for
/// all six systems at 1:16, 1:8, 1:4. Paper: HybridTier best or tied in all
/// but two cells; ~2× less fast-tier memory for equal performance.
pub fn fig9(budget: &Budget) -> Figure {
    let sweep = SweepRunner::new(0).run(
        ScenarioMatrix::new(budget.sweep_config(), SEED)
            .workloads([WorkloadId::CdnCacheLib, WorkloadId::SocialCacheLib])
            .ratios(TierRatio::ALL)
            .policies(PolicyKind::COMPARED)
            .fixed_seed()
            .build(),
    );
    let mut fig = Figure::new(
        "fig9",
        ["workload", "ratio", "policy", "p50_ns", "mops", "fast_hit"],
    );
    for id in [WorkloadId::CdnCacheLib, WorkloadId::SocialCacheLib] {
        for ratio in TierRatio::ALL {
            for kind in PolicyKind::COMPARED {
                let r = built(sweep.cell(id, ratio, kind));
                fig.row(vec![
                    Cell::label(id.label()),
                    Cell::label(ratio.to_string()),
                    Cell::label(&r.policy),
                    Cell::int(r.latency.p50_ns),
                    Cell::fixed(r.throughput_mops(), 3),
                    Cell::fixed(r.fast_hit_frac, 3),
                ]);
            }
        }
    }
    fig
}

/// The ten batch/throughput workloads of Figure 10.
const FIG10_WORKLOADS: [WorkloadId; 10] = [
    WorkloadId::BfsKron,
    WorkloadId::BfsUniform,
    WorkloadId::CcKron,
    WorkloadId::CcUniform,
    WorkloadId::PrKron,
    WorkloadId::PrUniform,
    WorkloadId::Bwaves,
    WorkloadId::Roms,
    WorkloadId::Silo,
    WorkloadId::Xgboost,
];

/// Figure 10: relative performance (runtime_TPP / runtime_X) for the GAP,
/// SPEC, Silo, and XGBoost workloads — the harness's biggest sweep
/// (180 simulations). Paper geomeans: HybridTier beats TPP 32%, AutoNUMA
/// 11%, Memtis 29%, ARC 50%, TwoQ 40%.
pub fn fig10(budget: &Budget) -> Figure {
    let sweep = SweepRunner::new(0).run(
        ScenarioMatrix::new(budget.sweep_config(), SEED)
            .workloads(FIG10_WORKLOADS)
            .ratios(TierRatio::ALL)
            .policies(PolicyKind::COMPARED)
            .fixed_seed()
            .build(),
    );
    let mut fig = Figure::new(
        "fig10",
        [
            "workload",
            "ratio",
            "policy",
            "runtime_s",
            "relative_to_tpp",
        ],
    );
    for id in FIG10_WORKLOADS {
        for ratio in TierRatio::ALL {
            let tpp = built(sweep.cell(id, ratio, PolicyKind::Tpp));
            for kind in PolicyKind::COMPARED {
                let r = built(sweep.cell(id, ratio, kind));
                fig.row(vec![
                    Cell::label(id.label()),
                    Cell::label(ratio.to_string()),
                    Cell::label(&r.policy),
                    Cell::fixed(r.runtime_s(), 4),
                    Cell::fixed(r.relative_performance(tpp), 3),
                ]);
            }
        }
    }
    fig.note("geomean relative performance (vs TPP):");
    for kind in PolicyKind::COMPARED {
        let rel = fig.values(&[("policy", kind.label())], "relative_to_tpp");
        fig.note(format!("  {:<12} {:.3}", kind.label(), geomean(&rel)));
    }
    fig
}

/// All 12 workloads (request-driven ones measured by throughput).
const ALL_WORKLOADS: [WorkloadId; 12] = WorkloadId::ALL;

/// Figure 11: HybridTier normalized against the all-fast-tier upper bound.
/// Paper: 14%, 9%, 6% slower at 1:16, 1:8, 1:4 on average.
pub fn fig11(budget: &Budget) -> Figure {
    // One AllFast bound plus the three ratio runs per workload.
    let config = budget.sweep_config();
    let mut scenarios = Vec::new();
    for id in ALL_WORKLOADS {
        scenarios.push(Scenario::suite(
            id,
            PolicyKind::AllFast,
            TierRatio::OneTo4,
            &config,
            SEED,
        ));
        for ratio in TierRatio::ALL {
            scenarios.push(Scenario::suite(
                id,
                PolicyKind::HybridTier,
                ratio,
                &config,
                SEED,
            ));
        }
    }
    let sweep = SweepRunner::new(0).run(scenarios);

    let mut fig = Figure::new("fig11", ["workload", "ratio", "relative_to_allfast"]);
    for id in ALL_WORKLOADS {
        let upper = built(sweep.cell(id, TierRatio::OneTo4, PolicyKind::AllFast));
        for ratio in TierRatio::ALL {
            let r = built(sweep.cell(id, ratio, PolicyKind::HybridTier));
            fig.row(vec![
                Cell::label(id.label()),
                Cell::label(ratio.to_string()),
                Cell::fixed(r.relative_performance(upper).min(1.0), 3),
            ]);
        }
    }
    fig.note("geomean fraction of all-fast performance:");
    for ratio in TierRatio::ALL {
        let rel = fig.values(&[("ratio", &ratio.to_string())], "relative_to_allfast");
        fig.note(format!("  {}: {:.3}", ratio, geomean(&rel)));
    }
    fig
}

/// Workloads with footprints large enough to hold >50 huge pages; the
/// scaled-down GAP graphs span too few 2 MiB pages to tier meaningfully
/// (the Figure 12 claim in `crates/bench/tests/paper_claims.rs` records
/// what this leaves out).
const FIG12_WORKLOADS: [WorkloadId; 6] = [
    WorkloadId::CdnCacheLib,
    WorkloadId::SocialCacheLib,
    WorkloadId::Bwaves,
    WorkloadId::Roms,
    WorkloadId::Silo,
    WorkloadId::Xgboost,
];

/// Figure 12: huge-page (2 MiB) performance of HybridTier relative to
/// Memtis. Paper: on par at 1:16, +9%/+11% at 1:8/1:4.
pub fn fig12(budget: &Budget) -> Figure {
    let sweep = SweepRunner::new(0).run(
        ScenarioMatrix::new(budget.sweep_config().with_huge_pages(), SEED)
            .workloads(FIG12_WORKLOADS)
            .ratios(TierRatio::ALL)
            .policies([PolicyKind::Memtis, PolicyKind::HybridTier])
            .fixed_seed()
            .build(),
    );
    let mut fig = Figure::new("fig12", ["workload", "ratio", "hybridtier_vs_memtis"]);
    for id in FIG12_WORKLOADS {
        for ratio in TierRatio::ALL {
            let memtis = built(sweep.cell(id, ratio, PolicyKind::Memtis));
            let ht = built(sweep.cell(id, ratio, PolicyKind::HybridTier));
            fig.row(vec![
                Cell::label(id.label()),
                Cell::label(ratio.to_string()),
                Cell::fixed(ht.relative_performance(memtis), 3),
            ]);
        }
    }
    fig.note("(>1 means HybridTier faster than Memtis under 2 MiB pages)");
    fig
}

/// Figure 15: contribution of the momentum tracker — HybridTier vs the
/// frequency-only ablation at 1:8. Paper: +8.5% on CacheLib and XGBoost,
/// parity on the small-hot-set GAP kernels.
pub fn fig15(budget: &Budget) -> Figure {
    let sweep = SweepRunner::new(0).run(
        ScenarioMatrix::new(budget.sweep_config(), SEED)
            .workloads(ALL_WORKLOADS)
            .ratios([TierRatio::OneTo8])
            .policies([PolicyKind::HybridTier, PolicyKind::HybridTierFreqOnly])
            .fixed_seed()
            .build(),
    );
    let mut fig = Figure::new("fig15", ["workload", "freq_only_relative_to_full"]);
    for id in ALL_WORKLOADS {
        let full = built(sweep.cell(id, TierRatio::OneTo8, PolicyKind::HybridTier));
        let freq_only = built(sweep.cell(id, TierRatio::OneTo8, PolicyKind::HybridTierFreqOnly));
        fig.row(vec![
            Cell::label(id.label()),
            Cell::fixed(freq_only.relative_performance(full), 3),
        ]);
    }
    fig.note("(<1 means the momentum tracker helps)");
    fig
}

/// Figure 17: momentum-threshold sensitivity on the CacheLib workloads —
/// custom-policy scenarios through the same parallel driver.
/// Paper: thresholds below 3 mispromote; beyond 3 little change.
pub fn fig17(budget: &Budget) -> Figure {
    let config = budget.sweep_config();
    let mut scenarios = Vec::new();
    for id in [WorkloadId::CdnCacheLib, WorkloadId::SocialCacheLib] {
        for threshold in 1..=6u32 {
            scenarios.push(Scenario::new(
                format!("{}/thr{}", id.label(), threshold),
                WorkloadSpec::Suite(id),
                PolicySpec::custom(format!("HybridTier(m={threshold})"), move |tier_cfg| {
                    let cfg = HybridTierConfig::scaled().with_momentum_threshold(threshold);
                    Box::new(HybridTierPolicy::new(cfg, tier_cfg))
                }),
                TierSpec::Ratio(TierRatio::OneTo16),
                &config,
                SEED,
            ));
        }
    }
    let sweep = SweepRunner::new(0).run(scenarios);

    let mut fig = Figure::new("fig17", ["workload", "threshold", "p50_ns", "mops"]);
    for id in [WorkloadId::CdnCacheLib, WorkloadId::SocialCacheLib] {
        for threshold in 1..=6u32 {
            let r = built(sweep.find(&format!("{}/thr{}", id.label(), threshold)));
            fig.row(vec![
                Cell::label(id.label()),
                Cell::int(threshold.into()),
                Cell::int(r.latency.p50_ns),
                Cell::fixed(r.throughput_mops(), 3),
            ]);
        }
    }
    fig
}
