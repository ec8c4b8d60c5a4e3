//! Adaptation experiments: Figure 4 and Table 3.
//!
//! The paper's protocol (§2.3.2, §6.3.1): run CacheLib until placement is in
//! steady state, change the popularity distribution so 2/3 of hot data turn
//! cold, and watch the median latency recover. Time is compressed ~1000×
//! relative to the paper (its 1800 s shift point becomes
//! [`Budget::shift_ns`] = 2 simulated seconds at [`Budget::paper`]), with
//! all policy time constants scaled consistently.

use tiering_mem::TierRatio;
use tiering_policies::PolicyKind;
use tiering_runner::{PolicySpec, Scenario, SweepRunner, TierSpec, WorkloadSpec};
use tiering_sim::adaptation_time_ns;
use tiering_workloads::{CacheLibConfig, CacheLibWorkload};

use super::{built, Budget};
use crate::{Cell, Figure, SEED};

/// Fraction of hot data turning cold at the shift (paper: 2/3).
pub const SHIFT_FRACTION: f64 = 2.0 / 3.0;

/// The shifted CacheLib workload (CDN or social graph) of every adaptation
/// run: uniform object sizes, no background churn — isolates the one-time
/// shift at `shift_ns`.
pub fn shifted_cachelib(cdn: bool, shift_ns: u64, seed: u64) -> CacheLibWorkload {
    let base = if cdn {
        CacheLibConfig::cdn().with_uniform_size(16 << 10)
    } else {
        CacheLibConfig::social_graph().with_uniform_size(512)
    };
    CacheLibWorkload::new(
        base.without_churn()
            .with_seed(seed)
            .with_shift(shift_ns, SHIFT_FRACTION),
    )
}

/// One shifted-CacheLib scenario (see [`shifted_cachelib`]).
fn shifted_scenario(budget: &Budget, kind: PolicyKind, cdn: bool, ratio: TierRatio) -> Scenario {
    let name = if cdn { "CDN" } else { "social" };
    let shift_ns = budget.shift_ns;
    Scenario::new(
        format!("{name}/{ratio}/{}", kind.label()),
        WorkloadSpec::custom(name, move |seed| {
            Box::new(shifted_cachelib(cdn, shift_ns, seed))
        }),
        PolicySpec::Kind(kind),
        TierSpec::Ratio(ratio),
        &budget.adaptation_config(),
        SEED,
    )
}

/// Figure 4: median-latency timeline for AutoNUMA, Memtis, and HybridTier on
/// CacheLib CDN across the distribution change. Paper shape: Memtis takes
/// ~1400 s to re-converge, HybridTier ~250 s, AutoNUMA never reaches their
/// level.
pub fn fig4(budget: &Budget) -> Figure {
    let mut fig = Figure::new("fig4", ["policy", "t_ns", "p50_ns", "mean_ns"]);
    let kinds = [
        PolicyKind::AutoNuma,
        PolicyKind::Memtis,
        PolicyKind::HybridTier,
    ];
    let sweep = SweepRunner::new(0).run(
        kinds
            .iter()
            .map(|&k| shifted_scenario(budget, k, true, TierRatio::OneTo16))
            .collect(),
    );
    for result in &sweep.results {
        let report = &result.report;
        for p in &report.timeline {
            fig.row(vec![
                Cell::label(&report.policy),
                Cell::int(p.t_ns),
                Cell::int(p.p50_ns),
                Cell::int(p.mean_ns),
            ]);
        }
        let adapt = adaptation_time_ns(&report.timeline, budget.shift_ns, 0.01, 3);
        fig.note(format!(
            "{:<12} steady mean {:>6} ns, adaptation {:>8}",
            report.policy,
            tiering_sim::steady_state_p50(&report.timeline, budget.shift_ns, 0.25).unwrap_or(0),
            match adapt {
                Some(ns) => format!("{:.2} s", ns as f64 / 1e9),
                None => "did not converge".to_string(),
            }
        ));
    }
    fig.note(format!(
        "(shift at {:.1} s; lower adaptation time is better)",
        budget.shift_ns as f64 / 1e9
    ));
    fig
}

/// Table 3: time to adapt (reach within 1% of steady-state median latency)
/// for Memtis vs HybridTier over CDN and social-graph at all three ratios.
/// Paper: HybridTier adapts 1.7–5.9× (avg 3.2×) faster.
pub fn table3(budget: &Budget) -> Figure {
    let mut fig = Figure::new("table3", ["workload", "ratio", "policy", "adapt_s"]);
    fig.note(format!(
        "{:<10} {:<6} {:>12} {:>12} {:>10}",
        "workload", "ratio", "Memtis", "HybridTier", "reduction"
    ));
    let kinds = [PolicyKind::Memtis, PolicyKind::HybridTier];
    let mut scenarios = Vec::new();
    for cdn in [true, false] {
        for ratio in TierRatio::ALL {
            for kind in kinds {
                scenarios.push(shifted_scenario(budget, kind, cdn, ratio));
            }
        }
    }
    let sweep = SweepRunner::new(0).run(scenarios);
    for cdn in [true, false] {
        let wname = if cdn { "CDN" } else { "social" };
        for ratio in TierRatio::ALL {
            let times = kinds.map(|kind| {
                let report = built(sweep.find(&format!("{wname}/{ratio}/{}", kind.label())));
                let t = adaptation_time_ns(&report.timeline, budget.shift_ns, 0.01, 3)
                    .map_or(f64::INFINITY, |ns| ns as f64 / 1e9);
                fig.row(vec![
                    Cell::label(wname),
                    Cell::label(ratio.to_string()),
                    Cell::label(&report.policy),
                    Cell::fixed(t, 2),
                ]);
                t
            });
            fig.note(format!(
                "{:<10} {:<6} {:>11.2}s {:>11.2}s {:>9.1}x",
                wname,
                ratio.to_string(),
                times[0],
                times[1],
                times[0] / times[1]
            ));
        }
    }
    fig
}
