//! Adaptation experiments: Figure 4 and Table 3.
//!
//! The paper's protocol (§2.3.2, §6.3.1): run CacheLib until placement is in
//! steady state, change the popularity distribution so 2/3 of hot data turn
//! cold, and watch the median latency recover. Time is compressed ~1000×
//! relative to the paper (its 1800 s shift point becomes 2 simulated
//! seconds), with all policy time constants scaled consistently.

use std::io;
use std::path::Path;

use tiering_mem::TierRatio;
use tiering_policies::PolicyKind;
use tiering_runner::{PolicySpec, Scenario, SweepRunner, TierSpec, WorkloadSpec};
use tiering_sim::adaptation_time_ns;
use tiering_workloads::{CacheLibConfig, CacheLibWorkload};

use crate::output::{print_header, CsvWriter};
use crate::{adaptation_config, SEED};

/// Simulated shift instant (paper: 1800 s).
pub const SHIFT_NS: u64 = 2_000_000_000;
/// Fraction of hot data turning cold at the shift (paper: 2/3).
pub const SHIFT_FRACTION: f64 = 2.0 / 3.0;

/// The shifted CacheLib workload (CDN or social graph) of every adaptation
/// run: uniform object sizes, no background churn — isolates the one-time
/// shift at [`SHIFT_NS`].
pub fn shifted_cachelib(cdn: bool, seed: u64) -> CacheLibWorkload {
    let base = if cdn {
        CacheLibConfig::cdn().with_uniform_size(16 << 10)
    } else {
        CacheLibConfig::social_graph().with_uniform_size(512)
    };
    CacheLibWorkload::new(
        base.without_churn()
            .with_seed(seed)
            .with_shift(SHIFT_NS, SHIFT_FRACTION),
    )
}

/// One shifted-CacheLib scenario (see [`shifted_cachelib`]).
fn shifted_scenario(kind: PolicyKind, cdn: bool, ratio: TierRatio) -> Scenario {
    let name = if cdn { "CDN" } else { "social" };
    Scenario::new(
        format!("{name}/{ratio}/{}", kind.label()),
        WorkloadSpec::custom(name, move |seed| Box::new(shifted_cachelib(cdn, seed))),
        PolicySpec::Kind(kind),
        TierSpec::Ratio(ratio),
        &adaptation_config(),
        SEED,
    )
}

/// Figure 4: median-latency timeline for AutoNUMA, Memtis, and HybridTier on
/// CacheLib CDN across the distribution change. Paper shape: Memtis takes
/// ~1400 s to re-converge, HybridTier ~250 s, AutoNUMA never reaches their
/// level.
pub fn fig4(out: &Path) -> io::Result<()> {
    print_header(
        "fig4",
        "adapting to a hotness distribution change (CDN, 1:16)",
    );
    let mut csv = CsvWriter::create(out, "fig4")?;
    csv.row(["policy", "t_ns", "p50_ns", "mean_ns"])?;
    let kinds = [
        PolicyKind::AutoNuma,
        PolicyKind::Memtis,
        PolicyKind::HybridTier,
    ];
    let sweep = SweepRunner::new(0).run(
        kinds
            .iter()
            .map(|&k| shifted_scenario(k, true, TierRatio::OneTo16))
            .collect(),
    );
    for result in &sweep.results {
        let report = &result.report;
        for p in &report.timeline {
            csv.row([
                report.policy.clone(),
                p.t_ns.to_string(),
                p.p50_ns.to_string(),
                p.mean_ns.to_string(),
            ])?;
        }
        let adapt = adaptation_time_ns(&report.timeline, SHIFT_NS, 0.01, 3);
        println!(
            "{:<12} steady mean {:>6} ns, adaptation {:>8}",
            report.policy,
            tiering_sim::steady_state_p50(&report.timeline, SHIFT_NS, 0.25).unwrap_or(0),
            match adapt {
                Some(ns) => format!("{:.2} s", ns as f64 / 1e9),
                None => "did not converge".to_string(),
            }
        );
    }
    println!(
        "(shift at {:.1} s; lower adaptation time is better)",
        SHIFT_NS as f64 / 1e9
    );
    let path = csv.finish()?;
    println!("wrote {}", path.display());
    Ok(())
}

/// Table 3: time to adapt (reach within 1% of steady-state median latency)
/// for Memtis vs HybridTier over CDN and social-graph at all three ratios.
/// Paper: HybridTier adapts 1.7–5.9× (avg 3.2×) faster.
pub fn table3(out: &Path) -> io::Result<()> {
    print_header("table3", "time to adapt to a new access distribution");
    let mut csv = CsvWriter::create(out, "table3")?;
    csv.row(["workload", "ratio", "policy", "adapt_s"])?;
    println!(
        "{:<10} {:<6} {:>12} {:>12} {:>10}",
        "workload", "ratio", "Memtis", "HybridTier", "reduction"
    );
    let mut scenarios = Vec::new();
    for cdn in [true, false] {
        for ratio in TierRatio::ALL {
            for kind in [PolicyKind::Memtis, PolicyKind::HybridTier] {
                scenarios.push(shifted_scenario(kind, cdn, ratio));
            }
        }
    }
    let sweep = SweepRunner::new(0).run(scenarios);
    for cdn in [true, false] {
        let wname = if cdn { "CDN" } else { "social" };
        for ratio in TierRatio::ALL {
            let mut times = [f64::NAN; 2];
            for (i, kind) in [PolicyKind::Memtis, PolicyKind::HybridTier]
                .iter()
                .enumerate()
            {
                let label = format!("{wname}/{ratio}/{}", kind.label());
                let report = &sweep.find(&label).expect("scenario present").report;
                let t = adaptation_time_ns(&report.timeline, SHIFT_NS, 0.01, 3)
                    .map(|ns| ns as f64 / 1e9);
                times[i] = t.unwrap_or(f64::INFINITY);
                csv.row([
                    wname.to_string(),
                    ratio.to_string(),
                    report.policy.clone(),
                    t.map_or("inf".into(), |v| format!("{v:.2}")),
                ])?;
            }
            let reduction = times[0] / times[1];
            println!(
                "{:<10} {:<6} {:>11.2}s {:>11.2}s {:>9.1}x",
                wname,
                ratio.to_string(),
                times[0],
                times[1],
                reduction
            );
        }
    }
    let path = csv.finish()?;
    println!("wrote {}", path.display());
    Ok(())
}
