//! Diagnostic: trace a policy's placement dynamics through the Figure 4 /
//! Table 3 adaptation run (development/tuning tool).
//!
//! The run is the CDN cell of `repro fig4` and `repro table3`: the same
//! shifted workload ([`shifted_cachelib`]), engine configuration
//! ([`adaptation_config`]) and seed ([`SEED`], the one the figure harness
//! seeds it with). Its [`SimRun`] is stepped to every 200 ms report
//! boundary (the shift instant is one of them), which does not change the
//! run, so every row describes the model the figure measures. Each row
//! covers the 200 ms since the previous one: mean op latency, the fraction
//! of accesses served below tier 0, promotions, demotions, how many of the
//! pages that were fast at the shift are still fast, and the policy's
//! [`debug_state`](tiering_policies::TieringPolicy::debug_state).
//!
//! Usage: `diag [hybridtier|memtis|autonuma|tpp|arc|twoq|neomem] [1:16|1:8|1:4]`
//! (defaults: `hybridtier 1:16`). Anything else is rejected with the usage
//! line and a non-zero exit before any simulation.

use std::process::ExitCode;

use hybridtier_bench::experiments::adaptation::{shifted_cachelib, SHIFT_NS};
use hybridtier_bench::{adaptation_config, SEED};
use tiering_mem::{PageId, Tier, TierConfig, TierRatio, TierTopology};
use tiering_policies::{build_policy, PolicyKind};
use tiering_sim::SimRun;
use tiering_trace::Workload;

const USAGE: &str = "usage: diag [hybridtier|memtis|autonuma|tpp|arc|twoq|neomem] [1:16|1:8|1:4]";

/// Simulated time between two report rows.
const REPORT_NS: u64 = 200_000_000;

fn parse_args(args: &[String]) -> Result<(PolicyKind, TierRatio), String> {
    let kind = match args.first().map(String::as_str) {
        None | Some("hybridtier") => PolicyKind::HybridTier,
        Some("memtis") => PolicyKind::Memtis,
        Some("autonuma") => PolicyKind::AutoNuma,
        Some("tpp") => PolicyKind::Tpp,
        Some("arc") => PolicyKind::Arc,
        Some("twoq") => PolicyKind::TwoQ,
        Some("neomem") => PolicyKind::NeoMem,
        Some(other) => return Err(format!("unknown policy '{other}'")),
    };
    let ratio = match args.get(1).map(String::as_str) {
        None | Some("1:16") => TierRatio::OneTo16,
        Some("1:8") => TierRatio::OneTo8,
        Some("1:4") => TierRatio::OneTo4,
        Some(other) => return Err(format!("unknown ratio '{other}'")),
    };
    match args.get(2) {
        Some(extra) => Err(format!("unexpected argument '{extra}'")),
        None => Ok((kind, ratio)),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Ok((kind, ratio)) => {
            trace_adaptation(kind, ratio);
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("diag: {msg}\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn trace_adaptation(kind: PolicyKind, ratio: TierRatio) {
    let config = adaptation_config();
    let mut workload = shifted_cachelib(true, SEED);
    let pages = workload.footprint_pages(config.page_size);
    let tier_cfg = TierConfig::for_footprint(pages, ratio, config.page_size);
    let mut policy = build_policy(kind, &tier_cfg);
    let topology = TierTopology::two_tier(tier_cfg, &config.latency);
    let mut run = SimRun::new(&config, topology, policy.as_ref());
    println!(
        "policy={} ratio={ratio} fast_cap={}",
        kind.label(),
        tier_cfg.fast_capacity_pages
    );
    println!(
        "{:>6} {:>9} {:>9} {:>7} {:>7} {:>10}",
        "t(s)", "mean(ns)", "slowfrac", "promo", "demo", "stale-left"
    );

    // Pages fast at the shift instant ("stale set"): how quickly does the
    // policy flush them?
    let mut stale: Vec<PageId> = Vec::new();
    let (mut now, mut ops, mut accesses, mut fast_hits) = (0, 0, 0, 0);
    let mut last = run.mem().stats();
    let mut report_at = REPORT_NS;
    while !run.finished() {
        run.run_until(&mut workload, policy.as_mut(), report_at);
        report_at += REPORT_NS;
        let mem = run.mem();
        if stale.is_empty() && run.now_ns() >= SHIFT_NS {
            stale = mem
                .iter_mapped()
                .filter(|&(_, t)| t == Tier::Fast)
                .map(|(p, _)| p)
                .collect();
        }
        let stats = mem.stats();
        let stale_left = stale
            .iter()
            .filter(|&&p| mem.tier_of(p) == Some(Tier::Fast))
            .count();
        let window_accesses = run.accesses() - accesses;
        println!(
            "{:>6.1} {:>9} {:>9.3} {:>7} {:>7} {:>10}  {}",
            run.now_ns() as f64 / 1e9,
            (run.now_ns() - now) / (run.ops() - ops).max(1),
            (window_accesses - (run.fast_hits() - fast_hits)) as f64
                / window_accesses.max(1) as f64,
            stats.promotions - last.promotions,
            stats.demotions - last.demotions,
            stale_left,
            policy.debug_state(),
        );
        (now, ops, accesses, fast_hits) =
            (run.now_ns(), run.ops(), run.accesses(), run.fast_hits());
        last = stats;
    }
}
