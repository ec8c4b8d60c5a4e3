//! Diagnostic: trace a policy's placement dynamics through the Figure 4
//! adaptation scenario (development/tuning tool).
//!
//! Usage: `diag [hybridtier|memtis|autonuma|tpp|arc|twoq|neomem] [1:16|1:8|1:4]`
//! (defaults: `hybridtier 1:16`). Anything else is rejected with the usage
//! line and a non-zero exit before any simulation.

use std::process::ExitCode;

use tiering_mem::{PageId, PageSize, Tier, TierConfig, TierRatio, TieredMemory};
use tiering_policies::{build_policy, PolicyCtx, PolicyKind};
use tiering_trace::{AccessBatch, Sampler, Workload};
use tiering_workloads::{CacheLibConfig, CacheLibWorkload};

const USAGE: &str = "usage: diag [hybridtier|memtis|autonuma|tpp|arc|twoq|neomem] [1:16|1:8|1:4]";

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
    let shift_ns = 2_000_000_000;
    let mut workload = CacheLibWorkload::new(
        CacheLibConfig::cdn()
            .with_uniform_size(16 << 10)
            .without_churn()
            .with_seed(0xA5F0_5EED)
            .with_shift(shift_ns, 2.0 / 3.0),
    );
    let pages = workload.footprint_pages(PageSize::Base4K);
    let tier_cfg = TierConfig::for_footprint(pages, ratio, PageSize::Base4K);
    let mut policy = build_policy(kind, &tier_cfg);
    let mut mem = TieredMemory::new(tier_cfg);
    let mut sampler = Sampler::new(19);
    let mut ctx = PolicyCtx::new();
    let latency = tiering_mem::LatencyModel::default();

    // Track which pages were fast at the shift instant ("stale set") and how
    // quickly the policy flushes them.
    let mut stale: Vec<PageId> = Vec::new();

    let mut now = 0u64;
    let mut next_tick = 1_000_000u64;
    let mut next_report = 200_000_000u64;
    let mut batch = AccessBatch::new();
    let mut last = mem.stats();
    let (mut slow_hits, mut accesses, mut lat_sum, mut ops) = (0u64, 0u64, 0u64, 0u64);
    println!(
        "policy={} ratio={ratio} fast_cap={}",
        kind.label(),
        tier_cfg.fast_capacity_pages
    );
    println!(
        "{:>6} {:>9} {:>9} {:>7} {:>7} {:>10}",
        "t(s)", "mean(ns)", "slowfrac", "promo", "demo", "stale-left"
    );
    while now < 8_000_000_000 {
        batch.clear();
        if workload.fill_batch(now, 1, &mut batch) == 0 {
            break;
        }
        let (op, start, end) = batch.op_bounds(0);
        let mut op_ns = op.cpu_ns;
        for a in (start..end).map(|i| batch.access(i)) {
            let page = a.page(PageSize::Base4K);
            let tier = mem.ensure_mapped(page, policy.preferred_alloc_tier());
            accesses += 1;
            if tier == Tier::Slow {
                slow_hits += 1;
            }
            op_ns += latency.access_ns(tier);
            if policy.wants_access_hook() {
                op_ns += policy.on_access_batch(&[page], now, &mut mem, &mut ctx);
            }
            if let Some(s) = sampler.observe_full(&a, tier, now, PageSize::Base4K) {
                policy.on_sample_batch(&[s], &mut mem, &mut ctx);
            }
        }
        if now >= next_tick {
            policy.on_tick(now, &mut mem, &mut ctx);
            next_tick = now + 1_000_000;
        }
        ctx.drain();
        now += op_ns.max(1);
        lat_sum += op_ns;
        ops += 1;

        if stale.is_empty() && now >= shift_ns {
            stale = mem
                .iter_mapped()
                .filter(|&(_, t)| t == Tier::Fast)
                .map(|(p, _)| p)
                .collect();
        }
        if now >= next_report {
            let s = mem.stats();
            let stale_left = stale
                .iter()
                .filter(|&&p| mem.tier_of(p) == Some(Tier::Fast))
                .count();
            println!(
                "{:>6.1} {:>9} {:>9.3} {:>7} {:>7} {:>10}  {}",
                now as f64 / 1e9,
                lat_sum / ops.max(1),
                slow_hits as f64 / accesses.max(1) as f64,
                s.promotions - last.promotions,
                s.demotions - last.demotions,
                stale_left,
                policy.debug_state(),
            );
            last = s;
            (slow_hits, accesses, lat_sum, ops) = (0, 0, 0, 0);
            next_report += 200_000_000;
        }
    }
}
