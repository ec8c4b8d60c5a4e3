//! Integration tests pinning the paper's qualitative claims — small-budget
//! versions of the headline experiments that must keep holding as the code
//! evolves.

use hybridtier::prelude::*;

/// Paper §3.2 / Table 4: HybridTier's metadata is several times smaller than
/// Memtis's 16 B/page, and the gap widens as the fast tier shrinks.
#[test]
fn metadata_reduction_and_scaling() {
    let footprint = 120_000u64;
    let mut reductions = Vec::new();
    for ratio in TierRatio::ALL {
        let cfg = TierConfig::for_footprint(footprint, ratio, PageSize::Base4K);
        let memtis = build_policy(PolicyKind::Memtis, &cfg).metadata_bytes();
        let ht = build_policy(PolicyKind::HybridTier, &cfg).metadata_bytes();
        assert!(
            ht * 2 < memtis,
            "{ratio}: HybridTier {ht}B vs Memtis {memtis}B"
        );
        reductions.push(memtis as f64 / ht as f64);
    }
    // Reduction is largest at 1:16 and shrinks toward 1:4 (paper: 7.8x→2.0x).
    assert!(
        reductions[0] > reductions[2],
        "reduction should shrink with bigger fast tiers: {reductions:?}"
    );
}

/// Paper §6.4.2 / Table 5: at the design size the CBF agrees with an exact
/// tracker on the overwhelming majority of migration decisions.
#[test]
fn cbf_migration_decision_accuracy() {
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    let zipf = hybridtier::workloads::ZipfDistribution::new(50_000, 0.99);
    let mut rng = SmallRng::seed_from_u64(13);
    let mut cbf = BlockedCbf::new(CbfParams::for_capacity(20_000, 4, 0.001, CounterWidth::W4));
    let mut exact = GroundTruthCounter::new(CounterWidth::W4);
    let threshold = 4;
    let mut outcome = hybridtier::cbf::DecisionOutcome::default();
    for i in 0..300_000u64 {
        let page = zipf.sample_rank(&mut rng) as u64;
        let c = cbf.increment(page);
        let e = exact.increment(page);
        outcome.record(c >= threshold, e >= threshold);
        if i % 100_000 == 99_999 {
            cbf.cool();
            exact.cool();
        }
    }
    assert!(
        outcome.accuracy() > 0.99,
        "design-size CBF accuracy {:.4} below 99%",
        outcome.accuracy()
    );
}

/// Paper Figure 3(a): the EMA score of a page that turned cold lags many
/// minutes behind — the motivation for momentum tracking.
#[test]
fn ema_lag_reproduces() {
    let series = hybridtier::policies::ema_lag_series(50, 10, 2, 30);
    let drop = series
        .iter()
        .position(|&s| s < 10)
        .expect("eventually cools");
    assert!(
        drop >= 15,
        "EMA stayed hot only until minute {drop}; paper shows ~19"
    );
}

/// Paper Figure 4 in miniature: after a hotness shift, HybridTier recovers
/// its fast-tier hit rate faster than a frequency-only system whose
/// demotions wait on cooling.
#[test]
fn hybridtier_adapts_faster_than_memtis() {
    let shift = 400_000_000u64;
    let run = |kind: PolicyKind| {
        let mut w = CacheLibWorkload::new(
            CacheLibConfig::cdn()
                .with_uniform_size(16 << 10)
                .without_churn()
                .with_seed(21)
                .with_shift(shift, 2.0 / 3.0),
        );
        let pages = w.footprint_pages(PageSize::Base4K);
        let tier_cfg = TierConfig::for_footprint(pages, TierRatio::OneTo16, PageSize::Base4K);
        let mut policy = build_policy(kind, &tier_cfg);
        let cfg = SimConfig {
            window_ns: 100_000_000,
            max_sim_ns: 3_000_000_000,
            ..SimConfig::default()
        };
        Engine::new(cfg).run(&mut w, policy.as_mut(), tier_cfg)
    };
    let ht = run(PolicyKind::HybridTier);
    let memtis = run(PolicyKind::Memtis);
    // Compare the mean latency integrated over the post-shift second: the
    // faster adapter accumulates less slow-tier time.
    let post_mean = |r: &SimReport| {
        let pts: Vec<u64> = r
            .timeline
            .iter()
            .filter(|p| p.t_ns > shift && p.t_ns <= shift + 1_000_000_000 && p.ops > 0)
            .map(|p| p.mean_ns)
            .collect();
        pts.iter().sum::<u64>() as f64 / pts.len().max(1) as f64
    };
    let (h, m) = (post_mean(&ht), post_mean(&memtis));
    assert!(
        h < m,
        "HybridTier post-shift mean {h:.0}ns should beat Memtis {m:.0}ns"
    );
}

/// Paper §6.1: ARC and TwoQ promote on first touch — under a one-time scan
/// they churn the fast tier far more than HybridTier does.
#[test]
fn scan_resistance_of_hybridtier() {
    let run = |kind: PolicyKind| {
        let mut w = SequentialScanWorkload::new(20_000, 2, 4096);
        let pages = w.footprint_pages(PageSize::Base4K);
        let tier_cfg = TierConfig::for_footprint(pages, TierRatio::OneTo8, PageSize::Base4K);
        let mut policy = build_policy(kind, &tier_cfg);
        Engine::new(SimConfig::default()).run(&mut w, policy.as_mut(), tier_cfg)
    };
    let ht = run(PolicyKind::HybridTier);
    let arc = run(PolicyKind::Arc);
    assert!(
        ht.migrations.promotions * 5 < arc.migrations.promotions.max(1),
        "scan: HybridTier promoted {} vs ARC {} — momentum threshold should \
         filter one-time accesses",
        ht.migrations.promotions,
        arc.migrations.promotions
    );
}

/// Blocked CBF touches one line per op; standard touches up to k — verified
/// end-to-end through the policy layer (paper Figure 14's mechanism).
#[test]
fn blocked_cbf_reduces_metadata_lines_through_policy() {
    let tier_cfg = TierConfig::for_footprint(50_000, TierRatio::OneTo8, PageSize::Base4K);
    let count_lines = |kind: PolicyKind| {
        let mut policy = build_policy(kind, &tier_cfg);
        let mut mem = TieredMemory::new(tier_cfg);
        let mut ctx = PolicyCtx::new();
        for i in 0..2_000u64 {
            mem.ensure_mapped(PageId(i), Tier::Slow);
        }
        for i in 0..2_000u64 {
            policy.on_sample_batch(
                &[Sample {
                    page: PageId(i),
                    addr: i << 12,
                    tier: Tier::Slow,
                    at_ns: i,
                    is_write: false,
                }],
                &mut mem,
                &mut ctx,
            );
        }
        ctx.metadata_lines.len()
    };
    let blocked = count_lines(PolicyKind::HybridTier);
    let standard = count_lines(PolicyKind::HybridTierUnblocked);
    assert!(
        blocked < standard,
        "blocked {blocked} lines vs standard {standard}"
    );
}
