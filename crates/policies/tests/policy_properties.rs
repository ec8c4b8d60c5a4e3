//! Property-based tests over random sample streams: the invariants every
//! tiering policy must uphold regardless of input.

use proptest::prelude::*;
use tiering_mem::{PageId, PageSize, TierConfig, TierRatio, TieredMemory};
use tiering_policies::{build_policy, PolicyCtx, PolicyKind};
use tiering_trace::Sample;

fn sample_stream() -> impl Strategy<Value = Vec<(u64, bool)>> {
    // (page in a small space, is_write) pairs; heavy repetition arises
    // naturally from the small domain.
    prop::collection::vec((0u64..256, any::<bool>()), 1..600)
}

fn policies() -> impl Strategy<Value = PolicyKind> {
    prop_oneof![
        Just(PolicyKind::HybridTier),
        Just(PolicyKind::HybridTierFreqOnly),
        Just(PolicyKind::HybridTierUnblocked),
        Just(PolicyKind::Memtis),
        Just(PolicyKind::Arc),
        Just(PolicyKind::TwoQ),
    ]
}

fn run_stream(
    kind: PolicyKind,
    stream: &[(u64, bool)],
    tick_every: usize,
) -> (TieredMemory, PolicyCtx) {
    let cfg = TierConfig::for_footprint(256, TierRatio::OneTo8, PageSize::Base4K);
    let mut mem = TieredMemory::new(cfg);
    let mut policy = build_policy(kind, &cfg);
    let mut ctx = PolicyCtx::new();
    for (i, &(page, is_write)) in stream.iter().enumerate() {
        let tier = mem.ensure_mapped(PageId(page), policy.preferred_alloc_tier());
        let now = i as u64 * 10_000;
        if policy.wants_access_hook() {
            policy.on_access_batch(&[PageId(page)], now, &mut mem, &mut ctx);
        }
        policy.on_sample_batch(
            &[Sample {
                page: PageId(page),
                addr: page << 12,
                tier,
                at_ns: now,
                is_write,
            }],
            &mut mem,
            &mut ctx,
        );
        if (i + 1) % tick_every == 0 {
            policy.on_tick(now, &mut mem, &mut ctx);
        }
    }
    (mem, ctx)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Tier capacities are never exceeded, and page accounting is conserved,
    /// no matter what the policy does.
    #[test]
    fn capacity_invariants(kind in policies(), stream in sample_stream(), tick in 1usize..64) {
        let (mem, _) = run_stream(kind, &stream, tick);
        prop_assert!(mem.fast_used() <= mem.config().fast_capacity_pages);
        prop_assert!(mem.slow_used() <= mem.config().slow_capacity_pages);
        let mapped = mem.iter_mapped().count() as u64;
        prop_assert_eq!(mapped, mem.fast_used() + mem.slow_used());
        // Every page in the stream ended up mapped somewhere.
        for &(page, _) in &stream {
            prop_assert!(mem.tier_of(PageId(page)).is_some());
        }
    }

    /// Policies are deterministic: identical streams produce identical
    /// placements and migration counts.
    #[test]
    fn policy_determinism(kind in policies(), stream in sample_stream()) {
        let (a, _) = run_stream(kind, &stream, 16);
        let (b, _) = run_stream(kind, &stream, 16);
        prop_assert_eq!(a.stats(), b.stats());
        for &(page, _) in &stream {
            prop_assert_eq!(a.tier_of(PageId(page)), b.tier_of(PageId(page)));
        }
    }

    /// Migration counters are consistent with final placement: pages can
    /// only be fast if allocated fast or promoted, and the net flow adds up.
    #[test]
    fn migration_flow_conservation(kind in policies(), stream in sample_stream()) {
        let (mem, _) = run_stream(kind, &stream, 16);
        let s = mem.stats();
        let net_fast =
            s.allocated_fast as i64 + s.promotions as i64 - s.demotions as i64;
        prop_assert_eq!(net_fast, mem.fast_used() as i64, "fast-tier flow mismatch: {:?}", s);
        let net_slow =
            s.allocated_slow as i64 - s.promotions as i64 + s.demotions as i64;
        prop_assert_eq!(net_slow, mem.slow_used() as i64, "slow-tier flow mismatch: {:?}", s);
    }

    /// Metadata cache-line reports are well-formed: 64-byte aligned-ish
    /// addresses in the policies' reserved metadata regions, never in the
    /// application's address range.
    #[test]
    fn metadata_lines_outside_app_space(kind in policies(), stream in sample_stream()) {
        let cfg = TierConfig::for_footprint(256, TierRatio::OneTo8, PageSize::Base4K);
        let mut mem = TieredMemory::new(cfg);
        let mut policy = build_policy(kind, &cfg);
        let mut ctx = PolicyCtx::new();
        let app_top = 256u64 << 12;
        for (i, &(page, is_write)) in stream.iter().enumerate() {
            let tier = mem.ensure_mapped(PageId(page), policy.preferred_alloc_tier());
            policy.on_sample_batch(
                &[Sample { page: PageId(page), addr: page << 12, tier, at_ns: i as u64, is_write }],
                &mut mem,
                &mut ctx,
            );
            for &line in &ctx.metadata_lines {
                prop_assert!(line >= app_top, "metadata line {line:#x} aliases app memory");
            }
            ctx.drain();
        }
    }

    /// `metadata_bytes` is stable in the footprint (no unbounded growth
    /// from processing samples).
    #[test]
    fn metadata_bytes_bounded(kind in policies(), stream in sample_stream()) {
        let cfg = TierConfig::for_footprint(256, TierRatio::OneTo8, PageSize::Base4K);
        let mut mem = TieredMemory::new(cfg);
        let mut policy = build_policy(kind, &cfg);
        let before = policy.metadata_bytes();
        let mut ctx = PolicyCtx::new();
        for (i, &(page, is_write)) in stream.iter().enumerate() {
            let tier = mem.ensure_mapped(PageId(page), policy.preferred_alloc_tier());
            policy.on_sample_batch(
                &[Sample { page: PageId(page), addr: page << 12, tier, at_ns: i as u64, is_write }],
                &mut mem,
                &mut ctx,
            );
            ctx.drain();
        }
        let after = policy.metadata_bytes();
        // Allow bookkeeping growth (second-chance marks, queues) bounded by
        // a few dozen bytes per address-space page.
        prop_assert!(
            after <= before + 256 * 64,
            "metadata grew unboundedly: {before} -> {after}"
        );
    }
}
