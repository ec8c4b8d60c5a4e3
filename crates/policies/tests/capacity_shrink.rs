//! Cross-policy behaviour after an in-flight fast-tier resize.
//!
//! The global controller (paper §7) re-partitions the physical fast tier
//! between tenants at runtime by calling `set_fast_capacity` — in both
//! directions. After a shrink *below* a tenant's current fast-tier
//! occupancy, every policy must drain the excess through its own demotion
//! machinery (watermark scans for the kernel-style policies, replacement
//! for the cache-style ones) until residency fits the new quota. After a
//! grow, a policy whose hot set outsizes the old quota must fill the new
//! room: one that kept a copy of the old capacity stays pinned at it. These
//! tests pin both contracts for all six compared policies plus NeoMem, on
//! the 2-tier testbed and on a 3-tier ladder.
//!
//! The post-shrink stream shifts its hot set to the other half of the
//! address space: the pages holding the old quota really are cold, so a
//! policy that fails here is sitting on dead residency, not protecting a
//! live working set. Memtis runs with a cooling period scaled to the test's
//! stream length (its default is sized for full-scale 2M-sample runs);
//! frequency-based demotion cannot trigger at all before the first cooling
//! pass, which would make the test a statement about constants, not
//! behavior.

use tiering_mem::{PageId, PageSize, TierConfig, TierRatio, TierTopology, TieredMemory};
use tiering_policies::{
    build_policy, MemtisConfig, MemtisPolicy, PolicyCtx, PolicyKind, TieringPolicy,
};
use tiering_trace::Sample;

/// Deterministic LCG (Numerical Recipes constants).
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// Builds the policy under test. Everything uses the crate defaults except
/// Memtis, whose cooling period is rescaled from its full-scale default
/// (2M samples at paper scale) to the length of this test's streams.
fn make_policy(kind: PolicyKind, cfg: &TierConfig) -> Box<dyn TieringPolicy> {
    match kind {
        PolicyKind::Memtis => Box::new(MemtisPolicy::new(
            MemtisConfig {
                cool_samples: 4_000,
            },
            cfg,
        )),
        _ => build_policy(kind, cfg),
    }
}

/// Drives `events` skewed accesses through the full policy surface
/// (ensure_mapped, access hook, sample, periodic tick), starting the clock
/// at `start_ns`. Accesses stay inside `lo..hi` and are skewed toward `lo`,
/// so two phases over disjoint ranges have strictly disjoint footprints —
/// phase-one pages receive *zero* accesses in phase two. Returns the
/// advanced clock.
#[allow(clippy::too_many_arguments)]
fn drive(
    policy: &mut dyn TieringPolicy,
    mem: &mut TieredMemory,
    ctx: &mut PolicyCtx,
    events: u64,
    seed: u64,
    lo: u64,
    hi: u64,
    start_ns: u64,
) -> u64 {
    let span = hi - lo;
    let mut state = seed | 1;
    let mut now = start_ns;
    for i in 0..events {
        // min of two draws skews the stream toward low offsets, giving
        // every policy a stable hot set to promote.
        let off = (lcg(&mut state) % span).min(lcg(&mut state) % span);
        let page = PageId(lo + off);
        now += 10_000;
        let tier = mem.ensure_mapped(page, policy.preferred_alloc_tier());
        if policy.wants_access_hook() {
            policy.on_access_batch(&[page], now, mem, ctx);
        }
        policy.on_sample_batch(
            &[Sample {
                page,
                addr: page.0 << 12,
                tier,
                at_ns: now,
                is_write: i % 4 == 0,
            }],
            mem,
            ctx,
        );
        if (i + 1) % 16 == 0 {
            policy.on_tick(now, mem, ctx);
        }
    }
    now
}

const KINDS: [PolicyKind; 7] = [
    PolicyKind::Tpp,
    PolicyKind::AutoNuma,
    PolicyKind::Memtis,
    PolicyKind::Arc,
    PolicyKind::TwoQ,
    PolicyKind::HybridTier,
    PolicyKind::NeoMem,
];

/// Runs the shrink scenario on `mem`: warm up on one hot set, halve the
/// fast tier below occupancy, drive a second phase whose hot set lives in
/// the other half of the address space, and require residency to converge
/// under the new capacity with page accounting intact.
fn assert_shrink_converges(kind: PolicyKind, mut mem: TieredMemory, label: &str) {
    let cfg = mem.config();
    let mut policy = make_policy(kind, &cfg);
    let mut ctx = PolicyCtx::new();
    let domain = mem.address_space_pages();
    let now = drive(
        policy.as_mut(),
        &mut mem,
        &mut ctx,
        30_000,
        0x5eed,
        0,
        domain,
        0,
    );

    let new_cap = cfg.fast_capacity_pages / 2;
    assert!(
        mem.fast_used() > new_cap,
        "{label}/{kind:?}: warm-up must overfill the shrink target \
         (used {} vs new cap {new_cap}) or the test is vacuous",
        mem.fast_used()
    );
    mem.set_fast_capacity(new_cap);
    assert_eq!(mem.fast_free(), 0, "over-occupied tier reports zero free");

    drive(
        policy.as_mut(),
        &mut mem,
        &mut ctx,
        60_000,
        0xbeef,
        domain / 2,
        domain,
        now,
    );

    assert!(
        mem.fast_used() <= new_cap,
        "{label}/{kind:?}: residency did not converge under the shrunk \
         quota: used {} vs cap {new_cap}",
        mem.fast_used()
    );
    // The drained pages landed somewhere: accounting is conserved.
    let mapped = mem.iter_mapped().count() as u64;
    assert_eq!(
        mapped,
        mem.fast_used() + mem.slow_used(),
        "{label}/{kind:?}: page accounting broken after shrink"
    );
    assert!(
        mem.stats().demotions > 0,
        "{label}/{kind:?}: shrink must demote"
    );
}

/// Runs the grow scenario on `mem`: warm up on a hot set three times the
/// fast tier, grow the fast tier threefold, keep driving the same hot set,
/// and require residency to end above the old quota with page accounting
/// intact.
fn assert_grow_fills(kind: PolicyKind, mut mem: TieredMemory, label: &str) {
    let cfg = mem.config();
    let mut policy = make_policy(kind, &cfg);
    let mut ctx = PolicyCtx::new();
    let old_cap = cfg.fast_capacity_pages;
    let (new_cap, hot) = (3 * old_cap, 3 * old_cap);
    let now = drive(
        policy.as_mut(),
        &mut mem,
        &mut ctx,
        30_000,
        0x5eed,
        0,
        hot,
        0,
    );
    assert!(
        mem.fast_used() <= old_cap,
        "{label}/{kind:?}: warm-up overfilled the fast tier"
    );

    mem.set_fast_capacity(new_cap);
    assert_eq!(mem.config().fast_capacity_pages, new_cap);
    drive(
        policy.as_mut(),
        &mut mem,
        &mut ctx,
        60_000,
        0xbeef,
        0,
        hot,
        now,
    );

    assert!(
        mem.fast_used() > old_cap,
        "{label}/{kind:?}: residency stayed at the old quota after a grow: \
         used {} vs old cap {old_cap}, new cap {new_cap}",
        mem.fast_used()
    );
    assert!(
        mem.fast_used() <= new_cap,
        "{label}/{kind:?}: residency overran the grown quota"
    );
    let mapped = mem.iter_mapped().count() as u64;
    assert_eq!(
        mapped,
        mem.fast_used() + mem.slow_used(),
        "{label}/{kind:?}: page accounting broken after grow"
    );
}

#[test]
fn two_tier_grow_fills_past_the_old_quota_for_every_policy() {
    for kind in KINDS {
        let cfg = TierConfig::for_footprint(512, TierRatio::OneTo8, PageSize::Base4K);
        assert_grow_fills(kind, TieredMemory::new(cfg), "two-tier");
    }
}

#[test]
fn three_tier_grow_fills_past_the_old_quota_for_every_policy() {
    for kind in KINDS {
        let topo = TierTopology::three_tier_dram_cxl_nvme(512, PageSize::Base4K);
        assert_grow_fills(kind, TieredMemory::with_topology(topo), "three-tier");
    }
}

#[test]
fn two_tier_shrink_below_occupancy_converges_for_every_policy() {
    for kind in KINDS {
        let cfg = TierConfig::for_footprint(512, TierRatio::OneTo8, PageSize::Base4K);
        assert_shrink_converges(kind, TieredMemory::new(cfg), "two-tier");
    }
}

#[test]
fn three_tier_shrink_below_occupancy_converges_for_every_policy() {
    for kind in KINDS {
        let topo = TierTopology::three_tier_dram_cxl_nvme(512, PageSize::Base4K);
        assert_shrink_converges(kind, TieredMemory::with_topology(topo), "three-tier");
    }
}
