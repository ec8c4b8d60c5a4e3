//! Cross-crate integration tests: whole simulations through the public API.

use hybridtier::prelude::*;

fn run_zipf(kind: PolicyKind, ratio: TierRatio, ops: u64, seed: u64) -> SimReport {
    let mut w = ZipfPageWorkload::new(4_000, 0.99, ops, seed);
    let pages = w.footprint_pages(PageSize::Base4K);
    let tier_cfg = if kind == PolicyKind::AllFast {
        TierConfig::all_fast(pages, PageSize::Base4K)
    } else {
        TierConfig::for_footprint(pages, ratio, PageSize::Base4K)
    };
    let mut policy = build_policy(kind, &tier_cfg);
    Engine::new(SimConfig::default()).run(&mut w, policy.as_mut(), tier_cfg)
}

/// The headline end-to-end property: on a skewed workload every adaptive
/// tiering system beats static first-touch placement, and the all-fast
/// configuration bounds them all.
#[test]
fn tiering_systems_land_between_bounds() {
    let upper = run_zipf(PolicyKind::AllFast, TierRatio::OneTo8, 300_000, 5);
    let lower = run_zipf(PolicyKind::FirstTouch, TierRatio::OneTo8, 300_000, 5);
    assert!(upper.sim_ns < lower.sim_ns, "bounds inverted");
    for kind in [PolicyKind::HybridTier, PolicyKind::Memtis, PolicyKind::Arc] {
        let r = run_zipf(kind, TierRatio::OneTo8, 300_000, 5);
        assert!(
            r.sim_ns >= upper.sim_ns,
            "{} beat the all-fast bound",
            r.policy
        );
        assert!(
            r.fast_hit_frac > lower.fast_hit_frac,
            "{} did not improve on first-touch placement",
            r.policy
        );
    }
}

/// More fast-tier memory never hurts (within a policy, same workload).
#[test]
fn more_fast_tier_is_monotone_for_hybridtier() {
    let r16 = run_zipf(PolicyKind::HybridTier, TierRatio::OneTo16, 300_000, 9);
    let r4 = run_zipf(PolicyKind::HybridTier, TierRatio::OneTo4, 300_000, 9);
    assert!(
        r4.fast_hit_frac > r16.fast_hit_frac,
        "1:4 ({}) should hit fast tier more than 1:16 ({})",
        r4.fast_hit_frac,
        r16.fast_hit_frac
    );
    assert!(r4.sim_ns < r16.sim_ns);
}

/// Reports are byte-stable across runs: the whole stack (workload RNG,
/// sampler, CBF hashing, policy state machines) is deterministic.
#[test]
fn full_stack_determinism() {
    let a = run_zipf(PolicyKind::HybridTier, TierRatio::OneTo8, 100_000, 3);
    let b = run_zipf(PolicyKind::HybridTier, TierRatio::OneTo8, 100_000, 3);
    assert_eq!(a.sim_ns, b.sim_ns);
    assert_eq!(a.latency.p50_ns, b.latency.p50_ns);
    assert_eq!(a.migrations, b.migrations);
    assert_eq!(a.samples, b.samples);
    assert_eq!(a.timeline.len(), b.timeline.len());
}

/// Different seeds produce different (but sane) runs.
#[test]
fn seeds_matter_but_shape_holds() {
    let a = run_zipf(PolicyKind::HybridTier, TierRatio::OneTo8, 200_000, 1);
    let b = run_zipf(PolicyKind::HybridTier, TierRatio::OneTo8, 200_000, 2);
    assert_ne!(a.sim_ns, b.sim_ns, "seeds should perturb the run");
    let ratio = a.sim_ns as f64 / b.sim_ns as f64;
    assert!(
        (0.8..1.25).contains(&ratio),
        "seed variance too large: {ratio}"
    );
}

/// The suite builder wires every workload into the engine without panics and
/// with plausible outputs.
#[test]
fn every_suite_workload_simulates() {
    for id in WorkloadId::ALL {
        let cfg = SimConfig::default().with_max_ops(20_000);
        let report = Scenario::suite(id, PolicyKind::HybridTier, TierRatio::OneTo8, &cfg, 7)
            .run()
            .report;
        assert!(report.ops > 0, "{id:?} ran no ops");
        assert!(report.accesses >= report.ops, "{id:?} ops without accesses");
        assert!(report.sim_ns > 0);
        assert!(
            report.fast_hit_frac >= 0.0 && report.fast_hit_frac <= 1.0,
            "{id:?} bad hit fraction"
        );
    }
}

/// Huge-page mode works end to end and tracks at 2 MiB granularity.
#[test]
fn huge_page_mode_runs() {
    let cfg = SimConfig::default().with_max_ops(50_000).with_huge_pages();
    let report = Scenario::suite(
        WorkloadId::CdnCacheLib,
        PolicyKind::HybridTier,
        TierRatio::OneTo4,
        &cfg,
        7,
    )
    .run()
    .report;
    assert!(report.ops > 0);
    assert!(
        report.migrations.promotions < 10_000,
        "2MiB pages migrate rarely"
    );
}

/// Cache simulation attributes misses to both sources and the tiering
/// fraction is sane.
#[test]
fn cache_attribution_end_to_end() {
    let cfg = SimConfig::default().with_max_ops(100_000).with_cache_sim();
    let report = Scenario::suite(
        WorkloadId::CdnCacheLib,
        PolicyKind::Memtis,
        TierRatio::OneTo4,
        &cfg,
        7,
    )
    .run()
    .report;
    let stats = report.cache.expect("cache sim enabled");
    assert!(stats.l1.by(Source::App).accesses() > 0);
    assert!(stats.l1.by(Source::Tiering).accesses() > 0);
    let frac = stats.llc.tiering_miss_fraction();
    assert!(
        (0.0..=0.9).contains(&frac),
        "tiering LLC miss fraction {frac} out of plausible range"
    );
}

/// The momentum ablation (paper Figure 15) is wired: disabling momentum
/// changes behaviour on a churning workload.
#[test]
fn momentum_ablation_changes_behaviour() {
    let mk = || ZipfPageWorkload::new(4_000, 0.99, 400_000, 11).with_shift(20_000_000, 0.9);
    let pages = mk().footprint_pages(PageSize::Base4K);
    let tier_cfg = TierConfig::for_footprint(pages, TierRatio::OneTo16, PageSize::Base4K);

    let mut w1 = mk();
    let mut full = build_policy(PolicyKind::HybridTier, &tier_cfg);
    let r_full = Engine::new(SimConfig::default()).run(&mut w1, full.as_mut(), tier_cfg);

    let mut w2 = mk();
    let mut freq_only = build_policy(PolicyKind::HybridTierFreqOnly, &tier_cfg);
    let r_freq = Engine::new(SimConfig::default()).run(&mut w2, freq_only.as_mut(), tier_cfg);

    assert_ne!(r_full.sim_ns, r_freq.sim_ns);
    assert_eq!(r_freq.policy, "HybridTier-onlyFreqCBF");
}

/// The parallel scenario runner through the facade: a sweep over suite
/// workloads is deterministic, order-independent, and identical to serial
/// execution — and a scenario's report, which the runner computes on the
/// monomorphized pipeline, matches a direct dyn `Engine::run` of the same
/// triple.
#[test]
fn parallel_sweep_matches_serial_and_direct_runs() {
    let matrix = || {
        ScenarioMatrix::new(SimConfig::default().with_max_ops(20_000), 7)
            .workloads([WorkloadId::CdnCacheLib, WorkloadId::Silo])
            .ratios([TierRatio::OneTo8])
            .policies([PolicyKind::HybridTier, PolicyKind::Memtis, PolicyKind::Tpp])
            .fixed_seed()
            .build()
    };
    let parallel = SweepRunner::new(4).run(matrix());
    let serial = SweepRunner::serial().run(matrix());
    assert_eq!(parallel.results.len(), 6);
    assert!(parallel.same_outcomes(&serial), "parallel != serial");

    // Reversed submission order: per-label outcomes unchanged.
    let mut reversed = matrix();
    reversed.reverse();
    let reordered = SweepRunner::new(4).run(reversed);
    for r in &serial.results {
        let other = reordered.find(&r.label).expect("label present");
        assert!(r.same_outcome(other), "{} diverged on reorder", r.label);
    }

    // A sweep cell reproduces a direct engine run of the same triple.
    let config = SimConfig::default().with_max_ops(20_000);
    let mut workload = build_workload(WorkloadId::Silo, 7);
    let pages = workload.footprint_pages(config.page_size);
    let tier_cfg = TierConfig::for_footprint(pages, TierRatio::OneTo8, config.page_size);
    let mut policy = build_policy(PolicyKind::HybridTier, &tier_cfg);
    let direct = Engine::new(config).run(workload.as_mut(), policy.as_mut(), tier_cfg);
    let cell = &serial
        .cell(WorkloadId::Silo, TierRatio::OneTo8, PolicyKind::HybridTier)
        .expect("cell present")
        .report;
    assert_eq!(cell, &direct, "runner diverged from direct engine run");
}
