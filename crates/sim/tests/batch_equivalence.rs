//! The batched pipeline's defining contract: for a fixed seed, any batch
//! size produces a **byte-identical** `SimReport` to the scalar
//! (one-op-per-pull, `batch_ops = 1`) reference.
//!
//! This holds by construction — every pipeline stage is shared between
//! batch sizes, and workloads are batch-pulled only while their output is
//! independent of simulated time — and these tests pin the construction,
//! on the two-tier testbed and on every ladder preset. The same
//! construction makes a run resumable: stepping a `SimRun` to any sequence
//! of clock bounds gives the report of one unbounded call.

use tiering_mem::{
    LadderKind, PageId, PageSize, Tier, TierConfig, TierRatio, TierTopology, TieredMemory,
};
use tiering_policies::{
    build_policy, visit_policy, PolicyCtx, PolicyKind, PolicyVisitor, TieringPolicy,
};
use tiering_sim::{Engine, LogHistogram, SimConfig, SimReport, SimRun};
use tiering_trace::{AccessBatch, Sample, Workload};
use tiering_workloads::{
    build_workload, visit_workload, WorkloadId, WorkloadVisitor, ZipfPageWorkload,
};

/// Field-by-field assertion so a regression names the diverging field
/// instead of dumping two full reports.
fn assert_reports_identical(a: &SimReport, b: &SimReport, what: &str) {
    assert_eq!(a.ops, b.ops, "{what}: ops");
    assert_eq!(a.accesses, b.accesses, "{what}: accesses");
    assert_eq!(a.samples, b.samples, "{what}: samples");
    assert_eq!(a.sim_ns, b.sim_ns, "{what}: sim_ns");
    assert_eq!(a.latency, b.latency, "{what}: latency summary");
    assert_eq!(a.timeline, b.timeline, "{what}: timeline");
    assert_eq!(a.cache, b.cache, "{what}: cache stats");
    assert_eq!(a.migrations, b.migrations, "{what}: migrations");
    assert_eq!(a.fast_hit_frac, b.fast_hit_frac, "{what}: fast_hit_frac");
    assert_eq!(a.metadata_bytes, b.metadata_bytes, "{what}: metadata_bytes");
    assert_eq!(a, b, "{what}: full report");
}

fn run_zipf(config: &SimConfig, kind: PolicyKind, scalar: bool) -> SimReport {
    // The shift keeps the workload time-sensitive (single-op pulls) for the
    // first simulated 50 ms and batchable afterwards, covering both pull
    // modes and the transition between them.
    let mut w = ZipfPageWorkload::new(3_000, 0.99, 120_000, 11).with_shift(50_000_000, 0.8);
    let pages = w.footprint_pages(PageSize::Base4K);
    let tier_cfg = TierConfig::for_footprint(pages, TierRatio::OneTo8, PageSize::Base4K);
    let mut policy = build_policy(kind, &tier_cfg);
    let config = if scalar {
        config.clone().with_batch_ops(1)
    } else {
        config.clone()
    };
    Engine::new(config).run(&mut w, policy.as_mut(), tier_cfg)
}

/// Every policy family (CBF-sampling, exact-counter, fault-driven, and the
/// caching-algorithm adaptations) through scalar vs default batch.
#[test]
fn batched_equals_scalar_across_policies() {
    for kind in [
        PolicyKind::HybridTier,
        PolicyKind::Memtis,
        PolicyKind::Tpp,
        PolicyKind::AutoNuma,
        PolicyKind::Arc,
        PolicyKind::TwoQ,
        PolicyKind::FirstTouch,
    ] {
        let config = SimConfig::default();
        let scalar = run_zipf(&config, kind, true);
        let batched = run_zipf(&config, kind, false);
        assert_reports_identical(&scalar, &batched, &format!("{kind:?}"));
    }
}

/// Batch size is purely a host-performance knob: odd, tiny, and huge batch
/// sizes all reproduce the scalar report.
#[test]
fn batch_size_is_result_invariant() {
    let scalar = run_zipf(&SimConfig::default(), PolicyKind::HybridTier, true);
    for batch_ops in [2, 7, 64, 1024] {
        let config = SimConfig::default().with_batch_ops(batch_ops);
        let batched = run_zipf(&config, PolicyKind::HybridTier, false);
        assert_reports_identical(&scalar, &batched, &format!("batch_ops={batch_ops}"));
    }
}

/// The full evaluation suite (multi-access ops, fused batch overrides in
/// the generators) through the cap-limited sweeps the harness runs.
#[test]
fn suite_workloads_equivalent_under_batching() {
    for id in [
        WorkloadId::CdnCacheLib,
        WorkloadId::BfsKron,
        WorkloadId::PrUniform,
        WorkloadId::Roms,
        WorkloadId::Silo,
        WorkloadId::Xgboost,
    ] {
        let run = |scalar: bool| {
            let mut w = build_workload(id, 0xA5F0_5EED);
            let pages = w.footprint_pages(PageSize::Base4K);
            let tier_cfg = TierConfig::for_footprint(pages, TierRatio::OneTo8, PageSize::Base4K);
            let mut policy = build_policy(PolicyKind::HybridTier, &tier_cfg);
            let mut config = SimConfig::default().with_max_ops(30_000);
            if scalar {
                config = config.with_batch_ops(1);
            }
            Engine::new(config).run(w.as_mut(), policy.as_mut(), tier_cfg)
        };
        assert_reports_identical(&run(true), &run(false), &format!("{id:?}"));
    }
}

/// The ladder plane: every preset × the compared systems plus the NeoMem
/// device-counter design, at scalar, odd and default batch sizes. Ladders
/// share both access loops with the two-tier testbed (including the
/// no-sample fast loop), so they owe the same batch-size invariance.
#[test]
fn ladder_batch_size_is_result_invariant() {
    for ladder in LadderKind::ALL {
        for kind in PolicyKind::COMPARED.into_iter().chain([PolicyKind::NeoMem]) {
            let run = |batch_ops: usize| {
                let mut w = build_workload(WorkloadId::CdnCacheLib, 0x1ADD_E125);
                let topology =
                    ladder.topology(w.footprint_pages(PageSize::Base4K), PageSize::Base4K);
                let mut policy = build_policy(kind, &topology.as_tier_config());
                let config = SimConfig::default()
                    .with_max_ops(8_000)
                    .with_batch_ops(batch_ops);
                Engine::new(config).run_ladder(w.as_mut(), policy.as_mut(), topology)
            };
            let scalar = run(1);
            assert!(scalar.samples > 0, "{ladder}/{kind:?}: sampled loop ran");
            for batch_ops in [7, 64] {
                assert_reports_identical(
                    &scalar,
                    &run(batch_ops),
                    &format!("{ladder}/{kind:?} batch_ops={batch_ops}"),
                );
            }
        }
    }
}

/// All ten buildable policies, typed-dispatch matrix order.
const ALL_POLICIES: [PolicyKind; 10] = [
    PolicyKind::HybridTier,
    PolicyKind::HybridTierFreqOnly,
    PolicyKind::HybridTierUnblocked,
    PolicyKind::Memtis,
    PolicyKind::AutoNuma,
    PolicyKind::Tpp,
    PolicyKind::Arc,
    PolicyKind::TwoQ,
    PolicyKind::AllFast,
    PolicyKind::FirstTouch,
];

/// Runs `(id, kind)` through `Engine::run_typed` with both the workload and
/// the policy resolved to their concrete types via the visitors — the route
/// the host benchmark's ledger (`benchmark/src/ledger.rs`) times. The
/// product runs every scenario boxed.
fn run_fully_typed(id: WorkloadId, kind: PolicyKind, seed: u64, config: &SimConfig) -> SimReport {
    struct TypedRun<'a> {
        kind: PolicyKind,
        config: &'a SimConfig,
    }
    impl WorkloadVisitor for TypedRun<'_> {
        type Out = SimReport;
        fn visit<W: Workload + 'static>(self, mut w: W) -> SimReport {
            let pages = w.footprint_pages(PageSize::Base4K);
            let tier_cfg = TierConfig::for_footprint(pages, TierRatio::OneTo8, PageSize::Base4K);
            struct WithWorkload<'a, W: Workload> {
                config: &'a SimConfig,
                tier_cfg: TierConfig,
                w: &'a mut W,
            }
            impl<W: Workload> PolicyVisitor for WithWorkload<'_, W> {
                type Out = SimReport;
                fn visit<P: TieringPolicy + 'static>(self, mut p: P) -> SimReport {
                    Engine::new(self.config.clone()).run_typed(self.w, &mut p, self.tier_cfg)
                }
            }
            visit_policy(
                self.kind,
                &tier_cfg,
                WithWorkload {
                    config: self.config,
                    tier_cfg,
                    w: &mut w,
                },
            )
        }
    }
    visit_workload(id, seed, TypedRun { kind, config })
}

/// The monomorphized entry point against the dyn one, across the **full**
/// suite × policy matrix with identical seeds: `run_typed` with concrete
/// types and `run` with trait objects are instantiations of the same
/// generic pipeline, so every report must match byte for byte. This is what
/// keeps the ledger's typed entries pricing the same run the product makes.
#[test]
fn typed_path_equals_dyn_across_full_matrix() {
    const SEED: u64 = 0xA5F0_5EED;
    for id in WorkloadId::ALL {
        for kind in ALL_POLICIES {
            let config = SimConfig::default().with_max_ops(2_000);
            let typed = run_fully_typed(id, kind, SEED, &config);
            let mut w = build_workload(id, SEED);
            let pages = w.footprint_pages(PageSize::Base4K);
            let tier_cfg = TierConfig::for_footprint(pages, TierRatio::OneTo8, PageSize::Base4K);
            let mut p = build_policy(kind, &tier_cfg);
            let dyn_report = Engine::new(config).run(w.as_mut(), p.as_mut(), tier_cfg);
            assert_reports_identical(
                &dyn_report,
                &typed,
                &format!("{id:?}/{kind:?} typed-vs-dyn"),
            );
        }
    }
}

/// Delegates to `inner` and records the `(page, at_ns)` of every sample it
/// is handed — what the Figure 2 and 16 harnesses read.
struct Recording {
    inner: Box<dyn TieringPolicy>,
    samples: Vec<(u64, u64)>,
}

impl TieringPolicy for Recording {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn preferred_alloc_tier(&self) -> Tier {
        self.inner.preferred_alloc_tier()
    }
    fn wants_access_hook(&self) -> bool {
        self.inner.wants_access_hook()
    }
    fn on_access_batch(
        &mut self,
        pages: &[PageId],
        now_ns: u64,
        mem: &mut TieredMemory,
        ctx: &mut PolicyCtx,
    ) -> u64 {
        self.inner.on_access_batch(pages, now_ns, mem, ctx)
    }
    fn on_sample_batch(&mut self, samples: &[Sample], mem: &mut TieredMemory, ctx: &mut PolicyCtx) {
        self.samples
            .extend(samples.iter().map(|s| (s.page.0, s.at_ns)));
        self.inner.on_sample_batch(samples, mem, ctx);
    }
    fn on_tick(&mut self, now_ns: u64, mem: &mut TieredMemory, ctx: &mut PolicyCtx) {
        self.inner.on_tick(now_ns, mem, ctx);
    }
    fn fast_demand_pages(&self, mem: &TieredMemory) -> u64 {
        self.inner.fast_demand_pages(mem)
    }
    fn metadata_bytes(&self) -> usize {
        self.inner.metadata_bytes()
    }
}

/// What the figure harnesses observe from outside the engine — the sample
/// stream a policy ingests (Figures 2/16) and the cache counters (Figures
/// 5/13/14) — survives batching unchanged.
#[test]
fn probes_equivalent_under_batching() {
    let config = SimConfig::default().with_cache_sim().with_max_ops(60_000);
    let run = |batch_ops: usize| {
        let mut w = ZipfPageWorkload::new(3_000, 0.99, 120_000, 11).with_shift(50_000_000, 0.8);
        let pages = w.footprint_pages(PageSize::Base4K);
        let tier_cfg = TierConfig::for_footprint(pages, TierRatio::OneTo8, PageSize::Base4K);
        let mut policy = Recording {
            inner: build_policy(PolicyKind::Memtis, &tier_cfg),
            samples: Vec::new(),
        };
        let config = config.clone().with_batch_ops(batch_ops);
        let report = Engine::new(config).run(&mut w, &mut policy, tier_cfg);
        (policy.samples, report)
    };
    let (scalar_samples, scalar) = run(1);
    let (batched_samples, batched) = run(64);
    assert!(!scalar_samples.is_empty());
    assert_eq!(scalar_samples, batched_samples, "sample stream");
    assert!(scalar.cache.is_some());
    assert_eq!(scalar.cache, batched.cache, "cache stats");
    assert_reports_identical(&scalar, &batched, "probes");
}

/// A workload that counts the ops it hands out, so a test can see ops
/// pulled by a run but not yet simulated.
struct Counted<W> {
    inner: W,
    pulled: u64,
}

impl<W: Workload> Workload for Counted<W> {
    fn fill_batch(&mut self, now_ns: u64, max_ops: usize, batch: &mut AccessBatch) -> usize {
        let n = self.inner.fill_batch(now_ns, max_ops, batch);
        self.pulled += n as u64;
        n
    }
    fn footprint_bytes(&self) -> u64 {
        self.inner.footprint_bytes()
    }
    fn footprint_pages(&self, size: PageSize) -> u64 {
        self.inner.footprint_pages(size)
    }
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn batchable_now(&self) -> bool {
        self.inner.batchable_now()
    }
}

/// Runs `kind` over a Zipf workload whose hot set shifts at 5 ms, on the
/// 2-tier testbed or the DRAM→CXL→NVMe ladder, stepping the run to every
/// multiple of `stride_ns` (`None`: one unbounded call). Returns the report
/// and how many stride boundaries found ops pulled but not yet simulated.
fn stepped_zipf(kind: PolicyKind, three_tier: bool, stride_ns: Option<u64>) -> (SimReport, u32) {
    let config = SimConfig::default();
    let mut w = Counted {
        // ~1.2 µs per op: ~48 simulated ms, so every stride has several
        // boundaries after the shift, where pulls are 64 ops.
        inner: ZipfPageWorkload::new(3_000, 0.99, 40_000, 11)
            .with_cpu_ns(1_000)
            .with_shift(5_000_000, 0.8),
        pulled: 0,
    };
    let pages = w.footprint_pages(PageSize::Base4K);
    let topology = if three_tier {
        TierTopology::three_tier_dram_cxl_nvme(pages, PageSize::Base4K)
    } else {
        let tier_cfg = TierConfig::for_footprint(pages, TierRatio::OneTo8, PageSize::Base4K);
        TierTopology::two_tier(tier_cfg, &config.latency)
    };
    let mut policy = build_policy(kind, &topology.as_tier_config());
    let mut run = SimRun::new(&config, topology, policy.as_ref());
    let (mut mid_batch, mut ops) = (0, 0);
    match stride_ns {
        None => ops = run.run_until(&mut w, policy.as_mut(), u64::MAX),
        Some(stride) => {
            let mut until = stride;
            while !run.finished() {
                ops += run.run_until(&mut w, policy.as_mut(), until);
                mid_batch += u32::from(w.pulled > run.ops());
                until += stride;
            }
        }
    }
    assert_eq!(ops, run.ops(), "each call returns the ops it simulated");
    let report = run.finish(w.name(), policy.as_ref(), &mut LogHistogram::new());
    (report, mid_batch)
}

/// Suspending a run changes nothing: for every compared policy plus NeoMem,
/// on two and three tiers, a run stepped in 1 ms, 7 ms and 1 000 003 ns
/// strides seals the report of one unbounded `run_until` — including at
/// boundaries where pulled ops wait in the run for the next call.
#[test]
fn suspended_runs_equal_one_unbounded_call() {
    for three_tier in [false, true] {
        for kind in PolicyKind::COMPARED.into_iter().chain([PolicyKind::NeoMem]) {
            let (whole, _) = stepped_zipf(kind, three_tier, None);
            for stride in [1_000_000, 7_000_000, 1_000_003] {
                let what = format!("{kind:?} three_tier={three_tier} stride={stride}");
                let (stepped, mid_batch) = stepped_zipf(kind, three_tier, Some(stride));
                assert!(mid_batch > 0, "{what}: no boundary landed mid-batch");
                assert_reports_identical(&whole, &stepped, &what);
                assert_eq!(whole.fingerprint(), stepped.fingerprint(), "{what}");
            }
        }
    }
}

/// A run that hit a cap or ran its workload dry is finished, a further call
/// simulates nothing, and the report is the engine's.
#[test]
fn finished_runs_stay_finished() {
    let capped = SimConfig::default().with_max_ops(777);
    let timed = SimConfig::default().with_max_sim_ns(300_000);
    let unbounded = SimConfig::default();
    for (what, config) in [
        ("ops cap", capped),
        ("time cap", timed),
        ("exhausted", unbounded),
    ] {
        let mk = || ZipfPageWorkload::new(500, 0.9, 5_000, 3);
        let pages = mk().footprint_pages(PageSize::Base4K);
        let tier_cfg = TierConfig::for_footprint(pages, TierRatio::OneTo8, PageSize::Base4K);
        let mut policy = build_policy(PolicyKind::HybridTier, &tier_cfg);
        let topology = TierTopology::two_tier(tier_cfg, &config.latency);
        let mut run = SimRun::new(&config, topology, policy.as_ref());
        let mut w = mk();
        run.run_until(&mut w, policy.as_mut(), u64::MAX);
        assert!(run.finished(), "{what}");
        let (now, ops) = (run.now_ns(), run.ops());
        let stopped_by = match (ops, now >= 300_000) {
            (777, _) => "ops cap",
            (5_000, _) => "exhausted",
            (_, true) => "time cap",
            _ => "nothing",
        };
        assert_eq!(stopped_by, what, "{ops} ops at {now} ns");
        assert_eq!(
            run.run_until(&mut w, policy.as_mut(), u64::MAX),
            0,
            "{what}"
        );
        assert_eq!((run.now_ns(), run.ops()), (now, ops), "{what}: resumed");
        // The fold adds the run's histogram to what `hist` already holds.
        let mut hist = LogHistogram::new();
        hist.record(1 << 40);
        let report = run.finish(w.name(), policy.as_ref(), &mut hist);
        assert_eq!(hist.count(), ops + 1, "{what}");
        assert_eq!(hist.max(), 1 << 40, "{what}");

        let mut policy = build_policy(PolicyKind::HybridTier, &tier_cfg);
        let engine = Engine::new(config).run(&mut mk(), policy.as_mut(), tier_cfg);
        assert_reports_identical(&engine, &report, what);
    }
}
