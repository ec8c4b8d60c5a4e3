//! The simulation engine core loop.

use cache_sim::CacheConfig;
use tiering_mem::{LatencyModel, PageSize, TierConfig, TierTopology};
use tiering_policies::TieringPolicy;
use tiering_trace::Workload;

use crate::pipeline::SimRun;
use crate::report::SimReport;

/// Cache-simulation options.
#[derive(Debug, Clone, Copy)]
pub struct CacheSimOptions {
    /// L1 geometry.
    pub l1: CacheConfig,
    /// LLC geometry.
    pub llc: CacheConfig,
}

impl Default for CacheSimOptions {
    fn default() -> Self {
        Self {
            l1: CacheConfig::l1d(),
            // 512 KiB: keeps the paper's metadata:LLC ratio (> 1) at this
            // repository's ~512x smaller footprints — Memtis's per-page
            // records must overflow the LLC for Figure 5 to be meaningful,
            // exactly as its 3.9 GB of records overflow a 24 MiB LLC at
            // full scale (paper §2.3.3).
            llc: CacheConfig {
                size_bytes: 512 << 10,
                ways: 16,
                line_bytes: 64,
            },
        }
    }
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Page granularity for tracking and migration.
    pub page_size: PageSize,
    /// PEBS sampling period (one sample per this many accesses). A prime
    /// default avoids phase-locking with workload strides.
    ///
    /// The default (19) is dense relative to real PEBS but matches the
    /// ~512× footprint scaling: per-page evidence rates (samples per page
    /// per cooling period) land in the paper's regime, where hot pages
    /// saturate their 4-bit counts within one cooling period (Figure 16).
    pub sample_period: u32,
    /// Policy maintenance tick interval (simulated).
    pub tick_interval_ns: u64,
    /// Latency model.
    pub latency: LatencyModel,
    /// Enable full cache simulation — application and metadata references
    /// share one hierarchy with per-source attribution (Figures 5/13/14);
    /// costs ~2× wall time.
    pub cache: Option<CacheSimOptions>,
    /// When full cache simulation is off, model metadata locality with a
    /// small dedicated cache (the tiering thread's L1 plus its share of the
    /// LLC) and charge interference per miss. This is what makes Memtis's
    /// scattered 16 B/page records cost more than HybridTier's compact CBF
    /// in the end-to-end sweeps.
    pub metadata_cache: bool,
    /// Fraction of page-migration cost charged to application time
    /// (bandwidth interference from migration copies).
    pub migration_charge: f64,
    /// Fraction of tiering-thread CPU time charged to application time
    /// (cache/memory contention from the co-located runtime thread).
    pub tiering_work_charge: f64,
    /// Stop after this many operations (`u64::MAX` = unbounded).
    pub max_ops: u64,
    /// Stop after this much simulated time (`u64::MAX` = unbounded).
    pub max_sim_ns: u64,
    /// Timeline window length; must be positive ([`SimRun::new`] panics
    /// on 0).
    pub window_ns: u64,
    /// Operations pulled from the workload per
    /// [`fill_batch`](Workload::fill_batch) call (the pipeline's unit of
    /// work). `1` pulls one op per call.
    ///
    /// Results are **independent of this value** — every op of a call is
    /// generated at the clock of the call, a workload is asked for more
    /// than one op only while it reports
    /// [`batchable_now`](Workload::batchable_now), and every pipeline stage
    /// is shared between batch sizes — so it is purely a host-performance
    /// knob. Tuning guidance:
    ///
    /// * 32–128 amortizes workload/policy virtual dispatch without growing
    ///   the batch buffers past the L1 working set; 64 is the default.
    /// * Larger values pay off for many-access ops (CacheLib large objects,
    ///   PageRank supersteps) where the flat access buffer already spans
    ///   multiple cache lines per op.
    /// * Time-sensitive phases (a pending hotness shift) force
    ///   single-op pulls internally regardless of this setting.
    pub batch_ops: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            page_size: PageSize::Base4K,
            sample_period: 19,
            tick_interval_ns: 1_000_000, // 1 ms
            latency: LatencyModel::default(),
            cache: None,
            metadata_cache: true,
            migration_charge: 0.35,
            tiering_work_charge: 0.25,
            max_ops: u64::MAX,
            max_sim_ns: u64::MAX,
            window_ns: 1_000_000_000, // 1 s
            batch_ops: 64,
        }
    }
}

impl SimConfig {
    /// Caps the run at `ops` operations.
    #[must_use]
    pub fn with_max_ops(mut self, ops: u64) -> Self {
        self.max_ops = ops;
        self
    }

    /// Caps the run at `ns` simulated nanoseconds.
    #[must_use]
    pub fn with_max_sim_ns(mut self, ns: u64) -> Self {
        self.max_sim_ns = ns;
        self
    }

    /// Enables cache simulation with default geometries.
    #[must_use]
    pub fn with_cache_sim(mut self) -> Self {
        self.cache = Some(CacheSimOptions::default());
        self
    }

    /// Switches to 2 MiB huge pages (paper §4.4 / Figure 12).
    #[must_use]
    pub fn with_huge_pages(mut self) -> Self {
        self.page_size = PageSize::Huge2M;
        self
    }

    /// Overrides the pipeline batch size (see [`SimConfig::batch_ops`]).
    ///
    /// # Panics
    ///
    /// Panics if `ops == 0`.
    #[must_use]
    pub fn with_batch_ops(mut self, ops: usize) -> Self {
        assert!(ops > 0, "batch size must be at least 1");
        self.batch_ops = ops;
        self
    }
}

/// The simulation engine.
///
/// One engine instance runs one (workload, policy, tier-config) triple to
/// completion and produces a [`SimReport`]. Runs are deterministic: the same
/// inputs produce byte-identical reports.
#[derive(Debug, Clone)]
pub struct Engine {
    config: SimConfig,
}

impl Engine {
    /// Creates an engine with the given configuration.
    pub fn new(config: SimConfig) -> Self {
        Self { config }
    }

    /// Runs the simulation to completion through the batched pipeline,
    /// pulling up to [`SimConfig::batch_ops`] operations per workload call.
    ///
    /// Reports are byte-identical for any batch size (`batch_ops = 1`
    /// pulls one op per workload call): time-sensitive workload phases
    /// degrade to single-op pulls, and every pipeline stage is shared (see
    /// [`SimRun`] and the `batch_equivalence` integration tests).
    ///
    /// The two tiers of `tier_cfg` are the N = 2 ladder
    /// ([`TierTopology::two_tier`] over this config's latency model), so
    /// this is [`run_ladder`](Engine::run_ladder) on that topology.
    ///
    /// # Panics
    ///
    /// Panics if the workload emits addresses outside its declared footprint
    /// (that is a workload bug worth failing loudly on).
    pub fn run(
        &self,
        workload: &mut dyn Workload,
        policy: &mut dyn TieringPolicy,
        tier_cfg: TierConfig,
    ) -> SimReport {
        let topology = TierTopology::two_tier(tier_cfg, &self.config.latency);
        self.run_ladder(workload, policy, topology)
    }

    /// [`run`](Engine::run), monomorphized for the concrete workload and
    /// policy types.
    ///
    /// Both entry points execute the *same* generic pipeline —
    /// [`run`](Engine::run) merely instantiates it with `W = dyn Workload, P = dyn
    /// TieringPolicy` — so for identical inputs the two produce
    /// byte-identical reports (asserted across the full suite×policy matrix
    /// by `typed_path_equals_dyn_across_full_matrix` in the
    /// `batch_equivalence` integration tests). The typed instantiation buys
    /// no measurable host time: running every suite scenario boxed instead
    /// read `host_ns_per_access` 35.1 → 31.3 on the host
    /// benchmark's `cachelib`, 20.4 → 18.0 on `batch`, 53.3 → 49.6 on
    /// `ladder` and 59.4 → 58.3 on `cachesim` (medians of 10 alternating
    /// pairs, seed 1, 2 vCPUs; no difference resolved), so the product
    /// calls only the boxed entries. Outside this file the typed entries
    /// have two callers: the host benchmark's ledger
    /// (`benchmark/src/ledger.rs`), which resolves concrete types with
    /// `visit_workload`/`visit_policy`, and that test.
    pub fn run_typed<W, P>(
        &self,
        workload: &mut W,
        policy: &mut P,
        tier_cfg: TierConfig,
    ) -> SimReport
    where
        W: Workload + ?Sized,
        P: TieringPolicy + ?Sized,
    {
        let topology = TierTopology::two_tier(tier_cfg, &self.config.latency);
        self.run_typed_ladder(workload, policy, topology)
    }

    /// Runs over an explicit N-tier ladder ([`TierTopology`]): access and
    /// migration accounting read the topology's per-rung tables, and
    /// ladder-aware policies cascade demotions down it.
    pub fn run_ladder(
        &self,
        workload: &mut dyn Workload,
        policy: &mut dyn TieringPolicy,
        topology: TierTopology,
    ) -> SimReport {
        self.run_typed_ladder(workload, policy, topology)
    }

    /// The engine core every other entry wraps: one [`SimRun`] over
    /// `topology`, driven to completion in one call. Generic so that the
    /// ledger's typed calls (see [`run_typed`](Engine::run_typed)) and the
    /// product's boxed ones, the `W = dyn Workload, P = dyn
    /// TieringPolicy` instantiation behind [`run_ladder`](Engine::run_ladder),
    /// share one body.
    pub fn run_typed_ladder<W, P>(
        &self,
        workload: &mut W,
        policy: &mut P,
        topology: TierTopology,
    ) -> SimReport
    where
        W: Workload + ?Sized,
        P: TieringPolicy + ?Sized,
    {
        let mut run = SimRun::new(&self.config, topology, policy);
        run.run_until(workload, policy, u64::MAX);
        run.finish(workload.name(), policy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_sim::Source;
    use tiering_mem::TierRatio;
    use tiering_policies::{build_policy, PolicyKind};
    use tiering_workloads::ZipfPageWorkload;

    fn run_zipf(kind: PolicyKind, ratio: TierRatio, ops: u64) -> SimReport {
        let mut w = ZipfPageWorkload::new(2_000, 0.99, ops, 7);
        let pages = tiering_trace::Workload::footprint_pages(&w, PageSize::Base4K);
        let tier_cfg = if kind == PolicyKind::AllFast {
            TierConfig::all_fast(pages, PageSize::Base4K)
        } else {
            TierConfig::for_footprint(pages, ratio, PageSize::Base4K)
        };
        let mut policy = build_policy(kind, &tier_cfg);
        Engine::new(SimConfig::default()).run(&mut w, policy.as_mut(), tier_cfg)
    }

    #[test]
    fn all_fast_is_fastest() {
        let all_fast = run_zipf(PolicyKind::AllFast, TierRatio::OneTo8, 100_000);
        let first_touch = run_zipf(PolicyKind::FirstTouch, TierRatio::OneTo8, 100_000);
        assert!(all_fast.sim_ns < first_touch.sim_ns);
        assert!((all_fast.fast_hit_frac - 1.0).abs() < 1e-9);
    }

    #[test]
    fn hybridtier_beats_first_touch_when_hotness_shifts() {
        // On a *static* Zipf, first-touch is a strong accidental baseline
        // (hot pages are touched first and land fast). Tiering earns its
        // keep when the hot set moves — so shift it mid-run.
        let run = |kind: PolicyKind| {
            let mut w =
                ZipfPageWorkload::new(8_000, 0.99, 1_200_000, 42).with_shift(100_000_000, 0.9);
            let pages = tiering_trace::Workload::footprint_pages(&w, PageSize::Base4K);
            let tier_cfg = TierConfig::for_footprint(pages, TierRatio::OneTo8, PageSize::Base4K);
            let mut policy = build_policy(kind, &tier_cfg);
            Engine::new(SimConfig::default()).run(&mut w, policy.as_mut(), tier_cfg)
        };
        let ht = run(PolicyKind::HybridTier);
        let ft = run(PolicyKind::FirstTouch);
        assert!(
            ht.sim_ns < ft.sim_ns,
            "HybridTier {} vs FirstTouch {}",
            ht.sim_ns,
            ft.sim_ns
        );
        assert!(ht.migrations.promotions > 0);
        assert!(ht.fast_hit_frac > ft.fast_hit_frac);
    }

    #[test]
    fn deterministic_runs() {
        let a = run_zipf(PolicyKind::HybridTier, TierRatio::OneTo16, 50_000);
        let b = run_zipf(PolicyKind::HybridTier, TierRatio::OneTo16, 50_000);
        assert_eq!(a.sim_ns, b.sim_ns);
        assert_eq!(a.migrations, b.migrations);
        assert_eq!(a.latency.p50_ns, b.latency.p50_ns);
    }

    #[test]
    fn ops_cap_respected() {
        let r = run_zipf(PolicyKind::FirstTouch, TierRatio::OneTo8, 1_000);
        assert_eq!(r.ops, 1_000);
        assert_eq!(r.accesses, 1_000, "one access per zipf op");
    }

    #[test]
    fn timeline_covers_run() {
        let r = run_zipf(PolicyKind::Memtis, TierRatio::OneTo8, 200_000);
        assert!(!r.timeline.is_empty());
        let total_ops: u64 = r.timeline.iter().map(|p| p.ops).sum();
        assert_eq!(total_ops, r.ops, "every op falls in some window");
        assert!(r.timeline.windows(2).all(|w| w[0].t_ns < w[1].t_ns));
    }

    #[test]
    fn cache_sim_attributes_tiering_misses() {
        let mut w = ZipfPageWorkload::new(2_000, 0.99, 100_000, 7);
        let pages = tiering_trace::Workload::footprint_pages(&w, PageSize::Base4K);
        let tier_cfg = TierConfig::for_footprint(pages, TierRatio::OneTo8, PageSize::Base4K);
        let mut policy = build_policy(PolicyKind::Memtis, &tier_cfg);
        let r = Engine::new(SimConfig::default().with_cache_sim()).run(
            &mut w,
            policy.as_mut(),
            tier_cfg,
        );
        let stats = r.cache.expect("cache stats present");
        assert!(stats.l1.by(Source::App).accesses() > 0);
        assert!(
            stats.l1.by(Source::Tiering).accesses() > 0,
            "Memtis metadata must generate cache traffic"
        );
    }

    #[test]
    #[should_panic(expected = "timeline window must be positive")]
    fn zero_window_is_rejected() {
        let cfg = SimConfig {
            window_ns: 0,
            ..SimConfig::default()
        };
        let mut w = ZipfPageWorkload::new(500, 0.99, 1_000, 3);
        let pages = tiering_trace::Workload::footprint_pages(&w, PageSize::Base4K);
        let tier_cfg = TierConfig::for_footprint(pages, TierRatio::OneTo8, PageSize::Base4K);
        let mut policy = build_policy(PolicyKind::FirstTouch, &tier_cfg);
        Engine::new(cfg).run(&mut w, policy.as_mut(), tier_cfg);
    }

    /// The footprint meter at lane level: a tail tenant of the synthetic
    /// fleet (64 pages, 40 ops, 100–400 ns each, on its one-page share of
    /// a 4-page budget) ends its run holding a few hundred histogram
    /// buckets, where the fixed-range histograms held 8 192 (64 KiB, 16×
    /// the tenant's CBF budget).
    #[test]
    fn tiny_lane_histograms_cost_what_they_record() {
        let cfg = SimConfig::default().with_batch_ops(32);
        let mut controller = tiering_policies::GlobalController::new(4, 0.25);
        controller.add_tenant("tiny", 64);
        let tier_cfg = controller.tier_config(0, cfg.page_size);
        let mut w = ZipfPageWorkload::new(64, 0.9, 40, 5);
        let mut policy = build_policy(PolicyKind::HybridTier, &tier_cfg);
        let topology = TierTopology::two_tier(tier_cfg, &cfg.latency);
        let mut run = SimRun::new(&cfg, topology, policy.as_ref());
        assert_eq!(run.histogram_buckets(), 0, "nothing recorded yet");
        run.run_until(&mut w, policy.as_mut(), u64::MAX);
        assert!(run.finished());
        assert_eq!(run.ops(), 40);
        let held = run.histogram_buckets();
        assert!((1..1024).contains(&held), "{held} buckets allocated");
    }

    #[test]
    fn two_tier_ladder_matches_classic_run() {
        // The ladder entry point over the 2-tier topology must be
        // byte-identical to the classic TierConfig path — the same claim
        // the golden suite makes end-to-end.
        let cfg = SimConfig::default();
        let mk = || ZipfPageWorkload::new(2_000, 0.99, 120_000, 7);
        let mut w = mk();
        let pages = tiering_trace::Workload::footprint_pages(&w, PageSize::Base4K);
        let tier_cfg = TierConfig::for_footprint(pages, TierRatio::OneTo8, PageSize::Base4K);
        let mut policy = build_policy(PolicyKind::HybridTier, &tier_cfg);
        let classic = Engine::new(cfg.clone()).run(&mut w, policy.as_mut(), tier_cfg);

        let mut w = mk();
        let mut policy = build_policy(PolicyKind::HybridTier, &tier_cfg);
        let ladder = Engine::new(cfg.clone()).run_ladder(
            &mut w,
            policy.as_mut(),
            TierTopology::two_tier(tier_cfg, &cfg.latency),
        );
        assert_eq!(classic, ladder);
        assert_eq!(classic.fingerprint(), ladder.fingerprint());
    }

    #[test]
    fn three_tier_ladder_is_deterministic_and_populates_lower_rungs() {
        let run = || {
            let mut w = ZipfPageWorkload::new(2_000, 0.99, 150_000, 7);
            let pages = tiering_trace::Workload::footprint_pages(&w, PageSize::Base4K);
            let topo = TierTopology::three_tier_dram_cxl_nvme(pages, PageSize::Base4K);
            let tier_cfg = topo.as_tier_config();
            let mut policy = build_policy(PolicyKind::HybridTier, &tier_cfg);
            Engine::new(SimConfig::default()).run_ladder(&mut w, policy.as_mut(), topo)
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert_eq!(a.ops, 150_000);
        assert!(a.migrations.promotions > 0, "hot pages climb the ladder");
        assert!(
            a.fast_hit_frac > 0.0 && a.fast_hit_frac < 1.0,
            "fast hits are tier-0 residency, not the slow pool"
        );
    }

    #[test]
    fn huge_pages_reduce_tracked_pages() {
        let mut w = ZipfPageWorkload::new(2_000, 0.99, 20_000, 7);
        let pages4k = tiering_trace::Workload::footprint_pages(&w, PageSize::Base4K);
        let pages2m = tiering_trace::Workload::footprint_pages(&w, PageSize::Huge2M);
        assert!(pages2m * 256 <= pages4k);
        let tier_cfg = TierConfig::for_footprint(pages2m, TierRatio::OneTo4, PageSize::Huge2M);
        let mut policy = build_policy(PolicyKind::HybridTier, &tier_cfg);
        let r = Engine::new(SimConfig::default().with_huge_pages()).run(
            &mut w,
            policy.as_mut(),
            tier_cfg,
        );
        assert!(r.ops > 0);
    }
}
