//! The traced run's staged loop: the simulator's per-op pipeline driven from
//! outside, one public call per layer, with a clock reading between layers.
//!
//! `sim::Pipeline` is private, so this module replays its exact order of
//! operations through each crate's public functions — `Workload::fill_batch`,
//! `AccessBatch::compute_pages`, `Sampler::{due_in,skip,tick}`,
//! `TieredMemory::ensure_mapped[_indexed]`, `StreamPrefetcher::observe`,
//! `CacheHierarchy::access`, the three `TieringPolicy` hooks, metadata-line
//! replay, `LogHistogram::record`. Within one op's burst the per-access
//! layers run as separate loops (map all, then stream-detect all, then
//! cache all): no layer reads another's state inside a burst, so the split
//! changes nothing simulated, and every cell checks its counters against
//! the engine's own report for the same scenario ([`Replica::matches`]).
//!
//! A clock reading costs about as much as simulating half an access, so only
//! one batch in [`TIMED_EVERY`] is timed and each reading's own cost is
//! subtracted from the interval it closes ([`Acc::busy_ns`]). Work *counts*
//! (`units`) cover every batch and repeat exactly.

use std::time::Instant;

use hybridtier::cache::{CacheConfig, CacheHierarchy, HierarchyStats, HitLevel, Source};
use hybridtier::mem::{MigrationStats, PageId, Tier, TierConfig, TierTopology, TieredMemory};
use hybridtier::policies::{build_policy, visit_policy, PolicyCtx, PolicyVisitor, TieringPolicy};
use hybridtier::runner::{PolicySpec, Scenario, ScenarioKind, TierSpec, WorkloadSpec};
use hybridtier::sim::{
    charge_scaled, Engine, LogHistogram, SimConfig, SimReport, StreamPrefetcher,
};
use hybridtier::trace::{AccessBatch, Sample, Sampler, Workload};
use hybridtier::workloads::{build_workload, visit_workload, TraceReplayWorkload, WorkloadVisitor};

/// One batch in this many is timed, chosen pseudo-randomly (a fixed
/// stride would alias with periodic work: a trace replay decodes a chunk
/// every 64th batch); the rest run the same code with the clock readings
/// skipped.
pub const TIMED_EVERY: u64 = 8;

/// Sampled pages kept per cell for the CBF probe.
const SAMPLED_PAGES_CAP: usize = 1 << 20;

/// A pipeline layer the staged loop prices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `Workload::fill_batch` of a live generator.
    Fill,
    /// `Workload::fill_batch` of a trace replay (streaming decode inside).
    ReplayFill,
    /// `AccessBatch::compute_pages`.
    Pages,
    /// `Sampler::{due_in, skip, tick}` plus sample collection.
    Sampler,
    /// `TieredMemory::ensure_mapped[_indexed]`.
    Map,
    /// `StreamPrefetcher::observe`.
    Prefetch,
    /// `CacheHierarchy::access` for application references.
    CacheApp,
    /// `TieringPolicy::on_access_batch` (hint-fault hook).
    Hook,
    /// `TieringPolicy::on_sample_batch`.
    Sample,
    /// `TieringPolicy::on_tick`.
    Tick,
    /// `CacheHierarchy::access` for replayed metadata lines.
    CacheTiering,
    /// `LogHistogram::record`.
    Histo,
}

impl Layer {
    /// Every layer, in pipeline order.
    pub const ALL: [Layer; 12] = [
        Layer::Fill,
        Layer::ReplayFill,
        Layer::Pages,
        Layer::Sampler,
        Layer::Map,
        Layer::Prefetch,
        Layer::CacheApp,
        Layer::Hook,
        Layer::Sample,
        Layer::Tick,
        Layer::CacheTiering,
        Layer::Histo,
    ];

    /// The span name: the owning crate, a dot, the call.
    pub fn span_name(self) -> &'static str {
        match self {
            Layer::Fill => "workloads.fill",
            Layer::ReplayFill => "workloads.replay_fill",
            Layer::Pages => "trace.pages",
            Layer::Sampler => "trace.sampler",
            Layer::Map => "mem.map",
            Layer::Prefetch => "sim.prefetch",
            Layer::CacheApp => "cache-sim.app",
            Layer::Hook => "policies.hook",
            Layer::Sample => "policies.sample",
            Layer::Tick => "policies.tick",
            Layer::CacheTiering => "cache-sim.tiering",
            Layer::Histo => "sim.histo",
        }
    }
}

/// What one layer accumulated over one cell.
#[derive(Debug, Clone, Copy, Default)]
pub struct Acc {
    /// Start of the first timed call (ns since the traced pass began).
    pub first_start_ns: u64,
    /// End of the last timed call.
    pub last_end_ns: u64,
    /// Summed timed intervals, each still including one clock reading.
    pub raw_busy_ns: u64,
    /// Timed calls.
    pub calls: u64,
    /// Work units (accesses, refs, samples, ticks, ops) over *all* batches.
    pub units: u64,
    /// Work units inside timed calls.
    pub timed_units: u64,
}

impl Acc {
    /// Timed busy time with the clock's own cost taken out.
    pub fn busy_ns(&self, timer_cost_ns: f64) -> f64 {
        (self.raw_busy_ns as f64 - self.calls as f64 * timer_cost_ns).max(0.0)
    }
}

/// The clock and per-layer accumulators of one staged run.
struct Laps {
    epoch: Instant,
    /// Whether the current batch is a timed one.
    timing: bool,
    acc: [Acc; Layer::ALL.len()],
}

impl Laps {
    #[inline(always)]
    fn now<const TIMED: bool>(&self) -> u64 {
        if TIMED && self.timing {
            self.epoch.elapsed().as_nanos() as u64
        } else {
            0
        }
    }

    /// Closes the interval `since..now` for `layer` and starts the next one.
    #[inline(always)]
    fn lap<const TIMED: bool>(&mut self, layer: Layer, since: &mut u64, units: u64) {
        let a = &mut self.acc[layer as usize];
        a.units += units;
        if TIMED && self.timing {
            let t = self.epoch.elapsed().as_nanos() as u64;
            if a.calls == 0 {
                a.first_start_ns = *since;
            }
            a.last_end_ns = t;
            a.raw_busy_ns += t - *since;
            a.calls += 1;
            a.timed_units += units;
            *since = t;
        }
    }
}

/// Everything one staged run of a cell produced.
#[derive(Debug, Clone)]
pub struct Replica {
    /// Operations executed.
    pub ops: u64,
    /// Accesses replayed.
    pub accesses: u64,
    /// Samples delivered to the policy.
    pub samples: u64,
    /// Simulated time.
    pub sim_ns: u64,
    /// Migration counters.
    pub migrations: MigrationStats,
    /// Policy metadata footprint at end of run.
    pub metadata_bytes: usize,
    /// Per-layer accumulators, indexed by `Layer as usize`.
    pub layers: [Acc; Layer::ALL.len()],
    /// Accesses inside timed batches (the per-access denominators).
    pub timed_accesses: u64,
    /// Metadata lines the policy emitted while ingesting samples.
    pub sample_lines: u64,
    /// Final cache statistics (full hierarchy or the metadata cache).
    pub cache: Option<HierarchyStats>,
    /// The sampled page stream, up to a cap, for the CBF probe.
    pub sampled_pages: Vec<u64>,
}

impl Replica {
    /// One layer's accumulator.
    pub fn layer(&self, layer: Layer) -> &Acc {
        &self.layers[layer as usize]
    }

    /// Whether this run simulated exactly what the engine did: if not, the
    /// product pipeline changed shape and the ledger prices the wrong work.
    pub fn matches(&self, report: &SimReport) -> bool {
        self.ops == report.ops
            && self.accesses == report.accesses
            && self.samples == report.samples
            && self.sim_ns == report.sim_ns
            && self.migrations == report.migrations
            && self.metadata_bytes == report.metadata_bytes
    }
}

/// All mutable state of one staged run (mirrors `sim::Pipeline`).
struct Stage<'c> {
    cfg: &'c SimConfig,
    mem: TieredMemory,
    sampler: Sampler,
    ctx: PolicyCtx,
    hier: Option<CacheHierarchy>,
    meta_hier: Option<CacheHierarchy>,
    /// Per-rung `[access_ns, stream_ns]`.
    tier_ns: Vec<[u64; 2]>,
    ladder: bool,
    global_hist: LogHistogram,
    window_hist: LogHistogram,
    window_end: u64,
    prefetcher: StreamPrefetcher,
    recent_pages: [u64; 16],
    recent_cursor: usize,
    now_ns: u64,
    next_tick: u64,
    ops: u64,
    accesses: u64,
    samples: u64,
    moved_before: u64,
    wants_hook: bool,
    prefer: Tier,
    replay: bool,
    sample_buf: Vec<Sample>,
    fault_buf: Vec<PageId>,
    /// Scratch columns of one burst: ladder index and stream flag.
    rungs: Vec<u8>,
    streamed: Vec<bool>,
    /// This batch's op latencies, recorded again into `shadow_hist` under
    /// the clock (one op's `record` is too short to time in place).
    op_ns_buf: Vec<u64>,
    shadow_hist: LogHistogram,
    laps: Laps,
    timed_accesses: u64,
    sample_lines: u64,
    sampled_pages: Vec<u64>,
}

impl<'c> Stage<'c> {
    fn new<P: TieringPolicy + ?Sized>(
        cfg: &'c SimConfig,
        topology: TierTopology,
        policy: &P,
        replay: bool,
        epoch: Instant,
    ) -> Self {
        let tier_ns = topology
            .latency_table()
            .iter()
            .map(|t| [t.access_ns, t.stream_ns])
            .collect();
        let hier = cfg.cache.map(|c| CacheHierarchy::new(c.l1, c.llc));
        let meta_hier = (hier.is_none() && cfg.metadata_cache).then(|| {
            let level = |size_bytes| CacheConfig {
                size_bytes,
                ways: 8,
                line_bytes: 64,
            };
            CacheHierarchy::new(level(32 << 10), level(256 << 10))
        });
        Self {
            ladder: topology.n_tiers() > 2,
            mem: TieredMemory::with_topology(topology),
            sampler: Sampler::new(cfg.sample_period),
            ctx: PolicyCtx::new(),
            hier,
            meta_hier,
            tier_ns,
            global_hist: LogHistogram::new(),
            window_hist: LogHistogram::new(),
            window_end: cfg.window_ns,
            prefetcher: StreamPrefetcher::new(),
            recent_pages: [u64::MAX; 16],
            recent_cursor: 0,
            now_ns: 0,
            next_tick: cfg.tick_interval_ns,
            ops: 0,
            accesses: 0,
            samples: 0,
            moved_before: 0,
            wants_hook: policy.wants_access_hook(),
            prefer: policy.preferred_alloc_tier(),
            replay,
            sample_buf: Vec::with_capacity(16),
            fault_buf: Vec::with_capacity(64),
            rungs: Vec::with_capacity(64),
            streamed: Vec::with_capacity(64),
            op_ns_buf: Vec::with_capacity(64),
            shadow_hist: LogHistogram::new(),
            laps: Laps {
                epoch,
                timing: false,
                acc: [Acc::default(); Layer::ALL.len()],
            },
            timed_accesses: 0,
            sample_lines: 0,
            sampled_pages: Vec::new(),
            cfg,
        }
    }

    fn done(&self) -> bool {
        self.ops >= self.cfg.max_ops || self.now_ns >= self.cfg.max_sim_ns
    }

    /// Stage 1: refill `batch` and derive its page column.
    #[inline(never)]
    fn pull<const TIMED: bool, W: Workload + ?Sized>(
        &mut self,
        workload: &mut W,
        batch: &mut AccessBatch,
    ) -> bool {
        batch.clear();
        let budget = self.cfg.max_ops - self.ops;
        let n = if workload.batchable_now() {
            (self.cfg.batch_ops.max(1) as u64).min(budget).max(1) as usize
        } else {
            1
        };
        let mut t = self.laps.now::<TIMED>();
        let filled = workload.fill_batch(self.now_ns, n, batch);
        let fill = if self.replay {
            Layer::ReplayFill
        } else {
            Layer::Fill
        };
        self.laps
            .lap::<TIMED>(fill, &mut t, batch.total_accesses() as u64);
        if filled == 0 {
            return false;
        }
        batch.compute_pages(self.cfg.page_size);
        self.laps
            .lap::<TIMED>(Layer::Pages, &mut t, batch.total_accesses() as u64);
        true
    }

    /// Stages 2–5 for operation `idx` of the current batch.
    #[inline(never)]
    fn op<const TIMED: bool, P: TieringPolicy + ?Sized>(
        &mut self,
        policy: &mut P,
        batch: &AccessBatch,
        idx: usize,
    ) {
        let (op, start, end) = batch.op_bounds(idx);
        let addrs = &batch.addrs()[start..end];
        let pages = &batch.pages()[start..end];
        let writes = &batch.writes()[start..end];
        let burst = addrs.len();
        self.fault_buf.clear();
        self.sample_buf.clear();
        self.accesses += burst as u64;
        if self.laps.timing {
            self.timed_accesses += burst as u64;
        }

        // Access stage, one layer at a time.
        let mut t = self.laps.now::<TIMED>();
        let mut sampling = true;
        if u64::from(self.sampler.due_in()) > burst as u64 {
            self.sampler.skip(burst as u32);
            sampling = false;
        }
        self.laps.lap::<TIMED>(Layer::Sampler, &mut t, 0);

        self.rungs.clear();
        if self.ladder {
            for &p in pages {
                let rung = self.mem.ensure_mapped_indexed(PageId(p), self.prefer);
                self.rungs.push(rung as u8);
            }
        } else {
            for &p in pages {
                let tier = self.mem.ensure_mapped(PageId(p), self.prefer);
                self.rungs.push((tier != Tier::Fast) as u8);
            }
        }
        self.laps.lap::<TIMED>(Layer::Map, &mut t, burst as u64);

        self.streamed.clear();
        for &a in addrs {
            let s = self.prefetcher.observe(a);
            self.streamed.push(s);
        }
        self.laps
            .lap::<TIMED>(Layer::Prefetch, &mut t, burst as u64);

        let mut op_ns = op.cpu_ns;
        let memory_ns = self
            .rungs
            .iter()
            .zip(&self.streamed)
            .map(|(&rung, &streamed)| self.tier_ns[rung as usize][streamed as usize]);
        match &mut self.hier {
            Some(h) => {
                for (&addr, memory_ns) in addrs.iter().zip(memory_ns) {
                    op_ns += match h.access(addr, Source::App) {
                        HitLevel::L1 => self.cfg.latency.l1_hit_ns,
                        HitLevel::Llc => self.cfg.latency.llc_hit_ns,
                        HitLevel::Memory => memory_ns,
                    };
                }
                self.laps
                    .lap::<TIMED>(Layer::CacheApp, &mut t, burst as u64);
            }
            None => op_ns += memory_ns.sum::<u64>(),
        }

        if sampling {
            t = self.laps.now::<TIMED>();
            for i in 0..burst {
                if self.sampler.tick() {
                    let tier = if self.rungs[i] == 0 {
                        Tier::Fast
                    } else {
                        Tier::Slow
                    };
                    self.collect_sample(addrs[i], writes[i], PageId(pages[i]), tier);
                }
            }
            self.laps
                .lap::<TIMED>(Layer::Sampler, &mut t, self.sample_buf.len() as u64);
        }

        // Policy stage.
        if self.wants_hook && burst > 0 {
            t = self.laps.now::<TIMED>();
            self.fault_buf.extend(pages.iter().map(|&p| PageId(p)));
            op_ns +=
                policy.on_access_batch(&self.fault_buf, self.now_ns, &mut self.mem, &mut self.ctx);
            self.laps.lap::<TIMED>(Layer::Hook, &mut t, burst as u64);
        }
        if !self.sample_buf.is_empty() {
            let lines_before = self.ctx.metadata_lines.len();
            t = self.laps.now::<TIMED>();
            policy.on_sample_batch(&self.sample_buf, &mut self.mem, &mut self.ctx);
            self.laps
                .lap::<TIMED>(Layer::Sample, &mut t, self.sample_buf.len() as u64);
            self.sample_lines += (self.ctx.metadata_lines.len() - lines_before) as u64;
            let room = SAMPLED_PAGES_CAP - self.sampled_pages.len();
            self.sampled_pages
                .extend(self.sample_buf.iter().take(room).map(|s| s.page.0));
        }

        // Migrate stage.
        if self.now_ns >= self.next_tick {
            t = self.laps.now::<TIMED>();
            policy.on_tick(self.now_ns, &mut self.mem, &mut self.ctx);
            self.laps.lap::<TIMED>(Layer::Tick, &mut t, 1);
            self.next_tick = self.now_ns + self.cfg.tick_interval_ns;
        }

        // Account stage.
        let stats = self.mem.stats();
        let moved_now = stats.promotions + stats.demotions;
        let moved = moved_now - self.moved_before;
        self.moved_before = moved_now;
        if moved > 0 {
            let mig_ns = if self.ladder {
                self.mem.take_migration_ns()
            } else {
                moved * self.cfg.latency.migrate_page_ns(self.cfg.page_size)
            };
            op_ns += charge_scaled(mig_ns, self.cfg.migration_charge);
        }
        if self.ctx.tiering_work_ns > 0 {
            op_ns += charge_scaled(self.ctx.tiering_work_ns, self.cfg.tiering_work_charge);
        }
        if !self.ctx.metadata_lines.is_empty() {
            let lines = self.ctx.metadata_lines.len() as u64;
            if let Some(h) = &mut self.hier {
                t = self.laps.now::<TIMED>();
                for &line in &self.ctx.metadata_lines {
                    h.access(line, Source::Tiering);
                }
                self.laps.lap::<TIMED>(Layer::CacheTiering, &mut t, lines);
            } else if let Some(h) = &mut self.meta_hier {
                t = self.laps.now::<TIMED>();
                let mut interference = 0u64;
                for &line in &self.ctx.metadata_lines {
                    interference += match h.access(line, Source::Tiering) {
                        HitLevel::L1 => 0,
                        HitLevel::Llc => 6,
                        HitLevel::Memory => 60,
                    };
                }
                self.laps.lap::<TIMED>(Layer::CacheTiering, &mut t, lines);
                op_ns += charge_scaled(interference, self.cfg.tiering_work_charge);
            }
        }
        self.ctx.drain();

        // Clock advance and latency windows.
        self.now_ns += op_ns.max(1);
        self.ops += 1;
        self.window_hist.record(op_ns);
        if self.laps.timing {
            self.op_ns_buf.push(op_ns);
        }
        while self.now_ns >= self.window_end {
            std::hint::black_box((self.window_hist.p50(), self.window_hist.mean()));
            self.global_hist.merge(&self.window_hist);
            self.window_hist.clear();
            self.window_end += self.cfg.window_ns;
        }
    }

    #[inline]
    fn collect_sample(&mut self, addr: u64, is_write: bool, page: PageId, tier: Tier) {
        if self.recent_pages.contains(&page.0) {
            return;
        }
        self.recent_pages[self.recent_cursor] = page.0;
        self.recent_cursor = (self.recent_cursor + 1) % self.recent_pages.len();
        self.samples += 1;
        self.sample_buf.push(Sample {
            page,
            addr,
            tier,
            at_ns: self.now_ns,
            is_write,
        });
    }

    /// Re-records the timed batch's op latencies under the clock.
    fn flush_histo<const TIMED: bool>(&mut self) {
        if self.op_ns_buf.is_empty() {
            return;
        }
        let mut t = self.laps.now::<TIMED>();
        for &v in &self.op_ns_buf {
            self.shadow_hist.record(v);
        }
        self.laps
            .lap::<TIMED>(Layer::Histo, &mut t, self.op_ns_buf.len() as u64);
        self.op_ns_buf.clear();
    }
}

/// Drives one cell through the staged loop to completion.
fn staged<const TIMED: bool, W, P>(
    cfg: &SimConfig,
    workload: &mut W,
    policy: &mut P,
    topology: TierTopology,
    replay: bool,
    epoch: Instant,
) -> Replica
where
    W: Workload + ?Sized,
    P: TieringPolicy + ?Sized,
{
    let batch_ops = cfg.batch_ops.max(1);
    let mut stage = Stage::new(cfg, topology, policy, replay, epoch);
    let mut batch = AccessBatch::with_capacity(batch_ops, batch_ops * 4);
    let mut lcg = 0x9E37_79B9_7F4A_7C15u64;
    'run: while !stage.done() {
        lcg = lcg
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        stage.laps.timing = TIMED && (lcg >> 33).is_multiple_of(TIMED_EVERY);
        if !stage.pull::<TIMED, W>(workload, &mut batch) {
            break;
        }
        for idx in 0..batch.len() {
            stage.op::<TIMED, P>(policy, &batch, idx);
            if stage.done() {
                stage.flush_histo::<TIMED>();
                break 'run;
            }
        }
        stage.flush_histo::<TIMED>();
    }
    std::hint::black_box(&stage.shadow_hist);
    Replica {
        ops: stage.ops,
        accesses: stage.accesses,
        samples: stage.samples,
        sim_ns: stage.now_ns,
        migrations: stage.mem.stats(),
        metadata_bytes: policy.metadata_bytes(),
        layers: stage.laps.acc,
        timed_accesses: stage.timed_accesses,
        sample_lines: stage.sample_lines,
        cache: stage.hier.or(stage.meta_hier).map(|h| h.stats()),
        sampled_pages: stage.sampled_pages,
    }
}

/// How to run a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The staged loop, with (`true`) or without clock readings.
    Staged(bool),
    /// `Engine::run_typed[_ladder]`, monomorphized like the sweep runner.
    EngineTyped,
    /// The same pipeline instantiated over `dyn Workload`/`dyn
    /// TieringPolicy` — what `Engine::run` and the multi-tenant lanes use.
    EngineDyn,
}

/// What a cell run produced.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// From [`Mode::Staged`].
    Staged(Box<Replica>),
    /// From the engine modes.
    Engine(Box<SimReport>),
}

/// One run of one cell: when it ran (ns since the epoch, construction of
/// workload and policy excluded) and what it produced.
#[derive(Debug, Clone)]
pub struct CellRun {
    /// Start of the run proper.
    pub start_ns: u64,
    /// End of the run proper.
    pub end_ns: u64,
    /// Nanoseconds spent building the workload and policy beforehand.
    pub build_ns: u64,
    /// The run's product.
    pub outcome: Outcome,
}

impl CellRun {
    /// Wall nanoseconds of the run proper.
    pub fn wall_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Runs the single-application scenario `cell` in `mode`. Resolution of
/// workload, tier sizing, and policy follows `Scenario::run` exactly.
///
/// Errors (a multi-tenant scenario, an unreadable trace) are returned;
/// panics inside the product are the caller's to catch.
pub fn run_cell(cell: &Scenario, mode: Mode, epoch: Instant) -> Result<CellRun, String> {
    let ScenarioKind::Single {
        workload,
        policy,
        tier,
    } = &cell.kind
    else {
        return Err(format!("{}: not a single-application scenario", cell.label));
    };
    let job = Job {
        cfg: &cell.config,
        mode,
        epoch,
        built_from: Instant::now(),
        policy,
        tier,
        replay: matches!(workload, WorkloadSpec::Trace(_)),
    };
    match workload {
        WorkloadSpec::Suite(id) if mode != Mode::EngineDyn => {
            Ok(visit_workload(*id, cell.seed, job))
        }
        WorkloadSpec::Suite(id) => Ok(job.with_workload(build_workload(*id, cell.seed).as_mut())),
        WorkloadSpec::Custom { build, .. } => Ok(job.with_workload(build(cell.seed).as_mut())),
        WorkloadSpec::Trace(path) => {
            let mut w = TraceReplayWorkload::open(path)
                .map_err(|e| format!("{}: cannot open trace: {e}", cell.label))?;
            if mode == Mode::EngineDyn {
                let w: &mut dyn Workload = &mut w;
                Ok(job.with_workload(w))
            } else {
                Ok(job.with_workload(&mut w))
            }
        }
    }
}

/// Everything needed to finish resolving a cell once its workload exists.
struct Job<'a> {
    cfg: &'a SimConfig,
    mode: Mode,
    epoch: Instant,
    built_from: Instant,
    policy: &'a PolicySpec,
    tier: &'a TierSpec,
    replay: bool,
}

impl WorkloadVisitor for Job<'_> {
    type Out = CellRun;
    fn visit<W: Workload + 'static>(self, mut workload: W) -> CellRun {
        self.with_workload(&mut workload)
    }
}

impl Job<'_> {
    fn with_workload<W: Workload + ?Sized>(self, workload: &mut W) -> CellRun {
        let page_size = self.cfg.page_size;
        let pages = workload.footprint_pages(page_size);
        let ladder = match self.tier {
            TierSpec::Ladder(kind) => Some(kind.topology(pages, page_size)),
            _ => None,
        };
        let tier_cfg = match (self.tier, &ladder) {
            (_, Some(topology)) => topology.as_tier_config(),
            (TierSpec::Ratio(ratio), _) => TierConfig::for_footprint(pages, *ratio, page_size),
            (TierSpec::Explicit(cfg), _) => *cfg,
            (TierSpec::AllFast | TierSpec::Ladder(_), _) => TierConfig::all_fast(pages, page_size),
        };
        match self.policy {
            PolicySpec::Kind(kind) if self.mode != Mode::EngineDyn => visit_policy(
                *kind,
                &tier_cfg,
                WithWorkload {
                    job: self,
                    workload,
                    tier_cfg,
                    ladder,
                },
            ),
            PolicySpec::Kind(kind) => {
                let mut policy = build_policy(*kind, &tier_cfg);
                self.run(workload, policy.as_mut(), tier_cfg, ladder)
            }
            PolicySpec::Custom { build, .. } => {
                let mut policy = build(&tier_cfg);
                self.run(workload, policy.as_mut(), tier_cfg, ladder)
            }
        }
    }

    fn run<W, P>(
        self,
        workload: &mut W,
        policy: &mut P,
        tier_cfg: TierConfig,
        ladder: Option<TierTopology>,
    ) -> CellRun
    where
        W: Workload + ?Sized,
        P: TieringPolicy + ?Sized,
    {
        let engine = Engine::new(self.cfg.clone());
        let build_ns = self.built_from.elapsed().as_nanos() as u64;
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let outcome = match self.mode {
            Mode::Staged(timed) => {
                let topology =
                    ladder.unwrap_or_else(|| TierTopology::two_tier(tier_cfg, &self.cfg.latency));
                let replica = if timed {
                    staged::<true, W, P>(
                        self.cfg,
                        workload,
                        policy,
                        topology,
                        self.replay,
                        self.epoch,
                    )
                } else {
                    staged::<false, W, P>(
                        self.cfg,
                        workload,
                        policy,
                        topology,
                        self.replay,
                        self.epoch,
                    )
                };
                Outcome::Staged(Box::new(replica))
            }
            Mode::EngineTyped | Mode::EngineDyn => Outcome::Engine(Box::new(match ladder {
                Some(topology) => engine.run_typed_ladder(workload, policy, topology),
                None => engine.run_typed(workload, policy, tier_cfg),
            })),
        };
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        CellRun {
            start_ns,
            end_ns,
            build_ns,
            outcome,
        }
    }
}

struct WithWorkload<'a, W: ?Sized> {
    job: Job<'a>,
    workload: &'a mut W,
    tier_cfg: TierConfig,
    ladder: Option<TierTopology>,
}

impl<W: Workload + ?Sized> PolicyVisitor for WithWorkload<'_, W> {
    type Out = CellRun;
    fn visit<P: TieringPolicy + 'static>(self, mut policy: P) -> CellRun {
        self.job
            .run(self.workload, &mut policy, self.tier_cfg, self.ladder)
    }
}

/// Nanoseconds one clock reading costs on this host right now (median of a
/// few back-to-back bursts).
pub fn timer_cost_ns() -> f64 {
    const READS: u32 = 20_000;
    let mut costs: Vec<f64> = (0..9)
        .map(|_| {
            let epoch = Instant::now();
            let mut last = 0u64;
            for _ in 0..READS {
                last = std::hint::black_box(epoch.elapsed().as_nanos() as u64);
            }
            last as f64 / f64::from(READS)
        })
        .collect();
    costs.sort_by(f64::total_cmp);
    costs[costs.len() / 2]
}
