//! The batched simulation pipeline and [`SimRun`], the one loop that drives
//! it.
//!
//! A run is a pipeline over [`AccessBatch`]es, split into stages:
//!
//! 1. **pull** — [`Workload::fill_batch`] emits up to
//!    [`SimConfig::batch_ops`](crate::SimConfig::batch_ops) operations per
//!    virtual call. A workload is batch-pulled only while its
//!    [`batchable_now`](Workload::batchable_now) reports independence from
//!    simulated time; otherwise the stage degrades to one op per pull, so
//!    batching can never perturb time-triggered behaviour.
//! 2. **access** — per access: page mapping, tier accounting, stream
//!    detection, cache/memory latency. The stage iterates the batch's flat
//!    SoA columns (`addrs`/`pages`/`writes` — the page column is derived
//!    once per batch in stage 1), with per-burst invariants hoisted out of
//!    the loop. Fault-hook pages and PEBS samples are *collected* here;
//!    [`Sampler::due_in`]/[`Sampler::skip`] step over whole unsampled
//!    bursts in one comparison.
//! 3. **policy** — the collected burst is delivered in two batched virtual
//!    calls: [`TieringPolicy::on_access_batch`] (hint faults, charged to the
//!    op) and [`TieringPolicy::on_sample_batch`]. This mirrors the real
//!    runtime, which drains the PEBS buffer in runs (paper Algorithm 1)
//!    rather than interrupting the application per record.
//! 4. **migrate** — the periodic policy tick (cooling, watermark demotion).
//! 5. **account** — migration-bandwidth and tiering-CPU interference
//!    charges, metadata cache replay, clock advance, and latency windows.
//!
//! Every batch size shares every stage, so for a fixed seed all produce
//! byte-identical [`SimReport`]s — asserted by the `batch_equivalence`
//! integration tests.
//!
//! [`SimRun::run_until`] is the only caller of the pull stage and of stages
//! 2–5. [`Engine`](crate::Engine) drives one run to completion in a single
//! call; [`MultiTenantEngine`](crate::MultiTenantEngine) holds one run per
//! tenant and steps it to each rebalance boundary; the `diag` binary steps
//! one to each report boundary. Stopping between two calls changes nothing:
//! pulled ops wait in the run for the next call.
//!
//! Stage 3 delivers a burst's policy events at burst end, not interleaved
//! between its accesses. Within one op the simulated clock does not
//! advance, so event timestamps are exact; only intra-burst placement
//! visibility differs — the way real systems behave (fault service and
//! sample drain complete after the touching instruction retires, not
//! between two loads of one request).

use std::fmt;

use cache_sim::{CacheConfig, CacheHierarchy, HierarchyStats, HitLevel, Source};
use tiering_mem::{LatencyModel, PageId, Tier, TierTopology, TieredMemory};
use tiering_policies::{PolicyCtx, TieringPolicy};
use tiering_trace::{AccessBatch, Sample, Sampler, Workload};

use crate::charge::charge_scaled;
use crate::histo::LogHistogram;
use crate::hotness::{CountDistribution, RetentionProbe};
use crate::prefetch::StreamPrefetcher;
use crate::report::{CacheTimelinePoint, LatencySummary, SimReport, TimelinePoint};
use crate::SimConfig;

/// A resumable simulation run: one pipeline plus the ops pulled from the
/// workload but not yet simulated. Stepped through any sequence of
/// [`run_until`](SimRun::run_until) bounds, it seals the report of one
/// unbounded call.
pub struct SimRun<'c> {
    pipeline: Pipeline<'c>,
    batch: AccessBatch,
    /// Next unsimulated op of `batch`.
    cursor: usize,
    /// The workload's last pull came back empty.
    exhausted: bool,
    /// Ops pulled per workload call ([`SimConfig::batch_ops`], at least 1).
    batch_ops: usize,
}

impl<'c> SimRun<'c> {
    /// A fresh run of `policy` over `topology` (the classic testbed is
    /// [`TierTopology::two_tier`] over `cfg.latency`).
    pub fn new<P: TieringPolicy + ?Sized>(
        cfg: &'c SimConfig,
        topology: TierTopology,
        policy: &P,
    ) -> Self {
        let batch_ops = cfg.batch_ops.max(1);
        Self {
            pipeline: Pipeline::with_topology(cfg, topology, policy),
            batch: AccessBatch::with_capacity(batch_ops, batch_ops * 4),
            cursor: 0,
            exhausted: false,
            batch_ops,
        }
    }

    /// Simulates operations until the run hits an engine cap, its clock
    /// reaches `until_ns`, or the workload is exhausted. Ops pulled but not
    /// simulated are kept for the next call — legal because a workload is
    /// batch-pulled only while its output does not depend on the clock.
    pub fn run_until<W, P>(&mut self, workload: &mut W, policy: &mut P, until_ns: u64)
    where
        W: Workload + ?Sized,
        P: TieringPolicy + ?Sized,
    {
        // Split borrows once per call, so the per-op loop runs on locals.
        let Self {
            pipeline,
            batch,
            cursor,
            exhausted,
            batch_ops,
        } = self;
        let mut next = *cursor;
        while !pipeline.done() && pipeline.now_ns < until_ns {
            if next >= batch.len() {
                if *exhausted || !pipeline.stage_pull(workload, batch, *batch_ops) {
                    *exhausted = true;
                    break;
                }
                next = 0;
            }
            pipeline.stage_op(policy, batch, next);
            next += 1;
        }
        *cursor = next;
    }

    /// Whether an engine cap was hit or the workload is exhausted.
    pub fn finished(&self) -> bool {
        self.exhausted || self.pipeline.done()
    }

    /// Simulated time of this run.
    pub fn now_ns(&self) -> u64 {
        self.pipeline.now_ns
    }

    /// Operations simulated so far.
    pub fn ops(&self) -> u64 {
        self.pipeline.ops
    }

    /// Accesses simulated so far.
    pub fn accesses(&self) -> u64 {
        self.pipeline.accesses
    }

    /// Accesses served by tier 0 so far.
    pub fn fast_hits(&self) -> u64 {
        self.pipeline.fast_hits
    }

    /// The run's tiered memory (placement, migration counters).
    pub fn mem(&self) -> &TieredMemory {
        &self.pipeline.mem
    }

    /// Applies a controller-assigned fast-tier quota (paper §7). Shrinking
    /// below occupancy is fine — watermark demotion drains the excess.
    pub(crate) fn set_fast_capacity(&mut self, pages: u64) {
        self.pipeline.mem.set_fast_capacity(pages);
    }

    /// The whole-run latency histogram so far: the flushed windows plus the
    /// in-flight one (the fleet aggregate merges these). Bucket merge is
    /// addition, so this equals per-op recording into one histogram.
    pub(crate) fn hist(&self) -> LogHistogram {
        let mut h = self.pipeline.global_hist.clone();
        h.merge(&self.pipeline.window_hist);
        h
    }

    /// Buckets both latency histograms allocate (the footprint meter).
    #[cfg(test)]
    pub(crate) fn histogram_buckets(&self) -> usize {
        self.pipeline.global_hist.allocated_buckets()
            + self.pipeline.window_hist.allocated_buckets()
    }

    /// Seals the run into a [`SimReport`].
    pub fn finish<P: TieringPolicy + ?Sized>(self, workload_name: &str, policy: &P) -> SimReport {
        self.pipeline.finish(workload_name, policy)
    }
}

impl fmt::Debug for SimRun<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimRun")
            .field("now_ns", &self.now_ns())
            .field("ops", &self.ops())
            .finish_non_exhaustive()
    }
}

/// All mutable state of one simulation run, advanced stage by stage.
struct Pipeline<'c> {
    cfg: &'c SimConfig,
    mem: TieredMemory,
    sampler: Sampler,
    ctx: PolicyCtx,
    hier: Option<CacheHierarchy>,
    meta_hier: Option<CacheHierarchy>,
    latency: LatencyModel,
    /// Per-rung `[access_ns, stream_ns]` rows, indexed by ladder index (the
    /// classic testbed is the two-row case).
    tier_ns: Vec<[u64; 2]>,

    global_hist: LogHistogram,
    window_hist: LogHistogram,
    timeline: Vec<TimelinePoint>,
    cache_timeline: Vec<CacheTimelinePoint>,
    window_end: u64,
    last_cache_stats: HierarchyStats,

    counts: Vec<u8>,
    retention: Option<RetentionProbe>,

    prefetcher: StreamPrefetcher,
    recent_pages: [u64; 16],
    recent_cursor: usize,

    now_ns: u64,
    next_tick: u64,
    ops: u64,
    accesses: u64,
    samples: u64,
    fast_hits: u64,

    wants_hook: bool,
    prefer: Tier,

    /// Per-op collection buffers (reused; cleared each op).
    sample_buf: Vec<Sample>,
    fault_buf: Vec<PageId>,
}

impl<'c> Pipeline<'c> {
    /// A fresh run over `topology` (see [`SimRun::new`]).
    fn with_topology<P: TieringPolicy + ?Sized>(
        cfg: &'c SimConfig,
        topology: TierTopology,
        policy: &P,
    ) -> Self {
        let address_space_pages = topology.address_space_pages();
        let tier_ns = topology
            .latency_table()
            .iter()
            .map(|t| [t.access_ns, t.stream_ns])
            .collect();
        let hier = cfg.cache.map(|c| CacheHierarchy::new(c.l1, c.llc));
        // Dedicated metadata cache: the tiering thread's 32 KiB L1 plus a
        // 256 KiB LLC slice (its fair share of a contended LLC).
        let meta_hier = if hier.is_none() && cfg.metadata_cache {
            Some(CacheHierarchy::new(
                CacheConfig {
                    size_bytes: 32 << 10,
                    ways: 8,
                    line_bytes: 64,
                },
                CacheConfig {
                    size_bytes: 256 << 10,
                    ways: 8,
                    line_bytes: 64,
                },
            ))
        } else {
            None
        };
        Self {
            mem: TieredMemory::with_topology(topology),
            sampler: Sampler::new(cfg.sample_period),
            ctx: PolicyCtx::new(),
            hier,
            meta_hier,
            latency: cfg.latency,
            tier_ns,
            global_hist: LogHistogram::new(),
            window_hist: LogHistogram::new(),
            timeline: Vec::new(),
            cache_timeline: Vec::new(),
            window_end: cfg.window_ns,
            last_cache_stats: HierarchyStats::default(),
            counts: if cfg.count_probe {
                vec![0; address_space_pages as usize]
            } else {
                Vec::new()
            },
            retention: cfg.retention_probe.map(RetentionProbe::new),
            prefetcher: StreamPrefetcher::new(),
            recent_pages: [u64::MAX; 16],
            recent_cursor: 0,
            now_ns: 0,
            next_tick: cfg.tick_interval_ns,
            ops: 0,
            accesses: 0,
            samples: 0,
            fast_hits: 0,
            wants_hook: policy.wants_access_hook(),
            prefer: policy.preferred_alloc_tier(),
            sample_buf: Vec::with_capacity(16),
            fault_buf: Vec::with_capacity(64),
            cfg,
        }
    }

    /// Whether the run has hit an op or simulated-time cap.
    fn done(&self) -> bool {
        self.ops >= self.cfg.max_ops || self.now_ns >= self.cfg.max_sim_ns
    }

    /// Stage 1 — pull: refills `batch` from the workload and derives its
    /// page column (one sequential pass). Returns `false` when the workload
    /// is exhausted.
    ///
    /// `max_ops` is the configured batch size; the pull degrades to a single
    /// op whenever the workload's output may depend on the current clock.
    fn stage_pull<W: Workload + ?Sized>(
        &mut self,
        workload: &mut W,
        batch: &mut AccessBatch,
        max_ops: usize,
    ) -> bool {
        batch.clear();
        let budget = self.cfg.max_ops - self.ops; // done() guarantees > 0
        let n = if workload.batchable_now() {
            (max_ops as u64).min(budget).max(1) as usize
        } else {
            1
        };
        if workload.fill_batch(self.now_ns, n, batch) == 0 {
            return false;
        }
        batch.compute_pages(self.cfg.page_size);
        true
    }

    /// Stages 2–5 for operation `idx` of the current batch.
    ///
    /// # Panics
    ///
    /// Panics if the workload emitted an address outside its declared
    /// footprint (a workload bug worth failing loudly on).
    fn stage_op<P: TieringPolicy + ?Sized>(
        &mut self,
        policy: &mut P,
        batch: &AccessBatch,
        idx: usize,
    ) {
        let (op, start, end) = batch.op_bounds(idx);
        let mut op_ns = op.cpu_ns;
        op_ns += self.access_stage(
            &batch.addrs()[start..end],
            &batch.pages()[start..end],
            &batch.writes()[start..end],
        );
        op_ns += self.policy_stage(policy);
        self.migrate_stage(policy);
        op_ns += self.account_stage();
        self.advance(op_ns);
    }

    /// Stage 2 — access: replay the burst through mapping, stream
    /// detection, and the cache/latency model; collect fault pages and PEBS
    /// samples for the policy stage. Returns the nanoseconds charged.
    ///
    /// Consumes the batch's SoA columns directly (`addrs`/`pages`/`writes`
    /// are parallel slices for this op's burst). Per-burst invariants —
    /// allocation preference, hook flag, cache-sim presence — are hoisted
    /// out of the loop, and the common no-cache-sim/no-sample/no-hook burst
    /// runs a minimal map→stream→latency loop. Both loops index the
    /// per-rung cost table by ladder position, so two tiers and deeper
    /// ladders run the same code.
    fn access_stage(&mut self, addrs: &[u64], pages: &[u64], writes: &[bool]) -> u64 {
        self.fault_buf.clear();
        self.sample_buf.clear();

        // Whole-burst sampler fast path: if no sample can fall inside this
        // burst, retire it with one counter adjustment.
        let burst_len = addrs.len() as u64;
        let mut sampling = true;
        if u64::from(self.sampler.due_in()) > burst_len {
            self.sampler.skip(burst_len as u32);
            sampling = false;
        }
        self.accesses += burst_len;

        // Hoisted per-burst invariants: allocation preference, hook flag.
        // The direct-to-memory cost is `tier_ns[ladder index][streamed]`;
        // the fast-hit statistic is "resident in tier 0".
        let prefer = self.prefer;
        let wants_hook = self.wants_hook;
        let mut burst_ns = 0u64;
        let mut fast_hits = 0u64;

        if self.hier.is_none() && !sampling && !wants_hook {
            // The dominant burst shape in sweep runs: no cache simulation,
            // no sample due, no fault hook — pure map → stream → latency.
            for i in 0..addrs.len() {
                let idx = self.mem.ensure_mapped_indexed(PageId(pages[i]), prefer);
                fast_hits += (idx == 0) as u64;
                let streamed = self.prefetcher.observe(addrs[i]) as usize;
                burst_ns += self.tier_ns[idx][streamed];
            }
        } else {
            for i in 0..addrs.len() {
                let page = PageId(pages[i]);
                let idx = self.mem.ensure_mapped_indexed(page, prefer);
                fast_hits += (idx == 0) as u64;

                // Application access latency: through the cache if enabled;
                // memory-level accesses that continue a detected sequential
                // stream are charged the (bandwidth-bound) prefetched cost.
                let streamed = self.prefetcher.observe(addrs[i]) as usize;
                let memory_ns = self.tier_ns[idx][streamed];
                burst_ns += match &mut self.hier {
                    Some(h) => match h.access(addrs[i], Source::App) {
                        HitLevel::L1 => self.latency.l1_hit_ns,
                        HitLevel::Llc => self.latency.llc_hit_ns,
                        HitLevel::Memory => memory_ns,
                    },
                    None => memory_ns,
                };

                // Fault-hook collection (recency policies): delivered as one
                // batch in the policy stage, charged to this op.
                if wants_hook {
                    self.fault_buf.push(page);
                }

                // PEBS sampling (samples carry the binary tier facade).
                if sampling && self.sampler.tick() {
                    let tier = if idx == 0 { Tier::Fast } else { Tier::Slow };
                    self.collect_sample(addrs[i], writes[i], page, tier);
                }
            }
        }
        self.fast_hits += fast_hits;
        burst_ns
    }

    /// Handles one selected PEBS sample: burst filtering, probes, and
    /// buffering for the policy stage.
    ///
    /// Burst filter: at real PEBS periods a sequential sweep yields at most
    /// one sample per page, because the period far exceeds a page's line
    /// count. Our scaled period is dense enough that a streamed page would
    /// register several times within microseconds; suppressing page repeats
    /// within a short sample window restores the hardware behaviour
    /// (momentum then measures sustained intensity, not one sweep's burst).
    #[inline]
    fn collect_sample(&mut self, addr: u64, is_write: bool, page: PageId, tier: Tier) {
        if self.recent_pages.contains(&page.0) {
            return;
        }
        self.recent_pages[self.recent_cursor] = page.0;
        self.recent_cursor = (self.recent_cursor + 1) % self.recent_pages.len();
        self.samples += 1;
        if self.cfg.count_probe {
            let c = &mut self.counts[page.0 as usize];
            *c = (*c + 1).min(15);
        }
        if let Some(r) = &mut self.retention {
            r.record(page, self.now_ns);
        }
        self.sample_buf.push(Sample {
            page,
            addr,
            tier,
            at_ns: self.now_ns,
            is_write,
        });
    }

    /// Stage 3 — policy: deliver the burst's fault pages and samples in two
    /// batched virtual calls. Returns fault-service nanoseconds charged to
    /// the op.
    fn policy_stage<P: TieringPolicy + ?Sized>(&mut self, policy: &mut P) -> u64 {
        let mut hook_ns = 0;
        if self.wants_hook && !self.fault_buf.is_empty() {
            hook_ns =
                policy.on_access_batch(&self.fault_buf, self.now_ns, &mut self.mem, &mut self.ctx);
        }
        if !self.sample_buf.is_empty() {
            policy.on_sample_batch(&self.sample_buf, &mut self.mem, &mut self.ctx);
        }
        hook_ns
    }

    /// Stage 4 — migrate: the policy's periodic maintenance tick (promotion
    /// flushes, cooling, watermark demotion scans).
    fn migrate_stage<P: TieringPolicy + ?Sized>(&mut self, policy: &mut P) {
        if self.now_ns >= self.next_tick {
            policy.on_tick(self.now_ns, &mut self.mem, &mut self.ctx);
            self.next_tick = self.now_ns + self.cfg.tick_interval_ns;
        }
    }

    /// Stage 5 — account: charge asynchronous tiering costs (migration
    /// bandwidth, tiering-thread CPU, metadata cache traffic) to the
    /// application clock. Returns the nanoseconds charged.
    fn account_stage(&mut self) -> u64 {
        let cfg = self.cfg;
        let mut charged = 0;
        // Every hop since the last op, each charged at its slower rung's
        // rate when it happened.
        let mig_ns = self.mem.take_migration_ns();
        if mig_ns > 0 {
            charged += charge_scaled(mig_ns, cfg.migration_charge);
        }
        if self.ctx.tiering_work_ns > 0 {
            charged += charge_scaled(self.ctx.tiering_work_ns, cfg.tiering_work_charge);
        }
        // Replay metadata traffic through the cache, attributed to the
        // tiering runtime. Most ops touch no metadata and skip the call.
        let lines = &self.ctx.metadata_lines;
        if !lines.is_empty() {
            if let Some(h) = &mut self.hier {
                h.access_all(lines, Source::Tiering);
            } else if let Some(h) = &mut self.meta_hier {
                let [_, llc, memory] = h.access_all(lines, Source::Tiering);
                charged += charge_scaled(6 * llc + 60 * memory, cfg.tiering_work_charge);
            }
        }
        self.ctx.drain();
        charged
    }

    /// Clock advance and latency-window bookkeeping after one op.
    fn advance(&mut self, op_ns: u64) {
        self.now_ns += op_ns.max(1);
        self.ops += 1;
        // One bucket update per op: the whole-run histogram absorbs each
        // window wholesale at flush time (addition commutes, so the final
        // counts are identical to recording into both).
        self.window_hist.record(op_ns);

        while self.now_ns >= self.window_end {
            self.timeline.push(TimelinePoint {
                t_ns: self.window_end,
                p50_ns: self.window_hist.p50(),
                mean_ns: self.window_hist.mean() as u64,
                ops: self.window_hist.count(),
            });
            if let Some(h) = &self.hier {
                let s = h.stats();
                let dl1_t = s.l1.by(Source::Tiering).misses
                    - self.last_cache_stats.l1.by(Source::Tiering).misses;
                let dl1 = s.l1.total_misses() - self.last_cache_stats.l1.total_misses();
                let dllc_t = s.llc.by(Source::Tiering).misses
                    - self.last_cache_stats.llc.by(Source::Tiering).misses;
                let dllc = s.llc.total_misses() - self.last_cache_stats.llc.total_misses();
                self.cache_timeline.push(CacheTimelinePoint {
                    t_ns: self.window_end,
                    l1_tiering_frac: if dl1 == 0 {
                        0.0
                    } else {
                        dl1_t as f64 / dl1 as f64
                    },
                    llc_tiering_frac: if dllc == 0 {
                        0.0
                    } else {
                        dllc_t as f64 / dllc as f64
                    },
                });
                self.last_cache_stats = s;
            }
            self.global_hist.merge(&self.window_hist);
            self.window_hist.clear();
            self.window_end += self.cfg.window_ns;
        }
    }

    /// Seals the run into a [`SimReport`].
    fn finish<P: TieringPolicy + ?Sized>(mut self, workload_name: &str, policy: &P) -> SimReport {
        // Final partial window.
        if self.window_hist.count() > 0 {
            self.timeline.push(TimelinePoint {
                t_ns: self.now_ns,
                p50_ns: self.window_hist.p50(),
                mean_ns: self.window_hist.mean() as u64,
                ops: self.window_hist.count(),
            });
        }
        self.global_hist.merge(&self.window_hist);

        SimReport {
            workload: workload_name.to_string(),
            policy: policy.name().to_string(),
            ops: self.ops,
            accesses: self.accesses,
            samples: self.samples,
            sim_ns: self.now_ns,
            latency: LatencySummary::from_histogram(&self.global_hist),
            timeline: self.timeline,
            cache_timeline: self.cache_timeline,
            cache: self.hier.map(|h| h.stats()),
            migrations: self.mem.stats(),
            fast_hit_frac: if self.accesses == 0 {
                0.0
            } else {
                self.fast_hits as f64 / self.accesses as f64
            },
            metadata_bytes: policy.metadata_bytes(),
            count_distribution: if self.cfg.count_probe {
                Some(CountDistribution::from_counts(&self.counts))
            } else {
                None
            },
            retention: self.retention.map(|r| r.finish(self.now_ns)),
        }
    }
}
