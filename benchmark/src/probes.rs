//! Fixed-input probes for the layers the staged loop cannot price in place:
//! code that runs *inside* a policy call (CBF kernels, page migration),
//! beside the pipeline (trace codec, controller, shard dispatch), or above
//! it (the multi-tenant engine). Each drives public functions only, on the
//! same small input for every workload, so its numbers compare across
//! workloads and across commits.

use std::path::Path;
use std::time::Instant;

use hybridtier::cbf::{AccessCounter, BlockedCbf, CbfParams, CounterWidth, StandardCbf};
use hybridtier::mem::{PageId, PageSize, Tier, TierConfig, TierRatio, TieredMemory};
use hybridtier::policies::{ControllerMode, GlobalController, ObjectiveKind, PolicyKind};
use hybridtier::runner::remote::{sweep_coordinator, FleetConfig};
use hybridtier::runner::{derive_seed, Scenario, ScenarioMatrix};
use hybridtier::sim::SimConfig;
use hybridtier::trace::{Access, Op, TraceReader, TraceWriter, Workload};
use hybridtier::workloads::{build_workload, WorkloadId};

use crate::error::BenchError;
use crate::workloads::TRACE_CHUNK_OPS;

/// Nanoseconds per CBF operation, by layout.
#[derive(Debug, Clone, Copy, Default)]
pub struct CbfCosts {
    /// `BlockedCbf::increment`.
    pub blocked_incr_ns: f64,
    /// `BlockedCbf::estimate`.
    pub blocked_get_ns: f64,
    /// `StandardCbf::increment`.
    pub standard_incr_ns: f64,
    /// `StandardCbf::estimate`.
    pub standard_get_ns: f64,
}

/// Replays a sampled page stream into both CBF layouts, sized as HybridTier
/// sizes its frequency tracker at this repository's footprints (the
/// 16 Ki-key floor, k = 4, 0.1 % error, 4-bit counters). All zeros for an
/// empty stream.
pub fn cbf(pages: &[u64]) -> CbfCosts {
    if pages.is_empty() {
        return CbfCosts::default();
    }
    let params = CbfParams::for_capacity(16_384, 4, 0.001, CounterWidth::W4);
    fn per_op<C: AccessCounter>(mut counter: C, pages: &[u64]) -> (f64, f64) {
        let start = Instant::now();
        let mut acc = 0u32;
        for &p in pages {
            acc = acc.wrapping_add(counter.increment(p));
        }
        let incr = start.elapsed().as_nanos() as f64;
        let start = Instant::now();
        for &p in pages {
            acc = acc.wrapping_add(counter.estimate(p));
        }
        let get = start.elapsed().as_nanos() as f64;
        std::hint::black_box(acc);
        (incr / pages.len() as f64, get / pages.len() as f64)
    }
    let (blocked_incr_ns, blocked_get_ns) = per_op(BlockedCbf::new(params.clone()), pages);
    let (standard_incr_ns, standard_get_ns) = per_op(StandardCbf::new(params), pages);
    CbfCosts {
        blocked_incr_ns,
        blocked_get_ns,
        standard_incr_ns,
        standard_get_ns,
    }
}

/// Nanoseconds per `TieredMemory::{promote, demote}` call: a full 1:8
/// memory swaps its whole fast tier with an equal slice of the slow tier,
/// back and forth.
pub fn migrate_ns_per_page() -> f64 {
    const PAGES: u64 = 1 << 17;
    const ROUNDS: u64 = 16;
    let cfg = TierConfig::for_footprint(PAGES, TierRatio::OneTo8, PageSize::Base4K);
    let mut mem = TieredMemory::new(cfg);
    for p in 0..PAGES {
        mem.ensure_mapped(PageId(p), Tier::Fast);
    }
    // First touch filled the fast tier with pages 0..fast, the rest is slow.
    let fast = mem.fast_used();
    let mut failed = 0u64;
    let start = Instant::now();
    for round in 0..ROUNDS {
        let (down, up) = if round % 2 == 0 { (0, fast) } else { (fast, 0) };
        for i in 0..fast {
            failed += u64::from(mem.demote(PageId(down + i)).is_err());
            failed += u64::from(mem.promote(PageId(up + i)).is_err());
        }
    }
    let ns = start.elapsed().as_nanos() as f64;
    assert_eq!(failed, 0, "migration probe moved pages that cannot move");
    ns / (2 * ROUNDS * fast) as f64
}

/// Resident bytes the page table costs per page of address space: the
/// growth of this process's resident set across building one large
/// `TieredMemory`.
pub fn table_bytes_per_page() -> Result<f64, BenchError> {
    const PAGES: u64 = 1 << 24;
    let before = crate::env::status_kib("VmRSS")?;
    let mem = std::hint::black_box(TieredMemory::new(TierConfig::all_fast(
        PAGES,
        PageSize::Base4K,
    )));
    let after = crate::env::status_kib("VmRSS")?;
    drop(mem);
    Ok(after.saturating_sub(before) as f64 * 1024.0 / PAGES as f64)
}

/// Control-plane costs at a fixed fleet size.
#[derive(Debug, Clone, Copy)]
pub struct ControllerCosts {
    /// Mean ns per incremental rebalance with 16 dirty demands.
    pub rebalance_ns: f64,
    /// Mean `apportion_ops` per rebalance (exact).
    pub ops_per_rebalance: f64,
    /// Mean ns per churn event (one retire or one admit).
    pub churn_ns_per_event: f64,
}

fn mix(state: &mut u64) -> u64 {
    *state = derive_seed(*state, 1);
    *state
}

/// Times `GlobalController` directly — no memory pipeline — at `n` tenants,
/// incremental mode, averaged over the three objectives: rebalances with
/// 16 changed demands each, then retire/admit pairs. The regime (one-page
/// floor, 256-value demand palette) keeps the incremental planner on its
/// lazy path, as `crates/bench`'s controller section does.
pub fn controller(n: usize) -> ControllerCosts {
    const DIRTY: usize = 16;
    const ROUNDS: usize = 256;
    const CHURN_PAIRS: usize = 128;
    let (mut rebalance_ns, mut ops, mut churn_ns) = (0.0, 0.0, 0.0);
    for kind in ObjectiveKind::ALL {
        let mut c = GlobalController::new(16 * n as u64, 0.1)
            .with_objective_kind(kind)
            .with_mode(ControllerMode::Incremental);
        let mut state = 0xC0FF_EE00 ^ n as u64;
        for i in 0..n {
            c.add_tenant(&format!("t{i}"), 256);
            c.update_demand(i, 1 + mix(&mut state) % 256);
        }
        c.rebalance_dirty(0);

        let ops_before = c.apportion_ops();
        let start = Instant::now();
        for round in 0..ROUNDS {
            for _ in 0..DIRTY {
                let slot = (mix(&mut state) as usize) % n;
                c.update_demand(slot, 1 + mix(&mut state) % 256);
            }
            c.rebalance_dirty(1 + round as u64);
        }
        rebalance_ns += start.elapsed().as_nanos() as f64 / ROUNDS as f64;
        ops += (c.apportion_ops() - ops_before) as f64 / ROUNDS as f64;

        let start = Instant::now();
        for e in 0..CHURN_PAIRS {
            let mut slot = (mix(&mut state) as usize) % n;
            while !c.is_live(slot) {
                slot = (slot + 1) % c.num_tenants();
            }
            c.retire_tenant(slot);
            c.admit_tenant(&format!("churn{e}"), 256);
        }
        churn_ns += start.elapsed().as_nanos() as f64 / (2 * CHURN_PAIRS) as f64;
    }
    let k = ObjectiveKind::ALL.len() as f64;
    ControllerCosts {
        rebalance_ns: rebalance_ns / k,
        ops_per_rebalance: ops / k,
        churn_ns_per_event: churn_ns / k,
    }
}

/// Multi-tenant engine costs on a synthetic fleet.
#[derive(Debug, Clone, Copy)]
pub struct FleetCosts {
    /// Host ns per simulated access through `MultiTenantEngine`.
    pub ns_per_access: f64,
    /// Host µs to construct (and seal) one tenant's lane.
    pub tenant_setup_us: f64,
}

/// Runs `Scenario::synthetic_fleet_spec(tenants)` twice: once with a zero
/// op budget (every lane is built, registered, and sealed but never steps —
/// the set-up cost) and once for real.
pub fn multi_tenant(tenants: usize, ops_per_lane: u64, seed: u64) -> FleetCosts {
    let run = |max_ops: u64| {
        let mut config = SimConfig::default()
            .with_max_ops(max_ops)
            .with_batch_ops(32);
        config.metadata_cache = false;
        let scenario = Scenario::fleet(
            "probe/synthetic-fleet",
            Scenario::synthetic_fleet_spec(tenants),
            &config,
            seed,
        );
        let start = Instant::now();
        let result = scenario.run();
        (start.elapsed().as_nanos() as f64, result.report.accesses)
    };
    let (setup_ns, _) = run(0);
    let (run_ns, accesses) = run(ops_per_lane);
    FleetCosts {
        ns_per_access: run_ns / accesses.max(1) as f64,
        tenant_setup_us: setup_ns / 1e3 / tenants as f64,
    }
}

/// Shard-dispatch costs of the fleet executor.
#[derive(Debug, Clone, Copy)]
pub struct DispatchCosts {
    /// Worker time not spent inside scenarios (dispatch, merge, idling at
    /// the tail), per shard, in µs: `workers × wall − Σ scenario wall`.
    pub us_per_shard: f64,
    /// Shard re-dispatches (must be 0 on a healthy host).
    pub retries: u64,
}

/// Fans the first 8 `cachelib` cells (CDN × 1:16 × the six systems, then
/// CDN × 1:8 × the first two) over 2 in-process workers in 4 shards.
pub fn dispatch(ops: u64, seed: u64) -> Result<DispatchCosts, BenchError> {
    const WORKERS: usize = 2;
    const SHARDS: usize = 4;
    let matrix = move || {
        let mut cells = ScenarioMatrix::new(SimConfig::default().with_max_ops(ops), seed)
            .workloads([WorkloadId::CdnCacheLib])
            .ratios(TierRatio::ALL)
            .policies(PolicyKind::COMPARED)
            .fixed_seed()
            .build();
        cells.truncate(8);
        cells
    };
    let start = Instant::now();
    let sweep = sweep_coordinator(matrix, WORKERS, FleetConfig::default())
        .run_sweep(SHARDS)
        .map_err(|e| BenchError::Child {
            workload: "fleet-exec probe".to_string(),
            msg: e.to_string(),
        })?;
    let wall_us = start.elapsed().as_secs_f64() * 1e6;
    let scenario_us: f64 = sweep
        .report
        .results
        .iter()
        .map(|r| r.wall.as_secs_f64() * 1e6)
        .sum();
    Ok(DispatchCosts {
        us_per_shard: (WORKERS as f64 * wall_us - scenario_us).max(0.0) / SHARDS as f64,
        retries: sweep.exec.retries,
    })
}

/// Trace-codec costs on one recorded generator.
#[derive(Debug, Clone, Copy)]
pub struct CodecCosts {
    /// `TraceWriter::{push_op, finish}` ns per access written.
    pub write_ns_per_access: f64,
    /// `TraceReader::{verify_file, open, advance}` ns per access: the
    /// open-time verification scan plus one streaming decode — what one
    /// replay of the file pays.
    pub read_ns_per_access: f64,
    /// File bytes per access.
    pub file_bytes_per_access: f64,
    /// The reader's resident high-water mark in bytes (one chunk).
    pub reader_resident_bytes: f64,
}

/// Records `ops` operations of the CDN generator into `dir` (write, then
/// rename), reads them back, and removes the file. Generation is kept
/// outside the clock: ops are generated a chunk at a time, then the chunk
/// is pushed to the writer under one timed interval.
pub fn codec(dir: &Path, ops: u64, seed: u64) -> Result<CodecCosts, BenchError> {
    let path = dir.join("probe-CDN.trace");
    let tmp = dir.join("probe-CDN.trace.tmp");
    let trace_err = |path: &Path| {
        let path = path.to_path_buf();
        move |source| BenchError::Trace { path, source }
    };

    let mut workload = build_workload(WorkloadId::CdnCacheLib, seed);
    let mut writer = TraceWriter::create(&tmp, workload.name(), workload.footprint_bytes())
        .map_err(trace_err(&tmp))?
        .with_chunk_ops(TRACE_CHUNK_OPS);
    let mut chunk: Vec<(Op, usize)> = Vec::with_capacity(TRACE_CHUNK_OPS);
    let mut accesses: Vec<Access> = Vec::new();
    let mut burst: Vec<Access> = Vec::new();
    let mut write_ns = 0u128;
    let mut remaining = ops;
    while remaining > 0 {
        chunk.clear();
        accesses.clear();
        while chunk.len() < TRACE_CHUNK_OPS && remaining > 0 {
            burst.clear();
            let Some(op) = workload.next_op(0, &mut burst) else {
                remaining = 0;
                break;
            };
            accesses.extend_from_slice(&burst);
            chunk.push((op, burst.len()));
            remaining -= 1;
        }
        let start = Instant::now();
        let mut at = 0;
        for &(op, len) in &chunk {
            writer
                .push_op(op, &accesses[at..at + len])
                .map_err(trace_err(&tmp))?;
            at += len;
        }
        write_ns += start.elapsed().as_nanos();
    }
    let start = Instant::now();
    let (summary, _) = writer.finish().map_err(trace_err(&tmp))?;
    write_ns += start.elapsed().as_nanos();
    std::fs::rename(&tmp, &path).map_err(|e| BenchError::io("rename", &tmp, e))?;
    let bytes = std::fs::metadata(&path)
        .map_err(|e| BenchError::io("stat", &path, e))?
        .len();

    let start = Instant::now();
    TraceReader::verify_file(&path).map_err(trace_err(&path))?;
    let mut reader = TraceReader::open(&path).map_err(trace_err(&path))?;
    while reader.advance().map_err(trace_err(&path))? {
        std::hint::black_box(reader.chunk().total_accesses());
    }
    let read_ns = start.elapsed().as_nanos();
    let resident = reader.max_resident_bytes();
    drop(reader);
    std::fs::remove_file(&path).map_err(|e| BenchError::io("remove", &path, e))?;

    let n = summary.accesses.max(1) as f64;
    Ok(CodecCosts {
        write_ns_per_access: write_ns as f64 / n,
        read_ns_per_access: read_ns as f64 / n,
        file_bytes_per_access: bytes as f64 / n,
        reader_resident_bytes: resident as f64,
    })
}
