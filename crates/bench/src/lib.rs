//! Benchmark harness regenerating every table and figure of the HybridTier
//! (ASPLOS'25) evaluation, plus the workspace's distributed-sweep tooling.
//!
//! Each id in [`experiments::ALL`] is a pure `fn(&Budget) -> Figure`: it
//! runs one paper result's simulations at the given [`Budget`] and returns
//! a [`Figure`] — a header, rows of cells that keep both their value and
//! their CSV text, and note lines. [`render`] is the one function that
//! prints a figure and writes its CSV. The `repro` binary runs the ids at
//! [`Budget::paper`] and renders them:
//!
//! ```text
//! cargo run -p hybridtier-bench --release --bin repro -- fig4
//! cargo run -p hybridtier-bench --release --bin repro -- all
//! ```
//!
//! Absolute numbers differ from the paper (simulator vs. testbed, ~512×
//! scaled footprints, ~1000× compressed timescale); the *shapes* — which
//! system wins, by roughly what factor, where crossovers fall — are the
//! reproduction targets. `crates/bench/tests/paper_claims.rs` asserts them
//! on the same functions at a small budget, and its comments record
//! paper-vs-measured for every id.
//!
//! The `bench` binary runs the standard sweeps serial and parallel, checks
//! that the two agree, and emits a byte-deterministic `BENCH_*.json`
//! (schema: `docs/BENCH_FORMAT.md`), supported by three library modules:
//! [`json`] (the one dependency-free codec: `Json::render` and `parse`),
//! [`merge`] (the BENCH encoder and the `--shard`/`--merge`
//! distributed-sweep workflow), and [`fleet`] (the `"fleet_exec"` section a
//! `bench --exec-workers N` run seals its executor event log into). Host
//! time is reported by `benchmark/` only.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod experiments;
pub mod fleet;
pub mod json;
pub mod merge;
mod output;

pub use experiments::Budget;
pub use output::{render, Cell, Figure};

use tiering_sim::SimConfig;

/// Default seed for all experiments (results are deterministic given this).
pub const SEED: u64 = 0xA5F0_5EED;

/// The co-location sweep the `bench` binary runs serial and parallel: the
/// §7 wake-up pairing plus a suite pairing, across two budget sizings
/// (4 multi-tenant scenarios, 2 tenants each).
pub fn colocation_matrix(max_sim_ns: u64) -> Vec<tiering_runner::Scenario> {
    use tiering_mem::TierRatio;
    use tiering_policies::PolicyKind;
    use tiering_runner::{BudgetSpec, CoLocationMatrix, Scenario, TenantSpec};
    use tiering_workloads::WorkloadId;

    CoLocationMatrix::new(SimConfig::default().with_max_sim_ns(max_sim_ns), SEED)
        .pairing("cache+wakeup", Scenario::wakeup_demo_tenants())
        .pairing(
            "cdn+silo",
            vec![
                TenantSpec::suite("cdn", WorkloadId::CdnCacheLib, PolicyKind::HybridTier),
                TenantSpec::suite("silo", WorkloadId::Silo, PolicyKind::HybridTier),
            ],
        )
        .budgets([
            BudgetSpec::Ratio(TierRatio::OneTo8),
            BudgetSpec::Ratio(TierRatio::OneTo4),
        ])
        .build()
}

/// The dynamic-fleet sweep the `bench` binary runs serial and parallel:
/// the canonical 3-tenant arrive/depart/arrive-again churn fleet
/// (`Scenario::fleet_churn_demo_tenants`) under every built-in quota
/// objective, across two budget sizings (6 fleet scenarios, up to 4
/// tenant slots each).
pub fn fleet_matrix(max_sim_ns: u64) -> Vec<tiering_runner::Scenario> {
    use tiering_mem::TierRatio;
    use tiering_runner::{BudgetSpec, FleetMatrix, Scenario};

    let (tenants, churn) = Scenario::fleet_churn_demo_tenants();
    FleetMatrix::new(SimConfig::default().with_max_sim_ns(max_sim_ns), SEED)
        .fleet("cache+analytics+burst", tenants, churn)
        .budgets([
            BudgetSpec::Ratio(TierRatio::OneTo8),
            BudgetSpec::Ratio(TierRatio::OneTo4),
        ])
        .rebalance_every_ns(5_000_000)
        .build()
}

/// The policy-comparison sweep: both CacheLib workloads × all three tier
/// ratios × the six compared systems (36 scenarios) — the matrix the `bench`
/// binary runs serial and parallel and the examples run interactively.
pub fn policy_comparison_matrix(ops: u64) -> Vec<tiering_runner::Scenario> {
    use tiering_mem::TierRatio;
    use tiering_policies::PolicyKind;
    use tiering_workloads::WorkloadId;

    tiering_runner::ScenarioMatrix::new(SimConfig::default().with_max_ops(ops), SEED)
        .workloads([WorkloadId::CdnCacheLib, WorkloadId::SocialCacheLib])
        .ratios(TierRatio::ALL)
        .policies(PolicyKind::COMPARED)
        .fixed_seed()
        .build()
}

/// Records the two CacheLib suite workloads (built with [`SEED`], exactly
/// as the `"single"` sweep builds them) to on-disk trace files under `dir`
/// for the `"trace"` bench section. Filenames are ops-independent
/// (`trace-CDN.trace`, `trace-social.trace`), so scenario labels stay
/// stable across `--ops` protocols.
///
/// Each file is written under a name unique to this call and renamed into
/// place, so a reader of the final path sees a complete trace from some
/// call, never a half-written one, however many recorders share `dir`.
pub fn record_trace_inputs(
    ops: u64,
    dir: &std::path::Path,
) -> std::io::Result<Vec<std::path::PathBuf>> {
    use std::sync::atomic::{AtomicU64, Ordering};
    use tiering_workloads::{build_workload, record_workload, WorkloadId};

    static CALLS: AtomicU64 = AtomicU64::new(0);
    let call = CALLS.fetch_add(1, Ordering::Relaxed);

    std::fs::create_dir_all(dir)?;
    let mut paths = Vec::new();
    for (id, stem) in [
        (WorkloadId::CdnCacheLib, "trace-CDN"),
        (WorkloadId::SocialCacheLib, "trace-social"),
    ] {
        let path = dir.join(format!("{stem}.trace"));
        let tmp = dir.join(format!("{stem}.{}-{call}.tmp", std::process::id()));
        let mut workload = build_workload(id, SEED);
        let written = record_workload(workload.as_mut(), ops, &tmp, 4096)
            .map_err(|e| std::io::Error::other(format!("recording {stem}: {e}")))
            .and_then(|_| std::fs::rename(&tmp, &path));
        if let Err(e) = written {
            let _ = std::fs::remove_file(&tmp);
            return Err(e);
        }
        paths.push(path);
    }
    Ok(paths)
}

/// The trace-replay sweep (`"trace"` section): every recorded trace file ×
/// the six compared systems at 1:8 (12 scenarios for the two CacheLib
/// traces). Replay is bit-identical to the generators (the runner's
/// replay-equivalence suite locks it), so this sweep drives the *streaming
/// ingestion* path — chunked reads, checksum verification, and the
/// column-wise batch fill — where `"single"` drives the in-memory generators.
pub fn trace_replay_matrix(
    ops: u64,
    traces: &[std::path::PathBuf],
) -> Vec<tiering_runner::Scenario> {
    use tiering_mem::TierRatio;
    use tiering_policies::PolicyKind;
    use tiering_runner::{PolicySpec, Scenario, TierSpec, WorkloadSpec};

    let config = SimConfig::default().with_max_ops(ops);
    let mut scenarios = Vec::new();
    for path in traces {
        let stem = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "trace".to_string());
        for kind in PolicyKind::COMPARED {
            scenarios.push(Scenario::new(
                format!("{stem}/1:8/{}", kind.label()),
                WorkloadSpec::Trace(path.clone()),
                PolicySpec::Kind(kind),
                TierSpec::Ratio(TierRatio::OneTo8),
                &config,
                SEED,
            ));
        }
    }
    scenarios
}

/// The N-tier ladder sweep (`"tiers"` section): both CacheLib workloads on
/// every [`LadderKind`] preset (3-tier DRAM→CXL→NVMe, 4-tier archive) × the
/// six compared systems plus the NeoMem device-counter design — the extra
/// comparison axis the two-tier matrices cannot express. 28 scenarios.
///
/// [`LadderKind`]: tiering_mem::LadderKind
pub fn tier_ladder_matrix(ops: u64) -> Vec<tiering_runner::Scenario> {
    use tiering_mem::LadderKind;
    use tiering_policies::PolicyKind;
    use tiering_workloads::WorkloadId;

    tiering_runner::ScenarioMatrix::new(SimConfig::default().with_max_ops(ops), SEED)
        .workloads([WorkloadId::CdnCacheLib, WorkloadId::SocialCacheLib])
        .ratios([])
        .ladders(LadderKind::ALL)
        .policies(PolicyKind::COMPARED.into_iter().chain([PolicyKind::NeoMem]))
        .fixed_seed()
        .build()
}
