//! The six benchmark workloads: which scenarios each runs, at what fixed
//! size, and what its set-up builds.
//!
//! Every scenario matrix is spelled out here rather than imported from
//! `crates/bench`, so a later change to product code cannot alter the
//! traffic this benchmark sends. Sizes are fixed op-count constants
//! (calibrated once so a pass takes 2.5–4 s on the 2-core reference box);
//! they are never scaled by measured speed, so every host does identical
//! work per pass.

use std::path::PathBuf;

use hybridtier::mem::{LadderKind, TierRatio};
use hybridtier::policies::{ObjectiveKind, PolicyKind};
use hybridtier::runner::{
    derive_seed, BudgetSpec, CoLocationMatrix, FleetMatrix, PolicySpec, Scenario, ScenarioMatrix,
    TenantSpec, TierSpec, WorkloadSpec,
};
use hybridtier::sim::SimConfig;
use hybridtier::workloads::{build_workload, record_workload, WorkloadId};

use crate::error::BenchError;

/// Ops per `cachelib` scenario.
pub const CACHELIB_OPS: u64 = 500_000;
/// Op cap per `batch` scenario.
pub const BATCH_OPS: u64 = 200_000;
/// Ops per `ladder` scenario.
pub const LADDER_OPS: u64 = 150_000;
/// Op cap per `cachesim` scenario.
pub const CACHESIM_OPS: u64 = 500_000;
/// Simulated horizon of each `fleet` co-location / churn scenario.
pub const FLEET_SIM_NS: u64 = 300_000_000;
/// Tenants in the `fleet` synthetic large-fleet scenario.
pub const FLEET_SYNTH_TENANTS: u64 = 5_000;
/// Op cap per lane of the synthetic fleet.
pub const FLEET_SYNTH_OPS: u64 = 20_000;
/// Ops recorded per trace (and replayed per scenario) in `trace`.
pub const TRACE_OPS: u64 = 500_000;
/// Differently seeded recordings of each generator in `trace`.
pub const TRACE_SEEDS: u64 = 3;
/// Ops per trace chunk.
pub const TRACE_CHUNK_OPS: usize = 4096;

/// Seed `all` uses when none is given, and the one `expected.json` pins.
pub const DEFAULT_SEED: u64 = 1;

/// The policies whose per-kind layer metrics are exported.
pub const LEDGER_KINDS: [PolicyKind; 7] = [
    PolicyKind::Tpp,
    PolicyKind::AutoNuma,
    PolicyKind::Memtis,
    PolicyKind::Arc,
    PolicyKind::TwoQ,
    PolicyKind::HybridTier,
    PolicyKind::NeoMem,
];

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Paper Fig 9: CacheLib × three ratios × the six compared systems.
    Cachelib,
    /// Paper Fig 10: six batch applications × the six compared systems.
    Batch,
    /// CacheLib on the 3- and 4-tier ladders, plus NeoMem.
    Ladder,
    /// Paper Figs 5/13/14: full cache simulation, blocked vs standard CBF.
    Cachesim,
    /// Multi-tenant co-location, churn fleets, one large synthetic fleet.
    Fleet,
    /// Record CacheLib traces, then replay them.
    Trace,
}

impl WorkloadKind {
    /// Every workload, in run order.
    pub const ALL: [WorkloadKind; 6] = [
        WorkloadKind::Cachelib,
        WorkloadKind::Batch,
        WorkloadKind::Ladder,
        WorkloadKind::Cachesim,
        WorkloadKind::Fleet,
        WorkloadKind::Trace,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::Cachelib => "cachelib",
            WorkloadKind::Batch => "batch",
            WorkloadKind::Ladder => "ladder",
            WorkloadKind::Cachesim => "cachesim",
            WorkloadKind::Fleet => "fleet",
            WorkloadKind::Trace => "trace",
        }
    }

    /// Inverse of [`name`](Self::name).
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The suite generators this workload's set-up builds (graphs and Zipf
    /// tables), in scenario order.
    fn models(self) -> &'static [WorkloadId] {
        const CACHELIB: [WorkloadId; 2] = [WorkloadId::CdnCacheLib, WorkloadId::SocialCacheLib];
        match self {
            WorkloadKind::Cachelib | WorkloadKind::Ladder | WorkloadKind::Trace => &CACHELIB,
            WorkloadKind::Batch => &[
                WorkloadId::BfsKron,
                WorkloadId::CcUniform,
                WorkloadId::PrKron,
                WorkloadId::Roms,
                WorkloadId::Silo,
                WorkloadId::Xgboost,
            ],
            WorkloadKind::Cachesim => &[
                WorkloadId::CdnCacheLib,
                WorkloadId::PrKron,
                WorkloadId::Xgboost,
            ],
            // Built tenant by tenant in `set_up` (most are custom recipes).
            WorkloadKind::Fleet => &[],
        }
    }
}

/// The suite pairing of the `fleet` co-location scenarios.
fn cdn_silo_tenants() -> Vec<TenantSpec> {
    vec![
        TenantSpec::suite("cdn", WorkloadId::CdnCacheLib, PolicyKind::HybridTier),
        TenantSpec::suite("silo", WorkloadId::Silo, PolicyKind::HybridTier),
    ]
}

/// Every tenant recipe the `fleet` co-location and churn scenarios use.
fn fleet_tenants() -> Vec<TenantSpec> {
    let mut tenants = Scenario::wakeup_demo_tenants();
    tenants.extend(cdn_silo_tenants());
    tenants.extend(Scenario::fleet_churn_demo_tenants().0);
    tenants
}

/// One workload at one seed and scale: the scenario lists and set-up the
/// run protocol drives.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Which workload.
    pub kind: WorkloadKind,
    /// The `--seed` value: every scenario's workload seed derives from it.
    pub seed: u64,
    /// Size divisor (1 = the full benchmark; tests and the warm-up pass use
    /// larger divisors).
    pub scale: u64,
    /// Per-process directory the `trace` workload records into.
    pub scratch: PathBuf,
}

impl Plan {
    fn ops(&self, full: u64) -> u64 {
        (full / self.scale).max(1)
    }

    /// The same plan at `1/div` of its size (the warm-up pass).
    pub fn shrunk(&self, div: u64) -> Plan {
        Plan {
            scale: self.scale * div,
            ..self.clone()
        }
    }

    /// The fixed sizes this plan runs at, for the result file's `env`
    /// block (`compare` refuses to compare files whose sizes differ).
    pub fn constants(&self) -> Vec<(&'static str, u64)> {
        match self.kind {
            WorkloadKind::Cachelib => vec![("ops_per_scenario", self.ops(CACHELIB_OPS))],
            WorkloadKind::Batch => vec![("ops_per_scenario", self.ops(BATCH_OPS))],
            WorkloadKind::Ladder => vec![("ops_per_scenario", self.ops(LADDER_OPS))],
            WorkloadKind::Cachesim => vec![("ops_per_scenario", self.ops(CACHESIM_OPS))],
            WorkloadKind::Fleet => vec![
                ("sim_ns_per_scenario", self.ops(FLEET_SIM_NS)),
                ("synthetic_tenants", self.ops(FLEET_SYNTH_TENANTS)),
                ("synthetic_ops_per_lane", self.ops(FLEET_SYNTH_OPS)),
            ],
            WorkloadKind::Trace => vec![
                ("ops_per_scenario", self.ops(TRACE_OPS)),
                ("seeds_per_generator", TRACE_SEEDS),
                ("chunk_ops", TRACE_CHUNK_OPS as u64),
            ],
        }
    }

    /// The `trace` workload's recorded inputs: which generator, built with
    /// which seed, recorded where. Each generator is recorded under
    /// [`TRACE_SEEDS`] seeds, because CDN's accesses per op swing ±30 % with
    /// the seed and one recording would make the pass inherit that.
    pub fn trace_inputs(&self) -> Vec<(WorkloadId, u64, PathBuf)> {
        let mut inputs = Vec::new();
        for id in [WorkloadId::CdnCacheLib, WorkloadId::SocialCacheLib] {
            for r in 0..TRACE_SEEDS {
                let file = format!("trace-{}-{r}.trace", id.label());
                inputs.push((id, derive_seed(self.seed, r), self.scratch.join(file)));
            }
        }
        inputs
    }

    /// The full scenario list of one pass, in run order.
    pub fn scenarios(&self) -> Vec<Scenario> {
        let cachelib = [WorkloadId::CdnCacheLib, WorkloadId::SocialCacheLib];
        let single = |ops: u64| SimConfig::default().with_max_ops(self.ops(ops));
        match self.kind {
            // One seed per (workload, tier) cell: the systems of a cell see
            // one stream, as in the paper, and CDN (whose cost per access
            // swings with the seed) is averaged over its cells.
            WorkloadKind::Cachelib => ScenarioMatrix::new(single(CACHELIB_OPS), self.seed)
                .workloads(cachelib)
                .ratios(TierRatio::ALL)
                .policies(PolicyKind::COMPARED)
                .build(),
            // Every generator appears in one cell, so one seed for all of
            // them averages as well as one each and lets BFS-K and PR-K
            // share a graph.
            WorkloadKind::Batch => ScenarioMatrix::new(single(BATCH_OPS), self.seed)
                .workloads(self.kind.models().iter().copied())
                .ratios([TierRatio::OneTo8])
                .policies(PolicyKind::COMPARED)
                .fixed_seed()
                .build(),
            WorkloadKind::Ladder => ScenarioMatrix::new(single(LADDER_OPS), self.seed)
                .workloads(cachelib)
                .ratios([])
                .ladders(LadderKind::ALL)
                .policies(LEDGER_KINDS)
                .build(),
            WorkloadKind::Cachesim => {
                ScenarioMatrix::new(single(CACHESIM_OPS).with_cache_sim(), self.seed)
                    .workloads(self.kind.models().iter().copied())
                    .ratios([TierRatio::OneTo8])
                    .policies([
                        PolicyKind::Memtis,
                        PolicyKind::HybridTierUnblocked,
                        PolicyKind::HybridTier,
                    ])
                    .fixed_seed()
                    .build()
            }
            WorkloadKind::Fleet => self.fleet_scenarios(),
            WorkloadKind::Trace => {
                let config = single(TRACE_OPS);
                let mut out = Vec::new();
                for (_, _, path) in self.trace_inputs() {
                    let spec = WorkloadSpec::Trace(path);
                    for kind in [
                        PolicyKind::FirstTouch,
                        PolicyKind::Memtis,
                        PolicyKind::HybridTier,
                    ] {
                        out.push(Scenario::new(
                            format!("{}/1:8/{}", spec.label(), kind.label()),
                            spec.clone(),
                            PolicySpec::Kind(kind),
                            TierSpec::Ratio(TierRatio::OneTo8),
                            &config,
                            self.seed,
                        ));
                    }
                }
                out
            }
        }
    }

    fn fleet_scenarios(&self) -> Vec<Scenario> {
        let horizon = SimConfig::default().with_max_sim_ns(self.ops(FLEET_SIM_NS));
        let budgets = [
            BudgetSpec::Ratio(TierRatio::OneTo8),
            BudgetSpec::Ratio(TierRatio::OneTo4),
        ];
        let mut out = CoLocationMatrix::new(horizon.clone(), self.seed)
            .pairing("cache+wakeup", Scenario::wakeup_demo_tenants())
            .pairing("cdn+silo", cdn_silo_tenants())
            .budgets(budgets)
            .build();
        let (tenants, churn) = Scenario::fleet_churn_demo_tenants();
        out.extend(
            FleetMatrix::new(horizon, derive_seed(self.seed, 1))
                .fleet("cache+analytics+burst", tenants, churn)
                .objectives(ObjectiveKind::ALL)
                .budgets(budgets)
                .rebalance_every_ns(5_000_000)
                .build(),
        );
        // The synthetic large fleet: admit/retire and sparse rebalances
        // dominate, the per-tenant pipelines do little. The per-lane
        // metadata cache is dropped for the reason `crates/bench` gives: at
        // thousands of tenants its tag arrays turn the run into a reclaim
        // benchmark.
        let tenants = self.ops(FLEET_SYNTH_TENANTS) as usize;
        let mut config = SimConfig::default()
            .with_max_ops(self.ops(FLEET_SYNTH_OPS))
            .with_batch_ops(32);
        config.metadata_cache = false;
        out.push(Scenario::fleet(
            format!("synth{tenants}/proportional/fleet"),
            Scenario::synthetic_fleet_spec(tenants),
            &config,
            derive_seed(self.seed, 2),
        ));
        out
    }

    /// The single-application scenarios the traced run prices layer by
    /// layer: every scenario of the pass, so the ledger's engine total is
    /// over the same cells as the end-to-end number. `fleet` has no
    /// single-application scenarios of its own, so each distinct tenant is
    /// priced alone at a 1:8 split.
    pub fn ledger_cells(&self) -> Vec<Scenario> {
        match self.kind {
            WorkloadKind::Fleet => {
                let horizon = SimConfig::default().with_max_sim_ns(self.ops(FLEET_SIM_NS));
                let mut seen = Vec::new();
                fleet_tenants()
                    .into_iter()
                    .enumerate()
                    .map(|(i, t)| {
                        Scenario::new(
                            format!("{}/1:8/{}", t.workload.label(), t.policy.label()),
                            t.workload,
                            t.policy,
                            TierSpec::Ratio(TierRatio::OneTo8),
                            &horizon,
                            derive_seed(self.seed, i as u64),
                        )
                    })
                    .filter(|s| {
                        let fresh = !seen.contains(&s.label);
                        seen.push(s.label.clone());
                        fresh
                    })
                    .collect()
            }
            _ => self.scenarios(),
        }
    }

    /// Untimed set-up: builds every generator this workload uses once (GAP
    /// graphs are cached process-wide by the product, so the passes reuse
    /// them; Zipf tables are rebuilt per scenario either way) and, for
    /// `trace`, records the trace inputs so the scratch directory holds
    /// valid files before the first pass. Returns the seconds spent
    /// building generators (the rest is recording).
    pub fn set_up(&self, seed: u64) -> Result<f64, BenchError> {
        let start = std::time::Instant::now();
        for &id in self.kind.models() {
            drop(std::hint::black_box(build_workload(id, seed)));
        }
        if self.kind == WorkloadKind::Fleet {
            for t in fleet_tenants() {
                match &t.workload {
                    WorkloadSpec::Suite(id) => {
                        drop(std::hint::black_box(build_workload(*id, seed)))
                    }
                    WorkloadSpec::Custom { build, .. } => drop(std::hint::black_box(build(seed))),
                    WorkloadSpec::Trace(_) => {}
                }
            }
            let tenants = self.ops(FLEET_SYNTH_TENANTS) as usize;
            drop(std::hint::black_box(Scenario::synthetic_fleet_spec(
                tenants,
            )));
        }
        let build_s = start.elapsed().as_secs_f64();
        if self.kind == WorkloadKind::Trace {
            Plan {
                seed,
                ..self.clone()
            }
            .record_traces()?;
        }
        Ok(build_s)
    }

    /// Records every input of [`trace_inputs`](Self::trace_inputs) into the
    /// scratch directory. Each file is written under a temporary name and
    /// renamed into place, so a reader never sees a half-written trace.
    /// Returns each recording's `(wall seconds, accesses written)`.
    pub fn record_traces(&self) -> Result<Vec<(f64, u64)>, BenchError> {
        let ops = self.ops(TRACE_OPS);
        let mut recorded = Vec::new();
        for (id, seed, path) in self.trace_inputs() {
            let start = std::time::Instant::now();
            let tmp = path.with_extension("trace.tmp");
            let mut workload = build_workload(id, seed);
            let summary = record_workload(workload.as_mut(), ops, &tmp, TRACE_CHUNK_OPS).map_err(
                |source| BenchError::Trace {
                    path: tmp.clone(),
                    source,
                },
            )?;
            std::fs::rename(&tmp, &path).map_err(|e| BenchError::io("rename", &tmp, e))?;
            recorded.push((start.elapsed().as_secs_f64(), summary.accesses));
        }
        Ok(recorded)
    }
}
