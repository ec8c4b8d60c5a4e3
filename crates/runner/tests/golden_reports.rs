//! Golden-report regression suite: key [`SimReport`] metrics for a small
//! workload × policy matrix (and the §7 wake-up quota trajectory) are
//! snapshotted under `tests/golden/`. Any drift — an engine change, a
//! policy tweak, a workload-generator edit — fails these tests with a
//! line-level diff.
//!
//! Intentional drift: regenerate with
//!
//! ```text
//! GOLDEN_UPDATE=1 cargo test -p tiering_runner --test golden_reports
//! ```
//!
//! and commit the updated snapshots together with the change that caused
//! them.

use std::fmt::Write as _;
use std::path::PathBuf;

use tiering_mem::{LadderKind, TierRatio};
use tiering_policies::{ObjectiveKind, PolicyKind};
use tiering_runner::{
    derive_seed, PolicySpec, Scenario, ScenarioMatrix, SweepRunner, TierSpec, WorkloadSpec,
};
use tiering_sim::{ChurnKind, SimConfig};
use tiering_workloads::{
    build_workload, record_workload, PhasedWorkload, WorkloadId, ZipfPageWorkload,
};

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Compares `actual` against the named snapshot, or rewrites the snapshot
/// when `GOLDEN_UPDATE=1` is set.
fn assert_matches_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var("GOLDEN_UPDATE").as_deref() == Ok("1") {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir golden");
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); run with GOLDEN_UPDATE=1 to create it",
            path.display()
        )
    });
    if expected != actual {
        let mut diff = String::new();
        for (i, (e, a)) in expected.lines().zip(actual.lines()).enumerate() {
            if e != a {
                let _ = writeln!(diff, "line {}:\n  expected: {e}\n  actual:   {a}", i + 1);
            }
        }
        let (el, al) = (expected.lines().count(), actual.lines().count());
        if el != al {
            let _ = writeln!(diff, "line count: expected {el}, actual {al}");
        }
        panic!(
            "{name} drifted from its golden snapshot.\n{diff}\
             If this change is intentional, regenerate with \
             GOLDEN_UPDATE=1 and commit the snapshot."
        );
    }
}

/// One line of key metrics per scenario — everything a behavioural
/// regression would disturb, nothing host-dependent (no wall-clock).
fn report_lines(results: &[tiering_runner::ScenarioResult]) -> String {
    let mut out = String::from(
        "# label seed ops accesses samples sim_ns p50_ns p90_ns p99_ns mean_ns \
         fast_hit_frac promotions demotions failed_promotions metadata_bytes\n",
    );
    for r in results {
        let m = &r.report;
        let _ = writeln!(
            out,
            "{} {} {} {} {} {} {} {} {} {:.3} {:.6} {} {} {} {}",
            r.label,
            r.seed,
            m.ops,
            m.accesses,
            m.samples,
            m.sim_ns,
            m.latency.p50_ns,
            m.latency.p90_ns,
            m.latency.p99_ns,
            m.latency.mean_ns,
            m.fast_hit_frac,
            m.migrations.promotions,
            m.migrations.demotions,
            m.migrations.failed_promotions,
            m.metadata_bytes,
        );
    }
    out
}

/// The single-scenario matrix: two workload families × three policy
/// families at 1:8 — small enough for CI, broad enough that engine,
/// sampler, policy, and workload regressions all surface.
#[test]
fn single_scenario_matrix_matches_golden() {
    let scenarios = ScenarioMatrix::new(SimConfig::default().with_max_ops(20_000), 0xA5F0_5EED)
        .workloads([WorkloadId::CdnCacheLib, WorkloadId::Silo])
        .policies([
            PolicyKind::HybridTier,
            PolicyKind::Memtis,
            PolicyKind::FirstTouch,
        ])
        .ratios([TierRatio::OneTo8])
        .build();
    let sweep = SweepRunner::serial().run(scenarios);
    assert_matches_golden("report_matrix.txt", &report_lines(&sweep.results));
}

/// The 3-tier ladder matrix: the same two workload families on the
/// DRAM→CXL→NVMe preset, across the watermark, frequency, and
/// device-counter policy families. This pins the whole N-tier surface —
/// ladder topology construction, the per-rung latency table, adjacent-hop
/// migration charging, and the demotion cascades — against silent drift.
/// The two-tier `report_matrix.txt` above is generated by the same code
/// paths and must stay byte-identical when ladder code changes.
#[test]
fn tier_ladder_matrix_matches_golden() {
    let scenarios = ScenarioMatrix::new(SimConfig::default().with_max_ops(20_000), 0xA5F0_5EED)
        .workloads([WorkloadId::CdnCacheLib, WorkloadId::Silo])
        .policies([
            PolicyKind::HybridTier,
            PolicyKind::Memtis,
            PolicyKind::NeoMem,
        ])
        .ratios([])
        .ladders([LadderKind::DramCxlNvme])
        .build();
    let sweep = SweepRunner::serial().run(scenarios);
    assert_matches_golden("tier_ladder.txt", &report_lines(&sweep.results));
}

/// The §7 wake-up demo's quota trajectory and per-tenant outcomes: the
/// same recipe the `multi_tenant` example and the `sec7` bench experiment
/// run, so scenario drift in co-location is caught on PRs.
#[test]
fn wakeup_quota_trajectory_matches_golden() {
    let config = SimConfig::default().with_max_sim_ns(100_000_000);
    let result = Scenario::wakeup_demo(&config, 0xA5F0_5EED).run();
    let multi = result.multi.expect("co-location detail");

    let mut out =
        String::from("# rebalance_at_ns cache_demand batch_demand cache_quota batch_quota\n");
    for e in &multi.rebalances {
        let _ = writeln!(
            out,
            "{} {} {} {} {}",
            e.at_ns, e.demands[0], e.demands[1], e.quotas[0], e.quotas[1]
        );
    }
    let _ = writeln!(out, "# tenant ops samples fast_hit_frac final_quota");
    for t in &multi.tenants {
        let _ = writeln!(
            out,
            "{} {} {} {:.6} {}",
            t.name, t.report.ops, t.report.samples, t.report.fast_hit_frac, t.final_quota_pages
        );
    }
    let _ = writeln!(out, "# fairness {:.6}", multi.fairness_index());
    assert_matches_golden("wakeup_trajectory.txt", &out);
}

/// The canonical 3-tenant churn fleet (`Scenario::fleet_churn_demo` — the
/// same recipe the `fleet_churn` example and the bench fleet sweep run),
/// snapshotted **per objective**: the full quota trajectory with live
/// masks, the churn records, per-tenant outcomes, and Jain fairness. Any
/// change to an objective's apportioning math, the churn bookkeeping, or
/// the admission/reclamation rules drifts one of these snapshots and
/// fails CI — objective math can never drift silently.
#[test]
fn fleet_churn_trajectories_match_golden() {
    let config = SimConfig::default().with_max_sim_ns(60_000_000);
    for objective in ObjectiveKind::ALL {
        let result = Scenario::fleet_churn_demo(objective, &config, 0xA5F0_5EED).run();
        let multi = result.multi.expect("fleet detail");

        let mut out = format!("# objective {}\n", objective.label());
        let _ = writeln!(out, "# rebalance_at_ns floor live demands quotas");
        for e in &multi.rebalances {
            let mask: String = e.live.iter().map(|&l| if l { '1' } else { '0' }).collect();
            let _ = writeln!(
                out,
                "{} {} {} [{}] [{}]",
                e.at_ns,
                e.floor_pages,
                mask,
                e.demands
                    .iter()
                    .map(u64::to_string)
                    .collect::<Vec<_>>()
                    .join(","),
                e.quotas
                    .iter()
                    .map(u64::to_string)
                    .collect::<Vec<_>>()
                    .join(","),
            );
        }
        let _ = writeln!(out, "# churn at_ns at_fleet_ops kind tenant");
        for c in &multi.churn {
            let _ = writeln!(
                out,
                "{} {} {} {}",
                c.at_ns,
                c.at_fleet_ops,
                match c.kind {
                    ChurnKind::Arrived => "arrive",
                    ChurnKind::Departed => "depart",
                },
                c.tenant,
            );
        }
        let _ = writeln!(
            out,
            "# tenant arrived_ns departed_ns ops samples fast_hit_frac initial_quota final_quota"
        );
        for t in &multi.tenants {
            let _ = writeln!(
                out,
                "{} {} {} {} {} {:.6} {} {}",
                t.name,
                t.arrived_at_ns,
                t.departed_at_ns
                    .map_or("-".to_string(), |ns| ns.to_string()),
                t.report.ops,
                t.report.samples,
                t.report.fast_hit_frac,
                t.initial_quota_pages,
                t.final_quota_pages,
            );
        }
        let _ = writeln!(out, "# fairness {:.6}", multi.fairness_index());
        assert_matches_golden(&format!("fleet_churn_{}.txt", objective.label()), &out);
    }
}

/// The trace-replay axis: a CacheLib CDN stream recorded to an on-disk
/// trace (format: `docs/TRACE_FORMAT.md`) and replayed through
/// `WorkloadSpec::Trace` under HybridTier and Memtis. The replay-equivalence
/// suite proves replay ≡ direct run; this golden additionally pins the
/// *absolute* replayed trajectory, so a drift in the recorder, the file
/// format, or the replay fill path fails CI even if record and replay
/// drift together.
#[test]
fn trace_replay_matches_golden() {
    // This process's own directory; the golden pins the file stem.
    let dir =
        PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir scratch");
    let trace = dir.join("trace-CDN.trace");
    let mut source = build_workload(WorkloadId::CdnCacheLib, 0xA5F0_5EED);
    record_workload(source.as_mut(), 20_000, &trace, 1024).expect("record trace");

    let config = SimConfig::default().with_max_ops(20_000);
    let scenarios: Vec<Scenario> = [PolicyKind::HybridTier, PolicyKind::Memtis]
        .into_iter()
        .map(|kind| {
            Scenario::new(
                format!("trace-CDN/1:8/{}", kind.label()),
                WorkloadSpec::Trace(trace.clone()),
                PolicySpec::Kind(kind),
                TierSpec::Ratio(TierRatio::OneTo8),
                &config,
                0xA5F0_5EED,
            )
        })
        .collect();
    let sweep = SweepRunner::serial().run(scenarios);
    let _ = std::fs::remove_dir_all(&dir);
    assert_matches_golden("trace_replay.txt", &report_lines(&sweep.results));
}

/// The diurnal phased-workload axis: a hot→wide→hot Zipf composition
/// switching generators at op thresholds, under HybridTier and Memtis.
/// Pins the phase-boundary bookkeeping (threshold switching, batch capping
/// at boundaries) against drift.
#[test]
fn phased_workload_matches_golden() {
    let diurnal = |seed: u64| -> Box<dyn tiering_trace::Workload> {
        Box::new(
            PhasedWorkload::new()
                .phase(
                    8_000,
                    Box::new(ZipfPageWorkload::new(
                        4_000,
                        1.1,
                        u64::MAX,
                        derive_seed(seed, 0),
                    )),
                )
                .phase(
                    4_000,
                    Box::new(ZipfPageWorkload::new(
                        16_000,
                        0.4,
                        u64::MAX,
                        derive_seed(seed, 1),
                    )),
                )
                .phase(
                    8_000,
                    Box::new(ZipfPageWorkload::new(
                        4_000,
                        1.1,
                        u64::MAX,
                        derive_seed(seed, 2),
                    )),
                ),
        )
    };
    let config = SimConfig::default().with_max_ops(20_000);
    let scenarios: Vec<Scenario> = [PolicyKind::HybridTier, PolicyKind::Memtis]
        .into_iter()
        .map(|kind| {
            Scenario::new(
                format!("diurnal-zipf/1:8/{}", kind.label()),
                WorkloadSpec::custom("diurnal-zipf", diurnal),
                PolicySpec::Kind(kind),
                TierSpec::Ratio(TierRatio::OneTo8),
                &config,
                0xA5F0_5EED,
            )
        })
        .collect();
    let sweep = SweepRunner::serial().run(scenarios);
    assert_matches_golden("phased_workload.txt", &report_lines(&sweep.results));
}
