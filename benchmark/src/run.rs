//! The run protocol of one workload in one process.
//!
//! Closed loop, one thread, `SweepRunner::serial()`. An untraced run is:
//! set-up (several times; the median is `setup_s`), one untimed warm-up pass
//! at 1/10 size (which also carries the cross-path checks), then timed
//! passes of the full fixed-size scenario list until `--seconds` have been
//! measured — at least [`MIN_PASSES`], at most [`MAX_PASSES`]. The number of
//! passes depends on the clock; the work inside a pass never does. A traced
//! run is set-up plus the one traced pass of [`crate::traced`].

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

use hybridtier::cache::Source;
use hybridtier::mem::{TierConfig, TierRatio, TierTopology};
use hybridtier::policies::{build_policy, PolicyKind};
use hybridtier::runner::{derive_seed, Scenario, ScenarioResult, SweepRunner, WorkloadSpec};
use hybridtier::sim::{Engine, SimConfig};
use hybridtier::workloads::{build_workload, WorkloadId};
use hybridtier_bench::json::{self, Json};

use crate::env;
use crate::error::BenchError;
use crate::refclock::Reference;
use crate::spec::{metrics_json, Spec};
use crate::stats::{geomean, Summary};
use crate::traced;
use crate::workloads::{Plan, WorkloadKind, LADDER_OPS};

/// Times the set-up is repeated; `setup_s` is the median.
pub const SETUP_REPS: u64 = 3;
/// Size divisor of the warm-up pass.
pub const WARMUP_DIV: u64 = 10;
/// Timed passes run at least this often, however short `--seconds` is.
pub const MIN_PASSES: usize = 5;
/// …and at most this often, however fast the host is.
pub const MAX_PASSES: usize = 8;

/// Marks result files so `compare` can tell them from other JSON.
pub const RESULT_KIND: &str = "hybridtier-benchmark-result";

const EXPECTED_TEXT: &str = include_str!("../expected.json");

/// What to run.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// The workload.
    pub kind: WorkloadKind,
    /// Workload seed.
    pub seed: u64,
    /// Seconds of timed passes to measure.
    pub seconds: u64,
    /// Size divisor (1 = the real benchmark).
    pub scale: u64,
    /// Directory for scratch and (when `write_files`) result files.
    pub out: PathBuf,
    /// Whether to write `<out>/<workload>*.json`.
    pub write_files: bool,
}

/// A per-process scratch directory, removed on drop.
#[derive(Debug)]
pub struct Scratch(PathBuf);

impl Scratch {
    /// Creates `<out>/scratch-<pid>-<workload>/` (and `out` itself).
    pub fn create(out: &Path, kind: WorkloadKind) -> Result<Self, BenchError> {
        let dir = out.join(format!("scratch-{}-{}", std::process::id(), kind.name()));
        std::fs::create_dir_all(&dir).map_err(|e| BenchError::io("create", &dir, e))?;
        Ok(Scratch(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        // Nothing can be done about a failure here; the directory is under
        // the git-ignored output tree either way.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Writes `text` to `path` through a temporary file and a rename, so a
/// reader never sees half a result.
pub fn write_atomic(path: &Path, text: &str) -> Result<(), BenchError> {
    let tmp = path.with_extension(format!("tmp-{}", std::process::id()));
    std::fs::write(&tmp, text).map_err(|e| BenchError::io("write", &tmp, e))?;
    std::fs::rename(&tmp, path).map_err(|e| BenchError::io("rename", &tmp, e))
}

/// Scenario runs attempted and failed so far, with one line per failure.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Scenario runs (and cross-path checks) attempted.
    pub attempted: u64,
    /// Of those, how many failed.
    pub failed: u64,
    /// Why.
    pub failures: Vec<String>,
}

impl Tally {
    pub(crate) fn fail(&mut self, msg: String) {
        self.failed += 1;
        self.failures.push(msg);
    }

    fn to_json(&self, doc: &mut Json) {
        doc.set("correct", Json::Bool(self.failed == 0));
        doc.set("scenarios_attempted", Json::Int(i128::from(self.attempted)));
        doc.set("scenarios_failed", Json::Int(i128::from(self.failed)));
        doc.set(
            "failures",
            Json::Arr(self.failures.iter().cloned().map(Json::Str).collect()),
        );
    }
}

/// Runs `scenarios` once through the serial sweep runner. A scenario that
/// panics (the product still panics on an unreadable trace) costs the pass
/// its timing but not the process: the list is re-run one scenario at a
/// time to find which ones fail, and `None` is returned for the wall time.
/// Every result is checked for the invariants any run must keep.
pub fn run_scenarios(
    scenarios: Vec<Scenario>,
    tally: &mut Tally,
) -> (Option<f64>, Vec<ScenarioResult>) {
    tally.attempted += scenarios.len() as u64;
    let sweep = catch_unwind(AssertUnwindSafe(|| {
        SweepRunner::serial().run(scenarios.clone())
    }));
    let (wall, results) = match sweep {
        Ok(sweep) => (Some(sweep.wall.as_secs_f64()), sweep.results),
        Err(_) => {
            let mut survivors = Vec::new();
            for scenario in &scenarios {
                match catch_unwind(AssertUnwindSafe(|| scenario.run())) {
                    Ok(result) => survivors.push(result),
                    Err(_) => tally.fail(format!("{}: panicked", scenario.label)),
                }
            }
            (None, survivors)
        }
    };
    for r in &results {
        if !(0.0..=1.0).contains(&r.report.fast_hit_frac) {
            tally.fail(format!(
                "{}: fast_hit_frac {} outside [0, 1]",
                r.label, r.report.fast_hit_frac
            ));
        }
        if let Some(multi) = &r.multi {
            let quotas: u64 = multi.tenants.iter().map(|t| t.final_quota_pages).sum();
            if quotas > multi.fast_budget_pages {
                tally.fail(format!(
                    "{}: quotas sum to {quotas} pages, budget is {}",
                    r.label, multi.fast_budget_pages
                ));
            }
        }
    }
    (wall, results)
}

/// One full pass of `plan` (for `trace`: record, then replay) and its host
/// nanoseconds per simulated access: the mean, over the pass's scenarios
/// (and recordings), of each one's wall time ÷ its own access count; `None`
/// when a scenario failed.
///
/// Pass wall ÷ total accesses would weight scenarios by access count, and
/// CDN's accesses per op swing ±30 % with the seed while tick-dominated
/// scenarios cost the same wall either way: on `ladder` that quotient moves
/// ±17 % between seeds with the host doing identical work. Weighting
/// scenarios equally does not (and the heavy scenarios still dominate it).
fn pass(plan: &Plan, tally: &mut Tally) -> Result<(Option<f64>, Vec<ScenarioResult>), BenchError> {
    let mut costs = Vec::new();
    if plan.kind == WorkloadKind::Trace {
        for (wall_s, accesses) in plan.record_traces()? {
            costs.push(wall_s * 1e9 / accesses.max(1) as f64);
        }
    }
    let (sweep_wall, results) = run_scenarios(plan.scenarios(), tally);
    costs.extend(
        results
            .iter()
            .filter(|r| r.report.accesses > 0)
            .map(|r| r.wall.as_secs_f64() * 1e9 / r.report.accesses as f64),
    );
    let ns_per_access = sweep_wall
        .filter(|_| !costs.is_empty())
        .map(|_| costs.iter().sum::<f64>() / costs.len() as f64);
    Ok((ns_per_access, results))
}

/// The cross-path checks, run at warm-up size against the warm-up results:
/// on `ladder`, the ladder entry point over a 2-tier topology must equal
/// the classic run on one probe cell; on `trace`, every replay must equal
/// the live generator it was recorded from.
fn cross_checks(warm: &Plan, results: &[ScenarioResult], tally: &mut Tally) {
    match warm.kind {
        WorkloadKind::Ladder => {
            tally.attempted += 1;
            let cfg = SimConfig::default().with_max_ops((LADDER_OPS / warm.scale).max(1));
            let run = |ladder: bool| {
                let mut w = build_workload(WorkloadId::CdnCacheLib, warm.seed);
                let pages = w.footprint_pages(cfg.page_size);
                let tier_cfg = TierConfig::for_footprint(pages, TierRatio::OneTo8, cfg.page_size);
                let mut p = build_policy(PolicyKind::HybridTier, &tier_cfg);
                let engine = Engine::new(cfg.clone());
                if ladder {
                    let topology = TierTopology::two_tier(tier_cfg, &cfg.latency);
                    engine.run_ladder(w.as_mut(), p.as_mut(), topology)
                } else {
                    engine.run(w.as_mut(), p.as_mut(), tier_cfg)
                }
            };
            match catch_unwind(AssertUnwindSafe(|| (run(false), run(true)))) {
                Ok((classic, ladder)) if classic == ladder => {}
                Ok(_) => tally.fail(
                    "probe CDN/1:8/HybridTier: 2-tier run_ladder differs from run".to_string(),
                ),
                Err(_) => tally.fail("probe CDN/1:8/HybridTier: panicked".to_string()),
            }
        }
        WorkloadKind::Trace => {
            let kinds = [
                PolicyKind::FirstTouch,
                PolicyKind::Memtis,
                PolicyKind::HybridTier,
            ];
            for (id, seed, path) in warm.trace_inputs() {
                let stem = WorkloadSpec::Trace(path).label();
                for kind in kinds {
                    tally.attempted += 1;
                    let label = format!("{stem}/1:8/{}", kind.label());
                    let Some(replay) = results.iter().find(|r| r.label == label) else {
                        tally.fail(format!("{label}: no replay result to check"));
                        continue;
                    };
                    let cfg = SimConfig::default().with_max_ops(replay.report.ops);
                    let live = Scenario::suite(id, kind, TierRatio::OneTo8, &cfg, seed);
                    match catch_unwind(AssertUnwindSafe(|| live.run())) {
                        Ok(live) if live.report.fingerprint() == replay.report.fingerprint() => {}
                        Ok(_) => {
                            tally.fail(format!("{label}: replay differs from the live generator"))
                        }
                        Err(_) => tally.fail(format!("{label}: live generator panicked")),
                    }
                }
            }
        }
        _ => {}
    }
}

/// FNV-1a over the scenario fingerprints of one pass, in order.
fn digest(results: &[ScenarioResult]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for r in results {
        for b in r.fingerprint().to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Whether `digest` differs from the one `expected.json` pins for this
/// workload; `None` when the file pins a different seed or scale.
fn digest_changed(plan: &Plan, digest: u64) -> Result<Option<bool>, BenchError> {
    let path = Path::new("benchmark/expected.json");
    let doc = json::parse(EXPECTED_TEXT).map_err(|e| BenchError::parse(path, e.to_string()))?;
    let pinned = |key: &str| doc.get(key).and_then(Json::as_i128);
    if pinned("seed") != Some(i128::from(plan.seed))
        || pinned("scale") != Some(i128::from(plan.scale))
    {
        return Ok(None);
    }
    Ok(doc
        .get("digests")
        .and_then(|d| d.str(plan.kind.name()))
        .map(|want| want != format!("{digest:016x}")))
}

/// The three simulated-result metrics, from one pass's results. Cells are
/// grouped by (workload, tier); each ratio is a geometric mean over the
/// cells that have both sides, and 1 when the workload has none (the
/// multi-tenant scenarios of `fleet`; cache statistics exist only under
/// full cache simulation).
fn sim_metrics(results: &[ScenarioResult]) -> [(&'static str, f64); 3] {
    let ht = PolicyKind::HybridTier.label();
    let memtis = PolicyKind::Memtis.label();
    let (mut speedups, mut metadata, mut llc) = (Vec::new(), Vec::new(), Vec::new());
    for hybrid in results.iter().filter(|r| r.policy == ht) {
        let cell = results
            .iter()
            .filter(|r| r.workload == hybrid.workload && r.tier == hybrid.tier);
        for other in cell.filter(|r| r.policy != ht) {
            speedups.push(other.report.sim_ns as f64 / hybrid.report.sim_ns as f64);
            if other.policy != memtis {
                continue;
            }
            metadata.push(other.report.metadata_bytes as f64 / hybrid.report.metadata_bytes as f64);
            if let (Some(theirs), Some(ours)) = (&other.report.cache, &hybrid.report.cache) {
                let misses =
                    |s: &hybridtier::cache::HierarchyStats| s.llc.by(Source::Tiering).misses as f64;
                llc.push(misses(theirs) / misses(ours));
            }
        }
    }
    [
        ("sim_ht_speedup_geomean", geomean(&speedups).unwrap_or(1.0)),
        ("sim_ht_metadata_ratio", geomean(&metadata).unwrap_or(1.0)),
        ("sim_ht_llc_miss_ratio", geomean(&llc).unwrap_or(1.0)),
    ]
}

fn result_doc(opts: &RunOptions, plan: &Plan, mode: &str) -> Json {
    let mut doc = Json::obj();
    doc.set("kind", Json::Str(RESULT_KIND.to_string()));
    doc.set("mode", Json::Str(mode.to_string()));
    doc.set("workload", Json::Str(opts.kind.name().to_string()));
    doc.set("env", env::block(plan.seed, plan.scale, &plan.constants()));
    doc
}

fn plan_for(opts: &RunOptions, scratch: &Scratch) -> Plan {
    Plan {
        kind: opts.kind,
        seed: opts.seed,
        scale: opts.scale,
        scratch: scratch.path().to_path_buf(),
    }
}

/// The untraced run: returns the result document (written to
/// `<out>/<workload>.json` when `write_files`).
pub fn end_to_end(opts: &RunOptions) -> Result<Json, BenchError> {
    let spec = Spec::load()?;
    let scratch = Scratch::create(&opts.out, opts.kind)?;
    let plan = plan_for(opts, &scratch);
    let mut tally = Tally::default();

    // Set-up, repeated: the last repetition uses the real seed, so the
    // process-wide caches it warms are the ones the passes hit; the earlier
    // ones use throwaway seeds, because a cached graph cannot be built twice.
    let mut setups = Vec::new();
    for rep in (0..SETUP_REPS).rev() {
        let seed = if rep == 0 {
            plan.seed
        } else {
            derive_seed(plan.seed, 0x5E7_0000 + rep)
        };
        let start = Instant::now();
        plan.set_up(seed)?;
        setups.push(start.elapsed().as_secs_f64());
    }
    let setup = Summary::of(&setups).expect("SETUP_REPS > 0 finite samples");

    let warm = plan.shrunk(WARMUP_DIV);
    let (_, warm_results) = pass(&warm, &mut tally)?;
    cross_checks(&warm, &warm_results, &mut tally);
    drop(warm_results);

    // Each pass is bracketed by readings of the reference kernel and its
    // wall time divided by the mean of the two (see `refclock`).
    let mut clock = Reference::new();
    let mut slowdown_before = clock.slowdown();
    let measuring = Instant::now();
    let mut reference: Option<Vec<ScenarioResult>> = None;
    let (mut ns_per_access, mut raw_ns_per_access, mut slowdowns) =
        (Vec::new(), Vec::new(), Vec::new());
    let mut scenario_walls: Vec<Vec<f64>> = Vec::new();
    let mut passes = 0;
    while passes < MIN_PASSES
        || (passes < MAX_PASSES && measuring.elapsed().as_secs_f64() < opts.seconds as f64)
    {
        passes += 1;
        let (raw, results) = pass(&plan, &mut tally)?;
        let slowdown_after = clock.slowdown();
        let slowdown = (slowdown_before + slowdown_after) / 2.0;
        slowdown_before = slowdown_after;
        if let Some(raw) = raw {
            raw_ns_per_access.push(raw);
            slowdowns.push(slowdown);
            ns_per_access.push(raw / slowdown);
            scenario_walls.push(results.iter().map(|r| r.wall.as_secs_f64()).collect());
        }
        match &reference {
            None => reference = Some(results),
            Some(first) => {
                for (a, b) in first.iter().zip(&results) {
                    if a.report.accesses != b.report.accesses {
                        tally.fail(format!("{}: accesses differ between passes", b.label));
                    } else if a.fingerprint() != b.fingerprint() {
                        tally.fail(format!("{}: fingerprint differs between passes", b.label));
                    }
                }
                if first.len() != results.len() {
                    tally.fail("scenario count differs between passes".to_string());
                }
            }
        }
    }
    let reference = reference.unwrap_or_default();
    let host = Summary::of(&ns_per_access).ok_or_else(|| BenchError::Child {
        workload: opts.kind.name().to_string(),
        msg: format!("no pass completed: {}", tally.failures.join("; ")),
    })?;

    let mut values = vec![
        ("host_ns_per_access".to_string(), host.median),
        (
            "peak_rss_mib".to_string(),
            env::status_kib("VmHWM")? as f64 / 1024.0,
        ),
        ("setup_s".to_string(), setup.median),
    ];
    values.extend(
        sim_metrics(&reference)
            .into_iter()
            .map(|(k, v)| (k.to_string(), v)),
    );

    let sim_digest = digest(&reference);
    let mut doc = result_doc(opts, &plan, "end_to_end");
    let mut protocol = Json::obj();
    protocol.set("seconds", Json::Int(i128::from(opts.seconds)));
    protocol.set("setup_reps", Json::Int(i128::from(SETUP_REPS)));
    protocol.set("warmup_div", Json::Int(i128::from(WARMUP_DIV)));
    protocol.set("passes", Json::Int(passes as i128));
    doc.set("protocol", protocol);
    tally.to_json(&mut doc);
    doc.set("sim_digest", Json::Str(format!("{sim_digest:016x}")));
    doc.set(
        "sim_digest_changed",
        digest_changed(&plan, sim_digest)?.map_or(Json::Null, Json::Bool),
    );
    doc.set("metrics", metrics_json(&spec.end_to_end, &values)?);
    let mut timings = Json::obj();
    timings.set("host_ns_per_access", host.to_json());
    for (name, samples) in [
        ("host_ns_per_access_raw", &raw_ns_per_access),
        ("reference_slowdown", &slowdowns),
    ] {
        if let Some(summary) = Summary::of(samples) {
            timings.set(name, summary.to_json());
        }
    }
    timings.set("setup_s", setup.to_json());
    timings.set(
        "host_ns_per_access_by_pass",
        Json::Arr(ns_per_access.iter().copied().map(Json::Num).collect()),
    );
    doc.set("timings", timings);
    let mut counts = Json::obj();
    counts.set("scenarios", Json::Int(reference.len() as i128));
    counts.set(
        "accesses_per_pass",
        Json::Int(
            reference
                .iter()
                .map(|r| i128::from(r.report.accesses))
                .sum(),
        ),
    );
    counts.set(
        "samples_per_pass",
        Json::Int(reference.iter().map(|r| i128::from(r.report.samples)).sum()),
    );
    counts.set(
        "pages_migrated_per_pass",
        Json::Int(
            reference
                .iter()
                .map(|r| i128::from(r.report.migrations.promotions + r.report.migrations.demotions))
                .sum(),
        ),
    );
    doc.set("counts", counts);
    doc.set(
        "scenarios",
        Json::Arr(
            reference
                .iter()
                .enumerate()
                .map(|(i, r)| {
                    let walls: Vec<f64> = scenario_walls.iter().map(|p| p[i]).collect();
                    let mut s = Json::obj();
                    s.set("label", Json::Str(r.label.clone()));
                    s.set("accesses", Json::Int(i128::from(r.report.accesses)));
                    s.set("sim_ns", Json::Int(i128::from(r.report.sim_ns)));
                    s.set(
                        "fingerprint",
                        Json::Str(format!("{:016x}", r.fingerprint())),
                    );
                    if let Some(w) = Summary::of(&walls) {
                        s.set("wall_s", Json::Num(w.median));
                    }
                    s
                })
                .collect(),
        ),
    );
    if opts.write_files {
        let path = opts.out.join(format!("{}.json", opts.kind.name()));
        write_atomic(&path, &(doc.render() + "\n"))?;
    }
    Ok(doc)
}

/// The traced run: returns the result document (written to
/// `<out>/<workload>.layers.json`, with the span tree beside it in
/// `<out>/<workload>.spans.json`, when `write_files`).
pub fn per_layer(opts: &RunOptions) -> Result<Json, BenchError> {
    let spec = Spec::load()?;
    let scratch = Scratch::create(&opts.out, opts.kind)?;
    let plan = plan_for(opts, &scratch);
    let traced = traced::run(&plan)?;

    let mut doc = result_doc(opts, &plan, "per_layer");
    traced.tally.to_json(&mut doc);
    doc.set("metrics", metrics_json(&spec.per_layer, &traced.metrics)?);
    let mut ledger = Json::obj();
    for (name, value) in &traced.ledger {
        ledger.set(name, Json::Num(*value));
    }
    doc.set("ledger", ledger);
    if opts.write_files {
        let name = opts.kind.name();
        write_atomic(
            &opts.out.join(format!("{name}.spans.json")),
            &(traced.spans_json().render() + "\n"),
        )?;
        write_atomic(
            &opts.out.join(format!("{name}.layers.json")),
            &(doc.render() + "\n"),
        )?;
    }
    Ok(doc)
}
