//! Sweep-driver benchmark: times the policy-comparison sweep serial vs
//! parallel and emits machine-readable `BENCH_*.json`. Schema:
//! `docs/BENCH_FORMAT.md`. It gates correctness (parallel ≡ serial); the
//! perf gate is `benchmark/` and its `compare` subcommand.
//!
//! ```text
//! cargo run -p hybridtier-bench --release --bin bench -- [flags]
//!
//!   --json <path>     write BENCH json here (default results/BENCH_sweep.json)
//!   --ops <n>         ops per scenario        (default 300000)
//!   --sim-ms <n>      simulated ms per co-location scenario (default 100)
//!   --threads <n>     parallel worker threads (default: all cores)
//!   --serial-only     skip the parallel pass
//!   --parallel-only   skip the serial pass (no speedup reported)
//!   --no-tiers        skip the tier-ladder sweep
//!   --no-colocation   skip the co-location sweep
//!   --no-fleet        skip the fleet churn sweep
//!   --no-trace        skip the trace-replay sweep (recorded CacheLib
//!                     traces streamed back through the batch pipeline)
//!   --no-controller   skip the controller scaling probe (ns/rebalance and
//!                     ns/churn-event at 10^3/10^4/10^5 tenants plus the
//!                     large-fleet smoke run; also skipped under --shard,
//!                     since it is a host-local micro-benchmark)
//!   --shard <i/N>     run only round-robin shard i of N (0-based) of every
//!                     sweep; the json gains shard identity for --merge
//!   --exec-workers <n>
//!                     run the parallel pass through the fleet executor
//!                     (n in-process workers, 2n shards, retry/reassignment
//!                     on failure); the json gains a "fleet_exec" section
//!                     with the executor's event log
//!   --merge <a.json> <b.json> ...
//!                     merge shard jsons (any order) into --json instead of
//!                     running; rejects overlapping/missing/foreign shards
//! ```
//!
//! The JSON records wall-clock seconds for each mode, the speedup, the
//! thread count, whether parallel results were byte-identical to serial,
//! and the full per-scenario result/timing breakdown of the last pass run —
//! for the single-tenant policy-comparison sweep, the N-tier ladder sweep
//! (`"tiers"` section: 3- and 4-tier presets across the compared systems
//! plus NeoMem), the multi-tenant co-location sweep (`"colocation"`
//! section, with per-tenant detail), the dynamic-fleet churn sweep
//! (`"fleet"` section: objectives × budgets over the canonical 3-tenant
//! arrive/depart/arrive-again fleet), and the trace-replay sweep
//! (`"trace"` section: both CacheLib workloads recorded to on-disk traces
//! and streamed back through the chunked zero-copy replay path across the
//! compared systems).
//!
//! The distributed workflow (`--shard` on every host, `--merge` anywhere)
//! reassembles a result identical to the unsharded run in every
//! deterministic field — see `docs/BENCH_FORMAT.md` and the
//! `tiering_runner` README's sharding guide.

use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use fleet_exec::{sweep_coordinator, FleetConfig, FleetExecReport};
use hybridtier_bench::controller::controller_section;
use hybridtier_bench::fleet::fleet_exec_json;
use hybridtier_bench::{
    colocation_matrix, fleet_matrix, json, merge, policy_comparison_matrix, tier_ladder_matrix,
};
use tiering_runner::{Scenario, ShardSpec, SweepReport, SweepRunner};

struct Args {
    json: PathBuf,
    ops: u64,
    sim_ms: u64,
    threads: usize,
    serial: bool,
    parallel: bool,
    tiers: bool,
    colocation: bool,
    fleet: bool,
    trace: bool,
    controller: bool,
    shard: Option<ShardSpec>,
    exec_workers: usize,
    merge: Vec<PathBuf>,
}

/// `Ok(None)` means `--help` was requested (exit success, no run).
fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        json: PathBuf::from("results/BENCH_sweep.json"),
        ops: 300_000,
        sim_ms: 100,
        threads: 0,
        serial: true,
        parallel: true,
        tiers: true,
        colocation: true,
        fleet: true,
        trace: true,
        controller: true,
        shard: None,
        exec_workers: 0,
        merge: Vec::new(),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--json" => {
                args.json = PathBuf::from(it.next().ok_or("--json needs a path")?);
            }
            "--ops" => {
                args.ops = it
                    .next()
                    .ok_or("--ops needs a number")?
                    .parse()
                    .map_err(|e| format!("--ops: {e}"))?;
            }
            "--sim-ms" => {
                args.sim_ms = it
                    .next()
                    .ok_or("--sim-ms needs a number")?
                    .parse()
                    .map_err(|e| format!("--sim-ms: {e}"))?;
            }
            "--threads" => {
                args.threads = it
                    .next()
                    .ok_or("--threads needs a number")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?;
            }
            "--serial-only" => args.parallel = false,
            "--parallel-only" => args.serial = false,
            "--no-tiers" => args.tiers = false,
            "--no-colocation" => args.colocation = false,
            "--no-fleet" => args.fleet = false,
            "--no-trace" => args.trace = false,
            "--no-controller" => args.controller = false,
            "--shard" => {
                args.shard = Some(
                    it.next()
                        .ok_or("--shard needs i/N (0-based)")?
                        .parse()
                        .map_err(|e| format!("--shard: {e}"))?,
                );
            }
            "--exec-workers" => {
                args.exec_workers = it
                    .next()
                    .ok_or("--exec-workers needs a worker count")?
                    .parse()
                    .map_err(|e| format!("--exec-workers: {e}"))?;
                if args.exec_workers == 0 {
                    return Err("--exec-workers needs at least one worker".to_string());
                }
            }
            "--merge" => {
                while let Some(path) = it.peek() {
                    if path.starts_with("--") {
                        break;
                    }
                    args.merge.push(PathBuf::from(it.next().expect("peeked")));
                }
                if args.merge.is_empty() {
                    return Err("--merge needs at least one shard json path".to_string());
                }
            }
            "--help" | "-h" => {
                println!(
                    "usage: bench [--json <path>] [--ops <n>] [--sim-ms <n>] [--threads <n>] \
                     [--serial-only] [--parallel-only] [--no-tiers] [--no-colocation] \
                     [--no-fleet] [--no-trace] [--no-controller] [--shard <i/N>] \
                     [--exec-workers <n>] [--merge <shard.json>...]\n\
                     json schema and shard/merge workflow: docs/BENCH_FORMAT.md"
                );
                return Ok(None);
            }
            other => return Err(format!("unknown flag '{other}'; try --help")),
        }
    }
    if !args.serial && !args.parallel {
        return Err("--serial-only and --parallel-only are mutually exclusive".to_string());
    }
    if !args.merge.is_empty() && args.shard.is_some() {
        return Err("--merge only reads shard jsons; drop --shard".to_string());
    }
    if args.exec_workers > 0 {
        if args.shard.is_some() {
            return Err(
                "--exec-workers shards each sweep internally; it cannot run inside a \
                 --shard slice"
                    .to_string(),
            );
        }
        if !args.merge.is_empty() {
            return Err("--merge only reads shard jsons; drop --exec-workers".to_string());
        }
        if !args.parallel {
            return Err("--exec-workers drives the parallel pass; drop --serial-only".to_string());
        }
    }
    Ok(Some(args))
}

/// `--merge` mode: no simulations, just validate + reassemble shard jsons.
fn run_merge(args: &Args) -> Result<String, String> {
    let mut docs = Vec::with_capacity(args.merge.len());
    for path in &args.merge {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let doc =
            json::parse(&text).map_err(|e| format!("cannot parse {}: {e}", path.display()))?;
        docs.push(doc);
    }
    let merged = merge::merge_docs(&docs).map_err(|e| format!("merge failed: {e}"))?;
    for section in merge::SECTIONS {
        if let Some(n) = merged.get(section).and_then(|s| s.num("scenarios")) {
            println!(
                "merged '{section}': {n} scenarios from {} shards",
                args.merge.len()
            );
        }
    }
    Ok(merged.render())
}

/// One sweep's passes: timing, agreement, and the full-matrix size the
/// (possibly sharded) scenario list was cut from.
struct SweepPasses {
    serial: Option<SweepReport>,
    parallel: Option<SweepReport>,
    identical: Option<bool>,
    speedup: Option<f64>,
    matrix_len: usize,
    exec: Option<FleetExecReport>,
}

/// Times one scenario list serial and/or parallel — only this host's shard
/// of it when `--shard` is set. With `--exec-workers` the parallel pass
/// runs through the fleet executor (worker loss, retry, and reassignment
/// handling live) and the executor's event log rides along. Returns the
/// passes, whether they agreed, and the speedup; `Err` when a scenario
/// could not be built (an unreadable trace input) or the fleet executor
/// could not complete the sweep.
fn run_sweep(
    name: &str,
    args: &Args,
    build: impl Fn() -> Vec<Scenario> + Send + Sync + Clone + 'static,
) -> Result<SweepPasses, String> {
    let matrix_len = build().len();
    // Shard selection happens on the full canonical list, so per-scenario
    // seeds are identical sharded or not (the runner's shard guarantee).
    let scenarios = || match args.shard {
        Some(spec) => spec.select(build()),
        None => build(),
    };
    match args.shard {
        Some(spec) => println!(
            "{name}: {} of {matrix_len} scenarios (shard {spec})",
            spec.count_of(matrix_len)
        ),
        None => println!("{name}: {matrix_len} scenarios"),
    }
    let mut serial: Option<SweepReport> = None;
    if args.serial {
        let sweep = SweepRunner::serial()
            .try_run(scenarios())
            .map_err(|e| format!("{name}: {e}"))?;
        println!("serial:   {:>8.2}s on 1 thread", sweep.wall.as_secs_f64());
        serial = Some(sweep);
    }
    let mut parallel: Option<SweepReport> = None;
    let mut exec: Option<FleetExecReport> = None;
    if args.parallel {
        if args.exec_workers > 0 {
            // 2 shards per worker: enough slack that a lost worker's
            // shards spread across survivors instead of serializing.
            let shards = (args.exec_workers * 2).clamp(1, matrix_len.max(1));
            let fleet = sweep_coordinator(build.clone(), args.exec_workers, FleetConfig::default())
                .run_sweep(shards)
                .map_err(|e| format!("{name}: fleet executor failed: {e}"))?;
            println!(
                "exec:     {:>8.2}s across {} workers ({} shards, {} lost, {} retries)",
                fleet.report.wall.as_secs_f64(),
                args.exec_workers,
                shards,
                fleet.exec.workers_lost,
                fleet.exec.retries
            );
            parallel = Some(fleet.report);
            exec = Some(fleet.exec);
        } else {
            let sweep = SweepRunner::new(args.threads)
                .try_run(scenarios())
                .map_err(|e| format!("{name}: {e}"))?;
            println!(
                "parallel: {:>8.2}s on {} threads",
                sweep.wall.as_secs_f64(),
                sweep.threads
            );
            parallel = Some(sweep);
        }
    }
    let identical = match (&serial, &parallel) {
        (Some(s), Some(p)) => {
            let same = s.same_outcomes(p);
            if same {
                println!("parallel results identical to serial: yes");
            } else {
                eprintln!("ERROR: {name} parallel results diverged from serial");
            }
            Some(same)
        }
        _ => None,
    };
    let speedup = match (&serial, &parallel) {
        (Some(s), Some(p)) => {
            let x = s.wall.as_secs_f64() / p.wall.as_secs_f64().max(1e-9);
            println!("speedup:  {x:>8.2}x");
            Some(x)
        }
        _ => None,
    };
    Ok(SweepPasses {
        serial,
        parallel,
        identical,
        speedup,
        matrix_len,
        exec,
    })
}

impl SweepPasses {
    /// This sweep's JSON section (see `merge::sweep_section_json`).
    fn to_json(&self, shard: Option<ShardSpec>) -> String {
        merge::sweep_section_json(
            &self.serial,
            &self.parallel,
            self.identical,
            self.speedup,
            shard.map(|spec| (spec, self.matrix_len)),
        )
    }
}

/// A scratch directory removed when the guard drops.
struct ScratchDir(std::path::PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => return ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    if !args.merge.is_empty() {
        let merged = match run_merge(&args) {
            Ok(m) => m,
            Err(msg) => {
                eprintln!("{msg}");
                return ExitCode::FAILURE;
            }
        };
        return write_json(&args, &merged);
    }

    let ops = args.ops;
    let single = match run_sweep(
        &format!("policy-comparison sweep ({ops} ops/scenario)"),
        &args,
        move || policy_comparison_matrix(ops),
    ) {
        Ok(passes) => passes,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    let sim_ns = args.sim_ms * 1_000_000;
    let mut colo = None;
    if args.colocation {
        println!();
        colo = match run_sweep(
            &format!("co-location sweep ({} simulated ms/scenario)", args.sim_ms),
            &args,
            move || colocation_matrix(sim_ns),
        ) {
            Ok(passes) => Some(passes),
            Err(msg) => {
                eprintln!("{msg}");
                return ExitCode::FAILURE;
            }
        };
    }

    let mut fleet = None;
    if args.fleet {
        println!();
        fleet = match run_sweep(
            &format!(
                "fleet churn sweep ({} simulated ms/scenario, objectives x budgets)",
                args.sim_ms
            ),
            &args,
            move || fleet_matrix(sim_ns),
        ) {
            Ok(passes) => Some(passes),
            Err(msg) => {
                eprintln!("{msg}");
                return ExitCode::FAILURE;
            }
        };
    }

    // The tier-ladder sweep runs *after* the legacy sections even though it
    // is emitted right after "single" in the JSON: wall clocks drift with a
    // process's position in a long run (thermal/steal effects on shared
    // hosts), so new sections must append at the end of the run order to
    // keep the pre-existing sections comparable against old baselines —
    // the timing analogue of the ScenarioMatrix seed-preservation rule.
    let mut tiers = None;
    if args.tiers {
        println!();
        tiers = match run_sweep(
            &format!("tier-ladder sweep ({ops} ops/scenario, 3- and 4-tier presets)"),
            &args,
            move || tier_ladder_matrix(ops),
        ) {
            Ok(passes) => Some(passes),
            Err(msg) => {
                eprintln!("{msg}");
                return ExitCode::FAILURE;
            }
        };
    }

    // Controller scaling probe: host-local micro-timings (no serial /
    // parallel passes to reconcile), so it is skipped on sharded runs —
    // the merged document gets it from whichever host runs unsharded.
    let mut controller = None;
    if args.controller && args.shard.is_none() {
        println!("\ncontroller scaling probe (10^3/10^4/10^5 tenants):");
        controller = Some(controller_section(
            &[1_000, 10_000, 100_000],
            args.ops,
            hybridtier_bench::SEED,
        ));
    }

    // Trace-replay sweep: newest axis, so it runs last (the same
    // append-at-end timing rule the tier-ladder comment above explains).
    // The inputs are recorded fresh (untimed) with ops-independent names,
    // so scenario labels are stable across --ops protocols. The directory
    // is this process's own: concurrent `bench` runs (ProcessWorker shards,
    // parallel tests) record at different --ops and must not see each
    // other's files.
    let mut trace = None;
    if args.trace {
        let trace_dir = ScratchDir(
            std::env::temp_dir().join(format!("hybridtier-bench-traces-{}", std::process::id())),
        );
        let traces = match hybridtier_bench::record_trace_inputs(ops, &trace_dir.0) {
            Ok(paths) => paths,
            Err(e) => {
                eprintln!("cannot record trace inputs: {e}");
                return ExitCode::FAILURE;
            }
        };
        println!();
        trace = match run_sweep(
            &format!("trace-replay sweep ({ops} ops/scenario, recorded CacheLib traces)"),
            &args,
            move || hybridtier_bench::trace_replay_matrix(ops, &traces),
        ) {
            Ok(passes) => Some(passes),
            Err(msg) => {
                eprintln!("{msg}");
                return ExitCode::FAILURE;
            }
        };
    }

    // Assemble the BENCH json around the richer of each sweep's reports.
    // Timing fields live under "single"/"colocation"/"fleet" per sweep
    // (the PR-1 format had them at top level; CHANGES.md records the
    // move); full schema in docs/BENCH_FORMAT.md.
    let mut json = String::from("{\"bench\":\"policy_comparison_sweep\"");
    json.push_str(&format!(",\"ops_per_scenario\":{}", args.ops));
    if let Some(spec) = args.shard {
        json.push_str(&format!(
            ",\"shard\":{{\"index\":{},\"total\":{}}}",
            spec.index(),
            spec.total()
        ));
    }
    json.push_str(&format!(",\"single\":{}", single.to_json(args.shard)));
    if let Some(passes) = &tiers {
        json.push_str(&format!(",\"tiers\":{}", passes.to_json(args.shard)));
    }
    if let Some(passes) = &colo {
        json.push_str(&format!(",\"colocation\":{}", passes.to_json(args.shard)));
    }
    if let Some(passes) = &fleet {
        json.push_str(&format!(",\"fleet\":{}", passes.to_json(args.shard)));
    }
    if let Some(passes) = &trace {
        json.push_str(&format!(",\"trace\":{}", passes.to_json(args.shard)));
    }
    if let Some(section) = &controller {
        json.push_str(&format!(",\"controller\":{}", section.render()));
    }
    // The executor's sealed account of each sweep, one member per sweep
    // section it drove (schema: docs/BENCH_FORMAT.md).
    if args.exec_workers > 0 {
        let mut section = json::Json::obj();
        section.set("workers", json::Json::Int(args.exec_workers as i128));
        for (name, passes) in [
            ("single", Some(&single)),
            ("tiers", tiers.as_ref()),
            ("colocation", colo.as_ref()),
            ("fleet", fleet.as_ref()),
            ("trace", trace.as_ref()),
        ] {
            if let Some(exec) = passes.and_then(|p| p.exec.as_ref()) {
                section.set(name, fleet_exec_json(exec));
            }
        }
        json.push_str(&format!(",\"fleet_exec\":{}", section.render()));
    }
    json.push('}');

    let identical = single.identical;
    let tiers_identical = tiers.as_ref().and_then(|p| p.identical);
    let colo_identical = colo.as_ref().and_then(|p| p.identical);
    let fleet_identical = fleet.as_ref().and_then(|p| p.identical);
    let trace_identical = trace.as_ref().and_then(|p| p.identical);

    let wrote = write_json(&args, &json);
    if wrote != ExitCode::SUCCESS {
        return wrote;
    }

    if identical == Some(false)
        || tiers_identical == Some(false)
        || colo_identical == Some(false)
        || fleet_identical == Some(false)
        || trace_identical == Some(false)
    {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Writes the finished document to `--json`, creating parent directories.
fn write_json(args: &Args, json: &str) -> ExitCode {
    if let Some(dir) = args.json.parent() {
        if !dir.as_os_str().is_empty() {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("cannot create {}: {e}", dir.display());
                return ExitCode::FAILURE;
            }
        }
    }
    match std::fs::File::create(&args.json).and_then(|mut f| writeln!(f, "{json}")) {
        Ok(()) => println!("wrote {}", args.json.display()),
        Err(e) => {
            eprintln!("cannot write {}: {e}", args.json.display());
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
