//! Sweep driver: runs the standard sweeps serial and parallel, checks
//! parallel ≡ serial, and emits machine-readable `BENCH_*.json` (schema:
//! `docs/BENCH_FORMAT.md`). Every member of that document is deterministic
//! — two runs with the same flags write the same bytes — and nothing in it
//! is a time: the one instrument that reports host time is `benchmark/`.
//!
//! ```text
//! cargo run -p hybridtier-bench --release --bin bench -- [flags]
//!
//!   --json <path>     write BENCH json here (default results/BENCH_sweep.json)
//!   --ops <n>         ops per scenario        (default 300000)
//!   --sim-ms <n>      simulated ms per co-location scenario (default 100)
//!   --threads <n>     parallel worker threads (default: all cores)
//!   --serial-only     skip the parallel pass
//!   --parallel-only   skip the serial pass
//!   --no-tiers        skip the tier-ladder sweep
//!   --no-colocation   skip the co-location sweep
//!   --no-fleet        skip the fleet churn sweep
//!   --no-trace        skip the trace-replay sweep (recorded CacheLib
//!                     traces streamed back through the batch pipeline)
//!   --shard <i/N>     run only round-robin shard i of N (0-based) of every
//!                     sweep; the json gains shard identity for --merge
//!   --merge <a.json> <b.json> ...
//!                     merge shard jsons (any order) into --json instead of
//!                     running; rejects overlapping/missing/foreign shards
//! ```
//!
//! The JSON records, per sweep (`"single"`, `"tiers"`, `"colocation"`,
//! `"fleet"`, `"trace"`), whether parallel results were identical to serial
//! and the full per-scenario results.
//!
//! The distributed workflow (`--shard` on every host, `--merge` anywhere)
//! reassembles a file byte-identical to the unsharded run's — see
//! `docs/BENCH_FORMAT.md` and the `tiering_runner` README's sharding guide.

use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use hybridtier_bench::json::Json;
use hybridtier_bench::{
    colocation_matrix, fleet_matrix, merge, policy_comparison_matrix, tier_ladder_matrix,
};
use tiering_runner::{Scenario, ShardReport, ShardSpec, ShardedSweep, SweepRunner};

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
    shard: Option<ShardSpec>,
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
        shard: None,
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
            "--shard" => {
                args.shard = Some(
                    it.next()
                        .ok_or("--shard needs i/N (0-based)")?
                        .parse()
                        .map_err(|e| format!("--shard: {e}"))?,
                );
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
                     [--no-fleet] [--no-trace] [--shard <i/N>] [--merge <shard.json>...]\n\
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
    Ok(Some(args))
}

/// `--merge` mode: no simulations, just validate + reassemble shard jsons.
fn run_merge(args: &Args) -> Result<Json, String> {
    let texts = args
        .merge
        .iter()
        .map(|path| {
            std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let merged = merge::merge_texts(&texts).map_err(|e| match e {
        merge::MergeJsonError::Unparseable { doc, detail } => {
            format!("cannot parse {}: {detail}", args.merge[doc].display())
        }
        e => format!("merge failed: {e}"),
    })?;
    for section in merge::SECTIONS {
        if let Some(n) = merged.get(section).and_then(|s| s.num("scenarios")) {
            println!(
                "merged '{section}': {n} scenarios from {} shards",
                args.merge.len()
            );
        }
    }
    Ok(merged)
}

/// One sweep's results (the passes agree or the run fails, so either
/// pass's will do) with the shard identity they were cut with, and whether
/// the passes agreed when both ran.
struct SweepPasses {
    shard: ShardReport,
    identical: Option<bool>,
}

/// Runs one scenario list serial and/or parallel — only this host's shard
/// of it when `--shard` is set, the whole list as shard `0/1` otherwise.
/// Returns the passes and whether they agreed; `Err` when a scenario could
/// not be built (an unreadable trace input).
fn run_sweep(
    name: &str,
    args: &Args,
    build: impl Fn() -> Vec<Scenario>,
) -> Result<SweepPasses, String> {
    // Shard selection happens on the full canonical list, so per-scenario
    // seeds are identical sharded or not (the runner's shard guarantee).
    let spec = args.shard.unwrap_or_else(ShardSpec::solo);
    let passes = [
        args.serial.then(|| ("serial:", SweepRunner::serial())),
        args.parallel
            .then(|| ("parallel:", SweepRunner::new(args.threads))),
    ];
    let mut reports: Vec<ShardReport> = Vec::with_capacity(2);
    for (pass, runner) in passes.into_iter().flatten() {
        let report = ShardedSweep::new(spec, runner)
            .try_run(build())
            .map_err(|e| format!("{name}: {e}"))?;
        if reports.is_empty() {
            let matrix_len = report.matrix_len;
            match args.shard {
                Some(spec) => println!(
                    "{name}: {} of {matrix_len} scenarios (shard {spec})",
                    report.sweep.results.len()
                ),
                None => println!("{name}: {matrix_len} scenarios"),
            }
        }
        let threads = report.sweep.threads;
        println!(
            "{pass:<9} {:>8.2}s on {threads} thread{}",
            report.sweep.wall.as_secs_f64(),
            if threads == 1 { "" } else { "s" }
        );
        reports.push(report);
    }
    let identical = match reports.as_slice() {
        [serial, parallel] => {
            let same = serial.sweep.same_outcomes(&parallel.sweep);
            if same {
                println!("parallel results identical to serial: yes");
            } else {
                eprintln!("ERROR: {name} parallel results diverged from serial");
            }
            Some(same)
        }
        _ => None,
    };
    Ok(SweepPasses {
        shard: reports.pop().expect("parse_args keeps one pass on"),
        identical,
    })
}

/// A scratch directory removed when the guard drops.
struct ScratchDir(std::path::PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        // A diverged sweep has already said so.
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

/// Parses the flags, builds the document (by merging or by running) and
/// writes it. `Ok(false)` when a parallel pass diverged from its serial one.
fn run() -> Result<bool, String> {
    let Some(args) = parse_args()? else {
        return Ok(true);
    };
    let (doc, agreed) = if args.merge.is_empty() {
        run_sweeps(&args)?
    } else {
        (run_merge(&args)?, true)
    };
    write_json(&args, &doc)?;
    Ok(agreed)
}

/// Runs every selected sweep and assembles the BENCH document (schema:
/// `docs/BENCH_FORMAT.md`); the flag is whether all passes agreed.
fn run_sweeps(args: &Args) -> Result<(Json, bool), String> {
    let ops = args.ops;
    let single = run_sweep(
        &format!("policy-comparison sweep ({ops} ops/scenario)"),
        args,
        move || policy_comparison_matrix(ops),
    )?;

    let sim_ns = args.sim_ms * 1_000_000;
    let mut colo = None;
    if args.colocation {
        println!();
        colo = Some(run_sweep(
            &format!("co-location sweep ({} simulated ms/scenario)", args.sim_ms),
            args,
            move || colocation_matrix(sim_ns),
        )?);
    }

    let mut fleet = None;
    if args.fleet {
        println!();
        fleet = Some(run_sweep(
            &format!(
                "fleet churn sweep ({} simulated ms/scenario, objectives x budgets)",
                args.sim_ms
            ),
            args,
            move || fleet_matrix(sim_ns),
        )?);
    }

    // The tier-ladder sweep runs after the legacy sections even though it
    // is emitted right after "single" in the JSON (new sections append at
    // the end of the run order).
    let mut tiers = None;
    if args.tiers {
        println!();
        tiers = Some(run_sweep(
            &format!("tier-ladder sweep ({ops} ops/scenario, 3- and 4-tier presets)"),
            args,
            move || tier_ladder_matrix(ops),
        )?);
    }

    // Trace-replay sweep: newest axis, so it runs last. The inputs are
    // recorded fresh with ops-independent names, so scenario labels are
    // stable across --ops protocols. The directory is this process's own:
    // concurrent `bench` runs (parallel tests, shards on one host) record
    // at different --ops and must not see each other's files.
    let mut trace = None;
    if args.trace {
        let trace_dir = ScratchDir(
            std::env::temp_dir().join(format!("hybridtier-bench-traces-{}", std::process::id())),
        );
        let traces = hybridtier_bench::record_trace_inputs(ops, &trace_dir.0)
            .map_err(|e| format!("cannot record trace inputs: {e}"))?;
        println!();
        trace = Some(run_sweep(
            &format!("trace-replay sweep ({ops} ops/scenario, recorded CacheLib traces)"),
            args,
            move || hybridtier_bench::trace_replay_matrix(ops, &traces),
        )?);
    }

    let sections = [
        ("single", Some(&single)),
        ("tiers", tiers.as_ref()),
        ("colocation", colo.as_ref()),
        ("fleet", fleet.as_ref()),
        ("trace", trace.as_ref()),
    ];
    let mut doc = Json::obj();
    doc.set("bench", Json::Str("policy_comparison_sweep".to_string()));
    doc.set("ops_per_scenario", Json::Int(i128::from(args.ops)));
    doc.set("sim_ms_per_scenario", Json::Int(i128::from(args.sim_ms)));
    if let Some(spec) = args.shard {
        let mut shard = Json::obj();
        shard.set("index", Json::Int(spec.index() as i128));
        shard.set("total", Json::Int(spec.total() as i128));
        doc.set("shard", shard);
    }
    for (name, passes) in sections {
        if let Some(SweepPasses { shard, identical }) = passes {
            let cut = args.shard.map(|spec| (spec, shard.matrix_len));
            doc.set(
                name,
                merge::sweep_section_json(&shard.sweep, *identical, cut),
            );
        }
    }
    let mut ran = sections.iter().filter_map(|(_, passes)| *passes);
    Ok((doc, ran.all(|p| p.identical != Some(false))))
}

/// Renders the finished document to `--json`, creating parent directories.
fn write_json(args: &Args, doc: &Json) -> Result<(), String> {
    if let Some(dir) = args.json.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        }
    }
    std::fs::File::create(&args.json)
        .and_then(|mut f| writeln!(f, "{}", doc.render()))
        .map_err(|e| format!("cannot write {}: {e}", args.json.display()))?;
    println!("wrote {}", args.json.display());
    Ok(())
}
