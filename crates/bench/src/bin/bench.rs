//! Sweep driver: runs the standard sweeps once each on the parallel
//! runner and emits machine-readable `BENCH_*.json` (schema:
//! `docs/BENCH_FORMAT.md`). Every member of that document is deterministic
//! — two runs with the same flags, at any `--threads`, write the same
//! bytes — and nothing in it is a time: the one instrument that reports
//! host time is `benchmark/`.
//!
//! ```text
//! cargo run -p hybridtier-bench --release --bin bench -- [flags]
//!
//!   --json <path>     write BENCH json here (default results/BENCH_sweep.json)
//!   --ops <n>         ops per scenario        (default 300000)
//!   --sim-ms <n>      simulated ms per co-location scenario (default 100)
//!   --threads <n>     parallel worker threads (default: all cores)
//!   --shard <i/N>     run only round-robin shard i of N (0-based) of every
//!                     sweep; the json gains shard identity for --merge
//!   --merge <a.json> <b.json> ...
//!                     merge shard jsons (any order) into --json instead of
//!                     running; rejects overlapping/missing/foreign shards
//! ```
//!
//! The JSON records the full per-scenario results of every sweep
//! (`"single"`, `"tiers"`, `"colocation"`, `"fleet"`, `"trace"`).
//!
//! The distributed workflow (`--shard` on every host, `--merge` anywhere)
//! reassembles a file byte-identical to the unsharded run's — see
//! `docs/BENCH_FORMAT.md` and the `tiering_runner` README's sharding guide.

use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use hybridtier_bench::json::Json;
use hybridtier_bench::{
    colocation_matrix, fleet_matrix, merge, policy_comparison_matrix, record_trace_inputs,
    tier_ladder_matrix, trace_replay_matrix,
};
use tiering_runner::{ShardSpec, ShardedSweep, SweepRunner};

struct Args {
    json: PathBuf,
    ops: u64,
    sim_ms: u64,
    threads: usize,
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
                     [--shard <i/N>] [--merge <shard.json>...]\n\
                     json schema and shard/merge workflow: docs/BENCH_FORMAT.md"
                );
                return Ok(None);
            }
            other => return Err(format!("unknown flag '{other}'; try --help")),
        }
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

/// A scratch directory removed when the guard drops.
struct ScratchDir(std::path::PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

/// Parses the flags, builds the document (by merging or by running) and
/// writes it.
fn run() -> Result<(), String> {
    let Some(args) = parse_args()? else {
        return Ok(());
    };
    let doc = if args.merge.is_empty() {
        run_sweeps(&args)?
    } else {
        run_merge(&args)?
    };
    write_json(&args, &doc)
}

/// Runs every sweep once, in document order — only this host's shard of
/// each when `--shard` is set, the whole list as shard `0/1` otherwise —
/// and assembles the BENCH document (schema: `docs/BENCH_FORMAT.md`).
/// `Err` when a scenario could not be built (an unreadable trace input).
fn run_sweeps(args: &Args) -> Result<Json, String> {
    let (ops, sim_ms) = (args.ops, args.sim_ms);
    let sim_ns = sim_ms * 1_000_000;
    // The trace inputs are recorded fresh with ops-independent names, so
    // scenario labels are stable across --ops protocols. The directory is
    // this process's own: concurrent `bench` runs (parallel tests, shards
    // on one host) record at different --ops and must not see each
    // other's files.
    let trace_dir = ScratchDir(
        std::env::temp_dir().join(format!("hybridtier-bench-traces-{}", std::process::id())),
    );
    let traces = record_trace_inputs(ops, &trace_dir.0)
        .map_err(|e| format!("cannot record trace inputs: {e}"))?;
    let sweeps = [
        (
            format!("policy-comparison sweep ({ops} ops/scenario)"),
            policy_comparison_matrix(ops),
        ),
        (
            format!("tier-ladder sweep ({ops} ops/scenario, 3- and 4-tier presets)"),
            tier_ladder_matrix(ops),
        ),
        (
            format!("co-location sweep ({sim_ms} simulated ms/scenario)"),
            colocation_matrix(sim_ns),
        ),
        (
            format!("fleet churn sweep ({sim_ms} simulated ms/scenario, objectives x budgets)"),
            fleet_matrix(sim_ns),
        ),
        (
            format!("trace-replay sweep ({ops} ops/scenario, recorded CacheLib traces)"),
            trace_replay_matrix(ops, &traces),
        ),
    ];

    let mut doc = Json::obj();
    doc.set("bench", Json::Str("policy_comparison_sweep".to_string()));
    doc.set("ops_per_scenario", Json::Int(i128::from(ops)));
    doc.set("sim_ms_per_scenario", Json::Int(i128::from(sim_ms)));
    if let Some(spec) = args.shard {
        let mut shard = Json::obj();
        shard.set("index", Json::Int(spec.index() as i128));
        shard.set("total", Json::Int(spec.total() as i128));
        doc.set("shard", shard);
    }
    // Shard selection happens on the full canonical list, so per-scenario
    // seeds are identical sharded or not (the runner's shard guarantee).
    let sweep = ShardedSweep::new(
        args.shard.unwrap_or_else(ShardSpec::solo),
        SweepRunner::new(args.threads),
    );
    for (section, (name, matrix)) in merge::SECTIONS.into_iter().zip(sweeps) {
        let report = sweep.try_run(matrix).map_err(|e| format!("{name}: {e}"))?;
        let matrix_len = report.matrix_len;
        match args.shard {
            Some(spec) => println!(
                "{name}: {} of {matrix_len} scenarios (shard {spec})",
                report.sweep.results.len()
            ),
            None => println!("{name}: {matrix_len} scenarios"),
        }
        let cut = args.shard.map(|spec| (spec, matrix_len));
        doc.set(section, merge::sweep_section_json(&report.sweep, cut));
    }
    Ok(doc)
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
