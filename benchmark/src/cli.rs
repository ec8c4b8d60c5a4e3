//! The command line.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--scale <d>] [--out <dir>]
//! benchmark all [--seed <n>] [--seconds <s>] [--scale <d>] [--out <dir>]
//! benchmark compare <dirA> <dirB>
//! ```
//!
//! The first form runs one workload in this process and ends its standard
//! output with one JSON line (`correct`, `attempted`, `failed`, `metrics`):
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. `all` runs every workload both ways, each in a fresh child
//! process so peak memory and warm state are per workload, and writes
//! `<out>/<workload>.json`, `<workload>.layers.json` and
//! `<workload>.spans.json` (default `benchmark/out`). `--scale d` divides
//! every size by `d` (tests and the smoke script; results at different
//! scales are different experiments and `compare` refuses to mix them).

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use hybridtier_bench::json::{self, Json};

use crate::compare::compare;
use crate::error::BenchError;
use crate::run::{end_to_end, per_layer, RunOptions};
use crate::spec::Spec;
use crate::workloads::{WorkloadKind, DEFAULT_SEED};

const DEFAULT_OUT: &str = "benchmark/out";

/// Flags shared by the run forms.
#[derive(Debug, Default)]
struct Flags {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<u64>,
    trace: Option<u64>,
    scale: Option<u64>,
    out: Option<PathBuf>,
}

fn parse_flags(args: &[String]) -> Result<Flags, BenchError> {
    let mut flags = Flags::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| BenchError::Usage(format!("{flag} needs a value")))
        };
        let number = |v: &String| {
            v.parse::<u64>()
                .map_err(|e| BenchError::Usage(format!("{flag} {v}: {e}")))
        };
        match flag.as_str() {
            "--workload" => flags.workload = Some(value()?.clone()),
            "--seed" => flags.seed = Some(number(value()?)?),
            "--seconds" => flags.seconds = Some(number(value()?)?),
            "--trace" => flags.trace = Some(number(value()?)?),
            "--scale" => flags.scale = Some(number(value()?)?.max(1)),
            "--out" => flags.out = Some(PathBuf::from(value()?)),
            other => return Err(BenchError::Usage(format!("unknown flag '{other}'"))),
        }
    }
    Ok(flags)
}

/// Prints `doc`'s metrics by name with their units, then the driver's JSON
/// line.
fn print_result(doc: &Json) {
    let name = doc.str("workload").unwrap_or("?");
    let mode = doc.str("mode").unwrap_or("?");
    println!(
        "{name} ({mode}): {} scenario runs attempted, {} failed",
        doc.num("scenarios_attempted").unwrap_or(0.0),
        doc.num("scenarios_failed").unwrap_or(0.0)
    );
    for failure in doc.get("failures").and_then(Json::as_array).unwrap_or(&[]) {
        println!("  FAILED {}", failure.as_str().unwrap_or("?"));
    }
    if let Some(digest) = doc.str("sim_digest") {
        let changed = doc
            .get("sim_digest_changed")
            .map_or("null".into(), Json::render);
        println!("  sim_digest = {digest}  sim_digest_changed = {changed}");
    }
    if let Some(Json::Obj(metrics)) = doc.get("metrics") {
        for (metric, m) in metrics {
            let timing = doc.get("timings").and_then(|t| t.get(metric));
            let detail = timing.map_or(String::new(), |t| {
                format!(
                    "  (median of {}, min {:.4}, max {:.4})",
                    t.num("n").unwrap_or(0.0),
                    t.num("min").unwrap_or(0.0),
                    t.num("max").unwrap_or(0.0)
                )
            });
            println!(
                "  {metric} = {:.4} {}{detail}",
                m.num("value").unwrap_or(f64::NAN),
                m.str("unit").unwrap_or("")
            );
        }
    }
    if let Some(Json::Obj(ledger)) = doc.get("ledger") {
        println!("  ledger (host ns per simulated access):");
        for (layer, v) in ledger {
            println!("    {layer:<40} {:>9.3}", v.as_f64().unwrap_or(f64::NAN));
        }
    }
    let mut line = Json::obj();
    line.set(
        "correct",
        doc.get("correct").cloned().unwrap_or(Json::Bool(false)),
    );
    for (key, from) in [
        ("attempted", "scenarios_attempted"),
        ("failed", "scenarios_failed"),
    ] {
        line.set(key, doc.get(from).cloned().unwrap_or(Json::Int(0)));
    }
    line.set(
        "metrics",
        doc.get("metrics").cloned().unwrap_or_else(Json::obj),
    );
    println!("{}", line.render());
}

fn run_one(flags: Flags) -> Result<(), BenchError> {
    let name = flags
        .workload
        .ok_or_else(|| BenchError::Usage("--workload is required".to_string()))?;
    let kind = WorkloadKind::from_name(&name)
        .ok_or_else(|| BenchError::Usage(format!("unknown workload '{name}'")))?;
    let need = |v: Option<u64>, flag: &str| {
        v.ok_or_else(|| BenchError::Usage(format!("{flag} is required")))
    };
    let opts = RunOptions {
        kind,
        seed: need(flags.seed, "--seed")?,
        seconds: need(flags.seconds, "--seconds")?,
        scale: flags.scale.unwrap_or(1),
        write_files: flags.out.is_some(),
        out: flags.out.unwrap_or_else(|| PathBuf::from(DEFAULT_OUT)),
    };
    let doc = match need(flags.trace, "--trace")? {
        0 => end_to_end(&opts)?,
        1 => per_layer(&opts)?,
        other => return Err(BenchError::Usage(format!("--trace {other}: want 0 or 1"))),
    };
    print_result(&doc);
    Ok(())
}

/// Runs every workload, untraced then traced, each in a child process.
/// Returns whether every result was correct.
fn run_all(flags: Flags) -> Result<bool, BenchError> {
    if flags.workload.is_some() || flags.trace.is_some() {
        return Err(BenchError::Usage(
            "all takes --seed, --seconds, --scale and --out only".to_string(),
        ));
    }
    let spec = Spec::load()?;
    let out = flags.out.unwrap_or_else(|| PathBuf::from(DEFAULT_OUT));
    let exe = std::env::current_exe()
        .map_err(|e| BenchError::io("locate", std::path::Path::new("benchmark"), e))?;
    let mut all_correct = true;
    for kind in WorkloadKind::ALL {
        for (trace, file) in [("0", "json"), ("1", "layers.json")] {
            let child = |msg: String| BenchError::Child {
                workload: kind.name().to_string(),
                msg,
            };
            let status = Command::new(&exe)
                .args(["--workload", kind.name(), "--trace", trace])
                .args(["--seed", &flags.seed.unwrap_or(DEFAULT_SEED).to_string()])
                .args([
                    "--seconds",
                    &flags.seconds.unwrap_or(spec.run_seconds).to_string(),
                ])
                .args(["--scale", &flags.scale.unwrap_or(1).to_string()])
                .arg("--out")
                .arg(&out)
                .status()
                .map_err(|e| child(format!("cannot start child: {e}")))?;
            if !status.success() {
                return Err(child(format!("child exited with {status}")));
            }
            let path = out.join(format!("{}.{file}", kind.name()));
            let text =
                std::fs::read_to_string(&path).map_err(|e| BenchError::io("read", &path, e))?;
            let doc = json::parse(&text).map_err(|e| BenchError::parse(&path, e.to_string()))?;
            all_correct &= doc.get("correct") == Some(&Json::Bool(true));
        }
    }
    println!("results written to {}", out.display());
    Ok(all_correct)
}

fn dispatch(args: &[String]) -> Result<bool, BenchError> {
    match args.first().map(String::as_str) {
        Some("all") => run_all(parse_flags(&args[1..])?),
        Some("compare") => {
            let [_, a, b] = args else {
                return Err(BenchError::Usage("compare takes <dirA> <dirB>".to_string()));
            };
            let comparison = compare(a.as_ref(), b.as_ref())?;
            print!("{}", comparison.text);
            Ok(!comparison.failed)
        }
        Some("--help" | "-h") | None => {
            println!(
                "usage: benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> \
                 [--scale <d>] [--out <dir>]\n       benchmark all [--seed <n>] [--seconds <s>] \
                 [--scale <d>] [--out <dir>]\n       benchmark compare <dirA> <dirB>\n\
                 workloads: cachelib batch ladder cachesim fleet trace (see benchmark/README.md)"
            );
            Ok(true)
        }
        Some(_) => run_one(parse_flags(args)?).map(|()| true),
    }
}

/// Entry point: exit 0 on success, 1 when a comparison or a result failed,
/// 2 on an error.
pub fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
