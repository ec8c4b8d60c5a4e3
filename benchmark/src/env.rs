//! What the host and build looked like when a result was measured.

use std::path::Path;
use std::process::Command;

use hybridtier_bench::json::Json;

use crate::error::BenchError;

/// One `kB` field of `/proc/self/status` (`VmHWM`, `VmRSS`), in KiB.
pub fn status_kib(field: &str) -> Result<u64, BenchError> {
    let path = Path::new("/proc/self/status");
    let text = std::fs::read_to_string(path).map_err(|e| BenchError::io("read", path, e))?;
    text.lines()
        .find_map(|line| {
            let rest = line.strip_prefix(field)?.strip_prefix(':')?;
            rest.trim().strip_suffix("kB")?.trim().parse().ok()
        })
        .ok_or_else(|| BenchError::parse(path, format!("no {field} line")))
}

/// The commit of the enclosing git checkout, or `"unknown"` outside one.
fn git_commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The `env` block of a result file. `constants` are the workload's fixed
/// sizes; `compare` refuses files whose `seed`, `scale`, or `constants`
/// differ.
pub fn block(seed: u64, scale: u64, constants: &[(&'static str, u64)]) -> Json {
    let mut env = Json::obj();
    env.set(
        "rustc",
        Json::Str(env!("BENCHMARK_RUSTC_VERSION").to_string()),
    );
    env.set("target", Json::Str(env!("BENCHMARK_TARGET").to_string()));
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    env.set("nproc", Json::Int(nproc as i128));
    // The benchmark depends on the facade without features: scalar CBF
    // kernels, the configuration the product ships by default.
    env.set("simd", Json::Bool(false));
    env.set("git_commit", Json::Str(git_commit()));
    env.set("seed", Json::Int(i128::from(seed)));
    env.set("scale", Json::Int(i128::from(scale)));
    let mut sizes = Json::obj();
    for (name, value) in constants {
        sizes.set(name, Json::Int(i128::from(*value)));
    }
    env.set("constants", sizes);
    env
}
