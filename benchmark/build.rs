//! Captures the compiler and target the benchmark binary was built with, so
//! every result file can say which toolchain produced its numbers.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(rustc)
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let target = std::env::var("TARGET").unwrap_or_else(|_| "unknown".to_string());
    println!("cargo:rustc-env=BENCHMARK_RUSTC_VERSION={version}");
    println!("cargo:rustc-env=BENCHMARK_TARGET={target}");
    println!("cargo:rerun-if-changed=build.rs");
}
