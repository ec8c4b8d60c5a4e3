//! The `bench` binary's flag contract, checked on the built binary: what
//! `--help` promises, that the retired perf-gate flags are rejected like
//! any other unknown flag (before anything runs or is written), and that
//! the shard/merge exclusion still holds.

use std::process::{Command, Output};

/// Every flag `parse_args` accepts besides `--help` itself.
const FLAGS: &str = "--json --ops --sim-ms --threads --serial-only --parallel-only --no-tiers \
                     --no-colocation --no-fleet --no-trace --no-controller --shard \
                     --exec-workers --merge";

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(args)
        .output()
        .expect("spawn bench")
}

#[test]
fn help_exits_zero_and_names_every_flag() {
    let out = bench(&["--help"]);
    assert!(out.status.success());
    let usage = String::from_utf8(out.stdout).expect("utf-8 usage");
    for flag in FLAGS.split_whitespace() {
        assert!(usage.contains(flag), "usage omits {flag}:\n{usage}");
    }
}

#[test]
fn retired_perf_gate_flags_are_unknown_and_write_nothing() {
    let json = std::env::temp_dir().join(format!("bench_cli_{}.json", std::process::id()));
    let json = json.to_str().expect("utf-8 temp path");
    for (name, value) in [("compare", "x"), ("regress", "0.1")] {
        let flag = format!("--{name}");
        let out = bench(&["--json", json, &flag, value]);
        assert!(!out.status.success(), "{flag} accepted");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown flag '{flag}'")),
            "{flag}: {stderr}"
        );
        assert!(!std::path::Path::new(json).exists(), "{flag} wrote {json}");
    }
}

#[test]
fn shard_and_merge_stay_mutually_exclusive() {
    let out = bench(&["--shard", "0/2", "--merge", "a.json"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--merge only reads shard jsons"),
        "{stderr}"
    );
}
