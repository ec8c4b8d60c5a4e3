//! The `bench` binary's contract, checked on the built binary: what
//! `--help` promises, that retired flags are rejected like any other
//! unknown flag (before anything runs or is written), that the shard/merge
//! exclusion still holds, and that equal flags write equal bytes. Plus
//! `diag`'s: an argument it does not know is an error, not a default.

use std::process::{Command, Output};

use hybridtier_bench::json::{parse, Json};

/// Every flag `parse_args` accepts besides `--help` itself.
const FLAGS: &str = "--json --ops --sim-ms --threads --serial-only --parallel-only --no-tiers \
                     --no-colocation --no-fleet --no-trace --shard --exec-workers --merge";

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
fn retired_flags_are_unknown_and_write_nothing() {
    let json = std::env::temp_dir().join(format!("bench_cli_{}.json", std::process::id()));
    let json = json.to_str().expect("utf-8 temp path");
    // Built with `format!` so a grep for the retired flags finds no caller.
    for (name, value) in [
        ("compare", Some("x")),
        ("regress", Some("0.1")),
        ("no-controller", None),
    ] {
        let flag = format!("--{name}");
        let mut args = vec!["--json", json, flag.as_str()];
        args.extend(value);
        let out = bench(&args);
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

#[test]
fn equal_flags_write_byte_identical_documents() {
    let tmp = std::env::temp_dir();
    let paths =
        ["a", "b"].map(|run| tmp.join(format!("bench_cli_{run}_{}.json", std::process::id())));
    // Different worker counts: scheduling must not leak into the document.
    for (path, threads) in paths.iter().zip(["1", "3"]) {
        let path = path.to_str().expect("utf-8 temp path");
        let out = bench(&[
            "--ops",
            "2000",
            "--sim-ms",
            "2",
            "--threads",
            threads,
            "--json",
            path,
        ]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let [a, b] = paths.map(|path| {
        let bytes = std::fs::read(&path).expect("bench wrote its document");
        let _ = std::fs::remove_file(&path);
        bytes
    });
    assert!(a == b, "two runs of the same flags differ");
    // The top-level members are the documented ones.
    let doc = parse(std::str::from_utf8(&a).expect("utf-8 json"));
    let Json::Obj(members) = doc.expect("bench wrote json") else {
        panic!("a BENCH document is one object");
    };
    let format = include_str!("../../../docs/BENCH_FORMAT.md");
    for (key, _) in &members {
        assert!(
            format.contains(&format!("\"{key}\"")),
            "{key} is undocumented"
        );
    }
    assert_eq!(
        members.len(),
        7,
        "bench, ops_per_scenario and five sections"
    );
}

#[test]
fn diag_rejects_unknown_policy_and_ratio_before_simulating() {
    for (args, complaint) in [
        (&["bogus"][..], "unknown policy 'bogus'"),
        (&["tpp", "1:3"][..], "unknown ratio '1:3'"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_diag"))
            .args(args)
            .output()
            .expect("spawn diag");
        assert!(!out.status.success(), "{args:?} accepted");
        assert!(out.stdout.is_empty(), "{args:?} started a run");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(complaint), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: diag"), "{args:?}: {stderr}");
        assert!(stderr.contains("neomem"), "usage omits neomem: {stderr}");
    }
}
