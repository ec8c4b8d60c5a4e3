//! The `bench` binary's contract, checked on the built binary: what
//! `--help` promises, that retired flags are rejected like any other
//! unknown flag (before anything runs or is written), that the shard/merge
//! exclusion still holds, that `--merge` names a file it cannot parse,
//! that shards run at different `--sim-ms` do not merge, and that equal
//! flags write equal bytes. Plus
//! `diag`'s: an argument it does not know is an error, not a default. And
//! `repro`'s: every id is checked before any runs, and `list` names each
//! experiment once.

use std::process::{Command, Output};

use hybridtier_bench::experiments;
use hybridtier_bench::json::{parse, Json};

/// Every flag `parse_args` accepts besides `--help` itself.
const FLAGS: &str = "--json --ops --sim-ms --threads --shard --merge";

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
    let named: Vec<&str> = usage
        .split(|c: char| c == '[' || c.is_whitespace())
        .filter(|word| word.starts_with("--"))
        .collect();
    assert_eq!(
        named,
        FLAGS.split_whitespace().collect::<Vec<_>>(),
        "{usage}"
    );
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
        ("exec-workers", Some("2")),
        ("serial-only", None),
        ("parallel-only", None),
        ("no-tiers", None),
        ("no-colocation", None),
        ("no-fleet", None),
        ("no-trace", None),
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
fn shards_merge_to_the_unsharded_document() {
    let dir = std::env::temp_dir().join(format!("bench_cli_shards_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir scratch");
    let path = |name: &str| {
        dir.join(name)
            .to_str()
            .expect("utf-8 temp path")
            .to_string()
    };
    let protocol = ["--ops", "1500", "--sim-ms", "2"];
    let run = |extra: &[&str]| {
        let mut args = protocol.to_vec();
        args.extend(extra);
        let out = bench(&args);
        assert!(
            out.status.success(),
            "bench {extra:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    };
    run(&["--json", &path("unsharded.json")]);
    let shards: Vec<String> = (0..3).map(|i| path(&format!("shard{i}.json"))).collect();
    // Out of order: the merge sorts by shard identity.
    for i in [2, 0, 1] {
        run(&["--shard", &format!("{i}/3"), "--json", &shards[i]]);
    }
    let merged = path("merged.json");
    let mut merge = vec!["--json", merged.as_str(), "--merge"];
    merge.extend(shards.iter().rev().map(String::as_str));
    let out = bench(&merge);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let [unsharded, merged] =
        [path("unsharded.json"), merged].map(|p| std::fs::read(p).expect("bench wrote"));
    let _ = std::fs::remove_dir_all(&dir);
    assert!(unsharded == merged, "merged shards != unsharded run");
}

#[test]
fn merge_names_the_file_it_cannot_parse() {
    let dir = std::env::temp_dir().join(format!("bench_cli_merge_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir scratch");
    let good = dir.join("good.json");
    let truncated = dir.join("truncated.json");
    let out_json = dir.join("merged.json");
    std::fs::write(&good, r#"{"bench":"x","shard":{"index":0,"total":2}}"#).expect("write");
    std::fs::write(&truncated, r#"{"bench":"x","shard":{"index":1,"tot"#).expect("write");
    let path = |p: &std::path::Path| p.to_str().expect("utf-8 temp path").to_string();
    let out = bench(&[
        "--json",
        &path(&out_json),
        "--merge",
        &path(&good),
        &path(&truncated),
    ]);
    let wrote = out_json.exists();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(!out.status.success(), "a truncated shard was merged");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("truncated.json"), "{stderr}");
    assert!(!stderr.contains("good.json"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(!wrote, "a failed merge wrote its output");
}

#[test]
fn shards_at_different_horizons_do_not_merge() {
    let dir = std::env::temp_dir().join(format!("bench_cli_horizon_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir scratch");
    let path = |name: &str| {
        dir.join(name)
            .to_str()
            .expect("utf-8 temp path")
            .to_string()
    };
    let shards = [path("shard0.json"), path("shard1.json")];
    for (i, sim_ms) in [(0, "2"), (1, "3")] {
        let out = bench(&[
            "--ops",
            "500",
            "--sim-ms",
            sim_ms,
            "--shard",
            &format!("{i}/2"),
            "--json",
            &shards[i],
        ]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let merged = path("merged.json");
    let out = bench(&["--json", &merged, "--merge", &shards[0], &shards[1]]);
    let wrote = std::path::Path::new(&merged).exists();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(!out.status.success(), "shards at 2 and 3 ms merged");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("'sim_ms_per_scenario'"), "{stderr}");
    assert!(!wrote, "a failed merge wrote its output");
}

/// The serial ≡ parallel oracle over all five bench matrices: one worker
/// and three write the same bytes, every section present and none of them
/// carrying a pass verdict.
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
        8,
        "bench, ops_per_scenario, sim_ms_per_scenario and five sections"
    );
    for (key, section) in &members[3..] {
        assert!(
            section.get("parallel_identical_to_serial").is_none(),
            "{key} carries a pass verdict"
        );
    }
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

fn repro(args: &[&str], out_dir: &std::path::Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .env("REPRO_OUT_DIR", out_dir)
        .output()
        .expect("spawn repro")
}

#[test]
fn repro_rejects_an_unknown_id_before_running_any() {
    let dir = std::env::temp_dir().join(format!("repro_cli_{}", std::process::id()));
    let out = repro(&["fig3a", "bogus"], &dir);
    let created = dir.exists();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(!out.status.success(), "an unknown id was accepted");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("'bogus'"), "{stderr}");
    assert!(stderr.contains("usage: repro"), "{stderr}");
    assert!(!created, "fig3a ran before the unknown id was rejected");
}

#[test]
fn repro_list_names_every_experiment_once() {
    let dir = std::env::temp_dir().join(format!("repro_list_{}", std::process::id()));
    let out = repro(&["list"], &dir);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf-8 list");
    let ids: Vec<&str> = stdout
        .lines()
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    let all: Vec<&str> = experiments::ALL.iter().map(|e| e.id).collect();
    assert_eq!(ids, all);
    assert_eq!(stdout.lines().count(), experiments::ALL.len());
    assert!(!dir.exists(), "list wrote into {}", dir.display());
}
