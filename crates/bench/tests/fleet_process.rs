//! End-to-end multi-process sweep: `ProcessWorker`s spawn the real `bench`
//! binary (`--shard i/N --json …`), the coordinator fans shards out with a
//! fault injected, and the collected shard texts reassemble through
//! [`merge_texts`] into a document byte-identical to an unsharded `bench`
//! run — the full distributed pipeline, subprocesses included.

use std::path::{Path, PathBuf};
use std::process::Command;

use fleet_exec::{FaultKind, FaultPlan, FleetConfig, FleetCoordinator, ProcessWorker};
use hybridtier_bench::json::{parse, Json};
use hybridtier_bench::merge::{merge_texts, validate_shard_text};

const OPS: &str = "1500";

/// A scratch directory unique to this test run.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fleet_process_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir scratch");
    dir
}

fn bench_worker(dir: &Path) -> ProcessWorker {
    ProcessWorker::new(env!("CARGO_BIN_EXE_bench"))
        .args([
            "--shard",
            "{index}/{total}",
            "--ops",
            OPS,
            "--serial-only",
            "--no-colocation",
            "--no-fleet",
            "--json",
            "{out}",
        ])
        .out_dir(dir)
}

/// The file one unsharded `bench` run with the same protocol flags writes.
fn unsharded_text(dir: &Path) -> String {
    let out = dir.join("unsharded.json");
    let status = Command::new(env!("CARGO_BIN_EXE_bench"))
        .args([
            "--ops",
            OPS,
            "--serial-only",
            "--no-colocation",
            "--no-fleet",
        ])
        .arg("--json")
        .arg(&out)
        .stdout(std::process::Stdio::null())
        .status()
        .expect("spawn unsharded bench");
    assert!(status.success(), "unsharded bench run failed");
    std::fs::read_to_string(&out).expect("read unsharded json")
}

#[test]
fn subprocess_shards_with_a_fault_merge_equal_to_unsharded() {
    let dir = scratch("merge");
    // Three subprocess workers, three shards; worker 1's first shard
    // output is truncated mid-file, so the text validator must reject it
    // and the retry (on any worker) must recover.
    let run = FleetCoordinator::<String>::new(FleetConfig::default())
        .with_worker("proc0", bench_worker(&dir))
        .with_worker("proc1", bench_worker(&dir))
        .with_worker("proc2", bench_worker(&dir))
        .with_faults(FaultPlan::new(vec![FaultKind::Truncate.on(1)]))
        .with_validator(|spec, text: &String| validate_shard_text(spec, text))
        .run(3)
        .expect("truncation is recoverable");
    assert!(run.exec.rejected >= 1, "the truncated shard was rejected");
    assert!(run.exec.retries >= 1, "and retried");
    assert_eq!(run.artifacts.len(), 3);

    let merged = merge_texts(&run.artifacts).expect("shard texts merge");
    assert_eq!(
        format!("{}\n", merged.render()),
        unsharded_text(&dir),
        "merged subprocess shards != unsharded run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn exec_workers_flag_writes_a_fleet_exec_section() {
    let dir = scratch("flag");
    let out = dir.join("exec.json");
    let status = Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(["--ops", "1000", "--sim-ms", "2", "--exec-workers", "2"])
        .arg("--json")
        .arg(&out)
        .stdout(std::process::Stdio::null())
        .status()
        .expect("spawn bench --exec-workers");
    assert!(status.success(), "bench --exec-workers failed");
    let doc = parse(&std::fs::read_to_string(&out).expect("read json")).expect("json parses");

    let exec = doc.get("fleet_exec").expect("fleet_exec section");
    assert_eq!(exec.get("workers").and_then(Json::as_i128), Some(2));
    for section in ["single", "colocation", "fleet"] {
        let sweep_exec = exec
            .get(section)
            .unwrap_or_else(|| panic!("fleet_exec.{section} present"));
        assert_eq!(
            sweep_exec
                .get("workers")
                .and_then(Json::as_array)
                .map(<[Json]>::len),
            Some(2)
        );
        assert!(
            sweep_exec
                .get("events")
                .and_then(Json::as_array)
                .is_some_and(|e| !e.is_empty()),
            "event log sealed into the document"
        );
        // The executor drove the parallel pass, and it agreed with serial.
        assert_eq!(
            doc.get(section)
                .and_then(|s| s.get("parallel_identical_to_serial")),
            Some(&Json::Bool(true))
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn exec_workers_flag_conflicts_are_rejected() {
    for conflict in [
        vec!["--exec-workers", "2", "--shard", "0/2"],
        vec!["--exec-workers", "2", "--serial-only"],
        vec!["--exec-workers", "0"],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_bench"))
            .args(&conflict)
            .output()
            .expect("spawn bench");
        assert!(
            !output.status.success(),
            "bench {conflict:?} must be rejected"
        );
    }
}
