//! The replay-equivalence contract, in the style of `batch_equivalence` /
//! `chunk_equivalence`: recording a synthetic workload to an on-disk trace
//! and replaying the file yields **bit-identical** `SimReport` fingerprints
//! to running the generator directly — across every policy in
//! `PolicyKind::COMPARED`, across engine batch sizes, and across recorder
//! chunk sizes (chunked ≡ whole). Plus the two guarantees that make replay
//! safe at scale: memory stays O(chunk) (measured, not assumed), and
//! damaged files fail typed at open, never mid-simulation — which the
//! scenario layer hands on as `ScenarioError::Trace`, never as a panic in
//! a sweep worker.

use std::path::{Path, PathBuf};

use tiering_mem::TierRatio;
use tiering_policies::PolicyKind;
use tiering_runner::{
    FleetSpec, PolicySpec, Scenario, ScenarioError, SweepRunner, TenantSpec, TierSpec, WorkloadSpec,
};
use tiering_sim::SimConfig;
use tiering_trace::{AccessBatch, TraceError, TraceReader, Workload};
use tiering_workloads::{build_workload, record_workload, TraceReplayWorkload, WorkloadId};

const SEED: u64 = 0xA5F0_5EED;
const OPS: u64 = 6_000;

/// A scratch trace path of this process's own (two suites may run in one
/// checkout), removed on drop.
struct TempTrace(PathBuf);

impl std::ops::Deref for TempTrace {
    type Target = PathBuf;
    fn deref(&self) -> &PathBuf {
        &self.0
    }
}

impl AsRef<Path> for TempTrace {
    fn as_ref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempTrace {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn tmp(tag: &str) -> TempTrace {
    TempTrace(
        PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("replay-eq-{}-{tag}.trace", std::process::id())),
    )
}

/// Records `id` (built with the scenario seed, as a direct run would build
/// it) to a fresh trace file.
fn record(id: WorkloadId, chunk_ops: usize, tag: &str) -> TempTrace {
    let path = tmp(tag);
    let mut w = build_workload(id, SEED);
    record_workload(w.as_mut(), OPS, &path, chunk_ops).expect("record");
    path
}

fn config(batch_ops: usize) -> SimConfig {
    SimConfig::default()
        .with_max_ops(OPS)
        .with_batch_ops(batch_ops)
}

fn direct_run(id: WorkloadId, kind: PolicyKind, batch_ops: usize) -> u64 {
    Scenario::suite(id, kind, TierRatio::OneTo8, &config(batch_ops), SEED)
        .run()
        .report
        .fingerprint()
}

fn replay_scenario(path: &Path, kind: PolicyKind, batch_ops: usize) -> Scenario {
    Scenario::new(
        format!("replay/{}", kind.label()),
        WorkloadSpec::Trace(path.to_path_buf()),
        PolicySpec::Kind(kind),
        TierSpec::Ratio(TierRatio::OneTo8),
        &config(batch_ops),
        SEED,
    )
}

fn replay_run(path: &Path, kind: PolicyKind, batch_ops: usize) -> u64 {
    replay_scenario(path, kind, batch_ops)
        .run()
        .report
        .fingerprint()
}

/// The headline guarantee: record→replay is bit-identical to the direct
/// generator run for every compared policy.
#[test]
fn replay_matches_direct_run_for_every_compared_policy() {
    let path = record(WorkloadId::CdnCacheLib, 1024, "policies");
    for kind in PolicyKind::COMPARED {
        assert_eq!(
            direct_run(WorkloadId::CdnCacheLib, kind, 64),
            replay_run(&path, kind, 64),
            "replay diverged from direct run under {}",
            kind.label()
        );
    }
}

/// Equivalence holds at every engine batch size (including degenerate
/// one-op batches and batches larger than a reader chunk).
#[test]
fn replay_matches_direct_run_across_batch_sizes() {
    let path = record(WorkloadId::CdnCacheLib, 256, "batch-sizes");
    for batch_ops in [1, 7, 64, 512] {
        assert_eq!(
            direct_run(WorkloadId::CdnCacheLib, PolicyKind::HybridTier, batch_ops),
            replay_run(&path, PolicyKind::HybridTier, batch_ops),
            "replay diverged at batch_ops={batch_ops}"
        );
    }
}

/// Chunked ≡ whole: the recorder's chunk size is invisible to the outcome.
/// Every chunking replays to the same fingerprint, which also equals the
/// direct run.
#[test]
fn reader_chunk_size_is_invisible() {
    let direct = direct_run(WorkloadId::SocialCacheLib, PolicyKind::Memtis, 64);
    for chunk_ops in [16, 64, 1024, OPS as usize] {
        let path = record(
            WorkloadId::SocialCacheLib,
            chunk_ops,
            &format!("chunk-{chunk_ops}"),
        );
        assert_eq!(
            direct,
            replay_run(&path, PolicyKind::Memtis, 64),
            "replay diverged at chunk_ops={chunk_ops}"
        );
    }
}

/// Replay memory is O(chunk), not O(trace): stream the whole file in
/// engine-sized batches and check the reader's resident high-water mark
/// against the file size.
#[test]
fn replay_memory_stays_per_chunk() {
    let path = record(WorkloadId::CdnCacheLib, 128, "resident");
    let file_len = std::fs::metadata(&path).expect("metadata").len() as usize;

    let mut replay = TraceReplayWorkload::open(&path).expect("open");
    let mut batch = AccessBatch::with_capacity(64, 256);
    let mut ops = 0u64;
    loop {
        batch.clear();
        let n = replay.fill_batch(0, 64, &mut batch);
        if n == 0 {
            break;
        }
        ops += n as u64;
    }
    assert_eq!(ops, OPS, "full trace replayed");
    let resident = replay.max_resident_bytes();
    assert!(resident > 0);
    assert!(
        resident < file_len / 8,
        "resident {resident} B vs file {file_len} B — replay is not O(chunk)"
    );
}

/// The two ways a trace file gets damaged in transit.
enum Damage {
    /// A byte flipped mid-file.
    Corrupt,
    /// The tail cut off (an interrupted copy).
    Truncate,
}

/// Applies `kind` to a trace file. (The byte-exact corruption matrix
/// lives in `tiering_trace`'s own suite; this level checks the same damage
/// through the replay entry point.)
fn damage(path: &PathBuf, kind: Damage) {
    let mut bytes = std::fs::read(path).expect("read trace");
    match kind {
        Damage::Corrupt => {
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x40;
        }
        Damage::Truncate => bytes.truncate(bytes.len() * 2 / 3),
    }
    std::fs::write(path, bytes).expect("rewrite trace");
}

/// Damaged traces fail **typed at open** — replay never starts, nothing
/// panics, and no short stream is silently accepted.
#[test]
fn damaged_traces_fail_typed_at_open() {
    for (kind, tag) in [(Damage::Corrupt, "corrupt"), (Damage::Truncate, "truncate")] {
        let path = record(WorkloadId::CdnCacheLib, 64, &format!("fault-{tag}"));
        damage(&path, kind);
        match TraceReplayWorkload::open(&path) {
            Err(
                TraceError::ChecksumMismatch { .. }
                | TraceError::Truncated { .. }
                | TraceError::CountMismatch { .. },
            ) => {}
            Ok(_) => panic!("{tag}: damaged trace was accepted"),
            Err(other) => panic!("{tag}: unexpected error {other:?}"),
        }
    }
}

/// The three ways a user-supplied trace is unreadable before its first
/// chunk: no such file, a zero-length file, and a file cut right after an
/// intact header. Returns `(tag, path)` per case, in that order.
fn unreadable_traces(tag: &str) -> [(&'static str, TempTrace); 3] {
    let missing = tmp(&format!("{tag}-missing"));

    let empty = tmp(&format!("{tag}-empty"));
    std::fs::write(&empty, b"").expect("write empty trace");

    let headed = record(WorkloadId::CdnCacheLib, 64, &format!("{tag}-header-only"));
    let name_len = TraceReader::open(&headed)
        .expect("open recorded trace")
        .header()
        .name
        .len();
    let mut bytes = std::fs::read(&headed).expect("read trace");
    bytes.truncate(48 + name_len);
    std::fs::write(&headed, bytes).expect("rewrite trace");

    [
        ("missing", missing),
        ("empty", empty),
        ("header-only", headed),
    ]
}

/// `try_run` turns each of them into `ScenarioError::Trace` naming the
/// file — for a single scenario, a sweep of it, and a co-located tenant.
#[test]
fn unreadable_traces_are_typed_scenario_errors() {
    for (tag, path) in unreadable_traces("typed") {
        let single = replay_scenario(&path, PolicyKind::HybridTier, 64);
        let tenant = |name: &str, workload| {
            TenantSpec::new(name, workload, PolicySpec::Kind(PolicyKind::HybridTier))
        };
        let colo = Scenario::fleet(
            "colo",
            FleetSpec::new(vec![
                tenant("live", WorkloadSpec::Suite(WorkloadId::CdnCacheLib)),
                tenant("replayed", WorkloadSpec::Trace(path.clone())),
            ]),
            &config(64),
            SEED,
        );
        let outcomes = [
            single.try_run().map(drop),
            SweepRunner::serial().try_run(vec![single]).map(drop),
            colo.try_run().map(drop),
        ];
        for outcome in outcomes {
            let err = outcome.expect_err(tag);
            let ScenarioError::Trace {
                path: named,
                source,
            } = &err
            else {
                panic!("{tag}: {err}")
            };
            assert_eq!(named, &*path, "{tag}");
            match (tag, source) {
                ("missing", TraceError::Io(e)) => {
                    assert_eq!(e.kind(), std::io::ErrorKind::NotFound)
                }
                ("empty" | "header-only", TraceError::Truncated { .. }) => {}
                other => panic!("unexpected error {other:?}"),
            }
            let shown = err.to_string();
            assert!(
                shown.starts_with("cannot open trace ") && shown.contains(&source.to_string()),
                "{tag}: {shown}"
            );
        }
    }
}

/// One bad trace among good scenarios fails the sweep with that trace's
/// error — at any thread count, with no worker panic — and the runner is
/// as good as new for the remaining scenarios.
#[test]
fn sweep_reports_a_bad_trace_without_poisoning_a_worker() {
    let good = record(WorkloadId::CdnCacheLib, 256, "sweep-good");
    let [_, _, (_, bad)] = unreadable_traces("sweep");
    let scenarios = |with_bad: bool| -> Vec<Scenario> {
        PolicyKind::COMPARED
            .into_iter()
            .enumerate()
            .map(|(i, kind)| {
                let path = if with_bad && i == 2 { &bad } else { &good };
                replay_scenario(path, kind, 64)
            })
            .collect()
    };
    for runner in [SweepRunner::serial(), SweepRunner::new(3)] {
        match runner.try_run(scenarios(true)) {
            Err(ScenarioError::Trace { path, .. }) => assert_eq!(path, *bad),
            Err(other) => panic!("unexpected error {other}"),
            Ok(_) => panic!("sweep accepted an unreadable trace"),
        }
        let sweep = runner.try_run(scenarios(false)).expect("good sweep");
        assert_eq!(sweep.results.len(), PolicyKind::COMPARED.len());
        for (result, kind) in sweep.results.iter().zip(PolicyKind::COMPARED) {
            assert_eq!(result.report.fingerprint(), replay_run(&good, kind, 64));
        }
    }
}

/// `run` is the panicking wrapper: same message, as a panic.
#[test]
#[should_panic(expected = "cannot open trace")]
fn run_panics_with_the_scenario_error_message() {
    let [(_, missing), _, _] = unreadable_traces("wrapper");
    replay_scenario(&missing, PolicyKind::HybridTier, 64).run();
}
