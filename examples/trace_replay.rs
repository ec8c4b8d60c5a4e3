//! Record a workload to an on-disk trace, then replay it — bit-identically.
//!
//! Demonstrates the streaming trace pipeline end to end: the CacheLib CDN
//! generator is captured to a chunked, checksummed trace file
//! (format: `docs/TRACE_FORMAT.md`), the file is replayed through
//! `WorkloadSpec::Trace` under every compared policy, and each replayed
//! `SimReport` fingerprint is checked against the direct generator run.
//! Replay streams one chunk at a time, so the peak resident trace memory
//! (printed below) stays a small fraction of the file size no matter how
//! long the trace is.
//!
//! Usage: `cargo run --release --example trace_replay [ops]`

use std::process::ExitCode;

use hybridtier::prelude::*;

fn main() -> ExitCode {
    let ops: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(100_000);
    let seed = 0xA5F0_5EED;
    let path = std::env::temp_dir().join("hybridtier-trace-replay-example.trace");

    // Record: capture the generator's exact op stream to disk.
    let mut source = build_workload(WorkloadId::CdnCacheLib, seed);
    let summary = record_workload(source.as_mut(), ops, &path, 4096).expect("record trace");
    let file_len = std::fs::metadata(&path).expect("trace metadata").len();
    println!(
        "recorded {} ops / {} accesses into {} chunks ({} KiB at {})",
        summary.ops,
        summary.accesses,
        summary.chunks,
        file_len / 1024,
        path.display()
    );

    // Replay the file and the generator side by side under each policy.
    let config = SimConfig::default().with_max_ops(ops);
    println!(
        "\n{:<12} {:>10} {:>9} {:>14} {:>12}",
        "policy", "p50 (ns)", "fast-hit", "fingerprint", "replay==live"
    );
    for kind in PolicyKind::COMPARED {
        let live = Scenario::suite(
            WorkloadId::CdnCacheLib,
            kind,
            TierRatio::OneTo8,
            &config,
            seed,
        )
        .run();
        // A trace is outside input: `try_run` reports a missing or corrupt
        // file as a typed error instead of panicking.
        let replayed = match Scenario::new(
            format!("replay/{}", kind.label()),
            WorkloadSpec::Trace(path.clone()),
            PolicySpec::Kind(kind),
            TierSpec::Ratio(TierRatio::OneTo8),
            &config,
            seed,
        )
        .try_run()
        {
            Ok(result) => result,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        };
        let identical = live.report.fingerprint() == replayed.report.fingerprint();
        println!(
            "{:<12} {:>10} {:>8.1}% {:>14x} {:>12}",
            kind.label(),
            replayed.report.latency.p50_ns,
            replayed.report.fast_hit_frac * 100.0,
            replayed.report.fingerprint(),
            if identical { "yes" } else { "NO" }
        );
        assert!(identical, "replay must be bit-identical to the live run");
    }

    // The O(chunk) guarantee, measured on this very file.
    let mut replay = TraceReplayWorkload::open(&path).expect("open trace");
    let mut batch = AccessBatch::with_capacity(64, 256);
    while replay.fill_batch(0, 64, &mut batch) > 0 {
        batch.clear();
    }
    println!(
        "\npeak resident trace memory: {} KiB of a {} KiB file ({:.1}%)",
        replay.max_resident_bytes() / 1024,
        file_len / 1024,
        replay.max_resident_bytes() as f64 * 100.0 / file_len as f64
    );

    std::fs::remove_file(&path).ok();
    ExitCode::SUCCESS
}
