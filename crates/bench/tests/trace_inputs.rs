//! `record_trace_inputs` publishes each trace by rename, so a reader of the
//! final paths never meets a half-written file — the race that used to
//! break concurrent `bench` processes (shards on one host, parallel
//! tests) recording at different `--ops` into one directory.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

use hybridtier_bench::record_trace_inputs;
use tiering_trace::TraceReader;

#[test]
fn concurrent_recorders_never_expose_a_partial_trace() {
    const OPS: [u64; 2] = [300, 500];
    const ROUNDS: usize = 8;

    let dir = std::env::temp_dir().join(format!("ht-trace-inputs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // The final paths exist before the race starts, so the reader always
    // has something to open.
    let paths = record_trace_inputs(OPS[0], &dir).expect("first recording");

    let start = Barrier::new(OPS.len() + 1);
    let writers_done = AtomicBool::new(false);
    let verified = std::thread::scope(|scope| {
        let writers: Vec<_> = OPS
            .iter()
            .map(|&ops| {
                let (dir, start) = (&dir, &start);
                scope.spawn(move || {
                    start.wait();
                    for _ in 0..ROUNDS {
                        record_trace_inputs(ops, dir).expect("re-recording");
                    }
                })
            })
            .collect();
        let reader = scope.spawn(|| {
            start.wait();
            let mut verified = 0u32;
            // At least one full pass after the writers finish, so the final
            // state is checked even if the reader was never scheduled
            // during the race.
            loop {
                let last_pass = writers_done.load(Ordering::SeqCst);
                for path in &paths {
                    let summary = TraceReader::verify_file(path)
                        .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
                    assert!(
                        OPS.contains(&summary.ops),
                        "{}: {} ops is neither recorder's trace",
                        path.display(),
                        summary.ops
                    );
                    verified += 1;
                }
                if last_pass {
                    return verified;
                }
            }
        });
        for w in writers {
            w.join().expect("recorder panicked");
        }
        writers_done.store(true, Ordering::SeqCst);
        reader.join().expect("reader panicked")
    });
    assert!(verified >= paths.len() as u32);

    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .expect("scratch dir")
        .map(|e| e.expect("dir entry").file_name())
        .filter(|name| !name.to_string_lossy().ends_with(".trace"))
        .collect();
    assert!(leftovers.is_empty(), "temporary files left: {leftovers:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
