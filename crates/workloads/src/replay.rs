//! Trace replay: on-disk access traces as ordinary [`Workload`]s, plus the
//! recording adapter that captures any generator to a trace file.
//!
//! [`TraceReplayWorkload`] streams a file written by
//! [`TraceWriter`](tiering_trace::TraceWriter) (format:
//! `docs/TRACE_FORMAT.md`) back into the engine. A decoded chunk is an
//! [`AccessBatch`], so [`fill_batch`](Workload::fill_batch) reads the ops
//! it serves with [`op_bounds`](AccessBatch::op_bounds) and copies their
//! `addrs`/`writes` range into the engine's batch with one slice copy per
//! column ([`AccessBatch::append_ops`]) — one chunk resident at a time, so
//! traces bigger than RAM replay in O(chunk) memory
//! ([`max_resident_bytes`](TraceReplayWorkload::max_resident_bytes) meters
//! it). [`open`](TraceReplayWorkload::open) first verifies the whole file,
//! which checks every frame without converting it.
//!
//! Replay reports the *recorded* workload's name (stored in the trace
//! header) and footprint, so a replayed scenario resolves the same tier
//! sizing and produces the same `SimReport` fingerprint as running the
//! generator directly — the replay-equivalence suite locks this.

use std::fs::File;
use std::io::BufReader;
use std::path::Path;

use tiering_trace::{AccessBatch, TraceError, TraceReader, TraceSummary, TraceWriter, Workload};

/// Records up to `max_ops` operations of `workload` into a trace file at
/// `path`, chunked every `chunk_ops` operations.
///
/// Operations are pulled through [`Workload::fill_batch`] at simulated time
/// zero, so clock-driven behaviour (e.g. a scheduled hot-set shift) is
/// captured as of t=0. For op-counter-driven workloads — every suite
/// workload in its default configuration — the recorded stream is exactly
/// the stream an engine run would pull, which is what makes record→replay
/// bit-identical.
///
/// Returns the totals actually written (fewer ops than `max_ops` if the
/// workload ran out first).
pub fn record_workload<W: Workload + ?Sized>(
    workload: &mut W,
    max_ops: u64,
    path: impl AsRef<Path>,
    chunk_ops: usize,
) -> Result<TraceSummary, TraceError> {
    let mut writer = TraceWriter::create(path, workload.name(), workload.footprint_bytes())?
        .with_chunk_ops(chunk_ops);
    let mut batch = AccessBatch::new();
    let mut left = max_ops;
    while left > 0 {
        batch.clear();
        // Every call size pulls the same stream; 64 is the engine's default.
        let n = workload.fill_batch(0, left.min(64) as usize, &mut batch);
        if n == 0 {
            break;
        }
        for i in 0..n {
            writer.push_batch_op(&batch, i)?;
        }
        left -= n as u64;
    }
    let (summary, _) = writer.finish()?;
    Ok(summary)
}

/// A [`Workload`] that replays a recorded trace file chunk by chunk.
///
/// Construction ([`open`](Self::open)) verifies the whole file first —
/// checksums, counts, layout, vocabularies — so corruption surfaces as a typed
/// [`TraceError`] up front rather than mid-simulation, then reopens the
/// file for streaming. Replay itself holds one decoded chunk at a time.
#[derive(Debug)]
pub struct TraceReplayWorkload {
    reader: TraceReader<BufReader<File>>,
    /// Index of the next unserved op within the current chunk.
    cursor: usize,
    /// Set once the final chunk has been fully served.
    exhausted: bool,
}

impl TraceReplayWorkload {
    /// Opens and fully verifies the trace at `path`, then positions a
    /// streaming reader at its first chunk.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, TraceError> {
        let path = path.as_ref();
        TraceReader::verify_file(path)?;
        let reader = TraceReader::open(path)?;
        let mut w = Self {
            reader,
            cursor: 0,
            exhausted: false,
        };
        w.exhausted = !w.advance_chunk();
        Ok(w)
    }

    /// Total operations the trace holds.
    pub fn total_ops(&self) -> u64 {
        self.reader.header().total_ops
    }

    /// High-water mark of resident chunk bytes in the underlying reader:
    /// the measured O(chunk)-not-O(trace) replay-memory guarantee.
    pub fn max_resident_bytes(&self) -> usize {
        self.reader.max_resident_bytes()
    }

    /// Loads the next non-empty chunk; `false` at end of trace. The file
    /// was verified at open, so a failure here means it changed or the
    /// device failed underneath us — conditions with no recovery path
    /// mid-simulation.
    fn advance_chunk(&mut self) -> bool {
        self.cursor = 0;
        loop {
            let more = self
                .reader
                .advance()
                .expect("verified trace became unreadable during replay");
            if !more {
                return false;
            }
            if !self.reader.chunk().is_empty() {
                return true;
            }
        }
    }

    /// Ensures the cursor points at an unserved op; `false` once the trace
    /// is exhausted.
    fn ensure_op(&mut self) -> bool {
        if self.exhausted {
            return false;
        }
        if self.cursor >= self.reader.chunk().len() && !self.advance_chunk() {
            self.exhausted = true;
            return false;
        }
        true
    }
}

impl Workload for TraceReplayWorkload {
    fn footprint_bytes(&self) -> u64 {
        self.reader.header().footprint_bytes
    }

    /// The *recorded* workload's name: replay must report under the same
    /// identity for its `SimReport` fingerprint to match the direct run.
    fn name(&self) -> &str {
        &self.reader.header().name
    }

    /// A trace is a fixed stream — nothing is clock-driven, so replay is
    /// always safe to batch.
    fn batchable_now(&self) -> bool {
        true
    }

    fn fill_batch(&mut self, _now_ns: u64, max_ops: usize, batch: &mut AccessBatch) -> usize {
        // SoA fill: the ops served from one chunk are one contiguous range
        // of its columns, copied whole — no per-access work.
        let mut filled = 0;
        while filled < max_ops {
            if !self.ensure_op() {
                break;
            }
            let chunk = self.reader.chunk();
            // `ensure_op` left the cursor on an unserved op, so `n ≥ 1`.
            let first = self.cursor;
            let n = (max_ops - filled).min(chunk.len() - first);
            let (_, start, _) = chunk.op_bounds(first);
            let (_, _, end) = chunk.op_bounds(first + n - 1);
            batch.append_ops(
                &chunk.addrs()[start..end],
                &chunk.writes()[start..end],
                (first..first + n).map(|idx| {
                    let (op, s, e) = chunk.op_bounds(idx);
                    (op, e - s)
                }),
            );
            self.cursor += n;
            filled += n;
        }
        filled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ZipfPageWorkload;
    use tiering_trace::{Access, Op};

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "hybridtier-replay-test-{}-{tag}.trace",
            std::process::id()
        ))
    }

    fn zipf() -> ZipfPageWorkload {
        ZipfPageWorkload::new(512, 0.99, 400, 42)
    }

    #[test]
    fn replay_reproduces_the_recorded_stream() {
        let path = temp_path("stream");
        let summary = record_workload(&mut zipf(), 1_000, &path, 64).expect("record");
        assert_eq!(summary.ops, 400, "zipf generator ends at its op budget");

        let mut replay = TraceReplayWorkload::open(&path).expect("open");
        assert_eq!(replay.name(), zipf().name());
        assert_eq!(replay.footprint_bytes(), zipf().footprint_bytes());

        let mut original = zipf();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        loop {
            a.clear();
            b.clear();
            let op_a = original.next_op(0, &mut a);
            let op_b = replay.next_op(0, &mut b);
            assert_eq!(op_a, op_b);
            assert_eq!(a, b);
            if op_a.is_none() {
                break;
            }
        }
        std::fs::remove_file(&path).ok();
    }

    impl TraceReplayWorkload {
        /// `fill_batch` as it stood before the whole-column copy, verbatim
        /// (one `push_access(chunk.access(i))` per access): the oracle the
        /// bulk fill is compared against.
        fn fill_batch_per_access(&mut self, max_ops: usize, batch: &mut AccessBatch) -> usize {
            let mut filled = 0;
            while filled < max_ops {
                if !self.ensure_op() {
                    break;
                }
                let chunk = self.reader.chunk();
                let n = (max_ops - filled).min(chunk.len() - self.cursor);
                for idx in self.cursor..self.cursor + n {
                    let start = batch.open_op();
                    let (op, s, e) = chunk.op_bounds(idx);
                    for i in s..e {
                        batch.push_access(chunk.access(i));
                    }
                    batch.commit_open_op(op, start);
                }
                self.cursor += n;
                filled += n;
            }
            filled
        }
    }

    /// Ops of 0–7 accesses (bare ops included, so they land on both sides
    /// of chunk boundaries), all three kinds, loads and stores.
    struct BurstyWorkload {
        state: u64,
        left: u64,
    }

    impl BurstyWorkload {
        fn rand(&mut self, below: u64) -> u64 {
            self.state = self
                .state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (self.state >> 33) % below
        }
    }

    impl Workload for BurstyWorkload {
        fn fill_batch(&mut self, _now_ns: u64, max_ops: usize, batch: &mut AccessBatch) -> usize {
            batch.fill_ops(max_ops, |batch| {
                self.left = self.left.checked_sub(1)?;
                for _ in 0..self.rand(8) {
                    let access = Access {
                        addr: self.rand(1 << 30) * 8,
                        is_write: self.rand(3) == 0,
                    };
                    batch.push_access(access);
                }
                let cpu_ns = self.rand(500);
                Some([Op::read, Op::write, Op::compute][self.rand(3) as usize](
                    cpu_ns,
                ))
            })
        }

        fn footprint_bytes(&self) -> u64 {
            1 << 33
        }

        fn name(&self) -> &str {
            "bursty"
        }
    }

    /// Bulk fill ≡ the per-access fill it replaced, batch by batch:
    /// single-access Zipf ops and multi-access bursts, batches of 1, 13
    /// (straddles every 16-op chunk boundary at a different offset), 64
    /// (four whole chunks per batch) and 100 (more than the last chunks
    /// hold), on traces whose final chunk is partial, until both replays
    /// run dry in the same round.
    #[test]
    fn bulk_fill_equals_per_access_fill() {
        let path = temp_path("batch");
        let mut sources: [(&str, Box<dyn Workload>, u64); 2] = [
            ("zipf", Box::new(zipf()), 395),
            (
                "bursty",
                Box::new(BurstyWorkload {
                    state: 0xB0B5,
                    left: 1_000,
                }),
                1_000,
            ),
        ];
        for (name, source, total_ops) in &mut sources {
            let summary = record_workload(source.as_mut(), *total_ops, &path, 16).expect("record");
            assert_eq!(summary.ops, *total_ops);
            assert_ne!(summary.ops % 16, 0, "the last chunk is partial");
            for batch_ops in [1, 13, 64, 100] {
                let mut via_loop = TraceReplayWorkload::open(&path).expect("open A");
                let mut via_fill = TraceReplayWorkload::open(&path).expect("open B");
                let mut served = 0;
                for round in 0.. {
                    let at = format!("{name}, batches of {batch_ops}, round {round}");
                    let mut b = AccessBatch::new();
                    let mut c = AccessBatch::new();
                    let nb = via_loop.fill_batch_per_access(batch_ops, &mut b);
                    let nc = via_fill.fill_batch(0, batch_ops, &mut c);
                    assert_eq!(nb, nc, "{at}");
                    assert_eq!((b.len(), c.len()), (nc, nc), "{at}");
                    for i in 0..nc {
                        assert_eq!(b.op_bounds(i), c.op_bounds(i), "{at} op {i}");
                    }
                    assert_eq!(b.addrs(), c.addrs(), "{at}");
                    assert_eq!(b.writes(), c.writes(), "{at}");
                    served += nc as u64;
                    if nc < batch_ops {
                        break;
                    }
                }
                assert_eq!(served, *total_ops, "{name}, batches of {batch_ops}");
                assert_eq!(
                    via_fill.fill_batch(0, batch_ops, &mut AccessBatch::new()),
                    0
                );
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn replay_memory_is_per_chunk() {
        let path = temp_path("resident");
        record_workload(
            &mut ZipfPageWorkload::new(2048, 0.8, 8_000, 7),
            8_000,
            &path,
            128,
        )
        .expect("record");
        let file_len = std::fs::metadata(&path).expect("metadata").len() as usize;

        let mut replay = TraceReplayWorkload::open(&path).expect("open");
        let mut sink = Vec::new();
        while replay.next_op(0, &mut sink).is_some() {
            sink.clear();
        }
        let resident = replay.max_resident_bytes();
        assert!(resident > 0);
        assert!(
            resident < file_len / 8,
            "resident {resident} B vs file {file_len} B — replay is not O(chunk)"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn recording_stops_at_max_ops() {
        let path = temp_path("cap");
        let summary = record_workload(&mut zipf(), 100, &path, 32).expect("record");
        assert_eq!(summary.ops, 100);
        let replay = TraceReplayWorkload::open(&path).expect("open");
        assert_eq!(replay.total_ops(), 100);
        std::fs::remove_file(&path).ok();
    }
}
