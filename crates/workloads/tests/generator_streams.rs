//! The generator contract, checked on every workload the tree ships.
//!
//! * **Pinned streams.** Each generator's first ops, pulled the way the
//!   engine pulls them (one op per call while `batchable_now()` is false,
//!   up to the batch size otherwise, every op of a call at the clock of the
//!   call), hash to a pinned FNV-1a digest over `(kind, cpu_ns, accesses,
//!   then each addr and is_write)` — at one op per call and at 61. Any
//!   change to what a generator emits, or in what order, fails here.
//! * **Batch-size invariance.** The same streams, plus a phased workload
//!   whose second phase waits on the clock, are identical at 1, 13, 61 and
//!   64 ops per call.
//! * **Short fills.** A call returns fewer ops than asked only when the
//!   next call returns 0 — or, for a phased workload stopping before a
//!   clock-dependent phase, when `batchable_now()` has turned false.

use tiering_trace::{AccessBatch, OpKind, Workload};
use tiering_workloads::{
    build_workload, record_workload, BfsWorkload, CacheLibConfig, CacheLibWorkload, CcWorkload,
    Graph, PhasedWorkload, PrWorkload, SequentialScanWorkload, TraceReplayWorkload, WorkloadId,
    ZipfPageWorkload,
};

/// Simulated time the harness clock advances per op.
const NS_PER_OP: u64 = 100;

/// Ops pulled per stream.
const OPS: u64 = 20_000;

/// CacheLib streams run past op 50 000, where the shipped configs churn
/// for the first time (61 does not divide 50 000, so it lands mid-call).
const CACHELIB_OPS: u64 = 52_000;

struct Input {
    label: String,
    ops: u64,
    build: Box<dyn Fn() -> Box<dyn Workload>>,
}

impl Input {
    fn new(label: &str, ops: u64, build: impl Fn() -> Box<dyn Workload> + 'static) -> Self {
        Self {
            label: label.to_string(),
            ops,
            build: Box::new(build),
        }
    }
}

/// A trace file under the temp directory, named per process and per test
/// so concurrent suites never share it; removed on drop.
struct TraceFile(std::path::PathBuf);

impl TraceFile {
    /// Records 20 000 ops of the CDN generator (seed 5) in 1 000-op chunks,
    /// so every batch size straddles chunk boundaries.
    fn record(tag: &str) -> Self {
        let path = std::env::temp_dir().join(format!(
            "hybridtier-generator-streams-{}-{tag}.trace",
            std::process::id()
        ));
        let mut source = build_workload(WorkloadId::CdnCacheLib, 5);
        let summary = record_workload(source.as_mut(), OPS, &path, 1_000).expect("record");
        assert_eq!(summary.ops, OPS);
        Self(path)
    }
}

impl Drop for TraceFile {
    fn drop(&mut self) {
        std::fs::remove_file(&self.0).ok();
    }
}

/// The pinned set: all twelve suite workloads, the GAP kernels run to
/// completion on a small graph (BFS trial resets, PageRank's normalize
/// scan, CC's convergence), Zipf with a time shift and with a wake-up, a
/// scan, the phased diurnal mix (one phase ends before its budget),
/// CacheLib churning inside the call, and one replayed trace.
fn pinned_inputs(trace: &TraceFile) -> Vec<Input> {
    let mut inputs: Vec<Input> = WorkloadId::ALL
        .into_iter()
        .map(|id| {
            let ops = if matches!(id, WorkloadId::CdnCacheLib | WorkloadId::SocialCacheLib) {
                CACHELIB_OPS
            } else {
                OPS
            };
            Input::new(id.label(), ops, move || build_workload(id, 1))
        })
        .collect();
    inputs.push(Input::new("BFS-small", OPS, || {
        Box::new(BfsWorkload::new(Graph::kronecker(9, 8, 6), 3, 7))
    }));
    inputs.push(Input::new("CC-small", OPS, || {
        Box::new(CcWorkload::new(Graph::uniform(10, 2, 8), 15))
    }));
    inputs.push(Input::new("PR-small", OPS, || {
        Box::new(PrWorkload::new(Graph::kronecker(10, 8, 9), 4))
    }));
    inputs.push(Input::new("zipf-shift", OPS, || {
        Box::new(ZipfPageWorkload::new(4_096, 0.99, 30_000, 3).with_shift(400_000, 0.8))
    }));
    inputs.push(Input::new("zipf-wakeup", OPS, || {
        Box::new(
            ZipfPageWorkload::new(4_096, 0.6, 30_000, 4)
                .with_cpu_ns(5_000)
                .with_wakeup(1_000_000, 1.2, 50),
        )
    }));
    inputs.push(Input::new("seq-scan", OPS, || {
        Box::new(SequentialScanWorkload::new(300, 50, 1_024))
    }));
    inputs.push(Input::new("phased-diurnal", OPS + 2_000, || {
        Box::new(
            PhasedWorkload::new()
                .phase(
                    8_000,
                    Box::new(ZipfPageWorkload::new(4_000, 1.1, u64::MAX, 1)),
                )
                .phase(
                    4_000,
                    Box::new(ZipfPageWorkload::new(16_000, 0.4, u64::MAX, 2)),
                )
                .phase(3_000, Box::new(SequentialScanWorkload::new(500, 2, 4_096)))
                .phase(
                    8_000,
                    Box::new(ZipfPageWorkload::new(4_000, 1.1, u64::MAX, 3)),
                ),
        )
    }));
    inputs.extend(cachelib_churn());
    let path = trace.0.clone();
    inputs.push(Input::new("replay-CDN", OPS, move || {
        Box::new(TraceReplayWorkload::open(&path).expect("open trace"))
    }));
    inputs
}

/// A phased workload whose second phase waits on the clock: phase 1 ends
/// at op 100, and phase 2 shifts its hot set once the clock reaches 8 µs
/// (op 80 on the harness clock), so its first op must see the clock of its
/// own call.
fn phased_straddle() -> Input {
    Input::new("phased-straddle", 2_000, || {
        Box::new(
            PhasedWorkload::new()
                .phase(100, Box::new(ZipfPageWorkload::new(256, 1.0, u64::MAX, 1)))
                .phase(
                    100_000,
                    Box::new(ZipfPageWorkload::new(256, 1.0, u64::MAX, 2).with_shift(8_000, 1.0)),
                ),
        )
    })
}

/// CacheLib with churn on every op and on every 7th: the permutation must
/// be read after each op's churn, wherever the op sits in its call.
fn cachelib_churn() -> Vec<Input> {
    let mut inputs = Vec::new();
    for base in [CacheLibConfig::cdn(), CacheLibConfig::social_graph()] {
        for interval in [1, 7] {
            let mut c = base.clone().with_ops(2_000);
            c.objects = 3_000;
            c.churn_interval_ops = Some(interval);
            c.churn_fraction = 0.5;
            let label = format!("{}-churn-{interval}", c.name);
            inputs.push(Input::new(&label, 2_000, move || {
                Box::new(CacheLibWorkload::new(c.clone()))
            }));
        }
    }
    inputs
}

fn fnv(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Pulls up to `ops` ops engine-style at most `max_ops` per call and
/// returns the stream's digest.
fn stream_digest(w: &mut dyn Workload, max_ops: usize, ops: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325;
    let mut batch = AccessBatch::new();
    let mut pulled = 0u64;
    while pulled < ops {
        let want = if w.batchable_now() {
            (max_ops as u64).min(ops - pulled) as usize
        } else {
            1
        };
        batch.clear();
        let n = w.fill_batch(pulled * NS_PER_OP, want, &mut batch);
        assert!(n <= want && batch.len() == n, "{n} ops for {want} asked");
        if n == 0 {
            break;
        }
        for i in 0..n {
            let (op, start, end) = batch.op_bounds(i);
            let kind: u8 = match op.kind {
                OpKind::Read => 0,
                OpKind::Write => 1,
                OpKind::Compute => 2,
            };
            h = fnv(h, &[kind]);
            h = fnv(h, &op.cpu_ns.to_le_bytes());
            h = fnv(h, &((end - start) as u32).to_le_bytes());
            for k in start..end {
                let a = batch.access(k);
                h = fnv(h, &a.addr.to_le_bytes());
                h = fnv(h, &[u8::from(a.is_write)]);
            }
        }
        pulled += n as u64;
    }
    h
}

/// The pinned digests, by input label.
const PINNED: &[(&str, u64)] = &[
    ("CDN", 0xde619f6f5d8af1b1),
    ("social", 0x833b8c9e90359148),
    ("BFS-K", 0xee367a3e10c28948),
    ("BFS-U", 0x4a47365b996160ce),
    ("CC-K", 0xb242d3c1a9c2524e),
    ("CC-U", 0x5d72c85ad8625654),
    ("PR-K", 0x3cece7a1308e713e),
    ("PR-U", 0xb98a0c2b6c085e49),
    ("bwave", 0x4744a51167736fbd),
    ("roms", 0x285e827f68c55fa5),
    ("silo", 0xc1a550af3bd9e744),
    ("XGBoost", 0xc9f2ce1707773a0b),
    ("BFS-small", 0x9300c15f754107e9),
    ("CC-small", 0x504d48994fcdc69f),
    ("PR-small", 0xf6e93bd7c36b2f95),
    ("zipf-shift", 0xf631b90e73364448),
    ("zipf-wakeup", 0x631aab23cfca5213),
    ("seq-scan", 0x734c7e684b411b25),
    ("phased-diurnal", 0x1937da93b023a131),
    ("cachelib-cdn-churn-1", 0x4c4e741e65106b85),
    ("cachelib-cdn-churn-7", 0x4d55633adb7131ba),
    ("cachelib-social-churn-1", 0x82b67ac8340fb905),
    ("cachelib-social-churn-7", 0xdd363c613002ffa9),
    ("replay-CDN", 0x21ba307740ad58d1),
];

#[test]
fn generator_streams_match_their_pinned_digests() {
    let trace = TraceFile::record("pinned");
    let mut wrong = Vec::new();
    for input in pinned_inputs(&trace) {
        let want = PINNED
            .iter()
            .find(|(label, _)| *label == input.label)
            .map(|&(_, digest)| digest);
        for max_ops in [1, 61] {
            let got = stream_digest((input.build)().as_mut(), max_ops, input.ops);
            if want != Some(got) {
                wrong.push(format!(
                    "    (\"{}\", {got:#018x}), // at {max_ops} per call",
                    input.label
                ));
            }
        }
    }
    assert!(wrong.is_empty(), "streams moved:\n{}", wrong.join("\n"));
}

#[test]
fn generator_streams_do_not_depend_on_ops_per_call() {
    let trace = TraceFile::record("invariance");
    let mut inputs = pinned_inputs(&trace);
    inputs.push(phased_straddle());
    for input in inputs {
        let one = stream_digest((input.build)().as_mut(), 1, input.ops);
        for max_ops in [13, 61, 64] {
            let got = stream_digest((input.build)().as_mut(), max_ops, input.ops);
            assert_eq!(got, one, "{}: {max_ops} per call vs 1", input.label);
        }
    }
}

#[test]
fn a_short_fill_is_the_last_or_stops_before_the_clock() {
    let trace = TraceFile::record("short");
    let mut inputs = pinned_inputs(&trace);
    inputs.push(phased_straddle());
    for input in inputs {
        let mut w = (input.build)();
        let mut batch = AccessBatch::new();
        let mut pulled = 0u64;
        let mut ended = false;
        while pulled < input.ops {
            batch.clear();
            let n = w.fill_batch(pulled * NS_PER_OP, 61, &mut batch);
            assert!(n <= 61, "{}: {n} ops for 61 asked", input.label);
            pulled += n as u64;
            if n == 0 {
                ended = true;
                break;
            }
            if n < 61 && w.batchable_now() {
                batch.clear();
                let next = w.fill_batch(pulled * NS_PER_OP, 61, &mut batch);
                assert_eq!(
                    next, 0,
                    "{}: {n} ops at op {pulled}, then more",
                    input.label
                );
                ended = true;
                break;
            }
        }
        let label = input.label.as_str();
        if label.ends_with("-small") || label == "phased-diurnal" {
            assert!(ended, "{label} ends inside the pulled range");
        }
    }
}
