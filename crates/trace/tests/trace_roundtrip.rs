//! Property test: trace write→read round-trip is identity on random op
//! streams — random lengths, chunk sizes, read/write mixes, and cpu_ns
//! values, including the degenerate empty and single-op traces.

use std::io::Cursor;

use proptest::prelude::*;
use tiering_trace::{
    Access, Op, OpKind, TraceError, TraceReader, TraceWriter, MAX_CHUNK_PAYLOAD_BYTES,
};

/// Writes `ops` through a [`TraceWriter`] at the given chunking and returns
/// the raw bytes.
fn encode(ops: &[(Op, Vec<Access>)], chunk_ops: usize, name: &str) -> Vec<u8> {
    let mut w = TraceWriter::new(Cursor::new(Vec::new()), name, 1 << 24)
        .expect("writer")
        .with_chunk_ops(chunk_ops);
    for (op, accs) in ops {
        w.push_op(*op, accs).expect("push_op");
    }
    let (summary, cursor) = w.finish().expect("finish");
    assert_eq!(summary.ops, ops.len() as u64);
    assert_eq!(
        summary.accesses,
        ops.iter().map(|(_, a)| a.len() as u64).sum::<u64>()
    );
    cursor.into_inner()
}

/// Streams every op back out of `bytes` chunk by chunk.
fn decode(bytes: &[u8]) -> Vec<(Op, Vec<Access>)> {
    let mut r = TraceReader::new(Cursor::new(bytes)).expect("reader");
    let mut out = Vec::new();
    while r.advance().expect("advance") {
        let c = r.chunk();
        for i in 0..c.len() {
            let (op, s, e) = c.op_bounds(i);
            out.push((op, (s..e).map(|j| c.access(j)).collect()));
        }
    }
    out
}

/// Raw op tuple: (kind selector, cpu_ns, accesses as (addr, is_write)).
/// The vendored proptest shim has no `prop_map`, so strategies yield plain
/// tuples and [`build_ops`] lifts them into `Op`/`Access` values.
type RawOp = (u8, u64, Vec<(u64, bool)>);

fn op_strategy() -> impl Strategy<Value = RawOp> {
    (
        0u8..3,
        0u64..10_000_000,
        prop::collection::vec((0u64..u64::MAX, any::<bool>()), 0..24),
    )
}

fn build_ops(raw: Vec<RawOp>) -> Vec<(Op, Vec<Access>)> {
    raw.into_iter()
        .map(|(kind, cpu_ns, accs)| {
            let kind = match kind {
                0 => OpKind::Read,
                1 => OpKind::Write,
                _ => OpKind::Compute,
            };
            let accs = accs
                .into_iter()
                .map(|(addr, is_write)| Access { addr, is_write })
                .collect();
            (Op { kind, cpu_ns }, accs)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn write_read_roundtrip_is_identity(
        raw in prop::collection::vec(op_strategy(), 0..120),
        chunk_ops in 1usize..128,
    ) {
        let ops = build_ops(raw);
        let bytes = encode(&ops, chunk_ops, "prop-trace");
        prop_assert_eq!(decode(&bytes), ops);
    }

    #[test]
    fn chunking_never_changes_the_stream(
        raw in prop::collection::vec(op_strategy(), 1..80),
        small in 1usize..8,
        large in 64usize..256,
    ) {
        let ops = build_ops(raw);
        let fine = encode(&ops, small, "prop-trace");
        let coarse = encode(&ops, large, "prop-trace");
        prop_assert_eq!(decode(&fine), decode(&coarse));
    }

    #[test]
    fn header_totals_match_stream(
        raw in prop::collection::vec(op_strategy(), 0..60),
        chunk_ops in 1usize..64,
    ) {
        let ops = build_ops(raw);
        let bytes = encode(&ops, chunk_ops, "prop-trace");
        let r = TraceReader::new(Cursor::new(&bytes[..])).expect("reader");
        prop_assert_eq!(r.header().total_ops, ops.len() as u64);
        prop_assert_eq!(
            r.header().total_accesses,
            ops.iter().map(|(_, a)| a.len() as u64).sum::<u64>()
        );
        let expected_chunks = ops.len().div_ceil(chunk_ops) as u64;
        prop_assert_eq!(r.header().chunk_count, expected_chunks);
    }
}

#[test]
fn empty_trace_roundtrips() {
    let bytes = encode(&[], 16, "empty");
    assert_eq!(decode(&bytes), Vec::new());
}

#[test]
fn single_op_trace_roundtrips() {
    let ops = vec![(Op::write(123), vec![Access::write(0xDEAD_BEEF)])];
    let bytes = encode(&ops, 16, "single");
    assert_eq!(decode(&bytes), ops);
}

#[test]
fn single_op_no_access_trace_roundtrips() {
    let ops = vec![(Op::compute(7), Vec::new())];
    let bytes = encode(&ops, 1, "single-compute");
    assert_eq!(decode(&bytes), ops);
}

/// Ten ops whose payload is exactly `MAX_CHUNK_PAYLOAD_BYTES`
/// (`13·10 + 9·7 456 526 = 2^26`), then two small ones, under an op target
/// that never triggers: the writer keeps the ten in one chunk — the cap is
/// inclusive, as in the reader — and seals before the eleventh instead of
/// writing a frame `verify` would refuse as over-length (or, past 4 GiB,
/// one whose `u32` length field wrapped). The file round-trips.
#[test]
fn writer_seals_early_at_the_payload_cap() {
    const BIG_OPS: u64 = 10;
    let burst = |op: u64| -> Vec<Access> {
        let len = if op == BIG_OPS - 1 { 745_658 } else { 745_652 };
        (0..len)
            .map(|i| Access {
                addr: (op << 40) | (i * 64),
                is_write: (i + op) % 5 == 1,
            })
            .collect()
    };
    let small = [Access::write(1), Access::read(2), Access::write(3)];

    let mut w = TraceWriter::new(Cursor::new(Vec::new()), "cap", 1 << 30)
        .expect("writer")
        .with_chunk_ops(usize::MAX);
    for op in 0..BIG_OPS {
        w.push_op(Op::read(op), &burst(op)).expect("push");
    }
    w.push_op(Op::compute(77), &[]).expect("push");
    w.push_op(Op::write(78), &small).expect("push");
    let (summary, cursor) = w.finish().expect("finish");
    let bytes = cursor.into_inner();
    assert_eq!(summary.ops, BIG_OPS + 2);
    assert_eq!(summary.accesses, 7_456_526 + 3);
    assert_eq!(summary.chunks, 2, "sealed once at the cap, once at finish");
    // First frame's prologue: header is 48 fixed bytes + "cap".
    let payload_len = u32::from_le_bytes(bytes[51 + 8..51 + 12].try_into().unwrap());
    assert_eq!(u64::from(payload_len), MAX_CHUNK_PAYLOAD_BYTES);

    let verified = TraceReader::new(Cursor::new(&bytes[..]))
        .expect("reader")
        .verify()
        .expect("the writer's own file verifies");
    assert_eq!(verified, summary);

    let mut r = TraceReader::new(Cursor::new(&bytes[..])).expect("reader");
    assert!(r.advance().expect("first chunk"));
    let c = r.chunk();
    assert_eq!(c.len() as u64, BIG_OPS);
    for op in 0..BIG_OPS {
        let (decoded, s, e) = c.op_bounds(op as usize);
        assert_eq!(decoded, Op::read(op));
        let expected = burst(op);
        assert_eq!(e - s, expected.len());
        assert!(expected
            .iter()
            .zip(c.addrs()[s..e].iter().zip(&c.writes()[s..e]))
            .all(|(a, (&addr, &is_write))| a.addr == addr && a.is_write == is_write));
    }
    assert!(r.advance().expect("second chunk"));
    let c = r.chunk();
    assert_eq!(c.len(), 2);
    assert_eq!(c.op_bounds(0), (Op::compute(77), 0, 0));
    assert_eq!(c.op_bounds(1), (Op::write(78), 0, 3));
    assert_eq!((0..3).map(|i| c.access(i)).collect::<Vec<_>>(), small);
    assert!(!r.advance().expect("end of trace"));
}

/// One op too long for any chunk (`13 + 9·7 456 540 > 2^26`) is a typed
/// error from `push_op`, not an unreadable file: nothing of it is buffered,
/// and the writer carries on.
#[test]
fn an_op_no_chunk_can_hold_is_refused() {
    let mut w = TraceWriter::new(Cursor::new(Vec::new()), "cap", 0)
        .expect("writer")
        .with_chunk_ops(usize::MAX);
    w.push_op(Op::read(1), &[Access::read(64)]).expect("push");
    // All-zero elements: allocated lazily and never read, since the op is
    // refused on its length alone.
    let too_long = vec![Access::read(0); 7_456_540];
    match w.push_op(Op::read(2), &too_long) {
        Err(TraceError::OverlengthChunk {
            chunk,
            declared,
            limit,
        }) => {
            assert_eq!(chunk, 0);
            assert_eq!(declared, 13 + 9 * 7_456_540);
            assert_eq!(limit, MAX_CHUNK_PAYLOAD_BYTES);
        }
        other => panic!("expected OverlengthChunk, got {other:?}"),
    }
    drop(too_long);
    w.push_op(Op::write(3), &[Access::write(128)])
        .expect("push");
    let (summary, cursor) = w.finish().expect("finish");
    assert_eq!((summary.ops, summary.accesses, summary.chunks), (2, 2, 1));
    assert_eq!(
        decode(&cursor.into_inner()),
        vec![
            (Op::read(1), vec![Access::read(64)]),
            (Op::write(3), vec![Access::write(128)]),
        ]
    );
}
