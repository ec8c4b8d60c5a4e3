//! Corruption tests: every way a trace file can be damaged — truncation at
//! any byte, foreign magic, unknown version (version 1 included), any
//! flipped bit of a chunk frame, over-length chunk declarations, drifted
//! totals — must surface as a typed [`TraceError`], never a panic and never
//! a silent short read.
//!
//! Every damaged file is read two ways — [`TraceReader::verify`], which
//! checks each frame without converting it, and the
//! [`advance`](TraceReader::advance) loop, which checks and converts — and
//! both must return the same outcome ([`scan`]).
//!
//! Frames are re-sealed here by [`seal_from_the_spec`], written from
//! `docs/TRACE_FORMAT.md` alone and sharing no code with the crate: if the
//! crate's seal and the document ever disagree, the pinned frame and the
//! re-sealing tests fail.
//!
//! The runner-level suite (`trace_replay_equivalence`) drives the two
//! coarse damage shapes — a byte flipped mid-file, a cut tail — against
//! real files through the replay entry point, while this suite exercises
//! the byte-exact cases in memory.

use std::io::Cursor;

use tiering_trace::{
    Access, Op, TraceError, TraceReader, TraceWriter, MAX_CHUNK_PAYLOAD_BYTES, TRACE_VERSION,
};
use tiering_workloads::TraceReplayWorkload;

/// A small but multi-chunk valid trace (9 ops, chunked 4+4+1).
fn valid_trace() -> Vec<u8> {
    let mut w = TraceWriter::new(Cursor::new(Vec::new()), "corruption-victim", 1 << 20)
        .expect("writer")
        .with_chunk_ops(4);
    for i in 0..9u64 {
        let accs = [Access::read(i * 4096), Access::write(i * 4096 + 64)];
        w.push_op(Op::read(100 + i), &accs).expect("push");
    }
    let (_, cursor) = w.finish().expect("finish");
    cursor.into_inner()
}

/// Fixed header bytes before the name block (see `docs/TRACE_FORMAT.md`).
const HEADER_FIXED: usize = 48;
/// `"corruption-victim"` is 17 bytes.
const NAME_LEN: usize = 17;
/// Offset of the first chunk prologue.
const FIRST_CHUNK: usize = HEADER_FIXED + NAME_LEN;

/// The version-2 chunk seal, transcribed from the "Checksum" section of
/// `docs/TRACE_FORMAT.md` with plain indexing and no iterator adapters —
/// deliberately not the crate's code.
fn seal_from_the_spec(prologue: &[u8], payload: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0100_0000_01b3;
    assert_eq!(prologue.len(), 16);
    let mut s = OFFSET;
    for &byte in prologue {
        s = (s ^ u64::from(byte)).wrapping_mul(PRIME);
    }
    let mut lane = [s, OFFSET ^ 1, OFFSET ^ 2, OFFSET ^ 3];
    let blocks = payload.len() / 32;
    for b in 0..blocks {
        for k in 0..4 {
            let mut word = 0u64;
            for i in 0..8 {
                word |= u64::from(payload[32 * b + 8 * k + i]) << (8 * i);
            }
            lane[k] = (lane[k] ^ word).wrapping_mul(PRIME);
            lane[k] ^= lane[k] >> 29;
        }
    }
    let mut h = lane[0];
    h = (h ^ lane[1]).wrapping_mul(PRIME);
    h = (h ^ lane[2]).wrapping_mul(PRIME);
    h = (h ^ lane[3]).wrapping_mul(PRIME);
    for &byte in &payload[32 * blocks..] {
        h = (h ^ u64::from(byte)).wrapping_mul(PRIME);
    }
    h
}

/// Re-seals the frame starting at `frame` (whose prologue must still
/// declare its true payload length) after a test edited its payload.
fn reseal(bytes: &mut [u8], frame: usize) {
    let payload_len = u32::from_le_bytes(bytes[frame + 8..frame + 12].try_into().unwrap()) as usize;
    let end = frame + 16 + payload_len;
    let seal = seal_from_the_spec(&bytes[frame..frame + 16], &bytes[frame + 16..end]);
    bytes[end..end + 8].copy_from_slice(&seal.to_le_bytes());
}

/// Fully consumes `bytes` as a trace both ways — `verify`, and the
/// `advance` loop — requires the same outcome (the same error, variant and
/// fields) from each, and returns it.
fn scan(bytes: &[u8]) -> Result<(), TraceError> {
    let verified = TraceReader::new(Cursor::new(bytes)).and_then(TraceReader::verify);
    let advanced = (|| {
        let mut r = TraceReader::new(Cursor::new(bytes))?;
        while r.advance()? {}
        Ok(())
    })();
    match (&verified, &advanced) {
        (Ok(_), Ok(())) => {}
        (Err(v), Err(a)) => assert_eq!(format!("{v:?}"), format!("{a:?}")),
        _ => panic!("verify gave {verified:?}, the advance loop {advanced:?}"),
    }
    advanced
}

#[test]
fn pristine_trace_scans_clean() {
    assert!(scan(&valid_trace()).is_ok());
}

/// Truncation sweep: EVERY proper prefix of the file must fail typed.
/// The header records exact totals and every chunk declares its length, so
/// no cut point can be mistaken for a shorter valid trace.
#[test]
fn every_proper_prefix_is_rejected() {
    let bytes = valid_trace();
    for cut in 0..bytes.len() {
        let err = scan(&bytes[..cut]).expect_err(&format!("prefix of {cut} bytes accepted"));
        assert!(
            matches!(
                err,
                TraceError::Truncated { .. }
                    | TraceError::BadMagic { .. }
                    | TraceError::CountMismatch { .. }
            ),
            "prefix of {cut} bytes gave unexpected error {err:?}"
        );
    }
}

#[test]
fn bad_magic_is_rejected() {
    let mut bytes = valid_trace();
    bytes[0] ^= 0xFF;
    match scan(&bytes) {
        Err(TraceError::BadMagic { found }) => assert_ne!(found, *b"HTIERTRC"),
        other => panic!("expected BadMagic, got {other:?}"),
    }
}

#[test]
fn future_version_is_rejected() {
    let mut bytes = valid_trace();
    bytes[8..12].copy_from_slice(&(TRACE_VERSION + 1).to_le_bytes());
    match scan(&bytes) {
        Err(TraceError::BadVersion { found }) => assert_eq!(found, TRACE_VERSION + 1),
        other => panic!("expected BadVersion, got {other:?}"),
    }
}

/// Version 1 sealed chunks with byte-wise FNV-1a; this reader verifies
/// only the version-2 seal, so a version-1 file is refused at the header,
/// not at its first checksum. Built by hand: a version-1 header is the
/// same 48 fixed bytes with `version = 1`.
#[test]
fn version_1_is_rejected() {
    let mut v1 = Vec::new();
    v1.extend_from_slice(b"HTIERTRC");
    v1.extend_from_slice(&1u32.to_le_bytes()); // version
    v1.extend_from_slice(&2u32.to_le_bytes()); // name_len
    v1.extend_from_slice(&4096u64.to_le_bytes()); // footprint_bytes
    v1.extend_from_slice(&[0u8; 24]); // total_ops, total_accesses, chunk_count
    v1.extend_from_slice(b"v1");
    assert!(matches!(
        scan(&v1),
        Err(TraceError::BadVersion { found: 1 })
    ));
    // The same bytes declaring the current version are an empty trace.
    v1[8..12].copy_from_slice(&TRACE_VERSION.to_le_bytes());
    assert!(scan(&v1).is_ok());
}

/// One frame written out by hand, byte for byte, with its seal pinned as a
/// constant: seals are a function of the bytes alone — not of the host's
/// endianness, word size or compiler — and the crate, the document and this
/// file's transcription of the document agree on it.
#[test]
fn hand_written_frame_has_the_pinned_seal() {
    #[rustfmt::skip]
    let frame: [u8; 16 + 53] = [
        // prologue: ops = 2, accesses = 3, payload_len = 13·2 + 9·3 = 53, reserved
        2, 0, 0, 0,  3, 0, 0, 0,  53, 0, 0, 0,  0, 0, 0, 0,
        // kinds: Read, Write
        0, 1,
        // cpu_ns: 50, 70
        50, 0, 0, 0, 0, 0, 0, 0,  70, 0, 0, 0, 0, 0, 0, 0,
        // acc_len: 2, 1
        2, 0, 0, 0,  1, 0, 0, 0,
        // addrs: 0x1000, 0x2040, 0xFFFF_FFFF_FFFF_0000
        0x00, 0x10, 0, 0, 0, 0, 0, 0,  0x40, 0x20, 0, 0, 0, 0, 0, 0,
        0x00, 0x00, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
        // writes: load, load, store
        0, 0, 1,
    ];
    const PINNED_SEAL: u64 = 0xfaf1_f29a_bb8c_88dc;
    assert_eq!(
        seal_from_the_spec(&frame[..16], &frame[16..]),
        PINNED_SEAL,
        "seal of the hand-written frame: {:#018x}",
        seal_from_the_spec(&frame[..16], &frame[16..])
    );

    // The writer produces exactly this frame and this seal …
    let mut w = TraceWriter::new(Cursor::new(Vec::new()), "", 0).expect("writer");
    w.push_op(Op::read(50), &[Access::read(0x1000), Access::read(0x2040)])
        .expect("push");
    w.push_op(Op::write(70), &[Access::write(0xFFFF_FFFF_FFFF_0000)])
        .expect("push");
    let (_, cursor) = w.finish().expect("finish");
    let bytes = cursor.into_inner();
    assert_eq!(&bytes[HEADER_FIXED..HEADER_FIXED + frame.len()], &frame[..]);
    assert_eq!(
        &bytes[HEADER_FIXED + frame.len()..],
        &PINNED_SEAL.to_le_bytes()
    );
    // … and the reader accepts it.
    assert!(scan(&bytes).is_ok());
}

/// A single flipped bit anywhere in a chunk payload must trip that chunk's
/// checksum.
#[test]
fn flipped_payload_byte_is_rejected() {
    let bytes = valid_trace();
    // Flip one byte in the middle of the first chunk's payload.
    let mut damaged = bytes.clone();
    let target = FIRST_CHUNK + 16 + 10;
    damaged[target] ^= 0x01;
    match scan(&damaged) {
        Err(TraceError::ChecksumMismatch { chunk }) => assert_eq!(chunk, 0),
        other => panic!("expected ChecksumMismatch, got {other:?}"),
    }
    // And one in the last chunk — earlier chunks must still decode.
    let mut damaged = bytes;
    let last = damaged.len() - 9; // inside the final chunk's payload
    damaged[last] ^= 0x80;
    match scan(&damaged) {
        Err(TraceError::ChecksumMismatch { chunk }) => assert_eq!(chunk, 2),
        other => panic!("expected ChecksumMismatch in last chunk, got {other:?}"),
    }
}

#[test]
fn flipped_stored_checksum_is_rejected() {
    let mut bytes = valid_trace();
    let last = bytes.len() - 1; // high byte of the final chunk's checksum
    bytes[last] ^= 0xFF;
    assert!(matches!(
        scan(&bytes),
        Err(TraceError::ChecksumMismatch { chunk: 2 })
    ));
}

/// A chunk prologue declaring counts beyond the payload cap must be
/// rejected *before* any allocation sized from those counts.
#[test]
fn overlength_chunk_is_rejected_without_allocating() {
    let mut bytes = valid_trace();
    // Declare u32::MAX ops in the first chunk prologue: the implied payload
    // far exceeds MAX_CHUNK_PAYLOAD_BYTES.
    bytes[FIRST_CHUNK..FIRST_CHUNK + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    match scan(&bytes) {
        Err(TraceError::OverlengthChunk {
            chunk, declared, ..
        }) => {
            assert_eq!(chunk, 0);
            // The implied size, not the stored payload_len, is what tripped.
            assert!(u64::from(u32::MAX) * 13 > MAX_CHUNK_PAYLOAD_BYTES || declared > 0);
        }
        other => panic!("expected OverlengthChunk, got {other:?}"),
    }
}

/// `payload_len` disagreeing with the count fields is also an over-length
/// (malformed-frame) rejection, even when both fit the cap.
#[test]
fn inconsistent_payload_len_is_rejected() {
    let mut bytes = valid_trace();
    let off = FIRST_CHUNK + 8; // payload_len field
    let declared = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap());
    bytes[off..off + 4].copy_from_slice(&(declared + 1).to_le_bytes());
    assert!(matches!(
        scan(&bytes),
        Err(TraceError::OverlengthChunk { chunk: 0, .. })
    ));
}

/// Header totals drifting from the data (here: one op shaved off) are
/// caught by the end-of-stream cross-check, not silently accepted.
#[test]
fn drifted_header_totals_are_rejected() {
    let mut bytes = valid_trace();
    bytes[24..32].copy_from_slice(&8u64.to_le_bytes()); // total_ops: 9 → 8
    match scan(&bytes) {
        Err(TraceError::CountMismatch {
            what,
            declared,
            found,
        }) => {
            assert_eq!(what, "total ops");
            assert_eq!(declared, 8);
            assert_eq!(found, 9);
        }
        other => panic!("expected CountMismatch, got {other:?}"),
    }
}

/// An unfinished writer (totals never back-patched) leaves zeroed counts;
/// the reader sees chunk_count = 0 and stops at the header — it must not
/// silently replay a partial stream as if complete.
#[test]
fn unfinished_trace_yields_no_ops() {
    let mut w = TraceWriter::new(Cursor::new(Vec::new()), "unfinished", 0)
        .expect("writer")
        .with_chunk_ops(1);
    w.push_op(Op::read(1), &[Access::read(0)]).expect("push");
    // Drop without finish(): the chunk was flushed but the header still
    // says zero chunks.
    let bytes = {
        // Writer has no public sink accessor without finish; rebuild the
        // same situation by finishing and then zeroing the totals.
        let (_, cursor) = w.finish().expect("finish");
        let mut b = cursor.into_inner();
        b[24..48].fill(0); // total_ops, total_accesses, chunk_count
        b
    };
    let mut r = TraceReader::new(Cursor::new(&bytes[..])).expect("reader");
    assert!(
        !r.advance().expect("advance"),
        "zero-chunk header must stop"
    );
    assert_eq!(r.chunk().len(), 0);
}

/// Writes one chunk of `ops` operations sharing `accesses` accesses
/// (`13·ops + 9·accesses` payload bytes) under an empty name, so the frame
/// starts right after the fixed header.
fn one_chunk_trace(ops: usize, accesses: usize) -> Vec<u8> {
    let mut w = TraceWriter::new(Cursor::new(Vec::new()), "", 1 << 20).expect("writer");
    let accs: Vec<Access> = (0..accesses as u64)
        .map(|i| Access {
            addr: i.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1,
            is_write: i % 3 == 0,
        })
        .collect();
    for i in 0..ops {
        // The first op carries every access; the rest are bare.
        let burst = if i == 0 { &accs[..] } else { &[] };
        w.push_op(Op::write(1_000 + i as u64), burst).expect("push");
    }
    let (summary, cursor) = w.finish().expect("finish");
    assert_eq!(summary.chunks, 1);
    cursor.into_inner()
}

/// The exhaustive single-bit matrix: for every chunk shape whose payload is
/// 13–97 bytes (zero to three whole 32-byte seal blocks and 28 of the 32
/// tail lengths), flipping each bit of the frame in turn —
/// prologue, payload, stored seal — is rejected with a typed error. No flip
/// is ever accepted, and none panics.
#[test]
fn every_single_bit_flip_in_a_frame_is_rejected() {
    let mut payload_lens = Vec::new();
    let mut flips = 0u32;
    for ops in 1..=7 {
        for accesses in 0..=(97 - 13 * ops) / 9 {
            let payload_len = 13 * ops + 9 * accesses;
            payload_lens.push(payload_len);
            let pristine = one_chunk_trace(ops, accesses);
            assert_eq!(pristine.len(), HEADER_FIXED + 16 + payload_len + 8);
            assert!(scan(&pristine).is_ok());
            let mut bytes = pristine.clone();
            for at in HEADER_FIXED..bytes.len() {
                for bit in 0..8 {
                    bytes[at] ^= 1 << bit;
                    let outcome = scan(&bytes);
                    let in_frame = at - HEADER_FIXED;
                    assert!(
                        outcome.is_err(),
                        "{ops} ops, {accesses} accesses: flipping bit {bit} of frame byte {in_frame} was accepted"
                    );
                    // Past the three count fields nothing but the seal can
                    // tell: reserved word, payload and stored seal.
                    if in_frame >= 12 {
                        assert!(
                            matches!(outcome, Err(TraceError::ChecksumMismatch { chunk: 0 })),
                            "frame byte {in_frame}, bit {bit}: {outcome:?}"
                        );
                    }
                    bytes[at] ^= 1 << bit;
                    flips += 1;
                }
            }
            assert_eq!(bytes, pristine);
        }
    }
    // Frames with no whole seal block, and one ending exactly on a block
    // edge; the lengths no frame can have (1–12, 14–21, …) are covered on
    // the seal function itself by `every_single_bit_changes_the_seal`.
    assert!(payload_lens.contains(&13) && payload_lens.contains(&96));
    assert!(flips > 20_000);
}

/// An out-of-vocabulary kind byte under a *valid* seal: the seal covers the
/// payload, so a naive edit trips the checksum first; re-seal (from the
/// spec, not from the crate) so the vocabulary check itself is exercised.
#[test]
fn garbage_op_kind_is_rejected() {
    let mut bytes = valid_trace();
    // First payload byte of chunk 0 is the first op's kind.
    bytes[FIRST_CHUNK + 16] = 7;
    assert!(matches!(
        scan(&bytes),
        Err(TraceError::ChecksumMismatch { chunk: 0 })
    ));
    reseal(&mut bytes, FIRST_CHUNK);
    assert!(matches!(
        scan(&bytes),
        Err(TraceError::Malformed { what: "op kind" })
    ));
}

/// The twin for the other vocabulary: a write flag that is neither 0 nor 1,
/// in the last position of the column, under a valid seal.
#[test]
fn garbage_write_flag_is_rejected() {
    let mut bytes = valid_trace();
    // Chunk 0 holds 4 ops and 8 accesses: its last payload byte is the
    // last access's write flag.
    let last_flag = FIRST_CHUNK + 16 + (13 * 4 + 9 * 8) - 1;
    assert_eq!(bytes[last_flag], 1, "the victim's second access is a store");
    bytes[last_flag] = 2;
    reseal(&mut bytes, FIRST_CHUNK);
    assert!(matches!(
        scan(&bytes),
        Err(TraceError::Malformed { what: "write flag" })
    ));
    // Re-sealing an undamaged frame is the identity: the spec's seal is the
    // crate's seal.
    bytes[last_flag] = 1;
    reseal(&mut bytes, FIRST_CHUNK);
    assert_eq!(bytes, valid_trace());
}

/// The third re-sealed twin: an `acc_len` column that over- or
/// under-counts the prologue's `accesses`, under a valid seal. `verify`,
/// the `advance` loop and `TraceReplayWorkload::open` all report the
/// running total the check reached — never the batch fill's "op counts
/// disagree" panic.
#[test]
fn drifted_access_counts_are_rejected() {
    // Chunk 0 holds 4 ops of 2 accesses (8 in all); its `acc_len` column
    // follows the 4 kind bytes and the 4 `cpu_ns` words.
    let first_len = FIRST_CHUNK + 16 + 4 + 8 * 4;
    let path = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("corruption-{}-acc-len.trace", std::process::id()));
    // Over: 3 + 2 + 2 + 2 passes 8 at the last op. Under: 1 + 2 + 2 + 2.
    for (len, found) in [(3u32, 9), (1, 7)] {
        let mut bytes = valid_trace();
        assert_eq!(bytes[first_len..first_len + 4], 2u32.to_le_bytes());
        bytes[first_len..first_len + 4].copy_from_slice(&len.to_le_bytes());
        reseal(&mut bytes, FIRST_CHUNK);
        let is_drift = |e: &TraceError| {
            matches!(
                e,
                TraceError::CountMismatch {
                    what: "chunk access total",
                    declared: 8,
                    found: f,
                } if *f == found
            )
        };
        let err = scan(&bytes).expect_err("a drifted access count is rejected");
        assert!(is_drift(&err), "acc_len {len}: {err:?}");
        std::fs::write(&path, &bytes).expect("write");
        let err = TraceReplayWorkload::open(&path).expect_err("open refuses the file");
        assert!(is_drift(&err), "open, acc_len {len}: {err:?}");
    }
    std::fs::remove_file(&path).ok();
}
