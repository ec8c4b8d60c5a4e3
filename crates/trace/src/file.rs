//! Versioned, chunked on-disk access-trace format.
//!
//! A trace file is a fixed little-endian header followed by a sequence of
//! self-verifying chunk frames. Each frame stores its operations
//! **columnar** — per-op `kind`/`cpu_ns`/`access-count` columns, per-access
//! `addrs`/`writes` columns — in the structure-of-arrays layout of
//! [`AccessBatch`], and **a decoded chunk is an `AccessBatch`**: the
//! writer buffers its chunk in one and the reader decodes each frame into
//! one, so replay feeds the batch pipeline a whole column range at a time
//! ([`AccessBatch::append_ops`]) without ever materializing per-op
//! `Access` vectors.
//!
//! Layout (byte offsets; all integers little-endian; full specification in
//! `docs/TRACE_FORMAT.md`):
//!
//! ```text
//! header   0  magic            [u8; 8] = b"HTIERTRC"
//!          8  version          u32     = 2
//!         12  name_len         u32     (≤ 4096)
//!         16  footprint_bytes  u64
//!         24  total_ops        u64
//!         32  total_accesses   u64
//!         40  chunk_count      u64
//!         48  name             [u8; name_len]  (UTF-8 workload name)
//! chunk    0  ops              u32     \
//!          4  accesses         u32      | prologue (16 B)
//!          8  payload_len      u32      |
//!         12  reserved         u32 = 0 /
//!         16  kinds            [u8;  ops]       0=Read 1=Write 2=Compute
//!             cpu_ns           [u64; ops]
//!             acc_len          [u32; ops]       accesses per op
//!             addrs            [u64; accesses]
//!             writes           [u8;  accesses]  0=load 1=store
//!             checksum         u64              four-lane word seal over prologue+payload
//! ```
//!
//! The seal ([`chunk_seal`]) is the one thing version 2 changed: version 1
//! folded every byte through one FNV-1a dependency chain, version 2 folds
//! the payload as little-endian `u64` words through four independent
//! lanes, so sealing and both verification passes cost a multiply per
//! eight bytes instead of one per byte.
//!
//! Reading a frame is a *check* then a *convert*. The check
//! ([`check_payload`]) runs on the payload bytes — seal, op-kind
//! vocabulary, access-count total, write-flag vocabulary, in that order,
//! one reduction per column — before any column is written; the convert
//! ([`convert_payload`]) fills the chunk batch a whole column at a time.
//! [`advance`](TraceReader::advance) does both; [`verify`](TraceReader::verify)
//! checks without converting.
//!
//! `payload_len` must equal `13·ops + 9·accesses` and is capped
//! ([`MAX_CHUNK_PAYLOAD_BYTES`]) so a corrupted count field can never make
//! the reader allocate unbounded memory. [`TraceWriter`] streams frames out
//! as ops arrive — sealing early when the next op would cross the cap, so
//! it never writes a frame its own reader rejects — and back-patches the
//! header totals on [`finish`](TraceWriter::finish); [`TraceReader`] holds
//! **one decoded chunk at a time** (replay memory is O(chunk), never
//! O(trace) — the [`max_resident_bytes`](TraceReader::max_resident_bytes)
//! meter is asserted on by the replay-equivalence suite). Every structural
//! defect — foreign magic, unknown version, truncation, checksum mismatch,
//! over-length chunk, total drift — surfaces as a typed [`TraceError`],
//! never a panic and never a silent short read.

use std::fmt;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;

use crate::access::{Access, Op, OpKind};
use crate::batch::AccessBatch;

/// Magic bytes opening every trace file.
pub const TRACE_MAGIC: [u8; 8] = *b"HTIERTRC";

/// Current format version (the only one this reader accepts).
pub const TRACE_VERSION: u32 = 2;

/// Default operations per chunk for [`TraceWriter`].
pub const DEFAULT_CHUNK_OPS: usize = 4096;

/// Hard cap on one chunk's payload (64 MiB): a corrupted count field is
/// rejected as [`TraceError::OverlengthChunk`] instead of driving an
/// unbounded allocation.
pub const MAX_CHUNK_PAYLOAD_BYTES: u64 = 1 << 26;

/// Hard cap on the header's workload-name length.
const MAX_NAME_BYTES: u32 = 4096;

/// Bytes one operation contributes to a payload (kind + cpu_ns + acc_len).
const OP_BYTES: u64 = 1 + 8 + 4;
/// Bytes one access contributes to a payload (addr + write flag).
const ACCESS_BYTES: u64 = 8 + 1;
/// Fixed header bytes before the name block.
const HEADER_FIXED_BYTES: usize = 48;
/// Chunk prologue bytes (ops, accesses, payload_len, reserved).
const PROLOGUE_BYTES: usize = 16;

/// Why a trace file could not be written or read.
#[derive(Debug)]
pub enum TraceError {
    /// An underlying I/O failure (disk full, permission, …).
    Io(io::Error),
    /// The file does not start with [`TRACE_MAGIC`].
    BadMagic {
        /// The bytes found where the magic was expected.
        found: [u8; 8],
    },
    /// The header declares a version this reader does not support.
    BadVersion {
        /// The declared version.
        found: u32,
    },
    /// The stream ended before the named structure was complete.
    Truncated {
        /// Which structure was cut short.
        what: &'static str,
    },
    /// A chunk's stored checksum disagrees with its contents.
    ChecksumMismatch {
        /// Zero-based index of the offending chunk.
        chunk: u64,
    },
    /// A chunk (or the header name block) declares a size that exceeds its
    /// cap or disagrees with its own count fields.
    OverlengthChunk {
        /// Zero-based index of the offending chunk (`u64::MAX` for the
        /// header name block).
        chunk: u64,
        /// The declared byte length.
        declared: u64,
        /// The byte length the counts (or the cap) admit.
        limit: u64,
    },
    /// A count in the file disagrees with what was actually read (header
    /// totals vs. chunk contents, per-chunk access totals, …).
    CountMismatch {
        /// Which count drifted.
        what: &'static str,
        /// The declared value.
        declared: u64,
        /// The value reconstructed from the data.
        found: u64,
    },
    /// A field holds a value outside its vocabulary (an op-kind byte that
    /// is not 0/1/2, a non-UTF-8 name, …).
    Malformed {
        /// Which field is out of vocabulary.
        what: &'static str,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace i/o error: {e}"),
            TraceError::BadMagic { found } => {
                write!(f, "not a trace file (magic {found:02x?})")
            }
            TraceError::BadVersion { found } => {
                write!(
                    f,
                    "unsupported trace version {found} (expected {TRACE_VERSION})"
                )
            }
            TraceError::Truncated { what } => write!(f, "trace truncated in {what}"),
            TraceError::ChecksumMismatch { chunk } => {
                write!(f, "checksum mismatch in chunk {chunk}")
            }
            TraceError::OverlengthChunk {
                chunk,
                declared,
                limit,
            } => {
                if *chunk == u64::MAX {
                    write!(
                        f,
                        "over-length header name: {declared} bytes (limit {limit})"
                    )
                } else {
                    write!(
                        f,
                        "over-length chunk {chunk}: declares {declared} payload bytes (limit {limit})"
                    )
                }
            }
            TraceError::CountMismatch {
                what,
                declared,
                found,
            } => write!(f, "{what}: file declares {declared}, data holds {found}"),
            TraceError::Malformed { what } => write!(f, "malformed trace field: {what}"),
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> Self {
        TraceError::Io(e)
    }
}

/// Maps `read_exact`'s EOF onto the typed truncation error, so a cut-short
/// file is reported as *truncated in \<structure\>*, never as a bare I/O
/// failure or a silent short read.
fn read_exact_or_truncated<R: Read>(
    r: &mut R,
    buf: &mut [u8],
    what: &'static str,
) -> Result<(), TraceError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            TraceError::Truncated { what }
        } else {
            TraceError::Io(e)
        }
    })
}

/// FNV-1a offset basis (the seal's initial state).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (the seal's only multiplier).
const FNV_PRIME: u64 = 0x0100_0000_01b3;

/// Bytes the four seal lanes consume per step (one `u64` word each).
const SEAL_BLOCK_BYTES: usize = 32;

/// The seal's one multiply. Every step of [`chunk_seal`] goes through it,
/// so the test-only meter counts exactly the multiplies a chunk costs.
#[inline]
fn mul_prime(x: u64) -> u64 {
    #[cfg(test)]
    SEAL_MULTIPLIES.with(|m| m.set(m.get() + 1));
    x.wrapping_mul(FNV_PRIME)
}

#[cfg(test)]
thread_local! {
    /// Work meter: multiplies made by [`chunk_seal`] on this thread.
    static SEAL_MULTIPLIES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Byte-wise FNV-1a: folds the 16 prologue bytes and the < 32-byte payload
/// tail of a seal.
fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(state, |h, &b| mul_prime(h ^ u64::from(b)))
}

/// The version-2 chunk seal (normative text: `docs/TRACE_FORMAT.md`,
/// "Checksum").
///
/// The prologue is folded byte-wise into `s`; the payload is then consumed
/// 32 bytes at a time as four little-endian `u64` words, word `k` going to
/// lane `k` (`l = (l ^ word) · PRIME; l ^= l >> 29`), so the four multiply
/// chains run side by side instead of one byte chain serially. Lane 0
/// starts at `s`, lanes 1–3 at `OFFSET ^ k`: a damaged prologue therefore
/// perturbs exactly one lane, like a damaged payload word does. Every step
/// is a bijection of its lane for a fixed input and of the input for a
/// fixed lane, and so is each fold of a lane into `h`, so damage confined
/// to the prologue, to one payload word or to one tail byte always changes
/// the seal. Fixed-width wrapping integer arithmetic on little-endian
/// words only: the same on every host.
fn chunk_seal(prologue: &[u8; PROLOGUE_BYTES], payload: &[u8]) -> u64 {
    let mut lanes = [
        fnv1a(FNV_OFFSET, prologue),
        FNV_OFFSET ^ 1,
        FNV_OFFSET ^ 2,
        FNV_OFFSET ^ 3,
    ];
    let mut blocks = payload.chunks_exact(SEAL_BLOCK_BYTES);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            let word = u64::from_le_bytes(word.try_into().expect("8-byte word"));
            *lane = mul_prime(*lane ^ word);
            *lane ^= *lane >> 29;
        }
    }
    let [first, rest @ ..] = lanes;
    let folded = rest.iter().fold(first, |h, &lane| mul_prime(h ^ lane));
    fnv1a(folded, blocks.remainder())
}

/// The decoded trace header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceHeader {
    /// Format version (currently always [`TRACE_VERSION`]).
    pub version: u32,
    /// Footprint of the recorded workload — replay sizes tiers from this,
    /// so a replayed scenario resolves the same tier configuration as the
    /// generator it was recorded from.
    pub footprint_bytes: u64,
    /// Total operations across all chunks.
    pub total_ops: u64,
    /// Total accesses across all chunks.
    pub total_accesses: u64,
    /// Number of chunk frames.
    pub chunk_count: u64,
    /// Recorded workload name — replay reports under this name, so a
    /// replayed run's `SimReport` fingerprint matches the direct run's.
    pub name: String,
}

impl TraceHeader {
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_FIXED_BYTES + self.name.len());
        out.extend_from_slice(&TRACE_MAGIC);
        out.extend_from_slice(&self.version.to_le_bytes());
        out.extend_from_slice(&(self.name.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.footprint_bytes.to_le_bytes());
        out.extend_from_slice(&self.total_ops.to_le_bytes());
        out.extend_from_slice(&self.total_accesses.to_le_bytes());
        out.extend_from_slice(&self.chunk_count.to_le_bytes());
        out.extend_from_slice(self.name.as_bytes());
        out
    }

    fn read<R: Read>(r: &mut R) -> Result<Self, TraceError> {
        let mut fixed = [0u8; HEADER_FIXED_BYTES];
        read_exact_or_truncated(r, &mut fixed, "header")?;
        let mut magic = [0u8; 8];
        magic.copy_from_slice(&fixed[0..8]);
        if magic != TRACE_MAGIC {
            return Err(TraceError::BadMagic { found: magic });
        }
        let version = le32(&fixed[8..12]);
        if version != TRACE_VERSION {
            return Err(TraceError::BadVersion { found: version });
        }
        let name_len = le32(&fixed[12..16]);
        if name_len > MAX_NAME_BYTES {
            return Err(TraceError::OverlengthChunk {
                chunk: u64::MAX,
                declared: u64::from(name_len),
                limit: u64::from(MAX_NAME_BYTES),
            });
        }
        let mut name_bytes = vec![0u8; name_len as usize];
        read_exact_or_truncated(r, &mut name_bytes, "header name")?;
        let name = String::from_utf8(name_bytes).map_err(|_| TraceError::Malformed {
            what: "header name (not UTF-8)",
        })?;
        Ok(Self {
            version,
            footprint_bytes: le64(&fixed[16..24]),
            total_ops: le64(&fixed[24..32]),
            total_accesses: le64(&fixed[32..40]),
            chunk_count: le64(&fixed[40..48]),
            name,
        })
    }
}

/// Totals of a completed write or a full verification scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSummary {
    /// Operations in the trace.
    pub ops: u64,
    /// Accesses in the trace.
    pub accesses: u64,
    /// Chunk frames in the trace.
    pub chunks: u64,
}

/// Streaming trace writer: buffer one chunk in an [`AccessBatch`], seal
/// its frame with its checksum when full, back-patch the header totals on
/// [`finish`](TraceWriter::finish).
///
/// The writer holds at most one chunk — recording is O(chunk) memory just
/// like replay.
#[derive(Debug)]
pub struct TraceWriter<W: Write + Seek> {
    out: W,
    chunk_ops: usize,
    chunk: AccessBatch,
    header: TraceHeader,
}

impl TraceWriter<BufWriter<File>> {
    /// Creates `path` (truncating any existing file) and writes the
    /// provisional header for a workload called `name` with the given
    /// footprint.
    pub fn create(
        path: impl AsRef<Path>,
        name: &str,
        footprint_bytes: u64,
    ) -> Result<Self, TraceError> {
        Self::new(BufWriter::new(File::create(path)?), name, footprint_bytes)
    }
}

impl<W: Write + Seek> TraceWriter<W> {
    /// Wraps any seekable sink (a file, an in-memory `Cursor`) and writes
    /// the provisional header; totals are back-patched by
    /// [`finish`](TraceWriter::finish).
    pub fn new(mut out: W, name: &str, footprint_bytes: u64) -> Result<Self, TraceError> {
        if name.len() > MAX_NAME_BYTES as usize {
            return Err(TraceError::OverlengthChunk {
                chunk: u64::MAX,
                declared: name.len() as u64,
                limit: u64::from(MAX_NAME_BYTES),
            });
        }
        let header = TraceHeader {
            version: TRACE_VERSION,
            footprint_bytes,
            total_ops: 0,
            total_accesses: 0,
            chunk_count: 0,
            name: name.to_string(),
        };
        out.write_all(&header.to_bytes())?;
        Ok(Self {
            out,
            chunk_ops: DEFAULT_CHUNK_OPS,
            chunk: AccessBatch::new(),
            header,
        })
    }

    /// Overrides the operations-per-chunk target (default
    /// [`DEFAULT_CHUNK_OPS`]). Smaller chunks mean lower replay memory and
    /// more checksums; the decoded stream is identical for any value.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_ops` is zero.
    #[must_use]
    pub fn with_chunk_ops(mut self, chunk_ops: usize) -> Self {
        assert!(chunk_ops > 0, "a chunk must hold at least one op");
        self.chunk_ops = chunk_ops;
        self
    }

    /// Appends one operation with its accesses to the current chunk,
    /// sealing and writing the chunk once it reaches the op target — or
    /// first, if this op would take its payload past
    /// [`MAX_CHUNK_PAYLOAD_BYTES`]. An op too long for any chunk is
    /// refused as [`TraceError::OverlengthChunk`] and leaves the writer as
    /// it was.
    pub fn push_op(&mut self, op: Op, accesses: &[Access]) -> Result<(), TraceError> {
        self.append(accesses.len(), |chunk| {
            let start = chunk.open_op();
            accesses.iter().for_each(|&a| chunk.push_access(a));
            chunk.commit_open_op(op, start);
        })
    }

    /// [`push_op`](Self::push_op) for operation `idx` of `batch`, its
    /// accesses copied straight from the batch's columns.
    pub fn push_batch_op(&mut self, batch: &AccessBatch, idx: usize) -> Result<(), TraceError> {
        let (op, start, end) = batch.op_bounds(idx);
        let (addrs, writes) = (&batch.addrs()[start..end], &batch.writes()[start..end]);
        self.append(end - start, |chunk| {
            chunk.append_ops(addrs, writes, [(op, end - start)])
        })
    }

    /// The body of both push entries: `push` appends one op of `n` accesses.
    fn append(&mut self, n: usize, push: impl FnOnce(&mut AccessBatch)) -> Result<(), TraceError> {
        let op_bytes = OP_BYTES + n as u64 * ACCESS_BYTES;
        if op_bytes > MAX_CHUNK_PAYLOAD_BYTES {
            return Err(TraceError::OverlengthChunk {
                chunk: self.header.chunk_count,
                declared: op_bytes,
                limit: MAX_CHUNK_PAYLOAD_BYTES,
            });
        }
        if self.payload_len() + op_bytes > MAX_CHUNK_PAYLOAD_BYTES {
            self.flush_chunk()?;
        }
        push(&mut self.chunk);
        self.header.total_ops += 1;
        self.header.total_accesses += n as u64;
        if self.chunk.len() >= self.chunk_ops {
            self.flush_chunk()?;
        }
        Ok(())
    }

    /// Payload bytes of the buffered chunk; `push_op` keeps it within
    /// [`MAX_CHUNK_PAYLOAD_BYTES`], so it and both counts fit the
    /// prologue's `u32` fields.
    fn payload_len(&self) -> u64 {
        self.chunk.len() as u64 * OP_BYTES + self.chunk.total_accesses() as u64 * ACCESS_BYTES
    }

    /// Seals and writes the buffered chunk (no-op when empty).
    fn flush_chunk(&mut self) -> Result<(), TraceError> {
        let c = &self.chunk;
        if c.is_empty() {
            return Ok(());
        }
        let ops = c.len();
        let accesses = c.total_accesses();
        let payload_len = self.payload_len();

        let mut prologue = [0u8; PROLOGUE_BYTES];
        prologue[0..4].copy_from_slice(&(ops as u32).to_le_bytes());
        prologue[4..8].copy_from_slice(&(accesses as u32).to_le_bytes());
        prologue[8..12].copy_from_slice(&(payload_len as u32).to_le_bytes());

        let records = (0..ops).map(|i| c.op_bounds(i));
        let mut payload = Vec::with_capacity(payload_len as usize);
        payload.extend(records.clone().map(|(op, ..)| match op.kind {
            OpKind::Read => 0u8,
            OpKind::Write => 1,
            OpKind::Compute => 2,
        }));
        for (op, ..) in records.clone() {
            payload.extend_from_slice(&op.cpu_ns.to_le_bytes());
        }
        for (_, start, end) in records {
            payload.extend_from_slice(&((end - start) as u32).to_le_bytes());
        }
        for &addr in c.addrs() {
            payload.extend_from_slice(&addr.to_le_bytes());
        }
        payload.extend(c.writes().iter().map(|&w| u8::from(w)));
        debug_assert_eq!(payload.len() as u64, payload_len);

        let checksum = chunk_seal(&prologue, &payload);
        self.out.write_all(&prologue)?;
        self.out.write_all(&payload)?;
        self.out.write_all(&checksum.to_le_bytes())?;

        self.header.chunk_count += 1;
        self.chunk.clear();
        Ok(())
    }

    /// Seals any partial chunk, back-patches the header totals, flushes,
    /// and returns the totals plus the underlying sink. A trace that was
    /// not finished has zeroed totals and is rejected by the reader's
    /// count checks.
    pub fn finish(mut self) -> Result<(TraceSummary, W), TraceError> {
        self.flush_chunk()?;
        self.out.seek(SeekFrom::Start(0))?;
        self.out.write_all(&self.header.to_bytes())?;
        self.out.flush()?;
        Ok((
            TraceSummary {
                ops: self.header.total_ops,
                accesses: self.header.total_accesses,
                chunks: self.header.chunk_count,
            },
            self.out,
        ))
    }
}

/// Streaming trace reader: validates the header on construction, then
/// decodes one chunk frame per [`advance`](TraceReader::advance) into a
/// reused [`AccessBatch`] — at no point is more than one chunk resident
/// ([`max_resident_bytes`](TraceReader::max_resident_bytes) meters it).
#[derive(Debug)]
pub struct TraceReader<R: Read> {
    inner: R,
    header: TraceHeader,
    chunk: AccessBatch,
    payload_buf: Vec<u8>,
    chunks_read: u64,
    ops_seen: u64,
    accesses_seen: u64,
    max_resident: usize,
    done: bool,
}

impl TraceReader<BufReader<File>> {
    /// Opens `path` and validates its header.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, TraceError> {
        Self::new(BufReader::new(File::open(path)?))
    }

    /// Streams through every chunk of `path`, checking seals, layout,
    /// vocabularies and totals without converting a column, holding one
    /// frame at a time. The cheap way to reject a damaged file *before*
    /// handing it to a replay that has no error channel.
    pub fn verify_file(path: impl AsRef<Path>) -> Result<TraceSummary, TraceError> {
        Self::open(path)?.verify()
    }
}

impl<R: Read> TraceReader<R> {
    /// Wraps any byte source and validates the header.
    pub fn new(mut inner: R) -> Result<Self, TraceError> {
        let header = TraceHeader::read(&mut inner)?;
        Ok(Self {
            inner,
            header,
            chunk: AccessBatch::new(),
            payload_buf: Vec::new(),
            chunks_read: 0,
            ops_seen: 0,
            accesses_seen: 0,
            max_resident: 0,
            done: false,
        })
    }

    /// The validated header.
    pub fn header(&self) -> &TraceHeader {
        &self.header
    }

    /// The most recently decoded chunk (empty before the first
    /// [`advance`](Self::advance) and after the last).
    pub fn chunk(&self) -> &AccessBatch {
        &self.chunk
    }

    /// High-water mark of resident chunk bytes (raw payload buffer plus
    /// decoded columns): the O(chunk)-not-O(trace) guarantee, measured.
    pub fn max_resident_bytes(&self) -> usize {
        self.max_resident
    }

    /// Decodes the next chunk into [`chunk`](Self::chunk). Returns
    /// `Ok(false)` once every chunk has been read and the header totals
    /// have been cross-checked against the data.
    pub fn advance(&mut self) -> Result<bool, TraceError> {
        let Some((ops, accesses)) = self.next_frame()? else {
            return Ok(false);
        };
        convert_payload(&self.payload_buf, ops, accesses, &mut self.chunk);
        self.max_resident = self
            .max_resident
            .max(self.payload_buf.capacity() + self.chunk.resident_bytes());
        Ok(true)
    }

    /// Streams through every remaining chunk, checking each frame without
    /// converting it, and returns the totals. Memory stays O(chunk).
    pub fn verify(mut self) -> Result<TraceSummary, TraceError> {
        while self.next_frame()?.is_some() {}
        Ok(TraceSummary {
            ops: self.ops_seen,
            accesses: self.accesses_seen,
            chunks: self.chunks_read,
        })
    }

    /// Reads the next frame's payload into `payload_buf` and checks it
    /// ([`check_payload`]), returning its op and access counts. Returns
    /// `Ok(None)` once every chunk has been read and the header totals
    /// have been cross-checked against the data.
    fn next_frame(&mut self) -> Result<Option<(usize, usize)>, TraceError> {
        if self.done {
            return Ok(None);
        }
        if self.chunks_read == self.header.chunk_count {
            self.done = true;
            self.chunk = AccessBatch::new();
            if self.ops_seen != self.header.total_ops {
                return Err(TraceError::CountMismatch {
                    what: "total ops",
                    declared: self.header.total_ops,
                    found: self.ops_seen,
                });
            }
            if self.accesses_seen != self.header.total_accesses {
                return Err(TraceError::CountMismatch {
                    what: "total accesses",
                    declared: self.header.total_accesses,
                    found: self.accesses_seen,
                });
            }
            return Ok(None);
        }
        let idx = self.chunks_read;

        let mut prologue = [0u8; PROLOGUE_BYTES];
        read_exact_or_truncated(&mut self.inner, &mut prologue, "chunk prologue")?;
        let ops = u64::from(le32(&prologue[0..4]));
        let accesses = u64::from(le32(&prologue[4..8]));
        let payload_len = u64::from(le32(&prologue[8..12]));
        let expected = ops * OP_BYTES + accesses * ACCESS_BYTES;
        if expected > MAX_CHUNK_PAYLOAD_BYTES || payload_len != expected {
            return Err(TraceError::OverlengthChunk {
                chunk: idx,
                declared: payload_len,
                limit: expected.min(MAX_CHUNK_PAYLOAD_BYTES),
            });
        }

        self.payload_buf.resize(payload_len as usize, 0);
        read_exact_or_truncated(&mut self.inner, &mut self.payload_buf, "chunk payload")?;
        let mut stored = [0u8; 8];
        read_exact_or_truncated(&mut self.inner, &mut stored, "chunk checksum")?;
        let computed = chunk_seal(&prologue, &self.payload_buf);
        if u64::from_le_bytes(stored) != computed {
            return Err(TraceError::ChecksumMismatch { chunk: idx });
        }
        let (ops, accesses) = (ops as usize, accesses as usize);
        check_payload(&self.payload_buf, ops, accesses)?;

        self.chunks_read += 1;
        self.ops_seen += ops as u64;
        self.accesses_seen += accesses as u64;
        Ok(Some((ops, accesses)))
    }
}

/// Splits a sealed payload of `ops` operations and `accesses` accesses
/// into its five columns: kinds, cpu_ns, acc_len, addrs, writes.
fn columns(payload: &[u8], ops: usize, accesses: usize) -> [&[u8]; 5] {
    let (kinds, rest) = payload.split_at(ops);
    let (cpu_ns, rest) = rest.split_at(ops * 8);
    let (acc_len, rest) = rest.split_at(ops * 4);
    let (addrs, writes) = rest.split_at(accesses * 8);
    [kinds, cpu_ns, acc_len, addrs, writes]
}

fn le32(b: &[u8]) -> u32 {
    u32::from_le_bytes(b.try_into().expect("4-byte slice"))
}

fn le64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b.try_into().expect("8-byte slice"))
}

/// The check half of a frame read: validates a sealed payload's op-kind
/// vocabulary, access-count total and write-flag vocabulary, in that
/// (file) order and one reduction per column, so the first defect in that
/// order is the one reported. A payload that passes converts without a
/// failure path.
fn check_payload(payload: &[u8], ops: usize, accesses: usize) -> Result<(), TraceError> {
    let [kinds, _, acc_len, _, writes] = columns(payload, ops, accesses);
    if kinds.iter().fold(0, |max, &k| max.max(k)) > 2 {
        return Err(TraceError::Malformed { what: "op kind" });
    }
    // Running total in `u64`: a column of `u32` counts cannot wrap it, so
    // the first prefix past `accesses` is the one reported.
    let mut total: u64 = 0;
    for b in acc_len.chunks_exact(4) {
        total += u64::from(le32(b));
        if total > accesses as u64 {
            break;
        }
    }
    if total != accesses as u64 {
        return Err(TraceError::CountMismatch {
            what: "chunk access total",
            declared: accesses as u64,
            found: total,
        });
    }
    if writes.iter().fold(0, |or, &w| or | w) > 1 {
        return Err(TraceError::Malformed { what: "write flag" });
    }
    Ok(())
}

/// The convert half of a frame read: fills `chunk` from a payload that
/// passed [`check_payload`], a whole column at a time.
fn convert_payload(payload: &[u8], ops: usize, accesses: usize, chunk: &mut AccessBatch) {
    let [kinds, cpu_ns, acc_len, addrs, writes] = columns(payload, ops, accesses);
    let records = kinds
        .iter()
        .zip(cpu_ns.chunks_exact(8))
        .zip(acc_len.chunks_exact(4));
    chunk.refill(
        records.map(|((&kind, cpu_ns), len)| {
            let kind = match kind {
                0 => OpKind::Read,
                1 => OpKind::Write,
                _ => OpKind::Compute,
            };
            let op = Op {
                kind,
                cpu_ns: le64(cpu_ns),
            };
            (op, le32(len))
        }),
        addrs.chunks_exact(8).map(le64),
        writes.iter().map(|&w| w != 0),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn write_ops(ops: &[(Op, Vec<Access>)], chunk_ops: usize) -> Vec<u8> {
        let mut w = TraceWriter::new(Cursor::new(Vec::new()), "test", 1 << 20)
            .expect("writer")
            .with_chunk_ops(chunk_ops);
        for (op, accs) in ops {
            w.push_op(*op, accs).expect("push");
        }
        let (_, cursor) = w.finish().expect("finish");
        cursor.into_inner()
    }

    fn read_ops(bytes: &[u8]) -> Vec<(Op, Vec<Access>)> {
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

    fn sample_ops() -> Vec<(Op, Vec<Access>)> {
        vec![
            (
                Op::read(50),
                vec![Access::read(0x1000), Access::read(0x2000)],
            ),
            (Op::write(70), vec![Access::write(0x3000)]),
            (Op::compute(10), vec![]),
            (
                Op::read(90),
                vec![
                    Access::read(0xFFFF_FFFF_FFFF_0000),
                    Access::write(0),
                    Access::read(0x5000),
                ],
            ),
        ]
    }

    #[test]
    fn roundtrip_across_chunk_sizes() {
        let ops = sample_ops();
        for chunk_ops in [1, 2, 3, 4, 100] {
            let bytes = write_ops(&ops, chunk_ops);
            assert_eq!(read_ops(&bytes), ops, "chunk_ops={chunk_ops}");
        }
    }

    /// `push_batch_op` over the ops of one batch writes the bytes `push_op`
    /// writes for the same ops, at every chunk size.
    #[test]
    fn batch_ops_write_the_bytes_push_op_writes() {
        let ops = sample_ops();
        let mut batch = AccessBatch::new();
        for (op, accs) in &ops {
            let start = batch.open_op();
            accs.iter().for_each(|&a| batch.push_access(a));
            batch.commit_open_op(*op, start);
        }
        for chunk_ops in [1, 2, 3, 4, 100] {
            let mut w = TraceWriter::new(Cursor::new(Vec::new()), "test", 1 << 20)
                .expect("writer")
                .with_chunk_ops(chunk_ops);
            for i in 0..batch.len() {
                w.push_batch_op(&batch, i).expect("push");
            }
            let (_, cursor) = w.finish().expect("finish");
            assert_eq!(
                cursor.into_inner(),
                write_ops(&ops, chunk_ops),
                "chunk_ops={chunk_ops}"
            );
        }
    }

    #[test]
    fn header_carries_identity() {
        let mut w =
            TraceWriter::new(Cursor::new(Vec::new()), "cachelib-cdn", 42_000).expect("writer");
        w.push_op(Op::read(1), &[Access::read(0)]).expect("push");
        let (summary, cursor) = w.finish().expect("finish");
        assert_eq!(summary.ops, 1);
        assert_eq!(summary.accesses, 1);
        assert_eq!(summary.chunks, 1);
        let r = TraceReader::new(Cursor::new(cursor.into_inner())).expect("reader");
        assert_eq!(r.header().name, "cachelib-cdn");
        assert_eq!(r.header().footprint_bytes, 42_000);
        assert_eq!(r.header().total_ops, 1);
        assert_eq!(r.header().version, TRACE_VERSION);
    }

    #[test]
    fn empty_trace_roundtrips() {
        let bytes = write_ops(&[], 8);
        assert_eq!(read_ops(&bytes), Vec::new());
        let mut r = TraceReader::new(Cursor::new(bytes)).expect("reader");
        assert_eq!(r.header().chunk_count, 0);
        assert!(!r.advance().expect("advance"));
        assert!(!r.advance().expect("advance twice"));
    }

    #[test]
    fn chunk_boundaries_follow_chunk_ops() {
        let ops: Vec<(Op, Vec<Access>)> = (0..10)
            .map(|i| (Op::read(i), vec![Access::read(i)]))
            .collect();
        let bytes = write_ops(&ops, 4);
        let r = TraceReader::new(Cursor::new(bytes)).expect("reader");
        assert_eq!(r.header().chunk_count, 3, "10 ops at 4/chunk = 4+4+2");
    }

    #[test]
    fn resident_bytes_stay_per_chunk() {
        let ops: Vec<(Op, Vec<Access>)> = (0..4096u64)
            .map(|i| (Op::read(10), vec![Access::read(i * 64)]))
            .collect();
        let bytes = write_ops(&ops, 64);
        let total = bytes.len();
        let mut r = TraceReader::new(Cursor::new(bytes)).expect("reader");
        while r.advance().expect("advance") {}
        let resident = r.max_resident_bytes();
        assert!(resident > 0);
        assert!(
            resident < total / 8,
            "resident {resident} B vs file {total} B — reader is holding more than one chunk"
        );
    }

    #[test]
    fn verify_reports_totals() {
        let ops = sample_ops();
        let bytes = write_ops(&ops, 2);
        let summary = TraceReader::new(Cursor::new(bytes))
            .expect("reader")
            .verify()
            .expect("verify");
        assert_eq!(summary.ops, 4);
        assert_eq!(summary.accesses, 6);
        assert_eq!(summary.chunks, 2);
    }

    #[test]
    fn overlong_name_is_rejected() {
        let long = "x".repeat(MAX_NAME_BYTES as usize + 1);
        let err = TraceWriter::new(Cursor::new(Vec::new()), &long, 0).unwrap_err();
        assert!(matches!(
            err,
            TraceError::OverlengthChunk {
                chunk: u64::MAX,
                ..
            }
        ));
    }

    /// The five columns the per-element oracle decodes into.
    #[derive(Default)]
    struct Columns {
        kinds: Vec<OpKind>,
        cpu_ns: Vec<u64>,
        acc_start: Vec<u32>,
        addrs: Vec<u64>,
        writes: Vec<bool>,
    }

    /// The reader's `decode_payload` body as it stood before the
    /// whole-column rewrite, verbatim (one `match` + `push` per element):
    /// the oracle the bulk check and convert are compared against.
    fn decode_per_element(
        buf: &[u8],
        c: &mut Columns,
        ops: usize,
        accesses: usize,
    ) -> Result<(), TraceError> {
        c.kinds.clear();
        c.cpu_ns.clear();
        c.acc_start.clear();
        c.addrs.clear();
        c.writes.clear();

        let (kind_bytes, rest) = buf.split_at(ops);
        let (cpu_bytes, rest) = rest.split_at(ops * 8);
        let (len_bytes, rest) = rest.split_at(ops * 4);
        let (addr_bytes, write_bytes) = rest.split_at(accesses * 8);

        for &k in kind_bytes {
            c.kinds.push(match k {
                0 => OpKind::Read,
                1 => OpKind::Write,
                2 => OpKind::Compute,
                _ => return Err(TraceError::Malformed { what: "op kind" }),
            });
        }
        c.cpu_ns.extend(
            cpu_bytes
                .chunks_exact(8)
                .map(|b| u64::from_le_bytes(b.try_into().expect("8-byte chunk"))),
        );
        let mut cursor: u64 = 0;
        c.acc_start.push(0);
        for b in len_bytes.chunks_exact(4) {
            cursor += u64::from(u32::from_le_bytes(b.try_into().expect("4-byte chunk")));
            if cursor > accesses as u64 {
                return Err(TraceError::CountMismatch {
                    what: "chunk access total",
                    declared: accesses as u64,
                    found: cursor,
                });
            }
            c.acc_start.push(cursor as u32);
        }
        if cursor != accesses as u64 {
            return Err(TraceError::CountMismatch {
                what: "chunk access total",
                declared: accesses as u64,
                found: cursor,
            });
        }
        c.addrs.extend(
            addr_bytes
                .chunks_exact(8)
                .map(|b| u64::from_le_bytes(b.try_into().expect("8-byte chunk"))),
        );
        for &w in write_bytes {
            c.writes.push(match w {
                0 => false,
                1 => true,
                _ => return Err(TraceError::Malformed { what: "write flag" }),
            });
        }
        Ok(())
    }

    /// Decodes `payload` both ways — per element, and check then convert
    /// into the reused `chunk` — and requires the same outcome: the chunk
    /// batch's `op_bounds`, `addrs` and `writes` equal to the oracle's five
    /// columns on `Ok`, the same error (variant and fields) on `Err`.
    /// Returns the shared outcome's error, rendered, for the caller to pin.
    fn decode_both_ways(
        chunk: &mut AccessBatch,
        payload: &[u8],
        ops: usize,
        accesses: usize,
    ) -> Option<String> {
        let mut oracle = Columns::default();
        let expected = decode_per_element(payload, &mut oracle, ops, accesses);
        let got = check_payload(payload, ops, accesses)
            .map(|()| convert_payload(payload, ops, accesses, chunk));
        match (&expected, &got) {
            (Ok(()), Ok(())) => {
                assert_eq!(chunk.len(), ops);
                for i in 0..ops {
                    let op = Op {
                        kind: oracle.kinds[i],
                        cpu_ns: oracle.cpu_ns[i],
                    };
                    let (s, e) = (oracle.acc_start[i], oracle.acc_start[i + 1]);
                    assert_eq!(chunk.op_bounds(i), (op, s as usize, e as usize), "op {i}");
                }
                assert_eq!(chunk.addrs(), oracle.addrs);
                assert_eq!(chunk.writes(), oracle.writes);
                None
            }
            (Err(e), Err(g)) => {
                assert_eq!(format!("{g:?}"), format!("{e:?}"));
                Some(format!("{e:?}"))
            }
            _ => panic!("bulk decode gave {got:?}, per-element decode {expected:?}"),
        }
    }

    /// Bulk decode ≡ per-element decode on seeded random payloads, clean
    /// and with **every** out-of-vocabulary byte value planted at **every**
    /// position of the kind and write-flag columns, alone and together with
    /// a second defect in another column. Precedence is file order: a bad
    /// kind is reported before a drifted access count, and either before a
    /// bad write flag — wherever in their columns they sit.
    #[test]
    fn bulk_decode_equals_per_element_decode() {
        let mut state = 0x7AC3_C0DEu64;
        let mut rand = move |below: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % below
        };
        let mut chunk = AccessBatch::new();
        let mut planted = 0u64;
        for round in 0..16 {
            let ops = [0, 1, 2, 5, 31, 32, 33, 40][round % 8];
            let lens: Vec<u32> = (0..ops).map(|_| rand(6) as u32).collect();
            let accesses = lens.iter().sum::<u32>() as usize;
            let mut payload = Vec::new();
            payload.extend((0..ops).map(|_| rand(3) as u8));
            for _ in 0..ops {
                payload.extend_from_slice(&(rand(1 << 32) << 31 | rand(1 << 31)).to_le_bytes());
            }
            for &l in &lens {
                payload.extend_from_slice(&l.to_le_bytes());
            }
            for _ in 0..accesses {
                payload.extend_from_slice(&(rand(1 << 32) << 32 | rand(1 << 32)).to_le_bytes());
            }
            let writes_at = payload.len();
            payload.extend((0..accesses).map(|_| rand(2) as u8));
            assert_eq!(
                decode_both_ways(&mut chunk, &payload, ops, accesses),
                None,
                "round {round}: a clean payload decodes"
            );

            let kind_err = Some(format!("{:?}", TraceError::Malformed { what: "op kind" }));
            let flag_err = Some(format!(
                "{:?}",
                TraceError::Malformed { what: "write flag" }
            ));
            let columns = [
                (0..ops, 3, &kind_err),
                (writes_at..payload.len(), 2, &flag_err),
            ];
            for (column, first_bad, err) in columns {
                for at in column {
                    let sound = payload[at];
                    for bad in first_bad..=u8::MAX {
                        payload[at] = bad;
                        assert_eq!(&decode_both_ways(&mut chunk, &payload, ops, accesses), err);
                        planted += 1;
                    }
                    payload[at] = sound;
                }
            }
            if ops == 0 {
                continue;
            }
            // Two defects at once: the earlier column wins.
            let len_at = ops * 9 + 4 * rand(ops as u64) as usize;
            let mut drifted = payload.clone();
            drifted[len_at] = drifted[len_at].wrapping_add(1 + rand(200) as u8);
            let count_err = decode_both_ways(&mut chunk, &drifted, ops, accesses)
                .expect("a drifted access count is rejected");
            assert!(count_err.starts_with("CountMismatch"), "{count_err}");
            let mut p = drifted.clone();
            p[ops - 1] = 3;
            assert_eq!(decode_both_ways(&mut chunk, &p, ops, accesses), kind_err);
            if accesses > 0 {
                let mut p = drifted.clone();
                p[writes_at] = 2;
                assert_eq!(
                    decode_both_ways(&mut chunk, &p, ops, accesses),
                    Some(count_err)
                );
                let mut p = payload.clone();
                p[ops - 1] = 255;
                p[writes_at] = 255;
                assert_eq!(decode_both_ways(&mut chunk, &p, ops, accesses), kind_err);
            }
        }
        assert!(
            planted > 150_000,
            "only {planted} planted bytes were compared"
        );
    }

    /// Seal multiplies made on this thread while `work` runs.
    fn seal_multiplies_during(work: impl FnOnce()) -> u64 {
        let before = SEAL_MULTIPLIES.with(std::cell::Cell::get);
        work();
        SEAL_MULTIPLIES.with(std::cell::Cell::get) - before
    }

    /// The work meter behind the format bump: sealing a chunk costs 16
    /// multiplies for the prologue, 4 per whole 32-byte block, 3 to fold the
    /// lanes and one per tail byte — exact on any host, against one per
    /// byte (`16 + payload`) for the version-1 seal.
    #[test]
    fn seal_multiplies_per_chunk_are_pinned() {
        let prologue = [0x5Au8; PROLOGUE_BYTES];
        let payload: Vec<u8> = (0..4096u32).map(|i| (i * 37 + 11) as u8).collect();
        for len in (0..=97).chain([1023, 1024, 4095, 4096]) {
            assert_eq!(
                seal_multiplies_during(|| _ = chunk_seal(&prologue, &payload[..len])),
                (16 + 4 * (len / 32) + 3 + len % 32) as u64,
                "payload of {len} bytes"
            );
        }

        // The same meter through the writer and the reader: one chunk of
        // 4 ops and 6 accesses is 13·4 + 9·6 = 106 payload bytes, sealed
        // once when written and once per verification pass.
        let per_seal = 16 + 4 * 3 + 3 + 10;
        let mut bytes = Vec::new();
        assert_eq!(
            seal_multiplies_during(|| bytes = write_ops(&sample_ops(), 100)),
            per_seal
        );
        assert_eq!(
            seal_multiplies_during(|| assert_eq!(read_ops(&bytes), sample_ops())),
            per_seal
        );
    }

    /// Exhaustive single-bit matrix on the seal itself: for every payload
    /// length 0–97 (every tail length, zero to three whole blocks, both
    /// sides of each 32-byte edge), flipping any one bit of the prologue or
    /// the payload changes the seal, and no two prefixes of one payload
    /// share a seal.
    #[test]
    fn every_single_bit_changes_the_seal() {
        let mut prologue = [0u8; PROLOGUE_BYTES];
        for (i, b) in prologue.iter_mut().enumerate() {
            *b = (i * 29 + 3) as u8;
        }
        let mut payload: Vec<u8> = (0..98u32).map(|i| (i * 101 + 7) as u8).collect();
        let mut seals = Vec::new();
        for len in 0..=97 {
            let sealed = chunk_seal(&prologue, &payload[..len]);
            for bit in 0..PROLOGUE_BYTES * 8 {
                prologue[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(chunk_seal(&prologue, &payload[..len]), sealed);
                prologue[bit / 8] ^= 1 << (bit % 8);
            }
            for bit in 0..len * 8 {
                payload[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(
                    chunk_seal(&prologue, &payload[..len]),
                    sealed,
                    "payload of {len} bytes, bit {bit}"
                );
                payload[bit / 8] ^= 1 << (bit % 8);
            }
            seals.push(sealed);
        }
        seals.sort_unstable();
        seals.dedup();
        assert_eq!(seals.len(), 98, "two prefixes of one payload share a seal");
    }
}
