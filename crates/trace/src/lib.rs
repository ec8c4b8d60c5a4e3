//! Memory-access traces, workload abstraction, and PEBS-like sampling.
//!
//! Tiering systems observe applications through *sampled* memory accesses:
//! Intel PEBS / AMD IBS deliver every Nth access with its virtual address and
//! serving tier (paper §2.3.3, §4.1). This crate defines:
//!
//! * [`Access`] / [`Op`] — the unit of workload execution: an operation (a
//!   cache GET, one vertex relaxation, one stencil point…) comprising a
//!   burst of memory accesses plus fixed compute time.
//! * [`Workload`] — the trait every workload generator implements; the
//!   simulation engine pulls operations from it lazily, so traces are never
//!   materialized.
//! * [`AccessBatch`] — fixed-size operation/access batches; workloads emit
//!   many ops per virtual call through [`Workload::fill_batch`], and the
//!   engine's pipeline stages iterate the flat access slices.
//! * [`Sampler`] — the PEBS model: every Nth access becomes a [`Sample`];
//!   the engine collects each op's samples and the tiering runtime drains
//!   them in one run (paper Algorithm 1). [`Sampler::due_in`]/
//!   [`Sampler::skip`] let batch consumers step over whole unsampled bursts
//!   in one operation.
//! * [`TraceWriter`] / [`TraceReader`] — a versioned, chunked, checksummed
//!   on-disk trace format (`docs/TRACE_FORMAT.md`) whose columnar chunk
//!   frames decode into an [`AccessBatch`], so recorded access streams
//!   bigger than RAM replay a column range at a time
//!   ([`AccessBatch::append_ops`]) with O(chunk) resident memory.
//!
//! # Example
//!
//! ```
//! use tiering_trace::{Access, Sampler};
//!
//! let mut sampler = Sampler::new(4); // every 4th access
//! let sampled: Vec<bool> = (0..8)
//!     .map(|i| sampler.observe(&Access::read(i * 64)).is_some())
//!     .collect();
//! assert_eq!(sampled.iter().filter(|&&s| s).count(), 2);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod access;
mod batch;
mod file;
mod sampler;

pub use access::{Access, Op, OpKind, Workload};
pub use batch::{AccessBatch, OpRecord};
pub use file::{
    TraceError, TraceHeader, TraceReader, TraceSummary, TraceWriter, DEFAULT_CHUNK_OPS,
    MAX_CHUNK_PAYLOAD_BYTES, TRACE_MAGIC, TRACE_VERSION,
};
pub use sampler::{Sample, Sampler};
