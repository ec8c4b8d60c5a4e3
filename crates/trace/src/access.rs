//! Access records, operations, and the workload trait.

use tiering_mem::{PageId, PageSize};

use crate::batch::AccessBatch;

/// One memory reference issued by the application.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Virtual byte address.
    pub addr: u64,
    /// Whether the reference is a store.
    pub is_write: bool,
}

impl Access {
    /// A load of `addr`.
    #[inline]
    pub fn read(addr: u64) -> Self {
        Self {
            addr,
            is_write: false,
        }
    }

    /// A store to `addr`.
    #[inline]
    pub fn write(addr: u64) -> Self {
        Self {
            addr,
            is_write: true,
        }
    }

    /// The page containing this access at the given granularity.
    #[inline]
    pub fn page(&self, size: PageSize) -> PageId {
        PageId::containing(self.addr, size)
    }
}

/// Coarse classification of an operation, used for per-class latency
/// reporting (e.g. CacheLib distinguishes GET latency from SET latency).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OpKind {
    /// A read-mostly request (cache GET, key-value read, …).
    #[default]
    Read,
    /// A write-mostly request (cache SET, insert, …).
    Write,
    /// One unit of batch compute (a vertex relaxation, a stencil point, a
    /// boosting-histogram slice, …).
    Compute,
}

/// Metadata describing the operation whose accesses were just emitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// Operation class.
    pub kind: OpKind,
    /// Fixed CPU time of the operation, excluding its memory accesses.
    pub cpu_ns: u64,
}

impl Op {
    /// A read op with the given compute cost.
    pub fn read(cpu_ns: u64) -> Self {
        Self {
            kind: OpKind::Read,
            cpu_ns,
        }
    }

    /// A write op with the given compute cost.
    pub fn write(cpu_ns: u64) -> Self {
        Self {
            kind: OpKind::Write,
            cpu_ns,
        }
    }

    /// A compute op with the given compute cost.
    pub fn compute(cpu_ns: u64) -> Self {
        Self {
            kind: OpKind::Compute,
            cpu_ns,
        }
    }
}

/// A lazily generated memory-access workload.
///
/// The engine pulls operations with [`fill_batch`](Workload::fill_batch),
/// passing the current simulated time; the workload appends each
/// operation's metadata and accesses to the batch. Passing simulated time
/// into the generator lets time-dependent behaviours — CacheLib's
/// hotness-distribution shift events, TTL expiry — trigger at the right
/// simulated instants regardless of how fast the host runs.
///
/// `fill_batch` is the one generation method; a generator's body is
/// written once, straight into the batch columns.
/// [`next_op`](Workload::next_op) is a one-op wrapper over it for tools
/// and tests.
pub trait Workload {
    /// Appends up to `max_ops` operations to `batch` and returns how many
    /// it appended. The contract:
    ///
    /// * Every op of one call is generated at `now_ns`. The engine asks for
    ///   more than one op only while [`batchable_now`](Workload::batchable_now)
    ///   is `true`, so a clock trigger is never evaluated at a stale time.
    /// * `0` means the workload is exhausted. A call returns fewer than
    ///   `max_ops` only when the next call returns `0`, or when its next op
    ///   depends on the clock (`batchable_now()` has turned `false`) and it
    ///   stopped before that op.
    fn fill_batch(&mut self, now_ns: u64, max_ops: usize, batch: &mut AccessBatch) -> usize;

    /// Total bytes of the address space this workload touches.
    fn footprint_bytes(&self) -> u64;

    /// Human-readable workload name (used in reports).
    fn name(&self) -> &str;

    /// Footprint in pages at the given granularity.
    fn footprint_pages(&self, size: PageSize) -> u64 {
        self.footprint_bytes().div_ceil(size.bytes())
    }

    /// Whether the generator's upcoming output is independent of simulated
    /// time — the engine batch-pulls operations (one virtual call for many
    /// ops) only while this returns `true`, so batching can never perturb
    /// time-triggered behaviour (hotness shifts, TTL expiry).
    ///
    /// The conservative default is `false` (pull one op at a time).
    /// Generators that never consult `now_ns` — or whose remaining time
    /// triggers have all fired — should override this; all twelve suite
    /// workloads do.
    fn batchable_now(&self) -> bool {
        false
    }

    /// Generates one operation at `now_ns`, appending its accesses to
    /// `out`: a one-op [`fill_batch`](Workload::fill_batch). Returns `None`
    /// when the workload is exhausted.
    fn next_op(&mut self, now_ns: u64, out: &mut Vec<Access>) -> Option<Op> {
        let mut batch = AccessBatch::new();
        if self.fill_batch(now_ns, 1, &mut batch) == 0 {
            return None;
        }
        let (op, start, end) = batch.op_bounds(0);
        out.extend((start..end).map(|i| batch.access(i)));
        Some(op)
    }
}

impl<W: Workload + ?Sized> Workload for Box<W> {
    fn fill_batch(&mut self, now_ns: u64, max_ops: usize, batch: &mut AccessBatch) -> usize {
        (**self).fill_batch(now_ns, max_ops, batch)
    }

    fn footprint_bytes(&self) -> u64 {
        (**self).footprint_bytes()
    }

    fn name(&self) -> &str {
        (**self).name()
    }

    fn batchable_now(&self) -> bool {
        (**self).batchable_now()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_constructors() {
        assert!(!Access::read(4).is_write);
        assert!(Access::write(4).is_write);
        assert_eq!(Access::read(0x5000).page(PageSize::Base4K), PageId(5));
    }

    #[test]
    fn footprint_pages_rounds_up() {
        struct W;
        impl Workload for W {
            fn fill_batch(&mut self, _: u64, _: usize, _: &mut AccessBatch) -> usize {
                0
            }
            fn footprint_bytes(&self) -> u64 {
                4097
            }
            fn name(&self) -> &str {
                "w"
            }
        }
        assert_eq!(W.footprint_pages(PageSize::Base4K), 2);
        assert_eq!(W.footprint_pages(PageSize::Huge2M), 1);
    }

    #[test]
    fn boxed_workload_delegates() {
        struct W(u32);
        impl Workload for W {
            fn fill_batch(&mut self, _: u64, max_ops: usize, batch: &mut AccessBatch) -> usize {
                let n = max_ops.min(self.0 as usize);
                self.0 -= n as u32;
                for _ in 0..n {
                    batch.push_single(Op::read(10), Access::read(0));
                }
                n
            }
            fn footprint_bytes(&self) -> u64 {
                4096
            }
            fn name(&self) -> &str {
                "w"
            }
        }
        let mut b: Box<dyn Workload> = Box::new(W(2));
        let mut buf = Vec::new();
        assert!(b.next_op(0, &mut buf).is_some());
        assert!(b.next_op(0, &mut buf).is_some());
        assert!(b.next_op(0, &mut buf).is_none());
        assert_eq!(b.name(), "w");
        assert_eq!(buf.len(), 2);
    }
}
