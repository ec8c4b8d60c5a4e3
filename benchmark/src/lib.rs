//! The HybridTier simulator's benchmark: six named workloads, host
//! nanoseconds per simulated access end to end, and a per-crate cost ledger
//! measured from outside the product. `README.md` beside this package
//! explains the workloads, metrics, and protocol; `BENCHMARK.json` at the
//! repository root is the machine-readable contract.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cli;
pub mod compare;
pub mod env;
pub mod error;
pub mod ledger;
pub mod probes;
pub mod refclock;
pub mod run;
pub mod spec;
pub mod stats;
pub mod traced;
pub mod workloads;
