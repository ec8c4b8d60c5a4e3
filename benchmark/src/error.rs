//! The harness's one error type: every I/O, parse, or usage failure ends
//! the process with a message and a non-zero exit, never a panic.

use std::fmt;
use std::path::{Path, PathBuf};

use hybridtier::trace::TraceError;

/// Everything that can stop the harness.
#[derive(Debug)]
pub enum BenchError {
    /// Bad command line.
    Usage(String),
    /// A filesystem operation failed.
    Io {
        /// What the harness was doing.
        what: &'static str,
        /// The file or directory involved.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// A result or spec file is not the JSON the harness expects.
    Parse {
        /// The offending file (or `"BENCHMARK.json"` for the embedded spec).
        path: PathBuf,
        /// What is wrong with it.
        msg: String,
    },
    /// Recording a trace input failed.
    Trace {
        /// The trace file being written.
        path: PathBuf,
        /// The codec's error.
        source: TraceError,
    },
    /// A child process of `all` could not be run or failed.
    Child {
        /// The workload the child was running.
        workload: String,
        /// What happened.
        msg: String,
    },
    /// `compare` was handed result sets that are different experiments.
    Incomparable(String),
}

impl BenchError {
    /// An [`Io`](BenchError::Io) error for `path`.
    pub fn io(what: &'static str, path: &Path, source: std::io::Error) -> Self {
        BenchError::Io {
            what,
            path: path.to_path_buf(),
            source,
        }
    }

    /// A [`Parse`](BenchError::Parse) error for `path`.
    pub fn parse(path: &Path, msg: impl Into<String>) -> Self {
        BenchError::Parse {
            path: path.to_path_buf(),
            msg: msg.into(),
        }
    }
}

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchError::Usage(msg) => write!(f, "usage error: {msg}"),
            BenchError::Io { what, path, source } => {
                write!(f, "cannot {what} {}: {source}", path.display())
            }
            BenchError::Parse { path, msg } => write!(f, "cannot parse {}: {msg}", path.display()),
            BenchError::Trace { path, source } => {
                write!(f, "cannot record trace {}: {source}", path.display())
            }
            BenchError::Child { workload, msg } => write!(f, "workload {workload}: {msg}"),
            BenchError::Incomparable(msg) => write!(f, "cannot compare: {msg}"),
        }
    }
}

impl std::error::Error for BenchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BenchError::Io { source, .. } => Some(source),
            BenchError::Trace { source, .. } => Some(source),
            _ => None,
        }
    }
}
