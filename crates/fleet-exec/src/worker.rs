//! Where a shard runs: the [`ShardWorker`] trait and its two shipped
//! implementations — in-process [`LocalWorker`] and subprocess
//! [`ProcessWorker`].

use std::fmt;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tiering_runner::{Scenario, ScenarioError, ShardReport, ShardSpec, ShardedSweep, SweepRunner};

/// Why a worker failed to produce a shard artifact.
///
/// Failures here are *returned by the worker itself* — the coordinator
/// additionally detects workers that stop responding altogether (channel
/// disconnect / response timeout) and maps those to
/// [`FleetEventKind::WorkerLost`](crate::FleetEventKind::WorkerLost) /
/// [`FleetEventKind::TimedOut`](crate::FleetEventKind::TimedOut).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkerFailure {
    /// The worker's subprocess could not be started at all. The
    /// coordinator treats this as fatal for the worker (its program is
    /// unusable), reassigning the shard to survivors.
    Spawn(String),
    /// The attempt ran but failed (non-zero exit, unreadable output, …).
    /// The worker stays in rotation; the shard is retried.
    Crashed(String),
    /// The worker enforced its own deadline ([`ProcessWorker::kill_after`])
    /// and killed the attempt. The worker stays in rotation; the shard is
    /// retried.
    TimedOut,
}

impl fmt::Display for WorkerFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkerFailure::Spawn(e) => write!(f, "spawn failed: {e}"),
            WorkerFailure::Crashed(e) => write!(f, "attempt crashed: {e}"),
            WorkerFailure::TimedOut => write!(f, "attempt exceeded the worker deadline"),
        }
    }
}

impl std::error::Error for WorkerFailure {}

/// What a worker hands back for one shard.
///
/// The coordinator is generic over the artifact so both execution planes
/// share one scheduler: [`LocalWorker`] returns a typed
/// [`ShardReport`] (merged via `SweepReport::merge`), [`ProcessWorker`]
/// returns raw shard BENCH json text (merged via `bench --merge`).
///
/// The two mangling hooks exist for the fault-injection harness
/// ([`FaultPlan`](crate::FaultPlan)): they must damage the artifact in a
/// way the plane's validator *detects*, so the corrupt-result recovery
/// path (reject → retry/reassign) is exercised end to end.
pub trait ShardArtifact: Send + Sized + 'static {
    /// Returns a structurally damaged copy (a `Corrupt` fault fired).
    fn corrupt(self) -> Self;
    /// Returns a partially-written copy (a `Truncate` fault fired).
    fn truncate(self) -> Self;
}

impl ShardArtifact for ShardReport {
    /// Claims a different matrix length — every validator that checks the
    /// result count against `spec.count_of(matrix_len)` catches it, even
    /// for shards that own zero scenarios.
    fn corrupt(mut self) -> Self {
        self.matrix_len += self.spec.total();
        self
    }

    /// Drops the tail half of the results (rounding the survivor count
    /// down, so even a one-result shard loses something).
    fn truncate(mut self) -> Self {
        let keep = self.sweep.results.len() / 2;
        self.sweep.results.truncate(keep);
        self
    }
}

impl ShardArtifact for String {
    /// Flips the leading `{` so the document no longer parses.
    fn corrupt(self) -> Self {
        format!("!corrupt!{self}")
    }

    /// Keeps only the first half of the bytes — an interrupted write.
    fn truncate(mut self) -> Self {
        let mut keep = self.len() / 2;
        while keep > 0 && !self.is_char_boundary(keep) {
            keep -= 1;
        }
        String::truncate(&mut self, keep);
        self
    }
}

/// One executor in the fleet: something that can run a shard of a sweep
/// and hand back an artifact.
///
/// Implementations are moved onto a dedicated coordinator-owned thread, so
/// `run_shard` may block for as long as the work takes — the coordinator
/// enforces its own response timeout from the outside.
pub trait ShardWorker: Send {
    /// What this worker produces per shard.
    type Artifact: ShardArtifact;

    /// A one-shot probe of this worker's relative speed, run once before
    /// any shard is assigned. The returned weight sizes this worker's
    /// share of the shard queue (a weight-2 worker is offered twice the
    /// shards of a weight-1 worker). Defaults to 1 (a homogeneous fleet);
    /// a failed probe also falls back to 1.
    fn calibrate(&mut self) -> Result<u64, WorkerFailure> {
        Ok(1)
    }

    /// Runs one shard. `attempt` is 1-based and distinguishes retries of
    /// the same shard (e.g. for unique scratch-file names).
    fn run_shard(
        &mut self,
        shard: ShardSpec,
        attempt: u32,
    ) -> Result<Self::Artifact, WorkerFailure>;
}

/// An in-process worker: runs its shard slice of a scenario matrix on a
/// serial [`SweepRunner`] (the coordinator's workers are the parallelism),
/// exactly like one host of a `bench --shard` fleet but without the
/// process boundary.
///
/// The matrix is a *factory* (recipes are cheap): every worker builds the
/// same full matrix and executes only its slice, mirroring the multi-host
/// workflow where hosts coordinate on nothing but the matrix definition
/// and their shard index.
#[derive(Clone)]
pub struct LocalWorker {
    matrix: Arc<dyn Fn() -> Vec<Scenario> + Send + Sync>,
    weight: u64,
    probe: bool,
}

impl fmt::Debug for LocalWorker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LocalWorker")
            .field("weight", &self.weight)
            .field("probe", &self.probe)
            .finish_non_exhaustive()
    }
}

impl LocalWorker {
    /// A serial in-process worker over `matrix` with declared weight 1.
    pub fn new(matrix: impl Fn() -> Vec<Scenario> + Send + Sync + 'static) -> Self {
        LocalWorker {
            matrix: Arc::new(matrix),
            weight: 1,
            probe: false,
        }
    }

    /// Declares a relative speed weight for shard sizing (default 1).
    /// Use this to model a known-heterogeneous fleet deterministically;
    /// see [`LocalWorker::with_probe`] for measured weights.
    pub fn with_weight(mut self, weight: u64) -> Self {
        self.weight = weight.max(1);
        self
    }

    /// Makes [`ShardWorker::calibrate`] *measure* instead of declare: the
    /// probe times the matrix's first scenario and scales the declared
    /// weight by observed throughput. Measured weights are host-timing
    /// dependent — leave this off (the default) when the
    /// [`FleetEvent`](crate::FleetEvent) log must be reproducible.
    pub fn with_probe(mut self, probe: bool) -> Self {
        self.probe = probe;
        self
    }
}

impl ShardWorker for LocalWorker {
    type Artifact = ShardReport;

    fn calibrate(&mut self) -> Result<u64, WorkerFailure> {
        if !self.probe {
            return Ok(self.weight);
        }
        let mut matrix = (self.matrix)();
        if matrix.is_empty() {
            return Ok(self.weight);
        }
        let probe = matrix.remove(0);
        let start = Instant::now();
        let result = probe.try_run().map_err(crashed)?;
        let wall = start.elapsed().as_secs_f64().max(1e-9);
        let ops = result.report.ops.max(1);
        // ops per millisecond, scaled by the declared weight and clamped
        // to a sane apportioning range.
        let kops_per_s = (ops as f64 / wall / 1_000.0).round() as u64;
        Ok((self.weight * kops_per_s.clamp(1, 1_000_000)).max(1))
    }

    fn run_shard(&mut self, shard: ShardSpec, _attempt: u32) -> Result<ShardReport, WorkerFailure> {
        ShardedSweep::new(shard, SweepRunner::serial())
            .try_run((self.matrix)())
            .map_err(crashed)
    }
}

/// A scenario that cannot be built (an unreadable trace) fails the
/// attempt, not the worker's thread.
fn crashed(e: ScenarioError) -> WorkerFailure {
    WorkerFailure::Crashed(e.to_string())
}

/// A subprocess worker: spawns one process per shard and reads the shard
/// artifact back from a file — the in-tree shape of "run `bench --shard
/// i/N --json out.json` on another host".
///
/// The argument list is a template: every occurrence of `{index}`,
/// `{total}`, and `{out}` in any argument is substituted per attempt
/// (`{out}` with a unique scratch path under [`ProcessWorker::out_dir`]).
/// When no argument mentions `{out}`, stdout is captured to the scratch
/// file instead — so plain shell commands work as workers in tests.
///
/// ```no_run
/// use fleet_exec::ProcessWorker;
/// let worker = ProcessWorker::new("target/release/bench")
///     .args(["--ops", "20000", "--serial-only",
///            "--shard", "{index}/{total}", "--json", "{out}"])
///     .out_dir(std::env::temp_dir());
/// ```
#[derive(Debug, Clone)]
pub struct ProcessWorker {
    program: PathBuf,
    args: Vec<String>,
    out_dir: PathBuf,
    kill_after: Duration,
    poll: Duration,
    weight: u64,
}

impl ProcessWorker {
    /// A worker that runs `program` once per shard.
    pub fn new(program: impl Into<PathBuf>) -> Self {
        ProcessWorker {
            program: program.into(),
            args: Vec::new(),
            out_dir: std::env::temp_dir(),
            kill_after: Duration::from_secs(600),
            poll: Duration::from_millis(2),
            weight: 1,
        }
    }

    /// Sets the argument template (`{index}` / `{total}` / `{out}`
    /// placeholders are substituted per attempt).
    pub fn args<I, S>(mut self, args: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.args = args.into_iter().map(Into::into).collect();
        self
    }

    /// Directory for per-attempt scratch output files (default: the
    /// system temp dir).
    pub fn out_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.out_dir = dir.into();
        self
    }

    /// Hard per-attempt deadline: a subprocess still running after this
    /// long is killed and the attempt fails with
    /// [`WorkerFailure::TimedOut`]. Defaults to 600 s; tests use short
    /// budgets so an injected hang costs milliseconds, not minutes.
    pub fn kill_after(mut self, deadline: Duration) -> Self {
        self.kill_after = deadline;
        self
    }

    /// Declares a relative speed weight for shard sizing (default 1).
    pub fn with_weight(mut self, weight: u64) -> Self {
        self.weight = weight.max(1);
        self
    }

    fn substitute(&self, shard: ShardSpec, out: &str) -> Vec<String> {
        self.args
            .iter()
            .map(|a| {
                a.replace("{index}", &shard.index().to_string())
                    .replace("{total}", &shard.total().to_string())
                    .replace("{out}", out)
            })
            .collect()
    }
}

impl ShardWorker for ProcessWorker {
    type Artifact = String;

    fn calibrate(&mut self) -> Result<u64, WorkerFailure> {
        Ok(self.weight)
    }

    fn run_shard(&mut self, shard: ShardSpec, attempt: u32) -> Result<String, WorkerFailure> {
        let out = self.out_dir.join(format!(
            "fleet_shard_{}_of_{}_attempt{}_{}.json",
            shard.index(),
            shard.total(),
            attempt,
            std::process::id(),
        ));
        let out_str = out.to_string_lossy().into_owned();
        let uses_out = self.args.iter().any(|a| a.contains("{out}"));
        let mut cmd = Command::new(&self.program);
        cmd.args(self.substitute(shard, &out_str))
            .stdin(Stdio::null())
            .stderr(Stdio::null());
        if uses_out {
            cmd.stdout(Stdio::null());
        } else {
            let file = std::fs::File::create(&out)
                .map_err(|e| WorkerFailure::Spawn(format!("creating {out_str}: {e}")))?;
            cmd.stdout(Stdio::from(file));
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| WorkerFailure::Spawn(format!("{}: {e}", self.program.display())))?;

        let started = Instant::now();
        let status = loop {
            match child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) => {
                    if started.elapsed() >= self.kill_after {
                        let _ = child.kill();
                        let _ = child.wait();
                        let _ = std::fs::remove_file(&out);
                        return Err(WorkerFailure::TimedOut);
                    }
                    std::thread::sleep(self.poll);
                }
                Err(e) => return Err(WorkerFailure::Crashed(format!("wait failed: {e}"))),
            }
        };
        if !status.success() {
            let _ = std::fs::remove_file(&out);
            return Err(WorkerFailure::Crashed(format!("exit status {status}")));
        }
        let text = std::fs::read_to_string(&out)
            .map_err(|e| WorkerFailure::Crashed(format!("reading {out_str}: {e}")))?;
        let _ = std::fs::remove_file(&out);
        Ok(text)
    }
}
