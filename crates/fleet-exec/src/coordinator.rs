//! The fleet coordinator: deterministic round-based scheduling of shards
//! over workers, with timeout/retry, reassignment, weighted sizing, and a
//! typed event log.

use std::collections::VecDeque;
use std::fmt;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

use tiering_runner::{MergeError, Scenario, ShardReport, ShardSpec, SweepReport};

use crate::fault::{Fault, FaultKind, FaultPlan};
use crate::worker::{LocalWorker, ShardArtifact, ShardWorker, WorkerFailure};

/// Scheduling budgets and retry policy for one coordinator run.
///
/// All durations are *host* time (the only wall-clock in the system);
/// everything they decide is logged with logical timestamps.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// How long the coordinator waits for a worker's response to one
    /// shard before declaring the attempt timed out and requeueing the
    /// shard (the worker is then *lagging*: its late result, if any, is
    /// reaped and discarded at the next round boundary).
    pub shard_timeout: Duration,
    /// Extra grace a lagging worker gets at the round boundary to flush
    /// its late result; a worker silent past this is declared lost.
    pub lag_grace: Duration,
    /// Maximum dispatches per shard (first attempt included). The run
    /// fails with [`FleetError::RetryBudgetExhausted`] — promptly, never
    /// a hang — when a shard would exceed it.
    pub max_attempts: u32,
    /// Backoff slept before re-dispatching attempt `n` (n ≥ 2):
    /// `backoff_base * 2^(n-2)`, capped at [`FleetConfig::backoff_cap`].
    pub backoff_base: Duration,
    /// Upper bound on one backoff sleep.
    pub backoff_cap: Duration,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            shard_timeout: Duration::from_secs(30),
            lag_grace: Duration::from_secs(5),
            max_attempts: 3,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(500),
        }
    }
}

impl FleetConfig {
    /// Short deterministic budgets for tests and CI: injected timeouts
    /// cost tens of milliseconds instead of multi-second sleeps, while
    /// still being far above the runtime of the tiny matrices tests use.
    pub fn snappy() -> Self {
        FleetConfig {
            shard_timeout: Duration::from_millis(250),
            lag_grace: Duration::from_millis(250),
            max_attempts: 3,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(4),
        }
    }

    /// Same budgets with a different retry ceiling.
    pub fn with_max_attempts(mut self, max_attempts: u32) -> Self {
        self.max_attempts = max_attempts.max(1);
        self
    }
}

/// What happened, in one entry of the coordinator's event log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetEventKind {
    /// The worker's calibration probe resolved to this scheduling weight.
    Calibrated {
        /// Relative speed weight used for shard sizing.
        weight: u64,
    },
    /// A shard attempt was dispatched to the worker.
    Assigned {
        /// Shard index.
        shard: usize,
        /// 1-based dispatch count for this shard.
        attempt: u32,
    },
    /// The worker returned a valid artifact for the shard.
    Completed {
        /// Shard index.
        shard: usize,
        /// Attempt that succeeded.
        attempt: u32,
    },
    /// No response within [`FleetConfig::shard_timeout`]; the shard was
    /// requeued and the worker marked lagging.
    TimedOut {
        /// Shard index.
        shard: usize,
        /// Attempt that timed out.
        attempt: u32,
    },
    /// The worker responded but the artifact failed validation (or the
    /// attempt itself failed); the shard was requeued.
    Rejected {
        /// Shard index.
        shard: usize,
        /// Attempt that was rejected.
        attempt: u32,
        /// Why.
        reason: String,
    },
    /// A shard is being dispatched again after a failure (logged just
    /// before the corresponding `Assigned`).
    Retried {
        /// Shard index.
        shard: usize,
        /// The new attempt number.
        attempt: u32,
        /// Backoff slept before this dispatch, in milliseconds.
        backoff_ms: u64,
    },
    /// The retry moved the shard to a different worker than the one that
    /// last ran it.
    Reassigned {
        /// Shard index.
        shard: usize,
        /// Worker index that previously owned the shard.
        from: usize,
    },
    /// The worker was declared dead and removed from rotation.
    WorkerLost {
        /// Why.
        reason: String,
    },
    /// A late/duplicate result arrived for an attempt the coordinator had
    /// already given up on; it was ignored.
    StaleResult {
        /// Shard index.
        shard: usize,
        /// The superseded attempt.
        attempt: u32,
    },
}

impl FleetEventKind {
    /// Stable snake-case tag for machine-readable renderings.
    pub fn name(&self) -> &'static str {
        match self {
            FleetEventKind::Calibrated { .. } => "calibrated",
            FleetEventKind::Assigned { .. } => "assigned",
            FleetEventKind::Completed { .. } => "completed",
            FleetEventKind::TimedOut { .. } => "timed_out",
            FleetEventKind::Rejected { .. } => "rejected",
            FleetEventKind::Retried { .. } => "retried",
            FleetEventKind::Reassigned { .. } => "reassigned",
            FleetEventKind::WorkerLost { .. } => "worker_lost",
            FleetEventKind::StaleResult { .. } => "stale_result",
        }
    }
}

/// One entry of the typed event log.
///
/// `at` is a **logical timestamp** — the event's position in the single
/// coordinator-side sequence — not wall-clock: the log of a run with a
/// fixed worker set, config, and fault plan is reproducible on any host
/// (see the crate-level determinism contract).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetEvent {
    /// Logical timestamp (0-based, gapless).
    pub at: u64,
    /// Index of the worker the event concerns.
    pub worker: usize,
    /// What happened.
    pub kind: FleetEventKind,
}

impl fmt::Display for FleetEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:>3} w{} ", self.at, self.worker)?;
        match &self.kind {
            FleetEventKind::Calibrated { weight } => write!(f, "calibrated weight={weight}"),
            FleetEventKind::Assigned { shard, attempt } => {
                write!(f, "assigned shard={shard} attempt={attempt}")
            }
            FleetEventKind::Completed { shard, attempt } => {
                write!(f, "completed shard={shard} attempt={attempt}")
            }
            FleetEventKind::TimedOut { shard, attempt } => {
                write!(f, "timed-out shard={shard} attempt={attempt}")
            }
            FleetEventKind::Rejected {
                shard,
                attempt,
                reason,
            } => write!(
                f,
                "rejected shard={shard} attempt={attempt} reason={reason}"
            ),
            FleetEventKind::Retried {
                shard,
                attempt,
                backoff_ms,
            } => write!(
                f,
                "retried shard={shard} attempt={attempt} backoff_ms={backoff_ms}"
            ),
            FleetEventKind::Reassigned { shard, from } => {
                write!(f, "reassigned shard={shard} from=w{from}")
            }
            FleetEventKind::WorkerLost { reason } => write!(f, "lost reason={reason}"),
            FleetEventKind::StaleResult { shard, attempt } => {
                write!(f, "stale shard={shard} attempt={attempt}")
            }
        }
    }
}

/// Per-worker outcome summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerStats {
    /// The label the worker was registered under.
    pub label: String,
    /// Calibrated scheduling weight.
    pub weight: u64,
    /// Shards this worker completed (valid artifacts only).
    pub completed: u64,
    /// Whether the worker was declared lost during the run.
    pub lost: bool,
}

/// The coordinator's sealed account of a run: the typed event log plus
/// summary counters, carried alongside the merged results and emitted as
/// the `"fleet_exec"` BENCH json section.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetExecReport {
    /// Per-worker stats, in registration order.
    pub workers: Vec<WorkerStats>,
    /// How many shards the sweep was split into.
    pub shards: usize,
    /// Every scheduling decision, in logical-timestamp order.
    pub events: Vec<FleetEvent>,
    /// Total re-dispatches (`Retried` events).
    pub retries: u64,
    /// Total response timeouts (`TimedOut` events).
    pub timeouts: u64,
    /// Total shard moves between workers (`Reassigned` events).
    pub reassignments: u64,
    /// Workers declared dead (`WorkerLost` events).
    pub workers_lost: u64,
    /// Invalid or failed attempts (`Rejected` events).
    pub rejected: u64,
    /// Late/duplicate results discarded (`StaleResult` events).
    pub stale_results: u64,
}

impl FleetExecReport {
    /// The event log as stable text, one event per line — the golden-test
    /// rendering.
    pub fn event_log(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&e.to_string());
            out.push('\n');
        }
        out
    }
}

/// A completed coordinator run over artifacts of type `A`.
#[derive(Debug)]
pub struct FleetRun<A> {
    /// One artifact per shard, in shard-index order (index-complete).
    pub artifacts: Vec<A>,
    /// The sealed scheduling account.
    pub exec: FleetExecReport,
}

/// A completed in-process sweep: merged results plus the scheduling
/// account. Produced by [`FleetCoordinator::run_sweep`].
#[derive(Debug)]
pub struct FleetSweep {
    /// The merged sweep — identical in every deterministic field to an
    /// unsharded [`SweepRunner`](tiering_runner::SweepRunner) run.
    pub report: SweepReport,
    /// The sealed scheduling account.
    pub exec: FleetExecReport,
}

/// Why a coordinator run failed. Every variant is returned in bounded
/// time — the coordinator never hangs on a dead or silent fleet.
#[derive(Debug)]
pub enum FleetError {
    /// No workers were registered.
    NoWorkers,
    /// A zero shard count was requested.
    NoShards,
    /// Every worker died before the sweep completed.
    AllWorkersLost {
        /// Shards completed before the fleet died.
        completed: usize,
        /// Total shards requested.
        shards: usize,
    },
    /// One shard failed [`FleetConfig::max_attempts`] times.
    RetryBudgetExhausted {
        /// The shard that kept failing.
        shard: usize,
        /// Dispatches consumed.
        attempts: u32,
        /// The most recent failure reason.
        last_error: String,
    },
    /// The artifacts were index-complete but merging them failed (a
    /// validator let a damaged artifact through).
    Merge(MergeError),
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::NoWorkers => write!(f, "fleet has no workers"),
            FleetError::NoShards => write!(f, "cannot run a sweep over zero shards"),
            FleetError::AllWorkersLost { completed, shards } => write!(
                f,
                "all workers lost after {completed}/{shards} shards completed"
            ),
            FleetError::RetryBudgetExhausted {
                shard,
                attempts,
                last_error,
            } => write!(
                f,
                "shard {shard} failed all {attempts} attempts (last error: {last_error})"
            ),
            FleetError::Merge(e) => write!(f, "merging fleet artifacts failed: {e}"),
        }
    }
}

impl std::error::Error for FleetError {}

impl From<MergeError> for FleetError {
    fn from(e: MergeError) -> Self {
        FleetError::Merge(e)
    }
}

/// Validates one artifact against the shard it was supposed to cover.
type Validator<A> = Box<dyn Fn(ShardSpec, &A) -> Result<(), String>>;

// ---------------------------------------------------------------------
// Worker shell: each registered worker is moved onto its own thread and
// spoken to over channels. The shell interprets the fault plan, so kills
// are real thread exits (the coordinator sees a disconnect, exactly like
// a dead host) and corruption damages the real artifact in flight.
// ---------------------------------------------------------------------

struct Cmd {
    spec: ShardSpec,
    attempt: u32,
}

struct Reply<A> {
    shard: usize,
    attempt: u32,
    outcome: Result<A, WorkerFailure>,
    /// The shell announces a `KillAfter` fault in-band (a graceful
    /// shutdown notice), so the coordinator learns of the death
    /// deterministically instead of racing the thread teardown.
    dying: bool,
}

fn shell<W: ShardWorker + 'static>(
    mut worker: W,
    mut faults: Vec<Option<Fault>>,
    cmd_rx: Receiver<Cmd>,
    res_tx: Sender<Reply<W::Artifact>>,
) {
    while let Ok(Cmd { spec, attempt }) = cmd_rx.recv() {
        let fault = faults
            .iter_mut()
            .find(|slot| {
                slot.as_ref()
                    .is_some_and(|f| f.shard.is_none_or(|s| s == spec.index()))
            })
            .and_then(Option::take)
            .map(|f| f.kind);
        if matches!(fault, Some(FaultKind::KillBefore)) {
            return; // channels drop: the coordinator sees a disconnect
        }
        let mut outcome = worker.run_shard(spec, attempt);
        match &fault {
            Some(FaultKind::KillMid) => return, // worked, died, never sent
            Some(FaultKind::Corrupt) => outcome = outcome.map(ShardArtifact::corrupt),
            Some(FaultKind::Truncate) => outcome = outcome.map(ShardArtifact::truncate),
            Some(FaultKind::Delay(d)) => std::thread::sleep(*d),
            _ => {}
        }
        let dying = matches!(fault, Some(FaultKind::KillAfter));
        if res_tx
            .send(Reply {
                shard: spec.index(),
                attempt,
                outcome,
                dying,
            })
            .is_err()
            || dying
        {
            return;
        }
    }
}

// ---------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------

/// Fans a sharded sweep out over registered workers and reassembles an
/// index-complete artifact set, surviving worker loss, hangs, and
/// corrupted results. See the crate docs for the full contract.
pub struct FleetCoordinator<A: ShardArtifact> {
    workers: Vec<(String, Box<dyn ShardWorker<Artifact = A>>)>,
    config: FleetConfig,
    faults: FaultPlan,
    validator: Validator<A>,
}

impl<A: ShardArtifact> fmt::Debug for FleetCoordinator<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FleetCoordinator")
            .field(
                "workers",
                &self.workers.iter().map(|(l, _)| l).collect::<Vec<_>>(),
            )
            .field("config", &self.config)
            .field("faults", &self.faults)
            .finish_non_exhaustive()
    }
}

impl<A: ShardArtifact> FleetCoordinator<A> {
    /// An empty coordinator with the given budgets. Register workers with
    /// [`FleetCoordinator::with_worker`].
    pub fn new(config: FleetConfig) -> Self {
        FleetCoordinator {
            workers: Vec::new(),
            config,
            faults: FaultPlan::none(),
            validator: Box::new(|_, _| Ok(())),
        }
    }

    /// Registers a worker under a label (labels appear in
    /// [`WorkerStats`] and BENCH json; indices in [`FleetEvent`]s follow
    /// registration order).
    pub fn with_worker(
        mut self,
        label: impl Into<String>,
        worker: impl ShardWorker<Artifact = A> + 'static,
    ) -> Self {
        self.workers.push((label.into(), Box::new(worker)));
        self
    }

    /// Arms a fault plan for this run (chaos testing).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Installs the artifact validator: a returned `Err(reason)` rejects
    /// the attempt (logged, requeued) exactly like a worker failure. The
    /// default accepts everything; both shipped planes install real
    /// validators ([`sweep_coordinator`] for `ShardReport`s, the bench
    /// crate's shard-json checker for subprocess output).
    pub fn with_validator(
        mut self,
        validator: impl Fn(ShardSpec, &A) -> Result<(), String> + 'static,
    ) -> Self {
        self.validator = Box::new(validator);
        self
    }

    /// Runs the fleet over `shards` shards and returns the
    /// index-complete artifact set plus the sealed scheduling account.
    pub fn run(self, shards: usize) -> Result<FleetRun<A>, FleetError> {
        let FleetCoordinator {
            workers,
            config,
            faults,
            validator,
        } = self;
        if workers.is_empty() {
            return Err(FleetError::NoWorkers);
        }
        if shards == 0 {
            return Err(FleetError::NoShards);
        }
        let n = workers.len();
        let mut fault_queues: Vec<Vec<Option<Fault>>> = faults
            .per_worker(n)
            .into_iter()
            .map(|fs| fs.into_iter().map(Some).collect())
            .collect();

        let mut events: Vec<FleetEvent> = Vec::new();
        let mut report = FleetExecReport {
            workers: Vec::with_capacity(n),
            shards,
            events: Vec::new(),
            retries: 0,
            timeouts: 0,
            reassignments: 0,
            workers_lost: 0,
            rejected: 0,
            stale_results: 0,
        };
        let log = |report: &mut FleetExecReport,
                   events: &mut Vec<FleetEvent>,
                   worker: usize,
                   kind: FleetEventKind| {
            match kind {
                FleetEventKind::Retried { .. } => report.retries += 1,
                FleetEventKind::TimedOut { .. } => report.timeouts += 1,
                FleetEventKind::Reassigned { .. } => report.reassignments += 1,
                FleetEventKind::WorkerLost { .. } => {
                    report.workers_lost += 1;
                    report.workers[worker].lost = true;
                }
                FleetEventKind::Rejected { .. } => report.rejected += 1,
                FleetEventKind::StaleResult { .. } => report.stale_results += 1,
                FleetEventKind::Completed { .. } => report.workers[worker].completed += 1,
                _ => {}
            }
            events.push(FleetEvent {
                at: events.len() as u64,
                worker,
                kind,
            });
        };

        // Calibrate (before the workers move onto their threads), then
        // spawn one shell per worker.
        struct WState<A> {
            cmd: Sender<Cmd>,
            res: Receiver<Reply<A>>,
            alive: bool,
            lagging: bool,
            busy: Option<(usize, u32)>,
            dispatched: u64,
            weight: u64,
        }
        let mut state: Vec<WState<A>> = Vec::with_capacity(n);
        for (i, (label, mut worker)) in workers.into_iter().enumerate() {
            let weight = worker.calibrate().unwrap_or(1).max(1);
            report.workers.push(WorkerStats {
                label,
                weight,
                completed: 0,
                lost: false,
            });
            log(
                &mut report,
                &mut events,
                i,
                FleetEventKind::Calibrated { weight },
            );
            let (cmd_tx, cmd_rx) = mpsc::channel::<Cmd>();
            let (res_tx, res_rx) = mpsc::channel::<Reply<A>>();
            let worker_faults = std::mem::take(&mut fault_queues[i]);
            std::thread::Builder::new()
                .name(format!("fleet-worker-{i}"))
                .spawn(move || shell_boxed(worker, worker_faults, cmd_rx, res_tx))
                .expect("spawning a worker shell thread");
            state.push(WState {
                cmd: cmd_tx,
                res: res_rx,
                alive: true,
                lagging: false,
                busy: None,
                dispatched: 0,
                weight,
            });
        }

        // Weighted shard sizing: apportion the shard budget over workers
        // by calibrated weight (largest-remainder method, ties to the
        // lower index), so a weight-2 worker is offered twice the shards
        // of a weight-1 peer. Quotas are a *sizing* preference, not a
        // cap: once every live worker's quota is spent (retries, lost
        // workers), assignment falls back to work conservation.
        let total_weight: u128 = state.iter().map(|w| w.weight as u128).sum();
        let mut quota: Vec<u64> = state
            .iter()
            .map(|w| ((shards as u128 * w.weight as u128) / total_weight) as u64)
            .collect();
        let mut leftover = shards as u64 - quota.iter().sum::<u64>();
        let mut by_remainder: Vec<usize> = (0..n).collect();
        by_remainder.sort_by_key(|&w| {
            let rem = (shards as u128 * state[w].weight as u128) % total_weight;
            (std::cmp::Reverse(rem), w)
        });
        for &w in &by_remainder {
            if leftover == 0 {
                break;
            }
            quota[w] += 1;
            leftover -= 1;
        }

        // Shard bookkeeping.
        let mut pending: VecDeque<usize> = (0..shards).collect();
        let mut attempts: Vec<u32> = vec![0; shards];
        let mut last_owner: Vec<Option<usize>> = vec![None; shards];
        let mut last_error: Vec<String> = vec![String::new(); shards];
        let mut done: Vec<Option<A>> = (0..shards).map(|_| None).collect();
        let mut completed = 0usize;

        // Requeues a failed shard or reports the budget exhausted.
        let requeue = |pending: &mut VecDeque<usize>,
                       attempts: &[u32],
                       last_error: &[String],
                       shard: usize,
                       max_attempts: u32|
         -> Result<(), FleetError> {
            if attempts[shard] >= max_attempts {
                return Err(FleetError::RetryBudgetExhausted {
                    shard,
                    attempts: attempts[shard],
                    last_error: last_error[shard].clone(),
                });
            }
            pending.push_back(shard);
            Ok(())
        };

        while completed < shards {
            if !state.iter().any(|w| w.alive) {
                return Err(FleetError::AllWorkersLost { completed, shards });
            }

            // Phase 1 — reap lagging workers at the round boundary: their
            // late result (a duplicate of a shard attempt we already gave
            // up on) is discarded here, at a fixed deterministic point.
            for (w, ws) in state.iter_mut().enumerate() {
                if !(ws.alive && ws.lagging) {
                    continue;
                }
                match ws.res.recv_timeout(config.lag_grace) {
                    Ok(reply) => {
                        ws.lagging = false;
                        log(
                            &mut report,
                            &mut events,
                            w,
                            FleetEventKind::StaleResult {
                                shard: reply.shard,
                                attempt: reply.attempt,
                            },
                        );
                        if reply.dying {
                            ws.alive = false;
                            log(
                                &mut report,
                                &mut events,
                                w,
                                FleetEventKind::WorkerLost {
                                    reason: "worker shut down after responding".into(),
                                },
                            );
                        }
                    }
                    Err(RecvTimeoutError::Timeout) => {
                        ws.alive = false;
                        ws.lagging = false;
                        log(
                            &mut report,
                            &mut events,
                            w,
                            FleetEventKind::WorkerLost {
                                reason: "no response within the lag grace period".into(),
                            },
                        );
                    }
                    Err(RecvTimeoutError::Disconnected) => {
                        ws.alive = false;
                        ws.lagging = false;
                        log(
                            &mut report,
                            &mut events,
                            w,
                            FleetEventKind::WorkerLost {
                                reason: "worker channel disconnected".into(),
                            },
                        );
                    }
                }
            }

            // Phase 2 — assign pending shards to idle survivors. A worker
            // with remaining quota and the smallest dispatched/weight
            // deficit (ties to the lower index) is preferred; when no
            // live worker has quota left (retries, reassignment after a
            // loss), any idle survivor takes the shard instead — quotas
            // size the happy path, work conservation handles recovery.
            while !pending.is_empty() {
                let min_deficit_idle = |state: &[WState<A>], need_quota: bool| -> Option<usize> {
                    let mut pick: Option<usize> = None;
                    for (w, s) in state.iter().enumerate() {
                        if !s.alive || s.lagging || s.busy.is_some() {
                            continue;
                        }
                        if need_quota && s.dispatched >= quota[w] {
                            continue;
                        }
                        let better = match pick {
                            None => true,
                            Some(p) => {
                                (s.dispatched as u128) * (state[p].weight as u128)
                                    < (state[p].dispatched as u128) * (s.weight as u128)
                            }
                        };
                        if better {
                            pick = Some(w);
                        }
                    }
                    pick
                };
                let pick = match min_deficit_idle(&state, true) {
                    Some(w) => Some(w),
                    None => {
                        // No idle worker has quota left. If a busy or
                        // lagging survivor still has quota, hold the
                        // shard for it rather than overfill another
                        // worker; otherwise every live quota is spent —
                        // work-conserve.
                        let quota_pending_elsewhere = state
                            .iter()
                            .enumerate()
                            .any(|(w, s)| s.alive && s.dispatched < quota[w]);
                        if quota_pending_elsewhere {
                            None
                        } else {
                            min_deficit_idle(&state, false)
                        }
                    }
                };
                let Some(w) = pick else { break };
                let shard = pending.pop_front().expect("checked non-empty");
                let attempt = attempts[shard] + 1;
                if attempt > 1 {
                    let shift = (attempt - 2).min(16);
                    let backoff = config
                        .backoff_base
                        .saturating_mul(1u32 << shift)
                        .min(config.backoff_cap);
                    std::thread::sleep(backoff);
                    log(
                        &mut report,
                        &mut events,
                        w,
                        FleetEventKind::Retried {
                            shard,
                            attempt,
                            backoff_ms: backoff.as_millis() as u64,
                        },
                    );
                    if let Some(prev) = last_owner[shard] {
                        if prev != w {
                            log(
                                &mut report,
                                &mut events,
                                w,
                                FleetEventKind::Reassigned { shard, from: prev },
                            );
                        }
                    }
                }
                let spec = ShardSpec::new(shard, shards).expect("shard < shards");
                if state[w].cmd.send(Cmd { spec, attempt }).is_err() {
                    // The shell already exited (e.g. a KillAfter fault on
                    // the previous shard): the worker is gone.
                    state[w].alive = false;
                    log(
                        &mut report,
                        &mut events,
                        w,
                        FleetEventKind::WorkerLost {
                            reason: "worker channel disconnected".into(),
                        },
                    );
                    pending.push_front(shard);
                    if !state.iter().any(|s| s.alive) {
                        return Err(FleetError::AllWorkersLost { completed, shards });
                    }
                    continue;
                }
                attempts[shard] = attempt;
                last_owner[shard] = Some(w);
                state[w].busy = Some((shard, attempt));
                state[w].dispatched += 1;
                log(
                    &mut report,
                    &mut events,
                    w,
                    FleetEventKind::Assigned { shard, attempt },
                );
            }

            // Phase 3 — collect, in worker order. Responses queue in each
            // worker's channel, so slow-first ordering costs nothing.
            for (w, ws) in state.iter_mut().enumerate() {
                let Some((shard, attempt)) = ws.busy else {
                    continue;
                };
                if !ws.alive {
                    continue;
                }
                let deadline = Instant::now() + config.shard_timeout;
                loop {
                    let remaining = deadline.saturating_duration_since(Instant::now());
                    match ws.res.recv_timeout(remaining) {
                        Ok(reply) if reply.shard == shard && reply.attempt == attempt => {
                            ws.busy = None;
                            let dying = reply.dying;
                            match reply.outcome {
                                Ok(artifact) => {
                                    let spec =
                                        ShardSpec::new(shard, shards).expect("shard < shards");
                                    match (validator)(spec, &artifact) {
                                        Ok(()) => {
                                            done[shard] = Some(artifact);
                                            completed += 1;
                                            log(
                                                &mut report,
                                                &mut events,
                                                w,
                                                FleetEventKind::Completed { shard, attempt },
                                            );
                                        }
                                        Err(reason) => {
                                            last_error[shard] =
                                                format!("invalid artifact: {reason}");
                                            log(
                                                &mut report,
                                                &mut events,
                                                w,
                                                FleetEventKind::Rejected {
                                                    shard,
                                                    attempt,
                                                    reason,
                                                },
                                            );
                                            requeue(
                                                &mut pending,
                                                &attempts,
                                                &last_error,
                                                shard,
                                                config.max_attempts,
                                            )?;
                                        }
                                    }
                                }
                                Err(WorkerFailure::Spawn(e)) => {
                                    last_error[shard] = format!("spawn failed: {e}");
                                    ws.alive = false;
                                    log(
                                        &mut report,
                                        &mut events,
                                        w,
                                        FleetEventKind::WorkerLost {
                                            reason: format!("cannot spawn attempts: {e}"),
                                        },
                                    );
                                    requeue(
                                        &mut pending,
                                        &attempts,
                                        &last_error,
                                        shard,
                                        config.max_attempts,
                                    )?;
                                }
                                Err(failure) => {
                                    let reason = failure.to_string();
                                    last_error[shard] = reason.clone();
                                    log(
                                        &mut report,
                                        &mut events,
                                        w,
                                        FleetEventKind::Rejected {
                                            shard,
                                            attempt,
                                            reason,
                                        },
                                    );
                                    requeue(
                                        &mut pending,
                                        &attempts,
                                        &last_error,
                                        shard,
                                        config.max_attempts,
                                    )?;
                                }
                            }
                            if dying && ws.alive {
                                ws.alive = false;
                                log(
                                    &mut report,
                                    &mut events,
                                    w,
                                    FleetEventKind::WorkerLost {
                                        reason: "worker shut down after responding".into(),
                                    },
                                );
                            }
                            break;
                        }
                        Ok(stale) => {
                            // A leftover result from a superseded attempt.
                            log(
                                &mut report,
                                &mut events,
                                w,
                                FleetEventKind::StaleResult {
                                    shard: stale.shard,
                                    attempt: stale.attempt,
                                },
                            );
                        }
                        Err(RecvTimeoutError::Timeout) => {
                            ws.busy = None;
                            ws.lagging = true;
                            last_error[shard] =
                                format!("no response within {:?}", config.shard_timeout);
                            log(
                                &mut report,
                                &mut events,
                                w,
                                FleetEventKind::TimedOut { shard, attempt },
                            );
                            requeue(
                                &mut pending,
                                &attempts,
                                &last_error,
                                shard,
                                config.max_attempts,
                            )?;
                            break;
                        }
                        Err(RecvTimeoutError::Disconnected) => {
                            ws.busy = None;
                            ws.alive = false;
                            last_error[shard] = "worker died mid-shard".into();
                            log(
                                &mut report,
                                &mut events,
                                w,
                                FleetEventKind::WorkerLost {
                                    reason: "worker channel disconnected".into(),
                                },
                            );
                            requeue(
                                &mut pending,
                                &attempts,
                                &last_error,
                                shard,
                                config.max_attempts,
                            )?;
                            break;
                        }
                    }
                }
            }
        }

        report.events = events;
        let artifacts: Vec<A> = done
            .into_iter()
            .map(|a| a.expect("completed == shards implies every slot is filled"))
            .collect();
        Ok(FleetRun {
            artifacts,
            exec: report,
        })
    }
}

/// Monomorphization helper: the shell is generic over the worker type,
/// but registered workers are boxed — this adapter runs a boxed worker.
fn shell_boxed<A: ShardArtifact>(
    worker: Box<dyn ShardWorker<Artifact = A>>,
    faults: Vec<Option<Fault>>,
    cmd_rx: Receiver<Cmd>,
    res_tx: Sender<Reply<A>>,
) {
    struct Boxed<A>(Box<dyn ShardWorker<Artifact = A>>);
    impl<A: ShardArtifact> ShardWorker for Boxed<A> {
        type Artifact = A;
        fn run_shard(&mut self, shard: ShardSpec, attempt: u32) -> Result<A, WorkerFailure> {
            self.0.run_shard(shard, attempt)
        }
    }
    shell(Boxed(worker), faults, cmd_rx, res_tx);
}

impl FleetCoordinator<ShardReport> {
    /// Runs the fleet and merges the shard reports through
    /// [`SweepReport::merge`] — the same path `bench --merge` trusts —
    /// into one report identical in every deterministic field to an
    /// unsharded run.
    pub fn run_sweep(self, shards: usize) -> Result<FleetSweep, FleetError> {
        let run = self.run(shards)?;
        let report = SweepReport::merge(run.artifacts)?;
        Ok(FleetSweep {
            report,
            exec: run.exec,
        })
    }
}

/// A ready-made in-process fleet over a scenario-matrix factory: `workers`
/// [`LocalWorker`]s labeled `w0..`, each building the same matrix, with
/// the `ShardReport` validator installed (shard identity, matrix length,
/// and slice size must all match — structural corruption is rejected
/// before it can reach the merge).
pub fn sweep_coordinator(
    matrix: impl Fn() -> Vec<Scenario> + Send + Sync + Clone + 'static,
    workers: usize,
    config: FleetConfig,
) -> FleetCoordinator<ShardReport> {
    let matrix_len = matrix().len();
    let mut coordinator =
        FleetCoordinator::new(config).with_validator(move |spec, report: &ShardReport| {
            if report.spec != spec {
                return Err(format!(
                    "shard identity mismatch: expected {spec}, artifact claims {}",
                    report.spec
                ));
            }
            if report.matrix_len != matrix_len {
                return Err(format!(
                    "matrix length mismatch: expected {matrix_len}, artifact claims {}",
                    report.matrix_len
                ));
            }
            let expected = spec.count_of(matrix_len);
            if report.sweep.results.len() != expected {
                return Err(format!(
                    "result count mismatch: expected {expected}, got {}",
                    report.sweep.results.len()
                ));
            }
            Ok(())
        });
    for i in 0..workers {
        coordinator = coordinator.with_worker(format!("w{i}"), LocalWorker::new(matrix.clone()));
    }
    coordinator
}
