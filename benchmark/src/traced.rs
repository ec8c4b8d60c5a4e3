//! The traced run: one pass that prices every layer of one workload.
//!
//! Spans form a tree — pass ← scenario ← layer, plus one span per probe
//! under the pass — kept in memory and handed back for the caller to write
//! out. Each ledger cell runs three times (staged loop with the clock,
//! staged loop without it, the engine itself); the engine time is the
//! number the layers must add up to, and what they do not cover is reported
//! as `sim.unattributed_ns_per_access`, never dropped.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use hybridtier::policies::PolicyKind;
use hybridtier::runner::{Scenario, ScenarioKind};
use hybridtier_bench::json::Json;

use crate::error::BenchError;
use crate::ledger::{self, CellRun, Layer, Mode, Outcome, Replica};
use crate::probes;
use crate::run::{run_scenarios, Tally};
use crate::workloads::{Plan, LEDGER_KINDS};

/// Ops per cell of the shard-dispatch probe at full scale.
const DISPATCH_OPS: u64 = 50_000;
/// Ops recorded by the codec probe at full scale.
const CODEC_OPS: u64 = 200_000;
/// Tenants in the multi-tenant probe at full scale.
const PROBE_TENANTS: u64 = 1_000;
/// Op cap per lane of the multi-tenant probe at full scale.
const PROBE_LANE_OPS: u64 = 20_000;
/// Fleet size of the controller probe (not scaled: the probe is cheap and
/// its cost model is about `n`).
const CONTROLLER_TENANTS: usize = 5_000;
/// Sampled pages fed to the CBF probe at most.
const CBF_KEYS_CAP: usize = 4 << 20;

/// One node of the span tree.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span name (`pass`, a scenario label, `crate.call`, or `probe.*`).
    pub name: String,
    /// Index of the parent span; `None` for the pass.
    pub parent: Option<usize>,
    /// Start, ns since the traced pass began.
    pub start_ns: u64,
    /// End.
    pub end_ns: u64,
    /// Time inside the span's own calls (for layers: timed calls only,
    /// clock cost removed).
    pub busy_ns: f64,
    /// Calls timed.
    pub calls: u64,
    /// Work units over the whole scenario.
    pub units: u64,
    /// Work units inside the timed calls.
    pub timed_units: u64,
}

impl Span {
    fn to_json(&self, id: usize) -> Json {
        let mut o = Json::obj();
        o.set("id", Json::Int(id as i128));
        o.set("name", Json::Str(self.name.clone()));
        o.set(
            "parent",
            self.parent.map_or(Json::Null, |p| Json::Int(p as i128)),
        );
        o.set("start_ns", Json::Int(i128::from(self.start_ns)));
        o.set("end_ns", Json::Int(i128::from(self.end_ns)));
        o.set("busy_ns", Json::Num(self.busy_ns));
        o.set("calls", Json::Int(i128::from(self.calls)));
        o.set("units", Json::Int(i128::from(self.units)));
        o.set("timed_units", Json::Int(i128::from(self.timed_units)));
        o
    }
}

/// What a traced run hands back.
#[derive(Debug, Clone)]
pub struct Traced {
    /// Every per-layer metric of the contract, by name.
    pub metrics: Vec<(String, f64)>,
    /// Host ns per simulated access by layer, the residual, and the engine
    /// total they sum to.
    pub ledger: Vec<(String, f64)>,
    /// The span tree; index 0 is the pass.
    pub spans: Vec<Span>,
    /// What one clock reading cost (already subtracted from `busy_ns`).
    pub timer_cost_ns: f64,
    /// Scenario runs attempted (sweep scenarios plus ledger cells) and how
    /// many panicked, errored, or diverged from the engine.
    pub tally: Tally,
}

impl Traced {
    /// The `*.spans.json` document.
    pub fn spans_json(&self) -> Json {
        let mut doc = Json::obj();
        doc.set("timer_cost_ns", Json::Num(self.timer_cost_ns));
        doc.set(
            "timed_every_batches",
            Json::Int(i128::from(ledger::TIMED_EVERY)),
        );
        doc.set(
            "spans",
            Json::Arr(
                self.spans
                    .iter()
                    .enumerate()
                    .map(|(i, s)| s.to_json(i))
                    .collect(),
            ),
        );
        doc
    }
}

/// One ledger cell's three runs.
struct CellLedger {
    policy: String,
    timed: Replica,
    timed_wall_ns: u64,
    untimed_wall_ns: u64,
    engine_wall_ns: u64,
    engine_build_ns: u64,
}

/// Sums `f` over cells.
fn total(cells: &[CellLedger], f: impl Fn(&CellLedger) -> f64) -> f64 {
    cells.iter().map(f).sum()
}

/// `num / den`, or 0 when the workload never exercised the layer.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Runs `cell` in `mode`, turning a panic into an error line.
fn guarded(cell: &Scenario, mode: Mode, epoch: Instant) -> Result<CellRun, String> {
    catch_unwind(AssertUnwindSafe(|| ledger::run_cell(cell, mode, epoch)))
        .unwrap_or_else(|_| Err(format!("{}: panicked in {mode:?}", cell.label)))
}

/// The three runs of one ledger cell: the timed staged run (when it ran and
/// what it counted), the untimed one's wall, and the engine's own run.
type CellRuns = ((u64, u64, Replica), u64, CellRun);

fn cell_runs(cell: &Scenario, epoch: Instant) -> Result<CellRuns, String> {
    let staged = |timed: bool| -> Result<(u64, u64, Replica), String> {
        let run = guarded(cell, Mode::Staged(timed), epoch)?;
        match run.outcome {
            Outcome::Staged(replica) => Ok((run.start_ns, run.end_ns, *replica)),
            Outcome::Engine(_) => unreachable!("staged modes return replicas"),
        }
    };
    let timed = staged(true)?;
    let (start_ns, end_ns, _) = staged(false)?;
    let engine = guarded(cell, Mode::EngineTyped, epoch)?;
    Ok((timed, end_ns - start_ns, engine))
}

/// Runs the traced pass of `plan`.
pub fn run(plan: &Plan) -> Result<Traced, BenchError> {
    let epoch = Instant::now();
    let now = || epoch.elapsed().as_nanos() as u64;
    let timer_cost_ns = ledger::timer_cost_ns();
    let mut spans = vec![Span {
        name: "pass".to_string(),
        parent: None,
        start_ns: 0,
        end_ns: 0,
        busy_ns: 0.0,
        calls: 1,
        units: 0,
        timed_units: 0,
    }];
    let probe_span = |spans: &mut Vec<Span>, name: &str, start_ns: u64, units: u64| {
        let end_ns = now();
        spans.push(Span {
            name: name.to_string(),
            parent: Some(0),
            start_ns,
            end_ns,
            busy_ns: (end_ns - start_ns) as f64,
            calls: 1,
            units,
            timed_units: units,
        });
    };
    let mut tally = Tally::default();

    // Set-up (also records the trace inputs the replay cells read).
    let start = now();
    let build_s = plan.set_up(plan.seed)?;
    probe_span(&mut spans, "set_up", start, 1);

    // One untraced sweep of the whole scenario list, for the runner's own
    // overhead and the makespan floor.
    let start = now();
    let (sweep_wall, results) = run_scenarios(plan.scenarios(), &mut tally);
    let walls: Vec<f64> = results.iter().map(|r| r.wall.as_secs_f64()).collect();
    let wall = sweep_wall.unwrap_or(0.0);
    let sweep_overhead_frac = ratio((wall - walls.iter().sum::<f64>()).max(0.0), wall);
    let max_scenario_share = ratio(walls.iter().copied().fold(0.0, f64::max), wall);
    probe_span(&mut spans, "runner.sweep", start, results.len() as u64);
    drop(results);

    // The ledger cells.
    let cells = plan.ledger_cells();
    let mut ledgers: Vec<CellLedger> = Vec::new();
    let mut cbf_keys: Vec<u64> = Vec::new();
    for cell in &cells {
        tally.attempted += 1;
        let ((start_ns, end_ns, replica), untimed_wall_ns, engine) = match cell_runs(cell, epoch) {
            Ok(runs) => runs,
            Err(msg) => {
                tally.fail(msg);
                continue;
            }
        };
        let Outcome::Engine(report) = &engine.outcome else {
            unreachable!("engine modes return reports");
        };
        if !replica.matches(report) {
            tally.fail(format!(
                "{}: the staged loop no longer simulates what the engine does \
                 (sim_ns {} vs {}, samples {} vs {})",
                cell.label, replica.sim_ns, report.sim_ns, replica.samples, report.samples
            ));
        }
        let scenario_span = spans.len();
        spans.push(Span {
            name: cell.label.clone(),
            parent: Some(0),
            start_ns,
            end_ns,
            busy_ns: (end_ns - start_ns) as f64,
            calls: 1,
            units: replica.accesses,
            timed_units: replica.timed_accesses,
        });
        for layer in Layer::ALL {
            let acc = replica.layer(layer);
            if acc.units == 0 && acc.calls == 0 {
                continue;
            }
            spans.push(Span {
                name: layer.span_name().to_string(),
                parent: Some(scenario_span),
                start_ns: acc.first_start_ns.max(start_ns),
                end_ns: acc.last_end_ns.max(start_ns),
                busy_ns: acc.busy_ns(timer_cost_ns),
                calls: acc.calls,
                units: acc.units,
                timed_units: acc.timed_units,
            });
        }
        let room = CBF_KEYS_CAP - cbf_keys.len();
        cbf_keys.extend(replica.sampled_pages.iter().take(room));
        let ScenarioKind::Single { policy, .. } = &cell.kind else {
            unreachable!("ledger cells are single-application scenarios");
        };
        ledgers.push(CellLedger {
            policy: policy.label(),
            timed: replica,
            timed_wall_ns: end_ns - start_ns,
            untimed_wall_ns,
            engine_wall_ns: engine.wall_ns(),
            engine_build_ns: engine.build_ns,
        });
    }

    // dyn vs typed dispatch, on the first cell.
    let dyn_over_typed = match (cells.first(), ledgers.first()) {
        (Some(cell), Some(first)) => match guarded(cell, Mode::EngineDyn, epoch) {
            Ok(run) => ratio(run.wall_ns() as f64, first.engine_wall_ns as f64),
            Err(msg) => {
                tally.fail(msg);
                0.0
            }
        },
        _ => 0.0,
    };

    // Probes.
    let scaled = |full: u64| (full / plan.scale).max(1);
    let start = now();
    let cbf = probes::cbf(&cbf_keys);
    probe_span(&mut spans, "probe.cbf", start, 4 * cbf_keys.len() as u64);
    let start = now();
    let migrate_ns = probes::migrate_ns_per_page();
    probe_span(&mut spans, "probe.mem.migrate", start, 1);
    let start = now();
    let table_bytes = probes::table_bytes_per_page()?;
    probe_span(&mut spans, "probe.mem.table", start, 1);
    let start = now();
    let controller = probes::controller(CONTROLLER_TENANTS);
    probe_span(&mut spans, "probe.policies.controller", start, 1);
    let start = now();
    let fleet = probes::multi_tenant(
        scaled(PROBE_TENANTS) as usize,
        scaled(PROBE_LANE_OPS),
        plan.seed,
    );
    probe_span(&mut spans, "probe.sim.multi_tenant", start, 1);
    let start = now();
    let dispatch = probes::dispatch(scaled(DISPATCH_OPS), plan.seed)?;
    probe_span(&mut spans, "probe.fleet-exec.dispatch", start, 4);
    let start = now();
    let codec = probes::codec(&plan.scratch, scaled(CODEC_OPS), plan.seed)?;
    probe_span(&mut spans, "probe.trace.codec", start, 1);

    spans[0].end_ns = now();
    spans[0].busy_ns = spans[0].end_ns as f64;

    // Aggregate. Per-access costs are means over cells of the cell's own
    // cost per access (its accesses inside timed batches for the layers),
    // the same equal-weight average `host_ns_per_access` uses, so the
    // ledger's engine total is comparable to the end-to-end number. Unit
    // costs (ns per sample, per tick, per ref) pool all cells instead.
    let cell_mean =
        |f: &dyn Fn(&CellLedger) -> f64| ratio(total(&ledgers, f), ledgers.len() as f64);
    let busy = |cells: &[CellLedger], layer: Layer| {
        total(cells, |c| c.timed.layer(layer).busy_ns(timer_cost_ns))
    };
    let per_access = |layer: Layer| {
        cell_mean(&|c| {
            ratio(
                c.timed.layer(layer).busy_ns(timer_cost_ns),
                c.timed.timed_accesses as f64,
            )
        })
    };
    let per_unit = |cells: &[CellLedger], layer: Layer| {
        ratio(
            busy(cells, layer),
            total(cells, |c| c.timed.layer(layer).timed_units as f64),
        )
    };
    let units = |layer: Layer| total(&ledgers, |c| c.timed.layer(layer).units as f64);

    let mut ledger: Vec<(String, f64)> = Layer::ALL
        .iter()
        .map(|&l| (format!("{}_ns_per_access", l.span_name()), per_access(l)))
        .collect();
    let attributed: f64 = ledger.iter().map(|(_, v)| v).sum();
    let engine_ns_per_access =
        cell_mean(&|c| ratio(c.engine_wall_ns as f64, c.timed.accesses as f64));
    let unattributed = engine_ns_per_access - attributed;
    ledger.push(("sim.unattributed_ns_per_access".to_string(), unattributed));
    ledger.push(("sim.engine_ns_per_access".to_string(), engine_ns_per_access));
    ledger.push((
        "scenario_build_ns_per_access".to_string(),
        cell_mean(&|c| ratio(c.engine_build_ns as f64, c.timed.accesses as f64)),
    ));

    let untimed_wall = total(&ledgers, |c| c.untimed_wall_ns as f64);
    let cache_refs = total(&ledgers, |c| {
        (c.timed.layer(Layer::CacheApp).timed_units
            + c.timed.layer(Layer::CacheTiering).timed_units) as f64
    });
    let tiering_stats = |f: fn(&hybridtier::cache::HierarchyStats) -> u64| {
        total(&ledgers, |c| c.timed.cache.as_ref().map_or(0, f) as f64)
    };

    let mut metrics: Vec<(String, f64)> = Vec::new();
    let mut put = |name: &str, value: f64| metrics.push((name.to_string(), value));
    put("workloads.fill_ns_per_access", per_access(Layer::Fill));
    put(
        "workloads.replay_fill_ns_per_access",
        per_access(Layer::ReplayFill),
    );
    put("workloads.build_s", build_s);
    put("trace.pages_ns_per_access", per_access(Layer::Pages));
    put("trace.sampler_ns_per_access", per_access(Layer::Sampler));
    put("trace.samples", total(&ledgers, |c| c.timed.samples as f64));
    put("trace.write_ns_per_access", codec.write_ns_per_access);
    put("trace.read_ns_per_access", codec.read_ns_per_access);
    put("trace.file_bytes_per_access", codec.file_bytes_per_access);
    put("trace.reader_resident_bytes", codec.reader_resident_bytes);
    put("mem.map_ns_per_access", per_access(Layer::Map));
    put("mem.migrate_ns_per_page", migrate_ns);
    put(
        "mem.pages_migrated",
        total(&ledgers, |c| {
            (c.timed.migrations.promotions + c.timed.migrations.demotions) as f64
        }),
    );
    put("mem.table_bytes_per_page", table_bytes);
    put(
        "cache-sim.access_ns_per_ref",
        ratio(
            busy(&ledgers, Layer::CacheApp) + busy(&ledgers, Layer::CacheTiering),
            cache_refs,
        ),
    );
    put("cache-sim.app_refs", units(Layer::CacheApp));
    put("cache-sim.tiering_refs", units(Layer::CacheTiering));
    put(
        "cache-sim.tiering_llc_miss_frac",
        ratio(
            tiering_stats(|s| s.llc.by(hybridtier::cache::Source::Tiering).misses),
            tiering_stats(|s| s.l1.by(hybridtier::cache::Source::Tiering).accesses()),
        ),
    );
    put("cbf.blocked_incr_ns", cbf.blocked_incr_ns);
    put("cbf.blocked_get_ns", cbf.blocked_get_ns);
    put("cbf.standard_incr_ns", cbf.standard_incr_ns);
    put("cbf.standard_get_ns", cbf.standard_get_ns);
    for kind in LEDGER_KINDS {
        let label = kind.label();
        let mine: Vec<&CellLedger> = ledgers.iter().filter(|c| c.policy == label).collect();
        let sum = |f: &dyn Fn(&CellLedger) -> f64| mine.iter().map(|c| f(c)).sum::<f64>();
        let layer_cost = |layer: Layer| {
            ratio(
                sum(&|c| c.timed.layer(layer).busy_ns(timer_cost_ns)),
                sum(&|c| c.timed.layer(layer).timed_units as f64),
            )
        };
        put(
            &format!("policies.sample_ns_per_sample.{label}"),
            layer_cost(Layer::Sample),
        );
        put(
            &format!("policies.tick_ns_per_tick.{label}"),
            layer_cost(Layer::Tick),
        );
        put(
            &format!("policies.metadata_lines_per_sample.{label}"),
            ratio(
                sum(&|c| c.timed.sample_lines as f64),
                sum(&|c| c.timed.samples as f64),
            ),
        );
        put(
            &format!("policies.metadata_bytes.{label}"),
            ratio(sum(&|c| c.timed.metadata_bytes as f64), mine.len() as f64),
        );
        if matches!(kind, PolicyKind::Tpp | PolicyKind::AutoNuma) {
            put(
                &format!("policies.hook_ns_per_access.{label}"),
                layer_cost(Layer::Hook),
            );
        }
    }
    put("policies.ticks", units(Layer::Tick));
    put("policies.controller_rebalance_ns", controller.rebalance_ns);
    put(
        "policies.controller_ops_per_rebalance",
        controller.ops_per_rebalance,
    );
    put(
        "policies.controller_churn_ns_per_event",
        controller.churn_ns_per_event,
    );
    put("sim.engine_ns_per_access", engine_ns_per_access);
    put("sim.prefetch_ns_per_access", per_access(Layer::Prefetch));
    put("sim.histo_ns_per_op", per_unit(&ledgers, Layer::Histo));
    put("sim.unattributed_ns_per_access", unattributed);
    put("sim.dyn_over_typed", dyn_over_typed);
    put("sim.multi_tenant_ns_per_access", fleet.ns_per_access);
    put("sim.tenant_setup_us", fleet.tenant_setup_us);
    put("runner.sweep_overhead_frac", sweep_overhead_frac);
    put("runner.max_scenario_share", max_scenario_share);
    put("fleet-exec.dispatch_us_per_shard", dispatch.us_per_shard);
    put("fleet-exec.retries", dispatch.retries as f64);
    put(
        "trace_overhead_frac",
        ratio(
            total(&ledgers, |c| c.timed_wall_ns as f64) - untimed_wall,
            untimed_wall,
        ),
    );

    Ok(Traced {
        metrics,
        ledger,
        spans,
        timer_cost_ns,
        tally,
    })
}
