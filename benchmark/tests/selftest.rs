//! The benchmark checking itself: every workload at 1/100 size, twice.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

use hybridtier_bench::json::{self, Json};
use hybridtier_benchmark::run::{end_to_end, per_layer, run_scenarios, RunOptions, Scratch, Tally};
use hybridtier_benchmark::spec::Spec;
use hybridtier_benchmark::workloads::{Plan, WorkloadKind};

const SCALE: u64 = 100;
const SEED: u64 = 7;

fn tmp(name: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(name)
}

/// Both result documents of one workload from one run.
struct Docs {
    end_to_end: Json,
    per_layer: Json,
    spans: Json,
}

/// Two complete runs (same seed) of every workload, shared by the tests.
fn runs() -> &'static [Vec<Docs>; 2] {
    static RUNS: OnceLock<[Vec<Docs>; 2]> = OnceLock::new();
    RUNS.get_or_init(|| {
        ["run-a", "run-b"].map(|dir| {
            WorkloadKind::ALL
                .into_iter()
                .map(|kind| {
                    let opts = RunOptions {
                        kind,
                        seed: SEED,
                        seconds: 0,
                        scale: SCALE,
                        out: tmp(dir),
                        write_files: true,
                    };
                    let end_to_end = end_to_end(&opts).expect("untraced run");
                    let per_layer = per_layer(&opts).expect("traced run");
                    let spans_path = opts.out.join(format!("{}.spans.json", kind.name()));
                    let spans = json::parse(&std::fs::read_to_string(spans_path).unwrap()).unwrap();
                    Docs {
                        end_to_end,
                        per_layer,
                        spans,
                    }
                })
                .collect()
        })
    })
}

fn metric_names(doc: &Json) -> Vec<String> {
    match doc.get("metrics") {
        Some(Json::Obj(members)) => members.iter().map(|(k, _)| k.clone()).collect(),
        _ => panic!("result without metrics"),
    }
}

fn metric(doc: &Json, name: &str) -> f64 {
    doc.get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.num("value"))
        .unwrap_or_else(|| panic!("no metric {name}"))
}

#[test]
fn emits_exactly_the_contract() {
    let spec = Spec::load().unwrap();
    let names: Vec<&str> = WorkloadKind::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(spec.workloads, names, "workloads of BENCHMARK.json");
    let legal = |s: &str| {
        !s.is_empty()
            && s.len() <= 64
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    for (docs, kind) in runs()[0].iter().zip(WorkloadKind::ALL) {
        let want = |specs: &[hybridtier_benchmark::spec::MetricSpec]| {
            specs.iter().map(|m| m.name.clone()).collect::<Vec<_>>()
        };
        assert_eq!(
            metric_names(&docs.end_to_end),
            want(&spec.end_to_end),
            "{kind:?}"
        );
        assert_eq!(
            metric_names(&docs.per_layer),
            want(&spec.per_layer),
            "{kind:?}"
        );
        for name in metric_names(&docs.end_to_end)
            .iter()
            .chain(&metric_names(&docs.per_layer))
        {
            assert!(legal(name), "illegal metric name {name:?}");
        }
        for doc in [&docs.end_to_end, &docs.per_layer] {
            assert_eq!(
                doc.get("correct"),
                Some(&Json::Bool(true)),
                "{kind:?}: {doc:?}"
            );
            assert_eq!(doc.num("scenarios_failed"), Some(0.0));
            assert!(doc.num("scenarios_attempted").unwrap() >= 1.0);
            let env = doc.get("env").expect("env block");
            for key in [
                "rustc",
                "target",
                "nproc",
                "simd",
                "git_commit",
                "seed",
                "constants",
            ] {
                assert!(env.get(key).is_some(), "env.{key} missing");
            }
        }
        // End-to-end metrics divide by the baseline median: never zero.
        for m in &spec.end_to_end {
            assert!(
                metric(&docs.end_to_end, &m.name) > 0.0,
                "{kind:?} {}",
                m.name
            );
        }
    }
}

#[test]
fn simulated_results_and_counts_repeat_exactly() {
    let spec = Spec::load().unwrap();
    let [a, b] = runs();
    for ((a, b), kind) in a.iter().zip(b).zip(WorkloadKind::ALL) {
        for key in ["sim_digest", "counts", "scenarios_attempted"] {
            assert_eq!(
                a.end_to_end.get(key),
                b.end_to_end.get(key),
                "{kind:?} {key}"
            );
        }
        for m in spec
            .end_to_end
            .iter()
            .filter(|m| m.name.starts_with("sim_"))
        {
            assert_eq!(
                metric(&a.end_to_end, &m.name),
                metric(&b.end_to_end, &m.name),
                "{kind:?} {}",
                m.name
            );
        }
        for m in spec.per_layer.iter().filter(|m| m.unit == "count") {
            assert_eq!(
                metric(&a.per_layer, &m.name),
                metric(&b.per_layer, &m.name),
                "{kind:?} {}",
                m.name
            );
        }
    }
}

#[test]
fn spans_nest_and_the_ledger_closes() {
    for (docs, kind) in runs()[0].iter().zip(WorkloadKind::ALL) {
        let spans = docs.spans.get("spans").and_then(Json::as_array).unwrap();
        assert!(spans.len() > 10, "{kind:?}: span tree too small");
        let field = |s: &Json, k: &str| s.num(k).unwrap();
        let mut child_time = vec![0.0; spans.len()];
        for (i, s) in spans.iter().enumerate() {
            assert_eq!(field(s, "id") as usize, i);
            assert!(
                field(s, "start_ns") <= field(s, "end_ns"),
                "{kind:?} span {i}"
            );
            match s.get("parent") {
                Some(Json::Null) => assert_eq!(i, 0, "only the pass is a root"),
                Some(p) => {
                    let p = p.as_f64().unwrap() as usize;
                    assert!(p < i, "parents precede children");
                    let parent = &spans[p];
                    assert!(field(parent, "start_ns") <= field(s, "start_ns"));
                    assert!(field(s, "end_ns") <= field(parent, "end_ns"));
                    child_time[p] += field(s, "busy_ns");
                }
                None => panic!("span without parent member"),
            }
        }
        for (s, children) in spans.iter().zip(&child_time) {
            let own = field(s, "end_ns") - field(s, "start_ns");
            assert!(
                own - children >= -1.0,
                "{kind:?} {}: self time {} < 0",
                s.str("name").unwrap(),
                own - children
            );
        }

        let Some(Json::Obj(ledger)) = docs.per_layer.get("ledger") else {
            panic!("no ledger");
        };
        let get = |k: &str| {
            ledger
                .iter()
                .find(|(name, _)| name == k)
                .and_then(|(_, v)| v.as_f64())
                .unwrap()
        };
        let engine = get("sim.engine_ns_per_access");
        assert!(engine > 0.0);
        let parts: f64 = ledger
            .iter()
            .filter(|(k, _)| k != "sim.engine_ns_per_access" && k != "scenario_build_ns_per_access")
            .map(|(_, v)| v.as_f64().unwrap())
            .sum();
        assert!(
            (parts - engine).abs() <= 1e-6 * engine,
            "{kind:?}: layers + unattributed = {parts}, engine = {engine}"
        );
        assert_eq!(engine, metric(&docs.per_layer, "sim.engine_ns_per_access"));
        assert_eq!(
            get("sim.unattributed_ns_per_access"),
            metric(&docs.per_layer, "sim.unattributed_ns_per_access")
        );
    }
}

#[test]
fn a_corrupted_trace_fails_one_scenario_not_the_process() {
    let scratch = Scratch::create(&tmp("corrupt"), WorkloadKind::Trace).unwrap();
    let plan = Plan {
        kind: WorkloadKind::Trace,
        seed: SEED,
        scale: SCALE,
        scratch: scratch.path().to_path_buf(),
    };
    plan.record_traces().unwrap();
    let victim = &plan.trace_inputs()[1].2;
    let mut bytes = std::fs::read(victim).unwrap();
    let middle = bytes.len() / 2;
    bytes[middle] ^= 0x40;
    std::fs::write(victim, bytes).unwrap();

    // The first file's three replays plus one replay of the damaged second.
    let mut scenarios = plan.scenarios();
    scenarios.truncate(4);
    let mut tally = Tally::default();
    let (wall, results) = run_scenarios(scenarios, &mut tally);
    assert_eq!(tally.attempted, 4);
    assert_eq!(tally.failed, 1, "{:?}", tally.failures);
    assert!(
        wall.is_none(),
        "a pass with a failure is not a timing sample"
    );
    assert_eq!(results.len(), 3, "the intact scenarios still ran");
}

/// The `[profile.release]` table of a manifest, comments and blanks dropped.
fn release_profile(manifest: &Path) -> Vec<String> {
    let text = std::fs::read_to_string(manifest).unwrap();
    text.lines()
        .map(str::trim)
        .skip_while(|l| *l != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect()
}

#[test]
fn release_profile_matches_root() {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mine = release_profile(&here.join("Cargo.toml"));
    assert!(!mine.is_empty());
    assert_eq!(mine, release_profile(&here.join("../Cargo.toml")));
}

#[test]
fn compare_reads_two_sets_and_refuses_different_experiments() {
    runs();
    let exe = env!("CARGO_BIN_EXE_benchmark");
    let out = Command::new(exe)
        .arg("compare")
        .args([tmp("run-a"), tmp("run-b")])
        .output()
        .unwrap();
    let text = String::from_utf8(out.stdout).unwrap();
    // Timings at 1/100 size are noise, so the verdicts (and with them the
    // exit code) are not asserted; everything exact must read unchanged.
    assert!(matches!(out.status.code(), Some(0 | 1)), "{text}");
    let spec = Spec::load().unwrap();
    for w in &spec.workloads {
        for m in &spec.end_to_end {
            assert!(
                text.lines()
                    .any(|l| l.starts_with(w.as_str()) && l.contains(&m.name)),
                "no row for {w} {}:\n{text}",
                m.name
            );
        }
    }
    assert!(!text.contains(" changed: "), "{text}");
    assert!(!text.contains("failed share rose"), "{text}");

    // A third set at another seed is a different experiment.
    let other = tmp("run-other-seed");
    let status = Command::new(exe)
        .args(["--workload", "cachelib", "--trace", "0", "--seconds", "0"])
        .args(["--seed", "8", "--scale", "100", "--out"])
        .arg(&other)
        .output()
        .unwrap();
    assert!(status.status.success());
    let line = String::from_utf8(status.stdout).unwrap();
    let last = json::parse(line.lines().last().unwrap()).expect("last line is JSON");
    let keys: Vec<&str> = match &last {
        Json::Obj(m) => m.iter().map(|(k, _)| k.as_str()).collect(),
        _ => panic!("not an object"),
    };
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let refused = Command::new(exe)
        .arg("compare")
        .args([tmp("run-a"), other])
        .output()
        .unwrap();
    assert_eq!(refused.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&refused.stderr).contains("different experiments"));
}

#[test]
fn bad_input_is_an_error_not_a_panic() {
    let exe = env!("CARGO_BIN_EXE_benchmark");
    for args in [
        vec![
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        vec!["--workload", "cachelib", "--seed", "x"],
        vec!["compare", "/nonexistent-a", "/nonexistent-b"],
        vec!["--frobnicate"],
    ] {
        let out = Command::new(exe).args(&args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(String::from_utf8_lossy(&out.stderr).starts_with("benchmark: "));
    }
}
