//! `BENCHMARK.json`, the contract this harness is checked against, read at
//! compile time so the binary and the file cannot disagree.

use std::path::Path;

use hybridtier_bench::json::{self, Json};

use crate::error::BenchError;

const SPEC_TEXT: &str = include_str!("../../BENCHMARK.json");

/// Which direction of a metric is good.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

/// One metric the benchmark promises to emit.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit label.
    pub unit: String,
    /// Good direction.
    pub better: Better,
    /// Share of the baseline median the metric may worsen by (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// The parsed contract.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Workload names, in run order.
    pub workloads: Vec<String>,
    /// Metrics of an untraced run.
    pub end_to_end: Vec<MetricSpec>,
    /// Metrics of a traced run.
    pub per_layer: Vec<MetricSpec>,
    /// Seconds one run measures for.
    pub run_seconds: u64,
}

impl Spec {
    /// Parses the embedded `BENCHMARK.json`.
    pub fn load() -> Result<Self, BenchError> {
        let path = Path::new("BENCHMARK.json");
        let bad = |msg: &str| BenchError::parse(path, msg);
        let doc = json::parse(SPEC_TEXT).map_err(|e| bad(&e.to_string()))?;
        let list = |key: &str| {
            doc.get(key)
                .and_then(Json::as_array)
                .ok_or_else(|| bad(&format!("missing array '{key}'")))
        };
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, BenchError> {
            list(key)?
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.str(f)
                            .ok_or_else(|| bad(&format!("{key} entry without '{f}'")))
                    };
                    Ok(MetricSpec {
                        name: field("name")?.to_string(),
                        unit: field("unit")?.to_string(),
                        better: match field("better")? {
                            "lower" => Better::Lower,
                            "higher" => Better::Higher,
                            other => return Err(bad(&format!("better: '{other}'"))),
                        },
                        bound: m.num("bound"),
                    })
                })
                .collect()
        };
        Ok(Spec {
            workloads: list("workloads")?
                .iter()
                .map(|w| {
                    w.str("name")
                        .map(str::to_string)
                        .ok_or_else(|| bad("workload without 'name'"))
                })
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_i128)
                .and_then(|s| u64::try_from(s).ok())
                .ok_or_else(|| bad("missing 'run_seconds'"))?,
        })
    }
}

/// Renders measured `values` as the `metrics` object of a result, attaching
/// each unit from the contract. Fails — a harness bug, reported as an error
/// rather than a wrong result file — if the names emitted are not exactly
/// the names `specs` lists.
pub fn metrics_json(specs: &[MetricSpec], values: &[(String, f64)]) -> Result<Json, BenchError> {
    let path = Path::new("BENCHMARK.json");
    if let Some((name, _)) = values
        .iter()
        .find(|(name, _)| !specs.iter().any(|s| &s.name == name))
    {
        return Err(BenchError::parse(
            path,
            format!("harness measured '{name}', which the contract does not list"),
        ));
    }
    let mut out = Json::obj();
    for spec in specs {
        let mut found = values.iter().filter(|(name, _)| name == &spec.name);
        let (Some((_, value)), None) = (found.next(), found.next()) else {
            return Err(BenchError::parse(
                path,
                format!("harness did not measure '{}' exactly once", spec.name),
            ));
        };
        if !value.is_finite() {
            return Err(BenchError::parse(
                path,
                format!("'{}' measured as {value}", spec.name),
            ));
        }
        let mut m = Json::obj();
        m.set("value", Json::Num(*value));
        m.set("unit", Json::Str(spec.unit.clone()));
        out.set(&spec.name, m);
    }
    Ok(out)
}
