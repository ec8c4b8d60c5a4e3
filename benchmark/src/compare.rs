//! `compare <dirA> <dirB>`: did B get worse than A, by the bounds the
//! contract fixes?
//!
//! Each directory holds the result files of one or more runs of `all`
//! (searched recursively). Timings are compared as medians over runs with
//! their quartiles; simulated results and work counts must repeat exactly,
//! and any that do not get a line of their own, because two host times
//! over different simulated work are not a comparison at all.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use hybridtier_bench::json::{self, Json};

use crate::error::BenchError;
use crate::run::RESULT_KIND;
use crate::spec::{Better, Spec};
use crate::stats::Summary;

/// The verdict on one (metric, workload) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is better than A beyond A's own run-to-run spread.
    Improved,
    /// B's median is within the bound of A's.
    Unchanged,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// Run-to-run spread is wider than the bound: the runs cannot tell.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Decides one pair from both sides' samples. `bound` is the share of A's
/// median by which B may be worse.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Option<Verdict> {
    let (sa, sb) = (Summary::of(a)?, Summary::of(b)?);
    let worse_by = match better {
        Better::Lower => sb.median - sa.median,
        Better::Higher => sa.median - sb.median,
    } / sa.median.abs();
    let b_beats_a = |x: f64, y: f64| match better {
        Better::Lower => y < x,
        Better::Higher => y > x,
    };
    // Every run of B against every run of A.
    let all_better = a.iter().all(|&x| b.iter().all(|&y| b_beats_a(x, y)));
    let all_worse = a.iter().all(|&x| b.iter().all(|&y| b_beats_a(y, x)));
    let spread = sa.spread().max(sb.spread());
    Some(if spread > bound {
        if all_better {
            Verdict::Improved
        } else if all_worse && worse_by > bound {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound {
        Verdict::Regressed
    } else if sa.n >= 2 && sb.n >= 2 && all_better && -worse_by > sa.spread() {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    })
}

/// The result files of one side, by workload.
#[derive(Debug, Default)]
struct Side {
    end_to_end: BTreeMap<String, Vec<Json>>,
    per_layer: BTreeMap<String, Vec<Json>>,
}

fn load_side(dir: &Path) -> Result<Side, BenchError> {
    let mut side = Side::default();
    let mut pending = vec![dir.to_path_buf()];
    let mut files: Vec<PathBuf> = Vec::new();
    while let Some(d) = pending.pop() {
        let entries = std::fs::read_dir(&d).map_err(|e| BenchError::io("list", &d, e))?;
        for entry in entries {
            let path = entry.map_err(|e| BenchError::io("list", &d, e))?.path();
            if path.is_dir() {
                pending.push(path);
            } else if path.extension().is_some_and(|e| e == "json") {
                files.push(path);
            }
        }
    }
    files.sort();
    for path in files {
        let text = std::fs::read_to_string(&path).map_err(|e| BenchError::io("read", &path, e))?;
        let doc = json::parse(&text).map_err(|e| BenchError::parse(&path, e.to_string()))?;
        if doc.str("kind") != Some(RESULT_KIND) {
            continue; // span trees and other JSON live beside the results
        }
        let workload = doc
            .str("workload")
            .ok_or_else(|| BenchError::parse(&path, "result without 'workload'"))?
            .to_string();
        match doc.str("mode") {
            Some("end_to_end") => side.end_to_end.entry(workload).or_default().push(doc),
            Some("per_layer") => side.per_layer.entry(workload).or_default().push(doc),
            _ => return Err(BenchError::parse(&path, "result without a known 'mode'")),
        }
    }
    if side.end_to_end.is_empty() {
        return Err(BenchError::Incomparable(format!(
            "{} holds no end-to-end result files",
            dir.display()
        )));
    }
    Ok(side)
}

/// The part of `env` that defines the experiment.
fn experiment(doc: &Json) -> String {
    let env = doc.get("env");
    let part = |key: &str| {
        env.and_then(|e| e.get(key))
            .map_or_else(|| "?".to_string(), Json::render)
    };
    format!(
        "seed {} scale {} constants {}",
        part("seed"),
        part("scale"),
        part("constants")
    )
}

fn metric_values(docs: &[Json], name: &str) -> Vec<f64> {
    docs.iter()
        .filter_map(|d| d.get("metrics")?.get(name)?.num("value"))
        .collect()
}

fn failed_share(docs: &[Json]) -> f64 {
    let sum = |key: &str| docs.iter().filter_map(|d| d.num(key)).sum::<f64>();
    let attempted = sum("scenarios_attempted");
    if attempted > 0.0 {
        sum("scenarios_failed") / attempted
    } else {
        0.0
    }
}

/// Values that must repeat exactly: the distinct renderings, across runs,
/// of the member at `path`.
fn exact_values(docs: &[Json], path: &[&str]) -> Vec<String> {
    let at = |doc: &Json| {
        path.iter()
            .try_fold(doc, |node, key| node.get(key))
            .map(Json::render)
    };
    let mut seen: Vec<String> = docs.iter().filter_map(at).collect();
    seen.sort();
    seen.dedup();
    seen
}

/// The comparison, as text plus whether it should fail the process.
#[derive(Debug)]
pub struct Comparison {
    /// The report to print.
    pub text: String,
    /// A row regressed, or B failed a larger share of its scenarios.
    pub failed: bool,
}

/// Compares the result sets under `dir_a` and `dir_b`.
pub fn compare(dir_a: &Path, dir_b: &Path) -> Result<Comparison, BenchError> {
    let spec = Spec::load()?;
    let (a, b) = (load_side(dir_a)?, load_side(dir_b)?);
    let mut text = String::new();
    let mut failed = false;
    let _ = writeln!(
        text,
        "{:<9} {:<24} {:>34} {:>34} {:>8} {:>6}  verdict",
        "workload", "metric", "A median [q1, q3] n", "B median [q1, q3] n", "change", "bound"
    );
    for workload in &spec.workloads {
        let (Some(da), Some(db)) = (a.end_to_end.get(workload), b.end_to_end.get(workload)) else {
            let _ = writeln!(text, "{workload}: missing on one side, not compared");
            continue;
        };
        let kinds: Vec<String> = da.iter().chain(db).map(experiment).collect();
        if kinds.iter().any(|k| k != &kinds[0]) {
            return Err(BenchError::Incomparable(format!(
                "{workload}: result files are different experiments ({} vs {})",
                kinds[0],
                kinds.iter().find(|k| *k != &kinds[0]).expect("one differs")
            )));
        }

        for m in &spec.end_to_end {
            let (va, vb) = (metric_values(da, &m.name), metric_values(db, &m.name));
            let bound = m.bound.unwrap_or(0.0);
            let (Some(sa), Some(sb), Some(v)) = (
                Summary::of(&va),
                Summary::of(&vb),
                verdict(&va, &vb, m.better, bound),
            ) else {
                let _ = writeln!(text, "{workload:<9} {:<24} missing on one side", m.name);
                continue;
            };
            failed |= v == Verdict::Regressed;
            let cell = |s: &Summary| format!("{:.4} [{:.4}, {:.4}] {}", s.median, s.q1, s.q3, s.n);
            let _ = writeln!(
                text,
                "{workload:<9} {:<24} {:>34} {:>34} {:>+7.2}% {:>5.1}%  {}",
                m.name,
                cell(&sa),
                cell(&sb),
                (sb.median - sa.median) / sa.median.abs() * 100.0,
                bound * 100.0,
                v.label()
            );
        }

        // Everything that must repeat exactly gets its own line when it
        // does not.
        let mut exact = |what: &str, xa: Vec<String>, xb: Vec<String>| {
            if xa != xb || xa.len() > 1 {
                let _ = writeln!(
                    text,
                    "{workload}: {what} changed: A {} -> B {}",
                    xa.join("|"),
                    xb.join("|")
                );
            }
        };
        exact(
            "sim_digest (sim_digest_changed)",
            exact_values(da, &["sim_digest"]),
            exact_values(db, &["sim_digest"]),
        );
        for m in spec
            .end_to_end
            .iter()
            .filter(|m| m.name.starts_with("sim_"))
        {
            let path = ["metrics", m.name.as_str(), "value"];
            exact(&m.name, exact_values(da, &path), exact_values(db, &path));
        }
        let count_keys: Vec<String> = match da[0].get("counts") {
            Some(Json::Obj(members)) => members.iter().map(|(k, _)| k.clone()).collect(),
            _ => Vec::new(),
        };
        for key in &count_keys {
            let path = ["counts", key.as_str()];
            exact(
                &format!("count {key}"),
                exact_values(da, &path),
                exact_values(db, &path),
            );
        }
        if let (Some(la), Some(lb)) = (a.per_layer.get(workload), b.per_layer.get(workload)) {
            for m in spec.per_layer.iter().filter(|m| m.unit == "count") {
                let path = ["metrics", m.name.as_str(), "value"];
                exact(
                    &format!("count {}", m.name),
                    exact_values(la, &path),
                    exact_values(lb, &path),
                );
            }
        }

        let (fa, fb) = (failed_share(da), failed_share(db));
        if fb > fa {
            failed = true;
            let _ = writeln!(
                text,
                "{workload}: failed share rose: A {:.4} -> B {:.4}",
                fa, fb
            );
        }
    }
    Ok(Comparison { text, failed })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let lower = |a: &[f64], b: &[f64]| verdict(a, b, Better::Lower, 0.08).unwrap();
        assert_eq!(
            lower(&[100.0, 101.0, 99.0], &[100.5, 101.5, 99.5]),
            Verdict::Unchanged
        );
        assert_eq!(
            lower(&[100.0, 101.0, 99.0], &[110.0, 111.0, 109.0]),
            Verdict::Regressed
        );
        assert_eq!(
            lower(&[100.0, 101.0, 99.0], &[90.0, 91.0, 89.0]),
            Verdict::Improved
        );
        // Spread wider than the bound: the runs cannot tell…
        assert_eq!(
            lower(&[100.0, 130.0, 80.0], &[105.0, 125.0, 85.0]),
            Verdict::Unresolved
        );
        // …unless every run of B beats every run of A.
        assert_eq!(
            lower(&[100.0, 130.0, 80.0], &[60.0, 70.0, 50.0]),
            Verdict::Improved
        );
        // One run a side: never "improved", still "regressed" past the bound.
        assert_eq!(lower(&[100.0], &[95.0]), Verdict::Unchanged);
        assert_eq!(lower(&[100.0], &[109.0]), Verdict::Regressed);
        // Higher-is-better flips the direction.
        assert_eq!(
            verdict(&[2.0, 2.0], &[1.5, 1.5], Better::Higher, 0.05).unwrap(),
            Verdict::Regressed
        );
        assert!(verdict(&[], &[1.0], Better::Lower, 0.1).is_none());
    }
}
