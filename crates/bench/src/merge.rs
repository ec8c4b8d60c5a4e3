//! Shard-aware `BENCH_*.json` assembly and the JSON-level shard merge.
//!
//! The distributed-sweep workflow (`docs/BENCH_FORMAT.md`) is:
//!
//! 1. every host runs `bench --shard i/N --json shard_i.json` — same
//!    binary, same flags, different `i`. Each host builds the same full
//!    matrices and executes only its round-robin slice (seeds are derived
//!    from full-matrix positions, so sharding never changes what runs —
//!    the guarantee `tiering_runner`'s shard module pins);
//! 2. the shard files are collected anywhere and merged with
//!    `bench --merge shard_0.json ... shard_N-1.json --json merged.json`.
//!
//! [`merge_docs`] validates the union exactly like
//! `tiering_runner::SweepReport::merge` — rejecting overlapping
//! (duplicate-index or duplicate-label), missing, or inconsistent shards —
//! and reassembles each sweep section's scenario entries into canonical
//! matrix order. The merged document has the same shape as an unsharded
//! run's; scenario entries are copied through verbatim (value-level), so
//! every deterministic field (`ops`, `sim_ns`, percentiles, migrations,
//! `fingerprint`, …) is identical to the unsharded run's, and only
//! host-timing fields (`wall_s`, `serial_s`, `parallel_s`, `threads`,
//! `speedup`) reflect the distributed execution: wall times merge as the
//! **maximum** across shards (a distributed run is as slow as its slowest
//! host), thread counts as the sum. [`equal_ignoring`] makes that
//! "identical up to host timing" relation checkable.

use std::fmt;

use tiering_runner::{ShardSpec, SweepReport};

use crate::json::Json;

/// The sweep sections a BENCH document may carry, in canonical order.
/// `"trace"` is appended last (the PR-9 rule: new sections join at the end
/// so pre-existing sections stay comparable against old baselines).
pub const SECTIONS: [&str; 5] = ["single", "tiers", "colocation", "fleet", "trace"];

/// Serializes one sweep's timing section (the `"single"` /
/// `"colocation"` / `"fleet"` objects of a BENCH document). With `shard`
/// set, records the full-matrix scenario count (`"matrix_scenarios"`) the
/// shard was cut from — [`merge_docs`] needs it to validate and reassemble.
pub fn sweep_section_json(
    serial: &Option<SweepReport>,
    parallel: &Option<SweepReport>,
    identical: Option<bool>,
    speedup: Option<f64>,
    shard: Option<(ShardSpec, usize)>,
) -> String {
    use std::fmt::Write as _;

    let detail = parallel.as_ref().or(serial.as_ref()).expect("one pass ran");
    let mut json = String::new();
    let _ = write!(json, "{{\"scenarios\":{}", detail.results.len());
    if let Some((spec, matrix_len)) = shard {
        let _ = write!(
            json,
            ",\"shard_index\":{},\"shard_total\":{},\"matrix_scenarios\":{}",
            spec.index(),
            spec.total(),
            matrix_len
        );
    }
    if let Some(s) = serial {
        let _ = write!(json, ",\"serial_s\":{:.6}", s.wall.as_secs_f64());
    }
    if let Some(p) = parallel {
        let _ = write!(
            json,
            ",\"parallel_s\":{:.6},\"threads\":{}",
            p.wall.as_secs_f64(),
            p.threads
        );
    }
    if let Some(x) = speedup {
        let _ = write!(json, ",\"speedup\":{x:.4}");
    }
    if let Some(same) = identical {
        let _ = write!(json, ",\"parallel_identical_to_serial\":{same}");
    }
    json.push_str(",\"sweep\":");
    json.push_str(&detail.to_json());
    json.push('}');
    json
}

/// Why [`merge_docs`] rejected a set of shard documents.
#[derive(Debug, Clone, PartialEq)]
pub enum MergeJsonError {
    /// No documents supplied.
    Empty,
    /// Document `doc` carries no `"shard"` object (not written with
    /// `bench --shard`).
    NotSharded {
        /// Position in the input list.
        doc: usize,
    },
    /// Two documents disagree on the shard count.
    MismatchedTotal {
        /// Count from the first document.
        expected: usize,
        /// The disagreeing count.
        found: usize,
    },
    /// The same shard index appears twice (overlapping shards).
    DuplicateShard {
        /// The repeated index.
        index: usize,
    },
    /// A shard index was never supplied (incomplete union).
    MissingShard {
        /// The absent index.
        index: usize,
    },
    /// A top-level field (protocol parameter) differs between shards.
    MismatchedField {
        /// The offending key.
        key: String,
    },
    /// A sweep section is present in some shards but not all.
    MismatchedSections {
        /// The section name.
        section: String,
    },
    /// Shards disagree on a section's full-matrix scenario count.
    MismatchedMatrixLen {
        /// The section name.
        section: String,
    },
    /// A shard's scenario count does not match its slice of the matrix.
    WrongShardLen {
        /// The section name.
        section: String,
        /// The offending shard index.
        index: usize,
        /// Entries its slice demands.
        expected: usize,
        /// Entries it carries.
        found: usize,
    },
    /// Two shards carry a scenario with the same label (overlapping
    /// matrices).
    DuplicateLabel {
        /// The section name.
        section: String,
        /// The repeated label.
        label: String,
    },
    /// Input `doc` is not valid JSON at all — a truncated or corrupted
    /// shard file (the fault injectors in `fleet-exec` produce exactly
    /// these).
    Unparseable {
        /// Position in the input list.
        doc: usize,
        /// The parser's diagnostic.
        detail: String,
    },
}

impl fmt::Display for MergeJsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeJsonError::Empty => write!(f, "no shard files to merge"),
            MergeJsonError::NotSharded { doc } => write!(
                f,
                "input {doc} has no shard identity (was it written with --shard?)"
            ),
            MergeJsonError::MismatchedTotal { expected, found } => {
                write!(f, "shards disagree on shard count: {expected} vs {found}")
            }
            MergeJsonError::DuplicateShard { index } => {
                write!(f, "shard {index} supplied more than once (overlap)")
            }
            MergeJsonError::MissingShard { index } => write!(f, "shard {index} missing"),
            MergeJsonError::MismatchedField { key } => {
                write!(f, "shards disagree on '{key}' (different protocols?)")
            }
            MergeJsonError::MismatchedSections { section } => {
                write!(f, "section '{section}' present in some shards but not all")
            }
            MergeJsonError::MismatchedMatrixLen { section } => {
                write!(f, "shards disagree on '{section}' matrix size")
            }
            MergeJsonError::WrongShardLen {
                section,
                index,
                expected,
                found,
            } => write!(
                f,
                "section '{section}': shard {index} carries {found} scenarios, \
                 its slice demands {expected}"
            ),
            MergeJsonError::DuplicateLabel { section, label } => write!(
                f,
                "section '{section}': scenario '{label}' appears in two shards (overlap)"
            ),
            MergeJsonError::Unparseable { doc, detail } => {
                write!(
                    f,
                    "input {doc} is not valid JSON ({detail}) — truncated shard file?"
                )
            }
        }
    }
}

impl std::error::Error for MergeJsonError {}

/// Exact non-negative integer member: `1.5` and `-1` are *not* shard
/// indices (a float-coerced `-1` would otherwise saturate into slot 0 and
/// mis-bin the shard).
fn usize_field(doc: &Json, key: &str) -> Option<usize> {
    doc.get(key)
        .and_then(Json::as_i128)
        .and_then(|n| usize::try_from(n).ok())
}

/// Merges shard BENCH documents (any order) into one document shaped like
/// an unsharded run's. See the module docs for the validation and
/// reassembly rules.
pub fn merge_docs(docs: &[Json]) -> Result<Json, MergeJsonError> {
    if docs.is_empty() {
        return Err(MergeJsonError::Empty);
    }

    // Establish each document's shard identity and order them by index.
    let mut total: Option<usize> = None;
    let mut by_index: Vec<Option<&Json>> = Vec::new();
    for (i, doc) in docs.iter().enumerate() {
        let shard = doc
            .get("shard")
            .ok_or(MergeJsonError::NotSharded { doc: i })?;
        let (index, t) = match (usize_field(shard, "index"), usize_field(shard, "total")) {
            (Some(ix), Some(t)) if t > 0 && ix < t => (ix, t),
            _ => return Err(MergeJsonError::NotSharded { doc: i }),
        };
        let expected = *total.get_or_insert(t);
        if t != expected {
            return Err(MergeJsonError::MismatchedTotal { expected, found: t });
        }
        if by_index.is_empty() {
            by_index = vec![None; expected];
        }
        if by_index[index].is_some() {
            return Err(MergeJsonError::DuplicateShard { index });
        }
        by_index[index] = Some(doc);
    }
    if let Some(index) = by_index.iter().position(Option::is_none) {
        return Err(MergeJsonError::MissingShard { index });
    }
    let total = total.expect("at least one doc");
    let ordered: Vec<&Json> = by_index.into_iter().map(|d| d.expect("filled")).collect();

    // Walk shard 0's top-level members to keep the unsharded layout: drop
    // the shard identity, merge sweep sections, and copy everything else
    // through after checking the shards agree on it.
    let Json::Obj(members) = ordered[0] else {
        return Err(MergeJsonError::NotSharded { doc: 0 });
    };
    // Symmetric protocol check: a key only *other* shards carry (e.g. a
    // newer bench build's extra field) is just as foreign as a
    // disagreeing value, and must not vanish silently in the merge.
    // `"compare"` is exempt on both sides: older builds wrote per-host
    // perf deltas there (wall-clock ratios against some baseline file),
    // which legitimately differ host to host and cannot be meaningfully
    // merged — it is dropped, like the other host-timing fields are
    // recomputed.
    for doc in &ordered[1..] {
        if let Json::Obj(other_members) = doc {
            for (key, _) in other_members {
                if key != "compare" && !members.iter().any(|(k, _)| k == key) {
                    return Err(MergeJsonError::MismatchedField { key: key.clone() });
                }
            }
        }
    }
    let mut out = Json::obj();
    for (key, value) in members {
        if key == "shard" || key == "compare" {
            continue;
        }
        if SECTIONS.contains(&key.as_str()) {
            out.set(key, merge_section(key, &ordered, total)?);
            continue;
        }
        for doc in &ordered[1..] {
            if doc.get(key) != Some(value) {
                return Err(MergeJsonError::MismatchedField { key: key.clone() });
            }
        }
        out.set(key, value.clone());
    }
    // A section only some shards ran (e.g. one host passed --no-fleet) is
    // an inconsistent union even when shard 0 lacks it.
    for section in SECTIONS {
        let present = ordered.iter().filter(|d| d.get(section).is_some()).count();
        if present != 0 && present != total {
            return Err(MergeJsonError::MismatchedSections {
                section: section.to_string(),
            });
        }
    }
    out.set("merged_from", Json::Int(total as i128));
    Ok(out)
}

/// [`merge_docs`] over raw file contents: parses each text (typed
/// [`MergeJsonError::Unparseable`] instead of a panic on truncated or
/// corrupted shard files) and merges. This is the text plane the
/// fleet executor's `ProcessWorker` artifacts feed.
pub fn merge_texts<S: AsRef<str>>(texts: &[S]) -> Result<Json, MergeJsonError> {
    let docs = texts
        .iter()
        .enumerate()
        .map(|(doc, text)| {
            crate::json::parse(text.as_ref()).map_err(|e| MergeJsonError::Unparseable {
                doc,
                detail: e.to_string(),
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    merge_docs(&docs)
}

/// Checks that `text` is a well-formed shard document for exactly `spec`:
/// parseable, carrying `spec`'s shard identity, with every sweep section's
/// scenario count matching its round-robin slice. The fleet executor uses
/// this as its artifact validator, so a corrupted or truncated shard json
/// is rejected (and the shard retried elsewhere) instead of poisoning the
/// final merge.
pub fn validate_shard_text(spec: ShardSpec, text: &str) -> Result<(), String> {
    let doc = crate::json::parse(text).map_err(|e| format!("unparseable shard json: {e}"))?;
    let shard = doc.get("shard").ok_or("document has no shard identity")?;
    let (index, total) = match (usize_field(shard, "index"), usize_field(shard, "total")) {
        (Some(ix), Some(t)) if t > 0 && ix < t => (ix, t),
        _ => return Err("document has no shard identity".to_string()),
    };
    if index != spec.index() || total != spec.total() {
        return Err(format!(
            "shard identity {index}/{total} does not match the assigned shard {spec}"
        ));
    }
    for section in SECTIONS {
        let Some(s) = doc.get(section) else { continue };
        let matrix_len = usize_field(s, "matrix_scenarios")
            .ok_or_else(|| format!("section '{section}' lacks matrix_scenarios"))?;
        let entries = s
            .get("sweep")
            .and_then(|sw| sw.get("scenarios"))
            .and_then(Json::as_array)
            .map_or(0, <[Json]>::len);
        let expected = spec.count_of(matrix_len);
        if entries != expected {
            return Err(format!(
                "section '{section}': {entries} scenarios, slice demands {expected}"
            ));
        }
    }
    Ok(())
}

/// Merges one sweep section across the index-ordered shard documents.
fn merge_section(name: &str, ordered: &[&Json], total: usize) -> Result<Json, MergeJsonError> {
    let section_err = || MergeJsonError::MismatchedSections {
        section: name.to_string(),
    };
    let sections: Vec<&Json> = ordered
        .iter()
        .map(|d| d.get(name).ok_or_else(section_err))
        .collect::<Result<_, _>>()?;

    // Full-matrix size: all shards must agree.
    let matrix_len = usize_field(sections[0], "matrix_scenarios")
        .ok_or(MergeJsonError::NotSharded { doc: 0 })?;
    if sections
        .iter()
        .any(|s| usize_field(s, "matrix_scenarios") != Some(matrix_len))
    {
        return Err(MergeJsonError::MismatchedMatrixLen {
            section: name.to_string(),
        });
    }

    // Per-shard scenario entries, validated against the slice sizes.
    let mut slices: Vec<std::slice::Iter<'_, Json>> = Vec::with_capacity(total);
    for (index, s) in sections.iter().enumerate() {
        let entries = s
            .get("sweep")
            .and_then(|sw| sw.get("scenarios"))
            .and_then(Json::as_array)
            .unwrap_or(&[]);
        // The ownership formula lives in one place: ShardSpec.
        let expected = ShardSpec::new(index, total)
            .expect("index ranges over 0..total")
            .count_of(matrix_len);
        if entries.len() != expected {
            return Err(MergeJsonError::WrongShardLen {
                section: name.to_string(),
                index,
                expected,
                found: entries.len(),
            });
        }
        slices.push(entries.iter());
    }

    // Round-robin reassembly into canonical matrix order, with label
    // overlap detection across shards.
    let mut merged_entries = Vec::with_capacity(matrix_len);
    let mut labels = std::collections::HashSet::new();
    for g in 0..matrix_len {
        let entry = slices[g % total].next().expect("validated above");
        if let Some(label) = entry.str("label") {
            if !labels.insert(label.to_string()) {
                return Err(MergeJsonError::DuplicateLabel {
                    section: name.to_string(),
                    label: label.to_string(),
                });
            }
        }
        merged_entries.push(entry.clone());
    }

    // Timing summary: max wall across hosts, summed workers.
    let fold = |key: &str, f: fn(f64, f64) -> f64| -> Option<f64> {
        sections
            .iter()
            .map(|s| s.num(key))
            .reduce(|a, b| match (a, b) {
                (Some(a), Some(b)) => Some(f(a, b)),
                _ => None,
            })
            .flatten()
    };
    let serial_s = fold("serial_s", f64::max);
    let parallel_s = fold("parallel_s", f64::max);
    let threads = fold("threads", |a, b| a + b);
    let identical = sections
        .iter()
        .map(|s| s.get("parallel_identical_to_serial"))
        .try_fold(true, |acc, v| match v {
            Some(Json::Bool(b)) => Some(acc && *b),
            _ => None,
        });

    let mut out = Json::obj();
    out.set("scenarios", Json::Int(matrix_len as i128));
    if let Some(s) = serial_s {
        out.set("serial_s", Json::Num(s));
    }
    if let Some(p) = parallel_s {
        out.set("parallel_s", Json::Num(p));
        if let Some(t) = threads {
            out.set("threads", Json::Int(t as i128));
        }
    }
    if let (Some(s), Some(p)) = (serial_s, parallel_s) {
        if p > 0.0 {
            out.set("speedup", Json::Num(s / p));
        }
    }
    if let Some(same) = identical {
        out.set("parallel_identical_to_serial", Json::Bool(same));
    }
    let sweep_wall = sections
        .iter()
        .filter_map(|s| s.get("sweep").and_then(|sw| sw.num("wall_s")))
        .fold(0.0, f64::max);
    let sweep_threads: f64 = sections
        .iter()
        .filter_map(|s| s.get("sweep").and_then(|sw| sw.num("threads")))
        .sum();
    let mut sweep = Json::obj();
    sweep.set("threads", Json::Int(sweep_threads as i128));
    sweep.set("wall_s", Json::Num(sweep_wall));
    sweep.set("scenarios", Json::Arr(merged_entries));
    out.set("sweep", sweep);
    Ok(out)
}

/// Deep value equality that skips object members named in `ignored` — the
/// "identical up to host timing" relation between a merged document and an
/// unsharded run (pass [`HOST_TIMING_KEYS`]). Arrays must match in length
/// and order.
pub fn equal_ignoring(a: &Json, b: &Json, ignored: &[&str]) -> bool {
    match (a, b) {
        (Json::Obj(ma), Json::Obj(mb)) => {
            let keys = |m: &[(String, Json)]| -> Vec<String> {
                m.iter()
                    .map(|(k, _)| k.clone())
                    .filter(|k| !ignored.contains(&k.as_str()))
                    .collect()
            };
            let (ka, kb) = (keys(ma), keys(mb));
            // Same member set (order-insensitive: the merge may append).
            let mut sa = ka.clone();
            let mut sb = kb.clone();
            sa.sort();
            sb.sort();
            sa == sb
                && ka.iter().all(|k| match (a.get(k), b.get(k)) {
                    (Some(va), Some(vb)) => equal_ignoring(va, vb, ignored),
                    _ => false,
                })
        }
        (Json::Arr(va), Json::Arr(vb)) => {
            va.len() == vb.len()
                && va
                    .iter()
                    .zip(vb)
                    .all(|(x, y)| equal_ignoring(x, y, ignored))
        }
        // Numbers compare across `Int`/`Num` variants: exactly when both
        // are integer-syntax, as `f64` when the merge constructed one side.
        (Json::Int(_) | Json::Num(_), Json::Int(_) | Json::Num(_)) => {
            match (a.as_i128(), b.as_i128()) {
                (Some(x), Some(y)) => x == y,
                _ => a.as_f64() == b.as_f64(),
            }
        }
        _ => a == b,
    }
}

/// The fields that legitimately differ between a sharded-and-merged run
/// and an unsharded one: host timing and merge provenance. Everything else
/// in a BENCH document is deterministic.
pub const HOST_TIMING_KEYS: &[&str] = &[
    "wall_s",
    "serial_s",
    "parallel_s",
    "threads",
    "speedup",
    "merged_from",
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use tiering_policies::PolicyKind;
    use tiering_runner::{ScenarioMatrix, ShardedSweep, SweepRunner};
    use tiering_sim::SimConfig;
    use tiering_workloads::WorkloadId;

    fn matrix() -> Vec<tiering_runner::Scenario> {
        ScenarioMatrix::new(SimConfig::default().with_max_ops(1_000), 0xBE7C)
            .workloads([WorkloadId::CdnCacheLib, WorkloadId::Silo])
            .policies([PolicyKind::HybridTier, PolicyKind::FirstTouch])
            .build()
    }

    /// A BENCH document as `bench --shard i/N` would write it (serial-only,
    /// `"single"` section).
    fn shard_doc(spec: ShardSpec) -> Json {
        let matrix_len = matrix().len();
        let report = ShardedSweep::new(spec, SweepRunner::serial()).run(matrix());
        let section = sweep_section_json(
            &Some(report.sweep),
            &None,
            None,
            None,
            Some((spec, matrix_len)),
        );
        parse(&format!(
            "{{\"bench\":\"policy_comparison_sweep\",\"ops_per_scenario\":1000,\
             \"shard\":{{\"index\":{},\"total\":{}}},\"single\":{section}}}",
            spec.index(),
            spec.total()
        ))
        .unwrap()
    }

    /// The matching unsharded document.
    fn unsharded_doc() -> Json {
        let sweep = SweepRunner::serial().run(matrix());
        let section = sweep_section_json(&Some(sweep), &None, None, None, None);
        parse(&format!(
            "{{\"bench\":\"policy_comparison_sweep\",\"ops_per_scenario\":1000,\
             \"single\":{section}}}"
        ))
        .unwrap()
    }

    #[test]
    fn merged_shards_equal_unsharded_up_to_host_timing() {
        let docs: Vec<Json> = ShardSpec::all(3).map(shard_doc).collect();
        let merged = merge_docs(&docs).expect("complete union merges");
        let unsharded = unsharded_doc();
        assert!(
            equal_ignoring(&merged, &unsharded, HOST_TIMING_KEYS),
            "merged != unsharded:\n{}\n{}",
            merged.render(),
            unsharded.render()
        );
        // The deterministic per-scenario fields really are byte-equal:
        // labels, seeds, fingerprints in canonical order.
        let entries = |d: &Json| -> Vec<(String, i128, String)> {
            d.get("single")
                .unwrap()
                .get("sweep")
                .unwrap()
                .get("scenarios")
                .unwrap()
                .as_array()
                .unwrap()
                .iter()
                .map(|s| {
                    (
                        s.str("label").unwrap().to_string(),
                        s.get("seed").unwrap().as_i128().expect("exact seed"),
                        s.str("fingerprint").unwrap().to_string(),
                    )
                })
                .collect()
        };
        assert_eq!(entries(&merged), entries(&unsharded));
    }

    #[test]
    fn merge_is_order_invariant() {
        let mut docs: Vec<Json> = ShardSpec::all(3).map(shard_doc).collect();
        let forward = merge_docs(&docs).unwrap();
        docs.reverse();
        let backward = merge_docs(&docs).unwrap();
        assert_eq!(forward.render(), backward.render());
    }

    #[test]
    fn merge_rejects_bad_unions() {
        let docs: Vec<Json> = ShardSpec::all(3).map(shard_doc).collect();
        assert_eq!(merge_docs(&[]), Err(MergeJsonError::Empty));
        assert_eq!(
            merge_docs(&[docs[0].clone(), docs[2].clone()]),
            Err(MergeJsonError::MissingShard { index: 1 })
        );
        assert_eq!(
            merge_docs(&[docs[0].clone(), docs[1].clone(), docs[1].clone()]),
            Err(MergeJsonError::DuplicateShard { index: 1 })
        );
        let two_way = shard_doc(ShardSpec::new(0, 2).unwrap());
        assert_eq!(
            merge_docs(&[docs[0].clone(), two_way]),
            Err(MergeJsonError::MismatchedTotal {
                expected: 3,
                found: 2
            })
        );
        let unsharded = unsharded_doc();
        assert_eq!(
            merge_docs(&[unsharded]),
            Err(MergeJsonError::NotSharded { doc: 0 })
        );
        // Protocol mismatch.
        let mut other_ops = docs[1].clone();
        other_ops.set("ops_per_scenario", Json::Num(9.0));
        assert_eq!(
            merge_docs(&[docs[0].clone(), other_ops, docs[2].clone()]),
            Err(MergeJsonError::MismatchedField {
                key: "ops_per_scenario".into()
            })
        );
        // Symmetric: a key only a *non-zero* shard carries is foreign too.
        let mut extra = docs[2].clone();
        extra.set("future_field", Json::Bool(true));
        assert_eq!(
            merge_docs(&[docs[0].clone(), docs[1].clone(), extra]),
            Err(MergeJsonError::MismatchedField {
                key: "future_field".into()
            })
        );
    }

    #[test]
    fn solo_shard_merges_to_itself() {
        let doc = shard_doc(ShardSpec::solo());
        let merged = merge_docs(&[doc]).unwrap();
        assert!(equal_ignoring(&merged, &unsharded_doc(), HOST_TIMING_KEYS));
    }
}
