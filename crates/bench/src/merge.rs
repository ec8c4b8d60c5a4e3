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
//! [`merge_docs`] is a caller of the runner's one shard rule,
//! [`tiering_runner::reassemble`]: once over the documents (each shard's
//! one document of a `total`-item matrix), which orders them and rejects a
//! foreign shard count, an overlap or a gap, and once per sweep section
//! over its scenario entries, which reassembles them into canonical matrix
//! order and rejects a foreign `matrix_scenarios` or a wrong entry count.
//! The JSON-only checks are its own: a document without a shard identity,
//! disagreeing protocol fields, a section only some shards carry, and one
//! label in two shards. Every member [`sweep_section_json`] writes is
//! deterministic and scenario entries are copied through verbatim, so the
//! merged document renders **byte-identical** to an unsharded run's with
//! the same `--ops` and `--sim-ms`. Members the encoder does not write —
//! the host timing, the `"parallel_identical_to_serial"` verdict and the
//! legacy `"compare"` data older builds recorded — are accepted on input
//! and not carried over.

use std::fmt;

use tiering_runner::{reassemble, MergeError, ScenarioResult, ShardSpec, SweepReport};

use crate::json::Json;

/// The sweep sections a BENCH document may carry, in canonical order.
/// `"trace"` is appended last (the PR-9 rule: new sections join at the
/// end).
pub const SECTIONS: [&str; 5] = ["single", "tiers", "colocation", "fleet", "trace"];

/// Per-tenant rows kept in a multi-tenant scenario entry: large synthetic
/// fleets would dominate the file with rows nobody reads, so the entry
/// keeps the head and records how many were dropped (`"tenants_elided"`).
const MAX_TENANT_ROWS: usize = 32;

fn int(n: u64) -> Json {
    Json::Int(i128::from(n))
}

fn text(s: &str) -> Json {
    Json::Str(s.to_string())
}

/// One scenario entry of a sweep section (schema: `docs/BENCH_FORMAT.md`).
/// Every member is a function of the scenario recipe alone.
fn scenario_json(r: &ScenarioResult) -> Json {
    let mut e = Json::obj();
    e.set("label", text(&r.label));
    e.set("workload", text(&r.workload));
    e.set("policy", text(&r.policy));
    e.set("tier", text(&r.tier));
    e.set("seed", int(r.seed));
    e.set("ops", int(r.report.ops));
    e.set("sim_ns", int(r.report.sim_ns));
    e.set("p50_ns", int(r.report.latency.p50_ns));
    e.set("mean_ns", Json::Num(r.report.latency.mean_ns));
    e.set("throughput_mops", Json::Num(r.report.throughput_mops()));
    e.set("fast_hit_frac", Json::Num(r.report.fast_hit_frac));
    e.set("promotions", int(r.report.migrations.promotions));
    e.set("demotions", int(r.report.migrations.demotions));
    e.set("samples", int(r.report.samples));
    e.set("metadata_bytes", int(r.report.metadata_bytes as u64));
    e.set(
        "fingerprint",
        Json::Str(format!("{:016x}", r.fingerprint())),
    );
    if let Some(multi) = &r.multi {
        e.set("fairness", Json::Num(multi.fairness_index()));
        e.set("rebalances", int(multi.rebalances.len() as u64));
        e.set("churn_events", int(multi.churn.len() as u64));
        e.set("fast_budget_pages", int(multi.fast_budget_pages));
        let rows = multi.tenants.iter().take(MAX_TENANT_ROWS).map(|t| {
            let mut row = Json::obj();
            row.set("name", text(&t.name));
            row.set("ops", int(t.report.ops));
            row.set("sim_ns", int(t.report.sim_ns));
            row.set("fast_hit_frac", Json::Num(t.report.fast_hit_frac));
            row.set("initial_quota", int(t.initial_quota_pages));
            row.set("final_quota", int(t.final_quota_pages));
            row.set("promotions", int(t.report.migrations.promotions));
            row.set("demotions", int(t.report.migrations.demotions));
            row
        });
        e.set("tenants", Json::Arr(rows.collect()));
        if multi.tenants.len() > MAX_TENANT_ROWS {
            let elided = multi.tenants.len() - MAX_TENANT_ROWS;
            e.set("tenants_elided", int(elided as u64));
        }
    }
    e
}

/// One sweep section (the `"single"` / `"colocation"` / … objects of a
/// BENCH document) over `sweep`'s results. With `shard` set, the section
/// records the shard identity and the full-matrix scenario count
/// (`"matrix_scenarios"`) the shard was cut from — [`merge_docs`] needs
/// them to validate and reassemble.
pub fn sweep_section_json(sweep: &SweepReport, shard: Option<(ShardSpec, usize)>) -> Json {
    let mut section = Json::obj();
    section.set("scenarios", int(sweep.results.len() as u64));
    if let Some((spec, matrix_len)) = shard {
        section.set("shard_index", int(spec.index() as u64));
        section.set("shard_total", int(spec.total() as u64));
        section.set("matrix_scenarios", int(matrix_len as u64));
    }
    let entries = sweep.results.iter().map(scenario_json).collect();
    section.set("sweep", sweep_json(entries));
    section
}

/// The `"sweep"` member of a section: the scenario entries, wrapped.
fn sweep_json(entries: Vec<Json>) -> Json {
    let mut sweep = Json::obj();
    sweep.set("scenarios", Json::Arr(entries));
    sweep
}

/// Why [`merge_docs`] rejected a set of shard documents.
#[derive(Debug, Clone, PartialEq)]
pub enum MergeJsonError {
    /// Document `doc` carries no `"shard"` object (not written with
    /// `bench --shard`), or one of its sweep sections no
    /// `"matrix_scenarios"`.
    NotSharded {
        /// Position in the input list.
        doc: usize,
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
    /// Two shards carry a scenario with the same label (overlapping
    /// matrices).
    DuplicateLabel {
        /// The section name.
        section: String,
        /// The repeated label.
        label: String,
    },
    /// Input `doc` is not valid JSON at all — a truncated or corrupted
    /// shard file.
    Unparseable {
        /// Position in the input list.
        doc: usize,
        /// The parser's diagnostic.
        detail: String,
    },
    /// The shard rule rejected the union: of the documents' shard
    /// identities (`section` is `None`) or of one section's scenario
    /// entries.
    Union {
        /// The section whose entries were rejected, if any.
        section: Option<String>,
        /// What [`reassemble`] found.
        error: MergeError,
    },
}

impl fmt::Display for MergeJsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeJsonError::NotSharded { doc } => write!(
                f,
                "input {doc} has no shard identity (was it written with --shard?)"
            ),
            MergeJsonError::MismatchedField { key } => {
                write!(f, "shards disagree on '{key}' (different protocols?)")
            }
            MergeJsonError::MismatchedSections { section } => {
                write!(f, "section '{section}' present in some shards but not all")
            }
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
            MergeJsonError::Union {
                section: None,
                error,
            } => write!(f, "{error}"),
            MergeJsonError::Union {
                section: Some(section),
                error,
            } => write!(f, "section '{section}': {error}"),
        }
    }
}

impl std::error::Error for MergeJsonError {}

/// The `{"index": i, "total": N}` identity of a shard document, when it
/// has a well-formed one.
fn shard_identity(doc: &Json) -> Option<ShardSpec> {
    let shard = doc.get("shard")?;
    ShardSpec::new(usize_field(shard, "index")?, usize_field(shard, "total")?).ok()
}

/// The scenario entries of a sweep section (none when malformed).
fn entries(section: &Json) -> &[Json] {
    section
        .get("sweep")
        .and_then(|sw| sw.get("scenarios"))
        .and_then(Json::as_array)
        .unwrap_or(&[])
}

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
    // Each document is the one item its shard owns of a `total`-item
    // matrix, so the shard rule orders them and rejects a foreign total,
    // an overlap or a gap. The first document without an identity ends
    // the union there and is reported unless an earlier one was rejected.
    let mut not_sharded = None;
    let identities = docs.iter().enumerate().map_while(|(doc, json)| {
        let spec = shard_identity(json);
        if spec.is_none() {
            not_sharded = Some(doc);
        }
        spec.map(|spec| (spec, spec.total(), vec![(doc, json)]))
    });
    let ordered = reassemble(identities);
    if let Some(doc) = not_sharded {
        return Err(MergeJsonError::NotSharded { doc });
    }
    let ordered = ordered.map_err(|error| MergeJsonError::Union {
        section: None,
        error,
    })?;

    // Walk shard 0's top-level members to keep the unsharded layout: drop
    // the shard identity, merge sweep sections, and copy everything else
    // through after checking the shards agree on it.
    let Json::Obj(members) = ordered[0].1 else {
        return Err(MergeJsonError::NotSharded { doc: ordered[0].0 });
    };
    // A section only some shards carry is an inconsistent union, whichever
    // shard lacks it — shard 0 included, so this runs before the protocol
    // check below would call shard 0's missing section a foreign field.
    for section in SECTIONS {
        let present = ordered
            .iter()
            .filter(|(_, d)| d.get(section).is_some())
            .count();
        if present != 0 && present != ordered.len() {
            return Err(MergeJsonError::MismatchedSections {
                section: section.to_string(),
            });
        }
    }
    // Symmetric protocol check: a key only *other* shards carry (e.g. a
    // newer bench build's extra field) is just as foreign as a
    // disagreeing value, and must not vanish silently in the merge.
    // `"compare"` is exempt on both sides: older builds wrote per-host
    // perf deltas there (wall-clock ratios against some baseline file),
    // which legitimately differ host to host and cannot be meaningfully
    // merged — it is dropped.
    for (_, doc) in &ordered[1..] {
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
            out.set(key, merge_section(key, &ordered)?);
            continue;
        }
        for (_, doc) in &ordered[1..] {
            if doc.get(key) != Some(value) {
                return Err(MergeJsonError::MismatchedField { key: key.clone() });
            }
        }
        out.set(key, value.clone());
    }
    Ok(out)
}

/// [`merge_docs`] over raw file contents: parses each text (typed
/// [`MergeJsonError::Unparseable`] instead of a panic on truncated or
/// corrupted shard files) and merges. `bench --merge` reads its files
/// through this.
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

/// Merges one sweep section across the shard documents, in shard order
/// and each with its input position; [`merge_docs`] has checked that every
/// shard carries it.
fn merge_section(name: &str, ordered: &[(usize, &Json)]) -> Result<Json, MergeJsonError> {
    let sections: Vec<&Json> = ordered.iter().filter_map(|(_, d)| d.get(name)).collect();

    // Each shard's entries are its slice of a `matrix_scenarios`-entry
    // matrix: the shard rule puts them back in canonical order.
    let cuts = ShardSpec::all(ordered.len())
        .zip(ordered)
        .zip(&sections)
        .map(|((spec, &(doc, _)), section)| {
            let matrix_len = usize_field(section, "matrix_scenarios")
                .ok_or(MergeJsonError::NotSharded { doc })?;
            Ok((spec, matrix_len, entries(section).iter().collect()))
        })
        .collect::<Result<Vec<_>, MergeJsonError>>()?;
    let merged_entries: Vec<&Json> = reassemble(cuts).map_err(|error| MergeJsonError::Union {
        section: Some(name.to_string()),
        error,
    })?;
    let mut labels = std::collections::HashSet::new();
    for label in merged_entries.iter().filter_map(|e| e.str("label")) {
        if !labels.insert(label) {
            return Err(MergeJsonError::DuplicateLabel {
                section: name.to_string(),
                label: label.to_string(),
            });
        }
    }

    // Same members, same order as `sweep_section_json` without a shard:
    // anything else a shard section carried (older builds' host timing and
    // pass verdict) is not carried over.
    let mut out = Json::obj();
    out.set("scenarios", int(merged_entries.len() as u64));
    out.set(
        "sweep",
        sweep_json(merged_entries.into_iter().cloned().collect()),
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiering_policies::{ObjectiveKind, PolicyKind};
    use tiering_runner::{
        FleetMatrix, Scenario, ScenarioMatrix, ShardReport, ShardedSweep, SweepRunner,
    };
    use tiering_sim::SimConfig;
    use tiering_workloads::WorkloadId;

    fn matrix() -> Vec<Scenario> {
        ScenarioMatrix::new(SimConfig::default().with_max_ops(1_000), 0xBE7C)
            .workloads([WorkloadId::CdnCacheLib, WorkloadId::Silo])
            .policies([PolicyKind::HybridTier, PolicyKind::FirstTouch])
            .build()
    }

    /// A BENCH document with a `"single"` section only, sharded or not.
    fn doc(shard: Option<ShardSpec>) -> Json {
        let spec = shard.unwrap_or_else(ShardSpec::solo);
        let report = ShardedSweep::new(spec, SweepRunner::serial()).run(matrix());
        report_doc(&report, shard.is_some())
    }

    /// A document with `report` as its `"single"` section, with its shard
    /// identity when `sharded`.
    fn report_doc(report: &ShardReport, sharded: bool) -> Json {
        let mut doc = Json::obj();
        doc.set("bench", text("policy_comparison_sweep"));
        doc.set("ops_per_scenario", int(1_000));
        if sharded {
            let mut identity = Json::obj();
            identity.set("index", int(report.spec.index() as u64));
            identity.set("total", int(report.spec.total() as u64));
            doc.set("shard", identity);
        }
        let cut = sharded.then_some((report.spec, report.matrix_len));
        doc.set("single", sweep_section_json(&report.sweep, cut));
        doc
    }

    /// Any complete shard set, in any order, merges to the unsharded
    /// document itself — as a value and byte for byte. Five shards over
    /// the four-scenario matrix leave one shard empty.
    #[test]
    fn merge_is_order_invariant() {
        let unsharded = doc(None);
        for total in [1, 2, 3, 5] {
            let mut docs: Vec<Json> = ShardSpec::all(total).map(|s| doc(Some(s))).collect();
            for _ in 0..total {
                docs.rotate_left(1);
                docs.reverse();
                let merged = merge_docs(&docs).expect("complete union merges");
                assert_eq!(merged, unsharded, "{total} shards");
                assert_eq!(merged.render(), unsharded.render(), "{total} shards");
            }
        }
    }

    #[test]
    fn merge_rejects_bad_unions() {
        let docs: Vec<Json> = ShardSpec::all(3).map(|s| doc(Some(s))).collect();
        let union = |error| {
            Err(MergeJsonError::Union {
                section: None,
                error,
            })
        };
        assert_eq!(merge_docs(&[]), union(MergeError::Empty));
        assert_eq!(
            merge_docs(&[docs[0].clone(), docs[2].clone()]),
            union(MergeError::MissingShard { index: 1 })
        );
        assert_eq!(
            merge_docs(&[docs[0].clone(), docs[1].clone(), docs[1].clone()]),
            union(MergeError::DuplicateShard { index: 1 })
        );
        let two_way = doc(Some(ShardSpec::new(0, 2).unwrap()));
        assert_eq!(
            merge_docs(&[docs[0].clone(), two_way]),
            union(MergeError::MismatchedTotal {
                expected: 3,
                found: 2
            })
        );
        assert_eq!(
            merge_docs(&[doc(None)]),
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

    /// A section only some shards carry is the same fault whichever shard
    /// lacks it, shard 0 included, and in either input order.
    #[test]
    fn a_section_one_shard_lacks_is_mismatched_sections() {
        let shards = [0, 1].map(|i| doc(Some(ShardSpec::new(i, 2).unwrap())));
        for lacking in 0..2 {
            let mut docs = shards.clone();
            let carrier = &mut docs[1 - lacking];
            let section = carrier.get("single").expect("single section").clone();
            carrier.set("fleet", section);
            for order in [[0, 1], [1, 0]] {
                assert_eq!(
                    merge_docs(&order.map(|i| docs[i].clone())),
                    Err(MergeJsonError::MismatchedSections {
                        section: "fleet".into()
                    }),
                    "shard {lacking} lacks it, input order {order:?}"
                );
            }
        }
    }

    /// Both callers of the shard rule reject a malformed union with the
    /// same `MergeError`: the runner's merge of shard reports and this
    /// merge of the documents written from them. Identity faults are
    /// found on the documents, slice faults in the section.
    #[test]
    fn merge_docs_rejects_like_sweep_report_merge() {
        let run = |spec, matrix| ShardedSweep::new(spec, SweepRunner::serial()).run(matrix);
        let shards: Vec<ShardReport> = ShardSpec::all(3).map(|s| run(s, matrix())).collect();
        let mut short_matrix = matrix();
        short_matrix.pop();
        let foreign_matrix = run(ShardSpec::new(1, 3).unwrap(), short_matrix);
        let foreign_total = run(ShardSpec::new(0, 2).unwrap(), matrix());
        let mut short_slice = shards[0].clone();
        short_slice.sweep.results.pop();

        let [s0, s1, s2] = [0, 1, 2].map(|i| shards[i].clone());
        let cases = [
            ("duplicate", None, vec![s0.clone(), s1.clone(), s1.clone()]),
            ("missing", None, vec![s0.clone(), s2.clone()]),
            ("foreign total", None, vec![s0.clone(), foreign_total]),
            (
                "foreign matrix length",
                Some("single"),
                vec![s0.clone(), foreign_matrix, s2.clone()],
            ),
            ("short slice", Some("single"), vec![short_slice, s1, s2]),
        ];
        for (case, section, reports) in cases {
            let docs: Vec<Json> = reports.iter().map(|r| report_doc(r, true)).collect();
            let error = SweepReport::merge(reports).expect_err(case);
            assert_eq!(
                merge_docs(&docs),
                Err(MergeJsonError::Union {
                    section: section.map(String::from),
                    error,
                }),
                "{case}"
            );
        }
    }

    /// The runner's small head-count run of the large-fleet recipe: 48
    /// initial tenants plus the churn arrival's fresh slot.
    fn synthetic_fleet() -> SweepReport {
        let scenarios = FleetMatrix::new(SimConfig::default().with_max_ops(5_000), 99)
            .objectives([ObjectiveKind::MaxMin])
            .tenant_counts([48])
            .build();
        SweepRunner::serial().run(scenarios)
    }

    #[test]
    fn fleet_entries_carry_churn_and_elide_long_tenant_lists() {
        let sweep = synthetic_fleet();
        let section = sweep_section_json(&sweep, None);
        let entry = &entries(&section)[0];
        assert_eq!(entry.str("label"), Some("synth48/max-min/fleet"));
        assert_eq!(entry.get("churn_events"), Some(&Json::Int(2)));
        assert!(entry.num("fairness").is_some());
        assert!(entry.num("rebalances").unwrap() > 0.0);
        let rows = entry.get("tenants").and_then(Json::as_array).unwrap();
        assert_eq!(rows.len(), 32);
        let multi = sweep.results[0].multi.as_ref().expect("fleet scenario");
        assert_eq!(rows[0].str("name"), Some(multi.tenants[0].name.as_str()));
        assert_eq!(entry.get("tenants_elided"), Some(&Json::Int(17)));
    }

    /// `docs/BENCH_FORMAT.md` is checked against the encoder: a member
    /// added here without a line there fails.
    #[test]
    fn every_emitted_key_is_documented() {
        fn keys(v: &Json, out: &mut std::collections::BTreeSet<String>) {
            match v {
                Json::Obj(members) => {
                    for (k, v) in members {
                        out.insert(k.clone());
                        keys(v, out);
                    }
                }
                Json::Arr(items) => items.iter().for_each(|v| keys(v, out)),
                _ => {}
            }
        }
        // A sharded single-tenant section and a fleet section long enough
        // to elide tenant rows: between them, every member there is.
        let spec = ShardSpec::new(0, 2).unwrap();
        let single = ShardedSweep::new(spec, SweepRunner::serial()).run(matrix());
        let mut emitted = std::collections::BTreeSet::new();
        keys(
            &sweep_section_json(&single.sweep, Some((spec, 4))),
            &mut emitted,
        );
        keys(&sweep_section_json(&synthetic_fleet(), None), &mut emitted);
        assert!(emitted.contains("matrix_scenarios") && emitted.contains("tenants_elided"));
        let doc = include_str!("../../../docs/BENCH_FORMAT.md");
        for key in emitted {
            assert!(doc.contains(&format!("\"{key}\"")), "{key} is undocumented");
        }
    }

    /// The trace crate's corruption-matrix technique on the text plane:
    /// every prefix and every flipped byte of a real shard document goes to
    /// both entry points that take outside text. Returning at all is the
    /// assertion — `Ok` is legitimate (a flipped digit is still a
    /// document), a typed error is the rest, a panic is the bug.
    #[test]
    fn every_prefix_and_flipped_byte_of_a_shard_document_is_handled() {
        let [zero, one] = [0, 1].map(|i| ShardSpec::new(i, 2).unwrap());
        let (good, other) = (doc(Some(zero)).render(), doc(Some(one)).render());
        assert!(merge_texts(&[good.as_str(), other.as_str()]).is_ok());
        let survives = |damaged: &str| {
            let _ = crate::json::parse(damaged);
            let _ = merge_texts(&[damaged, other.as_str()]);
            let _ = merge_texts(&[other.as_str(), damaged]);
        };
        // The document is ASCII, so every byte offset is a char boundary.
        for cut in 0..good.len() {
            assert!(crate::json::parse(&good[..cut]).is_err(), "prefix {cut}");
            survives(&good[..cut]);
        }
        // Low bit: characters turn into their neighbours (`"`→`#`, `,`→`-`,
        // `:`→`;`, digits ±1). Bit 5 flips case and turns structure into
        // control bytes. The top bit leaves ASCII, so a lossy reader hands
        // us U+FFFD in its place.
        for at in 0..good.len() {
            for mask in [0x01u8, 0x20, 0x80] {
                let mut bytes = good.clone().into_bytes();
                bytes[at] ^= mask;
                survives(&String::from_utf8_lossy(&bytes));
            }
        }
    }
}
