//! Regression tests for `bench --merge` on minimal and partially-written
//! shard documents — truncated files, corrupted prefixes, hand-degraded
//! documents and the shape older builds wrote (host-timing members, a
//! `"compare"` section). The merge must reject these with a
//! typed [`MergeJsonError`] or merge them losslessly; it must never panic,
//! and what an older writer added must never abort an otherwise valid
//! union.

use hybridtier_bench::json::{parse, Json};
use hybridtier_bench::merge::{merge_docs, merge_texts, MergeJsonError};

/// A well-formed 2-way shard document over a 3-scenario matrix: shard 0
/// owns indices {0, 2}, shard 1 owns {1}. The timing members and the
/// pass verdict are the old-writer case: today's encoder writes none of
/// them.
fn shard_text(index: usize) -> String {
    let entries = match index {
        0 => {
            r#"[{"label":"a","seed":1,"fingerprint":"fa"},{"label":"c","seed":3,"fingerprint":"fc"}]"#
        }
        _ => r#"[{"label":"b","seed":2,"fingerprint":"fb"}]"#,
    };
    format!(
        "{{\"bench\":\"policy_comparison_sweep\",\"ops_per_scenario\":5,\
         \"shard\":{{\"index\":{index},\"total\":2}},\
         \"single\":{{\"scenarios\":{n},\"shard_index\":{index},\"shard_total\":2,\
         \"matrix_scenarios\":3,\"serial_s\":0.5,\"parallel_identical_to_serial\":true,\
         \"sweep\":{{\"threads\":1,\"wall_s\":0.5,\"scenarios\":{entries}}}}}}}",
        n = if index == 0 { 2 } else { 1 },
    )
}

fn shard_doc(index: usize) -> Json {
    parse(&shard_text(index)).expect("fixture parses")
}

#[test]
fn host_specific_compare_sections_are_dropped_not_fatal() {
    // Shard 0 carries a compare section (host-timing deltas against some
    // baseline), shard 1 carries a *different* one — and a third variant
    // carries none at all. None of these may abort the merge: compare
    // data is per-host and is dropped.
    let mut with_compare = shard_doc(0);
    with_compare.set(
        "compare",
        parse(r#"[{"sweep":"single","throughput_ratio":1.25}]"#).unwrap(),
    );
    let mut other_compare = shard_doc(1);
    other_compare.set(
        "compare",
        parse(r#"[{"sweep":"single","throughput_ratio":0.75}]"#).unwrap(),
    );

    for second in [other_compare, shard_doc(1)] {
        let merged =
            merge_docs(&[with_compare.clone(), second]).expect("compare must not abort a merge");
        assert!(merged.get("compare").is_none(), "compare must be dropped");
        let labels: Vec<&str> = merged
            .get("single")
            .and_then(|s| s.get("sweep"))
            .and_then(|s| s.get("scenarios"))
            .and_then(Json::as_array)
            .expect("merged sweep")
            .iter()
            .map(|e| e.str("label").unwrap())
            .collect();
        assert_eq!(labels, ["a", "b", "c"], "canonical order restored");
    }
}

#[test]
fn minimal_documents_without_sections_still_merge() {
    let docs = [
        parse(r#"{"bench":"x","shard":{"index":0,"total":2}}"#).unwrap(),
        parse(r#"{"bench":"x","shard":{"index":1,"total":2}}"#).unwrap(),
    ];
    let merged = merge_docs(&docs).expect("sectionless shards merge");
    assert_eq!(merged.str("bench"), Some("x"));
    assert_eq!(merged, parse(r#"{"bench":"x"}"#).unwrap());
}

#[test]
fn old_writer_timing_members_merge_and_are_not_carried_over() {
    let merged = merge_texts(&[shard_text(1), shard_text(0)]).expect("old shard files merge");
    assert_eq!(
        merged.render(),
        r#"{"bench":"policy_comparison_sweep","ops_per_scenario":5,"single":{"scenarios":3,"sweep":{"scenarios":[{"label":"a","seed":1,"fingerprint":"fa"},{"label":"b","seed":2,"fingerprint":"fb"},{"label":"c","seed":3,"fingerprint":"fc"}]}}}"#
    );
}

#[test]
fn non_integer_shard_identities_are_rejected() {
    // A float-coerced -1 used to saturate into slot 0 and mis-bin the
    // shard (reported as a confusing "shard 1 missing"); 1.5 truncated
    // to 1. Both must be rejected as having no shard identity.
    for identity in ["-1", "1.5"] {
        let doc = parse(&format!(
            r#"{{"shard":{{"index":{identity},"total":2}},"bench":"x"}}"#
        ))
        .unwrap();
        assert_eq!(
            merge_docs(&[doc]),
            Err(MergeJsonError::NotSharded { doc: 0 }),
            "identity {identity} must be rejected"
        );
    }
}

#[test]
fn a_section_without_matrix_scenarios_names_its_document() {
    // Shard 1 is the first input; its section lost the full-matrix size it
    // was cut from, so its entries cannot be placed.
    let mut degraded = shard_doc(1);
    let mut section = degraded.get("single").unwrap().clone();
    if let Json::Obj(members) = &mut section {
        members.retain(|(k, _)| k != "matrix_scenarios");
    }
    degraded.set("single", section);
    assert_eq!(
        merge_docs(&[degraded, shard_doc(0)]),
        Err(MergeJsonError::NotSharded { doc: 0 })
    );
}

#[test]
fn truncated_or_corrupted_texts_are_typed_errors() {
    let good = shard_text(0);
    // A file cut mid-write.
    let truncated = good[..good.len() / 2].to_string();
    let err = merge_texts(&[truncated, shard_text(1)]).unwrap_err();
    assert!(
        matches!(err, MergeJsonError::Unparseable { doc: 0, .. }),
        "got {err:?}"
    );
    // Garbage prepended to otherwise valid json.
    let corrupted = format!("!corrupt!{}", shard_text(1));
    let err = merge_texts(&[shard_text(0), corrupted]).unwrap_err();
    assert!(
        matches!(err, MergeJsonError::Unparseable { doc: 1, .. }),
        "got {err:?}"
    );
    // And the round trip: clean texts merge to the full matrix.
    let merged = merge_texts(&[shard_text(0), shard_text(1)]).expect("clean texts merge");
    assert_eq!(
        merged.get("single").and_then(|s| s.num("scenarios")),
        Some(3.0)
    );
}
