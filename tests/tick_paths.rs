//! Tier-1 pin of every policy's tick path: the fast-tier demotion sweeps of
//! all seven ledger policies on the 2-tier testbed, and their middle-rung
//! cascades on both ladder presets. The 3-tier golden
//! (`crates/runner/tests/golden/tier_ladder.txt`) snapshots only
//! HybridTier/Memtis/NeoMem; the TPP/AutoNUMA/ARC/TwoQ cascades and the
//! whole 4-tier preset are pinned here and nowhere else below the
//! full-scale `benchmark` digests.

use hybridtier::prelude::*;

/// `ScenarioResult::fingerprint()` per policy (rows: `PolicyKind::COMPARED`
/// order, then NeoMem) on 1:8, dram-cxl-nvme and archive (columns).
const PINNED: [[u64; 3]; 7] = [
    [
        0x9185_556a_83af_37ea,
        0x36ca_281f_1ae7_f896,
        0x15f8_85ad_7870_612e,
    ],
    [
        0x6672_903f_7d5d_0091,
        0xa257_0112_d863_f931,
        0x5484_2cd3_7609_cd51,
    ],
    [
        0x8bf2_77dc_f0de_b4dd,
        0x137d_b154_97b9_82f3,
        0x41a0_712c_49f3_d982,
    ],
    [
        0x1148_6902_0d2a_bd2b,
        0x632e_4e9e_9a12_dca7,
        0x45fa_1ef1_e182_1372,
    ],
    [
        0x8ace_8264_4889_1eb9,
        0xd367_9fe7_5fef_33df,
        0xf12c_35f1_899e_f46b,
    ],
    [
        0x20c6_e711_554f_db06,
        0x5379_f1ba_6338_5b00,
        0x232c_cd3d_3934_7ac4,
    ],
    [
        0xa60d_538b_1067_fc35,
        0x9426_da49_1e8d_b16f,
        0xb716_e126_34e7_ca5b,
    ],
];

#[test]
fn every_tick_path_fingerprint_is_pinned() {
    let config = SimConfig::default().with_max_ops(60_000);
    let (id, seed) = (WorkloadId::CdnCacheLib, 0x71C4_5EED);
    let got: Vec<[u64; 3]> = PolicyKind::COMPARED
        .into_iter()
        .chain([PolicyKind::NeoMem])
        .map(|kind| {
            // ARC and TwoQ demote from their sample hook; their only tick
            // path is the cascade, a structural no-op on two tiers.
            let cascade_only = matches!(kind, PolicyKind::Arc | PolicyKind::TwoQ);
            let two_tier = Scenario::suite(id, kind, TierRatio::OneTo8, &config, seed);
            let [dram_cxl_nvme, archive] = LadderKind::ALL
                .map(|ladder| Scenario::suite_ladder(id, kind, ladder, &config, seed));
            [
                (two_tier, !cascade_only),
                (dram_cxl_nvme, true),
                (archive, true),
            ]
            .map(|(scenario, sweeps)| {
                let result = scenario.run();
                assert!(
                    !sweeps || result.report.migrations.demotions > 0,
                    "{}: nothing demoted, the pin would be vacuous",
                    result.label
                );
                result.fingerprint()
            })
        })
        .collect();
    assert_eq!(got, PINNED, "a tick path moved; got {got:#018x?}");
}

/// `social/archive-1to64/HybridTier` at 100 000 ops: the one pinned run in
/// which HybridTier's demotion scan goes quiet (every rung-0 page
/// momentum-hot over a whole revolution), so most of its scans replay a
/// recorded revolution instead of walking one (≈ 2 260 replays). The
/// fingerprint was recorded while every scan still walked. CDN's
/// address space is larger than `max_scan_per_call`, and this run at
/// 60 000 ops never goes quiet. About 1 s in a debug build on 2 vCPUs.
#[test]
fn quiet_demotion_revolutions_are_pinned() {
    let config = SimConfig::default().with_max_ops(100_000);
    let result = Scenario::suite_ladder(
        WorkloadId::SocialCacheLib,
        PolicyKind::HybridTier,
        LadderKind::Archive,
        &config,
        0x71C4_5EED,
    )
    .run();
    assert!(result.report.migrations.demotions > 0);
    assert_eq!(
        result.fingerprint(),
        0xf3ff_8ebc_a70b_af2c,
        "a quiet revolution's replay moved; got {:#018x}",
        result.fingerprint()
    );
}
