//! Chaos-hardening integration tests: the failure-shaped store states a
//! killed or faulty leg leaves behind must degrade into *counted*,
//! recoverable conditions, never corruption of campaign results.
//!
//! * A torn JSONL tail (a writer killed mid-append) is dropped on
//!   resume, counted in `store_torn_tails_dropped`, and the store stays
//!   appendable.
//! * A segment-index entry pointing at an unreadable frame is served as
//!   a miss, counted in `store_index_stale_misses` — never wrong data.
//! * A partial merge of the surviving shards of an abandoned dispatch
//!   names the missing points and still passes `verify` — including the
//!   `--strict` provenance audit.

use std::fs;
use std::path::PathBuf;

use hspa_phy::harq::HarqStats;
use resilience_core::campaign::store::{self, ChunkId, ResultStore};
use resilience_core::campaign::{
    hash, shard, BackendKind, Campaign, CampaignPoint, CampaignSettings, ShardSpec,
};
use resilience_core::config::SystemConfig;
use resilience_core::engine::SimulationEngine;
use resilience_core::montecarlo::StorageConfig;
use resilience_core::simulator::LinkSimulator;
use resilience_core::telemetry::{self, Counter};

const NAME: &str = "chaos";

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("chaos-itest-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// A store record valid under the append-time invariants: the stats
/// cover exactly the chunk's packet range.
fn record(point: u64, first_packet: usize) -> (ChunkId, HarqStats) {
    let id = ChunkId {
        point,
        first_packet,
        n_packets: 8,
    };
    let stats = HarqStats {
        packets: 8,
        delivered: 6,
        transmissions: 14,
        info_bits: 120,
        failures_at: vec![3, 2, 2, 2],
    };
    (id, stats)
}

#[test]
fn torn_jsonl_tail_is_dropped_counted_and_the_store_stays_appendable() {
    let dir = temp_dir("torn-jsonl");
    let path = dir.join(shard::store_file(
        NAME,
        ShardSpec::single(),
        BackendKind::Jsonl,
    ));
    let records = vec![record(1, 0), record(1, 8), record(2, 0)];
    store::write_records(&path, &records).unwrap();

    // Kill the writer mid-append: the file ends in a prefix of a valid
    // record line, with no terminating newline.
    let full = fs::read_to_string(&path).unwrap();
    assert!(full.ends_with('\n'));
    let torn = &full[..full.len() - 12];
    fs::write(&path, torn).unwrap();

    let before = telemetry::snapshot().counter(Counter::StoreTornTailsDropped);
    let mut resumed = ResultStore::open(&path, true).unwrap();
    let after = telemetry::snapshot().counter(Counter::StoreTornTailsDropped);
    assert!(
        after > before,
        "dropping a torn tail must bump store_torn_tails_dropped ({before} -> {after})"
    );

    // The intact records survive; the torn one is a miss, and appending
    // it fresh must not concatenate onto the torn tail.
    assert_eq!(resumed.len(), 2);
    let (torn_id, torn_stats) = &records[2];
    assert!(resumed.fetch(*torn_id).is_none());
    assert_eq!(resumed.fetch(records[0].0).as_ref(), Some(&records[0].1));
    resumed.put(*torn_id, torn_stats).unwrap();
    drop(resumed);
    let (reloaded, malformed) = store::load_all(&path).unwrap();
    assert_eq!(malformed, 1, "the terminated torn line stays skippable");
    let mut ids: Vec<ChunkId> = reloaded.iter().map(|(id, _)| *id).collect();
    ids.sort();
    let mut want: Vec<ChunkId> = records.iter().map(|(id, _)| *id).collect();
    want.sort();
    assert_eq!(ids, want, "re-appended record restores the full chunk set");

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn stale_segment_index_entry_is_a_counted_miss_not_wrong_data() {
    let dir = temp_dir("stale-index");
    let path = dir.join(shard::store_file(
        NAME,
        ShardSpec::single(),
        BackendKind::Indexed,
    ));
    let records = vec![record(1, 0), record(2, 0)];
    store::write_records(&path, &records).unwrap();
    assert!(
        path.with_extension("seg.idx").exists(),
        "replace_all must leave an index sidecar for this test to corrupt under"
    );

    // Rot the last frame's payload in place. The sidecar still points
    // at it, the segment length is unchanged — only the checksum can
    // tell, and only at fetch time.
    let mut bytes = fs::read(&path).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xff;
    fs::write(&path, &bytes).unwrap();

    let mut resumed = ResultStore::open(&path, true).unwrap();
    assert_eq!(resumed.backend_kind(), BackendKind::Indexed);
    let before = telemetry::snapshot().counter(Counter::StoreIndexStaleMisses);
    assert!(
        resumed.fetch(records[1].0).is_none(),
        "an unreadable frame must read as a miss"
    );
    let after = telemetry::snapshot().counter(Counter::StoreIndexStaleMisses);
    assert!(
        after > before,
        "a stale index hit must bump store_index_stale_misses ({before} -> {after})"
    );
    // The undamaged frame is unaffected.
    assert_eq!(resumed.fetch(records[0].0).as_ref(), Some(&records[0].1));

    let _ = fs::remove_dir_all(&dir);
}

fn demo_points(cfg: &SystemConfig) -> Vec<CampaignPoint> {
    [(25.0, 41u64), (4.0, 42), (12.0, 43), (8.0, 44)]
        .iter()
        .map(|&(snr_db, seed)| CampaignPoint {
            label: format!("point {snr_db} dB"),
            storage: StorageConfig::unprotected(0.05, cfg.llr_bits),
            snr_db,
            max_packets: 12,
            seed,
            fault_seed: None,
        })
        .collect()
}

#[test]
fn partial_merge_of_the_surviving_shard_names_missing_points_and_verifies() {
    let dir = temp_dir("partial-merge");
    let cfg = SystemConfig::fast_test();
    let sim = LinkSimulator::new(cfg);
    let points = demo_points(&cfg);
    for index in 0..2 {
        let settings = CampaignSettings {
            shard: ShardSpec::new(index, 2).unwrap(),
            initial_chunk: 4,
            ..Default::default()
        };
        let campaign =
            Campaign::new(NAME, settings, SimulationEngine::serial()).with_store_dir(&dir);
        campaign.run(&sim, &points);
    }
    // Global point indices each shard owns, straight from the same
    // fingerprint hash the campaign itself shards by.
    let owned_by = |spec: ShardSpec| -> Vec<u64> {
        points
            .iter()
            .enumerate()
            .filter(|(_, p)| {
                spec.owns(hash::point_key(&hash::point_fingerprint(
                    &cfg,
                    &p.storage,
                    p.snr_db,
                    p.seed,
                    p.fault_seed,
                )))
            })
            .map(|(i, _)| i as u64)
            .collect()
    };
    let owned = [
        owned_by(ShardSpec::new(0, 2).unwrap()),
        owned_by(ShardSpec::new(1, 2).unwrap()),
    ];
    assert!(
        owned.iter().all(|o| !o.is_empty()),
        "both shards must own points for a partial merge to mean anything (got {owned:?})"
    );

    // Shard 1 is "abandoned": its attempts are exhausted and its
    // artifacts never reach the merge.
    let survivor = dir.join(shard::manifest_file(NAME, ShardSpec::new(0, 2).unwrap()));
    let out = dir.join("merged");

    // A complete merge refuses the hole...
    let err = shard::merge_manifests(NAME, std::slice::from_ref(&survivor), &out).unwrap_err();
    assert!(
        err.to_string().contains("not a complete partition"),
        "unexpected error: {err}"
    );

    // ...the partial merge forgives it, names every missing index, and
    // the surviving results still verify — strict provenance included.
    let report = shard::merge_manifests_allowing_partial(NAME, &[survivor], &out, true).unwrap();
    assert_eq!(report.points, owned[0].len());
    assert_eq!(report.missing_points_total, owned[1].len() as u64);
    assert_eq!(
        report.missing_points, owned[1],
        "the report must name exactly the abandoned shard's point indices"
    );
    for strict in [false, true] {
        let verify = shard::verify_with(NAME, &out, ShardSpec::single(), strict).unwrap();
        assert!(
            verify.ok(),
            "partial merge must stay verifiable (strict={strict}): {:?}",
            verify.problems
        );
        assert_eq!(verify.points, owned[0].len());
        assert_eq!(verify.covered_points, owned[0].len());
    }

    let _ = fs::remove_dir_all(&dir);
}
