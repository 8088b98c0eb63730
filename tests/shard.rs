//! Integration tests of the multi-host sharding coordinator
//! (`resilience_core::campaign::shard`) and its admin tooling:
//!
//! * **Partition determinism** — any split of a fig6-style grid into
//!   1–4 shards, run independently and merged in any order, yields a
//!   manifest **byte-identical** to the single-host run's and a store
//!   holding the identical chunk set (this is the invariant the
//!   `sharded-campaign` CI job re-proves with real binaries).
//! * **Ownership** — every point is owned by exactly one shard; foreign
//!   points stay placeholders and never touch store or manifest.
//! * **gc/verify round trip** — orphaned and duplicate store records
//!   are detected, collected, and the store still serves a full re-run
//!   afterwards; gc is idempotent.

use std::fs;
use std::path::{Path, PathBuf};

use hspa_phy::harq::HarqStats;
use resilience_core::campaign::store::{self, ChunkId};
use resilience_core::campaign::{
    grid_points, shard, BackendKind, Campaign, CampaignPoint, CampaignSettings, ShardSpec,
};
use resilience_core::config::SystemConfig;
use resilience_core::engine::SimulationEngine;
use resilience_core::montecarlo::StorageConfig;
use resilience_core::simulator::LinkSimulator;

const SEED: u64 = 0xdac1_2012;
const NAME: &str = "grid";

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("shard-itest-{}-{tag}", std::process::id()))
}

fn settings(spec: ShardSpec) -> CampaignSettings {
    CampaignSettings {
        initial_chunk: 6,
        shard: spec,
        ..Default::default()
    }
}

/// Runs the reference (defect × SNR) grid for one shard spec into
/// `dir`, returning the campaign (manifest already written).
fn run_grid(dir: &Path, spec: ShardSpec) -> Campaign {
    let cfg = SystemConfig::fast_test();
    let sim = LinkSimulator::new(cfg);
    let storages = [
        StorageConfig::Quantized,
        StorageConfig::unprotected(0.10, cfg.llr_bits),
    ];
    let snrs = [4.0, 12.0, 25.0];
    let campaign =
        Campaign::new(NAME, settings(spec), SimulationEngine::with_threads(2)).with_store_dir(dir);
    campaign.run(&sim, &grid_points(&storages, &snrs, 18, SEED));
    campaign
}

/// Store records sorted into canonical order (single-host stores are in
/// execution order, merged stores in key order — compare as sets).
fn canonical_records(path: &Path) -> Vec<(ChunkId, HarqStats)> {
    let (mut records, malformed) = store::load_all(path).expect("store readable");
    assert_eq!(malformed, 0, "no torn lines expected in {}", path.display());
    records.sort_by_key(|(id, _)| *id);
    records
}

/// Applies the `code`-th permutation (factorial number system) to
/// `items` — lets the proptest below merge shards in every order.
fn permute<T>(mut items: Vec<T>, mut code: usize) -> Vec<T> {
    let mut out = Vec::new();
    while !items.is_empty() {
        let i = code % items.len();
        code /= items.len();
        out.push(items.remove(i));
    }
    out
}

#[test]
fn two_shards_merge_back_to_the_single_host_run() {
    let ref_dir = temp_dir("two-ref");
    let shard_dir = temp_dir("two-shards");
    let out_dir = shard_dir.join("merged");
    for d in [&ref_dir, &shard_dir] {
        let _ = fs::remove_dir_all(d);
    }

    let reference = run_grid(&ref_dir, ShardSpec::single());
    for i in 0..2 {
        let c = run_grid(&shard_dir, ShardSpec::new(i, 2).unwrap());
        // A shard's files are suffixed and hold only what it owns.
        assert!(c
            .store_path()
            .ends_with(format!("grid.shard-{i}-of-2.jsonl")));
        assert!(c.store_path().exists());
    }

    let report = shard::merge(NAME, &shard_dir, &out_dir).expect("merge succeeds");
    assert_eq!(report.shards, 2);
    assert_eq!(report.points, 6);
    assert_eq!(report.duplicate_chunks, 0);

    // The merged manifest is byte-identical to the single-host one...
    let merged_manifest = fs::read_to_string(&report.manifest_path).unwrap();
    let reference_manifest = fs::read_to_string(reference.manifest_path()).unwrap();
    assert_eq!(
        merged_manifest, reference_manifest,
        "merged manifest must be byte-identical to the single-host run"
    );
    // ...and the merged store holds the identical chunk set.
    assert_eq!(
        canonical_records(&report.store_path),
        canonical_records(&reference.store_path()),
    );
    // The merged pair passes consistency verification.
    let verify = shard::verify(NAME, &out_dir, ShardSpec::single()).unwrap();
    assert!(verify.ok(), "{:?}", verify.problems);
    assert_eq!(verify.covered_points, 6);
    assert_eq!(verify.orphan_chunks, 0);

    let _ = fs::remove_dir_all(&ref_dir);
    let _ = fs::remove_dir_all(&shard_dir);
}

#[test]
fn every_point_is_owned_by_exactly_one_shard() {
    let dirs: Vec<PathBuf> = (0..3).map(|i| temp_dir(&format!("own-{i}"))).collect();
    for d in &dirs {
        let _ = fs::remove_dir_all(d);
    }
    let mut owners_per_point: Vec<usize> = vec![0; 6];
    for i in 0..3 {
        let c = run_grid(&dirs[i as usize], ShardSpec::new(i, 3).unwrap());
        let manifest = c.manifest();
        assert_eq!(manifest.points_enumerated, 6);
        for p in &manifest.points {
            owners_per_point[p.index as usize] += 1;
            assert!(p.packets > 0, "owned points simulate");
        }
        // The store contains chunks only for owned keys.
        let owned_keys: Vec<u64> = manifest.points.iter().map(|p| p.key).collect();
        for (id, _) in canonical_records(&c.store_path()) {
            assert!(owned_keys.contains(&id.point), "foreign chunk in store");
        }
    }
    assert_eq!(owners_per_point, vec![1; 6], "exactly one owner per point");
    for d in &dirs {
        let _ = fs::remove_dir_all(d);
    }
}

#[test]
fn gc_and_verify_round_trip() {
    let dir = temp_dir("gc");
    let _ = fs::remove_dir_all(&dir);
    let campaign = run_grid(&dir, ShardSpec::single());
    let store_path = campaign.store_path();

    // A fresh run verifies clean: every chunk is part of its point's
    // cover, nothing is orphaned.
    let clean = shard::verify(NAME, &dir, ShardSpec::single()).unwrap();
    assert!(clean.ok(), "{:?}", clean.problems);
    assert_eq!(
        (
            clean.orphan_chunks,
            clean.stale_chunks,
            clean.duplicate_chunks
        ),
        (0, 0, 0)
    );

    // Pollute the store: one orphan (key no manifest point references)
    // and one exact duplicate of a live chunk.
    let (records, _) = store::load_all(&store_path).unwrap();
    let kept_before = records.len();
    let mut rs = resilience_core::campaign::ResultStore::open(&store_path, true).unwrap();
    let cfg = SystemConfig::fast_test();
    let mut orphan_stats = HarqStats::new(cfg.max_transmissions, cfg.payload_bits);
    orphan_stats.packets = 4;
    orphan_stats.delivered = 4;
    orphan_stats.transmissions = 4;
    rs.put(
        ChunkId {
            point: 0xdead_beef,
            first_packet: 0,
            n_packets: 4,
        },
        &orphan_stats,
    )
    .unwrap();
    drop(rs);
    let dup = records[0].clone();
    let mut all = records;
    all.push((dup.0, dup.1));
    all.push((
        ChunkId {
            point: 0xdead_beef,
            first_packet: 0,
            n_packets: 4,
        },
        orphan_stats,
    ));
    store::write_records(&store_path, &all).unwrap();

    let dirty = shard::verify(NAME, &dir, ShardSpec::single()).unwrap();
    assert!(
        dirty.ok(),
        "orphans/dups are GC fodder, not inconsistencies"
    );
    assert_eq!(dirty.orphan_chunks, 1);
    assert_eq!(dirty.duplicate_chunks, 1);

    // gc drops exactly the pollution and keeps the cover.
    let gc = shard::gc(NAME, &dir, ShardSpec::single()).unwrap();
    assert_eq!(gc.kept, kept_before);
    assert_eq!(gc.dropped_orphans, 1);
    assert_eq!(gc.dropped_duplicates, 1);
    assert_eq!((gc.dropped_stale, gc.dropped_malformed), (0, 0));
    let after = shard::verify(NAME, &dir, ShardSpec::single()).unwrap();
    assert!(after.ok());
    assert_eq!((after.orphan_chunks, after.duplicate_chunks), (0, 0));

    // gc is idempotent...
    let gc2 = shard::gc(NAME, &dir, ShardSpec::single()).unwrap();
    assert_eq!(gc2.kept, kept_before);
    assert_eq!(
        (
            gc2.dropped_orphans,
            gc2.dropped_duplicates,
            gc2.dropped_stale
        ),
        (0, 0, 0)
    );
    // ...and the collected store still serves a full re-run from disk.
    let rerun = run_grid(&dir, ShardSpec::single());
    let report = rerun.manifest();
    let totals = report.totals();
    assert_eq!(
        totals.store_chunks, totals.total_chunks,
        "gc'd store must fully serve an identical re-run"
    );

    // A store that loses a needed chunk fails verification.
    let (mut records, _) = store::load_all(&store_path).unwrap();
    records.remove(0);
    store::write_records(&store_path, &records).unwrap();
    let broken = shard::verify(NAME, &dir, ShardSpec::single()).unwrap();
    assert!(!broken.ok(), "missing chunk must be reported");

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_store_records_error_loudly_and_gc_recovers() {
    let dir = temp_dir("corrupt");
    let _ = fs::remove_dir_all(&dir);
    let campaign = run_grid(&dir, ShardSpec::single());
    let store_path = campaign.store_path();

    // A record that parses but claims more deliveries than packets
    // would underflow `packets - delivered` into a garbage BLER. Every
    // strict load path must refuse it and point at the recovery tool.
    let corrupt = "{\"point\":\"00000000000000aa\",\"first\":0,\"len\":8,\"packets\":8,\
                   \"delivered\":9,\"transmissions\":8,\"info_bits\":100,\"failures_at\":[]}";
    let mut text = fs::read_to_string(&store_path).unwrap();
    text.push_str(corrupt);
    text.push('\n');
    fs::write(&store_path, text).unwrap();

    for result in [
        shard::verify(NAME, &dir, ShardSpec::single()).map(|_| ()),
        shard::stats(NAME, &dir, ShardSpec::single()).map(|_| ()),
        store::load_all(&store_path).map(|_| ()),
        resilience_core::campaign::ResultStore::open(&store_path, true).map(|_| ()),
    ] {
        let err = result.expect_err("strict path must refuse a corrupt record");
        assert!(err.to_string().contains("campaign-admin gc"), "{err}");
    }

    // gc — the tool those errors name — drops exactly the corruption.
    let gc = shard::gc(NAME, &dir, ShardSpec::single()).unwrap();
    assert_eq!(gc.dropped_corrupt, 1);
    assert_eq!(gc.dropped_orphans, 0);
    let after = shard::verify(NAME, &dir, ShardSpec::single()).unwrap();
    assert!(after.ok(), "{:?}", after.problems);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn lenient_load_and_gc_resync_past_a_damaged_frame_length() {
    // Four single-chunk points on the segment backend: frame `i` of the
    // store is point `i`'s only chunk.
    let dir = temp_dir("resync");
    let _ = fs::remove_dir_all(&dir);
    let cfg = SystemConfig::fast_test();
    let settings = CampaignSettings {
        initial_chunk: 4,
        backend: BackendKind::Indexed,
        ..CampaignSettings::exhaustive()
    };
    let campaign = Campaign::new(NAME, settings, SimulationEngine::serial()).with_store_dir(&dir);
    let points: Vec<CampaignPoint> = (0..4)
        .map(|i| CampaignPoint::new(StorageConfig::Quantized, 20.0, 4, SEED + i))
        .collect();
    campaign.run(&LinkSimulator::new(cfg), &points);
    let store_path = campaign.store_path();
    let (records, _) = store::load_all(&store_path).unwrap();
    assert_eq!(records.len(), 4);
    let seg = fs::read(&store_path).unwrap();
    let mut survivors = records[1..].to_vec();
    survivors.sort_by_key(|(id, _)| *id);

    // Every single-bit flip of frame 0's length word (bytes 8..12, past
    // the 8-byte magic) loses frame 0 and nothing after it.
    for bit in 0..32 {
        let mut damaged = seg.clone();
        damaged[8 + bit / 8] ^= 1 << (bit % 8);
        fs::write(&store_path, &damaged).unwrap();
        let load = store::load_all_lenient(&store_path).unwrap();
        assert_eq!(load.records, records[1..], "lenient load, bit {bit}");
        let gc = shard::gc(NAME, &dir, ShardSpec::single()).unwrap();
        assert_eq!(gc.kept, 3, "gc, bit {bit}");
        assert_eq!(
            canonical_records(&store_path),
            survivors,
            "store after gc, bit {bit}"
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn stats_summarizes_store_and_manifest() {
    let dir = temp_dir("stats");
    let _ = fs::remove_dir_all(&dir);
    run_grid(&dir, ShardSpec::single());
    let text = shard::stats(NAME, &dir, ShardSpec::single()).unwrap();
    assert!(text.contains("campaign grid"), "{text}");
    assert!(text.contains("6 points recorded of 6 enumerated"), "{text}");
    assert!(text.contains("chunk records"), "{text}");
    let _ = fs::remove_dir_all(&dir);
}

mod properties {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(5))]

        /// Any partition of the grid into 1–4 shards, merged in any
        /// order, reproduces the unsharded run: manifest byte-identical,
        /// store chunk-set identical.
        #[test]
        fn any_partition_merges_to_the_unsharded_run(
            n_shards in 1usize..5,
            perm_code in 0usize..24,
        ) {
            let tag = format!("prop-{n_shards}-{perm_code}");
            let ref_dir = temp_dir(&format!("{tag}-ref"));
            let shard_dir = temp_dir(&format!("{tag}-shards"));
            let out_dir = shard_dir.join("merged");
            let _ = fs::remove_dir_all(&ref_dir);
            let _ = fs::remove_dir_all(&shard_dir);

            let reference = run_grid(&ref_dir, ShardSpec::single());
            let mut manifests = Vec::new();
            for i in 0..n_shards {
                let spec = ShardSpec::new(i as u32, n_shards as u32).unwrap();
                let c = run_grid(&shard_dir, spec);
                manifests.push(c.manifest_path());
            }
            let manifests = permute(manifests, perm_code);
            let report = shard::merge_manifests(NAME, &manifests, &out_dir)
                .expect("complete shard sets must merge");

            prop_assert_eq!(report.shards, n_shards);
            prop_assert_eq!(report.points, 6);
            let merged = fs::read_to_string(&report.manifest_path).unwrap();
            let single = fs::read_to_string(reference.manifest_path()).unwrap();
            prop_assert_eq!(merged, single);
            prop_assert_eq!(
                canonical_records(&report.store_path),
                canonical_records(&reference.store_path())
            );

            let _ = fs::remove_dir_all(&ref_dir);
            let _ = fs::remove_dir_all(&shard_dir);
        }
    }
}
