//! Properties of the dispatcher's work stealing at the library level
//! (the process-level end-to-end lives in `crates/bench/tests/`):
//! a rescue leg that resumes the store a killed leg left behind must
//! **never re-simulate a stored chunk** — for any campaign settings and
//! any kill point, the replayed schedule serves every surviving record
//! from disk and simulates only the remainder — and the merged manifest
//! must stay byte-identical to a fresh run's no matter how much of the
//! store was resumed (chunk provenance is normalized away).

use std::fs;
use std::path::{Path, PathBuf};

use proptest::prelude::*;
use resilience_core::campaign::store::{self, ChunkId};
use resilience_core::campaign::{shard, Campaign, CampaignPoint, CampaignSettings};
use resilience_core::config::SystemConfig;
use resilience_core::engine::SimulationEngine;
use resilience_core::montecarlo::StorageConfig;
use resilience_core::simulator::LinkSimulator;

const NAME: &str = "steal";

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dispatch-prop-{}-{tag}", std::process::id()))
}

fn demo_points(cfg: &SystemConfig, max_packets: usize) -> Vec<CampaignPoint> {
    vec![
        CampaignPoint {
            label: "clean high SNR".into(),
            storage: StorageConfig::Quantized,
            snr_db: 25.0,
            max_packets,
            seed: 21,
            fault_seed: None,
        },
        CampaignPoint {
            label: "faulty low SNR".into(),
            storage: StorageConfig::unprotected(0.10, cfg.llr_bits),
            snr_db: 4.0,
            max_packets,
            seed: 22,
            fault_seed: None,
        },
    ]
}

/// Runs the demo campaign in `dir`, returning its report.
fn run_campaign(
    dir: &Path,
    settings: CampaignSettings,
    max_packets: usize,
) -> resilience_core::campaign::CampaignReport {
    let cfg = SystemConfig::fast_test();
    let sim = LinkSimulator::new(cfg);
    let campaign = Campaign::new(NAME, settings, SimulationEngine::serial()).with_store_dir(dir);
    campaign.run(&sim, &demo_points(&cfg, max_packets))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// For any chunk schedule and any kill point, a rescue run over the
    /// truncated store (a) serves every surviving record from disk —
    /// `chunks_from_store` equals exactly the record count, (b) appends
    /// no duplicate chunk (the signature of a re-simulation), (c) ends
    /// with the identical record set and statistics as the uninterrupted
    /// run, and (d) merges to a byte-identical manifest.
    #[test]
    fn rescue_resume_never_resimulates_a_stored_chunk(
        initial_chunk in 1usize..7,
        max_packets in 1usize..30,
        cut_code in 0usize..1000,
    ) {
        let tag = format!("{initial_chunk}-{max_packets}-{cut_code}");
        let ref_dir = temp_dir(&format!("{tag}-ref"));
        let rescue_dir = temp_dir(&format!("{tag}-rescue"));
        let _ = fs::remove_dir_all(&ref_dir);
        let _ = fs::remove_dir_all(&rescue_dir);
        let settings = CampaignSettings {
            initial_chunk,
            ..Default::default()
        };

        // The uninterrupted reference run.
        let reference = run_campaign(&ref_dir, settings, max_packets);
        let store_name = shard::store_file(NAME, settings.shard, settings.backend);
        let full = fs::read_to_string(ref_dir.join(&store_name)).unwrap();
        let lines: Vec<&str> = full.lines().collect();

        // "Kill" the leg after `k` stored chunks: a killed process
        // leaves a line-prefix of the store (appends are sequential).
        let k = cut_code % (lines.len() + 1);
        fs::create_dir_all(&rescue_dir).unwrap();
        let mut truncated: String = lines[..k].join("\n");
        if k > 0 {
            truncated.push('\n');
        }
        fs::write(rescue_dir.join(&store_name), truncated).unwrap();

        // The rescue run resumes the truncated store.
        let rescue = run_campaign(&rescue_dir, settings, max_packets);
        prop_assert_eq!(
            rescue.chunks_from_store(),
            k as u64,
            "every surviving record must be a store hit"
        );
        prop_assert_eq!(reference.stats(), rescue.stats());

        // The rescued store holds the same chunk set, each exactly once
        // — a re-simulated chunk would have been appended twice.
        let (rescued_records, malformed) =
            store::load_all(&rescue_dir.join(&store_name)).unwrap();
        prop_assert_eq!(malformed, 0);
        let mut ids: Vec<ChunkId> = rescued_records.iter().map(|(id, _)| *id).collect();
        let total = ids.len();
        ids.sort();
        ids.dedup();
        prop_assert_eq!(ids.len(), total, "duplicate chunk records after rescue");
        let (mut ref_records, _) = store::load_all(&ref_dir.join(&store_name)).unwrap();
        let mut rescued_sorted = rescued_records;
        rescued_sorted.sort_by_key(|(id, _)| *id);
        ref_records.sort_by_key(|(id, _)| *id);
        prop_assert_eq!(rescued_sorted, ref_records);

        // Provenance normalization: the degenerate 0/1 merge of both
        // manifests must produce byte-identical files even though the
        // rescue manifest records store-resumed chunks.
        let manifest_name = shard::manifest_file(NAME, settings.shard);
        let ref_out = ref_dir.join("merged");
        let rescue_out = rescue_dir.join("merged");
        shard::merge_manifests(NAME, &[ref_dir.join(&manifest_name)], &ref_out).unwrap();
        shard::merge_manifests(NAME, &[rescue_dir.join(&manifest_name)], &rescue_out).unwrap();
        prop_assert_eq!(
            fs::read_to_string(ref_out.join(&manifest_name)).unwrap(),
            fs::read_to_string(rescue_out.join(&manifest_name)).unwrap(),
            "merged manifests must not leak resume provenance"
        );

        let _ = fs::remove_dir_all(&ref_dir);
        let _ = fs::remove_dir_all(&rescue_dir);
    }
}
