//! Integration tests of the telemetry contract: observability must be
//! a pure *read-side* of the campaign — turning it on or off changes
//! which exposition files exist, and nothing else.
//!
//! * **Determinism** — at 1, 2 and 8 worker threads, a campaign run
//!   with telemetry enabled produces byte-identical manifest files and
//!   identical outcomes to the same campaign with telemetry disabled.
//! * **Exposition** — telemetry-off writes no `.telemetry.json`,
//!   `.telemetry.jsonl` or `.prom` files; telemetry-on writes all
//!   three, the snapshot parses, and its totals agree with the report.

use std::path::{Path, PathBuf};

use resilience_core::campaign::{shard, Campaign, CampaignPoint, CampaignSettings, ShardSpec};
use resilience_core::config::SystemConfig;
use resilience_core::engine::SimulationEngine;
use resilience_core::json;
use resilience_core::montecarlo::StorageConfig;
use resilience_core::simulator::LinkSimulator;
use resilience_core::telemetry::LiveSnapshot;

const SEED: u64 = 0xdac1_2012;

fn sim() -> LinkSimulator {
    LinkSimulator::new(SystemConfig::fast_test())
}

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("telemetry-itest-{}-{tag}", std::process::id()))
}

fn points(cfg: &SystemConfig, max_packets: usize) -> Vec<CampaignPoint> {
    vec![
        CampaignPoint {
            label: "clean 25 dB".into(),
            storage: StorageConfig::Quantized,
            snr_db: 25.0,
            max_packets,
            seed: SEED,
            fault_seed: None,
        },
        CampaignPoint {
            label: "10% defects 8 dB".into(),
            storage: StorageConfig::unprotected(0.10, cfg.llr_bits),
            snr_db: 8.0,
            max_packets,
            seed: SEED.wrapping_add(1),
            fault_seed: None,
        },
    ]
}

fn settings() -> CampaignSettings {
    CampaignSettings {
        initial_chunk: 8,
        ..Default::default()
    }
}

/// Every telemetry exposition file a campaign named `name` could write
/// into `dir` (single-shard naming — these tests never shard).
fn exposition_files(name: &str, dir: &Path) -> [PathBuf; 3] {
    let single = ShardSpec::single();
    [
        dir.join(shard::telemetry_file(name, single)),
        dir.join(shard::events_file(name, single)),
        dir.join(shard::prom_file(name, single)),
    ]
}

#[test]
fn telemetry_does_not_change_results_or_manifests() {
    let sim = sim();
    let cfg = *sim.config();
    let pts = points(&cfg, 24);

    let run_at = |threads: usize, telemetry: bool| {
        let dir = temp_dir(&format!("det-{threads}-{telemetry}"));
        let _ = std::fs::remove_dir_all(&dir);
        let campaign = Campaign::new("tel", settings(), SimulationEngine::with_threads(threads))
            .with_store_dir(&dir)
            .with_telemetry(telemetry);
        let report = campaign.run(&sim, &pts);
        let manifest_bytes =
            std::fs::read(campaign.manifest_path()).expect("campaign must write its manifest");
        (report, manifest_bytes, dir)
    };

    let (reference, reference_manifest, ref_dir) = run_at(1, false);
    let _ = std::fs::remove_dir_all(&ref_dir);

    for threads in [1, 2, 8] {
        let (with_tel, manifest_on, dir_on) = run_at(threads, true);
        let (without_tel, manifest_off, dir_off) = run_at(threads, false);
        assert_eq!(
            with_tel.outcomes, without_tel.outcomes,
            "telemetry must not change outcomes at {threads} threads"
        );
        assert_eq!(
            with_tel.outcomes, reference.outcomes,
            "outcomes at {threads} threads must match the serial reference"
        );
        assert_eq!(
            manifest_on, manifest_off,
            "manifest must be byte-identical with telemetry on vs off at {threads} threads"
        );
        assert_eq!(
            manifest_on, reference_manifest,
            "manifest at {threads} threads must be byte-identical to the serial reference"
        );
        let _ = std::fs::remove_dir_all(&dir_on);
        let _ = std::fs::remove_dir_all(&dir_off);
    }
}

#[test]
fn telemetry_off_writes_no_exposition_files() {
    let sim = sim();
    let cfg = *sim.config();
    let dir = temp_dir("off");
    let _ = std::fs::remove_dir_all(&dir);
    let campaign = Campaign::new("quiet", settings(), SimulationEngine::with_threads(2))
        .with_store_dir(&dir)
        .with_telemetry(false);
    campaign.run(&sim, &points(&cfg, 16));
    for path in exposition_files("quiet", &dir) {
        assert!(
            !path.exists(),
            "telemetry-off campaign must not write {}",
            path.display()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn telemetry_on_writes_consistent_exposition() {
    let sim = sim();
    let cfg = *sim.config();
    let dir = temp_dir("on");
    let _ = std::fs::remove_dir_all(&dir);
    let campaign = Campaign::new("loud", settings(), SimulationEngine::with_threads(2))
        .with_store_dir(&dir)
        .with_telemetry(true);
    let report = campaign.run(&sim, &points(&cfg, 16));

    let [snap_path, events_path, prom_path] = exposition_files("loud", &dir);
    for path in [&snap_path, &events_path, &prom_path] {
        assert!(path.exists(), "missing exposition file {}", path.display());
    }

    // The final live snapshot agrees with the report it narrates.
    let snap = LiveSnapshot::read(&snap_path).expect("final snapshot must parse");
    assert!(snap.done, "final snapshot must be marked done");
    assert_eq!(snap.points_total, report.outcomes.len() as u64);
    assert_eq!(
        snap.points_converged,
        report.outcomes.iter().filter(|o| o.converged).count() as u64
    );
    assert_eq!(
        snap.packets_realized,
        report
            .outcomes
            .iter()
            .map(|o| o.packets() as u64)
            .sum::<u64>()
    );
    assert_eq!(snap.points.len(), report.outcomes.len());

    // The event log is one JSON object per line, bracketed by the run
    // lifecycle events, with monotonically increasing sequence numbers.
    let events = std::fs::read_to_string(&events_path).expect("read event log");
    let lines: Vec<&str> = events.lines().collect();
    assert!(lines.first().is_some_and(|l| l.contains("\"run_started\"")));
    assert!(lines.last().is_some_and(|l| l.contains("\"run_finished\"")));
    assert!(lines.iter().any(|l| l.contains("\"chunk_done\"")));
    for (i, line) in lines.iter().enumerate() {
        let seq = json::parse(line).ok().and_then(|e| e.get("seq")?.as_u64());
        assert_eq!(
            seq,
            Some(i as u64),
            "event seq must be contiguous from 0: {line}"
        );
    }

    // The Prometheus snapshot exposes the core counters.
    let prom = std::fs::read_to_string(&prom_path).expect("read prom snapshot");
    for metric in [
        "resilience_packets_simulated",
        "resilience_chunks_scheduled",
        "resilience_points_converged",
    ] {
        assert!(prom.contains(metric), "prom snapshot missing {metric}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
