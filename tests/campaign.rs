//! Integration tests of the campaign subsystem's contracts:
//!
//! * **Determinism** — an adaptive chunked campaign at a fixed seed
//!   reproduces bit-identical `HarqStats` to a one-shot engine run with
//!   the same realized packet count, at 1, 2 and 8 worker threads.
//! * **Resumability** — a campaign interrupted after its first
//!   escalation level (or whose store is deleted entirely) finishes with
//!   identical final results.
//! * **Adaptivity** — on a fig6-style (defect × SNR) grid the controller
//!   realizes measurably fewer packets than the fixed budget while
//!   reaching the precision target on the points it stops early.

use std::path::PathBuf;

use resilience_core::campaign::{
    grid_points, sweep_points, Campaign, CampaignPoint, CampaignSettings, CustomCampaignPoint,
};
use resilience_core::config::SystemConfig;
use resilience_core::engine::{ChunkSpec, SimulationEngine};
use resilience_core::experiments::Runner;
use resilience_core::montecarlo::StorageConfig;
use resilience_core::simulator::LinkSimulator;

const SEED: u64 = 0xdac1_2012;

fn sim() -> LinkSimulator {
    LinkSimulator::new(SystemConfig::fast_test())
}

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("campaign-itest-{}-{tag}", std::process::id()))
}

fn waterfall_points(cfg: &SystemConfig, max_packets: usize) -> Vec<CampaignPoint> {
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
            label: "10% defects 12 dB".into(),
            storage: StorageConfig::unprotected(0.10, cfg.llr_bits),
            snr_db: 12.0,
            max_packets,
            seed: SEED.wrapping_add(1),
            fault_seed: None,
        },
        CampaignPoint {
            label: "10% defects 5 dB".into(),
            storage: StorageConfig::unprotected(0.10, cfg.llr_bits),
            snr_db: 5.0,
            max_packets,
            seed: SEED.wrapping_add(2),
            fault_seed: None,
        },
    ]
}

fn settings(initial_chunk: usize) -> CampaignSettings {
    CampaignSettings {
        initial_chunk,
        ..Default::default()
    }
}

#[test]
fn adaptive_campaign_is_thread_invariant_and_matches_one_shot() {
    let sim = sim();
    let cfg = *sim.config();
    let points = waterfall_points(&cfg, 24);

    // Each thread count gets its own store so every run simulates from
    // scratch — this isolates engine determinism from store replay.
    let run_at = |threads: usize| {
        let dir = temp_dir(&format!("threads-{threads}"));
        let _ = std::fs::remove_dir_all(&dir);
        let campaign = Campaign::new("det", settings(8), SimulationEngine::with_threads(threads))
            .with_store_dir(&dir);
        let report = campaign.run(&sim, &points);
        let _ = std::fs::remove_dir_all(&dir);
        report
    };

    let serial = run_at(1);
    for threads in [2, 8] {
        let parallel = run_at(threads);
        assert_eq!(
            serial.outcomes, parallel.outcomes,
            "adaptive campaign must be bit-identical at {threads} threads"
        );
    }

    // The realized statistics of every point equal a one-shot engine run
    // over exactly the realized packet count.
    let engine = SimulationEngine::with_threads(8);
    for (outcome, point) in serial.outcomes.iter().zip(&points) {
        let one_shot = engine.run_chunks(
            &sim,
            &[ChunkSpec {
                storage: point.storage.clone(),
                snr_db: point.snr_db,
                first_packet: 0,
                n_packets: outcome.packets(),
                seed: point.seed,
                fault_seed: None,
            }],
        );
        assert_eq!(
            outcome.stats,
            one_shot[0],
            "chunked adaptive result of '{}' must equal a one-shot run of {} packets",
            point.label,
            outcome.packets()
        );
    }
}

#[test]
fn interrupted_campaign_resumes_to_identical_results() {
    let sim = sim();
    let cfg = *sim.config();
    let dir = temp_dir("resume");
    let _ = std::fs::remove_dir_all(&dir);
    let engine = SimulationEngine::with_threads(2);

    // Reference: the full campaign with no store help at all.
    let fresh_dir = temp_dir("resume-fresh");
    let _ = std::fs::remove_dir_all(&fresh_dir);
    let reference = Campaign::new("res", settings(4), engine.clone())
        .with_store_dir(&fresh_dir)
        .run(&sim, &waterfall_points(&cfg, 16));
    let _ = std::fs::remove_dir_all(&fresh_dir);

    // "Interrupted" campaign: the same points capped at the first
    // escalation level populate a partial store...
    let partial = Campaign::new("res", settings(4), engine.clone())
        .with_store_dir(&dir)
        .run(&sim, &waterfall_points(&cfg, 4));
    assert!(partial.outcomes.iter().all(|o| o.packets() == 4));

    // ...and the full campaign resumes on top of it: early chunks come
    // from the store, later chunks simulate, results are identical.
    // (Only the store-provenance counters may differ between a resumed
    // and a from-scratch run — everything scientific must match.)
    let essentials = |report: &resilience_core::CampaignReport| {
        report
            .outcomes
            .iter()
            .map(|o| (o.stats.clone(), o.converged, o.check, o.chunks))
            .collect::<Vec<_>>()
    };
    let resumed = Campaign::new("res", settings(4), engine.clone())
        .with_store_dir(&dir)
        .run(&sim, &waterfall_points(&cfg, 16));
    assert!(resumed.chunks_from_store() > 0, "must reuse stored chunks");
    assert_eq!(reference.stats(), resumed.stats());
    assert_eq!(essentials(&reference), essentials(&resumed));

    // Deleting the store mid-way changes nothing about the results: a
    // re-run from an empty store still converges to the same outcomes.
    let _ = std::fs::remove_dir_all(&dir);
    let after_delete = Campaign::new("res", settings(4), engine)
        .with_store_dir(&dir)
        .run(&sim, &waterfall_points(&cfg, 16));
    assert_eq!(after_delete.chunks_from_store(), 0);
    assert_eq!(essentials(&reference), essentials(&after_delete));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn adaptive_grid_saves_packets_vs_fixed_budget() {
    // A fig6-style (defect × SNR) grid: high-SNR points are easy and
    // must stop at the first chunk, so the campaign realizes measurably
    // fewer packets than `storages × snrs × max_packets`.
    let sim = sim();
    let cfg = *sim.config();
    let dir = temp_dir("grid");
    let _ = std::fs::remove_dir_all(&dir);
    let storages = [
        StorageConfig::Quantized,
        StorageConfig::unprotected(0.10, cfg.llr_bits),
    ];
    let snrs = [4.0, 12.0, 25.0];
    let max_packets = 64;
    let runner = Runner::Adaptive(Box::new(
        Campaign::new("grid", settings(32), SimulationEngine::auto()).with_store_dir(&dir),
    ));
    let grid = runner.run_grid(&sim, &storages, &snrs, max_packets, SEED);
    assert_eq!(grid.stats.len(), storages.len());
    assert_eq!(grid.stats[0].len(), snrs.len());

    let totals = runner.campaign().unwrap().manifest().totals();
    let fixed = (storages.len() * snrs.len() * max_packets) as u64;
    assert_eq!(totals.budget_packets, fixed);
    assert!(
        totals.realized_packets < fixed,
        "adaptive grid must beat the fixed budget ({} vs {fixed})",
        totals.realized_packets
    );
    assert!(totals.saved_vs_fixed() > 0.0);
    // The clean 25 dB point decodes everything first try: it must have
    // stopped at the initial chunk.
    let clean_easy = &grid.stats[0][snrs.len() - 1];
    assert_eq!(clean_easy.packets, 32, "easy point stops after one chunk");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn exhaustive_campaign_grid_and_sweep_match_the_engine() {
    // Under exhaustive settings the adaptive runner realizes every
    // point's full budget in chunks, so each `Runner` entry point must
    // return exactly what the one-shot runner does.
    let sim = sim();
    let cfg = *sim.config();
    let dir = temp_dir("engine-parity");
    let _ = std::fs::remove_dir_all(&dir);
    let storages = [
        StorageConfig::Quantized,
        StorageConfig::unprotected(0.10, cfg.llr_bits),
    ];
    let snrs = [8.0, 16.0];
    let engine = SimulationEngine::with_threads(2);
    let never_stop = CampaignSettings {
        initial_chunk: 3,
        ..CampaignSettings::exhaustive()
    };
    let one_shot = Runner::OneShot(engine.clone());
    let adaptive = Runner::Adaptive(Box::new(
        Campaign::new("parity", never_stop, engine).with_store_dir(&dir),
    ));

    let points = waterfall_points(&cfg, 7);
    assert_eq!(
        adaptive.run(&sim, &points),
        one_shot.run(&sim, &points),
        "run"
    );
    assert_eq!(
        adaptive.run_grid(&sim, &storages, &snrs, 7, SEED),
        one_shot.run_grid(&sim, &storages, &snrs, 7, SEED),
        "run_grid"
    );
    assert_eq!(
        adaptive.run_sweep(&sim, &storages[1], &snrs, 7, SEED),
        one_shot.run_sweep(&sim, &storages[1], &snrs, 7, SEED),
        "run_sweep"
    );

    // Custom buffers: a transient-upset wrapper whose rate depends on
    // the point index, so a factory handed the wrong index would show.
    let rates = [0.0, 0.02];
    let custom: Vec<CustomCampaignPoint> = rates
        .iter()
        .enumerate()
        .map(|(i, p)| CustomCampaignPoint::new(format!("upset={p}"), 10.0, 7, SEED + i as u64))
        .collect();
    let factory = |point: usize, fault_seed: u64| -> Box<dyn hspa_phy::harq::LlrBuffer + Send> {
        Box::new(resilience_core::TransientLlrBuffer::new(
            resilience_core::QuantizedLlrBuffer::new(cfg.coded_len(), cfg.quantizer()),
            cfg.quantizer(),
            rates[point],
            fault_seed,
        ))
    };
    assert_eq!(
        adaptive.run_with_buffers(&sim, &custom, factory),
        one_shot.run_with_buffers(&sim, &custom, factory),
        "run_with_buffers"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The worst-case seed tree at [`SEED`], as known values: a 2-storage ×
/// 2-SNR grid (row `r` draws `derive_seed(SEED, r)`, column `c` the point
/// seed `derive_seed(row, 0x100 + c)`, and the whole row shares the die
/// `derive_seed(row, STREAM_FAULT_MAP)`), then a 3-SNR sweep of the
/// faulty storage (point `i` draws `derive_seed(SEED, i)` and its own
/// die). Each entry is `(row, snr, label, seed, fault_seed)`.
#[allow(clippy::type_complexity)]
#[rustfmt::skip]
const PINNED_TREE: [(usize, f64, &str, u64, Option<u64>); 7] = [
    (0, 8.0, "quantized @ 8 dB", 0x06b6_f618_f8b0_db0b, Some(0x3fc2_2ff4_0e11_9c84)),
    (0, 16.0, "quantized @ 16 dB", 0x2e32_c102_4ae2_2f6d, Some(0x3fc2_2ff4_0e11_9c84)),
    (1, 8.0, "6T, Nf=10.00% @ 8 dB", 0x86fc_107d_9d66_72a8, Some(0x0e23_cd66_b578_2926)),
    (1, 16.0, "6T, Nf=10.00% @ 16 dB", 0xc1cd_3376_a6be_5aeb, Some(0x0e23_cd66_b578_2926)),
    (1, 4.0, "6T, Nf=10.00% @ 4 dB", 0xe344_75c6_330f_594f, None),
    (1, 12.5, "6T, Nf=10.00% @ 12.5 dB", 0x0d77_b99d_5049_5d9d, None),
    (1, 20.0, "6T, Nf=10.00% @ 20 dB", 0x966c_7eb8_7916_8aa2, None),
];

#[test]
fn grid_and_sweep_seed_trees_are_pinned() {
    let cfg = SystemConfig::fast_test();
    let storages = [
        StorageConfig::Quantized,
        StorageConfig::unprotected(0.10, cfg.llr_bits),
    ];
    let mut points = grid_points(&storages, &[8.0, 16.0], 1, SEED);
    points.extend(sweep_points(&storages[1], &[4.0, 12.5, 20.0], 1, SEED));
    assert_eq!(points.len(), PINNED_TREE.len());
    for (point, &(row, snr, label, seed, fault_seed)) in points.iter().zip(&PINNED_TREE) {
        let expected = CampaignPoint {
            label: label.into(),
            storage: storages[row].clone(),
            snr_db: snr,
            max_packets: 1,
            seed,
            fault_seed,
        };
        assert_eq!(point, &expected);
    }
}

mod properties {
    use super::*;
    use hspa_phy::harq::HarqStats;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Any two-way split of a point's packet range merges to the
        /// one-shot statistics, for any thread count and shard size.
        #[test]
        fn chunk_merged_stats_equal_one_shot(
            n in 2usize..14,
            cut in 1usize..13,
            threads in 1usize..5,
            shard in 1usize..5,
        ) {
            let cut = 1 + (cut - 1) % (n - 1); // 1..n
            let sim = sim();
            let cfg = *sim.config();
            let storage = StorageConfig::unprotected(0.08, cfg.llr_bits);
            let engine = SimulationEngine::with_threads(threads).shard_packets(shard);
            let chunk = |first_packet, n_packets| ChunkSpec {
                storage: storage.clone(),
                snr_db: 10.0,
                first_packet,
                n_packets,
                seed: SEED,
                fault_seed: None,
            };
            let one_shot = engine.run_chunks(&sim, &[chunk(0, n)]);
            let mut merged = HarqStats::new(cfg.max_transmissions, cfg.payload_bits);
            for stats in engine.run_chunks(&sim, &[chunk(0, cut), chunk(cut, n - cut)]) {
                merged.merge(&stats);
            }
            prop_assert_eq!(&one_shot[0], &merged);
        }
    }
}
