//! Integration tests of the parallel Monte-Carlo engine's determinism
//! contract: the same master seed must produce bit-identical aggregate
//! statistics for any worker count, shard size, and for the serial
//! `montecarlo::run_point` quickstart.

use hspa_phy::harq::HarqStats;
use resilience_core::config::SystemConfig;
use resilience_core::engine::{ChunkSpec, SimulationEngine};
use resilience_core::experiments::Runner;
use resilience_core::montecarlo::{run_point, StorageConfig};
use resilience_core::simulator::LinkSimulator;

const SEED: u64 = 0xdac1_2012;

fn sim() -> LinkSimulator {
    LinkSimulator::new(SystemConfig::fast_test())
}

/// The one-shot chunk `0..n` of a point with its own die.
fn point(storage: &StorageConfig, snr_db: f64, n_packets: usize, seed: u64) -> ChunkSpec {
    ChunkSpec {
        storage: storage.clone(),
        snr_db,
        first_packet: 0,
        n_packets,
        seed,
        fault_seed: None,
    }
}

/// Runs one point on `engine`.
fn run_one(engine: SimulationEngine, sim: &LinkSimulator, chunk: ChunkSpec) -> HarqStats {
    engine.run_chunks(sim, &[chunk]).remove(0)
}

#[test]
fn engine_is_thread_count_invariant() {
    let sim = sim();
    let cfg = *sim.config();
    let storage = StorageConfig::msb_protected(3, 0.08, cfg.llr_bits);
    let run = |threads: usize| {
        run_one(
            SimulationEngine::with_threads(threads),
            &sim,
            point(&storage, 10.0, 16, SEED),
        )
    };
    let one = run(1);
    let two = run(2);
    let eight = run(8);
    assert_eq!(one, two, "1 vs 2 workers");
    assert_eq!(one, eight, "1 vs 8 workers");
    assert_eq!(one.packets, 16);
}

#[test]
fn shard_size_does_not_change_results() {
    let sim = sim();
    let cfg = *sim.config();
    let storage = StorageConfig::unprotected(0.10, cfg.llr_bits);
    let run = |threads: usize, shard: usize| {
        let engine = SimulationEngine::with_threads(threads).shard_packets(shard);
        run_one(engine, &sim, point(&storage, 12.0, 13, SEED))
    };
    let reference = run(1, 13);
    for (threads, shard) in [(1, 1), (2, 5), (8, 2), (3, 13)] {
        assert_eq!(
            reference,
            run(threads, shard),
            "threads={threads} shard={shard}"
        );
    }
}

#[test]
fn serial_wrappers_match_engine() {
    let cfg = SystemConfig::fast_test();
    let sim = LinkSimulator::new(cfg);
    let storage = StorageConfig::unprotected(0.05, cfg.llr_bits);

    let wrapper = run_point(&cfg, &storage, 14.0, 10, 77);
    let engine = run_one(
        SimulationEngine::with_threads(8),
        &sim,
        point(&storage, 14.0, 10, 77),
    );
    assert_eq!(wrapper, engine, "run_point must equal the parallel engine");

    let snrs = [6.0, 14.0];
    let sweep = Runner::OneShot(SimulationEngine::serial()).run_sweep(&sim, &storage, &snrs, 8, 3);
    let par =
        Runner::OneShot(SimulationEngine::with_threads(4)).run_sweep(&sim, &storage, &snrs, 8, 3);
    assert_eq!(sweep, par, "run_sweep must equal the parallel engine");
}

#[test]
fn grid_matches_pointwise_reruns() {
    // Grid results must be reproducible and structurally sound; rows
    // share one die so identical (storage, snr, seed) reruns agree.
    let sim = sim();
    let cfg = *sim.config();
    let storages = [
        StorageConfig::Quantized,
        StorageConfig::unprotected(0.10, cfg.llr_bits),
    ];
    let snrs = [8.0, 16.0];
    let grid = |threads| {
        Runner::OneShot(SimulationEngine::with_threads(threads))
            .run_grid(&sim, &storages, &snrs, 6, SEED)
    };
    let (a, b) = (grid(1), grid(8));
    assert_eq!(a, b, "grid must be thread-count invariant");
    assert_eq!(a.stats.len(), storages.len());
    for row in &a.stats {
        assert_eq!(row.len(), snrs.len());
        for stats in row {
            assert_eq!(stats.packets, 6);
        }
    }
}

#[test]
fn correlated_fading_is_thread_count_invariant() {
    // Regression: the slow-fading channel once kept a shared advancing
    // clock, making fades depend on global call order across workers.
    // Fades are now anchored per packet (block_phase), so the correlated
    // channel must satisfy the same determinism contract as the rest.
    let mut cfg = SystemConfig::fast_test();
    cfg.channel = resilience_core::config::ChannelKind::CorrelatedSlowFading;
    let sim = LinkSimulator::new(cfg);
    let storage = StorageConfig::unprotected(0.05, cfg.llr_bits);
    let run = |threads: usize| {
        let engine = SimulationEngine::with_threads(threads).shard_packets(2);
        run_one(engine, &sim, point(&storage, 12.0, 12, SEED))
    };
    let serial = run(1);
    assert_eq!(serial, run(4), "1 vs 4 workers under correlated fading");
    assert_eq!(serial, run(8), "1 vs 8 workers under correlated fading");
}

#[test]
fn batch_seeds_are_independent() {
    // Two points with the same settings but different seeds must (with
    // overwhelming probability at low SNR) differ; identical seeds must
    // agree exactly.
    let sim = sim();
    let cfg = *sim.config();
    let storage = StorageConfig::unprotected(0.15, cfg.llr_bits);
    let mk = |seed| point(&storage, 4.0, 10, seed);
    let stats = SimulationEngine::with_threads(2).run_chunks(&sim, &[mk(1), mk(2), mk(1)]);
    assert_eq!(stats[0], stats[2], "same seed, same point");
    assert_eq!(stats[0].packets, stats[1].packets);
}
