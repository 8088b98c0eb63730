//! Parallel, deterministic Monte-Carlo execution engine.
//!
//! Every figure of the paper is thousands of independent packet
//! simulations spread over a grid of (SNR × storage configuration ×
//! defect density) operating points — an embarrassingly parallel
//! workload. [`SimulationEngine`] shards that work across OS threads
//! while keeping results **bit-identical for any thread count**,
//! including the serial path used by [`crate::montecarlo::run_point`].
//!
//! The engine has two entry points and one unit of work, the chunk: a
//! packet range `first..first + n` of one operating point.
//! [`SimulationEngine::run_chunks`] runs [`ChunkSpec`]s over the
//! standard storage backends and
//! [`SimulationEngine::run_chunks_with_buffers`] runs [`CustomChunk`]s
//! over a caller's buffer factory. A one-shot point is the chunk `0..n`;
//! an adaptive campaign ([`crate::campaign`]) feeds the same call its
//! growing chunks; [`crate::experiments::Runner`] chooses between the
//! two.
//!
//! # Determinism model
//!
//! Randomness is organized as a seed tree (see
//! [`dsp::rng::derive_seed_path`]). Grids and sweeps derive their point
//! seeds from a master seed ([`crate::campaign::grid_points`],
//! [`crate::campaign::sweep_points`]); below a point, the engine derives:
//!
//! ```text
//! point ─┬─ 0xfa        → fault map ("one die per run"; a chunk's
//!        │                explicit `fault_seed` overrides it)
//!        └─ 1 ─┬─ pkt 0 → noise/data stream of packet 0
//!              ├─ pkt 1 → noise/data stream of packet 1
//!              └─ ...
//! ```
//!
//! A packet's stream depends only on its position in the tree — never on
//! the thread that simulates it or the chunk that contains it — and
//! [`HarqStats`] aggregation is a sum of counters, so any shard-to-worker
//! assignment yields the same statistics. Buffers with internal
//! randomness are re-anchored per packet through
//! [`LlrBuffer::begin_packet`].
//!
//! # Work decomposition
//!
//! A run flattens all chunks into shards of
//! [`SimulationEngine::shard_packets`] packets and lets workers pull
//! shards from a shared atomic counter, so a single expensive point —
//! low SNR, many retransmissions — cannot serialize the run. Each worker
//! keeps one storage buffer set per buffer group (rebuilt
//! deterministically from the die seed: the *same die*, per the paper's
//! worst-case methodology) plus one [`PacketScratch`] per wave lane, and
//! merges its partial statistics locally; the main thread folds worker
//! partials in task order.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use rand::rngs::StdRng;
use rand::SeedableRng;

use dsp::rng::{derive_seed, packet_seed, STREAM_FAULT_MAP};
use hspa_phy::harq::{HarqStats, LlrBuffer};

use hspa_phy::turbo::TurboBatchScratch;

use crate::config::SystemConfig;
use crate::montecarlo::{build_buffer, StorageConfig};
use crate::simulator::{LinkSimulator, PacketOutcome, PacketScratch, WaveScratch};
use crate::telemetry::{self, Counter, Histogram};

/// A contiguous packet range of one operating point — the unit of work of
/// resumable campaigns ([`crate::campaign`]).
///
/// Packet `p` of a chunk draws the *same* RNG stream
/// (`packet_seed(seed, p)`) it would draw in a one-shot run of the whole
/// point, so any partition of `0..n` into chunks merges
/// ([`HarqStats::merge`]) to statistics bit-identical to the single
/// chunk `0..n`.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkSpec {
    /// LLR-storage backend under test.
    pub storage: StorageConfig,
    /// Operating SNR (dB).
    pub snr_db: f64,
    /// Absolute index of the first packet in the point's stream.
    pub first_packet: usize,
    /// Packets to simulate (`first_packet..first_packet + n_packets`).
    pub n_packets: usize,
    /// Seed of this point's stream subtree (shared by all its chunks).
    pub seed: u64,
    /// Explicit die seed; `None` derives the point's own
    /// (`derive_seed(seed, STREAM_FAULT_MAP)`). Grids use an explicit
    /// seed so every chunk of a row keeps sharing one die.
    pub fault_seed: Option<u64>,
}

/// [`ChunkSpec`] minus the storage and die fields, for
/// [`SimulationEngine::run_chunks_with_buffers`]: the caller's buffer
/// factory *is* the storage, so a (silently ignored) `StorageConfig`
/// cannot be supplied by mistake.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CustomChunk {
    /// Operating SNR (dB).
    pub snr_db: f64,
    /// Absolute index of the first packet in the point's stream.
    pub first_packet: usize,
    /// Packets to simulate.
    pub n_packets: usize,
    /// Seed of this point's stream subtree (shared by all its chunks).
    pub seed: u64,
}

/// Sharded Monte-Carlo executor over a [`LinkSimulator`].
///
/// Construction is cheap; the engine owns no threads between calls
/// (scoped workers are spawned per run).
#[derive(Debug, Clone)]
pub struct SimulationEngine {
    threads: usize,
    shard_packets: usize,
    batch_lanes: usize,
}

impl Default for SimulationEngine {
    fn default() -> Self {
        Self::auto()
    }
}

impl SimulationEngine {
    /// Default shard granularity: small enough to balance uneven points,
    /// large enough to amortize per-shard buffer setup — and exactly one
    /// default decode wave, since a wave never spans shards.
    const DEFAULT_SHARD: usize = 16;

    /// Default decode batch width: two full lockstep groups of the
    /// widest SIMD kernel. Waves wider than one group keep HARQ
    /// retransmission attempts (whose surviving lanes thin out) filling
    /// full-width groups, and lane draining absorbs the per-group
    /// iteration spread; sweeping widths 8..64 on the benchmark grid put
    /// 16 lanes ahead of 32 by ~5% (smaller staging footprint, same
    /// group utilization). Results are bit-identical at every width.
    pub const DEFAULT_BATCH: usize = 16;

    /// Engine using every available CPU.
    pub fn auto() -> Self {
        Self::with_threads(0)
    }

    /// Strictly serial engine (reference path; no worker threads).
    pub fn serial() -> Self {
        Self::with_threads(1)
    }

    /// Engine with an explicit worker count; `0` means one worker per
    /// available CPU.
    pub fn with_threads(threads: usize) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            threads
        };
        Self {
            threads,
            shard_packets: Self::DEFAULT_SHARD,
            batch_lanes: Self::DEFAULT_BATCH,
        }
    }

    /// Overrides the packets-per-shard granularity (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn shard_packets(mut self, n: usize) -> Self {
        assert!(n > 0, "shard size must be positive");
        self.shard_packets = n;
        self
    }

    /// Overrides the decode batch width (builder style): the most packets
    /// one wave decodes together. `1` runs one-lane waves. Any width
    /// produces bit-identical statistics, so this is a pure throughput
    /// knob and is deliberately *not* part of campaign point
    /// fingerprints.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn batch_lanes(mut self, n: usize) -> Self {
        assert!(n > 0, "batch width must be positive");
        self.batch_lanes = n;
        self
    }

    /// The resolved worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The decode batch width in force.
    pub fn batch(&self) -> usize {
        self.batch_lanes
    }

    /// Evaluates a batch of packet-range chunks (possibly of different
    /// operating points) in one sharded run — the engine's entry point
    /// for every storage backend in [`StorageConfig`]. A one-shot point
    /// is the single chunk `0..n`.
    ///
    /// Chunks with the same storage and the same resolved die seed build
    /// identical buffers, so they share a buffer group — a grid row (one
    /// die swept over SNRs) builds its fault map once per worker, not
    /// once per cell.
    ///
    /// Chunk scheduling is composition-invariant: a chunk's statistics
    /// depend only on `(seed, fault seed, snr, first_packet..+n)`, never
    /// on which other chunks share the batch, which worker runs it, or
    /// which process (host) submits it. This is the property multi-host
    /// campaign sharding ([`crate::campaign::shard`]) is built on — any
    /// partition of a grid's chunks across engines merges to the
    /// single-engine result bit for bit (`tests/shard.rs` proves it for
    /// random 1–4-way partitions).
    pub fn run_chunks(&self, sim: &LinkSimulator, chunks: &[ChunkSpec]) -> Vec<HarqStats> {
        let cfg = *sim.config();
        let specs: Vec<CustomChunk> = chunks
            .iter()
            .map(|c| CustomChunk {
                snr_db: c.snr_db,
                first_packet: c.first_packet,
                n_packets: c.n_packets,
                seed: c.seed,
            })
            .collect();
        let fault_seeds: Vec<u64> = chunks
            .iter()
            .map(|c| {
                c.fault_seed
                    .unwrap_or_else(|| derive_seed(c.seed, STREAM_FAULT_MAP))
            })
            .collect();
        let mut groups = Vec::with_capacity(chunks.len());
        for (i, chunk) in chunks.iter().enumerate() {
            let group = (0..i)
                .find(|&j| fault_seeds[j] == fault_seeds[i] && chunks[j].storage == chunk.storage)
                .unwrap_or(i);
            groups.push(group);
        }
        self.run_specs(sim, &specs, &groups, &move |chunk, _derived| {
            build_buffer(&cfg, &chunks[chunk].storage, fault_seeds[chunk])
        })
    }

    /// [`SimulationEngine::run_chunks`] over caller-built buffers — the
    /// escape hatch for backends outside [`StorageConfig`] (e.g.
    /// transient soft-error wrappers). The factory receives the chunk
    /// index and the chunk's fault-stream seed
    /// (`derive_seed(seed, STREAM_FAULT_MAP)`) and must be deterministic
    /// in them; each chunk builds its own buffers.
    pub fn run_chunks_with_buffers<F>(
        &self,
        sim: &LinkSimulator,
        chunks: &[CustomChunk],
        make_buffer: F,
    ) -> Vec<HarqStats>
    where
        F: Fn(usize, u64) -> Box<dyn LlrBuffer + Send> + Sync,
    {
        let groups: Vec<usize> = (0..chunks.len()).collect();
        self.run_specs(sim, chunks, &groups, &make_buffer)
    }

    /// `groups[i]` is chunk `i`'s buffer-sharing group: chunks in one
    /// group must deterministically build identical buffers (same
    /// storage, same die seed), and each worker then builds that buffer
    /// once per group instead of once per chunk.
    fn run_specs(
        &self,
        sim: &LinkSimulator,
        specs: &[CustomChunk],
        groups: &[usize],
        make_buffer: &(dyn Fn(usize, u64) -> Box<dyn LlrBuffer + Send> + Sync),
    ) -> Vec<HarqStats> {
        let cfg = *sim.config();
        // Flatten every chunk into packet shards over absolute indices.
        let mut tasks: Vec<Shard> = Vec::new();
        for (chunk, spec) in specs.iter().enumerate() {
            let end = spec.first_packet + spec.n_packets;
            let mut start = spec.first_packet;
            while start < end {
                let count = self.shard_packets.min(end - start);
                tasks.push(Shard {
                    chunk,
                    start,
                    count,
                });
                start += count;
            }
        }

        let workers = self.threads.min(tasks.len()).max(1);
        let batch_lanes = self.batch_lanes;
        let mut partials: Vec<Vec<(usize, HarqStats)>> = if workers == 1 {
            let mut worker =
                Worker::new(&cfg, sim.clone(), specs, groups, make_buffer, batch_lanes);
            vec![tasks
                .iter()
                .map(|t| (t.chunk, worker.run_shard(t)))
                .collect()]
        } else {
            let next = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|_| {
                        let next = &next;
                        let tasks = &tasks;
                        let sim = sim.clone();
                        scope.spawn(move || {
                            let mut worker =
                                Worker::new(&cfg, sim, specs, groups, make_buffer, batch_lanes);
                            let mut out = Vec::new();
                            loop {
                                let t = next.fetch_add(1, Ordering::Relaxed);
                                let Some(task) = tasks.get(t) else { break };
                                out.push((task.chunk, worker.run_shard(task)));
                            }
                            out
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("worker panicked"))
                    .collect()
            })
        };

        // Fold worker partials; order is irrelevant for the result
        // because HarqStats::merge is a sum of counters.
        let mut merged: Vec<HarqStats> = specs
            .iter()
            .map(|_| HarqStats::new(cfg.max_transmissions, cfg.payload_bits))
            .collect();
        for (chunk, stats) in partials.drain(..).flatten() {
            merged[chunk].merge(&stats);
        }
        merged
    }
}

/// One contiguous range of packets of one chunk; `start` is an absolute
/// index into the point's packet stream (non-zero past a point's first
/// chunk).
struct Shard {
    chunk: usize,
    start: usize,
    count: usize,
}

/// Per-thread execution state: a simulator handle, one buffer *set* per
/// buffer group touched (`batch_lanes` interchangeable buffers, each built by
/// the same deterministic factory — the same die), and reusable scratch
/// space for the wave path.
struct Worker<'a> {
    cfg: &'a SystemConfig,
    sim: LinkSimulator,
    specs: &'a [CustomChunk],
    /// Buffer-sharing group per chunk.
    groups: &'a [usize],
    make_buffer: &'a (dyn Fn(usize, u64) -> Box<dyn LlrBuffer + Send> + Sync),
    // determinism: unordered-ok(keyed entry access only; never iterated)
    buffers: HashMap<usize, Vec<Box<dyn LlrBuffer + Send>>>,
    batch_lanes: usize,
    lane_scratch: Vec<PacketScratch>,
    rngs: Vec<StdRng>,
    outcomes: Vec<PacketOutcome>,
    batch: TurboBatchScratch,
    wave: WaveScratch,
}

impl<'a> Worker<'a> {
    fn new(
        cfg: &'a SystemConfig,
        sim: LinkSimulator,
        specs: &'a [CustomChunk],
        groups: &'a [usize],
        make_buffer: &'a (dyn Fn(usize, u64) -> Box<dyn LlrBuffer + Send> + Sync),
        batch_lanes: usize,
    ) -> Self {
        Self {
            cfg,
            sim,
            specs,
            groups,
            make_buffer,
            // determinism: unordered-ok(keyed entry access only; never iterated)
            buffers: HashMap::new(),
            batch_lanes,
            lane_scratch: Vec::new(),
            rngs: Vec::new(),
            outcomes: Vec::new(),
            batch: TurboBatchScratch::new(),
            wave: WaveScratch::new(),
        }
    }

    /// Consecutive packets of the shard fill waves of up to
    /// `batch_lanes` lanes, each against its own buffer/RNG, and decode
    /// together. Lane `l` of a wave draws the stream of absolute packet
    /// `p + l` and batched decoding is bit-identical per lane, so the
    /// recorded statistics are the same at every width. Lanes of a
    /// group's buffer set are interchangeable: the factory is
    /// deterministic in `(chunk, fault_seed)` — the same die — and all
    /// per-packet buffer randomness is re-anchored through
    /// [`LlrBuffer::begin_packet`] (the property the engine's
    /// thread-invariance already rests on), so N copies behave exactly
    /// like one buffer reused serially.
    fn run_shard(&mut self, shard: &Shard) -> HarqStats {
        let spec = self.specs[shard.chunk];
        let make_buffer = self.make_buffer;
        let group = self.groups[shard.chunk];
        let mut stats = HarqStats::new(self.cfg.max_transmissions, self.cfg.payload_bits);
        while self.lane_scratch.len() < self.batch_lanes {
            self.lane_scratch.push(PacketScratch::new());
        }
        let end = shard.start + shard.count;
        let mut p = shard.start;
        while p < end {
            let width = self.batch_lanes.min(end - p);
            let set = self.buffers.entry(group).or_default();
            while set.len() < width {
                let fault_seed = derive_seed(spec.seed, STREAM_FAULT_MAP);
                set.push(make_buffer(shard.chunk, fault_seed));
            }
            self.rngs.clear();
            for (l, buf) in set.iter_mut().take(width).enumerate() {
                let pseed = packet_seed(spec.seed, (p + l) as u64);
                buf.begin_packet(pseed);
                self.rngs.push(StdRng::seed_from_u64(pseed));
            }
            self.outcomes.clear();
            self.outcomes.resize(
                width,
                PacketOutcome {
                    success_after: None,
                    transmissions_used: 0,
                },
            );
            self.sim.simulate_wave_with(
                spec.snr_db,
                &mut set[..width],
                &mut self.rngs[..width],
                &mut self.lane_scratch[..width],
                &mut self.batch,
                &mut self.wave,
                &mut self.outcomes[..width],
            );
            telemetry::counter_add(Counter::WavesDecoded, 1);
            telemetry::hist_record(Histogram::WaveLaneOccupancy, width as u64);
            for outcome in &self.outcomes {
                stats.record(outcome.success_after, self.cfg.max_transmissions);
            }
            p += width;
        }
        telemetry::counter_add(Counter::PacketsSimulated, shard.count as u64);
        for scratch in &mut self.lane_scratch {
            flush_stage_nanos(scratch);
        }
        stats
    }
}

/// Flushes a scratch's per-stage timing tallies into the global
/// telemetry counters and resets them — once per shard, so the packet
/// hot path itself touches no atomics.
fn flush_stage_nanos(scratch: &mut PacketScratch) {
    let n = scratch.stage_nanos;
    telemetry::counter_add(Counter::StageEncodeNanos, n.encode);
    telemetry::counter_add(Counter::StageModulateNanos, n.modulate);
    telemetry::counter_add(Counter::StageChannelNanos, n.channel);
    telemetry::counter_add(Counter::StageEqualizeNanos, n.equalize);
    telemetry::counter_add(Counter::StageDemapNanos, n.demap);
    telemetry::counter_add(Counter::StageHarqNanos, n.harq);
    telemetry::counter_add(Counter::StageDecodeNanos, n.decode);
    scratch.reset_stage_nanos();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::montecarlo::DefectSpec;
    use silicon::fault_map::FaultKind;

    /// The chunk `first..first + n` of a point with its own die.
    fn chunk(storage: StorageConfig, snr_db: f64, first: usize, n: usize, seed: u64) -> ChunkSpec {
        ChunkSpec {
            storage,
            snr_db,
            first_packet: first,
            n_packets: n,
            seed,
            fault_seed: None,
        }
    }

    fn engine_stats(threads: usize, shard: usize) -> Vec<HarqStats> {
        let cfg = SystemConfig::fast_test();
        let sim = LinkSimulator::new(cfg);
        let engine = SimulationEngine::with_threads(threads).shard_packets(shard);
        engine.run_chunks(
            &sim,
            &[
                chunk(
                    StorageConfig::unprotected(0.10, cfg.llr_bits),
                    10.0,
                    0,
                    10,
                    42,
                ),
                chunk(StorageConfig::Quantized, 18.0, 0, 7, 43),
            ],
        )
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let serial = engine_stats(1, 8);
        for (threads, shard) in [(2, 8), (4, 3), (8, 1)] {
            assert_eq!(
                serial,
                engine_stats(threads, shard),
                "threads={threads} shard={shard} must match serial"
            );
        }
    }

    #[test]
    fn packet_counts_are_exact() {
        let stats = engine_stats(3, 4);
        assert_eq!(stats[0].packets, 10);
        assert_eq!(stats[1].packets, 7);
    }

    #[test]
    fn batch_width_does_not_change_results() {
        // Faulty storage included on purpose: buffer-set replication
        // must behave exactly like one buffer reused serially.
        let cfg = SystemConfig::fast_test();
        let sim = LinkSimulator::new(cfg);
        let specs = [
            chunk(
                StorageConfig::unprotected(0.10, cfg.llr_bits),
                8.0,
                0,
                13,
                21,
            ),
            chunk(StorageConfig::Quantized, 16.0, 0, 9, 22),
        ];
        let run = |threads: usize, lanes: usize| {
            SimulationEngine::with_threads(threads)
                .shard_packets(5)
                .batch_lanes(lanes)
                .run_chunks(&sim, &specs)
        };
        let single = run(1, 1);
        for (threads, lanes) in [(1, 2), (1, 8), (2, 4), (4, 8), (1, 13)] {
            assert_eq!(
                single,
                run(threads, lanes),
                "threads={threads} lanes={lanes} must match one-lane waves"
            );
        }
    }

    #[test]
    fn grid_shares_one_die_per_row() {
        // Two SNR chunks of one row pin the same die: each equals the
        // same chunk run alone, so sharing the row's buffer group
        // cannot leak state between cells.
        let cfg = SystemConfig::fast_test();
        let sim = LinkSimulator::new(cfg);
        let engine = SimulationEngine::serial().shard_packets(2);
        let row: Vec<ChunkSpec> = [10.0, 20.0]
            .iter()
            .enumerate()
            .map(|(c, &snr)| ChunkSpec {
                fault_seed: Some(7),
                ..chunk(
                    StorageConfig::unprotected(0.10, cfg.llr_bits),
                    snr,
                    0,
                    5,
                    70 + c as u64,
                )
            })
            .collect();
        let together = engine.run_chunks(&sim, &row);
        assert_eq!(together.len(), 2);
        for (spec, stats) in row.iter().zip(&together) {
            assert_eq!(
                &engine.run_chunks(&sim, std::slice::from_ref(spec))[0],
                stats
            );
        }
    }

    #[test]
    fn batch_with_custom_buffers_is_deterministic() {
        let cfg = SystemConfig::fast_test();
        let sim = LinkSimulator::new(cfg);
        let spec = [CustomChunk {
            snr_db: 14.0,
            first_packet: 0,
            n_packets: 9,
            seed: 5,
        }];
        let run = |threads| {
            SimulationEngine::with_threads(threads)
                .shard_packets(2)
                .run_chunks_with_buffers(&sim, &spec, |_, fault_seed| {
                    Box::new(crate::buffer::TransientLlrBuffer::new(
                        crate::buffer::QuantizedLlrBuffer::new(cfg.coded_len(), cfg.quantizer()),
                        cfg.quantizer(),
                        0.01,
                        fault_seed,
                    ))
                })
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn chunks_partition_to_one_shot() {
        let cfg = SystemConfig::fast_test();
        let sim = LinkSimulator::new(cfg);
        let storage = StorageConfig::unprotected(0.10, cfg.llr_bits);
        let engine = SimulationEngine::with_threads(2).shard_packets(3);
        let one_shot = engine.run_chunks(&sim, &[chunk(storage.clone(), 12.0, 0, 11, 77)]);
        // 11 packets split 0..4, 4..9, 9..11.
        let parts: Vec<ChunkSpec> = [(0, 4), (4, 5), (9, 2)]
            .into_iter()
            .map(|(first, n)| chunk(storage.clone(), 12.0, first, n, 77))
            .collect();
        let mut merged = HarqStats::new(cfg.max_transmissions, cfg.payload_bits);
        for stats in engine.run_chunks(&sim, &parts) {
            merged.merge(&stats);
        }
        assert_eq!(one_shot[0], merged);
    }

    #[test]
    fn chunk_fault_seed_override_pins_the_die() {
        let cfg = SystemConfig::fast_test();
        let sim = LinkSimulator::new(cfg);
        let storage = StorageConfig::unprotected(0.10, cfg.llr_bits);
        let engine = SimulationEngine::serial();
        let run = |fault_seed| {
            engine.run_chunks(
                &sim,
                &[ChunkSpec {
                    fault_seed,
                    ..chunk(storage.clone(), 8.0, 0, 8, 9)
                }],
            )
        };
        // `None` derives the point's own die.
        assert_eq!(run(None), run(Some(derive_seed(9, STREAM_FAULT_MAP))));
        // An explicit die seed is honored deterministically.
        assert_eq!(run(Some(123)), run(Some(123)));
    }

    #[test]
    fn ecc_storage_runs_through_engine() {
        let cfg = SystemConfig::fast_test();
        let sim = LinkSimulator::new(cfg);
        let ecc = StorageConfig::Ecc {
            defects: DefectSpec::Fraction(0.001),
            fault_kind: FaultKind::Flip,
        };
        let stats =
            SimulationEngine::with_threads(2).run_chunks(&sim, &[chunk(ecc, 25.0, 0, 6, 5)]);
        assert_eq!(stats[0].packets, 6);
        assert_eq!(stats[0].delivered, stats[0].packets);
    }
}
