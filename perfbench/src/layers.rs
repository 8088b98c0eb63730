//! Per-layer metrics of a traced run: counts from telemetry deltas and
//! layer times from spans around public calls, replaying the
//! workload's own inputs through a layer's entry point where its time
//! cannot be separated from outside.

use std::collections::BTreeMap;
use std::fs;
use std::hint::black_box;
use std::path::{Path, PathBuf};

use dsp::rng::{derive_seed, STREAM_FAULT_MAP};
use hspa_phy::harq::HarqStats;
use resilience_core::campaign::controller::WILSON_Z;
use resilience_core::campaign::shard::{self, ShardSpec};
use resilience_core::campaign::store::{self, BackendKind, ChunkId};
use resilience_core::campaign::{hash, CampaignReport, Manifest, ResultStore};
use resilience_core::engine::{ChunkSpec, SimulationEngine};
use resilience_core::montecarlo::{build_buffer, StorageConfig};
use resilience_core::telemetry::{self, Counter, Histogram, Snapshot};

use crate::trace::Tracer;
use crate::workloads::{delta, fresh, Inputs, THREADS};
use crate::{best, sys, Checks, Metrics};

/// Every per-layer metric with its unit, in report order. Each traced
/// run reports all of them; a layer a workload does not exercise reads 0.
pub const CATALOG: [(&str, &str); 41] = [
    ("campaign.packets_realized", "count"),
    ("campaign.chunks_scheduled", "count"),
    ("campaign.saved_fraction", "ratio"),
    ("campaign.self_s", "s"),
    ("hash.fingerprint_us", "us"),
    ("manifest.write_ms", "ms"),
    ("manifest.bytes", "bytes"),
    ("store.open_ms", "ms"),
    ("store.open_ms_indexed", "ms"),
    ("store.fetch_us", "us"),
    ("store.chunk_hits", "count"),
    ("store.chunk_misses", "count"),
    ("store.bytes", "bytes"),
    ("store.append_us", "us"),
    ("store.chunks_written", "count"),
    ("engine.busy_s", "s"),
    ("engine.packets_per_s_1t", "1/s"),
    ("engine.thread_efficiency", "ratio"),
    ("engine.waves", "count"),
    ("engine.lane_occupancy", "ratio"),
    ("sim.encode_ns", "ns"),
    ("sim.modulate_ns", "ns"),
    ("sim.channel_ns", "ns"),
    ("sim.equalize_ns", "ns"),
    ("sim.demap_ns", "ns"),
    ("sim.harq_ns", "ns"),
    ("sim.decode_ns", "ns"),
    ("sim.packet_ns", "ns"),
    ("sim.unaccounted_ns", "ns"),
    ("buffer.quantized_ns_per_llr", "ns"),
    ("buffer.faulty_ns_per_llr", "ns"),
    ("dispatch.legs_launched", "count"),
    ("dispatch.leg_s_max", "s"),
    ("dispatch.leg_s_mean", "s"),
    ("dispatch.imbalance", "ratio"),
    ("dispatch.idle_s", "s"),
    ("shard.merge_ms", "ms"),
    ("shard.verify_ms", "ms"),
    ("trace.overhead", "ratio"),
    ("trace.untraced_reps", "count"),
    ("trace.traced_reps", "count"),
];

/// Stage counters and their metric names, in link order.
const STAGES: [(Counter, &str); 7] = [
    (Counter::StageEncodeNanos, "sim.encode_ns"),
    (Counter::StageModulateNanos, "sim.modulate_ns"),
    (Counter::StageChannelNanos, "sim.channel_ns"),
    (Counter::StageEqualizeNanos, "sim.equalize_ns"),
    (Counter::StageDemapNanos, "sim.demap_ns"),
    (Counter::StageHarqNanos, "sim.harq_ns"),
    (Counter::StageDecodeNanos, "sim.decode_ns"),
];

/// Minimum calls and seconds of each single-call probe.
const PROBE_REPS: usize = 5;
const PROBE_S: f64 = 0.5;

/// Per-layer values of one traced run.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            CATALOG.iter().any(|(n, _)| *n == name),
            "{name} is not a per-layer metric"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Every catalog metric, 0 where unset.
    pub fn metrics(&self) -> Metrics {
        let mut m = Metrics::default();
        for (name, unit) in CATALOG {
            m.set(name, self.get(name), unit);
        }
        m
    }

    /// Controller and store counts of one repetition, from its reports
    /// and the telemetry snapshots around it.
    pub fn campaign_counts(
        &mut self,
        reports: &[CampaignReport],
        before: &Snapshot,
        after: &Snapshot,
        target_ci: f64,
    ) {
        let per = |c| delta(before, after, c) as f64;
        let realized: u64 = reports.iter().map(CampaignReport::packets_realized).sum();
        let points = reports.iter().map(|r| r.outcomes.len()).sum();
        let caps = reports.iter().map(CampaignReport::budget_packets).sum();
        self.set("campaign.packets_realized", realized as f64);
        self.set("campaign.chunks_scheduled", per(Counter::ChunksScheduled));
        self.set(
            "campaign.saved_fraction",
            saved_fraction(realized, points, caps, target_ci),
        );
        self.set("store.chunk_hits", per(Counter::StoreChunkHits));
        self.set("store.chunk_misses", per(Counter::StoreChunkMisses));
        self.set("store.chunks_written", per(Counter::StoreChunksWritten));
    }

    /// The same counts from merged manifests (the dispatched campaigns
    /// run in leg processes whose telemetry this process cannot see).
    pub fn manifest_counts(&mut self, manifests: &[&Manifest], target_ci: f64) {
        let totals: Vec<_> = manifests.iter().map(|m| m.totals()).collect();
        let realized = totals.iter().map(|t| t.realized_packets).sum();
        let points = manifests.iter().map(|m| m.points.len()).sum();
        let caps = totals.iter().map(|t| t.budget_packets).sum();
        self.set("campaign.packets_realized", realized as f64);
        self.set(
            "campaign.chunks_scheduled",
            totals.iter().map(|t| t.total_chunks).sum::<u64>() as f64,
        );
        self.set(
            "campaign.saved_fraction",
            saved_fraction(realized, points, caps, target_ci),
        );
    }

    /// Engine wave counts of one repetition.
    pub fn engine_counts(&mut self, before: &Snapshot, after: &Snapshot) {
        let waves = delta(before, after, Counter::WavesDecoded);
        self.set("engine.waves", waves as f64);
        let (b, a) = (
            before.hist(Histogram::WaveLaneOccupancy),
            after.hist(Histogram::WaveLaneOccupancy),
        );
        let count = a.count - b.count;
        if count > 0 {
            let mean_lanes = (a.sum - b.sum) as f64 / count as f64;
            let batch = SimulationEngine::with_threads(THREADS).batch() as f64;
            self.set("engine.lane_occupancy", mean_lanes / batch);
        }
    }
}

/// Useful-work ratio: 1 − realized ÷ the worst-case budget, which is
/// z²/4w² packets per point under an absolute target `w`, else the
/// points' caps.
fn saved_fraction(realized: u64, points: usize, caps: u64, target_ci: f64) -> f64 {
    let worst = if target_ci > 0.0 {
        (WILSON_Z * WILSON_Z / (4.0 * target_ci * target_ci)).ceil() * points as f64
    } else {
        caps as f64
    };
    1.0 - realized as f64 / worst
}

fn io(path: &Path) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{}: {e}", path.display())
}

/// Best seconds of one call of `f`, each call in a span named `name`,
/// over at least [`PROBE_REPS`] calls and [`PROBE_S`] seconds — the
/// same best-repetition estimate as the end-to-end timings, so the
/// probes and the run span they are subtracted from agree.
fn best_of(
    t: &Tracer,
    name: &str,
    f: &mut dyn FnMut() -> Result<(), String>,
) -> Result<f64, String> {
    let start = sys::now();
    let mut times = Vec::new();
    while times.len() < PROBE_REPS || start.elapsed().as_secs_f64() < PROBE_S {
        let t0 = sys::now();
        t.span(name, &mut *f)?;
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok(best(&times))
}

/// Per-call costs measured by [`probe_all`], for subtracting a
/// campaign's outside-measurable work from its run span.
#[derive(Debug, Clone, Copy)]
pub struct Probes {
    fingerprint_s: f64,
    open_s: f64,
    fetch_s: f64,
    append_s: f64,
    manifest_write_s: f64,
}

impl Probes {
    /// Hash, store and manifest seconds of `runs` campaign runs that
    /// together fetch `fetches` chunks, append `appends` and
    /// fingerprint `points` points.
    pub fn outside_s(&self, runs: usize, fetches: u64, appends: u64, points: usize) -> f64 {
        runs as f64 * (self.open_s + self.manifest_write_s)
            + self.fetch_s * fetches as f64
            + self.append_s * appends as f64
            + self.fingerprint_s * points as f64
    }
}

/// Hash, store and manifest probes over the workload's own points,
/// store file and manifest file.
pub fn probe_all(
    t: &Tracer,
    inputs: &Inputs,
    store_path: &Path,
    manifest_path: &Path,
    work: &Path,
    checks: &mut Checks,
    l: &mut Layers,
) -> Result<Probes, String> {
    let scratch = work.join("probes");
    fresh(&scratch)?;

    // hash: fingerprint + key of every point.
    let mut sink = 0u64;
    let pass_s = best_of(t, "hash.fingerprint", &mut || {
        for p in &inputs.points {
            let fp =
                hash::point_fingerprint(&inputs.cfg, &p.storage, p.snr_db, p.seed, p.fault_seed);
            sink ^= hash::point_key(&fp);
        }
        Ok(())
    })?;
    black_box(sink);
    let fingerprint_s = pass_s / inputs.points.len() as f64;
    l.set("hash.fingerprint_us", fingerprint_s * 1e6);

    // store: open, fetch every chunk, the indexed backend's open.
    let bytes = fs::metadata(store_path).map_err(io(store_path))?.len();
    l.set("store.bytes", bytes as f64);
    let (records, torn) = store::load_all(store_path).map_err(io(store_path))?;
    checks.require(torn == 0, "store.torn", 0, format!("{torn} torn records"));
    let open_s = best_of(t, "store.open", &mut || {
        ResultStore::open(store_path, true)
            .map(black_box)
            .map(drop)
            .map_err(io(store_path))
    })?;
    l.set("store.open_ms", open_s * 1e3);
    let mut opened = ResultStore::open(store_path, true).map_err(io(store_path))?;
    let t0 = sys::now();
    let hits = t.span("store.fetch", || {
        records
            .iter()
            .filter(|(id, stats)| opened.fetch(*id).as_ref() == Some(stats))
            .count()
    });
    let fetch_s = t0.elapsed().as_secs_f64() / records.len().max(1) as f64;
    l.set("store.fetch_us", fetch_s * 1e6);
    checks.require(
        hits == records.len(),
        "store.fetch_roundtrip",
        0,
        format!(
            "{} of {} stored chunks fetched back unchanged",
            hits,
            records.len()
        ),
    );
    let indexed = scratch.join(format!("probe.{}", BackendKind::Indexed.extension()));
    t.span("store.convert", || store::convert(store_path, &indexed))
        .map_err(io(&indexed))?;
    let open_indexed_s = best_of(t, "store.open_indexed", &mut || {
        ResultStore::open(&indexed, true)
            .map(black_box)
            .map(drop)
            .map_err(io(&indexed))
    })?;
    l.set("store.open_ms_indexed", open_indexed_s * 1e3);

    // store appends: the same records into a fresh store.
    let appended = scratch.join("append.jsonl");
    let mut fresh_store = ResultStore::open(&appended, false).map_err(io(&appended))?;
    let t0 = sys::now();
    t.span("store.put", || {
        records
            .iter()
            .try_for_each(|(id, stats)| fresh_store.put(*id, stats))
    })
    .map_err(io(&appended))?;
    let append_s = t0.elapsed().as_secs_f64() / records.len().max(1) as f64;
    l.set("store.append_us", append_s * 1e6);

    // manifest: parse the workload's manifest and time rewriting it.
    let manifest = Manifest::read(manifest_path).map_err(io(manifest_path))?;
    let copy = scratch.join("probe.manifest.json");
    let manifest_write_s = best_of(t, "manifest.write", &mut || {
        manifest.write(&copy).map_err(io(&copy))
    })?;
    l.set("manifest.write_ms", manifest_write_s * 1e3);
    let written = fs::read(&copy).map_err(io(&copy))?;
    let original = fs::read(manifest_path).map_err(io(manifest_path))?;
    checks.require(
        written == original,
        "manifest.roundtrip",
        0,
        "a parsed and rewritten manifest differs from the original",
    );
    l.set("manifest.bytes", original.len() as f64);

    Ok(Probes {
        fingerprint_s,
        open_s,
        fetch_s,
        append_s,
        manifest_write_s,
    })
}

/// The campaign's chunk schedule rebuilt from its store: round `r`
/// holds every point's `r`-th chunk in input order — exactly the batch
/// the controller handed the engine in that round.
fn chunk_rounds(
    inputs: &Inputs,
    records: Vec<(ChunkId, HarqStats)>,
) -> Result<Vec<Vec<(ChunkSpec, HarqStats)>>, String> {
    let keys = inputs.keys();
    let index: BTreeMap<u64, usize> = keys.iter().enumerate().map(|(i, &k)| (k, i)).collect();
    let mut per_point: Vec<Vec<(ChunkId, HarqStats)>> = vec![Vec::new(); keys.len()];
    for (id, stats) in records {
        let i = *index
            .get(&id.point)
            .ok_or_else(|| format!("stored chunk of unknown point {:016x}", id.point))?;
        per_point[i].push((id, stats));
    }
    let depth = per_point.iter().map(Vec::len).max().unwrap_or(0);
    let mut rounds = vec![Vec::new(); depth];
    for (i, chunks) in per_point.iter_mut().enumerate() {
        chunks.sort_by_key(|(id, _)| id.first_packet);
        let p = &inputs.points[i];
        for (r, (id, stats)) in chunks.iter().enumerate() {
            let spec = ChunkSpec {
                storage: p.storage.clone(),
                snr_db: p.snr_db,
                first_packet: id.first_packet,
                n_packets: id.n_packets,
                seed: p.seed,
                fault_seed: p.fault_seed,
            };
            rounds[r].push((spec, stats.clone()));
        }
    }
    Ok(rounds)
}

/// Replays each grid's chunk schedule, rebuilt from its store, through
/// `SimulationEngine::run_chunks` at 2 and 1 threads. The 1-thread
/// replay gives per-packet stage means and packet time over one window
/// of the same counters, so stages plus the residual add up.
pub fn probe_engine(
    t: &Tracer,
    grids: &[Inputs],
    stores: &[PathBuf],
    checks: &mut Checks,
    l: &mut Layers,
) -> Result<(), String> {
    let mut schedules = Vec::new();
    for (inputs, store_path) in grids.iter().zip(stores) {
        let (records, _) = store::load_all(store_path).map_err(io(store_path))?;
        schedules.push((inputs, chunk_rounds(inputs, records)?));
    }
    let packets: usize = schedules
        .iter()
        .flat_map(|(_, rounds)| rounds.iter().flatten())
        .map(|(c, _)| c.n_packets)
        .sum();
    let mut pps = [0.0; 2];
    for (slot, threads) in [(1usize, 2usize), (0, 1)] {
        let engine = SimulationEngine::with_threads(threads);
        let name = format!("engine.run_chunks.{threads}t");
        let before = telemetry::snapshot();
        let t0 = sys::now();
        let mut differing = 0;
        for (inputs, rounds) in &schedules {
            for round in rounds {
                let specs: Vec<ChunkSpec> = round.iter().map(|(c, _)| c.clone()).collect();
                let fresh = t.span(&name, || engine.run_chunks(&inputs.sim, &specs));
                differing += fresh
                    .iter()
                    .zip(round)
                    .filter(|(a, (_, b))| *a != b)
                    .count();
            }
        }
        let wall = t0.elapsed().as_secs_f64();
        let after = telemetry::snapshot();
        checks.require(
            differing == 0,
            "engine.replay_matches_store",
            0,
            format!("{differing} replayed chunks differ from the store at {threads} threads"),
        );
        pps[slot] = packets as f64 / wall;
        if threads == 2 {
            l.set("engine.busy_s", wall);
            continue;
        }
        let simulated = delta(&before, &after, Counter::PacketsSimulated).max(1) as f64;
        let mut staged = 0.0;
        for (counter, metric) in STAGES {
            let ns = delta(&before, &after, counter) as f64 / simulated;
            staged += ns;
            l.set(metric, ns);
        }
        let packet_ns = wall * 1e9 / simulated;
        l.set("sim.packet_ns", packet_ns);
        l.set("sim.unaccounted_ns", packet_ns - staged);
    }
    l.set("engine.packets_per_s_1t", pps[0]);
    l.set(
        "engine.thread_efficiency",
        pps[1] / (THREADS as f64 * pps[0]),
    );
    Ok(())
}

/// Times `LlrBuffer::store_load` on the buffers `build_buffer` makes
/// for the workload's storages (fault-free quantized, and the mean over
/// the faulty ones).
pub fn probe_buffer(t: &Tracer, inputs: &Inputs, seed: u64, l: &mut Layers) {
    let n = inputs.cfg.coded_len();
    let clip = inputs.cfg.llr_clip;
    // Deterministic LLRs spread over the clip range.
    let mut x = seed | 1;
    let data: Vec<f64> = (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            ((x >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0) * clip
        })
        .collect();
    let mut faulty = Vec::new();
    for (r, storage) in inputs.storages.iter().enumerate() {
        let die = derive_seed(derive_seed(seed, r as u64), STREAM_FAULT_MAP);
        let mut buffer = build_buffer(&inputs.cfg, storage, die);
        let mut work = Vec::with_capacity(n);
        let mut busy = 0.0;
        let mut calls = 0u64;
        t.span("buffer.store_load", || {
            while calls == 0 || busy < PROBE_S {
                work.clear();
                work.extend_from_slice(&data);
                let t0 = sys::now();
                buffer.store_load(black_box(&mut work));
                busy += t0.elapsed().as_secs_f64();
                calls += 1;
            }
        });
        let ns_per_llr = busy * 1e9 / (calls as f64 * n as f64);
        match storage {
            StorageConfig::Quantized => l.set("buffer.quantized_ns_per_llr", ns_per_llr),
            _ => faulty.push(ns_per_llr),
        }
    }
    if !faulty.is_empty() {
        l.set(
            "buffer.faulty_ns_per_llr",
            faulty.iter().sum::<f64>() / faulty.len() as f64,
        );
    }
}

/// Dispatcher metrics of the last traced repetition (one dispatch per
/// grid, the grids' campaign directories in `dirs`): leg spans from
/// the tracing launcher, and each grid's merge and verify replayed on
/// its shard artifacts. Leg times and idle time are summed over the
/// repetition's dispatches, like its `wall_s`; merge and verify times
/// are per dispatch.
pub fn probe_dispatch(
    t: &Tracer,
    name: &str,
    dirs: &[PathBuf],
    work: &Path,
    checks: &mut Checks,
    l: &mut Layers,
) -> Result<(), String> {
    let dispatches = t.find("dispatch.dispatch");
    let last = &dispatches[dispatches.len().saturating_sub(dirs.len())..];
    let legs = t.find("dispatch.leg ");
    let (mut max_sum, mut mean_sum, mut unmerged) = (0.0, 0.0, 0.0);
    for d in last {
        let secs: Vec<f64> = legs
            .iter()
            .filter(|s| s.start_ns >= d.start_ns && s.end_ns <= d.end_ns)
            .map(|s| s.secs())
            .collect();
        if secs.is_empty() {
            return Err("a traced dispatch has no leg spans".into());
        }
        let max = secs.iter().copied().fold(0.0, f64::max);
        max_sum += max;
        mean_sum += secs.iter().sum::<f64>() / secs.len() as f64;
        unmerged += d.secs() - max;
    }
    l.set("dispatch.leg_s_max", max_sum);
    l.set("dispatch.leg_s_mean", mean_sum);
    l.set("dispatch.imbalance", max_sum / mean_sum);

    let (mut merge_s, mut verify_s) = (0.0, 0.0);
    for (g, dir) in dirs.iter().enumerate() {
        let manifests = shard::discover_shards(name, dir).map_err(io(dir))?;
        let out = work.join(format!("merge-probe-{g}"));
        fresh(&out)?;
        let t0 = sys::now();
        t.span("shard.merge", || {
            shard::merge_manifests(name, &manifests, &out)
        })
        .map_err(io(&out))?;
        merge_s += t0.elapsed().as_secs_f64();
        let t0 = sys::now();
        let verify = t
            .span("shard.verify", || {
                shard::verify(name, &out, ShardSpec::single())
            })
            .map_err(io(&out))?;
        verify_s += t0.elapsed().as_secs_f64();
        checks.require(verify.ok(), "shard.verify", 0, verify.problems.join("; "));
        let file = shard::manifest_file(name, ShardSpec::single());
        let same = matches!(
            (fs::read(out.join(&file)), fs::read(dir.join(&file))),
            (Ok(a), Ok(b)) if a == b
        );
        checks.require(
            same,
            "shard.remerge_identical",
            0,
            format!("grid {g}: re-merging the shard artifacts gave a different manifest"),
        );
    }
    let runs = dirs.len() as f64;
    l.set("shard.merge_ms", merge_s / runs * 1e3);
    l.set("shard.verify_ms", verify_s / runs * 1e3);
    l.set("dispatch.idle_s", unmerged - merge_s - verify_s);
    Ok(())
}
