//! The three workloads: inputs generated from the seed, the timed
//! repetitions, their output checks, and the traced variant of each.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::rc::Rc;

use dsp::rng::{derive_seed, STREAM_FAULT_MAP};
use resilience_core::campaign::hash::fnv1a64;
use resilience_core::campaign::{
    dispatch, hash, Campaign, CampaignPoint, CampaignReport, CampaignSettings, DispatchConfig,
    DispatchReport, Launcher, LocalLauncher, Manifest,
};
use resilience_core::config::SystemConfig;
use resilience_core::engine::SimulationEngine;
use resilience_core::experiments::{fig6, snr_grid};
use resilience_core::montecarlo::StorageConfig;
use resilience_core::simulator::LinkSimulator;
use resilience_core::telemetry::{self, Counter, Snapshot};

use crate::layers::{self, Layers};
use crate::trace::{Tracer, TracingLauncher};
use crate::{best, median, sys, Args, Checks, Metrics};

/// Engine threads of the in-process campaigns; the dispatched
/// campaign runs two one-thread legs instead.
pub const THREADS: usize = 2;
/// Campaign name of the Fig. 6a grid — the name the `fig6a` binary
/// uses, so in-process and dispatched manifests are comparable byte
/// for byte.
const FIG6_NAME: &str = "fig6";
/// Absolute 95 % Wilson half-width every Fig. 6a point must reach. It
/// keeps a repetition of six grids near 3 s on two threads, so a run
/// holds about ten repetitions; see [`end_to_end`].
const FIG6_TARGET_CI: f64 = 0.07;
/// Per-point packet cap, far above the worst case z²/4w² ≈ 196, so
/// the target, not the cap, stops every point.
const FIG6_CAP: usize = 16_384;
/// Fig. 6a grids per repetition, each with its own master seed. A
/// two-leg dispatch's time follows its slowest leg, and which heavy
/// points share a leg depends on the seed: at target 0.05 over seeds
/// 0-9 the slowest leg's work spread 12 % (IQR ÷ median) with three
/// grids per repetition and 5.5 % with six.
const FIG6_GRIDS: u64 = 6;
/// Cap of the set-up warm-up: one initial chunk per point.
const WARMUP_CAP: usize = 32;
const RESUME_NAME: &str = "resume11k";
/// Master seeds the resume grid is replicated over (200 × 55 points).
const RESUME_REPLICAS: u64 = 200;
/// Packets per resume point: one initial chunk, which is also the cap.
const RESUME_PACKETS: usize = 4;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Leg processes of the dispatched workload.
const LEGS: u32 = 2;

/// Per-seed counts recorded from earlier runs of this code; see
/// [`check_counts`].
const EXPECTED: &str = include_str!("../expected.tsv");

/// The generated inputs of one campaign: link configuration, controller
/// settings and operating points.
pub struct Inputs {
    pub name: &'static str,
    pub cfg: SystemConfig,
    pub sim: LinkSimulator,
    pub settings: CampaignSettings,
    pub storages: Vec<StorageConfig>,
    pub points: Vec<CampaignPoint>,
}

impl Inputs {
    /// A fresh campaign over `dir`, telemetry exposition off.
    pub fn campaign(&self, dir: &Path, threads: usize) -> Campaign {
        Campaign::new(
            self.name,
            self.settings,
            SimulationEngine::with_threads(threads),
        )
        .with_store_dir(dir)
        .with_telemetry(false)
    }

    /// Store key of every point, in input order.
    pub fn keys(&self) -> Vec<u64> {
        self.points
            .iter()
            .map(|p| {
                hash::point_key(&hash::point_fingerprint(
                    &self.cfg,
                    &p.storage,
                    p.snr_db,
                    p.seed,
                    p.fault_seed,
                ))
            })
            .collect()
    }
}

/// Appends the points of one (storage × SNR) grid with the seed tree of
/// `Campaign::run_grid`: row `r` draws `derive_seed(master, r)` and
/// shares one die over its SNR sweep.
fn push_grid(
    out: &mut Vec<CampaignPoint>,
    storages: &[StorageConfig],
    cap: usize,
    master_seed: u64,
    suffix: &str,
) {
    for (r, storage) in storages.iter().enumerate() {
        let row_seed = derive_seed(master_seed, r as u64);
        let die_seed = derive_seed(row_seed, STREAM_FAULT_MAP);
        for (c, snr_db) in snr_grid().into_iter().enumerate() {
            out.push(CampaignPoint {
                label: format!("{} @ {snr_db} dB{suffix}", storage.label()),
                storage: storage.clone(),
                snr_db,
                max_packets: cap,
                seed: derive_seed(row_seed, 0x100 + c as u64),
                fault_seed: Some(die_seed),
            });
        }
    }
}

/// Master seeds of a repetition's [`FIG6_GRIDS`] grids, derived from
/// the workload seed.
fn fig6_masters(seed: u64) -> Vec<u64> {
    (0..FIG6_GRIDS).map(|g| derive_seed(seed, g)).collect()
}

/// The Fig. 6a grid (5 defect fractions × 11 SNRs) of the paper's 64QAM
/// link, master seed `seed`, stopped at [`FIG6_TARGET_CI`].
pub fn fig6_inputs(seed: u64, cap: usize) -> Inputs {
    let cfg = SystemConfig::paper_64qam();
    let storages = fig6::storages(&fig6::DEFECT_FRACTIONS, cfg.llr_bits);
    let mut points = Vec::new();
    push_grid(&mut points, &storages, cap, seed, "");
    Inputs {
        name: FIG6_NAME,
        sim: LinkSimulator::new(cfg),
        cfg,
        settings: CampaignSettings {
            target_ci: FIG6_TARGET_CI,
            ..CampaignSettings::default()
        },
        storages,
        points,
    }
}

/// The Fig. 6a grid on the `fast_test` link, replicated over
/// [`RESUME_REPLICAS`] master seeds derived from `seed`, one
/// [`RESUME_PACKETS`]-packet chunk per point.
pub fn resume_inputs(seed: u64) -> Inputs {
    let cfg = SystemConfig::fast_test();
    let storages = fig6::storages(&fig6::DEFECT_FRACTIONS, cfg.llr_bits);
    let mut points = Vec::new();
    for m in 0..RESUME_REPLICAS {
        let suffix = format!(" #{m}");
        push_grid(
            &mut points,
            &storages,
            RESUME_PACKETS,
            derive_seed(seed, m),
            &suffix,
        );
    }
    Inputs {
        name: RESUME_NAME,
        sim: LinkSimulator::new(cfg),
        cfg,
        settings: CampaignSettings {
            initial_chunk: RESUME_PACKETS,
            ..CampaignSettings::default()
        },
        storages,
        points,
    }
}

/// Empties `dir` (creating it if needed).
pub fn fresh(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))
}

fn read(path: &Path) -> Result<Vec<u8>, String> {
    fs::read(path).map_err(|e| format!("{}: {e}", path.display()))
}

/// Counter delta between two telemetry snapshots.
pub fn delta(before: &Snapshot, after: &Snapshot, c: Counter) -> u64 {
    after.counter(c) - before.counter(c)
}

/// Telemetry snapshots taken around one repetition.
pub type Window = (Snapshot, Snapshot);

/// One timed repetition: wall and CPU seconds and the packets realized.
#[derive(Debug, Clone, Copy, Default)]
struct Rep {
    wall_s: f64,
    cpu_s: f64,
    packets: u64,
}

impl Rep {
    fn add(&mut self, other: Rep) {
        self.wall_s += other.wall_s;
        self.cpu_s += other.cpu_s;
        self.packets += other.packets;
    }
}

/// Runs `f` and measures its wall and CPU (self + reaped children)
/// seconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let cpu0 = sys::cpu_s();
    let t0 = sys::now();
    let out = f();
    let wall = t0.elapsed().as_secs_f64();
    (out, wall, sys::cpu_s() - cpu0)
}

/// Runs `f` timed, inside a span named `name` when traced.
fn timed_span<T>(tracer: Option<&Tracer>, name: &str, f: impl FnOnce() -> T) -> (T, f64, f64) {
    timed(|| match tracer {
        Some(t) => t.span(name, f),
        None => f(),
    })
}

/// Runs `setup` [`SETUPS`] times and returns the last result with the
/// set-up times.
fn set_up<T>(mut setup: impl FnMut(usize) -> Result<T, String>) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut last = None;
    for i in 0..SETUPS {
        let t0 = sys::now();
        last = Some(setup(i)?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((last.expect("SETUPS > 0"), times))
}

/// The end-to-end metrics of a run: the median set-up, and the median
/// repetition of each timed metric. A shared host's speed drifts over
/// minutes, slowing CPU and wall time alike, so no repetition of a run
/// is free of it; the median over the whole run varies less from run to
/// run than the best repetition does.
fn end_to_end(setups: &[f64], reps: &[Rep]) -> Result<Metrics, String> {
    if reps.is_empty() {
        return Err("no repetition completed".into());
    }
    let col = |f: fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let mut m = Metrics::default();
    m.set("setup_s", median(setups), "s");
    m.set("wall_s", col(|r| r.wall_s), "s");
    m.set("packets_per_s", col(|r| r.packets as f64 / r.wall_s), "1/s");
    m.set("cpu_s", col(|r| r.cpu_s), "s");
    m.set("peak_rss_mb", sys::peak_rss_mb(), "MiB");
    let mut walls: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    walls.sort_by(f64::total_cmp);
    let q = |p: f64| walls[((walls.len() - 1) as f64 * p).round() as usize];
    eprintln!(
        "perfbench: {} set-ups, {} timed repetitions, wall_s quantiles 0/10/25/50/75/100%: \
         {:.4} {:.4} {:.4} {:.4} {:.4} {:.4}",
        setups.len(),
        reps.len(),
        q(0.0),
        q(0.1),
        q(0.25),
        q(0.5),
        q(0.75),
        q(1.0),
    );
    Ok(m)
}

/// Deterministic counts of one repetition, compared across the
/// repetitions of a run and against [`EXPECTED`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Counts {
    packets_realized: u64,
    chunks_scheduled: u64,
    chunks_written: u64,
    legs_launched: u64,
    /// FNV-1a 64 of the repetition's manifests, concatenated in order.
    manifest_fnv: u64,
}

impl Counts {
    fn row(&self, workload: &str, seed: u64) -> String {
        format!(
            "{workload}\t{seed}\t{}\t{}\t{}\t{}\t{:016x}",
            self.packets_realized,
            self.chunks_scheduled,
            self.chunks_written,
            self.legs_launched,
            self.manifest_fnv
        )
    }
}

/// Checks a repetition's counts: equal to the run's first repetition,
/// and to the recorded row of `(workload, seed)` when there is one.
/// A mismatch fails all `points` of the repetition.
struct CountCheck<'a> {
    workload: &'a str,
    seed: u64,
    first: Option<Counts>,
}

impl CountCheck<'_> {
    fn check(&mut self, checks: &mut Checks, counts: Counts, points: usize) {
        let (workload, seed) = (self.workload, self.seed);
        let row = counts.row(workload, seed);
        match &self.first {
            None => {
                eprintln!("perfbench: counts {row}");
                self.first = Some(counts);
            }
            Some(f) => checks.require(
                *f == counts,
                &format!("{workload}.repeatable"),
                points,
                format!(
                    "{row} differs from the first repetition {}",
                    f.row(workload, seed)
                ),
            ),
        }
        let prefix = format!("{workload}\t{seed}\t");
        if let Some(recorded) = EXPECTED.lines().find(|l| l.starts_with(&prefix)) {
            checks.require(
                recorded == row,
                &format!("{workload}.expected_counts"),
                points,
                format!("got {row}, recorded {recorded}"),
            );
        }
    }
}

/// The timed phase: repeats `rep` until `--seconds` have passed (at
/// least once) and returns every repetition with the last one's output.
/// Traced, each traced repetition follows an untraced one, so drift on
/// the host affects both sides of `trace.overhead` alike; both sides'
/// walls go to `run`. A repetition that could not complete (a failed
/// dispatch) returns `None` and is not timed.
fn timed_phase<T>(
    args: &Args,
    run: Option<&mut TracedRun>,
    mut rep: impl FnMut(Option<&Tracer>) -> Result<Option<(Rep, T)>, String>,
) -> Result<(Vec<Rep>, Option<T>), String> {
    let tracer = run.as_ref().map(|r| Rc::clone(&r.tracer));
    let start = sys::now();
    let (mut reps, mut untraced, mut last) = (Vec::new(), Vec::new(), None);
    loop {
        if tracer.is_some() {
            if let Some((r, _)) = rep(None)? {
                untraced.push(r.wall_s);
            }
        }
        if let Some((r, out)) = rep(tracer.as_deref())? {
            reps.push(r);
            last = Some(out);
        }
        if start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    if let Some(run) = run {
        run.untraced = untraced;
        run.traced = reps.iter().map(|r| r.wall_s).collect();
        if run.untraced.is_empty() || run.traced.is_empty() {
            return Err("no repetition completed".into());
        }
    }
    Ok((reps, last))
}

/// One timed run of `inputs`' campaign over the store in `dir`: its
/// report and manifest bytes.
fn run_campaign(
    inputs: &Inputs,
    dir: &Path,
    tracer: Option<&Tracer>,
) -> Result<(CampaignReport, Vec<u8>, Rep), String> {
    let campaign = inputs.campaign(dir, THREADS);
    let (report, wall_s, cpu_s) = timed_span(tracer, "campaign.run", || {
        campaign.run(&inputs.sim, &inputs.points)
    });
    let bytes = read(&campaign.manifest_path())?;
    let rep = Rep {
        wall_s,
        cpu_s,
        packets: report.packets_realized(),
    };
    Ok((report, bytes, rep))
}

/// Every point of a Fig. 6a report must reach the target half-width
/// before its cap.
fn check_converged(checks: &mut Checks, workload: &str, report: &CampaignReport) {
    let missed: Vec<&str> = report
        .outcomes
        .iter()
        .filter(|o| !(o.converged && o.check.half_width <= FIG6_TARGET_CI))
        .map(|o| o.label.as_str())
        .collect();
    checks.require(
        missed.is_empty(),
        &format!("{workload}.target_ci"),
        missed.len(),
        format!("points missed the target: {missed:?}"),
    );
}

/// One cold repetition over every grid.
struct ColdRep {
    reports: Vec<CampaignReport>,
    manifests: Vec<Vec<u8>>,
    /// Timing summed over the grids.
    rep: Rep,
    /// Telemetry around all of them.
    window: Window,
}

/// Runs every grid's campaign in a fresh store under `dir`, checking
/// that each point converges.
fn cold_rep(
    grids: &[Inputs],
    dir: &Path,
    tracer: Option<&Tracer>,
    checks: &mut Checks,
    workload: &str,
) -> Result<ColdRep, String> {
    let before = telemetry::snapshot();
    let (mut reports, mut manifests, mut rep) = (Vec::new(), Vec::new(), Rep::default());
    for (g, inputs) in grids.iter().enumerate() {
        let grid_dir = dir.join(format!("grid{g}"));
        fresh(&grid_dir)?;
        let (report, bytes, r) = run_campaign(inputs, &grid_dir, tracer)?;
        checks.attempt(inputs.points.len());
        check_converged(checks, workload, &report);
        rep.add(r);
        reports.push(report);
        manifests.push(bytes);
    }
    Ok(ColdRep {
        reports,
        manifests,
        rep,
        window: (before, telemetry::snapshot()),
    })
}

/// A traced run's spans, layer values and repetition walls; `finish`
/// adds `trace.overhead` and writes the spans and layer table.
struct TracedRun {
    tracer: Rc<Tracer>,
    layers: Layers,
    untraced: Vec<f64>,
    traced: Vec<f64>,
}

impl TracedRun {
    fn new(args: &Args) -> Self {
        let run = format!(
            "{}-seed{}-pid{}",
            args.workload,
            args.seed,
            std::process::id()
        );
        Self {
            tracer: Rc::new(Tracer::new(run)),
            layers: Layers::default(),
            untraced: Vec::new(),
            traced: Vec::new(),
        }
    }

    fn finish(mut self, args: &Args) -> Result<Metrics, String> {
        let overhead = median(&self.traced) / median(&self.untraced);
        self.layers.set("trace.overhead", overhead);
        self.layers
            .set("trace.untraced_reps", self.untraced.len() as f64);
        self.layers
            .set("trace.traced_reps", self.traced.len() as f64);
        let metrics = self.layers.metrics();
        fs::create_dir_all(&args.trace_dir).map_err(|e| e.to_string())?;
        let stem = args
            .trace_dir
            .join(format!("{}-seed{}", args.workload, args.seed));
        let spans = stem.with_extension("spans.jsonl");
        self.tracer
            .write_jsonl(&spans)
            .map_err(|e| format!("{}: {e}", spans.display()))?;
        let table = stem.with_extension("layers.txt");
        fs::write(&table, metrics.table()).map_err(|e| format!("{}: {e}", table.display()))?;
        eprintln!(
            "perfbench: spans in {}, layer table in {}",
            spans.display(),
            table.display()
        );
        Ok(metrics)
    }
}

// ---------------------------------------------------------------------------
// fig6a_cold
// ---------------------------------------------------------------------------

/// [`FIG6_GRIDS`] cold Fig. 6a campaigns to target CI 0.07, two engine
/// threads, fresh stores every repetition.
pub fn fig6a_cold(args: &Args) -> Result<(Checks, Metrics), String> {
    let masters = fig6_masters(args.seed);
    let (grids, setups) = set_up(|i| {
        let warm = fig6_inputs(masters[0], WARMUP_CAP);
        let dir = args.work.join(format!("warmup-{i}"));
        fresh(&dir)?;
        warm.campaign(&dir, THREADS).run(&warm.sim, &warm.points);
        Ok(masters
            .iter()
            .map(|&m| fig6_inputs(m, FIG6_CAP))
            .collect::<Vec<_>>())
    })?;
    let n: usize = grids.iter().map(|g| g.points.len()).sum();
    let dir = args.work.join("cold");
    let mut checks = Checks::default();
    let mut counts = CountCheck {
        workload: &args.workload,
        seed: args.seed,
        first: None,
    };
    let mut traced = args.trace.then(|| TracedRun::new(args));
    let (reps, last) = timed_phase(args, traced.as_mut(), |tracer| {
        let cold = cold_rep(&grids, &dir, tracer, &mut checks, &args.workload)?;
        let (before, after) = &cold.window;
        let c = Counts {
            packets_realized: cold.rep.packets,
            chunks_scheduled: delta(before, after, Counter::ChunksScheduled),
            chunks_written: delta(before, after, Counter::StoreChunksWritten),
            legs_launched: 0,
            manifest_fnv: fnv1a64(&cold.manifests.concat()),
        };
        counts.check(&mut checks, c, n);
        Ok(Some((cold.rep, cold)))
    })?;
    let Some(mut run) = traced else {
        return Ok((checks, end_to_end(&setups, &reps)?));
    };

    let ColdRep {
        reports,
        window: (before, after),
        ..
    } = last.ok_or("no traced repetition")?;
    let grid_dirs: Vec<PathBuf> = (0..grids.len())
        .map(|g| dir.join(format!("grid{g}")))
        .collect();
    let stores: Vec<PathBuf> = grids
        .iter()
        .zip(&grid_dirs)
        .map(|(inputs, d)| inputs.campaign(d, THREADS).store_path())
        .collect();
    let t = Rc::clone(&run.tracer);
    let l = &mut run.layers;
    l.campaign_counts(&reports, &before, &after, FIG6_TARGET_CI);
    l.engine_counts(&before, &after);
    let probes = layers::probe_all(
        &t,
        &grids[0],
        &stores[0],
        &grids[0].campaign(&grid_dirs[0], THREADS).manifest_path(),
        &args.work,
        &mut checks,
        l,
    )?;
    layers::probe_engine(&t, &grids, &stores, &mut checks, l)?;
    layers::probe_buffer(&t, &grids[0], masters[0], l);
    // Controller self time: the runs minus what their engine, store,
    // hash and manifest calls cost when replayed from outside.
    let chunks: u64 = reports.iter().map(CampaignReport::chunks_total).sum();
    let written = l.get("store.chunks_written") as u64;
    let outside = l.get("engine.busy_s") + probes.outside_s(grids.len(), chunks, written, n);
    l.set("campaign.self_s", (best(&run.traced) - outside).max(0.0));
    Ok((checks, run.finish(args)?))
}

// ---------------------------------------------------------------------------
// resume_11k
// ---------------------------------------------------------------------------

/// Reopens an 11,000-point campaign whose every chunk is already in the
/// store: zero packets simulated, all time in store, hash, controller
/// and manifest.
pub fn resume_11k(args: &Args) -> Result<(Checks, Metrics), String> {
    let dir = args.work.join("resume");
    let ((inputs, reference), setups) = set_up(|_| {
        let inputs = resume_inputs(args.seed);
        fresh(&dir)?;
        let reference = inputs
            .campaign(&dir, THREADS)
            .run(&inputs.sim, &inputs.points);
        Ok((inputs, reference.stats()))
    })?;
    let n = inputs.points.len();
    let mut checks = Checks::default();
    let mut counts = CountCheck {
        workload: &args.workload,
        seed: args.seed,
        first: None,
    };
    let mut traced = args.trace.then(|| TracedRun::new(args));
    let (reps, last) = timed_phase(args, traced.as_mut(), |tracer| {
        let before = telemetry::snapshot();
        let (report, bytes, rep) = run_campaign(&inputs, &dir, tracer)?;
        let after = telemetry::snapshot();
        checks.attempt(n);
        let simulated = delta(&before, &after, Counter::PacketsSimulated);
        checks.require(
            simulated == 0,
            "resume_11k.zero_simulated",
            n,
            format!("the resume simulated {simulated} packets"),
        );
        let differing = report
            .stats()
            .iter()
            .zip(&reference)
            .filter(|(a, b)| a != b)
            .count();
        checks.require(
            differing == 0,
            "resume_11k.stats_match_setup",
            differing,
            format!("{differing} points differ from the set-up run"),
        );
        let c = Counts {
            packets_realized: rep.packets,
            chunks_scheduled: delta(&before, &after, Counter::ChunksScheduled),
            chunks_written: delta(&before, &after, Counter::StoreChunksWritten),
            legs_launched: 0,
            manifest_fnv: fnv1a64(&bytes),
        };
        counts.check(&mut checks, c, n);
        Ok(Some((rep, (report, (before, after)))))
    })?;
    let Some(mut run) = traced else {
        return Ok((checks, end_to_end(&setups, &reps)?));
    };

    let (report, (before, after)) = last.ok_or("no traced repetition")?;
    let campaign = inputs.campaign(&dir, THREADS);
    let t = Rc::clone(&run.tracer);
    let l = &mut run.layers;
    l.campaign_counts(std::slice::from_ref(&report), &before, &after, 0.0);
    let probes = layers::probe_all(
        &t,
        &inputs,
        &campaign.store_path(),
        &campaign.manifest_path(),
        &args.work,
        &mut checks,
        l,
    )?;
    layers::probe_buffer(&t, &inputs, args.seed, l);
    let outside = probes.outside_s(1, report.chunks_total(), 0, n);
    l.set("campaign.self_s", (best(&run.traced) - outside).max(0.0));
    Ok((checks, run.finish(args)?))
}

// ---------------------------------------------------------------------------
// fig6a_dispatch
// ---------------------------------------------------------------------------

/// `LocalLauncher` of one-thread `fig6a` legs for the Fig. 6a grid of
/// `master` at `cap`, rooted at `work`.
fn launcher(args: &Args, work: &Path, master: u64, cap: usize) -> LocalLauncher {
    let leg_args = [
        "--packets".to_string(),
        cap.to_string(),
        "--seed".into(),
        master.to_string(),
        "--threads".into(),
        "1".into(),
        "--target-ci".into(),
        FIG6_TARGET_CI.to_string(),
    ];
    LocalLauncher::new(&args.fig6a, work)
        .with_args(leg_args)
        .quiet()
}

/// One dispatch of a Fig. 6a grid over [`LEGS`] legs, with the merged
/// manifest's bytes.
fn dispatch_once(
    launcher: &dyn Launcher,
    store_dir: PathBuf,
) -> io::Result<(DispatchReport, Vec<u8>)> {
    let cfg = DispatchConfig::new(FIG6_NAME, LEGS, store_dir);
    let report = dispatch(&cfg, launcher)?;
    let bytes = fs::read(&report.merge.manifest_path)?;
    Ok((report, bytes))
}

/// `fig6a_cold`'s grids, each through `dispatch` with two one-thread
/// `fig6a` legs; every merged manifest must be byte-identical to the
/// in-process cold run's.
pub fn fig6a_dispatch(args: &Args) -> Result<(Checks, Metrics), String> {
    if !args.fig6a.is_file() {
        return Err(format!("leg binary {} not built", args.fig6a.display()));
    }
    let masters = fig6_masters(args.seed);
    let ((), setups) = set_up(|i| {
        let warm = args.work.join(format!("warmup-{i}"));
        fresh(&warm)?;
        let l = launcher(args, &warm, masters[0], WARMUP_CAP);
        dispatch_once(&l, l.store_dir())
            .map(drop)
            .map_err(|e| format!("warm-up dispatch: {e}"))
    })?;
    let grids: Vec<Inputs> = masters.iter().map(|&m| fig6_inputs(m, FIG6_CAP)).collect();
    let n: usize = grids.iter().map(|g| g.points.len()).sum();
    let work = args.work.join("dispatch");
    let plain: Vec<LocalLauncher> = masters
        .iter()
        .enumerate()
        .map(|(g, &m)| launcher(args, &work.join(format!("grid{g}")), m, FIG6_CAP))
        .collect();
    let mut checks = Checks::default();
    let mut counts = CountCheck {
        workload: &args.workload,
        seed: args.seed,
        first: None,
    };
    let mut all_manifests: Vec<Vec<Vec<u8>>> = Vec::new();
    let mut traced = args.trace.then(|| TracedRun::new(args));
    let tracing: Option<Vec<TracingLauncher<LocalLauncher>>> = traced.as_ref().map(|run| {
        plain
            .iter()
            .map(|l| TracingLauncher {
                inner: l.clone(),
                tracer: Rc::clone(&run.tracer),
            })
            .collect()
    });
    let (reps, last) = timed_phase(args, traced.as_mut(), |tracer| {
        checks.attempt(n);
        let before = telemetry::snapshot();
        let (mut reports, mut manifests, mut rep) = (Vec::new(), Vec::new(), Rep::default());
        for (g, l) in plain.iter().enumerate() {
            fresh(&work.join(format!("grid{g}")))?;
            let launcher: &dyn Launcher = match (tracer, &tracing) {
                (Some(_), Some(traced)) => &traced[g],
                _ => l,
            };
            let (result, wall_s, cpu_s) = timed_span(tracer, "dispatch.dispatch", || {
                dispatch_once(launcher, l.store_dir())
            });
            let (report, bytes) = match result {
                Ok(r) => r,
                Err(e) => {
                    checks.fail("fig6a_dispatch.dispatch", n, format!("grid {g}: {e}"));
                    return Ok(None);
                }
            };
            checks.require(
                report.verify.ok(),
                "fig6a_dispatch.verify",
                grids[g].points.len(),
                report.verify.problems.join("; "),
            );
            let manifest = Manifest::parse(&String::from_utf8_lossy(&bytes))
                .ok_or("merged manifest does not parse")?;
            rep.add(Rep {
                wall_s,
                cpu_s,
                packets: manifest.totals().realized_packets,
            });
            reports.push((report, manifest));
            manifests.push(bytes);
        }
        let after = telemetry::snapshot();
        let c = Counts {
            packets_realized: rep.packets,
            chunks_scheduled: reports.iter().map(|(_, m)| m.totals().total_chunks).sum(),
            chunks_written: reports.iter().map(|(r, _)| r.merge.chunks as u64).sum(),
            legs_launched: delta(&before, &after, Counter::LegsLaunched),
            manifest_fnv: fnv1a64(&manifests.concat()),
        };
        counts.check(&mut checks, c, n);
        all_manifests.push(manifests);
        Ok(Some((rep, (reports, c.legs_launched))))
    })?;
    // Untraced metrics are taken before the reference runs below, so
    // their memory does not count toward `peak_rss_mb`.
    let untraced = match traced {
        None => Some(end_to_end(&setups, &reps)?),
        Some(_) => None,
    };

    // The reference: the same grids cold and in-process. Every
    // dispatched manifest must equal its grid's byte for byte.
    let cold_manifests = cold_rep(
        &grids,
        &args.work.join("cold"),
        None,
        &mut checks,
        &args.workload,
    )?
    .manifests;
    let differing = all_manifests
        .iter()
        .flatten()
        .zip(cold_manifests.iter().cycle())
        .filter(|(m, cold)| m != cold)
        .count();
    checks.require(
        differing == 0,
        "fig6a_dispatch.manifest_matches_cold",
        differing * grids[0].points.len(),
        format!("{differing} merged manifests differ from the in-process cold manifests"),
    );
    let Some(mut run) = traced else {
        return Ok((checks, untraced.expect("an untraced run has metrics")));
    };

    let (reports, legs) = last.ok_or("no traced dispatch completed")?;
    let t = Rc::clone(&run.tracer);
    let l = &mut run.layers;
    let manifests: Vec<&Manifest> = reports.iter().map(|(_, m)| m).collect();
    l.manifest_counts(&manifests, FIG6_TARGET_CI);
    l.set("dispatch.legs_launched", legs as f64);
    let (report0, _) = &reports[0];
    layers::probe_all(
        &t,
        &grids[0],
        &report0.merge.store_path,
        &report0.merge.manifest_path,
        &args.work,
        &mut checks,
        l,
    )?;
    let dirs: Vec<PathBuf> = plain.iter().map(LocalLauncher::store_dir).collect();
    layers::probe_dispatch(&t, FIG6_NAME, &dirs, &args.work, &mut checks, l)?;
    Ok((checks, run.finish(args)?))
}
