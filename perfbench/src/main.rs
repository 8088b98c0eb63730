//! The repository benchmark: time until a Fig. 6a campaign's points
//! reach their target confidence interval — cold, resumed from the
//! result store, and dispatched over two leg processes — plus a traced
//! run per workload that splits the time over the layers.
//!
//! ```text
//! perfbench --workload fig6a_cold|resume_11k|fig6a_dispatch \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! `perfbench/run.sh` builds this binary and the `fig6a` leg binary into
//! `$CARGO_TARGET_DIR` (default `.bench_build`) and runs it from the
//! repository root; scratch stores and traces go under the same
//! directory. Human-readable tables go to stderr. The last line of
//! stdout is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics` (end-to-end metrics untraced, per-layer metrics with
//! `--trace 1`). `METRICS.md` describes the workloads and metrics.

mod layers;
mod sys;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory for stores, manifests and leg artifacts.
    pub work: PathBuf,
    /// Where traced runs write their spans and layer tables.
    pub trace_dir: PathBuf,
    /// The `fig6a` figure binary the dispatched legs run, built next to
    /// this one.
    pub fig6a: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<String> {
        let i = argv.iter().position(|a| a == flag)?;
        argv.get(i + 1).cloned()
    };
    let workload = get("--workload").ok_or("missing --workload")?;
    let seed = get("--seed")
        .ok_or("missing --seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")
        .ok_or("missing --seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match get("--trace").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    let build =
        PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into()));
    let work = build
        .join("perfbench-work")
        .join(format!("{workload}-{}", std::process::id()));
    let trace_dir = build.join("perfbench-trace");
    let fig6a = build.join("release/fig6a");
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        work,
        trace_dir,
        fig6a,
    })
}

/// Named metric values with units, in report order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    fn json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push('}');
        out
    }

    pub fn table(&self) -> String {
        let mut out = String::new();
        for (name, value, unit) in &self.0 {
            let _ = writeln!(out, "  {name:<30} {value:>16.6} {unit}");
        }
        out
    }
}

/// Output checks: points attempted, points failed, and the name of
/// every check that failed.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Checks {
    /// Counts `n` attempted points.
    pub fn attempt(&mut self, n: usize) {
        self.attempted += n as u64;
    }

    /// Records a failed check that fails `points` of the attempted
    /// points.
    pub fn fail(&mut self, name: &str, points: usize, detail: impl std::fmt::Display) {
        self.failed += points as u64;
        let line = format!("{name}: {detail}");
        eprintln!("perfbench: CHECK FAILED {line}");
        self.failures.push(line);
    }

    /// `fail` when `ok` is false.
    pub fn require(&mut self, ok: bool, name: &str, points: usize, detail: impl std::fmt::Display) {
        if !ok {
            self.fail(name, points, detail);
        }
    }
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Smallest value of a non-empty sample.
pub fn best(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "best of an empty sample");
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "fig6a_cold" => workloads::fig6a_cold(&args),
        "resume_11k" => workloads::resume_11k(&args),
        "fig6a_dispatch" => workloads::fig6a_dispatch(&args),
        other => Err(format!("unknown workload {other}")),
    };
    let _ = std::fs::remove_dir_all(&args.work);
    let (checks, metrics) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let fail_ratio = checks.failed as f64 / checks.attempted.max(1) as f64;
    eprintln!(
        "perfbench: {} seed {} ({}): {} points attempted, {} failed, fail_ratio {fail_ratio}",
        args.workload,
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        checks.attempted,
        checks.failed,
    );
    eprint!("{}", metrics.table());
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        checks.failed == 0 && checks.failures.is_empty() && checks.attempted > 0,
        checks.attempted.max(1),
        checks.failed,
        metrics.json()
    );
    ExitCode::SUCCESS
}
