//! End-to-end tests of the `campaign-dispatch` binary against the real
//! `fig6a` figure binary — the process-level counterpart of the mock
//! launcher tests inside `resilience_core::campaign::dispatch`:
//!
//! * a 2-leg dispatched fig6a campaign merges to a manifest
//!   **byte-identical** to a single-host run at the same settings;
//! * killing a leg mid-run and re-dispatching recovers
//!   to the same byte-identical manifest, resuming (never re-simulating)
//!   every chunk the killed leg had already stored;
//! * the remote-capable `--launcher` template (run through `sh -c` here,
//!   `ssh` in production) produces the same byte-identical manifest as
//!   the local launcher;
//! * a dispatch under a seeded chaos schedule (`--chaos-seed`) — leg
//!   crashes, hangs, torn appends, launch failures — still converges to
//!   the fault-free manifest, byte for byte.
//!
//! The campaign settings are deliberately small (`--packets 24`) so the
//! debug-profile binaries finish in seconds.

use std::fs;
use std::io::Read as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Campaign knobs shared by every run in this file — legs, reference
/// and rescue must agree or byte-identity is vacuously broken.
const CAMPAIGN_ARGS: &[&str] = &["--precision", "0.2", "--packets", "24", "--chunk", "8"];

/// Chaos schedule for the seeded-dispatch test. The schedule is a pure
/// function of (seed, site, context, check number), so this fires the
/// same faults on every machine. Seed 20 fails shard 1's first launch
/// (dispatcher-side I/O fault), crashes shard 0's leg after its first
/// chunk round, and tears shard 1's first store append — and fires no
/// hang-type fault, so the test never has to sit out a stall timeout.
const CHAOS_SEED: &str = "20";

fn fig6a_bin() -> &'static str {
    env!("CARGO_BIN_EXE_fig6a")
}

fn dispatch_bin() -> &'static str {
    env!("CARGO_BIN_EXE_campaign-dispatch")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dispatch-e2e-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs a single-host fig6a campaign in `work_dir` and returns its
/// manifest path.
fn single_host_reference(work_dir: &Path) -> PathBuf {
    let status = Command::new(fig6a_bin())
        .args(CAMPAIGN_ARGS)
        .current_dir(work_dir)
        .stdout(Stdio::null())
        .status()
        .expect("fig6a runs");
    assert!(status.success(), "reference fig6a run failed");
    work_dir.join("target/campaign/fig6.manifest.json")
}

/// Runs `campaign-dispatch --legs 2` plus `extra` flags in `work_dir`;
/// returns the merged manifest path and the dispatcher's stdout.
fn dispatch_two_legs_with(work_dir: &Path, extra: &[&str]) -> (PathBuf, String) {
    let out = Command::new(dispatch_bin())
        .args([
            "--name",
            "fig6",
            "--bin",
            fig6a_bin(),
            "--legs",
            "2",
            "--quiet",
        ])
        .args(extra)
        .arg("--work-dir")
        .arg(work_dir)
        .arg("--")
        .args(CAMPAIGN_ARGS)
        .output()
        .expect("campaign-dispatch runs");
    assert!(
        out.status.success(),
        "dispatch failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    (
        work_dir.join("target/campaign/fig6.manifest.json"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

/// [`dispatch_two_legs_with`] with no extra flags.
fn dispatch_two_legs(work_dir: &Path) -> PathBuf {
    dispatch_two_legs_with(work_dir, &[]).0
}

/// The complete (parseable) store lines of a `.jsonl` file.
fn store_lines(path: &Path) -> Vec<String> {
    let mut text = String::new();
    fs::File::open(path)
        .unwrap_or_else(|e| panic!("open {}: {e}", path.display()))
        .read_to_string(&mut text)
        .unwrap();
    text.lines()
        .filter(|l| l.ends_with('}'))
        .map(str::to_string)
        .collect()
}

#[test]
fn dispatched_campaign_is_byte_identical_to_single_host() {
    let ref_dir = temp_dir("plain-ref");
    let work_dir = temp_dir("plain-work");

    let reference = single_host_reference(&ref_dir);
    let merged = dispatch_two_legs(&work_dir);

    assert_eq!(
        fs::read(&merged).unwrap(),
        fs::read(&reference).unwrap(),
        "merged manifest must be byte-identical to the single-host run"
    );
    // The merged store holds the identical chunk set (single-host order
    // is execution order, merged order is canonical — compare sorted).
    let mut merged_store = store_lines(&work_dir.join("target/campaign/fig6.jsonl"));
    let mut ref_store = store_lines(&ref_dir.join("target/campaign/fig6.jsonl"));
    merged_store.sort();
    ref_store.sort();
    assert_eq!(merged_store, ref_store);

    let _ = fs::remove_dir_all(&ref_dir);
    let _ = fs::remove_dir_all(&work_dir);
}

#[test]
fn command_launcher_dispatch_is_byte_identical_to_single_host() {
    let ref_dir = temp_dir("launcher-ref");
    let work_dir = temp_dir("launcher-work");

    // The canonical template is `ssh {host} {cmd}`; `sh -c {cmd}` is
    // the same shape minus the network. `--pull` runs per finished leg
    // (the artifact rsync hook in production) — `true` proves the hook
    // path without moving files.
    let (merged, _) =
        dispatch_two_legs_with(&work_dir, &["--launcher", "sh -c {cmd}", "--pull", "true"]);
    let reference = single_host_reference(&ref_dir);

    assert_eq!(
        fs::read(&merged).unwrap(),
        fs::read(&reference).unwrap(),
        "command-launcher merged manifest must be byte-identical to single-host"
    );

    let _ = fs::remove_dir_all(&ref_dir);
    let _ = fs::remove_dir_all(&work_dir);
}

#[test]
fn chaos_seeded_dispatch_converges_to_the_fault_free_manifest() {
    let ref_dir = temp_dir("chaos-ref");
    let work_dir = temp_dir("chaos-work");

    // The seed is chosen so the deterministic schedule actually bites
    // (at least one leg fails and is rescued); retries run clean, so
    // with the default 3-attempt cap no shard can be abandoned and the
    // dispatch must succeed. `--telemetry` gives the legs heartbeats
    // for the stall monitor; the timeout is generous because a healthy
    // debug-build leg goes several seconds between heartbeat writes.
    let (merged, stdout) = dispatch_two_legs_with(
        &work_dir,
        &[
            "--chaos-seed",
            CHAOS_SEED,
            "--telemetry",
            "--stall-timeout",
            "30",
            "--backoff",
            "10:2:100",
        ],
    );
    let reference = single_host_reference(&ref_dir);

    assert_eq!(
        fs::read(&merged).unwrap(),
        fs::read(&reference).unwrap(),
        "chaos-schedule merged manifest must be byte-identical to fault-free\n\
         dispatcher stdout:\n{stdout}"
    );
    assert!(
        !stdout.contains(", 0 rescued,"),
        "seed {CHAOS_SEED} fired no failure at all — pick a livelier seed:\n{stdout}"
    );

    let _ = fs::remove_dir_all(&ref_dir);
    let _ = fs::remove_dir_all(&work_dir);
}

#[test]
fn killed_leg_recovers_via_steal_without_resimulating() {
    let ref_dir = temp_dir("kill-ref");
    let work_dir = temp_dir("kill-work");
    let shard0_store = work_dir.join("target/campaign/fig6.shard-0-of-2.jsonl");

    // Start leg 0 by hand and kill it as soon as it has stored at least
    // one chunk — a mid-run operator incident.
    let mut leg = Command::new(fig6a_bin())
        .args(CAMPAIGN_ARGS)
        .args(["--shard", "0/2"])
        .current_dir(&work_dir)
        .stdout(Stdio::null())
        .spawn()
        .expect("leg 0 starts");
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        if fs::metadata(&shard0_store)
            .map(|m| m.len() > 0)
            .unwrap_or(false)
        {
            break;
        }
        if leg.try_wait().expect("poll leg").is_some() || Instant::now() > deadline {
            break; // fast machine finished the leg — steal degenerates to resume
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let _ = leg.kill();
    let _ = leg.wait();
    let pre_kill = store_lines(&shard0_store);
    assert!(
        !pre_kill.is_empty(),
        "kill landed before any chunk was stored — nothing to steal"
    );

    // Re-dispatch: the rescue leg must resume the killed
    // leg's store, and the merge must still be byte-identical to a
    // fresh single-host run.
    let merged = dispatch_two_legs(&work_dir);
    let reference = single_host_reference(&ref_dir);
    assert_eq!(
        fs::read(&merged).unwrap(),
        fs::read(&reference).unwrap(),
        "post-steal merged manifest must be byte-identical to single-host"
    );

    // Never re-simulate: every complete pre-kill record survives in the
    // rescued shard store exactly once (a re-simulated chunk would have
    // been appended a second time), and the dispatcher reports the
    // resumed executions.
    let post = store_lines(&shard0_store);
    for line in &pre_kill {
        assert_eq!(
            post.iter().filter(|l| *l == line).count(),
            1,
            "pre-kill chunk re-simulated or lost: {line}"
        );
    }

    let _ = fs::remove_dir_all(&ref_dir);
    let _ = fs::remove_dir_all(&work_dir);
}
