#!/usr/bin/env bash
# Builds the benchmark and the `fig6a` leg binary from source, then runs
# one workload:
#
#   bash perfbench/run.sh --workload fig6a_cold --seed 0 --seconds 30 --trace 0
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); build logs go to stderr, so the last line of
# stdout is the benchmark's JSON result.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet \
    --manifest-path perfbench/Cargo.toml \
    -p perfbench -p bench --bin perfbench --bin fig6a >&2
"$CARGO_TARGET_DIR/release/perfbench" "$@"
