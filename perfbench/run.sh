#!/usr/bin/env bash
# Build the daemon and the benchmark from source, then run one workload:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run from the repository root. Build outputs go to $CARGO_TARGET_DIR
# (default .bench_build); run files go to .bench_run.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
daemon="$CARGO_TARGET_DIR/release/hls_congest"
# The root package's build script reruns on every build outside a git
# checkout, relinking the daemon; rebuild only when a source is newer.
if [ ! -x "$daemon" ] || [ -n "$(find Cargo.toml Cargo.lock build.rs src crates shims -newer "$daemon" -print -quit)" ]; then
    cargo build --release --offline --quiet --bin hls_congest
fi
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml
exec "$CARGO_TARGET_DIR/release/perfbench" --daemon "$daemon" "$@"
