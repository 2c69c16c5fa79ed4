#!/usr/bin/env bash
# Builds the benchmark from source, then runs it with the given arguments.
# Run from the root of the repository:
#   bash fexbench/run.sh --workload audit --seed 1 --seconds 20 --trace 0
# The build goes to $CARGO_TARGET_DIR (default .bench_build); cargo output
# goes to stderr, so the result object stays the last line of stdout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/fexbench" "$@"
