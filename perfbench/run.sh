#!/usr/bin/env bash
# Build the server and the benchmark from source, then run the benchmark.
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the root of a checkout. Both builds go to $CARGO_TARGET_DIR
# (default: target). `cargo build --release -p aa-cli` is what rebuilds
# aa-solve: a plain root `cargo build` does not.
set -euo pipefail

if [[ ! -f Cargo.toml || ! -f crates/cli/Cargo.toml ]]; then
    echo "perfbench: run from the root of an aa checkout" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p aa-cli >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
