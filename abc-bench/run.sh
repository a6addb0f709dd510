#!/usr/bin/env bash
# The benchmark's one command (BENCHMARK.json): build both binaries of
# this package from source, then run the driver with the arguments given.
# Run from the repository root. The build lands in $CARGO_TARGET_DIR when
# set, otherwise in abc-bench/target; nothing outside the checkout is
# written.
set -euo pipefail
here="$(dirname "$0")"
cargo build --release --quiet --offline --manifest-path "$here/Cargo.toml"
exec "${CARGO_TARGET_DIR:-$here/target}/release/abc-bench" "$@"
