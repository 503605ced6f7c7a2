#!/usr/bin/env bash
# Builds the server and the benchmark, then runs the benchmark.
#
#   run.sh                       the whole set as a report; writes results.json
#                                beside this script and traces under the build
#                                directory
#   run.sh --workload NAME --seed N --seconds S --trace 0|1
#                                one run, one JSON result line (BENCHMARK.json's
#                                `command`)
#   run.sh --aa | --quick | --only NAME     see README.md
#
# Run it from the repository root. Both builds go to $CARGO_TARGET_DIR
# (default: target), so the benchmark finds `ses-server` beside itself.
set -euo pipefail

here=$(dirname "$0")
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"

# Build output goes to stderr: the last line of stdout is the result.
cargo build --release --quiet 1>&2
cargo build --release --quiet --manifest-path "$here/Cargo.toml" 1>&2

if [ "$#" -eq 0 ]; then
    set -- --out "$here/results.json"
fi
exec "$CARGO_TARGET_DIR/release/benchmark" "$@"
