#!/usr/bin/env bash
# The benchmark's one command.
#
#   benchmark/run.sh                      build, then run the whole suite:
#                                         every workload untraced, the traced
#                                         layer-probe pass, benchmark/out/results.json
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                         build, then one run (what BENCHMARK.json's
#                                         command is given); last line is the result
#   benchmark/run.sh check | compare A B  see README.md
#
# Run from the repository root.  The build is offline and goes to
# $CARGO_TARGET_DIR if set, else to benchmark/target.
set -euo pipefail

here="$(dirname "${BASH_SOURCE[0]}")"
target="${CARGO_TARGET_DIR:-$here/target}"
# Build output goes to stderr only, so the result line stays last on stdout.
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" 1>&2

bin="$target/release/obliv-benchmark"
case "${1:-suite}" in
    suite) shift || true; exec "$bin" suite --out "$here/out" "$@" ;;
    check | compare) exec "$bin" "$@" ;;
    *) exec "$bin" "$@" --out "$here/out" ;;
esac
