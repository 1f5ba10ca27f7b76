#!/usr/bin/env bash
# The repo benchmark's one command. Builds the benchmark (release, locked,
# offline, nothing beyond this workspace's own crates) and runs it.
#
#   benchmark/run.sh [--workload W] [--seed N] [--quick] [--repeat K]
#       every workload untraced, then the traced runs; prints every metric
#       as "workload name value unit n=<samples>", validates the outputs,
#       writes benchmark/out/results.json; exits non-zero on any failure.
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run, as BENCHMARK.json's contract calls it: the last line of
#       stdout is the result object.
#   benchmark/run.sh --sweep rate|queries|window [--workload W] [--seed N] [--quick]
#       off-contract sweeps, written to benchmark/out/sweep_<dim>.json.
#
# See README.md beside this file.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
if [ ! -f "$root/crates/core/Cargo.toml" ]; then
    echo "run.sh: $root is not a telegraphcq-rs checkout (crates/core is missing)" >&2
    exit 2
fi

# A relative CARGO_TARGET_DIR is relative to the caller's directory; cargo
# is run from there too, so it and the path below agree.
target="${CARGO_TARGET_DIR:-$here/target}"
CARGO_TARGET_DIR="$target" cargo build --release --locked --offline --quiet \
    --manifest-path "$here/Cargo.toml" >&2
bin="$target/release/tcq-benchmark"

export BENCH_GIT_SHA BENCH_RUSTC
BENCH_GIT_SHA="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
BENCH_RUSTC="$(rustc -V 2>/dev/null || echo unknown)"

mode=suite
for arg in "$@"; do
    case "$arg" in
        --seconds | --trace) mode=run ;;
        --sweep) mode=sweep ;;
    esac
done
case "$mode" in
    run) exec "$bin" run "$@" --out "$here/out" ;;
    sweep) exec "$bin" sweep "$@" --out "$here/out" ;;
    suite) exec "$bin" suite "$@" --out "$here/out" --benchmark-json "$root/BENCHMARK.json" ;;
esac
