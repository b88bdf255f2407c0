#!/usr/bin/env bash
# The repo benchmark: builds the benchmark crate offline, then runs it.
#
#   benchmark/run.sh                     every workload, 3 untraced reps + 1 traced pass each
#   benchmark/run.sh --quick             cycles / 10, 1 rep, every verification on (< 30 s)
#   benchmark/run.sh --check-repeat      two full sets that must agree within the bounds
#   benchmark/run.sh --check-spread      ten seeds per workload: each metric's spread against its bound
#   benchmark/run.sh --manifest          rewrite BENCHMARK.json from the tables in src/spec.rs
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#                                        one run; last stdout line is the result object
#
# See benchmark/README.md for what is measured and why.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."

# Cargo's progress goes to stderr: stdout carries only the benchmark's lines.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2

bin="${CARGO_TARGET_DIR:-benchmark/target}/release/stcc-benchmark"
if [[ "${1:-}" == "--manifest" ]]; then
    "$bin" --manifest > BENCHMARK.json
    exit 0
fi
exec "$bin" "$@"
