#!/usr/bin/env bash
# Records one point of the simulator's performance trajectory as
# BENCH_<n>.json at the repository root, for a change that moves
# performance to cite instead of prose:
#
#   - the commit (and whether the tree had uncommitted changes), the date
#     and the host: core count and CPU model;
#   - `benchmark`: the repo benchmark's full run (benchmark/run.sh, 3
#     untraced repetitions and 1 traced pass per workload), its
#     benchmark/out/results.json verbatim but for three per-layer numbers
#     known to mislead: `traffic.*` and `trace.overhead_pct` time the
#     benchmark's own per-node polling loop, which no figure runs, and
#     `netsim.phase_decide_ns_per_cycle` reads 0;
#   - `figures`: the wall seconds of each paper figure at `--scale reduced
#     --jobs 2`, run one by one — the end-to-end time a user waits for,
#     which the benchmark has no workload for.
#
#   scripts/bench_record.sh <n>      # writes BENCH_<n>.json
#
# About 12 minutes on a 2-core host, so no CI step runs it; the tier-1 rule
# `perf_records_name_every_workload` (tests/architecture.rs) checks every
# record it writes. Needs `jq`. Fails, writing nothing, if the benchmark
# fails a verification or its spec tables no longer write BENCHMARK.json
# byte for byte.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
n=${1:?usage: scripts/bench_record.sh <n>}
out="BENCH_$n.json"
command -v jq >/dev/null || { echo "bench_record: needs jq" >&2; exit 2; }

commit=$(git rev-parse HEAD)
dirty=$(git diff --quiet HEAD -- . ":(exclude)BENCH_*.json" && echo false || echo true)
date=$(date -u +%Y-%m-%dT%H:%M:%SZ)
cpu=$(grep -m1 '^model name' /proc/cpuinfo | cut -d: -f2- | sed 's/^ *//')

bash benchmark/run.sh >&2
# What `benchmark/run.sh --manifest` would write, compared without writing.
if ! "${CARGO_TARGET_DIR:-benchmark/target}/release/stcc-benchmark" --manifest |
    cmp -s - BENCHMARK.json; then
    echo "bench_record: benchmark/run.sh --manifest would rewrite BENCHMARK.json" >&2
    exit 1
fi

cargo build --release --offline --quiet -p experiments --bin fig
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
figures='{}'
for fig in fig1 fig2 fig3 fig4 fig5 fig7 fig7_latency; do
    start=$(date +%s.%N)
    ./target/release/fig "$fig" --scale reduced --jobs 2 --out "$tmp" >/dev/null
    end=$(date +%s.%N)
    wall=$(awk -v a="$start" -v b="$end" 'BEGIN { printf "%.1f", b - a }')
    echo "bench_record: $fig ${wall} s" >&2
    figures=$(jq --arg k "$fig" --argjson v "$wall" '. + {($k): $v}' <<<"$figures")
done

jq -n \
    --arg commit "$commit" --argjson dirty "$dirty" --arg date "$date" \
    --argjson nproc "$(nproc)" --arg cpu "$cpu" \
    --slurpfile results benchmark/out/results.json --argjson figures "$figures" '
    def misleading: startswith("traffic.") or . == "trace.overhead_pct"
        or . == "netsim.phase_decide_ns_per_cycle";
    {
        commit: $commit, dirty: $dirty, date: $date,
        host: {nproc: $nproc, cpu: $cpu},
        benchmark: ($results[0][0]
            | map_values(with_entries(select(.key | misleading | not)))),
        figures: {scale: "reduced", jobs: 2, wall_s: $figures}
    }' >"$tmp/record.json"
mv "$tmp/record.json" "$out"
echo "bench_record: wrote $out" >&2
