#!/bin/bash
# The repository's CI gate, runnable locally and fully offline. Every
# property has one check: what a test can hold is a test, and this script
# runs each test binary once and keeps only what needs a tool, a release
# build or a process to kill:
#   1. formatting        (cargo fmt --check)
#   2. lints             (cargo clippy, warnings are errors; that includes
#                         the default large_enum_variant lint, which keeps an
#                         oversized variant off the by-value hot path)
#   3. rustdoc audit     (every rustdoc warning is an error: broken and
#                         private intra-doc links among them)
#   4. tier-1 verify     (cargo build --release && cargo test -q: the root
#                         package's tests, tests/architecture.rs's source
#                         rules among them)
#   5. workspace tests   (every other package once: the goldens at every
#                         --jobs count and library shard pin, audited in
#                         debug after every cycle; controller conformance;
#                         zero-alloc;
#                         the fig CLI; campaign retry, quarantine and
#                         kill/resume)
#   6. shard affinity    (the pool's timing test, judged in a release build)
#   7. kill-and-resume   (SIGKILL `fig fig4 --jobs 1` mid-run and the chaos
#                         harness, whose trials draw 1 to 8 shards on each side
#                         of a restore, mid-run; --resume must reproduce the
#                         golden CSV / the uninterrupted report)
#   8. thread sanitizer  (the shard tests and the pool stress under TSan;
#                         needs nightly, loud skip otherwise)
#   9. repo benchmark    (benchmark/run.sh --quick: all six workloads at a
#                         tenth of their length, every verification on)
#  10. same-host perf    (the baseline commit's benchmark against this
#                         tree's in 5 alternating pairs of sat_tune,
#                         sat_base_avoid, light_tune, resume_storm and
#                         cube3_tune_s2; a
#                         median beyond its BENCHMARK.json bound, a fail
#                         line or a failed op fails)
# Everything is hermetic — no network access is required (see README,
# "Hermetic build"). Each step reports its wall time.
set -eu
cd "$(dirname "$0")/.."

step() {
    name=$1
    shift
    echo "=== $name"
    start=$(date +%s)
    "$@"
    echo "=== $name done in $(($(date +%s) - start))s"
}

step "fmt" cargo fmt --all --check

step "clippy" cargo clippy --workspace --all-targets -- -D warnings

# Rustdoc audit: any rustdoc warning — a placeholder or rotted intra-doc
# link, a public item's doc linking a private one — is a build error.
rustdoc_audit() {
    RUSTDOCFLAGS="-D warnings" \
        cargo doc --workspace --no-deps --quiet
}
step "rustdoc audit" rustdoc_audit

step "tier-1: build" cargo build --release

# The kill gates below invoke target/release/{fig,chaos} directly; the
# root-package build above only guarantees the libraries.
step "release binaries" cargo build --release --workspace

step "tier-1: test" cargo test -q

# The root package's tests ran in tier-1.
step "workspace tests" cargo test --workspace --exclude stcc-repro -q

# Shard affinity: with a core per participant, a shard must be claimed by
# its home participant pass after pass. A timing property, so it is judged
# in an optimised build (the debug run above lists it as ignored); skips
# itself, loudly, on a one-core host.
step "shard affinity (release build)" \
    cargo test --release -q -p stcc --test shard_pool -- --nocapture claims_stay_home

# kill_mid_run <file> <min-lines> <cmd…>: run <cmd> in the background and
# SIGKILL it once <file>, its journal, holds <min-lines> lines. A kill that
# misses — the command exits first, or dies before that much progress —
# fails: a resume that runs fresh exercises nothing.
kill_mid_run() {
    file=$1 lines=$2
    shift 2
    "$@" >/dev/null 2>&1 &
    pid=$!
    until [ -f "$file" ] && [ "$(wc -l <"$file")" -ge "$lines" ]; do
        kill -0 "$pid" 2>/dev/null || break
        sleep 0.01
    done
    kill -9 "$pid" 2>/dev/null || true
    status=0
    wait "$pid" 2>/dev/null || status=$?
    if [ "$status" -ne 137 ]; then # 128 + SIGKILL: the kill landed
        echo "the kill missed: '$*' exited $status before $file held $lines lines" >&2
        return 1
    fi
    echo "  (SIGKILLed $1 with $(wc -l <"$file") lines in $file)"
}

# The tiny fig4 sweep, killed once its journal records the first completed
# point, then finished with --resume: the CSV must be the committed golden
# byte for byte, and the journal must be gone.
fig_kill_and_resume() {
    out=target/ci-resume
    rm -rf "$out"
    sweep=(target/release/fig fig4 --scale tiny --net small --jobs 1 --out "$out")
    kill_mid_run "$out/fig4.tiny.journal" 2 "${sweep[@]}"
    "${sweep[@]}" --resume >/dev/null
    cmp "$out/fig4.tiny.csv" crates/experiments/tests/golden/fig4.tiny.csv
    if [ -f "$out/fig4.tiny.journal" ]; then
        echo "journal not cleaned up after a successful sweep" >&2
        return 1
    fi
}

# A fixed-seed slice of the chaos harness — random configs × patterns ×
# fault storms at random shard counts, per-trial audits, a mid-trial
# checkpoint/restore divergence check — killed after two trials and
# resumed: the report must equal an uninterrupted run's.
chaos_kill_and_resume() {
    out=target/ci-chaos
    rm -rf "$out" "$out-fresh"
    chaos=(target/release/chaos --seed 6 --trials 12)
    kill_mid_run "$out/chaos.journal" 3 "${chaos[@]}" --out "$out"
    "${chaos[@]}" --out "$out" --resume >/dev/null 2>&1
    "${chaos[@]}" --out "$out-fresh" >/dev/null 2>&1
    cmp "$out/chaos.report" "$out-fresh/chaos.report"
    if [ -f "$out/chaos.journal" ]; then
        echo "chaos journal not cleaned up after a successful run" >&2
        return 1
    fi
}

kill_and_resume() {
    fig_kill_and_resume
    chaos_kill_and_resume
}
step "kill-and-resume (fig, chaos)" kill_and_resume

# Thread sanitizer: the sharded passes write one network from several
# threads through range-checked views (DESIGN.md §4d); the range checks
# catch a mis-owned index, TSan catches a read of state another shard
# writes or a plain access that should have been atomic. Runs netsim's
# shard unit tests (the claim protocol walked through every schedule, the
# view contract's panics for foreign routers and a misfiled hop, the pool's
# panic paths), its bit-identity tests across shard counts, the delivery
# lockstep test (`deliveries_finish_in_lockstep_at_every_shard_count`: the
# packet record's delivered count is stored by the destination shard's
# pass), the credit timing test, and the 10 K-cycle eight-shard barrier
# stress with the workspace crates instrumented (the prebuilt std is not,
# hence the two suppressions for libtest's own result channel in
# scripts/tsan.supp). Any
# report from simulator code fails the step. Needs a nightly toolchain with
# the TSan runtime for this host.
tsan_gate() (
    target=x86_64-unknown-linux-gnu
    export RUSTFLAGS="-Zsanitizer=thread -Cunsafe-allow-abi-mismatch=sanitizer"
    export TSAN_OPTIONS="suppressions=$PWD/scripts/tsan.supp halt_on_error=1"
    export CARGO_TARGET_DIR=target/tsan
    cargo +nightly test --offline --target $target -p wormsim --lib -- \
        shard bit_identical credit_freed
    cargo +nightly test --offline --target $target -p stcc --test shard_pool
)
if [ "$(uname -sm)" = "Linux x86_64" ] &&
    cargo +nightly --version >/dev/null 2>&1 &&
    ls "$(rustc +nightly --print sysroot)"/lib/rustlib/x86_64-unknown-linux-gnu/lib/librustc*_rt.tsan.a \
        >/dev/null 2>&1; then
    step "thread sanitizer (shard + bit-identity tests, barrier stress)" tsan_gate
else
    echo "=== !!! SKIPPED: thread sanitizer leg — needs Linux x86_64, \`cargo +nightly\`"
    echo "=== !!!          and its TSan runtime; the sharded passes are NOT race-checked here"
fi

# The repo benchmark (BENCHMARK.json, benchmark/README.md) at a tenth of
# its length: builds the benchmark crate against this checkout's public
# API and runs all six workloads with every verification on — final
# checkpoints against their reference runs, the traced driver's counters
# against the untraced run's, the sweep against its golden CSV. It judges
# no timing here; it fails (non-zero exit) if a verification does, or if
# the benchmark no longer compiles against the simulator.
step "repo benchmark (--quick, verifications only)" bash benchmark/run.sh --quick

# Same-host perf gate: the baseline commit's benchmark against this tree's,
# in alternating pairs on one host — no committed number from another
# machine decides. Baseline: HEAD while the tree has uncommitted changes,
# else HEAD~1, `git archive`d into target/bench-baseline/ and built by its
# own run.sh into its own target dir; this side reuses the step above's
# build. sat_tune and light_tune read steady to a few % at 0.5 s,
# sat_base_avoid is the saturated net without the controller (a change to
# the switch, route or source queues moves it as much as sat_tune),
# resume_storm holds the checkpoint cadence (a round trip every 250 cycles),
# and cube3_tune_s2 holds the sharded pipeline: 10 same-commit pairs of it
# at 0.5 s on a 2-vCPU host spread sim_cycles_per_s by -12..+18 % a pair and
# 2 % between the medians of 5 (setup_s 4 %), inside the 25 % bound;
# 5 pairs each, who goes first flipping every pair.

# Judges the runs <dir>/<base|change>.<workload>.<pair>: fails on a `fail`
# line, a failed op, or a change median worse than the base's by more than
# the bound BENCHMARK.json gives that end-to-end metric. Prints all pairs.
perf_compare() {
    awk '
        function fmt(x) { return x == "" ? "-" : x >= 1000 ? sprintf("%.0f", x) : sprintf("%.4g", x) }
        function median(list,   a, n, i, j, x) {
            n = split(list, a, " ")
            for (i = 2; i <= n; i++)
                for (j = i; j > 1 && a[j - 1] + 0 > a[j] + 0; j--) { x = a[j]; a[j] = a[j - 1]; a[j - 1] = x }
            return n % 2 ? a[(n + 1) / 2] : (a[n / 2] + a[n / 2 + 1]) / 2
        }
        FNR == NR {
            if (/"end_to_end"/) e2e = 1
            if (/"per_layer"/) e2e = 0
            gsub(/[",]/, "")
            if (e2e && $1 == "name:") order[++m] = name = $2
            if (e2e && $1 == "better:") better[name] = $2
            if (e2e && $1 == "bound:") bound[name] = $2
            next
        }
        FNR == 1 {
            k = split(FILENAME, path, "/"); split(path[k], f, ".")
            side = f[1]; w = f[2]; pair = f[3]
            if (!(w in runs)) ws[++nw] = w
            runs[w]++
        }
        $1 == "fail" || ($1 == "ops" && $3 > 0) { print "  FAIL " side " " w " pair " pair ": " $0; bad = 1 }
        $1 == "metric" && ($2 in bound) { vals[side, w, $2] = vals[side, w, $2] " " $3 }
        END {
            for (i = 1; i <= nw; i++) for (j = 1; j <= m; j++) {
                w = ws[i]; name = order[j]; line = ""
                nb = split(vals["base", w, name], b, " "); nc = split(vals["change", w, name], c, " ")
                for (p = 1; p <= nb || p <= nc; p++) line = line " " fmt(b[p]) "/" fmt(c[p])
                printf "  %-10s %-29s base/change:%s\n", w, name, line
                if (nb != nc || nb + nc < runs[w]) { print "  FAIL " w " " name ": missing from some runs"; bad = 1; continue }
                mb = median(vals["base", w, name]); mc = median(vals["change", w, name])
                loss = better[name] == "higher" ? mb - mc : mc - mb
                verdict = sprintf("%+.1f%%, bound %g%%", mb ? 100 * (mc - mb) / mb : 0, 100 * bound[name])
                if (loss > bound[name] * (mb < 0 ? -mb : mb)) { verdict = "REGRESSION " w " " name ": " verdict; bad = 1 }
                printf "  %-10s %-29s median %s -> %s (%s)\n", w, name, fmt(mb), fmt(mc), verdict
            }
            exit bad
        }
    ' BENCHMARK.json "$1"/*
}

# perf_compare on canned runs first: identical sides pass, a change side
# 30 % slower on sim_cycles_per_s fails naming it, a `fail` line fails.
perf_compare_selftest() {
    t=target/perf-gate-selftest
    rm -rf "$t" && mkdir -p "$t/same" "$t/slow" "$t/failed"
    printf 'metric %s\n' 'setup_s 0.2 s' 'sim_cycles_per_s 16000 cycles/s' 'host_ns_per_flit 900 ns/flit' \
        'accepted_flits_per_node_cycle 0.23 flits/node/cycle' 'net_latency_cycles 110 cycles' 'peak_rss_mb 5.3 MB' >"$t/run"
    for f in {same,slow,failed}/{base,change}.sat_tune.{1,2,3}; do cp "$t/run" "$t/$f"; done
    sed -i 's/ 16000 / 11200 /' "$t"/slow/change.*
    echo 'fail final checkpoint differs' >>"$t/failed/change.sat_tune.2"
    expect() { # <exit status> <case> <line the verdict must print>
        status=0
        perf_compare "$t/$2" >"$t/$2.out" || status=$?
        if [ "$status" -ne "$1" ] || ! grep -q "$3" "$t/$2.out"; then
            echo "perf_compare misjudged the canned '$2' runs:" >&2 && cat "$t/$2.out" >&2 && return 1
        fi
    }
    expect 0 same 'median 16000 -> 16000'
    expect 1 slow 'REGRESSION sat_tune sim_cycles_per_s'
    expect 1 failed 'FAIL change sat_tune pair 2'
}

# One run in the driver's form: perf_run <base|change> <workload>.
perf_run() {
    if [ "$1" = base ]; then
        CARGO_TARGET_DIR=$PWD/target/bench-baseline/target bash target/bench-baseline/tree/benchmark/run.sh \
            --workload "$2" --seed 7 --seconds 0.5 --trace 0
    else
        bash benchmark/run.sh --workload "$2" --seed 7 --seconds 0.5 --trace 0
    fi
}

perf_gate() {
    perf_compare_selftest
    ref=HEAD~1
    if [ -n "$(git status --porcelain)" ]; then ref=HEAD; fi
    if ! base=$(git rev-parse -q --verify "$ref^{commit}") ||
        ! git cat-file -e "$base:benchmark/run.sh" 2>/dev/null; then
        echo "=== !!! SKIPPED: same-host perf gate — $ref missing or without benchmark/run.sh; speed NOT judged"
        return 0
    fi
    echo "  (baseline $ref = $base)"
    dir=target/bench-baseline
    if [ "$(cat "$dir/commit" 2>/dev/null)" != "$base" ]; then
        rm -rf "$dir" && mkdir -p "$dir/tree"
        git archive "$base" | tar -x -C "$dir/tree"
        echo "$base" >"$dir/commit"
    fi
    # Build both sides (a run builds first) before anything is timed.
    for side in base change; do perf_run $side sat_tune >/dev/null; done
    runs=target/perf-gate
    rm -rf "$runs" && mkdir -p "$runs"
    for w in sat_tune sat_base_avoid light_tune resume_storm cube3_tune_s2; do
        for pair in 1 2 3 4 5; do
            sides="base change" && [ $((pair % 2)) -eq 1 ] || sides="change base"
            for side in $sides; do
                out=$runs/$side.$w.$pair
                perf_run "$side" "$w" >"$out" || echo "fail exit status $?" >>"$out"
            done
        done
    done
    perf_compare "$runs"
}
step "same-host perf gate (baseline commit vs this tree, 5 pairs)" perf_gate

echo "CI green."
