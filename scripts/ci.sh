#!/bin/bash
# The repository's CI gate, runnable locally and fully offline:
#   1. formatting        (cargo fmt --check)
#   2. lints             (cargo clippy, warnings are errors)
#   3. rustdoc audit     (broken intra-doc links are errors)
#   4. one front door    (grep gate: the process environment is read in one
#                         file — crates/experiments/src/options.rs — and
#                         written nowhere; crates/core never names std::env)
#   5. one measurement   (grep gate: no name of the deleted second bench
#                         stack survives outside CHANGES.md, ISSUE.md and
#                         benchmark/)
#   6. tier-1 verify     (cargo build --release && cargo test -q)
#   7. workspace tests   (incl. the golden determinism suite; its named
#                         step first pins the traffic stream — wheel-driven
#                         arrivals == per-node polls, the geometric gap
#                         sampler's exact cases and fit — then greps that no
#                         stepping loop polls per node and that no libm
#                         call sits on the stream)
#   8. conformance       (every controller through the shared battery, and
#                         the one-scaffold gate: the watchdog lives in
#                         scaffold.rs only; law file sizes printed)
#   9. zero-alloc gate   (steady-state cycles make no heap allocations)
#  10. controller smoke  (`fig controllers` tiny sweep must match golden)
#  11. parallel smoke    (a --jobs 4 sweep through the runner)
#  12. kill-and-resume   (SIGKILL a sweep mid-run, finish it with --resume)
#  13. audited sweep     (STCC_AUDIT=256 `fig fig2` run must still match golden)
#  14. shard gate        (STCC_SHARDS=4 and =8 audited sweeps vs golden,
#                         each leg's wall time printed, plus step 12's
#                         kill-and-resume at --shards 8; then the pool's
#                         shard-affinity test in a release build)
#  15. chaos smoke       (fixed-seed chaos trials at random shard counts,
#                         kill/resume determinism)
#  16. campaign smoke    (orchestrator retry/quarantine + kill/resume)
#  17. thread sanitizer  (netsim's shard tests — the claim protocol's
#                         exhaustive schedules, the view-contract panics, the
#                         pool's panic paths — bit-identity and credit-timing
#                         tests, the pool stress and teardown under TSan;
#                         needs nightly, loud skip otherwise)
#  18. repo benchmark    (benchmark/run.sh --quick: all six workloads at a
#                         tenth of their length, every verification on)
#  19. same-host perf    (the baseline commit's benchmark against this
#                         tree's in 5 alternating pairs of sat_tune and
#                         light_tune; a median beyond its BENCHMARK.json
#                         bound, a fail line or a failed op fails)
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

# The simulator hot path moves state by value; an oversized enum variant
# there silently turns every copy into a memcpy.
step "clippy: netsim enum-size audit" \
    cargo clippy -p wormsim --all-targets -- \
    -D warnings -D clippy::large_enum_variant

# Rustdoc audit: a placeholder or rotted intra-doc link is a build error.
rustdoc_audit() {
    RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links" \
        cargo doc --workspace --no-deps --quiet
}
step "rustdoc audit" rustdoc_audit

# One front door: a run's configuration is a value (`RuntimeOptions`),
# resolved once from argv and the STCC_* variables and passed down. So the
# process environment may be read in at most one non-test source file, and
# written nowhere — not in tests either, which run on parallel threads.
# `benchmark/` is its own workspace and keeps its own scrub.
one_front_door() {
    readers=$(grep -rlE 'env::vars?(_os)?\b' crates/*/src src | sort)
    if [ "$(printf '%s\n' "$readers" | grep -c .)" -gt 1 ]; then
        echo "the process environment is read in more than one file:" >&2
        printf '%s\n' "$readers" >&2
        return 1
    fi
    echo "  (environment read in: ${readers:-nowhere})"
    if grep -rnE '\b(set_var|remove_var)\b' crates src tests; then
        echo "the process environment is written (see README, \"Runtime options\")" >&2
        return 1
    fi
    if grep -rn 'std::env\|env::' crates/core/src; then
        echo "crates/core must not touch std::env at all" >&2
        return 1
    fi
}
step "one front door (env read in one file, written in none)" one_front_door

# One measurement system: `benchmark/` (BENCHMARK.json) is the only bench
# stack, and the same-host gate at the end of this script the only perf
# gate. No name of the deleted second stack — its crate, binary, baseline
# files, opt-in variable, the `cargo` bench subcommand — may come back.
# CHANGES.md keeps the history; ISSUE.md is the request text; `benchmark/`
# belongs to its own PRs (its README's last section is owed by ROADMAP
# item 2). The bracketed letters keep the pattern from matching itself.
one_measurement_system() {
    status=0
    git grep --untracked -nIE \
        'bench[_]netsim|BENCH[_]netsim|STCC[_]BENCH_GATE|cargo [b]ench|crates/[b]ench' \
        -- . ':!CHANGES.md' ':!ISSUE.md' ':!benchmark/' || status=$?
    if [ "$status" -ne 1 ]; then
        echo "a deleted bench-stack name is back (see above), or git grep failed" >&2
        return 1
    fi
}
step "one measurement system (no second bench stack)" one_measurement_system

step "tier-1: build" cargo build --release

# The gates below invoke target/release/{fig,chaos,campaign} directly;
# the root-package build above only guarantees the libraries, so build every
# workspace binary explicitly rather than trusting leftovers.
step "release binaries" cargo build --release --workspace

step "tier-1: test" cargo test -q

step "workspace tests" cargo test --workspace -q

# Controller conformance: every controller in the registry (plus a static
# representative) through the shared five-property battery — checkpoint
# bit-equality, fast-forward veto/equivalence, audit-clean stepping,
# watchdog fail-open, and the synthetic-census throttle gate. Part of the
# workspace run too; named so a conformance break is unmistakable.
step "controller conformance" \
    cargo test -q -p stcc --test controller_conformance

# One scaffold: the staleness watchdog and its counters are written once,
# in crates/core/src/scaffold.rs. A law file that grows its own copy fails
# here. Also prints what each law costs (lines above its test module).
one_scaffold() {
    src=crates/core/src
    if grep -nE 'gathers_overdue\(|watchdog_trips \+=|watchdog_rearms \+=' \
        "$src"/*.rs | grep -v "^$src/scaffold.rs:"; then
        echo "watchdog logic outside $src/scaffold.rs (see DESIGN.md §6)" >&2
        return 1
    fi
    for law in statik decbit aimd bbr tuned; do
        awk -v f="$law.rs" '/^#\[cfg\(test\)\]/ { exit } { n++ }
            END { printf "  %-10s %4d non-test lines\n", f, n }' "$src/$law.rs"
    done
}
step "one scaffold (watchdog only in scaffold.rs)" one_scaffold

# Zero-allocation gate: after warmup, saturated simulation cycles (in both
# deadlock modes, drains included) must perform zero heap allocations. The
# counting allocator lives in its own test binary, so this runs alone.
step "zero-alloc steady state" cargo test -q -p wormsim --test zero_alloc

# Golden determinism: fig2/fig4/fig5 must match the committed snapshots
# byte-for-byte at --jobs 1, 2 and 8 (already part of the workspace run;
# kept as an explicit named gate so a failure is unmistakable).
#
# The goldens rest on the traffic stream, so it is pinned first: the
# wheel-driven arrival entry the simulator steps through
# (`WorkloadRunner::arrivals`) must consume the RNG draw for draw like the
# per-node `poll` and like a driver that skips to `next_arrival`, and the
# integer-only geometric gap sampler must hit its exact cases, its survival
# boundaries and its distribution.
golden_determinism() {
    cargo test -q -p traffic --lib -- \
        stream_arrivals_match_per_node_polls gaps:: wheel:: \
        bernoulli_arrival_rate_matches_each_phase
    cargo test -q -p experiments --test golden
}
step "golden determinism" golden_determinism

# A per-node poll must not creep back into a stepping loop: tests and the
# `Network::cycle` adapter's callers are the only places `.poll(` belongs.
no_per_node_poll() {
    ! grep -rn '\.poll(' crates/core/src/sim.rs crates/experiments/src
}
step "no per-node poll in a stepping loop" no_per_node_poll

# The traffic stream must be bit-identical on every platform, and libm's
# transcendentals are not correctly rounded: none may appear in
# `crates/traffic/src` outside a file's `#[cfg(test)]` module (tests check
# the integer sampler *against* `powf`; `offered_rate` and the like only
# divide).
no_libm_on_the_stream() {
    for f in crates/traffic/src/*.rs; do
        if awk '/^#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' "$f" |
            grep -E '\.(ln|exp|powf|powi)\(|\.log'; then
            echo "transcendental on the traffic stream path (see DESIGN.md §4c)" >&2
            return 1
        fi
    done
}
step "no libm call in crates/traffic/src" no_libm_on_the_stream

# Controller-zoo smoke: the head-to-head binary end to end (CLI, runner,
# CSV emission) at a job count the golden suite doesn't use; the output
# must still match the committed golden byte for byte.
controllers_smoke() {
    out=target/ci-controllers
    rm -rf "$out"
    cargo run --release -q -p experiments --bin fig -- controllers \
        --scale tiny --net small --jobs 4 --out "$out" >/dev/null
    cmp "$out/fig_controllers.tiny.csv" \
        crates/experiments/tests/golden/fig_controllers.tiny.csv
}
step "controller zoo smoke (fig controllers vs golden)" controllers_smoke

# Parallel smoke: one real sweep binary through the runner at --jobs 4.
step "parallel smoke (--jobs 4)" \
    cargo run --release -q -p experiments --bin fig -- fig2 \
    --scale tiny --net small --jobs 4 --out target/ci-smoke

# Kill-and-resume at <shards> shards: start the tiny fig4 sweep, SIGKILL it
# as soon as its journal records the first completed point, then finish
# with --resume and require the final CSV to be byte-identical to the
# committed golden. If the run wins the race and completes before the kill
# lands, the resume pass degenerates to a fresh run — the byte-compare still
# gates. Run unsharded here and at eight shards in the shard gate below.
kill_and_resume() {
    out=target/ci-resume-$1
    rm -rf "$out"
    sweep=(target/release/fig fig4 --shards "$1" --scale tiny --net small --jobs 1 --out "$out")
    "${sweep[@]}" >/dev/null 2>&1 &
    pid=$!
    for _ in $(seq 1 500); do
        if [ -f "$out/fig4.tiny.journal" ] &&
            [ "$(wc -l <"$out/fig4.tiny.journal")" -ge 2 ]; then
            break
        fi
        if ! kill -0 "$pid" 2>/dev/null; then
            break
        fi
        sleep 0.01
    done
    if kill -9 "$pid" 2>/dev/null; then
        echo "  (killed sweep pid $pid at $1 shard(s) mid-run)"
    else
        echo "  (sweep at $1 shard(s) finished before the kill; resume runs fresh)"
    fi
    wait "$pid" 2>/dev/null || true
    "${sweep[@]}" --resume >/dev/null
    cmp "$out/fig4.tiny.csv" crates/experiments/tests/golden/fig4.tiny.csv
    if [ -f "$out/fig4.tiny.journal" ]; then
        echo "journal not cleaned up after a successful sweep" >&2
        return 1
    fi
}
step "kill-and-resume smoke" kill_and_resume 1

# Audited sweep: the invariant audit layer (STCC_AUDIT, full-scan checks
# every 256 cycles plus every checkpoint/restore boundary) must not change
# a single output byte — auditing observes, never perturbs.
audited_sweep() {
    out=target/ci-audit
    rm -rf "$out"
    STCC_AUDIT=256 cargo run --release -q -p experiments --bin fig -- fig2 \
        --scale tiny --net small --jobs 2 --out "$out" >/dev/null
    cmp "$out/fig2.tiny.csv" crates/experiments/tests/golden/fig2.tiny.csv
}
step "audited sweep (STCC_AUDIT=256 vs golden)" audited_sweep

# Shard gate: intra-network sharding must not change a single output byte.
# First audited fig2 sweeps stepping every simulation across 4 and then 8
# shards — byte-compared to the same golden the unsharded runs match, with
# the audit's shard invariants (every pass's output consumed by the tail and
# the fold, partition disjointness) scanning every 256 cycles. Each leg
# prints its wall time: a pool runs min(shards, cores) threads, so eight
# shards must not cost a multiple of four. Then kill-and-resume at eight
# shards, the widest count the chaos harness draws.
shard_gate() {
    out=target/ci-shards
    for shards in 4 8; do
        rm -rf "$out"
        leg_start=$(date +%s%N)
        STCC_SHARDS=$shards STCC_AUDIT=256 target/release/fig fig2 \
            --scale tiny --net small --jobs 2 --out "$out" >/dev/null
        echo "  (STCC_SHARDS=$shards leg: $((($(date +%s%N) - leg_start) / 1000000)) ms)"
        cmp "$out/fig2.tiny.csv" crates/experiments/tests/golden/fig2.tiny.csv
    done
    kill_and_resume 8
}
step "shard gate (STCC_SHARDS=4/8 vs golden, kill-and-resume at 8 shards)" shard_gate

# Shard affinity: with a core per participant, a shard must be claimed by
# its home participant pass after pass. A timing property, so it is judged
# in an optimised build (the debug run above lists it as ignored); skips
# itself, loudly, on a one-core host.
step "shard affinity (release build)" \
    cargo test --release -q -p stcc --test shard_pool -- --nocapture

# Chaos smoke: a short fixed-seed slice of the chaos harness — random
# configs × patterns × fault storms, per-trial audits, a mid-trial
# checkpoint/restore divergence check — with one SIGKILL + --resume thrown
# in. The resumed report must be byte-identical to an uninterrupted run's.
chaos_gate() {
    out=target/ci-chaos
    rm -rf "$out" "$out-fresh"
    bin=target/release/chaos
    "$bin" --seed 6 --trials 12 --out "$out" >/dev/null 2>&1 &
    pid=$!
    for _ in $(seq 1 500); do
        if [ -f "$out/chaos.journal" ] &&
            [ "$(wc -l <"$out/chaos.journal")" -ge 3 ]; then
            break
        fi
        if ! kill -0 "$pid" 2>/dev/null; then
            break
        fi
        sleep 0.01
    done
    if kill -9 "$pid" 2>/dev/null; then
        echo "  (killed chaos pid $pid mid-run)"
    else
        echo "  (chaos finished before the kill; resume runs fresh)"
    fi
    wait "$pid" 2>/dev/null || true
    "$bin" --seed 6 --trials 12 --out "$out" --resume >/dev/null 2>&1
    "$bin" --seed 6 --trials 12 --out "$out-fresh" >/dev/null 2>&1
    cmp "$out/chaos.report" "$out-fresh/chaos.report"
    if [ -f "$out/chaos.journal" ]; then
        echo "chaos journal not cleaned up after a successful run" >&2
        return 1
    fi
}
step "chaos smoke (fixed seed, kill/resume determinism)" chaos_gate

# Campaign supervision: the multi-process orchestrator end to end. First a
# rigged manifest — one scenario's worker crashes on its first attempt (must
# be retried to success), another crashes on every attempt (must be
# quarantined while the campaign continues and exits 4). Then the committed
# example manifest runs clean, the same campaign is SIGKILLed once its
# ledger holds completed rows, and --resume must reproduce the
# uninterrupted report byte for byte.
campaign_gate() {
    out=target/ci-campaign
    rm -rf "$out"
    mkdir -p "$out"
    bin=target/release/campaign
    cat >"$out/rig.toml" <<'EOF'
[campaign]
name = "ci-rig"
seed = 9
retries = 1
backoff_ms = 1
timeout_s = 60
workers = 2

[scenario.flaky]
net = "small"
scale = "tiny"
schemes = ["tune"]
patterns = ["uniform-random"]
rates = [0.005]

[scenario.doomed]
net = "small"
scale = "tiny"
schemes = ["base"]
patterns = ["transpose"]
rates = [0.005]
EOF
    status=0
    STCC_CAMPAIGN_FAIL='flaky:1,doomed:all' \
        "$bin" --manifest "$out/rig.toml" --out "$out/rig" >/dev/null 2>&1 ||
        status=$?
    if [ "$status" -ne 4 ]; then
        echo "rigged campaign exited $status, want 4 (quarantined)" >&2
        return 1
    fi
    grep -q 'ok-retried' "$out/rig/campaign.report"
    grep -q 'quarantined 1' "$out/rig/campaign.report"

    "$bin" --manifest examples/campaign.toml --out "$out/ref" >/dev/null
    "$bin" --manifest examples/campaign.toml --out "$out/killed" \
        >/dev/null 2>&1 &
    pid=$!
    for _ in $(seq 1 500); do
        if [ -f "$out/killed/campaign.ledger" ] &&
            [ "$(wc -l <"$out/killed/campaign.ledger")" -ge 2 ]; then
            break
        fi
        if ! kill -0 "$pid" 2>/dev/null; then
            break
        fi
        sleep 0.01
    done
    if kill -9 "$pid" 2>/dev/null; then
        echo "  (killed campaign pid $pid mid-run)"
    else
        echo "  (campaign finished before the kill; resume runs fresh)"
    fi
    wait "$pid" 2>/dev/null || true
    "$bin" --manifest examples/campaign.toml --out "$out/killed" --resume \
        >/dev/null
    cmp "$out/killed/campaign.report" "$out/ref/campaign.report"
    cmp "$out/killed/campaign.csv" "$out/ref/campaign.csv"
    if [ -f "$out/killed/campaign.ledger" ]; then
        echo "campaign ledger not retired after a successful run" >&2
        return 1
    fi
}
step "campaign smoke (retry/quarantine, kill/resume determinism)" campaign_gate

# Thread sanitizer: the sharded passes write one network from several
# threads through range-checked views (DESIGN.md §4d); the range checks
# catch a mis-owned index, TSan catches a read of state another shard
# writes or a plain access that should have been atomic. Runs netsim's
# shard unit tests (the claim protocol walked through every schedule, the
# view contract's panics for foreign routers and a misfiled hop, the pool's
# panic paths), its bit-identity tests across shard counts, the credit
# timing test, and the 10 K-cycle eight-shard
# barrier stress with the workspace crates instrumented (the prebuilt std is not, hence the two suppressions
# for libtest's own result channel in scripts/tsan.supp).
# Any report from simulator code fails the step. Needs a nightly toolchain
# with the TSan runtime for this host.
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
# build. sat_tune and light_tune read steady to a few % at 0.5 s; 5 pairs
# each, who goes first flipping every pair.

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
    for w in sat_tune light_tune; do
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
