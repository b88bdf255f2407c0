#!/bin/bash
# The repository's CI gate, runnable locally and fully offline:
#   1. formatting        (cargo fmt --check)
#   2. lints             (cargo clippy, warnings are errors)
#   3. rustdoc audit     (broken intra-doc links are errors)
#   4. one front door    (grep gate: the process environment is read in one
#                         file — crates/experiments/src/options.rs — and
#                         written nowhere; crates/core never names std::env)
#   5. tier-1 verify     (cargo build --release && cargo test -q)
#   6. workspace tests   (incl. the golden determinism suite; its named
#                         step first pins the traffic stream — wheel-driven
#                         arrivals == per-node polls, the geometric gap
#                         sampler's exact cases and fit — then greps that no
#                         stepping loop polls per node and that no libm
#                         call sits on the stream)
#   7. conformance       (every controller through the shared battery, and
#                         the one-scaffold gate: the watchdog lives in
#                         scaffold.rs only; law file sizes printed)
#   8. zero-alloc gate   (steady-state cycles make no heap allocations)
#   9. controller smoke  (`fig controllers` tiny sweep must match golden)
#  10. parallel smoke    (a --jobs 4 sweep through the runner)
#  11. kill-and-resume   (SIGKILL a sweep mid-run, finish it with --resume)
#  12. audited sweep     (STCC_AUDIT=256 `fig fig2` run must still match golden)
#  13. shard gate        (STCC_SHARDS=4 and =8 audited sweeps vs golden,
#                         each leg's wall time printed, plus a SIGKILL at
#                         STCC_SHARDS=8 resumed with --shards 8; then the
#                         pool's shard-affinity test in a release build)
#  14. chaos smoke       (fixed-seed chaos trials at random shard counts,
#                         kill/resume determinism)
#  15. campaign smoke    (orchestrator retry/quarantine + kill/resume)
#  16. thread sanitizer  (netsim's shard tests — the claim protocol's
#                         exhaustive schedules, the view-contract panics, the
#                         pool's panic paths — and bit-identity tests, the
#                         barrier stress and pool teardown under TSan; needs
#                         nightly, loud skip otherwise)
#  17. repo benchmark    (benchmark/run.sh --quick: all six workloads at a
#                         tenth of their length, every verification on)
#  18. tiny bench gate   (always on: 64-node preset, >50% regression fails)
#  19. paper bench gate  (opt-in: STCC_BENCH_GATE=1, >15% regression fails)
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

step "tier-1: build" cargo build --release

# The gates below invoke target/release/{fig,chaos,bench_netsim} directly;
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

# Kill-and-resume: start the tiny fig4 sweep, SIGKILL it as soon as its
# journal records the first completed point, then finish with --resume and
# require the final CSV to be byte-identical to the committed golden. If
# the run wins the race and completes before the kill lands, the resume
# pass degenerates to a fresh run — the byte-compare still gates.
resume_gate() {
    out=target/ci-resume
    rm -rf "$out"
    bin=target/release/fig
    "$bin" fig4 --scale tiny --net small --jobs 1 --out "$out" >/dev/null 2>&1 &
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
        echo "  (killed sweep pid $pid mid-run)"
    else
        echo "  (sweep finished before the kill; resume runs fresh)"
    fi
    wait "$pid" 2>/dev/null || true
    "$bin" fig4 --scale tiny --net small --jobs 1 --out "$out" --resume >/dev/null
    cmp "$out/fig4.tiny.csv" crates/experiments/tests/golden/fig4.tiny.csv
    if [ -f "$out/fig4.tiny.journal" ]; then
        echo "journal not cleaned up after a successful sweep" >&2
        return 1
    fi
}
step "kill-and-resume smoke" resume_gate

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
# the audit's shard invariants (mailbox conservation including the parked
# handoffs, partition disjointness) scanning every 256 cycles. Each leg
# prints its wall time: a pool runs min(shards, cores) threads, so eight
# shards must not cost a multiple of four. Then the kill-and-resume
# pattern at STCC_SHARDS=8: a journal
# written by an unsharded run earlier in this script is interchangeable
# with a sharded one, and vice versa, even at the widest shard count the
# chaos harness draws.
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

    bin=target/release/fig
    STCC_SHARDS=8 "$bin" fig4 --scale tiny --net small --jobs 1 --out "$out" \
        >/dev/null 2>&1 &
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
        echo "  (killed sharded sweep pid $pid mid-run)"
    else
        echo "  (sharded sweep finished before the kill; resume runs fresh)"
    fi
    wait "$pid" 2>/dev/null || true
    "$bin" fig4 --shards 8 --scale tiny --net small --jobs 1 --out "$out" --resume \
        >/dev/null
    cmp "$out/fig4.tiny.csv" crates/experiments/tests/golden/fig4.tiny.csv
}
step "shard gate (STCC_SHARDS=4/8 vs golden, resume at --shards 8)" shard_gate

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

# Thread sanitizer: the sharded apply writes one network from several
# threads through range-checked views (DESIGN.md §4d); the range checks
# catch a mis-owned index, TSan catches a missing barrier or a plain access
# that should have been atomic. Runs netsim's shard unit tests (the claim
# protocol walked through every schedule, the view contract's panics for
# foreign hops, deliveries and handoffs, the pool's panic paths), its
# bit-identity tests across shard counts, and the 10 K-cycle eight-shard
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
        shard bit_identical
    cargo +nightly test --offline --target $target -p stcc --test shard_pool
)
if [ "$(uname -sm)" = "Linux x86_64" ] &&
    cargo +nightly --version >/dev/null 2>&1 &&
    ls "$(rustc +nightly --print sysroot)"/lib/rustlib/x86_64-unknown-linux-gnu/lib/librustc*_rt.tsan.a \
        >/dev/null 2>&1; then
    step "thread sanitizer (shard + bit-identity tests, barrier stress)" tsan_gate
else
    echo "=== !!! SKIPPED: thread sanitizer leg — needs Linux x86_64, \`cargo +nightly\`"
    echo "=== !!!          and its TSan runtime; the sharded apply is NOT race-checked here"
fi

# The repo benchmark (BENCHMARK.json, benchmark/README.md) at a tenth of
# its length: builds the benchmark crate against this checkout's public
# API and runs all six workloads with every verification on — final
# checkpoints against their reference runs, the traced driver's counters
# against the untraced run's, the sweep against its golden CSV. It judges
# no timing here; it fails (non-zero exit) if a verification does, or if
# the benchmark no longer compiles against the simulator.
step "repo benchmark (--quick, verifications only)" bash benchmark/run.sh --quick

# Perf regression gates. The tiny (64-node) gate always runs: it takes a
# few seconds and its 50% tolerance only has to catch order-of-magnitude
# cliffs, so it stays stable across hosts and a noisy shared core. The
# paper-preset gate is opt-in because the committed BENCH_netsim.json was
# measured on one specific host: any headline metric >15% worse fails.
step "bench gate (tiny preset, vs BENCH_netsim_tiny.json)" \
    cargo run --release -q -p bench --bin bench_netsim -- \
    --preset tiny --tolerance 0.5 --gate BENCH_netsim_tiny.json
if [ "${STCC_BENCH_GATE:-0}" = "1" ]; then
    step "bench gate (paper preset, vs BENCH_netsim.json)" \
        cargo run --release -q -p bench --bin bench_netsim -- \
        --gate BENCH_netsim.json
fi

echo "CI green."
