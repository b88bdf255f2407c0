#!/usr/bin/env bash
# In-process A/B of the simulator's speed: a base commit against this
# tree, both linked into one driver binary that steps one simulation of
# each on identical states in alternating chunks of cycles, with a second
# base simulation as the control (scripts/ab/driver.rs says how it
# measures and what it asserts). Sequential benchmark pairs on a busy
# 2-vCPU host spread ±10 % with no code change; two simulations timed
# chunk by chunk in one process resolve about 1 %.
#
#   scripts/ab.sh [<base-rev> [<config>...]]
#
# <base-rev> defaults to HEAD while the tree has uncommitted changes, else
# HEAD~1 (as the CI perf gate picks its baseline). Configs default to
# `recovery avoidance light cube3 cube3s2 resume alo`. The base is `git
# archive`d into target/ab/base with its `[workspace.package] version` set
# to 0.0.1, so that one driver crate, generated in target/ab/driver, can
# depend on both trees' `stcc`, `wormsim`, `traffic` and `checkpoint`
# through `package =` renames. Builds offline with nothing but the
# toolchain; the first build takes about a minute.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
root=$PWD
ref=${1:-}
if [ -z "$ref" ]; then
    ref=HEAD~1
    if [ -n "$(git status --porcelain)" ]; then ref=HEAD; fi
fi
base=$(git rev-parse --verify "$ref^{commit}")
shift || true
configs=("$@")
[ ${#configs[@]} -gt 0 ] || configs=(recovery avoidance light cube3 cube3s2 resume alo)

dir=$root/target/ab
if [ "$(cat "$dir/base.commit" 2>/dev/null)" != "$base" ]; then
    rm -rf "$dir/base" && mkdir -p "$dir/base"
    # `-m`: stamp the files now, not at the commit's time, or Cargo would
    # take an older base for the build it already has of a newer one.
    git archive "$base" | tar -x -m -C "$dir/base"
    # The first `version` after `[workspace.package]` becomes 0.0.1.
    awk '/^\[workspace\.package\]/ { pkg = 1 }
         pkg && /^version *=/ { sub(/=.*/, "= \"0.0.1\""); pkg = 0 }
         { print }' "$dir/base/Cargo.toml" >"$dir/base/Cargo.toml.ab"
    mv "$dir/base/Cargo.toml.ab" "$dir/base/Cargo.toml"
    grep -q '^version = "0.0.1"' "$dir/base/Cargo.toml" ||
        { echo "ab: no [workspace.package] version in the base's Cargo.toml" >&2; exit 2; }
    echo "$base" >"$dir/base.commit"
fi

mkdir -p "$dir/driver/src"
cp scripts/ab/driver.rs "$dir/driver/src/main.rs"
{
    cat <<'EOF'
[package]
name = "ab-driver"
version = "0.0.0"
edition = "2021"
publish = false

[workspace]

[dependencies]
EOF
    for crate in stcc:core wormsim:netsim traffic:traffic checkpoint:checkpoint; do
        name=${crate%%:*} path=${crate##*:}
        echo "${name}_base = { package = \"$name\", path = \"$dir/base/crates/$path\" }"
        echo "${name}_change = { package = \"$name\", path = \"$root/crates/$path\" }"
    done
} >"$dir/driver/Cargo.toml"

CARGO_TARGET_DIR=$dir/target cargo build --offline --release -q --manifest-path "$dir/driver/Cargo.toml"
echo "ab: base $ref = $base, change = this tree ($(git rev-parse --short HEAD)$(
    [ -z "$(git status --porcelain)" ] || echo ' + uncommitted changes'))"
for config in "${configs[@]}"; do
    "$dir/target/release/ab-driver" "$config"
done
