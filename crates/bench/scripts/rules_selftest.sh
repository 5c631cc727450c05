#!/bin/sh
# The project rules' self-test: clippy must pass the tree as it stands and
# fail on each planted violation, naming it.
#
#   crates/bench/scripts/rules_selftest.sh        # needs cargo and clippy
#
# It works on a temporary copy of the repository it sits in, with its own
# CARGO_TARGET_DIR, and leaves the repository untouched. The copy is checked
# once unplanted, then once per plant with only that plant in place (a
# failed crate stops its dependents, so plants are not combined): each run
# of `cargo clippy --workspace --all-targets -- -D warnings` must fail with
# a diagnostic in the planted file that quotes the expected text. It prints
# one line per plant and exits 1 when any plant passes or goes unnamed.
set -eu
repo=$(cd "$(dirname "$0")/../../.." && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
trap 'exit 130' INT TERM

mkdir "$work/repo"
tar -C "$repo" --exclude=.git --exclude=target --exclude=.bench_build -cf - . | tar -C "$work/repo" -xf -
cd "$work/repo"
export CARGO_TARGET_DIR="$work/target"

clippy() {
    cargo clippy --offline --workspace --all-targets --message-format=short -- -D warnings \
        > "$work/out" 2>&1
}

if ! clippy; then
    cat "$work/out"
    echo "rules: the unplanted tree fails clippy"
    exit 1
fi
echo "rules: the unplanted tree passes"

failed=0
# plant <description> <file> <expected text> <file:line pattern>: appends
# stdin to <file> (with PLANT_SED set, edits it with that sed script
# instead), runs clippy and restores the file.
plant() {
    cp "$2" "$work/saved"
    if [ -n "${PLANT_SED:-}" ]; then sed -i "$PLANT_SED" "$2"; else cat >> "$2"; fi
    if clippy; then
        echo "rules: NOT caught: $1"
        failed=1
    elif grep -F "$3" "$work/out" | grep -q "^$4:"; then
        echo "rules: caught: $1"
    else
        grep -E '^[^ ]+\.rs:[0-9]+:[0-9]+: (error|warning)' "$work/out" || cat "$work/out"
        echo "rules: failed but unnamed: $1 (expected \`$3\` at $4)"
        failed=1
    fi
    cp "$work/saved" "$2"
}

plant 'std::env::var in prochlo-collector' crates/collector/src/lib.rs \
    'disallowed method `std::env::var`' 'crates/collector/src/lib.rs:[0-9]*:[0-9]*' <<'EOF'
pub fn rules_probe() -> bool {
    std::env::var("RULES_PROBE").is_ok()
}
EOF
plant 'Instant::now() in prochlo-fabric' crates/fabric/src/lib.rs \
    'disallowed method `std::time::Instant::now`' 'crates/fabric/src/lib.rs:[0-9]*:[0-9]*' <<'EOF'
/// Probe.
pub fn rules_probe() -> std::time::Instant {
    std::time::Instant::now()
}
EOF
plant 'thread::Builder spawn in prochlo-core' crates/core/src/lib.rs \
    'disallowed method `std::thread::Builder::spawn`' 'crates/core/src/lib.rs:[0-9]*:[0-9]*' <<'EOF'
pub fn rules_probe() -> bool {
    std::thread::Builder::new().spawn(|| {}).is_ok()
}
EOF
plant 'HashMap imported as Map in prochlo-shuffle' crates/shuffle/src/lib.rs \
    'disallowed type `std::collections::HashMap`' 'crates/shuffle/src/lib.rs:[0-9]*:[0-9]*' <<'EOF'
use std::collections::HashMap as Map;
pub fn rules_probe() -> usize {
    Map::<u8, u8>::new().len()
}
EOF
plant '.unwrap() in core/src/wire.rs' crates/core/src/wire.rs \
    'used `unwrap()`' 'crates/core/src/wire.rs:[0-9]*:[0-9]*' <<'EOF'
pub fn rules_probe(bytes: &[u8]) -> u8 {
    *bytes.first().unwrap()
}
EOF
plant 'an #[expect] without a reason' crates/core/src/lib.rs \
    'attribute without specifying a reason' 'crates/core/src/lib.rs:[0-9]*:[0-9]*' <<'EOF'
#[expect(clippy::disallowed_methods)]
pub fn rules_probe() -> std::time::Instant {
    std::time::Instant::now()
}
EOF
plant 'a stale #[expect]' crates/core/src/lib.rs \
    'unfulfilled' 'crates/core/src/lib.rs:[0-9]*:[0-9]*' <<'EOF'
#[expect(clippy::disallowed_methods, reason = "nothing here reads a clock")]
pub fn rules_probe() {}
EOF
plant 'a plain #[allow]' crates/core/src/lib.rs \
    '#[allow] attribute found' 'crates/core/src/lib.rs:[0-9]*:[0-9]*' <<'EOF'
#[allow(clippy::disallowed_methods, reason = "allow outlives its cause; expect does not")]
pub fn rules_probe() -> std::time::Instant {
    std::time::Instant::now()
}
EOF
PLANT_SED='s/^pub struct StaticSecret {/#[derive(PartialEq)]\n&/' \
    plant '#[derive(PartialEq)] on StaticSecret' crates/crypto/src/ecdh.rs \
    'E0283' 'tests/tests/secret_types.rs:[0-9]*:[0-9]*' < /dev/null
exit $failed
