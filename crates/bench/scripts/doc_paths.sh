#!/bin/sh
# Documented paths resolve: every repository path and cargo target that the
# README and the verify skill name in code must exist.
#
#   crates/bench/scripts/doc_paths.sh              # check this checkout
#   crates/bench/scripts/doc_paths.sh --selftest   # prove the check on a copy
#
# It reads README.md and .claude/skills/verify/SKILL.md: inline code spans
# (which may wrap across lines) and fenced code blocks. In them, a word that
# starts with crates/, tests/, examples/ or .github/ is a path: a trailing
# `:line` and punctuation are dropped, each `{a,b}` group (nested or not)
# expands to its alternatives and a `*` globs; each alternative must name a
# file or directory. The word after `--bin`, `--test` or `--bench` is a
# target, which must be a binary (`*/src/bin/<name>.rs` or
# `*/src/bin/<name>/`), an integration test (`*/tests/<name>.rs`) or a bench
# harness (`*/benches/<name>.rs`). It prints each stale name with the line
# that holds it and exits 1 when there is one.
#
# --selftest runs the check on a temporary copy of the repository, unplanted
# and then with a stale path and a stale target appended to the copy's
# README: the first must pass and the second must fail naming both.
set -eu
repo=$(cd "$(dirname "$0")/../../.." && pwd)

if [ "${1:-}" = --selftest ]; then
    work=$(mktemp -d)
    trap 'rm -rf "$work"' EXIT
    tar -C "$repo" --exclude=.git --exclude=target -cf - . | tar -C "$work" -xf -
    if ! "$work/crates/bench/scripts/doc_paths.sh" > "$work/out" 2>&1; then
        cat "$work/out"
        echo "doc paths: the unplanted copy fails"
        exit 1
    fi
    printf '%s\n' 'Run `cargo test -p prochlo-tests --test' 'doc_paths_planted_test` and read' \
        '`crates/core/src/doc_paths_planted.rs:12`.' >> "$work/README.md"
    if "$work/crates/bench/scripts/doc_paths.sh" > "$work/out" 2>&1; then
        echo "doc paths: NOT caught: the planted stale path and target"
        exit 1
    fi
    failed=0
    for stale in 'test target doc_paths_planted_test' 'path crates/core/src/doc_paths_planted.rs'; do
        if grep -q "^README.md:[0-9]*: stale $stale\$" "$work/out"; then
            echo "doc paths: caught: stale $stale"
        else
            echo "doc paths: unnamed: stale $stale"
            failed=1
        fi
    done
    [ "$failed" = 0 ] || cat "$work/out"
    exit "$failed"
fi

cd "$repo"
# One "<file>:<line> <kind> <name>" line per documented path (kind "path",
# one line per brace alternative) and per cargo target (kind "bin", "test"
# or "bench"), read from inline code spans and fenced code lines.
names() {
    awk '
        # Every word s stands for, one per line: the first {a,b} group
        # (groups may nest) expands to each alternative, recursively.
        function expand(s,    open, depth, i, c, start, alternatives, out, n, parts, j) {
            open = index(s, "{")
            if (!open) return s "\n"
            depth = 0; start = open + 1; alternatives = ""
            for (i = open; i <= length(s); i++) {
                c = substr(s, i, 1)
                if (c == "{") depth++
                else if (c == "}" && --depth == 0) break
                else if (c == "," && depth == 1) {
                    alternatives = alternatives substr(s, start, i - start) "\034"
                    start = i + 1
                }
            }
            if (depth) return s "\n"
            alternatives = alternatives substr(s, start, i - start)
            n = split(alternatives, parts, "\034")
            out = ""
            for (j = 1; j <= n; j++)
                out = out expand(substr(s, 1, open - 1) parts[j] substr(s, i + 1))
            return out
        }
        function scan(where, text,    words, n, i, word, m, k, paths) {
            n = split(text, words, /[ \t]+/)
            for (i = 1; i <= n; i++) {
                word = words[i]
                if (word == "--bin" || word == "--test" || word == "--bench") {
                    if (i < n && match(words[i + 1], /^[A-Za-z0-9_-]+/))
                        print where, substr(word, 3), substr(words[i + 1], 1, RLENGTH)
                    i++
                    continue
                }
                sub(/^[("\047]+/, "", word)
                sub(/:.*/, "", word)
                sub(/[].,;)"\047]+$/, "", word)
                if (word !~ /^(crates|tests|examples|\.github)\//) continue
                m = split(expand(word), paths, "\n")
                for (k = 1; k < m; k++) print where, "path", paths[k]
            }
        }
        FNR == 1 { fence = 0; open = 0 }
        /^[ \t]*```/ { fence = !fence; next }
        fence { scan(FILENAME ":" FNR, $0); next }
        /^[ \t]*$/ { open = 0; next }
        {
            n = split($0, parts, "`")
            for (i = 1; i <= n; i++) {
                if (open) span = span " " parts[i]
                if (i < n) {
                    if (open) scan(start, span)
                    else { start = FILENAME ":" FNR; span = "" }
                    open = !open
                }
            }
        }' README.md .claude/skills/verify/SKILL.md
}

# exists <glob>...: some pattern names a file or directory.
exists() {
    for pattern in "$@"; do
        for match in $pattern; do
            [ -e "$match" ] && return 0
        done
    done
    return 1
}

stale=$(names | while read -r where kind name; do
    case $kind in
    path) exists "$name" ;;
    bin) exists "*/src/bin/$name.rs" "*/*/src/bin/$name.rs" "*/src/bin/$name" "*/*/src/bin/$name" ;;
    test) exists "*/tests/$name.rs" "*/*/tests/$name.rs" ;;
    bench) exists "*/benches/$name.rs" "*/*/benches/$name.rs" ;;
    esac || if [ "$kind" = path ]; then
        echo "$where: stale path $name"
    else
        echo "$where: stale $kind target $name"
    fi
done)

if [ -n "$stale" ]; then
    printf '%s\n' "$stale"
    echo "doc paths: $(printf '%s\n' "$stale" | wc -l) stale names in the README or the verify skill"
    exit 1
fi
echo "doc paths: every documented path and cargo target resolves"
