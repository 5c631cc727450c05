#!/bin/sh
# Public items no other file names: every `pub fn`, `struct`, `enum`, `trait`,
# `const` and `type` whose name appears in no other first-party `.rs` file.
# ROADMAP item 9 asks for dead public surface to be visible; CI prints this
# list beside the workspace size, informationally (it always exits 0).
#
#   crates/bench/scripts/uncalled_pub.sh   # from the repository root
#
# A heuristic, read it as a lead and not a verdict: a name counts as used
# when any other file holds the same identifier, so a common method name
# (`new`, `len`) is never listed, and an item used only in its own file (or
# only through a trait, a macro or a doc test) is. `pub(crate)` items are
# not public and are not listed. vendor/ is not first-party and is left out.
cd "$(dirname "$0")/../../.." || exit 1
find crates examples tests -name '*.rs' -not -path '*/target/*' | sort | xargs awk '
    {
        n = split($0, words, /[^A-Za-z0-9_]+/)
        for (i = 1; i <= n; i++) {
            if (words[i] != "" && !((FILENAME, words[i]) in seen)) {
                seen[FILENAME, words[i]] = 1
                files[words[i]]++
            }
        }
    }
    match($0, /^[ \t]*pub[ \t]+((const|unsafe|async)[ \t]+)*(fn|struct|enum|trait|const|type)[ \t]+[A-Za-z_][A-Za-z0-9_]*/) {
        m = split(substr($0, RSTART, RLENGTH), decl, /[ \t]+/)
        items++
        file[items] = FILENAME ":" FNR
        kind[items] = decl[m - 1]
        name[items] = decl[m]
    }
    END {
        for (i = 1; i <= items; i++) {
            if (files[name[i]] == 1) {
                printf "%-58s %-6s %s\n", file[i], kind[i], name[i]
                count[kind[i]]++
                total++
            }
        }
        printf "uncalled:"
        split("fn struct enum trait const type", kinds, " ")
        for (k = 1; k <= 6; k++) printf " %d %s,", count[kinds[k]], kinds[k]
        printf " %d of %d public items\n", total, items
    }'
