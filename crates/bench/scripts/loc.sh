#!/bin/sh
# Rust lines per crate: every line, and the lines outside `#[cfg(test)]`.
# ROADMAP item 11 asks that size be tracked; CI prints this table on every run
# so a PR's effect on it is one diff of two logs.
#
#   crates/bench/scripts/loc.sh        # from the repository root
#
# "non-test" counts each file up to its first column-0 `#[cfg(test)]` (the
# workspace's convention: a file's unit tests are its last item) and nothing
# under a crate's tests/ directory. vendor/ is not first-party and is left out.
#
# The "system" line sums the system crates' non-test lines and the script
# exits 1 when they exceed SYSTEM_CEILING. The "allows" line counts the
# `#[expect(...)]` attributes that suppress a project rule (clippy.toml's
# disallowed methods and types, and the wire files' unwrap_used,
# expect_used, panic and indexing_slicing) outside vendor/, and the script
# exits 1 when they exceed ALLOW_CEILING: each one is a seam where a project
# invariant is not checked. Raising either
# ceiling takes an edit here and a written reason in CHANGES.md; lowering it
# after a PR that shrinks the count keeps the ground gained.
SYSTEM_CEILING=15730
SYSTEM_CRATES='core crypto shuffle collector net fabric obs stats sgx-sim'
ALLOW_CEILING=19
cd "$(dirname "$0")/../../.." || exit 1
table=$(for dir in crates/* examples tests; do
    find "$dir" -name '*.rs' -not -path '*/target/*' | sort | xargs awk -v crate="${dir#crates/}" '
        FNR == 1 { in_tests = (FILENAME ~ /\/tests\//) }
        /^#\[cfg\(test\)\]/ { in_tests = 1 }
        { total++; if (!in_tests) code++ }
        END { printf "%-22s %8d %9d\n", crate, total, code }'
done)
printf '%-22s %8s %9s\n' crate lines non-test
printf '%s\n' "$table" | awk '{ print; total += $2; code += $3 } END { printf "%-22s %8d %9d\n", "workspace", total, code }'
status=0
printf '%s\n' "$table" | awk -v crates="$SYSTEM_CRATES" -v ceiling="$SYSTEM_CEILING" '
    BEGIN { split(crates, names, " "); for (i in names) listed[names[i]] = 1 }
    $1 in listed { code += $3 }
    END {
        printf "%-22s %8s %9d (ceiling %d)\n", "system", "", code, ceiling
        if (code > ceiling) {
            printf "system crates exceed their non-test line ceiling by %d\n", code - ceiling
            exit 1
        }
    }' || status=1
allows=$(find crates examples tests -name '*.rs' -not -path '*/target/*' | xargs awk '
    /#!?\[expect\(/ { attr = "" ; open = 1 }
    open { attr = attr $0 }
    open && /\)\]/ {
        open = 0
        if (attr ~ /clippy::(disallowed_methods|disallowed_types|unwrap_used|expect_used|panic|indexing_slicing)[^a-z_]/) n++
    }
    END { print n + 0 }')
printf '%-22s %8s %9d (ceiling %d)\n' allows '' "$allows" "$ALLOW_CEILING"
if [ "$allows" -gt "$ALLOW_CEILING" ]; then
    printf 'rule suppressions exceed their ceiling by %d\n' $((allows - ALLOW_CEILING))
    status=1
fi
exit $status
