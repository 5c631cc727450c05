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
cd "$(dirname "$0")/../../.." || exit 1
printf '%-22s %8s %9s\n' crate lines non-test
for dir in crates/* examples tests; do
    find "$dir" -name '*.rs' -not -path '*/target/*' | sort | xargs awk -v crate="${dir#crates/}" '
        FNR == 1 { in_tests = (FILENAME ~ /\/tests\//) }
        /^#\[cfg\(test\)\]/ { in_tests = 1 }
        { total++; if (!in_tests) code++ }
        END { printf "%-22s %8d %9d\n", crate, total, code }'
done | awk '{ print; total += $2; code += $3 } END { printf "%-22s %8d %9d\n", "workspace", total, code }'
