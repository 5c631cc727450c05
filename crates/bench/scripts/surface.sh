#!/bin/sh
# The public surface, drawn by rustc: lists every `pub` item and named field
# in a library target that no other crate needs, and exits 1 when there is
# one.
#
#   crates/bench/scripts/surface.sh        # needs cargo and jq
#
# It works on a temporary copy of the repository it sits in, with its own
# CARGO_TARGET_DIR, and leaves the repository untouched:
#
# 1. Every plain `pub` fn, struct, enum, trait, const and type, every
#    plain `pub` named field, and every column-0 `pub use` in a library
#    target is demoted to `pub(crate)`. Library targets are the `src/`
#    trees of crates/* and examples/, less `main.rs` and `bin/`; a file's
#    unit tests (from its first column-0 `#[cfg(test)]`) are left alone,
#    and so are modules, statics, tuple fields and a `pub use` under an
#    attribute or with nested braces. A field is named `Struct.field` after
#    the last `struct` declared above it. A `pub use` is blanked where it
#    stands and re-issued at the end of its file, one line per name, so
#    each re-exported name is restored on its own; it is listed at its
#    original line.
# 2. `cargo check --workspace --all-targets` runs until it stops needing a
#    restore. Each round restores every demoted item that an error, or a
#    `private_interfaces` / `private_bounds` warning, points at with any of
#    its spans. A `pub use` of a demoted item (E0364, E0365) points at the
#    `use`, so there the item is found by name within the crate. A private
#    field's error points at the reader, so the field is found by crate,
#    struct and field name: E0616 and E0451 name the fields ("fields `a`
#    and `b` of struct `S` are private"), and "cannot construct `S` ... due
#    to private fields" restores every field of `S`. rustc prefixes the
#    struct's crate (`prochlo_core::S`) when two visible structs share its
#    name; a bare name matches `S` in every crate, so two crates that both
#    declare `S.f` would have both restored. A round whose diagnostics
#    match nothing demoted prints them and exits 2: the tree does not
#    compile, or this script meets a shape it cannot map.
# 3. At the fixpoint it prints the items and fields still demoted, then
#    those of them that rustc's `dead_code` reports outside unit tests, and
#    the counts, round count and seconds. Both lists empty is exit 0.
#
# Delete what is dead; move what only unit tests use into the tests module;
# demote the rest to `pub(crate)`. Doctests are not checked: run
# `cargo test --doc --workspace` after demoting.
set -eu
repo=$(cd "$(dirname "$0")/../../.." && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
trap 'exit 130' INT TERM
start=$(date +%s)

mkdir "$work/repo"
tar -C "$repo" --exclude=.git --exclude=target --exclude=.bench_build -cf - . | tar -C "$work/repo" -xf -
cd "$work/repo"
export CARGO_TARGET_DIR="$work/target"

# Step 1: demote, and write one `file:line kind name` line per item, one
# `file:line field Struct.field` line per field and one `file:line use path
# @line` line per re-exported name (its line in the copy, then the original).
find crates/*/src examples/src -name '*.rs' ! -path '*/src/main.rs' ! -path '*/bin/*' |
    sort > "$work/files"
: > "$work/demoted"
xargs awk -v out="$work/demoted" '
    # Queues `pub(crate) use` lines, one per name of the statement `text`
    # that began on line `at`; a nested group is queued whole and public.
    function expand(text, at,   prefix, inner, n, names, i, path) {
        sub(/^pub use /, "", text)
        sub(/;.*/, "", text)
        gsub(/[ \t]+/, " ", text)
        gsub(/ *:: */, "::", text); gsub(/ *\{ */, "{", text)
        gsub(/ *\} */, "}", text); gsub(/ *, */, ",", text)
        if (text !~ /\{/) { queue("pub(crate) use " text ";", text, at); return }
        prefix = substr(text, 1, index(text, "{") - 1)
        inner = substr(text, index(text, "{") + 1)
        sub(/\}$/, "", inner)
        if (inner ~ /[{}]/) { pend[++npend] = "pub use " text ";"; return }
        n = split(inner, names, ",")
        for (i = 1; i <= n; i++) {
            if (names[i] == "") continue
            path = names[i] == "self" ? substr(prefix, 1, length(prefix) - 2) : prefix names[i]
            queue("pub(crate) use " path ";", path, at)
        }
    }
    function queue(line, name, at) {
        pend[++npend] = line
        pname[npend] = name
        porig[npend] = at
    }
    # Appends the queued uses to the finished file and lists each one.
    function flush(   i) {
        if (prev == "") return
        for (i = 1; i <= npend; i++) {
            print pend[i] > prev
            if (i in pname) print file ":" (lines + i), "use", pname[i], "@" porig[i] >> out
        }
        npend = 0
        split("", pname)
        close(prev)
    }
    FNR == 1 { flush(); prev = FILENAME ".surface"; file = FILENAME; tests = 0; above = "" }
    { lines = FNR }
    /^#\[cfg\(test\)\]/ { tests = 1 }
    !tests && !inuse && /^pub use / && above !~ /^[ \t]*#\[/ { inuse = 1; text = ""; at = FNR }
    inuse {
        line = $0
        sub(/\/\/.*/, "", line)
        text = text " " line
        if (line ~ /;/) { inuse = 0; sub(/^ /, "", text); expand(text, at) }
        print "" > prev
        above = $0
        next
    }
    { above = $0 }
    match($0, /^[ \t]*(pub(\([^)]*\))? )?struct [A-Za-z_][A-Za-z0-9_]*/) {
        n = split(substr($0, RSTART, RLENGTH), decl, " ")
        owner = decl[n]
    }
    !tests && match($0, /^[ \t]*pub (const |unsafe |async |extern "[^"]*" )*(fn|struct|enum|trait|const|type) [A-Za-z_][A-Za-z0-9_]*/) {
        n = split(substr($0, RSTART, RLENGTH), decl, " ")
        sub(/pub /, "pub(crate) ")
        print FILENAME ":" FNR, decl[n - 1], decl[n] >> out
    }
    !tests && match($0, /^[ \t]+pub [a-z_][a-z0-9_]*:/) {
        field = substr($0, RSTART, RLENGTH - 1)
        sub(/^[ \t]+pub /, "", field)
        sub(/pub /, "pub(crate) ")
        print FILENAME ":" FNR, "field", owner "." field >> out
    }
    { print > prev }
    END { flush() }' < "$work/files"
while read -r file; do mv "$file.surface" "$file"; done < "$work/files"
fields=$(grep -c ' field ' "$work/demoted" || :)
uses=$(grep -c ' use ' "$work/demoted" || :)
items=$(($(wc -l < "$work/demoted") - fields - uses))
# Each library's name and directory, for a crate-qualified struct path.
cargo metadata --offline --no-deps --format-version 1 |
    jq -r '.workspace_root as $root | .packages[].targets[] | select(.kind | index("lib"))
        | "\(.name) \(.src_path | ltrimstr($root + "/") | sub("/src/.*"; ""))"' > "$work/libs"

# Rewrites `pub(crate)` back to `pub` on each `file:line` read from stdin.
restore() {
    sort -u > "$work/restore"
    cut -d: -f1 "$work/restore" | sort -u | while read -r file; do
        awk -v file="$file" '
            FNR == NR { at[$0] = 1; next }
            (file ":" FNR) in at { sub(/pub\(crate\) /, "pub ") }
            { print }' "$work/restore" "$file" > "$work/restored"
        cat "$work/restored" > "$file"
    done
    awk 'FNR == NR { at[$0] = 1; next } !($1 in at)' "$work/restore" "$work/demoted" > "$work/left"
    mv "$work/left" "$work/demoted"
}

# Step 2: the diagnostics that ask for a restore, one JSON line each, and
# per diagnostic a tab-separated line: code, every span as `file:line`, the
# first name the message quotes, the primary span's file and the private
# fields it names as `path.field` (`path.*` for every field), or `-`.
rounds=0
while :; do
    rounds=$((rounds + 1))
    cargo check --offline --workspace --all-targets --keep-going --message-format=json \
        2> /dev/null > "$work/check.json" || :
    jq -c 'select(.reason == "compiler-message") | .message
        | select(.level == "error" or (.code.code // "" | test("^private_(interfaces|bounds)$")))
        | select(.spans != [] or (.message | startswith("aborting due to") | not))' \
        "$work/check.json" > "$work/asks.json"
    [ -s "$work/asks.json" ] || break
    jq -r '[.code.code // "-",
            ([.spans[], .children[].spans[]] | map("\(.file_name):\(.line_start)") | unique | join(" ")),
            (.message | capture("`(?<n>[^`]+)`").n // "-"),
            (first(.spans[] | select(.is_primary) | .file_name) // "-"),
            ((.message | capture("^fields? (?<f>.+) of struct `(?<s>[^`]+)` (is|are) private$")
                | .s as $s | [.f | scan("`([^`]+)`") | "\($s).\(.[0])"] | join(" "))
             // (.message | capture("^cannot construct `(?<s>[^`<]+)[^`]*` with struct literal syntax due to private fields")
                | "\(.s).*")
             // "-")] | @tsv' \
        "$work/asks.json" > "$work/asks"
    : > "$work/unmapped"
    awk -F '\t' -v unmapped="$work/unmapped" '
        function crate(path) { sub(/\/src\/.*/, "", path); return path }
        FILENAME == ARGV[1] {
            split($0, item, " ")
            demoted[item[1]] = 1
            # A re-export is named by its alias or its path'"'"'s last segment.
            name = item[2] != "use" ? item[3] : item[4] == "as" ? item[5] : item[3]
            sub(/.*::/, "", name)
            named[crate(item[1]) " " name] = named[crate(item[1]) " " name] " " item[1]
            if (item[2] == "use") reexport[name] = reexport[name] " " item[1]
            if (item[2] == "field") {
                split(item[3], member, ".")
                field[item[3]] = field[item[3]] " " item[1]
                field[member[1] ".*"] = field[member[1] ".*"] " " item[1]
            }
            next
        }
        FILENAME == ARGV[2] { split($0, lib, " "); dir[lib[1]] = lib[2]; next }
        $5 != "-" {
            hit = 0
            n = split($5, keys, " ")
            for (i = 1; i <= n; i++) {
                # `prochlo_core::wire::Reader.x`: the crate, then `Reader.x`.
                k = split(keys[i], path, "::")
                owner = k > 1 && path[1] in dir ? dir[path[1]] : ""
                m = split(field[path[k]], spans, " ")
                for (j = 1; j <= m; j++)
                    if (owner == "" || crate(spans[j]) == owner) { print spans[j]; hit = 1 }
            }
            if (!hit) print FNR > unmapped
            next
        }
        {
            hit = 0
            n = split($2, spans, " ")
            for (i = 1; i <= n; i++) if (spans[i] in demoted) { print spans[i]; hit = 1 }
            key = crate($4) " " $3
            if (!hit && ($1 == "E0364" || $1 == "E0365") && key in named) {
                n = split(named[key], spans, " ")
                for (i = 1; i <= n; i++) print spans[i]
                hit = 1
            }
            # `use other::name` finds the module of that name once the
            # function re-export is gone, and the call then fails where it
            # stands: restore every re-export of the name the error quotes.
            if (!hit && $3 in reexport) {
                n = split(reexport[$3], spans, " ")
                for (i = 1; i <= n; i++) print spans[i]
                hit = 1
            }
            if (!hit) print FNR > unmapped
        }' "$work/demoted" "$work/libs" "$work/asks" > "$work/hits"
    # A private item's callers are still type-checked against it, so an
    # unmatched error can follow from a matched one: it counts only when the
    # round restores nothing.
    if [ ! -s "$work/hits" ]; then
        echo "surface: no demoted item matches these diagnostics:" >&2
        awk 'FNR == NR { at[$0] = 1; next } FNR in at' "$work/unmapped" "$work/asks.json" |
            jq -r '.rendered // .message' >&2
        exit 2
    fi
    restore < "$work/hits"
done

# Step 3: the fixpoint's lists.
jq -r 'select(.reason == "compiler-message") | .message | select(.code.code == "dead_code")
    | .spans[] | "\(.file_name):\(.line_start)"' "$work/check.json" | sort -u > "$work/dead-spans"
awk 'FNR == NR { dead[$0] = 1; next } $1 in dead' "$work/dead-spans" "$work/demoted" > "$work/dead"
echo "pub items, fields and re-exports no other crate needs ($(wc -l < "$work/demoted")):"
sed -E 's/^([^:]+):[0-9]+ use (.*) @([0-9]+)$/\1:\3 use \2/; s/^/  /' "$work/demoted"
echo "of which dead outside unit tests ($(wc -l < "$work/dead")):"
sed 's/^/  /' "$work/dead"
echo "surface: $items items, $fields fields and $uses re-exports demoted, $rounds rounds, $(($(date +%s) - start)) s"
[ ! -s "$work/demoted" ]
