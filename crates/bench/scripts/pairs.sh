#!/bin/sh
# Alternating parent/change pairs of one esa_bench workload, read under the
# paired rule: prints every run's five end-to-end metrics with `correct`,
# `failed` and `attempted` (a time-driven run that gets faster does more
# work), each side's median and quartiles, the change's wins per metric, and
# a verdict per metric.
#
#   crates/bench/scripts/pairs.sh batch_vocab parent/esa_bench change/esa_bench [pairs] [seconds]
#
# Pairs default to 10 and seconds to 10. Pair i runs both binaries with
# --seed PAIRS_SEED + i (PAIRS_SEED defaults to 1); the parent runs first in
# odd pairs and the change first in even ones, so a host that drifts during
# the set penalises both sides alike. Metric names, which way is better and
# each metric's bound come from BENCHMARK.json at the repository root.
#
# Verdict per metric: "better" or "worse" when the change wins (or loses)
# at least 90 % of the pairs and the medians lie further apart than the
# parent's interquartile range, "unresolved" otherwise. A metric whose
# change median is worse than the parent's by more than its bound is
# flagged "OUT OF BOUND" whatever the verdict. Quartiles are Python's
# statistics.quantiles(values, n=4).
workload=${1:?usage: pairs.sh <workload> <parent-esa_bench> <change-esa_bench> [pairs] [seconds]}
parent=${2:?usage: pairs.sh <workload> <parent-esa_bench> <change-esa_bench> [pairs] [seconds]}
change=${3:?usage: pairs.sh <workload> <parent-esa_bench> <change-esa_bench> [pairs] [seconds]}
pairs=${4:-10}
seconds=${5:-10}
base=${PAIRS_SEED:-1}
spec="$(dirname "$0")/../../../BENCHMARK.json"

# "name better bound;" per end-to-end metric, in BENCHMARK.json's order.
metrics=$(awk '
    /"end_to_end"/ { on = 1 }
    /"per_layer"/ { on = 0 }
    on && /"name"/ { gsub(/[",]/, "", $2); name = $2 }
    on && /"better"/ { gsub(/[",]/, "", $2); better = $2 }
    on && /"bound"/ { gsub(/[",]/, "", $2); printf "%s %s %s;", name, better, $2 }' "$spec")
[ -n "$metrics" ] || { echo "pairs: no end-to-end metrics in $spec" >&2; exit 1; }
names=$(echo "$metrics" | tr ';' '\n' | awk '{ printf "%s ", $1 }')

# One run: "<correct> <failed> <attempted> <value per metric>" from its
# result line.
run() {
    "$1" --workload "$workload" --seconds "$seconds" --seed "$2" | awk -v names="$names" '
        /^[{]/ { line = $0 }
        END {
            if (line == "") { print "missing"; exit }
            correct = line; sub(/.*"correct": /, "", correct); sub(/,.*/, "", correct)
            failed = line; sub(/.*"failed": /, "", failed); sub(/,.*/, "", failed)
            attempted = line; sub(/.*"attempted": /, "", attempted); sub(/,.*/, "", attempted)
            out = correct " " failed " " attempted
            n = split(names, name, " ")
            for (i = 1; i <= n; i++) {
                v = line
                if (sub(".*\"" name[i] "\": [{]\"value\": ", "", v)) sub(/[,}].*/, "", v)
                else v = "nan"
                out = out " " v
            }
            print out
        }'
}

results=$(
    i=1
    while [ "$i" -le "$pairs" ]; do
        seed=$((base + i))
        echo "pairs: pair $i of $pairs, seed $seed" >&2
        if [ $((i % 2)) -eq 1 ]; then
            p=$(run "$parent" "$seed"); c=$(run "$change" "$seed")
        else
            c=$(run "$change" "$seed"); p=$(run "$parent" "$seed")
        fi
        echo "$i $seed parent $p"
        echo "$i $seed change $c"
        i=$((i + 1))
    done
)

printf '%s\n' "$results" | awk -v metrics="$metrics" -v workload="$workload" -v seconds="$seconds" '
    function sort(a, n,    i, j, t) {
        for (i = 2; i <= n; i++) for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
    }
    function median(a, n) { return n % 2 ? a[(n + 1) / 2] : (a[n / 2] + a[n / 2 + 1]) / 2 }
    # statistics.quantiles(a, n=4), method "exclusive"; a sorted, n >= 2.
    function quartile(a, n, q,    j, delta) {
        j = int(q * (n + 1) / 4)
        if (j < 1) j = 1
        if (j > n - 1) j = n - 1
        delta = q * (n + 1) - j * 4
        return (a[j] * (4 - delta) + a[j + 1] * delta) / 4
    }
    BEGIN {
        m = split(metrics, spec, ";")
        if (spec[m] == "") m--
        for (k = 1; k <= m; k++) { split(spec[k], f, " "); name[k] = f[1]; better[k] = f[2]; bound[k] = f[3] }
        printf "%s, %s s per run\n%-4s %-6s %-6s %-7s %-6s %-9s", workload, seconds, "pair", "seed", "side", "correct", "failed", "attempted"
        for (k = 1; k <= m; k++) printf " %18s", name[k]
        printf "\n"
    }
    {
        printf "%-4s %-6s %-6s %-7s %-6s %-9s", $1, $2, $3, $4, $5, $6
        for (k = 1; k <= m; k++) printf " %18s", $(6 + k)
        printf "\n"
        if ($4 != "true" || $5 != "0") bad++
        pair = $1; side = $3
        for (k = 1; k <= m; k++) value[side, pair, k] = $(6 + k)
        if (pair > n) n = pair
    }
    END {
        printf "\n%-18s %36s %36s %6s  %s\n", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins", "verdict"
        for (k = 1; k <= m; k++) {
            wins = 0; losses = 0
            for (i = 1; i <= n; i++) {
                p[i] = value["parent", i, k] + 0; c[i] = value["change", i, k] + 0
                if (better[k] == "higher" ? c[i] > p[i] : c[i] < p[i]) wins++
                if (better[k] == "higher" ? c[i] < p[i] : c[i] > p[i]) losses++
            }
            sort(p, n); sort(c, n)
            pm = median(p, n); cm = median(c, n)
            if (n >= 2) { pq1 = quartile(p, n, 1); pq3 = quartile(p, n, 3); cq1 = quartile(c, n, 1); cq3 = quartile(c, n, 3) }
            else { pq1 = pq3 = pm; cq1 = cq3 = cm }
            apart = (cm - pm > pq3 - pq1 || pm - cm > pq3 - pq1)
            verdict = "unresolved"
            if (apart && wins >= 0.9 * n) verdict = "better"
            if (apart && losses >= 0.9 * n) verdict = "worse"
            worse_by = pm == 0 ? 0 : (better[k] == "higher" ? (pm - cm) / pm : (cm - pm) / pm)
            if (worse_by > bound[k]) verdict = verdict " OUT OF BOUND"
            delta = pm == 0 ? 0 : 100 * (cm - pm) / pm
            printf "%-18s %12.6g [%9.6g, %9.6g] %12.6g [%9.6g, %9.6g] %3d/%-2d  %s (%+.1f %%, %s is better, bound %s)\n",
                name[k], pm, pq1, pq3, cm, cq1, cq3, wins, n, verdict, delta, better[k], bound[k]
        }
        if (bad) printf "\n%d run(s) not correct or with failed > 0\n", bad
        exit bad ? 1 : 0
    }'
