#!/bin/sh
# How a workload's peak RSS grows with the reports it counts: runs
# esa_bench at --seconds 3 and at --seconds 10 and prints both peak_rss_mb
# readings, both counted-report totals, and the growth between them in MiB
# per 100 k counted reports. Memory a run retains per report shows here as a
# slope; memory it needs once (setup, buffers, one epoch in flight) cancels.
#
#   crates/bench/scripts/rss_slope.sh live_saturate [--seed 101]
#
# Extra arguments go to esa_bench. ESA_BENCH=<path> runs that binary (for
# example another commit's build) instead of building this checkout's.
workload=${1:?usage: rss_slope.sh <workload> [esa_bench args...]}
shift
run() {
    if [ -n "$ESA_BENCH" ]; then
        "$ESA_BENCH" --workload "$workload" --seconds "$@"
    else
        cargo run -q --release -p prochlo-bench --bin esa_bench -- --workload "$workload" --seconds "$@"
    fi
}
# Prints "<counted> <peak_rss_mb>" from one run's output.
reading() {
    awk '/ counted / { for (i = 1; i < NF; i++) if ($i == "counted") c = $(i + 1) }
         /^[{]/ { sub(/.*"peak_rss_mb": [{]"value": /, ""); sub(/,.*/, ""); r = $0 }
         END { if (c == "" || r == "") exit 1; print c, r }'
}
short=$(run 3 "$@" | reading) || { echo "rss_slope: the 3 s run printed no reading" >&2; exit 1; }
long=$(run 10 "$@" | reading) || { echo "rss_slope: the 10 s run printed no reading" >&2; exit 1; }
echo "$short $long" | awk -v w="$workload" '{
    printf "%s  3 s: %d counted, %.1f MiB   10 s: %d counted, %.1f MiB\n", w, $1, $2, $3, $4
    if ($3 > $1) printf "growth: %.2f MiB per 100 k counted reports\n", ($4 - $2) / ($3 - $1) * 100000
    else print "growth: undefined (the 10 s run counted no more reports)"
}'
