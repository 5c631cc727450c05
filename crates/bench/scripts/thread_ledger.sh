#!/bin/sh
# Per-thread CPU and context-switch ledger of a running process, from
# /proc/<pid>/task/*/{stat,status}: what each thread did in a window, per
# second. It needs nothing from the program, so it can be taken on any
# commit — the attribution behind PR 21's wake-at-target claim.
#
#   esa_bench --workload serve_saturate --seconds 10 --trace 0 &
#   sleep 3; crates/bench/scripts/thread_ledger.sh "$(pgrep -n esa_bench)" 2
#
# Columns: thread name, user and system ticks/s (of `getconf CLK_TCK` per
# core), voluntary and involuntary context switches/s.
pid=${1:?usage: thread_ledger.sh <pid> [seconds]} secs=${2:-2}
sample() {
    for task in /proc/"$pid"/task/*; do
        # stat: the name is parenthesised and may hold spaces; utime and stime are fields 14 and 15.
        stat=$(cat "$task/stat" 2>/dev/null) || continue
        rest=${stat##*) }; set -- $rest
        echo "${task##*/} $(tr " " "_" < "$task/comm") ${12} ${13} $(awk '/^voluntary_ctxt/ {v=$2} /^nonvoluntary_ctxt/ {n=$2} END {print v, n}' "$task/status")"
    done
}
before=$(sample); sleep "$secs"; after=$(sample)
printf '%-22s %8s %8s %10s %10s\n' thread user/s sys/s vol_cs/s invol_cs/s
{ echo "$before"; echo ---; echo "$after"; } | awk -v s="$secs" '
    $1 == "---" { second = 1; next }
    !second { u[$1] = $3; k[$1] = $4; v[$1] = $5; n[$1] = $6; next }
    ($1 in u) { printf "%-22s %8.1f %8.1f %10.0f %10.0f\n", $2, ($3 - u[$1]) / s, ($4 - k[$1]) / s, ($5 - v[$1]) / s, ($6 - n[$1]) / s }'
