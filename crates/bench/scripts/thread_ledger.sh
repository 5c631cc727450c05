#!/bin/sh
# Whole-run per-thread CPU and context-switch ledger of a process, from
# /proc/<pid>/task/*/{stat,status} sampled every 50 ms until the process
# exits. Each thread's last reading is its total, so a thread that starts or
# exits mid-run is on the ledger too, short of at most its final 50 ms. It
# needs nothing from the program, so it can be taken on any commit.
#
#   esa_bench --workload serve_saturate --seconds 10 --trace 0 &
#   crates/bench/scripts/thread_ledger.sh $!
#
# Columns: thread id and name, user and system ticks (of `getconf CLK_TCK`
# per second), voluntary and involuntary context switches; the last line sums
# every thread.
pid=${1:?usage: thread_ledger.sh <pid>}
alive() {
    read -r stat 2>/dev/null < /proc/"$pid"/stat || return 1
    case ${stat##*) } in Z* | X*) return 1 ;; esac
}
while alive; do
    # One awk per sample reads every thread's two files; a thread that exits
    # between the glob and the read is left at its previous sample.
    awk '
        { n = split(FILENAME, path, "/"); tid = path[5] }
        path[n] == "stat" {
            # The name is parenthesised and may hold spaces; utime and stime
            # are fields 14 and 15, the 12th and 13th after the name.
            name = $0; sub(/^[^(]*[(]/, "", name); sub(/[)] [^)]*$/, "", name); gsub(/ /, "_", name)
            rest = $0; sub(/.*[)] /, "", rest); split(rest, f, " ")
            comm[tid] = name; user[tid] = f[12]; sys[tid] = f[13]
        }
        path[n] == "status" && $1 == "voluntary_ctxt_switches:" { vol[tid] = $2 }
        path[n] == "status" && $1 == "nonvoluntary_ctxt_switches:" { invol[tid] = $2 }
        END { for (t in comm) if (t in invol) print t, comm[t], user[t], sys[t], vol[t], invol[t] }
    ' /proc/"$pid"/task/*/stat /proc/"$pid"/task/*/status 2>/dev/null
    sleep 0.05
done | awk '{ last[$1] = $0 } END { for (t in last) print last[t] }' | sort -k2,2 -k1,1n |
    awk -v hz="$(getconf CLK_TCK)" '
        BEGIN { printf "%-8s %-22s %8s %8s %10s %10s   (ticks of 1/%d s)\n", "tid", "thread", "user", "sys", "vol_cs", "invol_cs", hz }
        { printf "%-8s %-22s %8d %8d %10d %10d\n", $1, $2, $3, $4, $5, $6; u += $3; s += $4; v += $5; n += $6 }
        END { printf "%-8s %-22s %8d %8d %10d %10d\n", "", "all " NR " threads", u, s, v, n }'
