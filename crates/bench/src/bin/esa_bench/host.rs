//! What the host charges the process: cores, CPU time, peak memory.
//!
//! Read from `/proc/self` (the workspace has no libc binding); a host
//! without procfs reports zero CPU and memory rather than failing the run.

/// Linux reports process times in clock ticks of 1/100 s on every
/// architecture this workspace builds for (`getconf CLK_TCK`).
const TICKS_PER_SECOND: f64 = 100.0;

/// Cap on the threads the generator and the pipeline each use: beyond four
/// the in-process generator would stop being able to saturate the server.
const MAX_CORES: usize = 4;

/// Hardware threads available to this process, as the scheduler reports it.
pub fn available_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The thread budget every workload sizes itself with.
pub fn cores() -> usize {
    available_cores().min(MAX_CORES)
}

/// User + system CPU seconds consumed by the whole process so far,
/// including threads that have already exited.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis. utime and stime are fields 14 and 15.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let mut ticks = || fields.next().and_then(|f| f.parse::<f64>().ok());
    match (ticks(), ticks()) {
        (Some(user), Some(system)) => (user + system) / TICKS_PER_SECOND,
        _ => 0.0,
    }
}

/// Resets the peak resident set size to the current one, so each workload
/// of one process reports its own peak and not the largest so far. (Memory
/// the allocator kept from an earlier workload still counts as resident.)
/// Where the kernel refuses, the peak stays process-wide.
pub fn reset_peak_rss() {
    // `5` is the value that clears the high-water mark; see proc(5).
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size (`VmHWM`) in MiB since the last reset.
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
