//! Process clocks, memory and the machine stamp, read from `/proc` and
//! from the toolchain. Linux only; a value that cannot be read is
//! reported as such instead of guessed.

use std::process::Command;

/// `/proc` reports CPU times in USER_HZ ticks, which Linux fixes at 100.
const TICKS_PER_SECOND: f64 = 100.0;

/// User + system CPU seconds this process (all its threads, live and
/// finished) has used so far.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("Linux /proc/self/stat");
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let after = &stat[stat.rfind(')').expect("stat has a comm field") + 1..];
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| -> f64 {
        fields[i]
            .parse::<u64>()
            .expect("numeric utime/stime in /proc/self/stat") as f64
    };
    (ticks(11) + ticks(12)) / TICKS_PER_SECOND
}

/// Peak resident set size of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("Linux /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(0, |n| n.get())
}

pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// First line of a command's standard output, or `"unknown"`.
fn first_line(cmd: &mut Command) -> String {
    cmd.output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn rustc_version() -> String {
    first_line(Command::new("rustc").arg("-V"))
}

/// The checked-out commit, or `"unknown"` outside a git repository.
/// The search for `.git` stops at the repository root.
pub fn git_commit() -> String {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark sits inside the repository");
    let ceiling = root.parent().unwrap_or(root);
    first_line(
        Command::new("git")
            .args(["rev-parse", "HEAD"])
            .current_dir(root)
            .env("GIT_CEILING_DIRECTORIES", ceiling),
    )
}
