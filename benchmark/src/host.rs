//! What the host says about this process: memory high-water mark, CPU
//! time, run-queue wait, and the toolchain that built the program.
//! Linux `/proc` only; a value that cannot be read is reported as 0 or
//! `"unknown"`, never guessed.

use crate::json::Json;
use std::process::Command;

fn status_kb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// `VmHWM` of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").map_or(0.0, |kb| kb / 1024.0)
}

/// Seconds this process's main thread has waited on a run queue
/// (`/proc/self/schedstat`, second field). Large values mean another
/// process competed for the core while the benchmark measured.
pub fn runqueue_wait_s() -> f64 {
    std::fs::read_to_string("/proc/self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1)?.parse::<f64>().ok())
        .map_or(0.0, |ns| ns / 1e9)
}

/// User + system CPU seconds of the whole process, shard threads
/// included (`/proc/self/stat` fields 14 and 15, at the kernel's fixed
/// `USER_HZ` of 100).
pub fn cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name may contain spaces; fields are counted after it.
    let Some((_, rest)) = stat.rsplit_once(") ") else {
        return 0.0;
    };
    let ticks: f64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<f64>().ok())
        .sum();
    ticks / 100.0
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// Host facts recorded with every run.
pub fn describe() -> Json {
    Json::obj([
        (
            "nproc",
            Json::Num(pgrid::simcore::shard::host_threads() as f64),
        ),
        ("rustc", Json::Str(command_line("rustc", &["-V"]))),
        // Outside a git checkout (the driver's copy is not one) this
        // reads "unknown".
        (
            "commit",
            Json::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("runqueue_wait_s", Json::Num(runqueue_wait_s())),
        ("cpu_s", Json::Num(cpu_s())),
    ])
}
