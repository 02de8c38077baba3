//! What the two sweeps share: the edge values, and one `pgrid` run with
//! a time limit.

use std::path::Path;
use std::process::{Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

/// The values every swept number is given: zero, negative, NaN,
/// infinity, 1e300 and `u64::MAX`.
pub const VALUES: [&str; 6] = ["0", "-1", "nan", "inf", "1e300", "18446744073709551615"];

/// Wall-clock cap on one run; the slowest accepted run of either sweep
/// takes a fraction of a second in a debug build.
const RUN_LIMIT: Duration = Duration::from_secs(60);

/// Runs `pgrid args` with its output into files under `dir`: the exit
/// status (`None` past [`RUN_LIMIT`]), stdout and stderr.
pub fn run(args: &[String], dir: &Path) -> (Option<ExitStatus>, String, String) {
    let file = |name| std::fs::File::create(dir.join(name)).expect("output file");
    let mut child = Command::new(env!("CARGO_BIN_EXE_pgrid"))
        .args(args)
        .stdin(Stdio::null())
        .stdout(file("stdout.txt"))
        .stderr(file("stderr.txt"))
        .spawn()
        .expect("spawn pgrid");
    let read = |name| std::fs::read_to_string(dir.join(name)).unwrap_or_default();
    let started = Instant::now();
    let mut in_time = true;
    while child.try_wait().expect("wait on pgrid").is_none() {
        if started.elapsed() > RUN_LIMIT {
            let _ = child.kill();
            in_time = false;
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let status = child.wait().expect("wait on pgrid");
    (
        in_time.then_some(status),
        read("stdout.txt"),
        read("stderr.txt"),
    )
}
