//! `pgrid trace replay` over malformed trace files: every numeric field
//! of every record of a small node file and job file is replaced, one
//! at a time, with zero, a negative, NaN, infinity, 1e300 and
//! `u64::MAX`, and an empty node file and an empty job file are
//! replayed. Whatever the files hold, `pgrid` must exit 0 (replayed) or
//! 1 (rejected) — never a panic and never a hang — and a rejected
//! file's error must name the offending field. The cases that once
//! panicked, hung or ran on a NaN coordinate must be rejected.

mod common;

use common::{run, VALUES};
use std::path::Path;
use std::process::ExitStatus;

const NODES: [&str; 3] = [
    "node disk=64 cpu=clock:2,mem:8,cores:4",
    "node disk=128 cpu=clock:3,mem:16,cores:8",
    "node disk=256 cpu=clock:1,mem:4,cores:2",
];

const JOBS: [&str; 2] = [
    "job t=0 id=0 runtime=60 cpu=cores:1",
    "job t=5 id=1 runtime=30 cpu=cores:2",
];

/// Runs that must be rejected, and what the error must say: each
/// panicked, hung or ran on a NaN coordinate before the trace reader
/// and `trace replay` checked for it.
const MUST_REJECT: [(&str, &str); 6] = [
    ("node disk=nan", "trace line"),
    ("node clock:nan", "trace line"),
    ("job disk=nan", "trace line"),
    ("job t=1e300", "trace line"),
    ("job runtime=1e300", "trace line"),
    ("empty job file", "has no jobs"),
];

fn owned(records: &[&str]) -> Vec<String> {
    records.iter().map(|s| s.to_string()).collect()
}

/// Every copy of `records` with one number replaced by `value`, and the
/// field as an error names it: `disk=` for a record field, `cores:`
/// for a CE sub-field.
fn variants(records: &[&str], value: &str) -> Vec<(String, Vec<String>)> {
    let mut out = Vec::new();
    for (r, record) in records.iter().enumerate() {
        for (at, sep) in record.match_indices(['=', ':']) {
            let start = at + 1;
            let end = record[start..]
                .find([',', ' '])
                .map_or(record.len(), |e| start + e);
            // `cpu=clock:2` holds sub-fields, not a number.
            if record[start..end].parse::<f64>().is_err() {
                continue;
            }
            let name = record[..at].rfind([' ', ',', '=']).map_or(0, |i| i + 1);
            let mut copy = owned(records);
            copy[r] = format!("{}{value}{}", &record[..start], &record[end..]);
            out.push((format!("{}{sep}", &record[name..at]), copy));
        }
    }
    out
}

/// `pgrid trace replay` on the two files: the exit status (`None` if it
/// ran out of time) and stderr.
fn replay(nodes: &[String], jobs: &[String], dir: &Path) -> (Option<ExitStatus>, String) {
    let (node_file, job_file) = (dir.join("nodes.trace"), dir.join("jobs.trace"));
    std::fs::write(&node_file, nodes.join("\n")).unwrap();
    std::fs::write(&job_file, jobs.join("\n")).unwrap();
    let files = [node_file, job_file].map(|f| f.display().to_string());
    let args = ["trace", "replay", "--nodes", &files[0], "--jobs", &files[1]];
    let (status, _, stderr) = run(&args.map(str::to_string), dir);
    (status, stderr)
}

#[test]
fn malformed_trace_files_exit_0_or_1_without_a_panic_or_a_hang() {
    let dir = std::env::temp_dir().join(format!("pgrid_trace_sweep_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (nodes, jobs) = (owned(&NODES), owned(&JOBS));
    let (status, stderr) = replay(&nodes, &jobs, &dir);
    assert_eq!(
        status.and_then(|s| s.code()),
        Some(0),
        "base files: {stderr}"
    );

    // (what the run is, node records, job records, what a rejection names)
    let mut cases = vec![
        (
            "empty node file".to_string(),
            Vec::new(),
            jobs.clone(),
            None,
        ),
        ("empty job file".into(), nodes.clone(), Vec::new(), None),
        (
            "job disk=nan".into(),
            nodes.clone(),
            owned(&[JOBS[0], "job t=5 id=1 runtime=30 disk=nan cpu=cores:2"]),
            Some("disk=".to_string()),
        ),
    ];
    for value in VALUES {
        for (field, nodes) in variants(&NODES, value) {
            let case = format!("node {field}{value}");
            cases.push((case, nodes, jobs.clone(), Some(field)));
        }
        for (field, jobs) in variants(&JOBS, value) {
            let case = format!("job {field}{value}");
            cases.push((case, nodes.clone(), jobs, Some(field)));
        }
    }

    // Four numbers in every record.
    assert_eq!(
        cases.len(),
        3 + VALUES.len() * 4 * (NODES.len() + JOBS.len())
    );

    let mut failures = Vec::new();
    for (case, nodes, jobs, names) in cases {
        let (status, stderr) = replay(&nodes, &jobs, &dir);
        let first = stderr.lines().find(|l| !l.is_empty()).unwrap_or("");
        let must = MUST_REJECT
            .iter()
            .find(|(c, _)| *c == case)
            .map(|(_, says)| *says);
        match status.map(|s| s.code()) {
            None => failures.push(format!("{case}: no exit in time")),
            _ if stderr.contains("panicked") => failures.push(format!("{case}: {first}")),
            Some(Some(0)) if must.is_some() => failures.push(format!("{case}: accepted")),
            Some(Some(0)) => {}
            Some(Some(1)) => {
                for says in names.as_deref().into_iter().chain(must) {
                    if !first.contains(says) {
                        failures.push(format!("{case}: the error names no {says}: {first}"));
                    }
                }
            }
            Some(code) => failures.push(format!("{case}: exit {code:?}: {first}")),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
