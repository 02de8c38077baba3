//! Workload traces: a plain-text, line-oriented format for node
//! populations and timed job streams, so a generated workload can be
//! pinned, diffed, shipped to other tools, and replayed bit-for-bit.
//!
//! Format (one record per line, `#` comments ignored):
//!
//! ```text
//! node disk=512 cpu=clock:2,mem:8,cores:4 gpu0=clock:1,mem:4,cores:448,shared:0
//! job t=12.5 id=0 runtime=3600 disk=128 cpu=cores:1 gpu1=clock:2,cores:240
//! ```
//!
//! Every field is `key=value`; CE sub-fields are `name:value` pairs.
//! Omitted job sub-fields mean "unconstrained", matching the in-memory
//! model.

use pgrid_types::{CeRequirement, CeSpec, CeType, JobId, JobSpec, NodeSpec};
use std::fmt::Write as _;

/// Errors produced when parsing a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceError {
    /// 1-based line number of the offending record.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TraceError {}

fn err(line: usize, message: impl Into<String>) -> TraceError {
    TraceError {
        line,
        message: message.into(),
    }
}

// ---------------------------------------------------------------- writing

fn ce_label(ty: CeType) -> String {
    if ty.is_cpu() {
        "cpu".to_string()
    } else {
        format!("gpu{}", ty.0 - 1)
    }
}

/// Serializes a node population to trace text.
pub fn write_nodes(nodes: &[NodeSpec]) -> String {
    let mut out = String::from("# p2p-ce-grid node population trace\n");
    for n in nodes {
        let _ = write!(out, "node disk={}", n.disk);
        for ce in n.ces() {
            let _ = write!(
                out,
                " {}=clock:{},mem:{},cores:{},shared:{}",
                ce_label(ce.ce_type),
                ce.clock,
                ce.memory,
                ce.cores,
                u8::from(!ce.dedicated)
            );
        }
        out.push('\n');
    }
    out
}

/// Serializes a timed job stream to trace text.
pub fn write_jobs(jobs: &[(f64, JobSpec)]) -> String {
    let mut out = String::from("# p2p-ce-grid job trace\n");
    for (t, j) in jobs {
        let _ = write!(
            out,
            "job t={} id={} runtime={}",
            t, j.id.0, j.nominal_runtime
        );
        if let Some(d) = j.min_disk {
            let _ = write!(out, " disk={d}");
        }
        for r in &j.ce_reqs {
            let mut parts = Vec::new();
            if let Some(c) = r.min_clock {
                parts.push(format!("clock:{c}"));
            }
            if let Some(m) = r.min_memory {
                parts.push(format!("mem:{m}"));
            }
            if let Some(n) = r.min_cores {
                parts.push(format!("cores:{n}"));
            }
            let _ = write!(out, " {}={}", ce_label(r.ce_type), parts.join(","));
        }
        out.push('\n');
    }
    out
}

// ---------------------------------------------------------------- parsing

fn parse_ce_type(label: &str, line: usize) -> Result<CeType, TraceError> {
    if label == "cpu" {
        Ok(CeType::CPU)
    } else if let Some(slot) = label.strip_prefix("gpu") {
        let s: u8 = slot
            .parse()
            .map_err(|_| err(line, format!("bad GPU slot in '{label}'")))?;
        Ok(CeType::gpu(s))
    } else {
        Err(err(line, format!("unknown CE label '{label}'")))
    }
}

/// A record may name each CE once: `NodeSpec::new` / `JobSpec::new`
/// assert it, and a second `cpu=` would otherwise silently win.
fn repeated_ce(label: &str, line: usize) -> TraceError {
    err(
        line,
        format!("CE label '{label}' repeats within the record"),
    )
}

/// The value of field `key=v` as a `T`.
fn value<T: std::str::FromStr>(key: &str, v: &str, line: usize) -> Result<T, TraceError> {
    v.parse()
        .map_err(|_| err(line, format!("bad value in {key}={v}")))
}

/// An amount the simulator computes with: a disk, memory or core count
/// must be finite and >= 0, a clock finite and > 0 (execution time is
/// runtime ÷ clock). `field` names it as the record spells it.
fn amount(x: f64, field: &str, positive: bool, line: usize) -> Result<f64, TraceError> {
    if x.is_finite() && (x > 0.0 || !positive && x == 0.0) {
        Ok(x)
    } else {
        let bound = if positive { "> 0" } else { ">= 0" };
        Err(err(
            line,
            format!("{field}{x} is not a finite value {bound}"),
        ))
    }
}

/// The `name:value` sub-fields of CE `label`'s value `text`.
fn subfields(label: &str, text: &str, line: usize) -> Result<Vec<(String, f64)>, TraceError> {
    if text.is_empty() {
        return Ok(Vec::new());
    }
    text.split(',')
        .map(|kv| {
            let (k, v) = kv
                .split_once(':')
                .ok_or_else(|| err(line, format!("bad sub-field '{kv}'")))?;
            let x: f64 = v
                .parse()
                .map_err(|_| err(line, format!("bad number '{v}' in '{kv}'")))?;
            let x = match k {
                "clock" | "mem" | "cores" => {
                    amount(x, &format!("{label} {k}:"), k == "clock", line)?
                }
                _ => x,
            };
            Ok((k.to_string(), x))
        })
        .collect()
}

/// Parses a node-population trace. A record naming one CE twice, or
/// giving a disk, clock, memory or core count no node could have, is an
/// error, not a panic in `NodeSpec::new` or the grid build.
pub fn read_nodes(text: &str) -> Result<Vec<NodeSpec>, TraceError> {
    let mut nodes = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut fields = line.split_whitespace();
        if fields.next() != Some("node") {
            return Err(err(line_no, "expected 'node' record"));
        }
        let mut disk = None;
        let mut cpu: Option<CeSpec> = None;
        let mut gpus: Vec<CeSpec> = Vec::new();
        for f in fields {
            let (k, v) = f
                .split_once('=')
                .ok_or_else(|| err(line_no, format!("bad field '{f}'")))?;
            if k == "disk" {
                disk = Some(amount(value(k, v, line_no)?, "disk=", false, line_no)?);
                continue;
            }
            let ty = parse_ce_type(k, line_no)?;
            if cpu.iter().chain(&gpus).any(|ce| ce.ce_type == ty) {
                return Err(repeated_ce(k, line_no));
            }
            let subs = subfields(k, v, line_no)?;
            let get = |name: &str| subs.iter().find(|(n, _)| n == name).map(|(_, x)| *x);
            let clock = get("clock").ok_or_else(|| err(line_no, "CE missing clock"))?;
            let mem = get("mem").ok_or_else(|| err(line_no, "CE missing mem"))?;
            let cores = get("cores").ok_or_else(|| err(line_no, "CE missing cores"))? as u32;
            let shared = get("shared").unwrap_or(0.0) != 0.0;
            let spec = CeSpec {
                ce_type: ty,
                clock,
                memory: mem,
                cores,
                dedicated: !ty.is_cpu() && !shared,
            };
            if ty.is_cpu() {
                cpu = Some(spec);
            } else {
                gpus.push(spec);
            }
        }
        let cpu = cpu.ok_or_else(|| err(line_no, "node without CPU"))?;
        let disk = disk.ok_or_else(|| err(line_no, "node without disk"))?;
        nodes.push(NodeSpec::new(cpu, gpus, disk));
    }
    Ok(nodes)
}

/// Parses a job trace. A record the simulator could not run — an id
/// seen before, an arrival time that is negative or not finite, a
/// runtime that is not positive and finite, one CE named twice, a
/// requirement no node could meet for being negative or not finite — is
/// an error here, not a panic in `JobSpec::new`, the grid or the event
/// loop.
pub fn read_jobs(text: &str) -> Result<Vec<(f64, JobSpec)>, TraceError> {
    let mut jobs = Vec::new();
    let mut seen_ids = std::collections::HashSet::new();
    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut fields = line.split_whitespace();
        if fields.next() != Some("job") {
            return Err(err(line_no, "expected 'job' record"));
        }
        let mut t = None;
        let mut id = None;
        let mut runtime = None;
        let mut disk = None;
        let mut reqs: Vec<CeRequirement> = Vec::new();
        for f in fields {
            let (k, v) = f
                .split_once('=')
                .ok_or_else(|| err(line_no, format!("bad field '{f}'")))?;
            match k {
                "t" => t = Some(value::<f64>(k, v, line_no)?),
                "id" => id = Some(value::<u32>(k, v, line_no)?),
                "runtime" => runtime = Some(value::<f64>(k, v, line_no)?),
                "disk" => disk = Some(amount(value(k, v, line_no)?, "disk=", false, line_no)?),
                _ => {
                    let ty = parse_ce_type(k, line_no)?;
                    if reqs.iter().any(|r| r.ce_type == ty) {
                        return Err(repeated_ce(k, line_no));
                    }
                    let subs = subfields(k, v, line_no)?;
                    let get = |name: &str| subs.iter().find(|(n, _)| n == name).map(|(_, x)| *x);
                    reqs.push(CeRequirement {
                        ce_type: ty,
                        min_clock: get("clock"),
                        min_memory: get("mem"),
                        min_cores: get("cores").map(|x| x as u32),
                    });
                }
            }
        }
        let t = t.ok_or_else(|| err(line_no, "job without t"))?;
        let id = id.ok_or_else(|| err(line_no, "job without id"))?;
        let runtime = runtime.ok_or_else(|| err(line_no, "job without runtime"))?;
        if !(t.is_finite() && t >= 0.0) {
            return Err(err(line_no, format!("t={t} is not a finite time >= 0")));
        }
        if !(runtime.is_finite() && runtime > 0.0) {
            return Err(err(
                line_no,
                format!("runtime={runtime} is not a finite duration > 0"),
            ));
        }
        if !seen_ids.insert(id) {
            return Err(err(line_no, format!("id={id} repeats an earlier job's")));
        }
        jobs.push((t, JobSpec::new(JobId(id), reqs, disk, runtime)));
    }
    Ok(jobs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobgen::{JobGenConfig, JobStream};
    use crate::nodegen::{generate_nodes, NodeGenConfig};

    #[test]
    fn nodes_round_trip() {
        let cfg = NodeGenConfig::paper_defaults(2);
        let nodes = generate_nodes(&cfg, 100, 31);
        let text = write_nodes(&nodes);
        let parsed = read_nodes(&text).expect("parse");
        assert_eq!(parsed, nodes);
    }

    #[test]
    fn shared_gpu_flag_round_trips() {
        let cfg = NodeGenConfig::dense(1).with_shared_gpus();
        let nodes = generate_nodes(&cfg, 10, 32);
        let parsed = read_nodes(&write_nodes(&nodes)).expect("parse");
        assert_eq!(parsed, nodes);
        assert!(parsed.iter().all(|n| !n.ces()[1].dedicated));
    }

    #[test]
    fn jobs_round_trip() {
        let mut stream = JobStream::new(JobGenConfig::paper_defaults(2, 0.6, 3.0), 33);
        let jobs = stream.take_jobs(200);
        let text = write_jobs(&jobs);
        let parsed = read_jobs(&text).expect("parse");
        assert_eq!(parsed, jobs);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "# hello\n\n  \nnode disk=10 cpu=clock:1,mem:2,cores:4\n";
        let nodes = read_nodes(text).expect("parse");
        assert_eq!(nodes.len(), 1);
        assert_eq!(nodes[0].cpu().cores, 4);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let bad = "# c\nnode disk=10 cpu=clock:1,mem:2\n";
        let e = read_nodes(bad).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("cores"));

        let bad_jobs = "job t=1 id=0\n";
        let e = read_jobs(bad_jobs).unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("runtime"));
    }

    #[test]
    fn unrunnable_job_records_are_errors_on_their_line() {
        let good = "job t=1 id=0 runtime=60\n";
        for (bad, what) in [
            ("job t=2 id=0 runtime=60\n", "id=0"),
            ("job t=NaN id=1 runtime=60\n", "t=NaN"),
            ("job t=inf id=1 runtime=60\n", "t=inf"),
            ("job t=-4 id=1 runtime=60\n", "t=-4"),
            ("job t=2 id=1 runtime=-50\n", "runtime=-50"),
            ("job t=2 id=1 runtime=0\n", "runtime=0"),
            ("job t=2 id=1 runtime=NaN\n", "runtime=NaN"),
        ] {
            let e = read_jobs(&format!("{good}{bad}")).unwrap_err();
            assert_eq!(e.line, 2, "{bad}");
            assert!(e.message.contains(what), "{bad}: {}", e.message);
        }
    }

    #[test]
    fn amounts_that_are_not_finite_or_are_negative_name_their_field() {
        for (bad, what) in [
            ("node disk=NaN cpu=clock:1,mem:2,cores:4", "disk=NaN"),
            ("node disk=10 cpu=clock:0,mem:2,cores:4", "cpu clock:0"),
            ("node disk=10 cpu=clock:1,mem:-2,cores:4", "cpu mem:-2"),
            ("job t=0 id=0 runtime=60 gpu0=cores:inf", "gpu0 cores:inf"),
        ] {
            let e = match bad.starts_with("node") {
                true => read_nodes(bad).unwrap_err(),
                false => read_jobs(bad).unwrap_err(),
            };
            assert!(e.message.contains(what), "{bad}: {}", e.message);
        }
        assert!(read_nodes("node disk=0 cpu=clock:1,mem:0,cores:0").is_ok());
    }

    #[test]
    fn unknown_ce_label_rejected() {
        let e = read_nodes("node disk=1 tpu0=clock:1,mem:1,cores:1\n").unwrap_err();
        assert!(e.message.contains("unknown CE label"));
    }

    #[test]
    fn unconstrained_job_fields_stay_unconstrained() {
        let text = "job t=0 id=7 runtime=60 cpu=cores:2\n";
        let jobs = read_jobs(text).expect("parse");
        let j = &jobs[0].1;
        assert_eq!(j.id, JobId(7));
        assert!(j.min_disk.is_none());
        let r = j.req(CeType::CPU).unwrap();
        assert_eq!(r.min_cores, Some(2));
        assert!(r.min_clock.is_none() && r.min_memory.is_none());
    }
}
