//! The repo benchmark. See `benchmark/README.md`.
//!
//! ```text
//! pgrid-benchmark --workload W --seed N --seconds S --trace 0|1   one workload, one process
//! pgrid-benchmark [--seed N] [--seconds S] [--trace 0|1]          every workload, one child each
//! pgrid-benchmark --selftest | --compare A.json B.json | --contract
//! ```

mod compare;
mod dst;
mod fig5;
mod fig7;
mod host;
mod json;
mod layers;
mod probes;
mod selftest;
mod sim;
mod stats;
mod trace;

use json::Json;
use layers::{END_TO_END, PER_LAYER};
use sim::{run_rep, Sim};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;
use trace::Tracer;

/// Seconds one run measures when `--seconds` is not given; also
/// `run_seconds` of `BENCHMARK.json`.
const RUN_SECONDS: u64 = 10;
const DEFAULT_SEED: u64 = 2011;
/// A run never reports a median of fewer repetitions than this.
const MIN_REPS: usize = 3;
const MAX_REPS: usize = 64;
/// Size of `fig5_scale`.
const SCALE_NODES: usize = 32_768;
const SCALE_JOBS: usize = 3_000;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "fig5_paper",
        why: "Figure 5 at paper scale, 9 sims: the push/stop matchmaking walk does the work, construction is negligible",
    },
    Workload {
        name: "fig5_scale",
        why: "n=32768, 3000 jobs: grid construction dominates and place is almost pure routing; the only large setup_s and peak_rss_mb",
    },
    Workload {
        name: "fig5_sharded",
        why: "n=8192 on 2 zone shards: the only workload that enters simcore::shard and the threaded aggregate refresh",
    },
    Workload {
        name: "fig5_stress",
        why: "3x arrivals into bounded queues under crashes and eviction: the write-heavy side of the indices place reads",
    },
    Workload {
        name: "fig7_churn",
        why: "Figures 7/8 at paper scale, 3 schemes: the CAN heartbeat plane on the ideal-network fast path, no sched code",
    },
    Workload {
        name: "dst_armed",
        why: "9 adversarial scenarios x 3 schemes on 256 nodes: faulted network path, detector, replication and every oracle",
    },
];

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    /// Ad-hoc size of `fig5_scale`; never written to `BENCHMARK.json`.
    nodes: usize,
    jobs: usize,
    mode: Mode,
}

enum Mode {
    Run,
    Selftest,
    Compare(PathBuf, PathBuf),
    Contract,
}

fn usage() -> String {
    format!(
        "usage: pgrid-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
         [--out DIR] [--nodes N --jobs J]\n       pgrid-benchmark --selftest | --compare A.json B.json \
         | --contract\nworkloads: {}",
        WORKLOADS.map(|w| w.name).join(" ")
    )
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: false,
        out: PathBuf::from("benchmark/out"),
        nodes: SCALE_NODES,
        jobs: SCALE_JOBS,
        mode: Mode::Run,
    };
    fn value<T: std::str::FromStr>(
        flag: &str,
        argv: &mut impl Iterator<Item = String>,
    ) -> Result<T, String> {
        let v = argv.next().ok_or(format!("{flag} needs a value"))?;
        v.parse().map_err(|_| format!("{flag}: bad value `{v}`"))
    }
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--workload" => {
                let name: String = value(&flag, &mut argv)?;
                if !WORKLOADS.iter().any(|w| w.name == name) {
                    return Err(format!("unknown workload `{name}`"));
                }
                args.workload = Some(name);
            }
            "--seed" => args.seed = value(&flag, &mut argv)?,
            "--seconds" => {
                args.seconds = value(&flag, &mut argv)?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value::<u8>(&flag, &mut argv)? {
                    0 => false,
                    1 => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--out" => args.out = PathBuf::from(value::<String>(&flag, &mut argv)?),
            "--nodes" => {
                args.nodes = value(&flag, &mut argv)?;
                if !(2..=2_000_000).contains(&args.nodes) {
                    return Err("--nodes must be in 2..=2000000".into());
                }
            }
            "--jobs" => {
                args.jobs = value(&flag, &mut argv)?;
                if !(1..=10_000_000).contains(&args.jobs) {
                    return Err("--jobs must be in 1..=10000000".into());
                }
            }
            "--selftest" => args.mode = Mode::Selftest,
            "--contract" => args.mode = Mode::Contract,
            "--compare" => {
                let a = value::<String>(&flag, &mut argv)?;
                let b = value::<String>(&flag, &mut argv)?;
                args.mode = Mode::Compare(a.into(), b.into());
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let resized = (args.nodes, args.jobs) != (SCALE_NODES, SCALE_JOBS);
    if resized && args.workload.as_deref() != Some("fig5_scale") {
        return Err("--nodes and --jobs resize `--workload fig5_scale` only".into());
    }
    Ok(args)
}

/// `BENCHMARK.json`, from the registry.
pub fn contract() -> Json {
    Json::obj([
        (
            "command",
            Json::Arr(vec![Json::str("bash"), Json::str("benchmark/run.sh")]),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|e| {
                        Json::obj([
                            ("name", Json::str(e.name)),
                            ("unit", Json::str(e.unit)),
                            ("better", Json::str(e.better)),
                            ("bound", Json::Num(e.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|l| {
                        Json::obj([
                            ("name", Json::str(l.name)),
                            ("unit", Json::str(l.unit)),
                            ("better", Json::str(l.better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn metric(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
}

/// The contract's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
fn result_line(correct: bool, attempted: u64, failed: u64, metrics: Vec<(String, Json)>) -> String {
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted.max(1) as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
    .compact()
}

fn write_file(path: &Path, text: &str) {
    std::fs::write(path, text).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
}

/// The untraced pass of one workload: repetitions until at least
/// `MIN_REPS` are done and they have measured for `seconds`; every
/// timing is the median over repetitions.
fn measure<S: Sim>(name: &str, sims: &[S], args: &Args) -> ExitCode {
    let units: u64 = sims.iter().map(Sim::units).sum();
    let off = Tracer::off();
    let mut reps = Vec::new();
    let started = Instant::now();
    // High-water mark of one repetition on a fresh heap. Later
    // repetitions land on whatever the allocator kept of earlier ones,
    // which moved `VmHWM` by a fifth from one run to the next.
    let mut peak_rss_mb = 0.0;
    while reps.len() < MIN_REPS
        || (started.elapsed().as_secs_f64() < args.seconds && reps.len() < MAX_REPS)
    {
        reps.push(run_rep(sims, &off, false));
        if reps.len() == 1 {
            peak_rss_mb = host::peak_rss_mb();
        }
    }
    let setup: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    let run: Vec<f64> = reps.iter().map(|r| r.run_s).collect();
    let rate: Vec<f64> = reps
        .iter()
        .map(|r| units as f64 / (r.setup_s + r.run_s))
        .collect();

    let digest = reps[0].out.sim_digest();
    let mut failed: u64 = reps.iter().map(|r| r.out.failed_ops).sum();
    let mut failures: Vec<String> = reps.iter().flat_map(|r| r.out.failures.clone()).collect();
    for (i, r) in reps.iter().enumerate().skip(1) {
        if r.out.sim_digest() != digest {
            failed += 1;
            failures.push(format!(
                "repetition {i}: sim_digest {:#018x} differs from repetition 0's {digest:#018x}",
                r.out.sim_digest()
            ));
        }
    }
    let correct = failed == 0;
    let attempted = units * reps.len() as u64;

    let values = [
        stats::median(&setup),
        stats::median(&run),
        stats::median(&rate),
        peak_rss_mb,
    ];
    let samples = [&setup[..], &run[..], &rate[..], &[peak_rss_mb][..]];
    println!(
        "workload {name}  seed {}  reps {}  sim_digest {digest:#018x}",
        args.seed,
        reps.len()
    );
    for ((e, v), xs) in END_TO_END.iter().zip(values).zip(samples) {
        println!(
            "  {:<12} {v:>14.4} {:<8} over {} samples",
            e.name,
            e.unit,
            xs.len()
        );
    }
    for why in &failures {
        println!("  FAILED: {why}");
    }

    let detail = Json::obj([
        ("workload", Json::str(name)),
        ("seed", Json::Num(args.seed as f64)),
        ("reps", Json::Num(reps.len() as f64)),
        ("units_per_rep", Json::Num(units as f64)),
        ("ops", Json::Num(attempted as f64)),
        ("failed_ops", Json::Num(failed as f64)),
        (
            "failures",
            Json::Arr(failures.iter().map(Json::str).collect()),
        ),
        ("sim_digest", Json::Str(format!("{digest:#018x}"))),
        (
            "metrics",
            Json::Obj(
                END_TO_END
                    .iter()
                    .zip(values)
                    .zip(samples)
                    .map(|((e, v), xs)| {
                        (
                            e.name.to_string(),
                            Json::obj([
                                ("value", Json::Num(v)),
                                ("unit", Json::str(e.unit)),
                                ("samples", Json::nums(xs)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
        ("host", host::describe()),
    ]);
    write_file(&args.out.join(format!("run_{name}.json")), &detail.pretty());

    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(e, v)| (e.name.to_string(), metric(v, e.unit)))
        .collect();
    println!("{}", result_line(correct, attempted, failed, metrics));
    ExitCode::SUCCESS
}

/// The traced pass of one workload: a traced repetition with probes
/// between two untraced ones. The per-layer metrics come from the traced
/// one; its run time over the untraced ones' is the tracing overhead.
fn traced<S: Sim>(name: &str, sims: &[S], args: &Args) -> ExitCode {
    let units: u64 = sims.iter().map(Sim::units).sum();
    let plain = run_rep(sims, &Tracer::off(), false);
    let tracer = Tracer::recording();
    let mut rep = run_rep(sims, &tracer, true);
    let spans = tracer.into_spans();
    // Untraced repetitions on both sides of the traced one: their mean
    // cancels whatever drifts over the process's life (the first
    // repetition runs on a cold heap).
    let plain_after = run_rep(sims, &Tracer::off(), false);
    let plain_run_s = (plain.run_s + plain_after.run_s) / 2.0;

    if rep.out.sim_digest() != plain.out.sim_digest() {
        rep.out.fail(
            1,
            format!(
                "traced sim_digest {:#018x} differs from untraced {:#018x}",
                rep.out.sim_digest(),
                plain.out.sim_digest()
            ),
        );
    }
    let gap = trace::accounting_gap(&spans);
    if gap > 0.02 {
        rep.out.fail(
            1,
            format!(
                "span accounting: self times miss a root's duration by {:.1} %",
                gap * 100.0
            ),
        );
    }
    if plain_after.out.sim_digest() != plain.out.sim_digest() {
        rep.out.fail(
            1,
            "two untraced repetitions disagree on sim_digest".to_string(),
        );
    }
    let failed = rep.out.failed_ops + plain.out.failed_ops + plain_after.out.failed_ops;

    let mut m = layers::per_layer(&spans, &rep.out);
    // Consecutive repetitions of identical work differ by several per
    // cent on a shared host, more than tracing costs, so the measured
    // ratio is printed but the metric is the spans recorded inside runs
    // times what one span costs.
    let in_run = trace::under(&spans, "run");
    let run_spans = in_run.iter().filter(|inside| **inside).count();
    let overhead_s = run_spans as f64 * trace::span_cost_s();
    m.set("trace.overhead_share", overhead_s / plain_run_s);
    let measured_ratio = rep.run_s / plain_run_s;
    m.set("host.cpu_s", host::cpu_s());
    m.set("host.runqueue_wait_s", host::runqueue_wait_s());

    let trace_path = args.out.join(format!("trace_{name}.jsonl"));
    trace::write_jsonl(&spans, &trace_path)
        .unwrap_or_else(|e| panic!("write {}: {e}", trace_path.display()));

    println!(
        "workload {name}  seed {}  traced: setup {:.3} s, run {:.3} s = {measured_ratio:.3} x the \
         untraced {plain_run_s:.3} s; {run_spans} spans in runs cost {overhead_s:.4} s",
        args.seed, rep.setup_s, rep.run_s,
    );
    println!("  self time by layer:");
    let mut rows: Vec<_> = trace::totals_by_name(&spans, |_| true)
        .into_iter()
        .collect();
    rows.sort_by_key(|row| std::cmp::Reverse(row.1.self_ns));
    println!(
        "    {:<40} {:>9} {:>11} {:>11}",
        "span", "calls", "total s", "self s"
    );
    for (span, t) in &rows {
        println!(
            "    {span:<40} {:>9} {:>11.4} {:>11.4}",
            t.calls,
            t.total_ns as f64 / 1e9,
            t.self_ns as f64 / 1e9
        );
    }
    // Percentiles carry their sample count; a tail the sample count
    // cannot support is replaced by the highest percentile it can.
    println!("  per-call timings:");
    for span in [
        "sched.matchmakers.place",
        "sched.aggregate.refresh",
        "sched.aggregate.refresh_threaded",
        "can.protocol.advance_to",
        "core.fuzz.run_case",
        "can.dst.run_schedule",
    ] {
        if let Some(p) = stats::Percentiles::of(&trace::durations(&spans, span, |_| true)) {
            let tail = match p.tail {
                Some((pct, v)) if pct > 50.0 => format!(", p{pct} {:.1} us", v / 1e3),
                _ => String::new(),
            };
            println!(
                "    {span:<40} p50 {:.1} us{tail} (n={})",
                p.p50 / 1e3,
                p.samples
            );
        }
    }
    println!("  per-layer metrics (non-zero):");
    for l in PER_LAYER {
        let v = m.get(l.name);
        if v != 0.0 {
            println!("    {:<44} {v:>16.6} {}", l.name, l.unit);
        }
    }
    for why in rep
        .out
        .failures
        .iter()
        .chain(&plain.out.failures)
        .chain(&plain_after.out.failures)
    {
        println!("  FAILED: {why}");
    }

    let layer_json: Vec<(String, Json)> = PER_LAYER
        .iter()
        .map(|l| (l.name.to_string(), metric(m.get(l.name), l.unit)))
        .collect();
    let detail = Json::obj([
        ("workload", Json::str(name)),
        ("seed", Json::Num(args.seed as f64)),
        (
            "sim_digest",
            Json::Str(format!("{:#018x}", rep.out.sim_digest())),
        ),
        ("failed_ops", Json::Num(failed as f64)),
        ("traced_setup_s", Json::Num(rep.setup_s)),
        ("traced_run_s", Json::Num(rep.run_s)),
        ("untraced_run_s", Json::Num(plain_run_s)),
        ("traced_over_untraced_run", Json::Num(measured_ratio)),
        ("accounting_gap", Json::Num(gap)),
        ("metrics", Json::Obj(layer_json.clone())),
        ("host", host::describe()),
    ]);
    write_file(
        &args.out.join(format!("layers_{name}.json")),
        &detail.pretty(),
    );
    println!(
        "{}",
        result_line(failed == 0, units * 3, failed, layer_json)
    );
    ExitCode::SUCCESS
}

fn run_workload(name: &str, args: &Args) -> ExitCode {
    fn go<S: Sim>(name: &str, sims: Vec<S>, args: &Args) -> ExitCode {
        if args.trace {
            traced(name, &sims, args)
        } else {
            measure(name, &sims, args)
        }
    }
    match name {
        "fig5_paper" => go(name, fig5::paper(args.seed, 1), args),
        "fig5_scale" => go(name, fig5::scale(args.seed, args.nodes, args.jobs), args),
        "fig5_sharded" => go(name, fig5::sharded(args.seed, 1), args),
        "fig5_stress" => go(name, fig5::stress(args.seed, 1), args),
        "fig7_churn" => go(name, fig7::churn(args.seed, 1), args),
        "dst_armed" => go(name, dst::armed(args.seed, dst::FULL), args),
        _ => unreachable!("workload names are checked when parsed"),
    }
}

/// Runs every workload in a child process of its own, so that
/// `peak_rss_mb` is the workload's and not the set's, and merges the
/// children's records into `results.json` (or `layers.json`).
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("path of this program");
    let started = Instant::now();
    let mut all_correct = true;
    let mut records = Vec::new();
    for w in &WORKLOADS {
        let status = Command::new(&exe)
            .args(["--workload", w.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&args.out)
            .status()
            .expect("spawn a workload child");
        let kind = if args.trace { "layers" } else { "run" };
        let path = args.out.join(format!("{kind}_{}.json", w.name));
        let record = std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|text| Json::parse(&text));
        match record {
            Ok(record) if status.success() => {
                all_correct &= record.get("failed_ops").and_then(Json::as_f64) == Some(0.0);
                records.push((w.name.to_string(), record));
            }
            _ => {
                eprintln!("workload {} did not finish ({status})", w.name);
                all_correct = false;
            }
        }
        println!();
    }
    let merged = Json::obj([
        ("seed", Json::Num(args.seed as f64)),
        ("traced", Json::Bool(args.trace)),
        ("wall_s", Json::Num(started.elapsed().as_secs_f64())),
        ("workloads", Json::Obj(records)),
    ]);
    let file = if args.trace {
        "layers.json"
    } else {
        "results.json"
    };
    write_file(&args.out.join(file), &merged.pretty());
    println!(
        "{} workloads in {:.0} s, {}; wrote {}",
        WORKLOADS.len(),
        started.elapsed().as_secs_f64(),
        if all_correct {
            "all outputs correct"
        } else {
            "SOME OUTPUTS WRONG"
        },
        args.out.join(file).display()
    );
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if matches!(args.mode, Mode::Run) {
        std::fs::create_dir_all(&args.out)
            .unwrap_or_else(|e| panic!("create {}: {e}", args.out.display()));
    }
    match &args.mode {
        Mode::Contract => {
            print!("{}", contract().pretty());
            ExitCode::SUCCESS
        }
        Mode::Selftest => selftest::run(),
        Mode::Compare(a, b) => compare::run(a, b),
        Mode::Run => match &args.workload {
            Some(name) => run_workload(name, &args),
            None => run_all(&args),
        },
    }
}
