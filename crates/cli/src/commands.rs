//! The `pgrid` subcommands.

use crate::args::Args;
use crate::{figures, report, CliError};
use pgrid::can::ConfigError;
use pgrid::prelude::*;
use pgrid::types::DimensionLayout;
use pgrid::workload::trace;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// `pgrid help`
pub fn help() -> String {
    let figures = figure_list(8);
    format!(
        "\
pgrid — P2P computing-element-heterogeneous grid simulator
(reproduction of Lee/Keleher/Sussman, IEEE CLUSTER 2011)

USAGE:
  pgrid simulate [--nodes N] [--jobs N] [--dims 5|8|11|14] [--interarrival S]
                 [--ratio R] [--scheduler het|hom|central|all] [--seed S]
                 [--shared-gpus] [--sf SF]
      Run one load-balancing simulation and print wait-time statistics.

  pgrid churn    [--nodes N] [--dims D] [--scheme vanilla|compact|adaptive|all]
                 [--gap S] [--duration S] [--loss P] [--graceful F] [--seed S]
      Run one CAN maintenance simulation under churn and print broken-link
      and message-cost statistics.

  pgrid chaos    [--quick] [--out DIR] [--seed S] [--budget SECS]
                 [--scenario flash-crowd|rolling-partition|lossy-churn|all]
                 [--scheme vanilla|compact|adaptive|all] [--nodes N]
      Run the scripted fault scenarios under every heartbeat scheme, the
      warm-standby takeover sweep and the crash-recovery suite; print the
      resilience tables, write chaos.csv and takeover.csv under DIR, and exit
      non-zero on any invariant violation. --scenario, --scheme and --nodes
      narrow the run to the chaos table; past --budget the crash-recovery
      suite is skipped.

  pgrid scenarios [--quick] [--out DIR] [--seed S] [--scenario NAME] [--list]
      Run the named adversarial scenario library (diurnal waves, flash
      crowds, rack storms, stragglers, gray failures, plus the chaos trio)
      through the DST oracle harness, scheme vs scheme, and write
      scenarios_resilience.csv; --scenario filters by substring (zero
      matches is an error), --list prints the registry.

  pgrid detector [--quick] [--out DIR] [--seed S]
      Sweep asymmetric link stress against process-freeze length, running
      every cell under both the fixed-timeout and the adaptive suspicion
      failure detectors; prints the false-positive / detection-latency
      table, writes detector.csv, and errors if the adaptive rule is ever
      worse or a real failure goes unexpelled or unrevived.

  pgrid fuzz     [--quick] [--out DIR] [--seed S] [--seeds N] [--budget SECS]
  pgrid fuzz     --replay FILE
      Fuzz random fault schedules through the cross-layer invariant oracles
      (CAN zone tiling / neighbor symmetry / take-over / quiescence, scheduler
      job conservation, event-queue monotonicity); --quick selects the smoke
      grammar (16 seeds, 120 s) over the full one (64 seeds, 900 s). On a
      violation the schedule is shrunk to a near-minimal repro and written as
      a replayable trace under DIR; exits non-zero. --replay re-executes a
      saved trace and checks it against its recorded digest.

  pgrid figure   NAME|all [--quick] [--out DIR]
      Regenerate one figure of the paper's evaluation or one extension
      experiment (all: every one in turn); print its tables and write its
      CSV and SVG files under DIR. NAME is one of:
{figures}
  Without --quick the suites and figures above run at paper scale (minutes).

  pgrid trace gen-nodes  [--count N] [--dims D] [--seed S] [--out FILE]
  pgrid trace gen-jobs   [--count N] [--dims D] [--ratio R] [--interarrival S]
                         [--seed S] [--out FILE]
  pgrid trace replay     --nodes FILE --jobs FILE [--scheduler het|hom|central]
                         [--seed S]
      Generate reusable workload traces, or replay saved traces.

  pgrid info
      Print the built-in paper scenario and experiment inventory.
"
    )
}

/// One line per [`figures::REGISTRY`] entry, `indent` spaces in: its
/// name and what it shows.
fn figure_list(indent: usize) -> String {
    figures::REGISTRY
        .iter()
        .map(|f| format!("{:indent$}{:<20} {}\n", "", f.name, f.about))
        .collect()
}

/// `pgrid info`
pub fn info() -> String {
    let s = default_scenario();
    let mut out = String::new();
    let _ = writeln!(out, "paper scenario defaults:");
    let _ = writeln!(out, "  nodes              {}", s.nodes);
    let _ = writeln!(out, "  jobs               {}", s.jobs);
    let _ = writeln!(out, "  CAN dimensions     {}", s.dims);
    let _ = writeln!(out, "  GPU families       {}", s.gpu_slots());
    let _ = writeln!(
        out,
        "  inter-arrival      {} s",
        s.job_gen.mean_interarrival
    );
    let _ = writeln!(out, "  constraint ratio   {}", s.job_gen.constraint_ratio);
    let _ = writeln!(out, "  stopping factor    {}", s.stopping_factor);
    let _ = writeln!(out, "  AI refresh period  {} s", s.ai_refresh_period);
    let _ = writeln!(out, "  seed               {}", s.seed);
    let _ = writeln!(out);
    let _ = writeln!(out, "figures (pgrid figure NAME | all):");
    out.push_str(&figure_list(2));
    let _ = writeln!(
        out,
        "fault suites (pgrid subcommands): chaos scenarios detector fuzz"
    );
    out
}

fn scenario_from(args: &Args) -> Result<LoadBalanceScenario, String> {
    let mut s = default_scenario();
    s.nodes = count_from(args, "nodes", s.nodes)?;
    s.jobs = count_from(args, "jobs", s.jobs)?;
    if s.jobs == 0 {
        return Err("--jobs must be at least 1".into());
    }
    let (dims, slots) = dims_from(args)?;
    if dims != s.dims {
        s.dims = dims;
        s.node_gen = NodeGenConfig::paper_defaults(slots);
        s.job_gen = JobGenConfig::paper_defaults(
            slots,
            s.job_gen.constraint_ratio,
            s.job_gen.mean_interarrival,
        );
    }
    let ia = interarrival_from(args, s.job_gen.mean_interarrival)?;
    // The refresh clock must still move at the expected last arrival,
    // or the run never ends (the rule `--gap` obeys in `pgrid churn`).
    let last = s.jobs as f64 * ia;
    if last + s.ai_refresh_period == last {
        return Err(format!(
            "--interarrival {ia:e} puts the expected last arrival at {last:e} s, \
             where the {} s aggregate refresh no longer moves the clock",
            s.ai_refresh_period
        ));
    }
    s.job_gen.mean_interarrival = ia;
    s.job_gen.constraint_ratio = ratio_from(args, s.job_gen.constraint_ratio)?;
    s.stopping_factor = args.get_or("sf", s.stopping_factor)?;
    // Eq. 4's exponent: a negative one makes the stop probability
    // exceed 1, and `nan` makes a walk never stop.
    if !(s.stopping_factor.is_finite() && s.stopping_factor >= 0.0) {
        return Err(format!(
            "--sf must be non-negative and finite, got {}",
            s.stopping_factor
        ));
    }
    s.seed = args.get_or("seed", s.seed)?;
    if args.switch("shared-gpus") {
        s.node_gen.shared_gpus = true;
    }
    Ok(s)
}

/// A node or job count: ids are `u32`, so at most `u32::MAX`.
fn count_from(args: &Args, flag: &str, default: usize) -> Result<usize, String> {
    let n: usize = args.get_or(flag, default)?;
    if n > u32::MAX as usize {
        return Err(format!(
            "--{flag} must be at most {} (ids are u32), got {n}",
            u32::MAX
        ));
    }
    Ok(n)
}

/// `--dims`, the CAN dimensionality of a paper workload (default 11):
/// five CPU dimensions plus three per GPU family, of which there are
/// zero to three. Returns it with its GPU family count.
fn dims_from(args: &Args) -> Result<(usize, u8), String> {
    let dims: usize = args.get_or("dims", 11)?;
    if dims < 5 || !(dims - 5).is_multiple_of(3) || dims > 14 {
        return Err(format!("--dims must be 5, 8, 11 or 14 (got {dims})"));
    }
    Ok((dims, ((dims - 5) / 3) as u8))
}

/// `--interarrival`, the mean of the exponential arrival gaps: a
/// non-positive or non-finite mean would schedule arrivals into the
/// past or at no time at all.
fn interarrival_from(args: &Args, default: f64) -> Result<f64, String> {
    let ia: f64 = args.get_or("interarrival", default)?;
    if !(ia.is_finite() && ia > 0.0) {
        return Err(format!(
            "--interarrival must be positive and finite, got {ia}"
        ));
    }
    Ok(ia)
}

/// `--ratio`, the share of jobs that carry a constraint: a probability.
fn ratio_from(args: &Args, default: f64) -> Result<f64, String> {
    let ratio: f64 = args.get_or("ratio", default)?;
    if !(0.0..=1.0).contains(&ratio) {
        return Err(format!("--ratio must be in [0,1], got {ratio}"));
    }
    Ok(ratio)
}

fn parse_schedulers(spec: &str) -> Result<Vec<SchedulerChoice>, String> {
    match spec {
        "het" | "can-het" => Ok(vec![SchedulerChoice::CanHet]),
        "hom" | "can-hom" => Ok(vec![SchedulerChoice::CanHom]),
        "central" => Ok(vec![SchedulerChoice::Central]),
        "all" => Ok(SchedulerChoice::ALL.to_vec()),
        other => Err(format!("unknown scheduler '{other}'")),
    }
}

fn render_sim_results(results: &[SimResult]) -> String {
    let mut out = String::new();
    let mut table = Table::new([
        "scheduler",
        "zero-wait(%)",
        "mean wait(s)",
        "p95(s)",
        "p99(s)",
        "busy-CV",
        "pushes/job",
    ]);
    for r in results {
        let cdf = r.cdf();
        table.row([
            r.scheduler.label().to_string(),
            format!("{:.1}", 100.0 * cdf.fraction_zero()),
            format!("{:.1}", r.mean_wait()),
            format!("{:.1}", cdf.quantile(0.95)),
            format!("{:.1}", cdf.quantile(0.99)),
            format!("{:.3}", r.busy_time_cv()),
            format!("{:.2}", r.pushes.mean()),
        ]);
    }
    out.push_str(&table.render());
    out
}

/// `pgrid simulate`
pub fn simulate(args: Args) -> Result<String, CliError> {
    let scenario = scenario_from(&args)?;
    let schedulers = parse_schedulers(args.get("scheduler").unwrap_or("all"))?;
    args.reject_unknown()?;
    let mut out = format!(
        "simulating {} jobs on {} nodes ({}-dim CAN, inter-arrival {}s, ratio {})\n\n",
        scenario.jobs,
        scenario.nodes,
        scenario.dims,
        scenario.job_gen.mean_interarrival,
        scenario.job_gen.constraint_ratio
    );
    let results = schedulers
        .into_iter()
        .map(|c| try_run_load_balance(&scenario, c))
        .collect::<Result<Vec<SimResult>, _>>()?;
    out.push_str(&render_sim_results(&results));
    Ok(out)
}

/// `pgrid churn`
pub fn churn(args: Args) -> Result<String, String> {
    let nodes = count_from(&args, "nodes", 200)?;
    let dims: usize = args.get_or("dims", 11)?;
    let schemes = schemes_from(&args)?;
    let gap: f64 = args.get_or("gap", 10.0)?;
    let duration: f64 = args.get_or("duration", 3600.0)?;
    let loss: f64 = args.get_or("loss", 0.0)?;
    let graceful: f64 = args.get_or("graceful", 0.5)?;
    let seed: u64 = args.get_or("seed", 2011)?;
    args.reject_unknown()?;
    // Values the run cannot survive: a churn clock that never advances
    // or runs backwards, a loop with no end.
    for (flag, secs) in [("--gap", gap), ("--duration", duration)] {
        if !(secs.is_finite() && secs > 0.0) {
            return Err(format!("{flag} must be positive and finite, got {secs}"));
        }
    }
    if !(0.0..=1.0).contains(&graceful) {
        return Err(format!("--graceful must be in [0,1], got {graceful}"));
    }
    let mut cfg = ChurnConfig::new(dims, HeartbeatScheme::Vanilla, nodes);
    cfg.event_gap = gap;
    cfg.stage2_duration = duration;
    cfg.graceful_fraction = graceful;
    cfg.message_loss = loss;
    cfg.seed = seed;
    // The protocol checks the dimensionality and the loss rate.
    cfg.protocol().validate().map_err(|e| match e {
        ConfigError::DimsOutOfRange(_) => format!("--dims: {e}"),
        ConfigError::LossOutOfRange(_) => format!("--loss: {e}"),
        e => e.to_string(),
    })?;
    let end = cfg.stage2_end();
    if end + gap == end {
        return Err(format!(
            "--gap {gap:e} is below the resolution of the churn clock, which --nodes and \
             --duration run to {end} s"
        ));
    }

    let mut out = format!(
        "churn: {nodes} nodes, {dims}-dim CAN, event gap {gap}s, loss {:.0}%, {duration}s\n\n",
        loss * 100.0
    );
    let mut table = Table::new([
        "scheme",
        "steady broken links",
        "msgs/node/min",
        "KB/node/min",
        "mean degree",
    ]);
    for scheme in schemes {
        cfg.scheme = scheme;
        let r = run_churn(&cfg, uniform_coords(dims));
        table.row([
            scheme.label().to_string(),
            format!("{:.1}", r.steady_broken_links()),
            format!("{:.1}", r.msgs_per_node_min),
            format!("{:.1}", r.kb_per_node_min),
            format!("{:.1}", r.mean_degree),
        ]);
    }
    out.push_str(&table.render());
    Ok(out)
}

/// `--scheme`: one heartbeat scheme by label, or `all`.
fn schemes_from(args: &Args) -> Result<Vec<HeartbeatScheme>, String> {
    match args.get("scheme").unwrap_or("all") {
        "all" => Ok(HeartbeatScheme::ALL.to_vec()),
        label => scheme_from_label(label)
            .map(|scheme| vec![scheme])
            .ok_or_else(|| format!("unknown scheme '{label}'")),
    }
}

/// `--quick` selects the reduced smoke-run configuration; without it a
/// suite runs at paper scale.
pub(crate) fn scale_from(args: &Args) -> Scale {
    if args.switch("quick") {
        Scale::Quick
    } else {
        Scale::Paper
    }
}

/// `--out`, the directory CSVs, SVGs and repro traces are written under.
pub(crate) fn out_dir_from(args: &Args) -> PathBuf {
    PathBuf::from(args.get("out").unwrap_or("results"))
}

/// Writes `text` to `file` under `dir`, creating `dir` if missing.
pub(crate) fn save_under(dir: &Path, file: &str, text: &str) -> Result<PathBuf, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(file);
    std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

/// `--budget`, a wall-clock cap in seconds.
fn budget_from(args: &Args) -> Result<Option<f64>, String> {
    let budget: Option<f64> = args.opt("budget")?;
    match budget {
        Some(b) if !(b.is_finite() && b > 0.0) => {
            Err(format!("--budget must be positive and finite, got {b}"))
        }
        _ => Ok(budget),
    }
}

/// `pgrid chaos`: the three scripted fault scenarios for every
/// heartbeat scheme, then the warm-standby takeover sweep, then each
/// scheduler under fail-stop crashes with the job-conservation ledger
/// armed. `--scenario`, `--scheme` and `--nodes` narrow the first table
/// and leave out the other two, which have no such axes. `--seed`
/// replaces both historical seeds (41 and 53); past `--budget` the
/// crash-recovery suite is skipped (the CAN suites and their verdicts
/// always run).
pub fn chaos(args: Args) -> Result<String, CliError> {
    let schemes = schemes_from(&args)?;
    let scenario = args.get("scenario").unwrap_or("all").to_string();
    let nodes: Option<usize> = args.opt("nodes")?;
    let seed: Option<u64> = args.opt("seed")?;
    let budget = budget_from(&args)?;
    let scale = scale_from(&args);
    let out_dir = out_dir_from(&args);
    args.reject_unknown()?;
    let started = Instant::now();

    let mut specs = pgrid::scenarios::chaos_trio();
    if scenario != "all" {
        specs.retain(|s| s.name == scenario);
        if specs.is_empty() {
            return Err(format!(
                "unknown scenario '{scenario}' ({} | all)",
                pgrid::scenarios::CHAOS_TRIO.join(" | ")
            )
            .into());
        }
    }
    let full_matrix = specs.len() == pgrid::scenarios::CHAOS_TRIO.len()
        && schemes.len() == HeartbeatScheme::ALL.len()
        && nodes.is_none();

    let chaos_seed = seed.unwrap_or(experiments::CHAOS_SEED);
    let mut out = format!("chaos: scripted faults, seed {chaos_seed} ({scale:?})\n\n");
    out.push_str("--- CAN maintenance under chaos ---\n");
    let rows = experiments::chaos_rows(&specs, &schemes, scale, chaos_seed, nodes)?;
    let table = report::chaos(&rows);
    let _ = writeln!(out, "{}", table.text);
    let chaos_csv = save_under(&out_dir, "chaos.csv", &table.csv)?;

    let mut cells = Vec::new();
    if full_matrix {
        out.push_str("--- Warm-standby takeover sweep (vanilla vs replicated) ---\n");
        cells = experiments::takeover_suite(scale, seed.unwrap_or(experiments::TAKEOVER_SEED));
        let table = report::takeover(&cells);
        let _ = writeln!(out, "{}", table.text);
        let takeover_csv = save_under(&out_dir, "takeover.csv", &table.csv)?;

        if budget.is_none_or(|b| started.elapsed().as_secs_f64() <= b) {
            out.push_str("--- Crash-safe job recovery (conservation ledger armed) ---\n");
            let recovery = experiments::crash_recovery_suite(scale);
            let _ = writeln!(out, "{}", report::crash_recovery(&recovery));
        } else {
            out.push_str("(crash-recovery suite skipped: wall budget exceeded)\n");
        }
        let _ = writeln!(
            out,
            "CSV written to {} and {}",
            chaos_csv.display(),
            takeover_csv.display()
        );
    } else {
        let _ = writeln!(out, "CSV written to {}", chaos_csv.display());
    }
    report::invariants_verdict(out, experiments::chaos_violations(&rows, &cells))
}

/// `pgrid scenarios`: every registered adversarial scenario (or those
/// `--scenario` matches) per heartbeat scheme and repeat seed through
/// the full DST oracle harness, scheme vs scheme.
pub fn scenarios(args: Args) -> Result<String, CliError> {
    if args.switch("list") {
        args.reject_unknown()?;
        return Ok(pgrid::scenarios::listing());
    }
    let filter = args.get("scenario").unwrap_or("").to_string();
    let seed: u64 = args.get_or("seed", experiments::SCENARIO_SEED)?;
    let scale = scale_from(&args);
    let out_dir = out_dir_from(&args);
    args.reject_unknown()?;
    let specs = pgrid::scenarios::matching(&filter);
    if specs.is_empty() {
        let names: Vec<&str> = pgrid::scenarios::REGISTRY.iter().map(|s| s.name).collect();
        return Err(format!(
            "no scenario matches '{filter}' (known: {})",
            names.join(" | ")
        )
        .into());
    }

    let cells = experiments::scenario_suite_over(scale, seed, &specs);
    let table = report::scenarios(&cells);
    let csv = save_under(&out_dir, "scenarios_resilience.csv", &table.csv)?;
    let out = format!(
        "scenario library: {} scenario(s), seed {seed} ({scale:?})\n\n{}\nCSV written to {}\n",
        specs.len(),
        table.text,
        csv.display()
    );
    report::invariants_verdict(out, experiments::scenario_violations(&cells))
}

/// `pgrid detector`: asymmetric link stress against process-freeze
/// length, every cell under the fixed timeout and under the adaptive
/// suspicion pipeline with indirect probes.
pub fn detector(args: Args) -> Result<String, CliError> {
    let seed: u64 = args.get_or("seed", experiments::DETECTOR_SEED)?;
    let scale = scale_from(&args);
    let out_dir = out_dir_from(&args);
    args.reject_unknown()?;

    let cells = experiments::detector_suite(scale, seed);
    let table = report::detector(&cells);
    let csv = save_under(&out_dir, "detector.csv", &table.csv)?;
    let out = format!(
        "detector sweep: fixed timeout vs adaptive suspicion, seed {seed} ({scale:?})\n\n{}\n\
         CSV written to {}\n",
        table.text,
        csv.display()
    );
    report::detector_verdict(out, experiments::detector_regressions(&cells))
}

/// `pgrid fuzz`: random fault schedules from a seeded grammar (the
/// smoke grammar with `--quick`, the full one without) through every
/// cross-layer oracle; the first violating schedule is delta-debugged
/// to a near-minimal repro and saved as a replayable trace. `--replay`
/// re-executes a saved trace against its recorded digest instead.
/// Deterministic per seed: the wall budget only bounds how many seeds
/// run, never what any one seed does.
pub fn fuzz(args: Args) -> Result<String, CliError> {
    if let Some(path) = args.get("replay").map(str::to_string) {
        args.reject_unknown()?;
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let (schedule, report) = replay_trace(&text).map_err(|e| format!("{path}: {e}"))?;
        let mut out = format!(
            "replayed {path}: seed {}, scheme {}, {} nodes, {} fault events\n  \
             digest 0x{:016x}  broken peak {}\n",
            schedule.seed,
            schedule.scheme,
            schedule.nodes,
            schedule.events.len(),
            report.digest,
            report.broken_peak,
        );
        if let Some(expect) = schedule.expect_digest {
            if expect != report.digest {
                return Err(format!(
                    "digest mismatch: trace expects 0x{expect:016x}, replay produced 0x{:016x}",
                    report.digest
                )
                .into());
            }
            out.push_str("  digest matches the trace's recorded value\n");
        }
        if !report.violations.is_empty() {
            return Err(format!("replay violations:\n  {}", report.violations.join("\n  ")).into());
        }
        out.push_str("invariants: ok\n");
        return Ok(out);
    }

    let scale = scale_from(&args);
    let quick = scale == Scale::Quick;
    let start: u64 = args.get_or("seed", 1)?;
    let seeds: usize = args.get_or("seeds", if quick { 16 } else { 64 })?;
    let budget = budget_from(&args)?.unwrap_or(if quick { 120.0 } else { 900.0 });
    let out_dir = out_dir_from(&args);
    args.reject_unknown()?;
    if seeds == 0 {
        return Err("--seeds must be at least 1".into());
    }
    let Some(last) = start.checked_add(seeds as u64 - 1) else {
        return Err(format!(
            "--seed {start} --seeds {seeds} runs past the last seed, {}",
            u64::MAX
        )
        .into());
    };

    let mut cfg = FuzzConfig::new(start, seeds);
    if !quick {
        cfg.budget = ScheduleBudget::default();
    }
    cfg.wall_budget = budget;
    let started = Instant::now();
    let summary = fuzz_search(&cfg);
    // Throughput of the search itself (shrinking a failure included in
    // the seconds, not in the count). On stderr: stdout is pinned.
    let wall = started.elapsed().as_secs_f64();
    let schedules = summary.runs.len() + usize::from(summary.failure.is_some());
    eprintln!(
        "fuzz: {schedules} schedules in {wall:.2} s ({:.1} schedules/s)",
        schedules as f64 / wall
    );
    let mut out = format!(
        "fuzz: seeds {start}..{} ({scale:?} grammar, {budget:.0} s wall budget)\n\n{}\n",
        u128::from(last) + 1,
        report::fuzz(&summary)
    );
    match summary.failure {
        None => {
            let _ = writeln!(
                out,
                "invariants: ok (zero violations over {} seeds)",
                summary.runs.len()
            );
            Ok(out)
        }
        Some(f) => {
            let file = format!("fuzz_seed{}.trace", f.seed);
            let path = save_under(&out_dir, &file, &f.shrunk.to_text())?;
            Err(CliError {
                stdout: out,
                message: format!(
                    "seed {} violated {} invariant(s); repro trace written to {}\n  {}",
                    f.seed,
                    f.violations.len(),
                    path.display(),
                    f.violations.join("\n  ")
                ),
                status: 1,
            })
        }
    }
}

/// `pgrid trace ...`
pub fn trace(rest: &[String]) -> Result<String, CliError> {
    let Some(sub) = rest.first() else {
        return Err("trace needs a subcommand: gen-nodes | gen-jobs | replay".into());
    };
    let args = Args::parse(&rest[1..])?;
    match sub.as_str() {
        "gen-nodes" => {
            let count = count_from(&args, "count", 100)?;
            let (_, slots) = dims_from(&args)?;
            let seed: u64 = args.get_or("seed", 2011)?;
            let out_path = args.get("out").map(str::to_string);
            args.reject_unknown()?;
            let nodes = generate_nodes(&NodeGenConfig::paper_defaults(slots), count, seed);
            let text = trace::write_nodes(&nodes);
            Ok(emit(text, out_path)?)
        }
        "gen-jobs" => {
            let count = count_from(&args, "count", 1000)?;
            let (_, slots) = dims_from(&args)?;
            let ratio = ratio_from(&args, 0.6)?;
            let ia = interarrival_from(&args, 3.0)?;
            let seed: u64 = args.get_or("seed", 2011)?;
            let out_path = args.get("out").map(str::to_string);
            args.reject_unknown()?;
            let mut stream = JobStream::new(JobGenConfig::paper_defaults(slots, ratio, ia), seed);
            let jobs = stream.take_jobs(count);
            let text = trace::write_jobs(&jobs);
            Ok(emit(text, out_path)?)
        }
        "replay" => {
            let nodes_path = args
                .get("nodes")
                .ok_or("replay needs --nodes FILE")?
                .to_string();
            let jobs_path = args
                .get("jobs")
                .ok_or("replay needs --jobs FILE")?
                .to_string();
            let schedulers = parse_schedulers(args.get("scheduler").unwrap_or("all"))?;
            let seed: u64 = args.get_or("seed", 2011)?;
            args.reject_unknown()?;
            let node_text = std::fs::read_to_string(&nodes_path)
                .map_err(|e| format!("cannot read {nodes_path}: {e}"))?;
            let job_text = std::fs::read_to_string(&jobs_path)
                .map_err(|e| format!("cannot read {jobs_path}: {e}"))?;
            let population = trace::read_nodes(&node_text).map_err(|e| e.to_string())?;
            let jobs = trace::read_jobs(&job_text).map_err(|e| e.to_string())?;
            if jobs.is_empty() {
                return Err(format!("{jobs_path} has no jobs").into());
            }
            check_horizon(&population, &jobs, &job_text)?;
            let results = replay(&population, &jobs, &schedulers, seed)?;
            Ok(format!(
                "replayed {} jobs on {} nodes\n\n{}",
                jobs.len(),
                population.len(),
                render_sim_results(&results)
            ))
        }
        other => Err(format!("unknown trace subcommand '{other}'").into()),
    }
}

fn emit(text: String, out_path: Option<String>) -> Result<String, String> {
    match out_path {
        Some(p) => {
            std::fs::write(&p, &text).map_err(|e| format!("cannot write {p}: {e}"))?;
            Ok(format!("wrote {} bytes to {p}\n", text.len()))
        }
        None => Ok(text),
    }
}

/// Aggregate refresh period of `pgrid trace replay`, seconds.
const REPLAY_REFRESH_PERIOD: f64 = 60.0;

/// Rejects a job trace whose horizon — the last arrival plus Σ runtime
/// ÷ the population's slowest clock — absorbs the refresh period: the
/// refresh clock would stop moving before the run ends, and the run
/// would never end (the rule `--interarrival` obeys in
/// `pgrid simulate`). The error names the line and field of the record
/// that pushes the horizon there; `text` is the trace `jobs` was read
/// from.
fn check_horizon(
    population: &[NodeSpec],
    jobs: &[(f64, JobSpec)],
    text: &str,
) -> Result<(), String> {
    let slowest = population
        .iter()
        .flat_map(|n| n.ces())
        .map(|c| c.clock)
        .fold(f64::INFINITY, f64::min);
    let lines = text.lines().enumerate().filter_map(|(i, l)| {
        let l = l.trim();
        (!l.is_empty() && !l.starts_with('#')).then_some(i + 1)
    });
    let (mut last, mut work) = (0.0f64, 0.0);
    for ((t, job), line) in jobs.iter().zip(lines) {
        last = last.max(*t);
        work += job.nominal_runtime;
        let horizon = last + work / slowest;
        if horizon + REPLAY_REFRESH_PERIOD == horizon {
            let field = if t + REPLAY_REFRESH_PERIOD == *t {
                format!("t={t:e}")
            } else {
                format!("runtime={:e}", job.nominal_runtime)
            };
            return Err(format!(
                "trace line {line}: {field} puts the horizon (last arrival + Σ runtime ÷ \
                 slowest clock {slowest}) at {horizon:e} s, where the \
                 {REPLAY_REFRESH_PERIOD} s aggregate refresh no longer moves the clock"
            ));
        }
    }
    Ok(())
}

/// Replays an explicit (population, jobs) pair through schedulers.
/// Infers the CAN dimensionality from the largest GPU family present.
pub fn replay(
    population: &[NodeSpec],
    jobs: &[(f64, JobSpec)],
    schedulers: &[SchedulerChoice],
    seed: u64,
) -> Result<Vec<SimResult>, CliError> {
    let max_slot = population
        .iter()
        .flat_map(|n| n.ces().iter())
        .filter_map(|c| c.ce_type.gpu_slot())
        .max()
        .map_or(0, |s| s + 1);
    let dims = 5 + 3 * max_slot as usize;
    let layout = DimensionLayout::with_dims(dims);
    // Reject jobs the population can never satisfy up front (clear
    // error instead of a simulation panic).
    for (t, j) in jobs {
        if !population.iter().any(|n| j.satisfied_by(n)) {
            let record = trace::write_jobs(&[(*t, j.clone())]);
            let record = record.lines().last().unwrap_or_default();
            return Err(
                format!("job {} is unsatisfiable by the population: {record}", j.id).into(),
            );
        }
    }
    let mut results = Vec::new();
    for &choice in schedulers {
        let mut grid = StaticGrid::try_build(layout.clone(), population.to_vec(), seed)?;
        let mut matchmaker = pgrid::sched::matchmaker_for(choice, &grid, PushParams::default());
        results.push(pgrid::sched::grid_sim::run_trace(
            &mut grid,
            matchmaker.as_mut(),
            jobs,
            REPLAY_REFRESH_PERIOD,
            seed,
            choice,
        ));
    }
    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(raw: &[&str]) -> Args {
        Args::parse(&raw.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    /// A scratch `--out` directory: the suites write CSVs where they run.
    fn out_dir(test: &str) -> String {
        let dir = std::env::temp_dir().join("pgrid_cli_suites").join(test);
        dir.to_str().unwrap().to_string()
    }

    #[test]
    fn info_mentions_paper_defaults() {
        let s = info();
        assert!(s.contains("1000"));
        assert!(s.contains("20000") || s.contains("20_000") || s.contains("20 000"));
    }

    #[test]
    fn simulate_runs_small() {
        let out = simulate(a(&[
            "--nodes",
            "40",
            "--jobs",
            "150",
            "--interarrival",
            "60",
            "--scheduler",
            "central",
        ]))
        .unwrap();
        assert!(out.contains("central"));
        assert!(out.contains("zero-wait"));
    }

    #[test]
    fn simulate_rejects_bad_dims() {
        let raw = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        // The trace generators take the same check: 17 panicked in the
        // node and job generators, 0 and 7 wrote a 5-dimension trace.
        for bad in ["0", "7", "17"] {
            let err = simulate(a(&["--dims", bad])).unwrap_err();
            assert!(err.message.contains("--dims"), "{}", err.message);
            for gen in ["gen-nodes", "gen-jobs"] {
                let err = trace(&raw(&[gen, "--count", "3", "--dims", bad])).unwrap_err();
                assert!(err.message.contains("--dims"), "{gen}: {}", err.message);
                assert_eq!(err.status, 1);
            }
        }
        assert!(trace(&raw(&["gen-nodes", "--count", "3", "--dims", "14"])).is_ok());
        // Values the run cannot survive: it would panic, not return.
        let err = simulate(a(&["--jobs", "0"])).unwrap_err();
        assert!(err.message.contains("--jobs"), "{}", err.message);
        for bad in ["-1", "nan"] {
            let err = simulate(a(&["--interarrival", bad])).unwrap_err();
            assert!(err.message.contains("--interarrival"), "{}", err.message);
            let err = trace(&raw(&["gen-jobs", "--interarrival", bad])).unwrap_err();
            assert!(err.message.contains("--interarrival"), "{}", err.message);
        }
        // A constraint ratio is a probability; Eq. 4's stopping factor
        // a non-negative exponent. Both panicked in a debug build.
        for bad in ["2", "1.5", "-0.1", "nan"] {
            let err = simulate(a(&["--ratio", bad])).unwrap_err();
            assert!(err.message.contains("--ratio"), "{}", err.message);
            assert_eq!(err.status, 1);
            let err = trace(&raw(&["gen-jobs", "--ratio", bad])).unwrap_err();
            assert!(err.message.contains("--ratio"), "{}", err.message);
        }
        for bad in ["-1", "nan", "inf"] {
            let err = simulate(a(&["--sf", bad])).unwrap_err();
            assert!(err.message.contains("--sf"), "{}", err.message);
            assert_eq!(err.status, 1);
        }
        // The ends of each range are still accepted.
        for ok in [["--ratio", "0"], ["--ratio", "1"], ["--sf", "0"]] {
            assert!(scenario_from(&a(&ok)).is_ok(), "{ok:?}");
        }
    }

    #[test]
    fn counts_are_bounded_by_the_id_space() {
        // Past it, `--nodes`, `--jobs` and `--count` allocated past
        // capacity (the flag sweep holds every flag to that).
        let max = u32::MAX as usize;
        let n = |v: usize| count_from(&a(&["--nodes", &v.to_string()]), "nodes", 0);
        assert_eq!(n(max), Ok(max));
        assert!(n(max + 1).unwrap_err().contains("--nodes"));
    }

    #[test]
    fn unbuildable_populations_are_status_2_errors() {
        let err = simulate(a(&["--nodes", "0", "--jobs", "10"])).unwrap_err();
        assert_eq!(err.status, 2, "{}", err.message);
        assert!(err.message.contains("non-empty"));
        let err = replay(&[], &[], &[SchedulerChoice::Central], 1).unwrap_err();
        assert_eq!(err.status, 2, "{}", err.message);
        // A bad invocation stays a status-1 error.
        assert_eq!(simulate(a(&["--dims", "7"])).unwrap_err().status, 1);
    }

    #[test]
    fn simulate_rejects_unknown_flag() {
        let err = simulate(a(&["--bogus", "1"])).unwrap_err();
        assert!(err.message.contains("bogus"));
        let err = simulate(a(&["--shards", "2"])).unwrap_err();
        assert!(err.message.contains("shards"));
    }

    #[test]
    fn churn_rejects_bad_loss_and_scheme() {
        let err = churn(a(&["--loss", "1.5"])).unwrap_err();
        assert!(err.contains("--loss"));
        let err = churn(a(&["--scheme", "telepathy"])).unwrap_err();
        assert!(err.contains("telepathy"));
    }

    #[test]
    fn chaos_runs_small_and_rejects_bad_args() {
        let dir = out_dir("chaos_small");
        let out = chaos(a(&[
            "--scheme",
            "adaptive",
            "--scenario",
            "flash-crowd",
            "--nodes",
            "36",
            "--out",
            &dir,
        ]))
        .unwrap();
        assert!(out.contains("flash-crowd"));
        assert!(out.contains("Adaptive"));
        assert!(out.contains("ok"));
        // A narrowed run is the chaos table alone.
        assert!(!out.contains("takeover"), "{out}");
        let csv = std::fs::read_to_string(Path::new(&dir).join("chaos.csv")).unwrap();
        assert_eq!(csv.lines().count(), 2, "{csv}");
        assert!(chaos(a(&["--scheme", "bogus"])).is_err());
        assert!(chaos(a(&["--scenario", "bogus"])).is_err());
        // An overlay the executor cannot partition: the partition clamp
        // panicked in release below four nodes. Past the u32 id space
        // the bootstrap never finished.
        for bad in ["0", "3", "18446744073709551615"] {
            let err = chaos(a(&["--quick", "--nodes", bad, "--out", &dir])).unwrap_err();
            assert_eq!(err.status, 1);
            assert!(err.message.contains("nodes"), "{}", err.message);
        }
        assert!(chaos(a(&["--bogus", "1"])).is_err());
    }

    #[test]
    fn scenarios_lists_filters_and_rejects_zero_matches() {
        let listing = scenarios(a(&["--list"])).unwrap();
        for spec in pgrid::scenarios::REGISTRY {
            assert!(listing.contains(spec.name), "listing misses {}", spec.name);
        }
        let dir = out_dir("scenarios_filter");
        let out = scenarios(a(&["--quick", "--scenario", "gray-failure", "--out", &dir])).unwrap();
        assert!(out.contains("gray-failure"));
        assert!(out.contains("ok"));
        assert!(Path::new(&dir).join("scenarios_resilience.csv").exists());
        let err = scenarios(a(&["--scenario", "no-such-thing"])).unwrap_err();
        assert!(err.message.contains("no scenario matches"), "{err:?}");
        assert!(err.message.contains("diurnal-wave"), "{err:?}");
        assert!(scenarios(a(&["--bogus", "1"])).is_err());
        assert!(scenarios(a(&["--seed", "nope"])).is_err());
    }

    #[test]
    fn detector_runs_quick_and_rejects_bad_args() {
        let dir = out_dir("detector_quick");
        let out = detector(a(&["--quick", "--out", &dir])).unwrap();
        assert!(out.contains("false-positive expulsions"), "{out}");
        assert!(out.contains("fixed"));
        assert!(out.contains("adaptive"));
        assert!(out.contains("detector claims: ok"), "{out}");
        assert!(Path::new(&dir).join("detector.csv").exists());
        assert!(detector(a(&["--bogus", "1"])).is_err());
        assert!(detector(a(&["--seed", "nope"])).is_err());
    }

    #[test]
    fn fuzz_runs_a_tiny_clean_sweep() {
        // Seeds 100.. are exercised as clean in the core fuzz tests
        // (smoke grammar, which `--quick` selects).
        let dir = out_dir("fuzz_clean");
        let out = fuzz(a(&[
            "--quick", "--seed", "100", "--seeds", "2", "--budget", "300", "--out", &dir,
        ]))
        .unwrap();
        assert!(out.contains("Quick grammar"), "{out}");
        assert!(out.contains("clean seeds: 2/2 requested"), "{out}");
        assert!(out.contains("invariants: ok"));
    }

    #[test]
    fn fuzz_rejects_bad_args() {
        assert!(fuzz(a(&["--seeds", "0"])).is_err());
        // The range would wrap past u64::MAX and run nothing.
        let err = fuzz(a(&[
            "--quick",
            "--seed",
            "18446744073709551615",
            "--seeds",
            "2",
        ]))
        .expect_err("a seed range past u64::MAX");
        assert_eq!(err.status, 1);
        assert!(
            err.message.contains("past the last seed"),
            "{}",
            err.message
        );
        assert!(fuzz(a(&["--budget", "-3"])).is_err());
        assert!(fuzz(a(&["--bogus", "1"])).is_err());
    }

    #[test]
    fn fuzz_replays_a_saved_trace_and_checks_its_digest() {
        let dir = std::env::temp_dir().join("pgrid_cli_fuzz_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("case.trace");
        let mut schedule =
            pgrid::simcore::dst::generate(100, &pgrid::simcore::ScheduleBudget::smoke());
        schedule.expect_digest = Some(pgrid::fuzz::run_case(&schedule).digest);
        std::fs::write(&path, schedule.to_text()).unwrap();

        let out = fuzz(a(&["--replay", path.to_str().unwrap()])).unwrap();
        assert!(out.contains("digest matches"), "{out}");
        assert!(out.contains("invariants: ok"));

        // A corrupted recorded digest must fail the replay.
        schedule.expect_digest = Some(0xdead_beef);
        std::fs::write(&path, schedule.to_text()).unwrap();
        let err = fuzz(a(&["--replay", path.to_str().unwrap()]))
            .unwrap_err()
            .message;
        assert!(err.contains("digest mismatch"), "{err}");

        // An unknown heartbeat scheme is a parse error that names the
        // trace and the label — not an executor panic and a mismatch.
        schedule.scheme = "laser".into();
        std::fs::write(&path, schedule.to_text()).unwrap();
        let err = fuzz(a(&["--replay", path.to_str().unwrap()]))
            .unwrap_err()
            .message;
        assert!(
            err.contains("case.trace") && err.contains("`laser`"),
            "{err}"
        );
        assert!(!err.contains("digest mismatch"), "{err}");
    }

    #[test]
    fn trace_replay_requires_files() {
        let raw = |v: Vec<&str>| v.into_iter().map(String::from).collect::<Vec<_>>();
        let err = trace(&raw(vec!["replay"])).unwrap_err();
        assert!(err.message.contains("--nodes"));
        let err = trace(&raw(vec![
            "replay",
            "--nodes",
            "/nonexistent",
            "--jobs",
            "/nonexistent",
        ]))
        .unwrap_err();
        assert!(err.message.contains("cannot read") || err.message.contains("nonexistent"));
    }

    #[test]
    fn trace_replay_rejects_unrunnable_job_records() {
        let dir = std::env::temp_dir().join("pgrid_cli_bad_trace_test");
        std::fs::create_dir_all(&dir).unwrap();
        let nodes_p = dir.join("nodes.trace");
        let jobs_p = dir.join("jobs.trace");
        let raw = |v: Vec<&str>| v.into_iter().map(String::from).collect::<Vec<_>>();
        let nodes_arg = nodes_p.to_str().unwrap();
        trace(&raw(vec!["gen-nodes", "--count", "20", "--out", nodes_arg])).unwrap();
        // Records the event loop cannot run: it would panic, not return.
        for bad in [
            "job t=1 id=0 runtime=60\njob t=2 id=0 runtime=60\n",
            "job t=NaN id=0 runtime=60\n",
            "job t=-4 id=0 runtime=60\n",
            "job t=1 id=0 runtime=-50\n",
            // One CE named twice: `JobSpec::new` asserts on it.
            "job t=1 id=0 runtime=60 cpu=cores:1 cpu=cores:2\n",
        ] {
            std::fs::write(&jobs_p, bad).unwrap();
            let jobs_arg = jobs_p.to_str().unwrap();
            let err = trace(&raw(vec![
                "replay", "--nodes", nodes_arg, "--jobs", jobs_arg,
            ]))
            .unwrap_err();
            assert!(err.message.contains("trace line"), "{bad}: {}", err.message);
        }
        // The same in a node record: a second `gpu0=` trips
        // `NodeSpec::new`, a second `cpu=` used to win silently.
        std::fs::write(&jobs_p, "job t=1 id=0 runtime=60\n").unwrap();
        for bad in [
            "node disk=10 cpu=clock:1,mem:2,cores:4 gpu0=clock:1,mem:4,cores:448 \
             gpu0=clock:1,mem:4,cores:240\n",
            "node disk=10 cpu=clock:1,mem:2,cores:4 cpu=clock:2,mem:2,cores:8\n",
        ] {
            std::fs::write(&nodes_p, bad).unwrap();
            let jobs_arg = jobs_p.to_str().unwrap();
            let err = trace(&raw(vec![
                "replay", "--nodes", nodes_arg, "--jobs", jobs_arg,
            ]))
            .unwrap_err();
            assert!(
                err.message.contains("trace line 1") && err.message.contains("repeats"),
                "{bad}: {}",
                err.message
            );
        }
    }

    #[test]
    fn churn_rejects_values_the_run_cannot_survive() {
        // `--gap 0` never advanced the churn clock, `--gap -5` ran it
        // backwards, `--gap 1e-20` was absorbed by it, `--dims 0`
        // tripped the zone constructor and `--dims`/`--nodes` past the
        // limits allocated past capacity (`--nodes` blamed `--gap`).
        for (flag, bad) in [
            ("--dims", "0"),
            ("--dims", "18446744073709551615"),
            ("--nodes", "18446744073709551615"),
            ("--loss", "1"),
            ("--gap", "0"),
            ("--gap", "-5"),
            ("--gap", "nan"),
            ("--gap", "1e-20"),
            ("--duration", "0"),
            ("--duration", "inf"),
            ("--graceful", "1.5"),
            ("--graceful", "-0.1"),
        ] {
            let err = churn(a(&[flag, bad])).unwrap_err();
            assert!(err.contains(flag), "{flag} {bad}: {err}");
        }
    }

    #[test]
    fn help_and_info_list_every_figure() {
        let (help, info) = (help(), info());
        for f in figures::REGISTRY {
            assert!(help.contains(f.name), "help misses {}", f.name);
            assert!(info.contains(f.name), "info misses {}", f.name);
        }
    }

    #[test]
    fn churn_runs_small() {
        let out = churn(a(&[
            "--nodes",
            "40",
            "--dims",
            "5",
            "--duration",
            "600",
            "--scheme",
            "compact",
        ]))
        .unwrap();
        assert!(out.contains("Compact"));
        assert!(out.contains("KB/node/min"));
    }

    #[test]
    fn trace_gen_and_replay_round_trip() {
        let dir = std::env::temp_dir().join("pgrid_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let nodes_p = dir.join("nodes.trace");
        let jobs_p = dir.join("jobs.trace");
        let raw = |v: Vec<&str>| v.into_iter().map(String::from).collect::<Vec<_>>();
        trace(&raw(vec![
            "gen-nodes",
            "--count",
            "40",
            "--out",
            nodes_p.to_str().unwrap(),
        ]))
        .unwrap();
        trace(&raw(vec![
            "gen-jobs",
            "--count",
            "100",
            "--interarrival",
            "45",
            "--ratio",
            "0.0", // unconstrained: satisfiable by any population
            "--out",
            jobs_p.to_str().unwrap(),
        ]))
        .unwrap();
        let out = trace(&raw(vec![
            "replay",
            "--nodes",
            nodes_p.to_str().unwrap(),
            "--jobs",
            jobs_p.to_str().unwrap(),
            "--scheduler",
            "central",
        ]))
        .unwrap();
        assert!(out.contains("replayed 100 jobs on 40 nodes"), "{out}");
        assert!(out.contains("central"));
    }

    #[test]
    fn dispatch_help_and_unknown() {
        let out = crate::dispatch(vec!["pgrid".into(), "help".into()]).unwrap();
        assert!(out.contains("USAGE"));
        assert!(crate::dispatch(vec!["pgrid".into(), "frobnicate".into()]).is_err());
        let bare = crate::dispatch(vec!["pgrid".into()]).unwrap();
        assert!(bare.contains("USAGE"));
    }

    #[test]
    fn dispatch_rejects_a_stray_token_or_a_repeated_flag_before_running() {
        // `--quick foo` used to read as "no --quick" and launch the
        // paper-scale sweep; `--seed 1 --seed 2` used to keep the last.
        let argv = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let err = crate::dispatch(argv(&["pgrid", "detector", "--quick", "foo"])).unwrap_err();
        assert!(err.message.contains("'foo'"), "{}", err.message);
        assert_eq!(err.status, 1);
        let err =
            crate::dispatch(argv(&["pgrid", "chaos", "--seed", "1", "--seed", "2"])).unwrap_err();
        assert!(err.message.contains("twice"), "{}", err.message);
    }
}
