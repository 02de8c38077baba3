//! The `pgrid` subcommands.

use crate::args::Args;
use crate::CliError;
use pgrid::prelude::*;
use pgrid::types::DimensionLayout;
use pgrid::workload::trace;
use std::fmt::Write as _;

/// `pgrid help`
pub fn help() -> String {
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

  pgrid chaos    [--scenario flash-crowd|rolling-partition|lossy-churn|all]
                 [--scheme vanilla|compact|adaptive|all] [--nodes N] [--seed S]
      Run scripted fault scenarios through the chaos harness and print the
      resilience table; exits non-zero on any invariant violation.

  pgrid scenarios [--list] [--scenario NAME] [--seed S] [--quick]
      Run the named adversarial scenario library (diurnal waves, flash
      crowds, rack storms, stragglers, gray failures, plus the chaos trio)
      through the DST oracle harness, scheme vs scheme; --scenario filters
      by substring (zero matches is an error), --list prints the registry.

  pgrid detector [--seed S] [--quick]
      Sweep asymmetric link stress against process-freeze length, running
      every cell under both the fixed-timeout and the adaptive suspicion
      failure detectors; prints the false-positive / detection-latency
      table and errors if the adaptive rule is ever worse.

  pgrid fuzz     [--seeds N] [--seed S] [--budget SECS] [--out DIR]
  pgrid fuzz     --replay FILE
      Fuzz random fault schedules through the cross-layer invariant oracles
      (CAN zone tiling / neighbor symmetry / take-over / quiescence, scheduler
      job conservation, event-queue monotonicity). On a violation the schedule
      is shrunk to a near-minimal repro and written as a replayable trace
      under DIR; exits non-zero. --replay re-executes a saved trace and
      checks it against its recorded digest.

  pgrid trace gen-nodes  [--count N] [--dims D] [--seed S] [--out FILE]
  pgrid trace gen-jobs   [--count N] [--dims D] [--ratio R] [--interarrival S]
                         [--seed S] [--out FILE]
  pgrid trace replay     --nodes FILE --jobs FILE [--scheduler het|hom|central]
      Generate reusable workload traces, or replay saved traces.

  pgrid info
      Print the built-in paper scenario and experiment inventory.
"
    .to_string()
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
    let _ = writeln!(
        out,
        "experiments (see crates/bench): fig5 fig6 fig7 fig8 scaling_fit ablation"
    );
    let _ = writeln!(
        out,
        "extensions: sf_sweep lossy_network routing_under_churn future_gpus contention_model chaos"
    );
    out
}

fn scenario_from(args: &Args) -> Result<LoadBalanceScenario, String> {
    let mut s = default_scenario();
    s.nodes = args.get_or("nodes", s.nodes)?;
    s.jobs = args.get_or("jobs", s.jobs)?;
    if s.jobs == 0 {
        return Err("--jobs must be at least 1".into());
    }
    let dims: usize = args.get_or("dims", s.dims)?;
    if dims < 5 || !(dims - 5).is_multiple_of(3) || dims > 14 {
        return Err(format!("--dims must be 5, 8, 11 or 14 (got {dims})"));
    }
    if dims != s.dims {
        let slots = ((dims - 5) / 3) as u8;
        s.dims = dims;
        s.node_gen = NodeGenConfig::paper_defaults(slots);
        s.job_gen = JobGenConfig::paper_defaults(
            slots,
            s.job_gen.constraint_ratio,
            s.job_gen.mean_interarrival,
        );
    }
    s.job_gen.mean_interarrival = interarrival_from(args, s.job_gen.mean_interarrival)?;
    s.job_gen.constraint_ratio = args.get_or("ratio", s.job_gen.constraint_ratio)?;
    s.stopping_factor = args.get_or("sf", s.stopping_factor)?;
    s.seed = args.get_or("seed", s.seed)?;
    if args.switch("shared-gpus") {
        s.node_gen.shared_gpus = true;
    }
    Ok(s)
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
    let nodes: usize = args.get_or("nodes", 200)?;
    let dims: usize = args.get_or("dims", 11)?;
    let schemes = match args.get("scheme").unwrap_or("all") {
        "vanilla" => vec![HeartbeatScheme::Vanilla],
        "compact" => vec![HeartbeatScheme::Compact],
        "adaptive" => vec![HeartbeatScheme::Adaptive],
        "all" => HeartbeatScheme::ALL.to_vec(),
        other => return Err(format!("unknown scheme '{other}'")),
    };
    let gap: f64 = args.get_or("gap", 10.0)?;
    let duration: f64 = args.get_or("duration", 3600.0)?;
    let loss: f64 = args.get_or("loss", 0.0)?;
    let graceful: f64 = args.get_or("graceful", 0.5)?;
    let seed: u64 = args.get_or("seed", 2011)?;
    args.reject_unknown()?;
    if !(0.0..1.0).contains(&loss) {
        return Err(format!("--loss must be in [0,1), got {loss}"));
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
        let mut cfg = ChurnConfig::new(dims, scheme, nodes);
        cfg.event_gap = gap;
        cfg.stage2_duration = duration;
        cfg.graceful_fraction = graceful;
        cfg.message_loss = loss;
        cfg.seed = seed;
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

/// `pgrid chaos`
pub fn chaos(args: Args) -> Result<String, String> {
    let schemes = match args.get("scheme").unwrap_or("all") {
        "vanilla" => vec![HeartbeatScheme::Vanilla],
        "compact" => vec![HeartbeatScheme::Compact],
        "adaptive" => vec![HeartbeatScheme::Adaptive],
        "all" => HeartbeatScheme::ALL.to_vec(),
        other => return Err(format!("unknown scheme '{other}'")),
    };
    let scenario = args.get("scenario").unwrap_or("all").to_string();
    let nodes: usize = args.get_or("nodes", 60)?;
    let seed: u64 = args.get_or("seed", 41)?;
    args.reject_unknown()?;

    let mut specs = pgrid::scenarios::chaos_trio();
    if scenario != "all" {
        specs.retain(|s| s.name == scenario);
        if specs.is_empty() {
            return Err(format!(
                "unknown scenario '{scenario}' ({} | all)",
                pgrid::scenarios::CHAOS_TRIO.join(" | ")
            ));
        }
    }
    // The paper-scale settle window; `--nodes` resizes the overlay only.
    let rows = pgrid::experiments::chaos_rows(&specs, &schemes, seed, nodes, 300.0);

    let mut out = format!("chaos: {nodes} nodes, seed {seed}\n\n");
    let mut table = Table::new([
        "scenario",
        "scheme",
        "broken peak",
        "broken after",
        "gaps after",
        "recovery(s)",
        "dropped",
        "verdict",
    ]);
    let mut violations = Vec::new();
    for row in &rows {
        let r = &row.report;
        table.row([
            row.scenario.to_string(),
            row.scheme.label().to_string(),
            r.broken_peak.to_string(),
            r.broken_after.to_string(),
            r.gaps_after.to_string(),
            r.recovery_time
                .map(|t| format!("{t:.0}"))
                .unwrap_or_else(|| "-".into()),
            r.dropped_messages.to_string(),
            if r.violations.is_empty() {
                "ok".to_string()
            } else {
                format!("{} VIOLATIONS", r.violations.len())
            },
        ]);
        for v in &r.violations {
            violations.push(format!("{}/{}: {v}", row.scenario, row.scheme.label()));
        }
    }
    out.push_str(&table.render());
    if !violations.is_empty() {
        return Err(format!(
            "invariant violations:\n  {}",
            violations.join("\n  ")
        ));
    }
    Ok(out)
}

/// `pgrid scenarios`
pub fn scenarios(args: Args) -> Result<String, String> {
    if args.switch("list") {
        args.reject_unknown()?;
        return Ok(pgrid::scenarios::listing());
    }
    let filter = args.get("scenario").unwrap_or("").to_string();
    let seed: u64 = args.get_or("seed", pgrid::experiments::SCENARIO_SEED)?;
    let scale = if args.switch("quick") {
        Scale::Quick
    } else {
        Scale::Paper
    };
    args.reject_unknown()?;
    let specs = pgrid::scenarios::matching(&filter);
    if specs.is_empty() {
        let names: Vec<&str> = pgrid::scenarios::REGISTRY.iter().map(|s| s.name).collect();
        return Err(format!(
            "no scenario matches '{filter}' (known: {})",
            names.join(" | ")
        ));
    }

    let cells = pgrid::experiments::scenario_suite_over(scale, seed, &specs);
    let mut out = format!(
        "scenario library: {} scenario(s), seed {seed} ({scale:?})\n\n",
        specs.len()
    );
    let mut table = Table::new([
        "scenario",
        "scheme",
        "broken peak",
        "false exp",
        "takeovers",
        "promoted",
        "fenced",
        "relearn(hb)",
        "misdirect",
        "verdict",
    ]);
    let mut violations = Vec::new();
    for c in &cells {
        for arm in &c.arms {
            table.row([
                c.scenario.to_string(),
                arm.scheme.label().to_string(),
                arm.broken_peak.to_string(),
                arm.live_expulsions.to_string(),
                arm.takeovers.to_string(),
                arm.replica_promotions.to_string(),
                arm.stale_replica_rejects.to_string(),
                arm.relearn_mean_heartbeats
                    .map(|m| format!("{m:.2}"))
                    .unwrap_or_else(|| "-".into()),
                format!("{:.1}%", 100.0 * arm.misdirect_rate),
                if arm.violations.is_empty() {
                    "ok".to_string()
                } else {
                    format!("{} VIOLATIONS", arm.violations.len())
                },
            ]);
            for v in &arm.violations {
                violations.push(format!("{}/{}: {v}", c.scenario, arm.scheme.label()));
            }
        }
    }
    out.push_str(&table.render());
    for c in &cells {
        if let Some(d) = &c.wait_delta {
            let _ = writeln!(
                out,
                "{}: shaped arrivals mean wait {:.1}s vs {:.1}s baseline (p99 {:.1}s vs {:.1}s)",
                c.scenario, d.shaped_mean, d.baseline_mean, d.shaped_p99, d.baseline_p99,
            );
        }
        if let Some(o) = &c.overload {
            let _ = writeln!(
                out,
                "{}: goodput {:.1} vs {:.1} jobs/1000s vanilla, shed {:.1}%, \
                 retry amp {:.2}x, p99 {:.0}s vs {:.0}s",
                c.scenario,
                o.controlled_goodput,
                o.vanilla_goodput,
                100.0 * o.shed_rate,
                o.retry_amplification,
                o.controlled_p99,
                o.vanilla_p99,
            );
            if o.controlled_goodput <= o.vanilla_goodput {
                violations.push(format!(
                    "{}: overload control did not improve goodput ({:.2} <= {:.2})",
                    c.scenario, o.controlled_goodput, o.vanilla_goodput
                ));
            }
        }
    }
    if !violations.is_empty() {
        return Err(format!(
            "invariant violations:\n  {}",
            violations.join("\n  ")
        ));
    }
    Ok(out)
}

/// `pgrid detector`
pub fn detector(args: Args) -> Result<String, String> {
    let seed: u64 = args.get_or("seed", pgrid::experiments::DETECTOR_SEED)?;
    let scale = if args.switch("quick") {
        Scale::Quick
    } else {
        Scale::Paper
    };
    args.reject_unknown()?;

    let cells = pgrid::experiments::detector_suite(scale, seed);
    let mut out = format!("detector sweep: seed {seed} ({scale:?})\n\n");
    let mut table = Table::new([
        "stress",
        "freeze(s)",
        "rule",
        "suspicions",
        "probes",
        "expelled",
        "false pos",
        "revived",
        "lag(s)",
    ]);
    let mut regressions = Vec::new();
    for c in &cells {
        for arm in [&c.fixed, &c.adaptive] {
            table.row([
                format!("{:.1}", c.link_stress),
                format!("{:.0}", c.freeze_secs),
                arm.mode.label().to_string(),
                arm.suspicions.to_string(),
                arm.probe_requests.to_string(),
                arm.live_expulsions.to_string(),
                arm.false_expulsions.to_string(),
                arm.revivals.to_string(),
                arm.detection_lag
                    .map(|l| format!("{l:.1}"))
                    .unwrap_or_else(|| "-".into()),
            ]);
        }
        if c.adaptive.false_expulsions > c.fixed.false_expulsions {
            regressions.push(format!(
                "stress {:.1} freeze {:.0}: adaptive false positives {} exceed fixed {}",
                c.link_stress, c.freeze_secs, c.adaptive.false_expulsions, c.fixed.false_expulsions
            ));
        }
    }
    out.push_str(&table.render());
    let fixed_fp: u64 = cells.iter().map(|c| c.fixed.false_expulsions).sum();
    let adaptive_fp: u64 = cells.iter().map(|c| c.adaptive.false_expulsions).sum();
    out.push_str(&format!(
        "false-positive expulsions: fixed {fixed_fp}, adaptive {adaptive_fp}\n"
    ));
    if regressions.is_empty() {
        Ok(out)
    } else {
        Err(format!(
            "detector regressions:\n  {}",
            regressions.join("\n  ")
        ))
    }
}

/// `pgrid fuzz`
pub fn fuzz(args: Args) -> Result<String, String> {
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
                ));
            }
            out.push_str("  digest matches the trace's recorded value\n");
        }
        if !report.violations.is_empty() {
            return Err(format!(
                "replay violations:\n  {}",
                report.violations.join("\n  ")
            ));
        }
        out.push_str("invariants: ok\n");
        return Ok(out);
    }

    let start: u64 = args.get_or("seed", 1)?;
    let seeds: usize = args.get_or("seeds", 16)?;
    let budget: f64 = args.get_or("budget", 60.0)?;
    let out_dir = args.get("out").unwrap_or("results").to_string();
    args.reject_unknown()?;
    if seeds == 0 {
        return Err("--seeds must be at least 1".into());
    }
    if !(budget.is_finite() && budget > 0.0) {
        return Err(format!(
            "--budget must be positive and finite, got {budget}"
        ));
    }

    let mut cfg = FuzzConfig::new(start, seeds);
    cfg.wall_budget = budget;
    let summary = fuzz_search(&cfg);

    let mut out = format!(
        "fuzz: seeds {start}..{}, wall budget {budget}s\n\n",
        start + seeds as u64
    );
    let mut table = Table::new(["seed", "scheme", "nodes", "events", "broken peak", "digest"]);
    for r in &summary.runs {
        table.row([
            r.seed.to_string(),
            r.scheme.clone(),
            r.nodes.to_string(),
            r.events.to_string(),
            r.broken_peak.to_string(),
            format!("{:016x}", r.digest),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(&format!(
        "clean seeds: {}/{} requested{}\n",
        summary.runs.len(),
        summary.seeds_requested,
        if summary.hit_wall_budget {
            " (wall budget hit)"
        } else {
            ""
        }
    ));
    match summary.failure {
        None => {
            out.push_str("invariants: ok (zero violations)\n");
            Ok(out)
        }
        Some(f) => {
            std::fs::create_dir_all(&out_dir)
                .map_err(|e| format!("cannot create {out_dir}: {e}"))?;
            let path = std::path::Path::new(&out_dir).join(format!("fuzz_seed{}.trace", f.seed));
            std::fs::write(&path, f.shrunk.to_text())
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            Err(format!(
                "seed {} violated {} invariant(s); shrunk {} -> {} fault events, \
                 repro trace written to {}\n  {}",
                f.seed,
                f.violations.len(),
                f.original_events,
                f.shrunk.events.len(),
                path.display(),
                f.violations.join("\n  ")
            ))
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
            let count: usize = args.get_or("count", 100)?;
            let dims: usize = args.get_or("dims", 11)?;
            let seed: u64 = args.get_or("seed", 2011)?;
            let out_path = args.get("out").map(str::to_string);
            args.reject_unknown()?;
            let slots = ((dims.saturating_sub(5)) / 3) as u8;
            let nodes = generate_nodes(&NodeGenConfig::paper_defaults(slots), count, seed);
            let text = trace::write_nodes(&nodes);
            Ok(emit(text, out_path)?)
        }
        "gen-jobs" => {
            let count: usize = args.get_or("count", 1000)?;
            let dims: usize = args.get_or("dims", 11)?;
            let ratio: f64 = args.get_or("ratio", 0.6)?;
            let ia = interarrival_from(&args, 3.0)?;
            let seed: u64 = args.get_or("seed", 2011)?;
            let out_path = args.get("out").map(str::to_string);
            args.reject_unknown()?;
            let slots = ((dims.saturating_sub(5)) / 3) as u8;
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
    for (_, j) in jobs {
        if !population.iter().any(|n| j.satisfied_by(n)) {
            return Err(format!("job {} is unsatisfiable by the population", j.id).into());
        }
    }
    let mut results = Vec::new();
    for &choice in schedulers {
        let mut grid = StaticGrid::try_build(layout.clone(), population.to_vec(), seed)?;
        let params = PushParams::default();
        let mut matchmaker: Box<dyn Matchmaker> = match choice {
            SchedulerChoice::CanHet => Box::new(PushingMatchmaker::heterogeneous(&grid, params)),
            SchedulerChoice::CanHom => Box::new(PushingMatchmaker::homogeneous(&grid, params)),
            SchedulerChoice::Central => Box::new(CentralMatchmaker),
        };
        results.push(pgrid::sched::grid_sim::run_trace(
            &mut grid,
            matchmaker.as_mut(),
            jobs,
            60.0,
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
        let err = simulate(a(&["--dims", "7"])).unwrap_err();
        assert!(err.message.contains("--dims"));
        // Values the run cannot survive: it would panic, not return.
        let err = simulate(a(&["--jobs", "0"])).unwrap_err();
        assert!(err.message.contains("--jobs"), "{}", err.message);
        let raw = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        for bad in ["-1", "nan"] {
            let err = simulate(a(&["--interarrival", bad])).unwrap_err();
            assert!(err.message.contains("--interarrival"), "{}", err.message);
            let err = trace(&raw(&["gen-jobs", "--interarrival", bad])).unwrap_err();
            assert!(err.message.contains("--interarrival"), "{}", err.message);
        }
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
        let out = chaos(a(&[
            "--scheme",
            "adaptive",
            "--scenario",
            "flash-crowd",
            "--nodes",
            "36",
        ]))
        .unwrap();
        assert!(out.contains("flash-crowd"));
        assert!(out.contains("Adaptive"));
        assert!(out.contains("ok"));
        assert!(chaos(a(&["--scheme", "bogus"])).is_err());
        assert!(chaos(a(&["--scenario", "bogus"])).is_err());
        assert!(chaos(a(&["--bogus", "1"])).is_err());
    }

    #[test]
    fn scenarios_lists_filters_and_rejects_zero_matches() {
        let listing = scenarios(a(&["--list"])).unwrap();
        for spec in pgrid::scenarios::REGISTRY {
            assert!(listing.contains(spec.name), "listing misses {}", spec.name);
        }
        let out = scenarios(a(&["--quick", "--scenario", "gray-failure"])).unwrap();
        assert!(out.contains("gray-failure"));
        assert!(out.contains("ok"));
        let err = scenarios(a(&["--scenario", "no-such-thing"])).unwrap_err();
        assert!(err.contains("no scenario matches"), "{err}");
        assert!(err.contains("diurnal-wave"), "{err}");
        assert!(scenarios(a(&["--bogus", "1"])).is_err());
        assert!(scenarios(a(&["--seed", "nope"])).is_err());
    }

    #[test]
    fn detector_runs_quick_and_rejects_bad_args() {
        let out = detector(a(&["--quick"])).unwrap();
        assert!(out.contains("false-positive expulsions"), "{out}");
        assert!(out.contains("fixed"));
        assert!(out.contains("adaptive"));
        assert!(detector(a(&["--bogus", "1"])).is_err());
        assert!(detector(a(&["--seed", "nope"])).is_err());
    }

    #[test]
    fn fuzz_runs_a_tiny_clean_sweep() {
        // Seeds 100.. are exercised as clean in the core fuzz tests.
        let out = fuzz(a(&["--seed", "100", "--seeds", "2", "--budget", "300"])).unwrap();
        assert!(out.contains("clean seeds: 2/2 requested"), "{out}");
        assert!(out.contains("invariants: ok"));
    }

    #[test]
    fn fuzz_rejects_bad_args() {
        assert!(fuzz(a(&["--seeds", "0"])).is_err());
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
        let err = fuzz(a(&["--replay", path.to_str().unwrap()])).unwrap_err();
        assert!(err.contains("digest mismatch"), "{err}");

        // An unknown heartbeat scheme is a parse error that names the
        // trace and the label — not an executor panic and a mismatch.
        schedule.scheme = "laser".into();
        std::fs::write(&path, schedule.to_text()).unwrap();
        let err = fuzz(a(&["--replay", path.to_str().unwrap()])).unwrap_err();
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
}
