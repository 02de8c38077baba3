//! Shared rendering for the experiment regenerator binaries: turns the
//! drivers' results into the tables/series each paper figure shows,
//! plus CSV dumps under `results/`.
//!
//! Binaries (run with `--release`; pass `--quick` for a reduced run):
//!
//! * `fig5` — wait-time CDFs vs inter-arrival time (Figure 5)
//! * `fig6` — wait-time CDFs vs job constraint ratio (Figure 6)
//! * `fig7` — broken links over time under high churn (Figure 7)
//! * `fig8` — heartbeat message count/volume vs dimensions (Figure 8)
//! * `scaling_fit` — log–log scaling exponents for the §IV-A claims
//! * `ablation` — can-het ingredient ablations
//! * `all` — everything above in sequence

#![forbid(unsafe_code)]

use pgrid::experiments::{
    ChaosRow, CostCell, DetectorCell, ScenarioCell, TakeoverArm, TakeoverCell, WaitTimeCell,
};
use pgrid::metrics::{Cdf, CsvWriter, Table};
use pgrid::prelude::*;
use std::path::{Path, PathBuf};

/// Usage string shared by every bench binary.
pub const USAGE: &str = "usage: <bench> [--quick] [--out DIR]\n\n  \
--quick    reduced smoke-run configuration (default: paper scale)\n  \
--out DIR  write CSV/SVG results under DIR (default: results/)\n";

/// Parses the common bench arguments (program name already stripped).
///
/// Strict: any argument other than `--quick` and `--out DIR` is an
/// error, so a typo'd flag (`--qiuck`) fails fast instead of silently
/// launching a multi-minute paper-scale run.
pub fn parse_args(raw: &[String]) -> Result<(Scale, PathBuf), String> {
    let mut scale = Scale::Paper;
    let mut out = PathBuf::from("results");
    let mut i = 0;
    while i < raw.len() {
        match raw[i].as_str() {
            "--quick" => scale = Scale::Quick,
            "--out" => {
                let Some(dir) = raw.get(i + 1) else {
                    return Err("flag '--out' needs a value".into());
                };
                out = PathBuf::from(dir);
                i += 1;
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
        i += 1;
    }
    Ok((scale, out))
}

/// Parses the common CLI: `--quick` selects [`Scale::Quick`]; an
/// optional `--out DIR` overrides the results directory. Unknown flags
/// print usage and exit non-zero.
pub fn parse_cli() -> (Scale, PathBuf) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Ok((scale, out)) => {
            std::fs::create_dir_all(&out).expect("create results dir");
            (scale, out)
        }
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    }
}

/// Usage string for the `chaos` binary (seeded flag set).
pub const CHAOS_USAGE: &str = "usage: chaos [--quick] [--out DIR] [--seed N] [--budget SECS]\n\n  \
--quick        reduced smoke-run configuration (default: paper scale)\n  \
--out DIR      write CSV results under DIR (default: results/)\n  \
--seed N       chaos-scenario seed (default: 41, the historical repro seed)\n  \
--budget SECS  wall-clock cap; the crash-recovery suite is skipped once exceeded\n";

/// Usage string for the `detector` binary (seeded flag set).
pub const DETECTOR_USAGE: &str = "usage: detector [--quick] [--out DIR] [--seed N]\n\n  \
--quick    reduced smoke-run sweep (default: paper scale)\n  \
--out DIR  write CSV results under DIR (default: results/)\n  \
--seed N   detector-scenario seed (default: 71)\n";

/// Usage string for the `fuzz` binary.
pub const FUZZ_USAGE: &str =
    "usage: fuzz [--quick] [--out DIR] [--seed N] [--seeds N] [--budget SECS]\n\n  \
--quick        smoke schedule grammar and a smaller default sweep\n  \
--out DIR      write shrunk repro traces under DIR (default: results/)\n  \
--seed N       first schedule seed of the sweep (default: 1)\n  \
--seeds N      number of seeds to attempt (default: 16 quick / 64 paper)\n  \
--budget SECS  wall-clock budget for the sweep (default: 120 quick / 900 paper)\n";

/// Arguments of the seeded bench binaries (`chaos`, `fuzz`).
#[derive(Debug, Clone, PartialEq)]
pub struct SeededArgs {
    /// Experiment scale (`--quick` selects [`Scale::Quick`]).
    pub scale: Scale,
    /// Results directory (`--out`).
    pub out: PathBuf,
    /// Explicit seed (`--seed`), if given.
    pub seed: Option<u64>,
    /// Wall-clock budget in seconds (`--budget`), if given.
    pub budget: Option<f64>,
    /// Sweep width (`--seeds`), if given — fuzz binary only.
    pub seeds: Option<usize>,
}

/// Parses the seeded bench arguments (program name already stripped).
///
/// Strict like [`parse_args`]: unknown flags, missing values, and
/// unparseable numbers are errors. `--seeds` is only accepted when
/// `allow_seeds` is set (the chaos binary has no sweep width).
pub fn parse_seeded_args(raw: &[String], allow_seeds: bool) -> Result<SeededArgs, String> {
    let mut args = SeededArgs {
        scale: Scale::Paper,
        out: PathBuf::from("results"),
        seed: None,
        budget: None,
        seeds: None,
    };
    let mut i = 0;
    let value = |raw: &[String], i: usize, flag: &str| -> Result<String, String> {
        raw.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("flag '{flag}' needs a value"))
    };
    while i < raw.len() {
        match raw[i].as_str() {
            "--quick" => args.scale = Scale::Quick,
            "--out" => {
                args.out = PathBuf::from(value(raw, i, "--out")?);
                i += 1;
            }
            "--seed" => {
                let v = value(raw, i, "--seed")?;
                args.seed = Some(
                    v.parse::<u64>()
                        .map_err(|_| format!("--seed wants an unsigned integer, got '{v}'"))?,
                );
                i += 1;
            }
            "--budget" => {
                let v = value(raw, i, "--budget")?;
                let secs = v
                    .parse::<f64>()
                    .map_err(|_| format!("--budget wants seconds, got '{v}'"))?;
                if !(secs.is_finite() && secs > 0.0) {
                    return Err(format!("--budget wants a positive finite value, got '{v}'"));
                }
                args.budget = Some(secs);
                i += 1;
            }
            "--seeds" if allow_seeds => {
                let v = value(raw, i, "--seeds")?;
                let n = v
                    .parse::<usize>()
                    .map_err(|_| format!("--seeds wants a positive integer, got '{v}'"))?;
                if n == 0 {
                    return Err("--seeds wants at least 1".into());
                }
                args.seeds = Some(n);
                i += 1;
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
        i += 1;
    }
    Ok(args)
}

/// CLI wrapper over [`parse_seeded_args`]: parse errors print `usage`
/// and exit with status 2; the results directory is created on success.
pub fn parse_seeded_cli(allow_seeds: bool, usage: &str) -> SeededArgs {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match parse_seeded_args(&raw, allow_seeds) {
        Ok(args) => {
            std::fs::create_dir_all(&args.out).expect("create results dir");
            args
        }
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{usage}");
            std::process::exit(2);
        }
    }
}

/// Usage string for the `scenarios` binary.
pub const SCENARIOS_USAGE: &str =
    "usage: scenarios [--quick] [--out DIR] [--seed N] [--list] [--scenario NAME]\n\n  \
--quick          reduced smoke-run configuration (default: paper scale)\n  \
--out DIR        write CSV results under DIR (default: results/)\n  \
--seed N         scenario compile seed (default: 83)\n  \
--list           list the registered scenarios and exit\n  \
--scenario NAME  run only scenarios whose name contains NAME (error on zero matches)\n";

/// Arguments of the `scenarios` binary.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioArgs {
    /// Experiment scale (`--quick` selects [`Scale::Quick`]).
    pub scale: Scale,
    /// Results directory (`--out`).
    pub out: PathBuf,
    /// Explicit compile seed (`--seed`), if given.
    pub seed: Option<u64>,
    /// Print the registry and exit (`--list`).
    pub list: bool,
    /// Substring filter over scenario names (`--scenario`), if given.
    pub filter: Option<String>,
}

/// Parses the `scenarios` binary's arguments (program name already
/// stripped). Strict like [`parse_args`]: unknown flags, missing
/// values, and unparseable numbers are errors.
pub fn parse_scenario_args(raw: &[String]) -> Result<ScenarioArgs, String> {
    let mut args = ScenarioArgs {
        scale: Scale::Paper,
        out: PathBuf::from("results"),
        seed: None,
        list: false,
        filter: None,
    };
    let mut i = 0;
    let value = |raw: &[String], i: usize, flag: &str| -> Result<String, String> {
        raw.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("flag '{flag}' needs a value"))
    };
    while i < raw.len() {
        match raw[i].as_str() {
            "--quick" => args.scale = Scale::Quick,
            "--list" => args.list = true,
            "--out" => {
                args.out = PathBuf::from(value(raw, i, "--out")?);
                i += 1;
            }
            "--seed" => {
                let v = value(raw, i, "--seed")?;
                args.seed = Some(
                    v.parse::<u64>()
                        .map_err(|_| format!("--seed wants an unsigned integer, got '{v}'"))?,
                );
                i += 1;
            }
            "--scenario" => {
                args.filter = Some(value(raw, i, "--scenario")?);
                i += 1;
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
        i += 1;
    }
    Ok(args)
}

/// Renders the scenario resilience table: one row per scenario ×
/// scheme arm (repeat seeds pooled), plus a wait-delta line for every
/// scenario that shapes arrivals.
pub fn render_scenarios(cells: &[ScenarioCell]) -> String {
    let mut table = Table::new([
        "scenario",
        "scheme",
        "broken peak",
        "suspicions",
        "false exp",
        "revived",
        "takeovers",
        "promoted",
        "fenced",
        "relearn(hb)",
        "unresolved",
        "misdirect",
        "verdict",
    ]);
    for c in cells {
        for arm in &c.arms {
            table.row([
                c.scenario.to_string(),
                arm.scheme.label().to_string(),
                arm.broken_peak.to_string(),
                arm.suspicions.to_string(),
                arm.live_expulsions.to_string(),
                arm.revivals.to_string(),
                arm.takeovers.to_string(),
                arm.replica_promotions.to_string(),
                arm.stale_replica_rejects.to_string(),
                arm.relearn_mean_heartbeats
                    .map(|m| format!("{m:.2}"))
                    .unwrap_or_else(|| "-".into()),
                arm.relearn_unresolved.to_string(),
                format!("{:.1}%", 100.0 * arm.misdirect_rate),
                if arm.violations.is_empty() {
                    "ok".to_string()
                } else {
                    format!("{} VIOLATIONS", arm.violations.len())
                },
            ]);
        }
    }
    let mut out = table.render();
    for c in cells {
        if let Some(d) = &c.wait_delta {
            out.push_str(&format!(
                "{}: shaped arrivals mean wait {:.1}s vs {:.1}s baseline (p99 {:.1}s vs {:.1}s)\n",
                c.scenario, d.shaped_mean, d.baseline_mean, d.shaped_p99, d.baseline_p99,
            ));
        }
        if let Some(o) = &c.overload {
            out.push_str(&format!(
                "{}: goodput {:.1} vs {:.1} jobs/1000s vanilla, shed {:.1}%, \
                 retry amp {:.2}x, p99 {:.0}s vs {:.0}s\n",
                c.scenario,
                o.controlled_goodput,
                o.vanilla_goodput,
                100.0 * o.shed_rate,
                o.retry_amplification,
                o.controlled_p99,
                o.vanilla_p99,
            ));
        }
    }
    out
}

/// Writes the scenario resilience table to CSV, one row per scenario ×
/// scheme arm.
pub fn save_scenarios_csv(path: &Path, cells: &[ScenarioCell]) -> std::io::Result<()> {
    let mut csv = CsvWriter::new(&[
        "scenario",
        "scheme",
        "broken_peak",
        "suspicions",
        "live_expulsions",
        "revivals",
        "takeovers",
        "replica_promotions",
        "stale_replica_rejects",
        "relearn_mean_hb",
        "relearn_resolved",
        "relearn_unresolved",
        "misdirect_rate",
        "baseline_mean_wait_s",
        "shaped_mean_wait_s",
        "baseline_p99_wait_s",
        "shaped_p99_wait_s",
        "violations",
        "vanilla_goodput",
        "controlled_goodput",
        "shed_rate",
        "retry_amplification",
        "vanilla_p99_wait_s",
        "controlled_p99_wait_s",
    ]);
    for c in cells {
        for arm in &c.arms {
            csv.row(&[
                c.scenario,
                arm.scheme.label(),
                &arm.broken_peak.to_string(),
                &arm.suspicions.to_string(),
                &arm.live_expulsions.to_string(),
                &arm.revivals.to_string(),
                &arm.takeovers.to_string(),
                &arm.replica_promotions.to_string(),
                &arm.stale_replica_rejects.to_string(),
                &arm.relearn_mean_heartbeats
                    .map(|m| format!("{m:.3}"))
                    .unwrap_or_default(),
                &arm.relearn_resolved.to_string(),
                &arm.relearn_unresolved.to_string(),
                &format!("{:.4}", arm.misdirect_rate),
                &c.wait_delta
                    .as_ref()
                    .map(|d| format!("{:.2}", d.baseline_mean))
                    .unwrap_or_default(),
                &c.wait_delta
                    .as_ref()
                    .map(|d| format!("{:.2}", d.shaped_mean))
                    .unwrap_or_default(),
                &c.wait_delta
                    .as_ref()
                    .map(|d| format!("{:.2}", d.baseline_p99))
                    .unwrap_or_default(),
                &c.wait_delta
                    .as_ref()
                    .map(|d| format!("{:.2}", d.shaped_p99))
                    .unwrap_or_default(),
                &arm.violations.len().to_string(),
                &c.overload
                    .as_ref()
                    .map(|o| format!("{:.2}", o.vanilla_goodput))
                    .unwrap_or_default(),
                &c.overload
                    .as_ref()
                    .map(|o| format!("{:.2}", o.controlled_goodput))
                    .unwrap_or_default(),
                &c.overload
                    .as_ref()
                    .map(|o| format!("{:.4}", o.shed_rate))
                    .unwrap_or_default(),
                &c.overload
                    .as_ref()
                    .map(|o| format!("{:.3}", o.retry_amplification))
                    .unwrap_or_default(),
                &c.overload
                    .as_ref()
                    .map(|o| format!("{:.2}", o.vanilla_p99))
                    .unwrap_or_default(),
                &c.overload
                    .as_ref()
                    .map(|o| format!("{:.2}", o.controlled_p99))
                    .unwrap_or_default(),
            ]);
        }
    }
    csv.save(path)
}

/// Renders a fuzz sweep: one row per clean seed, then the failure
/// block (if any) with the shrink statistics.
pub fn render_fuzz(summary: &FuzzSummary) -> String {
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
    let mut out = table.render();
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
    if let Some(f) = &summary.failure {
        out.push_str(&format!(
            "FAILURE at seed {}: {} violation(s); shrunk {} -> {} fault events in {} replay probes\n",
            f.seed,
            f.violations.len(),
            f.original_events,
            f.shrunk.events.len(),
            f.probes,
        ));
        for v in &f.shrunk_violations {
            out.push_str(&format!("  shrunk repro still violates: {v}\n"));
        }
    }
    out
}

/// Renders one wait-time cell (a sub-figure of Fig 5/6) as the CDF
/// table the paper plots: rows are wait-time thresholds, columns the
/// three schemes' cumulative percentages.
pub fn render_wait_cell(param_name: &str, cell: &WaitTimeCell) -> String {
    let cdfs: Vec<Cdf> = cell.results.iter().map(|r| r.cdf()).collect();
    let max_wait = cdfs
        .iter()
        .filter_map(|c| c.max())
        .fold(0.0f64, f64::max)
        .max(1.0);
    let mut table = Table::new(["wait(s)", "can-het(%)", "can-hom(%)", "central(%)"]);
    // The paper plots 0..50000 s; sample a comparable ladder.
    let thresholds = [
        0.0, 500.0, 1000.0, 2000.0, 5000.0, 10_000.0, 20_000.0, 30_000.0, 40_000.0, 50_000.0,
    ];
    for &x in thresholds.iter().filter(|&&x| x <= max_wait * 1.5 + 1.0) {
        let row: Vec<String> = std::iter::once(format!("{x:.0}"))
            .chain(
                cdfs.iter()
                    .map(|c| format!("{:.2}", 100.0 * c.fraction_at(x))),
            )
            .collect();
        table.row(row);
    }
    let mut out = format!("--- {param_name} = {} ---\n", cell.parameter);
    out.push_str(&table.render());
    for (r, c) in cell.results.iter().zip(&cdfs) {
        out.push_str(&format!(
            "{:>8}: mean wait {:>8.1}s  p95 {:>8.1}s  p99 {:>9.1}s  zero-wait {:>5.1}%  pushes/job {:.2}  fallbacks {}\n",
            r.scheduler.label(),
            r.mean_wait(),
            c.quantile(0.95),
            c.quantile(0.99),
            100.0 * c.fraction_zero(),
            r.pushes.mean(),
            r.fallback_placements,
        ));
    }
    out
}

/// Writes the full CDF curves of a set of wait-time cells to CSV.
pub fn save_wait_csv(path: &Path, param_name: &str, cells: &[WaitTimeCell]) -> std::io::Result<()> {
    let mut csv = CsvWriter::new(&[param_name, "scheme", "wait_s", "cum_percent"]);
    for cell in cells {
        for r in &cell.results {
            let cdf = r.cdf();
            let x_max = cdf.max().unwrap_or(0.0).max(1.0);
            for (x, pct) in cdf.curve(x_max, 200) {
                csv.row(&[
                    &format!("{}", cell.parameter),
                    r.scheduler.label(),
                    &format!("{x:.1}"),
                    &format!("{pct:.3}"),
                ]);
            }
        }
    }
    csv.save(path)
}

/// Renders Figure 7's series as a table (time vs broken links per
/// scheme).
pub fn render_fig7(reports: &[ChurnReport]) -> String {
    let mut table = Table::new(["time(s)", "Vanilla", "Compact", "Adaptive"]);
    let len = reports
        .iter()
        .map(|r| r.broken_series.len())
        .min()
        .unwrap_or(0);
    for i in 0..len {
        let t = reports[0].broken_series[i].time;
        let row: Vec<String> = std::iter::once(format!("{t:.0}"))
            .chain(
                reports
                    .iter()
                    .map(|r| r.broken_series[i].broken_links.to_string()),
            )
            .collect();
        table.row(row);
    }
    let mut out = table.render();
    out.push('\n');
    for r in reports {
        out.push_str(&format!(
            "{:>8}: steady-state broken links {:>7.1}  (nodes {}, mean degree {:.1}, repairs {}, full-update rounds {})\n",
            r.scheme.label(),
            r.steady_broken_links(),
            r.final_nodes,
            r.mean_degree,
            r.repairs,
            r.full_update_rounds,
        ));
    }
    out
}

/// Writes Figure 7's series to CSV.
pub fn save_fig7_csv(path: &Path, reports: &[ChurnReport]) -> std::io::Result<()> {
    let mut csv = CsvWriter::new(&["scheme", "time_s", "broken_links", "nodes"]);
    for r in reports {
        for s in &r.broken_series {
            csv.row(&[
                r.scheme.label(),
                &format!("{:.0}", s.time),
                &s.broken_links.to_string(),
                &s.nodes.to_string(),
            ]);
        }
    }
    csv.save(path)
}

/// Renders Figure 8 as two tables (message count and volume per node
/// per minute vs dimensions), one column per scheme-nodes combination —
/// the same series as the paper's legend (e.g. "Vanilla-1000").
pub fn render_fig8(cells: &[CostCell]) -> String {
    let mut dims: Vec<usize> = cells.iter().map(|c| c.dims).collect();
    dims.sort_unstable();
    dims.dedup();
    let mut series: Vec<(HeartbeatScheme, usize)> =
        cells.iter().map(|c| (c.scheme, c.nodes)).collect();
    series.sort_by_key(|&(s, n)| (s.label(), n));
    series.dedup();

    let find = |scheme, d, n| {
        cells
            .iter()
            .find(|c| c.scheme == scheme && c.dims == d && c.nodes == n)
            .expect("cell present")
    };
    let mut out = String::new();
    for (title, metric) in [
        ("(a) Number of messages per node per minute", 0),
        ("(b) Volume of messages (KB) per node per minute", 1),
    ] {
        out.push_str(&format!("--- Figure 8{title} ---\n"));
        let mut headers = vec!["dims".to_string()];
        headers.extend(series.iter().map(|&(s, n)| format!("{}-{}", s.label(), n)));
        let mut table = Table::new(headers);
        for &d in &dims {
            let mut row = vec![d.to_string()];
            for &(s, n) in &series {
                let c = find(s, d, n);
                let v = if metric == 0 {
                    c.msgs_per_node_min
                } else {
                    c.kb_per_node_min
                };
                row.push(format!("{v:.1}"));
            }
            table.row(row);
        }
        out.push_str(&table.render());
        out.push('\n');
    }
    out
}

/// Writes Figure 8's cells to CSV.
pub fn save_fig8_csv(path: &Path, cells: &[CostCell]) -> std::io::Result<()> {
    let mut csv = CsvWriter::new(&[
        "scheme",
        "dims",
        "nodes",
        "msgs_per_node_min",
        "kb_per_node_min",
        "mean_degree",
    ]);
    for c in cells {
        csv.row(&[
            c.scheme.label(),
            &c.dims.to_string(),
            &c.nodes.to_string(),
            &format!("{:.3}", c.msgs_per_node_min),
            &format!("{:.3}", c.kb_per_node_min),
            &format!("{:.2}", c.mean_degree),
        ]);
    }
    csv.save(path)
}

/// Renders the chaos-resilience table: one row per scenario x scheme,
/// with link damage, healing outcome, fault-layer drop counts, repair
/// traffic and invariant verdicts.
pub fn render_chaos(rows: &[ChaosRow]) -> String {
    let mut table = Table::new([
        "scenario",
        "scheme",
        "broken peak",
        "broken after",
        "gaps after",
        "recovery(s)",
        "relearn(hb)",
        "dropped",
        "repairs",
        "probes",
        "msgs/node/min",
        "verdict",
    ]);
    for row in rows {
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
            r.relearn_mean_heartbeats
                .map(|m| format!("{m:.2}"))
                .unwrap_or_else(|| "-".into()),
            r.dropped_messages.to_string(),
            r.repair_messages.to_string(),
            r.gap_probes.to_string(),
            format!("{:.1}", r.msgs_per_node_min),
            if r.violations.is_empty() {
                "ok".to_string()
            } else {
                format!("{} VIOLATIONS", r.violations.len())
            },
        ]);
    }
    table.render()
}

/// Writes the chaos-resilience table to CSV.
pub fn save_chaos_csv(path: &Path, rows: &[ChaosRow]) -> std::io::Result<()> {
    let mut csv = CsvWriter::new(&[
        "scenario",
        "scheme",
        "broken_peak",
        "broken_after",
        "gaps_after",
        "recovery_s",
        "dropped_messages",
        "partition_drops",
        "frozen_drops",
        "repair_messages",
        "gap_probes",
        "relearn_mean_hb",
        "relearn_unresolved",
        "msgs_per_node_min",
        "violations",
    ]);
    for row in rows {
        let r = &row.report;
        csv.row(&[
            row.scenario,
            row.scheme.label(),
            &r.broken_peak.to_string(),
            &r.broken_after.to_string(),
            &r.gaps_after.to_string(),
            &r.recovery_time
                .map(|t| format!("{t:.0}"))
                .unwrap_or_default(),
            &r.dropped_messages.to_string(),
            &r.partition_drops.to_string(),
            &r.frozen_drops.to_string(),
            &r.repair_messages.to_string(),
            &r.gap_probes.to_string(),
            &r.relearn_mean_heartbeats
                .map(|m| format!("{m:.3}"))
                .unwrap_or_default(),
            &r.relearn_unresolved.to_string(),
            &format!("{:.2}", r.msgs_per_node_min),
            &r.violations.len().to_string(),
        ]);
    }
    csv.save(path)
}

/// Renders the warm-standby takeover sweep: two rows per scheme
/// (vanilla arm, then replicated), with promotion/fence counters, the
/// re-learn window, and post-crash misdirection — plus a pooled
/// summary line comparing the two arms across every scheme.
pub fn render_takeover(cells: &[TakeoverCell]) -> String {
    let mut table = Table::new([
        "scheme",
        "arm",
        "takeovers",
        "promoted",
        "fenced",
        "agg",
        "relearn(hb)",
        "unresolved",
        "misdirect",
        "msgs/node/min",
        "verdict",
    ]);
    for c in cells {
        for arm in [&c.vanilla, &c.replicated] {
            table.row([
                c.scheme.label().to_string(),
                if arm.replicated {
                    "replicated".to_string()
                } else {
                    "vanilla".to_string()
                },
                arm.takeovers.to_string(),
                arm.replica_promotions.to_string(),
                arm.stale_replica_rejects.to_string(),
                arm.agg_promotions.to_string(),
                arm.relearn_mean_heartbeats
                    .map(|m| format!("{m:.2}"))
                    .unwrap_or_else(|| "-".into()),
                arm.relearn_unresolved.to_string(),
                format!("{:.1}%", 100.0 * arm.misdirect_rate),
                format!("{:.1}", arm.msgs_per_node_min),
                if arm.violations.is_empty() {
                    "ok".to_string()
                } else {
                    format!("{} VIOLATIONS", arm.violations.len())
                },
            ]);
        }
    }
    let pooled = |pick: fn(&TakeoverCell) -> &TakeoverArm| {
        let resolved: usize = cells.iter().map(|c| pick(c).relearn_resolved).sum();
        cells
            .iter()
            .filter_map(|c| {
                pick(c)
                    .relearn_mean_heartbeats
                    .map(|m| m * pick(c).relearn_resolved as f64)
            })
            .sum::<f64>()
            / resolved.max(1) as f64
    };
    let mut out = table.render();
    out.push_str(&format!(
        "pooled re-learn window: vanilla {:.2} heartbeats, replicated {:.2} heartbeats\n",
        pooled(|c| &c.vanilla),
        pooled(|c| &c.replicated),
    ));
    out
}

/// Writes the takeover sweep to CSV, one row per scheme × arm.
pub fn save_takeover_csv(path: &Path, cells: &[TakeoverCell]) -> std::io::Result<()> {
    let mut csv = CsvWriter::new(&[
        "scheme",
        "arm",
        "takeovers",
        "replica_promotions",
        "stale_replica_rejects",
        "agg_promotions",
        "relearn_mean_hb",
        "relearn_resolved",
        "relearn_unresolved",
        "misdirect_rate",
        "broken_peak",
        "msgs_per_node_min",
        "violations",
    ]);
    for c in cells {
        for arm in [&c.vanilla, &c.replicated] {
            csv.row(&[
                c.scheme.label(),
                if arm.replicated {
                    "replicated"
                } else {
                    "vanilla"
                },
                &arm.takeovers.to_string(),
                &arm.replica_promotions.to_string(),
                &arm.stale_replica_rejects.to_string(),
                &arm.agg_promotions.to_string(),
                &arm.relearn_mean_heartbeats
                    .map(|m| format!("{m:.3}"))
                    .unwrap_or_default(),
                &arm.relearn_resolved.to_string(),
                &arm.relearn_unresolved.to_string(),
                &format!("{:.4}", arm.misdirect_rate),
                &arm.broken_peak.to_string(),
                &format!("{:.2}", arm.msgs_per_node_min),
                &arm.violations.len().to_string(),
            ]);
        }
    }
    csv.save(path)
}

/// Renders the failure-detector sweep: two rows per jitter × freeze
/// cell (fixed rule, then adaptive), plus a false-positive summary
/// line comparing the two rules across the whole sweep.
pub fn render_detector(cells: &[DetectorCell]) -> String {
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
        "broken link-s",
        "stale KAs",
    ]);
    for c in cells {
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
                format!("{:.0}", arm.broken_link_seconds),
                arm.stale_keepalives.to_string(),
            ]);
        }
    }
    let fixed_fp: u64 = cells.iter().map(|c| c.fixed.false_expulsions).sum();
    let adaptive_fp: u64 = cells.iter().map(|c| c.adaptive.false_expulsions).sum();
    let mut out = table.render();
    out.push_str(&format!(
        "false-positive expulsions across the sweep: fixed {fixed_fp}, adaptive {adaptive_fp}\n"
    ));
    out
}

/// Writes the detector sweep to CSV, one row per cell × rule.
pub fn save_detector_csv(path: &Path, cells: &[DetectorCell]) -> std::io::Result<()> {
    let mut csv = CsvWriter::new(&[
        "link_stress",
        "freeze_s",
        "rule",
        "suspicions",
        "probe_requests",
        "live_expulsions",
        "false_expulsions",
        "revivals",
        "detection_lag_s",
        "broken_link_seconds",
        "stale_keepalives",
    ]);
    for c in cells {
        for arm in [&c.fixed, &c.adaptive] {
            csv.row(&[
                &format!("{}", c.link_stress),
                &format!("{}", c.freeze_secs),
                arm.mode.label(),
                &arm.suspicions.to_string(),
                &arm.probe_requests.to_string(),
                &arm.live_expulsions.to_string(),
                &arm.false_expulsions.to_string(),
                &arm.revivals.to_string(),
                &arm.detection_lag
                    .map(|l| format!("{l:.2}"))
                    .unwrap_or_default(),
                &format!("{:.1}", arm.broken_link_seconds),
                &arm.stale_keepalives.to_string(),
            ]);
        }
    }
    csv.save(path)
}

/// Renders the crash-recovery table: one row per scheduler under
/// fail-stop crashes, with the job-conservation ledger armed.
pub fn render_crash_recovery(cells: &[pgrid::experiments::CrashRecoveryCell]) -> String {
    let mut table = Table::new([
        "scheduler",
        "crashes",
        "killed run/queued",
        "requeued",
        "failed",
        "completed",
        "wasted(s)",
        "wait calm(s)",
        "wait chaos(s)",
    ]);
    for c in cells {
        table.row([
            c.choice.label().to_string(),
            c.stats.crashes.to_string(),
            format!("{}/{}", c.stats.killed_running, c.stats.killed_queued),
            c.stats.requeued.to_string(),
            c.stats.permanently_failed.to_string(),
            c.completed.to_string(),
            format!("{:.0}", c.stats.wasted_seconds),
            format!("{:.1}", c.calm_mean_wait),
            format!("{:.1}", c.chaos_mean_wait),
        ]);
    }
    table.render()
}

/// Saves one SVG per wait-time cell (the Figure 5/6 sub-plots), with
/// the paper's 80–100% CDF window.
pub fn save_wait_svgs(
    dir: &Path,
    fig: &str,
    param_name: &str,
    cells: &[WaitTimeCell],
) -> std::io::Result<Vec<std::path::PathBuf>> {
    let mut paths = Vec::new();
    for cell in cells {
        let mut chart = pgrid::metrics::LineChart::new(
            format!("CDF of job wait time ({param_name} = {})", cell.parameter),
            "job wait time (s)",
            "jobs with wait \u{2264} x (%)",
        );
        chart.y_min = Some(80.0);
        chart.y_max = Some(100.0);
        let x_max = cell
            .results
            .iter()
            .filter_map(|r| r.cdf().max())
            .fold(0.0f64, f64::max)
            .clamp(1.0, 50_000.0);
        for r in &cell.results {
            chart.series(r.scheduler.label(), r.cdf().curve(x_max, 160));
        }
        let path = dir.join(format!("{fig}_{}.svg", cell.parameter));
        chart.save(&path)?;
        paths.push(path);
    }
    Ok(paths)
}

/// Saves Figure 7's broken-link series as one SVG.
pub fn save_fig7_svg(path: &Path, reports: &[ChurnReport]) -> std::io::Result<()> {
    let mut chart = pgrid::metrics::LineChart::new(
        "Broken links under high churn (11-dim CAN)",
        "elapsed time (s)",
        "broken links",
    );
    for r in reports {
        chart.series(
            r.scheme.label(),
            r.broken_series
                .iter()
                .map(|s| (s.time, s.broken_links as f64))
                .collect(),
        );
    }
    chart.save(path)
}

/// Saves Figure 8 as two SVGs (message count and volume vs dims), one
/// line per scheme at the largest population.
pub fn save_fig8_svgs(dir: &Path, cells: &[CostCell]) -> std::io::Result<()> {
    let n = cells.iter().map(|c| c.nodes).max().unwrap_or(0);
    for (file, title, ylabel, metric) in [
        (
            "fig8a.svg",
            "Heartbeat messages per node per minute",
            "messages / node / min",
            0,
        ),
        (
            "fig8b.svg",
            "Heartbeat volume per node per minute",
            "KB / node / min",
            1,
        ),
    ] {
        let mut chart = pgrid::metrics::LineChart::new(
            format!("{title} ({n} nodes)"),
            "CAN dimensions",
            ylabel,
        );
        for scheme in HeartbeatScheme::ALL {
            let mut pts: Vec<(f64, f64)> = cells
                .iter()
                .filter(|c| c.scheme == scheme && c.nodes == n)
                .map(|c| {
                    (
                        c.dims as f64,
                        if metric == 0 {
                            c.msgs_per_node_min
                        } else {
                            c.kb_per_node_min
                        },
                    )
                })
                .collect();
            pts.sort_by(|a, b| a.0.total_cmp(&b.0));
            chart.series(format!("{}-{n}", scheme.label()), pts);
        }
        chart.save(dir.join(file))?;
    }
    Ok(())
}

/// Minimal timing harness for the `benches/` targets and the `perf`
/// bin — a plain stopwatch loop (no external benchmark framework, so
/// the workspace builds fully offline).
pub mod stopwatch {
    use std::time::Instant;

    /// Wall-clock and per-iteration stats of one measured case.
    #[derive(Debug, Clone)]
    pub struct Measurement {
        /// Case label, e.g. `"can/route_1000_nodes_11d"`.
        pub label: String,
        /// Iterations timed.
        pub iters: u64,
        /// Total wall-clock across all iterations, in seconds.
        pub total_secs: f64,
        /// Mean seconds per iteration.
        pub secs_per_iter: f64,
    }

    impl Measurement {
        /// One-line human rendering (`label  mean/iter  total`).
        pub fn render(&self) -> String {
            format!(
                "{:<44} {:>12}  ({} iters, {:.3} s total)",
                self.label,
                human_duration(self.secs_per_iter),
                self.iters,
                self.total_secs
            )
        }
    }

    /// Formats a duration in adaptive units (ns/µs/ms/s).
    pub fn human_duration(secs: f64) -> String {
        if secs < 1e-6 {
            format!("{:.1} ns", secs * 1e9)
        } else if secs < 1e-3 {
            format!("{:.2} µs", secs * 1e6)
        } else if secs < 1.0 {
            format!("{:.2} ms", secs * 1e3)
        } else {
            format!("{secs:.3} s")
        }
    }

    /// Times `iters` calls of `f` (after one untimed warm-up call) and
    /// prints + returns the measurement. `f`'s return value is passed
    /// through `std::hint::black_box` so the work can't be optimised
    /// away.
    pub fn bench<R>(label: &str, iters: u64, mut f: impl FnMut() -> R) -> Measurement {
        assert!(iters > 0);
        std::hint::black_box(f());
        let start = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(f());
        }
        let total_secs = start.elapsed().as_secs_f64();
        let m = Measurement {
            label: label.to_string(),
            iters,
            total_secs,
            secs_per_iter: total_secs / iters as f64,
        };
        println!("{}", m.render());
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgrid::experiments;

    /// Holds a saved table's exact bytes to a pinned FNV-1a digest. The
    /// chaos, takeover and detector digests were recorded from the
    /// scripted chaos runner (the `can::chaos` module) and the detector
    /// sweep's private bootstrap, immediately before both were replaced
    /// by `can::dst::run_schedule` / `can::dst::bootstrap`: the one
    /// executor reproduces every published row byte for byte. Re-record
    /// (`PGRID_PRINT_DIGESTS=1 cargo test -p pgrid-bench --lib
    /// _render_and_csv -- --nocapture`) only for a change that is
    /// *supposed* to alter a table, never for a refactor.
    fn assert_csv_pinned(path: &Path, expect: u64) {
        let bytes = std::fs::read(path).expect("read csv back");
        assert_bytes_pinned(&path.display().to_string(), &bytes, expect);
    }

    /// The same hold on a rendered text table — what `--quick` prints at
    /// the default seed, recorded on the hand-written `render_*`
    /// functions before the column lists replaced them.
    fn assert_text_pinned(what: &str, text: &str, expect: u64) {
        assert_bytes_pinned(what, text.as_bytes(), expect);
    }

    fn assert_bytes_pinned(what: &str, bytes: &[u8], expect: u64) {
        let mut h = pgrid::simcore::Fnv::new();
        h.write(bytes);
        if std::env::var_os("PGRID_PRINT_DIGESTS").is_some() {
            println!("{what}: 0x{:016x}", h.finish());
            return;
        }
        assert_eq!(
            h.finish(),
            expect,
            "{what}: a published table moved (pinned 0x{expect:016x})"
        );
    }

    fn tiny_cells() -> Vec<WaitTimeCell> {
        let mut s = default_scenario().scaled_down(20);
        s.jobs = 200;
        let results: Vec<SimResult> = SchedulerChoice::ALL
            .into_iter()
            .map(|c| run_load_balance(&s, c))
            .collect();
        vec![WaitTimeCell {
            parameter: 3.0,
            results,
        }]
    }

    #[test]
    fn parse_args_accepts_known_flags_and_rejects_typos() {
        let to_v = |raw: &[&str]| raw.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let (scale, out) = parse_args(&to_v(&["--quick", "--out", "/tmp/x"])).unwrap();
        assert_eq!(scale, Scale::Quick);
        assert_eq!(out, PathBuf::from("/tmp/x"));
        let (scale, out) = parse_args(&[]).unwrap();
        assert_eq!(scale, Scale::Paper);
        assert_eq!(out, PathBuf::from("results"));
        // A typo'd flag must fail fast, not silently launch a
        // paper-scale run.
        assert!(parse_args(&to_v(&["--qiuck"])).is_err());
        assert!(parse_args(&to_v(&["--out"])).is_err());
        assert!(parse_args(&to_v(&["extra"])).is_err());
    }

    #[test]
    fn seeded_parser_is_strict() {
        let to_v = |raw: &[&str]| raw.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let args = parse_seeded_args(
            &to_v(&[
                "--quick", "--out", "/tmp/x", "--seed", "7", "--seeds", "12", "--budget", "30",
            ]),
            true,
        )
        .unwrap();
        assert_eq!(args.scale, Scale::Quick);
        assert_eq!(args.out, PathBuf::from("/tmp/x"));
        assert_eq!(args.seed, Some(7));
        assert_eq!(args.seeds, Some(12));
        assert_eq!(args.budget, Some(30.0));

        let args = parse_seeded_args(&[], false).unwrap();
        assert_eq!(args.scale, Scale::Paper);
        assert_eq!(args.seed, None);

        // Unknown flags, missing values, and garbage numbers fail fast.
        assert!(parse_seeded_args(&to_v(&["--sede", "7"]), true).is_err());
        assert!(parse_seeded_args(&to_v(&["--seed"]), true).is_err());
        assert!(parse_seeded_args(&to_v(&["--seed", "-1"]), true).is_err());
        assert!(parse_seeded_args(&to_v(&["--seeds", "0"]), true).is_err());
        assert!(parse_seeded_args(&to_v(&["--budget", "0"]), true).is_err());
        assert!(parse_seeded_args(&to_v(&["--budget", "inf"]), true).is_err());
        // --seeds is fuzz-only: the chaos binary must reject it.
        assert!(parse_seeded_args(&to_v(&["--seeds", "4"]), false).is_err());
    }

    #[test]
    fn fuzz_render_covers_clean_and_failing_sweeps() {
        let mut cfg = pgrid::fuzz::FuzzConfig::new(100, 2);
        cfg.wall_budget = 600.0;
        let summary = pgrid::fuzz::fuzz_search(&cfg);
        assert!(summary.failure.is_none(), "{:#?}", summary.failure);
        let text = render_fuzz(&summary);
        assert!(text.contains("clean seeds: 2/2 requested"));
        assert!(text.contains("broken peak"));

        // A synthetic failure renders the shrink statistics.
        let shrunk = pgrid::simcore::dst::generate(100, &ScheduleBudget::smoke());
        let failing = FuzzSummary {
            runs: Vec::new(),
            failure: Some(FuzzFailure {
                seed: 9,
                violations: vec!["CAN: oops".into()],
                shrunk,
                shrunk_violations: vec!["CAN: oops".into()],
                original_events: 4,
                probes: 17,
            }),
            seeds_requested: 5,
            hit_wall_budget: false,
        };
        let text = render_fuzz(&failing);
        assert!(text.contains("FAILURE at seed 9"));
        assert!(text.contains("17 replay probes"));
        assert!(text.contains("shrunk repro still violates: CAN: oops"));
    }

    #[test]
    fn chaos_render_and_csv() {
        let reports = experiments::chaos_suite(Scale::Quick, experiments::CHAOS_SEED);
        assert_eq!(reports.len(), 9, "3 scenarios x 3 schemes");
        let text = render_chaos(&reports);
        assert_text_pinned("chaos table (quick)", &text, 0x0a0d_378f_4e3e_bed0);
        assert!(text.contains("flash-crowd"));
        assert!(text.contains("rolling-partition"));
        assert!(text.contains("lossy-churn"));
        assert!(text.contains("Adaptive"));
        assert!(text.contains("relearn(hb)"));
        let dir = std::env::temp_dir().join("pgrid_bench_lib_test");
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("chaos.csv");
        save_chaos_csv(&csv, &reports).unwrap();
        assert_csv_pinned(&csv, 0x216d_bd2a_012a_32a8);
        let body = std::fs::read_to_string(&csv).unwrap();
        assert!(body.starts_with("scenario,scheme,broken_peak"));
        assert!(body.lines().next().unwrap().contains("relearn_mean_hb"));
        assert_eq!(body.lines().count(), 10);
        let paper = experiments::chaos_suite(Scale::Paper, experiments::CHAOS_SEED);
        save_chaos_csv(&csv, &paper).unwrap();
        assert_csv_pinned(&csv, 0x3ae3_ac59_13c8_2c69);
        // Adaptive is self-healing: it must come back clean.
        for r in reports
            .iter()
            .filter(|r| r.scheme == HeartbeatScheme::Adaptive)
        {
            assert!(
                r.report.violations.is_empty(),
                "{}: {:?}",
                r.scenario,
                r.report.violations
            );
            assert_eq!(r.report.broken_after, 0, "{}", r.scenario);
        }
    }

    #[test]
    fn scenario_parser_list_and_render_csv() {
        let to_v = |raw: &[&str]| raw.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let args = parse_scenario_args(&to_v(&[
            "--quick",
            "--out",
            "/tmp/x",
            "--seed",
            "9",
            "--scenario",
            "storm",
            "--list",
        ]))
        .unwrap();
        assert_eq!(args.scale, Scale::Quick);
        assert_eq!(args.out, PathBuf::from("/tmp/x"));
        assert_eq!(args.seed, Some(9));
        assert_eq!(args.filter.as_deref(), Some("storm"));
        assert!(args.list);
        assert!(parse_scenario_args(&to_v(&["--scenairo", "x"])).is_err());
        assert!(parse_scenario_args(&to_v(&["--scenario"])).is_err());
        assert!(parse_scenario_args(&to_v(&["--seed", "nope"])).is_err());

        let listing = pgrid::scenarios::listing();
        for spec in pgrid::scenarios::REGISTRY {
            assert!(listing.contains(spec.name), "listing misses {}", spec.name);
        }

        // One cheap cell through render + CSV.
        let specs = pgrid::scenarios::matching("gray-failure");
        let cells =
            experiments::scenario_suite_over(Scale::Quick, experiments::SCENARIO_SEED, &specs);
        let text = render_scenarios(&cells);
        assert!(text.contains("gray-failure"));
        assert!(text.contains("relearn(hb)"));
        assert!(text.contains("ok"));
        let dir = std::env::temp_dir().join("pgrid_bench_lib_test");
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("scenarios.csv");
        save_scenarios_csv(&csv, &cells).unwrap();
        let body = std::fs::read_to_string(&csv).unwrap();
        assert!(body.starts_with("scenario,scheme,broken_peak"));
        assert_eq!(body.lines().count(), 1 + HeartbeatScheme::ALL.len());
    }

    #[test]
    fn scenarios_render_and_csv() {
        let specs = pgrid::scenarios::matching("");
        let cells =
            experiments::scenario_suite_over(Scale::Quick, experiments::SCENARIO_SEED, &specs);
        assert_eq!(cells.len(), pgrid::scenarios::REGISTRY.len());
        let text = render_scenarios(&cells);
        assert_text_pinned("scenarios table (quick)", &text, 0x2300_254b_b683_fbbb);
        let dir = std::env::temp_dir().join("pgrid_bench_lib_test");
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("scenarios_resilience.csv");
        save_scenarios_csv(&csv, &cells).unwrap();
        assert_csv_pinned(&csv, 0x84f8_c5db_8abc_fcd6);
    }

    #[test]
    fn takeover_render_and_csv() {
        let cells = experiments::takeover_suite(Scale::Quick, experiments::TAKEOVER_SEED);
        assert_eq!(cells.len(), 3, "one cell per heartbeat scheme");
        let text = render_takeover(&cells);
        assert_text_pinned("takeover table (quick)", &text, 0xb74c_ab3c_a2e4_1057);
        assert!(text.contains("vanilla"));
        assert!(text.contains("replicated"));
        assert!(text.contains("relearn(hb)"));
        assert!(text.contains("pooled re-learn window"));
        let dir = std::env::temp_dir().join("pgrid_bench_lib_test");
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("takeover.csv");
        save_takeover_csv(&csv, &cells).unwrap();
        assert_csv_pinned(&csv, 0x7d8e_3904_3a37_9459);
        let body = std::fs::read_to_string(&csv).unwrap();
        assert!(body.starts_with("scheme,arm,takeovers"));
        assert_eq!(body.lines().count(), 1 + 2 * cells.len());
        let paper = experiments::takeover_suite(Scale::Paper, experiments::TAKEOVER_SEED);
        save_takeover_csv(&csv, &paper).unwrap();
        assert_csv_pinned(&csv, 0x4059_be44_91d7_58eb);
    }

    #[test]
    fn detector_render_and_csv() {
        let cells = experiments::detector_suite(Scale::Quick, experiments::DETECTOR_SEED);
        let text = render_detector(&cells);
        assert_text_pinned("detector table (quick)", &text, 0xb94c_170a_c821_c8de);
        assert!(text.contains("false pos"));
        assert!(text.contains("fixed"));
        assert!(text.contains("adaptive"));
        assert!(text.contains("false-positive expulsions across the sweep"));
        let dir = std::env::temp_dir().join("pgrid_bench_lib_test");
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("detector.csv");
        save_detector_csv(&csv, &cells).unwrap();
        assert_csv_pinned(&csv, 0xd5e3_7580_c981_5833);
        let body = std::fs::read_to_string(&csv).unwrap();
        assert!(body.starts_with("link_stress,freeze_s,rule"));
        assert_eq!(body.lines().count(), 1 + 2 * cells.len());
    }

    #[test]
    fn crash_recovery_renders_all_schedulers() {
        let mut s = default_scenario().scaled_down(20);
        s.jobs = 200;
        let chaos = pgrid::sched::CrashChaosConfig::new(500.0);
        let cells: Vec<pgrid::experiments::CrashRecoveryCell> = SchedulerChoice::ALL
            .into_iter()
            .map(|choice| {
                let calm = run_load_balance(&s, choice);
                let stormy = pgrid::sched::run_load_balance_chaos(&s, choice, &chaos);
                pgrid::experiments::CrashRecoveryCell {
                    choice,
                    calm_mean_wait: calm.mean_wait(),
                    chaos_mean_wait: stormy.mean_wait(),
                    completed: stormy.wait_times.len(),
                    stats: stormy.recovery.unwrap(),
                }
            })
            .collect();
        let text = render_crash_recovery(&cells);
        assert!(text.contains("can-het"));
        assert!(text.contains("crashes"));
        assert!(text.contains("requeued"));
    }

    #[test]
    fn wait_cell_renders_all_schemes() {
        let cells = tiny_cells();
        let text = render_wait_cell("inter-arrival (s)", &cells[0]);
        assert!(text.contains("can-het"));
        assert!(text.contains("can-hom"));
        assert!(text.contains("central"));
        assert!(text.contains("wait(s)"));
    }

    #[test]
    fn wait_csv_and_svg_files_written() {
        let cells = tiny_cells();
        let dir = std::env::temp_dir().join("pgrid_bench_lib_test");
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("w.csv");
        save_wait_csv(&csv, "p", &cells).unwrap();
        let text = std::fs::read_to_string(&csv).unwrap();
        assert!(text.starts_with("p,scheme,wait_s,cum_percent"));
        assert!(text.lines().count() > 100);
        let svgs = save_wait_svgs(&dir, "figX", "p", &cells).unwrap();
        assert_eq!(svgs.len(), 1);
        let svg = std::fs::read_to_string(&svgs[0]).unwrap();
        assert!(svg.contains("</svg>"));
        assert!(svg.contains("can-hom"));
    }

    #[test]
    fn fig7_render_and_files() {
        let reports = experiments::fig7(Scale::Quick);
        let text = render_fig7(&reports);
        assert!(text.contains("Vanilla"));
        assert!(text.contains("steady-state broken links"));
        let dir = std::env::temp_dir().join("pgrid_bench_lib_test");
        std::fs::create_dir_all(&dir).unwrap();
        save_fig7_csv(&dir.join("f7.csv"), &reports).unwrap();
        save_fig7_svg(&dir.join("f7.svg"), &reports).unwrap();
        let svg = std::fs::read_to_string(dir.join("f7.svg")).unwrap();
        assert!(svg.contains("Adaptive"));
    }

    #[test]
    fn fig8_render_and_files() {
        let cells = experiments::fig8(Scale::Quick);
        let text = render_fig8(&cells);
        assert!(text.contains("Figure 8(a)"));
        assert!(text.contains("Figure 8(b)"));
        let dir = std::env::temp_dir().join("pgrid_bench_lib_test");
        std::fs::create_dir_all(&dir).unwrap();
        save_fig8_csv(&dir.join("f8.csv"), &cells).unwrap();
        save_fig8_svgs(&dir, &cells).unwrap();
        assert!(dir.join("fig8a.svg").exists());
        assert!(dir.join("fig8b.svg").exists());
    }
}
