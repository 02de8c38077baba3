//! The figure regenerators behind `pgrid figure`: Figures 5–8 of the
//! paper's evaluation (§V), the §IV-A scaling fit, the §III-B
//! ingredient ablation and the extension experiments, in one
//! [`REGISTRY`]. Each entry returns what it prints and writes its CSV
//! and SVG files under `--out`; `--quick` selects the reduced scale of
//! [`pgrid::experiments`].
//!
//! The extension tables declare their columns once ([`Columns`]). The
//! Figure 5–8 tables are pivots — one column per scheme, or per
//! scheme-population pair — and build their [`Table`] directly.

use crate::args::Args;
use crate::commands::{out_dir_from, save_under, scale_from};
use crate::CliError;
use pgrid::can::{routing::local_routing_success, run_churn_sim};
use pgrid::experiments::{
    replicate_broken_links, replicate_waits, scaling_exponent, scenario_for, CostCell, Replicated,
    ReplicatedWaits, WaitTimeCell,
};
use pgrid::metrics::{Cell, Column, Columns, LineChart, RectMap};
use pgrid::prelude::*;
use pgrid::sched::timeshare::{run_time_shared, TsPolicy, TsResult};
use std::fmt::Write as _;
use std::path::Path;

/// One registered figure.
pub struct Figure {
    /// Its name on the command line.
    pub name: &'static str,
    /// What it shows, for `pgrid help` and `pgrid info`.
    pub about: &'static str,
    run: fn(Scale, &Path) -> Result<String, String>,
}

/// Declares [`REGISTRY`]; each figure runs the function of its name.
macro_rules! registry {
    ($($name:ident: $about:literal,)*) => {
        /// Every figure, in the order `pgrid figure all` runs them.
        pub const REGISTRY: &[Figure] = &[$(Figure {
            name: stringify!($name),
            about: $about,
            run: $name,
        }),*];
    };
}

registry! {
    fig5: "wait-time CDFs vs inter-arrival time (Figure 5)",
    fig6: "wait-time CDFs vs job constraint ratio (Figure 6)",
    fig7: "broken links over time under high churn (Figure 7)",
    fig8: "heartbeat count and volume vs dimensions (Figure 8)",
    scaling_fit: "log-log fits of the O(d) / O(d^2) claims (§IV-A)",
    ablation: "can-het with each ingredient disabled (§III-B)",
    sf_sweep: "stopping-factor (Eq. 4) sensitivity",
    lossy_network: "heartbeat schemes on lossy links",
    routing_under_churn: "what broken links cost greedy lookups",
    future_gpus: "dedicated (2011) vs shared GPUs",
    contention_model: "processor-sharing slowdown by placement policy",
    confidence: "Figures 5 and 7 as mean ± stddev over five seeds",
    eviction: "wait times under volunteer desktop reclaims",
    zonemap: "2-D CAN zones as nodes join and leave (Figures 1-3)",
}

/// `pgrid figure NAME|all [--quick] [--out DIR]`
pub fn figure(rest: &[String]) -> Result<String, CliError> {
    let names: Vec<&str> = REGISTRY.iter().map(|f| f.name).collect();
    let known = || format!("{} | all", names.join(" | "));
    let Some(name) = rest.first() else {
        return Err(format!("figure needs a name: {}", known()).into());
    };
    let chosen: Vec<&Figure> = match name.as_str() {
        "all" => REGISTRY.iter().collect(),
        _ => match REGISTRY.iter().find(|f| f.name == name) {
            Some(f) => vec![f],
            None => return Err(format!("unknown figure '{name}' ({})", known()).into()),
        },
    };
    let args = Args::parse(&rest[1..])?;
    let scale = scale_from(&args);
    let out = out_dir_from(&args);
    args.reject_unknown()?;
    let mut text = String::new();
    for f in chosen {
        if name == "all" {
            let _ = write!(text, "\n================ {} ================\n\n", f.name);
        }
        text += &(f.run)(scale, &out)?;
    }
    Ok(text)
}

// ------------------------------------------------------------ Fig 5/6

fn fig5(scale: Scale, out: &Path) -> Result<String, String> {
    let cells = experiments::fig5(scale);
    let title = "Figure 5: CDF of job wait time varying inter-arrival time";
    let param = ("inter-arrival (s)", "interarrival_s");
    wait_figure(title, scale, out, "fig5", param, &cells)
}

fn fig6(scale: Scale, out: &Path) -> Result<String, String> {
    let cells = experiments::fig6(scale);
    let title = "Figure 6: CDF of job wait time varying job constraint ratio";
    let param = ("constraint ratio", "constraint_ratio");
    wait_figure(title, scale, out, "fig6", param, &cells)
}

/// A Figure 5/6 run: one CDF table and one SVG (the paper's 80–100%
/// window) per cell, and every cell's full curves in one CSV. `param`
/// is the cell parameter's name in the text and in the files.
fn wait_figure(
    title: &str,
    scale: Scale,
    out: &Path,
    fig: &str,
    param: (&str, &str),
    cells: &[WaitTimeCell],
) -> Result<String, String> {
    let mut text = format!("=== {title} ({scale:?}) ===\n\n");
    let mut csv = CsvWriter::new(&[param.1, "scheme", "wait_s", "cum_percent"]);
    for cell in cells {
        let _ = writeln!(text, "{}", render_wait_cell(param.0, cell));
        let mut chart = LineChart::new(
            format!("CDF of job wait time ({} = {})", param.1, cell.parameter),
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
            let cdf = r.cdf();
            chart.series(r.scheduler.label(), cdf.curve(x_max, 160));
            for (x, pct) in cdf.curve(cdf.max().unwrap_or(0.0).max(1.0), 200) {
                csv.row(&[
                    &format!("{}", cell.parameter),
                    r.scheduler.label(),
                    &format!("{x:.1}"),
                    &format!("{pct:.3}"),
                ]);
            }
        }
        let file = format!("{fig}_{}.svg", cell.parameter);
        save_under(out, &file, &chart.render_svg())?;
    }
    let csv = save_under(out, &format!("{fig}.csv"), csv.as_str())?;
    let _ = writeln!(
        text,
        "CSV written to {}; {} SVG plots in {}",
        csv.display(),
        cells.len(),
        out.display()
    );
    Ok(text)
}

/// One wait-time cell (a sub-figure of Fig 5/6) as the CDF table the
/// paper plots: rows are wait-time thresholds, columns the three
/// schemes' cumulative percentages.
fn render_wait_cell(param_name: &str, cell: &WaitTimeCell) -> String {
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

// ------------------------------------------------------------ Fig 7/8

/// Figure 7: the broken-link series as a table (time against each
/// scheme's count), as a CSV and as one SVG.
fn fig7(scale: Scale, out: &Path) -> Result<String, String> {
    let reports = experiments::fig7(scale);
    let mut table = Table::new(["time(s)", "Vanilla", "Compact", "Adaptive"]);
    let len = reports
        .iter()
        .map(|r| r.broken_series.len())
        .min()
        .unwrap_or(0);
    for i in 0..len {
        let t = reports[0].broken_series[i].time;
        let counts = reports
            .iter()
            .map(|r| r.broken_series[i].broken_links.to_string());
        table.row(std::iter::once(format!("{t:.0}")).chain(counts));
    }
    let mut text = format!(
        "=== Figure 7: broken links under high churn ({scale:?}) ===\n\n{}\n",
        table.render()
    );
    let mut csv = CsvWriter::new(&["scheme", "time_s", "broken_links", "nodes"]);
    let mut chart = LineChart::new(
        "Broken links under high churn (11-dim CAN)",
        "elapsed time (s)",
        "broken links",
    );
    for r in &reports {
        let _ = writeln!(
            text,
            "{:>8}: steady-state broken links {:>7.1}  (nodes {}, mean degree {:.1}, repairs {}, full-update rounds {})",
            r.scheme.label(),
            r.steady_broken_links(),
            r.final_nodes,
            r.mean_degree,
            r.repairs,
            r.full_update_rounds,
        );
        for s in &r.broken_series {
            csv.row(&[
                r.scheme.label(),
                &format!("{:.0}", s.time),
                &s.broken_links.to_string(),
                &s.nodes.to_string(),
            ]);
        }
        let points = r.broken_series.iter();
        chart.series(
            r.scheme.label(),
            points.map(|s| (s.time, s.broken_links as f64)).collect(),
        );
    }
    let csv = save_under(out, "fig7.csv", csv.as_str())?;
    save_under(out, "fig7.svg", &chart.render_svg())?;
    let _ = writeln!(
        text,
        "\nCSV written to {}; SVG plot in {}",
        csv.display(),
        out.display()
    );
    Ok(text)
}

/// Figure 8: per metric (message count, then volume, per node per
/// minute) a table against dimensions with one column per
/// scheme-population pair — the paper's legend, e.g. "Vanilla-1000" —
/// and an SVG with one line per scheme at the largest population; every
/// cell in one CSV.
fn fig8(scale: Scale, out: &Path) -> Result<String, String> {
    let cells = experiments::fig8(scale);
    let mut dims: Vec<usize> = cells.iter().map(|c| c.dims).collect();
    dims.sort_unstable();
    dims.dedup();
    let mut series: Vec<(HeartbeatScheme, usize)> =
        cells.iter().map(|c| (c.scheme, c.nodes)).collect();
    series.sort_by_key(|&(s, n)| (s.label(), n));
    series.dedup();
    let largest = cells.iter().map(|c| c.nodes).max().unwrap_or(0);
    let find = |scheme, d, n| {
        cells
            .iter()
            .find(|c| c.scheme == scheme && c.dims == d && c.nodes == n)
            .expect("cell present")
    };
    type Metric = fn(&CostCell) -> f64;
    let metrics: [(&str, &str, &str, &str, Metric); 2] = [
        (
            "(a) Number of messages per node per minute",
            "fig8a.svg",
            "Heartbeat messages per node per minute",
            "messages / node / min",
            |c| c.msgs_per_node_min,
        ),
        (
            "(b) Volume of messages (KB) per node per minute",
            "fig8b.svg",
            "Heartbeat volume per node per minute",
            "KB / node / min",
            |c| c.kb_per_node_min,
        ),
    ];
    let mut text = format!("=== Figure 8: CAN maintenance costs vs dimensions ({scale:?}) ===\n\n");
    for (title, file, chart_title, ylabel, metric) in metrics {
        let headers = series.iter().map(|&(s, n)| format!("{}-{n}", s.label()));
        let mut table = Table::new(std::iter::once("dims".to_string()).chain(headers));
        for &d in &dims {
            let values = series
                .iter()
                .map(|&(s, n)| format!("{:.1}", metric(find(s, d, n))));
            table.row(std::iter::once(d.to_string()).chain(values));
        }
        let _ = writeln!(text, "--- Figure 8{title} ---\n{}", table.render());
        let chart_title = format!("{chart_title} ({largest} nodes)");
        let mut chart = LineChart::new(chart_title, "CAN dimensions", ylabel);
        for scheme in HeartbeatScheme::ALL {
            let mut pts: Vec<(f64, f64)> = cells
                .iter()
                .filter(|c| c.scheme == scheme && c.nodes == largest)
                .map(|c| (c.dims as f64, metric(c)))
                .collect();
            pts.sort_by(|a, b| a.0.total_cmp(&b.0));
            chart.series(format!("{}-{largest}", scheme.label()), pts);
        }
        save_under(out, file, &chart.render_svg())?;
    }
    let csv = Columns::new(vec![
        Column::csv("scheme", |c: &CostCell| Cell::same(c.scheme.label())),
        Column::csv("dims", |c| Cell::same(c.dims)),
        Column::csv("nodes", |c| Cell::same(c.nodes)),
        Column::csv("msgs_per_node_min", |c| {
            Cell::real(c.msgs_per_node_min, 3, 3)
        }),
        Column::csv("kb_per_node_min", |c| Cell::real(c.kb_per_node_min, 3, 3)),
        Column::csv("mean_degree", |c| Cell::real(c.mean_degree, 2, 2)),
    ])
    .csv(&cells);
    let csv = save_under(out, "fig8.csv", &csv)?;
    let _ = writeln!(
        text,
        "\nCSV written to {}; SVG plots in {}",
        csv.display(),
        out.display()
    );
    Ok(text)
}

// ------------------------------------------------- §IV-A and §III-B

/// Verifies the §IV-A cost analysis from measured Figure 8 data:
/// heartbeat *message counts* grow ~O(d) for every scheme, vanilla
/// *volume* grows super-linearly (O(d²) asymptotically), and
/// compact/adaptive volume stays near-linear.
fn scaling_fit(scale: Scale, _out: &Path) -> Result<String, String> {
    let cells = experiments::fig8(scale);
    let mut nodes: Vec<usize> = cells.iter().map(|c| c.nodes).collect();
    nodes.sort_unstable();
    nodes.dedup();
    type Row = (HeartbeatScheme, usize, f64, f64);
    let mut rows: Vec<Row> = Vec::new();
    for scheme in HeartbeatScheme::ALL {
        for &n in &nodes {
            let fit = |metric: fn(&CostCell) -> f64| {
                let run = cells.iter().filter(|c| c.scheme == scheme && c.nodes == n);
                scaling_exponent(&run.map(|c| (c.dims as f64, metric(c))).collect::<Vec<_>>())
            };
            let (msgs, volume) = (fit(|c| c.msgs_per_node_min), fit(|c| c.kb_per_node_min));
            rows.push((scheme, n, msgs, volume));
        }
    }
    let table = Columns::new(vec![
        Column::text("scheme", |r: &Row| Cell::same(r.0.label())),
        Column::text("nodes", |r| Cell::same(r.1)),
        Column::text("msgs ~ d^b", |r| Cell::real(r.2, 2, 2)),
        Column::text("volume ~ d^b", |r| Cell::real(r.3, 2, 2)),
    ])
    .text(&rows);
    Ok(format!(
        "=== Scaling-exponent fit of CAN maintenance costs ({scale:?}) ===\n\n{table}\n\
         Expectation (paper §IV-A): message exponents are similar and modest for all\n\
         schemes; the vanilla volume exponent clearly exceeds the compact/adaptive\n\
         volume exponents (O(d²)-flavoured vs near-linear).\n"
    ))
}

/// One labelled load-balancing run: a row of the wait-time tables.
type Run = (String, SimResult);

fn scheduler() -> Column<Run> {
    Column::text("scheduler", |r| Cell::same(r.1.scheduler.label()))
}

fn mean_wait() -> Column<Run> {
    Column::text("mean wait(s)", |r| Cell::real(r.1.mean_wait(), 1, 1))
}

fn p99() -> Column<Run> {
    Column::text("p99(s)", |r| Cell::real(r.1.cdf().quantile(0.99), 1, 1))
}

fn zero_wait() -> Column<Run> {
    Column::text("zero-wait(%)", |r| {
        Cell::real(100.0 * r.1.cdf().fraction_zero(), 1, 1)
    })
}

/// Ablation of can-het's ingredients (§III-B) on the Figure 5 workload
/// at 3 s inter-arrival: acceptable-node search (vs free-node-only),
/// dominant-CE ranking/scoring (vs CPU-centric) and per-CE aggregated
/// load information (vs pooled). Each row disables one ingredient; the
/// last disables all three (close to can-hom, differing only in the
/// score function).
fn ablation(scale: Scale, _out: &Path) -> Result<String, String> {
    let scenario = scenario_for(scale);
    let variants = [
        ("full can-het", true, true, true),
        ("no acceptable-node search", false, true, true),
        ("no dominant-CE ranking", true, false, true),
        ("no per-CE aggregates", true, true, false),
        ("all disabled", false, false, false),
    ];
    let rows: Vec<Run> = variants
        .into_iter()
        .map(|(name, acceptable_nodes, dominant_ce, per_ce_ai)| {
            let features = HetFeatures {
                acceptable_nodes,
                dominant_ce,
                per_ce_ai,
            };
            (name.into(), run_load_balance_ablated(&scenario, features))
        })
        .collect();
    let table = Columns::new(vec![
        Column::text("variant", |r: &Run| Cell::same(&r.0)),
        mean_wait(),
        Column::text("p95(s)", |r| Cell::real(r.1.cdf().quantile(0.95), 1, 1)),
        p99(),
        zero_wait(),
    ])
    .text(&rows);
    Ok(format!(
        "=== can-het ingredient ablation ({scale:?}) ===\n\n{table}\n"
    ))
}

// --------------------------------------------------------- extensions

/// The stopping factor SF of Eq. 4, `P(stop) = 1/(1+n)^SF`, controls
/// how eagerly job pushing stops: small SF stops early (cheap but
/// poorly balanced), large SF pushes far (more work, diminishing
/// returns). The paper inherits SF from its predecessor; this sweep
/// shows the trade-off on the Figure 5 workload and justifies SF = 2.
fn sf_sweep(scale: Scale, _out: &Path) -> Result<String, String> {
    let base = scenario_for(scale);
    let rows: Vec<Run> = [0.5, 1.0, 2.0, 4.0, 8.0]
        .into_iter()
        .map(|sf| {
            let mut s = base.clone();
            s.stopping_factor = sf;
            (
                sf.to_string(),
                run_load_balance(&s, SchedulerChoice::CanHet),
            )
        })
        .collect();
    let table = Columns::new(vec![
        Column::text("SF", |r: &Run| Cell::same(&r.0)),
        mean_wait(),
        p99(),
        zero_wait(),
        Column::text("pushes/job", |r| Cell::real(r.1.pushes.mean(), 2, 2)),
    ])
    .text(&rows);
    Ok(format!(
        "=== Stopping-factor (SF) sensitivity, can-het ({scale:?}) ===\n\n{table}\n"
    ))
}

/// Heartbeat-scheme resilience on a lossy network. Message loss causes
/// spurious expiries; a compact keepalive can never re-add an expired
/// neighbour (it carries no zone), so compact tables decay for good,
/// while vanilla's full payloads re-install entries and adaptive's
/// on-demand full updates repair the damage — a failure mode Figure 7's
/// churn experiment does not separate out.
fn lossy_network(scale: Scale, _out: &Path) -> Result<String, String> {
    let nodes = match scale {
        Scale::Paper => 500,
        Scale::Quick => 120,
    };
    type Row = (f64, HeartbeatScheme, usize, f64, u64, u64);
    let mut rows: Vec<Row> = Vec::new();
    for loss in [0.0, 0.05, 0.1, 0.2] {
        for scheme in HeartbeatScheme::ALL {
            let mut sim = CanSim::new(ProtocolConfig::new(11, scheme).with_message_loss(loss))
                .expect("valid protocol config");
            let mut rng = SimRng::seed_from_u64(2011);
            let mut joined = 0;
            while joined < nodes {
                if sim.join((0..11).map(|_| rng.unit()).collect()).is_ok() {
                    joined += 1;
                }
                sim.advance_to(sim.now() + 1.0);
            }
            sim.advance_to(sim.now() + 3000.0); // 50 lossy heartbeat periods
            let success = local_routing_success(&sim, 400, 7);
            let (dropped, rounds) = (sim.dropped_messages(), sim.full_update_rounds());
            rows.push((loss, scheme, sim.broken_links(), success, dropped, rounds));
        }
    }
    let table = Columns::new(vec![
        Column::text("loss", |r: &Row| Cell::same(format!("{:.0}%", r.0 * 100.0))),
        Column::text("scheme", |r| Cell::same(r.1.label())),
        Column::text("broken links", |r| Cell::same(r.2)),
        Column::text("routing success", |r| Cell::share(r.3)),
        Column::text("dropped msgs", |r| Cell::same(r.4)),
        Column::text("full-update rounds", |r| Cell::same(r.5)),
    ])
    .text(&rows);
    Ok(format!(
        "=== Message-loss resilience ({scale:?}; {nodes} nodes, 11-dim CAN, static after bootstrap) ===\n\n\
         {table}\n\
         Compact trades repair ability for bandwidth; on lossy links that trade\n\
         turns into permanent table decay. Adaptive buys the repair back on demand.\n"
    ))
}

/// The end-to-end cost of broken links: the Figure 7 high-churn
/// workload, then greedy routing success over nodes' *local* tables —
/// the DHT-level resilience metric as the matchmaking layer meets it.
fn routing_under_churn(scale: Scale, _out: &Path) -> Result<String, String> {
    let (nodes, duration) = match scale {
        Scale::Paper => (1000, 10_000.0),
        Scale::Quick => (150, 3000.0),
    };
    type Row = (HeartbeatScheme, usize, f64);
    let mut rows: Vec<Row> = Vec::new();
    for scheme in HeartbeatScheme::ALL {
        let mut cfg = ChurnConfig::new(11, scheme, nodes).high_churn();
        cfg.stage2_duration = duration;
        cfg.sample_interval = duration / 8.0;
        let (_, sim) = run_churn_sim(&cfg, uniform_coords(11));
        let success = local_routing_success(&sim, 600, 13);
        rows.push((scheme, sim.broken_links(), success));
    }
    let table = Columns::new(vec![
        Column::text("scheme", |r: &Row| Cell::same(r.0.label())),
        Column::text("broken links", |r| Cell::same(r.1)),
        Column::text("local routing success", |r| Cell::share(r.2)),
    ])
    .text(&rows);
    Ok(format!(
        "=== Routing success under high churn ({scale:?}; {nodes} nodes, 11-dim CAN) ===\n\n\
         {table}\n\
         Broken links translate into failed or misdelivered lookups; the adaptive\n\
         scheme keeps routing success near vanilla's at compact's cost.\n"
    ))
}

/// What changes when GPUs can run several jobs at once? The paper
/// models 2011 GPUs as *dedicated* CEs (§III-B: the next Nvidia
/// generation "will run multiple simultaneous jobs, but it is not yet
/// available"). This flips every generated GPU to a *shared* CE — Eq. 2
/// scoring instead of Eq. 1, core-capacity admission instead of
/// whole-device locking — and reruns the Figure 5 workload under heavy
/// load.
fn future_gpus(scale: Scale, _out: &Path) -> Result<String, String> {
    let base = scenario_for(scale).with_interarrival(match scale {
        Scale::Paper => 2.0,
        Scale::Quick => 20.0,
    });
    let mut rows: Vec<Run> = Vec::new();
    for (name, shared) in [("dedicated", false), ("shared", true)] {
        let mut s = base.clone();
        if shared {
            s.node_gen = s.node_gen.with_shared_gpus();
        }
        for choice in [SchedulerChoice::CanHet, SchedulerChoice::Central] {
            rows.push((name.into(), run_load_balance(&s, choice)));
        }
    }
    let table = Columns::new(vec![
        Column::text("GPU model", |r: &Run| Cell::same(&r.0)),
        scheduler(),
        mean_wait(),
        p99(),
        zero_wait(),
    ])
    .text(&rows);
    Ok(format!(
        "=== Dedicated (2011) vs shared (future) GPUs, heavy load ({scale:?}) ===\n\n\
         {table}\n\
         Sharing multiplies each GPU's concurrency, so GPU-dominant jobs stop\n\
         queueing behind whole-device locks; the matchmaker needs no change —\n\
         the dedicated/non-dedicated distinction was already first-class.\n"
    ))
}

/// Processor-sharing contention (the model of Lee et al. that §III-B
/// builds on): nodes admit jobs at once and oversubscribed CEs slow
/// every resident job down, so the metric is the slowdown distribution.
/// Contention-aware placement (best prospective rate, an idealized
/// central view) against contention-oblivious random placement, across
/// load levels.
fn contention_model(scale: Scale, _out: &Path) -> Result<String, String> {
    let (nodes, jobs_n) = match scale {
        Scale::Paper => (1000, 20_000),
        Scale::Quick => (100, 2000),
    };
    let layout = DimensionLayout::with_dims(11);
    let pop = generate_nodes(&NodeGenConfig::paper_defaults(2), nodes, 2011);
    type Row = (f64, &'static str, TsResult);
    let mut rows: Vec<Row> = Vec::new();
    for ia in [2.0, 3.0, 4.0] {
        let job_gen = JobGenConfig::paper_defaults(2, 0.6, ia * 1000.0 / nodes as f64);
        let jobs = JobStream::with_population(job_gen, 2011, pop.clone()).take_jobs(jobs_n);
        for (name, policy) in [
            ("best-rate", TsPolicy::BestRate),
            ("random", TsPolicy::Random),
        ] {
            let run = run_time_shared(&pop, &jobs, &layout, policy, 2011);
            rows.push((ia, name, run));
        }
    }
    let table = Columns::new(vec![
        Column::text("inter-arrival(s)", |r: &Row| Cell::same(r.0)),
        Column::text("policy", |r| Cell::same(r.1)),
        Column::text("mean slowdown", |r| Cell::real(r.2.mean_slowdown(), 3, 3)),
        Column::text("p95 slowdown", |r| {
            Cell::real(r.2.slowdown_quantile(0.95), 3, 3)
        }),
        Column::text("p99 slowdown", |r| {
            Cell::real(r.2.slowdown_quantile(0.99), 3, 3)
        }),
        Column::text("makespan(s)", |r| Cell::real(r.2.makespan, 0, 0)),
    ])
    .text(&rows);
    Ok(format!(
        "=== Processor-sharing contention model ({scale:?}; {nodes} nodes) ===\n\n\
         {table}\n\
         Under processor sharing nothing waits, but contention-oblivious placement\n\
         pays in slowdown — the same information gap Figures 5-6 show for queueing.\n"
    ))
}

/// The headline experiments across several independent seeds, as mean
/// ± standard deviation: the reproduced orderings of Figures 5 and 7
/// are not artifacts of one random draw.
fn confidence(scale: Scale, _out: &Path) -> Result<String, String> {
    let seeds: Vec<u64> = (0..5).map(|i| 2011 + 97 * i).collect();
    let waits = Columns::new(vec![
        Column::text("scheduler", |r: &ReplicatedWaits| {
            Cell::same(r.scheduler.label())
        }),
        Column::text("zero-wait(%)", |r| Cell::same(r.zero_wait_pct)),
        Column::text("mean wait(s)", |r| Cell::same(r.mean_wait)),
        Column::text("p99(s)", |r| Cell::same(r.p99_wait)),
    ])
    .text(&replicate_waits(&scenario_for(scale), &seeds));
    let (nodes, duration) = match scale {
        Scale::Paper => (1000, 8000.0),
        Scale::Quick => (150, 3000.0),
    };
    let broken = Columns::new(vec![
        Column::text("scheme", |r: &(HeartbeatScheme, Replicated)| {
            Cell::same(r.0.label())
        }),
        Column::text("steady broken links", |r| Cell::same(r.1)),
    ])
    .text(&replicate_broken_links(11, nodes, duration, &seeds));
    Ok(format!(
        "=== Replication across {} seeds ({scale:?}) ===\n\n\
         -- load balancing (Figure 5 cell, 3s-equivalent inter-arrival) --\n{waits}\n\
         -- churn resilience (Figure 7, steady-state broken links) --\n{broken}\n",
        seeds.len()
    ))
}

/// Volunteer eviction, the desktop-grid reality the paper's testbed
/// future work points toward: nodes periodically withdraw (their owner
/// reclaims the desktop), killing resident grid jobs, which the grid
/// detects and resubmits. How far does each matchmaker's wait-time
/// story degrade as eviction pressure grows?
fn eviction(scale: Scale, _out: &Path) -> Result<String, String> {
    let base = scenario_for(scale);
    let mut rows: Vec<Run> = Vec::new();
    for interval in [f64::INFINITY, 600.0, 120.0] {
        let mut s = base.clone();
        let label = if interval.is_infinite() {
            "none".to_string()
        } else {
            s = s.with_eviction(EvictionConfig::new(interval));
            format!("{interval}s")
        };
        for choice in SchedulerChoice::ALL {
            rows.push((label.clone(), run_load_balance(&s, choice)));
        }
    }
    let table = Columns::new(vec![
        Column::text("mean eviction interval", |r: &Run| Cell::same(&r.0)),
        scheduler(),
        zero_wait(),
        mean_wait(),
        Column::text("evictions", |r| Cell::same(r.1.evictions)),
        Column::text("resubmissions", |r| Cell::same(r.1.resubmissions)),
    ])
    .text(&rows);
    Ok(format!(
        "=== Volunteer eviction sweep ({scale:?}) ===\n\n\
         {table}\n\
         Eviction churn costs every scheduler, but the decentralized matchmakers'\n\
         relative standing against central is preserved — resilience of the\n\
         *placement* algorithm is orthogonal to volunteer availability.\n"
    ))
}

/// 2-D CAN zone maps (the geometry of the paper's Figures 1-3) at
/// growing populations: how joins partition the space and how a
/// departure's take-over merges it back. The same at either scale.
fn zonemap(_scale: Scale, out: &Path) -> Result<String, String> {
    let mut can = CanSim::new(ProtocolConfig::new(2, HeartbeatScheme::Compact))
        .expect("valid protocol config");
    let mut rng = SimRng::seed_from_u64(2011);
    let mut text = "zone maps written:\n".to_string();
    let mut snapshot = |can: &CanSim, file: &str, title: &str| -> Result<(), String> {
        let mut map = RectMap::new(title);
        for id in can.members() {
            let z = can.zone(id);
            map.rect(z.lo(0), z.lo(1), z.hi(0), z.hi(1), id.to_string());
        }
        let path = save_under(out, file, &map.render_svg())?;
        let _ = writeln!(text, "  {}", path.display());
        Ok(())
    };
    for n in [4usize, 16, 64] {
        while can.len() < n {
            let _ = can.join(vec![rng.unit(), rng.unit()]);
            can.advance_to(can.now() + 1.0);
        }
        let title = format!("2-D CAN zones, {n} nodes");
        snapshot(&can, &format!("zonemap_{n}.svg"), &title)?;
    }
    // One departure: the take-over merges/relocates zones.
    let victim = can.members()[7];
    can.leave(victim, true);
    let title = format!("after {victim} left (take-over applied)");
    snapshot(&can, "zonemap_after_leave.svg", &title)?;
    Ok(text)
}
