//! Shared rendering for the figure regenerator binaries: turns the
//! drivers' results into the tables/series each paper figure shows,
//! plus CSV and SVG dumps under `results/`, and [`parse_args`], the
//! `--quick` / `--out DIR` command line they all take.
//!
//! Binaries (run with `--release`; pass `--quick` for a reduced run):
//!
//! * `fig5` — wait-time CDFs vs inter-arrival time (Figure 5)
//! * `fig6` — wait-time CDFs vs job constraint ratio (Figure 6)
//! * `fig7` — broken links over time under high churn (Figure 7)
//! * `fig8` — heartbeat message count/volume vs dimensions (Figure 8)
//! * `scaling_fit` — log–log scaling exponents for the §IV-A claims
//! * `ablation` — can-het ingredient ablations
//! * `sf_sweep`, `lossy_network`, `routing_under_churn`, `future_gpus`,
//!   `contention_model`, `confidence`, `eviction`, `zonemap` — the
//!   extension experiments
//! * `all` — everything above in sequence
//! * `perf` — the stopwatch harness behind `BENCH_hotpath.json`
//!
//! The fault suites (chaos, scenarios, detector, fuzz) are `pgrid`
//! subcommands (`crates/cli`), which own their tables and CSVs.

#![forbid(unsafe_code)]

use pgrid::experiments::{CostCell, WaitTimeCell};
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
