//! Perf-regression harness for the matchmaking and heartbeat hot
//! paths.
//!
//! Runs the quick-scale Figure 5 / Figure 6 / Figure 7 cells
//! *single-threaded* (one simulation at a time, so wall-clock numbers
//! are not confounded by scheduling), plus an `ai_refresh`
//! microbenchmark — the demand-driven table read densely and sparsely
//! at n ∈ {256, 1024, 4096, 32 768}, against the from-scratch rebuild
//! up to 4096 — and a greedy `route` microbenchmark at
//! n ∈ {1000, 32 768}, and reports
//! wall-clock plus events/sec for each, then writes
//! `BENCH_hotpath.json` at the repo root.
//!
//! Baseline protocol: the first ever run records itself as the
//! baseline; every later run preserves the `baseline` object from the
//! existing file verbatim (appending entries only for cells the
//! baseline has never seen) and reports its speedup against it. To
//! re-baseline, delete the file and run twice (before/after).
//!
//! Flags (unknown flags exit 2):
//!
//! * `--cell <substring>` — run only cells whose name contains the
//!   substring; the JSON file is left untouched.
//! * `--check` — regression gate: after running, compare every cell
//!   that has a baseline entry and fail (exit 1) when one slipped more
//!   than 1.3× beyond it, normalized by the machine factor (the median
//!   wall/baseline ratio across gated cells, clamped to ≥ 1): a cell
//!   that regressed relative to the *rest of this run* fires the gate,
//!   a uniformly slower CI runner does not. Leaves the JSON untouched.
//! * `--scaling <n>` — run the scaling suite at population `n`
//!   instead of the default cell set: a fig5-style load-balance cell
//!   (row `…/s1`) plus a fig7-style churn cell at the same
//!   population. Results merge into the `"scaling"` array of
//!   `BENCH_hotpath.json` keyed by cell name; the gated
//!   `cells`/`baseline` objects are never touched, so the `--check`
//!   gate is unaffected. Each row records the measurement host's
//!   `host_threads`, and the fig5 row records `build_secs`, one timed
//!   `StaticGrid` build on its population: `wall_secs` minus it is
//!   the loop's share. A population no grid can be built from exits 2.

use pgrid::prelude::*;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// Gate threshold: a cell may cost at most this many times its
/// baseline (after machine-factor normalization) before `--check`
/// fails the run.
const GATE_RATIO: f64 = 1.3;

/// Cells whose baseline is under this wall-clock are dominated by
/// timer/scheduler noise; the gate re-measures them with a repeat
/// count sized by their observed spread instead of a fixed retry.
const SMALL_CELL_SECS: f64 = 0.1;

/// Hard cap on total samples a noisy small cell may earn.
const SMALL_MAX_SAMPLES: usize = 8;

/// The machine factor is derived from the ratios of the most recently
/// recorded baseline entries (the append-only file's tail), not the
/// whole mixed-age set: entries recorded years of optimization ago
/// would drag the median and mask (or fake) a regression.
const MACHINE_FACTOR_RECENT_K: usize = 12;

struct Cell {
    name: String,
    wall_secs: f64,
    /// Simulation events fired (0 for churn cells, which don't count).
    events: u64,
}

impl Cell {
    fn events_per_sec(&self) -> Option<f64> {
        (self.events > 0).then(|| self.events as f64 / self.wall_secs)
    }
}

fn quick_scenario() -> LoadBalanceScenario {
    // Mirrors experiments::fig5/fig6 Quick scale: 100 nodes, 2000 jobs.
    let mut s = default_scenario().scaled_down(10);
    s.jobs = 2000;
    s
}

fn run_wait_cell(name: String, sc: &LoadBalanceScenario, choice: SchedulerChoice) -> Cell {
    let t = Instant::now();
    let r = run_load_balance(sc, choice);
    Cell {
        name,
        wall_secs: t.elapsed().as_secs_f64(),
        events: r.events_fired,
    }
}

/// One random load mutation against `grid`, mirroring the churn mix of
/// the simulator's quick-fig5 runs (mostly placements and completions,
/// occasional volunteer eviction/restore).
fn churn_event(
    grid: &mut StaticGrid,
    stream: &mut JobStream,
    running: &mut Vec<(NodeId, JobId)>,
    evicted: &mut Vec<NodeId>,
    rng: &mut SimRng,
) {
    let n = grid.len();
    match rng.below(20) {
        0 => {
            let victim = NodeId(rng.below(n) as u32);
            grid.evict_node(victim);
            running.retain(|&(node, _)| node != victim);
            evicted.push(victim);
        }
        1 => {
            if let Some(back) = evicted.pop() {
                grid.restore_node(back);
                let started = grid.with_runtime_mut(back, |rt| rt.start_ready());
                running.extend(started.into_iter().map(|s| (back, s.job.id)));
            }
        }
        2..=7 => {
            if !running.is_empty() {
                let k = rng.below(running.len());
                let (node, jid) = running.swap_remove(k);
                let started = grid.with_runtime_mut(node, |rt| {
                    rt.finish(jid);
                    rt.start_ready()
                });
                running.extend(started.into_iter().map(|s| (node, s.job.id)));
            }
        }
        _ => {
            let (_, job) = stream.next_job();
            let target = (0..32)
                .map(|_| NodeId(rng.below(n) as u32))
                .find(|&t| job.satisfied_by(&grid.runtime(t).spec));
            if let Some(target) = target {
                let started = grid.with_runtime_mut(target, |rt| {
                    rt.enqueue(job, 0.0);
                    rt.start_ready()
                });
                running.extend(started.into_iter().map(|s| (target, s.job.id)));
            }
        }
    }
}

/// The demand-driven `AiTable` against the from-scratch rebuild at
/// several grid sizes under a fixed per-tick churn budget. Every table
/// sees the identical grid each tick; `events` counts refresh ticks.
/// A refresh alone only marks rows, so the lazy cells time it *plus*
/// reads: `lazy_dense` reads every row (the worst case — all of
/// `scratch`'s arithmetic, found by walking instead of a precomputed
/// order), `lazy_sparse` the rows the pushes of one period read.
fn run_ai_refresh_cells(cells: &mut Vec<Cell>, want: &dyn Fn(&str) -> bool) {
    const TICKS: u64 = 150;
    const MUTATIONS_PER_TICK: usize = 32;
    const PUSHES_PER_TICK: usize = 32;
    const VARIANTS: [&str; 3] = ["lazy_dense", "lazy_sparse", "scratch"];
    for n in [256usize, 1024, 4096, 32_768] {
        // `scratch` stops at 4096: `lazy_dense` is its cost there and
        // above. The variants share one churned grid, so a size is
        // skipped only when the filter matches none of its cells.
        let wanted =
            |v: &str| (v != "scratch" || n <= 4096) && want(&format!("ai_refresh/n{n}/{v}"));
        if !VARIANTS.iter().any(|v| wanted(v)) {
            continue;
        }
        let layout = DimensionLayout::with_dims(11);
        let pop = generate_nodes(&NodeGenConfig::paper_defaults(2), n, 99);
        let jobcfg = JobGenConfig::paper_defaults(2, 0.6, 3.0);
        let mut stream = JobStream::with_population(jobcfg, 99, pop.clone());
        let mut grid = StaticGrid::build(layout, pop, 99);
        let dims = grid.layout().dims();
        let mut dense = AiTable::new(&grid, AiGrouping::PerCe);
        let mut sparse = AiTable::new(&grid, AiGrouping::PerCe);
        let mut scr = AiTable::new(&grid, AiGrouping::PerCe);
        dense.refresh(&grid, 0.0);
        sparse.refresh(&grid, 0.0);
        scr.refresh_scratch(&grid, 0.0);
        let mut rng = SimRng::seed_from_u64(0xA1F0 ^ n as u64);
        let mut walk = SimRng::seed_from_u64(0x9057 ^ n as u64);
        let mut running: Vec<(NodeId, JobId)> = Vec::new();
        let mut evicted: Vec<NodeId> = Vec::new();
        let (mut dense_secs, mut sparse_secs, mut scr_secs) = (0.0f64, 0.0f64, 0.0f64);
        let mut read = 0u64;
        for tick in 0..TICKS {
            for _ in 0..MUTATIONS_PER_TICK {
                churn_event(&mut grid, &mut stream, &mut running, &mut evicted, &mut rng);
            }
            let now = tick as f64;
            if wanted("lazy_dense") {
                let t = Instant::now();
                dense.refresh(&grid, now);
                for i in 0..n as u32 {
                    for d in 0..dims {
                        read += dense.beyond(&grid, NodeId(i), d, CeType::CPU).nodes;
                    }
                }
                dense_secs += t.elapsed().as_secs_f64();
            }
            if wanted("lazy_sparse") {
                let t = Instant::now();
                sparse.refresh(&grid, now);
                // What a push step of `place` reads: the row of every
                // outward neighbor of the node the job sits on, along
                // the dimension they abut on, then the node's own row
                // along the dimension chosen.
                for _ in 0..PUSHES_PER_TICK {
                    let current = NodeId(walk.below(n) as u32);
                    for d in 0..dims {
                        for &m in grid.outward_neighbors(current, d) {
                            read += sparse.beyond(&grid, m, d, CeType::CPU).nodes;
                        }
                    }
                    let toward = walk.below(dims);
                    read += sparse.beyond(&grid, current, toward, CeType::CPU).nodes;
                }
                sparse_secs += t.elapsed().as_secs_f64();
            }
            if wanted("scratch") {
                let t = Instant::now();
                scr.refresh_scratch(&grid, now);
                scr_secs += t.elapsed().as_secs_f64();
            }
        }
        std::hint::black_box(read);
        for (variant, secs) in VARIANTS
            .into_iter()
            .zip([dense_secs, sparse_secs, scr_secs])
        {
            if !wanted(variant) {
                continue;
            }
            cells.push(Cell {
                name: format!("ai_refresh/n{n}/{variant}"),
                wall_secs: secs,
                events: TICKS,
            });
            report(cells.last().unwrap());
        }
    }
}

/// Greedy CAN routing alone — the first half of every `place` — at the
/// paper population and at the scaling suite's large one: each job of
/// the scaling scenario is routed to its coordinate from a random
/// entry node, the query stream of the repo benchmark's route probe.
/// `events` counts hops, so events/s is hops/s.
fn run_route_cells(cells: &mut Vec<Cell>, want: &dyn Fn(&str) -> bool) {
    for n in [1000usize, 32_768] {
        let name = format!("route/n{n}");
        if !want(&name) {
            continue;
        }
        let sc = scaling_scenario(n);
        let mut stream = sc.job_stream(generate_nodes(&sc.node_gen, sc.nodes, sc.seed));
        let jobs = stream.take_jobs(sc.jobs);
        let population = stream
            .into_population()
            .expect("stream keeps its population");
        let grid = StaticGrid::build(DimensionLayout::with_dims(sc.dims), population, sc.seed);
        let mut rng = SimRng::sub_stream(sc.seed, 0xB0B7E);
        let mut hops = 0u64;
        let t = Instant::now();
        for (_, job) in &jobs {
            let coord = grid.layout().job_coord(job, rng.unit());
            let entry = NodeId(rng.below(n) as u32);
            hops += grid.route_to(entry, &coord).hops as u64;
        }
        cells.push(Cell {
            name,
            wall_secs: t.elapsed().as_secs_f64(),
            events: hops,
        });
        report(cells.last().unwrap());
    }
}

struct Args {
    /// Run only cells whose name contains this substring.
    cell: Option<String>,
    /// Regression-gate mode: compare against the baseline and fail on
    /// a slip beyond [`GATE_RATIO`].
    check: bool,
    /// Population for the scaling suite (`--scaling N`); replaces the
    /// default cell set when given.
    scaling: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        cell: None,
        check: false,
        scaling: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--cell" => {
                args.cell = Some(it.next().ok_or("--cell requires a value")?);
            }
            "--check" => args.check = true,
            "--scaling" => {
                let v = it.next().ok_or("--scaling requires a population")?;
                let n: usize = v
                    .parse()
                    .map_err(|_| format!("--scaling wants a node count, got '{v}'"))?;
                if n == 0 {
                    return Err("--scaling wants at least 1 node".into());
                }
                args.scaling = Some(n);
            }
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    if args.scaling.is_some() && (args.check || args.cell.is_some()) {
        return Err("--scaling is its own mode; it takes no other flag".into());
    }
    Ok(args)
}

/// Runs every benchmark cell whose name passes `want`, in the fixed
/// harness order.
fn run_cells(want: &dyn Fn(&str) -> bool) -> Vec<Cell> {
    let mut cells: Vec<Cell> = Vec::new();

    // Figure 5: inter-arrival sweep at constraint ratio 0.6.
    let base = quick_scenario();
    let factor = base.job_gen.mean_interarrival / 3.0;
    for ia in [2.0, 3.0, 4.0] {
        let sc = base.clone().with_interarrival(ia * factor);
        for choice in SchedulerChoice::ALL {
            let name = format!("fig5/ia{ia:.0}/{}", choice.label());
            if !want(&name) {
                continue;
            }
            cells.push(run_wait_cell(name, &sc, choice));
            report(cells.last().unwrap());
        }
    }

    // Figure 6: constraint-ratio sweep at inter-arrival 3 s.
    for ratio in [0.8, 0.6, 0.4] {
        let sc = base.clone().with_constraint_ratio(ratio);
        for choice in SchedulerChoice::ALL {
            let name = format!("fig6/r{:02}/{}", (ratio * 100.0) as u32, choice.label());
            if !want(&name) {
                continue;
            }
            cells.push(run_wait_cell(name, &sc, choice));
            report(cells.last().unwrap());
        }
    }

    // Figure 7: high-churn broken links, 11-d CAN — one cell per
    // scheme at the classic population, plus a large-population cell
    // (compact keeps its runtime sane at n=4096) that stresses the
    // per-message fan-out the heartbeat fast path is built for.
    // `events` counts datagrams applied to a live receiver.
    let mut fig7: Vec<(String, ChurnConfig)> = HeartbeatScheme::ALL
        .into_iter()
        .map(|scheme| {
            let mut cfg = ChurnConfig::new(11, scheme, 150).high_churn();
            cfg.stage2_duration = 3000.0;
            cfg.sample_interval = 250.0;
            (format!("fig7/{scheme:?}").to_lowercase(), cfg)
        })
        .collect();
    {
        let mut cfg = ChurnConfig::new(11, HeartbeatScheme::Compact, 4096).high_churn();
        // Tightened bootstrap and window: at n=4096 the default 1 s
        // join spacing alone would dwarf the measured churn phase.
        cfg.bootstrap_spacing = 0.25;
        cfg.stage2_duration = 300.0;
        cfg.sample_interval = 150.0;
        fig7.push(("fig7/n4096/compact".to_string(), cfg));
    }
    for (name, cfg) in fig7 {
        if !want(&name) {
            continue;
        }
        let t = Instant::now();
        let r = run_churn(&cfg, uniform_coords(cfg.dims));
        cells.push(Cell {
            name,
            wall_secs: t.elapsed().as_secs_f64(),
            events: r.delivered_messages,
        });
        report(cells.last().unwrap());
    }

    // AI-refresh microbenchmark: the demand-driven table vs the
    // from-scratch rebuild under fixed churn, at growing grid sizes.
    run_ai_refresh_cells(&mut cells, want);

    // Routing microbenchmark: hops/s of the greedy walk on its own.
    run_route_cells(&mut cells, want);
    cells
}

// ------------------------------------------------------- scaling suite

/// One row of the `"scaling"` array in `BENCH_hotpath.json`.
struct ScalingRow {
    name: String,
    wall_secs: f64,
    events: u64,
    /// One timed `StaticGrid` build on the row's population — the part
    /// of `wall_secs` (and so of `events_per_sec`) that is one-time
    /// construction, not the event loop. `None` on churn rows, which
    /// build no static grid.
    build_secs: Option<f64>,
    /// `host_threads()` at measurement time.
    host_threads: usize,
}

impl ScalingRow {
    fn json_line(&self) -> String {
        let eps = if self.events > 0 && self.wall_secs > 0.0 {
            format!("{:.1}", self.events as f64 / self.wall_secs)
        } else {
            "null".to_string()
        };
        let build = self
            .build_secs
            .map_or("null".to_string(), |s| format!("{s:.6}"));
        format!(
            "    {{ \"name\": \"{}\", \"wall_secs\": {:.6}, \"build_secs\": {build}, \
             \"events\": {}, \"events_per_sec\": {eps}, \"host_threads\": {} }}",
            self.name, self.wall_secs, self.events, self.host_threads
        )
    }
}

/// The fig5-style scenario the scaling suite measures at population
/// `n`: the paper workload with the arrival rate scaled to hold
/// per-node offered load constant, and the job count sized inversely
/// with `n` so every population finishes in a comparable wall budget
/// (n = 1M is a smoke cell, not a curve point).
fn scaling_scenario(n: usize) -> LoadBalanceScenario {
    let mut s = default_scenario();
    let factor = n as f64 / s.nodes as f64;
    s.nodes = n;
    s.jobs = (200_000_000 / n).clamp(400, 20_000);
    s.job_gen.mean_interarrival /= factor;
    s
}

/// The `--scaling <n>` mode: one fig5-style cell plus a fig7-style
/// churn cell at the same population. Rows merge into the JSON's
/// `"scaling"` array by name; `cells`/`baseline` are left untouched.
fn run_scaling(n: usize, out: &Path) -> ExitCode {
    let threads = pgrid::simcore::shard::host_threads();
    println!("=== Scaling suite: n = {n}, host threads = {threads} ===\n");
    let sc = scaling_scenario(n);
    println!(
        "fig5-style workload: {} jobs, inter-arrival {:.4} s, scheduler can-het",
        sc.jobs, sc.job_gen.mean_interarrival
    );
    let mut rows: Vec<ScalingRow> = Vec::new();

    // The grid the fig5 run will build inside itself, built once on
    // its own so construction is reported apart from the loop.
    let population = generate_nodes(&sc.node_gen, sc.nodes, sc.seed);
    let t = Instant::now();
    let built = StaticGrid::try_build(DimensionLayout::with_dims(sc.dims), population, sc.seed);
    let build_secs = Some(t.elapsed().as_secs_f64());
    if let Err(e) = built {
        eprintln!("error: {e}");
        return ExitCode::from(2);
    }
    drop(built);

    let t = Instant::now();
    let run = run_load_balance(&sc, SchedulerChoice::CanHet);
    rows.push(ScalingRow {
        name: format!("scaling/fig5/n{n}/s1"),
        wall_secs: t.elapsed().as_secs_f64(),
        build_secs,
        events: run.events_fired,
        host_threads: threads,
    });

    // Fig7-style churn at the same population: the CAN heartbeat
    // plane, so the scaling table carries both planes at each n.
    // Skipped for the 1M smoke population (bootstrapping a 1M-node
    // overlay is its own experiment, not a benchmark cell).
    if n <= 100_000 {
        let mut cfg = ChurnConfig::new(11, HeartbeatScheme::Compact, n).high_churn();
        cfg.bootstrap_spacing = 0.25;
        cfg.stage2_duration = 300.0;
        cfg.sample_interval = 150.0;
        let t = Instant::now();
        let r = run_churn(&cfg, uniform_coords(cfg.dims));
        rows.push(ScalingRow {
            name: format!("scaling/fig7/n{n}/compact"),
            wall_secs: t.elapsed().as_secs_f64(),
            build_secs: None,
            events: r.delivered_messages,
            host_threads: threads,
        });
    }

    for row in &rows {
        let build = row
            .build_secs
            .map_or(String::new(), |s| format!("   build {s:.3} s"));
        println!(
            "{:<28} {:>9.3} s   {:>12} events{build}",
            row.name, row.wall_secs, row.events
        );
    }
    merge_scaling(out, &rows);
    println!(
        "\nmerged {} scaling row(s) into {}",
        rows.len(),
        out.display()
    );
    ExitCode::SUCCESS
}

/// Extracts the cell name from a rendered scaling row line.
fn scaling_row_name(line: &str) -> Option<&str> {
    let start = line.find("\"name\": \"")? + "\"name\": \"".len();
    let end = start + line[start..].find('"')?;
    Some(&line[start..end])
}

/// Reads the raw row lines of the `"scaling"` array from a previous
/// run's file (trailing commas stripped); empty when the file or the
/// array is absent. The rows are carried verbatim across rewrites, the
/// same preservation contract the baseline object has.
fn read_scaling_lines(path: &Path) -> Vec<String> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    let Some(start) = text.find("  \"scaling\": [") else {
        return Vec::new();
    };
    text[start..]
        .lines()
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with(']'))
        .map(|l| l.trim_end_matches(',').to_string())
        .collect()
}

/// Merges scaling rows into the JSON file by cell name: rows measured
/// this run replace same-named entries, all other entries are kept
/// verbatim, as are the `cells`/`baseline` objects. Creates a minimal
/// file when none exists.
fn merge_scaling(path: &Path, fresh: &[ScalingRow]) {
    let mut kept: Vec<String> = read_scaling_lines(path)
        .into_iter()
        .filter(|line| scaling_row_name(line).is_some_and(|n| !fresh.iter().any(|r| r.name == n)))
        .collect();
    kept.extend(fresh.iter().map(|r| r.json_line()));

    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|_| String::from("{\n  \"baseline\": {\n  }\n}\n"));
    let without_old = match text.find("  \"scaling\": [") {
        Some(start) => {
            let end = start
                + text[start..]
                    .find("],\n")
                    .expect("scaling array closes before the next key")
                + "],\n".len();
            format!("{}{}", &text[..start], &text[end..])
        }
        None => text,
    };
    let block = format!("  \"scaling\": [\n{}\n  ],\n", kept.join(",\n"));
    let insert_at = without_old
        .find("  \"baseline\": {")
        .expect("BENCH_hotpath.json carries a baseline object");
    let merged = format!(
        "{}{block}{}",
        &without_old[..insert_at],
        &without_old[insert_at..]
    );
    std::fs::write(path, merged).expect("write BENCH_hotpath.json");
}

fn fig5_total(cells: &[Cell]) -> f64 {
    cells
        .iter()
        .filter(|c| c.name.starts_with("fig5/"))
        .map(|c| c.wall_secs)
        .sum()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: perf [--cell <substring>] [--check] [--scaling <n>]");
            return ExitCode::from(2);
        }
    };
    let out = repo_root_json();
    if let Some(n) = args.scaling {
        return run_scaling(n, &out);
    }
    println!("=== Hot-path perf harness (quick-scale fig5/fig6/fig7, single-threaded) ===\n");
    let cells = run_cells(&|name| args.cell.as_deref().is_none_or(|f| name.contains(f)));

    let fig5_wall = fig5_total(&cells);
    let total_wall: f64 = cells.iter().map(|c| c.wall_secs).sum();
    if args.cell.is_none() {
        println!("\nfig5 total: {fig5_wall:.3} s   all cells: {total_wall:.3} s");
    }

    if args.cell.is_some() {
        // A filtered run is for iterating on one cell: no baseline
        // bookkeeping, and never touch the JSON.
        return ExitCode::SUCCESS;
    }

    if args.check {
        let Some(baseline) = read_baseline(&out) else {
            eprintln!(
                "--check: no baseline in {} — commit one first",
                out.display()
            );
            return ExitCode::FAILURE;
        };
        return run_gate(cells, &baseline);
    }

    let mut baseline = read_baseline(&out).unwrap_or_else(|| {
        println!(
            "(no existing {} — this run becomes the baseline)",
            out.display()
        );
        Vec::new()
    });
    // Preserve recorded entries verbatim; cells the baseline has never
    // seen (newly added benchmarks) enter at this run's numbers.
    for (name, secs) in cells
        .iter()
        .map(|c| (c.name.as_str(), c.wall_secs))
        .chain(std::iter::once(("fig5_total", fig5_wall)))
    {
        if !baseline.iter().any(|(n, _)| n == name) {
            baseline.push((name.to_string(), secs));
        }
    }
    if let Some(&b) = baseline
        .iter()
        .find(|(n, _)| n == "fig5_total")
        .map(|(_, v)| v)
        .as_ref()
    {
        println!(
            "fig5 speedup vs baseline: {:.2}x ({b:.3} s -> {fig5_wall:.3} s)",
            b / fig5_wall
        );
    }

    let scaling = read_scaling_lines(&out);
    let json = render_json(&cells, fig5_wall, &baseline, &scaling);
    std::fs::write(&out, json).expect("write BENCH_hotpath.json");
    println!("wrote {}", out.display());
    ExitCode::SUCCESS
}

/// The `--check` regression gate. Every cell with a baseline entry is
/// gated on `wall / baseline`, normalized by the machine factor — the
/// median ratio across gated cells, clamped to ≥ 1 — so a uniformly
/// slower runner shifts every ratio together and stays green, while a
/// single cell regressing against the rest of the run fires.
///
/// Wall-clock noise on sub-100 ms cells easily exceeds the gate
/// threshold, so a cell is only *failed* after it stays over budget
/// across retries taking the per-cell minimum — the minimum is the
/// run least disturbed by the machine, and a true regression cannot
/// dip below it. Cells whose baseline is under [`SMALL_CELL_SECS`]
/// get their repeat count sized by the spread actually observed
/// (noisier cell → more samples, capped) rather than a fixed retry.
fn run_gate(mut cells: Vec<Cell>, baseline: &[(String, f64)]) -> ExitCode {
    const RETRIES: usize = 2;
    for attempt in 0..=RETRIES {
        let rows = gate_rows(&cells, baseline);
        if rows.is_empty() {
            eprintln!("--check: no cell matches a baseline entry");
            return ExitCode::FAILURE;
        }
        let (machine, allowed) = gate_budget(&rows, baseline);
        let failing: Vec<&str> = rows
            .iter()
            .filter(|(_, b, w)| w / b > allowed)
            .map(|(n, _, _)| n.as_str())
            .collect();
        if failing.is_empty() || attempt == RETRIES {
            println!("\n--check: machine factor {machine:.2}, allowed ratio {allowed:.2}");
            for (name, b, w) in &rows {
                let ratio = w / b;
                let verdict = if ratio > allowed { "FAIL" } else { "ok" };
                println!("  {verdict:<4} {name:<28} {b:>9.3}s -> {w:>9.3}s  ({ratio:.2}x)");
            }
            return if failing.is_empty() {
                println!("--check: all gated cells within budget");
                ExitCode::SUCCESS
            } else {
                eprintln!("--check: perf regression beyond {GATE_RATIO}x (machine-normalized)");
                ExitCode::FAILURE
            };
        }
        // Re-run just the over-budget cells and keep each cell's best
        // time. `fig5_total` is a sum, so it re-runs all fig5 cells.
        println!(
            "\n--check: {} cell(s) over budget, retrying ({}/{RETRIES}): {}",
            failing.len(),
            attempt + 1,
            failing.join(", ")
        );
        let lookup = |name: &str| baseline.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
        let (small, large): (Vec<String>, Vec<String>) = failing
            .iter()
            .map(|s| s.to_string())
            .partition(|t| lookup(t).is_some_and(|b| b < SMALL_CELL_SECS));
        for name in &small {
            if let Some(old) = cells.iter_mut().find(|c| &c.name == name) {
                old.wall_secs = old.wall_secs.min(stabilize_small(name, old.wall_secs));
            }
        }
        if !large.is_empty() {
            let rerun = run_cells(&|name| {
                large.iter().any(|t| t == name)
                    || (large.iter().any(|t| t == "fig5_total") && name.starts_with("fig5/"))
            });
            for fresh in rerun {
                if let Some(old) = cells.iter_mut().find(|c| c.name == fresh.name) {
                    old.wall_secs = old.wall_secs.min(fresh.wall_secs);
                }
            }
        }
    }
    unreachable!("loop returns on success, exhaustion, or empty rows");
}

/// Re-measures a sub-100 ms cell with a variance-sized repeat count:
/// three probe samples estimate the relative spread, then the cell
/// earns one further sample per 10 % of spread observed (capped at
/// [`SMALL_MAX_SAMPLES`] total). The minimum across all samples is
/// kept — wall-clock noise only ever inflates a sample, so the
/// minimum is the run least disturbed by the machine.
fn stabilize_small(name: &str, current: f64) -> f64 {
    let mut samples = vec![current];
    for _ in 0..3 {
        samples.extend(run_cells(&|n| n == name).pop().map(|c| c.wall_secs));
    }
    let (extra, spread) = extra_samples_for_spread(&samples, SMALL_MAX_SAMPLES);
    println!(
        "--check: {name} spread {:.0}% over {} samples, {extra} extra repeat(s)",
        100.0 * spread,
        samples.len(),
    );
    for _ in 0..extra {
        samples.extend(run_cells(&|n| n == name).pop().map(|c| c.wall_secs));
    }
    samples.iter().fold(f64::INFINITY, |a, &b| a.min(b))
}

/// Sizes the repeat budget from observed samples: relative spread
/// `(max - min) / min`, one extra sample per 10 % of it, bounded by
/// what `cap` still allows. Pure, so the sizing rule is testable.
fn extra_samples_for_spread(samples: &[f64], cap: usize) -> (usize, f64) {
    let lo = samples.iter().fold(f64::INFINITY, |a, &b| a.min(b));
    let hi = samples.iter().fold(0.0f64, |a, &b| a.max(b));
    if !(lo.is_finite() && lo > 0.0) {
        return (0, 0.0);
    }
    let spread = (hi - lo) / lo;
    let extra = ((spread / 0.10).ceil() as usize).min(cap.saturating_sub(samples.len()));
    (extra, spread)
}

/// Pairs every measured cell (plus the synthetic `fig5_total` sum)
/// with its baseline entry: `(name, baseline_secs, wall_secs)`.
fn gate_rows(cells: &[Cell], baseline: &[(String, f64)]) -> Vec<(String, f64, f64)> {
    let lookup = |name: &str| baseline.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
    let mut rows: Vec<(String, f64, f64)> = cells
        .iter()
        .filter_map(|c| lookup(&c.name).map(|b| (c.name.clone(), b, c.wall_secs)))
        .collect();
    if let Some(b) = lookup("fig5_total") {
        rows.push(("fig5_total".to_string(), b, fig5_total(cells)));
    }
    rows
}

/// Machine factor (median ratio clamped to ≥ 1) and the resulting
/// allowed per-cell ratio.
///
/// The median runs over the rows whose baseline entries are among the
/// [`MACHINE_FACTOR_RECENT_K`] most recently appended — the baseline
/// object is insertion-ordered and append-only, so its tail is the set
/// recorded under conditions closest to the current machine. Falls
/// back to every gated row when none of the recent entries were
/// measured this run (e.g. a heavily filtered cell set).
fn gate_budget(rows: &[(String, f64, f64)], baseline: &[(String, f64)]) -> (f64, f64) {
    let recent: Vec<&str> = baseline
        .iter()
        .rev()
        .take(MACHINE_FACTOR_RECENT_K)
        .map(|(n, _)| n.as_str())
        .collect();
    let mut ratios: Vec<f64> = rows
        .iter()
        .filter(|(n, _, _)| recent.iter().any(|r| r == n))
        .map(|(_, b, w)| w / b)
        .collect();
    if ratios.is_empty() {
        ratios = rows.iter().map(|(_, b, w)| w / b).collect();
    }
    ratios.sort_unstable_by(|a, b| a.total_cmp(b));
    let machine = ratios[ratios.len() / 2].max(1.0);
    (machine, GATE_RATIO * machine)
}

fn report(c: &Cell) {
    match c.events_per_sec() {
        Some(eps) => println!(
            "{:<28} {:>9.3} s   {:>12.0} events/s",
            c.name, c.wall_secs, eps
        ),
        None => println!("{:<28} {:>9.3} s", c.name, c.wall_secs),
    }
}

fn repo_root_json() -> PathBuf {
    // crates/bench -> repo root, independent of the invocation cwd.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_hotpath.json")
}

/// Extracts the flat `"baseline": { "name": secs, ... }` object from a
/// previous run's file (our own output format — no general JSON parser
/// needed, and no serde dependency).
fn read_baseline(path: &Path) -> Option<Vec<(String, f64)>> {
    let text = std::fs::read_to_string(path).ok()?;
    let start = text.find("\"baseline\": {")? + "\"baseline\": {".len();
    let end = start + text[start..].find('}')?;
    let mut pairs = Vec::new();
    for entry in text[start..end].split(',') {
        let (k, v) = entry.split_once(':')?;
        let name = k.trim().trim_matches('"').to_string();
        let secs: f64 = v.trim().parse().ok()?;
        pairs.push((name, secs));
    }
    (!pairs.is_empty()).then_some(pairs)
}

fn render_json(
    cells: &[Cell],
    fig5_wall: f64,
    baseline: &[(String, f64)],
    scaling: &[String],
) -> String {
    let mut s = String::from("{\n");
    let _ = writeln!(
        s,
        "  \"harness\": \"cargo run --release -p pgrid-bench --bin perf\","
    );
    let _ = writeln!(s, "  \"fig5_total_wall_secs\": {fig5_wall:.6},");
    if let Some((_, b)) = baseline.iter().find(|(n, _)| n == "fig5_total") {
        let _ = writeln!(s, "  \"fig5_speedup_vs_baseline\": {:.4},", b / fig5_wall);
    }
    let _ = writeln!(s, "  \"cells\": [");
    for (i, c) in cells.iter().enumerate() {
        let eps = c
            .events_per_sec()
            .map_or("null".to_string(), |e| format!("{e:.1}"));
        let comma = if i + 1 == cells.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "    {{ \"name\": \"{}\", \"wall_secs\": {:.6}, \"events\": {}, \"events_per_sec\": {} }}{comma}",
            c.name, c.wall_secs, c.events, eps
        );
    }
    let _ = writeln!(s, "  ],");
    if !scaling.is_empty() {
        let _ = writeln!(s, "  \"scaling\": [");
        let _ = writeln!(s, "{}", scaling.join(",\n"));
        let _ = writeln!(s, "  ],");
    }
    let _ = writeln!(s, "  \"baseline\": {{");
    for (i, (name, secs)) in baseline.iter().enumerate() {
        let comma = if i + 1 == baseline.len() { "" } else { "," };
        let _ = writeln!(s, "    \"{name}\": {secs:.6}{comma}");
    }
    let _ = writeln!(s, "  }}");
    s.push_str("}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machine_factor_uses_recent_baseline_entries() {
        // Twenty baseline entries appended oldest-first; the old ones
        // have since been optimized 2x (ratio 0.5), the recent twelve
        // run true to baseline (ratio 1.0).
        let baseline: Vec<(String, f64)> = (0..20).map(|i| (format!("cell{i}"), 1.0)).collect();
        let rows: Vec<(String, f64, f64)> = (0..20)
            .map(|i| {
                let wall = if i < 8 { 0.5 } else { 1.0 };
                (format!("cell{i}"), 1.0, wall)
            })
            .collect();
        let (machine, allowed) = gate_budget(&rows, &baseline);
        // Mixed-age median would be dragged toward 0.5 by the old
        // entries; the recent-K median stays at the honest 1.0.
        assert_eq!(machine, 1.0);
        assert!((allowed - GATE_RATIO).abs() < 1e-12);
        // With only old rows measured, fall back to all of them.
        let old_rows: Vec<(String, f64, f64)> = rows[..4].to_vec();
        let (machine, _) = gate_budget(&old_rows, &baseline);
        assert_eq!(machine, 1.0, "ratios below one clamp to one");
    }

    #[test]
    fn scaling_rows_merge_by_name_and_survive_rerender() {
        let dir = std::env::temp_dir().join("pgrid_perf_scaling_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_hotpath.json");
        let _ = std::fs::remove_file(&path);
        let row = |name: &str, wall: f64| ScalingRow {
            name: name.into(),
            wall_secs: wall,
            build_secs: name.contains("fig5").then_some(0.125),
            events: 100,
            host_threads: 1,
        };
        // First merge creates the file and the array.
        merge_scaling(
            &path,
            &[
                row("scaling/fig5/n10/s1", 1.0),
                row("scaling/fig7/n10/compact", 3.0),
                row("scaling/fig5/n20/s1", 0.5),
            ],
        );
        assert_eq!(read_scaling_lines(&path).len(), 3);
        // A re-measurement replaces its own row and keeps the others.
        merge_scaling(&path, &[row("scaling/fig5/n20/s1", 0.25)]);
        let lines = read_scaling_lines(&path);
        assert_eq!(lines.len(), 3);
        assert!(lines.iter().any(|l| l.contains("0.250000")), "{lines:?}");
        assert!(lines.iter().any(|l| l.contains("/n10/s1")), "{lines:?}");
        assert_eq!(
            scaling_row_name(&lines[2]),
            Some("scaling/fig5/n20/s1"),
            "fresh rows append after preserved ones"
        );
        // Grid rows carry their build time, churn rows a null.
        assert!(lines[0].contains("\"build_secs\": 0.125000"), "{lines:?}");
        assert!(lines[1].contains("\"build_secs\": null"), "{lines:?}");
        // A default-mode rewrite carries the block through verbatim.
        let json = render_json(&[], 1.0, &[("fig5_total".to_string(), 1.0)], &lines);
        std::fs::write(&path, json).unwrap();
        assert_eq!(read_scaling_lines(&path), lines);
        // And the baseline parser still finds its object afterwards.
        assert!(read_baseline(&path).is_some());
    }

    #[test]
    fn repeat_budget_scales_with_observed_spread() {
        // A perfectly tight cell earns no extra samples; a 2 % spread
        // rounds up to one.
        assert_eq!(extra_samples_for_spread(&[0.010, 0.010, 0.010], 8).0, 0);
        let (extra, spread) = extra_samples_for_spread(&[0.010, 0.0101, 0.0102], 8);
        assert!(spread < 0.05, "spread {spread}");
        assert_eq!(extra, 1); // ceil(0.02/0.10) = 1
                              // 50 % spread earns five more, still within the cap.
        let (extra, spread) = extra_samples_for_spread(&[0.010, 0.015, 0.012], 8);
        assert!((spread - 0.5).abs() < 1e-9);
        assert_eq!(extra, 5);
        // The cap bounds a wildly noisy cell.
        let (extra, _) = extra_samples_for_spread(&[0.001, 0.020, 0.004, 0.009], 8);
        assert_eq!(extra, 4);
        // Degenerate inputs never panic or demand samples.
        assert_eq!(extra_samples_for_spread(&[], 8), (0, 0.0));
        assert_eq!(extra_samples_for_spread(&[0.0, 0.0], 8), (0, 0.0));
    }
}
