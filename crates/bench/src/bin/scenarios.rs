//! Scenario library driver: compiles every registered adversarial
//! scenario (diurnal waves, flash crowds, rack storms, stragglers,
//! gray failures, plus the scripted chaos trio) per heartbeat scheme
//! and repeat seed, runs each through the full DST oracle harness, and
//! prints the scheme-vs-scheme resilience table. Scenarios that shape
//! arrival rates also report the workload-layer wait-time delta.
//!
//! `--list` prints the registry; `--scenario NAME` restricts the run
//! to matching names (substring; zero matches is an error). Exits
//! non-zero on any invariant violation, so CI uses `scenarios --quick`
//! as a smoke gate over the whole library.
//!
//! Deterministic: the same seed always reproduces the same table.

use pgrid::experiments;
use pgrid_bench::{parse_scenario_args, render_scenarios, save_scenarios_csv, SCENARIOS_USAGE};
use std::process::ExitCode;

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_scenario_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{SCENARIOS_USAGE}");
            std::process::exit(2);
        }
    };
    if args.list {
        print!("{}", pgrid::scenarios::listing());
        return ExitCode::SUCCESS;
    }
    let filter = args.filter.as_deref().unwrap_or("");
    let specs = pgrid::scenarios::matching(filter);
    if specs.is_empty() {
        let names: Vec<&str> = pgrid::scenarios::REGISTRY.iter().map(|s| s.name).collect();
        eprintln!(
            "error: no scenario matches '{filter}' (known: {})",
            names.join(" | ")
        );
        eprintln!("{SCENARIOS_USAGE}");
        std::process::exit(2);
    }
    std::fs::create_dir_all(&args.out).expect("create results dir");

    let seed = args.seed.unwrap_or(experiments::SCENARIO_SEED);
    println!(
        "=== Scenario library: {} scenario(s), seed {seed} ({:?}) ===\n",
        specs.len(),
        args.scale
    );
    let cells = experiments::scenario_suite_over(args.scale, seed, &specs);
    println!("{}", render_scenarios(&cells));
    let csv = args.out.join("scenarios_resilience.csv");
    save_scenarios_csv(&csv, &cells).expect("write csv");
    println!("CSV written to {}", csv.display());

    let mut violations: Vec<String> = cells
        .iter()
        .flat_map(|c| {
            c.arms.iter().flat_map(move |arm| {
                arm.violations
                    .iter()
                    .map(move |v| format!("{}/{}: {v}", c.scenario, arm.scheme.label()))
            })
        })
        .collect();
    for c in &cells {
        if let Some(o) = &c.overload {
            if o.controlled_goodput <= o.vanilla_goodput {
                violations.push(format!(
                    "{}: overload control did not improve goodput ({:.2} <= {:.2} jobs/1000s)",
                    c.scenario, o.controlled_goodput, o.vanilla_goodput
                ));
            }
        }
    }
    if violations.is_empty() {
        println!("invariants: ok (zero violations)");
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            eprintln!("INVARIANT VIOLATION: {v}");
        }
        ExitCode::FAILURE
    }
}
