//! Chaos harness: runs the three scripted fault scenarios (crash flash
//! crowd, rolling partition, 20 % loss + high churn) for every
//! heartbeat scheme, then the warm-standby takeover sweep (the same
//! take-over storm vanilla vs replicated, pooled over repeat seeds),
//! then each scheduler under fail-stop crashes with the
//! job-conservation ledger armed, and prints the resilience tables.
//! Exits non-zero if any invariant checker reports a violation, so CI
//! can use `chaos --quick` as a smoke gate — the quick gate covers a
//! replicated take-over cell too.
//!
//! `--seed` overrides the historical scenario seed (41); `--budget`
//! caps wall-clock — the crash-recovery suite is skipped once the cap
//! is exceeded (the CAN suite and its invariant verdicts always run).
//!
//! Deterministic: the same seed always reproduces the same tables.

use pgrid::experiments;
use pgrid_bench::{
    parse_seeded_cli, render_chaos, render_crash_recovery, render_takeover, save_chaos_csv,
    save_takeover_csv, CHAOS_USAGE,
};
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let args = parse_seeded_cli(false, CHAOS_USAGE);
    let seed = args.seed.unwrap_or(experiments::CHAOS_SEED);
    let started = Instant::now();
    println!(
        "=== Chaos harness: scripted faults, seed {seed} ({:?}) ===\n",
        args.scale
    );

    println!("--- CAN maintenance under chaos ---");
    let reports = experiments::chaos_suite(args.scale, seed);
    println!("{}", render_chaos(&reports));
    let csv = args.out.join("chaos.csv");
    save_chaos_csv(&csv, &reports).expect("write csv");

    println!("--- Warm-standby takeover sweep (vanilla vs replicated) ---");
    let takeover_seed = args.seed.unwrap_or(experiments::TAKEOVER_SEED);
    let cells = experiments::takeover_suite(args.scale, takeover_seed);
    println!("{}", render_takeover(&cells));
    let takeover_csv = args.out.join("takeover.csv");
    save_takeover_csv(&takeover_csv, &cells).expect("write csv");

    if args
        .budget
        .is_none_or(|b| started.elapsed().as_secs_f64() <= b)
    {
        println!("--- Crash-safe job recovery (conservation ledger armed) ---");
        let cells = experiments::crash_recovery_suite(args.scale);
        println!("{}", render_crash_recovery(&cells));
    } else {
        println!("(crash-recovery suite skipped: wall budget exceeded)");
    }
    println!(
        "CSV written to {} and {}",
        csv.display(),
        takeover_csv.display()
    );

    let mut violations: Vec<String> = reports
        .iter()
        .flat_map(|r| {
            r.report
                .violations
                .iter()
                .map(move |v| format!("{}/{}: {v}", r.scenario, r.scheme.label()))
        })
        .collect();
    for c in &cells {
        for arm in [&c.vanilla, &c.replicated] {
            let label = if arm.replicated {
                "replicated"
            } else {
                "vanilla"
            };
            violations.extend(
                arm.violations
                    .iter()
                    .map(|v| format!("takeover/{}/{label}: {v}", c.scheme.label())),
            );
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
