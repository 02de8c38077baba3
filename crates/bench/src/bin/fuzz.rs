//! Fault-schedule fuzzer: generates random fault schedules from a
//! seeded grammar, executes each across the CAN maintenance overlay
//! (and, when drawn, the scheduler crash-chaos stack) with every
//! cross-layer invariant oracle armed, and delta-debugs the first
//! violating schedule down to a near-minimal repro.
//!
//! Exits non-zero on a violation after writing the shrunk schedule as
//! a self-contained replayable trace under the results directory —
//! commit it to `tests/corpus/` to turn the repro into a permanent
//! regression test. Deterministic per seed: the wall budget only
//! bounds how many seeds run, never what any one seed does.

use pgrid::fuzz::{fuzz_search, FuzzConfig};
use pgrid::prelude::*;
use pgrid_bench::{parse_seeded_cli, render_fuzz, FUZZ_USAGE};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = parse_seeded_cli(true, FUZZ_USAGE);
    let quick = args.scale == Scale::Quick;
    let mut cfg = FuzzConfig::new(
        args.seed.unwrap_or(1),
        args.seeds.unwrap_or(if quick { 16 } else { 64 }),
    );
    if !quick {
        cfg.budget = ScheduleBudget::default();
    }
    cfg.wall_budget = args.budget.unwrap_or(if quick { 120.0 } else { 900.0 });

    println!(
        "=== Fault-schedule fuzzer: seeds {}..{} ({:?} grammar, {:.0} s wall budget) ===\n",
        cfg.start_seed,
        cfg.start_seed + cfg.seeds as u64,
        args.scale,
        cfg.wall_budget
    );
    let summary = fuzz_search(&cfg);
    println!("{}", render_fuzz(&summary));

    match &summary.failure {
        None => {
            println!(
                "invariants: ok (zero violations over {} seeds)",
                summary.runs.len()
            );
            ExitCode::SUCCESS
        }
        Some(f) => {
            let path = args.out.join(format!("fuzz_seed{}.trace", f.seed));
            std::fs::write(&path, f.shrunk.to_text()).expect("write shrunk trace");
            for v in &f.violations {
                eprintln!("INVARIANT VIOLATION: seed {}: {v}", f.seed);
            }
            eprintln!("shrunk repro trace written to {}", path.display());
            ExitCode::FAILURE
        }
    }
}
