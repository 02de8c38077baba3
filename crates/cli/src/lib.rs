//! Implementation of the `pgrid` command-line tool.
//!
//! Subcommands:
//!
//! * `pgrid simulate` — one load-balancing simulation (Figure 5/6
//!   style) with configurable population, workload and scheduler;
//! * `pgrid churn` — one CAN churn simulation (Figure 7/8 style) with
//!   configurable scheme, churn rate and message loss;
//! * `pgrid chaos` — the scripted fault scenarios, the warm-standby
//!   takeover sweep and the crash-recovery suite through the DST
//!   schedule executor, failing on any invariant violation;
//! * `pgrid scenarios` — the named adversarial scenario library
//!   (diurnal waves, flash crowds, rack storms, stragglers, gray
//!   failures) through the DST oracle harness, scheme vs scheme;
//! * `pgrid detector` — fixed-timeout vs adaptive-suspicion failure
//!   detection under asymmetric link stress and process freezes;
//! * `pgrid fuzz` — seeded fault-schedule fuzzing with delta-debugged
//!   repros, plus bit-exact replay of saved traces;
//! * `pgrid figure` — regenerate a figure of the paper's evaluation or
//!   an extension experiment (one registry in `figures`), or all;
//! * `pgrid trace` — generate node/job traces, or replay previously
//!   saved traces through a scheduler;
//! * `pgrid info` — the built-in scenario defaults and experiment
//!   inventory.
//!
//! The four fault suites above have no other front end: each prints
//! its tables, saves them as CSV under `--out` and exits non-zero on a
//! broken rule, all through [`report`] — one column list per table,
//! one verdict per suite — whose bytes `tests` pins.
//!
//! Argument parsing is hand-rolled (`--flag value` pairs plus boolean
//! switches) to stay inside the approved dependency set.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod commands;
mod figures;
pub mod report;
#[cfg(test)]
mod tests;

use std::process::ExitCode;

/// A failed command: what to tell the user, and the exit status.
#[derive(Debug)]
pub struct CliError {
    /// What the command had to show before it failed — a suite that
    /// breaks a rule still prints its tables. Printed on stdout.
    pub stdout: String,
    /// Printed after `error: ` on stderr.
    pub message: String,
    /// 1 for a bad invocation or a failed run; 2 for input no grid can
    /// be built from.
    pub status: u8,
}

impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError {
            stdout: String::new(),
            message,
            status: 1,
        }
    }
}

impl From<&str> for CliError {
    fn from(message: &str) -> Self {
        message.to_string().into()
    }
}

impl From<pgrid::sched::BuildError> for CliError {
    fn from(e: pgrid::sched::BuildError) -> Self {
        CliError {
            status: 2,
            ..e.to_string().into()
        }
    }
}

/// Entry point used by the `pgrid` binary.
pub fn run(argv: Vec<String>) -> ExitCode {
    match dispatch(argv) {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            print!("{}", e.stdout);
            eprintln!("error: {}", e.message);
            eprintln!("run `pgrid help` for usage");
            ExitCode::from(e.status)
        }
    }
}

/// Parses and executes; returns the full textual output (testable).
pub fn dispatch(argv: Vec<String>) -> Result<String, CliError> {
    let mut it = argv.into_iter();
    let _program = it.next();
    let Some(cmd) = it.next() else {
        return Ok(commands::help());
    };
    let rest: Vec<String> = it.collect();
    Ok(match cmd.as_str() {
        "simulate" => commands::simulate(args::Args::parse(&rest)?)?,
        "churn" => commands::churn(args::Args::parse(&rest)?)?,
        "chaos" => commands::chaos(args::Args::parse(&rest)?)?,
        "scenarios" => commands::scenarios(args::Args::parse(&rest)?)?,
        "detector" => commands::detector(args::Args::parse(&rest)?)?,
        "fuzz" => commands::fuzz(args::Args::parse(&rest)?)?,
        "figure" => figures::figure(&rest)?,
        "trace" => commands::trace(&rest)?,
        "info" => commands::info(),
        "help" | "--help" | "-h" => commands::help(),
        other => return Err(format!("unknown command '{other}'").into()),
    })
}
