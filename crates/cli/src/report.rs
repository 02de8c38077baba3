//! The one report path of the fault suites: every published table
//! declares its columns once (a [`Columns`] list renders the aligned
//! text and the CSV from it), and every suite ends in one verdict
//! over the failure lines `pgrid::experiments` derives from the same
//! cells.

use crate::CliError;
use pgrid::experiments::{
    relearn_mean, ChaosRow, CrashRecoveryCell, DetectorArm, DetectorCell, OverloadDelta, PooledArm,
    ScenarioCell, TakeoverCell, WaitShapingDelta,
};
use pgrid::metrics::{Cell, Column, Columns};
use pgrid::prelude::*;
use std::fmt::Write as _;

/// A table in both published forms.
pub struct Published {
    /// What the subcommand prints: the aligned table and its summary
    /// lines.
    pub text: String,
    /// What it saves under `--out`.
    pub csv: String,
}

fn published<R>(columns: Columns<R>, rows: &[R], summary: String) -> Published {
    Published {
        text: columns.text(rows) + &summary,
        csv: columns.csv(rows),
    }
}

/// The chaos-resilience table: one row per scenario x scheme, with
/// link damage, healing outcome, fault-layer drop counts, repair
/// traffic and invariant verdicts.
pub fn chaos(rows: &[ChaosRow]) -> Published {
    let columns: Columns<ChaosRow> = Columns::new(vec![
        Column::both("scenario", "scenario", |r| Cell::same(r.scenario)),
        Column::both("scheme", "scheme", |r| Cell::same(r.scheme.label())),
        Column::both("broken peak", "broken_peak", |r| {
            Cell::same(r.report.broken_peak)
        }),
        Column::both("broken after", "broken_after", |r| {
            Cell::same(r.report.broken_after)
        }),
        Column::both("gaps after", "gaps_after", |r| {
            Cell::same(r.report.gaps_after)
        }),
        Column::both("recovery(s)", "recovery_s", |r| {
            Cell::real(r.report.recovery_time, 0, 0)
        }),
        Column::both("dropped", "dropped_messages", |r| {
            Cell::same(r.report.dropped_messages)
        }),
        Column::csv("partition_drops", |r| Cell::same(r.report.partition_drops)),
        Column::csv("frozen_drops", |r| {
            Cell::same(r.report.counters.frozen_drops)
        }),
        Column::both("repairs", "repair_messages", |r| {
            Cell::same(r.report.counters.repair_messages)
        }),
        Column::both("probes", "gap_probes", |r| {
            Cell::same(r.report.counters.gap_probes)
        }),
        // Printed beside the recovery time, saved after the traffic.
        Column::both("relearn(hb)", "relearn_mean_hb", |r: &ChaosRow| {
            Cell::real(r.report.relearn_mean_heartbeats, 2, 3)
        })
        .text_slot(6),
        Column::csv("relearn_unresolved", |r| {
            Cell::same(r.report.relearn_unresolved)
        }),
        Column::both("msgs/node/min", "msgs_per_node_min", |r| {
            Cell::real(r.report.msgs_per_node_min, 1, 2)
        }),
        Column::both("verdict", "violations", |r| {
            Cell::violations(r.report.violations.len())
        }),
    ]);
    published(columns, rows, String::new())
}

/// The warm-standby takeover sweep: two rows per scheme (vanilla arm,
/// then replicated), with promotion/fence counters, the re-learn
/// window, and post-crash misdirection — plus a pooled summary line
/// comparing the two arms across every scheme.
pub fn takeover(cells: &[TakeoverCell]) -> Published {
    type Row<'a> = (&'a TakeoverCell, &'static str, &'a PooledArm);
    let columns: Columns<Row> = Columns::new(vec![
        Column::both("scheme", "scheme", |r| Cell::same(r.0.scheme.label())),
        Column::both("arm", "arm", |r| Cell::same(r.1)),
        Column::both("takeovers", "takeovers", |r| Cell::same(r.2.takeovers)),
        Column::both("promoted", "replica_promotions", |r| {
            Cell::same(r.2.replica_promotions)
        }),
        Column::both("fenced", "stale_replica_rejects", |r| {
            Cell::same(r.2.stale_replica_rejects)
        }),
        Column::both("agg", "agg_promotions", |r| Cell::same(r.2.agg_promotions)),
        Column::both("relearn(hb)", "relearn_mean_hb", |r| {
            Cell::real(r.2.relearn_mean_heartbeats, 2, 3)
        }),
        Column::csv("relearn_resolved", |r| Cell::same(r.2.relearn_resolved)),
        Column::both("unresolved", "relearn_unresolved", |r| {
            Cell::same(r.2.relearn_unresolved)
        }),
        Column::both("misdirect", "misdirect_rate", |r| {
            Cell::share(r.2.misdirect_rate)
        }),
        Column::csv("broken_peak", |r| Cell::same(r.2.broken_peak)),
        Column::both("msgs/node/min", "msgs_per_node_min", |r| {
            Cell::real(r.2.msgs_per_node_min, 1, 2)
        }),
        Column::both("verdict", "violations", |r| {
            Cell::violations(r.2.violations.len())
        }),
    ]);
    let rows: Vec<Row> = cells
        .iter()
        .flat_map(|c| c.arms().map(|(label, arm)| (c, label, arm)))
        .collect();
    let pooled = |i: usize| {
        let parts = cells.iter().map(|c| {
            let arm = c.arms()[i].1;
            (arm.relearn_mean_heartbeats, arm.relearn_resolved)
        });
        relearn_mean(parts).unwrap_or(0.0)
    };
    let summary = format!(
        "pooled re-learn window: vanilla {:.2} heartbeats, replicated {:.2} heartbeats\n",
        pooled(0),
        pooled(1),
    );
    published(columns, &rows, summary)
}

/// The scenario resilience table: one row per scenario × scheme arm
/// (repeat seeds pooled), plus a wait-delta line for every scenario
/// that shapes arrivals and a goodput line for every one that arms
/// overload control.
pub fn scenarios(cells: &[ScenarioCell]) -> Published {
    type Row<'a> = (&'a ScenarioCell, HeartbeatScheme, &'a PooledArm);
    // The workload-layer comparisons are per scenario: every arm's row
    // repeats them, empty where the scenario has none.
    fn wait(r: &Row, pick: fn(&WaitShapingDelta) -> f64) -> Cell {
        Cell::real(r.0.wait_delta.as_ref().map(pick), 2, 2)
    }
    fn over(r: &Row, dp: usize, pick: fn(&OverloadDelta) -> f64) -> Cell {
        Cell::real(r.0.overload.as_ref().map(pick), dp, dp)
    }
    let columns: Columns<Row> = Columns::new(vec![
        Column::both("scenario", "scenario", |r| Cell::same(r.0.scenario)),
        Column::both("scheme", "scheme", |r| Cell::same(r.1.label())),
        Column::both("broken peak", "broken_peak", |r| {
            Cell::same(r.2.broken_peak)
        }),
        Column::both("suspicions", "suspicions", |r| Cell::same(r.2.suspicions)),
        Column::both("false exp", "live_expulsions", |r| {
            Cell::same(r.2.live_expulsions)
        }),
        Column::both("revived", "revivals", |r| Cell::same(r.2.revivals)),
        Column::both("takeovers", "takeovers", |r| Cell::same(r.2.takeovers)),
        Column::both("promoted", "replica_promotions", |r| {
            Cell::same(r.2.replica_promotions)
        }),
        Column::both("fenced", "stale_replica_rejects", |r| {
            Cell::same(r.2.stale_replica_rejects)
        }),
        Column::both("relearn(hb)", "relearn_mean_hb", |r| {
            Cell::real(r.2.relearn_mean_heartbeats, 2, 3)
        }),
        Column::csv("relearn_resolved", |r| Cell::same(r.2.relearn_resolved)),
        Column::both("unresolved", "relearn_unresolved", |r| {
            Cell::same(r.2.relearn_unresolved)
        }),
        Column::both("misdirect", "misdirect_rate", |r| {
            Cell::share(r.2.misdirect_rate)
        }),
        Column::csv("baseline_mean_wait_s", |r| wait(r, |d| d.baseline_mean)),
        Column::csv("shaped_mean_wait_s", |r| wait(r, |d| d.shaped_mean)),
        Column::csv("baseline_p99_wait_s", |r| wait(r, |d| d.baseline_p99)),
        Column::csv("shaped_p99_wait_s", |r| wait(r, |d| d.shaped_p99)),
        Column::both("verdict", "violations", |r| {
            Cell::violations(r.2.violations.len())
        }),
        Column::csv("vanilla_goodput", |r| over(r, 2, |o| o.vanilla_goodput)),
        Column::csv("controlled_goodput", |r| {
            over(r, 2, |o| o.controlled_goodput)
        }),
        Column::csv("shed_rate", |r| over(r, 4, |o| o.shed_rate)),
        Column::csv("retry_amplification", |r| {
            over(r, 3, |o| o.retry_amplification)
        }),
        Column::csv("vanilla_p99_wait_s", |r| over(r, 2, |o| o.vanilla_p99)),
        Column::csv("controlled_p99_wait_s", |r| {
            over(r, 2, |o| o.controlled_p99)
        }),
    ]);
    let rows: Vec<Row> = cells
        .iter()
        .flat_map(|c| c.arms.iter().map(move |(scheme, arm)| (c, *scheme, arm)))
        .collect();
    let mut summary = String::new();
    for c in cells {
        if let Some(d) = &c.wait_delta {
            let _ = writeln!(
                summary,
                "{}: shaped arrivals mean wait {:.1}s vs {:.1}s baseline (p99 {:.1}s vs {:.1}s)",
                c.scenario, d.shaped_mean, d.baseline_mean, d.shaped_p99, d.baseline_p99,
            );
        }
        if let Some(o) = &c.overload {
            let _ = writeln!(
                summary,
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
        }
    }
    published(columns, &rows, summary)
}

/// The failure-detector sweep: two rows per jitter × freeze cell
/// (fixed rule, then adaptive), plus a false-positive summary line
/// comparing the two rules across the whole sweep.
pub fn detector(cells: &[DetectorCell]) -> Published {
    type Row<'a> = (&'a DetectorCell, &'a DetectorArm);
    let columns: Columns<Row> = Columns::new(vec![
        Column::both("stress", "link_stress", |r| {
            Cell::pair(
                format!("{:.1}", r.0.link_stress),
                r.0.link_stress.to_string(),
            )
        }),
        Column::both("freeze(s)", "freeze_s", |r| {
            Cell::pair(
                format!("{:.0}", r.0.freeze_secs),
                r.0.freeze_secs.to_string(),
            )
        }),
        Column::both("rule", "rule", |r| Cell::same(r.1.mode.label())),
        Column::both("suspicions", "suspicions", |r| {
            Cell::same(r.1.counters.suspicions)
        }),
        Column::both("probes", "probe_requests", |r| {
            Cell::same(r.1.counters.probe_requests)
        }),
        Column::both("expelled", "live_expulsions", |r| {
            Cell::same(r.1.counters.live_expulsions)
        }),
        Column::both("false pos", "false_expulsions", |r| {
            Cell::same(r.1.counters.false_expulsions)
        }),
        Column::both("revived", "revivals", |r| Cell::same(r.1.counters.revivals)),
        Column::both("lag(s)", "detection_lag_s", |r| {
            Cell::real(r.1.counters.mean_detection_lag(), 1, 2)
        }),
        Column::both("broken link-s", "broken_link_seconds", |r| {
            Cell::real(r.1.broken_link_seconds, 0, 1)
        }),
        Column::both("stale KAs", "stale_keepalives", |r| {
            Cell::same(r.1.stale_keepalives)
        }),
    ]);
    let rows: Vec<Row> = cells
        .iter()
        .flat_map(|c| c.arms().map(|arm| (c, arm)))
        .collect();
    let fixed_fp: u64 = cells
        .iter()
        .map(|c| c.fixed.counters.false_expulsions)
        .sum();
    let adaptive_fp: u64 = cells
        .iter()
        .map(|c| c.adaptive.counters.false_expulsions)
        .sum();
    let summary = format!(
        "false-positive expulsions across the sweep: fixed {fixed_fp}, adaptive {adaptive_fp}\n"
    );
    published(columns, &rows, summary)
}

/// The crash-recovery table: one row per scheduler under fail-stop
/// crashes, with the job-conservation ledger armed.
pub fn crash_recovery(cells: &[CrashRecoveryCell]) -> String {
    Columns::new(vec![
        Column::text("scheduler", |c: &CrashRecoveryCell| {
            Cell::same(c.choice.label())
        }),
        Column::text("crashes", |c| Cell::same(c.stats.crashes)),
        Column::text("killed run/queued", |c| {
            Cell::same(format!(
                "{}/{}",
                c.stats.killed_running, c.stats.killed_queued
            ))
        }),
        Column::text("requeued", |c| Cell::same(c.stats.requeued)),
        Column::text("failed", |c| Cell::same(c.stats.permanently_failed)),
        Column::text("completed", |c| Cell::same(c.completed)),
        Column::text("wasted(s)", |c| Cell::real(c.stats.wasted_seconds, 0, 0)),
        Column::text("wait calm(s)", |c| Cell::real(c.calm_mean_wait, 1, 1)),
        Column::text("wait chaos(s)", |c| Cell::real(c.chaos_mean_wait, 1, 1)),
    ])
    .text(cells)
}

/// A fuzz sweep: one row per clean seed, then the failure block (if
/// any) with the shrink statistics.
pub fn fuzz(summary: &FuzzSummary) -> String {
    let mut out = Columns::new(vec![
        Column::text("seed", |r: &pgrid::fuzz::SeedRun| Cell::same(r.seed)),
        Column::text("scheme", |r| Cell::same(&r.scheme)),
        Column::text("nodes", |r| Cell::same(r.nodes)),
        Column::text("events", |r| Cell::same(r.events)),
        Column::text("broken peak", |r| Cell::same(r.broken_peak)),
        Column::text("digest", |r| Cell::same(format!("{:016x}", r.digest))),
    ])
    .text(&summary.runs);
    let _ = writeln!(
        out,
        "clean seeds: {}/{} requested{}",
        summary.runs.len(),
        summary.seeds_requested,
        if summary.hit_wall_budget {
            " (wall budget hit)"
        } else {
            ""
        }
    );
    if let Some(f) = &summary.failure {
        let _ = writeln!(
            out,
            "FAILURE at seed {}: {} violation(s); shrunk {} -> {} fault events in {} replay probes",
            f.seed,
            f.violations.len(),
            f.original_events,
            f.shrunk.events.len(),
            f.probes,
        );
        for v in &f.shrunk_violations {
            let _ = writeln!(out, "  shrunk repro still violates: {v}");
        }
    }
    out
}

/// Ends a suite: `out` plus the all-clear line, or — `out` still
/// printed — an error naming every broken rule.
fn conclude(
    mut out: String,
    all_clear: &str,
    heading: &str,
    failures: Vec<String>,
) -> Result<String, CliError> {
    if failures.is_empty() {
        out.push_str(all_clear);
        out.push('\n');
        return Ok(out);
    }
    Err(CliError {
        stdout: out,
        message: format!("{heading}:\n  {}", failures.join("\n  ")),
        status: 1,
    })
}

/// The exit of an oracle-gated suite (`experiments::chaos_violations`,
/// `experiments::scenario_violations`).
pub fn invariants_verdict(out: String, violations: Vec<String>) -> Result<String, CliError> {
    conclude(
        out,
        "invariants: ok (zero violations)",
        "invariant violations",
        violations,
    )
}

/// The exit of the detector sweep (`experiments::detector_regressions`).
pub fn detector_verdict(out: String, regressions: Vec<String>) -> Result<String, CliError> {
    conclude(
        out,
        "detector claims: ok (adaptive never worse, real failures caught)",
        "detector regressions",
        regressions,
    )
}
