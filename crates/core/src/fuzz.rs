//! The fuzz driver: seed loop, cross-layer case execution, shrinking,
//! and corpus replay — the top of the DST harness.
//!
//! A *case* is one [`FaultSchedule`]. [`run_case`] executes it across
//! both simulation stacks:
//!
//! 1. the CAN maintenance overlay via [`crate::can::dst::run_schedule`]
//!    (per-heartbeat zone-tiling / neighbor-symmetry / take-over /
//!    quiescence oracles), and
//! 2. when the schedule carries a `sched` record, a scaled-down
//!    load-balancing run under crash chaos, checked against the ledger
//!    oracles (job conservation, bounded wasted work, bounded retry
//!    attempts, no starved retries).
//!
//! Panics from either stack — event-queue monotonicity, split-tree
//! corruption, `JobLedger` conservation asserts — are caught and
//! converted into reported violations, so the shrinker can minimize
//! crashing schedules just like soft oracle failures.
//!
//! [`fuzz_search`] drives N seeds under a wall-clock budget. The wall
//! clock only bounds *how many* seeds run; it never leaks into a
//! schedule or a digest, so every individual case stays bit-replayable.

use crate::can;
use crate::sched::recovery::MAX_RETRIES;
use crate::sched::{
    bounded_queue_violation, retry_storm_violation, run_load_balance_chaos,
    run_load_balance_overload, CrashChaosConfig, OverloadConfig, OverloadStats, SimResult,
};
use crate::simcore::dst::{generate, shrink, FaultSchedule, Fnv, ScheduleBudget};
use crate::workload::default_scenario;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Outcome of one fuzz case (one schedule, both simulation stacks).
#[derive(Debug, Clone, PartialEq)]
pub struct CaseReport {
    /// All oracle violations and caught panics, in discovery order.
    pub violations: Vec<String>,
    /// FNV-1a digest of the observable trajectory of both stacks.
    pub digest: u64,
    /// Peak directed broken-link count (0 if the CAN phase panicked).
    pub broken_peak: usize,
    /// Overload-control counters from the sched phase (`None` unless
    /// the schedule carried an `overload` record and the phase ran to
    /// completion).
    pub overload: Option<OverloadStats>,
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs one schedule through the CAN overlay and (optionally) the
/// scheduler crash-chaos stack, returning every oracle violation and a
/// digest of everything observed. Deterministic: same schedule, same
/// report, bit for bit.
pub fn run_case(schedule: &FaultSchedule) -> CaseReport {
    let mut violations = Vec::new();
    let mut digest = Fnv::new();
    let mut broken_peak = 0usize;
    let mut overload_stats = None;

    match catch_unwind(AssertUnwindSafe(|| can::dst::run_schedule(schedule))) {
        Ok(report) => {
            broken_peak = report.broken_peak;
            violations.extend(report.violations.iter().cloned());
            digest.write_u64(report.digest);
        }
        Err(payload) => {
            let msg = format!("CAN phase panicked: {}", panic_message(payload));
            digest.write_str(&msg);
            violations.push(msg);
        }
    }

    if schedule.sched_crash_interval.is_some() || schedule.overload.is_some() {
        match catch_unwind(AssertUnwindSafe(|| run_sched_phase(schedule))) {
            Ok((result, jobs, chaos, overload)) => {
                check_sched_oracles(
                    &result,
                    jobs,
                    chaos.as_ref(),
                    overload.as_ref(),
                    &mut violations,
                );
                fold_sched_digest(&result, &mut digest);
                overload_stats = result.overload;
            }
            Err(payload) => {
                let msg = format!("sched phase panicked: {}", panic_message(payload));
                digest.write_str(&msg);
                violations.push(msg);
            }
        }
    }

    for msg in &violations {
        digest.write_str(msg);
    }
    CaseReport {
        violations,
        digest: digest.finish(),
        broken_peak,
        overload: overload_stats,
    }
}

/// A scaled-down load-balancing run under crash chaos and/or overload
/// control, seeded from the schedule so the whole case replays from
/// one seed.
fn run_sched_phase(
    schedule: &FaultSchedule,
) -> (
    SimResult,
    usize,
    Option<CrashChaosConfig>,
    Option<OverloadConfig>,
) {
    let scenario = default_scenario()
        .scaled_down(50) // 20 nodes, 400 jobs
        .with_seed(schedule.seed);
    let choice = crate::sched::SchedulerChoice::ALL[(schedule.seed % 3) as usize];
    let chaos = schedule.sched_crash_interval.map(CrashChaosConfig::new);
    let overload = schedule.overload.map(|o| OverloadConfig {
        queue_slots: Some(o.slots),
        max_queue_wait: Some(o.wait),
        retry_burst: o.burst,
        retry_refill: o.refill,
    });
    // Chaos-only schedules keep the exact historical code path (and
    // therefore digests); `run_load_balance_overload` is entered only
    // when the schedule actually arms overload control.
    let result = match (&chaos, &overload) {
        (_, Some(o)) => run_load_balance_overload(&scenario, choice, chaos.as_ref(), o),
        (Some(c), None) => run_load_balance_chaos(&scenario, choice, c),
        (None, None) => unreachable!("sched phase gated on sched/overload records"),
    };
    (result, scenario.jobs, chaos, overload)
}

/// Ledger, recovery, and overload oracles over a finished sched run.
fn check_sched_oracles(
    result: &SimResult,
    jobs: usize,
    chaos: Option<&CrashChaosConfig>,
    overload: Option<&OverloadConfig>,
    violations: &mut Vec<String>,
) {
    let shed = result
        .overload
        .as_ref()
        .map_or(0, OverloadStats::shed_total);
    let failed = result.recovery.as_ref().map_or(0, |r| r.permanently_failed);
    let accounted = result.wait_times.len() as u64 + failed + shed + result.lost_jobs;
    if accounted != jobs as u64 {
        violations.push(format!(
            "sched: job conservation broken: {} completed + {} failed + {} shed + {} lost \
             != {} submitted",
            result.wait_times.len(),
            failed,
            shed,
            result.lost_jobs,
            jobs
        ));
    }
    if result.lost_jobs > 0 && overload.is_none() {
        violations.push(format!(
            "sched: event queue drained with {} jobs outstanding",
            result.lost_jobs
        ));
    }
    if !result.wait_times.iter().all(|w| w.is_finite() && *w >= 0.0) {
        violations.push("sched: non-finite or negative wait time".into());
    }
    if !(result.makespan.is_finite() && result.makespan >= 0.0) {
        violations.push(format!("sched: absurd makespan {}", result.makespan));
    }
    if chaos.is_some() {
        let Some(rec) = &result.recovery else {
            violations.push("sched: chaos run reported no recovery stats".into());
            return;
        };
        let waste_bound = result.makespan * rec.killed_running as f64;
        if !(rec.wasted_seconds.is_finite()
            && rec.wasted_seconds >= 0.0
            && rec.wasted_seconds <= waste_bound)
        {
            violations.push(format!(
                "sched: wasted work {} outside [0, {}] for {} killed running jobs",
                rec.wasted_seconds, waste_bound, rec.killed_running
            ));
        }
        if rec.max_attempts > MAX_RETRIES + 1 {
            violations.push(format!(
                "sched: job needed {} attempts with a budget of {MAX_RETRIES} retries",
                rec.max_attempts
            ));
        }
        if rec.jobs_lost() > 0 && rec.requeued == 0 && rec.permanently_failed == 0 {
            violations.push(format!(
                "sched: {} jobs lost to crashes but none requeued or failed (starved retries)",
                rec.jobs_lost()
            ));
        }
    }
    if let Some(cfg) = overload {
        let Some(stats) = &result.overload else {
            violations.push("sched: overload run reported no overload stats".into());
            return;
        };
        if let Some(msg) = bounded_queue_violation(stats, cfg) {
            violations.push(format!("sched: {msg}"));
        }
        if let Some(msg) = retry_storm_violation(stats, cfg, result.makespan) {
            violations.push(format!("sched: {msg}"));
        }
    }
}

fn fold_sched_digest(result: &SimResult, digest: &mut Fnv) {
    digest.write_f64(result.makespan);
    digest.write_usize(result.wait_times.len());
    for &w in &result.wait_times {
        digest.write_f64(w);
    }
    digest.write_u64(result.evictions);
    digest.write_u64(result.resubmissions);
    digest.write_u64(result.fallback_placements);
    digest.write_u64(result.events_fired);
    if let Some(rec) = &result.recovery {
        digest.write_u64(rec.crashes);
        digest.write_u64(rec.killed_running);
        digest.write_u64(rec.killed_queued);
        digest.write_u64(rec.requeued);
        digest.write_u64(rec.permanently_failed);
        digest.write_f64(rec.wasted_seconds);
        digest.write_u64(u64::from(rec.max_attempts));
    }
    // Folded only when overload control is armed, mirroring `recovery`,
    // so every historical chaos-only digest stays bit-identical.
    if let Some(ov) = &result.overload {
        digest.write_u64(ov.admitted);
        digest.write_u64(ov.admission_rejects);
        digest.write_u64(ov.shed_admission);
        digest.write_u64(ov.shed_queue);
        digest.write_u64(ov.push_attempts);
        digest.write_u64(ov.max_boundary_depth);
        digest.write_u64(result.lost_jobs);
    }
}

/// Parses a trace and replays it once. Returns the schedule and the
/// case report; parse failures are rendered with their line number.
pub fn replay_trace(text: &str) -> Result<(FaultSchedule, CaseReport), String> {
    let schedule = FaultSchedule::parse(text).map_err(|e| e.to_string())?;
    let report = run_case(&schedule);
    Ok((schedule, report))
}

/// Configuration of one [`fuzz_search`] sweep.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// First seed (inclusive); seeds run sequentially from here.
    pub start_seed: u64,
    /// Number of seeds to attempt.
    pub seeds: usize,
    /// Schedule-grammar bounds.
    pub budget: ScheduleBudget,
    /// Wall-clock budget in seconds. Bounds only how many seeds run —
    /// it never affects any individual case's behavior or digest.
    pub wall_budget: f64,
    /// Replay-probe budget handed to the shrinker on failure.
    pub shrink_probes: usize,
}

impl FuzzConfig {
    /// A sweep of `seeds` seeds starting at `start_seed` with default
    /// budgets (smoke schedule grammar, 120 s wall, 256 probes).
    pub fn new(start_seed: u64, seeds: usize) -> Self {
        FuzzConfig {
            start_seed,
            seeds,
            budget: ScheduleBudget::smoke(),
            wall_budget: 120.0,
            shrink_probes: 256,
        }
    }
}

/// One clean seed's result row.
#[derive(Debug, Clone)]
pub struct SeedRun {
    /// The seed.
    pub seed: u64,
    /// Scheme label the generator drew.
    pub scheme: String,
    /// Bootstrap population.
    pub nodes: usize,
    /// Node-fault events in the schedule.
    pub events: usize,
    /// Peak broken links observed.
    pub broken_peak: usize,
    /// Case digest.
    pub digest: u64,
}

/// A violating seed, with its shrunk repro.
#[derive(Debug, Clone)]
pub struct FuzzFailure {
    /// The violating seed.
    pub seed: u64,
    /// Violations of the *original* (unshrunk) schedule.
    pub violations: Vec<String>,
    /// The near-minimal schedule, still violating, with its replay
    /// digest recorded in `expect_digest` — ready to serialize into
    /// the corpus.
    pub shrunk: FaultSchedule,
    /// Violations of the shrunk schedule.
    pub shrunk_violations: Vec<String>,
    /// Node-fault events before shrinking.
    pub original_events: usize,
    /// Replay probes the shrinker spent.
    pub probes: usize,
}

/// Outcome of a [`fuzz_search`] sweep.
#[derive(Debug, Clone)]
pub struct FuzzSummary {
    /// Clean seeds, in execution order.
    pub runs: Vec<SeedRun>,
    /// The first violating seed, if any (the sweep stops there).
    pub failure: Option<FuzzFailure>,
    /// Seeds requested.
    pub seeds_requested: usize,
    /// Whether the wall budget expired before all seeds ran.
    pub hit_wall_budget: bool,
}

/// Runs schedules for seeds `start_seed..start_seed + seeds` (the range
/// stops at `u64::MAX`) until one violates an oracle or the wall budget
/// expires. On violation the
/// schedule is delta-debugged to a near-minimal repro whose replay
/// digest is recorded, and the sweep stops.
pub fn fuzz_search(cfg: &FuzzConfig) -> FuzzSummary {
    let started = Instant::now();
    let mut runs = Vec::new();
    let mut hit_wall_budget = false;
    let seeds = (0..cfg.seeds as u64).map_while(|i| cfg.start_seed.checked_add(i));
    for seed in seeds {
        if !runs.is_empty() && started.elapsed().as_secs_f64() > cfg.wall_budget {
            hit_wall_budget = true;
            break;
        }
        let schedule = generate(seed, &cfg.budget);
        let report = run_case(&schedule);
        if report.violations.is_empty() {
            runs.push(SeedRun {
                seed,
                scheme: schedule.scheme.clone(),
                nodes: schedule.nodes,
                events: schedule.events.len(),
                broken_peak: report.broken_peak,
                digest: report.digest,
            });
            continue;
        }
        let outcome = shrink(&schedule, cfg.shrink_probes, |candidate| {
            !run_case(candidate).violations.is_empty()
        });
        let mut shrunk = outcome.schedule;
        let shrunk_report = run_case(&shrunk);
        shrunk.expect_digest = Some(shrunk_report.digest);
        return FuzzSummary {
            runs,
            failure: Some(FuzzFailure {
                seed,
                violations: report.violations,
                shrunk,
                shrunk_violations: shrunk_report.violations,
                original_events: schedule.events.len(),
                probes: outcome.probes,
            }),
            seeds_requested: cfg.seeds,
            hit_wall_budget: false,
        };
    }
    FuzzSummary {
        runs,
        failure: None,
        seeds_requested: cfg.seeds,
        hit_wall_budget,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_replay_is_bit_identical() {
        let mut s = generate(8, &ScheduleBudget::smoke());
        s.sched_crash_interval = Some(500.0);
        let a = run_case(&s);
        let b = run_case(&s);
        assert_eq!(a, b);
    }

    #[test]
    fn sched_phase_oracles_pass_on_the_current_scheduler() {
        let mut s = generate(12, &ScheduleBudget::smoke());
        s.sched_crash_interval = Some(400.0);
        let report = run_case(&s);
        assert!(report.violations.is_empty(), "{:#?}", report.violations);
    }

    #[test]
    fn overload_armed_case_replays_and_passes_oracles() {
        use crate::simcore::dst::OverloadRecord;
        let mut s = generate(8, &ScheduleBudget::smoke());
        s.sched_crash_interval = Some(500.0);
        s.overload = Some(OverloadRecord {
            slots: 4,
            wait: 900.0,
            burst: 3,
            refill: 0.01,
        });
        let a = run_case(&s);
        let b = run_case(&s);
        assert_eq!(a, b, "armed case must replay bit-identically");
        assert!(a.violations.is_empty(), "{:#?}", a.violations);
        let stats = a.overload.expect("armed case reports overload stats");
        assert!(stats.admitted > 0);
    }

    #[test]
    fn overload_arming_does_not_change_the_can_digest() {
        use crate::simcore::dst::OverloadRecord;
        let mut s = generate(8, &ScheduleBudget::smoke());
        let disarmed = run_case(&s);
        s.overload = Some(OverloadRecord {
            slots: 4,
            wait: 900.0,
            burst: 3,
            refill: 0.01,
        });
        let armed = run_case(&s);
        // The CAN phase is untouched by overload arming; only the sched
        // phase (and thus the combined digest) may move.
        assert_eq!(armed.broken_peak, disarmed.broken_peak);
        assert!(armed.overload.is_some() && disarmed.overload.is_none());
    }

    #[test]
    fn panics_become_violations_not_aborts() {
        let mut s = generate(3, &ScheduleBudget::smoke());
        s.scheme = "laser".into(); // run_schedule panics on this
        let report = run_case(&s);
        assert!(
            report.violations.iter().any(|v| v.contains("panicked")),
            "{:?}",
            report.violations
        );
    }

    #[test]
    fn clean_sweep_reports_every_seed() {
        let mut cfg = FuzzConfig::new(100, 3);
        cfg.wall_budget = 600.0;
        let summary = fuzz_search(&cfg);
        assert!(summary.failure.is_none(), "{:#?}", summary.failure);
        assert_eq!(summary.runs.len(), 3);
        assert!(!summary.hit_wall_budget);
    }

    #[test]
    fn a_sweep_stops_at_the_last_seed() {
        let mut cfg = FuzzConfig::new(u64::MAX - 1, 5);
        cfg.wall_budget = 600.0;
        let summary = fuzz_search(&cfg);
        assert!(summary.failure.is_none(), "{:#?}", summary.failure);
        let seeds: Vec<u64> = summary.runs.iter().map(|r| r.seed).collect();
        assert_eq!(seeds, [u64::MAX - 1, u64::MAX]);
    }

    #[test]
    fn violating_seed_is_shrunk_with_a_recorded_digest() {
        // Force a failure by breaking the scheme label after generation
        // is not possible through fuzz_search, so instead verify the
        // shrinker contract directly on a case-level predicate: a
        // schedule that "fails" whenever it still has any freeze event.
        let s = generate(40, &ScheduleBudget::default());
        let outcome = shrink(&s, 128, |c| {
            c.events
                .iter()
                .any(|e| matches!(e.fault, crate::simcore::fault::NodeFault::Freeze { .. }))
        });
        // Either the schedule had a freeze event and shrank to just it,
        // or it had none and shrinking was a no-op under the budget.
        if s.events
            .iter()
            .any(|e| matches!(e.fault, crate::simcore::fault::NodeFault::Freeze { .. }))
        {
            assert_eq!(outcome.schedule.events.len(), 1);
        }
    }
}
