//! Crash-safe job recovery for the load-balancing simulation.
//!
//! The volunteer-eviction model in [`crate::grid_sim`] is *graceful*:
//! the node announces its withdrawal and its jobs are handed back for
//! immediate resubmission. A **crash** is fail-stop and silent — the
//! node's running and queued jobs are simply gone, and nothing learns
//! of it until a failure-detection timeout elapses (the same timeout
//! discipline the CAN heartbeat layer uses for neighbor liveness).
//! Detected losses are re-matched from scratch with exponential
//! backoff and a bounded retry budget; jobs that exhaust the budget
//! are reported permanently failed rather than silently dropped.
//!
//! [`JobLedger`] enforces the conservation invariant mid-chaos: every
//! job ends exactly-once completed or exactly-once permanently failed
//! — never lost, never double-completed.

/// Seconds a crashed node stays down before rejoining.
pub const CRASH_OUTAGE: f64 = 1800.0;

/// Seconds from a crash until the failure detector reports its jobs
/// lost: nothing reacts to a crash before this elapses.
pub const DETECT_TIMEOUT: f64 = 150.0;

/// Backoff before the first re-match attempt, seconds.
pub const RETRY_BASE: f64 = 30.0;

/// Re-match attempts granted per job before it is declared permanently
/// failed.
pub const MAX_RETRIES: u32 = 5;

/// Backoff before re-match attempt `attempt` (1-based, at most
/// [`MAX_RETRIES`]): `RETRY_BASE · 2^(attempt − 1)`, so 30 s to 480 s.
pub fn backoff(attempt: u32) -> f64 {
    assert!((1..=MAX_RETRIES).contains(&attempt), "no retry {attempt}");
    RETRY_BASE * f64::from(1u32 << (attempt - 1))
}

/// Crash-fault model for [`crate::grid_sim::run_load_balance_chaos`]:
/// fail-stop crashes at Poisson times, with the timing constants above.
#[derive(Debug, Clone, PartialEq)]
pub struct CrashChaosConfig {
    /// Mean seconds between crashes (Poisson arrivals).
    pub mean_interval: f64,
}

impl CrashChaosConfig {
    /// A crash somewhere in the grid every `mean_interval` seconds on
    /// average.
    pub fn new(mean_interval: f64) -> Self {
        assert!(mean_interval > 0.0);
        CrashChaosConfig { mean_interval }
    }
}

/// Re-execution cost and outcome accounting of one chaos run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryStats {
    /// Node crashes that occurred.
    pub crashes: u64,
    /// Jobs killed by crashes while *running* (their partial execution
    /// is wasted work).
    pub killed_running: u64,
    /// Jobs killed by crashes while still *queued* (no cycles wasted,
    /// but they still pay detection plus backoff).
    pub killed_queued: u64,
    /// Re-match attempts actually scheduled.
    pub requeued: u64,
    /// Jobs that exhausted their retry budget.
    pub permanently_failed: u64,
    /// Execution seconds thrown away by crashes (work done by killed
    /// running jobs that must be redone).
    pub wasted_seconds: f64,
    /// Highest re-match attempt number any job needed.
    pub max_attempts: u32,
}

impl RecoveryStats {
    /// Total jobs killed by crashes, running or queued.
    pub fn jobs_lost(&self) -> u64 {
        self.killed_running + self.killed_queued
    }
}

/// Terminal state of a job in the ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobFate {
    Pending,
    Completed,
    Failed,
}

/// Exactly-once-or-failed accounting over a fixed job population.
///
/// The simulation records every terminal transition here; illegal
/// transitions (completing a failed job, double-completion, failing a
/// completed job) panic immediately, and [`JobLedger::check_conserved`]
/// asserts at drain time that no job was lost.
#[derive(Debug, Clone)]
pub struct JobLedger {
    fates: Vec<JobFate>,
}

impl JobLedger {
    /// Ledger over `n` jobs, all pending.
    pub fn new(n: usize) -> Self {
        JobLedger {
            fates: vec![JobFate::Pending; n],
        }
    }

    /// Moves pending job `idx` to its terminal `fate`.
    fn settle(&mut self, idx: usize, fate: JobFate) {
        assert_eq!(
            self.fates[idx],
            JobFate::Pending,
            "job {idx} reached a second terminal state ({fate:?})"
        );
        self.fates[idx] = fate;
    }

    /// Records completion of job `idx`.
    ///
    /// # Panics
    ///
    /// Panics if the job already completed or failed.
    pub fn complete(&mut self, idx: usize) {
        self.settle(idx, JobFate::Completed);
    }

    /// Records permanent failure of job `idx`.
    ///
    /// # Panics
    ///
    /// Panics if the job already completed or failed.
    pub fn fail(&mut self, idx: usize) {
        self.settle(idx, JobFate::Failed);
    }

    /// Whether job `idx` failed permanently.
    pub fn is_failed(&self, idx: usize) -> bool {
        self.fates[idx] == JobFate::Failed
    }

    /// Whether job `idx` has reached no terminal state yet.
    pub fn is_pending(&self, idx: usize) -> bool {
        self.fates[idx] == JobFate::Pending
    }

    /// Conservation invariant at drain time: every job reached exactly
    /// one terminal state.
    ///
    /// # Panics
    ///
    /// Panics when some job is still pending.
    pub fn check_conserved(&self) {
        let pending = (0..self.fates.len())
            .filter(|&i| self.is_pending(i))
            .count();
        assert_eq!(pending, 0, "{pending} jobs lost (neither done nor failed)");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        // The last attempt's 480 s is the longest backoff there is.
        assert_eq!(backoff(1), 30.0);
        assert_eq!(backoff(2), 60.0);
        assert_eq!(backoff(3), 120.0);
        assert_eq!(backoff(5), 480.0);
    }

    #[test]
    fn ledger_counts_and_conserves() {
        let mut l = JobLedger::new(3);
        l.complete(0);
        l.fail(1);
        l.complete(2);
        assert!(l.is_failed(1) && !l.is_failed(0) && !l.is_pending(2));
        l.check_conserved();
    }

    #[test]
    #[should_panic(expected = "second terminal state")]
    fn double_completion_panics() {
        let mut l = JobLedger::new(1);
        l.complete(0);
        l.complete(0);
    }

    #[test]
    #[should_panic(expected = "second terminal state")]
    fn completing_failed_job_panics() {
        let mut l = JobLedger::new(1);
        l.fail(0);
        l.complete(0);
    }

    #[test]
    #[should_panic(expected = "jobs lost")]
    fn lost_job_fails_conservation() {
        let mut l = JobLedger::new(2);
        l.complete(0);
        l.check_conserved();
    }
}
