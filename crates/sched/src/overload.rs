//! Overload control and graceful degradation (DESIGN.md §14).
//!
//! Three cooperating mechanisms let the grid say "no" under sustained
//! overload instead of collapsing:
//!
//! * **Bounded queues** — each node's FIFO queue gets a configurable
//!   depth bound, in slots and in queue-wait seconds. At every
//!   heartbeat boundary the oldest / most-over-deadline waiters are
//!   shed deterministically (front-of-queue first, so two runs with
//!   the same seed shed the same jobs).
//! * **Admission control** — a job pushed to a node whose queue is at
//!   its slot bound is *rejected* instead of enqueued. The rejection
//!   consumes one token from the job's retry budget (a per-job token
//!   bucket seeded with `retry_burst` tokens, refilling at
//!   `retry_refill` tokens/s); when the bucket is empty the job is
//!   shed at admission. Misdirection under load therefore costs
//!   budget rather than amplifying traffic.
//! * **Congestion signal** — the queue-pressure bit piggybacked on the
//!   AiTable aggregate (see [`crate::aggregate`]) steers pushers away
//!   from regions whose every node is saturated, even while the
//!   aggregate is stale.
//!
//! Everything here is **disarmed by default**: [`OverloadConfig::default`]
//! has no bounds, sheds nothing, rejects nothing, and leaves every
//! fault-free golden digest bit-identical.

/// Configuration of the overload-control subsystem.
///
/// The default is fully disarmed (unbounded queues, no shedding, no
/// admission rejects) so the subsystem can be compiled in everywhere
/// without perturbing existing runs.
#[derive(Debug, Clone, PartialEq)]
pub struct OverloadConfig {
    /// Maximum waiting jobs per node queue; `None` = unbounded. A
    /// node at the bound rejects further pushes unless it could start
    /// the job immediately.
    pub queue_slots: Option<usize>,
    /// Maximum seconds a job may wait in a queue before the next
    /// heartbeat boundary sheds it; `None` = unbounded.
    pub max_queue_wait: Option<f64>,
    /// Token-bucket burst: admission rejects a job may absorb before
    /// its first shed, beyond the initial attempt.
    pub retry_burst: u32,
    /// Token-bucket refill rate, tokens per simulated second.
    pub retry_refill: f64,
}

/// Seconds between an admission reject and the re-push attempt (the
/// redirect hint's re-match delay).
pub const RETRY_DELAY: f64 = 30.0;

impl Default for OverloadConfig {
    fn default() -> Self {
        OverloadConfig {
            queue_slots: None,
            max_queue_wait: None,
            retry_burst: 3,
            retry_refill: 0.0,
        }
    }
}

impl OverloadConfig {
    /// Whether any bound is armed. Disarmed configs never shed, never
    /// reject, and never perturb the simulation's event stream.
    pub fn armed(&self) -> bool {
        self.queue_slots.is_some() || self.max_queue_wait.is_some()
    }
}

/// Deterministic token bucket: `capacity` tokens, refilled at `refill`
/// tokens per second of simulated time, drained one token per granted
/// retry. Purely a function of the call sequence — no wall clock, no
/// randomness.
#[derive(Debug, Clone, PartialEq)]
pub struct TokenBucket {
    capacity: f64,
    tokens: f64,
    refill: f64,
    last: f64,
}

impl TokenBucket {
    /// A full bucket of `burst` tokens refilling at `refill` tokens/s.
    pub fn new(burst: u32, refill: f64) -> Self {
        let capacity = f64::from(burst);
        TokenBucket {
            capacity,
            tokens: capacity,
            refill,
            last: 0.0,
        }
    }

    /// Attempts to take one token at simulated time `now` (must be
    /// nondecreasing across calls). Returns whether a token was
    /// granted.
    pub fn try_take(&mut self, now: f64) -> bool {
        let elapsed = (now - self.last).max(0.0);
        self.tokens = (self.tokens + elapsed * self.refill).min(self.capacity);
        self.last = now;
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// Tokens currently available (diagnostics/tests).
    pub fn available(&self) -> f64 {
        self.tokens
    }
}

/// Overload accounting of one simulation run. `Some` on a
/// [`crate::SimResult`] only when an [`OverloadConfig`] was supplied —
/// `None` otherwise, and excluded from every digest/baseline so the
/// subsystem stays strictly opt-in (mirroring `RecoveryStats`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OverloadStats {
    /// Jobs accepted into a node queue (terminal admission successes;
    /// a job re-pushed after rejects counts once, on the accept).
    pub admitted: u64,
    /// Push attempts rejected by a node at its queue bound.
    pub admission_rejects: u64,
    /// Jobs shed at admission after exhausting their retry budget.
    pub shed_admission: u64,
    /// Jobs shed from node queues at heartbeat boundaries for
    /// exceeding the queue-wait or slot bound.
    pub shed_queue: u64,
    /// Total matchmaker placement attempts (initial pushes plus every
    /// budget-granted retry) — the numerator of retry amplification.
    pub push_attempts: u64,
    /// Deepest node queue observed at any heartbeat boundary.
    pub max_boundary_depth: u64,
}

impl OverloadStats {
    /// Total jobs shed (admission + queue).
    pub fn shed_total(&self) -> u64 {
        self.shed_admission + self.shed_queue
    }

    /// Push attempts per terminally-admitted-or-shed job: 1.0 means
    /// no retries at all; the no-retry-storm oracle bounds it by the
    /// configured budget.
    pub fn retry_amplification(&self) -> f64 {
        let chains = self.admitted + self.shed_admission;
        if chains == 0 {
            0.0
        } else {
            self.push_attempts as f64 / chains as f64
        }
    }
}

/// **bounded-queues** oracle: no node queue may exceed the configured
/// slot bound at any heartbeat boundary. Returns a violation message,
/// or `None` when the invariant holds (or no slot bound is armed).
pub fn bounded_queue_violation(stats: &OverloadStats, cfg: &OverloadConfig) -> Option<String> {
    let slots = cfg.queue_slots?;
    (stats.max_boundary_depth > slots as u64).then(|| {
        format!(
            "bounded-queues: boundary queue depth {} exceeds the {slots}-slot bound",
            stats.max_boundary_depth
        )
    })
}

/// **no-retry-storm** oracle: total push attempts must stay within the
/// token-bucket budget — per admission chain, one initial attempt plus
/// `retry_burst` burst tokens plus whatever `retry_refill` can add
/// over the run (`makespan` seconds). Returns a violation message, or
/// `None` when the invariant holds.
pub fn retry_storm_violation(
    stats: &OverloadStats,
    cfg: &OverloadConfig,
    makespan: f64,
) -> Option<String> {
    let chains = stats.admitted + stats.shed_admission;
    let per_chain = 1.0 + f64::from(cfg.retry_burst) + cfg.retry_refill * makespan.max(0.0);
    let cap = (per_chain * chains as f64).ceil() as u64;
    (stats.push_attempts > cap).then(|| {
        format!(
            "no-retry-storm: {} push attempts exceed the budget cap {cap} \
             ({chains} chains x {per_chain:.2} attempts)",
            stats.push_attempts
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_disarmed() {
        let cfg = OverloadConfig::default();
        assert!(!cfg.armed());
        assert!(cfg.queue_slots.is_none() && cfg.max_queue_wait.is_none());
    }

    #[test]
    fn any_bound_arms_the_config() {
        let cfg = OverloadConfig {
            queue_slots: Some(4),
            ..Default::default()
        };
        assert!(cfg.armed());
        let cfg = OverloadConfig {
            max_queue_wait: Some(600.0),
            ..Default::default()
        };
        assert!(cfg.armed());
    }

    #[test]
    fn bucket_grants_exactly_the_burst_without_refill() {
        let mut b = TokenBucket::new(3, 0.0);
        assert!(b.try_take(0.0));
        assert!(b.try_take(0.0));
        assert!(b.try_take(0.0));
        assert!(!b.try_take(0.0), "burst exhausted");
        assert!(!b.try_take(1e9), "no refill, ever");
    }

    #[test]
    fn bucket_refills_over_time_but_never_beyond_capacity() {
        let mut b = TokenBucket::new(2, 0.5);
        assert!(b.try_take(0.0));
        assert!(b.try_take(0.0));
        assert!(!b.try_take(1.0), "only 0.5 tokens back after 1 s");
        assert!(b.try_take(2.0), "1.0 token back after 2 s");
        // A long idle period caps at capacity, not capacity + backlog.
        assert!(b.try_take(1e6));
        assert!(b.try_take(1e6));
        assert!(!b.try_take(1e6), "capacity caps the refill");
    }

    #[test]
    fn bucket_is_deterministic() {
        let mut a = TokenBucket::new(5, 0.25);
        let mut b = TokenBucket::new(5, 0.25);
        for i in 0..40 {
            let t = (i * 3) as f64 * 0.7;
            assert_eq!(a.try_take(t), b.try_take(t));
        }
        assert_eq!(a, b);
    }

    #[test]
    fn oracles_pass_on_clean_stats() {
        let cfg = OverloadConfig {
            queue_slots: Some(4),
            ..Default::default()
        };
        let stats = OverloadStats {
            admitted: 100,
            admission_rejects: 30,
            shed_admission: 5,
            shed_queue: 2,
            push_attempts: 135,
            max_boundary_depth: 4,
        };
        assert_eq!(bounded_queue_violation(&stats, &cfg), None);
        assert_eq!(retry_storm_violation(&stats, &cfg, 1000.0), None);
    }

    #[test]
    fn oracles_catch_violations() {
        let cfg = OverloadConfig {
            queue_slots: Some(4),
            retry_burst: 1,
            retry_refill: 0.0,
            ..Default::default()
        };
        let stats = OverloadStats {
            admitted: 10,
            admission_rejects: 90,
            shed_admission: 0,
            shed_queue: 0,
            push_attempts: 100,
            max_boundary_depth: 9,
        };
        assert!(bounded_queue_violation(&stats, &cfg).is_some_and(|v| v.contains("bounded-queues")));
        // 10 chains x (1 + 1) = 20 attempts allowed, 100 seen.
        assert!(
            retry_storm_violation(&stats, &cfg, 0.0).is_some_and(|v| v.contains("no-retry-storm"))
        );
    }

    #[test]
    fn amplification_counts_attempts_per_chain() {
        let stats = OverloadStats {
            admitted: 40,
            shed_admission: 10,
            push_attempts: 100,
            ..OverloadStats::default()
        };
        assert!((stats.retry_amplification() - 2.0).abs() < 1e-12);
        assert_eq!(stats.shed_total(), 10);
        assert_eq!(OverloadStats::default().retry_amplification(), 0.0);
    }
}
