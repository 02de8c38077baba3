//! Deterministic-simulation-testing (DST) primitives: randomized fault
//! *schedules*, a self-contained replayable trace format, and a
//! delta-debugging shrinker.
//!
//! The scripted chaos trio (`pgrid`'s `scenarios::CHAOS_TRIO`) samples
//! three hand-written points of the fault-schedule space. This module
//! supplies the data those points are written in and the machinery to
//! *search* the space FoundationDB-style:
//!
//! * [`FaultSchedule`] — one fully-specified fault run: population,
//!   scheme, phase lengths, node-fault events, partition windows,
//!   per-class network faults, optional churn, and an optional
//!   scheduler phase. It carries everything needed to replay the run
//!   bit for bit, with no out-of-band state.
//! * [`ScheduleBudget`] + [`generate`] — a seeded sampler that draws a
//!   schedule from a bounded grammar. Same seed, same budget → same
//!   schedule, always.
//! * [`FaultSchedule::to_text`] / [`FaultSchedule::parse`] — a
//!   line-oriented text trace format. `f64` values round-trip exactly
//!   through Rust's shortest-representation `Display`, so a parsed
//!   trace replays bit-identically.
//! * [`shrink`] — complement-removal delta debugging (ddmin) plus a
//!   per-event count-reduction pass, minimizing a failing schedule to
//!   a near-minimal event sequence under a bounded probe budget.
//! * [`Fnv`] — the workspace's FNV-1a digest, used to fingerprint
//!   replay outcomes (`expect digest=…` lines in corpus traces).
//!
//! The executors live one layer up (`pgrid-can::dst`, `pgrid`'s `fuzz`
//! module); this module is pure data and therefore has no opinion on
//! what a violation *is*.

use crate::fault::{ClassFaults, FaultEvent, MsgClass, NodeFault};
use crate::rng::SimRng;
use crate::SimTime;
use std::fmt;

/// RNG sub-stream tag for schedule generation (disjoint from the
/// executor streams 0xFA17 / 0xC4A5 / 0x71C7).
const GEN_STREAM: u64 = 0xD57;

/// The heartbeat-scheme labels a schedule may carry (`pgrid-can`'s
/// `HeartbeatScheme`, lower case).
const SCHEMES: [&str; 3] = ["vanilla", "compact", "adaptive"];

/// RNG sub-stream tag for macro expansion ([`FaultSchedule::expand`]),
/// disjoint from the generator and executor streams so expanding a
/// schedule never perturbs victim sampling or message fates.
const MACRO_STREAM: u64 = 0x5CE0;

// ---------------------------------------------------------------------------
// FNV-1a digest
// ---------------------------------------------------------------------------

/// 64-bit FNV-1a hasher, the same function the golden-digest tests use.
///
/// Used to fingerprint replay outcomes: a corpus trace records the
/// digest of its replay, and the regression gate asserts the digest is
/// reproduced bit-identically.
#[derive(Debug, Clone)]
pub struct Fnv(u64);

impl Fnv {
    /// A fresh hasher at the FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Absorbs raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Absorbs a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Absorbs a `usize` (as `u64`).
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Absorbs an `f64` by bit pattern, so `-0.0` ≠ `0.0` and NaN
    /// payloads matter — exactly what bit-identical replay wants.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Absorbs a string's UTF-8 bytes plus a length prefix.
    pub fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.write(s.as_bytes());
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

// ---------------------------------------------------------------------------
// Schedule data model
// ---------------------------------------------------------------------------

/// A scheduled partition window in fault-phase-relative time, as a
/// fraction of the then-current membership (victims are sampled by the
/// executor from the schedule seed, so the trace needs no node ids).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionWindow {
    /// Fraction of members to isolate (0..1).
    pub fraction: f64,
    /// Window start, seconds after the fault phase begins.
    pub from: SimTime,
    /// Window end, seconds after the fault phase begins; must satisfy
    /// `from < until <= fault_duration` so recovery starts healthy.
    pub until: SimTime,
}

/// A scheduled directed-link degradation in fault-phase-relative time.
/// The executor samples `pairs` directed member pairs from the schedule
/// seed (so the trace needs no node ids) and degrades them with extra
/// loss and jitter over the window — the asymmetric-lag shape that
/// stresses a per-link adaptive failure detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradeWindow {
    /// Number of directed member pairs to degrade (>= 1).
    pub pairs: usize,
    /// Extra drop probability on the degraded links (in `[0, 1)`).
    pub drop: f64,
    /// Extra uniform `[0, jitter)` delay on surviving transmissions.
    pub jitter: f64,
    /// Window start, seconds after the fault phase begins.
    pub from: SimTime,
    /// Window end, seconds after the fault phase begins; must satisfy
    /// `from < until <= fault_duration`.
    pub until: SimTime,
}

/// A composable schedule macro: one named adversarial pattern that
/// [`FaultSchedule::expand`] lowers into primitive events and degrade
/// windows before execution.
///
/// Macros keep their *structure* (kinds, counts, windows) fixed by the
/// record itself; only timing offsets are drawn from the schedule seed
/// during expansion. Two expansions of the same schedule are therefore
/// identical, and two seeds differ only in RNG-derived times — never in
/// which primitives appear. All times are fault-phase-relative seconds,
/// like the primitives they lower to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScheduleMacro {
    /// Sinusoidal diurnal availability: each cycle crashes `amplitude`
    /// nodes near its trough and rejoins `amplitude` near its peak —
    /// the desktop-grid evening-shutdown / morning-return wave.
    Wave {
        /// Length of one availability cycle (seconds).
        period: f64,
        /// Nodes leaving (then returning) per cycle.
        amplitude: usize,
        /// Number of cycles.
        cycles: usize,
        /// First cycle's start, seconds into the fault phase.
        from: SimTime,
    },
    /// Flash crowd: a join burst at `at` plus an arrival-rate
    /// multiplier the workload layer applies over `[at, at+duration)`.
    /// Half the crowd churns away again when the window closes.
    Spike {
        /// Burst instant, seconds into the fault phase.
        at: SimTime,
        /// Joiners in the burst.
        joins: usize,
        /// Arrival-rate multiplier during the window (workload hook;
        /// carried in the trace so replays shape the same workload).
        rate: f64,
        /// Window length (seconds).
        duration: f64,
    },
    /// Correlated rack failures: `racks` crash bursts of `size` nodes
    /// each, spaced `gap` seconds apart (plus bounded seed jitter) —
    /// the generalization of the hand-written rack-crash-storm trace.
    RackStorm {
        /// First burst instant, seconds into the fault phase.
        at: SimTime,
        /// Number of correlated bursts.
        racks: usize,
        /// Victims per burst.
        size: usize,
        /// Nominal spacing between bursts (seconds).
        gap: f64,
    },
    /// Sustained slow nodes: one degraded-link window over `[from,
    /// until)` plus `freezes` single-node freezes of `freeze_secs`
    /// scattered across it — stragglers the detector must tolerate
    /// without expelling.
    Straggler {
        /// Directed member pairs to degrade.
        pairs: usize,
        /// Extra drop probability on the degraded links (in `[0, 1)`).
        drop: f64,
        /// Extra uniform `[0, jitter)` delay on surviving sends.
        jitter: f64,
        /// Scattered single-node freezes inside the window.
        freezes: usize,
        /// Length of each freeze (seconds).
        freeze_secs: f64,
        /// Window start, seconds into the fault phase.
        from: SimTime,
        /// Window end, seconds into the fault phase.
        until: SimTime,
    },
    /// Gray failure: the same links are degraded twice — once loss-only
    /// and once lag-only — so a link is simultaneously lossy *and*
    /// slow, the asymmetric partial degrade an adaptive per-link
    /// detector must out-diagnose where a fixed timeout either expels
    /// the victim or goes blind.
    GrayFail {
        /// Directed member pairs to degrade.
        pairs: usize,
        /// Drop probability on the lossy half (in `[0, 1)`).
        drop: f64,
        /// Uniform `[0, delay)` lag on the slow half (seconds).
        delay: f64,
        /// Window start, seconds into the fault phase.
        from: SimTime,
        /// Window end, seconds into the fault phase.
        until: SimTime,
    },
}

impl ScheduleMacro {
    /// Number of primitive elements (events + degrade windows) this
    /// macro lowers to — structural, independent of the seed.
    pub fn expansion_count(&self) -> usize {
        match *self {
            ScheduleMacro::Wave { cycles, .. } => 2 * cycles,
            ScheduleMacro::Spike { .. } => 2,
            ScheduleMacro::RackStorm { racks, .. } => racks,
            ScheduleMacro::Straggler { freezes, .. } => 1 + freezes,
            ScheduleMacro::GrayFail { .. } => 2,
        }
    }

    /// Checks ranges and that the macro's whole footprint fits inside
    /// the fault phase.
    fn validate(&self, fault_duration: f64) -> Result<(), String> {
        fn finite_pos(name: &str, v: f64) -> Result<(), String> {
            if v.is_finite() && v > 0.0 {
                Ok(())
            } else {
                Err(format!("{name} must be finite and positive, got {v}"))
            }
        }
        fn window(name: &str, from: f64, until: f64, horizon: f64) -> Result<(), String> {
            if from >= 0.0 && from < until && until <= horizon {
                Ok(())
            } else {
                Err(format!(
                    "{name} window [{from}, {until}] must satisfy 0 <= from < until <= {horizon}"
                ))
            }
        }
        if self.expansion_count() == 0 {
            return Err("macro expands to zero events".into());
        }
        match *self {
            ScheduleMacro::Wave {
                period,
                amplitude,
                cycles,
                from,
            } => {
                finite_pos("wave period", period)?;
                if amplitude == 0 {
                    return Err("wave amplitude must be >= 1".into());
                }
                window("wave", from, from + cycles as f64 * period, fault_duration)
            }
            ScheduleMacro::Spike {
                at,
                joins,
                rate,
                duration,
            } => {
                if joins == 0 {
                    return Err("spike joins must be >= 1".into());
                }
                finite_pos("spike rate", rate)?;
                finite_pos("spike duration", duration)?;
                window("spike", at, at + duration, fault_duration)
            }
            ScheduleMacro::RackStorm {
                at,
                racks,
                size,
                gap,
            } => {
                if racks == 0 || size == 0 {
                    return Err("rackstorm racks and size must be >= 1".into());
                }
                finite_pos("rackstorm gap", gap)?;
                window("rackstorm", at, at + racks as f64 * gap, fault_duration)
            }
            ScheduleMacro::Straggler {
                pairs,
                drop,
                jitter,
                freezes,
                freeze_secs,
                from,
                until,
            } => {
                if pairs == 0 {
                    return Err("straggler pairs must be >= 1".into());
                }
                if !(0.0..1.0).contains(&drop) {
                    return Err(format!("straggler drop must be in [0, 1), got {drop}"));
                }
                if !(jitter.is_finite() && jitter >= 0.0) {
                    return Err(format!(
                        "straggler jitter must be finite >= 0, got {jitter}"
                    ));
                }
                finite_pos("straggler freeze_secs", freeze_secs)?;
                window("straggler", from, until, fault_duration)?;
                if freezes > 0 && freeze_secs > until - from {
                    return Err(format!(
                        "straggler freeze_secs {freeze_secs} exceeds the window [{from}, {until}]"
                    ));
                }
                Ok(())
            }
            ScheduleMacro::GrayFail {
                pairs,
                drop,
                delay,
                from,
                until,
            } => {
                if pairs == 0 {
                    return Err("grayfail pairs must be >= 1".into());
                }
                if !(0.0..1.0).contains(&drop) {
                    return Err(format!("grayfail drop must be in [0, 1), got {drop}"));
                }
                finite_pos("grayfail delay", delay)?;
                window("grayfail", from, until, fault_duration)
            }
        }
    }

    /// Lowers this macro into primitive events and degrade windows.
    /// Only *times* are drawn from `rng`; counts and kinds come from
    /// the record, so expansion structure is seed-invariant.
    fn expand_into(
        &self,
        rng: &mut SimRng,
        horizon: f64,
        events: &mut Vec<FaultEvent>,
        degrades: &mut Vec<DegradeWindow>,
    ) {
        let clamp = |t: f64, lo: f64, hi: f64| t.clamp(lo, hi.min(horizon));
        match *self {
            ScheduleMacro::Wave {
                period,
                amplitude,
                cycles,
                from,
            } => {
                // Stepwise sinusoid: the trough (shutdown) sits a
                // quarter period in, the peak (return) three quarters
                // in, each nudged by up to ±5 % of the period.
                for c in 0..cycles {
                    let base = from + c as f64 * period;
                    let nudge = period * 0.05;
                    let trough = clamp(
                        base + period * 0.25 + rng.uniform(-nudge, nudge),
                        base,
                        base + period,
                    );
                    let peak = clamp(
                        base + period * 0.75 + rng.uniform(-nudge, nudge),
                        trough,
                        base + period,
                    );
                    events.push(FaultEvent {
                        at: trough,
                        fault: NodeFault::Crash { count: amplitude },
                    });
                    events.push(FaultEvent {
                        at: peak,
                        fault: NodeFault::Rejoin { count: amplitude },
                    });
                }
            }
            ScheduleMacro::Spike {
                at,
                joins,
                duration,
                ..
            } => {
                // The join burst lands at `at`; half the crowd churns
                // away when the window closes. `rate` is consumed by
                // the workload layer, not the fault executor.
                events.push(FaultEvent {
                    at,
                    fault: NodeFault::Rejoin { count: joins },
                });
                events.push(FaultEvent {
                    at: clamp(at + duration, at, horizon),
                    fault: NodeFault::Crash {
                        count: (joins / 2).max(1),
                    },
                });
            }
            ScheduleMacro::RackStorm {
                at,
                racks,
                size,
                gap,
            } => {
                for r in 0..racks {
                    let base = at + r as f64 * gap;
                    let t = clamp(base + rng.uniform(0.0, gap * 0.2), base, base + gap);
                    events.push(FaultEvent {
                        at: t,
                        fault: NodeFault::Crash { count: size },
                    });
                }
            }
            ScheduleMacro::Straggler {
                pairs,
                drop,
                jitter,
                freezes,
                freeze_secs,
                from,
                until,
            } => {
                degrades.push(DegradeWindow {
                    pairs,
                    drop,
                    jitter,
                    from,
                    until,
                });
                for _ in 0..freezes {
                    let latest = (until - freeze_secs).max(from);
                    events.push(FaultEvent {
                        at: rng.uniform(from, latest),
                        fault: NodeFault::Freeze {
                            count: 1,
                            duration: freeze_secs,
                        },
                    });
                }
            }
            ScheduleMacro::GrayFail {
                pairs,
                drop,
                delay,
                from,
                until,
            } => {
                // Two windows over the *same* sampled pair budget: one
                // lossy, one laggy. The executor samples victim pairs
                // per window from the shared victim stream, so the two
                // halves land on overlapping neighborhoods — partial,
                // asymmetric degradation rather than a clean outage.
                degrades.push(DegradeWindow {
                    pairs,
                    drop,
                    jitter: 0.0,
                    from,
                    until,
                });
                degrades.push(DegradeWindow {
                    pairs,
                    drop: 0.0,
                    jitter: delay,
                    from,
                    until,
                });
            }
        }
    }
}

/// Overload-control arming record for the scheduler phase.
///
/// Mirrors `pgrid-sched`'s `OverloadConfig` but stays a plain record
/// so `simcore` remains independent of `sched`, the same layering
/// compromise as `scheme` / `detector` / `replication`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverloadRecord {
    /// Per-node queue bound in waiting slots.
    pub slots: usize,
    /// Per-job queue-wait bound (seconds).
    pub wait: f64,
    /// Retry token-bucket burst per job.
    pub burst: u32,
    /// Retry token refill rate (tokens per second).
    pub refill: f64,
}

/// One fully-specified, self-contained chaos run.
///
/// Everything an executor needs is here; replaying the same schedule
/// twice produces bit-identical results.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSchedule {
    /// Master seed: drives bootstrap coordinates, victim sampling,
    /// message fates, and churn decisions in the executor.
    pub seed: u64,
    /// Heartbeat scheme label (`vanilla` / `compact` / `adaptive`).
    /// Kept as a string so `simcore` stays independent of `can`.
    pub scheme: String,
    /// CAN dimensionality.
    pub dims: usize,
    /// Bootstrap population.
    pub nodes: usize,
    /// Fault-free settle window after bootstrap (seconds).
    pub settle_time: f64,
    /// Heartbeat period (seconds).
    pub heartbeat_period: f64,
    /// Failure-detection timeout (seconds).
    pub fail_timeout: f64,
    /// Length of the fault phase (seconds).
    pub fault_duration: f64,
    /// Recovery allowance after the fault phase, in heartbeat periods.
    pub recovery_periods: f64,
    /// Fraction of churn departures that are graceful.
    pub graceful_fraction: f64,
    /// Gap between background churn events (`None` disables churn).
    pub churn_gap: Option<f64>,
    /// Per-class network faults, active during the fault phase only.
    pub class_faults: Vec<(MsgClass, ClassFaults)>,
    /// Partition windows, in fault-phase-relative time.
    pub partitions: Vec<PartitionWindow>,
    /// Directed-link degradation windows, in fault-phase-relative time.
    pub degrades: Vec<DegradeWindow>,
    /// Node-level fault events, in fault-phase-relative time.
    pub events: Vec<FaultEvent>,
    /// Composable macro records; [`FaultSchedule::expand`] lowers them
    /// into primitives before execution. Empty on generated schedules
    /// (the fuzzer grammar stays macro-free so historical seeds keep
    /// their schedules); the scenario library is what writes these.
    pub macros: Vec<ScheduleMacro>,
    /// Failure-detector mode label (`fixed` / `adaptive`); `None` runs
    /// the legacy passive expiry. Kept as a string so `simcore` stays
    /// independent of `can`, mirroring `scheme`.
    pub detector: Option<String>,
    /// Warm-standby replication mode label (`standby`); `None` runs
    /// the legacy cache-only crash recovery. Kept as a string for the
    /// same layering reason as `detector`.
    pub replication: Option<String>,
    /// When `Some`, also run a scheduler crash-recovery phase with this
    /// mean crash interval (seconds) and check the ledger oracles.
    pub sched_crash_interval: Option<f64>,
    /// When `Some`, the scheduler phase runs with bounded queues and
    /// admission control armed, and the bounded-queues / no-retry-storm
    /// oracles are checked. `None` (the default everywhere, including
    /// the fuzzer grammar) keeps historical schedules bit-identical.
    pub overload: Option<OverloadRecord>,
    /// Recorded replay digest (`None` until a corpus trace pins one).
    pub expect_digest: Option<u64>,
}

impl FaultSchedule {
    /// Sanity-checks the schedule against the executor's preconditions
    /// (finite non-negative times, `drop < 1`, partition windows inside
    /// the fault phase, positive freeze durations, …).
    pub fn validate(&self) -> Result<(), String> {
        fn pos(name: &str, v: f64) -> Result<(), String> {
            if v.is_finite() && v > 0.0 {
                Ok(())
            } else {
                Err(format!("{name} must be finite and positive, got {v}"))
            }
        }
        if !SCHEMES.contains(&self.scheme.as_str()) {
            return Err(format!(
                "scheme must be `vanilla`, `compact` or `adaptive`, got `{}`",
                self.scheme
            ));
        }
        if self.dims == 0 || self.dims > 6 {
            return Err(format!("dims must be in 1..=6, got {}", self.dims));
        }
        // Node ids are `u32`.
        if !(4..=u32::MAX as usize).contains(&self.nodes) {
            return Err(format!(
                "nodes must be in 4..={}, got {}",
                u32::MAX,
                self.nodes
            ));
        }
        pos("settle", self.settle_time)?;
        pos("period", self.heartbeat_period)?;
        pos("timeout", self.fail_timeout)?;
        pos("fault", self.fault_duration)?;
        pos("recovery", self.recovery_periods)?;
        if !(0.0..=1.0).contains(&self.graceful_fraction) {
            return Err(format!(
                "graceful must be in [0, 1], got {}",
                self.graceful_fraction
            ));
        }
        if let Some(gap) = self.churn_gap {
            pos("churn gap", gap)?;
        }
        for &(_, f) in &self.class_faults {
            if !(0.0..1.0).contains(&f.drop) {
                return Err(format!("class drop must be in [0, 1), got {}", f.drop));
            }
            if !(0.0..=1.0).contains(&f.duplicate) {
                return Err(format!(
                    "class duplicate must be in [0, 1], got {}",
                    f.duplicate
                ));
            }
            if !(f.delay.is_finite() && f.delay >= 0.0) {
                return Err(format!("class delay must be finite >= 0, got {}", f.delay));
            }
            if !(f.jitter.is_finite() && f.jitter >= 0.0) {
                return Err(format!(
                    "class jitter must be finite >= 0, got {}",
                    f.jitter
                ));
            }
        }
        for p in &self.partitions {
            if !(0.0 < p.fraction && p.fraction < 1.0) {
                return Err(format!(
                    "partition fraction must be in (0, 1), got {}",
                    p.fraction
                ));
            }
            if !(p.from >= 0.0 && p.from < p.until && p.until <= self.fault_duration) {
                return Err(format!(
                    "partition window [{}, {}] must satisfy 0 <= from < until <= {}",
                    p.from, p.until, self.fault_duration
                ));
            }
        }
        for d in &self.degrades {
            if d.pairs == 0 {
                return Err("degrade pairs must be >= 1".into());
            }
            if !(0.0..1.0).contains(&d.drop) {
                return Err(format!("degrade drop must be in [0, 1), got {}", d.drop));
            }
            if !(d.jitter.is_finite() && d.jitter >= 0.0) {
                return Err(format!(
                    "degrade jitter must be finite >= 0, got {}",
                    d.jitter
                ));
            }
            if !(d.from >= 0.0 && d.from < d.until && d.until <= self.fault_duration) {
                return Err(format!(
                    "degrade window [{}, {}] must satisfy 0 <= from < until <= {}",
                    d.from, d.until, self.fault_duration
                ));
            }
        }
        if let Some(mode) = &self.detector {
            if mode != "fixed" && mode != "adaptive" {
                return Err(format!(
                    "detector mode must be `fixed` or `adaptive`, got `{mode}`"
                ));
            }
        }
        if let Some(mode) = &self.replication {
            if mode != "standby" {
                return Err(format!("replication mode must be `standby`, got `{mode}`"));
            }
        }
        for e in &self.events {
            if !(e.at.is_finite() && e.at >= 0.0 && e.at <= self.fault_duration) {
                return Err(format!(
                    "event at {} outside the fault phase [0, {}]",
                    e.at, self.fault_duration
                ));
            }
            match e.fault {
                NodeFault::Crash { count }
                | NodeFault::Rejoin { count }
                | NodeFault::CrashWithHeir { count } => {
                    if count == 0 {
                        return Err("event count must be >= 1".into());
                    }
                }
                NodeFault::Freeze { count, duration } => {
                    if count == 0 {
                        return Err("event count must be >= 1".into());
                    }
                    pos("freeze duration", duration)?;
                }
            }
        }
        if let Some(iv) = self.sched_crash_interval {
            pos("sched crash_interval", iv)?;
        }
        if let Some(o) = &self.overload {
            if o.slots == 0 {
                return Err("overload slots must be >= 1".into());
            }
            pos("overload wait", o.wait)?;
            if !(o.refill.is_finite() && o.refill >= 0.0) {
                return Err(format!(
                    "overload refill must be finite >= 0, got {}",
                    o.refill
                ));
            }
        }
        for m in &self.macros {
            m.validate(self.fault_duration)?;
        }
        Ok(())
    }

    /// Lowers every macro record into primitive events and degrade
    /// windows, returning a macro-free schedule that replays the same
    /// run. The identity for macro-free schedules, so every historical
    /// trace and golden digest is untouched.
    ///
    /// Deterministic: timing offsets are drawn from sub-stream
    /// `0x5CE0` of the schedule seed, in macro order, so expanding
    /// twice yields identical output and two seeds differ only in
    /// RNG-derived times, never in expansion structure.
    pub fn expand(&self) -> FaultSchedule {
        if self.macros.is_empty() {
            return self.clone();
        }
        let mut rng = SimRng::sub_stream(self.seed, MACRO_STREAM);
        let mut out = self.clone();
        out.macros.clear();
        for m in &self.macros {
            m.expand_into(
                &mut rng,
                self.fault_duration,
                &mut out.events,
                &mut out.degrades,
            );
        }
        // Stable sort: simultaneous events keep macro-emission order.
        out.events.sort_by(|a, b| a.at.total_cmp(&b.at));
        debug_assert!(out.validate().is_ok(), "expansion escaped the horizon");
        out
    }

    /// The arrival-rate multiplier windows carried by `spike` macros,
    /// as absolute-workload-time `(from, until, rate)` triples relative
    /// to the fault phase — the workload layer's shaping hook.
    pub fn arrival_windows(&self) -> Vec<(SimTime, SimTime, f64)> {
        self.macros
            .iter()
            .filter_map(|m| match *m {
                ScheduleMacro::Spike {
                    at, rate, duration, ..
                } => Some((at, at + duration, rate)),
                _ => None,
            })
            .collect()
    }

    // -- shrinker support ---------------------------------------------------

    /// Number of independently-removable schedule elements, in the
    /// fixed order: events, partitions, class faults, churn, sched,
    /// degrades, detector, replication, macros, overload (new kinds
    /// appended to keep the order stable).
    fn element_count(&self) -> usize {
        self.events.len()
            + self.partitions.len()
            + self.class_faults.len()
            + usize::from(self.churn_gap.is_some())
            + usize::from(self.sched_crash_interval.is_some())
            + self.degrades.len()
            + usize::from(self.detector.is_some())
            + usize::from(self.replication.is_some())
            + self.macros.len()
            + usize::from(self.overload.is_some())
    }

    /// The schedule with only the elements whose `keep` flag is set
    /// (indexed in [`Self::element_count`] order).
    fn with_elements(&self, keep: &[bool]) -> FaultSchedule {
        debug_assert_eq!(keep.len(), self.element_count());
        let mut out = self.clone();
        let mut it = keep.iter().copied();
        out.events = self
            .events
            .iter()
            .copied()
            .filter(|_| it.next().unwrap_or(true))
            .collect();
        out.partitions = self
            .partitions
            .iter()
            .copied()
            .filter(|_| it.next().unwrap_or(true))
            .collect();
        out.class_faults = self
            .class_faults
            .iter()
            .copied()
            .filter(|_| it.next().unwrap_or(true))
            .collect();
        if self.churn_gap.is_some() && !it.next().unwrap_or(true) {
            out.churn_gap = None;
        }
        if self.sched_crash_interval.is_some() && !it.next().unwrap_or(true) {
            out.sched_crash_interval = None;
        }
        out.degrades = self
            .degrades
            .iter()
            .copied()
            .filter(|_| it.next().unwrap_or(true))
            .collect();
        if self.detector.is_some() && !it.next().unwrap_or(true) {
            out.detector = None;
        }
        if self.replication.is_some() && !it.next().unwrap_or(true) {
            out.replication = None;
        }
        out.macros = self
            .macros
            .iter()
            .copied()
            .filter(|_| it.next().unwrap_or(true))
            .collect();
        if self.overload.is_some() && !it.next().unwrap_or(true) {
            out.overload = None;
        }
        out.expect_digest = None;
        out
    }
}

// ---------------------------------------------------------------------------
// Budgeted random generation
// ---------------------------------------------------------------------------

/// Bounds on the schedule grammar [`generate`] samples from.
///
/// Every sampled quantity is clamped inside the executor's
/// preconditions (drop `< 1`, partition windows inside the fault
/// phase, positive freeze durations), so a generated schedule always
/// passes [`FaultSchedule::validate`].
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleBudget {
    /// Minimum CAN dimensionality.
    pub min_dims: usize,
    /// Maximum CAN dimensionality.
    pub max_dims: usize,
    /// Minimum bootstrap population.
    pub min_nodes: usize,
    /// Maximum bootstrap population.
    pub max_nodes: usize,
    /// Maximum node-fault events per schedule (at least 1 is drawn).
    pub max_events: usize,
    /// Maximum victims in one crash burst.
    pub max_crash: usize,
    /// Maximum joiners in one rejoin wave.
    pub max_rejoin: usize,
    /// Maximum victims in one freeze burst.
    pub max_freeze: usize,
    /// Maximum freeze length, in heartbeat periods.
    pub max_freeze_periods: f64,
    /// Maximum concurrent partition windows.
    pub max_partitions: usize,
    /// Maximum fraction of members one partition isolates.
    pub max_partition_fraction: f64,
    /// Maximum per-class drop probability (strictly below 1).
    pub max_drop: f64,
    /// Maximum per-class duplication probability.
    pub max_duplicate: f64,
    /// Maximum fixed per-class delay (seconds).
    pub max_delay: f64,
    /// Maximum per-class jitter (seconds).
    pub max_jitter: f64,
    /// Probability each message class gets a fault entry.
    pub class_fault_chance: f64,
    /// Maximum directed-link degradation windows per schedule.
    pub max_degrades: usize,
    /// Maximum directed pairs one degradation window covers.
    pub max_degrade_pairs: usize,
    /// Maximum extra drop probability on a degraded link (below 1).
    pub max_degrade_drop: f64,
    /// Maximum extra jitter on a degraded link (seconds).
    pub max_degrade_jitter: f64,
    /// Probability the schedule arms a failure detector (then split
    /// evenly between `fixed` and `adaptive`).
    pub detector_chance: f64,
    /// Probability the schedule arms warm-standby zone replication, so
    /// the fuzzer interleaves crashes with replica promotion.
    pub replication_chance: f64,
    /// Probability the schedule runs background churn.
    pub churn_chance: f64,
    /// Probability the schedule appends a scheduler crash phase.
    pub sched_chance: f64,
    /// Minimum fault-phase length (seconds).
    pub min_fault_duration: f64,
    /// Maximum fault-phase length (seconds).
    pub max_fault_duration: f64,
}

impl Default for ScheduleBudget {
    fn default() -> Self {
        ScheduleBudget {
            min_dims: 2,
            max_dims: 3,
            min_nodes: 24,
            max_nodes: 48,
            max_events: 6,
            max_crash: 8,
            max_rejoin: 6,
            max_freeze: 4,
            max_freeze_periods: 4.0,
            max_partitions: 2,
            max_partition_fraction: 0.3,
            max_drop: 0.35,
            max_duplicate: 0.2,
            max_delay: 5.0,
            max_jitter: 10.0,
            class_fault_chance: 0.4,
            max_degrades: 2,
            max_degrade_pairs: 4,
            max_degrade_drop: 0.6,
            max_degrade_jitter: 30.0,
            detector_chance: 0.5,
            replication_chance: 0.35,
            churn_chance: 0.4,
            sched_chance: 0.3,
            min_fault_duration: 300.0,
            max_fault_duration: 900.0,
        }
    }
}

impl ScheduleBudget {
    /// A smaller budget for CI smoke runs: fewer nodes and shorter
    /// fault phases, so a seed replays in well under a second.
    pub fn smoke() -> Self {
        ScheduleBudget {
            min_nodes: 20,
            max_nodes: 32,
            max_events: 4,
            min_fault_duration: 300.0,
            max_fault_duration: 600.0,
            ..ScheduleBudget::default()
        }
    }
}

/// Samples one fault schedule from `budget` under `seed`.
///
/// Deterministic: the sampler runs on sub-stream `0xD57` of `seed`, so
/// the same `(seed, budget)` pair always yields the same schedule.
pub fn generate(seed: u64, budget: &ScheduleBudget) -> FaultSchedule {
    let mut rng = SimRng::sub_stream(seed, GEN_STREAM);
    let dims = budget.min_dims + rng.below(budget.max_dims - budget.min_dims + 1);
    let nodes = budget.min_nodes + rng.below(budget.max_nodes - budget.min_nodes + 1);
    let scheme = SCHEMES[rng.below(3)].to_string();
    let heartbeat_period = 60.0;
    let fail_timeout = 150.0;
    let fault_duration = rng.uniform(budget.min_fault_duration, budget.max_fault_duration);

    let mut events = Vec::new();
    let n_events = 1 + rng.below(budget.max_events.max(1));
    for _ in 0..n_events {
        let at = rng.uniform(0.0, fault_duration * 0.85);
        let fault = match rng.below(3) {
            0 => NodeFault::Crash {
                count: 1 + rng.below(budget.max_crash.max(1)),
            },
            1 => NodeFault::Rejoin {
                count: 1 + rng.below(budget.max_rejoin.max(1)),
            },
            _ => NodeFault::Freeze {
                count: 1 + rng.below(budget.max_freeze.max(1)),
                duration: rng.uniform(
                    heartbeat_period,
                    heartbeat_period * budget.max_freeze_periods,
                ),
            },
        };
        events.push(FaultEvent { at, fault });
    }
    events.sort_by(|a, b| a.at.total_cmp(&b.at));

    let mut partitions = Vec::new();
    for _ in 0..rng.below(budget.max_partitions + 1) {
        let fraction = rng.uniform(0.05, budget.max_partition_fraction);
        let from = rng.uniform(0.0, fault_duration * 0.5);
        let until = rng.uniform(from + 1.0, fault_duration);
        partitions.push(PartitionWindow {
            fraction,
            from,
            until,
        });
    }

    let mut class_faults = Vec::new();
    for &class in &MsgClass::ALL {
        if !rng.chance(budget.class_fault_chance) {
            continue;
        }
        let faults = ClassFaults {
            drop: rng.uniform(0.0, budget.max_drop),
            duplicate: if rng.chance(0.3) {
                rng.uniform(0.0, budget.max_duplicate)
            } else {
                0.0
            },
            delay: if rng.chance(0.3) {
                rng.uniform(0.0, budget.max_delay)
            } else {
                0.0
            },
            jitter: if rng.chance(0.3) {
                rng.uniform(0.0, budget.max_jitter)
            } else {
                0.0
            },
        };
        class_faults.push((class, faults));
    }

    let churn_gap = if rng.chance(budget.churn_chance) {
        Some(heartbeat_period / rng.uniform(2.0, 8.0))
    } else {
        None
    };
    let sched_crash_interval = if rng.chance(budget.sched_chance) {
        Some(rng.uniform(200.0, 900.0))
    } else {
        None
    };
    // Drawn in the historical stream position (before the detector
    // extensions below), so pre-existing seeds keep their schedules.
    let graceful_fraction = rng.uniform(0.0, 1.0);

    let mut degrades = Vec::new();
    for _ in 0..rng.below(budget.max_degrades + 1) {
        let from = rng.uniform(0.0, fault_duration * 0.5);
        let until = rng.uniform(from + 1.0, fault_duration);
        degrades.push(DegradeWindow {
            pairs: 1 + rng.below(budget.max_degrade_pairs.max(1)),
            drop: rng.uniform(0.0, budget.max_degrade_drop),
            jitter: if rng.chance(0.5) {
                rng.uniform(0.0, budget.max_degrade_jitter)
            } else {
                0.0
            },
            from,
            until,
        });
    }
    let detector = if rng.chance(budget.detector_chance) {
        Some(["fixed", "adaptive"][rng.below(2)].to_string())
    } else {
        None
    };
    // Appended after the detector draw so pre-existing seeds keep
    // their schedules up to this point.
    let replication = if rng.chance(budget.replication_chance) {
        Some("standby".to_string())
    } else {
        None
    };

    let schedule = FaultSchedule {
        seed,
        scheme,
        dims,
        nodes,
        settle_time: 120.0,
        heartbeat_period,
        fail_timeout,
        fault_duration,
        recovery_periods: 20.0,
        graceful_fraction,
        churn_gap,
        class_faults,
        partitions,
        degrades,
        events,
        // The fuzzer grammar stays macro-free: macros are the scenario
        // library's vocabulary, and keeping them out of `generate`
        // leaves every historical seed's schedule untouched.
        macros: Vec::new(),
        detector,
        replication,
        sched_crash_interval,
        // Like macros, overload arming stays out of the fuzzer grammar
        // so historical seeds keep their schedules; the scenario
        // library is what writes it.
        overload: None,
        expect_digest: None,
    };
    debug_assert!(schedule.validate().is_ok(), "generator escaped its budget");
    schedule
}

// ---------------------------------------------------------------------------
// Trace format
// ---------------------------------------------------------------------------

/// A parse failure in a trace file, with the 1-indexed offending line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceParseError {
    /// 1-indexed line number of the offending record (0 for whole-file
    /// problems such as a missing `schedule` record).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TraceParseError {}

fn class_label(class: MsgClass) -> &'static str {
    class.label()
}

fn class_from_label(label: &str) -> Option<MsgClass> {
    MsgClass::ALL.iter().copied().find(|c| c.label() == label)
}

impl FaultSchedule {
    /// Serializes the schedule as a self-contained replayable trace.
    ///
    /// The format is line-oriented text: one record per line, each a
    /// record kind followed by `key=value` fields. `#` starts a
    /// comment. `f64` values use Rust's shortest round-trip `Display`,
    /// so [`FaultSchedule::parse`] recovers them bit for bit.
    pub fn to_text(&self) -> String {
        use fmt::Write as _;
        let mut out = String::new();
        out.push_str("# pgrid fault-schedule trace v1\n");
        let _ = writeln!(
            out,
            "schedule seed={} scheme={} dims={} nodes={}",
            self.seed, self.scheme, self.dims, self.nodes
        );
        let _ = writeln!(
            out,
            "phase settle={} period={} timeout={} fault={} recovery={} graceful={}",
            self.settle_time,
            self.heartbeat_period,
            self.fail_timeout,
            self.fault_duration,
            self.recovery_periods,
            self.graceful_fraction
        );
        if let Some(gap) = self.churn_gap {
            let _ = writeln!(out, "churn gap={gap}");
        }
        for &(class, f) in &self.class_faults {
            let _ = writeln!(
                out,
                "classfault class={} drop={} duplicate={} delay={} jitter={}",
                class_label(class),
                f.drop,
                f.duplicate,
                f.delay,
                f.jitter
            );
        }
        for p in &self.partitions {
            let _ = writeln!(
                out,
                "partition fraction={} from={} until={}",
                p.fraction, p.from, p.until
            );
        }
        for d in &self.degrades {
            let _ = writeln!(
                out,
                "degrade pairs={} drop={} jitter={} from={} until={}",
                d.pairs, d.drop, d.jitter, d.from, d.until
            );
        }
        if let Some(mode) = &self.detector {
            let _ = writeln!(out, "detector mode={mode}");
        }
        if let Some(mode) = &self.replication {
            let _ = writeln!(out, "replication mode={mode}");
        }
        for m in &self.macros {
            match *m {
                ScheduleMacro::Wave {
                    period,
                    amplitude,
                    cycles,
                    from,
                } => {
                    let _ = writeln!(
                        out,
                        "wave period={period} amplitude={amplitude} cycles={cycles} from={from}"
                    );
                }
                ScheduleMacro::Spike {
                    at,
                    joins,
                    rate,
                    duration,
                } => {
                    let _ = writeln!(
                        out,
                        "spike at={at} joins={joins} rate={rate} duration={duration}"
                    );
                }
                ScheduleMacro::RackStorm {
                    at,
                    racks,
                    size,
                    gap,
                } => {
                    let _ = writeln!(out, "rackstorm at={at} racks={racks} size={size} gap={gap}");
                }
                ScheduleMacro::Straggler {
                    pairs,
                    drop,
                    jitter,
                    freezes,
                    freeze_secs,
                    from,
                    until,
                } => {
                    let _ = writeln!(
                        out,
                        "straggler pairs={pairs} drop={drop} jitter={jitter} freezes={freezes} \
                         freeze_secs={freeze_secs} from={from} until={until}"
                    );
                }
                ScheduleMacro::GrayFail {
                    pairs,
                    drop,
                    delay,
                    from,
                    until,
                } => {
                    let _ = writeln!(
                        out,
                        "grayfail pairs={pairs} drop={drop} delay={delay} from={from} until={until}"
                    );
                }
            }
        }
        for e in &self.events {
            match e.fault {
                NodeFault::Crash { count } => {
                    let _ = writeln!(out, "event at={} kind=crash count={count}", e.at);
                }
                NodeFault::Rejoin { count } => {
                    let _ = writeln!(out, "event at={} kind=rejoin count={count}", e.at);
                }
                NodeFault::Freeze { count, duration } => {
                    let _ = writeln!(
                        out,
                        "event at={} kind=freeze count={count} duration={duration}",
                        e.at
                    );
                }
                NodeFault::CrashWithHeir { count } => {
                    let _ = writeln!(out, "event at={} kind=crash-heir count={count}", e.at);
                }
            }
        }
        if let Some(iv) = self.sched_crash_interval {
            let _ = writeln!(out, "sched crash_interval={iv}");
        }
        if let Some(o) = &self.overload {
            let _ = writeln!(
                out,
                "overload slots={} wait={} burst={} refill={}",
                o.slots, o.wait, o.burst, o.refill
            );
        }
        if let Some(d) = self.expect_digest {
            let _ = writeln!(out, "expect digest={d:#018x}");
        }
        out
    }

    /// Parses a trace produced by [`FaultSchedule::to_text`] (or
    /// written by hand), validating it against the executor's
    /// preconditions.
    pub fn parse(text: &str) -> Result<FaultSchedule, TraceParseError> {
        let err = |line: usize, message: String| TraceParseError { line, message };
        let mut schedule: Option<FaultSchedule> = None;
        let mut saw_phase = false;
        for (idx, raw) in text.lines().enumerate() {
            let line_no = idx + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut tokens = line.split_whitespace();
            let kind = tokens.next().expect("non-empty line has a token");
            let mut fields = Vec::new();
            for tok in tokens {
                let (k, v) = tok
                    .split_once('=')
                    .ok_or_else(|| err(line_no, format!("expected key=value, got `{tok}`")))?;
                fields.push((k, v));
            }
            let get = |key: &str| -> Result<&str, TraceParseError> {
                fields
                    .iter()
                    .find(|(k, _)| *k == key)
                    .map(|(_, v)| *v)
                    .ok_or_else(|| err(line_no, format!("`{kind}` record is missing `{key}=`")))
            };
            let get_f64 = |key: &str| -> Result<f64, TraceParseError> {
                get(key)?
                    .parse::<f64>()
                    .map_err(|_| err(line_no, format!("`{key}` is not a number")))
            };
            let get_usize = |key: &str| -> Result<usize, TraceParseError> {
                get(key)?
                    .parse::<usize>()
                    .map_err(|_| err(line_no, format!("`{key}` is not an integer")))
            };

            if kind == "schedule" {
                if schedule.is_some() {
                    return Err(err(line_no, "duplicate `schedule` record".into()));
                }
                schedule = Some(FaultSchedule {
                    seed: get("seed")?
                        .parse::<u64>()
                        .map_err(|_| err(line_no, "`seed` is not an integer".into()))?,
                    scheme: get("scheme")?.to_string(),
                    dims: get_usize("dims")?,
                    nodes: get_usize("nodes")?,
                    settle_time: 0.0,
                    heartbeat_period: 0.0,
                    fail_timeout: 0.0,
                    fault_duration: 0.0,
                    recovery_periods: 0.0,
                    graceful_fraction: 0.0,
                    churn_gap: None,
                    class_faults: Vec::new(),
                    partitions: Vec::new(),
                    degrades: Vec::new(),
                    events: Vec::new(),
                    macros: Vec::new(),
                    detector: None,
                    replication: None,
                    sched_crash_interval: None,
                    overload: None,
                    expect_digest: None,
                });
                continue;
            }
            let sched = schedule
                .as_mut()
                .ok_or_else(|| err(line_no, "`schedule` record must come first".into()))?;
            match kind {
                "phase" => {
                    sched.settle_time = get_f64("settle")?;
                    sched.heartbeat_period = get_f64("period")?;
                    sched.fail_timeout = get_f64("timeout")?;
                    sched.fault_duration = get_f64("fault")?;
                    sched.recovery_periods = get_f64("recovery")?;
                    sched.graceful_fraction = get_f64("graceful")?;
                    saw_phase = true;
                }
                "churn" => sched.churn_gap = Some(get_f64("gap")?),
                "classfault" => {
                    let label = get("class")?;
                    let class = class_from_label(label)
                        .ok_or_else(|| err(line_no, format!("unknown message class `{label}`")))?;
                    sched.class_faults.push((
                        class,
                        ClassFaults {
                            drop: get_f64("drop")?,
                            duplicate: get_f64("duplicate")?,
                            delay: get_f64("delay")?,
                            jitter: get_f64("jitter")?,
                        },
                    ));
                }
                "partition" => sched.partitions.push(PartitionWindow {
                    fraction: get_f64("fraction")?,
                    from: get_f64("from")?,
                    until: get_f64("until")?,
                }),
                "degrade" => sched.degrades.push(DegradeWindow {
                    pairs: get_usize("pairs")?,
                    drop: get_f64("drop")?,
                    jitter: get_f64("jitter")?,
                    from: get_f64("from")?,
                    until: get_f64("until")?,
                }),
                "detector" => sched.detector = Some(get("mode")?.to_string()),
                "replication" => sched.replication = Some(get("mode")?.to_string()),
                "wave" => sched.macros.push(ScheduleMacro::Wave {
                    period: get_f64("period")?,
                    amplitude: get_usize("amplitude")?,
                    cycles: get_usize("cycles")?,
                    from: get_f64("from")?,
                }),
                "spike" => sched.macros.push(ScheduleMacro::Spike {
                    at: get_f64("at")?,
                    joins: get_usize("joins")?,
                    rate: get_f64("rate")?,
                    duration: get_f64("duration")?,
                }),
                "rackstorm" => sched.macros.push(ScheduleMacro::RackStorm {
                    at: get_f64("at")?,
                    racks: get_usize("racks")?,
                    size: get_usize("size")?,
                    gap: get_f64("gap")?,
                }),
                "straggler" => sched.macros.push(ScheduleMacro::Straggler {
                    pairs: get_usize("pairs")?,
                    drop: get_f64("drop")?,
                    jitter: get_f64("jitter")?,
                    freezes: get_usize("freezes")?,
                    freeze_secs: get_f64("freeze_secs")?,
                    from: get_f64("from")?,
                    until: get_f64("until")?,
                }),
                "grayfail" => sched.macros.push(ScheduleMacro::GrayFail {
                    pairs: get_usize("pairs")?,
                    drop: get_f64("drop")?,
                    delay: get_f64("delay")?,
                    from: get_f64("from")?,
                    until: get_f64("until")?,
                }),
                "event" => {
                    let at = get_f64("at")?;
                    let fault = match get("kind")? {
                        "crash" => NodeFault::Crash {
                            count: get_usize("count")?,
                        },
                        "rejoin" => NodeFault::Rejoin {
                            count: get_usize("count")?,
                        },
                        "freeze" => NodeFault::Freeze {
                            count: get_usize("count")?,
                            duration: get_f64("duration")?,
                        },
                        "crash-heir" => NodeFault::CrashWithHeir {
                            count: get_usize("count")?,
                        },
                        other => return Err(err(line_no, format!("unknown event kind `{other}`"))),
                    };
                    sched.events.push(FaultEvent { at, fault });
                }
                "sched" => sched.sched_crash_interval = Some(get_f64("crash_interval")?),
                "overload" => {
                    sched.overload = Some(OverloadRecord {
                        slots: get_usize("slots")?,
                        wait: get_f64("wait")?,
                        burst: get("burst")?
                            .parse::<u32>()
                            .map_err(|_| err(line_no, "`burst` is not an integer".into()))?,
                        refill: get_f64("refill")?,
                    });
                }
                "expect" => {
                    let raw = get("digest")?;
                    let hex = raw.strip_prefix("0x").unwrap_or(raw);
                    sched.expect_digest = Some(
                        u64::from_str_radix(hex, 16)
                            .map_err(|_| err(line_no, "`digest` is not a hex integer".into()))?,
                    );
                }
                other => return Err(err(line_no, format!("unknown record kind `{other}`"))),
            }
        }
        let mut sched = schedule.ok_or_else(|| err(0, "trace has no `schedule` record".into()))?;
        if !saw_phase {
            return Err(err(0, "trace has no `phase` record".into()));
        }
        sched.events.sort_by(|a, b| a.at.total_cmp(&b.at));
        sched.validate().map_err(|message| err(0, message))?;
        Ok(sched)
    }
}

// ---------------------------------------------------------------------------
// Delta-debugging shrinker
// ---------------------------------------------------------------------------

/// Result of a [`shrink`] run.
#[derive(Debug, Clone)]
pub struct ShrinkOutcome {
    /// The minimized schedule (still failing under the caller's test).
    pub schedule: FaultSchedule,
    /// Number of replay probes spent.
    pub probes: usize,
}

/// Minimizes a failing schedule with complement-removal delta
/// debugging (ddmin) over its removable elements — node-fault events,
/// partition windows, per-class fault entries, the churn toggle, the
/// scheduler-phase toggle, link-degrade windows, and the detector
/// toggle — followed by a greedy count-reduction pass on the surviving
/// events.
///
/// `still_fails` must return `true` when the candidate schedule still
/// exhibits the failure. The original schedule is assumed failing. The
/// search spends at most `max_probes` calls to `still_fails`; the
/// result is 1-minimal when the budget allows, near-minimal otherwise.
pub fn shrink<F>(origin: &FaultSchedule, max_probes: usize, mut still_fails: F) -> ShrinkOutcome
where
    F: FnMut(&FaultSchedule) -> bool,
{
    let mut current = origin.clone();
    current.expect_digest = None;
    let mut probes = 0usize;

    // Phase 1: ddmin over removable elements.
    let mut granularity = 2usize;
    loop {
        let len = current.element_count();
        if len <= 1 || probes >= max_probes {
            break;
        }
        let n = granularity.min(len);
        let mut reduced = false;
        for chunk in 0..n {
            if probes >= max_probes {
                break;
            }
            // Keep the complement of this chunk (element i lives in
            // chunk i*n/len, which partitions 0..len into n runs).
            let keep: Vec<bool> = (0..len).map(|i| i * n / len != chunk).collect();
            if keep.iter().all(|&k| k) || keep.iter().all(|&k| !k) {
                continue;
            }
            let candidate = current.with_elements(&keep);
            probes += 1;
            if still_fails(&candidate) {
                current = candidate;
                granularity = (n - 1).max(2);
                reduced = true;
                break;
            }
        }
        if !reduced {
            if n >= len {
                break;
            }
            granularity = (n * 2).min(len);
        }
    }

    // Phase 2: greedy count reduction on surviving events. Failure is
    // usually monotone in burst size, so probing a few shrunken counts
    // in ascending order finds a near-minimal burst cheaply.
    for i in 0..current.events.len() {
        let count = match current.events[i].fault {
            NodeFault::Crash { count }
            | NodeFault::Rejoin { count }
            | NodeFault::Freeze { count, .. }
            | NodeFault::CrashWithHeir { count } => count,
        };
        if count <= 1 {
            continue;
        }
        for candidate_count in [1, count / 4, count / 2] {
            if candidate_count == 0 || candidate_count >= count || probes >= max_probes {
                continue;
            }
            let mut candidate = current.clone();
            match &mut candidate.events[i].fault {
                NodeFault::Crash { count }
                | NodeFault::Rejoin { count }
                | NodeFault::Freeze { count, .. }
                | NodeFault::CrashWithHeir { count } => *count = candidate_count,
            }
            probes += 1;
            if still_fails(&candidate) {
                current = candidate;
                break;
            }
        }
    }

    ShrinkOutcome {
        schedule: current,
        probes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn crash_at(at: f64, count: usize) -> FaultEvent {
        FaultEvent {
            at,
            fault: NodeFault::Crash { count },
        }
    }

    fn base_schedule() -> FaultSchedule {
        FaultSchedule {
            seed: 7,
            scheme: "adaptive".into(),
            dims: 2,
            nodes: 24,
            settle_time: 120.0,
            heartbeat_period: 60.0,
            fail_timeout: 150.0,
            fault_duration: 600.0,
            recovery_periods: 20.0,
            graceful_fraction: 0.5,
            churn_gap: Some(12.5),
            class_faults: vec![(
                MsgClass::Heartbeat,
                ClassFaults {
                    drop: 0.2,
                    duplicate: 0.1,
                    delay: 1.5,
                    jitter: 0.0,
                },
            )],
            partitions: vec![PartitionWindow {
                fraction: 0.2,
                from: 50.0,
                until: 400.0,
            }],
            degrades: vec![DegradeWindow {
                pairs: 3,
                drop: 0.4,
                jitter: 25.0,
                from: 30.0,
                until: 500.0,
            }],
            events: vec![crash_at(60.0, 8), crash_at(120.0, 2), crash_at(300.0, 5)],
            macros: vec![
                ScheduleMacro::Wave {
                    period: 150.0,
                    amplitude: 3,
                    cycles: 2,
                    from: 10.0,
                },
                ScheduleMacro::GrayFail {
                    pairs: 4,
                    drop: 0.3,
                    delay: 20.0,
                    from: 50.0,
                    until: 550.0,
                },
            ],
            detector: Some("adaptive".into()),
            replication: Some("standby".into()),
            sched_crash_interval: Some(450.0),
            overload: Some(OverloadRecord {
                slots: 4,
                wait: 900.0,
                burst: 3,
                refill: 0.01,
            }),
            expect_digest: Some(0xdead_beef),
        }
    }

    #[test]
    fn generation_is_deterministic_and_in_budget() {
        let budget = ScheduleBudget::default();
        for seed in 0..40 {
            let a = generate(seed, &budget);
            let b = generate(seed, &budget);
            assert_eq!(a, b, "seed {seed} must regenerate identically");
            assert!(a.validate().is_ok(), "seed {seed}: {:?}", a.validate());
            assert!(a.dims >= budget.min_dims && a.dims <= budget.max_dims);
            assert!(a.nodes >= budget.min_nodes && a.nodes <= budget.max_nodes);
            assert!(!a.events.is_empty() && a.events.len() <= budget.max_events);
            assert!(a.partitions.len() <= budget.max_partitions);
            for &(_, f) in &a.class_faults {
                assert!(f.drop < budget.max_drop);
            }
            assert!(a.degrades.len() <= budget.max_degrades);
            for d in &a.degrades {
                assert!(d.pairs >= 1 && d.pairs <= budget.max_degrade_pairs);
                assert!(d.drop < budget.max_degrade_drop);
            }
        }
    }

    #[test]
    fn generation_samples_degrades_and_detectors() {
        let budget = ScheduleBudget::default();
        let schedules: Vec<FaultSchedule> = (0..40).map(|s| generate(s, &budget)).collect();
        assert!(
            schedules.iter().any(|s| !s.degrades.is_empty()),
            "some seed should draw a degrade window"
        );
        assert!(
            schedules
                .iter()
                .any(|s| s.detector.as_deref() == Some("fixed"))
                && schedules
                    .iter()
                    .any(|s| s.detector.as_deref() == Some("adaptive")),
            "both detector modes should appear across seeds"
        );
        assert!(
            schedules.iter().any(|s| s.detector.is_none()),
            "the legacy passive mode should still appear"
        );
        assert!(
            schedules
                .iter()
                .any(|s| s.replication.as_deref() == Some("standby")),
            "some seed should arm warm-standby replication"
        );
        assert!(
            schedules.iter().any(|s| s.replication.is_none()),
            "unreplicated schedules should still appear"
        );
    }

    #[test]
    fn different_seeds_differ() {
        let budget = ScheduleBudget::default();
        assert_ne!(generate(1, &budget), generate(2, &budget));
    }

    #[test]
    fn trace_round_trips_bit_identically() {
        let budget = ScheduleBudget::default();
        for seed in 0..25 {
            let mut s = generate(seed, &budget);
            s.expect_digest = Some(seed.wrapping_mul(0x9e37_79b9));
            let text = s.to_text();
            let parsed = FaultSchedule::parse(&text).expect("round trip parses");
            assert_eq!(parsed, s, "seed {seed} round trip:\n{text}");
        }
        let mut hand = base_schedule();
        hand.events.push(FaultEvent {
            at: 450.0,
            fault: NodeFault::CrashWithHeir { count: 3 },
        });
        let text = hand.to_text();
        assert!(text.contains("event at=450 kind=crash-heir count=3\n"));
        assert_eq!(
            FaultSchedule::parse(&text).unwrap(),
            hand,
            "hand-built schedule round trips"
        );
    }

    #[test]
    fn parse_reports_the_offending_line() {
        let mut text = base_schedule().to_text();
        text.push_str("event at=10 kind=warp count=1\n");
        let bad_line = text.lines().count();
        let e = FaultSchedule::parse(&text).unwrap_err();
        assert_eq!(e.line, bad_line);
        assert!(e.message.contains("warp"), "{e}");

        let e = FaultSchedule::parse("phase settle=1\n").unwrap_err();
        assert_eq!(e.line, 1, "records before `schedule` are rejected: {e}");

        let e = FaultSchedule::parse("schedule seed=1 scheme=x dims=2 nodes=24\n").unwrap_err();
        assert!(e.message.contains("phase"), "{e}");
    }

    #[test]
    fn parse_rejects_executor_precondition_violations() {
        let mut s = base_schedule();
        s.partitions[0].until = s.fault_duration + 1.0;
        let e = FaultSchedule::parse(&s.to_text()).unwrap_err();
        assert!(e.message.contains("partition window"), "{e}");

        let mut s = base_schedule();
        s.degrades[0].until = s.fault_duration + 1.0;
        let e = FaultSchedule::parse(&s.to_text()).unwrap_err();
        assert!(e.message.contains("degrade window"), "{e}");

        let mut s = base_schedule();
        s.detector = Some("psychic".into());
        let e = FaultSchedule::parse(&s.to_text()).unwrap_err();
        assert!(e.message.contains("detector mode"), "{e}");

        let mut s = base_schedule();
        s.replication = Some("hot".into());
        let e = FaultSchedule::parse(&s.to_text()).unwrap_err();
        assert!(e.message.contains("replication mode"), "{e}");

        let mut s = base_schedule();
        s.scheme = "laser".into();
        let e = FaultSchedule::parse(&s.to_text()).unwrap_err();
        assert!(
            e.message.contains("scheme") && e.message.contains("laser"),
            "{e}"
        );

        let mut s = base_schedule();
        s.events[0].fault = NodeFault::CrashWithHeir { count: 0 };
        let e = FaultSchedule::parse(&s.to_text()).unwrap_err();
        assert!(e.message.contains("event count"), "{e}");
    }

    #[test]
    fn shrink_finds_the_single_guilty_event() {
        let origin = base_schedule();
        // Failure := schedule still contains the crash burst at t=120.
        let outcome = shrink(&origin, 256, |s| s.events.iter().any(|e| e.at == 120.0));
        assert_eq!(outcome.schedule.events.len(), 1);
        assert_eq!(outcome.schedule.events[0].at, 120.0);
        assert!(outcome.schedule.partitions.is_empty());
        assert!(outcome.schedule.class_faults.is_empty());
        assert!(outcome.schedule.degrades.is_empty());
        assert!(outcome.schedule.detector.is_none());
        assert!(outcome.schedule.replication.is_none());
        assert!(outcome.schedule.churn_gap.is_none());
        assert!(outcome.schedule.sched_crash_interval.is_none());
        assert!(outcome.schedule.macros.is_empty());
        assert!(outcome.schedule.expect_digest.is_none());
        assert!(outcome.probes <= 256);
    }

    #[test]
    fn shrink_reduces_burst_counts() {
        let origin = base_schedule();
        // Failure := some crash burst of at least 2 victims survives.
        let outcome = shrink(&origin, 256, |s| {
            s.events
                .iter()
                .any(|e| matches!(e.fault, NodeFault::Crash { count } if count >= 2))
        });
        assert_eq!(outcome.schedule.events.len(), 1);
        assert!(
            matches!(
                outcome.schedule.events[0].fault,
                NodeFault::Crash { count: 2 }
            ),
            "burst shrinks to the minimal failing count: {:?}",
            outcome.schedule.events
        );

        // The owner+heir wave shrinks the same way.
        let mut origin = base_schedule();
        origin.events[0].fault = NodeFault::CrashWithHeir { count: 8 };
        let outcome = shrink(&origin, 256, |s| {
            s.events
                .iter()
                .any(|e| matches!(e.fault, NodeFault::CrashWithHeir { count } if count >= 2))
        });
        assert_eq!(
            outcome.schedule.events,
            [FaultEvent {
                at: 60.0,
                fault: NodeFault::CrashWithHeir { count: 2 },
            }]
        );
    }

    #[test]
    fn shrink_respects_the_probe_budget() {
        let origin = base_schedule();
        let mut calls = 0usize;
        let outcome = shrink(&origin, 3, |_| {
            calls += 1;
            false
        });
        assert!(calls <= 3);
        assert_eq!(outcome.probes, calls);
        // Nothing shrank, but the schedule is intact.
        assert_eq!(outcome.schedule.events.len(), origin.events.len());
    }

    fn all_macro_kinds() -> Vec<ScheduleMacro> {
        vec![
            ScheduleMacro::Wave {
                period: 120.0,
                amplitude: 4,
                cycles: 3,
                from: 20.0,
            },
            ScheduleMacro::Spike {
                at: 60.0,
                joins: 10,
                rate: 2.5,
                duration: 200.0,
            },
            ScheduleMacro::RackStorm {
                at: 30.0,
                racks: 3,
                size: 4,
                gap: 100.0,
            },
            ScheduleMacro::Straggler {
                pairs: 4,
                drop: 0.35,
                jitter: 25.0,
                freezes: 2,
                freeze_secs: 120.0,
                from: 40.0,
                until: 500.0,
            },
            ScheduleMacro::GrayFail {
                pairs: 5,
                drop: 0.25,
                delay: 35.0,
                from: 50.0,
                until: 550.0,
            },
        ]
    }

    #[test]
    fn macro_records_round_trip_bit_identically() {
        let mut s = base_schedule();
        s.macros = all_macro_kinds();
        let text = s.to_text();
        let parsed = FaultSchedule::parse(&text).expect("macro trace parses");
        assert_eq!(parsed, s, "all five macro kinds round trip:\n{text}");
    }

    #[test]
    fn validate_rejects_macro_windows_past_the_horizon() {
        let mut s = base_schedule();
        s.macros = vec![ScheduleMacro::Wave {
            period: 200.0,
            amplitude: 2,
            cycles: 4, // 10 + 800 > 600
            from: 10.0,
        }];
        let e = FaultSchedule::parse(&s.to_text()).unwrap_err();
        assert!(e.message.contains("wave window"), "{e}");

        let mut s = base_schedule();
        s.macros = vec![ScheduleMacro::RackStorm {
            at: 500.0,
            racks: 2,
            size: 3,
            gap: 100.0, // 500 + 200 > 600
        }];
        let e = FaultSchedule::parse(&s.to_text()).unwrap_err();
        assert!(e.message.contains("rackstorm window"), "{e}");

        let mut s = base_schedule();
        s.macros = vec![ScheduleMacro::Spike {
            at: 500.0,
            joins: 8,
            rate: 2.0,
            duration: 200.0, // 500 + 200 > 600
        }];
        let e = FaultSchedule::parse(&s.to_text()).unwrap_err();
        assert!(e.message.contains("spike window"), "{e}");
    }

    #[test]
    fn validate_rejects_zero_expansion_macros() {
        let mut s = base_schedule();
        s.macros = vec![ScheduleMacro::Wave {
            period: 100.0,
            amplitude: 2,
            cycles: 0,
            from: 10.0,
        }];
        let e = s.validate().unwrap_err();
        assert!(e.contains("zero events"), "{e}");

        let mut s = base_schedule();
        s.macros = vec![ScheduleMacro::RackStorm {
            at: 10.0,
            racks: 0,
            size: 3,
            gap: 50.0,
        }];
        let e = s.validate().unwrap_err();
        assert!(e.contains("zero events"), "{e}");
    }

    #[test]
    fn expansion_is_deterministic_and_macro_free() {
        let mut s = base_schedule();
        s.macros = all_macro_kinds();
        s.fault_duration = 600.0;
        s.validate().expect("macro schedule valid");
        let a = s.expand();
        let b = s.expand();
        assert_eq!(a, b, "expansion must be deterministic");
        assert!(a.macros.is_empty());
        assert!(a.validate().is_ok(), "{:?}", a.validate());
        let expected: usize = s.macros.iter().map(|m| m.expansion_count()).sum();
        let grown = (a.events.len() - s.events.len()) + (a.degrades.len() - s.degrades.len());
        assert_eq!(
            grown, expected,
            "every macro lowers to its advertised count"
        );
        // Events stay sorted for the executor's pop-earliest loop.
        assert!(a.events.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn expansion_is_the_identity_without_macros() {
        let s = generate(9, &ScheduleBudget::default());
        assert!(s.macros.is_empty());
        assert_eq!(s.expand(), s);
    }

    #[test]
    fn seeds_perturb_expansion_times_but_never_structure() {
        let mut a = base_schedule();
        a.events.clear();
        a.degrades.clear();
        a.macros = all_macro_kinds();
        let mut b = a.clone();
        b.seed = a.seed + 1;
        let (ea, eb) = (a.expand(), b.expand());
        assert_eq!(ea.events.len(), eb.events.len());
        assert_eq!(ea.degrades.len(), eb.degrades.len());
        let kinds = |s: &FaultSchedule| {
            let mut v: Vec<u8> = s
                .events
                .iter()
                .map(|e| match e.fault {
                    NodeFault::Crash { .. } => 0u8,
                    NodeFault::Rejoin { .. } => 1,
                    NodeFault::Freeze { .. } => 2,
                    NodeFault::CrashWithHeir { .. } => 3,
                })
                .collect();
            v.sort_unstable();
            v
        };
        assert_eq!(kinds(&ea), kinds(&eb), "event kinds are seed-invariant");
        assert_ne!(
            ea.events, eb.events,
            "different seeds must perturb at least one expansion time"
        );
    }

    #[test]
    fn arrival_windows_surface_spike_rates() {
        let mut s = base_schedule();
        s.macros = all_macro_kinds();
        assert_eq!(s.arrival_windows(), vec![(60.0, 260.0, 2.5)]);
        s.macros.clear();
        assert!(s.arrival_windows().is_empty());
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        let mut h = Fnv::new();
        h.write(b"");
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv::new();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }
}
