//! One driver per figure of the paper's evaluation (§V).
//!
//! Every driver supports two scales:
//!
//! * [`Scale::Paper`] — the paper's full configuration (1000 nodes /
//!   20 000 jobs for Figures 5–6; 500–2000 nodes and 5–14 dimensions
//!   for Figures 7–8). Minutes of wall-clock.
//! * [`Scale::Quick`] — a reduced configuration with the same
//!   qualitative behaviour, used by integration tests and for smoke
//!   runs. Seconds of wall-clock.
//!
//! Independent simulation configurations run in parallel across
//! threads (each simulation itself is single-threaded and
//! deterministic, so results do not depend on scheduling).

use crate::can::{
    dst, run_churn, run_schedule, uniform_coords, CanCounters, ChurnConfig, ChurnReport,
    DetectorMode, HeartbeatScheme, ScheduleReport,
};
use crate::scenarios::ScenarioSpec;
use crate::sched::{
    run_load_balance, run_load_balance_chaos, run_load_balance_overload, CrashChaosConfig,
    OverloadConfig, RecoveryStats, SchedulerChoice, SimResult,
};
use crate::simcore::dst::FaultSchedule;
use crate::simcore::fault::LinkDegrade;
use crate::simcore::SimRng;
use crate::workload::{default_scenario, LoadBalanceScenario};

/// Experiment scale selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The paper's full configuration.
    Paper,
    /// Reduced configuration for tests and smoke runs.
    Quick,
}

/// Runs `configs.len()` independent jobs in parallel, preserving input
/// order in the output.
///
/// Work distribution is an atomic claim counter: each worker claims
/// the next unclaimed index with one `fetch_add` and takes the config
/// out of that index's private slot, so there is no shared work-queue
/// lock and no lock on a results vector — workers accumulate `(index,
/// result)` pairs locally and the pairs are merged after the joins.
fn parallel_map<C: Send, R: Send>(configs: Vec<C>, f: impl Fn(C) -> R + Sync) -> Vec<R> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let n = configs.len();
    let threads = std::thread::available_parallelism()
        .map(|t| t.get())
        .unwrap_or(4)
        .min(16)
        .min(n);
    if threads <= 1 {
        return configs.into_iter().map(f).collect();
    }
    // One slot per config; each is locked exactly once by the claiming
    // worker (claims never collide), so the mutexes are uncontended.
    let slots: Vec<std::sync::Mutex<Option<C>>> = configs
        .into_iter()
        .map(|c| std::sync::Mutex::new(Some(c)))
        .collect();
    let next = AtomicUsize::new(0);
    let mut merged: Vec<Option<R>> = (0..n).map(|_| None).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut local: Vec<(usize, R)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let cfg = slots[i]
                            .lock()
                            .expect("work slot poisoned")
                            .take()
                            .expect("slot claimed twice");
                        local.push((i, f(cfg)));
                    }
                    local
                })
            })
            .collect();
        for h in handles {
            for (i, r) in h.join().expect("worker panicked") {
                merged[i] = Some(r);
            }
        }
    });
    merged
        .into_iter()
        .map(|r| r.expect("all work items completed"))
        .collect()
}

// ---------------------------------------------------------------- Fig 5/6

/// One wait-time-CDF experiment cell: a scenario run under all three
/// schedulers.
#[derive(Debug, Clone)]
pub struct WaitTimeCell {
    /// Sub-figure parameter: mean inter-arrival (Fig 5) or constraint
    /// ratio (Fig 6).
    pub parameter: f64,
    /// Results in [`SchedulerChoice::ALL`] order.
    pub results: Vec<SimResult>,
}

/// The Figure 5 load-balancing scenario at `scale`: the paper's at
/// [`Scale::Paper`], a tenth of its nodes and jobs at the same load
/// level at [`Scale::Quick`]. The base of every wait-time experiment.
pub fn scenario_for(scale: Scale) -> LoadBalanceScenario {
    match scale {
        Scale::Paper => default_scenario(),
        Scale::Quick => {
            let mut s = default_scenario().scaled_down(10); // 100 nodes
            s.jobs = 2000;
            s
        }
    }
}

/// Figure 5: CDF of job wait time at mean inter-arrival 2 s / 3 s / 4 s
/// (scaled proportionally at [`Scale::Quick`]), constraint ratio 0.6.
pub fn fig5(scale: Scale) -> Vec<WaitTimeCell> {
    let base = scenario_for(scale);
    let factor = base.job_gen.mean_interarrival / 3.0; // keep quick-scale load level
    let params = [2.0, 3.0, 4.0];
    let configs: Vec<(f64, LoadBalanceScenario, SchedulerChoice)> = params
        .iter()
        .flat_map(|&ia| SchedulerChoice::ALL.into_iter().map(move |sch| (ia, sch)))
        .map(|(ia, sch)| (ia, base.clone().with_interarrival(ia * factor), sch))
        .collect();
    let results = parallel_map(configs, |(_, sc, sch)| run_load_balance(&sc, sch));
    collect_cells(&params, results)
}

/// Figure 6: CDF of job wait time at constraint ratio 80% / 60% / 40%,
/// inter-arrival fixed at 3 s.
pub fn fig6(scale: Scale) -> Vec<WaitTimeCell> {
    let base = scenario_for(scale);
    let params = [0.8, 0.6, 0.4];
    let configs: Vec<(f64, LoadBalanceScenario, SchedulerChoice)> = params
        .iter()
        .flat_map(|&r| SchedulerChoice::ALL.into_iter().map(move |sch| (r, sch)))
        .map(|(r, sch)| (r, base.clone().with_constraint_ratio(r), sch))
        .collect();
    let results = parallel_map(configs, |(_, sc, sch)| run_load_balance(&sc, sch));
    collect_cells(&params, results)
}

fn collect_cells(params: &[f64], results: Vec<SimResult>) -> Vec<WaitTimeCell> {
    params
        .iter()
        .enumerate()
        .map(|(i, &p)| WaitTimeCell {
            parameter: p,
            results: results[i * 3..(i + 1) * 3].to_vec(),
        })
        .collect()
}

// ------------------------------------------------------------------ Fig 7

/// Figure 7: broken links over time under high churn, 11-dimensional
/// CAN, one series per heartbeat scheme.
pub fn fig7(scale: Scale) -> Vec<ChurnReport> {
    let (nodes, duration, sample) = match scale {
        Scale::Paper => (1000, 20_000.0, 250.0),
        Scale::Quick => (150, 3000.0, 250.0),
    };
    let configs: Vec<HeartbeatScheme> = HeartbeatScheme::ALL.to_vec();
    parallel_map(configs, move |scheme| {
        let mut cfg = ChurnConfig::new(11, scheme, nodes).high_churn();
        cfg.stage2_duration = duration;
        cfg.sample_interval = sample;
        run_churn(&cfg, uniform_coords(11))
    })
}

// ------------------------------------------------------------------ Fig 8

/// One Figure 8 measurement cell.
#[derive(Debug, Clone)]
pub struct CostCell {
    /// Heartbeat scheme.
    pub scheme: HeartbeatScheme,
    /// CAN dimensions.
    pub dims: usize,
    /// Initial node count.
    pub nodes: usize,
    /// Messages per node per minute (Figure 8(a)).
    pub msgs_per_node_min: f64,
    /// Volume in KB per node per minute (Figure 8(b)).
    pub kb_per_node_min: f64,
    /// Mean CAN degree (diagnostics: should grow ~linearly with dims).
    pub mean_degree: f64,
}

/// Figure 8: heartbeat message count and volume per node per minute for
/// 5/8/11/14-dimensional CANs and (at paper scale) 500/1000/2000 nodes,
/// under slow churn (no simultaneous events).
pub fn fig8(scale: Scale) -> Vec<CostCell> {
    let (node_counts, duration): (Vec<usize>, f64) = match scale {
        Scale::Paper => (vec![500, 1000, 2000], 2400.0),
        Scale::Quick => (vec![100, 200], 1200.0),
    };
    let dims = [5usize, 8, 11, 14];
    let mut configs = Vec::new();
    for scheme in HeartbeatScheme::ALL {
        for &d in &dims {
            for &n in &node_counts {
                configs.push((scheme, d, n));
            }
        }
    }
    parallel_map(configs, move |(scheme, d, n)| {
        let mut cfg = ChurnConfig::new(d, scheme, n);
        // Slow churn: events spaced wider than a heartbeat period so
        // the cost measurement reflects steady-state maintenance.
        cfg.event_gap = 2.0 * cfg.heartbeat_period;
        cfg.stage2_duration = duration;
        cfg.sample_interval = duration; // costs only; broken links not needed
        let report = run_churn(&cfg, uniform_coords(d));
        CostCell {
            scheme,
            dims: d,
            nodes: n,
            msgs_per_node_min: report.msgs_per_node_min,
            kb_per_node_min: report.kb_per_node_min,
            mean_degree: report.mean_degree,
        }
    })
}

// ------------------------------------------------------------------ Chaos

/// Seed shared by every chaos-suite run (the historical seed that
/// exposed the compact-scheme stale-zone bug the targeted repair
/// message fixes).
pub const CHAOS_SEED: u64 = 41;

/// One row of the chaos-resilience table: a registry scenario under
/// one heartbeat scheme.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosRow {
    /// Registry name of the scenario.
    pub scenario: &'static str,
    /// Heartbeat scheme measured.
    pub scheme: HeartbeatScheme,
    /// What the schedule executor saw.
    pub report: ScheduleReport,
}

/// Chaos resilience suite over the CAN maintenance layer: each of
/// `specs` (the published table runs [`crate::scenarios::chaos_trio`]:
/// crash flash crowd, rolling partition, 20 % loss + high churn) under
/// each of `schemes` (scheme-major order) on the overlay and settle
/// window of `scale` — `nodes` resizes the overlay only — with the
/// failure detector off: the chaos tables measure the heartbeat
/// schemes' own passive expiry, as they always have.
///
/// Deterministic: the same arguments always produce the same rows;
/// [`CHAOS_SEED`] is the historical seed. An overlay size the executor
/// cannot run is an error, [`FaultSchedule::validate`]'s message.
pub fn chaos_rows(
    specs: &[&'static ScenarioSpec],
    schemes: &[HeartbeatScheme],
    scale: Scale,
    seed: u64,
    nodes: Option<usize>,
) -> Result<Vec<ChaosRow>, String> {
    let (scale_nodes, settle_time) = match scale {
        Scale::Paper => (60, 300.0),
        Scale::Quick => (40, 120.0),
    };
    let mut configs = Vec::new();
    for &scheme in schemes {
        for &spec in specs {
            let mut s = spec.compile_for(&scheme.label().to_ascii_lowercase(), seed);
            s.nodes = nodes.unwrap_or(scale_nodes);
            s.settle_time = settle_time;
            s.detector = None;
            s.validate()?;
            configs.push((spec.name, scheme, s));
        }
    }
    Ok(parallel_map(configs, |(scenario, scheme, s)| ChaosRow {
        scenario,
        scheme,
        report: run_schedule(&s),
    }))
}

// --------------------------------------------------------------- Takeover

/// Seed shared by every takeover-suite run.
pub const TAKEOVER_SEED: u64 = 53;

/// The resilience metrics of several [`ScheduleReport`]s pooled into one
/// table arm: the repeat seeds of one take-over arm (vanilla or
/// warm-standby replicated) or of one scenario × scheme arm. Replica
/// traffic shifts the lossy network's per-message fate draws, so two
/// arms follow different trajectories after the first fault — pooling
/// several seeds is what makes an arm-to-arm comparison meaningful.
#[derive(Debug, Clone, PartialEq)]
pub struct PooledArm {
    /// Peak directed broken links (worst repeat).
    pub broken_peak: usize,
    /// Detector suspicions, summed across repeats.
    pub suspicions: u64,
    /// Live nodes actively expelled by the detector — the false
    /// expulsions a well-tuned detector avoids, summed across repeats.
    pub live_expulsions: u64,
    /// Expelled nodes that revived through the epoch fence.
    pub revivals: u64,
    /// Crash take-overs applied, summed across repeats.
    pub takeovers: usize,
    /// Warm replicas promoted (0 unless replication is armed).
    pub replica_promotions: u64,
    /// Promotions refused by the epoch fence.
    pub stale_replica_rejects: u64,
    /// Promotions that carried the adopted zone's aggregate slice.
    pub agg_promotions: usize,
    /// Mean re-learn window in heartbeat periods, weighted across
    /// repeats by each run's resolved count (`None` when no take-over
    /// resolved anywhere).
    pub relearn_mean_heartbeats: Option<f64>,
    /// Take-overs whose re-learn window resolved.
    pub relearn_resolved: usize,
    /// Take-overs never fully re-learned by the end of a run.
    pub relearn_unresolved: usize,
    /// Pooled post-crash misdirection rate of local-table routes into
    /// freshly adopted zones (total misses / total probes).
    pub misdirect_rate: f64,
    /// Heartbeat-protocol traffic, messages per node per minute,
    /// averaged across repeats — what the replica deltas cost.
    pub msgs_per_node_min: f64,
    /// Oracle violations from every repeat (empty on clean runs).
    pub violations: Vec<String>,
}

/// The mean re-learn window over `(mean, resolved count)` parts,
/// weighted by the counts; `None` when nothing resolved.
pub fn relearn_mean(parts: impl Iterator<Item = (Option<f64>, usize)> + Clone) -> Option<f64> {
    let resolved: usize = parts.clone().map(|(_, n)| n).sum();
    (resolved > 0).then(|| {
        parts
            .filter_map(|(mean, n)| mean.map(|m| m * n as f64))
            .sum::<f64>()
            / resolved as f64
    })
}

impl PooledArm {
    /// Pools the repeats of one arm.
    pub fn pooled(reports: &[ScheduleReport]) -> Self {
        let probes: usize = reports.iter().map(|r| r.misdirect_probes).sum();
        let misses: usize = reports.iter().map(|r| r.misdirect_misses).sum();
        let sum = |count: fn(&CanCounters) -> u64| reports.iter().map(|r| count(&r.counters)).sum();
        PooledArm {
            broken_peak: reports.iter().map(|r| r.broken_peak).max().unwrap_or(0),
            suspicions: sum(|c| c.suspicions),
            live_expulsions: sum(|c| c.live_expulsions),
            revivals: sum(|c| c.revivals),
            takeovers: reports.iter().map(|r| r.takeovers).sum(),
            replica_promotions: sum(|c| c.replica_promotions),
            stale_replica_rejects: sum(|c| c.stale_replica_rejects),
            agg_promotions: reports.iter().map(|r| r.agg_promotions).sum(),
            relearn_mean_heartbeats: relearn_mean(
                reports
                    .iter()
                    .map(|r| (r.relearn_mean_heartbeats, r.relearn_resolved)),
            ),
            relearn_resolved: reports.iter().map(|r| r.relearn_resolved).sum(),
            relearn_unresolved: reports.iter().map(|r| r.relearn_unresolved).sum(),
            misdirect_rate: if probes == 0 {
                0.0
            } else {
                misses as f64 / probes as f64
            },
            msgs_per_node_min: reports.iter().map(|r| r.msgs_per_node_min).sum::<f64>()
                / reports.len().max(1) as f64,
            violations: reports.iter().flat_map(|r| r.violations.clone()).collect(),
        }
    }
}

/// One cell of the takeover sweep: the same take-over storm (crash
/// waves plus a correlated owner+heir wave under heartbeat loss and
/// churn) run vanilla and replicated for one heartbeat scheme.
#[derive(Debug, Clone, PartialEq)]
pub struct TakeoverCell {
    /// Heartbeat scheme under test.
    pub scheme: HeartbeatScheme,
    /// Legacy cache-only crash recovery.
    pub vanilla: PooledArm,
    /// Warm-standby replication armed.
    pub replicated: PooledArm,
}

impl TakeoverCell {
    /// The two arms in table order, each under its `arm` column label.
    pub fn arms(&self) -> [(&'static str, &PooledArm); 2] {
        [("vanilla", &self.vanilla), ("replicated", &self.replicated)]
    }
}

/// What fails a chaos run: every oracle violation of the chaos table's
/// rows and of either arm of each take-over cell, one line each, named
/// by the run that raised it.
pub fn chaos_violations(rows: &[ChaosRow], cells: &[TakeoverCell]) -> Vec<String> {
    let mut violations = Vec::new();
    for r in rows {
        let at = format!("{}/{}", r.scenario, r.scheme.label());
        violations.extend(r.report.violations.iter().map(|v| format!("{at}: {v}")));
    }
    for c in cells {
        for (label, arm) in c.arms() {
            let at = format!("takeover/{}/{label}", c.scheme.label());
            violations.extend(arm.violations.iter().map(|v| format!("{at}: {v}")));
        }
    }
    violations
}

/// Warm-standby takeover experiment: for every heartbeat scheme the
/// same take-over storm runs without replication and with it, repeated
/// across a few seeds per arm (replica traffic perturbs the lossy
/// network's draw stream, so one paired seed is not a fair comparison).
/// The headline claim is that replication shrinks the post-crash
/// re-learn window (heirs resume with pre-crash knowledge) and carries
/// the adopted zone's matchmaking aggregate through the crash, at a
/// bounded heartbeat-traffic premium.
pub fn takeover_suite(scale: Scale, seed: u64) -> Vec<TakeoverCell> {
    let (nodes, settle, repeats) = match scale {
        Scale::Paper => (60, 300.0, 5u64),
        Scale::Quick => (40, 120.0, 3u64),
    };
    let mut configs = Vec::new();
    for scheme in HeartbeatScheme::ALL {
        for replicated in [false, true] {
            for rep in 0..repeats {
                configs.push(storm_schedule(
                    scheme,
                    seed + rep,
                    nodes,
                    settle,
                    replicated,
                ));
            }
        }
    }
    let reports = parallel_map(configs, |s| run_storm(&s));
    HeartbeatScheme::ALL
        .iter()
        .zip(reports.chunks(2 * repeats as usize))
        .map(|(&scheme, pair)| {
            let (vanilla, replicated) = pair.split_at(repeats as usize);
            TakeoverCell {
                scheme,
                vanilla: PooledArm::pooled(vanilla),
                replicated: PooledArm::pooled(replicated),
            }
        })
        .collect()
}

/// One arm's [`crate::scenarios::takeover_storm`] schedule, resized.
fn storm_schedule(
    scheme: HeartbeatScheme,
    seed: u64,
    nodes: usize,
    settle_time: f64,
    replicated: bool,
) -> FaultSchedule {
    let mut s = crate::scenarios::takeover_storm(seed);
    s.scheme = scheme.label().to_ascii_lowercase();
    s.nodes = nodes;
    s.settle_time = settle_time;
    s.replication = replicated.then(|| "standby".to_string());
    s
}

/// One take-over storm through the schedule executor. In the
/// replicated arm every owner publishes a stand-in scheduler-aggregate
/// slice (see `CanSim::set_agg_slice`) on the standing overlay, so
/// promotions can be audited for carrying matchmaking state: one
/// five-word slot kept well-formed (free <= nodes, pressured <= nodes)
/// so the agg-slice oracle stays quiet.
fn run_storm(schedule: &FaultSchedule) -> ScheduleReport {
    let (mut sim, rng) = dst::bootstrap(schedule);
    if schedule.replication.is_some() {
        for id in sim.members() {
            sim.set_agg_slice(id, vec![4 + u64::from(id.0 % 3), 4, 2, 1, 0]);
        }
    }
    dst::run_faults(schedule, sim, rng)
}

// --------------------------------------------------------------- Detector

/// Seed shared by every detector-suite run.
pub const DETECTOR_SEED: u64 = 71;

/// Measurements of one failure-detector arm in a [`DetectorCell`].
#[derive(Debug, Clone, PartialEq)]
pub struct DetectorArm {
    /// Detection rule under test.
    pub mode: DetectorMode,
    /// The simulator's counters at the end of the arm: suspicions
    /// (adaptive only — the fixed rule has no suspicion phase), probe
    /// requests, live and false expulsions (of nodes that were *not*
    /// frozen — what a jittery link tricks the detector into),
    /// revivals and the detection lag.
    pub counters: CanCounters,
    /// Integral of directed broken links over the run, link-seconds.
    pub broken_link_seconds: f64,
    /// Keepalives received from already-expelled senders.
    pub stale_keepalives: u64,
}

/// One cell of the detector sweep: both detection rules under the same
/// seed, link stress, and freeze scenario.
#[derive(Debug, Clone)]
pub struct DetectorCell {
    /// Drop probability injected on each victim's ward→target links
    /// (0 = clean network).
    pub link_stress: f64,
    /// Freeze length in seconds (0 = nobody freezes). Compare against
    /// the 150 s fail timeout: short freezes must *not* be expelled.
    pub freeze_secs: f64,
    /// Fixed-timeout arm.
    pub fixed: DetectorArm,
    /// Adaptive suspicion-pipeline arm.
    pub adaptive: DetectorArm,
}

impl DetectorCell {
    /// The two arms in table order.
    pub fn arms(&self) -> [&DetectorArm; 2] {
        [&self.fixed, &self.adaptive]
    }
}

/// What fails a detector sweep, one line per broken claim: the
/// adaptive rule expelling more live non-frozen nodes than the fixed
/// rule in some cell, or a real failure — a freeze past the 150 s fail
/// timeout, which both rules must catch and both must revive after the
/// thaw — going unexpelled or unrevived.
pub fn detector_regressions(cells: &[DetectorCell]) -> Vec<String> {
    let mut regressions = Vec::new();
    for c in cells {
        let at = format!("stress {:.1} freeze {:.0}", c.link_stress, c.freeze_secs);
        if c.adaptive.counters.false_expulsions > c.fixed.counters.false_expulsions {
            regressions.push(format!(
                "{at}: adaptive false positives {} exceed fixed {}",
                c.adaptive.counters.false_expulsions, c.fixed.counters.false_expulsions
            ));
        }
        if c.freeze_secs > 150.0 {
            for arm in c.arms() {
                let rule = arm.mode.label();
                if arm.counters.live_expulsions == 0 {
                    regressions.push(format!("{at}: {rule} rule missed a real failure"));
                } else if arm.counters.revivals == 0 {
                    regressions.push(format!("{at}: {rule} rule never revived the victims"));
                }
            }
        }
    }
    regressions
}

/// Runs one detector arm: grow, settle, degrade the ward links of a
/// few victims (asymmetric — only their outbound heartbeats suffer),
/// freeze another group mid-stress, then let the overlay recover.
fn run_detector_arm(
    mode: DetectorMode,
    link_stress: f64,
    freeze_secs: f64,
    nodes: usize,
    stress_rounds: usize,
    seed: u64,
) -> DetectorArm {
    // The fault tables' skeleton (3-d adaptive, 60 s heartbeats, 150 s
    // timeout), settled for five periods, detector armed.
    let mut schedule = crate::scenarios::base(seed);
    schedule.nodes = nodes;
    schedule.settle_time = 5.0 * schedule.heartbeat_period;
    schedule.detector = Some(mode.label().to_string());
    let period = schedule.heartbeat_period;
    let (mut sim, _) = dst::bootstrap(&schedule);
    let mut victim_rng = SimRng::sub_stream(seed, 0x71C7);

    let t0 = sim.now();
    let stress_end = t0 + stress_rounds as f64 * period;
    let members = sim.members();
    // Victim selection is shared by both arms (same sub-stream, same
    // member set at t0), so the two rules face the identical scenario.
    let mut pool = members.clone();
    let mut pick = |pool: &mut Vec<crate::types::NodeId>, n: usize| {
        let mut out = Vec::with_capacity(n);
        for _ in 0..n.min(pool.len()) {
            out.push(pool.swap_remove(victim_rng.below(pool.len())));
        }
        out
    };
    let jitter_victims = pick(&mut pool, (members.len() / 6).max(2));
    let freeze_victims = pick(&mut pool, 2);
    if link_stress > 0.0 {
        for &v in &jitter_victims {
            let pairs: Vec<(u32, u32)> = sim
                .takeover_targets(v)
                .into_iter()
                .map(|t| (v.0, t.0))
                .collect();
            if pairs.is_empty() {
                continue;
            }
            sim.network_mut().add_degrade(LinkDegrade::new(
                pairs,
                link_stress,
                period / 2.0,
                t0,
                stress_end,
            ));
        }
    }

    // Drive period by period, freezing the freeze wave two rounds in
    // and integrating the broken-link count as we go.
    let freeze_at = t0 + 2.0 * period;
    let mut frozen = false;
    let recovery_end = stress_end + 20.0 * period;
    let mut t = t0;
    let mut broken_link_seconds = 0.0;
    while t < recovery_end {
        t += period;
        if freeze_secs > 0.0 && !frozen && t >= freeze_at {
            for &v in &freeze_victims {
                if sim.is_member(v) {
                    sim.freeze(v, freeze_secs);
                }
            }
            frozen = true;
        }
        sim.advance_to(t);
        broken_link_seconds += sim.broken_links() as f64 * period;
    }

    DetectorArm {
        mode,
        counters: *sim.counters(),
        broken_link_seconds,
        stale_keepalives: sim.accounting().stale_keepalives,
    }
}

/// Failure-detector comparison sweep (jitter × freeze): for every cell
/// the *same* scenario runs once under the fixed-timeout rule and once
/// under the adaptive suspicion pipeline. The headline claim is that
/// adaptive+indirect strictly reduces false-positive expulsions under
/// asymmetric link stress while never missing a real (long-freeze)
/// failure.
pub fn detector_suite(scale: Scale, seed: u64) -> Vec<DetectorCell> {
    let (nodes, stress_rounds, stresses, freezes): (usize, usize, Vec<f64>, Vec<f64>) = match scale
    {
        // Freeze levels bracket the 150 s fail timeout: 90 s must be
        // tolerated, 300 s must be expelled and revived.
        Scale::Paper => (48, 20, vec![0.0, 0.4, 0.8], vec![0.0, 90.0, 300.0]),
        Scale::Quick => (24, 10, vec![0.0, 0.8], vec![0.0, 300.0]),
    };
    let mut configs = Vec::new();
    for &stress in &stresses {
        for &freeze in &freezes {
            for mode in [DetectorMode::Fixed, DetectorMode::Adaptive] {
                configs.push((mode, stress, freeze));
            }
        }
    }
    let arms = parallel_map(configs.clone(), move |(mode, stress, freeze)| {
        run_detector_arm(mode, stress, freeze, nodes, stress_rounds, seed)
    });
    configs
        .chunks(2)
        .zip(arms.chunks(2))
        .map(|(cfg, pair)| DetectorCell {
            link_stress: cfg[0].1,
            freeze_secs: cfg[0].2,
            fixed: pair[0].clone(),
            adaptive: pair[1].clone(),
        })
        .collect()
}

/// One crash-recovery measurement: a scheduler run with and without
/// fail-stop node crashes.
#[derive(Debug, Clone)]
pub struct CrashRecoveryCell {
    /// Scheduler measured.
    pub choice: SchedulerChoice,
    /// Mean wait with no faults, seconds.
    pub calm_mean_wait: f64,
    /// Mean wait under crashes (survivors only), seconds.
    pub chaos_mean_wait: f64,
    /// Jobs that reached completion.
    pub completed: usize,
    /// Crash/recovery accounting of the chaos run.
    pub stats: RecoveryStats,
}

/// Crash-safe job recovery suite: each scheduler under frequent
/// fail-stop crashes, with the job-conservation ledger armed (the run
/// panics if any job is lost or double-completed).
pub fn crash_recovery_suite(scale: Scale) -> Vec<CrashRecoveryCell> {
    let scenario = scenario_for(scale);
    let mean_interval = match scale {
        Scale::Paper => 600.0,
        Scale::Quick => 400.0,
    };
    let chaos = CrashChaosConfig::new(mean_interval);
    let configs: Vec<SchedulerChoice> = SchedulerChoice::ALL.to_vec();
    parallel_map(configs, move |choice| {
        let calm = run_load_balance(&scenario, choice);
        let stormy = run_load_balance_chaos(&scenario, choice, &chaos);
        let stats = stormy
            .recovery
            .clone()
            .expect("chaos run reports recovery stats");
        CrashRecoveryCell {
            choice,
            calm_mean_wait: calm.mean_wait(),
            chaos_mean_wait: stormy.mean_wait(),
            completed: stormy.wait_times.len(),
            stats,
        }
    })
}

// ------------------------------------------------------------ replication

/// A replicated statistic: mean ± population stddev over seeds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Replicated {
    /// Mean across replications.
    pub mean: f64,
    /// Population standard deviation across replications.
    pub stddev: f64,
    /// Number of replications.
    pub n: usize,
}

impl Replicated {
    fn from_samples(xs: &[f64]) -> Self {
        let s = pgrid_metrics::Summary::from_iter(xs.iter().copied());
        Replicated {
            mean: s.mean(),
            stddev: s.stddev(),
            n: xs.len(),
        }
    }
}

impl std::fmt::Display for Replicated {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.1} ± {:.1}", self.mean, self.stddev)
    }
}

/// Replicated headline statistics of one load-balancing configuration.
#[derive(Debug, Clone)]
pub struct ReplicatedWaits {
    /// Scheduler measured.
    pub scheduler: SchedulerChoice,
    /// Percentage of jobs with zero wait.
    pub zero_wait_pct: Replicated,
    /// Mean wait time, seconds.
    pub mean_wait: Replicated,
    /// 99th-percentile wait, seconds.
    pub p99_wait: Replicated,
}

/// Runs the same scenario under every scheduler across `seeds`
/// independent seeds, reporting mean ± stddev of the headline
/// statistics — quantifies how much of a figure's shape is seed noise.
pub fn replicate_waits(base: &LoadBalanceScenario, seeds: &[u64]) -> Vec<ReplicatedWaits> {
    assert!(!seeds.is_empty());
    let mut configs = Vec::new();
    for &choice in &SchedulerChoice::ALL {
        for &seed in seeds {
            configs.push((choice, base.clone().with_seed(seed)));
        }
    }
    let results = parallel_map(configs, |(choice, sc)| {
        let r = run_load_balance(&sc, choice);
        let cdf = r.cdf();
        (
            choice,
            100.0 * cdf.fraction_zero(),
            r.mean_wait(),
            cdf.quantile(0.99),
        )
    });
    SchedulerChoice::ALL
        .iter()
        .map(|&choice| {
            let rows: Vec<&(SchedulerChoice, f64, f64, f64)> =
                results.iter().filter(|(c, ..)| *c == choice).collect();
            ReplicatedWaits {
                scheduler: choice,
                zero_wait_pct: Replicated::from_samples(
                    &rows.iter().map(|r| r.1).collect::<Vec<_>>(),
                ),
                mean_wait: Replicated::from_samples(&rows.iter().map(|r| r.2).collect::<Vec<_>>()),
                p99_wait: Replicated::from_samples(&rows.iter().map(|r| r.3).collect::<Vec<_>>()),
            }
        })
        .collect()
}

/// Replicated Figure 7 steady-state broken-link levels.
pub fn replicate_broken_links(
    dims: usize,
    nodes: usize,
    duration: f64,
    seeds: &[u64],
) -> Vec<(HeartbeatScheme, Replicated)> {
    let mut configs = Vec::new();
    for scheme in HeartbeatScheme::ALL {
        for &seed in seeds {
            let mut cfg = ChurnConfig::new(dims, scheme, nodes).high_churn();
            cfg.stage2_duration = duration;
            cfg.sample_interval = (duration / 16.0).max(50.0);
            cfg.seed = seed;
            configs.push(cfg);
        }
    }
    let results = parallel_map(configs, |cfg| {
        let scheme = cfg.scheme;
        let r = run_churn(&cfg, uniform_coords(cfg.dims));
        (scheme, r.steady_broken_links())
    });
    HeartbeatScheme::ALL
        .iter()
        .map(|&scheme| {
            let xs: Vec<f64> = results
                .iter()
                .filter(|(s, _)| *s == scheme)
                .map(|(_, b)| *b)
                .collect();
            (scheme, Replicated::from_samples(&xs))
        })
        .collect()
}

/// Least-squares exponent of `y ~ x^b` (log–log regression slope):
/// used to verify the paper's O(d) / O(d²) scaling claims from Fig 8
/// data.
pub fn scaling_exponent(points: &[(f64, f64)]) -> f64 {
    assert!(points.len() >= 2);
    let n = points.len() as f64;
    let (mut sx, mut sy, mut sxx, mut sxy) = (0.0, 0.0, 0.0, 0.0);
    for &(x, y) in points {
        assert!(x > 0.0 && y > 0.0, "log-log fit needs positive data");
        let lx = x.ln();
        let ly = y.ln();
        sx += lx;
        sy += ly;
        sxx += lx * lx;
        sxy += lx * ly;
    }
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

// ---------------------------------------------------------------- Scenarios

/// Seed shared by every scenario-suite run.
pub const SCENARIO_SEED: u64 = 83;

/// Wait-time effect of a scenario's arrival shaping on the workload
/// layer: the same scaled-down load-balancing run (can-het), once with
/// the paper's homogeneous Poisson arrivals and once with the
/// scenario's rate windows installed.
#[derive(Debug, Clone, PartialEq)]
pub struct WaitShapingDelta {
    /// Mean job wait, unshaped arrivals (seconds).
    pub baseline_mean: f64,
    /// Mean job wait with the scenario's rate windows (seconds).
    pub shaped_mean: f64,
    /// 99th-percentile wait, unshaped (seconds).
    pub baseline_p99: f64,
    /// 99th-percentile wait, shaped (seconds).
    pub shaped_p99: f64,
}

/// Vanilla-vs-overload-controlled comparison at equal offered load:
/// the congestion-collapse half of the resilience table. Both arms run
/// the same sustained above-capacity arrival stream; only the
/// controlled arm has bounded queues, admission control, and retry
/// budgets armed.
#[derive(Debug, Clone, PartialEq)]
pub struct OverloadDelta {
    /// Completions per 1000 s of makespan, queues unbounded.
    pub vanilla_goodput: f64,
    /// Completions per 1000 s of makespan, overload control armed.
    pub controlled_goodput: f64,
    /// Fraction of submitted jobs the controlled arm shed.
    pub shed_rate: f64,
    /// Push attempts per admission chain in the controlled arm.
    pub retry_amplification: f64,
    /// 99th-percentile wait, unbounded queues (seconds).
    pub vanilla_p99: f64,
    /// 99th-percentile wait, overload control armed (seconds).
    pub controlled_p99: f64,
}

/// One row of the scenario resilience table: one named scenario run
/// under every heartbeat scheme (repeat seeds pooled per arm), plus the
/// workload-layer wait delta for scenarios that shape arrivals.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioCell {
    /// Registry name of the scenario.
    pub scenario: &'static str,
    /// One pooled arm per heartbeat scheme, in `HeartbeatScheme::ALL`
    /// order.
    pub arms: Vec<(HeartbeatScheme, PooledArm)>,
    /// Shaped-vs-baseline wait comparison (`None` when the scenario
    /// does not modulate arrivals).
    pub wait_delta: Option<WaitShapingDelta>,
    /// Overload comparison (`None` unless the scenario arms overload
    /// control).
    pub overload: Option<OverloadDelta>,
}

/// What fails a scenario run: every oracle violation of every arm,
/// named by its scenario and scheme, and every overload comparison the
/// controlled arm does not win.
pub fn scenario_violations(cells: &[ScenarioCell]) -> Vec<String> {
    let mut violations = Vec::new();
    for c in cells {
        for (scheme, arm) in &c.arms {
            let at = format!("{}/{}", c.scenario, scheme.label());
            violations.extend(arm.violations.iter().map(|v| format!("{at}: {v}")));
        }
    }
    for c in cells {
        if let Some(o) = &c.overload {
            if o.controlled_goodput <= o.vanilla_goodput {
                violations.push(format!(
                    "{}: overload control did not improve goodput ({:.2} <= {:.2} jobs/1000s)",
                    c.scenario, o.controlled_goodput, o.vanilla_goodput
                ));
            }
        }
    }
    violations
}

fn p99(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut xs = samples.to_vec();
    xs.sort_by(f64::total_cmp);
    xs[((xs.len() - 1) as f64 * 0.99).round() as usize]
}

/// The scaled-down load-balancing run both workload-layer comparisons
/// of the scenario table start from.
fn comparison_base(scale: Scale, seed: u64) -> LoadBalanceScenario {
    let factor = match scale {
        Scale::Paper => 10,
        Scale::Quick => 20,
    };
    default_scenario().scaled_down(factor).with_seed(seed)
}

/// Runs the overload comparison for scenarios carrying an `overload`
/// record: the same sustained 3x-over-capacity can-het run, once with
/// unbounded queues (vanilla) and once with the record's bounds armed.
pub fn overload_delta(spec: &ScenarioSpec, scale: Scale, seed: u64) -> Option<OverloadDelta> {
    let rec = spec.compile(seed).overload?;
    let base = comparison_base(scale, seed);
    // Offered load sustained at ~3x the calibrated arrival rate — the
    // congestion-collapse regime where unbounded queues grow without
    // limit until the last arrival.
    let over = base
        .clone()
        .with_interarrival(base.job_gen.mean_interarrival / 3.0);
    let cfg = OverloadConfig {
        queue_slots: Some(rec.slots),
        max_queue_wait: Some(rec.wait),
        retry_burst: rec.burst,
        retry_refill: rec.refill,
    };
    let vanilla = run_load_balance(&over, SchedulerChoice::CanHet);
    let controlled = run_load_balance_overload(&over, SchedulerChoice::CanHet, None, &cfg);
    let stats = controlled
        .overload
        .clone()
        .expect("armed run reports overload stats");
    let goodput = |r: &SimResult| {
        if r.makespan > 0.0 {
            1000.0 * r.wait_times.len() as f64 / r.makespan
        } else {
            0.0
        }
    };
    let submitted = over.jobs as f64;
    Some(OverloadDelta {
        vanilla_goodput: goodput(&vanilla),
        controlled_goodput: goodput(&controlled),
        shed_rate: stats.shed_total() as f64 / submitted,
        retry_amplification: stats.retry_amplification(),
        vanilla_p99: p99(&vanilla.wait_times),
        controlled_p99: p99(&controlled.wait_times),
    })
}

fn wait_shaping_delta(spec: &ScenarioSpec, scale: Scale, seed: u64) -> Option<WaitShapingDelta> {
    let shape = spec.arrival_shape(seed)?;
    let base = comparison_base(scale, seed);
    let shaped = base.clone().with_arrival_shape(shape);
    let a = run_load_balance(&base, SchedulerChoice::CanHet);
    let b = run_load_balance(&shaped, SchedulerChoice::CanHet);
    Some(WaitShapingDelta {
        baseline_mean: a.mean_wait(),
        shaped_mean: b.mean_wait(),
        baseline_p99: p99(&a.wait_times),
        shaped_p99: p99(&b.wait_times),
    })
}

/// Scenario resilience suite: each of `specs` (a subset of
/// [`crate::scenarios::REGISTRY`]; the `--scenario` filter lands here)
/// compiled per scheme and seed, run through the full DST oracle
/// harness, pooled across repeat seeds.
pub fn scenario_suite_over(
    scale: Scale,
    seed: u64,
    specs: &[&'static ScenarioSpec],
) -> Vec<ScenarioCell> {
    let (nodes, repeats) = match scale {
        Scale::Paper => (48, 3u64),
        Scale::Quick => (32, 2u64),
    };
    let mut configs = Vec::new();
    for spec in specs {
        for scheme in HeartbeatScheme::ALL {
            for rep in 0..repeats {
                let mut s =
                    spec.compile_for(&scheme.label().to_ascii_lowercase(), seed.wrapping_add(rep));
                s.nodes = nodes;
                configs.push(s);
            }
        }
    }
    let reports = parallel_map(configs, |s| run_schedule(&s));
    let per_arm = repeats as usize;
    let per_cell = HeartbeatScheme::ALL.len() * per_arm;
    specs
        .iter()
        .zip(reports.chunks(per_cell))
        .map(|(spec, cell)| ScenarioCell {
            scenario: spec.name,
            arms: HeartbeatScheme::ALL
                .iter()
                .zip(cell.chunks(per_arm))
                .map(|(&scheme, arm)| (scheme, PooledArm::pooled(arm)))
                .collect(),
            wait_delta: wait_shaping_delta(spec, scale, seed),
            overload: overload_delta(spec, scale, seed),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_exponent_recovers_powers() {
        let linear: Vec<(f64, f64)> = (1..=10).map(|i| (i as f64, 3.0 * i as f64)).collect();
        assert!((scaling_exponent(&linear) - 1.0).abs() < 1e-9);
        let quad: Vec<(f64, f64)> = (1..=10).map(|i| (i as f64, 0.5 * (i * i) as f64)).collect();
        assert!((scaling_exponent(&quad) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn parallel_map_preserves_order() {
        let out = parallel_map((0..64).collect::<Vec<i32>>(), |x| x * 2);
        assert_eq!(out, (0..64).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn quick_scenario_suite_pools_rack_storm_cleanly() {
        let specs = crate::scenarios::matching("rack-storm");
        let cells = scenario_suite_over(Scale::Quick, SCENARIO_SEED, &specs);
        assert_eq!(cells.len(), 1);
        let cell = &cells[0];
        assert_eq!(cell.arms.len(), HeartbeatScheme::ALL.len());
        for (scheme, arm) in &cell.arms {
            assert!(
                arm.violations.is_empty(),
                "{scheme:?}: {:?}",
                arm.violations
            );
            assert!(arm.takeovers > 0, "{scheme:?}: the storm must crash nodes");
        }
        assert!(
            cell.arms.iter().any(|(_, a)| a.replica_promotions > 0),
            "rack-storm arms warm standby; some heir must promote a replica"
        );
        assert!(
            cell.wait_delta.is_none(),
            "rack-storm does not shape arrivals"
        );
    }

    #[test]
    fn spike_scenario_reports_a_wait_shaping_delta() {
        let spec = crate::scenarios::find("flash-crowd-spike").unwrap();
        let delta = wait_shaping_delta(spec, Scale::Quick, SCENARIO_SEED)
            .expect("spike scenarios shape arrivals");
        assert!(delta.baseline_mean.is_finite() && delta.shaped_mean.is_finite());
        assert_ne!(
            delta.baseline_mean, delta.shaped_mean,
            "a 2.5x submission window must move the wait distribution"
        );
        assert!(delta.shaped_p99 >= 0.0 && delta.baseline_p99 >= 0.0);
    }

    #[test]
    fn overload_control_beats_collapse_at_equal_offered_load() {
        let spec = crate::scenarios::find("overload-collapse").unwrap();
        let delta = overload_delta(spec, Scale::Quick, SCENARIO_SEED)
            .expect("overload-collapse arms overload control");
        assert!(
            delta.controlled_goodput > delta.vanilla_goodput,
            "bounded queues must beat collapse: controlled {:.2} vs vanilla {:.2} jobs/1000s",
            delta.controlled_goodput,
            delta.vanilla_goodput
        );
        assert!(
            delta.shed_rate > 0.0 && delta.shed_rate < 1.0,
            "3x offered load must shed something, not everything: {}",
            delta.shed_rate
        );
        assert!(
            delta.retry_amplification >= 1.0,
            "amplification below one attempt per chain: {}",
            delta.retry_amplification
        );
        assert!(
            delta.controlled_p99 <= delta.vanilla_p99,
            "shedding must not worsen tail wait: {:.1} vs {:.1}",
            delta.controlled_p99,
            delta.vanilla_p99
        );
        // Scenarios without an overload record report no delta.
        let rack = crate::scenarios::find("rack-storm").unwrap();
        assert!(overload_delta(rack, Scale::Quick, SCENARIO_SEED).is_none());
    }

    #[test]
    fn detector_sweep_separates_adaptive_from_fixed() {
        let cells = detector_suite(Scale::Quick, DETECTOR_SEED);
        assert_eq!(cells.len(), 4, "2 stress × 2 freeze levels");
        // Adaptive never expels more live nodes than fixed under the
        // identical scenario; a freeze past the fail timeout is a real
        // failure both rules expel and revive through the epoch fence.
        assert_eq!(detector_regressions(&cells), Vec::<String>::new());
        for cell in cells
            .iter()
            .filter(|c| c.link_stress == 0.0 && c.freeze_secs == 0.0)
        {
            for arm in cell.arms() {
                assert_eq!(arm.counters.suspicions, 0, "clean cell stays silent");
                assert_eq!(arm.counters.live_expulsions, 0);
            }
        }
        // Under asymmetric link stress the fixed timeout must produce
        // false positives somewhere that the adaptive rule avoids —
        // the experiment's headline separation.
        let stressed: Vec<&DetectorCell> = cells.iter().filter(|c| c.link_stress > 0.0).collect();
        assert!(
            stressed
                .iter()
                .any(|c| c.fixed.counters.false_expulsions > 0),
            "link stress never tricked the fixed timeout: {stressed:?}"
        );
        assert!(
            stressed
                .iter()
                .any(|c| c.adaptive.counters.false_expulsions < c.fixed.counters.false_expulsions),
            "adaptive never strictly beat fixed: {stressed:?}"
        );
    }

    /// One quick-scale chaos-table run (40 nodes, 120 s settle).
    fn quick_chaos(scenario: &str, scheme: HeartbeatScheme, seed: u64) -> ScheduleReport {
        let spec = crate::scenarios::find(scenario).expect("registered scenario");
        let mut rows = chaos_rows(&[spec], &[scheme], Scale::Quick, seed, None).unwrap();
        rows.remove(0).report
    }

    /// One quick-scale take-over storm arm.
    fn quick_storm(scheme: HeartbeatScheme, seed: u64, replicated: bool) -> ScheduleReport {
        run_storm(&storm_schedule(scheme, seed, 40, 120.0, replicated))
    }

    #[test]
    fn adaptive_survives_every_scenario() {
        let trio = crate::scenarios::chaos_trio();
        for row in chaos_rows(&trio, &[HeartbeatScheme::Adaptive], Scale::Quick, 5, None).unwrap() {
            assert!(
                row.report.violations.is_empty(),
                "{}: {:?}",
                row.scenario,
                row.report.violations
            );
            assert_eq!(row.report.broken_after, 0, "{}", row.scenario);
        }
    }

    #[test]
    fn faults_actually_fire() {
        let report = quick_chaos("flash-crowd", HeartbeatScheme::Compact, 7);
        assert!(report.broken_peak > 0, "a crash flash crowd breaks links");
        let report = quick_chaos("rolling-partition", HeartbeatScheme::Vanilla, 7);
        assert!(report.partition_drops > 0, "partitions drop traffic");
        let report = quick_chaos("lossy-churn", HeartbeatScheme::Adaptive, 7);
        assert!(report.dropped_messages > 0, "loss drops traffic");
        assert!(
            report.counters.frozen_drops > 0,
            "freezes silently eat messages"
        );
    }

    #[test]
    fn non_healing_schemes_report_without_violating() {
        // Compact decay is expected (paper Figure 7), not a violation.
        let report = quick_chaos("rolling-partition", HeartbeatScheme::Compact, 13);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert!(
            report.broken_after > 0,
            "compact cannot rebuild expired links"
        );
    }

    #[test]
    fn takeover_storm_replication_shrinks_the_relearn_window() {
        let vanilla = quick_storm(HeartbeatScheme::Adaptive, 17, false);
        let replicated = quick_storm(HeartbeatScheme::Adaptive, 17, true);
        assert!(vanilla.takeovers > 0, "the storm must force take-overs");
        assert_eq!(
            vanilla.counters.replica_promotions, 0,
            "disarmed run cannot promote"
        );
        assert!(
            replicated.counters.replica_promotions > 0,
            "armed heirs promote warm replicas: {replicated:?}"
        );
        assert!(
            replicated.agg_promotions > 0,
            "some promotion must carry the adopted zone's aggregate slice"
        );
        let v = vanilla.relearn_mean_heartbeats.expect("vanilla resolves");
        let r = replicated
            .relearn_mean_heartbeats
            .expect("replicated resolves");
        assert!(
            r < v,
            "warm replicas must shrink the re-learn window: replicated {r} vs vanilla {v}"
        );
        assert!(
            replicated.violations.is_empty(),
            "{:?}",
            replicated.violations
        );
    }

    #[test]
    fn correlated_crashes_hit_second_choice_heirs() {
        // Owner+heir die together: promotions still happen (from the
        // second-choice heir's replica) and the deterministic replay
        // holds.
        let a = quick_storm(HeartbeatScheme::Compact, 23, true);
        let b = quick_storm(HeartbeatScheme::Compact, 23, true);
        assert_eq!(a, b, "takeover storm must replay bit-identically");
        assert!(a.takeovers > 0);
    }

    #[test]
    fn ghost_keepalive_pingback_heals_stale_cover_tears() {
        // Regression: at paper scale, seeds 53 and 55 each left one
        // permanent broken link in the adaptive replicated arm — a
        // dropped split announce let a keepalive-refreshed record's
        // stale zone bits *cover* the joiner's region, so no boundary
        // gap ever opened and adaptive probing stayed blind while the
        // hidden joiner's keepalives were discarded as ghost traffic.
        // The unknown-sender ping-back (Keepalive → ProbePing → Zone)
        // is what heals these; without it this test fails.
        for seed in [53, 55] {
            let s = storm_schedule(HeartbeatScheme::Adaptive, seed, 60, 300.0, true);
            let report = run_storm(&s);
            assert!(
                report.violations.is_empty(),
                "seed {seed}: {:?}",
                report.violations
            );
            assert!(report.takeovers > 0, "seed {seed}: storm must take over");
        }
    }

    #[test]
    fn quick_takeover_suite_shows_replication_payoff() {
        let cells = takeover_suite(Scale::Quick, TAKEOVER_SEED);
        assert_eq!(cells.len(), 3, "one cell per heartbeat scheme");
        for cell in &cells {
            assert!(
                cell.vanilla.takeovers > 0,
                "{:?}: storm too mild",
                cell.scheme
            );
            assert_eq!(
                cell.vanilla.replica_promotions, 0,
                "{:?}: vanilla cannot promote",
                cell.scheme
            );
            assert!(
                cell.replicated.replica_promotions > 0,
                "{:?}: no promotions",
                cell.scheme
            );
            assert!(
                cell.replicated.agg_promotions > 0,
                "{:?}: no promotion carried the aggregate slice",
                cell.scheme
            );
            assert!(
                cell.replicated.violations.is_empty(),
                "{:?}: {:?}",
                cell.scheme,
                cell.replicated.violations
            );
        }
        // Headline separation: somewhere the replicated arm strictly
        // shrinks the re-learn window, and pooled over every scheme and
        // repeat the replicated arms re-learn no slower than vanilla.
        // Per-cell misdirection and unresolved counts stay unasserted —
        // replica traffic shifts the lossy network's draw stream, so
        // individual cells carry trajectory noise either way.
        assert!(
            cells.iter().any(|c| {
                match (
                    c.replicated.relearn_mean_heartbeats,
                    c.vanilla.relearn_mean_heartbeats,
                ) {
                    (Some(r), Some(v)) => r < v,
                    _ => false,
                }
            }),
            "replication never shrank the re-learn window: {cells:#?}"
        );
        let pooled = |pick: fn(&TakeoverCell) -> &PooledArm| {
            relearn_mean(cells.iter().map(|c| {
                let arm = pick(c);
                (arm.relearn_mean_heartbeats, arm.relearn_resolved)
            }))
            .unwrap_or(0.0)
        };
        let vanilla_mean = pooled(|c| &c.vanilla);
        let replicated_mean = pooled(|c| &c.replicated);
        assert!(
            replicated_mean <= vanilla_mean,
            "pooled re-learn window grew under replication: \
             {replicated_mean:.3} vs {vanilla_mean:.3} heartbeats: {cells:#?}"
        );
    }

    #[test]
    fn promotion_carries_real_aitable_bits_across_layers() {
        use crate::can::{CanSim, ProtocolConfig, ReplicationConfig};
        use crate::sched::{AiGrouping, AiTable, StaticGrid};
        use crate::types::{DimensionLayout, NodeId};
        use crate::workload::nodegen::{generate_nodes, NodeGenConfig};

        // Scheduler layer: a static grid with a refreshed aggregate
        // table — the ground truth for zone-local matchmaking state.
        let layout = DimensionLayout::with_dims(8);
        let pop = generate_nodes(&NodeGenConfig::paper_defaults(1), 24, 9);
        let grid = StaticGrid::build(layout, pop, 9);
        let mut ai = AiTable::new(&grid, AiGrouping::PerCe);
        ai.refresh(&grid, 0.0);

        // CAN layer: an armed overlay whose owners publish their
        // zone-local aggregate rows as replica payload.
        let proto = ProtocolConfig::new(3, HeartbeatScheme::Compact)
            .with_replication(ReplicationConfig::standby());
        let mut sim = CanSim::new(proto).expect("valid config");
        let mut rng = SimRng::sub_stream(5, 0xC4A5);
        let mut coords = uniform_coords(3);
        let mut ids = Vec::new();
        while ids.len() < 24 {
            if let Ok(id) = sim.join(coords(&mut rng)) {
                ids.push(id);
            }
            sim.advance_to(sim.now() + 1.0);
        }
        for (i, &id) in ids.iter().enumerate() {
            assert!(sim.set_agg_slice(id, ai.local_bits(NodeId(i as u32))));
        }
        sim.advance_to(sim.now() + 240.0); // a few replication rounds
        let victim = ids[7];
        sim.leave(victim, false);
        sim.advance_to(sim.now() + 200.0); // deferred take-over fires
        let rec = sim
            .takeover_log()
            .iter()
            .find(|r| r.departed == victim)
            .expect("crash recorded");
        let carried = rec.replica_agg.as_ref().expect("replica promoted");
        assert_eq!(
            carried,
            &ai.local_bits(NodeId(7)),
            "aggregate bits must survive the crash unchanged"
        );
        let decoded = AiTable::slice_from_bits(carried).expect("well-formed slice");
        assert_eq!(decoded.len(), ai.slot_types().len());
    }

    #[test]
    fn quick_fig7_orders_schemes() {
        let reports = fig7(Scale::Quick);
        assert_eq!(reports.len(), 3);
        let broken: Vec<f64> = reports.iter().map(|r| r.steady_broken_links()).collect();
        // Vanilla (index 0) at most compact (index 1).
        assert!(
            broken[0] <= broken[1] + 1.0,
            "vanilla {} vs compact {}",
            broken[0],
            broken[1]
        );
    }
}
