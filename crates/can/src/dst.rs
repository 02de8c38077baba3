//! The one executor for fault schedules ([`FaultSchedule`]) — fuzzer
//! output, the scenario library, the chaos and take-over tables, corpus
//! traces — with per-heartbeat oracle checks: the CAN half of the DST
//! harness.
//!
//! [`run_schedule`] runs three phases (bootstrap/settle → fault phase
//! → recovery). It evaluates the [`crate::oracles`] at **every
//! heartbeat boundary** from the start of the fault phase to the end
//! of recovery, audits quiescence at the end, and folds the entire
//! observable trajectory (boundary broken-link counts, final zones,
//! fault counters, violations) into an FNV digest so replays can be
//! compared bit for bit.
//!
//! Three RNG sub-streams of the schedule seed drive a run: `0xFA17`
//! message fates, `0xC4A5` coordinates and churn, `0x71C7` victims.

use crate::churn::uniform_coords;
use crate::oracles;
use crate::protocol::{
    CanCounters, CanSim, DetectorConfig, HeartbeatScheme, ProtocolConfig, ReplicationConfig,
};
use crate::routing::route_local;
use pgrid_simcore::dst::{FaultSchedule, Fnv};
use pgrid_simcore::fault::{LinkDegrade, NodeFault, Partition};
use pgrid_simcore::{SimRng, SimTime};
use pgrid_types::NodeId;

/// Cap on recorded step-oracle violations; past this the run keeps
/// going but stops accumulating strings (shrinking only needs one).
const MAX_VIOLATIONS: usize = 24;

/// Parses a heartbeat-scheme label as used in trace files
/// (case-insensitive: traces use `vanilla`, figures use `Vanilla`).
pub fn scheme_from_label(label: &str) -> Option<HeartbeatScheme> {
    HeartbeatScheme::ALL
        .iter()
        .copied()
        .find(|s| s.label().eq_ignore_ascii_case(label))
}

/// Outcome of one schedule execution.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleReport {
    /// Oracle violations, in discovery order (empty on a clean run).
    pub violations: Vec<String>,
    /// Peak directed broken-link count at any heartbeat boundary.
    pub broken_peak: usize,
    /// Directed broken links at the end of recovery.
    pub broken_after: usize,
    /// Nodes with an uncovered boundary region at the end of recovery.
    pub gaps_after: usize,
    /// Seconds after the fault phase ended until a heartbeat boundary
    /// first saw zero broken links (`None` if none did).
    pub recovery_time: Option<f64>,
    /// Alive members at the end.
    pub final_nodes: usize,
    /// Messages dropped by the fault model, all classes.
    pub dropped_messages: u64,
    /// Messages dropped by scheduled partitions.
    pub partition_drops: u64,
    /// The simulator's work and fault counters at the end of the run.
    /// The replication counters among them are folded into no digest,
    /// so an armed fault-free run stays bit-identical to the disarmed
    /// trajectory; replay tests hold them by report equality.
    pub counters: CanCounters,
    /// Heartbeat-scheme traffic from the start of the fault phase,
    /// messages per node per minute (the Figure 8 metric, under faults).
    pub msgs_per_node_min: f64,
    /// Keepalives received from already-evicted senders (ghost traffic).
    pub stale_keepalives: u64,
    /// Promotions whose replica carried a non-empty scheduler-aggregate
    /// slice — the adopted zone's matchmaking state survived the crash.
    pub agg_promotions: usize,
    /// Crash take-overs applied during the run.
    pub takeovers: usize,
    /// Mean re-learn window over resolved take-overs, in heartbeat
    /// periods (`None` when no take-over resolved), polled at heartbeat
    /// boundaries.
    pub relearn_mean_heartbeats: Option<f64>,
    /// Take-overs whose re-learn window resolved.
    pub relearn_resolved: usize,
    /// Take-overs whose actor never regained full coverage of its
    /// adopted zone's neighborhood by the end of the run.
    pub relearn_unresolved: usize,
    /// Post-take-over misdirection rate over the probe panel.
    pub misdirect_rate: f64,
    /// Misdirection probes attempted (8 per take-over).
    pub misdirect_probes: usize,
    /// Misdirection probes that failed or landed on the wrong owner.
    pub misdirect_misses: usize,
    /// FNV-1a digest of the full observable trajectory.
    pub digest: u64,
}

/// Runs one fault schedule end to end, checking the cross-layer
/// oracles at every heartbeat boundary: [`bootstrap`], then
/// [`run_faults`] over the standing overlay.
///
/// Panics if `schedule.scheme` is not a known label or the schedule
/// violates an executor precondition — use
/// [`FaultSchedule::validate`] / [`FaultSchedule::parse`] first.
pub fn run_schedule(schedule: &FaultSchedule) -> ScheduleReport {
    let (sim, rng) = bootstrap(schedule);
    run_faults(schedule, sim, rng)
}

/// The executor's first phase: the protocol the schedule asks for,
/// sequential joins a second apart, the fault-free settle window, then
/// a fresh accounting window. Returns the standing overlay and the
/// `0xC4A5` coordinate stream where the joins left it — the churn of
/// [`run_faults`] continues that stream.
///
/// Public because a caller may stand in for a layer above between the
/// phases: the take-over sweep publishes scheduler-aggregate slices
/// here, which must not happen inside the executor (the slice is part
/// of the replica content hash every replicated digest folds).
pub fn bootstrap(schedule: &FaultSchedule) -> (CanSim, SimRng) {
    let scheme = scheme_from_label(&schedule.scheme)
        .unwrap_or_else(|| panic!("unknown heartbeat scheme `{}`", schedule.scheme));
    let mut proto = ProtocolConfig::new(schedule.dims, scheme);
    proto.heartbeat_period = schedule.heartbeat_period;
    proto.fail_timeout = schedule.fail_timeout;
    proto.loss_seed = pgrid_simcore::rng::sub_seed(schedule.seed, 0xFA17);
    proto.detector = match schedule.detector.as_deref() {
        None => None,
        Some("fixed") => Some(DetectorConfig::fixed()),
        Some("adaptive") => Some(DetectorConfig::adaptive()),
        Some(other) => panic!("unknown detector mode `{other}`"),
    };
    match schedule.replication.as_deref() {
        None => {}
        Some("standby") => proto = proto.with_replication(ReplicationConfig::standby()),
        Some(other) => panic!("unknown replication mode `{other}`"),
    }
    let mut sim = CanSim::new(proto).expect("valid protocol config");
    let mut rng = SimRng::sub_stream(schedule.seed, 0xC4A5);
    let mut coords = uniform_coords(schedule.dims);
    let mut joined = 0;
    while joined < schedule.nodes {
        if sim.join(coords(&mut rng)).is_ok() {
            joined += 1;
        }
        sim.advance_to(sim.now() + 1.0);
    }
    sim.advance_to(sim.now() + schedule.settle_time);
    sim.reset_accounting();
    (sim, rng)
}

/// The fault and recovery phases over a [`bootstrap`]ped overlay: arms
/// the network, interleaves scripted events, churn and per-heartbeat
/// oracle checks until the fault phase ends, then watches the recovery
/// allowance and audits quiescence.
pub fn run_faults(schedule: &FaultSchedule, mut sim: CanSim, mut rng: SimRng) -> ScheduleReport {
    // Lower macro records to primitives up front. The identity for
    // macro-free schedules, so every historical trace and golden
    // digest replays the exact same trajectory.
    let expanded;
    let schedule = if schedule.macros.is_empty() {
        schedule
    } else {
        expanded = schedule.expand();
        &expanded
    };
    let scheme = sim.config().scheme;
    let mut victim_rng = SimRng::sub_stream(schedule.seed, 0x71C7);
    let mut coords = uniform_coords(schedule.dims);

    let mut watch = BoundaryWatch::default();

    // Arm the network.
    let fault_start = sim.now();
    let fault_end = fault_start + schedule.fault_duration;
    for &(class, faults) in &schedule.class_faults {
        sim.network_mut().set_class(class, faults);
    }
    if !schedule.class_faults.is_empty() {
        sim.network_mut().set_window(fault_start, fault_end);
    }
    for window in &schedule.partitions {
        let members = sim.members();
        let count = ((members.len() as f64 * window.fraction).round() as usize)
            .clamp(1, members.len().saturating_sub(2));
        let mut pool: Vec<u32> = members.iter().map(|n| n.0).collect();
        let mut group = Vec::with_capacity(count);
        for _ in 0..count {
            group.push(pool.swap_remove(victim_rng.below(pool.len())));
        }
        sim.network_mut().add_partition(Partition::isolate(
            group,
            fault_start + window.from,
            fault_start + window.until,
        ));
    }
    for window in &schedule.degrades {
        // Sample `pairs` distinct directed member pairs from the victim
        // stream, so a replay degrades the same links.
        let members = sim.members();
        let max_pairs = members.len() * members.len().saturating_sub(1);
        let mut pairs = Vec::new();
        for _ in 0..window.pairs.min(max_pairs) {
            let from = members[victim_rng.below(members.len())].0;
            let mut to = members[victim_rng.below(members.len())].0;
            while to == from {
                to = members[victim_rng.below(members.len())].0;
            }
            pairs.push((from, to));
        }
        sim.network_mut().add_degrade(LinkDegrade::new(
            pairs,
            window.drop,
            window.jitter,
            fault_start + window.from,
            fault_start + window.until,
        ));
    }

    // Fault phase: interleave scripted events, churn, and per-heartbeat
    // oracle checks.
    let min_nodes = (schedule.nodes / 2).max(4);
    let mut events = schedule.events.clone();
    events.reverse(); // pop() yields earliest-first
    let mut next_churn = schedule.churn_gap.map(|g| fault_start + g);
    let mut next_check = fault_start;
    let mut broken_peak = 0usize;
    let mut prev_now = sim.now();
    loop {
        let t_event = events.last().map(|e| fault_start + e.at);
        let t_churn = next_churn.filter(|&t| t < fault_end);
        let due = [t_event, t_churn, Some(next_check)]
            .into_iter()
            .flatten()
            .fold(f64::INFINITY, f64::min);
        if due > fault_end {
            break;
        }
        sim.advance_to(due);
        if sim.now() < prev_now {
            watch.record(format!(
                "time ran backwards: {} after {}",
                sim.now(),
                prev_now
            ));
        }
        prev_now = sim.now();
        if Some(due) == t_event {
            let ev = events.pop().expect("event present");
            apply_fault(&mut sim, ev.fault, &mut victim_rng, &mut coords, min_nodes);
        } else if Some(due) == t_churn {
            let join = sim.len() <= min_nodes || rng.chance(0.5);
            if join {
                let _ = sim.join(coords(&mut rng));
            } else {
                let members = sim.members();
                let victim = members[rng.below(members.len())];
                sim.leave(victim, rng.chance(schedule.graceful_fraction));
            }
            next_churn = Some(due + schedule.churn_gap.expect("churn active"));
        } else {
            broken_peak = broken_peak.max(watch.boundary(&sim, schedule.heartbeat_period));
            next_check += schedule.heartbeat_period;
        }
    }
    sim.advance_to(fault_end);
    broken_peak = broken_peak.max(sim.broken_links());

    // Recovery phase: network healthy again, oracles still on watch.
    let recovery_end = fault_end + schedule.recovery_periods * schedule.heartbeat_period;
    let mut recovery_time = None;
    let mut t = fault_end;
    while t < recovery_end {
        t = (t + schedule.heartbeat_period).min(recovery_end);
        sim.advance_to(t);
        let broken = watch.boundary(&sim, schedule.heartbeat_period);
        if recovery_time.is_none() && broken == 0 {
            recovery_time = Some(t - fault_end);
        }
    }

    // Quiescence audit.
    for msg in oracles::quiescence_violations(&sim, scheme, schedule.recovery_periods) {
        watch.record(msg);
    }
    let BoundaryWatch {
        mut digest,
        violations,
        takeovers,
        ..
    } = watch;

    // Fold the final observable state into the digest (the shared
    // byte sequence in `CanSim::fold_observable_state`).
    sim.fold_observable_state(&mut digest);
    let stale_keepalives = sim.accounting().stale_keepalives;
    for msg in &violations {
        digest.write_str(msg);
    }
    let relearn = takeovers.finish(&sim, schedule.heartbeat_period);

    // Everything below is read after the digest is folded: report
    // columns, never part of the pinned trajectory.
    ScheduleReport {
        broken_peak,
        broken_after: sim.broken_links(),
        gaps_after: sim
            .members()
            .iter()
            .filter(|id| sim.local(**id).is_some_and(|n| n.has_boundary_gap()))
            .count(),
        recovery_time,
        final_nodes: sim.len(),
        dropped_messages: sim.dropped_messages(),
        partition_drops: sim.network().partition_drops(),
        counters: *sim.counters(),
        msgs_per_node_min: sim.accounting().heartbeat_msgs_per_node_min(),
        stale_keepalives,
        agg_promotions: sim
            .takeover_log()
            .iter()
            .filter(|r| r.replica_agg.as_ref().is_some_and(|a| !a.is_empty()))
            .count(),
        takeovers: sim.takeover_log().len(),
        relearn_mean_heartbeats: relearn.mean,
        relearn_resolved: relearn.resolved,
        relearn_unresolved: relearn.unresolved,
        misdirect_rate: if relearn.probes == 0 {
            0.0
        } else {
            relearn.misses as f64 / relearn.probes as f64
        },
        misdirect_probes: relearn.probes,
        misdirect_misses: relearn.misses,
        digest: digest.finish(),
        violations,
    }
}

/// What a run carries from one heartbeat boundary to the next: the
/// trajectory digest, the violations found so far, the two
/// cross-boundary ledgers and the take-over telemetry.
#[derive(Default)]
struct BoundaryWatch {
    digest: Fnv,
    violations: Vec<String>,
    ledger: oracles::EpochLedger,
    replica_ledger: oracles::ReplicaLedger,
    /// Read-only (re-learn windows, misdirection): polling never
    /// perturbs the trajectory, and its stats stay out of the digest
    /// like the replication counters of the report.
    takeovers: TakeoverWatch,
}

impl BoundaryWatch {
    fn record(&mut self, msg: String) {
        if self.violations.len() < MAX_VIOLATIONS {
            self.violations.push(msg);
        }
    }

    /// One heartbeat boundary, fault phase and recovery alike: folds
    /// the broken-link count and the epoch checksum into the digest,
    /// runs every oracle, and returns the broken-link count.
    fn boundary(&mut self, sim: &CanSim, heartbeat_period: f64) -> usize {
        let broken = sim.broken_links();
        self.digest.write_usize(broken);
        self.digest.write_u64(epoch_checksum(sim));
        let mut found = oracles::step_violations(sim);
        found.extend(self.ledger.check(sim));
        found.extend(self.replica_ledger.check(sim));
        for msg in found {
            self.record(msg);
        }
        sim.check_invariants();
        self.takeovers.poll(sim, heartbeat_period);
        broken
    }
}

/// Accumulates the per-take-over robustness metrics by polling the
/// simulator's take-over log at heartbeat boundaries. Read-only:
/// polling never perturbs the trajectory.
#[derive(Debug, Default)]
struct TakeoverWatch {
    seen: usize,
    pending: Vec<(NodeId, crate::geom::Zone, SimTime)>,
    windows: Vec<f64>,
    probes_total: usize,
    probes_misdirected: usize,
}

impl TakeoverWatch {
    /// Ingests new take-over records (probing misdirection once per
    /// record) and retires pending ones whose actor has regained full
    /// knowledge of the adopted zone's current neighborhood.
    fn poll(&mut self, sim: &CanSim, heartbeat_period: f64) {
        let now = sim.now();
        let log = sim.takeover_log();
        for rec in &log[self.seen..] {
            self.pending
                .push((rec.actor, rec.departed_zone.clone(), rec.at));
            // Misdirection probe: route to the adopted zone from a
            // deterministic panel of low-id members.
            let target = rec.departed_zone.center();
            let truth = sim.owner_at(&target);
            let mut sources = sim.members();
            sources.sort();
            for src in sources.into_iter().take(8) {
                self.probes_total += 1;
                let landed = route_local(sim, src, &target).map(|r| r.owner);
                if landed != truth {
                    self.probes_misdirected += 1;
                }
            }
        }
        self.seen = log.len();
        self.pending.retain(|(actor, adopted, at)| {
            if !sim.is_member(*actor) {
                return false; // actor itself gone; window unmeasurable
            }
            let Some(node) = sim.local(*actor) else {
                return false;
            };
            // "Correct placement in the adopted zone": the actor knows
            // every current ground-truth neighbor whose zone abuts the
            // region it adopted — missing entries elsewhere are general
            // overlay healing, not re-learning of the dead owner's
            // neighborhood.
            let settled = sim
                .true_neighbors(*actor)
                .iter()
                .filter(|n| sim.zone(**n).abuts(adopted))
                .all(|n| node.table().contains_key(n));
            if settled {
                self.windows.push(((now - *at) / heartbeat_period).max(0.0));
            }
            !settled
        });
    }

    fn finish(mut self, sim: &CanSim, heartbeat_period: f64) -> RelearnStats {
        self.poll(sim, heartbeat_period);
        RelearnStats {
            mean: (!self.windows.is_empty())
                .then(|| self.windows.iter().sum::<f64>() / self.windows.len() as f64),
            resolved: self.windows.len(),
            unresolved: self.pending.len(),
            probes: self.probes_total,
            misses: self.probes_misdirected,
        }
    }
}

struct RelearnStats {
    mean: Option<f64>,
    resolved: usize,
    unresolved: usize,
    probes: usize,
    misses: usize,
}

/// Wrapping sum of every live claim epoch — members and unrevived
/// zombies alike — folded into the digest at each heartbeat boundary so
/// a replay divergence in epoch fencing is caught at the boundary where
/// it first appears.
fn epoch_checksum(sim: &CanSim) -> u64 {
    let mut sum = 0u64;
    for m in sim.members() {
        sum = sum.wrapping_add(sim.local(m).expect("member has local state").epoch());
    }
    for z in sim.zombie_ids() {
        sum = sum.wrapping_add(sim.zombie(z).expect("listed zombie").epoch());
    }
    sum
}

fn apply_fault(
    sim: &mut CanSim,
    fault: NodeFault,
    victim_rng: &mut SimRng,
    coords: &mut impl FnMut(&mut SimRng) -> crate::geom::Point,
    min_nodes: usize,
) {
    match fault {
        NodeFault::Crash { count } => {
            for _ in 0..count {
                if sim.len() <= min_nodes {
                    break;
                }
                let members = sim.members();
                let victim = members[victim_rng.below(members.len())];
                sim.leave(victim, false);
            }
        }
        NodeFault::Rejoin { count } => {
            for _ in 0..count {
                let _ = sim.join(coords(victim_rng));
            }
        }
        NodeFault::Freeze { count, duration } => {
            let members = sim.members();
            let mut pool = members;
            for _ in 0..count.min(pool.len().saturating_sub(min_nodes)) {
                let victim = pool.swap_remove(victim_rng.below(pool.len()));
                sim.freeze(victim, duration);
            }
        }
        NodeFault::CrashWithHeir { count } => {
            for _ in 0..count {
                if sim.len() <= min_nodes + 1 {
                    break;
                }
                let members = sim.members();
                let owner = members[victim_rng.below(members.len())];
                let heirs = sim.takeover_targets(owner);
                sim.leave(owner, false);
                if let Some(&heir) = heirs.first() {
                    if sim.is_member(heir) && sim.len() > min_nodes {
                        sim.leave(heir, false);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgrid_simcore::dst::{generate, ScheduleBudget};

    #[test]
    fn replay_is_bit_identical() {
        let budget = ScheduleBudget::smoke();
        for seed in [3, 17, 29] {
            let s = generate(seed, &budget);
            let a = run_schedule(&s);
            let b = run_schedule(&s);
            assert_eq!(a, b, "seed {seed} must replay identically");
        }
    }

    #[test]
    fn generated_schedules_pass_on_the_current_protocol() {
        let budget = ScheduleBudget::smoke();
        for seed in 100..106 {
            let s = generate(seed, &budget);
            let report = run_schedule(&s);
            assert!(
                report.violations.is_empty(),
                "seed {seed} ({} / {}):\n{:#?}",
                s.scheme,
                s.nodes,
                report.violations
            );
        }
    }

    #[test]
    fn schedules_actually_hurt() {
        // A transliteration of the flash-crowd scenario must break
        // links at peak, proving the executor applies its events.
        let budget = ScheduleBudget::default();
        let mut hurt = false;
        for seed in 0..10 {
            let s = generate(seed, &budget);
            let report = run_schedule(&s);
            if report.broken_peak > 0 || report.dropped_messages > 0 {
                hurt = true;
                break;
            }
        }
        assert!(hurt, "ten generated schedules never perturbed the overlay");
    }

    #[test]
    fn detector_schedules_replay_and_pass_oracles() {
        use pgrid_simcore::dst::DegradeWindow;
        let budget = ScheduleBudget::smoke();
        for (seed, mode) in [(7u64, "fixed"), (8, "adaptive"), (9, "adaptive")] {
            let mut s = generate(seed, &budget);
            s.detector = Some(mode.to_string());
            s.degrades = vec![DegradeWindow {
                pairs: 3,
                drop: 0.5,
                jitter: 20.0,
                from: 0.0,
                until: s.fault_duration * 0.8,
            }];
            s.validate().expect("forced schedule stays valid");
            let a = run_schedule(&s);
            let b = run_schedule(&s);
            assert_eq!(a, b, "seed {seed}/{mode} must replay identically");
            assert!(
                a.violations.is_empty(),
                "seed {seed}/{mode}:\n{:#?}",
                a.violations
            );
        }
    }

    #[test]
    fn replicated_schedules_replay_and_pass_oracles() {
        // Forced warm-standby replication over crash-bearing schedules:
        // replays stay bit-identical, the freshness oracle stays quiet,
        // and at least one seed actually promotes a warm replica.
        let budget = ScheduleBudget::smoke();
        let mut promoted = 0u64;
        for seed in [7u64, 8, 9, 23] {
            let mut s = generate(seed, &budget);
            s.replication = Some("standby".to_string());
            s.validate().expect("forced schedule stays valid");
            let a = run_schedule(&s);
            let b = run_schedule(&s);
            assert_eq!(a, b, "seed {seed} must replay identically");
            assert!(a.violations.is_empty(), "seed {seed}:\n{:#?}", a.violations);
            promoted += a.counters.replica_promotions;
        }
        assert!(
            promoted > 0,
            "some crash across these seeds should promote a warm replica"
        );
    }

    #[test]
    fn armed_replication_leaves_faultfree_digest_untouched() {
        // With no crash to take over, arming replication must not
        // perturb the trajectory at all: the extra replica traffic is
        // invisible to the pinned observable state.
        let budget = ScheduleBudget::smoke();
        let mut s = generate(42, &budget);
        s.events.clear();
        s.partitions.clear();
        s.class_faults.clear();
        s.degrades.clear();
        s.churn_gap = None;
        s.detector = None;
        s.replication = None;
        let baseline = run_schedule(&s);
        s.replication = Some("standby".to_string());
        let armed = run_schedule(&s);
        assert_eq!(armed.counters.replica_promotions, 0, "nothing to promote");
        assert_eq!(armed.counters.stale_replica_rejects, 0);
        assert!(armed.violations.is_empty(), "{:#?}", armed.violations);
        assert_eq!(
            armed.digest, baseline.digest,
            "arming replication must not perturb a fault-free trajectory"
        );
    }

    #[test]
    fn armed_detector_leaves_faultfree_digest_untouched_when_silent() {
        // A schedule whose only difference is the detector knob must
        // diverge *only* through detector behavior; with no faults able
        // to trip it, the armed replay is bit-identical to the legacy
        // passive run.
        let budget = ScheduleBudget::smoke();
        let mut s = generate(42, &budget);
        s.events.clear();
        s.partitions.clear();
        s.class_faults.clear();
        s.degrades.clear();
        s.churn_gap = None;
        s.detector = None;
        let baseline = run_schedule(&s);
        for mode in ["fixed", "adaptive"] {
            s.detector = Some(mode.to_string());
            let armed = run_schedule(&s);
            assert_eq!(
                armed.counters.suspicions, 0,
                "{mode}: fault-free run stays silent"
            );
            assert_eq!(armed.counters.live_expulsions, 0, "{mode}");
            assert!(
                armed.violations.is_empty(),
                "{mode}: {:#?}",
                armed.violations
            );
            assert_eq!(
                armed.digest, baseline.digest,
                "{mode}: arming the detector must not perturb a fault-free trajectory"
            );
        }
    }

    #[test]
    fn macro_schedules_run_identically_to_their_expansion() {
        use pgrid_simcore::dst::ScheduleMacro;
        let budget = ScheduleBudget::smoke();
        let mut s = generate(31, &budget);
        s.macros = vec![
            ScheduleMacro::RackStorm {
                at: 30.0,
                racks: 2,
                size: 3,
                gap: 80.0,
            },
            ScheduleMacro::GrayFail {
                pairs: 3,
                drop: 0.3,
                delay: 25.0,
                from: 20.0,
                until: s.fault_duration * 0.8,
            },
        ];
        s.validate().expect("macro schedule valid");
        let direct = run_schedule(&s);
        let pre_expanded = run_schedule(&s.expand());
        assert_eq!(
            direct, pre_expanded,
            "running a macro schedule must equal running its expansion"
        );
    }
}
