//! `dst_armed`: every scenario of the adversarial registry under every
//! heartbeat scheme, through `fuzz::run_case` — the CAN layer on the
//! faulted network path, with the detector, replication and every
//! oracle armed at every heartbeat boundary.

use crate::sim::{span_name, Outcome, Sim};
use crate::trace::Tracer;
use pgrid::can::{
    oracles, scheme_from_label, uniform_coords, CanSim, DetectorConfig, ProtocolConfig,
    ReplicationConfig,
};
use pgrid::scenarios::{self, ScenarioSpec};
use pgrid::simcore::rng::sub_seed;
use pgrid::simcore::{FaultSchedule, SimRng};
use std::time::Instant;

/// Overlay each schedule is replayed on. Cost per case grows faster
/// than linearly in the population (10 ms at the registry's own 48
/// nodes, 210 ms at 256), so this is the size knob of the workload.
#[derive(Clone, Copy)]
pub struct Overlay {
    pub nodes: usize,
    pub dims: usize,
}

pub const FULL: Overlay = Overlay {
    nodes: 256,
    dims: 5,
};
/// The registry's own population, for the self-test.
pub const SMALL: Overlay = Overlay { nodes: 48, dims: 3 };

pub struct DstSim {
    label: &'static str,
    spec: &'static ScenarioSpec,
    scheme: &'static str,
    seed: u64,
    overlay: Overlay,
}

/// A schedule's one seed draws its overlay as well as its faults, so
/// every simulation gets a seed of its own under `seed`: the workload
/// then averages over 27 overlays, where one shared seed would replay
/// all 27 schedules on the same one and inherit its luck.
pub fn armed(seed: u64, overlay: Overlay) -> Vec<DstSim> {
    let mut sims = Vec::new();
    for spec in scenarios::matching("") {
        for scheme in ["vanilla", "compact", "adaptive"] {
            sims.push(DstSim {
                label: span_name(format!("dst_armed/{}/{scheme}", spec.name)),
                spec,
                scheme,
                seed: sub_seed(seed, sims.len() as u64),
                overlay,
            });
        }
    }
    sims
}

pub struct DstReady {
    schedule: FaultSchedule,
    /// The settled, fault-free overlay the schedule's fault phase
    /// starts from.
    standing: CanSim,
    /// Seconds the run's `run_case` took, for the probe to set the CAN
    /// phase against.
    run_case_s: f64,
}

/// The schedule executor's first phase, `can::run_schedule`'s line for
/// line: the protocol the schedule asks for, sequential joins a second
/// apart, then the settle time.
fn bootstrap(schedule: &FaultSchedule) -> CanSim {
    let scheme = scheme_from_label(&schedule.scheme).expect("a registered scheme");
    let mut proto = ProtocolConfig::new(schedule.dims, scheme);
    proto.heartbeat_period = schedule.heartbeat_period;
    proto.fail_timeout = schedule.fail_timeout;
    proto.loss_seed = sub_seed(schedule.seed, 0xFA17);
    proto.detector = schedule.detector.as_deref().map(|mode| match mode {
        "fixed" => DetectorConfig::fixed(),
        "adaptive" => DetectorConfig::adaptive(),
        other => panic!("unknown detector mode `{other}`"),
    });
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
    sim
}

/// Calls of `step_violations` timed on each standing overlay.
const ORACLE_CALLS: usize = 2;

impl Sim for DstSim {
    type Ready = DstReady;

    fn label(&self) -> &'static str {
        self.label
    }

    fn units(&self) -> u64 {
        1
    }

    /// Scenario compile, then the overlay the schedule runs on.
    /// `run_case` bootstraps its own inside the call, so this is the
    /// benchmark's identical copy of that phase, as in `fig5_stress`.
    fn setup(&self, t: &Tracer) -> DstReady {
        let schedule = t.span("core.scenarios.compile", || {
            let mut schedule = self.spec.compile_for(self.scheme, self.seed);
            schedule.nodes = self.overlay.nodes;
            schedule.dims = self.overlay.dims;
            schedule
        });
        let standing = t.span("can.dst.bootstrap", || bootstrap(&schedule));
        DstReady {
            schedule,
            standing,
            run_case_s: 0.0,
        }
    }

    fn run(&self, ready: &mut DstReady, t: &Tracer, out: &mut Outcome) {
        let t0 = Instant::now();
        let report = t.span("core.fuzz.run_case", || {
            pgrid::fuzz::run_case(&ready.schedule)
        });
        ready.run_case_s = t0.elapsed().as_secs_f64();
        out.fold_u64(report.digest);
        out.add("can.dst.violations", report.violations.len() as f64);
        out.max("can.dst.broken_peak", report.broken_peak as f64);
        if !report.violations.is_empty() {
            out.fail(
                1,
                format!(
                    "{}: {} oracle violations, first: {}",
                    self.label,
                    report.violations.len(),
                    report.violations[0]
                ),
            );
        }
    }

    /// The CAN phase alone on the same schedule. Where the schedule
    /// carries a sched phase, what `run_case` took beyond the CAN phase
    /// is that phase (a difference of two timings of about 0.2 s each,
    /// so only as good as the host is quiet). Then the oracles alone, on
    /// the standing overlay.
    fn probe(&self, ready: &DstReady, t: &Tracer, out: &mut Outcome) {
        let schedule = &ready.schedule;
        let t0 = Instant::now();
        t.span("can.dst.run_schedule", || {
            std::hint::black_box(pgrid::can::run_schedule(schedule));
        });
        if schedule.sched_crash_interval.is_some() || schedule.overload.is_some() {
            let beyond = ready.run_case_s - t0.elapsed().as_secs_f64();
            out.add("core.fuzz.sched_phase.s", beyond.max(0.0));
        }
        for _ in 0..ORACLE_CALLS {
            let violations = t.span("can.oracles.step_violations", || {
                oracles::step_violations(&ready.standing)
            });
            if !violations.is_empty() {
                out.fail(
                    1,
                    format!(
                        "{}: standing overlay violates: {}",
                        self.label, violations[0]
                    ),
                );
            }
        }
    }
}
