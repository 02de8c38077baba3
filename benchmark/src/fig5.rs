//! The four load-balancing workloads (`fig5_paper`, `fig5_scale`,
//! `fig5_sharded`, `fig5_stress`): the sched layer over a static CAN.
//!
//! The benchmark generates the node population and the job trace and
//! hands the library only those inputs, through `StaticGrid::build` and
//! `run_trace`. The population, and with it the CAN's zone structure, is
//! part of a workload's definition and is drawn from
//! [`POPULATION_SEED`]; `--seed` draws the traffic: the job trace and
//! the matchmaker's entry nodes and virtual coordinates. One population
//! draw differs from the next by a factor of three in routing hops per
//! job (README, "What the seed draws"), which no bound could absorb.
//!
//! In the traced pass the
//! matchmaker is wrapped in [`TimedMatchmaker`], which implements the
//! public `Matchmaker` trait around the real one, so `place` and
//! `refresh` are timed per call while `run_trace` runs unmodified.

use crate::probes;
use crate::sim::{span_name, Outcome, Sim};
use crate::trace::Tracer;
use pgrid::can::split_tree::{choose_split_plane, choose_split_plane_free};
use pgrid::can::{Adjacency, SplitTree};
use pgrid::sched::{
    run_load_balance_overload, run_trace_sharded, CentralMatchmaker, CrashChaosConfig, GridShards,
    Matchmaker, OverloadConfig, Placement, PushParams, PushingMatchmaker, SchedulerChoice,
    SimResult, StaticGrid,
};
use pgrid::simcore::SimRng;
use pgrid::types::{DimensionLayout, JobSpec, NodeId, NodeSpec};
use pgrid::workload::nodegen::generate_nodes;
use pgrid::workload::profiles::{default_scenario, EvictionConfig, LoadBalanceScenario};
use pgrid::workload::ArrivalShape;
use std::time::Instant;

/// Seed of every node population and of `StaticGrid::build`'s virtual
/// coordinates.
pub const POPULATION_SEED: u64 = 2011;

/// Shards of `fig5_sharded`. Fixed, so the workload is the same on any
/// host; `host_threads` is recorded beside every result.
pub const SHARDS: usize = 2;

enum Engine {
    /// `run_trace_sharded` on a grid the benchmark built (`shards` 1 is
    /// the sequential engine).
    Trace { shards: usize },
    /// `run_load_balance_overload`, which generates and builds inside
    /// the call.
    Overload {
        chaos: CrashChaosConfig,
        overload: OverloadConfig,
    },
}

pub struct Fig5Sim {
    label: &'static str,
    /// `scenario.seed` seeds the job stream and the run's own streams.
    scenario: LoadBalanceScenario,
    choice: SchedulerChoice,
    engine: Engine,
}

pub struct Fig5Ready {
    grid: StaticGrid,
    matchmaker: Box<dyn Matchmaker>,
    jobs: Vec<(f64, JobSpec)>,
}

/// Figure 5 at paper scale: inter-arrival {2, 3, 4} s × three
/// schedulers, `1/div` of the population and trace.
pub fn paper(seed: u64, div: usize) -> Vec<Fig5Sim> {
    let mut sims = Vec::new();
    for ia in [2.0, 3.0, 4.0] {
        for choice in SchedulerChoice::ALL {
            sims.push(Fig5Sim {
                label: span_name(format!("fig5_paper/ia{ia}/{}", choice.label())),
                scenario: default_scenario()
                    .with_seed(seed)
                    .with_interarrival(ia)
                    .scaled_down(div),
                choice,
                engine: Engine::Trace { shards: 1 },
            });
        }
    }
    sims
}

/// The paper workload at population `nodes`, arrival rate scaled to
/// hold the offered load per node constant.
fn scaled(label: &str, seed: u64, nodes: usize, jobs: usize, shards: usize) -> Vec<Fig5Sim> {
    let mut scenario = default_scenario().with_seed(seed);
    scenario.job_gen.mean_interarrival *= scenario.nodes as f64 / nodes as f64;
    scenario.nodes = nodes;
    scenario.jobs = jobs;
    vec![Fig5Sim {
        label: span_name(format!("{label}/n{nodes}/can-het")),
        scenario,
        choice: SchedulerChoice::CanHet,
        engine: Engine::Trace { shards },
    }]
}

pub fn scale(seed: u64, nodes: usize, jobs: usize) -> Vec<Fig5Sim> {
    scaled("fig5_scale", seed, nodes, jobs, 1)
}

pub fn sharded(seed: u64, div: usize) -> Vec<Fig5Sim> {
    scaled("fig5_sharded", seed, 8192 / div, 20_000 / div, SHARDS)
}

/// Arrival bursts of `fig5_stress`: this many windows of this length,
/// each multiplying the arrival rate by a factor drawn from
/// `1/BURST_SWING..BURST_SWING`.
const BURSTS: usize = 10;
const BURST_SECONDS: f64 = 600.0;
const BURST_SWING: f64 = 1.25;

/// Three times the calibrated arrival rate into bounded queues, under
/// crash chaos and volunteer eviction. The fault intervals stretch with
/// `div` so the per-node fault rate stays what it is at full scale.
///
/// `run_load_balance_overload` draws the population and the traffic
/// from the one seed of its scenario, so that seed stays
/// [`POPULATION_SEED`] and `--seed` draws the traffic another way: as
/// arrival bursts laid over the job stream.
pub fn stress(seed: u64, div: usize) -> Vec<Fig5Sim> {
    let d = div as f64;
    let base = default_scenario()
        .with_seed(POPULATION_SEED)
        .with_interarrival(1.0)
        .with_eviction(EvictionConfig::new(240.0 * d))
        .scaled_down(div);
    let trace_seconds = base.jobs as f64 * base.job_gen.mean_interarrival;
    let mut rng = SimRng::sub_stream(seed, 0xB0257);
    let bursts = (0..BURSTS)
        .map(|_| {
            let from = rng.uniform(0.0, trace_seconds);
            let rate = BURST_SWING.powf(rng.uniform(-1.0, 1.0));
            (from, from + BURST_SECONDS, rate)
        })
        .collect();
    let base = base.with_arrival_shape(ArrivalShape::new(bursts));
    SchedulerChoice::ALL
        .into_iter()
        .map(|choice| Fig5Sim {
            label: span_name(format!("fig5_stress/{}", choice.label())),
            scenario: base.clone(),
            choice,
            engine: Engine::Overload {
                chaos: CrashChaosConfig::new(120.0 * d),
                overload: OverloadConfig {
                    queue_slots: Some(4),
                    max_queue_wait: Some(900.0),
                    retry_burst: 3,
                    retry_refill: 0.01,
                    ..OverloadConfig::default()
                },
            },
        })
        .collect()
}

impl Fig5Sim {
    fn generate(&self) -> (Vec<NodeSpec>, Vec<(f64, JobSpec)>) {
        let s = &self.scenario;
        let population = generate_nodes(&s.node_gen, s.nodes, POPULATION_SEED);
        let mut stream = s.job_stream(population);
        let jobs = stream.take_jobs(s.jobs);
        let population = stream
            .into_population()
            .expect("stream was built with a population");
        (population, jobs)
    }

    fn matchmaker(&self, grid: &StaticGrid) -> Box<dyn Matchmaker> {
        let params = PushParams {
            stopping_factor: self.scenario.stopping_factor,
            ..PushParams::default()
        };
        match self.choice {
            SchedulerChoice::CanHet => Box::new(PushingMatchmaker::heterogeneous(grid, params)),
            SchedulerChoice::CanHom => Box::new(PushingMatchmaker::homogeneous(grid, params)),
            SchedulerChoice::Central => Box::new(CentralMatchmaker),
        }
    }

    fn run_trace(
        &self,
        grid: &mut StaticGrid,
        jobs: &[(f64, JobSpec)],
        matchmaker: &mut dyn Matchmaker,
        shards: usize,
    ) -> SimResult {
        run_trace_sharded(
            grid,
            matchmaker,
            jobs,
            self.scenario.ai_refresh_period,
            self.scenario.seed,
            self.choice,
            shards,
        )
    }

    /// Folds the trajectory into the digest, checks job conservation,
    /// and records the simulated outputs.
    fn account(&self, r: &SimResult, out: &mut Outcome) {
        for &w in &r.wait_times {
            out.fold_f64(w);
        }
        for n in &r.placed_nodes {
            out.fold_u64(u64::from(n.0));
        }
        out.fold_u64(r.events_fired);

        let completed = r.wait_times.len() as u64;
        let failed = r.recovery.as_ref().map_or(0, |rec| rec.permanently_failed);
        let shed = r.overload.as_ref().map_or(0, |ov| ov.shed_total());
        let submitted = self.scenario.jobs as u64;
        if r.lost_jobs > 0 {
            out.fail(
                r.lost_jobs,
                format!("{}: {} jobs lost", self.label, r.lost_jobs),
            );
        }
        if completed + failed + shed + r.lost_jobs != submitted {
            out.fail(
                1,
                format!(
                    "{}: conservation: {completed} completed + {failed} failed + {shed} shed + {} \
                     lost != {submitted} submitted",
                    self.label, r.lost_jobs
                ),
            );
        }
        if !r.wait_times.iter().all(|w| w.is_finite() && *w >= 0.0) {
            out.fail(1, format!("{}: non-finite or negative wait", self.label));
        }

        let (sum_name, n_name) = match self.choice {
            SchedulerChoice::CanHet => ("wait_sum.can-het", "wait_n.can-het"),
            SchedulerChoice::CanHom => ("wait_sum.can-hom", "wait_n.can-hom"),
            SchedulerChoice::Central => ("wait_sum.central", "wait_n.central"),
        };
        out.add(sum_name, r.wait_times.iter().sum());
        out.add(n_name, completed as f64);
        if self.choice == SchedulerChoice::CanHet {
            out.max("model.p99_wait_s.can-het", r.cdf().quantile(0.99));
        }
        out.add("model.makespan_s", r.makespan);
        out.add("jobs.submitted", submitted as f64);
        out.add("jobs.completed", completed as f64);
        out.add("jobs.shed", shed as f64);
        out.add("sched.grid_sim.evictions", r.evictions as f64);
        out.add("sched.grid_sim.resubmissions", r.resubmissions as f64);
        if let Some(ov) = &r.overload {
            out.add("sched.overload.push_attempts", ov.push_attempts as f64);
            out.add(
                "sched.overload.admission_rejects",
                ov.admission_rejects as f64,
            );
            out.add("sched.overload.shed_admission", ov.shed_admission as f64);
            out.add("sched.overload.shed_queue", ov.shed_queue as f64);
            out.max(
                "sched.overload.max_boundary_depth",
                ov.max_boundary_depth as f64,
            );
            out.add("overload.chains", (ov.admitted + ov.shed_admission) as f64);
        }
        if let Some(rec) = &r.recovery {
            out.add("sched.recovery.crashes", rec.crashes as f64);
            out.add("sched.recovery.requeued", rec.requeued as f64);
            out.add(
                "sched.recovery.permanently_failed",
                rec.permanently_failed as f64,
            );
        }
    }

    /// The sequential engine on the same inputs as the sharded run:
    /// equal digests are asserted, and the ratio of the two run times is
    /// the sharded engine's speed-up.
    fn probe_sequential_arm(&self, ready: &Fig5Ready, t: &Tracer, out: &mut Outcome) {
        t.span("sched.sharding.build", || {
            std::hint::black_box(GridShards::build(&ready.grid, SHARDS));
        });
        let Fig5Ready {
            mut grid,
            mut matchmaker,
            jobs,
        } = self.setup(&Tracer::off());
        let mut timed = TimedMatchmaker::new(matchmaker.as_mut(), t);
        let seq = t.span("sched.grid_sim.run_trace", || {
            self.run_trace(&mut grid, &jobs, &mut timed, 1)
        });
        let mut arm = Outcome::default();
        self.account(&seq, &mut arm);
        // The sharded workload is one simulation, so `out` has folded
        // exactly the sharded run's trajectory.
        if arm.sim_digest() != out.sim_digest() {
            out.fail(
                1,
                format!(
                    "{}: sharded digest {:#018x} differs from sequential {:#018x}",
                    self.label,
                    out.sim_digest(),
                    arm.sim_digest()
                ),
            );
        }
    }
}

impl Sim for Fig5Sim {
    type Ready = Fig5Ready;

    fn label(&self) -> &'static str {
        self.label
    }

    fn units(&self) -> u64 {
        self.scenario.jobs as u64
    }

    fn setup(&self, t: &Tracer) -> Fig5Ready {
        let (population, jobs) = t.span("workload.generate", || self.generate());
        let layout = DimensionLayout::with_dims(self.scenario.dims);
        let grid = t.span("sched.grid.build", || {
            StaticGrid::build(layout, population, POPULATION_SEED)
        });
        let matchmaker = t.span("sched.matchmakers.new", || self.matchmaker(&grid));
        Fig5Ready {
            grid,
            matchmaker,
            jobs,
        }
    }

    fn run(&self, ready: &mut Fig5Ready, t: &Tracer, out: &mut Outcome) {
        let result = match &self.engine {
            Engine::Trace { shards } => {
                let span = if *shards > 1 {
                    "sched.grid_sim.run_trace_sharded"
                } else {
                    "sched.grid_sim.run_trace"
                };
                let Fig5Ready {
                    grid,
                    matchmaker,
                    jobs,
                } = ready;
                let r = if t.is_on() {
                    let mut timed = TimedMatchmaker::new(matchmaker.as_mut(), t);
                    let r = t.span(span, || self.run_trace(grid, jobs, &mut timed, *shards));
                    timed.record(out);
                    r
                } else {
                    self.run_trace(grid, jobs, matchmaker.as_mut(), *shards)
                };
                if *shards == 1 {
                    out.add("events.run_trace", r.events_fired as f64);
                }
                r
            }
            Engine::Overload { chaos, overload } => {
                let r = t.span("sched.grid_sim.run_overload", || {
                    run_load_balance_overload(&self.scenario, self.choice, Some(chaos), overload)
                });
                out.add("sched.grid_sim.run_overload.events", r.events_fired as f64);
                r
            }
        };
        self.account(&result, out);
    }

    fn probe(&self, ready: &Fig5Ready, t: &Tracer, out: &mut Outcome) {
        out.add("nodes.built", ready.grid.len() as f64);
        t.span("probe.build_replay", || {
            replay_build(&ready.grid, self.label, out)
        });
        if self.choice != SchedulerChoice::Central {
            t.span("probe.route", || {
                probe_routes(&ready.grid, &ready.jobs, self.scenario.seed, out)
            });
        }
        // Every arrival is scheduled before the first event fires, so
        // the trace length is the pending-set size the loop starts at.
        let pending = ready.jobs.len();
        t.span("probe.hold", || {
            probes::hold_model(pending, SHARDS + 1, self.scenario.seed, out)
        });
        if let Engine::Trace { shards } = self.engine {
            if shards > 1 {
                self.probe_sequential_arm(ready, t, out);
            }
        }
    }
}

/// Times every call through the `Matchmaker` trait and counts what each
/// placement cost. It adds nothing to a placement and draws nothing
/// from the RNG, so the trajectory is the bare matchmaker's.
pub struct TimedMatchmaker<'a> {
    inner: &'a mut dyn Matchmaker,
    tracer: &'a Tracer,
    route_hops: u64,
    pushes: u64,
    fallbacks: u64,
}

impl<'a> TimedMatchmaker<'a> {
    pub fn new(inner: &'a mut dyn Matchmaker, tracer: &'a Tracer) -> Self {
        TimedMatchmaker {
            inner,
            tracer,
            route_hops: 0,
            pushes: 0,
            fallbacks: 0,
        }
    }

    fn record(&self, out: &mut Outcome) {
        out.add("sched.matchmakers.place.route_hops", self.route_hops as f64);
        out.add("sched.matchmakers.place.pushes", self.pushes as f64);
        out.add("sched.matchmakers.place.fallbacks", self.fallbacks as f64);
    }
}

impl Matchmaker for TimedMatchmaker<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn place(&mut self, grid: &StaticGrid, job: &JobSpec, rng: &mut SimRng) -> Placement {
        self.tracer.enter("sched.matchmakers.place");
        let p = self.inner.place(grid, job, rng);
        self.tracer.exit();
        self.route_hops += p.route_hops as u64;
        self.pushes += p.pushes as u64;
        self.fallbacks += u64::from(p.fallback);
        p
    }

    fn refresh(&mut self, grid: &StaticGrid, now: f64) {
        self.tracer.enter("sched.aggregate.refresh");
        self.inner.refresh(grid, now);
        self.tracer.exit();
    }

    fn refresh_threaded(&mut self, grid: &StaticGrid, now: f64, shards: &GridShards) {
        self.tracer.enter("sched.aggregate.refresh_threaded");
        self.inner.refresh_threaded(grid, now, shards);
        self.tracer.exit();
    }

    fn set_pressure_bound(&mut self, bound: Option<usize>) {
        self.inner.set_pressure_bound(bound);
    }
}

/// Replays `StaticGrid::build`'s join sequence through the public
/// `SplitTree` and `Adjacency`, timing the three calls build makes per
/// join, and checks the replay ends with the grid's zones. What is left
/// of build's time after these three is the CSR freeze and the rest.
///
/// The grid keeps each node's final coordinate, so the replay needs no
/// RNG: a coordinate that collided in build changed nothing there.
fn replay_build(grid: &StaticGrid, label: &str, out: &mut Outcome) {
    let mut tree = SplitTree::new(grid.layout().dims(), NodeId(0));
    let mut adj = Adjacency::new();
    adj.insert_first(NodeId(0));
    let (mut owner_at, mut split, mut on_split) = (0.0, 0.0, 0.0);
    for i in 1..grid.len() {
        let id = NodeId(i as u32);
        let coord = grid.coord(id);
        let t0 = Instant::now();
        let host = tree.owner_at(coord).expect("tree is never empty");
        owner_at += t0.elapsed().as_secs_f64();

        let host_coord = grid.coord(host);
        let host_zone = tree.zone(host).clone();
        let (dim, at) = if host_zone.contains(host_coord) {
            choose_split_plane(&host_zone, host_coord, coord)
                .expect("coordinates build accepted are separable")
        } else {
            choose_split_plane_free(&host_zone)
        };
        let t0 = Instant::now();
        tree.split(host, host_coord, id, coord, dim, at);
        split += t0.elapsed().as_secs_f64();

        let t0 = Instant::now();
        adj.on_split(host, id, |n| tree.zone(n));
        on_split += t0.elapsed().as_secs_f64();
    }
    out.add("can.split_tree.owner_at.s", owner_at);
    out.add("can.split_tree.split.s", split);
    out.add("can.adjacency.on_split.s", on_split);

    let mismatched = (0..grid.len() as u32)
        .map(NodeId)
        .filter(|&id| tree.zone(id) != grid.zone(id))
        .count();
    if mismatched > 0 {
        out.fail(
            1,
            format!("{label}: build replay: {mismatched} zones differ from the grid's"),
        );
    }
}

/// `StaticGrid::route_to` over the jobs' coordinates from random entry
/// nodes: the routing half of `place`, alone.
fn probe_routes(grid: &StaticGrid, jobs: &[(f64, JobSpec)], seed: u64, out: &mut Outcome) {
    let mut rng = SimRng::sub_stream(seed, 0xB0B7E);
    let mut hops = 0u64;
    let t0 = Instant::now();
    for (_, job) in jobs {
        let coord = grid.layout().job_coord(job, rng.unit());
        let entry = NodeId(rng.below(grid.len()) as u32);
        hops += grid.route_to(entry, &coord).hops as u64;
    }
    out.add("can.routing.route.s", t0.elapsed().as_secs_f64());
    out.add("can.routing.route.calls", jobs.len() as f64);
    out.add("can.routing.route.hops", hops as f64);
}
