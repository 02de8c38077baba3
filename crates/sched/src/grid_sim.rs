//! The end-to-end load-balancing simulation behind Figures 5 and 6:
//! Poisson job arrivals → matchmaking → FIFO queues → execution scaled
//! by the dominant CE's clock → per-job wait times.
//!
//! Every entry point drives one [`EventQueue`] on one thread
//! (`DESIGN.md` §15).

use crate::grid::{BuildError, StaticGrid};
use crate::matchmakers::{
    CentralMatchmaker, HetFeatures, Matchmaker, Placement, PushParams, PushingMatchmaker,
};
use pgrid_metrics::{Cdf, Summary};
use pgrid_simcore::{EventQueue, SimRng};
use pgrid_types::{DimensionLayout, JobId, JobSpec, NodeId};
use pgrid_workload::nodegen::generate_nodes;
use pgrid_workload::profiles::{
    EvictionConfig, LoadBalanceScenario, EVICTION_OUTAGE, RESUBMIT_DELAY,
};

use crate::overload::{OverloadConfig, OverloadStats, TokenBucket, RETRY_DELAY};
use crate::recovery::{
    backoff, CrashChaosConfig, JobLedger, RecoveryStats, CRASH_OUTAGE, DETECT_TIMEOUT, MAX_RETRIES,
};

/// Which matchmaker a simulation runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerChoice {
    /// The paper's heterogeneity-aware scheme.
    CanHet,
    /// The CE-oblivious prior system.
    CanHom,
    /// The greedy online centralized baseline.
    Central,
}

impl SchedulerChoice {
    /// All schemes in the figures' legend order.
    pub const ALL: [SchedulerChoice; 3] = [
        SchedulerChoice::CanHet,
        SchedulerChoice::CanHom,
        SchedulerChoice::Central,
    ];

    /// The legend label used in the figures.
    pub fn label(self) -> &'static str {
        match self {
            SchedulerChoice::CanHet => "can-het",
            SchedulerChoice::CanHom => "can-hom",
            SchedulerChoice::Central => "central",
        }
    }
}

#[derive(Debug)]
enum Ev {
    Arrival(u32),
    /// Completion of a job's `gen`-th submission; stale generations
    /// (the job was evicted and resubmitted meanwhile) are ignored.
    Finish(NodeId, JobId, u32),
    AiRefresh,
    /// Volunteer eviction: one node withdraws, killing its jobs.
    Evict,
    /// An evicted node returns.
    Restore(NodeId),
    /// Fail-stop crash of one node (chaos model): jobs die silently.
    Crash,
    /// The failure detector notices that a job's `gen`-th submission
    /// died with its node; stale generations are ignored.
    DetectLoss(u32, u32),
}

/// Result of one load-balancing simulation.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Scheme simulated.
    pub scheduler: SchedulerChoice,
    /// Wait time of every job (placement → execution start), seconds.
    pub wait_times: Vec<f64>,
    /// Routing-hop summary across jobs.
    pub route_hops: Summary,
    /// Push-step summary across jobs.
    pub pushes: Summary,
    /// Jobs placed by the global fallback scan (diagnostics; ~0).
    pub fallback_placements: u64,
    /// Simulated time when the last job finished.
    pub makespan: f64,
    /// Busy seconds accumulated per node (dominant-CE execution time of
    /// the jobs it ran), indexed by node id.
    pub node_busy_seconds: Vec<f64>,
    /// Volunteer evictions that occurred (eviction model only).
    pub evictions: u64,
    /// Jobs killed by evictions and resubmitted (their wait time is
    /// measured from the final placement).
    pub resubmissions: u64,
    /// Node that ran each job (its final placement, for jobs that were
    /// evicted and resubmitted), indexed like `wait_times`.
    pub placed_nodes: Vec<NodeId>,
    /// Total events processed by the simulation loop — the numerator
    /// of the events/sec throughput metric.
    pub events_fired: u64,
    /// Crash-recovery accounting — `Some` only when a
    /// [`CrashChaosConfig`] was supplied to the run.
    pub recovery: Option<RecoveryStats>,
    /// Jobs still outstanding when the event queue drained with no
    /// event left that could ever start them — reported as a
    /// first-class outcome instead of aborting the harness. Zero in
    /// every healthy run.
    pub lost_jobs: u64,
    /// Overload-control accounting — `Some` only when an
    /// [`OverloadConfig`] was supplied to the run.
    pub overload: Option<OverloadStats>,
}

impl SimResult {
    /// The wait-time CDF (the curve of Figures 5/6).
    pub fn cdf(&self) -> Cdf {
        Cdf::new(self.wait_times.clone())
    }

    /// Mean wait time.
    pub fn mean_wait(&self) -> f64 {
        if self.wait_times.is_empty() {
            0.0
        } else {
            self.wait_times.iter().sum::<f64>() / self.wait_times.len() as f64
        }
    }

    /// Load-balance quality: the coefficient of variation (stddev /
    /// mean) of per-node busy time. 0 = perfectly even work spread;
    /// higher = more imbalance. (The paper evaluates balance through
    /// wait times; this exposes the same property directly.)
    pub fn busy_time_cv(&self) -> f64 {
        let s = Summary::from_iter(self.node_busy_seconds.iter().copied());
        if s.count() == 0 || s.mean() <= 0.0 {
            0.0
        } else {
            s.stddev() / s.mean()
        }
    }
}

/// Runs one complete load-balancing simulation for a scenario and
/// scheduler, draining every job to completion.
pub fn run_load_balance(scenario: &LoadBalanceScenario, choice: SchedulerChoice) -> SimResult {
    run_scenario(scenario, choice, None, None).expect(UNBUILDABLE)
}

/// [`run_load_balance`] for scenarios that come from outside the
/// program (`pgrid simulate`): a population no grid can be built from
/// is an error, not a panic.
pub fn try_run_load_balance(
    scenario: &LoadBalanceScenario,
    choice: SchedulerChoice,
) -> Result<SimResult, BuildError> {
    run_scenario(scenario, choice, None, None)
}

/// The matchmaker a [`SchedulerChoice`] names, over `grid`.
pub fn matchmaker_for(
    choice: SchedulerChoice,
    grid: &StaticGrid,
    params: PushParams,
) -> Box<dyn Matchmaker> {
    match choice {
        SchedulerChoice::CanHet => Box::new(PushingMatchmaker::heterogeneous(grid, params)),
        SchedulerChoice::CanHom => Box::new(PushingMatchmaker::homogeneous(grid, params)),
        SchedulerChoice::Central => Box::new(CentralMatchmaker),
    }
}

/// The shared body of the scenario entry points.
fn run_scenario(
    scenario: &LoadBalanceScenario,
    choice: SchedulerChoice,
    chaos: Option<&CrashChaosConfig>,
    overload: Option<&OverloadConfig>,
) -> Result<SimResult, BuildError> {
    let (mut grid, jobs) = instantiate(scenario)?;
    let mut matchmaker = matchmaker_for(choice, &grid, push_params(scenario));
    Ok(run_with(
        &mut grid,
        matchmaker.as_mut(),
        &jobs,
        scenario.ai_refresh_period,
        scenario.seed,
        choice,
        scenario.eviction.as_ref(),
        chaos,
        overload,
    ))
}

/// Why the infallible entry points panic: their scenarios are the
/// program's own.
const UNBUILDABLE: &str = "scenario population builds a static grid";

/// A scenario made concrete: the grid over its generated population,
/// and its job trace.
fn instantiate(
    scenario: &LoadBalanceScenario,
) -> Result<(StaticGrid, Vec<(f64, JobSpec)>), BuildError> {
    let layout = DimensionLayout::with_dims(scenario.dims);
    // Generate the population once: the job stream borrows it for
    // satisfiability filtering, then hands it back for the grid build —
    // no clone. (Stream and grid use independent RNG sub-streams, so
    // the construction order does not affect either.)
    let population = generate_nodes(&scenario.node_gen, scenario.nodes, scenario.seed);
    let mut stream = scenario.job_stream(population);
    let jobs: Vec<(f64, JobSpec)> = stream.take_jobs(scenario.jobs);
    let population = stream
        .into_population()
        .expect("stream built with population");
    let grid = StaticGrid::try_build(layout, population, scenario.seed)?;
    Ok((grid, jobs))
}

/// The push parameters a scenario prescribes.
fn push_params(scenario: &LoadBalanceScenario) -> PushParams {
    PushParams {
        stopping_factor: scenario.stopping_factor,
    }
}

/// Chaos entry point: the scenario's workload under fail-stop node
/// crashes with delayed loss detection, bounded-retry re-matching, and
/// exponential backoff (see [`CrashChaosConfig`]). Every surviving job
/// completes exactly once; jobs that exhaust their retry budget are
/// counted in [`RecoveryStats::permanently_failed`] and excluded from
/// the wait-time population.
pub fn run_load_balance_chaos(
    scenario: &LoadBalanceScenario,
    choice: SchedulerChoice,
    chaos: &CrashChaosConfig,
) -> SimResult {
    run_scenario(scenario, choice, Some(chaos), None).expect(UNBUILDABLE)
}

/// Overload entry point: the scenario's workload with the overload
/// control subsystem supplied (and, optionally, crash chaos layered
/// underneath). With a disarmed config this reproduces
/// [`run_load_balance`] exactly — bounds are what change behavior,
/// not the entry point — but the result carries `Some` overload
/// stats either way.
pub fn run_load_balance_overload(
    scenario: &LoadBalanceScenario,
    choice: SchedulerChoice,
    chaos: Option<&CrashChaosConfig>,
    overload: &OverloadConfig,
) -> SimResult {
    run_scenario(scenario, choice, chaos, Some(overload)).expect(UNBUILDABLE)
}

/// Ablation entry point: can-het with selected features disabled.
pub fn run_load_balance_ablated(
    scenario: &LoadBalanceScenario,
    features: HetFeatures,
) -> SimResult {
    let (mut grid, jobs) = instantiate(scenario).expect(UNBUILDABLE);
    let mut matchmaker = PushingMatchmaker::with_features(&grid, push_params(scenario), features);
    run_with(
        &mut grid,
        &mut matchmaker,
        &jobs,
        scenario.ai_refresh_period,
        scenario.seed,
        SchedulerChoice::CanHet,
        scenario.eviction.as_ref(),
        None,
        None,
    )
}

/// Runs an explicit `(arrival, job)` trace through a matchmaker on a
/// prepared grid — the public entry point for replaying saved traces
/// (`pgrid trace replay`) and for custom harnesses. Job ids may be
/// arbitrary but must be unique.
pub fn run_trace(
    grid: &mut StaticGrid,
    matchmaker: &mut dyn Matchmaker,
    jobs: &[(f64, JobSpec)],
    ai_refresh_period: f64,
    seed: u64,
    choice: SchedulerChoice,
) -> SimResult {
    run_with(
        grid,
        matchmaker,
        jobs,
        ai_refresh_period,
        seed,
        choice,
        None,
        None,
        None,
    )
}

/// [`run_trace`]; the lane count is ignored. Kept only because the repo
/// benchmark names it (ROADMAP item 3).
pub fn run_trace_sharded(
    grid: &mut StaticGrid,
    matchmaker: &mut dyn Matchmaker,
    jobs: &[(f64, JobSpec)],
    ai_refresh_period: f64,
    seed: u64,
    choice: SchedulerChoice,
    _shards: usize,
) -> SimResult {
    run_trace(grid, matchmaker, jobs, ai_refresh_period, seed, choice)
}

/// Heartbeat-boundary shedding: enforces the queue bounds
/// deterministically (ascending node id, oldest waiters first) and
/// returns the shed jobs in that order. Only a node with waiters is
/// entered: an empty queue sheds nothing, and entering a runtime stamps
/// the node dirty for the aggregate refresh that follows.
fn shed_at_boundary(grid: &mut StaticGrid, now: f64, o: &OverloadConfig) -> Vec<JobSpec> {
    let mut shed = Vec::new();
    for i in 0..grid.len() {
        let node = NodeId(i as u32);
        if grid.runtime(node).queued_count() > 0 {
            shed.extend(grid.with_runtime_mut(node, |rt| {
                rt.shed_overloaded(now, o.queue_slots, o.max_queue_wait)
            }));
        }
    }
    shed
}

#[allow(clippy::too_many_arguments)]
fn run_with(
    grid: &mut StaticGrid,
    matchmaker: &mut dyn Matchmaker,
    jobs: &[(f64, JobSpec)],
    ai_refresh_period: f64,
    seed: u64,
    choice: SchedulerChoice,
    eviction: Option<&EvictionConfig>,
    chaos: Option<&CrashChaosConfig>,
    overload: Option<&OverloadConfig>,
) -> SimResult {
    use std::collections::HashMap;
    let mut rng = SimRng::sub_stream(seed, 0x5C4ED);
    let mut queue: EventQueue<Ev> = EventQueue::new();
    let index_of: HashMap<JobId, usize> = jobs
        .iter()
        .enumerate()
        .map(|(i, (_, j))| (j.id, i))
        .collect();
    assert_eq!(index_of.len(), jobs.len(), "job ids must be unique");
    let mut wait_times: Vec<f64> = vec![f64::NAN; jobs.len()];
    let mut placed_nodes: Vec<NodeId> = vec![NodeId(0); jobs.len()];
    let mut placed_at: Vec<f64> = vec![0.0; jobs.len()];
    let mut dominant_clock: Vec<f64> = vec![1.0; jobs.len()];
    // A job's dominant CE depends only on the job and the layout —
    // compute it once per trace instead of on every (re)arrival.
    let dominant_ce: Vec<pgrid_types::CeType> = jobs
        .iter()
        .map(|(_, j)| grid.layout().dominant_ce(j))
        .collect();
    let mut route_hops = Summary::new();
    let mut pushes = Summary::new();
    let mut fallbacks = 0u64;
    let mut makespan: f64 = 0.0;
    let mut node_busy_seconds = vec![0.0f64; grid.len()];
    let mut submit_gen: Vec<u32> = vec![0; jobs.len()];
    let mut evictions = 0u64;
    let mut resubmissions = 0u64;
    let mut evict_rng = SimRng::sub_stream(seed, 0xE71C);
    // Crash-recovery state (all inert — and the rng untouched — when
    // `chaos` is None, so fault-free runs are bit-identical).
    let mut crash_rng = SimRng::sub_stream(seed, 0xC8A5);
    let mut started_at: Vec<f64> = vec![0.0; jobs.len()];
    let mut attempts: Vec<u32> = vec![0; jobs.len()];
    let mut ledger = JobLedger::new(jobs.len());
    let mut rec = RecoveryStats::default();
    // Overload-control state (all inert when no armed config is
    // supplied, so fault-free runs are bit-identical).
    let armed = overload.filter(|o| o.armed());
    let mut ov_stats = OverloadStats::default();
    let mut buckets: Vec<TokenBucket> = match armed {
        Some(o) => jobs
            .iter()
            .map(|_| TokenBucket::new(o.retry_burst, o.retry_refill))
            .collect(),
        None => Vec::new(),
    };
    if let Some(o) = armed {
        // Arm the congestion bit in the aggregate before the initial
        // refresh so the very first AiTable snapshot carries pressure.
        matchmaker.set_pressure_bound(o.queue_slots);
    }

    matchmaker.refresh(grid, 0.0);
    for (i, (t, _)) in jobs.iter().enumerate() {
        queue.schedule(*t, Ev::Arrival(i as u32));
    }
    queue.schedule(ai_refresh_period, Ev::AiRefresh);
    if let Some(ev) = eviction {
        queue.schedule(evict_rng.exponential(ev.mean_interval), Ev::Evict);
    }
    if let Some(ch) = chaos {
        queue.schedule(crash_rng.exponential(ch.mean_interval), Ev::Crash);
    }

    let mut remaining = jobs.len();
    let mut lost = 0u64;
    while remaining > 0 {
        let Some((now, ev)) = queue.pop() else {
            // The event queue drained with jobs outstanding: nothing
            // left can ever start them. Record them as lost first-class
            // report fields instead of aborting the harness (overload
            // shedding and oracle-checked runs must survive this).
            for i in 0..jobs.len() {
                if ledger.is_pending(i) {
                    ledger.fail(i);
                    lost += 1;
                }
            }
            break;
        };
        // The arms that can start jobs on a node yield it and the jobs
        // it started; the start bookkeeping after the match is theirs.
        let (node, started) = match ev {
            Ev::AiRefresh => {
                if let Some(o) = armed {
                    // Shed before the aggregate refresh, which then
                    // snapshots the post-shed state.
                    for job in shed_at_boundary(grid, now, o) {
                        let jidx = index_of[&job.id];
                        ov_stats.shed_queue += 1;
                        ledger.fail(jidx);
                        remaining -= 1;
                    }
                }
                matchmaker.refresh(grid, now);
                if armed.is_some() {
                    let depth = (0..grid.len())
                        .map(|i| grid.runtime(NodeId(i as u32)).queued_count())
                        .max()
                        .unwrap_or(0);
                    ov_stats.max_boundary_depth = ov_stats.max_boundary_depth.max(depth as u64);
                }
                if remaining > 0 {
                    queue.schedule(now + ai_refresh_period, Ev::AiRefresh);
                }
                continue;
            }
            Ev::Arrival(idx) => {
                let job = &jobs[idx as usize].1;
                let Placement {
                    node,
                    route_hops: rh,
                    pushes: ps,
                    fallback,
                } = matchmaker.place(grid, job, &mut rng);
                route_hops.add(rh as f64);
                pushes.add(ps as f64);
                fallbacks += u64::from(fallback);
                if let Some(o) = armed {
                    ov_stats.push_attempts += 1;
                    // Admission control: a node at its slot bound that
                    // cannot start the job immediately rejects instead
                    // of enqueueing. The reject consumes retry budget;
                    // an empty bucket sheds the job at admission.
                    let rejected = o.queue_slots.is_some_and(|s| {
                        let rt = grid.runtime(node);
                        rt.queued_count() >= s && !rt.is_acceptable(job)
                    });
                    if rejected {
                        ov_stats.admission_rejects += 1;
                        if buckets[idx as usize].try_take(now) {
                            // Redirect hint: re-match after the retry
                            // delay, steered by fresher pressure bits.
                            queue.schedule(now + RETRY_DELAY, Ev::Arrival(idx));
                        } else {
                            ov_stats.shed_admission += 1;
                            ledger.fail(idx as usize);
                            remaining -= 1;
                        }
                        continue;
                    }
                    ov_stats.admitted += 1;
                }
                placed_nodes[idx as usize] = node;
                placed_at[idx as usize] = now;
                let ce = dominant_ce[idx as usize];
                dominant_clock[idx as usize] =
                    grid.runtime(node).spec.ce(ce).map_or(1.0, |c| c.clock);
                let started = grid.with_runtime_mut(node, |rt| {
                    rt.enqueue(job.clone(), now);
                    rt.start_ready()
                });
                (node, started)
            }
            Ev::Finish(node, job_id, gen) => {
                let jidx = index_of[&job_id];
                if submit_gen[jidx] != gen {
                    continue; // killed by an eviction and resubmitted
                }
                remaining -= 1;
                makespan = now;
                ledger.complete(jidx);
                let started = grid.with_runtime_mut(node, |rt| {
                    rt.finish(job_id);
                    rt.start_ready()
                });
                (node, started)
            }
            Ev::Evict => {
                let ev = eviction.expect("Evict event without config");
                // Pick an available victim, if any, from the grid's
                // incrementally-maintained index (ascending node id,
                // matching the order a full scan would produce).
                let available = grid.available_nodes();
                if !available.is_empty() {
                    let victim = available[evict_rng.below(available.len())];
                    evictions += 1;
                    let killed = grid.evict_node(victim);
                    for job in killed {
                        let jidx = index_of[&job.id];
                        submit_gen[jidx] += 1; // invalidate pending Finish
                        resubmissions += 1;
                        queue.schedule(now + RESUBMIT_DELAY, Ev::Arrival(jidx as u32));
                    }
                    queue.schedule(now + EVICTION_OUTAGE, Ev::Restore(victim));
                }
                queue.schedule(now + evict_rng.exponential(ev.mean_interval), Ev::Evict);
                continue;
            }
            Ev::Restore(node) => {
                grid.restore_node(node);
                (node, grid.with_runtime_mut(node, |rt| rt.start_ready()))
            }
            Ev::Crash => {
                let ch = chaos.expect("Crash event without config");
                let available = grid.available_nodes();
                if !available.is_empty() {
                    let victim = available[crash_rng.below(available.len())];
                    rec.crashes += 1;
                    let (running, queued) = grid.crash_node(victim);
                    // Running jobs lose their partial execution; the
                    // busy time charged up-front for the un-run
                    // remainder is returned to the node's account.
                    for job in &running {
                        let jidx = index_of[&job.id];
                        let dur = job.runtime_on(dominant_clock[jidx]);
                        let done = now - started_at[jidx];
                        node_busy_seconds[victim.idx()] -= (started_at[jidx] + dur) - now;
                        rec.wasted_seconds += done;
                        rec.killed_running += 1;
                    }
                    rec.killed_queued += queued.len() as u64;
                    // Nothing reacts until the failure detector fires:
                    // each loss surfaces only after the detection delay.
                    for job in running.iter().chain(queued.iter()) {
                        let jidx = index_of[&job.id];
                        submit_gen[jidx] += 1; // invalidate pending Finish
                        queue.schedule(
                            now + DETECT_TIMEOUT,
                            Ev::DetectLoss(jidx as u32, submit_gen[jidx]),
                        );
                    }
                    queue.schedule(now + CRASH_OUTAGE, Ev::Restore(victim));
                }
                queue.schedule(now + crash_rng.exponential(ch.mean_interval), Ev::Crash);
                continue;
            }
            Ev::DetectLoss(idx, gen) => {
                let jidx = idx as usize;
                if submit_gen[jidx] != gen {
                    continue; // superseded meanwhile
                }
                attempts[jidx] += 1;
                rec.max_attempts = rec.max_attempts.max(attempts[jidx]);
                if attempts[jidx] > MAX_RETRIES {
                    ledger.fail(jidx);
                    rec.permanently_failed += 1;
                    remaining -= 1;
                } else {
                    rec.requeued += 1;
                    queue.schedule(now + backoff(attempts[jidx]), Ev::Arrival(idx));
                }
                continue;
            }
        };
        for started in started {
            let jidx = index_of[&started.job.id];
            wait_times[jidx] = now - placed_at[jidx];
            started_at[jidx] = now;
            let dur = started.job.runtime_on(dominant_clock[jidx]);
            node_busy_seconds[node.idx()] += dur;
            queue.schedule(
                now + dur,
                Ev::Finish(node, started.job.id, submit_gen[jidx]),
            );
        }
    }

    if chaos.is_some() || overload.is_some() || lost > 0 {
        // Conservation invariant: every job completed xor permanently
        // failed (shed and drain-lost jobs fail in the ledger). Failed
        // jobs are then dropped from the wait-time and placement
        // populations (their stale or never-assigned waits would
        // otherwise pollute the distribution).
        ledger.check_conserved();
        // `retain` visits every element once, in order.
        let mut i = 0..;
        wait_times.retain(|_| !ledger.is_failed(i.next().expect("unbounded range")));
        let mut i = 0..;
        placed_nodes.retain(|_| !ledger.is_failed(i.next().expect("unbounded range")));
    }
    debug_assert!(
        wait_times.iter().all(|w| !w.is_nan()),
        "every surviving job must have started"
    );
    SimResult {
        scheduler: choice,
        wait_times,
        route_hops,
        pushes,
        fallback_placements: fallbacks,
        makespan,
        node_busy_seconds,
        evictions,
        resubmissions,
        placed_nodes,
        events_fired: queue.fired(),
        recovery: chaos.map(|_| rec),
        lost_jobs: lost,
        overload: overload.map(|_| ov_stats),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgrid_workload::profiles::default_scenario;

    fn tiny() -> LoadBalanceScenario {
        // 100 nodes, 400 jobs: fast but non-trivial.
        let mut s = default_scenario().scaled_down(10);
        s.jobs = 400;
        s
    }

    #[test]
    fn all_schemes_complete_every_job() {
        let s = tiny();
        for choice in SchedulerChoice::ALL {
            let r = run_load_balance(&s, choice);
            assert_eq!(r.wait_times.len(), 400);
            assert!(r.wait_times.iter().all(|w| *w >= 0.0));
            assert!(r.makespan > 0.0);
        }
    }

    #[test]
    fn central_has_no_routing_cost() {
        let r = run_load_balance(&tiny(), SchedulerChoice::Central);
        assert_eq!(r.route_hops.max(), Some(0.0));
        assert_eq!(r.pushes.max(), Some(0.0));
    }

    #[test]
    fn decentralized_schemes_route_and_push() {
        let r = run_load_balance(&tiny(), SchedulerChoice::CanHet);
        assert!(r.route_hops.mean() > 0.0, "routing should take hops");
    }

    #[test]
    fn lightly_loaded_system_has_mostly_zero_waits() {
        let mut s = tiny();
        s.job_gen.mean_interarrival *= 4.0; // very light load
        for choice in SchedulerChoice::ALL {
            let r = run_load_balance(&s, choice);
            let zero_frac = r.cdf().fraction_zero();
            assert!(
                zero_frac > 0.8,
                "{}: {:.0}% zero-wait under light load",
                choice.label(),
                zero_frac * 100.0
            );
        }
    }

    #[test]
    fn results_are_deterministic() {
        let s = tiny();
        let a = run_load_balance(&s, SchedulerChoice::CanHet);
        let b = run_load_balance(&s, SchedulerChoice::CanHet);
        assert_eq!(a.wait_times, b.wait_times);
    }

    #[test]
    fn het_waits_do_not_exceed_hom_substantially() {
        // The paper's headline: can-het balances at least as well as
        // can-hom. Compare tail quantiles under moderate load.
        let s = tiny();
        let het = run_load_balance(&s, SchedulerChoice::CanHet);
        let hom = run_load_balance(&s, SchedulerChoice::CanHom);
        let het_q = het.cdf().quantile(0.95);
        let hom_q = hom.cdf().quantile(0.95);
        assert!(
            het_q <= hom_q * 1.5 + 600.0,
            "can-het p95 {het_q} should not be far above can-hom {hom_q}"
        );
    }

    #[test]
    fn evictions_kill_and_resubmit_but_everything_completes() {
        use pgrid_workload::profiles::EvictionConfig;
        let mut s = tiny();
        s = s.with_eviction(EvictionConfig::new(600.0)); // frequent
        for choice in SchedulerChoice::ALL {
            let r = run_load_balance(&s, choice);
            assert_eq!(r.wait_times.len(), 400, "{}", choice.label());
            assert!(r.evictions > 0, "{}: no evictions happened", choice.label());
            assert!(
                r.resubmissions > 0,
                "{}: evictions should kill some jobs",
                choice.label()
            );
            assert!(r.wait_times.iter().all(|w| w.is_finite() && *w >= 0.0));
        }
    }

    #[test]
    fn evictions_increase_waits() {
        use pgrid_workload::profiles::EvictionConfig;
        let base = tiny();
        let calm = run_load_balance(&base, SchedulerChoice::CanHet);
        let stormy = run_load_balance(
            &base.clone().with_eviction(EvictionConfig::new(300.0)),
            SchedulerChoice::CanHet,
        );
        assert!(
            stormy.mean_wait() >= calm.mean_wait() * 0.9,
            "evictions should not improve waits: calm {} stormy {}",
            calm.mean_wait(),
            stormy.mean_wait()
        );
    }

    #[test]
    fn eviction_is_deterministic() {
        use pgrid_workload::profiles::EvictionConfig;
        let s = tiny().with_eviction(EvictionConfig::new(500.0));
        let a = run_load_balance(&s, SchedulerChoice::Central);
        let b = run_load_balance(&s, SchedulerChoice::Central);
        assert_eq!(a.wait_times, b.wait_times);
        assert_eq!(a.evictions, b.evictions);
        assert_eq!(a.resubmissions, b.resubmissions);
    }

    #[test]
    fn plain_runs_report_no_recovery() {
        let r = run_load_balance(&tiny(), SchedulerChoice::Central);
        assert!(r.recovery.is_none());
    }

    #[test]
    fn chaos_crashes_fire_and_jobs_are_conserved() {
        let s = tiny();
        let chaos = CrashChaosConfig::new(400.0); // frequent crashes
        for choice in SchedulerChoice::ALL {
            let r = run_load_balance_chaos(&s, choice, &chaos);
            let rec = r.recovery.as_ref().expect("chaos run reports stats");
            assert!(rec.crashes > 0, "{}: no crashes happened", choice.label());
            assert!(
                rec.jobs_lost() > 0,
                "{}: crashes should kill some jobs",
                choice.label()
            );
            assert!(
                rec.requeued > 0,
                "{}: losses should be re-matched",
                choice.label()
            );
            // Conservation: every job completed or permanently failed;
            // failed ones are excluded from the wait population.
            assert_eq!(
                r.wait_times.len() as u64 + rec.permanently_failed,
                400,
                "{}",
                choice.label()
            );
            assert!(r.wait_times.iter().all(|w| w.is_finite() && *w >= 0.0));
        }
    }

    #[test]
    fn chaos_is_deterministic() {
        let s = tiny();
        let chaos = CrashChaosConfig::new(500.0);
        let a = run_load_balance_chaos(&s, SchedulerChoice::CanHet, &chaos);
        let b = run_load_balance_chaos(&s, SchedulerChoice::CanHet, &chaos);
        assert_eq!(a.wait_times, b.wait_times);
        assert_eq!(a.recovery, b.recovery);
    }

    #[test]
    fn chaos_costs_are_visible_in_waits() {
        let s = tiny();
        let calm = run_load_balance(&s, SchedulerChoice::CanHet);
        let chaos = CrashChaosConfig::new(300.0);
        let stormy = run_load_balance_chaos(&s, SchedulerChoice::CanHet, &chaos);
        assert!(
            stormy.mean_wait() >= calm.mean_wait() * 0.9,
            "crashes should not improve waits: calm {} stormy {}",
            calm.mean_wait(),
            stormy.mean_wait()
        );
        let rec = stormy.recovery.unwrap();
        assert!(rec.wasted_seconds >= 0.0);
        assert!(rec.max_attempts >= 1);
    }

    #[test]
    fn disarmed_overload_run_matches_plain_run_bit_for_bit() {
        let s = tiny();
        let plain = run_load_balance(&s, SchedulerChoice::CanHet);
        let ov = run_load_balance_overload(
            &s,
            SchedulerChoice::CanHet,
            None,
            &OverloadConfig::default(),
        );
        assert_eq!(plain.wait_times, ov.wait_times);
        assert_eq!(plain.makespan, ov.makespan);
        assert_eq!(plain.events_fired, ov.events_fired);
        assert_eq!(plain.lost_jobs, 0);
        assert!(plain.overload.is_none());
        let stats = ov.overload.expect("overload entry point reports stats");
        assert_eq!(stats, OverloadStats::default(), "disarmed: all counters 0");
    }

    #[test]
    fn armed_overload_sheds_and_respects_both_oracles() {
        let mut s = tiny();
        s.job_gen.mean_interarrival /= 6.0; // sustained overload
        let cfg = OverloadConfig {
            queue_slots: Some(2),
            max_queue_wait: Some(1200.0),
            retry_burst: 2,
            ..Default::default()
        };
        for choice in SchedulerChoice::ALL {
            let r = run_load_balance_overload(&s, choice, None, &cfg);
            let stats = r.overload.as_ref().expect("armed run reports stats");
            assert!(
                stats.shed_total() > 0,
                "{}: overload must shed something: {stats:?}",
                choice.label()
            );
            // Conservation: every job completed, shed, or drain-lost.
            assert_eq!(
                r.wait_times.len() as u64 + stats.shed_total() + r.lost_jobs,
                400,
                "{}: {stats:?}",
                choice.label()
            );
            assert_eq!(
                crate::overload::bounded_queue_violation(stats, &cfg),
                None,
                "{}",
                choice.label()
            );
            assert_eq!(
                crate::overload::retry_storm_violation(stats, &cfg, r.makespan),
                None,
                "{}",
                choice.label()
            );
            assert!(stats.retry_amplification() >= 1.0);
            assert!(r.wait_times.iter().all(|w| w.is_finite() && *w >= 0.0));
        }
    }

    #[test]
    fn boundary_shedding_leaves_idle_nodes_clean() {
        let (mut grid, jobs) = instantiate(&tiny()).expect("tiny scenario builds");
        let o = OverloadConfig {
            queue_slots: Some(1),
            max_queue_wait: Some(60.0),
            ..OverloadConfig::default()
        };
        // An idle grid: the boundary enters no runtime, so no node goes
        // dirty and the load clock stays where it was.
        assert!(shed_at_boundary(&mut grid, 30.0, &o).is_empty());
        assert_eq!(grid.load_clock(), 0);
        // Three waiters behind a running job on one node: that node
        // alone is entered, and sheds down to its one slot.
        let busy = NodeId(7);
        let job = jobs
            .iter()
            .map(|(_, j)| j)
            .find(|j| j.satisfied_by(&grid.runtime(busy).spec))
            .expect("some job fits node 7");
        grid.with_runtime_mut(busy, |rt| {
            rt.enqueue(job.clone(), 0.0);
            rt.start_ready();
            while rt.queued_count() < 3 {
                rt.enqueue(job.clone(), 0.0);
                rt.start_ready();
            }
        });
        let clock = grid.load_clock();
        assert_eq!(shed_at_boundary(&mut grid, 30.0, &o).len(), 2);
        assert_eq!(grid.load_clock(), clock + 1);
        assert_eq!(grid.node_load_clock(busy), clock + 1);
        assert_eq!(grid.runtime(busy).queued_count(), 1);
        grid.check_invariants();
    }

    #[test]
    fn armed_overload_is_deterministic() {
        let mut s = tiny();
        s.job_gen.mean_interarrival /= 6.0;
        let cfg = OverloadConfig {
            queue_slots: Some(2),
            retry_burst: 1,
            ..Default::default()
        };
        let a = run_load_balance_overload(&s, SchedulerChoice::CanHet, None, &cfg);
        let b = run_load_balance_overload(&s, SchedulerChoice::CanHet, None, &cfg);
        assert_eq!(a.wait_times, b.wait_times);
        assert_eq!(a.overload, b.overload);
        assert_eq!(a.lost_jobs, b.lost_jobs);
    }

    #[test]
    fn overload_layers_on_crash_chaos_and_conserves_jobs() {
        let s = tiny();
        let chaos = CrashChaosConfig::new(400.0);
        let cfg = OverloadConfig {
            queue_slots: Some(3),
            ..Default::default()
        };
        let r = run_load_balance_overload(&s, SchedulerChoice::CanHet, Some(&chaos), &cfg);
        let rec = r.recovery.as_ref().expect("chaos stats present");
        let stats = r.overload.as_ref().expect("overload stats present");
        assert_eq!(
            r.wait_times.len() as u64 + rec.permanently_failed + stats.shed_total() + r.lost_jobs,
            400,
            "jobs conserved across both fault layers: {rec:?} {stats:?}"
        );
    }

    #[test]
    fn busy_time_tracks_total_work() {
        let s = tiny();
        let r = run_load_balance(&s, SchedulerChoice::Central);
        let total_busy: f64 = r.node_busy_seconds.iter().sum();
        assert!(total_busy > 0.0);
        // CV is finite and sane.
        let cv = r.busy_time_cv();
        assert!(cv.is_finite() && cv >= 0.0);
        // The better balancers should not have wildly worse CV than
        // can-hom on the same workload.
        let hom = run_load_balance(&s, SchedulerChoice::CanHom);
        assert!(cv < hom.busy_time_cv() * 3.0 + 1.0);
    }

    #[test]
    fn fallbacks_are_rare() {
        let r = run_load_balance(&tiny(), SchedulerChoice::CanHet);
        assert!(
            (r.fallback_placements as f64) < 0.05 * 400.0,
            "{} fallbacks out of 400",
            r.fallback_placements
        );
    }
}
