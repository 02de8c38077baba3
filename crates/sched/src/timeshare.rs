//! Processor-sharing execution: the contention model behind §III-B.
//!
//! The paper's matchmaking experiments use space-shared CEs (jobs wait
//! until cores are free — see [`crate::node_runtime`]), but it builds
//! on a *contention model* from the authors' earlier work (Lee et al.
//! \[2\]): on a real desktop, a non-dedicated CE admits work immediately
//! and oversubscribed cores slow every resident job down. This module
//! implements that model as a **processor-sharing executor**:
//!
//! * every job is admitted immediately (no waiting queue);
//! * a non-dedicated CE with `C` cores whose resident jobs demand
//!   `W = Σ wⱼ` cores runs each job at rate `min(1, C/W)`;
//! * a dedicated CE time-slices: `n` resident jobs each run at `1/n`;
//! * a multi-CE job runs at the *minimum* rate across the CEs it uses
//!   (the slowest element gates progress — no cross-CE contention, per
//!   the paper's measurements).
//!
//! The interesting metric is no longer wait time (always zero) but
//! **slowdown**: actual duration / ideal duration.
//! `pgrid figure contention_model` compares placements under this model.

use pgrid_types::{CeType, JobId, JobSpec, NodeSpec};

/// A job resident on a time-shared node.
#[derive(Debug, Clone)]
struct Resident {
    job: JobSpec,
    /// Remaining work in seconds-at-full-rate (already scaled by the
    /// dominant CE's clock at admission).
    remaining: f64,
    admitted_at: f64,
    ideal_duration: f64,
}

/// A completed job with its contention statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct TsCompletion {
    /// Which job finished.
    pub job_id: JobId,
    /// When it finished.
    pub finished_at: f64,
    /// Contention-free duration (work / dominant clock).
    pub ideal_duration: f64,
    /// Actual duration including slowdown.
    pub actual_duration: f64,
}

impl TsCompletion {
    /// Slowdown factor (≥ 1 up to floating-point rounding).
    pub fn slowdown(&self) -> f64 {
        self.actual_duration / self.ideal_duration
    }
}

/// Processor-sharing execution state of one node.
#[derive(Debug, Clone)]
pub struct TimeSharedNode {
    /// Node identity is left to the caller; this is pure execution
    /// state over the node's spec.
    pub spec: NodeSpec,
    residents: Vec<Resident>,
    last_advance: f64,
    /// Bumped whenever rates change; schedulers use it to invalidate
    /// stale completion events.
    pub epoch: u64,
}

impl TimeSharedNode {
    /// An idle time-shared node.
    pub fn new(spec: NodeSpec) -> Self {
        TimeSharedNode {
            spec,
            residents: Vec::new(),
            last_advance: 0.0,
            epoch: 0,
        }
    }

    /// Demand currently placed on a CE: core-demand for non-dedicated,
    /// job count for dedicated. `None` when the node lacks the CE.
    pub fn demand_on(&self, ty: CeType) -> Option<f64> {
        let _ce = self.spec.ce(ty)?;
        let total: f64 = self
            .residents
            .iter()
            .filter_map(|r| r.job.req(ty))
            .map(|req| f64::from(req.occupied_cores()))
            .sum();
        Some(total)
    }

    /// Execution rate of a CE under current residency: `min(1, C/W)`
    /// for non-dedicated, `1/n` for dedicated.
    pub fn ce_rate(&self, ty: CeType) -> Option<f64> {
        let ce = self.spec.ce(ty)?;
        if ce.dedicated {
            let n = self
                .residents
                .iter()
                .filter(|r| r.job.req(ty).is_some())
                .count();
            Some(if n <= 1 { 1.0 } else { 1.0 / n as f64 })
        } else {
            let w = self.demand_on(ty)?;
            Some(if w <= f64::from(ce.cores) {
                1.0
            } else {
                f64::from(ce.cores) / w
            })
        }
    }

    /// The execution rate of a resident job: the minimum across its
    /// CEs.
    fn job_rate(&self, job: &JobSpec) -> f64 {
        job.ce_reqs
            .iter()
            .filter_map(|r| self.ce_rate(r.ce_type))
            .fold(1.0, f64::min)
    }

    /// Aggregate slowdown estimate used by schedulers: the rate a new
    /// job would get if admitted now (before admission effects), via
    /// its dominant CE.
    pub fn prospective_rate(&self, job: &JobSpec) -> f64 {
        self.job_rate(job)
    }

    /// Advances all resident jobs' progress to `now`. Must be called
    /// before any residency change. No completions are harvested here;
    /// call [`TimeSharedNode::harvest`] afterwards.
    pub fn advance(&mut self, now: f64) {
        debug_assert!(now >= self.last_advance);
        let dt = now - self.last_advance;
        if dt > 0.0 {
            let rates: Vec<f64> = self
                .residents
                .iter()
                .map(|r| self.job_rate(&r.job))
                .collect();
            for (r, rate) in self.residents.iter_mut().zip(rates) {
                r.remaining -= rate * dt;
            }
        }
        self.last_advance = now;
    }

    /// Removes and returns every job whose work is exhausted.
    pub fn harvest(&mut self, now: f64) -> Vec<TsCompletion> {
        let mut done = Vec::new();
        let mut i = 0;
        while i < self.residents.len() {
            if self.residents[i].remaining <= 1e-9 {
                let r = self.residents.swap_remove(i);
                done.push(TsCompletion {
                    job_id: r.job.id,
                    finished_at: now,
                    ideal_duration: r.ideal_duration,
                    actual_duration: now - r.admitted_at,
                });
            } else {
                i += 1;
            }
        }
        if !done.is_empty() {
            self.epoch += 1;
        }
        done
    }

    /// Admits a job at `now` (after [`TimeSharedNode::advance`]).
    ///
    /// # Panics
    ///
    /// Panics if the node does not satisfy the job's requirements.
    pub fn admit(&mut self, job: JobSpec, dominant_clock: f64, now: f64) {
        assert!(job.satisfied_by(&self.spec), "run node must satisfy job");
        debug_assert!((now - self.last_advance).abs() < 1e-9, "advance first");
        let ideal = job.runtime_on(dominant_clock);
        self.residents.push(Resident {
            remaining: ideal,
            ideal_duration: ideal,
            admitted_at: now,
            job,
        });
        self.epoch += 1;
    }

    /// Time until the next resident completes, assuming rates stay
    /// constant (the scheduler re-evaluates on every residency change
    /// via the epoch counter). `None` when idle.
    pub fn next_completion_in(&self) -> Option<f64> {
        self.residents
            .iter()
            .map(|r| {
                let rate = self.job_rate(&r.job).max(1e-12);
                (r.remaining / rate).max(0.0)
            })
            .min_by(|a, b| a.total_cmp(b))
    }
}

/// Outcome of a time-shared simulation.
#[derive(Debug, Clone)]
pub struct TsResult {
    /// Per-job completion records.
    pub completions: Vec<TsCompletion>,
    /// When the last job finished.
    pub makespan: f64,
}

impl TsResult {
    /// Mean slowdown across jobs.
    pub fn mean_slowdown(&self) -> f64 {
        if self.completions.is_empty() {
            return 1.0;
        }
        self.completions
            .iter()
            .map(TsCompletion::slowdown)
            .sum::<f64>()
            / self.completions.len() as f64
    }

    /// The given slowdown quantile (nearest rank).
    pub fn slowdown_quantile(&self, q: f64) -> f64 {
        let mut s: Vec<f64> = self
            .completions
            .iter()
            .map(TsCompletion::slowdown)
            .collect();
        s.sort_by(|a, b| a.total_cmp(b));
        if s.is_empty() {
            return 1.0;
        }
        let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
        s[rank - 1]
    }
}

/// Placement policy for the time-shared executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TsPolicy {
    /// Admit at the satisfying node offering the best prospective rate
    /// (ties: fastest dominant-CE clock) — contention-aware.
    BestRate,
    /// Admit at a uniformly random satisfying node — the
    /// contention-oblivious baseline.
    Random,
}

/// Runs a timed job stream through processor-sharing nodes under the
/// given placement policy. Deterministic given the seed.
pub fn run_time_shared(
    population: &[NodeSpec],
    jobs: &[(f64, JobSpec)],
    layout: &pgrid_types::DimensionLayout,
    policy: TsPolicy,
    seed: u64,
) -> TsResult {
    use pgrid_simcore::{EventQueue, SimRng};

    #[derive(Debug)]
    enum Ev {
        Arrival(u32),
        Completion { node: usize, epoch: u64 },
    }

    let mut rng = SimRng::sub_stream(seed, 0x75D);
    let mut nodes: Vec<TimeSharedNode> = population
        .iter()
        .cloned()
        .map(TimeSharedNode::new)
        .collect();
    let mut queue: EventQueue<Ev> = EventQueue::new();
    for (i, (t, _)) in jobs.iter().enumerate() {
        queue.schedule(*t, Ev::Arrival(i as u32));
    }
    let mut completions = Vec::with_capacity(jobs.len());
    let mut makespan = 0.0f64;

    let reschedule = |queue: &mut EventQueue<Ev>, node: &TimeSharedNode, idx: usize, now: f64| {
        if let Some(dt) = node.next_completion_in() {
            queue.schedule(
                now + dt,
                Ev::Completion {
                    node: idx,
                    epoch: node.epoch,
                },
            );
        }
    };

    while completions.len() < jobs.len() {
        let (now, ev) = queue.pop().expect("jobs outstanding but queue empty");
        match ev {
            Ev::Arrival(i) => {
                let job = &jobs[i as usize].1;
                let dominant = layout.dominant_ce(job);
                let candidates: Vec<usize> = (0..nodes.len())
                    .filter(|&n| job.satisfied_by(&nodes[n].spec))
                    .collect();
                assert!(
                    !candidates.is_empty(),
                    "job {:?} unsatisfiable by population",
                    job.id
                );
                let chosen = match policy {
                    TsPolicy::Random => candidates[rng.below(candidates.len())],
                    TsPolicy::BestRate => {
                        // Rates depend on current progress only through
                        // residency, so no advance is needed to rank.
                        *candidates
                            .iter()
                            .max_by(|&&a, &&b| {
                                let ra = nodes[a].prospective_rate(job);
                                let rb = nodes[b].prospective_rate(job);
                                let ca = nodes[a].spec.ce(dominant).map_or(0.0, |c| c.clock);
                                let cb = nodes[b].spec.ce(dominant).map_or(0.0, |c| c.clock);
                                ra.total_cmp(&rb).then(ca.total_cmp(&cb)).then(b.cmp(&a))
                            })
                            .unwrap()
                    }
                };
                let clock = nodes[chosen].spec.ce(dominant).map_or(1.0, |c| c.clock);
                let node = &mut nodes[chosen];
                node.advance(now);
                let done = node.harvest(now);
                if !done.is_empty() {
                    makespan = makespan.max(now);
                }
                completions.extend(done);
                node.admit(job.clone(), clock, now);
                reschedule(&mut queue, node, chosen, now);
            }
            Ev::Completion { node: idx, epoch } => {
                if nodes[idx].epoch != epoch {
                    continue; // superseded by a residency change
                }
                let node = &mut nodes[idx];
                node.advance(now);
                let done = node.harvest(now);
                if !done.is_empty() {
                    makespan = makespan.max(now);
                }
                completions.extend(done);
                reschedule(&mut queue, node, idx, now);
            }
        }
    }
    TsResult {
        completions,
        makespan,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgrid_types::{CeRequirement, CeSpec, DimensionLayout};

    fn cpu_node(cores: u32) -> NodeSpec {
        NodeSpec::cpu_only(1.0, 8.0, cores, 100.0)
    }

    fn cpu_job(id: u32, cores: u32, work: f64) -> JobSpec {
        JobSpec::new(
            JobId(id),
            vec![CeRequirement {
                ce_type: CeType::CPU,
                min_cores: Some(cores),
                ..Default::default()
            }],
            None,
            work,
        )
    }

    #[test]
    fn uncontended_job_runs_at_full_rate() {
        let mut n = TimeSharedNode::new(cpu_node(4));
        n.admit(cpu_job(0, 2, 100.0), 1.0, 0.0);
        assert_eq!(n.next_completion_in(), Some(100.0));
        n.advance(100.0);
        let done = n.harvest(100.0);
        assert_eq!(done.len(), 1);
        assert!((done[0].slowdown() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn oversubscription_slows_proportionally() {
        // 4 cores, two jobs demanding 4 each: W=8, rate = 0.5.
        let mut n = TimeSharedNode::new(cpu_node(4));
        n.admit(cpu_job(0, 4, 100.0), 1.0, 0.0);
        n.admit(cpu_job(1, 4, 100.0), 1.0, 0.0);
        assert_eq!(n.ce_rate(CeType::CPU), Some(0.5));
        assert_eq!(n.next_completion_in(), Some(200.0));
        n.advance(200.0);
        let done = n.harvest(200.0);
        assert_eq!(done.len(), 2);
        for d in &done {
            assert!((d.slowdown() - 2.0).abs() < 1e-9);
        }
    }

    #[test]
    fn rates_rise_when_a_job_finishes() {
        // Job A (50s work) and job B (100s work) share: both at rate
        // 0.5 until A finishes at t=100; B then runs at 1.0 and
        // finishes its remaining 50s of work at t=150.
        let mut n = TimeSharedNode::new(cpu_node(4));
        n.admit(cpu_job(0, 4, 50.0), 1.0, 0.0);
        n.admit(cpu_job(1, 4, 100.0), 1.0, 0.0);
        n.advance(100.0);
        let first = n.harvest(100.0);
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].job_id, JobId(0));
        assert_eq!(n.next_completion_in(), Some(50.0));
        n.advance(150.0);
        let second = n.harvest(150.0);
        assert_eq!(second.len(), 1);
        assert!((second[0].actual_duration - 150.0).abs() < 1e-9);
    }

    #[test]
    fn dedicated_ce_time_slices() {
        let spec = NodeSpec::new(
            CeSpec::cpu(1.0, 8.0, 8),
            vec![CeSpec::gpu(0, 1.0, 4.0, 448)],
            100.0,
        );
        let gpu_job = |id: u32| {
            JobSpec::new(
                JobId(id),
                vec![CeRequirement {
                    ce_type: CeType::gpu(0),
                    min_cores: Some(100),
                    ..Default::default()
                }],
                None,
                100.0,
            )
        };
        let mut n = TimeSharedNode::new(spec);
        n.admit(gpu_job(0), 1.0, 0.0);
        assert_eq!(n.ce_rate(CeType::gpu(0)), Some(1.0));
        n.admit(gpu_job(1), 1.0, 0.0);
        assert_eq!(n.ce_rate(CeType::gpu(0)), Some(0.5));
    }

    #[test]
    fn multi_ce_job_gated_by_slowest_element() {
        let spec = NodeSpec::new(
            CeSpec::cpu(1.0, 8.0, 2),
            vec![CeSpec::gpu(0, 1.0, 4.0, 448)],
            100.0,
        );
        let mut n = TimeSharedNode::new(spec);
        // Saturate the CPU with a 2-core job, then admit a CUDA job
        // needing 1 CPU core + the GPU: CPU rate = 2/3, GPU rate = 1.
        n.admit(cpu_job(0, 2, 1000.0), 1.0, 0.0);
        let cuda = JobSpec::new(
            JobId(1),
            vec![
                CeRequirement {
                    ce_type: CeType::CPU,
                    min_cores: Some(1),
                    ..Default::default()
                },
                CeRequirement {
                    ce_type: CeType::gpu(0),
                    min_cores: Some(100),
                    ..Default::default()
                },
            ],
            None,
            90.0,
        );
        n.admit(cuda, 1.0, 0.0);
        let rate = n.ce_rate(CeType::CPU).unwrap();
        assert!((rate - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(n.ce_rate(CeType::gpu(0)), Some(1.0));
    }

    #[test]
    fn simulation_conserves_jobs_and_slowdowns_exceed_one() {
        use pgrid_workload::jobgen::{JobGenConfig, JobStream};
        use pgrid_workload::nodegen::{generate_nodes, NodeGenConfig};
        let layout = DimensionLayout::with_dims(11);
        let pop = generate_nodes(&NodeGenConfig::paper_defaults(2), 60, 41);
        let mut stream =
            JobStream::with_population(JobGenConfig::paper_defaults(2, 0.5, 20.0), 41, pop.clone());
        let jobs = stream.take_jobs(400);
        for policy in [TsPolicy::BestRate, TsPolicy::Random] {
            let r = run_time_shared(&pop, &jobs, &layout, policy, 41);
            assert_eq!(r.completions.len(), 400);
            for c in &r.completions {
                assert!(c.slowdown() >= 1.0 - 1e-6, "slowdown below 1: {:?}", c);
            }
            assert!(r.makespan > 0.0);
        }
    }

    #[test]
    fn best_rate_beats_random_placement() {
        use pgrid_workload::jobgen::{JobGenConfig, JobStream};
        use pgrid_workload::nodegen::{generate_nodes, NodeGenConfig};
        let layout = DimensionLayout::with_dims(11);
        let pop = generate_nodes(&NodeGenConfig::paper_defaults(2), 60, 43);
        let mut stream = JobStream::with_population(
            JobGenConfig::paper_defaults(2, 0.5, 6.0), // heavy load
            43,
            pop.clone(),
        );
        let jobs = stream.take_jobs(600);
        let best = run_time_shared(&pop, &jobs, &layout, TsPolicy::BestRate, 43);
        let rand = run_time_shared(&pop, &jobs, &layout, TsPolicy::Random, 43);
        assert!(
            best.mean_slowdown() <= rand.mean_slowdown(),
            "contention-aware {} vs random {}",
            best.mean_slowdown(),
            rand.mean_slowdown()
        );
    }

    #[test]
    fn slowdown_quantiles_are_order_statistics() {
        let r = TsResult {
            completions: vec![
                TsCompletion {
                    job_id: JobId(0),
                    finished_at: 1.0,
                    ideal_duration: 1.0,
                    actual_duration: 1.0,
                },
                TsCompletion {
                    job_id: JobId(1),
                    finished_at: 2.0,
                    ideal_duration: 1.0,
                    actual_duration: 2.0,
                },
                TsCompletion {
                    job_id: JobId(2),
                    finished_at: 3.0,
                    ideal_duration: 1.0,
                    actual_duration: 4.0,
                },
                TsCompletion {
                    job_id: JobId(3),
                    finished_at: 4.0,
                    ideal_duration: 1.0,
                    actual_duration: 8.0,
                },
            ],
            makespan: 4.0,
        };
        assert_eq!(r.slowdown_quantile(0.25), 1.0);
        assert_eq!(r.slowdown_quantile(0.5), 2.0);
        assert_eq!(r.slowdown_quantile(1.0), 8.0);
        assert!((r.mean_slowdown() - 3.75).abs() < 1e-12);
    }

    #[test]
    fn empty_result_defaults_to_unity() {
        let r = TsResult {
            completions: vec![],
            makespan: 0.0,
        };
        assert_eq!(r.mean_slowdown(), 1.0);
        assert_eq!(r.slowdown_quantile(0.5), 1.0);
    }

    #[test]
    fn deterministic_given_seed() {
        use pgrid_workload::jobgen::{JobGenConfig, JobStream};
        use pgrid_workload::nodegen::{generate_nodes, NodeGenConfig};
        let layout = DimensionLayout::with_dims(11);
        let pop = generate_nodes(&NodeGenConfig::paper_defaults(2), 30, 44);
        let mut stream =
            JobStream::with_population(JobGenConfig::paper_defaults(2, 0.5, 10.0), 44, pop.clone());
        let jobs = stream.take_jobs(200);
        let a = run_time_shared(&pop, &jobs, &layout, TsPolicy::Random, 44);
        let b = run_time_shared(&pop, &jobs, &layout, TsPolicy::Random, 44);
        assert_eq!(a.completions, b.completions);
    }
}
