//! Per-node execution state: CE occupancy and the FIFO waiting queue.
//!
//! The contention model is the paper's (§III-B):
//!
//! * a **dedicated** CE (2011-era GPU) runs exactly one job at a time;
//! * a **non-dedicated** CE (multi-core CPU) runs concurrent jobs up to
//!   its core count (each job occupies its required cores);
//! * there are **no cross-CE contention effects** ("we have found that
//!   there were no significant contention effects between separate
//!   CEs").
//!
//! Jobs wait in a single FIFO queue per node. A waiting job starts as
//! soon as every CE it needs has capacity *and* no earlier-queued job
//! is waiting for any of those CEs (conservative backfill: jobs that
//! need disjoint CEs may overtake, preserving per-CE FIFO order — a
//! GPU job never starves behind a CPU-bound queue head).

use pgrid_types::{CeRequirement, CeType, JobId, JobSpec, NodeId, NodeSpec};

/// Occupancy of one computing element.
#[derive(Debug, Clone)]
struct CeState {
    ce_type: CeType,
    dedicated: bool,
    total_cores: u32,
    used_cores: u32,
    running_jobs: u32,
    /// Waiters in the node's queue with a requirement on this CE, and
    /// the cores those requirements occupy: what a scan of the queue
    /// would count, kept as the queue changes (`DESIGN.md` §6,
    /// invariant C1). Written by [`NodeRuntime::count_waiter`] and
    /// zeroed by [`NodeRuntime::evict_split`], nowhere else.
    queued_jobs: u32,
    queued_cores: u32,
}

impl CeState {
    /// Whether the CE could take `r` now, were nobody queueing for it.
    fn has_room(&self, r: &CeRequirement) -> bool {
        if self.dedicated {
            self.running_jobs == 0
        } else {
            self.used_cores + r.occupied_cores() <= self.total_cores
        }
    }

    /// `(cores, required_cores)`: see [`NodeRuntime::load_of`].
    fn load(&self) -> (f64, f64) {
        let required = if self.dedicated {
            // A dedicated CE contributes its core count as capacity and
            // whole-CE units of demand.
            (f64::from(self.running_jobs) + f64::from(self.queued_jobs))
                * f64::from(self.total_cores)
        } else {
            f64::from(self.used_cores + self.queued_cores)
        };
        (f64::from(self.total_cores), required)
    }
}

/// A set of CE types (a [`CeType`] is one byte).
#[derive(Default)]
struct CeSet([u64; 4]);

impl CeSet {
    fn insert(&mut self, ty: CeType) {
        self.0[usize::from(ty.0 >> 6)] |= 1 << (ty.0 & 63);
    }

    fn contains(&self, ty: CeType) -> bool {
        self.0[usize::from(ty.0 >> 6)] & (1 << (ty.0 & 63)) != 0
    }
}

/// A job waiting in the node's FIFO queue.
#[derive(Debug, Clone)]
struct Waiting {
    job: JobSpec,
    queued_at: f64,
}

/// A job that just started executing (returned by the queue scan so the
/// simulator can schedule its completion).
#[derive(Debug, Clone)]
pub struct Started {
    /// The job that started.
    pub job: JobSpec,
    /// When it was placed in this node's queue.
    pub queued_at: f64,
}

/// Execution state of one grid node.
#[derive(Debug, Clone)]
pub struct NodeRuntime {
    /// The node's identity.
    pub id: NodeId,
    /// The node's static capabilities.
    pub spec: NodeSpec,
    ces: Vec<CeState>,
    queue: Vec<Waiting>,
    running: Vec<JobSpec>,
    available: bool,
}

impl NodeRuntime {
    /// Fresh idle runtime for a node.
    pub fn new(id: NodeId, spec: NodeSpec) -> Self {
        let ces = spec
            .ces()
            .iter()
            .map(|c| CeState {
                ce_type: c.ce_type,
                dedicated: c.dedicated,
                total_cores: c.cores,
                used_cores: 0,
                running_jobs: 0,
                queued_jobs: 0,
                queued_cores: 0,
            })
            .collect();
        NodeRuntime {
            id,
            spec,
            ces,
            queue: Vec::new(),
            running: Vec::new(),
            available: true,
        }
    }

    /// Whether the node is currently donating cycles. An *evicted*
    /// node (its owner reclaimed the desktop) keeps its CAN zone and
    /// DHT duties but starts no grid jobs until it returns.
    pub fn available(&self) -> bool {
        self.available
    }

    /// Takes the node offline for grid execution, returning every job
    /// it was running or queueing (the grid resubmits them; running
    /// work is lost, as on a real desktop reclaim).
    pub fn evict(&mut self) -> Vec<JobSpec> {
        let (mut running, queued) = self.evict_split();
        running.extend(queued);
        running
    }

    /// Like [`NodeRuntime::evict`], but keeps the running and queued
    /// jobs separate: crash accounting charges the partial execution of
    /// *running* jobs as wasted work, while queued jobs lose only their
    /// place in line.
    pub fn evict_split(&mut self) -> (Vec<JobSpec>, Vec<JobSpec>) {
        self.available = false;
        let running: Vec<JobSpec> = std::mem::take(&mut self.running);
        let queued: Vec<JobSpec> = std::mem::take(&mut self.queue)
            .into_iter()
            .map(|w| w.job)
            .collect();
        for ce in &mut self.ces {
            ce.used_cores = 0;
            ce.running_jobs = 0;
            ce.queued_jobs = 0;
            ce.queued_cores = 0;
        }
        (running, queued)
    }

    /// Brings the node back online. Call
    /// [`NodeRuntime::start_ready`] afterwards to start anything that
    /// queued up meanwhile.
    pub fn restore(&mut self) {
        self.available = true;
    }

    fn ce_state(&self, ty: CeType) -> Option<&CeState> {
        self.ces.iter().find(|c| c.ce_type == ty)
    }

    fn ce_state_mut(&mut self, ty: CeType) -> Option<&mut CeState> {
        self.ces.iter_mut().find(|c| c.ce_type == ty)
    }

    /// A **free node** has "no running or waiting jobs in its queue"
    /// (§II-B) — it can start any job it satisfies, immediately. An
    /// evicted node is never free.
    pub fn is_free(&self) -> bool {
        self.available && self.running.is_empty() && self.queue.is_empty()
    }

    /// Whether every CE the job needs has capacity *right now*
    /// (ignoring the queue).
    pub fn has_capacity(&self, job: &JobSpec) -> bool {
        job.ce_reqs
            .iter()
            .all(|r| self.ce_state(r.ce_type).is_some_and(|ce| ce.has_room(r)))
    }

    /// An **acceptable node** "can start a job's execution without
    /// waiting" (§III-B): it satisfies the job's requirements, every CE
    /// the job needs has capacity, and no queued job is already waiting
    /// on those CEs. The occupancy tests come first: under load they
    /// fail far more often than the static match, and cost less.
    pub fn is_acceptable(&self, job: &JobSpec) -> bool {
        self.available
            && job.ce_reqs.iter().all(|r| {
                self.ce_state(r.ce_type)
                    .is_some_and(|ce| ce.queued_jobs == 0 && ce.has_room(r))
            })
            && job.satisfied_by(&self.spec)
    }

    /// Number of waiting jobs.
    pub fn queued_count(&self) -> usize {
        self.queue.len()
    }

    /// Eq. 1 / Eq. 2 score for the CE of the given type; `None` when
    /// the node lacks that CE. Lower is better.
    pub fn score(&self, ty: CeType) -> Option<f64> {
        let ce = self.ce_state(ty)?;
        let spec = self.spec.ce(ty)?;
        if ce.dedicated {
            // Eq. 1: running + queued jobs needing this CE, over clock.
            Some(pgrid_types::score::score_dedicated(
                (ce.running_jobs + ce.queued_jobs) as usize,
                spec.clock,
            ))
        } else {
            // Eq. 2: required cores of running + waiting jobs, over
            // cores, over clock.
            Some(pgrid_types::score::score_non_dedicated(
                ce.used_cores + ce.queued_cores,
                ce.total_cores,
                spec.clock,
            ))
        }
    }

    /// Per-CE load numbers feeding the aggregated load information:
    /// `(cores, required_cores)` for the given CE type — required =
    /// cores held by running jobs plus cores requested by waiting jobs
    /// (dedicated CEs count whole-CE units).
    pub fn load_of(&self, ty: CeType) -> Option<(f64, f64)> {
        self.ce_state(ty).map(CeState::load)
    }

    /// [`NodeRuntime::load_of`] summed over the node's CEs in spec
    /// order: the CE-oblivious view can-hom and the pooled aggregate
    /// take of a node.
    pub fn pooled_load(&self) -> (f64, f64) {
        let (mut cores, mut required) = (0.0, 0.0);
        for ce in &self.ces {
            let (c, r) = ce.load();
            cores += c;
            required += r;
        }
        (cores, required)
    }

    /// Enters a waiter's requirements into the per-CE queue counters,
    /// or takes them out again when it leaves the queue. A requirement
    /// on a CE the node lacks counts nowhere, as in a scan.
    fn count_waiter(&mut self, job: &JobSpec, entered: bool) {
        for r in &job.ce_reqs {
            let Some(ce) = self.ce_state_mut(r.ce_type) else {
                continue;
            };
            if entered {
                ce.queued_jobs += 1;
                ce.queued_cores += r.occupied_cores();
            } else {
                ce.queued_jobs -= 1;
                ce.queued_cores -= r.occupied_cores();
            }
        }
    }

    /// Enqueues a job (after matchmaking chose this node as the run
    /// node). Call [`NodeRuntime::start_ready`] afterwards to start
    /// whatever can start.
    pub fn enqueue(&mut self, job: JobSpec, now: f64) {
        debug_assert!(
            job.satisfied_by(&self.spec),
            "run node must satisfy the job"
        );
        self.count_waiter(&job, true);
        self.queue.push(Waiting {
            job,
            queued_at: now,
        });
    }

    /// Overload shedding at a heartbeat boundary: removes waiters that
    /// exceeded `max_wait` seconds in queue (oldest first — `queued_at`
    /// is nondecreasing along the FIFO), then trims the queue from the
    /// front down to `slots`. Deterministic: depends only on the queue
    /// contents and `now`, never on randomness. Returns the shed jobs
    /// so the simulator can account for them.
    pub fn shed_overloaded(
        &mut self,
        now: f64,
        slots: Option<usize>,
        max_wait: Option<f64>,
    ) -> Vec<JobSpec> {
        let mut shed = Vec::new();
        if let Some(max_wait) = max_wait {
            let mut i = 0;
            while i < self.queue.len() {
                if now - self.queue[i].queued_at > max_wait {
                    shed.push(self.queue.remove(i).job);
                } else {
                    i += 1;
                }
            }
        }
        if let Some(slots) = slots {
            while self.queue.len() > slots {
                shed.push(self.queue.remove(0).job);
            }
        }
        for job in &shed {
            self.count_waiter(job, false);
        }
        shed
    }

    fn allocate(&mut self, job: &JobSpec) {
        for r in &job.ce_reqs {
            let occupied = r.occupied_cores();
            let ce = self
                .ce_state_mut(r.ce_type)
                .expect("allocation on missing CE");
            ce.running_jobs += 1;
            if ce.dedicated {
                debug_assert_eq!(ce.running_jobs, 1, "dedicated CE double-booked");
                ce.used_cores = ce.total_cores;
            } else {
                ce.used_cores += occupied;
                debug_assert!(ce.used_cores <= ce.total_cores, "CPU oversubscribed");
            }
        }
        self.running.push(job.clone());
    }

    /// Scans the FIFO queue and starts every job that can start under
    /// conservative backfill, returning them (the caller schedules
    /// their completions).
    pub fn start_ready(&mut self) -> Vec<Started> {
        if !self.available {
            return Vec::new();
        }
        let mut started = Vec::new();
        let mut blocked = CeSet::default();
        let mut i = 0;
        while i < self.queue.len() {
            let uses_blocked = self.queue[i]
                .job
                .ce_reqs
                .iter()
                .any(|r| blocked.contains(r.ce_type));
            if !uses_blocked && self.has_capacity(&self.queue[i].job) {
                let w = self.queue.remove(i);
                self.count_waiter(&w.job, false);
                self.allocate(&w.job);
                started.push(Started {
                    job: w.job,
                    queued_at: w.queued_at,
                });
                // Do not advance i: the next entry shifted into place.
            } else {
                for r in &self.queue[i].job.ce_reqs {
                    blocked.insert(r.ce_type);
                }
                i += 1;
            }
        }
        started
    }

    /// Releases a finished job's resources. Call
    /// [`NodeRuntime::start_ready`] afterwards.
    ///
    /// # Panics
    ///
    /// Panics if the job is not running on this node.
    pub fn finish(&mut self, job_id: JobId) {
        let idx = self
            .running
            .iter()
            .position(|j| j.id == job_id)
            .expect("finish of job not running here");
        let job = self.running.swap_remove(idx);
        for r in &job.ce_reqs {
            let occupied = r.occupied_cores();
            let ce = self.ce_state_mut(r.ce_type).expect("release on missing CE");
            debug_assert!(ce.running_jobs > 0);
            ce.running_jobs -= 1;
            if ce.dedicated {
                ce.used_cores = 0;
            } else {
                debug_assert!(ce.used_cores >= occupied);
                ce.used_cores -= occupied;
            }
        }
    }

    /// Test-time invariant check: every per-CE counter equals what a
    /// scan of the queue and of the running list counts.
    pub fn check_invariants(&self) {
        /// `(jobs, cores)` that `jobs` ask of the CE of type `ty`.
        fn demand<'a>(jobs: impl Iterator<Item = &'a JobSpec>, ty: CeType) -> (u32, u32) {
            jobs.filter_map(|j| j.req(ty))
                .fold((0, 0), |(n, c), r| (n + 1, c + r.occupied_cores()))
        }
        assert!(
            self.available || self.running.is_empty(),
            "{}: evicted node with running jobs",
            self.id
        );
        for ce in &self.ces {
            let ty = ce.ce_type;
            let (queued_jobs, queued_cores) = demand(self.queue.iter().map(|w| &w.job), ty);
            let (running_jobs, running_cores) = demand(self.running.iter(), ty);
            let used_cores = match (ce.dedicated, running_jobs) {
                (true, 0) => 0,
                (true, _) => ce.total_cores,
                (false, _) => running_cores,
            };
            assert_eq!(
                (
                    ce.queued_jobs,
                    ce.queued_cores,
                    ce.running_jobs,
                    ce.used_cores
                ),
                (queued_jobs, queued_cores, running_jobs, used_cores),
                "{} {ty}: (queued jobs, queued cores, running jobs, used cores) diverged",
                self.id
            );
            assert!(
                ce.used_cores <= ce.total_cores && !(ce.dedicated && ce.running_jobs > 1),
                "{} {ty}: oversubscribed",
                self.id
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgrid_types::{CeRequirement, CeSpec};
    use std::collections::HashSet;

    fn het_node() -> NodeRuntime {
        NodeRuntime::new(
            NodeId(0),
            NodeSpec::new(
                CeSpec::cpu(2.0, 8.0, 4),
                vec![CeSpec::gpu(0, 1.5, 4.0, 448)],
                500.0,
            ),
        )
    }

    fn cpu_job(id: u32, cores: u32) -> JobSpec {
        JobSpec::new(
            JobId(id),
            vec![CeRequirement {
                ce_type: CeType::CPU,
                min_cores: Some(cores),
                ..Default::default()
            }],
            None,
            3600.0,
        )
    }

    fn gpu_job(id: u32) -> JobSpec {
        JobSpec::new(
            JobId(id),
            vec![
                CeRequirement {
                    ce_type: CeType::CPU,
                    min_cores: Some(1),
                    ..Default::default()
                },
                CeRequirement {
                    ce_type: CeType::gpu(0),
                    min_cores: Some(128),
                    ..Default::default()
                },
            ],
            None,
            3600.0,
        )
    }

    #[test]
    fn fresh_node_is_free_and_acceptable() {
        let n = het_node();
        assert!(n.is_free());
        assert!(n.is_acceptable(&cpu_job(0, 2)));
        assert!(n.is_acceptable(&gpu_job(1)));
    }

    #[test]
    fn cpu_shares_cores_up_to_capacity() {
        let mut n = het_node();
        n.enqueue(cpu_job(0, 2), 0.0);
        n.enqueue(cpu_job(1, 2), 0.0);
        let started = n.start_ready();
        assert_eq!(started.len(), 2, "4 cores fit two 2-core jobs");
        assert!(!n.is_free());
        // A third 2-core job must wait.
        n.enqueue(cpu_job(2, 2), 1.0);
        assert!(n.start_ready().is_empty());
        assert_eq!(n.queued_count(), 1);
    }

    #[test]
    fn dedicated_gpu_runs_one_job_at_a_time() {
        let mut n = het_node();
        n.enqueue(gpu_job(0), 0.0);
        assert_eq!(n.start_ready().len(), 1);
        n.enqueue(gpu_job(1), 0.0);
        assert!(n.start_ready().is_empty(), "GPU is dedicated");
        n.finish(JobId(0));
        assert_eq!(n.start_ready().len(), 1);
    }

    #[test]
    fn gpu_job_backfills_past_blocked_cpu_queue() {
        let mut n = het_node();
        // Fill the CPU.
        n.enqueue(cpu_job(0, 4), 0.0);
        assert_eq!(n.start_ready().len(), 1);
        // CPU-waiting job blocks the CPU queue...
        n.enqueue(cpu_job(1, 4), 1.0);
        assert!(n.start_ready().is_empty());
        // ...but a GPU job needing 1 CPU core must also wait (CPU full),
        // while a pure GPU job (no CPU core free required) could pass.
        // Make the GPU job CPU-free to test backfill:
        let pure_gpu = JobSpec::new(
            JobId(2),
            vec![CeRequirement {
                ce_type: CeType::gpu(0),
                min_cores: Some(128),
                ..Default::default()
            }],
            None,
            60.0,
        );
        n.enqueue(pure_gpu, 2.0);
        let started = n.start_ready();
        assert_eq!(started.len(), 1, "GPU job backfills past blocked CPU job");
        assert_eq!(started[0].job.id, JobId(2));
    }

    #[test]
    fn backfill_preserves_per_ce_fifo() {
        let mut n = het_node();
        n.enqueue(cpu_job(0, 4), 0.0);
        assert_eq!(n.start_ready().len(), 1);
        n.enqueue(cpu_job(1, 1), 1.0); // waits: CPU full
        n.enqueue(cpu_job(2, 1), 2.0); // must NOT overtake job 1
        assert!(n.start_ready().is_empty());
        n.finish(JobId(0));
        let started = n.start_ready();
        let ids: Vec<JobId> = started.iter().map(|s| s.job.id).collect();
        assert_eq!(ids, vec![JobId(1), JobId(2)], "FIFO order per CE");
    }

    #[test]
    fn acceptability_respects_queue() {
        let mut n = het_node();
        n.enqueue(cpu_job(0, 4), 0.0);
        n.start_ready();
        n.enqueue(cpu_job(1, 1), 1.0); // waiting on CPU
        assert!(n.start_ready().is_empty());
        // CPU has no capacity and a waiter: not acceptable for CPU work.
        assert!(!n.is_acceptable(&cpu_job(9, 1)));
        // The GPU is idle and un-waited: acceptable for pure GPU work.
        let pure_gpu = JobSpec::new(
            JobId(3),
            vec![CeRequirement {
                ce_type: CeType::gpu(0),
                min_cores: None,
                min_clock: None,
                min_memory: None,
            }],
            None,
            60.0,
        );
        assert!(n.is_acceptable(&pure_gpu));
    }

    #[test]
    fn scores_reflect_load() {
        let mut n = het_node();
        assert_eq!(n.score(CeType::CPU), Some(0.0));
        assert_eq!(n.score(CeType::gpu(0)), Some(0.0));
        assert_eq!(n.score(CeType::gpu(1)), None, "absent CE has no score");
        n.enqueue(cpu_job(0, 2), 0.0);
        n.start_ready();
        // Eq 2: (2/4)/2.0 = 0.25
        assert_eq!(n.score(CeType::CPU), Some(0.25));
        n.enqueue(gpu_job(1), 0.0);
        n.start_ready();
        // Eq 1 on the GPU: 1 job / 1.5 clock
        let s = n.score(CeType::gpu(0)).unwrap();
        assert!((s - 1.0 / 1.5).abs() < 1e-12);
    }

    #[test]
    fn queued_jobs_count_toward_scores() {
        let mut n = het_node();
        n.enqueue(cpu_job(0, 4), 0.0);
        n.start_ready();
        n.enqueue(cpu_job(1, 4), 1.0); // waiting
        n.start_ready();
        // Eq 2: (4 running + 4 waiting)/4 cores / 2.0 clock = 1.0
        assert_eq!(n.score(CeType::CPU), Some(1.0));
    }

    #[test]
    fn load_of_reports_capacity_and_demand() {
        let mut n = het_node();
        assert_eq!(n.load_of(CeType::CPU), Some((4.0, 0.0)));
        assert_eq!(n.load_of(CeType::gpu(0)), Some((448.0, 0.0)));
        assert_eq!(n.load_of(CeType::gpu(1)), None);
        n.enqueue(gpu_job(0), 0.0);
        n.start_ready();
        let (cores, required) = n.load_of(CeType::gpu(0)).unwrap();
        assert_eq!(cores, 448.0);
        assert_eq!(required, 448.0, "dedicated CE fully occupied");
        let (_, cpu_req) = n.load_of(CeType::CPU).unwrap();
        assert_eq!(cpu_req, 1.0);
    }

    #[test]
    #[should_panic(expected = "not running")]
    fn finishing_unknown_job_panics() {
        let mut n = het_node();
        n.finish(JobId(99));
    }

    #[test]
    fn eviction_drains_jobs_and_blocks_starts() {
        let mut n = het_node();
        n.enqueue(cpu_job(0, 2), 0.0);
        n.start_ready();
        n.enqueue(cpu_job(1, 4), 1.0); // waiting
        let drained = n.evict();
        assert_eq!(drained.len(), 2, "running + queued jobs returned");
        assert!(!n.available());
        assert!(!n.is_free());
        assert!(!n.is_acceptable(&cpu_job(9, 1)));
        // Jobs enqueued while offline do not start.
        n.enqueue(cpu_job(2, 1), 2.0);
        assert!(n.start_ready().is_empty());
        // After restore they do.
        n.restore();
        assert_eq!(n.start_ready().len(), 1);
        assert!(n.available());
    }

    #[test]
    fn shedding_removes_over_wait_then_trims_to_slots() {
        let mut n = het_node();
        n.enqueue(cpu_job(0, 4), 0.0);
        n.start_ready();
        // Four waiters queued at 10, 20, 30, 40.
        for (i, t) in [(1u32, 10.0), (2, 20.0), (3, 30.0), (4, 40.0)] {
            n.enqueue(cpu_job(i, 4), t);
        }
        assert!(n.start_ready().is_empty());
        // At t=200 with max_wait=175: jobs 1 (190 s) and 2 (180 s) are
        // over the bound, oldest first.
        let shed = n.shed_overloaded(200.0, None, Some(175.0));
        assert_eq!(
            shed.iter().map(|j| j.id).collect::<Vec<_>>(),
            [JobId(1), JobId(2)]
        );
        // Slot trim takes the oldest remaining waiter from the front.
        let shed = n.shed_overloaded(200.0, Some(1), None);
        assert_eq!(shed.iter().map(|j| j.id).collect::<Vec<_>>(), [JobId(3)]);
        assert_eq!(n.queued_count(), 1);
        // Within bounds: nothing shed.
        assert!(n.shed_overloaded(200.0, Some(1), Some(175.0)).is_empty());
    }

    // ------------------------------------------- queue-scan references
    //
    // The queue-scan bodies of `score`, `load_of`, `is_acceptable` and
    // `start_ready`, spelled out: what the runtime's answers are held
    // to after every operation of a random sequence.

    fn scan_queued_jobs(n: &NodeRuntime, ty: CeType) -> u32 {
        n.queue.iter().filter(|w| w.job.req(ty).is_some()).count() as u32
    }

    fn scan_queued_cores(n: &NodeRuntime, ty: CeType) -> u32 {
        n.queue
            .iter()
            .filter_map(|w| w.job.req(ty).map(|r| r.occupied_cores()))
            .sum()
    }

    fn scan_score(n: &NodeRuntime, ty: CeType) -> Option<f64> {
        let ce = n.ce_state(ty)?;
        let spec = n.spec.ce(ty)?;
        Some(if ce.dedicated {
            pgrid_types::score::score_dedicated(
                (ce.running_jobs + scan_queued_jobs(n, ty)) as usize,
                spec.clock,
            )
        } else {
            pgrid_types::score::score_non_dedicated(
                ce.used_cores + scan_queued_cores(n, ty),
                ce.total_cores,
                spec.clock,
            )
        })
    }

    fn scan_load_of(n: &NodeRuntime, ty: CeType) -> Option<(f64, f64)> {
        let ce = n.ce_state(ty)?;
        Some(if ce.dedicated {
            let queued = n.queue.iter().filter(|w| w.job.req(ty).is_some()).count() as f64;
            (
                f64::from(ce.total_cores),
                (f64::from(ce.running_jobs) + queued) * f64::from(ce.total_cores),
            )
        } else {
            (
                f64::from(ce.total_cores),
                f64::from(ce.used_cores + scan_queued_cores(n, ty)),
            )
        })
    }

    fn scan_is_acceptable(n: &NodeRuntime, job: &JobSpec) -> bool {
        if !n.available || !job.satisfied_by(&n.spec) || !n.has_capacity(job) {
            return false;
        }
        let blocked: HashSet<CeType> = n
            .queue
            .iter()
            .flat_map(|w| w.job.ce_reqs.iter().map(|r| r.ce_type))
            .collect();
        job.ce_reqs.iter().all(|r| !blocked.contains(&r.ce_type))
    }

    /// Conservative backfill with a `HashSet` blocked set; consumes a
    /// copy of the node and returns the ids it starts, in order.
    fn scan_start_ready(mut n: NodeRuntime) -> Vec<JobId> {
        let mut started = Vec::new();
        if !n.available {
            return started;
        }
        let mut blocked: HashSet<CeType> = HashSet::new();
        let mut i = 0;
        while i < n.queue.len() {
            let uses_blocked = n.queue[i]
                .job
                .ce_reqs
                .iter()
                .any(|r| blocked.contains(&r.ce_type));
            if !uses_blocked && n.has_capacity(&n.queue[i].job) {
                let w = n.queue.remove(i);
                n.allocate(&w.job);
                started.push(w.job.id);
            } else {
                blocked.extend(n.queue[i].job.ce_reqs.iter().map(|r| r.ce_type));
                i += 1;
            }
        }
        started
    }

    /// CPU + dedicated GPU + a second dedicated GPU.
    fn three_ce_node() -> NodeRuntime {
        NodeRuntime::new(
            NodeId(0),
            NodeSpec::new(
                CeSpec::cpu(2.0, 8.0, 4),
                vec![CeSpec::gpu(0, 1.5, 4.0, 448), CeSpec::gpu(1, 0.9, 2.0, 240)],
                500.0,
            ),
        )
    }

    fn job_on(id: u32, reqs: &[(CeType, Option<u32>)]) -> JobSpec {
        JobSpec::new(
            JobId(id),
            reqs.iter()
                .map(|&(ce_type, min_cores)| CeRequirement {
                    ce_type,
                    min_cores,
                    ..Default::default()
                })
                .collect(),
            None,
            600.0,
        )
    }

    /// A job of one to three requirements the three-CE node satisfies,
    /// some leaving `min_cores` open.
    fn random_job(id: u32, rng: &mut pgrid_simcore::SimRng) -> JobSpec {
        let cores = |rng: &mut pgrid_simcore::SimRng, choices: &[u32]| {
            (rng.below(3) > 0).then(|| *rng.pick(choices))
        };
        let mut reqs = Vec::new();
        let subset = 1 + rng.below(7);
        if subset & 1 != 0 {
            reqs.push((CeType::CPU, cores(rng, &[1, 2, 3, 4])));
        }
        if subset & 2 != 0 {
            reqs.push((CeType::gpu(0), cores(rng, &[64, 128, 448])));
        }
        if subset & 4 != 0 {
            reqs.push((CeType::gpu(1), cores(rng, &[32, 240])));
        }
        job_on(id, &reqs)
    }

    #[test]
    fn random_operation_sequences_match_the_queue_scans() {
        let (cpu, g0, g1) = (CeType::CPU, CeType::gpu(0), CeType::gpu(1));
        let types = [cpu, g0, g1, CeType::gpu(2)];
        let mut probes = vec![
            job_on(900, &[(cpu, Some(1))]),
            job_on(901, &[(cpu, Some(4))]),
            job_on(902, &[(cpu, None)]),
            job_on(903, &[(g0, Some(128))]),
            job_on(904, &[(g1, None)]),
            job_on(905, &[(cpu, Some(1)), (g0, None)]),
            job_on(906, &[(cpu, Some(2)), (g0, Some(64)), (g1, Some(32))]),
            // Two the node can never run: a CE it lacks, a clock it lacks.
            job_on(907, &[(CeType::gpu(2), None)]),
            job_on(908, &[(cpu, Some(1))]),
        ];
        probes[8].ce_reqs[0].min_clock = Some(9.0);

        let mut ops_run = [0usize; 7];
        for seed in 0..24u64 {
            let mut rng = pgrid_simcore::SimRng::seed_from_u64(seed);
            let mut n = three_ce_node();
            let mut running: Vec<JobId> = Vec::new();
            let mut next_id = 0u32;
            let mut now = 0.0f64;
            for step in 0..500 {
                now += rng.unit() * 40.0;
                let op = [0, 0, 0, 1, 1, 2, 2, 3, 4, 5, 6][rng.below(11)];
                ops_run[op] += 1;
                match op {
                    0 => {
                        n.enqueue(random_job(next_id, &mut rng), now);
                        next_id += 1;
                    }
                    1 => {
                        let want = scan_start_ready(n.clone());
                        let got: Vec<JobId> = n.start_ready().iter().map(|s| s.job.id).collect();
                        assert_eq!(got, want, "seed {seed} step {step}: start order");
                        running.extend(got);
                    }
                    2 => {
                        if !running.is_empty() {
                            n.finish(running.swap_remove(rng.below(running.len())));
                        }
                    }
                    3 => {
                        let slots = [None, Some(0), Some(2), Some(5)][rng.below(4)];
                        let max_wait = [None, Some(30.0), Some(200.0)][rng.below(3)];
                        let before = n.queued_count();
                        let shed = n.shed_overloaded(now, slots, max_wait);
                        assert_eq!(n.queued_count() + shed.len(), before);
                    }
                    4 => {
                        let (was_running, _) = n.evict_split();
                        assert_eq!(was_running.len(), running.len());
                        running.clear();
                    }
                    5 => n.restore(),
                    _ => {
                        let drained = n.evict();
                        assert!(drained.len() >= running.len());
                        running.clear();
                        n.restore();
                    }
                }
                n.check_invariants();
                for ty in types {
                    assert_eq!(
                        n.score(ty).map(f64::to_bits),
                        scan_score(&n, ty).map(f64::to_bits),
                        "seed {seed} step {step} op {op}: score({ty})"
                    );
                    assert_eq!(
                        n.load_of(ty).map(|(c, r)| (c.to_bits(), r.to_bits())),
                        scan_load_of(&n, ty).map(|(c, r)| (c.to_bits(), r.to_bits())),
                        "seed {seed} step {step} op {op}: load_of({ty})"
                    );
                }
                for probe in &probes {
                    assert_eq!(
                        n.is_acceptable(probe),
                        scan_is_acceptable(&n, probe),
                        "seed {seed} step {step} op {op}: is_acceptable({:?})",
                        probe.id
                    );
                }
            }
        }
        assert!(
            ops_run.iter().all(|&k| k > 300),
            "every op ran: {ops_run:?}"
        );
    }

    #[test]
    fn finish_releases_everything() {
        let mut n = het_node();
        n.enqueue(gpu_job(0), 0.0);
        n.start_ready();
        n.finish(JobId(0));
        assert!(n.is_free());
        assert_eq!(n.score(CeType::CPU), Some(0.0));
        assert_eq!(n.score(CeType::gpu(0)), Some(0.0));
    }
}
