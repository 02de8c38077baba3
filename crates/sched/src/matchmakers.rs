//! The three matchmakers of the evaluation (§V-A):
//!
//! * [`PushingMatchmaker`] in [`PushMode::Heterogeneous`] — the paper's
//!   contribution (**can-het**): Algorithm 1, with acceptable-node
//!   search, dominant-CE scoring and per-CE aggregated load;
//! * [`PushingMatchmaker`] in [`PushMode::Homogeneous`] — the prior
//!   system (**can-hom**): same CAN and pushing skeleton but oblivious
//!   to computing elements (free-node search only, pooled aggregates,
//!   node-level CPU-centric scoring);
//! * [`CentralMatchmaker`] — the greedy online **central** baseline
//!   with perfect, always-fresh global information.

use crate::aggregate::{AiEntry, AiGrouping, AiTable};
use crate::grid::StaticGrid;
use crate::node_runtime::NodeRuntime;
use pgrid_simcore::SimRng;
use pgrid_types::score::{objective_fd, stop_probability};
use pgrid_types::{CeType, DimensionLayout, JobSpec, NodeId};

/// Parameters of the probabilistic pushing algorithm.
#[derive(Debug, Clone)]
pub struct PushParams {
    /// Stopping factor SF of Eq. 4 (larger stops sooner).
    pub stopping_factor: f64,
}

impl Default for PushParams {
    fn default() -> Self {
        PushParams {
            stopping_factor: 2.0,
        }
    }
}

/// Hard cap on pushes per job (a safety net; rarely reached).
const MAX_PUSHES: usize = 64;

/// Where a job ended up and how much work it took to decide.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// The chosen run node.
    pub node: NodeId,
    /// CAN routing hops to reach the job's coordinate.
    pub route_hops: usize,
    /// Push steps taken after routing.
    pub pushes: usize,
    /// Whether the neighborhood search failed and a global fallback
    /// scan chose the node (should be rare; reported in stats).
    pub fallback: bool,
}

/// A matchmaking policy.
pub trait Matchmaker {
    /// Short label ("can-het", "can-hom", "central").
    fn name(&self) -> &'static str;
    /// Chooses a run node for `job` given the grid's current state.
    fn place(&mut self, grid: &StaticGrid, job: &JobSpec, rng: &mut SimRng) -> Placement;
    /// Periodic refresh hook (aggregated load information).
    fn refresh(&mut self, _grid: &StaticGrid, _now: f64) {}
    /// [`Matchmaker::refresh`] with a zone-region lane assignment. The
    /// default delegates to it, no matchmaker here overrides it, and
    /// nothing in the library calls it: the hook stays only because the
    /// repo benchmark names it (ROADMAP item 3).
    fn refresh_threaded(&mut self, grid: &StaticGrid, now: f64, _shards: &crate::GridShards) {
        self.refresh(grid, now);
    }
    /// Arms the queue-pressure congestion bit in the aggregated load
    /// information (overload control): a node whose queue depth
    /// reaches `bound` is flagged as pressured, and pushers stop
    /// steering into regions where every node is flagged. `None`
    /// (the default) disarms the bit; matchmakers without aggregates
    /// ignore it.
    fn set_pressure_bound(&mut self, _bound: Option<usize>) {}
}

/// Whether the pushing matchmaker understands computing elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushMode {
    /// can-het: CE-aware (the paper's Algorithm 1).
    Heterogeneous,
    /// can-hom: CE-oblivious prior system.
    Homogeneous,
}

/// Feature toggles for ablation studies of can-het's ingredients
/// (everything on = Algorithm 1; see `pgrid figure ablation`).
#[derive(Debug, Clone, Copy)]
pub struct HetFeatures {
    /// Accept *acceptable* nodes, not only free nodes (§III-B).
    pub acceptable_nodes: bool,
    /// Rank and score by the job's dominant CE rather than the CPU.
    pub dominant_ce: bool,
    /// Per-CE aggregated load information for Eq. 3 / Eq. 4.
    pub per_ce_ai: bool,
}

impl HetFeatures {
    /// Full Algorithm 1.
    pub fn all() -> Self {
        HetFeatures {
            acceptable_nodes: true,
            dominant_ce: true,
            per_ce_ai: true,
        }
    }
}

/// What stays fixed from the end of a job's route until
/// [`Matchmaker::place`] returns.
struct Walk {
    /// The CE type ranking and scoring go by.
    ce: CeType,
    /// Its slot in the aggregate table; `None` for a type the layout
    /// does not carry, whose every region reads empty.
    slot: Option<usize>,
    /// The job's coordinate with the virtual dimension, which carries
    /// no resource ordering, at −∞: a zone whose `hi` is not above it
    /// in every dimension can hold no node that satisfies the job.
    need: Vec<f64>,
}

/// What the current placement knows about one node (`DESIGN.md` §6,
/// "The push walk: what a candidate costs").
#[derive(Clone, Copy, Default)]
struct Seen {
    /// The placement generation the other fields belong to; under any
    /// other value nothing is known. Generation 0 is never current.
    gen: u32,
    /// Never a push target again: the walk stood here, or the zone lies
    /// below the job's coordinate. The two need no telling apart (M2).
    out: bool,
    /// Which objective `fd` is: the dimension of an outward move,
    /// `dims` for the inward virtual one (a layout has at most
    /// 5 + 3·255 dimensions), [`Seen::NO_OBJECTIVE`] before the first.
    key: u16,
    /// Eq. 3 for a push to this node by move `key`. Nothing it is
    /// computed from can change while `place` borrows the grid (M1).
    fd: f64,
}

impl Seen {
    const NO_OBJECTIVE: u16 = u16::MAX;
}

/// The decentralized CAN matchmaker (both modes).
pub struct PushingMatchmaker {
    mode: PushMode,
    features: HetFeatures,
    ai: AiTable,
    params: PushParams,
    /// One row per node, reused across placements: a row counts only
    /// while its `gen` equals `cur_gen`, so opening a placement is one
    /// counter bump and the push loop allocates nothing.
    seen: Vec<Seen>,
    cur_gen: u32,
}

impl PushingMatchmaker {
    /// can-het over the given grid.
    pub fn heterogeneous(grid: &StaticGrid, params: PushParams) -> Self {
        Self::with_features(grid, params, HetFeatures::all())
    }

    /// can-het with selected ingredients disabled (ablations).
    pub fn with_features(grid: &StaticGrid, params: PushParams, features: HetFeatures) -> Self {
        let grouping = if features.per_ce_ai {
            AiGrouping::PerCe
        } else {
            AiGrouping::Pooled
        };
        PushingMatchmaker {
            mode: PushMode::Heterogeneous,
            features,
            ai: AiTable::new(grid, grouping),
            params,
            seen: vec![Seen::default(); grid.len()],
            cur_gen: 0,
        }
    }

    /// can-hom over the given grid.
    pub fn homogeneous(grid: &StaticGrid, params: PushParams) -> Self {
        PushingMatchmaker {
            mode: PushMode::Homogeneous,
            features: HetFeatures {
                acceptable_nodes: false,
                dominant_ce: false,
                per_ce_ai: false,
            },
            ai: AiTable::new(grid, AiGrouping::Pooled),
            params,
            seen: vec![Seen::default(); grid.len()],
            cur_gen: 0,
        }
    }

    /// Moves the placement generation counter, so a test can stand
    /// just short of its wrap.
    #[cfg(test)]
    fn set_generation(&mut self, gen: u32) {
        self.cur_gen = gen;
    }

    /// The CE type driving ranking/scoring for this job.
    fn ranking_ce(&self, grid: &StaticGrid, job: &JobSpec) -> CeType {
        if self.features.dominant_ce {
            grid.layout().dominant_ce(job)
        } else {
            CeType::CPU
        }
    }

    /// Clock of the ranking CE on a node (0 if absent — never chosen
    /// over a node that has it, among satisfying nodes it exists).
    fn ranking_clock(grid: &StaticGrid, node: NodeId, ce: CeType) -> f64 {
        grid.runtime(node).spec.ce(ce).map_or(0.0, |c| c.clock)
    }

    /// Eq. 1/2 score of a node for the ranking CE; can-hom uses the
    /// pooled node-level score (total demand over total cores, scaled
    /// by the CPU clock — the CE-oblivious view).
    fn node_score(&self, grid: &StaticGrid, node: NodeId, ce: CeType) -> f64 {
        let rt = grid.runtime(node);
        match self.mode {
            PushMode::Heterogeneous => rt.score(ce).unwrap_or(f64::INFINITY),
            PushMode::Homogeneous => {
                let (cores, required) = rt.pooled_load();
                if cores <= 0.0 {
                    f64::INFINITY
                } else {
                    (required / cores) / rt.spec.cpu().clock
                }
            }
        }
    }

    /// A node "can start the job now" under this mode: acceptable-node
    /// semantics for can-het, strict free-node for can-hom.
    fn can_start_now(&self, grid: &StaticGrid, node: NodeId, job: &JobSpec) -> bool {
        let rt = grid.runtime(node);
        if self.features.acceptable_nodes {
            rt.is_acceptable(job)
        } else {
            rt.is_free() && job.satisfied_by(&rt.spec)
        }
    }

    /// Candidate pool at a pushing step: the current node plus its
    /// neighbors, as a non-allocating iterator over the CSR cache. The
    /// neighbors come face by face, not by id; both picks below break
    /// ties by id, so the order never shows.
    fn neighborhood(
        grid: &StaticGrid,
        current: NodeId,
    ) -> impl Iterator<Item = NodeId> + Clone + '_ {
        std::iter::once(current).chain(grid.neighbors(current).iter().copied())
    }

    /// Single-pass selection over `cands`: prefer free nodes among the
    /// startable (Algorithm 1 lines 5–8), then the fastest clock for
    /// the ranking CE, tie-broken toward the lower node id.
    fn pick_startable(
        &self,
        grid: &StaticGrid,
        cands: impl Iterator<Item = NodeId>,
        job: &JobSpec,
        ce: CeType,
    ) -> Option<NodeId> {
        let mut best_startable: Option<(NodeId, f64)> = None;
        let mut best_free: Option<(NodeId, f64)> = None;
        for n in cands {
            if !self.can_start_now(grid, n, job) {
                continue;
            }
            let clock = Self::ranking_clock(grid, n, ce);
            let beats = |best: Option<(NodeId, f64)>| match best {
                None => true,
                Some((bn, bc)) => match clock.total_cmp(&bc) {
                    std::cmp::Ordering::Greater => true,
                    std::cmp::Ordering::Equal => n < bn,
                    std::cmp::Ordering::Less => false,
                },
            };
            if beats(best_startable) {
                best_startable = Some((n, clock));
            }
            if grid.runtime(n).is_free() && beats(best_free) {
                best_free = Some((n, clock));
            }
        }
        best_free.or(best_startable).map(|(n, _)| n)
    }

    fn pick_min_score(
        &self,
        grid: &StaticGrid,
        cands: impl Iterator<Item = NodeId> + Clone,
        job: &JobSpec,
        ce: CeType,
    ) -> Option<NodeId> {
        let best = |available_only: bool| {
            let mut best: Option<(NodeId, f64)> = None;
            for n in cands.clone() {
                let rt = grid.runtime(n);
                if (available_only && !rt.available()) || !job.satisfied_by(&rt.spec) {
                    continue;
                }
                let score = self.node_score(grid, n, ce);
                let take = match best {
                    None => true,
                    Some((bn, bs)) => match score.total_cmp(&bs) {
                        std::cmp::Ordering::Less => true,
                        std::cmp::Ordering::Equal => n < bn,
                        std::cmp::Ordering::Greater => false,
                    },
                };
                if take {
                    best = Some((n, score));
                }
            }
            best.map(|(n, _)| n)
        };
        // Prefer nodes currently donating cycles; if every satisfying
        // candidate is evicted, queue on one anyway (it will run the
        // job when its owner returns).
        best(true).or_else(|| best(false))
    }

    /// The load a node adds to a region of the aggregate: the ranking
    /// CE's alone (nothing from a node without it), or every CE pooled.
    fn local_load(&self, rt: &NodeRuntime, ce: CeType) -> Option<(f64, f64)> {
        match self.ai.grouping() {
            AiGrouping::PerCe => rt.load_of(ce),
            AiGrouping::Pooled => Some(rt.pooled_load()),
        }
    }

    /// The aggregate of the region beyond `n` along `dim`, as of the
    /// last refresh.
    fn region_beyond(&mut self, grid: &StaticGrid, w: &Walk, n: NodeId, dim: usize) -> AiEntry {
        match w.slot {
            Some(slot) => self.ai.entry_at(grid, n, dim, slot),
            None => AiEntry::EMPTY,
        }
    }

    /// Eq. 3 evaluated on a single node's local load (used for lateral
    /// moves along the virtual dimension, where no outward aggregate
    /// exists).
    fn local_objective(&self, grid: &StaticGrid, w: &Walk, n: NodeId) -> f64 {
        let (cores, required) = self.local_load(grid.runtime(n), w.ce).unwrap_or((0.0, 0.0));
        objective_fd(required, cores)
    }

    /// The pushing objective of moving toward neighbor `n` along `dim`:
    /// Eq. 3 over the region at-and-beyond `n`.
    fn push_objective(&mut self, grid: &StaticGrid, w: &Walk, n: NodeId, dim: usize) -> f64 {
        let mut region = self.region_beyond(grid, w, n, dim);
        // Include the target node itself in the region estimate.
        let rt = grid.runtime(n);
        if let Some((cores, required)) = self.local_load(rt, w.ce) {
            region.nodes += 1;
            region.cores += cores;
            region.required_cores += required;
            region.pressured += u64::from(
                self.ai
                    .pressure_bound()
                    .is_some_and(|b| rt.queued_count() >= b),
            );
        }
        // Congestion signal: a region whose every known node is at its
        // queue-pressure bound is saturated — never steer into it while
        // the aggregate says there is nothing to gain there. INFINITY
        // is unselectable in the push loop's `better` comparison, so
        // the walk routes around saturated regions even while the
        // aggregate is stale. Disarmed, `pressured` is always 0 and
        // this branch never fires.
        if region.nodes > 0 && region.pressured >= region.nodes {
            return f64::INFINITY;
        }
        region.objective()
    }

    /// Eq. 3 for a push to `n` across the `(dim, dir)` face — toward
    /// the origin, which only the virtual dimension allows, there is no
    /// aggregate and the target's own load is judged.
    fn objective(&mut self, grid: &StaticGrid, w: &Walk, n: NodeId, dim: usize, dir: i8) -> f64 {
        if dir == 1 {
            self.push_objective(grid, w, n, dim)
        } else {
            self.local_objective(grid, w, n)
        }
    }

    /// Opens a fresh placement generation (wrap: clear every row, so
    /// generation 1 starts from knowing nothing again).
    fn open_generation(&mut self, nodes: usize) {
        if self.seen.len() < nodes {
            self.seen.resize(nodes, Seen::default());
        }
        self.cur_gen = self.cur_gen.wrapping_add(1);
        if self.cur_gen == 0 {
            self.seen.fill(Seen::default());
            self.cur_gen = 1;
        }
    }

    /// Marks `n` as a node the walk stood on.
    fn visit(&mut self, n: NodeId) {
        self.seen[n.idx()] = Seen {
            gen: self.cur_gen,
            out: true,
            ..Seen::default()
        };
    }

    /// [`PushingMatchmaker::objective`] of the face neighbor `n` of the
    /// walk's current node, or `None` when `n` is no push target:
    /// visited, or out of the job's feasible region. A node is tested
    /// against the region once per placement and each of its objectives
    /// is computed once for as long as the walk keeps meeting it by the
    /// same move; a debug build recomputes whatever it reuses.
    fn candidate(
        &mut self,
        grid: &StaticGrid,
        w: &Walk,
        n: NodeId,
        dim: usize,
        dir: i8,
    ) -> Option<f64> {
        // Push targets must stay in the job's feasible region: a zone
        // entirely below the job's coordinate along some real dimension
        // can never contain a satisfying node. Branch-free on purpose:
        // most zones pass, in no pattern a predictor can learn.
        let reaches = || {
            let hi = grid.zone_hi(n);
            hi.iter().zip(&w.need).fold(true, |ok, (h, c)| ok & (h > c))
        };
        let key = if dir == 1 { dim } else { grid.layout().dims() } as u16;
        let mut row = self.seen[n.idx()];
        if row.gen != self.cur_gen {
            row = Seen {
                gen: self.cur_gen,
                out: !reaches(),
                key: Seen::NO_OBJECTIVE,
                fd: 0.0,
            };
        } else {
            debug_assert!(row.out || reaches(), "{n} left the feasible region");
        }
        if !row.out {
            if row.key == key {
                debug_assert_eq!(
                    row.fd.to_bits(),
                    self.objective(grid, w, n, dim, dir).to_bits(),
                    "objective of {n} by move {key} changed within one placement"
                );
            } else {
                row.key = key;
                row.fd = self.objective(grid, w, n, dim, dir);
            }
        }
        self.seen[n.idx()] = row;
        (!row.out).then_some(row.fd)
    }
}

impl Matchmaker for PushingMatchmaker {
    fn name(&self) -> &'static str {
        match self.mode {
            PushMode::Heterogeneous => "can-het",
            PushMode::Homogeneous => "can-hom",
        }
    }

    fn refresh(&mut self, grid: &StaticGrid, now: f64) {
        self.ai.refresh(grid, now);
    }

    fn set_pressure_bound(&mut self, bound: Option<usize>) {
        self.ai.set_pressure_bound(bound);
    }

    fn place(&mut self, grid: &StaticGrid, job: &JobSpec, rng: &mut SimRng) -> Placement {
        let ce = self.ranking_ce(grid, job);
        // 1. Route the job to its coordinate from a random entry node.
        let coord = grid.layout().job_coord(job, rng.unit());
        let entry = NodeId(rng.below(grid.len()) as u32);
        let route = grid.route_to(entry, &coord);
        let mut current = route.owner;
        let mut pushes = 0usize;
        let dims = grid.layout().dims();
        let vd = DimensionLayout::VIRTUAL_DIM;
        let mut need = coord;
        need[vd] = f64::NEG_INFINITY;
        let w = Walk {
            ce,
            slot: self.ai.ce_index(ce),
            need,
        };
        self.open_generation(grid.len());
        self.visit(current);

        loop {
            // 2. A node that can start the job immediately ends the
            // search (Algorithm 1 lines 3–9).
            if let Some(node) =
                self.pick_startable(grid, Self::neighborhood(grid, current), job, ce)
            {
                return Placement {
                    node,
                    route_hops: route.hops,
                    pushes,
                    fallback: false,
                };
            }
            // 3. Otherwise choose the push target minimizing Eq. 3
            // among outward, still-feasible, unvisited neighbors. The
            // virtual dimension carries no resource ordering, so both
            // of its directions are candidates — lateral moves across
            // virtual slices keep the walk from being cornered.
            let mut best: Option<(NodeId, usize, f64)> = None;
            if pushes < MAX_PUSHES {
                for d in 0..dims {
                    let dirs: &[i8] = if d == vd { &[1, -1] } else { &[1] };
                    for &dir in dirs {
                        for &n in grid.face_neighbors(current, d, dir) {
                            let Some(fd) = self.candidate(grid, &w, n, d, dir) else {
                                continue;
                            };
                            let better = match best {
                                None => fd < f64::INFINITY,
                                Some((bn, _, bf)) => fd < bf || (fd == bf && n < bn),
                            };
                            if better {
                                best = Some((n, d, fd));
                            }
                        }
                    }
                }
            }
            // 4. Probabilistic stopping (Eq. 4) based on the region
            // beyond the current node along the chosen dimension.
            let want_stop = match best {
                None => true, // outer corner or no capable region left
                Some((_, td, _)) => {
                    let beyond = self.region_beyond(grid, &w, current, td).nodes;
                    rng.unit() < stop_probability(beyond, self.params.stopping_factor)
                }
            };
            if want_stop {
                // 5. Least-loaded satisfying node among the current
                // neighborhood (Algorithm 1 line 14). If the
                // neighborhood cannot run the job at all, keep pushing
                // toward capability instead of stranding the job.
                if let Some(node) =
                    self.pick_min_score(grid, Self::neighborhood(grid, current), job, ce)
                {
                    return Placement {
                        node,
                        route_hops: route.hops,
                        pushes,
                        fallback: false,
                    };
                }
                if best.is_none() {
                    break; // nowhere to push either: rare global fallback
                }
            }
            let (target, _, _) = best.expect("push target exists");
            current = target;
            self.visit(target);
            pushes += 1;
        }

        let node = self
            .pick_min_score(grid, (0..grid.len() as u32).map(NodeId), job, ce)
            .expect("job must be satisfiable by some node");
        Placement {
            node,
            route_hops: route.hops,
            pushes,
            fallback: true,
        }
    }
}

/// The greedy online centralized matchmaker ("central"): complete,
/// always-fresh load information, greedily assigning each job to the
/// most capable node — "possibly assigning jobs to nodes that are
/// over-provisioned" (§V-A).
pub struct CentralMatchmaker;

impl Matchmaker for CentralMatchmaker {
    fn name(&self) -> &'static str {
        "central"
    }

    fn place(&mut self, grid: &StaticGrid, job: &JobSpec, _rng: &mut SimRng) -> Placement {
        // Walk the per-CE availability index instead of scanning every
        // runtime: [`StaticGrid::ce_available`] lists the available
        // holders of the dominant CE pre-ranked by (clock desc, id
        // asc). Any node satisfying the job necessarily possesses its
        // dominant CE, so the list covers every candidate the old
        // full scan would have preferred; the first free satisfying
        // node in list order IS the fastest free node with
        // lowest-id tie-break, and likewise for acceptable nodes.
        let ce = grid.layout().dominant_ce(job);
        let mut best_acceptable: Option<NodeId> = None;
        let mut best_score: Option<(NodeId, f64)> = None;
        for &id in grid.ce_available(ce) {
            let rt = grid.runtime(id);
            if !job.satisfied_by(&rt.spec) {
                continue;
            }
            if rt.is_free() {
                return Placement {
                    node: id,
                    route_hops: 0,
                    pushes: 0,
                    fallback: false,
                };
            }
            if best_acceptable.is_none() && rt.is_acceptable(job) {
                best_acceptable = Some(id);
            }
            // Busy-node ranking is by Eq. 1/2 score, not clock, so it
            // needs its own running minimum; (score asc, id asc) makes
            // the choice independent of the list's clock ordering.
            let score = rt.score(ce).unwrap_or(f64::INFINITY);
            let better = match best_score {
                None => true,
                Some((bn, bs)) => score < bs || (score == bs && id < bn),
            };
            if better {
                best_score = Some((id, score));
            }
        }
        let node = best_acceptable
            .or(best_score.map(|(n, _)| n))
            .or_else(|| {
                // Last resort when every satisfying node is evicted:
                // fall back to the full scan over all runtimes.
                let mut best_any: Option<(NodeId, f64)> = None;
                for rt in grid.runtimes() {
                    if !job.satisfied_by(&rt.spec) {
                        continue;
                    }
                    let score = rt.score(ce).unwrap_or(f64::INFINITY);
                    let better = match best_any {
                        None => true,
                        Some((bn, bs)) => score < bs || (score == bs && rt.id < bn),
                    };
                    if better {
                        best_any = Some((rt.id, score));
                    }
                }
                best_any.map(|(n, _)| n)
            })
            .expect("job must be satisfiable by some node");
        Placement {
            node,
            route_hops: 0,
            pushes: 0,
            fallback: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgrid_types::{CeRequirement, DimensionLayout, JobId};
    use pgrid_workload::jobgen::JobGenConfig;
    use pgrid_workload::nodegen::{generate_nodes, NodeGenConfig};

    fn grid(n: usize) -> StaticGrid {
        let layout = DimensionLayout::with_dims(11);
        let pop = generate_nodes(&NodeGenConfig::paper_defaults(2), n, 21);
        StaticGrid::build(layout, pop, 21)
    }

    fn easy_job(id: u32) -> JobSpec {
        JobSpec::new(
            JobId(id),
            vec![CeRequirement {
                ce_type: CeType::CPU,
                min_cores: Some(1),
                ..Default::default()
            }],
            None,
            3600.0,
        )
    }

    #[test]
    fn het_places_on_startable_node() {
        let g = grid(100);
        let mut m = PushingMatchmaker::heterogeneous(&g, PushParams::default());
        m.refresh(&g, 0.0);
        let mut rng = SimRng::seed_from_u64(1);
        let p = m.place(&g, &easy_job(0), &mut rng);
        assert!(!p.fallback);
        assert!(g.runtime(p.node).is_acceptable(&easy_job(0)));
    }

    #[test]
    fn central_picks_fastest_free_dominant_ce() {
        let g = grid(100);
        let mut m = CentralMatchmaker;
        let mut rng = SimRng::seed_from_u64(2);
        // GPU-dominant job: central must pick the fastest free GPU0
        // node that satisfies it.
        let job = JobSpec::new(
            JobId(1),
            vec![
                CeRequirement::any(CeType::CPU),
                CeRequirement {
                    ce_type: CeType::gpu(0),
                    min_clock: Some(1.0),
                    ..Default::default()
                },
            ],
            None,
            3600.0,
        );
        let p = m.place(&g, &job, &mut rng);
        let chosen_clock = g.runtime(p.node).spec.ce(CeType::gpu(0)).unwrap().clock;
        // No satisfying free node can have a faster GPU0.
        for rt in g.runtimes() {
            if rt.is_free() && job.satisfied_by(&rt.spec) {
                let c = rt.spec.ce(CeType::gpu(0)).unwrap().clock;
                assert!(c <= chosen_clock, "missed faster free node");
            }
        }
    }

    #[test]
    fn placements_always_satisfy_requirements() {
        let g = grid(150);
        let jobcfg = JobGenConfig::paper_defaults(2, 0.8, 3.0);
        let pop: Vec<_> = g.runtimes().iter().map(|r| r.spec.clone()).collect();
        let mut stream = pgrid_workload::jobgen::JobStream::with_population(jobcfg, 3, pop);
        let mut het = PushingMatchmaker::heterogeneous(&g, PushParams::default());
        let mut hom = PushingMatchmaker::homogeneous(&g, PushParams::default());
        let mut central = CentralMatchmaker;
        het.refresh(&g, 0.0);
        hom.refresh(&g, 0.0);
        let mut rng = SimRng::seed_from_u64(4);
        for _ in 0..100 {
            let (_, job) = stream.next_job();
            for p in [
                het.place(&g, &job, &mut rng),
                hom.place(&g, &job, &mut rng),
                central.place(&g, &job, &mut rng),
            ] {
                assert!(
                    job.satisfied_by(&g.runtime(p.node).spec),
                    "{:?} placed on unsatisfying node",
                    job.id
                );
            }
        }
    }

    #[test]
    fn hom_ignores_gpu_when_ranking() {
        let g = grid(50);
        let hom = PushingMatchmaker::homogeneous(&g, PushParams::default());
        let job = JobSpec::new(
            JobId(5),
            vec![
                CeRequirement::any(CeType::CPU),
                CeRequirement {
                    ce_type: CeType::gpu(0),
                    min_memory: Some(1.0),
                    ..Default::default()
                },
            ],
            None,
            3600.0,
        );
        // can-hom always ranks by CPU even for GPU-dominant jobs.
        assert_eq!(hom.ranking_ce(&g, &job), CeType::CPU);
        let het = PushingMatchmaker::heterogeneous(&g, PushParams::default());
        assert_eq!(het.ranking_ce(&g, &job), CeType::gpu(0));
    }

    #[test]
    fn deterministic_placement_given_seed() {
        let g = grid(100);
        let mut m1 = PushingMatchmaker::heterogeneous(&g, PushParams::default());
        let mut m2 = PushingMatchmaker::heterogeneous(&g, PushParams::default());
        m1.refresh(&g, 0.0);
        m2.refresh(&g, 0.0);
        let mut r1 = SimRng::seed_from_u64(6);
        let mut r2 = SimRng::seed_from_u64(6);
        for i in 0..30 {
            assert_eq!(
                m1.place(&g, &easy_job(i), &mut r1),
                m2.place(&g, &easy_job(i), &mut r2)
            );
        }
    }

    /// The pre-index `CentralMatchmaker::place`: a full ascending-id
    /// scan over every runtime. Kept verbatim as the reference the
    /// indexed fast path is diffed against.
    fn naive_central_place(grid: &StaticGrid, job: &JobSpec) -> NodeId {
        let ce = grid.layout().dominant_ce(job);
        let mut best_free: Option<(NodeId, f64)> = None;
        let mut best_acceptable: Option<(NodeId, f64)> = None;
        let mut best_score: Option<(NodeId, f64)> = None;
        let mut best_any: Option<(NodeId, f64)> = None;
        for rt in grid.runtimes() {
            if !job.satisfied_by(&rt.spec) {
                continue;
            }
            let clock = rt.spec.ce(ce).map_or(0.0, |c| c.clock);
            if rt.is_free() {
                if best_free.is_none_or(|(_, c)| clock > c) {
                    best_free = Some((rt.id, clock));
                }
            } else if rt.is_acceptable(job) && best_acceptable.is_none_or(|(_, c)| clock > c) {
                best_acceptable = Some((rt.id, clock));
            }
            let score = rt.score(ce).unwrap_or(f64::INFINITY);
            if rt.available() && best_score.is_none_or(|(_, s)| score < s) {
                best_score = Some((rt.id, score));
            }
            if best_any.is_none_or(|(_, s)| score < s) {
                best_any = Some((rt.id, score));
            }
        }
        best_free
            .or(best_acceptable)
            .or(best_score)
            .or(best_any)
            .expect("job must be satisfiable by some node")
            .0
    }

    #[test]
    fn indexed_central_matches_naive_scan_exactly() {
        // Diff the indexed fast path against the naive reference while
        // the grid cycles through every node state the scan can meet:
        // free, busy, queued-up, and evicted.
        let mut g = grid(120);
        let jobcfg = JobGenConfig::paper_defaults(2, 0.8, 3.0);
        let pop: Vec<_> = g.runtimes().iter().map(|r| r.spec.clone()).collect();
        let mut stream = pgrid_workload::jobgen::JobStream::with_population(jobcfg, 11, pop);
        let mut central = CentralMatchmaker;
        let mut rng = SimRng::seed_from_u64(17);
        let mut churn = SimRng::seed_from_u64(23);
        for round in 0..400 {
            let (_, job) = stream.next_job();
            let fast = central.place(&g, &job, &mut rng).node;
            let naive = naive_central_place(&g, &job);
            assert_eq!(fast, naive, "round {round}: index and scan disagree");
            // Occupy the chosen node so later rounds see busy/queued
            // nodes, and churn availability to exercise the index
            // maintenance (restore is a no-op for never-evicted ids).
            g.with_runtime_mut(fast, |rt| {
                rt.enqueue(job, round as f64);
                rt.start_ready();
            });
            if round % 7 == 0 {
                let victim = NodeId(churn.below(120) as u32);
                g.evict_node(victim);
            }
            if round % 11 == 0 {
                let back = NodeId(churn.below(120) as u32);
                g.restore_node(back);
            }
        }
        g.check_invariants();
    }

    #[test]
    fn place_survives_the_generation_wrap() {
        for het in [true, false] {
            let new = |g: &StaticGrid| {
                if het {
                    PushingMatchmaker::heterogeneous(g, PushParams::default())
                } else {
                    PushingMatchmaker::homogeneous(g, PushParams::default())
                }
            };
            // Every CPU full with waiters behind it: no node can start a
            // CPU job now, so every walk runs until its stop draw.
            let mut g = grid(200);
            let mut next_id = 1000;
            let mut load = |g: &mut StaticGrid, node: u32, jobs: u32| {
                g.with_runtime_mut(NodeId(node), |rt| {
                    for _ in 0..jobs {
                        rt.enqueue(easy_job(next_id), 0.0);
                        next_id += 1;
                    }
                    rt.start_ready();
                });
            };
            for i in 0..200 {
                load(&mut g, i, 10);
            }
            // Wear the stamps in over one load state, generation 7 first
            // and generation 1 last, so each generation's stamps lie
            // under none but lower ones; then another load state, so
            // whatever a stale stamp carries across the wrap is wrong as
            // well as old.
            let mut worn = new(&g);
            worn.refresh(&g, 0.0);
            let mut rng = SimRng::seed_from_u64(8);
            let mut draws = vec![rng.clone(); 8];
            let mut pushes = 0;
            for k in (1..8).rev() {
                draws[k] = rng.clone();
                worn.set_generation(k as u32 - 1);
                pushes += worn.place(&g, &easy_job(k as u32), &mut rng).pushes;
            }
            assert!(pushes > 14, "walks too short to wear stamps in: {pushes}");
            for i in (0..200).step_by(3) {
                load(&mut g, i, 1 + i % 5);
            }
            worn.refresh(&g, 1.0);
            worn.set_generation(u32::MAX - 1);
            let mut fresh = new(&g);
            fresh.refresh(&g, 1.0);
            // The next placement runs in generation `u32::MAX`, the ones
            // after it in 1, 2, …: each of those repeats the job and the
            // draws of the warm-up placement of its generation, so it
            // starts from the same owner, among that one's stamps.
            draws[0] = rng;
            for (k, rng) in draws.iter().enumerate() {
                let (mut worn_rng, mut fresh_rng) = (rng.clone(), rng.clone());
                let job = easy_job(k as u32);
                assert_eq!(
                    worn.place(&g, &job, &mut worn_rng),
                    fresh.place(&g, &job, &mut fresh_rng),
                    "het {het}: placement {k} after the wrap"
                );
                assert_eq!(worn_rng.next_u64(), fresh_rng.next_u64());
            }
            assert_eq!(worn.cur_gen, 7, "the generation counter wrapped");
        }
    }

    #[test]
    fn names_match_paper_labels() {
        let g = grid(20);
        assert_eq!(
            PushingMatchmaker::heterogeneous(&g, PushParams::default()).name(),
            "can-het"
        );
        assert_eq!(
            PushingMatchmaker::homogeneous(&g, PushParams::default()).name(),
            "can-hom"
        );
        assert_eq!(CentralMatchmaker.name(), "central");
    }
}
