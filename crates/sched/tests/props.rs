//! Property tests for the demand-driven AI refresh, the differential
//! tests of `StaticGrid`'s routing (second part of the file), and the
//! differential test of the push/stop walk against Algorithm 1 written
//! the plain way (last part).
//!
//! Arbitrary interleavings of `evict_node` / `restore_node` / job
//! placement / completion / `refresh` / row reads must preserve
//!
//! 1. **lazy ≡ from-scratch** — every row read through the table is
//!    bit-identical to a shadow rebuilt from scratch at the last
//!    refresh, whatever was read or left stale before,
//! 2. **the dirty-set invariant** — a node whose load clock has not
//!    advanced past the table's sync point (i.e. absent from the dirty
//!    set) has a bit-unchanged local entry, so no mutation path can
//!    escape the tracking, and
//! 3. **the stale set is inward-closed** (`DESIGN.md` §10, I1) — per
//!    dimension a stale row's inward face neighbors are all stale, so
//!    no fresh row was computed from a row that has since gone stale.
//!
//! CI runs the `refresh_*` ones in release (`--test props refresh`),
//! and likewise `route` and `place`.

use pgrid_can::geom::Point;
use pgrid_can::routing::{route, RoutingView};
use pgrid_sched::{
    AiEntry, AiGrouping, AiTable, Matchmaker, NodeRuntime, Placement, PushParams,
    PushingMatchmaker, StaticGrid,
};
use pgrid_simcore::SimRng;
use pgrid_types::{CeRequirement, CeType, DimensionLayout, JobId, JobSpec, NodeId, NodeSpec};
use pgrid_workload::jobgen::{JobGenConfig, JobStream};
use pgrid_workload::nodegen::{generate_nodes, NodeGenConfig};
use proptest::prelude::*;
use std::collections::HashSet;

fn bits_eq(a: &AiEntry, b: &AiEntry) -> bool {
    a.nodes == b.nodes
        && a.free_nodes == b.free_nodes
        && a.pressured == b.pressured
        && a.cores.to_bits() == b.cores.to_bits()
        && a.required_cores.to_bits() == b.required_cores.to_bits()
}

fn cpu_job(id: u32) -> JobSpec {
    JobSpec::new(
        JobId(id),
        vec![CeRequirement {
            ce_type: CeType::CPU,
            min_cores: Some(1),
            ..Default::default()
        }],
        None,
        60.0,
    )
}

/// Snapshot of every node's local entries plus the sync point.
struct LocalSnapshot {
    synced: u64,
    locals: Vec<AiEntry>,
}

fn snapshot_locals(ai: &AiTable, grid: &StaticGrid, n: usize) -> LocalSnapshot {
    let slots = ai.slot_types().len();
    let mut locals = Vec::with_capacity(n * slots);
    for i in 0..n as u32 {
        for s in 0..slots {
            locals.push(ai.local_of(grid, pgrid_types::NodeId(i), s));
        }
    }
    LocalSnapshot {
        synced: ai.synced_clock().expect("snapshot after a refresh"),
        locals,
    }
}

/// A grid under the four load mutations the properties interleave.
struct Churn {
    grid: StaticGrid,
    running: Vec<(NodeId, JobId)>,
    next_id: u32,
}

impl Churn {
    /// `n` generated nodes on the 8-dimension layout (CPU + one GPU
    /// family).
    fn new(n: usize) -> Self {
        let pop = generate_nodes(&NodeGenConfig::paper_defaults(1), n, 31);
        Churn {
            grid: StaticGrid::build(DimensionLayout::with_dims(8), pop, 31),
            running: Vec::new(),
            next_id: 0,
        }
    }

    /// Ops 0–3: evict, restore, enqueue a 1-core CPU job (every
    /// generated node carries a CPU, so it is universally satisfiable),
    /// finish a running job — each on the node (or job) `arg` selects.
    fn mutate(&mut self, op: u32, arg: usize, now: f64) {
        let node = NodeId((arg % self.grid.len()) as u32);
        let started = match op {
            0 => {
                self.grid.evict_node(node);
                self.running.retain(|&(nd, _)| nd != node);
                return;
            }
            1 => {
                self.grid.restore_node(node);
                (
                    node,
                    self.grid.with_runtime_mut(node, |rt| rt.start_ready()),
                )
            }
            2 => {
                let job = cpu_job(self.next_id);
                self.next_id += 1;
                self.enqueue(node, job, now);
                return;
            }
            _ => {
                if self.running.is_empty() {
                    return;
                }
                let (nd, jid) = self.running.swap_remove(arg % self.running.len());
                let started = self.grid.with_runtime_mut(nd, |rt| {
                    rt.finish(jid);
                    rt.start_ready()
                });
                (nd, started)
            }
        };
        let (nd, jobs) = started;
        self.running
            .extend(jobs.into_iter().map(|s| (nd, s.job.id)));
    }

    /// Queues `job` on `node` and starts whatever can start there.
    fn enqueue(&mut self, node: NodeId, job: JobSpec, now: f64) {
        let started = self.grid.with_runtime_mut(node, |rt| {
            rt.enqueue(job, now);
            rt.start_ready()
        });
        self.running
            .extend(started.into_iter().map(|s| (node, s.job.id)));
    }
}

/// The first `(node, dim, slot)` entry among `rows` that `lazy`, read
/// through the demand-driven path, holds differently from the scratch
/// shadow.
fn first_mismatch(
    lazy: &mut AiTable,
    scr: &mut AiTable,
    grid: &StaticGrid,
    rows: impl Iterator<Item = (NodeId, usize)>,
) -> Option<String> {
    for (id, d) in rows {
        for s in 0..lazy.slot_types().len() {
            let a = lazy.entry_at(grid, id, d, s);
            let b = scr.entry_at(grid, id, d, s);
            if !bits_eq(&a, &b) {
                return Some(format!(
                    "node {id} dim {d} slot {s}: lazy {a:?} != scratch {b:?}"
                ));
            }
        }
    }
    None
}

/// Every `(node, dim)` row of the table.
fn all_rows(n: usize, dims: usize) -> impl Iterator<Item = (NodeId, usize)> {
    (0..n as u32).flat_map(move |i| (0..dims).map(move |d| (NodeId(i), d)))
}

/// A deterministic scatter of up to 24 rows drawn from `arg`.
fn some_rows(n: usize, dims: usize, arg: usize) -> impl Iterator<Item = (NodeId, usize)> {
    (0..arg % 25).map(move |k| {
        let row = (arg + k * 37) % (n * dims);
        (NodeId((row / dims) as u32), row % dims)
    })
}

/// I1 both ways round: a stale row with a fresh inward face neighbor,
/// or a fresh row with a stale outward one.
fn stale_set_violation(ai: &AiTable, grid: &StaticGrid) -> Option<String> {
    for (id, d) in all_rows(grid.len(), ai.dims()) {
        if ai.is_stale(id, d) {
            if let Some(q) = grid
                .face_neighbors(id, d, -1)
                .iter()
                .find(|&&q| !ai.is_stale(q, d))
            {
                return Some(format!(
                    "stale row ({id}, {d}): inward neighbor {q} is fresh"
                ));
            }
        } else if let Some(m) = grid
            .outward_neighbors(id, d)
            .iter()
            .find(|&&m| ai.is_stale(m, d))
        {
            return Some(format!(
                "fresh row ({id}, {d}): outward neighbor {m} is stale"
            ));
        }
    }
    None
}

proptest! {
    /// Random op interleavings keep the table bit-identical to the
    /// scratch shadow (every row read at every refresh) and never let
    /// a mutation slip past the dirty set, for both groupings.
    #[test]
    fn interleavings_preserve_equivalence_and_dirty_set(
        ops in prop::collection::vec((0u32..5, 0usize..1024), 1..70),
        grouping_pooled in any::<bool>(),
    ) {
        let n = 40usize;
        let mut churn = Churn::new(n);
        let grouping = if grouping_pooled { AiGrouping::Pooled } else { AiGrouping::PerCe };
        let mut inc = AiTable::new(&churn.grid, grouping);
        let mut scr = AiTable::new(&churn.grid, grouping);
        inc.refresh(&churn.grid, 0.0);
        scr.refresh_scratch(&churn.grid, 0.0);
        let slots = inc.slot_types().len();
        let dims = inc.dims();
        let mut snap = snapshot_locals(&inc, &churn.grid, n);
        let mut now = 0.0f64;

        for &(op, arg) in &ops {
            if op < 4 {
                churn.mutate(op, arg, now);
                continue;
            }
            let grid = &churn.grid;
            // Dirty-set invariant, checked against the *last* sync
            // point right before the next refresh: a node the dirty
            // set does not contain must have a bit-unchanged local
            // entry.
            for i in 0..n as u32 {
                let id = NodeId(i);
                if grid.node_load_clock(id) <= snap.synced {
                    for s in 0..slots {
                        let cur = inc.local_of(grid, id, s);
                        let old = &snap.locals[i as usize * slots + s];
                        prop_assert!(
                            bits_eq(&cur, old),
                            "node {id} slot {s}: local changed without a dirty stamp \
                             ({old:?} -> {cur:?})"
                        );
                    }
                }
            }
            now += 1.0;
            inc.refresh(grid, now);
            scr.refresh_scratch(grid, now);
            let diff = first_mismatch(&mut inc, &mut scr, grid, all_rows(n, dims));
            prop_assert!(diff.is_none(), "{}", diff.unwrap());
            snap = snapshot_locals(&inc, grid, n);
        }
        // Closing refresh: whatever the tail of the op list did, the
        // tables must reconverge bit-exactly.
        now += 1.0;
        inc.refresh(&churn.grid, now);
        scr.refresh_scratch(&churn.grid, now);
        let diff = first_mismatch(&mut inc, &mut scr, &churn.grid, all_rows(n, dims));
        prop_assert!(diff.is_none(), "final: {}", diff.unwrap());
        churn.grid.check_invariants();
    }

    /// The three read patterns, interleaved at random: a refresh after
    /// which nothing, a scatter of rows, or everything is read, plus
    /// reads with no refresh before them — which must see the *last*
    /// refresh's snapshot, not the grid's live state — and a change of
    /// pressure bound mid-run, after which no row may survive. Every
    /// row read equals the scratch shadow of the last refresh, and
    /// after every op the stale set is inward-closed.
    #[test]
    fn refresh_read_patterns_match_scratch_and_keep_the_stale_set_closed(
        ops in prop::collection::vec((0u32..9, 0usize..4096), 1..90),
        grouping_pooled in any::<bool>(),
        bound in prop::option::of(1usize..3),
    ) {
        let n = 40usize;
        let mut churn = Churn::new(n);
        let grouping = if grouping_pooled { AiGrouping::Pooled } else { AiGrouping::PerCe };
        let mut lazy = AiTable::new(&churn.grid, grouping);
        let mut scr = AiTable::new(&churn.grid, grouping);
        lazy.set_pressure_bound(bound);
        scr.set_pressure_bound(bound);
        lazy.refresh(&churn.grid, 0.0);
        scr.refresh_scratch(&churn.grid, 0.0);
        let dims = lazy.dims();
        let mut now = 0.0f64;

        for &(op, arg) in &ops {
            if op < 4 {
                churn.mutate(op, arg, now);
            } else {
                let grid = &churn.grid;
                if op == 8 {
                    let next = if lazy.pressure_bound() == Some(1) { None } else { Some(1) };
                    lazy.set_pressure_bound(next);
                    scr.set_pressure_bound(next);
                }
                if op != 7 {
                    now += 1.0;
                    lazy.refresh(grid, now);
                    scr.refresh_scratch(grid, now);
                }
                if op == 8 {
                    prop_assert!(
                        all_rows(n, dims).all(|(id, d)| lazy.is_stale(id, d)),
                        "a row survived the change of pressure bound"
                    );
                }
                let diff = match op {
                    4 => None,
                    6 => first_mismatch(&mut lazy, &mut scr, grid, all_rows(n, dims)),
                    _ => first_mismatch(&mut lazy, &mut scr, grid, some_rows(n, dims, arg)),
                };
                prop_assert!(diff.is_none(), "op {op}: {}", diff.unwrap());
            }
            let broken = stale_set_violation(&lazy, &churn.grid);
            prop_assert!(broken.is_none(), "after op {op}: {}", broken.unwrap());
        }
        now += 1.0;
        lazy.refresh(&churn.grid, now);
        scr.refresh_scratch(&churn.grid, now);
        let diff = first_mismatch(&mut lazy, &mut scr, &churn.grid, all_rows(n, dims));
        prop_assert!(diff.is_none(), "final: {}", diff.unwrap());
    }
}

/// A row's outward closure can be a chain as long as the grid:
/// byte-identical nodes separate along the virtual dimension only, so
/// every zone is a slab and the innermost slab's row depends on all the
/// others, one behind the other. Materializing it on a 128 KiB stack
/// shows the walk keeps its frames on the heap.
#[test]
fn refresh_materializes_a_grid_long_chain_on_a_small_stack() {
    let n = 3000usize;
    let population = vec![NodeSpec::cpu_only(2.0, 8.0, 4, 100.0); n];
    let grid = StaticGrid::build(DimensionLayout::with_dims(5), population, 7);
    let vd = DimensionLayout::VIRTUAL_DIM;
    let innermost = (0..n as u32)
        .map(NodeId)
        .find(|&id| grid.face_neighbors(id, vd, -1).is_empty())
        .expect("some slab touches the origin");
    let mut depth = 0;
    let mut at = innermost;
    while let Some(&next) = grid.outward_neighbors(at, vd).first() {
        at = next;
        depth += 1;
    }
    assert_eq!(depth, n - 1, "the slabs form one chain");

    let mut lazy = AiTable::new(&grid, AiGrouping::PerCe);
    let mut scr = AiTable::new(&grid, AiGrouping::PerCe);
    lazy.refresh(&grid, 0.0);
    scr.refresh_scratch(&grid, 0.0);
    let beyond = std::thread::scope(|scope| {
        std::thread::Builder::new()
            .stack_size(128 * 1024)
            .spawn_scoped(scope, || lazy.beyond(&grid, innermost, vd, CeType::CPU))
            .expect("spawn the small-stack reader")
            .join()
            .expect("the reader neither panicked nor overflowed")
    });
    assert_eq!(beyond.nodes, (n - 1) as u64);
    assert!(bits_eq(
        &beyond,
        &scr.beyond(&grid, innermost, vd, CeType::CPU)
    ));
    assert!((0..n as u32).all(|i| !lazy.is_stale(NodeId(i), vd)));
}

// ------------------------------------------------ routing differential
//
// `StaticGrid` picks each hop's closest neighbor its own way; the
// reference is the `RoutingView` default, a scan of the whole neighbor
// list. CI runs these in release (`--test props route`): the
// every-start and n = 8192 arms are slow at `opt-level = 1`.

/// `StaticGrid`'s topology under the trait's default
/// `closest_neighbor`, with distance and containment read off the
/// `Zone` itself — the branching reference, which shares no code with
/// the grid's flat-bounds arithmetic.
struct FullScan<'a>(&'a StaticGrid);

impl RoutingView for FullScan<'_> {
    type NeighborIter<'b>
        = <StaticGrid as RoutingView>::NeighborIter<'b>
    where
        Self: 'b;
    fn route_neighbors(&self, id: NodeId) -> Self::NeighborIter<'_> {
        self.0.route_neighbors(id)
    }
    fn zone_distance(&self, id: NodeId, p: &Point) -> f64 {
        self.0.zone(id).distance_to(p)
    }
    fn zone_contains(&self, id: NodeId, p: &Point) -> bool {
        self.0.zone(id).contains(p)
    }
}

/// The same view, asserting at every hop that the grid's own
/// `closest_neighbor` returns the full scan's neighbor at the same
/// distance — so a tie resolved the wrong way cannot hide behind an
/// equal hop count.
struct Checked<'a>(&'a StaticGrid);

impl RoutingView for Checked<'_> {
    type NeighborIter<'b>
        = <StaticGrid as RoutingView>::NeighborIter<'b>
    where
        Self: 'b;
    fn route_neighbors(&self, id: NodeId) -> Self::NeighborIter<'_> {
        self.0.route_neighbors(id)
    }
    fn zone_distance(&self, id: NodeId, p: &Point) -> f64 {
        self.0.zone(id).distance_to(p)
    }
    fn zone_contains(&self, id: NodeId, p: &Point) -> bool {
        self.0.zone(id).contains(p)
    }
    fn closest_neighbor(&self, id: NodeId, p: &Point) -> Option<(NodeId, f64)> {
        let bits = |c: Option<(NodeId, f64)>| c.map(|(n, d)| (n, d.to_bits()));
        let full = FullScan(self.0).closest_neighbor(id, p);
        let grid = self.0.closest_neighbor(id, p);
        assert_eq!(bits(grid), bits(full), "closest neighbor of {id} to {p:?}");
        full
    }
}

/// Routes `start` → `p` through the full scan and through the grid;
/// returns 1 if the two `Route`s (owner and hops) differ.
fn route_mismatch(grid: &StaticGrid, start: NodeId, p: &Point) -> usize {
    let want = route(&Checked(grid), start, p).expect("grid is connected");
    usize::from(grid.route_to(start, p) != want)
}

/// The largest coordinate inside the unit space: a zone's outermost
/// `hi` is 1.0, which no zone contains.
const INNERMOST: f64 = 1.0 - f64::EPSILON / 2.0;

/// Target points of the three kinds the differential test routes to:
/// (a) coordinates of generated jobs, (b) uniform points, and
/// (c) adversarial points — node coordinates, zone `lo`/`hi` corners,
/// and points agreeing with the faces of one zone, or of several, in
/// 1…dims dimensions. The last kind is where distances tie and walks
/// plateau.
fn targets(grid: &StaticGrid, population: &[NodeSpec], per_kind: usize, seed: u64) -> Vec<Point> {
    let layout = grid.layout();
    let dims = layout.dims();
    let n = grid.len();
    let mut rng = SimRng::seed_from_u64(seed);
    let mut out: Vec<Point> = Vec::new();

    // The generators know three GPU families; a wider layout's other
    // GPU dimensions stay at 0, for nodes and jobs alike.
    let slots = layout.gpu_slots().min(3);
    let cfg = JobGenConfig::paper_defaults(slots, 0.6, 3.0);
    let mut stream = JobStream::with_population(cfg, seed, population.to_vec());
    for _ in 0..per_kind {
        let (_, job) = stream.next_job();
        out.push(layout.job_coord(&job, rng.unit()));
    }

    for _ in 0..per_kind {
        out.push((0..dims).map(|_| rng.unit()).collect());
    }

    let inside = |x: f64| x.min(INNERMOST);
    for i in 0..per_kind {
        let id = NodeId(rng.below(n) as u32);
        let z = grid.zone(id);
        let mut p: Point = (0..dims)
            .map(|d| z.lo(d) + rng.unit() * (z.hi(d) - z.lo(d)))
            .collect();
        match i % 5 {
            0 => p = grid.coord(id).clone(),
            1 => p = (0..dims).map(|d| z.lo(d)).collect(),
            2 => p = (0..dims).map(|d| inside(z.hi(d))).collect(),
            kind => {
                // 1…dims dimensions moved onto a face: of this zone
                // (kind 3), or of another zone each (kind 4).
                let on_faces = 1 + rng.below(dims);
                for _ in 0..on_faces {
                    let d = rng.below(dims);
                    let z = if kind == 3 {
                        z
                    } else {
                        grid.zone(NodeId(rng.below(n) as u32))
                    };
                    p[d] = if rng.below(2) == 0 {
                        z.lo(d)
                    } else {
                        inside(z.hi(d))
                    };
                }
            }
        }
        out.push(p);
    }
    out
}

/// Routes to every target from every node (`starts == None`) or from
/// that many random ones; returns `(routes, mismatches)`.
fn differential(
    grid: &StaticGrid,
    population: &[NodeSpec],
    per_kind: usize,
    starts: Option<usize>,
) -> (usize, usize) {
    let n = grid.len();
    let mut rng = SimRng::seed_from_u64(0xD1FF);
    let (mut routes, mut mismatches) = (0, 0);
    for p in targets(grid, population, per_kind, 77) {
        assert_eq!(
            grid.route_to(NodeId(0), &p).owner,
            grid.owner_at(&p),
            "route ends at the wrong owner for {p:?}"
        );
        let from: Vec<NodeId> = match starts {
            None => (0..n as u32).map(NodeId).collect(),
            Some(k) => (0..k).map(|_| NodeId(rng.below(n) as u32)).collect(),
        };
        for start in from {
            routes += 1;
            mismatches += route_mismatch(grid, start, &p);
        }
    }
    (routes, mismatches)
}

#[test]
fn route_matches_the_full_scan_on_generated_populations() {
    // The populations of `tests/grid_csr_digest.rs`.
    for (dims, slots) in [(5usize, 0u8), (11, 2)] {
        for (n, per_kind, starts) in [(200, 40, None), (1000, 10, None), (8192, 150, Some(8))] {
            let population = generate_nodes(&NodeGenConfig::paper_defaults(slots), n, 2011);
            let grid =
                StaticGrid::build(DimensionLayout::with_dims(dims), population.clone(), 2011);
            let (routes, mismatches) = differential(&grid, &population, per_kind, starts);
            assert_eq!(
                mismatches, 0,
                "{dims}-d n={n}: {mismatches} of {routes} routes differ from the full scan"
            );
        }
    }
}

#[test]
fn route_matches_the_full_scan_on_wide_layouts() {
    // Three GPU families at 14 dimensions, and the same population in 41
    // dimensions (twelve GPU slots, nine of them 0 on every node and
    // job): more faces than one block of classified faces holds, and
    // runs of dimensions whose terms are all 0.
    for dims in [14usize, 41] {
        for (n, per_kind, starts) in [(200, 30, None), (1000, 10, None), (4096, 60, Some(8))] {
            let population = generate_nodes(&NodeGenConfig::paper_defaults(3), n, 2011);
            let grid =
                StaticGrid::build(DimensionLayout::with_dims(dims), population.clone(), 2011);
            let (routes, mismatches) = differential(&grid, &population, per_kind, starts);
            assert_eq!(
                mismatches, 0,
                "{dims}-d n={n}: {mismatches} of {routes} routes differ from the full scan"
            );
        }
    }
}

#[test]
fn route_matches_the_full_scan_on_identical_nodes() {
    // Fifty byte-identical nodes separate along the virtual dimension
    // only: every face is that dimension's, every other term ties.
    let population = vec![NodeSpec::cpu_only(2.0, 8.0, 4, 100.0); 50];
    let grid = StaticGrid::build(DimensionLayout::with_dims(5), population.clone(), 7);
    let (routes, mismatches) = differential(&grid, &population, 60, None);
    assert_eq!(mismatches, 0, "{mismatches} of {routes} routes differ");
}

// ------------------------------------------- Algorithm 1 differential
//
// `PushingMatchmaker::place` against the push/stop walk written the
// plain way: a `HashSet` of visited nodes, the zone read per dimension,
// every candidate's objective computed from the aggregate and the
// runtime each time it is met. Compared on the `Placement` and on the
// RNG state after the call, so the two make the same draws. CI runs
// these in release as well (`--test props place`); the debug run is the
// one that carries the walk's own `debug_assert!`s.

/// The push walk's hard cap on pushes per job, as the matchmaker
/// spells it.
const MAX_PUSHES: usize = 64;

/// Algorithm 1 for can-het (`het`) or can-hom, over its own aggregate
/// table.
struct NaivePush {
    het: bool,
    ai: AiTable,
    params: PushParams,
}

impl NaivePush {
    fn new(grid: &StaticGrid, het: bool, bound: Option<usize>) -> Self {
        let grouping = if het {
            AiGrouping::PerCe
        } else {
            AiGrouping::Pooled
        };
        let mut ai = AiTable::new(grid, grouping);
        ai.set_pressure_bound(bound);
        NaivePush {
            het,
            ai,
            params: PushParams::default(),
        }
    }

    /// Every CE of the node pooled into one `(cores, required)`.
    fn pooled(rt: &NodeRuntime) -> (f64, f64) {
        let (mut cores, mut required) = (0.0, 0.0);
        for c in rt.spec.ces() {
            let (co, re) = rt.load_of(c.ce_type).expect("a CE of the node's own spec");
            cores += co;
            required += re;
        }
        (cores, required)
    }

    /// The load a node adds to a region: the ranking CE's for can-het
    /// (nothing when the node lacks it), everything pooled for can-hom.
    fn local_load(&self, rt: &NodeRuntime, ce: CeType) -> Option<(f64, f64)> {
        if self.het {
            rt.load_of(ce)
        } else {
            Some(Self::pooled(rt))
        }
    }

    fn score(&self, rt: &NodeRuntime, ce: CeType) -> f64 {
        if self.het {
            return rt.score(ce).unwrap_or(f64::INFINITY);
        }
        let (cores, required) = Self::pooled(rt);
        if cores <= 0.0 {
            f64::INFINITY
        } else {
            (required / cores) / rt.spec.cpu().clock
        }
    }

    /// Lines 3–9: among the nodes that can start the job now, the free
    /// ones if there are any; of those the fastest ranking CE, the
    /// lowest id on a tie.
    fn pick_startable(
        &self,
        grid: &StaticGrid,
        cands: &[NodeId],
        job: &JobSpec,
        ce: CeType,
    ) -> Option<NodeId> {
        let startable: Vec<NodeId> = cands
            .iter()
            .copied()
            .filter(|&n| {
                let rt = grid.runtime(n);
                if self.het {
                    rt.is_acceptable(job)
                } else {
                    rt.is_free() && job.satisfied_by(&rt.spec)
                }
            })
            .collect();
        let free: Vec<NodeId> = startable
            .iter()
            .copied()
            .filter(|&n| grid.runtime(n).is_free())
            .collect();
        let clock = |n: NodeId| grid.runtime(n).spec.ce(ce).map_or(0.0, |c| c.clock);
        let pool = if free.is_empty() { startable } else { free };
        pool.into_iter()
            .min_by(|&a, &b| clock(b).total_cmp(&clock(a)).then(a.cmp(&b)))
    }

    /// Line 14: the least-loaded satisfying node, donating ones first.
    fn pick_min_score(
        &self,
        grid: &StaticGrid,
        cands: &[NodeId],
        job: &JobSpec,
        ce: CeType,
    ) -> Option<NodeId> {
        let satisfying: Vec<NodeId> = cands
            .iter()
            .copied()
            .filter(|&n| job.satisfied_by(&grid.runtime(n).spec))
            .collect();
        let donating: Vec<NodeId> = satisfying
            .iter()
            .copied()
            .filter(|&n| grid.runtime(n).available())
            .collect();
        let score = |n: NodeId| self.score(grid.runtime(n), ce);
        let pool = if donating.is_empty() {
            satisfying
        } else {
            donating
        };
        pool.into_iter()
            .min_by(|&a, &b| score(a).total_cmp(&score(b)).then(a.cmp(&b)))
    }

    /// Eq. 3 over the region at and beyond `n` along `d`, or infinity
    /// when every node known there is at its queue-pressure bound.
    fn outward_objective(&mut self, grid: &StaticGrid, n: NodeId, d: usize, ce: CeType) -> f64 {
        let mut region = self.ai.beyond(grid, n, d, ce);
        let rt = grid.runtime(n);
        if let Some((cores, required)) = self.local_load(rt, ce) {
            region.nodes += 1;
            region.cores += cores;
            region.required_cores += required;
            let at_bound = self
                .ai
                .pressure_bound()
                .is_some_and(|b| rt.queued_count() >= b);
            region.pressured += u64::from(at_bound);
        }
        if region.nodes > 0 && region.pressured >= region.nodes {
            return f64::INFINITY;
        }
        region.objective()
    }

    /// Eq. 3 on `n`'s own load: the inward virtual move.
    fn local_objective(&self, grid: &StaticGrid, n: NodeId, ce: CeType) -> f64 {
        let (cores, required) = self.local_load(grid.runtime(n), ce).unwrap_or((0.0, 0.0));
        pgrid_types::score::objective_fd(required, cores)
    }

    fn place(&mut self, grid: &StaticGrid, job: &JobSpec, rng: &mut SimRng) -> Placement {
        let layout = grid.layout();
        let ce = if self.het {
            layout.dominant_ce(job)
        } else {
            CeType::CPU
        };
        let coord = layout.job_coord(job, rng.unit());
        let entry = NodeId(rng.below(grid.len()) as u32);
        let route = grid.route_to(entry, &coord);
        let placed = |node, pushes, fallback| Placement {
            node,
            route_hops: route.hops,
            pushes,
            fallback,
        };
        let vd = DimensionLayout::VIRTUAL_DIM;
        let dims = layout.dims();
        let mut current = route.owner;
        let mut visited: HashSet<NodeId> = HashSet::from([current]);
        let mut pushes = 0usize;
        loop {
            // The current node, then its neighbors in id order: the
            // picks below rank by id on a tie, whatever order
            // `neighbors` hands out.
            let mut hood = grid.neighbors(current).to_vec();
            hood.sort_unstable();
            hood.insert(0, current);
            if let Some(node) = self.pick_startable(grid, &hood, job, ce) {
                return placed(node, pushes, false);
            }
            // (target, dimension, objective): the minimum, the lowest id
            // on a tie, infinity never.
            let mut best: Option<(NodeId, usize, f64)> = None;
            if pushes < MAX_PUSHES {
                for d in 0..dims {
                    let dirs: &[i8] = if d == vd { &[1, -1] } else { &[1] };
                    for &dir in dirs {
                        for &n in grid.face_neighbors(current, d, dir) {
                            let feasible =
                                (0..dims).all(|k| k == vd || grid.zone(n).hi(k) > coord[k]);
                            if !feasible || visited.contains(&n) {
                                continue;
                            }
                            let fd = if dir == 1 {
                                self.outward_objective(grid, n, d, ce)
                            } else {
                                self.local_objective(grid, n, ce)
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
            let stop = match best {
                None => true,
                Some((_, d, _)) => {
                    let beyond = self.ai.beyond(grid, current, d, ce).nodes;
                    rng.unit()
                        < pgrid_types::score::stop_probability(beyond, self.params.stopping_factor)
                }
            };
            if stop {
                if let Some(node) = self.pick_min_score(grid, &hood, job, ce) {
                    return placed(node, pushes, false);
                }
            }
            let Some((target, _, _)) = best else {
                break;
            };
            current = target;
            visited.insert(target);
            pushes += 1;
        }
        let everyone: Vec<NodeId> = (0..grid.len() as u32).map(NodeId).collect();
        let node = self
            .pick_min_score(grid, &everyone, job, ce)
            .expect("some node satisfies the job");
        placed(node, pushes, true)
    }
}

/// `rounds` placements by the real matchmaker and by [`NaivePush`] on a
/// grid that fills up meanwhile: every placed job is queued where it
/// landed, and evictions, restores, completions, extra arrivals and
/// refreshes fall between placements, so queues grow deep, rows go
/// stale and walks run long.
fn place_differential(het: bool, bound: Option<usize>, n: usize, rounds: usize) {
    let mut churn = Churn::new(n);
    let mut real = if het {
        PushingMatchmaker::heterogeneous(&churn.grid, PushParams::default())
    } else {
        PushingMatchmaker::homogeneous(&churn.grid, PushParams::default())
    };
    real.set_pressure_bound(bound);
    let mut naive = NaivePush::new(&churn.grid, het, bound);
    real.refresh(&churn.grid, 0.0);
    naive.ai.refresh(&churn.grid, 0.0);
    let population: Vec<NodeSpec> = churn
        .grid
        .runtimes()
        .iter()
        .map(|r| r.spec.clone())
        .collect();
    let mut stream =
        JobStream::with_population(JobGenConfig::paper_defaults(1, 0.8, 3.0), 5, population);
    let mut rng = SimRng::seed_from_u64(0xA160 + n as u64);
    let mut ops = SimRng::seed_from_u64(0x0B5 + n as u64);
    let mut now = 0.0f64;
    let (mut pushes, mut stopped_on_a_queue) = (0usize, 0usize);
    for round in 0..rounds {
        let (_, mut job) = stream.next_job();
        job.id = JobId(1_000_000 + round as u32);
        let mut naive_rng = rng.clone();
        let got = real.place(&churn.grid, &job, &mut rng);
        let want = naive.place(&churn.grid, &job, &mut naive_rng);
        assert_eq!(got, want, "round {round}: {:?}", job.id);
        assert_eq!(
            rng.next_u64(),
            naive_rng.next_u64(),
            "round {round}: the two walks made different draws"
        );
        assert!(job.satisfied_by(&churn.grid.runtime(got.node).spec));
        pushes += got.pushes;
        stopped_on_a_queue += usize::from(churn.grid.runtime(got.node).queued_count() > 0);
        now += 1.0;
        churn.enqueue(got.node, job, now);
        for _ in 0..ops.below(3) {
            // One eviction to two restores, three arrivals to one
            // completion.
            let op = [0, 1, 1, 2, 2, 2, 3][ops.below(7)];
            churn.mutate(op, ops.below(1 << 20), now);
        }
        if ops.below(8) == 0 {
            real.refresh(&churn.grid, now);
            naive.ai.refresh(&churn.grid, now);
        }
    }
    assert!(
        pushes > 2 * rounds && stopped_on_a_queue > rounds / 4,
        "the grid never filled up: {pushes} pushes, {stopped_on_a_queue} jobs queued behind others"
    );
    churn.grid.check_invariants();
}

fn place_differential_both_bounds(het: bool, n: usize, rounds: usize) {
    place_differential(het, None, n, rounds);
    place_differential(het, Some(2), n, rounds);
}

#[test]
fn place_matches_naive_algorithm_1_can_het_n200() {
    place_differential_both_bounds(true, 200, 1500);
}

#[test]
fn place_matches_naive_algorithm_1_can_het_n1000() {
    place_differential_both_bounds(true, 1000, 4000);
}

#[test]
fn place_matches_naive_algorithm_1_can_hom_n200() {
    place_differential_both_bounds(false, 200, 1500);
}

#[test]
fn place_matches_naive_algorithm_1_can_hom_n1000() {
    place_differential_both_bounds(false, 1000, 4000);
}
