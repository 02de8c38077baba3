//! Property tests for the demand-driven AI refresh, and the
//! differential tests of `StaticGrid`'s routing (second half of the
//! file).
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
//! CI runs the `refresh_*` ones in release (`--test props refresh`).

use pgrid_can::geom::Point;
use pgrid_can::routing::{route, RoutingView};
use pgrid_sched::{AiEntry, AiGrouping, AiTable, StaticGrid};
use pgrid_simcore::SimRng;
use pgrid_types::{CeRequirement, CeType, DimensionLayout, JobId, JobSpec, NodeId, NodeSpec};
use pgrid_workload::jobgen::{JobGenConfig, JobStream};
use pgrid_workload::nodegen::{generate_nodes, NodeGenConfig};
use proptest::prelude::*;

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
                let started = self.grid.with_runtime_mut(node, |rt| {
                    rt.enqueue(job, now);
                    rt.start_ready()
                });
                (node, started)
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

/// `StaticGrid`'s topology and zones under the trait's default
/// `closest_neighbor`.
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
        self.0.zone_distance(id, p)
    }
    fn zone_contains(&self, id: NodeId, p: &Point) -> bool {
        self.0.zone_contains(id, p)
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
        self.0.zone_distance(id, p)
    }
    fn zone_contains(&self, id: NodeId, p: &Point) -> bool {
        self.0.zone_contains(id, p)
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

    let slots = layout.gpu_slots();
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
fn route_matches_the_full_scan_on_identical_nodes() {
    // Fifty byte-identical nodes separate along the virtual dimension
    // only: every face is that dimension's, every other term ties.
    let population = vec![NodeSpec::cpu_only(2.0, 8.0, 4, 100.0); 50];
    let grid = StaticGrid::build(DimensionLayout::with_dims(5), population.clone(), 7);
    let (routes, mismatches) = differential(&grid, &population, 60, None);
    assert_eq!(mismatches, 0, "{mismatches} of {routes} routes differ");
}
