//! Property tests for the incremental AI refresh, and the differential
//! tests of `StaticGrid`'s routing (second half of the file).
//!
//! Arbitrary interleavings of `evict_node` / `restore_node` / job
//! placement / completion / `refresh` must preserve
//!
//! 1. **incremental ≡ from-scratch** — the incrementally-maintained
//!    table is bit-identical to a shadow rebuilt from scratch at every
//!    refresh point, and
//! 2. **the dirty-set invariant** — a node whose load clock has not
//!    advanced past the table's sync point (i.e. absent from the dirty
//!    set) has a bit-unchanged local entry, so no mutation path can
//!    escape the tracking.

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

proptest! {
    /// Random op interleavings keep the incremental table bit-identical
    /// to the scratch shadow and never let a mutation slip past the
    /// dirty set, for both groupings.
    #[test]
    fn interleavings_preserve_equivalence_and_dirty_set(
        ops in prop::collection::vec((0u32..5, 0usize..1024), 1..70),
        grouping_pooled in any::<bool>(),
    ) {
        let n = 40usize;
        let layout = DimensionLayout::with_dims(8);
        let pop = generate_nodes(&NodeGenConfig::paper_defaults(1), n, 31);
        let mut grid = StaticGrid::build(layout, pop, 31);
        let grouping = if grouping_pooled { AiGrouping::Pooled } else { AiGrouping::PerCe };
        let mut inc = AiTable::new(&grid, grouping);
        let mut scr = AiTable::new(&grid, grouping);
        inc.refresh(&grid, 0.0);
        scr.refresh_scratch(&grid, 0.0);
        let slots = inc.slot_types().len();
        let mut snap = snapshot_locals(&inc, &grid, n);
        let mut running: Vec<(pgrid_types::NodeId, JobId)> = Vec::new();
        let mut next_id = 0u32;
        let mut now = 0.0f64;

        for &(op, arg) in &ops {
            let node = pgrid_types::NodeId((arg % n) as u32);
            match op {
                0 => {
                    grid.evict_node(node);
                    running.retain(|&(nd, _)| nd != node);
                }
                1 => {
                    grid.restore_node(node);
                    let started = grid.with_runtime_mut(node, |rt| rt.start_ready());
                    running.extend(started.into_iter().map(|s| (node, s.job.id)));
                }
                2 => {
                    // Every generated node carries a CPU, so a 1-core
                    // CPU job is universally satisfiable.
                    let job = cpu_job(next_id);
                    next_id += 1;
                    let started = grid.with_runtime_mut(node, |rt| {
                        rt.enqueue(job, now);
                        rt.start_ready()
                    });
                    running.extend(started.into_iter().map(|s| (node, s.job.id)));
                }
                3 => {
                    if !running.is_empty() {
                        let (nd, jid) = running.swap_remove(arg % running.len());
                        let started = grid.with_runtime_mut(nd, |rt| {
                            rt.finish(jid);
                            rt.start_ready()
                        });
                        running.extend(started.into_iter().map(|s| (nd, s.job.id)));
                    }
                }
                _ => {
                    // Dirty-set invariant, checked against the *last*
                    // sync point right before the next refresh: a node
                    // the dirty set does not contain must have a
                    // bit-unchanged local entry.
                    for i in 0..n as u32 {
                        let id = pgrid_types::NodeId(i);
                        if grid.node_load_clock(id) <= snap.synced {
                            for s in 0..slots {
                                let cur = inc.local_of(&grid, id, s);
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
                    inc.refresh(&grid, now);
                    scr.refresh_scratch(&grid, now);
                    for i in 0..n as u32 {
                        let id = pgrid_types::NodeId(i);
                        for d in 0..inc.dims() {
                            for s in 0..slots {
                                prop_assert!(
                                    bits_eq(inc.entry_at(id, d, s), scr.entry_at(id, d, s)),
                                    "node {id} dim {d} slot {s}: incremental {:?} != scratch {:?}",
                                    inc.entry_at(id, d, s),
                                    scr.entry_at(id, d, s)
                                );
                            }
                        }
                    }
                    snap = snapshot_locals(&inc, &grid, n);
                }
            }
        }
        // Closing refresh: whatever the tail of the op list did, the
        // tables must reconverge bit-exactly.
        now += 1.0;
        inc.refresh(&grid, now);
        scr.refresh_scratch(&grid, now);
        for i in 0..n as u32 {
            let id = pgrid_types::NodeId(i);
            for d in 0..inc.dims() {
                for s in 0..slots {
                    prop_assert!(
                        bits_eq(inc.entry_at(id, d, s), scr.entry_at(id, d, s)),
                        "final: node {id} dim {d} slot {s} diverged"
                    );
                }
            }
        }
        grid.check_invariants();
    }
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
