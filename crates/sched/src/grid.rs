//! The static grid: a converged CAN over a fixed node population.
//!
//! The load-balancing experiments (Figures 5–6) run with no churn — the
//! paper measures matchmaking quality, not failure handling — so the
//! grid is built once by sequential joins and neighbor knowledge is
//! exact. (Staleness still enters through the periodically-refreshed
//! aggregated load information; see [`crate::aggregate`].)
//!
//! Because the topology never changes after [`StaticGrid::build`], the
//! neighbor relation is cached in CSR (compressed sparse row) form: one
//! flat arena bucketing each node's neighbors by abutting face
//! `(dim, dir)`, a node's buckets side by side. A face bucket and a
//! node's whole neighbor list are both one borrowed slice of it — no
//! per-query allocation or sorting.

use pgrid_can::adjacency::Adjacency;
use pgrid_can::geom::Point;
use pgrid_can::routing::{displaces, route, Route, RoutingView};
use pgrid_can::split_tree::SplitTree;
use pgrid_simcore::SimRng;
use pgrid_types::{CeType, DimensionLayout, NodeId, NodeSpec};

use crate::node_runtime::NodeRuntime;

/// Ordering of the per-CE availability lists: static clock of the CE
/// descending, node id ascending on ties — so a matchmaker scanning a
/// list front-to-back visits the fastest nodes first and breaks clock
/// ties toward the lowest id, exactly like a full ascending-id scan
/// keeping the first strict maximum.
fn ce_order(runtimes: &[NodeRuntime], ty: CeType, a: NodeId, b: NodeId) -> std::cmp::Ordering {
    let clock = |n: NodeId| runtimes[n.idx()].spec.ce(ty).map_or(0.0, |c| c.clock);
    clock(b).total_cmp(&clock(a)).then(a.cmp(&b))
}

/// A fixed-population CAN grid with per-node execution state.
pub struct StaticGrid {
    layout: DimensionLayout,
    tree: SplitTree,
    coords: Vec<Point>,
    runtimes: Vec<NodeRuntime>,
    /// Per-node zone copies in id order. The split tree stores zones
    /// behind a hash lookup; routing touches a zone per neighbor per
    /// hop, so steady-state reads go through this flat cache instead.
    /// Zones never change after `build`, so the cache is never stale.
    zones: Vec<pgrid_can::geom::Zone>,
    /// The same bounds flattened node-major — `[lo[0..dims],
    /// hi[0..dims]]` per node — so the per-neighbor distance test in
    /// greedy routing reads one contiguous run instead of chasing two
    /// boxed slices per zone.
    zone_bounds: Vec<f64>,
    /// CSR offsets into `face_arena`, length `len() * dims * 2 + 1`;
    /// bucket index = `(node * dims + dim) * 2 + (dir < 0)`, so node
    /// `i`'s buckets span `face_off[2·dims·i] .. face_off[2·dims·(i+1)]`.
    face_off: Vec<u32>,
    /// Face-neighbor buckets concatenated, each sorted ascending. A
    /// neighbor abuts on exactly one face, so a node's buckets hold its
    /// neighbor list once over.
    face_arena: Vec<NodeId>,
    /// Nodes currently donating cycles (not evicted), ascending id —
    /// maintained incrementally by [`StaticGrid::evict_node`] /
    /// [`StaticGrid::restore_node`].
    available: Vec<NodeId>,
    /// Per-CE-type availability index: `ce_avail[t]` lists the
    /// available nodes whose spec includes CE type `t`, ordered by
    /// (static clock desc, id asc) — see [`ce_order`]. Maintained
    /// incrementally alongside `available`, so the centralized
    /// matchmaker reads its candidates pre-ranked instead of scanning
    /// every runtime.
    ce_avail: Vec<Vec<NodeId>>,
    /// Monotone load-mutation clock: bumped once per mutation of any
    /// node's load state (job placement, completion, eviction,
    /// restore). Consumers such as [`crate::aggregate::AiTable`]
    /// remember the clock value they last synced at; a node is *dirty*
    /// for a consumer iff its stamp exceeds that value.
    load_clock: u64,
    /// Per-node stamp of the last load mutation (`<= load_clock`).
    node_clock: Vec<u64>,
}

/// Virtual-coordinate draws a joining node gets before
/// [`StaticGrid::try_build`] gives up on it.
const JOIN_RETRIES: usize = 64;

/// Why a population cannot be frozen into a [`StaticGrid`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// The population has no nodes.
    EmptyPopulation,
    /// No virtual coordinate separated `node` (its index in the
    /// population) from the zone owner it landed on.
    Unplaceable {
        /// Index of the node in the population.
        node: usize,
    },
    /// The neighbor relation has more directed edges than the CSR
    /// arenas' `u32` offsets can address.
    TooManyEdges {
        /// Directed edge count (2x the abutting zone pairs).
        edges: usize,
    },
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::EmptyPopulation => write!(f, "node population must be non-empty"),
            BuildError::Unplaceable { node } => write!(
                f,
                "could not place node {node} after {JOIN_RETRIES} virtual-coordinate retries"
            ),
            BuildError::TooManyEdges { edges } => write!(
                f,
                "{edges} directed neighbor edges exceed the grid's 32-bit offsets"
            ),
        }
    }
}

impl std::error::Error for BuildError {}

/// The directed edges of `pairs` abutting zone pairs, provided the CSR
/// arenas' `u32` offsets can address that many.
fn checked_edge_count(pairs: usize) -> Result<usize, BuildError> {
    let edges = pairs.saturating_mul(2);
    match u32::try_from(edges) {
        Ok(_) => Ok(edges),
        Err(_) => Err(BuildError::TooManyEdges { edges }),
    }
}

/// The face-bucket arena of a grid whose abutting zone pairs along
/// `dim` are `pairs[dim]` (`(low, high)`: `high` on the high side):
/// CSR offsets over `n * dims * 2` buckets indexed
/// `(node * dims + dim) * 2 + (dir < 0)`, and the buckets themselves,
/// each sorted ascending.
fn face_csr(
    n: usize,
    pairs: &[Vec<(NodeId, NodeId)>],
) -> Result<(Vec<u32>, Vec<NodeId>), BuildError> {
    let dims = pairs.len();
    let edges = checked_edge_count(pairs.iter().map(Vec::len).sum())?;
    let bucket = |id: NodeId, dim: usize, toward_origin: bool| {
        (id.idx() * dims + dim) * 2 + usize::from(toward_origin)
    };
    let directed = |dim: usize, (low, high): (NodeId, NodeId)| {
        [
            (bucket(low, dim, false), high),
            (bucket(high, dim, true), low),
        ]
    };
    // Counting scatter: bucket sizes, running sums (`off[b]` ends up at
    // the end of bucket `b`, the last entry at the total), then a fill
    // that steps each bucket's cursor down from its end — which leaves
    // `off[b]` at the bucket's start, the offsets themselves.
    let mut off = vec![0u32; n * dims * 2 + 1];
    for (dim, pairs) in pairs.iter().enumerate() {
        for &pair in pairs {
            for (b, _) in directed(dim, pair) {
                off[b] += 1;
            }
        }
    }
    for b in 1..off.len() {
        off[b] += off[b - 1];
    }
    let mut arena = vec![NodeId(0); edges];
    for (dim, pairs) in pairs.iter().enumerate() {
        for &pair in pairs {
            for (b, neighbor) in directed(dim, pair) {
                off[b] -= 1;
                arena[off[b] as usize] = neighbor;
            }
        }
    }
    for w in off.windows(2) {
        arena[w[0] as usize..w[1] as usize].sort_unstable();
    }
    Ok((off, arena))
}

impl StaticGrid {
    /// Builds the CAN by joining `population` sequentially. Virtual
    /// coordinates come from the seeded RNG; nodes whose coordinate
    /// collides (identical in every dimension) retry with a fresh
    /// virtual coordinate.
    ///
    /// # Panics
    ///
    /// Panics where [`StaticGrid::try_build`] returns an error.
    pub fn build(layout: DimensionLayout, population: Vec<NodeSpec>, seed: u64) -> Self {
        Self::try_build(layout, population, seed).expect("population builds a static grid")
    }

    /// [`StaticGrid::build`] for populations that come from outside the
    /// program: an empty population, a node that cannot be placed after
    /// 64 virtual-coordinate draws (pathologically
    /// identical populations), or a neighbor relation too large for
    /// the CSR offsets is an error, not a panic.
    pub fn try_build(
        layout: DimensionLayout,
        population: Vec<NodeSpec>,
        seed: u64,
    ) -> Result<Self, BuildError> {
        let Some(first) = population.first() else {
            return Err(BuildError::EmptyPopulation);
        };
        let mut rng = SimRng::sub_stream(seed, 0x96D);
        let dims = layout.dims();
        let mut coords = vec![layout.node_coord(first, rng.unit())];
        let mut tree = SplitTree::new(dims, NodeId(0));
        for (i, spec) in population.iter().enumerate().skip(1) {
            let id = NodeId(i as u32);
            let mut placed = false;
            for _retry in 0..JOIN_RETRIES {
                let coord = layout.node_coord(spec, rng.unit());
                let host = tree.owner_at(&coord).expect("non-empty tree");
                let host_coord = &coords[host.idx()];
                let host_zone = tree.zone(host);
                // Balanced split-plane policy shared with the join
                // protocol (see `pgrid_can::split_tree`).
                let plane = if host_zone.contains(host_coord) {
                    pgrid_can::split_tree::choose_split_plane(host_zone, host_coord, &coord)
                } else {
                    Some(pgrid_can::split_tree::choose_split_plane_free(host_zone))
                };
                let Some((dim, at)) = plane else {
                    continue; // coordinate collision: retry virtual dim
                };
                tree.split(host, host_coord, id, &coord, dim, at);
                coords.push(coord);
                placed = true;
                break;
            }
            if !placed {
                return Err(BuildError::Unplaceable { node: i });
            }
        }
        let runtimes: Vec<NodeRuntime> = population
            .into_iter()
            .enumerate()
            .map(|(i, spec)| NodeRuntime::new(NodeId(i as u32), spec))
            .collect();
        let n = runtimes.len();

        // The neighbor relation is read off the finished split tree in
        // one traversal, one pair list per dimension at 8 bytes a pair,
        // and frozen into the face-bucket arena, so steady-state queries
        // never allocate or re-sort.
        let mut pairs: Vec<Vec<(NodeId, NodeId)>> = vec![Vec::new(); dims];
        tree.for_each_abutting_pair(|low, high, dim| pairs[dim].push((low, high)));
        let (face_off, face_arena) = face_csr(n, &pairs)?;
        drop(pairs);
        let available: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
        let zones: Vec<pgrid_can::geom::Zone> = (0..n as u32)
            .map(|i| tree.zone(NodeId(i)).clone())
            .collect();
        let mut zone_bounds: Vec<f64> = Vec::with_capacity(n * dims * 2);
        for z in &zones {
            zone_bounds.extend((0..dims).map(|d| z.lo(d)));
            zone_bounds.extend((0..dims).map(|d| z.hi(d)));
        }

        // Per-CE availability lists, ranked once at build time (specs
        // are immutable, so the ordering never needs re-sorting).
        let max_ty = runtimes
            .iter()
            .flat_map(|rt| rt.spec.ces())
            .map(|c| c.ce_type.0 as usize)
            .max()
            .unwrap_or(0);
        let mut ce_avail: Vec<Vec<NodeId>> = vec![Vec::new(); max_ty + 1];
        for rt in &runtimes {
            for c in rt.spec.ces() {
                ce_avail[c.ce_type.0 as usize].push(rt.id);
            }
        }
        for (t, list) in ce_avail.iter_mut().enumerate() {
            let ty = CeType(t as u8);
            list.sort_by(|&a, &b| ce_order(&runtimes, ty, a, b));
        }

        Ok(StaticGrid {
            layout,
            tree,
            coords,
            zones,
            zone_bounds,
            face_off,
            face_arena,
            available,
            ce_avail,
            load_clock: 0,
            node_clock: vec![0; n],
            runtimes,
        })
    }

    /// Stamps a node as dirty: every load-mutation path funnels through
    /// here so no change can escape the dirty set.
    fn touch(&mut self, id: NodeId) {
        self.load_clock += 1;
        self.node_clock[id.idx()] = self.load_clock;
    }

    /// The current value of the load-mutation clock.
    pub fn load_clock(&self) -> u64 {
        self.load_clock
    }

    /// The load-mutation clock value at which `id` was last mutated
    /// (0 = never). A node is *dirty* relative to a sync point `c` iff
    /// `node_load_clock(id) > c`.
    pub fn node_load_clock(&self, id: NodeId) -> u64 {
        self.node_clock[id.idx()]
    }

    /// Removes `id` from every per-CE list it appears in (no-op if
    /// already absent, mirroring the idempotent availability index).
    fn ce_index_remove(&mut self, id: NodeId) {
        let Self {
            runtimes, ce_avail, ..
        } = self;
        let runtimes: &[NodeRuntime] = runtimes;
        for c in runtimes[id.idx()].spec.ces() {
            let list = &mut ce_avail[c.ce_type.0 as usize];
            if let Ok(pos) = list.binary_search_by(|&e| ce_order(runtimes, c.ce_type, e, id)) {
                list.remove(pos);
            }
        }
    }

    /// Re-inserts `id` into every per-CE list at its rank (no-op if
    /// already present).
    fn ce_index_insert(&mut self, id: NodeId) {
        let Self {
            runtimes, ce_avail, ..
        } = self;
        let runtimes: &[NodeRuntime] = runtimes;
        for c in runtimes[id.idx()].spec.ces() {
            let list = &mut ce_avail[c.ce_type.0 as usize];
            if let Err(pos) = list.binary_search_by(|&e| ce_order(runtimes, c.ce_type, e, id)) {
                list.insert(pos, id);
            }
        }
    }

    /// The dimension layout in use.
    pub fn layout(&self) -> &DimensionLayout {
        &self.layout
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.runtimes.len()
    }

    /// Whether the grid is empty (never true after `build`).
    pub fn is_empty(&self) -> bool {
        self.runtimes.is_empty()
    }

    /// The execution runtime of a node.
    pub fn runtime(&self, id: NodeId) -> &NodeRuntime {
        &self.runtimes[id.idx()]
    }

    /// Runs a mutation against a node's runtime, stamping the node in
    /// the dirty set first. This is the *only* mutable runtime access —
    /// a raw `&mut NodeRuntime` getter would let a load change slip
    /// past the incremental AI refresh, so none is offered.
    ///
    /// Availability must not be toggled through this handle — use
    /// [`StaticGrid::evict_node`] / [`StaticGrid::restore_node`], which
    /// keep the availability index in sync (and stamp the dirty set
    /// themselves).
    pub fn with_runtime_mut<R>(&mut self, id: NodeId, f: impl FnOnce(&mut NodeRuntime) -> R) -> R {
        self.touch(id);
        f(&mut self.runtimes[id.idx()])
    }

    /// All runtimes (for the centralized scheduler's global scan).
    pub fn runtimes(&self) -> &[NodeRuntime] {
        &self.runtimes
    }

    /// A node's CAN coordinate.
    pub fn coord(&self, id: NodeId) -> &Point {
        &self.coords[id.idx()]
    }

    /// Ground-truth neighbors, each once, grouped by abutting face in
    /// bucket order — a set, not an id-sorted list (borrowed from the
    /// CSR cache; no allocation). Every reader ranks by id itself.
    pub fn neighbors(&self, id: NodeId) -> &[NodeId] {
        let faces = 2 * self.layout.dims();
        let first = id.idx() * faces;
        &self.face_arena[self.face_off[first] as usize..self.face_off[first + faces] as usize]
    }

    /// Neighbors abutting on the face along `dim` in direction `dir`
    /// (+1 = away from the origin), sorted ascending (borrowed).
    pub fn face_neighbors(&self, id: NodeId, dim: usize, dir: i8) -> &[NodeId] {
        debug_assert!(dir == 1 || dir == -1);
        let b = (id.idx() * self.layout.dims() + dim) * 2 + usize::from(dir < 0);
        &self.face_arena[self.face_off[b] as usize..self.face_off[b + 1] as usize]
    }

    /// Neighbors on the *outward* (away from origin) face along `dim`.
    pub fn outward_neighbors(&self, id: NodeId, dim: usize) -> &[NodeId] {
        self.face_neighbors(id, dim, 1)
    }

    /// Nodes currently donating cycles (not evicted), ascending id.
    /// Maintained incrementally — O(1) to read, never rebuilt.
    pub fn available_nodes(&self) -> &[NodeId] {
        &self.available
    }

    /// Available nodes possessing CE type `ty`, ordered by (static
    /// clock desc, id asc) — the centralized matchmaker's pre-ranked
    /// candidate list. Empty for unknown CE types. O(1) to read.
    pub fn ce_available(&self, ty: CeType) -> &[NodeId] {
        self.ce_avail
            .get(ty.0 as usize)
            .map_or(&[][..], |v| v.as_slice())
    }

    /// Takes a node offline (volunteer eviction), returning the jobs it
    /// was running or queueing, and updates the availability index.
    pub fn evict_node(&mut self, id: NodeId) -> Vec<pgrid_types::JobSpec> {
        if let Ok(pos) = self.available.binary_search(&id) {
            self.available.remove(pos);
        }
        self.ce_index_remove(id);
        self.touch(id);
        self.runtimes[id.idx()].evict()
    }

    /// Fail-stop crash of a node: takes it offline like
    /// [`StaticGrid::evict_node`], but returns the killed jobs split
    /// into `(running, queued)` — a crash loses the running jobs'
    /// partial execution, and nothing in the system learns of either
    /// loss until a failure-detection timeout elapses (the caller
    /// models the delay; contrast with graceful eviction, where the
    /// departing volunteer hands its jobs back immediately).
    pub fn crash_node(
        &mut self,
        id: NodeId,
    ) -> (Vec<pgrid_types::JobSpec>, Vec<pgrid_types::JobSpec>) {
        if let Ok(pos) = self.available.binary_search(&id) {
            self.available.remove(pos);
        }
        self.ce_index_remove(id);
        self.touch(id);
        self.runtimes[id.idx()].evict_split()
    }

    /// Brings an evicted node back online and updates the availability
    /// index.
    pub fn restore_node(&mut self, id: NodeId) {
        if let Err(pos) = self.available.binary_search(&id) {
            self.available.insert(pos, id);
        }
        self.ce_index_insert(id);
        self.touch(id);
        self.runtimes[id.idx()].restore();
    }

    /// The zone of a node.
    pub fn zone(&self, id: NodeId) -> &pgrid_can::geom::Zone {
        &self.zones[id.idx()]
    }

    /// A zone's `(lo, hi)` bounds out of the flat cache.
    fn bounds(&self, id: NodeId) -> (&[f64], &[f64]) {
        let dims = self.layout.dims();
        let base = id.idx() * dims * 2;
        self.zone_bounds[base..base + 2 * dims].split_at(dims)
    }

    /// A zone's upper bounds, one per dimension, out of the flat cache.
    pub(crate) fn zone_hi(&self, id: NodeId) -> &[f64] {
        self.bounds(id).1
    }

    /// Owner of a point.
    pub fn owner_at(&self, p: &Point) -> NodeId {
        self.tree.owner_at(p).expect("grid is non-empty")
    }

    /// Greedy CAN routing from `start` to the owner of `p`.
    pub fn route_to(&self, start: NodeId, p: &Point) -> Route {
        route(self, start, p).expect("static grid is connected")
    }

    /// Mean neighbor degree (diagnostics).
    pub fn mean_degree(&self) -> f64 {
        self.face_arena.len() as f64 / self.len() as f64
    }

    /// Test-time invariant check.
    pub fn check_invariants(&self) {
        self.tree.check_invariants();
        let reference = Adjacency::recompute(self.tree.members(), |n| self.tree.zone(n));
        assert_eq!(self.tree.len(), self.runtimes.len());
        for i in 0..self.len() {
            let id = NodeId(i as u32);
            assert_eq!(
                &self.zones[i],
                self.tree.zone(id),
                "zone cache diverged for {id}"
            );
        }
        // CSR caches must equal a from-scratch recompute of the
        // adjacency and face relations.
        let dims = self.layout.dims();
        for i in 0..self.len() {
            let id = NodeId(i as u32);
            let mut expect: Vec<NodeId> = reference.neighbors(id).collect();
            expect.sort_unstable();
            let mut got = self.neighbors(id).to_vec();
            got.sort_unstable();
            assert_eq!(got, expect, "CSR neighbor slice diverged for {id}");
            let z = self.tree.zone(id);
            for d in 0..dims {
                for dir in [1i8, -1] {
                    let want: Vec<NodeId> = expect
                        .iter()
                        .copied()
                        .filter(|&m| z.abut_dim(self.tree.zone(m)) == Some((d, dir)))
                        .collect();
                    assert_eq!(
                        self.face_neighbors(id, d, dir),
                        &want[..],
                        "CSR face bucket diverged for {id} dim {d} dir {dir}"
                    );
                }
            }
        }
        // The availability index must mirror per-runtime state exactly.
        let avail: Vec<NodeId> = (0..self.len() as u32)
            .map(NodeId)
            .filter(|&n| self.runtime(n).available())
            .collect();
        assert_eq!(self.available, avail, "availability index diverged");
        // Every per-CE list must equal a from-scratch recompute: the
        // available holders of that CE in (clock desc, id asc) order.
        for rt in &self.runtimes {
            for c in rt.spec.ces() {
                assert!(
                    (c.ce_type.0 as usize) < self.ce_avail.len(),
                    "CE type {} outside the per-CE index",
                    c.ce_type.0
                );
            }
        }
        for (t, list) in self.ce_avail.iter().enumerate() {
            let ty = CeType(t as u8);
            let mut expect: Vec<NodeId> = (0..self.len() as u32)
                .map(NodeId)
                .filter(|&n| self.runtime(n).available() && self.runtime(n).spec.ce(ty).is_some())
                .collect();
            expect.sort_by(|&a, &b| ce_order(&self.runtimes, ty, a, b));
            assert_eq!(
                list, &expect,
                "per-CE availability index diverged for CE type {t}"
            );
        }
        // Every runtime's per-CE counters must equal its own lists.
        for rt in &self.runtimes {
            rt.check_invariants();
        }
        // Dirty-set stamps never run ahead of the global clock.
        assert!(
            self.node_clock.iter().all(|&c| c <= self.load_clock),
            "node load stamp ahead of the load clock"
        );
    }
}

/// An upper bound on every sum of squared gaps whose distance (its
/// correctly rounded `sqrt`) is `d` or less. A sum above the cut
/// therefore has a distance strictly above `d`; a sum whose distance
/// ties with `d` never exceeds it.
///
/// Let `u` be the float after `d`. A sum `s > cut(d)` has `s > u²` in
/// the reals (the float after the rounded product `u * u` lies above
/// the exact one), so `√s > u`, and rounding, being monotone, leaves
/// `sqrt(s) >= u > d`.
fn cut(d: f64) -> f64 {
    let u = d.next_up();
    (u * u).next_up()
}

/// Dimensions `gap_sum` adds between two tests of the cut: fewer tests
/// against a few more terms on a neighbor that is already out (6 was the
/// fastest at 11 dimensions).
const CUT_BLOCK: usize = 6;

/// Classified faces `closest_neighbor` holds back before scanning them:
/// every face of an 11- or 14-dimensional zone, on the stack.
const FACE_BLOCK: usize = 32;

/// `x`, or 0 where `x` is not positive.
#[inline]
fn positive(x: f64) -> f64 {
    if x > 0.0 {
        x
    } else {
        0.0
    }
}

/// The squared gap between `p` and the zone `[lo, hi)`, in dimension
/// order: the sum `Zone::distance_to` takes the root of, with the same
/// floats in the same order — except that a running sum exceeding `cut`
/// at the end of a block of [`CUT_BLOCK`] dimensions is returned as it
/// stands: terms are non-negative and rounding is monotone, so the total
/// could only be larger still.
///
/// Each gap is `positive(lo - p) + positive(p - hi)`, which is the
/// branching form's float: the sign of a difference of finite floats is
/// exact (gradual underflow), so at most one addend is non-zero because
/// `lo < hi`, it is the branch's difference, and adding `+0.0` is exact.
fn gap_sum(lo: &[f64], hi: &[f64], p: &[f64], cut: f64) -> f64 {
    let add = |sum: f64, lo: &[f64], hi: &[f64], p: &[f64]| {
        lo.iter().zip(hi).zip(p).fold(sum, |sum, ((&lo, &hi), &p)| {
            let gap = positive(lo - p) + positive(p - hi);
            sum + gap * gap
        })
    };
    // Whole blocks have a constant trip count, so they unroll.
    let lo = lo[..p.len()].chunks_exact(CUT_BLOCK);
    let hi = hi[..p.len()].chunks_exact(CUT_BLOCK);
    let p = p.chunks_exact(CUT_BLOCK);
    let tail = (lo.remainder(), hi.remainder(), p.remainder());
    let mut sum = 0.0;
    for ((lo, hi), p) in lo.zip(hi).zip(p) {
        sum = add(sum, lo, hi, p);
        if sum > cut {
            return sum;
        }
    }
    add(sum, tail.0, tail.1, tail.2)
}

impl RoutingView for StaticGrid {
    // Face-grouped, not id-sorted: the closest neighbor breaks ties by
    // id, and the plateau fallback finds the one owner at its depth,
    // whatever the visiting order.
    type NeighborIter<'a> = std::iter::Copied<std::slice::Iter<'a, NodeId>>;
    fn route_neighbors(&self, id: NodeId) -> Self::NeighborIter<'_> {
        self.neighbors(id).iter().copied()
    }
    fn zone_distance(&self, id: NodeId, p: &Point) -> f64 {
        let (lo, hi) = self.bounds(id);
        gap_sum(lo, hi, p, f64::INFINITY).sqrt()
    }
    fn zone_contains(&self, id: NodeId, p: &Point) -> bool {
        let (lo, hi) = self.bounds(id);
        lo.iter()
            .zip(hi)
            .zip(&p[..lo.len()])
            .fold(true, |inside, ((&lo, &hi), &p)| {
                inside & (lo <= p) & (p < hi)
            })
    }

    /// The full scan's answer from a fraction of the neighbor list (the
    /// exactness argument is DESIGN.md §6, "Routing: the face-bounded
    /// argmin"). Every neighbor in the `(k, +1)` face bucket has
    /// `lo[k]` bit-equal to this zone's `hi[k]`, so when `p[k] < hi[k]`
    /// its sum of squared gaps contains the term `(hi[k] - p[k])²`
    /// exactly, and is at least that large; mirrored for `(k, -1)`. A
    /// bucket whose known term already exceeds the cut of the best
    /// distance so far holds only strictly farther neighbors and is
    /// skipped whole; inside a bucket a neighbor is dropped once its
    /// running sum exceeds the cut. Each face's known term is computed
    /// once: buckets with none — the faces `p` lies on or beyond, behind
    /// which the closest neighbor almost always is — are scanned as they
    /// are met, the others held in a block on the stack and scanned after
    /// them (a full block is scanned there and then, which reorders the
    /// scan but not its answer).
    fn closest_neighbor(&self, id: NodeId, p: &Point) -> Option<(NodeId, f64)> {
        let (lo, hi) = self.bounds(id);
        let dims = lo.len();
        let base = id.idx() * dims * 2;
        let off = &self.face_off[base..=base + 2 * dims];
        let mut best: Option<(NodeId, f64)> = None;
        let mut cut_sum = f64::INFINITY;
        let scan = |face: usize, best: &mut Option<(NodeId, f64)>, cut_sum: &mut f64| {
            for &n in &self.face_arena[off[face] as usize..off[face + 1] as usize] {
                let (nlo, nhi) = self.bounds(n);
                let sum = gap_sum(nlo, nhi, p, *cut_sum);
                if sum > *cut_sum {
                    continue;
                }
                let nd = sum.sqrt();
                if displaces(n, nd, *best) {
                    *best = Some((n, nd));
                    *cut_sum = cut(nd);
                }
            }
        };
        let scan_held = |held: &[(usize, f64)], best: &mut _, cut_sum: &mut f64| {
            for &(face, known) in held {
                if known <= *cut_sum {
                    scan(face, best, cut_sum);
                }
            }
        };
        let mut held = [(0usize, 0.0f64); FACE_BLOCK];
        let mut len = 0;
        for (k, (&lo, &hi)) in lo.iter().zip(hi).enumerate() {
            // Face `2k` is `(k, +1)`, `2k + 1` is `(k, -1)`; each term is
            // the k-gap `gap_sum` computes for a neighbor across it.
            for (face, gap) in [
                (2 * k, positive(hi - p[k])),
                (2 * k + 1, positive(p[k] - lo)),
            ] {
                if off[face] == off[face + 1] {
                    continue;
                }
                let known = gap * gap;
                if known > 0.0 {
                    held[len] = (face, known);
                    len += 1;
                    if len == FACE_BLOCK {
                        scan_held(&held, &mut best, &mut cut_sum);
                        len = 0;
                    }
                } else {
                    scan(face, &mut best, &mut cut_sum);
                }
            }
        }
        scan_held(&held[..len], &mut best, &mut cut_sum);
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgrid_workload::nodegen::{generate_nodes, NodeGenConfig};

    fn grid(n: usize) -> StaticGrid {
        let layout = DimensionLayout::with_dims(11);
        let pop = generate_nodes(&NodeGenConfig::paper_defaults(2), n, 42);
        StaticGrid::build(layout, pop, 42)
    }

    #[test]
    fn build_produces_valid_partition() {
        let g = grid(200);
        g.check_invariants();
        assert_eq!(g.len(), 200);
        assert!(g.mean_degree() > 2.0);
    }

    #[test]
    fn empty_population_is_an_error_not_a_panic() {
        let err = StaticGrid::try_build(DimensionLayout::with_dims(5), Vec::new(), 1)
            .err()
            .expect("nothing to build from");
        assert_eq!(err, BuildError::EmptyPopulation);
        assert!(err.to_string().contains("non-empty"));
    }

    #[test]
    fn edge_counts_beyond_u32_offsets_are_rejected() {
        // 2^31 pairs are 2^32 directed edges: one past `u32::MAX`.
        assert_eq!(
            checked_edge_count(1 << 31),
            Err(BuildError::TooManyEdges { edges: 1 << 32 })
        );
        assert_eq!(checked_edge_count((1 << 31) - 1), Ok(u32::MAX as usize - 1));
    }

    #[test]
    fn zones_contain_node_coordinates() {
        // Without churn, every node's zone contains its coordinate
        // ("The zone for a node always contains the node's
        // coordinates").
        let g = grid(150);
        for i in 0..150 {
            let id = NodeId(i);
            assert!(
                g.zone(id).contains(g.coord(id)),
                "node {id} coordinate outside its zone"
            );
        }
    }

    #[test]
    fn identical_nodes_separate_via_virtual_dimension() {
        // A population of byte-identical nodes can only split along the
        // virtual dimension — the exact purpose of that dimension.
        let layout = DimensionLayout::with_dims(5);
        let pop = vec![NodeSpec::cpu_only(2.0, 8.0, 4, 100.0); 50];
        let g = StaticGrid::build(layout, pop, 7);
        g.check_invariants();
        assert_eq!(g.len(), 50);
    }

    #[test]
    fn routing_reaches_job_coordinates() {
        let g = grid(100);
        let mut rng = pgrid_simcore::SimRng::seed_from_u64(9);
        for _ in 0..50 {
            let p: Point = (0..11).map(|_| rng.unit() * 0.9).collect();
            let r = g.route_to(NodeId(0), &p);
            assert_eq!(r.owner, g.owner_at(&p));
        }
    }

    #[test]
    fn cut_bounds_every_sum_at_or_below_the_distance() {
        let mut rng = pgrid_simcore::SimRng::seed_from_u64(3);
        // Distances up to the unit space's diagonal, at every scale
        // down to gaps of one part in 10^12, and the two ends.
        let mut distances = vec![0.0, f64::MIN_POSITIVE, 11f64.sqrt(), f64::INFINITY];
        for _ in 0..20_000 {
            distances.push(rng.unit() * 3.4 * 10f64.powi(-(rng.below(13) as i32)));
        }
        for d in distances {
            let c = cut(d);
            // Pruning stays sharp: nothing two floats past `d` survives
            // (where d² is a normal number).
            if d > 1e-150 {
                assert!(c.sqrt() <= d.next_up().next_up(), "cut({d}) = {c} is loose");
            }
            if d == f64::INFINITY {
                continue;
            }
            // Every sum around d² whose rounded root is `d` or less —
            // the ties included — is at or below the cut.
            let around = (d * d).to_bits();
            for s in (around.saturating_sub(64)..=around + 64).map(f64::from_bits) {
                if s.sqrt() <= d {
                    assert!(s <= c, "sqrt({s}) <= {d} but {s} > cut = {c}");
                }
            }
            // And a sum equal to the cut is already strictly farther.
            assert!(c.sqrt() > d, "a sum at cut({d}) ties with it");
        }
    }

    #[test]
    fn gap_sums_only_grow_term_by_term() {
        // On the lattice's own gaps: no term and no running sum exceeds
        // the total, which is what lets a face's known term and a
        // partial sum stand in for it — and `gap_sum` stops early
        // exactly when the total is over the cut.
        let g = grid(200);
        let mut rng = pgrid_simcore::SimRng::seed_from_u64(4);
        let mut points: Vec<Point> = (0..200).map(|i| g.coord(NodeId(i)).clone()).collect();
        points.extend((0..200).map(|_| (0..11).map(|_| rng.unit()).collect::<Point>()));
        for p in &points {
            for i in 0..200 {
                let (lo, hi) = g.bounds(NodeId(i));
                let total = gap_sum(lo, hi, p, f64::INFINITY);
                assert_eq!(
                    total.sqrt().to_bits(),
                    g.zone(NodeId(i)).distance_to(p).to_bits()
                );
                let mut running = 0.0;
                for d in 0..11 {
                    let term = gap_sum(&lo[d..=d], &hi[d..=d], &p[d..=d], f64::INFINITY);
                    running += term;
                    assert!(term <= total && running <= total);
                    let early = gap_sum(lo, hi, p, running);
                    if total <= running {
                        assert_eq!(early.to_bits(), total.to_bits());
                    } else {
                        assert!(early > running && early <= total);
                    }
                }
                assert_eq!(running.to_bits(), total.to_bits());
            }
        }
    }

    #[test]
    fn zone_distance_is_distance_to_at_every_bound() {
        // Bit for bit where a gap term can be computed two ways: on each
        // bound and one ulp either side of it, at both ends of the unit
        // space, and at gaps in the subnormal range (below a zone's 0.0
        // bound, and between subnormal bounds), one dimension moved at a
        // time and all of them at once.
        let sub = [f64::from_bits(1), f64::from_bits(0x000F_FFFF_FFFF_FFFF)];
        let check = |lo: &[f64], hi: &[f64], z: &pgrid_can::geom::Zone, p: &[f64]| {
            let want = z.distance_to(p);
            assert_eq!(
                gap_sum(lo, hi, p, f64::INFINITY).sqrt().to_bits(),
                want.to_bits(),
                "{z:?} to {p:?}"
            );
            assert_eq!(
                gap_sum(lo, hi, p, 0.0) > 0.0,
                want > 0.0,
                "early exit at {p:?}"
            );
        };
        let g = grid(120);
        let mut rng = pgrid_simcore::SimRng::seed_from_u64(6);
        for i in 0..120 {
            let id = NodeId(i);
            let z = g.zone(id);
            let (lo, hi) = g.bounds(id);
            let values: Vec<Vec<f64>> = (0..11)
                .map(|d| {
                    let mut v = vec![0.0, 1f64.next_down(), -sub[0], -sub[1], sub[0]];
                    for b in [z.lo(d), z.hi(d)] {
                        v.extend([b.next_down(), b, b.next_up()]);
                    }
                    v
                })
                .collect();
            let base = g.coord(id).clone();
            for d in 0..11 {
                for &x in &values[d] {
                    let mut p = base.clone();
                    p[d] = x;
                    check(lo, hi, z, &p);
                    assert_eq!(
                        g.zone_distance(id, &p).to_bits(),
                        z.distance_to(&p).to_bits()
                    );
                    assert_eq!(g.zone_contains(id, &p), z.contains(&p), "{z:?} {p:?}");
                }
            }
            for _ in 0..40 {
                let p: Point = values.iter().map(|v| v[rng.below(v.len())]).collect();
                check(lo, hi, z, &p);
                assert_eq!(
                    g.zone_distance(id, &p).to_bits(),
                    z.distance_to(&p).to_bits()
                );
                assert_eq!(g.zone_contains(id, &p), z.contains(&p), "{z:?} {p:?}");
            }
        }
        // Bounds in the subnormal range: every gap is subnormal, and its
        // square underflows to 0 or to a subnormal.
        let lo = vec![sub[0] * 4.0, sub[1], 0.0];
        let hi = vec![sub[0] * 9.0, f64::MIN_POSITIVE * 2.0, sub[0]];
        let z = pgrid_can::geom::Zone::from_bounds(lo.clone(), hi.clone());
        let axis = [
            0.0,
            sub[0],
            sub[0] * 3.0,
            sub[0] * 5.0,
            sub[1],
            f64::MIN_POSITIVE,
        ];
        for &a in &axis {
            for &b in &axis {
                for &c in &axis {
                    for sign in [1.0, -1.0] {
                        check(&lo, &hi, &z, &[a * sign, b, c * sign]);
                        check(&lo, &hi, &z, &[a * 1e150, b * sign, c]);
                    }
                }
            }
        }
    }

    #[test]
    fn closest_neighbor_holds_more_faces_than_one_block() {
        // Twelve GPU families on a 41-dimensional layout: every
        // dimension splits, and a few zones have more non-empty faces
        // than `closest_neighbor` holds back at once. From such a zone,
        // a target one ulp inside a face gives every face a known term,
        // the closest neighbor behind any one of them; one ulp past the
        // face, it is behind the one face scanned first.
        let mut cfg = NodeGenConfig::paper_defaults(3);
        cfg.gpu_slots = 12;
        cfg.gpu_attach_prob = vec![0.5; 12];
        let n = 4096;
        let g = StaticGrid::build(
            DimensionLayout::with_dims(41),
            generate_nodes(&cfg, n, 2011),
            2011,
        );
        let full_scan = |id: NodeId, p: &Point| {
            let mut best = None;
            for &m in g.neighbors(id) {
                let d = g.zone(m).distance_to(p);
                if displaces(m, d, best) {
                    best = Some((m, d));
                }
            }
            best.map(|(m, d): (NodeId, f64)| (m, d.to_bits()))
        };
        let mut aimed = 0;
        for id in (0..n as u32).map(NodeId) {
            let faces: Vec<(usize, i8)> = (0..41)
                .flat_map(|d| [(d, 1), (d, -1)])
                .filter(|&(d, dir)| !g.face_neighbors(id, d, dir).is_empty())
                .collect();
            if faces.len() <= FACE_BLOCK {
                continue;
            }
            let z = g.zone(id);
            for &(d, dir) in &faces {
                let (inside, past) = if dir == 1 {
                    (z.hi(d).next_down(), z.hi(d))
                } else {
                    (z.lo(d).next_up(), z.lo(d).next_down())
                };
                for x in [inside, past] {
                    let mut p = z.center();
                    p[d] = x;
                    aimed += 1;
                    let got = g.closest_neighbor(id, &p).map(|(m, d)| (m, d.to_bits()));
                    assert_eq!(got, full_scan(id, &p), "{id} to {p:?}");
                }
            }
        }
        assert!(aimed > 0, "no zone has more than {FACE_BLOCK} faces");
    }

    #[test]
    fn outward_neighbors_are_on_the_high_face() {
        let g = grid(120);
        for i in 0..120 {
            let id = NodeId(i);
            for d in 0..11 {
                for &n in g.outward_neighbors(id, d) {
                    assert_eq!(g.zone(id).hi(d), g.zone(n).lo(d));
                }
            }
        }
    }

    #[test]
    fn face_buckets_partition_the_neighbor_set() {
        // Every neighbor abuts on exactly one face, so the union of all
        // face buckets must be exactly the neighbor set, each neighbor
        // once.
        let g = grid(120);
        for i in 0..120 {
            let id = NodeId(i);
            let mut from_faces: Vec<NodeId> = Vec::new();
            for d in 0..11 {
                for dir in [1i8, -1] {
                    from_faces.extend_from_slice(g.face_neighbors(id, d, dir));
                }
            }
            from_faces.sort_unstable();
            let mut neighbors = g.neighbors(id).to_vec();
            neighbors.sort_unstable();
            assert_eq!(from_faces, neighbors, "node {id}");
            neighbors.dedup();
            assert_eq!(
                neighbors.len(),
                from_faces.len(),
                "node {id}: a neighbor twice"
            );
        }
    }

    #[test]
    fn eviction_maintains_the_availability_index() {
        let mut g = grid(60);
        assert_eq!(g.available_nodes().len(), 60);
        g.evict_node(NodeId(17));
        g.evict_node(NodeId(3));
        assert_eq!(g.available_nodes().len(), 58);
        assert!(!g.runtime(NodeId(17)).available());
        g.check_invariants();
        g.restore_node(NodeId(17));
        assert_eq!(g.available_nodes().len(), 59);
        assert!(g.runtime(NodeId(17)).available());
        g.check_invariants();
        // Idempotent: double-restore and double-evict do not corrupt.
        g.restore_node(NodeId(17));
        g.evict_node(NodeId(3));
        g.check_invariants();
    }

    #[test]
    fn ce_index_is_ranked_and_tracks_eviction() {
        let mut g = grid(80);
        // Every node has a CPU, so the CPU list covers the full grid,
        // ranked clock-descending with id-ascending tie-breaks.
        let cpu = g.ce_available(CeType::CPU);
        assert_eq!(cpu.len(), 80);
        for w in cpu.windows(2) {
            let (a, b) = (w[0], w[1]);
            let ca = g.runtime(a).spec.ce(CeType::CPU).unwrap().clock;
            let cb = g.runtime(b).spec.ce(CeType::CPU).unwrap().clock;
            assert!(ca > cb || (ca == cb && a < b), "{a}/{b} out of order");
        }
        // GPU lists contain exactly the holders of that GPU family.
        for slot in 0..2u8 {
            let ty = CeType::gpu(slot);
            for &n in g.ce_available(ty) {
                assert!(g.runtime(n).spec.ce(ty).is_some());
            }
        }
        // Eviction removes the node from every list it was in; restore
        // puts it back at the same rank.
        let victim = cpu[3];
        let before: Vec<NodeId> = g.ce_available(CeType::CPU).to_vec();
        g.evict_node(victim);
        assert!(!g.ce_available(CeType::CPU).contains(&victim));
        g.check_invariants();
        g.restore_node(victim);
        assert_eq!(g.ce_available(CeType::CPU), &before[..]);
        g.check_invariants();
    }

    #[test]
    fn load_clock_stamps_every_mutation_path() {
        let mut g = grid(40);
        assert_eq!(g.load_clock(), 0, "fresh grid: no mutations yet");
        assert!((0..40u32).all(|i| g.node_load_clock(NodeId(i)) == 0));
        // with_runtime_mut stamps before handing out the runtime.
        g.with_runtime_mut(NodeId(7), |rt| {
            assert!(rt.is_free());
        });
        assert_eq!(g.load_clock(), 1);
        assert_eq!(g.node_load_clock(NodeId(7)), 1);
        assert_eq!(g.node_load_clock(NodeId(8)), 0, "only the target moves");
        // Eviction, crash and restore stamp too.
        g.evict_node(NodeId(3));
        assert_eq!(g.node_load_clock(NodeId(3)), 2);
        g.restore_node(NodeId(3));
        assert_eq!(g.node_load_clock(NodeId(3)), 3);
        g.crash_node(NodeId(9));
        assert_eq!(g.node_load_clock(NodeId(9)), 4);
        assert_eq!(g.load_clock(), 4);
        g.check_invariants();
    }

    #[test]
    fn deterministic_build() {
        let a = grid(80);
        let b = grid(80);
        for i in 0..80 {
            assert_eq!(a.coord(NodeId(i)), b.coord(NodeId(i)));
            assert_eq!(a.neighbors(NodeId(i)), b.neighbors(NodeId(i)));
        }
    }
}
