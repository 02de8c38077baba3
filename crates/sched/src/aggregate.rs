//! Aggregated load information (AI).
//!
//! "We aggregate global load information along each CAN dimension by
//! piggybacking load data onto the heartbeat messages used to maintain
//! connectivity in the CAN" (§II-B). Each node's AI along dimension D
//! summarizes the region *beyond* it (away from the origin): that is
//! the direction job pushing moves, because nodes farther out have
//! higher resource capabilities.
//!
//! The heterogeneous scheme keeps AI **per CE type** (the fix that
//! makes Eq. 3 meaningful for GPU-dominant jobs); the homogeneous
//! baseline pools every CE into one number, which is exactly the
//! "inaccurate aggregated information" the paper blames for can-hom's
//! misdirected pushes.
//!
//! AI is snapshotted only every refresh period (the heartbeat period),
//! so matchmaking decisions run on *stale* aggregates — one of the two
//! information gaps separating the decentralized schemes from the
//! `central` baseline (the other being neighborhood-local visibility).
//! The model fixes which snapshot a push step sees, not when the
//! simulator does the sums: [`AiTable::refresh`] takes the snapshot,
//! and a region's aggregate is computed from it when a push first reads
//! it.

use crate::grid::StaticGrid;
use pgrid_types::{CeType, NodeId};

/// Aggregated load of a CAN region for one CE type (or pooled).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AiEntry {
    /// Nodes in the region carrying the CE type (all nodes when
    /// pooled).
    pub nodes: u64,
    /// Total cores of the CE type in the region.
    pub cores: f64,
    /// Cores required by running + waiting jobs in the region.
    pub required_cores: f64,
    /// Free nodes (no running or waiting jobs) in the region.
    pub free_nodes: u64,
    /// Nodes in the region at their queue-pressure bound (overload
    /// control's congestion signal, piggybacked on the same heartbeat
    /// path). Always 0 while the bound is disarmed (the default), so
    /// every pre-overload aggregate is bit-identical.
    pub pressured: u64,
}

impl AiEntry {
    /// The all-zero entry: an empty region. Also returned by
    /// [`AiTable::beyond`] for CE types the layout does not carry.
    pub const EMPTY: AiEntry = AiEntry {
        nodes: 0,
        cores: 0.0,
        required_cores: 0.0,
        free_nodes: 0,
        pressured: 0,
    };

    /// Element-wise accumulation.
    pub fn absorb(&mut self, other: &AiEntry) {
        self.nodes += other.nodes;
        self.cores += other.cores;
        self.required_cores += other.required_cores;
        self.free_nodes += other.free_nodes;
        self.pressured += other.pressured;
    }

    /// The paper's Eq. 3 objective for this region.
    pub fn objective(&self) -> f64 {
        pgrid_types::score::objective_fd(self.required_cores, self.cores)
    }

    /// The entry as [`Words`], the floats by their bits.
    fn to_words(self) -> Words {
        [
            self.nodes,
            self.cores.to_bits(),
            self.required_cores.to_bits(),
            self.free_nodes,
            self.pressured,
        ]
    }

    /// The entry [`AiEntry::to_words`] wrote, bit for bit.
    fn from_words(w: Words) -> Self {
        AiEntry {
            nodes: w[0],
            cores: f64::from_bits(w[1]),
            required_cores: f64::from_bits(w[2]),
            free_nodes: w[3],
            pressured: w[4],
        }
    }
}

/// An [`AiEntry`] as five 64-bit words — nodes, cores bits,
/// required-cores bits, free nodes, pressured nodes — the form the table
/// keeps its rows in and [`AiTable::local_bits`] ships. All-zero words
/// are [`AiEntry::EMPTY`], so a table of them can start as a zeroed
/// allocation whose pages the OS commits only when a row is first
/// written.
type Words = [u64; 5];

/// Bit-exact equality: `f64` fields compared via `to_bits`, so a
/// local entry counts as unchanged — and stales nothing — only when it
/// is byte-identical, never when it merely compares `==` (e.g. `0.0`
/// vs `-0.0`).
fn bits_eq(a: &AiEntry, b: &AiEntry) -> bool {
    a.nodes == b.nodes
        && a.free_nodes == b.free_nodes
        && a.pressured == b.pressured
        && a.cores.to_bits() == b.cores.to_bits()
        && a.required_cores.to_bits() == b.required_cores.to_bits()
}

/// One dimension's from-scratch build over its `[node][slot]` chunk:
/// every entry recomputed in descending-`hi` order, ignoring old bits.
fn build_dim(
    grid: &StaticGrid,
    d: usize,
    order_d: &[NodeId],
    locals: &[AiEntry],
    slots: usize,
    chunk: &mut [Words],
) {
    for &node in order_d {
        for s in 0..slots {
            let mut acc = AiEntry::default();
            for &m in grid.outward_neighbors(node, d) {
                acc.absorb(&locals[m.idx() * slots + s]);
                acc.absorb(&AiEntry::from_words(chunk[m.idx() * slots + s]));
            }
            chunk[node.idx() * slots + s] = acc.to_words();
        }
    }
}

/// How the AI table groups computing elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AiGrouping {
    /// One entry per CE type (can-het).
    PerCe,
    /// Everything pooled into a single entry (can-hom).
    Pooled,
}

/// Per-node, per-dimension aggregated load information over the
/// outward regions of a static grid.
pub struct AiTable {
    grouping: AiGrouping,
    ce_types: Vec<CeType>,
    dims: usize,
    n: usize,
    /// `[dim][node][ce_idx]` flattened — dimension-major, so one
    /// dimension's rows (which only ever read each other) are one
    /// contiguous chunk. A row is meaningful only while its `stale`
    /// flag is clear. Kept as [`Words`] so that [`AiTable::new`] writes
    /// none of it: a row's memory is committed when it is first
    /// materialized.
    data: Vec<Words>,
    /// `[dim][node]` flattened: the row must be recomputed from
    /// `locals` before it is read. Kept *inward-closed* per dimension
    /// (a stale row's inward face neighbors are all stale), so a fresh
    /// row only ever depends on fresh rows.
    stale: Vec<bool>,
    /// Per-node local loads as of the last refresh (`[node][ce_idx]`
    /// flattened) — the snapshot every row is a function of. A refresh
    /// recomputes only dirty nodes' rows and keeps the rest.
    locals: Vec<AiEntry>,
    /// Processing order per dimension (descending upper zone bound);
    /// built by the first [`AiTable::refresh_scratch`], which alone
    /// walks it.
    order: Vec<Vec<NodeId>>,
    /// Grid load-clock value at the last refresh (`None` before the
    /// first, and after a change of pressure bound: the next refresh
    /// retakes every local and leaves no row fresh).
    synced_clock: Option<u64>,
    /// Scratch: nodes whose local entry changed in the current refresh.
    changed_locals: Vec<NodeId>,
    /// Scratch: the explicit stack of the marking and materializing
    /// walks — `(node, outward neighbors already descended into)`.
    stack: Vec<(NodeId, u32)>,
    /// Queue depth at which a node's local entry flags the pressure
    /// bit; `None` (default) disarms the congestion signal entirely.
    pressure_bound: Option<usize>,
    /// Simulation time of the last refresh.
    pub refreshed_at: f64,
}

impl AiTable {
    /// Builds the table structure for a grid (all-zero entries; call
    /// [`AiTable::refresh`]).
    pub fn new(grid: &StaticGrid, grouping: AiGrouping) -> Self {
        let dims = grid.layout().dims();
        let n = grid.len();
        let ce_types = match grouping {
            AiGrouping::PerCe => grid.layout().ce_types(),
            AiGrouping::Pooled => vec![CeType::CPU], // single slot
        };
        let slots = ce_types.len();
        AiTable {
            grouping,
            ce_types,
            dims,
            n,
            data: vec![[0; 5]; n * dims * slots],
            stale: vec![true; n * dims],
            locals: vec![AiEntry::default(); n * slots],
            order: Vec::new(),
            synced_clock: None,
            changed_locals: Vec::new(),
            stack: Vec::new(),
            pressure_bound: None,
            refreshed_at: 0.0,
        }
    }

    /// The descending-`hi` walk order of every dimension (outward
    /// regions first), built on first use.
    fn ensure_order(&mut self, grid: &StaticGrid) {
        if !self.order.is_empty() {
            return;
        }
        self.order = (0..self.dims)
            .map(|d| {
                let mut ids: Vec<NodeId> = (0..self.n as u32).map(NodeId).collect();
                ids.sort_by(|a, b| {
                    grid.zone(*b)
                        .hi(d)
                        .total_cmp(&grid.zone(*a).hi(d))
                        .then(a.cmp(b))
                });
                ids
            })
            .collect();
    }

    /// Arms (or disarms) the queue-pressure congestion bit: a node
    /// whose FIFO queue holds at least `bound` waiters flags
    /// [`AiEntry::pressured`] in its local entries. The next refresh
    /// retakes every local and leaves no row fresh, so a mid-run change
    /// of bound can never leave old pressure bits behind.
    pub fn set_pressure_bound(&mut self, bound: Option<usize>) {
        if self.pressure_bound != bound {
            self.pressure_bound = bound;
            self.synced_clock = None;
        }
    }

    /// The armed queue-pressure bound, if any.
    pub fn pressure_bound(&self) -> Option<usize> {
        self.pressure_bound
    }

    fn slots(&self) -> usize {
        self.ce_types.len()
    }

    #[inline]
    fn idx(&self, node: NodeId, dim: usize, ce_idx: usize) -> usize {
        (dim * self.n + node.idx()) * self.slots() + ce_idx
    }

    /// Slot index of a CE type; `None` when the layout does not carry
    /// it (e.g. a GPU family outside the grid's dimension layout) — a
    /// query for such a type sees an empty region, not a panic.
    pub(crate) fn ce_index(&self, ce: CeType) -> Option<usize> {
        match self.grouping {
            AiGrouping::Pooled => Some(0),
            AiGrouping::PerCe => self.ce_types.iter().position(|&t| t == ce),
        }
    }

    /// The local (single-node) load contribution of `node` for slot
    /// `ce_idx`.
    fn local(&self, grid: &StaticGrid, node: NodeId, ce_idx: usize) -> AiEntry {
        let rt = grid.runtime(node);
        let free = u64::from(rt.is_free());
        let pressured = u64::from(self.pressure_bound.is_some_and(|b| rt.queued_count() >= b));
        match self.grouping {
            AiGrouping::PerCe => {
                let ty = self.ce_types[ce_idx];
                match rt.load_of(ty) {
                    Some((cores, required)) => AiEntry {
                        nodes: 1,
                        cores,
                        required_cores: required,
                        free_nodes: free,
                        pressured,
                    },
                    None => AiEntry::default(),
                }
            }
            AiGrouping::Pooled => {
                let (cores, required) = rt.pooled_load();
                AiEntry {
                    nodes: 1,
                    cores,
                    required_cores: required,
                    free_nodes: free,
                    pressured,
                }
            }
        }
    }

    /// Snapshots the grid's current load state, stamping the refresh
    /// time. In the real system this information flows inward one
    /// heartbeat hop per period; snapshotting on the heartbeat period
    /// preserves the essential property — decisions use data up to a
    /// full period old.
    ///
    /// What a later [`AiTable::beyond`] may observe is fixed *here*: the
    /// per-node `locals` are brought up to date eagerly (only nodes
    /// dirtied since the last refresh, tracked by
    /// [`StaticGrid::load_clock`], are recomputed), while the aggregate
    /// rows are only *marked*: per dimension, every row in the inward
    /// closure of a changed local goes stale and is recomputed from the
    /// snapshot by the first read that needs it. A changed local changes
    /// most of the grid's rows along every dimension, so the eager
    /// alternative costs O(n · dims) per period whatever is read
    /// afterwards; marking costs only the rows that were fresh. See
    /// `DESIGN.md` §10 for the invariants and the induction argument.
    pub fn refresh(&mut self, grid: &StaticGrid, now: f64) {
        let clock = grid.load_clock();
        self.refreshed_at = now;
        let synced = self.synced_clock;
        if synced == Some(clock) {
            // No load mutation since the last sync: the snapshot stands.
            return;
        }
        let slots = self.slots();
        // Phase 1: recompute the local entry of every dirty node (every
        // node, with no sync point to be dirty against), recording the
        // nodes whose row actually changed (a mutation that nets out —
        // e.g. evict immediately followed by restore of an idle node —
        // changes nothing downstream).
        let mut changed_locals = std::mem::take(&mut self.changed_locals);
        changed_locals.clear();
        let mut locals = std::mem::take(&mut self.locals);
        for i in 0..self.n {
            let id = NodeId(i as u32);
            if synced.is_some_and(|at| grid.node_load_clock(id) <= at) {
                continue;
            }
            let mut changed = false;
            for s in 0..slots {
                let e = self.local(grid, id, s);
                if !bits_eq(&e, &locals[i * slots + s]) {
                    locals[i * slots + s] = e;
                    changed = true;
                }
            }
            if changed {
                changed_locals.push(id);
            }
        }
        // Phase 2: a row depends only on the locals and rows of its
        // outward face neighbors, so the rows a changed local can reach
        // are exactly its inward closure. A row that is already stale
        // ends the walk: the stale set is inward-closed, so everything
        // behind it is marked already. The first refresh, and the one
        // after a change of pressure bound, leave no row fresh — and so
        // nothing to mark.
        if synced.is_none() {
            self.stale.fill(true);
            changed_locals.clear();
        }
        for (d, stale) in self.stale.chunks_mut(self.n).enumerate() {
            self.stack.extend(changed_locals.iter().map(|&m| (m, 0)));
            while let Some((x, _)) = self.stack.pop() {
                for &p in grid.face_neighbors(x, d, -1) {
                    if !stale[p.idx()] {
                        stale[p.idx()] = true;
                        self.stack.push((p, 0));
                    }
                }
            }
        }
        self.locals = locals;
        self.changed_locals = changed_locals;
        self.synced_clock = Some(clock);
    }

    /// Recomputes the stale part of the outward closure of row
    /// `(node, d)` from the snapshotted `locals` — never the live
    /// runtimes — outermost rows first, on an explicit stack (the
    /// chain of outward neighbors can be as long as the grid). Each row
    /// is computed by the absorb sequence of [`build_dim`], and its
    /// flag is cleared only once every row it read is fresh, so a fresh
    /// row always equals what [`AiTable::refresh_scratch`] would have
    /// written at the last refresh, bit for bit. Outward neighbors have
    /// a strictly larger `hi(d)`, so the walk terminates.
    fn materialize(&mut self, grid: &StaticGrid, node: NodeId, d: usize) {
        let slots = self.slots();
        let span = self.n * slots;
        let chunk = &mut self.data[d * span..(d + 1) * span];
        let stale = &mut self.stale[d * self.n..(d + 1) * self.n];
        self.stack.push((node, 0));
        while let Some(top) = self.stack.last_mut() {
            let x = top.0;
            let outward = grid.outward_neighbors(x, d);
            let seen = top.1 as usize;
            if let Some(k) = outward[seen..].iter().position(|m| stale[m.idx()]) {
                top.1 = (seen + k + 1) as u32;
                self.stack.push((outward[seen + k], 0));
                continue;
            }
            for s in 0..slots {
                let mut acc = AiEntry::default();
                for &m in outward {
                    acc.absorb(&self.locals[m.idx() * slots + s]);
                    acc.absorb(&AiEntry::from_words(chunk[m.idx() * slots + s]));
                }
                chunk[x.idx() * slots + s] = acc.to_words();
            }
            stale[x.idx()] = false;
            self.stack.pop();
        }
    }

    /// Recomputes every local and every row from scratch, ignoring the
    /// dirty set and the stale flags — the reference implementation
    /// the demand-driven path is held bit-identical to (differential
    /// harness, golden digests), and the baseline side of the
    /// `ai_refresh` perf cells.
    pub fn refresh_scratch(&mut self, grid: &StaticGrid, now: f64) {
        self.ensure_order(grid);
        let slots = self.slots();
        // Cache local loads once per node, into the reusable scratch
        // buffer (every entry is overwritten before any is read).
        let mut locals = std::mem::take(&mut self.locals);
        for i in 0..self.n {
            for s in 0..slots {
                locals[i * slots + s] = self.local(grid, NodeId(i as u32), s);
            }
        }
        let span = self.n * slots;
        for (d, chunk) in self.data.chunks_mut(span).enumerate() {
            build_dim(grid, d, &self.order[d], &locals, slots, chunk);
        }
        self.stale.fill(false);
        self.locals = locals;
        self.synced_clock = Some(grid.load_clock());
        self.refreshed_at = now;
    }

    /// The aggregated load of the region beyond `node` along `dim` for
    /// CE type `ce` (pooled tables ignore `ce`), as of the last refresh;
    /// a stale row is recomputed from that refresh's snapshot first. A
    /// CE type outside the layout reads as an empty region.
    pub fn beyond(&mut self, grid: &StaticGrid, node: NodeId, dim: usize, ce: CeType) -> AiEntry {
        match self.ce_index(ce) {
            Some(s) => self.entry_at(grid, node, dim, s),
            None => AiEntry::EMPTY,
        }
    }

    /// The grouping in use.
    pub fn grouping(&self) -> AiGrouping {
        self.grouping
    }

    /// Number of dimensions covered.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// The CE types backing the table's slots (one pooled slot for
    /// [`AiGrouping::Pooled`]). Diagnostic surface for the differential
    /// harness.
    pub fn slot_types(&self) -> &[CeType] {
        &self.ce_types
    }

    /// The entry for `(node, dim, slot)`, `slot` indexing
    /// [`AiTable::slot_types`] — [`AiTable::beyond`] by slot, and the
    /// differential and property harnesses' way in.
    pub fn entry_at(
        &mut self,
        grid: &StaticGrid,
        node: NodeId,
        dim: usize,
        slot: usize,
    ) -> AiEntry {
        if self.stale[dim * self.n + node.idx()] {
            self.materialize(grid, node, dim);
        }
        AiEntry::from_words(self.data[self.idx(node, dim, slot)])
    }

    /// Whether row `(node, dim)` is waiting to be recomputed.
    /// Diagnostic surface for the property harness.
    pub fn is_stale(&self, node: NodeId, dim: usize) -> bool {
        self.stale[dim * self.n + node.idx()]
    }

    /// Recomputes the local (single-node) entry for `slot` from the
    /// grid's *current* state, without consulting or modifying the
    /// table — lets harnesses check the dirty-set invariant (a node
    /// absent from the dirty set must have an unchanged local entry).
    pub fn local_of(&self, grid: &StaticGrid, node: NodeId, slot: usize) -> AiEntry {
        self.local(grid, node, slot)
    }

    /// The grid load-clock value of the last refresh (`None` before the
    /// first).
    pub fn synced_clock(&self) -> Option<u64> {
        self.synced_clock
    }

    /// Serializes `node`'s zone-local aggregate row (one [`AiEntry`]
    /// per slot, as of the last refresh) into opaque 64-bit words —
    /// five per slot: nodes, cores bits, required-cores bits, free
    /// nodes, pressured nodes (the queue-pressure congestion bit; 0
    /// while disarmed). This is the slice a CAN zone owner hands to
    /// `CanSim::set_agg_slice` for warm-standby replication;
    /// [`AiTable::slice_from_bits`] round-trips it bit-exactly when the
    /// heir promotes the replica.
    pub fn local_bits(&self, node: NodeId) -> Vec<u64> {
        let slots = self.ce_types.len();
        let row = &self.locals[node.idx() * slots..(node.idx() + 1) * slots];
        row.iter().flat_map(|e| e.to_words()).collect()
    }

    /// Decodes a word vector produced by [`AiTable::local_bits`] back
    /// into per-slot entries. Returns `None` when the length is not a
    /// whole number of five-word slots (a malformed replica).
    pub fn slice_from_bits(bits: &[u64]) -> Option<Vec<AiEntry>> {
        let (slots, []) = bits.as_chunks::<5>() else {
            return None;
        };
        Some(slots.iter().map(|&w| AiEntry::from_words(w)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgrid_types::DimensionLayout;
    use pgrid_workload::nodegen::{generate_nodes, NodeGenConfig};

    fn grid(n: usize, dims: usize) -> StaticGrid {
        let layout = DimensionLayout::with_dims(dims);
        let slots = ((dims - 5) / 3) as u8;
        let pop = generate_nodes(&NodeGenConfig::paper_defaults(slots), n, 5);
        StaticGrid::build(layout, pop, 5)
    }

    #[test]
    fn idle_grid_has_zero_required_cores() {
        let g = grid(100, 11);
        let mut ai = AiTable::new(&g, AiGrouping::PerCe);
        ai.refresh(&g, 0.0);
        for i in 0..100u32 {
            for d in 0..11 {
                let e = ai.beyond(&g, NodeId(i), d, CeType::CPU);
                assert_eq!(e.required_cores, 0.0);
                assert_eq!(e.free_nodes, e.nodes, "idle grid: every node free");
            }
        }
    }

    #[test]
    fn outermost_node_sees_empty_region() {
        let g = grid(80, 5);
        let mut ai = AiTable::new(&g, AiGrouping::PerCe);
        ai.refresh(&g, 0.0);
        for d in 0..5 {
            // The node whose zone touches the upper boundary in dim d
            // with no outward neighbors must see an empty region.
            for i in 0..80u32 {
                if g.zone(NodeId(i)).hi(d) == 1.0 {
                    let e = ai.beyond(&g, NodeId(i), d, CeType::CPU);
                    assert_eq!(e.nodes, 0, "node {i} dim {d}");
                }
            }
        }
    }

    #[test]
    fn load_shows_up_in_inner_nodes_ai() {
        use pgrid_types::{CeRequirement, CeType as Ct, JobId, JobSpec};
        let mut g = grid(60, 5);
        // Load up the node owning the outermost corner region.
        let top = g.owner_at(&vec![0.99, 0.99, 0.99, 0.99, 0.99]);
        let job = JobSpec::new(
            JobId(0),
            vec![CeRequirement {
                ce_type: Ct::CPU,
                min_cores: Some(1),
                ..Default::default()
            }],
            None,
            60.0,
        );
        g.with_runtime_mut(top, |rt| {
            rt.enqueue(job, 0.0);
            rt.start_ready();
        });
        let mut ai = AiTable::new(&g, AiGrouping::PerCe);
        ai.refresh(&g, 0.0);
        // Some node must observe the loaded region beyond it.
        let seen = (0..60u32)
            .any(|i| (0..5).any(|d| ai.beyond(&g, NodeId(i), d, Ct::CPU).required_cores > 0.0));
        assert!(seen, "load at the corner must appear in someone's AI");
    }

    #[test]
    fn local_bits_round_trip_is_bit_exact() {
        use pgrid_types::{CeRequirement, CeType as Ct, JobId, JobSpec};
        let mut g = grid(40, 8);
        // Put real load on a node so the encoded floats are nontrivial.
        let busy = g.owner_at(&vec![0.5; 8]);
        let job = JobSpec::new(
            JobId(0),
            vec![CeRequirement {
                ce_type: Ct::CPU,
                min_cores: Some(2),
                ..Default::default()
            }],
            None,
            120.0,
        );
        g.with_runtime_mut(busy, |rt| {
            rt.enqueue(job, 0.0);
            rt.start_ready();
        });
        let mut ai = AiTable::new(&g, AiGrouping::PerCe);
        ai.refresh(&g, 0.0);
        for i in 0..40u32 {
            let bits = ai.local_bits(NodeId(i));
            assert_eq!(bits.len() % 5, 0);
            let decoded = AiTable::slice_from_bits(&bits).expect("well-formed");
            assert_eq!(decoded.len(), ai.slot_types().len());
            for (s, e) in decoded.iter().enumerate() {
                let truth = ai.local_of(&g, NodeId(i), s);
                assert!(bits_eq(e, &truth), "node {i} slot {s}: {e:?} != {truth:?}");
            }
        }
        // Malformed word counts are rejected, not misparsed.
        assert!(AiTable::slice_from_bits(&[1, 2, 3]).is_none());
        assert!(AiTable::slice_from_bits(&[]).is_some_and(|v| v.is_empty()));
    }

    #[test]
    fn entries_survive_the_word_form_bit_for_bit() {
        let nan = f64::from_bits(0x7FF8_0000_DEAD_BEEF);
        let subnormal = f64::from_bits(0x0000_0000_0000_0003);
        let floats = [0.0, -0.0, nan, -nan, subnormal, f64::INFINITY, 12.5];
        for (i, &cores) in floats.iter().enumerate() {
            for &required_cores in &floats {
                let e = AiEntry {
                    nodes: u64::MAX,
                    cores,
                    required_cores,
                    free_nodes: u64::MAX - i as u64,
                    pressured: u64::MAX,
                };
                let back = AiEntry::from_words(e.to_words());
                assert!(bits_eq(&back, &e), "{e:?} came back as {back:?}");
            }
        }
        // A row the table never wrote reads as the empty region.
        assert!(bits_eq(&AiEntry::from_words([0; 5]), &AiEntry::EMPTY));
        assert_eq!(AiEntry::EMPTY.to_words(), [0; 5]);
    }

    #[test]
    fn pooled_table_sums_all_ces() {
        let g = grid(50, 11);
        let mut per = AiTable::new(&g, AiGrouping::PerCe);
        let mut pooled = AiTable::new(&g, AiGrouping::Pooled);
        per.refresh(&g, 0.0);
        pooled.refresh(&g, 0.0);
        for i in 0..50u32 {
            for d in 0..11 {
                let sum: f64 = g
                    .layout()
                    .ce_types()
                    .iter()
                    .map(|&t| per.beyond(&g, NodeId(i), d, t).cores)
                    .sum();
                let p = pooled.beyond(&g, NodeId(i), d, CeType::CPU).cores;
                assert!(
                    (sum - p).abs() < 1e-9,
                    "node {i} dim {d}: per-CE sum {sum} != pooled {p}"
                );
            }
        }
    }

    /// Brute-force cross-check: the table must equal the recursive
    /// definition AI(n,d) = Σ_{m ∈ outward(n,d)} local(m) + AI(m,d),
    /// computed independently by memoized recursion.
    #[test]
    fn table_matches_bruteforce_recursion() {
        use pgrid_types::{CeRequirement, CeType as Ct, JobId, JobSpec};
        use std::collections::HashMap;
        let mut g = grid(70, 8);
        // Load a few nodes so required_cores is non-trivial.
        let mut rng = pgrid_simcore::SimRng::seed_from_u64(77);
        for _ in 0..30 {
            let target = NodeId(rng.below(70) as u32);
            let job = JobSpec::new(
                JobId(rng.below(100000) as u32),
                vec![CeRequirement {
                    ce_type: Ct::CPU,
                    min_cores: Some(1),
                    ..Default::default()
                }],
                None,
                60.0,
            );
            if job.satisfied_by(&g.runtime(target).spec) {
                g.with_runtime_mut(target, |rt| {
                    rt.enqueue(job, 0.0);
                    rt.start_ready();
                });
            }
        }
        let mut ai = AiTable::new(&g, AiGrouping::PerCe);
        ai.refresh(&g, 0.0);

        // Independent recursion.
        fn brute(
            g: &StaticGrid,
            n: NodeId,
            d: usize,
            ty: CeType,
            memo: &mut HashMap<(NodeId, usize), AiEntry>,
        ) -> AiEntry {
            if let Some(e) = memo.get(&(n, d)) {
                return *e;
            }
            let mut acc = AiEntry::default();
            for &m in g.outward_neighbors(n, d) {
                let rt = g.runtime(m);
                if let Some((cores, req)) = rt.load_of(ty) {
                    acc.absorb(&AiEntry {
                        nodes: 1,
                        cores,
                        required_cores: req,
                        free_nodes: u64::from(rt.is_free()),
                        pressured: 0,
                    });
                }
                let beyond = brute(g, m, d, ty, memo);
                acc.absorb(&beyond);
            }
            memo.insert((n, d), acc);
            acc
        }
        for d in 0..8 {
            let mut memo = HashMap::new();
            for i in 0..70u32 {
                let expect = brute(&g, NodeId(i), d, CeType::CPU, &mut memo);
                let got = ai.beyond(&g, NodeId(i), d, CeType::CPU);
                assert_eq!(got.nodes, expect.nodes, "node {i} dim {d}");
                assert!((got.cores - expect.cores).abs() < 1e-9);
                assert!((got.required_cores - expect.required_cores).abs() < 1e-9);
                assert_eq!(got.free_nodes, expect.free_nodes);
            }
        }
    }

    #[test]
    fn refresh_stamps_time() {
        let g = grid(20, 5);
        let mut ai = AiTable::new(&g, AiGrouping::PerCe);
        assert_eq!(ai.refreshed_at, 0.0);
        ai.refresh(&g, 360.0);
        assert_eq!(ai.refreshed_at, 360.0);
        assert_eq!(ai.synced_clock(), Some(g.load_clock()));
        // A no-churn refresh still advances the stamp.
        ai.refresh(&g, 720.0);
        assert_eq!(ai.refreshed_at, 720.0);
    }

    /// Regression for the `ce_index` panic: an 8-dimension layout
    /// carries CPU + one GPU family; querying the table for a GPU type
    /// it lacks must read as an empty region, not panic.
    #[test]
    fn unknown_ce_type_reads_empty_not_panic() {
        let g = grid(40, 8);
        let mut ai = AiTable::new(&g, AiGrouping::PerCe);
        ai.refresh(&g, 0.0);
        assert_eq!(g.layout().gpu_slots(), 1, "8-dim layout: one GPU slot");
        for missing in [CeType::gpu(1), CeType::gpu(7)] {
            let e = ai.beyond(&g, NodeId(0), 0, missing);
            assert_eq!(e.nodes, 0);
            assert_eq!(e.cores, 0.0);
            assert_eq!(e.required_cores, 0.0);
            assert_eq!(e.free_nodes, 0);
            assert_eq!(
                e.objective(),
                f64::INFINITY,
                "empty region: never pushed toward"
            );
        }
        // The carried types still resolve.
        assert!(ai.beyond(&g, NodeId(0), 0, CeType::CPU).nodes > 0 || g.len() == 1);
        // Pooled tables ignore the CE type entirely.
        let mut pooled = AiTable::new(&g, AiGrouping::Pooled);
        pooled.refresh(&g, 0.0);
        assert_eq!(
            pooled.beyond(&g, NodeId(0), 0, CeType::gpu(7)).nodes,
            pooled.beyond(&g, NodeId(0), 0, CeType::CPU).nodes
        );
    }

    /// Mini-differential: after scattered load mutations, evictions and
    /// restores, the demand-driven table must be bit-identical to a
    /// from-scratch rebuild on a shadow table (the full-size harness
    /// lives in `tests/ai_refresh_differential.rs`).
    #[test]
    fn incremental_refresh_matches_scratch_after_churn() {
        use pgrid_types::{CeRequirement, CeType as Ct, JobId, JobSpec};
        let mut g = grid(80, 11);
        let mut inc = AiTable::new(&g, AiGrouping::PerCe);
        let mut scr = AiTable::new(&g, AiGrouping::PerCe);
        inc.refresh(&g, 0.0);
        scr.refresh_scratch(&g, 0.0);
        let mut rng = pgrid_simcore::SimRng::seed_from_u64(99);
        for round in 1..=40u64 {
            // A couple of mutations between refreshes.
            for _ in 0..3 {
                let target = NodeId(rng.below(80) as u32);
                match rng.below(4) {
                    0 => {
                        g.evict_node(target);
                    }
                    1 => g.restore_node(target),
                    _ => {
                        let job = JobSpec::new(
                            JobId((round * 8 + rng.below(8) as u64 * 997) as u32),
                            vec![CeRequirement {
                                ce_type: Ct::CPU,
                                min_cores: Some(1),
                                ..Default::default()
                            }],
                            None,
                            60.0,
                        );
                        if job.satisfied_by(&g.runtime(target).spec) {
                            g.with_runtime_mut(target, |rt| {
                                rt.enqueue(job, 0.0);
                                rt.start_ready();
                            });
                        }
                    }
                }
            }
            let now = round as f64;
            inc.refresh(&g, now);
            scr.refresh_scratch(&g, now);
            for i in 0..80u32 {
                for d in 0..11 {
                    for s in 0..inc.slot_types().len() {
                        let a = inc.entry_at(&g, NodeId(i), d, s);
                        let b = scr.entry_at(&g, NodeId(i), d, s);
                        assert!(
                            super::bits_eq(&a, &b),
                            "round {round} node {i} dim {d} slot {s}: {a:?} != {b:?}"
                        );
                    }
                }
            }
        }
    }

    /// With the pressure bound armed, a node whose queue reaches the
    /// bound flags its local entries, the flag aggregates outward, and
    /// the demand-driven table stays bit-identical to the scratch
    /// rebuild — the satellite guarantee of the congestion bit.
    #[test]
    fn pressure_bit_flags_saturated_nodes_and_stays_incremental() {
        use pgrid_types::{CeRequirement, CeType as Ct, JobId, JobSpec};
        let mut g = grid(60, 8);
        let mut inc = AiTable::new(&g, AiGrouping::PerCe);
        let mut scr = AiTable::new(&g, AiGrouping::PerCe);
        inc.set_pressure_bound(Some(2));
        scr.set_pressure_bound(Some(2));
        assert_eq!(inc.pressure_bound(), Some(2));
        inc.refresh(&g, 0.0);
        scr.refresh_scratch(&g, 0.0);
        // Idle grid: nobody is pressured.
        for i in 0..60u32 {
            for d in 0..8 {
                assert_eq!(inc.beyond(&g, NodeId(i), d, Ct::CPU).pressured, 0);
            }
        }
        // Churn queues past and below the bound and diff every round.
        let mut rng = pgrid_simcore::SimRng::seed_from_u64(31);
        let mut next_id = 0u32;
        for round in 1..=20u64 {
            for _ in 0..4 {
                // Concentrate the load on a dozen nodes so queues
                // actually build past the bound.
                let target = NodeId(rng.below(12) as u32);
                let job = JobSpec::new(
                    JobId(next_id),
                    vec![CeRequirement {
                        ce_type: Ct::CPU,
                        min_cores: Some(4),
                        ..Default::default()
                    }],
                    None,
                    60.0,
                );
                next_id += 1;
                if job.satisfied_by(&g.runtime(target).spec) {
                    g.with_runtime_mut(target, |rt| {
                        rt.enqueue(job, round as f64);
                        rt.start_ready();
                    });
                }
            }
            inc.refresh(&g, round as f64);
            scr.refresh_scratch(&g, round as f64);
            for i in 0..60u32 {
                let local = inc.local_of(&g, NodeId(i), 0);
                let expect = u64::from(g.runtime(NodeId(i)).queued_count() >= 2);
                assert_eq!(local.pressured, expect, "node {i} round {round}");
                for d in 0..8 {
                    for s in 0..inc.slot_types().len() {
                        let a = inc.entry_at(&g, NodeId(i), d, s);
                        let b = scr.entry_at(&g, NodeId(i), d, s);
                        assert!(
                            super::bits_eq(&a, &b),
                            "round {round} node {i} dim {d} slot {s}: {a:?} != {b:?}"
                        );
                    }
                }
            }
        }
        // Some node must actually have become pressured, or the test
        // proved nothing.
        let saturated = (0..60u32).any(|i| g.runtime(NodeId(i)).queued_count() >= 2);
        assert!(saturated, "churn never saturated a queue");
        // The bit also round-trips through the replica wire format.
        let busy = (0..60u32)
            .map(NodeId)
            .max_by_key(|&n| g.runtime(n).queued_count())
            .unwrap();
        let decoded = AiTable::slice_from_bits(&inc.local_bits(busy)).unwrap();
        assert!(decoded.iter().any(|e| e.pressured == 1));
    }

    #[test]
    fn disarming_the_pressure_bound_clears_stale_bits() {
        use pgrid_types::{CeRequirement, CeType as Ct, JobId, JobSpec};
        let mut g = grid(40, 8);
        let target = NodeId(3);
        for i in 0..4u32 {
            let job = JobSpec::new(
                JobId(i),
                vec![CeRequirement {
                    ce_type: Ct::CPU,
                    min_cores: Some(4),
                    ..Default::default()
                }],
                None,
                60.0,
            );
            if job.satisfied_by(&g.runtime(target).spec) {
                g.with_runtime_mut(target, |rt| {
                    rt.enqueue(job, 0.0);
                    rt.start_ready();
                });
            }
        }
        let mut ai = AiTable::new(&g, AiGrouping::PerCe);
        ai.set_pressure_bound(Some(1));
        ai.refresh(&g, 0.0);
        let was_pressured = ai.local_of(&g, target, 0).pressured == 1;
        for i in 0..40u32 {
            ai.beyond(&g, NodeId(i), 0, Ct::CPU);
        }
        // Disarm without any load change: the next refresh must leave
        // no row fresh, and so wipe every pressure bit, even though no
        // node is dirty.
        ai.set_pressure_bound(None);
        ai.refresh(&g, 1.0);
        for i in 0..40u32 {
            for d in 0..8 {
                assert!(ai.is_stale(NodeId(i), d), "row ({i}, {d}) survived");
            }
        }
        for i in 0..40u32 {
            for d in 0..8 {
                assert_eq!(ai.beyond(&g, NodeId(i), d, Ct::CPU).pressured, 0);
            }
        }
        assert!(
            was_pressured || g.runtime(target).queued_count() == 0,
            "setup sanity: the target either queued up or could not"
        );
    }

    #[test]
    fn objective_prefers_bigger_emptier_regions() {
        let a = AiEntry {
            nodes: 10,
            cores: 100.0,
            required_cores: 10.0,
            free_nodes: 5,
            pressured: 0,
        };
        let b = AiEntry {
            nodes: 2,
            cores: 10.0,
            required_cores: 10.0,
            free_nodes: 0,
            pressured: 0,
        };
        assert!(a.objective() < b.objective());
        assert_eq!(AiEntry::default().objective(), f64::INFINITY);
    }
}
