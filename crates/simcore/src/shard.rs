//! Zone-region sharding for deterministic-parallel simulation.
//!
//! The CAN overlay tiles the unit torus `[0,1)^d` with hyper-rectangular
//! zones, which makes the coordinate space a natural partition key: a
//! [`RegionPartition`] splits the torus into `S` hyper-rectangular shard
//! regions by recursive longest-dimension bisection, and every point —
//! hence every zone centroid, hence every node — lands in exactly one
//! shard by construction (the lookup walks the split tree, so even
//! degenerate cuts cannot orphan or double-assign a point).
//!
//! On top of the partition sit the two execution primitives the sharded
//! engine uses:
//!
//! * [`ShardedQueue`] — one event lane per shard plus a coordinator
//!   lane, merged by a strict `(time, seq)` K-way merge with a *shared*
//!   sequence counter. Because the counter is shared, the merged order
//!   is identical to a single [`crate::EventQueue`] no matter how many
//!   lanes exist: shard-count 1 and shard-count N replay the same
//!   trajectory bit-for-bit when scheduling happens on one thread.
//! * [`run_windows`] — a conservative time-window engine: each lane
//!   drains its own queue up to the next window edge (optionally on its
//!   own thread), cross-lane messages are buffered in per-lane outboxes
//!   and exchanged only at window barriers, where they are applied in
//!   the canonical `(time, source lane, source sequence)` order. The
//!   canonical apply makes results independent of thread scheduling and
//!   of the order outboxes happen to be collected in.
//!
//! The conservative-synchronization contract: a cross-lane message
//! emitted inside a window must fire no earlier than the window edge
//! (the window width is a lookahead bound). [`Emitter::send`] enforces
//! this with an assertion, because a violation would silently reorder
//! the simulation.

use crate::event::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

// ---------------------------------------------------------------------------
// Region partition
// ---------------------------------------------------------------------------

/// A half-open hyper-rectangle `[lo, hi)` in the unit torus.
#[derive(Debug, Clone, PartialEq)]
pub struct Region {
    /// Inclusive lower corner, one coordinate per dimension.
    pub lo: Vec<f64>,
    /// Exclusive upper corner, one coordinate per dimension.
    pub hi: Vec<f64>,
}

impl Region {
    /// Whether `point` lies inside the half-open box.
    pub fn contains(&self, point: &[f64]) -> bool {
        point
            .iter()
            .zip(self.lo.iter().zip(self.hi.iter()))
            .all(|(p, (l, h))| *l <= *p && *p < *h)
    }

    /// Product of the side lengths.
    pub fn volume(&self) -> f64 {
        self.lo
            .iter()
            .zip(self.hi.iter())
            .map(|(l, h)| h - l)
            .product()
    }
}

/// Internal node of the bisection tree.
#[derive(Debug, Clone)]
enum SplitNode {
    /// Terminal region owned by one shard.
    Leaf(usize),
    /// Binary split of `dim` at `cut`: points with `p[dim] < cut` go
    /// left, everything else right.
    Split {
        dim: usize,
        cut: f64,
        left: usize,
        right: usize,
    },
}

/// Hyper-rectangular tiling of `[0,1)^d` into `S` shard regions.
///
/// Built by recursive bisection: at every step the region splits along
/// its longest side (lowest dimension index on ties) at the fraction
/// that balances the leaf counts, so shard volumes differ by at most the
/// ratio of a floor/ceil split. Lookup walks the split tree, so every
/// point maps to exactly one shard — an exact cover by construction.
///
/// ```
/// use pgrid_simcore::shard::RegionPartition;
/// let part = RegionPartition::new(2, 4);
/// assert_eq!(part.shards(), 4);
/// let owner = part.shard_of(&[0.1, 0.9]);
/// assert!(owner < 4);
/// assert!(part.regions()[owner].contains(&[0.1, 0.9]));
/// ```
#[derive(Debug, Clone)]
pub struct RegionPartition {
    dims: usize,
    nodes: Vec<SplitNode>,
    root: usize,
    regions: Vec<Region>,
}

impl RegionPartition {
    /// Partitions the `dims`-dimensional unit torus into `shards`
    /// regions.
    ///
    /// # Panics
    ///
    /// Panics if `dims == 0` or `shards == 0`.
    pub fn new(dims: usize, shards: usize) -> Self {
        assert!(dims > 0, "partition needs at least one dimension");
        assert!(shards > 0, "partition needs at least one shard");
        let mut part = RegionPartition {
            dims,
            nodes: Vec::new(),
            root: 0,
            regions: vec![
                Region {
                    lo: vec![0.0; dims],
                    hi: vec![0.0; dims],
                };
                shards
            ],
        };
        let mut next_shard = 0usize;
        let lo = vec![0.0; dims];
        let hi = vec![1.0; dims];
        part.root = part.build(lo, hi, shards, &mut next_shard);
        debug_assert_eq!(next_shard, shards);
        part
    }

    fn build(&mut self, lo: Vec<f64>, hi: Vec<f64>, count: usize, next_shard: &mut usize) -> usize {
        if count == 1 {
            let shard = *next_shard;
            *next_shard += 1;
            self.regions[shard] = Region { lo, hi };
            self.nodes.push(SplitNode::Leaf(shard));
            return self.nodes.len() - 1;
        }
        // Longest side, lowest dimension index on ties.
        let mut dim = 0usize;
        let mut best = f64::NEG_INFINITY;
        for d in 0..self.dims {
            let extent = hi[d] - lo[d];
            if extent > best {
                best = extent;
                dim = d;
            }
        }
        let left_count = count / 2;
        let right_count = count - left_count;
        let mut cut = lo[dim] + (hi[dim] - lo[dim]) * (left_count as f64 / count as f64);
        // Guard against a degenerate cut from rounding: the tree lookup
        // stays exact either way, but keeping the cut interior keeps
        // both child regions non-empty.
        if cut <= lo[dim] {
            cut = lo[dim] + (hi[dim] - lo[dim]) * 0.5;
        }
        let mut left_hi = hi.clone();
        left_hi[dim] = cut;
        let mut right_lo = lo.clone();
        right_lo[dim] = cut;
        let left = self.build(lo, left_hi, left_count, next_shard);
        let right = self.build(right_lo, hi, right_count, next_shard);
        self.nodes.push(SplitNode::Split {
            dim,
            cut,
            left,
            right,
        });
        self.nodes.len() - 1
    }

    /// Number of shard regions.
    #[inline]
    pub fn shards(&self) -> usize {
        self.regions.len()
    }

    /// Dimensionality of the partitioned space.
    #[inline]
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// The shard regions, indexed by shard id.
    #[inline]
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// The shard owning `point`.
    ///
    /// Coordinates are folded into `[0,1)` first (the space is a
    /// torus), then the split tree is walked: `p[dim] < cut` goes left,
    /// everything else right, so exactly one leaf is reached for any
    /// input.
    ///
    /// # Panics
    ///
    /// Panics if `point.len()` differs from [`Self::dims`].
    pub fn shard_of(&self, point: &[f64]) -> usize {
        assert_eq!(point.len(), self.dims, "point dimensionality mismatch");
        let mut idx = self.root;
        loop {
            match &self.nodes[idx] {
                SplitNode::Leaf(shard) => return *shard,
                SplitNode::Split {
                    dim,
                    cut,
                    left,
                    right,
                    ..
                } => {
                    let p = wrap_unit(point[*dim]);
                    idx = if p < *cut { *left } else { *right };
                }
            }
        }
    }
}

/// Folds a coordinate into `[0,1)` (torus wrap).
fn wrap_unit(x: f64) -> f64 {
    let f = x - x.floor();
    if f >= 1.0 {
        0.0
    } else {
        f
    }
}

// ---------------------------------------------------------------------------
// Shard assignment
// ---------------------------------------------------------------------------

/// A concrete node→shard mapping derived from a [`RegionPartition`].
#[derive(Debug, Clone)]
pub struct ShardAssignment {
    /// `lane_of[node]` is the owning shard of each node.
    pub lane_of: Vec<usize>,
    /// `members[shard]` lists the member nodes of each shard in
    /// ascending node order.
    pub members: Vec<Vec<usize>>,
}

impl ShardAssignment {
    /// Builds an assignment for `n` nodes where node `i` belongs to
    /// shard `owner(i)`.
    ///
    /// # Panics
    ///
    /// Panics if `owner` returns a shard index `>= shards`.
    pub fn from_fn(shards: usize, n: usize, mut owner: impl FnMut(usize) -> usize) -> Self {
        let mut lane_of = Vec::with_capacity(n);
        let mut members = vec![Vec::new(); shards];
        for i in 0..n {
            let s = owner(i);
            assert!(
                s < shards,
                "owner({i}) = {s} out of range for {shards} shards"
            );
            lane_of.push(s);
            members[s].push(i);
        }
        ShardAssignment { lane_of, members }
    }

    /// Number of shards.
    #[inline]
    pub fn shards(&self) -> usize {
        self.members.len()
    }
}

// ---------------------------------------------------------------------------
// Sharded event queue (shared sequence counter)
// ---------------------------------------------------------------------------

struct LaneEntry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for LaneEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for LaneEntry<E> {}
impl<E> PartialOrd for LaneEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for LaneEntry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap inverted: earliest time first, FIFO on ties.
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A discrete-event queue partitioned into lanes with one shared
/// sequence counter.
///
/// Popping performs a strict K-way merge on `(time, seq)`. Because the
/// sequence counter is shared across lanes, the merged pop order is
/// *identical* to a single [`crate::EventQueue`] fed the same schedule
/// calls — the lane structure changes where events are stored, never
/// when they fire. That is the property the shard-count-1 golden-digest
/// pins rely on.
///
/// ```
/// use pgrid_simcore::shard::ShardedQueue;
/// let mut q = ShardedQueue::new(3);
/// q.schedule(1, 5.0, "b");
/// q.schedule(2, 5.0, "c");
/// q.schedule(0, 1.0, "a");
/// assert_eq!(q.pop(), Some((1.0, 0, "a")));
/// assert_eq!(q.pop(), Some((5.0, 1, "b")));
/// assert_eq!(q.pop(), Some((5.0, 2, "c")));
/// ```
pub struct ShardedQueue<E> {
    lanes: Vec<BinaryHeap<LaneEntry<E>>>,
    next_seq: u64,
    now: SimTime,
    popped: u64,
    popped_per_lane: Vec<u64>,
}

impl<E> ShardedQueue<E> {
    /// An empty queue with `lanes` lanes, at time 0.
    ///
    /// # Panics
    ///
    /// Panics if `lanes == 0`.
    pub fn new(lanes: usize) -> Self {
        assert!(lanes > 0, "queue needs at least one lane");
        ShardedQueue {
            lanes: (0..lanes).map(|_| BinaryHeap::new()).collect(),
            next_seq: 0,
            now: 0.0,
            popped: 0,
            popped_per_lane: vec![0; lanes],
        }
    }

    /// Number of lanes.
    #[inline]
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Current simulation time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total number of events fired so far across all lanes.
    #[inline]
    pub fn fired(&self) -> u64 {
        self.popped
    }

    /// Number of events fired so far on `lane`.
    #[inline]
    pub fn fired_on(&self, lane: usize) -> u64 {
        self.popped_per_lane[lane]
    }

    /// Number of events waiting across all lanes.
    pub fn len(&self) -> usize {
        self.lanes.iter().map(|l| l.len()).sum()
    }

    /// Whether no events are pending in any lane.
    pub fn is_empty(&self) -> bool {
        self.lanes.iter().all(|l| l.is_empty())
    }

    /// Schedules `event` on `lane` at absolute time `time`.
    ///
    /// # Panics
    ///
    /// Panics on a non-finite time or a time earlier than [`Self::now`],
    /// mirroring [`crate::EventQueue::schedule`].
    pub fn schedule(&mut self, lane: usize, time: SimTime, event: E) {
        assert!(time.is_finite(), "event time must be finite, got {time}");
        assert!(
            time >= self.now,
            "cannot schedule into the past: t={time} < now={}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.lanes[lane].push(LaneEntry { time, seq, event });
    }

    /// Schedules `event` on `lane` to fire `delay` seconds from now.
    pub fn schedule_in(&mut self, lane: usize, delay: SimTime, event: E) {
        assert!(delay >= 0.0, "delay must be non-negative, got {delay}");
        self.schedule(lane, self.now + delay, event);
    }

    /// Firing time of the globally next event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.min_lane().map(|l| self.lanes[l].peek().unwrap().time)
    }

    /// Lane holding the globally next event by `(time, seq)`.
    fn min_lane(&self) -> Option<usize> {
        let mut best: Option<(SimTime, u64, usize)> = None;
        for (i, lane) in self.lanes.iter().enumerate() {
            if let Some(e) = lane.peek() {
                let key = (e.time, e.seq, i);
                let better = match best {
                    None => true,
                    Some((bt, bs, _)) => {
                        e.time.total_cmp(&bt).then_with(|| e.seq.cmp(&bs)) == Ordering::Less
                    }
                };
                if better {
                    best = Some(key);
                }
            }
        }
        best.map(|(_, _, i)| i)
    }

    /// Pops the globally next event, advancing the clock; returns the
    /// firing time, the lane it fired on, and the event.
    pub fn pop(&mut self) -> Option<(SimTime, usize, E)> {
        let lane = self.min_lane()?;
        let e = self.lanes[lane].pop().expect("peeked lane is non-empty");
        debug_assert!(e.time >= self.now);
        self.now = e.time;
        self.popped += 1;
        self.popped_per_lane[lane] += 1;
        Some((e.time, lane, e.event))
    }

    /// Drops all pending events (the clock is unchanged).
    pub fn clear(&mut self) {
        for lane in &mut self.lanes {
            lane.clear();
        }
    }
}

// ---------------------------------------------------------------------------
// Conservative window engine
// ---------------------------------------------------------------------------

/// A cross-lane message buffered in an outbox until the next barrier.
#[derive(Debug, Clone, PartialEq)]
pub struct CrossMsg<E> {
    /// Absolute firing time at the destination.
    pub time: SimTime,
    /// Destination lane.
    pub dst: usize,
    /// Source lane (first canonical tie-break).
    pub src: usize,
    /// Source-lane emission sequence (second canonical tie-break).
    pub src_seq: u64,
    /// The payload event.
    pub event: E,
}

/// Sorts cross-lane messages into the canonical apply order:
/// `(time, source lane, source sequence)`.
///
/// Applying messages in this order makes barrier delivery independent
/// of the order lanes were drained in — the schedule-independence
/// property the barrier-ordering proptest pins.
pub fn canonical_sort<E>(msgs: &mut [CrossMsg<E>]) {
    msgs.sort_by(|a, b| {
        a.time
            .total_cmp(&b.time)
            .then_with(|| a.src.cmp(&b.src))
            .then_with(|| a.src_seq.cmp(&b.src_seq))
    });
}

/// Per-lane event queue used by [`run_windows`].
///
/// Unlike [`ShardedQueue`], each lane carries its *own* sequence
/// counter, so lanes can be drained concurrently without sharing
/// state; determinism across lanes is restored at barriers by the
/// canonical apply order.
pub struct LaneQueue<E> {
    heap: BinaryHeap<LaneEntry<E>>,
    next_seq: u64,
    now: SimTime,
    popped: u64,
}

impl<E> Default for LaneQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> LaneQueue<E> {
    /// An empty lane queue at time 0.
    pub fn new() -> Self {
        LaneQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: 0.0,
            popped: 0,
        }
    }

    /// Schedules `event` at absolute time `time` on this lane.
    pub fn schedule(&mut self, time: SimTime, event: E) {
        assert!(time.is_finite(), "event time must be finite, got {time}");
        assert!(
            time >= self.now,
            "cannot schedule into the past: t={time} < now={}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(LaneEntry { time, seq, event });
    }

    /// Events fired on this lane so far.
    #[inline]
    pub fn fired(&self) -> u64 {
        self.popped
    }

    /// Firing time of this lane's next event, if any.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    fn pop_before(&mut self, edge: SimTime) -> Option<(SimTime, E)> {
        if self.heap.peek().map(|e| e.time < edge) != Some(true) {
            return None;
        }
        let e = self.heap.pop().expect("peeked entry exists");
        self.now = e.time;
        self.popped += 1;
        Some((e.time, e.event))
    }
}

/// Handle through which a window handler schedules follow-up work.
pub struct Emitter<'a, E> {
    lane: usize,
    edge: SimTime,
    queue: &'a mut LaneQueue<E>,
    outbox: &'a mut Vec<CrossMsg<E>>,
    emit_seq: &'a mut u64,
}

impl<E> Emitter<'_, E> {
    /// Schedules `event` on the handler's own lane at time `time`.
    pub fn local(&mut self, time: SimTime, event: E) {
        self.queue.schedule(time, event);
    }

    /// Sends `event` to lane `dst` at time `time`, buffered until the
    /// window barrier.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than the current window edge: the
    /// window width is the engine's lookahead bound, and a cross-lane
    /// message inside the current window would be a causality
    /// violation under conservative synchronization.
    pub fn send(&mut self, dst: usize, time: SimTime, event: E) {
        assert!(
            time >= self.edge,
            "cross-lane message at t={time} violates the window edge {}: \
             window width must not exceed the minimum cross-shard latency",
            self.edge
        );
        let src_seq = *self.emit_seq;
        *self.emit_seq += 1;
        self.outbox.push(CrossMsg {
            time,
            dst,
            src: self.lane,
            src_seq,
            event,
        });
    }
}

/// Runs lanes under conservative time-window synchronization until all
/// queues drain or `horizon` is reached; returns total events fired.
///
/// Each round: every lane independently drains its queue up to the next
/// window edge (`k * window`), handing each event to `handler` together
/// with the lane's mutable state and an [`Emitter`]. When `parallel` is
/// true each lane drains on its own scoped thread; either way the
/// per-lane work is identical because lanes share nothing inside a
/// window. At the barrier the collected outboxes are applied in
/// [`canonical_sort`] order, so the result is independent of thread
/// scheduling and collection order.
pub fn run_windows<E, L, F>(
    states: &mut [L],
    queues: &mut [LaneQueue<E>],
    window: SimTime,
    horizon: SimTime,
    parallel: bool,
    handler: F,
) -> u64
where
    E: Send,
    L: Send,
    F: Fn(usize, &mut L, SimTime, E, &mut Emitter<'_, E>) + Sync,
{
    assert_eq!(states.len(), queues.len(), "one state per lane");
    assert!(
        window > 0.0 && window.is_finite(),
        "window must be positive"
    );
    let parallel = parallel && host_threads() > 1;
    let lanes = states.len();
    let mut emit_seqs = vec![0u64; lanes];
    let mut edge = window;
    while edge <= horizon + window {
        if queues.iter().all(|q| q.heap.is_empty()) {
            break;
        }
        // Skip empty windows: jump straight to the window containing
        // the earliest pending event.
        if let Some(first) = queues
            .iter()
            .filter_map(|q| q.peek_time())
            .min_by(|a, b| a.total_cmp(b))
        {
            if first >= edge {
                let k = (first / window).floor() as u64 + 1;
                edge = k as SimTime * window;
            }
        }
        let drain_one = |lane: usize,
                         state: &mut L,
                         queue: &mut LaneQueue<E>,
                         emit_seq: &mut u64|
         -> Vec<CrossMsg<E>> {
            let mut outbox = Vec::new();
            while let Some((t, ev)) = queue.pop_before(edge) {
                let mut em = Emitter {
                    lane,
                    edge,
                    queue,
                    outbox: &mut outbox,
                    emit_seq,
                };
                handler(lane, state, t, ev, &mut em);
            }
            outbox
        };
        let mut outboxes: Vec<Vec<CrossMsg<E>>> = if parallel && lanes > 1 {
            std::thread::scope(|scope| {
                let mut handles = Vec::with_capacity(lanes);
                for (((lane, state), queue), emit_seq) in states
                    .iter_mut()
                    .enumerate()
                    .zip(queues.iter_mut())
                    .zip(emit_seqs.iter_mut())
                {
                    handles.push(scope.spawn(move || drain_one(lane, state, queue, emit_seq)));
                }
                handles
                    .into_iter()
                    .map(|h| h.join().expect("lane drain panicked"))
                    .collect()
            })
        } else {
            states
                .iter_mut()
                .enumerate()
                .zip(queues.iter_mut())
                .zip(emit_seqs.iter_mut())
                .map(|(((lane, state), queue), emit_seq)| drain_one(lane, state, queue, emit_seq))
                .collect()
        };
        // Barrier: apply cross-lane messages in canonical order.
        let mut cross: Vec<CrossMsg<E>> = outboxes.drain(..).flatten().collect();
        canonical_sort(&mut cross);
        for msg in cross {
            queues[msg.dst].schedule(msg.time, msg.event);
        }
        edge += window;
    }
    queues.iter().map(|q| q.fired()).sum()
}

// ---------------------------------------------------------------------------
// Lane fan-out helper
// ---------------------------------------------------------------------------

/// Usable hardware parallelism. Worker-thread requests are clamped to
/// this so a shard count above the core count degrades to sequential
/// execution instead of paying spawn overhead for no gain — results
/// are positionally identical either way.
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Runs `f(lane)` for every lane in `0..lanes`, returning results in
/// lane order.
///
/// With `threads <= 1` (or a single lane) this is a plain sequential
/// loop; otherwise lanes are claimed from an atomic counter by up to
/// `min(threads, lanes)` scoped threads. The output is positionally
/// identical either way, so callers may treat thread count as a pure
/// performance knob — which is exactly how the sharded barrier phases
/// use it.
pub fn run_lanes<R: Send>(threads: usize, lanes: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    let threads = threads.min(host_threads());
    if threads <= 1 || lanes <= 1 {
        return (0..lanes).map(f).collect();
    }
    // Same shape as core's parallel_map: claim indexes from an atomic
    // counter, accumulate (index, result) pairs locally, merge after
    // the joins so no results lock is ever contended.
    let workers = threads.min(lanes);
    let next = std::sync::atomic::AtomicUsize::new(0);
    let mut merged: Vec<Option<R>> = (0..lanes).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut local: Vec<(usize, R)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if i >= lanes {
                            break;
                        }
                        local.push((i, f(i)));
                    }
                    local
                })
            })
            .collect();
        for h in handles {
            for (i, r) in h.join().expect("lane worker panicked") {
                merged[i] = Some(r);
            }
        }
    });
    merged
        .into_iter()
        .map(|r| r.expect("every lane produced a result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_tiles_and_covers() {
        for dims in [1usize, 2, 3, 11] {
            for shards in [1usize, 2, 3, 4, 7, 8, 16] {
                let part = RegionPartition::new(dims, shards);
                assert_eq!(part.regions().len(), shards);
                let total: f64 = part.regions().iter().map(Region::volume).sum();
                assert!((total - 1.0).abs() < 1e-9, "volumes must tile: {total}");
                // Tree lookup agrees with region containment.
                let mut point = vec![0.0; dims];
                for i in 0..64 {
                    for (d, p) in point.iter_mut().enumerate() {
                        *p = ((i * 37 + d * 11) % 97) as f64 / 97.0;
                    }
                    let s = part.shard_of(&point);
                    assert!(part.regions()[s].contains(&point));
                    let containing = part.regions().iter().filter(|r| r.contains(&point)).count();
                    assert_eq!(containing, 1, "point must lie in exactly one region");
                }
            }
        }
    }

    #[test]
    fn partition_wraps_torus_coordinates() {
        let part = RegionPartition::new(2, 4);
        assert_eq!(part.shard_of(&[1.25, -0.75]), part.shard_of(&[0.25, 0.25]));
    }

    #[test]
    fn sharded_queue_merges_identically_to_single_queue() {
        use crate::EventQueue;
        let mut single = EventQueue::new();
        let mut sharded = ShardedQueue::new(4);
        let times = [3.0, 1.0, 2.0, 2.0, 5.0, 2.0, 1.0, 9.0, 4.0, 4.0];
        for (i, t) in times.iter().enumerate() {
            single.schedule(*t, i);
            sharded.schedule(i % 4, *t, i);
        }
        loop {
            match (single.pop(), sharded.pop()) {
                (None, None) => break,
                (Some((ts, es)), Some((tq, _, eq))) => {
                    assert_eq!(ts, tq);
                    assert_eq!(es, eq);
                }
                other => panic!("queues diverged: {other:?}"),
            }
        }
        assert_eq!(single.fired(), sharded.fired());
    }

    #[test]
    fn sharded_queue_interleaves_schedule_and_pop() {
        let mut q = ShardedQueue::new(2);
        q.schedule(0, 1.0, "a");
        q.schedule(1, 4.0, "d");
        assert_eq!(q.pop().unwrap().2, "a");
        q.schedule_in(1, 1.0, "b");
        q.schedule(0, 3.0, "c");
        assert_eq!(q.pop().unwrap().2, "b");
        assert_eq!(q.pop().unwrap().2, "c");
        assert_eq!(q.pop().unwrap().2, "d");
        assert_eq!(q.fired_on(0), 2);
        assert_eq!(q.fired_on(1), 2);
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn sharded_queue_rejects_past() {
        let mut q = ShardedQueue::new(2);
        q.schedule(0, 10.0, ());
        q.pop();
        q.schedule(1, 5.0, ());
    }

    #[test]
    fn canonical_sort_is_permutation_invariant() {
        let mk = |time, src, src_seq| CrossMsg {
            time,
            dst: 0,
            src,
            src_seq,
            event: (),
        };
        let base = vec![
            mk(2.0, 1, 0),
            mk(1.0, 2, 3),
            mk(1.0, 0, 1),
            mk(1.0, 0, 0),
            mk(2.0, 0, 5),
        ];
        let mut a = base.clone();
        let mut b: Vec<_> = base.into_iter().rev().collect();
        canonical_sort(&mut a);
        canonical_sort(&mut b);
        assert_eq!(a, b);
    }

    /// Toy world: each lane holds a counter; events ping-pong between
    /// lanes across windows. Sequential and parallel drains must agree.
    #[test]
    fn window_engine_parallel_matches_sequential() {
        #[derive(Clone)]
        struct Lane {
            digest: u64,
        }
        let lanes = 4usize;
        let run = |parallel: bool| -> (u64, Vec<u64>) {
            let mut states: Vec<Lane> = (0..lanes).map(|_| Lane { digest: 0xcbf29ce4 }).collect();
            let mut queues: Vec<LaneQueue<u64>> = (0..lanes).map(|_| LaneQueue::new()).collect();
            for (l, q) in queues.iter_mut().enumerate() {
                q.schedule(0.1 + l as f64 * 0.05, l as u64);
            }
            let fired = run_windows(
                &mut states,
                &mut queues,
                1.0,
                40.0,
                parallel,
                |lane, state, t, ev, em| {
                    state.digest = state
                        .digest
                        .wrapping_mul(0x100000001b3)
                        .wrapping_add(ev ^ t.to_bits());
                    if t < 30.0 {
                        // Local follow-up inside the window plus a
                        // cross-lane send landing beyond the edge.
                        if ev % 3 == 0 {
                            em.local(t + 0.25, ev.wrapping_mul(7) % 100);
                        }
                        let dst = (lane + 1 + (ev as usize % (lanes - 1))) % lanes;
                        em.send(dst, t.floor() + 1.0 + (ev % 5) as f64 * 0.3, ev + 1);
                    }
                },
            );
            (fired, states.into_iter().map(|s| s.digest).collect())
        };
        let seq = run(false);
        let par = run(true);
        assert_eq!(seq, par, "parallel window drain must be bit-identical");
        assert!(seq.0 > 100, "toy world should generate real traffic");
    }

    #[test]
    #[should_panic(expected = "window edge")]
    fn cross_lane_send_inside_window_panics() {
        let mut states = vec![(), ()];
        let mut queues: Vec<LaneQueue<u8>> = vec![LaneQueue::new(), LaneQueue::new()];
        queues[0].schedule(0.5, 1);
        run_windows(
            &mut states,
            &mut queues,
            1.0,
            10.0,
            false,
            |_, _, t, _, em| {
                em.send(1, t + 0.1, 2); // lands inside the current window
            },
        );
    }

    #[test]
    fn run_lanes_matches_sequential_order() {
        let seq = run_lanes(1, 9, |i| i * i);
        let par = run_lanes(4, 9, |i| i * i);
        assert_eq!(seq, par);
        assert_eq!(par[8], 64);
    }
}
