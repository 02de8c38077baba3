//! Zone-region lanes: a partition of the CAN coordinate space
//! ([`RegionPartition`], an exact cover of the unit torus by
//! hyper-rectangles) and an event queue laid out along it
//! ([`ShardedQueue`], whose lanes share one sequence counter and so pop
//! exactly like one [`crate::EventQueue`]).
//!
//! No simulation in the workspace runs on the lanes: every one drives a
//! single [`crate::EventQueue`] (`DESIGN.md` §15). The module stays
//! only because the repo benchmark names it (ROADMAP item 3).

use crate::event::{Entry, SimTime};
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
}

// ---------------------------------------------------------------------------
// Sharded event queue (shared sequence counter)
// ---------------------------------------------------------------------------

/// A discrete-event queue partitioned into lanes with one shared
/// sequence counter.
///
/// Popping performs a strict K-way merge on `(time, seq)`. Because the
/// sequence counter is shared across lanes, the merged pop order is
/// *identical* to a single [`crate::EventQueue`] fed the same schedule
/// calls — the lane structure changes where events are stored, never
/// when they fire.
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
    lanes: Vec<BinaryHeap<Entry<E>>>,
    next_seq: u64,
    now: SimTime,
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
        }
    }

    /// Number of events waiting across all lanes.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.lanes.iter().map(|l| l.len()).sum()
    }

    /// Schedules `event` on `lane` at absolute time `time`.
    ///
    /// # Panics
    ///
    /// Panics on a non-finite time or a time earlier than the last
    /// popped event's, mirroring [`crate::EventQueue::schedule`].
    pub fn schedule(&mut self, lane: usize, time: SimTime, event: E) {
        assert!(time.is_finite(), "event time must be finite, got {time}");
        assert!(
            time >= self.now,
            "cannot schedule into the past: t={time} < now={}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.lanes[lane].push(Entry { time, seq, event });
    }

    /// Pops the globally next event by `(time, seq)`, advancing the
    /// clock; returns the firing time, the lane it fired on, and the
    /// event.
    pub fn pop(&mut self) -> Option<(SimTime, usize, E)> {
        // `Entry`'s order is inverted for the max-heap: the greatest
        // head is the earliest event.
        let (_, lane) = self
            .lanes
            .iter()
            .enumerate()
            .filter_map(|(i, l)| l.peek().map(|e| (e, i)))
            .max()?;
        let e = self.lanes[lane].pop().expect("peeked lane is non-empty");
        self.now = e.time;
        Some((e.time, lane, e.event))
    }
}

/// Usable hardware parallelism of the measurement host, recorded
/// beside every result by the repo benchmark.
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
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
    }

    #[test]
    fn sharded_queue_interleaves_schedule_and_pop() {
        let mut q = ShardedQueue::new(2);
        q.schedule(0, 1.0, "a");
        q.schedule(1, 4.0, "d");
        assert_eq!(q.pop().unwrap().2, "a");
        q.schedule(1, 2.0, "b");
        q.schedule(0, 3.0, "c");
        assert_eq!(q.pop(), Some((2.0, 1, "b")));
        assert_eq!(q.pop(), Some((3.0, 0, "c")));
        assert_eq!(q.pop(), Some((4.0, 1, "d")));
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn sharded_queue_rejects_past() {
        let mut q = ShardedQueue::new(2);
        q.schedule(0, 10.0, ());
        q.pop();
        q.schedule(1, 5.0, ());
    }
}
