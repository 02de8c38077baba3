//! Ground-truth zone ownership: the CAN's split history as a KD-style
//! binary tree (paper §IV-B).
//!
//! "The CAN partitioning algorithm is similar to that of a distributed
//! KD-tree in a d-dimensional space, so a node should maintain its own
//! zone split history, to enable proper zone take-over operations when
//! a neighbor leaves the system voluntarily or fails. [...] Therefore,
//! the take-over node for a given node is predetermined by the
//! leaving/failing node's split history."
//!
//! Every join splits one leaf into two; every departure undoes a split,
//! either by *merging* the departed zone into its sibling leaf, or —
//! when the sibling has split further — by *relocating* the deepest
//! leaf-pair in the sibling subtree: one of the pair absorbs its
//! partner's zone, freeing the partner to take over the departed zone
//! (the classic CAN "defragmentation").

use crate::geom::{Point, Zone};
use crate::idmap::IdMap;
use pgrid_types::NodeId;

/// Arena index of a tree slot.
type Idx = usize;

/// Chooses the split plane for a join: the dimension and position that
/// separate the host's coordinate from the joiner's.
///
/// Preference order keeps zones lattice-like (which keeps the neighbor
/// count near the ideal 2·d of a regular CAN):
///
/// 1. a dimension whose **zone midpoint** separates the coordinates —
///    split exactly at the midpoint (balanced, quad-tree-style cut);
/// 2. otherwise any dimension where the coordinates differ inside the
///    zone — split at the **coordinate midpoint** (the unbalanced cut
///    the paper notes cannot always be avoided).
///
/// Within each class the longest zone side wins (ties: lowest dim).
/// Returns `None` when the coordinates are inseparable (identical), or
/// when the host's coordinate lies outside the zone (take-over holder)
/// in which case the caller should bisect unconditionally via
/// [`choose_split_plane_free`].
pub fn choose_split_plane(
    zone: &Zone,
    host_coord: &Point,
    joiner_coord: &Point,
) -> Option<(usize, f64)> {
    let dims = zone.dims();
    let mut balanced: Option<(usize, f64, f64)> = None; // (dim, at, side)
    let mut fallback: Option<(usize, f64, f64)> = None;
    for d in 0..dims {
        let (hc, jc) = (host_coord[d], joiner_coord[d]);
        if hc == jc {
            continue;
        }
        let side = zone.side(d);
        let mid = 0.5 * (zone.lo(d) + zone.hi(d));
        let straddles = (hc < mid) != (jc < mid) && hc != mid && jc != mid;
        if straddles {
            if balanced.is_none_or(|(_, _, bs)| side > bs) {
                balanced = Some((d, mid, side));
            }
        } else {
            let at = 0.5 * (hc + jc);
            if zone.lo(d) < at && at < zone.hi(d) && fallback.is_none_or(|(_, _, bs)| side > bs) {
                fallback = Some((d, at, side));
            }
        }
    }
    balanced.or(fallback).map(|(d, at, _)| (d, at))
}

/// Split plane for a host whose coordinate is outside the zone it
/// holds (a take-over holder): bisect the longest side, which always
/// works because only the joiner's side matters.
pub fn choose_split_plane_free(zone: &Zone) -> (usize, f64) {
    let dims = zone.dims();
    let dim = (0..dims)
        .max_by(|&a, &b| zone.side(a).total_cmp(&zone.side(b)))
        .expect("non-zero dims");
    (dim, 0.5 * (zone.lo(dim) + zone.hi(dim)))
}

#[derive(Debug)]
enum Slot {
    Leaf {
        owner: NodeId,
        zone: Zone,
        parent: Option<Idx>,
    },
    Internal {
        dim: usize,
        at: f64,
        lower: Idx,
        upper: Idx,
        parent: Option<Idx>,
    },
    Free {
        next_free: Option<Idx>,
    },
}

/// A zone-ownership change produced by a departure.
#[derive(Debug, Clone, PartialEq)]
pub enum ZoneChange {
    /// `owner`'s zone grew to `new_zone`, absorbing the departed zone
    /// (sibling-leaf merge).
    Merged {
        /// The surviving sibling that takes over.
        owner: NodeId,
        /// Its zone after the merge.
        new_zone: Zone,
    },
    /// Defragmentation: `relocator` handed its old zone to `absorber`
    /// (whose zone grew to `absorber_zone`) and moved to own the
    /// departed zone `relocated_zone`.
    Relocated {
        /// The node that moves onto the departed zone.
        relocator: NodeId,
        /// The node that absorbs the relocator's old zone.
        absorber: NodeId,
        /// The absorber's zone after the merge.
        absorber_zone: Zone,
        /// The departed zone, now owned by `relocator`.
        relocated_zone: Zone,
    },
    /// The departed node was the last one; the CAN is now empty.
    Emptied,
}

/// The take-over plan for a potential departure: who would inherit the
/// node's zone. Compact heartbeats send full neighbor state exactly to
/// these nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TakeoverPlan {
    /// The node that will own the departed zone.
    pub heir: Option<NodeId>,
    /// In the defragmentation case, the node that absorbs the heir's
    /// old zone (it also participates in the take-over).
    pub absorber: Option<NodeId>,
}

impl TakeoverPlan {
    /// All nodes involved in the plan, deduplicated.
    pub fn targets(&self) -> Vec<NodeId> {
        let mut v = Vec::with_capacity(2);
        if let Some(h) = self.heir {
            v.push(h);
        }
        if let Some(a) = self.absorber {
            if Some(a) != self.heir {
                v.push(a);
            }
        }
        v
    }
}

/// The CAN's ground-truth split tree.
///
/// Leaves are (owner, zone) pairs; internal nodes remember the split
/// dimension and position. The tree is the single authority on zone
/// ownership; per-node neighbor *views* (which may be stale) live in
/// [`crate::membership`].
#[derive(Debug)]
pub struct SplitTree {
    slots: Vec<Slot>,
    free_head: Option<Idx>,
    root: Option<Idx>,
    leaf_of: IdMap<Idx>,
    dims: usize,
}

impl SplitTree {
    /// A tree whose single leaf (the whole unit space) is owned by
    /// `first`.
    pub fn new(dims: usize, first: NodeId) -> Self {
        let mut t = SplitTree {
            slots: Vec::new(),
            free_head: None,
            root: None,
            leaf_of: IdMap::default(),
            dims,
        };
        let idx = t.alloc(Slot::Leaf {
            owner: first,
            zone: Zone::unit(dims),
            parent: None,
        });
        t.root = Some(idx);
        t.leaf_of.insert(first, idx);
        t
    }

    fn alloc(&mut self, slot: Slot) -> Idx {
        if let Some(i) = self.free_head {
            match self.slots[i] {
                Slot::Free { next_free } => {
                    self.free_head = next_free;
                    self.slots[i] = slot;
                    i
                }
                _ => unreachable!("free list corrupted"),
            }
        } else {
            self.slots.push(slot);
            self.slots.len() - 1
        }
    }

    fn release(&mut self, i: Idx) {
        self.slots[i] = Slot::Free {
            next_free: self.free_head,
        };
        self.free_head = Some(i);
    }

    /// Dimensionality of the space.
    #[inline]
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Number of nodes (leaves) in the CAN.
    #[inline]
    pub fn len(&self) -> usize {
        self.leaf_of.len()
    }

    /// Whether the CAN has no members.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.leaf_of.is_empty()
    }

    /// Whether `owner` is a current member.
    #[inline]
    pub fn contains(&self, owner: NodeId) -> bool {
        self.leaf_of.contains_key(&owner)
    }

    /// Iterator over current members.
    pub fn members(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.leaf_of.keys().copied()
    }

    /// The zone currently owned by `owner`.
    ///
    /// # Panics
    ///
    /// Panics if `owner` is not a member.
    pub fn zone(&self, owner: NodeId) -> &Zone {
        let idx = self.leaf_of[&owner];
        match &self.slots[idx] {
            Slot::Leaf { zone, .. } => zone,
            _ => unreachable!("leaf_of points at non-leaf"),
        }
    }

    /// Overwrites `owner`'s stored zone and leaves the split history
    /// alone — a corrupt tree no run reaches, for the oracle tests that
    /// need one.
    #[cfg(test)]
    pub(crate) fn overwrite_zone(&mut self, owner: NodeId, zone: Zone) {
        match &mut self.slots[self.leaf_of[&owner]] {
            Slot::Leaf { zone: stored, .. } => *stored = zone,
            _ => unreachable!("leaf_of points at non-leaf"),
        }
    }

    /// The member owning the zone containing `p`.
    pub fn owner_at(&self, p: &Point) -> Option<NodeId> {
        let mut idx = self.root?;
        loop {
            match &self.slots[idx] {
                Slot::Leaf { owner, zone, .. } => {
                    debug_assert!(zone.contains(p), "descent ended outside zone");
                    return Some(*owner);
                }
                Slot::Internal {
                    dim,
                    at,
                    lower,
                    upper,
                    ..
                } => {
                    idx = if p[*dim] < *at { *lower } else { *upper };
                }
                Slot::Free { .. } => unreachable!("descent reached a free slot"),
            }
        }
    }

    /// Splits `owner`'s zone at `at` along `dim`; the half containing
    /// `new_coord` goes to `joiner` and the other half stays with
    /// `owner`. Returns the (owner_zone, joiner_zone) after the split.
    ///
    /// A take-over node may own a zone that does *not* contain its own
    /// coordinate (it is handling the zone on behalf of the CAN until
    /// churn rebalances it); in that case the owner simply keeps the
    /// half the joiner does not claim.
    ///
    /// # Panics
    ///
    /// Panics if `owner` is not a member, `joiner` already is, the
    /// split plane does not cut the zone, the joiner's coordinate is
    /// outside the zone, or — when the owner's coordinate *is* inside —
    /// the plane fails to separate the two coordinates.
    pub fn split(
        &mut self,
        owner: NodeId,
        owner_coord: &Point,
        joiner: NodeId,
        new_coord: &Point,
        dim: usize,
        at: f64,
    ) -> (Zone, Zone) {
        assert!(!self.contains(joiner), "{joiner} is already a member");
        let leaf_idx = *self.leaf_of.get(&owner).expect("split of non-member");
        let (zone, parent) = match &self.slots[leaf_idx] {
            Slot::Leaf { zone, parent, .. } => (zone.clone(), *parent),
            _ => unreachable!(),
        };
        assert!(zone.contains(new_coord), "joiner coord outside host zone");
        let (low_zone, high_zone) = zone.split(dim, at);
        let joiner_low = new_coord[dim] < at;
        if zone.contains(owner_coord) {
            let owner_low = owner_coord[dim] < at;
            assert!(
                owner_low != joiner_low,
                "split at {at} along dim {dim} does not separate the coordinates"
            );
        }
        let owner_low = !joiner_low;
        let (owner_zone, joiner_zone) = if owner_low {
            (low_zone.clone(), high_zone.clone())
        } else {
            (high_zone.clone(), low_zone.clone())
        };

        let low_owner = if owner_low { owner } else { joiner };
        let high_owner = if owner_low { joiner } else { owner };
        let low_idx = self.alloc(Slot::Leaf {
            owner: low_owner,
            zone: low_zone,
            parent: Some(leaf_idx),
        });
        let high_idx = self.alloc(Slot::Leaf {
            owner: high_owner,
            zone: high_zone,
            parent: Some(leaf_idx),
        });
        self.slots[leaf_idx] = Slot::Internal {
            dim,
            at,
            lower: low_idx,
            upper: high_idx,
            parent,
        };
        self.leaf_of.insert(low_owner, low_idx);
        self.leaf_of.insert(high_owner, high_idx);
        (owner_zone, joiner_zone)
    }

    fn sibling_of(&self, idx: Idx) -> Option<Idx> {
        let parent = match &self.slots[idx] {
            Slot::Leaf { parent, .. } => (*parent)?,
            _ => unreachable!(),
        };
        match &self.slots[parent] {
            Slot::Internal { lower, upper, .. } => {
                Some(if *lower == idx { *upper } else { *lower })
            }
            _ => unreachable!("parent is not internal"),
        }
    }

    /// Finds the deepest internal node with two leaf children inside
    /// the subtree at `idx` (ties broken toward the lower child). If
    /// `idx` itself is a leaf, returns `None`.
    fn deepest_leaf_pair(&self, idx: Idx) -> Option<Idx> {
        // Iterative DFS tracking depth.
        let mut best: Option<(usize, Idx)> = None;
        let mut stack = vec![(idx, 0usize)];
        while let Some((i, depth)) = stack.pop() {
            if let Slot::Internal { lower, upper, .. } = &self.slots[i] {
                let lower_leaf = matches!(self.slots[*lower], Slot::Leaf { .. });
                let upper_leaf = matches!(self.slots[*upper], Slot::Leaf { .. });
                if lower_leaf && upper_leaf {
                    let better = match best {
                        None => true,
                        Some((bd, _)) => depth > bd,
                    };
                    if better {
                        best = Some((depth, i));
                    }
                } else {
                    // Push upper first so lower is explored first
                    // (deterministic tie-breaking toward lower).
                    if !upper_leaf {
                        stack.push((*upper, depth + 1));
                    }
                    if !lower_leaf {
                        stack.push((*lower, depth + 1));
                    }
                }
            }
        }
        best.map(|(_, i)| i)
    }

    fn leaf_owner(&self, idx: Idx) -> NodeId {
        match &self.slots[idx] {
            Slot::Leaf { owner, .. } => *owner,
            _ => unreachable!("expected leaf"),
        }
    }

    /// The predetermined take-over plan for `owner`'s (hypothetical)
    /// departure. Deterministic given the current split history.
    pub fn takeover_plan(&self, owner: NodeId) -> TakeoverPlan {
        let leaf_idx = *self.leaf_of.get(&owner).expect("plan for non-member");
        let Some(sib) = self.sibling_of(leaf_idx) else {
            return TakeoverPlan {
                heir: None,
                absorber: None,
            };
        };
        match &self.slots[sib] {
            Slot::Leaf { owner: s, .. } => TakeoverPlan {
                heir: Some(*s),
                absorber: None,
            },
            Slot::Internal { .. } => {
                let pair = self
                    .deepest_leaf_pair(sib)
                    .expect("internal subtree has a leaf pair");
                let (lower, upper) = match &self.slots[pair] {
                    Slot::Internal { lower, upper, .. } => (*lower, *upper),
                    _ => unreachable!(),
                };
                // Convention: the upper (most recently joined side)
                // leaf relocates; the lower leaf absorbs its zone.
                TakeoverPlan {
                    heir: Some(self.leaf_owner(upper)),
                    absorber: Some(self.leaf_owner(lower)),
                }
            }
            Slot::Free { .. } => unreachable!("sibling is a free slot"),
        }
    }

    /// Removes `owner` from the CAN, executing its take-over plan.
    ///
    /// # Panics
    ///
    /// Panics if `owner` is not a member.
    pub fn remove(&mut self, owner: NodeId) -> ZoneChange {
        let leaf_idx = self.leaf_of.remove(&owner).expect("remove of non-member");
        let departed_zone = match &self.slots[leaf_idx] {
            Slot::Leaf { zone, .. } => zone.clone(),
            _ => unreachable!(),
        };
        let parent = match &self.slots[leaf_idx] {
            Slot::Leaf { parent, .. } => *parent,
            _ => unreachable!(),
        };
        let Some(parent_idx) = parent else {
            // Last node: the CAN empties.
            self.release(leaf_idx);
            self.root = None;
            return ZoneChange::Emptied;
        };
        let sib = self
            .sibling_of(leaf_idx)
            .expect("non-root leaf has sibling");
        match &self.slots[sib] {
            Slot::Leaf { owner: s, zone, .. } => {
                // Merge: sibling leaf takes over; parent becomes a leaf.
                let s = *s;
                let merged = zone
                    .merge(&departed_zone)
                    .expect("sibling zones merge into parent region");
                let grand = match &self.slots[parent_idx] {
                    Slot::Internal { parent, .. } => *parent,
                    _ => unreachable!(),
                };
                self.slots[parent_idx] = Slot::Leaf {
                    owner: s,
                    zone: merged.clone(),
                    parent: grand,
                };
                self.leaf_of.insert(s, parent_idx);
                self.release(leaf_idx);
                self.release(sib);
                ZoneChange::Merged {
                    owner: s,
                    new_zone: merged,
                }
            }
            Slot::Internal { .. } => {
                // Defragmentation: relocate the upper leaf of the
                // deepest pair in the sibling subtree.
                let pair = self
                    .deepest_leaf_pair(sib)
                    .expect("internal subtree has a leaf pair");
                let (lower, upper) = match &self.slots[pair] {
                    Slot::Internal { lower, upper, .. } => (*lower, *upper),
                    _ => unreachable!(),
                };
                let relocator = self.leaf_owner(upper);
                let absorber = self.leaf_owner(lower);
                let (low_zone, up_zone) = match (&self.slots[lower], &self.slots[upper]) {
                    (Slot::Leaf { zone: a, .. }, Slot::Leaf { zone: b, .. }) => {
                        (a.clone(), b.clone())
                    }
                    _ => unreachable!(),
                };
                let absorber_zone = low_zone
                    .merge(&up_zone)
                    .expect("pair zones merge into their parent region");
                let pair_parent = match &self.slots[pair] {
                    Slot::Internal { parent, .. } => *parent,
                    _ => unreachable!(),
                };
                // Collapse the pair into a single leaf for the absorber.
                self.slots[pair] = Slot::Leaf {
                    owner: absorber,
                    zone: absorber_zone.clone(),
                    parent: pair_parent,
                };
                self.leaf_of.insert(absorber, pair);
                self.release(lower);
                self.release(upper);
                // The departed leaf keeps its zone but changes owner.
                self.slots[leaf_idx] = Slot::Leaf {
                    owner: relocator,
                    zone: departed_zone.clone(),
                    parent: Some(parent_idx),
                };
                self.leaf_of.insert(relocator, leaf_idx);
                ZoneChange::Relocated {
                    relocator,
                    absorber,
                    absorber_zone,
                    relocated_zone: departed_zone,
                }
            }
            Slot::Free { .. } => unreachable!(),
        }
    }

    /// Calls `emit(low, high, dim)` once for every pair of members whose
    /// zones abut, where the zones touch along `dim` and `high` is on
    /// the high side: `zone(low).abut_dim(zone(high)) == Some((dim, 1))`.
    /// Emission order is arena order, not id order.
    ///
    /// Two abutting leaves meet at exactly one internal node — their
    /// lowest common ancestor — and its split plane separates them, so
    /// the face they share lies in that plane. For every internal node
    /// the two children are therefore descended *together*: a side
    /// whose next cut is along the plane's own dimension keeps only the
    /// child next to the plane; any other cut keeps each child whose
    /// extent still overlaps the other side's with positive measure in
    /// the cut dimension. That test is `Zone::abut_dim`'s
    /// `min(hi) - max(lo) > 0.0` on the same `f64` bounds, regions only
    /// shrink on the way down, and the last cut along a dimension is
    /// tested against bounds that are already final, so the leaf pairs
    /// reached are exactly the abutting ones — no leaf zone is read.
    ///
    /// Both sides start from the unit box instead of the internal
    /// node's own region: a bound neither side has cut yet is the same
    /// on both, and every cut lies strictly inside it, so the test
    /// reads the same either way. The descent runs on an explicit
    /// stack, so tree depth is bounded by memory, not by the call
    /// stack.
    pub fn for_each_abutting_pair(&self, mut emit: impl FnMut(NodeId, NodeId, usize)) {
        /// One entry of the descent stack.
        enum Step {
            /// Visit a (low-side node, high-side node) pair.
            Pair(Idx, Idx),
            /// Write one region bound: a cut on the way down, or its
            /// undo on the way back up.
            Bound(usize, f64),
        }
        let dims = self.dims;
        // `[lo.., hi..]` of the low side's region, then the high side's.
        // Every cut is undone, so the unit box is restored between
        // internal nodes.
        let mut region: Vec<f64> = [0.0, 1.0, 0.0, 1.0]
            .into_iter()
            .flat_map(|b| std::iter::repeat_n(b, dims))
            .collect();
        let mut stack: Vec<Step> = Vec::new();
        for slot in &self.slots {
            let Slot::Internal {
                dim: face,
                lower,
                upper,
                ..
            } = slot
            else {
                continue;
            };
            stack.push(Step::Pair(*lower, *upper));
            while let Some(step) = stack.pop() {
                let (low, high) = match step {
                    Step::Bound(at, value) => {
                        region[at] = value;
                        continue;
                    }
                    Step::Pair(low, high) => (low, high),
                };
                // Refine the low side down to a leaf first, then the
                // high side against that leaf's exact extent.
                let (low_side, cut) = match (&self.slots[low], &self.slots[high]) {
                    (Slot::Leaf { owner: a, .. }, Slot::Leaf { owner: b, .. }) => {
                        emit(*a, *b, *face);
                        continue;
                    }
                    (cut @ Slot::Internal { .. }, _) => (true, cut),
                    (_, cut) => (false, cut),
                };
                let Slot::Internal {
                    dim,
                    at,
                    lower,
                    upper,
                    ..
                } = cut
                else {
                    unreachable!("descent reached a free slot");
                };
                let pair = |child: Idx| {
                    if low_side {
                        Step::Pair(child, high)
                    } else {
                        Step::Pair(low, child)
                    }
                };
                if dim == face {
                    // Only the child next to the plane can touch it.
                    stack.push(pair(if low_side { *upper } else { *lower }));
                    continue;
                }
                let (mine, other) = if low_side {
                    (0, 2 * dims)
                } else {
                    (2 * dims, 0)
                };
                let (lo, hi) = (region[mine + dim], region[mine + dims + dim]);
                let (other_lo, other_hi) = (region[other + dim], region[other + dims + dim]);
                // The upper child raises `lo` to the cut, the lower
                // child drops `hi` to it.
                for (child, bound, old, child_lo, child_hi) in [
                    (*upper, mine + dim, lo, *at, hi),
                    (*lower, mine + dims + dim, hi, lo, *at),
                ] {
                    if child_hi.min(other_hi) - child_lo.max(other_lo) > 0.0 {
                        stack.push(Step::Bound(bound, old));
                        stack.push(pair(child));
                        stack.push(Step::Bound(bound, *at));
                    }
                }
            }
        }
    }

    /// Walks the tree from the root and names the first defect: every
    /// leaf's stored zone is the region its split history gives it,
    /// `leaf_of` points each owner at its leaf, parents link back, no
    /// free slot is reachable and the leaves' volumes sum to 1.
    /// O(n·d), no panic.
    ///
    /// `Ok` implies that no two members' zones overlap: each split
    /// hands its two children disjoint halves, so distinct leaves get
    /// disjoint regions, and a leaf stores exactly its region.
    ///
    /// The region lives in one flat array that each split narrows on
    /// the way down and restores on the way back up, as in
    /// [`Self::for_each_abutting_pair`]; a `Zone` is built only to name
    /// a leaf that disagrees with it. Children are visited upper first.
    pub fn audit(&self) -> Result<(), String> {
        /// One entry of the walk's stack.
        enum Step {
            /// Visit a slot, with the parent it must link back to.
            Visit(Idx, Option<Idx>),
            /// Write one region bound: a split on the way down, or its
            /// undo on the way back up.
            Bound(usize, f64),
        }
        let Some(root) = self.root else {
            return if self.leaf_of.is_empty() {
                Ok(())
            } else {
                Err(format!("rootless tree lists {} owners", self.leaf_of.len()))
            };
        };
        let dims = self.dims;
        // `[lo.., hi..]`, the layout `Zone::bounds` compares.
        let mut region: Vec<f64> = [0.0, 1.0]
            .into_iter()
            .flat_map(|b| std::iter::repeat_n(b, dims))
            .collect();
        let mut volume = 0.0;
        let mut leaves = 0usize;
        let mut stack = vec![Step::Visit(root, None)];
        while let Some(step) = stack.pop() {
            let (idx, parent) = match step {
                Step::Bound(at, value) => {
                    region[at] = value;
                    continue;
                }
                Step::Visit(idx, parent) => (idx, parent),
            };
            match &self.slots[idx] {
                Slot::Leaf {
                    owner,
                    zone,
                    parent: p,
                } => {
                    if *p != parent {
                        return Err(format!("parent link broken at leaf {idx}"));
                    }
                    if zone.bounds() != region.as_slice() {
                        let region =
                            Zone::from_bounds(region[..dims].to_vec(), region[dims..].to_vec());
                        return Err(format!(
                            "leaf zone disagrees with split history: {owner} stores {zone:?}, \
                             its splits give {region:?}"
                        ));
                    }
                    if self.leaf_of.get(owner) != Some(&idx) {
                        return Err(format!("leaf_of out of sync for {owner}"));
                    }
                    volume += zone.volume();
                    leaves += 1;
                }
                Slot::Internal {
                    dim,
                    at,
                    lower,
                    upper,
                    parent: p,
                } => {
                    if *p != parent {
                        return Err(format!("parent link broken at internal {idx}"));
                    }
                    let (lo, hi) = (region[*dim], region[dims + dim]);
                    if !(lo < *at && *at < hi) {
                        return Err(format!("split plane of internal {idx} misses its region"));
                    }
                    // The lower child drops `hi` to the plane, the upper
                    // child raises `lo` to it; the upper is popped first.
                    stack.extend([
                        Step::Bound(dims + dim, hi),
                        Step::Visit(*lower, Some(idx)),
                        Step::Bound(dims + dim, *at),
                        Step::Bound(*dim, lo),
                        Step::Visit(*upper, Some(idx)),
                        Step::Bound(*dim, *at),
                    ]);
                }
                Slot::Free { .. } => return Err(format!("reachable free slot {idx}")),
            }
        }
        if leaves != self.leaf_of.len() {
            return Err(format!(
                "leaf count mismatch: {leaves} reachable, {} owners",
                self.leaf_of.len()
            ));
        }
        if (volume - 1.0).abs() >= 1e-9 {
            return Err(format!(
                "zones do not partition the space: total volume {volume}"
            ));
        }
        Ok(())
    }

    /// Panics with [`Self::audit`]'s finding, if it has one.
    pub fn check_invariants(&self) {
        if let Err(defect) = self.audit() {
            panic!("{defect}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn pt(v: &[f64]) -> Point {
        v.to_vec()
    }

    /// Builds a 2-d tree with 4 nodes:
    ///   split 0: n0 | n1 at x=0.5 (n0 low)
    ///   split 1: n0 | n2 at y=0.5 within x<0.5 (n0 low)
    ///   split 2: n1 | n3 at y=0.5 within x>=0.5 (n1 low)
    fn quad() -> SplitTree {
        let mut t = SplitTree::new(2, NodeId(0));
        t.split(
            NodeId(0),
            &pt(&[0.25, 0.25]),
            NodeId(1),
            &pt(&[0.75, 0.25]),
            0,
            0.5,
        );
        t.split(
            NodeId(0),
            &pt(&[0.25, 0.25]),
            NodeId(2),
            &pt(&[0.25, 0.75]),
            1,
            0.5,
        );
        t.split(
            NodeId(1),
            &pt(&[0.75, 0.25]),
            NodeId(3),
            &pt(&[0.75, 0.75]),
            1,
            0.5,
        );
        t.check_invariants();
        t
    }

    #[test]
    fn single_node_owns_everything() {
        let t = SplitTree::new(3, NodeId(9));
        assert_eq!(t.len(), 1);
        assert_eq!(t.owner_at(&pt(&[0.1, 0.9, 0.5])), Some(NodeId(9)));
        assert_eq!(t.zone(NodeId(9)), &Zone::unit(3));
        t.check_invariants();
    }

    #[test]
    fn quad_ownership() {
        let t = quad();
        assert_eq!(t.len(), 4);
        assert_eq!(t.owner_at(&pt(&[0.1, 0.1])), Some(NodeId(0)));
        assert_eq!(t.owner_at(&pt(&[0.9, 0.1])), Some(NodeId(1)));
        assert_eq!(t.owner_at(&pt(&[0.1, 0.9])), Some(NodeId(2)));
        assert_eq!(t.owner_at(&pt(&[0.9, 0.9])), Some(NodeId(3)));
    }

    #[test]
    fn audit_names_a_leaf_that_left_its_history() {
        let mut t = quad();
        assert_eq!(t.audit(), Ok(()));
        let (lower, _) = t.zone(NodeId(3)).split(0, 0.75);
        t.overwrite_zone(NodeId(3), lower);
        let defect = t.audit().expect_err("n3 shrank");
        assert!(
            defect.starts_with("leaf zone disagrees with split history: n3 stores"),
            "{defect}"
        );
    }

    #[test]
    fn quad_abutting_pairs_carry_their_face() {
        // Quadrants touch along faces only: the diagonal pairs (0, 3)
        // and (1, 2) meet in a corner and must not be emitted.
        let t = quad();
        let mut pairs = Vec::new();
        t.for_each_abutting_pair(|low, high, dim| pairs.push((low.0, high.0, dim)));
        pairs.sort_unstable();
        assert_eq!(pairs, [(0, 1, 0), (0, 2, 1), (1, 3, 1), (2, 3, 0)]);
        let single = SplitTree::new(3, NodeId(9));
        single.for_each_abutting_pair(|_, _, _| panic!("one zone has no neighbor"));
    }

    #[test]
    fn abutting_pairs_of_a_100k_deep_chain_do_not_overflow_the_stack() {
        // Node 0 keeps [0, 1/N); node 1's zone [1/N, 1) is then peeled
        // from the top, slice by slice, so the root's upper subtree is
        // a chain of N - 2 nested internal nodes that all cut along
        // dimension 0, each with its deep child next to the root's
        // plane — the root's descent follows the whole chain. The
        // zones are the N slices of [0, 1), so exactly the N - 1
        // consecutive slices abut.
        const N: u32 = 100_000;
        let slice = |k: u32| k as f64 / N as f64;
        let mid = |k: u32| pt(&[slice(k) + 0.5 / N as f64, 0.5]);
        let mut t = SplitTree::new(2, NodeId(0));
        t.split(NodeId(0), &mid(0), NodeId(1), &mid(1), 0, slice(1));
        for k in (2..N).rev() {
            t.split(NodeId(1), &mid(1), NodeId(k), &mid(k), 0, slice(k));
        }
        let mut pairs = Vec::new();
        t.for_each_abutting_pair(|low, high, dim| pairs.push((low.0, high.0, dim)));
        pairs.sort_unstable();
        let expect: Vec<(u32, u32, usize)> = (0..N - 1).map(|k| (k, k + 1, 0)).collect();
        assert_eq!(pairs, expect);
    }

    #[test]
    fn split_returns_both_zones() {
        let mut t = SplitTree::new(2, NodeId(0));
        let (z0, z1) = t.split(
            NodeId(0),
            &pt(&[0.2, 0.5]),
            NodeId(1),
            &pt(&[0.8, 0.5]),
            0,
            0.5,
        );
        assert!(z0.contains(&[0.2, 0.5]));
        assert!(z1.contains(&[0.8, 0.5]));
        assert!((z0.volume() - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "does not separate")]
    fn split_must_separate_coordinates() {
        let mut t = SplitTree::new(2, NodeId(0));
        t.split(
            NodeId(0),
            &pt(&[0.2, 0.5]),
            NodeId(1),
            &pt(&[0.3, 0.5]),
            0,
            0.5,
        );
    }

    #[test]
    fn takeover_plan_sibling_leaf() {
        let t = quad();
        // n2's sibling is n0 (both leaves under the x<0.5 internal).
        let plan = t.takeover_plan(NodeId(2));
        assert_eq!(plan.heir, Some(NodeId(0)));
        assert_eq!(plan.absorber, None);
        assert_eq!(plan.targets(), vec![NodeId(0)]);
    }

    #[test]
    fn takeover_plans_are_mutual_for_sibling_leaves() {
        let t = quad();
        assert_eq!(t.takeover_plan(NodeId(0)).heir, Some(NodeId(2)));
        assert_eq!(t.takeover_plan(NodeId(2)).heir, Some(NodeId(0)));
        assert_eq!(t.takeover_plan(NodeId(1)).heir, Some(NodeId(3)));
        assert_eq!(t.takeover_plan(NodeId(3)).heir, Some(NodeId(1)));
    }

    #[test]
    fn merge_departure_returns_zone_to_sibling() {
        let mut t = quad();
        let change = t.remove(NodeId(2));
        match change {
            ZoneChange::Merged { owner, new_zone } => {
                assert_eq!(owner, NodeId(0));
                assert!((new_zone.volume() - 0.5).abs() < 1e-12);
                assert!(new_zone.contains(&[0.25, 0.9]));
            }
            other => panic!("expected merge, got {other:?}"),
        }
        t.check_invariants();
        assert_eq!(t.len(), 3);
        assert_eq!(t.owner_at(&pt(&[0.1, 0.9])), Some(NodeId(0)));
    }

    #[test]
    fn defrag_departure_relocates_deepest_pair() {
        let mut t = quad();
        // Remove n0 after its sibling subtree (x>=0.5) split into n1/n3:
        // wait — n0's sibling in the tree is the subtree {n2}? Build the
        // scenario explicitly: remove n2 first so n0's sibling is the
        // internal node holding n1 and n3.
        t.remove(NodeId(2));
        t.check_invariants();
        let plan = t.takeover_plan(NodeId(0));
        assert_eq!(plan.heir, Some(NodeId(3)), "upper leaf relocates");
        assert_eq!(plan.absorber, Some(NodeId(1)));
        let change = t.remove(NodeId(0));
        match change {
            ZoneChange::Relocated {
                relocator,
                absorber,
                absorber_zone,
                relocated_zone,
            } => {
                assert_eq!(relocator, NodeId(3));
                assert_eq!(absorber, NodeId(1));
                // n1 absorbs the right column; n3 takes the left column.
                assert!((absorber_zone.volume() - 0.5).abs() < 1e-12);
                assert!((relocated_zone.volume() - 0.5).abs() < 1e-12);
                assert!(relocated_zone.contains(&[0.1, 0.5]));
            }
            other => panic!("expected relocation, got {other:?}"),
        }
        t.check_invariants();
        assert_eq!(t.len(), 2);
        assert_eq!(t.owner_at(&pt(&[0.1, 0.1])), Some(NodeId(3)));
        assert_eq!(t.owner_at(&pt(&[0.9, 0.9])), Some(NodeId(1)));
    }

    #[test]
    fn removing_last_node_empties_the_can() {
        let mut t = SplitTree::new(2, NodeId(0));
        assert_eq!(t.remove(NodeId(0)), ZoneChange::Emptied);
        assert!(t.is_empty());
        assert_eq!(t.owner_at(&pt(&[0.5, 0.5])), None);
        t.check_invariants();
    }

    #[test]
    fn arena_slots_are_recycled() {
        let mut t = SplitTree::new(2, NodeId(0));
        for round in 0..10 {
            let id = NodeId(100 + round);
            t.split(
                NodeId(0),
                &pt(&[0.25, 0.25]),
                id,
                &pt(&[0.75, 0.25]),
                0,
                0.5,
            );
            t.remove(id);
            t.check_invariants();
        }
        // 1 leaf + at most the transient internal + 2 children slots.
        assert!(t.slots.len() <= 3, "arena grew: {} slots", t.slots.len());
    }

    #[test]
    fn churn_preserves_invariants() {
        // Deterministic join/leave churn exercising merge + defrag.
        let mut t = SplitTree::new(3, NodeId(0));
        let mut coords: HashMap<NodeId, Point> = HashMap::new();
        coords.insert(NodeId(0), pt(&[0.01, 0.01, 0.01]));
        let mut next = 1u32;
        let mut x = 0x243F_6A88_85A3_08D3u64; // deterministic LCG-ish stream
        for step in 0..400 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let join = t.len() <= 2 || (x >> 33).is_multiple_of(2);
            if join {
                let id = NodeId(next);
                next += 1;
                // Random coordinate derived from the stream.
                let mut c = Vec::with_capacity(3);
                let mut y = x;
                for _ in 0..3 {
                    y = y.wrapping_mul(6364136223846793005).wrapping_add(99991);
                    c.push((y >> 11) as f64 / (1u64 << 53) as f64);
                }
                let host = t.owner_at(&c).unwrap();
                let hc = coords[&host].clone();
                let zone = t.zone(host).clone();
                let mut done = false;
                if zone.contains(&hc) {
                    // Split along the first dim where the coords differ
                    // and the midpoint cuts the zone.
                    for d in 0..3 {
                        let at = 0.5 * (hc[d] + c[d]);
                        if hc[d] != c[d] && zone.lo(d) < at && at < zone.hi(d) {
                            t.split(host, &hc, id, &c, d, at);
                            coords.insert(id, c);
                            done = true;
                            break;
                        }
                    }
                } else {
                    // Take-over host handling a zone away from its
                    // coordinate: bisect the zone.
                    let at = 0.5 * (zone.lo(0) + zone.hi(0));
                    t.split(host, &hc, id, &c, 0, at);
                    coords.insert(id, c);
                    done = true;
                }
                if !done {
                    next -= 1; // couldn't place; skip this join
                }
            } else {
                // Remove an arbitrary member (not deterministic order
                // from HashMap — pick the min id for determinism).
                let victim = t.members().min().unwrap();
                t.remove(victim);
                coords.remove(&victim);
            }
            if step % 20 == 0 {
                t.check_invariants();
            }
        }
        t.check_invariants();
        // Zones still contain their owners' coordinates is NOT
        // guaranteed after relocation — relocated nodes own zones away
        // from their coordinate; the CAN re-advertises them. Check that
        // ownership lookups agree with zones instead.
        for m in t.members().collect::<Vec<_>>() {
            let z = t.zone(m);
            let c = z.center();
            assert_eq!(t.owner_at(&c), Some(m));
        }
    }
}
