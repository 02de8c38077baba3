//! Ground-truth neighbor relation over the current zone set.
//!
//! The CAN neighbor relation ("nodes whose zones abut its own", paper
//! §II-A) is maintained *incrementally*: each join touches only the
//! host's old neighborhood, each departure only the neighborhoods of
//! the zones involved in the take-over. An O(n²) recomputation is kept
//! for test-time verification: [`Adjacency::recompute`] is the reference
//! of this module's tests, of the join/leave proptests, of
//! `StaticGrid::check_invariants` and of the `debug_assert!` in
//! `CanSim::check_invariants`. What runs at every heartbeat boundary
//! of a fault schedule is [`Adjacency::matches_tree`], in O(edges).
//!
//! This adjacency is the simulator's *ground truth* — what the DHT
//! would look like with perfect knowledge. Per-node (possibly stale)
//! views live in [`crate::membership`]; a **broken link** is a
//! ground-truth edge missing from a node's local view.

use crate::geom::Zone;
use crate::idmap::{IdMap, IdSet};
use crate::split_tree::SplitTree;
use pgrid_types::NodeId;

/// Incrementally-maintained abutment graph over zones.
#[derive(Debug, Default)]
pub struct Adjacency {
    nbrs: IdMap<IdSet>,
}

/// Iterator over a node's neighbor ids, in no particular order
/// ([`Adjacency::neighbors`]).
#[derive(Debug, Clone)]
pub struct Neighbors<'a>(Option<std::collections::hash_set::Iter<'a, NodeId>>);

impl Iterator for Neighbors<'_> {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        self.0.as_mut()?.next().copied()
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.as_ref().map_or((0, Some(0)), Iterator::size_hint)
    }
}

impl Adjacency {
    /// Empty graph.
    pub fn new() -> Self {
        Adjacency::default()
    }

    /// Number of member nodes.
    pub fn len(&self) -> usize {
        self.nbrs.len()
    }

    /// Whether the graph is empty.
    pub fn is_empty(&self) -> bool {
        self.nbrs.is_empty()
    }

    /// The current neighbor set of `id` (empty if unknown).
    pub fn neighbors(&self, id: NodeId) -> Neighbors<'_> {
        Neighbors(self.nbrs.get(&id).map(IdSet::iter))
    }

    /// Whether `a` and `b` are currently neighbors.
    pub fn are_neighbors(&self, a: NodeId, b: NodeId) -> bool {
        self.nbrs.get(&a).is_some_and(|s| s.contains(&b))
    }

    /// Neighbor count of `id`.
    pub fn degree(&self, id: NodeId) -> usize {
        self.nbrs.get(&id).map_or(0, IdSet::len)
    }

    /// Total directed edge count (2× undirected edges).
    pub fn directed_edges(&self) -> usize {
        self.nbrs.values().map(IdSet::len).sum()
    }

    /// Registers the first node (no neighbors).
    pub fn insert_first(&mut self, id: NodeId) {
        assert!(self.nbrs.is_empty(), "insert_first on non-empty graph");
        self.nbrs.insert(id, IdSet::default());
    }

    fn link(&mut self, a: NodeId, b: NodeId) {
        self.nbrs.entry(a).or_default().insert(b);
        self.nbrs.entry(b).or_default().insert(a);
    }

    fn unlink(&mut self, a: NodeId, b: NodeId) {
        if let Some(s) = self.nbrs.get_mut(&a) {
            s.remove(&b);
        }
        if let Some(s) = self.nbrs.get_mut(&b) {
            s.remove(&a);
        }
    }

    /// Adds or removes the one directed edge `from -> to` — a corrupt
    /// graph no run reaches, for the oracle tests that need one.
    #[cfg(test)]
    pub(crate) fn set_directed(&mut self, from: NodeId, to: NodeId, present: bool) {
        let set = self.nbrs.entry(from).or_default();
        if present {
            set.insert(to);
        } else {
            set.remove(&to);
        }
    }

    fn relink(&mut self, a: NodeId, b: NodeId, abut: bool) {
        if abut {
            self.link(a, b);
        } else {
            self.unlink(a, b);
        }
    }

    /// Updates the graph after `joiner` split `host`'s zone.
    ///
    /// `zones(id)` must return the *current* (post-split) zone of any
    /// live node. Every new neighbor of either child zone was a
    /// neighbor of the parent zone, so only the host's old neighborhood
    /// is re-examined.
    pub fn on_split<'z>(
        &mut self,
        host: NodeId,
        joiner: NodeId,
        zones: impl Fn(NodeId) -> &'z Zone,
    ) {
        let old: Vec<NodeId> = self.neighbors(host).collect();
        self.nbrs.entry(joiner).or_default();
        let host_zone = zones(host).clone();
        let joiner_zone = zones(joiner).clone();
        for y in old {
            let yz = zones(y);
            self.relink(host, y, host_zone.abuts(yz));
            self.relink(joiner, y, joiner_zone.abuts(yz));
        }
        self.link(host, joiner); // split siblings always share a face
        debug_assert!(host_zone.abuts(&joiner_zone));
    }

    /// Updates the graph after `departed`'s zone merged into `heir`'s
    /// (sibling-leaf take-over). The heir's new neighborhood is a
    /// subset of the union of both old neighborhoods.
    pub fn on_merge<'z>(
        &mut self,
        departed: NodeId,
        heir: NodeId,
        zones: impl Fn(NodeId) -> &'z Zone,
    ) {
        let mut candidates: IdSet = self.neighbors(departed).collect();
        candidates.extend(self.neighbors(heir));
        candidates.remove(&heir);
        candidates.remove(&departed);
        self.remove_node(departed);
        let heir_zone = zones(heir).clone();
        for y in candidates {
            self.relink(heir, y, heir_zone.abuts(zones(y)));
        }
    }

    /// Updates the graph after a defragmentation take-over: `departed`
    /// left, `relocator` moved onto the departed zone, and `absorber`
    /// absorbed the relocator's old zone.
    pub fn on_relocate<'z>(
        &mut self,
        departed: NodeId,
        relocator: NodeId,
        absorber: NodeId,
        zones: impl Fn(NodeId) -> &'z Zone,
    ) {
        // Candidates for the relocator's new position: the departed
        // zone is unchanged, so its old neighbors (plus the absorber,
        // whose zone grew) are the only possibilities.
        let mut reloc_candidates: IdSet = self.neighbors(departed).collect();
        reloc_candidates.insert(absorber);
        reloc_candidates.remove(&relocator);
        reloc_candidates.remove(&departed);

        // Candidates for the absorber's grown zone: old neighbors of
        // the absorber and of the relocator's old zone.
        let mut absorb_candidates: IdSet = self.neighbors(absorber).collect();
        absorb_candidates.extend(self.neighbors(relocator));
        absorb_candidates.remove(&absorber);
        absorb_candidates.remove(&relocator);
        absorb_candidates.remove(&departed);

        // The relocator's old zone disappears as an independent zone.
        let reloc_old: Vec<NodeId> = self.neighbors(relocator).collect();
        for y in reloc_old {
            self.unlink(relocator, y);
        }
        self.remove_node(departed);

        let absorber_zone = zones(absorber).clone();
        for y in absorb_candidates {
            self.relink(absorber, y, absorber_zone.abuts(zones(y)));
        }
        let reloc_zone = zones(relocator).clone();
        for y in reloc_candidates {
            if y == relocator {
                continue;
            }
            self.relink(relocator, y, reloc_zone.abuts(zones(y)));
        }
        // The absorber and relocator may or may not abut now.
        self.relink(relocator, absorber, reloc_zone.abuts(&absorber_zone));
    }

    /// Removes a node and all its edges (used by `on_merge` and when
    /// the CAN empties).
    pub fn remove_node(&mut self, id: NodeId) {
        if let Some(set) = self.nbrs.remove(&id) {
            for y in set {
                if let Some(s) = self.nbrs.get_mut(&y) {
                    s.remove(&id);
                }
            }
        }
    }

    /// O(n²) reference computation, for verification in tests.
    pub fn recompute<'z>(
        members: impl Iterator<Item = NodeId>,
        zones: impl Fn(NodeId) -> &'z Zone,
    ) -> Adjacency {
        let ids: Vec<NodeId> = members.collect();
        let mut adj = Adjacency::new();
        for &id in &ids {
            adj.nbrs.entry(id).or_default();
        }
        for i in 0..ids.len() {
            for j in i + 1..ids.len() {
                if zones(ids[i]).abuts(zones(ids[j])) {
                    adj.link(ids[i], ids[j]);
                }
            }
        }
        adj
    }

    /// Whether this graph is exactly the abutment graph of `tree`'s
    /// leaves — the verdict of `same_as(&recompute(..))` over the same
    /// tree, in O(edges) instead of O(n²).
    ///
    /// [`SplitTree::for_each_abutting_pair`] names every abutting pair
    /// once. Equal sizes and every tree member a key make the key sets
    /// equal; every named pair linked in both directions makes the
    /// true edges a subset of this graph's; `2 × pairs` equal to the
    /// directed edge count leaves no room for one more. Neither half
    /// stands alone: the lookups miss a phantom pair of non-abutting
    /// members, the count misses one real pair swapped for a phantom.
    pub fn matches_tree(&self, tree: &SplitTree) -> bool {
        if self.len() != tree.len() || !tree.members().all(|m| self.nbrs.contains_key(&m)) {
            return false;
        }
        let mut pairs = 0usize;
        let mut linked = true;
        tree.for_each_abutting_pair(|low, high, _| {
            pairs += 1;
            linked &= self.are_neighbors(low, high) && self.are_neighbors(high, low);
        });
        linked && 2 * pairs == self.directed_edges()
    }

    /// Structural equality against another adjacency (for tests).
    pub fn same_as(&self, other: &Adjacency) -> bool {
        if self.nbrs.len() != other.nbrs.len() {
            return false;
        }
        self.nbrs
            .iter()
            .all(|(k, v)| other.nbrs.get(k).is_some_and(|w| v == w))
    }

    /// Mean degree across members (0 for an empty graph).
    pub fn mean_degree(&self) -> f64 {
        if self.nbrs.is_empty() {
            0.0
        } else {
            self.directed_edges() as f64 / self.nbrs.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::split_tree::ZoneChange;
    use pgrid_simcore::SimRng;
    use std::collections::HashMap;

    /// `tree.for_each_abutting_pair` must emit exactly `reference`'s
    /// edges, each once, oriented and labeled as `Zone::abut_dim` has it.
    fn assert_tree_pairs_match(tree: &SplitTree, reference: &Adjacency) {
        let mut pairs = Vec::new();
        tree.for_each_abutting_pair(|low, high, dim| {
            assert_eq!(
                tree.zone(low).abut_dim(tree.zone(high)),
                Some((dim, 1)),
                "{low} / {high} do not touch along dim {dim}"
            );
            assert!(reference.are_neighbors(low, high));
            pairs.push((low, high));
        });
        pairs.sort_unstable();
        assert!(pairs.windows(2).all(|w| w[0] != w[1]), "pair emitted twice");
        assert_eq!(2 * pairs.len(), reference.directed_edges());
    }

    /// Drives a split tree and incremental adjacency together through
    /// random churn, verifying both — and the tree's own pair traversal
    /// — against the O(n²) recomputation.
    #[test]
    fn incremental_matches_recompute_under_churn() {
        let dims = 4;
        let mut rng = SimRng::seed_from_u64(2011);
        let mut tree = SplitTree::new(dims, NodeId(0));
        let mut adj = Adjacency::new();
        adj.insert_first(NodeId(0));
        let mut coords: HashMap<NodeId, Vec<f64>> = HashMap::new();
        coords.insert(NodeId(0), vec![0.01; dims]);
        let mut next = 1u32;
        let (mut merges, mut relocations) = (0, 0);

        for step in 0..600 {
            let join = tree.len() <= 3 || rng.chance(0.5);
            if join {
                let id = NodeId(next);
                let c: Vec<f64> = (0..dims).map(|_| rng.unit()).collect();
                let host = tree.owner_at(&c).unwrap();
                let hc = coords[&host].clone();
                let zone = tree.zone(host).clone();
                let mut split_dim = None;
                for d in 0..dims {
                    let at = 0.5 * (hc[d] + c[d]);
                    if hc[d] != c[d] && zone.lo(d) < at && at < zone.hi(d) {
                        split_dim = Some((d, at));
                        break;
                    }
                }
                let Some((d, at)) = split_dim else { continue };
                next += 1;
                tree.split(host, &hc, id, &c, d, at);
                coords.insert(id, c);
                adj.on_split(host, id, |n| tree.zone(n));
            } else {
                let members: Vec<NodeId> = tree.members().collect();
                let victim = *members
                    .iter()
                    .min_by_key(|m| {
                        // pseudo-random but deterministic victim choice
                        m.0.wrapping_mul(2654435761).rotate_left((step % 31) as u32)
                    })
                    .unwrap();
                coords.remove(&victim);
                match tree.remove(victim) {
                    ZoneChange::Merged { owner, .. } => {
                        merges += 1;
                        adj.on_merge(victim, owner, |n| tree.zone(n));
                    }
                    ZoneChange::Relocated {
                        relocator,
                        absorber,
                        ..
                    } => {
                        relocations += 1;
                        adj.on_relocate(victim, relocator, absorber, |n| tree.zone(n));
                    }
                    ZoneChange::Emptied => {
                        adj.remove_node(victim);
                    }
                }
            }
            if step % 25 == 0 {
                tree.check_invariants();
                let reference = Adjacency::recompute(tree.members(), |n| tree.zone(n));
                assert!(
                    adj.same_as(&reference),
                    "incremental adjacency diverged at step {step}"
                );
                assert_tree_pairs_match(&tree, &reference);
            }
        }
        let reference = Adjacency::recompute(tree.members(), |n| tree.zone(n));
        assert!(adj.same_as(&reference));
        assert_tree_pairs_match(&tree, &reference);
        assert!(adj.mean_degree() > 1.0);
        assert!(
            merges > 0 && relocations > 0,
            "churn must exercise both take-over shapes ({merges} merges, {relocations} relocations)"
        );
    }

    #[test]
    fn first_node_has_no_neighbors() {
        let mut adj = Adjacency::new();
        adj.insert_first(NodeId(0));
        assert_eq!(adj.degree(NodeId(0)), 0);
        assert_eq!(adj.len(), 1);
    }

    #[test]
    fn split_siblings_are_linked() {
        let mut tree = SplitTree::new(2, NodeId(0));
        let mut adj = Adjacency::new();
        adj.insert_first(NodeId(0));
        tree.split(
            NodeId(0),
            &vec![0.2, 0.5],
            NodeId(1),
            &vec![0.8, 0.5],
            0,
            0.5,
        );
        adj.on_split(NodeId(0), NodeId(1), |n| tree.zone(n));
        assert!(adj.are_neighbors(NodeId(0), NodeId(1)));
        assert_eq!(adj.degree(NodeId(0)), 1);
    }

    #[test]
    fn merge_removes_the_departed() {
        let mut tree = SplitTree::new(2, NodeId(0));
        let mut adj = Adjacency::new();
        adj.insert_first(NodeId(0));
        tree.split(
            NodeId(0),
            &vec![0.2, 0.5],
            NodeId(1),
            &vec![0.8, 0.5],
            0,
            0.5,
        );
        adj.on_split(NodeId(0), NodeId(1), |n| tree.zone(n));
        match tree.remove(NodeId(1)) {
            ZoneChange::Merged { owner, .. } => {
                adj.on_merge(NodeId(1), owner, |n| tree.zone(n));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(adj.len(), 1);
        assert_eq!(adj.degree(NodeId(0)), 0);
        assert!(!adj.are_neighbors(NodeId(0), NodeId(1)));
    }

    /// Four quadrants, n0 | n1 below n2 | n3, tree and graph in step.
    fn quad() -> (SplitTree, Adjacency) {
        let mut tree = SplitTree::new(2, NodeId(0));
        let mut adj = Adjacency::new();
        adj.insert_first(NodeId(0));
        tree.split(
            NodeId(0),
            &vec![0.2, 0.2],
            NodeId(1),
            &vec![0.8, 0.2],
            0,
            0.5,
        );
        adj.on_split(NodeId(0), NodeId(1), |n| tree.zone(n));
        tree.split(
            NodeId(0),
            &vec![0.2, 0.2],
            NodeId(2),
            &vec![0.2, 0.8],
            1,
            0.5,
        );
        adj.on_split(NodeId(0), NodeId(2), |n| tree.zone(n));
        tree.split(
            NodeId(1),
            &vec![0.8, 0.2],
            NodeId(3),
            &vec![0.8, 0.8],
            1,
            0.5,
        );
        adj.on_split(NodeId(1), NodeId(3), |n| tree.zone(n));
        (tree, adj)
    }

    #[test]
    fn mean_degree_of_grid() {
        // 4 quadrants: each node abuts 2 others (corner contact doesn't
        // count), so mean degree is exactly 2.
        let (_, adj) = quad();
        assert_eq!(adj.mean_degree(), 2.0);
        assert!(adj.are_neighbors(NodeId(0), NodeId(1)));
        assert!(adj.are_neighbors(NodeId(2), NodeId(3)));
        assert!(!adj.are_neighbors(NodeId(0), NodeId(3)));
        assert!(!adj.are_neighbors(NodeId(1), NodeId(2)));
    }

    /// `matches_tree` on every one-edge corruption of the quadrants,
    /// against the verdict it replaces. n0–n3 and n1–n2 meet in a
    /// corner, so either is a phantom edge.
    #[test]
    fn matches_tree_decides_what_same_as_recompute_decides() {
        let verdicts = |edits: &[(u32, u32, bool)]| {
            let (tree, mut adj) = quad();
            for &(from, to, present) in edits {
                adj.set_directed(NodeId(from), NodeId(to), present);
            }
            let reference = Adjacency::recompute(tree.members(), |n| tree.zone(n));
            (adj.matches_tree(&tree), adj.same_as(&reference))
        };
        assert_eq!(verdicts(&[]), (true, true));
        for edits in [
            &[(0, 1, false)][..],
            &[(0, 3, true)],
            &[(0, 1, false), (1, 0, false)],
            // Every abutting pair still linked: the edge count tells.
            &[(0, 3, true), (3, 0, true)],
            // Edge count unchanged: the pair lookup tells.
            &[(0, 1, false), (1, 0, false), (0, 3, true), (3, 0, true)],
        ] {
            assert_eq!(verdicts(edits), (false, false), "{edits:?}");
        }
        // A member the graph never heard of, and one the tree never did.
        let (tree, mut adj) = quad();
        adj.remove_node(NodeId(3));
        assert!(!adj.matches_tree(&tree));
        let lone = SplitTree::new(2, NodeId(0));
        let mut other = Adjacency::new();
        other.insert_first(NodeId(7));
        assert!(!other.matches_tree(&lone));
    }
}
