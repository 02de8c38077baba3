//! Property-based tests for the CAN substrate.

use pgrid_can::adjacency::Adjacency;
use pgrid_can::geom::Zone;
use pgrid_can::protocol::{CanSim, HeartbeatScheme, ProtocolConfig};
use pgrid_can::split_tree::{choose_split_plane, choose_split_plane_free, SplitTree, ZoneChange};
use pgrid_can::wire::{compact_keepalive, full_heartbeat, zone_update};
use pgrid_simcore::SimRng;
use pgrid_types::NodeId;
use proptest::prelude::*;

fn unit_point(dims: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.0f64..0.999, dims)
}

proptest! {
    /// The chosen split plane always cuts the zone strictly and
    /// separates the two coordinates.
    #[test]
    fn split_plane_separates(host in unit_point(5), joiner in unit_point(5)) {
        let zone = Zone::unit(5);
        match choose_split_plane(&zone, &host, &joiner) {
            Some((dim, at)) => {
                prop_assert!(zone.lo(dim) < at && at < zone.hi(dim));
                prop_assert!((host[dim] < at) != (joiner[dim] < at),
                    "plane {at} along {dim} fails to separate {} and {}",
                    host[dim], joiner[dim]);
            }
            None => {
                // Only identical coordinates are inseparable in the
                // full unit zone.
                prop_assert_eq!(host, joiner);
            }
        }
    }

    /// Zone distance is zero exactly for contained points.
    #[test]
    fn zone_distance_zero_iff_contained(
        lo in prop::collection::vec(0.0f64..0.5, 3),
        side in 0.05f64..0.4,
        p in unit_point(3),
    ) {
        let z = Zone::from_bounds(lo.clone(), lo.iter().map(|x| x + side).collect());
        if z.contains(&p) {
            prop_assert_eq!(z.distance_to(&p), 0.0);
        } else {
            prop_assert!(z.distance_to(&p) > 0.0);
        }
    }

    /// Wire sizes are monotone in dimensions and neighbor count, and
    /// a compact keepalive never exceeds a full heartbeat.
    #[test]
    fn wire_monotonicity(d in 1usize..20, k in 0usize..64) {
        prop_assert!(full_heartbeat(d, k + 1) > full_heartbeat(d, k));
        prop_assert!(full_heartbeat(d + 1, k) > full_heartbeat(d, k));
        prop_assert!(compact_keepalive() <= full_heartbeat(d, k));
        prop_assert!(zone_update(d) <= full_heartbeat(d, k));
    }

    /// Sequential joins always produce a consistent CAN: zones
    /// partition the space, adjacency matches recomputation, no broken
    /// links, and every coordinate has exactly one owner.
    #[test]
    fn bootstrap_consistency(
        seed in 0u64..2000,
        n in 2usize..40,
        scheme_idx in 0usize..3,
    ) {
        let scheme = HeartbeatScheme::ALL[scheme_idx];
        let mut sim = CanSim::new(ProtocolConfig::new(4, scheme)).expect("valid protocol config");
        let mut rng = SimRng::seed_from_u64(seed);
        let mut joined = 0;
        while joined < n {
            if sim.join((0..4).map(|_| rng.unit()).collect()).is_ok() {
                joined += 1;
            }
            sim.advance_to(sim.now() + 1.0);
        }
        sim.check_invariants();
        prop_assert_eq!(sim.broken_links(), 0);
        let p: Vec<f64> = (0..4).map(|_| rng.unit()).collect();
        prop_assert!(sim.owner_at(&p).is_some());
    }

    /// Take-over plans are stable between membership changes, and the
    /// heir of a departure matches the precomputed plan.
    #[test]
    fn takeover_plan_is_honoured(seed in 0u64..2000, n in 3usize..30) {
        let mut tree = SplitTree::new(3, NodeId(0));
        let mut rng = SimRng::seed_from_u64(seed);
        let mut coords = vec![(NodeId(0), vec![0.01, 0.01, 0.01])];
        let mut next = 1u32;
        while (tree.len()) < n {
            let c: Vec<f64> = (0..3).map(|_| rng.unit()).collect();
            let host = tree.owner_at(&c).unwrap();
            let hc = coords.iter().find(|(m, _)| *m == host).unwrap().1.clone();
            let zone = tree.zone(host).clone();
            let plane = if zone.contains(&hc) {
                choose_split_plane(&zone, &hc, &c)
            } else {
                Some(choose_split_plane_free(&zone))
            };
            if let Some((dim, at)) = plane {
                let id = NodeId(next);
                next += 1;
                tree.split(host, &hc, id, &c, dim, at);
                coords.push((id, c));
            }
        }
        let victim = {
            let members: Vec<NodeId> = tree.members().collect();
            members[rng.below(members.len())]
        };
        let plan = tree.takeover_plan(victim);
        let change = tree.remove(victim);
        match change {
            ZoneChange::Merged { owner, .. } => {
                prop_assert_eq!(Some(owner), plan.heir);
            }
            ZoneChange::Relocated { relocator, absorber, .. } => {
                prop_assert_eq!(Some(relocator), plan.heir);
                prop_assert_eq!(Some(absorber), plan.absorber);
            }
            ZoneChange::Emptied => prop_assert!(n == 1),
        }
        tree.check_invariants();
    }

    /// Three routes to the neighbor relation agree after any join/leave
    /// stream: the split tree's dual descent, the incrementally
    /// maintained `Adjacency` (through splits, sibling merges and
    /// defragmenting relocations), and the O(n²) recomputation from
    /// the zones. Every pair the descent emits is oriented and labeled
    /// as `Zone::abut_dim` has it.
    #[test]
    fn abutting_pairs_match_both_adjacencies_under_churn(
        ops in prop::collection::vec((unit_point(3), 0u32..3, 0usize..1 << 16), 1..120),
    ) {
        let mut tree = SplitTree::new(3, NodeId(0));
        let mut adj = Adjacency::new();
        adj.insert_first(NodeId(0));
        let mut coords = vec![(NodeId(0), vec![0.01, 0.01, 0.01])];
        let mut next = 1u32;
        for (p, kind, pick) in ops {
            // Two joins per leave keep the tree deep enough for the
            // sibling of a departing leaf to have split further.
            if kind > 0 || tree.len() <= 2 {
                let host = tree.owner_at(&p).unwrap();
                let hc = &coords.iter().find(|(n, _)| *n == host).unwrap().1;
                let zone = tree.zone(host);
                let plane = if zone.contains(hc) {
                    choose_split_plane(zone, hc, &p)
                } else {
                    Some(choose_split_plane_free(zone))
                };
                if let Some((dim, at)) = plane {
                    let id = NodeId(next);
                    next += 1;
                    tree.split(host, hc, id, &p, dim, at);
                    adj.on_split(host, id, |n| tree.zone(n));
                    coords.push((id, p));
                }
            } else {
                let victim = coords.swap_remove(pick % coords.len()).0;
                match tree.remove(victim) {
                    ZoneChange::Merged { owner, .. } => {
                        adj.on_merge(victim, owner, |n| tree.zone(n));
                    }
                    ZoneChange::Relocated { relocator, absorber, .. } => {
                        adj.on_relocate(victim, relocator, absorber, |n| tree.zone(n));
                    }
                    ZoneChange::Emptied => unreachable!("at least three members"),
                }
            }
        }
        let reference = Adjacency::recompute(tree.members(), |n| tree.zone(n));
        prop_assert!(adj.same_as(&reference), "incremental adjacency diverged");
        let mut pairs = Vec::new();
        let mut mislabeled = None;
        tree.for_each_abutting_pair(|low, high, dim| {
            if tree.zone(low).abut_dim(tree.zone(high)) != Some((dim, 1)) {
                mislabeled = Some((low, high, dim));
            }
            pairs.push((low, high));
        });
        prop_assert_eq!(mislabeled, None);
        pairs.sort_unstable();
        prop_assert!(pairs.windows(2).all(|w| w[0] != w[1]), "pair emitted twice");
        prop_assert!(pairs.iter().all(|&(a, b)| reference.are_neighbors(a, b)));
        prop_assert_eq!(2 * pairs.len(), reference.directed_edges());
    }

    /// Figure 4 of the paper sketches a worst case where *all* of a
    /// node's neighbors are take-over targets, making compact
    /// heartbeats O(n²). Our deterministic deepest-pair take-over
    /// discipline designs that case away: every node has at most two
    /// take-over targets (heir + absorber), for any join history.
    #[test]
    fn takeover_targets_bounded_by_two(seed in 0u64..3000, n in 1usize..60) {
        let mut sim = CanSim::new(ProtocolConfig::new(3, HeartbeatScheme::Compact)).expect("valid protocol config");
        let mut rng = SimRng::seed_from_u64(seed);
        let mut joined = 0;
        while joined < n {
            if sim.join((0..3).map(|_| rng.unit()).collect()).is_ok() {
                joined += 1;
            }
        }
        for id in sim.members() {
            let targets = sim.takeover_targets(id);
            prop_assert!(
                targets.len() <= 2,
                "{id} has {} take-over targets",
                targets.len()
            );
            prop_assert!(!targets.contains(&id), "never its own target");
        }
    }

    /// Message accounting: totals equal the sum over categories and
    /// rates are non-negative.
    #[test]
    fn accounting_arithmetic(
        heartbeats in 0u64..1000,
        bytes_each in 1u64..10_000,
        minutes in 1u64..100,
        alive in 1usize..100,
    ) {
        use pgrid_can::accounting::Accounting;
        use pgrid_can::wire::MsgKind;
        let mut a = Accounting::new();
        a.advance(0.0, alive);
        for _ in 0..heartbeats {
            a.record(MsgKind::Heartbeat, bytes_each);
        }
        a.advance(minutes as f64 * 60.0, alive);
        let expect = heartbeats as f64 / (alive as f64 * minutes as f64);
        prop_assert!((a.heartbeat_msgs_per_node_min() - expect).abs() < 1e-6);
        prop_assert_eq!(a.total().bytes, heartbeats * bytes_each);
    }
}
