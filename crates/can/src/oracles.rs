//! Cross-layer invariant oracles over a live [`CanSim`].
//!
//! The schedule executor (`crate::dst`) checks these oracles at
//! **every heartbeat boundary**, not once at the end of a run, because
//! many protocol bugs (the seed-41 stale-zone bug among them) produce
//! transient ground-truth corruption that a final-state audit can
//! miss.
//!
//! Two oracle families:
//!
//! * [`step_violations`] — must hold at *all* times, under any fault
//!   load: the member zones exactly tile the unit space with no open
//!   overlap, the ground-truth neighbor relation is symmetric, and
//!   every member's take-over plan points at live members.
//! * [`quiescence_violations`] — must hold only after the recovery
//!   allowance: self-healing schemes (see
//!   [`HeartbeatScheme::self_healing`]) have rebuilt full local
//!   coverage (no broken links, no boundary gaps), and no node of any
//!   scheme is still frozen. Vanilla/compact link decay is expected
//!   behavior (paper Figure 7), not a violation.
//!
//! Each violation is rendered as a human-readable string carrying the
//! simulation time, so a shrunk trace's report reads as a story.
//!
//! A boundary costs O(n·d + edges), less than the heartbeat round it
//! follows, so the oracles stay armed at any population the protocol
//! itself can run at. The one all-pairs scan left, `overlapping_pairs`,
//! runs only on a split tree that fails its own audit (invariant O1,
//! DESIGN.md §8) and, in debug builds, as the reference the shortcut
//! is asserted against; nothing is cached between boundaries. Each
//! oracle is shown to fire by a planted fault in this module's tests.

use crate::protocol::{CanSim, HeartbeatScheme};
use pgrid_types::NodeId;
use std::collections::HashMap;

/// Cap on reported violations per oracle call, so a badly corrupted
/// overlay cannot balloon a report (shrinking only needs "non-empty").
const MAX_PER_CHECK: usize = 8;

/// Relative slack on the tiling volume sum (zones are built by exact
/// halving, so the sum is exact in practice; the slack only absorbs
/// benign last-bit noise from `volume()`'s product).
const VOLUME_TOL: f64 = 1e-9;

/// Oracles that must hold at every heartbeat boundary, under any fault
/// load. Returns human-readable violations (empty when healthy).
pub fn step_violations(sim: &CanSim) -> Vec<String> {
    let members = sim.members();
    let mut v = Vec::new();
    zone_tiling(sim, &members, &mut v);
    neighbor_symmetry(sim, &members, &mut v);
    takeover_reachability(sim, &members, &mut v);
    ownership_exclusivity(sim, &members, &mut v);
    agg_slice_wellformed(sim, &members, &mut v);
    v
}

/// Words per slot of the scheduler-aggregate wire format (see
/// `AiTable::local_bits` in the sched crate): nodes, cores bits,
/// required-cores bits, free nodes, pressured nodes.
const AGG_WORDS_PER_SLOT: usize = 5;

/// Scheduler-aggregate slice well-formedness: every non-empty slice a
/// member carries (its own, and every warm replica it stores) is a
/// whole number of five-word slots, and in each slot neither the
/// free-node count nor the queue-pressure count exceeds the slot's
/// node count — the congestion bit can flag at most every node the
/// slot covers. An empty slice (the scheduler layer not attached) is
/// fine, so fault-free CAN-only runs are untouched.
fn agg_slice_wellformed(sim: &CanSim, members: &[NodeId], out: &mut Vec<String>) {
    let now = sim.now();
    let mut reported = 0usize;
    let check = |owner: NodeId, holder: NodeId, bits: &[u64], out: &mut Vec<String>| {
        if bits.is_empty() {
            return 0usize;
        }
        if !bits.len().is_multiple_of(AGG_WORDS_PER_SLOT) {
            out.push(format!(
                "t={now}: agg slice of {owner} at {holder} has {} words, not a \
                 multiple of {AGG_WORDS_PER_SLOT}",
                bits.len()
            ));
            return 1;
        }
        let mut bad = 0usize;
        for (s, c) in bits.chunks_exact(AGG_WORDS_PER_SLOT).enumerate() {
            let (nodes, free, pressured) = (c[0], c[3], c[4]);
            if free > nodes || pressured > nodes {
                out.push(format!(
                    "t={now}: agg slice of {owner} at {holder} slot {s}: \
                     free={free} pressured={pressured} exceed nodes={nodes}"
                ));
                bad += 1;
            }
        }
        bad
    };
    for &id in members {
        let Some(local) = sim.local(id) else { continue };
        reported += check(id, id, &local.agg_slice, out);
        // Sorted owner order: replica stores are hash maps, and a
        // truncated violation list must still replay bit-identically.
        let mut owners: Vec<NodeId> = local.replicas.keys().copied().collect();
        owners.sort();
        for owner in owners {
            reported += check(owner, id, &local.replicas[&owner].agg, out);
            if reported >= MAX_PER_CHECK {
                return;
            }
        }
        if reported >= MAX_PER_CHECK {
            return;
        }
    }
}

/// No two live processes hold an *unfenced* claim on overlapping
/// space. Members' ground-truth zones are disjoint by construction
/// (checked by [`zone_tiling`]); an expelled-but-alive zombie still
/// believes it owns its old zone, which is only safe because every
/// current owner of any part of that region carries a strictly higher
/// epoch — so the zombie's claim can never win a fencing comparison,
/// and on contact the zombie refutes its own death instead of
/// reasserting the zone.
fn ownership_exclusivity(sim: &CanSim, members: &[NodeId], out: &mut Vec<String>) {
    let now = sim.now();
    let mut reported = 0usize;
    for z in sim.zombie_ids() {
        let zn = sim.zombie(z).expect("listed zombie");
        if sim.is_member(z) {
            out.push(format!(
                "t={now}: zombie {z} is simultaneously a live member"
            ));
            reported += 1;
            if reported >= MAX_PER_CHECK {
                return;
            }
        }
        for &m in members {
            let mz = sim.zone(m);
            let overlap =
                (0..mz.dims()).all(|d| mz.lo(d) < zn.zone().hi(d) && zn.zone().lo(d) < mz.hi(d));
            if !overlap {
                continue;
            }
            // The member's effective claim is its local epoch or, while
            // a crash take-over is still undetected, the ground-truth
            // fence floor the take-over already owes it — the member
            // fences locally as soon as the detection timeout fires.
            let me = sim
                .local(m)
                .expect("member has local state")
                .epoch()
                .max(sim.fence_floor(m));
            if me <= zn.epoch() {
                out.push(format!(
                    "t={now}: member {m} (epoch {me}) and zombie {z} (epoch {e}) hold \
                     competing claims on overlapping space — stale claim not fenced",
                    e = zn.epoch()
                ));
                reported += 1;
                if reported >= MAX_PER_CHECK {
                    return;
                }
            }
        }
    }
}

/// Stateful cross-boundary oracle: every node's ownership-epoch claim
/// is monotone over the whole run. The DST executor feeds it at every
/// heartbeat boundary; a claim that moves backwards means some path
/// (take-over, hand-off, revival) failed to fence a new incarnation
/// above an old one.
#[derive(Debug, Default)]
pub struct EpochLedger {
    seen: HashMap<NodeId, u64>,
}

impl EpochLedger {
    /// An empty ledger (no claims observed yet).
    pub fn new() -> Self {
        EpochLedger::default()
    }

    /// Folds the current boundary's claims in; returns violations for
    /// any claim that regressed below an earlier observation.
    pub fn check(&mut self, sim: &CanSim) -> Vec<String> {
        let now = sim.now();
        let mut v = Vec::new();
        let mut claims: Vec<(NodeId, u64)> = sim
            .members()
            .iter()
            .map(|&m| (m, sim.local(m).expect("member has local state").epoch()))
            .collect();
        claims.extend(
            sim.zombie_ids()
                .iter()
                .map(|&z| (z, sim.zombie(z).expect("listed zombie").epoch())),
        );
        for (id, epoch) in claims {
            let e = self.seen.entry(id).or_insert(0);
            if epoch < *e {
                v.push(format!(
                    "t={now}: node {id} claim epoch regressed {prev} -> {epoch}",
                    prev = *e
                ));
            }
            *e = (*e).max(epoch);
        }
        v
    }
}

/// Stateful cross-boundary `replica-freshness` oracle: every crash
/// take-over's promoted warm replica is exactly as fresh as the fence
/// allows. The DST executor feeds it at every heartbeat boundary; it
/// audits the [`crate::TakeoverRecord`]s appended since the last call:
///
/// * a promoted replica must never be **older than the last version
///   the dead owner saw acked** by that heir — the owner stopped
///   re-sending once the ack arrived, so a lower promoted version
///   means the heir's store went backwards;
/// * a promoted replica's epoch must never **exceed** the fence the
///   take-over raised (`departed_epoch`) — that would be a replica
///   from the future, i.e. store corruption;
/// * a promoted replica must carry the victim's **final incarnation**
///   (`epoch >= victim_epoch`) — anything older escaped the promotion
///   fence (the second-choice-heir chain of PR 4).
///
/// A crash take-over with *no* promotion is not a violation: the heir
/// may never have heard a delta (bootstrap, loss, or a freeze), or a
/// revival may have reset its store — that is a liveness miss the
/// benchmarks measure, not a safety breach.
#[derive(Debug, Default)]
pub struct ReplicaLedger {
    seen: usize,
}

impl ReplicaLedger {
    /// An empty ledger (no take-over records audited yet).
    pub fn new() -> Self {
        ReplicaLedger::default()
    }

    /// Audits take-over records appended since the last call; returns
    /// violations (empty when every promotion respected the fence).
    pub fn check(&mut self, sim: &CanSim) -> Vec<String> {
        let mut v = Vec::new();
        let log = sim.takeover_log();
        for rec in &log[self.seen.min(log.len())..] {
            let at = rec.at;
            let (departed, actor) = (rec.departed, rec.actor);
            if let (Some(p), Some(a)) = (rec.promoted_version, rec.owner_acked_version) {
                if p < a {
                    v.push(format!(
                        "t={at}: {actor} promoted replica v{p} of {departed} but the \
                         owner had seen v{a} acked — the heir's store went backwards"
                    ));
                }
            }
            if let Some(pe) = rec.promoted_epoch {
                if pe > rec.departed_epoch {
                    v.push(format!(
                        "t={at}: {actor} promoted a replica of {departed} at epoch {pe} \
                         above the take-over fence {f} — replica from the future",
                        f = rec.departed_epoch
                    ));
                }
                if pe < rec.victim_epoch {
                    v.push(format!(
                        "t={at}: {actor} promoted a stale replica of {departed} \
                         (epoch {pe} < victim epoch {ve}) that escaped the fence",
                        ve = rec.victim_epoch
                    ));
                }
            }
        }
        self.seen = log.len();
        v
    }
}

/// The member zones partition the unit d-cube: volumes sum to 1 and no
/// two zones overlap on an open set.
///
/// Invariant O1 (DESIGN.md §8): a member's zone *is* its split-tree
/// leaf's stored zone, and on a sound tree ([`crate::SplitTree::audit`])
/// every leaf stores the region its split history gives it — disjoint
/// from every other leaf's. So the all-pairs scan runs only on a tree
/// that fails the O(n·d) audit, where it is what names the pairs.
fn zone_tiling(sim: &CanSim, members: &[NodeId], out: &mut Vec<String>) {
    if members.is_empty() {
        return;
    }
    let now = sim.now();
    let sum: f64 = members.iter().map(|&id| sim.zone(id).volume()).sum();
    if (sum - 1.0).abs() > VOLUME_TOL {
        out.push(format!(
            "t={now}: member zones cover volume {sum}, not 1 (space not tiled)"
        ));
    }
    if sim.tree_is_sound() {
        debug_assert!(
            {
                let mut pairs = Vec::new();
                overlapping_pairs(sim, members, &mut pairs);
                pairs.is_empty()
            },
            "O1: a sound split tree with overlapping member zones"
        );
        return;
    }
    overlapping_pairs(sim, members, out);
}

/// Every pair of members whose zones overlap on an open set, all pairs
/// in ascending id order — [`zone_tiling`]'s scan of a tree that left
/// its history, and the reference its shortcut is held to.
fn overlapping_pairs(sim: &CanSim, members: &[NodeId], out: &mut Vec<String>) {
    let now = sim.now();
    let mut reported = 0usize;
    for (i, &a) in members.iter().enumerate() {
        let za = sim.zone(a);
        for &b in &members[i + 1..] {
            let zb = sim.zone(b);
            let open_overlap = (0..za.dims()).all(|d| za.lo(d) < zb.hi(d) && zb.lo(d) < za.hi(d));
            if open_overlap {
                out.push(format!("t={now}: zones of {a} and {b} overlap"));
                reported += 1;
                if reported >= MAX_PER_CHECK {
                    return;
                }
            }
        }
    }
}

/// The ground-truth neighbor relation (zone abutment) is symmetric:
/// members ascending, each one's neighbors ascending, the reverse edge
/// by one lookup.
fn neighbor_symmetry(sim: &CanSim, members: &[NodeId], out: &mut Vec<String>) {
    let now = sim.now();
    let mut reported = 0usize;
    for &a in members {
        for b in sim.true_neighbors(a) {
            let mutual = sim.are_true_neighbors(b, a);
            debug_assert_eq!(mutual, sim.true_neighbors(b).binary_search(&a).is_ok());
            if !mutual {
                out.push(format!(
                    "t={now}: neighbor table asymmetric: {a} sees {b} but not vice versa"
                ));
                reported += 1;
                if reported >= MAX_PER_CHECK {
                    return;
                }
            }
        }
    }
}

/// Every member's take-over plan names live members only, and (when
/// more than one node is alive) is non-empty — otherwise a crash of
/// that node would orphan its zone.
fn takeover_reachability(sim: &CanSim, members: &[NodeId], out: &mut Vec<String>) {
    let now = sim.now();
    let mut reported = 0usize;
    for &id in members {
        let targets = sim.takeover_targets(id);
        if members.len() > 1 && targets.is_empty() {
            out.push(format!(
                "t={now}: node {id} has no take-over target; its zone would orphan"
            ));
            reported += 1;
        }
        for t in targets {
            if !sim.is_member(t) {
                out.push(format!(
                    "t={now}: take-over plan of {id} names dead node {t}"
                ));
                reported += 1;
            }
        }
        if reported >= MAX_PER_CHECK {
            return;
        }
    }
}

/// Oracles that must hold after the recovery allowance: convergence for
/// self-healing schemes, thaw for everyone.
pub fn quiescence_violations(
    sim: &CanSim,
    scheme: HeartbeatScheme,
    recovery_periods: f64,
) -> Vec<String> {
    let mut v = Vec::new();
    if scheme.self_healing() {
        let broken = sim.broken_links();
        if broken > 0 {
            v.push(format!(
                "{broken} broken links remain {recovery_periods} periods after faults ended"
            ));
        }
        let gaps = sim
            .members()
            .iter()
            .filter(|id| sim.local(**id).is_some_and(|n| n.has_boundary_gap()))
            .count();
        if gaps > 0 {
            v.push(format!(
                "{gaps} nodes still have uncovered boundary regions after recovery"
            ));
        }
    }
    for id in sim.members() {
        if sim.is_frozen(id) {
            v.push(format!("node {id} still frozen after recovery"));
        }
    }
    // A zombie that outlives the recovery allowance means revival is
    // wedged: with faults over, its epoch query should discover the
    // higher claim and rejoin within a round.
    for z in sim.zombie_ids() {
        v.push(format!("node {z} still an unrevived zombie after recovery"));
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::churn::uniform_coords;
    use crate::protocol::ProtocolConfig;
    use pgrid_simcore::SimRng;

    fn grown(n: usize, scheme: HeartbeatScheme) -> CanSim {
        let mut sim = CanSim::new(ProtocolConfig::new(2, scheme)).expect("valid protocol config");
        let mut rng = SimRng::seed_from_u64(9);
        let mut coords = uniform_coords(2);
        let mut joined = 0;
        while joined < n {
            if sim.join(coords(&mut rng)).is_ok() {
                joined += 1;
            }
            sim.advance_to(sim.now() + 1.0);
        }
        sim.advance_to(sim.now() + 200.0);
        sim
    }

    #[test]
    fn healthy_overlay_passes_every_oracle() {
        let sim = grown(24, HeartbeatScheme::Adaptive);
        assert!(step_violations(&sim).is_empty());
        assert!(quiescence_violations(&sim, HeartbeatScheme::Adaptive, 20.0).is_empty());
    }

    #[test]
    fn oracles_hold_through_crashes() {
        let mut sim = grown(24, HeartbeatScheme::Adaptive);
        for _ in 0..6 {
            let members = sim.members();
            sim.leave(members[0], false);
            // Ground-truth step oracles must hold immediately, mid-churn.
            let v = step_violations(&sim);
            assert!(v.is_empty(), "{v:?}");
            sim.advance_to(sim.now() + 30.0);
        }
    }

    #[test]
    fn replica_ledger_accepts_fenced_promotions_and_is_incremental() {
        use crate::protocol::ReplicationConfig;
        let cfg = ProtocolConfig::new(2, HeartbeatScheme::Compact)
            .with_replication(ReplicationConfig::standby());
        let mut sim = CanSim::new(cfg).expect("valid protocol config");
        let mut rng = SimRng::seed_from_u64(9);
        let mut coords = uniform_coords(2);
        let mut joined = 0;
        while joined < 20 {
            if sim.join(coords(&mut rng)).is_ok() {
                joined += 1;
            }
            sim.advance_to(sim.now() + 1.0);
        }
        sim.advance_to(sim.now() + 200.0);
        let mut ledger = ReplicaLedger::new();
        assert!(ledger.check(&sim).is_empty(), "no take-overs yet");
        for _ in 0..4 {
            let victim = sim.members()[1];
            sim.leave(victim, false);
            sim.advance_to(sim.now() + 200.0);
            let v = ledger.check(&sim);
            assert!(v.is_empty(), "{v:?}");
        }
        assert!(
            sim.counters().replica_promotions >= 1,
            "warm promotions expected under clean crashes"
        );
        // The cursor advanced: a second pass re-audits nothing.
        assert_eq!(ledger.seen, sim.takeover_log().len());
        assert!(ledger.check(&sim).is_empty());
    }

    #[test]
    fn malformed_or_overflowing_agg_slices_are_reported() {
        let mut sim = grown(12, HeartbeatScheme::Compact);
        let id = sim.members()[0];
        // A healthy five-word slot passes.
        assert!(sim.set_agg_slice(id, vec![4, 0, 0, 2, 1]));
        assert!(step_violations(&sim).is_empty(), "well-formed slice");
        // Wrong word count.
        assert!(sim.set_agg_slice(id, vec![1, 2, 3, 4]));
        let v = step_violations(&sim);
        assert!(v.iter().any(|m| m.contains("not a multiple of 5")), "{v:?}");
        // Pressure bit overflow: 3 pressured out of 2 nodes.
        assert!(sim.set_agg_slice(id, vec![2, 0, 0, 1, 3]));
        let v = step_violations(&sim);
        assert!(
            v.iter()
                .any(|m| m.contains("pressured=3") && m.contains("nodes=2")),
            "{v:?}"
        );
        // Cleared slice: healthy again.
        assert!(sim.set_agg_slice(id, Vec::new()));
        assert!(step_violations(&sim).is_empty());
    }

    /// The two ways a scan stops at `MAX_PER_CHECK`, pinned string for
    /// string: `ownership_exclusivity` cuts after the eighth report,
    /// mid-zombie; `agg_slice_wellformed` lets the node that reaches
    /// the cap finish its slice, so it reports ten.
    #[test]
    fn report_caps_cut_per_report_or_per_node() {
        use crate::membership::LocalNode;
        let mut sim = grown(12, HeartbeatScheme::Compact);
        let members = sim.members();
        // Six zombies that copy a live member: each is "simultaneously
        // a live member", and all but the first (epoch 0, fenced) also
        // hold an unfenced claim against their own original.
        for (i, &m) in members[..6].iter().enumerate() {
            let live = sim.local(m).expect("member has local state");
            let epoch = if i == 0 { 0 } else { live.epoch() };
            let z = LocalNode::new(m, live.coord.clone(), sim.zone(m).clone(), epoch);
            sim.park_zombie(z);
        }
        // One malformed slice, then three-finding slices: the fourth
        // node crosses the cap, the fifth is never scanned.
        assert!(sim.set_agg_slice(members[0], vec![1, 2, 3, 4]));
        for &m in &members[1..5] {
            let three_bad_slots = vec![1, 0, 0, 2, 0, 1, 0, 0, 0, 2, 1, 0, 0, 2, 2];
            assert!(sim.set_agg_slice(m, three_bad_slots));
        }
        let unfenced = |n: u32, epoch: u64| {
            format!(
                "t=212: member n{n} (epoch {epoch}) and zombie n{n} (epoch {epoch}) hold \
                 competing claims on overlapping space — stale claim not fenced"
            )
        };
        let bad_slots = |n: u32| {
            [
                "free=2 pressured=0",
                "free=0 pressured=2",
                "free=2 pressured=2",
            ]
            .into_iter()
            .enumerate()
            .map(move |(slot, counts)| {
                format!("t=212: agg slice of n{n} at n{n} slot {slot}: {counts} exceed nodes=1")
            })
        };
        let mut expect = vec![
            "t=212: zombie n0 is simultaneously a live member".to_string(),
            "t=212: zombie n1 is simultaneously a live member".to_string(),
            unfenced(1, 4),
            "t=212: zombie n2 is simultaneously a live member".to_string(),
            unfenced(2, 4),
            "t=212: zombie n3 is simultaneously a live member".to_string(),
            unfenced(3, 6),
            "t=212: zombie n4 is simultaneously a live member".to_string(),
            "t=212: agg slice of n0 at n0 has 4 words, not a multiple of 5".to_string(),
        ];
        expect.extend((1..=3).flat_map(bad_slots));
        assert_eq!(step_violations(&sim), expect);
    }

    /// The ten-node overlay the sabotage tests break, at t = 210:
    /// n1 and n7 are sibling leaves, n1 abuts n2 and n7 only, n0 abuts
    /// n4, n5, n6 and n9.
    fn ten() -> CanSim {
        grown(10, HeartbeatScheme::Compact)
    }

    /// `ten()` with directed ground-truth edges added (`true`) or
    /// removed; an undirected edit is both directions.
    fn with_edges(edits: &[(u32, u32, bool)]) -> CanSim {
        let mut sim = ten();
        for &(from, to, present) in edits {
            assert_ne!(
                sim.true_neighbors(NodeId(from)).contains(&NodeId(to)),
                present,
                "edit {from} -> {to} changes nothing"
            );
            sim.set_true_edge(NodeId(from), NodeId(to), present);
        }
        sim
    }

    /// Tiling sabotage, string for string: a stored leaf zone that
    /// disagrees with its split history is reported by `zone_tiling`
    /// and by no other oracle.
    #[test]
    fn overwritten_leaf_zones_break_the_tiling_and_nothing_else() {
        let overlaps = |pairs: &[(u32, u32)]| -> Vec<String> {
            pairs
                .iter()
                .map(|(a, b)| format!("t=210: zones of n{a} and n{b} overlap"))
                .collect()
        };
        // Grown over its sibling: the volume line, then the one pair.
        let mut sim = ten();
        let grown_zone = sim.zone(NodeId(1)).merge(sim.zone(NodeId(7)));
        sim.overwrite_zone(NodeId(1), grown_zone.expect("n1 and n7 are siblings"));
        let mut expect = vec![
            "t=210: member zones cover volume 1.1249999999999998, not 1 (space not tiled)"
                .to_string(),
        ];
        expect.extend(overlaps(&[(1, 7)]));
        assert_eq!(step_violations(&sim), expect);

        // Grown over all nine other leaves: the scan stops after the
        // eighth pair, (n5, n9) is never named.
        let mut sim = ten();
        sim.overwrite_zone(NodeId(5), crate::geom::Zone::unit(2));
        let mut expect = vec![
            "t=210: member zones cover volume 1.9428042085819919, not 1 (space not tiled)"
                .to_string(),
        ];
        expect.extend(overlaps(&[
            (0, 5),
            (1, 5),
            (2, 5),
            (3, 5),
            (4, 5),
            (5, 6),
            (5, 7),
            (5, 8),
        ]));
        assert_eq!(step_violations(&sim), expect);

        // Shrunk to its lower half: a hole, no overlap.
        let mut sim = ten();
        let (lower, _) = sim.zone(NodeId(0)).split(0, 0.75);
        sim.overwrite_zone(NodeId(0), lower);
        assert_eq!(
            step_violations(&sim),
            ["t=210: member zones cover volume 0.875, not 1 (space not tiled)"]
        );
    }

    /// Symmetry sabotage, string for string: a one-way ground-truth
    /// edge is reported by `neighbor_symmetry`, naming the side that
    /// still sees the other, and by no other oracle.
    #[test]
    fn one_way_edges_break_symmetry_and_nothing_else() {
        let one_way = |a: u32, b: u32| {
            format!("t=210: neighbor table asymmetric: n{a} sees n{b} but not vice versa")
        };
        // n1 forgets n2: n2 is the one left looking.
        let sim = with_edges(&[(1, 2, false)]);
        assert_eq!(step_violations(&sim), [one_way(2, 1)]);
        // n1 sees n0, whose zone it does not touch.
        let sim = with_edges(&[(1, 0, true)]);
        assert_eq!(step_violations(&sim), [one_way(1, 0)]);
        // Nine one-way edges — n0 and n7 forget everyone, n2 forgets
        // n3: members ascending, each one's neighbors ascending, cut
        // after the eighth; (n9, n0) is never named.
        let sim = with_edges(&[
            (0, 4, false),
            (0, 5, false),
            (0, 6, false),
            (0, 9, false),
            (7, 1, false),
            (7, 4, false),
            (7, 6, false),
            (7, 8, false),
            (2, 3, false),
        ]);
        let expect = [
            (1, 7),
            (3, 2),
            (4, 0),
            (4, 7),
            (5, 0),
            (6, 0),
            (6, 7),
            (8, 7),
        ]
        .map(|(a, b)| one_way(a, b));
        assert_eq!(step_violations(&sim), expect);
    }

    #[test]
    #[should_panic(expected = "incremental adjacency diverged")]
    fn check_invariants_catches_a_one_way_missing_edge() {
        with_edges(&[(1, 2, false)]).check_invariants();
    }

    #[test]
    #[should_panic(expected = "incremental adjacency diverged")]
    fn check_invariants_catches_a_one_way_phantom_edge() {
        with_edges(&[(1, 0, true)]).check_invariants();
    }

    /// The three *symmetric* corruptions below are silent to every
    /// string oracle (asserted first: a finding there would panic with
    /// another message); only `check_invariants` sees them.
    #[test]
    #[should_panic(expected = "incremental adjacency diverged")]
    fn check_invariants_catches_a_missing_abutting_pair() {
        let sim = with_edges(&[(1, 2, false), (2, 1, false)]);
        assert_eq!(step_violations(&sim), Vec::<String>::new());
        sim.check_invariants();
    }

    /// Every abutting pair is still linked: only the edge count tells.
    #[test]
    #[should_panic(expected = "incremental adjacency diverged")]
    fn check_invariants_catches_a_phantom_pair_of_non_abutting_members() {
        let sim = with_edges(&[(1, 0, true), (0, 1, true)]);
        assert_eq!(step_violations(&sim), Vec::<String>::new());
        sim.check_invariants();
    }

    /// One real pair swapped for a phantom one, edge count unchanged:
    /// only the lookup of each abutting pair tells.
    #[test]
    #[should_panic(expected = "incremental adjacency diverged")]
    fn check_invariants_catches_an_edge_swapped_for_a_phantom() {
        let sim = with_edges(&[(1, 2, false), (2, 1, false), (1, 0, true), (0, 1, true)]);
        assert_eq!(step_violations(&sim), Vec::<String>::new());
        sim.check_invariants();
    }

    #[test]
    fn frozen_node_fails_quiescence() {
        let mut sim = grown(12, HeartbeatScheme::Vanilla);
        let victim = sim.members()[0];
        sim.freeze(victim, 10_000.0);
        let v = quiescence_violations(&sim, HeartbeatScheme::Vanilla, 20.0);
        assert!(
            v.iter().any(|m| m.contains("still frozen")),
            "freeze must be reported: {v:?}"
        );
    }
}
