//! Per-node *local* membership views.
//!
//! Each node keeps its own neighbor table, fed only by the messages it
//! receives. Ground truth (the split tree and [`crate::adjacency`]) and
//! these local views drift apart under churn; the difference is exactly
//! the paper's failure-resilience metric: a **broken link** is "a node
//! has missing neighbor information along an edge of its zone, even
//! though some node already owns the zone on the other side of that
//! edge" (§IV-A, Figure 2).

use crate::geom::{Point, Zone};
use crate::idmap::IdMap;
use pgrid_simcore::dst::Fnv;
use pgrid_simcore::SimTime;
use pgrid_types::NodeId;
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

/// EWMA weight for per-link heartbeat inter-arrival statistics.
const GAP_ALPHA: f64 = 0.25;

/// What a node believes about one neighbor.
#[derive(Debug, Clone, PartialEq)]
pub struct NeighborEntry {
    /// The neighbor's zone as last advertised to this node.
    pub zone: Zone,
    /// When this node last heard from (or adopted) the neighbor.
    pub last_heard: SimTime,
    /// Whether the neighbor has ever been heard *first-hand* (its own
    /// heartbeat or zone update). Entries learned second-hand (payload
    /// repair, take-over adoption) stay unconfirmed until the neighbor
    /// speaks for itself; their expiry is not evidence of a broken
    /// link, so it does not trigger adaptive full-update rounds.
    pub confirmed: bool,
    /// The neighbor's zone-ownership epoch as last advertised
    /// first-hand (0 until an epoch-carrying message arrives). A
    /// first-hand announcement with a *lower* epoch than this is fenced
    /// off: it proves the sender is alive but must not roll the
    /// recorded zone back to a pre-take-over claim.
    pub epoch: u64,
    /// EWMA of observed first-hand inter-arrival gaps, seconds.
    pub gap_mean: f64,
    /// EWMA variance of the inter-arrival gaps.
    pub gap_var: f64,
    /// Number of first-hand gaps observed (adaptive suspicion falls
    /// back to the fixed timeout until enough samples accumulate).
    pub gaps: u32,
    /// The face of the own zone `zone` abuts across, as
    /// [`face_across`] numbers it: written wherever the abutment is
    /// tested, and rewritten for every record when the own zone
    /// changes.
    pub(crate) face: usize,
}

/// The face of `own` that `other` abuts across — `2·dim` for the low
/// face along `dim`, `2·dim + 1` for the high one — or `None` if the
/// zones do not abut.
pub(crate) fn face_across(own: &Zone, other: &Zone) -> Option<usize> {
    own.abut_dim(other)
        .map(|(dim, dir)| 2 * dim + usize::from(dir > 0))
}

impl NeighborEntry {
    fn fresh(zone: Zone, face: usize, now: SimTime, confirmed: bool, epoch: u64) -> Self {
        NeighborEntry {
            zone,
            last_heard: now,
            confirmed,
            epoch,
            gap_mean: 0.0,
            gap_var: 0.0,
            gaps: 0,
            face,
        }
    }

    /// First-hand contact at `now`: folds the inter-arrival gap into
    /// the link statistics, refreshes `last_heard` and confirms the
    /// entry. Returns whether this contact is what confirmed it.
    fn hear(&mut self, now: SimTime) -> bool {
        if self.confirmed && now > self.last_heard {
            self.record_gap(now - self.last_heard);
        }
        self.last_heard = self.last_heard.max(now);
        !std::mem::replace(&mut self.confirmed, true)
    }

    /// Folds one observed first-hand inter-arrival gap into the EWMA
    /// statistics.
    fn record_gap(&mut self, gap: f64) {
        if self.gaps == 0 {
            self.gap_mean = gap;
            self.gap_var = 0.0;
        } else {
            let d = gap - self.gap_mean;
            self.gap_mean += GAP_ALPHA * d;
            self.gap_var = (1.0 - GAP_ALPHA) * (self.gap_var + GAP_ALPHA * d * d);
        }
        self.gaps = self.gaps.saturating_add(1);
    }

    /// Per-link adaptive silence threshold: EWMA mean plus
    /// `SUSPICION_K_VAR` standard deviations, clamped to
    /// `[period * SUSPICION_K_MIN, cap]`. With fewer than 3 observed
    /// gaps the statistics are meaningless and the fixed cap applies.
    pub fn suspicion_timeout(&self, period: f64, cap: f64) -> f64 {
        if self.gaps < 3 {
            return cap;
        }
        (self.gap_mean + SUSPICION_K_VAR * self.gap_var.sqrt()).clamp(period * SUSPICION_K_MIN, cap)
    }
}

/// A full-state snapshot of a node: its zone plus its complete neighbor
/// table. Carried by vanilla heartbeats, by compact/adaptive heartbeats
/// to take-over targets, by full-update responses and by handoffs.
///
/// A payload is content only — no send time — because one allocation
/// is sent round after round for as long as the content stands (see
/// [`LocalNode::snapshot`]).
#[derive(Debug, Clone)]
pub struct Payload {
    /// The sender.
    pub from: NodeId,
    /// The sender's zone at snapshot time.
    pub zone: Zone,
    /// The sender's zone-ownership epoch at snapshot time.
    pub epoch: u64,
    /// The sender's neighbor table (ids and zones as the sender knew
    /// them — possibly already stale).
    pub neighbors: Vec<(NodeId, Zone)>,
}

/// The last full payload a node took from one sender, and how the
/// receiver stood when it merged it.
#[derive(Debug)]
struct CachedFull {
    payload: Rc<Payload>,
    /// The receiver's [`LocalNode::generation`] right after it merged
    /// `payload`'s records.
    merged_at: u64,
    /// The receiver's [`LocalNode::epoch`] at that merge. Every zone
    /// change raises the epoch, so while it reads the same the zone
    /// `abutting` was tested against is the receiver's zone.
    epoch: u64,
    /// Bit `i` is set iff record `i` of `payload` is another node whose
    /// zone abutted the receiver's at `epoch`: the only records a merge
    /// at that zone can insert. 0 for a payload of more than
    /// [`MASK_BITS`] records, which never reads it.
    abutting: u64,
}

/// The most records a [`CachedFull::abutting`] mask describes.
const MASK_BITS: usize = u64::BITS as usize;

/// A warm-standby copy of another node's zone state, held by one of its
/// take-over targets. Where the heartbeat cache
/// ([`LocalNode::cached_payload`]) keeps the owner's last *full
/// heartbeat* (refreshed wholesale whenever its content changes), a
/// replica is an explicitly versioned snapshot shipped incrementally:
/// the owner bumps `version` only when its replicated content actually
/// changed, and the heir acks each version back, so both sides know
/// exactly how fresh the standby copy is when a crash promotes it.
#[derive(Debug, Clone)]
pub struct ZoneReplica {
    /// The owner's zone at snapshot time.
    pub zone: Zone,
    /// The owner's zone-ownership epoch at snapshot time. A replica
    /// stamped below the owner's epoch at death describes pre-take-over
    /// geometry and must not be promoted (the epoch fence).
    pub epoch: u64,
    /// The owner's replica version counter at snapshot time (monotone;
    /// bumped only on content change).
    pub version: u64,
    /// The owner's confirmed neighbor summary (ids and zones).
    pub neighbors: Vec<(NodeId, Zone)>,
    /// The zone-local slice of the scheduler aggregate, opaque to the
    /// CAN layer (bit-exact words fed by [`crate::CanSim::set_agg_slice`]).
    pub agg: Vec<u64>,
    /// When this copy was stored at the heir.
    pub stored_at: SimTime,
}

/// The wire form of a replica delta: what a [`ZoneReplica`] looks like
/// in flight, piggybacked on the owner's heartbeat round to each
/// take-over target whose acked version lags the current one.
#[derive(Debug, Clone)]
pub struct ReplicaPayload {
    /// The replicating owner.
    pub from: NodeId,
    /// The owner's zone at snapshot time.
    pub zone: Zone,
    /// The owner's zone-ownership epoch at snapshot time.
    pub epoch: u64,
    /// The owner's replica version counter at snapshot time.
    pub version: u64,
    /// The owner's confirmed neighbor summary.
    pub neighbors: Vec<(NodeId, Zone)>,
    /// The opaque zone-local aggregate slice.
    pub agg: Vec<u64>,
}

/// The local protocol state of one CAN member.
#[derive(Debug)]
pub struct LocalNode {
    /// This node's id.
    pub id: NodeId,
    /// This node's coordinate in the CAN space (fixed resource
    /// capabilities plus the random virtual coordinate).
    pub coord: Point,
    /// This node's current zone (updated locally on splits/take-overs).
    zone: Zone,
    /// The neighbor table — this node's possibly-stale view.
    table: IdMap<NeighborEntry>,
    /// Cached full-state payloads from nodes whose zone this node may
    /// have to take over (refreshed by their full heartbeats).
    cache: IdMap<CachedFull>,
    /// Set when this node's zone changed (join split it, or a take-over
    /// grew/moved it): the next heartbeat round carries the new zone to
    /// every neighbor rather than a bare keepalive.
    pub zone_dirty: bool,
    /// Adaptive scheme: set when a broken link has been detected
    /// locally (a neighbor expired without replacement information, or
    /// this node's zone changed); triggers a full-update request round.
    pub wants_full_update: bool,
    /// Neighbors pruned by the last zone change(s): they no longer abut
    /// *by our possibly-stale records*, but if that record was wrong
    /// they would otherwise keep a stale record of us forever (nothing
    /// else announces our new zone to them). The next zone-dirty round
    /// sends them the update too, then clears this list.
    pub zone_change_audience: Vec<NodeId>,
    /// This node's zone-ownership epoch. Bumped on every zone change
    /// (split, take-over, hand-off) so `(epoch, id)` totally orders
    /// competing ownership claims: a take-over heir always ends up with
    /// an epoch strictly above the expelled owner's, and a revived node
    /// seeing a higher epoch for its old zone knows its death was
    /// declared and its state is stale.
    epoch: u64,
    /// Warm-standby replicas of other nodes' zone state, keyed by
    /// owner: populated by versioned replica deltas when replication is
    /// armed. Unlike cached heartbeat payloads, replicas survive
    /// neighbor expiry — the heir must still hold the copy when the
    /// deferred take-over fires, well after the owner went silent.
    pub replicas: HashMap<NodeId, ZoneReplica>,
    /// This node's outgoing replica version counter: 0 until the first
    /// armed round publishes a snapshot, bumped on every content change
    /// after that.
    pub replica_version: u64,
    /// Content hash of the last published replica snapshot (0 = never
    /// computed); an unchanged hash keeps the version stable so
    /// steady-state rounds piggyback nothing.
    pub replica_hash: u64,
    /// The snapshot and the aggregate slice `replica_hash` was last
    /// computed from (see [`LocalNode::refresh_replica`]). Holding the
    /// snapshot keeps its address from being reused.
    replica_basis: Option<(Rc<Payload>, Vec<u64>)>,
    /// The `(replica_version, replica_hash)` a reference that re-hashes
    /// the replicated content from the table on every round holds.
    #[cfg(test)]
    pub(crate) replica_reference: (u64, u64),
    /// Highest replica version each take-over target has acked back.
    /// A target lagging the current version gets the delta re-sent
    /// every round — natural retransmission under loss.
    pub replica_acked: HashMap<NodeId, u64>,
    /// The zone-local slice of the scheduler aggregate this node
    /// replicates alongside its zone state — opaque bits owned by the
    /// layer above (see [`crate::CanSim::set_agg_slice`]).
    pub agg_slice: Vec<u64>,
    /// Suspicion ledger of the two-phase failure detector: suspects
    /// mapped to their expulsion deadline. Populated when a neighbor's
    /// silence crosses its per-link threshold; cleared by any
    /// first-hand contact or an indirect-probe vouch. Ordered map so
    /// iteration is deterministic.
    pub suspects: BTreeMap<NodeId, SimTime>,
    /// Memoized [`LocalNode::boundary_gap_sample`] result. The exact
    /// coverage recursion depends only on the own zone and the recorded
    /// neighbor zones, so the cache is invalidated by exactly the
    /// mutations that touch those (insert, remove, zone change) and
    /// liveness-only traffic (keepalives, refreshes) keeps it hot. The
    /// adaptive scheme queries the gap every tick; in steady state this
    /// turns an allocation + recursion into a field read.
    gap_cache: Option<Option<Point>>,
    /// Counts the mutations of what [`LocalNode::merge_records`] reads
    /// besides the records — the own zone and the table's key set (and,
    /// harmlessly, recorded-zone changes): bumped by
    /// [`LocalNode::touched`] and by nothing else. Two equal readings
    /// mean a payload merged at the first would merge to nothing at the
    /// second, and that the table holds the same ids.
    generation: u64,
    /// The full-state payload of the current content, built on first
    /// use and dropped by every mutation of what it holds: the zone,
    /// the epoch, and the confirmed entries' ids and zones.
    payload_memo: Option<Rc<Payload>>,
    /// The table's ids in ascending order as of generation `ids_at`
    /// (see [`LocalNode::known_neighbors_into`]).
    ids: Vec<NodeId>,
    ids_at: u64,
}

impl LocalNode {
    /// A fresh member with an empty table, claiming `zone` at `epoch`.
    pub fn new(id: NodeId, coord: Point, zone: Zone, epoch: u64) -> Self {
        LocalNode {
            id,
            coord,
            zone,
            table: IdMap::default(),
            cache: IdMap::default(),
            zone_dirty: false,
            wants_full_update: false,
            zone_change_audience: Vec::new(),
            replicas: HashMap::new(),
            replica_version: 0,
            replica_hash: 0,
            replica_basis: None,
            #[cfg(test)]
            replica_reference: (0, 0),
            replica_acked: HashMap::new(),
            agg_slice: Vec::new(),
            epoch,
            suspects: BTreeMap::new(),
            gap_cache: None,
            generation: 0,
            payload_memo: None,
            ids: Vec::new(),
            ids_at: 0,
        }
    }

    /// This node's current zone. Written only by
    /// [`LocalNode::set_zone_fenced`].
    #[inline]
    pub fn zone(&self) -> &Zone {
        &self.zone
    }

    /// This node's zone-ownership epoch. Written only by
    /// [`LocalNode::set_zone_fenced`].
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The neighbor table — this node's possibly-stale view. Read-only,
    /// entries included: every write goes through a method here that
    /// keeps the gap cache, the generation and the payload memo in
    /// step.
    #[inline]
    pub(crate) fn table(&self) -> &IdMap<NeighborEntry> {
        &self.table
    }

    /// The zone, a recorded zone or the table's key set changed: what
    /// was derived from them is void.
    fn touched(&mut self) {
        self.gap_cache = None;
        self.generation += 1;
        self.payload_memo = None;
    }

    /// Records `id` at `zone` without the abutment test — the H4
    /// sabotage of the invariant tests.
    #[cfg(test)]
    pub(crate) fn plant_record(&mut self, id: NodeId, zone: Zone) {
        self.table
            .insert(id, NeighborEntry::fresh(zone, 0, 0.0, false, 0));
        self.touched();
    }

    /// The last full payload taken from `from`, if it is still cached —
    /// what a crash take-over recovers the victim's neighborhood from.
    pub fn cached_payload(&self, from: NodeId) -> Option<Rc<Payload>> {
        self.cache.get(&from).map(|c| Rc::clone(&c.payload))
    }

    /// Drops the cached payload of `from` (its zone has a new owner).
    pub fn drop_cached_payload(&mut self, from: NodeId) {
        self.cache.remove(&from);
    }

    /// Stores (or refreshes) a warm-standby replica of `from`'s zone
    /// state. Fenced: an incoming snapshot whose `(epoch, version)` is
    /// lexicographically below the stored copy's is stale — a delayed
    /// or duplicated delta from before the owner's last content change
    /// — and must never roll the standby back. Returns whether the
    /// snapshot was accepted.
    pub fn store_replica(&mut self, from: NodeId, rep: ZoneReplica) -> bool {
        if let Some(existing) = self.replicas.get(&from) {
            if (rep.epoch, rep.version) < (existing.epoch, existing.version) {
                return false;
            }
        }
        self.replicas.insert(from, rep);
        true
    }

    /// Removes and returns the stored replica of `owner`'s zone state,
    /// if any — the promotion path of a crash take-over.
    pub fn take_replica(&mut self, owner: NodeId) -> Option<ZoneReplica> {
        self.replicas.remove(&owner)
    }

    /// Records first-hand contact from `from` owning `zone` — inserts
    /// or refreshes the entry if the zone abuts ours, removes it
    /// otherwise (the sender drifted away). Epoch-less variant of
    /// [`LocalNode::hear_fenced`] (epoch 0 never fences).
    pub fn hear_with_zone(&mut self, from: NodeId, zone: &Zone, now: SimTime) {
        self.hear_fenced(from, zone, 0, now);
    }

    /// Records first-hand, epoch-carrying contact. Any first-hand
    /// contact proves liveness: it refreshes `last_heard`, folds the
    /// observed inter-arrival gap into the per-link statistics, and
    /// absolves a pending suspicion. The *zone claim* is epoch-fenced:
    /// an announcement with a lower epoch than the recorded one (a
    /// not-yet-revived zombie re-announcing its seized zone) must not
    /// roll the record back, so only the liveness refresh applies.
    pub fn hear_fenced(&mut self, from: NodeId, zone: &Zone, epoch: u64, now: SimTime) {
        if from == self.id {
            return;
        }
        self.suspects.remove(&from);
        if let Some(e) = self.table.get_mut(&from) {
            if e.hear(now) {
                self.payload_memo = None; // the entry joins the snapshot
            }
            if epoch != 0 && epoch < e.epoch {
                return; // stale ownership claim: liveness only
            }
            e.epoch = e.epoch.max(epoch);
            if e.zone == *zone {
                // The steady state: the record already holds this zone,
                // which abuts ours across its face (H4), so there is
                // nothing to test, store or invalidate.
                debug_assert_eq!(
                    face_across(&self.zone, zone),
                    Some(e.face),
                    "{}: recorded zone of {} does not abut across its face",
                    self.id,
                    from
                );
            } else if let Some(face) = face_across(&self.zone, zone) {
                e.zone = zone.clone();
                e.face = face;
                self.touched();
            } else {
                self.table.remove(&from);
                self.touched();
            }
        } else if let Some(face) = face_across(&self.zone, zone) {
            self.table.insert(
                from,
                NeighborEntry::fresh(zone.clone(), face, now, true, epoch),
            );
            self.touched();
        }
    }

    /// Records a bare keepalive: refreshes `last_heard` if the sender
    /// is already known (a keepalive carries no zone, so an unknown
    /// sender cannot be added). Returns whether the sender was known —
    /// a keepalive from an unknown sender is ghost traffic (typically a
    /// node still heartbeating at neighbors that already expelled it)
    /// and the caller accounts it.
    pub fn hear_keepalive(&mut self, from: NodeId, now: SimTime) -> bool {
        self.suspects.remove(&from);
        if let Some(e) = self.table.get_mut(&from) {
            if e.hear(now) {
                self.payload_memo = None; // the entry joins the snapshot
            }
            true
        } else {
            false
        }
    }

    /// Records an indirect-probe vouch: a helper heard `suspect`
    /// (owning `zone` at `epoch`) at `heard_at`. Second-hand liveness —
    /// it absolves the suspicion and pushes `last_heard` forward to the
    /// voucher's observation, but does not feed the per-link gap
    /// statistics (they measure *our* link), does not confirm the
    /// entry, and does not roll the claim back past the recorded
    /// epoch. A suspect already expired here is re-seeded as an
    /// unconfirmed entry if its vouched zone abuts ours, so the link
    /// does not stay torn while the suspect is alive.
    pub fn hear_vouch(&mut self, suspect: NodeId, zone: &Zone, epoch: u64, heard_at: SimTime) {
        self.suspects.remove(&suspect);
        if let Some(e) = self.table.get_mut(&suspect) {
            if epoch >= e.epoch {
                e.last_heard = e.last_heard.max(heard_at);
                e.epoch = epoch;
            }
        } else if let Some(face) = face_across(&self.zone, zone) {
            self.insert_second_hand(suspect, zone, face, heard_at, epoch);
        }
    }

    /// Inserts an unconfirmed record of `m`, which the caller found
    /// missing from the table, owning `zone` across `face`. Every
    /// second-hand record enters here, after its abutment test: every
    /// recorded zone abuts the own zone (H4).
    fn insert_second_hand(
        &mut self,
        m: NodeId,
        zone: &Zone,
        face: usize,
        now: SimTime,
        epoch: u64,
    ) {
        debug_assert!(m != self.id && face_across(&self.zone, zone) == Some(face));
        self.table.insert(
            m,
            NeighborEntry::fresh(zone.clone(), face, now, false, epoch),
        );
        self.touched();
    }

    /// Merges second-hand neighbor records: unknown nodes whose
    /// advertised zone abuts ours are inserted (this is the vanilla
    /// CAN's broken-link repair path, Figure 2). Known entries are
    /// *not* refreshed — second-hand information must not keep a dead
    /// neighbor alive indefinitely. Returns how many entries were
    /// repaired (inserted).
    pub fn merge_records(&mut self, records: &[(NodeId, Zone)], now: SimTime) -> usize {
        let mut repaired = 0;
        for (m, mz) in records {
            if *m == self.id || self.table.contains_key(m) {
                continue;
            }
            if let Some(face) = face_across(&self.zone, mz) {
                self.insert_second_hand(*m, mz, face, now, 0);
                repaired += 1;
            }
        }
        repaired
    }

    /// Adopts neighbor records during a zone take-over (handoff payload
    /// or cached full heartbeat from the departed node). Unlike
    /// [`LocalNode::merge_records`], adoption also *refreshes* matching
    /// entries we already had: the departed node vouched for them just
    /// now, and expiring them before they can confirm first-hand would
    /// tear links the take-over is supposed to preserve. Existing
    /// first-hand zone knowledge is kept.
    pub fn adopt_records(&mut self, records: &[(NodeId, Zone)], now: SimTime) {
        for (m, mz) in records {
            if *m == self.id {
                continue;
            }
            if let Some(e) = self.table.get_mut(m) {
                e.last_heard = e.last_heard.max(now);
            } else if let Some(face) = face_across(&self.zone, mz) {
                self.insert_second_hand(*m, mz, face, now, 0);
            }
        }
    }

    /// Takes a full heartbeat: caches the payload, merges its
    /// second-hand records exactly as [`LocalNode::merge_records`]
    /// would, and hears the sender itself first-hand. Returns the
    /// repairs.
    ///
    /// A delivery re-examines only what changed since the last merge
    /// from the same sender. `merge_records` reads the own id, the own
    /// zone and the table's key set, and inserts every unknown record
    /// that abuts; so against the cached payload `c`:
    ///
    /// - (a) the *same allocation* (see [`LocalNode::snapshot`]) at
    ///   the generation `c` left: nothing changed and nothing is left
    ///   to insert, so the merge is skipped;
    /// - (b) the same allocation at the same epoch, hence the same
    ///   zone: only the records in `c`'s abutment mask can insert, and
    ///   only they are looked up;
    /// - (c) a new allocation at the same epoch: the mask is carried
    ///   over by an id merge-join with `c` (a record whose zone equals
    ///   its cached version keeps that record's bit), and only the
    ///   other records are tested for abutment;
    /// - (d) otherwise, or for a payload of more than [`MASK_BITS`]
    ///   records: every record is tested.
    ///
    /// Inserts happen in payload order whichever path runs, so the
    /// table, the `touched()` calls and the count are `merge_records`'.
    /// (The cache holds the allocation it compares against, so the
    /// address cannot have been reused.) The sender is heard every
    /// time — liveness is per delivery.
    pub fn merge_payload_records(&mut self, payload: &Rc<Payload>, now: SimTime) -> usize {
        let records = &payload.neighbors;
        let cached = self.cache.get(&payload.from);
        let same = cached.is_some_and(|c| Rc::ptr_eq(&c.payload, payload));
        let repaired = if same && cached.is_some_and(|c| c.merged_at == self.generation) {
            debug_assert!(
                records.iter().all(|(m, mz)| *m == self.id
                    || self.table.contains_key(m)
                    || !self.zone.abuts(mz)),
                "{}: skipped a merge from {} that would have inserted a record",
                self.id,
                payload.from
            );
            0
        } else if records.len() > MASK_BITS {
            let repaired = self.merge_records(records, now);
            self.cache_merged(payload, 0);
            repaired
        } else {
            let abutting = match cached {
                Some(c) if c.epoch == self.epoch && same => c.abutting,
                Some(c) if c.epoch == self.epoch && c.payload.neighbors.len() <= MASK_BITS => {
                    self.carry_mask(&c.payload.neighbors, c.abutting, records)
                }
                _ => self.abut_mask(records),
            };
            debug_assert_eq!(
                abutting,
                self.abut_mask(records),
                "{}: stale abutment mask for the payload of {}",
                self.id,
                payload.from
            );
            let repaired = self.merge_masked(records, abutting, now);
            self.cache_merged(payload, abutting);
            repaired
        };
        self.hear_fenced(payload.from, &payload.zone, payload.epoch, now);
        repaired
    }

    /// Caches `payload` as merged just now, with its abutment mask.
    fn cache_merged(&mut self, payload: &Rc<Payload>, abutting: u64) {
        self.cache.insert(
            payload.from,
            CachedFull {
                payload: Rc::clone(payload),
                merged_at: self.generation,
                epoch: self.epoch,
                abutting,
            },
        );
    }

    /// The abutment mask of at most [`MASK_BITS`] records, tested one
    /// by one: bit `i` set iff record `i` is another node whose zone
    /// abuts ours.
    fn abut_mask(&self, records: &[(NodeId, Zone)]) -> u64 {
        records.iter().enumerate().fold(0, |mask, (i, (m, mz))| {
            mask | u64::from(*m != self.id && self.zone.abuts(mz)) << i
        })
    }

    /// [`LocalNode::abut_mask`] of `records`, given the mask `old_mask`
    /// of `old` at the same zone. Both lists run in ascending id (as
    /// snapshots do), so one pass pairs each record with its previous
    /// version; a record whose zone equals that version's keeps its
    /// bit, and only the rest are tested. Out-of-order or repeated ids
    /// only lose pairings: a bit is carried over only from a record
    /// with the same id and the same zone, whose bit is the same.
    fn carry_mask(&self, old: &[(NodeId, Zone)], old_mask: u64, records: &[(NodeId, Zone)]) -> u64 {
        let mut j = 0;
        records.iter().enumerate().fold(0, |mask, (i, (m, mz))| {
            while old.get(j).is_some_and(|(o, _)| o < m) {
                j += 1;
            }
            let abuts = match old.get(j) {
                Some((o, oz)) if o == m && oz == mz => old_mask >> j & 1 == 1,
                _ => *m != self.id && self.zone.abuts(mz),
            };
            mask | u64::from(abuts) << i
        })
    }

    /// Inserts, in order, every record of `records` whose bit is set in
    /// `abutting` (its abutment mask at the own zone) and which the
    /// table lacks: [`LocalNode::merge_records`] with the abutment
    /// tests already done. Only a record that is inserted has its face
    /// found.
    fn merge_masked(
        &mut self,
        records: &[(NodeId, Zone)],
        mut abutting: u64,
        now: SimTime,
    ) -> usize {
        let mut repaired = 0;
        while abutting != 0 {
            let (m, mz) = &records[abutting.trailing_zeros() as usize];
            abutting &= abutting - 1;
            if !self.table.contains_key(m) {
                let face = face_across(&self.zone, mz).expect("a masked record abuts");
                self.insert_second_hand(*m, mz, face, now, 0);
                repaired += 1;
            }
        }
        repaired
    }

    /// Allocation-free equivalent of building `resp.snapshot(now)` and
    /// merging it via [`LocalNode::merge_records`]: reads the
    /// responder's confirmed records straight out of its table, cloning
    /// a zone only when an entry is actually inserted (record order is
    /// unobservable: the inserts land in a map). The synchronous
    /// full-update exchange is the one place both endpoints are in hand
    /// at once, so no payload needs to be materialized.
    pub fn merge_from_node(&mut self, resp: &LocalNode, now: SimTime) -> usize {
        let mut repaired = 0;
        for (m, e) in resp.table.iter().filter(|(_, e)| e.confirmed) {
            if *m == self.id || self.table.contains_key(m) {
                continue;
            }
            if let Some(face) = face_across(&self.zone, &e.zone) {
                self.insert_second_hand(*m, &e.zone, face, now, 0);
                repaired += 1;
            }
        }
        self.hear_fenced(resp.id, &resp.zone, resp.epoch, now);
        repaired
    }

    /// Drops entries not heard from within `timeout`; returns the
    /// expired `(id, entry)` pairs. Also forgets their cached payloads.
    pub fn expire(&mut self, now: SimTime, timeout: f64) -> Vec<(NodeId, NeighborEntry)> {
        let ids: Vec<NodeId> = self
            .table
            .iter()
            .filter(|(_, e)| now - e.last_heard > timeout)
            .map(|(id, _)| *id)
            .collect();
        if !ids.is_empty() {
            self.touched();
        }
        ids.into_iter()
            .map(|id| {
                self.cache.remove(&id);
                let e = self.table.remove(&id).expect("entry present");
                (id, e)
            })
            .collect()
    }

    /// Exact check that the region a departed/expired neighbor used to
    /// cover (as far as this node's boundary is concerned) is covered
    /// by the remaining table entries, evaluated half-way into the
    /// departed zone — under the split-tree take-over discipline the
    /// inheriting zones always reach that depth.
    ///
    /// Returns `false` (a suspected broken link) when some part of the
    /// region is covered by no known neighbor. This is the *local
    /// detection* that triggers the adaptive scheme's full-update
    /// request; routine expiries whose region is already re-covered
    /// stay silent. Only the recorded zones across the departed zone's
    /// face are handed to the recursion: by H4 no other recorded zone
    /// meets the region (DESIGN §11).
    pub fn covers_face_region(&self, departed_zone: &Zone) -> bool {
        let Some(face) = face_across(&self.zone, departed_zone) else {
            return true; // no longer on our boundary: nothing to cover
        };
        let mut across: Vec<(NodeId, &Zone)> = self
            .table
            .iter()
            .filter(|(_, e)| e.face == face)
            .map(|(id, e)| (*id, &e.zone))
            .collect();
        across.sort_unstable_by_key(|(id, _)| *id);
        let zones: Vec<&Zone> = across.into_iter().map(|(_, z)| z).collect();
        let covered = self.face_region_covered(departed_zone, face / 2, &zones);
        debug_assert_eq!(
            covered,
            self.covers_face_region_reference(departed_zone),
            "{}: the zones across face {face} decide its region otherwise than all zones",
            self.id
        );
        covered
    }

    /// [`LocalNode::covers_face_region`] handing the recursion every
    /// recorded zone: the reference the face-bucketed form is held to.
    fn covers_face_region_reference(&self, departed_zone: &Zone) -> bool {
        match self.zone.abut_dim(departed_zone) {
            Some((d0, _)) => self.face_region_covered(departed_zone, d0, &self.sorted_zones()),
            None => true,
        }
    }

    /// Whether `zones` cover the region `departed_zone` (abutting the
    /// own zone along `d0`) leaves on our boundary: the overlap of the
    /// two zones in every free dim, pinned half-way into the departed
    /// zone in `d0`.
    fn face_region_covered(&self, departed_zone: &Zone, d0: usize, zones: &[&Zone]) -> bool {
        let dims = self.zone.dims();
        let mut lo: Vec<f64> = (0..dims)
            .map(|d| self.zone.lo(d).max(departed_zone.lo(d)))
            .collect();
        let mut hi: Vec<f64> = (0..dims)
            .map(|d| self.zone.hi(d).min(departed_zone.hi(d)))
            .collect();
        debug_assert!(
            (0..dims).all(|d| d == d0 || hi[d] > lo[d]),
            "abutting zones overlap positively"
        );
        let depth = 0.5 * (departed_zone.lo(d0) + departed_zone.hi(d0));
        lo[d0] = depth;
        hi[d0] = depth;
        uncovered_point(&mut lo, &mut hi, d0, zones).is_none()
    }

    /// Exact check for uncovered regions anywhere on this node's own
    /// boundary (the adaptive scheme's level-triggered gap detector).
    /// Faces on the CAN domain boundary (0 or 1) have no outside and
    /// are skipped.
    pub fn has_boundary_gap(&self) -> bool {
        self.boundary_gap_sample().is_some()
    }

    /// Memoized [`LocalNode::has_boundary_gap`] for the protocol's
    /// per-tick hot path. Returns exactly what the uncached check
    /// would: every coverage-relevant mutation clears the cache, so a
    /// hit can only replay a result the exact recursion computed for
    /// this same (zone, table) state.
    pub fn has_boundary_gap_cached(&mut self) -> bool {
        self.boundary_gap_sample_cached().is_some()
    }

    /// Memoized [`LocalNode::boundary_gap_sample`] (see
    /// [`LocalNode::has_boundary_gap_cached`]).
    pub fn boundary_gap_sample_cached(&mut self) -> Option<Point> {
        if let Some(cached) = &self.gap_cache {
            return cached.clone();
        }
        let p = self.boundary_gap_sample();
        self.gap_cache = Some(p.clone());
        p
    }

    /// Like [`LocalNode::has_boundary_gap`], but returns a point inside
    /// the first uncovered region just outside the zone — the routed
    /// gap probe's target. Coverage is decided exactly: each face is
    /// split along the boundaries of the recorded zones that reach it,
    /// so a gap is found no matter how small a fraction of the face it
    /// occupies (coarser point-sampling provably misses slivers, which
    /// then never heal). Each face is handed only the recorded zones
    /// across it: by H4 no other recorded zone meets its outside
    /// (DESIGN §11).
    pub fn boundary_gap_sample(&self) -> Option<Point> {
        let mut rows: Vec<(usize, NodeId, &Zone)> = self
            .table
            .iter()
            .map(|(id, e)| (e.face, *id, &e.zone))
            .collect();
        rows.sort_unstable_by_key(|&(face, id, _)| (face, id));
        let zones: Vec<&Zone> = rows.iter().map(|&(_, _, z)| z).collect();
        let p = self.first_gap(|face| {
            let start = rows.partition_point(|r| r.0 < face);
            let end = rows.partition_point(|r| r.0 <= face);
            &zones[start..end]
        });
        debug_assert_eq!(
            p,
            self.boundary_gap_sample_reference(),
            "{}: the zones across each face find another gap than all zones",
            self.id
        );
        p
    }

    /// [`LocalNode::boundary_gap_sample`] handing the recursion every
    /// recorded zone on every face: the reference the face-bucketed
    /// form is held to.
    fn boundary_gap_sample_reference(&self) -> Option<Point> {
        let zones = self.sorted_zones();
        self.first_gap(|_| zones.as_slice())
    }

    /// The first point just outside the own zone that the zones
    /// `across(face)` leave uncovered, faces in [`face_across`] order;
    /// a face on the domain edge has no outside and is skipped.
    fn first_gap<'z>(&self, across: impl Fn(usize) -> &'z [&'z Zone]) -> Option<Point> {
        const EPS: f64 = 1e-9;
        let dims = self.zone.dims();
        for face in 0..2 * dims {
            let d0 = face / 2;
            let (boundary, outside) = if face % 2 == 0 {
                (self.zone.lo(d0), self.zone.lo(d0) - EPS)
            } else {
                (self.zone.hi(d0), self.zone.hi(d0) + EPS)
            };
            if boundary <= 0.0 || boundary >= 1.0 {
                continue; // domain edge: no neighbor possible
            }
            let mut lo: Vec<f64> = (0..dims).map(|d| self.zone.lo(d)).collect();
            let mut hi: Vec<f64> = (0..dims).map(|d| self.zone.hi(d)).collect();
            lo[d0] = outside;
            hi[d0] = outside;
            if let Some(p) = uncovered_point(&mut lo, &mut hi, d0, across(face)) {
                return Some(p);
            }
        }
        None
    }

    /// Recorded zones in ascending id order — the table is a `HashMap`,
    /// and the coverage recursion's *choice* of split planes (hence the
    /// exact gap point returned) must not depend on iteration order.
    fn sorted_zones(&self) -> Vec<&Zone> {
        let mut v: Vec<(&NodeId, &Zone)> = self.table.iter().map(|(id, e)| (id, &e.zone)).collect();
        v.sort_by_key(|(id, _)| **id);
        v.into_iter().map(|(_, z)| z).collect()
    }

    /// Installs a new zone after a split or take-over: prunes table
    /// entries that (by our own knowledge) no longer abut, records the
    /// face each kept entry now abuts across, and marks
    /// the zone dirty so the next round advertises it. Pruned ids are
    /// remembered in [`LocalNode::zone_change_audience`] so the
    /// announcement also reaches them — our record of *their* zone may
    /// have been the stale one, and a peer that never hears the change
    /// keeps a stale record of us indefinitely.
    pub fn set_zone(&mut self, zone: Zone) {
        self.set_zone_fenced(zone, 0);
    }

    /// [`LocalNode::set_zone`] for a take-over: the new claim's epoch
    /// clears `fence` — every claim a previous owner of any part of the
    /// zone ever made — as well as this node's own last claim.
    pub fn set_zone_fenced(&mut self, zone: Zone, fence: u64) {
        self.zone = zone;
        self.epoch = self.epoch.max(fence) + 1;
        let own = self.zone.clone();
        let mut pruned = Vec::new();
        self.table.retain(|id, e| match face_across(&own, &e.zone) {
            Some(face) => {
                e.face = face;
                true
            }
            None => {
                pruned.push(*id);
                false
            }
        });
        pruned.sort_unstable(); // retain() walks a HashMap: order it
        self.zone_change_audience.extend(pruned);
        self.zone_dirty = true;
        self.touched();
    }

    /// Removes `id` from the table (take-over cleanup, targeted
    /// repair). All external table removals route through here so the
    /// gap cache can never go stale.
    pub fn forget(&mut self, id: NodeId) {
        if self.table.remove(&id).is_some() {
            self.touched();
        }
    }

    /// Clears the whole table (relocation: the node leaves its old
    /// neighborhood entirely). Cached payloads and standby replicas go
    /// with it — they were held for owners near the *old* position,
    /// whose take-over plans no longer name this node — and so do the
    /// acks collected for the old position's replica, forcing a fresh
    /// delta to the new position's targets.
    pub fn forget_all(&mut self) {
        if !self.table.is_empty() {
            self.touched();
        }
        self.table.clear();
        self.cache.clear();
        self.replicas.clear();
        self.replica_acked.clear();
    }

    /// Snapshot of this node's full state for a heartbeat/handoff.
    ///
    /// Only *confirmed* (first-hand) entries are advertised: forwarding
    /// second-hand records would let a frozen record of a departed or
    /// shrunk zone propagate epidemically between tables, resurrecting
    /// faster than expiry can retire it.
    ///
    /// Built once per content change: until the zone, the epoch, or a
    /// confirmed entry's presence or zone changes, every call returns
    /// the same allocation — which is also how a receiver recognizes a
    /// payload it has already merged
    /// ([`LocalNode::merge_payload_records`]). The records run in
    /// ascending id, so a receiver pairs two versions in one pass.
    pub fn snapshot(&mut self) -> Rc<Payload> {
        if let Some(memo) = &self.payload_memo {
            return Rc::clone(memo);
        }
        let mut neighbors: Vec<(NodeId, Zone)> = self
            .table
            .iter()
            .filter(|(_, e)| e.confirmed)
            .map(|(id, e)| (*id, e.zone.clone()))
            .collect();
        neighbors.sort_unstable_by_key(|(id, _)| *id);
        let payload = Rc::new(Payload {
            from: self.id,
            zone: self.zone.clone(),
            epoch: self.epoch,
            neighbors,
        });
        self.payload_memo = Some(Rc::clone(&payload));
        payload
    }

    /// Ids currently in the table (sorted, for deterministic
    /// iteration when sending messages).
    pub fn known_neighbors(&self) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self.table.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Allocation-free [`LocalNode::known_neighbors`]: fills `out`
    /// (cleared first) with the sorted table ids, reusing its capacity.
    /// The ids are collected and sorted once per table generation —
    /// every change of the key set bumps it — and copied otherwise.
    pub fn known_neighbors_into(&mut self, out: &mut Vec<NodeId>) {
        if self.ids_at != self.generation {
            self.ids.clear();
            self.ids.extend(self.table.keys().copied());
            self.ids.sort_unstable();
            self.ids_at = self.generation;
        } else {
            debug_assert_eq!(
                self.ids,
                self.known_neighbors(),
                "{}: stale id list",
                self.id
            );
        }
        out.clear();
        out.extend_from_slice(&self.ids);
    }

    /// Brings [`LocalNode::replica_version`] up to date with the
    /// replicated content — the zone, the epoch, the first
    /// [`REPLICA_MAX_NEIGHBORS`] confirmed records in id order and the aggregate
    /// slice — and returns the snapshot holding those records.
    ///
    /// The content is hashed only when the snapshot allocation or the
    /// aggregate slice differs from the pair last hashed: the
    /// allocation stands only while the zone, the epoch and the
    /// confirmed ids and zones do ([`LocalNode::snapshot`]), and the
    /// pair holds it, so its address is not reused. The version moves
    /// when the hash does.
    pub(crate) fn refresh_replica(&mut self) -> Rc<Payload> {
        let snap = self.snapshot();
        let hashed = self
            .replica_basis
            .as_ref()
            .is_some_and(|(p, agg)| Rc::ptr_eq(p, &snap) && *agg == self.agg_slice);
        if hashed {
            debug_assert_eq!(
                self.replica_hash,
                self.replica_hash_scratch(),
                "{}: stale replica hash",
                self.id
            );
            return snap;
        }
        let nbrs = &snap.neighbors[..snap.neighbors.len().min(REPLICA_MAX_NEIGHBORS)];
        let hash = replica_hash(&snap.zone, snap.epoch, nbrs, &self.agg_slice);
        if self.replica_version == 0 || hash != self.replica_hash {
            self.replica_version += 1;
            self.replica_hash = hash;
        }
        self.replica_basis = Some((Rc::clone(&snap), self.agg_slice.clone()));
        snap
    }

    /// The replica content hash read straight off the table: what
    /// [`LocalNode::refresh_replica`] would hash, with no snapshot.
    pub(crate) fn replica_hash_scratch(&self) -> u64 {
        let mut nbrs: Vec<(NodeId, Zone)> = self
            .table
            .iter()
            .filter(|(_, e)| e.confirmed)
            .map(|(&p, e)| (p, e.zone.clone()))
            .collect();
        nbrs.sort_unstable_by_key(|(p, _)| *p);
        nbrs.truncate(REPLICA_MAX_NEIGHBORS);
        replica_hash(&self.zone, self.epoch, &nbrs, &self.agg_slice)
    }
}

/// Lower clamp of the adaptive suspicion threshold, in heartbeat
/// periods: a link is never suspected faster than this. Armed either
/// way, it is also the floor `ProtocolConfig::validate` holds the fail
/// timeout above.
pub(crate) const SUSPICION_K_MIN: f64 = 1.5;
/// Standard deviations of the learned heartbeat gap the adaptive
/// suspicion threshold allows above its mean.
const SUSPICION_K_VAR: f64 = 4.0;

/// Cap on the neighbor summary one replica delta carries (sorted by id,
/// then truncated): comfortably above any realistic CAN neighbor
/// degree.
pub(crate) const REPLICA_MAX_NEIGHBORS: usize = 64;

/// FNV-1a over what a replica delta carries: the owner's zone and
/// epoch, its neighbor summary and its aggregate slice.
fn replica_hash(zone: &Zone, epoch: u64, nbrs: &[(NodeId, Zone)], agg: &[u64]) -> u64 {
    let mut h = Fnv::new();
    for d in 0..zone.dims() {
        h.write_f64(zone.lo(d));
        h.write_f64(zone.hi(d));
    }
    h.write_u64(epoch);
    h.write_usize(nbrs.len());
    for (p, z) in nbrs {
        h.write_u64(u64::from(p.0));
        for d in 0..z.dims() {
            h.write_f64(z.lo(d));
            h.write_f64(z.hi(d));
        }
    }
    h.write_usize(agg.len());
    for &w in agg {
        h.write_u64(w);
    }
    h.finish()
}

/// Exact coverage test of an axis-aligned region (degenerate — a single
/// coordinate — in dim `d0`) against a union of zones: returns a point
/// of the region no zone contains, or `None` when fully covered.
///
/// Classic recursive splitting: a zone that covers the whole region
/// settles it; a zone that meets the region without covering it must
/// have a bound strictly inside, and the region is split there and both
/// halves decided independently; a region no zone meets is a gap, and
/// its center is returned. Termination: every split plane is a zone
/// bound, so the recursion explores at most the (finite) arrangement of
/// zone bounds restricted to the region — in a CAN face tiling that is
/// roughly one cell per neighbor sharing the face.
fn uncovered_point(lo: &mut [f64], hi: &mut [f64], d0: usize, zones: &[&Zone]) -> Option<Vec<f64>> {
    if let Some(&z) = zones.iter().find(|z| zone_meets_region(z, lo, hi, d0)) {
        if zone_covers_region(z, lo, hi, d0) {
            return None;
        }
        for j in (0..lo.len()).filter(|&j| j != d0) {
            for cut in [z.lo(j), z.hi(j)] {
                if lo[j] < cut && cut < hi[j] {
                    let (olo, ohi) = (lo[j], hi[j]);
                    hi[j] = cut;
                    let below = uncovered_point(lo, hi, d0, zones);
                    hi[j] = ohi;
                    if below.is_some() {
                        return below;
                    }
                    lo[j] = cut;
                    let above = uncovered_point(lo, hi, d0, zones);
                    lo[j] = olo;
                    return above;
                }
            }
        }
        // meets ∧ ¬covers guarantees a strict interior cut in some
        // free dim; bounds are compared exactly, so this is unreachable.
        unreachable!("zone meets region without covering or cutting it");
    }
    Some(
        (0..lo.len())
            .map(|j| {
                if j == d0 {
                    lo[j]
                } else {
                    0.5 * (lo[j] + hi[j])
                }
            })
            .collect(),
    )
}

/// Whether `z` contains the entire region (see [`uncovered_point`]).
fn zone_covers_region(z: &Zone, lo: &[f64], hi: &[f64], d0: usize) -> bool {
    (0..lo.len()).all(|j| {
        if j == d0 {
            z.lo(j) <= lo[j] && lo[j] < z.hi(j)
        } else {
            z.lo(j) <= lo[j] && hi[j] <= z.hi(j)
        }
    })
}

/// Whether `z` overlaps the region with positive extent in every free
/// dim (and contains its pinned coordinate in `d0`).
fn zone_meets_region(z: &Zone, lo: &[f64], hi: &[f64], d0: usize) -> bool {
    (0..lo.len()).all(|j| {
        if j == d0 {
            z.lo(j) <= lo[j] && lo[j] < z.hi(j)
        } else {
            z.lo(j) < hi[j] && lo[j] < z.hi(j)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn z(lo: &[f64], hi: &[f64]) -> Zone {
        Zone::from_bounds(lo.to_vec(), hi.to_vec())
    }

    fn node() -> LocalNode {
        // Owns the left half of the unit square.
        LocalNode::new(NodeId(0), vec![0.2, 0.5], z(&[0.0, 0.0], &[0.5, 1.0]), 1)
    }

    #[test]
    fn replica_hash_covers_the_first_records_up_to_the_cap() {
        // More abutting neighbors than a replica summary carries: slabs
        // of the right half, stacked along y.
        let k = REPLICA_MAX_NEIGHBORS + 6;
        let mut n = node();
        for i in 0..k {
            let (lo, hi) = (i as f64 / k as f64, (i + 1) as f64 / k as f64);
            n.hear_with_zone(NodeId(1 + i as u32), &z(&[0.5, lo], &[1.0, hi]), 10.0);
        }
        n.refresh_replica();
        let version = n.replica_version;
        assert_eq!(n.replica_hash, n.replica_hash_scratch());
        // A record past the cap moves neither the hash nor the version…
        n.forget(NodeId(k as u32));
        n.refresh_replica();
        assert_eq!(n.replica_version, version);
        assert_eq!(n.replica_hash, n.replica_hash_scratch());
        // …one inside it moves both.
        n.forget(NodeId(1));
        n.refresh_replica();
        assert_eq!(n.replica_version, version + 1);
        assert_eq!(n.replica_hash, n.replica_hash_scratch());
    }

    #[test]
    fn hear_with_abutting_zone_inserts() {
        let mut n = node();
        n.hear_with_zone(NodeId(1), &z(&[0.5, 0.0], &[1.0, 1.0]), 10.0);
        assert!(n.table.contains_key(&NodeId(1)));
        assert_eq!(n.table[&NodeId(1)].last_heard, 10.0);
    }

    #[test]
    fn hear_with_non_abutting_zone_removes() {
        let mut n = node();
        n.hear_with_zone(NodeId(1), &z(&[0.5, 0.0], &[1.0, 1.0]), 10.0);
        // Node 1's zone shrank away from us.
        n.hear_with_zone(NodeId(1), &z(&[0.7, 0.0], &[1.0, 1.0]), 20.0);
        assert!(!n.table.contains_key(&NodeId(1)));
    }

    #[test]
    fn keepalive_refreshes_but_cannot_insert() {
        let mut n = node();
        n.hear_keepalive(NodeId(1), 5.0);
        assert!(n.table.is_empty());
        n.hear_with_zone(NodeId(1), &z(&[0.5, 0.0], &[1.0, 1.0]), 10.0);
        n.hear_keepalive(NodeId(1), 30.0);
        assert_eq!(n.table[&NodeId(1)].last_heard, 30.0);
    }

    #[test]
    fn own_id_is_never_inserted() {
        let mut n = node();
        n.hear_with_zone(NodeId(0), &z(&[0.5, 0.0], &[1.0, 1.0]), 10.0);
        assert!(n.table.is_empty());
    }

    #[test]
    fn payload_merge_repairs_missing_links() {
        let mut n = node();
        // Sender 1 abuts us; its payload mentions node 2 whose zone
        // also abuts us — the Figure 2 repair path.
        let payload = Rc::new(Payload {
            from: NodeId(1),
            zone: z(&[0.5, 0.0], &[1.0, 0.5]),
            epoch: 1,
            neighbors: vec![
                (NodeId(2), z(&[0.5, 0.5], &[1.0, 1.0])),
                (NodeId(3), z(&[0.9, 0.9], &[1.0, 1.0])), // does not abut us
                (NodeId(0), z(&[0.0, 0.0], &[0.5, 1.0])), // ourselves
            ],
        });
        let repaired = n.merge_payload_records(&payload, 40.0);
        assert_eq!(repaired, 1);
        assert!(n.table.contains_key(&NodeId(1)), "sender inserted");
        assert!(n.table.contains_key(&NodeId(2)), "link repaired");
        assert!(!n.table.contains_key(&NodeId(3)));
        assert!(!n.table.contains_key(&NodeId(0)));
    }

    #[test]
    fn payload_merge_does_not_refresh_existing_entries() {
        let mut n = node();
        n.hear_with_zone(NodeId(2), &z(&[0.5, 0.5], &[1.0, 1.0]), 10.0);
        let payload = Rc::new(Payload {
            from: NodeId(1),
            zone: z(&[0.5, 0.0], &[1.0, 0.5]),
            epoch: 1,
            neighbors: vec![(NodeId(2), z(&[0.5, 0.5], &[1.0, 1.0]))],
        });
        n.merge_payload_records(&payload, 100.0);
        assert_eq!(
            n.table[&NodeId(2)].last_heard,
            10.0,
            "second-hand info must not refresh liveness"
        );
    }

    #[test]
    fn expiry_drops_silent_neighbors() {
        let mut n = node();
        n.hear_with_zone(NodeId(1), &z(&[0.5, 0.0], &[1.0, 0.5]), 0.0);
        n.hear_with_zone(NodeId(2), &z(&[0.5, 0.5], &[1.0, 1.0]), 100.0);
        let expired = n.expire(160.0, 150.0);
        assert_eq!(expired.len(), 1);
        assert_eq!(expired[0].0, NodeId(1));
        assert!(expired[0].1.confirmed);
        assert!(n.table.contains_key(&NodeId(2)));
    }

    #[test]
    fn set_zone_prunes_and_marks_dirty() {
        let mut n = node();
        n.hear_with_zone(NodeId(1), &z(&[0.5, 0.0], &[1.0, 0.5]), 0.0);
        n.hear_with_zone(NodeId(2), &z(&[0.5, 0.5], &[1.0, 1.0]), 0.0);
        // Shrink to the bottom-left quadrant: node 2 no longer abuts.
        n.set_zone(z(&[0.0, 0.0], &[0.5, 0.5]));
        assert!(n.zone_dirty);
        assert!(n.table.contains_key(&NodeId(1)));
        assert!(!n.table.contains_key(&NodeId(2)));
    }

    #[test]
    fn snapshot_round_trips_table() {
        let mut n = node();
        n.hear_with_zone(NodeId(1), &z(&[0.5, 0.0], &[1.0, 0.5]), 0.0);
        let snap = n.snapshot();
        assert_eq!(snap.from, NodeId(0));
        assert_eq!(snap.neighbors.len(), 1);
        assert_eq!(snap.neighbors[0].0, NodeId(1));
    }

    #[test]
    fn keepalive_from_unknown_sender_is_reported() {
        let mut n = node();
        assert!(!n.hear_keepalive(NodeId(9), 5.0), "unknown sender");
        n.hear_with_zone(NodeId(9), &z(&[0.5, 0.0], &[1.0, 1.0]), 10.0);
        assert!(n.hear_keepalive(NodeId(9), 20.0), "known sender");
    }

    #[test]
    fn first_hand_gaps_feed_the_link_statistics() {
        let mut n = node();
        let zn = z(&[0.5, 0.0], &[1.0, 1.0]);
        n.hear_with_zone(NodeId(1), &zn, 0.0);
        for t in [60.0, 120.0, 180.0, 240.0] {
            n.hear_keepalive(NodeId(1), t);
        }
        let e = &n.table[&NodeId(1)];
        assert_eq!(e.gaps, 4);
        assert!((e.gap_mean - 60.0).abs() < 1e-9, "steady 60 s cadence");
        assert!(e.gap_var < 1e-9);
        // Stable link: threshold clamps to the floor, far below the cap.
        let th = e.suspicion_timeout(60.0, 150.0);
        assert!((th - 90.0).abs() < 1e-9, "clamped to 1.5 periods, got {th}");
        // Too few samples: the cap applies.
        let mut fresh = node();
        fresh.hear_with_zone(NodeId(1), &zn, 0.0);
        assert_eq!(
            fresh.table[&NodeId(1)].suspicion_timeout(60.0, 150.0),
            150.0
        );
    }

    #[test]
    fn lower_epoch_zone_claim_is_fenced_but_counts_as_liveness() {
        let mut n = node();
        let old = z(&[0.5, 0.0], &[1.0, 0.5]);
        let grown = z(&[0.5, 0.0], &[1.0, 1.0]);
        n.hear_fenced(NodeId(1), &old, 3, 10.0);
        // The heir announces its grown zone at a higher epoch...
        n.hear_fenced(NodeId(1), &grown, 5, 20.0);
        assert_eq!(n.table[&NodeId(1)].zone, grown);
        // ...then a stale claim at the old epoch arrives late: liveness
        // refreshes, the zone does not roll back.
        n.hear_fenced(NodeId(1), &old, 3, 30.0);
        assert_eq!(n.table[&NodeId(1)].zone, grown, "fenced");
        assert_eq!(n.table[&NodeId(1)].last_heard, 30.0);
        assert_eq!(n.table[&NodeId(1)].epoch, 5);
    }

    #[test]
    fn first_hand_contact_absolves_suspicion() {
        let mut n = node();
        n.hear_with_zone(NodeId(1), &z(&[0.5, 0.0], &[1.0, 1.0]), 0.0);
        n.suspects.insert(NodeId(1), 200.0);
        n.hear_keepalive(NodeId(1), 90.0);
        assert!(n.suspects.is_empty(), "contact clears suspicion");
    }

    #[test]
    fn set_zone_bumps_epoch() {
        let mut n = node();
        assert_eq!(n.epoch, 1);
        n.set_zone(z(&[0.0, 0.0], &[0.5, 0.5]));
        assert_eq!(n.epoch, 2);
    }

    #[test]
    fn known_neighbors_sorted() {
        let mut n = node();
        n.hear_with_zone(NodeId(5), &z(&[0.5, 0.0], &[1.0, 0.3]), 0.0);
        n.hear_with_zone(NodeId(1), &z(&[0.5, 0.3], &[1.0, 0.6]), 0.0);
        n.hear_with_zone(NodeId(3), &z(&[0.5, 0.6], &[1.0, 1.0]), 0.0);
        assert_eq!(n.known_neighbors(), vec![NodeId(1), NodeId(3), NodeId(5)]);
    }

    #[test]
    fn known_neighbors_into_matches_allocating_form() {
        let mut n = node();
        n.hear_with_zone(NodeId(5), &z(&[0.5, 0.0], &[1.0, 0.3]), 0.0);
        n.hear_with_zone(NodeId(1), &z(&[0.5, 0.3], &[1.0, 0.6]), 0.0);
        let mut out = vec![NodeId(99), NodeId(98)]; // stale scratch
        n.known_neighbors_into(&mut out);
        assert_eq!(out, n.known_neighbors());
        n.hear_with_zone(NodeId(3), &z(&[0.5, 0.6], &[1.0, 1.0]), 0.0);
        n.known_neighbors_into(&mut out);
        assert_eq!(out, vec![NodeId(1), NodeId(3), NodeId(5)]);
    }

    fn replica(epoch: u64, version: u64) -> ZoneReplica {
        ZoneReplica {
            zone: z(&[0.5, 0.0], &[1.0, 1.0]),
            epoch,
            version,
            neighbors: vec![(NodeId(7), z(&[0.0, 0.0], &[0.5, 1.0]))],
            agg: vec![3, 1, 4],
            stored_at: 60.0,
        }
    }

    #[test]
    fn replica_store_fences_stale_epoch_and_version() {
        let mut n = node();
        assert!(n.store_replica(NodeId(1), replica(2, 5)));
        // Same epoch, older version: a delayed duplicate — rejected.
        assert!(!n.store_replica(NodeId(1), replica(2, 4)));
        assert_eq!(n.replicas[&NodeId(1)].version, 5);
        // Lower epoch entirely: pre-take-over geometry — rejected even
        // at a (meaningless across epochs) higher version counter.
        assert!(!n.store_replica(NodeId(1), replica(1, 9)));
        // Fresher content advances the copy.
        assert!(n.store_replica(NodeId(1), replica(2, 6)));
        assert!(n.store_replica(NodeId(1), replica(3, 1)));
        assert_eq!(n.replicas[&NodeId(1)].epoch, 3);
        assert_eq!(n.replicas[&NodeId(1)].version, 1);
    }

    #[test]
    fn replica_survives_expiry_but_not_relocation() {
        let mut n = node();
        n.hear_with_zone(NodeId(1), &z(&[0.5, 0.0], &[1.0, 1.0]), 0.0);
        assert!(n.store_replica(NodeId(1), replica(2, 5)));
        n.replica_acked.insert(NodeId(1), 5);
        // The owner goes silent: expiry tears the table entry (and
        // would drop a cached payload) but the standby copy must still
        // be there when the deferred take-over fires.
        let expired = n.expire(1000.0, 150.0);
        assert_eq!(expired.len(), 1);
        assert!(n.replicas.contains_key(&NodeId(1)), "replica survives");
        assert_eq!(
            n.take_replica(NodeId(1)).map(|r| r.version),
            Some(5),
            "promotion takes the stored copy"
        );
        assert!(n.take_replica(NodeId(1)).is_none(), "taken once");
        // Relocation clears the store: the node left the neighborhood.
        assert!(n.store_replica(NodeId(1), replica(2, 6)));
        n.forget_all();
        assert!(n.replicas.is_empty());
        assert!(n.replica_acked.is_empty());
    }

    #[test]
    fn gap_cache_matches_exact_recomputation_across_mutations() {
        let mut n = node();
        assert!(n.has_boundary_gap_cached(), "empty table: face uncovered");
        assert!(n.has_boundary_gap_cached(), "cache hit answers the same");
        n.hear_with_zone(NodeId(1), &z(&[0.5, 0.0], &[1.0, 1.0]), 10.0);
        assert!(!n.has_boundary_gap_cached(), "insert invalidates");
        // Liveness-only traffic must not disturb a valid cache.
        n.hear_keepalive(NodeId(1), 20.0);
        assert!(!n.has_boundary_gap_cached());
        // Re-announcing the identical zone keeps the cache hot too.
        n.hear_with_zone(NodeId(1), &z(&[0.5, 0.0], &[1.0, 1.0]), 25.0);
        assert!(!n.has_boundary_gap_cached());
        n.hear_with_zone(NodeId(1), &z(&[0.5, 0.0], &[1.0, 0.5]), 30.0);
        assert!(
            n.has_boundary_gap_cached(),
            "recorded-zone change invalidates"
        );
        assert_eq!(n.boundary_gap_sample_cached(), n.boundary_gap_sample());
        n.hear_vouch(NodeId(2), &z(&[0.5, 0.5], &[1.0, 1.0]), 0, 40.0);
        assert!(!n.has_boundary_gap_cached(), "reseed invalidates");
        n.forget(NodeId(2));
        assert!(n.has_boundary_gap_cached(), "forget invalidates");
        n.hear_with_zone(NodeId(2), &z(&[0.5, 0.5], &[1.0, 1.0]), 50.0);
        assert!(!n.has_boundary_gap_cached());
        let expired = n.expire(1000.0, 150.0);
        assert_eq!(expired.len(), 2);
        assert!(n.has_boundary_gap_cached(), "expiry invalidates");
        n.hear_with_zone(NodeId(1), &z(&[0.5, 0.0], &[1.0, 1.0]), 1000.0);
        assert!(!n.has_boundary_gap_cached());
        n.set_zone(z(&[0.0, 0.0], &[0.5, 0.5]));
        assert_eq!(
            n.has_boundary_gap_cached(),
            n.has_boundary_gap(),
            "set_zone invalidates"
        );
        n.forget_all();
        assert!(n.has_boundary_gap_cached(), "forget_all invalidates");
        assert_eq!(n.boundary_gap_sample_cached(), n.boundary_gap_sample());
    }

    // ---- random operation sequences ----

    /// A rectangle on the 4 x 4 lattice of the unit square, decoded
    /// from eight bits: lattice zones abut, overlap and miss each other
    /// often enough that every branch of the table logic is drawn.
    fn lattice_zone(code: usize) -> Zone {
        let span = |a: usize, b: usize| (a.min(b) as f64 / 4.0, (a.max(b) + 1) as f64 / 4.0);
        let (x0, x1) = span(code & 3, (code >> 2) & 3);
        let (y0, y1) = span((code >> 4) & 3, (code >> 6) & 3);
        z(&[x0, y0], &[x1, y1])
    }

    /// What [`LocalNode::merge_records`] reads besides the records: the
    /// own zone and the table's key set.
    fn structure(n: &LocalNode) -> (Zone, Vec<NodeId>) {
        (n.zone.clone(), n.known_neighbors())
    }

    /// The whole table, in id order.
    fn rows(n: &LocalNode) -> Vec<(NodeId, NeighborEntry)> {
        let mut v: Vec<(NodeId, NeighborEntry)> =
            n.table.iter().map(|(id, e)| (*id, e.clone())).collect();
        v.sort_by_key(|(id, _)| *id);
        v
    }

    type Content = (NodeId, Zone, u64, Vec<(NodeId, Zone)>);

    /// A snapshot's content with the neighbor list in id order.
    fn content(p: &Payload) -> Content {
        let mut nbrs = p.neighbors.clone();
        nbrs.sort_by_key(|(id, _)| *id);
        (p.from, p.zone.clone(), p.epoch, nbrs)
    }

    /// What a snapshot of `n` must hold, read off its fields.
    fn expected_content(n: &LocalNode) -> Content {
        let confirmed = rows(n).into_iter().filter(|(_, e)| e.confirmed);
        (
            n.id,
            n.zone.clone(),
            n.epoch,
            confirmed.map(|(id, e)| (id, e.zone)).collect(),
        )
    }

    type RecordDraw = (u32, usize);
    type PayloadDraw = (u32, usize, u64, Vec<RecordDraw>);
    type EditDraw = (usize, u32, usize);

    /// One sender's successive payloads, built the way its snapshots
    /// are: records in ascending id, and an unchanged record handing its
    /// zone on as a clone of the previous version's. Each edit makes one
    /// new version: a record added (or moved), a record dropped, a zone
    /// replaced by a new allocation, an equal-bounds zone in a fresh
    /// allocation, seventy records added (so the table outgrows 64), or
    /// the table cut to its first few records.
    fn payload_versions(
        from: u32,
        zone: usize,
        base: Vec<RecordDraw>,
        edits: Vec<EditDraw>,
    ) -> Vec<Rc<Payload>> {
        let mut records: BTreeMap<NodeId, Zone> = base
            .into_iter()
            .map(|(id, zc)| (NodeId(id), lattice_zone(zc)))
            .collect();
        let version = |records: &BTreeMap<NodeId, Zone>, epoch: usize| {
            Rc::new(Payload {
                from: NodeId(from),
                zone: lattice_zone(zone),
                epoch: epoch as u64,
                neighbors: records.iter().map(|(id, z)| (*id, z.clone())).collect(),
            })
        };
        let mut versions = vec![version(&records, 0)];
        for (edit, id, zc) in edits {
            let nth = records.keys().nth(zc % records.len().max(1)).copied();
            match (edit, nth) {
                (0, _) => {
                    records.insert(NodeId(id), lattice_zone(zc));
                }
                (1, Some(k)) => {
                    records.remove(&k);
                }
                (2, Some(k)) => {
                    records.insert(k, lattice_zone(zc));
                }
                (3, Some(k)) => {
                    let old = &records[&k];
                    let dims = 0..old.dims();
                    let fresh = Zone::from_bounds(
                        dims.clone().map(|d| old.lo(d)).collect(),
                        dims.map(|d| old.hi(d)).collect(),
                    );
                    records.insert(k, fresh);
                }
                (4, _) => {
                    for k in 0..70 {
                        records.insert(
                            NodeId(16 + (id * 7 + k) % 80),
                            lattice_zone(zc + 37 * k as usize),
                        );
                    }
                }
                (5, _) => records = records.into_iter().take(zc % 70).collect(),
                _ => {}
            }
            versions.push(version(&records, versions.len()));
        }
        versions
    }

    /// The gap tests' grid lines: quarters of the unit interval, plus a
    /// line either side of 0.5 closer than the gap detector's probe
    /// offset (1e-9), so slivers thinner than it are drawn.
    const GAP_LINES: [f64; 7] = [0.0, 0.25, 0.5 - 4e-10, 0.5, 0.5 + 4e-10, 0.75, 1.0];

    /// A zone on the gap grid in `dims` dimensions, six bits of `code`
    /// per dimension (two distinct lines).
    fn grid_zone(code: u64, dims: usize) -> Zone {
        let (mut lo, mut hi) = (Vec::new(), Vec::new());
        for d in 0..dims {
            let a = (code >> (6 * d) & 7) as usize % 7;
            let b = (code >> (6 * d + 3) & 7) as usize % 7;
            let b = if a == b { (a + 1) % 7 } else { b };
            lo.push(GAP_LINES[a.min(b)]);
            hi.push(GAP_LINES[a.max(b)]);
        }
        Zone::from_bounds(lo, hi)
    }

    /// A zone on the gap grid pressed against a face of `own` when
    /// `code` asks for it and the face is not the domain edge: it
    /// starts on the face's line and ends on a line beyond it, and
    /// spans `own`'s extent in three in four other dimensions, so
    /// most draws abut `own` (or touch it at a corner) and faces are
    /// often covered.
    fn near_zone(own: &Zone, code: u64) -> Zone {
        let dims = own.dims();
        let z = grid_zone(code, dims);
        let face = (code >> 36) as usize % (2 * dims + 1);
        if face == 2 * dims {
            return z;
        }
        let (d0, high) = (face / 2, face % 2 == 1);
        let (mut lo, mut hi): (Vec<f64>, Vec<f64>) = (0..dims)
            .map(|d| match code >> (43 + 2 * d) & 3 {
                3 => (z.lo(d), z.hi(d)),
                _ => (own.lo(d), own.hi(d)),
            })
            .unzip();
        let step = 1 + (code >> 40) as usize % 3;
        if high {
            let at = GAP_LINES.iter().position(|&l| l == own.hi(d0)).unwrap();
            if at + 1 >= GAP_LINES.len() {
                return z;
            }
            lo[d0] = own.hi(d0);
            hi[d0] = GAP_LINES[(at + step).min(GAP_LINES.len() - 1)];
        } else {
            let at = GAP_LINES.iter().position(|&l| l == own.lo(d0)).unwrap();
            if at == 0 {
                return z;
            }
            lo[d0] = GAP_LINES[at.saturating_sub(step)];
            hi[d0] = own.lo(d0);
        }
        Zone::from_bounds(lo, hi)
    }

    /// A gap point with its coordinates as bits, for exact comparison.
    fn bits(p: Option<Vec<f64>>) -> Option<Vec<u64>> {
        p.map(|p| p.into_iter().map(f64::to_bits).collect())
    }

    proptest! {
        /// Gap detection hands the coverage recursion only the zones
        /// across the face under test; the reference hands it every
        /// recorded zone, as the detector once did. Over tables built
        /// through first-hand contact, merges, vouches, expiry and own
        /// zone changes — on grids with slivers thinner than the probe
        /// offset and faces on the domain edge, in two and three
        /// dimensions — both return the same point, bit for bit, and
        /// decide every face region alike.
        #[test]
        fn gap_detection_by_face_matches_every_zone_reference(
            dims in 2usize..4,
            own in 0u64..1 << 42,
            ops in prop::collection::vec((0usize..10, 1u32..16, 0u64..1 << 50, 0u64..1000), 10..80),
        ) {
            let mut node = LocalNode::new(NodeId(0), vec![0.0; dims], grid_zone(own, dims), 1);
            let mut now = 0.0;
            for (step, (kind, who, code, aux)) in ops.into_iter().enumerate() {
                now += (aux % 8) as f64;
                let who = NodeId(who);
                let zone = near_zone(node.zone(), code);
                let other = near_zone(node.zone(), code.rotate_left(17));
                match kind {
                    0..=3 => node.hear_fenced(who, &zone, aux % 3, now),
                    4 => {
                        let records = [(who, zone.clone()), (NodeId(who.0 % 15 + 1), other.clone())];
                        node.merge_records(&records, now);
                    }
                    5 => {
                        let payload = Rc::new(Payload {
                            from: who,
                            zone: other.clone(),
                            epoch: aux % 3,
                            neighbors: vec![(NodeId(who.0 % 15 + 1), zone.clone())],
                        });
                        node.merge_payload_records(&payload, now);
                    }
                    6 => node.hear_vouch(who, &zone, aux % 3, now),
                    7 => node.set_zone_fenced(grid_zone(code, dims), aux % 5),
                    8 => {
                        node.expire(now, 150.0);
                    }
                    _ => node.forget(who),
                }
                let expected = bits(node.boundary_gap_sample_reference());
                prop_assert_eq!(&bits(node.boundary_gap_sample()), &expected, "step {}", step);
                prop_assert_eq!(&bits(node.boundary_gap_sample_cached()), &expected, "step {}", step);
                let recorded: Vec<Zone> = node.sorted_zones().into_iter().cloned().collect();
                for z in recorded.iter().chain([&zone, &other]) {
                    prop_assert_eq!(
                        node.covers_face_region(z),
                        node.covers_face_region_reference(z),
                        "step {}: face region of {:?}",
                        step,
                        z
                    );
                }
                // A region once its owner has left the table.
                if let Some(gone) = node.known_neighbors().first().copied().filter(|_| aux % 4 == 0) {
                    let z = node.table[&gone].zone.clone();
                    node.forget(gone);
                    prop_assert_eq!(node.covers_face_region(&z), node.covers_face_region_reference(&z));
                    prop_assert_eq!(bits(node.boundary_gap_sample()), bits(node.boundary_gap_sample_reference()));
                }
            }
        }

        /// `known_neighbors_into` fills a reused buffer with exactly what
        /// the allocating form returns, after every operation that can
        /// change the table's key set (and those that cannot).
        #[test]
        fn known_neighbors_into_matches_allocating_form_over_random_ops(
            own in 0usize..256,
            ops in prop::collection::vec((0usize..10, 0u32..8, 0usize..256, 0u64..1000), 1..120),
        ) {
            let mut node = LocalNode::new(NodeId(0), vec![0.0, 0.0], lattice_zone(own), 1);
            let mut out = vec![NodeId(99), NodeId(98)];
            let mut now = 0.0;
            for (step, (kind, who, zc, aux)) in ops.into_iter().enumerate() {
                now += (aux % 40) as f64;
                let (who, zone) = (NodeId(who), lattice_zone(zc));
                let records = [(who, zone.clone()), (NodeId((who.0 + 3) % 8), lattice_zone(zc / 3))];
                match kind {
                    0 => node.hear_fenced(who, &zone, aux % 4, now),
                    1 => {
                        node.hear_keepalive(who, now);
                    }
                    2 => {
                        node.merge_records(&records, now);
                    }
                    3 => {
                        let payload = Rc::new(Payload {
                            from: who,
                            zone: lattice_zone(zc / 5),
                            epoch: aux % 4,
                            neighbors: records.to_vec(),
                        });
                        node.merge_payload_records(&payload, now);
                    }
                    4 => node.adopt_records(&records, now),
                    5 => {
                        node.expire(now, 150.0);
                    }
                    6 => node.set_zone_fenced(zone, aux % 7),
                    7 => node.forget(who),
                    8 => node.hear_vouch(NodeId(who.0.max(1)), &zone, aux % 4, now),
                    _ => node.forget_all(),
                }
                if aux % 7 == 0 {
                    out = vec![NodeId(97); (aux % 5) as usize]; // a fresh stale buffer
                }
                node.known_neighbors_into(&mut out);
                prop_assert_eq!(&out, &node.known_neighbors(), "step {}", step);
            }
        }

        /// The two facts the heartbeat path leans on, over random
        /// operation sequences.
        ///
        /// *Re-merging changes nothing.* `merge_records` reads the own
        /// id, the own zone and the table's key set, and inserts every
        /// unknown abutting record; so when the same payload is merged
        /// again while zone and key set are what its previous merge
        /// left, the merge inserts nothing and reports 0 repairs —
        /// whatever liveness traffic ran in between.
        ///
        /// *A snapshot is a function of content.* Two snapshots with no
        /// mutation in between are one allocation, and a snapshot
        /// always holds what the fields say, whatever ran since it was
        /// last built.
        ///
        /// The node under test takes payloads through
        /// `merge_payload_records`, which skips merges it has proved
        /// empty; a reference node takes the same operations with every
        /// merge spelled out as `merge_records` then `hear_fenced` on
        /// the sender, and the two must agree on every table row and
        /// every repair count at every step.
        #[test]
        fn remerge_is_a_noop_and_snapshots_follow_content(
            own in 0usize..256,
            pool in prop::collection::vec(
                (1u32..6, 0usize..256, 0u64..4,
                 prop::collection::vec((0u32..6, 0usize..256), 0..6)),
                3,
            ),
            ops in prop::collection::vec((0usize..10, 0u32..6, 0usize..256, 0u64..1000), 20..120),
        ) {
            let new_node = || LocalNode::new(NodeId(0), vec![0.0, 0.0], lattice_zone(own), 1);
            let (mut node, mut reference) = (new_node(), new_node());
            let payloads: Vec<Rc<Payload>> = pool
                .into_iter()
                .map(|(from, zone, epoch, records): PayloadDraw| {
                    Rc::new(Payload {
                        from: NodeId(from),
                        zone: lattice_zone(zone),
                        epoch,
                        neighbors: records
                            .into_iter()
                            .map(|(id, zc)| (NodeId(id), lattice_zone(zc)))
                            .collect(),
                    })
                })
                .collect();
            // Per payload: the reference's structure right after its
            // last `merge_records`.
            let mut merged: Vec<Option<(Zone, Vec<NodeId>)>> = vec![None; payloads.len()];
            let mut now = 0.0;
            for (step, (kind, who, zc, aux)) in ops.into_iter().enumerate() {
                now += (aux % 40) as f64;
                let (who, zone, epoch) = (NodeId(who), lattice_zone(zc), aux % 4);
                let records = [(who, zone.clone()), (NodeId((who.0 + 1) % 6), lattice_zone(zc / 3))];
                match kind {
                    0 => {
                        node.hear_fenced(who, &zone, epoch, now);
                        reference.hear_fenced(who, &zone, epoch, now);
                    }
                    1 => {
                        prop_assert_eq!(
                            node.hear_keepalive(who, now),
                            reference.hear_keepalive(who, now)
                        );
                    }
                    2 | 3 => {
                        let i = aux as usize % payloads.len();
                        let p = &payloads[i];
                        let before = structure(&reference);
                        let repaired = reference.merge_records(&p.neighbors, now);
                        if merged[i].as_ref() == Some(&before) {
                            prop_assert_eq!(repaired, 0, "step {}: re-merge repaired", step);
                            prop_assert_eq!(structure(&reference), before);
                        }
                        merged[i] = Some(structure(&reference));
                        reference.hear_fenced(p.from, &p.zone, p.epoch, now);
                        prop_assert_eq!(
                            node.merge_payload_records(p, now),
                            repaired,
                            "step {}: repair count",
                            step
                        );
                    }
                    4 => {
                        node.adopt_records(&records, now);
                        reference.adopt_records(&records, now);
                    }
                    5 => {
                        let mut gone = node.expire(now, 150.0);
                        let mut expected = reference.expire(now, 150.0);
                        gone.sort_by_key(|(id, _)| *id);
                        expected.sort_by_key(|(id, _)| *id);
                        prop_assert_eq!(gone, expected, "step {}: expired", step);
                    }
                    6 => {
                        node.set_zone_fenced(zone.clone(), aux % 7);
                        reference.set_zone_fenced(zone, aux % 7);
                    }
                    7 => {
                        node.forget(who);
                        reference.forget(who);
                    }
                    // The protocol never vouches for a node to itself.
                    8 => {
                        let who = NodeId(who.0.max(1));
                        node.hear_vouch(who, &zone, epoch, now - 10.0);
                        reference.hear_vouch(who, &zone, epoch, now - 10.0);
                    }
                    // A vouch for a node already expelled here re-seeds it.
                    _ => {
                        let who = NodeId(who.0.max(1));
                        node.forget(who);
                        reference.forget(who);
                        node.hear_vouch(who, &zone, epoch, now);
                        reference.hear_vouch(who, &zone, epoch, now);
                    }
                }
                prop_assert_eq!(rows(&node), rows(&reference), "step {}: tables", step);
                let (first, second) = (node.snapshot(), node.snapshot());
                prop_assert!(Rc::ptr_eq(&first, &second), "step {}: rebuilt unchanged", step);
                prop_assert_eq!(
                    content(&first),
                    expected_content(&reference),
                    "step {}: stale snapshot",
                    step
                );
            }
        }

        /// Successive versions of two senders' payloads, merged in the
        /// order a heartbeat stream delivers them (the same version
        /// again, the next one, now and then an older one), with table
        /// and zone changes in between: the node under test and a
        /// reference that spells every merge out as `merge_records`
        /// then `hear_fenced` agree on every table row, every repair
        /// count and the generation at every step.
        #[test]
        fn payload_versions_merge_like_the_reference(
            own in 0usize..256,
            senders in prop::collection::vec(
                (0usize..256,
                 prop::collection::vec((0u32..8, 0usize..256), 0..8),
                 prop::collection::vec((0usize..6, 0u32..8, 0usize..256), 1..12)),
                2,
            ),
            ops in prop::collection::vec((0usize..8, 0u32..8, 0usize..256, 0u64..1000), 20..150),
        ) {
            let new_node = || LocalNode::new(NodeId(0), vec![0.0, 0.0], lattice_zone(own), 1);
            let (mut node, mut reference) = (new_node(), new_node());
            let chains: Vec<Vec<Rc<Payload>>> = senders
                .into_iter()
                .enumerate()
                .map(|(s, (zone, base, edits))| payload_versions(s as u32 + 1, zone, base, edits))
                .collect();
            let mut current = vec![0usize; chains.len()];
            let mut now = 0.0;
            for (step, (kind, who, zc, aux)) in ops.into_iter().enumerate() {
                now += (aux % 40) as f64;
                let (who, zone, epoch) = (NodeId(who), lattice_zone(zc), aux % 4);
                match kind {
                    0 => {
                        node.hear_fenced(who, &zone, epoch, now);
                        reference.hear_fenced(who, &zone, epoch, now);
                    }
                    1 => {
                        prop_assert_eq!(
                            node.hear_keepalive(who, now),
                            reference.hear_keepalive(who, now)
                        );
                    }
                    2..=4 => {
                        let s = aux as usize % chains.len();
                        let chain = &chains[s];
                        if kind == 3 {
                            current[s] = (current[s] + 1).min(chain.len() - 1);
                        }
                        let v = if kind == 4 { (aux as usize / 2) % chain.len() } else { current[s] };
                        let p = &chain[v];
                        let repaired = reference.merge_records(&p.neighbors, now);
                        reference.hear_fenced(p.from, &p.zone, p.epoch, now);
                        prop_assert_eq!(
                            node.merge_payload_records(p, now),
                            repaired,
                            "step {}: repair count of version {} of sender {}",
                            step,
                            v,
                            s + 1
                        );
                    }
                    5 => {
                        node.set_zone_fenced(zone.clone(), aux % 7);
                        reference.set_zone_fenced(zone, aux % 7);
                    }
                    6 => {
                        let mut gone = node.expire(now, 150.0);
                        let mut expected = reference.expire(now, 150.0);
                        gone.sort_by_key(|(id, _)| *id);
                        expected.sort_by_key(|(id, _)| *id);
                        prop_assert_eq!(gone, expected, "step {}: expired", step);
                    }
                    _ => {
                        node.forget(who);
                        reference.forget(who);
                    }
                }
                prop_assert_eq!(rows(&node), rows(&reference), "step {}: tables", step);
                prop_assert_eq!(node.generation, reference.generation, "step {}: generation", step);
            }
        }
    }
}
