//! The CAN maintenance protocol simulator: joins, departures, and the
//! three heartbeat schemes of §IV (vanilla, compact, adaptive).
//!
//! Ground truth (zones, adjacency) lives in the split tree; every
//! node's *knowledge* lives in its [`LocalNode`] and evolves only
//! through simulated messages. The scheme determines what each message
//! carries:
//!
//! * **Vanilla** — every heartbeat is a full-state payload (the
//!   original CAN): expensive (O(d²) volume per node) but maximally
//!   redundant, so broken links repair through common neighbors.
//! * **Compact** — full payloads go only to the sender's predetermined
//!   take-over targets; everyone else gets an O(1) keepalive (or an
//!   O(d) zone-update right after the sender's zone changed).
//! * **Adaptive** — compact, plus an on-demand *full-update
//!   request/response* exchange whenever a node locally detects a
//!   broken link (a neighbor expired without replacement, or its own
//!   zone changed during a take-over).

use crate::accounting::Accounting;
use crate::adjacency::Adjacency;
use crate::geom::{Point, Zone};
use crate::idmap::{IdMap, IdSet};
use crate::membership::{
    face_across, LocalNode, Payload, ReplicaPayload, ZoneReplica, REPLICA_MAX_NEIGHBORS,
    SUSPICION_K_MIN,
};
use crate::split_tree::{SplitTree, ZoneChange};
use crate::wire::{self, MsgKind};
use pgrid_simcore::dst::Fnv;
use pgrid_simcore::fault::{MsgClass, NetworkModel};
use pgrid_simcore::{EventQueue, SimTime};
use pgrid_types::NodeId;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::rc::Rc;

/// Retry bound for acknowledged exchanges (join, handoff) under loss:
/// after this many transmissions the exchange is forced through —
/// synchronous RPCs in a real deployment block until delivery.
const RELIABLE_RETRY_CAP: u32 = 64;

/// Which heartbeat protocol the CAN runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HeartbeatScheme {
    /// Original CAN: full neighbor state in every heartbeat.
    Vanilla,
    /// Full state only to take-over targets (§IV-B).
    Compact,
    /// Compact plus on-demand full updates (§IV-C).
    Adaptive,
}

impl HeartbeatScheme {
    /// All schemes, in the paper's presentation order.
    pub const ALL: [HeartbeatScheme; 3] = [
        HeartbeatScheme::Vanilla,
        HeartbeatScheme::Compact,
        HeartbeatScheme::Adaptive,
    ];

    /// Label used in figures ("Vanilla", "Compact", "Adaptive").
    pub fn label(self) -> &'static str {
        match self {
            HeartbeatScheme::Vanilla => "Vanilla",
            HeartbeatScheme::Compact => "Compact",
            HeartbeatScheme::Adaptive => "Adaptive",
        }
    }

    /// Whether the scheme is expected to restore *full* neighbor-table
    /// coverage after faults end, and is held to that bar by the
    /// quiescence oracle. Only the adaptive scheme qualifies: its level-triggered
    /// gap detection and routed gap probes can rebuild links both sides
    /// have expired. Vanilla gossip repairs only what some surviving
    /// record can still reach, and compact keepalives cannot re-add
    /// expired entries at all (the paper's Figure 7 decay).
    pub fn self_healing(self) -> bool {
        matches!(self, HeartbeatScheme::Adaptive)
    }
}

/// Which rule turns neighbor silence into a declaration of death.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectorMode {
    /// Classic single fixed timeout: a take-over target expels a
    /// neighbor the moment its silence exceeds `fail_timeout`.
    Fixed,
    /// Two-phase suspicion pipeline: per-link adaptive timeouts learned
    /// from heartbeat inter-arrival statistics raise a *suspicion*,
    /// indirect probes through three other neighbors try to refute it,
    /// and expulsion waits out a 60 s grace on top of the fixed
    /// timeout — one lossy link cannot expel a live node.
    Adaptive,
}

impl DetectorMode {
    /// Short lowercase label for tables, CSV, and the schedule grammar.
    pub fn label(self) -> &'static str {
        match self {
            DetectorMode::Fixed => "fixed",
            DetectorMode::Adaptive => "adaptive",
        }
    }
}

/// Other neighbors the adaptive detector asks to probe a suspect.
const INDIRECT_PROBES: usize = 3;
/// Seconds a suspicion must survive unrefuted past the fixed timeout
/// before the adaptive detector expels the suspect: one default
/// heartbeat period.
const PROBE_GRACE: f64 = 60.0;

/// Failure-detector configuration. `None` on [`ProtocolConfig`] keeps
/// the legacy passive behavior: silent neighbors are merely dropped
/// from local tables (broken links) and ground-truth ownership never
/// changes without an explicit [`CanSim::leave`]. The fixed rule has
/// no suspicion phase; the adaptive one runs on fixed constants: a
/// 1.5-period threshold floor, 4 σ, 3 probe helpers, a 60 s grace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectorConfig {
    /// Detection rule.
    pub mode: DetectorMode,
}

impl DetectorConfig {
    /// The fixed-timeout detector with expulsion armed.
    pub fn fixed() -> Self {
        DetectorConfig {
            mode: DetectorMode::Fixed,
        }
    }

    /// The adaptive + indirect-probe detector.
    pub fn adaptive() -> Self {
        DetectorConfig {
            mode: DetectorMode::Adaptive,
        }
    }
}

/// Warm-standby zone replication. `None` on [`ProtocolConfig`] keeps
/// the legacy behavior: a crash take-over recovers only from the heir's
/// best-effort heartbeat cache. `Some` arms incremental replication:
/// every node piggybacks a *versioned* snapshot of its zone state
/// (zone, epoch, confirmed-neighbor summary, and the opaque
/// scheduler-aggregate slice) onto its heartbeat rounds to its
/// take-over targets, re-sending only while a target's ack lags the
/// current version — so a crash promotes a warm, fence-checked replica
/// instead of re-learning the zone from scratch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicationConfig;

impl ReplicationConfig {
    /// Warm-standby replication, as the evaluation arms it.
    pub fn standby() -> Self {
        ReplicationConfig
    }
}

/// The most dimensions a CAN can have: a zone keeps its `2 · dims`
/// `f64` bounds in one allocation, which may not exceed `isize::MAX`
/// bytes.
const MAX_DIMS: usize = isize::MAX as usize / 16;

/// A rejected [`ProtocolConfig`] (see [`ProtocolConfig::validate`]).
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// `dims` must be at least 1 and small enough for a zone's bounds
    /// to fit in memory.
    DimsOutOfRange(usize),
    /// `heartbeat_period` must be positive and finite.
    NonPositivePeriod(f64),
    /// `fail_timeout` must be finite and strictly above the period.
    TimeoutNotAbovePeriod {
        /// Configured heartbeat period.
        period: f64,
        /// Configured (rejected) failure timeout.
        timeout: f64,
    },
    /// `message_loss` must lie in `[0, 1)`.
    LossOutOfRange(f64),
    /// An armed detector needs the fail timeout at or above 1.5
    /// heartbeat periods, the adaptive suspicion floor.
    InvertedDetectorBounds {
        /// Configured heartbeat period.
        period: f64,
        /// Configured failure timeout.
        timeout: f64,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::DimsOutOfRange(d) => {
                write!(f, "dims must be in 1..={MAX_DIMS}, got {d}")
            }
            ConfigError::NonPositivePeriod(p) => {
                write!(f, "heartbeat period must be positive and finite, got {p}")
            }
            ConfigError::TimeoutNotAbovePeriod { period, timeout } => write!(
                f,
                "fail timeout ({timeout}) must be finite and exceed the heartbeat period ({period})"
            ),
            ConfigError::LossOutOfRange(p) => {
                write!(f, "message loss probability must be in [0, 1), got {p}")
            }
            ConfigError::InvertedDetectorBounds { period, timeout } => write!(
                f,
                "detector bounds inverted: need {SUSPICION_K_MIN} * period <= fail timeout, \
                 got period={period}, timeout={timeout}"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Protocol parameters.
#[derive(Debug, Clone)]
pub struct ProtocolConfig {
    /// CAN dimensionality.
    pub dims: usize,
    /// Heartbeat scheme under test.
    pub scheme: HeartbeatScheme,
    /// Seconds between a node's heartbeat rounds.
    pub heartbeat_period: f64,
    /// Silence threshold after which a neighbor is declared failed.
    pub fail_timeout: f64,
    /// Failure-injection: probability that any protocol message is
    /// dropped in flight. Datagram-class messages (heartbeats,
    /// full-update exchanges) are simply lost; acknowledged exchanges
    /// (join, handoff) retransmit until delivered, with every dropped
    /// transmission counted and re-charged. Applied uniformly across
    /// message classes on top of [`ProtocolConfig::net`]. Default 0.
    pub message_loss: f64,
    /// Seed for the fault-injection stream (only consulted when faults
    /// are configured).
    pub loss_seed: u64,
    /// Full network fault model (per-class loss, duplication, latency
    /// jitter, scheduled partitions). `None` means an ideal network;
    /// [`ProtocolConfig::message_loss`] then remains the only fault
    /// source. Strictly opt-in: with no faults configured the model
    /// consumes no randomness and perturbs nothing.
    pub net: Option<NetworkModel>,
    /// Failure-detector configuration. `None` (the default) keeps the
    /// legacy passive behavior: expiry breaks links locally but never
    /// changes ground-truth ownership. `Some` arms detector-driven
    /// expulsion: a take-over target that declares a neighbor dead
    /// seizes its zone (epoch-fenced), and a wrongly expelled node
    /// later refutes its own death and rejoins through the bootstrap
    /// path. The fault-free path draws zero RNG either way.
    pub detector: Option<DetectorConfig>,
    /// Warm-standby zone replication. `None` (the default) keeps the
    /// legacy cache-only crash recovery; `Some` arms versioned replica
    /// deltas piggybacked on heartbeat rounds and fence-checked
    /// promotion on crash take-overs. Replica traffic never touches
    /// neighbor tables or ownership state, so a fault-free armed run
    /// follows the exact disarmed trajectory.
    pub replication: Option<ReplicationConfig>,
}

impl ProtocolConfig {
    /// Defaults matching the evaluation setup: 60 s heartbeats, 2.5
    /// periods to declare failure, lossless network.
    pub fn new(dims: usize, scheme: HeartbeatScheme) -> Self {
        ProtocolConfig {
            dims,
            scheme,
            heartbeat_period: 60.0,
            fail_timeout: 150.0,
            message_loss: 0.0,
            loss_seed: 0x105E,
            net: None,
            detector: None,
            replication: None,
        }
    }

    /// Enables message-loss injection at the given drop probability
    /// (uniform across all message classes).
    pub fn with_message_loss(mut self, p: f64) -> Self {
        assert!((0.0..1.0).contains(&p), "loss probability out of range");
        self.message_loss = p;
        self
    }

    /// Arms warm-standby zone replication (see [`ReplicationConfig`]).
    pub fn with_replication(mut self, rep: ReplicationConfig) -> Self {
        self.replication = Some(rep);
        self
    }

    /// Checks the dimensionality and the timing and detector parameters
    /// for degenerate combinations. [`CanSim::new`] runs this and
    /// returns the error instead of panicking, so binaries can report
    /// bad flags cleanly.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !(1..=MAX_DIMS).contains(&self.dims) {
            return Err(ConfigError::DimsOutOfRange(self.dims));
        }
        if !(self.heartbeat_period > 0.0 && self.heartbeat_period.is_finite()) {
            return Err(ConfigError::NonPositivePeriod(self.heartbeat_period));
        }
        if !(self.fail_timeout > self.heartbeat_period && self.fail_timeout.is_finite()) {
            return Err(ConfigError::TimeoutNotAbovePeriod {
                period: self.heartbeat_period,
                timeout: self.fail_timeout,
            });
        }
        if !(0.0..1.0).contains(&self.message_loss) {
            return Err(ConfigError::LossOutOfRange(self.message_loss));
        }
        if self.detector.is_some() && SUSPICION_K_MIN * self.heartbeat_period > self.fail_timeout {
            return Err(ConfigError::InvertedDetectorBounds {
                period: self.heartbeat_period,
                timeout: self.fail_timeout,
            });
        }
        Ok(())
    }
}

/// Why a join attempt was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JoinError {
    /// The joiner's coordinate cannot be separated from the host's
    /// coordinate by any axis-aligned split (identical coordinates).
    Inseparable,
}

/// Simulator events: per-node heartbeat ticks, deferred crash
/// take-overs, and delayed message deliveries (only scheduled when the
/// network model adds latency).
#[derive(Debug, Clone, Copy)]
enum Ev {
    Tick(NodeId),
    Takeover(u64),
    Deliver(u64),
}

/// A datagram-class protocol message, reified so the network model can
/// delay or duplicate it. Acknowledged exchanges (join, handoff,
/// full-update request/response) stay synchronous and are never
/// reified.
#[derive(Debug, Clone)]
enum Msg {
    /// Full-state heartbeat payload. Reference-counted: one allocation
    /// is shared by every receiver (and any delayed in-flight copy) of
    /// every round the sender's content stands, so fan-out costs a
    /// refcount bump — and a receiver recognizes a payload it has
    /// already merged by its address.
    Full(Rc<Payload>),
    /// Zone-carrying update from a node whose zone changed, fenced by
    /// the sender's ownership epoch.
    Zone(NodeId, Zone, u64),
    /// O(1) compact keepalive.
    Keepalive(NodeId),
    /// Targeted take-over repair: `from` announces its post-take-over
    /// zone (at its new epoch) and the departed node's identity to the
    /// departed node's former neighbors.
    Repair {
        from: NodeId,
        zone: Zone,
        epoch: u64,
        departed: NodeId,
    },
    /// Indirect-probe request: `origin` suspects `suspect` and asks the
    /// receiver to check on it.
    ProbeReq { origin: NodeId, suspect: NodeId },
    /// Indirect-probe ping relayed by a helper to the suspect; a live
    /// suspect answers `origin` directly with a zone update.
    ProbePing { origin: NodeId },
    /// A helper vouches for a suspect it heard from recently: its
    /// recorded zone/epoch and when it last heard the suspect.
    ProbeVouch {
        suspect: NodeId,
        zone: Zone,
        epoch: u64,
        heard_at: SimTime,
    },
    /// Warm-standby replica delta: the sender's versioned zone snapshot
    /// shipped to a take-over target. Reference-counted for the same
    /// fan-out reason as `Full`.
    ReplicaDelta(Rc<ReplicaPayload>),
    /// The heir confirms it stored the owner's snapshot at the given
    /// epoch/version, so the owner stops re-sending it.
    ReplicaAck {
        from: NodeId,
        owner: NodeId,
        epoch: u64,
        version: u64,
    },
}

impl Msg {
    fn class(&self) -> MsgClass {
        MsgClass::Heartbeat // all datagram heartbeat-round traffic
    }
}

/// Context captured from a crash victim at the moment of death, used
/// by the take-over path to fence replica promotion and to log the
/// ground truth the `replica-freshness` oracle checks against.
#[derive(Debug, Clone)]
struct CrashCtx {
    /// The victim's ownership epoch when it died. A replica stamped
    /// below this is from an earlier incarnation of the zone and must
    /// be rejected at promotion.
    victim_epoch: u64,
    /// The victim's zone at death (ground truth from the split tree,
    /// captured before removal).
    victim_zone: Zone,
    /// The per-heir replica versions the victim had seen acked, sorted
    /// by heir id. The freshness oracle pins that a promoted replica is
    /// never older than the last version the dead owner saw acked by
    /// that heir.
    owner_acked: Vec<(NodeId, u64)>,
}

/// A crash take-over waiting for the failure-detection timeout.
#[derive(Debug)]
struct Pending {
    departed: NodeId,
    /// The victim's ownership epoch at departure: the take-over actors
    /// fence their own epochs strictly above it so any of the victim's
    /// claims still in flight (or a later zombie re-announcement) lose
    /// the epoch comparison.
    departed_epoch: u64,
    /// Victim-side context for replica promotion (crash take-overs
    /// only — graceful departures hand state off directly).
    crash: CrashCtx,
    kind: PendingKind,
}

#[derive(Debug)]
enum PendingKind {
    Merge {
        heir: NodeId,
        payload: Option<Rc<Payload>>,
    },
    Relocate {
        relocator: NodeId,
        absorber: NodeId,
        payload_x: Option<Rc<Payload>>,
    },
}

/// One crash take-over, as observed by the take-over actor — recorded
/// for every crash (armed or not) so benchmarks can measure re-learn
/// windows and the `replica-freshness` oracle can audit promotions
/// against what the dead owner actually saw acked.
#[derive(Debug, Clone)]
pub struct TakeoverRecord {
    /// The crashed owner.
    pub departed: NodeId,
    /// The node that adopted the zone (merge heir or relocator).
    pub actor: NodeId,
    /// When the take-over was applied.
    pub at: SimTime,
    /// The adopted zone (the victim's zone at death).
    pub departed_zone: Zone,
    /// The fence the actor's epoch was raised above (victim epoch
    /// folded with any surviving fence floor).
    pub departed_epoch: u64,
    /// The victim's own epoch at death (before floor folding).
    pub victim_epoch: u64,
    /// Version of the warm replica promoted by the actor, `None` when
    /// no acceptable replica existed (disarmed, never replicated, or
    /// fenced off as stale).
    pub promoted_version: Option<u64>,
    /// Epoch stamped on the promoted replica.
    pub promoted_epoch: Option<u64>,
    /// The last replica version the dead owner saw this actor ack,
    /// `None` if the owner never recorded an ack from it.
    pub owner_acked_version: Option<u64>,
    /// The scheduler-aggregate slice carried by the promoted replica.
    pub replica_agg: Option<Vec<u64>>,
}

/// Every work and fault counter of a [`CanSim`] run, in one record:
/// [`CanSim::counters`] reads it, and the churn, schedule and detector
/// reports carry it whole.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CanCounters {
    /// Datagrams applied to a live, unfrozen receiver (heartbeats, zone
    /// updates, keepalives, repairs, probes): the per-event unit of the
    /// heartbeat hot path.
    pub delivered: u64,
    /// Second-hand records merged into local tables.
    pub repairs: u64,
    /// Adaptive full-update request rounds.
    pub full_update_rounds: u64,
    /// Routed "who owns this point?" probes the adaptive scheme sends
    /// for boundary gaps its request rounds could not close.
    pub gap_probes: u64,
    /// Targeted take-over repair messages sent.
    pub repair_messages: u64,
    /// Messages discarded because the receiver was frozen.
    pub frozen_drops: u64,
    /// Suspicions raised by the failure detector.
    pub suspicions: u64,
    /// Indirect-probe requests dispatched to helpers.
    pub probe_requests: u64,
    /// Indirect-probe vouches received by suspicion origins.
    pub probe_vouches: u64,
    /// Detector-driven expulsions of nodes that were still alive
    /// (frozen or merely slow); ground truth reassigned their zone.
    pub live_expulsions: u64,
    /// The avoidable subset of `live_expulsions`: the victim was not
    /// even frozen — jitter or loss alone starved the link.
    pub false_expulsions: u64,
    /// Expelled nodes that refuted their own death via the epoch query
    /// and rejoined through the bootstrap path.
    pub revivals: u64,
    /// Seconds from a node going silent (crash or freeze) to the first
    /// suspicion (or, under the fixed rule, expulsion) raised against
    /// it, summed over `detections`.
    pub detection_lag_sum: f64,
    /// Detection-lag samples in `detection_lag_sum`.
    pub detections: u64,
    /// Warm-standby replica deltas sent (armed runs only).
    pub replica_deltas: u64,
    /// Replica acks sent back by take-over targets.
    pub replica_acks: u64,
    /// Crash take-overs that promoted a warm, fence-accepted replica.
    pub replica_promotions: u64,
    /// Replica snapshots rejected by the epoch/version fence — at
    /// store time (an older delta arriving late) or at promotion time
    /// (a replica from an earlier incarnation of the zone).
    pub stale_replica_rejects: u64,
}

impl CanCounters {
    /// Mean seconds from a node going silent to its detection; `None`
    /// with no samples.
    pub fn mean_detection_lag(&self) -> Option<f64> {
        (self.detections > 0).then(|| self.detection_lag_sum / self.detections as f64)
    }
}

/// The CAN protocol simulator.
///
/// ```
/// use pgrid_can::{CanSim, HeartbeatScheme, ProtocolConfig};
/// let mut can = CanSim::new(ProtocolConfig::new(2, HeartbeatScheme::Adaptive)).unwrap();
/// let a = can.join(vec![0.2, 0.5]).unwrap();
/// let b = can.join(vec![0.8, 0.5]).unwrap();
/// assert!(can.true_neighbors(a).contains(&b));
/// can.advance_to(120.0); // two heartbeat rounds
/// assert_eq!(can.broken_links(), 0);
/// can.leave(b, true);
/// assert_eq!(can.owner_at(&vec![0.9, 0.5]), Some(a));
/// ```
pub struct CanSim {
    cfg: ProtocolConfig,
    tree: Option<SplitTree>,
    adj: Adjacency,
    nodes: IdMap<LocalNode>,
    queue: EventQueue<Ev>,
    now: SimTime,
    acct: Accounting,
    next_id: u32,
    counters: CanCounters,
    pending: HashMap<u64, Pending>,
    next_pending: u64,
    net: NetworkModel,
    in_flight: HashMap<u64, (NodeId, Msg)>,
    next_msg: u64,
    frozen: HashMap<NodeId, SimTime>,
    /// Expelled-but-actually-alive nodes: their process keeps running
    /// (ticks, freeze/thaw), but ground truth no longer knows them.
    /// They revive through the epoch-query/bootstrap-rejoin path.
    zombies: HashMap<NodeId, LocalNode>,
    /// When each currently-silent node went silent (crash or freeze);
    /// consumed by the first suspicion to measure detection latency.
    /// Only maintained while a detector is configured.
    silent_since: HashMap<NodeId, SimTime>,
    /// Ground-truth fence bookkeeping: the highest epoch any *previous*
    /// owner claimed on space currently assigned to this node. A crash
    /// take-over moves ground-truth ownership immediately but the heir
    /// only fences its local epoch once it detects the death; if the
    /// heir dies inside that window, the in-flight fence would be lost
    /// with the pending record — this floor survives, folding into
    /// `departed_epoch` at every removal so the fence always reaches
    /// whoever ends up owning the space.
    fence_floors: HashMap<NodeId, u64>,
    /// Arena-reused buffer for each heartbeat round's receiver list
    /// (taken at round start, returned with its capacity at round end,
    /// cleared before reuse): the round builds into recycled capacity
    /// instead of allocating a fresh `Vec` per node per round.
    scratch_receivers: Vec<NodeId>,
    /// Arena-reused buffer for the round's sorted take-over targets.
    scratch_targets: Vec<NodeId>,
    /// Every crash take-over applied so far, in application order (see
    /// [`TakeoverRecord`]). Graceful departures are not recorded.
    takeover_log: Vec<TakeoverRecord>,
}

impl CanSim {
    /// An empty CAN. Rejects degenerate configurations (zero heartbeat
    /// period, a failure timeout at or below the period, inverted
    /// detector bounds) instead of panicking.
    pub fn new(cfg: ProtocolConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let mut net = cfg
            .net
            .clone()
            .unwrap_or_else(|| NetworkModel::ideal(cfg.loss_seed));
        if cfg.message_loss > 0.0 {
            net.set_loss(cfg.message_loss);
        }
        Ok(CanSim {
            cfg,
            tree: None,
            adj: Adjacency::new(),
            nodes: IdMap::default(),
            queue: EventQueue::new(),
            now: 0.0,
            acct: Accounting::new(),
            next_id: 0,
            counters: CanCounters::default(),
            pending: HashMap::new(),
            next_pending: 0,
            net,
            in_flight: HashMap::new(),
            next_msg: 0,
            frozen: HashMap::new(),
            zombies: HashMap::new(),
            silent_since: HashMap::new(),
            fence_floors: HashMap::new(),
            scratch_receivers: Vec::new(),
            scratch_targets: Vec::new(),
            takeover_log: Vec::new(),
        })
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of alive members.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the CAN is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Whether `id` is a current member.
    pub fn is_member(&self, id: NodeId) -> bool {
        self.nodes.contains_key(&id)
    }

    /// Alive member ids, sorted (deterministic).
    pub fn members(&self) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self.nodes.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// The protocol configuration.
    pub fn config(&self) -> &ProtocolConfig {
        &self.cfg
    }

    /// Message accounting (advanced to `now`).
    pub fn accounting(&mut self) -> &Accounting {
        self.acct.advance(self.now, self.nodes.len());
        &self.acct
    }

    /// Restarts the measurement window (e.g. after bootstrap).
    pub fn reset_accounting(&mut self) {
        self.acct.reset_window(self.now, self.nodes.len());
    }

    /// Ground-truth zone of a member.
    pub fn zone(&self, id: NodeId) -> &Zone {
        self.tree.as_ref().expect("empty CAN").zone(id)
    }

    /// Ground-truth owner of a point.
    pub fn owner_at(&self, p: &Point) -> Option<NodeId> {
        self.tree.as_ref()?.owner_at(p)
    }

    /// The predetermined take-over targets of a member (who inherits
    /// its zone per the split history — the recipients of its full
    /// compact heartbeats).
    pub fn takeover_targets(&self, id: NodeId) -> Vec<NodeId> {
        self.tree
            .as_ref()
            .map(|t| t.takeover_plan(id).targets())
            .unwrap_or_default()
    }

    /// Ground-truth neighbor ids of a member, sorted ascending.
    pub fn true_neighbors(&self, id: NodeId) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self.neighbor_ids(id).collect();
        v.sort_unstable();
        v
    }

    /// Ground-truth neighbor ids of a member, in no particular order
    /// and without the allocation and sort of [`Self::true_neighbors`].
    pub(crate) fn neighbor_ids(&self, id: NodeId) -> crate::adjacency::Neighbors<'_> {
        self.adj.neighbors(id)
    }

    /// Whether `b` is in `a`'s ground-truth neighbor set (one
    /// direction: the symmetry oracle asks both).
    pub(crate) fn are_true_neighbors(&self, a: NodeId, b: NodeId) -> bool {
        self.adj.are_neighbors(a, b)
    }

    /// Ground-truth mean neighbor degree.
    pub fn mean_degree(&self) -> f64 {
        self.adj.mean_degree()
    }

    /// Read-only access to a member's local state (tests/diagnostics).
    pub fn local(&self, id: NodeId) -> Option<&LocalNode> {
        self.nodes.get(&id)
    }

    /// Every work and fault counter so far.
    pub fn counters(&self) -> &CanCounters {
        &self.counters
    }

    /// Second-hand records merged so far.
    pub fn repairs(&self) -> u64 {
        self.counters.repairs
    }

    /// Adaptive full-update rounds triggered so far.
    pub fn full_update_rounds(&self) -> u64 {
        self.counters.full_update_rounds
    }

    /// Datagrams applied to a live, unfrozen receiver so far.
    pub fn delivered_messages(&self) -> u64 {
        self.counters.delivered
    }

    /// Routed gap probes sent so far.
    pub fn gap_probes(&self) -> u64 {
        self.counters.gap_probes
    }

    /// Number of messages dropped by failure injection, across all
    /// message classes (diagnostics).
    pub fn dropped_messages(&self) -> u64 {
        self.net.dropped_total()
    }

    /// Messages of one class dropped by failure injection.
    pub fn dropped_by_class(&self, class: MsgClass) -> u64 {
        self.net.dropped_by_class(class)
    }

    /// Messages that arrived twice due to injected duplication.
    pub fn duplicated_messages(&self) -> u64 {
        self.net.duplicated()
    }

    /// Every crash take-over applied so far, in application order.
    pub fn takeover_log(&self) -> &[TakeoverRecord] {
        &self.takeover_log
    }

    /// Installs the opaque scheduler-aggregate slice replicated for
    /// member `id` (the zone-local `AiTable` words). Returns whether
    /// the node is a current member. The slice rides the next replica
    /// delta whose content hash changes.
    pub fn set_agg_slice(&mut self, id: NodeId, bits: Vec<u64>) -> bool {
        match self.nodes.get_mut(&id) {
            Some(n) => {
                n.agg_slice = bits;
                true
            }
            None => false,
        }
    }

    /// Folds the complete observable simulator state into `digest`:
    /// the member set with epochs and exact zone bounds, then every
    /// fault/detector counter. This is the byte sequence the DST
    /// harness has always pinned; it is shared with the churn driver's
    /// [`crate::ChurnReport::state_digest`] so both golden suites pin
    /// the same trajectory definition. Takes `&mut self` only because
    /// message accounting advances its window to `now` when read.
    pub fn fold_observable_state(&mut self, digest: &mut Fnv) {
        let members = self.members();
        digest.write_f64(self.now());
        digest.write_usize(members.len());
        for &id in &members {
            digest.write_u64(u64::from(id.0));
            digest.write_u64(self.local(id).expect("member has local state").epoch());
            let z = self.zone(id);
            for d in 0..z.dims() {
                digest.write_f64(z.lo(d));
                digest.write_f64(z.hi(d));
            }
        }
        digest.write_usize(self.broken_links());
        digest.write_usize(self.stale_entries());
        digest.write_u64(self.dropped_messages());
        digest.write_u64(self.duplicated_messages());
        digest.write_u64(self.network().partition_drops());
        let c = self.counters;
        digest.write_u64(c.frozen_drops);
        digest.write_u64(c.repair_messages);
        digest.write_u64(c.gap_probes);
        digest.write_u64(c.full_update_rounds);
        digest.write_u64(self.network().degrade_drops());
        digest.write_u64(c.suspicions);
        digest.write_u64(c.live_expulsions);
        digest.write_u64(c.false_expulsions);
        digest.write_u64(c.revivals);
        digest.write_usize(self.zombie_count());
        digest.write_u64(c.probe_requests);
        digest.write_u64(c.probe_vouches);
        digest.write_u64(self.accounting().stale_keepalives);
    }

    /// FNV-1a digest over [`CanSim::fold_observable_state`] alone.
    pub fn state_digest(&mut self) -> u64 {
        let mut d = Fnv::new();
        self.fold_observable_state(&mut d);
        d.finish()
    }

    /// Expelled-but-alive nodes currently awaiting revival.
    pub fn zombie_count(&self) -> usize {
        self.zombies.len()
    }

    /// Sorted ids of expelled-but-alive nodes awaiting revival.
    pub fn zombie_ids(&self) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self.zombies.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// A zombie's local state (diagnostics/oracles).
    pub fn zombie(&self, id: NodeId) -> Option<&LocalNode> {
        self.zombies.get(&id)
    }

    /// Parks `node` as a zombie without expelling anyone — a corrupt
    /// state no run reaches, for the oracle tests that need one.
    #[cfg(test)]
    pub(crate) fn park_zombie(&mut self, node: LocalNode) {
        self.zombies.insert(node.id, node);
    }

    /// Overwrites the stored ground-truth zone of member `id`, split
    /// history untouched — the tiling sabotage of the oracle tests.
    #[cfg(test)]
    pub(crate) fn overwrite_zone(&mut self, id: NodeId, zone: Zone) {
        self.tree
            .as_mut()
            .expect("empty CAN")
            .overwrite_zone(id, zone);
    }

    /// Adds or removes the one *directed* ground-truth edge
    /// `from -> to` — the adjacency sabotage of the oracle tests; an
    /// undirected edge is two calls.
    #[cfg(test)]
    pub(crate) fn set_true_edge(&mut self, from: NodeId, to: NodeId, present: bool) {
        self.adj.set_directed(from, to, present);
    }

    /// The network fault model (drop/duplication counters, partitions).
    pub fn network(&self) -> &NetworkModel {
        &self.net
    }

    /// Mutable access to the network fault model, for reconfiguring
    /// faults mid-run (the schedule executor brackets its fault phase
    /// this way).
    pub fn network_mut(&mut self) -> &mut NetworkModel {
        &mut self.net
    }

    /// Freezes member `id` for `duration` seconds: it stops sending,
    /// receiving, and expiring — then thaws with whatever stale state
    /// it kept. Freezing a non-member is a no-op.
    pub fn freeze(&mut self, id: NodeId, duration: f64) {
        assert!(duration > 0.0 && duration.is_finite());
        if self.nodes.contains_key(&id) {
            let until = self.now + duration;
            let e = self.frozen.entry(id).or_insert(until);
            *e = e.max(until);
            if self.cfg.detector.is_some() {
                self.silent_since.entry(id).or_insert(self.now);
            }
        }
    }

    /// Whether `id` is currently frozen.
    pub fn is_frozen(&self, id: NodeId) -> bool {
        self.frozen.get(&id).is_some_and(|&until| self.now < until)
    }

    fn frozen_at(&self, id: NodeId, t: SimTime) -> bool {
        // Freezes exist only in chaos/DST runs; skip the hash lookup on
        // the per-message fast path when none are scheduled.
        !self.frozen.is_empty() && self.frozen.get(&id).is_some_and(|&until| t < until)
    }

    /// The paper's failure-resilience metric: the number of
    /// ground-truth neighbor relations missing from local tables
    /// (directed count).
    pub fn broken_links(&self) -> usize {
        self.nodes
            .iter()
            .map(|(id, n)| {
                self.adj
                    .neighbors(*id)
                    .filter(|q| !n.table().contains_key(q))
                    .count()
            })
            .sum()
    }

    /// Diagnostics: table entries that are *not* ground-truth neighbors
    /// (stale extras awaiting expiry; harmless but measurable).
    pub fn stale_entries(&self) -> usize {
        self.nodes
            .iter()
            .map(|(id, n)| {
                n.table()
                    .keys()
                    .filter(|q| !self.adj.are_neighbors(*id, **q))
                    .count()
            })
            .sum()
    }

    /// Advances simulated time to `t`, firing every heartbeat tick due
    /// on the way.
    pub fn advance_to(&mut self, t: SimTime) {
        assert!(t >= self.now, "time went backwards");
        while self.queue.peek_time().is_some_and(|pt| pt <= t) {
            let (tt, ev) = self.queue.pop().unwrap();
            self.now = tt;
            match ev {
                Ev::Tick(id) => self.do_tick(id, tt),
                Ev::Deliver(seq) => {
                    if let Some((to, msg)) = self.in_flight.remove(&seq) {
                        self.apply_msg(to, &msg, tt);
                    }
                }
                Ev::Takeover(seq) => {
                    let Some(pending) = self.pending.remove(&seq) else {
                        continue;
                    };
                    match pending.kind {
                        PendingKind::Merge { heir, payload } => {
                            self.apply_merge(
                                pending.departed,
                                pending.departed_epoch,
                                heir,
                                payload,
                                Some(&pending.crash),
                                tt,
                            );
                        }
                        PendingKind::Relocate {
                            relocator,
                            absorber,
                            payload_x,
                        } => {
                            self.apply_relocate(
                                pending.departed,
                                pending.departed_epoch,
                                relocator,
                                absorber,
                                payload_x,
                                Some(&pending.crash),
                                tt,
                            );
                        }
                    }
                }
            }
        }
        self.now = t;
    }

    /// A new node with the given coordinate joins the CAN at the
    /// current time. Returns its id.
    pub fn join(&mut self, coord: Point) -> Result<NodeId, JoinError> {
        let id = NodeId(self.next_id);
        self.join_as(id, coord, 0, self.now)?;
        self.next_id += 1;
        Ok(id)
    }

    /// The join protocol under a caller-chosen identity and epoch base:
    /// fresh joins allocate a new id with base 0 (first claim at epoch
    /// 1); a revived zombie re-enters under its old id with its
    /// pre-death epoch as the base, so every claim of the new
    /// incarnation fences above every claim of the old one.
    fn join_as(
        &mut self,
        id: NodeId,
        coord: Point,
        base_epoch: u64,
        t: SimTime,
    ) -> Result<(), JoinError> {
        assert_eq!(coord.len(), self.cfg.dims, "coordinate dimensionality");
        let Some(tree) = self.tree.as_mut() else {
            // First member owns the whole space.
            let zone = Zone::unit(self.cfg.dims);
            self.tree = Some(SplitTree::new(self.cfg.dims, id));
            self.adj.insert_first(id);
            self.nodes
                .insert(id, LocalNode::new(id, coord, zone, base_epoch + 1));
            self.acct.advance(t, self.nodes.len());
            self.queue
                .schedule(t + self.cfg.heartbeat_period, Ev::Tick(id));
            return Ok(());
        };

        let host = tree.owner_at(&coord).expect("non-empty tree");
        let host_coord = self.nodes[&host].coord.clone();
        let host_zone = tree.zone(host).clone();
        // Choose the split plane (balanced midpoint cut when possible;
        // see `choose_split_plane`). A take-over holder whose
        // coordinate lies outside the zone bisects unconditionally.
        let plane = if host_zone.contains(&host_coord) {
            crate::split_tree::choose_split_plane(&host_zone, &host_coord, &coord)
        } else {
            Some(crate::split_tree::choose_split_plane_free(&host_zone))
        };
        let Some((dim, at)) = plane else {
            return Err(JoinError::Inseparable);
        };

        let (new_host_zone, joiner_zone) = tree.split(host, &host_coord, id, &coord, dim, at);
        let tree = self.tree.as_ref().unwrap();
        self.adj.on_split(host, id, |n| tree.zone(n));

        // Join traffic: request routed to the host, reply carrying the
        // host's neighbor table. The exchange is acknowledged — a
        // dropped request or reply is retransmitted until it gets
        // through, with every transmission charged and every loss
        // counted.
        let host_k = self.nodes[&host].table().len();
        let req_sends =
            self.net
                .reliable_sends(t, id.0, host.0, MsgClass::Join, RELIABLE_RETRY_CAP);
        for _ in 0..req_sends {
            self.acct
                .record(MsgKind::Join, wire::full_update_request(self.cfg.dims));
        }
        let reply_sends =
            self.net
                .reliable_sends(t, host.0, id.0, MsgClass::Join, RELIABLE_RETRY_CAP);
        for _ in 0..reply_sends {
            self.acct
                .record(MsgKind::Join, wire::join_reply(self.cfg.dims, host_k));
        }

        // Seed the joiner's table from the host's (pre-split) view.
        let host_entries: Vec<(NodeId, Zone)> = {
            let hn = self.nodes.get_mut(&host).unwrap();
            let entries = hn
                .table()
                .iter()
                .map(|(n, e)| (*n, e.zone.clone()))
                .collect();
            hn.set_zone(new_host_zone.clone());
            entries
        };
        // The joiner's region was carved out of the host's: inheriting
        // the host's (just-bumped) epoch keeps every region's claim
        // epochs monotone through splits — a zombie fenced below the
        // host stays fenced below whoever splits off part of its old
        // zone later.
        let host_epoch = self.nodes[&host].epoch();
        let mut joiner = LocalNode::new(id, coord, joiner_zone, (base_epoch + 1).max(host_epoch));
        // Any fence the host still owes on its zone covers the carved
        // region too: the obligation follows the space.
        if let Some(&f) = self.fence_floors.get(&host) {
            self.raise_floor(id, f);
        }
        for (n, z) in &host_entries {
            joiner.hear_with_zone(*n, z, t);
        }
        joiner.hear_fenced(host, &new_host_zone, host_epoch, t);
        joiner.zone_dirty = true; // introduce ourselves with our zone
        if self.cfg.scheme == HeartbeatScheme::Adaptive && joiner.has_boundary_gap_cached() {
            // The host's table did not cover our whole boundary: ask
            // for full updates at our first round.
            joiner.wants_full_update = true;
        }
        self.nodes.insert(id, joiner);
        self.acct.advance(t, self.nodes.len());

        // The join protocol is synchronous: the joiner introduces
        // itself to everyone it learned from the host right away.
        self.send_round(id, t);
        self.queue
            .schedule(t + self.cfg.heartbeat_period, Ev::Tick(id));
        Ok(())
    }

    /// The ground-truth fence floor on `id`'s zone: the highest epoch
    /// any previous owner ever claimed on space currently assigned to
    /// `id`. The owner's local claim only exceeds it once its take-over
    /// applies; until then the floor is what keeps stale claims fenced.
    pub fn fence_floor(&self, id: NodeId) -> u64 {
        self.fence_floors.get(&id).copied().unwrap_or(0)
    }

    fn raise_floor(&mut self, id: NodeId, at_least: u64) {
        let f = self.fence_floors.entry(id).or_insert(0);
        *f = (*f).max(at_least);
    }

    /// Records the fence obligations of a zone change: whoever ground
    /// truth just assigned the departed space to must eventually claim
    /// above `departed_epoch`, and the absorber of a relocator's old
    /// region must additionally clear every claim the relocator made
    /// there. Kept outside the (possibly deferred) local take-over so
    /// an actor dying before it acts cannot lose the fence.
    fn record_fences(&mut self, change: &ZoneChange, departed_epoch: u64) {
        match *change {
            ZoneChange::Emptied => {}
            ZoneChange::Merged { owner: heir, .. } => {
                self.raise_floor(heir, departed_epoch);
            }
            ZoneChange::Relocated {
                relocator,
                absorber,
                ..
            } => {
                // Take-over plans name live members, so the relocator
                // is present at plan time.
                let r_claims = self.nodes[&relocator]
                    .epoch()
                    .max(self.fence_floor(relocator));
                self.raise_floor(relocator, departed_epoch);
                self.raise_floor(absorber, departed_epoch.max(r_claims));
            }
        }
    }

    /// Member `id` departs. `graceful` departures hand their state to
    /// the take-over target(s); crashes leave only whatever those
    /// targets had cached from previous full heartbeats.
    pub fn leave(&mut self, id: NodeId, graceful: bool) {
        let t = self.now;
        let Some(mut departing) = self.nodes.remove(&id) else {
            return;
        };
        self.frozen.remove(&id);
        if !graceful && self.cfg.detector.is_some() {
            self.silent_since.entry(id).or_insert(t);
        }
        let departed_epoch = departing
            .epoch()
            .max(self.fence_floors.remove(&id).unwrap_or(0));
        let tree = self.tree.as_mut().expect("member implies tree");
        let victim_zone = tree.zone(id).clone();
        let change = tree.remove(id);
        self.record_fences(&change, departed_epoch);
        // Crash victims leave behind the context replica promotion is
        // fenced against; graceful departures hand state off directly.
        let crash_ctx = (!graceful).then(|| {
            let mut acked: Vec<(NodeId, u64)> = departing
                .replica_acked
                .iter()
                .map(|(&n, &v)| (n, v))
                .collect();
            acked.sort_unstable();
            CrashCtx {
                victim_epoch: departing.epoch(),
                victim_zone,
                owner_acked: acked,
            }
        });
        match change {
            ZoneChange::Emptied => {
                self.tree = None;
                self.adj.remove_node(id);
                self.acct.advance(t, 0);
            }
            ZoneChange::Merged { owner: heir, .. } => {
                let tree = self.tree.as_ref().unwrap();
                self.adj.on_merge(id, heir, |n| tree.zone(n));
                self.acct.advance(t, self.nodes.len());
                if graceful {
                    // Synchronous leave protocol: fresh handoff, heir
                    // adopts and announces immediately. The handoff is
                    // acknowledged — retransmitted under loss.
                    let snap = departing.snapshot();
                    self.record_handoff(id, heir, snap.neighbors.len(), t);
                    self.apply_merge(id, departed_epoch, heir, Some(snap), None, t);
                } else {
                    // Crash: the heir only notices after the failure
                    // timeout, then recovers from its cached copy of
                    // the victim's last full heartbeat.
                    let payload = self.nodes.get(&heir).and_then(|hn| hn.cached_payload(id));
                    self.schedule_takeover(
                        t,
                        Pending {
                            departed: id,
                            departed_epoch,
                            crash: crash_ctx.expect("crash departure has context"),
                            kind: PendingKind::Merge { heir, payload },
                        },
                    );
                }
            }
            ZoneChange::Relocated {
                relocator,
                absorber,
                ..
            } => {
                let tree = self.tree.as_ref().unwrap();
                self.adj
                    .on_relocate(id, relocator, absorber, |n| tree.zone(n));
                self.acct.advance(t, self.nodes.len());
                if graceful {
                    let snap = departing.snapshot();
                    self.record_handoff(id, relocator, snap.neighbors.len(), t);
                    self.apply_relocate(
                        id,
                        departed_epoch,
                        relocator,
                        absorber,
                        Some(snap),
                        None,
                        t,
                    );
                } else {
                    let payload = self
                        .nodes
                        .get(&relocator)
                        .and_then(|rn| rn.cached_payload(id));
                    self.schedule_takeover(
                        t,
                        Pending {
                            departed: id,
                            departed_epoch,
                            crash: crash_ctx.expect("crash departure has context"),
                            kind: PendingKind::Relocate {
                                relocator,
                                absorber,
                                payload_x: payload,
                            },
                        },
                    );
                }
            }
        }
    }

    /// Charges an acknowledged handoff transfer from `from` to `to`:
    /// retransmitted until delivered under loss, every transmission
    /// accounted.
    fn record_handoff(&mut self, from: NodeId, to: NodeId, k: usize, t: SimTime) {
        let sends = self
            .net
            .reliable_sends(t, from.0, to.0, MsgClass::Handoff, RELIABLE_RETRY_CAP);
        let bytes = wire::handoff(self.cfg.dims, k);
        for _ in 0..sends {
            self.acct.record(MsgKind::Handoff, bytes);
        }
    }

    /// Schedules the deferred local-state part of a crash take-over:
    /// the zone reassignment is already decided (split history), but
    /// the actors only act once the victim's silence exceeds the
    /// failure timeout. Fires slightly before the actors' own expiry
    /// would evict the cached payload.
    fn schedule_takeover(&mut self, t: SimTime, pending: Pending) {
        let seq = self.next_pending;
        self.next_pending += 1;
        self.pending.insert(seq, pending);
        self.queue
            .schedule(t + 0.95 * self.cfg.fail_timeout, Ev::Takeover(seq));
    }

    /// The crash half of a take-over by `actor`, a live member: when
    /// replication is armed, takes its warm replica of `departed` —
    /// promoted only if it was stamped by the victim's final
    /// incarnation, since a replica from an earlier epoch describes a
    /// zone geometry that no longer exists (the second-choice-heir
    /// chain), and counted stale otherwise — then logs the
    /// [`TakeoverRecord`]. Returns the promoted replica.
    fn promote_replica(
        &mut self,
        actor: NodeId,
        departed: NodeId,
        departed_epoch: u64,
        ctx: &CrashCtx,
        t: SimTime,
    ) -> Option<ZoneReplica> {
        let armed = self.cfg.replication.is_some();
        let promoted = if armed {
            let an = self
                .nodes
                .get_mut(&actor)
                .expect("the actor is a live member");
            match an.take_replica(departed) {
                Some(r) if r.epoch >= ctx.victim_epoch => {
                    self.counters.replica_promotions += 1;
                    Some(r)
                }
                Some(_) => {
                    self.counters.stale_replica_rejects += 1;
                    None
                }
                None => None,
            }
        } else {
            None
        };
        let owner_acked_version = if armed {
            ctx.owner_acked
                .iter()
                .find(|(n, _)| *n == actor)
                .map(|(_, v)| *v)
        } else {
            None
        };
        self.takeover_log.push(TakeoverRecord {
            departed,
            actor,
            at: t,
            departed_zone: ctx.victim_zone.clone(),
            departed_epoch,
            victim_epoch: ctx.victim_epoch,
            promoted_version: promoted.as_ref().map(|r| r.version),
            promoted_epoch: promoted.as_ref().map(|r| r.epoch),
            owner_acked_version,
            replica_agg: promoted.as_ref().map(|r| r.agg.clone()),
        });
        promoted
    }

    /// Executes a merge take-over at `t`: the heir syncs its zone to
    /// ground truth, adopts the departed node's neighbor records —
    /// promoting its warm replica first when replication is armed and
    /// the snapshot clears the epoch fence — and announces the change.
    fn apply_merge(
        &mut self,
        departed: NodeId,
        departed_epoch: u64,
        heir: NodeId,
        payload: Option<Rc<Payload>>,
        crash: Option<&CrashCtx>,
        t: SimTime,
    ) {
        let alive = self.tree.as_ref().is_some_and(|tr| tr.contains(heir))
            && self.nodes.contains_key(&heir);
        if !alive {
            return; // the heir itself is gone; later events take over
        }
        let zone = self.tree.as_ref().unwrap().zone(heir).clone();
        let promoted =
            crash.and_then(|ctx| self.promote_replica(heir, departed, departed_epoch, ctx, t));
        {
            let hn = self.nodes.get_mut(&heir).unwrap();
            // Fence: the heir's post-take-over epoch must exceed every
            // claim the departed node ever made.
            hn.set_zone_fenced(zone, departed_epoch);
            if let Some(r) = &promoted {
                hn.adopt_records(&r.neighbors, t);
            }
            if let Some(p) = &payload {
                hn.adopt_records(&p.neighbors, t);
            }
            hn.forget(departed);
            hn.drop_cached_payload(departed);
            if self.cfg.scheme == HeartbeatScheme::Adaptive && hn.has_boundary_gap_cached() {
                hn.wants_full_update = true;
            }
        }
        // Targeted repair (compact/adaptive): the heir's zone-dirty
        // update only reaches nodes in its *own* table, but the
        // departed node's neighbors also hold records of the heir that
        // just went stale — and under compact nothing else would ever
        // refresh them (the seed-41 edge). Announce the new zone to the
        // departed node's former neighborhood directly. A promoted
        // replica's summary is the victim's own confirmed view at its
        // final version — strictly fresher than any cached heartbeat.
        if let Some(r) = &promoted {
            self.send_repairs(heir, &r.neighbors, departed, t);
        } else if let Some(p) = &payload {
            self.send_repairs(heir, &p.neighbors, departed, t);
        }
        self.send_round(heir, t);
        self.maybe_full_update(heir, t);
    }

    /// Executes a defragmentation take-over at `t`: the relocator moves
    /// onto the departed zone, the absorber absorbs the relocator's old
    /// zone, both sync to ground truth and announce.
    #[allow(clippy::too_many_arguments)]
    fn apply_relocate(
        &mut self,
        departed: NodeId,
        departed_epoch: u64,
        relocator: NodeId,
        absorber: NodeId,
        payload_x: Option<Rc<Payload>>,
        crash: Option<&CrashCtx>,
        t: SimTime,
    ) {
        let tree_has = |n: NodeId, s: &Self| {
            s.tree.as_ref().is_some_and(|tr| tr.contains(n)) && s.nodes.contains_key(&n)
        };
        let r_alive = tree_has(relocator, self);
        let a_alive = tree_has(absorber, self);
        // The absorber inherits the relocator's *old* region, so its
        // post-take-over epoch must also exceed every claim the
        // relocator made there before moving.
        let r_pre_epoch = if r_alive {
            self.nodes[&relocator].epoch()
        } else {
            0
        };
        // Extract the relocator's warm replica of the victim *before*
        // `forget_all` below wipes its replica store with the rest of
        // its old-position state. The relocator is the actor that
        // adopts the victim's zone.
        let promoted = crash
            .filter(|_| r_alive)
            .and_then(|ctx| self.promote_replica(relocator, departed, departed_epoch, ctx, t));
        // The relocator ships its old-position state to the absorber.
        let r_old = if r_alive {
            let snap = self
                .nodes
                .get_mut(&relocator)
                .expect("checked alive")
                .snapshot();
            self.record_handoff(relocator, absorber, snap.neighbors.len(), t);
            Some(snap)
        } else {
            None
        };
        if r_alive {
            let zone = self.tree.as_ref().unwrap().zone(relocator).clone();
            let rn = self.nodes.get_mut(&relocator).unwrap();
            rn.forget_all();
            rn.set_zone_fenced(zone, departed_epoch);
            if let Some(r) = &promoted {
                rn.adopt_records(&r.neighbors, t);
            }
            if let Some(p) = &payload_x {
                rn.adopt_records(&p.neighbors, t);
            }
            rn.forget(departed);
        }
        if a_alive {
            let zone = self.tree.as_ref().unwrap().zone(absorber).clone();
            let an = self.nodes.get_mut(&absorber).unwrap();
            an.set_zone_fenced(zone, departed_epoch.max(r_pre_epoch));
            if let Some(p) = &r_old {
                an.adopt_records(&p.neighbors, t);
            }
            an.forget(departed);
            an.forget(relocator);
            an.drop_cached_payload(relocator);
        }
        // They introduce their new zones (and epochs) to each other.
        if r_alive && a_alive {
            let rz = self.tree.as_ref().unwrap().zone(relocator).clone();
            let az = self.tree.as_ref().unwrap().zone(absorber).clone();
            let re = self.nodes[&relocator].epoch();
            let ae = self.nodes[&absorber].epoch();
            self.nodes
                .get_mut(&relocator)
                .unwrap()
                .hear_fenced(absorber, &az, ae, t);
            self.nodes
                .get_mut(&absorber)
                .unwrap()
                .hear_fenced(relocator, &rz, re, t);
        }
        // Targeted repairs (compact/adaptive): the relocator announces
        // its new position to the departed node's former neighbors and
        // to its *own* former neighbors (whose records of it just went
        // stale); the absorber announces its grown zone to the
        // relocator's former neighbors, whose new neighbor it now is.
        if let Some(r) = &promoted {
            self.send_repairs(relocator, &r.neighbors, departed, t);
        } else if let Some(p) = &payload_x {
            self.send_repairs(relocator, &p.neighbors, departed, t);
        }
        if let Some(p) = &r_old {
            self.send_repairs(relocator, &p.neighbors, departed, t);
            self.send_repairs(absorber, &p.neighbors, departed, t);
        }
        for actor in [relocator, absorber] {
            if tree_has(actor, self) {
                if self.cfg.scheme == HeartbeatScheme::Adaptive {
                    let n = self.nodes.get_mut(&actor).unwrap();
                    if n.has_boundary_gap_cached() {
                        n.wants_full_update = true;
                    }
                }
                self.send_round(actor, t);
                self.maybe_full_update(actor, t);
            }
        }
    }

    // ---- internal protocol machinery ----

    fn do_tick(&mut self, id: NodeId, t: SimTime) {
        if !self.nodes.contains_key(&id) {
            if self.zombies.contains_key(&id) {
                // Expelled but alive: the process keeps running on its
                // own tick chain until it discovers its death.
                self.zombie_tick(id, t);
            }
            return; // departed; let the stale tick die
        }
        // A frozen node's process is paused: it neither sends nor
        // expires. Keep ticking so it resumes after the thaw.
        let mut thawed = false;
        match self.frozen.get(&id) {
            Some(&until) if t < until => {
                self.queue
                    .schedule(t + self.cfg.heartbeat_period, Ev::Tick(id));
                return;
            }
            Some(_) => {
                self.frozen.remove(&id);
                self.silent_since.remove(&id);
                thawed = true;
            }
            None => {}
        }
        // 0. Suspicion phase (adaptive detector): raise suspicions at
        // the learned per-link threshold — typically well before the
        // hard timeout — and fan out indirect probes so other links get
        // a chance to refute before we expel.
        if self
            .cfg
            .detector
            .is_some_and(|det| det.mode == DetectorMode::Adaptive)
        {
            self.raise_suspicions(id, t);
        }
        // 1. Expire silent neighbors (local failure detection).
        let mut confirmed_expired: Vec<NodeId> = Vec::new();
        {
            let n = self.nodes.get_mut(&id).unwrap();
            let expired = n.expire(t, self.cfg.fail_timeout);
            // The confirmed-expiry list only feeds the expulsion phase
            // below; without a detector, skip collecting and sorting it.
            if self.cfg.detector.is_some() {
                confirmed_expired = expired
                    .iter()
                    .filter(|(_, e)| e.confirmed)
                    .map(|(p, _)| *p)
                    .collect();
                confirmed_expired.sort_unstable();
            }
            if self.cfg.scheme == HeartbeatScheme::Adaptive {
                // A first-hand neighbor vanished without the remaining
                // table covering the region it owned — or a previously
                // detected gap is still open (a one-shot request round
                // can come up empty when everyone expired the same peer
                // simultaneously, e.g. after a freeze or partition, so
                // detection is level-triggered on the boundary probe).
                // Unconfirmed second-hand entries expire routinely and
                // are not evidence of breakage by themselves.
                if expired
                    .iter()
                    .any(|(_, e)| e.confirmed && !n.covers_face_region(&e.zone))
                    || n.has_boundary_gap_cached()
                {
                    n.wants_full_update = true;
                }
            }
        }
        // 1b. Expulsion phase. Fixed mode expels straight from expiry;
        // adaptive mode only expels suspects whose probe deadline
        // passed without any refutation (first-hand contact or an
        // indirect vouch both absolve). Either way a node only acts on
        // peers it would inherit from — the take-over plan is the
        // authority on who seizes a zone.
        if let Some(det) = self.cfg.detector {
            let overdue: Vec<NodeId> = match det.mode {
                DetectorMode::Fixed => confirmed_expired,
                DetectorMode::Adaptive => {
                    let n = self.nodes.get_mut(&id).unwrap();
                    let due: Vec<NodeId> = n
                        .suspects
                        .iter()
                        .filter(|(_, &dl)| dl <= t)
                        .map(|(&s, _)| s)
                        .collect();
                    for s in &due {
                        n.suspects.remove(s);
                    }
                    due
                }
            };
            for suspect in overdue {
                let in_plan = self.tree.as_ref().is_some_and(|tr| tr.contains(suspect))
                    && self
                        .tree
                        .as_ref()
                        .unwrap()
                        .takeover_plan(suspect)
                        .targets()
                        .contains(&id);
                if in_plan {
                    self.expel(suspect, t);
                }
            }
        }
        // 2. Heartbeat round.
        self.send_round(id, t);
        // 3. Adaptive on-demand repair.
        self.maybe_full_update(id, t);
        // 4. A thawed node knows its clock jumped: everyone may have
        // expired it by now, so it re-announces its zone next round —
        // reaching whatever the repair rounds above just re-seeded its
        // table with.
        if thawed {
            if let Some(n) = self.nodes.get_mut(&id) {
                n.zone_dirty = true;
            }
        }
        // 5. Next round.
        self.queue
            .schedule(t + self.cfg.heartbeat_period, Ev::Tick(id));
    }

    /// Adaptive-detector phase 1 for node `id`: every confirmed ward
    /// (a peer whose take-over plan names us) whose silence exceeds its
    /// learned per-link threshold becomes a suspect with an expulsion
    /// deadline of `max(last_heard + fail_timeout, now + PROBE_GRACE)`
    /// — never earlier than the fixed detector would act — and up to
    /// [`INDIRECT_PROBES`] other neighbors are asked to probe it.
    ///
    /// Only take-over targets suspect: a ward sends its targets a full
    /// heartbeat every round, so silence on that link is meaningful —
    /// whereas an ordinary table entry can decay routinely when zones
    /// drift apart (the ex-neighbor rightly stops sending), and
    /// treating that as suspicion would make the detector chatter on a
    /// fault-free overlay. Expulsion is target-gated anyway; this keeps
    /// detection and action in the same hands.
    fn raise_suspicions(&mut self, id: NodeId, t: SimTime) {
        let period = self.cfg.heartbeat_period;
        let cap = self.cfg.fail_timeout;
        let mut fresh: Vec<(NodeId, SimTime)> = {
            let n = &self.nodes[&id];
            n.table()
                .iter()
                .filter(|(p, e)| e.confirmed && !n.suspects.contains_key(p))
                .filter(|(_, e)| t - e.last_heard > e.suspicion_timeout(period, cap))
                .filter(|(p, _)| {
                    self.tree.as_ref().is_some_and(|tr| {
                        tr.contains(**p) && tr.takeover_plan(**p).targets().contains(&id)
                    })
                })
                .map(|(&p, e)| (p, (e.last_heard + cap).max(t + PROBE_GRACE)))
                .collect()
        };
        if fresh.is_empty() {
            return;
        }
        fresh.sort_unstable_by_key(|a| a.0);
        let helpers: Vec<NodeId> = {
            let n = &self.nodes[&id];
            let mut v: Vec<NodeId> = n
                .table()
                .iter()
                .filter(|(p, e)| {
                    e.confirmed
                        && !n.suspects.contains_key(p)
                        && !fresh.iter().any(|(s, _)| s == *p)
                })
                .map(|(&p, _)| p)
                .collect();
            v.sort_unstable();
            v.truncate(INDIRECT_PROBES);
            v
        };
        for &(s, deadline) in &fresh {
            self.nodes
                .get_mut(&id)
                .unwrap()
                .suspects
                .insert(s, deadline);
            self.counters.suspicions += 1;
            // First suspicion against a genuinely silent node closes
            // its detection-latency sample.
            if let Some(t0) = self.silent_since.remove(&s) {
                self.counters.detection_lag_sum += t - t0;
                self.counters.detections += 1;
            }
            for &h in &helpers {
                self.acct
                    .record(MsgKind::Probe, wire::probe_request(self.cfg.dims));
                self.counters.probe_requests += 1;
                self.post(
                    id,
                    h,
                    &Msg::ProbeReq {
                        origin: id,
                        suspect: s,
                    },
                    t,
                );
            }
        }
    }

    /// Expels a declared-dead member: ground-truth ownership moves to
    /// the take-over plan's actors *now* (the detector already waited
    /// out its timeout), the victim's local process keeps running as a
    /// zombie, and the seized zone's epoch is fenced above every claim
    /// the victim ever made — so a wrong expulsion is survivable: the
    /// zombie later discovers the higher epoch and rejoins cleanly.
    fn expel(&mut self, suspect: NodeId, t: SimTime) {
        let Some(victim) = self.nodes.remove(&suspect) else {
            return; // already expelled or genuinely departed
        };
        self.counters.live_expulsions += 1;
        // Expelling a frozen (actually unresponsive) node is the
        // detector doing its job; expelling an awake one means jitter
        // or loss fooled it — the avoidable kind the adaptive pipeline
        // exists to prevent.
        if !self.frozen.contains_key(&suspect) {
            self.counters.false_expulsions += 1;
        }
        if let Some(t0) = self.silent_since.remove(&suspect) {
            // Fixed mode has no suspicion phase: detection coincides
            // with expulsion.
            self.counters.detection_lag_sum += t - t0;
            self.counters.detections += 1;
        }
        // The fence must clear the victim's own claims *and* any floor
        // it still owed on space it had been assigned but never fenced.
        let departed_epoch = victim
            .epoch()
            .max(self.fence_floors.remove(&suspect).unwrap_or(0));
        // Capture the promotion-fence context before the victim's local
        // state is parked (an expelled node is a crash as far as the
        // take-over actors can tell).
        let victim_epoch = victim.epoch();
        let mut owner_acked: Vec<(NodeId, u64)> =
            victim.replica_acked.iter().map(|(&n, &v)| (n, v)).collect();
        owner_acked.sort_unstable();
        // The victim's process is still running (it merely looks dead
        // from here): park it as a zombie, keeping its frozen-until
        // state and its tick chain.
        self.zombies.insert(suspect, victim);
        let tree = self.tree.as_mut().expect("member implies tree");
        let victim_zone = tree.zone(suspect).clone();
        let change = tree.remove(suspect);
        self.record_fences(&change, departed_epoch);
        let ctx = CrashCtx {
            victim_epoch,
            victim_zone,
            owner_acked,
        };
        match change {
            ZoneChange::Emptied => {
                self.tree = None;
                self.adj.remove_node(suspect);
                self.acct.advance(t, 0);
            }
            ZoneChange::Merged { owner: heir, .. } => {
                let tree = self.tree.as_ref().unwrap();
                self.adj.on_merge(suspect, heir, |n| tree.zone(n));
                self.acct.advance(t, self.nodes.len());
                let payload = self
                    .nodes
                    .get(&heir)
                    .and_then(|hn| hn.cached_payload(suspect));
                self.apply_merge(suspect, departed_epoch, heir, payload, Some(&ctx), t);
            }
            ZoneChange::Relocated {
                relocator,
                absorber,
                ..
            } => {
                let tree = self.tree.as_ref().unwrap();
                self.adj
                    .on_relocate(suspect, relocator, absorber, |n| tree.zone(n));
                self.acct.advance(t, self.nodes.len());
                let payload = self
                    .nodes
                    .get(&relocator)
                    .and_then(|rn| rn.cached_payload(suspect));
                self.apply_relocate(
                    suspect,
                    departed_epoch,
                    relocator,
                    absorber,
                    payload,
                    Some(&ctx),
                    t,
                );
            }
        }
    }

    /// One tick of an expelled-but-alive node. While frozen it stays
    /// paused; once awake it tries to learn the fate of its old zone
    /// through the bootstrap each round, and on discovering a higher
    /// epoch refutes its own death and rejoins.
    fn zombie_tick(&mut self, id: NodeId, t: SimTime) {
        if self.frozen_at(id, t) {
            self.queue
                .schedule(t + self.cfg.heartbeat_period, Ev::Tick(id));
            return;
        }
        self.frozen.remove(&id);
        // The zombie does not know it is dead: it keeps up its rounds.
        // Its zone never changed from its own point of view, so the
        // round degrades to bare keepalives — which land at peers that
        // already evicted it and are counted as ghost traffic
        // (`Accounting::stale_keepalives`) rather than re-seeding stale
        // records (a keepalive carries no zone to re-add).
        let peers: Vec<NodeId> = {
            let zn = &self.zombies[&id];
            let mut v: Vec<NodeId> = zn
                .table()
                .iter()
                .filter(|(_, e)| e.confirmed)
                .map(|(&p, _)| p)
                .collect();
            v.sort_unstable();
            v
        };
        for p in peers {
            self.acct
                .record(MsgKind::Heartbeat, wire::compact_keepalive());
            self.post(id, p, &Msg::Keepalive(id), t);
        }
        if self.try_revive(id, t) {
            return; // join_as started a fresh tick chain
        }
        self.queue
            .schedule(t + self.cfg.heartbeat_period, Ev::Tick(id));
    }

    /// A thawed zombie's revival attempt: query the bootstrap (lowest-id
    /// live, awake member — the rendezvous every join routes through)
    /// for the current claim on its old coordinate. A higher epoch is
    /// proof the overlay declared us dead and moved on: discard all
    /// stale state and rejoin through the normal bootstrap path under
    /// the same identity, epoch-fenced above both incarnations. If the
    /// query cannot complete — partitioned away, message lost, nobody
    /// awake — stay a zombie and retry next round; that is exactly what
    /// makes revival split-brain-safe: a zombie that cannot *reach* the
    /// surviving overlay can never rejoin it, so two owners never
    /// coexist.
    fn try_revive(&mut self, id: NodeId, t: SimTime) -> bool {
        if self.nodes.is_empty() {
            // The overlay died out entirely: no conflicting claim can
            // exist anywhere, so the zombie restarts it as first member
            // (ground truth, not a message exchange).
            let stale = self.zombies.remove(&id).unwrap();
            self.counters.revivals += 1;
            self.silent_since.remove(&id);
            let epoch = stale.epoch();
            self.join_as(id, stale.coord.clone(), epoch, t)
                .expect("first member cannot be inseparable");
            return true;
        }
        let Some(boot) = self
            .nodes
            .keys()
            .copied()
            .filter(|b| !self.frozen_at(*b, t))
            .min()
        else {
            return false; // everyone asleep: retry next round
        };
        // Epoch query and reply, each subject to the network fault
        // model (partitions included).
        self.acct
            .record(MsgKind::Probe, wire::probe_request(self.cfg.dims));
        if self
            .net
            .fate(t, id.0, boot.0, MsgClass::Heartbeat)
            .dropped()
        {
            return false;
        }
        // Query the claim over the zone the zombie last *owned*, not
        // its join coordinate: a relocation take-over leaves a node
        // holding a zone that no longer contains its coordinate, and
        // the expulsion fence is raised over the owned zone. Probing
        // the coordinate there would compare against an unrelated
        // region whose owner legitimately claims below us — wedging
        // revival forever. For a zone that still contains the
        // coordinate the two probes are identical.
        let probe = {
            let zn = &self.zombies[&id];
            if zn.zone().contains(&zn.coord) {
                zn.coord.clone()
            } else {
                zn.zone().center()
            }
        };
        let Some(owner) = self.tree.as_ref().and_then(|tr| tr.owner_at(&probe)) else {
            return false;
        };
        let claim_epoch = self.nodes[&owner].epoch();
        self.acct
            .record(MsgKind::Probe, wire::probe_vouch(self.cfg.dims));
        if self
            .net
            .fate(t, boot.0, id.0, MsgClass::Heartbeat)
            .dropped()
        {
            return false;
        }
        let stale = self.zombies.remove(&id).unwrap();
        if claim_epoch <= stale.epoch() {
            // No higher claim (should not happen under take-over
            // fencing): keep waiting rather than risk two owners.
            self.zombies.insert(id, stale);
            return false;
        }
        self.counters.revivals += 1;
        self.silent_since.remove(&id);
        let base = stale.epoch().max(claim_epoch);
        match self.join_as(id, stale.coord.clone(), base, t) {
            Ok(()) => true,
            Err(_) => {
                // Inseparable split against the current owner: stay a
                // zombie and retry next round.
                self.counters.revivals -= 1;
                self.zombies.insert(id, stale);
                false
            }
        }
    }

    /// Sends one heartbeat round from `id` to everyone it knows, plus
    /// its take-over targets.
    fn send_round(&mut self, id: NodeId, t: SimTime) {
        let Some(tree) = self.tree.as_ref() else {
            return;
        };
        if !tree.contains(id) || self.frozen_at(id, t) {
            return;
        }
        // Round-invariant state, read once per round instead of per
        // message: the take-over plan (at most heir + absorber — pushed
        // straight into scratch, replicating `TakeoverPlan::targets`'s
        // order and dedup), the scheme, and the three wire sizes.
        let mut targets = std::mem::take(&mut self.scratch_targets);
        targets.clear();
        let plan = tree.takeover_plan(id);
        if let Some(h) = plan.heir {
            targets.push(h);
        }
        if let Some(a) = plan.absorber {
            if plan.absorber != plan.heir {
                targets.push(a);
            }
        }
        targets.sort_unstable();
        let mut receivers = std::mem::take(&mut self.scratch_receivers);
        let (payload, zone_dirty) = {
            let n = self.nodes.get_mut(&id).unwrap();
            n.known_neighbors_into(&mut receivers);
            for &tg in &targets {
                if tg != id && !receivers.contains(&tg) {
                    receivers.push(tg);
                }
            }
            let dirty = n.zone_dirty;
            n.zone_dirty = false;
            if dirty {
                // A zone change also announces to the peers the change
                // itself pruned from our table: our record of them may
                // have been the stale side, and without this they would
                // keep a stale record of us until expiry — or forever,
                // if adoption liveness refreshes keep it alive.
                for a in std::mem::take(&mut n.zone_change_audience) {
                    if a != id && !receivers.contains(&a) {
                        receivers.push(a);
                    }
                }
            }
            (n.snapshot(), dirty)
        };
        let d = self.cfg.dims;
        let k = payload.neighbors.len();
        let full_bytes = wire::full_heartbeat(d, k);
        let zone_bytes = wire::zone_update(d);
        let keepalive_bytes = wire::compact_keepalive();
        let is_vanilla = self.cfg.scheme == HeartbeatScheme::Vanilla;
        // Each variant this round can send is built at most once —
        // the full payload not even that, while the sender's content
        // stands (`LocalNode::snapshot`); `post` borrows it per
        // receiver, and a receiver keeps a handle on the payload where
        // it merges it (`LocalNode::merge_payload_records`).
        let zone_msg =
            (!is_vanilla && zone_dirty).then(|| Msg::Zone(id, payload.zone.clone(), payload.epoch));
        let keepalive_msg = Msg::Keepalive(id);
        let full_msg = Msg::Full(payload);
        for &r in &receivers {
            if r == id {
                continue;
            }
            let full = is_vanilla || targets.binary_search(&r).is_ok();
            if full {
                self.acct.record(MsgKind::Heartbeat, full_bytes);
                self.post(id, r, &full_msg, t);
            } else if zone_dirty {
                self.acct.record(MsgKind::Heartbeat, zone_bytes);
                self.post(id, r, zone_msg.as_ref().expect("built when dirty"), t);
            } else {
                self.acct.record(MsgKind::Heartbeat, keepalive_bytes);
                self.post(id, r, &keepalive_msg, t);
            }
        }
        // Warm-standby replication rides the same round: a versioned
        // replica delta to any take-over target whose ack lags.
        self.send_replica_deltas(id, &targets, t);
        // Return the buffers' capacity to the arena for the next round.
        self.scratch_targets = targets;
        self.scratch_receivers = receivers;
    }

    /// Piggybacks warm-standby replication on `id`'s heartbeat round:
    /// brings the replica version up to date with the replicated
    /// content (zone, epoch, confirmed-neighbor summary, aggregate
    /// slice; see [`LocalNode::refresh_replica`]) and ships a
    /// [`Msg::ReplicaDelta`] to every take-over target whose last ack
    /// lags the current version — so steady state costs
    /// nothing beyond the first delivery, and a lost delta is re-sent
    /// on the next round. No-op (and zero-cost) while disarmed.
    fn send_replica_deltas(&mut self, id: NodeId, targets: &[NodeId], t: SimTime) {
        if self.cfg.replication.is_none() || targets.is_empty() {
            return;
        }
        let (payload, lagging) = {
            let Some(n) = self.nodes.get_mut(&id) else {
                return;
            };
            let snap = n.refresh_replica();
            #[cfg(test)]
            {
                let hash = n.replica_hash_scratch();
                let (version, last) = &mut n.replica_reference;
                if *version == 0 || hash != *last {
                    *version += 1;
                    *last = hash;
                }
            }
            let version = n.replica_version;
            let lagging: Vec<NodeId> = targets
                .iter()
                .copied()
                .filter(|tg| *tg != id && n.replica_acked.get(tg).copied().unwrap_or(0) < version)
                .collect();
            if lagging.is_empty() {
                return;
            }
            (
                ReplicaPayload {
                    from: id,
                    zone: snap.zone.clone(),
                    epoch: snap.epoch,
                    version,
                    neighbors: snap.neighbors[..snap.neighbors.len().min(REPLICA_MAX_NEIGHBORS)]
                        .to_vec(),
                    agg: n.agg_slice.clone(),
                },
                lagging,
            )
        };
        let bytes = wire::replica_delta(self.cfg.dims, payload.neighbors.len(), payload.agg.len());
        let msg = Msg::ReplicaDelta(Rc::new(payload));
        for tg in lagging {
            self.acct.record(MsgKind::Replica, bytes);
            self.counters.replica_deltas += 1;
            self.post(id, tg, &msg, t);
        }
    }

    /// Sends targeted take-over repairs: `actor` (a take-over heir,
    /// relocator, or absorber) announces its post-take-over zone and the
    /// departed node's identity to the departed node's former neighbor
    /// list. Vanilla heartbeats already repair through redundant full
    /// payloads; the targeted message is what buys the compact schemes
    /// the same first-hand propagation.
    fn send_repairs(
        &mut self,
        actor: NodeId,
        audience: &[(NodeId, Zone)],
        departed: NodeId,
        t: SimTime,
    ) {
        if self.cfg.scheme == HeartbeatScheme::Vanilla {
            return;
        }
        let Some(tree) = self.tree.as_ref() else {
            return;
        };
        if !tree.contains(actor) || !self.nodes.contains_key(&actor) {
            return;
        }
        let zone = tree.zone(actor).clone();
        let epoch = self.nodes[&actor].epoch();
        let mut recipients: Vec<NodeId> = audience
            .iter()
            .map(|(n, _)| *n)
            .filter(|n| *n != actor && *n != departed && self.nodes.contains_key(n))
            .collect();
        recipients.sort_unstable();
        recipients.dedup();
        let bytes = wire::takeover_repair(self.cfg.dims);
        let msg = Msg::Repair {
            from: actor,
            zone,
            epoch,
            departed,
        };
        for r in recipients {
            self.acct.record(MsgKind::Repair, bytes);
            self.counters.repair_messages += 1;
            self.post(actor, r, &msg, t);
        }
    }

    /// Routes one datagram through the network fault model: it may be
    /// dropped, duplicated, or delayed. Immediate deliveries apply
    /// inline (the fault-free fast path); delayed copies go through the
    /// event queue. Borrows the message — a round's invariant payload
    /// is built once and posted to every receiver; only a *delayed*
    /// copy is cloned, into the in-flight buffer.
    fn post(&mut self, from: NodeId, to: NodeId, msg: &Msg, t: SimTime) {
        if self.net.is_ideal() {
            // An inert fault plan always yields exactly one immediate
            // copy (`fate` would return `Delivery::IMMEDIATE` without
            // touching the RNG or any counter), so skip it entirely.
            self.apply_msg(to, msg, t);
            return;
        }
        let fate = self.net.fate(t, from.0, to.0, msg.class());
        for _ in 0..fate.copies {
            if fate.delay > 0.0 {
                let seq = self.next_msg;
                self.next_msg += 1;
                self.in_flight.insert(seq, (to, msg.clone()));
                self.queue.schedule(t + fate.delay, Ev::Deliver(seq));
            } else {
                self.apply_msg(to, msg, t);
            }
        }
    }

    /// Applies a delivered datagram to the receiver's local state. A
    /// frozen receiver's process is paused, so the message is lost.
    fn apply_msg(&mut self, to: NodeId, msg: &Msg, t: SimTime) {
        if self.frozen_at(to, t) {
            self.counters.frozen_drops += 1;
            return;
        }
        let Some(n) = self.nodes.get_mut(&to) else {
            return; // receiver departed while the message was in flight
        };
        self.counters.delivered += 1;
        // When a zone-carrying message comes from a peer we did not
        // know, introduce ourselves back. The sender has us in its
        // table (or it would not have sent), but its record of our zone
        // may be stale — and because *we* did not know it, none of our
        // past zone announcements ever reached it, and our future
        // compact traffic to it carries no zone either. Only an
        // *accepted* (abutting) announcement earns the reply, which
        // bounds the exchange: a rejected one means we are not
        // neighbors and there is no record to keep fresh.
        let mut introduce_to: Option<(NodeId, Zone, u64)> = None;
        let mut probe_sends: Vec<(NodeId, Msg)> = Vec::new();
        let mut ack_to: Option<(NodeId, Msg)> = None;
        match msg {
            Msg::Full(payload) => {
                self.counters.repairs += n.merge_payload_records(payload, t) as u64;
            }
            Msg::Zone(from, zone, epoch) => {
                let unknown = !n.table().contains_key(from);
                n.hear_fenced(*from, zone, *epoch, t);
                if unknown && n.table().contains_key(from) {
                    introduce_to = Some((*from, n.zone().clone(), n.epoch()));
                }
            }
            Msg::Keepalive(from) => {
                if !n.hear_keepalive(*from, t) {
                    // Ghost traffic: typically an expelled-but-alive
                    // node still heartbeating at peers that already
                    // evicted it. Counted so the detector experiment
                    // can report it instead of losing the signal.
                    self.acct.stale_keepalives += 1;
                    // A keepalive stream from a node we do not know is
                    // also the one *retried* signal out of a torn
                    // link: the sender has us in its table, but its
                    // zone announcements never reached us (a dropped
                    // split announce can even leave us holding a stale
                    // covering zone for its split partner, hiding the
                    // gap from adaptive probing) — and keepalives
                    // carry no zone to heal with. Ping back so it
                    // answers with a first-hand zone announcement; the
                    // hear-side epoch fence still rejects any replaced
                    // incarnation, so an expelled ghost cannot talk
                    // its way back in.
                    probe_sends.push((*from, Msg::ProbePing { origin: to }));
                }
            }
            Msg::Repair {
                from,
                zone,
                epoch,
                departed,
            } => {
                n.forget(*departed);
                n.drop_cached_payload(*departed);
                // The departed zone has a new owner: any warm replica
                // of the old incarnation is now useless (and the fence
                // would reject it anyway).
                n.replicas.remove(departed);
                n.hear_fenced(*from, zone, *epoch, t);
                // A repair always earns a reply: the take-over actor
                // inherited the departed node's records of its former
                // neighborhood — us included — and adopted records can
                // be arbitrarily stale. Our reply is the actor's one
                // chance to refresh them first-hand; its keepalives to
                // us would otherwise keep a stale adopted zone alive
                // indefinitely.
                introduce_to = Some((*from, n.zone().clone(), n.epoch()));
            }
            Msg::ProbeReq { origin, suspect } => {
                if self.cfg.detector.is_some() {
                    if let Some(e) = n.table().get(suspect) {
                        let thr =
                            e.suspicion_timeout(self.cfg.heartbeat_period, self.cfg.fail_timeout);
                        if e.confirmed && t - e.last_heard <= thr {
                            // We heard the suspect recently enough to
                            // vouch for it: one lossy origin→suspect
                            // link must not expel a live node.
                            probe_sends.push((
                                *origin,
                                Msg::ProbeVouch {
                                    suspect: *suspect,
                                    zone: e.zone.clone(),
                                    epoch: e.epoch,
                                    heard_at: e.last_heard,
                                },
                            ));
                        }
                        // Relay a ping either way: a live suspect
                        // answers the origin directly with a fresher
                        // zone update than any vouch.
                        probe_sends.push((*suspect, Msg::ProbePing { origin: *origin }));
                    }
                }
            }
            Msg::ProbePing { origin } => {
                // We are the suspect and evidently alive: answer the
                // suspecting origin directly with our zone and epoch.
                introduce_to = Some((*origin, n.zone().clone(), n.epoch()));
            }
            Msg::ProbeVouch {
                suspect,
                zone,
                epoch,
                heard_at,
            } => {
                self.counters.probe_vouches += 1;
                n.hear_vouch(*suspect, zone, *epoch, *heard_at);
            }
            Msg::ReplicaDelta(rp) => {
                if self.cfg.replication.is_some() {
                    let accepted = n.store_replica(
                        rp.from,
                        ZoneReplica {
                            zone: rp.zone.clone(),
                            epoch: rp.epoch,
                            version: rp.version,
                            neighbors: rp.neighbors.clone(),
                            agg: rp.agg.clone(),
                            stored_at: t,
                        },
                    );
                    if accepted {
                        ack_to = Some((
                            rp.from,
                            Msg::ReplicaAck {
                                from: to,
                                owner: rp.from,
                                epoch: rp.epoch,
                                version: rp.version,
                            },
                        ));
                    } else {
                        // A delayed or duplicated delta arriving behind
                        // a fresher one: the store fence holds, no ack
                        // (the owner already has a newer one or will
                        // re-send next round).
                        self.counters.stale_replica_rejects += 1;
                    }
                }
            }
            Msg::ReplicaAck {
                from,
                owner,
                epoch,
                version,
            } => {
                debug_assert_eq!(*owner, to, "an ack is routed back to its owner");
                debug_assert!(
                    *epoch <= n.epoch(),
                    "an acked epoch cannot exceed the owner's own"
                );
                let e = n.replica_acked.entry(*from).or_insert(0);
                *e = (*e).max(*version);
            }
        }
        for (dest, pm) in probe_sends {
            let bytes = match pm {
                Msg::ProbeVouch { .. } => wire::probe_vouch(self.cfg.dims),
                _ => wire::probe_request(self.cfg.dims),
            };
            self.acct.record(MsgKind::Probe, bytes);
            self.post(to, dest, &pm, t);
        }
        if let Some((peer, own_zone, own_epoch)) = introduce_to {
            self.acct
                .record(MsgKind::Heartbeat, wire::zone_update(self.cfg.dims));
            self.post(to, peer, &Msg::Zone(to, own_zone, own_epoch), t);
        }
        if let Some((owner, ack)) = ack_to {
            self.acct.record(MsgKind::Replica, wire::replica_ack());
            self.counters.replica_acks += 1;
            self.post(to, owner, &ack, t);
        }
    }

    /// Runs an adaptive full-update request/response round for `id` if
    /// it flagged a suspected broken link.
    fn maybe_full_update(&mut self, id: NodeId, t: SimTime) {
        if self.cfg.scheme != HeartbeatScheme::Adaptive {
            return;
        }
        let wants = self.nodes.get(&id).is_some_and(|n| n.wants_full_update);
        if !wants || self.frozen_at(id, t) {
            return;
        }
        self.counters.full_update_rounds += 1;
        // Ask everyone still in the table, plus our take-over targets:
        // after a deep decay (e.g. thawing from a long freeze) the table
        // may be empty, and the targets are the one set of peers a node
        // can always re-derive from the split history.
        let receivers = {
            let n = self.nodes.get_mut(&id).unwrap();
            n.wants_full_update = false;
            let mut v = n.known_neighbors();
            if let Some(tree) = self.tree.as_ref() {
                for tg in tree.takeover_plan(id).targets() {
                    if tg != id && !v.contains(&tg) {
                        v.push(tg);
                    }
                }
            }
            v.sort_unstable();
            v
        };
        let d = self.cfg.dims;
        // Loop-invariant: nothing below changes the requester's zone or
        // epoch (responses only merge into its *table*), so clone once.
        let Some((requester_zone, requester_epoch)) =
            self.nodes.get(&id).map(|n| (n.zone().clone(), n.epoch()))
        else {
            return;
        };
        for r in receivers {
            self.acct
                .record(MsgKind::FullUpdateRequest, wire::full_update_request(d));
            if self.net.fate(t, id.0, r.0, MsgClass::FullUpdate).dropped() {
                continue; // request dropped in flight
            }
            if self.frozen_at(r, t) {
                self.counters.frozen_drops += 1;
                continue; // responder paused: request falls on deaf ears
            }
            // Both endpoints of the synchronous exchange at once: the
            // response is merged straight from the responder's table
            // (`merge_from_node`) instead of materializing a snapshot
            // payload per responder. `receivers` never contains `id`,
            // so the keys are disjoint.
            let [requester, responder] = self.nodes.get_disjoint_mut([&id, &r]);
            let Some(rn) = responder else {
                continue; // receiver is gone
            };
            // The request carries the requester's identity and zone
            // (see `wire::full_update_request`): first-hand news
            // for the responder — this is how a node that everyone
            // expired (e.g. thawing from a long freeze) re-introduces
            // itself to peers whose keepalives could never re-add it.
            rn.hear_fenced(id, &requester_zone, requester_epoch, t);
            let k = rn.table().values().filter(|e| e.confirmed).count();
            self.acct.record(
                MsgKind::FullUpdateResponse,
                wire::full_update_response(d, k),
            );
            if self.net.fate(t, r.0, id.0, MsgClass::FullUpdate).dropped() {
                continue; // response dropped in flight
            }
            if let Some(n) = requester {
                self.counters.repairs += n.merge_from_node(rn, t) as u64;
            }
        }
        // Routed gap probe: when the request round could not close a
        // boundary gap, nobody this node still knows can name the
        // missing neighbor — after a long partition both sides may have
        // expired each other completely, and table-gossip cannot carry
        // a record across a gap in the very tables it travels through.
        // The node instead routes a "who owns this point?" probe toward
        // an uncovered sample just outside its zone, exactly like a
        // join request is routed; the owner introduces itself and
        // learns the prober in return. Level-triggered detection
        // retries next round if the probe is lost or routing stalls.
        let Some(p) = self
            .nodes
            .get_mut(&id)
            .and_then(|n| n.boundary_gap_sample_cached())
        else {
            return;
        };
        let Ok(route) = self.route_probe(id, &p, t) else {
            return; // probe walk stalled: tables too decayed, retry
        };
        if route.owner == id {
            return;
        }
        self.counters.gap_probes += 1;
        for _ in 0..route.hops.max(1) {
            self.acct
                .record(MsgKind::FullUpdateRequest, wire::full_update_request(d));
            if self
                .net
                .fate(t, id.0, route.owner.0, MsgClass::FullUpdate)
                .dropped()
            {
                return; // probe lost on some hop
            }
        }
        if self.frozen_at(route.owner, t) {
            self.counters.frozen_drops += 1;
            return;
        }
        let Some((prober_zone, prober_epoch)) =
            self.nodes.get(&id).map(|n| (n.zone().clone(), n.epoch()))
        else {
            return;
        };
        if let Some(on) = self.nodes.get_mut(&route.owner) {
            on.hear_fenced(id, &prober_zone, prober_epoch, t);
            let owner_zone = on.zone().clone();
            let owner_epoch = on.epoch();
            self.acct.record(MsgKind::Heartbeat, wire::zone_update(d));
            self.post(
                route.owner,
                id,
                &Msg::Zone(route.owner, owner_zone, owner_epoch),
                t,
            );
        }
    }

    /// Walks a gap probe toward `p` over the nodes' local tables. Like
    /// [`crate::routing::route_local`] each hop consults only what the
    /// current node knows, but the walk is best-first rather than
    /// strictly greedy: the probe targets a point a hair outside the
    /// prober's own boundary, so the first hop is already a "lateral"
    /// move that strict monotone progress would reject — and after a
    /// partition the recorded zones near the gap are stale enough to
    /// lead a pure greedy walk into dead ends. The walker therefore
    /// keeps a frontier of every candidate seen so far and always
    /// expands the globally closest one (backtracking to an earlier
    /// branch when the current one is exhausted), so it finds the
    /// owner whenever *any* chain of table records reaches it. A hop
    /// budget bounds the walk; dead ends fail the probe (the
    /// level-triggered gap check retries next round), reporting the
    /// hops walked — a walk that exhausts the overlay, because no live
    /// node's *local* zone contains `p` yet (its owner is a crash
    /// take-over still waiting out the failure timeout), visits every
    /// reachable node exactly once.
    fn route_probe(
        &self,
        start: NodeId,
        p: &Point,
        t: SimTime,
    ) -> Result<crate::routing::Route, usize> {
        let mut current = start;
        let mut hops = 0usize;
        let max_hops = 4 * (self.nodes.len() + 4);
        let mut visited = IdSet::default();
        visited.insert(start);
        // Candidates discovered but not yet walked, by *recorded* zone
        // distance to `p` (stale records give stale distances; the
        // global frontier makes that a detour, not a dead end). A
        // min-heap on (distance, id); distances are non-negative, so
        // their bit patterns order exactly as they do.
        let candidate = |zone: &Zone, n: NodeId| Reverse((zone.distance_to(p).to_bits(), n));
        let mut frontier = BinaryHeap::new();
        // Seed the frontier with the prober's take-over targets: a node
        // whose table fully decayed (a long partition can leave one
        // completely forgotten *and* completely amnesiac) can still
        // re-derive these peers — and their zones — from the split
        // history, the same lifeline the request round uses. Without
        // this seed such a node's walk starts with an empty frontier
        // and the gap can never close from either side.
        if let Some(tree) = self.tree.as_ref() {
            for tg in tree.takeover_plan(start).targets() {
                if tg != start && !self.frozen_at(tg, t) {
                    if let Some(tn) = self.nodes.get(&tg) {
                        frontier.push(candidate(tn.zone(), tg));
                    }
                }
            }
        }
        // Last-resort rendezvous: every CAN deployment keeps well-known
        // bootstrap entry points that joins route through. A partition
        // can reduce mutually-adjacent victims to an island — known
        // only to each other, with even their take-over targets inside
        // the island — and such a node re-enters the overlay the way a
        // joiner would: through the bootstrap. Modeled as the lowest-id
        // live, awake member.
        if let Some(boot) = self
            .nodes
            .keys()
            .copied()
            .filter(|b| *b != start && !self.frozen_at(*b, t))
            .min()
        {
            let bn = &self.nodes[&boot];
            frontier.push(candidate(bn.zone(), boot));
        }
        loop {
            let node = self.nodes.get(&current).ok_or(hops)?;
            if node.zone().contains(p) {
                return Ok(crate::routing::Route {
                    owner: current,
                    hops,
                });
            }
            if hops >= max_hops {
                return Err(hops);
            }
            for (&n, e) in node.table() {
                // A dead or frozen entry is an unacknowledged forward:
                // the walker never expands it.
                if !visited.contains(&n) && self.nodes.contains_key(&n) && !self.frozen_at(n, t) {
                    frontier.push(candidate(&e.zone, n));
                }
            }
            // Pop the closest unvisited candidate: (min distance, min
            // id) — deterministic.
            current = loop {
                let Reverse((_, n)) = frontier.pop().ok_or(hops)?;
                if visited.insert(n) {
                    break n;
                }
            };
            hops += 1;
        }
    }

    /// Whether the split tree is sound ([`SplitTree::audit`]); so is an
    /// empty CAN.
    pub(crate) fn tree_is_sound(&self) -> bool {
        self.tree.as_ref().is_none_or(|t| t.audit().is_ok())
    }

    /// Panics unless the ground-truth structures agree with each other:
    /// the split tree is sound, the incremental adjacency is the
    /// abutment graph of its leaves, every member's recorded zones abut
    /// its own, members and zombies are disjoint. O(n·d + edges + table
    /// rows · d); the schedule executor calls it at every heartbeat
    /// boundary.
    pub fn check_invariants(&self) {
        if let Some(tree) = &self.tree {
            tree.check_invariants();
            let agrees = self.adj.matches_tree(tree);
            debug_assert_eq!(
                agrees,
                self.adj
                    .same_as(&Adjacency::recompute(tree.members(), |n| tree.zone(n))),
                "the tree-driven adjacency check disagrees with the all-pairs one"
            );
            assert!(agrees, "incremental adjacency diverged from recomputation");
            assert_eq!(tree.len(), self.nodes.len(), "membership out of sync");
        } else {
            assert!(self.nodes.is_empty());
        }
        // H4: every recorded zone abuts the own zone (what lets
        // `LocalNode::hear_fenced` skip the test for an unchanged one),
        // across the face the record names (what lets gap detection
        // hand each face only the zones across it).
        for (id, n) in &self.nodes {
            for (m, e) in n.table() {
                let face = face_across(n.zone(), &e.zone);
                assert!(face.is_some(), "{id}: recorded zone of {m} does not abut");
                assert_eq!(
                    face,
                    Some(e.face),
                    "{id}: record of {m} names face {} but abuts across another",
                    e.face
                );
            }
        }
        for z in self.zombies.keys() {
            assert!(
                !self.nodes.contains_key(z),
                "zombie {z:?} is simultaneously a live member"
            );
            assert!(
                self.tree.as_ref().is_none_or(|tr| !tr.contains(*z)),
                "zombie {z:?} still owns a zone"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgrid_simcore::SimRng;

    fn uniform_coord(rng: &mut SimRng, d: usize) -> Point {
        (0..d).map(|_| rng.unit()).collect()
    }

    fn build(scheme: HeartbeatScheme, n: usize, d: usize, seed: u64) -> (CanSim, SimRng) {
        let mut sim = CanSim::new(ProtocolConfig::new(d, scheme)).expect("valid protocol config");
        let mut rng = SimRng::seed_from_u64(seed);
        let mut joined = 0;
        while joined < n {
            let c = uniform_coord(&mut rng, d);
            if sim.join(c).is_ok() {
                joined += 1;
            }
            sim.advance_to(sim.now() + 1.0);
        }
        (sim, rng)
    }

    #[test]
    fn sequential_joins_leave_no_broken_links() {
        for scheme in HeartbeatScheme::ALL {
            let (sim, _) = build(scheme, 60, 4, 7);
            sim.check_invariants();
            assert_eq!(
                sim.broken_links(),
                0,
                "{} should have no broken links after clean joins",
                scheme.label()
            );
        }
    }

    #[test]
    #[should_panic(expected = "does not abut")]
    fn check_invariants_catches_a_recorded_zone_that_does_not_abut() {
        let (mut sim, _) = build(HeartbeatScheme::Vanilla, 20, 3, 7);
        sim.check_invariants();
        let id = sim.members()[0];
        let truth = sim.true_neighbors(id);
        let far = sim
            .members()
            .into_iter()
            .find(|m| *m != id && !truth.contains(m))
            .expect("a member that does not abut");
        let zone = sim.local(far).unwrap().zone().clone();
        sim.nodes.get_mut(&id).unwrap().plant_record(far, zone);
        sim.check_invariants();
    }

    #[test]
    fn tables_match_ground_truth_after_bootstrap() {
        let (sim, _) = build(HeartbeatScheme::Compact, 40, 3, 11);
        for id in sim.members() {
            let truth = sim.true_neighbors(id);
            for q in &truth {
                assert!(
                    sim.local(id).unwrap().table().contains_key(q),
                    "{id} missing true neighbor {q}"
                );
            }
        }
    }

    #[test]
    fn slow_churn_keeps_all_schemes_clean() {
        // Events spaced wider than the heartbeat period: the paper's
        // "no simultaneous events" regime — zero broken links for all
        // three schemes.
        for scheme in HeartbeatScheme::ALL {
            let (mut sim, mut rng) = build(scheme, 50, 4, 13);
            for step in 0..80 {
                sim.advance_to(sim.now() + 200.0); // > period (60) and timeout (150)
                if step % 2 == 0 {
                    let _ = sim.join(uniform_coord(&mut rng, 4));
                } else {
                    let members = sim.members();
                    let victim = members[rng.below(members.len())];
                    sim.leave(victim, true);
                }
            }
            sim.advance_to(sim.now() + 500.0);
            sim.check_invariants();
            assert_eq!(
                sim.broken_links(),
                0,
                "{} broke under slow churn",
                scheme.label()
            );
        }
    }

    #[test]
    fn high_churn_orders_schemes_by_resilience() {
        // Many events per heartbeat period: vanilla repairs best,
        // compact worst, adaptive in between (close to vanilla).
        let mut broken = Vec::new();
        for scheme in HeartbeatScheme::ALL {
            let (mut sim, mut rng) = build(scheme, 150, 4, 17);
            sim.advance_to(sim.now() + 300.0);
            for _ in 0..1200 {
                sim.advance_to(sim.now() + 7.0); // several events per 60 s period
                if rng.chance(0.5) {
                    let _ = sim.join(uniform_coord(&mut rng, 4));
                } else {
                    let members = sim.members();
                    if members.len() > 20 {
                        let victim = members[rng.below(members.len())];
                        sim.leave(victim, rng.chance(0.5));
                    }
                }
            }
            sim.check_invariants();
            broken.push((scheme, sim.broken_links()));
        }
        let get = |s: HeartbeatScheme| {
            broken
                .iter()
                .find(|(sch, _)| *sch == s)
                .map(|(_, b)| *b)
                .unwrap()
        };
        let v = get(HeartbeatScheme::Vanilla);
        let c = get(HeartbeatScheme::Compact);
        let a = get(HeartbeatScheme::Adaptive);
        assert!(c > 0, "high churn should break some links under compact");
        assert!(
            v <= c,
            "vanilla ({v}) should be at least as resilient as compact ({c})"
        );
        assert!(
            a <= c,
            "adaptive ({a}) should be at least as resilient as compact ({c})"
        );
    }

    #[test]
    fn compact_volume_is_much_smaller_than_vanilla() {
        let mut rates = Vec::new();
        for scheme in [HeartbeatScheme::Vanilla, HeartbeatScheme::Compact] {
            let (mut sim, _) = build(scheme, 100, 8, 23);
            sim.reset_accounting();
            sim.advance_to(sim.now() + 1200.0); // 20 heartbeat rounds
            rates.push(sim.accounting().heartbeat_kb_per_node_min());
        }
        assert!(
            rates[0] > 4.0 * rates[1],
            "vanilla {:.1} KB/min should dwarf compact {:.1} KB/min",
            rates[0],
            rates[1]
        );
    }

    #[test]
    fn message_counts_are_scheme_insensitive() {
        let mut counts = Vec::new();
        for scheme in HeartbeatScheme::ALL {
            let (mut sim, _) = build(scheme, 100, 8, 29);
            sim.reset_accounting();
            sim.advance_to(sim.now() + 1200.0);
            counts.push(sim.accounting().heartbeat_msgs_per_node_min());
        }
        // Within 25% of each other (adaptive may add a few requests).
        let max = counts.iter().cloned().fold(f64::MIN, f64::max);
        let min = counts.iter().cloned().fold(f64::MAX, f64::min);
        assert!(
            max / min < 1.25,
            "message counts should be close: {counts:?}"
        );
    }

    #[test]
    fn neighbor_zone_records_match_truth_after_rounds() {
        // After churn settles, every confirmed table entry's recorded
        // zone must equal the neighbor's ground-truth zone (zone
        // updates propagate correctly in every scheme).
        // Seed 41 used to hit a Compact edge where one takeover's zone
        // change never reached an existing neighbor's record; the
        // targeted repair message closed it, so it is back in the pool.
        for seed in [41, 42] {
            for scheme in HeartbeatScheme::ALL {
                let (mut sim, mut rng) = build(scheme, 60, 3, seed);
                for _ in 0..30 {
                    sim.advance_to(sim.now() + 250.0);
                    if rng.chance(0.5) {
                        let _ = sim.join(uniform_coord(&mut rng, 3));
                    } else {
                        let members = sim.members();
                        sim.leave(members[rng.below(members.len())], true);
                    }
                }
                sim.advance_to(sim.now() + 400.0); // settle past timeout
                for id in sim.members() {
                    let truth_nbrs = sim.true_neighbors(id);
                    let local = sim.local(id).unwrap();
                    for q in &truth_nbrs {
                        let e = local.table().get(q).unwrap_or_else(|| {
                            panic!("{} seed {seed}: {id} missing {q}", scheme.label())
                        });
                        assert_eq!(
                            &e.zone,
                            sim.zone(*q),
                            "{} seed {seed}: {id}'s record of {q}'s zone is stale",
                            scheme.label()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn seed_41_compact_converges_within_one_heartbeat_period() {
        // The old defect: under Compact, a takeover-driven zone change
        // could permanently miss an existing neighbor's record (zone
        // updates only reach the heir's own table; keepalives carry no
        // zone; second-hand merges never refresh known entries). The
        // targeted repair message announces the change to the departed
        // node's former neighborhood directly, so every surviving
        // record is correct within one heartbeat period of the last
        // churn event — no long settle needed.
        let (mut sim, mut rng) = build(HeartbeatScheme::Compact, 60, 3, 41);
        for _ in 0..30 {
            sim.advance_to(sim.now() + 250.0);
            if rng.chance(0.5) {
                let _ = sim.join(uniform_coord(&mut rng, 3));
            } else {
                let members = sim.members();
                sim.leave(members[rng.below(members.len())], true);
            }
        }
        let period = sim.config().heartbeat_period;
        sim.advance_to(sim.now() + period + 1.0);
        assert!(
            sim.counters().repair_messages > 0,
            "takeovers must send repairs"
        );
        for id in sim.members() {
            let local = sim.local(id).unwrap();
            for q in &sim.true_neighbors(id) {
                if let Some(e) = local.table().get(q) {
                    assert_eq!(
                        &e.zone,
                        sim.zone(*q),
                        "stale record of {q} at {id} survived one period"
                    );
                }
            }
        }
    }

    #[test]
    fn message_loss_zero_is_default_and_noop() {
        let cfg = ProtocolConfig::new(4, HeartbeatScheme::Compact);
        assert_eq!(cfg.message_loss, 0.0);
        let (mut sim, _) = build(HeartbeatScheme::Compact, 30, 4, 43);
        sim.advance_to(sim.now() + 600.0);
        assert_eq!(sim.dropped_messages(), 0);
    }

    #[test]
    fn message_loss_drops_and_counts() {
        let mut sim =
            CanSim::new(ProtocolConfig::new(3, HeartbeatScheme::Vanilla).with_message_loss(0.5))
                .expect("valid protocol config");
        let mut rng = SimRng::seed_from_u64(47);
        let mut joined = 0;
        while joined < 30 {
            if sim.join(uniform_coord(&mut rng, 3)).is_ok() {
                joined += 1;
            }
        }
        sim.advance_to(sim.now() + 600.0);
        let dropped = sim.dropped_messages();
        let sent = sim.accounting().total().messages;
        assert!(dropped > 0);
        let rate = dropped as f64 / sent as f64;
        assert!(
            (0.4..0.6).contains(&rate),
            "drop rate {rate} should be ~0.5 of {sent} sent"
        );
    }

    #[test]
    fn message_loss_exercises_join_and_handoff_paths() {
        // Regression for the old model where only heartbeat-class
        // traffic could be dropped: joins and handoffs are now lossy
        // acknowledged exchanges. Dropped transmissions are counted per
        // class, retried, and the exchange still succeeds.
        let mut sim =
            CanSim::new(ProtocolConfig::new(3, HeartbeatScheme::Compact).with_message_loss(0.5))
                .expect("valid protocol config");
        let mut rng = SimRng::seed_from_u64(53);
        let mut joined = 0;
        while joined < 40 {
            if sim.join(uniform_coord(&mut rng, 3)).is_ok() {
                joined += 1;
            }
            sim.advance_to(sim.now() + 1.0);
        }
        assert_eq!(sim.len(), 40, "every dropped-join retry must succeed");
        for _ in 0..10 {
            let members = sim.members();
            sim.leave(members[rng.below(members.len())], true);
            sim.advance_to(sim.now() + 200.0);
        }
        assert_eq!(sim.len(), 30);
        let join_drops = sim.dropped_by_class(MsgClass::Join);
        let handoff_drops = sim.dropped_by_class(MsgClass::Handoff);
        let heartbeat_drops = sim.dropped_by_class(MsgClass::Heartbeat);
        assert!(join_drops > 0, "join exchanges must be subject to loss");
        assert!(handoff_drops > 0, "handoffs must be subject to loss");
        assert!(heartbeat_drops > 0);
        assert_eq!(
            sim.dropped_messages(),
            join_drops
                + handoff_drops
                + heartbeat_drops
                + sim.dropped_by_class(MsgClass::FullUpdate),
            "dropped_messages must count all classes"
        );
        // Retransmissions are charged: more join bytes than a lossless
        // run of the same schedule would record.
        sim.check_invariants();
    }

    #[test]
    fn frozen_node_pauses_and_thaws() {
        let (mut sim, _) = build(HeartbeatScheme::Vanilla, 30, 3, 61);
        sim.advance_to(sim.now() + 120.0);
        let victim = sim.members()[5];
        // Freeze past the failure timeout: neighbors expire the victim,
        // and the victim (paused) expires no one until it thaws.
        sim.freeze(victim, 400.0);
        assert!(sim.is_frozen(victim));
        sim.advance_to(sim.now() + 200.0);
        let broken_mid = sim.broken_links();
        assert!(
            broken_mid > 0,
            "a long freeze must open broken links while frozen"
        );
        assert!(
            sim.counters().frozen_drops > 0,
            "messages to a frozen node die"
        );
        // Thaw and give vanilla's redundant full payloads time to
        // re-install the victim everywhere (and vice versa).
        sim.advance_to(sim.now() + 800.0);
        assert!(!sim.is_frozen(victim));
        assert_eq!(
            sim.broken_links(),
            0,
            "vanilla must fully re-absorb a thawed node"
        );
        sim.check_invariants();
    }

    #[test]
    fn adaptive_reabsorbs_thawed_node() {
        let (mut sim, _) = build(HeartbeatScheme::Adaptive, 40, 3, 67);
        sim.advance_to(sim.now() + 120.0);
        let victim = sim.members()[7];
        sim.freeze(victim, 400.0);
        sim.advance_to(sim.now() + 1200.0);
        assert_eq!(
            sim.broken_links(),
            0,
            "adaptive full updates must re-absorb a thawed node"
        );
        assert!(sim.full_update_rounds() > 0);
        sim.check_invariants();
    }

    #[test]
    fn duplicated_messages_are_idempotent() {
        let net = NetworkModel::ideal(0x0D0D).with_class(
            MsgClass::Heartbeat,
            pgrid_simcore::fault::ClassFaults {
                duplicate: 0.5,
                ..pgrid_simcore::fault::ClassFaults::IDEAL
            },
        );
        let mut cfg = ProtocolConfig::new(3, HeartbeatScheme::Compact);
        cfg.net = Some(net);
        let mut sim = CanSim::new(cfg).expect("valid protocol config");
        let mut rng = SimRng::seed_from_u64(71);
        let mut joined = 0;
        while joined < 30 {
            if sim.join(uniform_coord(&mut rng, 3)).is_ok() {
                joined += 1;
            }
            sim.advance_to(sim.now() + 1.0);
        }
        sim.advance_to(sim.now() + 600.0);
        assert!(sim.duplicated_messages() > 0);
        assert_eq!(sim.broken_links(), 0, "duplicates must be harmless");
        sim.check_invariants();
    }

    #[test]
    fn latency_jitter_delays_but_delivers() {
        let net = NetworkModel::ideal(0x7A77).with_class(
            MsgClass::Heartbeat,
            pgrid_simcore::fault::ClassFaults {
                delay: 0.2,
                jitter: 1.0,
                ..pgrid_simcore::fault::ClassFaults::IDEAL
            },
        );
        let mut cfg = ProtocolConfig::new(3, HeartbeatScheme::Compact);
        cfg.net = Some(net);
        let mut sim = CanSim::new(cfg).expect("valid protocol config");
        let mut rng = SimRng::seed_from_u64(73);
        let mut joined = 0;
        while joined < 30 {
            if sim.join(uniform_coord(&mut rng, 3)).is_ok() {
                joined += 1;
            }
            sim.advance_to(sim.now() + 2.0);
        }
        sim.advance_to(sim.now() + 600.0);
        assert_eq!(
            sim.broken_links(),
            0,
            "sub-second latency must not break links on a 60 s period"
        );
        assert_eq!(sim.dropped_messages(), 0);
        sim.check_invariants();
    }

    #[test]
    fn partition_breaks_links_then_heals() {
        // A partition outliving the fail timeout makes both sides
        // expire each other completely. Full-heartbeat gossip cannot
        // always repair that: a record only travels between nodes that
        // already share a link, so knowledge of an island node spreads
        // no further than the connected patch of its neighbor shell
        // that some take-over-target bridge happens to seed. Only the
        // adaptive scheme — whose routed gap probes ask the overlay
        // "who owns this uncovered point?" — is asserted to heal to
        // zero; vanilla recovers partially, compact decays (Figure 7).
        for scheme in HeartbeatScheme::ALL {
            let (mut sim, _) = build(scheme, 40, 3, 79);
            sim.advance_to(sim.now() + 120.0);
            // Isolate a third of the members for 3 failure timeouts.
            let island: Vec<u32> = sim.members().iter().take(13).map(|n| n.0).collect();
            let start = sim.now();
            sim.network_mut()
                .add_partition(pgrid_simcore::fault::Partition::isolate(
                    island,
                    start,
                    start + 450.0,
                ));
            sim.advance_to(start + 400.0);
            let during = sim.broken_links();
            assert!(
                during > 0,
                "{}: a partition outliving the fail timeout must break links",
                scheme.label()
            );
            assert!(sim.network().partition_drops() > 0);
            sim.advance_to(start + 450.0 + 1000.0);
            let after = sim.broken_links();
            match scheme {
                HeartbeatScheme::Adaptive => {
                    assert_eq!(after, 0, "adaptive heals fully after the window");
                    assert!(sim.gap_probes() > 0, "healing must use routed gap probes");
                }
                HeartbeatScheme::Vanilla => {
                    assert!(
                        after < during,
                        "vanilla gossip recovers at least the bridged links \
                         ({after} vs {during} during the partition)"
                    );
                }
                HeartbeatScheme::Compact => {
                    assert!(
                        after > 0,
                        "compact keepalives cannot re-add expired entries"
                    );
                }
            }
            sim.check_invariants();
        }
    }

    #[test]
    fn join_error_on_identical_coordinate() {
        let mut sim = CanSim::new(ProtocolConfig::new(3, HeartbeatScheme::Vanilla))
            .expect("valid protocol config");
        sim.join(vec![0.5, 0.5, 0.5]).unwrap();
        let err = sim.join(vec![0.5, 0.5, 0.5]);
        assert_eq!(err, Err(JoinError::Inseparable));
    }

    #[test]
    fn empty_can_after_all_leave() {
        let mut sim = CanSim::new(ProtocolConfig::new(2, HeartbeatScheme::Compact))
            .expect("valid protocol config");
        let a = sim.join(vec![0.2, 0.2]).unwrap();
        let b = sim.join(vec![0.8, 0.8]).unwrap();
        sim.leave(a, true);
        sim.leave(b, true);
        assert!(sim.is_empty());
        sim.check_invariants();
        // And it can be repopulated.
        let c = sim.join(vec![0.5, 0.5]).unwrap();
        assert!(sim.is_member(c));
        assert_eq!(sim.owner_at(&vec![0.1, 0.9]), Some(c));
    }

    #[test]
    fn graceful_leave_transfers_zone_to_heir() {
        let mut sim = CanSim::new(ProtocolConfig::new(2, HeartbeatScheme::Compact))
            .expect("valid protocol config");
        let a = sim.join(vec![0.25, 0.5]).unwrap();
        let b = sim.join(vec![0.75, 0.5]).unwrap();
        sim.leave(b, true);
        assert_eq!(sim.owner_at(&vec![0.9, 0.5]), Some(a));
        assert_eq!(sim.broken_links(), 0);
    }

    #[test]
    fn crash_heir_recovers_from_cached_payload() {
        // After at least one heartbeat round, the heir holds the
        // crashed node's payload and rebuilds the merged zone's
        // neighborhood without broken links.
        let (mut sim, _) = build(HeartbeatScheme::Compact, 30, 3, 31);
        sim.advance_to(sim.now() + 120.0); // everyone heartbeats
        let victim = sim.members()[10];
        sim.leave(victim, false); // crash
        sim.advance_to(sim.now() + 200.0);
        sim.check_invariants();
        assert_eq!(sim.broken_links(), 0, "cached payload should suffice");
    }

    #[test]
    fn probe_toward_an_unclaimed_point_walks_every_node_once() {
        // Between a crash and its deferred take-over, ground truth has
        // already given the victim's zone to its heir, but no live
        // node's *local* zone contains it: a gap probe aimed there
        // cannot terminate early. It must exhaust the overlay — one
        // hop per node besides the prober — and then give up.
        let (mut sim, _) = build(HeartbeatScheme::Adaptive, 40, 3, 37);
        sim.advance_to(sim.now() + 120.0);
        let victim = sim.members()[10];
        let p = sim.zone(victim).center();
        sim.leave(victim, false); // crash
        assert!(sim.owner_at(&p).is_some(), "ground truth moved on");
        let t = sim.now();
        assert!(
            sim.members()
                .iter()
                .all(|&m| !sim.local(m).unwrap().zone().contains(&p)),
            "no local zone claims the point before the take-over applies"
        );
        for start in sim.members() {
            assert_eq!(
                sim.route_probe(start, &p, t),
                Err(sim.len() - 1),
                "walk from {start}"
            );
        }
        // Once the heir has taken over, the same probe finds it.
        sim.advance_to(t + 200.0);
        let owner = sim.owner_at(&p).unwrap();
        for start in sim.members() {
            assert_eq!(
                sim.route_probe(start, &p, sim.now()).map(|r| r.owner),
                Ok(owner)
            );
        }
    }

    // ---- failure detector, expulsion, and revival ----

    fn build_detector(det: DetectorConfig, n: usize, seed: u64) -> (CanSim, SimRng) {
        let mut cfg = ProtocolConfig::new(3, HeartbeatScheme::Adaptive);
        cfg.detector = Some(det);
        let mut sim = CanSim::new(cfg).expect("valid protocol config");
        let mut rng = SimRng::seed_from_u64(seed);
        let mut joined = 0;
        while joined < n {
            let c = uniform_coord(&mut rng, 3);
            if sim.join(c).is_ok() {
                joined += 1;
            }
            sim.advance_to(sim.now() + 1.0);
        }
        sim.advance_to(sim.now() + 300.0); // settle: links learn their cadence
        (sim, rng)
    }

    #[test]
    fn config_validation_rejects_degenerate_combinations() {
        let mut cfg = ProtocolConfig::new(2, HeartbeatScheme::Compact);
        cfg.heartbeat_period = 0.0;
        assert!(matches!(
            CanSim::new(cfg),
            Err(ConfigError::NonPositivePeriod(_))
        ));

        let mut cfg = ProtocolConfig::new(2, HeartbeatScheme::Compact);
        cfg.fail_timeout = cfg.heartbeat_period; // not strictly above
        assert!(matches!(
            CanSim::new(cfg),
            Err(ConfigError::TimeoutNotAbovePeriod { .. })
        ));

        // Inverted detector bounds: the 1.5-period suspicion floor
        // above the fail timeout, which a disarmed run does not mind.
        let mut cfg = ProtocolConfig::new(2, HeartbeatScheme::Adaptive);
        cfg.fail_timeout = 1.25 * cfg.heartbeat_period;
        assert!(cfg.validate().is_ok());
        cfg.detector = Some(DetectorConfig::fixed());
        let Err(e) = CanSim::new(cfg) else {
            panic!("a timeout under 1.5 periods must be rejected when armed");
        };
        assert!(matches!(e, ConfigError::InvertedDetectorBounds { .. }));
        // Errors render as human-readable messages for the binaries.
        let msg = e.to_string();
        assert!(msg.contains("timeout=75"), "unhelpful error: {msg}");

        for dims in [0, usize::MAX] {
            let Err(e) = CanSim::new(ProtocolConfig::new(dims, HeartbeatScheme::Compact)) else {
                panic!("{dims} dimensions must be rejected");
            };
            assert_eq!(e, ConfigError::DimsOutOfRange(dims));
            assert!(e.to_string().contains("dims"), "unhelpful error: {e}");
        }
    }

    #[test]
    fn long_freeze_is_expelled_then_revives_with_fenced_epoch() {
        for det in [DetectorConfig::fixed(), DetectorConfig::adaptive()] {
            let (mut sim, _) = build_detector(det, 24, 43);
            let victim = sim.members()[7];
            let pre_epoch = sim.local(victim).unwrap().epoch();
            sim.freeze(victim, 900.0); // far past the 150 s timeout
            sim.advance_to(sim.now() + 600.0);
            assert!(
                !sim.is_member(victim),
                "{:?}: frozen node should have been expelled",
                det.mode
            );
            assert_eq!(sim.zombie_count(), 1);
            assert!(sim.counters().live_expulsions >= 1);
            assert_eq!(
                sim.counters().false_expulsions,
                0,
                "{:?}: expelling a frozen node is not a false positive",
                det.mode
            );
            assert!(
                sim.counters().mean_detection_lag().is_some(),
                "detection latency sample expected"
            );
            sim.check_invariants();
            assert!(crate::oracles::step_violations(&sim).is_empty());

            // Thaw: the zombie discovers the higher epoch on its old
            // zone, refutes its own death, and rejoins under the same
            // identity with a strictly higher epoch.
            sim.advance_to(sim.now() + 600.0);
            assert!(
                sim.is_member(victim),
                "{:?}: thawed zombie should have revived",
                det.mode
            );
            assert_eq!(sim.zombie_count(), 0);
            assert_eq!(sim.counters().revivals, 1);
            assert!(
                sim.local(victim).unwrap().epoch() > pre_epoch,
                "{:?}: revived epoch must fence above the old incarnation",
                det.mode
            );
            sim.check_invariants();
            assert!(crate::oracles::step_violations(&sim).is_empty());

            // And the overlay heals completely around the round trip.
            sim.advance_to(sim.now() + 1200.0);
            assert_eq!(sim.broken_links(), 0, "{:?}", det.mode);
        }
    }

    #[test]
    fn awake_zombie_keepalives_are_counted_as_ghost_traffic() {
        let (mut sim, _) = build_detector(DetectorConfig::fixed(), 20, 47);
        let victim = sim.members()[5];
        sim.freeze(victim, 400.0);
        sim.advance_to(sim.now() + 350.0);
        assert!(!sim.is_member(victim), "expelled while frozen");
        // First awake zombie tick: it still heartbeats at its stale
        // table (ghost traffic at peers that evicted it), then learns
        // of its death and rejoins.
        sim.advance_to(sim.now() + 300.0);
        assert!(sim.is_member(victim), "revived");
        assert!(
            sim.accounting().stale_keepalives > 0,
            "ghost keepalives after expulsion must be counted"
        );
    }

    #[test]
    fn suspicion_is_absolved_by_contact_before_the_deadline() {
        // A freeze shorter than the hard timeout: the adaptive detector
        // suspects (silence exceeds the learned threshold) but the node
        // thaws and re-announces before the expulsion deadline — with
        // the 60 s probe grace, nobody expels it. (At this seed every
        // freeze from 60 s to 150 s raises a suspicion and is absolved.)
        let (mut sim, _) = build_detector(DetectorConfig::adaptive(), 24, 53);
        let victim = sim.members()[3];
        sim.freeze(victim, 100.0);
        sim.advance_to(sim.now() + 600.0);
        assert!(
            sim.counters().suspicions >= 1,
            "short freeze should raise suspicion"
        );
        assert!(
            sim.is_member(victim),
            "contact before the deadline must absolve the suspect"
        );
        assert_eq!(sim.counters().live_expulsions, 0);
        assert_eq!(sim.zombie_count(), 0);
    }

    #[test]
    fn fault_free_run_with_detector_matches_baseline_traffic() {
        // The detector must be invisible without faults: no suspicions,
        // no probes, and byte-for-byte identical maintenance traffic.
        let (mut base, _) = build(HeartbeatScheme::Adaptive, 30, 3, 59);
        let mut cfg = ProtocolConfig::new(3, HeartbeatScheme::Adaptive);
        cfg.detector = Some(DetectorConfig::adaptive());
        let mut armed = CanSim::new(cfg).expect("valid protocol config");
        {
            let mut rng = SimRng::seed_from_u64(59);
            let mut joined = 0;
            while joined < 30 {
                let c = uniform_coord(&mut rng, 3);
                if armed.join(c).is_ok() {
                    joined += 1;
                }
                armed.advance_to(armed.now() + 1.0);
            }
        }
        let horizon = 4000.0;
        base.advance_to(horizon);
        armed.advance_to(horizon);
        assert_eq!(armed.counters().suspicions, 0);
        assert_eq!(armed.counters().live_expulsions, 0);
        assert_eq!(armed.counters().probe_requests, 0);
        assert_eq!(base.accounting().total(), armed.accounting().total());
        assert_eq!(
            base.accounting().heartbeat_msgs_per_node_min(),
            armed.accounting().heartbeat_msgs_per_node_min()
        );
    }

    // ---- warm-standby zone replication ----

    fn build_replicated(
        scheme: HeartbeatScheme,
        n: usize,
        d: usize,
        seed: u64,
    ) -> (CanSim, SimRng) {
        let cfg = ProtocolConfig::new(d, scheme).with_replication(ReplicationConfig::standby());
        let mut sim = CanSim::new(cfg).expect("valid protocol config");
        let mut rng = SimRng::seed_from_u64(seed);
        let mut joined = 0;
        while joined < n {
            let c = uniform_coord(&mut rng, d);
            if sim.join(c).is_ok() {
                joined += 1;
            }
            sim.advance_to(sim.now() + 1.0);
        }
        (sim, rng)
    }

    #[test]
    fn fault_free_run_with_replication_matches_baseline_state() {
        // Replica traffic must be invisible to the protocol state: same
        // member set, epochs, zones, and every non-replica message
        // counter byte-for-byte — only the Replica accounting category
        // carries the (real) extra traffic.
        let (mut base, _) = build(HeartbeatScheme::Adaptive, 30, 3, 59);
        let (mut armed, _) = build_replicated(HeartbeatScheme::Adaptive, 30, 3, 59);
        let horizon = 4000.0;
        base.advance_to(horizon);
        armed.advance_to(horizon);
        assert_eq!(
            base.state_digest(),
            armed.state_digest(),
            "armed fault-free trajectory must be bit-identical"
        );
        assert_eq!(armed.counters().replica_promotions, 0);
        assert_eq!(armed.counters().stale_replica_rejects, 0);
        assert!(
            armed.counters().replica_deltas > 0,
            "deltas should have flowed"
        );
        assert!(armed.counters().replica_acks > 0, "acks should have flowed");
        for kind in [
            MsgKind::Heartbeat,
            MsgKind::FullUpdateRequest,
            MsgKind::FullUpdateResponse,
            MsgKind::Join,
            MsgKind::Handoff,
            MsgKind::Repair,
            MsgKind::Probe,
        ] {
            assert_eq!(
                base.accounting().counter(kind),
                armed.accounting().counter(kind),
                "non-replica category {kind:?} must be unchanged"
            );
        }
        assert_eq!(base.accounting().counter(MsgKind::Replica).messages, 0);
        assert!(armed.accounting().counter(MsgKind::Replica).messages > 0);
        // Steady state goes quiet: once every target acked the current
        // version, further rounds ship no deltas.
        let before = armed.counters().replica_deltas;
        armed.advance_to(horizon + 600.0);
        assert_eq!(
            armed.counters().replica_deltas,
            before,
            "unchanged content must not be re-replicated"
        );
    }

    #[test]
    fn crash_heir_promotes_warm_replica() {
        // Mirror of `crash_heir_recovers_from_cached_payload`, armed:
        // the heir promotes the victim's versioned replica — including
        // the opaque scheduler-aggregate slice — instead of relying on
        // the best-effort heartbeat cache alone.
        let (mut sim, _) = build_replicated(HeartbeatScheme::Compact, 30, 3, 31);
        sim.advance_to(sim.now() + 120.0); // everyone heartbeats, replicas ack
        let victim = sim.members()[10];
        let bits = vec![0xDEAD_BEEF, 42];
        assert!(sim.set_agg_slice(victim, bits.clone()));
        sim.advance_to(sim.now() + 120.0); // the changed slice re-replicates
        sim.leave(victim, false); // crash
        sim.advance_to(sim.now() + 200.0);
        sim.check_invariants();
        assert_eq!(sim.broken_links(), 0, "promoted replica should suffice");
        assert_eq!(sim.counters().replica_promotions, 1);
        assert_eq!(sim.counters().stale_replica_rejects, 0);
        let rec = sim
            .takeover_log()
            .iter()
            .find(|r| r.departed == victim)
            .expect("crash take-over must be recorded");
        let promoted = rec.promoted_version.expect("warm replica promoted");
        assert_eq!(rec.promoted_epoch, Some(rec.victim_epoch));
        if let Some(acked) = rec.owner_acked_version {
            assert!(
                promoted >= acked,
                "promoted v{promoted} older than owner-acked v{acked}"
            );
        }
        assert_eq!(
            rec.replica_agg.as_deref(),
            Some(bits.as_slice()),
            "the aggregate slice must ride the promotion"
        );
        assert!(crate::oracles::step_violations(&sim).is_empty());
    }

    #[test]
    fn stale_replica_is_fenced_at_promotion() {
        // Crash chain hitting an owner *and* its heir: Z crashes, heir
        // X adopts (epoch bump) — but X's heir H is frozen through the
        // whole chain, so H's warm replica of X predates the adoption.
        // When X crashes too, the epoch fence must reject H's stale
        // replica: it describes X's pre-adoption zone.
        //
        // Phase 1 per candidate discovers the actual take-over actors
        // from ground truth (freezes change no zone arithmetic), then
        // phase 2 replays with H frozen and pins the fence.
        let mut pinned = false;
        'candidates: for i in 0..12 {
            // Phase 1: discovery.
            let (mut probe, _) = build_replicated(HeartbeatScheme::Compact, 30, 3, 31);
            probe.advance_to(probe.now() + 180.0);
            let t0 = probe.now();
            let members = probe.members();
            let z = members[i];
            let Some(&x) = probe.takeover_targets(z).first() else {
                continue;
            };
            probe.leave(z, false);
            probe.advance_to(t0 + 160.0); // Z's deferred merge applied
            if !probe.is_member(x) {
                continue;
            }
            probe.leave(x, false);
            probe.advance_to(t0 + 320.0); // X's deferred merge applied
            let Some(h) = probe
                .takeover_log()
                .iter()
                .find(|r| r.departed == x)
                .map(|r| r.actor)
            else {
                continue;
            };
            if h == z || h == x {
                continue;
            }

            // Phase 2: same trajectory, but H frozen before the chain
            // starts — it never hears X's post-adoption replica delta.
            let (mut sim, _) = build_replicated(HeartbeatScheme::Compact, 30, 3, 31);
            sim.advance_to(sim.now() + 180.0);
            assert_eq!(sim.now(), t0, "replay must line up");
            if !sim.local(h).is_some_and(|n| n.replicas.contains_key(&x)) {
                continue; // H never stored a replica of X: can't pin
            }
            let x_epoch_pre = sim.local(x).unwrap().epoch();
            sim.freeze(h, 500.0);
            sim.leave(z, false);
            sim.advance_to(t0 + 160.0);
            assert!(
                sim.local(x).unwrap().epoch() > x_epoch_pre,
                "adopting Z's zone must bump X's epoch"
            );
            sim.leave(x, false);
            sim.advance_to(t0 + 320.0); // fires while H is still frozen
            let rec = sim
                .takeover_log()
                .iter()
                .find(|r| r.departed == x)
                .expect("X's crash take-over must be recorded");
            assert_eq!(rec.actor, h, "replay must produce the same heir");
            assert_eq!(
                rec.promoted_version, None,
                "H's pre-adoption replica of X must be fenced off"
            );
            assert!(
                sim.counters().stale_replica_rejects >= 1,
                "the fence rejection must be counted"
            );
            assert!(crate::oracles::step_violations(&sim).is_empty());
            sim.check_invariants();
            pinned = true;
            break 'candidates;
        }
        assert!(pinned, "no candidate produced the owner+heir crash chain");
    }

    /// Every replicated node's `(replica_version, replica_hash)` equals
    /// what a reference that re-hashes the replicated content from the
    /// table on every round holds, through loss, crashes, joins,
    /// aggregate slices set (and set again unchanged) mid-run, and
    /// second-hand records turning confirmed.
    #[test]
    fn replica_versions_match_a_reference_that_rehashes_every_round() {
        for scheme in HeartbeatScheme::ALL {
            let cfg = ProtocolConfig::new(3, scheme)
                .with_message_loss(0.2)
                .with_replication(ReplicationConfig::standby());
            let mut sim = CanSim::new(cfg).expect("valid protocol config");
            let mut rng = SimRng::seed_from_u64(47);
            while sim.len() < 30 {
                let _ = sim.join(uniform_coord(&mut rng, 3));
                sim.advance_to(sim.now() + 1.0);
            }
            let (mut unconfirmed, mut bumped) = (0usize, 0u64);
            for step in 0..90u64 {
                let members = sim.members();
                let pick = members[(step as usize * 7) % members.len()];
                match step % 9 {
                    0 | 4 => {
                        assert!(sim.set_agg_slice(pick, vec![step % 5, 4, 2, 1, 0]));
                    }
                    2 if members.len() > 20 => sim.leave(pick, false),
                    6 => {
                        let _ = sim.join(uniform_coord(&mut rng, 3));
                    }
                    _ => {}
                }
                sim.advance_to(sim.now() + 17.0);
                for id in sim.members() {
                    let n = sim.local(id).unwrap();
                    assert_eq!(
                        (n.replica_version, n.replica_hash),
                        n.replica_reference,
                        "{}: {id} at step {step}",
                        scheme.label()
                    );
                    unconfirmed += n.table().values().filter(|e| !e.confirmed).count();
                    bumped = bumped.max(n.replica_version);
                }
            }
            assert!(
                unconfirmed > 0,
                "{}: no second-hand record seen",
                scheme.label()
            );
            assert!(
                bumped > 2,
                "{}: no content change replicated",
                scheme.label()
            );
        }
    }
}
