//! Deterministic fault injection: message-level network faults and
//! node-level fault events.
//!
//! Higher layers (the CAN protocol simulator, the scheduler) route
//! every message-delivery decision through a [`NetworkModel`] and every
//! scripted outage through the [`FaultEvent`]s of a
//! [`crate::dst::FaultSchedule`]. Both are seeded, so a schedule
//! replays bit-for-bit — fault runs are ordinary deterministic
//! simulations that happen to be hostile.
//!
//! Determinism contract: an *ideal* model (no loss, no duplication, no
//! latency, no partitions) consumes **zero** random draws and always
//! returns "deliver one copy now". With faults disabled the fault layer
//! is therefore invisible to existing trajectories — golden digests stay
//! bit-identical.

use crate::event::SimTime;
use crate::rng::SimRng;

/// Coarse message taxonomy the network model keys its per-class fault
/// rates on. Mirrors the wire-level message kinds one layer up without
/// depending on them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MsgClass {
    /// Periodic maintenance traffic: full heartbeats, keepalives, zone
    /// updates, and targeted repair announcements.
    Heartbeat,
    /// Adaptive on-demand full-update request/response exchanges.
    FullUpdate,
    /// Join request/reply exchanges.
    Join,
    /// Departure hand-off transfers.
    Handoff,
}

impl MsgClass {
    /// Every class, in a fixed order (indexing and iteration).
    pub const ALL: [MsgClass; 4] = [
        MsgClass::Heartbeat,
        MsgClass::FullUpdate,
        MsgClass::Join,
        MsgClass::Handoff,
    ];

    /// Stable index into per-class arrays.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            MsgClass::Heartbeat => 0,
            MsgClass::FullUpdate => 1,
            MsgClass::Join => 2,
            MsgClass::Handoff => 3,
        }
    }

    /// Human-readable label for tables and logs.
    pub fn label(self) -> &'static str {
        match self {
            MsgClass::Heartbeat => "heartbeat",
            MsgClass::FullUpdate => "full-update",
            MsgClass::Join => "join",
            MsgClass::Handoff => "handoff",
        }
    }
}

/// Fault rates applied to one message class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassFaults {
    /// Probability a transmission is lost in flight.
    pub drop: f64,
    /// Probability a delivered transmission arrives twice.
    pub duplicate: f64,
    /// Fixed propagation delay added to every delivery, in seconds.
    pub delay: f64,
    /// Uniform jitter in `[0, jitter)` seconds added on top of `delay`.
    pub jitter: f64,
}

impl ClassFaults {
    /// No faults: deliver exactly one copy immediately.
    pub const IDEAL: ClassFaults = ClassFaults {
        drop: 0.0,
        duplicate: 0.0,
        delay: 0.0,
        jitter: 0.0,
    };

    /// Whether this class never consults the RNG or the clock.
    #[inline]
    pub fn is_ideal(&self) -> bool {
        *self == ClassFaults::IDEAL
    }

    fn validate(&self) {
        assert!(
            (0.0..1.0).contains(&self.drop),
            "drop probability must be in [0, 1), got {}",
            self.drop
        );
        assert!(
            (0.0..=1.0).contains(&self.duplicate),
            "duplicate probability must be in [0, 1], got {}",
            self.duplicate
        );
        assert!(
            self.delay >= 0.0 && self.delay.is_finite(),
            "delay must be finite and non-negative, got {}",
            self.delay
        );
        assert!(
            self.jitter >= 0.0 && self.jitter.is_finite(),
            "jitter must be finite and non-negative, got {}",
            self.jitter
        );
    }
}

/// A scheduled bidirectional partition: while active, traffic between
/// group `a` and group `b` is severed in both directions. An empty `b`
/// means "everyone not in `a`" (the classic island partition).
#[derive(Debug, Clone, PartialEq)]
pub struct Partition {
    a: Vec<u32>,
    b: Vec<u32>,
    from: SimTime,
    until: SimTime,
}

impl Partition {
    /// A partition between two explicit groups over `[from, until)`.
    pub fn split(mut a: Vec<u32>, mut b: Vec<u32>, from: SimTime, until: SimTime) -> Self {
        assert!(from < until, "partition window must be non-empty");
        a.sort_unstable();
        a.dedup();
        b.sort_unstable();
        b.dedup();
        Partition { a, b, from, until }
    }

    /// Isolates `group` from the rest of the network over `[from, until)`.
    pub fn isolate(group: Vec<u32>, from: SimTime, until: SimTime) -> Self {
        Partition::split(group, Vec::new(), from, until)
    }

    /// Window start, in simulation seconds.
    #[inline]
    pub fn from(&self) -> SimTime {
        self.from
    }

    /// Window end (exclusive), in simulation seconds.
    #[inline]
    pub fn until(&self) -> SimTime {
        self.until
    }

    /// Whether a message from `x` to `y` at time `now` crosses the cut.
    #[inline]
    pub fn severs(&self, now: SimTime, x: u32, y: u32) -> bool {
        if now < self.from || now >= self.until {
            return false;
        }
        let in_a_x = self.a.binary_search(&x).is_ok();
        let in_a_y = self.a.binary_search(&y).is_ok();
        if self.b.is_empty() {
            // Island: cut iff exactly one endpoint is inside the island.
            in_a_x != in_a_y
        } else {
            let in_b_x = self.b.binary_search(&x).is_ok();
            let in_b_y = self.b.binary_search(&y).is_ok();
            (in_a_x && in_b_y) || (in_b_x && in_a_y)
        }
    }
}

/// A scheduled *directed* link degradation: while active, transmissions
/// from a listed source to a listed destination suffer extra loss and
/// jitter on top of whatever the per-class fault rates do. Unlike a
/// [`Partition`] the cut is asymmetric — degrading `a → b` leaves
/// `b → a` untouched — which is exactly the shape that separates an
/// adaptive per-link detector from a fixed-timeout one: the victim's
/// heartbeats straggle while everyone else's arrive on time.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkDegrade {
    /// Directed `(from, to)` pairs, sorted for binary search.
    pairs: Vec<(u32, u32)>,
    drop: f64,
    jitter: f64,
    from: SimTime,
    until: SimTime,
}

impl LinkDegrade {
    /// Degrades the listed directed pairs over `[from, until)` with an
    /// extra `drop` probability and uniform `[0, jitter)` delay.
    pub fn new(
        mut pairs: Vec<(u32, u32)>,
        drop: f64,
        jitter: f64,
        from: SimTime,
        until: SimTime,
    ) -> Self {
        assert!(from < until, "degrade window must be non-empty");
        assert!(
            (0.0..1.0).contains(&drop),
            "degrade drop must be in [0, 1), got {drop}"
        );
        assert!(
            jitter >= 0.0 && jitter.is_finite(),
            "degrade jitter must be finite and non-negative, got {jitter}"
        );
        pairs.sort_unstable();
        pairs.dedup();
        LinkDegrade {
            pairs,
            drop,
            jitter,
            from,
            until,
        }
    }

    /// Window start, in simulation seconds.
    #[inline]
    pub fn from(&self) -> SimTime {
        self.from
    }

    /// Window end (exclusive), in simulation seconds.
    #[inline]
    pub fn until(&self) -> SimTime {
        self.until
    }

    /// Whether a transmission from `x` to `y` at `now` is degraded.
    #[inline]
    pub fn applies(&self, now: SimTime, x: u32, y: u32) -> bool {
        now >= self.from && now < self.until && self.pairs.binary_search(&(x, y)).is_ok()
    }
}

/// The fate of one transmission: how many copies arrive and after what
/// delay. `copies == 0` means the message was lost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Delivery {
    /// Copies that arrive (0 = dropped, 2 = duplicated).
    pub copies: u8,
    /// Seconds of propagation delay (0.0 = deliver inline).
    pub delay: f64,
}

impl Delivery {
    /// The ideal fate: one copy, immediately.
    pub const IMMEDIATE: Delivery = Delivery {
        copies: 1,
        delay: 0.0,
    };

    /// Whether the message was lost entirely.
    #[inline]
    pub fn dropped(&self) -> bool {
        self.copies == 0
    }
}

/// Seeded, replayable network fault model.
///
/// Every message-delivery decision a simulator makes goes through
/// [`NetworkModel::fate`] (datagrams) or
/// [`NetworkModel::reliable_sends`] (acknowledged exchanges that
/// retransmit until delivered). The model owns its own RNG sub-stream,
/// so the *same* seed with the *same* fault configuration replays the
/// same fate sequence regardless of what other randomness the caller
/// consumes.
///
/// ```
/// use pgrid_simcore::fault::{MsgClass, NetworkModel};
/// let mut a = NetworkModel::ideal(7).with_loss(0.5);
/// let mut b = NetworkModel::ideal(7).with_loss(0.5);
/// for i in 0..100 {
///     assert_eq!(
///         a.fate(0.0, 0, i, MsgClass::Heartbeat),
///         b.fate(0.0, 0, i, MsgClass::Heartbeat),
///     );
/// }
/// ```
#[derive(Debug, Clone)]
pub struct NetworkModel {
    classes: [ClassFaults; 4],
    partitions: Vec<Partition>,
    degrades: Vec<LinkDegrade>,
    /// When set, class fault rates apply only inside `[start, end)`;
    /// outside the window the link is ideal (partitions keep their own
    /// windows). Lets a chaos scenario bracket its fault phase without
    /// reconfiguring rates mid-run.
    window: Option<(SimTime, SimTime)>,
    /// Cached "this plan is inert" flag: true iff no class faults, no
    /// partitions, and no degrades are configured. Recomputed on every
    /// mutation (configuration is rare) so the per-message fast path in
    /// [`NetworkModel::fate`] is a single branch instead of a walk over
    /// the class array and schedule vectors.
    ideal: bool,
    rng: SimRng,
    dropped: [u64; 4],
    duplicated: u64,
    partition_drops: u64,
    degrade_drops: u64,
}

impl NetworkModel {
    /// A fault-free model. Consumes no randomness until faults are
    /// configured, so it is safe to thread through golden-path runs.
    pub fn ideal(seed: u64) -> Self {
        NetworkModel {
            classes: [ClassFaults::IDEAL; 4],
            partitions: Vec::new(),
            degrades: Vec::new(),
            window: None,
            ideal: true,
            rng: SimRng::seed_from_u64(seed),
            dropped: [0; 4],
            duplicated: 0,
            partition_drops: 0,
            degrade_drops: 0,
        }
    }

    /// Sets the same drop probability on every message class.
    pub fn with_loss(mut self, p: f64) -> Self {
        self.set_loss(p);
        self
    }

    /// Sets the fault rates of one class.
    pub fn with_class(mut self, class: MsgClass, faults: ClassFaults) -> Self {
        self.set_class(class, faults);
        self
    }

    /// Adds a scheduled partition.
    pub fn with_partition(mut self, p: Partition) -> Self {
        self.add_partition(p);
        self
    }

    /// Adds a scheduled directed link degradation.
    pub fn with_degrade(mut self, d: LinkDegrade) -> Self {
        self.add_degrade(d);
        self
    }

    /// Sets the same drop probability on every message class (in-place
    /// variant for reconfiguring mid-run, e.g. when a chaos phase
    /// starts).
    pub fn set_loss(&mut self, p: f64) {
        for class in &mut self.classes {
            class.drop = p;
            class.validate();
        }
        self.recompute_ideal();
    }

    /// Sets the fault rates of one class (in-place).
    pub fn set_class(&mut self, class: MsgClass, faults: ClassFaults) {
        faults.validate();
        self.classes[class.index()] = faults;
        self.recompute_ideal();
    }

    /// Fault rates currently configured for `class`.
    pub fn class(&self, class: MsgClass) -> ClassFaults {
        self.classes[class.index()]
    }

    /// Adds a scheduled partition (in-place).
    pub fn add_partition(&mut self, p: Partition) {
        self.partitions.push(p);
        self.ideal = false;
    }

    /// Adds a scheduled directed link degradation (in-place).
    pub fn add_degrade(&mut self, d: LinkDegrade) {
        self.degrades.push(d);
        self.ideal = false;
    }

    /// Restricts class fault rates to `[start, end)`.
    pub fn set_window(&mut self, start: SimTime, end: SimTime) {
        assert!(start < end, "fault window must be non-empty");
        self.window = Some((start, end));
    }

    /// Whether the model can never perturb a message: no class faults
    /// configured and no partitions or degrades scheduled. O(1) — the
    /// flag is maintained by the configuration mutators, so callers may
    /// consult it per message (or per round) for free.
    #[inline]
    pub fn is_ideal(&self) -> bool {
        self.ideal
    }

    fn recompute_ideal(&mut self) {
        self.ideal = self.partitions.is_empty()
            && self.degrades.is_empty()
            && self.classes.iter().all(ClassFaults::is_ideal);
    }

    #[inline]
    fn faults_active(&self, now: SimTime) -> bool {
        match self.window {
            Some((start, end)) => now >= start && now < end,
            None => true,
        }
    }

    #[inline]
    fn severed(&self, now: SimTime, from: u32, to: u32) -> bool {
        self.partitions.iter().any(|p| p.severs(now, from, to))
    }

    /// Combined `(drop, jitter)` of every degrade window covering the
    /// `from → to` link at `now`. Overlapping windows compose as
    /// independent losses; jitters add.
    #[inline]
    fn degradation(&self, now: SimTime, from: u32, to: u32) -> (f64, f64) {
        let mut drop = 0.0f64;
        let mut jitter = 0.0f64;
        for d in &self.degrades {
            if d.applies(now, from, to) {
                drop = 1.0 - (1.0 - drop) * (1.0 - d.drop);
                jitter += d.jitter;
            }
        }
        (drop, jitter)
    }

    /// Decides the fate of one datagram transmission from `from` to
    /// `to` at time `now`. Consults the RNG only for fault dimensions
    /// whose rate is non-zero, so an ideal model (or an idle fault
    /// window) leaves the random stream untouched.
    pub fn fate(&mut self, now: SimTime, from: u32, to: u32, class: MsgClass) -> Delivery {
        // Inert plan: nothing below can fire (no partitions or degrades
        // to check, every class ideal), so skip straight to the answer
        // the slow path would compute. The slow path touches neither
        // the RNG nor any counter in this configuration, so the early
        // exit is bit-identical — `ideal_model_consumes_no_rng` pins it.
        if self.ideal {
            return Delivery::IMMEDIATE;
        }
        if !self.partitions.is_empty() && self.severed(now, from, to) {
            self.partition_drops += 1;
            self.dropped[class.index()] += 1;
            return Delivery {
                copies: 0,
                delay: 0.0,
            };
        }
        let (deg_drop, deg_jitter) = if self.degrades.is_empty() {
            (0.0, 0.0)
        } else {
            self.degradation(now, from, to)
        };
        if deg_drop > 0.0 && self.rng.chance(deg_drop) {
            self.degrade_drops += 1;
            self.dropped[class.index()] += 1;
            return Delivery {
                copies: 0,
                delay: 0.0,
            };
        }
        let f = self.classes[class.index()];
        let class_active = !f.is_ideal() && self.faults_active(now);
        if !class_active && deg_jitter == 0.0 {
            return Delivery::IMMEDIATE;
        }
        let mut copies = 1u8;
        let mut delay = 0.0;
        if class_active {
            if f.drop > 0.0 && self.rng.chance(f.drop) {
                self.dropped[class.index()] += 1;
                return Delivery {
                    copies: 0,
                    delay: 0.0,
                };
            }
            if f.duplicate > 0.0 && self.rng.chance(f.duplicate) {
                copies = 2;
                self.duplicated += 1;
            }
            delay = f.delay;
            if f.jitter > 0.0 {
                delay += self.rng.unit() * f.jitter;
            }
        }
        if deg_jitter > 0.0 {
            delay += self.rng.unit() * deg_jitter;
        }
        Delivery { copies, delay }
    }

    /// Number of transmissions an *acknowledged* message needs before
    /// one copy gets through (≥ 1): models join/hand-off exchanges as
    /// reliable-with-retry. Each failed transmission counts as a
    /// dropped message of `class`. A severing partition makes every
    /// attempt fail, so the count saturates at `cap` — callers treat
    /// that as "delivered once the partition heals" and still charge
    /// `cap` transmissions.
    pub fn reliable_sends(
        &mut self,
        now: SimTime,
        from: u32,
        to: u32,
        class: MsgClass,
        cap: u32,
    ) -> u32 {
        assert!(cap >= 1);
        if self.ideal {
            return 1;
        }
        if !self.partitions.is_empty() && self.severed(now, from, to) {
            self.partition_drops += u64::from(cap);
            self.dropped[class.index()] += u64::from(cap - 1);
            return cap;
        }
        let (deg_drop, _) = if self.degrades.is_empty() {
            (0.0, 0.0)
        } else {
            self.degradation(now, from, to)
        };
        let f = self.classes[class.index()];
        let class_drop = if self.faults_active(now) { f.drop } else { 0.0 };
        // Independent loss processes: a transmission survives only if
        // neither the class fault nor the degraded link eats it.
        let drop = 1.0 - (1.0 - class_drop) * (1.0 - deg_drop);
        if drop <= 0.0 {
            return 1;
        }
        let mut sends = 1;
        while sends < cap && self.rng.chance(drop) {
            self.dropped[class.index()] += 1;
            sends += 1;
        }
        sends
    }

    /// Messages dropped so far for one class (loss and partitions).
    pub fn dropped_by_class(&self, class: MsgClass) -> u64 {
        self.dropped[class.index()]
    }

    /// Messages dropped so far across all classes.
    pub fn dropped_total(&self) -> u64 {
        self.dropped.iter().sum()
    }

    /// Deliveries that arrived as duplicates so far.
    pub fn duplicated(&self) -> u64 {
        self.duplicated
    }

    /// Transmissions severed by a partition so far (subset of the drop
    /// counts).
    pub fn partition_drops(&self) -> u64 {
        self.partition_drops
    }

    /// Transmissions eaten by a degraded link so far (subset of the
    /// drop counts).
    pub fn degrade_drops(&self) -> u64 {
        self.degrade_drops
    }
}

/// What a [`FaultEvent`] does to the membership.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NodeFault {
    /// `count` members crash simultaneously (no goodbye, no hand-off).
    Crash {
        /// How many victims, sampled from current members.
        count: usize,
    },
    /// `count` fresh nodes join — crash recovery modeled as rejoin,
    /// per the CAN failure model.
    Rejoin {
        /// How many nodes join.
        count: usize,
    },
    /// `count` members freeze — alive but silent and deaf — for
    /// `duration` seconds, then resume with whatever stale state
    /// they kept.
    Freeze {
        /// How many victims, sampled from current members.
        count: usize,
        /// Freeze length, in seconds.
        duration: f64,
    },
    /// `count` members crash, each together with its first designated
    /// take-over heir — the correlated rack failure where a zone must
    /// fall to a second-choice heir that was never its primary replica
    /// target.
    CrashWithHeir {
        /// How many owner+heir pairs, owners sampled from current
        /// members.
        count: usize,
    },
}

/// One scheduled node-level fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// When the fault fires, in seconds after the executor's fault
    /// phase starts.
    pub at: SimTime,
    /// What happens.
    pub fault: NodeFault,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_model_consumes_no_rng() {
        let mut m = NetworkModel::ideal(1);
        let pristine = m.rng.clone();
        for i in 0..1000 {
            assert_eq!(
                m.fate(i as f64, 0, i, MsgClass::Heartbeat),
                Delivery::IMMEDIATE
            );
            assert_eq!(m.reliable_sends(i as f64, 0, i, MsgClass::Join, 16), 1);
        }
        let mut a = pristine;
        let mut b = m.rng.clone();
        assert_eq!(a.next_u64(), b.next_u64(), "RNG must be untouched");
        assert!(m.is_ideal());
        assert_eq!(m.dropped_total(), 0);
    }

    #[test]
    fn ideal_flag_tracks_every_mutation() {
        let mut m = NetworkModel::ideal(21);
        assert!(m.is_ideal());
        m.set_loss(0.2);
        assert!(!m.is_ideal());
        m.set_loss(0.0);
        assert!(m.is_ideal(), "clearing loss restores the fast path");
        m.set_class(
            MsgClass::Join,
            ClassFaults {
                delay: 0.5,
                ..ClassFaults::IDEAL
            },
        );
        assert!(!m.is_ideal());
        m.set_class(MsgClass::Join, ClassFaults::IDEAL);
        assert!(m.is_ideal());
        m.add_partition(Partition::isolate(vec![1], 0.0, 10.0));
        assert!(!m.is_ideal(), "a scheduled partition disables the flag");
        let mut d = NetworkModel::ideal(22);
        d.add_degrade(LinkDegrade::new(vec![(0, 1)], 0.5, 0.0, 0.0, 10.0));
        assert!(!d.is_ideal(), "a scheduled degrade disables the flag");
        // Builder forms route through the same mutators.
        assert!(!NetworkModel::ideal(23).with_loss(0.1).is_ideal());
    }

    #[test]
    fn same_seed_same_fates() {
        let faults = ClassFaults {
            drop: 0.3,
            duplicate: 0.2,
            delay: 0.05,
            jitter: 0.1,
        };
        let mut a = NetworkModel::ideal(9).with_class(MsgClass::Heartbeat, faults);
        let mut b = NetworkModel::ideal(9).with_class(MsgClass::Heartbeat, faults);
        for i in 0..500 {
            assert_eq!(
                a.fate(i as f64, i, i + 1, MsgClass::Heartbeat),
                b.fate(i as f64, i, i + 1, MsgClass::Heartbeat)
            );
        }
        assert_eq!(a.dropped_total(), b.dropped_total());
        assert_eq!(a.duplicated(), b.duplicated());
    }

    #[test]
    fn loss_rate_is_approximately_honored() {
        let mut m = NetworkModel::ideal(2).with_loss(0.25);
        let n = 40_000;
        let dropped = (0..n)
            .filter(|&i| m.fate(0.0, 0, i, MsgClass::Heartbeat).dropped())
            .count();
        let rate = dropped as f64 / n as f64;
        assert!(
            (rate - 0.25).abs() < 0.02,
            "drop rate {rate} should be ~0.25"
        );
        assert_eq!(m.dropped_total(), dropped as u64);
    }

    #[test]
    fn per_class_rates_are_independent() {
        let mut m = NetworkModel::ideal(3).with_class(
            MsgClass::Join,
            ClassFaults {
                drop: 0.5,
                ..ClassFaults::IDEAL
            },
        );
        for i in 0..1000 {
            assert!(!m.fate(0.0, 0, i, MsgClass::Heartbeat).dropped());
        }
        assert_eq!(m.dropped_by_class(MsgClass::Heartbeat), 0);
        let joins_dropped = (0..1000)
            .filter(|&i| m.fate(0.0, 0, i, MsgClass::Join).dropped())
            .count();
        assert!(joins_dropped > 300, "join class should drop ~half");
        assert_eq!(m.dropped_by_class(MsgClass::Join), joins_dropped as u64);
    }

    #[test]
    fn partition_severs_only_across_the_cut_and_only_in_window() {
        let p = Partition::split(vec![0, 1], vec![2, 3], 10.0, 20.0);
        assert!(p.severs(10.0, 0, 2));
        assert!(p.severs(15.0, 3, 1), "cut is bidirectional");
        assert!(!p.severs(15.0, 0, 1), "same side is unaffected");
        assert!(!p.severs(15.0, 2, 3), "same side is unaffected");
        assert!(!p.severs(9.9, 0, 2), "before the window");
        assert!(!p.severs(20.0, 0, 2), "window end is exclusive");
        // Node outside both groups is unaffected by an explicit split.
        assert!(!p.severs(15.0, 0, 7));
        assert!(!p.severs(15.0, 7, 2));
    }

    #[test]
    fn island_partition_cuts_against_everyone_else() {
        let p = Partition::isolate(vec![4, 5], 0.0, 100.0);
        assert!(p.severs(1.0, 4, 9));
        assert!(p.severs(1.0, 9, 5));
        assert!(!p.severs(1.0, 4, 5), "inside the island");
        assert!(!p.severs(1.0, 8, 9), "outside the island");
    }

    #[test]
    fn partition_drops_are_counted_and_deterministic() {
        let mut m = NetworkModel::ideal(4).with_partition(Partition::isolate(vec![1], 0.0, 50.0));
        assert!(m.fate(10.0, 1, 2, MsgClass::Heartbeat).dropped());
        assert!(m.fate(10.0, 2, 1, MsgClass::Join).dropped());
        assert!(!m.fate(60.0, 1, 2, MsgClass::Heartbeat).dropped(), "healed");
        assert_eq!(m.partition_drops(), 2);
        assert_eq!(m.dropped_total(), 2);
    }

    #[test]
    fn fault_window_gates_class_faults() {
        let mut m = NetworkModel::ideal(5).with_loss(0.9);
        m.set_window(100.0, 200.0);
        for i in 0..200 {
            assert!(
                !m.fate(50.0, 0, i, MsgClass::Heartbeat).dropped(),
                "outside the window the link is ideal"
            );
        }
        let dropped = (0..200)
            .filter(|&i| m.fate(150.0, 0, i, MsgClass::Heartbeat).dropped())
            .count();
        assert!(dropped > 150, "inside the window loss applies");
    }

    #[test]
    fn reliable_sends_retries_until_delivered() {
        let mut m = NetworkModel::ideal(6).with_loss(0.5);
        let total: u32 = (0..2000)
            .map(|i| m.reliable_sends(0.0, 0, i, MsgClass::Join, 64))
            .sum();
        let mean = total as f64 / 2000.0;
        assert!((mean - 2.0).abs() < 0.15, "mean sends {mean} should be ~2");
        assert_eq!(m.dropped_by_class(MsgClass::Join), u64::from(total) - 2000);
    }

    #[test]
    fn reliable_sends_saturates_under_partition() {
        let mut m = NetworkModel::ideal(7).with_partition(Partition::isolate(vec![0], 0.0, 10.0));
        assert_eq!(m.reliable_sends(5.0, 0, 3, MsgClass::Handoff, 8), 8);
        assert_eq!(m.reliable_sends(15.0, 0, 3, MsgClass::Handoff, 8), 1);
    }

    #[test]
    fn duplication_delivers_two_copies() {
        let mut m = NetworkModel::ideal(8).with_class(
            MsgClass::Heartbeat,
            ClassFaults {
                duplicate: 1.0,
                ..ClassFaults::IDEAL
            },
        );
        let d = m.fate(0.0, 0, 1, MsgClass::Heartbeat);
        assert_eq!(d.copies, 2);
        assert_eq!(m.duplicated(), 1);
    }

    #[test]
    fn latency_and_jitter_bound_delay() {
        let mut m = NetworkModel::ideal(9).with_class(
            MsgClass::Heartbeat,
            ClassFaults {
                delay: 0.5,
                jitter: 0.25,
                ..ClassFaults::IDEAL
            },
        );
        for i in 0..1000 {
            let d = m.fate(0.0, 0, i, MsgClass::Heartbeat);
            assert_eq!(d.copies, 1);
            assert!(
                (0.5..0.75).contains(&d.delay),
                "delay {} out of range",
                d.delay
            );
        }
    }

    #[test]
    fn degrade_is_directed_and_windowed() {
        let d = LinkDegrade::new(vec![(1, 2)], 0.9, 0.0, 10.0, 20.0);
        assert!(d.applies(15.0, 1, 2));
        assert!(!d.applies(15.0, 2, 1), "reverse direction is untouched");
        assert!(!d.applies(9.9, 1, 2), "before the window");
        assert!(!d.applies(20.0, 1, 2), "window end is exclusive");
        assert!(!d.applies(15.0, 1, 3), "unlisted pair is untouched");
    }

    #[test]
    fn degraded_link_drops_and_jitters_only_the_listed_direction() {
        let mut m = NetworkModel::ideal(12).with_degrade(LinkDegrade::new(
            vec![(0, 1)],
            0.5,
            4.0,
            0.0,
            1000.0,
        ));
        assert!(!m.is_ideal());
        let mut dropped = 0usize;
        let mut jittered = 0usize;
        for i in 0..1000 {
            let fwd = m.fate(i as f64 % 900.0, 0, 1, MsgClass::Heartbeat);
            if fwd.dropped() {
                dropped += 1;
            } else if fwd.delay > 0.0 {
                assert!(fwd.delay < 4.0, "jitter bounded: {}", fwd.delay);
                jittered += 1;
            }
            let rev = m.fate(i as f64 % 900.0, 1, 0, MsgClass::Heartbeat);
            assert_eq!(rev, Delivery::IMMEDIATE, "reverse direction is ideal");
        }
        assert!(
            (350..650).contains(&dropped),
            "forward drop ~0.5, got {dropped}"
        );
        assert!(jittered > 300, "survivors carry jitter, got {jittered}");
        assert_eq!(m.degrade_drops(), dropped as u64);
        assert_eq!(m.dropped_total(), dropped as u64);
    }

    #[test]
    fn degrade_outside_window_consumes_no_rng() {
        let mut m = NetworkModel::ideal(13).with_degrade(LinkDegrade::new(
            vec![(0, 1)],
            0.9,
            5.0,
            100.0,
            200.0,
        ));
        let pristine = m.rng.clone();
        for i in 0..500 {
            assert_eq!(m.fate(50.0, 0, i, MsgClass::Heartbeat), Delivery::IMMEDIATE);
            assert_eq!(m.reliable_sends(50.0, 0, i, MsgClass::Join, 8), 1);
        }
        let mut a = pristine;
        let mut b = m.rng.clone();
        assert_eq!(a.next_u64(), b.next_u64(), "RNG untouched outside window");
    }

    #[test]
    fn degrade_composes_with_class_loss_in_reliable_sends() {
        let mut m = NetworkModel::ideal(14).with_degrade(LinkDegrade::new(
            vec![(0, 1)],
            0.5,
            0.0,
            0.0,
            1e9,
        ));
        let total: u32 = (0..2000)
            .map(|_| m.reliable_sends(1.0, 0, 1, MsgClass::Join, 64))
            .sum();
        let mean = total as f64 / 2000.0;
        assert!((mean - 2.0).abs() < 0.15, "mean sends {mean} should be ~2");
        let untouched: u32 = (0..100)
            .map(|_| m.reliable_sends(1.0, 1, 0, MsgClass::Join, 64))
            .sum();
        assert_eq!(untouched, 100, "reverse direction needs one send");
    }

    #[test]
    #[should_panic(expected = "degrade drop")]
    fn full_degrade_loss_is_rejected() {
        let _ = LinkDegrade::new(vec![(0, 1)], 1.0, 0.0, 0.0, 10.0);
    }

    #[test]
    #[should_panic(expected = "drop probability")]
    fn full_loss_is_rejected() {
        let _ = NetworkModel::ideal(0).with_loss(1.0);
    }
}
