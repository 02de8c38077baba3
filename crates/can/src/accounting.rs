//! Message-cost accounting: the two metrics of §IV-A.
//!
//! "We have two major metrics to measure costs over a fixed time
//! period; the number of messages per node and the volume of messages
//! per node." Costs are normalized per node per minute, where "node
//! minutes" integrate the alive-node count over simulated time.

use crate::wire::MsgKind;
use pgrid_simcore::SimTime;

/// Per-category message counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter {
    /// Number of messages sent.
    pub messages: u64,
    /// Total bytes sent.
    pub bytes: u64,
}

// `MsgKind::ALL` lists the kinds in declaration order, so a kind's
// discriminant is its slot in `Accounting::by_kind`.
const _: () = {
    let mut i = 0;
    while i < MsgKind::ALL.len() {
        assert!(MsgKind::ALL[i] as usize == i);
        i += 1;
    }
};

/// Accumulates message counts/volumes and alive-node time.
#[derive(Debug, Default)]
pub struct Accounting {
    /// One counter per category, indexed by `MsgKind as usize`.
    by_kind: [Counter; MsgKind::ALL.len()],
    node_seconds: f64,
    last_time: SimTime,
    alive: usize,
    window_start: SimTime,
    /// Keepalives received from senders the receiver does not know —
    /// ghost traffic, typically an expelled-but-alive node still
    /// heartbeating at peers that already evicted it. Kept out of the
    /// per-kind counters (those meter *sent* traffic); the detector
    /// experiment reports it directly.
    pub stale_keepalives: u64,
}

impl Accounting {
    /// Fresh accounting starting at time 0 with no alive nodes.
    pub fn new() -> Self {
        Accounting::default()
    }

    /// Advances the alive-node-time integral to `now` and records the
    /// new alive count. Must be called whenever the population changes
    /// and before reading rates.
    pub fn advance(&mut self, now: SimTime, alive: usize) {
        debug_assert!(now >= self.last_time, "time went backwards");
        self.node_seconds += self.alive as f64 * (now - self.last_time);
        self.last_time = now;
        self.alive = alive;
    }

    /// Discards everything accumulated so far and restarts the
    /// measurement window at `now` (used to skip the bootstrap stage).
    pub fn reset_window(&mut self, now: SimTime, alive: usize) {
        self.by_kind = Default::default();
        self.node_seconds = 0.0;
        self.last_time = now;
        self.window_start = now;
        self.alive = alive;
        self.stale_keepalives = 0;
    }

    /// Records one sent message.
    pub fn record(&mut self, kind: MsgKind, bytes: u64) {
        let c = &mut self.by_kind[kind as usize];
        c.messages += 1;
        c.bytes += bytes;
    }

    /// Counter for one category.
    pub fn counter(&self, kind: MsgKind) -> Counter {
        self.by_kind[kind as usize]
    }

    /// Total node-minutes elapsed in the measurement window.
    pub fn node_minutes(&self) -> f64 {
        self.node_seconds / 60.0
    }

    /// Aggregate over categories selected by `pred`.
    fn total_where(&self, pred: impl Fn(MsgKind) -> bool) -> Counter {
        let mut out = Counter::default();
        for (&k, c) in MsgKind::ALL.iter().zip(&self.by_kind) {
            if pred(k) {
                out.messages += c.messages;
                out.bytes += c.bytes;
            }
        }
        out
    }

    /// Heartbeat-scheme messages per node per minute (Figure 8(a)).
    pub fn heartbeat_msgs_per_node_min(&self) -> f64 {
        let nm = self.node_minutes();
        if nm <= 0.0 {
            return 0.0;
        }
        self.total_where(MsgKind::is_heartbeat_cost).messages as f64 / nm
    }

    /// Heartbeat-scheme volume (KB) per node per minute (Figure 8(b)).
    pub fn heartbeat_kb_per_node_min(&self) -> f64 {
        let nm = self.node_minutes();
        if nm <= 0.0 {
            return 0.0;
        }
        self.total_where(MsgKind::is_heartbeat_cost).bytes as f64 / 1024.0 / nm
    }

    /// All-traffic counter (heartbeats + churn traffic).
    pub fn total(&self) -> Counter {
        self.total_where(|_| true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advance_integrates_alive_time() {
        let mut a = Accounting::new();
        a.advance(0.0, 10);
        a.advance(60.0, 10); // 10 nodes for 1 minute
        assert!((a.node_minutes() - 10.0).abs() < 1e-9);
        a.advance(120.0, 20); // 10 more node-minutes
        assert!((a.node_minutes() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn per_minute_rates() {
        let mut a = Accounting::new();
        a.advance(0.0, 5);
        for _ in 0..50 {
            a.record(MsgKind::Heartbeat, 1024);
        }
        a.record(MsgKind::Join, 4096); // excluded from heartbeat cost
        a.advance(120.0, 5); // 10 node-minutes
        assert!((a.heartbeat_msgs_per_node_min() - 5.0).abs() < 1e-9);
        assert!((a.heartbeat_kb_per_node_min() - 5.0).abs() < 1e-9);
        assert_eq!(a.total().messages, 51);
    }

    #[test]
    fn reset_window_discards_history() {
        let mut a = Accounting::new();
        a.advance(0.0, 2);
        a.record(MsgKind::Heartbeat, 100);
        a.advance(600.0, 2);
        a.reset_window(600.0, 2);
        assert_eq!(a.total().messages, 0);
        assert_eq!(a.node_minutes(), 0.0);
        a.advance(660.0, 2);
        assert!((a.node_minutes() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn request_response_count_as_heartbeat_cost() {
        let mut a = Accounting::new();
        a.advance(0.0, 1);
        a.record(MsgKind::FullUpdateRequest, 10);
        a.record(MsgKind::FullUpdateResponse, 1000);
        a.record(MsgKind::Handoff, 9999);
        a.advance(60.0, 1);
        assert!((a.heartbeat_msgs_per_node_min() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn every_kind_counts_into_its_own_slot() {
        let mut a = Accounting::new();
        for (i, &kind) in MsgKind::ALL.iter().enumerate() {
            for _ in 0..=i {
                a.record(kind, 1 << i);
            }
        }
        let mut sum = Counter::default();
        for (i, &kind) in MsgKind::ALL.iter().enumerate() {
            let c = a.counter(kind);
            let n = i as u64 + 1;
            assert_eq!(
                c,
                Counter {
                    messages: n,
                    bytes: n << i
                },
                "{kind:?}"
            );
            sum.messages += c.messages;
            sum.bytes += c.bytes;
        }
        assert_eq!(a.total(), sum);
        for (i, kind) in MsgKind::ALL.iter().enumerate() {
            assert!(!MsgKind::ALL[..i].contains(kind), "{kind:?} listed twice");
        }
    }

    #[test]
    fn zero_window_yields_zero_rates() {
        let a = Accounting::new();
        assert_eq!(a.heartbeat_msgs_per_node_min(), 0.0);
        assert_eq!(a.heartbeat_kb_per_node_min(), 0.0);
    }
}
