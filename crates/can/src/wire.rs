//! Byte-level message size model for CAN maintenance traffic.
//!
//! The paper's scalability argument (§IV-A) is about *message volume*:
//! a vanilla heartbeat carries the sender's complete neighbor table
//! (each record O(d) bytes, and O(d) neighbors, hence O(d²) volume per
//! node per minute), while a compact heartbeat to a non-take-over
//! neighbor carries only the sender's identity plus aggregated load
//! information (O(1)).
//!
//! Sizes here are an explicit, documented layout rather than measured
//! serialization: what matters for reproducing Figure 8 is how each
//! component scales with the number of dimensions `d` and the neighbor
//! count `k`.

/// Fixed per-message overhead (transport headers, message type, epoch,
/// checksum).
const HEADER: u64 = 40;
/// Bytes per node *record* and dimension: the zone bounds (2×8 B), the
/// coordinate (8 B) and the per-dimension resource capability
/// descriptor the grid advertises alongside it (units, capacity,
/// availability — 56 B).
const RECORD_PER_DIM: u64 = 80;
/// Fixed bytes per node record (node id, address, load scalar).
const RECORD_BASE: u64 = 16;
/// Bytes per aggregated-load entry (one dimension, one direction: node
/// count, core count, required cores, free/acceptable count).
const AGG_ENTRY: u64 = 16;

/// Size of one node record (identity + zone + coordinate + resource
/// descriptors) in a `d`-dimensional CAN: O(d).
#[inline]
pub fn node_record(d: usize) -> u64 {
    RECORD_BASE + RECORD_PER_DIM * d as u64
}

/// Size of the aggregated-load block covering both directions of every
/// dimension: O(d).
#[inline]
pub fn agg_block(d: usize) -> u64 {
    2 * AGG_ENTRY * d as u64
}

/// A **full heartbeat**: sender record + the sender's complete neighbor
/// table (`k` records) + aggregate block. This is every vanilla
/// heartbeat, and the compact/adaptive heartbeat sent to take-over
/// nodes. O(d·k) = O(d²) when k ~ 2d.
#[inline]
pub fn full_heartbeat(d: usize, k: usize) -> u64 {
    HEADER + node_record(d) * (1 + k as u64) + agg_block(d)
}

/// A **compact keepalive**: sender identity plus the single
/// aggregated-load entry relevant to the receiver's direction. O(1) —
/// the receiver already knows the sender's zone.
#[inline]
pub fn compact_keepalive() -> u64 {
    HEADER + 8 + 2 * AGG_ENTRY
}

/// A **zone-carrying introduction/update**: sent on a node's first
/// heartbeat round after joining or after its zone changed, so
/// neighbors learn the new geometry. O(d).
#[inline]
pub fn zone_update(d: usize) -> u64 {
    HEADER + node_record(d) + agg_block(d)
}

/// An adaptive **full-update request**: requester identity and zone, so
/// the responder knows which region is in question. O(d).
#[inline]
pub fn full_update_request(d: usize) -> u64 {
    HEADER + node_record(d)
}

/// An adaptive **full-update response**: the responder's complete
/// neighbor table — same layout as a full heartbeat.
#[inline]
pub fn full_update_response(d: usize, k: usize) -> u64 {
    full_heartbeat(d, k)
}

/// A graceful-leave **handoff**: the departing node's complete state,
/// shipped to its take-over target(s).
#[inline]
pub fn handoff(d: usize, k: usize) -> u64 {
    full_heartbeat(d, k)
}

/// A join request/reply pair: the reply carries the host's full
/// neighbor table so the joiner can build its initial view.
#[inline]
pub fn join_reply(d: usize, k: usize) -> u64 {
    full_heartbeat(d, k)
}

/// A targeted **take-over repair**: a take-over actor announcing its
/// new zone (and the departed node's identity) to the departed node's
/// former neighbors. Same layout as a zone update. O(d).
#[inline]
pub fn takeover_repair(d: usize) -> u64 {
    zone_update(d)
}

/// An indirect-probe **request/ping** (and a revived node's epoch
/// query): two identities plus the suspect's recorded zone so the
/// helper knows which incarnation is in question — same layout as a
/// full-update request. O(d).
#[inline]
pub fn probe_request(d: usize) -> u64 {
    full_update_request(d)
}

/// An indirect-probe **vouch** (and the epoch-query reply): one node
/// record — the suspect's zone, epoch (in the record header) and
/// last-heard stamp. O(d).
#[inline]
pub fn probe_vouch(d: usize) -> u64 {
    HEADER + node_record(d)
}

/// A warm-standby **replica delta**: the owner's versioned zone
/// snapshot shipped to a take-over target — version/epoch stamp (16 B),
/// the owner's own record, its `k`-entry neighbor summary, and the
/// zone-local aggregate slice (8 B per word). Same O(d·k) class as a
/// full heartbeat, but sent only when the replicated content changed
/// (or a target's ack lags).
#[inline]
pub fn replica_delta(d: usize, k: usize, agg_words: usize) -> u64 {
    HEADER + 16 + node_record(d) * (1 + k as u64) + 8 * agg_words as u64
}

/// A replica **ack**: the heir confirms the owner's snapshot — owner
/// identity, epoch, and version (24 B) under the fixed header. O(1).
#[inline]
pub fn replica_ack() -> u64 {
    HEADER + 24
}

/// Categories of maintenance traffic, accounted separately so Figure 8
/// can report heartbeat-protocol costs and diagnostics can break down
/// the rest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MsgKind {
    /// Periodic heartbeat (full, compact, or zone-carrying).
    Heartbeat,
    /// Adaptive full-update request.
    FullUpdateRequest,
    /// Adaptive full-update response.
    FullUpdateResponse,
    /// Join request/reply traffic.
    Join,
    /// Graceful-leave handoff.
    Handoff,
    /// Targeted take-over repair announcements (compact/adaptive).
    Repair,
    /// Failure-detector traffic: indirect-probe requests, relayed
    /// pings, vouches, and revival epoch queries.
    Probe,
    /// Warm-standby replication traffic: versioned replica deltas
    /// piggybacked on heartbeat rounds, and the heirs' acks.
    Replica,
}

impl MsgKind {
    /// Every category, in declaration order.
    pub const ALL: [MsgKind; 8] = [
        MsgKind::Heartbeat,
        MsgKind::FullUpdateRequest,
        MsgKind::FullUpdateResponse,
        MsgKind::Join,
        MsgKind::Handoff,
        MsgKind::Repair,
        MsgKind::Probe,
        MsgKind::Replica,
    ];

    /// Whether this category counts toward the *heartbeat-scheme* cost
    /// reported in Figure 8 (heartbeats plus the adaptive on-demand
    /// machinery, including the targeted take-over repairs the compact
    /// schemes pay for resilience; join/handoff churn traffic is the
    /// same for all schemes and excluded).
    pub fn is_heartbeat_cost(self) -> bool {
        matches!(
            self,
            MsgKind::Heartbeat
                | MsgKind::FullUpdateRequest
                | MsgKind::FullUpdateResponse
                | MsgKind::Repair
                | MsgKind::Probe
                | MsgKind::Replica
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_scales_linearly_with_dims() {
        let r5 = node_record(5);
        let r10 = node_record(10);
        assert_eq!(r10 - r5, 5 * RECORD_PER_DIM);
    }

    #[test]
    fn full_heartbeat_is_quadratic_when_k_tracks_d() {
        // k = 2d neighbors: doubling d should roughly quadruple size.
        let s1 = full_heartbeat(5, 10) as f64;
        let s2 = full_heartbeat(10, 20) as f64;
        let ratio = s2 / s1;
        assert!(
            (3.0..5.0).contains(&ratio),
            "expected ~4x growth, got {ratio}"
        );
    }

    #[test]
    fn compact_keepalive_is_dimension_independent() {
        assert_eq!(compact_keepalive(), compact_keepalive());
        // No `d` parameter at all — structurally O(1).
        assert!(compact_keepalive() < zone_update(5));
    }

    #[test]
    fn compact_much_smaller_than_full() {
        let full = full_heartbeat(11, 22);
        let keep = compact_keepalive();
        assert!(
            full / keep > 10,
            "full {full} should dwarf keepalive {keep}"
        );
    }

    #[test]
    fn response_matches_full_heartbeat_layout() {
        assert_eq!(full_update_response(8, 16), full_heartbeat(8, 16));
        assert_eq!(handoff(8, 16), full_heartbeat(8, 16));
    }

    #[test]
    fn heartbeat_cost_categories() {
        assert!(MsgKind::Heartbeat.is_heartbeat_cost());
        assert!(MsgKind::FullUpdateRequest.is_heartbeat_cost());
        assert!(MsgKind::FullUpdateResponse.is_heartbeat_cost());
        assert!(MsgKind::Repair.is_heartbeat_cost());
        assert!(MsgKind::Probe.is_heartbeat_cost());
        assert!(MsgKind::Replica.is_heartbeat_cost());
        assert!(!MsgKind::Join.is_heartbeat_cost());
        assert!(!MsgKind::Handoff.is_heartbeat_cost());
    }

    #[test]
    fn replica_delta_scales_like_a_full_heartbeat() {
        // Same O(d·k) family as a full heartbeat, plus the version
        // stamp and the aggregate words.
        let delta = replica_delta(6, 12, 4);
        let full = full_heartbeat(6, 12);
        assert_eq!(delta, full - agg_block(6) + 16 + 8 * 4);
        // The ack is O(1) and tiny.
        assert_eq!(replica_ack(), HEADER + 24);
        assert!(replica_ack() < compact_keepalive() + 24);
    }

    #[test]
    fn probe_traffic_is_small() {
        assert_eq!(probe_request(6), full_update_request(6));
        assert!(probe_vouch(6) < full_heartbeat(6, 12));
    }

    #[test]
    fn repair_is_zone_update_sized() {
        assert_eq!(takeover_repair(6), zone_update(6));
    }

    #[test]
    fn magnitudes_match_figure8_band() {
        // Sanity: at d=14 with ~30 neighbors a full heartbeat is tens
        // of KB, so 30 messages/minute lands in the ~1 MB/min band the
        // paper reports for the vanilla CAN.
        let per_msg = full_heartbeat(14, 30);
        let per_min = per_msg * 30;
        assert!(
            (500_000..2_000_000).contains(&per_min),
            "vanilla volume/min {per_min} outside plausible band"
        );
    }
}
