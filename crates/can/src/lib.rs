//! d-dimensional Content-Addressable Network (CAN) DHT substrate for
//! the P2P computing-element grid — a from-scratch implementation of
//! the CAN variant of Lee, Keleher & Sussman (CLUSTER 2011, §II & §IV),
//! itself derived from Ratnasamy et al.'s CAN.
//!
//! The crate provides:
//!
//! * [`geom`] — zones (hyper-rectangles) and the abutment (neighbor)
//!   relation;
//! * [`split_tree`] — ground-truth zone ownership as a KD-style split
//!   history with predetermined take-over plans;
//! * [`adjacency`] — incrementally-maintained ground-truth neighbor
//!   graph;
//! * [`membership`] — per-node *local* (possibly stale) views;
//! * [`protocol`] — the maintenance simulator with the paper's three
//!   heartbeat schemes (vanilla / compact / adaptive);
//! * [`wire`] + [`accounting`] — the byte-level message model and the
//!   per-node-per-minute cost metrics of Figure 8;
//! * [`routing`] — greedy CAN routing;
//! * [`churn`] — the two-stage churn experiments behind Figures 7–8;
//! * [`oracles`] + [`dst`] — cross-layer invariant oracles checked at
//!   every heartbeat boundary, and the one executor that runs
//!   [`pgrid_simcore::dst::FaultSchedule`]s — generated, scripted or
//!   replayed from a trace — against them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accounting;
pub mod adjacency;
pub mod churn;
pub mod dst;
pub mod geom;
mod idmap;
pub mod membership;
pub mod oracles;
pub mod protocol;
pub mod routing;
pub mod split_tree;
pub mod wire;

pub use accounting::{Accounting, Counter};
pub use adjacency::Adjacency;
pub use churn::{run_churn, run_churn_sim, uniform_coords, BrokenSample, ChurnConfig, ChurnReport};
pub use dst::{run_schedule, scheme_from_label, ScheduleReport};
pub use geom::{Point, Zone};
pub use membership::{LocalNode, NeighborEntry, Payload, ReplicaPayload, ZoneReplica};
pub use oracles::{EpochLedger, ReplicaLedger};
pub use protocol::{
    CanCounters, CanSim, ConfigError, DetectorConfig, DetectorMode, HeartbeatScheme, JoinError,
    ProtocolConfig, ReplicationConfig, TakeoverRecord,
};
pub use routing::{route, Route, RoutingView};
pub use split_tree::{SplitTree, TakeoverPlan, ZoneChange};
pub use wire::MsgKind;
