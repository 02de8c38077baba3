//! Deterministic discrete-event simulation core used by every
//! experiment in this reproduction.
//!
//! The paper evaluates its algorithms with "an event driven simulator
//! that simulates the CAN construction, as well as matchmaking
//! algorithms" (§V-A). This crate provides that substrate:
//!
//! * [`EventQueue`] — a time-ordered event queue with stable FIFO
//!   tie-breaking, so simulations are reproducible bit-for-bit;
//! * [`rng`] — seedable random-number utilities and the hand-rolled
//!   distributions the workload model needs (exponential inter-arrival
//!   times, uniform runtimes, weighted discrete choices, and the skewed
//!   "most nodes are weak" capability distribution);
//! * [`fault`] — deterministic fault injection: a seeded
//!   [`fault::NetworkModel`] (per-class loss, duplication, latency
//!   jitter, scheduled partitions) and the node-level
//!   [`fault::NodeFault`] events (crash, rejoin, freeze, owner+heir
//!   crash) a [`dst::FaultSchedule`] scripts, all replayable;
//! * [`dst`] — deterministic-simulation-testing primitives: seeded
//!   random fault schedules under a [`dst::ScheduleBudget`], a
//!   replayable text trace format, and a delta-debugging shrinker;
//! * [`shard`] — zone-region lanes: a hyper-rectangular
//!   [`shard::RegionPartition`] of the unit torus and a
//!   lane-partitioned [`shard::ShardedQueue`] whose shared sequence
//!   counter makes the K-way merge bit-identical to a single queue;
//!   no simulation uses them, the repo benchmark does.
//!
//! Simulations in this workspace are deterministic by construction and
//! each one runs on a single thread.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dst;
pub mod event;
pub mod fault;
pub mod rng;
pub mod shard;

pub use dst::{
    DegradeWindow, FaultSchedule, Fnv, OverloadRecord, PartitionWindow, ScheduleBudget,
    ScheduleMacro, ShrinkOutcome, TraceParseError,
};
pub use event::{EventQueue, SimTime};
pub use fault::{ClassFaults, LinkDegrade, MsgClass, NetworkModel, NodeFault, Partition};
pub use rng::SimRng;
pub use shard::{RegionPartition, ShardAssignment, ShardedQueue};
