//! Matchmaking and load balancing for the heterogeneous P2P grid
//! (paper §II-B, §III): the can-het pushing matchmaker (Algorithm 1),
//! the CE-oblivious can-hom baseline, the centralized greedy baseline,
//! the per-node execution model, aggregated load information, and the
//! event-driven simulation that produces Figures 5–6.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod grid;
pub mod grid_sim;
pub mod matchmakers;
pub mod node_runtime;
pub mod overload;
pub mod recovery;
pub mod sharding;
pub mod timeshare;

pub use aggregate::{AiEntry, AiGrouping, AiTable};
pub use grid::{BuildError, StaticGrid};
pub use grid_sim::{
    matchmaker_for, run_load_balance, run_load_balance_ablated, run_load_balance_chaos,
    run_load_balance_overload, run_trace, run_trace_sharded, try_run_load_balance, SchedulerChoice,
    SimResult,
};
pub use matchmakers::{
    CentralMatchmaker, HetFeatures, Matchmaker, Placement, PushMode, PushParams, PushingMatchmaker,
};
pub use node_runtime::{NodeRuntime, Started};
pub use overload::{
    bounded_queue_violation, retry_storm_violation, OverloadConfig, OverloadStats, TokenBucket,
};
pub use recovery::{CrashChaosConfig, JobLedger, RecoveryStats};
pub use sharding::GridShards;
pub use timeshare::{run_time_shared, TimeSharedNode, TsCompletion, TsPolicy, TsResult};
