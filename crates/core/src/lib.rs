//! # p2p-ce-grid
//!
//! A from-scratch Rust reproduction of *"Supporting Computing Element
//! Heterogeneity in P2P Grids"* (Jaehwan Lee, Pete Keleher, Alan
//! Sussman — IEEE CLUSTER 2011): a fully decentralized desktop grid
//! built on a d-dimensional CAN DHT, extended to schedule jobs across
//! nodes with heterogeneous computing elements (multi-core CPUs and
//! GPUs), with compact/adaptive heartbeat protocols that keep CAN
//! maintenance costs at O(d) instead of O(d²).
//!
//! This crate is the facade: it re-exports the public API of every
//! layer and provides [`experiments`] — one driver per figure of the
//! paper's evaluation.
//!
//! ## Layers
//!
//! * [`types`] — computing elements, nodes, jobs, CAN dimension layout,
//!   the paper's scoring equations;
//! * [`simcore`] — deterministic event queue and RNG;
//! * [`can`] — the CAN DHT substrate: zones, split history, take-over,
//!   heartbeat schemes, churn experiments;
//! * [`workload`] — synthetic node populations and job streams;
//! * [`sched`] — matchmakers (can-het / can-hom / central), node
//!   execution model, the load-balancing simulator;
//! * [`metrics`] — CDFs, summaries, tables, CSV, SVG charts.
//!
//! ## Quickstart
//!
//! ```
//! use pgrid::prelude::*;
//!
//! // A small grid, moderately loaded, scheduled by can-het.
//! let scenario = default_scenario().scaled_down(20); // 50 nodes
//! let result = run_load_balance(&scenario, SchedulerChoice::CanHet);
//! assert_eq!(result.wait_times.len(), scenario.jobs);
//! println!("mean wait: {:.1}s", result.mean_wait());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use pgrid_can as can;
pub use pgrid_metrics as metrics;
pub use pgrid_sched as sched;
pub use pgrid_simcore as simcore;
pub use pgrid_types as types;
pub use pgrid_workload as workload;

pub mod experiments;
pub mod fuzz;
pub mod scenarios;

/// Convenient single-import surface for examples and downstream users.
pub mod prelude {
    pub use crate::can::{
        run_churn, uniform_coords, CanCounters, CanSim, ChurnConfig, ChurnReport, DetectorConfig,
        DetectorMode, HeartbeatScheme, ProtocolConfig,
    };
    pub use crate::can::{run_schedule, scheme_from_label, ScheduleReport};
    pub use crate::experiments::{self, Scale};
    pub use crate::fuzz::{
        fuzz_search, replay_trace, run_case, CaseReport, FuzzConfig, FuzzFailure, FuzzSummary,
    };
    pub use crate::metrics::{Cdf, CsvWriter, Summary, Table};
    pub use crate::scenarios::{self, ScenarioSpec};
    pub use crate::sched::{
        run_load_balance, run_load_balance_ablated, run_load_balance_chaos, try_run_load_balance,
        AiEntry, AiGrouping, AiTable, BuildError, CentralMatchmaker, CrashChaosConfig, GridShards,
        HetFeatures, Matchmaker, PushParams, PushingMatchmaker, RecoveryStats, SchedulerChoice,
        SimResult, StaticGrid, SuspicionConfig,
    };
    pub use crate::simcore::{
        EventQueue, FaultSchedule, Fnv, ScheduleBudget, ScheduleMacro, SimRng, TraceParseError,
    };
    pub use crate::types::{
        CeRequirement, CeSpec, CeType, DimensionLayout, JobId, JobSpec, NodeId, NodeSpec,
        Normalization,
    };
    pub use crate::workload::{
        default_scenario, generate_nodes, EvictionConfig, JobGenConfig, JobStream,
        LoadBalanceScenario, NodeGenConfig,
    };
}
