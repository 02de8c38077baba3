//! Named experiment scenarios: the exact configurations behind each
//! figure, so benches, examples and tests share one source of truth.

use crate::jobgen::{ArrivalShape, JobGenConfig, JobStream};
use crate::nodegen::NodeGenConfig;
use pgrid_types::NodeSpec;

/// Desktop-grid eviction model: volunteer nodes periodically withdraw
/// (their owner reclaims the machine), killing resident grid jobs,
/// then return after [`EVICTION_OUTAGE`]. The classic availability
/// model of volunteer computing, layered on the paper's scenario as an
/// extension experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct EvictionConfig {
    /// Mean time between eviction events across the whole grid,
    /// seconds (exponential inter-event times; one node per event).
    pub mean_interval: f64,
}

impl EvictionConfig {
    /// One eviction somewhere in the grid every `mean_interval` seconds
    /// on average.
    pub fn new(mean_interval: f64) -> Self {
        EvictionConfig { mean_interval }
    }
}

/// How long an evicted node stays unavailable, seconds.
pub const EVICTION_OUTAGE: f64 = 1800.0;

/// Delay before the grid notices and resubmits an evicted node's jobs,
/// seconds: one heartbeat period of failure-detection latency.
pub const RESUBMIT_DELAY: f64 = 60.0;

/// The full configuration of one load-balancing simulation (Figures
/// 5–6).
#[derive(Debug, Clone)]
pub struct LoadBalanceScenario {
    /// Number of grid nodes (paper: 1000).
    pub nodes: usize,
    /// Number of submitted jobs (paper: 20 000).
    pub jobs: usize,
    /// CAN dimensionality (paper: 11 ⇒ 2 GPU families).
    pub dims: usize,
    /// Node generator.
    pub node_gen: NodeGenConfig,
    /// Job generator.
    pub job_gen: JobGenConfig,
    /// Master seed.
    pub seed: u64,
    /// Stopping factor SF of Eq. 4.
    pub stopping_factor: f64,
    /// Aggregated-load-information refresh period, seconds (heartbeat
    /// period: AI used by job pushing is stale by up to this much).
    pub ai_refresh_period: f64,
    /// Optional volunteer-eviction model (None = the paper's always-on
    /// nodes).
    pub eviction: Option<EvictionConfig>,
    /// Optional piecewise arrival-rate modulation (None = the paper's
    /// homogeneous Poisson process). Scenario specs use this to model
    /// flash-crowd submission spikes.
    pub arrival_shape: Option<ArrivalShape>,
}

impl LoadBalanceScenario {
    /// GPU families implied by the CAN dimensionality.
    pub fn gpu_slots(&self) -> u8 {
        ((self.dims - 5) / 3) as u8
    }

    /// Overrides the mean inter-arrival time (Figure 5's x-axis
    /// parameter), returning the modified scenario.
    pub fn with_interarrival(mut self, secs: f64) -> Self {
        self.job_gen.mean_interarrival = secs;
        self
    }

    /// Overrides the job constraint ratio (Figure 6's parameter).
    pub fn with_constraint_ratio(mut self, ratio: f64) -> Self {
        self.job_gen.constraint_ratio = ratio;
        self
    }

    /// Overrides the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables the volunteer-eviction model.
    pub fn with_eviction(mut self, eviction: EvictionConfig) -> Self {
        self.eviction = Some(eviction);
        self
    }

    /// Installs arrival-rate modulation (a trivial shape is dropped so
    /// the stream stays bit-identical to its unshaped history).
    pub fn with_arrival_shape(mut self, shape: ArrivalShape) -> Self {
        self.arrival_shape = (!shape.is_trivial()).then_some(shape);
        self
    }

    /// The scenario's satisfiability-filtered job stream over
    /// `population`, with this scenario's arrival shaping installed —
    /// the one construction path every simulator entry point shares.
    pub fn job_stream(&self, population: Vec<NodeSpec>) -> JobStream {
        let mut stream = JobStream::with_population(self.job_gen.clone(), self.seed, population);
        if let Some(shape) = &self.arrival_shape {
            stream.set_shape(shape.clone());
        }
        stream
    }

    /// Scales the scenario down (nodes and jobs) for fast tests,
    /// preserving the load level by keeping the jobs-per-node ratio and
    /// stretching inter-arrival accordingly.
    pub fn scaled_down(mut self, factor: usize) -> Self {
        assert!(factor >= 1);
        self.nodes /= factor;
        self.jobs /= factor;
        self.job_gen.mean_interarrival *= factor as f64;
        self
    }
}

/// The paper's default scenario: 1000 heterogeneous nodes, 20 000
/// jobs, 11-dimensional CAN, 60% constraint ratio, 3 s mean
/// inter-arrival (the middle of Figure 5's sweep).
pub fn default_scenario() -> LoadBalanceScenario {
    let dims = 11;
    let gpu_slots = ((dims - 5) / 3) as u8;
    LoadBalanceScenario {
        nodes: 1000,
        jobs: 20_000,
        dims,
        node_gen: NodeGenConfig::paper_defaults(gpu_slots),
        job_gen: JobGenConfig::paper_defaults(gpu_slots, 0.6, 3.0),
        seed: 2011,
        stopping_factor: 2.0,
        ai_refresh_period: 60.0,
        eviction: None,
        arrival_shape: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_setup() {
        let s = default_scenario();
        assert_eq!(s.nodes, 1000);
        assert_eq!(s.jobs, 20_000);
        assert_eq!(s.dims, 11);
        assert_eq!(s.gpu_slots(), 2);
        assert_eq!(s.job_gen.constraint_ratio, 0.6);
    }

    #[test]
    fn builders_override_single_fields() {
        let s = default_scenario()
            .with_interarrival(2.0)
            .with_constraint_ratio(0.8)
            .with_seed(42);
        assert_eq!(s.job_gen.mean_interarrival, 2.0);
        assert_eq!(s.job_gen.constraint_ratio, 0.8);
        assert_eq!(s.seed, 42);
        assert_eq!(s.nodes, 1000, "unrelated fields untouched");
    }

    #[test]
    fn scaled_down_preserves_load_level() {
        let s = default_scenario().scaled_down(10);
        assert_eq!(s.nodes, 100);
        assert_eq!(s.jobs, 2000);
        assert_eq!(s.job_gen.mean_interarrival, 30.0);
    }
}
