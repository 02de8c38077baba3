//! The two-stage churn experiment driver of §V-B.
//!
//! "In the initial stage of each experiment, n nodes join the system
//! sequentially. After that, node join and node leave events occur with
//! equal probability, so that the number of nodes in the system
//! converges to a dynamic equilibrium. The time gap between events
//! (join or leave) in the second stage of the experiment is either
//! longer than a heartbeat period (to ensure no multiple simultaneous
//! events), or shorter than a heartbeat period (to see the effects of
//! multiple simultaneous events)."
//!
//! This driver produces both the Figure 7 broken-link time series and
//! the Figure 8 message-cost rates.

use crate::geom::Point;
use crate::protocol::{CanCounters, CanSim, DetectorConfig, HeartbeatScheme, ProtocolConfig};
use pgrid_simcore::{SimRng, SimTime};

/// Configuration of one churn experiment.
#[derive(Debug, Clone)]
pub struct ChurnConfig {
    /// CAN dimensionality.
    pub dims: usize,
    /// Heartbeat scheme under test.
    pub scheme: HeartbeatScheme,
    /// Stage-1 population.
    pub initial_nodes: usize,
    /// Spacing between stage-1 sequential joins (seconds).
    pub bootstrap_spacing: f64,
    /// Quiet time between stage 1 and stage 2, letting heartbeats
    /// settle before measurement starts.
    pub settle_time: f64,
    /// Gap between stage-2 churn events. Shorter than the heartbeat
    /// period ⇒ high churn (simultaneous events within a period).
    pub event_gap: f64,
    /// Length of stage 2 (the measurement window), seconds.
    pub stage2_duration: f64,
    /// Fraction of departures that are graceful (hand their state to
    /// the take-over target); the rest crash.
    pub graceful_fraction: f64,
    /// Broken links are sampled every this many seconds.
    pub sample_interval: f64,
    /// Master seed.
    pub seed: u64,
    /// Heartbeat period override (defaults to the protocol default).
    pub heartbeat_period: f64,
    /// Failure-detection timeout override.
    pub fail_timeout: f64,
    /// Failure-injection: probability that any protocol message is
    /// dropped in flight (see [`crate::ProtocolConfig::message_loss`]).
    pub message_loss: f64,
    /// Failure-detector configuration threaded into the protocol
    /// (`None` keeps the legacy passive behavior — the fig7/fig8
    /// experiments of the paper).
    pub detector: Option<DetectorConfig>,
}

impl ChurnConfig {
    /// Defaults for a given scheme/dimension/population: 60 s
    /// heartbeats, 1 s bootstrap spacing, 5-minute settle.
    pub fn new(dims: usize, scheme: HeartbeatScheme, initial_nodes: usize) -> Self {
        ChurnConfig {
            dims,
            scheme,
            initial_nodes,
            bootstrap_spacing: 1.0,
            settle_time: 300.0,
            event_gap: 10.0,
            stage2_duration: 3600.0,
            graceful_fraction: 0.5,
            sample_interval: 250.0,
            seed: 2011,
            heartbeat_period: 60.0,
            fail_timeout: 150.0,
            message_loss: 0.0,
            detector: None,
        }
    }

    /// High-churn variant: several events per heartbeat period (the
    /// Figure 7 regime).
    pub fn high_churn(mut self) -> Self {
        self.event_gap = self.heartbeat_period / 6.0;
        self
    }

    /// Low-churn variant: events strictly farther apart than the
    /// failure timeout ("no simultaneous events"), and every departure
    /// graceful — the regime in which the paper argues all three
    /// schemes are equally failure-free. (A *crash* inherently leaves
    /// links broken until the failure-detection timeout elapses, even
    /// in isolation, so it is not part of this regime.)
    pub fn low_churn(mut self) -> Self {
        self.event_gap = self.fail_timeout + self.heartbeat_period;
        self.graceful_fraction = 1.0;
        self
    }

    /// The protocol the experiment runs: its scheme, dimensionality,
    /// timing, loss and detector, with the fault stream seeded from
    /// [`ChurnConfig::seed`]. [`ProtocolConfig::validate`] on it is what
    /// [`run_churn`] requires.
    pub fn protocol(&self) -> ProtocolConfig {
        let mut proto = ProtocolConfig::new(self.dims, self.scheme);
        proto.heartbeat_period = self.heartbeat_period;
        proto.fail_timeout = self.fail_timeout;
        proto.message_loss = self.message_loss;
        proto.detector = self.detector;
        proto.loss_seed = pgrid_simcore::rng::sub_seed(self.seed, 0x7055);
        proto
    }

    /// The simulated time stage 2 ends at when every stage-1 join
    /// succeeds (a join fails only on a coordinate identical to its
    /// host's, and each failure moves the end one bootstrap spacing
    /// later). An event gap this clock absorbs (`end + gap == end`)
    /// never advances stage 2.
    pub fn stage2_end(&self) -> SimTime {
        self.initial_nodes as f64 * self.bootstrap_spacing + self.settle_time + self.stage2_duration
    }
}

/// One broken-link sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BrokenSample {
    /// Simulation time of the sample.
    pub time: SimTime,
    /// Directed broken-link count at that time.
    pub broken_links: usize,
    /// Alive nodes at that time.
    pub nodes: usize,
}

/// Results of a churn experiment.
#[derive(Debug, Clone)]
pub struct ChurnReport {
    /// Scheme measured.
    pub scheme: HeartbeatScheme,
    /// Dimensions of the CAN.
    pub dims: usize,
    /// Broken links over stage 2 (Figure 7 series).
    pub broken_series: Vec<BrokenSample>,
    /// Heartbeat messages per node per minute (Figure 8(a)).
    pub msgs_per_node_min: f64,
    /// Heartbeat volume in KB per node per minute (Figure 8(b)).
    pub kb_per_node_min: f64,
    /// Ground-truth mean neighbor degree at the end.
    pub mean_degree: f64,
    /// Population at the end of stage 2.
    pub final_nodes: usize,
    /// The simulator's work and fault counters over the whole run;
    /// `delivered` is the unit the `fig7/n4096/compact` micro-benchmark
    /// reports its cost in.
    pub counters: CanCounters,
    /// FNV-1a digest of the final observable simulator state (members,
    /// epochs, zones, every fault/detector counter); pins the exact
    /// trajectory for golden tests.
    pub state_digest: u64,
}

impl ChurnReport {
    /// Mean broken links over the last half of the series (the
    /// steady-state level Figure 7 shows the curves flattening to).
    pub fn steady_broken_links(&self) -> f64 {
        let n = self.broken_series.len();
        if n == 0 {
            return 0.0;
        }
        let tail = &self.broken_series[n / 2..];
        tail.iter().map(|s| s.broken_links as f64).sum::<f64>() / tail.len() as f64
    }
}

/// Runs one churn experiment. `coord_gen` supplies joining nodes'
/// coordinates (use [`uniform_coords`] for the dimension-scaling
/// experiments).
///
/// Panics if [`ChurnConfig::protocol`] does not validate.
pub fn run_churn(cfg: &ChurnConfig, coord_gen: impl FnMut(&mut SimRng) -> Point) -> ChurnReport {
    run_churn_sim(cfg, coord_gen).0
}

/// [`run_churn`], handing back the simulator it ran, at the end of
/// stage 2, for probes of the overlay the churn left behind.
pub fn run_churn_sim(
    cfg: &ChurnConfig,
    mut coord_gen: impl FnMut(&mut SimRng) -> Point,
) -> (ChurnReport, CanSim) {
    let mut sim = CanSim::new(cfg.protocol()).expect("valid protocol config");
    let mut rng = SimRng::sub_stream(cfg.seed, 0xC0DE);

    // Stage 1: sequential joins.
    let mut joined = 0;
    while joined < cfg.initial_nodes {
        let c = coord_gen(&mut rng);
        if sim.join(c).is_ok() {
            joined += 1;
        }
        sim.advance_to(sim.now() + cfg.bootstrap_spacing);
    }
    sim.advance_to(sim.now() + cfg.settle_time);
    sim.reset_accounting();

    // Stage 2: join/leave churn with equal probability.
    let stage2_start = sim.now();
    let end = stage2_start + cfg.stage2_duration;
    let mut next_sample = stage2_start;
    let mut series = Vec::new();
    let min_nodes = (cfg.initial_nodes / 2).max(2);
    let mut next_event = stage2_start + cfg.event_gap;
    while next_event <= end || next_sample <= end {
        if next_sample <= next_event && next_sample <= end {
            sim.advance_to(next_sample);
            series.push(BrokenSample {
                time: next_sample - stage2_start,
                broken_links: sim.broken_links(),
                nodes: sim.len(),
            });
            next_sample += cfg.sample_interval;
            continue;
        }
        if next_event > end {
            break;
        }
        sim.advance_to(next_event);
        let join = sim.len() <= min_nodes || rng.chance(0.5);
        if join {
            let c = coord_gen(&mut rng);
            let _ = sim.join(c);
        } else {
            let members = sim.members();
            let victim = members[rng.below(members.len())];
            sim.leave(victim, rng.chance(cfg.graceful_fraction));
        }
        next_event += cfg.event_gap;
    }
    sim.advance_to(end);

    let mean_degree = sim.mean_degree();
    let final_nodes = sim.len();
    let counters = *sim.counters();
    let state_digest = sim.state_digest();
    let acct = sim.accounting();
    let report = ChurnReport {
        scheme: cfg.scheme,
        dims: cfg.dims,
        broken_series: series,
        msgs_per_node_min: acct.heartbeat_msgs_per_node_min(),
        kb_per_node_min: acct.heartbeat_kb_per_node_min(),
        mean_degree,
        final_nodes,
        counters,
        state_digest,
    };
    (report, sim)
}

/// Uniform random coordinates: every dimension populated, which is the
/// regime the dimension-scaling experiments need (zones split across
/// all axes).
pub fn uniform_coords(dims: usize) -> impl FnMut(&mut SimRng) -> Point {
    move |rng| (0..dims).map(|_| rng.unit()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(scheme: HeartbeatScheme) -> ChurnConfig {
        let mut c = ChurnConfig::new(4, scheme, 40);
        c.stage2_duration = 1500.0;
        c.sample_interval = 300.0;
        c
    }

    #[test]
    fn low_churn_produces_no_broken_links() {
        for scheme in HeartbeatScheme::ALL {
            let cfg = small(scheme).low_churn();
            let report = run_churn(&cfg, uniform_coords(cfg.dims));
            assert!(
                report.broken_series.iter().all(|s| s.broken_links == 0),
                "{}: broken links under low churn: {:?}",
                scheme.label(),
                report.broken_series
            );
        }
    }

    #[test]
    fn high_churn_breaks_compact_more_than_vanilla() {
        let mut results = Vec::new();
        for scheme in HeartbeatScheme::ALL {
            let mut cfg = small(scheme).high_churn();
            cfg.stage2_duration = 3000.0;
            let report = run_churn(&cfg, uniform_coords(cfg.dims));
            results.push((scheme, report.steady_broken_links()));
        }
        let get = |s: HeartbeatScheme| results.iter().find(|(x, _)| *x == s).unwrap().1;
        let v = get(HeartbeatScheme::Vanilla);
        let c = get(HeartbeatScheme::Compact);
        assert!(
            c >= v,
            "compact ({c:.1}) should break at least as much as vanilla ({v:.1})"
        );
    }

    #[test]
    fn report_rates_are_positive() {
        let cfg = small(HeartbeatScheme::Compact);
        let report = run_churn(&cfg, uniform_coords(cfg.dims));
        assert!(report.msgs_per_node_min > 0.0);
        assert!(report.kb_per_node_min > 0.0);
        assert!(report.mean_degree > 1.0);
        assert!(report.final_nodes >= 20);
    }

    #[test]
    fn population_stays_near_equilibrium() {
        let mut cfg = small(HeartbeatScheme::Vanilla).high_churn();
        cfg.stage2_duration = 2000.0;
        let report = run_churn(&cfg, uniform_coords(cfg.dims));
        // Equal join/leave probability: population should stay within
        // a factor of 2 of the initial 40.
        assert!(
            (20..=80).contains(&report.final_nodes),
            "population drifted to {}",
            report.final_nodes
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = small(HeartbeatScheme::Adaptive).high_churn();
        let a = run_churn(&cfg, uniform_coords(cfg.dims));
        let b = run_churn(&cfg, uniform_coords(cfg.dims));
        assert_eq!(a.broken_series, b.broken_series);
        assert_eq!(a.msgs_per_node_min, b.msgs_per_node_min);
        assert_eq!(a.final_nodes, b.final_nodes);
    }
}
