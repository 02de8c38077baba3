//! `fig7_churn`: the CAN heartbeat plane under high churn, Figures 7
//! and 8 at paper scale, one simulation per heartbeat scheme.
//!
//! The loop below is `can::run_churn`'s, call for call, written against
//! the public `CanSim` so that each call can be timed from here.
//! `--seed` is the `ChurnConfig`'s seed, so every run is `run_churn` of
//! that seed draw for draw, and the self-test checks that it ends in
//! `run_churn`'s `state_digest`.

use crate::sim::{Outcome, Sim};
use crate::trace::Tracer;
use pgrid::can::{uniform_coords, CanSim, ChurnConfig, HeartbeatScheme, ProtocolConfig};
use pgrid::simcore::rng::sub_seed;
use pgrid::simcore::SimRng;

pub struct ChurnSim {
    label: &'static str,
    pub cfg: ChurnConfig,
}

pub struct ChurnReady {
    sim: CanSim,
    rng: SimRng,
}

/// One simulation per scheme at `1/div` of the paper's 1000 nodes.
pub fn churn(seed: u64, div: usize) -> Vec<ChurnSim> {
    HeartbeatScheme::ALL
        .into_iter()
        .map(|scheme| {
            let mut cfg = ChurnConfig::new(11, scheme, 1000 / div).high_churn();
            cfg.seed = seed;
            ChurnSim {
                label: match scheme {
                    HeartbeatScheme::Vanilla => "fig7_churn/vanilla",
                    HeartbeatScheme::Compact => "fig7_churn/compact",
                    HeartbeatScheme::Adaptive => "fig7_churn/adaptive",
                },
                cfg,
            }
        })
        .collect()
}

impl Sim for ChurnSim {
    type Ready = ChurnReady;

    fn label(&self) -> &'static str {
        self.label
    }

    /// Nominal node-heartbeat periods of stage 2: the population times
    /// the periods the window holds. Fixed by configuration; churn moves
    /// the real count a little either way.
    fn units(&self) -> u64 {
        let periods = (self.cfg.stage2_duration / self.cfg.heartbeat_period).round() as u64;
        self.cfg.initial_nodes as u64 * periods
    }

    /// Stage 1: sequential joins, then the settle time.
    fn setup(&self, t: &Tracer) -> ChurnReady {
        let cfg = &self.cfg;
        let mut proto = ProtocolConfig::new(cfg.dims, cfg.scheme);
        proto.heartbeat_period = cfg.heartbeat_period;
        proto.fail_timeout = cfg.fail_timeout;
        proto.message_loss = cfg.message_loss;
        proto.detector = cfg.detector;
        proto.loss_seed = sub_seed(cfg.seed, 0x7055);
        let mut sim = CanSim::new(proto).expect("valid protocol config");
        let mut rng = SimRng::sub_stream(cfg.seed, 0xC0DE);
        let mut coords = uniform_coords(cfg.dims);

        let mut joined = 0;
        while joined < cfg.initial_nodes {
            let c = coords(&mut rng);
            if t.span("can.protocol.join", || sim.join(c)).is_ok() {
                joined += 1;
            }
            let until = sim.now() + cfg.bootstrap_spacing;
            t.span("can.protocol.advance_to.bootstrap", || {
                sim.advance_to(until)
            });
        }
        let until = sim.now() + cfg.settle_time;
        t.span("can.protocol.advance_to.bootstrap", || {
            sim.advance_to(until)
        });
        sim.reset_accounting();
        ChurnReady { sim, rng }
    }

    /// Stage 2: joins and leaves with equal probability, broken links
    /// sampled on a fixed grid.
    fn run(&self, ready: &mut ChurnReady, t: &Tracer, out: &mut Outcome) {
        let cfg = &self.cfg;
        let ChurnReady { sim, rng } = ready;
        let mut coords = uniform_coords(cfg.dims);
        let delivered_before = sim.delivered_messages();

        let stage2_start = sim.now();
        let end = stage2_start + cfg.stage2_duration;
        let mut next_sample = stage2_start;
        let mut broken: Vec<usize> = Vec::new();
        let min_nodes = (cfg.initial_nodes / 2).max(2);
        let mut next_event = stage2_start + cfg.event_gap;
        let mut failed_joins = 0u64;
        while next_event <= end || next_sample <= end {
            if next_sample <= next_event && next_sample <= end {
                t.span("can.protocol.advance_to", || sim.advance_to(next_sample));
                broken.push(t.span("can.protocol.broken_links", || sim.broken_links()));
                next_sample += cfg.sample_interval;
                continue;
            }
            if next_event > end {
                break;
            }
            t.span("can.protocol.advance_to", || sim.advance_to(next_event));
            let join = sim.len() <= min_nodes || rng.chance(0.5);
            if join {
                let c = coords(rng);
                if t.span("can.protocol.join", || sim.join(c)).is_err() {
                    failed_joins += 1;
                }
            } else {
                let members = sim.members();
                let victim = members[rng.below(members.len())];
                let graceful = rng.chance(cfg.graceful_fraction);
                t.span("can.protocol.leave", || sim.leave(victim, graceful));
            }
            next_event += cfg.event_gap;
        }
        t.span("can.protocol.advance_to", || sim.advance_to(end));
        let digest = t.span("can.protocol.state_digest", || sim.state_digest());
        out.fold_u64(digest);

        // The steady level of Figure 7: mean over the last half of the
        // series, as `ChurnReport::steady_broken_links` takes it.
        let tail = &broken[broken.len() / 2..];
        let steady = tail.iter().sum::<usize>() as f64 / tail.len().max(1) as f64;
        let (broken_name, msgs_name, kb_name) = match cfg.scheme {
            HeartbeatScheme::Vanilla => (
                "model.steady_broken_links.vanilla",
                "model.msgs_per_node_min.vanilla",
                "model.kb_per_node_min.vanilla",
            ),
            HeartbeatScheme::Compact => (
                "model.steady_broken_links.compact",
                "model.msgs_per_node_min.compact",
                "model.kb_per_node_min.compact",
            ),
            HeartbeatScheme::Adaptive => (
                "model.steady_broken_links.adaptive",
                "model.msgs_per_node_min.adaptive",
                "model.kb_per_node_min.adaptive",
            ),
        };
        out.add(broken_name, steady);
        let acct = sim.accounting();
        out.add(msgs_name, acct.heartbeat_msgs_per_node_min());
        out.add(kb_name, acct.heartbeat_kb_per_node_min());
        out.add("can.protocol.join.failed", failed_joins as f64);
        out.add(
            "can.protocol.delivered",
            (sim.delivered_messages() - delivered_before) as f64,
        );
        out.add("can.protocol.dropped", sim.dropped_messages() as f64);
        out.add("can.protocol.repairs", sim.repairs() as f64);
        out.add(
            "can.protocol.full_update_rounds",
            sim.full_update_rounds() as f64,
        );
        out.add("can.protocol.gap_probes", sim.gap_probes() as f64);
    }
}
