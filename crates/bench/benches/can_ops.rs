//! Micro-benchmarks of the CAN substrate: joins, routing, heartbeat
//! rounds, churn-event processing, the broken-link metric and one
//! large-population Figure 7 churn run.
//!
//! Plain stopwatch harness (run with `cargo bench --bench can_ops`).

use pgrid::prelude::*;
use pgrid_bench::stopwatch::{bench, record};
use std::time::Instant;

fn build_can(n: usize, d: usize, scheme: HeartbeatScheme) -> CanSim {
    let mut sim = CanSim::new(ProtocolConfig::new(d, scheme)).expect("valid protocol config");
    let mut rng = SimRng::seed_from_u64(7);
    let mut joined = 0;
    while joined < n {
        let c: Vec<f64> = (0..d).map(|_| rng.unit()).collect();
        if sim.join(c).is_ok() {
            joined += 1;
        }
        sim.advance_to(sim.now() + 1.0);
    }
    sim
}

fn bench_join() {
    bench("can/join_500_nodes_11d", 3, || {
        build_can(500, 11, HeartbeatScheme::Compact).len()
    });
}

fn bench_routing() {
    let sim = build_can(1000, 11, HeartbeatScheme::Vanilla);
    let members = sim.members();
    let mut rng = SimRng::seed_from_u64(11);
    bench("can/route_1000_nodes_11d", 2000, || {
        let p: Vec<f64> = (0..11).map(|_| rng.unit()).collect();
        let start = members[rng.below(members.len())];
        pgrid::can::route(&sim, start, &p).unwrap().hops
    });
}

fn bench_heartbeat_round() {
    for scheme in HeartbeatScheme::ALL {
        let label = format!("can/heartbeat_period_500_nodes/{}", scheme.label());
        bench(&label, 3, || {
            let mut sim = build_can(500, 11, scheme);
            let t = sim.now() + 60.0;
            sim.advance_to(t);
            sim.len()
        });
    }
}

fn bench_churn_event() {
    bench("can_churn/churn_event_300_nodes_11d", 3, || {
        let mut sim = build_can(300, 11, HeartbeatScheme::Adaptive);
        let mut rng = SimRng::seed_from_u64(3);
        for _ in 0..10 {
            sim.advance_to(sim.now() + 10.0);
            if rng.chance(0.5) {
                let _ = sim.join((0..11).map(|_| rng.unit()).collect());
            } else {
                let m = sim.members();
                sim.leave(m[rng.below(m.len())], rng.chance(0.5));
            }
        }
        sim.len()
    });
}

fn bench_broken_links_metric() {
    let sim = build_can(1000, 11, HeartbeatScheme::Compact);
    bench("can/broken_links_metric_1000_nodes", 200, || {
        sim.broken_links()
    });
}

/// Figure 7's high-churn run on 4096 nodes under the compact scheme
/// (whose fan-out keeps the run short at this population), with a
/// tighter bootstrap and window than the figure's: at n = 4096 the
/// default 1 s join spacing alone would dwarf the measured churn phase.
/// One iteration is one datagram applied to a live receiver.
fn bench_fig7_large() {
    let mut cfg = ChurnConfig::new(11, HeartbeatScheme::Compact, 4096).high_churn();
    cfg.bootstrap_spacing = 0.25;
    cfg.stage2_duration = 300.0;
    cfg.sample_interval = 150.0;
    let t = Instant::now();
    let r = run_churn(&cfg, uniform_coords(cfg.dims));
    record(
        "fig7/n4096/compact",
        r.counters.delivered,
        t.elapsed().as_secs_f64(),
    );
}

fn main() {
    bench_join();
    bench_routing();
    bench_heartbeat_round();
    bench_churn_event();
    bench_broken_links_metric();
    bench_fig7_large();
}
