//! Lane-count equivalence: `run_trace_sharded` stores node-local events
//! on one queue lane per zone region, and the lanes share a sequence
//! counter, so the lane count may not change the trajectory. Pinned
//! here at 2, 4 and 8 lanes against `run_trace`, for all three
//! schedulers, over the full-trajectory digest rather than summary
//! statistics: a run that reorders even one tie-break fails.

use p2p_ce_grid::prelude::*;
use p2p_ce_grid::sched::{matchmaker_for, run_trace, run_trace_sharded};

/// Every behaviour-bearing field of a trace replay, in a fixed order
/// (`recovery` and `overload` are `None` on this entry point).
fn digest(r: &SimResult) -> u64 {
    let mut h = Fnv::new();
    h.write_usize(r.wait_times.len());
    for &w in &r.wait_times {
        h.write_f64(w);
    }
    for &n in &r.placed_nodes {
        h.write_u64(n.0 as u64);
    }
    h.write_u64(r.route_hops.count());
    h.write_f64(r.route_hops.mean());
    h.write_f64(r.route_hops.max().unwrap_or(-1.0));
    h.write_u64(r.pushes.count());
    h.write_f64(r.pushes.mean());
    h.write_f64(r.pushes.max().unwrap_or(-1.0));
    h.write_u64(r.fallback_placements);
    h.write_f64(r.makespan);
    h.write_u64(r.events_fired);
    h.write_u64(r.lost_jobs);
    for &b in &r.node_busy_seconds {
        h.write_f64(b);
    }
    h.finish()
}

#[test]
fn fig5_quick_matches_sequential_for_every_shard_count() {
    let mut s = default_scenario().scaled_down(10); // 100 nodes
    s.jobs = 400;
    let mut stream = s.job_stream(generate_nodes(&s.node_gen, s.nodes, s.seed));
    let jobs = stream.take_jobs(s.jobs);
    let population = stream
        .into_population()
        .expect("stream keeps its population");
    let layout = DimensionLayout::with_dims(s.dims);
    for choice in SchedulerChoice::ALL {
        let run = |shards: Option<usize>| {
            let mut grid = StaticGrid::build(layout.clone(), population.clone(), s.seed);
            let mut mm = matchmaker_for(choice, &grid, PushParams::default());
            let (period, seed) = (s.ai_refresh_period, s.seed);
            digest(&match shards {
                None => run_trace(&mut grid, mm.as_mut(), &jobs, period, seed, choice),
                Some(n) => {
                    run_trace_sharded(&mut grid, mm.as_mut(), &jobs, period, seed, choice, n)
                }
            })
        };
        let seq = run(None);
        for shards in [2, 4, 8] {
            assert_eq!(
                run(Some(shards)),
                seq,
                "{choice:?}: {shards}-lane trajectory diverged from sequential"
            );
        }
    }
}
