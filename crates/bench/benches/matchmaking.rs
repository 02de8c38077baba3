//! Matchmaking latency per job for the three schedulers on a
//! 1000-node, 11-dimensional grid (the Figure 5/6 configuration).
//!
//! Plain stopwatch harness (run with `cargo bench --bench matchmaking`).

use pgrid::prelude::*;
use pgrid::sched::StaticGrid;
use pgrid::types::DimensionLayout;
use pgrid_bench::stopwatch::bench;

fn setup() -> (StaticGrid, Vec<JobSpec>) {
    let scenario = default_scenario();
    let layout = DimensionLayout::with_dims(scenario.dims);
    let pop = generate_nodes(&scenario.node_gen, scenario.nodes, scenario.seed);
    let grid = StaticGrid::build(layout, pop.clone(), scenario.seed);
    let mut stream = JobStream::with_population(scenario.job_gen.clone(), scenario.seed, pop);
    let jobs = stream.take_jobs(512).into_iter().map(|(_, j)| j).collect();
    (grid, jobs)
}

fn bench_place() {
    let (grid, jobs) = setup();
    {
        let mut m = PushingMatchmaker::heterogeneous(&grid, PushParams::default());
        m.refresh(&grid, 0.0);
        let mut rng = SimRng::seed_from_u64(1);
        let mut i = 0usize;
        bench("matchmaking/place_1000_nodes/can-het", 5000, || {
            let j = &jobs[i % jobs.len()];
            i += 1;
            m.place(&grid, j, &mut rng).node
        });
    }
    {
        let mut m = PushingMatchmaker::homogeneous(&grid, PushParams::default());
        m.refresh(&grid, 0.0);
        let mut rng = SimRng::seed_from_u64(2);
        let mut i = 0usize;
        bench("matchmaking/place_1000_nodes/can-hom", 5000, || {
            let j = &jobs[i % jobs.len()];
            i += 1;
            m.place(&grid, j, &mut rng).node
        });
    }
    {
        let mut m = CentralMatchmaker;
        let mut rng = SimRng::seed_from_u64(3);
        let mut i = 0usize;
        bench("matchmaking/place_1000_nodes/central", 5000, || {
            let j = &jobs[i % jobs.len()];
            i += 1;
            m.place(&grid, j, &mut rng).node
        });
    }
}

fn bench_ai_refresh() {
    // A refresh alone only snapshots and marks; the aggregate rows are
    // computed by the reads. So: one node's worth of churn, the refresh
    // that snapshots it, and every row read — the dense worst case.
    let (mut grid, _) = setup();
    let (n, dims) = (grid.len(), grid.layout().dims());
    let mut ai = AiTable::new(&grid, AiGrouping::PerCe);
    let mut i = 0usize;
    bench("matchmaking/ai_refresh_1000_nodes", 200, || {
        let node = NodeId((i / 2 * 7919 % n) as u32);
        if i.is_multiple_of(2) {
            grid.evict_node(node);
        } else {
            grid.restore_node(node);
        }
        i += 1;
        ai.refresh(&grid, 60.0 * i as f64);
        let mut nodes = 0u64;
        for id in (0..n as u32).map(NodeId) {
            for d in 0..dims {
                nodes += ai.beyond(&grid, id, d, CeType::CPU).nodes;
            }
        }
        nodes
    });
}

fn main() {
    bench_place();
    bench_ai_refresh();
}
