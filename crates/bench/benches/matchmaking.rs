//! Matchmaking latency per job for the three schedulers on a
//! 1000-node, 11-dimensional grid (the Figure 5/6 configuration), the
//! aggregate table under churn, and greedy routing alone.
//!
//! Plain stopwatch harness (run with `cargo bench --bench matchmaking`).

use pgrid::prelude::*;
use pgrid::sched::StaticGrid;
use pgrid::types::DimensionLayout;
use pgrid_bench::stopwatch::{bench, record};
use std::time::Instant;

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

/// One random load mutation against `grid`, mirroring the churn mix of
/// the simulator's quick-fig5 runs (mostly placements and completions,
/// occasional volunteer eviction/restore).
fn churn_event(
    grid: &mut StaticGrid,
    stream: &mut JobStream,
    running: &mut Vec<(NodeId, JobId)>,
    evicted: &mut Vec<NodeId>,
    rng: &mut SimRng,
) {
    let n = grid.len();
    match rng.below(20) {
        0 => {
            let victim = NodeId(rng.below(n) as u32);
            grid.evict_node(victim);
            running.retain(|&(node, _)| node != victim);
            evicted.push(victim);
        }
        1 => {
            if let Some(back) = evicted.pop() {
                grid.restore_node(back);
                let started = grid.with_runtime_mut(back, |rt| rt.start_ready());
                running.extend(started.into_iter().map(|s| (back, s.job.id)));
            }
        }
        2..=7 => {
            if !running.is_empty() {
                let k = rng.below(running.len());
                let (node, jid) = running.swap_remove(k);
                let started = grid.with_runtime_mut(node, |rt| {
                    rt.finish(jid);
                    rt.start_ready()
                });
                running.extend(started.into_iter().map(|s| (node, s.job.id)));
            }
        }
        _ => {
            let (_, job) = stream.next_job();
            let target = (0..32)
                .map(|_| NodeId(rng.below(n) as u32))
                .find(|&t| job.satisfied_by(&grid.runtime(t).spec));
            if let Some(target) = target {
                let started = grid.with_runtime_mut(target, |rt| {
                    rt.enqueue(job, 0.0);
                    rt.start_ready()
                });
                running.extend(started.into_iter().map(|s| (target, s.job.id)));
            }
        }
    }
}

/// The demand-driven `AiTable` against the from-scratch rebuild at
/// several grid sizes under a fixed per-tick churn budget; one
/// iteration is one refresh tick, and the churn between ticks is not
/// timed. Every table sees the identical grid each tick. A refresh
/// alone only marks rows, so the lazy cells time it *plus* reads:
/// `lazy_dense` reads every row (the worst case — all of `scratch`'s
/// arithmetic, found by walking instead of a precomputed order),
/// `lazy_sparse` the rows the pushes of one period read. `scratch`
/// stops at n = 4096: `lazy_dense` is its cost there and above.
fn bench_ai_refresh() {
    const TICKS: u64 = 150;
    const MUTATIONS_PER_TICK: usize = 32;
    const PUSHES_PER_TICK: usize = 32;
    for n in [256usize, 1024, 4096, 32_768] {
        let with_scratch = n <= 4096;
        let pop = generate_nodes(&NodeGenConfig::paper_defaults(2), n, 99);
        let jobcfg = JobGenConfig::paper_defaults(2, 0.6, 3.0);
        let mut stream = JobStream::with_population(jobcfg, 99, pop.clone());
        let mut grid = StaticGrid::build(DimensionLayout::with_dims(11), pop, 99);
        let dims = grid.layout().dims();
        let mut dense = AiTable::new(&grid, AiGrouping::PerCe);
        let mut sparse = AiTable::new(&grid, AiGrouping::PerCe);
        let mut scr = AiTable::new(&grid, AiGrouping::PerCe);
        dense.refresh(&grid, 0.0);
        sparse.refresh(&grid, 0.0);
        scr.refresh_scratch(&grid, 0.0);
        let mut rng = SimRng::seed_from_u64(0xA1F0 ^ n as u64);
        let mut walk = SimRng::seed_from_u64(0x9057 ^ n as u64);
        let mut running: Vec<(NodeId, JobId)> = Vec::new();
        let mut evicted: Vec<NodeId> = Vec::new();
        let (mut dense_secs, mut sparse_secs, mut scr_secs) = (0.0f64, 0.0f64, 0.0f64);
        let mut read = 0u64;
        for tick in 0..TICKS {
            for _ in 0..MUTATIONS_PER_TICK {
                churn_event(&mut grid, &mut stream, &mut running, &mut evicted, &mut rng);
            }
            let now = tick as f64;

            let t = Instant::now();
            dense.refresh(&grid, now);
            for i in 0..n as u32 {
                for d in 0..dims {
                    read += dense.beyond(&grid, NodeId(i), d, CeType::CPU).nodes;
                }
            }
            dense_secs += t.elapsed().as_secs_f64();

            let t = Instant::now();
            sparse.refresh(&grid, now);
            // What a push step of `place` reads: the row of every
            // outward neighbor of the node the job sits on, along the
            // dimension they abut on, then the node's own row along the
            // dimension chosen.
            for _ in 0..PUSHES_PER_TICK {
                let current = NodeId(walk.below(n) as u32);
                for d in 0..dims {
                    for &m in grid.outward_neighbors(current, d) {
                        read += sparse.beyond(&grid, m, d, CeType::CPU).nodes;
                    }
                }
                let toward = walk.below(dims);
                read += sparse.beyond(&grid, current, toward, CeType::CPU).nodes;
            }
            sparse_secs += t.elapsed().as_secs_f64();

            if with_scratch {
                let t = Instant::now();
                scr.refresh_scratch(&grid, now);
                scr_secs += t.elapsed().as_secs_f64();
            }
        }
        std::hint::black_box(read);
        record(&format!("ai_refresh/n{n}/lazy_dense"), TICKS, dense_secs);
        record(&format!("ai_refresh/n{n}/lazy_sparse"), TICKS, sparse_secs);
        if with_scratch {
            record(&format!("ai_refresh/n{n}/scratch"), TICKS, scr_secs);
        }
    }
}

/// Greedy routing alone — the first half of every `place` — at the
/// paper population and at `fig5_scale`'s: the jobs of the paper
/// workload scaled to `n` nodes (arrival rate scaled to hold per-node
/// load, `2×10⁸ / n` jobs clamped to [400, 20 000]), each routed to its
/// coordinate from a random entry node, the query stream of the repo
/// benchmark's route probe. One iteration is one hop.
fn bench_route() {
    for n in [1000usize, 32_768] {
        let mut sc = default_scenario();
        sc.job_gen.mean_interarrival /= n as f64 / sc.nodes as f64;
        sc.nodes = n;
        sc.jobs = (200_000_000 / n).clamp(400, 20_000);
        let mut stream = sc.job_stream(generate_nodes(&sc.node_gen, sc.nodes, sc.seed));
        let jobs = stream.take_jobs(sc.jobs);
        let population = stream
            .into_population()
            .expect("stream keeps its population");
        let grid = StaticGrid::build(DimensionLayout::with_dims(sc.dims), population, sc.seed);
        let mut rng = SimRng::sub_stream(sc.seed, 0xB0B7E);
        let mut hops = 0u64;
        let t = Instant::now();
        for (_, job) in &jobs {
            let coord = grid.layout().job_coord(job, rng.unit());
            let entry = NodeId(rng.below(n) as u32);
            hops += grid.route_to(entry, &coord).hops as u64;
        }
        record(&format!("route/n{n}"), hops, t.elapsed().as_secs_f64());
    }
}

fn main() {
    bench_place();
    bench_ai_refresh();
    bench_route();
}
