//! `StaticGrid::route_to` against a full scan of every neighbor list,
//! on the query stream `place` and the repo benchmark's route probe
//! draw: each job of a Figure 5 trace routed to its coordinate from a
//! random entry node. These are the walks whose hop counts the golden
//! and benchmark digests fold, so owner and hops must be equal route
//! for route. (`crates/sched/tests/props.rs` holds the adversarial
//! targets and the per-hop comparison.)

use p2p_ce_grid::can::{route, Point, RoutingView};
use p2p_ce_grid::prelude::*;

/// `StaticGrid`'s topology under the trait's default
/// `closest_neighbor`: the full scan, with distance and containment
/// read off the `Zone` itself rather than the grid's flat bounds.
struct FullScan<'a>(&'a StaticGrid);

impl RoutingView for FullScan<'_> {
    type NeighborIter<'b>
        = <StaticGrid as RoutingView>::NeighborIter<'b>
    where
        Self: 'b;
    fn route_neighbors(&self, id: NodeId) -> Self::NeighborIter<'_> {
        self.0.route_neighbors(id)
    }
    fn zone_distance(&self, id: NodeId, p: &Point) -> f64 {
        self.0.zone(id).distance_to(p)
    }
    fn zone_contains(&self, id: NodeId, p: &Point) -> bool {
        self.0.zone(id).contains(p)
    }
}

/// The paper workload at population `nodes` (the benchmark's
/// `fig5_paper` / `fig5_sharded` shapes), first `jobs` jobs.
fn mismatches(seed: u64, nodes: usize, jobs: usize) -> usize {
    mismatches_in(default_scenario().with_seed(seed), nodes, jobs)
}

/// The same on a `dims`-dimensional layout over the three-GPU-family
/// population: the dimensions of GPU slots past the third are 0 on
/// every node and every job.
fn wide_mismatches(seed: u64, dims: usize, nodes: usize, jobs: usize) -> usize {
    let mut sc = default_scenario().with_seed(seed);
    sc.dims = dims;
    sc.node_gen = NodeGenConfig::paper_defaults(3);
    sc.job_gen = JobGenConfig::paper_defaults(3, 0.6, 3.0);
    mismatches_in(sc, nodes, jobs)
}

fn mismatches_in(mut sc: LoadBalanceScenario, nodes: usize, jobs: usize) -> usize {
    let seed = sc.seed;
    sc.nodes = nodes;
    let mut stream = sc.job_stream(generate_nodes(&sc.node_gen, sc.nodes, sc.seed));
    let trace = stream.take_jobs(jobs);
    let population = stream
        .into_population()
        .expect("stream keeps its population");
    let grid = StaticGrid::build(DimensionLayout::with_dims(sc.dims), population, sc.seed);
    let mut rng = SimRng::sub_stream(seed, 0xB0B7E);
    let mut differ = 0;
    for (_, job) in &trace {
        let coord = grid.layout().job_coord(job, rng.unit());
        let entry = NodeId(rng.below(nodes) as u32);
        let want = route(&FullScan(&grid), entry, &coord).expect("grid is connected");
        differ += usize::from(grid.route_to(entry, &coord) != want);
    }
    differ
}

#[test]
fn route_matches_the_full_scan_on_figure5_traces() {
    for seed in [2011, 7, 41] {
        assert_eq!(mismatches(seed, 1000, 4000), 0, "seed {seed}, n=1000");
    }
    assert_eq!(mismatches(2011, 8192, 1500), 0, "seed 2011, n=8192");
}

#[test]
fn route_matches_the_full_scan_on_wide_layouts() {
    for dims in [14, 41] {
        for seed in [2011, 41] {
            assert_eq!(
                wide_mismatches(seed, dims, 1000, 2000),
                0,
                "seed {seed}, {dims}-d, n=1000"
            );
        }
    }
}
