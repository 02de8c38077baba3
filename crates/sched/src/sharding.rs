//! Zone-region lane assignment for a built grid: every node is owned by
//! the [`RegionPartition`] shard holding its zone's lower corner, a
//! pure function of the zone map. No simulation uses it: it stays only
//! because the repo benchmark names it (ROADMAP item 3).

use crate::grid::StaticGrid;
use pgrid_simcore::shard::{RegionPartition, ShardAssignment};
use pgrid_types::NodeId;

/// A region partition plus the node→shard assignment for one grid.
#[derive(Debug, Clone)]
pub struct GridShards {
    /// The hyper-rectangular tiling of the coordinate space.
    pub partition: RegionPartition,
    /// The concrete node→shard mapping under that tiling.
    pub assignment: ShardAssignment,
}

impl GridShards {
    /// Partitions `grid` into `shards` zone regions.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn build(grid: &StaticGrid, shards: usize) -> Self {
        let dims = grid.layout().dims();
        let partition = RegionPartition::new(dims, shards);
        let mut coord = vec![0.0; dims];
        let assignment = ShardAssignment::from_fn(shards, grid.len(), |i| {
            let zone = grid.zone(NodeId(i as u32));
            for (d, c) in coord.iter_mut().enumerate() {
                *c = zone.lo(d);
            }
            partition.shard_of(&coord)
        });
        GridShards {
            partition,
            assignment,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgrid_types::DimensionLayout;
    use pgrid_workload::nodegen::{generate_nodes, NodeGenConfig};

    #[test]
    fn every_node_owned_by_exactly_one_shard() {
        let layout = DimensionLayout::with_dims(11);
        let pop = generate_nodes(&NodeGenConfig::paper_defaults(2), 200, 5);
        let grid = StaticGrid::build(layout, pop, 5);
        for shards in [1usize, 2, 4, 8] {
            let gs = GridShards::build(&grid, shards);
            assert_eq!(gs.assignment.members.len(), shards);
            let mut seen = vec![0usize; 200];
            for (s, members) in gs.assignment.members.iter().enumerate() {
                for &m in members {
                    assert_eq!(gs.assignment.lane_of[m], s);
                    seen[m] += 1;
                }
            }
            assert!(seen.iter().all(|&c| c == 1), "exact cover of the node set");
        }
    }
}
