//! Zone-region lane assignment for a built grid.
//!
//! [`crate::run_trace_sharded`] lays its event queue out by CAN
//! coordinate region: a [`RegionPartition`] tiles the unit torus with
//! `S` hyper-rectangles, and every node is owned by the shard whose
//! region contains its zone's lower corner (a point inside the zone, so
//! ownership follows the zone tiling exactly). [`GridShards`] bundles
//! the partition with the concrete node→shard assignment for one grid —
//! a pure function of the zone map, so it can never orphan or
//! double-assign a node.

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

    /// Number of shards.
    #[inline]
    pub fn shards(&self) -> usize {
        self.assignment.shards()
    }

    /// The shard owning `node`.
    #[inline]
    pub fn lane_of(&self, node: NodeId) -> usize {
        self.assignment.lane_of[node.idx()]
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
            assert_eq!(gs.shards(), shards);
            let mut seen = vec![0usize; 200];
            for (s, members) in gs.assignment.members.iter().enumerate() {
                for &m in members {
                    assert_eq!(gs.lane_of(NodeId(m as u32)), s);
                    seen[m] += 1;
                }
            }
            assert!(seen.iter().all(|&c| c == 1), "exact cover of the node set");
        }
    }
}
