//! The partitioner: cut a grounded knowledge base along pyramid cells
//! into `N` ownership classes.
//!
//! The rule (DESIGN.md §12): sort the non-empty cells of the partition
//! level spatially (column-major over `(col, row)`), then split the
//! sorted run into `N` contiguous groups balanced by variable count.
//! Contiguity keeps each shard's footprint compact, which is what keeps
//! the boundary-factor count — and therefore the halo — small.
//! Unlocated variables carry no spatial signal, so they are dealt
//! round-robin.

use serde::Serialize;
use sya_fg::{FactorGraph, ShardInterface, VarId};
use sya_ground::CellVariableMap;

/// A complete partitioning decision: the owner map, each shard's
/// ownership class, and the halo/boundary interface metadata.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    pub shards: usize,
    /// Pyramid level the cut was made at (`2^l × 2^l` cells).
    pub partition_level: u8,
    /// `owner[v]` = shard that owns variable `v`. Total: every variable
    /// has exactly one owner.
    pub owner: Vec<u32>,
    /// Per shard: the variables it owns (sorted). Evidence variables
    /// included — the owner records their marginal rows.
    pub owned: Vec<Vec<VarId>>,
    /// Interior/boundary factor classification and per-shard halo sets.
    pub interface: ShardInterface,
}

impl ShardPlan {
    /// Partitions `graph` into `shards` ownership classes using the
    /// cell map emitted by the grounder at the partition level.
    ///
    /// # Panics
    /// Panics when `shards == 0` or the cell map names a variable the
    /// graph does not have.
    pub fn build(
        graph: &FactorGraph,
        cells: &CellVariableMap,
        shards: usize,
        partition_level: u8,
    ) -> ShardPlan {
        assert!(shards >= 1, "a sharded run needs at least one shard");
        let n_vars = graph.num_variables();
        let mut owner = vec![u32::MAX; n_vars];

        // Contiguous balanced split of the spatially sorted cells: when
        // a group reaches the fair share of what is left, move on.
        let mut remaining: usize = cells.values().map(Vec::len).sum();
        let mut shard = 0usize;
        let mut groups_left = shards;
        let mut target = remaining.div_ceil(groups_left.max(1));
        let mut acc = 0usize;
        for vars in cells.values() {
            if acc >= target && shard + 1 < shards {
                shard += 1;
                groups_left -= 1;
                target = remaining.div_ceil(groups_left);
                acc = 0;
            }
            for &v in vars {
                owner[v as usize] = shard as u32;
            }
            acc += vars.len();
            remaining -= vars.len();
        }

        // Unlocated variables (absent from the cell map): round-robin.
        let mut rr = 0usize;
        for o in owner.iter_mut() {
            if *o == u32::MAX {
                *o = (rr % shards) as u32;
                rr += 1;
            }
        }

        let mut owned: Vec<Vec<VarId>> = vec![Vec::new(); shards];
        for (v, &o) in owner.iter().enumerate() {
            owned[o as usize].push(v as VarId);
        }
        let interface = graph.shard_interface(&owner, shards);
        ShardPlan { shards, partition_level, owner, owned, interface }
    }

    /// The shard owning variable `v` — what the serving router uses to
    /// map a marginal query or an evidence POST to a shard.
    pub fn owner_of(&self, v: VarId) -> usize {
        self.owner[v as usize] as usize
    }

    /// Per-shard summary rows (for gauges, manifests, bench output).
    pub fn summaries(&self) -> Vec<ShardSummary> {
        (0..self.shards)
            .map(|s| ShardSummary {
                shard: s,
                owned_vars: self.owned[s].len(),
                halo_vars: self.interface.halo[s].len(),
                boundary_factors: self.interface.boundary_per_shard[s],
                halo_bytes: self.interface.halo_bytes(s),
            })
            .collect()
    }
}

/// Static per-shard sizing, known before any sampling runs.
#[derive(Debug, Clone, Serialize, PartialEq, Eq)]
pub struct ShardSummary {
    pub shard: usize,
    pub owned_vars: usize,
    pub halo_vars: usize,
    pub boundary_factors: usize,
    pub halo_bytes: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use sya_fg::Variable;
    use sya_ground::pyramid_cell_map;

    #[test]
    fn every_variable_gets_exactly_one_owner() {
        let mut g = FactorGraph::lattice(4, 0.5, false);
        g.add_variable(Variable::binary(0, "floating-a"));
        g.add_variable(Variable::binary(0, "floating-b"));
        let cells = pyramid_cell_map(&g, 2);
        for shards in [1, 2, 3, 4, 7] {
            let plan = ShardPlan::build(&g, &cells, shards, 2);
            assert!(plan.owner.iter().all(|&o| (o as usize) < shards));
            let total: usize = plan.owned.iter().map(Vec::len).sum();
            assert_eq!(total, g.num_variables(), "shards={shards}");
            // Ownership classes are disjoint by construction of `owner`.
        }
    }

    #[test]
    fn split_is_balanced_by_variable_count() {
        let g = FactorGraph::lattice(8, 0.5, false); // 64 located vars
        let cells = pyramid_cell_map(&g, 3);
        let plan = ShardPlan::build(&g, &cells, 4, 3);
        for s in 0..4 {
            let n = plan.owned[s].len();
            assert!((10..=22).contains(&n), "shard {s} owns {n} of 64");
        }
    }

    #[test]
    fn single_shard_owns_everything_with_empty_interface() {
        let g = FactorGraph::lattice(3, 0.5, false);
        let cells = pyramid_cell_map(&g, 2);
        let plan = ShardPlan::build(&g, &cells, 1, 2);
        assert_eq!(plan.owned[0].len(), 9);
        assert_eq!(plan.interface.boundary_factors, 0);
        assert!(plan.interface.halo[0].is_empty());
        assert_eq!(plan.summaries()[0].halo_bytes, 0);
    }

    #[test]
    fn more_shards_than_cells_leaves_late_shards_empty_but_valid() {
        let g = FactorGraph::lattice(2, 0.5, false); // level 1 → at most 4 cells
        let cells = pyramid_cell_map(&g, 1);
        let plan = ShardPlan::build(&g, &cells, 8, 1);
        let total: usize = plan.owned.iter().map(Vec::len).sum();
        assert_eq!(total, 4);
        assert_eq!(plan.summaries().len(), 8);
    }

    #[test]
    fn contiguous_cut_keeps_boundary_small_on_a_grid() {
        let g = FactorGraph::lattice(8, 0.5, false);
        let cells = pyramid_cell_map(&g, 3);
        let plan = ShardPlan::build(&g, &cells, 2, 3);
        // 2·8·7 = 112 factors; a compact 2-way cut of an 8×8 grid must
        // leave far fewer than half of them on the boundary.
        assert!(
            plan.interface.boundary_factors < 30,
            "boundary factors: {}",
            plan.interface.boundary_factors
        );
        assert_eq!(
            plan.interface.interior_factors + plan.interface.boundary_factors,
            112
        );
    }
}
