//! # sya-infer — the inference module
//!
//! Estimates the marginal probabilities (factual scores) of the spatial
//! factor graph's variables (paper Section V). The module provides:
//!
//! * [`pyramid`] — the in-memory **partial pyramid index** [Aref & Samet]
//!   that spatially partitions the factor graph: `L` levels, `4^l` cells
//!   at level `l`, atoms indexed at every level along their path, empty
//!   quadrants merged into parents, capacity-based splits on update;
//! * [`conclique`] — **concliques-based partitioning** [Kaiser et al.]:
//!   the 4-colouring of grid cells into sets of mutually non-neighbouring
//!   cells, and the minimum conclique cover of the non-empty cells;
//! * [`gibbs`] — the baselines: DeepDive's sequential Gibbs sampler and
//!   the random-partition parallel Gibbs the paper argues against;
//! * [`shard_sweep`] — the one Spatial Gibbs sweep kernel: a phase
//!   schedule (levels serially, concliques serially) and a chain that
//!   samples the variables it owns against the assignment board frozen
//!   at each phase start, drawing from per-`(seed, epoch, pass, variable)`
//!   streams — so the counts are bit-identical for any split across
//!   worker threads or shards. Same-phase neighbours update from each
//!   other's phase-start values, the kernel's one known approximation
//!   (measured in the module doc);
//! * [`spatial_gibbs`](mod@spatial_gibbs) — **Spatial Gibbs Sampling** (Algorithm 1):
//!   `K` parallel inference instances, each a one-shard chain of the
//!   kernel whose phases split across worker threads, with counts
//!   averaged over instances;
//! * [`incremental`] — incremental inference: after evidence updates,
//!   the same kernel re-samples only the concliques of affected
//!   variables, warm-started from the current state;
//! * [`marginals`] — sample counters, marginal extraction, and the KL
//!   divergence metric of Fig. 14;
//! * [`run`] — governed execution: every sampler has a `*_with` variant
//!   taking an [`ExecContext`](sya_runtime::ExecContext) that honours
//!   deadlines/cancellation at epoch barriers, isolates worker panics,
//!   and reports a [`RunOutcome`](sya_runtime::RunOutcome).

pub mod ckpt;
pub mod conclique;
pub mod gibbs;
pub mod incremental;
pub mod learn;
pub mod marginals;
pub mod pyramid;
pub mod run;
pub mod shard_sweep;
pub mod spatial_gibbs;
pub mod work_model;

pub use ckpt::{ChainState, CheckpointOptions, CheckpointSink, CheckpointState};
pub use conclique::{conclique_of, min_conclique_cover, Conclique};
pub use gibbs::{
    parallel_random_gibbs, parallel_random_gibbs_ckpt, parallel_random_gibbs_with,
    sequential_gibbs, sequential_gibbs_ckpt, sequential_gibbs_with,
};
pub use incremental::{incremental_sequential_gibbs, incremental_spatial_gibbs};
pub use learn::{learn_weights, map_assignment, pseudo_log_likelihood, LearnConfig};
pub use marginals::{average_kl_divergence, MarginalCounts};
pub use pyramid::{CellKey, PyramidIndex};
pub use run::{InferError, SamplerRun};
pub use shard_sweep::{init_board, var_epoch_rng, ShardChain, ShardSchedule, SweepPhase};
pub use spatial_gibbs::{spatial_gibbs, spatial_gibbs_ckpt, spatial_gibbs_with, InferConfig, SweepMode};
pub use work_model::{epoch_work, EpochWork};
