//! # sya-fg — the (spatial) factor graph
//!
//! The probabilistic model at the heart of MLN-based knowledge base
//! construction (paper Section IV). A classical factor graph
//! `φ = {V, F}` holds random variables and weighted logical factors; Sya
//! extends it to the **spatial factor graph** `G = {V, F ∪ ρ}` by adding
//! *spatial factors* — automatically generated, distance-weighted
//! pairwise correlations between ground atoms of `@spatial` variable
//! relations (Definitions 1 and 2, Equations 2–4).
//!
//! This crate provides:
//! * [`Variable`] — binary or categorical ground atoms, with optional
//!   locations and evidence values;
//! * [`Factor`] — logical factors (imply / and / or / equal / is-true)
//!   with DeepDive's true-grounding semantics;
//! * [`SpatialFactor`] — Eq. 2 (binary) and Eq. 4 (categorical) spatial
//!   correlations;
//! * [`WeightingFn`] — the `@spatial(w)` weighting functions
//!   (exponential distance weighing after GeoDa, gaussian,
//!   inverse-distance, linear);
//! * [`FactorGraph`] — adjacency-indexed storage;
//! * [`energy`] — unnormalized log-probability (Eq. 1/3) and the local
//!   conditionals used by every Gibbs variant in `sya-infer`.

pub mod energy;
pub mod factor;
pub mod graph;
pub mod partition;
pub mod region_factor;
pub mod serialize;
pub mod spatial_factor;
pub mod variable;
pub mod weighting;

pub use energy::{binary_conditional_true, conditional_distribution, conditional_with,
    exact_marginals, local_energy, local_energy_with, log_prob_unnormalized};
pub use factor::{Factor, FactorKind};
pub use graph::{Assignment, FactorGraph};
pub use partition::ShardInterface;
pub use region_factor::RegionFactor;
pub use serialize::PersistError;
pub use spatial_factor::SpatialFactor;
pub use variable::{Domain, VarId, Variable};
pub use weighting::WeightingFn;
