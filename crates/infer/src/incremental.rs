//! Incremental inference (paper Section II / Fig. 13a): after updates to
//! some variables (new evidence, changed values), only the concliques of
//! the affected variables are re-sampled instead of the whole graph.

use crate::ckpt::CheckpointOptions;
use crate::marginals::MarginalCounts;
use crate::pyramid::{CellKey, PyramidIndex};
use crate::spatial_gibbs::{run_chains, InferConfig, Start};
use std::collections::HashSet;
use sya_fg::{FactorGraph, VarId};
use sya_obs::Obs;
use sya_runtime::ExecContext;

/// Re-runs Spatial Gibbs Sampling restricted to the pyramid cells that
/// contain the `changed` variables or their Markov-blanket neighbours.
///
/// `init` holds the current marginals: instance `k` of `K` starts every
/// variable at the `(k + ½)/K` quantile of its counts
/// ([`MarginalCounts::quantile_assignment`]; unsampled ones at 0). The
/// restricted sweep conditions on the variables *outside* the affected
/// cells, so they must sit where the converged chains sat; and instances
/// that split between modes before the update start in the same split,
/// instead of all collapsing onto one argmax state.
///
/// The run executes inside an `infer.incremental` span on `obs` and
/// bumps the `infer.incremental.resampled_vars` /
/// `infer.incremental.cells_touched` counters, so a long-lived process
/// (the serving layer, repeated `extend` calls) accumulates how much
/// re-sampling its updates cost.
///
/// Returns the new counts (marginals are meaningful for the affected
/// variables) plus the set of variables that were actually re-sampled.
/// Merge the counts into the full counters with
/// [`MarginalCounts::merge_affected`], passing the returned set.
pub fn incremental_spatial_gibbs(
    graph: &FactorGraph,
    pyramid: &PyramidIndex,
    changed: &[VarId],
    cfg: &InferConfig,
    init: &MarginalCounts,
    obs: &Obs,
) -> (MarginalCounts, HashSet<VarId>) {
    let mut span = obs.span("infer.incremental");
    // Affected set: the changed variables plus everything sharing a
    // factor with them.
    let mut affected: HashSet<VarId> = changed.iter().copied().collect();
    for &v in changed {
        affected.extend(graph.neighbours(v));
    }

    // Cells containing an affected variable, at exactly the levels the
    // sampler's sweep mode visits: a cell outside the sweep contributes
    // no samples, so counting its variables as re-sampled would replace
    // their marginals with empty rows on merge.
    let mut cells: HashSet<CellKey> = HashSet::new();
    for &level in &cfg.active_sweep_levels(pyramid.levels()) {
        for key in pyramid.sampling_cells(level) {
            if pyramid.atoms_in(&key).iter().any(|v| affected.contains(v)) {
                cells.insert(key);
            }
        }
    }

    let resampled: HashSet<VarId> = cells
        .iter()
        .flat_map(|c| pyramid.atoms_in(c).iter().copied())
        .filter(|&v| !graph.variable(v).is_evidence())
        .collect();

    span.set_attr("changed", changed.len());
    span.set_attr("cells", cells.len());
    span.set_attr("resampled", resampled.len());
    obs.counter_add("infer.incremental.cells_touched", cells.len() as u64);
    obs.counter_add("infer.incremental.resampled_vars", resampled.len() as u64);

    let ctx = ExecContext::unbounded();
    let none = CheckpointOptions::none();
    let run = run_chains(graph, pyramid, cfg, &ctx, Some(&cells), Start::Warm(init), none)
        .unwrap_or_else(|e| panic!("incremental spatial gibbs failed: {e}"));
    (run.counts, resampled)
}

/// The DeepDive-style incremental comparator: without a spatial index
/// there is no principled way to bound how far an update propagates, so
/// the affected set is the *transitive closure* of factor adjacency from
/// the changed variables (correlated variables chain through shared
/// factors), re-sampled with the standard sequential Gibbs kernel. Sya's
/// pyramid/conclique restriction is exactly what avoids this blow-up
/// (paper Fig. 13a).
pub fn incremental_sequential_gibbs(
    graph: &FactorGraph,
    changed: &[VarId],
    epochs: usize,
    burn_in: usize,
    seed: u64,
) -> (MarginalCounts, HashSet<VarId>) {
    use crate::gibbs::sample_conditional;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    // BFS over the factor graph from the changed variables.
    let mut affected: HashSet<VarId> = changed.iter().copied().collect();
    let mut frontier: Vec<VarId> = changed.to_vec();
    while let Some(v) = frontier.pop() {
        for u in graph.neighbours(v) {
            if affected.insert(u) {
                frontier.push(u);
            }
        }
    }
    let targets: Vec<VarId> = {
        let mut v: Vec<VarId> = affected
            .iter()
            .copied()
            .filter(|&v| !graph.variable(v).is_evidence())
            .collect();
        v.sort_unstable();
        v
    };

    let mut rng = StdRng::seed_from_u64(seed);
    let mut assignment = graph.initial_assignment();
    for &v in &targets {
        assignment[v as usize] = rng.gen_range(0..graph.variable(v).domain.cardinality());
    }
    let mut counts = MarginalCounts::new(graph);
    for epoch in 0..epochs {
        for &v in &targets {
            let x = sample_conditional(graph, &|u| assignment[u as usize], v, &mut rng);
            assignment[v as usize] = x;
            if epoch >= burn_in {
                counts.record(v, x);
            }
        }
    }
    (counts, targets.into_iter().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spatial_gibbs::spatial_gibbs;
    use sya_fg::{SpatialFactor, Variable};
    use sya_geom::Point;

    /// A line of spatially linked variables with evidence at one end.
    fn line_graph(n: usize) -> FactorGraph {
        let mut g = FactorGraph::new();
        let mut ids = Vec::new();
        for i in 0..n {
            let p = Point::new(i as f64 + 0.5, 0.5);
            let mut v = Variable::binary(0, format!("v{i}")).at(p);
            if i == 0 {
                v.evidence = Some(1);
            }
            ids.push(g.add_variable(v));
        }
        for w in ids.windows(2) {
            g.add_spatial_factor(SpatialFactor::binary(w[0], w[1], 1.0));
        }
        g
    }

    /// An unobserved incremental run started from empty marginals
    /// (every free variable at 0).
    fn resample(
        g: &FactorGraph,
        pyramid: &PyramidIndex,
        changed: &[VarId],
        cfg: &InferConfig,
    ) -> (MarginalCounts, HashSet<VarId>) {
        let init = MarginalCounts::new(g);
        incremental_spatial_gibbs(g, pyramid, changed, cfg, &init, &Obs::disabled())
    }

    fn cfg(epochs: usize) -> InferConfig {
        InferConfig {
            epochs,
            instances: 1,
            levels: 4,
            locality_level: 4,
            burn_in: 20,
            seed: 21,
            ..Default::default()
        }
    }

    #[test]
    fn only_affected_cells_are_resampled() {
        let g = line_graph(16);
        let pyramid = PyramidIndex::build(&g, 4, 64);
        let (counts, resampled) = resample(&g, &pyramid, &[15], &cfg(200));
        // The far end (v15, neighbour v14) is affected; v1 is not.
        assert!(resampled.contains(&15));
        assert!(resampled.contains(&14));
        assert!(counts.total_samples(15) > 0);
        // Unaffected variables far away were never sampled.
        assert_eq!(counts.total_samples(1), 0);
        assert!(resampled.len() < 16);
    }

    #[test]
    fn incremental_scores_track_full_inference() {
        let mut g = line_graph(8);
        // Flip new evidence at the far end and compare incremental vs
        // full scores on the affected variable's neighbour.
        g.set_evidence(7, Some(1));
        let pyramid = PyramidIndex::build(&g, 3, 64);
        let full_cfg = InferConfig {
            epochs: 4000,
            instances: 1,
            levels: 3,
            locality_level: 3,
            burn_in: 100,
            seed: 5,
            ..Default::default()
        };
        let full = spatial_gibbs(&g, &pyramid, &full_cfg);
        let (inc, resampled) =
            incremental_spatial_gibbs(&g, &pyramid, &[7], &full_cfg, &full, &Obs::disabled());
        assert!(resampled.contains(&6));
        let diff = (full.factual_score(6) - inc.factual_score(6)).abs();
        assert!(diff < 0.1, "incremental {} vs full {}", inc.factual_score(6), full.factual_score(6));
    }

    /// On a mode-locked graph each instance stays where it starts. The
    /// quantile warm start puts half the instances in each mode when the
    /// marginals say 0.5, so a no-op re-sample leaves 0.5 at 0.5 rather
    /// than collapsing every instance onto one state.
    #[test]
    fn warm_start_keeps_a_split_between_locked_instances() {
        let mut g = FactorGraph::new();
        for i in 0..8 {
            let p = Point::new(i as f64 + 0.5, 0.5);
            g.add_variable(Variable::binary(0, format!("v{i}")).at(p));
        }
        for i in 0..7 {
            g.add_spatial_factor(SpatialFactor::binary(i, i + 1, 12.0));
        }
        let pyramid = PyramidIndex::build(&g, 4, 64);
        // Two instances saw all-0, two saw all-1.
        let mut init = MarginalCounts::new(&g);
        for v in 0..8 {
            for x in [0, 0, 1, 1] {
                init.record(v, x);
            }
        }
        let cfg = InferConfig { instances: 4, ..cfg(400) };
        let (counts, resampled) =
            incremental_spatial_gibbs(&g, &pyramid, &[3], &cfg, &init, &Obs::disabled());
        assert!(resampled.contains(&3));
        for &v in &resampled {
            assert_eq!(counts.factual_score(v), 0.5, "var {v}");
        }
    }

    #[test]
    fn changed_set_grows_the_affected_region() {
        let g = line_graph(16);
        let pyramid = PyramidIndex::build(&g, 4, 64);
        let (_, few) = resample(&g, &pyramid, &[8], &cfg(50));
        let (_, many) = resample(&g, &pyramid, &[2, 8, 14], &cfg(50));
        assert!(many.len() >= few.len());
    }

    #[test]
    fn observed_run_records_incremental_counters() {
        let g = line_graph(16);
        let pyramid = PyramidIndex::build(&g, 4, 64);
        let obs = Obs::enabled();
        let init = MarginalCounts::new(&g);
        let (_, resampled) =
            incremental_spatial_gibbs(&g, &pyramid, &[15], &cfg(50), &init, &obs);
        let m = obs.metrics().unwrap();
        assert_eq!(
            m.counter_value("infer.incremental.resampled_vars"),
            Some(resampled.len() as u64)
        );
        assert!(m.counter_value("infer.incremental.cells_touched").unwrap() > 0);
        let spans = obs.trace_snapshot().spans;
        assert!(spans.iter().any(|s| s.name == "infer.incremental"));
    }

    #[test]
    fn empty_change_set_samples_nothing() {
        let g = line_graph(8);
        let pyramid = PyramidIndex::build(&g, 3, 64);
        let (counts, resampled) = resample(&g, &pyramid, &[], &cfg(50));
        assert!(resampled.is_empty());
        for v in g.query_variables() {
            assert_eq!(counts.total_samples(v), 0);
        }
    }
}
