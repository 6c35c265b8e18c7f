//! Property tests for the sharding layer (vendored `proptest`).
//!
//! Two layers of guarantee over randomized small knowledge bases,
//! across shard counts and partition levels:
//!
//! 1. **Bitwise**: `run_sharded` at any shard count reproduces the
//!    1-shard counts exactly — the determinism the `--shards` flag
//!    advertises.
//! 2. **Statistical**: sharded marginals land within tolerance of exact
//!    enumeration — the sharded construction estimates the model's
//!    distribution, not just a self-consistent one.
//!
//! Plus the one-kernel property: in-process `spatial_gibbs_with` is the
//! one-shard case of the same sweep, bit-identical for any worker
//! count.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sya_fg::{exact_marginals, Factor, FactorGraph, FactorKind, SpatialFactor, VarId, Variable};
use sya_geom::Point;
use sya_ground::pyramid_cell_map;
use sya_infer::{spatial_gibbs_with, InferConfig, PyramidIndex};
use sya_runtime::ExecContext;
use sya_shard::{run_sharded, ShardCkptOptions, ShardPlan, ShardRunReport};

/// A small random KB: mostly-located binary atoms on a chain of spatial
/// factors plus a few random logical couplings; sometimes evidence.
fn random_kb(seed: u64, n: usize) -> FactorGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = FactorGraph::new();
    for i in 0..n {
        let mut v = Variable::binary(0, format!("a{i}"));
        if rng.gen_bool(0.85) {
            v = v.at(Point::new(rng.gen_range(0.0..8.0), rng.gen_range(0.0..8.0)));
        }
        if i == 0 && rng.gen_bool(0.5) {
            v = v.with_evidence(1);
        }
        g.add_variable(v);
    }
    for i in 0..n - 1 {
        g.add_spatial_factor(SpatialFactor::binary(
            i as VarId,
            (i + 1) as VarId,
            rng.gen_range(0.1..1.0),
        ));
    }
    for _ in 0..n / 2 {
        let a = rng.gen_range(0..n as VarId);
        let b = rng.gen_range(0..n as VarId);
        if a != b {
            g.add_factor(Factor::new(
                FactorKind::Imply,
                vec![a.min(b), a.max(b)],
                rng.gen_range(0.1..0.8),
            ));
        }
    }
    g
}

fn infer_cfg(epochs: usize, seed: u64) -> InferConfig {
    InferConfig {
        epochs,
        burn_in: (epochs / 10).max(1),
        instances: 1,
        levels: 3,
        locality_level: 3,
        seed,
        ..Default::default()
    }
}

fn run(g: &FactorGraph, cfg: &InferConfig, shards: usize, level: u8) -> ShardRunReport {
    let pyramid = PyramidIndex::build(g, cfg.levels, cfg.cell_capacity);
    let cells = pyramid_cell_map(g, level);
    let plan = ShardPlan::build(g, &cells, shards, level);
    run_sharded(
        g,
        &pyramid,
        &plan,
        cfg,
        None,
        &ShardCkptOptions::default(),
        &ExecContext::unbounded(),
    )
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn sharded_counts_match_single_shard_bitwise(
        seed in 0u64..10_000,
        n in 4usize..11,
        shards in prop::sample::select(vec![2usize, 3, 4, 5]),
        level in prop::sample::select(vec![1u8, 2, 3]),
    ) {
        let g = random_kb(seed, n);
        let cfg = infer_cfg(300, seed ^ 0xABCD);
        let reference = run(&g, &cfg, 1, level);
        let sharded = run(&g, &cfg, shards, level);
        prop_assert_eq!(
            &reference.counts,
            &sharded.counts,
            "shards={} level={} seed={} diverged from the 1-shard run",
            shards, level, seed
        );
        // Ownership classes partition the samples: per-shard counts
        // merge back to the total.
        let mut merged = reference.per_shard_counts[0].clone();
        let mut empty = true;
        for (i, c) in sharded.per_shard_counts.iter().enumerate() {
            if i == 0 { merged = c.clone(); } else { merged.merge(c); }
            empty = false;
        }
        prop_assert!(!empty);
        prop_assert_eq!(&merged, &sharded.counts);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn sharded_marginals_within_tolerance_of_exact_enumeration(
        seed in 0u64..10_000,
        n in 4usize..10,
        shards in prop::sample::select(vec![2usize, 3, 4]),
        level in prop::sample::select(vec![1u8, 2]),
    ) {
        let g = random_kb(seed, n);
        let cfg = infer_cfg(6000, seed ^ 0x5EED);
        let sharded = run(&g, &cfg, shards, level);
        let exact = exact_marginals(&g);
        let max_delta = g
            .query_variables()
            .into_iter()
            .map(|v| (sharded.counts.factual_score(v) - exact[v as usize]).abs())
            .fold(0.0, f64::max);
        prop_assert!(
            max_delta < 0.15,
            "shards={} level={} seed={}: max marginal delta {} vs exact enumeration",
            shards, level, seed, max_delta
        );
    }
}

/// A 4×4 spatial grid with evidence in one corner plus logical
/// couplings that cross conclique cells.
fn coupled_grid() -> FactorGraph {
    let mut g = FactorGraph::lattice(4, 0.6, true);
    for (a, b) in [(1, 9), (2, 10), (5, 13), (3, 15), (4, 6)] {
        g.add_factor(Factor::new(FactorKind::Imply, vec![a, b], 0.7));
    }
    g
}

#[test]
fn spatial_gibbs_is_bit_identical_for_any_worker_count_and_equals_the_sharded_run() {
    let g = coupled_grid();
    let cfg = InferConfig {
        epochs: 400,
        burn_in: 20,
        instances: 4,
        levels: 3,
        locality_level: 3,
        seed: 17,
        ..Default::default()
    };
    let pyramid = PyramidIndex::build(&g, cfg.levels, cfg.cell_capacity);
    let ctx = ExecContext::unbounded();
    let counts_at = |cfg: &InferConfig, workers: usize| {
        let cfg = InferConfig { workers: Some(workers), ..cfg.clone() };
        spatial_gibbs_with(&g, &pyramid, &cfg, &ctx).unwrap().counts
    };

    let reference = counts_at(&cfg, 1);
    for workers in [2, 4] {
        assert_eq!(counts_at(&cfg, workers), reference, "K=4, workers={workers}");
    }

    // With one instance the in-process sampler is the sharded
    // executor's one-shard case, at any worker and shard count.
    let single = InferConfig { instances: 1, ..cfg };
    let in_process = counts_at(&single, 1);
    for workers in [2, 4] {
        assert_eq!(counts_at(&single, workers), in_process, "K=1, workers={workers}");
    }
    for shards in [1, 2] {
        assert_eq!(
            run(&g, &single, shards, 1).counts,
            in_process,
            "spatial_gibbs_with must equal run_sharded at {shards} shard(s)"
        );
    }
}
