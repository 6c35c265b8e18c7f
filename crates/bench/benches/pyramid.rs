//! Pyramid-index and incremental-inference benchmarks (the micro view
//! behind Fig. 13a).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use sya_bench::{build_kb, calibrate};
use sya_core::SyaConfig;
use sya_data::{gwdb_dataset, GwdbConfig};
use sya_infer::{
    incremental_sequential_gibbs, incremental_spatial_gibbs, InferConfig, PyramidIndex,
};

fn bench_pyramid(c: &mut Criterion) {
    let mut group = c.benchmark_group("pyramid");
    group.sample_size(10);

    for n in [1000usize, 4000] {
        let dataset = gwdb_dataset(&GwdbConfig { n_wells: n, ..Default::default() });
        let kb = build_kb(&dataset, calibrate(&dataset, SyaConfig::sya().with_epochs(1)));
        let graph = kb.grounding.graph.clone();

        group.bench_with_input(BenchmarkId::new("build_l8", n), &graph, |b, graph| {
            b.iter(|| black_box(PyramidIndex::build(graph, 8, 64)))
        });

        let pyramid = PyramidIndex::build(&graph, 8, 64);
        group.bench_with_input(
            BenchmarkId::new("sampling_cells_l8", n),
            &pyramid,
            |b, pyramid| b.iter(|| black_box(pyramid.sampling_cells(8))),
        );

        // Incremental inference over 5 changed variables: conclique
        // restriction vs the indexless transitive comparator.
        let changed: Vec<u32> = graph
            .variables()
            .iter()
            .filter(|v| !v.is_evidence())
            .map(|v| v.id)
            .take(5)
            .collect();
        let cfg = InferConfig { epochs: 100, instances: 1, burn_in: 10, ..Default::default() };
        group.bench_with_input(
            BenchmarkId::new("incremental_spatial", n),
            &(&graph, &pyramid, &changed, &cfg),
            |b, (graph, pyramid, changed, cfg)| {
                b.iter(|| {
                    black_box(incremental_spatial_gibbs(
                        graph,
                        pyramid,
                        changed,
                        cfg,
                        &kb.counts,
                        &sya_obs::Obs::disabled(),
                    ))
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("incremental_sequential", n),
            &(&graph, &changed),
            |b, (graph, changed)| {
                b.iter(|| black_box(incremental_sequential_gibbs(graph, changed, 100, 10, 1)))
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_pyramid);
criterion_main!(benches);
