//! Integration tests for the conclique-restricted incremental
//! re-inference path (paper Fig. 13a): after an evidence change, the
//! incremental update must agree with a full from-scratch re-run on the
//! affected marginals, while touching only the spatially local subset
//! of the query variables.

use std::collections::HashMap;
use sya::data::{gwdb_dataset, Dataset, GwdbConfig};
use sya::{KnowledgeBase, SyaConfig, SyaSession};
use sya_store::Value;

fn dataset() -> Dataset {
    gwdb_dataset(&GwdbConfig { n_wells: 80, ..Default::default() })
}

/// Single worker, single instance: the spatial sampler is fully
/// deterministic, so the incremental-vs-full comparison measures the
/// restriction itself, not scheduling noise.
fn config() -> SyaConfig {
    let mut cfg = SyaConfig::sya()
        .with_epochs(500)
        .with_seed(3)
        .with_bandwidth(sya::data::gwdb::GWDB_BANDWIDTH)
        .with_spatial_radius(sya::data::gwdb::GWDB_RADIUS);
    cfg.infer.workers = Some(1);
    cfg.infer.instances = 1;
    cfg
}

fn build(dataset: &Dataset, config: SyaConfig, extra: &[(i64, u32)]) -> KnowledgeBase {
    let session =
        SyaSession::new(&dataset.program, dataset.constants.clone(), dataset.metric, config)
            .expect("program compiles");
    let mut db = dataset.db.clone();
    let mut evidence = dataset.evidence.clone();
    evidence.extend(extra.iter().copied());
    session
        .construct(&mut db, &move |_, vals| {
            vals.first()
                .and_then(Value::as_int)
                .and_then(|id| evidence.get(&id).copied())
        })
        .expect("construction succeeds")
}

/// The grounded variable behind `IsSafe(id)`.
fn var_of(kb: &KnowledgeBase, id: i64) -> u32 {
    *kb.grounding
        .atoms_of("IsSafe")
        .iter()
        .find(|&&v| {
            kb.grounding.atom_meta[v as usize]
                .1
                .first()
                .and_then(Value::as_int)
                == Some(id)
        })
        .expect("atom exists")
}

#[test]
fn incremental_update_agrees_with_full_rerun() {
    let dataset = dataset();
    let qid = *dataset.query_ids().first().expect("query atoms exist");

    // Incremental: build once, then absorb the new observation.
    let mut kb = build(&dataset, config(), &[]);
    let v = var_of(&kb, qid);
    let (_, resampled) = kb.update_evidence_incremental(&[(v, Some(0))]);
    assert!(resampled > 0, "a new observation must resample its neighborhood");
    let incremental: HashMap<i64, f64> = kb.query_scores_by_id("IsSafe").into_iter().collect();

    // Full: a from-scratch run that always knew the observation.
    let full: HashMap<i64, f64> = build(&dataset, config(), &[(qid, 0)])
        .query_scores_by_id("IsSafe")
        .into_iter()
        .collect();

    // The restricted re-run conditions the affected neighborhood on the
    // frozen surroundings, so individual atoms near the new observation
    // can harden more than a full re-run would; the tolerance reflects
    // that, and the mean bound keeps the agreement tight in aggregate.
    assert_eq!(incremental.len(), full.len());
    let mut worst = 0.0f64;
    for (id, a) in &incremental {
        let b = full[id];
        worst = worst.max((a - b).abs());
        assert!(
            (a - b).abs() < 0.3,
            "id {id}: incremental {a} vs full re-run {b}"
        );
    }
    let mean: f64 = incremental
        .iter()
        .map(|(id, a)| (a - full[id]).abs())
        .sum::<f64>()
        / incremental.len() as f64;
    assert!(mean < 0.05, "mean |Δ| {mean} too large (worst {worst})");
}

#[test]
fn local_update_resamples_a_strict_subset_of_query_variables() {
    let dataset = dataset();
    let qid = *dataset.query_ids().first().expect("query atoms exist");
    let mut kb = build(&dataset, config(), &[]);
    let v = var_of(&kb, qid);

    let free_before = kb
        .grounding
        .graph
        .variables()
        .iter()
        .filter(|var| var.evidence.is_none())
        .count();

    let (_, resampled) = kb.update_evidence_incremental(&[(v, Some(0))]);

    // Spatially local: the affected concliques cover the changed atom's
    // neighborhood, not the whole map.
    assert!(resampled > 0);
    assert!(
        resampled < free_before,
        "local update resampled all {free_before} free variables — not incremental"
    );

    // The resampled set reported by the sampler layer covers the
    // affected cells' free variables only: the changed atom itself is
    // evidence now, so it is conditioned on, never resampled.
    let changed = [v];
    let (_, set) = sya_infer::incremental_spatial_gibbs(
        &kb.grounding.graph,
        kb.pyramid.as_ref().unwrap(),
        &changed,
        &kb.config.infer,
        &kb.counts,
        &sya_obs::Obs::disabled(),
    );
    assert!(!set.is_empty());
    assert!(!set.contains(&v), "evidence is conditioned on, not resampled");
    assert!(set.len() < kb.grounding.graph.num_variables());
}
