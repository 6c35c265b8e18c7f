//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (Section VI). Each subcommand prints the same rows/series
//! the paper reports and appends machine-readable JSON to `results/`.
//!
//! Usage:
//! ```text
//! cargo run --release -p sya-bench --bin experiments -- <experiment> [--full]
//!     fig1    EbolaKB factual scores (intro Fig. 1)
//!     table1  KB statistics (Table I)
//!     fig8    precision & recall vs DeepDive (Fig. 8a/8b)
//!     fig9    F1 & execution times vs DeepDive (Fig. 9a/9b)
//!     fig10   DeepDive step-function rules (Fig. 10a/10b)
//!     fig11   pruning threshold T sweep (Fig. 11a/11b)
//!     fig12   inference epochs sweep (Fig. 12a/12b)
//!     fig13   incremental inference + locality level (Fig. 13a/13b)
//!     fig14   KL divergence vs sampling time (Fig. 14a/14b)
//!     all     everything above
//! ```
//!
//! `--full` raises dataset sizes and sweep ranges toward the paper's
//! scale (longer runs).

use serde::Serialize;
use std::collections::HashMap;
use std::time::Instant;
use sya_bench::{build_kb, calibrate, evaluate, mean, repeat_runs, target_relation};
use sya_core::{SyaConfig, SyaSession};
use sya_data::ebola::{truth_ranges, COUNTY_NAMES};
use sya_data::{
    ebola_dataset, gwdb_dataset, nyccas_dataset, supported_ids, Dataset, GwdbConfig,
    NyccasConfig, QualityEval,
};
use sya_infer::{
    average_kl_divergence, incremental_sequential_gibbs, parallel_random_gibbs,
    sequential_gibbs, spatial_gibbs, PyramidIndex, SweepMode,
};
use sya_store::Value;

#[derive(Clone, Copy)]
struct Scale {
    gwdb_wells: usize,
    nyccas_grid: usize,
    runs: usize,
}

const QUICK: Scale = Scale { gwdb_wells: 1000, nyccas_grid: 24, runs: 5 };
const FULL: Scale = Scale { gwdb_wells: 2500, nyccas_grid: 40, runs: 5 };

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let scale = if full { FULL } else { QUICK };
    let which = args.iter().find(|a| !a.starts_with("--")).map(String::as_str);

    std::fs::create_dir_all("results").ok();

    match which {
        Some("fig1") => fig1(),
        Some("table1") => table1(scale),
        Some("fig8") => fig8_fig9(scale, true),
        Some("fig9") => fig8_fig9(scale, false),
        Some("fig10") => fig10(scale, full),
        Some("fig11") => fig11(scale),
        Some("fig12") => fig12(scale, full),
        Some("fig13") => fig13(scale),
        Some("fig14") => fig14(scale),
        Some("ablations") => ablations(scale),
        Some("export-demo") => export_demo(scale),
        Some("report") => report(),
        Some("all") | None => {
            fig1();
            table1(scale);
            fig8_fig9(scale, true);
            fig8_fig9(scale, false);
            fig10(scale, full);
            fig11(scale);
            fig12(scale, full);
            fig13(scale);
            fig14(scale);
            ablations(scale);
        }
        Some(other) => {
            eprintln!("unknown experiment {other:?}; see --help in the module docs");
            std::process::exit(2);
        }
    }
}

fn save_json<T: Serialize>(name: &str, rows: &T) {
    let path = format!("results/{name}.json");
    match serde_json::to_string_pretty(rows) {
        Ok(json) => {
            if let Err(e) = std::fs::write(&path, json) {
                eprintln!("warning: could not write {path}: {e}");
            }
        }
        Err(e) => eprintln!("warning: could not serialize {name}: {e}"),
    }
}

fn banner(title: &str) {
    println!("\n=== {title} ===");
}

// ---------------------------------------------------------------- fig1

#[derive(Serialize)]
struct Fig1Row {
    county: String,
    distance_mi: f64,
    truth_lo: f64,
    truth_hi: f64,
    sya: f64,
    deepdive: f64,
}

fn fig1() {
    banner("Fig. 1 — EbolaKB factual scores (Sya vs DeepDive)");
    let dataset = ebola_dataset();
    let mut scores = HashMap::new();
    for (label, config) in [
        ("sya", SyaConfig::sya().with_epochs(4000)),
        ("deepdive", SyaConfig::deepdive().with_epochs(4000)),
    ] {
        let kb = build_kb(&dataset, config);
        scores.insert(label, kb.scores_by_id("HasEbola"));
    }
    let ranges = truth_ranges();
    let locs = sya_data::ebola::county_locations();
    let mut rows = Vec::new();
    println!(
        "{:<14} {:>9} {:>13} {:>8} {:>9}",
        "county", "dist(mi)", "truth range", "Sya", "DeepDive"
    );
    for i in 0..4usize {
        let (lo, hi) = ranges[&(i as i64)];
        let row = Fig1Row {
            county: COUNTY_NAMES[i].to_owned(),
            distance_mi: sya_geom::haversine_miles(&locs[0], &locs[i]),
            truth_lo: lo,
            truth_hi: hi,
            sya: scores["sya"][i].1,
            deepdive: scores["deepdive"][i].1,
        };
        println!(
            "{:<14} {:>9.0} {:>6.2}-{:>5.2} {:>8.2} {:>9.2}",
            row.county, row.distance_mi, row.truth_lo, row.truth_hi, row.sya, row.deepdive
        );
        rows.push(row);
    }
    // F1 per the Fig. 1 in-range rule over the three query counties.
    let supported: std::collections::HashSet<i64> = [1, 2, 3].into();
    for label in ["sya", "deepdive"] {
        let query: Vec<(i64, f64)> = scores[label][1..].to_vec();
        let eval = QualityEval::evaluate_ranges(&query, &ranges, &supported);
        println!("{label}: F1 = {:.2}", eval.f1());
    }
    println!("paper: Sya 0.85, DeepDive 0.39");
    save_json("fig1", &rows);
}

// -------------------------------------------------------------- table1

#[derive(Serialize)]
struct Table1Row {
    system: String,
    relations: usize,
    rules: usize,
    variables: usize,
    factors: usize,
    paper_variables: &'static str,
    paper_factors: &'static str,
}

fn table1(scale: Scale) {
    banner("Table I — statistics of the KBs (scaled; paper values alongside)");
    let mut rows = Vec::new();
    for (dataset, paper_vars, paper_factors) in [
        (
            gwdb_dataset(&GwdbConfig { n_wells: scale.gwdb_wells, ..Default::default() }),
            "104K",
            "39.5M",
        ),
        (
            nyccas_dataset(&NyccasConfig { grid: scale.nyccas_grid, ..Default::default() }),
            "34K",
            "233K",
        ),
    ] {
        let kb = build_kb(&dataset, SyaConfig::sya().with_epochs(10));
        let session_rules = SyaSession::new(
            &dataset.program,
            dataset.constants.clone(),
            dataset.metric,
            SyaConfig::sya(),
        )
        .expect("program compiles")
        .compiled()
        .rules
        .len();
        let row = Table1Row {
            system: dataset.name.clone(),
            relations: 1,
            rules: session_rules,
            variables: kb.grounding.stats.variables_created,
            factors: kb.grounding.graph.total_factors(),
            paper_variables: paper_vars,
            paper_factors,
        };
        println!(
            "{:<8} rels={} rules={:>2} vars={:>7} factors={:>9}   (paper: vars {} factors {})",
            row.system, row.relations, row.rules, row.variables, row.factors,
            row.paper_variables, row.paper_factors
        );
        rows.push(row);
    }
    save_json("table1", &rows);
}

// --------------------------------------------------------- fig8 / fig9

#[derive(Serialize)]
struct QualityRow {
    dataset: String,
    engine: String,
    precision: f64,
    recall: f64,
    f1: f64,
    grounding_ms: f64,
    inference_ms: f64,
}

fn fig8_fig9(scale: Scale, precision_recall_view: bool) {
    if precision_recall_view {
        banner("Fig. 8 — precision and recall vs DeepDive (avg of 5 runs)");
    } else {
        banner("Fig. 9 — F1 and execution time vs DeepDive (avg of 5 runs)");
    }
    let datasets: Vec<Dataset> = vec![
        gwdb_dataset(&GwdbConfig { n_wells: scale.gwdb_wells, ..Default::default() }),
        nyccas_dataset(&NyccasConfig { grid: scale.nyccas_grid, ..Default::default() }),
    ];
    let mut rows = Vec::new();
    let mut speedup_notes: Vec<String> = Vec::new();
    for dataset in &datasets {
        for (engine, config) in [
            ("Sya", SyaConfig::sya().with_epochs(1000)),
            ("DeepDive", SyaConfig::deepdive().with_epochs(1000)),
        ] {
            let runs = repeat_runs(dataset, &config, scale.runs);
            if engine == "Sya" && !precision_recall_view {
                if let Some(pyramid) = runs.last().and_then(|(_, kb)| kb.pyramid.as_ref()) {
                    // Analytic conclique schedule: what the paper's 32
                    // hardware threads would buy per epoch.
                    let w = sya_infer::epoch_work(pyramid, 8, 32);
                    speedup_notes.push(format!(
                        "{}: modeled conclique speedup at 32 workers = {:.1}x (schedule efficiency {:.0}%)",
                        dataset.name,
                        w.speedup(),
                        100.0 * w.efficiency(),
                    ));
                }
            }
            let precs: Vec<f64> = runs.iter().map(|(e, _)| e.precision()).collect();
            let recs: Vec<f64> = runs.iter().map(|(e, _)| e.recall()).collect();
            let f1s: Vec<f64> = runs.iter().map(|(e, _)| e.f1()).collect();
            let gms: Vec<f64> = runs
                .iter()
                .map(|(_, kb)| kb.timings.grounding.as_secs_f64() * 1e3)
                .collect();
            let ims: Vec<f64> = runs
                .iter()
                .map(|(_, kb)| kb.timings.inference.as_secs_f64() * 1e3)
                .collect();
            rows.push(QualityRow {
                dataset: dataset.name.clone(),
                engine: engine.to_owned(),
                precision: mean(&precs),
                recall: mean(&recs),
                f1: mean(&f1s),
                grounding_ms: mean(&gms),
                inference_ms: mean(&ims),
            });
        }
    }
    if precision_recall_view {
        println!("{:<8} {:<10} {:>9} {:>7}", "dataset", "engine", "precision", "recall");
        for r in &rows {
            println!("{:<8} {:<10} {:>9.3} {:>7.3}", r.dataset, r.engine, r.precision, r.recall);
        }
        println!("paper: precision improvement >53% on both; recall +60% GWDB, +9% NYCCAS");
        save_json("fig8", &rows);
    } else {
        println!(
            "{:<8} {:<10} {:>7} {:>13} {:>13}",
            "dataset", "engine", "F1", "grounding(ms)", "inference(ms)"
        );
        for r in &rows {
            println!(
                "{:<8} {:<10} {:>7.3} {:>13.1} {:>13.1}",
                r.dataset, r.engine, r.f1, r.grounding_ms, r.inference_ms
            );
        }
        for d in ["GWDB", "NYCCAS"] {
            let sya = rows.iter().find(|r| r.dataset == d && r.engine == "Sya").unwrap();
            let dd = rows.iter().find(|r| r.dataset == d && r.engine == "DeepDive").unwrap();
            println!(
                "{d}: F1 improvement {:+.0}% (paper: +120% GWDB, +27% NYCCAS); \
                 grounding overhead {:+.0}% (paper: <= +15%); inference {:+.0}% \
                 (paper: >= -30%, multicore)",
                100.0 * (sya.f1 / dd.f1 - 1.0),
                100.0 * (sya.grounding_ms / dd.grounding_ms - 1.0),
                100.0 * (sya.inference_ms / dd.inference_ms - 1.0),
            );
        }
        for note in &speedup_notes {
            println!("{note}");
        }
        save_json("fig9", &rows);
    }
}

// ---------------------------------------------------------------- fig10

#[derive(Serialize)]
struct Fig10Row {
    rules: usize,
    engine: String,
    f1: f64,
    kl: f64,
    grounding_ms: f64,
}

fn fig10(scale: Scale, full: bool) {
    banner("Fig. 10 — DeepDive step-function rules vs Sya (GWDB)");
    let n = (scale.gwdb_wells / 2).max(300);
    let dataset = gwdb_dataset(&GwdbConfig { n_wells: n, ..Default::default() });
    let mut rows = Vec::new();

    // Sya baseline: the original 11 rules.
    let sya_kb = build_kb(&dataset, SyaConfig::sya().with_epochs(500));
    let sya_eval = evaluate(&dataset, &sya_kb);
    rows.push(Fig10Row {
        rules: 11,
        engine: "Sya".into(),
        f1: sya_eval.f1(),
        kl: sya_bench::kl_vs_truth(&dataset, &sya_kb),
        grounding_ms: sya_kb.timings.grounding.as_secs_f64() * 1e3,
    });

    let bands_list: &[usize] = if full { &[2, 10, 100, 1000] } else { &[2, 10, 50, 200] };
    for &bands in bands_list {
        let kb = build_kb(&dataset, SyaConfig::deepdive_stepfn(bands).with_epochs(500));
        let eval = evaluate(&dataset, &kb);
        // 5 distance rules in the program, each expands to `bands` rules,
        // plus 5 prior rules + 1 derivation.
        let total_rules = 5 * bands + 6;
        rows.push(Fig10Row {
            rules: total_rules,
            engine: "DeepDive-step".into(),
            f1: eval.f1(),
            kl: sya_bench::kl_vs_truth(&dataset, &kb),
            grounding_ms: kb.timings.grounding.as_secs_f64() * 1e3,
        });
    }
    println!(
        "{:<16} {:>7} {:>7} {:>8} {:>14}",
        "engine", "rules", "F1", "KL", "grounding(ms)"
    );
    for r in &rows {
        println!(
            "{:<16} {:>7} {:>7.3} {:>8.4} {:>14.1}",
            r.engine, r.rules, r.f1, r.kl, r.grounding_ms
        );
    }
    println!(
        "paper: more step rules -> better quality but grounding blows up \
         (11k rules > 12h, still 20% below Sya); KL column shows the \
         calibration view (lower is better)"
    );
    save_json("fig10", &rows);
}

// ---------------------------------------------------------------- fig11

#[derive(Serialize)]
struct Fig11Row {
    threshold: f64,
    precision: f64,
    recall: f64,
    spatial_factors: usize,
    grounding_ms: f64,
    inference_ms: f64,
}

fn fig11(scale: Scale) {
    banner("Fig. 11 — pruning threshold T (GWDB, categorical h=10)");
    let n = (scale.gwdb_wells / 2).max(300);
    // Smoother field + denser evidence so level co-occurrence statistics
    // are informative at high thresholds.
    let dataset = gwdb_dataset(&GwdbConfig {
        n_wells: n,
        domain_h: Some(10),
        field_bandwidth: 250.0,
        evidence_fraction: 0.4,
        evidence_noise: 0.15,
        ..Default::default()
    });
    let domains: HashMap<String, u32> = [("IsSafe".to_owned(), 10u32)].into();
    let mut rows = Vec::new();
    for t in [0.3, 0.5, 0.7, 0.9] {
        let config = SyaConfig::sya()
            .with_epochs(400)
            .with_domains(domains.clone())
            .with_pruning_threshold(t);
        let kb = build_kb(&dataset, config);
        let eval = evaluate_categorical(&dataset, &kb);
        rows.push(Fig11Row {
            threshold: t,
            precision: eval.precision(),
            recall: eval.recall(),
            spatial_factors: kb.grounding.stats.spatial_factors,
            grounding_ms: kb.timings.grounding.as_secs_f64() * 1e3,
            inference_ms: kb.timings.inference.as_secs_f64() * 1e3,
        });
    }
    println!(
        "{:>4} {:>9} {:>7} {:>15} {:>13} {:>13}",
        "T", "precision", "recall", "spatial factors", "grounding(ms)", "inference(ms)"
    );
    for r in &rows {
        println!(
            "{:>4.1} {:>9.3} {:>7.3} {:>15} {:>13.1} {:>13.1}",
            r.threshold, r.precision, r.recall, r.spatial_factors, r.grounding_ms, r.inference_ms
        );
    }
    println!(
        "paper: higher T -> higher precision, lower recall, and up to 96% \
         total-time reduction from pruned factors"
    );
    save_json("fig11", &rows);
}

/// Categorical-domain evaluation: with `h = 10` levels, one level spans
/// 0.1 of the probability range, so the paper's "within 0.1" correctness
/// rule maps to "predicted level within ±1 of the true level". The
/// predicted level is the argmax marginal.
fn evaluate_categorical(dataset: &Dataset, kb: &sya_core::KnowledgeBase) -> QualityEval {
    let relation = target_relation(dataset);
    let h = 10u32;
    let query = dataset.query_ids();
    let supported = supported_ids(
        &dataset.locations,
        dataset.evidence.keys().copied(),
        &query,
        dataset.support_radius,
        dataset.metric,
    );
    let graph = &kb.grounding.graph;
    let mut eval =
        QualityEval { predicted: 0, correct: 0, supported: 0, correct_supported: 0 };
    for &v in kb.grounding.atoms_of(relation) {
        if graph.variable(v).is_evidence() {
            continue;
        }
        let (_, values) = &kb.grounding.atom_meta[v as usize];
        let Some(id) = values.first().and_then(Value::as_int) else { continue };
        let Some(&t) = dataset.truth_prob.get(&id) else { continue };
        let truth_level = ((t * h as f64) as i64).min(h as i64 - 1);
        let predicted_level = (0..h)
            .max_by(|&a, &b| {
                kb.counts
                    .marginal(v, a)
                    .partial_cmp(&kb.counts.marginal(v, b))
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .unwrap_or(0) as i64;
        let ok = (predicted_level - truth_level).abs() <= 1;
        let sup = supported.contains(&id);
        eval.predicted += 1;
        if ok {
            eval.correct += 1;
        }
        if sup {
            eval.supported += 1;
            if ok {
                eval.correct_supported += 1;
            }
        }
    }
    eval
}

// ---------------------------------------------------------------- fig12

#[derive(Serialize)]
struct Fig12Row {
    epochs: usize,
    engine: String,
    f1: f64,
    inference_ms: f64,
}

fn fig12(scale: Scale, full: bool) {
    banner("Fig. 12 — inference epochs sweep (GWDB)");
    let n = (scale.gwdb_wells * 4 / 5).max(400);
    let dataset = gwdb_dataset(&GwdbConfig { n_wells: n, ..Default::default() });
    let epoch_list: &[usize] =
        if full { &[100, 1000, 10_000, 100_000] } else { &[100, 1000, 10_000] };
    let mut rows = Vec::new();
    for &epochs in epoch_list {
        for (engine, config) in [
            ("Sya", SyaConfig::sya().with_epochs(epochs)),
            ("DeepDive", SyaConfig::deepdive().with_epochs(epochs)),
        ] {
            let kb = build_kb(&dataset, config);
            let eval = evaluate(&dataset, &kb);
            rows.push(Fig12Row {
                epochs,
                engine: engine.to_owned(),
                f1: eval.f1(),
                inference_ms: kb.timings.inference.as_secs_f64() * 1e3,
            });
        }
    }
    println!("{:>8} {:<10} {:>7} {:>13}", "epochs", "engine", "F1", "inference(ms)");
    for r in &rows {
        println!("{:>8} {:<10} {:>7.3} {:>13.1}", r.epochs, r.engine, r.f1, r.inference_ms);
    }
    println!(
        "paper: both saturate around 1000 epochs; Sya consistently better; \
         Sya inference 20-31% faster (multicore)"
    );
    save_json("fig12", &rows);
}

// ---------------------------------------------------------------- fig13

#[derive(Serialize)]
struct Fig13aRow {
    changed_nodes: usize,
    sya_ms: f64,
    deepdive_ms: f64,
}

#[derive(Serialize)]
struct Fig13bRow {
    dataset: String,
    locality_level: u8,
    f1: f64,
}

fn fig13(scale: Scale) {
    banner("Fig. 13(a) — incremental inference time vs #changed nodes (GWDB)");
    let dataset = gwdb_dataset(&GwdbConfig { n_wells: scale.gwdb_wells, ..Default::default() });
    let mut kb = build_kb(&dataset, SyaConfig::sya().with_epochs(400));
    let graph = &kb.grounding.graph;
    let query_vars: Vec<u32> = graph
        .variables()
        .iter()
        .filter(|v| !v.is_evidence())
        .map(|v| v.id)
        .collect();

    let mut rows13a = Vec::new();
    for &changed_n in &[1usize, 5, 10, 20] {
        let changed: Vec<u32> = query_vars.iter().copied().take(changed_n).collect();
        // Sya: conclique-restricted spatial Gibbs via the pyramid.
        let pyramid = kb.pyramid.as_ref().expect("spatial sampler built a pyramid");
        let t0 = Instant::now();
        let _ = sya_infer::incremental_spatial_gibbs(
            &kb.grounding.graph,
            pyramid,
            &changed,
            &kb.config.infer,
            &kb.counts,
            &sya_obs::Obs::disabled(),
        );
        let sya_ms = t0.elapsed().as_secs_f64() * 1e3;
        // DeepDive: sequential re-sampling of the affected set.
        let t1 = Instant::now();
        let _ = incremental_sequential_gibbs(
            &kb.grounding.graph,
            &changed,
            kb.config.infer.epochs,
            kb.config.infer.burn_in,
            7,
        );
        let deepdive_ms = t1.elapsed().as_secs_f64() * 1e3;
        rows13a.push(Fig13aRow { changed_nodes: changed_n, sya_ms, deepdive_ms });
    }
    println!("{:>13} {:>10} {:>13}", "changed nodes", "Sya (ms)", "DeepDive (ms)");
    for r in &rows13a {
        println!("{:>13} {:>10.2} {:>13.2}", r.changed_nodes, r.sya_ms, r.deepdive_ms);
    }
    println!("paper: Sya's incremental inference takes ~40% less time (multicore)");
    save_json("fig13a", &rows13a);

    banner("Fig. 13(b) — locality level vs F1 (AllLevels sweep)");
    let mut rows13b = Vec::new();
    for dataset in [
        gwdb_dataset(&GwdbConfig { n_wells: scale.gwdb_wells / 2, ..Default::default() }),
        nyccas_dataset(&NyccasConfig { grid: scale.nyccas_grid, ..Default::default() }),
    ] {
        for l in [1u8, 2, 4, 6, 8] {
            // Pre-saturation epoch budget: deeper locality levels get
            // more effective sweeps per epoch (AllLevels), which is the
            // quality mechanism the figure exposes.
            let mut config = SyaConfig::sya().with_epochs(40).with_locality_level(l);
            config.infer.sweep_mode = SweepMode::AllLevels;
            let kb2 = build_kb(&dataset, config);
            let eval = evaluate(&dataset, &kb2);
            rows13b.push(Fig13bRow {
                dataset: dataset.name.clone(),
                locality_level: l,
                f1: eval.f1(),
            });
        }
    }
    println!("{:<8} {:>15} {:>7}", "dataset", "locality level", "F1");
    for r in &rows13b {
        println!("{:<8} {:>15} {:>7.3}", r.dataset, r.locality_level, r.f1);
    }
    println!("paper: F1 increases with more localized pyramid cells, more so on GWDB");
    save_json("fig13b", &rows13b);
    // Keep the kb alive till here (pyramid borrowed above).
    let _ = kb.update_evidence_incremental(&[]);
}

// ---------------------------------------------------------------- fig14

#[derive(Serialize)]
struct Fig14Row {
    dataset: String,
    sampler: String,
    epochs: usize,
    time_ms: f64,
    kl: f64,
}

fn fig14(scale: Scale) {
    banner("Fig. 14 — KL divergence vs sampling time (spatial vs standard Gibbs)");
    let mut rows = Vec::new();
    for dataset in [
        gwdb_dataset(&GwdbConfig { n_wells: scale.gwdb_wells / 2, ..Default::default() }),
        nyccas_dataset(&NyccasConfig { grid: scale.nyccas_grid, ..Default::default() }),
    ] {
        // Ground the graph once (Sya grounding: spatial factors present
        // for both samplers so the model is identical and only the
        // sampling schedule differs).
        let config = calibrate(&dataset, SyaConfig::sya().with_epochs(10));
        let session = SyaSession::new(
            &dataset.program,
            dataset.constants.clone(),
            dataset.metric,
            config.clone(),
        )
        .expect("program compiles");
        let mut db = dataset.db.clone();
        let evidence = dataset.evidence.clone();
        let kb = session
            .construct(&mut db, &move |_, vals| {
                vals.first()
                    .and_then(Value::as_int)
                    .and_then(|id| evidence.get(&id).copied())
            })
            .expect("construction succeeds");
        let graph = &kb.grounding.graph;
        let pyramid = PyramidIndex::build(graph, 8, 64);

        // True marginals: the generator's underlying probability field.
        let relation = target_relation(&dataset);
        let query_atoms: Vec<u32> = kb
            .grounding
            .atoms_of(relation)
            .iter()
            .copied()
            .filter(|&v| !graph.variable(v).is_evidence())
            .collect();
        let truth: Vec<f64> = query_atoms
            .iter()
            .map(|&v| {
                let (_, values) = &kb.grounding.atom_meta[v as usize];
                let id = values[0].as_int().expect("id-keyed atoms");
                dataset.truth_prob[&id]
            })
            .collect();

        for &epochs in &[50usize, 200, 1000, 4000] {
            // Spatial Gibbs Sampling.
            let mut icfg = config.infer.clone();
            icfg.epochs = epochs;
            icfg.burn_in = (epochs / 10).max(1);
            let t0 = Instant::now();
            let counts = spatial_gibbs(graph, &pyramid, &icfg);
            let spatial_ms = t0.elapsed().as_secs_f64() * 1e3;
            let est: Vec<f64> = query_atoms.iter().map(|&v| counts.factual_score(v)).collect();
            rows.push(Fig14Row {
                dataset: dataset.name.clone(),
                sampler: "spatial".into(),
                epochs,
                time_ms: spatial_ms,
                kl: average_kl_divergence(&truth, &est),
            });
            // Standard (sequential) Gibbs.
            let t1 = Instant::now();
            let counts = sequential_gibbs(graph, epochs, (epochs / 10).max(1), 99);
            let std_ms = t1.elapsed().as_secs_f64() * 1e3;
            let est: Vec<f64> = query_atoms.iter().map(|&v| counts.factual_score(v)).collect();
            rows.push(Fig14Row {
                dataset: dataset.name.clone(),
                sampler: "standard".into(),
                epochs,
                time_ms: std_ms,
                kl: average_kl_divergence(&truth, &est),
            });
            // Random-partition parallel Gibbs (the parallel state of the
            // art Sya's conclique partitioning is designed to beat at
            // equal parallel structure: stale cross-bucket updates slow
            // its convergence).
            let t2 = Instant::now();
            let counts = parallel_random_gibbs(graph, epochs, (epochs / 10).max(1), 4, 99);
            let rnd_ms = t2.elapsed().as_secs_f64() * 1e3;
            let est: Vec<f64> = query_atoms.iter().map(|&v| counts.factual_score(v)).collect();
            rows.push(Fig14Row {
                dataset: dataset.name.clone(),
                sampler: "random-k4".into(),
                epochs,
                time_ms: rnd_ms,
                kl: average_kl_divergence(&truth, &est),
            });
        }
    }
    println!(
        "{:<8} {:<9} {:>7} {:>10} {:>8}",
        "dataset", "sampler", "epochs", "time(ms)", "KL"
    );
    for r in &rows {
        println!(
            "{:<8} {:<9} {:>7} {:>10.1} {:>8.4}",
            r.dataset, r.sampler, r.epochs, r.time_ms, r.kl
        );
    }
    println!("paper: spatial Gibbs reaches >=49% (GWDB) / >=41% (NYCCAS) lower KL at equal time");
    save_json("fig14", &rows);
}

// ------------------------------------------------------------ ablations

#[derive(Serialize)]
struct AblationRow {
    study: &'static str,
    variant: String,
    f1: f64,
    spatial_factors: usize,
    inference_ms: f64,
}

/// Design-choice ablations (DESIGN.md §5): the spatial weighting
/// function, the pyramid sweep mode, the instance count `K`, and the
/// spatial-factor radius (the quality/scalability trade-off).
fn ablations(scale: Scale) {
    banner("Ablations — weighting function / sweep mode / instances / radius (GWDB)");
    let n = (scale.gwdb_wells / 2).max(400);
    let base = gwdb_dataset(&GwdbConfig { n_wells: n, ..Default::default() });
    let mut rows: Vec<AblationRow> = Vec::new();

    // 1. Weighting function: swap the @spatial annotation in the program.
    for w in ["exp", "gauss", "invd", "linear"] {
        let mut dataset = base.clone();
        dataset.program = dataset.program.replace("@spatial(exp)", &format!("@spatial({w})"));
        let kb = build_kb(&dataset, SyaConfig::sya().with_epochs(400));
        let eval = evaluate(&dataset, &kb);
        rows.push(AblationRow {
            study: "weighting",
            variant: w.to_owned(),
            f1: eval.f1(),
            spatial_factors: kb.grounding.stats.spatial_factors,
            inference_ms: kb.timings.inference.as_secs_f64() * 1e3,
        });
    }

    // 2. Sweep mode: each epoch walks one leaf pass vs all levels.
    for (label, mode) in [("leaf_only", SweepMode::LeafOnly), ("all_levels", SweepMode::AllLevels)] {
        let mut config = SyaConfig::sya().with_epochs(400);
        config.infer.sweep_mode = mode;
        let kb = build_kb(&base, config);
        let eval = evaluate(&base, &kb);
        rows.push(AblationRow {
            study: "sweep_mode",
            variant: label.to_owned(),
            f1: eval.f1(),
            spatial_factors: kb.grounding.stats.spatial_factors,
            inference_ms: kb.timings.inference.as_secs_f64() * 1e3,
        });
    }

    // 3. Parallel instances K (epoch budget is split across instances).
    for k in [1usize, 2, 4, 8] {
        let mut config = SyaConfig::sya().with_epochs(400);
        config.infer.instances = k;
        let kb = build_kb(&base, config);
        let eval = evaluate(&base, &kb);
        rows.push(AblationRow {
            study: "instances",
            variant: format!("K={k}"),
            f1: eval.f1(),
            spatial_factors: kb.grounding.stats.spatial_factors,
            inference_ms: kb.timings.inference.as_secs_f64() * 1e3,
        });
    }

    // 4. Higher-order region factors (the paper's out-of-scope
    //    extension): pairwise only vs pairwise + region consensus.
    for (label, scale) in [("pairwise", None), ("with_regions", Some(0.5))] {
        let mut config = SyaConfig::sya().with_epochs(400);
        config.ground.region_factor_scale = scale;
        let kb = build_kb(&base, config);
        let eval = evaluate(&base, &kb);
        rows.push(AblationRow {
            study: "high_order",
            variant: label.to_owned(),
            f1: eval.f1(),
            spatial_factors: kb.grounding.graph.num_spatial_factors()
                + kb.grounding.graph.num_region_factors(),
            inference_ms: kb.timings.inference.as_secs_f64() * 1e3,
        });
    }

    // 5. Spatial radius: the graph-size vs quality trade-off.
    for r in [10.0f64, 30.0, 60.0, 120.0] {
        let config = SyaConfig::sya().with_epochs(400).with_spatial_radius(r);
        let kb = build_kb(&base, config);
        let eval = evaluate(&base, &kb);
        rows.push(AblationRow {
            study: "radius",
            variant: format!("{r} mi"),
            f1: eval.f1(),
            spatial_factors: kb.grounding.stats.spatial_factors,
            inference_ms: kb.timings.inference.as_secs_f64() * 1e3,
        });
    }

    println!(
        "{:<12} {:<12} {:>7} {:>15} {:>13}",
        "study", "variant", "F1", "spatial factors", "inference(ms)"
    );
    for r in &rows {
        println!(
            "{:<12} {:<12} {:>7.3} {:>15} {:>13.1}",
            r.study, r.variant, r.f1, r.spatial_factors, r.inference_ms
        );
    }
    save_json("ablations", &rows);
}

// ----------------------------------------------------------- utilities

/// Writes `demo/` with a ready-to-run program and CSV data so the `sya`
/// CLI can be tried immediately:
/// `sya run demo/gwdb.ddlog --table Well=demo/wells.csv --evidence demo/evidence.csv`.
fn export_demo(scale: Scale) {
    banner("export-demo — writing demo/ for the sya CLI");
    std::fs::create_dir_all("demo").expect("create demo dir");
    let n = (scale.gwdb_wells / 2).max(300);
    let dataset = gwdb_dataset(&GwdbConfig { n_wells: n, ..Default::default() });
    std::fs::write("demo/gwdb.ddlog", &dataset.program).expect("write program");

    let table = dataset.db.table("Well").expect("well table");
    let mut rows = Vec::with_capacity(table.len());
    for row in table.rows() {
        rows.push(vec![
            row[0].to_string(),
            sya_geom::to_wkt(row[1].as_geom().expect("point")),
            row[2].to_string(),
            row[3].to_string(),
        ]);
    }
    let file = std::fs::File::create("demo/wells.csv").expect("create wells.csv");
    sya_store::write_csv(
        std::io::BufWriter::new(file),
        &["id", "location", "arsenic", "fluoride"],
        rows,
    )
    .expect("write wells.csv");

    let mut ev_rows: Vec<Vec<String>> = dataset
        .evidence
        .iter()
        .map(|(id, v)| vec!["IsSafe".to_owned(), id.to_string(), v.to_string()])
        .collect();
    ev_rows.sort();
    let file = std::fs::File::create("demo/evidence.csv").expect("create evidence.csv");
    sya_store::write_csv(
        std::io::BufWriter::new(file),
        &["relation", "id", "value"],
        ev_rows,
    )
    .expect("write evidence.csv");

    println!(
        "wrote demo/gwdb.ddlog, demo/wells.csv ({n} rows), demo/evidence.csv ({} rows)",
        dataset.evidence.len()
    );
    println!(
        "try: ./target/release/sya run demo/gwdb.ddlog \\\n\
         \x20     --table Well=demo/wells.csv --evidence demo/evidence.csv \\\n\
         \x20     --bandwidth 15 --radius 30 --output demo/scores.csv"
    );
}

/// Renders every `results/*.json` file as a markdown table (rows are
/// flat JSON objects, as written by the experiment subcommands).
fn report() {
    banner("report — results/*.json as markdown");
    let mut paths: Vec<_> = match std::fs::read_dir("results") {
        Ok(dir) => dir
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect(),
        Err(_) => {
            println!("no results/ directory yet — run some experiments first");
            return;
        }
    };
    paths.sort();
    for path in paths {
        let Ok(text) = std::fs::read_to_string(&path) else { continue };
        let Ok(serde_json::Value::Array(rows)) = serde_json::from_str(&text) else {
            continue;
        };
        let Some(serde_json::Value::Object(first)) = rows.first() else { continue };
        let headers: Vec<String> = first.keys().cloned().collect();
        println!("\n### {}\n", path.file_stem().unwrap().to_string_lossy());
        println!("| {} |", headers.join(" | "));
        println!("|{}|", headers.iter().map(|_| "---").collect::<Vec<_>>().join("|"));
        for row in &rows {
            let serde_json::Value::Object(obj) = row else { continue };
            let cells: Vec<String> = headers
                .iter()
                .map(|h| match obj.get(h) {
                    Some(serde_json::Value::Number(n)) => {
                        let f = n.as_f64().unwrap_or(0.0);
                        if f.fract() == 0.0 {
                            format!("{f}")
                        } else {
                            format!("{f:.4}")
                        }
                    }
                    Some(serde_json::Value::String(s)) => s.clone(),
                    Some(other) => other.to_string(),
                    None => String::new(),
                })
                .collect();
            println!("| {} |", cells.join(" | "));
        }
    }
}
