//! `construct`: the batch knowledge-base build users wait on, repeated,
//! and between builds reads from the first build through the full-mode
//! server. After the timed phase the shard executor runs the first
//! build's graph with two shards and with one, which must agree bit for
//! bit; the traced run times that two-shard run as the `shard` layer.
//!
//! Untraced, each build is one `SyaSession::construct` plus the score
//! readout. Traced, every other build calls the layers one by one under
//! spans (grounding, pyramid, sampler, readout), and the builds in
//! between stay untraced, so the trace reports its own overhead and how
//! much of `construct_s` the layer spans cover.

use crate::inputs::{self, RELATION};
use crate::load;
use crate::report::{median, peak_rss_mb};
use crate::trace::count_allocs;
use crate::{report_store, serving, trace_compile, Run};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;
use sya_core::{KnowledgeBase, Obs, SyaConfig, SyaSession};
use sya_data::Dataset;
use sya_ground::{pyramid_cell_map, Grounder};
use sya_infer::{spatial_gibbs_with, MarginalCounts, PyramidIndex};
use sya_runtime::ExecContext;
use sya_serve::ServingKb;
use sya_shard::{run_sharded, ShardCkptOptions, ShardPlan};
use sya_store::Database;

/// Set-ups (compile and table load) before the first build. A set-up
/// takes milliseconds and its time drifts with the host over seconds,
/// so more are timed after every build, and `setup_s` is the median of
/// all of them.
const SETUP_REPS: usize = 15;

/// Set-ups timed after each build.
const SETUPS_PER_BUILD: usize = 4;

/// Fewest builds per run, whatever `--seconds` says.
const MIN_BUILDS: usize = 3;

/// Nominal read rate against the built KB, requests per second.
const READ_RATE: f64 = 100.0;

/// Shards of the shard executor's run.
const SHARDS: usize = 2;

/// F1 against the generator's truth below this means the KB is wrong.
const F1_FLOOR: f64 = 0.6;

/// `(variables, logical factors, spatial factors)` of one build.
type Shape = (usize, usize, usize);

fn shape(graph: &sya_fg::FactorGraph) -> Shape {
    (
        graph.num_variables(),
        graph.num_factors(),
        graph.num_spatial_factors(),
    )
}

fn total_samples(counts: &MarginalCounts, vars: usize) -> f64 {
    (0..vars as u32)
        .map(|v| counts.total_samples(v) as f64)
        .sum()
}

pub fn run(r: &mut Run) -> Result<(), String> {
    let dataset = inputs::dataset();
    let config = inputs::sya_config(r.seed);
    record_config(r, &config);

    let csv = inputs::wells_csv(&dataset);
    let mut setups = Vec::new();
    let mut loaded = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let fresh = set_up(&dataset, &config, &csv)?;
        setups.push(t.elapsed().as_secs_f64());
        loaded = Some(fresh);
    }
    let (session, base_db) = loaded.expect("at least one set-up");
    if r.tracer.enabled() {
        trace_compile(r, &dataset);
    }

    // Builds alternate with read windows against the first build, each
    // window as long as the build before it, so both take half the run
    // and sample all of it rather than one stretch.
    let ev_fn = inputs::evidence_fn(&dataset.evidence);
    let started = Instant::now();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut shapes = Vec::new();
    let mut read_ids = inputs::uniform_ids(
        &inputs::all_ids(&dataset),
        (READ_RATE * r.seconds * 2.0) as usize,
        &mut inputs::rng(r.seed, 4),
    );
    let mut arrivals = inputs::rng(r.seed, 11);
    let mut served = None;
    let mut replies = Vec::new();
    let mut before = HashMap::new();
    for rep in 0.. {
        if rep >= MIN_BUILDS && started.elapsed().as_secs_f64() >= r.seconds {
            break;
        }
        let mut db = base_db.clone();
        let t = Instant::now();
        if r.tracer.enabled() && rep % 2 == 1 {
            let graph_shape = traced_build(r, &session, &mut db, &ev_fn, rep as u64)?;
            traced.push(t.elapsed().as_secs_f64());
            shapes.push(graph_shape);
        } else {
            let built = session
                .construct(&mut db, &ev_fn)
                .map_err(|e| e.to_string())?;
            black_box(built.counts.factual_scores(&built.grounding.graph));
            untraced.push(t.elapsed().as_secs_f64());
            shapes.push(shape(&built.grounding.graph));
            if served.is_none() {
                served = Some(serve_first_build(r, &dataset, &session, built)?);
                let (server, _) = served.as_ref().expect("just set");
                before = load::scrape(server.local_addr());
            }
        }
        let (server, _) = served.as_ref().expect("build 0 is untraced and served");
        let window = t.elapsed();
        let (plan, rest) = load::read_plan(&read_ids, READ_RATE, window, &mut arrivals, RELATION);
        read_ids = rest.to_vec();
        replies.extend(load::run(
            server.local_addr(),
            &plan,
            r.nproc,
            &r.tracer,
            replies.len() as u64,
        ));
        for _ in 0..SETUPS_PER_BUILD {
            let t = Instant::now();
            let spare = set_up(&dataset, &config, &csv)?;
            setups.push(t.elapsed().as_secs_f64());
            drop(spare);
        }
    }
    r.report.set("setup_s", median(&setups));
    r.report.record("setups", setups.len());
    let (server, expected) = served.expect("build 0 is untraced and served");
    let after = load::scrape(server.local_addr());
    r.report.set("peak_rss_mb", peak_rss_mb());
    r.report.ops(shapes.len() as u64, 0);
    let construct_s = median(&untraced);
    r.report.set("construct_s", construct_s);
    r.report.record("builds", shapes.len());
    r.report.record("build_seconds", format!("{untraced:.3?}"));
    if r.tracer.enabled() {
        report_trace_overhead(r, construct_s, median(&traced));
    }
    r.report.check(
        "graph counts equal across builds of one seed",
        shapes.windows(2).all(|w| w[0] == w[1]),
        format!("{shapes:?}"),
    );
    serving::report_replies(&mut r.report, &replies);
    serving::check_reads(&mut r.report, &replies, Some(&expected));
    serving::report_server_time(&mut r.report, &replies, &before, &after);
    let state = server.state().clone();
    serving::stop(server)?;
    state
        .with_kb(|kb| shard_pass(r, kb))
        .expect("a full-mode state holds a KB")
}

/// One set-up as `sya run` does it: compile the program, then load the
/// `Well` table from CSV.
fn set_up(
    dataset: &Dataset,
    config: &SyaConfig,
    csv: &str,
) -> Result<(SyaSession, Database), String> {
    let session = SyaSession::new(
        &dataset.program,
        dataset.constants.clone(),
        dataset.metric,
        config.clone(),
    )
    .map_err(|e| e.to_string())?;
    let db = inputs::load_tables(&session, csv)?;
    Ok((session, db))
}

/// Checks the first build and serves it, as `sya serve` would. Returns
/// the server and the scores it must answer with.
fn serve_first_build(
    r: &mut Run,
    dataset: &Dataset,
    session: &SyaSession,
    kb: KnowledgeBase,
) -> Result<(sya_serve::SyaServer, HashMap<i64, f64>), String> {
    check_kb(r, dataset, &kb);
    let expected: HashMap<i64, f64> = kb.scores_by_id(RELATION).into_iter().collect();
    let state = ServingKb::new(session.clone(), kb, Obs::enabled()).map_err(|e| e.to_string())?;
    Ok((serving::start(state, r.nproc)?, expected))
}

pub fn record_config(r: &mut Run, config: &SyaConfig) {
    let infer = &config.infer;
    r.report.record("epochs", infer.epochs);
    r.report.record("instances_k", infer.instances);
    r.report.record("levels_l", infer.levels);
    // Mirrors the sampler's default: available parallelism, clamped to 1..=4.
    let cell_workers = infer.workers.unwrap_or(r.nproc.clamp(1, 4)).max(1);
    r.report.record("cell_workers", cell_workers);
    r.report.record("serve_workers", r.nproc);
}

/// One build with every layer called on its own, each under a span.
/// Grounding runs with an enabled `Obs` so the store's scan counters
/// count; the sampler runs without one, as in `construct`, because an
/// observed sampler computes extra convergence telemetry.
fn traced_build(
    r: &mut Run,
    session: &SyaSession,
    db: &mut Database,
    ev_fn: &dyn Fn(&str, &[sya_store::Value]) -> Option<u32>,
    request: u64,
) -> Result<Shape, String> {
    let config = session.config();
    let infer = &config.infer;
    let tracer = &r.tracer;
    let root = tracer.begin("core.construct", None, request);
    let obs = Obs::enabled();
    let ground_ctx = ExecContext::new(config.budget.clone()).with_obs(obs.clone());
    let ctx = ExecContext::new(config.budget.clone());

    let grounding = tracer
        .span("ground.ground_with", Some(root), request, || {
            Grounder::new(session.compiled(), config.ground.clone()).ground_with(
                db,
                ev_fn,
                &ground_ctx,
            )
        })
        .map_err(|e| e.to_string())?;
    let graph = &grounding.graph;
    let pyramid = tracer.span("infer.pyramid_build", Some(root), request, || {
        PyramidIndex::build(graph, infer.levels, infer.cell_capacity)
    });
    let (run, allocs, bytes) = tracer.span("infer.spatial_gibbs_with", Some(root), request, || {
        count_allocs(|| spatial_gibbs_with(graph, &pyramid, infer, &ctx))
    });
    let counts = run.map_err(|e| e.to_string())?.counts;
    tracer.span("infer.factual_scores", Some(root), request, || {
        black_box(counts.factual_scores(graph))
    });
    tracer.end(root);

    let stats = &grounding.stats;
    let m = obs.metrics().expect("enabled obs has a registry");
    r.report
        .set("ground.variables", stats.variables_created as f64);
    r.report
        .set("ground.logical_factors", stats.logical_factors as f64);
    r.report
        .set("ground.spatial_factors", stats.spatial_factors as f64);
    r.report
        .set("ground.pruned_pairs", stats.pruned_domain_pairs as f64);
    report_store(&mut r.report, |name| {
        m.counter_value(name).unwrap_or(0) as f64
    });
    r.report.set(
        "infer.samples",
        total_samples(&counts, graph.num_variables()),
    );
    r.report.set("infer.allocs", allocs as f64);
    r.report.set("infer.alloc_bytes", bytes as f64);
    Ok(shape(graph))
}

/// Per-layer medians over the traced builds, the tracing overhead, and
/// the part of a traced build no layer span covers.
fn report_trace_overhead(r: &mut Run, construct_s: f64, traced_s: f64) {
    let t = &r.tracer;
    let ground = median(&t.durations("ground.ground_with"));
    let pyramid = median(&t.durations("infer.pyramid_build"));
    let sample = median(&t.durations("infer.spatial_gibbs_with"));
    let readout = median(&t.durations("infer.factual_scores"));
    let unattributed = median(&t.self_times("core.construct"));
    let layers = ground + pyramid + sample + readout;
    r.report.set("ground.wall_s", ground);
    r.report.set("infer.pyramid_build_s", pyramid);
    r.report.set("infer.sample_s", sample);
    r.report.set("infer.readout_s", readout);
    r.report.set(
        "infer.samples_per_s",
        r.report.get("infer.samples") / sample,
    );
    r.report.set("trace.overhead_s", traced_s - construct_s);
    r.report.set(
        "trace.overhead_share",
        (traced_s - construct_s) / construct_s,
    );
    r.report.set("trace.unattributed_s", unattributed);
    r.report.record(
        "layer_sum_vs_construct",
        format!(
            "layers {layers:.4} s + unattributed {unattributed:.4} s vs construct_s \
             {construct_s:.4} s (traced build {traced_s:.4} s)"
        ),
    );
}

/// Scores in [0, 1], evidence atoms at exactly their observed value, and
/// F1 against the generator's truth above the floor.
fn check_kb(r: &mut Run, dataset: &Dataset, kb: &KnowledgeBase) {
    let scores = kb.scores_by_id(RELATION);
    let out_of_range = scores
        .iter()
        .filter(|(_, s)| !(0.0..=1.0).contains(s))
        .count();
    r.report.check(
        "every score in [0,1]",
        out_of_range == 0 && scores.len() == inputs::N_WELLS,
        format!("{} scores, {out_of_range} out of range", scores.len()),
    );
    let by_id: HashMap<i64, f64> = scores.into_iter().collect();
    let wrong = dataset
        .evidence
        .iter()
        .filter(|(id, &v)| by_id.get(id) != Some(&f64::from(v)))
        .count();
    r.report.check(
        "evidence atoms score their observed value",
        wrong == 0,
        format!("{} evidence atoms, {wrong} differ", dataset.evidence.len()),
    );
    let query = dataset.query_ids();
    let supported = sya_data::metrics::supported_ids(
        &dataset.locations,
        dataset.evidence.keys().copied(),
        &query,
        dataset.support_radius,
        dataset.metric,
    );
    let eval = sya_data::metrics::QualityEval::evaluate(
        &kb.query_scores_by_id(RELATION),
        &dataset.truth,
        &supported,
    );
    let f1 = eval.f1();
    r.report.record("f1", format!("{f1:.4}"));
    r.report.check(
        "F1 above floor",
        f1 >= F1_FLOOR,
        format!("F1 {f1:.4}, floor {F1_FLOOR}"),
    );
}

/// `shard`: the shard executor over the first build's graph, planned
/// and run with two shards (under spans) and with one; the merged counts
/// must be bit-identical. The shards run in lockstep with three barrier
/// waits per epoch, so their wall time follows the host's cross-CPU
/// wake-up latency, which on a shared VM flips between runs; it is a
/// layer metric here, not a gated build time.
fn shard_pass(r: &mut Run, kb: &KnowledgeBase) -> Result<(), String> {
    let graph = &kb.grounding.graph;
    let pyramid = kb.pyramid.as_ref().ok_or("a spatial KB has a pyramid")?;
    let level = kb.config.sharding.partition_level.min(12);
    let ckpt = ShardCkptOptions {
        dir: None,
        every: 0,
        resume: false,
    };
    let ctx = ExecContext::new(kb.config.budget.clone());
    let cells = pyramid_cell_map(graph, level);
    let tracer = &r.tracer;
    let two = tracer.span("shard.plan", None, 0, || {
        ShardPlan::build(graph, &cells, SHARDS, level)
    });
    let summaries = two.summaries();
    r.report.set(
        "shard.halo_vars",
        summaries.iter().map(|s| s.halo_vars as f64).sum(),
    );
    r.report.set(
        "shard.boundary_factors",
        summaries.iter().map(|s| s.boundary_factors as f64).sum(),
    );
    let sharded = tracer
        .span("shard.run_sharded", None, 0, || {
            run_sharded(graph, pyramid, &two, &kb.config.infer, None, &ckpt, &ctx)
        })
        .map_err(|e| e.to_string())?;
    let one = ShardPlan::build(graph, &cells, 1, level);
    let single = run_sharded(graph, pyramid, &one, &kb.config.infer, None, &ckpt, &ctx)
        .map_err(|e| e.to_string())?;
    r.report
        .set("shard.plan_s", median(&tracer.durations("shard.plan")));
    r.report.set(
        "shard.run_s",
        median(&tracer.durations("shard.run_sharded")),
    );
    r.report.check(
        "two-shard counts equal a one-shard run",
        sharded.counts.to_rows() == single.counts.to_rows(),
        "bit-identical marginal counts",
    );
    Ok(())
}
