//! `lazy-read`: a `LazyKb` behind an in-process server, under an open
//! loop of `GET /v1/marginal/IsSafe` over Zipf-skewed ids of all wells.
//! Hop depth and cache size are the `sya serve --lazy` defaults. The
//! skew repeats hot ids, so the answer cache hits, while the key space
//! is larger than one run touches, so misses stay: each miss pays
//! demand grounding and a restricted chain, never the full sampler.
//!
//! Fixed-rate read windows alternate with full reference builds, whose
//! time is the workload's `construct_s`: the cost lazy serving avoids.
//! A rate ladder then finds the highest rate that keeps p99 under the
//! latency limit, and a fixed sample of ids is compared with the last
//! reference build.

use crate::inputs::{self, RELATION};
use crate::load;
use crate::report::{median, peak_rss_mb, percentile};
use crate::{report_store, serving, trace_compile, Run};
use std::collections::HashMap;
use std::time::{Duration, Instant};
use sya_core::{Obs, SyaSession};
use sya_query::{QueryConfig, QueryGrounder};
use sya_runtime::ExecContext;
use sya_serve::{LazyConfig, LazyKb, SyaServer};

/// Share of `--seconds` at the nominal rate; the rest runs the ladder.
const NOMINAL_SHARE: f64 = 0.8;

/// Nominal read windows, each followed by one reference build; a
/// build's time varies by a quarter within a run, so there are many.
const ROUNDS: usize = 12;

/// Set-ups before the timed phase. A set-up takes milliseconds and its
/// time drifts with the host over seconds, so more are timed after every
/// reference build, and `setup_s` is the median of all of them.
const SETUP_REPS: usize = 7;

/// Set-ups timed after each reference build.
const SETUPS_PER_ROUND: usize = 2;

/// Nominal read rate, requests per second.
const READ_RATE: f64 = 75.0;

/// Zipf exponent of the key sequence.
const ZIPF_S: f64 = 1.0;

/// Offered rates of the ladder, requests per second.
const LADDER: &[f64] = &[100.0, 140.0, 200.0, 280.0, 400.0];

/// p99 limit of a ladder step.
const LATENCY_LIMIT: Duration = Duration::from_millis(100);

/// Ids compared with the full-KB reference.
const PARITY_SAMPLE: usize = 200;

/// Bound on the mean |lazy - full| score over the parity sample.
const PARITY_MEAN_BOUND: f64 = 0.2;

/// Distinct ids the traced run grounds directly through `QueryGrounder`.
const DIRECT_QUERIES: usize = 50;

pub fn run(r: &mut Run) -> Result<(), String> {
    let dataset = inputs::dataset();
    let config = inputs::sya_config(r.seed);
    let evidence = inputs::evidence_map(&dataset);
    let mut qcfg = QueryConfig::default();
    qcfg.infer.seed = inputs::chain_seed(r.seed);
    let lazy_cfg = LazyConfig {
        query: qcfg.clone(),
        ..LazyConfig::default()
    };
    r.report.record("hop_depth", qcfg.hop_depth);
    r.report.record("chain_epochs", qcfg.infer.epochs);
    r.report
        .record("chain_workers", qcfg.infer.workers.unwrap_or(0));
    r.report.record("cache_capacity", lazy_cfg.cache_capacity);
    r.report.record("serve_workers", r.nproc);
    let ids = inputs::all_ids(&dataset);
    // The same wells every seed, so set-up does the same work every run.
    let warmup = &ids[..2];

    let csv = inputs::wells_csv(&dataset);
    let workers = r.nproc;
    let set_up = || -> Result<(SyaServer, SyaSession), String> {
        let session = SyaSession::new(
            &dataset.program,
            dataset.constants.clone(),
            dataset.metric,
            config.clone(),
        )
        .map_err(|e| e.to_string())?;
        let db = inputs::load_tables(&session, &csv)?;
        let kb = LazyKb::new(
            session.compiled().clone(),
            session.config().ground.clone(),
            db,
            evidence.clone(),
            lazy_cfg.clone(),
            Obs::enabled(),
        )
        .map_err(|e| e.to_string())?;
        // Warm-up in process: the first misses build the grounder's hash
        // indexes and bandwidths, which lazy serving keeps.
        let ctx = ExecContext::new(kb.request_budget());
        for &id in warmup {
            kb.marginal(RELATION, id, &ctx).map_err(|e| e.to_string())?;
        }
        Ok((serving::start(kb, workers)?, session))
    };
    let mut setups = Vec::new();
    let mut live = None;
    for _ in 0..SETUP_REPS {
        if let Some((server, _)) = live.take() {
            serving::stop(server)?;
        }
        let t = Instant::now();
        let fresh = set_up()?;
        setups.push(t.elapsed().as_secs_f64());
        live = Some(fresh);
    }
    let (server, session) = live.expect("at least one set-up");
    if r.tracer.enabled() {
        trace_compile(r, &dataset);
    }
    let addr = server.local_addr();

    // Fixed-rate read windows alternate with the reference builds, so
    // both sample the whole run; the rate ladder comes last.
    let nominal_window = Duration::from_secs_f64(r.seconds * NOMINAL_SHARE / ROUNDS as f64);
    let step = Duration::from_secs_f64(r.seconds * (1.0 - NOMINAL_SHARE) / LADDER.len() as f64);
    let expected: f64 = READ_RATE * r.seconds * NOMINAL_SHARE
        + LADDER
            .iter()
            .map(|rate| rate * step.as_secs_f64())
            .sum::<f64>();
    let keys = inputs::zipf_ids(
        &ids,
        (expected * 2.0) as usize + 100,
        ZIPF_S,
        &mut inputs::rng(r.seed, 5),
    );
    let mut rest: &[i64] = &keys;
    let mut arrivals = inputs::rng(r.seed, 11);
    let mut replies = Vec::new();
    let mut builds = Vec::new();
    let mut full = None;
    let ev_fn = inputs::evidence_fn(&dataset.evidence);
    let before = load::scrape(addr);
    for _ in 0..ROUNDS {
        let (plan, left) =
            load::read_plan(rest, READ_RATE, nominal_window, &mut arrivals, RELATION);
        rest = left;
        replies.extend(load::run(
            addr,
            &plan,
            r.nproc,
            &r.tracer,
            replies.len() as u64,
        ));
        let mut db = dataset.db.clone();
        let t = Instant::now();
        let kb = session
            .construct(&mut db, &ev_fn)
            .map_err(|e| e.to_string())?;
        let scores: HashMap<i64, f64> = kb.query_scores_by_id(RELATION).into_iter().collect();
        builds.push(t.elapsed().as_secs_f64());
        full = Some(scores);
        for _ in 0..SETUPS_PER_ROUND {
            let t = Instant::now();
            let (spare, _) = set_up()?;
            setups.push(t.elapsed().as_secs_f64());
            serving::stop(spare)?;
        }
    }
    r.report.set("setup_s", median(&setups));
    r.report.record("setups", setups.len());
    let after = load::scrape(addr);
    r.report.set("peak_rss_mb", peak_rss_mb());
    r.report.set("construct_s", median(&builds));
    r.report.record("build_seconds", format!("{builds:.3?}"));
    r.report.ops(builds.len() as u64, 0);
    let nominal = keys.len() - rest.len();
    let (max_rps, ladder) = load::max_rate(
        addr,
        LADDER,
        step,
        LATENCY_LIMIT,
        r.nproc,
        &r.tracer,
        &mut arrivals,
        &mut |i| {
            let id = rest[i.min(rest.len() - 1)];
            (id, load::get(&load::marginal_path(RELATION, id)))
        },
    );
    let distinct: std::collections::HashSet<i64> = keys[..nominal].iter().copied().collect();
    r.report.record("distinct_ids_nominal", distinct.len());

    serving::report_replies(&mut r.report, &replies);
    serving::report_server_time(&mut r.report, &replies, &before, &after);
    let hits = load::delta(&before, &after, "sya_serve_query_cache_hit_total");
    let misses = load::delta(&before, &after, "sya_serve_query_cache_miss_total");
    r.report
        .set("serve.cache_hit_ratio", hits / (hits + misses).max(1.0));
    r.report.set(
        "serve.singleflight_waits",
        load::delta(&before, &after, "sya_serve_query_singleflight_wait_total"),
    );
    r.report.set("read_max_rps", max_rps);
    r.report.ops(
        ladder.len() as u64,
        ladder.iter().filter(|x| !x.ok()).count() as u64,
    );
    let all: Vec<_> = replies.into_iter().chain(ladder).collect();
    serving::check_reads(&mut r.report, &all, None);

    check_parity(
        r,
        &dataset,
        addr,
        &full.expect("at least one reference build"),
    );
    serving::stop(server)?;
    if r.tracer.enabled() {
        direct_queries(r, &dataset, &session, &qcfg, &keys[..nominal]);
    }
    Ok(())
}

/// Mean |lazy - full| over a fixed sample of query ids stays within
/// the bound.
fn check_parity(
    r: &mut Run,
    dataset: &sya_data::Dataset,
    addr: std::net::SocketAddr,
    full: &HashMap<i64, f64>,
) {
    let sample = inputs::uniform_ids(
        &dataset.query_ids(),
        PARITY_SAMPLE,
        &mut inputs::rng(r.seed, 6),
    );
    let mut lazy = HashMap::new();
    for &id in &sample {
        let (status, body) = load::exchange(addr, &load::get(&load::marginal_path(RELATION, id)));
        r.report.ops(1, u64::from(status != 200));
        if let Some(s) = serving::score(&body) {
            lazy.insert(id, s);
        }
    }
    let deltas: Vec<f64> = sample
        .iter()
        .filter_map(|id| Some((lazy.get(id)? - full.get(id)?).abs()))
        .collect();
    let mean = deltas.iter().sum::<f64>() / deltas.len().max(1) as f64;
    let max = deltas.iter().copied().fold(0.0, f64::max);
    r.report
        .record("parity_mean_abs_delta", format!("{mean:.4}"));
    r.report.record("parity_max_abs_delta", format!("{max:.4}"));
    r.report.check(
        "lazy answers near the full KB",
        deltas.len() == sample.len() && mean <= PARITY_MEAN_BOUND,
        format!(
            "{} of {} ids compared, mean |d| {mean:.4} (bound {PARITY_MEAN_BOUND}), max {max:.4}",
            deltas.len(),
            sample.len()
        ),
    );
}

/// `query`: the first distinct ids of the key sequence, grounded and
/// answered through `QueryGrounder` directly, each call under a span.
fn direct_queries(
    r: &mut Run,
    dataset: &sya_data::Dataset,
    session: &SyaSession,
    qcfg: &QueryConfig,
    keys: &[i64],
) {
    let mut db = dataset.db.clone();
    let obs = Obs::enabled();
    // The full path attaches the store's counters when it grounds; the
    // query path does not, so attach them here.
    db.attach_obs(obs.clone());
    let mut grounder = QueryGrounder::new(
        session.compiled().clone(),
        session.config().ground.clone(),
        qcfg.clone(),
    );
    let ctx = ExecContext::new(session.config().budget.clone()).with_obs(obs.clone());
    let ev_fn = inputs::evidence_fn(&dataset.evidence);
    let mut seen = std::collections::HashSet::new();
    let (mut vars, mut factors, mut clamped) = (Vec::new(), Vec::new(), Vec::new());
    for (i, &id) in keys
        .iter()
        .filter(|id| seen.insert(**id))
        .take(DIRECT_QUERIES)
        .enumerate()
    {
        let request = 1_000_000 + i as u64;
        let root = r.tracer.begin("query.marginal", None, request);
        let nh = r
            .tracer
            .span("query.neighborhood", Some(root), request, || {
                grounder.neighborhood(&mut db, &ev_fn, RELATION, id, &ctx)
            });
        if let Ok(nh) = nh {
            let graph = &nh.grounding.graph;
            vars.push(graph.num_variables() as f64);
            factors.push((graph.num_factors() + graph.num_spatial_factors()) as f64);
            clamped.push(nh.boundary_clamped as f64);
            let answer = r.tracer.span("query.answer", Some(root), request, || {
                grounder.answer(&nh, &ctx)
            });
            r.report.ops(1, u64::from(answer.is_err()));
        } else {
            r.report.ops(1, 1);
        }
        r.tracer.end(root);
    }
    let nh_times = r.tracer.durations("query.neighborhood");
    let answer_times = r.tracer.durations("query.answer");
    r.report
        .set("query.neighborhood_p50_s", percentile(&nh_times, 50.0));
    r.report
        .set("query.neighborhood_p99_s", percentile(&nh_times, 99.0));
    r.report
        .set("query.answer_p50_s", percentile(&answer_times, 50.0));
    r.report
        .set("query.answer_p99_s", percentile(&answer_times, 99.0));
    r.report.set("query.nh_variables", median(&vars));
    r.report.set("query.nh_factors", median(&factors));
    r.report.set("query.boundary_clamped", median(&clamped));
    let m = obs.metrics().expect("enabled obs has a registry");
    report_store(&mut r.report, |name| {
        m.counter_value(name).unwrap_or(0) as f64
    });
}
