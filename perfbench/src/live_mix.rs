//! `live-mix`: a full-mode `ServingKb::with_live` server, set up as
//! `sya serve` sets it up, under an open loop of `GET` marginals over
//! uniform ids mixed with `POST /v1/rows` writes that alternate the
//! insert of a synthetic well next to an existing one with its retract,
//! so the KB keeps its size. Reads are lock-guarded lookups, dominated
//! by HTTP and admission; writes go through delta grounding,
//! factor-graph surgery and the incremental sampler, and hold the KB's
//! write lock while they do, so reads that arrive meanwhile wait.
//!
//! Writes are about 0.5% of requests, not 10%: at the default sampler
//! settings one write holds the lock for 0.15 to 0.4 s on two cores,
//! and the reads it holds up, with the backlog they leave, make about
//! 15% of all reads at this rate. Many more writes would put the read
//! median among the held-up reads, where it follows each write's
//! length rather than the read path; many fewer would leave the p99
//! resting on one or two writes.

use crate::inputs::{self, RELATION};
use crate::load::{self, Kind, Planned};
use crate::report::{median, peak_rss_mb, percentile};
use crate::{construct, report_store, serving, trace_compile, Run};
use rand::Rng;
use std::time::{Duration, Instant};
use sya_core::{Obs, SyaSession};
use sya_delta::RowOp;
use sya_serve::{RawRowUpdate, ServeState, ServingKb};

/// Offered reads per second.
const READ_RATE: f64 = 100.0;

/// Offered writes per second.
const WRITE_RATE: f64 = 0.5;

/// Set-ups per run, each with a full construction; `setup_s` and
/// `construct_s` are their medians. A build's time varies by a fifth
/// from one to the next, so the median needs several.
const SETUP_REPS: usize = 5;

/// Direct `ServingKb::marginal` calls timed by the traced run.
const DIRECT_LOOKUPS: usize = 2000;

/// `(live variables, live logical factors, live spatial factors)`.
type LiveShape = (usize, usize, usize);

fn live_shape(state: &ServeState) -> LiveShape {
    state
        .with_kb(|kb| {
            let g = &kb.grounding.graph;
            (
                g.num_live_variables(),
                g.num_live_factors(),
                g.num_live_spatial_factors(),
            )
        })
        .expect("a full-mode state holds a KB")
}

pub fn run(r: &mut Run) -> Result<(), String> {
    let dataset = inputs::dataset();
    let config = inputs::sya_config(r.seed);
    construct::record_config(r, &config);
    let evidence = inputs::evidence_map(&dataset);
    let ev_fn = inputs::evidence_fn(&dataset.evidence);
    let ids = inputs::all_ids(&dataset);
    let mut wells_rng = inputs::rng(r.seed, 8);
    let warmup_well = inputs::synthetic_well(&dataset, &ids, 0, &mut wells_rng);

    let csv = inputs::wells_csv(&dataset);
    let mut setups = Vec::new();
    let mut builds = Vec::new();
    let mut live = None;
    for _ in 0..SETUP_REPS {
        if let Some(server) = live.take() {
            serving::stop(server)?;
        }
        // `sya serve` observes its session too, so delta counters reach
        // `/metrics`.
        let obs = Obs::enabled();
        let t = Instant::now();
        let session = SyaSession::new_with_obs(
            &dataset.program,
            dataset.constants.clone(),
            dataset.metric,
            config.clone(),
            obs.clone(),
        )
        .map_err(|e| e.to_string())?;
        let mut db = inputs::load_tables(&session, &csv)?;
        let tc = Instant::now();
        let kb = session
            .construct(&mut db, &ev_fn)
            .map_err(|e| e.to_string())?;
        builds.push(tc.elapsed().as_secs_f64());
        let state = ServingKb::with_live(session, kb, db, evidence.clone(), obs)
            .map_err(|e| e.to_string())?;
        // Warm-up in process: one read and one insert and retract pair.
        state
            .marginal(RELATION, ids[0])
            .ok_or("warm-up read found no atom")?;
        for op in [RowOp::Insert, RowOp::Retract] {
            let row = warmup_well
                .as_array()
                .expect("a well is a JSON array")
                .clone();
            let update = RawRowUpdate {
                op,
                relation: "Well".into(),
                row,
            };
            state
                .apply_rows(&[update])
                .map_err(|e| format!("warm-up write: {e}"))?;
        }
        let server = serving::start(state, r.nproc)?;
        setups.push(t.elapsed().as_secs_f64());
        live = Some(server);
    }
    let server = live.expect("at least one set-up");
    r.report.set("setup_s", median(&setups));
    r.report.set("construct_s", median(&builds));
    r.report.record("build_seconds", format!("{builds:.3?}"));
    r.report.record("setup_seconds", format!("{setups:.3?}"));
    r.report.ops(builds.len() as u64, 0);
    if r.tracer.enabled() {
        trace_compile(r, &dataset);
    }
    let addr = server.local_addr();
    let state = server.state().clone();
    let shape_before = live_shape(&state);
    let epoch_before = state.epoch();

    // Writes come in insert and retract pairs; the generator sends them
    // in plan order, so a retract never overtakes its insert.
    let window = Duration::from_secs_f64(r.seconds);
    let read_ids = inputs::uniform_ids(
        &ids,
        (READ_RATE * r.seconds * 2.0) as usize,
        &mut inputs::rng(r.seed, 9),
    );
    let (mut plan, _) = load::read_plan(
        &read_ids,
        READ_RATE,
        window,
        &mut inputs::rng(r.seed, 11),
        RELATION,
    );
    // Writes are a steady trickle, evenly spaced from a seeded phase.
    let mut phase = inputs::rng(r.seed, 12);
    let offset: f64 = phase.gen_range(0.0..1.0 / WRITE_RATE);
    let n_writes = ((r.seconds - offset) * WRITE_RATE) as usize / 2 * 2;
    let write_times: Vec<Duration> = (0..n_writes)
        .map(|i| Duration::from_secs_f64(offset + i as f64 / WRITE_RATE))
        .collect();
    for (k, pair) in write_times.chunks(2).enumerate() {
        let well = inputs::synthetic_well(&dataset, &ids, k + 1, &mut wells_rng);
        let key = well[0].as_i64().expect("synthetic well id");
        for (&at, op) in pair.iter().zip(["insert", "retract"]) {
            let raw = load::post_json("/v1/rows", &inputs::rows_body(op, &well));
            plan.push(Planned {
                at,
                kind: Kind::Write,
                key,
                raw,
            });
        }
    }
    plan.sort_by_key(|p| p.at);
    let writes = write_times.len();

    let before = load::scrape(addr);
    let replies = load::run(addr, &plan, r.nproc, &r.tracer, 0);
    let after = load::scrape(addr);
    r.report.set("peak_rss_mb", peak_rss_mb());
    serving::report_replies(&mut r.report, &replies);
    serving::check_reads(&mut r.report, &replies, None);
    serving::report_server_time(&mut r.report, &replies, &before, &after);

    let accepted = replies
        .iter()
        .filter(|x| x.kind == Kind::Write && x.ok())
        .count() as u64;
    let shape_after = live_shape(&state);
    r.report.check(
        "live counts back to the start after paired writes",
        shape_after == shape_before,
        format!("before {shape_before:?}, after {shape_after:?}"),
    );
    let epoch_after = state.epoch();
    r.report.check(
        "epoch advanced once per accepted write",
        epoch_after - epoch_before == accepted,
        format!("epoch {epoch_before} -> {epoch_after}, {accepted} writes accepted of {writes}"),
    );
    report_layers(r, &replies, &before, &after, &state, &ids);
    drop(state);
    serving::stop(server)
}

/// `delta` from the write replies and `/metrics`, `fg` from the graph
/// at the end, and, traced, `serve` lookups called directly.
fn report_layers(
    r: &mut Run,
    replies: &[load::Reply],
    before: &std::collections::HashMap<String, f64>,
    after: &std::collections::HashMap<String, f64>,
    state: &ServeState,
    ids: &[i64],
) {
    let field = |body: &str, key: &str| -> Option<f64> {
        serde_json::from_str::<serde_json::Value>(body)
            .ok()?
            .get(key)?
            .as_f64()
    };
    let writes: Vec<&load::Reply> = replies
        .iter()
        .filter(|x| x.kind == Kind::Write && x.ok())
        .collect();
    let apply: Vec<f64> = writes
        .iter()
        .filter_map(|w| field(&w.body, "apply_seconds"))
        .collect();
    let infer: Vec<f64> = writes
        .iter()
        .filter_map(|w| field(&w.body, "infer_seconds"))
        .collect();
    let resampled: Vec<f64> = writes
        .iter()
        .filter_map(|w| field(&w.body, "resampled"))
        .collect();
    r.report.set("delta.apply_p50_s", percentile(&apply, 50.0));
    r.report.set("delta.apply_p99_s", percentile(&apply, 99.0));
    r.report.set("delta.infer_p50_s", percentile(&infer, 50.0));
    r.report.set("delta.infer_p99_s", percentile(&infer, 99.0));
    r.report.set("delta.resampled", median(&resampled));
    r.report.set(
        "delta.touched",
        load::delta(before, after, "sya_delta_vars_touched_total") / writes.len().max(1) as f64,
    );
    report_store(&mut r.report, |name| {
        load::delta(before, after, &format!("sya_{}", name.replace('.', "_")))
    });
    let (live, total) = state
        .with_kb(|kb| {
            let g = &kb.grounding.graph;
            (
                g.num_live_factors() + g.num_live_spatial_factors(),
                g.num_factors() + g.num_spatial_factors(),
            )
        })
        .expect("a full-mode state holds a KB");
    r.report.set("fg.live_factors", live as f64);
    r.report.set("fg.tombstoned_factors", (total - live) as f64);

    if let (true, ServeState::Single(kb)) = (r.tracer.enabled(), state) {
        let lookups = inputs::uniform_ids(ids, DIRECT_LOOKUPS, &mut inputs::rng(r.seed, 10));
        for (i, &id) in lookups.iter().enumerate() {
            let found = r
                .tracer
                .span("serve.marginal", None, 2_000_000 + i as u64, || {
                    kb.marginal(RELATION, id).is_some()
                });
            r.report.ops(1, u64::from(!found));
        }
        r.report.set(
            "serve.lookup_s",
            median(&r.tracer.durations("serve.marginal")),
        );
    }
}
