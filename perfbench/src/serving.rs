//! What the serving workloads share: starting and stopping an
//! in-process server, and turning replies into metrics and checks.

use crate::load::{self, Kind, Reply};
use crate::report::{percentile, Report};
use std::collections::HashMap;
use std::time::Duration;
use sya_serve::{ServeConfig, ServeState, SyaServer};

/// A request that failed or was refused counts as taking this long, so
/// it misses every latency limit.
const FAILED_LATENCY_MS: f64 = 10_000.0;

/// A run whose generator sent its p99 request later than this after it
/// was due and its lane free did not offer the planned load: invalid.
pub const LAG_BOUND_MS: f64 = 50.0;

pub fn start(state: impl Into<ServeState>, workers: usize) -> Result<SyaServer, String> {
    let cfg = ServeConfig {
        listen: "127.0.0.1:0".into(),
        workers,
        ..ServeConfig::default()
    };
    SyaServer::start(state, cfg).map_err(|e| e.to_string())
}

pub fn stop(server: SyaServer) -> Result<(), String> {
    server
        .shutdown(Duration::from_secs(10))
        .map_err(|e| e.to_string())
}

/// The `score` field of a marginal answer.
pub fn score(body: &str) -> Option<f64> {
    serde_json::from_str::<serde_json::Value>(body)
        .ok()?
        .get("score")?
        .as_f64()
}

fn latencies_ms(replies: &[Reply], kind: Kind) -> Vec<f64> {
    replies
        .iter()
        .filter(|r| r.kind == kind)
        .map(|r| {
            if r.ok() {
                r.latency_ms()
            } else {
                FAILED_LATENCY_MS
            }
        })
        .collect()
}

/// Counts the replies as operations and reports read latency, the
/// generator lag, and whether the generator kept to its schedule.
pub fn report_replies(report: &mut Report, replies: &[Reply]) {
    let failed = replies.iter().filter(|r| !r.ok()).count();
    report.ops(replies.len() as u64, failed as u64);
    let reads = latencies_ms(replies, Kind::Read);
    report.set("read_p50_ms", percentile(&reads, 50.0));
    report.set("read_p99_ms", percentile(&reads, 99.0));
    report.record("reads", reads.len());
    let writes = latencies_ms(replies, Kind::Write);
    if !writes.is_empty() {
        report.set("write_p50_ms", percentile(&writes, 50.0));
        report.set("write_p90_ms", percentile(&writes, 90.0));
        report.record("writes", writes.len());
    }
    let lags: Vec<f64> = replies.iter().map(|r| r.lag.as_secs_f64() * 1e3).collect();
    let lag_p99 = percentile(&lags, 99.0);
    report.set("load.lag_p99_ms", lag_p99);
    report.check(
        "load generator kept its schedule",
        lag_p99 <= LAG_BOUND_MS,
        format!("p99 send lag {lag_p99:.2} ms, bound {LAG_BOUND_MS} ms"),
    );
}

/// Every read answered 200 with a score in [0, 1], equal to `expected`
/// where given (the server prints six decimals).
pub fn check_reads(report: &mut Report, replies: &[Reply], expected: Option<&HashMap<i64, f64>>) {
    let mut bad = Vec::new();
    for r in replies.iter().filter(|r| r.kind == Kind::Read) {
        let s = score(&r.body);
        let ok = r.ok()
            && s.is_some_and(|s| {
                (0.0..=1.0).contains(&s)
                    && expected.is_none_or(|e| e.get(&r.key).is_some_and(|x| (x - s).abs() < 1e-6))
            });
        if !ok && bad.len() < 3 {
            bad.push(format!("id {} -> {} {:?}", r.key, r.status, r.body));
        }
    }
    report.check(
        "every read answered with a score in [0,1]",
        bad.is_empty(),
        bad.join("; "),
    );
}

/// Server-side request time from `/metrics` and the client's overhead on
/// top of it (connect and queue wait), both as means over the phase.
pub fn report_server_time(
    report: &mut Report,
    replies: &[Reply],
    before: &HashMap<String, f64>,
    after: &HashMap<String, f64>,
) {
    let n = load::delta(before, after, "sya_serve_request_seconds_count");
    let server = if n > 0.0 {
        load::delta(before, after, "sya_serve_request_seconds_sum") / n
    } else {
        0.0
    };
    let client: Vec<f64> = replies.iter().map(|r| r.service.as_secs_f64()).collect();
    let client_mean = client.iter().sum::<f64>() / client.len().max(1) as f64;
    report.set("serve.request_s", server);
    report.set("serve.overhead_s", client_mean - server);
    report.set(
        "serve.shed",
        ["queue_full", "deadline", "inflight"]
            .iter()
            .map(|k| {
                load::delta(
                    before,
                    after,
                    &format!("sya_serve_admission_shed_{k}_total"),
                )
            })
            .sum(),
    );
}
