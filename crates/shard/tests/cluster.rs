//! Integration tests for the supervised shard cluster.
//!
//! Workers run as threads ([`ThreadLauncher`]) but speak the real TCP
//! wire protocol to a real coordinator — the full supervision machinery
//! (heartbeats, rollback, restart-from-checkpoint, degraded loss) minus
//! process management, which `ci.sh`'s chaos smoke covers end to end.

use std::path::PathBuf;
use std::time::Duration;

use sya_fg::FactorGraph;
use sya_ground::pyramid_cell_map;
use sya_infer::{InferConfig, PyramidIndex};
use sya_runtime::{Backoff, ExecContext, FaultPlan, RunOutcome};
use sya_shard::{
    run_cluster, run_sharded, ClusterConfig, ShardCkptOptions, ShardPlan, ShardRunReport,
    ThreadLauncher,
};

fn cfg(epochs: usize) -> InferConfig {
    InferConfig {
        epochs,
        burn_in: (epochs / 10).max(1),
        levels: 2,
        locality_level: 2,
        seed: 42,
        ..Default::default()
    }
}

fn plan_for(graph: &FactorGraph, shards: usize) -> ShardPlan {
    let cells = pyramid_cell_map(graph, 1);
    ShardPlan::build(graph, &cells, shards, 1)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sya_cluster_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A quick supervision config: short heartbeat and backoff so failure
/// paths resolve in milliseconds, not the production defaults.
fn quick_cluster() -> ClusterConfig {
    ClusterConfig {
        listen: "127.0.0.1:0".to_owned(),
        heartbeat: Duration::from_millis(500),
        backoff: Backoff::new(Duration::from_millis(50), Duration::from_millis(200)),
        restart_budget: 2,
    }
}

fn run_cluster_with(
    graph: &FactorGraph,
    plan: &ShardPlan,
    cfg: &InferConfig,
    ckpt: &ShardCkptOptions,
    cluster: &ClusterConfig,
    faults: FaultPlan,
) -> ShardRunReport {
    let launcher = ThreadLauncher {
        graph: graph.clone(),
        plan: plan.clone(),
        cfg: cfg.clone(),
        ckpt: ckpt.clone(),
        retire: None,
        faults,
        read_timeout: Duration::from_secs(10),
    };
    run_cluster(graph, plan, cfg, ckpt, cluster, &launcher, None, &ExecContext::unbounded())
        .expect("cluster run")
}

fn reference_counts(graph: &FactorGraph, plan: &ShardPlan, cfg: &InferConfig) -> ShardRunReport {
    let pyramid = PyramidIndex::build(graph, cfg.levels, cfg.cell_capacity);
    run_sharded(
        graph,
        &pyramid,
        plan,
        cfg,
        None,
        &ShardCkptOptions::default(),
        &ExecContext::unbounded(),
    )
    .expect("in-process reference run")
}

#[test]
fn cluster_counts_match_the_in_process_executor_bitwise() {
    let g = FactorGraph::lattice(4, 0.8, true);
    let cfg = cfg(120);
    let plan = plan_for(&g, 2);
    let reference = reference_counts(&g, &plan, &cfg);

    let report = run_cluster_with(
        &g,
        &plan,
        &cfg,
        &ShardCkptOptions::default(),
        &quick_cluster(),
        FaultPlan::none(),
    );
    assert_eq!(report.outcome, RunOutcome::Completed);
    assert_eq!(
        report.counts, reference.counts,
        "socket halo exchange must reproduce the in-process merged counts exactly"
    );
    assert!(report.health.iter().all(|h| !h.lost && h.restarts == 0), "{:?}", report.health);
    assert_eq!(report.epochs_run, 120);
}

#[test]
fn killed_worker_is_restarted_from_checkpoint_and_counts_stay_bit_identical() {
    let g = FactorGraph::lattice(4, 0.8, true);
    let cfg = cfg(60);
    let plan = plan_for(&g, 2);
    let reference = reference_counts(&g, &plan, &cfg);

    let dir = temp_dir("kill");
    let ckpt = ShardCkptOptions { dir: Some(dir.clone()), every: 5, resume: false };
    let faults = FaultPlan { kill_worker: Some((1, 30)), ..FaultPlan::none() };
    let report = run_cluster_with(&g, &plan, &cfg, &ckpt, &quick_cluster(), faults);

    assert_eq!(report.outcome, RunOutcome::Completed, "warnings: {:?}", report.warnings);
    assert!(
        report.health[1].restarts >= 1,
        "shard 1 must have been restarted: {:?}",
        report.health
    );
    assert!(!report.health.iter().any(|h| h.lost), "{:?}", report.health);
    assert_eq!(
        report.counts, reference.counts,
        "replay from the rendezvous checkpoint must be bit-identical to an \
         uninterrupted run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn killed_worker_without_checkpoints_replays_from_scratch_bit_identically() {
    let g = FactorGraph::lattice(3, 0.8, true);
    let cfg = cfg(40);
    let plan = plan_for(&g, 2);
    let reference = reference_counts(&g, &plan, &cfg);

    // No checkpoint store: the rendezvous finds no common epoch and the
    // fleet replays from 0 — slower, still deterministic.
    let faults = FaultPlan { kill_worker: Some((0, 20)), ..FaultPlan::none() };
    let report = run_cluster_with(
        &g,
        &plan,
        &cfg,
        &ShardCkptOptions::default(),
        &quick_cluster(),
        faults,
    );
    assert_eq!(report.outcome, RunOutcome::Completed, "warnings: {:?}", report.warnings);
    assert!(report.health[0].restarts >= 1, "{:?}", report.health);
    assert_eq!(report.counts, reference.counts);
}

#[test]
fn exhausted_restart_budget_degrades_instead_of_failing() {
    let g = FactorGraph::lattice(4, 0.8, true);
    let cfg = cfg(60);
    let plan = plan_for(&g, 2);

    let dir = temp_dir("budget");
    let ckpt = ShardCkptOptions { dir: Some(dir.clone()), every: 5, resume: false };
    let cluster = ClusterConfig { restart_budget: 0, ..quick_cluster() };
    let faults = FaultPlan { kill_worker: Some((1, 30)), ..FaultPlan::none() };
    let report = run_cluster_with(&g, &plan, &cfg, &ckpt, &cluster, faults);

    assert_eq!(report.outcome, RunOutcome::Degraded, "warnings: {:?}", report.warnings);
    assert!(report.health[1].lost, "shard 1 must be reported lost: {:?}", report.health);
    assert_eq!(report.health[1].label(), "lost");
    assert!(!report.health[0].lost);
    assert!(
        report.warnings.iter().any(|w| w.contains("lost")),
        "warnings must name the lost shard: {:?}",
        report.warnings
    );
    // The lost shard's counts were recovered from its newest checkpoint,
    // so the merged marginals still cover the whole graph.
    assert!((0..g.num_variables() as u32).all(|v| report.counts.total_samples(v) > 0));
    assert!(
        report.warnings.iter().any(|w| w.contains("recovered from its checkpoint")),
        "recovery from the dead shard's checkpoint must be reported: {:?}",
        report.warnings
    );
    // The healthy shard ran to the end.
    assert_eq!(report.epochs_run, 60);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stalled_worker_trips_the_heartbeat_and_the_run_terminates() {
    let g = FactorGraph::lattice(3, 0.8, true);
    let cfg = cfg(40);
    let plan = plan_for(&g, 2);

    let dir = temp_dir("stall");
    let ckpt = ShardCkptOptions { dir: Some(dir.clone()), every: 5, resume: false };
    // Stall for 4× the heartbeat: the coordinator must declare the
    // worker failed and restart it rather than wait forever.
    let faults = FaultPlan {
        stall_worker: Some((1, 10, Duration::from_secs(2))),
        ..FaultPlan::none()
    };
    let report = run_cluster_with(&g, &plan, &cfg, &ckpt, &quick_cluster(), faults);

    assert!(
        matches!(report.outcome, RunOutcome::Completed | RunOutcome::Degraded),
        "a stall must end in Completed or Degraded, got {:?} ({:?})",
        report.outcome,
        report.warnings
    );
    assert!(report.health[1].restarts >= 1, "{:?}", report.health);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_frame_is_rejected_and_the_worker_restarted() {
    let g = FactorGraph::lattice(3, 0.8, true);
    let cfg = cfg(40);
    let plan = plan_for(&g, 2);
    let reference = reference_counts(&g, &plan, &cfg);

    let dir = temp_dir("corrupt");
    let ckpt = ShardCkptOptions { dir: Some(dir.clone()), every: 5, resume: false };
    let faults = FaultPlan { corrupt_frame: Some((1, 10)), ..FaultPlan::none() };
    let report = run_cluster_with(&g, &plan, &cfg, &ckpt, &quick_cluster(), faults);

    assert_eq!(report.outcome, RunOutcome::Completed, "warnings: {:?}", report.warnings);
    assert!(report.health[1].restarts >= 1, "{:?}", report.health);
    assert_eq!(
        report.counts, reference.counts,
        "recovery from a corrupt frame must not change the marginals"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Raw HTTP GET against the status board (tests avoid an HTTP client
/// dependency just like `ci.sh` does with /dev/tcp).
fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    use std::io::{Read, Write};
    let mut c = std::net::TcpStream::connect(addr).expect("connect status board");
    c.write_all(format!("GET {path} HTTP/1.0\r\nHost: x\r\n\r\n").as_bytes())
        .expect("send request");
    let mut raw = String::new();
    c.read_to_string(&mut raw).expect("read response");
    raw.split_once("\r\n\r\n").map(|(_, body)| body.to_owned()).unwrap_or(raw)
}

#[test]
fn status_board_fleet_metrics_match_the_per_shard_reports() {
    let g = FactorGraph::lattice(4, 0.8, true);
    let cfg = cfg(60);
    let plan = plan_for(&g, 2);
    let status = sya_shard::StatusServer::start("127.0.0.1:0").expect("status server");
    let launcher = ThreadLauncher {
        graph: g.clone(),
        plan: plan.clone(),
        cfg: cfg.clone(),
        ckpt: ShardCkptOptions::default(),
        retire: None,
        faults: FaultPlan::none(),
        read_timeout: Duration::from_secs(10),
    };
    let report = run_cluster(
        &g,
        &plan,
        &cfg,
        &ShardCkptOptions::default(),
        &quick_cluster(),
        &launcher,
        Some(&status),
        &ExecContext::unbounded(),
    )
    .expect("cluster run");
    assert_eq!(report.outcome, RunOutcome::Completed, "{:?}", report.warnings);

    // The coordinator-aggregated counters must equal the sums of the
    // authoritative in-process per-shard counts from the Done reports.
    let body = http_get(status.addr(), "/metrics");
    for (w, stats) in report.per_shard.iter().enumerate() {
        let labelled =
            format!("sya_infer_shard_samples_total{{shard=\"{w}\"}} {}", stats.samples_total);
        assert!(body.contains(&labelled), "missing `{labelled}` in:\n{body}");
        let flips = format!("sya_infer_shard_flips_total{{shard=\"{w}\"}} {}", stats.flips_total);
        assert!(body.contains(&flips), "missing `{flips}` in:\n{body}");
    }
    let fleet_samples: u64 = report.per_shard.iter().map(|s| s.samples_total).sum();
    let rollup = format!("sya_fleet_infer_shard_samples_total {fleet_samples}");
    assert!(body.contains(&rollup), "missing `{rollup}` in:\n{body}");

    // Drift and staleness gauges carry per-shard labels; the run is
    // identified for cross-process trace stitching.
    for w in 0..2 {
        assert!(body.contains(&format!("sya_shard_max_delta{{shard=\"{w}\"}}")), "{body}");
        assert!(
            body.contains(&format!("sya_fleet_shard_staleness_epochs{{shard=\"{w}\"}}")),
            "{body}"
        );
    }
    assert!(body.contains("sya_fleet_run_info{run_id=\"0x"), "{body}");
    assert!(body.contains("sya_fleet_shards_reporting 2"), "{body}");

    // The JSON view is served on /fleet and `/` stays the healthz board.
    let fleet_json = http_get(status.addr(), "/fleet");
    assert!(fleet_json.contains("\"schema\": \"sya.fleet.v1\""), "{fleet_json}");
    assert!(fleet_json.contains("\"infer.shard.samples_total\""), "{fleet_json}");
    let root = http_get(status.addr(), "/");
    assert!(root.contains("\"done\":true"), "{root}");
}
