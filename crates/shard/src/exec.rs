//! The sharded executor: one sampler thread per shard over a shared
//! assignment board, synchronized at epoch/phase barriers.
//!
//! ## Halo exchange at epoch barriers
//!
//! Every epoch follows the global phase schedule
//! ([`ShardSchedule`](sya_infer::ShardSchedule)). Within a phase each
//! shard samples only variables it owns, reading neighbour states —
//! owned and halo alike — from the board as frozen at the phase start,
//! and buffering its writes. A barrier ends the sampling half; then
//! every shard publishes its buffered writes (the halo exchange: the
//! publish is what makes a shard's new states visible as its
//! neighbours' halos) and a second barrier opens the next phase. Because
//! draws use per-`(seed, epoch, pass, variable)` derived RNG streams and all
//! conditionals see the same frozen board, the merged marginals are
//! bit-identical for every shard count.
//!
//! ## Retirement (convergence-based early stop)
//!
//! With a [`RetirePolicy`], a shard whose per-epoch running-marginal
//! delta over owned variables stays under `tol` for `window`
//! consecutive recorded epochs *retires*: it stops sampling (freezing
//! its variables for the neighbours, bounded staleness) but keeps
//! crossing barriers. When every shard has retired the run ends early.
//! Retirement is off for `sya run` — it trades exact parity for
//! wall-time — and on for the scaling bench.
//!
//! ## Checkpoints
//!
//! Shards run in lockstep, so the per-shard checkpoint stores
//! (`<dir>/shard-NN/`) all save at the same epochs; a
//! `shard-manifest.json` beside them ties the set together. Resume
//! loads the newest epoch present and valid in *every* store.

use crate::plan::ShardPlan;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::Barrier;
use sya_ckpt::CheckpointStore;
use sya_fg::FactorGraph;
use sya_infer::{
    init_board, pseudo_log_likelihood, ChainState, CheckpointState, InferConfig, InferError,
    MarginalCounts, PyramidIndex, ShardChain, ShardSchedule,
};
use sya_obs::{pll_stride, ConvergenceSeries, Obs};
use sya_runtime::{ExecContext, Phase, RunOutcome};

/// Convergence-based early-stop policy for sharded runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetirePolicy {
    /// A shard may retire once its epoch delta (`max |p_t − p_{t−1}|`
    /// over owned variables) stays under this.
    pub tol: f64,
    /// … for this many consecutive recorded epochs.
    pub window: usize,
    /// Absolute epoch floor before retirement is considered (burn-in is
    /// always respected on top of this).
    pub min_epoch: usize,
    /// Refuse to retire while the shard's boundary-exposed marginals
    /// have drifted more than `tol` since the quiet streak began (the
    /// staleness the neighbours would inherit). Off by default: a
    /// refused retirement resets the streak, trading wall-time for a
    /// bounded halo error.
    pub strict: bool,
}

impl Default for RetirePolicy {
    fn default() -> Self {
        RetirePolicy { tol: 2e-3, window: 8, min_epoch: 0, strict: false }
    }
}

/// Checkpoint wiring of a sharded run.
#[derive(Debug, Clone, Default)]
pub struct ShardCkptOptions {
    /// Root checkpoint directory; per-shard stores go to
    /// `<dir>/shard-NN/`. `None` disables checkpointing.
    pub dir: Option<PathBuf>,
    /// Save every `every` epochs; `0` saves only the final barrier.
    pub every: usize,
    /// Attempt to resume from existing per-shard checkpoints.
    pub resume: bool,
}

/// The manifest tying a set of per-shard checkpoint stores together.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq, Eq)]
pub struct ShardManifest {
    pub schema: String,
    pub shards: usize,
    pub partition_level: u8,
    pub fingerprint: u64,
    /// Store subdirectory names, in shard order.
    pub stores: Vec<String>,
}

/// File name of the manifest inside the checkpoint root.
pub const MANIFEST_FILE: &str = "shard-manifest.json";

pub const MANIFEST_SCHEMA: &str = "sya.shard.manifest.v1";

impl ShardManifest {
    pub fn new(plan: &ShardPlan, fingerprint: u64) -> Self {
        ShardManifest {
            schema: MANIFEST_SCHEMA.to_owned(),
            shards: plan.shards,
            partition_level: plan.partition_level,
            fingerprint,
            stores: (0..plan.shards).map(store_name).collect(),
        }
    }

    pub fn write(&self, dir: &Path) -> Result<(), String> {
        let text = serde_json::to_string_pretty(self).map_err(|e| e.to_string())?;
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        std::fs::write(dir.join(MANIFEST_FILE), text).map_err(|e| e.to_string())
    }

    pub fn read(dir: &Path) -> Result<ShardManifest, String> {
        let text = std::fs::read_to_string(dir.join(MANIFEST_FILE)).map_err(|e| e.to_string())?;
        serde_json::from_str(&text).map_err(|e| e.to_string())
    }
}

/// Name of shard `shard`'s checkpoint store subdirectory.
pub fn store_name(shard: usize) -> String {
    format!("shard-{shard:02}")
}

/// Per-shard outcome of a sharded run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardStats {
    pub shard: usize,
    pub owned_vars: usize,
    pub halo_vars: usize,
    pub boundary_factors: usize,
    pub halo_bytes: usize,
    /// Epochs this shard actively sampled (excludes retired epochs).
    pub epochs_sampled: usize,
    /// Epoch the shard retired at, if it did.
    pub retired_at: Option<usize>,
    /// Drift of the boundary-exposed running marginals over the quiet
    /// window at retirement — the staleness bound the neighbours'
    /// frozen halos inherit. `None` when the shard never retired.
    #[serde(default)]
    pub retire_halo_delta: Option<f64>,
    /// The shard retired with `retire_halo_delta` above the tolerance
    /// (possible only when [`RetirePolicy::strict`] is off).
    #[serde(default)]
    pub retired_above_tol: bool,
    pub flips_total: u64,
    pub samples_total: u64,
}

/// Supervision health of one shard at the end of a run.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq, Eq)]
pub struct ShardHealth {
    pub shard: usize,
    /// Worker restarts consumed (always 0 for in-process runs).
    pub restarts: usize,
    /// The shard exhausted its restart budget; its last published halo
    /// state was frozen for the remainder of the run.
    pub lost: bool,
}

impl ShardHealth {
    pub fn healthy(shard: usize) -> Self {
        ShardHealth { shard, restarts: 0, lost: false }
    }

    /// Short human label used by healthz and run summaries.
    pub fn label(&self) -> &'static str {
        if self.lost {
            "lost"
        } else if self.restarts > 0 {
            "restarted"
        } else {
            "healthy"
        }
    }
}

/// Result of a sharded inference run: merged marginals plus the
/// per-shard breakdown the bench and the router report on.
#[derive(Debug)]
pub struct ShardRunReport {
    /// Marginal counts merged over all shards — shaped exactly like a
    /// single-sampler result.
    pub counts: MarginalCounts,
    pub outcome: RunOutcome,
    pub warnings: Vec<String>,
    /// Mean-merged convergence trajectory across shards.
    pub telemetry: ConvergenceSeries,
    pub per_shard: Vec<ShardStats>,
    /// Per-shard supervision health — all-healthy for in-process runs;
    /// cluster runs record restarts and lost shards here.
    pub health: Vec<ShardHealth>,
    /// Each shard's own counts (zero rows outside its ownership class)
    /// — what the ownership tests assert on.
    pub per_shard_counts: Vec<MarginalCounts>,
    /// Epochs actually executed before the run ended (equals
    /// `cfg.epochs` unless every shard retired or the run was
    /// interrupted).
    pub epochs_run: usize,
}

/// Encodes an interruption outcome into the shared stop flag (0 = keep
/// running) so one shard's decision reaches all shards at a barrier.
fn encode_stop(o: RunOutcome) -> u32 {
    match o {
        RunOutcome::Completed => 0,
        RunOutcome::Degraded => 1,
        RunOutcome::TimedOut => 2,
        RunOutcome::Cancelled => 3,
    }
}

fn decode_stop(code: u32) -> Option<RunOutcome> {
    match code {
        1 => Some(RunOutcome::Degraded),
        2 => Some(RunOutcome::TimedOut),
        3 => Some(RunOutcome::Cancelled),
        _ => None,
    }
}

struct ShardLocal {
    stats: ShardStats,
    counts: MarginalCounts,
    series: ConvergenceSeries,
    warnings: Vec<String>,
    outcome: RunOutcome,
}

/// Opens the per-shard checkpoint stores and, when resuming, finds the
/// newest epoch valid in every store. Returns the stores, the common
/// resume state (board + per-shard chains), and any warnings.
#[allow(clippy::type_complexity)]
fn prepare_shard_ckpt(
    graph: &FactorGraph,
    plan: &ShardPlan,
    ckpt: &ShardCkptOptions,
    warnings: &mut Vec<String>,
) -> Result<(Vec<Option<CheckpointStore>>, Option<(usize, Vec<ChainState>)>), InferError> {
    let Some(dir) = ckpt.dir.as_ref() else {
        return Ok(((0..plan.shards).map(|_| None).collect(), None));
    };
    let fingerprint = graph.fingerprint();
    let mut stores = Vec::with_capacity(plan.shards);
    for s in 0..plan.shards {
        let store = CheckpointStore::create(dir.join(store_name(s)), fingerprint)
            .map_err(|e| InferError::BadResume { detail: e.to_string() })?;
        stores.push(Some(store));
    }
    if ckpt.resume {
        match ShardManifest::read(dir) {
            Ok(m) if m.shards != plan.shards => {
                warnings.push(format!(
                    "shard manifest describes {} shards, run configures {}; starting fresh",
                    m.shards, plan.shards
                ));
                let manifest = ShardManifest::new(plan, fingerprint);
                manifest.write(dir).map_err(|e| InferError::BadResume { detail: e })?;
                return Ok((stores, None));
            }
            Ok(_) => {}
            Err(e) => {
                warnings.push(format!("no usable shard manifest ({e}); starting fresh"));
            }
        }
    }
    let manifest = ShardManifest::new(plan, fingerprint);
    manifest.write(dir).map_err(|e| InferError::BadResume { detail: e })?;
    if !ckpt.resume {
        return Ok((stores, None));
    }

    // Collect every valid state per shard, keyed by epoch, then take the
    // newest epoch present everywhere — a crash mid-save-wave leaves the
    // newest wave incomplete, in which case the previous wave wins.
    let mut per_shard: Vec<std::collections::BTreeMap<u64, ChainState>> = Vec::new();
    for (s, store) in stores.iter().enumerate() {
        let store = store.as_ref().unwrap();
        let mut valid = std::collections::BTreeMap::new();
        let files = store.list().map_err(|e| InferError::BadResume { detail: e.to_string() })?;
        for path in files {
            match store.load_file(&path) {
                Ok(CheckpointState::Shard { shard, of, chain })
                    if shard as usize == s && of as usize == plan.shards =>
                {
                    if chain.clone().restore(graph).is_ok() {
                        valid.insert(chain.epoch, chain);
                    } else {
                        warnings.push(format!(
                            "shard {s}: skipping checkpoint {} (graph mismatch)",
                            path.display()
                        ));
                    }
                }
                Ok(other) => warnings.push(format!(
                    "shard {s}: skipping {} ({} state does not fit shard {s}/{})",
                    path.display(),
                    other.kind(),
                    plan.shards
                )),
                Err(e) => warnings.push(format!("shard {s}: skipping checkpoint: {e}")),
            }
        }
        per_shard.push(valid);
    }
    let common = per_shard
        .iter()
        .map(|m| m.keys().copied().collect::<std::collections::BTreeSet<u64>>())
        .reduce(|a, b| a.intersection(&b).copied().collect())
        .unwrap_or_default();
    match common.last() {
        Some(&epoch) => {
            let chains: Vec<ChainState> = per_shard
                .iter_mut()
                .map(|m| m.remove(&epoch).unwrap())
                .collect();
            Ok((stores, Some((epoch as usize, chains))))
        }
        None => {
            if per_shard.iter().any(|m| !m.is_empty()) {
                warnings.push(
                    "no checkpoint epoch is present in every shard store; starting fresh"
                        .to_owned(),
                );
            }
            Ok((stores, None))
        }
    }
}

pub(crate) fn publish_static_gauges(obs: &Obs, plan: &ShardPlan) {
    obs.gauge_set("shard.count", plan.shards as f64);
    for s in plan.summaries() {
        obs.gauge_set(&format!("shard.{}.vars", s.shard), s.owned_vars as f64);
        obs.gauge_set(
            &format!("shard.{}.boundary_factors", s.shard),
            s.boundary_factors as f64,
        );
        obs.gauge_set(&format!("shard.{}.halo_bytes", s.shard), s.halo_bytes as f64);
    }
}

/// Runs sharded Spatial Gibbs: one thread per shard of `plan`, halo
/// exchange at phase barriers, optional retirement and per-shard
/// checkpoints. With `retire: None` the merged counts are bit-identical
/// for every shard count (including 1).
pub fn run_sharded(
    graph: &FactorGraph,
    pyramid: &PyramidIndex,
    plan: &ShardPlan,
    cfg: &InferConfig,
    retire: Option<RetirePolicy>,
    ckpt: &ShardCkptOptions,
    ctx: &ExecContext,
) -> Result<ShardRunReport, InferError> {
    let n = plan.shards;
    let epochs = cfg.epochs.max(1);
    let burn = cfg.burn_in.min(epochs.saturating_sub(1));
    let obs = ctx.obs();
    publish_static_gauges(obs, plan);

    let mut warnings = Vec::new();
    let (stores, resume) = prepare_shard_ckpt(graph, plan, ckpt, &mut warnings)?;

    let schedule = ShardSchedule::new(graph, pyramid, cfg, None);
    obs.gauge_set("shard.phases", schedule.len() as f64);

    let (start_epoch, board, resumed_chains) = match resume {
        Some((epoch, chains)) => {
            let mut restored = Vec::with_capacity(n);
            let mut board = None;
            for c in chains {
                let (_, assignment, _, counts, recorded) = c
                    .restore(graph)
                    .map_err(|detail| InferError::BadResume { detail })?;
                if board.is_none() {
                    board = Some(
                        assignment.iter().map(|&x| AtomicU32::new(x)).collect::<Vec<_>>(),
                    );
                }
                restored.push(Some((counts, recorded)));
            }
            warnings.push(format!("resumed all {n} shards from epoch {epoch}"));
            (epoch, board.unwrap(), restored)
        }
        None => (0, init_board(graph, cfg.seed, None), (0..n).map(|_| None).collect()),
    };

    let mut chains: Vec<ShardChain> = plan
        .owned
        .iter()
        .map(|o| ShardChain::new(graph, &schedule, cfg, o.clone()))
        .collect();
    for (chain, restored) in chains.iter_mut().zip(resumed_chains) {
        if let Some((counts, recorded)) = restored {
            chain.resume_counts(counts, recorded);
        }
    }
    if retire.is_some() {
        // Boundary-exposed set of shard i: its owned variables that some
        // other shard reads as halo (set_boundary drops foreign vars).
        for (i, chain) in chains.iter_mut().enumerate() {
            let exposed: Vec<_> = (0..n)
                .filter(|&s| s != i)
                .flat_map(|s| plan.interface.halo[s].iter().copied())
                .collect();
            chain.set_boundary(&exposed);
        }
    }

    let barrier = Barrier::new(n);
    let stop = AtomicU32::new(0);
    let retired = AtomicUsize::new(0);
    let retire_floor = retire.map(|p| p.min_epoch.max(burn));
    let stride = pll_stride(epochs);

    let locals: Vec<ShardLocal> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(n);
        for (i, (mut chain, store)) in chains.into_iter().zip(&stores).enumerate() {
            let barrier = &barrier;
            let stop = &stop;
            let retired = &retired;
            let schedule = &schedule;
            let board = &board;
            let store = store.as_ref();
            handles.push(scope.spawn(move || {
                let mut outcome = RunOutcome::Completed;
                let mut shard_warnings = Vec::new();
                let mut retired_at: Option<usize> = None;
                let mut retire_halo_delta: Option<f64> = None;
                let mut retired_above_tol = false;
                let mut strict_refusals = 0usize;
                let mut streak = 0usize;
                let mut epochs_sampled = 0usize;
                let mut epoch = start_epoch;
                let save = |chain: &ShardChain,
                            next_epoch: usize,
                            warnings: &mut Vec<String>,
                            outcome: &mut RunOutcome| {
                    let Some(store) = store else { return };
                    let state = CheckpointState::Shard {
                        shard: i as u64,
                        of: n as u64,
                        chain: chain.chain_state(next_epoch, board),
                    };
                    let result = if ctx.take_checkpoint_save_failure() {
                        Err("injected checkpoint save failure".to_owned())
                    } else {
                        store.save_state(&state).map(|_| ()).map_err(|e| e.to_string())
                    };
                    if let Err(e) = result {
                        warnings.push(format!("shard {i}: checkpoint save failed: {e}"));
                        *outcome = outcome.combine(RunOutcome::Degraded);
                    }
                };
                while epoch < epochs {
                    if i == 0 && epoch > start_epoch {
                        if let Some(o) = ctx.interrupted() {
                            stop.store(encode_stop(o), Ordering::Relaxed);
                        }
                    }
                    barrier.wait();
                    if let Some(o) = decode_stop(stop.load(Ordering::Relaxed)) {
                        outcome = outcome.combine(o);
                        break;
                    }
                    if i == 0 {
                        ctx.maybe_slow(Phase::Inference);
                    }
                    let record = epoch >= burn;
                    let active = retired_at.is_none();
                    for phase in 0..schedule.len() {
                        if active {
                            chain.sample_phase(board, phase, epoch, record);
                        }
                        barrier.wait();
                        if active {
                            chain.publish(board);
                        }
                        barrier.wait();
                    }
                    if active {
                        epochs_sampled += 1;
                        let delta = chain.end_epoch(board, record);
                        if let (Some(policy), Some(floor)) = (retire, retire_floor) {
                            if record && epoch >= floor && delta < policy.tol {
                                if streak == 0 {
                                    chain.snapshot_boundary();
                                }
                                streak += 1;
                                if streak >= policy.window {
                                    let halo_delta = chain.boundary_delta();
                                    if policy.strict && halo_delta > policy.tol {
                                        // Refused: the values neighbours
                                        // read have drifted too far over
                                        // the quiet window.
                                        strict_refusals += 1;
                                        streak = 0;
                                    } else {
                                        if halo_delta > policy.tol {
                                            retired_above_tol = true;
                                            let msg = format!(
                                                "shard {i}: retired at epoch {epoch} with \
                                                 boundary drift {halo_delta:.3e} above tol \
                                                 {:.3e}; neighbour halos inherit this staleness",
                                                policy.tol
                                            );
                                            ctx.obs().warn(msg.clone());
                                            shard_warnings.push(msg);
                                        }
                                        retire_halo_delta = Some(halo_delta);
                                        retired_at = Some(epoch);
                                        retired.fetch_add(1, Ordering::Relaxed);
                                    }
                                }
                            } else {
                                streak = 0;
                            }
                        }
                        if i == 0 && ctx.obs().is_enabled() && epoch.is_multiple_of(stride) {
                            let snapshot: Vec<u32> =
                                board.iter().map(|a| a.load(Ordering::Relaxed)).collect();
                            chain.record_pll(epoch, pseudo_log_likelihood(graph, &snapshot));
                        }
                    }
                    barrier.wait();
                    epoch += 1;
                    if retired.load(Ordering::Relaxed) == n {
                        break;
                    }
                    if store.is_some()
                        && ckpt.every > 0
                        && epoch < epochs
                        && epoch.is_multiple_of(ckpt.every)
                    {
                        save(&chain, epoch, &mut shard_warnings, &mut outcome);
                    }
                }
                save(&chain, epoch, &mut shard_warnings, &mut outcome);
                if !chain.has_recorded() {
                    chain.record_board_snapshot(board);
                    shard_warnings.push(format!(
                        "shard {i}: run ended before burn-in; marginals from a single snapshot"
                    ));
                    outcome = outcome.combine(RunOutcome::Degraded);
                }
                if strict_refusals > 0 {
                    shard_warnings.push(format!(
                        "shard {i}: strict retirement gating refused {strict_refusals} \
                         retirement attempt(s) on boundary drift"
                    ));
                }
                let owned_vars = chain.owned_vars();
                let (counts, series) = chain.finish();
                ShardLocal {
                    stats: ShardStats {
                        shard: i,
                        owned_vars,
                        halo_vars: plan.interface.halo[i].len(),
                        boundary_factors: plan.interface.boundary_per_shard[i],
                        halo_bytes: plan.interface.halo_bytes(i),
                        epochs_sampled,
                        retired_at,
                        retire_halo_delta,
                        retired_above_tol,
                        flips_total: series.flips_total,
                        samples_total: series.samples_total,
                    },
                    counts,
                    series,
                    warnings: shard_warnings,
                    outcome,
                }
            }));
        }
        handles.into_iter().map(|h| h.join().expect("shard thread panicked")).collect()
    });

    let mut total = MarginalCounts::new(graph);
    let mut outcome = RunOutcome::Completed;
    let mut per_shard = Vec::with_capacity(n);
    let mut per_shard_counts = Vec::with_capacity(n);
    let mut all_series = Vec::with_capacity(n);
    let mut epochs_run = 0usize;
    let mut max_halo_delta: Option<f64> = None;
    for local in locals {
        total.merge(&local.counts);
        outcome = outcome.combine(local.outcome);
        warnings.extend(local.warnings);
        epochs_run = epochs_run.max(start_epoch + local.series.epochs);
        local.series.publish(obs, &format!("shard.{}", local.stats.shard));
        obs.gauge_set(
            &format!("shard.{}.retired_at", local.stats.shard),
            local.stats.retired_at.map_or(-1.0, |e| e as f64),
        );
        if let Some(b) = local.stats.retire_halo_delta {
            obs.gauge_set(&format!("shard.{}.retire.halo_delta", local.stats.shard), b);
            max_halo_delta = Some(max_halo_delta.map_or(b, |m: f64| m.max(b)));
        }
        all_series.push(local.series.clone());
        per_shard_counts.push(local.counts);
        per_shard.push(local.stats);
    }
    if let Some(b) = max_halo_delta {
        obs.gauge_set("shard.retire.halo_delta", b);
    }
    let telemetry = ConvergenceSeries::merge_mean(&all_series);
    telemetry.publish(obs, "infer.shard");
    obs.gauge_set("shard.epochs_run", epochs_run as f64);

    Ok(ShardRunReport {
        counts: total,
        outcome,
        warnings,
        telemetry,
        per_shard,
        health: (0..n).map(ShardHealth::healthy).collect(),
        per_shard_counts,
        epochs_run,
    })
}
