//! Spatial Gibbs Sampling — Algorithm 1 of the paper.
//!
//! The sampler runs `K` inference instances in parallel, each handling
//! `e = E / K` epochs. Within an epoch an instance sweeps the pyramid
//! levels serially; at each level it takes the non-empty cells, computes
//! the minimum conclique cover, processes the concliques serially, and
//! samples the variables of one conclique in parallel. Counts from all
//! instances are summed, which averages them into the marginals.
//!
//! Each instance is a one-shard [`ShardChain`] on its own assignment
//! board: the sweep kernel of [`shard_sweep`](crate::shard_sweep), the
//! same code the sharded executor and the cluster run. Every
//! conditional of a phase reads the board frozen at the phase start and
//! every draw comes from a `(seed, epoch, pass, variable)` stream, so with
//! `workers > 1` a phase's variables are split across scoped worker
//! threads without changing a single draw: the counts are bit-identical
//! for any worker count, and with `K = 1` they equal the sharded
//! executor's at any shard count. Instance 0 uses `cfg.seed`; instance
//! `k > 0` derives its seed from `(cfg.seed, k)`.
//!
//! Implementation notes (documented deviations):
//! * the paper averages counts after every epoch and feeds the average
//!   back; since marginals are ratios of cumulative counts, averaging
//!   once at the end yields the same marginals and avoids a per-epoch
//!   barrier;
//! * variables without locations (non-spatial ground atoms) are not in
//!   the pyramid; each instance sweeps them in a trailing phase so no
//!   variable is starved;
//! * a phase is not an exact independent set of the factor graph:
//!   same-phase neighbours update from each other's phase-start values
//!   rather than sequentially — the kernel's one known approximation
//!   (see [`shard_sweep`](crate::shard_sweep) for its measured extent).

use crate::ckpt::{ChainState, CheckpointOptions, CheckpointSink, CheckpointState};
use crate::conclique::min_conclique_cover;
use crate::gibbs::save_checkpoint;
use crate::learn::pseudo_log_likelihood;
use crate::marginals::MarginalCounts;
use crate::pyramid::{CellKey, PyramidIndex};
use crate::run::{panic_message, InferError, SamplerRun};
use crate::shard_sweep::{init_board, ShardChain, ShardSchedule};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use sya_fg::{FactorGraph, VarId};
use sya_obs::{pll_stride, ConvergenceSeries};
use sya_runtime::{ExecContext, Phase, RunOutcome};

/// How an epoch walks the pyramid. Algorithm 1 stores a partial graph
/// per level; two faithful readings exist and both are provided:
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SweepMode {
    /// One pass over the leaf cells at the locality level (every atom
    /// sampled exactly once per epoch) — the fast default used by the
    /// headline experiments.
    #[default]
    LeafOnly,
    /// One pass per level `2..=locality` (atoms indexed at several levels
    /// are sampled several times per epoch — the multi-sampling the paper
    /// explicitly allows). Used by the locality-level experiment.
    AllLevels,
}

/// Configuration of the inference module.
#[derive(Debug, Clone)]
pub struct InferConfig {
    /// Total number of inference epochs `E` (paper default: 1000).
    pub epochs: usize,
    /// Number of parallel inference instances `K`.
    pub instances: usize,
    /// Pyramid height `L` (paper default: 8).
    pub levels: u8,
    /// Locality level `l` — the deepest pyramid level swept
    /// (paper default: the lowest level, i.e. `levels`).
    pub locality_level: u8,
    /// Pyramid cell capacity for incremental splits.
    pub cell_capacity: usize,
    /// Epochs (of the per-instance share) discarded before counting.
    pub burn_in: usize,
    /// RNG seed; every instance/worker derives its own stream.
    pub seed: u64,
    /// Pyramid walk per epoch (see [`SweepMode`]).
    pub sweep_mode: SweepMode,
    /// Cell-worker threads per conclique group; `None` (the default)
    /// uses the machine's available parallelism, clamped to 4.
    pub workers: Option<usize>,
}

impl Default for InferConfig {
    fn default() -> Self {
        InferConfig {
            epochs: 1000,
            instances: 4,
            levels: 8,
            locality_level: 8,
            cell_capacity: 64,
            burn_in: 50,
            seed: 0xC0FFEE,
            sweep_mode: SweepMode::default(),
            workers: None,
        }
    }
}

impl InferConfig {
    /// The pyramid levels one epoch sweeps: `2..=locality_level`
    /// (Algorithm 1 line 10), clamped to the pyramid height; a locality
    /// level below 2 sweeps just that single level.
    pub fn sweep_levels(&self) -> Vec<u8> {
        let top = self.locality_level.clamp(1, self.levels);
        if top < 2 {
            vec![top]
        } else {
            (2..=top).collect()
        }
    }

    /// The levels an epoch *actually* visits under this config's
    /// [`SweepMode`], clamped to a concrete pyramid's height. Incremental
    /// inference must derive its affected-cell set from exactly these
    /// levels: a cell the sampler never sweeps contributes no samples,
    /// and counting its variables as re-sampled would wipe their
    /// marginals on merge.
    pub fn active_sweep_levels(&self, pyramid_levels: u8) -> Vec<u8> {
        match self.sweep_mode {
            SweepMode::LeafOnly => vec![self.locality_level.clamp(1, pyramid_levels)],
            SweepMode::AllLevels => self.sweep_levels(),
        }
    }
}

/// Runs Spatial Gibbs Sampling over the whole graph.
pub fn spatial_gibbs(
    graph: &FactorGraph,
    pyramid: &PyramidIndex,
    cfg: &InferConfig,
) -> MarginalCounts {
    // With no fault plan an instance only dies on a real bug, which
    // should surface loudly here.
    spatial_gibbs_with(graph, pyramid, cfg, &ExecContext::unbounded())
        .unwrap_or_else(|e| panic!("spatial gibbs failed under an unbounded context: {e}"))
        .counts
}

/// Governed variant of [`spatial_gibbs`]: honours the context's deadline,
/// cancellation token, and fault plan at epoch barriers, isolates worker
/// panics, and reports how the run ended instead of aborting the process.
pub fn spatial_gibbs_with(
    graph: &FactorGraph,
    pyramid: &PyramidIndex,
    cfg: &InferConfig,
    ctx: &ExecContext,
) -> Result<SamplerRun, InferError> {
    run_chains(graph, pyramid, cfg, ctx, None, Start::Fresh, CheckpointOptions::none())
}

/// Checkpointing/resumable variant of [`spatial_gibbs_with`].
///
/// Each of the `K` inference instances reports its chain state at its
/// own epoch barriers; a shared aggregator assembles complete states. A
/// *periodic* checkpoint is written when every instance has reported the
/// same barrier epoch (instances share one cadence, so the sets always
/// complete unless an instance dies — a dropped instance therefore also
/// stops periodic checkpointing). The *final* checkpoint, written when
/// all instances have finished or been interrupted, allows heterogeneous
/// per-instance epochs: on resume every instance continues from its own
/// recorded position, which keeps the merged counts bit-identical to an
/// uninterrupted run for any worker count. `resume` must carry exactly
/// `cfg.instances` chains.
pub fn spatial_gibbs_ckpt(
    graph: &FactorGraph,
    pyramid: &PyramidIndex,
    cfg: &InferConfig,
    ctx: &ExecContext,
    ckpt: CheckpointOptions<'_>,
    resume: Option<Vec<ChainState>>,
) -> Result<SamplerRun, InferError> {
    let start = match resume {
        Some(chains) => {
            CheckpointState::Spatial { instances: chains.clone() }
                .validate_for(graph, cfg.instances.max(1))
                .map_err(|detail| InferError::BadResume { detail })?;
            Start::Resume(chains)
        }
        None => Start::Fresh,
    };
    run_chains(graph, pyramid, cfg, ctx, None, start, ckpt)
}

/// Assembles per-instance barrier states into complete spatial
/// checkpoints. Instances run on independent threads and hit barriers at
/// their own pace; the instance whose report completes a set performs
/// the save (and absorbs any save failure into its own warnings).
pub(crate) struct CheckpointAggregator<'a> {
    k: usize,
    sink: &'a dyn CheckpointSink,
    /// Periodic cadence in epochs; `0` = final checkpoints only.
    every: usize,
    inner: Mutex<AggregatorInner>,
}

struct AggregatorInner {
    /// Partial same-epoch sets keyed by barrier epoch.
    pending: BTreeMap<u64, Vec<Option<ChainState>>>,
    /// One slot per instance for its end-of-run state.
    finals: Vec<Option<ChainState>>,
}

impl<'a> CheckpointAggregator<'a> {
    fn new(sink: &'a dyn CheckpointSink, k: usize, every: usize) -> Self {
        CheckpointAggregator {
            k,
            sink,
            every,
            inner: Mutex::new(AggregatorInner {
                pending: BTreeMap::new(),
                finals: vec![None; k],
            }),
        }
    }

    fn due(&self, next_epoch: usize, total: usize) -> bool {
        self.every > 0 && next_epoch < total && next_epoch.is_multiple_of(self.every)
    }

    /// Records one instance's periodic barrier state; returns the
    /// complete checkpoint when this report was the last one missing.
    fn report_periodic(&self, instance: usize, chain: ChainState) -> Option<CheckpointState> {
        let mut inner = self.inner.lock().unwrap();
        let epoch = chain.epoch;
        let set = inner
            .pending
            .entry(epoch)
            .or_insert_with(|| vec![None; self.k]);
        set[instance] = Some(chain);
        if set.iter().any(Option::is_none) {
            return None;
        }
        let chains = inner
            .pending
            .remove(&epoch)
            .expect("entry just filled")
            .into_iter()
            .map(|c| c.expect("set complete"))
            .collect();
        // Every instance has passed this barrier, so older partial sets
        // can never complete; drop them instead of leaking.
        inner.pending.retain(|&e, _| e > epoch);
        Some(CheckpointState::Spatial { instances: chains })
    }

    /// Records one instance's end-of-run state (natural completion or
    /// interruption); returns the complete checkpoint once all `k`
    /// instances have reported.
    fn report_final(&self, instance: usize, chain: ChainState) -> Option<CheckpointState> {
        let mut inner = self.inner.lock().unwrap();
        inner.finals[instance] = Some(chain);
        if inner.finals.iter().any(Option::is_none) {
            return None;
        }
        let chains = inner
            .finals
            .iter()
            .map(|c| c.clone().expect("all finals present"))
            .collect();
        Some(CheckpointState::Spatial { instances: chains })
    }
}

/// Where every instance's chain starts.
pub(crate) enum Start<'a> {
    /// Evidence clamped, free variables at per-variable seeded draws.
    Fresh,
    /// The current marginals: instance `k` of `K` starts at the
    /// `(k + ½)/K` quantiles ([`MarginalCounts::quantile_assignment`];
    /// evidence still wins, stale values are clamped to the domain).
    Warm(&'a MarginalCounts),
    /// One pre-validated checkpointed chain per instance.
    Resume(Vec<ChainState>),
}

/// The one Spatial Gibbs driver: `K` one-shard chains, each on its own
/// board. `region` restricts the sweep to those pyramid cells (the
/// incremental path); the chains then own only the variables they
/// sample, so the counts hold rows for nothing else.
pub(crate) fn run_chains(
    graph: &FactorGraph,
    pyramid: &PyramidIndex,
    cfg: &InferConfig,
    ctx: &ExecContext,
    region: Option<&HashSet<CellKey>>,
    start: Start<'_>,
    ckpt: CheckpointOptions<'_>,
) -> Result<SamplerRun, InferError> {
    let k = cfg.instances.max(1);
    let epochs = (cfg.epochs / k).max(1);
    let schedule = ShardSchedule::new(graph, pyramid, cfg, region);
    let owned = match region {
        Some(_) => schedule.vars(),
        None => (0..graph.num_variables() as VarId).collect(),
    };
    let (warm, resumes): (Option<&MarginalCounts>, Vec<Option<ChainState>>) = match start {
        Start::Fresh => (None, vec![None; k]),
        Start::Warm(counts) => (Some(counts), vec![None; k]),
        Start::Resume(chains) => (None, chains.into_iter().map(Some).collect()),
    };
    let aggregator = ckpt
        .sink
        .map(|sink| CheckpointAggregator::new(sink, k, ckpt.every));
    let sweep = Sweep {
        graph,
        cfg,
        ctx,
        schedule: &schedule,
        owned: &owned,
        warm,
        epochs,
        burn_in: cfg.burn_in.min(epochs - 1),
        workers: cfg
            .workers
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(4)
                    .clamp(1, 4)
            })
            .max(1),
        agg: aggregator.as_ref(),
    };

    // Conclique-structure gauges: how many concliques the minimum cover
    // has at the locality level and how many cells the largest one
    // holds — the available parallelism.
    let obs = ctx.obs();
    if obs.is_enabled() {
        let level = cfg.locality_level.clamp(1, pyramid.levels());
        let cover = min_conclique_cover(&pyramid.sampling_cells(level));
        obs.gauge_set("infer.concliques", cover.len() as f64);
        obs.gauge_set(
            "infer.conclique_max_size",
            cover.iter().map(|(_, cells)| cells.len()).max().unwrap_or(0) as f64,
        );
        obs.gauge_set("infer.instances", k as f64);
        obs.gauge_set("infer.epochs_per_instance", epochs as f64);
    }

    let results: Vec<std::thread::Result<InstanceRun>> = if k == 1 {
        let resume = resumes.into_iter().next().expect("k >= 1");
        vec![catch_unwind(AssertUnwindSafe(|| sweep.instance(0, resume)))]
    } else {
        std::thread::scope(|s| {
            let sweep = &sweep;
            let handles: Vec<_> = resumes
                .into_iter()
                .enumerate()
                .map(|(inst, resume)| s.spawn(move || sweep.instance(inst, resume)))
                .collect();
            // Joining every handle and keeping the Err stops the scope
            // from re-raising a panicked instance at scope exit.
            handles.into_iter().map(|h| h.join()).collect()
        })
    };

    // Line 16: average instance counts. Marginals are count ratios, so
    // summing (merging) is equivalent to averaging — and a dropped
    // instance just shrinks the sample pool without biasing the average.
    let mut total = MarginalCounts::new(graph);
    let mut outcome = RunOutcome::Completed;
    let mut warnings = Vec::new();
    let mut first_cause: Option<String> = None;
    let mut series = Vec::new();
    for (inst, res) in results.into_iter().enumerate() {
        match res {
            Ok((counts, inst_outcome, inst_warnings, inst_series)) => {
                total.merge(&counts);
                outcome = outcome.combine(inst_outcome);
                warnings.extend(inst_warnings);
                series.push(inst_series);
            }
            Err(payload) => {
                let msg = panic_message(payload);
                warnings.push(format!(
                    "inference instance {inst} panicked and was dropped ({msg}); \
                     marginals are averaged over the surviving instances"
                ));
                first_cause.get_or_insert(msg);
                outcome = outcome.combine(RunOutcome::Degraded);
            }
        }
    }
    if series.is_empty() {
        return Err(InferError::AllInstancesFailed {
            instances: k,
            first_cause: first_cause.unwrap_or_else(|| "unknown".to_owned()),
        });
    }
    // Average the per-epoch trajectories over surviving instances,
    // mirroring how the marginal counts themselves are merged.
    let telemetry = ConvergenceSeries::merge_mean(&series);
    telemetry.publish(obs, "infer.spatial");
    Ok(SamplerRun { counts: total, outcome, warnings, telemetry })
}

/// The seed of instance `k`: `seed` itself for instance 0 (so a
/// one-instance run is the sharded executor's one-shard case), a
/// derived stream seed otherwise.
fn instance_seed(seed: u64, k: usize) -> u64 {
    if k == 0 {
        return seed;
    }
    StdRng::seed_from_u64(seed ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)).gen()
}

/// What one instance hands back to the merge.
type InstanceRun = (MarginalCounts, RunOutcome, Vec<String>, ConvergenceSeries);

/// Everything the `K` instances of one run share.
struct Sweep<'a> {
    graph: &'a FactorGraph,
    cfg: &'a InferConfig,
    ctx: &'a ExecContext,
    schedule: &'a ShardSchedule,
    /// The variables every instance's chain owns.
    owned: &'a [VarId],
    /// Marginals the instances warm-start from (see [`Start::Warm`]).
    warm: Option<&'a MarginalCounts>,
    /// Epochs per instance, and the burn-in share of them.
    epochs: usize,
    burn_in: usize,
    /// Worker threads a phase's variables are split across.
    workers: usize,
    agg: Option<&'a CheckpointAggregator<'a>>,
}

impl Sweep<'_> {
    /// Runs instance `instance` to completion or interruption.
    fn instance(&self, instance: usize, resume: Option<ChainState>) -> InstanceRun {
        let (graph, ctx) = (self.graph, self.ctx);
        let obs = ctx.obs();
        let cfg = InferConfig { seed: instance_seed(self.cfg.seed, instance), ..self.cfg.clone() };
        let mut chain = ShardChain::new(graph, self.schedule, &cfg, self.owned.to_vec());
        let (start_epoch, board) = match resume {
            Some(state) => {
                let (epoch, values, _, counts, recorded) = state
                    .restore(graph)
                    .expect("spatial resume state pre-validated by spatial_gibbs_ckpt");
                chain.resume_counts(counts, recorded);
                (epoch.min(self.epochs), values.into_iter().map(AtomicU32::new).collect())
            }
            None => {
                let k = self.cfg.instances.max(1);
                let warm = self.warm.map(|c| c.quantile_assignment(instance, k));
                (0, init_board(graph, cfg.seed, warm.as_deref()))
            }
        };
        let mut outcome = RunOutcome::Completed;
        let mut warnings = Vec::new();
        let stride = pll_stride(self.epochs);
        let mut next_epoch = start_epoch;
        for epoch in start_epoch..self.epochs {
            // Epoch barrier: deadline/cancellation checks happen here, and
            // only from the second epoch on, so an interrupted run still
            // carries at least one full sweep of (noisy but finite) samples.
            if epoch > start_epoch {
                if let Some(stop) = ctx.interrupted() {
                    outcome = outcome.combine(stop);
                    break;
                }
            }
            ctx.maybe_slow(Phase::Inference);
            if ctx.should_panic_instance(instance, epoch) {
                panic!("injected fault: instance {instance} panicked at epoch {epoch}");
            }
            let record = epoch >= self.burn_in;
            let epoch_start = obs.is_enabled().then(std::time::Instant::now);
            for phase in 0..self.schedule.len() {
                let dead = self.sample_phase(&mut chain, &board, phase, epoch, record, instance);
                if !dead.is_empty() {
                    outcome = outcome.combine(RunOutcome::Degraded);
                    warnings.extend(dead);
                }
                chain.publish(&board);
            }
            chain.end_epoch(&board, record);
            if obs.is_enabled() && epoch.is_multiple_of(stride) {
                let snapshot: Vec<u32> = board.iter().map(|a| a.load(Ordering::Relaxed)).collect();
                chain.record_pll(epoch, pseudo_log_likelihood(graph, &snapshot));
            }
            if let Some(t0) = epoch_start {
                obs.histogram_record("infer.epoch_seconds", t0.elapsed().as_secs_f64());
            }
            next_epoch = epoch + 1;
            if let Some(agg) = self.agg {
                if agg.due(next_epoch, self.epochs) {
                    let chain_state = chain.chain_state(next_epoch, &board);
                    if let Some(state) = agg.report_periodic(instance, chain_state) {
                        save_checkpoint(ctx, agg.sink, &state, &mut warnings, &mut outcome);
                    }
                }
            }
        }
        // End-of-run report: natural completion and interruption both
        // land here with `next_epoch` at the barrier where this instance
        // stopped. The final checkpoint completes once all instances
        // report, even at different epochs — each resumes from its own
        // position.
        if let Some(agg) = self.agg {
            if let Some(state) = agg.report_final(instance, chain.chain_state(next_epoch, &board)) {
                save_checkpoint(ctx, agg.sink, &state, &mut warnings, &mut outcome);
            }
        }
        if !chain.has_recorded() {
            // Stopped before any post-burn-in epoch ran: fall back to a
            // single snapshot of the current chain state so callers still
            // receive finite, non-empty marginals.
            chain.record_board_snapshot(&board);
            warnings.push(format!(
                "instance {instance} stopped before burn-in finished; its marginals \
                 fall back to a single-state snapshot"
            ));
        }
        let (counts, series) = chain.finish();
        (counts, outcome, warnings, series)
    }

    /// Samples one phase of `chain`, split across the worker threads,
    /// and returns one warning per worker that panicked. A dead worker's
    /// share is re-drawn on this thread from the same per-variable
    /// streams, so the phase's draws — and the counts — are the ones a
    /// clean run produces.
    fn sample_phase(
        &self,
        chain: &mut ShardChain<'_>,
        board: &[AtomicU32],
        phase: usize,
        epoch: usize,
        record: bool,
        instance: usize,
    ) -> Vec<String> {
        let vars = chain.phase_vars(phase);
        if self.workers <= 1 || vars.len() <= 1 {
            chain.sample_phase(board, phase, epoch, record);
            return Vec::new();
        }
        let prof = sya_obs::profile::start();
        let parts: Vec<&[VarId]> = vars.chunks(vars.len().div_ceil(self.workers)).collect();
        let ctx = self.ctx;
        let chain_ref = &*chain;
        let results: Vec<std::thread::Result<Vec<(VarId, u32)>>> = std::thread::scope(|s| {
            let handles: Vec<_> = parts
                .iter()
                .enumerate()
                .map(|(ci, &part)| {
                    s.spawn(move || {
                        if ci == 0 && ctx.take_worker_panic(instance, epoch) {
                            panic!(
                                "injected fault: cell worker of instance {instance} \
                                 panicked at epoch {epoch}"
                            );
                        }
                        let mut out = Vec::with_capacity(part.len());
                        chain_ref.draw(board, phase, part, epoch, &mut out);
                        out
                    })
                })
                .collect();
            // Keep the Err instead of unwrapping so a dead worker
            // degrades the epoch rather than tearing down the instance.
            handles.into_iter().map(|h| h.join()).collect()
        });
        let mut writes = Vec::with_capacity(vars.len());
        let mut dead = Vec::new();
        for (ci, res) in results.into_iter().enumerate() {
            match res {
                Ok(out) => writes.extend(out),
                Err(payload) => {
                    dead.push(format!(
                        "cell worker {ci} of instance {instance} panicked at epoch {epoch} \
                         ({}); its variables were re-sampled sequentially",
                        panic_message(payload)
                    ));
                    chain.draw(board, phase, parts[ci], epoch, &mut writes);
                }
            }
        }
        chain.accept(phase, writes, record);
        sya_obs::profile::stop(sya_obs::profile::Site::ConcliqueSweep, prof);
        dead
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sya_fg::{exact_marginals, Factor, FactorKind, Variable};

    #[test]
    fn sweep_levels_follow_algorithm_1() {
        let cfg = InferConfig { levels: 8, locality_level: 8, ..Default::default() };
        assert_eq!(cfg.sweep_levels(), vec![2, 3, 4, 5, 6, 7, 8]);
        let shallow = InferConfig { levels: 8, locality_level: 1, ..Default::default() };
        assert_eq!(shallow.sweep_levels(), vec![1]);
        let clamped = InferConfig { levels: 3, locality_level: 8, ..Default::default() };
        assert_eq!(clamped.sweep_levels(), vec![2, 3]);
    }

    /// Both sweep modes; under `AllLevels` every variable is drawn once
    /// per level of an epoch, each draw from its own stream.
    #[test]
    fn spatial_gibbs_matches_exact_marginals_on_small_grid() {
        let g = FactorGraph::lattice(3, 0.8, true); // 9 vars, 8 query
        let pyramid = PyramidIndex::build(&g, 3, 64);
        let exact = exact_marginals(&g);
        for sweep_mode in [SweepMode::LeafOnly, SweepMode::AllLevels] {
            let cfg = InferConfig {
                epochs: 8000,
                instances: 2,
                levels: 3,
                locality_level: 3,
                burn_in: 100,
                seed: 11,
                sweep_mode,
                ..Default::default()
            };
            let counts = spatial_gibbs(&g, &pyramid, &cfg);
            for v in g.query_variables() {
                let est = counts.factual_score(v);
                assert!(
                    (est - exact[v as usize]).abs() < 0.05,
                    "{sweep_mode:?} var {v}: est {est} vs exact {}",
                    exact[v as usize]
                );
            }
        }
    }

    #[test]
    fn evidence_stays_clamped() {
        let g = FactorGraph::lattice(3, 0.8, true);
        let pyramid = PyramidIndex::build(&g, 3, 64);
        let cfg = InferConfig {
            epochs: 200,
            instances: 2,
            levels: 3,
            locality_level: 3,
            burn_in: 10,
            seed: 5,
            ..Default::default()
        };
        let counts = spatial_gibbs(&g, &pyramid, &cfg);
        assert_eq!(counts.factual_score(0), 1.0);
    }

    #[test]
    fn unlocated_variables_are_sampled_too() {
        let mut g = FactorGraph::lattice(2, 0.8, true);
        let floating = g.add_variable(Variable::binary(0, "floating"));
        g.add_factor(Factor::new(FactorKind::IsTrue, vec![floating], 2.0));
        let pyramid = PyramidIndex::build(&g, 3, 64);
        let cfg = InferConfig {
            epochs: 2000,
            instances: 2,
            levels: 3,
            locality_level: 3,
            burn_in: 50,
            seed: 3,
            ..Default::default()
        };
        let counts = spatial_gibbs(&g, &pyramid, &cfg);
        assert!(counts.total_samples(floating) > 0);
        // IsTrue(w=2) alone: P(true) = e^2 / (1 + e^2) ≈ 0.88.
        let want = (2.0f64).exp() / (1.0 + (2.0f64).exp());
        assert!((counts.factual_score(floating) - want).abs() < 0.05);
    }

    #[test]
    fn deterministic_given_seed_and_single_worker_graph() {
        // Per-variable streams and frozen phase boards: one seed, one answer.
        let g = FactorGraph::lattice(2, 0.8, true);
        let pyramid = PyramidIndex::build(&g, 2, 64);
        let cfg = InferConfig {
            epochs: 100,
            instances: 1,
            levels: 2,
            locality_level: 2,
            burn_in: 0,
            seed: 77,
            ..Default::default()
        };
        let a = spatial_gibbs(&g, &pyramid, &cfg);
        let b = spatial_gibbs(&g, &pyramid, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn injected_instance_panic_degrades_gracefully() {
        use sya_runtime::FaultPlan;
        let g = FactorGraph::lattice(3, 0.8, true);
        let pyramid = PyramidIndex::build(&g, 3, 64);
        let cfg = InferConfig {
            epochs: 8000,
            instances: 2,
            levels: 3,
            locality_level: 3,
            burn_in: 100,
            seed: 11,
            ..Default::default()
        };
        let clean = spatial_gibbs(&g, &pyramid, &cfg);
        let plan = FaultPlan {
            panic_instances: vec![1],
            panic_at_epoch: 10,
            ..FaultPlan::none()
        };
        let ctx = ExecContext::unbounded().with_faults(plan);
        let run = spatial_gibbs_with(&g, &pyramid, &cfg, &ctx).unwrap();
        assert_eq!(run.outcome, RunOutcome::Degraded);
        assert!(run.warnings.iter().any(|w| w.contains("instance 1")), "{:?}", run.warnings);
        // Dropping one of two instances halves the samples but keeps the
        // count-ratio marginals close to the clean run.
        for v in g.query_variables() {
            let diff = (run.counts.factual_score(v) - clean.factual_score(v)).abs();
            assert!(diff < 0.1, "var {v}: degraded {} vs clean {}",
                run.counts.factual_score(v), clean.factual_score(v));
        }
    }

    #[test]
    fn injected_worker_panic_is_resampled_sequentially() {
        use sya_runtime::FaultPlan;
        // 8x8 grid, shallow pyramid: level-2 phases hold many variables,
        // and two forced workers make the parallel path run even on a
        // single-core machine.
        let g = FactorGraph::lattice(8, 0.8, true);
        let pyramid = PyramidIndex::build(&g, 2, 64);
        let cfg = InferConfig {
            epochs: 400,
            instances: 1,
            levels: 2,
            locality_level: 2,
            burn_in: 20,
            seed: 9,
            workers: Some(2),
            ..Default::default()
        };
        let clean = spatial_gibbs(&g, &pyramid, &cfg);
        let plan = FaultPlan {
            panic_worker_in_instance: Some(0),
            panic_at_epoch: 5,
            ..FaultPlan::none()
        };
        let ctx = ExecContext::unbounded().with_faults(plan);
        let run = spatial_gibbs_with(&g, &pyramid, &cfg, &ctx).unwrap();
        assert_eq!(run.outcome, RunOutcome::Degraded);
        assert!(
            run.warnings.iter().any(|w| w.contains("re-sampled sequentially")),
            "{:?}",
            run.warnings
        );
        // The dead worker's share was re-drawn from the same
        // per-variable streams: the counts are the clean run's.
        assert_eq!(run.counts, clean);
    }

    #[test]
    fn deadline_yields_timed_out_with_partial_marginals() {
        let g = FactorGraph::lattice(3, 0.8, true);
        let pyramid = PyramidIndex::build(&g, 3, 64);
        let cfg = InferConfig {
            epochs: usize::MAX / 2, // only the deadline can stop this
            instances: 2,
            levels: 3,
            locality_level: 3,
            burn_in: 100,
            seed: 11,
            ..Default::default()
        };
        let ctx = ExecContext::new(
            sya_runtime::RunBudget::unlimited().with_deadline(std::time::Duration::ZERO),
        );
        let run = spatial_gibbs_with(&g, &pyramid, &cfg, &ctx).unwrap();
        assert_eq!(run.outcome, RunOutcome::TimedOut);
        // The first-epoch guarantee plus the snapshot fallback keep the
        // marginals non-empty and finite.
        for v in g.query_variables() {
            assert!(run.counts.total_samples(v) > 0, "var {v} has no samples");
            assert!(run.counts.factual_score(v).is_finite());
        }
    }

    #[test]
    fn cancellation_stops_at_the_next_epoch_barrier() {
        let g = FactorGraph::lattice(3, 0.8, true);
        let pyramid = PyramidIndex::build(&g, 3, 64);
        let cfg = InferConfig {
            epochs: usize::MAX / 2,
            instances: 1,
            levels: 3,
            locality_level: 3,
            burn_in: 0,
            seed: 2,
            ..Default::default()
        };
        let ctx = ExecContext::unbounded();
        ctx.token().cancel();
        let run = spatial_gibbs_with(&g, &pyramid, &cfg, &ctx).unwrap();
        assert_eq!(run.outcome, RunOutcome::Cancelled);
        for v in g.query_variables() {
            assert!(run.counts.total_samples(v) > 0);
        }
    }

    #[test]
    fn all_instances_failing_is_an_error() {
        use sya_runtime::FaultPlan;
        let g = FactorGraph::lattice(2, 0.8, true);
        let pyramid = PyramidIndex::build(&g, 2, 64);
        let cfg = InferConfig {
            epochs: 100,
            instances: 2,
            levels: 2,
            locality_level: 2,
            burn_in: 0,
            seed: 3,
            ..Default::default()
        };
        let plan = FaultPlan {
            panic_instances: vec![0, 1],
            panic_at_epoch: 0,
            ..FaultPlan::none()
        };
        let ctx = ExecContext::unbounded().with_faults(plan);
        let err = spatial_gibbs_with(&g, &pyramid, &cfg, &ctx).unwrap_err();
        let InferError::AllInstancesFailed { instances, first_cause } = err else {
            panic!("expected AllInstancesFailed, got {err}");
        };
        assert_eq!(instances, 2);
        assert!(first_cause.contains("injected fault"), "{first_cause}");
    }

    #[test]
    fn governed_run_without_faults_matches_legacy() {
        let g = FactorGraph::lattice(2, 0.8, true);
        let pyramid = PyramidIndex::build(&g, 2, 64);
        let cfg = InferConfig {
            epochs: 100,
            instances: 1,
            levels: 2,
            locality_level: 2,
            burn_in: 0,
            seed: 77,
            ..Default::default()
        };
        let legacy = spatial_gibbs(&g, &pyramid, &cfg);
        let run = spatial_gibbs_with(&g, &pyramid, &cfg, &ExecContext::unbounded()).unwrap();
        assert_eq!(run.outcome, RunOutcome::Completed);
        assert!(run.warnings.is_empty());
        assert_eq!(legacy, run.counts);
    }

    #[test]
    fn conclique_gauges_match_cover_ground_truth() {
        use sya_obs::Obs;
        let g = FactorGraph::lattice(4, 0.8, true);
        let pyramid = PyramidIndex::build(&g, 2, 64);
        let cfg = InferConfig {
            epochs: 20,
            instances: 1,
            levels: 2,
            locality_level: 2,
            burn_in: 0,
            seed: 1,
            ..Default::default()
        };
        let obs = Obs::enabled();
        let ctx = ExecContext::unbounded().with_obs(obs.clone());
        let run = spatial_gibbs_with(&g, &pyramid, &cfg, &ctx).unwrap();
        // Ground truth straight from conclique.rs over the same cells the
        // sampler sweeps at the locality level.
        let cover = min_conclique_cover(&pyramid.sampling_cells(2));
        let m = obs.metrics().unwrap();
        assert_eq!(m.gauge_value("infer.concliques"), Some(cover.len() as f64));
        let max_cells = cover.iter().map(|(_, c)| c.len()).max().unwrap();
        assert_eq!(
            m.gauge_value("infer.conclique_max_size"),
            Some(max_cells as f64)
        );
        assert_eq!(m.gauge_value("infer.instances"), Some(1.0));
        // Samples are credited only to concliques present in the cover.
        let in_cover: Vec<usize> = cover.iter().map(|(q, _)| q.0 as usize).collect();
        for c in 0..4 {
            let n = run.telemetry.conclique_samples[c];
            if in_cover.contains(&c) {
                assert!(n > 0, "conclique {c} in cover but credited 0 samples");
            } else {
                assert_eq!(n, 0, "conclique {c} outside cover but credited {n}");
            }
        }
    }

    #[test]
    fn telemetry_records_per_epoch_series() {
        let g = FactorGraph::lattice(3, 0.8, true);
        let pyramid = PyramidIndex::build(&g, 3, 64);
        let cfg = InferConfig {
            epochs: 40,
            instances: 2,
            levels: 3,
            locality_level: 3,
            burn_in: 0,
            seed: 7,
            ..Default::default()
        };
        let run = spatial_gibbs_with(&g, &pyramid, &cfg, &ExecContext::unbounded()).unwrap();
        let e = cfg.epochs / cfg.instances;
        assert_eq!(run.telemetry.epochs, e);
        assert_eq!(run.telemetry.flip_rate.len(), e);
        assert_eq!(run.telemetry.marginal_delta.len(), e);
        assert!(run.telemetry.samples_total > 0);
        assert!(run.telemetry.flip_rate.iter().all(|r| (0.0..=1.0).contains(r)));
        // No observer: no pseudo-log-likelihood evaluations.
        assert!(run.telemetry.pll.is_empty());
        let located: u64 = run.telemetry.conclique_samples.iter().sum();
        assert_eq!(located, run.telemetry.samples_total, "all grid vars are located");
    }

    #[test]
    fn observed_run_publishes_spatial_series_and_pll() {
        use sya_obs::Obs;
        let g = FactorGraph::lattice(3, 0.8, true);
        let pyramid = PyramidIndex::build(&g, 3, 64);
        let cfg = InferConfig {
            epochs: 16,
            instances: 1,
            levels: 3,
            locality_level: 3,
            burn_in: 0,
            seed: 3,
            ..Default::default()
        };
        let obs = Obs::enabled();
        let ctx = ExecContext::unbounded().with_obs(obs.clone());
        let run = spatial_gibbs_with(&g, &pyramid, &cfg, &ctx).unwrap();
        // pll_stride(16) == 1: evaluated every epoch, all finite.
        assert_eq!(run.telemetry.pll.len(), 16);
        assert!(run.telemetry.pll.iter().all(|(_, v)| v.is_finite()));
        let m = obs.metrics().unwrap();
        assert_eq!(m.series("infer.spatial.flip_rate").unwrap().len(), 16);
        assert_eq!(m.series("infer.spatial.marginal_delta").unwrap().len(), 16);
        assert_eq!(m.series("infer.spatial.pll").unwrap().len(), 16);
        assert_eq!(
            m.counter_value("infer.spatial.samples_total"),
            Some(run.telemetry.samples_total)
        );
        let snap = m.snapshot();
        assert!(
            snap.histograms.contains_key("infer.epoch_seconds"),
            "epoch timing histogram missing"
        );
    }

    #[test]
    fn more_instances_split_the_epoch_budget() {
        let g = FactorGraph::lattice(2, 0.8, true);
        let pyramid = PyramidIndex::build(&g, 2, 64);
        let one = InferConfig {
            epochs: 100,
            instances: 1,
            levels: 2,
            locality_level: 2,
            burn_in: 0,
            seed: 1,
            ..Default::default()
        };
        let four = InferConfig { instances: 4, ..one.clone() };
        let c1 = spatial_gibbs(&g, &pyramid, &one);
        let c4 = spatial_gibbs(&g, &pyramid, &four);
        // Same total sample budget (E epochs overall): e = E/K each, but
        // K instances record in parallel, so totals match.
        let v = g.query_variables()[0];
        assert_eq!(c1.total_samples(v), 100);
        assert_eq!(c4.total_samples(v), 100);
    }
}
