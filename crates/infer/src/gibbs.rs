//! Baseline samplers: DeepDive's sequential Gibbs sampler and the
//! random-partition parallel Gibbs of the state of the art the paper
//! compares against (Section V, "Main Idea").

use crate::ckpt::{ChainState, CheckpointOptions, CheckpointSink, CheckpointState};
use crate::learn::pseudo_log_likelihood;
use crate::marginals::MarginalCounts;
use crate::run::{panic_message, InferError, SamplerRun};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sya_fg::{binary_conditional_true, conditional_with, Assignment, FactorGraph, VarId};
use sya_obs::{pll_stride, EpochTelemetry};
use sya_runtime::{ExecContext, Phase, RunOutcome};

/// Draws an index from a normalized probability vector.
pub(crate) fn sample_index(rng: &mut StdRng, probs: &[f64]) -> u32 {
    let u: f64 = rng.gen();
    let mut acc = 0.0;
    for (i, p) in probs.iter().enumerate() {
        acc += p;
        if u < acc {
            return i as u32;
        }
    }
    (probs.len() - 1) as u32
}

/// Draws a value for `v` from its Gibbs conditional: binary variables
/// take the allocation-free sigmoid path, categorical ones the general
/// normalized-vector path.
#[inline]
pub(crate) fn sample_conditional(
    graph: &FactorGraph,
    value_source: &dyn Fn(VarId) -> u32,
    v: VarId,
    rng: &mut StdRng,
) -> u32 {
    let prof = sya_obs::profile::start();
    let x = if graph.variable(v).domain.cardinality() == 2 {
        let p1 = binary_conditional_true(graph, value_source, v);
        u32::from(rng.gen::<f64>() < p1)
    } else {
        let probs = conditional_with(graph, value_source, v);
        sample_index(rng, &probs)
    };
    sya_obs::profile::stop(sya_obs::profile::Site::DeltaEnergy, prof);
    x
}

/// Random initial assignment: evidence clamped, query variables uniform.
pub(crate) fn random_init(graph: &FactorGraph, rng: &mut StdRng) -> Assignment {
    graph
        .variables()
        .iter()
        .map(|v| match v.evidence {
            Some(e) => e,
            None => rng.gen_range(0..v.domain.cardinality()),
        })
        .collect()
}

/// Convergence-telemetry indicator over the current chain state: true
/// when the variable holds a non-default value (for binary variables
/// exactly `x == 1`, the factual-score convention). The running mean of
/// this indicator is the marginal estimate whose per-epoch max change
/// becomes the `marginal_delta` series.
#[inline]
pub(crate) fn telemetry_indicator(x: u32) -> bool {
    x != 0
}

/// Hands a completed barrier state to the sink, honouring the injected
/// `fail_checkpoint_saves` fault. A failed save never aborts the run: it
/// degrades the outcome and leaves a warning, because losing durability
/// is strictly better than losing the samples already drawn.
pub(crate) fn save_checkpoint(
    ctx: &ExecContext,
    sink: &dyn CheckpointSink,
    state: &CheckpointState,
    warnings: &mut Vec<String>,
    outcome: &mut RunOutcome,
) {
    let prof = sya_obs::profile::start();
    let res = if ctx.take_checkpoint_save_failure() {
        Err("injected fault: checkpoint save failed".to_owned())
    } else {
        sink.save(state)
    };
    sya_obs::profile::stop(sya_obs::profile::Site::CkptWrite, prof);
    if let Err(e) = res {
        warnings.push(format!(
            "checkpoint at epoch {} could not be saved ({e}); the run continues \
             without durability for this barrier",
            state.epoch()
        ));
        *outcome = outcome.combine(RunOutcome::Degraded);
    }
}

/// Packages one chain's barrier state for persistence.
fn chain_state(
    next_epoch: usize,
    assignment: &Assignment,
    rng: &StdRng,
    counts: &MarginalCounts,
    recorded: bool,
) -> ChainState {
    ChainState {
        epoch: next_epoch as u64,
        assignment: assignment.clone(),
        rng: rng.state().to_vec(),
        counts: counts.to_rows(),
        recorded,
    }
}

/// Records one snapshot of the current chain state into `counts` — the
/// fallback when a governed run is stopped before burn-in finished, so
/// callers still receive finite, non-empty marginals.
fn record_snapshot(graph: &FactorGraph, assignment: &Assignment, counts: &mut MarginalCounts) {
    for var in graph.variables() {
        let x = match var.evidence {
            Some(e) => e,
            None => assignment[var.id as usize],
        };
        counts.record(var.id, x);
    }
}

/// Sequential (single-site) Gibbs sampling — the sampler inside DeepDive
/// ("computationally-efficient, easy-to-implement, and can support
/// incremental inference"). One epoch = one sweep over all query
/// variables in order. Samples before `burn_in` epochs are discarded.
pub fn sequential_gibbs(
    graph: &FactorGraph,
    epochs: usize,
    burn_in: usize,
    seed: u64,
) -> MarginalCounts {
    sequential_gibbs_with(graph, epochs, burn_in, seed, &ExecContext::unbounded()).counts
}

/// Governed variant of [`sequential_gibbs`]: stops at the next epoch
/// barrier when the context's deadline fires or its token is cancelled.
/// Single-threaded, so it cannot degrade — the outcome is `Completed`,
/// `TimedOut`, or `Cancelled`.
pub fn sequential_gibbs_with(
    graph: &FactorGraph,
    epochs: usize,
    burn_in: usize,
    seed: u64,
    ctx: &ExecContext,
) -> SamplerRun {
    sequential_gibbs_ckpt(graph, epochs, burn_in, seed, ctx, CheckpointOptions::none(), None)
        .expect("no resume state, cannot fail")
}

/// Checkpointing/resumable variant of [`sequential_gibbs_with`].
///
/// With a sink configured, the sampler emits the chain state (next
/// epoch, assignment, RNG stream position, counts) at periodic epoch
/// barriers, at the barrier where an interruption (deadline, cancel,
/// budget trip) stops the run, and at natural completion. With `resume`,
/// the chain continues from the checkpointed position and — because the
/// RNG stream position is part of the state — reproduces an
/// uninterrupted run bit-for-bit. `Err` only when the resume state does
/// not fit this graph.
pub fn sequential_gibbs_ckpt(
    graph: &FactorGraph,
    epochs: usize,
    burn_in: usize,
    seed: u64,
    ctx: &ExecContext,
    ckpt: CheckpointOptions<'_>,
    resume: Option<ChainState>,
) -> Result<SamplerRun, InferError> {
    let obs = ctx.obs();
    let mut outcome = RunOutcome::Completed;
    let mut warnings = Vec::new();
    let (start_epoch, mut assignment, mut rng, mut counts, mut recorded) = match resume {
        Some(chain) => {
            let (e, a, r, c, rec) = chain
                .restore(graph)
                .map_err(|detail| InferError::BadResume { detail })?;
            (e.min(epochs), a, StdRng::from_state(r), c, rec)
        }
        None => {
            let mut rng = StdRng::seed_from_u64(seed);
            let assignment = random_init(graph, &mut rng);
            (0, assignment, rng, MarginalCounts::new(graph), false)
        }
    };
    let query = graph.query_variables();
    let mut telemetry = EpochTelemetry::new(graph.num_variables());
    let stride = pll_stride(epochs);
    let mut next_epoch = start_epoch;

    for epoch in start_epoch..epochs {
        // Epoch barrier: checked from the second epoch on, so an
        // interrupted run still carries at least one full sweep.
        if epoch > start_epoch {
            if let Some(stop) = ctx.interrupted() {
                outcome = outcome.combine(stop);
                // Checkpoint-before-exit: a budget trip or cancellation
                // must not cost the epochs already sampled.
                if let Some(sink) = ckpt.sink {
                    let state = CheckpointState::Sequential(chain_state(
                        epoch, &assignment, &rng, &counts, recorded,
                    ));
                    save_checkpoint(ctx, sink, &state, &mut warnings, &mut outcome);
                }
                break;
            }
        }
        ctx.maybe_slow(Phase::Inference);
        let epoch_start = obs.is_enabled().then(std::time::Instant::now);
        let mut flips = 0u64;
        for &v in &query {
            let old = assignment[v as usize];
            let x = sample_conditional(graph, &|u| assignment[u as usize], v, &mut rng);
            if x != old {
                flips += 1;
            }
            assignment[v as usize] = x;
            if epoch >= burn_in {
                counts.record(v, x);
            }
        }
        if epoch >= burn_in {
            recorded = true;
            for var in graph.variables() {
                if let Some(e) = var.evidence {
                    counts.record(var.id, e);
                }
            }
        }
        telemetry.end_epoch(
            flips,
            query.len() as u64,
            assignment.iter().map(|&x| telemetry_indicator(x)),
        );
        // Pseudo-log-likelihood costs about one sweep per evaluation:
        // sampled at a fixed cadence, and only when someone is watching.
        if obs.is_enabled() && epoch.is_multiple_of(stride) {
            telemetry.record_pll(epoch, pseudo_log_likelihood(graph, &assignment));
        }
        if let Some(t0) = epoch_start {
            obs.histogram_record("infer.epoch_seconds", t0.elapsed().as_secs_f64());
        }
        next_epoch = epoch + 1;
        if let (Some(sink), true) = (ckpt.sink, ckpt.due(next_epoch, epochs)) {
            let state = CheckpointState::Sequential(chain_state(
                next_epoch, &assignment, &rng, &counts, recorded,
            ));
            save_checkpoint(ctx, sink, &state, &mut warnings, &mut outcome);
        }
    }
    // Final barrier: persists the completed run, so a later `--resume`
    // against the same configuration is a cheap no-op replay.
    if next_epoch == epochs {
        if let Some(sink) = ckpt.sink {
            let state = CheckpointState::Sequential(chain_state(
                epochs, &assignment, &rng, &counts, recorded,
            ));
            save_checkpoint(ctx, sink, &state, &mut warnings, &mut outcome);
        }
    }
    if !recorded {
        record_snapshot(graph, &assignment, &mut counts);
        warnings.push(
            "sequential gibbs stopped before burn-in finished; marginals fall back \
             to a single-state snapshot"
                .to_owned(),
        );
    }
    let telemetry = telemetry.finish();
    telemetry.publish(obs, "infer.sequential");
    Ok(SamplerRun { counts, outcome, warnings, telemetry })
}

/// Random-partition parallel Gibbs: query variables are split into `k`
/// random buckets; within an epoch the buckets are sampled in parallel
/// against a *stale snapshot* of the other buckets' values (a synchronous
/// Jacobi-style update). This is the state-of-the-art parallel scheme the
/// paper criticizes: spatially-dependent variables land in different
/// buckets and are updated independently of each other, slowing
/// convergence relative to conclique partitioning.
pub fn parallel_random_gibbs(
    graph: &FactorGraph,
    epochs: usize,
    burn_in: usize,
    k: usize,
    seed: u64,
) -> MarginalCounts {
    parallel_random_gibbs_with(graph, epochs, burn_in, k, seed, &ExecContext::unbounded()).counts
}

/// Governed variant of [`parallel_random_gibbs`]: honours deadline and
/// cancellation at epoch barriers, and survives a panicked bucket worker
/// by re-sampling its bucket sequentially against the same snapshot
/// (outcome `Degraded`).
pub fn parallel_random_gibbs_with(
    graph: &FactorGraph,
    epochs: usize,
    burn_in: usize,
    k: usize,
    seed: u64,
    ctx: &ExecContext,
) -> SamplerRun {
    parallel_random_gibbs_ckpt(
        graph,
        epochs,
        burn_in,
        k,
        seed,
        ctx,
        CheckpointOptions::none(),
        None,
    )
    .expect("no resume state, cannot fail")
}

/// Checkpointing/resumable variant of [`parallel_random_gibbs_with`].
///
/// The bucket partition and the per-epoch worker RNG streams are all
/// derived from `(seed, epoch, bucket)`, so the only live state is the
/// shared chain itself: on resume the setup (init draw + shuffle) is
/// re-derived from the seed, the checkpointed assignment/counts replace
/// the chain, and every later epoch reproduces the uninterrupted run
/// bit-for-bit. `Err` only when the resume state does not fit this
/// graph.
#[allow(clippy::too_many_arguments)]
pub fn parallel_random_gibbs_ckpt(
    graph: &FactorGraph,
    epochs: usize,
    burn_in: usize,
    k: usize,
    seed: u64,
    ctx: &ExecContext,
    ckpt: CheckpointOptions<'_>,
    resume: Option<ChainState>,
) -> Result<SamplerRun, InferError> {
    let k = k.max(1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut assignment = random_init(graph, &mut rng);
    let mut query = graph.query_variables();
    // Random bucket assignment (shuffle then stripe).
    for i in (1..query.len()).rev() {
        let j = rng.gen_range(0..=i);
        query.swap(i, j);
    }
    let buckets: Vec<Vec<VarId>> = (0..k)
        .map(|b| query.iter().copied().skip(b).step_by(k).collect())
        .collect();

    let obs = ctx.obs();
    let mut counts = MarginalCounts::new(graph);
    let mut outcome = RunOutcome::Completed;
    let mut warnings = Vec::new();
    let mut recorded = false;
    let start_epoch = match resume {
        Some(chain) => {
            // The setup above re-derived the initial draw and the bucket
            // shuffle from the seed; only the chain state is restored.
            let (e, a, _rng, c, rec) = chain
                .restore(graph)
                .map_err(|detail| InferError::BadResume { detail })?;
            assignment = a;
            counts = c;
            recorded = rec;
            e.min(epochs)
        }
        None => 0,
    };
    let mut telemetry = EpochTelemetry::new(graph.num_variables());
    let stride = pll_stride(epochs);
    let mut next_epoch = start_epoch;
    for epoch in start_epoch..epochs {
        if epoch > start_epoch {
            if let Some(stop) = ctx.interrupted() {
                outcome = outcome.combine(stop);
                if let Some(sink) = ckpt.sink {
                    let state = CheckpointState::Parallel(chain_state(
                        epoch, &assignment, &rng, &counts, recorded,
                    ));
                    save_checkpoint(ctx, sink, &state, &mut warnings, &mut outcome);
                }
                break;
            }
        }
        ctx.maybe_slow(Phase::Inference);
        let epoch_start = obs.is_enabled().then(std::time::Instant::now);
        let mut flips = 0u64;
        let snapshot = assignment.clone();
        let results: Vec<std::thread::Result<Vec<(VarId, u32)>>> = std::thread::scope(|s| {
            let handles: Vec<_> = buckets
                .iter()
                .enumerate()
                .map(|(b, bucket)| {
                    let snapshot = &snapshot;
                    let bucket = bucket.as_slice();
                    let mut local_rng =
                        StdRng::seed_from_u64(seed ^ (epoch as u64) << 20 ^ b as u64);
                    s.spawn(move || {
                        if ctx.take_worker_panic(b, epoch) {
                            panic!("injected fault: bucket worker {b} panicked at epoch {epoch}");
                        }
                        let mut local = snapshot.clone();
                        let mut out = Vec::with_capacity(bucket.len());
                        for &v in bucket {
                            let x = sample_conditional(
                                graph,
                                &|u| local[u as usize],
                                v,
                                &mut local_rng,
                            );
                            local[v as usize] = x;
                            out.push((v, x));
                        }
                        out
                    })
                })
                .collect();
            // Keep the Err rather than unwrapping: a dead bucket worker
            // degrades the epoch instead of re-panicking at scope exit.
            handles.into_iter().map(|h| h.join()).collect()
        });
        for (b, res) in results.into_iter().enumerate() {
            let bucket_result = match res {
                Ok(out) => out,
                Err(payload) => {
                    // Jacobi-style updates read only the epoch snapshot,
                    // so re-sampling the dead worker's bucket here (with
                    // a fresh RNG stream) reproduces exactly the work it
                    // would have done.
                    let msg = panic_message(payload);
                    warnings.push(format!(
                        "bucket worker {b} panicked at epoch {epoch} ({msg}); its \
                         bucket was re-sampled sequentially"
                    ));
                    outcome = outcome.combine(RunOutcome::Degraded);
                    let mut local_rng =
                        StdRng::seed_from_u64(seed ^ (epoch as u64) << 20 ^ b as u64 ^ 0xDEAD);
                    let mut local = snapshot.clone();
                    let mut out = Vec::with_capacity(buckets[b].len());
                    for &v in &buckets[b] {
                        let x = sample_conditional(
                            graph,
                            &|u| local[u as usize],
                            v,
                            &mut local_rng,
                        );
                        local[v as usize] = x;
                        out.push((v, x));
                    }
                    out
                }
            };
            for (v, x) in bucket_result {
                // Buckets are disjoint, so each variable is overwritten
                // exactly once: comparing against the pre-write value
                // counts flips relative to the epoch snapshot.
                if assignment[v as usize] != x {
                    flips += 1;
                }
                assignment[v as usize] = x;
                if epoch >= burn_in {
                    counts.record(v, x);
                }
            }
        }
        if epoch >= burn_in {
            recorded = true;
            for var in graph.variables() {
                if let Some(e) = var.evidence {
                    counts.record(var.id, e);
                }
            }
        }
        telemetry.end_epoch(
            flips,
            query.len() as u64,
            assignment.iter().map(|&x| telemetry_indicator(x)),
        );
        if obs.is_enabled() && epoch.is_multiple_of(stride) {
            telemetry.record_pll(epoch, pseudo_log_likelihood(graph, &assignment));
        }
        if let Some(t0) = epoch_start {
            obs.histogram_record("infer.epoch_seconds", t0.elapsed().as_secs_f64());
        }
        next_epoch = epoch + 1;
        if let (Some(sink), true) = (ckpt.sink, ckpt.due(next_epoch, epochs)) {
            let state = CheckpointState::Parallel(chain_state(
                next_epoch, &assignment, &rng, &counts, recorded,
            ));
            save_checkpoint(ctx, sink, &state, &mut warnings, &mut outcome);
        }
    }
    if next_epoch == epochs {
        if let Some(sink) = ckpt.sink {
            let state = CheckpointState::Parallel(chain_state(
                epochs, &assignment, &rng, &counts, recorded,
            ));
            save_checkpoint(ctx, sink, &state, &mut warnings, &mut outcome);
        }
    }
    if !recorded {
        record_snapshot(graph, &assignment, &mut counts);
        warnings.push(
            "parallel random gibbs stopped before burn-in finished; marginals fall \
             back to a single-state snapshot"
                .to_owned(),
        );
    }
    let telemetry = telemetry.finish();
    telemetry.publish(obs, "infer.parallel");
    Ok(SamplerRun { counts, outcome, warnings, telemetry })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sya_fg::{exact_marginals, Factor, FactorKind, SpatialFactor, Variable};

    fn chain_graph() -> FactorGraph {
        // e -> a -> b with spatial a~b, evidence e = 1.
        let mut g = FactorGraph::new();
        let e = g.add_variable(Variable::binary(0, "e").with_evidence(1));
        let a = g.add_variable(Variable::binary(0, "a"));
        let b = g.add_variable(Variable::binary(0, "b"));
        g.add_factor(Factor::new(FactorKind::Imply, vec![e, a], 1.2));
        g.add_factor(Factor::new(FactorKind::Imply, vec![a, b], 0.8));
        g.add_spatial_factor(SpatialFactor::binary(a, b, 0.5));
        g
    }

    #[test]
    fn sample_index_respects_distribution() {
        let mut rng = StdRng::seed_from_u64(1);
        let probs = [0.1, 0.6, 0.3];
        let mut counts = [0usize; 3];
        for _ in 0..30_000 {
            counts[sample_index(&mut rng, &probs) as usize] += 1;
        }
        for (c, p) in counts.iter().zip(probs) {
            let freq = *c as f64 / 30_000.0;
            assert!((freq - p).abs() < 0.02, "freq {freq} vs p {p}");
        }
    }

    #[test]
    fn sequential_gibbs_matches_exact_marginals() {
        let g = chain_graph();
        let exact = exact_marginals(&g);
        let counts = sequential_gibbs(&g, 6000, 500, 42);
        for v in g.query_variables() {
            let est = counts.factual_score(v);
            assert!(
                (est - exact[v as usize]).abs() < 0.03,
                "var {v}: est {est}, exact {}",
                exact[v as usize]
            );
        }
        // Evidence stays clamped.
        assert_eq!(counts.factual_score(0), 1.0);
    }

    #[test]
    fn parallel_random_gibbs_converges_on_small_graph() {
        let g = chain_graph();
        let exact = exact_marginals(&g);
        let counts = parallel_random_gibbs(&g, 6000, 500, 2, 7);
        for v in g.query_variables() {
            let est = counts.factual_score(v);
            assert!(
                (est - exact[v as usize]).abs() < 0.05,
                "var {v}: est {est}, exact {}",
                exact[v as usize]
            );
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let g = chain_graph();
        let a = sequential_gibbs(&g, 200, 20, 9);
        let b = sequential_gibbs(&g, 200, 20, 9);
        assert_eq!(a, b);
        let c = sequential_gibbs(&g, 200, 20, 10);
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn burn_in_discards_samples() {
        let g = chain_graph();
        let counts = sequential_gibbs(&g, 100, 40, 3);
        assert_eq!(counts.total_samples(1), 60);
    }

    #[test]
    fn sequential_deadline_returns_timed_out_snapshot() {
        let g = chain_graph();
        let ctx = ExecContext::new(
            sya_runtime::RunBudget::unlimited().with_deadline(std::time::Duration::ZERO),
        );
        // Huge epoch count with a zero deadline: stops after one epoch,
        // before burn-in, so the snapshot fallback kicks in.
        let run = sequential_gibbs_with(&g, usize::MAX / 2, 500, 42, &ctx);
        assert_eq!(run.outcome, RunOutcome::TimedOut);
        assert!(!run.warnings.is_empty());
        for v in g.query_variables() {
            assert!(run.counts.total_samples(v) > 0);
            assert!(run.counts.factual_score(v).is_finite());
        }
    }

    #[test]
    fn sequential_cancellation_is_reported() {
        let g = chain_graph();
        let ctx = ExecContext::unbounded();
        ctx.token().cancel();
        let run = sequential_gibbs_with(&g, usize::MAX / 2, 0, 42, &ctx);
        assert_eq!(run.outcome, RunOutcome::Cancelled);
    }

    #[test]
    fn governed_sequential_matches_legacy_without_faults() {
        let g = chain_graph();
        let legacy = sequential_gibbs(&g, 200, 20, 9);
        let run = sequential_gibbs_with(&g, 200, 20, 9, &ExecContext::unbounded());
        assert_eq!(run.outcome, RunOutcome::Completed);
        assert!(run.warnings.is_empty());
        assert_eq!(legacy, run.counts);
    }

    #[test]
    fn injected_bucket_panic_degrades_parallel_gibbs() {
        use sya_runtime::FaultPlan;
        let g = chain_graph();
        let exact = exact_marginals(&g);
        let plan = FaultPlan {
            panic_worker_in_instance: Some(1), // bucket index 1
            panic_at_epoch: 600,               // after burn-in, mid-run
            ..FaultPlan::none()
        };
        let ctx = ExecContext::unbounded().with_faults(plan);
        let run = parallel_random_gibbs_with(&g, 6000, 500, 2, 7, &ctx);
        assert_eq!(run.outcome, RunOutcome::Degraded);
        assert!(
            run.warnings.iter().any(|w| w.contains("bucket worker 1")),
            "{:?}",
            run.warnings
        );
        // The sequential re-run kept the chain intact: marginals still
        // converge to the exact values.
        for v in g.query_variables() {
            let est = run.counts.factual_score(v);
            assert!(
                (est - exact[v as usize]).abs() < 0.05,
                "var {v}: est {est}, exact {}",
                exact[v as usize]
            );
        }
    }

    #[test]
    fn sequential_telemetry_tracks_epochs() {
        let g = chain_graph();
        let run = sequential_gibbs_with(&g, 50, 10, 42, &ExecContext::unbounded());
        assert_eq!(run.telemetry.epochs, 50);
        assert_eq!(run.telemetry.flip_rate.len(), 50);
        assert_eq!(run.telemetry.marginal_delta.len(), 50);
        assert_eq!(
            run.telemetry.samples_total,
            50 * g.query_variables().len() as u64
        );
        assert!(run.telemetry.flip_rate.iter().all(|r| (0.0..=1.0).contains(r)));
        // Running-mean deltas shrink like 1/t as the estimate stabilises.
        assert!(run.telemetry.marginal_delta[49] <= 0.05);
        // No observer attached: the costly pseudo-log-likelihood is skipped.
        assert!(run.telemetry.pll.is_empty());
    }

    #[test]
    fn sequential_publishes_series_when_observed() {
        use sya_obs::Obs;
        let g = chain_graph();
        let obs = Obs::enabled();
        let ctx = ExecContext::unbounded().with_obs(obs.clone());
        let run = sequential_gibbs_with(&g, 64, 0, 42, &ctx);
        // pll_stride(64) == 1: one evaluation per epoch.
        assert_eq!(run.telemetry.pll.len(), 64);
        assert!(run.telemetry.pll.iter().all(|(_, v)| v.is_finite()));
        let m = obs.metrics().unwrap();
        assert_eq!(m.series("infer.sequential.flip_rate").unwrap().len(), 64);
        assert_eq!(m.series("infer.sequential.marginal_delta").unwrap().len(), 64);
        assert_eq!(
            m.counter_value("infer.sequential.samples_total"),
            Some(run.telemetry.samples_total)
        );
        assert_eq!(m.gauge_value("infer.sequential.epochs"), Some(64.0));
    }

    #[test]
    fn parallel_telemetry_tracks_epochs() {
        let g = chain_graph();
        let run = parallel_random_gibbs_with(&g, 30, 5, 2, 7, &ExecContext::unbounded());
        assert_eq!(run.telemetry.flip_rate.len(), 30);
        assert_eq!(run.telemetry.marginal_delta.len(), 30);
        assert_eq!(
            run.telemetry.samples_total,
            30 * g.query_variables().len() as u64
        );
    }

    #[test]
    fn no_query_variables_is_fine() {
        let mut g = FactorGraph::new();
        g.add_variable(Variable::binary(0, "e").with_evidence(1));
        let counts = sequential_gibbs(&g, 10, 0, 1);
        assert_eq!(counts.factual_score(0), 1.0);
    }
}
