//! The construction pipeline: program text → compiled rules → grounding →
//! inference → knowledge base.

use crate::config::{EngineMode, SamplerKind, SyaConfig};
use crate::error::SyaError;
use crate::result::{KnowledgeBase, Timings};
use std::time::Instant;
use sya_ckpt::CheckpointStore;
use sya_geom::DistanceMetric;
use sya_ground::{expand_step_function_rules, Grounder, Grounding};
use sya_infer::{
    parallel_random_gibbs_ckpt, sequential_gibbs_ckpt, spatial_gibbs_ckpt, CheckpointOptions,
    CheckpointState, PyramidIndex, SamplerRun,
};
use sya_lang::{compile_with, parse_program_with, CompiledProgram, GeomConstants};
use sya_obs::Obs;
use sya_runtime::ExecContext;
use sya_store::{Database, Value};

/// Step-function expansion beyond this rule multiple is the blow-up the
/// paper warns about (Section III): the grounding workload grows with
/// the step count, so an observed session flags it as a warning event.
const STEPFN_BLOWUP_FACTOR: usize = 8;

/// A compiled program ready to construct knowledge bases. Cloning is
/// cheap relative to construction (rule set + config + obs handle) and
/// lets the serving layer hand each shard replica its own session.
#[derive(Clone)]
pub struct SyaSession {
    compiled: CompiledProgram,
    config: SyaConfig,
    obs: Obs,
}

impl SyaSession {
    /// Parses, validates, and compiles a Sya DDlog program.
    pub fn new(
        program: &str,
        constants: GeomConstants,
        metric: DistanceMetric,
        config: SyaConfig,
    ) -> Result<Self, SyaError> {
        Self::new_with_obs(program, constants, metric, config, Obs::disabled())
    }

    /// [`new`](Self::new) with an observability handle: parse/compile run
    /// under `lang.*` spans, the step-function expansion is measured, and
    /// every later [`construct`](Self::construct) call without an explicit
    /// context inherits the handle.
    pub fn new_with_obs(
        program: &str,
        constants: GeomConstants,
        metric: DistanceMetric,
        config: SyaConfig,
        obs: Obs,
    ) -> Result<Self, SyaError> {
        let ast = parse_program_with(program, &obs)?;
        let mut compiled = compile_with(&ast, &constants, metric, &obs)?;

        // Step-function mode rewrites the rule set before grounding.
        if let EngineMode::DeepDiveStepFn(spec) = &config.mode {
            let rules_before = compiled.rules.len();
            let shape = spec
                .shape_bandwidth
                .map(|bw| sya_fg::WeightingFn::Exponential { scale: 1.0, bandwidth: bw });
            compiled.rules = expand_step_function_rules(&compiled.rules, spec, shape.as_ref());
            obs.gauge_set("lang.stepfn_expanded_rules", compiled.rules.len() as f64);
            if compiled.rules.len() >= rules_before.max(1) * STEPFN_BLOWUP_FACTOR {
                obs.warn(format!(
                    "step-function expansion blew the rule set up from {rules_before} to \
                     {} rules; grounding cost scales with the step count",
                    compiled.rules.len()
                ));
            }
        }

        let mut config = config;
        config.ground.metric = metric;
        Ok(SyaSession { compiled, config, obs })
    }

    /// The session's observability handle (disabled unless the session
    /// was created via [`new_with_obs`](Self::new_with_obs)).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// The compiled rule set (after any step-function expansion).
    pub fn compiled(&self) -> &CompiledProgram {
        &self.compiled
    }

    pub fn config(&self) -> &SyaConfig {
        &self.config
    }

    /// Grounds and infers: the full knowledge base construction run.
    ///
    /// `evidence` maps `(relation, head values)` to an observed value.
    /// Runs under an [`ExecContext`] built from the config's budget; use
    /// [`construct_with`](Self::construct_with) to supply your own
    /// context (external cancellation token, fault plan).
    pub fn construct(
        &self,
        db: &mut Database,
        evidence: &dyn Fn(&str, &[Value]) -> Option<u32>,
    ) -> Result<KnowledgeBase, SyaError> {
        let ctx =
            ExecContext::new(self.config.budget.clone()).with_obs(self.obs.clone());
        self.construct_with(db, evidence, &ctx)
    }

    /// [`construct`](Self::construct) under a caller-owned execution
    /// context. The deadline/cancellation stop the run at the next
    /// checkpoint with partial marginals (see [`KnowledgeBase::outcome`]);
    /// hard factor/variable/memory limits abort grounding with
    /// [`SyaError::BudgetExceeded`].
    pub fn construct_with(
        &self,
        db: &mut Database,
        evidence: &dyn Fn(&str, &[Value]) -> Option<u32>,
        ctx: &ExecContext,
    ) -> Result<KnowledgeBase, SyaError> {
        let obs = ctx.obs();
        let (grounding, grounding_time) = self.ground_phase(db, evidence, ctx)?;

        // Phase 2: inference. Even when grounding was interrupted, the
        // graph is a valid prefix: run inference (the same context stops
        // it after its first epoch) so every atom gets a finite score.
        let mut outcome = grounding.outcome;
        let mut warnings = Vec::new();
        if outcome.is_partial() {
            warnings.push(format!(
                "grounding stopped early ({outcome}); the factor graph is a valid \
                 prefix and marginals cover only the grounded atoms"
            ));
        }
        // Phase 1.5: durability. Bind a checkpoint store to the grounded
        // graph's fingerprint and, on resume, recover the newest valid
        // checkpoint (damaged or mismatched files are skipped with an
        // `error` event each; the run then falls back to an older good
        // checkpoint or a clean restart — never a panic).
        let (store, resume_state) =
            self.prepare_checkpoints(&grounding.graph, &mut warnings, obs)?;
        let ckpt = match &store {
            Some(s) => CheckpointOptions::to_sink(s, self.config.checkpoint.every),
            None => CheckpointOptions::none(),
        };

        // Sharding routes through the shard executor, which only speaks
        // the spatial sampler's sweep schedule.
        if self.config.sharding.is_enabled() && self.config.sampler != SamplerKind::Spatial {
            return Err(SyaError::Config(format!(
                "sharding (--shards {}) requires the spatial sampler; the {:?} sampler \
                 has no pyramid partition to cut",
                self.config.sharding.shards, self.config.sampler
            )));
        }

        let t1 = Instant::now();
        let infer = &self.config.infer;
        let infer_span = obs.span("pipeline.infer");
        let (run, pyramid) = match self.config.sampler {
            SamplerKind::Spatial => {
                let tp = Instant::now();
                let pyramid = {
                    let mut span = obs.span("infer.pyramid_build");
                    let pyramid =
                        PyramidIndex::build(&grounding.graph, infer.levels, infer.cell_capacity);
                    span.set_attr("levels", infer.levels);
                    pyramid
                };
                obs.gauge_set("infer.pyramid_build_seconds", tp.elapsed().as_secs_f64());
                if self.config.sharding.is_enabled() {
                    let run = self.run_sharded_inference(&grounding.graph, &pyramid, ctx)?;
                    (run, Some(pyramid))
                } else {
                    let chains = match resume_state {
                        Some(CheckpointState::Spatial { instances }) => Some(instances),
                        _ => None,
                    };
                    let run =
                        spatial_gibbs_ckpt(&grounding.graph, &pyramid, infer, ctx, ckpt, chains)?;
                    (run, Some(pyramid))
                }
            }
            SamplerKind::Sequential => {
                let chain = match resume_state {
                    Some(CheckpointState::Sequential(c)) => Some(c),
                    _ => None,
                };
                let run = sequential_gibbs_ckpt(
                    &grounding.graph,
                    infer.epochs,
                    infer.burn_in,
                    infer.seed,
                    ctx,
                    ckpt,
                    chain,
                )?;
                (run, None)
            }
            SamplerKind::ParallelRandom(k) => {
                let chain = match resume_state {
                    Some(CheckpointState::Parallel(c)) => Some(c),
                    _ => None,
                };
                let run = parallel_random_gibbs_ckpt(
                    &grounding.graph,
                    infer.epochs,
                    infer.burn_in,
                    k,
                    infer.seed,
                    ctx,
                    ckpt,
                    chain,
                )?;
                (run, None)
            }
        };
        drop(infer_span);
        let inference_time = t1.elapsed();
        obs.gauge_set("phase.inference_seconds", inference_time.as_secs_f64());
        // Fold hot-path profiler totals (if armed) into the registry so
        // `--metrics-out` dumps and `/metrics` carry `profile.*`.
        sya_obs::profile::publish(obs);
        outcome = outcome.combine(run.outcome);
        warnings.extend(run.warnings);

        Ok(KnowledgeBase {
            grounding,
            counts: run.counts,
            pyramid,
            timings: Timings { grounding: grounding_time, inference: inference_time },
            config: self.config.clone(),
            outcome,
            warnings,
            telemetry: run.telemetry,
        })
    }

    /// The sharded spatial path (DESIGN.md §12): cuts the grounded
    /// graph along pyramid cells at the configured partition level,
    /// runs one sampler chain per shard on its own thread, and merges
    /// the per-shard marginals. Without a retirement policy (the `sya
    /// run` path) the merged counts are bit-identical to `--shards 1`.
    /// Per-shard checkpoints live in `shard-NN/` subdirectories of the
    /// checkpoint dir, tied together by a manifest; the flat-directory
    /// recovery of [`prepare_checkpoints`] finds nothing there, so the
    /// two layouts never shadow each other.
    fn run_sharded_inference(
        &self,
        graph: &sya_fg::FactorGraph,
        pyramid: &PyramidIndex,
        ctx: &ExecContext,
    ) -> Result<SamplerRun, SyaError> {
        let plan = self.shard_plan(graph, ctx.obs());
        let report = sya_shard::run_sharded(
            graph,
            pyramid,
            &plan,
            &self.config.infer,
            self.retire_policy(),
            &self.shard_ckpt_options(),
            ctx,
        )?;
        Ok(SamplerRun {
            counts: report.counts,
            outcome: report.outcome,
            warnings: report.warnings,
            telemetry: report.telemetry,
        })
    }

    /// Phase 1 of every construction path: grounding under a
    /// `pipeline.ground` span. Shared by [`construct_with`]
    /// (Self::construct_with) and the cluster roles, which must all
    /// ground the *identical* graph — the wire rendezvous verifies this
    /// by fingerprint.
    fn ground_phase(
        &self,
        db: &mut Database,
        evidence: &dyn Fn(&str, &[Value]) -> Option<u32>,
        ctx: &ExecContext,
    ) -> Result<(Grounding, std::time::Duration), SyaError> {
        let obs = ctx.obs();
        // The incremental path's counters exist from the start of every
        // observed run: dashboards and `--metrics-out` dumps then show an
        // explicit zero instead of a missing key before the first
        // evidence/extend update arrives.
        obs.counter_add("infer.incremental.resampled_vars", 0);
        obs.counter_add("infer.incremental.cells_touched", 0);
        let t0 = Instant::now();
        let grounding = {
            let mut span = obs.span("pipeline.ground");
            let mut grounder = Grounder::new(&self.compiled, self.config.ground.clone());
            let grounding = grounder.ground_with(db, evidence, ctx)?;
            span.set_attr("variables", grounding.graph.num_variables());
            span.set_attr(
                "factors",
                grounding.graph.num_factors() + grounding.graph.num_spatial_factors(),
            );
            grounding
        };
        let grounding_time = t0.elapsed();
        obs.gauge_set("phase.grounding_seconds", grounding_time.as_secs_f64());
        Ok((grounding, grounding_time))
    }

    /// Cuts the grounded graph into the configured shard plan. Every
    /// cluster role derives the same plan from the same graph, so the
    /// owner table and halo sets agree without being sent on the wire.
    fn shard_plan(&self, graph: &sya_fg::FactorGraph, obs: &Obs) -> sya_shard::ShardPlan {
        let sharding = &self.config.sharding;
        // `1u32 << level` cell coordinates stay in range at level <= 12;
        // finer cuts than 4096×4096 cells buy nothing on real extents.
        let level = sharding.partition_level.min(12);
        let cells = sya_ground::pyramid_cell_map(graph, level);
        let plan = sya_shard::ShardPlan::build(graph, &cells, sharding.shards, level);
        for s in plan.summaries() {
            obs.info(format!(
                "shard {}: {} owned vars, {} halo vars, {} boundary factors",
                s.shard, s.owned_vars, s.halo_vars, s.boundary_factors
            ));
        }
        plan
    }

    /// The retirement policy implied by the sharding config: `None`
    /// unless a tolerance was set, preserving bit-parity with the
    /// unsharded run by default.
    fn retire_policy(&self) -> Option<sya_shard::RetirePolicy> {
        self.config.sharding.retire_tol.map(|tol| sya_shard::RetirePolicy {
            tol,
            strict: self.config.sharding.retire_strict,
            ..sya_shard::RetirePolicy::default()
        })
    }

    fn shard_ckpt_options(&self) -> sya_shard::ShardCkptOptions {
        sya_shard::ShardCkptOptions {
            dir: self.config.checkpoint.dir.clone(),
            every: self.config.checkpoint.every,
            resume: self.config.checkpoint.resume,
        }
    }

    /// Validates that this session's config can run as a cluster role.
    fn check_cluster_config(&self) -> Result<(), SyaError> {
        if !self.config.sharding.is_enabled() {
            return Err(SyaError::Config(
                "a cluster run needs --shards >= 1 so the partitioner has a plan to cut"
                    .to_owned(),
            ));
        }
        if self.config.sampler != SamplerKind::Spatial {
            return Err(SyaError::Config(format!(
                "cluster roles require the spatial sampler; the {:?} sampler has no \
                 pyramid partition to cut",
                self.config.sampler
            )));
        }
        Ok(())
    }

    /// Coordinator side of a multi-process cluster run (DESIGN.md §13):
    /// grounds the graph, cuts the shard plan, then supervises worker
    /// processes spawned through `launcher` — halo exchange runs over
    /// sockets instead of the in-process board. Worker crashes restart
    /// from per-shard checkpoints within the restart budget; beyond it
    /// the run degrades ([`sya_runtime::RunOutcome::Degraded`]) instead
    /// of failing, with per-shard health in the returned KB's report.
    pub fn construct_cluster(
        &self,
        db: &mut Database,
        evidence: &dyn Fn(&str, &[Value]) -> Option<u32>,
        launcher: &dyn sya_shard::WorkerLauncher,
        cluster: &sya_shard::ClusterConfig,
        status: Option<&sya_shard::StatusServer>,
        ctx: &ExecContext,
    ) -> Result<KnowledgeBase, SyaError> {
        self.check_cluster_config()?;
        let obs = ctx.obs();
        let (grounding, grounding_time) = self.ground_phase(db, evidence, ctx)?;
        if grounding.outcome.is_partial() {
            // A partial graph would never rendezvous: the workers ground
            // the full graph and their fingerprints would not match.
            return Err(SyaError::Config(format!(
                "grounding stopped early ({}); a cluster run needs the complete graph, \
                 raise the budget or run in-process",
                grounding.outcome
            )));
        }
        let infer = &self.config.infer;
        let pyramid = PyramidIndex::build(&grounding.graph, infer.levels, infer.cell_capacity);
        let plan = self.shard_plan(&grounding.graph, obs);
        let t1 = Instant::now();
        let report = sya_shard::run_cluster(
            &grounding.graph,
            &plan,
            infer,
            &self.shard_ckpt_options(),
            cluster,
            launcher,
            status,
            ctx,
        )?;
        let inference_time = t1.elapsed();
        obs.gauge_set("phase.inference_seconds", inference_time.as_secs_f64());
        sya_obs::profile::publish(obs);
        let outcome = grounding.outcome.combine(report.outcome);
        Ok(KnowledgeBase {
            grounding,
            counts: report.counts,
            pyramid: Some(pyramid),
            timings: Timings { grounding: grounding_time, inference: inference_time },
            config: self.config.clone(),
            outcome,
            warnings: report.warnings,
            telemetry: report.telemetry,
        })
    }

    /// Worker side of a cluster run: grounds the identical graph (same
    /// program, data, evidence, and config as the coordinator), derives
    /// the same shard plan, and joins the coordinator at
    /// `opts.connect`. Returns when the protocol ends — `Done`
    /// acknowledged or a `Stop`/socket loss from the coordinator.
    pub fn run_cluster_worker(
        &self,
        db: &mut Database,
        evidence: &dyn Fn(&str, &[Value]) -> Option<u32>,
        opts: &sya_shard::WorkerOptions,
        ctx: &ExecContext,
    ) -> Result<(), SyaError> {
        self.check_cluster_config()?;
        let (grounding, _) = self.ground_phase(db, evidence, ctx)?;
        let plan = self.shard_plan(&grounding.graph, ctx.obs());
        // The session config is the single source of truth for the
        // checkpoint wiring and retirement policy: the coordinator and
        // every worker parse the same flags, so deriving both here keeps
        // the fleet consistent without trusting the caller to copy them.
        let opts = sya_shard::WorkerOptions {
            ckpt: self.shard_ckpt_options(),
            retire: self.retire_policy(),
            ..opts.clone()
        };
        sya_shard::run_worker(&grounding.graph, &plan, &self.config.infer, &opts, ctx).map_err(
            |detail| SyaError::Infer(sya_infer::InferError::Cluster { detail }),
        )
    }

    /// Phase 1.5 of [`construct_with`](Self::construct_with): binds a
    /// [`CheckpointStore`] to the grounded graph's fingerprint, persists
    /// the graph beside the checkpoints as an integrity witness, and —
    /// when resuming — scans for the newest checkpoint that passes
    /// header, CRC, fingerprint, and shape validation. Unusable files
    /// are reported (severity `error`) and skipped, so a corrupted
    /// latest checkpoint degrades to an older good one, and a directory
    /// with nothing usable degrades to a clean restart.
    fn prepare_checkpoints(
        &self,
        graph: &sya_fg::FactorGraph,
        warnings: &mut Vec<String>,
        obs: &Obs,
    ) -> Result<(Option<CheckpointStore>, Option<CheckpointState>), SyaError> {
        let cfg = &self.config.checkpoint;
        let Some(dir) = &cfg.dir else { return Ok((None, None)) };
        let fingerprint = graph.fingerprint();
        let store = CheckpointStore::create(dir, fingerprint)?;
        let witness = dir.join("factor-graph.json");
        if cfg.resume && witness.exists() {
            match sya_fg::FactorGraph::load_from_path(&witness) {
                Ok(persisted) if persisted.fingerprint() == fingerprint => {
                    obs.info(format!(
                        "resume: persisted factor graph matches this run \
                         (fingerprint {fingerprint:#018x})"
                    ));
                }
                Ok(persisted) => {
                    let msg = format!(
                        "persisted factor graph (fingerprint {:#018x}) does not match this \
                         run's graph ({fingerprint:#018x}); its checkpoints will be skipped",
                        persisted.fingerprint()
                    );
                    obs.error(msg.clone());
                    warnings.push(msg);
                    graph.save_to_path(&witness)?;
                }
                Err(e) => {
                    let msg =
                        format!("persisted factor graph is unreadable ({e}); rewriting it");
                    obs.error(msg.clone());
                    warnings.push(msg);
                    graph.save_to_path(&witness)?;
                }
            }
        } else {
            graph.save_to_path(&witness)?;
        }
        if !cfg.resume {
            return Ok((Some(store), None));
        }
        let (expected_kind, instances) = match self.config.sampler {
            SamplerKind::Spatial => ("spatial", self.config.infer.instances.max(1)),
            SamplerKind::Sequential => ("sequential", 1),
            SamplerKind::ParallelRandom(_) => ("parallel", 1),
        };
        let recovery = store.recover(|state| {
            if state.kind() != expected_kind {
                return Err(format!(
                    "checkpoint was written by the {} sampler, this run uses {expected_kind}",
                    state.kind()
                ));
            }
            state.validate_for(graph, instances)
        })?;
        for (path, reason) in &recovery.skipped {
            // Load errors (CkptError) already name the file; validator
            // reasons are bare and need the path added here.
            let msg = if reason.starts_with("checkpoint ") {
                format!("{reason}; skipped")
            } else {
                format!("checkpoint {} is unusable ({reason}); skipped", path.display())
            };
            obs.error(msg.clone());
            warnings.push(msg);
        }
        let state = match recovery.state {
            Some((path, state)) => {
                obs.info(format!(
                    "resuming from checkpoint {} at epoch {}",
                    path.display(),
                    state.epoch()
                ));
                Some(state)
            }
            None => {
                obs.info("no usable checkpoint found; starting the chains fresh");
                None
            }
        };
        Ok((Some(store), state))
    }

    /// Incrementally extends a knowledge base after new input tuples
    /// arrive (paper Section II's update path): inserts the rows,
    /// delta-grounds only the affected rules, bulk-inserts the new ground
    /// atoms into the pyramid index, and re-samples only the concliques
    /// of the new variables.
    ///
    /// `new_rows` pairs relation names with tuples to insert. Requires a
    /// knowledge base built with the spatial sampler (the pyramid is the
    /// update structure); returns the update statistics.
    pub fn extend(
        &self,
        kb: &mut KnowledgeBase,
        db: &mut Database,
        new_rows: &[(String, sya_store::Row)],
        evidence: &dyn Fn(&str, &[Value]) -> Option<u32>,
    ) -> Result<ExtendStats, SyaError> {
        let t0 = Instant::now();
        // 1. Insert rows, tracking indices per relation.
        let mut delta: std::collections::HashMap<String, Vec<usize>> = Default::default();
        for (relation, row) in new_rows {
            let table = db.table_mut(relation).map_err(|e| {
                SyaError::Ground(sya_ground::GroundError::Store(e))
            })?;
            delta.entry(relation.clone()).or_default().push(table.len());
            table
                .insert(row.clone())
                .map_err(|e| SyaError::Ground(sya_ground::GroundError::Store(e)))?;
        }

        // 2. Delta grounding.
        let vars_before = kb.grounding.graph.num_variables();
        let factors_before = kb.grounding.graph.num_factors();
        let spatial_before = kb.grounding.graph.num_spatial_factors();
        let mut grounder = Grounder::new(&self.compiled, self.config.ground.clone());
        let new_vars = grounder
            .ground_delta(db, evidence, &mut kb.grounding, &delta)?;
        let grounding_time = t0.elapsed();

        // 3. Bulk-insert the new atoms into the pyramid and grow the
        //    sample counters.
        kb.counts.extend_for(&kb.grounding.graph);
        // The restricted re-sample warm-starts from these counts:
        // existing variables at their converged quantiles, new ones at 0
        // (they are re-sampled anyway — only the frozen surroundings'
        // values matter).
        let t1 = Instant::now();
        let mut resampled = 0usize;
        if let Some(pyramid) = kb.pyramid.as_mut() {
            for &v in &new_vars {
                if let Some(p) = kb.grounding.graph.variable(v).location {
                    pyramid.insert(v, p, &kb.grounding.graph);
                }
            }
            // 4. Re-sample only the new variables' concliques.
            if !new_vars.is_empty() {
                let (fresh, touched) = sya_infer::incremental_spatial_gibbs(
                    &kb.grounding.graph,
                    pyramid,
                    &new_vars,
                    &self.config.infer,
                    &kb.counts,
                    &self.obs,
                );
                resampled = touched.len();
                kb.counts.merge_affected(&fresh, touched);
            }
        }
        // Saturating: delta grounding only adds today, but a future
        // compacting pass may shrink the graph mid-extend, and a usize
        // underflow here would panic instead of reporting zero growth.
        Ok(ExtendStats {
            new_variables: kb.grounding.graph.num_variables().saturating_sub(vars_before),
            new_logical_factors: kb.grounding.graph.num_factors().saturating_sub(factors_before),
            new_spatial_factors: kb
                .grounding
                .graph
                .num_spatial_factors()
                .saturating_sub(spatial_before),
            resampled,
            grounding: grounding_time,
            inference: t1.elapsed(),
        })
    }
}

impl SyaSession {
    /// Fits the weights of every inference rule's factors to training
    /// labels by pseudo-likelihood gradient ascent (the conventional
    /// MLN weight-learning step DeepDive performs; Sya's *spatial*
    /// weights stay closed-form). `training` maps head atoms to their
    /// observed training value; atoms without a label fall back to their
    /// evidence value (or 0). Returns `(rule label, learned weight)`
    /// pairs; the knowledge base's factors are updated in place — re-run
    /// inference afterwards to refresh the scores.
    pub fn learn_weights(
        &self,
        kb: &mut KnowledgeBase,
        training: &dyn Fn(&str, &[Value]) -> Option<u32>,
        cfg: &sya_infer::LearnConfig,
    ) -> Vec<(String, f64)> {
        let assignment: Vec<u32> = (0..kb.grounding.graph.num_variables())
            .map(|v| {
                let (relation, values) = &kb.grounding.atom_meta[v];
                training(relation, values)
                    .or(kb.grounding.graph.variables()[v].evidence)
                    .unwrap_or(0)
            })
            .collect();
        let grouped = kb.grounding.rule_factor_groups();
        let groups: Vec<Vec<u32>> = grouped.iter().map(|(_, g)| g.clone()).collect();
        let learned =
            sya_infer::learn_weights(&mut kb.grounding.graph, &groups, &assignment, cfg);
        grouped
            .into_iter()
            .map(|(label, _)| label)
            .zip(learned)
            .collect()
    }
}

/// Statistics of one [`SyaSession::extend`] call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExtendStats {
    pub new_variables: usize,
    pub new_logical_factors: usize,
    pub new_spatial_factors: usize,
    /// Variables re-sampled by the conclique-restricted update.
    pub resampled: usize,
    pub grounding: std::time::Duration,
    pub inference: std::time::Duration,
}

#[cfg(test)]
mod tests {
    use super::*;
    use sya_data::{ebola_dataset, gwdb_dataset, GwdbConfig};

    fn build(dataset: &mut sya_data::Dataset, config: SyaConfig) -> KnowledgeBase {
        let session = SyaSession::new(
            &dataset.program,
            dataset.constants.clone(),
            dataset.metric,
            config,
        )
        .unwrap();
        let evidence = dataset.evidence.clone();
        session
            .construct(&mut dataset.db, &move |_, vals| {
                vals.first()
                    .and_then(Value::as_int)
                    .and_then(|id| evidence.get(&id).copied())
            })
            .unwrap()
    }

    #[test]
    fn ebola_pipeline_reproduces_fig1_ordering() {
        let mut d = ebola_dataset();
        let cfg = SyaConfig::sya()
            .with_epochs(2000)
            .with_seed(3)
            .with_bandwidth(60.0)
            .with_spatial_radius(250.0);
        let kb = build(&mut d, cfg);
        let scores = kb.scores_by_id("HasEbola");
        assert_eq!(scores.len(), 4);
        let margibi = scores[1].1;
        let bong = scores[2].1;
        let gbarpolu = scores[3].1;
        // The paper's key qualitative result: Margibi > Bong > Gbarpolu,
        // with Gbarpolu well above zero (no boolean cliff).
        assert!(margibi > bong, "Margibi {margibi} vs Bong {bong}");
        assert!(bong > gbarpolu, "Bong {bong} vs Gbarpolu {gbarpolu}");
        assert!(gbarpolu > 0.05, "Gbarpolu must not be cut off: {gbarpolu}");
        // Evidence county reports 1.0.
        assert_eq!(scores[0].1, 1.0);
    }

    #[test]
    fn deepdive_mode_gives_gbarpolu_the_boolean_cliff() {
        let mut d = ebola_dataset();
        let kb = build(&mut d, SyaConfig::deepdive().with_epochs(2000).with_seed(3));
        let scores = kb.scores_by_id("HasEbola");
        let margibi = scores[1].1;
        let bong = scores[2].1;
        let gbarpolu = scores[3].1;
        // Margibi and Bong satisfy the 150 mi predicate and get similar
        // scores (the boolean cliff); Gbarpolu is outside the cutoff and
        // collapses to the negative prior. The diagnostic difference vs
        // Sya: no graded ordering between Margibi and Bong.
        assert!((margibi - bong).abs() < 0.1, "boolean predicates give similar scores");
        // Gbarpolu only feels the negative prior: sigma(-0.8) ~ 0.31.
        assert!(gbarpolu < margibi, "gbarpolu {gbarpolu} must trail the in-cutoff counties");
        assert!((gbarpolu - 0.31).abs() < 0.1, "gbarpolu {gbarpolu}");
    }

    #[test]
    fn step_function_mode_multiplies_rules_and_grounding_queries() {
        let mut d = gwdb_dataset(&GwdbConfig { n_wells: 120, ..Default::default() });
        let base = build(&mut d, SyaConfig::deepdive().with_epochs(50));
        let mut d2 = gwdb_dataset(&GwdbConfig { n_wells: 120, ..Default::default() });
        let mut cfg = SyaConfig::deepdive_stepfn(10);
        cfg = cfg.with_epochs(50);
        let step = build(&mut d2, cfg);
        assert!(step.grounding.stats.rules_executed > base.grounding.stats.rules_executed);
        assert!(step.grounding.stats.queries_executed > base.grounding.stats.queries_executed);
    }

    #[test]
    fn timings_are_recorded() {
        let mut d = gwdb_dataset(&GwdbConfig { n_wells: 80, ..Default::default() });
        let kb = build(&mut d, SyaConfig::sya().with_epochs(100));
        assert!(kb.timings.grounding.as_nanos() > 0);
        assert!(kb.timings.inference.as_nanos() > 0);
        assert!(kb.pyramid.is_some());
    }

    #[test]
    fn query_scores_exclude_evidence() {
        let mut d = gwdb_dataset(&GwdbConfig { n_wells: 100, ..Default::default() });
        let n_evidence = d.evidence.len();
        let kb = build(&mut d, SyaConfig::sya().with_epochs(100));
        let all = kb.scores_by_id("IsSafe");
        let query = kb.query_scores_by_id("IsSafe");
        assert_eq!(all.len(), 100);
        assert_eq!(query.len(), 100 - n_evidence);
    }

    #[test]
    fn incremental_update_resamples_affected_region_only() {
        let mut d = gwdb_dataset(&GwdbConfig { n_wells: 150, ..Default::default() });
        let mut kb = build(&mut d, SyaConfig::sya().with_epochs(200));
        let target = kb.grounding.atoms_of("IsSafe")[0];
        let (elapsed, resampled) = kb.update_evidence_incremental(&[(target, Some(1))]);
        assert!(resampled > 0);
        assert!(resampled < 150, "incremental must not touch everything");
        assert!(elapsed.as_nanos() > 0);
        assert_eq!(kb.score_of(target), 1.0);
    }

    #[test]
    fn parallel_random_sampler_works_end_to_end() {
        let mut d = gwdb_dataset(&GwdbConfig { n_wells: 60, ..Default::default() });
        let mut cfg = SyaConfig::sya().with_epochs(100);
        cfg.sampler = SamplerKind::ParallelRandom(4);
        let kb = build(&mut d, cfg);
        assert_eq!(kb.scores_by_id("IsSafe").len(), 60);
        assert!(kb.pyramid.is_none());
        // Incremental update gracefully no-ops without a pyramid.
        let (t, n) = {
            let mut kb = kb;
            kb.update_evidence_incremental(&[(0, Some(1))])
        };
        assert_eq!(n, 0);
        assert_eq!(t, std::time::Duration::ZERO);
    }

    #[test]
    fn extend_grows_the_knowledge_base_incrementally() {
        use sya_geom::Point;
        let mut d = gwdb_dataset(&GwdbConfig { n_wells: 200, ..Default::default() });
        let cfg = SyaConfig::sya()
            .with_epochs(200)
            .with_bandwidth(15.0)
            .with_spatial_radius(30.0);
        let session =
            SyaSession::new(&d.program, d.constants.clone(), d.metric, cfg).unwrap();
        let evidence = d.evidence.clone();
        let ev = move |_: &str, vals: &[Value]| {
            vals.first()
                .and_then(Value::as_int)
                .and_then(|id| evidence.get(&id).copied())
        };
        let mut kb = session.construct(&mut d.db, &ev).unwrap();
        assert_eq!(kb.grounding.graph.num_variables(), 200);

        // Add three new wells near existing ones.
        let new_rows: Vec<(String, Vec<Value>)> = (0..3)
            .map(|i| {
                (
                    "Well".to_owned(),
                    vec![
                        Value::Int(1000 + i),
                        Value::from(Point::new(100.0 + i as f64, 100.0)),
                        Value::Double(0.1),
                        Value::Double(0.2),
                    ],
                )
            })
            .collect();
        let stats = session.extend(&mut kb, &mut d.db, &new_rows, &ev).unwrap();
        assert_eq!(stats.new_variables, 3);
        assert_eq!(kb.grounding.graph.num_variables(), 203);
        assert!(stats.resampled >= 3, "new atoms must be sampled: {stats:?}");
        assert!(stats.resampled < 203, "must not resample everything");
        // The new atoms have scores.
        let score = kb
            .factual_score("IsSafe", &[Value::Int(1000), Value::from(Point::new(100.0, 100.0))])
            .expect("new atom exists");
        assert!((0.0..=1.0).contains(&score));
        // Query API sees the extended KB.
        assert_eq!(kb.query("IsSafe").run().len(), 203);
    }

    #[test]
    fn weight_learning_moves_rule_weights_toward_the_data() {
        let mut d = gwdb_dataset(&GwdbConfig { n_wells: 300, ..Default::default() });
        let cfg = SyaConfig::sya()
            .with_epochs(100)
            .with_bandwidth(15.0)
            .with_spatial_radius(30.0);
        let session =
            SyaSession::new(&d.program, d.constants.clone(), d.metric, cfg).unwrap();
        let evidence = d.evidence.clone();
        let mut kb = session
            .construct(&mut d.db, &move |_, vals| {
                vals.first()
                    .and_then(Value::as_int)
                    .and_then(|id| evidence.get(&id).copied())
            })
            .unwrap();
        // Training labels: the full ground truth, binarized.
        let truth = d.truth.clone();
        let training = move |_: &str, vals: &[Value]| {
            vals.first()
                .and_then(Value::as_int)
                .and_then(|id| truth.get(&id).map(|&t| t as u32))
        };
        let before = sya_infer::pseudo_log_likelihood(
            &kb.grounding.graph,
            &(0..kb.grounding.graph.num_variables())
                .map(|v| {
                    let (r, vals) = &kb.grounding.atom_meta[v];
                    training(r, vals).unwrap_or(0)
                })
                .collect(),
        );
        let learned = session.learn_weights(
            &mut kb,
            &training,
            &sya_infer::LearnConfig { learning_rate: 0.2, iterations: 30, l2: 0.01 },
        );
        // One learned weight per inference rule (10 in the GWDB program).
        assert_eq!(learned.len(), 10);
        let after = sya_infer::pseudo_log_likelihood(
            &kb.grounding.graph,
            &(0..kb.grounding.graph.num_variables())
                .map(|v| {
                    let (r, vals) = &kb.grounding.atom_meta[v];
                    training(r, vals).unwrap_or(0)
                })
                .collect(),
        );
        assert!(after > before, "PLL must improve: {before} -> {after}");
    }

    #[test]
    fn retract_atoms_removes_them_from_scores_and_queries() {
        let mut d = gwdb_dataset(&GwdbConfig { n_wells: 120, ..Default::default() });
        let cfg = SyaConfig::sya()
            .with_epochs(100)
            .with_bandwidth(15.0)
            .with_spatial_radius(30.0);
        let session =
            SyaSession::new(&d.program, d.constants.clone(), d.metric, cfg).unwrap();
        let evidence = d.evidence.clone();
        let mut kb = session
            .construct(&mut d.db, &move |_, vals| {
                vals.first()
                    .and_then(Value::as_int)
                    .and_then(|id| evidence.get(&id).copied())
            })
            .unwrap();
        let victims: Vec<u32> = kb.grounding.atoms_of("IsSafe")[..5].to_vec();
        let removed = kb.retract_atoms(&victims);
        assert_eq!(removed, 5);
        assert_eq!(kb.grounding.graph.num_variables(), 115);
        assert_eq!(kb.scores_by_id("IsSafe").len(), 115);
        assert_eq!(kb.query("IsSafe").run().len(), 115);
        // Scores still valid and incremental updates still work. Pick a
        // target with a *free* spatial neighbour through the retraction:
        // the affected region of a variable whose whole Markov blanket is
        // evidence collapses once the variable itself turns into
        // evidence, so nothing would need re-sampling.
        let target = kb
            .grounding
            .atoms_of("IsSafe")
            .iter()
            .copied()
            .find(|&v| {
                kb.grounding
                    .graph
                    .neighbours(v)
                    .iter()
                    .any(|&u| !kb.grounding.graph.variable(u).is_evidence())
            })
            .expect("some well keeps a free spatial neighbour");
        let (_, resampled) = kb.update_evidence_incremental(&[(target, Some(1))]);
        assert!(resampled > 0);
        // An isolated variable's update re-samples nothing beyond itself.
        let lone = kb
            .grounding
            .atoms_of("IsSafe")
            .iter()
            .copied()
            .find(|&v| {
                kb.grounding.graph.neighbours(v).is_empty()
                    && !kb.grounding.graph.variable(v).is_evidence()
            })
            .expect("some well is spatially isolated");
        let (_, lone_resampled) = kb.update_evidence_incremental(&[(lone, Some(0))]);
        assert_eq!(lone_resampled, 0);
        // Retracting unknown/out-of-range ids is a no-op.
        assert_eq!(kb.retract_atoms(&[9999]), 0);
    }

    #[test]
    fn observed_construct_records_phase_metrics_and_nested_spans() {
        let mut d = gwdb_dataset(&GwdbConfig { n_wells: 60, ..Default::default() });
        let obs = Obs::enabled();
        let session = SyaSession::new_with_obs(
            &d.program,
            d.constants.clone(),
            d.metric,
            SyaConfig::sya().with_epochs(40),
            obs.clone(),
        )
        .unwrap();
        let evidence = d.evidence.clone();
        let kb = session
            .construct(&mut d.db, &move |_, vals| {
                vals.first()
                    .and_then(Value::as_int)
                    .and_then(|id| evidence.get(&id).copied())
            })
            .unwrap();

        let m = obs.metrics().unwrap();
        assert!(m.gauge_value("phase.grounding_seconds").unwrap() > 0.0);
        assert!(m.gauge_value("phase.inference_seconds").unwrap() > 0.0);
        assert!(m.gauge_value("infer.pyramid_build_seconds").is_some());
        assert!(m.counter_value("ground.rules_total").unwrap() > 0);
        assert!(m.counter_value("store.spatial_queries_total").unwrap() > 0);
        // Convergence series cover the per-instance epoch share.
        let delta = m.series("infer.spatial.marginal_delta").unwrap();
        assert!(delta.len() >= 40 / 4, "marginal delta series too short: {}", delta.len());
        assert!(!kb.telemetry.is_empty());
        assert_eq!(kb.telemetry.marginal_delta.len(), delta.len());

        let spans = obs.trace_snapshot().spans;
        for name in
            ["lang.parse", "lang.compile", "pipeline.ground", "infer.pyramid_build",
             "pipeline.infer"]
        {
            assert!(spans.iter().any(|s| s.name == name), "{name} span missing");
        }
        // Grounding spans nest under the pipeline.ground phase span.
        let ground = spans.iter().find(|s| s.name == "pipeline.ground").unwrap();
        assert!(
            spans
                .iter()
                .filter(|s| s.name == "ground.rule")
                .all(|s| s.parent == Some(ground.id)),
            "ground.rule spans must be children of pipeline.ground"
        );
    }

    #[test]
    fn extend_with_no_new_rows_reports_zero_growth() {
        // Boundary of the saturating stats arithmetic: an extend call
        // that grounds nothing must report zeros, never underflow.
        let mut d = gwdb_dataset(&GwdbConfig { n_wells: 50, ..Default::default() });
        let cfg = SyaConfig::sya().with_epochs(50);
        let session =
            SyaSession::new(&d.program, d.constants.clone(), d.metric, cfg).unwrap();
        let evidence = d.evidence.clone();
        let ev = move |_: &str, vals: &[Value]| {
            vals.first()
                .and_then(Value::as_int)
                .and_then(|id| evidence.get(&id).copied())
        };
        let mut kb = session.construct(&mut d.db, &ev).unwrap();
        let stats = session.extend(&mut kb, &mut d.db, &[], &ev).unwrap();
        assert_eq!(stats.new_variables, 0);
        assert_eq!(stats.new_logical_factors, 0);
        assert_eq!(stats.new_spatial_factors, 0);
        assert_eq!(stats.resampled, 0);
    }

    #[test]
    fn checkpointed_run_resumes_from_disk_with_identical_scores() {
        let dir = std::env::temp_dir().join(format!("sya_core_ckpt_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = SyaConfig::deepdive().with_epochs(80).with_seed(7).with_checkpoints(&dir, 10);
        let mut d = gwdb_dataset(&GwdbConfig { n_wells: 60, ..Default::default() });
        let kb1 = build(&mut d, cfg.clone());
        assert!(dir.join("factor-graph.json").exists(), "graph witness must be persisted");
        let ckpts = std::fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .file_name()
                    .to_str()
                    .is_some_and(|n| n.ends_with(".syackpt"))
            })
            .count();
        assert!(ckpts >= 1, "periodic + final checkpoints must exist");

        // Resuming a finished run finds the final checkpoint, replays
        // zero epochs, and reproduces the exact same scores.
        let mut d2 = gwdb_dataset(&GwdbConfig { n_wells: 60, ..Default::default() });
        let kb2 = build(&mut d2, cfg.with_resume(true));
        assert_eq!(kb1.scores_by_id("IsSafe"), kb2.scores_by_id("IsSafe"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sharded_construct_reproduces_the_single_shard_scores_exactly() {
        let cfg = SyaConfig::sya().with_epochs(120).with_seed(11).with_partition_level(3);
        let mut d = gwdb_dataset(&GwdbConfig { n_wells: 90, ..Default::default() });
        let reference = build(&mut d, cfg.clone().with_shards(1));
        for shards in [2, 4] {
            let mut d = gwdb_dataset(&GwdbConfig { n_wells: 90, ..Default::default() });
            let kb = build(&mut d, cfg.clone().with_shards(shards));
            assert_eq!(
                reference.scores_by_id("IsSafe"),
                kb.scores_by_id("IsSafe"),
                "--shards {shards} must reproduce --shards 1 exactly"
            );
            assert!(kb.pyramid.is_some());
            assert!(kb.outcome.is_completed());
        }
    }

    #[test]
    fn sharded_construct_writes_per_shard_checkpoints_and_manifest() {
        let dir = std::env::temp_dir().join(format!("sya_core_shard_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = SyaConfig::sya()
            .with_epochs(60)
            .with_shards(2)
            .with_partition_level(3)
            .with_checkpoints(&dir, 10);
        let mut d = gwdb_dataset(&GwdbConfig { n_wells: 60, ..Default::default() });
        let kb = build(&mut d, cfg);
        assert!(kb.outcome.is_completed());
        assert!(dir.join("factor-graph.json").exists(), "graph witness persists");
        let manifest = sya_shard::ShardManifest::read(&dir).expect("shard manifest");
        assert_eq!(manifest.shards, 2);
        for name in &manifest.stores {
            let ckpts = std::fs::read_dir(dir.join(name))
                .unwrap()
                .filter(|e| {
                    e.as_ref()
                        .unwrap()
                        .file_name()
                        .to_str()
                        .is_some_and(|n| n.ends_with(".syackpt"))
                })
                .count();
            assert!(ckpts >= 1, "store {name} holds checkpoints");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sharding_rejects_non_spatial_samplers() {
        let mut d = gwdb_dataset(&GwdbConfig { n_wells: 30, ..Default::default() });
        let cfg = SyaConfig::deepdive().with_epochs(20).with_shards(2);
        let session =
            SyaSession::new(&d.program, d.constants.clone(), d.metric, cfg).unwrap();
        match session.construct(&mut d.db, &|_, _| None) {
            Err(SyaError::Config(msg)) => assert!(msg.contains("spatial"), "{msg}"),
            Err(other) => panic!("expected a config error, got {other}"),
            Ok(_) => panic!("expected a config error"),
        }
    }

    #[test]
    fn bad_program_reports_parse_error() {
        let result = SyaSession::new(
            "County(id bigint",
            GeomConstants::new(),
            DistanceMetric::Euclidean,
            SyaConfig::sya(),
        );
        match result {
            Err(SyaError::Parse(_)) => {}
            Err(other) => panic!("expected parse error, got {other}"),
            Ok(_) => panic!("expected parse error"),
        }
    }
}
