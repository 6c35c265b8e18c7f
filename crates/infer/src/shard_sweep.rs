//! The Spatial Gibbs sweep kernel: the one code path that samples a
//! phase of Algorithm 1, for in-process, incremental, lazy-query,
//! delta, sharded and cluster runs alike.
//!
//! An epoch follows a global *phase schedule* ([`ShardSchedule`]): one
//! phase per `(level, conclique)` of the minimum cover, levels serially
//! and concliques serially, plus one trailing phase for unlocated
//! variables. A [`ShardChain`] owns a set of variables and, per phase,
//! samples the ones it owns against a shared assignment **board**
//! (`Vec<AtomicU32>`):
//!
//! * **frozen board per phase** — every conditional of a phase reads the
//!   board as it stood at the phase start; the chain buffers its writes
//!   and [`publish`](ShardChain::publish) lands them after the phase.
//!   Who computes a conditional, and in which order, therefore cannot
//!   change its value;
//! * **per-variable streams** — every draw uses an RNG stream derived
//!   from `(seed, epoch, pass, variable)` ([`var_epoch_rng`]), so the
//!   random numbers a variable consumes do not depend on which chain,
//!   shard or worker thread draws it. The *pass* (the level's position
//!   in the epoch's sweep) gives each per-level draw of `AllLevels` its
//!   own stream.
//!
//! Together these make the counts bit-identical for any split of the
//! variables: in-process Spatial Gibbs is the one-shard case (one chain
//! owning every variable, a phase optionally split over worker
//! threads), the sharded executor and the cluster run one chain per
//! shard, and for one seed a one-instance in-process run equals the
//! sharded run at any shard and worker count.
//!
//! **Known approximation.** A phase is not an exact independent set of
//! the factor graph. Cells of one conclique are never 8-neighbours, but
//! a spatial factor whose radius spans more than a cell can still join
//! two of them, variables of one cell share spatial factors, and
//! logical factors ignore the pyramid altogether. Such same-phase pairs
//! update from each other's phase-start values (Jacobi-style) rather
//! than sequentially. On the 2,000-well GWDB benchmark graph at
//! `L = 8`, 1,201 of the 5,228 free–free variable pairs that share a
//! factor fall in one phase: 235 share a logical factor and 1,063 a
//! spatial one (97 both; all but 19 of the spatial pairs span two
//! cells). The marginals stay within the exact-enumeration tolerances
//! the tests gate.

use crate::ckpt::ChainState;
use crate::conclique::min_conclique_cover;
use crate::gibbs::{sample_conditional, telemetry_indicator};
use crate::marginals::MarginalCounts;
use crate::pyramid::{CellKey, PyramidIndex};
use crate::spatial_gibbs::InferConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU32, Ordering};
use sya_fg::{FactorGraph, VarId};
use sya_obs::{ConvergenceSeries, EpochTelemetry};

/// Tag mixed into the per-variable stream that draws initial values, so
/// the init draw never collides with an epoch stream.
const INIT_EPOCH_TAG: u64 = u64::MAX;

/// The derived RNG stream for one `(seed, epoch, pass, variable)` draw.
/// Owner independence of the sweep rests on this: any chain or worker
/// sampling `v` in pass `pass` of `epoch` consumes the same stream. A
/// schedule visits a variable at most once per pass, so no two draws of
/// one chain share a stream.
#[inline]
pub fn var_epoch_rng(seed: u64, epoch: u64, pass: u64, v: VarId) -> StdRng {
    StdRng::seed_from_u64(
        seed ^ epoch.wrapping_mul(0x2545_F491_4F6C_DD1D)
            ^ (v as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ pass.wrapping_mul(0xD6E8_FEB8_6659_FD93),
    )
}

/// The shared assignment board: evidence clamped, free variables at a
/// per-variable derived draw (identical for every shard count) — or, with
/// `warm`, at its value (clamped in case the domain shrank since).
pub fn init_board(graph: &FactorGraph, seed: u64, warm: Option<&[u32]>) -> Vec<AtomicU32> {
    graph
        .variables()
        .iter()
        .map(|v| {
            let card = v.domain.cardinality();
            AtomicU32::new(match (v.evidence, warm) {
                (Some(e), _) => e,
                (None, Some(w)) => w.get(v.id as usize).map_or(0, |&x| x.min(card - 1)),
                (None, None) => var_epoch_rng(seed, INIT_EPOCH_TAG, 0, v.id).gen_range(0..card),
            })
        })
        .collect()
}

/// One phase of the global epoch schedule.
#[derive(Debug, Clone)]
pub struct SweepPhase {
    /// Conclique of the minimum cover (`None` for unlocated variables).
    pub conclique: Option<u8>,
    /// Position of the phase's level among the levels the epoch sweeps
    /// (0 for unlocated variables): the stream index of its draws.
    pub pass: u64,
    /// Free variables the phase sweeps, in canonical (cell, index)
    /// order.
    pub vars: Vec<VarId>,
}

/// The global phase schedule of one epoch — identical for every chain,
/// so all chains cross the same barriers in the same order.
#[derive(Debug, Clone)]
pub struct ShardSchedule {
    pub phases: Vec<SweepPhase>,
}

impl ShardSchedule {
    /// The sweep Algorithm 1 implies: levels serially, concliques of the
    /// minimum cover serially, then the unlocated variables — every free
    /// variable of the graph is in at least one phase. With `region`
    /// (incremental inference) only the free variables of those cells
    /// are swept, and there is no unlocated phase.
    pub fn new(
        graph: &FactorGraph,
        pyramid: &PyramidIndex,
        cfg: &InferConfig,
        region: Option<&HashSet<CellKey>>,
    ) -> Self {
        let mut phases = Vec::new();
        let levels = cfg.active_sweep_levels(pyramid.levels());
        for (pass, level) in levels.into_iter().enumerate() {
            let mut cells = pyramid.sampling_cells(level);
            if let Some(region) = region {
                cells.retain(|c| region.contains(c));
            }
            for (conclique, cells) in min_conclique_cover(&cells) {
                let vars: Vec<VarId> = cells
                    .iter()
                    .flat_map(|c| pyramid.atoms_in(c).iter().copied())
                    .filter(|&v| !graph.variable(v).is_evidence())
                    .collect();
                if !vars.is_empty() {
                    phases.push(SweepPhase { conclique: Some(conclique.0), pass: pass as u64, vars });
                }
            }
        }
        let unlocated: Vec<VarId> = graph
            .variables()
            .iter()
            .filter(|v| region.is_none() && v.location.is_none() && !v.is_evidence())
            .map(|v| v.id)
            .collect();
        if !unlocated.is_empty() {
            phases.push(SweepPhase { conclique: None, pass: 0, vars: unlocated });
        }
        ShardSchedule { phases }
    }

    pub fn len(&self) -> usize {
        self.phases.len()
    }

    pub fn is_empty(&self) -> bool {
        self.phases.is_empty()
    }

    /// Every variable some phase samples, sorted and deduplicated.
    pub fn vars(&self) -> Vec<VarId> {
        let mut vars: Vec<VarId> =
            self.phases.iter().flat_map(|p| p.vars.iter().copied()).collect();
        vars.sort_unstable();
        vars.dedup();
        vars
    }
}

/// One chain's sampler state: its slice of each phase, its counts, and
/// its convergence trajectory over owned variables.
pub struct ShardChain<'g> {
    graph: &'g FactorGraph,
    seed: u64,
    /// All variables this chain owns (evidence included), sorted.
    owned: Vec<VarId>,
    /// Owned free variables per schedule phase, in schedule order.
    phase_vars: Vec<Vec<VarId>>,
    /// Conclique of each schedule phase, for the per-conclique credit.
    phase_conclique: Vec<Option<u8>>,
    /// Stream pass of each schedule phase.
    phase_pass: Vec<u64>,
    /// Owned evidence variables with their clamped values.
    evidence_owned: Vec<(VarId, u32)>,
    /// Buffered writes of the current phase, published at the barrier.
    writes: Vec<(VarId, u32)>,
    counts: MarginalCounts,
    recorded: bool,
    /// Indices (into `owned`) of boundary-exposed variables — owned
    /// variables some other shard reads as halo. Empty unless
    /// [`set_boundary`](Self::set_boundary) was called.
    boundary: Vec<usize>,
    /// Running-marginal snapshot of the boundary variables, taken by
    /// [`snapshot_boundary`](Self::snapshot_boundary); the drift since
    /// then is the retirement staleness signal.
    boundary_ref: Vec<f64>,
    /// Convergence tracking over owned variables.
    telemetry: EpochTelemetry,
    epoch_flips: u64,
    epoch_samples: u64,
}

impl<'g> ShardChain<'g> {
    /// `owned` must be the chain's full ownership class (evidence
    /// included); it is sorted and deduplicated here.
    pub fn new(
        graph: &'g FactorGraph,
        schedule: &ShardSchedule,
        cfg: &InferConfig,
        mut owned: Vec<VarId>,
    ) -> Self {
        owned.sort_unstable();
        owned.dedup();
        let mut is_owned = vec![false; graph.num_variables()];
        for &v in &owned {
            is_owned[v as usize] = true;
        }
        let phase_vars: Vec<Vec<VarId>> = schedule
            .phases
            .iter()
            .map(|p| p.vars.iter().copied().filter(|&v| is_owned[v as usize]).collect())
            .collect();
        let evidence_owned: Vec<(VarId, u32)> = owned
            .iter()
            .filter_map(|&v| graph.variable(v).evidence.map(|e| (v, e)))
            .collect();
        ShardChain {
            graph,
            seed: cfg.seed,
            telemetry: EpochTelemetry::new(owned.len()),
            owned,
            phase_vars,
            phase_conclique: schedule.phases.iter().map(|p| p.conclique).collect(),
            phase_pass: schedule.phases.iter().map(|p| p.pass).collect(),
            evidence_owned,
            writes: Vec::new(),
            counts: MarginalCounts::new(graph),
            recorded: false,
            boundary: Vec::new(),
            boundary_ref: Vec::new(),
            epoch_flips: 0,
            epoch_samples: 0,
        }
    }

    pub fn owned_vars(&self) -> usize {
        self.owned.len()
    }

    /// The free variables this chain samples in `phase`.
    pub fn phase_vars(&self, phase: usize) -> &[VarId] {
        &self.phase_vars[phase]
    }

    /// The writes buffered by the current phase, in sample order — what
    /// the cluster worker puts in its `Publish` frame before
    /// [`publish`](Self::publish) drains them onto the board.
    pub fn pending_writes(&self) -> &[(VarId, u32)] {
        &self.writes
    }

    /// Declares which variables are boundary-exposed (owned here, read
    /// as halo by some other shard). Enables the boundary-staleness
    /// signal retirement gating uses; variables not owned by this shard
    /// are ignored.
    pub fn set_boundary(&mut self, vars: &[VarId]) {
        self.boundary = vars
            .iter()
            .filter_map(|v| self.owned.binary_search(v).ok())
            .collect();
        self.boundary.sort_unstable();
        self.boundary.dedup();
        self.boundary_ref = Vec::new();
    }

    /// Snapshots the boundary variables' running marginals. Call at the
    /// start of a retirement quiet streak; the drift reported by
    /// [`boundary_delta`](Self::boundary_delta) is measured from here.
    pub fn snapshot_boundary(&mut self) {
        let p = self.telemetry.running_marginals();
        self.boundary_ref = self.boundary.iter().map(|&i| p[i]).collect();
    }

    /// `max |p_now − p_snapshot|` over boundary-exposed variables — how
    /// much the values the *neighbour* shards condition on have drifted
    /// since the snapshot. `0.0` with no boundary or no snapshot.
    pub fn boundary_delta(&self) -> f64 {
        let p = self.telemetry.running_marginals();
        self.boundary
            .iter()
            .zip(&self.boundary_ref)
            .map(|(&i, &p0)| (p[i] - p0).abs())
            .fold(0.0, f64::max)
    }

    /// Draws `vars` (part of this chain's `phase`) at `epoch` against
    /// the frozen board, appending `(var, value)` to `out`. Touches no
    /// chain state, so worker threads may draw disjoint parts
    /// concurrently.
    pub fn draw(
        &self,
        board: &[AtomicU32],
        phase: usize,
        vars: &[VarId],
        epoch: usize,
        out: &mut Vec<(VarId, u32)>,
    ) {
        let src = |u: VarId| board[u as usize].load(Ordering::Relaxed);
        let pass = self.phase_pass[phase];
        for &v in vars {
            let mut rng = var_epoch_rng(self.seed, epoch as u64, pass, v);
            out.push((v, sample_conditional(self.graph, &src, v, &mut rng)));
        }
    }

    /// Samples the chain's variables of one phase against the frozen
    /// board, buffering the writes. The executor must call
    /// [`publish`](Self::publish) after the phase barrier.
    pub fn sample_phase(&mut self, board: &[AtomicU32], phase: usize, epoch: usize, record: bool) {
        let prof = sya_obs::profile::start();
        let mut writes = std::mem::take(&mut self.writes);
        self.draw(board, phase, &self.phase_vars[phase], epoch, &mut writes);
        self.accept(phase, writes, record);
        sya_obs::profile::stop(sya_obs::profile::Site::ConcliqueSweep, prof);
    }

    /// Buffers a phase's drawn writes (from [`draw`](Self::draw), in any
    /// order) for [`publish`](Self::publish) and records them.
    pub fn accept(&mut self, phase: usize, writes: Vec<(VarId, u32)>, record: bool) {
        if record {
            for &(v, x) in &writes {
                self.counts.record(v, x);
            }
        }
        let n = writes.len() as u64;
        self.epoch_samples += n;
        if let Some(c) = self.phase_conclique[phase] {
            self.telemetry.add_conclique_samples(c as usize, n);
        }
        self.writes = writes;
    }

    /// Publishes the buffered phase writes to the board (the halo
    /// exchange: after the barrier every shard sees these values).
    pub fn publish(&mut self, board: &[AtomicU32]) {
        let prof = sya_obs::profile::start();
        for (v, x) in self.writes.drain(..) {
            let old = board[v as usize].load(Ordering::Relaxed);
            if x != old {
                self.epoch_flips += 1;
            }
            board[v as usize].store(x, Ordering::Relaxed);
        }
        sya_obs::profile::stop(sya_obs::profile::Site::HaloPublish, prof);
    }

    /// Total samples drawn and value flips so far (closed epochs plus
    /// the one in flight) — what the cluster worker ships per epoch in
    /// its `Telemetry` frame.
    pub fn progress(&self) -> (u64, u64) {
        let series = self.telemetry.series();
        (
            series.samples_total + self.epoch_samples,
            series.flips_total + self.epoch_flips,
        )
    }

    /// Closes an epoch: records owned evidence rows, folds the board
    /// into the chain's running marginals, and returns the epoch's
    /// `max |p_t − p_{t−1}|` over owned variables (the retirement
    /// signal).
    pub fn end_epoch(&mut self, board: &[AtomicU32], record: bool) -> f64 {
        if record {
            self.recorded = true;
            for &(v, e) in &self.evidence_owned {
                self.counts.record(v, e);
            }
        }
        let (flips, samples) = (self.epoch_flips, self.epoch_samples);
        self.epoch_flips = 0;
        self.epoch_samples = 0;
        self.telemetry.end_epoch(
            flips,
            samples,
            self.owned
                .iter()
                .map(|&v| telemetry_indicator(board[v as usize].load(Ordering::Relaxed))),
        )
    }

    /// Records a pseudo-log-likelihood observation (the executor samples
    /// it on one chain over the full board).
    pub fn record_pll(&mut self, epoch: usize, value: f64) {
        self.telemetry.record_pll(epoch, value);
    }

    /// Packages the chain's durable state at the barrier entering
    /// `next_epoch`. The assignment is the full board snapshot (shards
    /// run in lockstep, so all shards of a set persist the same board);
    /// the RNG words are placeholders — every stream is derived from
    /// `(seed, epoch, variable)`.
    pub fn chain_state(&self, next_epoch: usize, board: &[AtomicU32]) -> ChainState {
        ChainState {
            epoch: next_epoch as u64,
            assignment: board.iter().map(|a| a.load(Ordering::Relaxed)).collect(),
            rng: vec![self.seed, 0, 0, 0],
            counts: self.counts.to_rows(),
            recorded: self.recorded,
        }
    }

    /// Restores counts and the recorded flag from a resumed chain (the
    /// caller restores the board and epoch).
    pub fn resume_counts(&mut self, counts: MarginalCounts, recorded: bool) {
        self.counts = counts;
        self.recorded = recorded;
    }

    /// Whether any post-burn-in epoch recorded samples.
    pub fn has_recorded(&self) -> bool {
        self.recorded
    }

    /// Fallback for runs stopped before burn-in: record one snapshot of
    /// the board restricted to owned variables.
    pub fn record_board_snapshot(&mut self, board: &[AtomicU32]) {
        for &v in &self.owned {
            let x = match self.graph.variable(v).evidence {
                Some(e) => e,
                None => board[v as usize].load(Ordering::Relaxed),
            };
            self.counts.record(v, x);
        }
    }

    /// Consumes the chain into its counts and convergence series.
    pub fn finish(self) -> (MarginalCounts, ConvergenceSeries) {
        (self.counts, self.telemetry.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sya_fg::Variable;

    fn cfg() -> InferConfig {
        InferConfig {
            levels: 2,
            locality_level: 2,
            seed: 11,
            ..Default::default()
        }
    }

    #[test]
    fn schedule_covers_every_free_variable_exactly_once_leaf_mode() {
        let mut g = FactorGraph::lattice(4, 0.8, true);
        g.add_variable(Variable::binary(0, "floating"));
        let pyramid = PyramidIndex::build(&g, 2, 64);
        let schedule = ShardSchedule::new(&g, &pyramid, &cfg(), None);
        let mut seen: Vec<VarId> = schedule.phases.iter().flat_map(|p| p.vars.clone()).collect();
        seen.sort_unstable();
        let free: Vec<VarId> = g.query_variables();
        assert_eq!(seen, free);
        // The unlocated phase is last and has no conclique.
        let last = schedule.phases.last().unwrap();
        assert_eq!(last.conclique, None);
        assert!(last.vars.contains(&16));
    }

    /// Under `AllLevels` a variable is drawn once per level of an epoch,
    /// and each of those draws must come from its own stream. Uncoupled
    /// variables have conditional ½, so a variable's two draws in one
    /// epoch agree about half the time — every time, if they shared one.
    #[test]
    fn all_levels_passes_draw_from_independent_streams() {
        let g = FactorGraph::lattice(4, 0.0, false);
        let pyramid = PyramidIndex::build(&g, 3, 64);
        let cfg = InferConfig {
            levels: 3,
            locality_level: 3,
            sweep_mode: crate::SweepMode::AllLevels,
            ..cfg()
        };
        let schedule = ShardSchedule::new(&g, &pyramid, &cfg, None);
        let board = init_board(&g, cfg.seed, None);
        let chain = ShardChain::new(&g, &schedule, &cfg, (0..16).collect());
        let mut agree = 0;
        for epoch in 0..50 {
            let mut drawn: Vec<Vec<u32>> = vec![Vec::new(); 16];
            for (phase, p) in schedule.phases.iter().enumerate() {
                let mut out = Vec::new();
                chain.draw(&board, phase, &p.vars, epoch, &mut out);
                for (v, x) in out {
                    assert_eq!(drawn[v as usize].len() as u64, p.pass, "one draw per pass");
                    drawn[v as usize].push(x);
                }
            }
            assert!(drawn.iter().all(|d| d.len() == 2), "levels 2 and 3: two passes");
            agree += drawn.iter().filter(|d| d[0] == d[1]).count();
        }
        let rate = agree as f64 / (50 * 16) as f64;
        assert!((0.4..0.6).contains(&rate), "passes agree at rate {rate}");
    }

    #[test]
    fn init_board_is_seed_deterministic_and_clamps_evidence() {
        let g = FactorGraph::lattice(3, 0.8, true);
        let a = init_board(&g, 7, None);
        let b = init_board(&g, 7, None);
        let other = init_board(&g, 8, None);
        assert_eq!(a[0].load(Ordering::Relaxed), 1, "evidence clamped");
        let av: Vec<u32> = a.iter().map(|x| x.load(Ordering::Relaxed)).collect();
        let bv: Vec<u32> = b.iter().map(|x| x.load(Ordering::Relaxed)).collect();
        let ov: Vec<u32> = other.iter().map(|x| x.load(Ordering::Relaxed)).collect();
        assert_eq!(av, bv);
        assert_ne!(av, ov, "different seeds draw different boards");
    }

    /// The parity property the sharded executor builds on: splitting the
    /// ownership across chains changes nothing about the sampled values.
    #[test]
    fn two_chain_split_reproduces_single_chain_exactly() {
        let g = FactorGraph::lattice(4, 0.8, true);
        let pyramid = PyramidIndex::build(&g, 2, 64);
        let cfg = cfg();
        let schedule = ShardSchedule::new(&g, &pyramid, &cfg, None);
        let epochs = 40;
        let burn = 5;

        let run = |ownerships: Vec<Vec<VarId>>| -> MarginalCounts {
            let board = init_board(&g, cfg.seed, None);
            let mut chains: Vec<ShardChain> = ownerships
                .into_iter()
                .map(|o| ShardChain::new(&g, &schedule, &cfg, o))
                .collect();
            for epoch in 0..epochs {
                let record = epoch >= burn;
                for phase in 0..schedule.len() {
                    for chain in &mut chains {
                        chain.sample_phase(&board, phase, epoch, record);
                    }
                    for chain in &mut chains {
                        chain.publish(&board);
                    }
                }
                for chain in &mut chains {
                    chain.end_epoch(&board, record);
                }
            }
            let mut total = MarginalCounts::new(&g);
            for chain in chains {
                total.merge(&chain.finish().0);
            }
            total
        };

        let all: Vec<VarId> = (0..g.num_variables() as VarId).collect();
        let single = run(vec![all.clone()]);
        let (left, right) = all.split_at(7);
        let split = run(vec![left.to_vec(), right.to_vec()]);
        assert_eq!(single, split);
    }

    #[test]
    fn boundary_tracking_measures_drift_since_the_snapshot() {
        // A weakly-coupled grid: the 0.8 grid saturates at all-ones under
        // the corner evidence, which freezes every running marginal and
        // would make the drift identically zero. At 0.05 the chain mixes,
        // so marginals keep moving after the snapshot.
        let g = FactorGraph::lattice(3, 0.05, true);
        let pyramid = PyramidIndex::build(&g, 2, 64);
        let cfg = cfg();
        let schedule = ShardSchedule::new(&g, &pyramid, &cfg, None);
        let board = init_board(&g, cfg.seed, None);
        let all: Vec<VarId> = (0..g.num_variables() as VarId).collect();
        let mut chain = ShardChain::new(&g, &schedule, &cfg, all);
        // Variables 1 and 4 are boundary-exposed; 99 is foreign and ignored.
        chain.set_boundary(&[1, 4, 99]);
        assert_eq!(chain.boundary_delta(), 0.0, "no snapshot yet");
        for epoch in 0..5 {
            for phase in 0..schedule.len() {
                chain.sample_phase(&board, phase, epoch, true);
                assert!(epoch > 0 || phase > 0 || !chain.pending_writes().is_empty());
                chain.publish(&board);
            }
            chain.end_epoch(&board, true);
            if epoch == 0 {
                chain.snapshot_boundary();
                assert_eq!(chain.boundary_delta(), 0.0, "snapshot epoch has zero drift");
            }
        }
        // Early running marginals move fast: the drift over 4 epochs
        // from a 1-epoch baseline is substantial and bounded by 1.
        let drift = chain.boundary_delta();
        assert!(drift > 0.0 && drift <= 1.0, "drift {drift}");
    }

    #[test]
    fn retirement_signal_shrinks_over_epochs() {
        let g = FactorGraph::lattice(3, 0.8, true);
        let pyramid = PyramidIndex::build(&g, 2, 64);
        let cfg = cfg();
        let schedule = ShardSchedule::new(&g, &pyramid, &cfg, None);
        let board = init_board(&g, cfg.seed, None);
        let all: Vec<VarId> = (0..g.num_variables() as VarId).collect();
        let mut chain = ShardChain::new(&g, &schedule, &cfg, all);
        let mut first = 0.0;
        let mut last = 0.0;
        for epoch in 0..100 {
            for phase in 0..schedule.len() {
                chain.sample_phase(&board, phase, epoch, true);
                chain.publish(&board);
            }
            let d = chain.end_epoch(&board, true);
            if epoch == 0 {
                first = d;
            }
            last = d;
        }
        assert!(last < first, "running-marginal delta must shrink: {first} -> {last}");
        let (_, series) = chain.finish();
        assert_eq!(series.epochs, 100);
        assert_eq!(series.marginal_delta.len(), 100);
    }
}
