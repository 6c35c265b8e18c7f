//! The factor graph container with variable→factor adjacency.

use crate::factor::Factor;
use crate::region_factor::RegionFactor;
use crate::spatial_factor::SpatialFactor;
use crate::variable::{VarId, Variable};
use serde::{Deserialize, Serialize};
use sya_geom::{Point, Rect};

/// A complete assignment of values to all variables (indexed by `VarId`).
pub type Assignment = Vec<u32>;

/// A (spatial) factor graph: variables, logical factors, spatial factors,
/// and per-variable adjacency into both factor sets.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FactorGraph {
    variables: Vec<Variable>,
    factors: Vec<Factor>,
    spatial_factors: Vec<SpatialFactor>,
    /// Higher-order region factors (extension; empty by default).
    #[serde(default)]
    region_factors: Vec<RegionFactor>,
    /// `var -> indices into factors`.
    var_factors: Vec<Vec<u32>>,
    /// `var -> indices into spatial_factors`.
    var_spatial: Vec<Vec<u32>>,
    /// `var -> indices into region_factors`.
    #[serde(default)]
    var_region: Vec<Vec<u32>>,
    /// Tombstone flags for logical factors. Empty until the first
    /// removal (old serialized graphs load with every factor live);
    /// once non-empty it is kept at `factors.len()`.
    #[serde(default)]
    factor_dead: Vec<bool>,
    /// Tombstone flags for spatial factors (same convention).
    #[serde(default)]
    spatial_dead: Vec<bool>,
    /// Tombstone flags for variables (same convention). Variable slots
    /// are never reused — marginal-count rows and delta grounding both
    /// rely on ids being append-only — so a dead variable is a
    /// permanently retired id.
    #[serde(default)]
    var_dead: Vec<bool>,
    /// Free logical-factor slots available for reuse.
    #[serde(default)]
    factor_free: Vec<u32>,
    /// Free spatial-factor slots available for reuse.
    #[serde(default)]
    spatial_free: Vec<u32>,
}

impl FactorGraph {
    pub fn new() -> Self {
        Self::default()
    }

    /// An `n × n` lattice of binary variables `v{r}_{c}` (id `r·n + c`,
    /// located at `(c + ½, r + ½)`) joined by 4-neighbour spatial factors
    /// of weight `weight`; with `evidence_at_origin`, variable 0 is
    /// observed true. The synthetic workload of the sampler tests and
    /// benchmarks.
    pub fn lattice(n: usize, weight: f64, evidence_at_origin: bool) -> Self {
        let mut g = FactorGraph::new();
        for r in 0..n {
            for c in 0..n {
                let p = Point::new(c as f64 + 0.5, r as f64 + 0.5);
                let mut v = Variable::binary(0, format!("v{r}_{c}")).at(p);
                if evidence_at_origin && r == 0 && c == 0 {
                    v.evidence = Some(1);
                }
                g.add_variable(v);
            }
        }
        for i in 0..(n * n) as VarId {
            let (r, c) = (i as usize / n, i as usize % n);
            if c + 1 < n {
                g.add_spatial_factor(SpatialFactor::binary(i, i + 1, weight));
            }
            if r + 1 < n {
                g.add_spatial_factor(SpatialFactor::binary(i, i + n as VarId, weight));
            }
        }
        g
    }

    /// Adds a variable, assigning it the next dense id.
    /// The `id` field of `v` is overwritten with the assigned id, which
    /// is returned.
    pub fn add_variable(&mut self, mut v: Variable) -> VarId {
        let id = self.variables.len() as VarId;
        v.id = id;
        self.variables.push(v);
        self.var_factors.push(Vec::new());
        self.var_spatial.push(Vec::new());
        self.var_region.push(Vec::new());
        if !self.var_dead.is_empty() {
            self.var_dead.push(false);
        }
        id
    }

    /// Adds a logical factor, reusing a tombstoned slot when one is
    /// free. Returns the slot index — callers keeping side tables in
    /// lockstep (e.g. grounding rule labels) must write at this index
    /// rather than assuming a push.
    ///
    /// # Panics
    /// Panics (debug) when a referenced variable does not exist.
    pub fn add_factor(&mut self, f: Factor) -> u32 {
        for &v in &f.vars {
            debug_assert!((v as usize) < self.variables.len(), "factor references unknown var");
        }
        if let Some(idx) = self.factor_free.pop() {
            for &v in &f.vars {
                self.var_factors[v as usize].push(idx);
            }
            self.factors[idx as usize] = f;
            self.factor_dead[idx as usize] = false;
            return idx;
        }
        let idx = self.factors.len() as u32;
        for &v in &f.vars {
            self.var_factors[v as usize].push(idx);
        }
        self.factors.push(f);
        if !self.factor_dead.is_empty() {
            self.factor_dead.push(false);
        }
        idx
    }

    /// Adds a spatial factor, reusing a tombstoned slot when one is
    /// free (same contract as [`FactorGraph::add_factor`]).
    pub fn add_spatial_factor(&mut self, f: SpatialFactor) -> u32 {
        debug_assert!((f.a as usize) < self.variables.len());
        debug_assert!((f.b as usize) < self.variables.len());
        if let Some(idx) = self.spatial_free.pop() {
            self.var_spatial[f.a as usize].push(idx);
            if f.b != f.a {
                self.var_spatial[f.b as usize].push(idx);
            }
            self.spatial_factors[idx as usize] = f;
            self.spatial_dead[idx as usize] = false;
            return idx;
        }
        let idx = self.spatial_factors.len() as u32;
        self.var_spatial[f.a as usize].push(idx);
        if f.b != f.a {
            self.var_spatial[f.b as usize].push(idx);
        }
        self.spatial_factors.push(f);
        if !self.spatial_dead.is_empty() {
            self.spatial_dead.push(false);
        }
        idx
    }

    /// True when the logical factor at `idx` is a tombstone.
    pub fn is_factor_dead(&self, idx: u32) -> bool {
        self.factor_dead.get(idx as usize).copied().unwrap_or(false)
    }

    /// True when the spatial factor at `idx` is a tombstone.
    pub fn is_spatial_factor_dead(&self, idx: u32) -> bool {
        self.spatial_dead.get(idx as usize).copied().unwrap_or(false)
    }

    /// True when the variable `v` has been retired.
    pub fn is_var_dead(&self, v: VarId) -> bool {
        self.var_dead.get(v as usize).copied().unwrap_or(false)
    }

    /// Tombstones a logical factor: detaches it from the adjacency
    /// lists, zeroes its weight (so any full-scan energy walk that
    /// still sees it contributes nothing), and queues its slot for
    /// reuse. The scope (`vars`) is kept intact so energy evaluation
    /// over the dense factor array never indexes out of bounds.
    /// Returns the factor's scope; no-op (empty vec) when already dead.
    pub fn remove_factor(&mut self, idx: u32) -> Vec<VarId> {
        if self.is_factor_dead(idx) || (idx as usize) >= self.factors.len() {
            return Vec::new();
        }
        if self.factor_dead.len() < self.factors.len() {
            self.factor_dead.resize(self.factors.len(), false);
        }
        let vars = self.factors[idx as usize].vars.clone();
        for &v in &vars {
            self.var_factors[v as usize].retain(|&f| f != idx);
        }
        self.factors[idx as usize].weight = 0.0;
        self.factor_dead[idx as usize] = true;
        self.factor_free.push(idx);
        vars
    }

    /// Tombstones a spatial factor (same contract as
    /// [`FactorGraph::remove_factor`]). Returns its endpoints; no-op
    /// (`None`) when already dead.
    pub fn remove_spatial_factor(&mut self, idx: u32) -> Option<(VarId, VarId)> {
        if self.is_spatial_factor_dead(idx) || (idx as usize) >= self.spatial_factors.len() {
            return None;
        }
        if self.spatial_dead.len() < self.spatial_factors.len() {
            self.spatial_dead.resize(self.spatial_factors.len(), false);
        }
        let (a, b) = {
            let s = &self.spatial_factors[idx as usize];
            (s.a, s.b)
        };
        self.var_spatial[a as usize].retain(|&f| f != idx);
        if b != a {
            self.var_spatial[b as usize].retain(|&f| f != idx);
        }
        self.spatial_factors[idx as usize].weight = 0.0;
        self.spatial_dead[idx as usize] = true;
        self.spatial_free.push(idx);
        Some((a, b))
    }

    /// Retires a variable: clears its adjacency (callers are expected
    /// to tombstone its factors first) and marks it dead. The id is
    /// never reused — marginal-count rows and delta grounding rely on
    /// ids being append-only — so retirement is a bounded leak of one
    /// `Variable` slot per retracted atom.
    pub fn kill_variable(&mut self, v: VarId) {
        if (v as usize) >= self.variables.len() || self.is_var_dead(v) {
            return;
        }
        if self.var_dead.len() < self.variables.len() {
            self.var_dead.resize(self.variables.len(), false);
        }
        self.var_factors[v as usize].clear();
        self.var_spatial[v as usize].clear();
        self.var_region[v as usize].clear();
        self.variables[v as usize].evidence = None;
        self.var_dead[v as usize] = true;
    }

    /// Number of live (non-tombstoned) logical factors.
    pub fn num_live_factors(&self) -> usize {
        self.factors.len() - self.factor_dead.iter().filter(|&&d| d).count()
    }

    /// Number of live (non-tombstoned) spatial factors.
    pub fn num_live_spatial_factors(&self) -> usize {
        self.spatial_factors.len() - self.spatial_dead.iter().filter(|&&d| d).count()
    }

    /// Number of live (non-retired) variables.
    pub fn num_live_variables(&self) -> usize {
        self.variables.len() - self.var_dead.iter().filter(|&&d| d).count()
    }

    pub fn num_variables(&self) -> usize {
        self.variables.len()
    }

    pub fn num_factors(&self) -> usize {
        self.factors.len()
    }

    pub fn num_spatial_factors(&self) -> usize {
        self.spatial_factors.len()
    }

    /// Total factor count (logical + spatial + region) — the paper's
    /// "No. Factors".
    pub fn total_factors(&self) -> usize {
        self.factors.len() + self.spatial_factors.len() + self.region_factors.len()
    }

    pub fn variables(&self) -> &[Variable] {
        &self.variables
    }

    pub fn variable(&self, id: VarId) -> &Variable {
        &self.variables[id as usize]
    }

    pub fn variable_mut(&mut self, id: VarId) -> &mut Variable {
        &mut self.variables[id as usize]
    }

    pub fn factors(&self) -> &[Factor] {
        &self.factors
    }

    pub fn factor(&self, idx: u32) -> &Factor {
        &self.factors[idx as usize]
    }

    /// Adds a higher-order region factor (extension).
    pub fn add_region_factor(&mut self, f: RegionFactor) -> u32 {
        let idx = self.region_factors.len() as u32;
        for &v in &f.vars {
            debug_assert!((v as usize) < self.variables.len());
            self.var_region[v as usize].push(idx);
        }
        self.region_factors.push(f);
        idx
    }

    pub fn region_factors(&self) -> &[RegionFactor] {
        &self.region_factors
    }

    pub fn region_factor(&self, idx: u32) -> &RegionFactor {
        &self.region_factors[idx as usize]
    }

    /// Indices of region factors touching `v`.
    pub fn region_factors_of(&self, v: VarId) -> &[u32] {
        self.var_region.get(v as usize).map(Vec::as_slice).unwrap_or(&[])
    }

    pub fn num_region_factors(&self) -> usize {
        self.region_factors.len()
    }

    /// Updates the weight of a logical factor (weight learning).
    pub fn set_factor_weight(&mut self, idx: u32, weight: f64) {
        self.factors[idx as usize].weight = weight;
    }

    pub fn spatial_factors(&self) -> &[SpatialFactor] {
        &self.spatial_factors
    }

    pub fn spatial_factor(&self, idx: u32) -> &SpatialFactor {
        &self.spatial_factors[idx as usize]
    }

    /// Indices of logical factors touching `v`.
    pub fn factors_of(&self, v: VarId) -> &[u32] {
        &self.var_factors[v as usize]
    }

    /// Indices of spatial factors touching `v`.
    pub fn spatial_factors_of(&self, v: VarId) -> &[u32] {
        &self.var_spatial[v as usize]
    }

    /// An initial assignment: evidence values where observed, `0`
    /// elsewhere.
    pub fn initial_assignment(&self) -> Assignment {
        self.variables
            .iter()
            .map(|v| v.evidence.unwrap_or(0))
            .collect()
    }

    /// Ids of non-evidence (query) variables. Retired variables are
    /// excluded — they are no longer part of the model.
    pub fn query_variables(&self) -> Vec<VarId> {
        self.variables
            .iter()
            .filter(|v| !v.is_evidence() && !self.is_var_dead(v.id))
            .map(|v| v.id)
            .collect()
    }

    /// Bounding box of all live located variables (empty rect when
    /// none).
    pub fn bounding_box(&self) -> Rect {
        self.variables
            .iter()
            .filter(|v| !self.is_var_dead(v.id))
            .filter_map(|v| v.location)
            .fold(Rect::EMPTY, |acc, p: Point| acc.union(&Rect::from_point(p)))
    }

    /// Updates the evidence value of a variable (used by incremental
    /// inference experiments); pass `None` to un-observe.
    pub fn set_evidence(&mut self, id: VarId, value: Option<u32>) {
        if let Some(v) = value {
            assert!(self.variables[id as usize].domain.contains(v));
        }
        self.variables[id as usize].evidence = value;
    }

    /// Removes a set of variables, dropping every factor touching them
    /// and compacting ids. Returns the old-id → new-id map (removed
    /// variables map to `None`) — the bulk-deletion path of the paper's
    /// update handling (callers remap their side tables and rebuild the
    /// pyramid index).
    pub fn remove_variables(&self, remove: &std::collections::HashSet<VarId>) -> (FactorGraph, Vec<Option<VarId>>) {
        let mut remap: Vec<Option<VarId>> = Vec::with_capacity(self.variables.len());
        let mut out = FactorGraph::new();
        for v in &self.variables {
            if remove.contains(&v.id) || self.is_var_dead(v.id) {
                remap.push(None);
            } else {
                let nv = out.add_variable(v.clone());
                remap.push(Some(nv));
            }
        }
        for (i, f) in self.factors.iter().enumerate() {
            if self.is_factor_dead(i as u32) {
                continue;
            }
            let vars: Option<Vec<VarId>> =
                f.vars.iter().map(|&v| remap[v as usize]).collect();
            if let Some(vars) = vars {
                out.add_factor(Factor { kind: f.kind, vars, weight: f.weight });
            }
        }
        for (i, s) in self.spatial_factors.iter().enumerate() {
            if self.is_spatial_factor_dead(i as u32) {
                continue;
            }
            if let (Some(a), Some(b)) = (remap[s.a as usize], remap[s.b as usize]) {
                out.add_spatial_factor(SpatialFactor { a, b, ..*s });
            }
        }
        for r in &self.region_factors {
            let vars: Option<Vec<VarId>> =
                r.vars.iter().map(|&v| remap[v as usize]).collect();
            if let Some(vars) = vars {
                out.add_region_factor(RegionFactor { vars, weight: r.weight });
            }
        }
        (out, remap)
    }

    /// Estimated heap footprint of the graph in bytes: struct sizes plus
    /// the owned allocations (variable names, factor scopes, adjacency
    /// lists). An estimate, not an accounting — it feeds the memory
    /// budget checks of the execution layer, where "within a few percent"
    /// is plenty to catch a grounding blow-up.
    pub fn approx_memory_bytes(&self) -> u64 {
        use std::mem::size_of;
        let vars: usize = self
            .variables
            .iter()
            .map(|v| size_of::<Variable>() + v.name.capacity())
            .sum();
        let factors: usize = self
            .factors
            .iter()
            .map(|f| size_of::<Factor>() + f.vars.capacity() * size_of::<VarId>())
            .sum();
        let spatial = self.spatial_factors.capacity() * size_of::<SpatialFactor>();
        let region: usize = self
            .region_factors
            .iter()
            .map(|r| size_of::<RegionFactor>() + r.vars.capacity() * size_of::<VarId>())
            .sum();
        let adjacency: usize = [&self.var_factors, &self.var_spatial, &self.var_region]
            .iter()
            .flat_map(|adj| adj.iter())
            .map(|list| size_of::<Vec<u32>>() + list.capacity() * size_of::<u32>())
            .sum();
        (vars + factors + spatial + region + adjacency) as u64
    }

    /// Structural fingerprint of the graph (FNV-1a, 64-bit): variable
    /// domains/evidence/locations, factor kinds/scopes/weights, spatial
    /// and region factors. Checkpoints record it so that a resume
    /// against a *different* grounding (changed program, data, or
    /// weights) is rejected instead of silently producing garbage
    /// marginals. Names are deliberately excluded — they do not affect
    /// sampling.
    pub fn fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut mix = |word: u64| {
            for byte in word.to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(PRIME);
            }
        };
        mix(self.variables.len() as u64);
        for v in &self.variables {
            mix(v.domain.cardinality() as u64);
            mix(match v.evidence {
                Some(e) => 1 + e as u64,
                None => 0,
            });
            match v.location {
                Some(p) => {
                    mix(1);
                    mix(p.x.to_bits());
                    mix(p.y.to_bits());
                }
                None => mix(0),
            }
        }
        mix(self.factors.len() as u64);
        for f in &self.factors {
            mix(f.kind as u64);
            mix(f.vars.len() as u64);
            for &v in &f.vars {
                mix(v as u64);
            }
            mix(f.weight.to_bits());
        }
        mix(self.spatial_factors.len() as u64);
        for s in &self.spatial_factors {
            mix(s.a as u64);
            mix(s.b as u64);
            mix(s.weight.to_bits());
            mix(match s.domain_pair {
                Some((ta, tb)) => 1 + (((ta as u64) << 32) | tb as u64),
                None => 0,
            });
        }
        mix(self.region_factors.len() as u64);
        for r in &self.region_factors {
            mix(r.vars.len() as u64);
            for &v in &r.vars {
                mix(v as u64);
            }
            mix(r.weight.to_bits());
        }
        // Liveness: tombstoned slots and retired variables change the
        // model even when the dense arrays look alike (a zero-weight
        // live factor is not the same model as a tombstone awaiting
        // reuse). Only dead entries are mixed, so graphs without any
        // tombstones keep their historical fingerprint.
        for (i, &d) in self.factor_dead.iter().enumerate() {
            if d {
                mix(0xdead_f001);
                mix(i as u64);
            }
        }
        for (i, &d) in self.spatial_dead.iter().enumerate() {
            if d {
                mix(0xdead_f002);
                mix(i as u64);
            }
        }
        for (i, &d) in self.var_dead.iter().enumerate() {
            if d {
                mix(0xdead_f003);
                mix(i as u64);
            }
        }
        h
    }

    /// Variables that share a logical or spatial factor with `v`
    /// (deduplicated, `v` excluded) — the Markov blanket neighbourhood.
    pub fn neighbours(&self, v: VarId) -> Vec<VarId> {
        let mut out: Vec<VarId> = Vec::new();
        for &fi in self.factors_of(v) {
            for &u in &self.factors[fi as usize].vars {
                if u != v {
                    out.push(u);
                }
            }
        }
        for &si in self.spatial_factors_of(v) {
            let o = self.spatial_factors[si as usize].other(v);
            if o != v {
                out.push(o);
            }
        }
        for &ri in self.region_factors_of(v) {
            for &u in &self.region_factors[ri as usize].vars {
                if u != v {
                    out.push(u);
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factor::FactorKind;
    use crate::variable::Variable;

    fn tiny() -> FactorGraph {
        let mut g = FactorGraph::new();
        let a = g.add_variable(Variable::binary(0, "a").at(Point::new(0.0, 0.0)));
        let b = g.add_variable(Variable::binary(0, "b").at(Point::new(3.0, 4.0)));
        let c = g.add_variable(Variable::binary(0, "c").with_evidence(1));
        g.add_factor(Factor::new(FactorKind::Imply, vec![a, b], 1.0));
        g.add_factor(Factor::new(FactorKind::IsTrue, vec![c], 0.5));
        g.add_spatial_factor(SpatialFactor::binary(a, b, 0.7));
        g
    }

    #[test]
    fn ids_are_dense_and_overwritten() {
        let g = tiny();
        assert_eq!(g.num_variables(), 3);
        for (i, v) in g.variables().iter().enumerate() {
            assert_eq!(v.id as usize, i);
        }
    }

    #[test]
    fn adjacency_is_maintained() {
        let g = tiny();
        assert_eq!(g.factors_of(0), &[0]);
        assert_eq!(g.factors_of(1), &[0]);
        assert_eq!(g.factors_of(2), &[1]);
        assert_eq!(g.spatial_factors_of(0), &[0]);
        assert_eq!(g.spatial_factors_of(1), &[0]);
        assert!(g.spatial_factors_of(2).is_empty());
        assert_eq!(g.total_factors(), 3);
    }

    #[test]
    fn initial_assignment_uses_evidence() {
        let g = tiny();
        assert_eq!(g.initial_assignment(), vec![0, 0, 1]);
        assert_eq!(g.query_variables(), vec![0, 1]);
    }

    #[test]
    fn bounding_box_covers_located_vars() {
        let g = tiny();
        assert_eq!(g.bounding_box(), Rect::raw(0.0, 0.0, 3.0, 4.0));
    }

    #[test]
    fn neighbours_combine_both_factor_kinds() {
        let mut g = tiny();
        g.add_factor(Factor::new(FactorKind::And, vec![0, 2], 1.0));
        assert_eq!(g.neighbours(0), vec![1, 2]);
        assert_eq!(g.neighbours(1), vec![0]);
    }

    #[test]
    fn region_factor_adjacency_and_neighbours() {
        let mut g = tiny();
        let d = g.add_variable(Variable::binary(0, "d"));
        g.add_region_factor(crate::region_factor::RegionFactor::new(vec![0, 1, d], 0.5));
        assert_eq!(g.num_region_factors(), 1);
        assert_eq!(g.region_factors_of(0), &[0]);
        assert_eq!(g.region_factors_of(d), &[0]);
        assert!(g.neighbours(d).contains(&0));
        assert!(g.neighbours(d).contains(&1));
        assert_eq!(g.total_factors(), 4);
    }

    #[test]
    fn remove_variables_compacts_and_drops_factors() {
        let mut g = tiny();
        let d = g.add_variable(Variable::binary(0, "d"));
        g.add_factor(Factor::new(FactorKind::And, vec![0, d], 1.0));
        g.add_region_factor(crate::region_factor::RegionFactor::new(vec![0, 1, d], 0.5));
        // Remove variable 1 ("b"): every factor touching it is dropped;
        // factors over surviving variables are kept and remapped.
        let remove: std::collections::HashSet<VarId> = [1u32].into();
        let (g2, remap) = g.remove_variables(&remove);
        assert_eq!(g2.num_variables(), 3);
        assert_eq!(remap[1], None);
        assert_eq!(remap[2], Some(1)); // compacted
        // Imply(0,1) and spatial(0,1) dropped; IsTrue(2) and And(0,d) kept.
        assert_eq!(g2.num_factors(), 2);
        assert_eq!(g2.num_spatial_factors(), 0);
        // Region factor touching the removed var is dropped entirely.
        assert_eq!(g2.num_region_factors(), 0);
        // Names preserved through the remap.
        assert_eq!(g2.variable(remap[3].unwrap()).name, "d");
        // Adjacency is rebuilt consistently.
        for (i, f) in g2.factors().iter().enumerate() {
            for &v in &f.vars {
                assert!(g2.factors_of(v).contains(&(i as u32)));
            }
        }
    }

    #[test]
    fn memory_estimate_grows_with_the_graph() {
        let small = tiny().approx_memory_bytes();
        assert!(small > 0);
        let mut g = tiny();
        for i in 0..100 {
            let v = g.add_variable(Variable::binary(0, format!("extra{i}")));
            g.add_factor(Factor::new(FactorKind::IsTrue, vec![v], 0.1));
        }
        assert!(g.approx_memory_bytes() > small);
    }

    #[test]
    fn fingerprint_tracks_sampling_relevant_structure() {
        let g = tiny();
        assert_eq!(g.fingerprint(), tiny().fingerprint(), "deterministic");
        // Weight changes, evidence changes, and new factors all matter.
        let mut w = tiny();
        w.set_factor_weight(0, 2.0);
        assert_ne!(g.fingerprint(), w.fingerprint());
        let mut e = tiny();
        e.set_evidence(0, Some(1));
        assert_ne!(g.fingerprint(), e.fingerprint());
        let mut f = tiny();
        f.add_factor(Factor::new(FactorKind::IsTrue, vec![0], 0.1));
        assert_ne!(g.fingerprint(), f.fingerprint());
        let mut s = tiny();
        s.add_spatial_factor(SpatialFactor::binary(0, 2, 0.1));
        assert_ne!(g.fingerprint(), s.fingerprint());
        // Names do not: two graphs differing only in names fingerprint
        // the same (the serialized graph carries names, sampling ignores
        // them).
        let mut renamed = tiny();
        renamed.variable_mut(0).name = "renamed".to_owned();
        assert_eq!(g.fingerprint(), renamed.fingerprint());
        // Survives a serialize/deserialize round trip.
        let mut buf = Vec::new();
        g.save(&mut buf).unwrap();
        let g2 = FactorGraph::load(buf.as_slice()).unwrap();
        assert_eq!(g.fingerprint(), g2.fingerprint());
    }

    #[test]
    fn remove_factor_detaches_and_reuses_slot() {
        let mut g = tiny();
        let scope = g.remove_factor(0);
        assert_eq!(scope, vec![0, 1]);
        assert!(g.is_factor_dead(0));
        assert!(g.factors_of(0).is_empty());
        assert!(g.factors_of(1).is_empty());
        assert_eq!(g.factor(0).weight, 0.0);
        assert_eq!(g.num_live_factors(), 1);
        // Removing again is a no-op.
        assert!(g.remove_factor(0).is_empty());
        // The next add reuses the tombstoned slot and reattaches
        // adjacency.
        let idx = g.add_factor(Factor::new(FactorKind::And, vec![0, 2], 2.0));
        assert_eq!(idx, 0);
        assert!(!g.is_factor_dead(0));
        assert_eq!(g.factors_of(0), &[0]);
        assert_eq!(g.factors_of(2), &[1, 0]);
        assert_eq!(g.num_factors(), 2);
        // A further add appends (free list drained) and stays live.
        let idx2 = g.add_factor(Factor::new(FactorKind::IsTrue, vec![1], 0.3));
        assert_eq!(idx2, 2);
        assert!(!g.is_factor_dead(2));
        assert_eq!(g.num_live_factors(), 3);
    }

    #[test]
    fn remove_spatial_factor_detaches_and_reuses_slot() {
        let mut g = tiny();
        assert_eq!(g.remove_spatial_factor(0), Some((0, 1)));
        assert!(g.is_spatial_factor_dead(0));
        assert!(g.spatial_factors_of(0).is_empty());
        assert!(g.spatial_factors_of(1).is_empty());
        assert_eq!(g.num_live_spatial_factors(), 0);
        assert_eq!(g.remove_spatial_factor(0), None);
        let idx = g.add_spatial_factor(SpatialFactor::binary(1, 2, 0.4));
        assert_eq!(idx, 0);
        assert_eq!(g.spatial_factors_of(1), &[0]);
        assert_eq!(g.spatial_factors_of(2), &[0]);
        assert_eq!(g.num_live_spatial_factors(), 1);
    }

    #[test]
    fn kill_variable_retires_without_compaction() {
        let mut g = tiny();
        g.remove_factor(0);
        g.remove_spatial_factor(0);
        g.kill_variable(1);
        assert!(g.is_var_dead(1));
        assert_eq!(g.num_variables(), 3, "slot is kept");
        assert_eq!(g.num_live_variables(), 2);
        assert_eq!(g.query_variables(), vec![0]);
        // The dead var's location no longer widens the bounding box.
        assert_eq!(g.bounding_box(), Rect::raw(0.0, 0.0, 0.0, 0.0));
        // New variables still get fresh dense ids.
        let d = g.add_variable(Variable::binary(0, "d"));
        assert_eq!(d, 3);
        assert!(!g.is_var_dead(d));
        // Compaction drops tombstones and dead vars.
        let (g2, remap) = g.remove_variables(&std::collections::HashSet::new());
        assert_eq!(g2.num_variables(), 3);
        assert_eq!(remap[1], None);
        assert_eq!(g2.num_factors(), 1);
        assert_eq!(g2.num_spatial_factors(), 0);
    }

    #[test]
    fn fingerprint_tracks_liveness() {
        let base = tiny();
        let mut t = tiny();
        t.remove_factor(1);
        assert_ne!(base.fingerprint(), t.fingerprint());
        // A tombstone differs from a live zero-weight factor in the
        // same slot.
        let mut z = tiny();
        z.set_factor_weight(1, 0.0);
        assert_ne!(z.fingerprint(), t.fingerprint());
        let mut k = tiny();
        k.kill_variable(2);
        assert_ne!(base.fingerprint(), k.fingerprint());
        // Round-trips through serialization.
        let mut buf = Vec::new();
        t.save(&mut buf).unwrap();
        let t2 = FactorGraph::load(buf.as_slice()).unwrap();
        assert_eq!(t.fingerprint(), t2.fingerprint());
    }

    #[test]
    fn set_evidence_toggles() {
        let mut g = tiny();
        g.set_evidence(0, Some(1));
        assert!(g.variable(0).is_evidence());
        g.set_evidence(0, None);
        assert!(!g.variable(0).is_evidence());
    }
}
