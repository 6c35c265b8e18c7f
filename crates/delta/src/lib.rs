//! Differential grounding and live factor-graph maintenance.
//!
//! The batch pipeline grounds a program once and treats the result as
//! immutable; this crate is the maintenance layer between ingestion and
//! inference that keeps a constructed [`KnowledgeBase`] consistent as
//! base rows arrive and leave (the DeepDive incremental-construction
//! workload, PAPERS.md). One [`apply_updates`] call takes a batch of
//! typed insert/retract updates and:
//!
//! 1. **Retraction** runs the negative half of semi-naive delta
//!    evaluation *before* deleting the rows: each rule is re-evaluated
//!    with one body atom restricted to the doomed rows, which
//!    enumerates exactly the bindings those rows support. After the
//!    rows are gone, a seeded re-derivation
//!    ([`Grounder::eval_rule_seeded`]) counts how many of each binding
//!    survive on other rows; the excess factors — located exactly via
//!    the per-factor binding provenance
//!    ([`Grounding::live_factors_matching`]) — are tombstoned in place
//!    (no id compaction, so every downstream structure keeps its
//!    variable ids). Head atoms no rule can re-derive are retired with
//!    [`Grounding::kill_atom`] and leave the pyramid index.
//! 2. **Insertion** reuses the positive delta path
//!    ([`Grounder::ground_delta`]): only rules mentioning a changed
//!    relation re-run, restricted to the new rows; tombstoned factor
//!    slots are recycled via the graph's free lists.
//! 3. **Re-inference** re-samples only the concliques of the variables
//!    the delta touched (new atoms, plus live neighbours of tombstoned
//!    factors), instance k of K warm-started from the (k + ½)/K quantile
//!    of the converged marginals.
//!
//! The touched-variable set returned in [`DeltaStats`] is what a serving
//! layer needs for precise cache invalidation: only cached answers whose
//! neighborhood intersects those variables can have changed.

use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

use sya_core::{KnowledgeBase, SyaSession};
use sya_fg::VarId;
use sya_ground::{BoundSeed, GroundError, Grounder, Grounding};
use sya_lang::{CompiledAtom, CompiledProgram, CompiledRule, RuleKind, SlotTerm};
use sya_store::{Database, Row, Value};

/// What to do with one base row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowOp {
    Insert,
    Retract,
}

/// One typed base-row update.
#[derive(Debug, Clone, PartialEq)]
pub struct RowUpdate {
    pub op: RowOp,
    pub relation: String,
    pub row: Row,
}

impl RowUpdate {
    pub fn insert(relation: impl Into<String>, row: Row) -> RowUpdate {
        RowUpdate { op: RowOp::Insert, relation: relation.into(), row }
    }

    pub fn retract(relation: impl Into<String>, row: Row) -> RowUpdate {
        RowUpdate { op: RowOp::Retract, relation: relation.into(), row }
    }
}

/// Statistics of one [`apply_updates`] call.
#[derive(Debug, Clone, Default)]
pub struct DeltaStats {
    pub rows_inserted: usize,
    pub rows_retracted: usize,
    /// Ground atoms created by the insert half.
    pub vars_added: usize,
    /// Ground atoms retired (no longer derivable from any rule).
    pub vars_removed: usize,
    /// Live logical factors created (tombstoned slots may be recycled).
    pub factors_added: usize,
    pub factors_tombstoned: usize,
    pub spatial_factors_added: usize,
    pub spatial_factors_tombstoned: usize,
    /// Live variables whose Markov blanket the delta changed — the seed
    /// set of conclique-restricted re-inference, and the footprint a
    /// cache layer should intersect against.
    pub touched: Vec<VarId>,
    /// Variables actually re-sampled (touched plus their concliques).
    pub resampled: usize,
    /// Row deletion + delta grounding + graph surgery.
    pub apply_time: Duration,
    /// Conclique-restricted re-inference.
    pub infer_time: Duration,
}

/// Errors surfaced by differential maintenance.
#[derive(Debug)]
pub enum DeltaError {
    /// An update failed validation; nothing was applied.
    BadUpdate(String),
    /// Delta evaluation failed mid-apply.
    Ground(GroundError),
    /// The knowledge base was not built with the spatial sampler — there
    /// is no pyramid index to maintain, so live updates are unsupported.
    NotSpatial,
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::BadUpdate(msg) => write!(f, "bad row update: {msg}"),
            DeltaError::Ground(e) => write!(f, "delta grounding failed: {e}"),
            DeltaError::NotSpatial => {
                write!(f, "knowledge base has no pyramid index (spatial sampler required)")
            }
        }
    }
}

impl std::error::Error for DeltaError {}

impl From<GroundError> for DeltaError {
    fn from(e: GroundError) -> Self {
        DeltaError::Ground(e)
    }
}

/// Applies a batch of base-row updates to a constructed knowledge base:
/// retractions first (tombstoning their factors and any atoms left
/// underivable), then insertions (delta grounding), then one
/// conclique-restricted re-sample of everything the batch touched.
///
/// Validation is all-or-nothing: every update is checked against the
/// schema — and every retraction matched to a distinct existing row —
/// before anything mutates, so a bad batch leaves `kb` and `db`
/// untouched. Retractions refer to rows present *before* the batch;
/// retracting a row inserted by the same batch is rejected.
pub fn apply_updates(
    session: &SyaSession,
    kb: &mut KnowledgeBase,
    db: &mut Database,
    evidence: &dyn Fn(&str, &[Value]) -> Option<u32>,
    updates: &[RowUpdate],
) -> Result<DeltaStats, DeltaError> {
    if kb.pyramid.is_none() {
        return Err(DeltaError::NotSpatial);
    }
    let t0 = Instant::now();

    // ---- Validate everything before mutating anything.
    let mut claimed: HashMap<&str, HashSet<usize>> = HashMap::new();
    let mut retract_rows: HashMap<String, Vec<usize>> = HashMap::new();
    for (i, u) in updates.iter().enumerate() {
        let table = db
            .table(&u.relation)
            .map_err(|e| DeltaError::BadUpdate(format!("update #{i}: {e}")))?;
        table
            .check_row(&u.row)
            .map_err(|e| DeltaError::BadUpdate(format!("update #{i}: {e}")))?;
        if u.op == RowOp::Retract {
            let taken = claimed.entry(u.relation.as_str()).or_default();
            let Some(rid) = table.find_rows(&u.row).into_iter().find(|r| !taken.contains(r))
            else {
                return Err(DeltaError::BadUpdate(format!(
                    "update #{i}: no matching {} row to retract \
                     (retractions reference rows present before this batch)",
                    u.relation
                )));
            };
            taken.insert(rid);
            retract_rows.entry(u.relation.clone()).or_default().push(rid);
        }
    }

    let live_factors_start = kb.grounding.graph.num_live_factors();
    let live_spatial_start = kb.grounding.graph.num_live_spatial_factors();
    let program = session.compiled();
    let mut grounder = Grounder::new(program, session.config().ground.clone());
    let mut touched: HashSet<VarId> = HashSet::new();
    let mut stats = DeltaStats::default();

    // ---- Retract phase.
    if !retract_rows.is_empty() {
        // Enumerate the bindings the doomed rows support, while the rows
        // are still present: one delta pass per (rule, body position),
        // deduplicated so a match using doomed rows at two positions
        // counts once. (Duplicate matches collapse to one binding here;
        // the survivor count below restores the multiplicity.)
        let mut vanished: Vec<(usize, Vec<Vec<Value>>)> = Vec::new();
        for (ri, rule) in program.rules.iter().enumerate() {
            let delta_atoms: Vec<usize> = rule
                .body
                .iter()
                .enumerate()
                .filter(|(_, a)| retract_rows.contains_key(&a.relation))
                .map(|(k, _)| k)
                .collect();
            if delta_atoms.is_empty() {
                continue;
            }
            let mut seen = HashSet::new();
            let mut bindings = Vec::new();
            for k in delta_atoms {
                for b in
                    grounder.eval_rule_delta(rule, db, &mut kb.grounding, k, &retract_rows)?
                {
                    if seen.insert(Grounding::canonical_key(&b)) {
                        bindings.push(b);
                    }
                }
            }
            if !bindings.is_empty() {
                vanished.push((ri, bindings));
            }
        }

        // Delete the rows; the hash indexes were built on the old tables.
        for (rel, rows) in &retract_rows {
            let table =
                db.table_mut(rel).map_err(|e| DeltaError::Ground(GroundError::Store(e)))?;
            stats.rows_retracted += table.remove_rows(rows);
        }
        let _ = grounder.take_hash_indexes();

        // Per vanished binding: count how many identical matches survive
        // on the remaining rows, tombstone the excess factors, and mark
        // head atoms of fully vanished bindings as death candidates.
        let mut candidates: Vec<VarId> = Vec::new();
        for (ri, bindings) in vanished {
            let rule = &program.rules[ri];
            for binding in bindings {
                let key = Grounding::canonical_key(&binding);
                let surviving =
                    surviving_matches(&mut grounder, rule, db, &mut kb.grounding, &binding, &key)?;
                if let RuleKind::Inference(_) = rule.kind {
                    let matching = kb.grounding.live_factors_matching(&rule.label, &key);
                    let excess = matching.len().saturating_sub(surviving);
                    for &f in matching.iter().rev().take(excess) {
                        for v in kb.grounding.tombstone_factor(f) {
                            touched.insert(v);
                        }
                    }
                }
                if surviving == 0 {
                    for atom in &rule.head {
                        let values = head_values(atom, &binding);
                        if let Some(v) = kb.grounding.atom_id(&atom.relation, &values) {
                            candidates.push(v);
                        }
                    }
                }
            }
        }

        // An atom dies only when *no* rule head can re-derive it.
        candidates.sort_unstable();
        candidates.dedup();
        for v in candidates {
            if kb.grounding.graph.is_var_dead(v)
                || atom_derivable(&mut grounder, program, db, &mut kb.grounding, v)?
            {
                continue;
            }
            let location = kb.grounding.graph.variable(v).location;
            touched.extend(kb.grounding.kill_atom(v));
            if let (Some(p), Some(pyramid)) = (location, kb.pyramid.as_mut()) {
                pyramid.remove(v, p);
            }
            stats.vars_removed += 1;
        }
    }
    let live_factors_mid = kb.grounding.graph.num_live_factors();
    let live_spatial_mid = kb.grounding.graph.num_live_spatial_factors();

    // ---- Insert phase: the positive delta path, as in `SyaSession::extend`.
    let mut insert_delta: HashMap<String, Vec<usize>> = HashMap::new();
    for u in updates.iter().filter(|u| u.op == RowOp::Insert) {
        let table =
            db.table_mut(&u.relation).map_err(|e| DeltaError::Ground(GroundError::Store(e)))?;
        insert_delta.entry(u.relation.clone()).or_default().push(table.len());
        table
            .insert(u.row.clone())
            .map_err(|e| DeltaError::Ground(GroundError::Store(e)))?;
        stats.rows_inserted += 1;
    }
    let new_vars: Vec<VarId> = if insert_delta.is_empty() {
        Vec::new()
    } else {
        grounder.ground_delta(db, evidence, &mut kb.grounding, &insert_delta)?
    };

    // ---- Re-inference: one conclique-restricted warm re-sample over
    // everything the batch touched.
    kb.counts.extend_for(&kb.grounding.graph);
    let pyramid = kb.pyramid.as_mut().expect("checked above");
    for &v in &new_vars {
        if let Some(p) = kb.grounding.graph.variable(v).location {
            pyramid.insert(v, p, &kb.grounding.graph);
        }
    }
    let mut changed: Vec<VarId> = new_vars.clone();
    changed.extend(touched.iter().copied());
    changed.retain(|&v| !kb.grounding.graph.is_var_dead(v));
    changed.sort_unstable();
    changed.dedup();
    stats.apply_time = t0.elapsed();

    let t1 = Instant::now();
    if !changed.is_empty() {
        let (fresh, affected) = sya_infer::incremental_spatial_gibbs(
            &kb.grounding.graph,
            pyramid,
            &changed,
            &session.config().infer,
            &kb.counts,
            session.obs(),
        );
        stats.resampled = affected.len();
        kb.counts.merge_affected(&fresh, affected);
    }
    stats.infer_time = t1.elapsed();

    let live_factors_end = kb.grounding.graph.num_live_factors();
    let live_spatial_end = kb.grounding.graph.num_live_spatial_factors();
    stats.vars_added = new_vars.len();
    stats.factors_tombstoned = live_factors_start.saturating_sub(live_factors_mid);
    stats.factors_added = live_factors_end.saturating_sub(live_factors_mid);
    stats.spatial_factors_tombstoned = live_spatial_start.saturating_sub(live_spatial_mid);
    stats.spatial_factors_added = live_spatial_end.saturating_sub(live_spatial_mid);
    stats.touched = changed;
    publish(session, &stats);
    Ok(stats)
}

fn publish(session: &SyaSession, stats: &DeltaStats) {
    let obs = session.obs();
    if !obs.is_enabled() {
        return;
    }
    obs.counter_add("delta.rows_inserted_total", stats.rows_inserted as u64);
    obs.counter_add("delta.rows_retracted_total", stats.rows_retracted as u64);
    obs.counter_add("delta.vars_added_total", stats.vars_added as u64);
    obs.counter_add("delta.vars_removed_total", stats.vars_removed as u64);
    obs.counter_add("delta.factors_added_total", stats.factors_added as u64);
    obs.counter_add("delta.factors_tombstoned_total", stats.factors_tombstoned as u64);
    obs.counter_add("delta.spatial_factors_added_total", stats.spatial_factors_added as u64);
    obs.counter_add(
        "delta.spatial_factors_tombstoned_total",
        stats.spatial_factors_tombstoned as u64,
    );
    obs.counter_add("delta.vars_touched_total", stats.touched.len() as u64);
    obs.counter_add("delta.resampled_total", stats.resampled as u64);
    obs.histogram_record("delta.apply_seconds", stats.apply_time.as_secs_f64());
    obs.histogram_record("delta.infer_seconds", stats.infer_time.as_secs_f64());
}

/// Head-atom values under a binding (the same mapping grounding applies:
/// wildcards materialize as `Null`).
fn head_values(atom: &CompiledAtom, binding: &[Value]) -> Vec<Value> {
    atom.terms
        .iter()
        .map(|t| match t {
            SlotTerm::Slot(s) => binding[*s].clone(),
            SlotTerm::Const(v) => v.clone(),
            SlotTerm::Wildcard => Value::Null,
        })
        .collect()
}

/// Values safe to pre-bind in a [`BoundSeed`]: `Null` never satisfies
/// SQL equality and geometries have no hash-join key (the equi-probe
/// would return nothing), so both stay unseeded. A seed is only a
/// restriction — the caller's exact canonical-key filter decides.
fn seedable(values: impl Iterator<Item = (usize, Value)>) -> BoundSeed {
    BoundSeed {
        values: values.filter(|(_, v)| v.join_key().is_some()).collect(),
        within: None,
    }
}

/// How many matches of `rule` with exactly this binding remain on the
/// post-deletion tables (each corresponds to one factor the binding
/// still owns).
fn surviving_matches(
    grounder: &mut Grounder,
    rule: &CompiledRule,
    db: &mut Database,
    out: &mut Grounding,
    binding: &[Value],
    key: &str,
) -> Result<usize, GroundError> {
    let seed = seedable(binding.iter().cloned().enumerate());
    let rows = grounder.eval_rule_seeded(rule, db, out, &seed)?;
    Ok(rows.iter().filter(|b| Grounding::canonical_key(b) == key).count())
}

/// Whether any rule head can still derive the ground atom `v` from the
/// current tables: per matching head, seed the body evaluation with the
/// atom's values and check for a binding that reproduces them exactly.
fn atom_derivable(
    grounder: &mut Grounder,
    program: &CompiledProgram,
    db: &mut Database,
    out: &mut Grounding,
    v: VarId,
) -> Result<bool, GroundError> {
    let Some((relation, values)) = out.atom_meta.get(v as usize).cloned() else {
        return Ok(false);
    };
    let key = Grounding::canonical_key(&values);
    for rule in &program.rules {
        for atom in &rule.head {
            if atom.relation != relation {
                continue;
            }
            // Bind the head's slots to the atom's values; constants and
            // wildcards must agree with the atom or this head can never
            // produce it.
            let mut seed_vals: HashMap<usize, Value> = HashMap::new();
            let mut feasible = true;
            for (pos, t) in atom.terms.iter().enumerate() {
                let want = &values[pos];
                match t {
                    SlotTerm::Slot(s) => {
                        if want.is_null() {
                            continue;
                        }
                        match seed_vals.get(s) {
                            Some(prev) if prev.sql_eq(want) != Some(true) => {
                                feasible = false;
                                break;
                            }
                            _ => {
                                seed_vals.insert(*s, want.clone());
                            }
                        }
                    }
                    SlotTerm::Const(c) => {
                        if c.sql_eq(want) != Some(true) {
                            feasible = false;
                            break;
                        }
                    }
                    SlotTerm::Wildcard => {
                        if !want.is_null() {
                            feasible = false;
                            break;
                        }
                    }
                }
            }
            if !feasible {
                continue;
            }
            let seed = seedable(seed_vals.into_iter());
            for b in grounder.eval_rule_seeded(rule, db, out, &seed)? {
                if Grounding::canonical_key(&head_values(atom, &b)) == key {
                    return Ok(true);
                }
            }
        }
    }
    Ok(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sya_core::{SyaConfig, SyaSession};
    use sya_data::{gwdb_dataset, GwdbConfig};
    use sya_geom::Point;

    fn ev(d: &sya_data::Dataset) -> impl Fn(&str, &[Value]) -> Option<u32> + Clone {
        let evidence = d.evidence.clone();
        move |_: &str, vals: &[Value]| {
            vals.first().and_then(Value::as_int).and_then(|id| evidence.get(&id).copied())
        }
    }

    fn build(n: usize) -> (SyaSession, KnowledgeBase, sya_data::Dataset) {
        let mut d = gwdb_dataset(&GwdbConfig { n_wells: n, ..Default::default() });
        let cfg = SyaConfig::sya()
            .with_epochs(200)
            .with_seed(7)
            .with_bandwidth(15.0)
            .with_spatial_radius(30.0);
        let session = SyaSession::new(&d.program, d.constants.clone(), d.metric, cfg).unwrap();
        let evidence = ev(&d);
        let kb = session.construct(&mut d.db, &evidence).unwrap();
        (session, kb, d)
    }

    fn well_row(id: i64, x: f64, y: f64, arsenic: f64) -> Row {
        vec![
            Value::Int(id),
            Value::from(Point::new(x, y)),
            Value::Double(arsenic),
            Value::Double(0.2),
        ]
    }

    /// Multiset of live logical-factor signatures, id-independent: the
    /// isomorphism key the delta path must preserve.
    fn live_factor_signatures(g: &Grounding) -> Vec<String> {
        let mut sigs: Vec<String> = g
            .graph
            .factors()
            .iter()
            .enumerate()
            .filter(|(i, _)| !g.graph.is_factor_dead(*i as u32))
            .map(|(_, f)| {
                let mut names: Vec<&str> =
                    f.vars.iter().map(|&v| g.graph.variable(v).name.as_str()).collect();
                names.sort_unstable();
                format!("{:?}|{}|{}", f.kind, names.join(","), f.weight)
            })
            .collect();
        sigs.sort();
        sigs
    }

    fn live_spatial_signatures(g: &Grounding) -> Vec<String> {
        let mut sigs: Vec<String> = g
            .graph
            .spatial_factors()
            .iter()
            .enumerate()
            .filter(|(i, _)| !g.graph.is_spatial_factor_dead(*i as u32))
            .map(|(_, f)| {
                let mut names = [
                    g.graph.variable(f.a).name.as_str(),
                    g.graph.variable(f.b).name.as_str(),
                ];
                names.sort_unstable();
                format!("{}|{}|{:.9}", names[0], names[1], f.weight)
            })
            .collect();
        sigs.sort();
        sigs
    }

    #[test]
    fn insert_matches_extend_semantics() {
        let (session, mut kb, mut d) = build(60);
        let evidence = ev(&d);
        let before = kb.grounding.graph.num_live_variables();
        let stats = apply_updates(
            &session,
            &mut kb,
            &mut d.db,
            &evidence,
            &[RowUpdate::insert("Well", well_row(9001, 40.0, 40.0, 0.1))],
        )
        .unwrap();
        assert_eq!(stats.rows_inserted, 1);
        assert_eq!(stats.vars_added, 1);
        assert!(stats.resampled >= 1);
        assert_eq!(kb.grounding.graph.num_live_variables(), before + 1);
        let v = kb
            .grounding
            .atom_id("IsSafe", &[Value::Int(9001), Value::from(Point::new(40.0, 40.0))])
            .expect("new atom exists");
        let score = kb.score_of(v);
        assert!((0.0..=1.0).contains(&score));
    }

    #[test]
    fn insert_then_retract_restores_the_graph() {
        let (session, mut kb, mut d) = build(60);
        let evidence = ev(&d);
        let base_factors = live_factor_signatures(&kb.grounding);
        let base_spatial = live_spatial_signatures(&kb.grounding);
        let base_rows = d.db.table("Well").unwrap().len();

        let row = well_row(9001, 40.0, 40.0, 0.1);
        let ins = apply_updates(
            &session,
            &mut kb,
            &mut d.db,
            &evidence,
            &[RowUpdate::insert("Well", row.clone())],
        )
        .unwrap();
        assert_eq!(ins.vars_added, 1);
        assert!(live_factor_signatures(&kb.grounding).len() >= base_factors.len());

        let ret = apply_updates(
            &session,
            &mut kb,
            &mut d.db,
            &evidence,
            &[RowUpdate::retract("Well", row)],
        )
        .unwrap();
        assert_eq!(ret.rows_retracted, 1);
        assert_eq!(ret.vars_removed, 1, "the well's atom must die: {ret:?}");
        assert_eq!(d.db.table("Well").unwrap().len(), base_rows);
        assert_eq!(live_factor_signatures(&kb.grounding), base_factors);
        assert_eq!(live_spatial_signatures(&kb.grounding), base_spatial);
        assert!(
            kb.grounding
                .atom_id("IsSafe", &[Value::Int(9001), Value::from(Point::new(40.0, 40.0))])
                .is_none(),
            "retracted atom must leave the catalogue"
        );
    }

    #[test]
    fn retracting_an_original_row_matches_a_fresh_ground() {
        let (session, mut kb, mut d) = build(60);
        let evidence = ev(&d);
        let victim = d.db.table("Well").unwrap().rows()[17].clone();
        let stats = apply_updates(
            &session,
            &mut kb,
            &mut d.db,
            &evidence,
            &[RowUpdate::retract("Well", victim)],
        )
        .unwrap();
        assert_eq!(stats.rows_retracted, 1);
        assert_eq!(stats.vars_removed, 1);

        // A fresh grounding of the post-delete database must agree on the
        // live-factor multiset (ids differ; signatures must not).
        let mut grounder = Grounder::new(session.compiled(), session.config().ground.clone());
        let fresh = grounder.ground(&mut d.db, &evidence).unwrap();
        assert_eq!(live_factor_signatures(&kb.grounding), live_factor_signatures(&fresh));
        assert_eq!(live_spatial_signatures(&kb.grounding), live_spatial_signatures(&fresh));
    }

    #[test]
    fn bad_batches_are_rejected_atomically() {
        let (session, mut kb, mut d) = build(40);
        let evidence = ev(&d);
        let rows_before = d.db.table("Well").unwrap().len();
        let factors_before = kb.grounding.graph.num_live_factors();

        // Arity error in the second update: nothing may apply.
        let err = apply_updates(
            &session,
            &mut kb,
            &mut d.db,
            &evidence,
            &[
                RowUpdate::insert("Well", well_row(9001, 40.0, 40.0, 0.1)),
                RowUpdate::insert("Well", vec![Value::Int(1)]),
            ],
        )
        .unwrap_err();
        assert!(matches!(err, DeltaError::BadUpdate(_)), "{err}");

        // Retracting a non-existent row fails; retracting the same row
        // twice needs two physical copies.
        let victim = d.db.table("Well").unwrap().rows()[3].clone();
        let err = apply_updates(
            &session,
            &mut kb,
            &mut d.db,
            &evidence,
            &[
                RowUpdate::retract("Well", victim.clone()),
                RowUpdate::retract("Well", victim),
            ],
        )
        .unwrap_err();
        assert!(matches!(err, DeltaError::BadUpdate(_)), "{err}");

        let err = apply_updates(
            &session,
            &mut kb,
            &mut d.db,
            &evidence,
            &[RowUpdate::insert("Nope", vec![Value::Int(1)])],
        )
        .unwrap_err();
        assert!(matches!(err, DeltaError::BadUpdate(_)), "{err}");

        assert_eq!(d.db.table("Well").unwrap().len(), rows_before);
        assert_eq!(kb.grounding.graph.num_live_factors(), factors_before);
    }

    #[test]
    fn touched_set_is_local() {
        let (session, mut kb, mut d) = build(120);
        let evidence = ev(&d);
        let n = kb.grounding.graph.num_live_variables();
        let stats = apply_updates(
            &session,
            &mut kb,
            &mut d.db,
            &evidence,
            &[RowUpdate::insert("Well", well_row(9001, 40.0, 40.0, 0.1))],
        )
        .unwrap();
        assert!(!stats.touched.is_empty());
        assert!(
            stats.touched.len() < n / 2,
            "a single-row delta must not touch half the graph: {} of {n}",
            stats.touched.len()
        );
    }
}
