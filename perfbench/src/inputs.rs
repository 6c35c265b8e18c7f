//! Every input a run uses, derived from `--seed` alone: the GWDB
//! dataset, the sampler seed, the read key sequences and the synthetic
//! wells that writes insert and retract.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use sya_core::{SyaConfig, SyaSession};
use sya_data::gwdb::{GWDB_BANDWIDTH, GWDB_RADIUS};
use sya_data::{gwdb_dataset, Dataset, GwdbConfig};
use sya_store::{read_csv_into, Column, Database, TableSchema, Value};

/// The ROADMAP's GWDB size. Paper scale (9,831 wells) takes over a
/// minute per construction, too long to repeat within one run.
pub const N_WELLS: usize = 2000;

/// The variable relation every workload reads.
pub const RELATION: &str = "IsSafe";

/// Seed of the fixed popularity ranking of the lazy workload's keys.
const HOT_SET_SEED: u64 = 4077;

/// Ids of synthetic wells start here, far above the generated ones.
const SYNTHETIC_ID_BASE: i64 = 1_000_000;

/// An independent stream per purpose, so adding one never shifts another.
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream)
}

/// The GWDB dataset. Its generator seed is fixed, not taken from
/// `--seed`: the generator's random field sets how many rule factors
/// ground (16k to 33k at 2,000 wells), and with it the work of every
/// workload, so a per-seed dataset would measure the dataset, not the
/// code. `--seed` varies everything else a run draws.
pub fn dataset() -> Dataset {
    gwdb_dataset(&GwdbConfig {
        n_wells: N_WELLS,
        ..Default::default()
    })
}

/// `SyaConfig::sya()` (1000 epochs, K = 4, L = 8, default cell workers)
/// with the calibrated GWDB bandwidth and radius.
pub fn sya_config(seed: u64) -> SyaConfig {
    SyaConfig::sya()
        .with_seed(rng(seed, 2).gen())
        .with_bandwidth(GWDB_BANDWIDTH)
        .with_spatial_radius(GWDB_RADIUS)
}

/// Seed of the lazy server's restricted chains.
pub fn chain_seed(seed: u64) -> u64 {
    rng(seed, 3).gen()
}

/// The evidence map keyed the way the serving layer keys it.
pub fn evidence_map(dataset: &Dataset) -> HashMap<(String, i64), u32> {
    dataset
        .evidence
        .iter()
        .map(|(&id, &v)| ((RELATION.to_owned(), id), v))
        .collect()
}

pub fn evidence_fn(evidence: &HashMap<i64, u32>) -> impl Fn(&str, &[Value]) -> Option<u32> + '_ {
    move |_, values| {
        values
            .first()
            .and_then(Value::as_int)
            .and_then(|id| evidence.get(&id).copied())
    }
}

/// The `Well` table as the CSV a user hands `sya run --table`; points as
/// bare `x y` pairs, numbers in their shortest exact form.
pub fn wells_csv(dataset: &Dataset) -> String {
    let mut out = String::from("id,location,arsenic,fluoride\n");
    let table = dataset.db.table("Well").expect("GWDB has a Well table");
    for row in table.rows() {
        let id = row[0].as_int().expect("well id");
        let at = dataset.locations[&id];
        let reading = |v: &Value| v.as_f64().expect("well reading");
        out += &format!(
            "{id},{} {},{},{}\n",
            at.x,
            at.y,
            reading(&row[2]),
            reading(&row[3])
        );
    }
    out
}

/// Loads the input tables from CSV text, as `sya run` does from files.
pub fn load_tables(session: &SyaSession, wells_csv: &str) -> Result<Database, String> {
    let decl = session
        .compiled()
        .schema("Well")
        .ok_or("the program declares no Well")?;
    let columns = decl
        .columns
        .iter()
        .map(|(n, t)| Column::new(n.clone(), *t))
        .collect();
    let mut db = Database::new();
    let table = db
        .create_table("Well", TableSchema::new(columns))
        .map_err(|e| e.to_string())?;
    read_csv_into(table, wells_csv.as_bytes()).map_err(|e| e.to_string())?;
    Ok(db)
}

/// Every well id, sorted.
pub fn all_ids(dataset: &Dataset) -> Vec<i64> {
    let mut ids: Vec<i64> = dataset.locations.keys().copied().collect();
    ids.sort_unstable();
    ids
}

/// `n` ids drawn uniformly from `ids`.
pub fn uniform_ids(ids: &[i64], n: usize, rng: &mut StdRng) -> Vec<i64> {
    (0..n).map(|_| ids[rng.gen_range(0..ids.len())]).collect()
}

/// `n` ids drawn Zipf(`s`) over `ids`: rank `r` has weight `1 / r^s`.
/// Ranks map to ids through a fixed shuffle, so the hot keys are spread
/// over the map and are the same wells for every seed: which wells are
/// popular is part of the workload, like the dataset; `rng` draws the
/// sequence.
pub fn zipf_ids(ids: &[i64], n: usize, s: f64, rng: &mut StdRng) -> Vec<i64> {
    let mut by_rank = ids.to_vec();
    let mut shuffle = StdRng::seed_from_u64(HOT_SET_SEED);
    for i in (1..by_rank.len()).rev() {
        by_rank.swap(i, shuffle.gen_range(0..=i));
    }
    let mut cdf = Vec::with_capacity(by_rank.len());
    let mut total = 0.0;
    for r in 1..=by_rank.len() {
        total += 1.0 / (r as f64).powf(s);
        cdf.push(total);
    }
    (0..n)
        .map(|_| {
            let u = rng.gen::<f64>() * total;
            by_rank[cdf.partition_point(|&c| c < u).min(by_rank.len() - 1)]
        })
        .collect()
}

/// A synthetic well placed next to an existing one, as the JSON row of
/// a `POST /v1/rows` update. Low readings make it join the rule factors
/// of its neighbours, so each write grounds real work.
pub fn synthetic_well(
    dataset: &Dataset,
    ids: &[i64],
    k: usize,
    rng: &mut StdRng,
) -> serde_json::Value {
    let anchor = dataset.locations[&ids[rng.gen_range(0..ids.len())]];
    serde_json::json!([
        SYNTHETIC_ID_BASE + k as i64,
        {"x": anchor.x + rng.gen_range(-1.0..1.0), "y": anchor.y + rng.gen_range(-1.0..1.0)},
        rng.gen_range(0.02..0.2),
        rng.gen_range(0.02..0.25),
    ])
}

/// The `POST /v1/rows` body for one insert or retract of `row`.
pub fn rows_body(op: &str, row: &serde_json::Value) -> String {
    serde_json::json!({"updates": [{"op": op, "relation": "Well", "row": row}]}).to_string()
}
