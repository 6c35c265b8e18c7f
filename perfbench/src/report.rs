//! Metric names, the run's findings, and the result line.

use std::collections::BTreeMap;

/// Metrics a user of the system sees, measured on every workload with
/// tracing off. `BENCHMARK.json` lists the same names.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("construct_s", "s"),
    ("read_p50_ms", "ms"),
    ("read_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Metrics of single layers, printed by the traced run. A layer a
/// workload never calls reports 0. The first four are end-to-end
/// metrics that exist on one workload only, so they cannot be gated on
/// every workload; they ride here so that every run still prints them.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("write_p50_ms", "ms"),
    ("write_p90_ms", "ms"),
    ("read_max_rps", "1/s"),
    ("fail_share", "ratio"),
    ("lang.compile_s", "s"),
    ("ground.wall_s", "s"),
    ("ground.variables", "count"),
    ("ground.logical_factors", "count"),
    ("ground.spatial_factors", "count"),
    ("ground.pruned_pairs", "count"),
    ("store.scans", "count"),
    ("store.spatial_queries", "count"),
    ("store.rows_scanned", "count"),
    ("infer.pyramid_build_s", "s"),
    ("infer.sample_s", "s"),
    ("infer.samples", "count"),
    ("infer.samples_per_s", "1/s"),
    ("infer.allocs", "count"),
    ("infer.alloc_bytes", "bytes"),
    ("infer.readout_s", "s"),
    ("shard.plan_s", "s"),
    ("shard.run_s", "s"),
    ("shard.halo_vars", "count"),
    ("shard.boundary_factors", "count"),
    ("query.neighborhood_p50_s", "s"),
    ("query.neighborhood_p99_s", "s"),
    ("query.answer_p50_s", "s"),
    ("query.answer_p99_s", "s"),
    ("query.nh_variables", "count"),
    ("query.nh_factors", "count"),
    ("query.boundary_clamped", "count"),
    ("serve.request_s", "s"),
    ("serve.overhead_s", "s"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.singleflight_waits", "count"),
    ("serve.shed", "count"),
    ("serve.lookup_s", "s"),
    ("delta.apply_p50_s", "s"),
    ("delta.apply_p99_s", "s"),
    ("delta.infer_p50_s", "s"),
    ("delta.infer_p99_s", "s"),
    ("delta.touched", "count"),
    ("delta.resampled", "count"),
    ("fg.live_factors", "count"),
    ("fg.tombstoned_factors", "count"),
    ("load.lag_p99_ms", "ms"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_share", "ratio"),
    ("trace.unattributed_s", "s"),
    ("trace.spans", "count"),
];

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
    attempted: u64,
    failed: u64,
    checks: Vec<(String, bool, String)>,
    record: BTreeMap<&'static str, String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(unit_of(name).is_some(), "metric {name} is not declared");
        self.values.insert(name, value);
    }

    /// A value set earlier in the run, or 0.
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Counts operations; a failed one is an error or a refusal.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Records an output check; a failed check counts as a failed
    /// operation.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.ops(1, u64::from(!ok));
        self.checks.push((name.to_owned(), ok, detail.into()));
    }

    pub fn record(&mut self, key: &'static str, value: impl ToString) {
        self.record.insert(key, value.to_string());
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok, _)| *ok)
    }

    /// Prints the run record, every check and every metric measured,
    /// then the result line, which is last on stdout.
    pub fn print(&mut self, trace: bool) {
        let total = self.attempted.max(1) as f64;
        self.values.insert("fail_share", self.failed as f64 / total);
        for (k, v) in &self.record {
            println!("record {k} = {v}");
        }
        for (name, ok, detail) in &self.checks {
            println!(
                "check {name}: {} ({detail})",
                if *ok { "ok" } else { "FAILED" }
            );
        }
        for (name, value) in &self.values {
            println!("metric {name} = {value} {}", unit_of(name).unwrap_or("?"));
        }
        let wanted = if trace { PER_LAYER } else { END_TO_END };
        let metrics: Vec<String> = wanted
            .iter()
            .map(|(name, unit)| {
                let value = match self.values.get(name) {
                    Some(v) if v.is_finite() => *v,
                    Some(v) => panic!("metric {name} is {v}"),
                    None if trace => 0.0,
                    None => panic!("end-to-end metric {name} was not measured"),
                };
                format!("\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}")
            })
            .collect();
        let line = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        );
        println!("{line}");
    }
}

pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Nearest-rank percentile; 0 for an empty sample.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Peak resident set size of this process so far, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib * 1024.0 / 1e6)
}
