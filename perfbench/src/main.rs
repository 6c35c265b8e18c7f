//! One benchmark for the Sya workspace: end-to-end and per-layer
//! metrics over batch construction, sharded construction, lazy reads
//! and live row writes. See `README.md` for the workloads, the metrics
//! and which layer should move which end-to-end number.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload construct|lazy-read|live-mix \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of stdout is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` (the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`). The exit code is non-zero when
//! an output check fails.

mod construct;
mod inputs;
mod lazy_read;
mod live_mix;
mod load;
mod report;
mod serving;
mod trace;

use report::Report;
use std::path::PathBuf;
use trace::{CountingAlloc, Tracer};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Compiles timed under `lang.compile` spans per traced run.
const TRACED_COMPILES: usize = 5;

/// Seed held out from tuning: a claimed gain must also hold on it.
pub const HELD_OUT_SEED: u64 = 9001;

const WORKLOADS: &[&str] = &["construct", "lazy-read", "live-mix"];

/// One run: its arguments, its trace and what it found.
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub nproc: usize,
    pub tracer: Tracer,
    pub report: Report,
}

/// `lang`: parse and compile under a span, for `lang.compile_s`.
pub fn trace_compile(r: &mut Run, dataset: &sya_data::Dataset) {
    for i in 0..TRACED_COMPILES {
        r.tracer.span("lang.compile", None, i as u64, || {
            let ast = sya_lang::parse_program(&dataset.program).expect("GWDB program parses");
            std::hint::black_box(
                sya_lang::compile(&ast, &dataset.constants, dataset.metric)
                    .expect("GWDB program compiles"),
            )
        });
    }
    r.report.set(
        "lang.compile_s",
        report::median(&r.tracer.durations("lang.compile")),
    );
}

/// `store` from its existing counters, read through `counter`. Grounding
/// reaches the tables through full scans, which the planner counts, and
/// through R-tree probes, which the tables count; `store.rows_scanned`
/// is every row either path handed out.
pub fn report_store(report: &mut Report, counter: impl Fn(&str) -> f64) {
    report.set(
        "store.scans",
        counter("store.scans_total") + counter("store.planner_full_scan_total"),
    );
    report.set(
        "store.spatial_queries",
        counter("store.spatial_queries_total"),
    );
    report.set(
        "store.rows_scanned",
        counter("store.rows_scanned_total") + counter("store.rows_fetched_total"),
    );
}

/// Refuses to run when `BENCHMARK.json` names other metrics, or other
/// units, than this program prints.
fn check_manifest() -> Result<(), String> {
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else {
        return Ok(());
    };
    let manifest: serde_json::Value =
        serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    for (key, table) in [
        ("end_to_end", report::END_TO_END),
        ("per_layer", report::PER_LAYER),
    ] {
        let listed: Vec<(String, String)> = manifest
            .get(key)
            .and_then(|v| v.as_array())
            .into_iter()
            .flatten()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap_or("").to_owned();
                (field("name"), field("unit"))
            })
            .collect();
        let printed: Vec<(String, String)> = table
            .iter()
            .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
            .collect();
        if listed != printed {
            return Err(format!(
                "BENCHMARK.json {key} does not match the metrics printed"
            ));
        }
    }
    Ok(())
}

fn parse_args() -> Result<Run, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("bad --seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("bad --seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Run {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        tracer: Tracer::new(trace.ok_or("--trace is required")?),
        report: Report::default(),
    })
}

/// The commit when run from a git checkout, else `unknown`, plus a hash
/// of the workspace sources, which identifies the code either way.
fn code_identity() -> (String, String) {
    let commit = std::path::Path::new(".git")
        .exists()
        .then(|| {
            std::process::Command::new("git")
                .args(["rev-parse", "HEAD"])
                .output()
                .ok()
        })
        .flatten()
        .filter(|o| o.status.success())
        .map_or("unknown".to_owned(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_owned()
        });
    let mut files = Vec::new();
    let mut stack = vec![PathBuf::from("crates")];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).into_iter().flatten().flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                files.push(path);
            }
        }
    }
    files.sort();
    // FNV-1a over path and contents: stable across builds and hosts.
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for path in files {
        let bytes = std::fs::read(&path).unwrap_or_default();
        for b in path.to_string_lossy().bytes().chain(bytes) {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    (commit, format!("{hash:016x}"))
}

fn main() {
    if let Err(e) = check_manifest() {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
    let mut run = match parse_args() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // The hot-path profiler puts two clock reads around every sample;
    // a timing taken with it on measures the profiler.
    if sya_obs::profile::enabled() || std::env::var_os("SYA_PROFILE").is_some() {
        eprintln!("perfbench: refusing to time with the hot-path profiler on (unset SYA_PROFILE)");
        std::process::exit(2);
    }
    let (seed, traced) = (run.seed, run.tracer.enabled());
    run.report.record("workload", &run.workload);
    run.report.record("seed", seed);
    run.report.record("held_out_seed", HELD_OUT_SEED);
    run.report.record("seconds", run.seconds);
    run.report.record("trace", u8::from(traced));
    run.report.record("nproc", run.nproc);

    let workload = run.workload.clone();
    let result = match workload.as_str() {
        "construct" => construct::run(&mut run),
        "lazy-read" => lazy_read::run(&mut run),
        _ => live_mix::run(&mut run),
    };
    if let Err(e) = result {
        eprintln!("perfbench: {workload} failed: {e}");
        std::process::exit(1);
    }

    let (commit, source_hash) = code_identity();
    run.report.record("commit", commit);
    run.report.record("source_hash", source_hash);
    if traced {
        run.report.set("trace.spans", run.tracer.len() as f64);
        let path = PathBuf::from(format!("perfbench/out/trace-{workload}-{seed}.jsonl"));
        match run.tracer.write_jsonl(&path) {
            Ok(()) => run.report.record("trace_file", path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }
    run.report.print(traced);
    if !run.report.correct() {
        std::process::exit(1);
    }
}
