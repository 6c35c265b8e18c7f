//! Crash/recovery integration tests for the checkpoint subsystem
//! (DESIGN.md §10): deterministic resume for all three samplers,
//! corruption fallback, fault-injected save failures, and a real
//! process-kill harness over the `sya` binary.

use std::fs;
use std::path::{Path, PathBuf};
use sya_ckpt::CheckpointStore;
use sya_fg::{Factor, FactorGraph, FactorKind, SpatialFactor, Variable};
use sya_geom::Point;
use sya_infer::{
    parallel_random_gibbs_ckpt, sequential_gibbs_ckpt, spatial_gibbs_ckpt, CheckpointOptions,
    CheckpointSink, CheckpointState, InferConfig, PyramidIndex,
};
use sya_runtime::{CancellationToken, ExecContext, FaultPlan, RunBudget, RunOutcome};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sya_recovery_{}_{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn ctx() -> ExecContext {
    ExecContext::new(RunBudget::unlimited())
}

/// A located grid of binary variables with chain factors and vertical
/// spatial factors; every 7th variable is evidence.
fn grid_graph(n: usize) -> FactorGraph {
    let mut g = FactorGraph::new();
    let side = (n as f64).sqrt().ceil() as usize;
    for i in 0..n {
        let x = (i % side) as f64;
        let y = (i / side) as f64;
        let mut v = Variable::binary(i as u32, format!("v{i}")).at(Point::new(x, y));
        if i % 7 == 0 {
            v = v.with_evidence((i % 2) as u32);
        }
        g.add_variable(v);
    }
    for i in 0..n.saturating_sub(1) {
        g.add_factor(Factor::new(FactorKind::Imply, vec![i as u32, (i + 1) as u32], 0.6));
    }
    for i in 0..n {
        if i + side < n {
            g.add_spatial_factor(SpatialFactor::binary(i as u32, (i + side) as u32, 0.4));
        }
    }
    g
}

/// A sink that persists into a real store and requests cancellation once
/// a checkpoint at (or past) `at_epoch` has been durably saved — the
/// in-process stand-in for killing the run mid-flight.
struct CancelAt<'a> {
    store: &'a CheckpointStore,
    token: &'a CancellationToken,
    at_epoch: u64,
}

impl CheckpointSink for CancelAt<'_> {
    fn save(&self, state: &CheckpointState) -> Result<(), String> {
        self.store.save(state)?;
        if state.epoch() >= self.at_epoch {
            self.token.cancel();
        }
        Ok(())
    }
}

#[test]
fn sequential_resume_is_identical_to_uninterrupted() {
    let graph = grid_graph(24);
    let (epochs, burn, seed) = (40, 4, 11);
    let reference =
        sequential_gibbs_ckpt(&graph, epochs, burn, seed, &ctx(), CheckpointOptions::none(), None)
            .unwrap();

    // Interrupt at several different epochs: wherever the run dies, the
    // resumed chain must land on the exact same counts.
    for cancel_at in [3u64, 7, 13, 29] {
        let dir = tmp_dir(&format!("seq_{cancel_at}"));
        let store = CheckpointStore::create(&dir, graph.fingerprint()).unwrap();
        let token = CancellationToken::new();
        let sink = CancelAt { store: &store, token: &token, at_epoch: cancel_at };
        let run_ctx = ExecContext::new(RunBudget::unlimited()).with_token(token.clone());
        let partial = sequential_gibbs_ckpt(
            &graph,
            epochs,
            burn,
            seed,
            &run_ctx,
            CheckpointOptions::to_sink(&sink, 1),
            None,
        )
        .unwrap();
        assert!(!partial.outcome.is_completed(), "cancel at {cancel_at} must interrupt");

        let rec = store.recover(|s| s.validate_for(&graph, 1)).unwrap();
        let (_, state) = rec.state.expect("an interrupted run leaves a checkpoint");
        let CheckpointState::Sequential(chain) = state else {
            panic!("sequential run must write sequential checkpoints")
        };
        let resumed = sequential_gibbs_ckpt(
            &graph,
            epochs,
            burn,
            seed,
            &ctx(),
            CheckpointOptions::none(),
            Some(chain),
        )
        .unwrap();
        assert_eq!(
            resumed.counts.to_rows(),
            reference.counts.to_rows(),
            "resume after cancel at {cancel_at} diverged"
        );
        fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn parallel_resume_is_identical_to_uninterrupted() {
    let graph = grid_graph(24);
    let (epochs, burn, k, seed) = (40, 4, 3, 21);
    let reference = parallel_random_gibbs_ckpt(
        &graph,
        epochs,
        burn,
        k,
        seed,
        &ctx(),
        CheckpointOptions::none(),
        None,
    )
    .unwrap();

    for cancel_at in [4u64, 17] {
        let dir = tmp_dir(&format!("par_{cancel_at}"));
        let store = CheckpointStore::create(&dir, graph.fingerprint()).unwrap();
        let token = CancellationToken::new();
        let sink = CancelAt { store: &store, token: &token, at_epoch: cancel_at };
        let run_ctx = ExecContext::new(RunBudget::unlimited()).with_token(token.clone());
        let partial = parallel_random_gibbs_ckpt(
            &graph,
            epochs,
            burn,
            k,
            seed,
            &run_ctx,
            CheckpointOptions::to_sink(&sink, 1),
            None,
        )
        .unwrap();
        assert!(!partial.outcome.is_completed());

        let rec = store.recover(|s| s.validate_for(&graph, 1)).unwrap();
        let (_, CheckpointState::Parallel(chain)) = rec.state.unwrap() else {
            panic!("parallel run must write parallel checkpoints")
        };
        let resumed = parallel_random_gibbs_ckpt(
            &graph,
            epochs,
            burn,
            k,
            seed,
            &ctx(),
            CheckpointOptions::none(),
            Some(chain),
        )
        .unwrap();
        assert_eq!(resumed.counts.to_rows(), reference.counts.to_rows());
        fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn spatial_resume_is_identical_to_uninterrupted() {
    let graph = grid_graph(36);
    // Two instances exercise the all-K checkpoint aggregation; every
    // leg runs at one and at two cell workers, and all must reproduce
    // the one-worker uninterrupted reference.
    let cfg = InferConfig {
        epochs: 40,
        burn_in: 4,
        instances: 2,
        workers: Some(1),
        seed: 5,
        ..Default::default()
    };
    let pyramid = PyramidIndex::build(&graph, cfg.levels, cfg.cell_capacity);
    let reference =
        spatial_gibbs_ckpt(&graph, &pyramid, &cfg, &ctx(), CheckpointOptions::none(), None)
            .unwrap();

    for (workers, cancel_at) in [(1, 2u64), (1, 6), (2, 2), (2, 6)] {
        let cfg = InferConfig { workers: Some(workers), ..cfg.clone() };
        let dir = tmp_dir(&format!("spatial_{workers}_{cancel_at}"));
        let store = CheckpointStore::create(&dir, graph.fingerprint()).unwrap();
        let token = CancellationToken::new();
        let sink = CancelAt { store: &store, token: &token, at_epoch: cancel_at };
        let run_ctx = ExecContext::new(RunBudget::unlimited()).with_token(token.clone());
        let partial = spatial_gibbs_ckpt(
            &graph,
            &pyramid,
            &cfg,
            &run_ctx,
            CheckpointOptions::to_sink(&sink, 1),
            None,
        )
        .unwrap();
        assert!(!partial.outcome.is_completed());

        let rec = store.recover(|s| s.validate_for(&graph, 2)).unwrap();
        let (_, CheckpointState::Spatial { instances }) = rec.state.unwrap() else {
            panic!("spatial run must write spatial checkpoints")
        };
        assert_eq!(instances.len(), 2);
        let resumed = spatial_gibbs_ckpt(
            &graph,
            &pyramid,
            &cfg,
            &ctx(),
            CheckpointOptions::none(),
            Some(instances),
        )
        .unwrap();
        assert_eq!(
            resumed.counts.to_rows(),
            reference.counts.to_rows(),
            "spatial resume at {workers} worker(s) after cancel at {cancel_at} diverged"
        );
        fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn corrupted_checkpoints_fall_back_to_an_older_good_one() {
    let graph = grid_graph(24);
    let (epochs, burn, seed) = (40, 4, 9);
    let dir = tmp_dir("fallback");
    let store = CheckpointStore::create(&dir, graph.fingerprint()).unwrap();
    let full = sequential_gibbs_ckpt(
        &graph,
        epochs,
        burn,
        seed,
        &ctx(),
        CheckpointOptions::to_sink(&store, 5),
        None,
    )
    .unwrap();
    assert!(full.outcome.is_completed());

    // keep=3 leaves epochs 30, 35, 40. Truncate the newest and bit-flip
    // the second newest: recovery must land on epoch 30 and replaying
    // from there must reproduce the full run's counts exactly.
    let mut files = store.list().unwrap();
    assert_eq!(files.len(), 3, "{files:?}");
    let newest = files.pop().unwrap();
    let bytes = fs::read(&newest).unwrap();
    fs::write(&newest, &bytes[..bytes.len() / 2]).unwrap();
    let second = files.pop().unwrap();
    let mut bytes = fs::read(&second).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    fs::write(&second, &bytes).unwrap();

    let rec = store.recover(|s| s.validate_for(&graph, 1)).unwrap();
    assert_eq!(rec.skipped.len(), 2, "{:?}", rec.skipped);
    let (path, CheckpointState::Sequential(chain)) = rec.state.unwrap() else {
        panic!("expected the surviving sequential checkpoint")
    };
    assert!(path.to_string_lossy().contains("0000000030"), "{path:?}");
    assert_eq!(chain.epoch, 30);
    let resumed = sequential_gibbs_ckpt(
        &graph,
        epochs,
        burn,
        seed,
        &ctx(),
        CheckpointOptions::none(),
        Some(chain),
    )
    .unwrap();
    assert_eq!(resumed.counts.to_rows(), full.counts.to_rows());
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpoints_from_a_different_graph_are_skipped() {
    let graph = grid_graph(24);
    let dir = tmp_dir("foreign");
    let store = CheckpointStore::create(&dir, graph.fingerprint()).unwrap();
    sequential_gibbs_ckpt(
        &graph,
        20,
        2,
        3,
        &ctx(),
        CheckpointOptions::to_sink(&store, 10),
        None,
    )
    .unwrap();
    assert!(!store.list().unwrap().is_empty());

    // The same directory opened for a structurally different graph: every
    // existing checkpoint is a fingerprint mismatch, recovery reports a
    // clean restart instead of resuming foreign state.
    let mut other = grid_graph(24);
    other.variable_mut(1).evidence = Some(1);
    assert_ne!(other.fingerprint(), graph.fingerprint());
    let other_store = CheckpointStore::create(&dir, other.fingerprint()).unwrap();
    let rec = other_store.recover(|s| s.validate_for(&other, 1)).unwrap();
    assert!(rec.state.is_none());
    assert!(!rec.skipped.is_empty());
    assert!(
        rec.skipped.iter().all(|(_, why)| why.contains("belongs to factor graph")),
        "{:?}",
        rec.skipped
    );
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn failed_checkpoint_saves_degrade_without_changing_the_marginals() {
    let graph = grid_graph(24);
    let (epochs, burn, seed) = (40, 4, 13);
    let reference =
        sequential_gibbs_ckpt(&graph, epochs, burn, seed, &ctx(), CheckpointOptions::none(), None)
            .unwrap();

    let dir = tmp_dir("faulty");
    let store = CheckpointStore::create(&dir, graph.fingerprint()).unwrap();
    let faults = FaultPlan { fail_checkpoint_saves: 2, ..Default::default() };
    let run_ctx = ExecContext::new(RunBudget::unlimited()).with_faults(faults);
    let run = sequential_gibbs_ckpt(
        &graph,
        epochs,
        burn,
        seed,
        &run_ctx,
        CheckpointOptions::to_sink(&store, 5),
        None,
    )
    .unwrap();
    // The run finishes (checkpointing is durability, not correctness),
    // reports the degradation, and the later saves still landed.
    assert_eq!(run.outcome, RunOutcome::Degraded);
    assert!(
        run.warnings.iter().any(|w| w.contains("could not be saved")),
        "{:?}",
        run.warnings
    );
    assert_eq!(run.counts.to_rows(), reference.counts.to_rows());
    assert!(!store.list().unwrap().is_empty());
    fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------
// Process-level crash harness: run the real binary, SIGKILL it mid-run,
// resume, and diff the final scores against an uninterrupted reference.

const PROGRAM: &str = "\
Well(id bigint, location point, arsenic double).\n\
@spatial(exp)\n\
IsSafe?(id bigint, location point).\n\
D1: IsSafe(W, L) = NULL :- Well(W, L, _).\n\
R1: @weight(0.8) IsSafe(W1, L1) => IsSafe(W2, L2) :- \
Well(W1, L1, A1), Well(W2, L2, A2) \
[distance(L1, L2) < 3, A1 < 0.3, A2 < 0.3, W1 != W2].\n";

fn wells_csv(n: usize) -> String {
    let mut out = String::from("id,location,arsenic\n");
    let side = (n as f64).sqrt().ceil() as usize;
    for i in 0..n {
        let (x, y) = (i % side, i / side);
        let arsenic = if i % 3 == 0 { 0.9 } else { 0.1 };
        out.push_str(&format!("{i},POINT({x} {y}),{arsenic}\n"));
    }
    out
}

fn sya_run_args(program: &Path, wells: &Path, evidence: &Path, output: &Path) -> Vec<String> {
    [
        "run",
        program.to_str().unwrap(),
        "--table",
        &format!("Well={}", wells.display()),
        "--evidence",
        evidence.to_str().unwrap(),
        "--engine",
        "deepdive",
        "--epochs",
        "4000",
        "--seed",
        "7",
        "--radius",
        "3",
        "--bandwidth",
        "2",
        "--output",
        output.to_str().unwrap(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

#[test]
fn sigkill_mid_run_then_resume_matches_the_uninterrupted_reference() {
    use std::process::Command;

    let bin = env!("CARGO_BIN_EXE_sya");
    let dir = tmp_dir("sigkill");
    fs::create_dir_all(&dir).unwrap();
    let program = dir.join("wells.ddlog");
    let wells = dir.join("wells.csv");
    let evidence = dir.join("evidence.csv");
    fs::write(&program, PROGRAM).unwrap();
    fs::write(&wells, wells_csv(144)).unwrap();
    fs::write(&evidence, "relation,id,value\nIsSafe,0,1\nIsSafe,3,0\n").unwrap();

    // Uninterrupted reference.
    let ref_csv = dir.join("reference.csv");
    let status = Command::new(bin)
        .args(sya_run_args(&program, &wells, &evidence, &ref_csv))
        .status()
        .unwrap();
    assert!(status.success());
    let reference = fs::read_to_string(&ref_csv).unwrap();
    assert!(reference.starts_with("relation,id,score"), "{reference}");

    // Checkpointed run, killed as soon as a checkpoint hits the disk.
    let ckpt_dir = dir.join("ckpts");
    let crash_csv = dir.join("crash.csv");
    let ckpt_args = |resume: bool| {
        let mut args = sya_run_args(&program, &wells, &evidence, &crash_csv);
        args.extend([
            "--checkpoint-dir".to_owned(),
            ckpt_dir.to_string_lossy().into_owned(),
            "--checkpoint-every".to_owned(),
            "1".to_owned(),
        ]);
        if resume {
            args.push("--resume".to_owned());
        }
        args
    };
    let mut child = Command::new(bin).args(ckpt_args(false)).spawn().unwrap();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    let saw_checkpoint = loop {
        let has_ckpt = fs::read_dir(&ckpt_dir).ok().is_some_and(|entries| {
            entries.flatten().any(|e| {
                e.file_name().to_str().is_some_and(|n| n.ends_with(".syackpt"))
            })
        });
        if has_ckpt {
            break true;
        }
        if child.try_wait().unwrap().is_some() || std::time::Instant::now() > deadline {
            break false;
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
    };
    // SIGKILL: no drop handlers, no atexit — the same as a power cut.
    let _ = child.kill();
    let _ = child.wait();
    assert!(saw_checkpoint, "run never produced a checkpoint to crash against");

    // Resume and compare byte-for-byte with the reference scores.
    let status = Command::new(bin).args(ckpt_args(true)).status().unwrap();
    assert!(status.success());
    let resumed = fs::read_to_string(&crash_csv).unwrap();
    assert_eq!(resumed, reference, "resumed scores diverged from the uninterrupted run");
    fs::remove_dir_all(&dir).ok();
}
