//! The multi-process shard cluster (DESIGN.md §13): a coordinator that
//! supervises `N` shard worker processes and relays halo exchange over
//! the [`wire`](crate::wire) protocol.
//!
//! ## Topology and lockstep
//!
//! The cluster is a star: workers never talk to each other. Each epoch
//! phase, every worker samples its owned variables against its local
//! board, sends the buffered writes as a `Publish` frame, applies them
//! locally, and blocks on the merged `Halo` broadcast, from which it
//! applies only *foreign* writes. The coordinator is the phase
//! sequencer: it collects one `Publish` per live worker, concatenates
//! the write sets, and broadcasts the `Halo`. Because ownership is
//! total and draws use per-`(seed, epoch, pass, variable)` RNG streams, the
//! merged marginals are bit-identical to the in-process executor
//! ([`run_sharded`](crate::exec::run_sharded)) and to a single-shard
//! run.
//!
//! ## Supervision
//!
//! Every coordinator read carries the heartbeat deadline; a timeout,
//! closed socket, or corrupt frame is a worker failure. Within the
//! restart budget the coordinator broadcasts `Rollback`, relaunches the
//! worker after an exponential backoff, and re-runs the rendezvous:
//! every worker re-`Hello`s with the epochs of its locally valid
//! `sya-ckpt` checkpoints, the coordinator intersects the sets and
//! `Welcome`s the fleet at the newest epoch present everywhere (or 0 —
//! replay is deterministic either way). Past the budget the shard is
//! **lost, not fatal**: its last published halo values stay frozen on
//! the survivors' boards, its marginal counts are recovered from its
//! newest valid checkpoint, and the run completes with
//! [`RunOutcome::Degraded`] and per-shard health in the report.

use crate::exec::{
    store_name, RetirePolicy, ShardCkptOptions, ShardHealth, ShardManifest, ShardRunReport,
    ShardStats,
};
use crate::plan::ShardPlan;
use crate::wire::{read_frame, write_frame, Frame, WireError, FRAME_HEADER_LEN, WIRE_MAGIC};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::io::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use sya_ckpt::CheckpointStore;
use sya_fg::FactorGraph;
use sya_infer::{
    init_board, CheckpointState, InferConfig, InferError, MarginalCounts, PyramidIndex,
    ShardChain, ShardSchedule,
};
use sya_obs::{cluster as met, ConvergenceSeries, FleetView, MetricsSnapshot, NUM_CONCLIQUES};
use sya_runtime::{Backoff, ExecContext, RunOutcome};

// ------------------------------------------------------------- config

/// Supervision parameters of a cluster run.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Coordinator listen address (`host:port`; port 0 picks one).
    pub listen: String,
    /// Read deadline per worker socket — the heartbeat. A worker that
    /// cannot produce its next frame within this is treated as failed,
    /// so it must comfortably exceed one phase's sampling time.
    pub heartbeat: Duration,
    /// Exponential backoff between relaunches of the same shard.
    pub backoff: Backoff,
    /// Restarts allowed per shard before it is declared lost. 0 loses a
    /// shard on its first failure.
    pub restart_budget: usize,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            listen: "127.0.0.1:0".to_owned(),
            heartbeat: Duration::from_secs(2),
            backoff: Backoff::default(),
            restart_budget: 2,
        }
    }
}

/// What a worker needs beyond the graph, plan, and sampler config.
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// This worker's shard index.
    pub shard: usize,
    /// Coordinator address to connect to.
    pub connect: String,
    /// Checkpoint wiring; `dir` is the cluster root (the worker stores
    /// under `<dir>/shard-NN/`).
    pub ckpt: ShardCkptOptions,
    pub retire: Option<RetirePolicy>,
    /// Advertise existing checkpoints in the first `Hello` (after a
    /// rollback the worker always advertises).
    pub resume: bool,
    /// Read deadline against the coordinator. Must cover a full
    /// rollback (backoff + relaunch); it is also how long an orphaned
    /// worker lingers after its coordinator dies.
    pub read_timeout: Duration,
}

impl Default for WorkerOptions {
    fn default() -> Self {
        WorkerOptions {
            shard: 0,
            connect: String::new(),
            ckpt: ShardCkptOptions::default(),
            retire: None,
            resume: false,
            read_timeout: Duration::from_secs(30),
        }
    }
}

// ---------------------------------------------------------- launchers

/// One (re)launch request: which shard, which attempt (0 = first
/// launch), and where the worker must connect.
#[derive(Debug, Clone)]
pub struct WorkerSpec {
    pub shard: usize,
    pub attempt: usize,
    pub connect: String,
}

/// A handle to a launched worker. Dropping it must not kill the worker
/// (the coordinator decides); `kill` must be idempotent.
pub trait WorkerHandle: Send {
    fn kill(&mut self);
}

/// Launches shard workers. The CLI implements this by spawning
/// `sya shard-worker` processes; tests use [`ThreadLauncher`].
pub trait WorkerLauncher {
    fn launch(&self, spec: &WorkerSpec) -> Result<Box<dyn WorkerHandle>, String>;
}

/// In-process launcher: each worker is a thread speaking real TCP to
/// the coordinator — the full protocol without process management.
/// Fault plans are installed only on attempt 0, so a relaunched worker
/// never re-fires the fault that killed its predecessor (mirroring the
/// CLI, which passes fault flags only to first launches).
pub struct ThreadLauncher {
    pub graph: FactorGraph,
    pub plan: ShardPlan,
    pub cfg: InferConfig,
    pub ckpt: ShardCkptOptions,
    pub retire: Option<RetirePolicy>,
    pub faults: sya_runtime::FaultPlan,
    pub read_timeout: Duration,
}

struct ThreadHandle;

impl WorkerHandle for ThreadHandle {
    /// Threads cannot be killed; the coordinator dropping its end of
    /// the socket makes the worker's next read/write fail, which ends
    /// the thread.
    fn kill(&mut self) {}
}

impl WorkerLauncher for ThreadLauncher {
    fn launch(&self, spec: &WorkerSpec) -> Result<Box<dyn WorkerHandle>, String> {
        let graph = self.graph.clone();
        let plan = self.plan.clone();
        let cfg = self.cfg.clone();
        let opts = WorkerOptions {
            shard: spec.shard,
            connect: spec.connect.clone(),
            ckpt: self.ckpt.clone(),
            retire: self.retire,
            resume: spec.attempt > 0 || self.ckpt.resume,
            read_timeout: self.read_timeout,
        };
        let faults = if spec.attempt == 0 {
            self.faults.clone()
        } else {
            sya_runtime::FaultPlan::none()
        };
        std::thread::spawn(move || {
            let ctx = ExecContext::unbounded().with_faults(faults);
            // A worker error is a crash as far as the coordinator is
            // concerned; the supervisor observes it via the socket.
            let _ = run_worker(&graph, &plan, &cfg, &opts, &ctx);
        });
        Ok(Box::new(ThreadHandle))
    }
}

// ------------------------------------------------------ status server

/// Live cluster state published to the status endpoint.
#[derive(Debug, Clone, Default)]
pub struct ClusterStatus {
    pub done: bool,
    pub degraded: bool,
    pub epoch: u64,
    pub shards: Vec<ShardHealth>,
}

/// Renders the healthz JSON body.
pub fn render_status(s: &ClusterStatus) -> String {
    let shards: Vec<String> = s
        .shards
        .iter()
        .map(|h| {
            format!(
                "{{\"shard\":{},\"health\":\"{}\",\"restarts\":{}}}",
                h.shard,
                h.label(),
                h.restarts
            )
        })
        .collect();
    format!(
        "{{\"status\":\"{}\",\"done\":{},\"epoch\":{},\"shards\":[{}]}}",
        if s.degraded { "degraded" } else { "ok" },
        s.done,
        s.epoch,
        shards.join(",")
    )
}

/// Path of an HTTP request head (`"/"` when unparsable).
fn request_path(head: &[u8]) -> String {
    let text = String::from_utf8_lossy(head);
    text.lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .unwrap_or("/")
        .to_string()
}

/// A minimal HTTP endpoint serving the cluster's live state. `/` is the
/// healthz JSON ([`render_status`]); `/metrics` renders the aggregated
/// [`FleetView`] in Prometheus exposition format and `/fleet` the same
/// view as JSON. Lives in `sya-shard` (not `sya-serve`) so the
/// coordinator has no dependency on the serving stack; the thread is
/// detached and dies with the process.
pub struct StatusServer {
    addr: SocketAddr,
    board: Arc<Mutex<ClusterStatus>>,
    fleet: Arc<Mutex<FleetView>>,
}

impl StatusServer {
    pub fn start(listen: &str) -> Result<StatusServer, String> {
        let listener =
            TcpListener::bind(listen).map_err(|e| format!("status listen {listen}: {e}"))?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let board = Arc::new(Mutex::new(ClusterStatus::default()));
        let fleet = Arc::new(Mutex::new(FleetView::new(0)));
        let shared = Arc::clone(&board);
        let fleet_shared = Arc::clone(&fleet);
        std::thread::spawn(move || {
            for conn in listener.incoming() {
                let Ok(mut c) = conn else { continue };
                let _ = c.set_read_timeout(Some(Duration::from_secs(2)));
                // Read until the request head is complete (a client may
                // deliver it across several small writes).
                let mut head = [0u8; 1024];
                let mut n = 0usize;
                while n < head.len() && !head[..n].windows(4).any(|w| w == b"\r\n\r\n") {
                    match std::io::Read::read(&mut c, &mut head[n..]) {
                        Ok(0) | Err(_) => break,
                        Ok(m) => n += m,
                    }
                }
                let path = request_path(&head[..n]);
                let (content_type, body) = if path.starts_with("/metrics") {
                    (
                        "text/plain; version=0.0.4",
                        fleet_shared.lock().expect("fleet lock").render_prometheus(),
                    )
                } else if path.starts_with("/fleet") {
                    ("application/json", fleet_shared.lock().expect("fleet lock").render_json())
                } else {
                    ("application/json", render_status(&shared.lock().expect("status lock")))
                };
                let _ = write!(
                    c,
                    "HTTP/1.1 200 OK\r\nContent-Type: {}\r\n\
                     Content-Length: {}\r\nConnection: close\r\n\r\n{}",
                    content_type,
                    body.len(),
                    body
                );
            }
        });
        Ok(StatusServer { addr, board, fleet })
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared fleet view rendered on `/metrics` and `/fleet`; the
    /// coordinator records shipped worker telemetry into it.
    pub fn fleet(&self) -> Arc<Mutex<FleetView>> {
        Arc::clone(&self.fleet)
    }

    fn set(&self, f: impl FnOnce(&mut ClusterStatus)) {
        f(&mut self.board.lock().expect("status lock"));
    }
}

// --------------------------------------------------------- wire plumb

fn outcome_code(o: RunOutcome) -> u8 {
    match o {
        RunOutcome::Completed => 0,
        RunOutcome::Degraded => 1,
        RunOutcome::TimedOut => 2,
        RunOutcome::Cancelled => 3,
    }
}

fn outcome_from_code(code: u8) -> RunOutcome {
    match code {
        1 => RunOutcome::Degraded,
        2 => RunOutcome::TimedOut,
        3 => RunOutcome::Cancelled,
        _ => RunOutcome::Completed,
    }
}

/// [`ConvergenceSeries`] is deliberately not `Serialize`; this is its
/// wire twin for the `Done` report.
#[derive(Debug, Default, Serialize, Deserialize)]
struct SeriesWire {
    flip_rate: Vec<f64>,
    marginal_delta: Vec<f64>,
    pll: Vec<(f64, f64)>,
    conclique_samples: Vec<u64>,
    samples_total: u64,
    flips_total: u64,
    epochs: usize,
}

impl SeriesWire {
    fn from_series(s: &ConvergenceSeries) -> Self {
        SeriesWire {
            flip_rate: s.flip_rate.clone(),
            marginal_delta: s.marginal_delta.clone(),
            pll: s.pll.clone(),
            conclique_samples: s.conclique_samples.to_vec(),
            samples_total: s.samples_total,
            flips_total: s.flips_total,
            epochs: s.epochs,
        }
    }

    fn into_series(self) -> ConvergenceSeries {
        let mut conclique_samples = [0u64; NUM_CONCLIQUES];
        for (slot, v) in conclique_samples.iter_mut().zip(self.conclique_samples) {
            *slot = v;
        }
        ConvergenceSeries {
            flip_rate: self.flip_rate,
            marginal_delta: self.marginal_delta,
            pll: self.pll,
            conclique_samples,
            samples_total: self.samples_total,
            flips_total: self.flips_total,
            epochs: self.epochs,
        }
    }
}

/// JSON payload of the per-epoch `Telemetry` frame: the flat counter
/// and gauge maps of a worker's metrics snapshot. Purely informational —
/// an undecodable payload is dropped with a warning, never a protocol
/// error, and telemetry never gates lockstep progress.
#[derive(Debug, Default, Serialize, Deserialize)]
struct TelemetryWire {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
}

impl TelemetryWire {
    fn into_snapshot(self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters,
            gauges: self.gauges,
            histograms: BTreeMap::new(),
            series: BTreeMap::new(),
        }
    }
}

/// Builds the per-epoch telemetry payload: the worker's own metrics
/// snapshot overlaid with chain progress (shipped even when the worker
/// runs with observability disabled) and, when profiling is on, the
/// hot-path profiler totals.
fn telemetry_payload(
    obs: &sya_obs::Obs,
    chain: &ShardChain,
    epoch: usize,
    last_delta: f64,
    retired: bool,
) -> Vec<u8> {
    let snap = obs.metrics_snapshot();
    let mut wire = TelemetryWire { counters: snap.counters, gauges: snap.gauges };
    let (samples, flips) = chain.progress();
    wire.counters.insert("infer.shard.samples_total".to_owned(), samples);
    wire.counters.insert("infer.shard.flips_total".to_owned(), flips);
    wire.gauges.insert("shard.epoch".to_owned(), epoch as f64);
    wire.gauges.insert("shard.max_delta".to_owned(), last_delta);
    wire.gauges.insert("shard.retired".to_owned(), f64::from(u8::from(retired)));
    if sya_obs::profile::enabled() {
        for s in sya_obs::profile::snapshot() {
            wire.counters.insert(format!("{}.ops_total", s.site.name()), s.ops);
            wire.counters.insert(format!("{}.ns_total", s.site.name()), s.ns_total);
        }
    }
    serde_json::to_vec(&wire).unwrap_or_default()
}

/// JSON payload of the `Done` frame.
#[derive(Debug, Serialize, Deserialize)]
struct DoneReport {
    stats: ShardStats,
    /// Raw marginal count rows (`rows[v][x]`).
    counts: Vec<Vec<u64>>,
    warnings: Vec<String>,
    outcome: u8,
    /// Final epoch this worker reached.
    epochs_run: u64,
    series: SeriesWire,
}

// --------------------------------------------------------- the worker

enum Flow {
    Done(Box<DoneReport>),
    Rollback,
    Stopped,
}

fn connect_with_retry(addr: &str, budget: Duration) -> Result<TcpStream, String> {
    let deadline = Instant::now() + budget;
    loop {
        match TcpStream::connect(addr) {
            Ok(s) => return Ok(s),
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(format!("cannot connect to coordinator {addr}: {e}"));
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
}

/// The epochs of every locally valid checkpoint this worker could
/// resume from, for the `Hello` rendezvous.
fn valid_shard_epochs(
    store: &CheckpointStore,
    graph: &FactorGraph,
    me: usize,
    of: usize,
) -> Vec<u64> {
    store
        .valid_epochs(|state| match state {
            CheckpointState::Shard { shard, of: n, chain }
                if *shard as usize == me && *n as usize == of =>
            {
                chain.clone().restore(graph).map(|_| ())
            }
            other => Err(format!("{} state does not fit shard {me}/{of}", other.kind())),
        })
        .unwrap_or_default()
}

/// Runs one shard worker: connect, rendezvous, sample with socket halo
/// exchange, checkpoint locally, and report. Returns `Ok` on a clean
/// protocol end (`Done` sent or `Stop` received); any `Err` is a crash
/// as far as the supervisor is concerned.
pub fn run_worker(
    graph: &FactorGraph,
    plan: &ShardPlan,
    cfg: &InferConfig,
    opts: &WorkerOptions,
    ctx: &ExecContext,
) -> Result<(), String> {
    let me = opts.shard;
    let n = plan.shards;
    if me >= n {
        return Err(format!("shard index {me} out of range for {n} shards"));
    }
    let fingerprint = graph.fingerprint();
    let store = match opts.ckpt.dir.as_ref() {
        Some(dir) => Some(
            CheckpointStore::create(dir.join(store_name(me)), fingerprint)
                .map_err(|e| format!("shard {me}: checkpoint store: {e}"))?,
        ),
        None => None,
    };
    let mut stream = connect_with_retry(&opts.connect, Duration::from_secs(15))?;
    stream
        .set_read_timeout(Some(opts.read_timeout))
        .map_err(|e| format!("shard {me}: set read timeout: {e}"))?;
    let _ = stream.set_nodelay(true);

    let pyramid = PyramidIndex::build(graph, cfg.levels, cfg.cell_capacity);
    let schedule = ShardSchedule::new(graph, &pyramid, cfg, None);

    let mut advertise = opts.resume;
    loop {
        let epochs = match (&store, advertise) {
            (Some(store), true) => valid_shard_epochs(store, graph, me, n),
            _ => Vec::new(),
        };
        write_frame(
            &mut stream,
            &Frame::Hello { shard: me as u32, of: n as u32, fingerprint, epochs },
        )
        .map_err(|e| format!("shard {me}: hello: {e}"))?;
        match read_frame(&mut stream).map_err(|e| format!("shard {me}: awaiting welcome: {e}"))? {
            Frame::Welcome { start_epoch, epochs_total, run_id } => {
                // Stamp the coordinator-issued run ID so this process's
                // trace exports stitch into the fleet-wide timeline.
                ctx.obs().set_run_id(run_id);
                let flow = run_epochs(
                    graph,
                    plan,
                    cfg,
                    &schedule,
                    opts,
                    store.as_ref(),
                    &mut stream,
                    start_epoch as usize,
                    epochs_total as usize,
                    ctx,
                )?;
                match flow {
                    Flow::Done(report) => {
                        let bytes = serde_json::to_vec(&*report)
                            .map_err(|e| format!("shard {me}: encode done report: {e}"))?;
                        write_frame(&mut stream, &Frame::Done { report: bytes })
                            .map_err(|e| format!("shard {me}: done: {e}"))?;
                        return Ok(());
                    }
                    Flow::Rollback => advertise = true,
                    Flow::Stopped => return Ok(()),
                }
            }
            Frame::Rollback => advertise = true,
            Frame::Stop { .. } => return Ok(()),
            other => return Err(format!("shard {me}: unexpected {} at rendezvous", other.name())),
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn save_worker_ckpt(
    store: Option<&CheckpointStore>,
    ctx: &ExecContext,
    me: usize,
    n: usize,
    chain: &ShardChain,
    board: &[AtomicU32],
    next_epoch: usize,
    warnings: &mut Vec<String>,
    outcome: &mut RunOutcome,
) {
    let Some(store) = store else { return };
    let state = CheckpointState::Shard {
        shard: me as u64,
        of: n as u64,
        chain: chain.chain_state(next_epoch, board),
    };
    let result = if ctx.take_checkpoint_save_failure() {
        Err("injected checkpoint save failure".to_owned())
    } else {
        store.save_state(&state).map(|_| ()).map_err(|e| e.to_string())
    };
    if let Err(e) = result {
        warnings.push(format!("shard {me}: checkpoint save failed: {e}"));
        *outcome = outcome.combine(RunOutcome::Degraded);
    }
}

/// Writes a frame with a deliberately wrong CRC (fault injection): the
/// header is well-formed, the payload real, the checksum inverted.
fn write_corrupt_frame(stream: &mut TcpStream) -> Result<(), String> {
    let mut bytes = crate::wire::encode_frame(&Frame::Ping { nonce: 0 });
    // Flip the CRC field; everything else stays plausible.
    bytes[FRAME_HEADER_LEN - 1] ^= 0xFF;
    debug_assert_eq!(&bytes[..4], &WIRE_MAGIC);
    stream.write_all(&bytes).map_err(|e| e.to_string())?;
    stream.flush().map_err(|e| e.to_string())
}

#[allow(clippy::too_many_arguments)]
fn run_epochs(
    graph: &FactorGraph,
    plan: &ShardPlan,
    cfg: &InferConfig,
    schedule: &ShardSchedule,
    opts: &WorkerOptions,
    store: Option<&CheckpointStore>,
    stream: &mut TcpStream,
    start_epoch: usize,
    epochs_total: usize,
    ctx: &ExecContext,
) -> Result<Flow, String> {
    let me = opts.shard;
    let n = plan.shards;
    let burn = cfg.burn_in.min(epochs_total.saturating_sub(1));
    let mut warnings = Vec::new();
    let mut outcome = RunOutcome::Completed;

    let mut chain = ShardChain::new(graph, schedule, cfg, plan.owned[me].clone());
    let board: Vec<AtomicU32> = if start_epoch > 0 {
        let store = store.ok_or_else(|| {
            format!("shard {me}: welcomed at epoch {start_epoch} without a checkpoint store")
        })?;
        let state = store
            .load_epoch(start_epoch as u64)
            .map_err(|e| format!("shard {me}: load epoch {start_epoch}: {e}"))?;
        let CheckpointState::Shard { shard, of, chain: saved } = state else {
            return Err(format!("shard {me}: checkpoint at {start_epoch} is not a shard state"));
        };
        if shard as usize != me || of as usize != n {
            return Err(format!(
                "shard {me}: checkpoint at {start_epoch} belongs to shard {shard}/{of}"
            ));
        }
        let (_, assignment, _, counts, recorded) =
            saved.restore(graph).map_err(|e| format!("shard {me}: restore: {e}"))?;
        chain.resume_counts(counts, recorded);
        assignment.into_iter().map(AtomicU32::new).collect()
    } else {
        init_board(graph, cfg.seed, None)
    };
    if opts.retire.is_some() {
        let exposed: Vec<u32> = (0..n)
            .filter(|&s| s != me)
            .flat_map(|s| plan.interface.halo[s].iter().copied())
            .collect();
        chain.set_boundary(&exposed);
    }
    let retire_floor = opts.retire.map(|p| p.min_epoch.max(burn));

    let mut retired_at: Option<usize> = None;
    let mut retire_halo_delta: Option<f64> = None;
    let mut retired_above_tol = false;
    let mut strict_refusals = 0usize;
    let mut streak = 0usize;
    let mut epochs_sampled = 0usize;
    let mut epoch = start_epoch;
    let mut stopped: Option<RunOutcome> = None;
    let mut last_delta = 0.0f64;

    while epoch < epochs_total {
        if ctx.take_worker_kill(me, epoch) {
            return Err(format!("shard {me}: injected worker kill at epoch {epoch}"));
        }
        let record = epoch >= burn;
        let active = retired_at.is_none();
        for phase in 0..schedule.len() {
            if active {
                chain.sample_phase(&board, phase, epoch, record);
            }
            if phase == 0 {
                if let Some(pause) = ctx.take_worker_stall(me, epoch) {
                    std::thread::sleep(pause);
                }
                if ctx.take_corrupt_frame(me, epoch) {
                    write_corrupt_frame(stream)?;
                    return Err(format!("shard {me}: injected corrupt frame at epoch {epoch}"));
                }
            }
            let writes: Vec<(u32, u32)> = chain.pending_writes().to_vec();
            write_frame(stream, &Frame::Publish { epoch: epoch as u64, phase: phase as u32, writes })
                .map_err(|e| format!("shard {me}: publish e{epoch} p{phase}: {e}"))?;
            if active {
                chain.publish(&board);
            }
            loop {
                match read_frame(stream)
                    .map_err(|e| format!("shard {me}: awaiting halo e{epoch} p{phase}: {e}"))?
                {
                    Frame::Halo { writes, .. } => {
                        let prof = sya_obs::profile::start();
                        for (v, x) in writes {
                            if plan.owner[v as usize] as usize != me {
                                board[v as usize].store(x, Ordering::Relaxed);
                            }
                        }
                        sya_obs::profile::stop(sya_obs::profile::Site::HaloApply, prof);
                        break;
                    }
                    Frame::ShardLost { shard } => warnings.push(format!(
                        "shard {shard} was lost; its halo values are frozen from here on"
                    )),
                    Frame::Rollback => return Ok(Flow::Rollback),
                    Frame::Stop { .. } => return Ok(Flow::Stopped),
                    other => {
                        return Err(format!(
                            "shard {me}: expected Halo, got {} (e{epoch} p{phase})",
                            other.name()
                        ))
                    }
                }
            }
        }
        if active {
            epochs_sampled += 1;
            let delta = chain.end_epoch(&board, record);
            last_delta = delta;
            if let (Some(policy), Some(floor)) = (opts.retire, retire_floor) {
                if record && epoch >= floor && delta < policy.tol {
                    if streak == 0 {
                        chain.snapshot_boundary();
                    }
                    streak += 1;
                    if streak >= policy.window {
                        let halo_delta = chain.boundary_delta();
                        if policy.strict && halo_delta > policy.tol {
                            strict_refusals += 1;
                            streak = 0;
                        } else {
                            if halo_delta > policy.tol {
                                retired_above_tol = true;
                                warnings.push(format!(
                                    "shard {me}: retired at epoch {epoch} with boundary drift \
                                     {halo_delta:.3e} above tol {:.3e}; neighbour halos inherit \
                                     this staleness",
                                    policy.tol
                                ));
                            }
                            retire_halo_delta = Some(halo_delta);
                            retired_at = Some(epoch);
                        }
                    }
                } else {
                    streak = 0;
                }
            }
        }
        let payload = telemetry_payload(ctx.obs(), &chain, epoch, last_delta, retired_at.is_some());
        write_frame(stream, &Frame::Telemetry { shard: me as u32, epoch: epoch as u64, payload })
            .map_err(|e| format!("shard {me}: telemetry e{epoch}: {e}"))?;
        write_frame(stream, &Frame::EpochEnd { epoch: epoch as u64, retired: retired_at.is_some() })
            .map_err(|e| format!("shard {me}: epoch end {epoch}: {e}"))?;
        loop {
            match read_frame(stream)
                .map_err(|e| format!("shard {me}: awaiting proceed e{epoch}: {e}"))?
            {
                Frame::Proceed { stop } => {
                    if let Some(code) = stop {
                        stopped = Some(outcome_from_code(code));
                    }
                    break;
                }
                Frame::ShardLost { shard } => warnings.push(format!(
                    "shard {shard} was lost; its halo values are frozen from here on"
                )),
                Frame::Rollback => return Ok(Flow::Rollback),
                Frame::Stop { .. } => return Ok(Flow::Stopped),
                other => {
                    return Err(format!(
                        "shard {me}: expected Proceed, got {} (e{epoch})",
                        other.name()
                    ))
                }
            }
        }
        epoch += 1;
        if let Some(o) = stopped {
            outcome = outcome.combine(o);
            break;
        }
        if store.is_some()
            && opts.ckpt.every > 0
            && epoch < epochs_total
            && epoch.is_multiple_of(opts.ckpt.every)
        {
            save_worker_ckpt(
                store, ctx, me, n, &chain, &board, epoch, &mut warnings, &mut outcome,
            );
        }
    }
    save_worker_ckpt(store, ctx, me, n, &chain, &board, epoch, &mut warnings, &mut outcome);
    if strict_refusals > 0 {
        warnings.push(format!(
            "shard {me}: strict retirement gating refused {strict_refusals} retirement \
             attempt(s) on boundary drift"
        ));
    }
    if !chain.has_recorded() {
        chain.record_board_snapshot(&board);
        warnings.push(format!(
            "shard {me}: run ended before burn-in; marginals from a single snapshot"
        ));
        outcome = outcome.combine(RunOutcome::Degraded);
    }
    let owned_vars = chain.owned_vars();
    let (counts, series) = chain.finish();
    let report = DoneReport {
        stats: ShardStats {
            shard: me,
            owned_vars,
            halo_vars: plan.interface.halo[me].len(),
            boundary_factors: plan.interface.boundary_per_shard[me],
            halo_bytes: plan.interface.halo_bytes(me),
            epochs_sampled,
            retired_at,
            retire_halo_delta,
            retired_above_tol,
            flips_total: series.flips_total,
            samples_total: series.samples_total,
        },
        counts: counts.to_rows(),
        warnings,
        outcome: outcome_code(outcome),
        epochs_run: epoch as u64,
        series: SeriesWire::from_series(&series),
    };
    Ok(Flow::Done(Box::new(report)))
}

fn placeholder_stats(shard: usize) -> ShardStats {
    ShardStats {
        shard,
        owned_vars: 0,
        halo_vars: 0,
        boundary_factors: 0,
        halo_bytes: 0,
        epochs_sampled: 0,
        retired_at: None,
        retire_halo_delta: None,
        retired_above_tol: false,
        flips_total: 0,
        samples_total: 0,
    }
}

// ---------------------------------------------------- the coordinator

struct Slot {
    conn: Option<TcpStream>,
    handle: Option<Box<dyn WorkerHandle>>,
    restarts: usize,
    lost: bool,
    /// Checkpoint epochs advertised at the last `Hello`.
    epochs: Vec<u64>,
    /// A `Rollback` was sent (or the worker was just launched); a fresh
    /// `Hello` is owed before the next `Welcome`.
    needs_hello: bool,
    report: Option<DoneReport>,
}

enum Drive {
    Finished,
    Rendezvous,
}

struct Supervisor<'a> {
    graph: &'a FactorGraph,
    plan: &'a ShardPlan,
    ckpt: &'a ShardCkptOptions,
    cluster: &'a ClusterConfig,
    launcher: &'a dyn WorkerLauncher,
    status: Option<&'a StatusServer>,
    ctx: &'a ExecContext,
    listener: TcpListener,
    addr: SocketAddr,
    fingerprint: u64,
    epochs_total: usize,
    workers: Vec<Slot>,
    warnings: Vec<String>,
    outcome: RunOutcome,
    rendezvous_done: usize,
    epoch_now: u64,
    /// Coordinator-issued run ID, carried to workers in `Welcome`.
    run_id: u64,
    /// Fleet-wide metric aggregate fed from shipped `Telemetry` frames;
    /// shared with the status server when one is attached.
    fleet: Arc<Mutex<FleetView>>,
}

/// Runs sharded inference as a supervised multi-process cluster. The
/// coordinator owns no board: it relays write sets, sequences phases,
/// supervises the fleet, and merges the final reports. Worker failures
/// are restarted from checkpoints within `cluster.restart_budget`;
/// beyond it the run degrades rather than fails.
#[allow(clippy::too_many_arguments)]
pub fn run_cluster(
    graph: &FactorGraph,
    plan: &ShardPlan,
    cfg: &InferConfig,
    ckpt: &ShardCkptOptions,
    cluster: &ClusterConfig,
    launcher: &dyn WorkerLauncher,
    status: Option<&StatusServer>,
    ctx: &ExecContext,
) -> Result<ShardRunReport, InferError> {
    let cluster_err = |detail: String| InferError::Cluster { detail };
    let fingerprint = graph.fingerprint();
    if let Some(dir) = ckpt.dir.as_ref() {
        ShardManifest::new(plan, fingerprint)
            .write(dir)
            .map_err(|e| cluster_err(format!("cannot write shard manifest: {e}")))?;
    }
    let listener = TcpListener::bind(&cluster.listen)
        .map_err(|e| cluster_err(format!("cannot bind {}: {e}", cluster.listen)))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| cluster_err(format!("set nonblocking: {e}")))?;
    let addr = listener.local_addr().map_err(|e| cluster_err(e.to_string()))?;
    ctx.obs().info(format!("cluster coordinator listening on {addr}"));
    crate::exec::publish_static_gauges(ctx.obs(), plan);
    // One run ID per cluster run (never 0): wall-clock entropy mixed
    // with the graph fingerprint, stamped on the coordinator's own
    // traces and carried to every worker in `Welcome`.
    let run_id = {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        (nanos ^ fingerprint.rotate_left(32)) | 1
    };
    ctx.obs().set_run_id(run_id);
    ctx.obs().info(format!("cluster run id {run_id:#018x}"));
    let fleet = match status {
        Some(s) => s.fleet(),
        None => Arc::new(Mutex::new(FleetView::new(0))),
    };
    fleet.lock().expect("fleet lock").set_run_id(run_id);

    let workers = (0..plan.shards)
        .map(|_| Slot {
            conn: None,
            handle: None,
            restarts: 0,
            lost: false,
            epochs: Vec::new(),
            needs_hello: true,
            report: None,
        })
        .collect();
    let supervisor = Supervisor {
        graph,
        plan,
        ckpt,
        cluster,
        launcher,
        status,
        ctx,
        listener,
        addr,
        fingerprint,
        epochs_total: cfg.epochs.max(1),
        workers,
        warnings: Vec::new(),
        outcome: RunOutcome::Completed,
        rendezvous_done: 0,
        epoch_now: 0,
        run_id,
        fleet,
    };
    supervisor.run()
}

impl<'a> Supervisor<'a> {
    fn obs(&self) -> &sya_obs::Obs {
        self.ctx.obs()
    }

    fn live_indices(&self) -> Vec<usize> {
        (0..self.workers.len()).filter(|&w| !self.workers[w].lost).collect()
    }

    fn update_status(&self, done: bool) {
        {
            let mut fleet = self.fleet.lock().expect("fleet lock");
            fleet.observe_epoch(self.epoch_now);
            fleet.set_coordinator(self.obs().metrics_snapshot());
        }
        let Some(status) = self.status else { return };
        let shards = self.health();
        let degraded = self.outcome >= RunOutcome::Degraded
            || self.workers.iter().any(|s| s.lost);
        let epoch = self.epoch_now;
        status.set(move |s| {
            s.done = done;
            s.degraded = degraded;
            s.epoch = epoch;
            s.shards = shards;
        });
    }

    fn health(&self) -> Vec<ShardHealth> {
        self.workers
            .iter()
            .enumerate()
            .map(|(shard, s)| ShardHealth { shard, restarts: s.restarts, lost: s.lost })
            .collect()
    }

    fn workers_up_gauge(&self) {
        let up = self.workers.iter().filter(|s| !s.lost && s.conn.is_some()).count();
        self.obs().gauge_set(met::WORKERS_UP, up as f64);
    }

    fn launch(&mut self, shard: usize, attempt: usize) -> Result<(), String> {
        let spec = WorkerSpec { shard, attempt, connect: self.addr.to_string() };
        let handle = self.launcher.launch(&spec)?;
        self.workers[shard].handle = Some(handle);
        self.workers[shard].conn = None;
        self.workers[shard].needs_hello = true;
        Ok(())
    }

    /// Declares shard `w` lost: budget exhausted (or relaunch
    /// impossible). Its halo values stay frozen on the survivors'
    /// boards; the run continues degraded.
    fn lose(&mut self, w: usize, why: &str) {
        let slot = &mut self.workers[w];
        slot.lost = true;
        slot.conn = None;
        if let Some(h) = slot.handle.as_mut() {
            h.kill();
        }
        self.outcome = self.outcome.combine(RunOutcome::Degraded);
        self.warnings.push(format!(
            "shard {w} lost after {} restart(s) ({why}); continuing degraded with its last \
             published halo frozen",
            self.workers[w].restarts
        ));
        self.obs().counter_add(met::SHARDS_LOST, 1);
        self.obs().warn(format!("shard {w} lost; continuing degraded"));
        self.workers_up_gauge();
        // Informational; write failures here are themselves handled on
        // the next round's reads.
        let lost = Frame::ShardLost { shard: w as u32 };
        for v in self.live_indices() {
            if let Some(conn) = self.workers[v].conn.as_mut() {
                let _ = write_frame(conn, &lost);
            }
        }
        self.update_status(false);
    }

    /// Handles worker `w` failing with `why`. Returns `true` when the
    /// fleet must re-rendezvous (the worker was relaunched), `false`
    /// when the shard was lost and the current round may continue
    /// without it.
    fn worker_failed(&mut self, w: usize, why: &str, kind: Option<&WireError>) -> bool {
        match kind {
            Some(WireError::Timeout) => self.obs().counter_add(met::HEARTBEAT_TIMEOUTS, 1),
            Some(WireError::Corrupt(_)) => self.obs().counter_add(met::CORRUPT_FRAMES, 1),
            _ => {}
        }
        self.obs().warn(format!("worker {w} failed: {why}"));
        self.workers[w].conn = None;
        if let Some(h) = self.workers[w].handle.as_mut() {
            h.kill();
        }
        if self.workers[w].restarts >= self.cluster.restart_budget {
            self.lose(w, why);
            return false;
        }
        self.workers[w].restarts += 1;
        let attempt = self.workers[w].restarts;
        self.obs().counter_add(met::RESTARTS, 1);
        // Tell the survivors to fall back to the rendezvous first, so
        // they wait in Hello rather than mid-epoch while we back off.
        self.obs().counter_add(met::ROLLBACKS, 1);
        for v in self.live_indices() {
            if v == w {
                continue;
            }
            let slot = &mut self.workers[v];
            if let Some(conn) = slot.conn.as_mut() {
                if write_frame(conn, &Frame::Rollback).is_err() {
                    // Handled at the rendezvous: its Hello never comes.
                    slot.conn = None;
                }
                slot.needs_hello = true;
            }
        }
        // Seed jitter with the worker index: workers felled by a common
        // cause (shared host dying, coordinator OOM) restart spread out
        // instead of stampeding the coordinator in lockstep.
        let delay =
            self.cluster.backoff.delay_jittered(attempt.saturating_sub(1) as u32, w as u64);
        self.obs().gauge_set(met::BACKOFF_SECONDS, delay.as_secs_f64());
        std::thread::sleep(delay);
        match self.launch(w, attempt) {
            Ok(()) => {
                self.obs().info(format!(
                    "relaunched worker {w} (attempt {attempt} of {})",
                    self.cluster.restart_budget
                ));
                self.update_status(false);
                true
            }
            Err(e) => {
                self.lose(w, &format!("relaunch failed: {e}"));
                false
            }
        }
    }

    /// Accepts sockets and collects a fresh `Hello` from every live
    /// worker, then broadcasts `Welcome` at the newest checkpoint epoch
    /// common to all of them. `Ok(false)` means a failure was handled
    /// (restart or loss) and the rendezvous must rerun.
    fn rendezvous(&mut self) -> Result<bool, InferError> {
        let hello_deadline = Instant::now()
            + self.cluster.heartbeat.max(Duration::from_millis(200)) * 10
            + self.cluster.backoff.max;
        // Drain a fresh Hello from live workers that kept their socket
        // (they may still be flushing frames from the abandoned epoch).
        for w in self.live_indices() {
            if self.workers[w].conn.is_none() || !self.workers[w].needs_hello {
                continue;
            }
            match self.read_hello_from(w) {
                Ok(()) => {}
                Err(e) => {
                    self.worker_failed(w, &format!("rendezvous: {e}"), Some(&e));
                    return Ok(false);
                }
            }
        }
        // Accept connections for workers without one, routed by the
        // Hello's shard id.
        while self.live_indices().iter().any(|&w| self.workers[w].conn.is_none()) {
            if Instant::now() >= hello_deadline {
                let missing: Vec<usize> = self
                    .live_indices()
                    .into_iter()
                    .filter(|&w| self.workers[w].conn.is_none())
                    .collect();
                for w in missing {
                    self.worker_failed(w, "never connected for rendezvous", None);
                }
                return Ok(false);
            }
            match self.listener.accept() {
                Ok((mut conn, _)) => {
                    if self.adopt_connection(&mut conn).is_ok() {
                        // adopted into a slot inside
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => {
                    return Err(InferError::Cluster { detail: format!("accept: {e}") });
                }
            }
        }
        // Newest checkpoint epoch present in every live worker's list.
        let mut common: Option<BTreeSet<u64>> = None;
        for w in self.live_indices() {
            let set: BTreeSet<u64> = self.workers[w].epochs.iter().copied().collect();
            common = Some(match common {
                None => set,
                Some(c) => c.intersection(&set).copied().collect(),
            });
        }
        let start_epoch = common.and_then(|c| c.last().copied()).unwrap_or(0);
        if self.rendezvous_done > 0 {
            self.warnings.push(format!(
                "rendezvous {}: fleet resumes from epoch {start_epoch}",
                self.rendezvous_done
            ));
        }
        self.rendezvous_done += 1;
        self.epoch_now = start_epoch;
        let welcome = Frame::Welcome {
            start_epoch,
            epochs_total: self.epochs_total as u64,
            run_id: self.run_id,
        };
        for w in self.live_indices() {
            self.workers[w].needs_hello = false;
            let Some(conn) = self.workers[w].conn.as_mut() else { continue };
            if let Err(e) = write_frame(conn, &welcome) {
                self.worker_failed(w, &format!("welcome: {e}"), Some(&e));
                return Ok(false);
            }
        }
        self.workers_up_gauge();
        self.update_status(false);
        Ok(true)
    }

    /// Reads frames from worker `w`'s existing socket until a `Hello`,
    /// discarding stale epoch traffic from before the rollback.
    fn read_hello_from(&mut self, w: usize) -> Result<(), WireError> {
        let timeout = self.cluster.heartbeat.max(Duration::from_millis(200)) * 4;
        let conn = self.workers[w].conn.as_mut().expect("caller checked conn");
        conn.set_read_timeout(Some(timeout)).map_err(WireError::Io)?;
        loop {
            match read_frame(conn)? {
                Frame::Hello { shard, of, fingerprint, epochs } => {
                    if shard as usize != w || of as usize != self.workers.len() {
                        return Err(WireError::Corrupt(format!(
                            "hello claims shard {shard}/{of}, expected {w}/{}",
                            self.workers.len()
                        )));
                    }
                    if fingerprint != self.fingerprint {
                        return Err(WireError::Corrupt(format!(
                            "hello fingerprint {fingerprint:#x} does not match the graph"
                        )));
                    }
                    self.workers[w].epochs = epochs;
                    self.workers[w].needs_hello = false;
                    return Ok(());
                }
                _stale => {} // a Publish/EpochEnd from the abandoned epoch
            }
        }
    }

    /// Adopts an incoming connection: reads its `Hello` and routes it
    /// to the slot it names. Invalid or duplicate hellos drop the
    /// connection (the legitimate worker keeps its own socket).
    fn adopt_connection(&mut self, conn: &mut TcpStream) -> Result<(), String> {
        let timeout = self.cluster.heartbeat.max(Duration::from_millis(200)) * 4;
        conn.set_read_timeout(Some(timeout)).map_err(|e| e.to_string())?;
        let _ = conn.set_nodelay(true);
        match read_frame(conn) {
            Ok(Frame::Hello { shard, of, fingerprint, epochs }) => {
                let w = shard as usize;
                if w >= self.workers.len()
                    || of as usize != self.workers.len()
                    || fingerprint != self.fingerprint
                    || self.workers[w].lost
                    || self.workers[w].conn.is_some()
                {
                    return Err(format!("rejected hello from shard {shard}/{of}"));
                }
                self.workers[w].epochs = epochs;
                self.workers[w].needs_hello = false;
                self.workers[w].conn = Some(conn.try_clone().map_err(|e| e.to_string())?);
                Ok(())
            }
            Ok(other) => Err(format!("expected Hello, got {}", other.name())),
            Err(e) => Err(format!("bad hello: {e}")),
        }
    }

    /// Drives epochs after a successful rendezvous until the run ends,
    /// a relaunch forces a new rendezvous, or every shard is lost.
    fn drive(&mut self) -> Result<Drive, InferError> {
        loop {
            let live = self.live_indices();
            if live.is_empty() {
                return Ok(Drive::Finished);
            }
            // One round: a frame from every live worker (all Publish,
            // or all EpochEnd — the fleet is in lockstep).
            let mut frames: Vec<(usize, Frame)> = Vec::with_capacity(live.len());
            let mut shipped: Vec<(u32, u64, Vec<u8>)> = Vec::new();
            for w in live {
                // Telemetry frames precede the lockstep frame; drain
                // them aside (they never gate progress).
                let result = loop {
                    let read = {
                        let conn = self.workers[w].conn.as_mut().expect("live worker has conn");
                        conn.set_read_timeout(Some(self.cluster.heartbeat))
                            .map_err(WireError::Io)
                            .and_then(|()| read_frame(conn))
                    };
                    match read {
                        Ok(Frame::Telemetry { shard, epoch, payload }) => {
                            shipped.push((shard, epoch, payload));
                        }
                        other => break other,
                    }
                };
                match result {
                    Ok(frame) => frames.push((w, frame)),
                    Err(e) => {
                        if self.worker_failed(w, &e.to_string(), Some(&e)) {
                            return Ok(Drive::Rendezvous);
                        }
                    }
                }
            }
            for (shard, epoch, payload) in shipped {
                self.ingest_telemetry(shard, epoch, &payload);
            }
            frames.retain(|(w, _)| !self.workers[*w].lost);
            if frames.is_empty() {
                return Ok(Drive::Finished);
            }
            match &frames[0].1 {
                Frame::Publish { epoch, phase, .. } => {
                    let (epoch, phase) = (*epoch, *phase);
                    let mut merged: Vec<(u32, u32)> = Vec::new();
                    for (w, frame) in &frames {
                        match frame {
                            Frame::Publish { epoch: e, phase: p, writes }
                                if *e == epoch && *p == phase =>
                            {
                                merged.extend_from_slice(writes);
                            }
                            other => {
                                return Err(InferError::Cluster {
                                    detail: format!(
                                        "worker {w} broke lockstep: expected Publish \
                                         e{epoch} p{phase}, got {}",
                                        other.name()
                                    ),
                                })
                            }
                        }
                    }
                    let halo = Frame::Halo { epoch, phase, writes: merged };
                    if self.broadcast(&halo) {
                        return Ok(Drive::Rendezvous);
                    }
                }
                Frame::EpochEnd { epoch, .. } => {
                    let epoch = *epoch;
                    let mut all_retired = true;
                    for (w, frame) in &frames {
                        match frame {
                            Frame::EpochEnd { epoch: e, retired } if *e == epoch => {
                                all_retired &= *retired;
                            }
                            other => {
                                return Err(InferError::Cluster {
                                    detail: format!(
                                        "worker {w} broke lockstep: expected EpochEnd \
                                         e{epoch}, got {}",
                                        other.name()
                                    ),
                                })
                            }
                        }
                    }
                    self.obs().counter_add(met::HEARTBEATS, frames.len() as u64);
                    self.epoch_now = epoch + 1;
                    self.update_status(false);
                    let stop: Option<u8> = self
                        .ctx
                        .interrupted()
                        .map(outcome_code)
                        .or_else(|| all_retired.then_some(outcome_code(RunOutcome::Completed)));
                    if self.broadcast(&Frame::Proceed { stop }) {
                        return Ok(Drive::Rendezvous);
                    }
                    if let Some(code) = stop {
                        self.outcome = self.outcome.combine(outcome_from_code(code));
                        return Ok(Drive::Finished);
                    }
                    if epoch + 1 >= self.epochs_total as u64 {
                        return Ok(Drive::Finished);
                    }
                }
                other => {
                    return Err(InferError::Cluster {
                        detail: format!("unexpected {} frame mid-run", other.name()),
                    })
                }
            }
        }
    }

    /// Folds a worker's shipped metrics snapshot into the fleet view.
    /// Telemetry never gates lockstep: a payload that fails to decode
    /// is dropped with a warning, not a protocol error.
    fn ingest_telemetry(&mut self, shard: u32, epoch: u64, payload: &[u8]) {
        self.obs().counter_add(met::TELEMETRY_FRAMES, 1);
        match serde_json::from_slice::<TelemetryWire>(payload) {
            Ok(wire) => {
                self.fleet.lock().expect("fleet lock").record(shard, epoch, wire.into_snapshot());
            }
            Err(e) => self
                .obs()
                .warn(format!("shard {shard}: undecodable telemetry at epoch {epoch}: {e}")),
        }
    }

    /// Broadcasts to every live worker. Returns `true` when a write
    /// failure led to a relaunch (fleet must re-rendezvous).
    fn broadcast(&mut self, frame: &Frame) -> bool {
        for w in self.live_indices() {
            let Some(conn) = self.workers[w].conn.as_mut() else { continue };
            if let Err(e) = write_frame(conn, frame) {
                if self.worker_failed(w, &format!("broadcast {}: {e}", frame.name()), Some(&e)) {
                    return true;
                }
            }
        }
        false
    }

    fn run(mut self) -> Result<ShardRunReport, InferError> {
        for shard in 0..self.workers.len() {
            if let Err(e) = self.launch(shard, 0) {
                self.lose(shard, &format!("initial launch failed: {e}"));
            }
        }
        loop {
            if self.live_indices().is_empty() {
                break;
            }
            match self.rendezvous()? {
                true => {}
                false => continue,
            }
            match self.drive()? {
                Drive::Finished => break,
                Drive::Rendezvous => continue,
            }
        }
        self.collect_reports();
        self.finish()
    }

    /// Reads the `Done` report from every surviving worker. A failure
    /// here no longer restarts anyone — the counts are recovered from
    /// the shard's newest checkpoint instead, degraded.
    fn collect_reports(&mut self) {
        let timeout = self.cluster.heartbeat.max(Duration::from_secs(1)) * 10;
        for w in self.live_indices() {
            let result = {
                let Some(conn) = self.workers[w].conn.as_mut() else { continue };
                conn.set_read_timeout(Some(timeout)).map_err(WireError::Io).and_then(|()| {
                    loop {
                        match read_frame(conn)? {
                            Frame::Done { report } => break Ok(report),
                            // Stale frames from an abandoned broadcast.
                            Frame::Publish { .. }
                            | Frame::EpochEnd { .. }
                            | Frame::Telemetry { .. } => {}
                            other => {
                                break Err(WireError::Corrupt(format!(
                                    "expected Done, got {}",
                                    other.name()
                                )))
                            }
                        }
                    }
                })
            };
            match result.map_err(|e| e.to_string()).and_then(|bytes| {
                serde_json::from_slice::<DoneReport>(&bytes).map_err(|e| e.to_string())
            }) {
                Ok(report) => self.workers[w].report = Some(report),
                Err(e) => {
                    self.warnings.push(format!(
                        "shard {w}: no final report ({e}); recovering counts from its \
                         newest checkpoint"
                    ));
                    self.outcome = self.outcome.combine(RunOutcome::Degraded);
                }
            }
        }
    }

    /// The newest valid checkpointed counts of a shard that produced no
    /// report, plus the epoch they cover.
    fn recover_from_ckpt(&self, shard: usize) -> Option<(MarginalCounts, u64)> {
        let dir = self.ckpt.dir.as_ref()?;
        let store = CheckpointStore::create(dir.join(store_name(shard)), self.fingerprint).ok()?;
        let epochs = valid_shard_epochs(&store, self.graph, shard, self.workers.len());
        let newest = *epochs.last()?;
        let state = store.load_epoch(newest).ok()?;
        let CheckpointState::Shard { chain, .. } = state else { return None };
        let (_, _, _, counts, _) = chain.restore(self.graph).ok()?;
        Some((counts, newest))
    }

    fn finish(mut self) -> Result<ShardRunReport, InferError> {
        let n = self.workers.len();
        let obs = self.obs().clone();
        let mut total = MarginalCounts::new(self.graph);
        let mut per_shard = Vec::with_capacity(n);
        let mut per_shard_counts = Vec::with_capacity(n);
        let mut all_series = Vec::new();
        let mut epochs_run = 0usize;
        let mut max_halo_delta: Option<f64> = None;
        let mut any_counts = false;
        for w in 0..n {
            let report = self.workers[w].report.take();
            match report {
                Some(report) => {
                    self.outcome = self.outcome.combine(outcome_from_code(report.outcome));
                    self.warnings.extend(report.warnings);
                    epochs_run = epochs_run.max(report.epochs_run as usize);
                    let counts = MarginalCounts::from_rows(self.graph, report.counts)
                        .map_err(|e| InferError::Cluster {
                            detail: format!("shard {w} returned malformed counts: {e}"),
                        })?;
                    let series = report.series.into_series();
                    series.publish(&obs, &format!("shard.{w}"));
                    obs.gauge_set(
                        &format!("shard.{w}.retired_at"),
                        report.stats.retired_at.map_or(-1.0, |e| e as f64),
                    );
                    if let Some(b) = report.stats.retire_halo_delta {
                        obs.gauge_set(&format!("shard.{w}.retire.halo_delta"), b);
                        max_halo_delta = Some(max_halo_delta.map_or(b, |m: f64| m.max(b)));
                    }
                    total.merge(&counts);
                    any_counts = true;
                    all_series.push(series);
                    per_shard_counts.push(counts);
                    per_shard.push(report.stats);
                }
                None => {
                    let mut stats = placeholder_stats(w);
                    stats.owned_vars = self.plan.owned[w].len();
                    stats.halo_vars = self.plan.interface.halo[w].len();
                    stats.boundary_factors = self.plan.interface.boundary_per_shard[w];
                    stats.halo_bytes = self.plan.interface.halo_bytes(w);
                    match self.recover_from_ckpt(w) {
                        Some((counts, epoch)) => {
                            self.warnings.push(format!(
                                "shard {w}: merged counts recovered from its checkpoint at \
                                 epoch {epoch}"
                            ));
                            stats.epochs_sampled = epoch as usize;
                            total.merge(&counts);
                            any_counts = true;
                            per_shard_counts.push(counts);
                        }
                        None => {
                            self.warnings.push(format!(
                                "shard {w}: no report and no usable checkpoint; its \
                                 marginal rows are zero"
                            ));
                            per_shard_counts.push(MarginalCounts::new(self.graph));
                        }
                    }
                    per_shard.push(stats);
                }
            }
        }
        if !any_counts {
            return Err(InferError::Cluster {
                detail: "every shard was lost with no report and no usable checkpoint"
                    .to_owned(),
            });
        }
        if let Some(b) = max_halo_delta {
            obs.gauge_set("shard.retire.halo_delta", b);
        }
        let telemetry = ConvergenceSeries::merge_mean(&all_series);
        telemetry.publish(&obs, "infer.shard");
        obs.gauge_set("shard.epochs_run", epochs_run as f64);
        self.epoch_now = epochs_run as u64;
        self.update_status(true);
        self.workers_up_gauge();
        let health = self.health();
        Ok(ShardRunReport {
            counts: total,
            outcome: self.outcome,
            warnings: self.warnings,
            telemetry,
            per_shard,
            health,
            per_shard_counts,
            epochs_run,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_codes_round_trip() {
        for o in [
            RunOutcome::Completed,
            RunOutcome::Degraded,
            RunOutcome::TimedOut,
            RunOutcome::Cancelled,
        ] {
            assert_eq!(outcome_from_code(outcome_code(o)), o);
        }
    }

    #[test]
    fn status_json_reports_degradation_and_health_labels() {
        let status = ClusterStatus {
            done: true,
            degraded: true,
            epoch: 42,
            shards: vec![
                ShardHealth { shard: 0, restarts: 0, lost: false },
                ShardHealth { shard: 1, restarts: 2, lost: false },
                ShardHealth { shard: 2, restarts: 3, lost: true },
            ],
        };
        let json = render_status(&status);
        assert!(json.contains("\"status\":\"degraded\""), "{json}");
        assert!(json.contains("\"done\":true"), "{json}");
        assert!(json.contains("\"epoch\":42"), "{json}");
        assert!(json.contains("{\"shard\":0,\"health\":\"healthy\",\"restarts\":0}"), "{json}");
        assert!(json.contains("{\"shard\":1,\"health\":\"restarted\",\"restarts\":2}"), "{json}");
        assert!(json.contains("{\"shard\":2,\"health\":\"lost\",\"restarts\":3}"), "{json}");

        let ok = ClusterStatus { done: false, degraded: false, epoch: 0, shards: vec![] };
        assert_eq!(render_status(&ok), "{\"status\":\"ok\",\"done\":false,\"epoch\":0,\"shards\":[]}");
    }

    #[test]
    fn series_wire_round_trips_the_convergence_series() {
        let mut s = ConvergenceSeries::default();
        s.flip_rate = vec![0.5, 0.25];
        s.marginal_delta = vec![0.1, 0.05];
        s.pll = vec![(0.0, -12.5)];
        s.conclique_samples[0] = 7;
        s.samples_total = 100;
        s.flips_total = 40;
        s.epochs = 2;
        let wire = SeriesWire::from_series(&s);
        let text = serde_json::to_string(&wire).unwrap();
        let back: SeriesWire = serde_json::from_str(&text).unwrap();
        assert_eq!(back.into_series(), s);
    }
}
