//! `wal_ingest`: engine-level ingestion through two credit-gated sessions
//! with the write-ahead log on and an fsync per batch, then recovery of the
//! log into a second engine. Matching is trivial here, so durability, ingress
//! and the core's admission and enqueue path set the numbers.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use defcon_core::unit::NullUnit;
use defcon_core::{
    Engine, EngineHandle, FsyncPolicy, FullQueuePolicy, IngressConfig, UnitId, UnitSpec, WalConfig,
};
use defcon_events::now_ns;
use defcon_ingress::{IngressTier, SessionHandle};

use crate::host;
use crate::pass::{self, engine_workers, Cells, Pass, Phase, RunCfg};
use crate::schedule::Rng;
use crate::stats::latency_slices;
use crate::units::{lane_draft, register_lane_sinks, Instruments, SinkLog};

/// Frozen sizes (see README, "How the sizes were chosen").
pub const LANES: usize = 8;
pub const BURST: usize = 8;
pub const SESSIONS: usize = 2;
/// Deployments an untraced run measures in turn (set-up is cheap here).
const SUB_RUNS: u32 = 6;
const WARMUP_EVENTS: usize = 512;
const SLICE_EVENTS: u64 = 1_024;
const DRAIN_TIMEOUT: Duration = Duration::from_secs(30);

fn lane_names() -> Vec<String> {
    (0..LANES).map(|lane| format!("lane-{lane}")).collect()
}

/// The engine with its lane sinks; shared by the ingesting and the recovering
/// side.
fn engine_with_sinks(
    wal: Option<WalConfig>,
    instruments: Option<&Arc<Instruments>>,
) -> Result<(Engine, Vec<UnitId>, Arc<SinkLog>), String> {
    let mut builder = Engine::builder()
        .workers(engine_workers())
        .batch_size(crate::trading::BATCH)
        .ingress(IngressConfig::default().policy(FullQueuePolicy::Block));
    if let Some(wal) = wal {
        builder = builder.wal(wal);
    }
    let engine = builder.build();
    let log = SinkLog::new(1);
    let sinks = register_lane_sinks(&engine, &lane_names(), (1, 0), &log, instruments)?;
    Ok((engine, sinks, log))
}

/// Field order is drop order: sessions and tier stop before the workers.
struct Deployment {
    sessions: Vec<SessionHandle>,
    tier: IngressTier,
    handle: EngineHandle,
    engine: Engine,
    lanes: Vec<String>,
    sinks: Vec<UnitId>,
    log: Arc<SinkLog>,
    dir: PathBuf,
    rng: Rng,
    sequence: u64,
}

fn setup(
    run: &RunCfg,
    seed: u64,
    fsync: Option<FsyncPolicy>,
    instruments: Option<&Arc<Instruments>>,
) -> Result<Deployment, String> {
    let dir =
        host::scratch_dir("wal").map_err(|err| format!("creating the log directory: {err}"))?;
    let wal = fsync.map(|policy| WalConfig::new(&dir).fsync(policy));
    let (engine, sinks, log) = engine_with_sinks(wal, instruments)?;
    let sources = (0..SESSIONS)
        .map(|index| {
            engine.register_unit(UnitSpec::new(format!("source-{index}")), Box::new(NullUnit))
        })
        .collect::<Result<Vec<_>, _>>()
        .map_err(|err| format!("registering a source: {err}"))?;
    let handle = engine.start();
    let tier = IngressTier::new(&engine);
    let sessions = sources
        .into_iter()
        .map(|source| tier.session(source))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|err| format!("opening a session: {err}"))?;
    let mut deployment = Deployment {
        sessions,
        tier,
        handle,
        engine,
        lanes: lane_names(),
        sinks,
        log,
        dir,
        rng: Rng::new(seed),
        sequence: 0,
    };
    for _ in 0..(if run.smoke { 64 } else { WARMUP_EVENTS }).div_ceil(BURST) {
        deployment.burst()?;
    }
    deployment.drain()?;
    Ok(deployment)
}

impl Deployment {
    /// Submits one burst on seeded lanes through the next session, blocking
    /// while its credit window is full. Returns `(start, generated,
    /// submitted)`.
    fn burst(&mut self) -> Result<[u64; 3], String> {
        let start = now_ns();
        let drafts = (0..BURST)
            .map(|_| {
                let lane = &self.lanes[self.rng.below(LANES)];
                self.sequence += 1;
                lane_draft(lane, self.sequence, start)
            })
            .collect();
        let generated = now_ns();
        let session = &self.sessions[(self.sequence as usize / BURST) % SESSIONS];
        let admission = session.submit(drafts);
        if admission.accepted() != BURST {
            return Err(format!(
                "a Block session accepted {} of {BURST} events",
                admission.accepted()
            ));
        }
        Ok([start, generated, now_ns()])
    }

    fn drain(&self) -> Result<(), String> {
        if self.tier.drain(DRAIN_TIMEOUT) && self.handle.wait_idle(DRAIN_TIMEOUT) {
            Ok(())
        } else {
            Err("sessions or workers did not drain within 30 s".into())
        }
    }
}

/// Removes the log directory when the run is over, pass or fail.
struct RemoveDir(PathBuf);

impl Drop for RemoveDir {
    fn drop(&mut self) {
        // Best effort: a leftover directory is inside the build directory.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One ingest pass under `fsync` (`None` = log off). With `recover` set, the
/// log is afterwards replayed into a fresh engine and the recovery cells are
/// appended.
pub fn run(
    run: &RunCfg,
    measure: Duration,
    fsync: Option<FsyncPolicy>,
    recover: bool,
    instruments: Option<&Arc<Instruments>>,
) -> Result<Pass, String> {
    // Recovery holds the whole log in memory, and a process's peak resident
    // set never comes back down: only the last sub-run recovers, after its
    // measured phase has read the peak.
    pass::sub_runs(run, SUB_RUNS, measure, |index, last, share| {
        let seed = pass::sub_run_seed(run.seed, index);
        run_once(run, seed, share, fsync, recover && last, instruments)
    })
}

fn run_once(
    run: &RunCfg,
    seed: u64,
    measure: Duration,
    fsync: Option<FsyncPolicy>,
    recover: bool,
    instruments: Option<&Arc<Instruments>>,
) -> Result<Pass, String> {
    let (mut deployment, mut pass) = pass::timed_setup(|| setup(run, seed, fsync, instruments))?;
    let _cleanup = RemoveDir(deployment.dir.clone());
    pass.notes.push(format!(
        "config: mode={} workers={} batch_size={} lanes={LANES} burst={BURST} sessions={SESSIONS} policy=block credit_window={} wal={} cores={}",
        deployment.engine.mode().figure_label(),
        deployment.handle.worker_count(),
        deployment.engine.configured_batch_size(),
        deployment.tier.config().credit_window,
        fsync.map_or("off".to_string(), |policy| format!("{policy:?}")),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    ));
    deployment.log.take_latencies();
    let deliveries_before = deployment.log.deliveries();
    let busy_before = instruments.map_or(0, |i| i.busy_ns());
    let ledger_before = deployment.engine.queue_stats();
    let (mut gen_ns, mut submit_ns, mut events) = (0u64, 0u64, 0u64);
    let mut phase = Phase::begin(&deployment.engine, measure, SLICE_EVENTS);
    loop {
        let sampled = instruments.and_then(|i| i.tracer.batch(events / BURST as u64, now_ns()));
        let [start, generated, submitted] = deployment.burst()?;
        if let Some(batch) = sampled {
            batch.child("gen", start, generated);
            batch.child("submit", generated, submitted);
            batch.finish(submitted);
        }
        events += BURST as u64;
        gen_ns += generated - start;
        submit_ns += submitted - generated;
        phase.slices.add(BURST as u64, submitted);
        phase.sample_queue(&deployment.engine);
        if submitted >= phase.deadline_ns {
            break;
        }
    }
    let drain_start = now_ns();
    deployment.drain()?;
    let drain_wait_ns = now_ns() - drain_start;
    phase.end(&deployment.engine, events, &mut pass);
    pass.attempted = events;

    let delivered = deployment.log.deliveries() - deliveries_before;
    pass.check(delivered == events, || {
        format!("lane sinks saw {delivered} deliveries, expected {events}")
    });
    pass.failed = events.saturating_sub(delivered);
    let ledger = deployment.engine.queue_stats();
    let (admitted, shed) = (
        ledger.ingress_admitted - ledger_before.ingress_admitted,
        ledger.ingress_shed - ledger_before.ingress_shed,
    );
    pass.check(admitted + shed == events, || {
        format!("admitted {admitted} + shed {shed} != attempted {events}")
    });
    pass.slice_latencies = latency_slices(&deployment.log.take_latencies());

    let per_event = |total: u64| total as f64 / events as f64;
    pass.cells.extend([
        ("workload.gen_ns_per_event", per_event(gen_ns)),
        ("ingress.submit_ns_per_event", per_event(submit_ns)),
        ("ingress.drain_wait_ns_per_event", per_event(drain_wait_ns)),
        ("workload.achieved_rate_eps", pass.events_per_s()),
    ]);
    if let Some(instruments) = instruments {
        // The generator blocks in `submit` while the sessions' credit is out,
        // which is its wait on the engine here.
        let busy_ns = instruments.busy_ns() - busy_before;
        pass.cells.push((
            "core.dispatch_self_ns_per_event",
            per_event((submit_ns + drain_wait_ns).saturating_sub(busy_ns)),
        ));
        crate::micro::lane_cells(
            &deployment.engine,
            &deployment.sinks,
            &deployment.lanes,
            instruments,
            &mut pass.cells,
        );
    }

    let total_deliveries = deployment.log.deliveries();
    let dir = deployment.dir.clone();
    // Shutting the first engine down closes its log before anything reads it.
    drop(deployment);
    if fsync.is_some() {
        let (bytes, segments) = log_size(&dir).map_err(|err| format!("sizing the log: {err}"))?;
        pass.cells.extend([
            (
                "durability.wal_bytes_per_event",
                bytes as f64 / total_deliveries.max(1) as f64,
            ),
            ("durability.segments", segments as f64),
        ]);
    }
    if recover {
        recover_into_fresh_engine(&dir, total_deliveries, instruments, &mut pass)?;
    }
    Ok(pass)
}

fn log_size(dir: &Path) -> std::io::Result<(u64, u64)> {
    let (mut bytes, mut segments) = (0, 0);
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if entry.path().extension().is_some_and(|ext| ext == "seg") {
            bytes += entry.metadata()?.len();
            segments += 1;
        }
    }
    Ok((bytes, segments))
}

/// Replays the log into a second engine with the same sinks and checks that
/// it re-delivers exactly what the first engine delivered.
fn recover_into_fresh_engine(
    dir: &Path,
    original_deliveries: u64,
    instruments: Option<&Arc<Instruments>>,
    pass: &mut Pass,
) -> Result<(), String> {
    let (engine, _, log) = engine_with_sinks(None, None)?;
    let handle = engine.start();
    let start = now_ns();
    let report = engine
        .recover_from(dir)
        .map_err(|err| format!("recovering the log: {err}"))?;
    if !handle.wait_idle(DRAIN_TIMEOUT) {
        return Err("the recovering engine did not drain within 30 s".into());
    }
    let end = now_ns();
    if let Some(batch) = instruments.and_then(|i| i.tracer.batch(0, start)) {
        batch.child("recover", start, end);
        batch.finish(end);
    }
    let recovered = log.deliveries();
    pass.check(recovered == original_deliveries && report.events == original_deliveries, || {
        format!(
            "recovery re-delivered {recovered} of {original_deliveries} deliveries ({} events in the log)",
            report.events
        )
    });
    pass.check(
        engine.stats().engine_errors() == 0 && engine.stats().unit_errors() == 0,
        || "the recovering engine reported errors".into(),
    );
    let seconds = (end - start) as f64 / 1e9;
    pass.cells.extend([
        (
            "core.recover_ns_per_event",
            seconds * 1e9 / report.events.max(1) as f64,
        ),
        ("core.recover_events_per_s", report.events as f64 / seconds),
    ]);
    pass.notes.push(format!(
        "recovery: {} events in {} batches, {:.3} s through re-delivery",
        report.events, report.batches, seconds
    ));
    handle
        .shutdown()
        .map_err(|err| format!("stopping the recovering engine: {err}"))?;
    Ok(())
}

/// The differential cells a traced `wal_ingest` run adds: the same ingest
/// with the log off and with the log on but never synced, compared by wall
/// time per event against the fsync-per-batch pass.
pub fn durability_differentials(
    run: &RunCfg,
    each: Duration,
    every_batch_ns_per_event: f64,
    cells: &mut Cells,
) -> Result<Vec<String>, String> {
    let mut notes = Vec::new();
    let mut ns_per_event = |fsync: Option<FsyncPolicy>| -> Result<f64, String> {
        let pass = run_once(run, run.seed, each, fsync, false, None)?;
        if !pass.problems.is_empty() {
            return Err(format!("wal {fsync:?}: {}", pass.problems.join("; ")));
        }
        notes.push(format!(
            "differential wal={fsync:?}: {:.0} events/s",
            pass.events_per_s()
        ));
        Ok(1e9 / pass.events_per_s().max(1.0))
    };
    let off = ns_per_event(None)?;
    let never = ns_per_event(Some(FsyncPolicy::Never))?;
    cells.extend([
        ("durability.wal_ns_per_event", never - off),
        (
            "durability.fsync_share",
            (every_batch_ns_per_event - never) / every_batch_ns_per_event,
        ),
    ]);
    Ok(notes)
}
