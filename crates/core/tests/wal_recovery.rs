//! Crash-recovery integration: publish batches with `fsync: EveryBatch`, drop
//! the engine without shutdown (the queue's contents die with the process),
//! recover the log into a fresh engine and assert exactly-once delivery with
//! per-unit order matching a clean run — including a torn-tail variant. The
//! log also agrees with shutdown: a publish the runtime refused is never
//! logged, so recovery replays exactly what was accepted.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use defcon_core::{
    Engine, EngineError, EngineResult, EventDraft, FsyncPolicy, SecurityMode, Unit, UnitContext,
    UnitSpec, WalConfig,
};
use defcon_defc::Label;
use defcon_events::{Event, Filter, Value};
use parking_lot::Mutex;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("defcon-recovery-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Records the `seq` part of every delivered event, in delivery order.
struct Recorder {
    lane: &'static str,
    log: Arc<Mutex<Vec<i64>>>,
}

impl Unit for Recorder {
    fn init(&mut self, ctx: &mut UnitContext<'_>) -> EngineResult<()> {
        ctx.subscribe(Filter::for_type(self.lane))?;
        Ok(())
    }

    fn on_event(&mut self, _ctx: &mut UnitContext<'_>, event: &Event) -> EngineResult<()> {
        if let Some(Value::Int(seq)) = event.first_part("seq").map(|p| p.data()) {
            self.log.lock().push(*seq);
        }
        Ok(())
    }
}

struct Fixture {
    engine: Engine,
    source: defcon_core::UnitId,
    alpha_id: defcon_core::UnitId,
    alpha: Arc<Mutex<Vec<i64>>>,
    beta: Arc<Mutex<Vec<i64>>>,
}

/// A manual (workers(0)) engine: dispatch only happens when pumped, so an
/// un-pumped drop models a crash with events accepted but not yet processed.
fn build_engine(wal: Option<WalConfig>) -> Fixture {
    build_engine_with_workers(0, wal)
}

fn build_engine_with_workers(workers: usize, wal: Option<WalConfig>) -> Fixture {
    let mut builder = Engine::builder()
        .mode(SecurityMode::LabelsFreeze)
        .workers(workers)
        .batch_size(8);
    if let Some(config) = wal {
        builder = builder.wal(config);
    }
    let engine = builder.build();
    let alpha = Arc::new(Mutex::new(Vec::new()));
    let beta = Arc::new(Mutex::new(Vec::new()));
    let alpha_id = engine
        .register_unit(
            UnitSpec::new("alpha-recorder"),
            Box::new(Recorder {
                lane: "alpha",
                log: Arc::clone(&alpha),
            }),
        )
        .unwrap();
    engine
        .register_unit(
            UnitSpec::new("beta-recorder"),
            Box::new(Recorder {
                lane: "beta",
                log: Arc::clone(&beta),
            }),
        )
        .unwrap();
    let source = engine
        .register_unit(
            UnitSpec::new("source"),
            Box::new(defcon_core::unit::NullUnit),
        )
        .unwrap();
    Fixture {
        engine,
        source,
        alpha_id,
        alpha,
        beta,
    }
}

/// Ten batches of eight drafts, alternating lanes, seq strictly increasing —
/// so per-unit order violations and duplicates are both detectable.
fn workload() -> Vec<Vec<EventDraft>> {
    let mut seq = 0i64;
    (0..10)
        .map(|_| {
            (0..8)
                .map(|_| {
                    seq += 1;
                    let lane = if seq % 2 == 0 { "alpha" } else { "beta" };
                    EventDraft::new()
                        .public_part("type", Value::str(lane))
                        .public_part("seq", Value::Int(seq))
                })
                .collect()
        })
        .collect()
}

fn publish_all(fixture: &Fixture) -> usize {
    let publisher = fixture.engine.publisher(fixture.source).unwrap();
    workload()
        .into_iter()
        .map(|batch| publisher.publish_batch(batch).unwrap().accepted())
        .sum()
}

fn clean_run() -> (Vec<i64>, Vec<i64>) {
    let fixture = build_engine(None);
    let handle = fixture.engine.start();
    assert_eq!(publish_all(&fixture), 80);
    handle.pump_until_idle().unwrap();
    handle.shutdown().unwrap();
    let alpha = fixture.alpha.lock().clone();
    let beta = fixture.beta.lock().clone();
    (alpha, beta)
}

#[test]
fn unclean_drop_then_recover_matches_clean_run() {
    let (clean_alpha, clean_beta) = clean_run();
    assert_eq!(clean_alpha.len() + clean_beta.len(), 80);

    // "Crash": accept all batches durably, never dispatch, drop everything.
    let dir = temp_dir("crash");
    let crashed = build_engine(Some(WalConfig::new(&dir).fsync(FsyncPolicy::EveryBatch)));
    assert_eq!(publish_all(&crashed), 80);
    assert_eq!(crashed.engine.stats().dispatched(), 0);
    drop(crashed);

    // Recover into a fresh engine with the same units and replay through
    // normal dispatch.
    let recovered = build_engine(None);
    let report = recovered.engine.recover_from(&dir).unwrap();
    assert_eq!(report.batches, 10);
    assert_eq!(report.events, 80);
    assert!(!report.torn_tail_truncated);

    let handle = recovered.engine.start();
    handle.pump_until_idle().unwrap();
    handle.shutdown().unwrap();

    // Exactly-once: same deliveries, same per-unit order as the clean run.
    assert_eq!(*recovered.alpha.lock(), clean_alpha);
    assert_eq!(*recovered.beta.lock(), clean_beta);
    assert_eq!(recovered.engine.stats().dispatched(), 80);
    assert_eq!(recovered.engine.stats().published(), 80);
}

#[test]
fn torn_tail_is_truncated_and_the_prefix_replays_exactly_once() {
    let (clean_alpha, clean_beta) = clean_run();

    let dir = temp_dir("torn");
    let crashed = build_engine(Some(WalConfig::new(&dir).fsync(FsyncPolicy::EveryBatch)));
    assert_eq!(publish_all(&crashed), 80);
    drop(crashed);

    // Tear the log mid-frame: chop a few bytes off the single segment, as a
    // crash between write and fsync would.
    let segment = fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|e| e == "seg"))
        .unwrap();
    let bytes = fs::read(&segment).unwrap();
    fs::write(&segment, &bytes[..bytes.len() - 5]).unwrap();

    let recovered = build_engine(None);
    let report = recovered.engine.recover_from(&dir).unwrap();
    assert!(report.torn_tail_truncated);
    assert_eq!(report.batches, 9, "the torn final batch is dropped");
    assert_eq!(report.events, 72);

    let handle = recovered.engine.start();
    handle.pump_until_idle().unwrap();
    handle.shutdown().unwrap();

    // The surviving prefix is delivered exactly once, in clean-run order.
    let alpha = recovered.alpha.lock().clone();
    let beta = recovered.beta.lock().clone();
    assert_eq!(alpha.len() + beta.len(), 72);
    assert_eq!(alpha[..], clean_alpha[..alpha.len()]);
    assert_eq!(beta[..], clean_beta[..beta.len()]);
}

/// The log's one segment file.
fn single_segment(dir: &Path) -> PathBuf {
    let mut segments: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "seg"))
        .collect();
    assert_eq!(segments.len(), 1);
    segments.pop().unwrap()
}

/// Offset just past the last frame, found by walking the length prefixes
/// after the 8-byte magic up to the first all-zero header.
fn frames_end(bytes: &[u8]) -> usize {
    let mut at = 8;
    while let Some(header) = bytes.get(at..at + 8) {
        if header.iter().all(|&b| b == 0) {
            break;
        }
        at += 8 + u32::from_le_bytes(header[..4].try_into().unwrap()) as usize;
    }
    at
}

/// "Crashes" a `workers(0)` engine by leaking it after it accepted all ten
/// batches, so the log writer's `Drop` never trims the zeros it laid ahead.
fn leaked_log(name: &str) -> PathBuf {
    let dir = temp_dir(name);
    let crashed = build_engine(Some(WalConfig::new(&dir).fsync(FsyncPolicy::EveryBatch)));
    assert_eq!(publish_all(&crashed), 80);
    std::mem::forget(crashed);
    dir
}

#[test]
fn a_leaked_engine_recovers_to_the_clean_runs_sequences() {
    let (clean_alpha, clean_beta) = clean_run();
    let dir = leaked_log("leaked");
    let segment = single_segment(&dir);
    let bytes = fs::read(&segment).unwrap();
    assert!(
        bytes.len() > frames_end(&bytes),
        "the zeros are still there"
    );

    let recovered = build_engine(None);
    let report = recovered.engine.recover_from(&dir).unwrap();
    assert_eq!(report.batches, 10);
    assert_eq!(report.events, 80);
    assert!(!report.torn_tail_truncated, "a zero tail is a clean end");

    let handle = recovered.engine.start();
    handle.pump_until_idle().unwrap();
    handle.shutdown().unwrap();
    assert_eq!(*recovered.alpha.lock(), clean_alpha);
    assert_eq!(*recovered.beta.lock(), clean_beta);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_leaked_engine_with_its_last_frame_zeroed_replays_the_prefix() {
    let (clean_alpha, clean_beta) = clean_run();
    let dir = leaked_log("leaked-torn");
    let segment = single_segment(&dir);
    let mut bytes = fs::read(&segment).unwrap();
    let end = frames_end(&bytes);
    // Zero the last frame's final bytes, keeping the file's length.
    let tail = &mut bytes[end - 16..end];
    assert!(
        tail.iter().any(|&b| b != 0),
        "zeroing must change the frame"
    );
    tail.fill(0);
    fs::write(&segment, &bytes).unwrap();

    let recovered = build_engine(None);
    let report = recovered.engine.recover_from(&dir).unwrap();
    assert!(report.torn_tail_truncated);
    assert_eq!(report.batches, 9, "the broken final batch is dropped");
    assert_eq!(report.events, 72);

    let handle = recovered.engine.start();
    handle.pump_until_idle().unwrap();
    handle.shutdown().unwrap();
    let alpha = recovered.alpha.lock().clone();
    let beta = recovered.beta.lock().clone();
    assert_eq!(alpha.len() + beta.len(), 72);
    assert_eq!(alpha[..], clean_alpha[..alpha.len()]);
    assert_eq!(beta[..], clean_beta[..beta.len()]);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn recovery_into_an_engine_with_its_own_wal_does_not_relog() {
    let dir = temp_dir("relog");
    let crashed = build_engine(Some(WalConfig::new(&dir).fsync(FsyncPolicy::EveryBatch)));
    assert_eq!(publish_all(&crashed), 80);
    drop(crashed);

    // Recover in place: the new engine logs to the same directory. Recovery
    // must not re-append the replayed batches — only genuinely new publishes
    // grow the log.
    let segment_count = |dir: &PathBuf| fs::read_dir(dir).unwrap().count();
    let before = segment_count(&dir);
    let recovered = build_engine(Some(WalConfig::new(&dir).fsync(FsyncPolicy::Never)));
    let report = recovered.engine.recover_from(&dir).unwrap();
    assert_eq!(report.events, 80);
    // Opening the writer adds exactly one fresh segment; replay adds nothing.
    assert_eq!(segment_count(&dir), before + 1);

    let handle = recovered.engine.start();
    handle.pump_until_idle().unwrap();
    assert_eq!(recovered.engine.stats().dispatched(), 80);

    // A second crash+recovery now sees the same 80 events exactly once more —
    // the in-place log did not duplicate them.
    handle.shutdown().unwrap();
    let again = build_engine(None);
    let report = again.engine.recover_from(&dir).unwrap();
    assert_eq!(report.events, 80);
}

/// Crash recovery after a mid-log `swap_unit`: the swap itself is a runtime
/// reconfiguration, not a durable event — it is never logged. Recovering the
/// log into a fresh engine with the replacement unit registered must replay
/// every accepted event exactly once, matching a never-crashed run, with no
/// phantom swap resurfacing in the recovered engine's stats.
#[test]
fn recovery_after_a_mid_log_swap_matches_a_never_crashed_run() {
    let (clean_alpha, clean_beta) = clean_run();

    // Record run: accept the first half durably, dispatch it on incarnation 1,
    // hot-swap the alpha recorder, accept the second half durably — then
    // "crash" with the second half still undispatched.
    let dir = temp_dir("swap");
    let crashed = build_engine(Some(WalConfig::new(&dir).fsync(FsyncPolicy::EveryBatch)));
    let handle = crashed.engine.start();
    let publisher = crashed.engine.publisher(crashed.source).unwrap();
    let mut batches = workload().into_iter();
    for batch in batches.by_ref().take(5) {
        assert_eq!(publisher.publish_batch(batch).unwrap().accepted(), 8);
    }
    handle.pump_until_idle().unwrap();
    assert_eq!(crashed.engine.stats().dispatched(), 40);
    let version = crashed
        .engine
        .swap_unit(
            crashed.alpha_id,
            Box::new(Recorder {
                lane: "alpha",
                log: Arc::clone(&crashed.alpha),
            }),
        )
        .unwrap();
    assert_eq!(version, 2);
    assert_eq!(crashed.engine.queue_stats().unit_swaps, 1);
    for batch in batches {
        assert_eq!(publisher.publish_batch(batch).unwrap().accepted(), 8);
    }
    drop(handle);
    drop(crashed);

    // Recover into a fresh engine whose alpha unit IS the replacement (a
    // fresh registration at version 1). All 80 events replay — recovery does
    // not know or care which incarnation served them before the crash.
    let recovered = build_engine(None);
    let report = recovered.engine.recover_from(&dir).unwrap();
    assert_eq!(report.batches, 10);
    assert_eq!(report.events, 80);
    assert!(!report.torn_tail_truncated);

    let handle = recovered.engine.start();
    handle.pump_until_idle().unwrap();
    handle.shutdown().unwrap();

    assert_eq!(*recovered.alpha.lock(), clean_alpha);
    assert_eq!(*recovered.beta.lock(), clean_beta);
    assert_eq!(recovered.engine.stats().dispatched(), 80);
    let stats = recovered.engine.queue_stats();
    assert_eq!(stats.unit_swaps, 0, "swaps are not logged, so none replay");
    assert_eq!(
        recovered
            .engine
            .unit_state(recovered.alpha_id)
            .unwrap()
            .version,
        1,
        "the recovered replacement is a fresh version-1 registration"
    );
}

/// Log order is pop order: two threads publish into one logged engine at
/// once, and recovery, which replays log order, re-delivers the sequence the
/// engine delivered. Were a batch pushed after the log lock is released, a
/// second publisher could log after it and queue before it.
#[test]
fn concurrent_publishers_recover_in_the_order_they_were_delivered() {
    const BATCHES: i64 = 1_000;
    let dir = temp_dir("order");
    let logged = build_engine(Some(WalConfig::new(&dir).fsync(FsyncPolicy::Never)));
    let handle = logged.engine.start();
    std::thread::scope(|scope| {
        for thread in 0..2i64 {
            let publisher = logged.engine.publisher(logged.source).unwrap();
            scope.spawn(move || {
                for batch in 0..BATCHES {
                    let drafts: Vec<_> = (0..4)
                        .map(|i| {
                            EventDraft::new()
                                .public_part("type", Value::str("alpha"))
                                .public_part("seq", Value::Int((thread * BATCHES + batch) * 4 + i))
                        })
                        .collect();
                    assert_eq!(publisher.publish_batch(drafts).unwrap().accepted(), 4);
                }
            });
        }
    });
    handle.pump_until_idle().unwrap();
    handle.shutdown().unwrap();
    let delivered = logged.alpha.lock().clone();
    assert_eq!(delivered.len(), 2 * BATCHES as usize * 4);
    drop(logged);

    let recovered = build_engine(None);
    assert_eq!(
        recovered.engine.recover_from(&dir).unwrap().batches,
        2 * BATCHES as u64
    );
    let handle = recovered.engine.start();
    handle.pump_until_idle().unwrap();
    handle.shutdown().unwrap();
    assert_eq!(*recovered.alpha.lock(), delivered);
    let _ = fs::remove_dir_all(&dir);
}

/// Publishes `seqs` on the alpha lane from inside a unit context.
fn publish_alpha(ctx: &mut UnitContext<'_>, seqs: std::ops::Range<i64>) -> EngineResult<()> {
    for seq in seqs {
        let draft = ctx.create_event();
        ctx.add_part(&draft, Label::public(), "type", Value::str("alpha"))?;
        ctx.add_part(&draft, Label::public(), "seq", Value::Int(seq))?;
        ctx.publish(draft)?;
    }
    Ok(())
}

/// Publishes `count` alpha events from its `init`.
struct Bootstrapper {
    count: i64,
}

impl Unit for Bootstrapper {
    fn init(&mut self, ctx: &mut UnitContext<'_>) -> EngineResult<()> {
        publish_alpha(ctx, 1_000..1_000 + self.count)
    }

    fn on_event(&mut self, _ctx: &mut UnitContext<'_>, _event: &Event) -> EngineResult<()> {
        Ok(())
    }
}

/// After `shutdown()` every kind of external publish is refused, and the
/// refusal reaches the log too: a `Publisher` batch, a `with_unit` closure's
/// publishes and a late unit's bootstrap publishes each fail, and recovery
/// replays none of them.
#[test]
fn publishes_refused_by_shutdown_are_never_logged() {
    let dir = temp_dir("refused");
    let fixture = build_engine(Some(WalConfig::new(&dir).fsync(FsyncPolicy::EveryBatch)));
    let publisher = fixture.engine.publisher(fixture.source).unwrap();
    fixture.engine.start().shutdown().unwrap();

    let batch = workload().remove(0);
    assert_eq!(batch.len(), 8);
    assert!(publisher.publish_batch(batch).is_err(), "publisher batch");
    let closure = fixture
        .engine
        .with_unit(fixture.source, |_, ctx| publish_alpha(ctx, 0..3));
    assert!(closure.is_err(), "with_unit closure");
    let late = fixture
        .engine
        .register_unit(UnitSpec::new("late"), Box::new(Bootstrapper { count: 2 }));
    assert!(late.is_err(), "bootstrap publishes of a late unit");
    assert_eq!(fixture.engine.stats().published(), 0);
    drop(publisher);
    drop(fixture);

    let report = build_engine(None).engine.recover_from(&dir).unwrap();
    assert_eq!(
        (report.batches, report.events),
        (0, 0),
        "a refused publish is never logged"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// Publishers racing `shutdown()` on a logged engine with workers: what the
/// publishers were told was accepted is exactly what the engine delivered,
/// and exactly what recovery replays, event for event.
#[test]
fn publishers_racing_shutdown_log_exactly_what_was_accepted() {
    const PUBLISHERS: i64 = 2;
    const MAX_BATCHES: i64 = 1_000_000;
    for round in 0..10 {
        let dir = temp_dir(&format!("race-{round}"));
        let logged =
            build_engine_with_workers(2, Some(WalConfig::new(&dir).fsync(FsyncPolicy::Never)));
        let handle = logged.engine.start();
        let accepted = Arc::new(AtomicU64::new(0));
        let (started, first_accepted) = std::sync::mpsc::channel();
        let racers: Vec<_> = (0..PUBLISHERS)
            .map(|thread| {
                let publisher = logged.engine.publisher(logged.source).unwrap();
                let accepted = Arc::clone(&accepted);
                let started = started.clone();
                std::thread::spawn(move || {
                    for batch in 0..MAX_BATCHES {
                        let drafts: Vec<_> = (0..4)
                            .map(|i| {
                                EventDraft::new()
                                    .public_part("type", Value::str("alpha"))
                                    .public_part(
                                        "seq",
                                        Value::Int((thread * MAX_BATCHES + batch) * 4 + i),
                                    )
                            })
                            .collect();
                        match publisher.publish_batch(drafts) {
                            Ok(admission) => {
                                assert_eq!((admission.accepted(), admission.shed()), (4, 0));
                                accepted.fetch_add(4, Ordering::SeqCst);
                                let _ = started.send(());
                            }
                            Err(_) => return,
                        }
                    }
                    panic!("shutdown never refused publisher {thread}");
                })
            })
            .collect();
        first_accepted.recv().unwrap();
        handle.shutdown().unwrap();
        for racer in racers {
            racer.join().unwrap();
        }
        let accepted = accepted.load(Ordering::SeqCst);
        let mut delivered = logged.alpha.lock().clone();
        assert_eq!(delivered.len() as u64, accepted, "round {round}: delivered");
        drop(logged);

        let recovered = build_engine(None);
        let report = recovered.engine.recover_from(&dir).unwrap();
        assert_eq!(report.events, accepted, "round {round}: recovered");
        let handle = recovered.engine.start();
        handle.pump_until_idle().unwrap();
        handle.shutdown().unwrap();
        // Two workers may interleave batches in delivery; compare as sets.
        let mut replayed = recovered.alpha.lock().clone();
        delivered.sort_unstable();
        replayed.sort_unstable();
        assert_eq!(replayed, delivered, "round {round}: the same events");
        let _ = fs::remove_dir_all(&dir);
    }
}

/// What one `with_unit` closure publishes is one batch, so one log frame;
/// so is what one unit's `init` publishes.
#[test]
fn a_closure_and_an_init_append_one_frame_each() {
    let dir = temp_dir("one-frame");
    let fixture = build_engine(Some(WalConfig::new(&dir).fsync(FsyncPolicy::Never)));
    fixture
        .engine
        .with_unit(fixture.source, |_, ctx| publish_alpha(ctx, 0..3))
        .unwrap();
    drop(fixture);
    let report = build_engine(None).engine.recover_from(&dir).unwrap();
    assert_eq!((report.batches, report.events), (1, 3));

    let fixture = build_engine(Some(WalConfig::new(&dir).fsync(FsyncPolicy::Never)));
    fixture
        .engine
        .register_unit(UnitSpec::new("boot"), Box::new(Bootstrapper { count: 2 }))
        .unwrap();
    drop(fixture);
    let report = build_engine(None).engine.recover_from(&dir).unwrap();
    assert_eq!((report.batches, report.events), (2, 5));
    let _ = fs::remove_dir_all(&dir);
}

/// A failed log write poisons the log: the OS may already have dropped what
/// a failed write or sync left dirty, so a later append that succeeds would
/// acknowledge a log with a hole in it. Here a removed log directory fails
/// the rotation of the next publish; once the directory is back, every
/// later publish still fails with `Durability`, and none of them is queued.
#[test]
fn a_failed_log_write_refuses_every_later_publish() {
    let dir = temp_dir("poisoned");
    let fixture = build_engine(Some(WalConfig::new(&dir).segment_bytes(1)));
    let publisher = fixture.engine.publisher(fixture.source).unwrap();
    let mut batches = workload().into_iter();
    let first = publisher.publish_batch(batches.next().unwrap()).unwrap();
    assert_eq!(first.accepted(), 8);

    fs::remove_dir_all(&dir).unwrap();
    let failed = publisher.publish_batch(batches.next().unwrap());
    assert!(
        matches!(failed, Err(EngineError::Durability(_))),
        "{failed:?}"
    );
    fs::create_dir_all(&dir).unwrap();
    for batch in batches {
        let refused = publisher.publish_batch(batch);
        assert!(
            matches!(refused, Err(EngineError::Durability(_))),
            "{refused:?}"
        );
    }
    assert_eq!(fixture.engine.stats().published(), 8);
    assert_eq!(fixture.engine.queue_stats().depth, 8);
    let handle = fixture.engine.start();
    assert_eq!(handle.pump_until_idle().unwrap(), 8);
    assert_eq!(fixture.alpha.lock().len() + fixture.beta.lock().len(), 8);
    let _ = fs::remove_dir_all(&dir);
}
