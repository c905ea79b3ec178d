//! `fanout_churn`: engine-level fan-out at 10^4 registered subscriptions
//! with a live stream of register/remove operations, so the subscription
//! index's read path (planning) and write path (the rebuild every security
//! epoch bump forces) run side by side.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

use defcon_core::unit::NullUnit;
use defcon_core::{Engine, EngineHandle, Publisher, UnitId, UnitSpec};
use defcon_events::now_ns;

use crate::pass::{self, engine_workers, Pass, Phase, RunCfg};
use crate::schedule::Rng;
use crate::stats::{latency_slices, median_ns};
use crate::units::{boxed, lane_draft, register_lane_sinks, Instruments, Kind, LaneSink, SinkLog};

/// Frozen sizes (see README, "How the sizes were chosen").
pub const LANES: usize = 20;
/// Subscriptions per lane: half match every event of the lane, half name the
/// lane but fail a second clause.
pub const SUBSCRIPTIONS_PER_LANE: usize = 500;
pub const BURST: usize = 64;
/// Most events queued at once.
pub const WINDOW: usize = 1_024;
/// External events between control operations.
pub const CONTROL_EVERY: u64 = 256;
/// Churned sinks alive at once; registering one more removes the oldest.
const CHURN_ALIVE: usize = 16;
/// Deployments an untraced run measures in turn. Registering 10^4
/// subscriptions takes seconds, so fewer than the other workloads.
const SUB_RUNS: u32 = 3;
const WARMUP_EVENTS: usize = 2_048;
const SLICE_EVENTS: u64 = 2_048;
/// One delivery in this many is timed (coprime with the per-event fan-out, so
/// the samples walk through every position of a lane's delivery run).
const LATENCY_SAMPLE_EVERY: u64 = 257;
const DRAIN_TIMEOUT: Duration = Duration::from_secs(30);

struct Deployment {
    handle: EngineHandle,
    engine: Engine,
    feed: Publisher,
    lanes: Vec<String>,
    sinks: Vec<UnitId>,
    exact_per_lane: usize,
    base: Arc<SinkLog>,
    churn: Arc<SinkLog>,
    churned: VecDeque<UnitId>,
    churn_count: usize,
    rng: Rng,
    sequence: u64,
}

fn setup(
    run: &RunCfg,
    seed: u64,
    instruments: Option<&Arc<Instruments>>,
) -> Result<Deployment, String> {
    let per_lane = if run.smoke {
        20
    } else {
        SUBSCRIPTIONS_PER_LANE
    };
    let engine = Engine::builder()
        .workers(engine_workers())
        .batch_size(crate::trading::BATCH)
        .build();
    let source = engine
        .register_unit(UnitSpec::new("source"), Box::new(NullUnit))
        .map_err(|err| format!("registering the source: {err}"))?;
    let base = SinkLog::new(LATENCY_SAMPLE_EVERY);
    let lanes: Vec<String> = (0..LANES).map(|lane| format!("lane-{lane}")).collect();
    let sinks = register_lane_sinks(
        &engine,
        &lanes,
        (per_lane / 2, per_lane - per_lane / 2),
        &base,
        instruments,
    )?;
    let feed = engine
        .publisher(source)
        .map_err(|err| format!("opening the feed: {err}"))?;
    let handle = engine.start();
    let mut deployment = Deployment {
        handle,
        engine,
        feed,
        lanes,
        sinks,
        exact_per_lane: per_lane / 2,
        base,
        churn: SinkLog::new(u64::MAX),
        churned: VecDeque::new(),
        churn_count: 0,
        rng: Rng::new(seed),
        sequence: 0,
    };
    for _ in 0..(if run.smoke { 128 } else { WARMUP_EVENTS }).div_ceil(BURST) {
        deployment.burst()?;
    }
    deployment.drain()?;
    Ok(deployment)
}

impl Deployment {
    /// Publishes one burst on seeded lanes and waits until the queue has room
    /// for the next. Returns the instants `(start, generated, published,
    /// room again)`.
    fn burst(&mut self) -> Result<[u64; 4], String> {
        let start = now_ns();
        let drafts = (0..BURST)
            .map(|_| {
                let lane = &self.lanes[self.rng.below(LANES)];
                self.sequence += 1;
                lane_draft(lane, self.sequence, start)
            })
            .collect();
        let generated = now_ns();
        let admission = self
            .feed
            .publish_batch(drafts)
            .map_err(|err| format!("publishing a burst: {err}"))?;
        if admission.accepted() != BURST {
            return Err(format!(
                "the engine accepted {} of {BURST} events",
                admission.accepted()
            ));
        }
        let published = now_ns();
        if !self
            .engine
            .wait_queue_depth_below(WINDOW - BURST + 1, DRAIN_TIMEOUT)
        {
            return Err("the queue did not drain below the window within 30 s".into());
        }
        Ok([start, generated, published, now_ns()])
    }

    fn drain(&self) -> Result<(), String> {
        if self.handle.wait_idle(DRAIN_TIMEOUT) {
            Ok(())
        } else {
            Err("the workers did not drain within 30 s".into())
        }
    }

    /// One control operation: register a sink with one subscription on the
    /// next lane round-robin and, once enough are alive, remove the oldest.
    /// Each call bumps the security epoch. Returns each call's duration.
    fn control(&mut self, instruments: Option<&Arc<Instruments>>) -> Result<Vec<u64>, String> {
        let mut durations = Vec::with_capacity(2);
        let start = now_ns();
        let sink = LaneSink {
            lane: self.lanes[self.churn_count % LANES].clone(),
            exact: 1,
            near_miss: 0,
            log: Arc::clone(&self.churn),
        };
        let id = self
            .engine
            .register_unit(
                UnitSpec::new(format!("churn-{}", self.churn_count)),
                boxed(sink, Kind::Sink, instruments),
            )
            .map_err(|err| format!("registering a churned sink: {err}"))?;
        self.churn_count += 1;
        self.churned.push_back(id);
        let registered = now_ns();
        durations.push(registered - start);
        if self.churned.len() > CHURN_ALIVE {
            let oldest = self.churned.pop_front().expect("non-empty");
            self.engine
                .remove_unit(oldest)
                .map_err(|err| format!("removing a churned sink: {err}"))?;
            durations.push(now_ns() - registered);
        }
        Ok(durations)
    }
}

pub fn run(
    run: &RunCfg,
    measure: Duration,
    instruments: Option<&Arc<Instruments>>,
) -> Result<Pass, String> {
    pass::sub_runs(run, SUB_RUNS, measure, |index, _, share| {
        run_once(run, pass::sub_run_seed(run.seed, index), share, instruments)
    })
}

fn run_once(
    run: &RunCfg,
    seed: u64,
    measure: Duration,
    instruments: Option<&Arc<Instruments>>,
) -> Result<Pass, String> {
    let (mut deployment, mut pass) = pass::timed_setup(|| setup(run, seed, instruments))?;
    pass.notes.push(format!(
        "config: mode={} workers={} batch_size={} lanes={LANES} subscriptions={} burst={BURST} window={WINDOW} control_every={CONTROL_EVERY} cores={}",
        deployment.engine.mode().figure_label(),
        deployment.handle.worker_count(),
        deployment.engine.configured_batch_size(),
        deployment.engine.subscription_count(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    ));
    deployment.base.take_latencies();
    let deliveries_before = deployment.base.deliveries();
    let busy_before = instruments.map_or(0, |i| i.busy_ns());
    let (mut gen_ns, mut publish_ns, mut wait_ns, mut events) = (0u64, 0u64, 0u64, 0u64);
    let mut control_ns = Vec::new();
    let (mut steady_ns, mut after_control_ns) = (Vec::new(), Vec::new());
    let mut follows_control = false;
    let mut phase = Phase::begin(&deployment.engine, measure, SLICE_EVENTS);
    loop {
        let sampled = instruments.and_then(|i| i.tracer.batch(events / BURST as u64, now_ns()));
        let [start, generated, published, room] = deployment.burst()?;
        events += BURST as u64;
        gen_ns += generated - start;
        publish_ns += published - generated;
        wait_ns += room - published;
        if follows_control {
            after_control_ns.push(room - start);
        } else {
            steady_ns.push(room - start);
        }
        phase.slices.add(BURST as u64, room);
        phase.sample_queue(&deployment.engine);
        follows_control = events.is_multiple_of(CONTROL_EVERY);
        let mut end = room;
        let mut control_span = None;
        if follows_control {
            control_ns.extend(deployment.control(instruments)?);
            end = now_ns();
            control_span = Some((room, end));
        }
        if let Some(mut batch) = sampled {
            batch.child("gen", start, generated);
            batch.child("publish", generated, published);
            if let Some((from, to)) = control_span {
                batch.child("control", from, to);
            }
            batch.open_drain(published);
            batch.finish(end);
        }
        if end >= phase.deadline_ns {
            break;
        }
    }
    deployment.drain()?;
    phase.end(&deployment.engine, events, &mut pass);
    pass.attempted = events;

    // Exact delivery: every event reaches each always-matching subscription
    // of its lane once, whatever the churned sinks were doing meanwhile.
    let delivered = deployment.base.deliveries() - deliveries_before;
    let expected = events * deployment.exact_per_lane as u64;
    pass.check(delivered == expected, || {
        format!("lane sinks saw {delivered} deliveries, expected {expected}")
    });
    if delivered < expected {
        pass.failed = (expected - delivered).div_ceil(deployment.exact_per_lane as u64);
    }
    pass.slice_latencies = latency_slices(&deployment.base.take_latencies());

    let per_event = |total: u64| total as f64 / events as f64;
    pass.cells.extend([
        ("workload.gen_ns_per_event", per_event(gen_ns)),
        ("core.publish_ns_per_event", per_event(publish_ns)),
        ("workload.achieved_rate_eps", pass.events_per_s()),
        ("core.control_op_ns", median_ns(&control_ns)),
        (
            "core.epoch_bump_penalty_us",
            (median_ns(&after_control_ns) - median_ns(&steady_ns)) / 1e3,
        ),
    ]);
    if let Some(instruments) = instruments {
        let busy_ns = instruments.busy_ns() - busy_before;
        pass.cells.push((
            "core.dispatch_self_ns_per_event",
            per_event(wait_ns.saturating_sub(busy_ns)),
        ));
        crate::micro::lane_cells(
            &deployment.engine,
            &deployment.sinks,
            &deployment.lanes,
            instruments,
            &mut pass.cells,
        );
    }
    pass.notes.push(format!(
        "control operations: {} calls timed; churned sinks saw {} deliveries",
        control_ns.len(),
        deployment.churn.deliveries()
    ));
    Ok(pass)
}
