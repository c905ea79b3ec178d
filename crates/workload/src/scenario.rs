//! Scenario-driven load replay through a live engine.
//!
//! The static generators in this crate ([`TickGenerator`](crate::TickGenerator),
//! [`ZipfSampler`]) produce *traces*; this module turns traces into *load
//! shapes*. A [`Scenario`] describes an arrival process as a sequence of
//! [`Burst`]s — how many events, on which lanes, after what pause — and a
//! [`ScenarioDriver`] replays it through a running engine's typed publisher,
//! measuring what the engine actually absorbed. The point (made for
//! distributed protocols by the PBFT-practicality literature, and just as true
//! for an in-process event engine) is that a throughput claim only holds up
//! under adversarial, varied workloads: Zipf-skewed hot keys, bursty
//! open/close arrival, slow-consumer backpressure and mixed batch sizes stress
//! different parts of the dispatch path than a uniform firehose does.
//!
//! Scenarios are deterministic: every shape is either round-robin or driven by
//! a seeded sampler, so two replays of the same scenario publish the same
//! events in the same bursts.
//!
//! ```no_run
//! use defcon_core::{auto_worker_count, Engine, UnitSpec};
//! use defcon_core::unit::NullUnit;
//! use defcon_workload::scenario::{CountingSink, ScenarioDriver, ZipfLanes};
//!
//! let engine = Engine::builder().workers(auto_worker_count()).build();
//! let (sink, received) = CountingSink::new(ZipfLanes::lane_name(0));
//! engine.register_unit(UnitSpec::new("sink-0"), Box::new(sink)).unwrap();
//! let source = engine.register_unit(UnitSpec::new("feed"), Box::new(NullUnit)).unwrap();
//! let handle = engine.start();
//!
//! let mut scenario = ZipfLanes::new(1, 1.0, 32, 10_000, 42);
//! let driver = ScenarioDriver::new(&handle, source).unwrap();
//! let outcome = driver.run(&mut scenario);
//! assert!(outcome.completed && outcome.drained);
//! assert_eq!(received.load(std::sync::atomic::Ordering::Relaxed), outcome.published);
//! handle.shutdown().unwrap();
//! ```

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use defcon_core::{EngineHandle, EngineResult, EventDraft, Publisher, Unit, UnitContext, UnitId};
use defcon_durability::{Trace, TraceBurst, TraceWriter};
use defcon_events::{now_ns, Event, Filter, Value};
use defcon_metrics::LatencyHistogram;

use crate::zipf::ZipfSampler;

/// One step of a scenario's arrival process: a chunk of drafts the driver
/// publishes as a single batch, optionally after a pause (the "market closed"
/// gap of a bursty shape). A pause of zero means back-to-back arrival.
#[derive(Debug)]
pub struct Burst {
    /// The events of this burst, published in order via one `publish_batch`.
    pub drafts: Vec<EventDraft>,
    /// Idle time the driver honours *before* publishing the burst.
    pub pause: Duration,
}

impl Burst {
    /// A burst with no preceding pause.
    pub fn immediate(drafts: Vec<EventDraft>) -> Self {
        Burst {
            drafts,
            pause: Duration::ZERO,
        }
    }
}

/// A replayable load shape: a deterministic sequence of [`Burst`]s over a set
/// of numbered lanes (`lane-0`, `lane-1`, ... — see [`Scenario::lane_count`]),
/// driven through an engine by a [`ScenarioDriver`].
pub trait Scenario {
    /// Short identifier used in reports (`"zipf"`, `"bursty"`, ...).
    fn name(&self) -> &'static str;

    /// Number of distinct lanes this scenario publishes on; a harness registers
    /// one subscriber per lane (see [`CountingSink`]).
    fn lane_count(&self) -> usize;

    /// Total events the scenario emits over its whole life.
    fn total_events(&self) -> u64;

    /// The next burst, or `None` once the scenario is exhausted.
    fn next_burst(&mut self) -> Option<Burst>;
}

/// Builds the draft for one scenario event: a `type` part carrying the lane
/// name (what sinks filter on) and a `seq` part for debugging.
pub fn lane_draft(lane: usize, sequence: u64) -> EventDraft {
    EventDraft::new()
        .public_part("type", Value::str(lane_name(lane)))
        .public_part("seq", Value::Int(sequence as i64))
}

/// The subscriber lane name for lane index `lane` — what a [`CountingSink`]
/// for that lane filters on, whatever the scenario shape.
pub fn lane_name(lane: usize) -> String {
    format!("lane-{lane}")
}

/// Emits the next chunk of up to `size` drafts for a scenario that has
/// emitted `*emitted` of `total` events so far, choosing each draft's lane
/// via `lane` (called with the event's sequence number) — the shared
/// chunking step behind every shape's `next_burst`.
fn chunk_drafts(
    emitted: &mut u64,
    total: u64,
    size: usize,
    mut lane: impl FnMut(u64) -> usize,
) -> Vec<EventDraft> {
    let take = (size.max(1) as u64).min(total - *emitted) as usize;
    (0..take)
        .map(|_| {
            let draft = lane_draft(lane(*emitted), *emitted);
            *emitted += 1;
            draft
        })
        .collect()
}

/// Zipf-skewed lane popularity: a few hot lanes receive most of the traffic
/// (the §6.2 observation that most traders monitor the same few pairs). Hot
/// lanes concentrate per-unit serialisation on a handful of unit locks, the
/// worst case for multi-worker dispatch.
#[derive(Debug)]
pub struct ZipfLanes {
    sampler: ZipfSampler,
    lanes: usize,
    burst: usize,
    total: u64,
    emitted: u64,
}

impl ZipfLanes {
    /// A scenario of `events` events over `lanes` lanes with Zipf(`exponent`)
    /// popularity, published in bursts of `burst`, deterministic per `seed`.
    pub fn new(lanes: usize, exponent: f64, burst: usize, events: u64, seed: u64) -> Self {
        ZipfLanes {
            sampler: ZipfSampler::new(lanes.max(1), exponent, seed),
            lanes: lanes.max(1),
            burst: burst.max(1),
            total: events,
            emitted: 0,
        }
    }

    /// The subscriber lane name for lane index `lane` (alias for the
    /// module-level [`lane_name`], kept for call sites already naming the
    /// scenario type).
    pub fn lane_name(lane: usize) -> String {
        lane_name(lane)
    }
}

impl Scenario for ZipfLanes {
    fn name(&self) -> &'static str {
        "zipf"
    }

    fn lane_count(&self) -> usize {
        self.lanes
    }

    fn total_events(&self) -> u64 {
        self.total
    }

    fn next_burst(&mut self) -> Option<Burst> {
        if self.emitted >= self.total {
            return None;
        }
        let sampler = &mut self.sampler;
        Some(Burst::immediate(chunk_drafts(
            &mut self.emitted,
            self.total,
            self.burst,
            |_| sampler.sample(),
        )))
    }
}

/// Bursty open/close arrival: the market "opens" with a dense burst, then
/// "closes" to a trickle behind a pause, and repeats. Exercises the wakeup
/// path (workers park during the close, must be woken by the open burst) and
/// queue-depth swings that steady arrival never produces.
#[derive(Debug)]
pub struct BurstyOpenClose {
    lanes: usize,
    open_burst: usize,
    closed_trickle: usize,
    pause: Duration,
    total: u64,
    emitted: u64,
    open: bool,
}

impl BurstyOpenClose {
    /// Alternates bursts of `open_burst` events with `closed_trickle`-event
    /// trickles preceded by `pause`, round-robin over `lanes` lanes, until
    /// `events` events have been emitted.
    pub fn new(
        lanes: usize,
        open_burst: usize,
        closed_trickle: usize,
        pause: Duration,
        events: u64,
    ) -> Self {
        BurstyOpenClose {
            lanes: lanes.max(1),
            open_burst: open_burst.max(1),
            closed_trickle: closed_trickle.max(1),
            pause,
            total: events,
            emitted: 0,
            open: true,
        }
    }
}

impl Scenario for BurstyOpenClose {
    fn name(&self) -> &'static str {
        "bursty"
    }

    fn lane_count(&self) -> usize {
        self.lanes
    }

    fn total_events(&self) -> u64 {
        self.total
    }

    fn next_burst(&mut self) -> Option<Burst> {
        if self.emitted >= self.total {
            return None;
        }
        let (size, pause) = if self.open {
            (self.open_burst, Duration::ZERO)
        } else {
            (self.closed_trickle, self.pause)
        };
        self.open = !self.open;
        let lanes = self.lanes;
        let drafts = chunk_drafts(&mut self.emitted, self.total, size, |seq| {
            seq as usize % lanes
        });
        Some(Burst { drafts, pause })
    }
}

/// A steady flood aimed at a single lane whose subscriber is deliberately slow
/// (a [`CountingSink`] with a per-event delay): the queue grows while the
/// consumer lags, and the engine must absorb the backlog without losing or
/// duplicating events. Pair with [`ScenarioOutcome::peak_queue_depth`] to see
/// the backpressure actually build.
#[derive(Debug)]
pub struct SlowConsumerFlood {
    burst: usize,
    total: u64,
    emitted: u64,
}

impl SlowConsumerFlood {
    /// Floods lane 0 with `events` events in bursts of `burst`.
    pub fn new(burst: usize, events: u64) -> Self {
        SlowConsumerFlood {
            burst: burst.max(1),
            total: events,
            emitted: 0,
        }
    }
}

impl Scenario for SlowConsumerFlood {
    fn name(&self) -> &'static str {
        "slow-consumer"
    }

    fn lane_count(&self) -> usize {
        1
    }

    fn total_events(&self) -> u64 {
        self.total
    }

    fn next_burst(&mut self) -> Option<Burst> {
        if self.emitted >= self.total {
            return None;
        }
        Some(Burst::immediate(chunk_drafts(
            &mut self.emitted,
            self.total,
            self.burst,
            |_| 0,
        )))
    }
}

/// An admission-tier stressor: every burst is larger than any sensible
/// per-session credit window, aimed at slow lanes, with no pauses — so a
/// credit-gated ingress tier is forced to stall (Block) or shed (ShedNewest /
/// ShedOldest) on nearly every submission while the windows refill. Bursts
/// cycle round-robin over the lanes, which the ingress scenario driver maps
/// onto distinct publisher sessions; a direct [`ScenarioDriver`] replay
/// degenerates into a plain multi-lane flood.
#[derive(Debug)]
pub struct CreditStorm {
    lanes: usize,
    burst: usize,
    total: u64,
    emitted: u64,
    cursor: u64,
}

impl CreditStorm {
    /// `events` events in bursts of `burst` (clamped to at least 1), each
    /// burst wholly on one of `lanes` lanes, cycling.
    pub fn new(lanes: usize, burst: usize, events: u64) -> Self {
        CreditStorm {
            lanes: lanes.max(1),
            burst: burst.max(1),
            total: events,
            emitted: 0,
            cursor: 0,
        }
    }
}

impl Scenario for CreditStorm {
    fn name(&self) -> &'static str {
        "credit-storm"
    }

    fn lane_count(&self) -> usize {
        self.lanes
    }

    fn total_events(&self) -> u64 {
        self.total
    }

    fn next_burst(&mut self) -> Option<Burst> {
        if self.emitted >= self.total {
            return None;
        }
        let lane = (self.cursor as usize) % self.lanes;
        self.cursor += 1;
        Some(Burst::immediate(chunk_drafts(
            &mut self.emitted,
            self.total,
            self.burst,
            |_| lane,
        )))
    }
}

/// The hot-replacement stressor: a steady single-lane flood aimed at a
/// subscriber that is *expected to fail* — the harness registers a
/// [`CountingSink`] with [`CountingSink::with_fault_every`] under an engine
/// [`FaultPolicy`](defcon_core::FaultPolicy), so mid-replay the policy trips
/// and hot-swaps the sink to its standby while bursts keep arriving. The
/// arrival shape itself is deliberately plain (the adversarial part is the
/// panicking consumer, not the arrival process): what the bench row measures
/// is that replacement under load loses no admitted event.
#[derive(Debug)]
pub struct FaultSwap {
    burst: usize,
    total: u64,
    emitted: u64,
}

impl FaultSwap {
    /// Floods lane 0 with `events` events in bursts of `burst`.
    pub fn new(burst: usize, events: u64) -> Self {
        FaultSwap {
            burst: burst.max(1),
            total: events,
            emitted: 0,
        }
    }
}

impl Scenario for FaultSwap {
    fn name(&self) -> &'static str {
        "fault-swap"
    }

    fn lane_count(&self) -> usize {
        1
    }

    fn total_events(&self) -> u64 {
        self.total
    }

    fn next_burst(&mut self) -> Option<Burst> {
        if self.emitted >= self.total {
            return None;
        }
        Some(Burst::immediate(chunk_drafts(
            &mut self.emitted,
            self.total,
            self.burst,
            |_| 0,
        )))
    }
}

/// The fan-out stressor: a plain round-robin flood whose adversarial part is
/// the *subscriber population*, not the arrival process. The harness
/// registers [`FanOutBurst::subscribers_per_lane`] subscriptions on every
/// lane — conventionally half exact lane matches and half near-misses that
/// name the lane but fail a second clause — so each published event must be
/// planned against [`FanOutBurst::registered_subscriptions`] filters in
/// total. What the bench row measures is planning cost at fan-out scale: the
/// subscription index resolves an event to one lane's candidate list, while
/// the linear scan evaluates the whole population per event.
#[derive(Debug)]
pub struct FanOutBurst {
    lanes: usize,
    subscribers_per_lane: usize,
    burst: usize,
    total: u64,
    emitted: u64,
}

impl FanOutBurst {
    /// `events` events round-robin over `lanes` lanes in bursts of `burst`,
    /// advertising `subscribers_per_lane` subscriptions per lane for the
    /// harness to register.
    pub fn new(lanes: usize, subscribers_per_lane: usize, burst: usize, events: u64) -> Self {
        FanOutBurst {
            lanes: lanes.max(1),
            subscribers_per_lane: subscribers_per_lane.max(1),
            burst: burst.max(1),
            total: events,
            emitted: 0,
        }
    }

    /// Subscriptions the harness should register on each lane.
    pub fn subscribers_per_lane(&self) -> usize {
        self.subscribers_per_lane
    }

    /// The whole advertised subscription population
    /// (`lanes × subscribers_per_lane`) — what every event is planned
    /// against on the linear path.
    pub fn registered_subscriptions(&self) -> usize {
        self.lanes * self.subscribers_per_lane
    }
}

impl Scenario for FanOutBurst {
    fn name(&self) -> &'static str {
        "fan-out"
    }

    fn lane_count(&self) -> usize {
        self.lanes
    }

    fn total_events(&self) -> u64 {
        self.total
    }

    fn next_burst(&mut self) -> Option<Burst> {
        if self.emitted >= self.total {
            return None;
        }
        let lanes = self.lanes;
        Some(Burst::immediate(chunk_drafts(
            &mut self.emitted,
            self.total,
            self.burst,
            |seq| seq as usize % lanes,
        )))
    }
}

/// Cycles through a set of burst sizes (1, 8, 64 by default): single events
/// interleaved with medium and large batches, round-robin over the lanes.
/// Exercises the queue's mixed single/batched enqueue paths and dispatchers
/// whose configured batch size rarely matches the arriving run length.
#[derive(Debug)]
pub struct MixedBatches {
    lanes: usize,
    sizes: Vec<usize>,
    cursor: usize,
    total: u64,
    emitted: u64,
}

impl MixedBatches {
    /// Cycles `sizes` burst sizes over `lanes` lanes until `events` events have
    /// been emitted. An empty `sizes` defaults to `[1, 8, 64]`.
    pub fn new(lanes: usize, sizes: Vec<usize>, events: u64) -> Self {
        let sizes = if sizes.is_empty() {
            vec![1, 8, 64]
        } else {
            sizes
        };
        MixedBatches {
            lanes: lanes.max(1),
            sizes: sizes.into_iter().map(|s| s.max(1)).collect(),
            cursor: 0,
            total: events,
            emitted: 0,
        }
    }
}

impl Scenario for MixedBatches {
    fn name(&self) -> &'static str {
        "mixed-batches"
    }

    fn lane_count(&self) -> usize {
        self.lanes
    }

    fn total_events(&self) -> u64 {
        self.total
    }

    fn next_burst(&mut self) -> Option<Burst> {
        if self.emitted >= self.total {
            return None;
        }
        let size = self.sizes[self.cursor % self.sizes.len()];
        self.cursor += 1;
        let lanes = self.lanes;
        Some(Burst::immediate(chunk_drafts(
            &mut self.emitted,
            self.total,
            size,
            |seq| seq as usize % lanes,
        )))
    }
}

/// A lane subscriber for scenario harnesses: counts deliveries, optionally
/// records publish-to-delivery latency, and optionally sleeps per event (the
/// slow consumer of [`SlowConsumerFlood`]).
pub struct CountingSink {
    lane: String,
    received: Arc<AtomicU64>,
    latency: Option<Arc<LatencyHistogram>>,
    delay: Duration,
    fault_every: u64,
    deliveries: u64,
}

impl CountingSink {
    /// A sink subscribed to `lane`, returning the shared delivery counter.
    pub fn new(lane: impl Into<String>) -> (Self, Arc<AtomicU64>) {
        let received = Arc::new(AtomicU64::new(0));
        (
            CountingSink {
                lane: lane.into(),
                received: Arc::clone(&received),
                latency: None,
                delay: Duration::ZERO,
                fault_every: 0,
                deliveries: 0,
            },
            received,
        )
    }

    /// Records each delivery's publish-to-delivery latency into `histogram`.
    pub fn with_latency(mut self, histogram: Arc<LatencyHistogram>) -> Self {
        self.latency = Some(histogram);
        self
    }

    /// Sleeps `delay` per delivery, making this the slow consumer.
    pub fn with_delay(mut self, delay: Duration) -> Self {
        self.delay = delay;
        self
    }

    /// Panics on every `every`-th delivery (`0` = never, the default) —
    /// deterministic fault injection for the [`FaultSwap`] harness. Panicked
    /// deliveries count nothing: no latency sample, no received increment.
    pub fn with_fault_every(mut self, every: u64) -> Self {
        self.fault_every = every;
        self
    }
}

impl Unit for CountingSink {
    fn init(&mut self, ctx: &mut UnitContext<'_>) -> EngineResult<()> {
        ctx.subscribe(Filter::for_type(&self.lane))?;
        Ok(())
    }

    fn on_event(&mut self, _ctx: &mut UnitContext<'_>, event: &Event) -> EngineResult<()> {
        self.deliveries += 1;
        if self.fault_every > 0 && self.deliveries.is_multiple_of(self.fault_every) {
            panic!("injected sink fault on delivery {}", self.deliveries);
        }
        if let Some(latency) = &self.latency {
            latency.record(now_ns().saturating_sub(event.origin_ns()));
        }
        if !self.delay.is_zero() {
            std::thread::sleep(self.delay);
        }
        self.received.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

/// What a replay actually did — the driver-side half of a scenario
/// measurement (subscriber-side counts come from the harness's sinks).
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// The scenario's [`Scenario::name`].
    pub scenario: String,
    /// Bursts the driver published (or attempted).
    pub bursts: u64,
    /// Events the engine accepted — each will be dispatched exactly once.
    pub published: u64,
    /// Events rejected because the runtime had shut down. Rejections are loud
    /// (`publish_batch` errors); the driver records them and stops replaying.
    pub rejected: u64,
    /// Events shed by an admission policy (always 0 for the direct driver:
    /// only the credit-gated ingress driver publishes under a shed policy).
    pub shed: u64,
    /// Credit-window stalls the replay absorbed (always 0 for the direct
    /// driver, which publishes on the unbounded blocking path).
    pub credit_waits: u64,
    /// `true` when the scenario ran to exhaustion without any rejection.
    pub completed: bool,
    /// `true` when the engine reached idle after the replay (always `false`
    /// for a [`ScenarioDriver::detached`] driver, which never waits).
    pub drained: bool,
    /// Highest queue depth observed between bursts (0 for detached drivers):
    /// how far the backlog built before consumers caught up.
    pub peak_queue_depth: usize,
    /// Wall-clock time from the first burst to the end of the drain.
    pub elapsed: Duration,
}

impl ScenarioOutcome {
    /// Accepted events per second of replay (publish through drain).
    pub fn throughput_eps(&self) -> f64 {
        if self.elapsed.as_secs_f64() > 0.0 {
            self.published as f64 / self.elapsed.as_secs_f64()
        } else {
            0.0
        }
    }
}

/// Replays [`Scenario`]s through a running engine as one publishing unit.
///
/// A handle-attached driver ([`ScenarioDriver::new`]) samples queue depth
/// between bursts and waits for the engine to drain after the replay; a
/// [`ScenarioDriver::detached`] driver owns only a [`Publisher`] (which is
/// `Send`), so it can replay from a spawned thread while another thread shuts
/// the engine down — the mid-burst-shutdown harness.
pub struct ScenarioDriver<'a> {
    publisher: Publisher,
    handle: Option<&'a EngineHandle>,
}

impl<'a> ScenarioDriver<'a> {
    /// A driver publishing as `source` through `handle`'s engine.
    pub fn new(handle: &'a EngineHandle, source: UnitId) -> EngineResult<Self> {
        Ok(ScenarioDriver {
            publisher: handle.publisher(source)?,
            handle: Some(handle),
        })
    }

    /// A driver over a bare publisher: never samples queue depth, never waits
    /// for a drain. Use when the replay runs on its own thread.
    pub fn detached(publisher: Publisher) -> ScenarioDriver<'static> {
        ScenarioDriver {
            publisher,
            handle: None,
        }
    }

    /// Replays `scenario` to exhaustion (or until the runtime rejects a burst
    /// because it shut down), then — for handle-attached drivers — waits for
    /// the engine to drain everything it accepted.
    pub fn run(&self, scenario: &mut dyn Scenario) -> ScenarioOutcome {
        self.drive(scenario, &mut |_| Ok(()))
            .expect("the no-op tap never fails")
    }

    /// Runs `scenario` exactly like [`ScenarioDriver::run`] while recording
    /// every burst — batch boundaries, inter-burst pauses and each draft's
    /// parts verbatim — into a [`Trace`] file at `path`. Replaying the file
    /// (via [`ReplayTrace`]) reproduces the captured arrival process
    /// byte-for-byte.
    pub fn record(
        &self,
        scenario: &mut dyn Scenario,
        path: &Path,
    ) -> std::io::Result<ScenarioOutcome> {
        let mut writer = TraceWriter::create(path, scenario.lane_count())?;
        let outcome = self.drive(scenario, &mut |burst| {
            writer.append(&TraceBurst {
                pause_ns: burst.pause.as_nanos() as u64,
                drafts: burst
                    .drafts
                    .iter()
                    .map(|draft| draft.parts().to_vec())
                    .collect(),
            })
        })?;
        writer.finish()?;
        Ok(outcome)
    }

    /// The shared replay loop: `tap` observes each burst just before it is
    /// published (the trace recorder); a tap failure aborts the replay.
    fn drive(
        &self,
        scenario: &mut dyn Scenario,
        tap: &mut dyn FnMut(&Burst) -> std::io::Result<()>,
    ) -> std::io::Result<ScenarioOutcome> {
        let start = Instant::now();
        let mut outcome = ScenarioOutcome {
            scenario: scenario.name().to_string(),
            bursts: 0,
            published: 0,
            rejected: 0,
            shed: 0,
            credit_waits: 0,
            completed: false,
            drained: false,
            peak_queue_depth: 0,
            elapsed: Duration::ZERO,
        };
        loop {
            let Some(burst) = scenario.next_burst() else {
                outcome.completed = outcome.rejected == 0;
                break;
            };
            tap(&burst)?;
            if !burst.pause.is_zero() {
                std::thread::sleep(burst.pause);
            }
            let attempted = burst.drafts.len() as u64;
            outcome.bursts += 1;
            match self.publisher.publish_batch(burst.drafts) {
                Ok(admission) => {
                    outcome.published += admission.accepted() as u64;
                    // A batch racing shutdown may be partially accepted; the
                    // rejected remainder ends the replay like a full error.
                    if admission.shed() > 0 {
                        outcome.rejected += admission.shed() as u64;
                        break;
                    }
                }
                Err(_) => {
                    outcome.rejected += attempted;
                    break;
                }
            }
            if let Some(handle) = self.handle {
                outcome.peak_queue_depth =
                    outcome.peak_queue_depth.max(handle.engine().queue_depth());
            }
        }
        if let Some(handle) = self.handle {
            outcome.drained = if handle.worker_count() == 0 {
                handle.pump_until_idle().is_ok()
            } else {
                handle.wait_idle(Duration::from_secs(120))
            };
        }
        outcome.elapsed = start.elapsed();
        Ok(outcome)
    }
}

/// A [`Scenario`] replaying a recorded arrival [`Trace`] byte-for-byte: the
/// same batch boundaries, the same inter-burst pauses, the same draft parts
/// (labels are re-raised and ids re-minted at publish, as on the original
/// run). Because dispatch is deterministic for a fixed engine configuration,
/// two replays of one trace produce identical dispatched and delivered
/// counts — the noise-free A/B baseline for hot-path changes.
#[derive(Debug, Clone)]
pub struct ReplayTrace {
    trace: Trace,
    cursor: usize,
}

impl ReplayTrace {
    /// Loads a trace file recorded by [`ScenarioDriver::record`]. A torn file
    /// (recording crashed mid-burst) is an error.
    pub fn load(path: &Path) -> std::io::Result<Self> {
        Ok(ReplayTrace::from_trace(Trace::load(path)?))
    }

    /// Wraps an already-loaded trace.
    pub fn from_trace(trace: Trace) -> Self {
        ReplayTrace { trace, cursor: 0 }
    }

    /// Rewinds to the first burst so the same loaded trace can replay again.
    pub fn rewind(&mut self) {
        self.cursor = 0;
    }

    /// The underlying trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }
}

impl Scenario for ReplayTrace {
    fn name(&self) -> &'static str {
        "replay"
    }

    fn lane_count(&self) -> usize {
        self.trace.lane_count
    }

    fn total_events(&self) -> u64 {
        self.trace.total_events()
    }

    fn next_burst(&mut self) -> Option<Burst> {
        let recorded = self.trace.bursts.get(self.cursor)?;
        self.cursor += 1;
        Some(Burst {
            pause: Duration::from_nanos(recorded.pause_ns),
            drafts: recorded
                .drafts
                .iter()
                .map(|parts| EventDraft::from_parts(parts.clone()))
                .collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(scenario: &mut dyn Scenario) -> (u64, u64, Vec<usize>) {
        let mut events = 0;
        let mut bursts = 0;
        let mut sizes = Vec::new();
        while let Some(burst) = scenario.next_burst() {
            bursts += 1;
            events += burst.drafts.len() as u64;
            sizes.push(burst.drafts.len());
        }
        (events, bursts, sizes)
    }

    #[test]
    fn zipf_scenario_emits_exactly_total_events_in_burst_chunks() {
        let mut scenario = ZipfLanes::new(8, 1.0, 32, 1_000, 7);
        assert_eq!(scenario.lane_count(), 8);
        let (events, bursts, sizes) = drain(&mut scenario);
        assert_eq!(events, 1_000);
        assert_eq!(bursts, 1_000_u64.div_ceil(32));
        assert!(sizes[..sizes.len() - 1].iter().all(|&s| s == 32));
        assert!(
            scenario.next_burst().is_none(),
            "exhausted scenarios stay exhausted"
        );
    }

    #[test]
    fn zipf_scenario_is_deterministic_per_seed() {
        let lanes_of = |seed: u64| -> Vec<String> {
            let mut scenario = ZipfLanes::new(6, 1.2, 16, 200, seed);
            let mut lanes = Vec::new();
            while let Some(burst) = scenario.next_burst() {
                lanes.extend(burst.drafts.iter().map(|d| format!("{d:?}")));
            }
            lanes
        };
        assert_eq!(lanes_of(42), lanes_of(42));
        assert_ne!(lanes_of(42), lanes_of(43));
    }

    #[test]
    fn bursty_scenario_alternates_pauses() {
        let pause = Duration::from_millis(3);
        let mut scenario = BurstyOpenClose::new(4, 50, 2, pause, 200);
        let mut pauses = Vec::new();
        let mut events = 0;
        while let Some(burst) = scenario.next_burst() {
            pauses.push(burst.pause);
            events += burst.drafts.len() as u64;
        }
        assert_eq!(events, 200);
        assert!(
            pauses.iter().step_by(2).all(|p| p.is_zero()),
            "open bursts are immediate"
        );
        assert!(
            pauses.iter().skip(1).step_by(2).all(|p| *p == pause),
            "closed trickles wait out the pause"
        );
    }

    #[test]
    fn mixed_batches_cycle_the_configured_sizes() {
        let mut scenario = MixedBatches::new(2, vec![], 2 * (1 + 8 + 64));
        let (events, _, sizes) = drain(&mut scenario);
        assert_eq!(events, 2 * (1 + 8 + 64));
        assert_eq!(sizes, vec![1, 8, 64, 1, 8, 64]);
    }

    #[test]
    fn record_then_replay_reproduces_bursts_and_deliveries() {
        use defcon_core::unit::NullUnit;
        use defcon_core::{Engine, UnitSpec};

        let dir =
            std::env::temp_dir().join(format!("defcon-scenario-trace-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mixed.trace");

        let run = |scenario: &mut dyn Scenario,
                   record_to: Option<&Path>|
         -> (ScenarioOutcome, Vec<u64>) {
            let engine = Engine::builder().build();
            let lanes = scenario.lane_count();
            let counters: Vec<_> = (0..lanes)
                .map(|lane| {
                    let (sink, received) = CountingSink::new(lane_name(lane));
                    engine
                        .register_unit(UnitSpec::new(format!("sink-{lane}")), Box::new(sink))
                        .unwrap();
                    received
                })
                .collect();
            let source = engine
                .register_unit(UnitSpec::new("feed"), Box::new(NullUnit))
                .unwrap();
            let handle = engine.start();
            let driver = ScenarioDriver::new(&handle, source).unwrap();
            let outcome = match record_to {
                Some(path) => driver.record(scenario, path).unwrap(),
                None => driver.run(scenario),
            };
            handle.shutdown().unwrap();
            let per_lane = counters.iter().map(|c| c.load(Ordering::Relaxed)).collect();
            (outcome, per_lane)
        };

        let mut original = MixedBatches::new(3, vec![2, 5], 40);
        let (recorded_outcome, recorded_lanes) = run(&mut original, Some(&path));
        assert!(recorded_outcome.completed && recorded_outcome.drained);
        assert_eq!(recorded_outcome.published, 40);

        let mut replay = ReplayTrace::load(&path).unwrap();
        assert_eq!(replay.lane_count(), 3);
        assert_eq!(replay.total_events(), 40);
        let (replay_outcome, replay_lanes) = run(&mut replay, None);
        assert_eq!(replay_outcome.bursts, recorded_outcome.bursts);
        assert_eq!(replay_outcome.published, recorded_outcome.published);
        assert_eq!(replay_lanes, recorded_lanes, "same per-lane deliveries");

        // The same loaded trace replays again after a rewind.
        assert!(replay.next_burst().is_none());
        replay.rewind();
        let (again, again_lanes) = run(&mut replay, None);
        assert_eq!(again.published, 40);
        assert_eq!(again_lanes, replay_lanes);
    }

    #[test]
    fn replay_preserves_recorded_pauses() {
        let dir =
            std::env::temp_dir().join(format!("defcon-scenario-pause-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bursty.trace");

        let pause = Duration::from_millis(2);
        let engine = defcon_core::Engine::builder().build();
        let source = engine
            .register_unit(
                defcon_core::UnitSpec::new("feed"),
                Box::new(defcon_core::unit::NullUnit),
            )
            .unwrap();
        let handle = engine.start();
        let driver = ScenarioDriver::new(&handle, source).unwrap();
        let mut scenario = BurstyOpenClose::new(2, 10, 2, pause, 48);
        driver.record(&mut scenario, &path).unwrap();
        handle.shutdown().unwrap();

        let mut replay = ReplayTrace::load(&path).unwrap();
        let mut pauses = Vec::new();
        while let Some(burst) = replay.next_burst() {
            pauses.push(burst.pause);
        }
        assert!(pauses.iter().step_by(2).all(|p| p.is_zero()));
        assert!(pauses.iter().skip(1).step_by(2).all(|p| *p == pause));
    }

    #[test]
    fn slow_consumer_flood_targets_one_lane() {
        let mut scenario = SlowConsumerFlood::new(25, 100);
        assert_eq!(scenario.lane_count(), 1);
        let (events, bursts, _) = drain(&mut scenario);
        assert_eq!(events, 100);
        assert_eq!(bursts, 4);
    }

    #[test]
    fn fault_swap_floods_one_lane_in_whole_bursts() {
        let mut scenario = FaultSwap::new(32, 100);
        assert_eq!(scenario.lane_count(), 1);
        assert_eq!(scenario.total_events(), 100);
        let (events, bursts, sizes) = drain(&mut scenario);
        assert_eq!(events, 100);
        assert_eq!(bursts, 4);
        assert_eq!(sizes, vec![32, 32, 32, 4]);
    }

    #[test]
    fn fan_out_burst_round_robins_lanes_and_advertises_its_population() {
        let mut scenario = FanOutBurst::new(20, 500, 64, 1_000);
        assert_eq!(scenario.lane_count(), 20);
        assert_eq!(scenario.subscribers_per_lane(), 500);
        assert_eq!(scenario.registered_subscriptions(), 10_000);
        let (events, bursts, sizes) = drain(&mut scenario);
        assert_eq!(events, 1_000);
        assert_eq!(bursts, 1_000_u64.div_ceil(64));
        assert!(sizes[..sizes.len() - 1].iter().all(|&s| s == 64));
        assert!(scenario.next_burst().is_none());
    }

    #[test]
    fn credit_storm_cycles_whole_bursts_over_lanes() {
        let mut scenario = CreditStorm::new(3, 40, 210);
        assert_eq!(scenario.lane_count(), 3);
        let (events, bursts, sizes) = drain(&mut scenario);
        assert_eq!(events, 210);
        assert_eq!(bursts, 6);
        assert!(
            sizes[..5].iter().all(|&s| s == 40),
            "whole bursts: {sizes:?}"
        );
        assert_eq!(sizes[5], 10, "the tail burst carries the remainder");
    }
}
