//! Harness-owned units: the sinks and probes through which the benchmark
//! observes deliveries, and the [`Timed`] wrapper a traced run puts around
//! every unit it registers itself.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use defcon_core::{Engine, EngineResult, Unit, UnitContext, UnitId, UnitSpec};
use defcon_events::{now_ns, Event, Filter, Predicate, Value};
use defcon_trading::messages::{event_type, tick};

use crate::trace::Tracer;

/// Part carrying the instant (shared `now_ns` clock) the generator handed an
/// engine-level event over — what sinks time deliveries from.
pub const SENT_AT: &str = "sent_ns";
/// Events kept per callback kind for the tight-loop timings.
const EVENT_SAMPLES: usize = 32;

/// Which registered unit a callback measurement belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Trader,
    Sink,
    Probe,
}

#[derive(Debug, Default)]
pub struct CallbackClock {
    pub calls: AtomicU64,
    pub busy_ns: AtomicU64,
}

impl CallbackClock {
    pub fn ns_per_call(&self) -> f64 {
        let calls = self.calls.load(Ordering::Relaxed);
        if calls == 0 {
            0.0
        } else {
            self.busy_ns.load(Ordering::Relaxed) as f64 / calls as f64
        }
    }
}

/// Everything a traced run collects from the units it wraps: spans, busy
/// time per kind of unit, and a few delivered events for the tight loops.
#[derive(Debug, Default)]
pub struct Instruments {
    pub tracer: Tracer,
    clocks: [CallbackClock; 3],
    events: Mutex<Vec<Event>>,
}

impl Instruments {
    pub fn clock(&self, kind: Kind) -> &CallbackClock {
        &self.clocks[kind as usize]
    }

    /// Callback time across all kinds, in nanoseconds.
    pub fn busy_ns(&self) -> u64 {
        self.clocks
            .iter()
            .map(|clock| clock.busy_ns.load(Ordering::Relaxed))
            .sum()
    }

    /// The delivered events captured so far (the first few per run).
    pub fn sampled_events(&self) -> Vec<Event> {
        self.events
            .lock()
            .expect("sample pushes do not panic")
            .clone()
    }

    fn note(&self, kind: Kind, start_ns: u64, end_ns: u64, event: &Event) {
        let clock = self.clock(kind);
        let seen = clock.calls.fetch_add(1, Ordering::Relaxed);
        clock
            .busy_ns
            .fetch_add(end_ns.saturating_sub(start_ns), Ordering::Relaxed);
        self.tracer.callback(start_ns, end_ns);
        if seen < EVENT_SAMPLES as u64 {
            self.events
                .lock()
                .expect("sample pushes do not panic")
                .push(event.clone());
        }
    }
}

/// Times every delivery to the wrapped unit from outside it.
pub struct Timed<U> {
    inner: U,
    kind: Kind,
    instruments: Arc<Instruments>,
}

impl<U: Unit> Unit for Timed<U> {
    fn init(&mut self, ctx: &mut UnitContext<'_>) -> EngineResult<()> {
        self.inner.init(ctx)
    }

    fn on_event(&mut self, ctx: &mut UnitContext<'_>, event: &Event) -> EngineResult<()> {
        let start_ns = now_ns();
        let result = self.inner.on_event(ctx, event);
        self.instruments.note(self.kind, start_ns, now_ns(), event);
        result
    }
}

/// Boxes `unit` for registration, wrapped in [`Timed`] on a traced run.
pub fn boxed<U: Unit + 'static>(
    unit: U,
    kind: Kind,
    instruments: Option<&Arc<Instruments>>,
) -> Box<dyn Unit> {
    match instruments {
        Some(instruments) => Box::new(Timed {
            inner: unit,
            kind,
            instruments: Arc::clone(instruments),
        }),
        None => Box::new(unit),
    }
}

/// Deliveries and sampled delivery latencies shared by a set of sinks.
#[derive(Debug)]
pub struct SinkLog {
    deliveries: AtomicU64,
    sample_every: u64,
    latencies_ns: Mutex<Vec<u64>>,
}

impl SinkLog {
    /// A log keeping the latency of one delivery in `sample_every`.
    pub fn new(sample_every: u64) -> Arc<Self> {
        Arc::new(SinkLog {
            deliveries: AtomicU64::new(0),
            sample_every: sample_every.max(1),
            latencies_ns: Mutex::new(Vec::new()),
        })
    }

    pub fn deliveries(&self) -> u64 {
        self.deliveries.load(Ordering::Relaxed)
    }

    /// Takes the latency samples gathered so far (dropping warm-up samples
    /// is a `take` whose result is ignored).
    pub fn take_latencies(&self) -> Vec<u64> {
        std::mem::take(
            &mut *self
                .latencies_ns
                .lock()
                .expect("sample pushes do not panic"),
        )
    }
}

/// An engine-level subscriber on one lane: `exact` subscriptions that match
/// every event of the lane and `near_miss` ones that name the lane but fail a
/// second clause, so the index shortlists them and the exact filter must
/// reject them.
pub struct LaneSink {
    pub lane: String,
    pub exact: usize,
    pub near_miss: usize,
    pub log: Arc<SinkLog>,
}

/// The two filter shapes a [`LaneSink`] subscribes with.
pub fn lane_filters(lane: &str) -> [Filter; 2] {
    [
        Filter::for_type(lane),
        Filter::for_type(lane).where_part("seq", Predicate::LessThan(0.0)),
    ]
}

/// Registers one [`LaneSink`] per lane, all reporting into `log`.
pub fn register_lane_sinks(
    engine: &Engine,
    lanes: &[String],
    (exact, near_miss): (usize, usize),
    log: &Arc<SinkLog>,
    instruments: Option<&Arc<Instruments>>,
) -> Result<Vec<UnitId>, String> {
    lanes
        .iter()
        .map(|lane| {
            let sink = LaneSink {
                lane: lane.clone(),
                exact,
                near_miss,
                log: Arc::clone(log),
            };
            engine
                .register_unit(
                    UnitSpec::new(format!("sink-{lane}")),
                    boxed(sink, Kind::Sink, instruments),
                )
                .map_err(|err| format!("registering a lane sink: {err}"))
        })
        .collect()
}

impl Unit for LaneSink {
    fn init(&mut self, ctx: &mut UnitContext<'_>) -> EngineResult<()> {
        let [exact, near_miss] = lane_filters(&self.lane);
        for _ in 0..self.exact {
            ctx.subscribe(exact.clone())?;
        }
        for _ in 0..self.near_miss {
            ctx.subscribe(near_miss.clone())?;
        }
        Ok(())
    }

    fn on_event(&mut self, _ctx: &mut UnitContext<'_>, event: &Event) -> EngineResult<()> {
        let nth = self.log.deliveries.fetch_add(1, Ordering::Relaxed);
        if nth.is_multiple_of(self.log.sample_every) {
            let sent_ns = event
                .first_part(SENT_AT)
                .and_then(|part| part.data().as_int())
                .unwrap_or(0) as u64;
            self.log
                .latencies_ns
                .lock()
                .expect("sample pushes do not panic")
                .push(now_ns().saturating_sub(sent_ns));
        }
        Ok(())
    }
}

/// The draft of one engine-level event on `lane`, stamped with its hand-over
/// instant.
pub fn lane_draft(lane: &str, sequence: u64, sent_ns: u64) -> defcon_core::EventDraft {
    defcon_core::EventDraft::new()
        .public_part("type", Value::str(lane))
        .public_part("seq", Value::Int(sequence as i64))
        .public_part(SENT_AT, Value::Int(sent_ns as i64))
}

/// What the two trading probes saw. The tick probe learns the engine-side
/// origin stamp of every exchange tick; the trade probe learns which origin
/// each trade descends from and when it became visible to a subscriber.
/// Joining the two against the generator's due times gives tick-to-trade
/// latency without touching the engine or the trading units.
#[derive(Debug, Default)]
pub struct ProbeLog {
    /// Origin stamp per exchange tick, indexed by tick sequence (0 = unseen).
    pub tick_origin_ns: Mutex<Vec<u64>>,
    /// `(origin stamp, instant seen)` per trade.
    pub trades: Mutex<Vec<(u64, u64)>>,
}

/// Subscribes to every tick. The Regulator republishes sampled trades as
/// ticks numbered by its own trade counter; the exchange's ticks are the ones
/// whose sequence keeps rising, which is how the two are told apart.
pub struct TickProbe {
    pub log: Arc<ProbeLog>,
    next_sequence: u64,
}

impl TickProbe {
    pub fn new(log: Arc<ProbeLog>) -> Self {
        TickProbe {
            log,
            next_sequence: 0,
        }
    }
}

impl Unit for TickProbe {
    fn init(&mut self, ctx: &mut UnitContext<'_>) -> EngineResult<()> {
        ctx.subscribe(Filter::for_type(event_type::TICK))?;
        Ok(())
    }

    fn on_event(&mut self, _ctx: &mut UnitContext<'_>, event: &Event) -> EngineResult<()> {
        let Some(sequence) = event
            .first_part(tick::SEQUENCE)
            .and_then(|part| part.data().as_int())
        else {
            return Ok(());
        };
        let sequence = sequence as u64;
        if sequence < self.next_sequence {
            return Ok(());
        }
        self.next_sequence = sequence + 1;
        let mut origins = self
            .log
            .tick_origin_ns
            .lock()
            .expect("probe pushes do not panic");
        if origins.len() <= sequence as usize {
            origins.resize(sequence as usize + 1, 0);
        }
        origins[sequence as usize] = event.origin_ns();
        Ok(())
    }
}

/// Subscribes to every trade the Broker publishes.
pub struct TradeProbe {
    pub log: Arc<ProbeLog>,
}

impl Unit for TradeProbe {
    fn init(&mut self, ctx: &mut UnitContext<'_>) -> EngineResult<()> {
        ctx.subscribe(Filter::for_type(event_type::TRADE))?;
        Ok(())
    }

    fn on_event(&mut self, _ctx: &mut UnitContext<'_>, event: &Event) -> EngineResult<()> {
        self.log
            .trades
            .lock()
            .expect("probe pushes do not panic")
            .push((event.origin_ns(), now_ns()));
        Ok(())
    }
}
