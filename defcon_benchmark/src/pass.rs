//! What every workload hands back from one measured pass, and the
//! bookkeeping they share: repeated set-up, engine counter snapshots, the
//! per-layer cells derived from them.

use std::time::Duration;

use defcon_core::{Engine, QueueStats};
use defcon_events::now_ns;

use crate::host;
use crate::stats::{self, LatencySummary, Quartiles, SliceClock};
use crate::trace::{self, Span};
use crate::units::Instruments;

/// Named per-layer readings, in the order they were taken.
pub type Cells = Vec<(&'static str, f64)>;

/// How long and how large one invocation runs.
#[derive(Debug, Clone)]
pub struct RunCfg {
    pub seed: u64,
    /// Length of the measured phase of an untraced run; a traced run splits
    /// the same budget between its traced pass and its differential passes.
    pub measure: Duration,
    /// Measure one deployment only, instead of splitting the measured time
    /// over the workload's usual number of sub-runs (see [`sub_runs`]). Set
    /// for traced, differential and smoke passes.
    pub single: bool,
    /// Shrinks populations and warm-ups so a debug-build test finishes in
    /// about a second per workload.
    pub smoke: bool,
}

/// The result of a measured pass: one sub-run, or several merged.
#[derive(Debug, Default)]
pub struct Pass {
    /// Seconds each set-up took (build, registration, subscriptions, warm-up).
    pub setup_seconds: Vec<f64>,
    /// External events attempted and failed (shed, rejected, or admitted but
    /// never delivered) during the measured phases.
    pub attempted: u64,
    pub failed: u64,
    /// External events whose whole cascade completed.
    pub completed: u64,
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Peak resident set when the last measured phase ended, before recovery
    /// or tear-down could raise it.
    pub peak_rss_mib: f64,
    /// Events per second of every equal-count throughput slice.
    pub slice_rates: Vec<f64>,
    /// Percentiles of every equal-count latency slice.
    pub slice_latencies: Vec<LatencySummary>,
    /// Per-layer readings (of the last sub-run, when several are merged).
    pub cells: Cells,
    /// Correctness checks that failed; empty means the pass is correct.
    pub problems: Vec<String>,
    /// Resolved configuration and sample counts, printed with the metrics.
    pub notes: Vec<String>,
    pub spans: Vec<Span>,
}

impl Pass {
    pub fn setup_s(&self) -> f64 {
        stats::median(&self.setup_seconds)
    }

    pub fn rate(&self) -> Quartiles {
        stats::quartiles(&self.slice_rates)
    }

    pub fn events_per_s(&self) -> f64 {
        self.rate().median
    }

    pub fn latency(&self) -> LatencySummary {
        stats::median_latency(&self.slice_latencies)
    }

    pub fn check(&mut self, holds: bool, problem: impl FnOnce() -> String) {
        if !holds {
            self.problems.push(problem());
        }
    }

    /// Merges a later sub-run into this one.
    fn absorb(&mut self, later: Pass) {
        self.setup_seconds.extend(later.setup_seconds);
        self.attempted += later.attempted;
        self.failed += later.failed;
        self.completed += later.completed;
        self.wall_s += later.wall_s;
        self.cpu_s += later.cpu_s;
        self.peak_rss_mib = later.peak_rss_mib;
        self.slice_rates.extend(later.slice_rates);
        self.slice_latencies.extend(later.slice_latencies);
        self.cells = later.cells;
        self.problems.extend(later.problems);
        self.notes = later.notes;
        self.spans.extend(later.spans);
    }
}

/// Dispatcher threads: all but one core (the generator's), between 1 and 3.
pub fn engine_workers() -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    cores.saturating_sub(1).clamp(1, 3)
}

/// Splits `measure` over `count` sub-runs (one if `run.single`), each on a
/// freshly set-up deployment, and merges the results: `setup_s` becomes a
/// median of several set-ups, state a deployment accumulates never grows for
/// longer than one sub-run, and the run's medians are taken over the slices
/// of several deployments instead of one (two deployments of the same
/// workload differ by more than two slices of one). `sub_run` receives the
/// sub-run's index, whether it is the last, and its share of the time.
pub fn sub_runs(
    run: &RunCfg,
    count: u32,
    measure: Duration,
    mut sub_run: impl FnMut(u64, bool, Duration) -> Result<Pass, String>,
) -> Result<Pass, String> {
    let count = if run.single { 1 } else { count.max(1) };
    let mut merged = sub_run(0, count == 1, measure / count)?;
    for index in 1..count {
        merged.absorb(sub_run(index as u64, index + 1 == count, measure / count)?);
    }
    Ok(merged)
}

/// Every sub-run of a run gets inputs of its own, all fixed by `--seed`.
pub fn sub_run_seed(seed: u64, index: u64) -> u64 {
    seed.wrapping_add(index.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Times a deployment's set-up (warm-up included) into a fresh [`Pass`].
pub fn timed_setup<D>(build: impl FnOnce() -> Result<D, String>) -> Result<(D, Pass), String> {
    let start = now_ns();
    let deployment = build()?;
    let pass = Pass {
        setup_seconds: vec![(now_ns() - start) as f64 / 1e9],
        ..Pass::default()
    };
    Ok((deployment, pass))
}

/// Engine counters at one instant.
struct Snapshot {
    dispatched: u64,
    deliveries: u64,
    label_rejections: u64,
    unit_errors: u64,
    engine_errors: u64,
    queue: QueueStats,
}

impl Snapshot {
    fn take(engine: &Engine) -> Self {
        let stats = engine.stats();
        Snapshot {
            dispatched: stats.dispatched(),
            deliveries: stats.deliveries(),
            label_rejections: stats.label_rejections(),
            unit_errors: stats.unit_errors(),
            engine_errors: stats.engine_errors(),
            queue: engine.queue_stats(),
        }
    }
}

/// The measured phase of a pass: its clock, its slices and the counters it
/// started from.
pub struct Phase {
    pub start_ns: u64,
    pub deadline_ns: u64,
    pub slices: SliceClock,
    pub peak_queue_depth: usize,
    cpu_start_s: f64,
    before: Snapshot,
}

impl Phase {
    pub fn begin(engine: &Engine, measure: Duration, events_per_slice: u64) -> Self {
        let start_ns = now_ns();
        Phase {
            start_ns,
            deadline_ns: start_ns + measure.as_nanos() as u64,
            slices: SliceClock::new(events_per_slice, start_ns),
            peak_queue_depth: 0,
            cpu_start_s: host::cpu_seconds(),
            before: Snapshot::take(engine),
        }
    }

    pub fn sample_queue(&mut self, engine: &Engine) {
        self.peak_queue_depth = self.peak_queue_depth.max(engine.queue_depth());
    }

    /// Closes the phase: fills the pass's wall, CPU and rate, appends the
    /// `core.*` counter cells, and runs the checks every workload shares
    /// (drained queue, no engine or unit errors).
    pub fn end(self, engine: &Engine, completed: u64, pass: &mut Pass) {
        let end_ns = now_ns();
        let after = Snapshot::take(engine);
        pass.completed = completed;
        pass.wall_s = (end_ns - self.start_ns) as f64 / 1e9;
        pass.cpu_s = host::cpu_seconds() - self.cpu_start_s;
        pass.peak_rss_mib = host::peak_rss_mib();
        pass.slice_rates = self.slices.into_rates(end_ns);

        let events = completed.max(1) as f64;
        let delta = |after: u64, before: u64| after.saturating_sub(before) as f64;
        let ratio = |part: f64, whole: f64| if whole > 0.0 { part / whole } else { 0.0 };
        let deliveries = delta(after.deliveries, self.before.deliveries);
        let rejections = delta(after.label_rejections, self.before.label_rejections);
        let dispatched = delta(after.dispatched, self.before.dispatched);
        let candidates = delta(
            after.queue.index_candidates,
            self.before.queue.index_candidates,
        );
        let exact_rejects = delta(
            after.queue.index_exact_rejects,
            self.before.queue.index_exact_rejects,
        );
        pass.cells.extend([
            ("core.dispatched_per_event", dispatched / events),
            ("core.deliveries_per_event", deliveries / events),
            ("core.label_rejections_per_event", rejections / events),
            (
                "core.flow_reject_ratio",
                ratio(rejections, rejections + deliveries),
            ),
            (
                "core.index_candidates_per_event",
                ratio(candidates, dispatched),
            ),
            (
                "core.index_exact_reject_ratio",
                ratio(exact_rejects, candidates),
            ),
            (
                "core.index_rebuilds",
                delta(after.queue.index_rebuilds, self.before.queue.index_rebuilds),
            ),
            ("core.peak_queue_depth", self.peak_queue_depth as f64),
            ("core.queue_depth_end", after.queue.depth as f64),
            (
                "core.workers_high_water",
                after.queue.workers_high_water as f64,
            ),
            (
                "core.sched_steals",
                delta(after.queue.sched_steals, self.before.queue.sched_steals),
            ),
            (
                "core.sched_wakes",
                delta(after.queue.sched_wakes, self.before.queue.sched_wakes),
            ),
            (
                "core.sched_snapshot_hits",
                delta(
                    after.queue.sched_snapshot_hits,
                    self.before.queue.sched_snapshot_hits,
                ),
            ),
            ("core.engine_errors", after.engine_errors as f64),
            ("core.unit_errors", after.unit_errors as f64),
            (
                "ingress.admitted",
                delta(
                    after.queue.ingress_admitted,
                    self.before.queue.ingress_admitted,
                ),
            ),
            (
                "ingress.shed",
                delta(after.queue.ingress_shed, self.before.queue.ingress_shed),
            ),
            (
                "ingress.credit_stalls_per_kevent",
                delta(
                    after.queue.ingress_credit_stalls,
                    self.before.queue.ingress_credit_stalls,
                ) * 1e3
                    / events,
            ),
        ]);

        pass.check(after.queue.depth == 0 && after.queue.in_flight == 0, || {
            format!(
                "engine not drained at the end: depth {} in flight {}",
                after.queue.depth, after.queue.in_flight
            )
        });
        pass.check(after.engine_errors == 0 && after.unit_errors == 0, || {
            format!(
                "engine_errors {} unit_errors {}",
                after.engine_errors, after.unit_errors
            )
        });
    }
}

/// Turns the spans of a traced pass into the harness cells and moves them
/// into the pass for writing out.
pub fn harvest_spans(instruments: &Instruments, pass: &mut Pass) {
    let spans = instruments.tracer.take_spans();
    let times = trace::self_times(&spans);
    let root_ns = times.get("batch").map_or(0.0, |root| root.total_ns as f64);
    let attributed_ns: u64 = times
        .iter()
        .filter(|(name, _)| **name != "batch")
        .map(|(_, time)| time.self_ns)
        .sum();
    pass.cells.extend([
        ("harness.spans_recorded", spans.len() as f64),
        (
            "harness.attribution_coverage",
            if root_ns > 0.0 {
                attributed_ns as f64 / root_ns
            } else {
                0.0
            },
        ),
    ]);
    pass.notes.push(format!(
        "spans: {} recorded, {} dropped over the cap",
        spans.len(),
        instruments.tracer.dropped()
    ));
    pass.spans = spans;
}
