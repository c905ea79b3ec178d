//! Tight-loop timings of single public functions, over inputs taken from the
//! deployment that just ran: the labels its units hold, the events its
//! callbacks received.

use std::hint::black_box;
use std::time::{Duration, Instant};

use defcon_core::{Engine, UnitId};
use defcon_defc::Label;
use defcon_events::codec::encode_event;
use defcon_events::{Event, Filter};
use defcon_metrics::LatencyHistogram;

use crate::pass::Cells;

/// How long each loop runs.
const LOOP_FOR: Duration = Duration::from_millis(25);

/// Nanoseconds per call of `step`, which performs `calls_per_step` calls.
/// Runs whole steps until `LOOP_FOR` has passed; total time grows with the
/// step count, so the compiler has not folded the work away.
fn ns_per_call(calls_per_step: usize, mut step: impl FnMut()) -> f64 {
    if calls_per_step == 0 {
        return 0.0;
    }
    let start = Instant::now();
    let mut steps = 0u64;
    while start.elapsed() < LOOP_FOR {
        for _ in 0..16 {
            step();
        }
        steps += 16;
    }
    start.elapsed().as_nanos() as f64 / (steps as f64 * calls_per_step as f64)
}

/// The tight-loop cells of an engine-level workload: its lane sinks' labels,
/// filters and received events.
pub fn lane_cells(
    engine: &Engine,
    sinks: &[UnitId],
    lanes: &[String],
    instruments: &crate::units::Instruments,
    cells_out: &mut Cells,
) {
    let filters: Vec<Filter> = lanes
        .iter()
        .flat_map(|lane| crate::units::lane_filters(lane))
        .collect();
    cells(
        engine,
        sinks,
        &instruments.sampled_events(),
        &filters,
        cells_out,
    );
}

/// Appends the tight-loop cells. `units` are the units whose input labels
/// flow checks run against; `events` were delivered during the traced pass;
/// `filters` are the deployment's subscription filters.
pub fn cells(
    engine: &Engine,
    units: &[UnitId],
    events: &[Event],
    filters: &[Filter],
    cells: &mut Cells,
) {
    let input_labels: Vec<Label> = units
        .iter()
        .filter_map(|unit| engine.unit_state(*unit).ok())
        .map(|state| state.input_label)
        .collect();
    let mut part_labels: Vec<Label> = Vec::new();
    for part in events.iter().flat_map(|event| event.parts()) {
        if !part_labels.contains(part.label()) {
            part_labels.push(part.label().clone());
        }
    }
    let flow = ns_per_call(part_labels.len() * input_labels.len(), || {
        for part in &part_labels {
            for input in &input_labels {
                black_box(black_box(part).can_flow_to(black_box(input)));
            }
        }
    });
    let matching = ns_per_call(filters.len() * events.len(), || {
        for filter in filters {
            for event in events {
                black_box(black_box(filter).matches_any_visibility(black_box(event)));
            }
        }
    });
    let encode = ns_per_call(events.len(), || {
        for event in events {
            black_box(encode_event(black_box(event)));
        }
    });
    let histogram = LatencyHistogram::new();
    let mut sample = 1u64;
    let record = ns_per_call(1, || {
        sample = sample
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1);
        histogram.record(black_box(sample >> 40));
    });
    cells.extend([
        ("defc.can_flow_to_ns", flow),
        (
            "defc.intern_labels",
            defcon_defc::intern_stats().live_labels as f64,
        ),
        ("events.filter_match_ns", matching),
        ("events.encode_ns_per_event", encode),
        ("metrics.histogram_record_ns", record),
    ]);
}
