//! The benchmark's own table of workloads and metrics. `--list` prints it,
//! every result is keyed by it, and the run refuses to start when
//! `BENCHMARK.json` (embedded at build time) says anything different — so the
//! names cannot fork.

use crate::json::{self, Json};

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// "lower" or "higher".
    pub better: &'static str,
    /// Share of the parent's median by which an end-to-end metric may worsen;
    /// `None` for per-layer metrics.
    pub bound: Option<f64>,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "trading_saturate",
        why: "closed loop: the paper's Fig. 5 trading vertical (200 traders, 64 symbols, labels+freeze+isolation), 8 ticks per batch; defc flow checks, events filters, isolation and trading callbacks dominate",
    },
    Workload {
        name: "trading_open",
        why: "open loop: the same deployment under Poisson ticks at 5,000/s (half its capacity) through a shedding ingress session, timed from the due instant; stresses core wake/park and ingress credit flow",
    },
    Workload {
        name: "fanout_churn",
        why: "closed loop: 10^4 subscriptions on 20 lanes with a register/remove every 256 events, so the subscription index's read path and its epoch-bump rebuild run side by side; labels and trading idle",
    },
    Workload {
        name: "wal_ingest",
        why: "closed loop: two blocking ingress sessions into a write-ahead log with an fsync per batch, then recovery; durability, ingress and core admission dominate while matching is trivial",
    },
];

const fn end_to_end(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

/// Reported by every workload on an untraced run. The bounds are three times
/// the widest run-to-run spread (quartile distance over median, ten seeds)
/// seen on the two-core reference host, capped at a quarter; README.md has
/// the spreads.
pub const END_TO_END: [Metric; 6] = [
    end_to_end("setup_s", "s", "lower", 0.25),
    end_to_end("events_per_s", "events/s", "higher", 0.25),
    end_to_end("latency_p50_us", "us", "lower", 0.25),
    end_to_end("latency_p99_us", "us", "lower", 0.25),
    end_to_end("peak_rss_mib", "MiB", "lower", 0.2),
    end_to_end("cpu_s_per_mevent", "s/Mevent", "lower", 0.25),
];

/// Reported by every workload on a traced run; a cell reads 0 on a workload
/// that does not exercise (or does not measure) it.
pub const PER_LAYER: [Metric; 54] = [
    layer("defc.can_flow_to_ns", "ns", "lower"),
    layer("defc.flow_share", "ratio", "lower"),
    layer("defc.intern_labels", "count", "lower"),
    layer("events.filter_match_ns", "ns", "lower"),
    layer("events.encode_ns_per_event", "ns", "lower"),
    layer("events.clone_over_freeze_ratio", "ratio", "lower"),
    layer("isolation.share", "ratio", "lower"),
    layer("core.publish_ns_per_event", "ns", "lower"),
    layer("core.dispatch_self_ns_per_event", "ns", "lower"),
    layer("core.dispatched_per_event", "count", "lower"),
    layer("core.deliveries_per_event", "count", "lower"),
    layer("core.label_rejections_per_event", "count", "lower"),
    layer("core.flow_reject_ratio", "ratio", "lower"),
    layer("core.index_candidates_per_event", "count", "lower"),
    layer("core.index_exact_reject_ratio", "ratio", "lower"),
    layer("core.index_rebuilds", "count", "lower"),
    layer("core.epoch_bump_penalty_us", "us", "lower"),
    layer("core.control_op_ns", "ns", "lower"),
    layer("core.peak_queue_depth", "count", "lower"),
    layer("core.queue_depth_end", "count", "lower"),
    layer("core.workers_high_water", "count", "lower"),
    layer("core.sched_steals", "count", "higher"),
    layer("core.sched_wakes", "count", "lower"),
    layer("core.sched_snapshot_hits", "count", "higher"),
    layer("core.recover_ns_per_event", "ns", "lower"),
    layer("core.recover_events_per_s", "events/s", "higher"),
    layer("core.engine_errors", "count", "lower"),
    layer("core.unit_errors", "count", "lower"),
    layer("durability.wal_ns_per_event", "ns", "lower"),
    layer("durability.fsync_share", "ratio", "lower"),
    layer("durability.wal_bytes_per_event", "bytes", "lower"),
    layer("durability.segments", "count", "lower"),
    layer("ingress.submit_ns_per_event", "ns", "lower"),
    layer("ingress.credit_stalls_per_kevent", "count", "lower"),
    layer("ingress.admitted", "count", "higher"),
    layer("ingress.shed", "count", "lower"),
    layer("ingress.drain_wait_ns_per_event", "ns", "lower"),
    layer("trading.callback_ns_per_delivery.trader", "ns", "lower"),
    layer("trading.callback_share", "ratio", "lower"),
    layer("trading.orders_per_ktick", "count", "higher"),
    layer("trading.trades_per_ktick", "count", "higher"),
    layer("workload.gen_ns_per_event", "ns", "lower"),
    layer("workload.sink_ns_per_delivery", "ns", "lower"),
    layer("workload.offered_rate_eps", "events/s", "higher"),
    layer("workload.achieved_rate_eps", "events/s", "higher"),
    layer("workload.gen_lag_p50_us", "us", "lower"),
    layer("workload.gen_lag_p99_us", "us", "lower"),
    layer("workload.failed_ratio", "ratio", "lower"),
    layer("workload.latency_samples", "count", "higher"),
    layer("metrics.histogram_record_ns", "ns", "lower"),
    layer("harness.trace_overhead_ratio", "ratio", "lower"),
    layer("harness.spans_recorded", "count", "higher"),
    layer("harness.attribution_coverage", "ratio", "higher"),
    layer("harness.traced_events_per_s", "events/s", "higher"),
];

/// The `BENCHMARK.json` this binary was built beside.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Checks that `BENCHMARK.json` lists exactly this table: same workloads with
/// the same rationale, same metrics with the same unit, direction and bound,
/// in the same order.
pub fn check_benchmark_json() -> Result<(), String> {
    check_against(BENCHMARK_JSON)
}

fn check_against(text: &str) -> Result<(), String> {
    let doc = json::parse(text)?;
    let section = |key: &str| -> Result<&[Json], String> {
        doc.get(key)
            .and_then(Json::as_array)
            .ok_or_else(|| format!("BENCHMARK.json has no \"{key}\" list"))
    };
    let text_of = |entry: &Json, key: &str| {
        entry
            .get(key)
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string()
    };

    let listed: Vec<(String, String)> = section("workloads")?
        .iter()
        .map(|entry| (text_of(entry, "name"), text_of(entry, "why")))
        .collect();
    let ours: Vec<(String, String)> = WORKLOADS
        .iter()
        .map(|w| (w.name.to_string(), w.why.to_string()))
        .collect();
    if listed != ours {
        return Err(format!(
            "BENCHMARK.json workloads {:?} differ from the benchmark's {:?}",
            listed.iter().map(|(name, _)| name).collect::<Vec<_>>(),
            ours.iter().map(|(name, _)| name).collect::<Vec<_>>()
        ));
    }
    for (key, table) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let listed = section(key)?;
        if listed.len() != table.len() {
            return Err(format!(
                "BENCHMARK.json lists {} {key} metrics, the benchmark has {}",
                listed.len(),
                table.len()
            ));
        }
        for (entry, metric) in listed.iter().zip(table) {
            let same = text_of(entry, "name") == metric.name
                && text_of(entry, "unit") == metric.unit
                && text_of(entry, "better") == metric.better
                && entry.get("bound").and_then(Json::as_f64) == metric.bound;
            if !same {
                return Err(format!(
                    "BENCHMARK.json {key} entry {entry:?} differs from the benchmark's {} ({}, {}, {:?})",
                    metric.name, metric.unit, metric.better, metric.bound
                ));
            }
        }
    }
    Ok(())
}

/// The table as `--list` prints it.
pub fn listing() -> String {
    let mut out = String::new();
    for workload in &WORKLOADS {
        out.push_str(&format!("workload {} -- {}\n", workload.name, workload.why));
    }
    for (kind, table) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        for metric in table {
            let bound = metric
                .bound
                .map_or(String::new(), |b| format!(" bound {b}"));
            out.push_str(&format!(
                "{kind} {} {} better={}{bound}\n",
                metric.name, metric.unit, metric.better
            ));
        }
    }
    out
}

/// `BENCHMARK.json`'s metric sections rendered from the table.
#[cfg(test)]
fn render_json_sections() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name,
                json::escape(w.why)
            )
        })
        .collect();
    let metrics = |table: &[Metric]| -> String {
        table
            .iter()
            .map(|m| {
                let bound = m
                    .bound
                    .map_or(String::new(), |b| format!(", \"bound\": {b}"));
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
                    m.name, m.unit, m.better
                )
            })
            .collect::<Vec<_>>()
            .join(",\n")
    };
    format!(
        "  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]",
        workloads.join(",\n"),
        metrics(&END_TO_END),
        metrics(&PER_LAYER)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_committed_benchmark_json_matches_the_table() {
        check_benchmark_json().unwrap();
    }

    #[test]
    fn a_forked_name_unit_or_bound_is_refused() {
        let good = format!("{{\n{}\n}}", render_json_sections());
        check_against(&good).unwrap();
        for (from, to) in [
            ("\"events_per_s\"", "\"events_per_sec\""),
            ("\"unit\": \"MiB\"", "\"unit\": \"MB\""),
            ("\"bound\": 0.2}", "\"bound\": 0.21}"),
            ("\"name\": \"wal_ingest\"", "\"name\": \"wal\""),
            (
                "\"better\": \"higher\", \"bound\"",
                "\"better\": \"lower\", \"bound\"",
            ),
        ] {
            assert!(good.contains(from), "{from}");
            assert!(
                check_against(&good.replacen(from, to, 1)).is_err(),
                "{from} -> {to}"
            );
        }
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let name_ok = |name: &str| {
            !name.is_empty()
                && name.len() <= 64
                && name.chars().next().unwrap().is_ascii_alphanumeric()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |unit: &str| {
            !unit.is_empty()
                && unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::HashSet::new();
        for workload in &WORKLOADS {
            assert!(name_ok(workload.name) && seen.insert(workload.name));
            assert!(
                workload.why.len() <= 200 && !workload.why.contains('\n'),
                "{}",
                workload.name
            );
        }
        for metric in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(
                name_ok(metric.name) && seen.insert(metric.name),
                "{}",
                metric.name
            );
            assert!(unit_ok(metric.unit), "{}", metric.unit);
            assert!(matches!(metric.better, "lower" | "higher"));
            assert!(metric.bound.is_none_or(|b| b > 0.0 && b <= 0.25));
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
    }
}
