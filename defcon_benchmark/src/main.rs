//! `defcon_benchmark`: one command that measures the DEFCon engine end to end
//! and layer by layer, entirely from outside it. See README.md.
//!
//! ```text
//! defcon_benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out DIR]
//! defcon_benchmark            # every workload, untraced then traced, one process each
//! defcon_benchmark --list     # workload and metric names
//! ```

mod fanout;
mod host;
mod json;
mod micro;
mod pass;
mod schedule;
mod spec;
mod stats;
mod trace;
mod trading;
mod units;
mod wal;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use defcon_core::{FsyncPolicy, SecurityMode};

use pass::{Pass, RunCfg};
use trading::TradingCfg;
use units::{Instruments, Kind};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    traced: bool,
    smoke: bool,
    list: bool,
    out_dir: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10,
        traced: false,
        smoke: false,
        list: false,
        out_dir: None,
    };
    let mut words = std::env::args().skip(1);
    while let Some(word) = words.next() {
        let mut value = |flag: &str| words.next().ok_or(format!("{flag} needs a value"));
        match word.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|seconds| (1..=60).contains(seconds))
                    .ok_or("--seconds takes a whole number from 1 to 60")?
            }
            "--trace" => {
                args.traced = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--out" => args.out_dir = Some(PathBuf::from(value("--out")?)),
            "--smoke" => args.smoke = true,
            "--list" => args.list = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// One workload's traced or untraced run.
struct Outcome {
    pass: Pass,
    metrics: BTreeMap<&'static str, f64>,
}

fn run_untraced(workload: &str, run: &RunCfg) -> Result<Pass, String> {
    match workload {
        "trading_saturate" => trading::saturate(
            run,
            &TradingCfg::new(run, SecurityMode::LabelsFreezeIsolation),
            run.measure,
            None,
        ),
        "trading_open" => trading::open(
            run,
            &TradingCfg::new(run, SecurityMode::LabelsFreezeIsolation),
            run.measure,
            None,
        ),
        "fanout_churn" => fanout::run(run, run.measure, None),
        "wal_ingest" => wal::run(run, run.measure, Some(FsyncPolicy::EveryBatch), true, None),
        other => Err(format!("unknown workload {other}; try --list")),
    }
}

/// The traced run: the workload once with spans and timed units, once
/// without (their difference is the tracing overhead), plus the workload's
/// differential passes — each with an equal share of the time budget an
/// untraced run has.
fn run_traced(workload: &str, run: &RunCfg) -> Result<Pass, String> {
    let instruments = Arc::new(Instruments::default());
    let some = Some(&instruments);
    let once = RunCfg {
        single: true,
        ..run.clone()
    };
    let isolation = TradingCfg::new(run, SecurityMode::LabelsFreezeIsolation);
    let mut extra_cells = Vec::new();
    let mut extra_notes = Vec::new();
    let (mut traced, untraced_rate) = match workload {
        "trading_saturate" => {
            let each = run.measure / 5;
            let traced = trading::saturate(&once, &isolation, each, some)?;
            // The differential under the workload's own mode doubles as the
            // untraced comparison.
            let untraced;
            (extra_notes, untraced) = trading::mode_differentials(&once, each, &mut extra_cells)?;
            (traced, untraced)
        }
        "trading_open" => {
            let each = run.measure / 2;
            let traced = trading::open(&once, &isolation, each, some)?;
            let untraced = trading::open(&once, &isolation, each, None)?;
            // An open loop completes what it is offered either way; what
            // tracing costs it shows in the median latency.
            let overhead = traced.latency().p50_us / untraced.latency().p50_us.max(1e-9) - 1.0;
            extra_cells.push(("harness.trace_overhead_ratio", overhead));
            (traced, 0.0)
        }
        "fanout_churn" => {
            let each = run.measure / 2;
            let traced = fanout::run(&once, each, some)?;
            let untraced = fanout::run(&once, each, None)?;
            (traced, untraced.events_per_s())
        }
        "wal_ingest" => {
            let each = run.measure / 4;
            let every_batch = Some(FsyncPolicy::EveryBatch);
            let traced = wal::run(&once, each, every_batch, true, some)?;
            let untraced = wal::run(&once, each, every_batch, false, None)?;
            extra_notes = wal::durability_differentials(
                &once,
                each,
                1e9 / untraced.events_per_s().max(1.0),
                &mut extra_cells,
            )?;
            (traced, untraced.events_per_s())
        }
        other => return Err(format!("unknown workload {other}; try --list")),
    };
    if untraced_rate > 0.0 {
        extra_cells.push((
            "harness.trace_overhead_ratio",
            untraced_rate / traced.events_per_s().max(1e-9) - 1.0,
        ));
    }
    traced.cells.extend(extra_cells);
    traced.notes.extend(extra_notes);
    traced.cells.extend([
        (
            "trading.callback_ns_per_delivery.trader",
            instruments.clock(Kind::Trader).ns_per_call(),
        ),
        (
            "workload.sink_ns_per_delivery",
            instruments.clock(Kind::Sink).ns_per_call(),
        ),
        ("harness.traced_events_per_s", traced.events_per_s()),
        (
            "workload.failed_ratio",
            traced.failed as f64 / traced.attempted.max(1) as f64,
        ),
        ("workload.latency_samples", traced.latency().samples as f64),
    ]);
    pass::harvest_spans(&instruments, &mut traced);
    Ok(traced)
}

fn run_workload(workload: &str, run: &RunCfg, traced: bool) -> Result<Outcome, String> {
    let mut pass = if traced {
        run_traced(workload, run)?
    } else {
        run_untraced(workload, run)?
    };
    if workload == "trading_saturate" || workload == "trading_open" {
        let traders = if run.smoke { 24 } else { trading::TRADERS };
        let ticks = if run.smoke { 1_280 } else { 2_000 };
        let (ours, theirs) = trading::wiring_equivalence(run.seed, traders, ticks)?;
        pass.check(ours.matches(&theirs), || {
            format!("harness wiring {ours:?} differs from TradingPlatform {theirs:?}")
        });
    }
    let (latency, attempted, failed) = (pass.latency(), pass.attempted, pass.failed);
    pass.check(latency.p50_us <= latency.p99_us, || {
        format!("percentiles not monotone: {latency:?}")
    });
    pass.check(failed <= attempted && attempted >= 1, || {
        format!("attempted {attempted} failed {failed}")
    });

    let mut metrics = BTreeMap::new();
    if traced {
        metrics.extend(spec::PER_LAYER.iter().map(|metric| (metric.name, 0.0)));
        for (name, value) in &pass.cells {
            match metrics.get_mut(name) {
                Some(slot) => *slot = *value,
                None => pass
                    .problems
                    .push(format!("cell {name} is not in the metric table")),
            }
        }
    } else {
        let million_events = pass.completed.max(1) as f64 / 1e6;
        metrics.extend([
            ("setup_s", pass.setup_s()),
            ("events_per_s", pass.events_per_s()),
            ("latency_p50_us", latency.p50_us),
            ("latency_p99_us", latency.p99_us),
            ("peak_rss_mib", pass.peak_rss_mib),
            ("cpu_s_per_mevent", pass.cpu_s / million_events),
        ]);
        for metric in &spec::END_TO_END {
            pass.check(metrics.get(metric.name).is_some_and(|v| *v > 0.0), || {
                format!("end-to-end metric {} is missing or zero", metric.name)
            });
        }
    }
    Ok(Outcome { pass, metrics })
}

/// The metrics a run reports: per-layer when traced, end-to-end otherwise.
fn table(traced: bool) -> &'static [spec::Metric] {
    if traced {
        &spec::PER_LAYER
    } else {
        &spec::END_TO_END
    }
}

fn result_json(outcome: &Outcome, traced: bool) -> String {
    let metrics: Vec<String> = table(traced)
        .iter()
        .map(|metric| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                metric.name,
                outcome.metrics.get(metric.name).copied().unwrap_or(0.0),
                metric.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.pass.problems.is_empty(),
        outcome.pass.attempted,
        outcome.pass.failed,
        metrics.join(", ")
    )
}

fn run_one(workload: &str, args: &Args) -> Result<ExitCode, String> {
    let out_dir = match &args.out_dir {
        Some(dir) => dir.clone(),
        None => std::env::current_exe()
            .map_err(|err| format!("locating the executable: {err}"))?
            .with_file_name("defcon_benchmark_out"),
    };
    std::fs::create_dir_all(&out_dir)
        .map_err(|err| format!("creating {}: {err}", out_dir.display()))?;
    let run = RunCfg {
        seed: args.seed,
        measure: if args.smoke {
            Duration::from_millis(400)
        } else {
            Duration::from_secs(args.seconds)
        },
        single: args.smoke,
        smoke: args.smoke,
    };
    let outcome = run_workload(workload, &run, args.traced)?;

    println!(
        "# workload {workload} seed {} seconds {} trace {}",
        run.seed,
        run.measure.as_secs_f64(),
        u8::from(args.traced)
    );
    for note in &outcome.pass.notes {
        println!("# {note}");
    }
    let rate = outcome.pass.rate();
    println!(
        "# throughput slices: {} of equal count, q1 {:.1} median {:.1} q3 {:.1} events/s",
        rate.samples, rate.q1, rate.median, rate.q3
    );
    println!(
        "# latency samples: {}; attempted {} failed {}",
        outcome.pass.latency().samples,
        outcome.pass.attempted,
        outcome.pass.failed
    );
    for metric in table(args.traced) {
        println!(
            "{} {} {}",
            metric.name, metric.unit, outcome.metrics[metric.name]
        );
    }
    for problem in &outcome.pass.problems {
        println!("# INCORRECT: {problem}");
    }
    if args.traced {
        let path = out_dir.join(format!("trace-{workload}.jsonl"));
        trace::write_jsonl(&outcome.pass.spans, &path)
            .map_err(|err| format!("writing {}: {err}", path.display()))?;
    }
    let line = result_json(&outcome, args.traced);
    let path = out_dir.join(format!(
        "result-{workload}-trace{}.json",
        u8::from(args.traced)
    ));
    std::fs::write(&path, format!("{line}\n"))
        .map_err(|err| format!("writing {}: {err}", path.display()))?;
    println!("{line}");
    Ok(if outcome.pass.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// No `--workload`: every workload untraced, then traced, each in a process
/// of its own so that `peak_rss_mib` belongs to one workload.
fn run_all(args: &Args) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|err| format!("locating the executable: {err}"))?;
    let mut failed = Vec::new();
    for workload in &spec::WORKLOADS {
        for trace in ["0", "1"] {
            let mut command = std::process::Command::new(&exe);
            command
                .args(["--workload", workload.name, "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()]);
            if args.smoke {
                command.arg("--smoke");
            }
            if let Some(dir) = &args.out_dir {
                command.arg("--out").arg(dir);
            }
            let status = command
                .status()
                .map_err(|err| format!("starting {}: {err}", workload.name))?;
            if !status.success() {
                failed.push(format!("{} --trace {trace}", workload.name));
            }
        }
    }
    if failed.is_empty() {
        Ok(ExitCode::SUCCESS)
    } else {
        Err(format!("failed: {}", failed.join(", ")))
    }
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| {
        if args.list {
            print!("{}", spec::listing());
            return Ok(ExitCode::SUCCESS);
        }
        spec::check_benchmark_json()?;
        match &args.workload {
            Some(workload) => run_one(workload, &args),
            None => run_all(&args),
        }
    });
    result.unwrap_or_else(|problem| {
        eprintln!("defcon_benchmark: {problem}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload end to end, both ways, at smoke size.
    #[test]
    fn smoke_runs_all_four_workloads_correctly() {
        let run = RunCfg {
            seed: 3,
            measure: Duration::from_millis(300),
            single: true,
            smoke: true,
        };
        for workload in &spec::WORKLOADS {
            for traced in [false, true] {
                let outcome = run_workload(workload.name, &run, traced)
                    .unwrap_or_else(|err| panic!("{} traced={traced}: {err}", workload.name));
                assert!(
                    outcome.pass.problems.is_empty(),
                    "{} traced={traced}: {:?}",
                    workload.name,
                    outcome.pass.problems
                );
                assert_eq!(outcome.pass.failed, 0, "{}", workload.name);
                let line = result_json(&outcome, traced);
                let parsed = json::parse(&line).unwrap();
                for metric in table(traced) {
                    assert!(
                        parsed.get("metrics").unwrap().get(metric.name).is_some(),
                        "{} lacks {}",
                        workload.name,
                        metric.name
                    );
                }
                if traced {
                    assert!(!outcome.pass.spans.is_empty(), "{}", workload.name);
                }
            }
        }
    }
}
