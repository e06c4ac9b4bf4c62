//! The metric lists of `BENCHMARK.json`, and how a run's measurements fill
//! them. A unit test holds both lists equal to the file's.

use std::time::{Duration, Instant};

use crate::adapter::{Delay, Layer, Reduce};
use crate::stats::{median, Latencies};
use crate::workloads::{Kind, Outcome};

/// One reported number. `samples` is how many measurements it summarises
/// (printed beside it; not part of the result line).
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: u64,
}

fn metric(name: &str, value: f64, unit: &'static str, samples: u64) -> Metric {
    Metric {
        name: name.to_string(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
        samples,
    }
}

/// What a user of the system sees, measured with every tracing subscription
/// off. Every workload reports every metric; `Kind::operation` says what the
/// latency is the latency of.
pub fn end_to_end(outcome: &Outcome, setup_s: f64, setups: u64) -> Vec<Metric> {
    let ops = outcome.latency.len() as u64;
    let jobs_per_s = if outcome.open_loop {
        outcome.jobs_done as f64 / outcome.window_s
    } else {
        outcome.latency.rate() * outcome.jobs_done as f64 / ops.max(1) as f64
    };
    vec![
        metric("latency_p50_us", outcome.latency.quantile(0.5) / 1e3, "us", ops),
        metric("jobs_per_s", jobs_per_s, "1/s", outcome.jobs_done),
        metric("accept_ratio", outcome.accept_ratio, "ratio", outcome.jobs_submitted.max(ops)),
        metric(
            "deadline_met_ratio",
            1.0 - outcome.deadline_misses as f64 / outcome.jobs_done.max(1) as f64,
            "ratio",
            outcome.jobs_done,
        ),
        metric("peak_rss_mb", peak_rss_mb(), "MiB", 1),
        metric("setup_s", setup_s, "s", setups),
    ]
}

/// `VmHWM` of this process, MiB; 0 where `/proc` does not say.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs every layer loop for an equal share of `budget` and reduces its
/// samples.
pub fn run_layers(layers: impl ExactSizeIterator<Item = Layer>, budget: Duration) -> Vec<Metric> {
    let share = budget / layers.len().max(1) as u32;
    let mut metrics = Vec::new();
    for mut layer in layers {
        let mut samples: Vec<Vec<f64>> = vec![Vec::new(); layer.outputs.len()];
        let started = Instant::now();
        loop {
            for (column, value) in samples.iter_mut().zip((layer.sample)()) {
                column.push(value);
            }
            if layer.once || started.elapsed() >= share {
                break;
            }
        }
        for (output, column) in layer.outputs.iter().zip(&mut samples) {
            let n = column.len() as u64;
            let value = match output.reduce {
                Reduce::Median => median(column),
                Reduce::Last => column.last().copied().unwrap_or(0.0),
                Reduce::P99 => {
                    column.sort_by(f64::total_cmp);
                    let rank = ((0.99 * column.len() as f64).ceil() as usize).max(1);
                    column[rank - 1]
                }
            };
            metrics.push(metric(output.name, value, output.unit, n));
        }
    }
    metrics
}

/// The per-layer metrics read off the untraced and the traced segment of a
/// `--trace 1` run (the rest come from the layer loops). A layer the workload
/// bypasses reads 0 with 0 samples.
///
/// The last ten are measured with tracing off like the end-to-end metrics,
/// but are percentiles over the whole run, noisy stretches included, where
/// `latency_p50_us` is that of the quietest twentieth. `latency_p90_us` was
/// end-to-end until the repeatability rule demoted it: over ten runs of one
/// commit its spread on the open loops passed its bound. The other nine carry
/// the names the issue gave its per-workload end-to-end metrics; each exists
/// on some workloads only, so they cannot be gated.
pub fn from_runs(kind: Kind, plain: &Outcome, traced: &Outcome) -> Vec<Metric> {
    let us = |ns: f64| ns / 1e3;
    let runtime = u64::from(kind != Kind::SimSweep);
    let report = &plain.report;
    let jobs = report.jobs_completed.max(1) as f64;
    let path = &traced.path;
    let (p50, traced_p50) = (plain.latency.quantile(0.5), traced.latency.quantile(0.5));
    let overhead = if p50 > 0.0 && runtime == 1 { (traced_p50 - p50) / p50 * 100.0 } else { 0.0 };
    let mut manager = plain.swap_manager_us.clone();
    let gap = traced.sim_ratio_same_inputs.map_or(0.0, |sim| (traced.accept_ratio - sim).abs());
    let attempted = plain.attempted + traced.attempted;
    let completed = plain.jobs_done + traced.jobs_done;
    let misses = plain.deadline_misses + traced.deadline_misses;
    // A latency that is this workload's, or nothing.
    let when = |applies: bool, lat: &Latencies, q: f64| -> (f64, u64) {
        if applies {
            (us(lat.quantile_flat(q)), lat.len() as u64)
        } else {
            (0.0, 0)
        }
    };
    let open = matches!(kind, Kind::OpenStorm | Kind::PaperReplay | Kind::BridgedSwap);
    let rtt = when(kind == Kind::ProbeRtt, &plain.latency, 0.5);
    let rtt99 = if kind == Kind::ProbeRtt { us(plain.latency.quantile_flat(0.99)) } else { 0.0 };
    let decision = (when(open, &plain.decisions, 0.5), when(open, &plain.decisions, 0.9));
    let swapping = kind == Kind::BridgedSwap;
    let swap = (when(swapping, &plain.latency, 0.5), when(swapping, &plain.latency, 0.9));
    // A program-side delay row over the timed window, in `unit`.
    let delay = |name: &str, row: Delay, unit: &'static str| {
        let mean = if unit == "us" { us(row.mean_ns()) } else { row.mean_ns() };
        metric(name, mean, unit, row.count)
    };
    let sim_rate = if runtime == 0 { plain.jobs_done as f64 / plain.window_s } else { 0.0 };
    vec![
        metric("rt.launch_us", plain.launch_us, "us", runtime),
        metric("rt.shutdown_us", plain.shutdown_us, "us", runtime),
        metric(
            "rt.submit_ns",
            plain.submit_ns.quantile_flat(0.5),
            "ns",
            plain.submit_ns.len() as u64,
        ),
        metric("rt.stats_snapshot_us", plain.stats_snapshot_us, "us", runtime),
        metric("rt.span.submit_to_arrive_us", us(path.submit_to_arrive), "us", path.jobs),
        metric("rt.span.arrive_to_decision_us", us(path.arrive_to_decision), "us", path.jobs),
        metric("rt.span.decision_to_done_us", us(path.decision_to_done), "us", path.closed_jobs),
        metric(
            "rt.span.trigger_gap_us",
            us(path.trigger_gap.mean()),
            "us",
            path.trigger_gap.len() as u64,
        ),
        metric("rt.span.done_to_reset_us", us(path.done_to_reset), "us", path.reset_jobs),
        metric("rt.span.coverage", path.coverage, "ratio", path.jobs),
        metric("rt.trace_overhead_pct", overhead, "%", traced.latency.len() as u64),
        delay("rt.report.hold_mean_ns", report.hold, "ns"),
        delay("rt.report.comm_mean_us", report.comm, "us"),
        delay("rt.report.lb_plan_mean_ns", report.lb_plan, "ns"),
        delay("rt.report.ac_test_mean_ns", report.ac_test, "ns"),
        delay("rt.report.release_mean_us", report.release, "us"),
        delay("rt.report.ir_path_mean_us", report.ir_path, "us"),
        delay("rt.report.ir_update_mean_ns", report.ir_update, "ns"),
        delay("rt.report.response_mean_us", report.response, "us"),
        delay("rt.report.total_no_realloc_mean_us", report.total_no_realloc, "us"),
        metric(
            "rt.report.reallocations",
            report.reallocations as f64,
            "count",
            report.released_jobs,
        ),
        metric(
            "rt.report.timer_wakeups_per_job",
            report.timer_wakeups as f64 / jobs,
            "ratio",
            report.jobs_completed,
        ),
        metric(
            "rt.report.reconfig_deferred_per_swap",
            report.reconfig_deferred as f64 / report.reconfig_swaps.max(1) as f64,
            "ratio",
            report.reconfig_swaps,
        ),
        metric("rt.swap.manager_p50_us", median(&mut manager), "us", manager.len() as u64),
        metric(
            "rt.quorum.prepare_to_ack_us",
            us(path.prepare_to_ack.quantile_flat(0.5)),
            "us",
            path.prepare_to_ack.len() as u64,
        ),
        metric(
            "events.published_per_job",
            report.events_published as f64 / jobs,
            "ratio",
            report.jobs_completed,
        ),
        metric(
            "events.delivered_per_job",
            report.events_delivered as f64 / jobs,
            "ratio",
            report.jobs_completed,
        ),
        metric("events.dropped", report.events_dropped as f64, "count", report.events_published),
        metric("sim.rt_accept_gap", gap, "ratio", traced.sim_ratio_same_inputs.map_or(0, |_| 1)),
        metric(
            "loadgen.lag_p50_us",
            us(plain.lag.quantile_flat(0.5)),
            "us",
            plain.lag.len() as u64,
        ),
        metric(
            "loadgen.lag_p99_us",
            us(plain.lag.quantile_flat(0.99)),
            "us",
            plain.lag.len() as u64,
        ),
        metric("loadgen.achieved_rate", plain.achieved_rate, "1/s", plain.lag.len() as u64),
        metric("loadgen.backlog_end", plain.backlog_end as f64, "count", plain.lag.len() as u64),
        metric(
            "rt.open.decision_p99_us",
            us(plain.decisions.quantile_flat(0.99)),
            "us",
            plain.decisions.len() as u64,
        ),
        metric(
            "rt.open.decision_max_us",
            us(plain.decisions.quantile_flat(1.0)),
            "us",
            plain.decisions.len() as u64,
        ),
        metric(
            "failed_ratio",
            (plain.failed + traced.failed) as f64 / attempted.max(1) as f64,
            "ratio",
            attempted,
        ),
        metric("deadline_miss_ratio", misses as f64 / completed.max(1) as f64, "ratio", completed),
        metric(
            "latency_p90_us",
            us(plain.latency.quantile_flat(0.9)),
            "us",
            plain.latency.len() as u64,
        ),
        metric("rtt_p50_us", rtt.0, "us", rtt.1),
        metric("rtt_p99_us", rtt99, "us", rtt.1),
        metric("decision_p50_us", decision.0 .0, "us", decision.0 .1),
        metric("decision_p90_us", decision.1 .0, "us", decision.1 .1),
        metric("swap_p50_us", swap.0 .0, "us", swap.0 .1),
        metric("swap_p90_us", swap.1 .0, "us", swap.1 .1),
        metric("sim_jobs_per_s", sim_rate, "1/s", (1 - runtime) * plain.jobs_done),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn contract_list(key: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let root: Value = serde_json::from_str(&text).expect("valid JSON");
        let Some(Value::Seq(items)) = root.get(key) else { panic!("no list {key}") };
        let text = |item: &Value, field: &str| match item.get(field) {
            Some(Value::Str(s)) => s.clone(),
            other => panic!("{key}: {field} is {other:?}"),
        };
        items.iter().map(|item| (text(item, "name"), text(item, "unit"))).collect()
    }

    fn named(metrics: &[Metric]) -> Vec<(String, String)> {
        metrics.iter().map(|m| (m.name.clone(), m.unit.to_string())).collect()
    }

    #[test]
    fn end_to_end_metrics_are_those_of_benchmark_json() {
        let printed = end_to_end(&Outcome::default(), 0.0, 0);
        assert_eq!(named(&printed), contract_list("end_to_end"));
    }

    #[test]
    fn per_layer_metrics_are_those_of_benchmark_json() {
        let empty = Outcome::default();
        let mut printed = from_runs(Kind::ProbeRtt, &empty, &empty);
        // One sample of every layer loop is enough to learn its names.
        printed.extend(run_layers(crate::adapter::layers(1), Duration::ZERO));
        assert_eq!(named(&printed), contract_list("per_layer"));
    }

    #[test]
    fn a_bypassed_layer_reads_zero_with_zero_samples() {
        let empty = Outcome::default();
        for m in from_runs(Kind::SimSweep, &empty, &empty) {
            assert_eq!((m.value, m.samples), (0.0, 0), "{}", m.name);
        }
    }

    #[test]
    fn layer_samples_reduce_by_their_rule() {
        let mut calls = 0.0;
        let layer = Layer {
            outputs: vec![
                crate::adapter::Output { name: "a", unit: "ns", reduce: Reduce::Median },
                crate::adapter::Output { name: "b", unit: "ns", reduce: Reduce::P99 },
                crate::adapter::Output { name: "c", unit: "count", reduce: Reduce::Last },
            ],
            once: false,
            sample: Box::new(move || {
                calls += 1.0;
                vec![calls, calls, calls]
            }),
        };
        let reduced = run_layers(std::iter::once(layer), Duration::from_millis(5));
        let n = reduced[0].samples as f64;
        assert!(n >= 2.0);
        assert_eq!(reduced[0].value, (n + 1.0) / 2.0);
        assert_eq!(reduced[1].value, (0.99 * n).ceil());
        assert_eq!(reduced[2].value, n);
    }
}
