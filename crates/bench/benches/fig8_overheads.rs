//! **Figure 8 — Service Overheads (µs), §7.3.**
//!
//! Reproduces the paper's overhead table on the threaded runtime: 3
//! application processors plus a task-manager node, random workload
//! (subtasks/task ~ U{1..3}), middleware operations timed at the
//! instrumentation points of Figure 7:
//!
//! | row | path |
//! |---|---|
//! | AC without LB | ops 1+2+4+2+5 (total arrival→release, no LB) |
//! | AC with LB (no re-allocation) | ops 1+2+3+2+5 |
//! | AC with LB (re-allocation) | ops 1+2+3+2+6 |
//! | IR (on AC side) | op 8 |
//! | IR (other part) | ops 7+2 |
//! | Communication delay | op 2, measured as paper does: 1000 ping-pongs / 2 |
//!
//! Unlike the paper's testbed, all nodes share one clock, so one-way
//! delays are additionally measured *directly* (reported as extra rows).
//! And unlike the paper's mean/max-only table, every row is backed by the
//! telemetry plane's log2 histograms, so p50/p90/p99 columns come for
//! free. Absolute values reflect this machine, not 2002-era Pentiums; the
//! table's *structure* (re-allocation ≈ one extra hop, IR's AC-side cost
//! tiny, all delays ≪ 2 ms + network) is the reproduction target.
//!
//! `RTCM_QUICK=1` shrinks run time; `RTCM_RT_SECS=n` overrides per-scenario
//! wall-clock seconds.

use std::time::{Duration as StdDuration, Instant};

use rtcm_config::{configure_with, WorkloadSpec};
use rtcm_core::time::Duration;
use rtcm_events::{Federation, Latency, NodeId, Topic};
use rtcm_rt::{RtOptions, System, SystemReport};
use rtcm_telemetry::{Histogram, HistogramSnapshot};
use rtcm_workload::{ArrivalConfig, ArrivalTrace, RandomWorkload};

fn scenario_seconds() -> u64 {
    let quick = std::env::var("RTCM_QUICK").is_ok_and(|v| v != "0");
    std::env::var("RTCM_RT_SECS").ok().and_then(|v| v.parse().ok()).unwrap_or(if quick {
        3
    } else {
        15
    })
}

/// One scenario's outputs: the merged report plus the per-operation
/// histogram snapshots captured from the telemetry plane before shutdown
/// (the report's `DelayStats` carry mean/min/max; the percentile columns
/// need the full bucket distributions).
struct Scenario {
    report: SystemReport,
    total_no_realloc: HistogramSnapshot,
    total_realloc: HistogramSnapshot,
    ir_update: HistogramSnapshot,
    ir_path: HistogramSnapshot,
    hold: HistogramSnapshot,
    comm: HistogramSnapshot,
    lb_plan: HistogramSnapshot,
    ac_test: HistogramSnapshot,
    release: HistogramSnapshot,
}

/// Runs one strategy combination on the runtime for `secs` wall-clock
/// seconds, replaying a §7.3-style workload in real time.
fn run_scenario(services: &str, secs: u64, seed: u64) -> Scenario {
    // §7.3 workload: like §7.1 but 3 application processors and 1–3
    // subtasks per task. Deadlines are shortened to 250 ms – 2 s so a
    // short wall-clock run still yields enough admission-path samples
    // (documented deviation: sample density, not semantics).
    let workload = RandomWorkload {
        processors: 3,
        subtasks: (1, 3),
        deadline: (Duration::from_millis(250), Duration::from_secs(2)),
        ..RandomWorkload::default()
    };
    let tasks = workload.generate(seed).expect("satisfiable workload");
    let trace = ArrivalTrace::generate(
        &tasks,
        &ArrivalConfig { horizon: Duration::from_secs(secs), ..ArrivalConfig::default() },
        seed,
    );
    let spec = WorkloadSpec::from_task_set("fig8", 3, &tasks);
    let deployment = configure_with(&spec, services.parse().expect("valid combo"))
        .expect("engine accepts generated workloads");
    let system = System::launch(&deployment, RtOptions::default()).expect("launch");

    let start = Instant::now();
    for arrival in trace.iter() {
        let due = StdDuration::from_nanos(arrival.time.as_nanos());
        if let Some(wait) = due.checked_sub(start.elapsed()) {
            std::thread::sleep(wait);
        }
        system.submit(arrival.task, arrival.seq).expect("submit");
    }
    let _ = system.quiesce(StdDuration::from_secs(30));
    // Let trailing idle-reset reports drain.
    std::thread::sleep(StdDuration::from_millis(200));
    let m = system.telemetry();
    let (total_no_realloc, total_realloc) =
        (m.total_no_realloc.snapshot(), m.total_realloc.snapshot());
    let (ir_update, ir_path) = (m.ir_update.snapshot(), m.ir_path.snapshot());
    let (hold, comm) = (m.hold.snapshot(), m.comm.snapshot());
    let (lb_plan, ac_test, release) =
        (m.lb_plan.snapshot(), m.ac_test.snapshot(), m.release.snapshot());
    Scenario {
        report: system.shutdown(),
        total_no_realloc,
        total_realloc,
        ir_update,
        ir_path,
        hold,
        comm,
        lb_plan,
        ac_test,
        release,
    }
}

/// The paper's communication-delay measurement: push an event back and
/// forth 1000 times, then halve the mean/max round trip.
fn ping_pong(iterations: u32) -> HistogramSnapshot {
    const PING: Topic = Topic(100);
    const PONG: Topic = Topic(101);
    let fed = Federation::new(2, Latency::FIGURE_8, 7);
    let a = fed.handle(NodeId(0)).expect("node 0");
    let b = fed.handle(NodeId(1)).expect("node 1");
    let pong_rx = a.subscribe(PONG);
    let ping_rx = b.subscribe(PING);
    let stats = Histogram::new();
    for _ in 0..iterations {
        let t0 = Instant::now();
        a.publish(PING, &b"ping"[..]);
        ping_rx.recv_timeout(StdDuration::from_secs(5)).expect("ping delivered");
        b.publish(PONG, &b"pong"[..]);
        pong_rx.recv_timeout(StdDuration::from_secs(5)).expect("pong delivered");
        let rtt = t0.elapsed();
        stats.record((rtt / 2).as_nanos() as u64);
    }
    stats.snapshot()
}

fn row(label: &str, h: &HistogramSnapshot) {
    let us = |ns: u64| ns / 1_000;
    if h.count == 0 {
        println!(
            "{label:<44} {:>8} {:>8} {:>8} {:>8} {:>8}   (no samples)",
            "-", "-", "-", "-", "-"
        );
    } else {
        println!(
            "{label:<44} {:>8.0} {:>8} {:>8} {:>8} {:>8}   ({} samples)",
            h.mean() / 1_000.0,
            us(h.quantile(0.50)),
            us(h.quantile(0.90)),
            us(h.quantile(0.99)),
            us(h.max),
            h.count
        );
    }
}

fn main() {
    let secs = scenario_seconds();
    println!("== Figure 8: service overheads (µs), {secs}s per scenario ==\n");

    println!("running scenario 1/3: AC without LB (J_N_N) ...");
    let no_lb = run_scenario("J_N_N", secs, 1);
    println!("running scenario 2/3: AC with LB (J_N_T) ...");
    let with_lb = run_scenario("J_N_T", secs, 1);
    println!("running scenario 3/3: AC + IR + LB (J_J_T) ...");
    let with_ir = run_scenario("J_J_T", secs, 1);
    println!("measuring communication delay: 1000 ping-pongs ...\n");
    let comm = ping_pong(1_000);

    println!(
        "{:<44} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "row (Figure 7 ops)", "mean", "p50", "p90", "p99", "max"
    );
    row("AC without LB (1+2+4+2+5)", &no_lb.total_no_realloc);
    row("AC with LB, no re-allocation (1+2+3+2+5)", &with_lb.total_no_realloc);
    row("AC with LB, re-allocation (1+2+3+2+6)", &with_lb.total_realloc);
    row("LB, no re-allocation (1+2+3+2+5)", &with_lb.total_no_realloc);
    row("LB, re-allocation (1+2+3+2+6)", &with_lb.total_realloc);
    row("IR on AC side (8)", &with_ir.ir_update);
    row("IR other part (7+2)", &with_ir.ir_path);
    row("Communication delay (2), ping-pong/2", &comm);

    println!("\n-- per-operation detail (beyond the paper; shared-clock one-way) --");
    row("op 1: TE hold + push", &with_lb.hold);
    row("op 2: one-way TE->AC, measured", &with_lb.comm);
    row("op 3: LB plan generation", &with_lb.lb_plan);
    row("op 4: admission test", &with_lb.ac_test);
    row("op 5: release", &with_lb.release);

    println!(
        "\nsanity: completed jobs {} / {} / {}; deadline misses {} / {} / {}",
        no_lb.report.jobs_completed,
        with_lb.report.jobs_completed,
        with_ir.report.jobs_completed,
        no_lb.report.deadline_misses,
        with_lb.report.deadline_misses,
        with_ir.report.deadline_misses,
    );
}
