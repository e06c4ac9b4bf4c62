//! **Micro-benchmark: the telemetry plane's hot-path recording cost.**
//!
//! The whole point of the lock-free registry is that nodes and the
//! manager can record every arrival, admission and completion without
//! noticing the observer. This bench pins that claim to numbers:
//!
//! * a counter increment and a histogram record must cost **under
//!   100 ns** and stay within **2×** of a bare relaxed `fetch_add` (the
//!   cheapest possible "something happened" a thread can write);
//! * a gauge store and two trace-ring appends (one short mutex hold
//!   each) are reported alongside so their cost stays visible, not
//!   assumed: a job stage as the runtime records it (packed numbers) and
//!   a free-form text record with a `format!`-built detail;
//! * rendering the full exposition page is timed per scrape — cold-path,
//!   but an operator polling at 1 Hz should know what they spend.
//!
//! Every arm is timed in 16-op windows (`rtcm_bench::measure`, p50/p99
//! over windows), and the run appends one point to `BENCH_telemetry.json`
//! at the workspace root.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

use rtcm_core::task::{JobId, TaskId};
use rtcm_rt::job_trace;
use rtcm_telemetry::{Registry, TraceBuffer};

const WINDOW: usize = 16;

fn main() {
    let quick = std::env::var("RTCM_QUICK").is_ok_and(|v| v != "0");
    let total = if quick { 100_000 } else { 1_000_000 };
    let mut rows = Vec::new();
    let mut run = |arm: &str, op: &mut dyn FnMut()| -> f64 {
        let timing = rtcm_bench::measure(total / WINDOW, WINDOW, || (), |()| op());
        println!("telemetry/{arm:<22} {timing}");
        rows.push(serde_json::json!({
            "arm": arm,
            "ops": timing.ops,
            "mean_ns": timing.mean_ns,
            "p50_ns": timing.p50_ns,
            "p99_ns": timing.p99_ns,
        }));
        timing.mean_ns
    };

    let bare = AtomicU64::new(0);
    let baseline = run("atomic_add_baseline", &mut || {
        black_box(bare.fetch_add(1, Ordering::Relaxed));
    });

    let reg = Registry::new();
    let counter = reg.counter("rtcm_bench_total", "Bench counter.");
    let counter_ns = run("counter_inc", &mut || counter.inc());

    let gauge = reg.gauge("rtcm_bench_gauge", "Bench gauge.");
    let mut level = 0.0f64;
    run("gauge_set", &mut || {
        level += 1.0;
        gauge.set(black_box(level));
    });

    let hist = reg.histogram("rtcm_bench_ns", "Bench histogram.");
    let mut v = 1u64;
    let hist_ns = run("histogram_record", &mut || {
        v = v.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        hist.record(black_box(v >> 40));
    });

    // A job stage as the runtime records it: packed numbers, rendered
    // only at scrape. Against it, the free-form text path that reconfig
    // phases and decode errors still take, with a realistic detail.
    let trace = TraceBuffer::default();
    let mut seq = 0u64;
    run("trace_record_job", &mut || {
        seq += 1;
        let job = JobId::new(TaskId(3), seq);
        trace.record_packed(seq, seq, 0, &job_trace::COMPLETION_MET, job_trace::words(job, 1));
    });
    let trace = TraceBuffer::default();
    run("trace_record_text", &mut || {
        seq += 1;
        let job = JobId::new(TaskId(3), seq);
        trace.record(seq, seq, 0, "release", format!("{job} on proc {}", seq % 3));
    });

    // Scrape cost on a realistically sized page: the rt runtime registers
    // ~30 metrics; approximate with the histogram-bearing bench registry
    // rendered whole.
    run("render_exposition", &mut || {
        black_box(reg.render_text().len());
    });

    // The tentpole's acceptance bars, checked here so a regression fails
    // the bench run itself rather than waiting for a reader to notice.
    let bar = |name: &str, got: f64| {
        assert!(got < 100.0, "{name} mean {got:.1} ns breaches the 100 ns bar");
        assert!(
            got < baseline.max(5.0) * 2.0,
            "{name} mean {got:.1} ns is over 2x the bare atomic add ({baseline:.1} ns)"
        );
    };
    bar("counter_inc", counter_ns);
    bar("histogram_record", hist_ns);

    match rtcm_bench::append_bench_point("BENCH_telemetry.json", "micro_telemetry", quick, rows) {
        Ok(path) => println!("appended a point to {}", path.display()),
        Err(e) => eprintln!("could not append to BENCH_telemetry.json: {e}"),
    }
}
