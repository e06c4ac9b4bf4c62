//! **Micro-benchmark: the telemetry plane's hot-path recording cost.**
//!
//! The whole point of the lock-free registry is that nodes and the
//! manager can record every arrival, admission and completion without
//! noticing the observer. This bench pins that claim to numbers:
//!
//! * a counter increment and a histogram record must cost **under
//!   100 ns** and stay within **2×** of a bare relaxed `fetch_add` (the
//!   cheapest possible "something happened" a thread can write);
//! * a trace-ring append (one short mutex hold) is reported alongside so
//!   its cost stays visible, not assumed;
//! * rendering the full exposition page is timed per scrape — cold-path,
//!   but an operator polling at 1 Hz should know what they spend.
//!
//! The burst section times 16-op windows, p50/p99 over samples, and
//! appends one point to `BENCH_telemetry.json` at the workspace root.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use criterion::{black_box, criterion_group, Criterion};
use rtcm_telemetry::{Registry, TraceBuffer};

fn bench_telemetry(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry");

    let bare = AtomicU64::new(0);
    group.bench_function("atomic_add_baseline", |b| {
        b.iter(|| black_box(bare.fetch_add(1, Ordering::Relaxed)));
    });

    let reg = Registry::new();
    let counter = reg.counter("rtcm_bench_total", "Bench counter.");
    group.bench_function("counter_inc", |b| {
        b.iter(|| counter.inc());
    });

    let gauge = reg.gauge("rtcm_bench_gauge", "Bench gauge.");
    group.bench_function("gauge_set", |b| {
        let mut v = 0.0f64;
        b.iter(|| {
            v += 1.0;
            gauge.set(black_box(v));
        });
    });

    let hist = reg.histogram("rtcm_bench_ns", "Bench histogram.");
    group.bench_function("histogram_record", |b| {
        let mut v = 1u64;
        b.iter(|| {
            v = v.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            hist.record(black_box(v >> 40));
        });
    });

    let trace = TraceBuffer::default();
    group.bench_function("trace_record", |b| {
        let mut seq = 0u64;
        b.iter(|| {
            seq += 1;
            trace.record(seq, seq, 0, "arrival", String::new());
        });
    });

    group.bench_function("render_exposition", |b| {
        b.iter(|| black_box(reg.render_text().len()));
    });
    group.finish();
}

/// Times `total` ops in 16-op windows; returns `(mean ns, p50 ns, p99 ns)`.
fn measure(total: usize, mut op: impl FnMut()) -> (f64, f64, f64) {
    const SAMPLE: usize = 16;
    // Warm up outside the books.
    for _ in 0..total / 10 {
        op();
    }
    let mut samples: Vec<f64> = Vec::with_capacity(total / SAMPLE);
    let mut spent = Duration::ZERO;
    for _ in 0..total / SAMPLE {
        let start = Instant::now();
        for _ in 0..SAMPLE {
            op();
        }
        let elapsed = start.elapsed();
        spent += elapsed;
        samples.push(elapsed.as_secs_f64() / SAMPLE as f64 * 1e9);
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let pct = |p: f64| samples[((samples.len() - 1) as f64 * p) as usize];
    (spent.as_secs_f64() * 1e9 / (samples.len() * SAMPLE) as f64, pct(0.50), pct(0.99))
}

fn emit_json() {
    let quick = std::env::var("RTCM_QUICK").is_ok_and(|v| v != "0");
    let total = if quick { 100_000 } else { 1_000_000 };
    let mut rows = Vec::new();
    let mut run = |arm: &str, op: &mut dyn FnMut()| -> f64 {
        let (mean_ns, p50_ns, p99_ns) = measure(total, op);
        println!(
            "telemetry/{arm:<22} mean {mean_ns:>8.1} ns  p50 {p50_ns:>8.1} ns  \
             p99 {p99_ns:>8.1} ns"
        );
        rows.push(serde_json::json!({
            "arm": arm,
            "ops": total,
            "mean_ns": mean_ns,
            "p50_ns": p50_ns,
            "p99_ns": p99_ns,
        }));
        mean_ns
    };

    let bare = AtomicU64::new(0);
    let baseline = run("atomic_add_baseline", &mut || {
        black_box(bare.fetch_add(1, Ordering::Relaxed));
    });

    let reg = Registry::new();
    let counter = reg.counter("rtcm_bench_total", "Bench counter.");
    let counter_ns = run("counter_inc", &mut || counter.inc());

    let hist = reg.histogram("rtcm_bench_ns", "Bench histogram.");
    let mut v = 1u64;
    let hist_ns = run("histogram_record", &mut || {
        v = v.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        hist.record(black_box(v >> 40));
    });

    let trace = TraceBuffer::default();
    let mut seq = 0u64;
    run("trace_record", &mut || {
        seq += 1;
        trace.record(seq, seq, 0, "arrival", String::new());
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

criterion_group!(benches, bench_telemetry);

fn main() {
    benches();
    emit_json();
}
