//! **Micro-benchmark: federation-simulator scaling (hosts vs wall time).**
//!
//! The tentpole claim of the federated simulator is that a multi-host
//! failure campaign is *cheap*: hundreds of seeded runs fit in a CI
//! minute because everything — links, clocks, crashes, the two-phase
//! protocol — advances on one in-memory event heap. This bench pins the
//! scaling curve: wall time per randomized campaign (fixed 600 ms virtual
//! horizon, full fault storm, invariant checks on) as the simulated host
//! count doubles from 2 to 16.
//!
//! Each campaign run also *asserts its invariants*, so this bench doubles
//! as a scaling-sized safety sweep: a regression that breaks
//! no-partial-swap at 16 hosts fails the bench, not just a reader's eye.
//!
//! Output: per-arm mean/p50/p99 wall nanoseconds plus processed-event
//! counts, appended as one point to `BENCH_simfed.json` at the workspace
//! root (uploaded as a CI artifact for the scaling trajectory).

use std::time::Instant;

use rtcm_sim::Campaign;

const HORIZON_MS: u64 = 600;

/// Runs `runs` campaigns at `hosts` and returns
/// `(mean ns, p50 ns, p99 ns, total events)`.
fn measure(hosts: u16, runs: u64, seed_base: u64) -> (f64, f64, f64, u64) {
    let mut samples: Vec<f64> = Vec::with_capacity(runs as usize);
    let mut events = 0u64;
    for run in 0..runs {
        let campaign = Campaign::randomized(seed_base + run, hosts, HORIZON_MS);
        let start = Instant::now();
        let outcome = campaign.run().expect("campaign runs");
        samples.push(start.elapsed().as_secs_f64() * 1e9);
        outcome.assert_clean();
        events += outcome.report.events;
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let pct = |p: f64| samples[((samples.len() - 1) as f64 * p) as usize];
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    (mean, pct(0.50), pct(0.99), events)
}

fn main() {
    let quick = std::env::var("RTCM_QUICK").is_ok_and(|v| v != "0");
    let runs = if quick { 20 } else { 100 };
    let mut rows = Vec::new();
    let mut scaling = Vec::new();
    for hosts in [2u16, 4, 8, 16] {
        let (mean_ns, p50_ns, p99_ns, events) = measure(hosts, runs, 7_000 + u64::from(hosts));
        println!(
            "simfed/hosts_{hosts:<2} mean {:>10.0} ns  p50 {:>10.0} ns  p99 {:>10.0} ns  \
             ({events} events over {runs} clean campaigns)",
            mean_ns, p50_ns, p99_ns
        );
        rows.push(serde_json::json!({
            "arm": format!("hosts_{hosts}"),
            "hosts": hosts,
            "horizon_ms": HORIZON_MS,
            "mean_ns": mean_ns,
            "p50_ns": p50_ns,
            "p99_ns": p99_ns,
            "events": events,
            "runs": runs,
        }));
        scaling.push(mean_ns);
    }

    // The scaling bar: 8x the hosts may not cost more than 64x the wall
    // time (i.e. stays within ~quadratic of the 2-host baseline — the
    // event count itself grows superlinearly with hosts because every
    // host pair is a link and every host injects its own arrivals).
    let ratio = scaling[3] / scaling[0].max(1.0);
    assert!(ratio < 64.0, "16-host campaigns cost {ratio:.1}x the 2-host baseline (bar: 64x)");

    match rtcm_bench::append_bench_point("BENCH_simfed.json", "micro_simfed", quick, rows) {
        Ok(path) => println!("appended a point to {}", path.display()),
        Err(e) => eprintln!("could not append to BENCH_simfed.json: {e}"),
    }
}
