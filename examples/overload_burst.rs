//! Transient overload: an 8× burst of aperiodic alerts hits a monitored
//! plant, and the configurable admission control sheds exactly the load
//! that would otherwise cause deadline misses (the paper's §1 motivation
//! for job skipping as an overload strategy).
//!
//! ```sh
//! cargo run --release --example overload_burst
//! ```

use rtcm::core::time::{Duration, Time};
use rtcm::sim::{simulate_with, SimConfig, SimOptions};
use rtcm::workload::BurstScenario;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scenario = BurstScenario {
        horizon: Duration::from_secs(120),
        burst_start: Duration::from_secs(40),
        burst_duration: Duration::from_secs(30),
        intensity: 8.0,
        ..BurstScenario::default()
    };
    let (tasks, trace) = scenario.generate(2024)?;
    println!(
        "{} tasks; {} arrivals; 8x alert burst during [{}, {})\n",
        tasks.len(),
        trace.len(),
        scenario.burst_start,
        scenario.burst_end()
    );

    let recorded = SimOptions { record_jobs: true, ..SimOptions::default() };
    for services in ["T_N_N", "J_J_J"] {
        let run = simulate_with(&tasks, &trace, &SimConfig::new(services.parse()?), &recorded)?;
        let (report, records) = (run.report, run.records.expect("recording was on"));

        // 10-second buckets of acceptance ratio, by utilization weight.
        println!(
            "strategy {services}: overall ratio {:.3}, misses {}",
            report.ratio.ratio(),
            report.deadline_misses
        );
        print!("  t(s) ");
        for bucket in 0..12 {
            let lo = Time::ZERO + Duration::from_secs(bucket * 10);
            let hi = Time::ZERO + Duration::from_secs((bucket + 1) * 10);
            let mut arrived = 0.0;
            let mut released = 0.0;
            for r in records.iter().filter(|r| r.arrival >= lo && r.arrival < hi) {
                arrived += r.utilization;
                if r.released {
                    released += r.utilization;
                }
            }
            let ratio = if arrived > 0.0 { released / arrived } else { 1.0 };
            print!("{:>5.0}", ratio * 100.0);
        }
        println!("   (% accepted per 10 s bucket)");
    }
    println!("\nDuring the burst window the admission controller sheds load instead of");
    println!("missing deadlines; per-job strategies recover instantly afterwards.");
    Ok(())
}
