//! Visualize the preemptive EDMS schedule: an ASCII Gantt chart of the
//! execution trace, showing an urgent alert preempting a slow control
//! task mid-execution.
//!
//! ```sh
//! cargo run --example gantt
//! ```

use rtcm::core::task::{ProcessorId, TaskBuilder, TaskId, TaskSet};
use rtcm::core::time::{Duration, Time};
use rtcm::sim::{simulate_with, SimConfig, SimOptions};
use rtcm::workload::{ArrivalConfig, ArrivalTrace, Phasing};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A slow two-stage control loop and an urgent single-stage alert
    // sharing processors 0 and 1.
    let control = TaskBuilder::periodic(TaskId(0), Duration::from_millis(100))
        .name("control")
        .subtask(Duration::from_millis(30), ProcessorId(0), [])
        .subtask(Duration::from_millis(20), ProcessorId(1), [])
        .build()?;
    let alert = TaskBuilder::periodic(TaskId(1), Duration::from_millis(40))
        .name("alert")
        .subtask(Duration::from_millis(6), ProcessorId(0), [])
        .build()?;
    let tasks = TaskSet::from_tasks([control, alert])?;

    let trace = ArrivalTrace::generate(
        &tasks,
        &ArrivalConfig {
            horizon: Duration::from_millis(200),
            poisson_factor: 2.0,
            phasing: Phasing::Simultaneous,
        },
        0,
    );
    let options = SimOptions { trace_execution: true, ..SimOptions::default() };
    let run = simulate_with(&tasks, &trace, &SimConfig::ideal("J_N_N".parse()?), &options)?;
    let (report, spans) = (run.report, run.spans.expect("tracing was on"));

    // Render: one row per processor, one column per millisecond.
    const HORIZON_MS: u64 = 200;
    println!("EDMS schedule, 200 ms ('0' = control, '1' = alert, '.' = idle):\n");
    for proc in 0..2u16 {
        let mut row = vec!['.'; HORIZON_MS as usize];
        for span in spans.iter().filter(|s| s.processor == proc) {
            let from = span.start.elapsed_since(Time::ZERO).as_millis();
            let to = span.end.elapsed_since(Time::ZERO).as_millis().min(HORIZON_MS);
            let glyph = char::from_digit(span.job.task.0, 10).unwrap_or('?');
            for slot in row.iter_mut().take(to as usize).skip(from as usize) {
                *slot = glyph;
            }
        }
        let line: String = row.into_iter().collect();
        println!("P{proc} |{}|", &line[..100]);
        println!("   |{}|", &line[100..]);
    }
    let preemptions = spans.iter().filter(|s| !s.completed).count();
    println!(
        "\n{} jobs completed, {} misses, {} preemption(s) — the alert slices into the\n\
         control task's stage on P0 whenever their releases collide.",
        report.jobs_completed, report.deadline_misses, preemptions
    );
    Ok(())
}
