//! Property-based tests of the simulator: metric bounds, determinism, and
//! AUB soundness over randomized workloads and configurations.

use proptest::collection::vec;
use proptest::prelude::*;

use rtcm_core::strategy::ServiceConfig;
use rtcm_core::task::{ProcessorId, TaskBuilder, TaskId, TaskSet, TaskSpec};
use rtcm_core::time::Duration;
use rtcm_sim::{simulate, simulate_with, SimConfig, SimOptions};
use rtcm_workload::{ArrivalConfig, ArrivalTrace, Phasing};

const PROCS: u16 = 3;

/// Small random task: 1–3 stages, deadline 40–400 ms, modest utilization.
fn arb_task(id: u32) -> impl Strategy<Value = TaskSpec> {
    let deadline_ms = 40u64..400;
    let stages = vec((0..PROCS, 0..PROCS), 1..4);
    (deadline_ms, stages, any::<bool>(), 2u64..12).prop_map(
        move |(deadline_ms, stages, periodic, exec_pct)| {
            let deadline = Duration::from_millis(deadline_ms);
            let n = stages.len() as u64;
            // Per-stage execution: a percentage of the deadline split over
            // stages, keeping total well under the deadline.
            let exec = Duration::from_millis(((deadline_ms * exec_pct) / 100 / n).max(1));
            let mut b = if periodic {
                TaskBuilder::periodic(TaskId(id), deadline)
            } else {
                TaskBuilder::aperiodic(TaskId(id)).deadline(deadline)
            };
            for (primary, replica) in &stages {
                b = b.subtask(exec, ProcessorId(*primary), [ProcessorId(*replica)]);
            }
            b.build().expect("generated tasks are valid")
        },
    )
}

fn arb_task_set(n: usize) -> impl Strategy<Value = TaskSet> {
    (0..n as u32)
        .map(arb_task)
        .collect::<Vec<_>>()
        .prop_map(|tasks| TaskSet::from_tasks(tasks).expect("distinct ids"))
}

fn trace_for(tasks: &TaskSet, seed: u64) -> ArrivalTrace {
    ArrivalTrace::generate(
        tasks,
        &ArrivalConfig {
            horizon: Duration::from_secs(3),
            poisson_factor: 1.0,
            phasing: Phasing::RandomPhase,
        },
        seed,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Ratio bounds, count consistency and record consistency for every
    /// valid combination over random workloads.
    #[test]
    fn metrics_are_consistent(tasks in arb_task_set(5), combo_idx in 0usize..15, seed in 0u64..1000) {
        let combo = ServiceConfig::all_valid()[combo_idx];
        let trace = trace_for(&tasks, seed);
        let options = SimOptions { record_jobs: true, ..SimOptions::default() };
        let run = simulate_with(&tasks, &trace, &SimConfig::new(combo), &options).unwrap();
        let (report, records) = (run.report, run.records.unwrap());
        let ratio = report.ratio.ratio();
        prop_assert!((0.0..=1.0 + 1e-9).contains(&ratio), "ratio {ratio}");
        prop_assert_eq!(report.ratio.arrived_jobs() as usize, trace.len());
        prop_assert!(report.ratio.released_jobs() <= report.ratio.arrived_jobs());
        prop_assert_eq!(
            records.iter().filter(|r| r.released).count() as u64,
            report.ratio.released_jobs()
        );
        // Every released job completes (the simulator drains fully).
        prop_assert_eq!(report.jobs_completed, report.ratio.released_jobs());
        // CPU busy time never exceeds the simulated span.
        for busy in &report.cpu_busy {
            prop_assert!(*busy <= report.end.elapsed_since(rtcm_core::time::Time::ZERO));
        }
    }

    /// With zero overheads, the AUB guarantee holds: no admitted job ever
    /// misses its deadline, regardless of workload or combination.
    #[test]
    fn aub_soundness(tasks in arb_task_set(5), combo_idx in 0usize..15, seed in 0u64..1000) {
        let combo = ServiceConfig::all_valid()[combo_idx];
        let trace = trace_for(&tasks, seed);
        let report = simulate(&tasks, &trace, &SimConfig::ideal(combo)).unwrap();
        prop_assert_eq!(report.deadline_misses, 0, "combo {}", combo.label());
    }

    /// Bit-for-bit determinism.
    #[test]
    fn determinism(tasks in arb_task_set(4), combo_idx in 0usize..15, seed in 0u64..1000) {
        let combo = ServiceConfig::all_valid()[combo_idx];
        let trace = trace_for(&tasks, seed);
        let cfg = SimConfig { seed, ..SimConfig::new(combo) };
        let a = simulate(&tasks, &trace, &cfg).unwrap();
        let b = simulate(&tasks, &trace, &cfg).unwrap();
        prop_assert_eq!(a, b);
    }
}
