//! Cross-crate integration: workload generation → configuration engine →
//! simulator / runtime, exercising the full reproduction pipeline.

use rtcm::config::{configure, configure_with, CpsCharacteristics, WorkloadSpec};
use rtcm::core::strategy::ServiceConfig;
use rtcm::core::task::TaskId;
use rtcm::core::time::Duration;
use rtcm::sim::{simulate, OverheadModel, SimConfig};
use rtcm::workload::{ArrivalConfig, ArrivalTrace, ImbalancedWorkload, RandomWorkload};

fn arrival_config(secs: u64) -> ArrivalConfig {
    ArrivalConfig { horizon: Duration::from_secs(secs), ..ArrivalConfig::default() }
}

#[test]
fn all_fifteen_combos_simulate_cleanly() {
    let tasks = RandomWorkload::default().generate(11).unwrap();
    let trace = ArrivalTrace::generate(&tasks, &arrival_config(60), 11);
    for services in ServiceConfig::all_valid() {
        let report = simulate(&tasks, &trace, &SimConfig::new(services)).unwrap();
        let ratio = report.ratio.ratio();
        assert!((0.0..=1.0 + 1e-9).contains(&ratio), "{}: ratio {ratio}", services.label());
        assert_eq!(
            report.ratio.arrived_jobs() as usize,
            trace.len(),
            "every trace arrival is observed"
        );
    }
}

#[test]
fn invalid_combos_fail_everywhere() {
    let tasks = RandomWorkload::default().generate(3).unwrap();
    let trace = ArrivalTrace::generate(&tasks, &arrival_config(5), 3);
    let spec = WorkloadSpec::from_task_set("w", 5, &tasks);
    for services in ServiceConfig::all().into_iter().filter(|c| !c.is_valid()) {
        assert!(simulate(&tasks, &trace, &SimConfig::new(services)).is_err());
        assert!(configure_with(&spec, services).is_err());
    }
}

/// AUB soundness, end to end: with zero middleware overheads, no admitted
/// job may ever miss its end-to-end deadline — across seeds and strategy
/// combinations.
#[test]
fn admitted_jobs_never_miss_deadlines_without_overheads() {
    for seed in 0..5 {
        let tasks = RandomWorkload::default().generate(seed).unwrap();
        let trace = ArrivalTrace::generate(&tasks, &arrival_config(120), seed);
        for services in ["T_N_N", "J_N_N", "J_J_N", "J_J_J", "T_T_T"] {
            let report =
                simulate(&tasks, &trace, &SimConfig::ideal(services.parse().unwrap())).unwrap();
            assert_eq!(
                report.deadline_misses, 0,
                "seed {seed} combo {services}: AUB admitted a job that missed"
            );
        }
    }
}

/// The headline Figure-5 ordering on a reduced run: IR per job clearly
/// beats no IR, and J_J_J beats the no-service baseline.
#[test]
fn figure5_ordering_holds_on_average() {
    let mut base = 0.0;
    let mut ir_job = 0.0;
    let mut full = 0.0;
    const SEEDS: u64 = 4;
    for seed in 0..SEEDS {
        let tasks = RandomWorkload::default().generate(seed).unwrap();
        let trace = ArrivalTrace::generate(&tasks, &arrival_config(120), seed);
        let run = |label: &str| {
            simulate(&tasks, &trace, &SimConfig::new(label.parse().unwrap())).unwrap().ratio.ratio()
        };
        base += run("T_N_N");
        ir_job += run("J_J_N");
        full += run("J_J_J");
    }
    assert!(
        ir_job > base + 0.05 * SEEDS as f64,
        "IR per job must significantly beat the baseline: {ir_job} vs {base}"
    );
    assert!(full >= ir_job - 0.02 * SEEDS as f64, "J_J_J at least comparable to J_J_N");
}

/// The Figure-6 claim: on imbalanced workloads LB per task is a large win,
/// and per-job LB is not much better than per-task.
#[test]
fn figure6_lb_gain_holds_on_average() {
    let mut no_lb = 0.0;
    let mut lb_task = 0.0;
    let mut lb_job = 0.0;
    // Figure 6 is a claim about averages; individual seeds can disagree
    // sharply (one generated workload has per-job LB far below per-task),
    // so average over enough seeds for the aggregate shape to dominate.
    const SEEDS: u64 = 8;
    for seed in 0..SEEDS {
        let tasks = ImbalancedWorkload::default().generate(seed).unwrap();
        let trace = ArrivalTrace::generate(&tasks, &arrival_config(120), seed);
        let run = |label: &str| {
            simulate(&tasks, &trace, &SimConfig::new(label.parse().unwrap())).unwrap().ratio.ratio()
        };
        no_lb += run("J_T_N");
        lb_task += run("J_T_T");
        lb_job += run("J_T_J");
    }
    assert!(
        lb_task > no_lb + 0.1 * SEEDS as f64,
        "LB per task must be a significant improvement: {lb_task} vs {no_lb}"
    );
    let per_seed_gap = (lb_job - lb_task).abs() / SEEDS as f64;
    assert!(per_seed_gap < 0.15, "per-task vs per-job LB differ little: gap {per_seed_gap}");
}

/// Regression pin for the per-job LB collapse (ROADMAP: "Investigate the
/// per-job LB collapse"): on imbalanced workloads one generated seed
/// (seed 2) drives `J_T_J` to an accepted ratio of ~0.17 while `J_T_T`
/// reaches ~0.90 — per-job re-proposal keeps thrashing the placement of
/// heavy tasks, where a pinned per-task plan stays put. This test pins
/// both the collapsing seed and the seed-averaged `J_T_T` − `J_T_J` gap
/// (~0.09 over 8 seeds) so a future load-balancer change that fixes —
/// or worsens — the effect surfaces here instead of silently shifting
/// the Figure-6 averages. Everything is deterministic (vendored seeded
/// RNG), so the bands are tight by design.
#[test]
fn per_job_lb_collapse_stays_pinned() {
    let mut task_sum = 0.0;
    let mut job_sum = 0.0;
    let mut collapse_gap = None;
    const SEEDS: u64 = 8;
    for seed in 0..SEEDS {
        let tasks = ImbalancedWorkload::default().generate(seed).unwrap();
        let trace = ArrivalTrace::generate(&tasks, &arrival_config(120), seed);
        let run = |label: &str| {
            simulate(&tasks, &trace, &SimConfig::new(label.parse().unwrap())).unwrap().ratio.ratio()
        };
        let (lb_task, lb_job) = (run("J_T_T"), run("J_T_J"));
        task_sum += lb_task;
        job_sum += lb_job;
        if seed == 2 {
            collapse_gap = Some(lb_task - lb_job);
        }
    }
    let collapse_gap = collapse_gap.expect("seed 2 runs");
    assert!(
        collapse_gap > 0.5,
        "seed 2's per-job LB collapse (gap {collapse_gap:.3}) disappeared — if this is a \
         deliberate LB improvement, re-pin this test and close the ROADMAP item"
    );
    let mean_gap = (task_sum - job_sum) / SEEDS as f64;
    assert!(
        (0.03..0.15).contains(&mean_gap),
        "seed-averaged J_T_T vs J_T_J gap moved out of its pinned band: {mean_gap:.3}"
    );
}

/// Simulation determinism across the full pipeline: same seeds, same
/// everything.
#[test]
fn end_to_end_determinism() {
    let tasks = RandomWorkload::default().generate(9).unwrap();
    let trace = ArrivalTrace::generate(&tasks, &arrival_config(60), 9);
    let cfg = SimConfig {
        services: "J_J_T".parse().unwrap(),
        overheads: OverheadModel::paper_calibrated(),
        seed: 9,
    };
    let a = simulate(&tasks, &trace, &cfg).unwrap();
    let b = simulate(&tasks, &trace, &cfg).unwrap();
    assert_eq!(a, b);
}

/// Workload → spec → engine → simulator: generated workloads survive the
/// developer-facing path.
#[test]
fn generated_workload_flows_through_the_engine() {
    let tasks = RandomWorkload::default().generate(2).unwrap();
    let spec = WorkloadSpec::from_task_set("generated", 5, &tasks);
    let text = spec.to_text();
    let reparsed = WorkloadSpec::parse(&text).unwrap();
    let deployment = configure(&reparsed, &CpsCharacteristics::default()).unwrap();
    assert_eq!(deployment.tasks.len(), tasks.len());

    // Ids are re-assigned in declaration order; the sets must agree on
    // structure.
    for (a, b) in deployment.tasks.iter().zip(tasks.iter()) {
        assert_eq!(a.subtasks().len(), b.subtasks().len());
        assert_eq!(a.deadline(), b.deadline());
    }

    let trace = ArrivalTrace::generate(&deployment.tasks, &arrival_config(30), 2);
    let report = simulate(&deployment.tasks, &trace, &SimConfig::new(deployment.services)).unwrap();
    assert!(report.ratio.arrived_jobs() > 0);
}

/// The per-task/per-job boundary: under AC per task, a periodic task
/// rejected at first arrival stays rejected; under AC per job the same
/// workload recovers capacity.
#[test]
fn ac_strategy_semantics_visible_in_ratio() {
    let tasks = RandomWorkload { target_utilization: 0.8, ..RandomWorkload::default() }
        .generate(4)
        .unwrap();
    let trace = ArrivalTrace::generate(&tasks, &arrival_config(120), 4);
    let per_task = simulate(&tasks, &trace, &SimConfig::ideal("T_N_N".parse().unwrap())).unwrap();
    let per_job = simulate(&tasks, &trace, &SimConfig::ideal("J_N_N".parse().unwrap())).unwrap();
    assert!(
        per_job.ratio.ratio() >= per_task.ratio.ratio() - 1e-9,
        "job skipping cannot do worse than whole-task rejection: {} vs {}",
        per_job.ratio.ratio(),
        per_task.ratio.ratio()
    );
}

#[test]
fn trace_identity_across_combos_is_what_makes_comparison_fair() {
    // The same (task set, seed) always produces the identical trace object,
    // so per-combo differences can only come from the middleware.
    let tasks = RandomWorkload::default().generate(5).unwrap();
    let t1 = ArrivalTrace::generate(&tasks, &arrival_config(60), 5);
    let t2 = ArrivalTrace::generate(&tasks, &arrival_config(60), 5);
    assert_eq!(t1, t2);
    assert!(t1.offered_utilization(&tasks) > 0.0);
}

/// Cross-validation of the simulator against holistic response-time
/// analysis: for periodic-only workloads with zero overheads, every
/// simulated end-to-end response must stay at or below the analytical
/// bound of its task.
#[test]
fn simulated_responses_within_holistic_bounds() {
    use rtcm::core::response::analyze_response_times;
    use rtcm::core::time::Duration;
    use rtcm::sim::{simulate_with, SimOptions};

    let recorded = SimOptions { record_jobs: true, ..SimOptions::default() };
    for seed in 0..5u64 {
        let workload = RandomWorkload {
            aperiodic_tasks: 0,
            periodic_tasks: 6,
            target_utilization: 0.4,
            ..RandomWorkload::default()
        };
        let tasks = workload.generate(seed).unwrap();
        let analysis = analyze_response_times(&tasks, Duration::ZERO).unwrap();
        let trace = ArrivalTrace::generate(&tasks, &arrival_config(60), seed);
        let cfg = SimConfig::ideal("J_N_N".parse().unwrap());
        let records = simulate_with(&tasks, &trace, &cfg, &recorded).unwrap().records.unwrap();
        for record in records.iter().filter(|r| r.completed.is_some()) {
            let Some(bound) = analysis.end_to_end(record.job.task) else {
                continue; // analysis could not bound this task
            };
            let response = record.completed.expect("filtered").elapsed_since(record.arrival);
            assert!(
                response <= bound,
                "seed {seed} job {}: simulated {response} exceeds analytical bound {bound}",
                record.job
            );
        }
    }
}

#[test]
fn task_ids_survive_reindex_after_serde() {
    let tasks = RandomWorkload::default().generate(6).unwrap();
    let json = serde_json::to_string(&tasks).unwrap();
    let mut back: rtcm::core::task::TaskSet = serde_json::from_str(&json).unwrap();
    back.reindex();
    assert!(back.get(TaskId(0)).is_some());
    assert_eq!(back.len(), tasks.len());
}

/// One dispatcher, two drivers: `rtcm_core::dispatch::Cpu` under the
/// simulator's virtual clock and under a node thread's wall clock finishes
/// the same jobs in the same order. Three one-stage tasks share a
/// processor and arrive least urgent first, each while its predecessor
/// still runs, so the order is the reverse of arrival only if every
/// arrival preempts.
#[test]
fn simulator_and_runtime_complete_in_the_same_order() {
    use rtcm::core::time::Time;
    use rtcm::rt::{proto::mint_trace, ExecMode, RtOptions, System};
    use rtcm::sim::{simulate_with, SimOptions};
    use rtcm::workload::Arrival;

    let spec = WorkloadSpec::parse(
        "workload w\nprocessors 1\n\
         task low aperiodic deadline=2s\n  subtask exec=120ms proc=0\n\
         task mid aperiodic deadline=1s\n  subtask exec=60ms proc=0\n\
         task high aperiodic deadline=300ms\n  subtask exec=20ms proc=0\n",
    )
    .unwrap();
    let deployment = configure_with(&spec, "J_N_N".parse().unwrap()).unwrap();
    let arrival = |task, ms| Arrival {
        time: Time::ZERO + Duration::from_millis(ms),
        task: TaskId(task),
        seq: 0,
    };
    let trace = ArrivalTrace::from_arrivals(vec![arrival(0, 0), arrival(1, 30), arrival(2, 60)]);

    let cfg = SimConfig::ideal(deployment.services);
    let recorded = SimOptions { record_jobs: true, ..SimOptions::default() };
    let records =
        simulate_with(&deployment.tasks, &trace, &cfg, &recorded).unwrap().records.unwrap();
    let mut simulated: Vec<(Time, TaskId)> =
        records.iter().map(|r| (r.completed.expect("all three finish"), r.job.task)).collect();
    simulated.sort();
    let simulated: Vec<TaskId> = simulated.into_iter().map(|(_, task)| task).collect();

    let system =
        System::launch(&deployment, RtOptions { exec: ExecMode::Sleep, ..RtOptions::default() })
            .unwrap();
    system.replay(&trace, 1.0).unwrap();
    assert!(system.quiesce(std::time::Duration::from_secs(20)));
    let task_of = |trace_id| {
        (0..3).map(TaskId).find(|&t| mint_trace(system.host_id(), t, 0) == trace_id).unwrap()
    };
    let threaded: Vec<TaskId> = system
        .telemetry()
        .trace
        .snapshot()
        .iter()
        .filter(|r| r.stage == "completion")
        .map(|r| task_of(r.trace))
        .collect();
    let _ = system.shutdown();

    assert_eq!(simulated, [TaskId(2), TaskId(1), TaskId(0)]);
    assert_eq!(threaded, simulated);
}
