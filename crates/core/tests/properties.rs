//! Property-based tests for the core scheduling machinery: ledger
//! invariants (driven through the admission controller, which owns every
//! share), admission soundness and rollback, balancer validity, and
//! strategy parsing.

use proptest::collection::vec;
use proptest::prelude::*;

use rtcm_core::admission::AdmissionController;
use rtcm_core::aub::{aub_term, bound_lhs, BOUND_EPSILON};
use rtcm_core::balance::{Assignment, LoadBalancer};
use rtcm_core::ledger::{ContributionKey, UtilizationLedger};
use rtcm_core::priority::assign_edms;
use rtcm_core::strategy::ServiceConfig;
use rtcm_core::task::{JobId, ProcessorId, TaskBuilder, TaskId, TaskSet, TaskSpec};
use rtcm_core::time::{Duration, Time};

const PROCS: u16 = 4;

/// Strategy: a small single- or multi-stage task over `PROCS` processors.
fn arb_task(id: u32) -> impl Strategy<Value = TaskSpec> {
    let deadline_ms = 50u64..2_000;
    let stages = vec((1u64..40, 0..PROCS, 0..PROCS), 1..5);
    (deadline_ms, stages, any::<bool>()).prop_map(move |(deadline, stages, periodic)| {
        let deadline = Duration::from_millis(deadline);
        let total: u64 = stages.iter().map(|(e, _, _)| *e).sum();
        // Scale execution times so the chain always fits in the deadline.
        let scale = (deadline.as_millis() / 2).max(1);
        let mut builder = if periodic {
            TaskBuilder::periodic(TaskId(id), deadline)
        } else {
            TaskBuilder::aperiodic(TaskId(id)).deadline(deadline)
        };
        for (exec, primary, replica) in &stages {
            let exec_ms = (exec * scale / total.max(1)).max(1);
            builder = builder.subtask(
                Duration::from_millis(exec_ms),
                ProcessorId(*primary),
                [ProcessorId(*replica)],
            );
        }
        builder.build().expect("generated tasks are valid")
    })
}

fn arb_tasks(n: usize) -> impl Strategy<Value = Vec<TaskSpec>> {
    (0..n as u32).map(arb_task).collect::<Vec<_>>().prop_map(|tasks| tasks)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The AUB term is non-negative and monotone on [0, 1).
    #[test]
    fn aub_term_monotone(a in 0.0f64..0.99, b in 0.0f64..0.99) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(aub_term(lo) >= 0.0);
        prop_assert!(aub_term(lo) <= aub_term(hi) + 1e-12);
    }

    /// Driven through the controller, which owns every share: idle-reset
    /// round trips leave utilization at exactly zero, and totals never go
    /// negative along the way.
    #[test]
    fn ledger_add_remove_round_trip(
        jobs in vec((0..PROCS, 1u64..2_000, 0u64..20), 1..60)
    ) {
        let mut ac = AdmissionController::new("J_J_N".parse().unwrap(), PROCS as usize).unwrap();
        let mut now = Time::ZERO;
        let mut admitted = Vec::new();
        for (i, (proc, exec_us, dt_ms)) in jobs.into_iter().enumerate() {
            now += Duration::from_millis(dt_ms);
            let task = TaskBuilder::aperiodic(TaskId(i as u32))
                .deadline(Duration::from_secs(10))
                .subtask(Duration::from_micros(exec_us), ProcessorId(proc), [])
                .build()
                .unwrap();
            if ac.handle_arrival(&task, 0, now).unwrap().is_accept() {
                admitted.push((ProcessorId(proc), ContributionKey::new(JobId::new(task.id(), 0), 0)));
            }
            for p in 0..PROCS {
                prop_assert!(ac.ledger().utilization(ProcessorId(p)) >= 0.0);
            }
        }
        for (p, key) in admitted {
            prop_assert!(ac.apply_idle_reset(p, &[key]) > 0.0);
            prop_assert!(ac.ledger().utilization(p) >= 0.0);
        }
        for p in 0..PROCS {
            prop_assert_eq!(ac.ledger().utilization(ProcessorId(p)), 0.0);
        }
    }

    /// Expiry takes exactly the deadline-bound shares at or before `now`,
    /// never reserved ones.
    #[test]
    fn ledger_expiry_is_exact(
        deadlines in vec(1u64..1_000, 1..40),
        cut in 1u64..1_000
    ) {
        let mut ac = AdmissionController::new("T_N_N".parse().unwrap(), 1).unwrap();
        let reserved = TaskBuilder::periodic(TaskId(0), Duration::from_millis(100))
            .subtask(Duration::from_millis(1), ProcessorId(0), [])
            .build()
            .unwrap();
        prop_assert!(ac.handle_arrival(&reserved, 0, Time::ZERO).unwrap().is_accept());
        for (i, d) in deadlines.iter().enumerate() {
            let task = TaskBuilder::aperiodic(TaskId(1 + i as u32))
                .deadline(Duration::from_millis(*d))
                .subtask(Duration::from_micros(10), ProcessorId(0), [])
                .build()
                .unwrap();
            prop_assert!(ac.handle_arrival(&task, 0, Time::ZERO).unwrap().is_accept());
        }
        ac.expire(Time::ZERO + Duration::from_millis(cut));
        let expected = deadlines.iter().filter(|d| **d <= cut).count();
        prop_assert_eq!(
            ac.ledger().contribution_count(ProcessorId(0)),
            deadlines.len() - expected + 1
        );
        prop_assert_eq!(ac.current_entries(), deadlines.len() - expected + 1);
    }

    /// Whenever the admission controller accepts, the AUB condition holds
    /// for every processor-visit list it tracks; whenever it rejects, the
    /// ledger is exactly as it was before the call.
    #[test]
    fn admission_sound_and_rollback_clean(
        tasks in arb_tasks(12),
        config_idx in 0usize..15
    ) {
        let config = ServiceConfig::all_valid()[config_idx];
        let mut ac = AdmissionController::new(config, PROCS as usize).unwrap();
        let mut now = Time::ZERO;
        for (i, task) in tasks.iter().enumerate() {
            now += Duration::from_millis(7 * (i as u64 % 5));
            // Snapshot after expiry so rejection rollback is observable in
            // isolation (handle_arrival expires lazily on entry).
            ac.expire(now);
            let before = ac.ledger().utilizations();
            let decision = ac.handle_arrival(task, 0, now).unwrap();
            match decision {
                rtcm_core::admission::Decision::Accept { assignment, newly_admitted } => {
                    prop_assert!(assignment.is_valid_for(task));
                    if newly_admitted {
                        // The candidate's own bound must hold.
                        let u = ac.ledger().utilizations();
                        let lhs = bound_lhs(
                            assignment.as_slice().iter().map(|p| u[p.index()]),
                        );
                        prop_assert!(lhs <= 1.0 + BOUND_EPSILON, "lhs = {lhs}");
                    }
                }
                rtcm_core::admission::Decision::Reject { .. } => {
                    let after = ac.ledger().utilizations();
                    for (b, a) in before.iter().zip(&after) {
                        prop_assert!((b - a).abs() < 1e-12, "rollback must not move U");
                    }
                }
            }
        }
    }

    /// The balancer only ever places subtasks on declared candidates, for
    /// every strategy.
    #[test]
    fn balancer_respects_candidates(tasks in arb_tasks(8), strat in 0usize..3) {
        let strategy = rtcm_core::strategy::LbStrategy::all()[strat];
        let mut lb = LoadBalancer::new(strategy);
        let ledger = UtilizationLedger::new(PROCS as usize);
        for task in &tasks {
            let plan = lb.assignment_for(task, &ledger);
            prop_assert!(plan.is_valid_for(task));
        }
    }

    /// Greedy proposals pick a minimal-utilization candidate for the first
    /// stage.
    #[test]
    fn balancer_first_stage_is_argmin(
        task in arb_task(0),
        loads in vec(0.0f64..0.9, PROCS as usize)
    ) {
        let mut ledger = UtilizationLedger::new(PROCS as usize);
        for (p, u) in loads.iter().enumerate() {
            ledger.add(ProcessorId(p as u16), *u).unwrap();
        }
        let plan = LoadBalancer::propose(&task, &ledger);
        let chosen = plan.processor(0);
        let best = task.subtasks()[0]
            .candidates()
            .map(|c| ledger.utilization(c))
            .fold(f64::INFINITY, f64::min);
        prop_assert!(ledger.utilization(chosen) <= best + 1e-12);
    }

    /// EDMS yields a permutation of 0..n consistent with deadline order.
    #[test]
    fn edms_is_deadline_consistent(tasks in arb_tasks(10)) {
        let set = TaskSet::from_tasks(tasks.clone()).unwrap();
        let prio = assign_edms(&set);
        for a in &tasks {
            for b in &tasks {
                if a.deadline() < b.deadline() {
                    prop_assert!(prio[&a.id()].is_higher_than(prio[&b.id()]));
                }
            }
        }
    }

    /// Label parsing is the inverse of display for every combination.
    #[test]
    fn config_label_round_trip(idx in 0usize..18) {
        let cfg = ServiceConfig::all()[idx];
        let back: ServiceConfig = cfg.label().parse().unwrap();
        prop_assert_eq!(back, cfg);
    }

    /// Assignments built from primaries are always valid and never count as
    /// re-allocations.
    #[test]
    fn primary_assignment_valid(task in arb_task(0)) {
        let plan = Assignment::primaries(&task);
        prop_assert!(plan.is_valid_for(&task));
        prop_assert!(!plan.is_reallocation(&task));
    }

    /// Time arithmetic: (t + d) - t == d and ordering is consistent.
    #[test]
    fn time_arithmetic_round_trip(t in 0u64..u64::MAX / 4, d in 0u64..u64::MAX / 4) {
        let time = Time::from_nanos(t);
        let dur = Duration::from_nanos(d);
        prop_assert_eq!((time + dur) - time, dur);
        prop_assert_eq!((time + dur).elapsed_since(time), dur);
        prop_assert!(time + dur >= time);
    }

    /// Duration unit conversions are consistent with nanosecond math.
    #[test]
    fn duration_units_consistent(ms in 0u64..10_000_000) {
        let d = Duration::from_millis(ms);
        prop_assert_eq!(d.as_nanos(), ms * 1_000_000);
        prop_assert_eq!(d.as_micros(), ms * 1_000);
        prop_assert_eq!(d.as_millis(), ms);
        let f = d.as_secs_f64();
        prop_assert!((f - ms as f64 / 1e3).abs() < 1e-9);
        // std round trip.
        let std: std::time::Duration = d.into();
        prop_assert_eq!(Duration::from(std), d);
    }

    /// The ratio stays within [0, 1] whenever releases never exceed
    /// arrivals (each weight summed in arrival order, as the registry's
    /// gauges sum them).
    #[test]
    fn ratio_stays_in_unit_interval(weights in vec((0.01f64..2.0, any::<bool>()), 0..30)) {
        use rtcm_core::metrics::UtilizationRatio;
        let (mut arrived, mut released, mut released_jobs) = (0.0, 0.0, 0);
        for (w, was_released) in &weights {
            arrived += w;
            if *was_released {
                released += w;
                released_jobs += 1;
            }
        }
        let arrived_jobs = weights.len() as u64;
        let r = UtilizationRatio::from_parts(arrived, released, arrived_jobs, released_jobs);
        prop_assert!(r.ratio() <= 1.0 + 1e-12);
        prop_assert!(r.ratio() >= 0.0);
    }
}
