//! Differential testing of the incremental admission path against the
//! brute-force AUB oracle.
//!
//! The admission controller's hot path answers the system-wide AUB
//! question from cached per-entry sums maintained through a per-processor
//! inverted index (`AdmissionMode::Incremental`). The original
//! re-evaluate-everything scan survives as `AdmissionMode::BruteForce` /
//! `system_schedulable_brute` precisely so it can sit on the other side of
//! this harness: every randomized trace of {arrival, expiry, idle-reset,
//! withdraw, remote-commit, **mid-trace `ServiceConfig` swap**} operations
//! is replayed through both paths under **all 15 valid service
//! configurations** (as the *starting* configuration — swaps then wander
//! the trace across the whole combination lattice, exercising the ledger
//! handover of `AdmissionController::reconfigure`), and the two
//! controllers must agree on every `Decision`, every freed utilization,
//! every `HandoverReport`, and the final ledger state to 1e-9.
//!
//! Each property runs 256 cases (the vendored proptest is deterministic
//! per test, so a green run is exactly reproducible), giving ≥ 256 traces
//! per strategy combination.

use proptest::collection::vec;
use proptest::prelude::*;

use rtcm_core::admission::{AdmissionController, AdmissionMode, Decision};
use rtcm_core::analysis::audit_controller;
use rtcm_core::balance::Assignment;
use rtcm_core::ledger::ContributionKey;
use rtcm_core::strategy::ServiceConfig;
use rtcm_core::task::{JobId, ProcessorId, TaskBuilder, TaskId, TaskSet, TaskSpec};
use rtcm_core::time::{Duration, Time};

const PROCS: u16 = 4;

/// One raw trace step; interpreted by [`run_trace`]. Generating plain
/// integers keeps the strategy simple under the vendored proptest (no
/// `prop_oneof`) while still covering every operation kind.
type RawOp = (u8, u64, u32, u32);

/// Strategy: a small single- or multi-stage task over `PROCS` processors,
/// periodic or aperiodic, with execution times scaled into the deadline.
fn arb_task(id: u32) -> impl Strategy<Value = TaskSpec> {
    let deadline_ms = 30u64..300;
    let stages = vec((1u64..30, 0..PROCS, 0..PROCS), 1..4);
    (deadline_ms, stages, any::<bool>()).prop_map(move |(deadline, stages, periodic)| {
        let deadline = Duration::from_millis(deadline);
        let total: u64 = stages.iter().map(|(e, _, _)| *e).sum();
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
    #[allow(clippy::cast_possible_truncation)]
    (0..n as u32).map(arb_task).collect::<Vec<_>>().prop_map(|tasks| tasks)
}

/// Replays one trace through paired incremental/brute-force controllers,
/// asserting step-by-step agreement. Returns the number of admission
/// decisions compared.
fn run_trace(config: ServiceConfig, tasks: &[TaskSpec], ops: &[RawOp]) -> usize {
    let procs = usize::from(PROCS);
    let mut inc = AdmissionController::with_mode(config, procs, AdmissionMode::Incremental)
        .expect("valid config");
    let mut brute = AdmissionController::with_mode(config, procs, AdmissionMode::BruteForce)
        .expect("valid config");
    let task_set = TaskSet::from_tasks(tasks.to_vec()).expect("generated ids are unique");

    let mut now = Time::ZERO;
    let mut seqs = vec![0u64; tasks.len()];
    let mut admitted: Vec<(JobId, Assignment)> = Vec::new();
    let mut decisions = 0usize;

    for (step, &(kind, dt, x, y)) in ops.iter().enumerate() {
        now = now.saturating_add(Duration::from_millis(dt % 40));
        let t_idx = (x as usize) % tasks.len();
        let task = &tasks[t_idx];
        match kind % 9 {
            // Weighted toward arrivals: they exercise the decision path.
            0..=3 => {
                let seq = seqs[t_idx];
                seqs[t_idx] += 1;
                let a = inc.handle_arrival(task, seq, now);
                let b = brute.handle_arrival(task, seq, now);
                assert_eq!(a, b, "{config}: step {step} diverged for {}", task.id());
                decisions += 1;
                if let Ok(Decision::Accept { assignment, .. }) = a {
                    admitted.push((JobId::new(task.id(), seq), assignment));
                }
            }
            4 => {
                inc.expire(now);
                brute.expire(now);
            }
            5 => {
                if !admitted.is_empty() {
                    let (job, plan) = &admitted[(y as usize) % admitted.len()];
                    let subtask = (x as usize) % plan.len();
                    let key = ContributionKey::new(*job, subtask);
                    let processor = plan.processor(subtask);
                    let fa = inc.apply_idle_reset(processor, &[key]);
                    let fb = brute.apply_idle_reset(processor, &[key]);
                    assert_eq!(
                        fa.to_bits(),
                        fb.to_bits(),
                        "{config}: step {step} freed different utilization"
                    );
                }
            }
            6 => {
                inc.withdraw_task(task.id());
                brute.withdraw_task(task.id());
            }
            7 => {
                // Un-tested peer load: the one operation that can push
                // current entries over the bound, forcing both paths to
                // remember system-wide violations.
                let seq = seqs[t_idx];
                seqs[t_idx] += 1;
                let plan = Assignment::primaries(task);
                inc.apply_remote_commit(task, seq, now, &plan).expect("primaries are valid");
                brute.apply_remote_commit(task, seq, now, &plan).expect("primaries are valid");
            }
            8 => {
                // Mid-trace configuration swap: both controllers execute
                // the same ledger handover (drain/reseed/axis swaps) and
                // must report identical outcomes.
                let valid = ServiceConfig::all_valid();
                let target = valid[(y as usize) % valid.len()];
                let ra = inc.reconfigure(target, now, &task_set).expect("valid targets");
                let rb = brute.reconfigure(target, now, &task_set).expect("valid targets");
                assert_eq!(ra, rb, "{config}: step {step} handover diverged");
                assert_eq!(inc.config(), target);
            }
            _ => unreachable!(),
        }

        if step % 16 == 15 {
            // The declarative-model audit: cached sums must match fresh
            // recomputation, and the inverted index its entries, on both
            // sides, mid-trace.
            for (label, ac) in [("incremental", &inc), ("brute", &brute)] {
                let audit = audit_controller(ac);
                assert!(
                    audit.is_consistent(1e-9),
                    "{config}: {label} caches drifted {}, {} index errors at step {step}",
                    audit.max_cached_drift,
                    audit.index_errors
                );
            }
            assert_eq!(
                inc.system_schedulable_brute(),
                brute.system_schedulable_brute(),
                "{config}: oracle views diverged at step {step}"
            );
        }
    }

    // Final-state agreement.
    let ua = inc.ledger().utilizations();
    let ub = brute.ledger().utilizations();
    for (p, (a, b)) in ua.iter().zip(&ub).enumerate() {
        assert!((a - b).abs() <= 1e-9, "{config}: P{p} utilization {a} vs {b}");
    }
    assert_eq!(inc.current_entries(), brute.current_entries(), "{config}");
    assert_eq!(inc.reserved_tasks(), brute.reserved_tasks(), "{config}");
    let (sa, sb) = (inc.stats(), brute.stats());
    assert_eq!(
        (sa.tested, sa.admitted, sa.rejected, sa.pass_throughs, sa.reset_reports),
        (sb.tested, sb.admitted, sb.rejected, sb.pass_throughs, sb.reset_reports),
        "{config}"
    );
    assert!((sa.reset_utilization - sb.reset_utilization).abs() <= 1e-9, "{config}");
    decisions
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The headline differential property: randomized traces through both
    /// admission paths under every valid strategy combination.
    #[test]
    fn incremental_and_brute_paths_agree(
        tasks in arb_tasks(6),
        ops in vec((any::<u8>(), 0u64..40, any::<u32>(), any::<u32>()), 10..48),
    ) {
        for config in ServiceConfig::all_valid() {
            let decisions = run_trace(config, &tasks, &ops);
            // Traces are arrival-weighted: kinds 0..=3 of 9 are arrivals,
            // so a trace with no decision at all would signal a broken
            // interpreter rather than an unlucky draw... unless the draw
            // really contains no arrival ops, which short traces can.
            let arrivals = ops.iter().filter(|(k, ..)| k % 9 <= 3).count();
            prop_assert_eq!(decisions, arrivals);
        }
    }

    /// Idle-reset heavy traces: most contributions are removed before
    /// their deadline, stressing the ledger's lazy-deletion expiry heap
    /// and the outstanding-count bookkeeping on both paths.
    #[test]
    fn reset_heavy_traces_agree(
        tasks in arb_tasks(4),
        ops in vec((0u8..8, 0u64..10, any::<u32>(), any::<u32>()), 24..64),
    ) {
        // Remap op kinds so half of all steps are idle resets.
        let ops: Vec<RawOp> =
            ops.iter().map(|&(k, dt, x, y)| (if k % 2 == 0 { 5 } else { k }, dt, x, y)).collect();
        for config in [
            "J_J_J".parse::<ServiceConfig>().unwrap(),
            "J_T_T".parse::<ServiceConfig>().unwrap(),
            "T_T_N".parse::<ServiceConfig>().unwrap(),
        ] {
            run_trace(config, &tasks, &ops);
        }
    }

    /// Swap-heavy traces: every third step reconfigures to a random valid
    /// combination, so reservations are drained and reseeded many times
    /// within one trace — the ledger handover must stay agreement- and
    /// audit-clean through arbitrarily long swap chains.
    #[test]
    fn swap_heavy_traces_agree(
        tasks in arb_tasks(4),
        ops in vec((0u8..8, 0u64..20, any::<u32>(), any::<u32>()), 24..64),
    ) {
        let ops: Vec<RawOp> =
            ops.iter().map(|&(k, dt, x, y)| (if k % 3 == 0 { 8 } else { k }, dt, x, y)).collect();
        for config in [
            "T_T_T".parse::<ServiceConfig>().unwrap(),
            "J_N_N".parse::<ServiceConfig>().unwrap(),
            "J_J_J".parse::<ServiceConfig>().unwrap(),
        ] {
            run_trace(config, &tasks, &ops);
        }
    }
}
