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
//! every `HandoverReport`, and the final ledger state to 1e-9. Half the
//! arrivals are decided after their arrival stamp (by up to 40 ms), so the
//! decision instant the current set is pruned at and the stamp the
//! deadline runs from differ.
//!
//! Each property runs 256 cases (the vendored proptest is deterministic
//! per test, so a green run is exactly reproducible), giving ≥ 256 traces
//! per strategy combination.
//!
//! A 32-trace slice of the same corpus is also replayed through two
//! *incremental* controllers whose tables are keyed apart (`rtcm_core::hash`
//! draws a key per table), which must agree to the bit.

use proptest::collection::vec;
use proptest::prelude::*;

use rtcm_core::admission::{AdmissionController, AdmissionError, AdmissionMode, Decision};
use rtcm_core::analysis::audit_controller;
use rtcm_core::balance::Assignment;
use rtcm_core::ledger::ContributionKey;
use rtcm_core::reconfig::HandoverReport;
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

/// What one trace step produced, compared between two replays.
#[derive(Debug, PartialEq)]
enum Outcome {
    Decision(Result<Decision, AdmissionError>),
    /// Bits of the utilization an idle reset freed.
    Freed(u64),
    Handover(HandoverReport),
    Quiet,
}

/// One controller replaying a trace. Each replay builds its own controller
/// and task set, so each draws its own table keys.
struct Replay<'a> {
    ac: AdmissionController,
    tasks: &'a [TaskSpec],
    task_set: TaskSet,
    now: Time,
    seqs: Vec<u64>,
    admitted: Vec<(JobId, Assignment)>,
}

impl<'a> Replay<'a> {
    fn new(config: ServiceConfig, mode: AdmissionMode, tasks: &'a [TaskSpec]) -> Self {
        Replay {
            ac: AdmissionController::with_mode(config, usize::from(PROCS), mode)
                .expect("valid config"),
            tasks,
            task_set: TaskSet::from_tasks(tasks.to_vec()).expect("generated ids are unique"),
            now: Time::ZERO,
            seqs: vec![0; tasks.len()],
            admitted: Vec::new(),
        }
    }

    fn next_seq(&mut self, t_idx: usize) -> u64 {
        self.seqs[t_idx] += 1;
        self.seqs[t_idx] - 1
    }

    fn step(&mut self, (kind, dt, x, y): RawOp) -> Outcome {
        self.now = self.now.saturating_add(Duration::from_millis(dt % 40));
        let t_idx = (x as usize) % self.tasks.len();
        let task = &self.tasks[t_idx];
        match kind % 9 {
            // Weighted toward arrivals: they exercise the decision path.
            // Half decide at their arrival instant; the other half carry a
            // stamp up to 40 ms older than the decision instant, as a job
            // queued behind the manager does, so the current set is pruned
            // at the instant while the deadline runs from the stamp.
            0..=3 => {
                let seq = self.next_seq(t_idx);
                let age = if kind % 9 < 2 { 0 } else { u64::from(y % 41) * 1_000_000 };
                let arrival = Time::from_nanos(self.now.as_nanos().saturating_sub(age));
                let decision =
                    self.ac.handle_arrival_with(task, seq, arrival, self.now, |locate| locate());
                if let Ok(Decision::Accept { assignment, .. }) = &decision {
                    self.admitted.push((JobId::new(task.id(), seq), assignment.clone()));
                }
                Outcome::Decision(decision)
            }
            4 => {
                self.ac.expire(self.now);
                Outcome::Quiet
            }
            5 => {
                if self.admitted.is_empty() {
                    return Outcome::Quiet;
                }
                let (job, plan) = &self.admitted[(y as usize) % self.admitted.len()];
                let subtask = (x as usize) % plan.len();
                let key = ContributionKey::new(*job, subtask);
                Outcome::Freed(self.ac.apply_idle_reset(plan.processor(subtask), &[key]).to_bits())
            }
            6 => {
                self.ac.withdraw_task(task.id());
                Outcome::Quiet
            }
            7 => {
                // Un-tested peer load: the one operation that can push
                // current entries over the bound, forcing both paths to
                // remember system-wide violations.
                let seq = self.next_seq(t_idx);
                let plan = Assignment::primaries(task);
                self.ac
                    .apply_remote_commit(task, seq, self.now, &plan)
                    .expect("primaries are valid");
                Outcome::Quiet
            }
            8 => {
                // Mid-trace configuration swap: the ledger handover
                // (drain/reseed/axis swaps) must report identical outcomes.
                let valid = ServiceConfig::all_valid();
                let target = valid[(y as usize) % valid.len()];
                let report =
                    self.ac.reconfigure(target, self.now, &self.task_set).expect("valid targets");
                assert_eq!(self.ac.config(), target);
                Outcome::Handover(report)
            }
            _ => unreachable!(),
        }
    }
}

/// Replays one trace through paired incremental/brute-force controllers,
/// asserting step-by-step agreement. Returns the number of admission
/// decisions compared.
fn run_trace(config: ServiceConfig, tasks: &[TaskSpec], ops: &[RawOp]) -> usize {
    let mut inc = Replay::new(config, AdmissionMode::Incremental, tasks);
    let mut brute = Replay::new(config, AdmissionMode::BruteForce, tasks);
    let mut decisions = 0usize;

    for (step, &op) in ops.iter().enumerate() {
        let a = inc.step(op);
        assert_eq!(a, brute.step(op), "{config}: step {step} diverged");
        decisions += usize::from(matches!(a, Outcome::Decision(_)));

        if step % 16 == 15 {
            // The declarative-model audit: cached sums must match fresh
            // recomputation, the inverted index its entries, and the ledger
            // totals the entries' shares, on both sides, mid-trace.
            for (label, ac) in [("incremental", &inc.ac), ("brute", &brute.ac)] {
                let audit = audit_controller(ac);
                assert!(
                    audit.is_consistent(1e-9),
                    "{config}: {label} caches drifted {}, {} index errors, {} ledger errors \
                     at step {step}",
                    audit.max_cached_drift,
                    audit.index_errors,
                    audit.ledger_errors
                );
            }
            assert_eq!(
                inc.ac.system_schedulable_brute(),
                brute.ac.system_schedulable_brute(),
                "{config}: oracle views diverged at step {step}"
            );
        }
    }

    // Final-state agreement.
    let (inc, brute) = (inc.ac, brute.ac);
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

/// Replays one trace through two incremental controllers — same mode, same
/// operations, tables keyed apart — which must agree to the bit at every
/// step: nothing the controller decides or reports may follow a table's
/// iteration order.
fn run_trace_keyed_apart(config: ServiceConfig, tasks: &[TaskSpec], ops: &[RawOp]) {
    let mut a = Replay::new(config, AdmissionMode::Incremental, tasks);
    let mut b = Replay::new(config, AdmissionMode::Incremental, tasks);
    let bits = |ac: &AdmissionController| -> Vec<u64> {
        ac.ledger().utilizations().iter().map(|u| u.to_bits()).collect()
    };
    for (step, &op) in ops.iter().enumerate() {
        assert_eq!(a.step(op), b.step(op), "{config}: step {step} diverged");
        assert_eq!(bits(&a.ac), bits(&b.ac), "{config}: utilizations after step {step}");
        if step % 16 == 15 {
            assert_eq!(audit_controller(&a.ac), audit_controller(&b.ac), "{config}: step {step}");
        }
    }
    // Reconciliation re-sums every total and cached bound from the tables.
    assert_eq!(a.ac.reconcile().to_bits(), b.ac.reconcile().to_bits(), "{config}");
    assert_eq!(audit_controller(&a.ac), audit_controller(&b.ac), "{config}: reconciled");
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

    /// Idle-reset heavy traces: most shares leave before their deadline,
    /// stressing the reset marks the expiry heap must skip and the
    /// outstanding-count bookkeeping on both paths.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Order independence: the hasher is ours and keyed per table, so two
    /// controllers fed one trace hold their jobs in differently ordered
    /// tables — and must not differ in anything else.
    #[test]
    fn decisions_do_not_depend_on_table_keys(
        tasks in arb_tasks(6),
        ops in vec((any::<u8>(), 0u64..40, any::<u32>(), any::<u32>()), 10..48),
    ) {
        for config in ServiceConfig::all_valid() {
            run_trace_keyed_apart(config, &tasks, &ops);
        }
    }
}
