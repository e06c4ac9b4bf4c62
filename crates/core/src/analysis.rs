//! Offline (design-time) AUB feasibility analysis of a task set.
//!
//! The on-line admission controller decides per arrival; this module
//! answers the questions a developer asks *before* deployment:
//!
//! * Which tasks could never be admitted even into an idle system (their
//!   own bound exceeds 1 on their primary placement)?
//! * What does each processor's synthetic utilization look like if all
//!   tasks are simultaneously current — the paper's workload sizing
//!   quantity?
//! * Which tasks would fail the AUB bound in that worst case (and hence
//!   will see rejections under per-task admission control)?
//!
//! The configuration engine (`rtcm-config`) surfaces these findings as
//! warnings when building deployment plans.
//!
//! # Examples
//!
//! ```
//! use rtcm_core::analysis::analyze;
//! use rtcm_core::task::{ProcessorId, TaskBuilder, TaskId, TaskSet};
//! use rtcm_core::time::Duration;
//!
//! let modest = TaskBuilder::periodic(TaskId(0), Duration::from_millis(100))
//!     .subtask(Duration::from_millis(20), ProcessorId(0), [])
//!     .build()?;
//! let set = TaskSet::from_tasks([modest])?;
//! let report = analyze(&set);
//! assert!(report.is_feasible());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::admission::{AdmissionController, EntryBound};
use crate::aub::{bound_lhs, BOUND_EPSILON};
use crate::task::{ProcessorId, TaskId, TaskSet};

/// Per-task bound evaluation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskBound {
    /// The task.
    pub task: TaskId,
    /// Left-hand side of eq. 1 with only this task current, on its primary
    /// placement. Above 1 the task can **never** be admitted.
    pub lhs_alone: f64,
    /// Left-hand side with *all* tasks simultaneously current on their
    /// primaries — the most pessimistic moment the admission controller
    /// can face without idle resetting.
    pub lhs_simultaneous: f64,
}

impl TaskBound {
    /// True if the task passes the bound alone.
    #[must_use]
    pub fn admittable_alone(&self) -> bool {
        self.lhs_alone <= 1.0 + BOUND_EPSILON
    }

    /// True if the task passes even with everything else current.
    #[must_use]
    pub fn admittable_simultaneously(&self) -> bool {
        self.lhs_simultaneous <= 1.0 + BOUND_EPSILON
    }
}

/// The full design-time report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeasibilityReport {
    /// Synthetic utilization per processor with all tasks simultaneously
    /// current on their primaries.
    pub processor_utilization: Vec<f64>,
    /// Per-task bound evaluations, in task-set order.
    pub task_bounds: Vec<TaskBound>,
}

impl FeasibilityReport {
    /// Tasks whose own bound exceeds 1: never admittable, a specification
    /// error.
    #[must_use]
    pub fn never_admittable(&self) -> Vec<TaskId> {
        self.task_bounds.iter().filter(|b| !b.admittable_alone()).map(|b| b.task).collect()
    }

    /// Tasks that fail the bound when all tasks are simultaneously current
    /// (will be rejected under worst-case phasing).
    #[must_use]
    pub fn contended(&self) -> Vec<TaskId> {
        self.task_bounds
            .iter()
            .filter(|b| b.admittable_alone() && !b.admittable_simultaneously())
            .map(|b| b.task)
            .collect()
    }

    /// Processors at or above synthetic utilization 1 in the simultaneous
    /// case.
    #[must_use]
    pub fn saturated_processors(&self) -> Vec<ProcessorId> {
        self.processor_utilization
            .iter()
            .enumerate()
            .filter(|(_, u)| **u >= 1.0 - BOUND_EPSILON)
            .map(|(p, _)| ProcessorId(p as u16))
            .collect()
    }

    /// True when every task passes the simultaneous bound: the whole set
    /// can be admitted under any arrival phasing.
    #[must_use]
    pub fn is_feasible(&self) -> bool {
        self.task_bounds.iter().all(TaskBound::admittable_simultaneously)
    }
}

impl fmt::Display for FeasibilityReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "feasibility: {}",
            if self.is_feasible() { "all tasks pass" } else { "contended" }
        )?;
        for (p, u) in self.processor_utilization.iter().enumerate() {
            writeln!(f, "  P{p}: U = {u:.3}")?;
        }
        for b in &self.task_bounds {
            writeln!(
                f,
                "  {}: alone {:.3}, simultaneous {:.3}{}",
                b.task,
                b.lhs_alone,
                b.lhs_simultaneous,
                if !b.admittable_alone() {
                    " (never admittable)"
                } else if !b.admittable_simultaneously() {
                    " (contended)"
                } else {
                    ""
                }
            )?;
        }
        Ok(())
    }
}

/// Evaluates the AUB bound for every task on its primary placement.
#[must_use]
pub fn analyze(tasks: &TaskSet) -> FeasibilityReport {
    let simultaneous = tasks.simultaneous_utilization();
    let task_bounds = tasks
        .iter()
        .map(|task| {
            // Alone: only this task's contributions on its primaries.
            let mut alone = vec![0.0; simultaneous.len()];
            for (j, sub) in task.subtasks().iter().enumerate() {
                alone[sub.primary.index()] += task.subtask_utilization(j);
            }
            let lhs_alone = bound_lhs(task.subtasks().iter().map(|s| alone[s.primary.index()]));
            let lhs_simultaneous =
                bound_lhs(task.subtasks().iter().map(|s| simultaneous[s.primary.index()]));
            TaskBound { task: task.id(), lhs_alone, lhs_simultaneous }
        })
        .collect();
    FeasibilityReport { processor_utilization: simultaneous, task_bounds }
}

/// Run-time audit of a live [`AdmissionController`]'s incremental
/// bookkeeping against the declarative AUB model.
///
/// The incremental admission path (see `rtcm_core::admission`) answers the
/// schedulability question from cached per-entry sums; this audit
/// recomputes every sum from scratch and reports how far the caches have
/// drifted — the "check the hot-path optimization against the declarative
/// model" discipline that dynamic-reconfiguration correctness arguments
/// call for. The differential harness and long-running deployments use it
/// as a cheap invariant probe (and `AdmissionController::reconcile` to
/// repair drift).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ControllerAudit {
    /// Live synthetic utilization per processor.
    pub processor_utilization: Vec<f64>,
    /// Current registry size (jobs + reservations).
    pub current_entries: usize,
    /// Entries whose cached sum exceeds the bound (expected non-zero only
    /// after un-tested load such as remote commits).
    pub violating_entries: usize,
    /// Largest |cached − fresh| AUB-sum divergence across entries —
    /// `f64::INFINITY` if a cache disagrees with a fresh sum about
    /// saturation itself.
    pub max_cached_drift: f64,
    /// Disagreements between the per-processor inverted index and the
    /// entries' back-pointers into it: records naming no live visit, or
    /// one stored at another position, plus any surplus of records over
    /// visits. Any non-zero value is a bug — deltas would reach the wrong
    /// entries.
    pub index_errors: usize,
    /// Processors whose ledger total disagrees with the shares the entries
    /// hold: a live-share count other than the ledger's, or a
    /// key-ordered sum of live shares more than 1e-9 from the total. Any non-zero value is a bug — a share was lost, counted
    /// twice, or left behind by an entry that is gone.
    pub ledger_errors: usize,
    /// The per-entry evidence.
    pub entry_bounds: Vec<EntryBound>,
}

impl ControllerAudit {
    /// True when every cached sum matches its fresh recomputation within
    /// `tolerance`, the inverted index is sound and the ledger totals are
    /// the entries' shares.
    #[must_use]
    pub fn is_consistent(&self, tolerance: f64) -> bool {
        self.max_cached_drift <= tolerance && self.index_errors == 0 && self.ledger_errors == 0
    }
}

fn bound_drift(bound: &EntryBound) -> f64 {
    match (bound.cached_lhs.is_finite(), bound.fresh_lhs.is_finite()) {
        (true, true) => (bound.cached_lhs - bound.fresh_lhs).abs(),
        (false, false) => 0.0, // both saturated (∞): consistent
        _ => f64::INFINITY,    // cache and model disagree about saturation
    }
}

/// How far a processor's running total may sit from the fresh sum of its
/// live shares before [`ControllerAudit::ledger_errors`] counts it: far
/// below any share a stage makes (a 1 µs stage in a 100 s deadline is
/// 1e-8), far above the drift a run accumulates between
/// `AdmissionController::reconcile` calls.
const LEDGER_TOLERANCE: f64 = 1e-9;

/// Audits `ac`'s cached AUB sums against fresh recomputation, its inverted
/// index against the entries it lists, and its ledger totals against the
/// entries' shares.
#[must_use]
pub fn audit_controller(ac: &AdmissionController) -> ControllerAudit {
    let entry_bounds = ac.entry_bounds();
    let max_cached_drift = entry_bounds.iter().map(bound_drift).fold(0.0, f64::max);
    ControllerAudit {
        processor_utilization: ac.ledger().utilizations(),
        current_entries: ac.current_entries(),
        violating_entries: ac.violating_entries(),
        max_cached_drift,
        index_errors: ac.index_errors(),
        ledger_errors: ac.ledger_errors(LEDGER_TOLERANCE),
        entry_bounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskBuilder;
    use crate::time::Duration;

    fn task(id: u32, exec_ms: u64, deadline_ms: u64, procs: &[u16]) -> crate::task::TaskSpec {
        let mut b = TaskBuilder::periodic(TaskId(id), Duration::from_millis(deadline_ms));
        for p in procs {
            b = b.subtask(Duration::from_millis(exec_ms), ProcessorId(*p), []);
        }
        b.build().unwrap()
    }

    #[test]
    fn light_set_is_feasible() {
        let set = TaskSet::from_tasks([task(0, 10, 100, &[0]), task(1, 10, 100, &[1])]).unwrap();
        let report = analyze(&set);
        assert!(report.is_feasible());
        assert!(report.never_admittable().is_empty());
        assert!(report.contended().is_empty());
        assert!(report.saturated_processors().is_empty());
    }

    #[test]
    fn impossible_task_is_flagged() {
        // Four stages at C/D = 0.24 each: alone lhs = 4 * f(0.24) ≈ 1.11 > 1.
        let set = TaskSet::from_tasks([task(0, 24, 100, &[0, 1, 2, 3])]).unwrap();
        let report = analyze(&set);
        assert_eq!(report.never_admittable(), vec![TaskId(0)]);
        assert!(!report.is_feasible());
        assert!(report.to_string().contains("never admittable"));
    }

    #[test]
    fn contention_is_distinguished_from_impossibility() {
        // Each task is fine alone (f(0.45) ≈ 0.63) but not together
        // (f(0.9) = 8.55).
        let set = TaskSet::from_tasks([task(0, 45, 100, &[0]), task(1, 45, 100, &[0])]).unwrap();
        let report = analyze(&set);
        assert!(report.never_admittable().is_empty());
        assert_eq!(report.contended(), vec![TaskId(0), TaskId(1)]);
    }

    #[test]
    fn saturated_processor_detected() {
        let set = TaskSet::from_tasks([task(0, 60, 100, &[0]), task(1, 50, 100, &[0])]).unwrap();
        let report = analyze(&set);
        assert_eq!(report.saturated_processors(), vec![ProcessorId(0)]);
    }

    #[test]
    fn utilization_matches_task_set_accounting() {
        let set = TaskSet::from_tasks([task(0, 20, 100, &[0, 1])]).unwrap();
        let report = analyze(&set);
        assert_eq!(report.processor_utilization, set.simultaneous_utilization());
    }

    #[test]
    fn report_serializes() {
        let set = TaskSet::from_tasks([task(0, 10, 100, &[0])]).unwrap();
        let json = serde_json::to_string(&analyze(&set)).unwrap();
        assert!(json.contains("lhs_alone"));
    }

    #[test]
    fn controller_audit_sees_consistent_caches() {
        use crate::admission::AdmissionController;
        use crate::balance::Assignment;
        use crate::strategy::ServiceConfig;
        use crate::time::Time;

        let cfg: ServiceConfig = "J_N_N".parse().unwrap();
        let mut ac = AdmissionController::new(cfg, 2).unwrap();
        let t0 = task(0, 20, 100, &[0]);
        let t1 = task(1, 20, 100, &[1]);
        assert!(ac.handle_arrival(&t0, 0, Time::ZERO).unwrap().is_accept());
        assert!(ac.handle_arrival(&t1, 0, Time::ZERO).unwrap().is_accept());

        let audit = audit_controller(&ac);
        assert_eq!(audit.current_entries, 2);
        assert_eq!(audit.violating_entries, 0);
        assert_eq!(audit.index_errors, 0);
        assert_eq!(audit.ledger_errors, 0);
        assert!(audit.is_consistent(1e-9), "drift {}", audit.max_cached_drift);

        // Un-tested remote load can push current entries over the bound;
        // the audit must surface that while the caches stay consistent.
        let hog = task(9, 70, 100, &[0]);
        ac.apply_remote_commit(&hog, 0, Time::ZERO, &Assignment::primaries(&hog)).unwrap();
        let audit = audit_controller(&ac);
        assert!(audit.violating_entries > 0, "f(0.9) alone exceeds the bound");
        assert!(audit.is_consistent(1e-9), "drift {}", audit.max_cached_drift);
        let json = serde_json::to_string(&audit).unwrap();
        assert!(json.contains("max_cached_drift"));
    }
}
