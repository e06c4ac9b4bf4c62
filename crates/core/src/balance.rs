//! The load-balancing service (§4.4): greedy lowest-synthetic-utilization
//! placement of subtasks across replica processors.
//!
//! The LB component "always assigns a subtask to the processor with the
//! lowest synthetic utilization among all processors on which the
//! application component corresponding to the task has been replicated".
//! Accepting a new task never moves already-admitted tasks — only the new
//! arrival's plan is computed. Under [`LbStrategy::PerTask`] the first plan
//! is pinned for the task's lifetime (stateful applications, criterion C2);
//! under [`LbStrategy::PerJob`] every job gets a fresh plan.
//!
//! # Examples
//!
//! ```
//! use rtcm_core::balance::LoadBalancer;
//! use rtcm_core::ledger::UtilizationLedger;
//! use rtcm_core::strategy::LbStrategy;
//! use rtcm_core::task::{ProcessorId, TaskBuilder, TaskId};
//! use rtcm_core::time::Duration;
//!
//! let task = TaskBuilder::aperiodic(TaskId(0))
//!     .deadline(Duration::from_millis(100))
//!     .subtask(Duration::from_millis(10), ProcessorId(0), [ProcessorId(1)])
//!     .build()?;
//!
//! let mut ledger = UtilizationLedger::new(2);
//! // Processor 0 is busy; the balancer should route to processor 1.
//! ledger.add(ProcessorId(0), 0.5)?;
//!
//! let mut lb = LoadBalancer::new(LbStrategy::PerJob);
//! let plan = lb.assignment_for(&task, &ledger);
//! assert_eq!(plan.processor(0), ProcessorId(1));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::hash::IdMap;
use crate::ledger::UtilizationLedger;
use crate::strategy::LbStrategy;
use crate::task::{ProcessorId, TaskId, TaskSpec};

/// A placement plan: one processor per subtask of a task, in chain order.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Assignment(Vec<ProcessorId>);

impl Assignment {
    /// Creates an assignment from one processor per subtask.
    #[must_use]
    pub fn new(processors: Vec<ProcessorId>) -> Self {
        Assignment(processors)
    }

    /// The primary placement of a task (no balancing).
    #[must_use]
    pub fn primaries(task: &TaskSpec) -> Self {
        Assignment(task.subtasks().iter().map(|s| s.primary).collect())
    }

    /// Processor assigned to subtask `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    #[must_use]
    pub fn processor(&self, index: usize) -> ProcessorId {
        self.0[index]
    }

    /// All assigned processors, in subtask order.
    #[must_use]
    pub fn as_slice(&self) -> &[ProcessorId] {
        &self.0
    }

    /// Number of subtasks covered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Returns true for the (degenerate) empty assignment.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Iterates over `(subtask index, processor)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, ProcessorId)> + '_ {
        self.0.iter().copied().enumerate()
    }

    /// Returns true if this plan differs from the task's primary placement —
    /// the paper's definition of a *task re-allocation*.
    #[must_use]
    pub fn is_reallocation(&self, task: &TaskSpec) -> bool {
        self.0.iter().zip(task.subtasks()).any(|(chosen, sub)| *chosen != sub.primary)
    }

    /// Checks that every choice is one of the subtask's declared candidates
    /// and that the arity matches the task's chain.
    #[must_use]
    pub fn is_valid_for(&self, task: &TaskSpec) -> bool {
        self.0.len() == task.subtasks().len()
            && self
                .0
                .iter()
                .zip(task.subtasks())
                .all(|(chosen, sub)| sub.candidates().any(|c| c == *chosen))
    }
}

impl fmt::Display for Assignment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, p) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, " -> ")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, "]")
    }
}

/// The configurable load-balancing component.
///
/// Holds the per-task plan cache needed by [`LbStrategy::PerTask`]; the
/// greedy placement heuristic itself is stateless and exposed as
/// [`LoadBalancer::propose`].
#[derive(Debug, Clone)]
pub struct LoadBalancer {
    strategy: LbStrategy,
    plans: IdMap<TaskId, Assignment>,
}

impl LoadBalancer {
    /// Creates a balancer with the given strategy.
    #[must_use]
    pub fn new(strategy: LbStrategy) -> Self {
        LoadBalancer { strategy, plans: IdMap::default() }
    }

    /// The configured strategy.
    #[must_use]
    pub fn strategy(&self) -> LbStrategy {
        self.strategy
    }

    /// Hot-swaps the strategy, forgetting all pinned per-task plans when
    /// it actually changes (a pin is a property of the outgoing strategy;
    /// a stale pin surviving a round trip through per-job could resurrect
    /// a placement chosen against a long-gone load picture). Returns the
    /// number of pins forgotten.
    pub(crate) fn set_strategy(&mut self, strategy: LbStrategy) -> usize {
        if strategy == self.strategy {
            return 0;
        }
        self.strategy = strategy;
        let forgotten = self.plans.len();
        self.plans.clear();
        forgotten
    }

    /// Produces the placement for an arriving job of `task`, honoring the
    /// configured strategy:
    ///
    /// * `None` — the primary placement, always;
    /// * `PerTask` — the cached plan if the task was placed before,
    ///   otherwise a fresh greedy plan which is then pinned;
    /// * `PerJob` — a fresh greedy plan for every call.
    pub fn assignment_for(&mut self, task: &TaskSpec, ledger: &UtilizationLedger) -> Assignment {
        match self.strategy {
            LbStrategy::None => Assignment::primaries(task),
            LbStrategy::PerTask => {
                if let Some(plan) = self.plans.get(&task.id()) {
                    return plan.clone();
                }
                let plan = Self::propose(task, ledger);
                self.plans.insert(task.id(), plan.clone());
                plan
            }
            LbStrategy::PerJob => Self::propose(task, ledger),
        }
    }

    /// The greedy heuristic: walk the subtask chain in order and pick, for
    /// each subtask, the candidate processor with the lowest synthetic
    /// utilization — counting the contributions this same job has already
    /// been assigned in earlier stages. Ties break toward the lower
    /// processor id for determinism.
    #[must_use]
    pub fn propose(task: &TaskSpec, ledger: &UtilizationLedger) -> Assignment {
        let mut choice: Vec<ProcessorId> = Vec::with_capacity(task.subtasks().len());
        for sub in task.subtasks() {
            // A candidate's load with this job's earlier stages on it. A
            // chain is a handful of stages, so walking the choices made so
            // far (in stage order, as a running per-processor sum would
            // add them) beats a per-processor scratch vector per call.
            let load = |p: ProcessorId| {
                let own = choice.iter().enumerate().filter(|(_, chosen)| **chosen == p);
                let pending = own.fold(0.0f64, |sum, (j, _)| sum + task.subtask_utilization(j));
                ledger.utilization(p) + pending
            };
            let best = sub
                .candidates()
                .filter(|p| p.index() < ledger.processor_count())
                .map(|p| (load(p), p))
                .min_by(|(ua, a), (ub, b)| ua.total_cmp(ub).then_with(|| a.cmp(b)))
                .map_or(sub.primary, |(_, p)| p);
            choice.push(best);
        }
        Assignment::new(choice)
    }

    /// Drops the pinned plan for a task (task departure or rejection).
    pub(crate) fn forget_task(&mut self, task: TaskId) {
        self.plans.remove(&task);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskBuilder;
    use crate::time::Duration;

    fn replicated_task(id: u32) -> TaskSpec {
        TaskBuilder::aperiodic(TaskId(id))
            .deadline(Duration::from_millis(100))
            .subtask(Duration::from_millis(10), ProcessorId(0), [ProcessorId(1), ProcessorId(2)])
            .subtask(Duration::from_millis(10), ProcessorId(1), [ProcessorId(2)])
            .build()
            .unwrap()
    }

    fn load(ledger: &mut UtilizationLedger, proc: u16, amount: f64) {
        ledger.add(ProcessorId(proc), amount).unwrap();
    }

    #[test]
    fn none_strategy_uses_primaries() {
        let task = replicated_task(0);
        let ledger = UtilizationLedger::new(3);
        let mut lb = LoadBalancer::new(LbStrategy::None);
        let plan = lb.assignment_for(&task, &ledger);
        assert_eq!(plan, Assignment::primaries(&task));
        assert!(!plan.is_reallocation(&task));
    }

    #[test]
    fn greedy_picks_least_loaded_candidate() {
        let task = replicated_task(0);
        let mut ledger = UtilizationLedger::new(3);
        load(&mut ledger, 0, 0.6);
        load(&mut ledger, 1, 0.3);
        // Candidates for subtask 0: {0, 1, 2}; P2 is empty -> P2.
        // Candidates for subtask 1: {1, 2}; P2 now carries this job's first
        // stage (0.1), P1 has 0.3 -> P2 again (0.1 < 0.3).
        let plan = LoadBalancer::propose(&task, &ledger);
        assert_eq!(plan.as_slice(), &[ProcessorId(2), ProcessorId(2)]);
        assert!(plan.is_reallocation(&task));
        assert!(plan.is_valid_for(&task));
    }

    #[test]
    fn greedy_counts_own_pending_contributions() {
        let task = replicated_task(0);
        let mut ledger = UtilizationLedger::new(3);
        // P1 slightly loaded; pending weight on P2 after stage 0 must push
        // stage 1 to P1 once P2's pending exceeds it.
        load(&mut ledger, 0, 0.6);
        load(&mut ledger, 1, 0.05);
        let plan = LoadBalancer::propose(&task, &ledger);
        assert_eq!(plan.processor(0), ProcessorId(2));
        // After stage 0, P2 carries 0.1 pending > P1's 0.05.
        assert_eq!(plan.processor(1), ProcessorId(1));
    }

    #[test]
    fn ties_break_to_lower_processor_id() {
        let task = replicated_task(0);
        let ledger = UtilizationLedger::new(3);
        let plan = LoadBalancer::propose(&task, &ledger);
        assert_eq!(plan.processor(0), ProcessorId(0));
    }

    #[test]
    fn per_task_pins_first_plan() {
        let task = replicated_task(0);
        let mut ledger = UtilizationLedger::new(3);
        let mut lb = LoadBalancer::new(LbStrategy::PerTask);
        let first = lb.assignment_for(&task, &ledger);
        // Load the chosen processor heavily; the pinned plan must not move.
        load(&mut ledger, first.processor(0).0, 0.9);
        let second = lb.assignment_for(&task, &ledger);
        assert_eq!(first, second);
        // Forgetting the pin lets the next job follow the load again.
        lb.forget_task(task.id());
        let third = lb.assignment_for(&task, &ledger);
        assert_ne!(third.processor(0), first.processor(0));
    }

    #[test]
    fn per_job_follows_load() {
        let task = replicated_task(0);
        let mut ledger = UtilizationLedger::new(3);
        let mut lb = LoadBalancer::new(LbStrategy::PerJob);
        let first = lb.assignment_for(&task, &ledger);
        assert_eq!(first.processor(0), ProcessorId(0));
        load(&mut ledger, 0, 0.9);
        let second = lb.assignment_for(&task, &ledger);
        assert_ne!(second.processor(0), ProcessorId(0));
    }

    #[test]
    fn assignment_validity_checks_candidates() {
        let task = replicated_task(0);
        let bogus = Assignment::new(vec![ProcessorId(9), ProcessorId(1)]);
        assert!(!bogus.is_valid_for(&task));
        let short = Assignment::new(vec![ProcessorId(0)]);
        assert!(!short.is_valid_for(&task));
    }

    #[test]
    fn display_shows_chain() {
        let plan = Assignment::new(vec![ProcessorId(0), ProcessorId(2)]);
        assert_eq!(plan.to_string(), "[P0 -> P2]");
    }
}
