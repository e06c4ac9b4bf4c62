//! The idle-resetting service (§4.3): the application-processor side of the
//! AUB resetting rule.
//!
//! Subtask components call `IdleResetter::record_completion` when a subjob
//! finishes (the paper's "Complete" method call); when the processor's
//! dispatcher runs out of ready work it calls `IdleResetter::on_idle`,
//! which — if there is anything new to report — produces an
//! [`IdleResetReport`] to push to the admission controller as an "Idle
//! Resetting" event. The resetter only reports "when there is a newly
//! completed … subjob whose deadline has not expired", avoiding repeated
//! reports.
//!
//! Which completions are recorded depends on the strategy:
//!
//! * [`IrStrategy::None`] — nothing is recorded; `on_idle` never reports.
//! * [`IrStrategy::PerTask`] — aperiodic subjobs only.
//! * [`IrStrategy::PerJob`] — aperiodic and periodic subjobs.
//!
//! # Examples
//!
//! A node step ([`NodeCore`](crate::node::NodeCore)) records each
//! completion in its resetter and asks it for a report once idle:
//!
//! ```
//! use rtcm_core::ledger::ContributionKey;
//! use rtcm_core::node::{NodeCore, Subjob};
//! use rtcm_core::priority::Priority;
//! use rtcm_core::task::{JobId, ProcessorId, TaskBuilder, TaskId, TaskSet};
//! use rtcm_core::time::{Duration, Time};
//!
//! let alert = TaskBuilder::aperiodic(TaskId(3))
//!     .deadline(Duration::from_millis(100))
//!     .subtask(Duration::from_millis(5), ProcessorId(0), [])
//!     .build()?;
//! let tasks = TaskSet::from_tasks([alert])?;
//! let mut node: NodeCore<(), ()> = NodeCore::new("J_T_N".parse()?, ProcessorId(0), 1);
//!
//! let job = JobId::new(TaskId(3), 0);
//! let deadline = Time::ZERO + Duration::from_millis(100);
//! let stage = Subjob { job, task: 0, subtask: 0, arrival: Time::ZERO, deadline, extra: () };
//! let run = node.release(Time::ZERO, Priority::HIGHEST, Duration::from_millis(5), stage);
//! let run = run.expect("an idle processor starts the stage at once");
//! node.complete(run.completes_at, run.gen, &tasks).expect("not preempted");
//!
//! let report = node.idle(run.completes_at).expect("new completion");
//! assert_eq!(report.completed, vec![ContributionKey::new(job, 0)]);
//! assert!(node.idle(run.completes_at + Duration::from_millis(1)).is_none(), "no repeat");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use serde::{Deserialize, Serialize};

use crate::ledger::ContributionKey;
use crate::strategy::IrStrategy;
use crate::task::ProcessorId;
use crate::time::Time;

/// An "Idle Resetting" event payload: completed subjobs whose contributions
/// the admission controller may now remove.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct IdleResetReport {
    /// The processor that went idle.
    pub processor: ProcessorId,
    /// Completed, unexpired, not-yet-reported contributions on it.
    pub completed: Vec<ContributionKey>,
}

#[derive(Debug, Clone, Copy)]
struct Pending {
    key: ContributionKey,
    deadline: Time,
}

/// The configurable idle-resetting component deployed on each application
/// processor. Only [`NodeCore`](crate::node::NodeCore) builds and drives
/// one: outside it a resetter could be built but never used.
#[derive(Debug, Clone)]
pub(crate) struct IdleResetter {
    strategy: IrStrategy,
    processor: ProcessorId,
    pending: Vec<Pending>,
}

impl IdleResetter {
    /// Creates a resetter for `processor` with the given strategy.
    #[must_use]
    pub(crate) fn new(strategy: IrStrategy, processor: ProcessorId) -> Self {
        IdleResetter { strategy, processor, pending: Vec::new() }
    }

    /// Changes the strategy at run time (the paper's component attributes
    /// "may be modified at run-time", §5). Completions already recorded
    /// under the old strategy stay pending; only future completions are
    /// filtered by the new one. The §4.5 validity rule is the caller's to
    /// enforce (it depends on the admission-control strategy, which the
    /// resetter does not know).
    pub(crate) fn set_strategy(&mut self, strategy: IrStrategy) {
        self.strategy = strategy;
    }

    /// Records a subjob completion (the subtask components' "Complete"
    /// call). `deadline` is the job's absolute end-to-end deadline;
    /// `periodic` says whether the owning task is periodic. Completions the
    /// strategy does not cover are dropped.
    pub(crate) fn record_completion(
        &mut self,
        key: ContributionKey,
        deadline: Time,
        periodic: bool,
    ) {
        let record = if periodic {
            self.strategy.resets_periodic()
        } else {
            self.strategy.resets_aperiodic()
        };
        if record {
            self.pending.push(Pending { key, deadline });
        }
    }

    /// Called when the processor's dispatcher goes idle. Returns a report if
    /// any recorded completion is new and unexpired; otherwise `None` (the
    /// idle detector "only reports when there is a newly completed …
    /// subjob whose deadline has not expired").
    pub(crate) fn on_idle(&mut self, now: Time) -> Option<IdleResetReport> {
        if self.pending.is_empty() {
            return None;
        }
        let completed: Vec<ContributionKey> =
            self.pending.drain(..).filter(|p| p.deadline > now).map(|p| p.key).collect();
        if completed.is_empty() {
            return None;
        }
        Some(IdleResetReport { processor: self.processor, completed })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{JobId, TaskId};
    use crate::time::Duration;

    fn key(task: u32, seq: u64, subtask: usize) -> ContributionKey {
        ContributionKey::new(JobId::new(TaskId(task), seq), subtask)
    }

    fn at(ms: u64) -> Time {
        Time::ZERO + Duration::from_millis(ms)
    }

    #[test]
    fn none_strategy_records_nothing() {
        let mut ir = IdleResetter::new(IrStrategy::None, ProcessorId(0));
        ir.record_completion(key(0, 0, 0), at(100), false);
        ir.record_completion(key(1, 0, 0), at(100), true);
        assert!(ir.on_idle(at(1)).is_none());
    }

    #[test]
    fn per_task_records_only_aperiodic() {
        let mut ir = IdleResetter::new(IrStrategy::PerTask, ProcessorId(0));
        ir.record_completion(key(0, 0, 0), at(100), false);
        ir.record_completion(key(1, 0, 0), at(100), true);
        let report = ir.on_idle(at(1)).unwrap();
        assert_eq!(report.completed, vec![key(0, 0, 0)]);
    }

    #[test]
    fn per_job_records_both() {
        let mut ir = IdleResetter::new(IrStrategy::PerJob, ProcessorId(2));
        ir.record_completion(key(0, 0, 0), at(100), false);
        ir.record_completion(key(1, 0, 1), at(100), true);
        let report = ir.on_idle(at(1)).unwrap();
        assert_eq!(report.processor, ProcessorId(2));
        assert_eq!(report.completed, vec![key(0, 0, 0), key(1, 0, 1)]);
    }

    #[test]
    fn expired_completions_are_not_reported() {
        let mut ir = IdleResetter::new(IrStrategy::PerJob, ProcessorId(0));
        ir.record_completion(key(0, 0, 0), at(10), true);
        assert!(ir.on_idle(at(10)).is_none(), "deadline == now means expired");
        // Expired entries are dropped, not retried: the next report holds
        // only the live completion recorded after the expired one.
        ir.record_completion(key(1, 0, 0), at(100), true);
        assert_eq!(ir.on_idle(at(11)).unwrap().completed, vec![key(1, 0, 0)]);
    }

    #[test]
    fn no_repeat_reports_without_new_completions() {
        let mut ir = IdleResetter::new(IrStrategy::PerJob, ProcessorId(0));
        ir.record_completion(key(0, 0, 0), at(100), true);
        assert!(ir.on_idle(at(1)).is_some());
        assert!(ir.on_idle(at(2)).is_none());
        ir.record_completion(key(0, 0, 1), at(100), true);
        assert_eq!(ir.on_idle(at(3)).unwrap().completed, vec![key(0, 0, 1)]);
    }

    #[test]
    fn strategy_can_change_at_runtime() {
        let mut ir = IdleResetter::new(IrStrategy::None, ProcessorId(0));
        ir.record_completion(key(0, 0, 0), at(100), false);
        ir.set_strategy(IrStrategy::PerJob);
        ir.record_completion(key(0, 1, 0), at(100), true);
        // Downgrading keeps already-pending entries reportable; the
        // completion recorded under None is not among them, and the new
        // strategy applied to the one after the swap.
        ir.set_strategy(IrStrategy::None);
        assert_eq!(ir.on_idle(at(1)).unwrap().completed, vec![key(0, 1, 0)]);
    }

    #[test]
    fn mixed_expired_and_live_reports_live_only() {
        let mut ir = IdleResetter::new(IrStrategy::PerJob, ProcessorId(0));
        ir.record_completion(key(0, 0, 0), at(5), true);
        ir.record_completion(key(1, 0, 0), at(100), true);
        let report = ir.on_idle(at(50)).unwrap();
        assert_eq!(report.completed, vec![key(1, 0, 0)]);
    }
}
