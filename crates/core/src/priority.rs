//! End-to-end Deadline Monotonic Scheduling (EDMS) priority assignment.
//!
//! Under EDMS "a subtask has a higher priority if it belongs to a task with
//! a shorter end-to-end deadline" (§2). All subtasks of a task share the
//! task's priority, on every processor they visit. The AUB analysis achieves
//! its highest schedulable synthetic utilization bound under EDMS, which is
//! why both the simulator and the threaded runtime dispatch subjobs in EDMS
//! order.
//!
//! # Examples
//!
//! ```
//! use rtcm_core::priority::{assign_edms, Priority};
//! use rtcm_core::task::{ProcessorId, TaskBuilder, TaskId};
//! use rtcm_core::time::Duration;
//! use rtcm_core::task::TaskSet;
//!
//! let fast = TaskBuilder::aperiodic(TaskId(0))
//!     .deadline(Duration::from_millis(100))
//!     .subtask(Duration::from_millis(1), ProcessorId(0), [])
//!     .build()?;
//! let slow = TaskBuilder::aperiodic(TaskId(1))
//!     .deadline(Duration::from_secs(10))
//!     .subtask(Duration::from_millis(1), ProcessorId(0), [])
//!     .build()?;
//! let set = TaskSet::from_tasks([slow, fast])?;
//!
//! let prio = assign_edms(&set);
//! assert!(prio[&TaskId(0)].is_higher_than(prio[&TaskId(1)]));
//! # Ok::<(), rtcm_core::task::TaskSpecError>(())
//! ```

use std::collections::HashMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::task::{TaskId, TaskSet, TaskSpec};

/// A fixed dispatching priority.
///
/// Follows the classic real-time convention: **lower numeric value means
/// higher urgency**, with `Priority(0)` the most urgent. The derived `Ord`
/// therefore orders by *numeric level*; use [`Priority::is_higher_than`]
/// when you mean urgency.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct Priority(pub u32);

impl Priority {
    /// The most urgent priority level.
    pub const HIGHEST: Priority = Priority(0);

    /// Returns true if `self` is more urgent (numerically lower) than
    /// `other`.
    #[must_use]
    pub fn is_higher_than(self, other: Priority) -> bool {
        self.0 < other.0
    }

    /// Compares by urgency: `Ordering::Greater` means `self` is more urgent.
    #[must_use]
    pub(crate) fn cmp_urgency(self, other: Priority) -> std::cmp::Ordering {
        other.0.cmp(&self.0)
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "prio{}", self.0)
    }
}

/// Assigns EDMS priorities to every task in the set.
///
/// Tasks are ranked by end-to-end deadline, shortest first; ties are broken
/// by task id so the assignment is deterministic. Each task gets a distinct
/// level `0..n`, which is how the paper's configuration engine "assigns
/// priorities in order of tasks' end-to-end deadlines" into the deployment
/// plan (§6).
#[must_use]
pub fn assign_edms(tasks: &TaskSet) -> HashMap<TaskId, Priority> {
    tasks.iter().map(TaskSpec::id).zip(edms_levels(tasks)).collect()
}

/// [`assign_edms`] as a table under each task's position in the set
/// (`TaskSet::position`) — the form the dispatchers' drivers hold, so a
/// release costs an index and no hash.
#[must_use]
pub fn edms_levels(tasks: &TaskSet) -> Vec<Priority> {
    let mut order: Vec<_> =
        tasks.iter().enumerate().map(|(at, t)| (t.deadline(), t.id(), at)).collect();
    order.sort();
    let mut levels = vec![Priority::HIGHEST; order.len()];
    for (level, (_, _, at)) in order.into_iter().enumerate() {
        levels[at] = Priority(u32::try_from(level).expect("more than u32::MAX tasks"));
    }
    levels
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{ProcessorId, TaskBuilder};
    use crate::time::Duration;

    fn task(id: u32, deadline_ms: u64) -> crate::task::TaskSpec {
        TaskBuilder::aperiodic(TaskId(id))
            .deadline(Duration::from_millis(deadline_ms))
            .subtask(Duration::from_millis(1), ProcessorId(0), [])
            .build()
            .unwrap()
    }

    #[test]
    fn shorter_deadline_gets_higher_priority() {
        let set = TaskSet::from_tasks([task(0, 500), task(1, 100), task(2, 900)]).unwrap();
        let prio = assign_edms(&set);
        assert_eq!(prio[&TaskId(1)], Priority(0));
        assert_eq!(prio[&TaskId(0)], Priority(1));
        assert_eq!(prio[&TaskId(2)], Priority(2));
    }

    #[test]
    fn ties_break_by_task_id() {
        let set = TaskSet::from_tasks([task(5, 100), task(3, 100)]).unwrap();
        let prio = assign_edms(&set);
        assert!(prio[&TaskId(3)].is_higher_than(prio[&TaskId(5)]));
    }

    #[test]
    fn levels_are_dense_and_distinct() {
        let set = TaskSet::from_tasks((0..10).map(|i| task(i, 100 + 10 * u64::from(i)))).unwrap();
        let prio = assign_edms(&set);
        let mut levels: Vec<_> = prio.values().map(|p| p.0).collect();
        levels.sort_unstable();
        assert_eq!(levels, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn levels_by_position_agree_with_the_map() {
        let set = TaskSet::from_tasks([task(7, 500), task(2, 100), task(9, 100)]).unwrap();
        assert_eq!(edms_levels(&set), vec![Priority(2), Priority(0), Priority(1)]);
        let prio = assign_edms(&set);
        for (at, t) in set.iter().enumerate() {
            assert_eq!(prio[&t.id()], edms_levels(&set)[at]);
        }
    }

    #[test]
    fn urgency_comparisons() {
        assert!(Priority(0).is_higher_than(Priority(1)));
        assert!(!Priority(1).is_higher_than(Priority(1)));
        assert_eq!(Priority(0).cmp_urgency(Priority(1)), std::cmp::Ordering::Greater);
        assert_eq!(Priority::HIGHEST, Priority(0));
    }

    #[test]
    fn empty_set_yields_empty_map() {
        let set = TaskSet::new();
        assert!(assign_edms(&set).is_empty());
    }
}
