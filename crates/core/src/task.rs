//! The end-to-end task model of the paper's §2.
//!
//! A *task* is the processing of a sequence of events: a chain of *subtasks*
//! `T_{i,1} … T_{i,n_i}`, each executing on a (possibly different)
//! processor. Releasing a task produces a *job*; the release of each subtask
//! within a job is a *subjob*. Tasks carry an end-to-end deadline `D_i`;
//! periodic tasks additionally have a period (the interarrival time of their
//! first subtask), while aperiodic tasks may arrive with arbitrary — and in
//! particular arbitrarily small — interarrival times.
//!
//! # Examples
//!
//! ```
//! use rtcm_core::task::{ProcessorId, TaskBuilder, TaskId};
//! use rtcm_core::time::Duration;
//!
//! let task = TaskBuilder::periodic(TaskId(0), Duration::from_millis(500))
//!     .name("pressure-monitor")
//!     .deadline(Duration::from_millis(500))
//!     .subtask(Duration::from_millis(20), ProcessorId(0), [ProcessorId(1)])
//!     .subtask(Duration::from_millis(10), ProcessorId(2), [])
//!     .build()?;
//! assert_eq!(task.subtasks().len(), 2);
//! # Ok::<(), rtcm_core::task::TaskSpecError>(())
//! ```

use std::collections::hash_map::Entry;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::hash::IdMap;
use crate::time::Duration;

/// Identifier of a processor (a node hosting application components).
///
/// Processors are dense indices `0..n` within a deployment; this keeps the
/// utilization ledger vector-indexed and deterministic.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct ProcessorId(pub u16);

impl ProcessorId {
    /// Returns the dense index of this processor.
    #[must_use]
    pub fn index(self) -> usize {
        usize::from(self.0)
    }
}

impl fmt::Display for ProcessorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// Identifier of an end-to-end task.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct TaskId(pub u32);

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// Identifier of one release (job) of a task.
///
/// `seq` counts releases of the task from 0.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct JobId {
    /// The owning task.
    pub task: TaskId,
    /// Release sequence number within the task (0-based).
    pub seq: u64,
}

impl JobId {
    /// Creates the job id for release number `seq` of `task`.
    #[must_use]
    pub fn new(task: TaskId, seq: u64) -> Self {
        JobId { task, seq }
    }
}

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.task, self.seq)
    }
}

/// Whether a task is released periodically or by unpredictable events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TaskKind {
    /// Released every `period`; the paper's experiments use period =
    /// deadline.
    Periodic {
        /// Interarrival time of consecutive releases.
        period: Duration,
    },
    /// Released by external events with arbitrary interarrival times.
    Aperiodic,
}

impl TaskKind {
    /// Returns true for [`TaskKind::Periodic`].
    #[must_use]
    pub fn is_periodic(self) -> bool {
        matches!(self, TaskKind::Periodic { .. })
    }

    /// Returns the period for periodic tasks.
    #[must_use]
    pub fn period(self) -> Option<Duration> {
        match self {
            TaskKind::Periodic { period } => Some(period),
            TaskKind::Aperiodic => None,
        }
    }
}

/// One stage of an end-to-end task: its worst-case execution time, the
/// processor its component is deployed on, and the processors hosting
/// duplicates of that component (the paper's criterion C3, used by load
/// balancing).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SubtaskSpec {
    /// Worst-case execution time of every subjob of this subtask.
    pub execution_time: Duration,
    /// Processor hosting the primary component instance.
    pub primary: ProcessorId,
    /// Processors hosting duplicate component instances (may be empty).
    pub replicas: Vec<ProcessorId>,
}

impl SubtaskSpec {
    /// Creates a subtask with no replicas.
    #[must_use]
    pub fn new(execution_time: Duration, primary: ProcessorId) -> Self {
        SubtaskSpec { execution_time, primary, replicas: Vec::new() }
    }

    /// Creates a subtask with replicas.
    #[must_use]
    pub fn with_replicas(
        execution_time: Duration,
        primary: ProcessorId,
        replicas: impl IntoIterator<Item = ProcessorId>,
    ) -> Self {
        SubtaskSpec { execution_time, primary, replicas: replicas.into_iter().collect() }
    }

    /// All processors this subtask may be placed on: the primary followed by
    /// the replicas, without duplicates.
    pub fn candidates(&self) -> impl Iterator<Item = ProcessorId> + '_ {
        // Replica lists are a handful long: looking back over the ones
        // already yielded beats a set, which would allocate per call.
        let fresh = move |(i, replica): (usize, &ProcessorId)| {
            (*replica != self.primary && !self.replicas[..i].contains(replica)).then_some(*replica)
        };
        std::iter::once(self.primary).chain(self.replicas.iter().enumerate().filter_map(fresh))
    }

    /// Returns true if the subtask has at least one replica distinct from the
    /// primary.
    #[must_use]
    pub fn is_replicated(&self) -> bool {
        self.replicas.iter().any(|r| *r != self.primary)
    }
}

/// Static description of one end-to-end task.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskSpec {
    id: TaskId,
    name: String,
    kind: TaskKind,
    deadline: Duration,
    subtasks: Vec<SubtaskSpec>,
}

impl TaskSpec {
    /// Validates and creates a task spec.
    ///
    /// # Errors
    ///
    /// See [`TaskSpecError`] for the conditions rejected: empty subtask
    /// chains, zero deadlines/periods/execution times, and total execution
    /// demand exceeding the end-to-end deadline.
    pub fn new(
        id: TaskId,
        name: impl Into<String>,
        kind: TaskKind,
        deadline: Duration,
        subtasks: Vec<SubtaskSpec>,
    ) -> Result<Self, TaskSpecError> {
        let spec = TaskSpec { id, name: name.into(), kind, deadline, subtasks };
        spec.validate()?;
        Ok(spec)
    }

    fn validate(&self) -> Result<(), TaskSpecError> {
        if self.subtasks.is_empty() {
            return Err(TaskSpecError::NoSubtasks { task: self.id });
        }
        if self.deadline.is_zero() {
            return Err(TaskSpecError::ZeroDeadline { task: self.id });
        }
        if let TaskKind::Periodic { period } = self.kind {
            if period.is_zero() {
                return Err(TaskSpecError::ZeroPeriod { task: self.id });
            }
        }
        for (index, sub) in self.subtasks.iter().enumerate() {
            if sub.execution_time.is_zero() {
                return Err(TaskSpecError::ZeroExecutionTime { task: self.id, subtask: index });
            }
        }
        let total: Duration = self.subtasks.iter().map(|s| s.execution_time).sum();
        if total > self.deadline {
            return Err(TaskSpecError::DemandExceedsDeadline {
                task: self.id,
                demand: total,
                deadline: self.deadline,
            });
        }
        Ok(())
    }

    /// The task identifier.
    #[must_use]
    pub fn id(&self) -> TaskId {
        self.id
    }

    /// Human-readable task name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Periodic or aperiodic release pattern.
    #[must_use]
    pub fn kind(&self) -> TaskKind {
        self.kind
    }

    /// End-to-end deadline `D_i` (maximum allowable response time).
    #[must_use]
    pub fn deadline(&self) -> Duration {
        self.deadline
    }

    /// The subtask chain, in execution order.
    #[must_use]
    pub fn subtasks(&self) -> &[SubtaskSpec] {
        &self.subtasks
    }

    /// Returns true if this is a periodic task.
    #[must_use]
    pub fn is_periodic(&self) -> bool {
        self.kind.is_periodic()
    }

    /// Synthetic utilization contribution of one subtask: `C_{i,j} / D_i`.
    ///
    /// # Panics
    ///
    /// Panics if `subtask` is out of bounds.
    #[must_use]
    pub fn subtask_utilization(&self, subtask: usize) -> f64 {
        self.subtasks[subtask].execution_time.ratio(self.deadline)
    }

    /// Total synthetic utilization of one job: `Σ_j C_{i,j} / D_i`.
    ///
    /// This is the weight used by the paper's *accepted utilization ratio*
    /// metric and by the ledger when the job is admitted.
    #[must_use]
    pub fn job_utilization(&self) -> f64 {
        (0..self.subtasks.len()).map(|j| self.subtask_utilization(j)).sum()
    }

    /// Returns true if every subtask has at least one replica, i.e. the task
    /// is eligible for load balancing (criterion C3).
    #[must_use]
    pub fn fully_replicated(&self) -> bool {
        self.subtasks.iter().all(SubtaskSpec::is_replicated)
    }
}

impl fmt::Display for TaskSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match self.kind {
            TaskKind::Periodic { period } => format!("periodic({period})"),
            TaskKind::Aperiodic => "aperiodic".to_owned(),
        };
        write!(
            f,
            "{} \"{}\" {kind} D={} stages={}",
            self.id,
            self.name,
            self.deadline,
            self.subtasks.len()
        )
    }
}

/// Errors rejected when constructing a [`TaskSpec`] or [`TaskSet`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskSpecError {
    /// A task must have at least one subtask.
    NoSubtasks {
        /// Offending task.
        task: TaskId,
    },
    /// End-to-end deadlines must be positive.
    ZeroDeadline {
        /// Offending task.
        task: TaskId,
    },
    /// Periods of periodic tasks must be positive.
    ZeroPeriod {
        /// Offending task.
        task: TaskId,
    },
    /// Subtask execution times must be positive.
    ZeroExecutionTime {
        /// Offending task.
        task: TaskId,
        /// Index of the offending subtask.
        subtask: usize,
    },
    /// The sum of subtask execution times may not exceed the end-to-end
    /// deadline (the job could never finish in time even alone).
    DemandExceedsDeadline {
        /// Offending task.
        task: TaskId,
        /// Total execution demand.
        demand: Duration,
        /// End-to-end deadline.
        deadline: Duration,
    },
    /// Two tasks in a [`TaskSet`] share an id.
    DuplicateTaskId {
        /// The duplicated id.
        task: TaskId,
    },
}

impl fmt::Display for TaskSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TaskSpecError::NoSubtasks { task } => {
                write!(f, "task {task} has no subtasks")
            }
            TaskSpecError::ZeroDeadline { task } => {
                write!(f, "task {task} has a zero end-to-end deadline")
            }
            TaskSpecError::ZeroPeriod { task } => {
                write!(f, "periodic task {task} has a zero period")
            }
            TaskSpecError::ZeroExecutionTime { task, subtask } => {
                write!(f, "subtask {subtask} of task {task} has a zero execution time")
            }
            TaskSpecError::DemandExceedsDeadline { task, demand, deadline } => {
                write!(
                    f,
                    "task {task} demands {demand} of execution but its deadline is {deadline}"
                )
            }
            TaskSpecError::DuplicateTaskId { task } => {
                write!(f, "duplicate task id {task}")
            }
        }
    }
}

impl std::error::Error for TaskSpecError {}

/// Incremental builder for [`TaskSpec`].
///
/// # Examples
///
/// ```
/// use rtcm_core::task::{ProcessorId, TaskBuilder, TaskId};
/// use rtcm_core::time::Duration;
///
/// let alert = TaskBuilder::aperiodic(TaskId(7))
///     .name("hazard-alert")
///     .deadline(Duration::from_millis(300))
///     .subtask(Duration::from_millis(5), ProcessorId(0), [])
///     .subtask(Duration::from_millis(8), ProcessorId(1), [ProcessorId(2)])
///     .build()?;
/// assert!(!alert.is_periodic());
/// # Ok::<(), rtcm_core::task::TaskSpecError>(())
/// ```
#[derive(Debug, Clone)]
pub struct TaskBuilder {
    id: TaskId,
    name: Option<String>,
    kind: TaskKind,
    deadline: Option<Duration>,
    subtasks: Vec<SubtaskSpec>,
}

impl TaskBuilder {
    /// Starts a periodic task with the given period.
    ///
    /// The deadline defaults to the period (the paper's experimental
    /// setting) unless overridden by [`TaskBuilder::deadline`].
    #[must_use]
    pub fn periodic(id: TaskId, period: Duration) -> Self {
        TaskBuilder {
            id,
            name: None,
            kind: TaskKind::Periodic { period },
            deadline: None,
            subtasks: Vec::new(),
        }
    }

    /// Starts an aperiodic task. A deadline must be supplied via
    /// [`TaskBuilder::deadline`].
    #[must_use]
    pub fn aperiodic(id: TaskId) -> Self {
        TaskBuilder {
            id,
            name: None,
            kind: TaskKind::Aperiodic,
            deadline: None,
            subtasks: Vec::new(),
        }
    }

    /// Sets a human-readable name (defaults to `task-<id>`).
    #[must_use]
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = Some(name.into());
        self
    }

    /// Sets the end-to-end deadline.
    #[must_use]
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Appends a subtask with the given execution time, primary processor,
    /// and replica processors.
    #[must_use]
    pub fn subtask(
        mut self,
        execution_time: Duration,
        primary: ProcessorId,
        replicas: impl IntoIterator<Item = ProcessorId>,
    ) -> Self {
        self.subtasks.push(SubtaskSpec::with_replicas(execution_time, primary, replicas));
        self
    }

    /// Finishes construction.
    ///
    /// # Errors
    ///
    /// Returns [`TaskSpecError`] if the assembled spec is invalid (see
    /// [`TaskSpec::new`]). For a periodic task without an explicit deadline,
    /// the deadline defaults to the period; an aperiodic task without a
    /// deadline is rejected as [`TaskSpecError::ZeroDeadline`].
    pub fn build(self) -> Result<TaskSpec, TaskSpecError> {
        let deadline = match (self.deadline, self.kind) {
            (Some(d), _) => d,
            (None, TaskKind::Periodic { period }) => period,
            (None, TaskKind::Aperiodic) => Duration::ZERO,
        };
        let name = self.name.unwrap_or_else(|| format!("task-{}", self.id.0));
        TaskSpec::new(self.id, name, self.kind, deadline, self.subtasks)
    }
}

/// A validated collection of task specs with unique ids.
///
/// `TaskSet` is the unit handed to the configuration engine, the workload
/// generators, the simulator and the runtime.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TaskSet {
    tasks: Vec<TaskSpec>,
    #[serde(skip)]
    by_id: IdMap<TaskId, usize>,
}

impl TaskSet {
    /// Creates an empty task set.
    #[must_use]
    pub fn new() -> Self {
        TaskSet::default()
    }

    /// Builds a task set from specs.
    ///
    /// # Errors
    ///
    /// Returns [`TaskSpecError::DuplicateTaskId`] if two specs share an id.
    pub fn from_tasks(tasks: impl IntoIterator<Item = TaskSpec>) -> Result<Self, TaskSpecError> {
        let mut set = TaskSet::new();
        for task in tasks {
            set.insert(task)?;
        }
        Ok(set)
    }

    /// Adds one task.
    ///
    /// # Errors
    ///
    /// Returns [`TaskSpecError::DuplicateTaskId`] if the id is taken.
    pub fn insert(&mut self, task: TaskSpec) -> Result<(), TaskSpecError> {
        let Entry::Vacant(slot) = self.by_id.entry(task.id()) else {
            return Err(TaskSpecError::DuplicateTaskId { task: task.id() });
        };
        slot.insert(self.tasks.len());
        self.tasks.push(task);
        Ok(())
    }

    /// Looks a task up by id.
    #[must_use]
    pub fn get(&self, id: TaskId) -> Option<&TaskSpec> {
        self.position(id).map(|i| &self.tasks[i])
    }

    /// Where `id` sits in [`TaskSet::tasks`]. Whoever holds the set keeps
    /// its per-task state in a `Vec` under this index: one lookup when an
    /// id enters from outside, none after.
    #[must_use]
    pub fn position(&self, id: TaskId) -> Option<usize> {
        self.by_id.get(&id).copied()
    }

    /// All tasks in insertion order.
    #[must_use]
    pub fn tasks(&self) -> &[TaskSpec] {
        &self.tasks
    }

    /// Iterates over the tasks.
    pub fn iter(&self) -> impl Iterator<Item = &TaskSpec> {
        self.tasks.iter()
    }

    /// Number of tasks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Returns true if the set holds no tasks.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// The highest processor index referenced by any primary or replica,
    /// plus one — i.e. the minimum processor count a deployment needs.
    #[must_use]
    pub fn processor_count(&self) -> usize {
        self.tasks
            .iter()
            .flat_map(|t| t.subtasks())
            .flat_map(SubtaskSpec::candidates)
            .map(|p| p.index() + 1)
            .max()
            .unwrap_or(0)
    }

    /// Per-processor synthetic utilization if all tasks were simultaneously
    /// current and placed on their primaries — the paper's workload sizing
    /// quantity ("the synthetic utilization of every processor is 0.5, if
    /// all tasks arrive simultaneously").
    #[must_use]
    pub fn simultaneous_utilization(&self) -> Vec<f64> {
        let mut u = vec![0.0; self.processor_count()];
        for task in &self.tasks {
            for (j, sub) in task.subtasks().iter().enumerate() {
                u[sub.primary.index()] += task.subtask_utilization(j);
            }
        }
        u
    }
}

impl TaskSet {
    /// Rebuilds the id index after deserialization.
    ///
    /// `serde` skips the index map; call this after deserializing by hand.
    /// [`TaskSet::from_tasks`] and [`TaskSet::insert`] maintain it
    /// automatically.
    pub fn reindex(&mut self) {
        self.by_id = self.tasks.iter().enumerate().map(|(i, t)| (t.id(), i)).collect();
    }
}

impl IntoIterator for TaskSet {
    type Item = TaskSpec;
    type IntoIter = std::vec::IntoIter<TaskSpec>;

    fn into_iter(self) -> Self::IntoIter {
        self.tasks.into_iter()
    }
}

impl<'a> IntoIterator for &'a TaskSet {
    type Item = &'a TaskSpec;
    type IntoIter = std::slice::Iter<'a, TaskSpec>;

    fn into_iter(self) -> Self::IntoIter {
        self.tasks.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_stage_task(id: u32) -> TaskSpec {
        TaskBuilder::periodic(TaskId(id), Duration::from_millis(100))
            .subtask(Duration::from_millis(10), ProcessorId(0), [ProcessorId(1)])
            .subtask(Duration::from_millis(5), ProcessorId(1), [])
            .build()
            .expect("valid task")
    }

    #[test]
    fn builder_defaults_deadline_to_period() {
        let t = two_stage_task(0);
        assert_eq!(t.deadline(), Duration::from_millis(100));
        assert_eq!(t.kind().period(), Some(Duration::from_millis(100)));
    }

    #[test]
    fn aperiodic_requires_deadline() {
        let err = TaskBuilder::aperiodic(TaskId(1))
            .subtask(Duration::from_millis(1), ProcessorId(0), [])
            .build()
            .unwrap_err();
        assert_eq!(err, TaskSpecError::ZeroDeadline { task: TaskId(1) });
    }

    #[test]
    fn rejects_empty_chain() {
        let err = TaskBuilder::periodic(TaskId(2), Duration::from_millis(10)).build().unwrap_err();
        assert_eq!(err, TaskSpecError::NoSubtasks { task: TaskId(2) });
    }

    #[test]
    fn rejects_zero_execution_time() {
        let err = TaskBuilder::periodic(TaskId(3), Duration::from_millis(10))
            .subtask(Duration::ZERO, ProcessorId(0), [])
            .build()
            .unwrap_err();
        assert_eq!(err, TaskSpecError::ZeroExecutionTime { task: TaskId(3), subtask: 0 });
    }

    #[test]
    fn rejects_demand_beyond_deadline() {
        let err = TaskBuilder::aperiodic(TaskId(4))
            .deadline(Duration::from_millis(10))
            .subtask(Duration::from_millis(8), ProcessorId(0), [])
            .subtask(Duration::from_millis(8), ProcessorId(1), [])
            .build()
            .unwrap_err();
        assert!(matches!(err, TaskSpecError::DemandExceedsDeadline { .. }));
    }

    #[test]
    fn utilization_is_exec_over_deadline() {
        let t = two_stage_task(0);
        assert!((t.subtask_utilization(0) - 0.1).abs() < 1e-12);
        assert!((t.subtask_utilization(1) - 0.05).abs() < 1e-12);
        assert!((t.job_utilization() - 0.15).abs() < 1e-12);
    }

    #[test]
    fn candidates_deduplicate_primary() {
        let sub = SubtaskSpec::with_replicas(
            Duration::from_millis(1),
            ProcessorId(0),
            [ProcessorId(0), ProcessorId(2), ProcessorId(2)],
        );
        let c: Vec<_> = sub.candidates().collect();
        assert_eq!(c, vec![ProcessorId(0), ProcessorId(2)]);
    }

    #[test]
    fn replication_flags() {
        let t = two_stage_task(0);
        assert!(t.subtasks()[0].is_replicated());
        assert!(!t.subtasks()[1].is_replicated());
        assert!(!t.fully_replicated());
    }

    #[test]
    fn task_set_rejects_duplicates() {
        let mut set = TaskSet::new();
        set.insert(two_stage_task(0)).unwrap();
        let err = set.insert(two_stage_task(0)).unwrap_err();
        assert_eq!(err, TaskSpecError::DuplicateTaskId { task: TaskId(0) });
    }

    #[test]
    fn task_set_lookup_and_processor_count() {
        let set = TaskSet::from_tasks([two_stage_task(0), two_stage_task(5)]).unwrap();
        assert_eq!(set.len(), 2);
        assert!(set.get(TaskId(5)).is_some());
        assert!(set.get(TaskId(9)).is_none());
        assert_eq!(set.processor_count(), 2);
    }

    #[test]
    fn simultaneous_utilization_sums_primaries() {
        let set = TaskSet::from_tasks([two_stage_task(0)]).unwrap();
        let u = set.simultaneous_utilization();
        assert!((u[0] - 0.1).abs() < 1e-12);
        assert!((u[1] - 0.05).abs() < 1e-12);
    }

    #[test]
    fn serde_round_trip_preserves_lookup() {
        let set = TaskSet::from_tasks([two_stage_task(0), two_stage_task(1)]).unwrap();
        let json = serde_json::to_string(&set).unwrap();
        let mut back: TaskSet = serde_json::from_str(&json).unwrap();
        back.reindex();
        assert_eq!(back.tasks(), set.tasks());
        assert!(back.get(TaskId(1)).is_some());
    }

    #[test]
    fn display_formats() {
        let t = two_stage_task(3);
        let s = t.to_string();
        assert!(s.contains("T3"));
        assert!(s.contains("periodic"));
        assert_eq!(JobId::new(TaskId(3), 7).to_string(), "T3#7");
        assert_eq!(ProcessorId(2).to_string(), "P2");
    }
}
