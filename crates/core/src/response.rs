//! Holistic end-to-end response-time analysis for periodic task sets under
//! EDMS — an analytical upper bound to cross-validate the simulator.
//!
//! The AUB admission test answers *"will deadlines hold?"*; this module
//! answers *"how late can each stage finish?"* using the classic holistic
//! analysis (Tindell & Clark): per-processor fixed-priority response-time
//! iteration with release-jitter propagation along the subtask chain,
//!
//! ```text
//!   w_ij = C_ij + Σ_{(k,l) ∈ hp(i) on same processor} ⌈(w_ij + J_kl) / P_k⌉ · C_kl
//!   J_i,j+1 = R_ij + comm,      R_ij = J_ij + w_ij
//! ```
//!
//! iterated to a global fixpoint. The analysis assumes periodic tasks with
//! constrained deadlines (D ≤ P); aperiodic interference is out of its
//! scope (that is exactly what AUB's synthetic utilization handles), so
//! [`analyze_response_times`] rejects sets containing aperiodic tasks.
//!
//! The bound is *sufficient, not tight*: simulated responses must never
//! exceed it (asserted by integration tests), but may be far below.
//!
//! # Examples
//!
//! ```
//! use rtcm_core::response::analyze_response_times;
//! use rtcm_core::task::{ProcessorId, TaskBuilder, TaskId, TaskSet};
//! use rtcm_core::time::Duration;
//!
//! let solo = TaskBuilder::periodic(TaskId(0), Duration::from_millis(100))
//!     .subtask(Duration::from_millis(10), ProcessorId(0), [])
//!     .build()?;
//! let set = TaskSet::from_tasks([solo])?;
//! let report = analyze_response_times(&set, Duration::ZERO)?;
//! // Alone, the bound is exactly the execution time.
//! assert_eq!(report.end_to_end(TaskId(0)), Some(Duration::from_millis(10)));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::priority::assign_edms;
use crate::task::{TaskId, TaskSet};
use crate::time::Duration;

/// Response-time bounds for one task, per stage.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TaskResponse {
    /// The task.
    pub task: TaskId,
    /// Worst-case completion bound of each stage, measured from the task's
    /// release (cumulative).
    pub stage_bounds: Vec<Duration>,
    /// True if every stage's busy window stayed within the task's
    /// end-to-end deadline. False means the bound crossed the deadline —
    /// with constrained deadlines (D ≤ P) the analysis is then both
    /// unschedulable and no longer meaningful, so `stage_bounds` is
    /// unusable.
    pub converged: bool,
}

impl TaskResponse {
    /// The end-to-end response bound, if the analysis converged.
    #[must_use]
    pub fn end_to_end(&self) -> Option<Duration> {
        if self.converged {
            self.stage_bounds.last().copied()
        } else {
            None
        }
    }

    /// True if the bound proves the deadline.
    #[must_use]
    pub fn meets(&self, deadline: Duration) -> bool {
        self.end_to_end().is_some_and(|r| r <= deadline)
    }
}

/// The whole-set analysis result.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResponseReport {
    /// Per-task bounds, in task-set order.
    pub tasks: Vec<TaskResponse>,
}

impl ResponseReport {
    /// End-to-end bound for `task`, if present and converged.
    #[must_use]
    pub fn end_to_end(&self, task: TaskId) -> Option<Duration> {
        self.tasks.iter().find(|t| t.task == task).and_then(TaskResponse::end_to_end)
    }
}

impl fmt::Display for ResponseReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for t in &self.tasks {
            match t.end_to_end() {
                Some(r) => writeln!(f, "  {}: R = {r}", t.task)?,
                None => writeln!(f, "  {}: unbounded (overload)", t.task)?,
            }
        }
        Ok(())
    }
}

/// Errors from the response-time analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResponseError {
    /// The set contains an aperiodic task; holistic analysis needs periods.
    AperiodicTask {
        /// The offending task.
        task: TaskId,
    },
    /// A task's deadline exceeds its period (unconstrained deadlines are
    /// outside this analysis' assumptions).
    UnconstrainedDeadline {
        /// The offending task.
        task: TaskId,
    },
}

impl fmt::Display for ResponseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResponseError::AperiodicTask { task } => {
                write!(f, "task {task} is aperiodic; holistic analysis requires periods")
            }
            ResponseError::UnconstrainedDeadline { task } => {
                write!(f, "task {task} has deadline > period; analysis assumes D <= P")
            }
        }
    }
}

impl std::error::Error for ResponseError {}

#[derive(Clone, Copy)]
struct Stage {
    task_idx: usize,
    prio: u32,
    exec_ns: u128,
    period_ns: u128,
}

/// Computes holistic response-time bounds for a periodic task set under
/// EDMS priorities, charging `comm` per processor-crossing hop.
///
/// # Errors
///
/// Returns [`ResponseError`] for aperiodic tasks or deadlines beyond
/// periods.
pub fn analyze_response_times(
    tasks: &TaskSet,
    comm: Duration,
) -> Result<ResponseReport, ResponseError> {
    for task in tasks.iter() {
        match task.kind().period() {
            None => return Err(ResponseError::AperiodicTask { task: task.id() }),
            Some(period) => {
                if task.deadline() > period {
                    return Err(ResponseError::UnconstrainedDeadline { task: task.id() });
                }
            }
        }
    }
    let priorities = assign_edms(tasks);
    let specs: Vec<_> = tasks.iter().collect();
    let n_proc = tasks.processor_count();

    // Per-processor stage tables.
    let mut on_proc: Vec<Vec<(usize, usize, Stage)>> = vec![Vec::new(); n_proc];
    for (ti, task) in specs.iter().enumerate() {
        for (j, sub) in task.subtasks().iter().enumerate() {
            on_proc[sub.primary.index()].push((
                ti,
                j,
                Stage {
                    task_idx: ti,
                    prio: priorities[&task.id()].0,
                    exec_ns: u128::from(sub.execution_time.as_nanos()),
                    period_ns: u128::from(task.kind().period().expect("checked").as_nanos()),
                },
            ));
        }
    }

    // Jitter (release offset bound) per stage; J_i0 = 0.
    let mut jitter: Vec<Vec<u128>> =
        specs.iter().map(|t| vec![0u128; t.subtasks().len()]).collect();
    let mut response: Vec<Vec<u128>> =
        specs.iter().map(|t| vec![0u128; t.subtasks().len()]).collect();
    let mut converged: Vec<bool> = vec![true; specs.len()];
    // Guard: once a stage's completion bound crosses the task deadline the
    // constrained-deadline analysis is void (and unschedulable anyway).
    let guards: Vec<u128> = specs.iter().map(|t| u128::from(t.deadline().as_nanos())).collect();
    let comm_ns = u128::from(comm.as_nanos());

    // Global fixpoint over jitter propagation.
    for _round in 0..128 {
        let mut changed = false;
        for (ti, task) in specs.iter().enumerate() {
            if !converged[ti] {
                continue;
            }
            for (j, sub) in task.subtasks().iter().enumerate() {
                let proc = sub.primary.index();
                let me_prio = priorities[&task.id()].0;
                // Busy-window iteration for stage (ti, j).
                let c = u128::from(sub.execution_time.as_nanos());
                let mut w = c;
                loop {
                    let mut demand = c;
                    for (ki, l, stage) in &on_proc[proc] {
                        if *ki == ti {
                            continue;
                        }
                        if stage.prio < me_prio {
                            let j_kl = jitter[stage.task_idx][*l];
                            demand += ((w + j_kl).div_ceil(stage.period_ns)) * stage.exec_ns;
                        }
                    }
                    if demand == w {
                        break;
                    }
                    w = demand;
                    if jitter[ti][j] + w > guards[ti] {
                        converged[ti] = false;
                        break;
                    }
                }
                if !converged[ti] {
                    break;
                }
                let r = jitter[ti][j] + w;
                if r != response[ti][j] {
                    response[ti][j] = r;
                    changed = true;
                }
                // Propagate jitter to the next stage (plus a comm hop when
                // it crosses processors).
                if j + 1 < task.subtasks().len() {
                    let crossing = task.subtasks()[j + 1].primary != sub.primary;
                    let next_j = r + if crossing { comm_ns } else { 0 };
                    if next_j != jitter[ti][j + 1] {
                        jitter[ti][j + 1] = next_j;
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    let report = ResponseReport {
        tasks: specs
            .iter()
            .enumerate()
            .map(|(ti, task)| TaskResponse {
                task: task.id(),
                stage_bounds: response[ti]
                    .iter()
                    .map(|ns| Duration::from_nanos(u64::try_from(*ns).unwrap_or(u64::MAX)))
                    .collect(),
                converged: converged[ti],
            })
            .collect(),
    };
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{ProcessorId, TaskBuilder};

    impl ResponseReport {
        /// True if every task's bound converged and proves its deadline.
        fn all_schedulable(&self, tasks: &TaskSet) -> bool {
            self.tasks
                .iter()
                .all(|r| tasks.get(r.task).is_some_and(|spec| r.meets(spec.deadline())))
        }
    }

    fn periodic(id: u32, period_ms: u64, stages: &[(u64, u16)]) -> crate::task::TaskSpec {
        let mut b = TaskBuilder::periodic(TaskId(id), Duration::from_millis(period_ms));
        for (exec, proc) in stages {
            b = b.subtask(Duration::from_millis(*exec), ProcessorId(*proc), []);
        }
        b.build().unwrap()
    }

    #[test]
    fn solo_task_bound_is_its_execution() {
        let set = TaskSet::from_tasks([periodic(0, 100, &[(10, 0), (5, 1)])]).unwrap();
        let r = analyze_response_times(&set, Duration::ZERO).unwrap();
        assert_eq!(r.end_to_end(TaskId(0)), Some(Duration::from_millis(15)));
        assert!(r.all_schedulable(&set));
    }

    #[test]
    fn comm_delay_charged_per_crossing() {
        let set = TaskSet::from_tasks([periodic(0, 100, &[(10, 0), (5, 1), (5, 1)])]).unwrap();
        let r = analyze_response_times(&set, Duration::from_millis(1)).unwrap();
        // One crossing (P0 -> P1); the P1 -> P1 hop is local.
        assert_eq!(r.end_to_end(TaskId(0)), Some(Duration::from_millis(21)));
    }

    #[test]
    fn interference_from_higher_priority() {
        // T0 (50 ms deadline, higher priority) interferes with T1.
        let set = TaskSet::from_tasks([periodic(0, 50, &[(10, 0)]), periodic(1, 100, &[(20, 0)])])
            .unwrap();
        let r = analyze_response_times(&set, Duration::ZERO).unwrap();
        assert_eq!(r.end_to_end(TaskId(0)), Some(Duration::from_millis(10)));
        // T1's busy window: w = 20 + ceil(w/50)·10 converges at 30.
        assert_eq!(r.end_to_end(TaskId(1)), Some(Duration::from_millis(30)));
        assert!(r.all_schedulable(&set));
    }

    #[test]
    fn overload_is_reported_as_unbounded() {
        let set = TaskSet::from_tasks([periodic(0, 50, &[(30, 0)]), periodic(1, 100, &[(60, 0)])])
            .unwrap();
        let r = analyze_response_times(&set, Duration::ZERO).unwrap();
        // T0 fits; T1 faces 60% + 60% > 100% on P0: its busy window blows
        // through the 100 ms deadline.
        assert!(r.tasks[0].converged);
        assert!(!r.tasks[1].converged);
        assert_eq!(r.end_to_end(TaskId(1)), None);
        assert!(!r.all_schedulable(&set));
        assert!(r.to_string().contains("unbounded"));
    }

    #[test]
    fn jitter_propagates_downstream() {
        // T0's stage 2 on P1 suffers jitter from stage 1 delays caused by
        // T1's interference on P0.
        let set = TaskSet::from_tasks([
            periodic(1, 80, &[(10, 0)]),           // higher prio on P0
            periodic(0, 100, &[(10, 0), (10, 1)]), // chain P0 -> P1
        ])
        .unwrap();
        let r = analyze_response_times(&set, Duration::ZERO).unwrap();
        // Stage 1 of the chain: 10 + 10 (interference) = 20; stage 2 adds
        // its own 10 with jitter 20 -> end-to-end 30.
        assert_eq!(r.end_to_end(TaskId(0)), Some(Duration::from_millis(30)));
    }

    #[test]
    fn rejects_aperiodic_and_unconstrained() {
        let aperiodic = TaskBuilder::aperiodic(TaskId(0))
            .deadline(Duration::from_millis(100))
            .subtask(Duration::from_millis(1), ProcessorId(0), [])
            .build()
            .unwrap();
        let set = TaskSet::from_tasks([aperiodic]).unwrap();
        assert!(matches!(
            analyze_response_times(&set, Duration::ZERO),
            Err(ResponseError::AperiodicTask { .. })
        ));

        let loose = TaskBuilder::periodic(TaskId(0), Duration::from_millis(50))
            .deadline(Duration::from_millis(80))
            .subtask(Duration::from_millis(1), ProcessorId(0), [])
            .build()
            .unwrap();
        let set = TaskSet::from_tasks([loose]).unwrap();
        assert!(matches!(
            analyze_response_times(&set, Duration::ZERO),
            Err(ResponseError::UnconstrainedDeadline { .. })
        ));
    }

    #[test]
    fn report_serializes() {
        let set = TaskSet::from_tasks([periodic(0, 100, &[(10, 0)])]).unwrap();
        let r = analyze_response_times(&set, Duration::ZERO).unwrap();
        let json = serde_json::to_string(&r).unwrap();
        assert!(json.contains("stage_bounds"));
    }
}
