//! The task effector's per-task verdict cache (§4.1, §5): what lets the
//! arrival processor settle a periodic task's later jobs without a manager
//! round trip.
//!
//! Under per-task admission control the verdict on a periodic task's first
//! job stands for every later one: a rejected task's jobs are dropped where
//! they arrive, and an accepted task's jobs are released there — unless
//! load balancing re-places every job, in which case each one still asks.
//! The effector holds that rule and the cache; the substrate holds the
//! placement in whatever form it carries one (`P`) and performs the
//! release. A reconfiguration commit calls [`TaskEffector::clear`]: cached
//! verdicts were taken under the old configuration.
//!
//! The cache is a `Vec` under the task's position in the deployed
//! [`TaskSet`](crate::task::TaskSet) (`TaskSet::position`), which the
//! substrate has in hand from looking the arriving task up.
//!
//! # Examples
//!
//! ```
//! use rtcm_core::effector::{Local, TaskEffector};
//! use rtcm_core::task::{ProcessorId, TaskBuilder, TaskId};
//! use rtcm_core::time::Duration;
//!
//! let scan = TaskBuilder::periodic(TaskId(0), Duration::from_millis(100))
//!     .subtask(Duration::from_millis(10), ProcessorId(0), [])
//!     .build()?;
//! let services = "T_N_N".parse()?;
//!
//! // One deployed task, at position 0.
//! let mut te: TaskEffector<Vec<u16>> = TaskEffector::new(1);
//! assert_eq!(te.on_arrival(services, 0, &scan), Local::AskManager);
//! te.on_accept(services, 0, &scan, &vec![0]);
//! assert_eq!(te.on_arrival(services, 0, &scan), Local::Release(&vec![0]));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::strategy::ServiceConfig;
use crate::task::TaskSpec;

/// What the effector can do with an arriving job on its own.
#[derive(Debug, PartialEq, Eq)]
pub enum Local<'a, P> {
    /// The task was accepted earlier: release the job on this placement.
    Release(&'a P),
    /// The task was rejected earlier: drop the job.
    Drop,
    /// Nothing is known, or the configuration decides every job: hold the
    /// job and push "Task Arrive" to the admission controller.
    AskManager,
}

/// What the admission controller last said about a task as a whole.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Verdict<P> {
    Unknown,
    /// Accepted: release locally on this placement.
    Accepted(P),
    Rejected,
}

/// The per-task verdict cache of one task effector (or, in the simulator,
/// of all of them — a task arrives at one processor).
#[derive(Debug)]
pub struct TaskEffector<P> {
    /// Indexed by the task's position in the deployed set.
    verdicts: Vec<Verdict<P>>,
}

impl<P> TaskEffector<P> {
    /// An effector for a deployment of `tasks` tasks, knowing nothing yet.
    #[must_use]
    pub fn new(tasks: usize) -> Self {
        TaskEffector { verdicts: (0..tasks).map(|_| Verdict::Unknown).collect() }
    }

    /// A job of `task` — the deployed set's `index`-th — arrived: release
    /// it, drop it, or ask.
    ///
    /// # Panics
    ///
    /// Panics if `index` is not below the task count the effector was
    /// built for; so do [`TaskEffector::on_accept`] and
    /// [`TaskEffector::on_task_rejected`].
    #[must_use]
    pub fn on_arrival(
        &self,
        services: ServiceConfig,
        index: usize,
        task: &TaskSpec,
    ) -> Local<'_, P> {
        if !services.decides_per_task(task) {
            return Local::AskManager;
        }
        match &self.verdicts[index] {
            Verdict::Accepted(plan) if services.releases_locally(task) => Local::Release(plan),
            Verdict::Rejected => Local::Drop,
            _ => Local::AskManager,
        }
    }

    /// The admission controller accepted a job of `task` on `plan`; the
    /// plan is kept iff later jobs release locally.
    pub fn on_accept(&mut self, services: ServiceConfig, index: usize, task: &TaskSpec, plan: &P)
    where
        P: Clone,
    {
        if services.releases_locally(task) {
            self.verdicts[index] = Verdict::Accepted(plan.clone());
        }
    }

    /// The admission controller rejected the `index`-th task as a whole
    /// (its verdict said so; see [`ServiceConfig::decides_per_task`]).
    pub fn on_task_rejected(&mut self, index: usize) {
        self.verdicts[index] = Verdict::Rejected;
    }

    /// Forgets every verdict (a reconfiguration committed).
    pub fn clear(&mut self) {
        self.verdicts.fill_with(|| Verdict::Unknown);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{ProcessorId, TaskBuilder, TaskId};
    use crate::time::Duration;

    fn periodic() -> TaskSpec {
        TaskBuilder::periodic(TaskId(0), Duration::from_millis(100))
            .subtask(Duration::from_millis(10), ProcessorId(0), [ProcessorId(1)])
            .build()
            .unwrap()
    }

    fn cfg(label: &str) -> ServiceConfig {
        label.parse().unwrap()
    }

    #[test]
    fn a_per_job_configuration_never_caches() {
        let aperiodic = TaskBuilder::aperiodic(TaskId(1))
            .deadline(Duration::from_millis(100))
            .subtask(Duration::from_millis(10), ProcessorId(0), [])
            .build()
            .unwrap();
        // The last row: per-task admission control decides aperiodic jobs
        // one by one all the same.
        for (label, task) in
            [("J_N_N", periodic()), ("J_N_N", aperiodic.clone()), ("T_N_N", aperiodic)]
        {
            let mut te = TaskEffector::new(1);
            te.on_accept(cfg(label), 0, &task, &7);
            assert_eq!(te.on_arrival(cfg(label), 0, &task), Local::AskManager, "{label}");
        }
    }

    #[test]
    fn an_accepted_per_task_task_releases_locally_unless_lb_is_per_job() {
        for (label, then) in [
            ("T_N_N", Local::Release(&7)),
            ("T_N_T", Local::Release(&7)),
            ("T_N_J", Local::AskManager),
        ] {
            let mut te = TaskEffector::new(1);
            assert_eq!(te.on_arrival(cfg(label), 0, &periodic()), Local::AskManager);
            te.on_accept(cfg(label), 0, &periodic(), &7);
            assert_eq!(te.on_arrival(cfg(label), 0, &periodic()), then, "{label}");
        }
    }

    #[test]
    fn a_rejected_task_drops() {
        let mut te: TaskEffector<u8> = TaskEffector::new(1);
        te.on_task_rejected(0);
        // Per-job load balancing re-places accepted jobs; a rejection
        // stands all the same.
        for label in ["T_N_N", "T_N_J"] {
            assert_eq!(te.on_arrival(cfg(label), 0, &periodic()), Local::Drop, "{label}");
        }
    }

    #[test]
    fn clear_forgets() {
        let mut te = TaskEffector::new(3);
        te.on_accept(cfg("T_N_N"), 0, &periodic(), &7);
        te.on_task_rejected(2);
        te.clear();
        assert_eq!(te.on_arrival(cfg("T_N_N"), 0, &periodic()), Local::AskManager);
        assert!(te.verdicts.iter().all(|v| *v == Verdict::Unknown));
    }
}
