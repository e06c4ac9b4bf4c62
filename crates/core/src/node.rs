//! One application processor's step (Figure 3): the task effector's
//! per-task verdict cache, the idle resetter and the prioritized subtask
//! dispatcher, composed once. The simulator drives one [`NodeCore`] per
//! processor in virtual time and the runtime's node handler its own off the
//! wall clock; each only moves messages, keeps the time, and picks the
//! instant it calls [`NodeCore::idle`].
//!
//! Under per-task admission control the verdict on a periodic task's first
//! job stands for every later one: a rejected task's jobs are dropped where
//! they arrive, an accepted task's are released there — unless load
//! balancing re-places every job, in which case each one still asks.
//! Verdicts sit in a `Vec` under the task's position in the deployed
//! [`TaskSet`]; a reconfiguration's [`NodeCore::commit`] forgets them.
//!
//! # Examples
//!
//! ```
//! use rtcm_core::node::{Local, NodeCore};
//! use rtcm_core::task::{ProcessorId, TaskBuilder, TaskId};
//! use rtcm_core::time::Duration;
//!
//! let scan = TaskBuilder::periodic(TaskId(0), Duration::from_millis(100))
//!     .subtask(Duration::from_millis(10), ProcessorId(0), [])
//!     .build()?;
//!
//! // One deployed task, at position 0.
//! let mut node: NodeCore<Vec<u16>, ()> = NodeCore::new("T_N_N".parse()?, ProcessorId(0), 1);
//! assert_eq!(node.arrive(0, &scan), Local::AskManager);
//! node.accepted(0, &scan, &vec![0]);
//! assert_eq!(node.arrive(0, &scan), Local::Release(&vec![0]));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::dispatch::{Completion, Cpu, Span, Started};
use crate::ledger::ContributionKey;
use crate::priority::Priority;
use crate::reset::{IdleResetReport, IdleResetter};
use crate::strategy::ServiceConfig;
use crate::task::{JobId, ProcessorId, TaskSet, TaskSpec};
use crate::time::{Duration, Time};

/// What the task effector can do with an arriving job on its own.
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

/// One stage of a released job, from its release to its completion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Subjob<X> {
    /// The job.
    pub job: JobId,
    /// Position of the job's task in the deployed set.
    pub task: usize,
    /// The stage index.
    pub subtask: usize,
    /// The job's arrival at its task effector.
    pub arrival: Time,
    /// The job's absolute end-to-end deadline.
    pub deadline: Time,
    /// Whatever else the substrate carries along the chain.
    pub extra: X,
}

/// What a completed run means for its job.
#[derive(Debug, PartialEq, Eq)]
pub enum Done<X> {
    /// The last stage finished: the job is done.
    Job {
        /// The finished stage.
        stage: Subjob<X>,
        /// End-to-end response time, from the job's arrival.
        response: Duration,
        /// True if it finished after its deadline.
        missed: bool,
    },
    /// An earlier stage finished: this is the next one, to be released on
    /// the processor its placement names.
    Next(Subjob<X>),
}

/// One application processor: task effector, idle resetter and dispatcher.
/// `P` is the placement a verdict caches, `X` what a stage carries besides
/// its [`Subjob`] fields.
#[derive(Debug)]
pub struct NodeCore<P, X> {
    services: ServiceConfig,
    /// Indexed by the task's position in the deployed set.
    verdicts: Vec<Verdict<P>>,
    resetter: IdleResetter,
    cpu: Cpu<Subjob<X>>,
}

impl<P, X> NodeCore<P, X> {
    /// An idle node for `processor` under `services`, for a deployment of
    /// `tasks` tasks, knowing no verdict yet.
    #[must_use]
    pub fn new(services: ServiceConfig, processor: ProcessorId, tasks: usize) -> Self {
        NodeCore {
            services,
            verdicts: (0..tasks).map(|_| Verdict::Unknown).collect(),
            resetter: IdleResetter::new(services.ir, processor),
            cpu: Cpu::new(),
        }
    }

    /// A job of `task` — the deployed set's `index`-th — arrived here:
    /// release it, drop it, or ask.
    ///
    /// # Panics
    ///
    /// Panics if `index` is not below the task count the node was built
    /// for; so do [`NodeCore::accepted`] and [`NodeCore::task_rejected`].
    #[must_use]
    pub fn arrive(&self, index: usize, task: &TaskSpec) -> Local<'_, P> {
        if !self.services.decides_per_task(task) {
            return Local::AskManager;
        }
        match &self.verdicts[index] {
            Verdict::Accepted(plan) if self.services.releases_locally(task) => Local::Release(plan),
            Verdict::Rejected => Local::Drop,
            _ => Local::AskManager,
        }
    }

    /// The admission controller rejected the `index`-th task as a whole
    /// (its verdict said so; see [`ServiceConfig::decides_per_task`]).
    pub fn task_rejected(&mut self, index: usize) {
        self.verdicts[index] = Verdict::Rejected;
    }

    /// Adopts a committed reconfiguration: every verdict is forgotten and
    /// the resetter's strategy swaps in place. Completions already recorded
    /// stay reportable.
    pub fn commit(&mut self, services: ServiceConfig) {
        self.services = services;
        self.verdicts.fill_with(|| Verdict::Unknown);
        self.resetter.set_strategy(services.ir);
    }

    /// The idle detector (op 7), at the instant the substrate declares
    /// idleness: a report of the completions recorded since the last one
    /// and still unexpired at `now`, if the dispatcher holds no stage and
    /// there is any.
    pub fn idle(&mut self, now: Time) -> Option<IdleResetReport> {
        if !self.cpu.is_idle() {
            return None;
        }
        self.resetter.on_idle(now)
    }

    /// Total time the dispatcher spent busy up to its last state change.
    #[must_use]
    pub fn busy_time(&self) -> Duration {
        self.cpu.busy_time()
    }

    /// Enables or disables the dispatcher's span log.
    pub fn set_tracing(&mut self, on: bool) {
        self.cpu.set_tracing(on);
    }

    /// Drains the dispatcher's span log (empty when tracing is off).
    pub fn drain_spans(&mut self) -> Vec<Span<Subjob<X>>> {
        self.cpu.drain_spans()
    }
}

impl<P: Clone, X: Clone> NodeCore<P, X> {
    /// The admission controller accepted a job of `task` on `plan`; the
    /// plan is kept iff later jobs release locally.
    pub fn accepted(&mut self, index: usize, task: &TaskSpec, plan: &P) {
        if self.services.releases_locally(task) {
            self.verdicts[index] = Verdict::Accepted(plan.clone());
        }
    }

    /// Offers a released stage with `exec` execution time to the
    /// dispatcher at `now`. Returns the run it started, if the stage starts
    /// at once or preempts: the substrate delivers [`NodeCore::complete`] at
    /// its `completes_at` with its `gen`.
    pub fn release(
        &mut self,
        now: Time,
        priority: Priority,
        exec: Duration,
        stage: Subjob<X>,
    ) -> Option<Started> {
        self.cpu.enqueue(now, priority, exec, stage)
    }

    /// Completes run `gen` at `now`, unless it was preempted meanwhile
    /// (`None`). The resetter records the completion (strategy-filtered),
    /// and the result says what it means for the job, with the run the
    /// dispatcher started in its place.
    ///
    /// # Panics
    ///
    /// Panics if the stage's task position or index is not in `tasks`.
    pub fn complete(
        &mut self,
        now: Time,
        gen: u64,
        tasks: &TaskSet,
    ) -> Option<(Done<X>, Option<Started>)> {
        let Completion::Done { payload: mut stage, next } = self.cpu.complete(now, gen) else {
            return None;
        };
        let task = &tasks.tasks()[stage.task];
        self.resetter.record_completion(
            ContributionKey::new(stage.job, stage.subtask),
            stage.deadline,
            task.is_periodic(),
        );
        let done = if stage.subtask + 1 == task.subtasks().len() {
            Done::Job {
                response: now.elapsed_since(stage.arrival),
                missed: now > stage.deadline,
                stage,
            }
        } else {
            stage.subtask += 1;
            Done::Next(stage)
        };
        Some((done, next))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{TaskBuilder, TaskId};

    fn periodic() -> TaskSpec {
        TaskBuilder::periodic(TaskId(0), Duration::from_millis(100))
            .subtask(Duration::from_millis(10), ProcessorId(0), [ProcessorId(1)])
            .build()
            .unwrap()
    }

    fn cfg(label: &str) -> ServiceConfig {
        label.parse().unwrap()
    }

    fn core_for<P>(label: &str, tasks: usize) -> NodeCore<P, ()> {
        NodeCore::new(cfg(label), ProcessorId(0), tasks)
    }

    fn at(ms: u64) -> Time {
        Time::ZERO + Duration::from_millis(ms)
    }

    /// A two-stage periodic task and a one-stage aperiodic one, both on
    /// processor 0, at positions 0 and 1.
    fn chain_set() -> TaskSet {
        let chain = TaskBuilder::periodic(TaskId(0), Duration::from_millis(100))
            .subtask(Duration::from_millis(10), ProcessorId(0), [])
            .subtask(Duration::from_millis(10), ProcessorId(0), [])
            .build()
            .unwrap();
        let alert = TaskBuilder::aperiodic(TaskId(1))
            .deadline(Duration::from_millis(50))
            .subtask(Duration::from_millis(5), ProcessorId(0), [])
            .build()
            .unwrap();
        TaskSet::from_tasks([chain, alert]).unwrap()
    }

    /// Stage `subtask` of job `seq` of the task at position `task`, which
    /// arrived at `arrival` ms with a 100 ms deadline.
    fn stage(task: usize, seq: u64, subtask: usize, arrival: u64) -> Subjob<()> {
        Subjob {
            job: JobId::new(TaskId(task as u32), seq),
            task,
            subtask,
            arrival: at(arrival),
            deadline: at(arrival + 100),
            extra: (),
        }
    }

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    fn key(task: u32, seq: u64, subtask: usize) -> ContributionKey {
        ContributionKey::new(JobId::new(TaskId(task), seq), subtask)
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
            let mut node = core_for(label, 1);
            node.accepted(0, &task, &7);
            assert_eq!(node.arrive(0, &task), Local::AskManager, "{label}");
        }
    }

    #[test]
    fn an_accepted_per_task_task_releases_locally_unless_lb_is_per_job() {
        for (label, then) in [
            ("T_N_N", Local::Release(&7)),
            ("T_N_T", Local::Release(&7)),
            ("T_N_J", Local::AskManager),
        ] {
            let mut node = core_for(label, 1);
            assert_eq!(node.arrive(0, &periodic()), Local::AskManager);
            node.accepted(0, &periodic(), &7);
            assert_eq!(node.arrive(0, &periodic()), then, "{label}");
        }
    }

    #[test]
    fn a_rejected_task_drops() {
        // Per-job load balancing re-places accepted jobs; a rejection
        // stands all the same.
        for label in ["T_N_N", "T_N_J"] {
            let mut node: NodeCore<u8, ()> = core_for(label, 1);
            node.task_rejected(0);
            assert_eq!(node.arrive(0, &periodic()), Local::Drop, "{label}");
        }
    }

    #[test]
    fn clear_forgets() {
        let mut node = core_for("T_N_N", 3);
        node.accepted(0, &periodic(), &7);
        node.task_rejected(2);
        node.commit(cfg("T_N_N"));
        assert_eq!(node.arrive(0, &periodic()), Local::AskManager);
        assert!(node.verdicts.iter().all(|v| *v == Verdict::Unknown));
    }

    #[test]
    fn a_preempted_run_completes_nothing() {
        let tasks = chain_set();
        let mut node: NodeCore<u8, ()> = core_for("J_J_N", 2);
        let slow = node.release(at(0), Priority(5), ms(10), stage(0, 0, 1, 0)).unwrap();
        let urgent = node.release(at(4), Priority(1), ms(5), stage(1, 0, 0, 4)).unwrap();
        assert!(node.complete(slow.completes_at, slow.gen, &tasks).is_none());
        // Only the run that did finish reaches the resetter.
        let (_, resumed) = node.complete(at(9), urgent.gen, &tasks).unwrap();
        let resumed = resumed.expect("the preempted stage resumes");
        assert_eq!(resumed.completes_at, at(15));
        assert!(node.idle(at(9)).is_none(), "the resumed stage still runs");
        node.complete(at(15), resumed.gen, &tasks).unwrap();
        let report = node.idle(at(15)).unwrap();
        assert_eq!(report.completed, vec![key(1, 0, 0), key(0, 0, 1)]);
    }

    #[test]
    fn the_last_stage_finishes_the_job_and_misses_only_past_its_deadline() {
        let tasks = chain_set();
        // Arrived at 0 ms, deadline 100 ms: on time at the deadline itself,
        // missed one nanosecond later.
        for (end, missed) in [(at(100), false), (at(100) + Duration::from_nanos(1), true)] {
            let mut node: NodeCore<u8, ()> = core_for("J_N_N", 2);
            let run = node.release(end - ms(10), Priority(1), ms(10), stage(0, 3, 1, 0)).unwrap();
            let (done, next) = node.complete(end, run.gen, &tasks).unwrap();
            assert!(next.is_none());
            assert_eq!(
                done,
                Done::Job { stage: stage(0, 3, 1, 0), response: end.elapsed_since(at(0)), missed }
            );
        }
    }

    #[test]
    fn an_earlier_stage_yields_the_next_one() {
        let tasks = chain_set();
        let mut node: NodeCore<u8, ()> = core_for("J_N_N", 2);
        let run = node.release(at(0), Priority(1), ms(10), stage(0, 3, 0, 0)).unwrap();
        let (done, _) = node.complete(at(10), run.gen, &tasks).unwrap();
        assert_eq!(done, Done::Next(stage(0, 3, 1, 0)));
    }

    #[test]
    fn idle_reports_once_per_idle_period_and_never_while_busy() {
        let tasks = chain_set();
        let mut node: NodeCore<u8, ()> = core_for("J_J_N", 2);
        let first = node.release(at(0), Priority(1), ms(5), stage(1, 0, 0, 0)).unwrap();
        assert!(node.release(at(1), Priority(5), ms(10), stage(0, 0, 1, 0)).is_none());
        assert!(node.idle(at(1)).is_none(), "running");
        let (_, queued) = node.complete(at(5), first.gen, &tasks).unwrap();
        assert!(node.idle(at(5)).is_none(), "a stage is ready behind the completion");
        node.complete(at(15), queued.unwrap().gen, &tasks).unwrap();
        let report = node.idle(at(15)).unwrap();
        assert_eq!(report.processor, ProcessorId(0));
        assert_eq!(report.completed, vec![key(1, 0, 0), key(0, 0, 1)]);
        assert!(node.idle(at(16)).is_none(), "one report per idle period");
    }

    #[test]
    fn commit_forgets_verdicts_and_swaps_the_reset_strategy() {
        let tasks = chain_set();
        let mut node: NodeCore<u8, ()> = core_for("T_T_N", 2);
        node.accepted(0, tasks.get(TaskId(0)).unwrap(), &7);
        let run = node.release(at(0), Priority(1), ms(5), stage(1, 0, 0, 0)).unwrap();
        node.complete(at(5), run.gen, &tasks).unwrap();

        node.commit(cfg("J_N_N"));
        assert_eq!(node.arrive(0, tasks.get(TaskId(0)).unwrap()), Local::AskManager);
        // Recorded under the old strategy: still reported. Completed under
        // the new one: not recorded.
        let run = node.release(at(5), Priority(1), ms(5), stage(1, 1, 0, 5)).unwrap();
        node.complete(at(10), run.gen, &tasks).unwrap();
        assert_eq!(node.idle(at(10)).unwrap().completed, vec![key(1, 0, 0)]);
    }
}
