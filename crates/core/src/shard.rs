//! Source-compatibility handle for the retired sharded admission plane.
//!
//! There is one admission engine, [`AdmissionController`], owned by value in
//! every substrate. The frozen `benchmark/` package still names this type and
//! calls it through `&self`, so it survives as a mutex around that engine with
//! exactly the methods `benchmark/src/adapter.rs` calls. The next `benchmark`
//! PR switches `adapter.rs::controller()` to the engine and deletes this file.

use std::sync::{Mutex, MutexGuard};

use crate::admission::{AdmissionController, AdmissionError, AdmissionMode, Decision};
use crate::balance::Assignment;
use crate::ledger::ContributionKey;
use crate::reconfig::HandoverReport;
use crate::strategy::{InvalidConfigError, ServiceConfig};
use crate::task::{ProcessorId, TaskSet, TaskSpec};
use crate::time::Time;

type Decided = Result<Decision, AdmissionError>;

/// [`AdmissionController`] behind a mutex; every method locks and forwards to its namesake.
#[derive(Debug)]
pub struct ShardedAdmissionController(Mutex<AdmissionController>);

#[allow(missing_docs)] // forwards; the engine's methods carry the documentation
impl ShardedAdmissionController {
    /// `shards` is accepted and ignored: there is one engine.
    pub fn with_mode(
        config: ServiceConfig,
        processor_count: usize,
        _shards: usize,
        mode: AdmissionMode,
    ) -> Result<Self, InvalidConfigError> {
        AdmissionController::with_mode(config, processor_count, mode).map(|ac| Self(Mutex::new(ac)))
    }

    fn engine(&self) -> MutexGuard<'_, AdmissionController> {
        self.0.lock().expect("poisoned only if the engine panicked, which is a bug")
    }

    pub fn expire(&self, now: Time) {
        self.engine().expire(now);
    }
    pub fn propose_assignment(&self, task: &TaskSpec) -> Assignment {
        self.engine().propose_assignment(task)
    }
    pub fn admit_with(&self, task: &TaskSpec, seq: u64, now: Time, plan: Assignment) -> Decided {
        self.engine().admit_with(task, seq, now, plan)
    }
    pub fn handle_arrival(&self, task: &TaskSpec, seq: u64, now: Time) -> Decided {
        self.engine().handle_arrival(task, seq, now)
    }
    pub fn apply_idle_reset(&self, processor: ProcessorId, keys: &[ContributionKey]) -> f64 {
        self.engine().apply_idle_reset(processor, keys)
    }
    pub fn reconfigure(
        &self,
        target: ServiceConfig,
        now: Time,
        tasks: &TaskSet,
    ) -> Result<HandoverReport, InvalidConfigError> {
        self.engine().reconfigure(target, now, tasks)
    }
    pub fn current_entries(&self) -> usize {
        self.engine().current_entries()
    }
    pub fn utilizations(&self) -> Vec<f64> {
        self.engine().ledger().utilizations()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{JobId, TaskBuilder, TaskId};
    use crate::time::Duration;

    #[test]
    fn handle_matches_a_bare_controller() {
        let config = |label: &str| label.parse::<ServiceConfig>().unwrap();
        let at = |ms: u64| Time::ZERO + Duration::from_millis(ms);
        let exec = Duration::from_millis(20);
        let aperiodic = |id: u32| {
            TaskBuilder::aperiodic(TaskId(id))
                .deadline(Duration::from_millis(100))
                .subtask(exec, ProcessorId(0), [])
                .build()
                .unwrap()
        };
        let periodic = TaskBuilder::periodic(TaskId(0), Duration::from_millis(100))
            .subtask(exec, ProcessorId(0), [])
            .build()
            .unwrap();
        let (first, second) = (aperiodic(1), aperiodic(2));
        let tasks = TaskSet::from_tasks([periodic.clone(), first.clone(), second.clone()]).unwrap();

        let mode = AdmissionMode::Incremental;
        let handle = ShardedAdmissionController::with_mode(config("J_N_N"), 2, 7, mode).unwrap();
        let mut bare = AdmissionController::with_mode(config("J_N_N"), 2, mode).unwrap();
        let same_state = |bare: &AdmissionController, step: &str| {
            assert_eq!(handle.utilizations(), bare.ledger().utilizations(), "{step}");
            assert_eq!(handle.current_entries(), bare.current_entries(), "{step}");
        };

        // Two accepts fill processor 0 to 0.4; a third 0.2 is over the bound.
        for task in [&periodic, &first] {
            let decision = handle.handle_arrival(task, 0, at(0)).unwrap();
            assert!(decision.is_accept());
            assert_eq!(decision, bare.handle_arrival(task, 0, at(0)).unwrap());
        }
        let plan = handle.propose_assignment(&second);
        assert_eq!(plan, bare.propose_assignment(&second));
        let decision = handle.admit_with(&second, 0, at(0), plan.clone()).unwrap();
        assert!(!decision.is_accept());
        assert_eq!(decision, bare.admit_with(&second, 0, at(0), plan).unwrap());
        same_state(&bare, "reject");

        let done = [ContributionKey::new(JobId::new(first.id(), 0), 0)];
        let freed = handle.apply_idle_reset(ProcessorId(0), &done);
        assert_eq!(freed, bare.apply_idle_reset(ProcessorId(0), &done));
        same_state(&bare, "idle reset");

        // Reseed the periodic job as a reservation, pass a job through it,
        // drain it again.
        for (label, ms) in [("T_N_N", 10), ("J_N_N", 110)] {
            let report = handle.reconfigure(config(label), at(ms), &tasks).unwrap();
            assert_eq!(report, bare.reconfigure(config(label), at(ms), &tasks).unwrap());
            let decision = handle.handle_arrival(&periodic, ms, at(ms)).unwrap();
            assert_eq!(decision, bare.handle_arrival(&periodic, ms, at(ms)).unwrap());
            same_state(&bare, label);
        }

        handle.expire(at(1_000));
        bare.expire(at(1_000));
        same_state(&bare, "expiry");
        assert_eq!(handle.current_entries(), 0);
    }
}
