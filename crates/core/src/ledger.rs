//! The synthetic-utilization ledger: per-processor totals of the shares
//! `C_{i,j} / D_i` of current jobs and reserved tasks.
//!
//! A *share* is one subtask's part of one job (or of a per-task
//! reservation). The ledger keeps sums, not shares: each share lives in the
//! admission entry that made it ([`crate::admission`]), and that entry says
//! when the share leaves — at its job's end-to-end deadline, early on an
//! idle-reset report, or with its task's reservation. Per processor the
//! ledger holds the running total and how many live shares it sums; a
//! processor with none reads exactly `0.0`, whatever drift the total picked
//! up on the way. It also records which processors a mutation touched, so
//! the controller can delta-apply each one's `f(U)` step once.
//!
//! # Examples
//!
//! ```
//! use rtcm_core::ledger::UtilizationLedger;
//! use rtcm_core::task::ProcessorId;
//!
//! let mut ledger = UtilizationLedger::new(2);
//! ledger.add(ProcessorId(0), 0.25)?;
//! ledger.add(ProcessorId(0), 0.5)?;
//! assert_eq!(ledger.utilization(ProcessorId(0)), 0.75);
//! assert_eq!(ledger.contribution_count(ProcessorId(0)), 2);
//!
//! ledger.remove(ProcessorId(0), 0.25);
//! ledger.remove(ProcessorId(0), 0.5);
//! assert_eq!(ledger.utilization(ProcessorId(0)), 0.0);
//! # Ok::<(), rtcm_core::ledger::LedgerError>(())
//! ```

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::task::{JobId, ProcessorId};

/// Identifies one subtask's share of one job: what an idle-reset report
/// names, and the order [`UtilizationLedger::recompute_totals`] is fed in.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct ContributionKey {
    /// The owning job.
    pub job: JobId,
    /// Index of the subtask within the task's chain.
    pub subtask: usize,
}

impl ContributionKey {
    /// Creates a key for `subtask` of `job`.
    #[must_use]
    pub fn new(job: JobId, subtask: usize) -> Self {
        ContributionKey { job, subtask }
    }
}

impl fmt::Display for ContributionKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.job, self.subtask)
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct ProcTotal {
    total: f64,
    /// Live shares summed into `total`.
    live: usize,
}

impl ProcTotal {
    fn utilization(&self) -> f64 {
        if self.live == 0 {
            0.0
        } else {
            self.total.max(0.0)
        }
    }
}

/// Per-processor synthetic utilization accounting.
///
/// Processor ids must be dense indices `0..processor_count`. Every mutation
/// keeps the per-processor running totals exact at emptiness (a processor
/// with no live share reads exactly `0.0`), bounding floating-point drift
/// over long runs.
#[derive(Debug, Clone)]
pub struct UtilizationLedger {
    procs: Vec<ProcTotal>,
    /// Touch-tracking epoch (see [`UtilizationLedger::begin_touch_epoch`]).
    epoch: u64,
    /// Last epoch each processor's total was touched in; `0` = never.
    touch_epoch: Vec<u64>,
    /// Processors touched this epoch, with the *clamped* utilization each
    /// read at its first touch — exactly the `U_old` an incremental
    /// maintainer needs for `f(U_new) − f(U_old)` delta application,
    /// collected in O(touched) instead of an O(processors) snapshot.
    touched: Vec<(usize, f64)>,
}

impl UtilizationLedger {
    /// Creates a ledger for `processor_count` processors, all idle.
    #[must_use]
    pub fn new(processor_count: usize) -> Self {
        UtilizationLedger {
            procs: vec![ProcTotal::default(); processor_count],
            epoch: 1,
            touch_epoch: vec![0; processor_count],
            touched: Vec::new(),
        }
    }

    /// Starts a touch-tracking epoch: clears the touched-processor record
    /// so that [`UtilizationLedger::touched`] reports exactly the
    /// processors whose totals change from here on (with their utilization
    /// at first touch). Without an explicit epoch the record is still
    /// bounded by the processor count (each processor is recorded at most
    /// once per epoch).
    pub fn begin_touch_epoch(&mut self) {
        self.epoch += 1;
        self.touched.clear();
    }

    /// This epoch's `(processor index, utilization at first touch)` record,
    /// in first-touch order. A recorded processor may have ended the epoch
    /// back at its original utilization — callers compare against the live
    /// value.
    #[must_use]
    pub fn touched(&self) -> &[(usize, f64)] {
        &self.touched
    }

    /// Records `idx` as touched this epoch, keeping `before` — its
    /// utilization ahead of the mutation — from the first touch only.
    fn note_touch(&mut self, idx: usize, before: f64) {
        if self.touch_epoch[idx] != self.epoch {
            self.touch_epoch[idx] = self.epoch;
            self.touched.push((idx, before));
        }
    }

    /// Number of processors tracked.
    #[must_use]
    pub fn processor_count(&self) -> usize {
        self.procs.len()
    }

    /// Current synthetic utilization of `processor`.
    ///
    /// # Panics
    ///
    /// Panics if `processor` is out of range.
    #[must_use]
    pub fn utilization(&self, processor: ProcessorId) -> f64 {
        self.procs[processor.index()].utilization()
    }

    /// Synthetic utilizations of all processors, indexed by processor id.
    #[must_use]
    pub fn utilizations(&self) -> Vec<f64> {
        self.procs.iter().map(ProcTotal::utilization).collect()
    }

    /// Number of live shares on `processor`.
    ///
    /// # Panics
    ///
    /// Panics if `processor` is out of range.
    #[must_use]
    pub fn contribution_count(&self, processor: ProcessorId) -> usize {
        self.procs[processor.index()].live
    }

    /// Total number of live shares.
    #[must_use]
    pub fn total_contributions(&self) -> usize {
        self.procs.iter().map(|p| p.live).sum()
    }

    /// Adds a share of `utilization` to `processor`.
    ///
    /// # Errors
    ///
    /// * [`LedgerError::UnknownProcessor`] if the processor is out of range;
    /// * [`LedgerError::InvalidUtilization`] if `utilization` is negative,
    ///   NaN or infinite.
    pub fn add(&mut self, processor: ProcessorId, utilization: f64) -> Result<(), LedgerError> {
        let idx = processor.index();
        if idx >= self.procs.len() {
            return Err(LedgerError::UnknownProcessor {
                processor,
                processor_count: self.procs.len(),
            });
        }
        if !utilization.is_finite() || utilization < 0.0 {
            return Err(LedgerError::InvalidUtilization { value: utilization });
        }
        let proc = &mut self.procs[idx];
        // The touch record wants the total as it stood before this add.
        let before = proc.utilization();
        proc.total += utilization;
        proc.live += 1;
        self.note_touch(idx, before);
        Ok(())
    }

    /// Takes a share added earlier back out of `processor`: the caller owns
    /// the share and passes the value it added. Returns false, changing
    /// nothing, if the processor is out of range or holds no share.
    pub fn remove(&mut self, processor: ProcessorId, utilization: f64) -> bool {
        let idx = processor.index();
        let Some(proc) = self.procs.get_mut(idx) else { return false };
        if proc.live == 0 {
            return false;
        }
        let before = proc.utilization();
        proc.total -= utilization;
        proc.live -= 1;
        if proc.live == 0 {
            proc.total = 0.0;
        }
        self.note_touch(idx, before);
        true
    }

    /// Recomputes all running totals from `shares` — every live share with
    /// its processor, summed per processor in the order given — and returns
    /// the largest absolute correction applied to any processor: the
    /// accumulated floating-point drift of the incremental `+=`/`-=`
    /// bookkeeping. Callers holding derived state (the admission
    /// controller's cached AUB sums) must reconcile it against the
    /// corrected totals; see `AdmissionController::reconcile`, which feeds
    /// the shares in [`ContributionKey`] order so that the result does not
    /// depend on where its entries sit.
    ///
    /// # Panics
    ///
    /// Panics if a share names a processor out of range.
    pub fn recompute_totals(
        &mut self,
        shares: impl IntoIterator<Item = (ProcessorId, f64)>,
    ) -> f64 {
        let mut fresh = vec![0.0f64; self.procs.len()];
        for (processor, share) in shares {
            fresh[processor.index()] += share;
        }
        let mut max_drift = 0.0f64;
        for (proc, fresh) in self.procs.iter_mut().zip(fresh) {
            max_drift = max_drift.max((proc.total - fresh).abs());
            proc.total = fresh;
        }
        max_drift
    }
}

/// Errors from [`UtilizationLedger`] operations.
#[derive(Debug, Clone, PartialEq)]
pub enum LedgerError {
    /// Processor index out of range for this ledger.
    UnknownProcessor {
        /// The offending processor.
        processor: ProcessorId,
        /// Number of processors the ledger tracks.
        processor_count: usize,
    },
    /// Shares must be finite and non-negative.
    InvalidUtilization {
        /// The rejected value.
        value: f64,
    },
}

impl fmt::Display for LedgerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LedgerError::UnknownProcessor { processor, processor_count } => {
                write!(f, "processor {processor} outside the ledger's 0..{processor_count} range")
            }
            LedgerError::InvalidUtilization { value } => {
                write!(f, "contribution utilization {value} is not finite and non-negative")
            }
        }
    }
}

impl std::error::Error for LedgerError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::{AdmissionController, AdmissionError};
    use crate::task::{TaskBuilder, TaskId, TaskSpec};
    use crate::time::{Duration, Time};

    fn key(task: u32, seq: u64, subtask: usize) -> ContributionKey {
        ContributionKey::new(JobId::new(TaskId(task), seq), subtask)
    }

    fn at(ms: u64) -> Time {
        Time::ZERO + Duration::from_millis(ms)
    }

    // The controller owns every share's lifetime, so the tests of when a
    // share leaves the totals drive the ledger through it.

    fn controller(label: &str, processors: usize) -> AdmissionController {
        AdmissionController::new(label.parse().unwrap(), processors).unwrap()
    }

    /// Aperiodic chain with `exec_ms` per stage, in a 100 ms deadline.
    fn chain(id: u32, exec_ms: u64, procs: &[u16]) -> TaskSpec {
        let mut b = TaskBuilder::aperiodic(TaskId(id)).deadline(Duration::from_millis(100));
        for p in procs {
            b = b.subtask(Duration::from_millis(exec_ms), ProcessorId(*p), []);
        }
        b.build().unwrap()
    }

    #[test]
    fn add_and_read_back() {
        let mut l = UtilizationLedger::new(2);
        l.add(ProcessorId(0), 0.3).unwrap();
        l.add(ProcessorId(0), 0.2).unwrap();
        assert!((l.utilization(ProcessorId(0)) - 0.5).abs() < 1e-12);
        assert_eq!(l.utilization(ProcessorId(1)), 0.0);
        assert_eq!(l.contribution_count(ProcessorId(0)), 2);
        assert_eq!(l.total_contributions(), 2);
        assert_eq!(l.utilizations().len(), l.processor_count());
    }

    #[test]
    fn duplicate_contribution_rejected() {
        // The registry, not the ledger, refuses a second copy of a job: it
        // adds no share, and the ledger reads as before.
        let mut ac = controller("J_N_N", 1);
        let t = chain(0, 10, &[0]);
        assert!(ac.handle_arrival(&t, 0, Time::ZERO).unwrap().is_accept());
        let err = ac.handle_arrival(&t, 0, at(1)).unwrap_err();
        assert_eq!(err, AdmissionError::DuplicateArrival { job: JobId::new(TaskId(0), 0) });
        assert_eq!(ac.ledger().contribution_count(ProcessorId(0)), 1);
        assert!((ac.ledger().utilization(ProcessorId(0)) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn same_key_on_two_processors_is_fine() {
        // A job's shares on two processors are apart: a report naming a
        // share on the wrong processor frees nothing, the right one frees
        // that processor's share alone.
        let mut ac = controller("J_J_N", 2);
        assert!(ac.handle_arrival(&chain(0, 10, &[0, 1]), 0, Time::ZERO).unwrap().is_accept());
        assert_eq!(ac.apply_idle_reset(ProcessorId(1), &[key(0, 0, 0)]), 0.0);
        assert!((ac.apply_idle_reset(ProcessorId(0), &[key(0, 0, 0)]) - 0.1).abs() < 1e-12);
        assert_eq!(ac.ledger().utilization(ProcessorId(0)), 0.0);
        assert!((ac.ledger().utilization(ProcessorId(1)) - 0.1).abs() < 1e-12);
        assert_eq!(ac.ledger().total_contributions(), 1);
    }

    #[test]
    fn unknown_processor_rejected() {
        let mut l = UtilizationLedger::new(1);
        let err = l.add(ProcessorId(3), 0.1).unwrap_err();
        assert_eq!(
            err,
            LedgerError::UnknownProcessor { processor: ProcessorId(3), processor_count: 1 }
        );
    }

    #[test]
    fn invalid_utilizations_rejected() {
        let mut l = UtilizationLedger::new(1);
        for bad in [-0.1, f64::NAN, f64::INFINITY] {
            let err = l.add(ProcessorId(0), bad).unwrap_err();
            assert!(matches!(err, LedgerError::InvalidUtilization { .. }), "value {bad}");
        }
        assert_eq!(l.total_contributions(), 0);
    }

    #[test]
    fn expiry_removes_at_deadline_inclusive() {
        let mut ac = controller("J_N_N", 1);
        assert!(ac.handle_arrival(&chain(0, 30, &[0]), 0, Time::ZERO).unwrap().is_accept());
        ac.expire(at(99));
        assert!((ac.ledger().utilization(ProcessorId(0)) - 0.3).abs() < 1e-12);
        ac.expire(at(100));
        assert_eq!(ac.ledger().contribution_count(ProcessorId(0)), 0);
        assert_eq!(ac.ledger().utilization(ProcessorId(0)), 0.0);
        // Idempotent.
        ac.expire(at(200));
        assert_eq!(ac.current_entries(), 0);
    }

    #[test]
    fn reserved_contributions_never_expire() {
        let mut ac = controller("T_N_N", 1);
        let t = TaskBuilder::periodic(TaskId(0), Duration::from_millis(100))
            .subtask(Duration::from_millis(30), ProcessorId(0), [])
            .build()
            .unwrap();
        assert!(ac.handle_arrival(&t, 0, Time::ZERO).unwrap().is_accept());
        ac.expire(Time::MAX);
        assert!((ac.ledger().utilization(ProcessorId(0)) - 0.3).abs() < 1e-12);
        ac.withdraw_task(t.id());
        assert_eq!(ac.ledger().utilization(ProcessorId(0)), 0.0);
        assert_eq!(ac.current_entries(), 0);
    }

    #[test]
    fn remove_missing_is_none() {
        let mut l = UtilizationLedger::new(1);
        assert!(!l.remove(ProcessorId(0), 0.1));
        assert!(!l.remove(ProcessorId(9), 0.1));
        assert_eq!(l.utilization(ProcessorId(0)), 0.0);
        assert_eq!(l.total_contributions(), 0);
    }

    #[test]
    fn emptiness_resets_float_drift() {
        let mut l = UtilizationLedger::new(1);
        // Accumulate drift-prone values, then drain.
        for _ in 0..1000 {
            l.add(ProcessorId(0), 0.1 + 1e-13).unwrap();
        }
        for _ in 0..1000 {
            l.remove(ProcessorId(0), 0.1 + 1e-13);
        }
        assert_eq!(l.utilization(ProcessorId(0)), 0.0);
    }

    #[test]
    fn recompute_totals_matches_incremental() {
        let mut l = UtilizationLedger::new(2);
        l.add(ProcessorId(0), 0.25).unwrap();
        l.add(ProcessorId(1), 0.5).unwrap();
        let before = l.utilizations();
        let drift = l.recompute_totals([(ProcessorId(0), 0.25), (ProcessorId(1), 0.5)]);
        let after = l.utilizations();
        for (b, a) in before.iter().zip(&after) {
            assert!((b - a).abs() < 1e-12);
        }
        assert!(drift < 1e-12);
    }

    #[test]
    fn early_removal_leaves_no_phantom_expiry() {
        // A share idle-reset before its deadline is not subtracted again
        // when its entry expires: the later job's share is all that goes.
        let mut ac = controller("J_J_N", 1);
        let (early, late) = (chain(0, 10, &[0]), chain(1, 20, &[0]));
        assert!(ac.handle_arrival(&early, 0, Time::ZERO).unwrap().is_accept());
        assert!(ac.handle_arrival(&late, 0, at(50)).unwrap().is_accept());
        assert!((ac.apply_idle_reset(ProcessorId(0), &[key(0, 0, 0)]) - 0.1).abs() < 1e-12);
        ac.expire(at(100));
        assert!((ac.ledger().utilization(ProcessorId(0)) - 0.2).abs() < 1e-12);
        assert_eq!(ac.ledger().contribution_count(ProcessorId(0)), 1);
        ac.expire(at(150));
        assert_eq!(ac.ledger().utilization(ProcessorId(0)), 0.0);
        assert_eq!(ac.current_entries(), 0);
    }

    #[test]
    fn readd_after_early_removal_expires_once() {
        // Two jobs of one task with one deadline: the first's share leaves
        // early, the second's is added after it, and expiry takes exactly
        // the one that is left.
        let mut ac = controller("J_J_N", 1);
        let t = chain(0, 10, &[0]);
        assert!(ac.handle_arrival(&t, 0, Time::ZERO).unwrap().is_accept());
        ac.apply_idle_reset(ProcessorId(0), &[key(0, 0, 0)]);
        assert!(ac.handle_arrival(&t, 1, Time::ZERO).unwrap().is_accept());
        assert_eq!(ac.ledger().contribution_count(ProcessorId(0)), 1);
        ac.expire(at(100));
        assert_eq!(ac.ledger().utilization(ProcessorId(0)), 0.0);
        assert_eq!(ac.ledger().contribution_count(ProcessorId(0)), 0);
        ac.expire(Time::MAX);
        assert_eq!(ac.ledger().total_contributions(), 0);
    }

    #[test]
    fn recompute_totals_identifies_the_noisy_processor() {
        // Perturb one processor's running total directly: the recompute
        // must correct it and report the size of the correction.
        let mut l = UtilizationLedger::new(4);
        let shares: Vec<_> = (0..4u16).map(|p| (ProcessorId(p), 0.25)).collect();
        for &(p, u) in &shares {
            l.add(p, u).unwrap();
        }
        l.procs[2].total += 1e-7;
        let drift = l.recompute_totals(shares.iter().copied());
        assert!((drift - 1e-7).abs() < 1e-12, "corrected drift {drift}");
        assert!((l.utilization(ProcessorId(2)) - 0.25).abs() < 1e-12);
        // A clean ledger has nothing to correct.
        assert_eq!(l.recompute_totals(shares), 0.0);
    }

    #[test]
    fn recompute_totals_ignores_insertion_and_table_order() {
        // Two controllers fed the same jobs in opposite orders hold them in
        // other slots and differently keyed tables: reconciled, their
        // totals must agree to the last bit all the same.
        let tasks: Vec<TaskSpec> = (0..60u32)
            .map(|i| {
                let exec = Duration::from_nanos(1_000 + u64::from(i) * 3_331);
                TaskBuilder::aperiodic(TaskId(i))
                    .deadline(Duration::from_millis(100))
                    .subtask(exec, ProcessorId((i % 2) as u16), [])
                    .subtask(exec, ProcessorId(2), [])
                    .build()
                    .unwrap()
            })
            .collect();
        let mut forward = controller("J_N_N", 3);
        let mut backward = controller("J_N_N", 3);
        for t in &tasks {
            assert!(forward.handle_arrival(t, 0, Time::ZERO).unwrap().is_accept());
        }
        for t in tasks.iter().rev() {
            assert!(backward.handle_arrival(t, 0, Time::ZERO).unwrap().is_accept());
        }
        forward.reconcile();
        backward.reconcile();
        let bits = |ac: &AdmissionController| -> Vec<u64> {
            ac.ledger().utilizations().iter().map(|u| u.to_bits()).collect()
        };
        assert_eq!(bits(&forward), bits(&backward));
    }

    #[test]
    fn float_drift_stays_reconcilable_over_10k_cycles() {
        // 10k add/remove cycles of drift-prone values against a persistent
        // background population: the running totals must stay within 1e-6
        // of a fresh recompute, and recompute must report the drift it
        // corrected.
        let mut l = UtilizationLedger::new(2);
        let background: Vec<_> = (0..8u16).map(|t| (ProcessorId(t % 2), 0.1 + 1e-13)).collect();
        for &(p, u) in &background {
            l.add(p, u).unwrap();
        }
        for seq in 0..10_000u64 {
            let p = ProcessorId((seq % 2) as u16);
            let u = 0.031 + (seq as f64).mul_add(1e-12, 1e-9);
            l.add(p, u).unwrap();
            l.remove(p, u);
        }
        let before = l.utilizations();
        let drift = l.recompute_totals(background);
        let after = l.utilizations();
        assert!(drift < 1e-6, "drift {drift} exceeded the reconcilable budget");
        for (b, a) in before.iter().zip(&after) {
            assert!((b - a).abs() < 1e-6, "total drifted visibly: {b} vs {a}");
        }
    }
}
