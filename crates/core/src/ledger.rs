//! The synthetic-utilization ledger: the admission controller's bookkeeping
//! of per-processor contributions `C_{i,j} / D_i` of current jobs and
//! reserved tasks.
//!
//! A *contribution* is one subtask's share of one job (or of a per-task
//! reservation). Contributions live until:
//!
//! * their job's end-to-end deadline passes ([`Lifetime::UntilDeadline`],
//!   removed by [`UtilizationLedger::expire_until`]),
//! * the idle-resetting service reports them complete and the AC removes
//!   them early ([`UtilizationLedger::remove`]), or
//! * the owning task departs (per-task reservations,
//!   [`Lifetime::Reserved`], also removed via `remove`).
//!
//! # Examples
//!
//! ```
//! use rtcm_core::ledger::{ContributionKey, Lifetime, UtilizationLedger};
//! use rtcm_core::task::{JobId, ProcessorId, TaskId};
//! use rtcm_core::time::{Duration, Time};
//!
//! let mut ledger = UtilizationLedger::new(2);
//! let key = ContributionKey::new(JobId::new(TaskId(0), 0), 0);
//! let deadline = Time::ZERO + Duration::from_millis(500);
//! ledger.add(ProcessorId(0), key, 0.25, Lifetime::UntilDeadline(deadline))?;
//! assert_eq!(ledger.utilization(ProcessorId(0)), 0.25);
//!
//! ledger.expire_until(deadline);
//! assert_eq!(ledger.utilization(ProcessorId(0)), 0.0);
//! # Ok::<(), rtcm_core::ledger::LedgerError>(())
//! ```

use std::cmp::Reverse;
use std::collections::hash_map::Entry as Slot;
use std::collections::BinaryHeap;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::hash::IdMap;
use crate::task::{JobId, ProcessorId};
use crate::time::Time;

/// Identifies one subtask's contribution of one job.
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

/// How long a contribution stays in the ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Lifetime {
    /// Until the job's absolute end-to-end deadline (per-job admission).
    UntilDeadline(Time),
    /// Until explicitly removed (per-task reservation: the AC "must reserve
    /// the synthetic utilization of the task throughout its lifetime",
    /// §4.2).
    Reserved,
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    utilization: f64,
    lifetime: Lifetime,
    /// Unique id of this contribution's pending expiry-heap entry
    /// (deadline-bound contributions only; `0` for reservations). Makes
    /// heap-entry liveness exact even when the same `(processor, key,
    /// deadline)` is re-added after an early removal — the stale heap
    /// entry carries the old sequence number.
    expiry_seq: u64,
}

#[derive(Debug, Clone, Default)]
struct ProcLedger {
    total: f64,
    entries: IdMap<ContributionKey, Entry>,
}

impl ProcLedger {
    fn utilization(&self) -> f64 {
        if self.entries.is_empty() {
            0.0
        } else {
            self.total.max(0.0)
        }
    }
}

/// Per-processor synthetic utilization accounting.
///
/// Processor ids must be dense indices `0..processor_count`. All mutating
/// operations keep the per-processor running totals exact at emptiness (a
/// processor with no contributions reads exactly `0.0`), bounding
/// floating-point drift over long runs.
///
/// Deadline expiries are tracked in a min-heap with *lazy deletion*: a
/// [`UtilizationLedger::remove`] leaves the heap entry behind, and
/// [`UtilizationLedger::expire_until`] / [`UtilizationLedger::next_expiry`]
/// discard stale heap entries when they surface. This makes `remove` O(1)
/// amortized (the old ordered-set design paid O(log n) twice per
/// contribution) while expiry stays O(log n) per pop.
#[derive(Debug, Clone)]
pub struct UtilizationLedger {
    procs: Vec<ProcLedger>,
    /// Min-heap of pending deadline expiries, possibly containing stale
    /// entries for contributions already removed early (idle resets,
    /// reservation relocation). An entry is *live* iff the contribution is
    /// still present with exactly this expiry sequence number.
    expiry: BinaryHeap<Reverse<(Time, ProcessorId, ContributionKey, u64)>>,
    /// Number of live (non-stale) heap entries; lets `expire_until` skip
    /// the heap entirely when nothing deadline-bound is left.
    live_expiries: usize,
    /// Source of unique expiry-heap sequence numbers (starts at 1; `0`
    /// marks reservations, which never enter the heap).
    next_expiry_seq: u64,
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
            procs: (0..processor_count).map(|_| ProcLedger::default()).collect(),
            expiry: BinaryHeap::new(),
            live_expiries: 0,
            next_expiry_seq: 1,
            epoch: 1,
            touch_epoch: vec![0; processor_count],
            touched: Vec::new(),
        }
    }

    /// Starts a touch-tracking epoch: clears the touched-processor record
    /// so that [`UtilizationLedger::copy_touched_into`] reports exactly the
    /// processors whose totals change from here on (with their utilization
    /// at first touch). Without an explicit epoch the record is still
    /// bounded by the processor count (each processor is recorded at most
    /// once per epoch).
    pub fn begin_touch_epoch(&mut self) {
        self.epoch += 1;
        self.touched.clear();
    }

    /// Copies this epoch's `(processor index, utilization at first touch)`
    /// record into `out` (cleared first). A recorded processor may have
    /// ended the epoch back at its original utilization — callers compare
    /// against the live value.
    pub fn copy_touched_into(&self, out: &mut Vec<(usize, f64)>) {
        out.clear();
        out.extend_from_slice(&self.touched);
    }

    /// Records `idx` as touched this epoch, keeping `before` — its
    /// utilization ahead of the mutation — from the first touch only.
    fn note_touch(&mut self, idx: usize, before: f64) {
        if self.touch_epoch[idx] != self.epoch {
            self.touch_epoch[idx] = self.epoch;
            self.touched.push((idx, before));
        }
    }

    /// Takes `(processor, key)` out of its processor's map and total — the
    /// one probe [`UtilizationLedger::remove`] and expiry share. Expiry
    /// passes its heap record's sequence number, so a stale record (the
    /// key re-added since, under a newer number) removes nothing.
    fn take(
        &mut self,
        processor: ProcessorId,
        key: ContributionKey,
        expiry_seq: Option<u64>,
    ) -> Option<Entry> {
        let idx = processor.index();
        let proc = self.procs.get_mut(idx)?;
        let before = proc.utilization();
        let Slot::Occupied(slot) = proc.entries.entry(key) else { return None };
        if expiry_seq.is_some_and(|seq| seq != slot.get().expiry_seq) {
            return None;
        }
        let entry = slot.remove();
        proc.total -= entry.utilization;
        if proc.entries.is_empty() {
            proc.total = 0.0;
        }
        self.note_touch(idx, before);
        Some(entry)
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
        self.procs.iter().map(ProcLedger::utilization).collect()
    }

    /// Number of live contributions on `processor`.
    ///
    /// # Panics
    ///
    /// Panics if `processor` is out of range.
    #[must_use]
    pub fn contribution_count(&self, processor: ProcessorId) -> usize {
        self.procs[processor.index()].entries.len()
    }

    /// Total number of live contributions.
    #[must_use]
    pub fn total_contributions(&self) -> usize {
        self.procs.iter().map(|p| p.entries.len()).sum()
    }

    /// Adds a contribution of `utilization` to `processor`.
    ///
    /// # Errors
    ///
    /// * [`LedgerError::UnknownProcessor`] if the processor is out of range;
    /// * [`LedgerError::DuplicateContribution`] if `(processor, key)` is
    ///   already present;
    /// * [`LedgerError::InvalidUtilization`] if `utilization` is negative,
    ///   NaN or infinite.
    pub fn add(
        &mut self,
        processor: ProcessorId,
        key: ContributionKey,
        utilization: f64,
        lifetime: Lifetime,
    ) -> Result<(), LedgerError> {
        if processor.index() >= self.procs.len() {
            return Err(LedgerError::UnknownProcessor {
                processor,
                processor_count: self.procs.len(),
            });
        }
        if !utilization.is_finite() || utilization < 0.0 {
            return Err(LedgerError::InvalidUtilization { value: utilization });
        }
        let idx = processor.index();
        // The touch record wants the total as it stood before this add.
        let before = self.procs[idx].utilization();
        let proc = &mut self.procs[idx];
        let Slot::Vacant(slot) = proc.entries.entry(key) else {
            return Err(LedgerError::DuplicateContribution { processor, key });
        };
        let expiry_seq = if let Lifetime::UntilDeadline(deadline) = lifetime {
            let seq = self.next_expiry_seq;
            self.next_expiry_seq += 1;
            self.expiry.push(Reverse((deadline, processor, key, seq)));
            self.live_expiries += 1;
            seq
        } else {
            0
        };
        slot.insert(Entry { utilization, lifetime, expiry_seq });
        proc.total += utilization;
        self.note_touch(idx, before);
        Ok(())
    }

    /// Removes a contribution, returning the utilization freed, or `None`
    /// if it was not present (e.g. already expired — idle-reset reports can
    /// race with deadline expiry, so absence is not an error).
    pub fn remove(&mut self, processor: ProcessorId, key: ContributionKey) -> Option<f64> {
        let entry = self.take(processor, key, None)?;
        if matches!(entry.lifetime, Lifetime::UntilDeadline(_)) {
            // Lazy deletion: the heap entry goes stale and is discarded when
            // it surfaces (or by compaction below).
            self.live_expiries -= 1;
            self.maybe_compact();
        }
        Some(entry.utilization)
    }

    /// Rebuilds the expiry heap without its stale entries once they
    /// outnumber the live ones — bounds heap growth under workloads that
    /// remove most contributions early (idle-reset heavy traffic), at
    /// amortized O(1) per removal.
    fn maybe_compact(&mut self) {
        let stale = self.expiry.len() - self.live_expiries;
        if stale <= self.live_expiries + 64 {
            return;
        }
        let heap = std::mem::take(&mut self.expiry);
        let live: Vec<_> = heap
            .into_iter()
            .filter(|&Reverse((_, processor, key, seq))| self.is_live_expiry(processor, key, seq))
            .collect();
        self.expiry = live.into_iter().collect();
        debug_assert_eq!(self.expiry.len(), self.live_expiries);
    }

    /// True if `(processor, key)` still holds the deadline-bound
    /// contribution this heap entry was pushed for — the heap-entry
    /// liveness test. Sequence numbers are unique per `add`, so a
    /// re-added contribution never revives an older heap entry even with
    /// an identical deadline.
    fn is_live_expiry(&self, processor: ProcessorId, key: ContributionKey, seq: u64) -> bool {
        self.procs[processor.index()].entries.get(&key).is_some_and(|e| e.expiry_seq == seq)
    }

    /// Returns the utilization of a live contribution, if present.
    #[must_use]
    pub fn contribution(&self, processor: ProcessorId, key: ContributionKey) -> Option<f64> {
        self.procs.get(processor.index())?.entries.get(&key).map(|e| e.utilization)
    }

    /// Removes every deadline-bound contribution whose deadline is at or
    /// before `now` (the current-set rule `S(t) = {T_i | A_i ≤ t < A_i +
    /// D_i}`). Returns how many went.
    pub fn expire_until(&mut self, now: Time) -> usize {
        let mut removed = 0;
        while self.live_expiries > 0 {
            let Some(&Reverse((deadline, processor, key, seq))) = self.expiry.peek() else { break };
            if deadline > now {
                break;
            }
            self.expiry.pop();
            // A stale record (its contribution was removed early) takes
            // nothing and is discarded here.
            if self.take(processor, key, Some(seq)).is_some() {
                self.live_expiries -= 1;
                removed += 1;
            }
        }
        if self.live_expiries == 0 {
            self.expiry.clear();
        }
        removed
    }

    /// The earliest pending deadline expiry, if any — useful for simulators
    /// that want to schedule cleanup lazily.
    ///
    /// Takes `&mut self` because stale heap entries (contributions removed
    /// early) are discarded on the way to the answer.
    #[must_use]
    pub fn next_expiry(&mut self) -> Option<Time> {
        if self.live_expiries == 0 {
            self.expiry.clear();
            return None;
        }
        while let Some(&Reverse((deadline, processor, key, seq))) = self.expiry.peek() {
            if self.is_live_expiry(processor, key, seq) {
                return Some(deadline);
            }
            self.expiry.pop();
        }
        None
    }

    /// Recomputes all running totals from scratch, returning the largest
    /// absolute correction applied to any processor — the accumulated
    /// floating-point drift of the incremental `+=`/`-=` bookkeeping.
    /// Callers holding derived state (the admission controller's cached AUB
    /// sums) must reconcile it against the corrected totals; see
    /// `AdmissionController::reconcile`.
    pub fn recompute_totals(&mut self) -> f64 {
        let mut max_drift = 0.0f64;
        for proc in &mut self.procs {
            // In key order: the map's own order differs from process to
            // process, and a float sum follows its order in the last ulp.
            let mut entries: Vec<_> = proc.entries.iter().collect();
            entries.sort_unstable_by_key(|(key, _)| **key);
            let fresh: f64 = entries.iter().map(|(_, e)| e.utilization).sum();
            max_drift = max_drift.max((proc.total - fresh).abs());
            proc.total = fresh;
        }
        max_drift
    }
}

#[cfg(test)]
impl UtilizationLedger {
    /// [`crate::hash::collision_cost`] summed over the processors' tables.
    pub(crate) fn collision_cost(&self) -> usize {
        self.procs.iter().map(|proc| crate::hash::collision_cost(&proc.entries)).sum()
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
    /// `(processor, key)` already holds a live contribution.
    DuplicateContribution {
        /// The processor.
        processor: ProcessorId,
        /// The duplicated key.
        key: ContributionKey,
    },
    /// Contribution utilizations must be finite and non-negative.
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
            LedgerError::DuplicateContribution { processor, key } => {
                write!(f, "contribution {key} already present on {processor}")
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
    use crate::task::TaskId;
    use crate::time::Duration;

    fn key(task: u32, seq: u64, subtask: usize) -> ContributionKey {
        ContributionKey::new(JobId::new(TaskId(task), seq), subtask)
    }

    fn at(ms: u64) -> Time {
        Time::ZERO + Duration::from_millis(ms)
    }

    #[test]
    fn add_and_read_back() {
        let mut l = UtilizationLedger::new(2);
        l.add(ProcessorId(0), key(0, 0, 0), 0.3, Lifetime::UntilDeadline(at(100))).unwrap();
        l.add(ProcessorId(0), key(1, 0, 0), 0.2, Lifetime::Reserved).unwrap();
        assert!((l.utilization(ProcessorId(0)) - 0.5).abs() < 1e-12);
        assert_eq!(l.utilization(ProcessorId(1)), 0.0);
        assert_eq!(l.contribution_count(ProcessorId(0)), 2);
        assert_eq!(l.total_contributions(), 2);
        assert_eq!(l.contribution(ProcessorId(0), key(0, 0, 0)), Some(0.3));
    }

    #[test]
    fn duplicate_contribution_rejected() {
        let mut l = UtilizationLedger::new(1);
        l.add(ProcessorId(0), key(0, 0, 0), 0.1, Lifetime::Reserved).unwrap();
        let err = l.add(ProcessorId(0), key(0, 0, 0), 0.1, Lifetime::Reserved).unwrap_err();
        assert!(matches!(err, LedgerError::DuplicateContribution { .. }));
    }

    #[test]
    fn same_key_on_two_processors_is_fine() {
        // A job visiting two processors reuses the (job, subtask) key only
        // per subtask — but the ledger itself namespaces by processor.
        let mut l = UtilizationLedger::new(2);
        l.add(ProcessorId(0), key(0, 0, 0), 0.1, Lifetime::Reserved).unwrap();
        l.add(ProcessorId(1), key(0, 0, 0), 0.1, Lifetime::Reserved).unwrap();
        assert_eq!(l.total_contributions(), 2);
    }

    #[test]
    fn unknown_processor_rejected() {
        let mut l = UtilizationLedger::new(1);
        let err = l.add(ProcessorId(3), key(0, 0, 0), 0.1, Lifetime::Reserved).unwrap_err();
        assert_eq!(
            err,
            LedgerError::UnknownProcessor { processor: ProcessorId(3), processor_count: 1 }
        );
    }

    #[test]
    fn invalid_utilizations_rejected() {
        let mut l = UtilizationLedger::new(1);
        for bad in [-0.1, f64::NAN, f64::INFINITY] {
            let err = l.add(ProcessorId(0), key(0, 0, 0), bad, Lifetime::Reserved).unwrap_err();
            assert!(matches!(err, LedgerError::InvalidUtilization { .. }), "value {bad}");
        }
    }

    #[test]
    fn expiry_removes_at_deadline_inclusive() {
        let mut l = UtilizationLedger::new(1);
        l.add(ProcessorId(0), key(0, 0, 0), 0.3, Lifetime::UntilDeadline(at(100))).unwrap();
        assert_eq!(l.expire_until(at(99)), 0);
        assert_eq!(l.expire_until(at(100)), 1);
        assert_eq!(l.contribution(ProcessorId(0), key(0, 0, 0)), None);
        assert_eq!(l.utilization(ProcessorId(0)), 0.0);
        // Idempotent.
        assert_eq!(l.expire_until(at(200)), 0);
    }

    #[test]
    fn reserved_contributions_never_expire() {
        let mut l = UtilizationLedger::new(1);
        l.add(ProcessorId(0), key(0, 0, 0), 0.3, Lifetime::Reserved).unwrap();
        assert_eq!(l.expire_until(Time::MAX), 0);
        assert!((l.utilization(ProcessorId(0)) - 0.3).abs() < 1e-12);
        assert_eq!(l.remove(ProcessorId(0), key(0, 0, 0)), Some(0.3));
        assert_eq!(l.utilization(ProcessorId(0)), 0.0);
    }

    #[test]
    fn remove_missing_is_none() {
        let mut l = UtilizationLedger::new(1);
        assert_eq!(l.remove(ProcessorId(0), key(0, 0, 0)), None);
        assert_eq!(l.remove(ProcessorId(9), key(0, 0, 0)), None);
    }

    #[test]
    fn emptiness_resets_float_drift() {
        let mut l = UtilizationLedger::new(1);
        // Accumulate drift-prone values, then drain.
        for seq in 0..1000 {
            l.add(ProcessorId(0), key(0, seq, 0), 0.1 + 1e-13, Lifetime::Reserved).unwrap();
        }
        for seq in 0..1000 {
            l.remove(ProcessorId(0), key(0, seq, 0));
        }
        assert_eq!(l.utilization(ProcessorId(0)), 0.0);
    }

    #[test]
    fn next_expiry_tracks_earliest() {
        let mut l = UtilizationLedger::new(2);
        assert_eq!(l.next_expiry(), None);
        l.add(ProcessorId(0), key(0, 0, 0), 0.1, Lifetime::UntilDeadline(at(300))).unwrap();
        l.add(ProcessorId(1), key(1, 0, 0), 0.1, Lifetime::UntilDeadline(at(100))).unwrap();
        assert_eq!(l.next_expiry(), Some(at(100)));
        l.expire_until(at(100));
        assert_eq!(l.next_expiry(), Some(at(300)));
    }

    #[test]
    fn recompute_totals_matches_incremental() {
        let mut l = UtilizationLedger::new(2);
        l.add(ProcessorId(0), key(0, 0, 0), 0.25, Lifetime::Reserved).unwrap();
        l.add(ProcessorId(1), key(0, 0, 1), 0.5, Lifetime::Reserved).unwrap();
        let before = l.utilizations();
        let drift = l.recompute_totals();
        let after = l.utilizations();
        for (b, a) in before.iter().zip(&after) {
            assert!((b - a).abs() < 1e-12);
        }
        assert!(drift < 1e-12);
    }

    #[test]
    fn early_removal_leaves_no_phantom_expiry() {
        // Remove a deadline-bound contribution before its deadline: the
        // stale heap entry must not surface through `next_expiry` or
        // `expire_until`.
        let mut l = UtilizationLedger::new(1);
        l.add(ProcessorId(0), key(0, 0, 0), 0.1, Lifetime::UntilDeadline(at(100))).unwrap();
        l.add(ProcessorId(0), key(1, 0, 0), 0.1, Lifetime::UntilDeadline(at(200))).unwrap();
        assert_eq!(l.remove(ProcessorId(0), key(0, 0, 0)), Some(0.1));
        assert_eq!(l.next_expiry(), Some(at(200)));
        assert_eq!(l.expire_until(at(150)), 0);
        assert_eq!(l.expire_until(at(200)), 1);
        assert_eq!(l.contribution(ProcessorId(0), key(1, 0, 0)), None);
        assert_eq!(l.next_expiry(), None);
    }

    #[test]
    fn readd_after_early_removal_expires_once() {
        // Same (processor, key, deadline) re-added after an early removal:
        // the duplicate heap entry is stale and must expire exactly once.
        let mut l = UtilizationLedger::new(1);
        l.add(ProcessorId(0), key(0, 0, 0), 0.1, Lifetime::UntilDeadline(at(100))).unwrap();
        l.remove(ProcessorId(0), key(0, 0, 0));
        l.add(ProcessorId(0), key(0, 0, 0), 0.2, Lifetime::UntilDeadline(at(100))).unwrap();
        assert_eq!(l.expire_until(at(100)), 1);
        assert_eq!(l.utilization(ProcessorId(0)), 0.0);
        assert_eq!(l.expire_until(Time::MAX), 0);
    }

    #[test]
    fn compaction_survives_readd_with_identical_deadline() {
        // Regression: a re-added (processor, key, deadline) used to leave
        // TWO heap entries that both looked live, breaking compaction's
        // postcondition (debug_assert) and its progress guarantee. The
        // expiry sequence number disambiguates them.
        let mut l = UtilizationLedger::new(1);
        l.add(ProcessorId(0), key(0, 0, 0), 0.1, Lifetime::UntilDeadline(at(900))).unwrap();
        l.remove(ProcessorId(0), key(0, 0, 0));
        l.add(ProcessorId(0), key(0, 0, 0), 0.1, Lifetime::UntilDeadline(at(900))).unwrap();
        // Force compaction with further early removals.
        for seq in 1..=70u64 {
            let k = key(1, seq, 0);
            l.add(ProcessorId(0), k, 0.001, Lifetime::UntilDeadline(at(800))).unwrap();
            l.remove(ProcessorId(0), k);
        }
        // The compaction pass inside the loop must have dropped the
        // duplicate (its debug_assert postcondition would panic here
        // otherwise); only the post-compaction trickle of stales remains.
        assert!(
            l.expiry.len() <= l.live_expiries + 65,
            "stale duplicates survived compaction: {} entries for {} live",
            l.expiry.len(),
            l.live_expiries
        );
        assert_eq!(l.next_expiry(), Some(at(900)));
        assert_eq!(l.expire_until(at(900)), 1);
        assert_eq!(l.utilization(ProcessorId(0)), 0.0);
    }

    #[test]
    fn heap_compaction_bounds_stale_growth() {
        // Add/remove far-future contributions repeatedly: without
        // compaction the heap would retain every stale entry.
        let mut l = UtilizationLedger::new(1);
        let keep = key(9, 0, 0);
        l.add(ProcessorId(0), keep, 0.1, Lifetime::UntilDeadline(at(1_000_000))).unwrap();
        for seq in 0..10_000 {
            let k = key(0, seq, 0);
            l.add(ProcessorId(0), k, 0.01, Lifetime::UntilDeadline(at(500_000))).unwrap();
            l.remove(ProcessorId(0), k);
        }
        assert!(
            l.expiry.len() <= 2 * l.live_expiries + 65,
            "stale heap entries unbounded: {} entries for {} live",
            l.expiry.len(),
            l.live_expiries
        );
        assert_eq!(l.next_expiry(), Some(at(1_000_000)));
    }

    #[test]
    fn recompute_totals_identifies_the_noisy_processor() {
        // Perturb one processor's running total directly: the recompute
        // must correct it and report the size of the correction.
        let mut l = UtilizationLedger::new(4);
        for p in 0..4u16 {
            l.add(ProcessorId(p), key(u32::from(p), 0, 0), 0.25, Lifetime::Reserved).unwrap();
        }
        l.procs[2].total += 1e-7;
        let drift = l.recompute_totals();
        assert!((drift - 1e-7).abs() < 1e-12, "corrected drift {drift}");
        assert!((l.utilization(ProcessorId(2)) - 0.25).abs() < 1e-12);
        // A clean ledger has nothing to correct.
        assert_eq!(l.recompute_totals(), 0.0);
    }

    #[test]
    fn recompute_totals_ignores_insertion_and_table_order() {
        // Two processes fed the same contributions hold them in differently
        // keyed tables, and may have received them in another order: the
        // recomputed totals must agree to the last bit all the same.
        let contributions: Vec<(ContributionKey, f64)> = (0..300u64)
            .map(|i| (key((i % 7) as u32, i, (i % 3) as usize), 0.001 + (i as f64) * 1.7e-7))
            .collect();
        let mut forward = UtilizationLedger::new(1);
        let mut backward = UtilizationLedger::new(1);
        for (k, u) in &contributions {
            forward.add(ProcessorId(0), *k, *u, Lifetime::Reserved).unwrap();
        }
        for (k, u) in contributions.iter().rev() {
            backward.add(ProcessorId(0), *k, *u, Lifetime::Reserved).unwrap();
        }
        forward.recompute_totals();
        backward.recompute_totals();
        assert_eq!(
            forward.utilization(ProcessorId(0)).to_bits(),
            backward.utilization(ProcessorId(0)).to_bits()
        );
    }

    #[test]
    fn float_drift_stays_reconcilable_over_10k_cycles() {
        // 10k add/remove cycles of drift-prone values against a persistent
        // background population: the running totals must stay within 1e-6
        // of a fresh recompute, and recompute must report the drift it
        // corrected.
        let mut l = UtilizationLedger::new(2);
        for t in 0..8 {
            l.add(
                ProcessorId(t % 2),
                key(100 + u32::from(t), 0, 0),
                0.1 + 1e-13,
                Lifetime::Reserved,
            )
            .unwrap();
        }
        for seq in 0..10_000u64 {
            let k = key(0, seq, 0);
            let p = ProcessorId((seq % 2) as u16);
            l.add(p, k, 0.031 + (seq as f64).mul_add(1e-12, 1e-9), Lifetime::Reserved).unwrap();
            l.remove(p, k);
        }
        let before = l.utilizations();
        let drift = l.recompute_totals();
        let after = l.utilizations();
        assert!(drift < 1e-6, "drift {drift} exceeded the reconcilable budget");
        for (b, a) in before.iter().zip(&after) {
            assert!((b - a).abs() < 1e-6, "total drifted visibly: {b} vs {a}");
        }
    }
}
