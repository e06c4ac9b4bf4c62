//! Run-time reconfiguration planning: swapping the full [`ServiceConfig`]
//! of a live admission controller without dropping admitted work.
//!
//! The paper's §5 claims the service strategies "may be modified at
//! run-time"; this module provides the declarative half of that claim:
//!
//! * [`ReconfigPlan`] — the transition planner. Given an old and a new
//!   configuration it validates the §4.5 combination rule *atomically*
//!   (an invalid target leaves the running system untouched) and lists
//!   the handover steps the admission controller must execute:
//!   draining per-task reservations when admission control moves from
//!   per-task to per-job, reseeding them on the way back, and swapping
//!   the idle-resetting / load-balancing strategies.
//! * [`ModeSchedule`] — a timed sequence of configuration changes (a
//!   *mode schedule* in the sense of reconfigurable timed discrete-event
//!   systems), consumed by `rtcm-sim` (`SimOptions::schedule`) and by
//!   experiment drivers.
//! * [`HandoverReport`] — what one executed transition did to the ledger
//!   state: entries carried, reservations drained/reseeded, sticky
//!   rejections cleared, balancer pins forgotten.
//!
//! The imperative half — actually mutating the ledger — lives in
//! [`AdmissionController::reconfigure`](crate::admission::AdmissionController::reconfigure),
//! which executes a plan step by step. See DESIGN.md ("Live
//! reconfiguration") for the handover invariants.
//!
//! # Examples
//!
//! ```
//! use rtcm_core::reconfig::{ModeSchedule, ReconfigPlan, TransitionStep};
//! use rtcm_core::strategy::ServiceConfig;
//! use rtcm_core::time::{Duration, Time};
//!
//! let from: ServiceConfig = "J_N_N".parse()?;
//! let to: ServiceConfig = "T_T_T".parse()?;
//! let plan = ReconfigPlan::between(from, to)?;
//! assert!(plan.steps().contains(&TransitionStep::ReseedReservations));
//!
//! let schedule = ModeSchedule::new().then_at(Time::ZERO + Duration::from_secs(40), to);
//! assert_eq!(schedule.active_at(Time::ZERO + Duration::from_secs(50), from), to);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::strategy::{AcStrategy, InvalidConfigError, IrStrategy, LbStrategy, ServiceConfig};
use crate::time::Time;

/// One handover step of a configuration transition, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TransitionStep {
    /// Admission control moves per-task → per-job: every per-task
    /// reservation is converted into a deadline-bound contribution (the
    /// latest deadline any job released under it can still hold), so
    /// in-flight jobs keep their guarantees while the reserved capacity
    /// eventually frees. Sticky per-task rejections are cleared.
    DrainReservations,
    /// Admission control moves per-job → per-task: periodic tasks with
    /// live admitted jobs are *reseeded* into reservations on their most
    /// recent placement, guarded by a full AUB re-check (a reseed that
    /// would violate any current entry's bound is skipped and the task is
    /// simply re-tested at its next arrival).
    ReseedReservations,
    /// Swap the idle-resetting strategy. No ledger handover is needed: IR
    /// only selects *which completions are reported*, so contributions
    /// recorded under the old strategy remain valid.
    SwapIr(IrStrategy),
    /// Swap the load-balancing strategy. Pinned per-task plans are
    /// forgotten (the pin is a property of the outgoing strategy); live
    /// reservations keep their placement until relocated or withdrawn.
    SwapLb(LbStrategy),
}

impl fmt::Display for TransitionStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransitionStep::DrainReservations => f.write_str("drain per-task reservations"),
            TransitionStep::ReseedReservations => f.write_str("reseed per-task reservations"),
            TransitionStep::SwapIr(ir) => write!(f, "swap to {ir}"),
            TransitionStep::SwapLb(lb) => write!(f, "swap to {lb}"),
        }
    }
}

/// A validated transition between two service configurations.
///
/// Construction is the *atomic validity gate* of a reconfiguration: both
/// endpoints must satisfy the §4.5 combination rule before any state is
/// touched, so a rejected plan implies an unchanged system.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReconfigPlan {
    from: ServiceConfig,
    to: ServiceConfig,
    steps: Vec<TransitionStep>,
}

impl ReconfigPlan {
    /// Plans the transition `from` → `to`.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidConfigError`] if either endpoint violates the
    /// §4.5 rule — checked before any step is emitted, so a failed plan
    /// never partially applies.
    pub fn between(from: ServiceConfig, to: ServiceConfig) -> Result<Self, InvalidConfigError> {
        from.validate()?;
        to.validate()?;
        let mut steps = Vec::new();
        match (from.ac, to.ac) {
            (AcStrategy::PerTask, AcStrategy::PerJob) => {
                steps.push(TransitionStep::DrainReservations);
            }
            (AcStrategy::PerJob, AcStrategy::PerTask) => {
                steps.push(TransitionStep::ReseedReservations);
            }
            _ => {}
        }
        if from.ir != to.ir {
            steps.push(TransitionStep::SwapIr(to.ir));
        }
        if from.lb != to.lb {
            steps.push(TransitionStep::SwapLb(to.lb));
        }
        Ok(ReconfigPlan { from, to, steps })
    }

    /// The configuration being left.
    #[must_use]
    pub fn from(&self) -> ServiceConfig {
        self.from
    }

    /// The configuration being entered.
    #[must_use]
    pub fn to(&self) -> ServiceConfig {
        self.to
    }

    /// The handover steps, in execution order.
    #[must_use]
    pub fn steps(&self) -> &[TransitionStep] {
        &self.steps
    }

    /// True if the transition changes nothing.
    #[must_use]
    pub fn is_noop(&self) -> bool {
        self.steps.is_empty()
    }
}

impl fmt::Display for ReconfigPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} -> {}:", self.from, self.to)?;
        if self.steps.is_empty() {
            return write!(f, " no-op");
        }
        for step in &self.steps {
            write!(f, " [{step}]")?;
        }
        Ok(())
    }
}

/// What one executed configuration transition did to the admission state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HandoverReport {
    /// The configuration left behind.
    pub from: ServiceConfig,
    /// The configuration now active.
    pub to: ServiceConfig,
    /// Current registry entries (admitted jobs + reservations) alive after
    /// the swap — every one keeps its ledger contributions and therefore
    /// its admission guarantee.
    pub entries_carried: usize,
    /// Per-task reservations converted into deadline-bound contributions
    /// (AC per-task → per-job).
    pub reservations_drained: usize,
    /// Reservations of tasks unknown to the caller-supplied task set,
    /// withdrawn outright because no deadline horizon is known for them.
    pub reservations_withdrawn: usize,
    /// Periodic tasks reseeded into reservations from their latest live
    /// placement (AC per-job → per-task).
    pub reservations_reseeded: usize,
    /// Reseed candidates skipped because re-reserving them would have
    /// violated the AUB bound for a current entry.
    pub reseeds_skipped: usize,
    /// Sticky per-task rejections cleared by the AC swap.
    pub rejections_cleared: usize,
    /// Pinned load-balancing plans forgotten by the LB swap.
    pub pins_forgotten: usize,
}

impl HandoverReport {
    /// An all-zero report for the transition `from` → `to`.
    #[must_use]
    pub fn new(from: ServiceConfig, to: ServiceConfig) -> Self {
        HandoverReport {
            from,
            to,
            entries_carried: 0,
            reservations_drained: 0,
            reservations_withdrawn: 0,
            reservations_reseeded: 0,
            reseeds_skipped: 0,
            rejections_cleared: 0,
            pins_forgotten: 0,
        }
    }
}

impl fmt::Display for HandoverReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} -> {}: {} entries carried, {} drained, {} reseeded ({} skipped), \
             {} rejections cleared, {} pins forgotten",
            self.from,
            self.to,
            self.entries_carried,
            self.reservations_drained,
            self.reservations_reseeded,
            self.reseeds_skipped,
            self.rejections_cleared,
            self.pins_forgotten
        )
    }
}

/// One timed configuration change of a [`ModeSchedule`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ModeChange {
    /// When the change takes effect. Ties against same-instant arrivals
    /// resolve *switch first* (the new mode governs the arrival).
    pub at: Time,
    /// The configuration to enter.
    pub services: ServiceConfig,
}

/// A timed sequence of [`ServiceConfig`] changes — the declarative input
/// for mode-change experiments (`rtcm_sim::SimOptions::schedule`) and
/// for scripted runtime transitions.
///
/// Changes are kept sorted by time (stably, so same-instant changes apply
/// in insertion order and the last one wins).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ModeSchedule {
    changes: Vec<ModeChange>,
}

impl ModeSchedule {
    /// An empty schedule (no changes; the initial configuration runs
    /// throughout).
    #[must_use]
    pub fn new() -> Self {
        ModeSchedule::default()
    }

    /// Adds a change at `at`, keeping the schedule sorted.
    #[must_use]
    pub fn then_at(mut self, at: Time, services: ServiceConfig) -> Self {
        self.push(at, services);
        self
    }

    /// Adds a change at `at`, keeping the schedule sorted.
    pub fn push(&mut self, at: Time, services: ServiceConfig) {
        self.changes.push(ModeChange { at, services });
        self.changes.sort_by_key(|c| c.at);
    }

    /// The scheduled changes, sorted by time.
    #[must_use]
    pub fn changes(&self) -> &[ModeChange] {
        &self.changes
    }

    /// True if the schedule contains no changes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.changes.is_empty()
    }

    /// Number of scheduled changes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.changes.len()
    }

    /// Validates every scheduled configuration against the §4.5 rule.
    ///
    /// # Errors
    ///
    /// Returns the first [`InvalidConfigError`] found.
    pub fn validate(&self) -> Result<(), InvalidConfigError> {
        for change in &self.changes {
            change.services.validate()?;
        }
        Ok(())
    }

    /// The configuration governing instant `t` under this schedule, given
    /// the configuration active before the first change.
    #[must_use]
    pub fn active_at(&self, t: Time, initial: ServiceConfig) -> ServiceConfig {
        self.changes.iter().take_while(|c| c.at <= t).last().map_or(initial, |c| c.services)
    }
}

impl fmt::Display for ModeSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.changes.is_empty() {
            return f.write_str("(static)");
        }
        for (i, change) in self.changes.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{} at {}", change.services, change.at)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Duration;

    fn cfg(label: &str) -> ServiceConfig {
        label.parse().unwrap()
    }

    fn at(ms: u64) -> Time {
        Time::ZERO + Duration::from_millis(ms)
    }

    #[test]
    fn plan_between_identical_configs_is_noop() {
        let plan = ReconfigPlan::between(cfg("J_T_T"), cfg("J_T_T")).unwrap();
        assert!(plan.is_noop());
        assert_eq!(plan.steps(), &[]);
    }

    #[test]
    fn plan_rejects_invalid_endpoints_atomically() {
        assert!(ReconfigPlan::between(cfg("J_N_N"), cfg("T_J_N")).is_err());
        assert!(ReconfigPlan::between(cfg("T_J_N"), cfg("J_N_N")).is_err());
    }

    #[test]
    fn ac_swaps_emit_handover_steps() {
        let drain = ReconfigPlan::between(cfg("T_T_T"), cfg("J_J_J")).unwrap();
        assert_eq!(drain.steps()[0], TransitionStep::DrainReservations);
        let reseed = ReconfigPlan::between(cfg("J_J_J"), cfg("T_T_T")).unwrap();
        assert_eq!(reseed.steps()[0], TransitionStep::ReseedReservations);
    }

    #[test]
    fn axis_swaps_are_listed_in_order() {
        let plan = ReconfigPlan::between(cfg("J_N_N"), cfg("T_T_J")).unwrap();
        assert_eq!(
            plan.steps(),
            &[
                TransitionStep::ReseedReservations,
                TransitionStep::SwapIr(IrStrategy::PerTask),
                TransitionStep::SwapLb(LbStrategy::PerJob),
            ]
        );
        assert!(plan.to_string().contains("reseed"));
    }

    #[test]
    fn every_valid_pair_plans() {
        for from in ServiceConfig::all_valid() {
            for to in ServiceConfig::all_valid() {
                let plan = ReconfigPlan::between(from, to).unwrap();
                assert_eq!(plan.is_noop(), from == to, "{from} -> {to}");
            }
        }
    }

    #[test]
    fn schedule_sorts_and_answers_active_at() {
        let schedule = ModeSchedule::new()
            .then_at(at(200), cfg("T_T_T"))
            .then_at(at(100), cfg("J_J_J"))
            .then_at(at(300), cfg("J_N_N"));
        let initial = cfg("J_T_N");
        assert_eq!(schedule.len(), 3);
        assert_eq!(schedule.active_at(at(0), initial), initial);
        assert_eq!(schedule.active_at(at(100), initial), cfg("J_J_J"));
        assert_eq!(schedule.active_at(at(250), initial), cfg("T_T_T"));
        assert_eq!(schedule.active_at(at(999), initial), cfg("J_N_N"));
        schedule.validate().unwrap();
    }

    #[test]
    fn schedule_validation_catches_invalid_modes() {
        let schedule = ModeSchedule::new().then_at(at(10), cfg("T_J_N"));
        assert!(schedule.validate().is_err());
    }

    #[test]
    fn schedule_serializes() {
        let schedule = ModeSchedule::new().then_at(at(10), cfg("J_J_J"));
        let json = serde_json::to_string(&schedule).unwrap();
        let back: ModeSchedule = serde_json::from_str(&json).unwrap();
        assert_eq!(back, schedule);
    }

    #[test]
    fn handover_report_displays_counts() {
        let mut report = HandoverReport::new(cfg("T_N_N"), cfg("J_N_N"));
        report.reservations_drained = 3;
        let text = report.to_string();
        assert!(text.contains("3 drained"), "{text}");
    }
}
