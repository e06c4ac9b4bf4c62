//! The adaptation governor: the *policy* half of a closed sensing →
//! policy → actuation loop that turns the reconfigurable middleware into a
//! **self**-reconfiguring one.
//!
//! The paper's §5 makes the service strategies run-time attributes but
//! leaves *when* to change them to an operator. This module closes the
//! loop declaratively:
//!
//! * **Sensing** — [`Governor::sense`] closes one window in one call:
//!   it prunes the admission controller's current set at the boundary,
//!   reads AUB slack and per-processor imbalance off the ledger, and
//!   differences the runtime's [`CumulativeLoad`] counters against the
//!   previous boundary's, giving the window's [`WindowMetrics`] (accepted
//!   ratio, idle-reset activity, deferred decisions) in O(1) per window.
//!   This deliberately lifts the incremental-maintenance discipline of the
//!   admission path (its touched-set trick) into the reporting path: a
//!   window is a *delta of maintained totals*, never a rescan of jobs,
//!   records or ledger contributions. Both substrates make this one call,
//!   on the thread that admits jobs, through `rtcm_rt::stats::RtMetrics::sense`,
//!   which reads the counters off the registry both book.
//! * **Policy** — a [`GovernorPolicy`] is an ordered list of
//!   [`GovernorRule`]s: *metric* crosses *threshold* for *N consecutive
//!   windows* → switch to *target*. Consecutive-window streaks are the
//!   hysteresis; a policy-wide cooldown bounds the swap rate so an
//!   oscillating load cannot make the system flap (see the unit tests and
//!   `rtcm-sim`'s oscillation test).
//! * **Actuation** is the caller's: the threaded runtime drives
//!   `System::reconfigure` (the two-phase protocol), the simulator drives
//!   `AdmissionController::reconfigure` directly. The [`Governor`] itself
//!   is a pure, deterministic state machine — identical decisions in
//!   virtual and wall-clock time, so policies are testable in simulation
//!   before they govern a live system.
//!
//! # Examples
//!
//! ```
//! use rtcm_core::govern::{Governor, GovernorPolicy, Metric, Trigger, WindowMetrics};
//! use rtcm_core::strategy::ServiceConfig;
//!
//! let baseline: ServiceConfig = "J_N_N".parse()?;
//! let defensive: ServiceConfig = "T_T_T".parse()?;
//! let policy = GovernorPolicy::defensive_recovery(baseline, defensive);
//! let mut governor = Governor::new(policy)?;
//!
//! // Two consecutive collapsed windows trip the defensive switch.
//! let collapsed = WindowMetrics { accepted_ratio: 0.1, arrived_jobs: 20, ..WindowMetrics::IDLE };
//! assert!(governor.observe(baseline, &collapsed).is_none(), "one window is noise");
//! let decision = governor.observe(baseline, &collapsed).expect("two windows are a trend");
//! assert_eq!(decision.target, defensive);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::admission::AdmissionController;
use crate::strategy::{InvalidConfigError, ServiceConfig};
use crate::time::Time;

/// One sliding window's sensed load, as consumed by [`Governor::observe`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WindowMetrics {
    /// Jobs that arrived in the window.
    pub arrived_jobs: u64,
    /// Utilization weight (`Σ C/D`) that arrived in the window.
    pub arrived_utilization: f64,
    /// Utilization weight released (admitted) in the window.
    pub released_utilization: f64,
    /// `released / arrived` utilization in the window; 1.0 when nothing
    /// arrived (an idle window is not a collapsed one).
    pub accepted_ratio: f64,
    /// Idle-reset reports applied in the window.
    pub ir_reports: u64,
    /// Admission decisions deferred by reconfiguration prepare windows
    /// during this window (always 0 in the simulator, whose switches are
    /// instantaneous).
    pub deferred: u64,
    /// AUB headroom at the window boundary: `1 − max_p U_p` over the
    /// ledger's per-processor synthetic utilizations.
    pub aub_slack: f64,
    /// Load spread at the window boundary: `max_p U_p − min_p U_p`.
    pub imbalance: f64,
}

impl WindowMetrics {
    /// A window in which nothing happened (full slack, perfect ratio).
    pub const IDLE: WindowMetrics = WindowMetrics {
        arrived_jobs: 0,
        arrived_utilization: 0.0,
        released_utilization: 0.0,
        accepted_ratio: 1.0,
        ir_reports: 0,
        deferred: 0,
        aub_slack: 1.0,
        imbalance: 0.0,
    };

    /// The value of `metric` in this window.
    #[must_use]
    pub fn value(&self, metric: Metric) -> f64 {
        match metric {
            Metric::AcceptedRatio => self.accepted_ratio,
            Metric::AubSlack => self.aub_slack,
            Metric::Imbalance => self.imbalance,
            Metric::IrReports => self.ir_reports as f64,
            Metric::Deferred => self.deferred as f64,
        }
    }
}

/// The cumulative counters a runtime exposes (monotone, maintained on the
/// hot path anyway). [`Governor::sense`] differences two successive
/// snapshots — sensing costs O(1) per window regardless of how many jobs
/// flowed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct CumulativeLoad {
    /// Jobs arrived since start.
    pub arrived_jobs: u64,
    /// Utilization weight arrived since start.
    pub arrived_utilization: f64,
    /// Utilization weight released since start.
    pub released_utilization: f64,
    /// Idle-reset reports applied since start.
    pub ir_reports: u64,
    /// Decisions deferred by prepare windows since start.
    pub deferred: u64,
}

/// The two boundary gauges from per-processor synthetic utilizations:
/// `(1 − max U, max U − min U)`. An empty slice reads as full slack, zero
/// imbalance.
fn slack_and_imbalance(utilizations: &[f64]) -> (f64, f64) {
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    for &u in utilizations {
        min = min.min(u);
        max = max.max(u);
    }
    if utilizations.is_empty() {
        (1.0, 0.0)
    } else {
        (1.0 - max, max - min)
    }
}

/// A sensed quantity a [`GovernorRule`] can threshold on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Metric {
    /// Utilization-weighted accepted ratio of the window.
    AcceptedRatio,
    /// AUB headroom `1 − max_p U_p` at the window boundary.
    AubSlack,
    /// Per-processor utilization spread `max_p U_p − min_p U_p`.
    Imbalance,
    /// Idle-reset reports in the window.
    IrReports,
    /// Decisions deferred by prepare windows in the window.
    Deferred,
}

impl fmt::Display for Metric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Metric::AcceptedRatio => "accepted-ratio",
            Metric::AubSlack => "aub-slack",
            Metric::Imbalance => "imbalance",
            Metric::IrReports => "ir-reports",
            Metric::Deferred => "deferred",
        })
    }
}

/// The threshold side of a rule.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Trigger {
    /// Fires while the metric is strictly below the threshold.
    Below(f64),
    /// Fires while the metric is strictly above the threshold.
    Above(f64),
}

impl Trigger {
    /// True if `value` satisfies this trigger.
    #[must_use]
    pub fn satisfied(&self, value: f64) -> bool {
        match *self {
            Trigger::Below(t) => value < t,
            Trigger::Above(t) => value > t,
        }
    }

    fn threshold(&self) -> f64 {
        match *self {
            Trigger::Below(t) | Trigger::Above(t) => t,
        }
    }
}

impl fmt::Display for Trigger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Trigger::Below(t) => write!(f, "< {t}"),
            Trigger::Above(t) => write!(f, "> {t}"),
        }
    }
}

/// One declarative adaptation rule: `metric trigger` holding for
/// `for_windows` consecutive (qualifying) windows switches the system to
/// `target`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GovernorRule {
    /// Diagnostic name, echoed in decisions and logs.
    pub name: String,
    /// The sensed quantity thresholded.
    pub metric: Metric,
    /// The threshold.
    pub trigger: Trigger,
    /// Hysteresis: consecutive qualifying windows required before firing
    /// (≥ 1). A single non-qualifying window resets the streak.
    pub for_windows: u32,
    /// Windows with fewer arrivals than this do not advance (or reset) the
    /// streak — idle windows are no evidence either way.
    pub min_arrivals: u64,
    /// Configuration to switch to when the rule fires.
    pub target: ServiceConfig,
}

impl GovernorRule {
    /// A rule with no minimum-arrival gate.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        metric: Metric,
        trigger: Trigger,
        for_windows: u32,
        target: ServiceConfig,
    ) -> Self {
        GovernorRule { name: name.into(), metric, trigger, for_windows, min_arrivals: 0, target }
    }

    /// Requires at least `n` arrivals in a window for it to count toward
    /// (or against) the streak.
    #[must_use]
    pub fn min_arrivals(mut self, n: u64) -> Self {
        self.min_arrivals = n;
        self
    }
}

impl fmt::Display for GovernorRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} {} for {} windows -> {}",
            self.name, self.metric, self.trigger, self.for_windows, self.target
        )
    }
}

/// An ordered rule list plus the policy-wide cooldown. Earlier rules win
/// ties within a window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GovernorPolicy {
    /// Rules, evaluated in order each window.
    pub rules: Vec<GovernorRule>,
    /// Windows after any swap during which no rule may fire (streaks keep
    /// accumulating). Bounds the swap rate under oscillating load.
    pub cooldown_windows: u32,
}

impl Default for GovernorPolicy {
    fn default() -> Self {
        GovernorPolicy { rules: Vec::new(), cooldown_windows: 2 }
    }
}

impl GovernorPolicy {
    /// An empty policy with the default cooldown.
    #[must_use]
    pub fn new() -> Self {
        GovernorPolicy::default()
    }

    /// Appends a rule.
    #[must_use]
    pub fn rule(mut self, rule: GovernorRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// Sets the cooldown.
    #[must_use]
    pub fn cooldown(mut self, windows: u32) -> Self {
        self.cooldown_windows = windows;
        self
    }

    /// The canonical burst-defense policy: accepted ratio collapsing below
    /// 0.3 for 2 busy windows switches to `defensive`; a *healthy* ratio
    /// (above 0.8, or idle) holding for 5 windows relaxes back to
    /// `baseline`. The relax rule deliberately watches the accepted ratio
    /// rather than AUB slack: under a per-task defensive configuration the
    /// ledger drains (slack recovers) the moment the defense holds, while
    /// the ratio stays collapsed until the storm has actually passed — so
    /// slack would relax mid-burst, the ratio only after it.
    #[must_use]
    pub fn defensive_recovery(baseline: ServiceConfig, defensive: ServiceConfig) -> Self {
        GovernorPolicy::new()
            .rule(
                GovernorRule::new(
                    "collapse-defense",
                    Metric::AcceptedRatio,
                    Trigger::Below(0.3),
                    2,
                    defensive,
                )
                .min_arrivals(1),
            )
            .rule(GovernorRule::new(
                "relax",
                Metric::AcceptedRatio,
                Trigger::Above(0.8),
                5,
                baseline,
            ))
            .cooldown(3)
    }

    /// Validates every rule: targets must satisfy the §4.5 combination
    /// rule, `for_windows ≥ 1`, thresholds finite.
    ///
    /// # Errors
    ///
    /// Returns the first [`PolicyError`] found (invalid targets carry the
    /// underlying [`InvalidConfigError`]).
    pub fn validate(&self) -> Result<(), PolicyError> {
        for (i, rule) in self.rules.iter().enumerate() {
            rule.target
                .validate()
                .map_err(|source| PolicyError::InvalidTarget { rule: i, source })?;
            if rule.for_windows == 0 {
                return Err(PolicyError::ZeroHysteresis { rule: i });
            }
            if !rule.trigger.threshold().is_finite() {
                return Err(PolicyError::NonFiniteThreshold { rule: i });
            }
        }
        Ok(())
    }
}

impl fmt::Display for GovernorPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.rules.is_empty() {
            return f.write_str("(no rules)");
        }
        for (i, rule) in self.rules.iter().enumerate() {
            if i > 0 {
                f.write_str("; ")?;
            }
            write!(f, "{rule}")?;
        }
        write!(f, " (cooldown {} windows)", self.cooldown_windows)
    }
}

/// Why a [`GovernorPolicy`] is unusable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolicyError {
    /// A rule's target violates the §4.5 combination rule.
    InvalidTarget {
        /// Index of the offending rule.
        rule: usize,
        /// The underlying configuration error.
        source: InvalidConfigError,
    },
    /// A rule demands zero consecutive windows (it could never fire — or
    /// always fire — depending on interpretation; refuse it).
    ZeroHysteresis {
        /// Index of the offending rule.
        rule: usize,
    },
    /// A rule's threshold is NaN or infinite.
    NonFiniteThreshold {
        /// Index of the offending rule.
        rule: usize,
    },
}

impl fmt::Display for PolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicyError::InvalidTarget { rule, source } => {
                write!(f, "rule {rule} targets an invalid combination: {source}")
            }
            PolicyError::ZeroHysteresis { rule } => {
                write!(f, "rule {rule} requires for_windows >= 1")
            }
            PolicyError::NonFiniteThreshold { rule } => {
                write!(f, "rule {rule} has a non-finite threshold")
            }
        }
    }
}

impl std::error::Error for PolicyError {}

/// A governor's verdict for one window: switch to `target`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GovernorDecision {
    /// Index of the rule that fired.
    pub rule: usize,
    /// Its diagnostic name.
    pub rule_name: String,
    /// The configuration to enter.
    pub target: ServiceConfig,
    /// The streak length at the moment of firing.
    pub streak: u32,
    /// The window ordinal (1-based) in which the rule fired.
    pub window: u64,
}

/// The deterministic policy state machine and the sensor that feeds it.
/// Close each window with [`Governor::sense`], then feed the metrics to
/// [`Governor::observe`] together with the *actual* current configuration
/// (so an aborted actuation needs no rollback call — the governor trusts
/// the caller's view, not its own last decision).
#[derive(Debug, Clone)]
pub struct Governor {
    policy: GovernorPolicy,
    streaks: Vec<u32>,
    cooldown: u32,
    /// Windows observed.
    windows: u64,
    /// The counters at the last boundary [`Governor::sense`] closed.
    prev: CumulativeLoad,
}

impl Governor {
    /// Creates a governor, validating the policy first.
    ///
    /// # Errors
    ///
    /// Returns [`PolicyError`] for unusable policies.
    pub fn new(policy: GovernorPolicy) -> Result<Self, PolicyError> {
        policy.validate()?;
        let streaks = vec![0; policy.rules.len()];
        Ok(Governor { policy, streaks, cooldown: 0, windows: 0, prev: CumulativeLoad::default() })
    }

    /// The policy being enforced.
    #[must_use]
    pub fn policy(&self) -> &GovernorPolicy {
        &self.policy
    }

    /// Closes the window ending at `now`: prunes `ac`'s current set at the
    /// boundary, so the gauges count live entries only, reads AUB slack
    /// and imbalance off its ledger's maintained per-processor totals, and
    /// returns everything `cum` gained since the previous boundary. The
    /// first window starts at zero counters.
    pub fn sense(
        &mut self,
        ac: &mut AdmissionController,
        now: Time,
        cum: CumulativeLoad,
    ) -> WindowMetrics {
        ac.expire(now);
        let (aub_slack, imbalance) = slack_and_imbalance(&ac.ledger().utilizations());
        let prev = std::mem::replace(&mut self.prev, cum);
        let arrived_utilization = (cum.arrived_utilization - prev.arrived_utilization).max(0.0);
        let released_utilization = (cum.released_utilization - prev.released_utilization).max(0.0);
        let accepted_ratio = if arrived_utilization > 0.0 {
            (released_utilization / arrived_utilization).min(1.0)
        } else {
            1.0
        };
        WindowMetrics {
            arrived_jobs: cum.arrived_jobs.saturating_sub(prev.arrived_jobs),
            arrived_utilization,
            released_utilization,
            accepted_ratio,
            ir_reports: cum.ir_reports.saturating_sub(prev.ir_reports),
            deferred: cum.deferred.saturating_sub(prev.deferred),
            aub_slack,
            imbalance,
        }
    }

    /// Observes one closed window under the *actual* current configuration
    /// and returns a switch decision if a rule's hysteresis is satisfied.
    ///
    /// Streak semantics: a qualifying window (enough arrivals) either
    /// advances or resets each rule's streak; a non-qualifying window
    /// leaves streaks untouched. During cooldown streaks keep evolving but
    /// no decision is emitted. After a decision every streak resets and
    /// the cooldown starts, so consecutive swaps are at least
    /// `cooldown_windows + 1` windows apart — the anti-flapping rate
    /// bound the hysteresis tests pin.
    pub fn observe(
        &mut self,
        current: ServiceConfig,
        metrics: &WindowMetrics,
    ) -> Option<GovernorDecision> {
        self.windows += 1;
        for (i, rule) in self.policy.rules.iter().enumerate() {
            if metrics.arrived_jobs < rule.min_arrivals {
                continue; // idle window: no evidence either way
            }
            if rule.trigger.satisfied(metrics.value(rule.metric)) {
                self.streaks[i] = self.streaks[i].saturating_add(1);
            } else {
                self.streaks[i] = 0;
            }
        }
        if self.cooldown > 0 {
            self.cooldown -= 1;
            return None;
        }
        let fired = self
            .policy
            .rules
            .iter()
            .enumerate()
            .find(|(i, rule)| self.streaks[*i] >= rule.for_windows && rule.target != current)?;
        let (i, rule) = fired;
        let decision = GovernorDecision {
            rule: i,
            rule_name: rule.name.clone(),
            target: rule.target,
            streak: self.streaks[i],
            window: self.windows,
        };
        self.cooldown = self.policy.cooldown_windows;
        for s in &mut self.streaks {
            *s = 0;
        }
        Some(decision)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(label: &str) -> ServiceConfig {
        label.parse().unwrap()
    }

    fn busy(ratio: f64) -> WindowMetrics {
        WindowMetrics {
            arrived_jobs: 10,
            arrived_utilization: 1.0,
            released_utilization: ratio,
            accepted_ratio: ratio,
            aub_slack: 0.05,
            ..WindowMetrics::IDLE
        }
    }

    fn policy() -> GovernorPolicy {
        GovernorPolicy::defensive_recovery(cfg("J_N_N"), cfg("T_T_T"))
    }

    /// An **imbalance-triggered LB-axis switch**: synthetic-utilization spread
    /// `max_p U_p − min_p U_p` holding above 0.35 for 2 busy windows
    /// switches to `balanced` — a target whose LB axis is engaged, so
    /// skewed arrivals start spilling onto replicas — and the spread
    /// settling below 0.1 for 5 windows relaxes back to `baseline`. The
    /// asymmetric thresholds are the hysteresis band: a spread oscillating
    /// inside (0.1, 0.35) trips neither rule, and the policy-wide cooldown
    /// bounds the swap rate on top.
    fn imbalance_rebalance(baseline: ServiceConfig, balanced: ServiceConfig) -> GovernorPolicy {
        GovernorPolicy::new()
            .rule(
                GovernorRule::new(
                    "imbalance-rebalance",
                    Metric::Imbalance,
                    Trigger::Above(0.35),
                    2,
                    balanced,
                )
                .min_arrivals(1),
            )
            .rule(GovernorRule::new(
                "rebalance-relax",
                Metric::Imbalance,
                Trigger::Below(0.1),
                5,
                baseline,
            ))
            .cooldown(3)
    }

    #[test]
    fn imbalance_policy_switches_lb_axis_and_relaxes() {
        // A pure LB-axis flip: same admission and idle-reset strategies,
        // load balancing engaged under skew, disengaged once it settles.
        let baseline = cfg("J_N_N");
        let balanced = cfg("J_N_T");
        let policy = imbalance_rebalance(baseline, balanced);
        policy.validate().unwrap();
        let mut governor = Governor::new(policy).unwrap();

        let skewed = WindowMetrics { arrived_jobs: 10, imbalance: 0.6, ..WindowMetrics::IDLE };
        assert!(governor.observe(baseline, &skewed).is_none(), "one skewed window is noise");
        let decision = governor.observe(baseline, &skewed).expect("two skewed windows fire");
        assert_eq!(decision.target, balanced);
        assert_eq!(decision.rule_name, "imbalance-rebalance");

        // Settled spread relaxes back to the baseline once the cooldown
        // and the 5-window streak are both satisfied.
        let settled = WindowMetrics { arrived_jobs: 10, imbalance: 0.05, ..WindowMetrics::IDLE };
        let mut relaxed = None;
        for _ in 0..16 {
            if let Some(d) = governor.observe(balanced, &settled) {
                relaxed = Some(d);
                break;
            }
        }
        let relaxed = relaxed.expect("settled spread relaxes");
        assert_eq!(relaxed.target, baseline);
        assert_eq!(relaxed.rule_name, "rebalance-relax");
    }

    #[test]
    fn imbalance_policy_hysteresis_band_holds() {
        // Inside the (0.1, 0.35) band neither rule can ever fire.
        let policy = imbalance_rebalance(cfg("J_N_N"), cfg("J_N_T"));
        let mut governor = Governor::new(policy).unwrap();
        let wobble = WindowMetrics { arrived_jobs: 10, imbalance: 0.2, ..WindowMetrics::IDLE };
        for _ in 0..32 {
            assert!(governor.observe(cfg("J_N_N"), &wobble).is_none());
        }
        // An idle skewed window (no arrivals) is not a rebalance trigger.
        let idle_skew = WindowMetrics { imbalance: 0.9, ..WindowMetrics::IDLE };
        for _ in 0..4 {
            assert!(governor.observe(cfg("J_N_N"), &idle_skew).is_none());
        }
    }

    #[test]
    fn sense_differences_cumulative_counters() {
        use crate::task::{ProcessorId, TaskBuilder, TaskId};
        use crate::time::Duration;

        let at = |ms| Time::ZERO + Duration::from_millis(ms);
        let mut ac = AdmissionController::new(cfg("J_N_N"), 2).unwrap();
        // One live job at U = 0.2 on processor 0 until its 100 ms deadline.
        let task = TaskBuilder::aperiodic(TaskId(0))
            .deadline(Duration::from_millis(100))
            .subtask(Duration::from_millis(20), ProcessorId(0), [])
            .build()
            .unwrap();
        assert!(ac.handle_arrival(&task, 0, Time::ZERO).unwrap().is_accept());

        let mut g = Governor::new(policy()).unwrap();
        let w1 = g.sense(
            &mut ac,
            at(50),
            CumulativeLoad {
                arrived_jobs: 4,
                arrived_utilization: 0.8,
                released_utilization: 0.2,
                ir_reports: 1,
                deferred: 0,
            },
        );
        assert_eq!(w1.arrived_jobs, 4);
        assert!((w1.accepted_ratio - 0.25).abs() < 1e-12);
        assert_eq!(w1.ir_reports, 1);
        assert!((w1.aub_slack - 0.8).abs() < 1e-12, "the live job's 0.2 on processor 0");
        assert!((w1.imbalance - 0.2).abs() < 1e-12);

        // Second window sees only the delta, and the boundary prune has
        // dropped the job whose deadline passed.
        let w2 = g.sense(
            &mut ac,
            at(100),
            CumulativeLoad {
                arrived_jobs: 6,
                arrived_utilization: 1.0,
                released_utilization: 0.4,
                ir_reports: 3,
                deferred: 2,
            },
        );
        assert_eq!(w2.arrived_jobs, 2);
        assert!((w2.arrived_utilization - 0.2).abs() < 1e-12);
        assert!((w2.accepted_ratio - 1.0).abs() < 1e-12, "0.2 arrived, 0.2 released");
        assert_eq!(w2.ir_reports, 2);
        assert_eq!(w2.deferred, 2);
        assert_eq!((w2.aub_slack, w2.imbalance), (1.0, 0.0), "expired at the boundary");

        // An empty window reads as idle.
        let w3 = g.sense(
            &mut ac,
            at(150),
            CumulativeLoad {
                arrived_jobs: 6,
                arrived_utilization: 1.0,
                released_utilization: 0.4,
                ir_reports: 3,
                deferred: 2,
            },
        );
        assert_eq!(w3.arrived_jobs, 0);
        assert_eq!(w3.accepted_ratio, 1.0);
    }

    #[test]
    fn slack_and_imbalance_from_utilizations() {
        assert_eq!(slack_and_imbalance(&[]), (1.0, 0.0));
        let (slack, imbalance) = slack_and_imbalance(&[0.2, 0.7, 0.4]);
        assert!((slack - 0.3).abs() < 1e-12);
        assert!((imbalance - 0.5).abs() < 1e-12);
    }

    #[test]
    fn hysteresis_requires_consecutive_windows() {
        let mut g = Governor::new(policy()).unwrap();
        let current = cfg("J_N_N");
        assert!(g.observe(current, &busy(0.1)).is_none(), "streak 1 of 2");
        assert!(g.observe(current, &busy(0.9)).is_none(), "streak broken");
        assert!(g.observe(current, &busy(0.1)).is_none(), "streak 1 again");
        let d = g.observe(current, &busy(0.1)).expect("streak 2 fires");
        assert_eq!(d.target, cfg("T_T_T"));
        assert_eq!(d.rule_name, "collapse-defense");
        assert_eq!(d.streak, 2);
    }

    #[test]
    fn idle_windows_do_not_advance_or_reset_streaks() {
        let mut g = Governor::new(policy()).unwrap();
        let current = cfg("J_N_N");
        assert!(g.observe(current, &busy(0.1)).is_none());
        // Idle window: accepted_ratio is 1.0, but min_arrivals gates it out
        // so the streak survives.
        assert!(g.observe(current, &WindowMetrics::IDLE).is_none());
        assert!(g.observe(current, &busy(0.1)).is_some(), "streak resumed, fires at 2");
    }

    #[test]
    fn oscillating_load_never_flaps() {
        // Alternate collapse/recovery every window for 200 windows: the
        // 2-window hysteresis must never be satisfied, so zero swaps.
        let mut g = Governor::new(policy()).unwrap();
        for i in 0..200 {
            let m = if i % 2 == 0 { busy(0.05) } else { busy(0.95) };
            assert!(
                g.observe(cfg("J_N_N"), &m).is_none(),
                "oscillation defeats the hysteresis, not the system"
            );
        }
    }

    #[test]
    fn cooldown_bounds_swap_rate_under_block_oscillation() {
        // Sustained blocks long enough to satisfy the hysteresis: swaps
        // are at least cooldown + 1 windows apart.
        let policy = GovernorPolicy::new()
            .rule(GovernorRule::new(
                "down",
                Metric::AcceptedRatio,
                Trigger::Below(0.3),
                2,
                cfg("T_T_T"),
            ))
            .rule(GovernorRule::new(
                "up",
                Metric::AcceptedRatio,
                Trigger::Above(0.7),
                2,
                cfg("J_N_N"),
            ))
            .cooldown(4);
        let mut g = Governor::new(policy).unwrap();
        let mut current = cfg("J_N_N");
        let mut swaps = 0;
        let windows = 120;
        for i in 0..windows {
            let m = if (i / 6) % 2 == 0 { busy(0.1) } else { busy(0.9) };
            if let Some(d) = g.observe(current, &m) {
                current = d.target;
                swaps += 1;
            }
        }
        let bound = windows / (4 + 1) + 1;
        assert!(swaps <= bound, "swaps {swaps} exceed the rate bound {bound}");
        assert!(swaps >= 2, "sustained blocks must still adapt ({swaps} swaps)");
    }

    #[test]
    fn rule_does_not_fire_into_the_current_configuration() {
        let mut g = Governor::new(policy()).unwrap();
        let current = cfg("T_T_T"); // already defensive
        for _ in 0..10 {
            assert!(g.observe(current, &busy(0.1)).is_none(), "target == current never fires");
        }
    }

    #[test]
    fn relax_rule_reverts_after_load_recovers() {
        let mut g = Governor::new(policy()).unwrap();
        let mut current = cfg("J_N_N");
        for _ in 0..2 {
            if let Some(d) = g.observe(current, &busy(0.1)) {
                current = d.target;
            }
        }
        assert_eq!(current, cfg("T_T_T"));
        // The storm passes (healthy ratio): the relax rule needs 5 windows
        // plus the cooldown.
        let healthy = busy(0.95);
        let mut reverted_at = None;
        for i in 0..12 {
            if let Some(d) = g.observe(current, &healthy) {
                current = d.target;
                reverted_at = Some(i);
                break;
            }
        }
        assert_eq!(current, cfg("J_N_N"));
        assert!(reverted_at.expect("revert happens") >= 4, "5-window hysteresis respected");
    }

    #[test]
    fn policy_validation_rejects_bad_rules() {
        let invalid_target = ServiceConfig::new(
            crate::strategy::AcStrategy::PerTask,
            crate::strategy::IrStrategy::PerJob,
            crate::strategy::LbStrategy::None,
        );
        let p = GovernorPolicy::new().rule(GovernorRule::new(
            "bad",
            Metric::AcceptedRatio,
            Trigger::Below(0.5),
            1,
            invalid_target,
        ));
        assert!(matches!(p.validate(), Err(PolicyError::InvalidTarget { rule: 0, .. })));

        let p = GovernorPolicy::new().rule(GovernorRule::new(
            "zero",
            Metric::AcceptedRatio,
            Trigger::Below(0.5),
            0,
            cfg("J_N_N"),
        ));
        assert!(matches!(p.validate(), Err(PolicyError::ZeroHysteresis { rule: 0 })));

        let p = GovernorPolicy::new().rule(GovernorRule::new(
            "nan",
            Metric::AcceptedRatio,
            Trigger::Below(f64::NAN),
            1,
            cfg("J_N_N"),
        ));
        assert!(matches!(p.validate(), Err(PolicyError::NonFiniteThreshold { rule: 0 })));
        assert!(Governor::new(p).is_err());
    }

    #[test]
    fn first_rule_wins_ties_and_streaks_reset_after_firing() {
        let p = GovernorPolicy::new()
            .rule(GovernorRule::new(
                "first",
                Metric::AcceptedRatio,
                Trigger::Below(0.5),
                1,
                cfg("T_T_T"),
            ))
            .rule(GovernorRule::new(
                "second",
                Metric::AcceptedRatio,
                Trigger::Below(0.5),
                1,
                cfg("J_J_J"),
            ))
            .cooldown(0);
        let mut g = Governor::new(p).unwrap();
        let d = g.observe(cfg("J_N_N"), &busy(0.1)).unwrap();
        assert_eq!(d.rule_name, "first");
        // After firing, streaks were reset; the second rule must rebuild its
        // own streak rather than inherit the first's.
        let d2 = g.observe(cfg("T_T_T"), &busy(0.1)).unwrap();
        assert_eq!(d2.rule_name, "second", "first rule's target is current, second fires");
        assert_eq!(d2.streak, 1);
    }

    #[test]
    fn stats_and_display() {
        let mut g = Governor::new(policy()).unwrap();
        assert!(g.observe(cfg("J_N_N"), &busy(0.1)).is_none());
        assert!(g.observe(cfg("J_N_N"), &busy(0.1)).is_some(), "the second window fires");
        assert_eq!(g.windows, 2);
        assert!(g.policy().to_string().contains("collapse-defense"));
        let rule = &g.policy().rules[0];
        assert!(rule.to_string().contains("accepted-ratio"));
        assert!(GovernorPolicy::new().to_string().contains("no rules"));
    }

    #[test]
    fn metrics_serialize() {
        let m = busy(0.4);
        let json = serde_json::to_string(&m).unwrap();
        let back: WindowMetrics = serde_json::from_str(&json).unwrap();
        assert_eq!(back, m);
        let p = policy();
        let json = serde_json::to_string(&p).unwrap();
        let back: GovernorPolicy = serde_json::from_str(&json).unwrap();
        assert_eq!(back, p);
    }
}
