//! The three axes of service configurability (§4, Figure 2) and the validity
//! rule that excludes contradictory combinations (§4.5).
//!
//! Each service — admission control (AC), idle resetting (IR) and load
//! balancing (LB) — supports *none* / *per task* / *per job* strategies
//! (admission control cannot be disabled, so it has only two). Of the 18
//! combinations, the 3 with **AC per task + IR per job** are invalid: per-job
//! idle resetting removes the synthetic utilization of completed periodic
//! subjobs, while per-task admission control requires that utilization to
//! stay reserved so later jobs can be released without re-admission. That
//! leaves the paper's 15 reasonable combinations.
//!
//! Labels follow the paper's figures: a combination is written
//! `AC_IR_LB` with `N` = not enabled, `T` = per task, `J` = per job, e.g.
//! `J_T_N`.
//!
//! # Examples
//!
//! ```
//! use rtcm_core::strategy::ServiceConfig;
//!
//! let cfg: ServiceConfig = "J_J_T".parse()?;
//! assert!(cfg.is_valid());
//! assert_eq!(ServiceConfig::all_valid().len(), 15);
//! assert!("T_J_N".parse::<ServiceConfig>()?.validate().is_err());
//! # Ok::<(), rtcm_core::strategy::ParseConfigError>(())
//! ```

use std::fmt;
use std::str::FromStr;

use serde::{Deserialize, Serialize};

use crate::task::TaskSpec;

/// When the admission test (paper eq. 1) is applied to periodic tasks.
///
/// Aperiodic arrivals are always tested individually: every aperiodic job
/// "can be treated as an independent aperiodic task with one release" (§5),
/// so this choice only affects periodic tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AcStrategy {
    /// Test only at a periodic task's first arrival; on success its synthetic
    /// utilization is reserved for the task's lifetime and all later jobs
    /// release immediately. Cheapest, most pessimistic; required when the
    /// application cannot tolerate job skipping (criterion C1 = no).
    PerTask,
    /// Test every job; jobs failing the test are skipped. Least pessimism,
    /// most overhead; requires C1 = yes.
    PerJob,
}

/// When the AUB resetting rule removes completed subjobs' contributions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IrStrategy {
    /// Never reset; contributions persist until the job deadline. No
    /// overhead, most pessimistic.
    None,
    /// On processor idle, report completed **aperiodic** subjobs only.
    PerTask,
    /// On processor idle, report completed aperiodic **and periodic**
    /// subjobs. Least pessimism, most overhead.
    PerJob,
}

/// When subtasks may be (re-)assigned across replica processors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LbStrategy {
    /// No load balancing: every subtask runs on its primary processor.
    /// Required when components are not replicated (criterion C3 = no).
    None,
    /// Assign once at the task's first arrival and keep the plan for all
    /// later jobs. Suits stateful tasks (criterion C2 = yes).
    PerTask,
    /// Re-assign each job on arrival. Requires stateless tasks
    /// (C2 = no) and replication (C3 = yes).
    PerJob,
}

impl AcStrategy {
    /// Single-letter label used in the paper's figures.
    #[must_use]
    pub fn letter(self) -> char {
        match self {
            AcStrategy::PerTask => 'T',
            AcStrategy::PerJob => 'J',
        }
    }

    /// All admission-control strategies, in figure order.
    #[must_use]
    pub fn all() -> [AcStrategy; 2] {
        [AcStrategy::PerTask, AcStrategy::PerJob]
    }
}

impl IrStrategy {
    /// Single-letter label used in the paper's figures.
    #[must_use]
    pub fn letter(self) -> char {
        match self {
            IrStrategy::None => 'N',
            IrStrategy::PerTask => 'T',
            IrStrategy::PerJob => 'J',
        }
    }

    /// All idle-resetting strategies, in figure order.
    #[must_use]
    pub fn all() -> [IrStrategy; 3] {
        [IrStrategy::None, IrStrategy::PerTask, IrStrategy::PerJob]
    }

    /// Returns true if completed periodic subjobs are reported on idle.
    #[must_use]
    pub fn resets_periodic(self) -> bool {
        matches!(self, IrStrategy::PerJob)
    }

    /// Returns true if completed aperiodic subjobs are reported on idle.
    #[must_use]
    pub fn resets_aperiodic(self) -> bool {
        !matches!(self, IrStrategy::None)
    }
}

impl LbStrategy {
    /// Single-letter label used in the paper's figures.
    #[must_use]
    pub fn letter(self) -> char {
        match self {
            LbStrategy::None => 'N',
            LbStrategy::PerTask => 'T',
            LbStrategy::PerJob => 'J',
        }
    }

    /// All load-balancing strategies, in figure order.
    #[must_use]
    pub fn all() -> [LbStrategy; 3] {
        [LbStrategy::None, LbStrategy::PerTask, LbStrategy::PerJob]
    }

    /// Returns true if load balancing is enabled at all.
    #[must_use]
    pub fn is_enabled(self) -> bool {
        !matches!(self, LbStrategy::None)
    }
}

impl fmt::Display for AcStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AcStrategy::PerTask => "AC per task",
            AcStrategy::PerJob => "AC per job",
        })
    }
}

impl fmt::Display for IrStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            IrStrategy::None => "no IR",
            IrStrategy::PerTask => "IR per task",
            IrStrategy::PerJob => "IR per job",
        })
    }
}

impl fmt::Display for LbStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            LbStrategy::None => "no LB",
            LbStrategy::PerTask => "LB per task",
            LbStrategy::PerJob => "LB per job",
        })
    }
}

/// A full middleware service configuration: one strategy per axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ServiceConfig {
    /// Admission-control strategy.
    pub ac: AcStrategy,
    /// Idle-resetting strategy.
    pub ir: IrStrategy,
    /// Load-balancing strategy.
    pub lb: LbStrategy,
}

impl ServiceConfig {
    /// Creates a configuration without validating it; see
    /// [`ServiceConfig::validate`].
    #[must_use]
    pub fn new(ac: AcStrategy, ir: IrStrategy, lb: LbStrategy) -> Self {
        ServiceConfig { ac, ir, lb }
    }

    /// The paper's default configuration: per-task admission control, idle
    /// resetting and load balancing (§6).
    #[must_use]
    pub fn default_per_task() -> Self {
        ServiceConfig::new(AcStrategy::PerTask, IrStrategy::PerTask, LbStrategy::PerTask)
    }

    /// Checks the §4.5 validity rule.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidConfigError`] for the contradictory AC-per-task +
    /// IR-per-job combinations.
    pub fn validate(self) -> Result<(), InvalidConfigError> {
        if self.ac == AcStrategy::PerTask && self.ir == IrStrategy::PerJob {
            return Err(InvalidConfigError { config: self });
        }
        Ok(())
    }

    /// Returns true if the combination is one of the 15 reasonable ones.
    #[must_use]
    pub fn is_valid(self) -> bool {
        self.validate().is_ok()
    }

    /// All 18 combinations, in the paper's figure order (AC majors, then IR,
    /// then LB).
    #[must_use]
    pub fn all() -> Vec<ServiceConfig> {
        let mut out = Vec::with_capacity(18);
        for ac in AcStrategy::all() {
            for ir in IrStrategy::all() {
                for lb in LbStrategy::all() {
                    out.push(ServiceConfig::new(ac, ir, lb));
                }
            }
        }
        out
    }

    /// The 15 valid combinations, in the paper's figure order — the x-axis
    /// of Figures 5 and 6.
    #[must_use]
    pub fn all_valid() -> Vec<ServiceConfig> {
        ServiceConfig::all().into_iter().filter(|c| c.is_valid()).collect()
    }

    /// The task-effector rule, first half: `task`'s admission is decided
    /// once per task — its first job's verdict stands for every later job —
    /// because it is periodic and admission control is per task (§4.1).
    /// Aperiodic jobs are always decided one by one.
    #[must_use]
    pub fn decides_per_task(self, task: &TaskSpec) -> bool {
        task.is_periodic() && self.ac == AcStrategy::PerTask
    }

    /// The task-effector rule, second half: `task`'s accepted jobs release
    /// locally at the arrival processor, with no manager round trip — it is
    /// decided per task and load balancing does not re-place each job (§5).
    #[must_use]
    pub fn releases_locally(self, task: &TaskSpec) -> bool {
        self.decides_per_task(task) && self.lb != LbStrategy::PerJob
    }

    /// The figure label, e.g. `J_T_N`.
    #[must_use]
    pub fn label(self) -> String {
        format!("{}_{}_{}", self.ac.letter(), self.ir.letter(), self.lb.letter())
    }
}

impl fmt::Display for ServiceConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

impl FromStr for ServiceConfig {
    type Err = ParseConfigError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mk_err = || ParseConfigError { input: s.to_owned() };
        let mut parts = s.split('_');
        let ac = match parts.next().ok_or_else(mk_err)? {
            "T" => AcStrategy::PerTask,
            "J" => AcStrategy::PerJob,
            _ => return Err(mk_err()),
        };
        let ir = match parts.next().ok_or_else(mk_err)? {
            "N" => IrStrategy::None,
            "T" => IrStrategy::PerTask,
            "J" => IrStrategy::PerJob,
            _ => return Err(mk_err()),
        };
        let lb = match parts.next().ok_or_else(mk_err)? {
            "N" => LbStrategy::None,
            "T" => LbStrategy::PerTask,
            "J" => LbStrategy::PerJob,
            _ => return Err(mk_err()),
        };
        if parts.next().is_some() {
            return Err(mk_err());
        }
        Ok(ServiceConfig::new(ac, ir, lb))
    }
}

/// Error for the contradictory AC-per-task + IR-per-job combinations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidConfigError {
    /// The rejected configuration.
    pub config: ServiceConfig,
}

impl fmt::Display for InvalidConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid configuration {}: per-job idle resetting removes periodic subjob \
             contributions that per-task admission control must keep reserved",
            self.config
        )
    }
}

impl std::error::Error for InvalidConfigError {}

/// Error parsing a `AC_IR_LB` label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseConfigError {
    /// The rejected input.
    pub input: String,
}

impl fmt::Display for ParseConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid service configuration label {:?}: expected `<AC>_<IR>_<LB>` with \
             AC in {{T,J}} and IR/LB in {{N,T,J}}",
            self.input
        )
    }
}

impl std::error::Error for ParseConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eighteen_total_fifteen_valid() {
        assert_eq!(ServiceConfig::all().len(), 18);
        assert_eq!(ServiceConfig::all_valid().len(), 15);
    }

    #[test]
    fn only_ac_task_ir_job_is_invalid() {
        for cfg in ServiceConfig::all() {
            let expect_invalid = cfg.ac == AcStrategy::PerTask && cfg.ir == IrStrategy::PerJob;
            assert_eq!(!cfg.is_valid(), expect_invalid, "combination {cfg}");
        }
    }

    #[test]
    fn figure_order_matches_paper() {
        let labels: Vec<String> = ServiceConfig::all_valid().iter().map(|c| c.label()).collect();
        assert_eq!(
            labels,
            vec![
                "T_N_N", "T_N_T", "T_N_J", "T_T_N", "T_T_T", "T_T_J", "J_N_N", "J_N_T", "J_N_J",
                "J_T_N", "J_T_T", "J_T_J", "J_J_N", "J_J_T", "J_J_J",
            ]
        );
    }

    #[test]
    fn parse_display_round_trip() {
        for cfg in ServiceConfig::all() {
            let parsed: ServiceConfig = cfg.label().parse().unwrap();
            assert_eq!(parsed, cfg);
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in ["", "X_N_N", "T_N", "T_N_N_N", "N_N_N", "T_X_N", "T_N_X", "tnn"] {
            assert!(bad.parse::<ServiceConfig>().is_err(), "input {bad:?}");
        }
    }

    #[test]
    fn invalid_error_is_explanatory() {
        let cfg: ServiceConfig = "T_J_T".parse().unwrap();
        let err = cfg.validate().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("T_J_T"));
        assert!(msg.contains("reserved"));
    }

    #[test]
    fn reset_scope_helpers() {
        assert!(!IrStrategy::None.resets_aperiodic());
        assert!(IrStrategy::PerTask.resets_aperiodic());
        assert!(!IrStrategy::PerTask.resets_periodic());
        assert!(IrStrategy::PerJob.resets_periodic());
        assert!(!LbStrategy::None.is_enabled());
        assert!(LbStrategy::PerJob.is_enabled());
    }

    #[test]
    fn default_per_task_is_paper_default() {
        let d = ServiceConfig::default_per_task();
        assert_eq!(d.label(), "T_T_T");
        assert!(d.is_valid());
    }
}
