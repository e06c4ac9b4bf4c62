//! The middleware overhead model: where virtual time is spent outside
//! subtask execution.
//!
//! Defaults are calibrated to the paper's Figure 8 measurements on the
//! KURT-Linux testbed, so that simulated end-to-end service delays land in
//! the same ≈1.1–1.3 ms range: one-way communication ≈ 322 µs mean / 361 µs
//! max, total AC path ≈ 1114 µs (hold + 2×comm + test + release), LB adding
//! a few µs, and the AC-side idle-reset update ≈ 17 µs.
//! [`OverheadModel::zero`] turns every overhead off, which is the setting
//! used to validate AUB soundness (no admitted job may miss its deadline
//! when the analysis' zero-overhead assumptions hold).
//!
//! The one-way delay is the runtime's own [`Latency`], drawn by the same
//! `Latency::sample` the threaded federation injects with, at the one
//! Figure 8 band [`Latency::FIGURE_8`] that `RtOptions` defaults to too:
//! one delay model serves both substrates.

use serde::{Deserialize, Serialize};

use rtcm_core::time::Duration;
use rtcm_events::Latency;

/// Virtual-time costs of the middleware operations of Figure 7.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OverheadModel {
    /// One-way event-channel delay between distinct processors (op 2).
    pub comm: Latency,
    /// TE: hold the task and push the "Task Arrive" event (op 1).
    pub te_hold: Duration,
    /// TE/subtask: release a job on its processor (ops 5/6).
    pub te_release: Duration,
    /// AC: apply the admission test (op 4).
    pub ac_test: Duration,
    /// LB: generate an acceptable deployment plan (op 3); only charged when
    /// load balancing is enabled.
    pub lb_plan: Duration,
    /// IR at the AC side: update synthetic utilization (op 8).
    pub ir_update: Duration,
    /// IR at the application side: collect and push the report (op 7);
    /// spent during idle time, so it delays the report but no application
    /// work.
    pub ir_report: Duration,
}

impl OverheadModel {
    /// Figure-8-calibrated defaults (see module docs).
    #[must_use]
    pub fn paper_calibrated() -> Self {
        OverheadModel {
            comm: Latency::FIGURE_8,
            te_hold: Duration::from_micros(150),
            te_release: Duration::from_micros(150),
            ac_test: Duration::from_micros(170),
            lb_plan: Duration::from_micros(3),
            ir_update: Duration::from_micros(17),
            ir_report: Duration::from_micros(340),
        }
    }

    /// No overheads anywhere: the AUB analysis' idealized setting.
    #[must_use]
    pub fn zero() -> Self {
        OverheadModel {
            comm: Latency::None,
            te_hold: Duration::ZERO,
            te_release: Duration::ZERO,
            ac_test: Duration::ZERO,
            lb_plan: Duration::ZERO,
            ir_update: Duration::ZERO,
            ir_report: Duration::ZERO,
        }
    }
}

impl Default for OverheadModel {
    fn default() -> Self {
        OverheadModel::paper_calibrated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_model_is_all_zero() {
        let z = OverheadModel::zero();
        assert_eq!(z.comm, Latency::None);
        assert!(z.te_hold.is_zero());
        assert!(z.ac_test.is_zero());
        assert!(z.ir_update.is_zero());
    }

    #[test]
    fn calibrated_total_ac_path_matches_figure8_scale() {
        // hold + comm + test + comm + release ≈ 1114 µs in the paper.
        let m = OverheadModel::paper_calibrated();
        let Latency::Uniform { lo, hi } = m.comm else { panic!("calibrated comm is a band") };
        let comm = Duration::from((lo + hi) / 2);
        let total = m.te_hold + comm + m.ac_test + comm + m.te_release;
        let us = total.as_micros();
        assert!((1_000..=1_300).contains(&us), "total AC path {us}µs");
    }
}
