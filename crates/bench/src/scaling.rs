//! Shared fixtures for the admission-scaling experiment: incremental vs.
//! brute-force AUB admission at large current-set sizes.
//!
//! The `micro_admission` bench arms and the `smoke.rs` quick test both
//! build their controllers here so the measured topology and the tested
//! topology cannot drift apart. The fixture loads `n` three-stage entries
//! through [`AdmissionController::apply_remote_commit`] — the one path
//! that grows the current set without running (and being capped by) the
//! admission test — sized so that every processor sits near synthetic
//! utilization [`TARGET_PROC_UTILIZATION`] and a steady-state probe is
//! *accepted*: an accepted decision exercises the full tentative-add →
//! system-check → commit path on both admission modes.
//!
//! Honest-ablation caveat: the brute-force arm measures
//! `AdmissionMode::BruteForce` of the *current* controller, which still
//! maintains the incremental bookkeeping (so modes stay switchable), not
//! the pre-index controller this design replaced. The bookkeeping is
//! bounded above by the incremental arm's own total, so cross-arm ratios
//! understate the brute arm's scan cost by at most that much.

use rtcm_core::admission::{AdmissionController, AdmissionMode, Decision};
use rtcm_core::balance::Assignment;
use rtcm_core::strategy::ServiceConfig;
use rtcm_core::task::{ProcessorId, TaskBuilder, TaskId, TaskSpec};
use rtcm_core::time::{Duration, Time};

/// Subtasks per synthetic background task (and per probe).
pub const STAGES: u16 = 3;

/// Per-processor synthetic utilization the background load is sized to.
/// Low enough that a 3-stage probe passes its own bound
/// (`3·f(0.25) ≈ 0.89 < 1`) and no background entry violates it, so every
/// probe decision does the full amount of admission work.
pub const TARGET_PROC_UTILIZATION: f64 = 0.25;

/// Deadline of every background entry: far past any virtual time the
/// steady-state probe loop reaches, so the background set never expires
/// mid-measurement.
const BACKGROUND_HORIZON: Duration = Duration::from_secs(100_000);

/// A background task: `STAGES` subtasks round-robined over the processors
/// starting at `base`, each contributing `utilization` of the deadline.
fn background_task(id: u32, base: u16, procs: u16, utilization: f64) -> TaskSpec {
    let exec = BACKGROUND_HORIZON.mul_f64(utilization.max(1e-9));
    let mut builder = TaskBuilder::aperiodic(TaskId(id)).deadline(BACKGROUND_HORIZON);
    for j in 0..STAGES {
        builder = builder.subtask(exec, ProcessorId((base + j) % procs), []);
    }
    builder.build().expect("background tasks are valid")
}

/// The steady-state probes: `STAGES` stages on processors `0..STAGES` with
/// one replica each, a 1 ms deadline (so each probe has expired by the
/// next arrival 2 ms later) and negligible utilization.
///
/// Two variants with *different* execution times are returned; a
/// steady-state loop must alternate them. With identical consecutive
/// probes, the expiry of the previous probe and the tentative add of the
/// next would net each touched processor's utilization to exactly its old
/// value, and the net-delta funnel would skip the per-entry work the
/// bench is trying to measure.
#[must_use]
pub fn scaling_probes(procs: u16) -> [TaskSpec; 2] {
    [1u64, 3].map(|exec_us| {
        let mut builder = TaskBuilder::aperiodic(TaskId(u32::MAX - exec_us as u32))
            .deadline(Duration::from_millis(1));
        for j in 0..STAGES {
            builder = builder.subtask(
                Duration::from_micros(exec_us),
                ProcessorId(j % procs),
                [ProcessorId((j + 1) % procs)],
            );
        }
        builder.build().expect("probe is valid")
    })
}

/// A controller in `mode` pre-loaded with `n` background entries over
/// `procs` processors, every processor near [`TARGET_PROC_UTILIZATION`].
///
/// # Panics
///
/// Panics if the fixture ends up outside its design envelope (a processor
/// saturated or a violating entry) — that would silently change what the
/// bench measures.
#[must_use]
pub fn scaling_controller(n: u32, procs: u16, mode: AdmissionMode) -> AdmissionController {
    let cfg: ServiceConfig = "J_N_T".parse().expect("valid label");
    let mut ac =
        AdmissionController::with_mode(cfg, usize::from(procs), mode).expect("valid config");
    // Σ contributions = n · STAGES; target per-proc total = TARGET · procs.
    let utilization =
        TARGET_PROC_UTILIZATION * f64::from(procs) / (f64::from(n) * f64::from(STAGES));
    for i in 0..n {
        let task = background_task(i, (i % u32::from(procs)) as u16, procs, utilization);
        ac.apply_remote_commit(&task, 0, Time::ZERO, &Assignment::primaries(&task))
            .expect("background commits are valid");
    }
    assert_eq!(ac.current_entries() as u32, n);
    assert_eq!(ac.violating_entries(), 0, "fixture must not start over the bound");
    assert!(
        ac.ledger().utilizations().iter().all(|&u| u < 2.0 * TARGET_PROC_UTILIZATION),
        "fixture load spread out of envelope"
    );
    ac
}

/// Drives one steady-state probe arrival: advances virtual time by 2 ms
/// (expiring the previous probe) and offers the next probe job. Returns
/// the decision, which is always an accept within the fixture envelope.
pub fn probe_once(ac: &mut AdmissionController, probe: &TaskSpec, seq: u64, now: Time) -> Decision {
    ac.handle_arrival(probe, seq, now).expect("probe jobs are unique")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_is_in_envelope_and_probe_accepts() {
        for mode in [AdmissionMode::Incremental, AdmissionMode::BruteForce] {
            let mut ac = scaling_controller(64, 8, mode);
            let probes = scaling_probes(8);
            let mut now = Time::ZERO;
            for seq in 0..10u64 {
                now = now.saturating_add(Duration::from_millis(2));
                let d = probe_once(&mut ac, &probes[(seq % 2) as usize], seq, now);
                assert!(d.is_accept(), "{mode}: probe {seq} rejected");
            }
            // Steady state: exactly one live probe entry on top of the
            // background set.
            assert_eq!(ac.current_entries(), 65);
        }
    }
}
