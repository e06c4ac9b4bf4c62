//! **Micro-benchmark: the cost of a live `ServiceConfig` swap.**
//!
//! Quantifies the transition cost of the reconfiguration engine's ledger
//! handover (`AdmissionController::reconfigure`) against current-set
//! size, for both handover directions:
//!
//! * `reseed_{n}` — per-job → per-task: every periodic task with a live
//!   entry is re-reserved under a full AUB re-check (the expensive
//!   direction: one admission-grade check per task);
//! * `drain_{n}` — per-task → per-job: reservations convert in place to
//!   deadline-bound contributions (net-zero utilization deltas);
//! * `ir_axis_{n}` — an IR-only swap, the near-free floor of the
//!   protocol (no ledger work at all);
//! * `cold_rebuild_{n}` — the naive alternative a reconfigurable runtime
//!   avoids: throw the controller away and re-admit the whole current
//!   set from scratch.
//!
//! Every swap sample starts from a fresh clone of the loaded controller,
//! made outside the timed region (`rtcm_bench::measure`).
//! `RTCM_QUICK=1` drops the largest current sets so smoke runs stay fast.

use rtcm_bench::reconfig::{loaded_reconfig_controller as loaded, reconfig_fixture as fixture};
use rtcm_bench::{measure, Timing};
use rtcm_core::strategy::ServiceConfig;
use rtcm_core::time::{Duration, Time};

const SAMPLES: usize = 200;

fn main() {
    let quick = std::env::var("RTCM_QUICK").is_ok();
    let sizes: &[(u32, u16)] =
        if quick { &[(64, 8), (256, 16)] } else { &[(64, 8), (256, 16), (1024, 32), (4096, 64)] };
    for &(n, procs) in sizes {
        let (task_set, tasks) = fixture(n, procs);
        let now = Time::ZERO + Duration::from_millis(1);
        let print = |arm: String, timing: Timing| println!("reconfig_handover/{arm:<18} {timing}");

        // Per-job → per-task: one AUB-checked reseed per periodic task.
        let per_job = loaded("J_N_T", &tasks, procs);
        let target: ServiceConfig = "T_N_T".parse().unwrap();
        let timing = measure(
            SAMPLES,
            1,
            || per_job.clone(),
            |ac| {
                let report = ac.reconfigure(target, now, &task_set).unwrap();
                assert_eq!(report.reservations_reseeded as u32, n);
                report
            },
        );
        print(format!("reseed_{n}"), timing);

        // Per-task → per-job: in-place conversion, net-zero deltas.
        let per_task = loaded("T_N_T", &tasks, procs);
        let back: ServiceConfig = "J_N_T".parse().unwrap();
        let timing = measure(
            SAMPLES,
            1,
            || per_task.clone(),
            |ac| {
                let report = ac.reconfigure(back, now, &task_set).unwrap();
                assert_eq!(report.reservations_drained as u32, n);
                report
            },
        );
        print(format!("drain_{n}"), timing);

        // IR-only swap: the protocol floor (no ledger handover).
        let ir_target: ServiceConfig = "J_T_T".parse().unwrap();
        let timing = measure(
            SAMPLES,
            1,
            || per_job.clone(),
            |ac| ac.reconfigure(ir_target, now, &task_set).unwrap(),
        );
        print(format!("ir_axis_{n}"), timing);

        // The restart alternative: rebuild and re-admit everything.
        let timing = measure(SAMPLES, 1, || (), |()| loaded("T_N_T", &tasks, procs));
        print(format!("cold_rebuild_{n}"), timing);
    }
}
