//! **Micro-benchmark: the per-window cost of the adaptation governor.**
//!
//! The governor runs on the control plane, but its evaluation sits inside
//! every sensing window of every governed system — this bench pins what a
//! window costs so sensible window lengths (milliseconds, not seconds)
//! stay justifiable:
//!
//! * `observe_{n}_rules` — one full policy evaluation (streak update +
//!   rule scan) per window, against rule-list width, over a 64-window
//!   stream;
//! * `sense` — one `Governor::sense` on an idle 4-processor admission
//!   controller: the boundary prune, the ledger's slack and imbalance
//!   read, and the cumulative-counter delta (the O(1) sensing step both
//!   substrates take);
//! * `governed_cycle_{n}_rules` — `sense` (gauges off an idle controller)
//!   plus `observe` over an alternating collapse/recovery counter stream.
//!
//! Each `observe` / `governed_cycle` sample starts from a fresh governor
//! (and controller), made outside the timed region (`rtcm_bench::measure`).
//! `RTCM_QUICK=1` drops the widest policies so smoke runs stay fast.

use std::hint::black_box;

use rtcm_bench::govern::{governor_policy, metrics_stream};
use rtcm_bench::measure;
use rtcm_core::admission::AdmissionController;
use rtcm_core::govern::{CumulativeLoad, Governor};
use rtcm_core::time::{Duration, Time};

const SAMPLES: usize = 2_000;
const WINDOW: Duration = Duration::from_millis(10);

fn main() {
    let quick = std::env::var("RTCM_QUICK").is_ok();
    let widths: &[usize] = if quick { &[2, 16] } else { &[2, 16, 128] };
    let current = "J_N_N".parse().unwrap();
    let stream = metrics_stream(64, 4);

    for &rules in widths {
        let governor = Governor::new(governor_policy(rules)).expect("fixture policies validate");
        let timing = measure(
            SAMPLES,
            1,
            || governor.clone(),
            |g| {
                for m in &stream {
                    black_box(g.observe(current, m));
                }
            },
        );
        println!("govern/{:<24} {timing}", format!("observe_{rules}_rules"));

        let timing = measure(
            SAMPLES,
            1,
            || (governor.clone(), AdmissionController::new(current, 4).unwrap()),
            |(g, ac)| {
                let mut cum = CumulativeLoad::default();
                let mut now = Time::ZERO;
                for m in &stream {
                    cum.arrived_jobs += m.arrived_jobs;
                    cum.arrived_utilization += m.arrived_utilization;
                    cum.released_utilization += m.released_utilization;
                    cum.ir_reports += m.ir_reports;
                    now += WINDOW;
                    let window = g.sense(ac, now, cum);
                    black_box(g.observe(current, &window));
                }
            },
        );
        println!("govern/{:<24} {timing}", format!("governed_cycle_{rules}_rules"));
    }

    let mut governor = Governor::new(governor_policy(2)).expect("fixture policies validate");
    let mut ac = AdmissionController::new(current, 4).unwrap();
    let mut cum = CumulativeLoad::default();
    let mut now = Time::ZERO;
    let timing = measure(
        SAMPLES * 10,
        16,
        || (),
        |()| {
            cum.arrived_jobs += 10;
            cum.arrived_utilization += 1.0;
            cum.released_utilization += 0.5;
            now += WINDOW;
            governor.sense(&mut ac, now, cum)
        },
    );
    println!("govern/{:<24} {timing}", "sense");
}
