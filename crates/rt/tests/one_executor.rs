//! A launched `System` is one executor: its manager and nodes are handlers
//! of one thread, so launching adds one thread and a probe job hands over
//! between threads about twice (the caller waking the host thread, the
//! host waking the caller). Read from `/proc`, so Linux only; one test in
//! its own binary, so no other test's threads are counted.

#![cfg(target_os = "linux")]

use std::time::Duration;

use rtcm_config::{configure_with, WorkloadSpec};
use rtcm_core::task::TaskId;
use rtcm_rt::{RtOptions, System};

/// Probe jobs, submitted one at a time.
const PROBES: u64 = 2_000;

/// Nine aperiodic tasks on three processors: task `t` has `1 + t mod 3`
/// stages of 1 µs with one replica each and a 1 s deadline, so every job
/// is admitted.
fn t9() -> WorkloadSpec {
    let mut text = String::from("workload T9\nprocessors 3\n");
    for t in 0..9u16 {
        text.push_str(&format!("task t{t} aperiodic deadline=1000ms\n"));
        for s in 0..=(t % 3) {
            let (proc, replica) = ((t + s) % 3, (t + s + 1) % 3);
            text.push_str(&format!("  subtask exec=1us proc={proc} replicas={replica}\n"));
        }
    }
    WorkloadSpec::parse(&text).expect("T9 parses")
}

/// The process's threads.
fn tasks() -> Vec<String> {
    let dir = std::fs::read_dir("/proc/self/task").expect("/proc/self/task is readable");
    dir.map(|entry| entry.expect("a task entry").file_name().to_string_lossy().into_owned())
        .collect()
}

/// Voluntary context switches, summed over the process's threads.
fn voluntary_switches() -> u64 {
    tasks()
        .iter()
        .filter_map(|tid| std::fs::read_to_string(format!("/proc/self/task/{tid}/status")).ok())
        .map(|status| {
            let line = status.lines().find(|l| l.starts_with("voluntary_ctxt_switches:"));
            let count = line.and_then(|l| l.split_whitespace().nth(1));
            count.and_then(|n| n.parse::<u64>().ok()).expect("a voluntary_ctxt_switches row")
        })
        .sum()
}

#[test]
fn a_launched_system_is_one_thread_and_a_probe_two_hand_overs() {
    let deployment = configure_with(&t9(), "J_J_J".parse().unwrap()).unwrap();
    let before = tasks().len();
    let system = System::launch(&deployment, RtOptions::fast()).unwrap();
    assert_eq!(tasks().len(), before + 1, "launching a System adds exactly one thread");

    let switched = voluntary_switches();
    for seq in 0..PROBES {
        system.submit(TaskId((seq % 9) as u32), seq).unwrap();
        assert!(system.quiesce(Duration::from_secs(20)), "probe {seq} drains");
    }
    let per_job = (voluntary_switches() - switched) as f64 / PROBES as f64;
    println!("{per_job:.2} voluntary context switches per probe job");
    let report = system.shutdown();
    assert_eq!(report.jobs_completed, PROBES);
    assert!(per_job <= 3.0, "{per_job:.2} voluntary context switches per probe job");
}
