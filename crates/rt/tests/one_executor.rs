//! One executor per federation. A launched `System`'s manager and nodes
//! are consumers of one thread, so launching adds one thread and a probe
//! job hands over between threads about twice (the caller waking the host
//! thread, the host waking the caller). A quorum member is hosted on its
//! federation's thread and adds none; that thread wakes for a parcel, not
//! for a local publish, while it hosts nothing; and an idle bridge
//! listener's acceptor does not wake at all. Read from `/proc`, so Linux
//! only; one test in its own binary, so no other test's threads are
//! counted.

#![cfg(target_os = "linux")]

use std::time::Duration;

use rtcm_config::{configure_with, WorkloadSpec};
use rtcm_core::task::TaskId;
use rtcm_events::{remote, Federation, Latency, NodeId, Topic};
use rtcm_rt::{QuorumMember, QuorumOptions, RtOptions, System};

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

/// Voluntary context switches of thread `tid`; `None` once it is gone.
fn switches_of(tid: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/self/task/{tid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("voluntary_ctxt_switches:"));
    let count = line.and_then(|l| l.split_whitespace().nth(1));
    Some(count.and_then(|n| n.parse::<u64>().ok()).expect("a voluntary_ctxt_switches row"))
}

/// Voluntary context switches, summed over the process's threads.
fn voluntary_switches() -> u64 {
    tasks().iter().filter_map(|tid| switches_of(tid)).sum()
}

/// The one thread whose name the kernel reports as `comm` (truncated to
/// 15 bytes). A new thread names itself once it runs, so this waits for it.
fn thread_named(comm: &str) -> String {
    let named = |tid: &String| {
        let name = std::fs::read_to_string(format!("/proc/self/task/{tid}/comm"));
        name.is_ok_and(|name| name.trim_end() == comm)
    };
    for _ in 0..5_000 {
        let mut found: Vec<String> = tasks().into_iter().filter(named).collect();
        assert!(found.len() <= 1, "one thread named {comm}");
        if let Some(tid) = found.pop() {
            return tid;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    panic!("no thread named {comm}");
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

    // A quorum member is a consumer of its federation's executor.
    let federation = Federation::new(2, Latency::None, 7);
    let before = tasks().len();
    let member = QuorumMember::attach(&federation, NodeId(1), QuorumOptions::default()).unwrap();
    assert_eq!(tasks().len(), before, "attaching a quorum member adds no thread");
    member.shutdown();
    drop(federation);

    // A federation that hosts nothing: a local publish does not wake its
    // thread, only a parcel does. Nor once a member it hosted has gone.
    let federation = Federation::new(1, Latency::None, 7);
    let handle = federation.handle(NodeId(0)).unwrap();
    let inbox = handle.subscribe(Topic(1));
    let net = thread_named("rtcm-events-net");
    for (round, hosted) in ["never hosted", "its member shut down"].into_iter().enumerate() {
        if round > 0 {
            QuorumMember::attach(&federation, NodeId(0), QuorumOptions::default())
                .unwrap()
                .shutdown();
        }
        let switched = switches_of(&net).unwrap();
        for i in 0..10_000u32 {
            assert_eq!(handle.publish(Topic(1), i.to_le_bytes().to_vec()), 1);
        }
        let woken = switches_of(&net).unwrap() - switched;
        println!("{woken} network thread wake-ups for 10 000 local publishes ({hosted})");
        assert_eq!(inbox.len(), 10_000 * (round + 1));
        assert!(woken <= 2, "10 000 local publishes woke the network thread {woken} times");
    }

    // An idle bridge listener's acceptor blocks in `accept`.
    let (_addr, listener) = remote::listen(&federation, NodeId(0), "127.0.0.1:0", vec![Topic(1)])
        .expect("listen on loopback");
    let acceptor = thread_named("rtcm-events-acc");
    let switched = switches_of(&acceptor).unwrap();
    std::thread::sleep(Duration::from_millis(200));
    let woken = switches_of(&acceptor).unwrap() - switched;
    println!("{woken} acceptor wake-ups in 200 ms idle");
    assert!(woken <= 2, "an idle acceptor switched {woken} times in 200 ms");
    listener.shutdown();
}
