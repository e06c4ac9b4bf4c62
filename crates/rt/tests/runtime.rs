//! End-to-end tests of the runtime: configuration engine → launcher →
//! running system → report. Tests about threads, bridges, shutdown and
//! wall-clock behaviour run a threaded `System`; tests about what the
//! handlers decide and when run the same handlers on a `Host`, which
//! steps them on a virtual clock and needs no sleeps.

use std::time::Duration as StdDuration;

use rtcm_config::{configure_with, WorkloadSpec};
use rtcm_core::task::TaskId;
use rtcm_core::time::Time;
use rtcm_rt::host::Host;
use rtcm_rt::{ExecMode, RtOptions, System};

const QUIESCE: StdDuration = StdDuration::from_secs(20);

fn spec(text: &str) -> WorkloadSpec {
    WorkloadSpec::parse(text).expect("test specs are valid")
}

fn launch(spec_text: &str, services: &str) -> System {
    let deployment =
        configure_with(&spec(spec_text), services.parse().expect("valid combo")).unwrap();
    System::launch(&deployment, RtOptions::fast()).unwrap()
}

/// [`launch`] on a host.
fn host(spec_text: &str, services: &str) -> Host {
    let deployment =
        configure_with(&spec(spec_text), services.parse().expect("valid combo")).unwrap();
    Host::launch(&deployment, RtOptions::fast()).unwrap()
}

/// Submits jobs `seqs` of task 0 one at a time, each after the last is
/// done.
fn run_each(host: &mut Host, seqs: std::ops::Range<u64>) {
    for seq in seqs {
        host.submit(TaskId(0), seq).unwrap();
        host.run();
    }
}

#[test]
fn single_job_completes_end_to_end() {
    let system = launch(
        "workload w\nprocessors 2\n\
         task chain aperiodic deadline=500ms\n  subtask exec=1ms proc=0\n  subtask exec=1ms proc=1\n",
        "J_N_N",
    );
    system.submit(TaskId(0), 0).unwrap();
    assert!(system.quiesce(QUIESCE), "job should drain");
    let report = system.shutdown();
    assert_eq!(report.jobs_completed, 1);
    assert_eq!(report.ratio.released_jobs(), 1);
    assert!((report.ratio.ratio() - 1.0).abs() < 1e-9);
}

#[test]
fn submit_unknown_task_errors() {
    let system = launch(
        "workload w\nprocessors 1\ntask t aperiodic deadline=100ms\n  subtask exec=1ms proc=0\n",
        "J_N_N",
    );
    assert!(system.submit(TaskId(9), 0).is_err());
    let _ = system.shutdown();
}

#[test]
fn per_task_ac_tests_only_once_then_fast_paths() {
    let system = launch(
        "workload w\nprocessors 1\ntask t periodic period=100ms\n  subtask exec=1ms proc=0\n",
        "T_N_N",
    );
    for seq in 0..5 {
        system.submit(TaskId(0), seq).unwrap();
        assert!(system.quiesce(QUIESCE));
    }
    let report = system.shutdown();
    assert_eq!(report.jobs_completed, 5);
    // Only the first job took the AC round-trip.
    assert_eq!(report.ac_test.count(), 1, "one admission test");
    assert_eq!(report.hold.count(), 1, "one hold");
}

#[test]
fn per_job_ac_tests_every_job() {
    let system = launch(
        "workload w\nprocessors 1\ntask t periodic period=100ms\n  subtask exec=1ms proc=0\n",
        "J_N_N",
    );
    for seq in 0..5 {
        system.submit(TaskId(0), seq).unwrap();
        assert!(system.quiesce(QUIESCE));
    }
    let report = system.shutdown();
    assert_eq!(report.ac_test.count(), 5);
    assert_eq!(report.jobs_completed, 5);
}

#[test]
fn overload_rejects_and_drops() {
    // Two heavy tasks on one processor: the second must be rejected, and
    // under per-task AC its later jobs are dropped locally.
    let system = launch(
        "workload w\nprocessors 1\n\
         task a periodic period=100ms\n  subtask exec=45ms proc=0\n\
         task b periodic period=100ms\n  subtask exec=45ms proc=0\n",
        "T_N_N",
    );
    system.submit(TaskId(0), 0).unwrap();
    assert!(system.quiesce(QUIESCE));
    system.submit(TaskId(1), 0).unwrap();
    assert!(system.quiesce(QUIESCE));
    system.submit(TaskId(1), 1).unwrap(); // dropped at the TE, no AC trip
    assert!(system.quiesce(QUIESCE));
    let report = system.shutdown();
    assert_eq!(report.jobs_completed, 1);
    assert_eq!(report.ac_test.count(), 2, "third job never reached the AC");
    assert_eq!(report.ratio.arrived_jobs(), 3);
    assert_eq!(report.ratio.released_jobs(), 1);
}

#[test]
fn load_balancing_reallocates_to_replica() {
    // P0 is occupied by a heavy reserved task; a replicated arrival should
    // release on its duplicate processor.
    let system = launch(
        "workload w\nprocessors 2\n\
         task hog periodic period=100ms\n  subtask exec=40ms proc=0\n\
         task flex periodic period=100ms\n  subtask exec=40ms proc=0 replicas=1\n",
        "T_N_T",
    );
    system.submit(TaskId(0), 0).unwrap();
    assert!(system.quiesce(QUIESCE));
    system.submit(TaskId(1), 0).unwrap();
    assert!(system.quiesce(QUIESCE));
    let report = system.shutdown();
    assert_eq!(report.jobs_completed, 2);
    assert_eq!(report.reallocations, 1);
    assert_eq!(report.total_realloc.count(), 1);
}

#[test]
fn idle_resetting_reports_flow_to_manager() {
    let mut host = host(
        "workload w\nprocessors 1\ntask t aperiodic deadline=500ms\n  subtask exec=1ms proc=0\n",
        "J_J_N",
    );
    run_each(&mut host, 0..3);
    let report = host.report();
    assert!(report.ir_reports > 0, "idle resets must reach the AC");
    assert!(report.ir_update.count() > 0);
}

#[test]
fn no_ir_configuration_sends_no_reports() {
    let mut host = host(
        "workload w\nprocessors 1\ntask t aperiodic deadline=500ms\n  subtask exec=1ms proc=0\n",
        "J_N_N",
    );
    run_each(&mut host, 0..3);
    let report = host.report();
    assert_eq!(report.ir_reports, 0);
}

const CHAIN: &str = "workload w\nprocessors 2\n\
     task chain aperiodic deadline=400ms\n  subtask exec=20ms proc=0\n  subtask exec=20ms proc=1\n";

#[test]
fn sleep_execution_takes_real_time_and_meets_deadlines() {
    let deployment = configure_with(&spec(CHAIN), "J_N_N".parse().unwrap()).unwrap();
    let system =
        System::launch(&deployment, RtOptions { exec: ExecMode::Sleep, ..RtOptions::default() })
            .unwrap();
    system.submit(TaskId(0), 0).unwrap();
    assert!(system.quiesce(QUIESCE));
    let report = system.shutdown();
    assert_eq!(report.jobs_completed, 1);
    assert_eq!(report.deadline_misses, 0);
    // Response covers both stages plus the AC round-trip.
    let resp = report.response.mean();
    assert!(resp.as_millis() >= 40, "response {resp}");
    assert!(resp.as_millis() < 400, "response {resp}");
    // A hop takes its injected delay, never less; how much later a thread
    // wakes is the benchmark's `wake_lateness` and `hop_cross` rows, and
    // the drawn band itself is pinned on the host below.
    assert!(report.comm.count() >= 1);
    let comm = report.comm.mean();
    assert!(comm.as_micros() >= 280, "comm {comm}");
}

#[test]
fn hosted_hops_take_exactly_their_figure_8_draw() {
    // On the host a hop lands at its drawn instant, so every one-way delay
    // the manager samples lies in Figure 8's 283–361 µs band, and the
    // response is the two stages plus the three drawn hops.
    let deployment = configure_with(&spec(CHAIN), "J_J_N".parse().unwrap()).unwrap();
    let options = RtOptions { exec: ExecMode::Sleep, ..RtOptions::default() };
    let mut host = Host::launch(&deployment, options).unwrap();
    for seq in 0..20 {
        host.submit(TaskId(0), seq).unwrap();
        host.run();
    }
    let report = host.report();
    assert_eq!((report.jobs_completed, report.deadline_misses), (20, 0));
    assert_eq!(report.comm.count(), 20);
    let (lo, hi) = (report.comm.min().as_nanos(), report.comm.max().as_nanos());
    assert!(283_000 <= lo && hi <= 361_000, "comm samples span {lo}..={hi} ns");
    assert!(lo < hi, "the draws vary");
    let (fastest, slowest) = (report.response.min().as_nanos(), report.response.max().as_nanos());
    assert!(fastest >= 40_000_000 + 3 * 283_000, "response {fastest} ns");
    assert!(slowest <= 40_000_000 + 3 * 361_000, "response {slowest} ns");
}

/// One hosted run of three overlapping chains under Figure 8's jittered
/// latency: every job stage the trace recorded (stage, instant, detail)
/// and the report's counts.
fn hosted_run(seed: u64) -> (Vec<(String, u64, String)>, [u64; 6]) {
    let deployment = configure_with(
        &spec(
            "workload w\nprocessors 3\n\
             task a aperiodic deadline=30ms\n  subtask exec=4ms proc=0 replicas=1\n  subtask exec=3ms proc=2\n\
             task b periodic period=25ms\n  subtask exec=6ms proc=0\n  subtask exec=2ms proc=1\n\
             task c aperiodic deadline=12ms\n  subtask exec=5ms proc=1 replicas=2\n",
        ),
        "J_J_J".parse().unwrap(),
    )
    .unwrap();
    let options = RtOptions { exec: ExecMode::Sleep, seed, ..RtOptions::default() };
    let mut host = Host::launch(&deployment, options).unwrap();
    for k in 0..30u64 {
        host.run_until(Time::from_nanos(k * 2_900_000));
        host.submit(TaskId((k % 3) as u32), k / 3).unwrap();
    }
    host.run();
    let stages = host.telemetry().trace.snapshot();
    let r = host.report();
    let counts = [
        r.ratio.released_jobs(),
        r.jobs_completed,
        r.deadline_misses,
        r.reallocations,
        r.ir_reports,
        r.comm.max().as_nanos(),
    ];
    (stages.into_iter().map(|t| (t.stage, t.at_ns, t.detail)).collect(), counts)
}

#[test]
fn host_runs_with_one_seed_are_identical() {
    let (stages, counts) = hosted_run(11);
    assert_eq!(hosted_run(11), (stages.clone(), counts), "one seed, one run");
    assert!(counts[0] > 0 && counts[0] < 30, "some jobs admitted, some not: {counts:?}");
    assert_eq!(counts[2], 0, "no admitted job misses");
    // Another seed draws other hops: the same jobs, at other instants.
    let (other, _) = hosted_run(12);
    assert_ne!(other, stages);
}

#[test]
fn edms_priority_preempts_lower_priority_work() {
    // A long low-priority job and a short urgent one on the same CPU: the
    // urgent one must finish first even though it arrives second.
    let deployment = configure_with(
        &spec(
            "workload w\nprocessors 1\n\
             task slow aperiodic deadline=2s\n  subtask exec=100ms proc=0\n\
             task urgent aperiodic deadline=200ms\n  subtask exec=5ms proc=0\n",
        ),
        "J_N_N".parse().unwrap(),
    )
    .unwrap();
    let mut host =
        Host::launch(&deployment, RtOptions { exec: ExecMode::Sleep, ..RtOptions::default() })
            .unwrap();
    host.submit(TaskId(0), 0).unwrap();
    host.run_until(Time::from_nanos(20_000_000));
    host.submit(TaskId(1), 0).unwrap();
    host.run();
    // One node records both completions, so the trace ring holds them in
    // the order they finished.
    let mint = |task| rtcm_rt::proto::mint_trace(host.host_id(), TaskId(task), 0);
    let records = host.telemetry().trace.snapshot();
    let done: Vec<u64> =
        records.iter().filter(|r| r.stage == "completion").map(|r| r.trace).collect();
    assert_eq!(done, [mint(1), mint(0)], "urgent first");
    let report = host.report();
    assert_eq!(report.jobs_completed, 2);
    assert_eq!(report.deadline_misses, 0, "urgent job preempted the slow one");
}

#[test]
fn replay_submits_a_whole_trace() {
    use rtcm_core::time::Duration as CoreDuration;
    use rtcm_workload::{ArrivalConfig, ArrivalTrace, Phasing};

    let system = launch(
        "workload w\nprocessors 1\ntask t periodic period=50ms\n  subtask exec=1ms proc=0\n",
        "J_N_N",
    );
    let trace = ArrivalTrace::generate(
        system.tasks(),
        &ArrivalConfig {
            horizon: CoreDuration::from_millis(500),
            poisson_factor: 2.0,
            phasing: Phasing::Simultaneous,
        },
        1,
    );
    system.replay(&trace, 10.0).unwrap();
    assert!(system.quiesce(QUIESCE));
    let report = system.shutdown();
    assert_eq!(report.ratio.arrived_jobs() as usize, trace.len());
    assert_eq!(report.jobs_completed as usize, trace.len());
}

#[test]
fn duplicate_submission_is_rejected_not_fatal() {
    let system = launch(
        "workload w\nprocessors 1\ntask t aperiodic deadline=200ms\n  subtask exec=1ms proc=0\n",
        "J_N_N",
    );
    system.submit(TaskId(0), 0).unwrap();
    system.submit(TaskId(0), 0).unwrap(); // same job twice: caller mistake
    assert!(system.quiesce(QUIESCE), "the duplicate must not wedge the system");
    let report = system.shutdown();
    assert_eq!(report.jobs_completed, 1, "only one copy runs");
    assert_eq!(report.ratio.arrived_jobs(), 2);
}

#[test]
fn lb_per_job_consults_manager_every_job_even_with_per_task_ac() {
    // T_N_J: per-task AC admits once, but per-job load balancing means the
    // TE cannot fast-path — every job needs a (possibly relocated) plan.
    let system = launch(
        "workload w\nprocessors 2\n\
         task t periodic period=100ms\n  subtask exec=1ms proc=0 replicas=1\n",
        "T_N_J",
    );
    for seq in 0..4 {
        system.submit(TaskId(0), seq).unwrap();
        assert!(system.quiesce(QUIESCE));
    }
    let report = system.shutdown();
    assert_eq!(report.jobs_completed, 4);
    // One fresh admission + three pass-through relocations, all at the
    // manager: the TE held every job.
    assert_eq!(report.hold.count(), 4);
    assert_eq!(report.ac_test.count(), 4);
}

#[test]
fn ir_per_task_reports_only_aperiodic_completions() {
    // Periodic-only workload + IR per task: nothing to report.
    let mut periodic_only = host(
        "workload w\nprocessors 1\ntask t periodic period=100ms\n  subtask exec=1ms proc=0\n",
        "J_T_N",
    );
    run_each(&mut periodic_only, 0..3);
    let report = periodic_only.report();
    assert_eq!(report.ir_reports, 0, "periodic completions are not reported per task");

    // The same configuration with an aperiodic task does report.
    let mut with_aperiodic = host(
        "workload w\nprocessors 1\ntask t aperiodic deadline=400ms\n  subtask exec=1ms proc=0\n",
        "J_T_N",
    );
    run_each(&mut with_aperiodic, 0..3);
    let report = with_aperiodic.report();
    assert!(report.ir_reports > 0, "aperiodic completions are reported per task");
}

#[test]
fn ir_strategy_reconfigures_at_runtime() {
    use rtcm_core::strategy::{IrStrategy, ServiceConfig};
    let mut host = host(
        "workload w\nprocessors 1\ntask t aperiodic deadline=400ms\n  subtask exec=1ms proc=0\n",
        "J_N_N",
    );
    // Phase 1: no IR — no reports.
    run_each(&mut host, 0..3);
    assert_eq!(host.report().ir_reports, 0);

    // Hot-swap to IR per job.
    let s = host.services();
    let new = ServiceConfig::new(s.ac, IrStrategy::PerJob, s.lb);
    host.reconfigure(new).unwrap();
    assert_eq!(new.label(), "J_J_N");
    assert_eq!(host.services().ir, IrStrategy::PerJob);
    // The commit is in every node's mailbox; the next steps apply it.

    // Phase 2: reports flow.
    run_each(&mut host, 3..6);
    let report = host.report();
    assert!(report.ir_reports > 0, "reports after reconfiguration");
}

#[test]
fn ir_reconfiguration_respects_validity_rule() {
    use rtcm_core::strategy::{IrStrategy, ServiceConfig};
    let system = launch(
        "workload w\nprocessors 1\ntask t periodic period=100ms\n  subtask exec=1ms proc=0\n",
        "T_T_T",
    );
    let with_ir = |ir| {
        let s = system.services();
        ServiceConfig::new(s.ac, ir, s.lb)
    };
    // AC per task + IR per job is the §4.5 contradiction.
    assert!(system.reconfigure(with_ir(IrStrategy::PerJob)).is_err());
    assert_eq!(system.services().label(), "T_T_T", "unchanged after refusal");
    // Downgrading to no IR is fine.
    assert!(system.reconfigure(with_ir(IrStrategy::None)).is_ok());
    assert_eq!(system.services().label(), "T_N_T");
    let _ = system.shutdown();
}

#[test]
fn full_config_swap_carries_reservations_mid_flight() {
    // A per-task system with a live reservation swaps to per-job: the
    // reservation is drained (not dropped), the sticky rejection clears,
    // and per-job semantics govern later arrivals — all without stopping
    // the system.
    let system = launch(
        "workload w\nprocessors 1\n\
         task a periodic period=100ms\n  subtask exec=1ms proc=0\n\
         task hog periodic period=100ms\n  subtask exec=60ms proc=0\n",
        "T_N_N",
    );
    system.submit(TaskId(0), 0).unwrap();
    assert!(system.quiesce(QUIESCE));
    system.submit(TaskId(1), 0).unwrap(); // rejected: 0.01 + 0.6 breaks the bound
    assert!(system.quiesce(QUIESCE));

    let report = system.reconfigure("J_N_N".parse().unwrap()).unwrap();
    assert_eq!(report.handover.reservations_drained, 1);
    assert_eq!(report.handover.rejections_cleared, 1);
    assert_eq!(report.acked_nodes, 1);
    assert_eq!(system.services().label(), "J_N_N");

    // Under per-job AC the formerly sticky-rejected task is tested afresh
    // per arrival (and still rejected while the drained contribution
    // guards the old reservation's in-flight window, which is fine).
    for seq in 1..4 {
        system.submit(TaskId(0), seq).unwrap();
        assert!(system.quiesce(QUIESCE));
    }
    let stats = system.shutdown();
    assert_eq!(stats.reconfig_swaps, 1);
    assert_eq!(stats.reconfig_latency.count(), 1);
    assert!(stats.jobs_completed >= 4, "jobs kept completing across the swap");
}

#[test]
fn swap_under_load_defers_but_loses_nothing() {
    // Fire arrivals while the swap runs: every job must still be decided
    // (accepted or rejected), none may be lost in the prepare window.
    let system = launch(
        "workload w\nprocessors 2\n\
         task a aperiodic deadline=500ms\n  subtask exec=1ms proc=0\n\
         task b aperiodic deadline=500ms\n  subtask exec=1ms proc=1\n",
        "J_N_N",
    );
    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        let sys = &system;
        let stop = &stop;
        let submitter = scope.spawn(move || {
            let mut seq = 0;
            while !stop.load(std::sync::atomic::Ordering::SeqCst) {
                let _ = sys.submit(TaskId(seq % 2), seq as u64 / 2);
                seq += 1;
                std::thread::sleep(StdDuration::from_micros(200));
            }
            seq
        });
        for target in ["T_T_T", "J_J_J", "J_N_N"] {
            std::thread::sleep(StdDuration::from_millis(10));
            let report = system.reconfigure(target.parse().unwrap()).unwrap();
            assert_eq!(system.services().label(), target);
            assert!(report.jobs_in_flight >= 0);
        }
        stop.store(true, std::sync::atomic::Ordering::SeqCst);
        let submitted = submitter.join().unwrap();
        assert!(submitted > 0);
    });
    assert!(system.quiesce(QUIESCE), "all deferred decisions drained");
    let stats = system.shutdown();
    assert_eq!(stats.reconfig_swaps, 3);
    assert_eq!(
        stats.jobs_completed,
        stats.ratio.released_jobs(),
        "every released job completed; nothing was lost in a prepare window"
    );
    assert!(stats.jobs_completed > 0);
}

#[test]
fn reconfig_swap_is_observable_across_a_tcp_bridge() {
    // The paper's testbed spans hosts; bridging topics::RECONFIG through a
    // TCP gateway makes a swap visible to a remote federation in real
    // time: the observer sees prepare then commit with the target config.
    use rtcm_events::{remote, topics, Federation, Latency, NodeId};
    use rtcm_rt::ReconfigReport;

    let system = launch(
        "workload w\nprocessors 2\ntask t aperiodic deadline=200ms\n  subtask exec=1ms proc=0\n",
        "J_N_N",
    );
    // Gateway on an app node (node 1 = processor 0): the manager (node 0)
    // publishes the reconfig events, so they are forwarded outward.
    let (addr, _server) =
        remote::listen(system.federation(), NodeId(1), "127.0.0.1:0", vec![topics::RECONFIG])
            .unwrap();
    let remote_host = Federation::new(2, Latency::None, 0);
    let _client = remote::connect(&remote_host, NodeId(0), addr, vec![topics::RECONFIG]).unwrap();
    let observer = remote_host.handle(NodeId(1)).unwrap().subscribe(topics::RECONFIG);

    let report: ReconfigReport = system.reconfigure("J_J_T".parse().unwrap()).unwrap();
    assert_eq!(report.handover.to.label(), "J_J_T");

    use rtcm_rt::proto::{ReconfigMsg, ReconfigPhase};
    let recv = StdDuration::from_secs(5);
    let prepare: ReconfigMsg =
        rtcm_rt::proto::decode(&observer.recv_timeout(recv).unwrap().payload);
    assert_eq!(prepare.phase, ReconfigPhase::Prepare);
    let commit: ReconfigMsg = rtcm_rt::proto::decode(&observer.recv_timeout(recv).unwrap().payload);
    assert_eq!(commit.phase, ReconfigPhase::Commit);
    assert_eq!(commit.services.label(), "J_J_T");
    assert_eq!(commit.epoch, prepare.epoch);
    let _ = system.shutdown();
}

#[test]
fn unacked_swap_aborts_without_partial_application() {
    // With a zero ack timeout no node can ack in time: the swap must
    // abort, report the failure (instead of silently half-applying), and
    // leave the old configuration fully in force.
    use rtcm_rt::ReconfigureError;
    let deployment = configure_with(
        &spec("workload w\nprocessors 1\ntask t aperiodic deadline=200ms\n  subtask exec=1ms proc=0\n"),
        "J_N_N".parse().unwrap(),
    )
    .unwrap();
    let mut options = RtOptions::fast();
    options.reconfig_ack_timeout = StdDuration::ZERO;
    let system = System::launch(&deployment, options).unwrap();

    let err = system.reconfigure("J_J_J".parse().unwrap()).unwrap_err();
    assert_eq!(
        err,
        ReconfigureError::Aborted {
            reason: rtcm_rt::ReconfigAbortReason::AckTimeout,
            acked: 0,
            expected: 1
        }
    );
    assert_eq!(system.services().label(), "J_N_N", "old configuration stays in force");

    // The fence was lifted by the abort: the system still serves traffic.
    for seq in 0..3 {
        system.submit(TaskId(0), seq).unwrap();
        assert!(system.quiesce(QUIESCE));
    }
    let stats = system.shutdown();
    assert_eq!(stats.reconfig_aborts, 1);
    assert_eq!(stats.reconfig_abort_reasons.ack_timeout, 1, "abort reason is diagnosable");
    assert_eq!(stats.reconfig_abort_reasons.total(), 1);
    assert_eq!(stats.reconfig_swaps, 0);
    assert_eq!(stats.jobs_completed, 3);
    assert_eq!(stats.ir_reports, 0, "IR swap never applied anywhere");
}

#[test]
fn bridge_fault_counters_surface_in_the_system_report() {
    // A corrupt frame on a bridge attached to the system's federation must
    // be observable from the SystemReport alone (the old reader broke the
    // loop silently with zero accounting).
    use rtcm_events::{remote, topics, NodeId};
    use std::io::Write;

    let system = launch(
        "workload w\nprocessors 1\ntask t aperiodic deadline=200ms\n  subtask exec=1ms proc=0\n",
        "J_N_N",
    );
    let (addr, server) =
        remote::listen(system.federation(), NodeId(1), "127.0.0.1:0", vec![topics::RECONFIG])
            .unwrap();
    let mut raw = std::net::TcpStream::connect(addr).unwrap();
    // Well-framed, but the body does not open with the version byte.
    raw.write_all(&3u32.to_be_bytes()).unwrap();
    raw.write_all(&[0xEE, 0xEE, 0xEE]).unwrap();

    let deadline = std::time::Instant::now() + StdDuration::from_secs(5);
    while system.stats().bridge_rx_errors == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(StdDuration::from_millis(5));
    }
    assert!(!server.is_connected(), "corrupt frame closed the link");
    let report = system.shutdown();
    assert_eq!(report.bridge_rx_errors, 1);
    assert_eq!(report.bridge_disconnects, 1);
    assert_eq!(report.bridge_tx_dropped, 0);
}

/// Bridges RECONFIG out and RECONFIG_ACK back between a system and a
/// remote federation, returning the remote side and the bridge handles.
fn bridge_quorum(
    system: &System,
    gateway: rtcm_events::NodeId,
) -> (rtcm_events::Federation, rtcm_events::BridgeHandle, rtcm_events::BridgeHandle) {
    let remote_host = rtcm_events::Federation::new(2, rtcm_events::Latency::None, 0);
    let (server, client) = link_quorum(system, gateway, &remote_host);
    (remote_host, server, client)
}

/// One RECONFIG-out / RECONFIG_ACK-back link between `system` and an
/// existing remote federation (whose gateway is its node 0).
fn link_quorum(
    system: &System,
    gateway: rtcm_events::NodeId,
    remote_host: &rtcm_events::Federation,
) -> (rtcm_events::BridgeHandle, rtcm_events::BridgeHandle) {
    use rtcm_events::{remote, topics, NodeId};
    let topics = vec![topics::RECONFIG, topics::RECONFIG_ACK];
    let (addr, server) =
        remote::listen(system.federation(), gateway, "127.0.0.1:0", topics.clone()).unwrap();
    let client = remote::connect(remote_host, NodeId(0), addr, topics).unwrap();
    (server, client)
}

#[test]
fn bridged_host_vote_is_required_and_sufficient_for_commit() {
    use rtcm_rt::{QuorumMember, QuorumOptions};

    let system = launch(
        "workload w\nprocessors 2\ntask t aperiodic deadline=200ms\n  subtask exec=1ms proc=0\n",
        "J_N_N",
    );
    let (remote_host, _server, _client) = bridge_quorum(&system, rtcm_events::NodeId(1));
    let member =
        QuorumMember::attach(&remote_host, rtcm_events::NodeId(1), QuorumOptions::default())
            .unwrap();
    system.register_remote_voter(member.host_id());
    assert_eq!(system.remote_voter_count(), 1);

    let report = system.reconfigure("J_J_T".parse().unwrap()).unwrap();
    assert_eq!(report.acked_nodes, 2, "both local nodes acked");
    assert_eq!(report.acked_remote, 1, "the bridged federation voted");
    assert_eq!(system.services().label(), "J_J_T");
    assert_eq!(member.ack_count(), 1);
    // The commit still has to cross the bridge to the member.
    let deadline = std::time::Instant::now() + StdDuration::from_secs(5);
    while member.is_fenced() {
        assert!(std::time::Instant::now() < deadline, "commit never released the fence");
        std::thread::sleep(StdDuration::from_millis(5));
    }
    assert_eq!(member.observed_commits(), vec!["J_J_T".parse().unwrap()]);

    // A departing host deregisters cleanly; the next swap no longer needs
    // its vote.
    system.deregister_remote_voter(member.host_id());
    let report = system.reconfigure("J_N_N".parse().unwrap()).unwrap();
    assert_eq!(report.acked_remote, 0);
    let _ = system.shutdown();
}

#[test]
fn withheld_bridged_vote_aborts_with_ack_timeout() {
    use rtcm_rt::{QuorumMember, QuorumOptions, ReconfigAbortReason, ReconfigureError};

    let system = launch_with_short_ack_timeout();

    let (remote_host, _server, _client) = bridge_quorum(&system, rtcm_events::NodeId(1));
    let member =
        QuorumMember::attach(&remote_host, rtcm_events::NodeId(1), QuorumOptions::default())
            .unwrap();
    system.register_remote_voter(member.host_id());

    // Partition the member: it ignores prepares, so the quorum is one vote
    // short and the swap must abort cleanly at the deadline.
    member.set_holding(true);
    let err = system.reconfigure("T_T_T".parse().unwrap()).unwrap_err();
    assert_eq!(
        err,
        ReconfigureError::Aborted {
            reason: ReconfigAbortReason::AckTimeout,
            acked: 1,
            expected: 2
        }
    );
    assert_eq!(system.services().label(), "J_N_N", "no partial application");
    assert_eq!(member.ack_count(), 0);

    // Healing the partition restores the quorum.
    member.set_holding(false);
    assert!(system.reconfigure("T_T_T".parse().unwrap()).is_ok());
    assert_eq!(system.services().label(), "T_T_T");

    let stats = system.shutdown();
    assert_eq!(stats.reconfig_abort_reasons.ack_timeout, 1);
    assert_eq!(stats.reconfig_swaps, 1);
}

#[test]
fn foreign_fenced_member_vetoes_the_prepare() {
    use rtcm_rt::proto::{self, ReconfigMsg, ReconfigPhase};
    use rtcm_rt::{QuorumMember, QuorumOptions, ReconfigAbortReason, ReconfigureError};

    let system = launch(
        "workload w\nprocessors 1\ntask t aperiodic deadline=200ms\n  subtask exec=1ms proc=0\n",
        "J_N_N",
    );
    let (remote_host, _server, _client) = bridge_quorum(&system, rtcm_events::NodeId(1));
    let member =
        QuorumMember::attach(&remote_host, rtcm_events::NodeId(1), QuorumOptions::default())
            .unwrap();
    system.register_remote_voter(member.host_id());

    // A different coordinator (another host mid-swap) fences the member
    // first; publish its prepare directly into the remote federation.
    let foreign = ReconfigMsg {
        coordinator: 0xDEAD_BEEF,
        host: 0xBAD_0057,
        epoch: 1,
        phase: ReconfigPhase::Prepare,
        services: "T_T_T".parse().unwrap(),
        sent_ns: 0,
        trace: proto::swap_trace(0xDEAD_BEEF, 1),
    };
    remote_host
        .handle(rtcm_events::NodeId(0))
        .unwrap()
        .publish(rtcm_events::topics::RECONFIG, proto::encode(&foreign));
    let fenced_by = std::time::Instant::now() + StdDuration::from_secs(5);
    while !member.is_fenced() {
        assert!(std::time::Instant::now() < fenced_by, "member never fenced");
        std::thread::sleep(StdDuration::from_millis(5));
    }

    // Our swap now collides with the foreign fence: the member vetoes and
    // the coordinator aborts immediately with the carried reason.
    let err = system.reconfigure("J_J_J".parse().unwrap()).unwrap_err();
    assert!(
        matches!(
            err,
            ReconfigureError::Aborted { reason: ReconfigAbortReason::ForeignCoordinator, .. }
        ),
        "expected a foreign-coordinator abort, got {err}"
    );
    assert_eq!(member.nack_count(), 1);

    let stats = system.shutdown();
    assert_eq!(stats.reconfig_abort_reasons.foreign_coordinator, 1);
}

/// Polls `cond` for up to 5 s (bridge hops and teardowns are asynchronous).
fn eventually(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = std::time::Instant::now() + StdDuration::from_secs(5);
    while !cond() {
        assert!(std::time::Instant::now() < deadline, "timed out waiting for: {what}");
        std::thread::sleep(StdDuration::from_millis(5));
    }
}

/// A one-processor system whose prepare phase gives up after 300 ms.
fn launch_with_short_ack_timeout() -> System {
    let deployment = configure_with(
        &spec("workload w\nprocessors 1\ntask t aperiodic deadline=200ms\n  subtask exec=1ms proc=0\n"),
        "J_N_N".parse().unwrap(),
    )
    .unwrap();
    let mut options = RtOptions::fast();
    options.reconfig_ack_timeout = StdDuration::from_millis(300);
    System::launch(&deployment, options).unwrap()
}

#[test]
fn garbage_reconfig_payload_costs_the_member_its_link_not_its_thread() {
    use rtcm_events::{topics, BridgeCloseReason, BridgeState, NodeId};
    use rtcm_rt::proto::MsgKind;
    use rtcm_rt::{QuorumMember, QuorumOptions, ReconfigAbortReason, ReconfigureError};

    let system = launch_with_short_ack_timeout();
    let (remote_host, server, client) = bridge_quorum(&system, NodeId(1));
    let member = QuorumMember::attach(&remote_host, NodeId(1), QuorumOptions::default()).unwrap();
    system.register_remote_voter(member.host_id());
    eventually("bridge up", || server.is_connected() && client.is_connected());

    // A valid frame around a payload that is no ReconfigMsg: published on
    // the coordinator's side, it crosses the bridge like any phase would.
    system
        .federation()
        .handle(NodeId(0))
        .unwrap()
        .publish(topics::RECONFIG, &b"\x01\x07 not a reconfig message"[..]);

    // The member drops it, counts it, and fail-stops the link it came over
    // (its federation's gateway republished it) — the delegate survives.
    eventually("member counted the payload", || member.decode_errors() == 1);
    eventually("member's link closed", || !client.is_connected());
    assert_eq!(client.state(), BridgeState::Closed { reason: BridgeCloseReason::CorruptPayload });
    // The link's state flips before its closer books the error.
    eventually("rx error counted", || remote_host.stats().bridge_rx_errors == 1);
    assert!(!member.is_fenced());
    // The coordinator's own node saw the same payload, from a local node
    // that is no gateway: dropped and counted, nothing to close.
    eventually("local node counted the payload", || {
        system.telemetry().decode_errors.get(MsgKind::Reconfig) == 1
    });
    assert_eq!(system.stats().bridge_rx_errors, 0);

    // With the link gone the member cannot vote: quorum rules abort.
    let err = system.reconfigure("J_J_J".parse().unwrap()).unwrap_err();
    assert!(
        matches!(err, ReconfigureError::Aborted { reason: ReconfigAbortReason::AckTimeout, .. }),
        "expected an ack-timeout abort, got {err}"
    );

    // A fresh link, and the same delegate thread votes the next swap in.
    drop((server, client));
    let _link = link_quorum(&system, NodeId(1), &remote_host);
    let report = system.reconfigure("J_J_J".parse().unwrap()).unwrap();
    assert_eq!(report.acked_remote, 1);
    assert_eq!(member.ack_count(), 1);
    assert_eq!(member.decode_errors(), 1);
    let _ = system.shutdown();
}

#[test]
fn garbage_vote_mid_prepare_is_no_vote_and_the_manager_lives() {
    use rtcm_events::{topics, BridgeCloseReason, BridgeState, NodeId};
    use rtcm_rt::proto::{self, ReconfigMsg, ReconfigPhase};
    use rtcm_rt::{QuorumMember, QuorumOptions, ReconfigAbortReason, ReconfigureError};

    let system = launch_with_short_ack_timeout();
    let oam = system.serve_oam("127.0.0.1:0").unwrap();
    let (remote_host, server, client) = bridge_quorum(&system, NodeId(1));
    let member = QuorumMember::attach(&remote_host, NodeId(1), QuorumOptions::default()).unwrap();
    system.register_remote_voter(member.host_id());
    eventually("bridge up", || server.is_connected() && client.is_connected());
    // The member withholds its vote, so the prepare window stays open for
    // the whole ack timeout.
    member.set_holding(true);

    let observer = system.federation().handle(NodeId(0)).unwrap().subscribe(topics::RECONFIG);
    std::thread::scope(|scope| {
        let swap = scope.spawn(|| system.reconfigure("J_J_J".parse().unwrap()));
        let prepare: ReconfigMsg =
            proto::decode(&observer.recv_timeout(StdDuration::from_secs(5)).unwrap().payload);
        assert_eq!(prepare.phase, ReconfigPhase::Prepare);
        // Mid-prepare, the remote host sends a vote that is garbage inside
        // a valid frame.
        remote_host.handle(NodeId(1)).unwrap().publish(topics::RECONFIG_ACK, &b"\x01\x08\xff"[..]);

        // No vote was cast: the swap ends by the quorum's own rule.
        let err = swap.join().unwrap().unwrap_err();
        assert!(
            matches!(
                err,
                ReconfigureError::Aborted { reason: ReconfigAbortReason::AckTimeout, .. }
            ),
            "expected an ack-timeout abort, got {err}"
        );
    });
    let page = rtcm_telemetry::scrape(oam.addr(), "/metrics").unwrap();
    assert_eq!(metric(&page, "rtcm_proto_decode_errors_total{topic=\"reconfig_ack\"}"), 1);
    assert_eq!(metric(&page, "rtcm_proto_decode_errors_total{topic=\"task_arrive\"}"), 0);
    // The coordinator's gateway republished the payload: its link is gone.
    assert_eq!(server.state(), BridgeState::Closed { reason: BridgeCloseReason::CorruptPayload });
    assert_eq!(metric(&page, "rtcm_bridge_rx_errors_total"), 1);

    // The manager is alive: once the host is reachable and willing
    // again, the next swap commits.
    member.set_holding(false);
    drop((server, client));
    let _link = link_quorum(&system, NodeId(1), &remote_host);
    let report = system.reconfigure("J_J_J".parse().unwrap()).unwrap();
    assert_eq!(report.acked_remote, 1);
    assert_eq!(system.services().label(), "J_J_J");
    oam.shutdown();
    let _ = system.shutdown();
}

#[test]
fn well_formed_messages_naming_things_that_do_not_exist_are_ignored() {
    // Payloads that decode but point outside the deployment — a processor
    // it does not have, a stage the task does not have, a placement of the
    // wrong length — used to index out of bounds in the receiving thread;
    // an over-long placement naming a *real* last stage used to run it,
    // book a completion nobody submitted and take `in_flight` to −1.
    use rtcm_events::{topics, NodeId};
    use rtcm_rt::proto::{self, AcceptMsg, IdleResetMsg, TriggerMsg};

    let system = launch(
        "workload w\nprocessors 2\n\
         task chain aperiodic deadline=500ms\n  subtask exec=1ms proc=0\n  subtask exec=1ms proc=1\n",
        "J_J_N",
    );
    let outsider = system.federation().handle(NodeId(0)).unwrap();
    let job = proto::job(0, 99);
    outsider.publish(
        topics::IDLE_RESET,
        proto::encode(&IdleResetMsg { processor: 9_999, completed: vec![(job, 0)], started_ns: 0 }),
    );
    // A stage past the chain's end, then its real last stage under a
    // placement one processor too long.
    for (next_subtask, assignment) in [(7, vec![0; 8]), (1, vec![0, 1, 1])] {
        outsider.publish(
            topics::TRIGGER,
            proto::encode(&TriggerMsg {
                job,
                next_subtask,
                assignment,
                arrival_ns: 0,
                deadline_ns: u64::MAX,
                sent_ns: 0,
                trace: 0,
            }),
        );
    }
    outsider.publish(
        topics::ACCEPT,
        proto::encode(&AcceptMsg {
            job,
            assignment: Vec::new(),
            release_proc: 0,
            arrival_ns: 0,
            deadline_ns: u64::MAX,
            newly_admitted: true,
            sent_ns: 0,
            trace: 0,
        }),
    );

    // Every thread is still there: a real job — queued behind the forged
    // messages on the same mailboxes — runs both stages, nothing else ran,
    // and its idle resets are applied.
    system.submit(TaskId(0), 0).unwrap();
    let submitted = proto::mint_trace(system.host_id(), TaskId(0), 0);
    eventually("the submitted job completes", || {
        let records = system.telemetry().trace.snapshot();
        records.iter().any(|r| r.trace == submitted && r.stage == "completion")
    });
    assert!(system.quiesce(QUIESCE));
    assert_eq!(system.in_flight(), 0);
    let report = system.shutdown();
    assert_eq!(report.jobs_completed, 1);
    assert!(report.ir_reports >= 1);
}

#[test]
fn validation_refusals_are_counted_in_the_breakdown() {
    let system = launch(
        "workload w\nprocessors 1\ntask t periodic period=100ms\n  subtask exec=1ms proc=0\n",
        "T_T_T",
    );
    // AC per task + IR per job is the §4.5 contradiction.
    assert!(system.reconfigure("T_J_N".parse().unwrap()).is_err());
    let stats = system.shutdown();
    assert_eq!(stats.reconfig_abort_reasons.validation, 1);
    assert_eq!(stats.reconfig_aborts, 0, "nothing was prepared, so no protocol abort");
}

#[test]
fn governor_swaps_an_overloaded_system_automatically() {
    use rtcm_core::govern::{GovernorPolicy, GovernorRule, Metric, Trigger};

    // One processor; a heavy aperiodic alert (0.8 utilization per job)
    // means only one job fits per deadline window — a flood collapses the
    // accepted ratio well below 0.5.
    let system = launch(
        "workload w\nprocessors 1\n\
         task scan periodic period=50ms\n  subtask exec=1ms proc=0\n\
         task alert aperiodic deadline=100ms\n  subtask exec=80ms proc=0\n",
        "J_N_N",
    );
    let policy = GovernorPolicy::new()
        .rule(
            GovernorRule::new(
                "collapse-defense",
                Metric::AcceptedRatio,
                Trigger::Below(0.5),
                2,
                "T_T_T".parse().unwrap(),
            )
            .min_arrivals(3),
        )
        .cooldown(3);
    let governor = system.spawn_governor(policy, StdDuration::from_millis(30)).unwrap();

    // Flood: the governor must detect the collapse and swap on its own.
    let deadline = std::time::Instant::now() + StdDuration::from_secs(10);
    let mut seq = 0;
    while system.services().label() == "J_N_N" {
        assert!(std::time::Instant::now() < deadline, "governor never reacted");
        let _ = system.submit(TaskId(0), seq);
        let _ = system.submit(TaskId(1), seq);
        seq += 1;
        std::thread::sleep(StdDuration::from_millis(5));
    }
    assert_eq!(system.services().label(), "T_T_T", "defensive swap applied");

    let events = governor.stop();
    assert!(!events.is_empty());
    assert_eq!(events[0].decision.rule_name, "collapse-defense");
    assert!(events[0].outcome.is_ok(), "the swap committed");

    assert!(system.quiesce(QUIESCE));
    let stats = system.shutdown();
    assert!(stats.governor_windows > 0);
    assert_eq!(stats.governor_swaps, 1);
    assert_eq!(stats.reconfig_swaps, 1, "the governor's swap is an ordinary two-phase swap");
}

#[test]
fn governor_senses_slack_recovery_while_the_system_idles() {
    use rtcm_core::govern::{GovernorPolicy, GovernorRule, Metric, Trigger};

    // Utilization 0.5 per job: schedulable alone, but a flood collapses
    // the ratio. After the flood stops, *nothing arrives anymore* — the
    // slack-based relax rule can only fire if the governor's sensing
    // tracks ledger expiry without being driven by arrivals.
    let system = launch(
        "workload w\nprocessors 1\n\
         task alert aperiodic deadline=100ms\n  subtask exec=50ms proc=0\n",
        "J_N_N",
    );
    let policy = GovernorPolicy::new()
        .rule(
            GovernorRule::new(
                "defend",
                Metric::AcceptedRatio,
                Trigger::Below(0.5),
                2,
                "T_T_T".parse().unwrap(),
            )
            .min_arrivals(3),
        )
        .rule(GovernorRule::new(
            "relax",
            Metric::AubSlack,
            Trigger::Above(0.9),
            2,
            "J_N_N".parse().unwrap(),
        ))
        .cooldown(2);
    let governor = system.spawn_governor(policy, StdDuration::from_millis(30)).unwrap();

    // Flood until the defensive swap lands.
    let deadline = std::time::Instant::now() + StdDuration::from_secs(10);
    let mut seq = 0;
    while system.services().label() != "T_T_T" {
        assert!(std::time::Instant::now() < deadline, "defend never fired");
        let _ = system.submit(TaskId(0), seq);
        seq += 1;
        std::thread::sleep(StdDuration::from_millis(5));
    }

    // Storm over: no further submissions. Entries expire within 100 ms;
    // the per-window gauge probe must observe the recovered slack and
    // relax — an arrival-driven gauge would stay stale forever here.
    assert!(system.quiesce(QUIESCE));
    let deadline = std::time::Instant::now() + StdDuration::from_secs(10);
    while system.services().label() != "J_N_N" {
        assert!(
            std::time::Instant::now() < deadline,
            "relax never fired: idle slack was not sensed"
        );
        std::thread::sleep(StdDuration::from_millis(10));
    }

    let events = governor.stop();
    assert!(events.iter().any(|e| e.decision.rule_name == "relax" && e.outcome.is_ok()));
    let stats = system.shutdown();
    assert!(stats.governor_swaps >= 2, "defend and relax both committed");
    assert!(stats.aub_slack > 0.9, "the probed gauge reflects the drained ledger");
}

#[test]
fn governor_with_never_firing_policy_is_inert() {
    use rtcm_core::govern::{GovernorPolicy, GovernorRule, Metric, Trigger};

    let system = launch(
        "workload w\nprocessors 1\ntask t aperiodic deadline=200ms\n  subtask exec=1ms proc=0\n",
        "J_N_N",
    );
    let policy = GovernorPolicy::new().rule(GovernorRule::new(
        "impossible",
        Metric::AcceptedRatio,
        Trigger::Below(-1.0),
        1,
        "T_T_T".parse().unwrap(),
    ));
    let governor = system.spawn_governor(policy, StdDuration::from_millis(10)).unwrap();
    for seq in 0..5 {
        system.submit(TaskId(0), seq).unwrap();
        assert!(system.quiesce(QUIESCE));
    }
    std::thread::sleep(StdDuration::from_millis(50));
    let events = governor.stop();
    assert!(events.is_empty(), "no rule fired");
    assert_eq!(system.services().label(), "J_N_N");
    let stats = system.shutdown();
    assert!(stats.governor_windows > 0, "the governor sensed windows");
    assert_eq!(stats.governor_swaps, 0);
    assert_eq!(stats.jobs_completed, 5);
}

#[test]
fn shutdown_mid_prepare_closes_the_pending_swap() {
    use rtcm_core::govern::{GovernorPolicy, GovernorRule, Metric, Trigger};
    use rtcm_events::{topics, NodeId};
    use rtcm_rt::proto::{ReconfigMsg, ReconfigPhase};
    use rtcm_rt::ReconfigureError;

    let deployment = configure_with(
        &spec("workload w\nprocessors 1\ntask t aperiodic deadline=200ms\n  subtask exec=1ms proc=0\n"),
        "J_N_N".parse().unwrap(),
    )
    .unwrap();
    let mut options = RtOptions::fast();
    options.reconfig_ack_timeout = StdDuration::from_secs(30);
    let system = System::launch(&deployment, options).unwrap();
    // A required voter that never votes: every prepare stays out until
    // its 30 s deadline.
    system.register_remote_voter(system.host_id() ^ 1);
    let observer = system.federation().handle(NodeId(1)).unwrap().subscribe(topics::RECONFIG);

    // An untouched system is fully slack, so this fires at the first window.
    let policy = GovernorPolicy::new().rule(GovernorRule::new(
        "always",
        Metric::AubSlack,
        Trigger::Above(0.5),
        1,
        "J_J_J".parse().unwrap(),
    ));
    let governor = system.spawn_governor(policy, StdDuration::from_millis(10)).unwrap();
    let prepare: ReconfigMsg =
        rtcm_rt::proto::decode(&observer.recv_timeout(StdDuration::from_secs(5)).unwrap().payload);
    assert_eq!(prepare.phase, ReconfigPhase::Prepare);

    let asked = std::time::Instant::now();
    let stats = system.shutdown();
    assert!(asked.elapsed() < StdDuration::from_secs(2), "shutdown waited out the prepare");
    assert_eq!(stats.reconfig_aborts, 0, "a dropped swap is not an abort");
    assert!(governor.wait_for_events(1, StdDuration::from_secs(5)));
    let events = governor.stop();
    assert_eq!(events.last().unwrap().outcome, Err(ReconfigureError::Closed));
}

/// A policy that fires every window still never stacks a second swap on a
/// pending one: windows during a prepare are sensed and counted, not
/// evaluated.
#[test]
fn governor_never_stacks_swaps_while_one_is_pending() {
    use rtcm_core::govern::{GovernorPolicy, GovernorRule, Metric, Trigger};
    use rtcm_events::{topics, NodeId};
    use rtcm_rt::proto::{ReconfigMsg, ReconfigPhase};
    use rtcm_rt::{ReconfigAbortReason, ReconfigureError};

    let system = launch_with_short_ack_timeout();
    // A required voter that never votes: every prepare aborts at 300 ms.
    system.register_remote_voter(system.host_id() ^ 1);
    let observer = system.federation().handle(NodeId(1)).unwrap().subscribe(topics::RECONFIG);

    let policy = GovernorPolicy::new()
        .rule(GovernorRule::new(
            "always",
            Metric::AubSlack,
            Trigger::Above(0.5),
            1,
            "J_J_J".parse().unwrap(),
        ))
        .cooldown(0);
    let governor = system.spawn_governor(policy, StdDuration::from_millis(10)).unwrap();
    let phase = || -> ReconfigMsg {
        rtcm_rt::proto::decode(&observer.recv_timeout(StdDuration::from_secs(5)).unwrap().payload)
    };
    let prepare = phase();
    assert_eq!(prepare.phase, ReconfigPhase::Prepare);
    let windows_at_prepare = system.stats().governor_windows;

    let next = phase();
    assert_eq!(next.phase, ReconfigPhase::Abort, "a second prepare was stacked on the first");
    assert_eq!(next.epoch, prepare.epoch);
    let windows = system.stats().governor_windows - windows_at_prepare;
    assert!(windows >= 10, "windows kept closing during the prepare (got {windows})");

    let reason = ReconfigAbortReason::AckTimeout;
    let aborted = Err(ReconfigureError::Aborted { reason, acked: 1, expected: 2 });
    assert_eq!(governor.stop()[0].outcome, aborted);
    let _ = system.shutdown();
}

#[test]
#[should_panic(expected = "governor window must be positive")]
fn zero_governor_window_is_refused() {
    let system = launch_with_short_ack_timeout();
    let _ = system.spawn_governor(rtcm_core::govern::GovernorPolicy::new(), StdDuration::ZERO);
}

#[test]
fn report_counts_are_consistent() {
    let system = launch(
        "workload w\nprocessors 2\n\
         task a periodic period=50ms\n  subtask exec=1ms proc=0 replicas=1\n\
         task b aperiodic deadline=100ms\n  subtask exec=1ms proc=1\n",
        "J_J_T",
    );
    for seq in 0..10 {
        system.submit(TaskId(0), seq).unwrap();
        system.submit(TaskId(1), seq).unwrap();
    }
    assert!(system.quiesce(QUIESCE));
    let report = system.shutdown();
    assert_eq!(report.ratio.arrived_jobs(), 20);
    assert_eq!(report.jobs_completed, report.ratio.released_jobs(), "every released job completes");
}

/// The event fast path's publish/fan-out counters surface in the system
/// report: every protocol message (including the injected submissions
/// themselves) crosses the channel, nothing is dropped by the runtime's
/// own unbounded mailboxes, and every publish lands in some mailbox.
#[test]
fn event_channel_counters_surface_in_the_report() {
    let system = launch(
        "workload w\nprocessors 2\n\
         task a periodic period=50ms\n  subtask exec=1ms proc=0 replicas=1\n\
         task b aperiodic deadline=100ms\n  subtask exec=1ms proc=1\n",
        "J_J_T",
    );
    for seq in 0..5 {
        system.submit(TaskId(0), seq).unwrap();
        system.submit(TaskId(1), seq).unwrap();
    }
    assert!(system.quiesce(QUIESCE));
    let report = system.shutdown();
    assert!(
        report.events_published >= 30,
        "10 injects + 10 arrives + 10 decisions at least, got {}",
        report.events_published
    );
    // Deliveries track publishes (fan-out ≥ 1 per publish; a few parcels
    // may still sit in the network heap at snapshot time).
    assert!(
        report.events_delivered + 16 >= report.events_published,
        "{} delivered / {} published",
        report.events_delivered,
        report.events_published
    );
    assert!(report.remote_parcels > 0, "TE↔AC traffic crosses nodes");
}

/// The tentpole's headline number: an idle system performs **zero** timer
/// wakeups. Before the reactor rework every node and the manager woke on
/// a 500 µs control poll (~2000 wakeups/s/node — ~128k/s for this spec);
/// now a handler whose wheel is empty is stepped only for its mailbox.
/// The counter rides [`SystemReport::timer_wakeups`], so any regression
/// back toward polling shows up as a nonzero report here.
#[test]
fn idle_system_performs_zero_timer_wakeups() {
    let system = launch(
        "workload w\nprocessors 64\ntask t aperiodic deadline=500ms\n  subtask exec=1ms proc=0\n",
        "J_N_N",
    );
    // 64 nodes + the manager, all idle for a measured interval.
    std::thread::sleep(StdDuration::from_millis(300));
    assert_eq!(system.stats().timer_wakeups, 0, "idle threads must not wake on timers");

    // The system is not wedged: a submitted job still drains normally,
    // and under Noop execution no completion timer is armed either.
    system.submit(TaskId(0), 0).unwrap();
    assert!(system.quiesce(QUIESCE));
    let report = system.shutdown();
    assert_eq!(report.jobs_completed, 1);
    assert_eq!(report.timer_wakeups, 0, "noop execution completes inline");
}

/// The zero-wakeup counter's positive control: in `ExecMode::Sleep` the
/// running subjob's completion is a timer-wheel entry, so a job must
/// record a timer wakeup — proving the counter actually observes the timers
/// and the idle test above isn't vacuously green. It is the node's only
/// entry and the reactor wakes at its exact deadline, so an uncontended
/// job costs exactly one wakeup however long it runs — 50 ms too, past the
/// 6.4 ms horizon where a hierarchical wheel would first wake to cascade —
/// where 200 µs slices paid ≈ 25.
#[test]
fn sleep_mode_completions_ride_the_timer_wheel() {
    for exec in ["5ms", "50ms"] {
        let deployment = configure_with(
            &spec(&format!(
                "workload w\nprocessors 1\ntask t aperiodic deadline=500ms\n  subtask exec={exec} proc=0\n"
            )),
            "J_N_N".parse().unwrap(),
        )
        .unwrap();
        let system = System::launch(
            &deployment,
            RtOptions { exec: ExecMode::Sleep, ..RtOptions::default() },
        )
        .unwrap();
        system.submit(TaskId(0), 0).unwrap();
        assert!(system.quiesce(QUIESCE));
        let report = system.shutdown();
        assert_eq!(report.jobs_completed, 1);
        assert_eq!(report.timer_wakeups, 1, "one completion wakeup for a {exec} subjob");
    }
}

/// A stale fence (prepare whose commit/abort never arrives) now drops *at*
/// its wheel deadline instead of up to a poll period later — and never
/// early. Pinned both ways: still fenced at 60% of the timeout, recovered
/// within a tight grace of it. The old design only re-checked expiry when
/// reconfiguration traffic or a 20 ms poll tick happened to arrive; with
/// no further traffic this test would then hang until the poll fired.
#[test]
fn stale_fence_recovers_at_the_wheel_deadline() {
    use rtcm_events::{Federation, Latency, NodeId};
    use rtcm_rt::proto::{self, ReconfigMsg, ReconfigPhase};
    use rtcm_rt::{QuorumMember, QuorumOptions};

    let fence_timeout = StdDuration::from_millis(400);
    let host = Federation::new(2, Latency::None, 7);
    let member = QuorumMember::attach(&host, NodeId(1), QuorumOptions { fence_timeout }).unwrap();

    // A foreign prepare whose commit will never arrive.
    let foreign = ReconfigMsg {
        coordinator: 0xDEAD_BEEF,
        host: 0xBAD_0057,
        epoch: 1,
        phase: ReconfigPhase::Prepare,
        services: "T_T_T".parse().unwrap(),
        sent_ns: 0,
        trace: proto::swap_trace(0xDEAD_BEEF, 1),
    };
    host.handle(NodeId(0)).unwrap().publish(rtcm_events::topics::RECONFIG, proto::encode(&foreign));

    let fenced_by = std::time::Instant::now() + StdDuration::from_secs(5);
    while !member.is_fenced() {
        assert!(std::time::Instant::now() < fenced_by, "member never fenced");
        std::thread::sleep(StdDuration::from_millis(1));
    }
    let fenced_at = std::time::Instant::now();

    // Never early: the wheel fires on `deadline_ns <= now`, so well short
    // of the timeout the fence must still stand.
    std::thread::sleep(fence_timeout.mul_f64(0.6));
    assert!(member.is_fenced(), "fence dropped before its deadline");

    // At the deadline (plus scheduler grace) the fence is gone — no
    // further traffic required, no 20 ms poll quantum added.
    let grace = StdDuration::from_millis(100);
    while member.is_fenced() {
        assert!(
            fenced_at.elapsed() < fence_timeout + grace,
            "fence outlived its wheel deadline by more than {grace:?}"
        );
        std::thread::sleep(StdDuration::from_millis(1));
    }
    let held = fenced_at.elapsed();
    // We first observed the fence at most a poll step after it was raised,
    // so the measured hold can undershoot the timeout only slightly.
    assert!(
        held + StdDuration::from_millis(50) >= fence_timeout,
        "fence dropped {held:?} after observation — far before its {fence_timeout:?} deadline"
    );
    member.shutdown();
}

// ---------------------------------------------------------------------
// Telemetry plane: OAM scrapes, job traces, governor wheel ticks
// ---------------------------------------------------------------------

/// The single un-labelled sample line for `name` in an exposition page.
fn sample<'p>(page: &'p str, name: &str) -> &'p str {
    page.lines()
        .find_map(|l| l.strip_prefix(name).and_then(|rest| rest.strip_prefix(' ')))
        .unwrap_or_else(|| panic!("metric {name} absent from exposition"))
}

/// Value of the sample line for `name`, an integer.
fn metric(page: &str, name: &str) -> u64 {
    sample(page, name).parse().unwrap_or_else(|_| panic!("metric {name} is not an integer"))
}

/// Every runtime row reads on the page as in the report, the
/// once-per-swap and once-per-window rows included: a governor swap, a
/// caller's swap, a refused target and some governor windows book them.
#[test]
fn oam_scrape_matches_the_report_snapshot() {
    use rtcm_core::govern::{GovernorPolicy, GovernorRule, Metric, Trigger};

    let system = launch(
        "workload w\nprocessors 2\n\
         task chain aperiodic deadline=500ms\n  subtask exec=1ms proc=0\n  subtask exec=1ms proc=1\n",
        "J_N_N",
    );
    let oam = system.serve_oam("127.0.0.1:0").unwrap();

    for seq in 0..10 {
        system.submit(TaskId(0), seq).unwrap();
    }
    // Scraping mid-run is legal and lock-free; exact values race with the
    // jobs still flowing, so only sanity-check the page shape here.
    let live = rtcm_telemetry::scrape(oam.addr(), "/metrics").unwrap();
    assert!(live.contains("# TYPE rtcm_jobs_arrived_total counter"));
    assert!(live.contains("# TYPE rtcm_response_ns histogram"));

    // Slack is always above -1, so the first window swaps to T_T_T; from
    // then on the target is current and the governor only senses.
    let policy = GovernorPolicy::new().rule(GovernorRule::new(
        "always",
        Metric::AubSlack,
        Trigger::Above(-1.0),
        1,
        "T_T_T".parse().unwrap(),
    ));
    let governor = system.spawn_governor(policy, StdDuration::from_millis(10)).unwrap();
    assert!(governor.wait_for_events(1, StdDuration::from_secs(10)), "the governor acted");
    assert!(governor.stop()[0].outcome.is_ok(), "the governor's swap committed");
    system.reconfigure("J_N_N".parse().unwrap()).unwrap();
    assert!(system.reconfigure("T_J_N".parse().unwrap()).is_err(), "§4.5 refuses T_J_N");

    assert!(system.quiesce(QUIESCE));
    let page = rtcm_telemetry::scrape(oam.addr(), "/metrics").unwrap();
    let report = system.stats();
    assert_eq!(metric(&page, "rtcm_jobs_arrived_total"), report.ratio.arrived_jobs());
    assert_eq!(metric(&page, "rtcm_jobs_completed_total"), report.jobs_completed);
    assert_eq!(metric(&page, "rtcm_deadline_misses_total"), report.deadline_misses);
    assert_eq!(metric(&page, "rtcm_ir_reports_total"), report.ir_reports);
    assert_eq!(metric(&page, "rtcm_events_published_total"), report.events_published);
    assert_eq!(metric(&page, "rtcm_response_ns_count"), report.response.count());
    assert_eq!(metric(&page, "rtcm_jobs_in_flight"), 0);

    assert_eq!(report.reconfig_swaps, 2);
    assert_eq!(report.governor_swaps, 1);
    assert_eq!(report.reconfig_abort_reasons.validation, 1);
    assert!(report.governor_windows >= 1);
    let reasons = report.reconfig_abort_reasons;
    for (name, value) in [
        ("rtcm_reconfig_swaps_total", report.reconfig_swaps),
        ("rtcm_reconfig_aborts_total", report.reconfig_aborts),
        ("rtcm_reconfig_aborts_ack_timeout_total", reasons.ack_timeout),
        ("rtcm_reconfig_aborts_validation_total", reasons.validation),
        ("rtcm_reconfig_aborts_foreign_coordinator_total", reasons.foreign_coordinator),
        ("rtcm_reconfig_deferred_total", report.reconfig_deferred),
        ("rtcm_governor_windows_total", report.governor_windows),
        ("rtcm_governor_swaps_total", report.governor_swaps),
        ("rtcm_governor_overruns_total", report.governor_overruns),
    ] {
        assert_eq!(metric(&page, name), value, "{name}");
    }
    for (name, value) in [
        ("rtcm_reconfig_max_inflight", report.reconfig_max_inflight as f64),
        ("rtcm_aub_slack", report.aub_slack),
        ("rtcm_util_imbalance", report.util_imbalance),
    ] {
        assert_eq!(sample(&page, name).parse::<f64>().unwrap(), value, "{name}");
    }

    // The trace route serves one JSON object per line, covering the runs.
    let trace = rtcm_telemetry::scrape(oam.addr(), "/trace").unwrap();
    assert!(trace.lines().count() >= 10, "at least one record per job");
    assert!(trace.lines().all(|l| l.starts_with('{') && l.ends_with('}')));

    oam.shutdown();
    let _ = system.shutdown();
}

/// The registry population one admission decision walks is on `/metrics`:
/// a job stays a current entry until its *deadline* — completing and being
/// idle-reset does not retire it — and the next arrival's expiry does.
#[test]
fn live_entries_gauge_counts_jobs_until_their_deadline() {
    let system = launch(
        "workload w\nprocessors 1\ntask t aperiodic deadline=50ms\n  subtask exec=1ms proc=0\n",
        "J_J_N",
    );
    let oam = system.serve_oam("127.0.0.1:0").unwrap();
    let live_entries = || {
        let page = rtcm_telemetry::scrape(oam.addr(), "/metrics").unwrap();
        assert!(page.contains("# TYPE rtcm_admission_live_entries gauge"));
        metric(&page, "rtcm_admission_live_entries")
    };
    assert_eq!(live_entries(), 0);

    system.submit(TaskId(0), 0).unwrap();
    assert!(system.quiesce(QUIESCE));
    assert_eq!(live_entries(), 1, "done and idle-reset, but its deadline has not passed");

    // Past the first job's deadline: the second arrival expires it first.
    std::thread::sleep(StdDuration::from_millis(60));
    system.submit(TaskId(0), 1).unwrap();
    assert!(system.quiesce(QUIESCE));
    assert_eq!(live_entries(), 1, "the expired entry left; only the new job is current");

    oam.shutdown();
    let _ = system.shutdown();
}

/// Figure 8's op 3 (LB plan) is sampled only where the balancer runs: once
/// per fresh decision under LB, never without it, and not for a
/// pass-through, which relocates without a fresh test. Op 4 (the rest of
/// the decision, expiry included) is sampled once per decision.
#[test]
fn fig8_ops_are_sampled_where_they_run() {
    let n = 4;
    for (services, lb_plans) in [("J_N_J", n), ("J_N_N", 0), ("T_N_J", 1)] {
        let system = launch(
            "workload w\nprocessors 2\n\
             task t periodic period=100ms\n  subtask exec=1ms proc=0 replicas=1\n",
            services,
        );
        for seq in 0..n {
            system.submit(TaskId(0), seq).unwrap();
            assert!(system.quiesce(QUIESCE));
        }
        let report = system.shutdown();
        assert_eq!(report.lb_plan.count(), lb_plans, "{services}: op 3");
        assert_eq!(report.ac_test.count(), n, "{services}: op 4");
    }
}

/// The manager clamps an arrival stamp to its own clock: a well-formed
/// `ArriveMsg` stamped near `u64::MAX` used to expire every admitted job
/// (voiding the guarantee for jobs still running), and its accepted
/// deadline overflowed, panicking the manager thread in debug builds.
#[test]
fn arrival_stamped_in_the_future_expires_nothing() {
    use rtcm_events::{topics, NodeId};
    use rtcm_rt::proto::{self, ArriveMsg, RejectMsg};

    // `h` fits alone (f(0.55) < 1), not beside `a` (f(0.65) > 1).
    let system = launch(
        "workload w\nprocessors 1\n\
         task a aperiodic deadline=100s\n  subtask exec=10s proc=0\n\
         task h aperiodic deadline=100s\n  subtask exec=55s proc=0\n",
        "J_N_N",
    );
    system.submit(TaskId(0), 0).unwrap();
    assert!(system.quiesce(QUIESCE));

    let outsider = system.federation().handle(NodeId(0)).unwrap();
    let rejects = outsider.subscribe(topics::REJECT);
    let forged = proto::job(1, 0);
    // Arrival processor 99: no node books the job either way.
    outsider.publish(
        topics::TASK_ARRIVE,
        proto::encode(&ArriveMsg {
            job: forged,
            arrival_proc: 99,
            arrival_ns: u64::MAX - 1,
            sent_ns: 0,
            trace: 0,
        }),
    );
    let reject: RejectMsg =
        proto::decode(&rejects.recv_timeout(StdDuration::from_secs(5)).unwrap().payload);
    assert_eq!(reject.job, forged, "`a`'s shares still count against `h`");

    // The manager is alive: a real submit is still decided.
    system.submit(TaskId(0), 1).unwrap();
    assert!(system.quiesce(QUIESCE));
    let report = system.shutdown();
    assert_eq!(report.ratio.released_jobs(), 2);
}

#[test]
fn job_trace_covers_the_lifecycle_with_a_deterministic_id() {
    let system = launch(
        "workload w\nprocessors 2\n\
         task chain aperiodic deadline=500ms\n  subtask exec=1ms proc=0\n  subtask exec=1ms proc=1\n",
        "J_N_N",
    );
    system.submit(TaskId(0), 7).unwrap();
    assert!(system.quiesce(QUIESCE));

    // The id is minted from (host, task, seq) — a reader who knows what
    // was submitted can compute it without scraping anything first.
    let expected = rtcm_rt::proto::mint_trace(system.host_id(), TaskId(0), 7);
    let stages: Vec<String> = system
        .telemetry()
        .trace
        .snapshot()
        .into_iter()
        .filter(|r| r.trace == expected)
        .map(|r| r.stage)
        .collect();
    for stage in ["arrival", "admission", "release", "completion"] {
        assert!(stages.contains(&stage.to_string()), "missing stage {stage} in {stages:?}");
    }
    let _ = system.shutdown();
}

#[test]
fn bridged_swap_trace_ids_correlate_across_hosts() {
    use rtcm_rt::{QuorumMember, QuorumOptions};

    let system = launch(
        "workload w\nprocessors 2\ntask t aperiodic deadline=200ms\n  subtask exec=1ms proc=0\n",
        "J_N_N",
    );
    let (remote_host, _server, _client) = bridge_quorum(&system, rtcm_events::NodeId(1));
    let member =
        QuorumMember::attach(&remote_host, rtcm_events::NodeId(1), QuorumOptions::default())
            .unwrap();
    system.register_remote_voter(member.host_id());

    system.reconfigure("T_T_T".parse().unwrap()).unwrap();

    let local = system.telemetry().trace.snapshot();
    let commit =
        local.iter().find(|r| r.stage == "reconfig_commit").expect("coordinator traced its commit");
    assert!(
        local.iter().any(|r| r.stage == "reconfig_prepare" && r.trace == commit.trace),
        "prepare and commit share the swap's trace id"
    );

    // The member's dump carries the *same* id for the same swap — the
    // correlation needs no clock alignment and no extra wire traffic.
    let deadline = std::time::Instant::now() + StdDuration::from_secs(5);
    loop {
        let remote = member.trace().snapshot();
        if remote.iter().any(|r| r.stage == "reconfig_commit" && r.trace == commit.trace) {
            assert!(
                remote.iter().any(|r| r.stage == "reconfig_prepare" && r.trace == commit.trace),
                "member traced the prepare it voted on"
            );
            break;
        }
        assert!(std::time::Instant::now() < deadline, "member never traced the commit");
        std::thread::sleep(StdDuration::from_millis(5));
    }
    member.shutdown();
    let _ = system.shutdown();
}

#[test]
fn governor_ticks_ride_the_timer_wheel() {
    use rtcm_core::govern::{GovernorPolicy, GovernorRule, Metric, Trigger};

    let system = launch(
        "workload w\nprocessors 1\ntask t aperiodic deadline=200ms\n  subtask exec=1ms proc=0\n",
        "J_N_N",
    );
    let before = system.stats();
    let policy = GovernorPolicy::new().rule(GovernorRule::new(
        "impossible",
        Metric::AcceptedRatio,
        Trigger::Below(-1.0),
        1,
        "T_T_T".parse().unwrap(),
    ));
    let governor = system.spawn_governor(policy, StdDuration::from_millis(10)).unwrap();
    // No jobs are submitted: every window boundary the governor observes
    // is a pure timer-wheel wakeup, so the counter must track them.
    std::thread::sleep(StdDuration::from_millis(120));
    let _ = governor.stop();
    let after = system.stats();
    let windows = after.governor_windows - before.governor_windows;
    let wakeups = after.timer_wakeups - before.timer_wakeups;
    assert!(windows >= 3, "several windows elapsed (got {windows})");
    assert!(
        wakeups >= windows,
        "each governor window boundary is a wheel wakeup ({wakeups} < {windows})"
    );
    let _ = system.shutdown();
}

#[test]
fn governor_handle_notifies_instead_of_polling() {
    use rtcm_core::govern::{GovernorPolicy, GovernorRule, Metric, Trigger};

    let system = launch(
        "workload w\nprocessors 1\n\
         task alert aperiodic deadline=100ms\n  subtask exec=80ms proc=0\n",
        "J_N_N",
    );
    let policy = GovernorPolicy::new()
        .rule(
            GovernorRule::new(
                "collapse-defense",
                Metric::AcceptedRatio,
                Trigger::Below(0.5),
                2,
                "T_T_T".parse().unwrap(),
            )
            .min_arrivals(3),
        )
        .cooldown(3);
    let governor = system.spawn_governor(policy, StdDuration::from_millis(30)).unwrap();

    // Nothing has happened yet: a bounded wait must time out...
    assert!(!governor.wait_for_events(1, StdDuration::from_millis(50)));
    // ...and a zero-count wait is trivially satisfied.
    assert!(governor.wait_for_events(0, StdDuration::ZERO));

    // Flood in the background; the foreground blocks on the notification
    // rather than polling the log.
    let feeder = {
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let flag = std::sync::Arc::clone(&stop);
        let sys = &system;
        std::thread::scope(|scope| {
            let handle = scope.spawn(move || {
                let mut seq = 0;
                while !flag.load(std::sync::atomic::Ordering::SeqCst) {
                    let _ = sys.submit(TaskId(0), seq);
                    seq += 1;
                    std::thread::sleep(StdDuration::from_millis(5));
                }
            });
            let woke = governor.wait_for_events(1, StdDuration::from_secs(10));
            stop.store(true, std::sync::atomic::Ordering::SeqCst);
            handle.join().unwrap();
            woke
        })
    };
    assert!(feeder, "the defensive swap was notified to the waiting launcher");
    let events = governor.stop();
    assert_eq!(events[0].decision.rule_name, "collapse-defense");
    assert!(system.quiesce(QUIESCE));
    let _ = system.shutdown();
}

/// Runs `f` on a thread of its own and waits at most 5 s for it.
fn returns_promptly(what: &str, f: impl FnOnce() + Send + 'static) {
    let (done, finished) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        f();
        let _ = done.send(());
    });
    assert!(finished.recv_timeout(StdDuration::from_secs(5)).is_ok(), "{what} never returned");
}

#[test]
fn a_member_stops_promptly_once_its_federation_has_shut_down() {
    use rtcm_events::{Federation, Latency, NodeId};
    use rtcm_rt::{QuorumMember, QuorumOptions};

    // The federation's executor has ended, and dropped the member with it.
    let mut federation = Federation::new(2, Latency::None, 7);
    let member = QuorumMember::attach(&federation, NodeId(1), QuorumOptions::default()).unwrap();
    federation.shutdown();
    returns_promptly("a member's shutdown after its federation's", move || member.shutdown());

    // Attached after the shutdown: no executor ever hosts it.
    let member = QuorumMember::attach(&federation, NodeId(1), QuorumOptions::default()).unwrap();
    returns_promptly("a member attached after the shutdown", move || member.shutdown());
}

#[test]
fn a_member_on_a_host_stops_at_once_and_leaves_at_the_next_move() {
    use rtcm_events::NodeId;
    use rtcm_rt::{QuorumMember, QuorumOptions};

    // No thread runs a host's executor: the stop cannot wait for it.
    returns_promptly("a member's shutdown on its host's thread", || {
        let mut host = host(
            "workload w\nprocessors 2\ntask chain aperiodic deadline=50ms\n  \
             subtask exec=3ms proc=0\n  subtask exec=4ms proc=1\n",
            "J_J_N",
        );
        let member =
            QuorumMember::attach(host.federation(), NodeId(1), QuorumOptions::default()).unwrap();
        let trace = std::sync::Arc::clone(member.trace());
        member.shutdown();
        assert_eq!(std::sync::Arc::strong_count(&trace), 2, "the delegate is still hosted");
        host.run();
        assert_eq!(std::sync::Arc::strong_count(&trace), 1, "the host's next move dropped it");
    });
}
