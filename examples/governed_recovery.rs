//! Closed-loop adaptation: a correlated aperiodic burst floods every
//! processor at once, and the **governor** — not an operator, not a
//! pre-programmed schedule — detects the accepted-ratio collapse and
//! swaps the live system into its defensive configuration.
//!
//! Three acts:
//!
//! 1. **Governed simulation**: the same correlated burst hits a `J_N_N`
//!    system three ways — statically, with PR 3's *scripted* mode
//!    schedule (an operator who knows when the burst starts), and under a
//!    `GovernorPolicy` with **no schedule at all**. The governor must
//!    recover accepted utilization comparably to the script it replaces.
//! 2. **Threaded runtime**: `System::spawn_governor` senses a live
//!    overload in windows the manager closes on its own reactor (the
//!    simulator's one call, `Governor::sense`) and actuates the swap.
//! 3. **Two-host quorum**: a TCP-bridged federation is registered as a
//!    *voting* prepare-quorum member: its ack is required for commit, and
//!    withholding it (a simulated partition) aborts the swap cleanly with
//!    `ReconfigAbortReason::AckTimeout`.
//!
//! ```sh
//! cargo run --release --example governed_recovery
//! ```

use std::time::Duration as StdDuration;

use rtcm::core::govern::{GovernorPolicy, GovernorRule, Metric, Trigger};
use rtcm::core::reconfig::ModeSchedule;
use rtcm::core::task::TaskId;
use rtcm::core::time::{Duration, Time};
use rtcm::rt::{
    QuorumMember, QuorumOptions, ReconfigAbortReason, ReconfigureError, RtOptions, System,
};
use rtcm::sim::{simulate_with, JobRecord, SimConfig, SimOptions};
use rtcm::workload::{BurstScenario, RandomWorkload};
use rtcm_config::configure_with;

/// Utilization-weighted accepted ratio of the arrivals inside `[lo, hi)`.
fn window_ratio(records: &[JobRecord], lo: Time, hi: Time) -> f64 {
    let mut arrived = 0.0;
    let mut released = 0.0;
    for r in records.iter().filter(|r| r.arrival >= lo && r.arrival < hi) {
        arrived += r.utilization;
        if r.released {
            released += r.utilization;
        }
    }
    if arrived > 0.0 {
        released / arrived
    } else {
        1.0
    }
}

fn print_buckets(label: &str, records: &[JobRecord], horizon_secs: u64) {
    print!("  {label:<22}");
    for bucket in 0..horizon_secs / 10 {
        let lo = Time::ZERO + Duration::from_secs(bucket * 10);
        let hi = Time::ZERO + Duration::from_secs((bucket + 1) * 10);
        print!("{:>5.0}", window_ratio(records, lo, hi) * 100.0);
    }
    println!("   (% accepted / 10 s)");
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ---- Act 1: governed simulation vs. the scripted operator -----------
    let scenario = BurstScenario {
        horizon: Duration::from_secs(60),
        burst_start: Duration::from_secs(20),
        burst_duration: Duration::from_secs(20),
        intensity: 10.0,
        // A healthy 0.3-target baseline: the collapse the governor sees is
        // the burst, not background noise.
        workload: RandomWorkload { target_utilization: 0.3, ..Default::default() },
        ..Default::default()
    };
    let (tasks, trace) = scenario.generate(7)?;
    let baseline = "J_N_N".parse()?;
    let defensive = "T_T_T".parse()?;
    println!(
        "correlated burst: {}x aperiodic rate on ALL processors during [{}, {})\n",
        scenario.intensity,
        scenario.burst_start,
        scenario.burst_end(),
    );

    let cfg = SimConfig::new(baseline);
    let recorded = SimOptions { record_jobs: true, ..SimOptions::default() };
    let static_records =
        simulate_with(&tasks, &trace, &cfg, &recorded)?.records.expect("recording was on");

    // PR 3's operator: knows the burst schedule in advance.
    let schedule = ModeSchedule::new()
        .then_at(Time::ZERO + Duration::from_secs(25), defensive)
        .then_at(Time::ZERO + Duration::from_secs(50), baseline);
    let scripted = SimOptions { schedule, ..recorded.clone() };
    let scripted_records =
        simulate_with(&tasks, &trace, &cfg, &scripted)?.records.expect("recording was on");

    // The governor: no schedule, only thresholds + hysteresis + cooldown.
    let policy = GovernorPolicy::defensive_recovery(baseline, defensive);
    println!("policy: {policy}\n");
    let governed = SimOptions { governor: Some((policy, Duration::from_secs(2))), ..recorded };
    let governed = simulate_with(&tasks, &trace, &cfg, &governed)?;
    let (gov_trace, governed_records) = (
        governed.governor.expect("a governor was set"),
        governed.records.expect("recording was on"),
    );

    let horizon_secs = scenario.horizon.as_secs_f64() as u64;
    print_buckets(&format!("static {baseline}"), &static_records, horizon_secs);
    print_buckets("scripted schedule", &scripted_records, horizon_secs);
    print_buckets("governed (no schedule)", &governed_records, horizon_secs);

    println!();
    for s in &gov_trace.switches {
        println!(
            "  governor: {} fired in window {} at {}: {} -> {}",
            s.rule, s.window, s.at, s.from, s.to
        );
    }
    assert!(!gov_trace.switches.is_empty(), "the governor must detect the collapse");
    let switch = &gov_trace.switches[0];
    assert_eq!(switch.to, defensive, "J_N_N -> T_T_T without any pre-programmed schedule");

    // Recovery metric: from the governor's own switch point to burst end.
    let lo = switch.at;
    let hi = Time::ZERO + scenario.burst_end();
    let static_r = window_ratio(&static_records, lo, hi);
    let scripted_r = window_ratio(&scripted_records, lo, hi);
    let governed_r = window_ratio(&governed_records, lo, hi);
    println!(
        "\n  in-burst accepted ratio after the governed switch ({lo}): \
         {static_r:.3} static, {scripted_r:.3} scripted, {governed_r:.3} governed"
    );
    assert!(governed_r > static_r, "the governed swap must recover accepted utilization");
    assert!(
        governed_r >= 0.8 * scripted_r,
        "automatic recovery ({governed_r:.3}) must be comparable to the scripted operator \
         ({scripted_r:.3})"
    );
    println!(
        "  sensing cost: {} windows, each an O(1) counter delta (see micro_govern)",
        gov_trace.windows.len()
    );

    // ---- Act 2: the governor on the threaded runtime --------------------
    println!("\nthreaded runtime: a live overload, sensed and answered by the governor");
    let deployment = configure_with(
        &rtcm::config::WorkloadSpec::parse(
            "workload live\nprocessors 1\n\
             task scan periodic period=50ms\n  subtask exec=1ms proc=0\n\
             task alert aperiodic deadline=100ms\n  subtask exec=80ms proc=0\n",
        )?,
        "J_N_N".parse()?,
    )?;
    let system = System::launch(&deployment, RtOptions::fast())?;
    let runtime_policy = GovernorPolicy::new()
        .rule(
            GovernorRule::new(
                "collapse-defense",
                Metric::AcceptedRatio,
                Trigger::Below(0.5),
                2,
                "T_T_T".parse()?,
            )
            .min_arrivals(3),
        )
        .cooldown(3);
    let governor = system.spawn_governor(runtime_policy, StdDuration::from_millis(30))?;

    let deadline = std::time::Instant::now() + StdDuration::from_secs(10);
    let mut seq = 0;
    while system.services().label() == "J_N_N" && std::time::Instant::now() < deadline {
        let _ = system.submit(TaskId(0), seq);
        let _ = system.submit(TaskId(1), seq);
        seq += 1;
        std::thread::sleep(StdDuration::from_millis(5));
    }
    assert_eq!(system.services().label(), "T_T_T", "the governor swapped the live system");
    for event in governor.stop() {
        match event.outcome {
            Ok(report) => {
                println!("  governor committed: {} -> {report}", event.decision.rule_name)
            }
            Err(e) => println!("  governor aborted: {e}"),
        }
    }
    assert!(system.quiesce(StdDuration::from_secs(10)));
    let stats = system.shutdown();
    println!(
        "  {} windows sensed, {} governor swaps, accepted ratio {}",
        stats.governor_windows, stats.governor_swaps, stats.ratio
    );

    // ---- Act 3: the bridged host is a voting quorum member --------------
    println!("\ntwo hosts over TCP: the remote federation's ack is required for commit");
    let deployment = configure_with(
        &rtcm::config::WorkloadSpec::parse(
            "workload quorum\nprocessors 2\n\
             task t aperiodic deadline=200ms\n  subtask exec=1ms proc=0\n",
        )?,
        "J_N_N".parse()?,
    )?;
    let mut options = RtOptions::fast();
    options.reconfig_ack_timeout = StdDuration::from_millis(400);
    let system = System::launch(&deployment, options)?;

    use rtcm::events::{remote, topics, Federation, Latency, NodeId};
    let quorum_topics = vec![topics::RECONFIG, topics::RECONFIG_ACK];
    let (addr, _server) =
        remote::listen(system.federation(), NodeId(1), "127.0.0.1:0", quorum_topics.clone())?;
    let remote_host = Federation::new(2, Latency::None, 0);
    let _client = remote::connect(&remote_host, NodeId(0), addr, quorum_topics)?;
    let member = QuorumMember::attach(&remote_host, NodeId(1), QuorumOptions::default())?;
    system.register_remote_voter(member.host_id());

    let report = system.reconfigure("T_T_T".parse()?)?;
    println!(
        "  commit with the remote vote: {} local + {} remote acks, epoch {}",
        report.acked_nodes, report.acked_remote, report.epoch
    );

    // Partition: the member withholds its vote; the swap must abort
    // cleanly, old configuration intact.
    member.set_holding(true);
    let err = system.reconfigure("J_N_N".parse()?).unwrap_err();
    println!("  partitioned remote: {err}");
    assert!(matches!(
        err,
        ReconfigureError::Aborted { reason: ReconfigAbortReason::AckTimeout, .. }
    ));
    assert_eq!(system.services().label(), "T_T_T", "no partial application");

    let stats = system.shutdown();
    println!(
        "  abort breakdown: {} ack-timeout / {} validation / {} foreign-coordinator",
        stats.reconfig_abort_reasons.ack_timeout,
        stats.reconfig_abort_reasons.validation,
        stats.reconfig_abort_reasons.foreign_coordinator,
    );

    println!("\nthe loop is closed: load is sensed, policy decides, the two-phase protocol");
    println!("actuates — and bridged hosts vote on every swap instead of watching it happen.");
    Ok(())
}
